//! The benchmark's programs, in the lint `"program"` dialect the
//! server admits, plus their fixed FLOP counts and a serial refblas
//! interpreter that serves as the correctness oracle.

use std::collections::BTreeMap;

use fblas_lint::input::{ConfigDoc, OpDoc, OperandDoc, ProgramDoc};
use fblas_refblas::level1;
use fblas_refblas::level2;
use fblas_refblas::types::Trans;

fn vector(name: &str, len: usize) -> OperandDoc {
    OperandDoc {
        name: name.into(),
        kind: "vector".into(),
        len: Some(len),
        rows: None,
        cols: None,
    }
}

fn matrix(name: &str, rows: usize, cols: usize) -> OperandDoc {
    OperandDoc {
        name: name.into(),
        kind: "matrix".into(),
        len: None,
        rows: Some(rows),
        cols: Some(cols),
    }
}

fn scalar(name: &str) -> OperandDoc {
    OperandDoc {
        name: name.into(),
        kind: "scalar".into(),
        len: None,
        rows: None,
        cols: None,
    }
}

fn op(kind: &str, alpha: f64, x: &str, y: Option<&str>, out: &str) -> OpDoc {
    OpDoc {
        op: kind.into(),
        alpha: Some(alpha),
        beta: None,
        a: None,
        x: Some(x.into()),
        y: y.map(Into::into),
        out: Some(out.into()),
        transposed: None,
    }
}

fn matop(kind: &str, alpha: f64, beta: Option<f64>, a: &str, transposed: bool) -> OpDoc {
    OpDoc {
        op: kind.into(),
        alpha: Some(alpha),
        beta,
        a: Some(a.into()),
        x: None,
        y: None,
        out: None,
        transposed: Some(transposed),
    }
}

fn tiles(tile: Option<usize>) -> ConfigDoc {
    ConfigDoc {
        tn: tile,
        tm: tile,
        ..ConfigDoc::default()
    }
}

/// `o = 1.5·A·x − 0.25·y` over an `n × n` matrix in `tile × tile` tiles.
pub fn gemv(n: usize, tile: usize) -> ProgramDoc {
    let mut g = matop("gemv", 1.5, Some(-0.25), "A", false);
    g.x = Some("x".into());
    g.y = Some("y".into());
    g.out = Some("o".into());
    ProgramDoc {
        operands: vec![
            matrix("A", n, n),
            vector("x", n),
            vector("y", n),
            vector("o", n),
        ],
        ops: vec![g],
        config: tiles(Some(tile)),
    }
}

/// `r = xᵀy`.
pub fn dot(n: usize) -> ProgramDoc {
    ProgramDoc {
        operands: vec![vector("x", n), vector("y", n), scalar("r")],
        ops: vec![op("dot", 1.0, "x", Some("y"), "r")],
        config: ConfigDoc::default(),
    }
}

/// `o = 0.75·x + y`.
pub fn axpy(n: usize) -> ProgramDoc {
    ProgramDoc {
        operands: vec![vector("x", n), vector("y", n), vector("o", n)],
        ops: vec![op("axpy", 0.75, "x", Some("y"), "o")],
        config: ConfigDoc::default(),
    }
}

/// An elementwise scal/axpy relay chain of `len` (2 or 4) ops: the
/// fused backend compiles it into one loop.
pub fn chain(n: usize, len: usize) -> ProgramDoc {
    let mut operands = vec![
        vector("x", n),
        vector("y", n),
        vector("a", n),
        vector("b", n),
    ];
    let mut ops = vec![
        op("scal", 1.5, "x", None, "a"),
        op("axpy", -0.5, "a", Some("y"), "b"),
    ];
    if len == 4 {
        operands.extend([vector("c", n), vector("d", n)]);
        ops.push(op("axpy", 0.25, "b", Some("x"), "c"));
        ops.push(op("scal", 2.0, "c", None, "d"));
    }
    ProgramDoc {
        operands,
        ops,
        config: ConfigDoc::default(),
    }
}

/// GEMVER (paper Sec. V): two rank-1 updates, then `xv = 3·Bᵀy + z`
/// and `w = 2·B·xv`.
pub fn gemver(n: usize) -> ProgramDoc {
    let mut operands = vec![matrix("A", n, n), matrix("B1", n, n), matrix("B", n, n)];
    operands.extend(
        ["u1", "v1", "u2", "v2", "y", "z", "xv", "w"]
            .iter()
            .map(|v| vector(v, n)),
    );
    let mut g1 = matop("ger", 1.0, None, "A", false);
    g1.x = Some("u1".into());
    g1.y = Some("v1".into());
    g1.out = Some("B1".into());
    let mut g2 = matop("ger", 1.0, None, "B1", false);
    g2.x = Some("u2".into());
    g2.y = Some("v2".into());
    g2.out = Some("B".into());
    let mut m1 = matop("gemv", 3.0, Some(1.0), "B", true);
    m1.x = Some("y".into());
    m1.y = Some("z".into());
    m1.out = Some("xv".into());
    let mut m2 = matop("gemv", 2.0, Some(0.0), "B", false);
    m2.x = Some("xv".into());
    m2.out = Some("w".into());
    ProgramDoc {
        operands,
        ops: vec![g1, g2, m1, m2],
        config: ConfigDoc::default(),
    }
}

/// AXPYDOT (paper Sec. V): `z = w − 0.75·v`, `r = zᵀu`.
pub fn axpydot(n: usize) -> ProgramDoc {
    ProgramDoc {
        operands: vec![
            vector("w", n),
            vector("v", n),
            vector("u", n),
            vector("z", n),
            scalar("r"),
        ],
        ops: vec![
            op("axpy", -0.75, "v", Some("w"), "z"),
            op("dot", 1.0, "z", Some("u"), "r"),
        ],
        config: ConfigDoc::default(),
    }
}

/// BICG (paper Sec. V): `q = A·p`, `s = Aᵀ·r` over one matrix.
pub fn bicg(n: usize) -> ProgramDoc {
    let mut m1 = matop("gemv", 1.0, Some(0.0), "A", false);
    m1.x = Some("p".into());
    m1.out = Some("q".into());
    let mut m2 = matop("gemv", 1.0, Some(0.0), "A", true);
    m2.x = Some("r".into());
    m2.out = Some("s".into());
    ProgramDoc {
        operands: vec![
            matrix("A", n, n),
            vector("p", n),
            vector("r", n),
            vector("q", n),
            vector("s", n),
        ],
        ops: vec![m1, m2],
        config: ConfigDoc::default(),
    }
}

/// A structurally broken program: `x` is referenced but never
/// declared, so lint rejects it at admission.
pub fn broken() -> ProgramDoc {
    ProgramDoc {
        operands: vec![vector("o", 8)],
        ops: vec![op("scal", 2.0, "x", None, "o")],
        config: ConfigDoc::default(),
    }
}

/// Elements of a vector or matrix operand (0 for scalars).
pub fn operand_len(od: &OperandDoc) -> usize {
    match od.kind.as_str() {
        "vector" => od.len.unwrap_or(0),
        "matrix" => od.rows.unwrap_or(0) * od.cols.unwrap_or(0),
        _ => 0,
    }
}

fn operand<'a>(doc: &'a ProgramDoc, name: &str) -> &'a OperandDoc {
    doc.operands
        .iter()
        .find(|o| o.name == name)
        .expect("benchmark programs declare every operand")
}

/// The program's fixed FLOP count: 2mn per GEMV and GER, 2n per AXPY
/// and DOT, n per SCAL, none for COPY. Independent of the backend.
pub fn flops(doc: &ProgramDoc) -> u64 {
    doc.ops
        .iter()
        .map(|o| {
            // An undeclared operand (a broken program) counts as empty.
            let len_of = |f: &Option<String>| {
                f.as_deref()
                    .and_then(|n| doc.operands.iter().find(|o| o.name == n))
                    .map_or(0, operand_len)
            };
            let n = len_of(&o.x) as u64;
            match o.op.as_str() {
                "gemv" | "ger" => 2 * len_of(&o.a) as u64,
                "axpy" | "dot" => 2 * n,
                "scal" => n,
                _ => 0,
            }
        })
        .sum()
}

/// Host-side operand values and scalar results.
#[derive(Debug, Default, Clone)]
pub struct Values {
    pub buffers: BTreeMap<String, Vec<f64>>,
    pub scalars: BTreeMap<String, f64>,
}

/// Fill every vector and matrix operand with `fill(name, i)`, the way
/// the server binds a request.
pub fn bind_values(doc: &ProgramDoc, fill: impl Fn(&str, usize) -> f64) -> Values {
    let mut v = Values::default();
    for od in &doc.operands {
        if od.kind == "scalar" {
            continue;
        }
        let data = (0..operand_len(od)).map(|i| fill(&od.name, i)).collect();
        v.buffers.insert(od.name.clone(), data);
    }
    v
}

/// Run the program serially on refblas, in program order, updating
/// `vals` in place.
pub fn run_refblas(doc: &ProgramDoc, vals: &mut Values) {
    for o in &doc.ops {
        let get = |name: &Option<String>| -> Vec<f64> {
            vals.buffers[name.as_deref().expect("operand named")].clone()
        };
        let out = o.out.clone().expect("every op names its output");
        let alpha = o.alpha.unwrap_or(1.0);
        match o.op.as_str() {
            "copy" => {
                let x = get(&o.x);
                let mut y = vec![0.0; x.len()];
                level1::copy(&x, &mut y);
                vals.buffers.insert(out, y);
            }
            "scal" => {
                let mut x = get(&o.x);
                level1::scal(alpha, &mut x);
                vals.buffers.insert(out, x);
            }
            "axpy" => {
                let x = get(&o.x);
                let mut y = get(&o.y);
                level1::axpy(alpha, &x, &mut y);
                vals.buffers.insert(out, y);
            }
            "dot" => {
                let r = level1::dot(&get(&o.x), &get(&o.y));
                vals.scalars.insert(out, r);
            }
            "gemv" => {
                let a_doc = operand(doc, o.a.as_deref().expect("gemv names A"));
                let (m, n) = (a_doc.rows.unwrap_or(0), a_doc.cols.unwrap_or(0));
                let transposed = o.transposed.unwrap_or(false);
                let (trans, out_len) = if transposed {
                    (Trans::Yes, n)
                } else {
                    (Trans::No, m)
                };
                let (beta, mut y) = match &o.y {
                    Some(_) => (o.beta.unwrap_or(0.0), get(&o.y)),
                    None => (0.0, vec![0.0; out_len]),
                };
                level2::gemv(trans, m, n, alpha, &get(&o.a), &get(&o.x), beta, &mut y);
                vals.buffers.insert(out, y);
            }
            "ger" => {
                let a_doc = operand(doc, o.a.as_deref().expect("ger names A"));
                let (m, n) = (a_doc.rows.unwrap_or(0), a_doc.cols.unwrap_or(0));
                let mut a = get(&o.a);
                level2::ger(m, n, alpha, &get(&o.x), &get(&o.y), &mut a);
                vals.buffers.insert(out, a);
            }
            other => panic!("benchmark programs use no `{other}` op"),
        }
    }
}

/// Relative tolerance of each output: 1e-12 for elementwise results,
/// 1e-9 for reductions and matrix ops (as `tests/host_api_vs_refblas.rs`).
fn tolerance(doc: &ProgramDoc, out: &str) -> f64 {
    let producer = doc
        .ops
        .iter()
        .rev()
        .find(|o| o.out.as_deref() == Some(out))
        .map_or("", |o| o.op.as_str());
    let upstream_reduction = doc
        .ops
        .iter()
        .any(|o| matches!(o.op.as_str(), "gemv" | "ger" | "dot"));
    match producer {
        "copy" | "scal" | "axpy" if !upstream_reduction => 1e-12,
        _ => 1e-9,
    }
}

/// Compare `got` against the refblas result `exp` for every expected
/// output (`outputs`, plus every scalar `exp` holds): `|got − exp| ≤
/// tol·(1 + |exp|)`, with reductions scaled by their accumulated
/// magnitude so reassociated sums are judged fairly. A missing or
/// unexpected output is an error.
pub fn compare(
    doc: &ProgramDoc,
    exp: &Values,
    outputs: &[String],
    got_buffers: &BTreeMap<String, Vec<f64>>,
    got_scalars: &BTreeMap<String, f64>,
) -> Result<(), String> {
    if let Some(extra) = got_buffers.keys().find(|k| !outputs.contains(k)) {
        return Err(format!("unexpected output `{extra}`"));
    }
    if let Some(extra) = got_scalars.keys().find(|k| !exp.scalars.contains_key(*k)) {
        return Err(format!("unexpected scalar `{extra}`"));
    }
    for name in outputs {
        let got = got_buffers
            .get(name)
            .ok_or_else(|| format!("output `{name}` is missing"))?;
        let want = exp
            .buffers
            .get(name)
            .ok_or_else(|| format!("no reference value for output `{name}`"))?;
        if want.len() != got.len() {
            return Err(format!(
                "`{name}`: {} elements, expected {}",
                got.len(),
                want.len()
            ));
        }
        let tol = tolerance(doc, name);
        for (i, (g, e)) in got.iter().zip(want).enumerate() {
            if !within((g - e).abs(), tol * (1.0 + e.abs())) {
                return Err(format!("`{name}`[{i}] = {g}, refblas {e}"));
            }
        }
    }
    for (name, want) in &exp.scalars {
        let got = got_scalars
            .get(name)
            .ok_or_else(|| format!("scalar `{name}` is missing"))?;
        let scale = reduction_scale(doc, exp, name);
        if !within((got - want).abs(), 1e-9 * (1.0 + scale)) {
            return Err(format!("scalar `{name}` = {got}, refblas {want}"));
        }
    }
    Ok(())
}

/// `diff ≤ limit`; false for a NaN, so a NaN output fails.
fn within(diff: f64, limit: f64) -> bool {
    diff <= limit
}

/// Σ|xᵢ·yᵢ| of the DOT producing `name`: the magnitude its rounding
/// error scales with.
fn reduction_scale(doc: &ProgramDoc, exp: &Values, name: &str) -> f64 {
    let Some(o) = doc.ops.iter().find(|o| o.out.as_deref() == Some(name)) else {
        return 0.0;
    };
    let (Some(x), Some(y)) = (&o.x, &o.y) else {
        return 0.0;
    };
    match (exp.buffers.get(x), exp.buffers.get(y)) {
        (Some(x), Some(y)) => x.iter().zip(y).map(|(a, b)| (a * b).abs()).sum(),
        _ => 0.0,
    }
}

/// The six `stream_large` programs, by name. Each runs for roughly
/// 50–150 ms, ten or more times the simulator's fixed per-run floor, so
/// per-element cost dominates; a round of all six stays near half a
/// second, so one run repeats every program many times.
pub fn stream_programs() -> Vec<(&'static str, ProgramDoc)> {
    vec![
        ("dot", dot(1 << 18)),
        ("chain", chain(1 << 20, 4)),
        ("gemv", gemv(512, 128)),
        ("gemver", gemver(160)),
        ("axpydot", axpydot(1 << 15)),
        ("bicg", bicg(192)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_lint::{lint_document_full, Document};

    #[test]
    fn every_program_passes_lint_and_broken_does_not() {
        let docs = [
            gemv(16, 16),
            gemv(96, 96),
            dot(256),
            axpy(4096),
            chain(256, 2),
            chain(256, 4),
            gemver(16),
            axpydot(256),
            bicg(16),
        ];
        for d in docs {
            let out = lint_document_full(&Document::Program(d.clone()), "<test>");
            assert!(
                out.report.accepted(),
                "{:?}\n{}",
                d.ops,
                out.report.render_table()
            );
        }
        let out = lint_document_full(&Document::Program(broken()), "<test>");
        assert!(!out.report.accepted());
    }

    #[test]
    fn flop_counts_are_fixed() {
        assert_eq!(flops(&dot(100)), 200);
        assert_eq!(flops(&gemv(10, 10)), 200);
        assert_eq!(flops(&chain(10, 4)), 10 + 20 + 20 + 10);
        assert_eq!(flops(&gemver(10)), 4 * 200);
    }

    #[test]
    fn compare_refuses_missing_extra_and_nan_outputs() {
        let doc = axpydot(3);
        let mut exp = bind_values(&doc, |_, i| i as f64);
        run_refblas(&doc, &mut exp);
        let outs = vec!["z".to_string()];
        let good = BTreeMap::from([("z".to_string(), exp.buffers["z"].clone())]);
        assert!(compare(&doc, &exp, &outs, &good, &exp.scalars).is_ok());
        assert!(compare(&doc, &exp, &outs, &BTreeMap::new(), &exp.scalars).is_err());
        assert!(compare(&doc, &exp, &outs, &good, &BTreeMap::new()).is_err());
        let mut extra = good.clone();
        extra.insert("w".to_string(), vec![0.0; 3]);
        assert!(compare(&doc, &exp, &outs, &extra, &exp.scalars).is_err());
        let nan = BTreeMap::from([("z".to_string(), vec![f64::NAN; 3])]);
        assert!(compare(&doc, &exp, &outs, &nan, &exp.scalars).is_err());
    }

    #[test]
    fn refblas_interpreter_matches_hand_computation() {
        let doc = axpydot(3);
        let mut v = bind_values(&doc, |name, i| match name {
            "w" => 1.0 + i as f64,
            "v" => 2.0,
            "u" => 1.0,
            _ => 0.0,
        });
        run_refblas(&doc, &mut v);
        // z = w − 0.75·v = [−0.5, 0.5, 1.5]; r = Σz = 1.5.
        assert_eq!(v.buffers["z"], vec![-0.5, 0.5, 1.5]);
        assert_eq!(v.scalars["r"], 1.5);
    }
}
