//! The `stream_large` workload: one caller thread runs `plan` then
//! `execute_plan_with_backend(Backend::Auto)` in a closed loop over six
//! large f64 programs, in process, with no server.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use fblas_core::composition::{
    execute_plan_audited_with_backend, execute_plan_with_backend, plan, Backend, Plan,
    PlannerConfig, Program,
};
use fblas_core::host::DeviceBuffer;
use fblas_lint::input::ProgramDoc;
use fblas_serve::protocol::{fill_value, fnv1a};

use crate::calib::Speed;
use crate::programs::{self, operand_len, Values};
use crate::serve::cpu_seconds;
use crate::steal;

/// One program, built, planned and bound.
pub struct Prepared {
    pub name: &'static str,
    pub doc: ProgramDoc,
    pub program: Program,
    pub cfg: PlannerConfig,
    pub plan: Plan,
    pub buffers: HashMap<String, DeviceBuffer<f64>>,
    pub flops: u64,
    fill_seed: u64,
}

/// The operand values a seed fills in.
fn fill_seed_of(seed: u64, name: &str) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fnv1a(name.as_bytes())
}

fn bind(doc: &ProgramDoc, fill_seed: u64) -> HashMap<String, DeviceBuffer<f64>> {
    doc.operands
        .iter()
        .filter(|od| od.kind != "scalar")
        .enumerate()
        .map(|(bank, od)| {
            let data = (0..operand_len(od))
                .map(|i| fill_value(fill_seed, &od.name, i))
                .collect();
            (
                od.name.clone(),
                DeviceBuffer::from_vec(&od.name, data, bank % 4),
            )
        })
        .collect()
}

/// Bind a fresh copy of a prepared program's operands.
pub fn bind_operands(p: &Prepared) -> HashMap<String, DeviceBuffer<f64>> {
    bind(&p.doc, p.fill_seed)
}

/// Build, plan and bind one program.
pub fn prepare(name: &'static str, doc: ProgramDoc, seed: u64) -> Result<Prepared, String> {
    let program = doc.to_program()?;
    let cfg = doc.config.planner_config();
    let plan = plan(&program, &cfg).map_err(|e| format!("{name}: {e}"))?;
    let fill_seed = fill_seed_of(seed, name);
    let buffers = bind(&doc, fill_seed);
    Ok(Prepared {
        name,
        flops: programs::flops(&doc),
        doc,
        program,
        cfg,
        plan,
        buffers,
        fill_seed,
    })
}

/// Set up all six programs.
pub fn setup(seed: u64) -> Result<Vec<Prepared>, String> {
    programs::stream_programs()
        .into_iter()
        .map(|(name, doc)| prepare(name, doc, seed))
        .collect()
}

/// Scalars returned by one execution.
pub type Scalars = BTreeMap<String, f64>;

/// Execute one prepared program on `backend`. Callers that check the
/// outputs call [`poison_outputs`] first.
pub fn run(p: &Prepared, backend: Backend) -> Result<Scalars, String> {
    execute_plan_with_backend::<f64>(&p.program, &p.plan, &p.cfg, &p.buffers, None, backend)
        .map(|o| o.scalars.into_iter().collect())
        .map_err(|e| format!("{}: {e}", p.name))
}

/// The program's output buffers: every op's non-scalar `out`, in
/// program order. None of them is read before the op writing it runs.
pub fn output_names(p: &Prepared) -> Vec<String> {
    let mut outs: Vec<String> = Vec::new();
    for out in p.doc.ops.iter().filter_map(|o| o.out.as_deref()) {
        if p.buffers.contains_key(out) && !outs.iter().any(|o| o == out) {
            outs.push(out.to_string());
        }
    }
    outs
}

/// Overwrite every output buffer with NaN, so a run that skips a write
/// fails the digest and refblas checks instead of passing on an earlier
/// run's results.
pub fn poison_outputs(p: &Prepared) {
    for name in output_names(p) {
        p.buffers[&name].with_write(|v| v.fill(f64::NAN));
    }
}

/// A digest of every output buffer's and scalar's bits.
pub fn digest(p: &Prepared, scalars: &Scalars) -> u64 {
    let mut bytes = Vec::new();
    for out in output_names(p) {
        for v in p.buffers[&out].to_host() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for (k, v) in scalars {
        bytes.extend_from_slice(k.as_bytes());
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// One timed execution.
pub struct Exec {
    /// Index of the program in the round.
    pub program: usize,
    pub ms: f64,
    /// CPU seconds of this process (all threads) inside the execution.
    pub cpu_s: f64,
    /// Steal ticks during the execution.
    pub steal: u64,
}

/// Outcome of the timed closed loop.
pub struct Loop {
    pub execs: Vec<Exec>,
    pub attempted: usize,
    /// Executions that returned an error.
    pub failed: usize,
    pub mismatches: Vec<String>,
}

/// Run rounds of all programs until `duration` has passed; every
/// repetition's output digest must equal the first one's. `pid` is
/// this process, for CPU accounting. The host speed is probed after
/// every round.
pub fn closed_loop(
    progs: &[Prepared],
    duration: Duration,
    first: &[u64],
    pid: &str,
    speed: &mut Speed,
) -> Loop {
    let mut out = Loop {
        execs: Vec::new(),
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
    };
    let end = Instant::now() + duration;
    while Instant::now() < end {
        for (i, p) in progs.iter().enumerate() {
            out.attempted += 1;
            poison_outputs(p);
            let cpu0 = cpu_seconds(pid).unwrap_or(0.0);
            let steal0 = steal::ticks();
            let t0 = Instant::now();
            let result = plan(&p.program, &p.cfg)
                .map_err(|e| e.to_string())
                .and_then(|_| run(p, Backend::Auto));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let steal = steal::ticks().saturating_sub(steal0);
            let cpu_s = cpu_seconds(pid).unwrap_or(0.0) - cpu0;
            match result {
                Ok(scalars) => {
                    out.execs.push(Exec {
                        program: i,
                        ms,
                        cpu_s,
                        steal,
                    });
                    if digest(p, &scalars) != first[i] {
                        out.mismatches
                            .push(format!("{}: a repetition's output bits changed", p.name));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.mismatches.push(e);
                }
            }
        }
        speed.sample(1);
    }
    out
}

/// The simulated statistics of one program: modelled cycles and
/// channel elements moved. Properties of the plan and the simulator's
/// transport model, not of the host; a speed-up of the simulator alone
/// leaves them unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    pub model_cycles: u64,
    pub chan_elems: u64,
}

fn channel_elems(reg: &fblas_metrics::Registry) -> u64 {
    reg.collect()
        .counters
        .iter()
        .filter(|(k, _)| k.name == "fblas_channel_push_elements_total")
        .map(|(_, v)| v)
        .sum()
}

/// Measure [`SimStats`] for one program: modelled cycles from an
/// audited threaded run, channel elements from the metrics registry
/// around one `Auto` run.
pub fn sim_stats(p: &Prepared) -> Result<SimStats, String> {
    let (_, audits) = execute_plan_audited_with_backend::<f64>(
        &p.program,
        &p.plan,
        &p.cfg,
        &p.buffers,
        200.0e6,
        0.25,
        Backend::Threaded,
    )
    .map_err(|e| format!("{}: {e}", p.name))?;
    let was_armed = fblas_metrics::armed();
    let reg = fblas_metrics::install(fblas_metrics::DEFAULT_SHARDS);
    let before = channel_elems(&reg);
    let run_result = run(p, Backend::Auto);
    let after = channel_elems(&reg);
    if !was_armed {
        fblas_metrics::disarm();
    }
    run_result?;
    Ok(SimStats {
        model_cycles: audits.iter().map(|a| a.predicted_cycles).sum(),
        chan_elems: after - before,
    })
}

/// The committed expected [`SimStats`], by program name.
pub fn expected_sim_stats() -> Result<BTreeMap<String, SimStats>, String> {
    let text = include_str!("../expected_sim_stats.json");
    let v: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let obj = v
        .get("programs")
        .and_then(|p| p.as_object())
        .ok_or("expected_sim_stats.json: no `programs` object")?;
    obj.iter()
        .map(|(name, s)| {
            let field = |f: &str| {
                s.get(f)
                    .and_then(|x| x.as_u64())
                    .ok_or(format!("expected_sim_stats.json: {name}.{f}"))
            };
            Ok((
                name.clone(),
                SimStats {
                    model_cycles: field("model_cycles")?,
                    chan_elems: field("chan_elems")?,
                },
            ))
        })
        .collect()
}

/// Verify every program before timing: `Auto` against `Threaded` bit
/// for bit, both against refblas, and the simulated statistics against
/// the committed values. Returns the `Auto` output digests the timed
/// repetitions must reproduce, and any failures.
pub fn verify(progs: &[Prepared]) -> (Vec<u64>, Vec<String>) {
    let mut errors = Vec::new();
    let mut digests = Vec::new();
    let expected = match expected_sim_stats() {
        Ok(e) => e,
        Err(e) => {
            errors.push(e);
            BTreeMap::new()
        }
    };
    for p in progs {
        poison_outputs(p);
        let threaded = run(p, Backend::Threaded).map(|s| (digest(p, &s), s));
        poison_outputs(p);
        let auto = run(p, Backend::Auto).map(|s| (digest(p, &s), s));
        match (threaded, auto) {
            (Ok((dt, _)), Ok((da, scalars))) => {
                if dt != da {
                    errors.push(format!("{}: Auto differs bitwise from Threaded", p.name));
                }
                if let Err(e) = check_refblas(p, &scalars) {
                    errors.push(format!("{}: {e}", p.name));
                }
                digests.push(da);
            }
            (Err(e), _) | (_, Err(e)) => {
                errors.push(e);
                digests.push(0);
            }
        }
        match sim_stats(p) {
            Ok(got) => match expected.get(p.name) {
                Some(want) if *want == got => {}
                Some(want) => errors.push(format!(
                    "{}: simulated statistics {got:?}, committed {want:?}",
                    p.name
                )),
                None => errors.push(format!(
                    "{}: no committed simulated statistics (measured {got:?})",
                    p.name
                )),
            },
            Err(e) => errors.push(e),
        }
    }
    (digests, errors)
}

/// Compare the bound outputs with a serial refblas run of the program.
pub fn check_refblas(p: &Prepared, scalars: &Scalars) -> Result<(), String> {
    let exp = reference(p);
    let names = output_names(p);
    let outs: BTreeMap<String, Vec<f64>> = names
        .iter()
        .map(|name| (name.clone(), p.buffers[name].to_host()))
        .collect();
    programs::compare(&p.doc, &exp, &names, &outs, scalars)
}

/// The serial refblas result of a prepared program.
pub fn reference(p: &Prepared) -> Values {
    let mut exp = programs::bind_values(&p.doc, |name, i| fill_value(p.fill_seed, name, i));
    programs::run_refblas(&p.doc, &mut exp);
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run that writes nothing must fail every output check: the
    /// outputs still hold the NaN they were poisoned with.
    #[test]
    fn a_skipped_run_fails_verification() {
        for (name, doc) in [
            ("chain", programs::chain(64, 4)),
            ("axpydot", programs::axpydot(64)),
            ("bicg", programs::bicg(8)),
        ] {
            let p = prepare(name, doc, 7).expect("prepares");
            poison_outputs(&p);
            let scalars = run(&p, Backend::Auto).expect("runs");
            check_refblas(&p, &scalars).expect("a real run passes");
            let good = digest(&p, &scalars);

            poison_outputs(&p);
            assert_ne!(digest(&p, &scalars), good, "{name}: digest");
            assert!(check_refblas(&p, &scalars).is_err(), "{name}: refblas");
            assert!(
                check_refblas(&p, &Scalars::new()).is_err() || scalars.is_empty(),
                "{name}: a missing scalar"
            );
        }
    }
}
