//! The traced run: one separate run per workload that splits the
//! end-to-end numbers across the repository's layers.
//!
//! Every layer is timed from outside, with spans around calls into its
//! public functions, plus the counters the program already exports.
//! For the serve workloads the daemon runs with `FBLAS_METRICS=1` and
//! `FBLAS_FLIGHT_DIR`, so its drain writes `serve-final-metrics.json`;
//! the benchmark then replays the same request lines in process, once
//! untraced and once traced, and reports the difference as
//! `trace.overhead_frac`. For `stream_large` metrics are armed in
//! process.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fblas_core::composition::Backend;
use fblas_hlssim::{ModuleKind, Simulation};
use fblas_lint::{lint_document_full, Document};
use fblas_serve::{
    parse_line, parse_response, shape_hash, Breakers, Client, Inbound, TenantQuotas,
};
use serde::Value;

use crate::gen::{self, Mix};
use crate::report::Report;
use crate::spans::{self, Recorder};
use crate::{exec, programs, serve, snapshot, stats, stream, CHAOS_KIND};

/// Program kinds with a `prog_ms.<kind>` metric.
const KINDS: [&str; 7] = ["dot", "chain", "gemv", "gemver", "axpydot", "bicg", "axpy"];
/// Share of `--seconds` the traced serve run spends in open loop.
const TRACED_OPEN_SHARE: f64 = 0.6;
/// Request lines replayed in process per pass: enough for a p99 with
/// ten samples beyond it.
const REPLAY_MAX: usize = 1200;
/// Lockstep pings timed for `serve.ping_rtt_us`.
const PINGS: usize = 200;
/// Operand bindings timed per `stream_large` program.
const BINDS: usize = 4;
/// Runs of the trivial one-module simulation for `sim.floor_us`.
const FLOOR_RUNS: usize = 40;

/// Per-layer samples, by metric name.
#[derive(Default)]
struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Median and tail of a sample set under the sample-count rule: a
/// percentile without ten samples beyond it is refused and reported as
/// 0, and its metric is listed under `refused`.
struct Emit<'a> {
    r: &'a mut Report,
    refused: Vec<String>,
}

impl Emit<'_> {
    fn p50(&mut self, name: &str, v: &[f64], unit: &'static str) {
        let value = match stats::percentile(v, 0.5) {
            Ok(x) => x,
            Err(_) if v.is_empty() => 0.0,
            Err(_) => {
                self.refused.push(name.into());
                0.0
            }
        };
        self.r.metric(name, value, unit, v.len());
    }

    /// The 99th percentile, or the highest one the samples support.
    fn tail(&mut self, name: &str, v: &[f64], unit: &'static str) {
        let value = match stats::highest_supported(v.len(), 0.99) {
            Some(q) => {
                if q < 0.99 {
                    self.r.prop(&format!("{name}.quantile"), q);
                }
                stats::percentile(v, q).unwrap_or(0.0)
            }
            None => {
                if !v.is_empty() {
                    self.refused.push(name.into());
                }
                0.0
            }
        };
        self.r.metric(name, value, unit, v.len());
    }

    fn value(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.r.metric(name, value, unit, samples);
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Wall time of `Simulation::run` on a trivial one-module graph: the
/// simulator's fixed per-run floor.
fn sim_floor(layers: &mut Layers) -> Result<(), String> {
    for _ in 0..FLOOR_RUNS {
        let mut sim = Simulation::new();
        sim.add_module("noop", ModuleKind::Compute, || Ok(()));
        let t0 = Instant::now();
        sim.run().map_err(|e| e.to_string())?;
        layers.push("sim.floor_us", t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(())
}

/// The counters of a metrics snapshot, per executed operation.
fn emit_counters(e: &mut Emit, snap: &Value, ops: f64) {
    let n = ops as usize;
    let fused_elems = snapshot::counter(snap, "fblas_fused_elems_total") as f64;
    let push = snapshot::counter(snap, "fblas_channel_push_elements_total") as f64;
    let pop = snapshot::counter(snap, "fblas_channel_pop_elements_total") as f64;
    let chunk_ops = snapshot::counter(snap, "fblas_channel_chunk_ops_total") as f64;
    let regions = snapshot::counter(snap, "fblas_fused_regions_total") as f64;
    e.value("fused.regions", ratio(regions, ops), "count", n);
    e.value(
        "fused.elem_share",
        ratio(fused_elems, fused_elems + push),
        "ratio",
        n,
    );
    let (us, k) = snapshot::hist_median(&snapshot::hist(snap, "fblas_fused_region_us"));
    e.value("fused.region_us", us, "us", k);
    let runs = snapshot::counter(snap, "fblas_sim_runs_total") as f64;
    e.value("sim.runs_per_op", ratio(runs, ops), "count", n);
    let (us, k) = snapshot::hist_median(&snapshot::hist(snap, "fblas_sim_run_us"));
    e.value("sim.run_us", us, "us", k);
    e.value("chan.elems", ratio(push, ops), "count", n);
    e.value(
        "chan.elems_per_chunk_op",
        ratio(push + pop, chunk_ops),
        "count",
        chunk_ops as usize,
    );
    let full = snapshot::counter(snap, "fblas_channel_full_waits_total") as f64;
    let empty = snapshot::counter(snap, "fblas_channel_empty_waits_total") as f64;
    e.value("chan.full_waits", ratio(full, ops), "count", n);
    e.value("chan.empty_waits", ratio(empty, ops), "count", n);
    let (us, k) = snapshot::hist_median(&snapshot::hist(snap, "fblas_channel_wait_us"));
    e.value("chan.wait_us", us, "us", k);
}

/// Per-layer metrics a workload does not exercise: reported as 0 with
/// no samples.
fn emit_idle(e: &mut Emit, names: &[(&str, &'static str)]) {
    for &(name, unit) in names {
        e.value(name, 0.0, unit, 0);
    }
}

/// Replay request lines in process through the layers' public
/// functions, with spans when `rec` records. Returns the wall time.
fn replay(
    reqs: &[gen::Generated],
    rec: &mut Recorder,
    layers: &mut Layers,
    errors: &mut Vec<String>,
) -> f64 {
    let breakers = Breakers::new(1_000_000);
    let quotas = TenantQuotas::new(1_000_000, 1_000_000);
    let backend = Backend::resolve();
    let t0 = Instant::now();
    for g in reqs {
        rec.enter("request", g.id);
        let (parsed, us) = rec.time("parse", g.id, || parse_line(&g.line));
        layers.push("protocol.parse_us", us);
        let req = match parsed {
            Ok(Inbound::Exec(r)) => *r,
            _ => {
                errors.push(format!("replay: request {} did not parse", g.id));
                rec.exit();
                continue;
            }
        };
        let (gate, us) = rec.time("admission", g.id, || {
            let shape = shape_hash(&req.program);
            breakers.check(&req.tenant, shape).is_ok() && quotas.admit(&req.tenant).is_ok()
        });
        layers.push("admission.gate_us", us);
        let (accepted, us) = rec.time("lint", g.id, || {
            lint_document_full(&Document::Program(req.program.clone()), "<request>")
                .report
                .accepted()
        });
        layers.push("lint.us", us);
        layers.push("lint.accepted", f64::from(u8::from(accepted)));
        if gate && accepted {
            let n0 = rec.spans().len();
            match exec::execute(&req, backend, rec) {
                Ok(done) => {
                    layers.push("exec.attempts", done.attempts);
                    layers.push("exec.recovered", f64::from(u8::from(done.recovered)));
                }
                Err(e) => errors.push(format!("replay: request {}: {e}", g.id)),
            }
            for s in &rec.spans()[n0..] {
                let us = s.dur_ns() as f64 / 1e3;
                match s.name {
                    "plan" => layers.push("plan.us", us),
                    "bind" => layers.push("exec.bind_us", us),
                    "exec" => {
                        layers.push("exec.us", us);
                        if let Some(k) = KINDS.iter().find(|k| **k == g.kind) {
                            layers.push(prog_key(k), us / 1e3);
                        }
                    }
                    "encode" => layers.push("protocol.encode_us", us),
                    _ => {}
                }
            }
        }
        rec.exit();
    }
    t0.elapsed().as_secs_f64()
}

fn prog_key(kind: &str) -> &'static str {
    match kind {
        "dot" => "prog_ms.dot",
        "chain" => "prog_ms.chain",
        "gemv" => "prog_ms.gemv",
        "gemver" => "prog_ms.gemver",
        "axpydot" => "prog_ms.axpydot",
        "bicg" => "prog_ms.bicg",
        _ => "prog_ms.axpy",
    }
}

/// Directory for run artefacts, inside the working directory.
fn out_dir(name: &str) -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench")
        .join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(dir)
}

fn write_spans(dir: &std::path::Path, rec: &Recorder, r: &mut Report) {
    let path = dir.join("spans.jsonl");
    if let Err(e) = std::fs::write(&path, rec.to_json_lines()) {
        r.errors.push(format!("writing {}: {e}", path.display()));
    }
    let self_us = Value::Object(
        spans::self_time_by_name(rec.spans())
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::F64(v)))
            .collect(),
    );
    r.prop("self_time_us", self_us);
    r.prop("spans", rec.spans().len());
}

fn emit_replay(e: &mut Emit, layers: &Layers) {
    e.p50("protocol.parse_us", layers.get("protocol.parse_us"), "us");
    e.p50("protocol.encode_us", layers.get("protocol.encode_us"), "us");
    e.p50("admission.gate_us", layers.get("admission.gate_us"), "us");
    e.p50("lint.us.p50", layers.get("lint.us"), "us");
    e.tail("lint.us.p99", layers.get("lint.us"), "us");
    let acc = layers.get("lint.accepted");
    e.value("lint.accept_frac", stats::mean(acc), "ratio", acc.len());
    e.p50("plan.us", layers.get("plan.us"), "us");
    e.p50("exec.us.p50", layers.get("exec.us"), "us");
    e.tail("exec.us.p99", layers.get("exec.us"), "us");
    e.p50("exec.bind_us", layers.get("exec.bind_us"), "us");
    let att = layers.get("exec.attempts");
    e.value("exec.attempts_per_op", stats::mean(att), "count", att.len());
    let rec = layers.get("exec.recovered");
    e.value("exec.recovered_frac", stats::mean(rec), "ratio", rec.len());
    for k in KINDS {
        let key = prog_key(k);
        e.p50(key, layers.get(key), "ms");
    }
}

/// Traced run of a serve workload.
pub fn serve(mix: Mix, seed: u64, seconds: Duration, workload: &str) -> Result<Report, String> {
    let exe = crate::daemon_exe()?;
    let dir = out_dir(&format!("{workload}-{seed}"))?;
    let env = [
        ("FBLAS_METRICS", "1".to_string()),
        ("FBLAS_FLIGHT_DIR", dir.display().to_string()),
    ];
    let mut r = Report::default();
    let mut layers = Layers::default();
    let (daemon, _) = serve::timed_setup(&exe, &env)?;

    let mut c = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    for _ in 0..PINGS {
        let t0 = Instant::now();
        c.control("ping").map_err(|e| e.to_string())?;
        layers.push("serve.ping_rtt_us", t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(c);

    let count = (serve::RATE * seconds.as_secs_f64() * TRACED_OPEN_SHARE).round() as usize;
    let reqs = gen::generate(mix, seed, 1, count);
    let offsets = gen::arrivals(seed, serve::RATE, count);
    let open = serve::open_loop(daemon.addr, &reqs, &offsets)?;
    daemon.drain()?;
    let (got, want, errors) = serve::verify(&reqs, &open.responses, CHAOS_KIND, seed);
    r.errors.extend(errors);
    if got != want {
        r.errors.push(format!(
            "outcome counts {got:?} differ from the mix's {want:?}"
        ));
    }

    // Server-side split of each response's latency.
    let index: BTreeMap<u64, usize> = reqs.iter().enumerate().map(|(i, g)| (g.id, i)).collect();
    let mut executed = 0usize;
    for resp in &open.responses {
        let Ok(p) = parse_response(&resp.line) else {
            continue;
        };
        let Some(wall) = p.wall else { continue };
        let field = |k: &str| wall.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
        let (queue, worker) = (field("queue_us"), field("latency_us"));
        executed += 1;
        layers.push("serve.queue_us", queue);
        layers.push("serve.worker_us", worker);
        if let Some(&i) = index.get(&p.id) {
            layers.push(
                "serve.outside_us",
                open.latency_ms[i] * 1e3 - queue - worker,
            );
        }
    }

    let snap_path = dir.join("serve-final-metrics.json");
    let text = std::fs::read_to_string(&snap_path)
        .map_err(|e| format!("reading {}: {e}", snap_path.display()))?;
    let snap: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;

    // In-process replay of the same lines: untraced, then traced.
    let mut errs = Vec::new();
    let lines = &reqs[..reqs.len().min(REPLAY_MAX)];
    let untraced_s = replay(
        lines,
        &mut Recorder::disabled(),
        &mut Layers::default(),
        &mut errs,
    );
    let mut rec = Recorder::new();
    let traced_s = replay(lines, &mut rec, &mut layers, &mut errs);
    r.errors.extend(errs);
    sim_floor(&mut layers)?;

    // refblas on the same programs, serially.
    let (mut flops, mut ref_s) = (0u64, 0.0f64);
    for g in lines.iter().filter(|g| g.category.status() == "ok") {
        if let Ok(Inbound::Exec(req)) = parse_line(&g.line) {
            let seed = req.fill_seed.unwrap_or(0);
            let mut vals = programs::bind_values(&req.program, |n, i| {
                fblas_serve::protocol::fill_value(seed, n, i)
            });
            let t0 = Instant::now();
            programs::run_refblas(&req.program, &mut vals);
            ref_s += t0.elapsed().as_secs_f64();
            flops += g.flops;
        }
    }

    r.attempted = open.responses.len() as u64;
    r.failed = got
        .iter()
        .filter(|(k, _)| k.as_str() != "ok")
        .map(|(_, v)| *v as u64)
        .sum();
    let mut e = Emit {
        r: &mut r,
        refused: Vec::new(),
    };
    e.p50("serve.ping_rtt_us", layers.get("serve.ping_rtt_us"), "us");
    e.p50("serve.queue_us.p50", layers.get("serve.queue_us"), "us");
    e.tail("serve.queue_us.p99", layers.get("serve.queue_us"), "us");
    e.p50("serve.worker_us", layers.get("serve.worker_us"), "us");
    e.p50("serve.outside_us", layers.get("serve.outside_us"), "us");
    emit_replay(&mut e, &layers);
    // The warm-up request also ran in the daemon.
    emit_counters(&mut e, &snap, (executed + 1) as f64);
    e.p50("sim.floor_us", layers.get("sim.floor_us"), "us");
    e.value(
        "refblas.mflops",
        ratio(flops as f64, ref_s) / 1e6,
        "MFLOP/s",
        lines.len(),
    );
    e.tail("gen.lag_p99_ms", &open.lag_ms, "ms");
    e.value(
        "trace.overhead_frac",
        traced_s / untraced_s - 1.0,
        "ratio",
        lines.len(),
    );
    let refused = e.refused;
    r.prop("refused", refused.join(","));
    r.prop("open_loop_requests", reqs.len());
    r.prop("replayed_requests", lines.len());
    r.prop("replay_untraced_s", untraced_s);
    r.prop("replay_traced_s", traced_s);
    r.prop("shape_repeat_share", gen::repeat_share(&reqs));
    write_spans(&dir, &rec, &mut r);
    Ok(r)
}

/// Traced run of `stream_large`.
pub fn stream(seed: u64, seconds: Duration, workload: &str) -> Result<Report, String> {
    let dir = out_dir(&format!("{workload}-{seed}"))?;
    let mut r = Report::default();
    let mut layers = Layers::default();
    let progs = stream::setup(seed)?;

    // Untraced baseline, then the traced pass with metrics armed.
    let untraced_end = Instant::now() + seconds.mul_f64(0.3);
    let (mut untraced_s, mut untraced_n) = (0.0, 0usize);
    while Instant::now() < untraced_end {
        for p in &progs {
            let t0 = Instant::now();
            stream::run(p, Backend::Auto)?;
            untraced_s += t0.elapsed().as_secs_f64();
            untraced_n += 1;
        }
    }
    let reg = fblas_metrics::install(fblas_metrics::DEFAULT_SHARDS);
    let mut rec = Recorder::new();
    let traced_end = Instant::now() + seconds.mul_f64(0.6);
    let (mut traced_s, mut traced_n) = (0.0, 0usize);
    let mut round = 0u64;
    while Instant::now() < traced_end {
        for (i, p) in progs.iter().enumerate() {
            let req = round * progs.len() as u64 + i as u64;
            let t0 = Instant::now();
            rec.enter("request", req);
            let (planned, us) = rec.time("plan", req, || {
                fblas_core::composition::plan(&p.program, &p.cfg).map_err(|e| e.to_string())
            });
            planned?;
            layers.push("plan.us", us);
            let (ran, us) = rec.time("exec", req, || stream::run(p, Backend::Auto));
            ran?;
            rec.exit();
            traced_s += t0.elapsed().as_secs_f64();
            traced_n += 1;
            layers.push("exec.us", us);
            layers.push(prog_key(p.name), us / 1e3);
        }
        round += 1;
    }
    let snap = fblas_metrics::expo::snapshot_value(&reg.collect());
    fblas_metrics::disarm();

    // Operand binding and serial refblas on the same programs.
    let (mut flops, mut ref_s) = (0u64, 0.0f64);
    for p in &progs {
        for _ in 0..BINDS {
            let (_, us) = rec.time("bind", 0, || stream::bind_operands(p));
            layers.push("exec.bind_us", us);
        }
        let t0 = Instant::now();
        let _ = stream::reference(p);
        ref_s += t0.elapsed().as_secs_f64();
        flops += p.flops;
    }
    sim_floor(&mut layers)?;
    let (_, errors) = stream::verify(&progs);
    r.errors.extend(errors);

    r.attempted = (untraced_n + traced_n) as u64;
    let mut e = Emit {
        r: &mut r,
        refused: Vec::new(),
    };
    emit_idle(
        &mut e,
        &[
            ("serve.ping_rtt_us", "us"),
            ("serve.queue_us.p50", "us"),
            ("serve.queue_us.p99", "us"),
            ("serve.worker_us", "us"),
            ("serve.outside_us", "us"),
        ],
    );
    emit_replay(&mut e, &layers);
    emit_counters(&mut e, &snap, traced_n as f64);
    e.p50("sim.floor_us", layers.get("sim.floor_us"), "us");
    e.value(
        "refblas.mflops",
        ratio(flops as f64, ref_s) / 1e6,
        "MFLOP/s",
        progs.len(),
    );
    emit_idle(&mut e, &[("gen.lag_p99_ms", "ms")]);
    e.value(
        "trace.overhead_frac",
        ratio(traced_s, traced_n as f64) / ratio(untraced_s, untraced_n as f64) - 1.0,
        "ratio",
        traced_n,
    );
    let refused = e.refused;
    r.prop("refused", refused.join(","));
    r.prop("traced_executions", traced_n);
    r.prop("untraced_executions", untraced_n);
    write_spans(&dir, &rec, &mut r);
    Ok(r)
}
