//! Instrumentation overhead of the live telemetry runtime and of the
//! flight recorder on top of it.
//!
//! Runs the same three simulations as `bench_throughput` — DOT, tiled
//! GEMV, and the composed GEMVER pipeline — at the production chunk
//! size (`FBLAS_CHUNK=256`), once per instrumentation layer, with the
//! layer off and on interleaved rep by rep so slow drift in machine
//! load hits both modes equally:
//!
//! * `telemetry` — the global metrics runtime disarmed ("off") vs armed
//!   ("on"). Armed mode pays the full price: sharded channel counters,
//!   wait histograms, watchdog gauges, per-routine and executor latency
//!   histograms.
//! * `flight` — the metrics runtime armed in both modes, the flight
//!   recorder additionally armed in "on" mode. The delta isolates what
//!   the recorder itself costs: the watchdog-driven interval gate plus
//!   the periodic counter/gauge ring samples.
//!
//! The bin enforces both budgets in-process: on DOT, each layer's "on"
//! may cost at most 3% over its "off" (best-of-reps, with a 0.5 ms
//! absolute floor so timer quantization on very fast runs cannot fail
//! the gate). The walls under the gate are ~10 ms, so transient machine
//! load can swamp a 3% margin: an apparent breach of the 3% figure
//! re-measures up to two more times (keeping the best wall on both
//! sides) before it counts. A real breach aborts before any report is
//! written.
//!
//! ```text
//! cargo run --release -p fblas-bench --bin bench_overhead
//! ```
//!
//! Deterministic columns (`layer`, `routine`, `mode`, `n`, `elements`)
//! are gated by bench-diff; wall-clock columns carry the volatile
//! `cpu_` prefix and are exempt.

use std::time::Instant;

use fblas_arch::Device;
use fblas_bench::metrics::{BenchReport, Cell};
use fblas_core::apps::gemver_streaming;
use fblas_core::helpers;
use fblas_core::host::{DeviceBuffer, Fpga, GemvTuning};
use fblas_core::routines::{Dot, Gemv, GemvVariant};
use fblas_hlssim::{channel, Simulation};
use fblas_metrics::flight::{self, FlightConfig};

const REPS: usize = 5;
const CHUNK: usize = 256;
/// Hard budget: a layer's "on" may cost at most this fraction over its
/// "off" on the DOT workload.
const BUDGET: f64 = 0.03;
/// Absolute slack floor guarding the gate against sub-millisecond timer
/// quantization; the 3% relative budget dominates on real runs.
const FLOOR_S: f64 = 0.0005;
/// Total measurement rounds an apparent budget breach is allowed before
/// it counts as real.
const GATE_TRIES: usize = 3;

/// Recorder cadence under test: the `FBLAS_FLIGHT_HZ` default.
const HZ: u32 = 50;
/// Ring window under test: the `FBLAS_FLIGHT_WINDOW` default.
const WINDOW_S: u32 = 10;

const DOT_N: usize = 1 << 18;
const DOT_W: usize = 8;
const GEMV_N: usize = 256;
const GEMV_T: usize = 64;
const GEMV_W: usize = 8;
const GEMVER_N: usize = 128;

fn seq(n: usize, seed: f64) -> Vec<f64> {
    (0..n).map(|i| ((i as f64 + seed) * 0.4371).sin()).collect()
}

/// One timed run; returns (elements moved, wall seconds).
fn run_dot() -> (u64, f64) {
    let x = seq(DOT_N, 1.0);
    let y = seq(DOT_N, 2.0);
    let cfg = Dot::new(DOT_N, DOT_W);
    let mut sim = Simulation::new();
    let x_buf = DeviceBuffer::from_vec("x", x, 0);
    let y_buf = DeviceBuffer::from_vec("y", y, 0);
    let res_buf = DeviceBuffer::<f64>::zeroed("res", 1, 0);
    let (tx, rx) = channel(sim.ctx(), 1024, "x");
    let (ty, ry) = channel(sim.ctx(), 1024, "y");
    let (tr, rr) = channel(sim.ctx(), 1, "res");
    helpers::read_vector(&mut sim, &x_buf, tx);
    helpers::read_vector(&mut sim, &y_buf, ty);
    cfg.attach(&mut sim, rx, ry, tr);
    helpers::write_scalar(&mut sim, &res_buf, rr);
    let t0 = Instant::now();
    sim.run().expect("dot composition runs");
    (2 * DOT_N as u64 + 1, t0.elapsed().as_secs_f64())
}

fn run_gemv() -> (u64, f64) {
    let cfg = Gemv::new(
        GemvVariant::RowStreamed,
        GEMV_N,
        GEMV_N,
        GEMV_T,
        GEMV_T,
        GEMV_W,
    );
    let a = seq(GEMV_N * GEMV_N, 1.0);
    let x = seq(cfg.x_len(), 2.0);
    let y = seq(cfg.y_len(), 3.0);
    let mut sim = Simulation::new();
    let a_buf = DeviceBuffer::from_vec("a", a, 0);
    let x_buf = DeviceBuffer::from_vec("x", x, 0);
    let y_buf = DeviceBuffer::from_vec("y", y, 0);
    let out_buf = DeviceBuffer::<f64>::zeroed("y_out", cfg.y_len(), 0);
    let (ta, ra) = channel(sim.ctx(), 256, "a");
    let (txv, rxv) = channel(sim.ctx(), 64, "x");
    let (ty_in, ry_in) = channel(sim.ctx(), 64, "y_in");
    let (ty_out, ry_out) = channel(sim.ctx(), 64, "y_out");
    helpers::read_matrix(&mut sim, &a_buf, GEMV_N, GEMV_N, cfg.a_tiling(), ta, 1);
    helpers::read_vector_replayed(&mut sim, &x_buf, txv, cfg.x_repetitions());
    helpers::read_vector(&mut sim, &y_buf, ty_in);
    cfg.attach(&mut sim, 1.3, 0.7, ra, rxv, ry_in, ty_out);
    helpers::write_vector(&mut sim, &out_buf, cfg.y_len(), ry_out);
    let t0 = Instant::now();
    sim.run().expect("gemv composition runs");
    (cfg.io_ops(), t0.elapsed().as_secs_f64())
}

fn run_gemver() -> (u64, f64) {
    let n = GEMVER_N;
    let tuning = GemvTuning::new(32, 32, 8);
    let a = seq(n * n, 1.0);
    let vs: Vec<Vec<f64>> = (0..6).map(|s| seq(n, s as f64 + 2.0)).collect();
    let fpga = Fpga::new(Device::Stratix10Gx2800);
    let a_buf = fpga.alloc_from("a", a);
    let u1 = fpga.alloc_from("u1", vs[0].clone());
    let v1 = fpga.alloc_from("v1", vs[1].clone());
    let u2 = fpga.alloc_from("u2", vs[2].clone());
    let v2 = fpga.alloc_from("v2", vs[3].clone());
    let y = fpga.alloc_from("y", vs[4].clone());
    let z = fpga.alloc_from("z", vs[5].clone());
    let b_out = fpga.alloc::<f64>("b_out", n * n);
    let x_out = fpga.alloc::<f64>("x_out", n);
    let w_out = fpga.alloc::<f64>("w_out", n);
    let t0 = Instant::now();
    let report = gemver_streaming(
        &fpga, n, 1.1, 0.9, &a_buf, &u1, &v1, &u2, &v2, &y, &z, &b_out, &x_out, &w_out, &tuning,
    )
    .expect("gemver composition runs");
    (report.io_elements, t0.elapsed().as_secs_f64())
}

type Runner = fn() -> (u64, f64);

/// Channel elements the global registry has counted so far.
fn channel_elements() -> u64 {
    fblas_metrics::registry_any().map_or(0, |reg| {
        reg.collect()
            .counters
            .iter()
            .filter(|(k, _)| k.name == "fblas_channel_push_elements_total")
            .map(|(_, v)| *v)
            .sum()
    })
}

/// An instrumentation layer under test: what "on" arms on top of "off".
#[derive(Debug, Clone, Copy)]
enum Layer {
    /// The global metrics runtime.
    Telemetry,
    /// The flight recorder, over an armed metrics runtime.
    Flight,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Telemetry => "telemetry",
            Layer::Flight => "flight",
        }
    }

    fn arm(self, on: bool) {
        match (self, on) {
            (Layer::Telemetry, false) => fblas_metrics::disarm(),
            (Layer::Telemetry, true) => {
                fblas_metrics::install(fblas_hlssim::env::metrics_shards());
            }
            (Layer::Flight, false) => flight::disarm(),
            (Layer::Flight, true) => {
                flight::install(FlightConfig {
                    hz: HZ,
                    window_s: WINDOW_S,
                });
            }
        }
    }
}

/// One best-of-[`REPS`] measurement round, modes interleaved within
/// each rep so load drift hits both sides. Returns the elements moved,
/// the best off and on walls, and the frame count of the last armed
/// rep's flight ring (read before disarming; 0 unless the recorder is
/// the layer under test).
fn measure(layer: Layer, name: &str, runner: Runner) -> (u64, f64, f64, usize) {
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut elements = 0u64;
    for _ in 0..REPS {
        layer.arm(false);
        let (e, w) = runner();
        best_off = best_off.min(w);
        layer.arm(true);
        let (e2, w) = runner();
        best_on = best_on.min(w);
        assert_eq!(
            e,
            e2,
            "{name}: {} armed run moved different work",
            layer.name()
        );
        elements = e;
    }
    let frames = flight::recorder()
        .map(|rec| rec.frames().len())
        .unwrap_or(0);
    layer.arm(false);
    (elements, best_off, best_on, frames)
}

fn main() {
    std::env::set_var("FBLAS_CHUNK", CHUNK.to_string());
    let mut report = BenchReport::new("overhead");
    fblas_bench::audit::stamp_audit(&mut report, &[]);
    report
        .meta("chunk", CHUNK as u64)
        .meta("reps", REPS as u64)
        .meta("budget_pct", BUDGET * 100.0)
        .meta("hz", u64::from(HZ))
        .meta("window_s", u64::from(WINDOW_S));

    println!("=== Instrumentation overhead (chunk {CHUNK}, best of {REPS}) ===\n");
    println!(
        "{:<10} {:<8} {:>10} {:>12} {:>12} {:>10}",
        "layer", "routine", "elements", "off_ms", "on_ms", "overhead"
    );

    let runners: [(&str, usize, Runner); 3] = [
        ("dot", DOT_N, run_dot),
        ("gemv", GEMV_N, run_gemv),
        ("gemver", GEMVER_N, run_gemver),
    ];

    // The flight layer runs first: a recorder tick collects every series
    // the registry holds, so it is measured over the same registry a
    // fresh process builds, not one the telemetry layer already grew.
    // Both of its modes pay for the armed metrics runtime; the delta is
    // the recorder alone.
    fblas_metrics::install(fblas_hlssim::env::metrics_shards());
    for layer in [Layer::Flight, Layer::Telemetry] {
        let pushed_before = channel_elements();
        let mut frames_seen = 0usize;
        for (name, n, runner) in runners {
            let (elements, mut best_off, mut best_on, mut frames) = measure(layer, name, runner);
            if name == "dot" {
                // Retry apparent breaches of the relative budget (the
                // figure ci.sh re-checks): keep the best wall on both
                // sides across rounds so only a systematic gap survives.
                let mut tries = 1;
                while best_on - best_off > best_off * BUDGET && tries < GATE_TRIES {
                    let (_, off, on, fr) = measure(layer, name, runner);
                    best_off = best_off.min(off);
                    best_on = best_on.min(on);
                    frames = frames.max(fr);
                    tries += 1;
                }
            }
            frames_seen = frames_seen.max(frames);
            let overhead = (best_on - best_off) / best_off;
            println!(
                "{:<10} {:<8} {:>10} {:>12.2} {:>12.2} {:>9.2}%",
                layer.name(),
                name,
                elements,
                best_off * 1e3,
                best_on * 1e3,
                overhead * 100.0
            );
            for (mode, wall) in [("off", best_off), ("on", best_on)] {
                report.add_row([
                    ("layer", Cell::from(layer.name())),
                    ("routine", Cell::from(name)),
                    ("mode", Cell::from(mode)),
                    ("n", Cell::from(n as u64)),
                    ("elements", Cell::from(elements)),
                    ("cpu_wall_ms", Cell::from(wall * 1e3)),
                    ("cpu_overhead_pct", Cell::from(overhead * 100.0)),
                ]);
            }
            if name == "dot" {
                assert!(
                    best_on - best_off <= (best_off * BUDGET).max(FLOOR_S),
                    "{} budget breached on {name}: armed {:.3} ms vs off {:.3} ms \
                     ({:.2}% > {:.0}% budget)",
                    layer.name(),
                    best_on * 1e3,
                    best_off * 1e3,
                    overhead * 100.0,
                    BUDGET * 100.0
                );
            }
        }

        // Armed reps really recorded.
        match layer {
            Layer::Telemetry => {
                // The registry (which survives disarm) must have seen
                // this layer's channel traffic.
                assert!(
                    channel_elements() > pushed_before,
                    "armed reps recorded no channel elements"
                );
            }
            Layer::Flight => {
                // At least one runner's watchdog ticked frames into its
                // ring.
                assert!(frames_seen > 0, "recorder-armed reps sampled no frames");
            }
        }
    }
    std::env::remove_var("FBLAS_CHUNK");

    let path = report.write().expect("write BENCH_overhead.json");
    println!("\nreport: {}", path.display());
}
