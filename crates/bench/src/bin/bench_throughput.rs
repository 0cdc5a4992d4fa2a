//! Simulator throughput across channel chunk sizes.
//!
//! Measures elements/sec moved through real simulations — DOT, a tiled
//! GEMV, and the composed GEMVER pipeline — with the batched transport
//! layer swept across `FBLAS_CHUNK ∈ {1, 16, 256}`. Chunk size 1 is
//! honest element-wise transfer (one lock round per element); larger
//! chunks amortize the `Mutex`+`Condvar` and trace cost per element.
//!
//! Batching must not change *what* is computed: the bin asserts
//! bit-identical numeric results and identical modeled cycle counts
//! across all chunk sizes before writing the report.
//!
//! A second table times small problems — DOT at
//! n ∈ {16, 64, 256, 1024, 4096} and n×n GEMV at n ∈ {16, 64, 256,
//! 1024}, the median of 21 runs each at the default chunk size — where
//! the simulator's fixed per-run cost (thread spawn, watchdog wake-up,
//! teardown) rather than the streamed work sets the wall time. Their
//! rows are `dot_latency` and `gemv_latency`, with the median in
//! `cpu_run_us`. (A 4096×4096 GEMV streams 16 M elements from a 128 MiB
//! matrix: not a small problem, so it has no row.)
//!
//! ```text
//! cargo run --release -p fblas-bench --bin bench_throughput
//! ```
//!
//! Deterministic columns (`routine`, `chunk`, `n`, `elements`,
//! `model_cycles`) are gated by bench-diff; wall-clock columns carry the
//! volatile `cpu_` prefix and are exempt.

use std::time::Instant;

use fblas_arch::Device;
use fblas_bench::metrics::{BenchReport, Cell};
use fblas_core::apps::gemver_streaming;
use fblas_core::helpers;
use fblas_core::host::{DeviceBuffer, Fpga, GemvTuning};
use fblas_core::routines::{Dot, Gemv, GemvVariant, Ger};
use fblas_hlssim::{channel, default_chunk, streamed_cycles, Simulation};

const CHUNKS: [usize; 3] = [1, 16, 256];
const REPS: usize = 3;

const DOT_LATENCY_NS: &[usize] = &[16, 64, 256, 1024, 4096];
const GEMV_LATENCY_NS: &[usize] = &[16, 64, 256, 1024];
const LATENCY_RUNS: usize = 21;

const DOT_N: usize = 1 << 18;
const DOT_W: usize = 8;
const GEMV_N: usize = 256;
const GEMV_T: usize = 64;
const GEMV_W: usize = 8;
const GEMVER_N: usize = 128;

fn seq(n: usize, seed: f64) -> Vec<f64> {
    (0..n).map(|i| ((i as f64 + seed) * 0.4371).sin()).collect()
}

struct Sample {
    /// Total channel-element transfers the run performs (work moved).
    elements: u64,
    /// Modeled pipeline cycles `C = L + I·M` — must be chunk-invariant.
    model_cycles: u64,
    /// Best-of-REPS wall time in seconds.
    wall: f64,
    /// Bit pattern of the numeric result — must be chunk-invariant.
    result_bits: Vec<u64>,
}

/// DOT over two seeded f64 streams; the simulation moves 2n elements in
/// and 1 out. Returns `reps` timed runs; the result is checked to be
/// identical across them.
fn dot_runs(n: usize, reps: usize) -> (Vec<f64>, Sample) {
    let x = seq(n, 1.0);
    let y = seq(n, 2.0);
    let cfg = Dot::new(n, DOT_W);
    let mut walls = Vec::with_capacity(reps);
    let mut result: Option<f64> = None;
    for _ in 0..reps {
        let mut sim = Simulation::new();
        let x_buf = DeviceBuffer::from_vec("x", x.clone(), 0);
        let y_buf = DeviceBuffer::from_vec("y", y.clone(), 0);
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
        walls.push(t0.elapsed().as_secs_f64());
        let r = res_buf.get(0);
        assert_eq!(*result.get_or_insert(r), r, "dot n={n}: runs disagree");
    }
    let sample = Sample {
        elements: 2 * n as u64 + 1,
        model_cycles: cfg.cost::<f64>().cycles(),
        wall: walls.iter().copied().fold(f64::INFINITY, f64::min),
        result_bits: result.into_iter().map(f64::to_bits).collect(),
    };
    (walls, sample)
}

/// Tiled row-streamed n×n GEMV (tiles of `min(n, 64)`) with the full
/// reader/writer interface chain; `reps` timed runs as for [`dot_runs`].
fn gemv_runs(n: usize, reps: usize) -> (Vec<f64>, Sample) {
    let t = n.min(GEMV_T);
    let cfg = Gemv::new(GemvVariant::RowStreamed, n, n, t, t, GEMV_W);
    let a = seq(n * n, 1.0);
    let x = seq(cfg.x_len(), 2.0);
    let y = seq(cfg.y_len(), 3.0);
    let mut walls = Vec::with_capacity(reps);
    let mut result: Option<Vec<f64>> = None;
    for _ in 0..reps {
        let mut sim = Simulation::new();
        let a_buf = DeviceBuffer::from_vec("a", a.clone(), 0);
        let x_buf = DeviceBuffer::from_vec("x", x.clone(), 0);
        let y_buf = DeviceBuffer::from_vec("y", y.clone(), 0);
        let out_buf = DeviceBuffer::<f64>::zeroed("y_out", cfg.y_len(), 0);
        let (ta, ra) = channel(sim.ctx(), 256, "a");
        let (txv, rxv) = channel(sim.ctx(), 64, "x");
        let (ty_in, ry_in) = channel(sim.ctx(), 64, "y_in");
        let (ty_out, ry_out) = channel(sim.ctx(), 64, "y_out");
        helpers::read_matrix(&mut sim, &a_buf, n, n, cfg.a_tiling(), ta, 1);
        helpers::read_vector_replayed(&mut sim, &x_buf, txv, cfg.x_repetitions());
        helpers::read_vector(&mut sim, &y_buf, ty_in);
        cfg.attach(&mut sim, 1.3, 0.7, ra, rxv, ry_in, ty_out);
        helpers::write_vector(&mut sim, &out_buf, cfg.y_len(), ry_out);
        let t0 = Instant::now();
        sim.run().expect("gemv composition runs");
        walls.push(t0.elapsed().as_secs_f64());
        let r = out_buf.to_host();
        assert_eq!(
            result.get_or_insert_with(|| r.clone()),
            &r,
            "gemv n={n}: runs disagree"
        );
    }
    let sample = Sample {
        elements: cfg.io_ops(),
        model_cycles: cfg.cost::<f64>().cycles(),
        wall: walls.iter().copied().fold(f64::INFINITY, f64::min),
        result_bits: result
            .unwrap_or_default()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    };
    (walls, sample)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The composed GEMVER application (two GERs, two GEMVs, fan-out,
/// replay-through-memory) — the heaviest multi-module pipeline.
fn run_gemver() -> Sample {
    let n = GEMVER_N;
    let tuning = GemvTuning::new(32, 32, 8);
    let a = seq(n * n, 1.0);
    let vs: Vec<Vec<f64>> = (0..6).map(|s| seq(n, s as f64 + 2.0)).collect();
    let mut wall = f64::INFINITY;
    let mut result: Vec<f64> = Vec::new();
    let mut io_elements = 0u64;
    for _ in 0..REPS {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let a_buf = fpga.alloc_from("a", a.clone());
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
        wall = wall.min(t0.elapsed().as_secs_f64());
        io_elements = report.io_elements;
        result = w_out.to_host();
    }
    // The same modeled composition cost gemver_streaming uses: component
    // 1 (two GERs + transposed GEMV in pipeline parallel) plus the
    // second GEMV pass.
    let tu = tuning.clamped(n, n);
    let ger = Ger::new(n, n, tu.tn, tu.tm, tu.w);
    let gemv_t = Gemv::new(GemvVariant::TransRowStreamed, n, n, tu.tn, tu.tm, tu.w);
    let gemv2 = Gemv::new(GemvVariant::RowStreamed, n, n, tu.tn, tu.tm, tu.w);
    let comp1 = streamed_cycles(&[ger.cost::<f64>(), ger.cost::<f64>(), gemv_t.cost::<f64>()]);
    Sample {
        elements: io_elements,
        model_cycles: comp1 + gemv2.cost::<f64>().cycles(),
        wall,
        result_bits: result.iter().map(|v| v.to_bits()).collect(),
    }
}

fn main() {
    let mut report = BenchReport::new("throughput");
    fblas_bench::audit::stamp_audit(&mut report, &[]);
    report
        .meta("dot_n", DOT_N as u64)
        .meta("gemv_n", GEMV_N as u64)
        .meta("gemver_n", GEMVER_N as u64)
        .meta("reps", REPS as u64);

    println!("=== Simulator throughput vs channel chunk size ===\n");
    println!(
        "{:<8} {:>6} {:>10} {:>12} {:>14} {:>10}",
        "routine", "chunk", "elements", "model_cyc", "elems/sec", "wall_ms"
    );

    type Runner = fn() -> Sample;
    let runners: [(&str, Runner); 3] = [
        ("dot", || dot_runs(DOT_N, REPS).1),
        ("gemv", || gemv_runs(GEMV_N, REPS).1),
        ("gemver", run_gemver),
    ];

    for (name, runner) in runners {
        let mut reference: Option<Sample> = None;
        for chunk in CHUNKS {
            std::env::set_var("FBLAS_CHUNK", chunk.to_string());
            let s = runner();
            if let Some(r) = &reference {
                assert_eq!(
                    r.result_bits, s.result_bits,
                    "{name}: numeric results must be bit-identical across chunk sizes"
                );
                assert_eq!(
                    r.model_cycles, s.model_cycles,
                    "{name}: modeled cycles must be chunk-invariant"
                );
            }
            let eps = s.elements as f64 / s.wall;
            println!(
                "{:<8} {:>6} {:>10} {:>12} {:>14.0} {:>10.2}",
                name,
                chunk,
                s.elements,
                s.model_cycles,
                eps,
                s.wall * 1e3
            );
            report.add_row([
                ("routine", Cell::from(name)),
                ("chunk", Cell::from(chunk as u64)),
                (
                    "n",
                    Cell::from(match name {
                        "dot" => DOT_N as u64,
                        "gemv" => GEMV_N as u64,
                        _ => GEMVER_N as u64,
                    }),
                ),
                ("elements", Cell::from(s.elements)),
                ("model_cycles", Cell::from(s.model_cycles)),
                ("cpu_elems_per_sec", Cell::from(eps)),
                ("cpu_wall_ms", Cell::from(s.wall * 1e3)),
            ]);
            if reference.is_none() {
                reference = Some(s);
            }
        }
    }
    std::env::remove_var("FBLAS_CHUNK");

    println!("\n=== Small-problem run latency (median of {LATENCY_RUNS} runs) ===\n");
    println!(
        "{:<14} {:>6} {:>10} {:>12} {:>12}",
        "routine", "n", "elements", "model_cyc", "run_us"
    );
    type LatencyRunner = fn(usize, usize) -> (Vec<f64>, Sample);
    let latency: [(&str, LatencyRunner, &[usize]); 2] = [
        ("dot_latency", dot_runs, DOT_LATENCY_NS),
        ("gemv_latency", gemv_runs, GEMV_LATENCY_NS),
    ];
    for (name, runner, sizes) in latency {
        for &n in sizes {
            let (walls, s) = runner(n, LATENCY_RUNS);
            let run_us = median(walls) * 1e6;
            println!(
                "{:<14} {:>6} {:>10} {:>12} {:>12.1}",
                name, n, s.elements, s.model_cycles, run_us
            );
            report.add_row([
                ("routine", Cell::from(name)),
                ("chunk", Cell::from(default_chunk() as u64)),
                ("n", Cell::from(n as u64)),
                ("elements", Cell::from(s.elements)),
                ("model_cycles", Cell::from(s.model_cycles)),
                ("runs", Cell::from(LATENCY_RUNS as u64)),
                ("cpu_run_us", Cell::from(run_us)),
            ]);
        }
    }

    let path = report.write().expect("write BENCH_throughput.json");
    println!("\nreport: {}", path.display());
}
