//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <serve_small|serve_faulty|stream_large>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with
//! `--trace 1` it makes the separate traced run that splits them
//! across layers. Every run verifies the program's outputs; the last
//! stdout line is the JSON result, and the exit code is non-zero when
//! any check failed. See `perfbench/README.md`.

mod calib;
mod exec;
mod gen;
mod programs;
mod report;
mod serve;
mod snapshot;
mod spans;
mod stats;
mod steal;
mod stream;
mod traced;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use gen::{Category, Mix};
use report::Report;

/// Daemon launches per run; `setup_s` is their median.
const SERVE_LAUNCHES: usize = 9;
/// Host-speed probes at each of the three idle points of a serve run.
const SERVE_PROBES: usize = 30;
/// Set-ups per `stream_large` run; `setup_s` is their median.
const STREAM_SETUPS: usize = 9;
/// Executions of each `stream_large` program its figures are computed
/// over at least: 10 beyond the median.
const MIN_STREAM_EXECS: usize = 20;
/// The tail percentile of `stream_large`'s per-program wall times
/// (lower when a run keeps too few executions for ten beyond it).
const STREAM_TAIL_Q: f64 = 0.75;
/// Seconds of untimed traffic before the measured phases, so lazily
/// initialised state and first-seen shapes do not land in the tail.
const WARMUP_S: f64 = 1.0;
/// Share of the remaining `--seconds` spent in the open-loop phase; the
/// rest is the saturation phase.
const OPEN_SHARE: f64 = 0.75;
/// A send later than one mean inter-arrival gap marks its open-loop
/// interval as lagged: there the client, not the daemon, set the
/// schedule.
const LAG_LIMIT_MS: f64 = 1000.0 / serve::RATE;
/// The backlog in the last quarter of the open-loop phase may exceed
/// the first quarter's by at most this many requests on average.
const BACKLOG_GROWTH_LIMIT: f64 = 8.0;
/// Length of the open-loop phase's intervals (about 25 requests).
const OPEN_INTERVAL_S: f64 = 0.25;
/// Latency samples the open-loop metrics are computed over at least:
/// 15 beyond p99.
const OPEN_SAMPLES: usize = 1500;
/// Length of the saturation phase's intervals.
const SAT_INTERVAL_S: f64 = 0.5;
/// Steal this long after an open-loop interval still delays its last
/// requests, so it counts against the interval.
const STEAL_MARGIN: Duration = Duration::from_millis(50);
/// The failure kind a chaos request's exhausted retries report.
const CHAOS_KIND: &str = "corruption";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The daemon binary, built beside this one from the shipped source.
fn daemon_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe = me.with_file_name("fblas-serve");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("daemon binary not found at {}", exe.display()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mix = match args.workload.as_str() {
        "serve_small" => Some(Mix::Small),
        "serve_faulty" => Some(Mix::Faulty),
        "stream_large" => None,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let result = match (mix, args.trace) {
        (Some(mix), false) => run_serve(mix, args.seed, seconds),
        (Some(mix), true) => traced::serve(mix, args.seed, seconds, &args.workload),
        (None, false) => run_stream(args.seed, seconds),
        (None, true) => traced::stream(args.seed, seconds, &args.workload),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    report.prop("seed", args.seed);
    report.prop("seconds", args.seconds);
    report.prop("nproc", nproc());
    report.print(&args.workload);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        for e in &report.errors {
            eprintln!("perfbench: check failed: {e}");
        }
        ExitCode::from(1)
    }
}

/// Requests the generator may send in the saturation phase; far more
/// than the daemon can complete in it.
fn saturation_budget(secs: f64) -> usize {
    (2000.0 * secs).ceil() as usize + 100
}

fn run_serve(mix: Mix, seed: u64, seconds: Duration) -> Result<Report, String> {
    let exe = daemon_exe()?;
    let mut r = Report::default();
    // The host speed is probed while the daemon is idle: before the
    // launches, between the measured phases and after the drain.
    let mut speed = calib::Speed::default();
    speed.sample(SERVE_PROBES);
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SERVE_LAUNCHES {
        let (d, s) = serve::timed_setup(&exe, &[])?;
        setups.push(s);
        if i + 1 < SERVE_LAUNCHES {
            d.drain()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one launch");
    let pid = daemon.pid().to_string();

    let measured_s = (seconds.as_secs_f64() - WARMUP_S).max(1.0);
    let open_s = measured_s * OPEN_SHARE;
    let sat_s = measured_s - open_s;
    let count = (serve::RATE * open_s).round() as usize;
    let reqs = gen::generate(mix, seed, 1, count);
    let offsets = gen::arrivals(seed, serve::RATE, count);
    let sat_reqs = gen::generate(
        mix,
        seed.wrapping_add(1),
        1_000_001,
        saturation_budget(sat_s),
    );
    let warm_reqs = gen::generate(
        mix,
        seed.wrapping_add(2),
        2_000_001,
        saturation_budget(WARMUP_S),
    );

    let warm = serve::saturation(daemon.addr, &warm_reqs, Duration::from_secs_f64(WARMUP_S))?;
    let monitor = steal::Monitor::start(Some(pid.clone()));
    let open = serve::open_loop(daemon.addr, &reqs, &offsets)?;
    speed.sample(SERVE_PROBES);
    let sat = serve::saturation(daemon.addr, &sat_reqs, Duration::from_secs_f64(sat_s))?;
    let stolen = monitor.stop();
    let rss = serve::rss_peak_mb(&pid)?;
    daemon.drain()?;
    speed.sample(SERVE_PROBES);

    // Outputs: every response checked against its request.
    let (got_all, want_all, errors) = serve::verify(&reqs, &open.responses, CHAOS_KIND, seed);
    r.errors.extend(errors);
    let (got_all, want_all) = verify_window(&mut r, (got_all, want_all), &sat_reqs, &sat, seed ^ 1);
    let _ = verify_window(&mut r, Default::default(), &warm_reqs, &warm, seed ^ 2);
    if got_all != want_all {
        r.errors.push(format!(
            "outcome counts {got_all:?} differ from the mix's {want_all:?}"
        ));
    }

    let of = open_figures(&reqs, &offsets, &open, &stolen);
    let sf = saturation_figures(&sat_reqs, &sat, &stolen);

    // Open-loop validity: the generator kept its schedule in the
    // intervals measured and no backlog built up.
    let lag_q = stats::highest_supported(open.lag_ms.len(), 0.99).unwrap_or(0.5);
    let lag_p99 = stats::percentile(&open.lag_ms, lag_q)?;
    let quarter = open.backlog.len() / 4;
    let to_f = |s: &[usize]| s.iter().map(|&b| b as f64).collect::<Vec<_>>();
    let first_q = stats::mean(&to_f(&open.backlog[..quarter]));
    let last_q = stats::mean(&to_f(&open.backlog[open.backlog.len() - quarter..]));
    // Validity describes the measurement, not the program's outputs:
    // it is marked in the details line rather than failing the run.
    let mut invalid = Vec::new();
    if of.lagged_kept > 0 {
        invalid.push(format!(
            "{} measured intervals hold a send more than {LAG_LIMIT_MS} ms late",
            of.lagged_kept
        ));
    }
    if last_q - first_q > BACKLOG_GROWTH_LIMIT {
        invalid.push(format!(
            "backlog grew from {first_q:.2} to {last_q:.2} during the fixed-rate phase"
        ));
    }
    for why in &invalid {
        eprintln!("perfbench: invalid run: {why}");
    }
    r.prop("valid", serde::Value::Bool(invalid.is_empty()));
    r.prop("invalid_reasons", invalid.join("; "));

    let n = of.lat.len();
    let attempted = open.responses.len() + sat.responses.len();
    let not_ok: usize = got_all
        .iter()
        .filter(|(k, _)| k.as_str() != "ok")
        .map(|(_, v)| v)
        .sum();
    let cpu_ops = of.ops + sf.done;
    r.attempted = attempted as u64;
    r.failed = not_ok as u64;
    r.metric(
        "setup_s",
        stats::median(&setups).unwrap_or(0.0),
        "s",
        setups.len(),
    );
    r.metric("p50_ms", stats::percentile(&of.lat, 0.5)?, "ms", n);
    // Not gated: on a shared host the tail does not repeat (README,
    // "Steal time"), so it goes to the details line.
    // A short run may hold too few samples for it; being a detail, it
    // is then left out (null) instead of failing the run.
    match stats::percentile(&of.lat, 0.99) {
        Ok(p99) => r.prop("p99_ms", p99),
        Err(e) => {
            eprintln!("perfbench: p99_ms not reported: {e}");
            r.prop("p99_ms", serde::Value::Null);
        }
    }
    r.prop("p99_samples", n);
    r.metric("sat_rps", sf.done as f64 / sf.wall_s, "req/s", sf.done);
    r.metric(
        "mflops",
        sf.ok_flops as f64 / sf.wall_s / 1e6,
        "MFLOP/s",
        sf.done,
    );
    r.prop("fail_frac", not_ok as f64 / attempted as f64);
    // The daemon's CPU time is CPU work, so it is given at the
    // reference host speed (see `calib`). The wall-clock metrics are
    // not: the simulator's fixed 5 ms watchdog poll, a sleep, sets
    // most of them.
    let cpu_ms = (of.cpu_s + sf.cpu_s) * 1e3 / cpu_ops as f64;
    r.metric("cpu_ms_per_op", cpu_ms * speed.factor(), "ms", cpu_ops);
    r.metric("rss_peak_mb", rss, "MB", 1);
    host_speed(&mut r, &speed);
    r.prop(
        "measured",
        serde::Value::Object(vec![("cpu_ms_per_op".into(), serde::Value::F64(cpu_ms))]),
    );

    r.prop("steal_share", stolen.share(nproc()));
    r.prop("open_intervals", of.intervals);
    r.prop("open_intervals_measured", of.kept);
    r.prop("open_intervals_lagged", of.lagged);
    r.prop("saturation_intervals", sf.intervals);
    r.prop("saturation_intervals_measured", sf.kept);
    serve_properties(&mut r, mix, &reqs, open.wall_s, lag_p99, first_q, last_q);
    r.prop("saturation_requests", sat.responses.len());
    r.prop(
        "outcomes",
        serde::Value::Object(
            got_all
                .iter()
                .map(|(k, v)| (k.clone(), serde::Value::U64(*v as u64)))
                .collect(),
        ),
    );
    Ok(r)
}

/// Open-loop figures over the calmest intervals (see `steal`).
struct OpenFigures {
    /// Latency of the measured requests whose expected outcome is ok.
    lat: Vec<f64>,
    /// The daemon's CPU seconds in the measured intervals, and the
    /// requests scheduled in them.
    cpu_s: f64,
    ops: usize,
    intervals: usize,
    kept: usize,
    /// Intervals in which the generator sent a request late: all, and
    /// those measured because too few others were left.
    lagged: usize,
    lagged_kept: usize,
}

/// Cut the open-loop phase into intervals by scheduled send time and
/// keep the calmest that hold [`OPEN_SAMPLES`] latencies. An interval
/// in which the generator sent late ranks after every other.
fn open_figures(
    reqs: &[gen::Generated],
    offsets: &[Duration],
    open: &serve::OpenLoop,
    stolen: &steal::Samples,
) -> OpenFigures {
    let interval = Duration::from_secs_f64(OPEN_INTERVAL_S);
    let interval_of: Vec<usize> = offsets
        .iter()
        .map(|o| (o.as_secs_f64() / OPEN_INTERVAL_S) as usize)
        .collect();
    let intervals = interval_of.last().map_or(0, |&w| w + 1);
    let from = |w: usize| open.start + interval * w as u32;
    let mut lagged = vec![false; intervals];
    for (&w, &lag) in interval_of.iter().zip(&open.lag_ms) {
        lagged[w] |= lag > LAG_LIMIT_MS;
    }
    let steal: Vec<u64> = (0..intervals)
        .map(|w| stolen.steal_between(from(w), from(w + 1) + STEAL_MARGIN))
        .collect();
    let mut ok_lat = vec![Vec::new(); intervals];
    let mut ops = vec![0usize; intervals];
    for ((g, &lat), &w) in reqs.iter().zip(&open.latency_ms).zip(&interval_of) {
        ops[w] += 1;
        if g.category.status() == "ok" {
            ok_lat[w].push(lat);
        }
    }
    let kept = steal::keep_calmest(&steal, &lagged, |k| {
        k.iter().map(|&w| ok_lat[w].len()).sum::<usize>() >= OPEN_SAMPLES
    });
    OpenFigures {
        lat: kept
            .iter()
            .flat_map(|&w| ok_lat[w].iter().copied())
            .collect(),
        cpu_s: kept
            .iter()
            .map(|&w| stolen.cpu_between(from(w), from(w + 1)))
            .sum(),
        ops: kept.iter().map(|&w| ops[w]).sum(),
        intervals,
        kept: kept.len(),
        lagged: lagged.iter().filter(|&&l| l).count(),
        lagged_kept: kept.iter().filter(|&&w| lagged[w]).count(),
    }
}

/// Saturation figures over the calmest half of the phase's intervals.
struct SatFigures {
    /// Completions in the measured intervals, the fixed FLOP count of
    /// the ok ones, and the intervals' total length.
    done: usize,
    ok_flops: u64,
    wall_s: f64,
    /// The daemon's CPU seconds in the measured intervals.
    cpu_s: f64,
    intervals: usize,
    kept: usize,
}

/// Cut the saturation phase into intervals by completion time;
/// completions after the phase closed are not counted.
fn saturation_figures(
    reqs: &[gen::Generated],
    sat: &serve::Saturation,
    stolen: &steal::Samples,
) -> SatFigures {
    let interval = Duration::from_secs_f64(SAT_INTERVAL_S);
    let intervals = ((sat.end - sat.start).as_secs_f64() / SAT_INTERVAL_S) as usize;
    let from = |w: usize| sat.start + interval * w as u32;
    let flops_of: HashMap<u64, u64> = reqs
        .iter()
        .filter(|g| g.category.status() == "ok")
        .map(|g| (g.id, g.flops))
        .collect();
    let mut done = vec![0usize; intervals];
    let mut ok_flops = vec![0u64; intervals];
    for resp in &sat.responses {
        let at = resp.at.saturating_duration_since(sat.start).as_secs_f64();
        let w = (at / SAT_INTERVAL_S) as usize;
        if w < intervals {
            done[w] += 1;
            let id = serve::response_id(&resp.line).unwrap_or(0);
            ok_flops[w] += flops_of.get(&id).copied().unwrap_or(0);
        }
    }
    let steal: Vec<u64> = (0..intervals)
        .map(|w| stolen.steal_between(from(w), from(w + 1)))
        .collect();
    let kept = steal::keep_calmest(&steal, &[], |k| 2 * k.len() >= intervals);
    SatFigures {
        done: kept.iter().map(|&w| done[w]).sum(),
        ok_flops: kept.iter().map(|&w| ok_flops[w]).sum(),
        wall_s: kept.len() as f64 * SAT_INTERVAL_S,
        cpu_s: kept
            .iter()
            .map(|&w| stolen.cpu_between(from(w), from(w + 1)))
            .sum(),
        intervals,
        kept: kept.len(),
    }
}

/// Verify the responses of a saturation-style phase, which sent a
/// prefix of `reqs`, and add its outcome counts to `counts`.
fn verify_window(
    r: &mut Report,
    counts: (serve::Outcomes, serve::Outcomes),
    reqs: &[gen::Generated],
    phase: &serve::Saturation,
    seed: u64,
) -> (serve::Outcomes, serve::Outcomes) {
    let sent = &reqs[..phase.responses.len()];
    let (got, want, errors) = serve::verify(sent, &phase.responses, CHAOS_KIND, seed);
    r.errors.extend(errors);
    let (mut got_all, mut want_all) = counts;
    for (k, v) in got {
        *got_all.entry(k).or_default() += v;
    }
    for (k, v) in want {
        *want_all.entry(k).or_default() += v;
    }
    (got_all, want_all)
}

/// The workload properties a later claim may cite.
fn serve_properties(
    r: &mut Report,
    mix: Mix,
    reqs: &[gen::Generated],
    wall_s: f64,
    lag_p99: f64,
    backlog_first: f64,
    backlog_last: f64,
) {
    r.prop("offered_rate_rps", serve::RATE);
    r.prop("window", serve::WINDOW);
    r.prop("workers", serve::WORKERS);
    r.prop("open_loop_requests", reqs.len());
    r.prop("open_loop_wall_s", wall_s);
    r.prop(
        "operand_sizes",
        match mix {
            Mix::Small => "gemv n=16,32; dot n=256,1024; scal+axpy n=256; gemver n=16; axpydot n=256; bicg n=16",
            Mix::Faulty => "gemv n in [8,96]; dot, axpy n in [64,4096]; chaos and recoverable gemv n in [8,96]",
        },
    );
    let by = Category::ALL
        .iter()
        .map(|&c| {
            let n = reqs.iter().filter(|g| g.category == c).count();
            (c.name().to_string(), serde::Value::U64(n as u64))
        })
        .collect();
    r.prop("requests_by_category", serde::Value::Object(by));
    r.prop("shape_repeat_share", gen::repeat_share(reqs));
    r.prop("lag_p99_ms", lag_p99);
    r.prop("backlog_first_quarter", backlog_first);
    r.prop("backlog_last_quarter", backlog_last);
}

/// Record the run's host-speed probe in the details line.
fn host_speed(r: &mut Report, speed: &calib::Speed) {
    r.prop("host_probe_ms", speed.median_ms());
    r.prop("host_probes", speed.len());
    r.prop("host_factor", speed.factor());
}

fn run_stream(seed: u64, seconds: Duration) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut progs = Vec::new();
    let mut speed = calib::Speed::default();
    for _ in 0..STREAM_SETUPS {
        drop(std::mem::take(&mut progs));
        let t0 = std::time::Instant::now();
        progs = stream::setup(seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        speed.sample(1);
    }
    let (digests, errors) = stream::verify(&progs);
    r.errors.extend(errors);

    let me = std::process::id().to_string();
    let monitor = steal::Monitor::start(None);
    let lp = stream::closed_loop(&progs, seconds, &digests, &me, &mut speed);
    let stolen = monitor.stop();
    r.errors.extend(lp.mismatches.iter().cloned());
    let rss = serve::rss_peak_mb(&me)?;

    // Per program, the calmest executions (see `steal`) give its median
    // and tail wall time. Pooling the programs would mix six modes, so
    // the figures describe a round of all six at those times: `p50_ms`
    // is the mean of the programs' medians, `p99_ms` of their tails.
    let (mut median_ms, mut tail_ms, mut cpu_s, mut measured) = (0.0, Some(0.0), 0.0, 0usize);
    let mut tail_qs = Vec::new();
    for (j, p) in progs.iter().enumerate() {
        let execs: Vec<&stream::Exec> = lp.execs.iter().filter(|e| e.program == j).collect();
        let steals: Vec<u64> = execs.iter().map(|e| e.steal).collect();
        let kept = steal::keep_calmest(&steals, &[], |k| k.len() >= MIN_STREAM_EXECS);
        let ms: Vec<f64> = kept.iter().map(|&i| execs[i].ms).collect();
        median_ms +=
            stats::percentile(&ms, 0.5).map_err(|e| format!("{}: {e}; run longer", p.name))?;
        // The tail is a detail: a program with too few executions for
        // one leaves it out (null) instead of failing the run.
        match stats::highest_supported(ms.len(), STREAM_TAIL_Q) {
            Some(q) => {
                tail_ms = tail_ms
                    .zip(stats::percentile(&ms, q).ok())
                    .map(|(t, v)| t + v);
                tail_qs.push(serde::Value::F64(q));
            }
            None => {
                tail_ms = None;
                tail_qs.push(serde::Value::Null);
            }
        }
        cpu_s += kept.iter().map(|&i| execs[i].cpu_s).sum::<f64>();
        measured += kept.len();
    }
    let per_round = progs.len() as f64;
    let round_flops: u64 = progs.iter().map(|p| p.flops).sum();
    r.attempted = lp.attempted as u64;
    r.failed = lp.failed as u64;
    // Every time here is CPU work, so each is given at the reference
    // host speed (see `calib`); the measured ones are in the details.
    let f = speed.factor();
    let setup_s = stats::median(&setups).unwrap_or(0.0);
    let p50_ms = median_ms / per_round;
    let round_s = median_ms / 1e3;
    let mflops = round_flops as f64 / round_s / 1e6;
    let cpu_ms = cpu_s * 1e3 / measured as f64;
    r.metric("setup_s", setup_s * f, "s", setups.len());
    r.metric("p50_ms", p50_ms * f, "ms", measured);
    match tail_ms {
        Some(t) => r.prop("p99_ms", t / per_round * f),
        None => r.prop("p99_ms", serde::Value::Null),
    }
    r.prop("p99_samples", measured);
    r.metric("sat_rps", per_round / round_s / f, "req/s", measured);
    r.metric("mflops", mflops / f, "MFLOP/s", measured);
    r.prop("fail_frac", lp.failed as f64 / lp.attempted as f64);
    r.metric("cpu_ms_per_op", cpu_ms * f, "ms", measured);
    r.metric("rss_peak_mb", rss, "MB", 1);
    host_speed(&mut r, &speed);
    r.prop(
        "measured",
        serde::Value::Object(vec![
            ("setup_s".into(), serde::Value::F64(setup_s)),
            ("p50_ms".into(), serde::Value::F64(p50_ms)),
            ("mflops".into(), serde::Value::F64(mflops)),
            ("cpu_ms_per_op".into(), serde::Value::F64(cpu_ms)),
        ]),
    );

    r.prop("steal_share", stolen.share(nproc()));
    r.prop("executions_measured", measured);
    r.prop("tail_quantiles", serde::Value::Array(tail_qs));
    r.prop("callers", 1usize);
    r.prop(
        "operand_sizes",
        "dot n=2^18; scal/axpy chain of 4 n=2^20; gemv 512x512 tiles 128; gemver n=160; axpydot n=2^15; bicg n=192",
    );
    let bytes: usize = progs
        .iter()
        .flat_map(|p| p.doc.operands.iter())
        .map(|od| programs::operand_len(od) * 8)
        .sum();
    r.prop("operand_bytes", bytes);
    r.prop("executions", lp.execs.len());
    Ok(r)
}
