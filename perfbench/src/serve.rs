//! The serve workloads: the shipped `fblas-serve` daemon as a child
//! process, driven over one pipelined connection by one sender thread
//! and one reader thread.
//!
//! Phase 1 is open loop: Poisson arrivals at a fixed rate, each
//! request's latency measured from its *scheduled* send time, so a
//! stall also charges the requests queued behind it. Phase 2 keeps a
//! fixed window of requests outstanding and counts completions.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fblas_core::composition::Backend;
use fblas_serve::{parse_line, parse_response, wanted_outputs, Client, Inbound, Request, Response};

use crate::exec;
use crate::gen::{Category, Generated, Rng};
use crate::programs;
use crate::spans::Recorder;

/// Worker threads of the daemon under test.
pub const WORKERS: usize = 2;
/// Requests outstanding in the saturation phase.
pub const WINDOW: usize = 8;
/// Open-loop arrival rate, requests per second.
pub const RATE: f64 = 100.0;

/// A running daemon.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Daemon {
    /// Launch the daemon on an ephemeral port and wait for its
    /// `listening on` line. Quotas and breakers are set out of reach so
    /// every chaos request executes fully.
    pub fn launch(exe: &Path, env: &[(&str, String)]) -> Result<Daemon, String> {
        let mut cmd = Command::new(exe);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &WORKERS.to_string(),
            "--queue",
            "4096",
            "--tenant-qps",
            "1000000",
            "--breaker",
            "1000000",
            "--drain-ms",
            "60000",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        let mut first = String::new();
        let addr = loop {
            first.clear();
            if reader.read_line(&mut first).map_err(|e| e.to_string())? == 0 {
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if let Some(rest) = first.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("");
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad listen address `{addr}`: {e}"))?;
            }
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        });
        Ok(Daemon {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send `drain`, wait for the process to exit, and require a clean
    /// exit.
    pub fn drain(mut self) -> Result<(), String> {
        let mut c = Client::connect(self.addr).map_err(|e| e.to_string())?;
        let line = c.control("drain").map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let log = self.stderr.take().map(|h| h.join().unwrap_or_default());
        if !line.contains(r#""status":"ok""#) || !status.success() {
            return Err(format!(
                "daemon drain failed ({status}): {line}\n{}",
                log.unwrap_or_default()
            ));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// A fixed warm-up request: one small GEMV.
pub fn warmup_line() -> String {
    let req = Request {
        id: 0,
        tenant: "warmup".into(),
        deadline_ms: None,
        retry_max: None,
        fill_seed: Some(1),
        data: None,
        want: None,
        chaos: None,
        program: programs::gemv(16, 16),
    };
    serde_json::to_string(&req).expect("requests serialize")
}

/// Launch the daemon and time launch → first `ping` roundtrip → one
/// warm-up request. Returns the running daemon and the seconds taken.
pub fn timed_setup(exe: &Path, env: &[(&str, String)]) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::launch(exe, env)?;
    let mut c = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    let pong = c.control("ping").map_err(|e| e.to_string())?;
    if !pong.contains(r#""status":"ok""#) {
        return Err(format!("bad ping response: {pong}"));
    }
    let warm = c
        .roundtrip_line(&warmup_line())
        .map_err(|e| e.to_string())?;
    if !warm.contains(r#""status":"ok""#) {
        return Err(format!("warm-up request failed: {warm}"));
    }
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

/// `(utime + stime)` of `pid` in seconds, from `/proc/<pid>/stat`
/// (clock ticks of 1/100 s, Linux's fixed `USER_HZ`).
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    Ok((tick(11) + tick(12)) / 100.0)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn rss_peak_mb(pid: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM".into())
}

/// The id of a response line: responses serialize `id` first.
pub fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// One received response.
#[derive(Debug, Clone)]
pub struct Received {
    pub at: Instant,
    pub line: String,
}

/// Open-loop phase outcome.
pub struct OpenLoop {
    /// Latency from scheduled send, ms, per request index.
    pub latency_ms: Vec<f64>,
    /// How late each send was, ms.
    pub lag_ms: Vec<f64>,
    /// Requests outstanding, sampled at each send.
    pub backlog: Vec<usize>,
    pub responses: Vec<Received>,
    pub wall_s: f64,
    /// The instant the schedule's offsets count from.
    pub start: Instant,
}

/// Read response lines until `done(was_control_reply, responses_so_far)`
/// holds, calling `on` for each execution response. Control replies are
/// not collected.
fn read_responses(
    stream: TcpStream,
    mut done: impl FnMut(bool, usize) -> bool,
    mut on: impl FnMut(&Received),
) -> Result<Vec<Received>, String> {
    let mut reader = BufReader::new(stream);
    let mut out = Vec::new();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("reading responses: {e}")),
        }
        let at = Instant::now();
        let line = String::from_utf8_lossy(&buf).trim_end().to_string();
        let control = line.starts_with("{\"control\"");
        if !control {
            let r = Received { at, line };
            on(&r);
            out.push(r);
        }
        if done(control, out.len()) {
            return Ok(out);
        }
    }
}

fn connect_pipelined(addr: SocketAddr) -> Result<(TcpStream, TcpStream), String> {
    let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let r = s.try_clone().map_err(|e| e.to_string())?;
    Ok((s, r))
}

/// Send `reqs` at `offsets` from a start shortly after now; latency runs
/// from each scheduled time to the response's arrival.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Generated],
    offsets: &[Duration],
) -> Result<OpenLoop, String> {
    let (mut w, r) = connect_pipelined(addr)?;
    let received = Arc::new(AtomicUsize::new(0));
    let start = Instant::now() + Duration::from_millis(20);
    let lines: Vec<String> = reqs.iter().map(|g| format!("{}\n", g.line)).collect();
    let offs = offsets.to_vec();
    let recv2 = Arc::clone(&received);
    let sender = std::thread::spawn(move || -> Result<(Vec<f64>, Vec<usize>), String> {
        let mut lag = Vec::with_capacity(lines.len());
        let mut backlog = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            let due = start + offs[i];
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent_at = Instant::now();
            lag.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
            backlog.push(i - recv2.load(Ordering::Relaxed).min(i));
            w.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        }
        Ok((lag, backlog))
    });
    let n = reqs.len();
    let responses = read_responses(
        r,
        |_, got| got == n,
        |_| {
            received.fetch_add(1, Ordering::Relaxed);
        },
    );
    let (lag_ms, backlog) = sender.join().map_err(|_| "sender panicked")??;
    let responses = responses?;
    let wall_s = start.elapsed().as_secs_f64();
    let index: HashMap<u64, usize> = reqs.iter().enumerate().map(|(i, g)| (g.id, i)).collect();
    let mut latency_ms = vec![f64::NAN; n];
    for resp in &responses {
        let i = response_id(&resp.line)
            .and_then(|id| index.get(&id).copied())
            .ok_or_else(|| format!("response for an unknown id: {}", resp.line))?;
        let due = start + offsets[i];
        latency_ms[i] = resp.at.saturating_duration_since(due).as_secs_f64() * 1e3;
    }
    Ok(OpenLoop {
        latency_ms,
        lag_ms,
        backlog,
        responses,
        wall_s,
        start,
    })
}

/// Saturation phase outcome.
pub struct Saturation {
    /// The phase ran from `start` to `end`; responses arriving after
    /// `end` were in flight when it closed.
    pub start: Instant,
    pub end: Instant,
    pub responses: Vec<Received>,
}

/// Keep `WINDOW` requests outstanding for `duration`, drawing requests
/// from `reqs` in order.
pub fn saturation(
    addr: SocketAddr,
    reqs: &[Generated],
    duration: Duration,
) -> Result<Saturation, String> {
    let (mut w, r) = connect_pipelined(addr)?;
    let slots = Arc::new((Mutex::new(0usize), Condvar::new()));
    let lines: Vec<String> = reqs.iter().map(|g| format!("{}\n", g.line)).collect();
    let slots2 = Arc::clone(&slots);
    let sent_total = Arc::new(AtomicUsize::new(usize::MAX));
    let sent_total2 = Arc::clone(&sent_total);
    let start = Instant::now();
    let end = start + duration;
    let sender = std::thread::spawn(move || -> Result<(), String> {
        let mut sent = 0;
        while Instant::now() < end && sent < lines.len() {
            {
                let (lock, cv) = &*slots2;
                let mut out = lock.lock().expect("slot lock");
                while *out >= WINDOW {
                    out = cv.wait(out).expect("slot lock");
                }
                *out += 1;
            }
            w.write_all(lines[sent].as_bytes())
                .map_err(|e| e.to_string())?;
            sent += 1;
        }
        // A ping marks the end of the stream; responses still in flight
        // may arrive after its reply. The count is published first, so
        // the reader sees it once the ping's reply arrives.
        sent_total2.store(sent, Ordering::Release);
        w.write_all(b"{\"control\":\"ping\"}\n")
            .map_err(|e| e.to_string())?;
        Ok(())
    });
    let mut pinged = false;
    let responses = read_responses(
        r,
        |control, got| {
            pinged |= control;
            pinged && got == sent_total.load(Ordering::Acquire)
        },
        |_| {
            let (lock, cv) = &*slots;
            *lock.lock().expect("slot lock") -= 1;
            cv.notify_one();
        },
    );
    sender.join().map_err(|_| "sender panicked")??;
    let responses = responses?;
    Ok(Saturation {
        start,
        end,
        responses,
    })
}

/// Outcome counts by `status/kind`.
pub type Outcomes = BTreeMap<String, usize>;

fn outcome_key(status: &str, kind: Option<&str>) -> String {
    match kind {
        Some(k) => format!("{status}/{k}"),
        None => status.to_string(),
    }
}

/// Check every response against its request: the status its category
/// implies, refblas agreement for every `ok`, `recovered` exactly for
/// the recoverable category, and, for a seeded sample, bit identity
/// with an in-process threaded execution. Returns outcome counts, the
/// expected counts, and the number of failed checks with the first
/// few reasons.
pub fn verify(
    reqs: &[Generated],
    responses: &[Received],
    chaos_kind: &str,
    seed: u64,
) -> (Outcomes, Outcomes, Vec<String>) {
    let by_id: HashMap<u64, &Generated> = reqs.iter().map(|g| (g.id, g)).collect();
    let mut got = Outcomes::new();
    let mut want = Outcomes::new();
    let mut errors = Vec::new();
    let mut ok_ids = Vec::new();
    for resp in responses {
        let parsed = match parse_response(&resp.line) {
            Ok(p) => p,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        *got.entry(outcome_key(&parsed.status, parsed.kind.as_deref()))
            .or_default() += 1;
        let Some(g) = by_id.get(&parsed.id) else {
            errors.push(format!("response for unknown id {}", parsed.id));
            continue;
        };
        let want_kind = match g.category {
            Category::Chaos => Some(chaos_kind),
            Category::Broken => Some("lint"),
            _ => None,
        };
        *want
            .entry(outcome_key(g.category.status(), want_kind))
            .or_default() += 1;
        if parsed.status != g.category.status() {
            errors.push(format!(
                "request {} ({}): status {} {:?}, expected {}",
                g.id,
                g.category.name(),
                parsed.status,
                parsed.detail,
                g.category.status()
            ));
            continue;
        }
        if parsed.status == "ok" {
            if let Err(e) = check_ok(g, &parsed) {
                errors.push(format!("request {}: {e}", g.id));
            }
            ok_ids.push(g.id);
        }
    }
    // Bit identity against an in-process threaded run, on a seeded
    // sample of the ok responses.
    let mut rng = Rng::new(seed ^ 0x0B17_1D00);
    rng.shuffle(&mut ok_ids);
    let line_of: HashMap<u64, &str> = responses
        .iter()
        .filter_map(|r| response_id(&r.line).map(|id| (id, r.line.as_str())))
        .collect();
    for id in ok_ids.into_iter().take(12) {
        let g = by_id[&id];
        if let Err(e) = check_bits(g, line_of[&id]) {
            errors.push(format!("request {id}: {e}"));
        }
    }
    (got, want, errors)
}

fn request_of(g: &Generated) -> Result<Request, String> {
    match parse_line(&g.line)? {
        Inbound::Exec(r) => Ok(*r),
        Inbound::Control(_) => Err("generated a control line".into()),
    }
}

fn check_ok(g: &Generated, resp: &Response) -> Result<(), String> {
    let req = request_of(g)?;
    let recovered = resp
        .recovery
        .as_ref()
        .and_then(|r| r.get("recovered"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
        > 0;
    if recovered != (g.category == Category::Recoverable) {
        return Err(format!(
            "recovered = {recovered} for a {} request",
            g.category.name()
        ));
    }
    let fill_seed = req.fill_seed.unwrap_or(0);
    let mut exp = programs::bind_values(&req.program, |name, i| {
        fblas_serve::protocol::fill_value(fill_seed, name, i)
    });
    programs::run_refblas(&req.program, &mut exp);
    programs::compare(
        &req.program,
        &exp,
        &wanted_outputs(&req),
        &resp.outputs,
        &resp.scalars,
    )
}

fn check_bits(g: &Generated, line: &str) -> Result<(), String> {
    let req = request_of(g)?;
    let resp = parse_response(line)?;
    let mut rec = Recorder::new();
    let local = exec::execute(&req, Backend::Threaded, &mut rec)?;
    let bits = |m: &BTreeMap<String, Vec<f64>>| -> Vec<(String, Vec<u64>)> {
        m.iter()
            .map(|(k, v)| (k.clone(), v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    };
    let sbits = |m: &BTreeMap<String, f64>| -> Vec<(String, u64)> {
        m.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
    };
    if bits(&resp.outputs) != bits(&local.outputs) || sbits(&resp.scalars) != sbits(&local.scalars)
    {
        return Err("served result differs bitwise from the threaded in-process run".into());
    }
    Ok(())
}
