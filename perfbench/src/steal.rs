//! Steal time: CPU time the hypervisor gave to other guests while this
//! machine's virtual CPUs were ready to run (`/proc/stat`).
//!
//! On a shared virtual machine, wall-clock figures move with steal: a
//! few milliseconds taken from a simulator thread push a request past
//! a watchdog poll, and the queue behind it grows. Steal is a property
//! of the host, not of the program under test, so the benchmark
//! measures in short intervals, records each interval's steal, and
//! computes its wall-clock metrics over the calmest intervals
//! ([`keep_calmest`]). A change to the program moves every interval
//! alike, so it still shows.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::serve::cpu_seconds;

/// How often the monitor reads the counter.
const PERIOD: Duration = Duration::from_millis(25);

/// Steal ticks (1/100 s) summed over all CPUs since boot, or 0 where
/// the counter is not available.
pub fn ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            // cpu user nice system idle iowait irq softirq steal ...
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// One reading: steal ticks of the machine and, when a process is
/// watched, its CPU seconds.
#[derive(Debug, Clone, Copy)]
struct Reading {
    at: Instant,
    steal: u64,
    cpu_s: f64,
}

fn read(pid: Option<&str>) -> Reading {
    Reading {
        at: Instant::now(),
        steal: ticks(),
        cpu_s: pid.and_then(|p| cpu_seconds(p).ok()).unwrap_or(0.0),
    }
}

/// A thread that reads the steal counter, and the CPU time of one
/// process, every [`PERIOD`].
pub struct Monitor {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Samples>,
}

impl Monitor {
    pub fn start(pid: Option<String>) -> Monitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut s = Samples(vec![read(pid.as_deref())]);
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                s.0.push(read(pid.as_deref()));
            }
            s
        });
        Monitor { stop, handle }
    }

    /// Stop sampling and wait for the thread.
    pub fn stop(self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .unwrap_or_else(|_| Samples(vec![read(None)]))
    }
}

/// Time-stamped readings, in time order.
#[derive(Debug, Clone)]
pub struct Samples(Vec<Reading>);

impl Samples {
    /// The last reading taken at or before `t`.
    fn at(&self, t: Instant) -> Reading {
        let i = self.0.partition_point(|r| r.at <= t);
        self.0[i.saturating_sub(1)]
    }

    /// Steal ticks between `from` and `to`.
    pub fn steal_between(&self, from: Instant, to: Instant) -> u64 {
        self.at(to).steal.saturating_sub(self.at(from).steal)
    }

    /// CPU seconds of the watched process between `from` and `to`.
    pub fn cpu_between(&self, from: Instant, to: Instant) -> f64 {
        self.at(to).cpu_s - self.at(from).cpu_s
    }

    /// Steal as a share of the CPU time of `cpus` CPUs over the sampled
    /// span.
    pub fn share(&self, cpus: usize) -> f64 {
        let (Some(first), Some(last)) = (self.0.first(), self.0.last()) else {
            return 0.0;
        };
        let cpu_ticks = last.at.duration_since(first.at).as_secs_f64() * 100.0 * cpus as f64;
        if cpu_ticks > 0.0 {
            (last.steal - first.steal) as f64 / cpu_ticks
        } else {
            0.0
        }
    }
}

/// The intervals a metric is computed over, by index in time order.
///
/// Intervals are taken from the calmest up (ties in time order) until
/// `enough` holds for the taken set; every interval tied with the last
/// one taken is kept too. On a calm host every interval has the same
/// steal, so all are kept. `disturbed` intervals (the generator fell
/// behind its schedule) rank after every undisturbed one.
pub fn keep_calmest(
    steal: &[u64],
    disturbed: &[bool],
    mut enough: impl FnMut(&[usize]) -> bool,
) -> Vec<usize> {
    let key = |i: usize| (disturbed.get(i).copied().unwrap_or(false), steal[i]);
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by_key(|&i| (key(i), i));
    let mut kept: Vec<usize> = Vec::new();
    for i in order {
        if let Some(&last) = kept.last() {
            if key(i) != key(last) && enough(&kept) {
                break;
            }
        }
        kept.push(i);
    }
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_calm_host_keeps_every_interval() {
        let kept = keep_calmest(&[0; 8], &[false; 8], |_| true);
        assert_eq!(kept, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn the_calmest_are_kept_with_ties() {
        let steal = [5, 0, 2, 0, 9, 2, 1, 7];
        let kept = keep_calmest(&steal, &[false; 8], |k| k.len() >= 4);
        // 0, 0, 1, 2 are enough; the second 2 ties with the last taken.
        assert_eq!(kept, vec![1, 2, 3, 5, 6]);
        let kept = keep_calmest(&steal, &[false; 8], |k| k.len() >= 7);
        assert_eq!(kept, vec![0, 1, 2, 3, 5, 6, 7]);
    }

    #[test]
    fn disturbed_intervals_rank_last() {
        let steal = [0, 0, 0, 0];
        let kept = keep_calmest(&steal, &[true, false, false, true], |_| true);
        assert_eq!(kept, vec![1, 2]);
        let kept = keep_calmest(&steal, &[true, false, false, true], |k| k.len() >= 3);
        assert_eq!(kept, vec![0, 1, 2, 3]);
    }

    #[test]
    fn readings_are_looked_up_by_time() {
        let t0 = Instant::now();
        let r = |ms, steal, cpu_s| Reading {
            at: t0 + Duration::from_millis(ms),
            steal,
            cpu_s,
        };
        let s = Samples(vec![r(0, 10, 1.0), r(100, 12, 1.25), r(200, 17, 2.0)]);
        let ms = |n| t0 + Duration::from_millis(n);
        assert_eq!(s.steal_between(ms(0), ms(150)), 2);
        assert_eq!(s.steal_between(ms(100), ms(250)), 5);
        assert_eq!(s.steal_between(ms(50), ms(60)), 0);
        assert_eq!(s.cpu_between(ms(100), ms(200)), 0.75);
        assert!((s.share(2) - 7.0 / 40.0).abs() < 1e-12);
    }
}
