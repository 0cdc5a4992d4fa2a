//! Host speed: how fast the shared host ran this run's CPU work.
//!
//! On a shared virtual machine the CPU speed a run gets drifts by a
//! quarter or more over minutes with no steal recorded (a busy
//! neighbour on a sibling hardware thread, or a lower clock). Calm
//! selection (`steal`) cannot see that. So the benchmark times a fixed
//! loop of its own, [`probe`], throughout a run and expresses its
//! CPU-bound metrics at a reference speed: a time is multiplied by
//! [`Speed::factor`], a rate divided by it. The probe runs no code of
//! the program under test, so a change to the program moves the
//! normalised metrics by its full effect.

use std::time::Instant;

/// The probe's time, ms, at the reference speed: about its median on
/// the 2-vCPU host the benchmark was built on, in a fast spell.
pub const REF_MS: f64 = 3.0;
const LEN: usize = 1 << 16;
const PASSES: usize = 16;

/// Time a fixed scalar floating-point loop over a 512 KiB buffer, ms.
pub fn probe() -> f64 {
    let mut v = vec![1.0f64; LEN];
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for x in v.iter_mut() {
            *x = x.mul_add(1.000_000_1, 1e-9);
        }
    }
    std::hint::black_box(&v);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The probe readings of one run.
#[derive(Debug, Default)]
pub struct Speed(Vec<f64>);

impl Speed {
    /// Take `n` readings.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.0.push(probe());
        }
    }

    /// Median reading, ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.0).unwrap_or(REF_MS)
    }

    /// Converts a time measured in this run to the reference speed:
    /// below 1 when the host ran slower than the reference.
    pub fn factor(&self) -> f64 {
        REF_MS / self.median_ms()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_gets_a_smaller_factor() {
        let s = Speed(vec![6.0, 5.0, 7.0]);
        assert_eq!(s.median_ms(), 6.0);
        assert_eq!(s.factor(), 0.5);
        assert_eq!(Speed::default().factor(), 1.0);
        assert!(probe() > 0.0);
    }
}
