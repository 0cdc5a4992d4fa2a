//! Seeded request generation for the serve workloads.
//!
//! The benchmark's seed decides everything the server sees: programs,
//! sizes, tenants, fill seeds, fault arming and the arrival schedule.
//! The server only receives the generated lines. Category proportions
//! are exact per block of requests (a seeded shuffle of a fixed deck),
//! so the expected outcome counts follow from the request count alone.

use std::collections::HashSet;
use std::time::Duration;

use fblas_lint::input::ProgramDoc;
use fblas_serve::{shape_hash, ChaosDoc, FaultDoc, Request};

use crate::programs;

/// SplitMix64: small, seedable and reproducible across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Tiny programs from eight shapes, all healthy.
    Small,
    /// Unique random sizes plus chaos, recoverable faults, lint
    /// rejects and armed deadlines.
    Faulty,
}

/// Request categories; each fixes the outcome the server must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Executes and returns `ok`.
    Healthy,
    /// One fault within the retry budget: `ok` with `recovered`.
    Recoverable,
    /// A generous `deadline_ms`, so the watchdog deadline is armed: `ok`.
    Deadline,
    /// A stacked fault that outlives `retry_max`: `failed`.
    Chaos,
    /// Structurally broken: `rejected` by lint at admission.
    Broken,
}

impl Category {
    pub const ALL: [Category; 5] = [
        Category::Healthy,
        Category::Recoverable,
        Category::Deadline,
        Category::Chaos,
        Category::Broken,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Category::Healthy => "healthy",
            Category::Recoverable => "recoverable",
            Category::Deadline => "deadline",
            Category::Chaos => "chaos",
            Category::Broken => "broken",
        }
    }

    /// The response `status` this category must produce.
    pub fn status(self) -> &'static str {
        match self {
            Category::Healthy | Category::Recoverable | Category::Deadline => "ok",
            Category::Chaos => "failed",
            Category::Broken => "rejected",
        }
    }
}

/// Deck of categories, shuffled per block; its composition is the mix.
pub fn deck(mix: Mix) -> Vec<Category> {
    let counts: &[(Category, usize)] = match mix {
        Mix::Small => &[(Category::Healthy, 1)],
        Mix::Faulty => &[
            (Category::Healthy, 14),
            (Category::Recoverable, 2),
            (Category::Deadline, 1),
            (Category::Chaos, 2),
            (Category::Broken, 1),
        ],
    };
    counts
        .iter()
        .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
        .collect()
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Generated {
    pub id: u64,
    pub line: String,
    pub category: Category,
    /// Program kind (`gemv`, `dot`, …) for per-program breakdowns.
    pub kind: &'static str,
    pub flops: u64,
    pub shape: u64,
}

const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];

/// The eight `serve_small` shapes.
fn small_program(rng: &mut Rng) -> (&'static str, ProgramDoc) {
    match rng.below(8) {
        0 => ("gemv", programs::gemv(16, 16)),
        1 => ("gemv", programs::gemv(32, 32)),
        2 => ("dot", programs::dot(256)),
        3 => ("dot", programs::dot(1024)),
        4 => ("chain", programs::chain(256, 2)),
        5 => ("gemver", programs::gemver(16)),
        6 => ("axpydot", programs::axpydot(256)),
        _ => ("bicg", programs::bicg(16)),
    }
}

/// A `serve_faulty` healthy program of a random, rarely repeated size.
fn unique_program(rng: &mut Rng) -> (&'static str, ProgramDoc) {
    match rng.below(3) {
        0 => {
            let n = rng.range(8, 96);
            ("gemv", programs::gemv(n, n))
        }
        1 => ("dot", programs::dot(rng.range(64, 4096))),
        _ => ("axpy", programs::axpy(rng.range(64, 4096))),
    }
}

/// A bit flip on the GEMV's output write channel, stacked `repeat`
/// times: each attempt spends one copy.
fn write_fault(rng: &mut Rng, repeat: u32) -> ChaosDoc {
    ChaosDoc {
        seed: Some(rng.next_u64() >> 12),
        repeat: Some(repeat),
        panic_worker: None,
        faults: vec![FaultDoc {
            channel: Some("write_o".into()),
            index: Some(5),
            bit: Some(7),
            ..FaultDoc::default()
        }],
    }
}

/// Retry budget of the fault-carrying requests; the chaos stack is
/// deeper, so it outlives every attempt.
pub const RETRY_MAX: u32 = 3;
const CHAOS_REPEAT: u32 = 5;
/// Generous enough that the deadline never expires, so the request
/// ends `ok` with the watchdog's deadline path armed.
const DEADLINE_MS: u64 = 20_000;

fn request(id: u64, category: Category, mix: Mix, rng: &mut Rng) -> Generated {
    let tenant = TENANTS[rng.below(4) as usize];
    let (kind, program) = match category {
        Category::Broken => ("broken", programs::broken()),
        Category::Chaos | Category::Recoverable => {
            let n = rng.range(8, 96);
            ("gemv", programs::gemv(n, n))
        }
        Category::Healthy | Category::Deadline => match mix {
            Mix::Small => small_program(rng),
            Mix::Faulty => unique_program(rng),
        },
    };
    let mut req = Request {
        id,
        tenant: tenant.to_string(),
        deadline_ms: None,
        retry_max: None,
        fill_seed: Some(rng.next_u64() >> 12),
        data: None,
        want: None,
        chaos: None,
        program,
    };
    match category {
        Category::Chaos => {
            req.tenant = "chaos".into();
            req.retry_max = Some(RETRY_MAX);
            req.chaos = Some(write_fault(rng, CHAOS_REPEAT));
        }
        Category::Recoverable => {
            req.retry_max = Some(RETRY_MAX);
            req.chaos = Some(write_fault(rng, 1));
        }
        Category::Deadline => req.deadline_ms = Some(DEADLINE_MS),
        Category::Healthy | Category::Broken => {}
    }
    Generated {
        id,
        line: serde_json::to_string(&req).expect("requests serialize"),
        category,
        kind,
        flops: programs::flops(&req.program),
        shape: shape_hash(&req.program),
    }
}

/// `count` requests with ids `first_id..`, from `seed`. Two calls with
/// the same arguments return byte-identical lines.
pub fn generate(mix: Mix, seed: u64, first_id: u64, count: usize) -> Vec<Generated> {
    let mut rng = Rng::new(seed ^ 0x5EED_0F5E_7E00);
    let mut cards = Vec::new();
    (0..count)
        .map(|i| {
            if cards.is_empty() {
                cards = deck(mix);
                rng.shuffle(&mut cards);
            }
            let category = cards.pop().expect("deck refilled");
            request(first_id + i as u64, category, mix, &mut rng)
        })
        .collect()
}

/// Poisson arrival offsets at `rate` per second from `seed`.
pub fn arrivals(seed: u64, rate: f64, count: usize) -> Vec<Duration> {
    let mut rng = Rng::new(seed ^ 0xA4417A15);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += -rng.unit().ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Share of requests whose shape an earlier request already had.
pub fn repeat_share(reqs: &[Generated]) -> f64 {
    let mut seen = HashSet::new();
    let repeats = reqs.iter().filter(|g| !seen.insert(g.shape)).count();
    repeats as f64 / reqs.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for mix in [Mix::Small, Mix::Faulty] {
            let a: Vec<String> = generate(mix, 7, 1, 200)
                .into_iter()
                .map(|g| g.line)
                .collect();
            let b: Vec<String> = generate(mix, 7, 1, 200)
                .into_iter()
                .map(|g| g.line)
                .collect();
            let c: Vec<String> = generate(mix, 8, 1, 200)
                .into_iter()
                .map(|g| g.line)
                .collect();
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert_eq!(arrivals(7, 100.0, 50), arrivals(7, 100.0, 50));
            assert_ne!(arrivals(7, 100.0, 50), arrivals(8, 100.0, 50));
        }
    }

    #[test]
    fn mix_proportions_match_the_spec() {
        let count = |mix, n| {
            let mut by: BTreeMap<Category, usize> = BTreeMap::new();
            for g in generate(mix, 3, 1, n) {
                *by.entry(g.category).or_default() += 1;
            }
            by
        };
        let f = count(Mix::Faulty, 2000);
        assert_eq!(f[&Category::Healthy], 1400, "70% healthy");
        assert_eq!(f[&Category::Chaos], 200, "10% chaos");
        assert_eq!(f[&Category::Recoverable], 200, "10% recoverable");
        assert_eq!(f[&Category::Broken], 100, "5% lint-broken");
        assert_eq!(f[&Category::Deadline], 100, "5% deadline-armed");
        let s = count(Mix::Small, 2000);
        assert_eq!(s[&Category::Healthy], 2000, "all healthy");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn small_repeats_shapes_and_faulty_rarely_does() {
        let small = generate(Mix::Small, 5, 1, 1000);
        let faulty = generate(Mix::Faulty, 5, 1, 1000);
        assert!(repeat_share(&small) > 0.98);
        // GEMV sizes span only [8, 96], so some faulty shapes do repeat.
        assert!(repeat_share(&faulty) < 0.5, "{}", repeat_share(&faulty));
    }

    #[test]
    fn arrivals_average_the_rate() {
        let a = arrivals(11, 100.0, 5000);
        let mean_gap = a.last().unwrap().as_secs_f64() / 5000.0;
        assert!((mean_gap - 0.01).abs() < 0.0005, "{mean_gap}");
    }
}
