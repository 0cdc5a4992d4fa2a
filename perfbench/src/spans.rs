//! In-memory spans recorded around calls into each layer.
//!
//! A span is (name, start, end, parent, request id). Spans are kept in
//! memory while the traced run executes and written out once at the
//! end. A span's *self time* is its duration minus the part of its
//! interval that its child spans cover.

use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps nothing: the untraced baseline.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span and return its duration in µs.
    pub fn exit(&mut self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let ix = self.open.pop().expect("exit matches an enter");
        self.spans[ix].end_ns = self.now_ns();
        self.spans[ix].dur_ns() as f64 / 1e3
    }

    /// Run `f` inside a span; returns its result and duration in µs.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name, req);
        let r = f();
        let us = self.exit();
        (r, us)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.req
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Summed self time per span name, in µs, sorted by name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *by.entry(s.name).or_default() += t;
    }
    by.into_iter().map(|(k, v)| (k, v as f64 / 1e3)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // request [0,100) with lint [10,30), plan [30,40), exec [50,95);
        // exec has a child sim [60,90).
        let spans = vec![
            span("request", 0, 100, None),
            span("lint", 10, 30, Some(0)),
            span("plan", 30, 40, Some(0)),
            span("exec", 50, 95, Some(0)),
            span("sim", 60, 90, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![25, 20, 10, 15, 30]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 0, 50, None),
            span("a", 5, 25, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        // Covered: [5,40) + [45,50) = 40 → self 10.
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_and_attributes() {
        let mut r = Recorder::new();
        r.enter("outer", 7);
        let (v, _) = r.time("inner", 7, || 41 + 1);
        r.exit();
        assert_eq!(v, 42);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[0].req, 7);
        let by = self_time_by_name(r.spans());
        assert_eq!(by.len(), 2);
        assert!(r.to_json_lines().lines().count() == 2);
    }
}
