//! Reading the counters and histograms the program already exports,
//! from a `fblas-metrics-snapshot-v1` document.

use std::collections::BTreeMap;

use serde::Value;

fn rows<'a>(snap: &'a Value, section: &str, name: &'a str) -> impl Iterator<Item = &'a Value> {
    snap.get(section)
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter(move |r| r.get("name").and_then(Value::as_str) == Some(name))
}

/// Sum of counter `name` over every label set.
pub fn counter(snap: &Value, name: &str) -> u64 {
    rows(snap, "counters", name)
        .filter_map(|r| r.get("value").and_then(Value::as_u64))
        .sum()
}

/// Histogram `name` merged over every label set: bucket lower bound →
/// count.
pub fn hist(snap: &Value, name: &str) -> BTreeMap<u64, u64> {
    let mut merged = BTreeMap::new();
    for r in rows(snap, "histograms", name) {
        let buckets = r
            .get("hist")
            .and_then(|h| h.get("buckets"))
            .and_then(Value::as_array);
        for b in buckets.into_iter().flatten() {
            if let (Some(lower), Some(n)) = (
                b.get_index(0).and_then(Value::as_u64),
                b.get_index(1).and_then(Value::as_u64),
            ) {
                *merged.entry(lower).or_default() += n;
            }
        }
    }
    merged
}

/// Nearest-rank median of a merged histogram (bucket lower bound), and
/// its sample count.
pub fn hist_median(h: &BTreeMap<u64, u64>) -> (f64, usize) {
    let count: u64 = h.values().sum();
    if count == 0 {
        return (0.0, 0);
    }
    let rank = count.div_ceil(2);
    let mut seen = 0;
    for (lower, n) in h {
        seen += n;
        if seen >= rank {
            return (*lower as f64, count as usize);
        }
    }
    (0.0, count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_counters_and_histograms_over_labels() {
        let snap: Value = serde_json::from_str(
            r#"{"counters":[
                 {"name":"c","labels":{"channel":"a"},"value":3},
                 {"name":"c","labels":{"channel":"b"},"value":4},
                 {"name":"d","labels":{},"value":9}],
                "histograms":[
                 {"name":"h","labels":{"channel":"a"},"hist":{"buckets":[[10,2],[20,1]]}},
                 {"name":"h","labels":{"channel":"b"},"hist":{"buckets":[[20,1],[40,3]]}}]}"#,
        )
        .unwrap();
        assert_eq!(counter(&snap, "c"), 7);
        assert_eq!(counter(&snap, "missing"), 0);
        let h = hist(&snap, "h");
        assert_eq!(h[&20], 2);
        assert_eq!(hist_median(&h), (20.0, 7));
    }
}
