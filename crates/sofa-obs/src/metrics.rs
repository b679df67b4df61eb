//! A deterministic metrics registry: counters, gauges and fixed-bucket
//! histograms keyed by name, with stable (sorted) iteration order and a
//! single-line JSON snapshot export.
//!
//! All maps are `BTreeMap`s so a snapshot never depends on hash ordering —
//! the exported JSON is a pure function of the recorded values and can be
//! golden-tested byte-for-byte.
//!
//! Naming convention (see the README "Observability" section): metric names
//! are `subsystem.entity.quantity` in `snake_case` dotted paths, e.g.
//! `sim.dram.bytes_read`, `serve.inst0.requests_completed`,
//! `dse.evaluator.fidelity_hits`, `core.ops.mul`.

use std::collections::BTreeMap;

/// A fixed-bucket histogram: `bounds.len() + 1` buckets where bucket `i`
/// counts observations `v <= bounds[i]` (the last bucket is the overflow).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket bounds, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Per-bucket counts (`bounds.len() + 1` entries, last is overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    fn to_json(&self) -> String {
        let bounds = self
            .bounds
            .iter()
            .map(|b| fmt_f64(*b))
            .collect::<Vec<_>>()
            .join(",");
        let buckets = self
            .buckets
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let (min, max) = if self.count == 0 {
            ("null".to_string(), "null".to_string())
        } else {
            (fmt_f64(self.min), fmt_f64(self.max))
        };
        format!(
            "{{\"bounds\":[{bounds}],\"buckets\":[{buckets}],\"count\":{},\
             \"sum\":{},\"min\":{min},\"max\":{max}}}",
            self.count,
            fmt_f64(self.sum),
        )
    }
}

/// Deterministic JSON rendering of a finite float: Rust's shortest
/// round-trip `Display`, which is platform-independent. Non-finite values
/// (not representable in JSON) render as `null`.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Named counters, gauges and histograms with stable iteration order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name` (created at zero on first use).
    pub fn inc(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records `v` into histogram `name`, creating it with `bounds` on first
    /// use. Later calls ignore `bounds` (the first registration pins them).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing on first registration.
    pub fn observe(&mut self, name: &str, bounds: &[f64], v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(v);
    }

    /// Current value of counter `name` (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Single-line JSON snapshot:
    /// `{"counters":{…},"gauges":{…},"histograms":{…}}`, keys sorted — a
    /// pure function of the recorded values, byte-stable across runs and
    /// thread counts.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect::<Vec<_>>()
            .join(",");
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), fmt_f64(*v)))
            .collect::<Vec<_>>()
            .join(",");
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| format!("{}:{}", json_string(k), h.to_json()))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\
             \"histograms\":{{{histograms}}}}}"
        )
    }
}

/// Escapes `s` as a JSON string literal — the one escaper every JSON writer
/// in the workspace uses (metrics, traces, bench tables, harness results).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("a"), 0);
        m.inc("a", 2);
        m.inc("a", 3);
        assert_eq!(m.counter("a"), 5);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge("g"), None);
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut m = MetricsRegistry::new();
        for v in [0.5, 1.0, 3.0, 100.0] {
            m.observe("h", &[1.0, 10.0], v);
        }
        let h = m.histogram("h").unwrap();
        assert_eq!(h.buckets(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 104.5).abs() < 1e-12);
        assert!((h.mean() - 26.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let mut m = MetricsRegistry::new();
        m.observe("h", &[2.0, 1.0], 0.0);
    }

    #[test]
    fn json_snapshot_is_sorted_and_single_line() {
        let mut m = MetricsRegistry::new();
        m.inc("z.count", 1);
        m.inc("a.count", 2);
        m.set_gauge("m.level", 0.25);
        m.observe("h.lat", &[10.0], 5.0);
        let j = m.to_json();
        assert_eq!(j.lines().count(), 1);
        assert!(j.find("\"a.count\"").unwrap() < j.find("\"z.count\"").unwrap());
        assert_eq!(
            j,
            "{\"counters\":{\"a.count\":2,\"z.count\":1},\
             \"gauges\":{\"m.level\":0.25},\
             \"histograms\":{\"h.lat\":{\"bounds\":[10],\"buckets\":[1,0],\
             \"count\":1,\"sum\":5,\"min\":5,\"max\":5}}}"
        );
    }

    #[test]
    fn empty_histogram_min_max_render_null() {
        let h = Histogram::new(&[1.0]);
        assert!(h.to_json().contains("\"min\":null,\"max\":null"));
        assert_eq!(h.mean(), 0.0);
    }
}
