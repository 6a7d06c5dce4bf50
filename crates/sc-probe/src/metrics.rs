//! The metrics registry: hierarchical named counters, gauges and
//! histograms, snapshotable to JSON at any point mid-run.
//!
//! Names are dot-separated paths (`engine.reads`, `mem.l2.misses`); the
//! JSON snapshot nests them into objects so `jq '.engine.reads'` works.
//! Counters are monotonically increasing `u64`s, gauges are last-write
//! `f64`s, histograms are power-of-two-bucketed `u64` samples with exact
//! count/sum/min/max.

use crate::json;
use std::collections::BTreeMap;

/// A power-of-two-bucket histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// `buckets[i]` counts samples with `floor(log2(v)) == i - 1`;
    /// `buckets[0]` counts zeros.
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Self { count: 0, sum: 0, min: 0, max: 0, buckets: [0; 65] }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        self.max = self.max.max(v);
        self.count += 1;
        self.sum += v;
        let idx = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.buckets[idx] += 1;
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile from the bucket boundaries: the upper
    /// bound of the bucket holding the `q`-th sample. Exact for
    /// distributions that fit a single bucket; within 2x otherwise.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen > rank {
                return Some(if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 });
            }
        }
        Some(self.max)
    }
}

/// The registry: three namespaces of dotted names.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the counter `name` (creating it at zero).
    /// Saturates at `u64::MAX` — a pegged counter reads as "at least
    /// this many", never a wrapped-around small number or a panic.
    pub fn count(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c = c.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Record `value` into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Record every value of `values` into the histogram `name` (creating
    /// it, even for no values), with one lookup for the whole batch.
    pub fn observe_all(&mut self, name: &str, values: impl IntoIterator<Item = u64>) {
        let h = self.histograms.entry(name.to_string()).or_default();
        for v in values {
            h.observe(v);
        }
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Read a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merge another registry into this one (counters add, gauges take
    /// the other's value, histograms add bucket-wise).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.count(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauge(k, *v);
        }
        for (k, h) in &other.histograms {
            let e = self.histograms.entry(k.clone()).or_default();
            e.count += h.count;
            e.sum += h.sum;
            e.min = if e.count == h.count { h.min } else { e.min.min(h.min) };
            e.max = e.max.max(h.max);
            for (a, b) in e.buckets.iter_mut().zip(h.buckets) {
                *a += b;
            }
        }
    }

    /// Snapshot the registry as nested JSON. Dotted names become nested
    /// objects; histograms render as `{count, sum, mean, min, max, p50,
    /// p99}`. Safe to call at any point mid-run.
    pub fn to_json(&self) -> String {
        // Flatten every metric to (path, rendered-value), then nest.
        let mut leaves: Vec<(Vec<&str>, String)> = Vec::new();
        for (k, v) in &self.counters {
            leaves.push((k.split('.').collect(), v.to_string()));
        }
        for (k, v) in &self.gauges {
            let mut s = String::new();
            json::write_f64(&mut s, *v);
            leaves.push((k.split('.').collect(), s));
        }
        for (k, h) in &self.histograms {
            let mut s = String::from("{\"count\":");
            s.push_str(&h.count.to_string());
            s.push_str(",\"sum\":");
            s.push_str(&h.sum.to_string());
            s.push_str(",\"mean\":");
            json::write_f64(&mut s, h.mean());
            s.push_str(",\"min\":");
            s.push_str(&h.min.to_string());
            s.push_str(",\"max\":");
            s.push_str(&h.max.to_string());
            s.push_str(",\"p50\":");
            s.push_str(&h.quantile(0.5).unwrap_or(0).to_string());
            s.push_str(",\"p99\":");
            s.push_str(&h.quantile(0.99).unwrap_or(0).to_string());
            s.push('}');
            leaves.push((k.split('.').collect(), s));
        }
        leaves.sort();
        let mut out = String::new();
        Self::emit_level(&mut out, &leaves, 0);
        out
    }

    /// Emit one nesting level of sorted `(path, value)` leaves.
    fn emit_level(out: &mut String, leaves: &[(Vec<&str>, String)], depth: usize) {
        out.push('{');
        let mut i = 0;
        let mut first = true;
        while i < leaves.len() {
            let head = leaves[i].0[depth];
            let mut j = i;
            while j < leaves.len() && leaves[j].0[depth] == head {
                j += 1;
            }
            if !first {
                out.push(',');
            }
            first = false;
            json::write_str(out, head);
            out.push(':');
            if leaves[i].0.len() == depth + 1 {
                // A leaf; if a name is both a leaf and a prefix (rare,
                // discouraged), the leaf wins and deeper entries under the
                // same head are dropped from this group.
                out.push_str(&leaves[i].1);
            } else {
                Self::emit_level(out, &leaves[i..j], depth + 1);
            }
            i = j;
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.count("engine.reads", 2);
        r.count("engine.reads", 3);
        assert_eq!(r.counter("engine.reads"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn observe_all_matches_one_observe_per_value() {
        let values = [7u64, 0, 130, 7, 1 << 40];
        let mut one = Registry::new();
        for v in values {
            one.observe("h", v);
        }
        let mut batch = Registry::new();
        batch.observe_all("h", values.iter().take(2).copied());
        batch.observe_all("h", values.iter().skip(2).copied());
        assert_eq!(batch.histogram("h"), one.histogram("h"));
        assert_eq!(batch.to_json(), one.to_json());
    }

    #[test]
    fn counter_overflow_saturates_instead_of_wrapping() {
        let mut r = Registry::new();
        r.count("pegged", u64::MAX - 1);
        r.count("pegged", 10);
        assert_eq!(r.counter("pegged"), u64::MAX, "saturate, never wrap");
        r.count("pegged", 1);
        assert_eq!(r.counter("pegged"), u64::MAX, "stays pegged");
        // Merging two near-max registries is the same operation and must
        // obey the same law.
        let mut other = Registry::new();
        other.count("pegged", u64::MAX);
        r.merge(&other);
        assert_eq!(r.counter("pegged"), u64::MAX);
    }

    #[test]
    fn duplicate_gauge_registration_is_last_write_wins() {
        let mut r = Registry::new();
        r.gauge("engine.hit_rate", 0.25);
        r.gauge("engine.hit_rate", 0.75);
        assert_eq!(r.gauge_value("engine.hit_rate"), Some(0.75));
        // The snapshot carries exactly one entry for the name.
        let doc = r.to_json();
        assert_eq!(doc.matches("hit_rate").count(), 1, "{doc}");
        // merge() follows the same rule: the other registry's value wins.
        let mut other = Registry::new();
        other.gauge("engine.hit_rate", 0.5);
        r.merge(&other);
        assert_eq!(r.gauge_value("engine.hit_rate"), Some(0.5));
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 2, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 105);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 21.0).abs() < 1e-12);
        assert_eq!(h.quantile(0.0), Some(0));
        assert!(h.quantile(1.0).unwrap() >= 100);
    }

    #[test]
    fn snapshot_nests_dotted_names() {
        let mut r = Registry::new();
        r.count("engine.reads", 7);
        r.count("engine.frees", 7);
        r.count("mem.l1.hits", 1);
        r.gauge("engine.hit_rate", 0.5);
        r.observe("engine.stream_len", 16);
        let j = json::parse(&r.to_json()).unwrap();
        assert_eq!(j.get("engine").unwrap().get("reads").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            j.get("mem").unwrap().get("l1").unwrap().get("hits").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(j.get("engine").unwrap().get("hit_rate").unwrap().as_f64(), Some(0.5));
        let h = j.get("engine").unwrap().get("stream_len").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(h.get("sum").unwrap().as_f64(), Some(16.0));
    }

    #[test]
    fn merge_combines() {
        let mut a = Registry::new();
        a.count("x", 1);
        a.observe("h", 4);
        let mut b = Registry::new();
        b.count("x", 2);
        b.observe("h", 8);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.histogram("h").unwrap().count, 2);
        assert_eq!(a.histogram("h").unwrap().sum, 12);
    }
}
