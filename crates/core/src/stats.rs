//! Engine-level statistics: instruction counts, SU utilization, and the
//! stream-length distribution of paper Figure 14.

use std::cell::{Ref, RefCell};

/// Histogram of stream lengths observed by the engine (each `S_READ` /
/// `S_VREAD` operand and each produced output stream contributes one
/// sample).
///
/// Samples stay in recording order, so [`crate::Engine::finish`] can
/// export the ones recorded since its last export. The read paths
/// (`cdf_at`, `cdf_series`, `quantile`) take `&self` and sort a cached
/// copy, kept behind interior mutability, so snapshot and reporting code
/// can query a histogram it only has shared access to (e.g. through
/// [`crate::Engine::stats`]). The type is `Send` but not `Sync` — each
/// engine, and therefore each histogram, belongs to one simulation
/// thread.
#[derive(Debug, Clone, Default)]
pub struct LengthHistogram {
    samples: Vec<u32>,
    /// `samples`, sorted; stale while shorter than `samples` (samples
    /// are only ever appended).
    sorted: RefCell<Vec<u32>>,
}

impl PartialEq for LengthHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples
    }
}

impl LengthHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one stream length.
    pub fn record(&mut self, len: u32) {
        self.samples.push(len);
    }

    /// The recorded lengths, in recording order.
    pub fn samples(&self) -> &[u32] {
        &self.samples
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean length; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|&l| l as f64).sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The samples in ascending order.
    fn sorted(&self) -> Ref<'_, Vec<u32>> {
        if self.sorted.borrow().len() != self.samples.len() {
            let mut sorted = self.samples.clone();
            sorted.sort_unstable();
            *self.sorted.borrow_mut() = sorted;
        }
        self.sorted.borrow()
    }

    /// Cumulative distribution: fraction of samples with length <= `len`.
    pub fn cdf_at(&self, len: u32) -> f64 {
        let samples = self.sorted();
        if samples.is_empty() {
            return 0.0;
        }
        samples.partition_point(|&l| l <= len) as f64 / samples.len() as f64
    }

    /// The CDF sampled at the given points (the Figure 14 series).
    pub fn cdf_series(&self, points: &[u32]) -> Vec<(u32, f64)> {
        points.iter().map(|&p| (p, self.cdf_at(p))).collect()
    }

    /// The `q`-quantile of the lengths (q in [0, 1]); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u32> {
        let samples = self.sorted();
        if samples.is_empty() {
            return None;
        }
        let idx = ((samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(samples[idx])
    }

    /// Shortest observed length; `None` when empty.
    pub fn min(&self) -> Option<u32> {
        self.samples.iter().copied().min()
    }

    /// Longest observed length; `None` when empty.
    pub fn max(&self) -> Option<u32> {
        self.samples.iter().copied().max()
    }
}

/// Counters the engine maintains while executing stream instructions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// `S_READ` + `S_VREAD` executed.
    pub reads: u64,
    /// `S_FREE` executed.
    pub frees: u64,
    /// Set-operation instructions executed on SUs (including each nested
    /// step of `S_NESTINTER`).
    pub set_ops: u64,
    /// `S_FETCH` executed.
    pub fetches: u64,
    /// `S_NESTINTER` instructions (each expands to many set ops).
    pub nested: u64,
    /// Value-side operations (`S_VINTER` + `S_VMERGE`).
    pub value_ops: u64,
    /// Total SU-busy cycles (the Figure 10 "Intersection" bucket).
    pub su_busy_cycles: u64,
    /// Total elements moved from S-Cache/scratchpad into SUs.
    pub elements_streamed: u64,
    /// Scratchpad hits on stream initialization.
    pub scratchpad_hits: u64,
    /// Scratchpad misses on stream initialization.
    pub scratchpad_misses: u64,
    /// Value loads issued by VA_gen through the normal hierarchy.
    pub value_loads: u64,
    /// S-Cache window refills that fetched at least one line from L2.
    /// Counted here rather than in the S-Cache, whose state a rollback
    /// rewinds: an event that happened stays counted.
    pub scache_window_refills: u64,
    /// Lines those refills fetched.
    pub scache_refill_lines: u64,
    /// Stream lengths observed (Figure 14).
    pub lengths: LengthHistogram,
}

impl EngineStats {
    /// Scratchpad hit rate in [0, 1].
    pub fn scratchpad_hit_rate(&self) -> f64 {
        let total = self.scratchpad_hits + self.scratchpad_misses;
        if total == 0 {
            0.0
        } else {
            self.scratchpad_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_cdf() {
        let mut h = LengthHistogram::new();
        for l in [1u32, 2, 2, 3, 10] {
            h.record(l);
        }
        assert_eq!(h.count(), 5);
        assert!((h.cdf_at(2) - 0.6).abs() < 1e-12);
        assert!((h.cdf_at(10) - 1.0).abs() < 1e-12);
        assert_eq!(h.cdf_at(0), 0.0);
        assert!((h.mean() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LengthHistogram::new();
        for l in 0..101u32 {
            h.record(l);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(LengthHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_extrema() {
        let mut h = LengthHistogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        for l in [7u32, 3, 42, 3] {
            h.record(l);
        }
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(42));
    }

    #[test]
    fn cdf_series_matches_points() {
        let mut h = LengthHistogram::new();
        for l in [5u32, 15, 25] {
            h.record(l);
        }
        let series = h.cdf_series(&[10, 20, 30]);
        assert_eq!(series.len(), 3);
        assert!((series[0].1 - 1.0 / 3.0).abs() < 1e-12);
        assert!((series[2].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recording_after_cdf_resorts() {
        let mut h = LengthHistogram::new();
        h.record(10);
        assert_eq!(h.cdf_at(10), 1.0);
        h.record(1);
        assert_eq!(h.cdf_at(5), 0.5);
        assert_eq!(h.quantile(0.0), Some(1));
        // Queries sort a copy; the samples keep their recording order.
        assert_eq!(h.samples(), &[10, 1]);
    }

    #[test]
    fn scratchpad_hit_rate() {
        let mut s = EngineStats::default();
        assert_eq!(s.scratchpad_hit_rate(), 0.0);
        s.scratchpad_hits = 3;
        s.scratchpad_misses = 1;
        assert!((s.scratchpad_hit_rate() - 0.75).abs() < 1e-12);
    }
}
