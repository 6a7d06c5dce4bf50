//! Hardware-derived cost parameters.
//!
//! Every number the analyzer (and the cost-backed perf lints) uses is
//! derived here from a [`SparseCoreConfig`] — there are no free-standing
//! magic thresholds. The same program therefore yields different bounds
//! per configuration, keyed by the config digest. The short-stream lint
//! (SC-W204) reads its thresholds from
//! `SparseCoreConfig::perf_thresholds`, the same derivation the
//! interpreter's lint gate uses.
//!
//! The derivations mirror the engine's timing model exactly:
//!
//! * `warmup_max` — the worst-case `load_bypassing_l1` walk
//!   (`l2 + l3 + dram`), which bounds every stream warmup, every
//!   out-of-window refill stall, and every SU start bubble.
//! * `load_full` — the worst full hierarchy walk (`l1 + l2 + l3 +
//!   dram`), which bounds every value load issued by the value-stream
//!   instructions.
//! * `keys_per_line` — `l2.line_bytes / scache.key_bytes`, the refill
//!   granularity the supply-rate model is phrased in.
//! * supply-rate floor/ceiling — bounds on the engine's
//!   `supply_rate = min(share, mem_rate).max(1/64)` with
//!   `share in [max(1, bw/num_sus), bw]` and per-operand
//!   `mem_rate = keys_per_line * prefetch_depth / latency`, summed over
//!   the two operands.

use sparsecore::SparseCoreConfig;

/// Cost-model parameters derived from one [`SparseCoreConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Core issue width (uops per cycle).
    pub issue_width: u64,
    /// Core load-queue depth (>= 1).
    pub load_queue: u64,
    /// Number of stream units.
    pub num_sus: u64,
    /// SU comparator buffer width (elements per side per cycle).
    pub su_width: u64,
    /// Peak S-Cache supply bandwidth (elements per cycle, all SUs).
    pub stream_bandwidth: u64,
    /// Keys per refill line: `l2.line_bytes / scache.key_bytes`.
    pub keys_per_line: u64,
    /// Stream prefetch depth (lines in flight).
    pub prefetch_depth: u64,
    /// Worst `load_bypassing_l1` latency: `l2 + l3 + dram`.
    pub warmup_max: u64,
    /// Worst full-hierarchy load latency: `l1 + l2 + l3 + dram`.
    pub load_full: u64,
    /// L2 hit latency (best-case refill; the gap-limit yardstick).
    pub l2_latency: u64,
    /// Scratchpad hit latency.
    pub scratchpad_latency: u64,
    /// Bytes one S-Cache slot holds.
    pub slot_bytes: u64,
    /// Total S-Cache capacity in bytes.
    pub scache_bytes: u64,
    /// Number of S-Cache slots (= architectural stream registers).
    pub scache_slots: u64,
    /// Scratchpad capacity in bytes.
    pub scratchpad_bytes: u64,
    /// Nested-intersection translation-buffer backpressure window.
    pub nest_inflight: u64,
    /// Digest of the config these parameters were derived from.
    pub config_digest: u64,
}

impl CostParams {
    /// Derive the full parameter set from a hardware config.
    pub fn for_config(config: &SparseCoreConfig) -> Self {
        let mem = &config.core.mem;
        let keys_per_line = (mem.l2.line_bytes / config.scache.key_bytes).max(1);
        CostParams {
            issue_width: u64::from(config.core.issue_width).max(1),
            load_queue: u64::from(config.core.load_queue).max(1),
            num_sus: (config.num_sus as u64).max(1),
            su_width: (config.su_buffer as u64).max(1),
            stream_bandwidth: config.stream_bandwidth.max(1),
            keys_per_line,
            prefetch_depth: config.prefetch_depth.max(1),
            warmup_max: mem.l2.latency + mem.l3.latency + mem.dram_latency,
            load_full: mem.l1.latency + mem.l2.latency + mem.l3.latency + mem.dram_latency,
            l2_latency: mem.l2.latency.max(1),
            scratchpad_latency: config.scratchpad.latency,
            slot_bytes: config.scache.slot_bytes(),
            scache_bytes: config.scache.total_bytes(),
            scache_slots: config.scache.slots as u64,
            scratchpad_bytes: config.scratchpad.size_bytes,
            nest_inflight: ((config.translation_buffer / 4).max(1)) as u64,
            config_digest: config.digest(),
        }
    }

    /// Lower bound on the engine's per-op supply rate (elements/cycle).
    ///
    /// `supply_rate = min(share, mem_rate).max(1/64)`. The bandwidth
    /// share is at least `max(1, bw / num_sus)` (concurrency is capped
    /// at `num_sus`); the two-operand `mem_rate` sum is at least
    /// `2 * keys_per_line * prefetch_depth / worst_latency` where the
    /// worst per-line charge is `max(warmup_max, scratchpad_latency)`.
    pub fn supply_rate_floor(&self) -> f64 {
        let share = (self.stream_bandwidth / self.num_sus).max(1) as f64;
        let worst = self.warmup_max.max(self.scratchpad_latency).max(1) as f64;
        let mem = 2.0 * (self.keys_per_line * self.prefetch_depth) as f64 / worst;
        share.min(mem).max(1.0 / 64.0)
    }

    /// Upper bound on the per-op supply rate: the full bandwidth share
    /// capped by the best-case `mem_rate` sum (latency >= 1 per line).
    pub fn supply_rate_ceil(&self) -> f64 {
        let mem = 2.0 * (self.keys_per_line * self.prefetch_depth) as f64;
        (self.stream_bandwidth as f64).min(mem).max(1.0)
    }

    /// Largest acceptable `upper / lower` cycle-bound divergence before
    /// the program is flagged as statically unanalyzable (SC-W206):
    /// the supply-rate spread times the refill-latency spread, the two
    /// axes the static model genuinely cannot resolve.
    pub fn bound_gap_limit(&self) -> u64 {
        let rate_spread = (self.supply_rate_ceil() / self.supply_rate_floor()).ceil() as u64;
        let latency_spread = self.warmup_max.div_ceil(self.l2_latency);
        (rate_spread * latency_spread).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_derivation() {
        let p = CostParams::for_config(&SparseCoreConfig::paper());
        assert_eq!(p.issue_width, 4);
        assert_eq!(p.num_sus, 4);
        assert_eq!(p.su_width, 16);
        assert_eq!(p.stream_bandwidth, 32);
        assert_eq!(p.keys_per_line, 16);
        assert_eq!(p.prefetch_depth, 8);
        assert_eq!(p.warmup_max, 12 + 38 + 200);
        assert_eq!(p.load_full, 4 + 12 + 38 + 200);
        assert_eq!(p.slot_bytes, 256);
        assert_eq!(p.scache_bytes, 4096);
        // share floor is 8; mem floor is 256/250 ~ 1.024 -> floor ~1.024.
        assert!((p.supply_rate_floor() - 1.024).abs() < 1e-9);
        assert_eq!(p.supply_rate_ceil(), 32.0);
        // spread 32/1.024 -> 32; 250/12 -> 21 lines.
        assert_eq!(p.bound_gap_limit(), 32 * 21);
    }

    #[test]
    fn tiny_derivation() {
        let p = CostParams::for_config(&SparseCoreConfig::tiny());
        assert_eq!(p.issue_width, 2);
        assert_eq!(p.num_sus, 2);
        assert_eq!(p.warmup_max, 4 + 10 + 50);
        assert_eq!(p.keys_per_line, 16);
        assert!(p.supply_rate_floor() >= 1.0 / 64.0);
        assert!(p.supply_rate_ceil() >= p.supply_rate_floor());
    }

    #[test]
    fn digest_distinguishes_configs() {
        let a = CostParams::for_config(&SparseCoreConfig::paper());
        let b = CostParams::for_config(&SparseCoreConfig::with_sus(1));
        assert_ne!(a.config_digest, b.config_digest);
        assert!(b.supply_rate_floor() >= a.supply_rate_floor());
    }
}
