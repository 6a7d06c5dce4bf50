//! The multi-level load path: L1D → L2 → L3 → DRAM.
//!
//! Matches the paper's Table 2 configuration. Every demand load walks the
//! levels in order, inserting the line at each level it missed (inclusive
//! fill), and returns the total latency plus the level that supplied the
//! data. Special entry points support the S-Cache, whose fills bypass L1
//! (Section 4.3: "the data will not pollute L1"; key fetches come from L2).

use crate::audit::AuditViolation;
use crate::cache::{Cache, CacheConfig};
use crate::stats::HierarchyStats;
use crate::{Addr, Cycle};
use sc_probe::{Probe, Track};

/// Which level satisfied a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// Satisfied by the first-level data cache.
    L1,
    /// Satisfied by the private second-level cache.
    L2,
    /// Satisfied by the shared last-level cache.
    L3,
    /// Missed everywhere; serviced by main memory.
    Dram,
}

/// Result of a single load: the supplying level and the cycles charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Level that supplied the line.
    pub level: HitLevel,
    /// Total round-trip latency in cycles.
    pub latency: Cycle,
}

/// Configuration for the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// First-level data cache.
    pub l1: CacheConfig,
    /// Second-level cache.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub l3: CacheConfig,
    /// Flat DRAM access latency in cycles (beyond the L3 lookup).
    pub dram_latency: Cycle,
}

impl HierarchyConfig {
    /// The paper's Table 2 configuration.
    pub fn paper() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            l3: CacheConfig::l3(),
            dram_latency: 200,
        }
    }

    /// A small configuration for fast unit tests: 512 B L1, 2 KiB L2,
    /// 8 KiB L3.
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64, latency: 1 },
            l2: CacheConfig { size_bytes: 2 << 10, ways: 4, line_bytes: 64, latency: 4 },
            l3: CacheConfig { size_bytes: 8 << 10, ways: 8, line_bytes: 64, latency: 10 },
            dram_latency: 50,
        }
    }
}

/// The simulated L1/L2/L3/DRAM stack.
///
/// # Example
///
/// ```
/// use sc_mem::{HierarchyConfig, HitLevel, MemoryHierarchy};
///
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::paper());
/// assert_eq!(mem.load(0x2000).level, HitLevel::Dram);
/// assert_eq!(mem.load(0x2000).level, HitLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    stats: HierarchyStats,
    probe: Probe,
}

impl MemoryHierarchy {
    /// Build an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            config,
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            stats: HierarchyStats::default(),
            probe: Probe::off(),
        }
    }

    /// Attach a probe handle; DRAM round-trips become trace instants
    /// (per-level counts are folded into the metrics registry at snapshot
    /// time by the owning core/engine, not per access).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Fold the hierarchy's counters into `reg` as gauges under `prefix`
    /// (e.g. `mem` → `mem.l1.hits`). Called by snapshot hooks.
    pub fn snapshot_metrics(&self, reg: &mut sc_probe::metrics::Registry, prefix: &str) {
        let (l1, l2, l3) = self.level_stats();
        for (name, s) in [("l1", l1), ("l2", l2), ("l3", l3)] {
            reg.gauge(&format!("{prefix}.{name}.hits"), s.hits as f64);
            reg.gauge(&format!("{prefix}.{name}.misses"), s.misses as f64);
            reg.gauge(&format!("{prefix}.{name}.fills"), s.fills as f64);
            reg.gauge(&format!("{prefix}.{name}.evictions"), s.evictions as f64);
        }
        reg.gauge(&format!("{prefix}.dram.accesses"), self.stats.dram_accesses as f64);
        reg.gauge(&format!("{prefix}.loads"), self.stats.loads() as f64);
        reg.gauge(&format!("{prefix}.total_latency"), self.stats.total_latency as f64);
        reg.gauge(&format!("{prefix}.mean_latency"), self.stats.mean_latency());
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Hierarchy-wide statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Per-level cache statistics, in (L1, L2, L3) order.
    pub fn level_stats(&self) -> (crate::CacheStats, crate::CacheStats, crate::CacheStats) {
        (*self.l1.stats(), *self.l2.stats(), *self.l3.stats())
    }

    /// Reset statistics; contents are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
    }

    /// Drop all cached contents and statistics (the attached probe, if
    /// any, survives).
    pub fn reset(&mut self) {
        let probe = self.probe.clone();
        *self = MemoryHierarchy::new(self.config);
        self.probe = probe;
    }

    /// A demand load through the full hierarchy (the normal CPU load path).
    #[inline]
    pub fn load(&mut self, addr: Addr) -> AccessResult {
        let mut latency = self.config.l1.latency;
        let result = if self.l1.access(addr) {
            AccessResult { level: HitLevel::L1, latency }
        } else {
            latency += self.config.l2.latency;
            if self.l2.access(addr) {
                AccessResult { level: HitLevel::L2, latency }
            } else {
                latency += self.config.l3.latency;
                if self.l3.access(addr) {
                    AccessResult { level: HitLevel::L3, latency }
                } else {
                    latency += self.config.dram_latency;
                    AccessResult { level: HitLevel::Dram, latency }
                }
            }
        };
        self.record(result);
        result
    }

    /// A load that bypasses L1: the S-Cache fill path (Section 4.3 — stream
    /// keys are fetched from L2 and must not pollute L1).
    #[inline]
    pub fn load_bypassing_l1(&mut self, addr: Addr) -> AccessResult {
        let mut latency = self.config.l2.latency;
        let result = if self.l2.access(addr) {
            AccessResult { level: HitLevel::L2, latency }
        } else {
            latency += self.config.l3.latency;
            if self.l3.access(addr) {
                AccessResult { level: HitLevel::L3, latency }
            } else {
                latency += self.config.dram_latency;
                AccessResult { level: HitLevel::Dram, latency }
            }
        };
        self.record(result);
        result
    }

    /// Write a line back into L2 (the S-Cache output-slot writeback path).
    /// Returns the latency of the store.
    pub fn writeback_to_l2(&mut self, addr: Addr) -> Cycle {
        self.l2.fill(addr);
        self.config.l2.latency
    }

    /// A store through the hierarchy. Modeled as allocate-on-write with the
    /// same latency walk as a load (write-allocate, write-back).
    #[inline]
    pub fn store(&mut self, addr: Addr) -> AccessResult {
        self.load(addr)
    }

    /// Sanitizer self-audit: runs every per-level cache audit and tags
    /// each violation with the level it came from.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut v = Vec::new();
        for (name, cache) in [("L1", &self.l1), ("L2", &self.l2), ("L3", &self.l3)] {
            for mut viol in cache.audit() {
                viol.message = format!("{name}: {}", viol.message);
                v.push(viol);
            }
        }
        v
    }

    /// Mutation-hook access to the L1 cache for the sanitizer fixture
    /// suite. Test-only.
    #[doc(hidden)]
    pub fn sabotage_l1(&mut self) -> &mut Cache {
        &mut self.l1
    }

    #[inline]
    fn record(&mut self, result: AccessResult) {
        match result.level {
            HitLevel::L1 => self.stats.l1_hits += 1,
            HitLevel::L2 => self.stats.l2_hits += 1,
            HitLevel::L3 => self.stats.l3_hits += 1,
            HitLevel::Dram => {
                self.stats.dram_accesses += 1;
                if self.probe.tracing() {
                    self.probe.instant(Track::Mem, "dram_access", &[("latency", result.latency)]);
                }
            }
        }
        self.stats.total_latency += result.latency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_load_walks_to_dram() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny());
        let r = m.load(0x1000);
        assert_eq!(r.level, HitLevel::Dram);
        assert_eq!(r.latency, 1 + 4 + 10 + 50);
    }

    #[test]
    fn second_load_hits_l1() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny());
        m.load(0x1000);
        let r = m.load(0x1000);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.latency, 1);
    }

    #[test]
    fn l1_eviction_falls_to_l2() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny());
        // Tiny L1: 4 sets x 2 ways. Lines 0, 4, 8 conflict in set 0.
        let set_stride = 64 * 4;
        m.load(0);
        m.load(set_stride);
        m.load(2 * set_stride); // evicts line 0 from L1
        let r = m.load(0);
        assert_eq!(r.level, HitLevel::L2);
    }

    #[test]
    fn bypass_does_not_touch_l1() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny());
        let r = m.load_bypassing_l1(0x4000);
        assert_eq!(r.level, HitLevel::Dram);
        assert_eq!(r.latency, 4 + 10 + 50);
        // A subsequent normal load misses L1 but hits L2.
        let r2 = m.load(0x4000);
        assert_eq!(r2.level, HitLevel::L2);
    }

    #[test]
    fn writeback_to_l2_installs_line() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny());
        m.writeback_to_l2(0x8000);
        let r = m.load_bypassing_l1(0x8000);
        assert_eq!(r.level, HitLevel::L2);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny());
        m.load(0);
        m.load(0);
        m.load(64);
        let s = m.stats();
        assert_eq!(s.loads(), 3);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.dram_accesses, 2);
        assert!(s.mean_latency() > 1.0);
    }

    #[test]
    fn reset_clears_contents() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny());
        m.load(0);
        m.reset();
        assert_eq!(m.load(0).level, HitLevel::Dram);
        assert_eq!(m.stats().loads(), 1);
    }

    #[test]
    fn audit_clean_after_mixed_traffic() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny());
        for i in 0..200u64 {
            m.load(i * 64);
            m.load((i % 7) * 64);
        }
        m.load_bypassing_l1(0x9000);
        m.writeback_to_l2(0xA000);
        assert!(m.audit().is_empty());
    }

    #[test]
    fn audit_propagates_level_violations() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny());
        m.load(0);
        m.sabotage_l1().sabotage_double_count_hit();
        let v = m.audit();
        assert!(!v.is_empty());
        assert!(v[0].message.starts_with("L1: "), "got {:?}", v[0]);
    }

    #[test]
    fn paper_config_latencies() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper());
        let r = m.load(0);
        assert_eq!(r.latency, 4 + 12 + 38 + 200);
        assert_eq!(m.load(0).latency, 4);
    }
}
