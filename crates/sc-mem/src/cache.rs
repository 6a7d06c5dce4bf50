//! Set-associative cache model with LRU replacement.
//!
//! The model tracks tag presence only (no data payload): callers feed real
//! byte addresses, the cache answers hit/miss and updates recency. This is
//! exactly the modeling level of zSim-style simulators, which the paper
//! used for its evaluation.

use crate::audit::{AuditKind, AuditViolation};
use crate::stats::CacheStats;
use crate::Addr;

/// Configuration of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `ways * line_bytes`.
    pub size_bytes: u64,
    /// Associativity (number of ways per set). Must be non-zero.
    pub ways: u32,
    /// Cache line size in bytes. Must be a power of two.
    pub line_bytes: u64,
    /// Access latency in cycles charged on a hit at this level.
    pub latency: u64,
}

impl CacheConfig {
    /// The paper's L1D configuration (Table 2): 32 KiB, 8-way, 64 B lines.
    pub fn l1d() -> Self {
        CacheConfig { size_bytes: 32 << 10, ways: 8, line_bytes: 64, latency: 4 }
    }

    /// The paper's L2 configuration (Table 2): 256 KiB, 8-way, 64 B lines.
    pub fn l2() -> Self {
        CacheConfig { size_bytes: 256 << 10, ways: 8, line_bytes: 64, latency: 12 }
    }

    /// The paper's L3 configuration (Table 2): 12 MiB, 16-way, 64 B lines.
    pub fn l3() -> Self {
        CacheConfig { size_bytes: 12 << 20, ways: 16, line_bytes: 64, latency: 38 }
    }

    /// Number of sets implied by this configuration.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes)
    }
}

/// One set: a small vector of (tag, last-use timestamp) pairs.
#[derive(Debug, Clone, Default)]
struct Set {
    /// Tags currently resident, paired with the logical time of last use.
    lines: Vec<(u64, u64)>,
    /// Index of the line last hit or inserted, compared first (see
    /// `Cache::touch`). Only a hint: after an invalidation or a flush it
    /// may name another line or none.
    mru: usize,
}

/// A set-associative cache with true-LRU replacement.
///
/// # Example
///
/// ```
/// use sc_mem::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1d());
/// assert!(!l1.access(0x40));  // cold miss
/// assert!(l1.access(0x40));   // now a hit
/// assert!(l1.access(0x7f));   // same 64-byte line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Set>,
    /// Logical clock used for LRU ordering. Monotonic per access.
    tick: u64,
    stats: CacheStats,
    /// Demand accesses observed, counted independently of the hit/miss
    /// stats so the sanitizer can check `hits + misses == accesses`.
    demand_accesses: u64,
    set_shift: u32,
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
}

impl Cache {
    /// Create an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate: zero ways, non-power-of-two
    /// line size, or a capacity that does not evenly divide into sets.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0, "cache must have at least one way");
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        let num_sets = config.num_sets();
        assert!(
            num_sets > 0,
            "capacity must hold at least one set (size={}, ways={}, line={})",
            config.size_bytes,
            config.ways,
            config.line_bytes
        );
        Cache {
            config,
            sets: vec![Set::default(); num_sets as usize],
            tick: 0,
            stats: CacheStats::default(),
            demand_accesses: 0,
            set_shift: config.line_bytes.trailing_zeros(),
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset the accumulated statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.demand_accesses = 0;
    }

    #[inline]
    fn line_of(&self, addr: Addr) -> u64 {
        addr >> self.set_shift
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        // Modulo indexing so non-power-of-two set counts (e.g. the paper's
        // 12 MiB L3 -> 12288 sets) work correctly; a mask when it is one.
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.num_sets) as usize,
        }
    }

    /// Access `addr`, updating recency; inserts the line on a miss.
    ///
    /// Returns `true` on hit, `false` on miss. On miss, the LRU line in the
    /// set is evicted if the set is full.
    #[inline]
    pub fn access(&mut self, addr: Addr) -> bool {
        let line = self.line_of(addr);
        let idx = self.set_index(line);
        self.demand_accesses += 1;
        self.tick += 1;
        if self.touch(idx, line) {
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        self.insert(idx, line);
        false
    }

    /// Stamp `line` with the current tick; `false` when it is not
    /// resident in set `idx`.
    ///
    /// The set's most recently used line is compared first, so a run of
    /// accesses to one line (a sequential key walk touches each 64 B line
    /// 16 times) costs one compare each. The hint changes no outcome: tags
    /// are unique within a set, so every search finds the same entry, and
    /// the lines are neither moved nor reordered.
    #[inline]
    fn touch(&mut self, idx: usize, line: u64) -> bool {
        let tick = self.tick;
        let set = &mut self.sets[idx];
        if let Some(entry) = set.lines.get_mut(set.mru) {
            if entry.0 == line {
                entry.1 = tick;
                return true;
            }
        }
        match set.lines.iter().position(|&(tag, _)| tag == line) {
            Some(pos) => {
                set.lines[pos].1 = tick;
                set.mru = pos;
                true
            }
            None => false,
        }
    }

    /// Insert `line` into set `idx` with the current tick, first evicting
    /// the set's LRU line when the set is full.
    fn insert(&mut self, idx: usize, line: u64) {
        let ways = self.config.ways as usize;
        let set = &mut self.sets[idx];
        if set.lines.len() >= ways {
            // Evict true-LRU: the entry with the smallest timestamp.
            let victim = set
                .lines
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("non-empty set");
            set.lines.swap_remove(victim);
            self.stats.evictions += 1;
        }
        set.lines.push((line, self.tick));
        set.mru = set.lines.len() - 1;
    }

    /// Probe for `addr` without updating recency or inserting.
    pub fn probe(&self, addr: Addr) -> bool {
        let line = self.line_of(addr);
        let idx = self.set_index(line);
        self.sets[idx].lines.iter().any(|(tag, _)| *tag == line)
    }

    /// Insert the line containing `addr` without counting a demand access
    /// (used for prefetch fills).
    pub fn fill(&mut self, addr: Addr) {
        let line = self.line_of(addr);
        let idx = self.set_index(line);
        self.tick += 1;
        if !self.touch(idx, line) {
            self.insert(idx, line);
            self.stats.fills += 1;
        }
    }

    /// Invalidate the line containing `addr`, if present.
    ///
    /// Returns `true` if a line was removed.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let line = self.line_of(addr);
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.lines.iter().position(|(tag, _)| *tag == line) {
            set.lines.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Drop all contents (statistics are preserved).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.lines.clear();
        }
    }

    /// Number of lines currently resident across all sets.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.lines.len()).sum()
    }

    /// Sanitizer self-audit: counter conservation and the LRU stack
    /// structure. Returns an empty vector on a healthy cache.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut v = Vec::new();
        let s = &self.stats;
        if s.hits + s.misses != self.demand_accesses {
            v.push(AuditViolation::new(
                AuditKind::CounterConservation,
                format!(
                    "hits ({}) + misses ({}) != demand accesses ({})",
                    s.hits, s.misses, self.demand_accesses
                ),
            ));
        }
        if s.evictions > s.misses + s.fills {
            v.push(AuditViolation::new(
                AuditKind::CounterConservation,
                format!(
                    "evictions ({}) exceed insertions (misses {} + fills {})",
                    s.evictions, s.misses, s.fills
                ),
            ));
        }
        let ways = self.config.ways as usize;
        for (idx, set) in self.sets.iter().enumerate() {
            if set.lines.len() > ways {
                v.push(AuditViolation::new(
                    AuditKind::LruOrder,
                    format!("set {idx} holds {} lines but has {ways} ways", set.lines.len()),
                ));
            }
            for (i, (tag, t)) in set.lines.iter().enumerate() {
                if *t > self.tick {
                    v.push(AuditViolation::new(
                        AuditKind::LruOrder,
                        format!("set {idx} line {tag:#x} has timestamp {t} > clock {}", self.tick),
                    ));
                }
                if set.lines.iter().skip(i + 1).any(|(other, _)| other == tag) {
                    v.push(AuditViolation::new(
                        AuditKind::LruOrder,
                        format!("set {idx} holds duplicate tag {tag:#x}"),
                    ));
                }
            }
        }
        v
    }

    /// Mutation hook for the sanitizer fixture suite: a cache that counts
    /// a hit it never served (counter non-conservation). Test-only.
    #[doc(hidden)]
    pub fn sabotage_double_count_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Mutation hook for the sanitizer fixture suite: duplicate the first
    /// resident line inside its set, breaking the LRU stack property.
    /// Test-only.
    #[doc(hidden)]
    pub fn sabotage_duplicate_line(&mut self) {
        if let Some(set) = self.sets.iter_mut().find(|s| !s.lines.is_empty()) {
            let dup = set.lines[0];
            set.lines.push(dup);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64, latency: 1 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = tiny();
        c.access(0x100);
        assert!(c.access(0x13f)); // byte 63 of the same line
        assert!(!c.access(0x140)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set index = (addr/64) % 4. Lines 0, 4, 8 all map to set 0.
        let a = 0; // line 0 -> set 0
        let b = 64 * 4; // line 4 -> set 0
        let d = 2 * 64 * 4; // line 8 -> set 0
        c.access(a);
        c.access(b);
        c.access(a); // refresh a; b is now LRU
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_insert() {
        let mut c = tiny();
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40)); // still a miss after the probe
    }

    #[test]
    fn fill_inserts_without_demand_stats() {
        let mut c = tiny();
        c.fill(0x80);
        assert!(c.probe(0x80));
        assert_eq!(c.stats().misses, 0);
        assert_eq!(c.stats().fills, 1);
        assert!(c.access(0x80));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.access(0x40);
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        for i in 0..8 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() > 0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn capacity_respected() {
        let mut c = tiny();
        // Touch 64 distinct lines; only 8 (4 sets x 2 ways) can stay.
        for i in 0..64u64 {
            c.access(i * 64);
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn paper_configs_build() {
        let l1 = Cache::new(CacheConfig::l1d());
        assert_eq!(l1.config().num_sets(), 64);
        let l2 = Cache::new(CacheConfig::l2());
        assert_eq!(l2.config().num_sets(), 512);
        let l3 = Cache::new(CacheConfig::l3());
        assert_eq!(l3.config().num_sets(), 12288);
    }

    #[test]
    fn audit_clean_after_heavy_use() {
        let mut c = tiny();
        for i in 0..200u64 {
            c.access((i * 37) % 4096 * 64);
            if i % 3 == 0 {
                c.fill(i * 64);
            }
            if i % 7 == 0 {
                c.invalidate(i * 64);
            }
        }
        assert!(c.audit().is_empty(), "{:?}", c.audit());
        c.reset_stats();
        assert!(c.audit().is_empty());
    }

    #[test]
    fn audit_catches_double_counted_hit() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.sabotage_double_count_hit();
        let v = c.audit();
        assert!(v.iter().any(|x| x.kind == AuditKind::CounterConservation), "{v:?}");
    }

    #[test]
    fn audit_catches_duplicate_line() {
        let mut c = tiny();
        c.access(0);
        c.sabotage_duplicate_line();
        let v = c.audit();
        assert!(v.iter().any(|x| x.kind == AuditKind::LruOrder), "{v:?}");
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        Cache::new(CacheConfig { size_bytes: 512, ways: 0, line_bytes: 64, latency: 1 });
    }
}
