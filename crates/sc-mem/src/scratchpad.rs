//! The stream-reuse scratchpad (paper Section 4.2).
//!
//! A scratchpad shared by all Stream Units stores high-priority streams so
//! that reused streams do not move between the S-Cache and L2 repeatedly.
//! Stream priority is assigned by the compiler (the last operand of
//! `S_READ` / `S_VREAD`); the scratchpad admits a stream when it has spare
//! capacity or when the new stream's priority beats the lowest-priority
//! resident stream.

use crate::audit::{AuditKind, AuditViolation};
use crate::Cycle;
use sc_probe::{Probe, Track};
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Scratchpad configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchpadConfig {
    /// Capacity in bytes (paper Table 2: 16 KiB).
    pub size_bytes: u64,
    /// Access latency in cycles (SRAM, same as L1).
    pub latency: Cycle,
}

impl ScratchpadConfig {
    /// The paper's Table 2 configuration: 16 KiB.
    pub fn paper() -> Self {
        ScratchpadConfig { size_bytes: 16 << 10, latency: 4 }
    }
}

/// A resident stream entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    bytes: u64,
    priority: u32,
    /// Logical admission time used to break priority ties (older wins).
    admitted: u64,
}

impl Entry {
    /// The entry's place in the eviction order, lowest priority first and,
    /// within a priority, the newest first. `admitted` is unique, so the
    /// key is too.
    fn rank(&self, addr: u64) -> Rank {
        (self.priority, Reverse(self.admitted), addr)
    }
}

/// Eviction order key: `(priority, Reverse(admitted), addr)`.
type Rank = (u32, Reverse<u64>, u64);

/// A fixed, cheap hasher for stream start addresses: one folded multiply.
/// The map needs spread, not flood resistance, and no result depends on
/// its iteration order — eviction reads the ordered index.
#[derive(Debug, Clone, Copy, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }
}

/// Priority-managed scratchpad for stream keys.
///
/// Keys are tracked per *stream* (identified by the stream's start address),
/// not per line: a stream is either fully resident or absent, which matches
/// the paper's usage where whole reused edge lists live in the scratchpad.
///
/// # Example
///
/// ```
/// use sc_mem::{Scratchpad, ScratchpadConfig};
///
/// let mut sp = Scratchpad::new(ScratchpadConfig::paper());
/// assert!(sp.admit(0x1000, 256, 3));
/// assert!(sp.contains(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct Scratchpad {
    config: ScratchpadConfig,
    entries: HashMap<u64, Entry, BuildHasherDefault<AddrHasher>>,
    /// Every resident entry's [`Entry::rank`]; the first is the victim.
    order: BTreeSet<Rank>,
    used: u64,
    tick: u64,
    /// Hits served from the scratchpad.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Streams admitted.
    pub admits: u64,
    /// Resident streams evicted to make room for an admission.
    pub evictions: u64,
    /// Admissions refused because only equal- or higher-priority streams
    /// could have been evicted.
    pub rejects: u64,
    probe: Probe,
}

impl Scratchpad {
    /// Create an empty scratchpad.
    pub fn new(config: ScratchpadConfig) -> Self {
        Scratchpad {
            config,
            entries: HashMap::default(),
            order: BTreeSet::new(),
            used: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            admits: 0,
            evictions: 0,
            rejects: 0,
            probe: Probe::off(),
        }
    }

    /// Attach a probe handle; admissions and evictions become trace
    /// instants.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The configuration this scratchpad was built with.
    pub fn config(&self) -> &ScratchpadConfig {
        &self.config
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Is the stream starting at `key_addr` resident?
    pub fn contains(&self, key_addr: u64) -> bool {
        self.entries.contains_key(&key_addr)
    }

    /// Look up a stream; updates hit/miss statistics and returns the access
    /// latency if resident.
    pub fn lookup(&mut self, key_addr: u64) -> Option<Cycle> {
        if self.entries.contains_key(&key_addr) {
            self.hits += 1;
            Some(self.config.latency)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Try to admit a stream of `bytes` bytes with the given priority.
    ///
    /// Returns `true` if the stream is resident afterwards. Lower-priority
    /// resident streams are evicted to make room, but only if the candidate's
    /// priority strictly beats theirs; a stream larger than the whole
    /// scratchpad is never admitted.
    pub fn admit(&mut self, key_addr: u64, bytes: u64, priority: u32) -> bool {
        if bytes > self.config.size_bytes {
            return false;
        }
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key_addr) {
            // Already resident: refresh priority if the new one is higher.
            if priority > e.priority {
                self.order.remove(&e.rank(key_addr));
                e.priority = priority;
                self.order.insert(e.rank(key_addr));
            }
            return true;
        }
        // Evict strictly-lower-priority entries (lowest first) until it fits.
        while self.used + bytes > self.config.size_bytes {
            match self.order.first() {
                Some(&(p, _, k)) if p < priority => {
                    self.order.pop_first();
                    let e = self.entries.remove(&k).expect("victim exists");
                    self.used -= e.bytes;
                    self.evictions += 1;
                    if self.probe.tracing() {
                        self.probe.instant(
                            Track::Scratchpad,
                            "evict",
                            &[("bytes", e.bytes), ("priority", u64::from(e.priority))],
                        );
                    }
                }
                _ => {
                    self.rejects += 1;
                    return false;
                }
            }
        }
        let e = Entry { bytes, priority, admitted: self.tick };
        self.order.insert(e.rank(key_addr));
        self.entries.insert(key_addr, e);
        self.used += bytes;
        self.admits += 1;
        if self.probe.tracing() {
            self.probe.instant(
                Track::Scratchpad,
                "admit",
                &[("bytes", bytes), ("priority", u64::from(priority))],
            );
        }
        true
    }

    /// Explicitly release a stream (e.g. on `S_FREE`). Returns `true` if the
    /// stream was resident.
    pub fn release(&mut self, key_addr: u64) -> bool {
        if let Some(e) = self.entries.remove(&key_addr) {
            self.order.remove(&e.rank(key_addr));
            self.used -= e.bytes;
            true
        } else {
            false
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.used = 0;
    }

    /// Sanitizer self-audit of the allocation accounting. The byte
    /// counter must equal the sum of resident entry sizes, stay within
    /// the configured capacity, and no resident entry may be larger than
    /// the scratchpad itself.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut v = Vec::new();
        let sum: u64 = self.entries.values().map(|e| e.bytes).sum();
        if self.used != sum {
            v.push(AuditViolation::new(
                AuditKind::ScratchpadBounds,
                format!("used counter {} != sum of resident entries {}", self.used, sum),
            ));
        }
        if self.used > self.config.size_bytes {
            v.push(AuditViolation::new(
                AuditKind::ScratchpadBounds,
                format!("used {} exceeds capacity {}", self.used, self.config.size_bytes),
            ));
        }
        for (addr, e) in &self.entries {
            if e.bytes > self.config.size_bytes {
                v.push(AuditViolation::new(
                    AuditKind::ScratchpadBounds,
                    format!(
                        "entry {addr:#x} ({} bytes) is larger than the scratchpad ({})",
                        e.bytes, self.config.size_bytes
                    ),
                ));
            }
        }
        v
    }

    /// Mutation hook for the sanitizer fixture suite: leak `n` bytes of
    /// accounting — the bug class where an eviction path forgets to
    /// return a victim's bytes to the free pool. Test-only.
    #[doc(hidden)]
    pub fn sabotage_leak_bytes(&mut self, n: u64) {
        self.used += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scratchpad {
        Scratchpad::new(ScratchpadConfig { size_bytes: 1024, latency: 2 })
    }

    #[test]
    fn admit_and_lookup() {
        let mut sp = tiny();
        assert!(sp.admit(0x100, 512, 1));
        assert_eq!(sp.lookup(0x100), Some(2));
        assert_eq!(sp.lookup(0x200), None);
        assert_eq!(sp.hits, 1);
        assert_eq!(sp.misses, 1);
    }

    #[test]
    fn oversize_stream_rejected() {
        let mut sp = tiny();
        assert!(!sp.admit(0x100, 2048, 10));
        assert_eq!(sp.used_bytes(), 0);
    }

    #[test]
    fn higher_priority_evicts_lower() {
        let mut sp = tiny();
        assert!(sp.admit(0xA, 600, 1));
        assert!(sp.admit(0xB, 600, 5)); // must evict 0xA
        assert!(!sp.contains(0xA));
        assert!(sp.contains(0xB));
        assert_eq!((sp.admits, sp.evictions, sp.rejects), (2, 1, 0));
    }

    #[test]
    fn equal_priority_does_not_evict() {
        let mut sp = tiny();
        assert!(sp.admit(0xA, 600, 3));
        assert!(!sp.admit(0xB, 600, 3));
        assert!(sp.contains(0xA));
        assert_eq!((sp.admits, sp.evictions, sp.rejects), (1, 0, 1));
        // An oversize stream is refused before any eviction is tried.
        assert!(!sp.admit(0xC, 2048, 9));
        assert_eq!(sp.rejects, 1);
    }

    #[test]
    fn eviction_picks_lowest_priority_first() {
        let mut sp = tiny();
        assert!(sp.admit(0xA, 400, 2));
        assert!(sp.admit(0xB, 400, 4));
        assert!(sp.admit(0xC, 400, 5)); // evicts 0xA (priority 2), not 0xB
        assert!(!sp.contains(0xA));
        assert!(sp.contains(0xB));
        assert!(sp.contains(0xC));
    }

    #[test]
    fn victims_do_not_depend_on_insertion_order() {
        // Eight 128 B streams fill the scratchpad; each priority-9 newcomer
        // then evicts exactly one. Distinct priorities fix the victim order
        // (lowest first) whichever order the map was filled in.
        let streams: Vec<(u64, u32)> = [5, 2, 8, 1, 7, 3, 6, 4]
            .iter()
            .enumerate()
            .map(|(i, &p)| (0x40 + 0x1000 * i as u64, p))
            .collect();
        let victims = |order: &[(u64, u32)]| {
            let mut sp = tiny();
            for &(addr, p) in order {
                assert!(sp.admit(addr, 128, p));
            }
            let mut resident: Vec<u64> = order.iter().map(|s| s.0).collect();
            (0..8u64)
                .map(|k| {
                    assert!(sp.admit(0x10_0000 + k, 128, 9));
                    let victim = *resident.iter().find(|&&a| !sp.contains(a)).expect("a victim");
                    resident.retain(|&a| a != victim);
                    victim
                })
                .collect::<Vec<_>>()
        };
        let forward = victims(&streams);
        let reversed: Vec<_> = streams.iter().rev().copied().collect();
        assert_eq!(forward, victims(&reversed));
        let mut by_priority = streams.clone();
        by_priority.sort_by_key(|s| s.1);
        assert_eq!(forward, by_priority.iter().map(|s| s.0).collect::<Vec<_>>());
    }

    #[test]
    fn readmit_refreshes_priority() {
        let mut sp = tiny();
        assert!(sp.admit(0xA, 400, 1));
        assert!(sp.admit(0xA, 400, 9));
        // 0xA now has priority 9 and resists a priority-5 challenger.
        assert!(sp.admit(0xB, 400, 5));
        assert!(!sp.admit(0xC, 400, 5)); // would need to evict 0xB (equal) or 0xA (higher)
        assert!(sp.contains(0xA));
    }

    #[test]
    fn release_frees_space() {
        let mut sp = tiny();
        assert!(sp.admit(0xA, 1024, 1));
        assert!(sp.release(0xA));
        assert!(!sp.release(0xA));
        assert_eq!(sp.used_bytes(), 0);
        assert!(sp.admit(0xB, 1024, 1));
    }

    #[test]
    fn audit_clean_through_admit_evict_release() {
        let mut sp = tiny();
        sp.admit(0xA, 400, 2);
        sp.admit(0xB, 400, 4);
        sp.admit(0xC, 400, 5);
        sp.release(0xB);
        assert!(sp.audit().is_empty());
    }

    #[test]
    fn audit_catches_leaked_bytes() {
        let mut sp = tiny();
        sp.admit(0xA, 400, 2);
        sp.sabotage_leak_bytes(100);
        let v = sp.audit();
        assert!(
            v.iter().any(|v| v.kind == AuditKind::ScratchpadBounds && v.message.contains("!= sum")),
            "expected accounting-drift violation, got {v:?}"
        );
    }

    #[test]
    fn accounting_is_exact() {
        let mut sp = tiny();
        sp.admit(1, 100, 1);
        sp.admit(2, 200, 1);
        sp.admit(3, 300, 1);
        assert_eq!(sp.used_bytes(), 600);
        sp.release(2);
        assert_eq!(sp.used_bytes(), 400);
    }

    /// The admission rule as a linear scan over every resident entry:
    /// the reference the ordered index must agree with.
    #[derive(Default)]
    struct ScanModel {
        size: u64,
        entries: HashMap<u64, Entry>,
        used: u64,
        tick: u64,
        admits: u64,
        evictions: u64,
        rejects: u64,
    }

    impl ScanModel {
        fn admit(&mut self, key_addr: u64, bytes: u64, priority: u32) -> bool {
            if bytes > self.size {
                return false;
            }
            self.tick += 1;
            if let Some(e) = self.entries.get_mut(&key_addr) {
                e.priority = e.priority.max(priority);
                return true;
            }
            while self.used + bytes > self.size {
                let victim = self
                    .entries
                    .iter()
                    .filter(|(_, e)| e.priority < priority)
                    .min_by_key(|(_, e)| (e.priority, std::cmp::Reverse(e.admitted)))
                    .map(|(k, _)| *k);
                match victim {
                    Some(k) => {
                        let e = self.entries.remove(&k).expect("victim exists");
                        self.used -= e.bytes;
                        self.evictions += 1;
                    }
                    None => {
                        self.rejects += 1;
                        return false;
                    }
                }
            }
            self.entries.insert(key_addr, Entry { bytes, priority, admitted: self.tick });
            self.used += bytes;
            self.admits += 1;
            true
        }

        fn release(&mut self, key_addr: u64) -> bool {
            match self.entries.remove(&key_addr) {
                Some(e) => {
                    self.used -= e.bytes;
                    true
                }
                None => false,
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn ordered_index_agrees_with_a_linear_scan(
            ops in proptest::collection::vec((0u8..16, 0u64..24, 1u64..400, 0u32..6), 1..300),
        ) {
            let mut sp = tiny();
            let mut model = ScanModel { size: 1024, ..ScanModel::default() };
            for (step, &(op, slot, bytes, priority)) in ops.iter().enumerate() {
                let addr = 0x40 * slot;
                match op {
                    0..=9 => {
                        proptest::prop_assert_eq!(
                            sp.admit(addr, bytes, priority),
                            model.admit(addr, bytes, priority),
                            "admit at step {}", step
                        );
                    }
                    10..=12 => {
                        let hit = sp.lookup(addr).is_some();
                        proptest::prop_assert_eq!(hit, model.entries.contains_key(&addr));
                    }
                    13..=14 => {
                        proptest::prop_assert_eq!(sp.release(addr), model.release(addr));
                    }
                    _ => {
                        sp.clear();
                        model.entries.clear();
                        model.used = 0;
                    }
                }
                for s in 0..24 {
                    let a = 0x40 * s;
                    proptest::prop_assert_eq!(
                        sp.contains(a),
                        model.entries.contains_key(&a),
                        "residency of {:#x} after step {}", a, step
                    );
                }
                proptest::prop_assert_eq!(
                    (sp.used_bytes(), sp.admits, sp.evictions, sp.rejects),
                    (model.used, model.admits, model.evictions, model.rejects),
                    "counters after step {}", step
                );
                proptest::prop_assert!(sp.audit().is_empty());
                proptest::prop_assert_eq!(sp.order.len(), sp.entries.len());
            }
        }
    }
}
