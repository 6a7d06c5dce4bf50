//! S-Cache slot storage (paper Section 4.3).
//!
//! The Stream Cache sits on top of L2, beside L1, and holds the *keys* of
//! each active stream. Each of the 16 stream registers owns one slot of
//! 256 bytes (64 four-byte keys), divided into two 32-key sub-slots for
//! double buffering: while one sub-slot feeds a Stream Unit, the other can
//! be refilled from L2. Because stream keys are accessed strictly
//! sequentially, prefetching needs no predictor — the slot simply tracks a
//! sliding window over the stream.
//!
//! This module models slot state (window position, sub-slot validity,
//! output buffering with writeback in full-line groups); the latency of
//! the refills themselves is charged through
//! [`MemoryHierarchy::load_bypassing_l1`](crate::MemoryHierarchy::load_bypassing_l1)
//! by the engine that drives this storage (the `sparsecore` crate).

use crate::audit::{AuditKind, AuditViolation};
use crate::Addr;
use sc_probe::{Probe, Track};

/// Identifies one S-Cache slot (one per stream register).
pub type SlotId = usize;

/// Which half of a slot's double buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubSlot {
    /// First half of the slot window.
    Lo,
    /// Second half of the slot window.
    Hi,
}

/// Configuration of the S-Cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCacheConfig {
    /// Number of slots (= stream registers). Paper: 16.
    pub slots: usize,
    /// Slot size in keys (paper: 64 keys = 256 bytes).
    pub slot_keys: usize,
    /// Size of one key in bytes (paper: 4).
    pub key_bytes: u64,
    /// Aggregate elements transferable to SUs per cycle (paper Fig 13 sweeps
    /// 2..64; default 2 cache lines = 32 keys/cycle is modeled by the engine,
    /// this default stores the paper's headline "2 lines per cycle" as
    /// elements).
    pub elements_per_cycle: u64,
}

impl StreamCacheConfig {
    /// The paper's configuration: 16 slots x 64 keys x 4 bytes = 4 KiB,
    /// 2 lines (32 elements) per cycle to the SUs.
    pub fn paper() -> Self {
        StreamCacheConfig { slots: 16, slot_keys: 64, key_bytes: 4, elements_per_cycle: 32 }
    }

    /// Bytes in one slot.
    pub fn slot_bytes(&self) -> u64 {
        self.slot_keys as u64 * self.key_bytes
    }

    /// Total S-Cache capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.slot_bytes() * self.slots as u64
    }

    /// Keys per sub-slot (half a slot).
    pub fn subslot_keys(&self) -> usize {
        self.slot_keys / 2
    }
}

/// State of one slot.
#[derive(Debug, Clone)]
struct Slot {
    /// Is the slot bound to an active stream?
    bound: bool,
    /// Byte address of the first key of the stream.
    base: Addr,
    /// Stream length in keys.
    len: usize,
    /// Index (in keys) of the first key currently resident.
    window_start: usize,
    /// Validity of the two sub-slots.
    lo_valid: bool,
    hi_valid: bool,
    /// "start" bit: the window begins at key 0 (paper Section 4.1/4.3).
    start: bool,
    /// Keys of output buffered but not yet written back (output streams).
    pending_out: usize,
    /// Total keys produced into this slot (output streams).
    produced: usize,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            bound: false,
            base: 0,
            len: 0,
            window_start: 0,
            lo_valid: false,
            hi_valid: false,
            start: false,
            pending_out: 0,
            produced: 0,
        }
    }
}

/// Counters for S-Cache traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCacheStats {
    /// Sub-slot refills issued (each covers `slot_keys/2` keys).
    pub refills: u64,
    /// Full lines written back to L2 from output slots.
    pub writebacks: u64,
    /// Keys read by Stream Units from slots.
    pub keys_read: u64,
    /// Keys produced into output slots.
    pub keys_written: u64,
}

/// Line addresses one S-Cache call moves between the slots and L2: at
/// most two runs of consecutive lines, yielded in order, first run first.
/// A window refill has one run per fetched sub-slot; output writebacks
/// form a single run.
#[derive(Debug, Clone, Default)]
pub struct LineRuns {
    /// `(first line address, lines left)` of each run.
    runs: [(Addr, u64); 2],
    /// Address distance between consecutive lines of a run.
    step: u64,
}

impl LineRuns {
    /// Append a run of `n` lines starting at `first` (runs fill in order).
    fn push(&mut self, first: Addr, n: u64) {
        let free = if self.runs[0].1 == 0 { 0 } else { 1 };
        self.runs[free] = (first, n);
    }

    /// Are there no lines left?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Iterator for LineRuns {
    type Item = Addr;

    fn next(&mut self) -> Option<Addr> {
        let run = self.runs.iter_mut().find(|r| r.1 > 0)?;
        let line = run.0;
        run.0 += self.step;
        run.1 -= 1;
        Some(line)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.runs[0].1 + self.runs[1].1) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for LineRuns {}

/// The S-Cache slot storage and window/refill bookkeeping.
///
/// # Example
///
/// ```
/// use sc_mem::{StreamCacheConfig, StreamCacheStorage};
///
/// let mut sc = StreamCacheStorage::new(StreamCacheConfig::paper());
/// sc.bind(0, 0x1_0000, 100);                // S_READ of a 100-key stream
/// let fills = sc.refill_window(0, 0);       // fetch the first window
/// assert_eq!(fills.len(), 4);               // 64 keys x 4 B = 4 lines
/// assert!(sc.key_resident(0, 63));
/// assert!(!sc.key_resident(0, 64));
/// ```
#[derive(Debug, Clone)]
pub struct StreamCacheStorage {
    config: StreamCacheConfig,
    /// Memory line size in bytes: refills are fetched and output keys are
    /// written back in units of this. Mirrors the hierarchy's configured
    /// `line_bytes` (the engine wires it up); kept off
    /// [`StreamCacheConfig`] so the S-Cache geometry digest is unaffected
    /// — the line size is already hashed through the cache levels.
    line_bytes: u64,
    slots: Vec<Slot>,
    stats: StreamCacheStats,
    probe: Probe,
}

impl StreamCacheStorage {
    /// Create an S-Cache with all slots free.
    ///
    /// # Panics
    ///
    /// Panics if `slot_keys` is not even (sub-slots must halve the slot) or
    /// zero.
    pub fn new(config: StreamCacheConfig) -> Self {
        assert!(
            config.slot_keys > 0 && config.slot_keys.is_multiple_of(2),
            "slot_keys must be even"
        );
        assert!(config.slots > 0, "need at least one slot");
        StreamCacheStorage {
            config,
            line_bytes: 64,
            slots: vec![Slot::empty(); config.slots],
            stats: StreamCacheStats::default(),
            probe: Probe::off(),
        }
    }

    /// Set the memory line size refills and writebacks are charged in.
    /// Defaults to 64 bytes; the engine overrides it with the hierarchy's
    /// configured `line_bytes` so the S-Cache's line traffic agrees with
    /// the cache model it sits on.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two holding at least one
    /// key.
    pub fn set_line_bytes(&mut self, line_bytes: u64) {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(line_bytes >= self.config.key_bytes, "a line must hold at least one key");
        self.line_bytes = line_bytes;
    }

    /// The memory line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Keys per memory line (writeback / line-group granularity).
    fn keys_per_line(&self) -> usize {
        (self.line_bytes / self.config.key_bytes) as usize
    }

    /// Attach a probe handle; slot lifecycle and refill events are
    /// reported through it (timestamped with the probe's own clock,
    /// which the driving engine keeps current).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The configuration this S-Cache was built with.
    pub fn config(&self) -> &StreamCacheConfig {
        &self.config
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &StreamCacheStats {
        &self.stats
    }

    /// Bind `slot` to an input stream of `len` keys starting at `base`.
    /// Any previous binding is overwritten (the paper: re-initializing an
    /// active stream ID updates the S-Cache content).
    pub fn bind(&mut self, slot: SlotId, base: Addr, len: usize) {
        let s = &mut self.slots[slot];
        *s = Slot::empty();
        s.bound = true;
        s.base = base;
        s.len = len;
        if self.probe.tracing() {
            self.probe.instant(
                Track::Scache,
                "slot_bind",
                &[("slot", slot as u64), ("len", len as u64)],
            );
        }
    }

    /// Bind `slot` as an *output* stream slot (produced by `S_INTER` /
    /// `S_SUB` / `S_MERGE`). `base` is where the result keys will live in
    /// memory when written back.
    pub fn bind_output(&mut self, slot: SlotId, base: Addr) {
        let s = &mut self.slots[slot];
        *s = Slot::empty();
        s.bound = true;
        s.base = base;
        s.start = true; // slot initially holds the stream from key 0
        if self.probe.tracing() {
            self.probe.instant(Track::Scache, "slot_bind_output", &[("slot", slot as u64)]);
        }
    }

    /// Release a slot (on `S_FREE` retirement). Returns the number of
    /// output keys that were still buffered (flushed on free).
    pub fn release(&mut self, slot: SlotId) -> usize {
        let pending = self.slots[slot].pending_out;
        self.slots[slot] = Slot::empty();
        if self.probe.tracing() {
            self.probe.instant(
                Track::Scache,
                "slot_release",
                &[("slot", slot as u64), ("pending", pending as u64)],
            );
        }
        pending
    }

    /// Is `slot` currently bound?
    pub fn is_bound(&self, slot: SlotId) -> bool {
        self.slots[slot].bound
    }

    /// The "start" bit: does the slot hold the stream from its first key?
    pub fn start_bit(&self, slot: SlotId) -> bool {
        self.slots[slot].start
    }

    /// Is the key at stream offset `key_idx` resident in the slot?
    pub fn key_resident(&self, slot: SlotId, key_idx: usize) -> bool {
        let s = &self.slots[slot];
        if !s.bound || key_idx >= s.len {
            return false;
        }
        let half = self.config.subslot_keys();
        let lo_start = s.window_start;
        let hi_start = s.window_start + half;
        (s.lo_valid && key_idx >= lo_start && key_idx < lo_start + half)
            || (s.hi_valid && key_idx >= hi_start && key_idx < hi_start + half)
    }

    /// Slide the window so that it begins at `key_idx` (rounded down to a
    /// sub-slot boundary) and mark both sub-slots valid. Returns the line
    /// addresses that must be fetched from L2 — the caller charges them
    /// through the hierarchy. No lines means the window was already
    /// resident.
    pub fn refill_window(&mut self, slot: SlotId, key_idx: usize) -> LineRuns {
        let half = self.config.subslot_keys();
        let key_bytes = self.config.key_bytes;
        let line = self.line_bytes;
        let s = &mut self.slots[slot];
        assert!(s.bound, "refill on unbound slot {slot}");
        let mut fetch = LineRuns { step: line, ..LineRuns::default() };
        if key_idx >= s.len {
            return fetch;
        }
        let new_start = (key_idx / half) * half;
        if new_start == s.window_start && s.lo_valid && s.hi_valid {
            return fetch; // window already aligned and resident
        }
        let prev_start = s.window_start;
        let prev_lo = s.lo_valid;
        let prev_hi = s.hi_valid;
        // Which key ranges become resident?
        let ranges = [(new_start, true), (new_start + half, false)];
        for (range_start, is_lo) in ranges {
            if range_start >= s.len {
                if is_lo {
                    s.lo_valid = true; // partially filled final sub-slot
                } else {
                    s.hi_valid = false;
                }
                continue;
            }
            // Was this range already resident before the slide?
            let already = (prev_lo && range_start == prev_start)
                || (prev_hi && range_start == prev_start + half);
            if !already {
                let lo_byte = s.base + range_start as u64 * key_bytes;
                let end_key = (range_start + half).min(s.len);
                let hi_byte = s.base + end_key as u64 * key_bytes;
                let first = lo_byte & !(line - 1);
                fetch.push(first, (hi_byte - first).div_ceil(line));
                self.stats.refills += 1;
            }
            if is_lo {
                s.lo_valid = true;
            } else {
                s.hi_valid = true;
            }
        }
        s.window_start = new_start;
        s.start = new_start == 0;
        if !fetch.is_empty() && self.probe.tracing() {
            self.probe.instant(
                Track::Scache,
                "window_refill",
                &[("slot", slot as u64), ("key", key_idx as u64), ("lines", fetch.len() as u64)],
            );
        }
        fetch
    }

    /// Record that the SU consumed `n` keys from the slot.
    pub fn note_keys_read(&mut self, n: u64) {
        self.stats.keys_read += n;
    }

    /// Append one produced key to an output slot. Returns the line address
    /// to write back to L2 when a full memory line of keys has accumulated,
    /// or `None` otherwise. When more than `slot_keys` accumulate, the
    /// oldest keys are conceptually displaced (the slot keeps the most
    /// recently produced 64 keys and clears the start bit — paper
    /// Section 4.3).
    pub fn push_output_key(&mut self, slot: SlotId) -> Option<Addr> {
        let keys_per_line = self.keys_per_line();
        let slot_keys = self.config.slot_keys;
        let key_bytes = self.config.key_bytes;
        let s = &mut self.slots[slot];
        assert!(s.bound, "output push on unbound slot {slot}");
        s.pending_out += 1;
        s.produced += 1;
        self.stats.keys_written += 1;
        if s.produced > slot_keys {
            s.start = false;
        }
        if s.pending_out == keys_per_line {
            s.pending_out = 0;
            self.stats.writebacks += 1;
            let line_idx = (s.produced - 1) / keys_per_line;
            let addr = s.base + (line_idx * keys_per_line) as u64 * key_bytes;
            if self.probe.tracing() {
                self.probe.instant(Track::Scache, "output_writeback", &[("slot", slot as u64)]);
            }
            Some(addr)
        } else {
            None
        }
    }

    /// Append `n` produced keys to an output slot. Leaves the same slot
    /// state and statistics, and writes back the same lines in the same
    /// order, as `n` calls of [`Self::push_output_key`]; returns those
    /// line addresses.
    pub fn push_output_keys(&mut self, slot: SlotId, n: usize) -> LineRuns {
        let keys_per_line = self.keys_per_line();
        let slot_keys = self.config.slot_keys;
        let key_bytes = self.config.key_bytes;
        let s = &mut self.slots[slot];
        assert!(s.bound, "output push on unbound slot {slot}");
        let step = keys_per_line as u64 * key_bytes;
        let mut lines = LineRuns { step, ..LineRuns::default() };
        // A writeback fires each time the pending buffer reaches a full
        // line; a buffer already past one never equals it again.
        let to_first = keys_per_line.saturating_sub(s.pending_out);
        if s.pending_out < keys_per_line && n >= to_first {
            let count = 1 + (n - to_first) / keys_per_line;
            let line_idx = (s.produced + to_first - 1) / keys_per_line;
            lines.push(s.base + line_idx as u64 * step, count as u64);
            s.pending_out = (n - to_first) % keys_per_line;
        } else {
            s.pending_out += n;
        }
        s.produced += n;
        if s.produced > slot_keys {
            s.start = false;
        }
        self.stats.keys_written += n as u64;
        self.stats.writebacks += lines.len() as u64;
        if self.probe.tracing() {
            for _ in 0..lines.len() {
                self.probe.instant(Track::Scache, "output_writeback", &[("slot", slot as u64)]);
            }
        }
        lines
    }

    /// Total keys produced into an output slot so far.
    pub fn produced_keys(&self, slot: SlotId) -> usize {
        self.slots[slot].produced
    }

    /// After the producing instruction finishes, fix the output stream
    /// length so that the slot can be consumed as an input stream.
    pub fn seal_output(&mut self, slot: SlotId) {
        let slot_keys = self.config.slot_keys;
        let s = &mut self.slots[slot];
        s.len = s.produced;
        // The slot holds the most recent window of keys.
        if s.produced <= slot_keys {
            s.window_start = 0;
            s.lo_valid = true;
            s.hi_valid = true;
            s.start = true;
        } else {
            let half = self.config.subslot_keys();
            s.window_start = ((s.produced - slot_keys) / half) * half + half;
            s.lo_valid = true;
            s.hi_valid = true;
            s.start = false;
        }
    }

    /// Sanitizer self-audit of the slot state machines (Section 4.3
    /// legality) and the traffic counters. Returns an empty vector on a
    /// healthy S-Cache.
    ///
    /// Invariants checked per slot: an unbound slot retains no state; a
    /// bound slot never buffers a full line group without writing it back
    /// (`pending_out < keys_per_line`); produced-key accounting never runs
    /// behind the pending buffer; the sliding window stays sub-slot
    /// aligned and inside the stream. Globally, the keys-written counter
    /// must cover every line-group writeback.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut v = Vec::new();
        let half = self.config.subslot_keys();
        let keys_per_line = self.keys_per_line();
        for (i, s) in self.slots.iter().enumerate() {
            if !s.bound {
                if s.lo_valid || s.hi_valid || s.pending_out > 0 || s.produced > 0 {
                    v.push(AuditViolation::new(
                        AuditKind::SlotState,
                        format!(
                            "unbound slot {i} retains state (lo={} hi={} pending={} produced={})",
                            s.lo_valid, s.hi_valid, s.pending_out, s.produced
                        ),
                    ));
                }
                continue;
            }
            if s.pending_out >= keys_per_line {
                v.push(AuditViolation::new(
                    AuditKind::SlotState,
                    format!(
                        "slot {i} buffers {} output keys without a writeback \
                         (line group is {keys_per_line})",
                        s.pending_out
                    ),
                ));
            }
            if s.pending_out > s.produced {
                v.push(AuditViolation::new(
                    AuditKind::SlotState,
                    format!(
                        "slot {i} pending_out ({}) exceeds produced ({})",
                        s.pending_out, s.produced
                    ),
                ));
            }
            if half > 0 && !s.window_start.is_multiple_of(half) {
                v.push(AuditViolation::new(
                    AuditKind::SlotState,
                    format!("slot {i} window_start {} is not sub-slot aligned", s.window_start),
                ));
            }
            if s.window_start > s.len {
                v.push(AuditViolation::new(
                    AuditKind::SlotState,
                    format!(
                        "slot {i} window_start {} is past the stream end ({})",
                        s.window_start, s.len
                    ),
                ));
            }
        }
        if self.stats.keys_written < self.stats.writebacks * keys_per_line as u64 {
            v.push(AuditViolation::new(
                AuditKind::SlotState,
                format!(
                    "{} writebacks require at least {} keys written, saw {}",
                    self.stats.writebacks,
                    self.stats.writebacks * keys_per_line as u64,
                    self.stats.keys_written
                ),
            ));
        }
        v
    }

    /// Mutation hook for the sanitizer fixture suite: an output slot that
    /// "forgets" to release its buffered line group — the bug class where
    /// a model accumulates a full line without writing it back. Test-only.
    #[doc(hidden)]
    pub fn sabotage_retain_pending(&mut self, slot: SlotId) {
        let keys_per_line = self.keys_per_line();
        self.slots[slot].bound = true;
        self.slots[slot].pending_out = keys_per_line + 1;
        self.slots[slot].produced = self.slots[slot].produced.max(keys_per_line + 1);
        self.slots[slot].len = self.slots[slot].len.max(keys_per_line + 1);
    }

    /// Mutation hook for the sanitizer fixture suite: a release path that
    /// clears the bound bit but leaves sub-slot validity behind (refill
    /// state surviving into the next binding). Test-only.
    #[doc(hidden)]
    pub fn sabotage_ghost_validity(&mut self, slot: SlotId) {
        self.slots[slot].bound = false;
        self.slots[slot].lo_valid = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> StreamCacheStorage {
        StreamCacheStorage::new(StreamCacheConfig::paper())
    }

    #[test]
    fn audit_clean_through_bind_refill_release() {
        let mut s = sc();
        s.bind(2, 0x1000, 200);
        s.refill_window(2, 0);
        s.refill_window(2, 70);
        s.note_keys_read(64);
        assert!(s.audit().is_empty());
        s.bind_output(5, 0x3000);
        for _ in 0..40 {
            let _ = s.push_output_key(5);
        }
        s.seal_output(5);
        assert!(s.audit().is_empty());
        s.release(2);
        s.release(5);
        assert!(s.audit().is_empty(), "released slots retain no state");
    }

    #[test]
    fn audit_catches_retained_pending_output() {
        let mut s = sc();
        s.sabotage_retain_pending(7);
        let v = s.audit();
        assert!(
            v.iter().any(|v| v.kind == AuditKind::SlotState && v.message.contains("writeback")),
            "expected missed-writeback violation, got {v:?}"
        );
    }

    #[test]
    fn audit_catches_ghost_validity_on_unbound_slot() {
        let mut s = sc();
        s.bind(4, 0x2000, 100);
        s.refill_window(4, 0);
        s.sabotage_ghost_validity(4);
        let v = s.audit();
        assert!(
            v.iter().any(|v| v.kind == AuditKind::SlotState && v.message.contains("unbound")),
            "expected unbound-retains-state violation, got {v:?}"
        );
    }

    #[test]
    fn config_capacity_matches_paper() {
        let c = StreamCacheConfig::paper();
        assert_eq!(c.slot_bytes(), 256);
        assert_eq!(c.total_bytes(), 4096); // 4 KiB total, as in Section 4.3
    }

    #[test]
    fn bind_and_first_refill() {
        let mut s = sc();
        s.bind(3, 0x1000, 200);
        let fetch: Vec<_> = s.refill_window(3, 0).collect();
        // 64 keys x 4B = 256B = 4 lines.
        assert_eq!(fetch, vec![0x1000, 0x1040, 0x1080, 0x10c0]);
        assert!(s.key_resident(3, 0));
        assert!(s.key_resident(3, 63));
        assert!(!s.key_resident(3, 64));
        assert!(s.start_bit(3));
    }

    #[test]
    fn sliding_by_subslot_fetches_half() {
        let mut s = sc();
        s.bind(0, 0, 1000);
        s.refill_window(0, 0);
        // Slide so the window starts at key 32: keys 32..96. Keys 32..64 were
        // already resident, only 64..96 (2 lines) must be fetched.
        let fetch = s.refill_window(0, 32);
        assert_eq!(fetch.len(), 2);
        assert!(s.key_resident(0, 95));
        assert!(!s.key_resident(0, 31));
        assert!(!s.start_bit(0));
    }

    #[test]
    fn refill_is_idempotent_within_aligned_window() {
        let mut s = sc();
        s.bind(0, 0, 500);
        s.refill_window(0, 0);
        // Keys 0..31 are in the same sub-slot alignment: no new fetch.
        assert!(s.refill_window(0, 10).is_empty());
        assert!(s.refill_window(0, 31).is_empty());
        // Key 40 aligns the window at 32..96: prefetch of the next sub-slot.
        assert_eq!(s.refill_window(0, 40).len(), 2);
        // And is idempotent afterwards.
        assert!(s.refill_window(0, 40).is_empty());
        assert!(s.refill_window(0, 63).is_empty());
    }

    #[test]
    fn short_stream_partial_lines() {
        let mut s = sc();
        s.bind(1, 0x40, 10); // 10 keys = 40 bytes: a single line
        let fetch = s.refill_window(1, 0);
        assert_eq!(fetch.len(), 1);
        assert!(s.key_resident(1, 9));
        assert!(!s.key_resident(1, 10)); // out of range
    }

    #[test]
    fn out_of_range_refill_is_noop() {
        let mut s = sc();
        s.bind(0, 0, 5);
        s.refill_window(0, 0);
        assert!(s.refill_window(0, 5).is_empty());
    }

    #[test]
    fn output_writeback_in_line_groups() {
        let mut s = sc();
        s.bind_output(2, 0x2000);
        let mut writebacks = Vec::new();
        for _ in 0..40 {
            if let Some(a) = s.push_output_key(2) {
                writebacks.push(a);
            }
        }
        // 16 keys per 64B line -> writebacks after keys 16 and 32.
        assert_eq!(writebacks, vec![0x2000, 0x2040]);
        assert_eq!(s.produced_keys(2), 40);
    }

    #[test]
    fn long_output_clears_start_bit() {
        let mut s = sc();
        s.bind_output(0, 0);
        for _ in 0..65 {
            s.push_output_key(0);
        }
        assert!(!s.start_bit(0));
        s.seal_output(0);
        assert!(!s.start_bit(0));
    }

    #[test]
    fn short_output_sealed_keeps_start() {
        let mut s = sc();
        s.bind_output(0, 0);
        for _ in 0..20 {
            s.push_output_key(0);
        }
        s.seal_output(0);
        assert!(s.start_bit(0));
        assert!(s.key_resident(0, 19));
    }

    #[test]
    fn unaligned_refill_yields_both_subslot_runs_in_order() {
        // A base 8 bytes into a line: each 128 B sub-slot spans three
        // lines, and the lo run's last line is the hi run's first.
        let mut s = sc();
        s.bind(0, 0x1008, 200);
        let fetch = s.refill_window(0, 0);
        assert_eq!(fetch.len(), 6);
        assert_eq!(fetch.collect::<Vec<_>>(), vec![0x1000, 0x1040, 0x1080, 0x1080, 0x10c0, 0x1100]);
        // Sliding by one sub-slot fetches only the new hi run.
        let fetch: Vec<_> = s.refill_window(0, 32).collect();
        assert_eq!(fetch, vec![0x1100, 0x1140, 0x1180]);
    }

    #[test]
    fn bulk_output_push_matches_single_pushes() {
        for line_bytes in [64, 128] {
            for n in [0, 15, 16, 17, 64, 65, 200] {
                // Two rounds on one slot, so the second starts mid-line.
                let tracer = |s: &mut StreamCacheStorage| {
                    let probe = Probe::new(sc_probe::ProbeLevel::Trace);
                    s.set_probe(probe.clone());
                    probe
                };
                let (mut one, mut bulk) = (sc(), sc());
                let (p_one, p_bulk) = (tracer(&mut one), tracer(&mut bulk));
                for s in [&mut one, &mut bulk] {
                    s.set_line_bytes(line_bytes);
                    s.bind_output(2, 0x2010);
                }
                for round in [n, 7] {
                    let singles: Vec<_> =
                        (0..round).filter_map(|_| one.push_output_key(2)).collect();
                    let bulks: Vec<_> = bulk.push_output_keys(2, round).collect();
                    assert_eq!(bulks, singles, "line {line_bytes} n {n}");
                    let (a, b) = (&one.slots[2], &bulk.slots[2]);
                    assert_eq!(
                        (a.pending_out, a.produced, a.start),
                        (b.pending_out, b.produced, b.start),
                        "line {line_bytes} n {n}"
                    );
                    assert_eq!(one.stats(), bulk.stats(), "line {line_bytes} n {n}");
                }
                // One `output_writeback` instant per line, as before.
                let trace = p_bulk.trace_json(0);
                assert_eq!(trace, p_one.trace_json(0), "line {line_bytes} n {n}");
                if p_bulk.tracing() {
                    let instants = trace.matches("output_writeback").count() as u64;
                    assert_eq!(instants, bulk.stats().writebacks);
                }
            }
        }
    }

    #[test]
    fn release_reports_pending() {
        let mut s = sc();
        s.bind_output(0, 0);
        for _ in 0..18 {
            s.push_output_key(0); // one writeback at 16, 2 pending
        }
        assert_eq!(s.release(0), 2);
        assert!(!s.is_bound(0));
    }

    #[test]
    fn line_size_follows_the_hierarchy_config() {
        // 128-byte lines: a 64-key x 4 B window is 256 B = 2 lines (not
        // the 4 a hard-coded 64 B line would charge), and writebacks fire
        // every 32 keys.
        let mut s = sc();
        s.set_line_bytes(128);
        assert_eq!(s.line_bytes(), 128);
        s.bind(3, 0x1000, 200);
        let fetch: Vec<_> = s.refill_window(3, 0).collect();
        assert_eq!(fetch, vec![0x1000, 0x1080]);
        assert!(s.key_resident(3, 63));

        s.bind_output(2, 0x2000);
        let mut writebacks = Vec::new();
        for _ in 0..70 {
            if let Some(a) = s.push_output_key(2) {
                writebacks.push(a);
            }
        }
        // 32 keys per 128 B line -> writebacks after keys 32 and 64.
        assert_eq!(writebacks, vec![0x2000, 0x2080]);
        assert!(s.audit().is_empty());
    }

    #[test]
    fn audit_line_group_tracks_configured_line_size() {
        // With 128 B lines a slot may legally buffer up to 31 keys; the
        // 64 B threshold (16) must not fire.
        let mut s = sc();
        s.set_line_bytes(128);
        s.bind_output(0, 0);
        for _ in 0..20 {
            let wb = s.push_output_key(0);
            assert!(wb.is_none(), "no writeback below a full 128 B line");
        }
        assert!(s.audit().is_empty());
        // The sabotage hook trips the violation relative to the new size.
        s.sabotage_retain_pending(1);
        assert!(s.audit().iter().any(|v| v.message.contains("32")));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        sc().set_line_bytes(96);
    }

    #[test]
    fn rebind_overwrites() {
        let mut s = sc();
        s.bind(0, 0x1000, 100);
        s.refill_window(0, 0);
        s.bind(0, 0x9000, 50);
        assert!(!s.key_resident(0, 0)); // new binding not yet refilled
        assert_eq!(s.refill_window(0, 0).next(), Some(0x9000));
    }
}
