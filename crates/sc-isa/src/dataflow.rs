//! The one forward walk over a straight-line stream program.
//!
//! This module is the single abstract interpretation of the stream ISA
//! in the workspace. One pass tracks, per stream ID, the facts paper
//! Section 3.3 gives a stream register: its lifetime (the SMT define
//! bit: live, freed, or never defined), its kind (key-only, or
//! key-value from `S_VREAD`/`S_VMERGE`) and its length interval, plus
//! the source bytes a read pins and the scratchpad bytes a priority read
//! holds. [`Program::validate`] and [`Program::max_live_streams`] wrap
//! it, and `sc-lint`, `sc-verify` and `sc-cost` are reports over its
//! [`DataflowResult`], so none of them can disagree about liveness,
//! kinds or lengths.
//!
//! Nothing here depends on a hardware configuration: register capacity,
//! protected ranges and cost parameters belong to the reports.
//!
//! Length intervals follow the set semantics: `|a ∩ b| <= min(|a|,
//! |b|)`, `|a \ b| <= |a|`, and `max(|a|, |b|) <= |a ∪ b| <= |a| + |b|`.
//! An operand that is not live has the length domain's ⊤. Every bound
//! saturates instead of overflowing.

use crate::instr::Instr;
use crate::interval::Interval;
use crate::operand::StreamId;
use crate::program::Program;
use std::collections::BTreeMap;

/// One liveness-discipline violation found by [`analyze`].
///
/// Faults are reported in program order (for a single instruction: uses
/// before defines), with end-of-program leaks last, in the order the
/// leaked streams became live. Unlike [`Program::validate`], the walk
/// does not stop at the first fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Instruction `at` uses stream `sid`, which is not live there.
    UndefinedUse {
        /// Instruction index.
        at: usize,
        /// The offending stream.
        sid: StreamId,
        /// The stream was defined and then freed (a use-after-free),
        /// rather than never defined.
        freed: bool,
    },
    /// `S_FREE` at `at` frees stream `sid`, which is not live there.
    FreeUnmapped {
        /// Instruction index.
        at: usize,
        /// The offending stream.
        sid: StreamId,
        /// The stream was already freed (a double free), rather than
        /// never defined.
        freed: bool,
    },
    /// Instruction `at` defines stream `sid` while a previous definition
    /// is still live. The ISA allows this (the SMT overwrites the
    /// mapping in place), but it usually means a missing `S_FREE`.
    RedefinedLive {
        /// Instruction index.
        at: usize,
        /// The redefined stream.
        sid: StreamId,
    },
    /// Stream `sid`, defined at `defined_at`, is still live when the
    /// program ends.
    Leak {
        /// The leaked stream.
        sid: StreamId,
        /// Index of the definition still live at the end.
        defined_at: usize,
    },
}

impl Fault {
    /// The instruction the fault occurs at; `None` for a leak.
    pub fn at(&self) -> Option<usize> {
        match *self {
            Fault::UndefinedUse { at, .. }
            | Fault::FreeUnmapped { at, .. }
            | Fault::RedefinedLive { at, .. } => Some(at),
            Fault::Leak { .. } => None,
        }
    }
}

/// The state of one stream operand as its instruction issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The instruction has no stream operand in this slot.
    Absent,
    /// The stream was never defined before this instruction.
    Undefined,
    /// The stream's last definition was freed.
    Freed,
    /// The stream is live.
    Live {
        /// Index of its live definition.
        def: usize,
        /// The definition carries values (`S_VREAD`/`S_VMERGE`).
        values: bool,
    },
}

/// What the walk knows at one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Streams live once the instruction retires.
    pub live: usize,
    /// The instruction is an `S_FREE` of a live stream.
    pub released: bool,
    /// Each stream operand, in [`Instr::uses_streams`] order.
    pub operands: [Operand; 2],
    /// Length interval of the stream the instruction defines; empty
    /// when it defines none.
    pub out: Interval,
}

impl Step {
    /// Streams occupying a register while the instruction executes: the
    /// live count, plus the operand of an `S_FREE`, whose register stays
    /// occupied until the free retires.
    pub fn occupancy(&self) -> usize {
        self.live + usize::from(self.released)
    }
}

/// Two live streams pin overlapping source bytes: a read at `at`
/// defines `sid` over bytes that live stream `other` already pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overlap {
    /// Index of the later read.
    pub at: usize,
    /// The stream that read defines.
    pub sid: StreamId,
    /// The live stream whose range it overlaps.
    pub other: StreamId,
    /// First shared byte.
    pub lo: u64,
    /// One past the last shared byte.
    pub hi: u64,
}

/// Result of one [`analyze`] walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowResult {
    /// All liveness faults, in the order described on [`Fault`].
    pub faults: Vec<Fault>,
    /// One entry per instruction.
    pub steps: Vec<Step>,
    /// Source-range overlaps between live reads, in program order; at
    /// one read, in the order the other streams were read.
    pub overlaps: Vec<Overlap>,
    /// Every stream ID the program defines, ascending, with the index of
    /// its last definition.
    pub last_defs: Vec<(StreamId, usize)>,
    /// Hull of every defined stream's length interval, widened to ⊤ at
    /// an `S_NESTINTER`, whose nested lists have data-dependent lengths.
    pub length_hull: Interval,
    /// Peak bytes the priority reads hold in the scratchpad.
    pub scratch_peak: u64,
}

impl DataflowResult {
    /// Peak [`Step::occupancy`]: the stream-register pressure.
    pub fn peak_occupancy(&self) -> usize {
        self.steps.iter().map(Step::occupancy).max().unwrap_or(0)
    }

    /// Peak [`Step::live`].
    pub fn peak_live(&self) -> usize {
        self.steps.iter().map(|s| s.live).max().unwrap_or(0)
    }

    /// Length interval of an operand: its live definition's, or ⊤.
    pub fn len_of(&self, op: Operand) -> Interval {
        match op {
            Operand::Live { def, .. } => self.steps[def].out,
            _ => Interval::len_top(),
        }
    }
}

/// Key bytes per element (4-byte keys, paper Section 3.1).
const KEY_BYTES: u64 = 4;
/// Value bytes per element (f64 values).
const VAL_BYTES: u64 = 8;

/// Walk-time state of one stream ID.
#[derive(Default)]
struct Stream {
    live: bool,
    /// Index of the last definition.
    def: usize,
    /// Index at which the stream last became live (leak order).
    since: usize,
    values: bool,
    /// Scratchpad bytes held while live.
    scratch: u64,
}

/// The byte ranges a live read pins: keys, plus values for `S_VREAD`.
struct Pin {
    sid: StreamId,
    ranges: Vec<(u64, u64)>,
}

/// `[addr, addr + len * width)`, saturating at the top of the address
/// space.
fn span(addr: u64, len: u32, width: u64) -> (u64, u64) {
    (addr, addr.saturating_add(u64::from(len) * width))
}

/// Walk `program` once.
pub fn analyze(program: &Program) -> DataflowResult {
    let mut streams: BTreeMap<StreamId, Stream> = BTreeMap::new();
    let mut pins: Vec<Pin> = Vec::new();
    let mut live = 0usize;
    let mut scratch = 0u64;
    let mut r = DataflowResult {
        faults: Vec::new(),
        steps: Vec::with_capacity(program.len()),
        overlaps: Vec::new(),
        last_defs: Vec::new(),
        length_hull: Interval::empty(),
        scratch_peak: 0,
    };

    for (at, instr) in program.iter().enumerate() {
        let mut step = Step {
            live: 0,
            released: false,
            operands: [Operand::Absent; 2],
            out: Interval::empty(),
        };
        for (slot, sid) in instr.uses_streams().into_iter().enumerate() {
            let op = match streams.get(&sid) {
                None => Operand::Undefined,
                Some(s) if !s.live => Operand::Freed,
                Some(s) => Operand::Live { def: s.def, values: s.values },
            };
            step.operands[slot] = op;
            let freed = op == Operand::Freed;
            match (instr, op) {
                (_, Operand::Live { .. }) => {}
                (Instr::SFree { .. }, _) => r.faults.push(Fault::FreeUnmapped { at, sid, freed }),
                _ => r.faults.push(Fault::UndefinedUse { at, sid, freed }),
            }
        }

        let (la, lb) = (r.len_of(step.operands[0]), r.len_of(step.operands[1]));
        step.out = match *instr {
            Instr::SRead { len, .. } | Instr::SVRead { len, .. } => Interval::exact(u64::from(len)),
            Instr::SInter { .. } => Interval::new(0, la.hi.min(lb.hi).max(1)),
            Instr::SSub { .. } => Interval::new(0, la.hi.max(1)),
            Instr::SMerge { .. } | Instr::SVMerge { .. } => {
                Interval::new(la.lo.max(lb.lo), la.add(&lb).hi.max(1))
            }
            _ => Interval::empty(),
        };

        match *instr {
            Instr::SFree { sid } => {
                if let Some(s) = streams.get_mut(&sid).filter(|s| s.live) {
                    s.live = false;
                    live -= 1;
                    scratch = scratch.saturating_sub(s.scratch);
                    step.released = true;
                }
                pins.retain(|p| p.sid != sid);
            }
            Instr::SNestInter { .. } => r.length_hull = Interval::len_top(),
            _ => {}
        }

        if let Some(sid) = instr.defines_stream() {
            r.length_hull = r.length_hull.hull(&step.out);
            let values = matches!(instr, Instr::SVRead { .. } | Instr::SVMerge { .. });
            let held = match *instr {
                Instr::SRead { len, priority, .. } | Instr::SVRead { len, priority, .. }
                    if priority.0 > 0 =>
                {
                    u64::from(len) * KEY_BYTES
                }
                _ => 0,
            };
            let s = streams.entry(sid).or_default();
            if s.live {
                r.faults.push(Fault::RedefinedLive { at, sid });
                scratch = scratch.saturating_sub(s.scratch);
            } else {
                live += 1;
                s.live = true;
                s.since = at;
            }
            (s.def, s.values, s.scratch) = (at, values, held);
            scratch = scratch.saturating_add(held);

            // A redefinition releases the old pin; a read pins anew.
            pins.retain(|p| p.sid != sid);
            let ranges = match *instr {
                Instr::SRead { key_addr, len, .. } => vec![span(key_addr, len, KEY_BYTES)],
                Instr::SVRead { key_addr, len, val_addr, .. } => {
                    vec![span(key_addr, len, KEY_BYTES), span(val_addr, len, VAL_BYTES)]
                }
                _ => Vec::new(),
            };
            if !ranges.is_empty() {
                for p in &pins {
                    for &(ps, pe) in &p.ranges {
                        for &(ns, ne) in &ranges {
                            let (lo, hi) = (ps.max(ns), pe.min(ne));
                            if lo < hi {
                                r.overlaps.push(Overlap { at, sid, other: p.sid, lo, hi });
                            }
                        }
                    }
                }
                pins.push(Pin { sid, ranges });
            }
        }

        r.scratch_peak = r.scratch_peak.max(scratch);
        step.live = live;
        r.steps.push(step);
    }

    let mut leaks: Vec<(&StreamId, &Stream)> = streams.iter().filter(|(_, s)| s.live).collect();
    leaks.sort_by_key(|(_, s)| s.since);
    r.faults.extend(leaks.iter().map(|(&sid, s)| Fault::Leak { sid, defined_at: s.def }));
    r.last_defs = streams.iter().map(|(&sid, s)| (sid, s.def)).collect();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::{Bound, Priority};

    fn sid(n: u32) -> StreamId {
        StreamId::new(n)
    }

    fn read(n: u32) -> Instr {
        Instr::SRead { key_addr: 0x1000 * n as u64, len: 16, sid: sid(n), priority: Priority(0) }
    }

    fn occupancy(r: &DataflowResult) -> Vec<usize> {
        r.steps.iter().map(Step::occupancy).collect()
    }

    #[test]
    fn clean_program_has_no_faults() {
        let p: Program = vec![
            read(0),
            read(1),
            Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::none() },
            Instr::SFree { sid: sid(0) },
            Instr::SFree { sid: sid(1) },
            Instr::SFree { sid: sid(2) },
        ]
        .into_iter()
        .collect();
        let r = analyze(&p);
        assert!(r.faults.is_empty());
        assert_eq!(occupancy(&r), vec![1, 2, 3, 3, 2, 1]);
        assert_eq!(r.steps.iter().map(|s| s.live).collect::<Vec<_>>(), vec![1, 2, 3, 2, 1, 0]);
        assert_eq!(r.peak_occupancy(), 3);
        assert_eq!(r.steps[2].operands[1], Operand::Live { def: 1, values: false });
        assert_eq!(r.steps[2].out, Interval::new(0, 17), "|a ∩ b| <= min(|a|, |b|)");
    }

    #[test]
    fn collects_multiple_faults_in_order() {
        // Use of two undefined streams, then a free of a dead stream.
        let p: Program = vec![
            Instr::SInterC { a: sid(0), b: sid(1), bound: Bound::none() },
            Instr::SFree { sid: sid(9) },
        ]
        .into_iter()
        .collect();
        let r = analyze(&p);
        assert_eq!(
            r.faults,
            vec![
                Fault::UndefinedUse { at: 0, sid: sid(0), freed: false },
                Fault::UndefinedUse { at: 0, sid: sid(1), freed: false },
                Fault::FreeUnmapped { at: 1, sid: sid(9), freed: false },
            ]
        );
    }

    #[test]
    fn freed_streams_are_told_apart_from_undefined_ones() {
        let p: Program = vec![
            read(0),
            Instr::SFree { sid: sid(0) },
            Instr::SFetch { sid: sid(0), offset: 0 },
            Instr::SFree { sid: sid(0) },
        ]
        .into_iter()
        .collect();
        let r = analyze(&p);
        assert_eq!(
            r.faults,
            vec![
                Fault::UndefinedUse { at: 2, sid: sid(0), freed: true },
                Fault::FreeUnmapped { at: 3, sid: sid(0), freed: true },
            ]
        );
        assert_eq!(r.steps[2].operands[0], Operand::Freed);
    }

    #[test]
    fn live_redefinition_is_a_fault_but_not_fatal() {
        let p: Program = vec![read(0), read(0), Instr::SFree { sid: sid(0) }].into_iter().collect();
        let r = analyze(&p);
        assert_eq!(r.faults, vec![Fault::RedefinedLive { at: 1, sid: sid(0) }]);
        // One register, overwritten in place.
        assert_eq!(r.peak_occupancy(), 1);
    }

    #[test]
    fn leaks_report_in_the_order_streams_became_live() {
        // s0 is freed and read again after s5, so it leaks second.
        let p: Program = vec![read(2), read(0), read(5), Instr::SFree { sid: sid(0) }, read(0)]
            .into_iter()
            .collect();
        let r = analyze(&p);
        assert_eq!(
            r.faults,
            vec![
                Fault::Leak { sid: sid(2), defined_at: 0 },
                Fault::Leak { sid: sid(5), defined_at: 2 },
                Fault::Leak { sid: sid(0), defined_at: 4 },
            ]
        );
        assert_eq!(r.last_defs, vec![(sid(0), 4), (sid(2), 0), (sid(5), 2)]);
    }

    #[test]
    fn free_counts_register_as_still_occupied() {
        let p: Program = vec![read(0), Instr::SFree { sid: sid(0) }].into_iter().collect();
        let r = analyze(&p);
        assert_eq!(occupancy(&r), vec![1, 1]);
        assert_eq!(r.peak_live(), 1);
        assert_eq!(r.steps[1].live, 0);
    }

    #[test]
    fn merge_lengths_keep_both_bounds() {
        let p: Program = vec![
            Instr::SRead { key_addr: 0, len: 10, sid: sid(0), priority: Priority(0) },
            Instr::SRead { key_addr: 0x100, len: 30, sid: sid(1), priority: Priority(0) },
            Instr::SMerge { a: sid(0), b: sid(1), out: sid(2) },
            Instr::SSub { a: sid(2), b: sid(0), out: sid(3), bound: Bound::none() },
            Instr::SNestInter { sid: sid(9) },
        ]
        .into_iter()
        .collect();
        let r = analyze(&p);
        assert_eq!(r.steps[2].out, Interval::new(30, 41), "max(|a|, |b|) <= |a ∪ b| <= |a| + |b|");
        assert_eq!(r.steps[3].out, Interval::new(0, 41));
        assert_eq!(r.length_hull, Interval::len_top(), "S_NESTINTER widens the hull");
    }

    #[test]
    fn overlapping_live_reads_are_recorded_with_the_shared_bytes() {
        let p: Program = vec![
            Instr::SRead { key_addr: 0x1000, len: 16, sid: sid(0), priority: Priority(0) },
            Instr::SVRead {
                key_addr: 0x5000,
                len: 16,
                sid: sid(1),
                val_addr: 0x1020,
                priority: Priority(2),
            },
            Instr::SFree { sid: sid(0) },
            Instr::SRead { key_addr: 0x1000, len: 4, sid: sid(2), priority: Priority(0) },
        ]
        .into_iter()
        .collect();
        let r = analyze(&p);
        assert_eq!(
            r.overlaps,
            vec![Overlap { at: 1, sid: sid(1), other: sid(0), lo: 0x1020, hi: 0x1040 }],
            "the freed s0 no longer pins its range"
        );
        assert_eq!(r.scratch_peak, 64, "16 priority keys of 4 bytes");
    }

    #[test]
    fn ranges_at_the_top_of_the_address_space_saturate() {
        let p: Program = vec![
            Instr::SRead { key_addr: u64::MAX - 15, len: 16, sid: sid(0), priority: Priority(0) },
            Instr::SRead { key_addr: u64::MAX - 3, len: 16, sid: sid(1), priority: Priority(0) },
        ]
        .into_iter()
        .collect();
        let r = analyze(&p);
        assert_eq!(r.overlaps[0].lo, u64::MAX - 3);
        assert_eq!(r.overlaps[0].hi, u64::MAX);
    }
}
