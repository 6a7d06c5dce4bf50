//! The fourteen stream instructions of the paper's Table 1.

use crate::operand::{Bound, GfrSet, Priority, StreamId, ValueOp};
use std::fmt;

/// One stream-ISA instruction.
///
/// The paper encodes operands in general-purpose registers; in this
/// reproduction the operand *values* appear directly in the variant fields
/// (the register-transfer plumbing is not the object of study — Section 3.3
/// of the paper itself notes the encoding details are orthogonal and can be
/// solved with shared registers).
///
/// Instructions fall into three categories:
/// initialization/free (`SRead`, `SVRead`, `SFree`, `SLdGfr`),
/// computation (`SInter`, `SInterC`, `SSub`, `SSubC`, `SMerge`, `SMergeC`,
/// `SVInter`, `SVMerge`, `SNestInter`) and
/// element access (`SFetch`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `S_READ` — initialize a key stream.
    SRead {
        /// Byte address of the first key.
        key_addr: u64,
        /// Stream length in keys.
        len: u32,
        /// Stream ID to (re)define.
        sid: StreamId,
        /// Scratchpad priority.
        priority: Priority,
    },
    /// `S_VREAD` — initialize a (key, value) stream. Values are *not*
    /// fetched eagerly; they flow through the normal hierarchy when a value
    /// computation executes.
    SVRead {
        /// Byte address of the first key.
        key_addr: u64,
        /// Stream length in elements.
        len: u32,
        /// Stream ID to (re)define.
        sid: StreamId,
        /// Byte address of the first value.
        val_addr: u64,
        /// Scratchpad priority.
        priority: Priority,
    },
    /// `S_FREE` — de-allocate a stream. Raises
    /// [`StreamException::FreeUnmapped`](crate::StreamException::FreeUnmapped)
    /// if the ID is not mapped.
    SFree {
        /// Stream ID to free.
        sid: StreamId,
    },
    /// `S_FETCH` — read the element at `offset` from a stream; yields
    /// [`EOS`](crate::EOS) past the end.
    SFetch {
        /// Stream to read.
        sid: StreamId,
        /// Element offset.
        offset: u32,
    },
    /// `S_INTER` — intersect two key streams into an output stream,
    /// optionally stopping early at an upper bound.
    SInter {
        /// First input.
        a: StreamId,
        /// Second input.
        b: StreamId,
        /// Output stream ID (defined by this instruction).
        out: StreamId,
        /// Early-termination bound.
        bound: Bound,
    },
    /// `S_INTER.C` — intersection returning only the element count.
    SInterC {
        /// First input.
        a: StreamId,
        /// Second input.
        b: StreamId,
        /// Early-termination bound.
        bound: Bound,
    },
    /// `S_SUB` — subtract stream `b` from stream `a` into an output stream.
    SSub {
        /// Minuend stream.
        a: StreamId,
        /// Subtrahend stream.
        b: StreamId,
        /// Output stream ID.
        out: StreamId,
        /// Early-termination bound.
        bound: Bound,
    },
    /// `S_SUB.C` — subtraction returning only the element count.
    SSubC {
        /// Minuend stream.
        a: StreamId,
        /// Subtrahend stream.
        b: StreamId,
        /// Early-termination bound.
        bound: Bound,
    },
    /// `S_MERGE` — merge (union) two key streams into an output stream.
    SMerge {
        /// First input.
        a: StreamId,
        /// Second input.
        b: StreamId,
        /// Output stream ID.
        out: StreamId,
    },
    /// `S_MERGE.C` — merge returning only the element count.
    SMergeC {
        /// First input.
        a: StreamId,
        /// Second input.
        b: StreamId,
    },
    /// `S_VINTER` — intersect the keys of two (key, value) streams and
    /// reduce the matching values with `op` (e.g. multiply-accumulate for a
    /// sparse dot product).
    SVInter {
        /// First input (must be a (key, value) stream).
        a: StreamId,
        /// Second input (must be a (key, value) stream).
        b: StreamId,
        /// Reduction applied to matched value pairs.
        op: ValueOp,
    },
    /// `S_VMERGE` — merge two (key, value) streams, scaling each input's
    /// values (`out[k] = scale_a * a[k] + scale_b * b[k]`).
    SVMerge {
        /// Scale applied to `a`'s values.
        scale_a: f64,
        /// Scale applied to `b`'s values.
        scale_b: f64,
        /// First input.
        a: StreamId,
        /// Second input.
        b: StreamId,
        /// Output stream ID.
        out: StreamId,
    },
    /// `S_LD_GFR` — load the three graph-format registers.
    SLdGfr {
        /// Register contents (CSR index/edge/offset base addresses).
        gfr: GfrSet,
    },
    /// `S_NESTINTER` — nested intersection: for every key `s_i` of the
    /// input stream `S`, intersect `S` with the edge list of `s_i` bounded
    /// by `s_i`, and accumulate the counts. Implements
    /// `sum_i |{x in S ∩ N(s_i) : x < s_i}|` using the GFRs to locate each
    /// dependent edge list.
    SNestInter {
        /// Input stream (an edge list).
        sid: StreamId,
    },
}

impl Instr {
    /// The assembly mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::SRead { .. } => "S_READ",
            Instr::SVRead { .. } => "S_VREAD",
            Instr::SFree { .. } => "S_FREE",
            Instr::SFetch { .. } => "S_FETCH",
            Instr::SInter { .. } => "S_INTER",
            Instr::SInterC { .. } => "S_INTER.C",
            Instr::SSub { .. } => "S_SUB",
            Instr::SSubC { .. } => "S_SUB.C",
            Instr::SMerge { .. } => "S_MERGE",
            Instr::SMergeC { .. } => "S_MERGE.C",
            Instr::SVInter { .. } => "S_VINTER",
            Instr::SVMerge { .. } => "S_VMERGE",
            Instr::SLdGfr { .. } => "S_LD_GFR",
            Instr::SNestInter { .. } => "S_NESTINTER",
        }
    }

    /// Does this instruction *define* a new stream mapping?
    pub fn defines_stream(&self) -> Option<StreamId> {
        match *self {
            Instr::SRead { sid, .. } | Instr::SVRead { sid, .. } => Some(sid),
            Instr::SInter { out, .. } | Instr::SSub { out, .. } | Instr::SMerge { out, .. } => {
                Some(out)
            }
            Instr::SVMerge { out, .. } => Some(out),
            _ => None,
        }
    }

    /// The streams this instruction reads.
    pub fn uses_streams(&self) -> Vec<StreamId> {
        match *self {
            Instr::SFree { sid } | Instr::SFetch { sid, .. } | Instr::SNestInter { sid } => {
                vec![sid]
            }
            Instr::SInter { a, b, .. }
            | Instr::SInterC { a, b, .. }
            | Instr::SSub { a, b, .. }
            | Instr::SSubC { a, b, .. }
            | Instr::SMerge { a, b, .. }
            | Instr::SMergeC { a, b }
            | Instr::SVInter { a, b, .. }
            | Instr::SVMerge { a, b, .. } => vec![a, b],
            Instr::SRead { .. } | Instr::SVRead { .. } | Instr::SLdGfr { .. } => Vec::new(),
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::SRead { key_addr, len, sid, priority } => {
                write!(f, "S_READ {key_addr:#x}, {len}, {sid}, {priority}")
            }
            Instr::SVRead { key_addr, len, sid, val_addr, priority } => {
                write!(f, "S_VREAD {key_addr:#x}, {len}, {sid}, {val_addr:#x}, {priority}")
            }
            Instr::SFree { sid } => write!(f, "S_FREE {sid}"),
            Instr::SFetch { sid, offset } => write!(f, "S_FETCH {sid}, {offset}"),
            Instr::SInter { a, b, out, bound } => {
                write!(f, "S_INTER {a}, {b}, {out}, {bound}")
            }
            Instr::SInterC { a, b, bound } => write!(f, "S_INTER.C {a}, {b}, {bound}"),
            Instr::SSub { a, b, out, bound } => write!(f, "S_SUB {a}, {b}, {out}, {bound}"),
            Instr::SSubC { a, b, bound } => write!(f, "S_SUB.C {a}, {b}, {bound}"),
            Instr::SMerge { a, b, out } => write!(f, "S_MERGE {a}, {b}, {out}"),
            Instr::SMergeC { a, b } => write!(f, "S_MERGE.C {a}, {b}"),
            Instr::SVInter { a, b, op } => write!(f, "S_VINTER {a}, {b}, {op}"),
            Instr::SVMerge { scale_a, scale_b, a, b, out } => {
                write!(f, "S_VMERGE {scale_a}, {scale_b}, {a}, {b}, {out}")
            }
            Instr::SLdGfr { gfr } => {
                write!(f, "S_LD_GFR {:#x}, {:#x}, {:#x}", gfr.gfr0, gfr.gfr1, gfr.gfr2)
            }
            Instr::SNestInter { sid } => write!(f, "S_NESTINTER {sid}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u32) -> StreamId {
        StreamId::new(n)
    }

    #[test]
    fn mnemonics_match_paper_table1() {
        let cases: Vec<(Instr, &str)> = vec![
            (Instr::SRead { key_addr: 0, len: 0, sid: sid(0), priority: Priority(0) }, "S_READ"),
            (
                Instr::SVRead {
                    key_addr: 0,
                    len: 0,
                    sid: sid(0),
                    val_addr: 0,
                    priority: Priority(0),
                },
                "S_VREAD",
            ),
            (Instr::SFree { sid: sid(0) }, "S_FREE"),
            (Instr::SFetch { sid: sid(0), offset: 0 }, "S_FETCH"),
            (Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::none() }, "S_INTER"),
            (Instr::SInterC { a: sid(0), b: sid(1), bound: Bound::none() }, "S_INTER.C"),
            (Instr::SSub { a: sid(0), b: sid(1), out: sid(2), bound: Bound::none() }, "S_SUB"),
            (Instr::SSubC { a: sid(0), b: sid(1), bound: Bound::none() }, "S_SUB.C"),
            (Instr::SMerge { a: sid(0), b: sid(1), out: sid(2) }, "S_MERGE"),
            (Instr::SMergeC { a: sid(0), b: sid(1) }, "S_MERGE.C"),
            (Instr::SVInter { a: sid(0), b: sid(1), op: ValueOp::Mac }, "S_VINTER"),
            (
                Instr::SVMerge { scale_a: 1.0, scale_b: 1.0, a: sid(0), b: sid(1), out: sid(2) },
                "S_VMERGE",
            ),
            (Instr::SLdGfr { gfr: GfrSet::default() }, "S_LD_GFR"),
            (Instr::SNestInter { sid: sid(0) }, "S_NESTINTER"),
        ];
        assert_eq!(cases.len(), 14, "Table 1 has 14 instructions");
        for (i, m) in &cases {
            assert_eq!(i.mnemonic(), *m);
        }
    }

    #[test]
    fn defines_and_uses() {
        let i = Instr::SInter { a: sid(3), b: sid(4), out: sid(5), bound: Bound::none() };
        assert_eq!(i.defines_stream(), Some(sid(5)));
        assert_eq!(i.uses_streams(), vec![sid(3), sid(4)]);
        let r = Instr::SRead { key_addr: 0, len: 1, sid: sid(9), priority: Priority(0) };
        assert_eq!(r.defines_stream(), Some(sid(9)));
        assert!(r.uses_streams().is_empty());
    }
}
