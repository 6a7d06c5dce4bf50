//! Program representation: an ordered list of stream instructions.

use crate::dataflow;
use crate::instr::Instr;
use crate::operand::StreamId;
use std::fmt;

/// A straight-line stream-ISA program.
///
/// Real SparseCore code interleaves stream instructions with ordinary scalar
/// code; for the purposes of this crate a `Program` captures only the stream
/// instructions (the simulator's scalar side is driven separately). The GPM
/// compiler and tensor kernel generators emit `Program`s for inspection and
/// testing, and the `sparsecore` engine can execute them directly.
///
/// # Example
///
/// ```
/// use sc_isa::{Instr, Program, StreamId};
///
/// let mut p = Program::new();
/// p.push(Instr::SRead { key_addr: 0, len: 8, sid: StreamId::new(0), priority: 0.into() });
/// p.push(Instr::SFree { sid: StreamId::new(0) });
/// assert_eq!(p.len(), 2);
/// assert!(p.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
}

/// A static-validation problem found by [`Program::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationError {
    /// An instruction at `at` uses a stream that no prior instruction
    /// defines (or that was freed).
    UndefinedUse {
        /// Instruction index.
        at: usize,
        /// The offending stream.
        sid: StreamId,
    },
    /// `S_FREE` at `at` frees a stream that is not live.
    DoubleFree {
        /// Instruction index.
        at: usize,
        /// The offending stream.
        sid: StreamId,
    },
    /// A stream is still live at the end of the program. The paper's
    /// compiler frees streams eagerly; leaks indicate a codegen bug.
    Leak {
        /// The leaked stream.
        sid: StreamId,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UndefinedUse { at, sid } => {
                write!(f, "instruction {at} uses undefined stream {sid}")
            }
            ValidationError::DoubleFree { at, sid } => {
                write!(f, "instruction {at} frees dead stream {sid}")
            }
            ValidationError::Leak { sid } => write!(f, "stream {sid} never freed"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Append an instruction.
    pub fn push(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    /// The instructions in order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Discard instructions past `len`, keeping the first `len`. Used by
    /// the engine to squash speculatively-recorded trace entries on a
    /// checkpoint rollback. A `len` at or past the end is a no-op.
    pub fn truncate(&mut self, len: usize) {
        self.instrs.truncate(len);
    }

    /// Iterate over instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }

    /// The maximum number of streams simultaneously live at any point —
    /// the stream-register pressure the compiler must keep under the
    /// hardware's 16 (paper Section 5.3 falls back to scalar code when
    /// exceeded).
    pub fn max_live_streams(&self) -> usize {
        dataflow::analyze(self).peak_occupancy()
    }

    /// Statically validate define-before-use and free discipline.
    ///
    /// This is a thin wrapper over [`dataflow::analyze`], which is the
    /// single source of truth for liveness rules (and the walk every
    /// static analyzer reports over). Redefinition of a live stream is
    /// allowed here — the SMT overwrites the mapping in place — but the
    /// linter reports it as a warning.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] found, scanning in order:
    /// uses of undefined streams, frees of dead streams, then leaks.
    pub fn validate(&self) -> Result<(), ValidationError> {
        for fault in dataflow::analyze(self).faults {
            return Err(match fault {
                dataflow::Fault::UndefinedUse { at, sid, .. } => {
                    ValidationError::UndefinedUse { at, sid }
                }
                dataflow::Fault::FreeUnmapped { at, sid, .. } => {
                    ValidationError::DoubleFree { at, sid }
                }
                dataflow::Fault::Leak { sid, .. } => ValidationError::Leak { sid },
                // Allowed by the ISA: not an error at this layer.
                dataflow::Fault::RedefinedLive { .. } => continue,
            });
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in &self.instrs {
            writeln!(f, "{i}")?;
        }
        Ok(())
    }
}

impl FromIterator<Instr> for Program {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        Program { instrs: iter.into_iter().collect() }
    }
}

impl Extend<Instr> for Program {
    fn extend<T: IntoIterator<Item = Instr>>(&mut self, iter: T) {
        self.instrs.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instr;
    type IntoIter = std::slice::Iter<'a, Instr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

impl IntoIterator for Program {
    type Item = Instr;
    type IntoIter = std::vec::IntoIter<Instr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.into_iter()
    }
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

    #[test]
    fn valid_triangle_snippet() {
        // The Figure 3(b) shape: two reads, one bounded intersection, frees.
        let p: Program = vec![
            read(0),
            read(1),
            Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::below(5) },
            Instr::SFree { sid: sid(0) },
            Instr::SFree { sid: sid(1) },
            Instr::SFree { sid: sid(2) },
        ]
        .into_iter()
        .collect();
        assert!(p.validate().is_ok());
        assert_eq!(p.max_live_streams(), 3);
    }

    #[test]
    fn undefined_use_detected() {
        let p: Program = vec![Instr::SInterC { a: sid(0), b: sid(1), bound: Bound::none() }]
            .into_iter()
            .collect();
        assert_eq!(p.validate(), Err(ValidationError::UndefinedUse { at: 0, sid: sid(0) }));
    }

    #[test]
    fn double_free_detected() {
        let p: Program = vec![read(0), Instr::SFree { sid: sid(0) }, Instr::SFree { sid: sid(0) }]
            .into_iter()
            .collect();
        assert_eq!(p.validate(), Err(ValidationError::DoubleFree { at: 2, sid: sid(0) }));
    }

    #[test]
    fn leak_detected() {
        let p: Program = vec![read(0)].into_iter().collect();
        assert_eq!(p.validate(), Err(ValidationError::Leak { sid: sid(0) }));
    }

    #[test]
    fn redefinition_is_allowed() {
        // Same stream ID in two "iterations" — the ISA maps them to
        // different stream registers.
        let p: Program =
            vec![read(0), Instr::SFree { sid: sid(0) }, read(0), Instr::SFree { sid: sid(0) }]
                .into_iter()
                .collect();
        assert!(p.validate().is_ok());
        assert_eq!(p.max_live_streams(), 1);
    }

    #[test]
    fn live_redefinition_is_allowed_too() {
        let p: Program = vec![read(0), read(0), Instr::SFree { sid: sid(0) }].into_iter().collect();
        assert!(p.validate().is_ok());
    }

    #[test]
    fn display_roundtrips_mnemonics() {
        let p: Program = vec![read(3), Instr::SFree { sid: sid(3) }].into_iter().collect();
        let text = p.to_string();
        assert!(text.contains("S_READ"));
        assert!(text.contains("S_FREE s3"));
    }

    #[test]
    fn max_live_counts_peak_not_end() {
        let p: Program = vec![
            read(0),
            read(1),
            read(2),
            Instr::SFree { sid: sid(0) },
            Instr::SFree { sid: sid(1) },
            Instr::SFree { sid: sid(2) },
        ]
        .into_iter()
        .collect();
        assert_eq!(p.max_live_streams(), 3);
    }
}
