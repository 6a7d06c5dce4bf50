//! The SparseCore stream instruction-set extension.
//!
//! SparseCore (ASPLOS 2022) extends a conventional ISA so that *streams* —
//! sparse vectors represented either as a sorted list of keys or as a sorted
//! list of (key, value) pairs — become first-class architectural objects.
//! This crate defines:
//!
//! * [`Instr`] — the fourteen instructions of the paper's Table 1
//!   (`S_READ`, `S_VREAD`, `S_FREE`, `S_FETCH`, `S_SUB`[`.C`],
//!   `S_INTER`[`.C`], `S_VINTER`, `S_MERGE`[`.C`], `S_VMERGE`,
//!   `S_LD_GFR`, `S_NESTINTER`).
//! * [`StreamId`], [`Priority`], [`Bound`], [`ValueOp`] — the operand model.
//! * [`Program`] — a sequence of instructions plus an assembler
//!   ([`parse_program`]) and disassembler (`Display`) for a simple textual
//!   form used by tests, examples and the GPM compiler output.
//! * [`StreamException`] — the architectural exceptions the paper defines
//!   (freeing an unmapped stream, value computation on a key-only stream,
//!   scalar access to S-Cache data).
//!
//! Execution semantics (functional and timing) live in the `sparsecore`
//! crate; this crate is the pure ISA surface shared by the compiler
//! (`sc-gpm`), kernel generators (`sc-kernels`) and the engine.
//!
//! # Example
//!
//! ```
//! use sc_isa::{Bound, Instr, Program, StreamId};
//!
//! let mut p = Program::new();
//! let a = StreamId::new(0);
//! let b = StreamId::new(1);
//! let out = StreamId::new(2);
//! p.push(Instr::SRead { key_addr: 0x1000, len: 64, sid: a, priority: 0.into() });
//! p.push(Instr::SRead { key_addr: 0x2000, len: 32, sid: b, priority: 0.into() });
//! p.push(Instr::SInter { a, b, out, bound: Bound::none() });
//! p.push(Instr::SFree { sid: a });
//! p.push(Instr::SFree { sid: b });
//! let text = p.to_string();
//! let back = sc_isa::parse_program(&text)?;
//! assert_eq!(p, back);
//! # Ok::<(), sc_isa::ParseError>(())
//! ```

pub mod asm;
pub mod dataflow;
pub mod encoding;
pub mod exception;
pub mod instr;
pub mod interval;
pub mod operand;
pub mod program;

pub use asm::{parse_program, ParseError};
pub use encoding::{decode, decode_program, encode, encode_program, DecodeError, Encoded};
pub use exception::StreamException;
pub use instr::Instr;
pub use interval::Interval;
pub use operand::{Bound, GfrSet, Key, Priority, StreamId, Value, ValueOp, EOS};
pub use program::Program;
