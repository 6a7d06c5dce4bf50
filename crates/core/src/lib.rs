//! # SparseCore: stream ISA and processor specialization for sparse computation
//!
//! A Rust reproduction of the ASPLOS 2022 paper. SparseCore extends a
//! conventional out-of-order processor with a *stream ISA* — sparse vectors
//! become first-class architectural objects — and a set of
//! micro-architectural components that execute it:
//!
//! * a **Stream Mapping Table** ([`smt::Smt`]) mapping software stream IDs
//!   onto 16 physical stream registers, with define/active bits and
//!   dependency tracking;
//! * **Stream Units** ([`su`]) that execute intersection, subtraction and
//!   merge with a 16-wide *parallel comparison* datapath (paper Figure 6);
//! * a **Stream Value Processing Unit** per SU for the value side of
//!   `S_VINTER`/`S_VMERGE` (sparse dot products and scaled merges);
//! * a **Stream Cache** holding the keys of active streams in
//!   double-buffered 256-byte slots fed from L2, plus a priority-managed
//!   **scratchpad** for reused streams;
//! * a **Nested Intersection Translator** implementing `S_NESTINTER` — the
//!   GPM-specialized instruction that turns a whole inner loop of
//!   dependent intersections into one instruction.
//!
//! The central type is [`Engine`]: a *functional-first, timing-attached*
//! simulator. Every stream instruction executes functionally (producing
//! real intersection results, counts and dot products) while the timing
//! models charge cycles for exactly the work performed — the same modeling
//! level as the zSim evaluation in the paper.
//!
//! # Quick start
//!
//! ```
//! use sparsecore::{Engine, SparseCoreConfig};
//! use sc_isa::{Bound, Priority, StreamId};
//!
//! let mut e = Engine::new(SparseCoreConfig::paper());
//! let (a, b) = (StreamId::new(0), StreamId::new(1));
//! e.s_read(0x1000, &[1, 3, 5, 7, 9], a, Priority(0))?;
//! e.s_read(0x2000, &[3, 4, 5, 6, 7], b, Priority(0))?;
//! let n = e.s_inter_c(a, b, sc_isa::Bound::none())?;
//! assert_eq!(n, 3); // {3, 5, 7}
//! e.s_free(a)?;
//! e.s_free(b)?;
//! let cycles = e.finish();
//! assert!(cycles > 0);
//! # let _ = Bound::none();
//! # Ok::<(), sc_isa::StreamException>(())
//! ```

pub mod config;
pub mod engine;
pub mod interp;
pub mod sanitize;
pub mod sched;
pub mod setops;
pub mod smt;
pub mod stats;
pub mod su;

pub use config::{default_sanitize, SparseCoreConfig};
pub use engine::{Checkpoint, Engine, NestedSource, SliceNestedSource};
pub use interp::{InterpError, Interpreter, MemImage, ScalarResult};
pub use sanitize::audit_code;
pub use sched::{
    chunks, collect_cores, run_partition, Chunk, ChunkRecord, ChunkSchedule, Items, MultiCoreRun,
    Partition, SchedMode,
};
pub use stats::{EngineStats, LengthHistogram};

/// Cycle type, shared with the substrate crates.
pub type Cycle = sc_mem::Cycle;
