//! Memory-hierarchy substrate for the SparseCore reproduction.
//!
//! The SparseCore paper (ASPLOS 2022) evaluates its stream-ISA processor
//! extension on zSim, a micro-architectural simulator with a conventional
//! multi-level cache hierarchy. This crate rebuilds that substrate:
//!
//! * [`Cache`] — a set-associative, LRU cache with per-access statistics.
//! * [`MemoryHierarchy`] — the L1/L2/L3/DRAM stack of the paper's Table 2,
//!   returning a latency and hit level for every (real) address accessed.
//! * [`Scratchpad`] — the stream-reuse scratchpad attached to the Stream
//!   Units (Section 4.2 of the paper).
//! * [`StreamCacheStorage`] — the S-Cache slot storage (Section 4.3): 16
//!   slots of 256 bytes, each split into two sub-slots for double buffering.
//!
//! The crate models *timing and content tracking*, not data values: callers
//! pass real byte addresses, and the model tracks presence, recency and
//! latency. Data values flow through the functional layer of the simulator
//! (see the `sparsecore` crate), which is what keeps the reproduction
//! honest — every latency charged here corresponds to an access the real
//! workload performed.
//!
//! # Example
//!
//! ```
//! use sc_mem::{HierarchyConfig, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::paper());
//! let first = mem.load(0x1000);   // cold: misses all the way to DRAM
//! let second = mem.load(0x1000);  // hot: L1 hit
//! assert!(first.latency > second.latency);
//! ```

pub mod audit;
pub mod cache;
pub mod hierarchy;
pub mod scache;
pub mod scratchpad;
pub mod stats;

pub use audit::{AuditKind, AuditViolation};
pub use cache::{Cache, CacheConfig};
pub use hierarchy::{AccessResult, HierarchyConfig, HitLevel, MemoryHierarchy};
pub use scache::{LineRuns, SlotId, StreamCacheConfig, StreamCacheStorage, SubSlot};
pub use scratchpad::{Scratchpad, ScratchpadConfig};
pub use stats::{CacheStats, HierarchyStats};

/// A byte address in the simulated address space.
pub type Addr = u64;

/// A latency or timestamp measured in core clock cycles.
pub type Cycle = u64;
