//! Facade crate for the SparseCore reproduction workspace.
//!
//! Re-exports every sub-crate so the examples and integration tests can
//! reach the whole system through one dependency. The real library
//! surface lives in the member crates:
//!
//! * [`sparsecore`] — the stream-ISA engine (the paper's contribution);
//! * [`sc_isa`] — the instruction set;
//! * [`sc_mem`] / [`sc_cpu`] — the memory-hierarchy and core substrates;
//! * [`sc_graph`] / [`sc_tensor`] — datasets and generators;
//! * [`sc_gpm`] / [`sc_kernels`] — the GPM compiler and tensor kernels;
//! * [`sc_accel`] — the baseline accelerator models.
//!
//! [`analyzer`] is the command-line front end of the `sc-lint`,
//! `sc-verify` and `sc-cost` binaries in `src/bin/`.

pub mod analyzer;

pub use sc_accel;
pub use sc_cpu;
pub use sc_gpm;
pub use sc_graph;
pub use sc_isa;
pub use sc_kernels;
pub use sc_mem;
pub use sc_tensor;
pub use sparsecore;
