//! Graph pattern mining on SparseCore.
//!
//! This crate is the software side of the paper's GPM evaluation
//! (Sections 5.3 and 6.2–6.8): a compiler from *pattern specifications* to
//! *pattern-enumeration plans*, and executors that run those plans either
//! on the scalar CPU model (the `InHouseAutomine` baseline) or on the
//! SparseCore stream engine.
//!
//! * [`Pattern`] — a small connected graph with automorphism enumeration.
//! * [`symmetry`] — symmetry-breaking restriction generation from the
//!   automorphism group (the GraphZero-style stabilizer chain), so each
//!   embedding is enumerated exactly once.
//! * [`Plan`] — per-level set operations: which earlier vertices' neighbor
//!   lists to intersect, which to subtract (vertex-induced patterns), and
//!   which earlier vertex upper-bounds the level (bounded intersection,
//!   paper Figure 2(b)). [`Plan::compile`] is the "GPM compiler" of
//!   Section 5.3; [`Plan::emit_program`] prints the corresponding stream
//!   ISA for one loop body.
//! * [`exec`] — the generic plan executor over a [`SetBackend`]:
//!   [`ScalarBackend`] (the CPU baseline: merge loops with real
//!   data-dependent branches) and [`StreamBackend`] (stream instructions
//!   on the [`sparsecore::Engine`], with `S_NESTINTER` when the plan's two
//!   innermost levels form the nested-intersection shape).
//! * [`apps`] — Table 3's applications: triangle (T/TS), three-chain (TC),
//!   tailed-triangle (TT), 3-motif (TM), 4/5-clique (4C/4CS/5C/5CS), and
//!   FSM with MNI support ([`fsm`]).
//!
//! # Example
//!
//! ```
//! use sc_gpm::{apps, exec};
//! use sc_graph::CsrGraph;
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
//! let result = apps::App::Triangle.run_reference(&g);
//! assert_eq!(result, 1);
//! ```

pub mod apps;
pub mod exec;
pub mod fsm;
pub mod iep;
pub mod multicore;
pub mod pattern;
pub mod plan;
pub mod symmetry;

pub use apps::App;
pub use exec::{ScalarBackend, SetBackend, StreamBackend};
pub use multicore::{count_multicore, protect_graph, DEFAULT_CHUNK};
pub use pattern::Pattern;
pub use plan::Plan;
