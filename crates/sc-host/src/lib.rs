//! Host-side observability for the simulator *process* itself.
//!
//! The probe/span/explain stack (PRs 3, 4, 8) makes the *simulated*
//! machine observable; this crate does the same for the host that runs
//! the simulation. It is deliberately a leaf crate — no dependencies,
//! not even on `sc-probe` — so any layer of the workspace can use it
//! without cycles.
//!
//! Four small facilities:
//!
//! * [`phase`] — monotonic, switch-based **phase timers**. A bench run
//!   is always in exactly one phase (generate / emit / verify /
//!   simulate / record / other), so the per-phase walls sum exactly to
//!   the measured window by construction.
//! * [`alloc`] — a counting [`core::alloc::GlobalAlloc`] wrapper
//!   (allocation count, bytes allocated, live bytes, peak live bytes),
//!   installed as the global allocator in every build.
//! * [`rss`] — Linux `/proc/self/status` peak-RSS sampling with a
//!   graceful `None` fallback on other platforms.
//! * [`flight`] — a bounded, lock-cheap **flight recorder** of
//!   structured log events, dumped to stderr (and optionally a JSON
//!   file) on panic or on an explicit nonzero-exit dump so failed CI
//!   runs are diagnosable post-hoc.

pub mod alloc;
pub mod flight;
pub mod phase;
pub mod rss;

pub use alloc::AllocStats;
pub use flight::Level;
pub use phase::{Phase, PhaseTimers, PhaseWalls};
