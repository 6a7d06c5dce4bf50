//! Self-audit records for the memory substrate.
//!
//! `sc-mem` sits at the bottom of the crate graph and cannot depend on
//! the diagnostic machinery in `sc-lint`; instead each model exposes an
//! `audit()` method returning plain [`AuditViolation`] records, and the
//! engine in `sparsecore` maps each [`AuditKind`] onto its stable
//! `SC-S3xx` sanitizer code.
//!
//! Audits are *pure*: they read model state, never mutate it, and return
//! an empty vector on a healthy model. The deliberately-broken fixtures
//! (the root package's `tests/mutation_fixtures.rs`) use the
//! `#[doc(hidden)]` sabotage hooks on each model to reproduce the bug
//! class each audit exists to catch.

use std::fmt;

/// The invariant class a violation belongs to. Each maps 1:1 onto an
/// `SC-S3xx` code at the reporting layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditKind {
    /// Cache counter non-conservation (`SC-S306`): `hits + misses` no
    /// longer equals the demand accesses the cache observed, or
    /// evictions exceed insertions.
    CounterConservation,
    /// LRU structure violation (`SC-S307`): a set holds more lines than
    /// ways, duplicate tags, or a recency timestamp ahead of the clock.
    LruOrder,
    /// S-Cache slot state-machine illegality (`SC-S308`).
    SlotState,
    /// Scratchpad accounting drift (`SC-S312`).
    ScratchpadBounds,
}

/// One violation found by a model self-audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Which invariant class was violated.
    pub kind: AuditKind,
    /// Human-readable description with the offending values.
    pub message: String,
}

impl AuditViolation {
    /// Shorthand constructor.
    pub fn new(kind: AuditKind, message: impl Into<String>) -> Self {
        AuditViolation { kind, message: message.into() }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}
