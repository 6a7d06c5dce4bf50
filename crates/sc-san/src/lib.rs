//! The SparseCore invariant sanitizer (`SC-S3xx`) — registry and facade.
//!
//! The simulator models hardware state machines (the SMT, the S-Cache
//! slots, the cache hierarchy, the SU completion-time dataflow) whose
//! invariants are easy to break silently while refactoring: a counter
//! that drifts, a slot left bound after its stream is freed, a rollback
//! that forgets one piece of state. The sanitizer checks those invariants
//! *while the simulation runs* — at the engine's seams and through
//! on-demand cross-state audits — and reports violations through the
//! `sc-lint` diagnostic machinery, so the CLI, JSON/SARIF output and
//! exit-code gating all apply unchanged.
//!
//! This crate is the top of that stack:
//!
//! * [`REGISTRY`] — one [`Invariant`] entry per `SC-S3xx` code: what it
//!   means, which simulation layer owns it, where the checker hooks in,
//!   and which mutation fixture proves it fires.
//! * `tests/mutation_fixtures.rs` — the proof obligation: one
//!   deliberately-broken model variant per code, each asserted to trip
//!   exactly its expected finding, plus clean-run assertions showing the
//!   sanitizer is silent on healthy models.
//!
//! The checkers themselves live where the state lives: `sc-mem` models
//! expose `audit()` methods returning plain [`sc_mem::AuditViolation`]
//! records (that crate sits below the diagnostics machinery), and the
//! engine in `sparsecore` maps them onto lint codes via
//! [`sparsecore::audit_code`] alongside its own seam checks.
//!
//! Enablement: [`sparsecore::SparseCoreConfig::sanitize`] — on by
//! default in debug builds, opt-in via the `SC_SANITIZE` environment
//! variable in release builds (the `--sanitize` flag on the bench
//! binaries sets it).

use sc_lint::LintCode;

/// Which simulation layer owns an invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The engine in the `sparsecore` crate: SMT discipline, SU
    /// completion times, checkpoint/rollback.
    Core,
    /// The `sc-mem` substrate: caches, S-Cache storage, scratchpad.
    Mem,
    /// The parallel GPM harness in `sc-gpm`: cross-core sharing rules.
    Gpm,
}

/// One registered sanitizer invariant.
#[derive(Debug, Clone, Copy)]
pub struct Invariant {
    /// The `SC-S3xx` diagnostic code violations carry.
    pub code: LintCode,
    /// Which layer owns the state being checked.
    pub layer: Layer,
    /// The invariant, stated as the property that must hold.
    pub invariant: &'static str,
    /// Where the checker runs (engine seam or audit pass).
    pub hook: &'static str,
    /// The mutation fixture in `tests/mutation_fixtures.rs` proving the
    /// checker fires.
    pub fixture: &'static str,
}

/// Every sanitizer invariant, in code order. `tests/registry.rs` asserts
/// this table and the fixture suite cover each other exactly.
pub const REGISTRY: &[Invariant] = &[
    Invariant {
        code: LintCode::SanDoubleFree,
        layer: Layer::Core,
        invariant: "an SMT-mapped stream still holds its functional payload when S_FREE retires",
        hook: "Engine::s_free, after the SMT unmap",
        fixture: "s301_double_free_trips",
    },
    Invariant {
        code: LintCode::SanStreamLeak,
        layer: Layer::Core,
        invariant: "no stream is still mapped (or spilled) when the workload declares itself done",
        hook: "Engine::sanitizer_final_report",
        fixture: "s302_stream_leak_trips",
    },
    Invariant {
        code: LintCode::SanUseAfterFree,
        layer: Layer::Core,
        invariant: "SMT entries and stream-register payloads agree: every active entry has a \
                    payload of matching length, every payload has an active entry",
        hook: "Engine::sanitizer_report (cross-state audit)",
        fixture: "s303_use_after_free_trips",
    },
    Invariant {
        code: LintCode::SanCausality,
        layer: Layer::Core,
        invariant: "no SU operation completes before it starts or before its operands are ready",
        hook: "Engine::schedule_su, on every scheduled event",
        fixture: "s304_causality_trips",
    },
    Invariant {
        code: LintCode::SanClockRegression,
        layer: Layer::Core,
        invariant: "the engine's latest-event clock never moves backwards",
        hook: "Engine::schedule_su, watermark over last_event",
        fixture: "s305_clock_regression_trips",
    },
    Invariant {
        code: LintCode::SanCacheCounters,
        layer: Layer::Mem,
        invariant: "per-cache hits + misses == demand accesses; evictions never exceed insertions",
        hook: "Cache::audit, via MemoryHierarchy::audit",
        fixture: "s306_cache_counter_drift_trips",
    },
    Invariant {
        code: LintCode::SanLruOrder,
        layer: Layer::Mem,
        invariant: "each cache set holds at most `ways` lines, with distinct tags and recency \
                    timestamps no newer than the access clock",
        hook: "Cache::audit, via MemoryHierarchy::audit",
        fixture: "s307_lru_duplicate_trips",
    },
    Invariant {
        code: LintCode::SanScacheSlotState,
        layer: Layer::Mem,
        invariant: "S-Cache slot state machines are legal: unbound slots hold no state, bound \
                    slots never buffer a full unwritten line group, windows stay aligned and \
                    in-stream",
        hook: "StreamCacheStorage::audit",
        fixture: "s308_scache_slot_state_trips",
    },
    Invariant {
        code: LintCode::SanScacheSmtDesync,
        layer: Layer::Core,
        invariant: "S-Cache slot bindings mirror the SMT exactly: bound iff the register is \
                    active",
        hook: "Engine::sanitizer_report (cross-state audit)",
        fixture: "s309_scache_smt_desync_trips",
    },
    Invariant {
        code: LintCode::SanReadOnlyWrite,
        layer: Layer::Gpm,
        invariant: "no simulated write lands in an address range declared read-only (the shared \
                    graph, per Section 5.1's no-coherence assumption)",
        hook: "Engine::protect_range + write checks at every simulated store site",
        fixture: "s310_readonly_write_trips",
    },
    Invariant {
        code: LintCode::SanRollbackDrift,
        layer: Layer::Core,
        invariant: "a rollback restores exactly the checkpointed state, including squashing \
                    trace entries recorded after the checkpoint",
        hook: "Engine::rollback, postcondition check",
        fixture: "s311_rollback_drift_trips",
    },
    Invariant {
        code: LintCode::SanScratchpadBounds,
        layer: Layer::Mem,
        invariant: "scratchpad byte accounting is exact and within capacity",
        hook: "Scratchpad::audit",
        fixture: "s312_scratchpad_bounds_trips",
    },
    Invariant {
        code: LintCode::SanStatsConservation,
        layer: Layer::Core,
        invariant: "engine statistics agree with the models they summarize (scratchpad \
                    hits/misses, one lookup per stream read)",
        hook: "Engine::sanitizer_report (cross-state audit)",
        fixture: "s313_stats_conservation_trips",
    },
];

/// Look up the registry entry for a code, if it is a sanitizer code.
pub fn registry_entry(code: LintCode) -> Option<&'static Invariant> {
    REGISTRY.iter().find(|i| i.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsecore::Engine;

    #[test]
    fn registry_is_in_code_order_and_distinct() {
        for w in REGISTRY.windows(2) {
            assert!(
                w[0].code.as_str() < w[1].code.as_str(),
                "{} must precede {}",
                w[0].code.as_str(),
                w[1].code.as_str()
            );
        }
    }

    #[test]
    fn registry_covers_all_s3xx_codes() {
        assert_eq!(REGISTRY.len(), 13);
        for i in REGISTRY {
            assert!(i.code.as_str().starts_with("SC-S3"), "{}", i.code.as_str());
            assert_eq!(registry_entry(i.code).expect("registered").invariant, i.invariant);
        }
        assert!(registry_entry(LintCode::UseUndefined).is_none());
    }

    #[test]
    fn clean_engine_sanitizes_clean() {
        let mut e = Engine::new(sparsecore::SparseCoreConfig {
            sanitize: true,
            ..sparsecore::SparseCoreConfig::tiny()
        });
        assert!(e.sanitize_enabled());
        assert!(e.sanitizer_report().is_empty());
        assert!(e.sanitizer_final_report().is_empty());
    }
}
