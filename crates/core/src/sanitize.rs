//! Micro-architectural invariant sanitizer (the `SC-S3xx` block).
//!
//! The simulator's timing and functional models carry invariants that no
//! workload-level test checks directly: stream registers must be
//! allocated and freed in a strict discipline, completion times must
//! respect causality, cache counters must conserve, and a rollback must
//! restore exactly the state the checkpoint captured. This module is the
//! engine-side half of the sanitizer: a small recorder the [`Engine`]
//! consults at its seams (`s_free`, SU scheduling, simulated stores,
//! rollback), plus the audit that cross-checks SMT / payload / S-Cache /
//! scratchpad / cache-hierarchy state on demand.
//!
//! Violations are reported as [`sc_lint::Diagnostic`]s with `SC-S3xx`
//! codes, so the existing report/JSON/SARIF/exit-code machinery of
//! `sc-lint` applies unchanged. [`REGISTRY`] lists every invariant: what
//! it means, which simulation layer owns it, where the checker hooks in,
//! and which mutation fixture (the root package's
//! `tests/mutation_fixtures.rs`) proves it fires. The memory-substrate
//! checkers live in `sc-mem` as `audit()` methods returning plain
//! [`sc_mem::AuditViolation`] records; [`audit_code`] maps them onto lint
//! codes.
//!
//! Enablement: [`crate::SparseCoreConfig::sanitize`] — on by default in
//! debug builds, opt-in via `SC_SANITIZE` in release builds.
//!
//! [`Engine`]: crate::Engine

use sc_isa::StreamId;
use sc_lint::{Diagnostic, LintCode};
use sc_mem::AuditKind;
use sc_probe::{Probe, Track};
use std::collections::BTreeSet;

/// Map a memory-substrate audit class onto its `SC-S3xx` lint code.
pub fn audit_code(kind: AuditKind) -> LintCode {
    match kind {
        AuditKind::CounterConservation => LintCode::SanCacheCounters,
        AuditKind::LruOrder => LintCode::SanLruOrder,
        AuditKind::SlotState => LintCode::SanScacheSlotState,
        AuditKind::ScratchpadBounds => LintCode::SanScratchpadBounds,
    }
}

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
    /// The mutation fixture in the root package's
    /// `tests/mutation_fixtures.rs` proving the checker fires.
    pub fixture: &'static str,
}

/// Every sanitizer invariant, in code order. The root package's
/// `tests/registry.rs` asserts that this table and the fixture suite in
/// `tests/mutation_fixtures.rs` cover each other exactly.
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

/// A half-open simulated address range `[lo, hi)` the workload declared
/// read-only (Section 5.1: parallel cores share the graph without
/// coherence, so any simulated write into it is a cross-core hazard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadOnlyRange {
    lo: u64,
    hi: u64,
}

/// The engine-attached sanitizer state: accumulated violations, the
/// monotone clock watermark, and the registered read-only ranges.
#[derive(Debug, Default)]
pub(crate) struct Sanitizer {
    violations: Vec<Diagnostic>,
    /// Highest completion time ever observed; the engine clock may never
    /// fall below it.
    clock_watermark: u64,
    read_only: Vec<ReadOnlyRange>,
    /// Stream IDs whose most recent mapping was released by `s_free` and
    /// not re-defined since. Lets the engine's error seams distinguish
    /// the `SC-S301`/`SC-S303` freed-stream hazards from plain
    /// use-of-never-defined (which stays an architectural exception with
    /// no sanitizer finding).
    freed: BTreeSet<StreamId>,
    /// Mutation hook: make `rollback` skip the trace restore so the
    /// rollback-drift checker has something to catch.
    pub(crate) skip_trace_restore: bool,
    /// Observability handle: every recorded violation is mirrored as a
    /// counter and (when tracing) a `Track::Sanitizer` instant event
    /// named by its `SC-S3xx` code.
    probe: Probe,
}

impl Sanitizer {
    pub(crate) fn new() -> Self {
        Sanitizer::default()
    }

    /// Attach a probe handle for violation counters / trace instants.
    pub(crate) fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Record a violation directly. This is the single choke point for
    /// every `SC-S3xx` finding, so the probe mirroring lives here.
    pub(crate) fn record(&mut self, diag: Diagnostic) {
        if self.probe.enabled() {
            self.probe.count("sanitizer.violations", 1);
            if self.probe.tracing() {
                self.probe.instant(Track::Sanitizer, diag.code.as_str(), &[]);
            }
        }
        self.violations.push(diag);
    }

    /// Drain everything recorded so far.
    pub(crate) fn take(&mut self) -> Vec<Diagnostic> {
        std::mem::take(&mut self.violations)
    }

    /// Causality check on one SU event (`SC-S304`): an operation cannot
    /// complete before it starts, nor before its operands are ready.
    pub(crate) fn check_su_event(&mut self, ready: u64, start: u64, done: u64) {
        if done < start {
            self.record(Diagnostic::sanitizer(
                LintCode::SanCausality,
                format!("SU op completes at {done}, before its start at {start}"),
            ));
        }
        if done < ready {
            self.record(Diagnostic::sanitizer(
                LintCode::SanCausality,
                format!("SU op completes at {done}, before its operands are ready at {ready}"),
            ));
        }
    }

    /// Clock-monotonicity check (`SC-S305`): the engine's latest-event
    /// clock may only move forward.
    pub(crate) fn check_clock(&mut self, last_event: u64) {
        if last_event < self.clock_watermark {
            self.record(Diagnostic::sanitizer(
                LintCode::SanClockRegression,
                format!(
                    "engine clock moved backwards: {last_event} after observing {}",
                    self.clock_watermark
                ),
            ));
        }
        self.clock_watermark = self.clock_watermark.max(last_event);
    }

    /// A stream was (re)defined: it is no longer in freed history.
    pub(crate) fn note_define(&mut self, sid: StreamId) {
        self.freed.remove(&sid);
    }

    /// Snapshot the freed-stream history for an engine checkpoint. The
    /// freed set shadows architectural SMT state, so a rollback that
    /// restores the SMT must restore this too — otherwise a free or
    /// define on the squashed path leaves the set disagreeing with the
    /// restored mappings (spurious `SC-S301`/`SC-S303`, or missed ones).
    pub(crate) fn snapshot_freed(&self) -> BTreeSet<StreamId> {
        self.freed.clone()
    }

    /// Restore the freed-stream history captured by [`Self::snapshot_freed`].
    pub(crate) fn restore_freed(&mut self, freed: BTreeSet<StreamId>) {
        self.freed = freed;
    }

    /// A stream was released by `s_free`.
    pub(crate) fn note_free(&mut self, sid: StreamId) {
        self.freed.insert(sid);
    }

    /// `s_free` found no mapping for `sid`. If the stream was freed
    /// earlier this is the `SC-S301` double-free hazard; a free of a
    /// never-defined ID is only the architectural `FreeUnmapped`
    /// exception, not a sanitizer finding.
    pub(crate) fn check_free_unmapped(&mut self, sid: StreamId) {
        if self.freed.contains(&sid) {
            self.record(
                Diagnostic::sanitizer(
                    LintCode::SanDoubleFree,
                    format!("S_FREE of stream {sid}, which was already freed (double release)"),
                )
                .with_sid(sid),
            );
        }
    }

    /// A use site found no mapping for `sid`. A previously-freed stream
    /// makes this the `SC-S303` use-after-free hazard; a never-defined
    /// ID stays a plain architectural exception.
    pub(crate) fn check_use_unmapped(&mut self, sid: StreamId) {
        if self.freed.contains(&sid) {
            self.record(
                Diagnostic::sanitizer(
                    LintCode::SanUseAfterFree,
                    format!("stream {sid} used after its S_FREE"),
                )
                .with_sid(sid),
            );
        }
    }

    /// Register `[lo, hi)` as read-only for this engine.
    pub(crate) fn protect(&mut self, lo: u64, hi: u64) {
        self.read_only.push(ReadOnlyRange { lo, hi });
    }

    /// Read-only-write check (`SC-S310`) for a simulated store or an
    /// output-region allocation `[lo, hi)`. `what` names the writer.
    pub(crate) fn check_write(&mut self, lo: u64, hi: u64, what: &str) {
        for r in &self.read_only {
            if lo < r.hi && r.lo < hi {
                self.record(
                    Diagnostic::sanitizer(
                        LintCode::SanReadOnlyWrite,
                        format!(
                            "{what} writes {lo:#x}..{hi:#x} inside read-only range \
                             {:#x}..{:#x} (cross-core hazard: the graph is shared \
                             without coherence)",
                            r.lo, r.hi
                        ),
                    )
                    .with_addr(lo),
                );
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut e = crate::Engine::new(crate::SparseCoreConfig {
            sanitize: true,
            ..crate::SparseCoreConfig::tiny()
        });
        assert!(e.sanitize_enabled());
        assert!(e.sanitizer_report().is_empty());
        assert!(e.sanitizer_final_report().is_empty());
    }

    #[test]
    fn audit_kinds_map_to_distinct_codes() {
        let kinds = [
            AuditKind::CounterConservation,
            AuditKind::LruOrder,
            AuditKind::SlotState,
            AuditKind::ScratchpadBounds,
        ];
        let codes: Vec<_> = kinds.iter().map(|&k| audit_code(k)).collect();
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn causality_and_clock_checks() {
        let mut s = Sanitizer::new();
        s.check_su_event(10, 10, 20);
        s.check_clock(20);
        assert!(s.take().is_empty());
        s.check_su_event(30, 25, 28); // done < ready
        s.check_clock(15); // clock went backwards
        let v = s.take();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].code, LintCode::SanCausality);
        assert_eq!(v[1].code, LintCode::SanClockRegression);
    }

    #[test]
    fn read_only_ranges_catch_overlap_only() {
        let mut s = Sanitizer::new();
        s.protect(0x1000, 0x2000);
        s.check_write(0x2000, 0x2040, "store"); // adjacent, not inside
        assert!(s.take().is_empty());
        s.check_write(0x1ff0, 0x2010, "store");
        let v = s.take();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, LintCode::SanReadOnlyWrite);
        assert_eq!(v[0].addr, Some(0x1ff0));
    }
}
