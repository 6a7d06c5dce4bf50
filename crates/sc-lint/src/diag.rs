//! Structured diagnostics: severities, lint codes, and the
//! [`Diagnostic`] record each pass emits.

use sc_isa::{StreamException, StreamId};
use std::fmt;

/// How serious a diagnostic is.
///
/// `Error` means executing the program will (or is overwhelmingly
/// likely to) raise a [`StreamException`] or violate the compiler's
/// stream discipline; `Warning` flags hazards and wasted work;
/// `Note` is informational (e.g. register pressure that virtualization
/// will absorb).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational.
    Note,
    /// Suspicious but not fatal.
    Warning,
    /// Will fault or breaks the stream discipline.
    Error,
}

impl Severity {
    /// The lowercase label used in human and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Every lint the analyzer can report.
///
/// `SC-E0xx` codes model the paper's architectural exception conditions
/// (Sections 3.3 and 5.1) plus the compiler's leak discipline; `SC-W1xx`
/// are correctness-adjacent warnings; `SC-W2xx` are performance lints;
/// `SC-S3xx` are *sanitizer* findings — micro-architectural invariant
/// violations reported by the model self-checks in
/// `sparsecore::sanitize` (they flag bugs in the simulator, not in the
/// linted program). The numeric code
/// is stable across releases; the kebab-case name is for humans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// `SC-E001` — an instruction uses a stream that is not live.
    UseUndefined,
    /// `SC-E002` — `S_FREE` of a stream that is not live.
    FreeUnmapped,
    /// `SC-E003` — a stream is still live when the program ends.
    LeakAtEnd,
    /// `SC-E004` — `S_VINTER`/`S_VMERGE` input is a key-only stream.
    KeyOnlyValueOp,
    /// `SC-E005` — peak live streams exceed the stream-register capacity.
    RegisterPressure,
    /// `SC-E006` — two live streams' source ranges overlap in memory
    /// (the same bytes would be S-Cache-resident under two mappings; a
    /// scalar access to either range faults per Section 5.1).
    ScacheOverlap,
    /// `SC-W101` — a live stream ID is redefined without an `S_FREE`.
    RedefinedLive,
    /// `SC-W102` — `S_READ`/`S_VREAD` with length zero.
    ZeroLengthStream,
    /// `SC-W201` — a computation output stream is never read, only
    /// freed; a `.C` (count-only) variant would avoid materializing it.
    DeadStream,
    /// `SC-W202` — a stream loaded by `S_READ`/`S_VREAD` is freed
    /// without ever being consumed.
    UnusedRead,
    /// `SC-W203` — an unbounded `S_INTER`/`S_SUB` output feeds only
    /// bounded consumers; propagating the bound would cut work
    /// (Figure 2(b)'s BoundedIntersect).
    MissingBound,
    /// `SC-W204` — a stream is statically too short to amortize its
    /// setup line fetch (length upper bound below one refill line).
    ShortStream,
    /// `SC-W205` — the static S-Cache footprint (peak live streams ×
    /// slot bytes) exceeds the configured capacity.
    FootprintExceeded,
    /// `SC-W206` — the static cycle-bound gap exceeds the
    /// config-derived divergence limit, or no finite upper bound
    /// exists at all (statically unanalyzable indirection).
    BoundGap,
    /// `SC-S301` — the model freed a stream whose payload was already
    /// gone (double release of a stream register).
    SanDoubleFree,
    /// `SC-S302` — a stream register is still active when the sanitizer
    /// runs its end-of-workload audit (resource leak in the model).
    SanStreamLeak,
    /// `SC-S303` — SMT/payload desynchronization: an active register
    /// without a functional payload (use-after-free hazard), an orphaned
    /// payload after free, or a payload whose length disagrees with the
    /// register.
    SanUseAfterFree,
    /// `SC-S304` — causality violation: an SU operation completed before
    /// its operands' ready cycle (or before it started).
    SanCausality,
    /// `SC-S305` — the engine's event clock moved backwards.
    SanClockRegression,
    /// `SC-S306` — cache counter non-conservation: `hits + misses` no
    /// longer equals the demand accesses observed, or evictions exceed
    /// insertions.
    SanCacheCounters,
    /// `SC-S307` — LRU structure violation: a set holds more lines than
    /// ways, duplicate tags, or a recency timestamp from the future.
    SanLruOrder,
    /// `SC-S308` — S-Cache slot state-machine illegality: an unbound slot
    /// retaining state, a missed line-group writeback, or a misaligned /
    /// out-of-range window.
    SanScacheSlotState,
    /// `SC-S309` — S-Cache/SMT desynchronization: a slot bound without an
    /// active stream register, or an active register without its slot.
    SanScacheSmtDesync,
    /// `SC-S310` — a simulated write landed in a protected read-only
    /// range (the graph data of a parallel run — a cross-core hazard
    /// under the paper's Section 5.1 no-coherence assumption).
    SanReadOnlyWrite,
    /// `SC-S311` — checkpoint/rollback round trip failed to restore the
    /// architectural stream state exactly.
    SanRollbackDrift,
    /// `SC-S312` — scratchpad accounting drift: used bytes disagree with
    /// the sum of resident entries or exceed capacity.
    SanScratchpadBounds,
    /// `SC-S313` — engine statistics non-conservation: independently
    /// maintained counters (e.g. scratchpad hit/miss vs. engine stats)
    /// disagree.
    SanStatsConservation,
}

impl LintCode {
    /// The stable `SC-…` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::UseUndefined => "SC-E001",
            LintCode::FreeUnmapped => "SC-E002",
            LintCode::LeakAtEnd => "SC-E003",
            LintCode::KeyOnlyValueOp => "SC-E004",
            LintCode::RegisterPressure => "SC-E005",
            LintCode::ScacheOverlap => "SC-E006",
            LintCode::RedefinedLive => "SC-W101",
            LintCode::ZeroLengthStream => "SC-W102",
            LintCode::DeadStream => "SC-W201",
            LintCode::UnusedRead => "SC-W202",
            LintCode::MissingBound => "SC-W203",
            LintCode::ShortStream => "SC-W204",
            LintCode::FootprintExceeded => "SC-W205",
            LintCode::BoundGap => "SC-W206",
            LintCode::SanDoubleFree => "SC-S301",
            LintCode::SanStreamLeak => "SC-S302",
            LintCode::SanUseAfterFree => "SC-S303",
            LintCode::SanCausality => "SC-S304",
            LintCode::SanClockRegression => "SC-S305",
            LintCode::SanCacheCounters => "SC-S306",
            LintCode::SanLruOrder => "SC-S307",
            LintCode::SanScacheSlotState => "SC-S308",
            LintCode::SanScacheSmtDesync => "SC-S309",
            LintCode::SanReadOnlyWrite => "SC-S310",
            LintCode::SanRollbackDrift => "SC-S311",
            LintCode::SanScratchpadBounds => "SC-S312",
            LintCode::SanStatsConservation => "SC-S313",
        }
    }

    /// The human-facing kebab-case lint name.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::UseUndefined => "use-undefined",
            LintCode::FreeUnmapped => "free-unmapped",
            LintCode::LeakAtEnd => "leak-at-end",
            LintCode::KeyOnlyValueOp => "key-only-value-op",
            LintCode::RegisterPressure => "register-pressure",
            LintCode::ScacheOverlap => "scache-overlap",
            LintCode::RedefinedLive => "redefined-live",
            LintCode::ZeroLengthStream => "zero-length-stream",
            LintCode::DeadStream => "dead-stream",
            LintCode::UnusedRead => "unused-read",
            LintCode::MissingBound => "missing-bound",
            LintCode::ShortStream => "short-stream",
            LintCode::FootprintExceeded => "footprint-exceeded",
            LintCode::BoundGap => "bound-gap",
            LintCode::SanDoubleFree => "san-double-free",
            LintCode::SanStreamLeak => "san-stream-leak",
            LintCode::SanUseAfterFree => "san-use-after-free",
            LintCode::SanCausality => "san-causality",
            LintCode::SanClockRegression => "san-clock-regression",
            LintCode::SanCacheCounters => "san-cache-counters",
            LintCode::SanLruOrder => "san-lru-order",
            LintCode::SanScacheSlotState => "san-scache-slot-state",
            LintCode::SanScacheSmtDesync => "san-scache-smt-desync",
            LintCode::SanReadOnlyWrite => "san-readonly-write",
            LintCode::SanRollbackDrift => "san-rollback-drift",
            LintCode::SanScratchpadBounds => "san-scratchpad-bounds",
            LintCode::SanStatsConservation => "san-stats-conservation",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a lint code, where it fired, and a human message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// How serious it is (per-diagnostic: e.g. register pressure is an
    /// error without virtualization but only a note with it).
    pub severity: Severity,
    /// Instruction index the diagnostic anchors to, if any.
    pub at: Option<usize>,
    /// The stream involved, if any.
    pub sid: Option<StreamId>,
    /// The memory address involved, if any (alias lints).
    pub addr: Option<u64>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build an error-severity sanitizer finding (`SC-S3xx`). Sanitizer
    /// findings anchor to model events, not instruction indices, so `at`
    /// is `None`; `sid`/`addr` are attached by the caller when known.
    pub fn sanitizer(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            at: None,
            sid: None,
            addr: None,
            message: message.into(),
        }
    }

    /// A finding about stream `sid` at instruction `at`.
    pub fn stream(
        code: LintCode,
        severity: Severity,
        at: usize,
        sid: StreamId,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            at: Some(at),
            sid: Some(sid),
            addr: None,
            message: message.into(),
        }
    }

    /// Attach a stream ID to the finding.
    pub fn with_sid(mut self, sid: StreamId) -> Self {
        self.sid = Some(sid);
        self
    }

    /// Attach a memory address to the finding.
    pub fn with_addr(mut self, addr: u64) -> Self {
        self.addr = Some(addr);
        self
    }

    /// The runtime [`StreamException`] this diagnostic statically
    /// predicts, if it models one. Correctness lints that don't surface
    /// as architectural exceptions (leaks, perf lints) return `None`.
    pub fn predicted_exception(&self) -> Option<StreamException> {
        match self.code {
            LintCode::UseUndefined => self.sid.map(StreamException::UseUndefined),
            LintCode::FreeUnmapped => self.sid.map(StreamException::FreeUnmapped),
            LintCode::KeyOnlyValueOp => self.sid.map(StreamException::NotKeyValueStream),
            LintCode::RegisterPressure => Some(StreamException::OutOfStreamRegisters),
            LintCode::ScacheOverlap => self.addr.map(StreamException::ScalarTouchesStream),
            _ => None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code.as_str())?;
        if let Some(at) = self.at {
            write!(f, " instr {at}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_names_are_stable() {
        assert_eq!(LintCode::UseUndefined.as_str(), "SC-E001");
        assert_eq!(LintCode::MissingBound.as_str(), "SC-W203");
        assert_eq!(LintCode::KeyOnlyValueOp.name(), "key-only-value-op");
    }

    #[test]
    fn severity_orders_note_warning_error() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_includes_code_and_index() {
        let d = Diagnostic {
            code: LintCode::UseUndefined,
            severity: Severity::Error,
            at: Some(3),
            sid: Some(StreamId::new(2)),
            addr: None,
            message: "use of undefined stream s2".into(),
        };
        let s = d.to_string();
        assert!(s.contains("error[SC-E001]"));
        assert!(s.contains("instr 3"));
        assert_eq!(d.predicted_exception(), Some(StreamException::UseUndefined(StreamId::new(2))));
    }

    #[test]
    fn perf_lints_predict_nothing() {
        let d = Diagnostic {
            code: LintCode::DeadStream,
            severity: Severity::Warning,
            at: Some(0),
            sid: None,
            addr: None,
            message: "dead".into(),
        };
        assert_eq!(d.predicted_exception(), None);
    }
}
