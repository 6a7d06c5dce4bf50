//! # sc-verify — ahead-of-execution proofs for stream programs and plans
//!
//! `sc-lint` pattern-checks stream programs; the sanitizer
//! (`sparsecore::sanitize`) *detects* invariant violations while the
//! model runs. This crate closes the gap
//! with *proofs*: a report over the one abstract interpretation of the
//! stream ISA, [`sc_isa::dataflow`], that checks the sanitizer's
//! obligations against a [`VerifyConfig`], and a
//! partition-plan disjointness verifier ([`plan`]). Verdicts carry the
//! exact runtime sanitizer code (`SC-S3xx`) each discharged obligation
//! subsumes.
//!
//! The correctness stack reads bottom-up; the three static layers are
//! reports over the same walk:
//!
//! | layer     | when     | what it gives you                              |
//! |-----------|----------|------------------------------------------------|
//! | `sc-lint` | static   | pattern diagnostics (shape, style, perf)       |
//! | `sc-verify` | static | *proofs* of S301–S303/S310/S312 + disjointness |
//! | sanitizer | runtime  | detection of everything not statically provable |
//!
//! A [`Verdict::verified`] program is guaranteed — and property-tested
//! (`tests/verify_agreement.rs` at the workspace root) — never to trip
//! the runtime sanitizer's S301/S302/S303/S310 checks; conversely every
//! mutation fixture that makes the sanitizer fire is statically
//! *predicted* with the same code.
//!
//! Diagnostics, severities, reports and SARIF output are shared with
//! `sc-lint`, so `sc-verify` findings flow through the same tooling
//! (`Report::to_sarif_with_driver` tags them with this crate's name).

mod checks;
pub mod config;
pub mod domain;
pub mod plan;

pub use config::{VerifyConfig, OUT_ALLOC_BASE};
pub use domain::{Interval, Stride};
pub use plan::{
    chunk_write_set, interleave_write_set, verify_chunk_plan, verify_core_write_sets,
    verify_partition, PlanProof, PlanVerdict,
};

use sc_isa::Program;
use sc_lint::{LintCode, Report, Severity};

/// One discharged proof obligation: what was proven, and which runtime
/// sanitizer (or lint) codes the proof subsumes — those checks can no
/// longer fire for this program.
#[derive(Debug, Clone)]
pub struct Proof {
    /// Human statement of the obligation.
    pub obligation: &'static str,
    /// The runtime codes this proof makes unreachable.
    pub subsumes: &'static [LintCode],
}

/// Outcome of verifying one stream program.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// All findings (errors reject; warnings/notes inform).
    pub report: Report,
    /// Obligations that were discharged (empty families only).
    pub proofs: Vec<Proof>,
    /// Per-program-point live-stream upper bounds.
    pub pressure: Vec<usize>,
    /// Peak of `pressure`.
    pub max_pressure: usize,
    /// Scratchpad working-set upper bound in bytes.
    pub scratch_peak: u64,
}

impl Verdict {
    /// `VERIFIED`: no error-severity finding — every proof obligation
    /// held. The agreement suite guarantees such a program cannot trip
    /// the runtime sanitizer's subsumed checks.
    pub fn verified(&self) -> bool {
        !self.report.diagnostics().iter().any(|d| d.severity == Severity::Error)
    }

    /// One-word status for reports.
    pub fn status(&self) -> &'static str {
        if self.verified() {
            "VERIFIED"
        } else {
            "REJECTED"
        }
    }
}

/// The proof obligations [`verify_program`] discharges, in report order.
/// Each pairs a predicate of the abstract state with the codes it
/// subsumes: the static code the verifier emits when the predicate fails
/// and (for `SC-S3xx`) the runtime sanitizer check made redundant when
/// it holds.
const OBLIGATIONS: &[(&str, &[LintCode])] = &[
    (
        "every S_FREE releases a live stream exactly once",
        &[LintCode::SanDoubleFree, LintCode::FreeUnmapped],
    ),
    ("every stream is freed before the program ends", &[LintCode::SanStreamLeak]),
    (
        "no instruction uses a stream after its S_FREE",
        &[LintCode::SanUseAfterFree, LintCode::UseUndefined],
    ),
    ("output-stream writebacks stay outside protected ranges", &[LintCode::SanReadOnlyWrite]),
    ("the priority working set fits the scratchpad", &[LintCode::SanScratchpadBounds]),
    ("live-stream pressure stays within the register file", &[LintCode::RegisterPressure]),
    ("value operations only touch (key, value) streams", &[LintCode::KeyOnlyValueOp]),
];

/// Walk `program` once and fold the verifier's report over the walk
/// into a [`Verdict`]: findings become a sorted [`Report`], and every
/// obligation family with no finding is recorded as a discharged
/// [`Proof`].
pub fn verify_program(program: &Program, config: &VerifyConfig) -> Verdict {
    let flow = sc_isa::dataflow::analyze(program);
    let findings = checks::findings(program, &flow, config);
    let proofs = OBLIGATIONS
        .iter()
        .filter(|(_, codes)| !findings.iter().any(|d| codes.contains(&d.code)))
        .map(|&(obligation, subsumes)| Proof { obligation, subsumes })
        .collect();
    Verdict {
        report: Report::new(findings),
        pressure: flow.steps.iter().map(|s| s.live).collect(),
        max_pressure: flow.peak_live(),
        scratch_peak: flow.scratch_peak,
        proofs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_isa::{Bound, Instr, Priority, StreamId};

    fn sid(n: u32) -> StreamId {
        StreamId::new(n)
    }

    fn read(n: u32, len: u32) -> Instr {
        Instr::SRead {
            key_addr: 0x1000 * u64::from(n + 1),
            len,
            sid: sid(n),
            priority: Priority(0),
        }
    }

    fn triangle_like() -> Program {
        vec![
            read(0, 16),
            read(1, 16),
            Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::none() },
            Instr::SFree { sid: sid(0) },
            Instr::SFree { sid: sid(1) },
            Instr::SFree { sid: sid(2) },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn clean_program_is_verified_with_all_proofs() {
        let v = verify_program(&triangle_like(), &VerifyConfig::paper());
        assert!(v.verified(), "findings: {:?}", v.report.diagnostics());
        assert_eq!(v.status(), "VERIFIED");
        assert_eq!(v.proofs.len(), OBLIGATIONS.len());
        assert_eq!(v.max_pressure, 3);
        assert_eq!(v.pressure.len(), 6);
        // The free-discipline proof subsumes the S301 runtime check.
        assert!(v.proofs.iter().any(|p| p.subsumes.contains(&LintCode::SanDoubleFree)));
    }

    #[test]
    fn double_free_predicts_s301() {
        let mut p = triangle_like();
        p.push(Instr::SFree { sid: sid(2) });
        let v = verify_program(&p, &VerifyConfig::paper());
        assert!(!v.verified());
        assert!(v.report.diagnostics().iter().any(|d| d.code == LintCode::SanDoubleFree));
        // The free-discipline obligation is no longer listed as proven.
        assert!(!v.proofs.iter().any(|p| p.subsumes.contains(&LintCode::SanDoubleFree)));
    }

    #[test]
    fn leak_predicts_s302() {
        let p: Program = vec![read(0, 8)].into_iter().collect();
        let v = verify_program(&p, &VerifyConfig::paper());
        assert!(!v.verified());
        let d = &v.report.diagnostics()[0];
        assert_eq!(d.code, LintCode::SanStreamLeak);
        assert_eq!(d.at, Some(0), "leak anchors at the defining instruction");
    }

    #[test]
    fn use_after_free_predicts_s303() {
        let p: Program = vec![
            read(0, 8),
            read(1, 8),
            Instr::SFree { sid: sid(0) },
            Instr::SInterC { a: sid(0), b: sid(1), bound: Bound::none() },
            Instr::SFree { sid: sid(1) },
        ]
        .into_iter()
        .collect();
        let v = verify_program(&p, &VerifyConfig::paper());
        assert!(!v.verified());
        assert!(v
            .report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::SanUseAfterFree && d.at == Some(3)));
    }

    #[test]
    fn never_defined_stays_e001_not_s303() {
        // Use of a never-defined stream is a plain lint error, not a
        // use-after-free: the runtime S303 hazard needs a freed mapping.
        let p: Program = vec![
            read(1, 8),
            Instr::SInterC { a: sid(0), b: sid(1), bound: Bound::none() },
            Instr::SFree { sid: sid(1) },
        ]
        .into_iter()
        .collect();
        let v = verify_program(&p, &VerifyConfig::paper());
        assert!(!v.verified());
        assert!(v.report.diagnostics().iter().any(|d| d.code == LintCode::UseUndefined));
        assert!(!v.report.diagnostics().iter().any(|d| d.code == LintCode::SanUseAfterFree));
    }

    #[test]
    fn protected_range_overlap_predicts_s310() {
        // Output allocator starts at out_alloc_base; protecting that
        // region means the intersection's writeback must hit it.
        let cfg = VerifyConfig::paper().protect(OUT_ALLOC_BASE, OUT_ALLOC_BASE + 0x1000);
        let v = verify_program(&triangle_like(), &cfg);
        assert!(!v.verified());
        assert!(v.report.diagnostics().iter().any(|d| d.code == LintCode::SanReadOnlyWrite));
    }

    #[test]
    fn redirected_out_alloc_mirrors_sabotage() {
        // The static mirror of Engine::sabotage_redirect_out_alloc: move
        // the allocator base into a protected graph range.
        let cfg =
            VerifyConfig::paper().protect(0x9000_0000, 0x9000_1000).with_out_alloc(0x9000_0000);
        let v = verify_program(&triangle_like(), &cfg);
        assert!(!v.verified());
        assert!(v
            .report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::SanReadOnlyWrite && d.addr == Some(0x9000_0000)));
    }

    #[test]
    fn pressure_beyond_registers_is_error_without_virtualization() {
        let mut p = Program::new();
        for n in 0..5 {
            p.push(read(n, 4));
        }
        for n in 0..5 {
            p.push(Instr::SFree { sid: sid(n) });
        }
        let tight = VerifyConfig::paper().with_stream_registers(4);
        let v = verify_program(&p, &tight);
        assert!(!v.verified());
        assert_eq!(v.max_pressure, 5);

        let virt = VerifyConfig::paper().with_stream_registers(4).virtualized();
        let v = verify_program(&p, &virt);
        assert!(v.verified(), "virtualization downgrades pressure to a note");
        assert!(v
            .report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::RegisterPressure && d.severity == Severity::Note));
    }

    #[test]
    fn scratchpad_overflow_warns_s312() {
        // 16 KiB scratchpad; a 5000-key priority stream pins 20 kB.
        let p: Program = vec![
            Instr::SRead { key_addr: 0x1000, len: 5000, sid: sid(0), priority: Priority(1) },
            Instr::SFree { sid: sid(0) },
        ]
        .into_iter()
        .collect();
        let v = verify_program(&p, &VerifyConfig::paper());
        assert!(v.verified(), "S312 is a warning: the runtime accountant evicts");
        assert!(v.report.diagnostics().iter().any(|d| d.code == LintCode::SanScratchpadBounds));
        assert_eq!(v.scratch_peak, 20_000);
    }

    #[test]
    fn intersection_length_interval_narrows_writeback() {
        // |a ∩ b| <= min(16, 16) = 16 keys -> one 64 B-aligned region.
        let v = verify_program(&triangle_like(), &VerifyConfig::paper());
        // Writes start at the allocator base and stay within one line
        // region of 64*ceil(16*4/64)=64 bytes... (|63)+1 of 64 = 64.
        assert!(v.verified());
    }

    #[test]
    fn value_op_on_key_only_stream_is_rejected() {
        let p: Program = vec![
            read(0, 8),
            read(1, 8),
            Instr::SVInter { a: sid(0), b: sid(1), op: sc_isa::ValueOp::Mac },
            Instr::SFree { sid: sid(0) },
            Instr::SFree { sid: sid(1) },
        ]
        .into_iter()
        .collect();
        let v = verify_program(&p, &VerifyConfig::paper());
        assert!(!v.verified());
        assert!(v.report.diagnostics().iter().any(|d| d.code == LintCode::KeyOnlyValueOp));
    }

    #[test]
    fn maximal_length_stream_verifies() {
        let p: Program =
            vec![read(0, u32::MAX), Instr::SFree { sid: sid(0) }].into_iter().collect();
        let v = verify_program(&p, &VerifyConfig::paper());
        assert!(v.verified(), "maximal-length stream verifies:\n{}", v.report);
    }
}
