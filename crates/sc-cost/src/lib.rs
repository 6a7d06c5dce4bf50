//! # sc-cost — static cycle-cost and resource bounds for stream programs
//!
//! `sc-verify` proves stream programs *correct* before they run; this
//! crate proves them *predictable*: a report over the same
//! [`sc_isa::dataflow`] walk derives sound `[lower, upper]` cycle
//! bounds, per-region bounds, a stream-length hull, S-Cache footprint
//! bounds, and memory-traffic bounds — all parameterized by a
//! [`SparseCoreConfig`], so the same program yields different bounds
//! per config digest.
//!
//! The correctness stack becomes a correctness **+ cost** stack; the
//! three static layers are reports over one walk:
//!
//! | layer       | when    | what it gives you                           |
//! |-------------|---------|---------------------------------------------|
//! | `sc-lint`   | static  | pattern diagnostics (shape, style, perf)    |
//! | `sc-verify` | static  | proofs of S301–S303/S310/S312 + disjointness |
//! | `sc-cost`   | static  | sound cycle/footprint/traffic bounds         |
//! | sanitizer   | runtime | detection of everything not statically provable |
//!
//! The bench suite's soundness gate replays every workload and asserts
//! `simulated cycles ∈ [lower, upper]`; the tightness ratio
//! `upper / simulated` is recorded through sc-report per figure.
//!
//! Three cost-backed perf lints ride on the bounds, sharing sc-lint's
//! diagnostic/report/SARIF plumbing:
//!
//! * `SC-W204` *short-stream* — a stream's static length cannot
//!   amortize one refill line of setup. The findings come from
//!   [`sc_lint::short_streams`] under
//!   [`SparseCoreConfig::perf_thresholds`], exactly as the linter
//!   reports them.
//! * `SC-W205` *footprint-exceeded* — peak live streams × slot bytes
//!   exceed the configured S-Cache capacity.
//! * `SC-W206` *bound-gap* — the `upper / lower` divergence exceeds the
//!   config-derived limit, or no finite upper bound exists at all
//!   (statically unanalyzable indirection such as `S_NESTINTER`).

pub mod analyze;
pub mod gate;
pub mod params;
pub mod sidecar;

pub use analyze::{
    analyze_cost, analyze_cost_with, CostInterval, CostMutation, CostReport, RegionCost,
};
pub use gate::{check_program, synthesize_image, GateOutcome};
pub use params::CostParams;
pub use sidecar::{render_sidecar, SIDECAR_SCHEMA};

use sc_isa::{Instr, Program};
use sc_lint::{Diagnostic, LintCode, Report, Severity};
use sparsecore::SparseCoreConfig;

/// One discharged cost obligation: what was established about the
/// program's performance envelope, and which cost-lint codes can no
/// longer fire.
#[derive(Debug, Clone)]
pub struct CostProof {
    /// Human statement of the obligation.
    pub obligation: &'static str,
    /// The cost-lint codes this makes unreachable.
    pub subsumes: &'static [LintCode],
}

/// Outcome of cost-analyzing one stream program under one config.
#[derive(Debug, Clone)]
pub struct CostVerdict {
    /// Cost-lint findings (warnings inform; they never reject).
    pub report: Report,
    /// Obligations that held (empty finding families only).
    pub proofs: Vec<CostProof>,
    /// The full bound report.
    pub cost: CostReport,
}

impl CostVerdict {
    /// Does a finite whole-program cycle upper bound exist?
    pub fn bounded(&self) -> bool {
        self.cost.cycles.is_bounded()
    }

    /// One-word status for reports.
    pub fn status(&self) -> &'static str {
        if self.bounded() {
            "BOUNDED"
        } else {
            "UNBOUNDED"
        }
    }
}

/// The cost obligations [`cost_program`] discharges, in report order.
const OBLIGATIONS: &[(&str, &[LintCode])] = &[
    ("every stream amortizes its setup line fetch", &[LintCode::ShortStream]),
    ("the static stream working set fits the S-Cache", &[LintCode::FootprintExceeded]),
    ("the cycle-bound gap stays within the config-derived limit", &[LintCode::BoundGap]),
];

/// Analyze a program and fold the bounds into a [`CostVerdict`]:
/// cost lints become a sorted [`Report`], and every obligation family
/// with no finding is recorded as a discharged [`CostProof`].
pub fn cost_program(program: &Program, config: &SparseCoreConfig) -> CostVerdict {
    let cost = analyze_cost(program, config);
    let p = &cost.params;
    let mut diags = sc_lint::short_streams(program, config.perf_thresholds());
    let warn = |code, at, message: String| Diagnostic {
        code,
        severity: Severity::Warning,
        at,
        sid: None,
        addr: None,
        message,
    };

    // SC-W205: static S-Cache footprint.
    if cost.footprint_bytes > p.scache_bytes {
        diags.push(warn(
            LintCode::FootprintExceeded,
            None,
            format!(
                "static S-Cache footprint {} B ({} live streams x {} B slots) exceeds \
                 the {} B capacity",
                cost.footprint_bytes, cost.max_pressure, p.slot_bytes, p.scache_bytes
            ),
        ));
    }

    // SC-W206: bound gap / unanalyzable indirection.
    match cost.cycles.gap_ratio() {
        None => {
            let at = program
                .iter()
                .position(|i| matches!(i, Instr::SNestInter { .. }))
                .or_else(|| cost.instr_upper.iter().position(|u| u.is_none()));
            diags.push(warn(
                LintCode::BoundGap,
                at,
                "no finite cycle upper bound: statically unanalyzable \
                 indirection (data-dependent stream lengths)"
                    .into(),
            ));
        }
        Some(gap) if gap > p.bound_gap_limit() as f64 => diags.push(warn(
            LintCode::BoundGap,
            None,
            format!(
                "cycle-bound gap {:.1}x exceeds the derived {}x limit: bounds {} \
                 are too loose to predict performance",
                gap,
                p.bound_gap_limit(),
                cost.cycles
            ),
        )),
        Some(_) => {}
    }

    let proofs = OBLIGATIONS
        .iter()
        .filter(|(_, codes)| !diags.iter().any(|d| codes.contains(&d.code)))
        .map(|&(obligation, subsumes)| CostProof { obligation, subsumes })
        .collect();
    CostVerdict { report: Report::new(diags), proofs, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_isa::{Bound, Priority, StreamId};

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

    fn triangle_like(len: u32) -> Program {
        vec![
            read(0, len),
            read(1, len),
            Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::none() },
            Instr::SFetch { sid: sid(2), offset: 0 },
            Instr::SFree { sid: sid(0) },
            Instr::SFree { sid: sid(1) },
            Instr::SFree { sid: sid(2) },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn healthy_program_discharges_all_obligations() {
        let v = cost_program(&triangle_like(64), &SparseCoreConfig::paper());
        assert_eq!(v.status(), "BOUNDED");
        assert!(v.report.error_free());
        assert_eq!(v.proofs.len(), OBLIGATIONS.len(), "{:?}", v.report.diagnostics());
    }

    #[test]
    fn short_stream_fires_w204() {
        let v = cost_program(&triangle_like(4), &SparseCoreConfig::paper());
        let hits: Vec<_> =
            v.report.diagnostics().iter().filter(|d| d.code == LintCode::ShortStream).collect();
        assert_eq!(hits.len(), 2, "both 4-key reads are below the 16-key line");
        assert!(v.proofs.iter().all(|p| !p.subsumes.contains(&LintCode::ShortStream)));
    }

    #[test]
    fn footprint_fires_w205() {
        // 17 concurrently-live streams x 256 B > 4096 B S-Cache.
        let mut p = Program::new();
        for n in 0..17 {
            p.push(read(n, 64));
        }
        for n in 0..17 {
            p.push(Instr::SFree { sid: sid(n) });
        }
        let v = cost_program(&p, &SparseCoreConfig::paper());
        assert!(v.report.diagnostics().iter().any(|d| d.code == LintCode::FootprintExceeded));
    }

    #[test]
    fn nested_indirection_fires_w206() {
        let p: Program =
            vec![read(0, 64), Instr::SNestInter { sid: sid(0) }, Instr::SFree { sid: sid(0) }]
                .into_iter()
                .collect();
        let v = cost_program(&p, &SparseCoreConfig::paper());
        assert_eq!(v.status(), "UNBOUNDED");
        let d = v
            .report
            .diagnostics()
            .iter()
            .find(|d| d.code == LintCode::BoundGap)
            .expect("W206 fires");
        assert_eq!(d.at, Some(1), "anchors to the nested intersection");
    }

    #[test]
    fn sarif_includes_cost_codes() {
        let v = cost_program(&triangle_like(4), &SparseCoreConfig::paper());
        let sarif = v.report.to_sarif_with_driver("prog.sasm", "sc-cost");
        assert!(sarif.contains("SC-W204"));
        assert!(sarif.contains("sc-cost"));
    }
}
