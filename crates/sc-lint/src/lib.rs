//! `sc-lint` — static dataflow analysis for SparseCore stream-ISA
//! programs.
//!
//! The stream ISA's architectural contracts (paper Sections 3.3 and
//! 5.1) — SMT define bits, 16-register occupancy, key-only vs.
//! (key, value) stream kinds, S-Cache residency — surface at runtime as
//! [`StreamException`](sc_isa::StreamException)s, often minutes into a
//! simulation. This crate checks them *statically*, as a report over
//! the one abstract interpretation of the workspace,
//! [`sc_isa::dataflow`]: the walk records each stream's lifetime, kind,
//! length and pinned source bytes, and the report maps those facts to
//! diagnostics that predict each exception condition before anything
//! runs, plus performance lints for wasted stream work.
//!
//! Families, in report order at one instruction:
//!
//! 1. **liveness** — `SC-E001` use-undefined, `SC-E002` free-unmapped,
//!    `SC-E003` leak-at-end, `SC-W101` redefined-live.
//! 2. **kinds** — `SC-E004` key-only-value-op, predicting
//!    `NotKeyValueStream`.
//! 3. **pressure** — `SC-E005` register-pressure, predicting
//!    `OutOfStreamRegisters`.
//! 4. **alias** — `SC-W102` zero-length streams and `SC-E006`
//!    scache-overlap, the static shadow of `ScalarTouchesStream`.
//! 5. **perf** — `SC-W204` short-stream (threshold derived from the
//!    hardware config, not a magic number), `SC-W201` dead-stream,
//!    `SC-W202` unused-read, `SC-W203` missing-bound.
//!
//! The [`cli`] module is the front-end the `sc-lint`, `sc-verify` and
//! `sc-cost` binaries share.
//!
//! # Example
//!
//! ```
//! use sc_isa::{Instr, Program, StreamId};
//! use sc_lint::{lint, LintConfig};
//!
//! let mut p = Program::new();
//! p.push(Instr::SRead { key_addr: 0x1000, len: 8, sid: StreamId::new(0), priority: 0.into() });
//! // Forgot the S_FREE:
//! let report = lint(&p, &LintConfig::default());
//! assert!(report.has_errors()); // SC-E003 leak-at-end
//! println!("{report}");
//! println!("{}", report.to_json());
//! ```

mod checks;
pub mod cli;
pub mod config;
pub mod diag;
pub mod report;

pub use checks::short_streams;
pub use config::{LintConfig, PerfThresholds};
pub use diag::{Diagnostic, LintCode, Severity};
pub use report::Report;

use sc_isa::Program;

/// Walk `program` once and report every lint family over the result.
pub fn lint(program: &Program, config: &LintConfig) -> Report {
    let flow = sc_isa::dataflow::analyze(program);
    Report::new(checks::diagnostics(program, &flow, config))
}

/// [`lint`] with [`LintConfig::default`] (the paper's hardware).
pub fn lint_default(program: &Program) -> Report {
    lint(program, &LintConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_isa::{Bound, Instr, Priority, StreamException, StreamId, ValueOp};

    fn sid(n: u32) -> StreamId {
        StreamId::new(n)
    }

    fn read(n: u32) -> Instr {
        Instr::SRead {
            key_addr: 0x1000 * (n as u64 + 1),
            len: 16,
            sid: sid(n),
            priority: Priority(0),
        }
    }

    fn vread(n: u32) -> Instr {
        Instr::SVRead {
            key_addr: 0x1000 * (n as u64 + 1),
            len: 16,
            sid: sid(n),
            val_addr: 0x10_0000 + 0x1000 * (n as u64 + 1),
            priority: Priority(0),
        }
    }

    fn free(n: u32) -> Instr {
        Instr::SFree { sid: sid(n) }
    }

    fn predicted(report: &Report) -> Vec<StreamException> {
        report.diagnostics().iter().filter_map(|d| d.predicted_exception()).collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let p: Program = vec![
            vread(0),
            vread(1),
            Instr::SVInter { a: sid(0), b: sid(1), op: ValueOp::Mac },
            free(0),
            free(1),
        ]
        .into_iter()
        .collect();
        let report = lint_default(&p);
        assert!(report.is_empty(), "unexpected diagnostics:\n{report}");
    }

    // ---- one fixture per StreamException condition ----

    #[test]
    fn fixture_use_undefined() {
        // S_FETCH of a never-defined stream: runtime UseUndefined.
        let p: Program = vec![Instr::SFetch { sid: sid(3), offset: 0 }].into_iter().collect();
        let report = lint_default(&p);
        assert!(report.has_errors());
        assert!(predicted(&report).contains(&StreamException::UseUndefined(sid(3))));
    }

    #[test]
    fn fixture_free_unmapped() {
        // Double free: the second S_FREE raises FreeUnmapped at runtime.
        let p: Program = vec![read(0), free(0), free(0)].into_iter().collect();
        let report = lint_default(&p);
        assert!(report.has_errors());
        assert!(predicted(&report).contains(&StreamException::FreeUnmapped(sid(0))));
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.code == LintCode::FreeUnmapped)
            .expect("free-unmapped diagnostic");
        assert_eq!(diag.at, Some(2));
    }

    #[test]
    fn fixture_not_key_value_stream() {
        // S_VINTER on S_READ (key-only) inputs: runtime NotKeyValueStream.
        let p: Program = vec![
            read(0),
            vread(1),
            Instr::SVInter { a: sid(0), b: sid(1), op: ValueOp::Mac },
            free(0),
            free(1),
        ]
        .into_iter()
        .collect();
        let report = lint_default(&p);
        assert!(report.has_errors());
        assert!(predicted(&report).contains(&StreamException::NotKeyValueStream(sid(0))));
        // The (key, value) input is fine.
        assert!(!predicted(&report).contains(&StreamException::NotKeyValueStream(sid(1))));
    }

    #[test]
    fn fixture_key_set_output_is_key_only() {
        // An S_INTER output fed to S_VMERGE is key-only too.
        let p: Program = vec![
            read(0),
            read(1),
            Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::none() },
            vread(3),
            Instr::SVMerge { scale_a: 1.0, scale_b: 1.0, a: sid(2), b: sid(3), out: sid(4) },
            Instr::SFetch { sid: sid(4), offset: 0 },
            free(0),
            free(1),
            free(2),
            free(3),
            free(4),
        ]
        .into_iter()
        .collect();
        let report = lint_default(&p);
        assert!(predicted(&report).contains(&StreamException::NotKeyValueStream(sid(2))));
    }

    #[test]
    fn fixture_out_of_stream_registers() {
        // 17 simultaneously live streams on 16 registers.
        let mut p = Program::new();
        for n in 0..17 {
            p.push(read(n));
        }
        for n in 0..17 {
            p.push(free(n));
        }
        let report = lint_default(&p);
        assert!(report.has_errors());
        assert!(predicted(&report).contains(&StreamException::OutOfStreamRegisters));
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.code == LintCode::RegisterPressure)
            .expect("register-pressure diagnostic");
        assert_eq!(diag.severity, Severity::Error);
        // The 17th read (index 16) is the first to exceed capacity.
        assert_eq!(diag.at, Some(16));
    }

    #[test]
    fn pressure_is_a_note_under_virtualization() {
        let mut p = Program::new();
        for n in 0..17 {
            p.push(read(n));
        }
        for n in 0..17 {
            p.push(free(n));
        }
        let report = lint(&p, &LintConfig::default().virtualization(true));
        assert!(report.error_free());
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.code == LintCode::RegisterPressure)
            .expect("register-pressure diagnostic");
        assert_eq!(diag.severity, Severity::Note);
    }

    #[test]
    fn fixture_scalar_touches_stream() {
        // Two live streams over overlapping bytes: the static shadow of
        // ScalarTouchesStream (Section 5.1).
        let p: Program = vec![
            Instr::SRead { key_addr: 0x1000, len: 16, sid: sid(0), priority: Priority(0) },
            Instr::SRead { key_addr: 0x1020, len: 16, sid: sid(1), priority: Priority(0) },
            Instr::SInterC { a: sid(0), b: sid(1), bound: Bound::none() },
            free(0),
            free(1),
        ]
        .into_iter()
        .collect();
        let report = lint_default(&p);
        // Ranges: 0x1000..0x1040 and 0x1020..0x1060 overlap at 0x1020.
        assert!(predicted(&report).contains(&StreamException::ScalarTouchesStream(0x1020)));
    }

    #[test]
    fn disjoint_reads_do_not_alias() {
        let p: Program = vec![
            Instr::SRead { key_addr: 0x1000, len: 16, sid: sid(0), priority: Priority(0) },
            Instr::SRead { key_addr: 0x1040, len: 16, sid: sid(1), priority: Priority(0) },
            Instr::SInterC { a: sid(0), b: sid(1), bound: Bound::none() },
            free(0),
            free(1),
        ]
        .into_iter()
        .collect();
        assert!(lint_default(&p).is_empty());
    }

    // ---- warnings ----

    #[test]
    fn redefined_live_is_a_warning_not_an_error() {
        let p: Program = vec![read(0), read(0), free(0)].into_iter().collect();
        let report = lint_default(&p);
        assert!(report.error_free());
        assert!(report.diagnostics().iter().any(|d| d.code == LintCode::RedefinedLive));
    }

    #[test]
    fn zero_length_stream_warns() {
        let p: Program = vec![
            Instr::SRead { key_addr: 0x1000, len: 0, sid: sid(0), priority: Priority(0) },
            Instr::SFetch { sid: sid(0), offset: 0 },
            free(0),
        ]
        .into_iter()
        .collect();
        let report = lint_default(&p);
        assert!(report.error_free());
        assert!(report.diagnostics().iter().any(|d| d.code == LintCode::ZeroLengthStream));
    }

    #[test]
    fn dead_set_op_output_suggests_count_variant() {
        let p: Program = vec![
            read(0),
            read(1),
            Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::below(10) },
            free(0),
            free(1),
            free(2),
        ]
        .into_iter()
        .collect();
        let report = lint_default(&p);
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == LintCode::DeadStream)
            .expect("dead-stream diagnostic");
        assert!(d.message.contains("S_INTER.C"), "message: {}", d.message);
    }

    #[test]
    fn unused_read_warns() {
        let p: Program = vec![read(0), free(0)].into_iter().collect();
        let report = lint_default(&p);
        assert!(report.diagnostics().iter().any(|d| d.code == LintCode::UnusedRead));
    }

    #[test]
    fn missing_bound_fires_only_when_all_consumers_bounded() {
        // Unbounded S_INTER whose output feeds a bounded S_INTER.C.
        let p: Program = vec![
            read(0),
            read(1),
            read(3),
            Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::none() },
            Instr::SInterC { a: sid(2), b: sid(3), bound: Bound::below(8) },
            free(0),
            free(1),
            free(2),
            free(3),
        ]
        .into_iter()
        .collect();
        let report = lint_default(&p);
        assert!(report.diagnostics().iter().any(|d| d.code == LintCode::MissingBound));

        // Same shape, but the output is also fetched: no lint.
        let p2: Program = vec![
            read(0),
            read(1),
            read(3),
            Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::none() },
            Instr::SInterC { a: sid(2), b: sid(3), bound: Bound::below(8) },
            Instr::SFetch { sid: sid(2), offset: 0 },
            free(0),
            free(1),
            free(2),
            free(3),
        ]
        .into_iter()
        .collect();
        let r2 = lint_default(&p2);
        assert!(!r2.diagnostics().iter().any(|d| d.code == LintCode::MissingBound));
    }

    #[test]
    fn short_stream_threshold_tracks_hardware() {
        // 4 keys < the paper's 16-key refill line: SC-W204 fires, and
        // the message quotes the derived setup latency.
        let mut short = read(0);
        if let Instr::SRead { ref mut len, .. } = short {
            *len = 4;
        }
        let p: Program =
            vec![short, Instr::SFetch { sid: sid(0), offset: 0 }, free(0)].into_iter().collect();
        let report = lint_default(&p);
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == LintCode::ShortStream)
            .expect("short-stream diagnostic");
        assert_eq!(d.at, Some(0));
        assert!(d.message.contains("250"), "message: {}", d.message);

        // A wider line raises the threshold; a 4-byte line lowers it so
        // the same 4-key read is fine.
        let wide =
            LintConfig::default().perf_thresholds(config::PerfThresholds::derive(256, 4, 300));
        assert!(lint(&p, &wide)
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::ShortStream && d.message.contains("64 keys")));
        let narrow =
            LintConfig::default().perf_thresholds(config::PerfThresholds::derive(16, 4, 300));
        assert!(!lint(&p, &narrow).diagnostics().iter().any(|d| d.code == LintCode::ShortStream));

        // Length exactly at the threshold amortizes: the default 16-key
        // read helper stays clean.
        let p16: Program =
            vec![read(1), Instr::SFetch { sid: sid(1), offset: 0 }, free(1)].into_iter().collect();
        assert!(!lint_default(&p16).diagnostics().iter().any(|d| d.code == LintCode::ShortStream));
    }

    #[test]
    fn check_leaks_can_be_disabled_for_fragments() {
        let p: Program = vec![read(0)].into_iter().collect();
        assert!(lint_default(&p).has_errors());
        let report = lint(&p, &LintConfig::default().check_leaks(false).perf_lints(false));
        assert!(report.error_free(), "fragment mode should allow trailing live streams:\n{report}");
    }

    #[test]
    fn report_orders_by_instruction_index() {
        let p: Program = vec![
            Instr::SFetch { sid: sid(9), offset: 0 }, // E001 at 0
            read(0),                                  // leak defined at 1
        ]
        .into_iter()
        .collect();
        let report = lint(&p, &LintConfig::default().perf_lints(false));
        let ats: Vec<_> = report.diagnostics().iter().map(|d| d.at).collect();
        assert_eq!(ats, vec![Some(0), Some(1)]);
    }
}
