//! The lint report: maps the facts of the [`sc_isa::dataflow`] walk to
//! diagnostics, one family at a time.
//!
//! Families run in a fixed order — liveness, kinds, pressure, alias,
//! then perf — and [`Report::new`](crate::Report::new) keeps that order
//! among the findings at one instruction. A fault reported by one family
//! does not suppress another, so a single bad instruction can carry
//! several diagnostics.

use crate::config::{LintConfig, PerfThresholds};
use crate::diag::Diagnostic;
use crate::diag::LintCode::*;
use crate::diag::Severity::*;
use sc_isa::dataflow::{DataflowResult, Fault, Operand};
use sc_isa::{Instr, Program};

/// Every lint family over one walk.
pub(crate) fn diagnostics(
    program: &Program,
    flow: &DataflowResult,
    config: &LintConfig,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    liveness(flow, config, &mut diags);
    kinds(program, flow, &mut diags);
    pressure(flow, config, &mut diags);
    alias(program, flow, &mut diags);
    if config.perf_lints {
        diags.extend(short_streams(program, config.perf));
        perf(program, flow, &mut diags);
    }
    diags
}

/// Def-use discipline: use of a stream that is not live (`SC-E001`),
/// free of one (`SC-E002`), leak at end (`SC-E003`) and redefinition
/// of a live stream (`SC-W101`).
fn liveness(flow: &DataflowResult, config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    for fault in &flow.faults {
        let (code, severity, at, sid, message) = match *fault {
            Fault::UndefinedUse { at, sid, .. } => (
                UseUndefined,
                Error,
                at,
                sid,
                format!("use of stream {sid}, which is not live here"),
            ),
            Fault::FreeUnmapped { at, sid, .. } => (
                FreeUnmapped,
                Error,
                at,
                sid,
                format!(
                    "S_FREE of stream {sid}, which is not live (never defined or already freed)"
                ),
            ),
            Fault::RedefinedLive { at, sid } => (
                RedefinedLive,
                Warning,
                at,
                sid,
                format!("stream {sid} redefined while still live; missing S_FREE?"),
            ),
            Fault::Leak { .. } if !config.check_leaks => continue,
            Fault::Leak { sid, defined_at } => (
                LeakAtEnd,
                Error,
                defined_at,
                sid,
                format!("stream {sid} defined here is never freed"),
            ),
        };
        diags.push(Diagnostic::stream(code, severity, at, sid, message));
    }
}

/// `S_VINTER`/`S_VMERGE` inputs that are live key-only streams
/// (`SC-E004`), the condition that raises `NotKeyValueStream` at
/// runtime. Inputs that are not live are already an `SC-E001`.
fn kinds(program: &Program, flow: &DataflowResult, diags: &mut Vec<Diagnostic>) {
    for (at, (i, step)) in program.iter().zip(&flow.steps).enumerate() {
        if !matches!(i, Instr::SVInter { .. } | Instr::SVMerge { .. }) {
            continue;
        }
        for (sid, op) in i.uses_streams().into_iter().zip(step.operands) {
            if let Operand::Live { values: false, .. } = op {
                diags.push(Diagnostic::stream(
                    KeyOnlyValueOp,
                    Error,
                    at,
                    sid,
                    format!(
                        "{} input {sid} is a key-only stream; value computation requires a (key, value) stream (S_VREAD or S_VMERGE output)",
                        i.mnemonic()
                    ),
                ));
            }
        }
    }
}

/// Peak register occupancy beyond the SMT capacity (`SC-E005`): an
/// error predicting `OutOfStreamRegisters`, or a note when
/// virtualization spills the excess. One diagnostic per program, at the
/// first instruction that exceeds the capacity.
fn pressure(flow: &DataflowResult, config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    let capacity = config.stream_registers;
    let Some(first_over) = flow.steps.iter().position(|s| s.occupancy() > capacity) else {
        return;
    };
    let peak = flow.peak_occupancy();
    let (severity, consequence) = if config.virtualization {
        (Note, "SMT virtualization will spill the excess, costing cycles")
    } else {
        (Error, "this predicts OutOfStreamRegisters without SMT virtualization")
    };
    diags.push(Diagnostic {
        code: RegisterPressure,
        severity,
        at: Some(first_over),
        sid: None,
        addr: None,
        message: format!(
            "peak of {peak} simultaneously live streams exceeds the {capacity} stream registers (first exceeded here); {consequence}"
        ),
    });
}

/// Zero-length reads (`SC-W102`), whose first fetch is already `EOS`,
/// and live streams whose pinned source ranges overlap (`SC-E006`): the
/// shared bytes are S-Cache-resident under two mappings, the static
/// shadow of `ScalarTouchesStream` (Section 5.1). Overlap is legal for
/// pure stream-side reads, so it is a warning.
fn alias(program: &Program, flow: &DataflowResult, diags: &mut Vec<Diagnostic>) {
    let mut overlaps = flow.overlaps.iter().peekable();
    for (at, i) in program.iter().enumerate() {
        let (Instr::SRead { key_addr, len, sid, .. } | Instr::SVRead { key_addr, len, sid, .. }) =
            *i
        else {
            continue;
        };
        if len == 0 {
            let message = format!(
                "{} defines zero-length stream {sid}; its first fetch is already EOS",
                i.mnemonic()
            );
            diags.push(
                Diagnostic::stream(ZeroLengthStream, Warning, at, sid, message).with_addr(key_addr),
            );
        }
        while let Some(o) = overlaps.next_if(|o| o.at == at) {
            let message = format!(
                "source range of stream {sid} overlaps live stream {} at {:#x}..{:#x}; the shared bytes are S-Cache-resident under two mappings and scalar access to them faults",
                o.other, o.lo, o.hi
            );
            diags
                .push(Diagnostic::stream(ScacheOverlap, Warning, at, sid, message).with_addr(o.lo));
        }
    }
}

/// `SC-W204`: reads statically too short to amortize their setup line
/// fetch. The thresholds derive from the hardware config; `sc-cost`
/// reports the same findings by calling this function. Zero-length
/// reads are `SC-W102`'s concern, not a perf smell.
pub fn short_streams(program: &Program, t: PerfThresholds) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (at, i) in program.iter().enumerate() {
        if let Instr::SRead { len, sid, .. } | Instr::SVRead { len, sid, .. } = *i {
            if len > 0 && len < t.min_amortized_len {
                let message = format!(
                    "stream of {len} keys cannot amortize its setup: one refill line \
                     supplies {} keys for up to {} setup cycles",
                    t.min_amortized_len, t.setup_cycles
                );
                diags.push(Diagnostic::stream(ShortStream, Warning, at, sid, message));
            }
        }
    }
    diags
}

/// Wasted work the paper's compiler avoids by hand, judged per
/// definition from the uses the walk recorded:
///
/// * `SC-W201` dead-stream — a set-operation output never read; the
///   `.C` variants exist so the Stream Unit never materializes it.
/// * `SC-W202` unused-read — a read never consumed.
/// * `SC-W203` missing-bound — an unbounded `S_INTER`/`S_SUB` whose
///   output feeds only bounded consumers (Figure 2(b)'s
///   BoundedIntersect).
fn perf(program: &Program, flow: &DataflowResult, diags: &mut Vec<Diagnostic>) {
    // (uses, bounded uses) of each definition while it was live.
    let mut uses = vec![(0u32, 0u32); program.len()];
    for (i, step) in program.iter().zip(&flow.steps) {
        let bounded = match *i {
            Instr::SInter { bound, .. }
            | Instr::SInterC { bound, .. }
            | Instr::SSub { bound, .. }
            | Instr::SSubC { bound, .. } => bound.get().is_some(),
            Instr::SNestInter { .. } => true,
            Instr::SFree { .. } => continue,
            _ => false,
        };
        for op in step.operands {
            if let Operand::Live { def, .. } = op {
                uses[def].0 += 1;
                uses[def].1 += u32::from(bounded);
            }
        }
    }
    for (at, i) in program.iter().enumerate() {
        let Some(sid) = i.defines_stream() else { continue };
        let (n, bounded) = uses[at];
        let m = i.mnemonic();
        let (count_variant, unbounded) = match *i {
            Instr::SInter { bound, .. } => (Some("S_INTER.C"), bound.get().is_none()),
            Instr::SSub { bound, .. } => (Some("S_SUB.C"), bound.get().is_none()),
            Instr::SMerge { .. } => (Some("S_MERGE.C"), false),
            _ => (None, false),
        };
        let (code, message) = if n == 0 && matches!(i, Instr::SRead { .. } | Instr::SVRead { .. }) {
            (UnusedRead, format!("stream {sid} loaded by {m} is never consumed before being freed"))
        } else if n == 0 {
            let suggestion = count_variant
                .map(|c| format!("; if only the count matters, {c} avoids materializing it"))
                .unwrap_or_default();
            (DeadStream, format!("output {sid} of {m} is never read, only freed{suggestion}"))
        } else if unbounded && bounded == n {
            (
                MissingBound,
                format!(
                    "unbounded {m} output {sid} feeds only bounded consumers; hoisting the bound into the producer cuts work (BoundedIntersect)"
                ),
            )
        } else {
            continue;
        };
        diags.push(Diagnostic::stream(code, Warning, at, sid, message));
    }
}
