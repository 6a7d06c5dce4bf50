//! The verifier's report over the [`sc_isa::dataflow`] walk.
//!
//! The walk supplies the abstract state — each stream's SMT state
//! (live, freed, never defined), kind and length interval, the live
//! count after every instruction, and the scratchpad peak. This module
//! adds what depends on the [`VerifyConfig`]: the output allocator's
//! cursor, whose writeback regions follow the output length bounds and
//! are checked against the protected (read-only) ranges to prove
//! `SC-S310` statically, the register capacity, and the scratchpad
//! capacity. Freed is kept apart from never defined, so use-after-free
//! and double free carry their runtime codes (`SC-S303`, `SC-S301`).
//!
//! Findings at one instruction come in walk order: uses and frees,
//! value-operand kinds, the writeback, a redefinition, then pressure.

use crate::config::VerifyConfig;
use crate::domain::{Interval, Stride};
use sc_isa::dataflow::{DataflowResult, Fault, Operand};
use sc_isa::{Instr, Program};
use sc_lint::Diagnostic;
use sc_lint::LintCode::*;
use sc_lint::Severity::*;

/// Bytes the engine allocates for an output of at most `len_upper`
/// elements: 64-byte aligned (`Engine::set_op`), values doubling the
/// footprint for `S_VMERGE`. `None` when the size passes 2^64.
fn out_bytes(len_upper: u64, has_values: bool) -> Option<u64> {
    let per_elem = if has_values { 12 } else { 4 };
    (len_upper.saturating_mul(per_elem) | 63).checked_add(1)
}

/// Every violated obligation of `program` under `config`, as
/// sanitizer-coded diagnostics.
pub(crate) fn findings(
    program: &Program,
    flow: &DataflowResult,
    config: &VerifyConfig,
) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    let mut faults = flow.faults.iter().peekable();
    // `None` once a writeback passed 2^64: the allocator has wrapped.
    let mut cursor = Some(config.out_alloc_base);
    let mut writes = Interval::empty();
    let mut pressure_reported = false;

    for (at, (instr, step)) in program.iter().zip(&flow.steps).enumerate() {
        let m = instr.mnemonic();
        while let Some(f) =
            faults.next_if(|f| f.at() == Some(at) && !matches!(f, Fault::RedefinedLive { .. }))
        {
            let (code, sid, message) = match *f {
                Fault::UndefinedUse { sid, freed: false, .. } => {
                    (UseUndefined, sid, format!("{m} uses stream {sid}, which was never defined"))
                }
                Fault::UndefinedUse { sid, .. } => (
                    SanUseAfterFree,
                    sid,
                    format!(
                        "{m} uses stream {sid} after its S_FREE (runtime counterpart: SC-S303)"
                    ),
                ),
                Fault::FreeUnmapped { sid, freed: false, .. } => {
                    (FreeUnmapped, sid, format!("S_FREE of stream {sid}, which was never defined"))
                }
                Fault::FreeUnmapped { sid, .. } => (
                    SanDoubleFree,
                    sid,
                    format!("second S_FREE of stream {sid} (runtime counterpart: SC-S301)"),
                ),
                Fault::RedefinedLive { .. } | Fault::Leak { .. } => unreachable!("not a use"),
            };
            findings.push(Diagnostic::stream(code, Error, at, sid, message));
        }

        if matches!(instr, Instr::SVInter { .. } | Instr::SVMerge { .. }) {
            for (sid, op) in instr.uses_streams().into_iter().zip(step.operands) {
                if let Operand::Live { values: false, .. } = op {
                    let message = format!("value operation on key-only stream {sid}");
                    findings.push(Diagnostic::stream(KeyOnlyValueOp, Error, at, sid, message));
                }
            }
        }

        if let Instr::SInter { .. }
        | Instr::SSub { .. }
        | Instr::SMerge { .. }
        | Instr::SVMerge { .. } = instr
        {
            let bytes =
                out_bytes(step.out.max().unwrap_or(0), matches!(instr, Instr::SVMerge { .. }));
            // A region that would pass 2^64 wraps the allocator: it
            // counts as the whole address space.
            let end = cursor.zip(bytes).and_then(|(c, b)| c.checked_add(b));
            let w = match (cursor, end) {
                (Some(lo), Some(hi)) => Interval::new(lo, hi),
                _ => Interval::new(0, u64::MAX),
            };
            cursor = end;
            if let Some(p) = config.protected.iter().find(|p| w.overlaps(p)) {
                findings.push(
                    Diagnostic {
                        at: Some(at),
                        ..Diagnostic::sanitizer(
                            SanReadOnlyWrite,
                            format!(
                                "output-stream writeback {w} reaches read-only range {p} \
                                 (runtime counterpart: SC-S310)"
                            ),
                        )
                    }
                    .with_addr(w.lo),
                );
            }
            writes = writes.hull(&w);
        }

        if let Some(&Fault::RedefinedLive { sid, .. }) =
            faults.next_if(|f| matches!(f, Fault::RedefinedLive { at: a, .. } if *a == at))
        {
            let message = format!("stream {sid} redefined while live (missing S_FREE?)");
            findings.push(Diagnostic::stream(RedefinedLive, Warning, at, sid, message));
        }

        let live = step.live;
        if live > config.stream_registers && !pressure_reported {
            pressure_reported = true;
            let severity = if config.virtualization { Note } else { Error };
            let message = format!(
                "live-stream upper bound {live} exceeds the {} stream registers{}",
                config.stream_registers,
                if config.virtualization { " (virtualization spills; no fault)" } else { "" }
            );
            findings.push(Diagnostic {
                code: RegisterPressure,
                severity,
                at: Some(at),
                sid: None,
                addr: None,
                message,
            });
        }
    }

    // End-of-program leak proof (static counterpart of SC-S302, which
    // the sanitizer only checks in its *final* audit).
    for f in faults {
        if let Fault::Leak { sid, defined_at } = *f {
            let message = format!(
                "stream {sid} (defined at instruction {defined_at}) is still live at the end of \
                 the program (runtime counterpart: SC-S302)"
            );
            findings.push(Diagnostic::stream(SanStreamLeak, Error, defined_at, sid, message));
        }
    }

    // Source/output aliasing: a stream whose last definition reads a
    // source inside the output-allocator's write region can be
    // clobbered by a writeback (static counterpart of the SC-E006 alias
    // family). Real programs read graph/tensor data far below the
    // allocator base, so a hit means a miscomputed descriptor.
    for &(sid, def) in &flow.last_defs {
        let (Instr::SRead { key_addr, len, .. } | Instr::SVRead { key_addr, len, .. }) =
            program.instrs()[def]
        else {
            continue;
        };
        let src = Stride::contiguous(key_addr, u64::from(len), 4);
        if src.hull().overlaps(&writes) {
            let message = format!(
                "stream {sid}'s source {src} lies inside the output-writeback region {writes}; \
                 a writeback may clobber it"
            );
            findings.push(Diagnostic::stream(ScacheOverlap, Warning, def, sid, message));
        }
    }

    // Scratchpad bound (static counterpart of the SC-S312 accounting
    // audit): when the priority working set provably fits, the runtime
    // accountant can never legitimately exceed capacity.
    if flow.scratch_peak > config.scratchpad_bytes {
        let message = format!(
            "priority-stream working set may reach {} bytes, beyond the {}-byte \
             scratchpad; the bound is checked at runtime instead (SC-S312)",
            flow.scratch_peak, config.scratchpad_bytes
        );
        let bound = Diagnostic::sanitizer(SanScratchpadBounds, message);
        findings.push(Diagnostic { severity: Warning, ..bound });
    }

    findings
}
