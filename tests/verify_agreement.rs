//! Static/dynamic agreement for the sanitizer invariants: when the
//! runtime sanitizer (`sparsecore::sanitize`, `SC-S3xx`) fires on a program, the
//! abstract-interpretation verifier (`sc-verify`) must have predicted
//! the *exact same code* statically — and a `VERIFIED` verdict must
//! mean the sanitizer never fires.
//!
//! Two directions:
//!
//! 1. **Mutation fixtures** — each fixture plants one invariant
//!    violation (leak, double free, use after free, read-only write,
//!    overlapping partition plan), asserts `sc-verify` rejects the
//!    program with the matching `SC-S3xx` code, then runs it on a
//!    sanitized engine and asserts the runtime sanitizer reports the
//!    same code.
//! 2. **Soundness of `VERIFIED`** — property-tested: randomly built
//!    well-formed programs that verify clean run on a sanitized engine
//!    with an empty final sanitizer report.

use proptest::prelude::*;
use sc_isa::{Bound, Instr, Key, Priority, Program, StreamId, ValueOp};
use sc_lint::LintCode;
use sc_verify::{verify_chunk_plan, verify_program, Verdict, VerifyConfig};
use sparsecore::{chunks, Chunk, Engine, Interpreter, MemImage, SparseCoreConfig};

/// Number of planted key/value arrays the fixture programs draw from.
const POOL: usize = 6;

fn key_addr(slot: usize) -> u64 {
    0x1000 * (slot as u64 + 1)
}

fn val_addr(slot: usize) -> u64 {
    0x100_000 + 0x1000 * (slot as u64 + 1)
}

fn slot_len(slot: usize) -> u32 {
    4 + 2 * slot as u32
}

fn pool_image() -> MemImage {
    let mut img = MemImage::new();
    for slot in 0..POOL {
        let keys: Vec<Key> = (0..slot_len(slot)).map(|i| slot as u32 * 3 + i * 5).collect();
        let vals = keys.iter().map(|&k| f64::from(k) * 0.25 + 1.0).collect();
        img.add_keys(key_addr(slot), keys);
        img.add_values(val_addr(slot), vals);
    }
    img
}

fn sread(slot: usize, sid: u32) -> Instr {
    Instr::SRead {
        key_addr: key_addr(slot),
        len: slot_len(slot),
        sid: StreamId::new(sid),
        priority: Priority(0),
    }
}

fn svread(slot: usize, sid: u32) -> Instr {
    Instr::SVRead {
        key_addr: key_addr(slot),
        len: slot_len(slot),
        sid: StreamId::new(sid),
        val_addr: val_addr(slot),
        priority: Priority(0),
    }
}

fn sfree(sid: u32) -> Instr {
    Instr::SFree { sid: StreamId::new(sid) }
}

/// Run `program` on a sanitized paper engine (optionally prepared by
/// `setup`) and return the codes the runtime sanitizer reported. The
/// run may abort with an architectural exception — the sanitizer
/// findings recorded up to (and at) the faulting instruction survive.
fn runtime_codes(program: &Program, setup: impl FnOnce(&mut Engine)) -> Vec<LintCode> {
    let mut cfg = SparseCoreConfig::paper();
    cfg.sanitize = true;
    let mut engine = Engine::new(cfg);
    setup(&mut engine);
    let image = pool_image();
    let _ = Interpreter::new(&mut engine, &image).run(program);
    engine.sanitizer_final_report().diagnostics().iter().map(|d| d.code).collect()
}

/// Assert the static verdict rejects with `code` and the runtime
/// sanitizer fires the same `code`.
fn assert_agreement(
    program: &Program,
    vconfig: &VerifyConfig,
    code: LintCode,
    setup: impl FnOnce(&mut Engine),
) -> Verdict {
    let verdict = verify_program(program, vconfig);
    let static_codes: Vec<LintCode> = verdict.report.diagnostics().iter().map(|d| d.code).collect();
    assert!(
        static_codes.contains(&code),
        "sc-verify did not predict {code:?}; found {static_codes:?}\n{}",
        verdict.report
    );
    let runtime = runtime_codes(program, setup);
    assert!(runtime.contains(&code), "runtime sanitizer did not fire {code:?}; fired {runtime:?}");
    verdict
}

// ---------------------------------------------------------------------
// SC-S302: stream leaks
// ---------------------------------------------------------------------

#[test]
fn fixture_01_leaked_key_stream_is_s302_both_ways() {
    let p: Program = [sread(0, 0)].into_iter().collect();
    assert_agreement(&p, &VerifyConfig::paper(), LintCode::SanStreamLeak, |_| {});
}

#[test]
fn fixture_02_leaked_value_stream_is_s302_both_ways() {
    let p: Program = [svread(1, 2)].into_iter().collect();
    assert_agreement(&p, &VerifyConfig::paper(), LintCode::SanStreamLeak, |_| {});
}

#[test]
fn fixture_03_leaked_set_op_output_is_s302_both_ways() {
    let p: Program = [
        sread(0, 0),
        sread(1, 1),
        Instr::SInter {
            a: StreamId::new(0),
            b: StreamId::new(1),
            out: StreamId::new(2),
            bound: Bound::none(),
        },
        sfree(0),
        sfree(1),
        // stream 2 (the intersection result) is never freed
    ]
    .into_iter()
    .collect();
    assert_agreement(&p, &VerifyConfig::paper(), LintCode::SanStreamLeak, |_| {});
}

// ---------------------------------------------------------------------
// SC-S301: double free
// ---------------------------------------------------------------------

#[test]
fn fixture_04_double_free_is_s301_both_ways() {
    let p: Program = [sread(0, 0), sfree(0), sfree(0)].into_iter().collect();
    assert_agreement(&p, &VerifyConfig::paper(), LintCode::SanDoubleFree, |_| {});
}

#[test]
fn fixture_05_double_free_of_value_stream_is_s301_both_ways() {
    let p: Program = [svread(2, 5), sfree(5), sfree(5)].into_iter().collect();
    assert_agreement(&p, &VerifyConfig::paper(), LintCode::SanDoubleFree, |_| {});
}

#[test]
fn free_of_never_defined_stream_is_not_a_sanitizer_finding() {
    // Negative control: freeing a stream that never existed is only the
    // architectural FreeUnmapped exception — neither the static verifier
    // nor the runtime sanitizer may call it a double free.
    let p: Program = [sfree(7)].into_iter().collect();
    let verdict = verify_program(&p, &VerifyConfig::paper());
    assert!(verdict.report.diagnostics().iter().all(|d| d.code != LintCode::SanDoubleFree));
    assert!(verdict.report.diagnostics().iter().any(|d| d.code == LintCode::FreeUnmapped));
    assert!(runtime_codes(&p, |_| {}).is_empty());
}

// ---------------------------------------------------------------------
// SC-S303: use after free
// ---------------------------------------------------------------------

#[test]
fn fixture_06_fetch_after_free_is_s303_both_ways() {
    let p: Program = [sread(0, 0), sfree(0), Instr::SFetch { sid: StreamId::new(0), offset: 0 }]
        .into_iter()
        .collect();
    assert_agreement(&p, &VerifyConfig::paper(), LintCode::SanUseAfterFree, |_| {});
}

#[test]
fn fixture_07_set_op_on_freed_operand_is_s303_both_ways() {
    let p: Program = [
        sread(0, 0),
        sread(1, 1),
        sfree(1),
        Instr::SInterC { a: StreamId::new(0), b: StreamId::new(1), bound: Bound::none() },
        sfree(0),
    ]
    .into_iter()
    .collect();
    assert_agreement(&p, &VerifyConfig::paper(), LintCode::SanUseAfterFree, |_| {});
}

#[test]
fn fixture_08_value_op_on_freed_operand_is_s303_both_ways() {
    let p: Program = [
        svread(0, 0),
        svread(1, 1),
        sfree(1),
        Instr::SVInter { a: StreamId::new(0), b: StreamId::new(1), op: ValueOp::Mac },
        sfree(0),
    ]
    .into_iter()
    .collect();
    assert_agreement(&p, &VerifyConfig::paper(), LintCode::SanUseAfterFree, |_| {});
}

#[test]
fn use_of_never_defined_stream_is_not_a_sanitizer_finding() {
    // Negative control for S303, mirroring the S301 one.
    let p: Program = [Instr::SFetch { sid: StreamId::new(9), offset: 0 }].into_iter().collect();
    let verdict = verify_program(&p, &VerifyConfig::paper());
    assert!(verdict.report.diagnostics().iter().all(|d| d.code != LintCode::SanUseAfterFree));
    assert!(verdict.report.diagnostics().iter().any(|d| d.code == LintCode::UseUndefined));
    assert!(runtime_codes(&p, |_| {}).is_empty());
}

// ---------------------------------------------------------------------
// SC-S310: writes into read-only ranges
// ---------------------------------------------------------------------

#[test]
fn fixture_09_writeback_into_protected_range_is_s310_both_ways() {
    // The engine allocates set-op output regions from 0xC000_0000; a
    // read-only range covering that region makes the writeback a
    // cross-core hazard. The static verifier models the same allocator.
    let p: Program = [
        sread(0, 0),
        sread(1, 1),
        Instr::SInter {
            a: StreamId::new(0),
            b: StreamId::new(1),
            out: StreamId::new(2),
            bound: Bound::none(),
        },
        sfree(0),
        sfree(1),
        sfree(2),
    ]
    .into_iter()
    .collect();
    let vcfg = VerifyConfig::paper().protect(0xC000_0000, 0xC000_1000);
    assert_agreement(&p, &vcfg, LintCode::SanReadOnlyWrite, |e| {
        e.protect_range(0xC000_0000, 0xC000_1000);
    });
}

#[test]
fn fixture_10_redirected_out_alloc_into_graph_is_s310_both_ways() {
    // The engine's out-alloc sabotage redirects the writeback allocator into
    // a protected "graph" region; the verifier mirrors the redirect with
    // the same configured base and predicts the same hazard.
    let p: Program = [
        svread(0, 0),
        svread(1, 1),
        Instr::SVMerge {
            scale_a: 1.0,
            scale_b: 1.0,
            a: StreamId::new(0),
            b: StreamId::new(1),
            out: StreamId::new(2),
        },
        sfree(0),
        sfree(1),
        sfree(2),
    ]
    .into_iter()
    .collect();
    let vcfg = VerifyConfig::paper().with_out_alloc(0x9000_0000).protect(0x9000_0000, 0x9001_0000);
    assert_agreement(&p, &vcfg, LintCode::SanReadOnlyWrite, |e| {
        e.protect_range(0x9000_0000, 0x9001_0000);
        e.sabotage_redirect_out_alloc(0x9000_0000);
    });
}

// ---------------------------------------------------------------------
// SC-S310 (plan form): overlapping partition plans
// ---------------------------------------------------------------------

#[test]
fn fixture_11_overlapping_chunk_plan_is_refused_statically_and_at_the_gate() {
    // Two chunks both claim vertex 5: the static plan verifier refutes
    // disjointness, and the sc-gpm chunk-plan driver refuses to launch.
    use sc_gpm::plan::Induced;
    use sc_gpm::{count_multicore, Pattern, Plan};
    use sparsecore::Partition;

    let overlapping =
        vec![Chunk { index: 0, start: 0, end: 6 }, Chunk { index: 1, start: 5, end: 10 }];
    let verdict = verify_chunk_plan(&overlapping, 10);
    assert!(!verdict.verified());
    assert!(verdict.findings.iter().any(|d| d.code == LintCode::SanReadOnlyWrite));

    let g = sc_graph::Dataset::Citeseer.build();
    let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
    let bad: Vec<Chunk> = vec![
        Chunk { index: 0, start: 0, end: 6 },
        Chunk { index: 1, start: 5, end: g.num_vertices() },
    ];
    let (run, report) = count_multicore(
        &g,
        &plan,
        SparseCoreConfig::paper(),
        true,
        2,
        &Partition::Dynamic(bad),
        sc_probe::Probe::off(),
    );
    assert_eq!(run.count, 0, "overlapping plan must not execute");
    assert!(report.diagnostics().iter().any(|d| d.code == LintCode::SanReadOnlyWrite));
}

#[test]
fn fixture_12_gapped_chunk_plan_is_refused_statically_and_at_the_gate() {
    // Coverage is the dual obligation: a plan with a hole silently drops
    // work, so both the verifier and the gate refuse it.
    use sc_gpm::plan::Induced;
    use sc_gpm::{count_multicore, Pattern, Plan};
    use sparsecore::Partition;

    let gapped = vec![Chunk { index: 0, start: 0, end: 4 }, Chunk { index: 1, start: 6, end: 10 }];
    let verdict = verify_chunk_plan(&gapped, 10);
    assert!(!verdict.verified());

    let g = sc_graph::Dataset::Citeseer.build();
    let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
    let bad: Vec<Chunk> = vec![
        Chunk { index: 0, start: 0, end: 4 },
        Chunk { index: 1, start: 6, end: g.num_vertices() },
    ];
    let (run, _) = count_multicore(
        &g,
        &plan,
        SparseCoreConfig::paper(),
        true,
        2,
        &Partition::Dynamic(bad),
        sc_probe::Probe::off(),
    );
    assert_eq!(run.count, 0, "gapped plan must not execute");
}

// ---------------------------------------------------------------------
// Soundness of VERIFIED: property-tested
// ---------------------------------------------------------------------

/// Deterministically expand an action script into a well-formed program
/// (every use defined, nothing double-freed, everything freed at the
/// end) — the same construction `tests/lint_runtime_agreement.rs` uses.
fn build_clean_program(actions: &[(u8, u8, u8)], capacity: usize) -> Program {
    let mut instrs: Vec<Instr> = Vec::new();
    let mut live: Vec<(StreamId, bool)> = Vec::new();
    let mut free_ids: Vec<u32> = (0..capacity as u32).rev().collect();
    for &(op, x, y) in actions {
        let n = live.len();
        match op % 6 {
            0 if !free_ids.is_empty() => {
                let slot = x as usize % POOL;
                let sid = free_ids.pop().expect("checked");
                instrs.push(sread(slot, sid));
                live.push((StreamId::new(sid), false));
            }
            1 if !free_ids.is_empty() => {
                let slot = y as usize % POOL;
                let sid = free_ids.pop().expect("checked");
                instrs.push(svread(slot, sid));
                live.push((StreamId::new(sid), true));
            }
            2 if n > 0 => {
                let a = live[x as usize % n].0;
                let b = live[y as usize % n].0;
                instrs.push(Instr::SInterC { a, b, bound: Bound::none() });
            }
            3 if n > 0 && !free_ids.is_empty() => {
                let a = live[x as usize % n].0;
                let b = live[y as usize % n].0;
                let out = StreamId::new(free_ids.pop().expect("checked"));
                instrs.push(Instr::SInter { a, b, out, bound: Bound::none() });
                live.push((out, false));
            }
            4 if n > 0 => {
                let sid = live[x as usize % n].0;
                instrs.push(Instr::SFetch { sid, offset: u32::from(y) % 4 });
            }
            5 if n > 0 => {
                let (sid, _) = live.remove(x as usize % n);
                instrs.push(Instr::SFree { sid });
                free_ids.push(sid.raw());
            }
            _ => {}
        }
    }
    for (sid, _) in live {
        instrs.push(Instr::SFree { sid });
    }
    instrs.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `VERIFIED` program never trips the runtime sanitizer: the
    /// final report of a sanitized engine run is empty.
    #[test]
    fn verified_programs_never_trip_the_sanitizer(
        actions in proptest::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 0..40),
    ) {
        let program = build_clean_program(&actions, 16);
        let verdict = verify_program(&program, &VerifyConfig::paper());
        prop_assert!(
            verdict.verified(),
            "builder emitted a rejected program:\n{}",
            verdict.report
        );
        let fired = runtime_codes(&program, |_| {});
        prop_assert!(fired.is_empty(), "sanitizer fired on a VERIFIED program: {fired:?}");
    }

    /// Every well-formed chunk partition of any (total, chunk) shape
    /// proves disjoint+covering, structurally.
    #[test]
    fn generated_chunk_plans_always_verify(total in 0usize..5000, chunk in 1usize..512) {
        let plan = chunks(total, chunk);
        let verdict = verify_chunk_plan(&plan, total);
        prop_assert!(verdict.verified(), "chunks({total}, {chunk}) rejected");
    }
}
