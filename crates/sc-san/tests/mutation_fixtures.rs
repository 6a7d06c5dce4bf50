//! Mutation-fixture suite: one deliberately-broken model variant per
//! `SC-S3xx` code, each asserted to trip exactly its expected finding.
//!
//! Every fixture follows the same shape: build a healthy engine (or
//! memory model), assert the sanitizer is silent, apply one
//! `sabotage_*` hook reproducing a realistic bug class, and assert the
//! report now contains the one expected code — and nothing else, which
//! pins down checker precision as well as recall.

use sc_isa::{Bound, Priority, StreamId};
use sc_lint::{LintCode, Report};
use sparsecore::{Engine, SparseCoreConfig};

fn sid(n: u32) -> StreamId {
    StreamId::new(n)
}

fn engine() -> Engine {
    let e = Engine::new(SparseCoreConfig { sanitize: true, ..SparseCoreConfig::tiny() });
    assert!(e.sanitize_enabled(), "fixtures require the sanitizer");
    e
}

/// Assert the report's distinct codes are exactly `expected`.
fn assert_codes(report: &Report, expected: &[LintCode]) {
    let mut got: Vec<LintCode> = report.diagnostics().iter().map(|d| d.code).collect();
    got.dedup();
    assert_eq!(got, expected, "report was:\n{report}");
}

#[test]
fn s301_double_free_trips() {
    let mut e = engine();
    e.s_read(0x10_0000, &[1, 2, 3], sid(0), Priority(0)).unwrap();
    e.sabotage_drop_payload(sid(0)); // model half of the free already ran
    e.s_free(sid(0)).unwrap();
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanDoubleFree]);
    assert_eq!(r.diagnostics()[0].sid, Some(sid(0)));
}

#[test]
fn s302_stream_leak_trips() {
    let mut e = engine();
    e.s_read(0x10_0000, &[1, 2, 3], sid(0), Priority(0)).unwrap();
    e.s_read(0x20_0000, &[4, 5], sid(1), Priority(0)).unwrap();
    e.s_free(sid(1)).unwrap();
    e.finish();
    // Stream 0 was never freed: the mid-run audit is fine with that...
    assert!(e.sanitizer_report().is_empty());
    // ...but the end-of-workload audit is not.
    let r = e.sanitizer_final_report();
    assert_codes(&r, &[LintCode::SanStreamLeak]);
    assert_eq!(r.diagnostics()[0].sid, Some(sid(0)));
}

#[test]
fn s303_use_after_free_trips() {
    let mut e = engine();
    e.s_read(0x10_0000, &[1, 2, 3], sid(0), Priority(0)).unwrap();
    assert!(e.sanitizer_report().is_empty());
    e.sabotage_drop_payload(sid(0)); // payload gone, SMT entry still live
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanUseAfterFree]);
}

#[test]
fn s304_causality_trips() {
    let mut e = engine();
    // A synthetic SU event that completes before its operands are ready.
    e.san_observe_su_event(100, 40, 60);
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanCausality]);
    // And one that completes before it starts.
    e.san_observe_su_event(10, 50, 20);
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanCausality]);
}

#[test]
fn s305_clock_regression_trips() {
    let mut e = engine();
    e.s_read(0x10_0000, &(0..64).collect::<Vec<_>>(), sid(0), Priority(0)).unwrap();
    e.s_read(0x20_0000, &(0..64).collect::<Vec<_>>(), sid(1), Priority(0)).unwrap();
    e.s_inter_c(sid(0), sid(1), Bound::none()).unwrap(); // raises the clock
    assert!(e.sanitizer_report().is_empty());
    e.sabotage_rewind_clock();
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanClockRegression]);
}

#[test]
fn s306_cache_counter_drift_trips() {
    let mut e = engine();
    e.s_read(0x10_0000, &[1, 2, 3], sid(0), Priority(0)).unwrap();
    e.core_mut().mem_mut().sabotage_l1().sabotage_double_count_hit();
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanCacheCounters]);
    e.s_free(sid(0)).unwrap();
}

#[test]
fn s307_lru_duplicate_trips() {
    let mut e = engine();
    // Touch a line through the full hierarchy so there is something to
    // duplicate in L1.
    e.core_mut().load(0x5000);
    e.core_mut().mem_mut().sabotage_l1().sabotage_duplicate_line();
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanLruOrder]);
}

#[test]
fn s308_scache_slot_state_trips() {
    // Missed writeback: a slot accumulates a full line group without
    // releasing it.
    let mut e = engine();
    e.scache_sabotage_retain_pending();
    let r = e.sanitizer_report();
    assert!(
        r.diagnostics().iter().any(|d| d.code == LintCode::SanScacheSlotState),
        "expected SC-S308, got:\n{r}"
    );
}

#[test]
fn s309_scache_smt_desync_trips() {
    let mut e = engine();
    assert!(e.sanitizer_report().is_empty());
    e.sabotage_bind_ghost_slot(); // S-Cache binding with no SMT entry
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanScacheSmtDesync]);
}

#[test]
fn s310_readonly_write_trips() {
    let mut e = engine();
    // Declare a "graph" range read-only, then misdirect the output
    // allocator into it: the next set operation's writeback is a
    // cross-core hazard.
    e.protect_range(0x2000_0000, 0x3000_0000);
    e.s_read(0x10_0000, &(0..64).collect::<Vec<_>>(), sid(0), Priority(0)).unwrap();
    e.s_read(0x20_0000, &(0..64).collect::<Vec<_>>(), sid(1), Priority(0)).unwrap();
    assert!(e.sanitizer_report().is_empty());
    e.sabotage_redirect_out_alloc(0x2000_4000);
    e.s_inter(sid(0), sid(1), sid(2), Bound::none()).unwrap();
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanReadOnlyWrite]);
    assert_eq!(r.diagnostics()[0].addr, Some(0x2000_4000));
}

#[test]
fn s311_rollback_drift_trips() {
    let mut e = engine();
    e.record_trace();
    e.s_read(0x10_0000, &[1, 2, 3], sid(0), Priority(0)).unwrap();
    let cp = e.checkpoint();
    e.s_read(0x20_0000, &[2, 3], sid(1), Priority(0)).unwrap();
    e.s_inter_c(sid(0), sid(1), Bound::none()).unwrap();
    e.sabotage_skip_trace_restore(); // rollback "forgets" the trace
    e.rollback(cp);
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanRollbackDrift]);
}

#[test]
fn s312_scratchpad_bounds_trips() {
    let mut e = engine();
    // Admit a stream to the scratchpad (priority > 0), then leak bytes.
    e.s_read(0x10_0000, &[1, 2, 3, 4], sid(0), Priority(3)).unwrap();
    assert!(e.sanitizer_report().is_empty());
    e.scratchpad_sabotage_leak_bytes(64);
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanScratchpadBounds]);
    e.s_free(sid(0)).unwrap();
}

#[test]
fn s313_stats_conservation_trips() {
    let mut e = engine();
    e.s_read(0x10_0000, &[1, 2, 3], sid(0), Priority(0)).unwrap();
    assert!(e.sanitizer_report().is_empty());
    e.stats_mut().reads += 1; // a read the models never saw
    let r = e.sanitizer_report();
    assert_codes(&r, &[LintCode::SanStatsConservation]);
    e.s_free(sid(0)).unwrap();
}

/// The flip side of the suite: a full healthy workload keeps every
/// checker silent, end to end.
#[test]
fn healthy_workload_stays_silent() {
    let mut e = engine();
    e.record_trace();
    for n in 0..4u32 {
        let keys: Vec<u32> = (n..n + 40).collect();
        e.s_read(0x10_0000 + u64::from(n) * 0x1000, &keys, sid(n), Priority(2)).unwrap();
    }
    e.s_inter(sid(0), sid(1), sid(4), Bound::none()).unwrap();
    e.s_sub(sid(2), sid(3), sid(5), Bound::none()).unwrap();
    e.s_merge_c(sid(4), sid(5)).unwrap();
    let cp = e.checkpoint();
    e.s_inter_c(sid(0), sid(2), Bound::below(30)).unwrap();
    e.rollback(cp);
    for n in [0u32, 1, 2, 3, 4, 5] {
        e.s_free(sid(n)).unwrap();
    }
    e.finish();
    let r = e.sanitizer_final_report();
    assert!(r.is_empty(), "healthy run reported:\n{r}");
}

/// Sanitizer findings flow through the standard report machinery:
/// JSON and SARIF render them, and `has_errors` gates on them.
#[test]
fn findings_render_through_lint_machinery() {
    let mut e = engine();
    e.sabotage_bind_ghost_slot();
    let r = e.sanitizer_report();
    assert!(r.has_errors());
    assert!(r.to_json().contains("\"code\":\"SC-S309\""));
    let sarif = r.to_sarif("engine-audit");
    assert!(sarif.contains("\"ruleId\":\"SC-S309\""));
    assert!(sarif.contains("san-scache-smt-desync"));
}
