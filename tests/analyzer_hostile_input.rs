//! The static analyzers survive hostile programs and flags: no address,
//! length, byte or cycle arithmetic overflows, whatever the `.sasm`
//! input says. Run in a debug build, where an overflow panics.
//!
//! Three reproductions pin the inputs that used to panic, and a property
//! test runs `lint`, `verify_program`, `cost_program`, `validate` and
//! `max_live_streams` over arbitrary programs whose addresses, lengths
//! and output bases crowd the top of their ranges.

use proptest::prelude::*;
use sc_cost::cost_program;
use sc_isa::{Bound, GfrSet, Instr, Priority, Program, StreamId, ValueOp};
use sc_lint::{lint, LintCode, LintConfig};
use sc_verify::{verify_program, VerifyConfig};
use sparsecore::SparseCoreConfig;

fn parse(text: &str) -> Program {
    sc_isa::parse_program(text).expect("program parses")
}

#[test]
fn read_at_the_top_of_the_address_space_lints() {
    let p = parse("S_READ 0xfffffffffffffff0, 16, s0, 0\nS_READ 0xfffffffffffffff8, 16, s1, 0\n");
    let report = lint(&p, &LintConfig::default());
    let overlap = report
        .diagnostics()
        .iter()
        .find(|d| d.code == LintCode::ScacheOverlap)
        .expect("the two ranges share their last bytes");
    assert_eq!(overlap.addr, Some(0xffff_ffff_ffff_fff8));
}

#[test]
fn writeback_past_the_top_covers_the_whole_address_space() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs/tc_plan0.sasm"),
    )
    .expect("read programs/tc_plan0.sasm");
    let p = parse(&text);
    let base = VerifyConfig::paper().with_out_alloc(0xffff_ffff_ffff_ff00);
    assert!(verify_program(&p, &base).verified());
    // The 256-byte output region would end at 2^64: the allocator wraps,
    // so the low protected range is reachable.
    let v = verify_program(&p, &base.protect(0, 0x1000));
    assert_eq!(v.status(), "REJECTED");
    assert!(v.report.diagnostics().iter().any(|d| d.code == LintCode::SanReadOnlyWrite));
}

/// Two maximal reads, then 40 rounds of merges that double the length
/// bounds until they saturate.
fn merge_chain() -> Program {
    let mut text =
        String::from("S_READ 0x1000, 4294967295, s0, 0\nS_READ 0x100000000, 4294967295, s1, 0\n");
    for _ in 0..40 {
        text.push_str(
            "S_MERGE s0, s1, s2\nS_FREE s1\nS_MERGE s2, s0, s1\nS_FREE s0\nS_MERGE s1, s2, s0\nS_FREE s2\n",
        );
    }
    text.push_str("S_FREE s0\nS_FREE s1\n");
    parse(&text)
}

#[test]
fn saturating_merge_chain_verifies_and_costs() {
    let p = merge_chain();
    let v = verify_program(&p, &VerifyConfig::paper());
    assert!(v.verified(), "{}", v.report);
    for cfg in [SparseCoreConfig::paper(), SparseCoreConfig::tiny()] {
        let c = cost_program(&p, &cfg);
        assert!(!c.bounded(), "lengths past u32::MAX have no finite cycle bound");
        assert!(c.cost.cycles.lower > 0);
    }
}

/// Half of the addresses within 2^36 bytes of the top of the address
/// space: uniform `u64`s almost never land there.
fn addr() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), (0u64..=1 << 36).prop_map(|d| u64::MAX - d)]
}

/// Half of the lengths maximal.
fn len() -> impl Strategy<Value = u32> {
    prop_oneof![any::<u32>(), Just(u32::MAX)]
}

/// Arbitrary programs over stream IDs below 20 and every mnemonic. When
/// `latest` is set, operands are the two most recent outputs, so merge
/// chains compound their length bounds.
fn program() -> impl Strategy<Value = Program> {
    let raw = (
        0u8..14,
        addr(),
        addr(),
        len(),
        (0u32..20, 0u32..20, 0u32..20),
        (any::<bool>(), any::<u32>()),
    );
    proptest::collection::vec(raw, 0..201).prop_map(|raw| {
        let mut recent: Vec<StreamId> = Vec::new();
        let mut p = Program::new();
        for (op, addr, val_addr, len, (x, y, z), (latest, k)) in raw {
            let pick = |n: u32, back: usize| match recent.len() {
                len if latest && len > back => recent[len - 1 - back],
                _ => StreamId::new(n),
            };
            let (a, b, out, sid) = (pick(x, 0), pick(y, 1), StreamId::new(z), StreamId::new(x));
            let bound = if k % 2 == 0 { Bound::none() } else { Bound::below(k) };
            let priority = Priority(k % 4);
            let instr = match op {
                0 => Instr::SRead { key_addr: addr, len, sid, priority },
                1 => Instr::SVRead { key_addr: addr, len, sid, val_addr, priority },
                2 => Instr::SFree { sid: a },
                3 => Instr::SFetch { sid: a, offset: k },
                4 => Instr::SInter { a, b, out, bound },
                5 => Instr::SInterC { a, b, bound },
                6 => Instr::SSub { a, b, out, bound },
                7 => Instr::SSubC { a, b, bound },
                8 => Instr::SMerge { a, b, out },
                9 => Instr::SMergeC { a, b },
                10 => Instr::SVInter { a, b, op: ValueOp::Mac },
                11 => Instr::SVMerge { scale_a: f64::from(k), scale_b: -1.0, a, b, out },
                12 => Instr::SLdGfr { gfr: GfrSet { gfr0: addr, gfr1: val_addr, gfr2: k.into() } },
                _ => Instr::SNestInter { sid: a },
            };
            if let Some(defined) = instr.defines_stream() {
                recent.push(defined);
            }
            p.push(instr);
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn analyzers_never_panic(p in program(), out_base in addr(), lo in addr(), span in any::<u64>()) {
        let _ = lint(&p, &LintConfig::default());
        let config = VerifyConfig::paper().with_out_alloc(out_base).protect(lo, lo.saturating_add(span));
        let _ = verify_program(&p, &config);
        let _ = cost_program(&p, &SparseCoreConfig::paper());
        let _ = p.validate();
        let _ = p.max_live_streams();
    }
}
