//! Property-based tests over the core data structures and invariants:
//! set-operation algebra, SU timing consistency, cache behaviour, SMT
//! discipline, and plan correctness on random graphs.

use proptest::prelude::*;
use sc_isa::Bound;
use sparsecore::setops;
use sparsecore::su::{simulate, SuOp};

/// Strategy: a sorted, deduplicated key vector.
fn sorted_keys(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0u32..10_000, 0..max_len).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn intersect_is_sorted_subset_of_both(a in sorted_keys(200), b in sorted_keys(200)) {
        let r = setops::intersect(&a, &b, Bound::none());
        prop_assert!(r.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(r.iter().all(|k| a.binary_search(k).is_ok()));
        prop_assert!(r.iter().all(|k| b.binary_search(k).is_ok()));
        // Commutative.
        prop_assert_eq!(r, setops::intersect(&b, &a, Bound::none()));
    }

    #[test]
    fn subtract_plus_intersect_partitions_a(a in sorted_keys(200), b in sorted_keys(200)) {
        let inter = setops::intersect(&a, &b, Bound::none());
        let sub = setops::subtract(&a, &b, Bound::none());
        let mut merged = setops::merge(&inter, &sub);
        merged.sort_unstable();
        prop_assert_eq!(merged, a);
    }

    #[test]
    fn merge_is_union(a in sorted_keys(200), b in sorted_keys(200)) {
        let m = setops::merge(&a, &b);
        prop_assert!(m.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(m.len() as u64, a.len() as u64 + b.len() as u64
            - setops::intersect_count(&a, &b, Bound::none()));
    }

    #[test]
    fn bound_is_a_filter(a in sorted_keys(200), b in sorted_keys(200), bound in 0u32..10_000) {
        let full = setops::intersect(&a, &b, Bound::none());
        let cut = setops::intersect(&a, &b, Bound::below(bound));
        let expected: Vec<u32> = full.into_iter().filter(|&k| k < bound).collect();
        prop_assert_eq!(cut, expected);
        let full_sub = setops::subtract(&a, &b, Bound::none());
        let cut_sub = setops::subtract(&a, &b, Bound::below(bound));
        let expected: Vec<u32> = full_sub.into_iter().filter(|&k| k < bound).collect();
        prop_assert_eq!(cut_sub, expected);
    }

    #[test]
    fn su_timing_consistent_with_functional(
        a in sorted_keys(150),
        b in sorted_keys(150),
        bound in proptest::option::of(0u32..10_000),
        width in 1usize..32,
    ) {
        let bd = bound.map_or(Bound::none(), Bound::below);
        for (op, expected) in [
            (SuOp::Intersect, setops::intersect_count(&a, &b, bd)),
            (SuOp::Subtract, setops::subtract_count(&a, &b, bd)),
        ] {
            let t = simulate(op, &a, &b, bd, width);
            prop_assert_eq!(t.produced, expected);
            prop_assert!(t.consumed_a <= a.len() as u64);
            prop_assert!(t.consumed_b <= b.len() as u64);
            // Progress bound: each cycle advances at least one element
            // or emits a match.
            prop_assert!(t.compare_cycles <= (a.len() + b.len() + 2) as u64);
        }
        let t = simulate(SuOp::Merge, &a, &b, Bound::none(), width);
        prop_assert_eq!(t.produced, setops::merge_count(&a, &b));
    }

    #[test]
    fn wider_su_never_needs_more_cycles(
        a in sorted_keys(150),
        b in sorted_keys(150),
    ) {
        let narrow = simulate(SuOp::Intersect, &a, &b, Bound::none(), 4);
        let wide = simulate(SuOp::Intersect, &a, &b, Bound::none(), 16);
        prop_assert!(wide.compare_cycles <= narrow.compare_cycles);
    }

    #[test]
    fn vinter_matches_manual_dot(
        pairs_a in proptest::collection::btree_map(0u32..500, -100.0f64..100.0, 0..60),
        pairs_b in proptest::collection::btree_map(0u32..500, -100.0f64..100.0, 0..60),
    ) {
        let (ka, va): (Vec<u32>, Vec<f64>) = pairs_a.iter().map(|(k, v)| (*k, *v)).unzip();
        let (kb, vb): (Vec<u32>, Vec<f64>) = pairs_b.iter().map(|(k, v)| (*k, *v)).unzip();
        let (acc, n) = setops::vinter(&ka, &va, &kb, &vb, sc_isa::ValueOp::Mac);
        let mut manual = 0.0;
        let mut matches = 0;
        for (k, v) in &pairs_a {
            if let Some(w) = pairs_b.get(k) {
                manual += v * w;
                matches += 1;
            }
        }
        prop_assert!((acc - manual).abs() < 1e-9);
        prop_assert_eq!(n, matches);
    }

    #[test]
    fn vmerge_preserves_linear_combination(
        pairs_a in proptest::collection::btree_map(0u32..300, -50.0f64..50.0, 0..40),
        pairs_b in proptest::collection::btree_map(0u32..300, -50.0f64..50.0, 0..40),
        sa in -4.0f64..4.0,
        sb in -4.0f64..4.0,
    ) {
        let (ka, va): (Vec<u32>, Vec<f64>) = pairs_a.iter().map(|(k, v)| (*k, *v)).unzip();
        let (kb, vb): (Vec<u32>, Vec<f64>) = pairs_b.iter().map(|(k, v)| (*k, *v)).unzip();
        let (keys, vals) = setops::vmerge(sa, &ka, &va, sb, &kb, &vb);
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        for (k, v) in keys.iter().zip(&vals) {
            let expect = sa * pairs_a.get(k).copied().unwrap_or(0.0)
                + sb * pairs_b.get(k).copied().unwrap_or(0.0);
            prop_assert!((v - expect).abs() < 1e-9);
        }
    }
}

mod cache_properties {
    use proptest::prelude::*;
    use sc_mem::{Cache, CacheConfig};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn cache_never_exceeds_capacity(addrs in proptest::collection::vec(0u64..1_000_000, 1..500)) {
            let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 1 });
            for a in addrs {
                c.access(a);
            }
            prop_assert!(c.resident_lines() <= 16);
        }

        #[test]
        fn repeat_access_always_hits(addrs in proptest::collection::vec(0u64..10_000, 1..100)) {
            let mut c = Cache::new(CacheConfig::l1d());
            for &a in &addrs {
                c.access(a);
                prop_assert!(c.access(a), "immediate re-access must hit");
            }
        }
    }
}

mod engine_properties {
    use proptest::prelude::*;
    use sc_isa::{Bound, Priority, StreamId};
    use sparsecore::{setops, Engine, SparseCoreConfig};

    fn sorted_keys(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::btree_set(0u32..5_000, 0..max_len)
            .prop_map(|s| s.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn engine_setops_match_pure_functions(
            a in sorted_keys(120),
            b in sorted_keys(120),
            bound in proptest::option::of(0u32..5_000),
        ) {
            let bd = bound.map_or(Bound::none(), Bound::below);
            let mut e = Engine::new(SparseCoreConfig::tiny());
            e.s_read(0x10_000, &a, StreamId::new(0), Priority(0)).unwrap();
            e.s_read(0x20_000, &b, StreamId::new(1), Priority(0)).unwrap();
            prop_assert_eq!(
                e.s_inter_c(StreamId::new(0), StreamId::new(1), bd).unwrap(),
                setops::intersect_count(&a, &b, bd)
            );
            prop_assert_eq!(
                e.s_sub_c(StreamId::new(0), StreamId::new(1), bd).unwrap(),
                setops::subtract_count(&a, &b, bd)
            );
            prop_assert_eq!(
                e.s_merge_c(StreamId::new(0), StreamId::new(1)).unwrap(),
                setops::merge_count(&a, &b)
            );
            let cycles = e.finish();
            prop_assert!(cycles > 0);
        }

        #[test]
        fn output_streams_are_consistent(
            a in sorted_keys(80),
            b in sorted_keys(80),
        ) {
            let mut e = Engine::new(SparseCoreConfig::paper());
            e.s_read(0x10_000, &a, StreamId::new(0), Priority(0)).unwrap();
            e.s_read(0x20_000, &b, StreamId::new(1), Priority(0)).unwrap();
            let n = e.s_inter(StreamId::new(0), StreamId::new(1), StreamId::new(2), Bound::none()).unwrap();
            let keys = e.stream_keys(StreamId::new(2)).unwrap().to_vec();
            prop_assert_eq!(n as usize, keys.len());
            prop_assert_eq!(keys, setops::intersect(&a, &b, Bound::none()));
        }
    }
}

mod gpm_properties {
    use proptest::prelude::*;
    use sc_gpm::apps::brute_force;
    use sc_gpm::plan::Induced;
    use sc_gpm::{exec, Pattern, Plan, ScalarBackend};
    use sc_graph::CsrGraph;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn compiled_plans_match_brute_force_on_random_graphs(
            edges in proptest::collection::btree_set((0u32..18, 0u32..18), 0..60),
        ) {
            let edge_list: Vec<(u32, u32)> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let g = CsrGraph::from_edges(18, &edge_list);
            for (pattern, induced) in [
                (Pattern::triangle(), Induced::Vertex),
                (Pattern::three_chain(), Induced::Vertex),
                (Pattern::tailed_triangle(), Induced::Vertex),
                (Pattern::clique(4), Induced::Edge),
            ] {
                let plan = Plan::compile_default(&pattern, induced);
                let mut backend = ScalarBackend::new(&g);
                let got = exec::count(&g, &plan, &mut backend);
                let expected = brute_force(&pattern, &g, induced);
                prop_assert_eq!(got, expected, "{} {:?}", pattern, induced);
            }
        }
    }
}

mod encoding_properties {
    use proptest::prelude::*;
    use sc_isa::{Bound, GfrSet, Instr, Priority, StreamId, ValueOp};

    fn arb_sid() -> impl Strategy<Value = StreamId> {
        (0u32..16).prop_map(StreamId::new)
    }

    fn arb_bound() -> impl Strategy<Value = Bound> {
        proptest::option::of(0u32..100_000).prop_map(|o| o.map_or(Bound::none(), Bound::below))
    }

    fn arb_instr() -> impl Strategy<Value = Instr> {
        prop_oneof![
            (any::<u32>(), 0u32..0xFF_FFFF, arb_sid(), any::<u32>()).prop_map(
                |(addr, len, sid, pr)| Instr::SRead {
                    key_addr: u64::from(addr),
                    len,
                    sid,
                    priority: Priority(pr),
                }
            ),
            (arb_sid(), arb_sid(), arb_sid(), arb_bound())
                .prop_map(|(a, b, out, bound)| Instr::SInter { a, b, out, bound }),
            (arb_sid(), arb_sid(), arb_bound()).prop_map(|(a, b, bound)| Instr::SSubC {
                a,
                b,
                bound
            }),
            (arb_sid(), arb_sid()).prop_map(|(a, b)| Instr::SMergeC { a, b }),
            (arb_sid(), arb_sid(), 0u8..4).prop_map(|(a, b, op)| Instr::SVInter {
                a,
                b,
                op: match op {
                    0 => ValueOp::Mac,
                    1 => ValueOp::Max,
                    2 => ValueOp::Min,
                    _ => ValueOp::Add,
                },
            }),
            (any::<f64>(), any::<f64>(), arb_sid(), arb_sid(), arb_sid()).prop_filter_map(
                "finite scales",
                |(sa, sb, a, b, out)| {
                    (sa.is_finite() && sb.is_finite()).then_some(Instr::SVMerge {
                        scale_a: sa,
                        scale_b: sb,
                        a,
                        b,
                        out,
                    })
                }
            ),
            (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(a, b, c)| Instr::SLdGfr {
                gfr: GfrSet { gfr0: u64::from(a), gfr1: u64::from(b), gfr2: u64::from(c) },
            }),
            arb_sid().prop_map(|sid| Instr::SNestInter { sid }),
            arb_sid().prop_map(|sid| Instr::SFree { sid }),
            (arb_sid(), any::<u32>()).prop_map(|(sid, offset)| Instr::SFetch { sid, offset }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn binary_encoding_roundtrips(instr in arb_instr()) {
            let enc = sc_isa::encode(&instr);
            let dec = sc_isa::decode(&enc).expect("valid opcode");
            prop_assert_eq!(instr, dec);
        }

        #[test]
        fn text_assembly_roundtrips(instrs in proptest::collection::vec(arb_instr(), 0..20)) {
            let p: sc_isa::Program = instrs.into_iter().collect();
            let text = p.to_string();
            let back = sc_isa::parse_program(&text).expect("assembles");
            prop_assert_eq!(p, back);
        }

        #[test]
        fn assembler_never_panics_on_hostile_text(
            text in prop_oneof![arbitrary_text(), mangled_program()]
        ) {
            // Ok, or an error naming a line of the input — never a panic.
            if let Err(e) = sc_isa::parse_program(&text) {
                let lines = text.lines().count();
                prop_assert!((1..=lines).contains(&e.line), "line {} of {}: {}", e.line, lines, e);
            }
        }
    }

    /// Operand tokens past every range the assembler parses, or not
    /// numbers at all.
    const HOSTILE: [&str; 16] = [
        "18446744073709551616",
        "0x10000000000000000",
        "4294967296",
        "99999999999999999999999999",
        "-1",
        "-9223372036854775809",
        "0x",
        "0xZZ",
        "s",
        "s-1",
        "s4294967296",
        "1e999",
        "NaN",
        "",
        "é",
        "S_READ",
    ];

    /// Characters assembly is made of.
    const ASM: &[char] = &[
        'S', '_', 'R', 'E', 'A', 'D', 'V', 'I', 'N', 'T', 'F', 'M', 'G', 'C', '.', ',', ' ', '#',
        '\n', '\r', '\t', 's', 'x', '0', '1', '9', '-', 'f', 'é',
    ];

    fn arbitrary_text() -> impl Strategy<Value = String> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..160)
                .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
            proptest::collection::vec(0..ASM.len(), 0..160)
                .prop_map(|picks| picks.into_iter().map(|i| ASM[i]).collect()),
        ]
    }

    /// A valid program whose lines are then truncated, duplicated, or
    /// given a hostile operand.
    fn mangled_program() -> impl Strategy<Value = String> {
        let edit = (0u8..3, any::<usize>(), any::<usize>(), 0..HOSTILE.len());
        (proptest::collection::vec(arb_instr(), 1..12), proptest::collection::vec(edit, 1..6))
            .prop_map(|(instrs, edits)| {
                let p: sc_isa::Program = instrs.into_iter().collect();
                let mut lines: Vec<String> = p.to_string().lines().map(String::from).collect();
                for (kind, at, arg, token) in edits {
                    let i = at % lines.len();
                    match kind {
                        0 => {
                            let cut = arg % (lines[i].len() + 1);
                            let cut = (0..=cut).rev().find(|&c| lines[i].is_char_boundary(c));
                            lines[i].truncate(cut.unwrap_or(0));
                        }
                        1 => lines.insert(i, lines[i].clone()),
                        _ => {
                            let line = lines[i].clone();
                            let (mnemonic, rest) = line.split_once(' ').unwrap_or((&line, ""));
                            let mut ops: Vec<&str> = rest.split(',').map(str::trim).collect();
                            let k = arg % ops.len();
                            ops[k] = HOSTILE[token];
                            lines[i] = format!("{mnemonic} {}", ops.join(", "));
                        }
                    }
                }
                lines.join("\n")
            })
    }
}
