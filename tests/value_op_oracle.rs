//! Oracle test for the value instructions' one walk: `su::vinter` and
//! `su::vmerge` must equal the computation the engine ran before they
//! existed, which this file keeps verbatim:
//!
//! * `S_VINTER`: `is_dense` on both operands on every call, then
//!   `seek_timing` or `su::simulate`, then `setops::vinter` for the
//!   reduction, then a walk collecting the matched pairs;
//! * `S_VMERGE`: `su::simulate`, then `setops::vmerge`.
//!
//! Checked: compare cycles, consumption and production; the matched
//! positions in order; the reduction's bits under every `ValueOp`; the
//! merged keys and value bits. Each of two mutations of `su.rs` fails
//! the test: summing the reduction in reverse key order
//! (`matched.iter().rev().fold(..)`), and a seek that drops the sparse
//! key at `hi − 1` (`(d as usize) + 1 < len`).

use proptest::prelude::*;
use sc_isa::{Bound, Key, Value, ValueOp};
use sparsecore::setops;
use sparsecore::su::{self, simulate, SuOp, SuTiming, ValueOperand};

const OPS: [ValueOp; 4] = [ValueOp::Mac, ValueOp::Max, ValueOp::Min, ValueOp::Add];

/// Are the keys a dense run of consecutive integers (a dense vector
/// viewed as a stream)?
fn is_dense(keys: &[Key]) -> bool {
    keys.len() > 1 && keys.iter().enumerate().all(|(i, &k)| k == keys[0].wrapping_add(i as Key))
}

/// SU timing for sparse x dense: one seek + compare per sparse element
/// (the dense side consumes one window per match instead of scanning).
fn seek_timing(sparse: &[Key], dense: &[Key]) -> SuTiming {
    let lo = dense[0];
    let hi = dense[0] + dense.len() as Key;
    let matches = sparse.iter().filter(|&&k| k >= lo && k < hi).count() as u64;
    SuTiming {
        // One cycle per sparse element (seek + compare) plus the match
        // emission.
        compare_cycles: sparse.len() as u64 + matches,
        consumed_a: sparse.len() as u64,
        // One 16-key window of the dense stream per sparse element.
        consumed_b: (sparse.len() as u64) * 16,
        produced: matches,
    }
}

/// `S_VINTER` as the engine computed it: the timing, the matched index
/// pairs and the reduction.
fn reference_vinter(
    ka: &[Key],
    va: &[Value],
    kb: &[Key],
    vb: &[Value],
    op: ValueOp,
    width: usize,
) -> (SuTiming, Vec<(u64, u64)>, Value) {
    let dense_a = is_dense(ka);
    let dense_b = is_dense(kb);
    let timing = if dense_b && !dense_a {
        seek_timing(ka, kb)
    } else if dense_a && !dense_b {
        let t = seek_timing(kb, ka);
        SuTiming {
            compare_cycles: t.compare_cycles,
            consumed_a: t.consumed_b,
            consumed_b: t.consumed_a,
            produced: t.produced,
        }
    } else {
        simulate(SuOp::Intersect, ka, kb, Bound::none(), width)
    };
    let (acc, _n) = setops::vinter(ka, va, kb, vb, op);
    let matches = timing.produced;

    // Matched index pairs for value-address generation.
    let pairs: Vec<(u64, u64)> = {
        let (mut i, mut j) = (0usize, 0usize);
        let mut v = Vec::with_capacity(matches as usize);
        while i < ka.len() && j < kb.len() {
            match ka[i].cmp(&kb[j]) {
                std::cmp::Ordering::Equal => {
                    v.push((i as u64, j as u64));
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        v
    };
    (timing, pairs, acc)
}

/// `S_VMERGE` as the engine computed it: the timing and the merged
/// stream.
fn reference_vmerge(
    scale_a: Value,
    ka: &[Key],
    va: &[Value],
    scale_b: Value,
    kb: &[Key],
    vb: &[Value],
    width: usize,
) -> (SuTiming, Vec<Key>, Vec<Value>) {
    let timing = simulate(SuOp::Merge, ka, kb, Bound::none(), width);
    let (keys, vals) = setops::vmerge(scale_a, ka, va, scale_b, kb, vb);
    (timing, keys, vals)
}

/// One value per key, spread over both signs and several magnitudes so
/// that summing in another order changes the bits.
fn values(keys: &[Key], seed: u64) -> Vec<Value> {
    (0..keys.len() as u64)
        .map(|i| {
            let mut z = (seed ^ (i << 32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
            (unit - 0.5) * 10f64.powi((z % 7) as i32 - 3)
        })
        .collect()
}

fn bits(vals: &[Value]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

/// Both walks against the reference, both operand orders, every
/// `ValueOp` and three scale pairs. `matches` carries over from call to
/// call, as the engine's buffer does.
fn check(
    a: &[Key],
    b: &[Key],
    seed: u64,
    width: usize,
    matches: &mut Vec<(u32, u32)>,
) -> Result<(), String> {
    let (va, vb) = (values(a, seed), values(b, seed ^ 0xABCD));
    for ((ka, va), (kb, vb)) in [((a, &va), (b, &vb)), ((b, &vb), (a, &va))] {
        let ctx = format!("width {width} seed {seed} a {ka:?} b {kb:?}");
        let oa = ValueOperand { keys: ka, vals: va, dense: su::is_dense(ka) };
        let ob = ValueOperand { keys: kb, vals: vb, dense: su::is_dense(kb) };
        for op in OPS {
            let (want, pairs, acc) = reference_vinter(ka, va, kb, vb, op, width);
            let (got, got_acc) = su::vinter(oa, ob, op, width, matches);
            prop_assert_eq!(got, want, "vinter timing: {}", ctx);
            let got_pairs: Vec<(u64, u64)> = matches[..got.produced as usize]
                .iter()
                .map(|&(i, j)| (u64::from(i), u64::from(j)))
                .collect();
            prop_assert_eq!(got_pairs, pairs, "vinter positions: {}", ctx);
            prop_assert_eq!(got_acc.to_bits(), acc.to_bits(), "vinter {:?}: {}", op, ctx);
        }
        for (sa, sb) in [(1.0, 1.0), (0.5, -2.25), (-1.5, 0.0)] {
            let (want, keys, vals) = reference_vmerge(sa, ka, va, sb, kb, vb, width);
            let (got, got_keys, got_vals) = su::vmerge(sa, oa, sb, ob, width);
            prop_assert_eq!(got, want, "vmerge timing: {}", ctx);
            prop_assert_eq!(got_keys, keys, "vmerge keys: {}", ctx);
            prop_assert_eq!(bits(&got_vals), bits(&vals), "vmerge values {} {}: {}", sa, sb, ctx);
        }
    }
    Ok(())
}

#[test]
fn value_walks_match_the_reference_on_edge_shapes() {
    let evens: Vec<Key> = (0..150).map(|k| k * 2).collect();
    let odds: Vec<Key> = (0..150).map(|k| k * 2 + 1).collect();
    let above: Vec<Key> = (1000..1040).collect();
    let run: Vec<Key> = (10..40).collect();
    let from_zero: Vec<Key> = (0..25).collect();
    // Sparse keys at and around the run's ends: lo − 1, lo, hi − 1, hi.
    let edges: Vec<Key> = vec![3, 9, 10, 12, 15, 39, 40, 77];
    let shapes: [(&[Key], &[Key]); 17] = [
        (&[], &[]),
        (&evens, &[]),
        (&[], &run),
        (&[7], &[7]),
        (&[7], &[8]),
        (&evens, &evens),   // identical
        (&evens, &odds),    // disjoint, interleaved
        (&evens, &above),   // disjoint, one above the other
        (&run, &run),       // identical and both dense
        (&run, &edges),     // dense A side
        (&edges, &run),     // dense B side
        (&run, &above),     // one dense side, no match
        (&run, &from_zero), // both dense, overlapping
        (&from_zero, &[0, 24, 25]),
        (&[7], &run),     // a run of one key is not dense
        (&[7, 8], &odds), // a run of two is
        (&[7, 8], &run),
    ];
    let mut matches = Vec::new();
    for (a, b) in shapes {
        for width in 1..=64 {
            check(a, b, width as u64, width, &mut matches).unwrap();
        }
    }
}

/// Sorted, deduplicated keys drawn from `0..domain`.
fn sorted_keys(max_len: usize, domain: u32) -> impl Strategy<Value = Vec<Key>> {
    proptest::collection::btree_set(0..domain, 0..max_len).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_walks_match_the_reference(
        a in sorted_keys(120, 300),
        b in sorted_keys(120, 300),
        lo in 0u32..300,
        len in 0u32..60,
        lo2 in 0u32..300,
        len2 in 0u32..60,
        seed in 0u64..1_000_000,
        width in 1usize..=64,
    ) {
        let run: Vec<Key> = (lo..lo + len).collect();
        let run2: Vec<Key> = (lo2..lo2 + len2).collect();
        let mut matches = Vec::new();
        for (x, y) in [(&a, &b), (&a, &run), (&run, &b), (&run, &run2)] {
            check(x, y, seed, width, &mut matches)?;
        }
    }
}
