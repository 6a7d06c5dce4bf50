//! Oracle test for the one-pass SU kernel: `su::execute` must equal the
//! per-cycle Figure 6 model below on every timing field, and its output
//! keys must equal the `setops` semantics.
//!
//! `figure6` is the readable form of the model: each loop iteration is
//! one SU cycle, which advances each stream past the elements of its
//! window that are smaller than the other stream's head.

use proptest::prelude::*;
use sc_isa::{Bound, Key};
use sparsecore::setops;
use sparsecore::su::{execute, SuOp, SuTiming};

const OPS: [SuOp; 3] = [SuOp::Intersect, SuOp::Subtract, SuOp::Merge];

/// Replay the Figure 6 parallel comparison over real operands.
///
/// `width` is the SU buffer width (16 in the paper). The model:
///
/// * heads equal → one output, both advance one — 1 cycle (intersection
///   produces ≤ 1 element/cycle, as the paper states);
/// * heads differ → each stream advances past every buffered element
///   smaller than the other's head (≤ `width` per cycle) — 1 cycle; for
///   subtraction/merge those skipped elements are emitted in the same
///   cycle (multiple outputs per cycle, as the paper states);
/// * a bound stops the operation once no further output can be below it;
/// * for merge (and subtraction's A-tail), the remaining tail after one
///   stream is exhausted copies out at `width` elements per cycle.
fn figure6(op: SuOp, a: &[Key], b: &[Key], bound: Bound, width: usize) -> SuTiming {
    assert!(width > 0, "SU buffer width must be positive");
    let mut t = SuTiming::default();
    let (mut i, mut j) = (0usize, 0usize);

    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        // Early termination, checked once per cycle: every further
        // intersection output is >= the smaller head, and every further
        // subtraction output is >= A's head, so once that key reaches the
        // bound nothing more can be produced.
        let cut = match op {
            SuOp::Intersect => !bound.admits(x.min(y)),
            SuOp::Subtract => !bound.admits(x),
            SuOp::Merge => false, // S_MERGE has no bound operand
        };
        if cut {
            break;
        }
        t.compare_cycles += 1;
        if x == y {
            match op {
                SuOp::Intersect | SuOp::Merge => t.produced += 1,
                SuOp::Subtract => {}
            }
            i += 1;
            j += 1;
            continue;
        }
        // Parallel comparison: advance each side past elements smaller
        // than the other's head, at most one buffer width per cycle.
        let a_window = &a[i..(i + width).min(a.len())];
        let adv_a = a_window.partition_point(|&e| e < y);
        let b_window = &b[j..(j + width).min(b.len())];
        let adv_b = b_window.partition_point(|&e| e < x);
        match op {
            SuOp::Intersect => {}
            SuOp::Subtract => {
                // Elements of A proven smaller than B's head survive, but
                // only up to the bound.
                let kept = a_window[..adv_a].partition_point(|&e| bound.admits(e));
                t.produced += kept as u64;
            }
            SuOp::Merge => {
                t.produced += (adv_a + adv_b) as u64;
            }
        }
        i += adv_a;
        j += adv_b;
        debug_assert!(adv_a > 0 || adv_b > 0, "no progress in parallel compare");
    }

    // Tails.
    match op {
        SuOp::Intersect => {}
        SuOp::Subtract => {
            if j >= b.len() && i < a.len() {
                let tail = &a[i..];
                let kept = tail.partition_point(|&e| bound.admits(e));
                t.produced += kept as u64;
                t.compare_cycles += (kept as u64).div_ceil(width as u64);
                i += kept; // consumption stops at the bound cut
            }
        }
        SuOp::Merge => {
            let tail = (a.len() - i) + (b.len() - j);
            if tail > 0 {
                t.produced += tail as u64;
                t.compare_cycles += (tail as u64).div_ceil(width as u64);
                i = a.len();
                j = b.len();
            }
        }
    }

    t.consumed_a = i as u64;
    t.consumed_b = j as u64;
    t
}

/// `execute` against the oracle and the set-op semantics, both operand
/// orders, with and without an output vector.
fn check(op: SuOp, a: &[Key], b: &[Key], bound: Bound, width: usize) -> Result<(), String> {
    for (a, b) in [(a, b), (b, a)] {
        let want = figure6(op, a, b, bound, width);
        let keys = match op {
            SuOp::Intersect => setops::intersect(a, b, bound),
            SuOp::Subtract => setops::subtract(a, b, bound),
            SuOp::Merge => setops::merge(a, b),
        };
        let ctx = format!("{op:?} {bound:?} width {width} a {a:?} b {b:?}");
        prop_assert_eq!(execute(op, a, b, bound, width, None), want, "timing: {}", ctx);
        // Output is appended after whatever the vector already holds.
        let mut out = vec![7];
        prop_assert_eq!(execute(op, a, b, bound, width, Some(&mut out)), want, "{}", ctx);
        prop_assert_eq!(&out[1..], &keys[..], "keys: {}", ctx);
        prop_assert_eq!(out[0], 7, "{}", ctx);
    }
    Ok(())
}

/// A bound below, inside or above `keys`, or none.
fn bounds(keys: &[Key], inside: Key) -> [Bound; 4] {
    let lo = keys.iter().min().copied().unwrap_or(0);
    let hi = keys.iter().max().copied().unwrap_or(0);
    [Bound::none(), Bound::below(lo), Bound::below(inside), Bound::below(hi + 1)]
}

/// Sorted, deduplicated keys drawn from `0..domain`.
fn sorted_keys(max_len: usize, domain: u32) -> impl Strategy<Value = Vec<Key>> {
    proptest::collection::btree_set(0..domain, 0..max_len).prop_map(|s| s.into_iter().collect())
}

#[test]
fn execute_matches_oracle_on_edge_shapes() {
    let evens: Vec<Key> = (0..150).map(|k| k * 2).collect();
    let odds: Vec<Key> = (0..150).map(|k| k * 2 + 1).collect();
    let above: Vec<Key> = (1000..1040).collect();
    let shapes: [(&[Key], &[Key]); 6] = [
        (&[], &[]),
        (&evens, &[]),
        (&evens, &evens), // identical
        (&evens, &odds),  // disjoint, interleaved
        (&evens, &above), // disjoint, one above the other
        (&evens[..3], &above),
    ];
    for (a, b) in shapes {
        let all: Vec<Key> = a.iter().chain(b).copied().collect();
        for bound in bounds(&all, 101) {
            for width in 1..=64 {
                for op in OPS {
                    check(op, a, b, bound, width).unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn execute_matches_oracle(
        a in sorted_keys(160, 400),
        b in sorted_keys(160, 400),
        skewed in sorted_keys(12, 10_000),
        inside in 0u32..400,
        width in 1usize..=64,
    ) {
        for (a, b) in [(&a, &b), (&a, &skewed)] {
            let all: Vec<Key> = a.iter().chain(b.iter()).copied().collect();
            for bound in bounds(&all, inside) {
                for op in OPS {
                    check(op, a, b, bound, width)?;
                }
            }
        }
    }
}
