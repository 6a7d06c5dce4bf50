//! Stream Unit timing: the parallel-comparison datapath of paper Figure 6.
//!
//! Each SU holds a double-buffered window of up to `width` (16 in the
//! paper) elements of each input stream. Per cycle, the head element of
//! each stream is compared in parallel against the whole window of the
//! other stream, so a stream can skip up to a full window of non-matching
//! elements in one cycle. Intersection emits at most one element per
//! cycle; subtraction and merge can emit several (all elements the
//! comparison proves smaller than the other stream's head).
//!
//! [`execute`] replays that datapath over the *actual* operand keys in
//! one merge walk, one element per step. A step starts a new SU cycle
//! when
//!
//! * the heads match (a match takes its own cycle and advances both
//!   streams),
//! * the side that advances changes (the other stream's head moved, so
//!   the window comparison is a new one), or
//! * the advancing side has already moved `width` elements this cycle.
//!
//! The bound is checked only at cycle starts: once no further output can
//! fall under it the operation stops, so a bounded operation consumes
//! fewer elements. When one stream runs out, the remaining tail of a
//! merge (and of a subtraction's A side, up to the bound) copies out at
//! `width` elements per cycle. The walk yields the comparison-cycle
//! count, the elements consumed from each stream and, when asked, the
//! output keys, which equal the [`crate::setops`] result. The value
//! instructions run on the same walk: [`vinter`] takes `S_VINTER`'s
//! matched positions and reduction from it (or seeks into a dense
//! operand), and [`vmerge`] takes `S_VMERGE`'s merged keys and values.
//! The [`crate::engine`] combines the timing with the bandwidth and
//! refill-latency terms.

use sc_isa::{Bound, Key, Value, ValueOp};

/// Which set operation an SU performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuOp {
    /// Intersection (`S_INTER`, `S_INTER.C`, `S_VINTER`, and each nested
    /// step of `S_NESTINTER`).
    Intersect,
    /// Subtraction (`S_SUB`, `S_SUB.C`).
    Subtract,
    /// Merge (`S_MERGE`, `S_MERGE.C`, `S_VMERGE`).
    Merge,
}

/// The timing outcome of one SU set operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuTiming {
    /// Parallel-comparison cycles (the SU-busy datapath time).
    pub compare_cycles: u64,
    /// Elements consumed from stream A (≤ `a.len()` under a bound).
    pub consumed_a: u64,
    /// Elements consumed from stream B.
    pub consumed_b: u64,
    /// Elements produced (count for `.C` forms, keys for stream forms).
    pub produced: u64,
}

impl SuTiming {
    /// Total elements moved into the SU (the bandwidth demand).
    pub fn consumed_total(&self) -> u64 {
        self.consumed_a + self.consumed_b
    }
}

/// One (key, value) operand of `S_VINTER` or `S_VMERGE`.
#[derive(Debug, Clone, Copy)]
pub struct ValueOperand<'a> {
    /// The sorted keys.
    pub keys: &'a [Key],
    /// One value per key.
    pub vals: &'a [Value],
    /// [`is_dense`]`(keys)`, decided once per stream.
    pub dense: bool,
}

/// Are the keys a run of more than one consecutive integer (a dense
/// vector viewed as a stream)? [`vinter`] seeks into such an operand
/// instead of walking it.
pub fn is_dense(keys: &[Key]) -> bool {
    keys.len() > 1 && keys.iter().enumerate().all(|(i, &k)| k == keys[0].wrapping_add(i as Key))
}

/// The timing of one SU set operation, without its output keys:
/// `execute(op, a, b, bound, width, None)`.
pub fn simulate(op: SuOp, a: &[Key], b: &[Key], bound: Bound, width: usize) -> SuTiming {
    execute(op, a, b, bound, width, None)
}

/// Run one SU set operation over real operands: the Figure 6 timing and,
/// when `out` is given, the output keys appended to it. `width` is the SU
/// buffer width (16 in the paper). The module docs give the cycle model.
///
/// # Panics
///
/// Panics if `width` is zero.
///
/// # Example
///
/// ```
/// use sc_isa::Bound;
/// use sparsecore::su::{execute, SuOp};
///
/// let mut out = Vec::new();
/// let t = execute(SuOp::Intersect, &[1, 3, 5], &[3, 4, 5], Bound::none(), 16, Some(&mut out));
/// assert_eq!(out, vec![3, 5]);
/// assert_eq!(t.produced, 2);
/// ```
pub fn execute(
    op: SuOp,
    a: &[Key],
    b: &[Key],
    bound: Bound,
    width: usize,
    out: Option<&mut Vec<Key>>,
) -> SuTiming {
    assert!(width > 0, "SU buffer width must be positive");
    let Some(out) = out else {
        return dispatch(op, a, b, bound, width, |_, _, _, _, _| {});
    };
    // Size the output to its largest possible length, let the walk store
    // every candidate key unconditionally, then cut to what it produced.
    let start = out.len();
    let most = match op {
        SuOp::Intersect => a.len().min(b.len()),
        SuOp::Subtract => a.len(),
        SuOp::Merge => a.len() + b.len(),
    };
    out.resize(start + most, 0);
    let buf = &mut out[start..];
    let t = dispatch(op, a, b, bound, width, |n, _, _, key, _| buf[n] = key);
    out.truncate(start + t.produced as usize);
    t
}

/// Run `S_VINTER` over two (key, value) operands: its timing, its matched
/// positions and the reduction of the matched values under `op`, from one
/// pass over the operands.
///
/// When exactly one operand is dense, the SU seeks instead of walking:
/// key `k` of a dense run starting at `lo` sits at position `k − lo`, so
/// each sparse key is compared once and only the sparse keys are read.
/// That takes one cycle per sparse element plus one per match, and the
/// dense side consumes one 16-key window per sparse element. Otherwise
/// the SU walks both operands as [`execute`] does.
///
/// The matched positions `(i, j)`, with `a.keys[i] == b.keys[j]`, are
/// `matches[..produced]` in increasing key order. `matches` only grows,
/// so a caller that keeps it allocates only for operands longer than any
/// before. The reduction starts from 0.0 and adds `op.combine(a, b)` per
/// match in that order.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn vinter(
    a: ValueOperand,
    b: ValueOperand,
    op: ValueOp,
    width: usize,
    matches: &mut Vec<(u32, u32)>,
) -> (SuTiming, Value) {
    assert!(width > 0, "SU buffer width must be positive");
    let (la, lb) = (a.keys.len(), b.keys.len());
    let need = if a.dense == b.dense { la.min(lb) } else { la.max(lb) };
    if matches.len() < need {
        matches.resize(need, (0, 0));
    }
    let out = &mut matches[..];
    let timing = match (a.dense, b.dense) {
        (false, true) => seek(a.keys, b.keys, |n, s, d| out[n] = (s, d)),
        (true, false) => {
            let t = seek(b.keys, a.keys, |n, s, d| out[n] = (d, s));
            SuTiming { consumed_a: t.consumed_b, consumed_b: t.consumed_a, ..t }
        }
        _ => walk(SuOp::Intersect, a.keys, b.keys, Bound::none(), width, |n, i, j, _, _| {
            out[n] = (i as u32, j as u32);
        }),
    };
    let acc = matches[..timing.produced as usize]
        .iter()
        .fold(0.0, |acc, &(i, j)| acc + op.combine(a.vals[i as usize], b.vals[j as usize]));
    (timing, acc)
}

/// Run `S_VMERGE` over two (key, value) operands in one merge walk: the
/// timing of [`SuOp::Merge`] and the merged keys with their values,
/// `scale_a * a + scale_b * b` where both operands hold a key and one
/// scaled side alone elsewhere (the arithmetic of
/// [`crate::setops::vmerge`]).
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn vmerge(
    scale_a: Value,
    a: ValueOperand,
    scale_b: Value,
    b: ValueOperand,
    width: usize,
) -> (SuTiming, Vec<Key>, Vec<Value>) {
    assert!(width > 0, "SU buffer width must be positive");
    let most = a.keys.len() + b.keys.len();
    let (mut keys, mut vals) = (vec![0; most], vec![0.0; most]);
    let t = walk(SuOp::Merge, a.keys, b.keys, Bound::none(), width, |n, i, j, key, step| {
        keys[n] = key;
        vals[n] = match step {
            0 => scale_a * a.vals[i] + scale_b * b.vals[j],
            1 => scale_a * a.vals[i],
            _ => scale_b * b.vals[j],
        };
    });
    keys.truncate(t.produced as usize);
    vals.truncate(t.produced as usize);
    (t, keys, vals)
}

/// [`vinter`]'s seek of the `sparse` keys into the `dense` run, which
/// holds more than one key. `out(n, s, d)` stores candidate match `n`:
/// sparse position `s` against dense position `d`.
#[inline(always)]
fn seek(sparse: &[Key], dense: &[Key], mut out: impl FnMut(usize, u32, u32)) -> SuTiming {
    let (lo, len) = (dense[0], dense.len());
    let mut n = 0;
    for (s, &k) in sparse.iter().enumerate() {
        let d = k.wrapping_sub(lo);
        out(n, s as u32, d);
        n += usize::from((d as usize) < len);
    }
    let (seeks, matched) = (sparse.len() as u64, n as u64);
    SuTiming {
        compare_cycles: seeks + matched,
        consumed_a: seeks,
        consumed_b: seeks * 16,
        produced: matched,
    }
}

/// Monomorphize [`walk`] per operation, so each loop carries only its
/// own operation's arithmetic.
fn dispatch(
    op: SuOp,
    a: &[Key],
    b: &[Key],
    bound: Bound,
    width: usize,
    out: impl FnMut(usize, usize, usize, Key, u8),
) -> SuTiming {
    match op {
        SuOp::Intersect => walk(SuOp::Intersect, a, b, bound, width, out),
        SuOp::Subtract => walk(SuOp::Subtract, a, b, bound, width, out),
        SuOp::Merge => walk(SuOp::Merge, a, b, bound, width, out),
    }
}

/// The one-pass walk behind [`execute`], [`vinter`] and [`vmerge`]. Each
/// step calls `out(n, i, j, key, step)` with its candidate output `key`
/// for slot `n`, the count produced so far, having compared `a[i]` with
/// `b[j]`; `step` says which head was smaller (0: neither, a match;
/// 1: A's; 2: B's). The walk moves `n` on only if the step emits, so
/// `out` must hold the operation's largest possible output. The tails
/// call `out` per element as steps 1 (from A) and 2 (from B).
#[inline(always)]
fn walk(
    op: SuOp,
    a: &[Key],
    b: &[Key],
    bound: Bound,
    width: usize,
    mut out: impl FnMut(usize, usize, usize, Key, u8),
) -> SuTiming {
    let limit = bound.get().map_or(u64::MAX, u64::from);
    let admits = |k: Key| u64::from(k) < limit;
    let (mut i, mut j, mut produced) = (0usize, 0usize, 0usize);
    let mut cycles = 0u64;
    // The side the current cycle advances (1 = A, 2 = B, 0 after a
    // match) and how many elements it has advanced so far.
    let (mut side, mut run) = (0u8, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let (lt, gt) = (x < y, x > y);
        let step = u8::from(lt) | (u8::from(gt) << 1);
        let starts = step == 0 || step != side || run == width;
        let cut = match op {
            SuOp::Intersect => !admits(x.min(y)),
            SuOp::Subtract => !admits(x),
            SuOp::Merge => false, // S_MERGE has no bound operand
        };
        if starts & cut {
            break;
        }
        cycles += u64::from(starts);
        run = if starts { 1 } else { run + 1 };
        side = step;
        let (emit, key) = match op {
            SuOp::Intersect => (step == 0, x),
            SuOp::Subtract => (lt & admits(x), x),
            SuOp::Merge => (true, x.min(y)),
        };
        out(produced, i, j, key, step);
        produced += usize::from(emit);
        i += usize::from(!gt);
        j += usize::from(!lt);
    }

    // Tails, copied out at `width` elements per cycle; a subtraction's
    // consumption stops at the bound cut.
    let (ta, tb) = match op {
        SuOp::Intersect => (0, 0),
        SuOp::Subtract if j == b.len() => (a[i..].partition_point(|&e| admits(e)), 0),
        SuOp::Subtract => (0, 0),
        SuOp::Merge => (a.len() - i, b.len() - j),
    };
    for (k, &key) in a[i..i + ta].iter().enumerate() {
        out(produced + k, i + k, j, key, 1);
    }
    for (k, &key) in b[j..j + tb].iter().enumerate() {
        out(produced + ta + k, i + ta, j + k, key, 2);
    }
    produced += ta + tb;
    cycles += ((ta + tb) as u64).div_ceil(width as u64);
    (i, j) = (i + ta, j + tb);

    SuTiming {
        compare_cycles: cycles,
        consumed_a: i as u64,
        consumed_b: j as u64,
        produced: produced as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setops;

    const W: usize = 16;

    #[test]
    fn intersect_counts_match_functional() {
        let a: Vec<u32> = vec![1, 3, 5, 7, 9, 20, 21, 22, 40];
        let b: Vec<u32> = vec![2, 3, 7, 21, 35, 40, 41];
        for bound in [Bound::none(), Bound::below(22), Bound::below(3)] {
            let t = simulate(SuOp::Intersect, &a, &b, bound, W);
            assert_eq!(t.produced, setops::intersect_count(&a, &b, bound), "{bound:?}");
        }
    }

    #[test]
    fn subtract_counts_match_functional() {
        let a: Vec<u32> = vec![1, 3, 5, 7, 9, 20, 21, 22, 40];
        let b: Vec<u32> = vec![2, 3, 7, 21, 35, 40, 41];
        for bound in [Bound::none(), Bound::below(22), Bound::below(3)] {
            let t = simulate(SuOp::Subtract, &a, &b, bound, W);
            assert_eq!(t.produced, setops::subtract_count(&a, &b, bound), "{bound:?}");
        }
    }

    #[test]
    fn merge_counts_match_functional() {
        let a: Vec<u32> = vec![1, 3, 5, 7, 9];
        let b: Vec<u32> = vec![2, 3, 7, 21, 35, 40, 41];
        let t = simulate(SuOp::Merge, &a, &b, Bound::none(), W);
        assert_eq!(t.produced, setops::merge_count(&a, &b));
        assert_eq!(t.consumed_a, a.len() as u64);
        assert_eq!(t.consumed_b, b.len() as u64);
    }

    #[test]
    fn identical_streams_one_match_per_cycle() {
        let a: Vec<u32> = (0..100).collect();
        let t = simulate(SuOp::Intersect, &a, &a, Bound::none(), W);
        assert_eq!(t.produced, 100);
        assert_eq!(t.compare_cycles, 100); // ≤1 output/cycle for intersect
    }

    #[test]
    fn disjoint_streams_skip_a_window_per_cycle() {
        // A entirely below B: one cycle skips up to 16 elements of A.
        let a: Vec<u32> = (0..160).collect();
        let b: Vec<u32> = vec![1000];
        let t = simulate(SuOp::Intersect, &a, &b, Bound::none(), W);
        assert_eq!(t.compare_cycles, 10); // 160 / 16
        assert_eq!(t.produced, 0);
    }

    #[test]
    fn interleaved_disjoint_is_the_worst_case() {
        // Strictly alternating keys defeat the parallel comparison: each
        // cycle only one side can prove one element smaller than the
        // other's head, so progress is ~1 element/cycle combined — the
        // datapath's worst case.
        let a: Vec<u32> = (0..50).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..50).map(|x| x * 2 + 1).collect();
        let t = simulate(SuOp::Intersect, &a, &b, Bound::none(), W);
        assert!((90..=100).contains(&t.compare_cycles), "cycles={}", t.compare_cycles);
        assert_eq!(t.produced, 0);
    }

    #[test]
    fn parallel_comparison_beats_scalar() {
        // The headline effect: SU cycles are far below the scalar
        // element-at-a-time walk (|A| + |B| steps) on skewed operands.
        let a: Vec<u32> = (0..1000).collect();
        let b: Vec<u32> = vec![100, 500, 900];
        let t = simulate(SuOp::Intersect, &a, &b, Bound::none(), W);
        let scalar_steps = (t.consumed_a + t.consumed_b) as f64;
        assert!(
            (t.compare_cycles as f64) < scalar_steps / 4.0,
            "cycles {} vs scalar {scalar_steps}",
            t.compare_cycles
        );
    }

    #[test]
    fn bounded_consumes_less() {
        let a: Vec<u32> = (0..100).collect();
        let t_full = simulate(SuOp::Intersect, &a, &a, Bound::none(), W);
        let t_cut = simulate(SuOp::Intersect, &a, &a, Bound::below(10), W);
        assert_eq!(t_cut.produced, 10);
        assert!(t_cut.consumed_total() < t_full.consumed_total() / 4);
        assert!(t_cut.compare_cycles < t_full.compare_cycles / 4);
    }

    #[test]
    fn merge_tail_copies_at_width() {
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (100..260).collect(); // disjoint tail of 160
        let t = simulate(SuOp::Merge, &a, &b, Bound::none(), W);
        assert_eq!(t.produced, 170);
        // 1 cycle per window of A (all < b[0]), then the B tail at 16/cycle.
        assert!(t.compare_cycles <= 1 + 10, "cycles={}", t.compare_cycles);
    }

    #[test]
    fn subtract_bound_limits_consumption() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = vec![150];
        let t = simulate(SuOp::Subtract, &a, &b, Bound::below(10), W);
        assert_eq!(t.produced, 10);
        assert!(t.consumed_a <= 32, "consumed_a={}", t.consumed_a);
    }

    #[test]
    fn empty_operands() {
        let t = simulate(SuOp::Intersect, &[], &[1, 2], Bound::none(), W);
        assert_eq!(t.produced, 0);
        assert_eq!(t.compare_cycles, 0);
        let t = simulate(SuOp::Merge, &[], &[1, 2], Bound::none(), W);
        assert_eq!(t.produced, 2);
    }

    #[test]
    fn width_one_degrades_to_scalar() {
        let a: Vec<u32> = (0..64).collect();
        let b: Vec<u32> = vec![63];
        let t = simulate(SuOp::Intersect, &a, &b, Bound::none(), 1);
        assert_eq!(t.compare_cycles, 64); // one element per cycle
    }
}
