//! The cost report over the [`sc_isa::dataflow`] walk.
//!
//! The walk supplies each operand's half-open *length interval*, the
//! length hull and the live count after every instruction; this module
//! charges each instruction a symbolic cost in the [`CostInterval`]
//! semilattice — a sound `[lower, upper]` cycle range where the upper
//! bound may be `None` (⊤, statically unanalyzable — nested
//! intersection or an unbounded operand) — and folds the charges over
//! the program and its live regions. Every bound saturates instead of
//! overflowing: a saturated upper bound is still an upper bound, and a
//! saturated lower bound is still a lower bound.
//!
//! # Soundness argument
//!
//! Let `M = max(core clock, last SU event)` be the engine makespan
//! (exactly what `Engine::cycles()` reports after `finish()`).
//!
//! **Upper.** Each instruction's charge bounds its makespan increase
//! `ΔM`. The two scheduling facts doing the work:
//! (1) every stream-readiness time observed at an instruction is at
//! most `M + warmup_max` — a memory stream became ready at its read
//! time plus a warmup walk (≤ `warmup_max`), an output stream at its
//! producer's completion (≤ last event ≤ `M`); so an SU start bubble
//! and an `S_FETCH` wait each cost at most `warmup_max`;
//! (2) SU busy time is at most `max(compare, supply, value)` cycles,
//! with `compare ≤ |a| + |b| + 2` (the comparator consumes at least
//! one element per cycle; `+2` covers tail rounding and the dense-seek
//! path), `supply ≤ ceil(consumed / rate_floor)` where `consumed` is
//! at most `|a| + |b|` for key set-ops and `17 · max(|a|, |b|)` for
//! `S_VINTER` (whose dense-seek path charges a hardcoded 16× dense
//! expansion), and `value` is bounded by worst-case full-hierarchy
//! loads drained through the load queue.
//!
//! **Lower.** Three independent floors, any of which the machine
//! cannot beat: total issued uops over the issue width (the core
//! front-end), total SU busy cycles over the SU count (busy intervals
//! cannot overlap on one unit), and the single largest SU busy term.
//! Lower-bound busy terms use the supply-rate *ceiling* and the
//! comparator's best case (full `su_buffer` width per cycle), and
//! collapse to zero whenever an early-termination bound is present.
//!
//! Removing an instruction removes nonnegative terms from every floor,
//! so slicing a program can never raise the lower bound — the
//! monotonicity property the test suite checks.

use crate::params::CostParams;
use sc_isa::{Instr, Interval, Key, Program};
use sparsecore::SparseCoreConfig;

/// A cost value: sound inclusive cycle (or byte) bounds. `upper ==
/// None` is ⊤ — no finite static bound exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostInterval {
    /// Inclusive lower bound.
    pub lower: u64,
    /// Inclusive upper bound; `None` when statically unbounded.
    pub upper: Option<u64>,
}

impl CostInterval {
    /// `[lower, upper]`.
    pub fn bounded(lower: u64, upper: u64) -> Self {
        CostInterval { lower, upper: Some(upper.max(lower)) }
    }

    /// `[lower, ⊤)`.
    pub fn unbounded(lower: u64) -> Self {
        CostInterval { lower, upper: None }
    }

    /// Is a finite upper bound known?
    pub fn is_bounded(&self) -> bool {
        self.upper.is_some()
    }

    /// Does the observed value land inside the bounds?
    pub fn contains(&self, v: u64) -> bool {
        v >= self.lower && self.upper.is_none_or(|u| v <= u)
    }

    /// Sequential composition: both bounds add, ⊤ absorbs.
    pub fn add(&self, other: &CostInterval) -> CostInterval {
        CostInterval {
            lower: self.lower.saturating_add(other.lower),
            upper: match (self.upper, other.upper) {
                (Some(a), Some(b)) => Some(a.saturating_add(b)),
                _ => None,
            },
        }
    }

    /// `upper / max(lower, 1)` — the bound-gap ratio, `None` at ⊤.
    pub fn gap_ratio(&self) -> Option<f64> {
        self.upper.map(|u| u as f64 / self.lower.max(1) as f64)
    }

    /// `upper / max(observed, 1)` — the tightness ratio, `None` at ⊤.
    pub fn tightness(&self, observed: u64) -> Option<f64> {
        self.upper.map(|u| u as f64 / observed.max(1) as f64)
    }
}

impl std::fmt::Display for CostInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.upper {
            Some(u) => write!(f, "[{}, {}]", self.lower, u),
            None => write!(f, "[{}, unbounded)", self.lower),
        }
    }
}

/// Cost bounds for one live region: a maximal instruction span over
/// which at least one stream is live (the static analogue of one loop
/// body's stream working phase).
#[derive(Debug, Clone)]
pub struct RegionCost {
    /// First instruction index of the region.
    pub first: usize,
    /// Last instruction index (inclusive; includes the closing free).
    pub last: usize,
    /// Cycle bounds for the span.
    pub cycles: CostInterval,
    /// Memory-traffic bounds for the span (bytes).
    pub traffic_bytes: CostInterval,
    /// Peak live-stream count inside the span.
    pub peak_pressure: usize,
}

/// Deliberately broken cost rules, used by the soundness gate's
/// mutation fixtures (the analyzer-side analogue of the engine's
/// `sabotage_*` hooks). Each mutation makes a specific rule unsound so
/// tests can prove the replay gate catches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMutation {
    /// Drop the per-op `warmup_max` bubble charge from the upper bound.
    DropWarmupCharge,
    /// Halve every set-op comparator upper bound.
    HalveCompare,
    /// Inflate the uop lower bound 64× (an unsound lower bound).
    InflateLower,
}

/// The full static cost report for one program under one config.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Whole-program cycle bounds (as reported by `Engine::cycles()`
    /// after `finish()` on a non-virtualized engine).
    pub cycles: CostInterval,
    /// Whole-program memory-traffic bounds (bytes moved between the
    /// S-Cache/value path and the L2-and-beyond hierarchy).
    pub traffic_bytes: CostInterval,
    /// Per-region bounds.
    pub regions: Vec<RegionCost>,
    /// Hull of every stream length the engine would record in its
    /// length histogram (reads, materialized set-op outputs, merge
    /// outputs, nested lists). Widened to the full length domain when
    /// a nested intersection makes lengths data-dependent.
    pub length_hull: Interval,
    /// Peak live-stream count (S-Cache slot pressure bound).
    pub max_pressure: usize,
    /// `max_pressure * slot_bytes` — the static S-Cache footprint.
    pub footprint_bytes: u64,
    /// Per-instruction upper-bound charges (⊤-aware), for proofs.
    pub instr_upper: Vec<Option<u64>>,
    /// The derived parameters the bounds were computed with.
    pub params: CostParams,
}

fn is_unbounded_len(iv: &Interval) -> bool {
    iv.is_empty() || iv.hi > u64::from(Key::MAX)
}

fn ub(iv: &Interval) -> u64 {
    iv.max().unwrap_or(0)
}

/// Analyze under the given hardware config.
pub fn analyze_cost(program: &Program, config: &SparseCoreConfig) -> CostReport {
    analyze_cost_with(program, config, None)
}

/// One instruction's cost contribution.
struct InstrCost {
    /// Uops issued through the core front-end.
    uops: u64,
    /// Extra upper-bound cycles beyond uop issue (⊤-aware).
    extra_upper: Option<u64>,
    /// SU busy-cycle lower bound (0 for non-SU instructions).
    busy_lo: u64,
    /// Traffic bounds in bytes.
    traffic_lo: u64,
    traffic_up: Option<u64>,
}

impl InstrCost {
    /// A core-side instruction: `uops` issued, `extra` cycles of stall,
    /// `traffic` bytes at most.
    fn core(uops: u64, extra: u64, traffic: u64) -> Self {
        InstrCost {
            uops,
            extra_upper: Some(extra),
            busy_lo: 0,
            traffic_lo: 0,
            traffic_up: Some(traffic),
        }
    }
}

/// Analyze with an optional deliberately-unsound mutation (tests only).
pub fn analyze_cost_with(
    program: &Program,
    config: &SparseCoreConfig,
    mutation: Option<CostMutation>,
) -> CostReport {
    let p = CostParams::for_config(config);
    let w = p.issue_width;
    let flow = sc_isa::dataflow::analyze(program);

    // Comparator upper bound: the SU consumes at least one element per
    // cycle until one side (or the bound) cuts; +2 covers the tail
    // rounding and the dense-seek `|sparse| + matches` path.
    let compare_ub = |la: &Interval, lb: &Interval| ub(la).saturating_add(ub(lb)).saturating_add(2);
    let supply_ub = |consumed: u64| (consumed as f64 / p.supply_rate_floor()).ceil() as u64;
    let supply_lo = |consumed: u64| (consumed as f64 / p.supply_rate_ceil()).ceil() as u64;
    let mutate_compare = |c: u64| match mutation {
        Some(CostMutation::HalveCompare) => c / 2,
        _ => c,
    };
    let bubble = match mutation {
        Some(CostMutation::DropWarmupCharge) => 0,
        _ => p.warmup_max,
    };
    let line_bytes = p.keys_per_line * 4;

    let mut instr_upper: Vec<Option<u64>> = Vec::with_capacity(program.len());
    let mut costs: Vec<InstrCost> = Vec::with_capacity(program.len());

    for (instr, step) in program.iter().zip(&flow.steps) {
        let (la, lb) = (flow.len_of(step.operands[0]), flow.len_of(step.operands[1]));
        let unbnd = is_unbounded_len(&la) || is_unbounded_len(&lb);
        let consumed_ub = ub(&la).saturating_add(ub(&lb));
        // Shared shape of the four key set-ops; `writeback` is 0 for
        // the count-only (.C) forms, which materialize nothing.
        let set_op = |busy_lo: u64, writeback: u64| -> InstrCost {
            let busy_ub = mutate_compare(compare_ub(&la, &lb)).max(supply_ub(consumed_ub));
            InstrCost {
                uops: 4,
                extra_upper: (!unbnd).then(|| bubble.saturating_add(busy_ub)),
                busy_lo,
                traffic_lo: 0,
                traffic_up: (!unbnd).then_some(writeback),
            }
        };
        // Busy floor of an intersection or subtraction consuming at
        // least `m` elements per side (none under an early-termination
        // bound).
        let cut_lo = |m: u64| m.div_ceil(p.su_width).max(supply_lo(m));
        let merge_lo = |consumed: u64| consumed.div_ceil(2 * p.su_width).max(supply_lo(consumed));
        let c = match *instr {
            Instr::SRead { len, .. } | Instr::SVRead { len, .. } => {
                let bytes = u64::from(len) * 4;
                InstrCost {
                    uops: if matches!(instr, Instr::SRead { .. }) { 5 } else { 6 },
                    extra_upper: Some(0),
                    busy_lo: 0,
                    traffic_lo: bytes.min(p.keys_per_line * p.prefetch_depth * 4),
                    traffic_up: Some(bytes.next_multiple_of(line_bytes.max(1))),
                }
            }
            Instr::SFree { .. } | Instr::SLdGfr { .. } => InstrCost::core(1, 0, 0),
            // Wait for stream readiness (≤ warmup_max) plus one
            // out-of-window refill stall (≤ warmup_max).
            Instr::SFetch { .. } => InstrCost::core(1, 2 * bubble, line_bytes),
            Instr::SInter { bound, .. } | Instr::SInterC { bound, .. } => {
                let m = if bound.get().is_some() { 0 } else { la.lo.min(lb.lo) };
                let materialized = matches!(instr, Instr::SInter { .. });
                set_op(
                    cut_lo(m),
                    if materialized { ub(&la).min(ub(&lb)).saturating_mul(4) } else { 0 },
                )
            }
            Instr::SSub { bound, .. } | Instr::SSubC { bound, .. } => {
                let m = if bound.get().is_some() { 0 } else { la.lo };
                let materialized = matches!(instr, Instr::SSub { .. });
                set_op(cut_lo(m), if materialized { ub(&la).saturating_mul(4) } else { 0 })
            }
            Instr::SMerge { .. } => {
                set_op(merge_lo(la.lo.saturating_add(lb.lo)), consumed_ub.saturating_mul(4))
            }
            Instr::SMergeC { .. } => set_op(merge_lo(la.lo.saturating_add(lb.lo)), 0),
            Instr::SVInter { .. } => {
                let matches_ub = ub(&la).min(ub(&lb));
                // Dense-seek consumes the dense side at the engine's
                // hardcoded 16× expansion: 17 · max covers both paths.
                let dense_ub = ub(&la).max(ub(&lb)).saturating_mul(17);
                let value_ub = matches_ub
                    .max(matches_ub.saturating_mul(2 * p.load_full).div_ceil(p.load_queue));
                let busy_ub =
                    mutate_compare(compare_ub(&la, &lb)).max(supply_ub(dense_ub)).max(value_ub);
                InstrCost {
                    uops: 1,
                    extra_upper: (!unbnd).then(|| bubble.saturating_add(busy_ub)),
                    busy_lo: cut_lo(la.lo.min(lb.lo)),
                    traffic_lo: 0,
                    traffic_up: (!unbnd).then(|| matches_ub.saturating_mul(16)),
                }
            }
            Instr::SVMerge { .. } => {
                let value_ub =
                    consumed_ub.max(consumed_ub.saturating_mul(p.load_full).div_ceil(p.load_queue));
                let busy_ub =
                    mutate_compare(compare_ub(&la, &lb)).max(supply_ub(consumed_ub)).max(value_ub);
                let consumed_lo = la.lo.saturating_add(lb.lo);
                InstrCost {
                    uops: 1,
                    extra_upper: (!unbnd).then(|| bubble.saturating_add(busy_ub)),
                    busy_lo: merge_lo(consumed_lo).max(step.out.lo),
                    // Value loads for every element plus the packed
                    // (key, value) writeback.
                    traffic_lo: consumed_lo.saturating_mul(8),
                    traffic_up: (!unbnd).then(|| consumed_ub.saturating_mul(20)),
                }
            }
            // Nested list lengths are data-dependent: no finite upper
            // bound (the walk widens the length hull).
            Instr::SNestInter { .. } => InstrCost {
                uops: la.lo.saturating_mul(3).saturating_add(1),
                extra_upper: None,
                busy_lo: 0,
                traffic_lo: 0,
                traffic_up: None,
            },
        };
        instr_upper.push(c.extra_upper.map(|e| e.saturating_add(c.uops.div_ceil(w))));
        costs.push(c);
    }

    let fold = |range: std::ops::Range<usize>| -> (CostInterval, CostInterval) {
        let mut uops = 0u64;
        let mut busy_sum = 0u64;
        let mut busy_max = 0u64;
        let mut upper: Option<u64> = Some(0);
        let mut tlo = 0u64;
        let mut tup: Option<u64> = Some(0);
        for (c, up) in costs[range.clone()].iter().zip(&instr_upper[range]) {
            uops = uops.saturating_add(c.uops);
            busy_sum = busy_sum.saturating_add(c.busy_lo);
            busy_max = busy_max.max(c.busy_lo);
            upper = upper.zip(*up).map(|(a, b)| a.saturating_add(b));
            tlo = tlo.saturating_add(c.traffic_lo);
            tup = tup.zip(c.traffic_up).map(|(a, b)| a.saturating_add(b));
        }
        let mut lower = (uops / w).max(busy_sum.div_ceil(p.num_sus)).max(busy_max);
        if mutation == Some(CostMutation::InflateLower) {
            lower = lower.saturating_mul(64);
        }
        (
            CostInterval { lower, upper: upper.map(|u| u.max(lower)) },
            CostInterval { lower: tlo, upper: tup.map(|u| u.max(tlo)) },
        )
    };

    let (cycles, traffic_bytes) = fold(0..program.len());

    // Regions: maximal runs of positive live-stream pressure, extended
    // through the instruction that drops pressure back to zero (the
    // closing free).
    let mut regions = Vec::new();
    let mut start: Option<usize> = None;
    for (i, step) in flow.steps.iter().enumerate() {
        if step.live > 0 && start.is_none() {
            start = Some(i);
        }
        if step.live > 0 && i + 1 < flow.steps.len() {
            continue;
        }
        if let Some(s) = start.take() {
            let (cycles, traffic_bytes) = fold(s..i + 1);
            let peak_pressure = flow.steps[s..=i].iter().map(|st| st.live).max().unwrap_or(0);
            regions.push(RegionCost { first: s, last: i, cycles, traffic_bytes, peak_pressure });
        }
    }

    let max_pressure = flow.peak_live();
    CostReport {
        cycles,
        traffic_bytes,
        regions,
        length_hull: flow.length_hull,
        max_pressure,
        footprint_bytes: (max_pressure as u64).saturating_mul(p.slot_bytes),
        instr_upper,
        params: p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_isa::{Bound, Priority, StreamId};

    fn sid(n: u32) -> StreamId {
        StreamId::new(n)
    }

    fn read(n: u32, len: u32) -> Instr {
        Instr::SRead {
            key_addr: 0x1000 * u64::from(n + 1),
            len,
            sid: sid(n),
            priority: Priority(0),
        }
    }

    fn triangle_like(len: u32) -> Program {
        vec![
            read(0, len),
            read(1, len),
            Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::none() },
            Instr::SFetch { sid: sid(2), offset: 0 },
            Instr::SFree { sid: sid(0) },
            Instr::SFree { sid: sid(1) },
            Instr::SFree { sid: sid(2) },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn bounded_program_has_finite_bounds() {
        let cfg = SparseCoreConfig::paper();
        let r = analyze_cost(&triangle_like(64), &cfg);
        assert!(r.cycles.is_bounded());
        assert!(r.cycles.lower > 0, "uop floor is positive");
        assert!(r.cycles.upper.unwrap() > r.cycles.lower);
        assert!(r.traffic_bytes.is_bounded());
        assert_eq!(r.max_pressure, 3);
        assert_eq!(r.footprint_bytes, 3 * 256);
        assert_eq!(r.regions.len(), 1);
        assert_eq!(r.regions[0].first, 0);
        assert_eq!(r.regions[0].last, 6);
    }

    #[test]
    fn nested_intersection_is_top() {
        let p: Program =
            vec![read(0, 8), Instr::SNestInter { sid: sid(0) }, Instr::SFree { sid: sid(0) }]
                .into_iter()
                .collect();
        let r = analyze_cost(&p, &SparseCoreConfig::paper());
        assert!(!r.cycles.is_bounded());
        assert!(!r.traffic_bytes.is_bounded());
        assert_eq!(r.length_hull, Interval::len_top());
        assert!(r.cycles.lower >= (5 + 1 + 3 * 8 + 1) / 4, "uop floor counts nested walks");
    }

    #[test]
    fn length_hull_covers_reads_and_outputs() {
        let r = analyze_cost(&triangle_like(64), &SparseCoreConfig::paper());
        assert!(r.length_hull.contains(&Interval::exact(64)), "read lengths in hull");
        assert!(r.length_hull.contains(&Interval::exact(0)), "empty intersection in hull");
        assert!(!r.length_hull.contains(&Interval::exact(200)));
    }

    #[test]
    fn bounds_scale_with_config() {
        let r1 = analyze_cost(&triangle_like(256), &SparseCoreConfig::with_sus(1));
        let r6 = analyze_cost(&triangle_like(256), &SparseCoreConfig::with_sus(6));
        assert_ne!(r1.params.config_digest, r6.params.config_digest);
        // One SU serializes busy cycles: the lower bound cannot drop
        // when SUs are removed.
        assert!(r1.cycles.lower >= r6.cycles.lower);
    }

    #[test]
    fn slicing_never_raises_lower() {
        let cfg = SparseCoreConfig::paper();
        let full = triangle_like(128);
        let base = analyze_cost(&full, &cfg);
        for skip in 0..full.len() {
            let sliced: Program =
                full.iter().enumerate().filter(|(i, _)| *i != skip).map(|(_, ins)| *ins).collect();
            let r = analyze_cost(&sliced, &cfg);
            assert!(
                r.cycles.lower <= base.cycles.lower,
                "removing instr {skip} raised lower {} -> {}",
                base.cycles.lower,
                r.cycles.lower
            );
        }
    }

    #[test]
    fn mutations_change_bounds() {
        let cfg = SparseCoreConfig::paper();
        let p = triangle_like(64);
        let base = analyze_cost(&p, &cfg);
        let dropped = analyze_cost_with(&p, &cfg, Some(CostMutation::DropWarmupCharge));
        assert!(dropped.cycles.upper.unwrap() < base.cycles.upper.unwrap());
        let inflated = analyze_cost_with(&p, &cfg, Some(CostMutation::InflateLower));
        assert!(inflated.cycles.lower > base.cycles.lower);
    }

    #[test]
    fn cost_interval_algebra() {
        let a = CostInterval::bounded(2, 10);
        assert!(a.contains(2) && a.contains(10) && !a.contains(11) && !a.contains(1));
        let t = CostInterval::unbounded(3);
        assert!(t.contains(u64::MAX));
        assert!(!t.contains(2));
        assert_eq!(a.add(&t), CostInterval::unbounded(5));
        assert_eq!(a.gap_ratio(), Some(5.0));
        assert_eq!(t.gap_ratio(), None);
        assert_eq!(a.tightness(5), Some(2.0));
        assert_eq!(format!("{}", a), "[2, 10]");
    }
}
