//! The partition-plan verifier: write-set disjointness proofs for
//! multicore shard plans.
//!
//! The multicore entry points (`sc_gpm::count_multicore` over start vertices,
//! `sc-kernels::parallel` over output rows and fibers) rely on runtime
//! `SC-S310` write-protection to *detect* cross-core overlap. This module
//! *proves* disjointness ahead of execution, and [`verify_partition`] is
//! the check each of them runs before any core does:
//!
//! * **Chunk plans** (contiguous `[start, end)` vertex/row ranges): a
//!   structural proof — sorted by start, each chunk ends before the next
//!   begins, all inside the work list — covers the common case in
//!   `O(n log n)`; a pairwise interval sweep is the fallback for
//!   arbitrary plans.
//! * **Shard plans** (strided residue-class write-sets from static
//!   interleaving): the same-stride residue proof of
//!   [`Stride::disjoint_residues`] covers static mode without
//!   enumeration; [`Stride::overlaps`] decides mixed plans exactly.
//!
//! A rejected plan's findings carry [`LintCode::SanReadOnlyWrite`] — the
//! runtime sanitizer code that would fire when the overlapping writer
//! hits the other core's protected range.

use crate::domain::{Interval, Stride};
use sc_lint::{Diagnostic, LintCode};
use sparsecore::{Chunk, Partition};

/// How a plan's disjointness was established (or refuted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanProof {
    /// Sorted, non-overlapping, in-range contiguous chunks: disjointness
    /// follows from the ordering alone.
    Structural,
    /// Pairwise interval sweep over an unsorted chunk plan.
    IntervalSweep,
    /// Same-stride distinct-residue argument (static interleave shards).
    ResidueClasses,
    /// Exact enumeration of the smaller progression (mixed strides).
    Enumeration,
    /// The plan is *not* disjoint; see the findings.
    Refuted,
}

impl PlanProof {
    /// Human name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlanProof::Structural => "structural",
            PlanProof::IntervalSweep => "interval-sweep",
            PlanProof::ResidueClasses => "residue-classes",
            PlanProof::Enumeration => "enumeration",
            PlanProof::Refuted => "refuted",
        }
    }
}

/// Outcome of a plan verification.
#[derive(Debug, Clone)]
pub struct PlanVerdict {
    /// How disjointness was proven, or [`PlanProof::Refuted`].
    pub proof: PlanProof,
    /// Overlap/bounds violations (empty iff the plan verified).
    pub findings: Vec<Diagnostic>,
}

impl PlanVerdict {
    /// Did the plan prove disjoint and in-bounds?
    pub fn verified(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Verify a chunk plan: every chunk inside `[0, total)`, no two chunks
/// sharing an item, and the chunks together covering all `total` items.
/// Chunks already sorted by `start` get the structural proof; otherwise
/// a pairwise sweep decides.
pub fn verify_chunk_plan(chunks: &[Chunk], total: usize) -> PlanVerdict {
    let mut findings = Vec::new();
    for c in chunks {
        if c.start > c.end {
            findings.push(Diagnostic::sanitizer(
                LintCode::SanReadOnlyWrite,
                format!("chunk {} is inverted: [{}, {})", c.index, c.start, c.end),
            ));
        }
        if c.end > total {
            findings.push(Diagnostic::sanitizer(
                LintCode::SanReadOnlyWrite,
                format!(
                    "chunk {} [{}, {}) exceeds the work list of {} items",
                    c.index, c.start, c.end, total
                ),
            ));
        }
    }
    let sorted = chunks.windows(2).all(|w| w[0].start <= w[1].start);
    let proof = if sorted {
        // Sorted: a running max over non-empty chunk ends decides
        // overlap. An adjacent-pair comparison is NOT enough — a
        // zero-length chunk sorting between two overlapping neighbours
        // (or a short chunk nested inside a longer earlier one) breaks
        // the adjacency argument, so every non-empty chunk must start at
        // or past the furthest end seen so far.
        let mut furthest: Option<&Chunk> = None;
        for b in chunks {
            if b.start >= b.end {
                continue; // zero-length: writes nothing, overlaps nothing
            }
            if let Some(a) = furthest {
                if b.start < a.end {
                    findings.push(Diagnostic::sanitizer(
                        LintCode::SanReadOnlyWrite,
                        format!(
                            "chunks {} [{}, {}) and {} [{}, {}) overlap \
                             (runtime counterpart: SC-S310)",
                            a.index, a.start, a.end, b.index, b.start, b.end
                        ),
                    ));
                }
            }
            if furthest.is_none_or(|a| b.end > a.end) {
                furthest = Some(b);
            }
        }
        PlanProof::Structural
    } else {
        for (i, a) in chunks.iter().enumerate() {
            for b in &chunks[i + 1..] {
                let ia = Interval::new(a.start as u64, a.end.max(a.start) as u64);
                let ib = Interval::new(b.start as u64, b.end.max(b.start) as u64);
                if ia.overlaps(&ib) {
                    findings.push(Diagnostic::sanitizer(
                        LintCode::SanReadOnlyWrite,
                        format!(
                            "chunks {} [{}, {}) and {} [{}, {}) overlap \
                             (runtime counterpart: SC-S310)",
                            a.index, a.start, a.end, b.index, b.start, b.end
                        ),
                    ));
                }
            }
        }
        PlanProof::IntervalSweep
    };
    // Coverage is the dual obligation: once the chunks are known
    // disjoint and in-bounds, their lengths must sum to `total` — a
    // shortfall means some items are assigned to no chunk and the
    // parallel run would silently drop their work.
    if findings.is_empty() {
        let covered: usize = chunks.iter().map(|c| c.end - c.start).sum();
        if covered != total {
            findings.push(Diagnostic::sanitizer(
                LintCode::SanStreamLeak,
                format!(
                    "chunk plan covers {covered} of {total} items; the gap is \
                     assigned to no core and its work would be dropped"
                ),
            ));
        }
    }
    let proof = if findings.is_empty() { proof } else { PlanProof::Refuted };
    PlanVerdict { proof, findings }
}

/// Verify per-core strided write-sets (one [`Stride`] per core, e.g. the
/// residue class `{c, c + n, ...}` a static interleave assigns core `c`).
/// The residue proof covers the all-same-stride case without
/// enumeration; mixed strides fall back to the exact overlap decision.
pub fn verify_core_write_sets(sets: &[Stride]) -> PlanVerdict {
    let mut findings = Vec::new();
    let mut all_residues = true;
    for (i, a) in sets.iter().enumerate() {
        for (j, b) in sets.iter().enumerate().skip(i + 1) {
            if a.disjoint_residues(b) {
                continue;
            }
            all_residues = false;
            if a.overlaps(b) {
                findings.push(Diagnostic::sanitizer(
                    LintCode::SanReadOnlyWrite,
                    format!(
                        "core {i} write-set {a} overlaps core {j} write-set {b} \
                         (runtime counterpart: SC-S310)"
                    ),
                ));
            }
        }
    }
    let proof = if !findings.is_empty() {
        PlanProof::Refuted
    } else if all_residues || sets.len() < 2 {
        PlanProof::ResidueClasses
    } else {
        PlanProof::Enumeration
    };
    PlanVerdict { proof, findings }
}

/// Verify a multicore `partition` of `total` items over `cores` cores —
/// the plan check every multicore entry point runs before any core does. The
/// static interleave gets the residue proof over each core's class, a
/// chunk plan [`verify_chunk_plan`].
pub fn verify_partition(partition: &Partition, cores: usize, total: usize) -> PlanVerdict {
    match partition {
        Partition::Static => verify_core_write_sets(
            &(0..cores).map(|c| interleave_write_set(0, c, cores, total, 1)).collect::<Vec<_>>(),
        ),
        Partition::Dynamic(chunks) => verify_chunk_plan(chunks, total),
    }
}

/// The write-set of one chunk of `width`-byte items based at `base`:
/// items `start..end` occupy
/// `[base + start*width, base + end*width)`.
pub fn chunk_write_set(base: u64, chunk: &Chunk, width: u64) -> Stride {
    Stride::contiguous(base + chunk.start as u64 * width, (chunk.end - chunk.start) as u64, width)
}

/// The write-set of a static-interleave shard: core `core` of `cores`
/// owning items `{core, core + cores, ...}` below `total`, each item
/// `width` bytes at `base + item*width`.
pub fn interleave_write_set(
    base: u64,
    core: usize,
    cores: usize,
    total: usize,
    width: u64,
) -> Stride {
    let count = if core >= total { 0 } else { ((total - core - 1) / cores.max(1) + 1) as u64 };
    Stride { base: base + core as u64 * width, stride: cores.max(1) as u64 * width, count, width }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsecore::chunks;

    #[test]
    fn sorted_chunk_plan_proves_structurally() {
        let cs = chunks(100, 8);
        let v = verify_chunk_plan(&cs, 100);
        assert!(v.verified());
        assert_eq!(v.proof, PlanProof::Structural);
    }

    #[test]
    fn unsorted_disjoint_plan_uses_sweep() {
        let mut cs = chunks(100, 8);
        cs.reverse();
        let v = verify_chunk_plan(&cs, 100);
        assert!(v.verified());
        assert_eq!(v.proof, PlanProof::IntervalSweep);
    }

    #[test]
    fn overlapping_chunks_are_refuted_with_s310() {
        let cs = vec![Chunk { index: 0, start: 0, end: 10 }, Chunk { index: 1, start: 8, end: 16 }];
        let v = verify_chunk_plan(&cs, 16);
        assert!(!v.verified());
        assert_eq!(v.proof, PlanProof::Refuted);
        assert_eq!(v.findings[0].code, LintCode::SanReadOnlyWrite);
    }

    #[test]
    fn out_of_range_chunk_is_refuted() {
        let cs = vec![Chunk { index: 0, start: 0, end: 20 }];
        let v = verify_chunk_plan(&cs, 16);
        assert!(!v.verified());
    }

    #[test]
    fn zero_length_tail_is_fine() {
        let cs =
            vec![Chunk { index: 0, start: 0, end: 16 }, Chunk { index: 1, start: 16, end: 16 }];
        let v = verify_chunk_plan(&cs, 16);
        assert!(v.verified());
        assert_eq!(v.proof, PlanProof::Structural);
    }

    #[test]
    fn zero_length_chunk_between_overlapping_chunks_is_refuted() {
        // Regression: a zero-length chunk sorting between two overlapping
        // neighbours used to defeat the adjacent-pair check, and the
        // overlap offset the coverage gap so the sum-check passed too —
        // the plan verified despite items 60..70 being double-assigned
        // and 100..110 covered by nobody.
        let cs = vec![
            Chunk { index: 0, start: 0, end: 100 },
            Chunk { index: 1, start: 50, end: 50 },
            Chunk { index: 2, start: 60, end: 70 },
        ];
        let v = verify_chunk_plan(&cs, 110);
        assert!(!v.verified(), "{:?}", v.findings);
        assert_eq!(v.proof, PlanProof::Refuted);
        assert!(v.findings.iter().any(|d| d.code == LintCode::SanReadOnlyWrite));
    }

    #[test]
    fn nested_chunk_past_adjacent_neighbour_is_refuted() {
        // Sorted by start, each adjacent pair looks fine against its
        // immediate neighbour's end, but chunk 2 sits inside chunk 0:
        // the running-max proof must still refute it.
        let cs = vec![
            Chunk { index: 0, start: 0, end: 100 },
            Chunk { index: 1, start: 40, end: 50 },
            Chunk { index: 2, start: 70, end: 80 },
        ];
        let v = verify_chunk_plan(&cs, 100);
        assert!(!v.verified());
        assert_eq!(v.proof, PlanProof::Refuted);
    }

    #[test]
    fn zero_length_chunks_interleaved_with_disjoint_plan_verify() {
        // Zero-length chunks anywhere in an otherwise disjoint, covering,
        // sorted plan must not trip the structural proof.
        let cs = vec![
            Chunk { index: 0, start: 0, end: 0 },
            Chunk { index: 1, start: 0, end: 8 },
            Chunk { index: 2, start: 5, end: 5 },
            Chunk { index: 3, start: 8, end: 16 },
            Chunk { index: 4, start: 16, end: 16 },
        ];
        let v = verify_chunk_plan(&cs, 16);
        assert!(v.verified(), "{:?}", v.findings);
        assert_eq!(v.proof, PlanProof::Structural);
    }

    #[test]
    fn empty_plan_verifies() {
        assert!(verify_chunk_plan(&[], 0).verified());
    }

    #[test]
    fn gapped_plan_is_refuted_for_dropped_work() {
        let cs = [Chunk { index: 0, start: 0, end: 4 }, Chunk { index: 1, start: 6, end: 10 }];
        let v = verify_chunk_plan(&cs, 10);
        assert!(!v.verified());
        assert_eq!(v.proof, PlanProof::Refuted);
        assert!(v.findings.iter().any(|d| d.code == LintCode::SanStreamLeak), "{:?}", v.findings);
        // An empty plan over non-empty work drops everything.
        assert!(!verify_chunk_plan(&[], 10).verified());
    }

    #[test]
    fn interleave_shards_prove_by_residue() {
        let sets: Vec<Stride> =
            (0..6).map(|c| interleave_write_set(0x9000, c, 6, 1000, 4)).collect();
        let v = verify_core_write_sets(&sets);
        assert!(v.verified());
        assert_eq!(v.proof, PlanProof::ResidueClasses);
        // Counts partition the 1000 items exactly.
        let total: u64 = sets.iter().map(|s| s.count).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn colliding_shards_are_refuted() {
        let a = interleave_write_set(0x9000, 0, 4, 64, 4);
        let b = interleave_write_set(0x9000, 0, 4, 64, 4);
        let v = verify_core_write_sets(&[a, b]);
        assert!(!v.verified());
        assert_eq!(v.proof, PlanProof::Refuted);
    }

    #[test]
    fn interleave_counts_handle_small_totals() {
        // 2 items over 4 cores: cores 2 and 3 own nothing.
        for c in 0..4 {
            let s = interleave_write_set(0, c, 4, 2, 4);
            assert_eq!(s.count, u64::from(c < 2));
        }
        let sets: Vec<Stride> = (0..4).map(|c| interleave_write_set(0, c, 4, 2, 4)).collect();
        assert!(verify_core_write_sets(&sets).verified());
    }
}
