//! Multicore runs: one serial host loop over per-core states.
//!
//! The paper's multicore evaluation (Table 2: six cores, Section 5.1:
//! read-only operand sharing) needs a work distribution policy. Two are
//! modeled, behind one [`Partition`] value:
//!
//! * **static** interleaving: core `c` of `n` takes the residue class
//!   `{c, c+n, c+2n, ...}`, fixed up front. Deterministic, but it cannot
//!   adapt to skew;
//! * **dynamic** self-scheduling over an explicit chunk plan: the next
//!   chunk always goes to the core whose *simulated* clock is lowest
//!   (ties break to the lowest core id). That is exactly the order a
//!   zero-overhead hardware work queue would produce — a core claims the
//!   next chunk at the moment it finishes its current one.
//!
//! Every simulated core owns a private engine, so host order cannot move
//! a cycle count, but it does decide the order in which a shared probe
//! sees events. [`run_partition`] therefore drives every core from one
//! serial host loop: the claim sequence is a pure function of simulated
//! time, repeated runs are cycle-exact, and their traces byte-identical.
//! GPM hands it start vertices (`sc_gpm::count_multicore`), the tensor
//! kernels output rows and fibers (`sc_kernels::parallel`).

use crate::Engine;

/// Multicore scheduling policy, as the CLI and the record names spell it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Static interleaved partition ([`Partition::Static`]).
    Static,
    /// Deterministic dynamic self-scheduling over uniform chunks
    /// ([`Partition::Dynamic`] of [`chunks`]).
    Dynamic,
}

impl SchedMode {
    /// Parse a CLI name (`static` / `dynamic`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid modes on anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "static" => Ok(SchedMode::Static),
            "dynamic" => Ok(SchedMode::Dynamic),
            other => Err(format!("unknown scheduler mode '{other}' (expected static|dynamic)")),
        }
    }

    /// The CLI / record-workload name.
    pub fn name(self) -> &'static str {
        match self {
            SchedMode::Static => "static",
            SchedMode::Dynamic => "dynamic",
        }
    }

    /// The partition this mode gives `total` items: the static
    /// interleave, or `total` cut into chunks of `chunk_size`.
    ///
    /// # Panics
    ///
    /// Panics in dynamic mode if `chunk_size` is zero.
    pub fn partition(self, total: usize, chunk_size: usize) -> Partition {
        match self {
            SchedMode::Static => Partition::Static,
            SchedMode::Dynamic => Partition::Dynamic(chunks(total, chunk_size)),
        }
    }
}

impl std::fmt::Display for SchedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a multicore run splits its work items across cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partition {
    /// Static interleave: core `c` of `n` runs items `{c, c+n, ...}` and
    /// drains once.
    Static,
    /// A chunk plan, claimed in order by the core with the lowest
    /// simulated clock; a core drains at the end of each chunk.
    Dynamic(Vec<Chunk>),
}

/// One contiguous chunk `[start, end)` of an iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Position in the chunk sequence (claim order is by this index).
    pub index: usize,
    /// First item (inclusive).
    pub start: usize,
    /// One past the last item.
    pub end: usize,
}

impl Chunk {
    /// Number of items in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is the chunk empty?
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Cut `total` items into chunks of `chunk_size` (the last may be short).
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn chunks(total: usize, chunk_size: usize) -> Vec<Chunk> {
    assert!(chunk_size > 0, "chunk size must be positive");
    (0..total.div_ceil(chunk_size))
        .map(|i| Chunk { index: i, start: i * chunk_size, end: ((i + 1) * chunk_size).min(total) })
        .collect()
}

/// One chunk's execution record: who ran it and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRecord {
    /// The chunk that was claimed.
    pub chunk: Chunk,
    /// The claiming core.
    pub core: usize,
    /// The core's simulated clock when it claimed the chunk.
    pub claimed_at: u64,
    /// The core's simulated clock when the chunk completed (its engine
    /// drained).
    pub done_at: u64,
}

impl ChunkRecord {
    /// Cycles the chunk occupied its core.
    pub fn cycles(&self) -> u64 {
        self.done_at - self.claimed_at
    }
}

/// Outcome of a multicore run: every core's final clock and, under a
/// chunk plan, the chunk claims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSchedule {
    /// Final simulated clock of every core.
    pub per_core: Vec<u64>,
    /// Per-chunk execution records, in claim order (empty when static).
    pub records: Vec<ChunkRecord>,
}

impl ChunkSchedule {
    /// Completion time: the slowest core's clock.
    pub fn makespan(&self) -> u64 {
        self.per_core.iter().copied().max().unwrap_or(0)
    }
}

/// Slowest / mean of a per-core cycle vector (1.0 when empty or all-zero).
pub fn imbalance(per_core: &[u64]) -> f64 {
    if per_core.is_empty() {
        return 1.0;
    }
    let mean = per_core.iter().sum::<u64>() as f64 / per_core.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        per_core.iter().copied().max().unwrap_or(0) as f64 / mean
    }
}

/// Result of a multi-core run (any workload: GPM counts, tensor rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiCoreRun {
    /// Total work units across all partitions (embeddings for GPM,
    /// product nonzeros / fibers for the tensor paths) — exact.
    pub count: u64,
    /// Completion time: the slowest core's cycles.
    pub cycles: u64,
    /// Per-core cycle counts (for load-imbalance inspection).
    pub per_core: Vec<u64>,
}

impl MultiCoreRun {
    /// A run of `count` work units whose cores finished at `per_core`.
    pub fn new(count: u64, per_core: Vec<u64>) -> Self {
        MultiCoreRun { count, cycles: per_core.iter().copied().max().unwrap_or(0), per_core }
    }

    /// Load imbalance: slowest / mean per-core cycles (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        imbalance(&self.per_core)
    }
}

/// The items [`run_partition`] hands a core at once: its residue class,
/// or one chunk.
pub type Items = std::iter::StepBy<std::ops::Range<usize>>;

/// Run `total` items on `cores`, one state per simulated core, under
/// `partition`, from one serial host loop.
///
/// `run(core, items)` executes items on a core; `drain(core)` drains it
/// after a chunk, and `finish(core)` is every core's last drain. Both
/// return the core's new *absolute* simulated clock. Static: each core
/// runs its residue class, then finishes. Dynamic: chunks are claimed in
/// plan order, each by the core with the lowest clock (ties toward the
/// lowest id), which drains at the chunk's end; then every core
/// finishes. The plan is the caller's to verify.
///
/// # Panics
///
/// Panics if `cores` is empty or a drain returns a clock lower than the
/// core's current one (simulated time must be monotonic per core).
pub fn run_partition<S>(
    cores: &mut [S],
    total: usize,
    partition: &Partition,
    mut run: impl FnMut(&mut S, Items),
    mut drain: impl FnMut(&mut S) -> u64,
    finish: impl FnMut(&mut S) -> u64,
) -> ChunkSchedule {
    let n = cores.len();
    assert!(n > 0, "need at least one core");
    let mut records = Vec::new();
    match partition {
        Partition::Static => {
            for (c, core) in cores.iter_mut().enumerate() {
                run(core, (c..total).step_by(n));
            }
        }
        Partition::Dynamic(plan) => {
            let mut clocks = vec![0u64; n];
            for &chunk in plan {
                let core = (0..n).min_by_key(|&c| (clocks[c], c)).expect("n > 0");
                let claimed_at = clocks[core];
                run(&mut cores[core], (chunk.start..chunk.end).step_by(1));
                let done_at = drain(&mut cores[core]);
                assert!(
                    done_at >= claimed_at,
                    "core {core} clock moved backwards ({claimed_at} -> {done_at})"
                );
                clocks[core] = done_at;
                records.push(ChunkRecord { chunk, core, claimed_at, done_at });
            }
        }
    }
    ChunkSchedule { per_core: cores.iter_mut().map(finish).collect(), records }
}

/// Close a multicore run over its cores' `engines`, in core order: check
/// each core's conservation law, submit each core's span log padded to
/// the makespan to the engine's probe, and merge every core's sanitizer
/// findings into one report.
///
/// # Panics
///
/// Panics if a core's attribution bins do not sum to its final clock in
/// `sched`: the single-core conservation law (bins sum to the clock by
/// construction at `Core::advance`) must survive any partition.
pub fn collect_cores<'a>(
    engines: impl IntoIterator<Item = &'a mut Engine>,
    sched: &ChunkSchedule,
) -> sc_lint::Report {
    let mut diags = Vec::new();
    for (c, engine) in engines.into_iter().enumerate() {
        assert_eq!(
            engine.attribution().total(),
            sched.per_core[c],
            "core {c}: attribution bins must sum to the core's simulated clock"
        );
        if let Some(mut snap) = engine.span_snapshot() {
            snap.pad_idle(sched.makespan());
            engine.probe().submit_spans(c, snap);
        }
        diags.extend(engine.sanitizer_final_report().diagnostics().iter().cloned());
    }
    sc_lint::Report::new(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `partition` on `n` cores whose state is just their clock, each
    /// item costing `cost(item)`.
    fn clocked(
        n: usize,
        total: usize,
        partition: &Partition,
        cost: impl Fn(usize) -> u64,
    ) -> ChunkSchedule {
        let read = |clock: &mut u64| *clock;
        run_partition(
            &mut vec![0u64; n],
            total,
            partition,
            |clock, items| *clock += items.map(&cost).sum::<u64>(),
            read,
            read,
        )
    }

    #[test]
    fn chunks_cover_the_space_exactly_once() {
        let cs = chunks(100, 32);
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[0], Chunk { index: 0, start: 0, end: 32 });
        assert_eq!(cs[3], Chunk { index: 3, start: 96, end: 100 });
        assert_eq!(cs.iter().map(Chunk::len).sum::<usize>(), 100);
        assert!(chunks(0, 8).is_empty());
        // Chunk size beyond the total gives one chunk.
        assert_eq!(chunks(5, 64), vec![Chunk { index: 0, start: 0, end: 5 }]);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_size_rejected() {
        chunks(10, 0);
    }

    #[test]
    fn lowest_clock_claims_next_with_low_id_tiebreak() {
        // Chunk costs: 10, 1, 1, 1. Core 0 takes chunk 0 (tie at clock 0
        // breaks low), then cores 1 and 0-vs-1 alternate on the cheap rest.
        let cost = [10u64, 1, 1, 1];
        let sched = clocked(2, 4, &Partition::Dynamic(chunks(4, 1)), |i| cost[i]);
        let assigned: Vec<usize> = sched.records.iter().map(|r| r.core).collect();
        // Chunk 0 -> core 0 (10 cycles). Chunks 1..3 all land on core 1
        // (1, 2, 3 cycles — still below core 0's 10).
        assert_eq!(assigned, vec![0, 1, 1, 1]);
        assert_eq!(sched.per_core, vec![10, 3]);
        assert_eq!(sched.makespan(), 10);
    }

    #[test]
    fn self_schedule_is_deterministic() {
        let cost = |i: usize| 3 + (i as u64 / 4 * 7) % 5;
        let run = || clocked(3, 40, &Partition::Dynamic(chunks(40, 4)), cost);
        assert_eq!(run(), run());
    }

    #[test]
    fn static_runs_each_residue_class_once() {
        let mut seen = vec![Vec::new(); 3];
        let sched = run_partition(
            &mut [0usize, 1, 2],
            10,
            &Partition::Static,
            |&mut c, items| seen[c].extend(items),
            |_| unreachable!("static drains once, at the end"),
            |&mut c| c as u64,
        );
        assert_eq!(seen, vec![vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]]);
        assert_eq!(sched.per_core, vec![0, 1, 2]);
        assert!(sched.records.is_empty());
    }

    #[test]
    fn dynamic_beats_static_on_a_skewed_cost_sequence() {
        // Head-heavy costs (one hot item): static round-robin piles the
        // hot item onto a core that also gets its full share of the rest,
        // self-scheduling steers later chunks away from it.
        let cost = |i: usize| if i == 0 { 100 } else { 5 };
        let st = clocked(4, 32, &Partition::Static, cost);
        let dy = clocked(4, 32, &Partition::Dynamic(chunks(32, 1)), cost);
        assert!(dy.makespan() < st.makespan());
        assert!(imbalance(&dy.per_core) < imbalance(&st.per_core));
    }

    #[test]
    fn imbalance_degenerates_to_one() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
        assert_eq!(imbalance(&[5, 5, 5]), 1.0);
        assert!((imbalance(&[30, 10, 20]) - 1.5).abs() < 1e-12);
        let run = MultiCoreRun::new(1, vec![30, 10, 20]);
        assert_eq!(run.cycles, 30);
        assert!((run.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn records_carry_claim_windows() {
        let sched = clocked(2, 4, &Partition::Dynamic(chunks(4, 2)), |_| 2);
        for r in &sched.records {
            assert_eq!(r.cycles(), 4);
            assert_eq!(r.done_at, r.claimed_at + 4);
        }
        assert_eq!(sched.records.len(), 2);
    }

    #[test]
    fn sched_mode_parses() {
        assert_eq!(SchedMode::parse("static"), Ok(SchedMode::Static));
        assert_eq!(SchedMode::parse("dynamic"), Ok(SchedMode::Dynamic));
        assert!(SchedMode::parse("greedy").is_err());
        assert_eq!(SchedMode::Dynamic.to_string(), "dynamic");
        assert_eq!(SchedMode::Static.partition(10, 4), Partition::Static);
        assert_eq!(SchedMode::Dynamic.partition(10, 4), Partition::Dynamic(chunks(10, 4)));
    }
}
