//! The event-driven out-of-order core timing model.
//!
//! The functional workload narrates its execution to the [`Core`] as a
//! stream of micro-architectural events (compute ops, branches with real
//! outcomes, loads/stores with real addresses). The core converts those
//! events into cycles under a zSim-style approximation of an out-of-order
//! pipeline:
//!
//! * independent ops retire at the issue width;
//! * dependent op chains serialize (one per cycle);
//! * correctly-predicted branches cost an issue slot, mispredicted ones add
//!   the full pipeline-refill penalty;
//! * independent loads overlap with each other up to the load-queue depth
//!   (memory-level parallelism), paying only the *exposed* latency;
//! * dependent (`load_use`) loads expose their full beyond-L1 latency.

use crate::breakdown::{Breakdown, Region};
use crate::predictor::Gshare;
use sc_mem::{Addr, Cycle, HierarchyConfig, MemoryHierarchy};
use sc_probe::{Attribution, Probe, Site, SpanLog, SpanSnapshot};
use std::collections::VecDeque;

/// Configuration of the core model (paper Table 2 plus standard OoO
/// parameters zSim would use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Superscalar issue width (micro-ops per cycle).
    pub issue_width: u32,
    /// Reorder-buffer capacity (bounds total in-flight work).
    pub rob_size: u32,
    /// Load-queue depth (bounds overlapping loads). Paper Table 2: 32.
    pub load_queue: u32,
    /// Pipeline-refill penalty for a mispredicted branch.
    pub mispredict_penalty: Cycle,
    /// Branch-predictor global history bits.
    pub predictor_bits: u32,
    /// Memory hierarchy parameters.
    pub mem: HierarchyConfig,
}

impl CoreConfig {
    /// The paper's configuration: ROB 128, load queue 32, caches of
    /// Table 2, 4-wide issue, 14-cycle mispredict penalty.
    pub fn paper() -> Self {
        CoreConfig {
            issue_width: 4,
            rob_size: 128,
            load_queue: 32,
            mispredict_penalty: 14,
            predictor_bits: 12,
            mem: HierarchyConfig::paper(),
        }
    }

    /// Small configuration for unit tests.
    pub fn tiny() -> Self {
        CoreConfig {
            issue_width: 2,
            rob_size: 16,
            load_queue: 4,
            mispredict_penalty: 8,
            predictor_bits: 8,
            mem: HierarchyConfig::tiny(),
        }
    }
}

/// Aggregate statistics exposed by the core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Micro-ops issued.
    pub uops: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
}

// The cycle ledger's slots: compute cycles in each `Region` (slot
// `region as usize`), the mispredict refill, then a blocking stall at
// each `Site` (`stall_slot`).
/// The mispredict refill's slot, after the two regions' compute slots.
const MISPREDICT_SLOT: usize = 2;
/// The first stall slot.
const STALL_SLOTS: usize = MISPREDICT_SLOT + 1;
/// The ledger's length.
const SLOTS: usize = STALL_SLOTS + Site::COUNT;

/// The ledger slot of a blocking stall at `site`.
#[inline]
fn stall_slot(site: Site) -> usize {
    STALL_SLOTS + site as usize
}

/// The out-of-order core timing model.
///
/// See the crate docs for the modeling philosophy. All methods advance the
/// core's internal cycle count; [`Core::cycles`] reads it back and
/// [`Core::breakdown`] splits it into the paper's Figure 9 buckets.
#[derive(Debug, Clone)]
pub struct Core {
    config: CoreConfig,
    mem: MemoryHierarchy,
    predictor: Gshare,
    cycle: Cycle,
    /// Completion times of outstanding (overlappable) loads.
    outstanding: VecDeque<Cycle>,
    region: Region,
    stats: CoreStats,
    /// Fractional issue-slot accumulator (ops not yet forming a full cycle).
    slack_uops: u64,
    /// The one cycle ledger: every clock advance adds to exactly one
    /// slot, so the slots sum to `cycle` by construction (the
    /// conservation property the Figure 9/10 reporting relies on).
    /// [`Core::breakdown`] and [`Core::attribution`] are projections.
    ledger: [Cycle; SLOTS],
    /// The site blocking stalls are charged to; its bin is
    /// [`Site::bin`]. The driving engine switches it around waits whose
    /// cause it knows (SU completion, S-Cache refill, translator); plain
    /// memory pressure is the default.
    stall_site: Site,
    /// Simulated-clock span log, allocated only when the driving probe
    /// requested spans ([`Core::enable_span_log`]). `None` costs one
    /// null-pointer branch per clock advance.
    span_log: Option<Box<SpanLog>>,
}

impl Core {
    /// Create a core with cold caches and an untrained predictor.
    ///
    /// # Panics
    ///
    /// Panics if `issue_width` or `load_queue` is 0: the model cannot
    /// retire micro-ops at width 0 or issue loads into an empty queue.
    pub fn new(config: CoreConfig) -> Self {
        assert!(config.issue_width > 0, "issue_width must be at least 1");
        assert!(config.load_queue > 0, "load_queue must be at least 1");
        Core {
            config,
            mem: MemoryHierarchy::new(config.mem),
            predictor: Gshare::new(config.predictor_bits),
            cycle: 0,
            outstanding: VecDeque::new(),
            region: Region::Other,
            stats: CoreStats::default(),
            slack_uops: 0,
            ledger: [0; SLOTS],
            stall_site: Site::MemReady,
            span_log: None,
        }
    }

    /// Attach a probe handle (forwarded to the memory hierarchy; the
    /// core's own attribution is always on and read back via
    /// [`Core::attribution`]).
    pub fn set_probe(&mut self, probe: Probe) {
        self.mem.set_probe(probe);
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Total cycles elapsed.
    pub fn cycles(&self) -> Cycle {
        self.cycle
    }

    /// The cycle ledger in the paper's Figure 9 buckets: every blocking
    /// stall is cache, compute goes to its region's bucket.
    pub fn breakdown(&self) -> Breakdown {
        let l = &self.ledger;
        Breakdown {
            cache: l[STALL_SLOTS..].iter().sum(),
            mispredict: l[MISPREDICT_SLOT],
            other_compute: l[Region::Other as usize],
            intersection: l[Region::Intersection as usize],
        }
    }

    /// Event counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The memory hierarchy (for inspecting cache statistics).
    pub fn mem(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Mutable access to the hierarchy (the SparseCore engine shares it for
    /// S-Cache refills and value loads).
    pub fn mem_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    /// Set the attribution region for subsequent compute cycles; returns
    /// the previous region so callers can restore it.
    pub fn set_region(&mut self, region: Region) -> Region {
        std::mem::replace(&mut self.region, region)
    }

    /// Current attribution region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The cycle ledger per [`Site`], in [`Site::ALL`] order (the slots
    /// sum to [`Core::cycles`]): compute and mispredict refills are
    /// scalar work, a stall counts at its site.
    fn site_cycles(&self) -> [Cycle; Site::COUNT] {
        let mut sites = [0; Site::COUNT];
        sites.copy_from_slice(&self.ledger[STALL_SLOTS..]);
        sites[Site::Scalar as usize] += self.ledger[..STALL_SLOTS].iter().sum::<Cycle>();
        sites
    }

    /// The cycle ledger in the five attribution bins (`total()` equals
    /// [`Core::cycles`]): the per-site view folded by [`Site::bin`].
    pub fn attribution(&self) -> Attribution {
        Attribution::from_sites(&self.site_cycles())
    }

    /// Set the site that blocking stalls are charged to (their bin is
    /// [`Site::bin`]); returns the previous site so callers can restore
    /// it around a scoped wait.
    pub fn set_stall_site(&mut self, site: Site) -> Site {
        std::mem::replace(&mut self.stall_site, site)
    }

    /// Start keeping a span log with a `cap`-segment ring. If cycles have
    /// already elapsed they are backfilled from the ledger, one segment
    /// per site in [`Site::ALL`] order, so the log stays conserving:
    /// `span cursor == cycles()` from here on.
    pub fn enable_span_log(&mut self, cap: usize) {
        if self.span_log.is_some() {
            return;
        }
        let mut log = Box::new(SpanLog::new(cap));
        for (site, cycles) in Site::ALL.into_iter().zip(self.site_cycles()) {
            log.record(cycles, site);
        }
        self.span_log = Some(log);
    }

    /// The span log, when enabled.
    pub fn span_log(&self) -> Option<&SpanLog> {
        self.span_log.as_deref()
    }

    /// Snapshot the span log with the ledger's per-site totals (`None`
    /// when spans were never enabled). The caller labels the core id when
    /// submitting to the probe.
    pub fn span_snapshot(&self) -> Option<SpanSnapshot> {
        self.span_log.as_ref().map(|log| log.snapshot(0, self.site_cycles()))
    }

    /// Move the clock by `cycles`, charged to ledger `slot` and, in the
    /// span log, to `site`.
    #[inline]
    fn advance(&mut self, cycles: Cycle, slot: usize, site: Site) {
        self.cycle += cycles;
        self.ledger[slot] += cycles;
        if let Some(log) = &mut self.span_log {
            log.record(cycles, site);
        }
    }

    /// Charge `cycles` of compute to the current region.
    #[inline]
    fn compute(&mut self, cycles: Cycle) {
        self.advance(cycles, self.region as usize, Site::Scalar);
    }

    /// Issue `n` *independent* micro-ops: they retire at the issue width.
    #[inline]
    pub fn ops(&mut self, n: u64) {
        self.stats.uops += n;
        let total = self.slack_uops + n;
        let width = u64::from(self.config.issue_width);
        if total < width {
            self.slack_uops = total; // still inside the current issue cycle
            return;
        }
        let cycles = total / width;
        self.slack_uops = total % width;
        if cycles > 0 {
            self.compute(cycles);
        }
    }

    /// Issue `n` *serially dependent* micro-ops (a dependence chain): one
    /// cycle each.
    #[inline]
    pub fn dependent_ops(&mut self, n: u64) {
        self.stats.uops += n;
        self.compute(n);
    }

    /// Execute a conditional branch at `pc` whose real outcome was `taken`.
    /// Charges one issue slot, plus the refill penalty on a mispredict.
    ///
    /// The penalty is charged as `penalty × miss` (zero on a hit) rather
    /// than under an `if`, so the host does not branch on the outcome
    /// being modeled. A zero charge leaves every ledger unchanged:
    /// [`SpanLog::record`] ignores zero-cycle records.
    #[inline]
    pub fn branch(&mut self, pc: Addr, taken: bool) {
        self.stats.branches += 1;
        self.ops(1);
        let miss = u64::from(!self.predictor.predict_and_update(pc, taken));
        self.stats.mispredicts += miss;
        let penalty = self.config.mispredict_penalty * miss;
        self.cycle += penalty;
        self.ledger[MISPREDICT_SLOT] += penalty;
        if let Some(log) = &mut self.span_log {
            log.record(penalty, Site::Scalar);
        }
    }

    /// Issue a load whose consumer is far away: it overlaps with other
    /// work and other loads (up to the load-queue depth). Only queue-full
    /// pressure is exposed as stall.
    #[inline]
    pub fn load(&mut self, addr: Addr) {
        self.stats.loads += 1;
        self.ops(1);
        let depth = self.config.load_queue as usize;
        if self.outstanding.len() >= depth {
            self.retire_completed();
            // Queue full: stall until the oldest completes.
            if self.outstanding.len() >= depth {
                let oldest = self.outstanding.pop_front().expect("non-empty queue");
                if oldest > self.cycle {
                    self.stall_memory(oldest - self.cycle);
                }
            }
        }
        let result = self.mem.load(addr);
        self.outstanding.push_back(self.cycle + result.latency);
    }

    /// Drop the completed loads at the front of the load queue.
    ///
    /// [`Core::load`] retires only when the queue holds `load_queue`
    /// entries, not on every load, so the host does not branch per load
    /// on how many loads completed. That is exact: the clock never goes
    /// back, so a completed load stays completed, and dropping the
    /// completed front late drops the same entries as dropping it on
    /// every call. The queue length is only read after a retirement, and
    /// a queue that holds fewer entries than `load_queue` cannot be full.
    fn retire_completed(&mut self) {
        while let Some(&front) = self.outstanding.front() {
            if front > self.cycle {
                break;
            }
            self.outstanding.pop_front();
        }
    }

    /// Issue a load whose value is needed immediately (pointer chase /
    /// data-dependent compare). The beyond-L1 latency is exposed as a
    /// cache stall (zero on an L1 hit, which the pipeline hides).
    #[inline]
    pub fn load_use(&mut self, addr: Addr) {
        self.stats.loads += 1;
        self.ops(1);
        let result = self.mem.load(addr);
        self.stall_memory(result.latency.saturating_sub(self.config.mem.l1.latency));
    }

    /// Issue a store (write-allocate; does not stall the core).
    #[inline]
    pub fn store(&mut self, addr: Addr) {
        self.stats.stores += 1;
        self.ops(1);
        self.mem.store(addr);
    }

    /// Stall the core for `cycles` at the current stall site (used by
    /// the SparseCore engine when the core blocks on a stream result).
    #[inline]
    pub fn stall_memory(&mut self, cycles: Cycle) {
        self.advance(cycles, stall_slot(self.stall_site), self.stall_site);
    }

    /// Advance the core's clock to at least `t`, stalled at the current
    /// stall site (waiting on an event).
    pub fn wait_until(&mut self, t: Cycle) {
        if t > self.cycle {
            self.stall_memory(t - self.cycle);
        }
    }

    /// Branch-predictor mispredict rate observed so far.
    pub fn mispredict_rate(&self) -> f64 {
        self.predictor.mispredict_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_probe::AttrBin;

    #[test]
    #[should_panic(expected = "issue_width must be at least 1")]
    fn zero_issue_width_rejected() {
        Core::new(CoreConfig { issue_width: 0, ..CoreConfig::tiny() });
    }

    #[test]
    #[should_panic(expected = "load_queue must be at least 1")]
    fn zero_load_queue_rejected() {
        Core::new(CoreConfig { load_queue: 0, ..CoreConfig::tiny() });
    }

    #[test]
    fn ops_respect_issue_width() {
        let mut core = Core::new(CoreConfig::tiny()); // width 2
        core.ops(10);
        assert_eq!(core.cycles(), 5);
        assert_eq!(core.breakdown().other_compute, 5);
    }

    #[test]
    fn slack_accumulates_partial_cycles() {
        let mut core = Core::new(CoreConfig::tiny());
        core.ops(1); // half a cycle of width-2 issue: no full cycle yet
        assert_eq!(core.cycles(), 0);
        core.ops(1);
        assert_eq!(core.cycles(), 1);
    }

    #[test]
    fn dependent_ops_serialize() {
        let mut core = Core::new(CoreConfig::tiny());
        core.dependent_ops(10);
        assert_eq!(core.cycles(), 10);
    }

    #[test]
    fn mispredict_charges_penalty() {
        let mut core = Core::new(CoreConfig::tiny());
        // Alternate outcomes at one PC with a cold predictor: plenty of
        // mispredicts, each costing 8 cycles in the mispredict bucket.
        for i in 0..20 {
            core.branch(0x10, i % 3 == 0);
        }
        assert!(core.stats().mispredicts > 0);
        assert_eq!(
            core.breakdown().mispredict,
            core.stats().mispredicts * core.config().mispredict_penalty
        );
    }

    #[test]
    fn well_predicted_branches_cost_issue_only() {
        let mut core = Core::new(CoreConfig::tiny());
        for _ in 0..1000 {
            core.branch(0x20, true);
        }
        // After warm-up, mispredicts are rare: cycles ≈ 1000 / width.
        assert!(core.cycles() < 600, "cycles={}", core.cycles());
    }

    #[test]
    fn load_use_exposes_miss_latency() {
        let mut core = Core::new(CoreConfig::tiny());
        core.load_use(0x5000); // cold miss: exposes L2+L3+DRAM latency
        let cold = core.breakdown().cache;
        assert!(cold >= 50, "cold stall={cold}");
        core.load_use(0x5000); // L1 hit: hidden
        assert_eq!(core.breakdown().cache, cold);
    }

    #[test]
    fn independent_loads_overlap() {
        let mut a = Core::new(CoreConfig::tiny());
        for i in 0..4u64 {
            a.load(0x10_000 + i * 4096); // distinct cold lines, LQ holds 4
        }
        let overlapped = a.cycles();
        let mut b = Core::new(CoreConfig::tiny());
        for i in 0..4u64 {
            b.load_use(0x10_000 + i * 4096);
        }
        let serialized = b.cycles();
        assert!(overlapped * 2 < serialized, "overlapped={overlapped} serialized={serialized}");
    }

    #[test]
    fn load_queue_pressure_stalls() {
        let mut core = Core::new(CoreConfig::tiny()); // LQ depth 4
        for i in 0..64u64 {
            core.load(0x100_000 + i * 4096); // all cold misses
        }
        // With only 4 outstanding, the core must have stalled on queue-full.
        assert!(core.breakdown().cache > 0);
    }

    #[test]
    fn region_routes_compute() {
        let mut core = Core::new(CoreConfig::tiny());
        core.ops(4);
        let prev = core.set_region(Region::Intersection);
        assert_eq!(prev, Region::Other);
        core.ops(4);
        core.set_region(prev);
        assert_eq!(core.breakdown().other_compute, 2);
        assert_eq!(core.breakdown().intersection, 2);
    }

    #[test]
    fn wait_until_is_monotonic() {
        let mut core = Core::new(CoreConfig::tiny());
        core.wait_until(100);
        assert_eq!(core.cycles(), 100);
        core.wait_until(50); // no-op
        assert_eq!(core.cycles(), 100);
    }

    #[test]
    fn stats_count_events() {
        let mut core = Core::new(CoreConfig::tiny());
        core.ops(3);
        core.branch(0, true);
        core.load(64);
        core.load_use(128);
        core.store(192);
        let s = core.stats();
        assert_eq!(s.uops, 3 + 1 + 1 + 1 + 1);
        assert_eq!(s.branches, 1);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
    }

    #[test]
    fn breakdown_total_matches_cycles() {
        let mut core = Core::new(CoreConfig::tiny());
        for i in 0..100u64 {
            core.ops(3);
            core.branch(0x40, i % 7 == 0);
            core.load_use(i * 64);
        }
        assert_eq!(core.breakdown().total(), core.cycles());
    }

    #[test]
    fn attribution_conserves_cycles() {
        let mut core = Core::new(CoreConfig::tiny());
        for i in 0..100u64 {
            core.ops(3);
            core.branch(0x40, i % 7 == 0);
            core.load_use(i * 64);
            core.stall_memory(2);
        }
        core.wait_until(core.cycles() + 40);
        assert_eq!(core.attribution().total(), core.cycles());
        // Attribution and the legacy breakdown cover the same clock.
        assert_eq!(core.attribution().total(), core.breakdown().total());
    }

    #[test]
    fn span_log_conserves_and_backfills() {
        let mut core = Core::new(CoreConfig::tiny());
        core.ops(10);
        core.stall_memory(7);
        // Enabled mid-run: elapsed cycles are backfilled so the cursor
        // matches the clock from here on.
        core.enable_span_log(64);
        assert_eq!(core.span_log().unwrap().cursor(), core.cycles());
        core.set_stall_site(Site::ScacheFill);
        core.stall_memory(9);
        core.set_stall_site(Site::SuRetire);
        core.wait_until(core.cycles() + 4);
        for i in 0..10 {
            core.branch(0x50, i % 3 == 0); // mispredict refills land at Scalar
        }
        assert!(core.stats().mispredicts > 0);
        let snap = core.span_snapshot().unwrap();
        assert_eq!(snap.total, core.cycles());
        assert_eq!(snap.sites_total(), core.cycles());
        assert_eq!(snap.per_bin()[AttrBin::ScacheRefill.index()], 9);
        assert_eq!(snap.totals[Site::ScacheFill as usize], 9);
        assert_eq!(snap.totals[Site::SuRetire as usize], 4);
        // The segments cover the same per-site cycles as the ledger.
        let mut walked = [0; Site::COUNT];
        for s in &snap.segments {
            walked[s.site as usize] += s.cycles();
        }
        assert_eq!(walked, snap.totals);
        // Bins and the span totals agree exactly.
        for bin in AttrBin::ALL {
            assert_eq!(snap.per_bin()[bin.index()], core.attribution().get(bin), "{}", bin.name());
        }
    }

    #[test]
    fn stall_site_routes_waits() {
        let mut core = Core::new(CoreConfig::tiny());
        let prev = core.set_stall_site(Site::StreamSetup);
        assert_eq!(prev, Site::MemReady);
        core.stall_memory(30);
        core.set_stall_site(Site::Translator);
        core.wait_until(core.cycles() + 12);
        core.set_stall_site(prev);
        core.stall_memory(5);
        assert_eq!(core.attribution().get(AttrBin::ScacheRefill), 30);
        assert_eq!(core.attribution().get(AttrBin::Translator), 12);
        assert_eq!(core.attribution().get(AttrBin::MemStall), 5);
        // The breakdown sees all three as cache stall.
        assert_eq!(core.breakdown().cache, 47);
    }
}
