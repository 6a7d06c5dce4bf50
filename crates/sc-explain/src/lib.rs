//! # sc-explain — why did the cycles go where they went?
//!
//! `sc-probe`'s span logs record, per simulated core, every stretch of
//! simulated time together with the dependency edge the engine was
//! waiting on ([`sc_probe::Site`]), whose attribution bin
//! ([`sc_probe::AttrBin`]) is [`sc_probe::Site::bin`]. This crate turns
//! those logs into answers:
//!
//! * [`extract`] — the simulated **critical path** of a workload. In
//!   this timing model every core's clock advances contiguously, so a
//!   core's span log *is* its complete dependency chain from cycle 0 to
//!   its final clock, and the run's critical path is the slowest core's
//!   log. Extraction re-proves the **conservation invariant** — the
//!   walked path's length equals the final simulated clock, per-site
//!   totals and segment list agreeing — and refuses logs where it fails.
//! * [`rank_attr_deltas`] / [`render_top`] — given two runs' per-key
//!   attribution (from `sc-report` registries or live probes), rank the
//!   cycle delta by (workload × stall cause): the "top contributors"
//!   listing the bench-regress gate prints on failure.

use std::collections::BTreeMap;

use sc_probe::{AttrBin, Site, SpanSnapshot};

/// One site's share of extracted critical-path time; its attribution
/// bin is [`Site::bin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathCell {
    /// The dependency-edge site.
    pub site: Site,
    /// Cycles of the critical path spent at this site.
    pub cycles: u64,
}

/// The extracted critical path of one workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// The run's completion clock (slowest core).
    pub makespan: u64,
    /// The core whose log is the critical path.
    pub critical_core: usize,
    /// Critical-path cycles per site, largest first; sums to
    /// `makespan` (the conservation property, re-proved by [`extract`]).
    pub cells: Vec<PathCell>,
    /// Every core's final clock, in core order.
    pub per_core: Vec<u64>,
    /// Cycles the non-critical cores spent idle at the end-of-run
    /// barrier, summed (0 in serial runs).
    pub idle_cycles: u64,
}

impl Explanation {
    /// Critical-path cycles rolled up per attribution bin, in
    /// [`AttrBin::ALL`] order.
    pub fn per_bin(&self) -> [u64; AttrBin::ALL.len()] {
        let mut out = [0u64; AttrBin::ALL.len()];
        for c in &self.cells {
            out[c.site.bin().index()] += c.cycles;
        }
        out
    }

    /// Human-readable report: makespan, per-core clocks, and the cell
    /// table with percentages.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "critical path: {} cycles on core {} ({} core(s))\n",
            self.makespan,
            self.critical_core,
            self.per_core.len()
        );
        if self.per_core.len() > 1 {
            let clocks: Vec<String> = self.per_core.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "per-core clocks: [{}], barrier idle {} cycles\n",
                clocks.join(", "),
                self.idle_cycles
            ));
        }
        for c in &self.cells {
            let pct = if self.makespan == 0 {
                0.0
            } else {
                c.cycles as f64 * 100.0 / self.makespan as f64
            };
            out.push_str(&format!(
                "  {:>12} / {:<14} {:>12} cycles  {:5.1}%\n",
                c.site.name(),
                c.site.bin().name(),
                c.cycles,
                pct
            ));
        }
        out
    }
}

/// Check one core's span log against the conservation invariant:
/// the per-site totals sum to the core's clock, and the segment list
/// is a well-formed, strictly ordered cover of a suffix of `[0, total)`
/// (the whole of it when nothing was dropped from the ring), with idle
/// padding allowed only past `total`.
///
/// # Errors
///
/// A message naming the violated property and the core.
pub fn check_conservation(snap: &SpanSnapshot) -> Result<(), String> {
    let sites = snap.sites_total();
    if sites != snap.total {
        return Err(format!(
            "core {}: span totals sum to {sites} but the core clock is {} — \
             a clock advance bypassed the span log",
            snap.core, snap.total
        ));
    }
    let mut cursor: Option<u64> = None;
    let mut covered = 0u64;
    for (i, s) in snap.segments.iter().enumerate() {
        if s.end <= s.start {
            return Err(format!("core {}: segment {i} is empty or reversed", snap.core));
        }
        if let Some(prev_end) = cursor {
            if s.start != prev_end {
                return Err(format!(
                    "core {}: segment {i} starts at {} but the previous ends at {prev_end}",
                    snap.core, s.start
                ));
            }
        }
        cursor = Some(s.end);
        if s.start >= snap.total {
            // Idle padding past the core clock: only chunk-claim, and
            // only up to total + idle_tail.
            if s.site != Site::ChunkClaim {
                return Err(format!(
                    "core {}: segment {i} past the core clock is {} not chunk_claim",
                    snap.core,
                    s.site.name()
                ));
            }
        } else {
            covered += s.end.min(snap.total) - s.start;
        }
    }
    let expected_tail = snap.total + snap.idle_tail;
    if let Some(end) = cursor {
        if end != expected_tail {
            return Err(format!(
                "core {}: segments end at {end}, expected {expected_tail} \
                 (clock {} + idle tail {})",
                snap.core, snap.total, snap.idle_tail
            ));
        }
    } else if snap.total > 0 && snap.dropped == 0 {
        return Err(format!("core {}: non-zero clock but no segments", snap.core));
    }
    if snap.dropped == 0 && covered != snap.total {
        return Err(format!(
            "core {}: segments cover {covered} of {} cycles with nothing dropped",
            snap.core, snap.total
        ));
    }
    Ok(())
}

/// Extract the critical path from one workload's per-core span
/// snapshots. The conservation invariant is re-proved on every core
/// ([`check_conservation`]); the slowest core's log becomes the path.
///
/// # Errors
///
/// An empty snapshot list, or any core violating conservation.
pub fn extract(snaps: &[SpanSnapshot]) -> Result<Explanation, String> {
    if snaps.is_empty() {
        return Err("no span snapshots: was --spans on and the driver instrumented?".into());
    }
    for s in snaps {
        check_conservation(s)?;
    }
    let critical =
        snaps.iter().max_by_key(|s| (s.total, std::cmp::Reverse(s.core))).expect("non-empty");
    let makespan = critical.total;
    let mut cells: Vec<PathCell> = Site::ALL
        .into_iter()
        .map(|site| PathCell { site, cycles: critical.totals[site as usize] })
        .filter(|c| c.cycles > 0)
        .collect();
    cells.sort_by_key(|c| std::cmp::Reverse(c.cycles));
    let walked: u64 = cells.iter().map(|c| c.cycles).sum();
    // The acceptance invariant, stated directly: critical-path length
    // equals the final simulated clock.
    assert_eq!(
        walked, makespan,
        "critical-path conservation broke after per-core checks (impossible)"
    );
    Ok(Explanation {
        makespan,
        critical_core: critical.core,
        cells,
        per_core: snaps.iter().map(|s| s.total).collect(),
        idle_cycles: snaps.iter().map(|s| s.idle_tail).sum(),
    })
}

/// One ranked contributor to a cycle delta between two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDelta {
    /// The run key (bench/workload) the delta belongs to.
    pub key: String,
    /// The stall-cause bin name.
    pub bin: &'static str,
    /// Candidate minus baseline cycles in this (key × bin) cell.
    pub delta: i64,
}

/// Per-key 5-bin attribution, keyed however the caller labels runs
/// (`bench/workload` for registry diffs).
pub type AttrMap = BTreeMap<String, [u64; AttrBin::ALL.len()]>;

/// Rank the cycle delta between a `base` and a `cand` run by
/// (workload × stall cause), largest absolute contributor first. Keys
/// present on only one side contribute their full attribution (signed).
pub fn rank_attr_deltas(base: &AttrMap, cand: &AttrMap) -> Vec<AttrDelta> {
    let zero = [0u64; AttrBin::ALL.len()];
    let mut out: Vec<AttrDelta> = Vec::new();
    let keys: std::collections::BTreeSet<&String> = base.keys().chain(cand.keys()).collect();
    for key in keys {
        let b = base.get(key).unwrap_or(&zero);
        let c = cand.get(key).unwrap_or(&zero);
        for bin in AttrBin::ALL {
            let delta = c[bin.index()] as i64 - b[bin.index()] as i64;
            if delta != 0 {
                out.push(AttrDelta { key: key.clone(), bin: bin.name(), delta });
            }
        }
    }
    out.sort_by_key(|d| (std::cmp::Reverse(d.delta.unsigned_abs()), d.key.clone(), d.bin));
    out
}

/// Render the top `n` contributors as the text block the bench-regress
/// gate prints on failure (a note when the runs agree exactly).
pub fn render_top(deltas: &[AttrDelta], n: usize) -> String {
    if deltas.is_empty() {
        return "attribution identical: no per-bin cycle deltas\n".into();
    }
    let total: i64 = deltas.iter().map(|d| d.delta).sum();
    let mut out = format!(
        "top {} of {} contributors to a net {total:+} cycle delta (cand - base):\n",
        n.min(deltas.len()),
        deltas.len()
    );
    for (rank, d) in deltas.iter().take(n).enumerate() {
        out.push_str(&format!(
            "  #{:<2} {:+12} cycles  {} [{}]\n",
            rank + 1,
            d.delta,
            d.key,
            d.bin
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_probe::SpanLog;

    /// Core `core`'s snapshot after `cells`, kept in a `cap`-segment
    /// ring, with the per-site totals a ledger would hold.
    fn snap_of(core: usize, cap: usize, cells: &[(u64, Site)]) -> SpanSnapshot {
        let mut log = SpanLog::new(cap);
        let mut totals = [0; Site::COUNT];
        for &(cycles, site) in cells {
            log.record(cycles, site);
            totals[site as usize] += cycles;
        }
        log.snapshot(core, totals)
    }

    #[test]
    fn extract_orders_cells_and_conserves() {
        let snap =
            snap_of(0, 64, &[(10, Site::Scalar), (40, Site::StreamSetup), (25, Site::SuBusy)]);
        let ex = extract(&[snap]).unwrap();
        assert_eq!(ex.makespan, 75);
        assert_eq!(ex.critical_core, 0);
        assert_eq!(ex.cells[0].site, Site::StreamSetup);
        assert_eq!(ex.cells.iter().map(|c| c.cycles).sum::<u64>(), ex.makespan);
        assert_eq!(ex.per_bin()[AttrBin::ScacheRefill.index()], 40);
        let text = ex.render_text();
        assert!(text.contains("critical path: 75 cycles"), "{text}");
        assert!(text.contains("stream_setup"), "{text}");
        assert!(text.contains("scache_refill"), "{text}");
    }

    #[test]
    fn critical_core_is_the_slowest_lowest_id_on_ties() {
        let mut s0 = snap_of(0, 64, &[(30, Site::Scalar)]);
        let mut s1 = snap_of(1, 64, &[(50, Site::MemReady)]);
        let s2 = snap_of(2, 64, &[(50, Site::SuBusy)]);
        s0.pad_idle(50);
        s1.pad_idle(50);
        let ex = extract(&[s0, s1, s2]).unwrap();
        assert_eq!(ex.makespan, 50);
        assert_eq!(ex.critical_core, 1, "ties resolve to the lowest core id");
        assert_eq!(ex.per_core, vec![30, 50, 50]);
        assert_eq!(ex.idle_cycles, 20);
    }

    #[test]
    fn conservation_check_rejects_tampered_grids() {
        let mut snap = snap_of(0, 64, &[(10, Site::Scalar)]);
        snap.total += 1; // clock claims a cycle the totals never saw
        let err = extract(&[snap]).unwrap_err();
        assert!(err.contains("bypassed the span log"), "{err}");
    }

    #[test]
    fn conservation_check_rejects_gapped_segments() {
        let mut snap = snap_of(0, 64, &[(10, Site::Scalar), (5, Site::MemReady)]);
        snap.segments.remove(0); // a gap with dropped == 0
        let err = check_conservation(&snap).unwrap_err();
        assert!(err.contains("cover") || err.contains("starts at"), "{err}");
    }

    #[test]
    fn dropped_ring_segments_still_pass_via_the_grid() {
        let snap = snap_of(0, 2, &[(5, Site::Scalar), (6, Site::MemReady), (7, Site::SuBusy)]);
        assert_eq!(snap.dropped, 1);
        let ex = extract(&[snap]).unwrap();
        assert_eq!(ex.makespan, 18, "the totals keep every cycle despite the dropped segment");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(extract(&[]).is_err());
    }

    #[test]
    fn rank_deltas_orders_by_magnitude_and_renders() {
        let mut base = AttrMap::new();
        let mut cand = AttrMap::new();
        base.insert("fig07/T/uni".into(), [100, 50, 30, 5, 200]);
        cand.insert("fig07/T/uni".into(), [100, 950, 25, 5, 200]);
        base.insert("fig15/spmspm".into(), [10, 10, 10, 0, 10]);
        cand.insert("fig15/spmspm".into(), [12, 10, 10, 0, 10]);
        cand.insert("fig15/new".into(), [0, 0, 7, 0, 0]);
        let ranked = rank_attr_deltas(&base, &cand);
        assert_eq!(ranked[0].key, "fig07/T/uni");
        assert_eq!(ranked[0].bin, "scache_refill");
        assert_eq!(ranked[0].delta, 900);
        assert_eq!(ranked[1].delta, 7, "one-sided key contributes fully");
        let text = render_top(&ranked, 10);
        assert!(text.contains("#1"), "{text}");
        assert!(text.contains("scache_refill"), "{text}");
        assert!(render_top(&[], 10).contains("identical"));
    }
}
