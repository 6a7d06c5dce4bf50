//! Simulated-clock span log: the causal substrate behind `sc-explain`.
//!
//! The timing model charges every cycle of a core's clock to one slot
//! of that core's cycle ledger (`sc_cpu::Core`), and each slot belongs
//! to one *site*: where the engine was waiting, the dependency edges the
//! engine models (SU issue/retire, stream setup, S-Cache window fill,
//! memory ready, translator back-pressure, multicore chunk claim). The
//! span log is the timeline of those charges only: a bounded ring of
//! coalesced `[start, end)` segments, each with its site. The per-site
//! totals are not kept twice: a [`SpanSnapshot`] reads them from the
//! ledger when it is taken.
//!
//! Two invariants hold by construction and are what `sc-explain`'s
//! conservation assert re-checks:
//!
//! * **coverage** — segments are recorded back-to-back from cycle 0, so
//!   the log's cursor equals the core's simulated clock;
//! * **conservation** — the per-site totals sum to the cursor, exactly
//!   as `Attribution::total()` equals `Core::cycles()`.
//!
//! The log is `Option`-gated in the core model: at probe level 0 it is
//! never allocated and the only residue is one pointer-null branch per
//! clock advance, inside the <5% probes-off overhead budget.

use std::collections::VecDeque;

use crate::attr::{AttrBin, Attribution};
use crate::json::Value;

/// Default capacity of the segment ring (coalesced segments, not raw
/// advances; adjacent same-cause advances merge, so this covers long
/// runs while bounding memory).
pub const DEFAULT_RING: usize = 4096;

/// Where the engine was (or what it was waiting on) while the clock
/// advanced — the dependency-edge taxonomy. Each site refines exactly
/// one [`AttrBin`] (see [`Site::bin`]), so site totals roll up to the
/// Figure 9/10 attribution bins losslessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Site {
    /// Scalar pipeline work: issue, dependence chains, mispredict refill.
    Scalar,
    /// SU busy time folded into the core clock (set-op compare cycles).
    SuBusy,
    /// Core blocked on a producing SU's retirement (`S_FETCH` of an
    /// output stream that is still being produced).
    SuRetire,
    /// End-of-kernel drain: waiting for the last outstanding SU/SVPU
    /// completion before the engine reports its final clock.
    Drain,
    /// Stream setup: waiting for a memory-sourced stream's first S-Cache
    /// window (the `S_READ` warmup fill).
    StreamSetup,
    /// S-Cache window refill from L2 on a fetch outside the resident
    /// window.
    ScacheFill,
    /// Generic memory readiness: load-queue pressure, pointer-chase
    /// latency, rollback refill.
    MemReady,
    /// Translator back-pressure (`S_NESTINTER` translation buffer) and
    /// the translator's stream-info loads.
    Translator,
    /// Multicore: a core idle at the chunk-claim barrier after its last
    /// chunk, waiting for the slowest core. Synthesized by the parallel
    /// drivers; never appears on the critical (slowest) core.
    ChunkClaim,
}

impl Site {
    /// Every site, in a fixed reporting order.
    pub const ALL: [Site; 9] = [
        Site::Scalar,
        Site::SuBusy,
        Site::SuRetire,
        Site::Drain,
        Site::StreamSetup,
        Site::ScacheFill,
        Site::MemReady,
        Site::Translator,
        Site::ChunkClaim,
    ];

    /// Number of sites.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (span-log JSON, reports, golden tests).
    pub fn name(self) -> &'static str {
        match self {
            Site::Scalar => "scalar",
            Site::SuBusy => "su_busy",
            Site::SuRetire => "su_retire",
            Site::Drain => "drain",
            Site::StreamSetup => "stream_setup",
            Site::ScacheFill => "scache_fill",
            Site::MemReady => "mem_ready",
            Site::Translator => "translator",
            Site::ChunkClaim => "chunk_claim",
        }
    }

    /// The attribution bin this site refines. Summing site totals per
    /// bin reproduces the 5-bin attribution exactly.
    pub fn bin(self) -> AttrBin {
        match self {
            Site::Scalar => AttrBin::ScalarOverlap,
            Site::SuBusy | Site::SuRetire | Site::Drain | Site::ChunkClaim => AttrBin::SuCompare,
            Site::StreamSetup | Site::ScacheFill => AttrBin::ScacheRefill,
            Site::MemReady => AttrBin::MemStall,
            Site::Translator => AttrBin::Translator,
        }
    }

    /// Parse a [`Site::name`] back (span-log JSON round trip).
    pub fn parse(s: &str) -> Option<Site> {
        Site::ALL.into_iter().find(|site| site.name() == s)
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One coalesced `[start, end)` stretch of simulated time with a single
/// cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First cycle covered (inclusive).
    pub start: u64,
    /// One past the last cycle covered.
    pub end: u64,
    /// Where the engine was / what it waited on; the cycles' bin is
    /// [`Site::bin`].
    pub site: Site,
}

impl Segment {
    /// Cycles covered.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// The per-core span log: a cursor and a bounded ring of coalesced
/// segments. Owned directly by the core model (no lock on the record
/// path).
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    cursor: u64,
    ring: VecDeque<Segment>,
    cap: usize,
    dropped: u64,
}

impl SpanLog {
    /// A fresh log keeping at most `cap` coalesced segments (older ones
    /// are dropped from the ring; the ledger's totals never lose cycles).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "span ring capacity must be positive");
        SpanLog { cap, ..Default::default() }
    }

    /// Record `cycles` of simulated time caused at `site`, appended
    /// contiguously at the cursor. Zero-cycle records are ignored;
    /// adjacent same-site records coalesce.
    pub fn record(&mut self, cycles: u64, site: Site) {
        if cycles == 0 {
            return;
        }
        let start = self.cursor;
        self.cursor += cycles;
        if let Some(last) = self.ring.back_mut() {
            if last.site == site && last.end == start {
                last.end = self.cursor;
                return;
            }
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(Segment { start, end: self.cursor, site });
    }

    /// The simulated clock the log has covered so far (equals the core's
    /// cycle count by construction).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Coalesced segments dropped from the ring (0 means the segment
    /// list covers `[0, cursor)` completely).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Freeze the log into a snapshot labelled with `core`, carrying
    /// `totals`, the core's cycles per site as its ledger holds them.
    pub fn snapshot(&self, core: usize, totals: [u64; Site::COUNT]) -> SpanSnapshot {
        SpanSnapshot {
            core,
            total: self.cursor,
            totals,
            segments: self.ring.iter().copied().collect(),
            dropped: self.dropped,
            idle_tail: 0,
        }
    }
}

/// An immutable snapshot of one core's [`SpanLog`], as handed to the
/// probe and consumed by `sc-explain` / the HTML timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// The simulated core the log belongs to.
    pub core: usize,
    /// The core's simulated clock when the snapshot was taken (== the
    /// sum of the per-site totals).
    pub total: u64,
    /// Cycles per site, in [`Site::ALL`] order, read from the core's
    /// ledger.
    pub totals: [u64; Site::COUNT],
    /// Coalesced segments (a suffix of the timeline when `dropped > 0`).
    pub segments: Vec<Segment>,
    /// Segments dropped from the ring before the snapshot.
    pub dropped: u64,
    /// Multicore only: cycles this core sat idle at the chunk-claim
    /// barrier after its last chunk (`makespan - total`). Zero on the
    /// critical core and in serial runs. Display-only: not part of the
    /// conservation sum.
    pub idle_tail: u64,
}

impl SpanSnapshot {
    /// Sum of the per-site totals (must equal [`SpanSnapshot::total`];
    /// the conservation check `sc-explain` performs).
    pub fn sites_total(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Per-bin roll-up of the totals (reproduces the 5-bin attribution).
    pub fn per_bin(&self) -> [u64; AttrBin::ALL.len()] {
        let attr = Attribution::from_sites(&self.totals);
        AttrBin::ALL.map(|bin| attr.get(bin))
    }

    /// Mark this core idle from its final clock up to `makespan` (the
    /// multicore chunk-claim barrier). Appends a display segment; the
    /// totals and `total` are untouched.
    pub fn pad_idle(&mut self, makespan: u64) {
        if makespan > self.total {
            self.idle_tail = makespan - self.total;
            self.segments.push(Segment {
                start: self.total,
                end: makespan,
                site: Site::ChunkClaim,
            });
        }
    }

    /// Serialize as a JSON object (hand-rolled; the workspace has no
    /// serde).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"core\":{},\"total\":{},\"dropped\":{},\"idle_tail\":{},\"totals\":{{",
            self.core, self.total, self.dropped, self.idle_tail
        );
        let totals: Vec<String> = Site::ALL
            .iter()
            .filter(|&&site| self.totals[site as usize] > 0)
            .map(|&site| format!("\"{}\":{}", site.name(), self.totals[site as usize]))
            .collect();
        out.push_str(&totals.join(","));
        out.push_str("},\"segments\":[");
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{},\"{}\"]", s.start, s.end, s.site.name()));
        }
        out.push_str("]}");
        out
    }

    /// Parse a snapshot back from its [`SpanSnapshot::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_json(v: &Value) -> Result<SpanSnapshot, String> {
        let num = |key: &str| {
            v.get(key).and_then(Value::as_f64).ok_or(format!("span snapshot: missing '{key}'"))
        };
        let mut totals = [0u64; Site::COUNT];
        if let Some(obj) = v.get("totals").and_then(Value::as_obj) {
            for (site_name, cell) in obj {
                let site = Site::parse(site_name)
                    .ok_or(format!("span snapshot: unknown site '{site_name}'"))?;
                totals[site as usize] =
                    cell.as_f64().ok_or("span snapshot: non-numeric total")? as u64;
            }
        }
        let mut segments = Vec::new();
        for seg in v.get("segments").and_then(Value::as_arr).unwrap_or(&[]) {
            let parts = seg.as_arr().ok_or("span snapshot: segment is not an array")?;
            if parts.len() != 3 {
                return Err("span snapshot: segment arity != 3".into());
            }
            let site =
                parts[2].as_str().and_then(Site::parse).ok_or("span snapshot: bad segment site")?;
            segments.push(Segment {
                start: parts[0].as_f64().ok_or("span snapshot: bad segment start")? as u64,
                end: parts[1].as_f64().ok_or("span snapshot: bad segment end")? as u64,
                site,
            });
        }
        Ok(SpanSnapshot {
            core: num("core")? as usize,
            total: num("total")? as u64,
            totals,
            segments,
            dropped: num("dropped")? as u64,
            idle_tail: num("idle_tail")? as u64,
        })
    }
}

/// Render a set of per-core snapshots (one workload) as a JSON array.
pub fn snapshots_to_json(snaps: &[SpanSnapshot]) -> String {
    let mut out = String::from("[");
    for (i, s) in snaps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_json());
    }
    out.push(']');
    out
}

/// Parse a JSON array of snapshots back.
///
/// # Errors
///
/// Propagates JSON and field errors.
pub fn snapshots_from_json(v: &Value) -> Result<Vec<SpanSnapshot>, String> {
    v.as_arr().ok_or("span document: not an array")?.iter().map(SpanSnapshot::from_json).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A log of `cells` and the per-site totals a ledger would hold.
    fn logged(cap: usize, cells: &[(u64, Site)]) -> (SpanLog, [u64; Site::COUNT]) {
        let mut log = SpanLog::new(cap);
        let mut totals = [0; Site::COUNT];
        for &(cycles, site) in cells {
            log.record(cycles, site);
            totals[site as usize] += cycles;
        }
        (log, totals)
    }

    #[test]
    fn sites_roll_up_to_their_bins() {
        // Every site maps to exactly one bin, and every bin is covered.
        for bin in AttrBin::ALL {
            assert!(Site::ALL.iter().any(|s| s.bin() == bin), "no site refines {}", bin.name());
        }
        for site in Site::ALL {
            assert_eq!(Site::parse(site.name()), Some(site));
        }
        assert_eq!(Site::parse("nope"), None);
    }

    #[test]
    fn log_is_contiguous_and_conserving() {
        let (log, totals) = logged(
            16,
            &[
                (10, Site::Scalar),
                (0, Site::MemReady), // ignored
                (5, Site::Scalar),   // coalesces
                (7, Site::StreamSetup),
            ],
        );
        assert_eq!(log.cursor(), 22);
        let snap = log.snapshot(0, totals);
        assert_eq!(snap.sites_total(), 22);
        assert_eq!(snap.segments.len(), 2);
        assert_eq!(snap.segments[0].end, 15);
        assert_eq!(snap.segments[1].start, 15);
        assert_eq!(snap.per_bin()[AttrBin::ScalarOverlap.index()], 15);
    }

    #[test]
    fn ring_drops_oldest_but_keeps_totals() {
        let (log, totals) = logged(2, &[(1, Site::Scalar), (2, Site::MemReady), (3, Site::SuBusy)]);
        assert_eq!(log.dropped(), 1);
        let snap = log.snapshot(3, totals);
        assert_eq!(snap.segments.len(), 2);
        assert_eq!(snap.segments[0].start, 1, "oldest segment dropped");
        assert_eq!(snap.sites_total(), 6, "totals never lose cycles");
        assert_eq!(snap.total, 6);
    }

    #[test]
    fn default_ring_overflow_keeps_grid_exact_and_a_segment_suffix() {
        // Alternate sites so no two adjacent records coalesce:
        // DEFAULT_RING + EXTRA distinct segments with 1 and 2 cycles in
        // turn, overflowing the default ring by exactly EXTRA.
        const EXTRA: usize = 137;
        let n = DEFAULT_RING + EXTRA;
        let cells: Vec<(u64, Site)> = (0..n)
            .map(|i| if i % 2 == 0 { (1, Site::Scalar) } else { (2, Site::MemReady) })
            .collect();
        let (log, totals) = logged(DEFAULT_RING, &cells);
        assert_eq!(log.dropped(), EXTRA as u64, "one drop per overflowing segment");
        let snap = log.snapshot(0, totals);
        assert_eq!(snap.total, cells.iter().map(|c| c.0).sum::<u64>());
        assert_eq!(snap.sites_total(), snap.total);
        // The surviving segments are a gapless suffix of the timeline
        // ending at the cursor; the hole is entirely at the front.
        assert_eq!(snap.segments.len(), DEFAULT_RING);
        assert_eq!(snap.dropped, EXTRA as u64);
        assert!(snap.segments[0].start > 0, "oldest segments were dropped");
        for w in snap.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "suffix must be gapless");
        }
        assert_eq!(snap.segments.last().unwrap().end, snap.total);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let (log, totals) = logged(8, &[(4, Site::Scalar), (9, Site::ScacheFill)]);
        let mut snap = log.snapshot(2, totals);
        snap.pad_idle(20);
        assert_eq!(snap.idle_tail, 7);
        let doc = snapshots_to_json(&[snap.clone()]);
        assert!(doc.contains(r#""totals":{"scalar":4,"scache_fill":9}"#), "{doc}");
        assert!(doc.contains(r#"[4,13,"scache_fill"]"#), "{doc}");
        let parsed = snapshots_from_json(&json::parse(&doc).unwrap()).unwrap();
        assert_eq!(parsed, vec![snap]);
    }

    #[test]
    fn pad_idle_is_display_only() {
        let (log, totals) = logged(8, &[(5, Site::Scalar)]);
        let mut snap = log.snapshot(1, totals);
        snap.pad_idle(5); // makespan == total: nothing to pad
        assert_eq!(snap.idle_tail, 0);
        snap.pad_idle(12);
        assert_eq!(snap.idle_tail, 7);
        assert_eq!(snap.total, 5, "conservation total untouched");
        assert_eq!(snap.sites_total(), 5);
        assert_eq!(snap.segments.last().unwrap().site, Site::ChunkClaim);
    }
}
