//! # sc-probe — observability for the SparseCore reproduction
//!
//! A zero-cost-when-disabled structured event/metrics layer threaded
//! through the simulator. Three faces:
//!
//! * a **metrics registry** ([`metrics::Registry`]) — hierarchical named
//!   counters/gauges/histograms, snapshotable to JSON mid-run;
//! * an **event tracer** ([`trace::Tracer`]) — sim-cycle-timestamped
//!   spans and instants exported as Chrome `trace_event` JSON for
//!   Perfetto;
//! * a **cycle-attribution profiler** ([`attr::Attribution`]) — every
//!   modeled cycle binned into one of five causes, reproducing the
//!   paper's Figure 9/10 from live probe data.
//!
//! The shared entry point is the cheap, cloneable [`Probe`] handle. A
//! disabled probe (`Probe::off()`, the default everywhere) holds no
//! buffer and every call is a single predictable branch.

pub mod attr;
pub mod check;
pub mod json;
pub mod metrics;
pub mod spans;
pub mod trace;

pub use attr::{AttrBin, Attribution};
pub use spans::{Site, SpanLog, SpanSnapshot};
pub use trace::Track;

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How much the probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ProbeLevel {
    /// Record nothing; every probe call is a near-free branch.
    #[default]
    Off,
    /// Maintain the metrics registry (counters/gauges/histograms) only.
    Metrics,
    /// Metrics plus the event tracer (spans and instants).
    Trace,
}

impl ProbeLevel {
    /// The name the benches' `# probe:` banner prints.
    pub fn name(self) -> &'static str {
        match self {
            ProbeLevel::Off => "off",
            ProbeLevel::Metrics => "metrics",
            ProbeLevel::Trace => "trace",
        }
    }
}

#[derive(Debug, Default)]
struct ProbeInner {
    now: u64,
    registry: metrics::Registry,
    tracer: trace::Tracer,
    spans: bool,
    span_buf: Vec<SpanSnapshot>,
}

/// The shared probe handle. Cloning is cheap (an `Arc` bump); all clones
/// feed one registry and one trace buffer. The level is copied inline so
/// [`Probe::enabled`] / [`Probe::tracing`] never touch the lock.
///
/// The handle is `Send + Sync` (the buffer sits behind a `Mutex`), so
/// multicore sweeps can either share one probe or give each simulated
/// core its own and merge afterwards ([`Probe::absorb`]). A handle made
/// by [`Probe::for_core`] writes its trace events to that core's tracks.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    level: ProbeLevel,
    inner: Option<Arc<Mutex<ProbeInner>>>,
    core: Option<u32>,
}

/// Take the buffer's lock even if a holder panicked. Each registry,
/// tracer and span-buffer operation leaves the buffer well-formed, so
/// what a panicking holder leaves behind is still valid, and one
/// worker's panic must not poison the probe for every other clone.
fn lock(inner: &Mutex<ProbeInner>) -> MutexGuard<'_, ProbeInner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Probe {
    /// The disabled probe: no buffer, every call a single branch.
    pub fn off() -> Self {
        Self::default()
    }

    /// A live probe recording at `level` ([`ProbeLevel::Off`] yields a
    /// disabled probe, same as [`Probe::off`]).
    pub fn new(level: ProbeLevel) -> Self {
        match level {
            ProbeLevel::Off => Self::off(),
            _ => {
                Self { level, inner: Some(Arc::new(Mutex::new(ProbeInner::default()))), core: None }
            }
        }
    }

    /// A handle on the same buffers whose trace events go to simulated
    /// core `core`'s own tracks, so that a multicore trace tells its
    /// cores apart. Metrics and span snapshots are shared as before.
    pub fn for_core(&self, core: usize) -> Probe {
        Probe { core: Some(core as u32), ..self.clone() }
    }

    /// Is the probe recording anything (metrics or trace)?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Is the probe recording trace events?
    #[inline]
    pub fn tracing(&self) -> bool {
        self.level >= ProbeLevel::Trace && self.inner.is_some()
    }

    /// The recording level.
    pub fn level(&self) -> ProbeLevel {
        self.level
    }

    /// Set the probe's notion of the current sim cycle to the caller's.
    /// Instruments call this at instruction boundaries so deep components
    /// (caches, the scratchpad) can timestamp instants without a clock
    /// reference. Engines sharing one probe each set their own cycle, so
    /// the clock can move backwards from one caller to the next. It only
    /// timestamps trace instants, so below trace level this is a no-op
    /// and takes no lock.
    #[inline]
    pub fn set_now(&self, cycle: u64) {
        if self.tracing() {
            self.set_now_slow(cycle);
        }
    }

    #[cold]
    fn set_now_slow(&self, cycle: u64) {
        if let Some(inner) = &self.inner {
            lock(inner).now = cycle;
        }
    }

    /// The probe's current sim cycle (0 when disabled).
    pub fn now(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| lock(i).now)
    }

    /// Add `delta` to the counter `name`.
    #[inline]
    pub fn count(&self, name: &str, delta: u64) {
        if self.inner.is_some() {
            self.count_slow(name, delta);
        }
    }

    #[cold]
    fn count_slow(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            lock(inner).registry.count(name, delta);
        }
    }

    /// Set the gauge `name` to `value`.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if self.inner.is_some() {
            self.gauge_slow(name, value);
        }
    }

    #[cold]
    fn gauge_slow(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(inner).registry.gauge(name, value);
        }
    }

    /// Record `value` into the histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.observe_slow(name, value);
        }
    }

    #[cold]
    fn observe_slow(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            lock(inner).registry.observe(name, value);
        }
    }

    /// Record a complete span `[start, end]` (no-op below trace level).
    /// The clock is left alone.
    #[inline]
    pub fn span(
        &self,
        track: Track,
        name: &str,
        start: u64,
        end: u64,
        args: &[(&'static str, u64)],
    ) {
        if self.tracing() {
            self.span_slow(track, name, start, end, args);
        }
    }

    #[cold]
    fn span_slow(
        &self,
        track: Track,
        name: &str,
        start: u64,
        end: u64,
        args: &[(&'static str, u64)],
    ) {
        if let Some(inner) = &self.inner {
            lock(inner).tracer.span(track, self.core, name, start, end, args);
        }
    }

    /// Record an instant at `ts` (no-op below trace level).
    #[inline]
    pub fn instant_at(&self, track: Track, name: &str, ts: u64, args: &[(&'static str, u64)]) {
        if self.tracing() {
            self.instant_at_slow(track, name, ts, args);
        }
    }

    #[cold]
    fn instant_at_slow(&self, track: Track, name: &str, ts: u64, args: &[(&'static str, u64)]) {
        if let Some(inner) = &self.inner {
            lock(inner).tracer.instant(track, self.core, name, ts, args);
        }
    }

    /// Record an instant at the probe's current cycle (no-op below trace
    /// level). For components without a clock of their own.
    #[inline]
    pub fn instant(&self, track: Track, name: &str, args: &[(&'static str, u64)]) {
        if self.tracing() {
            self.instant_now_slow(track, name, args);
        }
    }

    #[cold]
    fn instant_now_slow(&self, track: Track, name: &str, args: &[(&'static str, u64)]) {
        if let Some(inner) = &self.inner {
            let mut g = lock(inner);
            let ts = g.now;
            g.tracer.instant(track, self.core, name, ts, args);
        }
    }

    /// Run `f` against the registry (no-op when disabled). Used by
    /// snapshot hooks that fold component stats into gauges in bulk
    /// without taking the lock per metric.
    pub fn with_registry(&self, f: impl FnOnce(&mut metrics::Registry)) {
        if let Some(inner) = &self.inner {
            f(&mut lock(inner).registry);
        }
    }

    /// Read a counter back (0 when disabled) — test/report support.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| lock(i).registry.counter(name))
    }

    /// Snapshot the metrics registry as nested JSON (`"{}"` when
    /// disabled). Safe to call mid-run; the run continues recording.
    pub fn metrics_json(&self) -> String {
        match &self.inner {
            Some(inner) => {
                let mut g = lock(inner);
                let dropped = g.tracer.dropped();
                if dropped > 0 {
                    g.registry.gauge("probe.dropped_events", dropped as f64);
                }
                g.registry.to_json()
            }
            None => "{}".into(),
        }
    }

    /// Export the trace buffer as Chrome `trace_event` JSON, labelling
    /// the process `pid` (an empty but valid document when disabled).
    pub fn trace_json(&self, pid: u64) -> String {
        match &self.inner {
            Some(inner) => lock(inner).tracer.to_json(pid),
            None => trace::Tracer::new().to_json(pid),
        }
    }

    /// Number of buffered trace events (test support).
    pub fn trace_len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| lock(i).tracer.len())
    }

    /// Ask instrumented engines to keep per-core [`SpanLog`]s and submit
    /// snapshots here. No-op on a disabled probe, so probe level 0 never
    /// allocates a log.
    pub fn enable_spans(&self) {
        if let Some(inner) = &self.inner {
            lock(inner).spans = true;
        }
    }

    /// Has span recording been requested (and is the probe live)?
    #[inline]
    pub fn spans_on(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| lock(i).spans)
    }

    /// Submit one core's span snapshot, labelling it `core`. Drivers call
    /// this once per simulated core per workload; [`Probe::take_spans`]
    /// drains in submission order.
    pub fn submit_spans(&self, core: usize, mut snap: SpanSnapshot) {
        if let Some(inner) = &self.inner {
            snap.core = core;
            lock(inner).span_buf.push(snap);
        }
    }

    /// Drain the submitted span snapshots (empty when disabled). The
    /// bench CLI calls this per workload so snapshots never cross
    /// workload boundaries.
    pub fn take_spans(&self) -> Vec<SpanSnapshot> {
        self.inner.as_ref().map_or_else(Vec::new, |i| std::mem::take(&mut lock(i).span_buf))
    }

    /// Drain `other` into this probe: counters add, gauges take
    /// `other`'s last-written values, histograms merge bucket-wise
    /// ([`metrics::Registry::merge`]), trace events append
    /// ([`trace::Tracer::absorb`]) and pending span snapshots append.
    /// `other` is left empty, and this probe's clock is left alone.
    ///
    /// This is the merge step of the `--jobs` sweep executor: each
    /// workload records into its own probe and the parent absorbs the
    /// residues in workload order, so the merged result is independent
    /// of worker completion order. Absorbing a disabled probe, or into
    /// a disabled probe, is a no-op — as is self-absorption (clones
    /// sharing one buffer).
    pub fn absorb(&self, other: &Probe) {
        let (Some(dst), Some(src)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(dst, src) {
            return;
        }
        let (registry, tracer, spans) = {
            let mut g = lock(src);
            (
                std::mem::take(&mut g.registry),
                std::mem::take(&mut g.tracer),
                std::mem::take(&mut g.span_buf),
            )
        };
        let mut g = lock(dst);
        g.registry.merge(&registry);
        g.tracer.absorb(tracer);
        g.span_buf.extend(spans);
    }
}

/// Counts of hot-path events kept in plain fields, so that no event takes
/// the probe's lock. [`Tally::export`] adds to a probe's registry, under
/// one lock, what each count gained since the last export; a name
/// appears once its event has fired. Backends export when they drain, as
/// the engine exports its own counters.
#[derive(Debug, Clone)]
pub struct Tally<const N: usize> {
    names: [&'static str; N],
    counts: [u64; N],
    exported: [u64; N],
}

impl<const N: usize> Tally<N> {
    /// A tally of the counters `names`, all at zero.
    pub const fn new(names: [&'static str; N]) -> Self {
        Tally { names, counts: [0; N], exported: [0; N] }
    }

    /// Count one event of counter `i` (an index into the names).
    #[inline]
    pub fn add(&mut self, i: usize) {
        self.counts[i] += 1;
    }

    /// Add each counter's gain since the last export to `probe`.
    pub fn export(&mut self, probe: &Probe) {
        let done = std::mem::replace(&mut self.exported, self.counts);
        if done == self.counts {
            return;
        }
        probe.with_registry(|reg| {
            for ((name, now), then) in self.names.iter().zip(self.counts).zip(done) {
                if now > then {
                    reg.count(name, now - then);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_probe_records_nothing() {
        let p = Probe::off();
        assert!(!p.enabled() && !p.tracing());
        p.count("x", 1);
        p.span(Track::Engine, "s", 0, 5, &[]);
        assert_eq!(p.counter("x"), 0);
        assert_eq!(p.metrics_json(), "{}");
        // Disabled trace export is still a valid document.
        assert!(json::parse(&p.trace_json(0)).is_ok());
    }

    #[test]
    fn tally_exports_each_gain_once_and_only_fired_names() {
        let p = Probe::new(ProbeLevel::Metrics);
        let mut t = Tally::new(["t.a", "t.b"]);
        t.add(0);
        t.add(0);
        assert_eq!(p.counter("t.a"), 0, "counts wait for the export");
        t.export(&p);
        assert_eq!(p.metrics_json(), r#"{"t":{"a":2}}"#, "t.b never fired");
        t.export(&p);
        assert_eq!(p.counter("t.a"), 2, "an export adds only the gain");
        t.add(1);
        t.export(&p);
        assert_eq!((p.counter("t.a"), p.counter("t.b")), (2, 1));
        // Events before a disabled export are gone, as a disabled probe
        // never sees them.
        t.add(1);
        t.export(&Probe::off());
        t.export(&p);
        assert_eq!(p.counter("t.b"), 1);
    }

    #[test]
    fn metrics_level_skips_trace() {
        let p = Probe::new(ProbeLevel::Metrics);
        assert!(p.enabled() && !p.tracing());
        p.count("x", 2);
        p.span(Track::Engine, "s", 0, 5, &[]);
        assert_eq!(p.counter("x"), 2);
        assert_eq!(p.trace_len(), 0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let p = Probe::new(ProbeLevel::Trace);
        let q = p.clone();
        p.count("shared", 1);
        q.count("shared", 1);
        q.span(Track::Scache, "fill", 3, 7, &[]);
        assert_eq!(p.counter("shared"), 2);
        assert_eq!(p.trace_len(), 1);
    }

    #[test]
    fn clock_is_the_latest_callers_cycle() {
        let p = Probe::new(ProbeLevel::Trace);
        p.set_now(100);
        p.set_now(40);
        assert_eq!(p.now(), 40, "a second engine's earlier cycle replaces the clock");
        p.span(Track::Engine, "s", 90, 250, &[]);
        assert_eq!(p.now(), 40, "a span leaves the clock alone");
        p.instant(Track::Mem, "i", &[]);
        assert!(p.trace_json(0).contains("\"ts\":40"), "instants take the clock");
        // Below trace level the clock is not kept.
        let m = Probe::new(ProbeLevel::Metrics);
        m.set_now(100);
        assert_eq!(m.now(), 0);
    }

    /// A one-core span snapshot of three scalar cycles.
    fn three_scalar_cycles() -> SpanSnapshot {
        let mut log = SpanLog::new(4);
        log.record(3, Site::Scalar);
        let mut totals = [0; Site::COUNT];
        totals[Site::Scalar as usize] = 3;
        log.snapshot(0, totals)
    }

    #[test]
    fn spans_are_opt_in_and_drain_once() {
        let p = Probe::new(ProbeLevel::Metrics);
        assert!(!p.spans_on());
        p.enable_spans();
        assert!(p.spans_on());
        let snap = three_scalar_cycles();
        p.submit_spans(1, snap.clone());
        let drained = p.take_spans();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].core, 1, "submit relabels the core");
        assert!(p.take_spans().is_empty(), "drain is destructive");
        // Disabled probes never buffer.
        let off = Probe::off();
        off.enable_spans();
        assert!(!off.spans_on());
        off.submit_spans(0, snap);
        assert!(off.take_spans().is_empty());
    }

    #[test]
    fn absorb_merges_and_drains_the_other_probe() {
        let parent = Probe::new(ProbeLevel::Trace);
        parent.count("engine.reads", 10);
        parent.gauge("attr.total", 1.0);
        parent.set_now(50);

        let worker = Probe::new(ProbeLevel::Trace);
        worker.count("engine.reads", 5);
        worker.gauge("attr.total", 2.0);
        worker.span(Track::Engine, "s", 0, 120, &[]);
        worker.enable_spans();
        worker.submit_spans(0, three_scalar_cycles());

        parent.absorb(&worker);
        assert_eq!(parent.counter("engine.reads"), 15, "counters add");
        assert!(parent.metrics_json().contains("\"total\":2"), "gauges take the worker's value");
        assert_eq!(parent.trace_len(), 1, "trace events append");
        assert_eq!(parent.now(), 50, "the parent's clock is left alone");
        assert_eq!(parent.take_spans().len(), 1, "span snapshots carry over");
        // The worker is drained, so double-absorption cannot double-count.
        parent.absorb(&worker);
        assert_eq!(parent.counter("engine.reads"), 15);
        // Self/clone absorption and disabled endpoints are no-ops.
        let clone = parent.clone();
        parent.absorb(&clone);
        assert_eq!(parent.counter("engine.reads"), 15);
        parent.absorb(&Probe::off());
        Probe::off().absorb(&parent);
        assert_eq!(parent.counter("engine.reads"), 15);
    }

    #[test]
    fn a_panicking_holder_does_not_poison_other_clones() {
        let p = Probe::new(ProbeLevel::Trace);
        p.count("before", 1);
        let worker = p.clone();
        let joined = std::thread::spawn(move || {
            worker.with_registry(|reg| {
                reg.count("half_done", 1);
                panic!("worker dies holding the probe lock");
            });
        })
        .join();
        assert!(joined.is_err(), "the worker must have panicked");
        let q = p.clone();
        q.count("after", 2);
        assert_eq!(q.counter("before"), 1);
        assert_eq!(q.counter("half_done"), 1, "writes before the panic survive");
        assert_eq!(q.counter("after"), 2);
        assert!(json::parse(&q.metrics_json()).is_ok());
        q.span(Track::Engine, "s", 0, 5, &[]);
        assert!(json::parse(&q.trace_json(0)).is_ok());
        let other = Probe::new(ProbeLevel::Trace);
        other.count("after", 3);
        q.absorb(&other);
        assert_eq!(p.counter("after"), 5);
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Probe>();
    }
}
