//! The event tracer: timestamped (sim-cycle) spans and instants exported
//! as Chrome `trace_event` JSON, so any run opens directly in Perfetto or
//! `chrome://tracing`.
//!
//! Only complete (`"ph":"X"`) and instant (`"ph":"i"`) events are
//! emitted — never unbalanced `B`/`E` pairs — plus `"M"` metadata rows
//! naming each process/track. Events are sorted by timestamp at export,
//! so `ts` is monotonically non-decreasing in the emitted file. One
//! simulated cycle maps to one microsecond of trace time.

use crate::json;

/// Where an event belongs on the timeline. Each track renders as one
/// named thread row in Perfetto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// Stream-instruction retirement (the engine's architectural view).
    Engine,
    /// One Stream Unit's busy windows (`Su(k)` is SU number `k`).
    Su(usize),
    /// S-Cache slot fills / evictions / window refills.
    Scache,
    /// Scratchpad admissions and evictions.
    Scratchpad,
    /// Conventional hierarchy events (DRAM accesses).
    Mem,
    /// Invariant-sanitizer findings (SC-S3xx) as instants.
    Sanitizer,
    /// GPM plan execution phases.
    Gpm,
    /// Tensor-kernel driver phases.
    Kernel,
}

impl Track {
    /// Stable thread id for the track. SU tracks occupy 1..=15.
    pub fn tid(self) -> u64 {
        match self {
            Track::Engine => 0,
            Track::Su(k) => 1 + (k as u64).min(14),
            Track::Scache => 16,
            Track::Scratchpad => 17,
            Track::Mem => 18,
            Track::Sanitizer => 19,
            Track::Gpm => 20,
            Track::Kernel => 21,
        }
    }

    /// The thread id of this track for events of simulated core `core`
    /// (`None`: a serial run, or a run-level event). Each core's tracks
    /// sit in a block of their own past the serial tracks.
    fn tid_of(self, core: Option<u32>) -> u64 {
        core.map_or(0, |c| (u64::from(c) + 1) * CORE_TIDS) + self.tid()
    }

    /// The thread name of this track for events of simulated core `core`.
    fn name_of(self, core: Option<u32>) -> String {
        match core {
            None => self.name(),
            Some(c) => format!("core{c} {}", self.name()),
        }
    }

    /// Human name shown by the trace viewer.
    pub fn name(self) -> String {
        match self {
            Track::Engine => "engine".into(),
            Track::Su(k) => format!("su{k}"),
            Track::Scache => "s-cache".into(),
            Track::Scratchpad => "scratchpad".into(),
            Track::Mem => "memory".into(),
            Track::Sanitizer => "sanitizer".into(),
            Track::Gpm => "gpm".into(),
            Track::Kernel => "kernel".into(),
        }
    }
}

/// Thread ids per simulated core's block of tracks (more than every
/// serial track id).
const CORE_TIDS: u64 = 32;

/// One recorded event.
#[derive(Debug, Clone)]
struct Event {
    name: String,
    track: Track,
    /// The simulated core whose tracks the event sits on (`None`: the
    /// serial tracks).
    core: Option<u32>,
    /// Start cycle.
    ts: u64,
    /// Duration in cycles for complete events; `None` for instants.
    dur: Option<u64>,
    args: Vec<(&'static str, u64)>,
}

/// The event buffer. Bounded: past [`Tracer::CAP`] events, new events are
/// dropped and counted, so a runaway sweep cannot exhaust host memory —
/// the drop count is reported in the export and the metrics snapshot.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    events: Vec<Event>,
    dropped: u64,
}

impl Tracer {
    /// Maximum buffered events before dropping (~220 MB of JSON).
    pub const CAP: usize = 2_000_000;

    /// An empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, ev: Event) {
        if self.events.len() >= Self::CAP {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    /// Record a complete span `[start, end]` on `track` of `core`. Spans
    /// with `end < start` are clamped to zero duration rather than
    /// dropped.
    pub fn span(
        &mut self,
        track: Track,
        core: Option<u32>,
        name: &str,
        start: u64,
        end: u64,
        args: &[(&'static str, u64)],
    ) {
        self.push(Event {
            name: name.to_string(),
            track,
            core,
            ts: start,
            dur: Some(end.saturating_sub(start)),
            args: args.to_vec(),
        });
    }

    /// Record an instant event at `ts` on `track` of `core`.
    pub fn instant(
        &mut self,
        track: Track,
        core: Option<u32>,
        name: &str,
        ts: u64,
        args: &[(&'static str, u64)],
    ) {
        let name = name.to_string();
        self.push(Event { name, track, core, ts, dur: None, args: args.to_vec() })
    }

    /// Append another tracer's events (the `--jobs` sweep merges worker
    /// tracers this way, in deterministic workload order). Events past
    /// [`Tracer::CAP`] are dropped and counted like live recording, and
    /// the other tracer's drop count carries over; export order is
    /// unaffected since [`Tracer::to_json`] sorts by timestamp anyway.
    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        for ev in other.events {
            self.push(ev);
        }
    }

    /// Export as Chrome `trace_event` JSON: `{"traceEvents": [...]}` with
    /// metadata rows first, then all events sorted by `ts`.
    pub fn to_json(&self, pid: u64) -> String {
        let tid = |e: &Event| e.track.tid_of(e.core);
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].ts, tid(&self.events[i])));

        // Track-name metadata for every track that appears.
        let mut tracks: Vec<(Track, Option<u32>)> =
            self.events.iter().map(|e| (e.track, e.core)).collect();
        tracks.sort_by_key(|&(t, c)| t.tid_of(c));
        tracks.dedup_by_key(|&mut (t, c)| t.tid_of(c));

        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut meta = |out: &mut String, name: &str, tid: Option<u64>, value: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json::write_str(out, name);
            out.push_str(",\"ph\":\"M\",\"pid\":");
            out.push_str(&pid.to_string());
            if let Some(tid) = tid {
                out.push_str(",\"tid\":");
                out.push_str(&tid.to_string());
            }
            out.push_str(",\"args\":{\"name\":");
            json::write_str(out, value);
            out.push_str("}}");
        };
        meta(&mut out, "process_name", None, &format!("sparsecore[{pid}]"));
        for &(t, c) in &tracks {
            meta(&mut out, "thread_name", Some(t.tid_of(c)), &t.name_of(c));
        }
        for i in order {
            let e = &self.events[i];
            out.push(',');
            out.push_str("{\"name\":");
            json::write_str(&mut out, &e.name);
            match e.dur {
                Some(d) => {
                    out.push_str(",\"ph\":\"X\",\"dur\":");
                    out.push_str(&d.to_string());
                }
                None => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
            }
            out.push_str(",\"ts\":");
            out.push_str(&e.ts.to_string());
            out.push_str(",\"pid\":");
            out.push_str(&pid.to_string());
            out.push_str(",\"tid\":");
            out.push_str(&tid(e).to_string());
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    json::write_str(&mut out, k);
                    out.push(':');
                    out.push_str(&v.to_string());
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"sim-cycles\",\"dropped\":",
        );
        out.push_str(&self.dropped.to_string());
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_valid_and_sorted() {
        let mut t = Tracer::new();
        t.span(Track::Su(1), None, "S_INTER", 50, 90, &[("produced", 3)]);
        t.instant(Track::Sanitizer, None, "SC-S301", 70, &[]);
        t.span(Track::Engine, None, "S_READ", 10, 20, &[]);
        let doc = json::parse(&t.to_json(0)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 metadata-named tracks + process_name + 3 events.
        assert_eq!(events.len(), 7);
        let mut last_ts = 0.0;
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if ph == "M" {
                continue;
            }
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= last_ts, "ts must be monotonic");
            last_ts = ts;
        }
        // The span carries its args.
        let span =
            events.iter().find(|e| e.get("name").unwrap().as_str() == Some("S_INTER")).unwrap();
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(40.0));
        assert_eq!(span.get("args").unwrap().get("produced").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn negative_duration_clamps() {
        let mut t = Tracer::new();
        t.span(Track::Engine, None, "weird", 100, 40, &[]);
        let doc = json::parse(&t.to_json(0)).unwrap();
        let ev = doc.get("traceEvents").unwrap().as_arr().unwrap().last().unwrap().clone();
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn track_tids_are_distinct() {
        let tracks = [
            Track::Engine,
            Track::Su(0),
            Track::Su(3),
            Track::Scache,
            Track::Scratchpad,
            Track::Mem,
            Track::Sanitizer,
            Track::Gpm,
            Track::Kernel,
        ];
        let mut tids: Vec<u64> = tracks.iter().map(|t| t.tid()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), tracks.len());
    }

    #[test]
    fn each_core_has_tracks_of_its_own() {
        let mut t = Tracer::new();
        t.instant(Track::Mem, None, "dram_access", 5, &[]);
        t.instant(Track::Mem, Some(0), "dram_access", 5, &[]);
        t.instant(Track::Mem, Some(1), "dram_access", 5, &[]);
        let doc = t.to_json(0);
        crate::check::validate_trace(&doc).unwrap();
        let tids = [None, Some(0), Some(1)].map(|c| Track::Mem.tid_of(c));
        assert_eq!(tids, [18, 50, 82]);
        for name in ["\"memory\"", "\"core0 memory\"", "\"core1 memory\""] {
            assert!(doc.contains(name), "{name} in {doc}");
        }
    }
}
