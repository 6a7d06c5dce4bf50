//! The traced pass: spans in Chrome `trace_event` form, and the per-layer
//! ledger that splits backend time between the scalar core model
//! (`sc-cpu` + `sc-mem`) and the stream engine (`sparsecore`), then
//! reconciles each side with a prediction built from event counts and
//! the layer microbenchmarks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use sc_cpu::CoreStats;
use sc_mem::scache::StreamCacheConfig;
use sc_probe::json::Value;

use crate::micro::Micro;
use crate::report::obj;
use crate::suite::{EngineTotals, Pass, Side, Suite};
use crate::timed::{add_core, Kind, KindStats};

/// A finished span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    dur_ns: u64,
    args: Vec<(String, f64)>,
}

/// In-memory span recorder; written out once, when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a span that started at `t0` and ends now.
    pub fn push_done(&mut self, name: &str, t0: Instant, args: &[(String, f64)]) {
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.push_at(name, t0, 0, dur_ns, args);
    }

    /// Record a span starting `offset_ns` after `base` and lasting `dur_ns`.
    pub fn push_at(
        &mut self,
        name: &str,
        base: Instant,
        offset_ns: u64,
        dur_ns: u64,
        args: &[(String, f64)],
    ) {
        let start_ns = base.saturating_duration_since(self.origin).as_nanos() as u64 + offset_ns;
        self.spans.push(Span { name: name.to_string(), start_ns, dur_ns, args: args.to_vec() });
    }

    /// Chrome `trace_event` JSON (complete events, microsecond times).
    /// Spans nest by time, so a layer's self time is its span minus its
    /// children.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\":");
            sc_probe::json::write_str(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{",
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            );
            for (j, (k, v)) in s.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                sc_probe::json::write_str(&mut out, k);
                out.push(':');
                sc_probe::json::write_f64(&mut out, *v);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Host time and counters of the traced pass, folded by layer.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Generator time.
    pub gen_ns: u64,
    /// Plan compile / `to_csc` / operand time.
    pub prep_ns: u64,
    /// Executor or kernel time outside backend calls.
    pub exec_self_ns: u64,
    /// Backend calls by kind, CPU-baseline side.
    pub cpu_calls: [KindStats; Kind::ALL.len()],
    /// Backend calls by kind, SparseCore side.
    pub sc_calls: [KindStats; Kind::ALL.len()],
    /// L1 hits and misses of every run's core model.
    pub l1: (u64, u64),
    /// Engine counters, summed over SparseCore runs.
    pub engine: EngineTotals,
}

impl Ledger {
    /// Fold a traced pass.
    pub fn from_pass(suite: &Suite, pass: &Pass) -> Ledger {
        let mut l =
            Ledger { gen_ns: pass.setup.gen_ns, prep_ns: pass.setup.prep_ns, ..Ledger::default() };
        for (run, out) in suite.runs.iter().zip(&pass.runs) {
            let t = out.traced.as_ref().expect("traced pass");
            let backend_ns: u64 = t.calls.iter().map(|c| c.ns).sum();
            l.exec_self_ns += t.exec_ns.saturating_sub(backend_ns);
            let side = match run.side {
                Side::Cpu => &mut l.cpu_calls,
                Side::Sc(_) => &mut l.sc_calls,
            };
            for (acc, c) in side.iter_mut().zip(&t.calls) {
                acc.calls += c.calls;
                acc.ns += c.ns;
                add_core(&mut acc.core, &c.core);
            }
            l.l1.0 += t.l1.0;
            l.l1.1 += t.l1.1;
            if let Some(e) = &t.engine {
                let a = &mut l.engine;
                a.reads += e.reads;
                a.set_ops += e.set_ops;
                a.nested += e.nested;
                a.value_ops += e.value_ops;
                a.elements_streamed += e.elements_streamed;
                a.value_loads += e.value_loads;
                a.scratchpad_hits += e.scratchpad_hits;
                a.scratchpad_misses += e.scratchpad_misses;
            }
        }
        l
    }

    /// Calls handled by the scalar core model alone: every baseline call,
    /// plus SparseCore's loop control and scalar ops.
    fn core_model(&self) -> (u64, CoreStats) {
        let mut ns = 0;
        let mut core = CoreStats::default();
        for (baseline, calls) in [(true, &self.cpu_calls), (false, &self.sc_calls)] {
            for (kind, c) in Kind::ALL.iter().zip(calls) {
                if baseline || *kind == Kind::Ctl {
                    ns += c.ns;
                    add_core(&mut core, &c.core);
                }
            }
        }
        (ns, core)
    }

    /// SparseCore calls that execute stream instructions, with the core
    /// counters those instructions advanced.
    fn engine_side(&self) -> (u64, CoreStats) {
        let mut ns = 0;
        let mut core = CoreStats::default();
        for (kind, c) in Kind::ALL.iter().zip(&self.sc_calls) {
            if *kind != Kind::Ctl {
                ns += c.ns;
                add_core(&mut core, &c.core);
            }
        }
        (ns, core)
    }

    fn sc_kinds_ns(&self, kinds: &[Kind]) -> u64 {
        kinds.iter().map(|k| self.sc_calls[*k as usize].ns).sum()
    }

    /// Predicted host nanoseconds for the core-model side and the engine
    /// side: event counts times the microbenchmarks' ns/op.
    pub fn predicted_ns(&self, micro: &Micro) -> (f64, f64) {
        let core_cost = |c: &CoreStats| {
            let plain = c.uops.saturating_sub(c.loads + c.stores + c.branches) as f64;
            plain * micro.get("cpu.core_ops_ns")
                + (c.loads + c.stores) as f64 * micro.get("cpu.core_load_ns")
                + c.branches as f64 * (micro.get("cpu.core_ops_ns") + micro.get("cpu.gshare_ns"))
        };
        let e = &self.engine;
        let refills = e.elements_streamed as f64 / StreamCacheConfig::paper().subslot_keys() as f64;
        let engine = e.elements_streamed as f64
            * (micro.get("su.simulate_ns_per_elem") + micro.get("setops.intersect_ns_per_elem"))
            + refills * micro.get("mem.scache_refill_ns")
            + e.value_loads as f64 * micro.get("mem.hier_load_ns");
        (core_cost(&self.core_model().1), engine + core_cost(&self.engine_side().1))
    }

    /// The per-layer metrics this ledger yields, by name.
    pub fn metrics(&self, micro: &Micro) -> BTreeMap<&'static str, f64> {
        let ms = |ns: u64| ns as f64 / 1e6;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let (cpu_ns, cpu) = self.core_model();
        let (sc_ns, _) = self.engine_side();
        let ctl_ns = self.cpu_calls[Kind::Ctl as usize].ns + self.sc_calls[Kind::Ctl as usize].ns;
        let calls: u64 = self.cpu_calls.iter().chain(&self.sc_calls).map(|c| c.calls).sum();
        let (pred_cpu, pred_sc) = self.predicted_ns(micro);
        let residual = |measured: u64, predicted: f64| {
            if measured == 0 {
                0.0
            } else {
                (measured as f64 - predicted) / measured as f64 * 100.0
            }
        };
        let e = &self.engine;
        BTreeMap::from([
            ("gen.build_ms", ms(self.gen_ns)),
            ("setup.prep_ms", ms(self.prep_ns)),
            ("exec.self_ms", ms(self.exec_self_ns)),
            ("exec.backend_calls", calls as f64),
            ("cpu.sim_ms", ms(cpu_ns)),
            ("cpu.ctl_ms", ms(ctl_ns)),
            ("cpu.uops", cpu.uops as f64),
            ("cpu.branches", cpu.branches as f64),
            ("cpu.loads", cpu.loads as f64),
            ("cpu.mispredict_ratio", ratio(cpu.mispredicts, cpu.branches)),
            ("cpu.l1_hit_ratio", ratio(self.l1.0, self.l1.0 + self.l1.1)),
            ("cpu.ns_per_uop", ratio(cpu_ns, cpu.uops)),
            ("sc.sim_ms", ms(sc_ns)),
            ("sc.read_ms", ms(self.sc_kinds_ns(&[Kind::Read]))),
            (
                "sc.setop_ms",
                ms(self.sc_kinds_ns(&[Kind::SetOp, Kind::Nested, Kind::Dot, Kind::Merge])),
            ),
            ("sc.other_ms", ms(self.sc_kinds_ns(&[Kind::Fetch, Kind::Release, Kind::Finish]))),
            ("sc.reads", e.reads as f64),
            ("sc.set_ops", e.set_ops as f64),
            ("sc.nested", e.nested as f64),
            ("sc.value_ops", e.value_ops as f64),
            ("sc.elements_streamed", e.elements_streamed as f64),
            ("sc.value_loads", e.value_loads as f64),
            (
                "sc.scratchpad_hit_ratio",
                ratio(e.scratchpad_hits, e.scratchpad_hits + e.scratchpad_misses),
            ),
            ("sc.ns_per_element", ratio(sc_ns, e.elements_streamed)),
            ("ledger.cpu_residual_pct", residual(cpu_ns, pred_cpu)),
            ("ledger.sc_residual_pct", residual(sc_ns, pred_sc)),
        ])
    }

    /// Per-kind call counts and host milliseconds, by side, for
    /// `results.json`.
    pub fn breakdown(&self) -> Value {
        let side = |calls: &[KindStats; Kind::ALL.len()]| {
            let kinds = Kind::ALL.iter().zip(calls).filter(|(_, c)| c.calls > 0).map(|(k, c)| {
                let v = obj([
                    ("calls", Value::Num(c.calls as f64)),
                    ("ms", Value::Num(c.ns as f64 / 1e6)),
                ]);
                (k.name().to_string(), v)
            });
            Value::Obj(kinds.collect())
        };
        obj([("cpu", side(&self.cpu_calls)), ("sc", side(&self.sc_calls))])
    }
}
