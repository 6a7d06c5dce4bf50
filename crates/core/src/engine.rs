//! The SparseCore engine: functional execution + timing of the stream ISA.
//!
//! The engine owns the out-of-order core model (scalar side), the SMT and
//! stream registers, the S-Cache, the scratchpad and the Stream Units, and
//! exposes one method per stream instruction. Workloads (the GPM plan
//! executor, the tensor kernels, or the [`crate::interp`] program
//! interpreter) call these methods while also narrating their scalar work
//! to [`Engine::core_mut`]; the engine schedules stream operations onto
//! SUs with a dataflow completion-time model:
//!
//! * an SU operation starts when its operands' data is ready, the chosen
//!   SU is free, and the core has issued it;
//! * its duration is the *maximum* of the parallel-comparison cycles
//!   (paper Figure 6, replayed over the real keys by [`crate::su`]) and
//!   the data-supply time — consumed elements divided by the S-Cache
//!   bandwidth share and the memory-side prefetch rate;
//! * scalar results (counts, dot products) are deferred: the core only
//!   blocks when it truly consumes a result (`S_FETCH`, or
//!   [`Engine::finish`]), which is how the out-of-order core overlaps
//!   independent intersections across multiple SUs.

use crate::config::SparseCoreConfig;
use crate::sanitize::{audit_code, Sanitizer};
use crate::smt::{Smt, SregIdx};
use crate::stats::EngineStats;
use crate::su::{self, execute, simulate, SuOp, SuTiming, ValueOperand};
use sc_cpu::Core;
use sc_isa::{Bound, GfrSet, Key, Priority, StreamException, StreamId, Value, ValueOp, EOS};
use sc_lint::{Diagnostic, LintCode};
use sc_mem::{LineRuns, Scratchpad, StreamCacheStorage};
use sc_probe::{AttrBin, Probe, Site, Track};
use std::collections::VecDeque;

/// Cycle alias.
type Cycle = u64;

/// Where a stream's keys come from (drives the supply-rate model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamSource {
    /// Initialized by `S_READ`/`S_VREAD` from memory through the S-Cache.
    Memory,
    /// Resident in the scratchpad (stream reuse hit).
    Scratchpad,
    /// Produced by a set operation into the S-Cache slot.
    Output,
}

/// Functional payload of a stream register.
#[derive(Debug, Clone)]
struct StreamPayload {
    keys: Vec<Key>,
    vals: Option<Vec<Value>>,
    /// A value stream whose keys are a dense run ([`su::is_dense`]),
    /// decided once, when the payload is built.
    dense: bool,
    source: StreamSource,
    /// Lines already charged for this stream's prefetch (first window).
    lines_fetched: u64,
}

/// Resolves the dependent edge lists of `S_NESTINTER` (the role the graph
/// format registers play in hardware). Implemented for CSR graphs by the
/// GPM layer; [`SliceNestedSource`] serves tests.
pub trait NestedSource {
    /// The sorted neighbor list of `v`.
    fn keys(&self, v: Key) -> &[Key];
    /// The byte address of that list's first key.
    fn key_addr(&self, v: Key) -> u64;
}

/// A [`NestedSource`] over an in-memory adjacency table (tests and
/// examples).
#[derive(Debug, Clone)]
pub struct SliceNestedSource {
    /// Adjacency lists indexed by vertex.
    pub lists: Vec<Vec<Key>>,
    /// Base address of the (conceptual) edge array.
    pub base: u64,
    offsets: Vec<u64>,
}

impl SliceNestedSource {
    /// Build from adjacency lists laid out contiguously at `base`.
    pub fn new(lists: Vec<Vec<Key>>, base: u64) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut acc = 0u64;
        for l in &lists {
            offsets.push(acc);
            acc += l.len() as u64;
        }
        offsets.push(acc);
        SliceNestedSource { lists, base, offsets }
    }
}

impl NestedSource for SliceNestedSource {
    fn keys(&self, v: Key) -> &[Key] {
        // A key outside the table (a malformed or adversarial input
        // stream) resolves to an empty edge list rather than aborting
        // the simulator.
        self.lists.get(v as usize).map_or(&[], |l| l.as_slice())
    }

    fn key_addr(&self, v: Key) -> u64 {
        let off = self.offsets.get(v as usize).or(self.offsets.last()).copied().unwrap_or(0);
        self.base + off * 4
    }
}

/// Operand `sid` of a value instruction, in register `idx`: its value
/// address and its (key, value) view.
fn value_operand<'a>(
    smt: &Smt,
    data: &'a [Option<StreamPayload>],
    sid: StreamId,
    idx: SregIdx,
) -> Result<(u64, ValueOperand<'a>), StreamException> {
    let not_kv = StreamException::NotKeyValueStream(sid);
    let addr = smt.reg(idx).val_addr.ok_or(not_kv)?;
    let p = data[idx].as_ref().expect("payload");
    let vals = p.vals.as_deref().ok_or(not_kv)?;
    Ok((addr, ValueOperand { keys: &p.keys, vals, dense: p.dense }))
}

/// One counter [`Engine::finish`] exports to the probe registry: the
/// registry name, how to read the counter, and the row of [`EXPORTS`]
/// whose growth makes the name appear.
type Export = (&'static str, fn(&Engine) -> u64, usize);

/// The engine's exported counters. A name appears once its trigger row
/// has grown, which is where the event it counts first fired: most
/// counters trigger themselves and so appear once nonzero, while a set
/// op's busy cycles and streamed elements, a value op's loads and a
/// window refill's lines appear with their event even while they add 0.
const EXPORTS: [Export; 16] = [
    ("engine.reads", |e| e.stats.reads, 0),
    ("engine.frees", |e| e.stats.frees, 1),
    ("engine.fetches", |e| e.stats.fetches, 2),
    ("engine.nested", |e| e.stats.nested, 3),
    ("engine.set_ops", |e| e.stats.set_ops, 4),
    ("engine.su_busy_cycles", |e| e.stats.su_busy_cycles, 4),
    ("engine.elements_streamed", |e| e.stats.elements_streamed, 4),
    ("engine.value_ops", |e| e.stats.value_ops, 7),
    ("engine.value_loads", |e| e.stats.value_loads, 7),
    ("engine.scratchpad_hits", |e| e.stats.scratchpad_hits, 9),
    ("engine.scratchpad_misses", |e| e.stats.scratchpad_misses, 10),
    ("scratchpad.admits", |e| e.scratchpad.admits, 11),
    ("scratchpad.evictions", |e| e.scratchpad.evictions, 12),
    ("scratchpad.rejects", |e| e.scratchpad.rejects, 13),
    ("scache.window_refills", |e| e.stats.scache_window_refills, 14),
    ("scache.refill_lines", |e| e.stats.scache_refill_lines, 14),
];

/// The SparseCore engine. See the module docs for the execution model.
#[derive(Debug)]
pub struct Engine {
    cfg: SparseCoreConfig,
    core: Core,
    smt: Smt,
    scache: StreamCacheStorage,
    scratchpad: Scratchpad,
    /// Per-SU next-free time.
    su_free_at: Vec<Cycle>,
    /// Functional payloads, indexed by stream register.
    data: Vec<Option<StreamPayload>>,
    gfr: GfrSet,
    /// Bump allocator for output-stream key addresses.
    out_alloc: u64,
    /// The matched positions of the latest `S_VINTER`, kept so that no
    /// call allocates ([`su::vinter`]).
    matches: Vec<(u32, u32)>,
    stats: EngineStats,
    /// Completion time of the latest stream event.
    last_event: Cycle,
    /// Streams spilled to the virtualization region (Section 4.1): when
    /// enabled, exceeding the 16 stream registers swaps SMT entries to a
    /// special memory region instead of stalling/faulting.
    spilled: std::collections::HashMap<StreamId, SpilledStream>,
    /// Enable stream virtualization.
    virtualize: bool,
    /// When tracing, every executed stream instruction is appended here.
    trace: Option<sc_isa::Program>,
    /// The invariant sanitizer, attached when the configuration enables
    /// it (see [`crate::sanitize`]).
    san: Option<Box<Sanitizer>>,
    /// Observability handle (sc-probe): metrics counters, trace spans and
    /// the cycle-attribution profile. `Probe::off()` unless attached.
    probe: Probe,
    /// The export watermark: each [`EXPORTS`] counter's value and the
    /// number of stream-length samples already exported to `probe`.
    exported: ([u64; EXPORTS.len()], usize),
}

/// A stream swapped out of the SMT to the virtualization memory region.
#[derive(Debug, Clone)]
struct SpilledStream {
    key_addr: u64,
    val_addr: Option<u64>,
    priority: Priority,
    ready_at: Cycle,
    payload: StreamPayload,
}

/// A snapshot of the engine's architectural stream state, taken before a
/// multi-micro-op instruction so a mid-instruction exception can restore
/// precise state (paper Section 5.1). Timing state is not part of the
/// checkpoint — wall-clock cycles already spent stay spent.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    smt: Smt,
    data: Vec<Option<StreamPayload>>,
    scache: StreamCacheStorage,
    gfr: GfrSet,
    out_alloc: u64,
    spilled: std::collections::HashMap<StreamId, SpilledStream>,
    /// Length of the recorded trace at checkpoint time (when tracing):
    /// a rollback squashes the micro-ops recorded past this point.
    trace_len: Option<usize>,
    /// The sanitizer's freed-stream history (when sanitizing): it
    /// shadows SMT state, so restoring one without the other would make
    /// the freed set disagree with architectural state after a rollback.
    san_freed: Option<std::collections::BTreeSet<StreamId>>,
}

impl Engine {
    /// A fresh engine with cold caches.
    pub fn new(cfg: SparseCoreConfig) -> Self {
        let nregs = cfg.num_stream_registers();
        // The S-Cache is refilled from L2, so its line traffic must use
        // the hierarchy's configured line size, not an assumed 64 bytes.
        let mut scache = StreamCacheStorage::new(cfg.scache);
        scache.set_line_bytes(cfg.core.mem.l2.line_bytes);
        Engine {
            core: Core::new(cfg.core),
            smt: Smt::new(nregs),
            scache,
            scratchpad: Scratchpad::new(cfg.scratchpad),
            su_free_at: vec![0; cfg.num_sus],
            data: (0..nregs).map(|_| None).collect(),
            gfr: GfrSet::default(),
            out_alloc: 0xC000_0000,
            matches: Vec::new(),
            stats: EngineStats::default(),
            last_event: 0,
            spilled: std::collections::HashMap::new(),
            virtualize: false,
            trace: None,
            san: cfg.sanitize.then(|| Box::new(Sanitizer::new())),
            probe: Probe::off(),
            exported: ([0; EXPORTS.len()], 0),
            cfg,
        }
    }

    /// Attach an observability probe. The handle is cloned into every
    /// sub-model (core, memory hierarchy, S-Cache, scratchpad, sanitizer)
    /// so that all of them write into one shared registry / tracer. The
    /// engine's own counters reach the registry at [`Engine::finish`],
    /// counting only events after this call.
    pub fn set_probe(&mut self, probe: Probe) {
        self.core.set_probe(probe.clone());
        self.scache.set_probe(probe.clone());
        self.scratchpad.set_probe(probe.clone());
        if let Some(san) = &mut self.san {
            san.set_probe(probe.clone());
        }
        if probe.spans_on() {
            self.core.enable_span_log(sc_probe::spans::DEFAULT_RING);
        }
        self.probe = probe;
        self.exported = self.watermark();
    }

    /// Each exported counter's current value and the number of
    /// stream-length samples.
    fn watermark(&self) -> ([u64; EXPORTS.len()], usize) {
        (EXPORTS.map(|(_, count, _)| count(self)), self.stats.lengths.count())
    }

    /// Add to the probe registry what each exported counter, and the
    /// `engine.stream_len` histogram, gained since the last export.
    /// Exporting deltas lets drivers drain one engine many times and
    /// share one probe across engines without counting an event twice.
    fn export_counters(&mut self) {
        let (now, samples) = self.watermark();
        let (done, done_samples) = std::mem::replace(&mut self.exported, (now, samples));
        let lengths = &self.stats.lengths.samples()[done_samples..];
        self.probe.with_registry(|reg| {
            for (i, &(name, _, trigger)) in EXPORTS.iter().enumerate() {
                if now[trigger] > done[trigger] {
                    reg.count(name, now[i] - done[i]);
                }
            }
            if !lengths.is_empty() {
                reg.observe_all("engine.stream_len", lengths.iter().map(|&len| u64::from(len)));
            }
        });
    }

    /// The attached probe (an always-valid handle; `Probe::off()` when
    /// none was attached).
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// The cycle-attribution profile (paper Figures 9/10): every modeled
    /// core cycle binned into SU-compare / S-Cache-refill / memory-stall /
    /// translator / scalar-overlap. `attribution().total()` equals
    /// [`sc_cpu::Core::cycles`] by construction; call after
    /// [`Engine::finish`] for it to also equal [`Engine::cycles`].
    pub fn attribution(&self) -> sc_probe::Attribution {
        self.core.attribution()
    }

    /// Snapshot the core's span log (`None` unless the attached probe had
    /// spans enabled when it was set). The caller labels the core id via
    /// [`sc_probe::Probe::submit_spans`] or pads idle time first
    /// ([`sc_probe::SpanSnapshot::pad_idle`]) in multicore runs.
    pub fn span_snapshot(&self) -> Option<sc_probe::SpanSnapshot> {
        self.core.span_snapshot()
    }

    /// Submit this engine's span log to the attached probe, labelled
    /// `core`. Serial drivers call this once per workload after
    /// [`Engine::finish`]; no-op when spans are off.
    pub fn submit_spans(&self, core: usize) {
        if let Some(snap) = self.core.span_snapshot() {
            self.probe.submit_spans(core, snap);
        }
    }

    /// Fold the current model state into the probe's metrics registry as
    /// gauges: cycle counts, breakdown buckets, attribution bins, cache /
    /// scratchpad state. Counters are not touched here; [`Engine::finish`]
    /// exports them. No-op when the probe is disabled.
    pub fn probe_snapshot(&self) {
        if !self.probe.enabled() {
            return;
        }
        let attr = self.core.attribution();
        let b = self.breakdown();
        let core_cycles = self.core.cycles();
        let total = self.cycles();
        let sp_used = self.scratchpad.used_bytes();
        let (sp_hits, sp_misses) = (self.scratchpad.hits, self.scratchpad.misses);
        let mem = self.core.mem();
        self.probe.with_registry(|reg| {
            reg.gauge("core.cycles", core_cycles as f64);
            reg.gauge("engine.total_cycles", total as f64);
            reg.gauge("breakdown.cache", b.cache as f64);
            reg.gauge("breakdown.mispredict", b.mispredict as f64);
            reg.gauge("breakdown.other_compute", b.other_compute as f64);
            reg.gauge("breakdown.intersection", b.intersection as f64);
            for bin in AttrBin::ALL {
                reg.gauge(&format!("attr.{}", bin.name()), attr.get(bin) as f64);
            }
            reg.gauge("attr.total", attr.total() as f64);
            reg.gauge("scratchpad.used_bytes", sp_used as f64);
            reg.gauge("scratchpad.hits", sp_hits as f64);
            reg.gauge("scratchpad.misses", sp_misses as f64);
            mem.snapshot_metrics(reg, "mem");
        });
    }

    /// Start recording every executed stream instruction as an
    /// [`sc_isa::Program`] — the dynamic trace a compiler-generated binary
    /// would contain. Retrieve it with [`Engine::take_trace`].
    pub fn record_trace(&mut self) {
        self.trace = Some(sc_isa::Program::new());
    }

    /// Stop tracing and return the recorded program (empty if tracing was
    /// never enabled).
    pub fn take_trace(&mut self) -> sc_isa::Program {
        self.trace.take().unwrap_or_default()
    }

    #[inline]
    fn trace_instr(&mut self, f: impl FnOnce() -> sc_isa::Instr) {
        if let Some(t) = self.trace.as_mut() {
            t.push(f());
        }
    }

    /// Enable stream virtualization (Section 4.1): when every stream
    /// register is active, initializing another stream spills an existing
    /// entry to a special memory region instead of raising
    /// [`StreamException::OutOfStreamRegisters`]; referencing a spilled
    /// stream swaps it back in (paying the memory traffic).
    pub fn enable_virtualization(&mut self) {
        self.virtualize = true;
    }

    /// Is stream virtualization on? (Static analysis keys the severity
    /// of register-pressure findings off this.)
    pub fn virtualization_enabled(&self) -> bool {
        self.virtualize
    }

    /// Take a checkpoint of the architectural stream state (SMT, stream
    /// registers, S-Cache bindings, GFRs) — the mechanism Section 5.1
    /// uses to make `S_NESTINTER` precise.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            smt: self.smt.clone(),
            data: self.data.clone(),
            scache: self.scache.clone(),
            gfr: self.gfr,
            out_alloc: self.out_alloc,
            spilled: self.spilled.clone(),
            trace_len: self.trace.as_ref().map(sc_isa::Program::len),
            san_freed: self.san.as_ref().map(|s| s.snapshot_freed()),
        }
    }

    /// Roll the architectural stream state back to `cp`. Cycles already
    /// simulated are not un-spent (time is monotonic); only the stream
    /// state is restored, exactly as a hardware rollback would behave.
    /// Micro-ops recorded in the trace after the checkpoint are squashed
    /// too — they never architecturally retired.
    pub fn rollback(&mut self, cp: Checkpoint) {
        self.smt = cp.smt;
        self.data = cp.data;
        self.scache = cp.scache;
        self.gfr = cp.gfr;
        self.out_alloc = cp.out_alloc;
        self.spilled = cp.spilled;
        if let (Some(san), Some(freed)) = (self.san.as_mut(), cp.san_freed) {
            san.restore_freed(freed);
        }
        let skip_trace = self.san.as_ref().is_some_and(|s| s.skip_trace_restore);
        if let (Some(t), Some(len)) = (self.trace.as_mut(), cp.trace_len) {
            if !skip_trace {
                t.truncate(len);
            }
        }
        // Rollback-drift check (SC-S311): the restored state must match
        // the checkpoint exactly. The restores above are direct moves, so
        // the one postcondition that can drift is the trace (it is shared
        // forward state, not part of the snapshot).
        if let Some(san) = &mut self.san {
            if let (Some(t), Some(len)) = (self.trace.as_ref(), cp.trace_len) {
                if t.len() != len {
                    san.record(Diagnostic::sanitizer(
                        LintCode::SanRollbackDrift,
                        format!(
                            "rollback left {} squashed micro-op(s) in the recorded \
                             trace ({} recorded, checkpoint took it at {len})",
                            t.len() - len.min(t.len()),
                            t.len()
                        ),
                    ));
                }
            }
        }
        // A rollback squashes in-flight micro-ops; charge the pipeline
        // refill like a mispredict.
        let penalty = self.cfg.core.mispredict_penalty;
        self.core.stall_memory(penalty);
    }

    /// Swap a spilled stream back into the SMT (virtualization hit path).
    /// Spills a victim if every register is active.
    fn swap_in(&mut self, sid: StreamId, protect: &[StreamId]) -> Result<(), StreamException> {
        let Some(sp) = self.spilled.remove(&sid) else {
            return Err(StreamException::UseUndefined(sid));
        };
        if self.smt.active() == self.smt.capacity() {
            self.spill_victim(protect)?;
        }
        // Swap-in traffic: SMT entry reload from the virtualization region.
        self.core.load_use(0xB000_0000 + u64::from(sid.raw()) * 64);
        let idx = self.smt.define(
            sid,
            sp.key_addr,
            sp.val_addr,
            sp.payload.keys.len() as u32,
            sp.priority,
            sp.ready_at,
        )?;
        self.scache.bind(idx, sp.key_addr, sp.payload.keys.len());
        self.data[idx] = Some(sp.payload);
        Ok(())
    }

    /// Spill one active stream (not `keep`) to the virtualization region.
    fn spill_victim(&mut self, protect: &[StreamId]) -> Result<(), StreamException> {
        let victim = self
            .smt
            .active_regs()
            .map(|(_, r)| r.sid)
            .find(|sid| !protect.contains(sid))
            .ok_or(StreamException::OutOfStreamRegisters)?;
        let idx = self.smt.lookup(victim)?;
        let reg = self.smt.reg(idx);
        let (key_addr, val_addr, priority, ready_at) =
            (reg.key_addr, reg.val_addr, reg.priority, reg.ready_at);
        let payload = self.data[idx].take().expect("active stream has payload");
        // Spill traffic: SMT entry store to the virtualization region.
        let spill_addr = 0xB000_0000 + u64::from(victim.raw()) * 64;
        if let Some(san) = &mut self.san {
            san.check_write(spill_addr, spill_addr + 64, "stream spill");
        }
        self.core.store(spill_addr);
        self.smt.free(victim)?;
        self.scache.release(idx);
        self.spilled
            .insert(victim, SpilledStream { key_addr, val_addr, priority, ready_at, payload });
        Ok(())
    }

    /// SMT lookup at an ISA *use* site. On a miss, cross-checks the
    /// sanitizer's freed history: using a previously-freed stream is the
    /// `SC-S303` use-after-free hazard, while a never-defined ID stays a
    /// plain architectural exception with no sanitizer finding.
    fn lookup_use(&mut self, sid: StreamId) -> Result<usize, StreamException> {
        match self.smt.lookup(sid) {
            Ok(idx) => Ok(idx),
            Err(e) => {
                if let Some(san) = &mut self.san {
                    san.check_use_unmapped(sid);
                }
                Err(e)
            }
        }
    }

    /// Make `sid` SMT-resident if it currently lives in the spill region.
    fn ensure_resident(
        &mut self,
        sid: StreamId,
        protect: &[StreamId],
    ) -> Result<(), StreamException> {
        if self.virtualize && self.smt.lookup(sid).is_err() && self.spilled.contains_key(&sid) {
            self.swap_in(sid, protect)?;
        }
        Ok(())
    }

    /// The configuration in use.
    pub fn config(&self) -> &SparseCoreConfig {
        &self.cfg
    }

    /// The scalar core (for reading cycles and statistics).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// The scalar core, mutably: workloads narrate loop control, address
    /// arithmetic and scalar loads here.
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Engine statistics (SU utilization, stream lengths, ...).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Mutable statistics access (the GPM layer adds Figure 14 samples).
    pub fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    /// `S_LD_GFR`: load the graph format registers.
    pub fn s_ld_gfr(&mut self, gfr: GfrSet) {
        self.core.ops(1);
        self.trace_instr(|| sc_isa::Instr::SLdGfr { gfr });
        self.gfr = gfr;
    }

    /// The current GFR contents.
    pub fn gfr(&self) -> GfrSet {
        self.gfr
    }

    /// `S_READ`: initialize a key stream from memory.
    ///
    /// `key_addr` is the simulated byte address of `keys[0]`; `keys` is the
    /// actual (sorted) content, which the engine copies for functional
    /// execution.
    ///
    /// # Errors
    ///
    /// [`StreamException::OutOfStreamRegisters`] if no register can be
    /// allocated.
    pub fn s_read(
        &mut self,
        key_addr: u64,
        keys: &[Key],
        sid: StreamId,
        priority: Priority,
    ) -> Result<(), StreamException> {
        self.read_common(key_addr, keys, None, None, sid, priority)
    }

    /// `S_VREAD`: initialize a (key, value) stream. Values are fetched
    /// lazily through the normal hierarchy when a value computation runs.
    ///
    /// # Errors
    ///
    /// [`StreamException::OutOfStreamRegisters`] if no register can be
    /// allocated.
    pub fn s_vread(
        &mut self,
        key_addr: u64,
        keys: &[Key],
        val_addr: u64,
        vals: &[Value],
        sid: StreamId,
        priority: Priority,
    ) -> Result<(), StreamException> {
        assert_eq!(keys.len(), vals.len(), "key/value length mismatch");
        self.read_common(key_addr, keys, Some(val_addr), Some(vals), sid, priority)
    }

    fn read_common(
        &mut self,
        key_addr: u64,
        keys: &[Key],
        val_addr: Option<u64>,
        vals: Option<&[Value]>,
        sid: StreamId,
        priority: Priority,
    ) -> Result<(), StreamException> {
        // Decode/dispatch plus the operand-setup moves visible in the
        // paper's Figure 4(b) listings (start address, length, ID,
        // priority, value address move into GPRs before the instruction).
        let t0 = self.core.cycles();
        self.core.ops(1 + if val_addr.is_some() { 5 } else { 4 });
        self.stats.reads += 1;
        self.stats.lengths.record(keys.len() as u32);
        self.probe.set_now(t0);

        // Scratchpad reuse check (Section 4.2).
        let (source, ready_at, lines_fetched) = if self.scratchpad.lookup(key_addr).is_some() {
            self.stats.scratchpad_hits += 1;
            (StreamSource::Scratchpad, self.core.cycles() + self.cfg.scratchpad.latency, 0)
        } else {
            self.stats.scratchpad_misses += 1;
            if priority.0 > 0 {
                self.scratchpad.admit(key_addr, keys.len() as u64 * 4, priority.0);
            }
            (StreamSource::Memory, 0, 0) // ready_at fixed below
        };

        // Section 4.4 scenario 2: if the new stream's key region overlaps
        // an active *output* stream's region, the read depends on that
        // producer — it must see the produced data. Conservative range
        // check, as the paper describes.
        let new_lo = key_addr;
        let new_hi = key_addr + keys.len() as u64 * 4;
        let mut overlap_ready = 0u64;
        for (ridx, reg) in self.smt.active_regs() {
            if self.data[ridx].as_ref().is_some_and(|p| p.source == StreamSource::Output) {
                let lo = reg.key_addr;
                let hi = reg.key_addr + u64::from(reg.len) * 4;
                if new_lo < hi && lo < new_hi {
                    overlap_ready = overlap_ready.max(reg.ready_at);
                }
            }
        }

        self.trace_instr(|| match val_addr {
            None => sc_isa::Instr::SRead { key_addr, len: keys.len() as u32, sid, priority },
            Some(va) => sc_isa::Instr::SVRead {
                key_addr,
                len: keys.len() as u32,
                sid,
                val_addr: va,
                priority,
            },
        });
        let idx = match self.smt.define(sid, key_addr, val_addr, keys.len() as u32, priority, 0) {
            Ok(idx) => idx,
            Err(StreamException::OutOfStreamRegisters) if self.virtualize => {
                self.spill_victim(&[])?;
                self.smt.define(sid, key_addr, val_addr, keys.len() as u32, priority, 0)?
            }
            Err(e) => return Err(e),
        };
        if let Some(san) = &mut self.san {
            san.note_define(sid);
        }
        self.scache.bind(idx, key_addr, keys.len());

        let (ready_at, lines_fetched) = if source == StreamSource::Memory {
            // Prefetch the first window (S_READ triggers the fetch).
            let lines = self.refill_window(idx, 0);
            let fetched = lines.len() as u64;
            let mut warmup = 0;
            for a in lines {
                warmup = warmup.max(self.core.mem_mut().load_bypassing_l1(a).latency);
            }
            (self.core.cycles() + warmup, fetched)
        } else {
            (ready_at, lines_fetched)
        };
        self.smt.get_mut(sid)?.ready_at = ready_at.max(overlap_ready);

        self.data[idx] = Some(StreamPayload {
            keys: keys.to_vec(),
            vals: vals.map(<[f64]>::to_vec),
            dense: vals.is_some() && su::is_dense(keys),
            source,
            lines_fetched,
        });
        if self.probe.tracing() {
            let name = if val_addr.is_some() { "S_VREAD" } else { "S_READ" };
            self.probe.span(
                Track::Engine,
                name,
                t0,
                self.core.cycles(),
                &[("sid", u64::from(sid.raw())), ("len", keys.len() as u64)],
            );
        }
        Ok(())
    }

    /// `S_FREE`: release a stream.
    ///
    /// # Errors
    ///
    /// [`StreamException::FreeUnmapped`] if the ID has no live mapping.
    pub fn s_free(&mut self, sid: StreamId) -> Result<(), StreamException> {
        self.core.ops(1);
        self.stats.frees += 1;
        if self.probe.tracing() {
            let now = self.core.cycles();
            self.probe.set_now(now);
            self.probe.instant_at(Track::Engine, "S_FREE", now, &[("sid", u64::from(sid.raw()))]);
        }
        self.trace_instr(|| sc_isa::Instr::SFree { sid });
        if self.virtualize && self.spilled.remove(&sid).is_some() {
            if let Some(san) = &mut self.san {
                san.note_free(sid);
            }
            return Ok(()); // freeing a spilled stream releases its region
        }
        let idx = match self.smt.free(sid) {
            Ok(idx) => idx,
            Err(e) => {
                // No live mapping: a re-free of an already-freed stream
                // is the SC-S301 hazard; a free of a never-defined ID is
                // only the architectural exception.
                if let Some(san) = &mut self.san {
                    san.check_free_unmapped(sid);
                }
                return Err(e);
            }
        };
        if let Some(san) = &mut self.san {
            san.note_free(sid);
        }
        // Double-free check (SC-S301): the SMT mapping was live, so the
        // register must still hold its functional payload; a missing
        // payload means some path already tore the stream down.
        if let Some(san) = &mut self.san {
            if self.data[idx].is_none() {
                san.record(
                    Diagnostic::sanitizer(
                        LintCode::SanDoubleFree,
                        format!(
                            "S_FREE of stream {}: register {idx} was mapped but its \
                             payload is already gone",
                            sid.raw()
                        ),
                    )
                    .with_sid(sid),
                );
            }
        }
        self.scache.release(idx);
        self.data[idx] = None;
        Ok(())
    }

    /// `S_FETCH`: read the element at `offset`; returns [`EOS`] past the
    /// end. Blocks the core until the stream's data is ready (for output
    /// streams, until the producing operation finishes).
    ///
    /// # Errors
    ///
    /// [`StreamException::UseUndefined`] if the ID has no live mapping.
    pub fn s_fetch(&mut self, sid: StreamId, offset: u32) -> Result<Key, StreamException> {
        self.core.ops(1);
        self.stats.fetches += 1;
        if self.probe.tracing() {
            let now = self.core.cycles();
            self.probe.set_now(now);
            let args = [("sid", u64::from(sid.raw())), ("offset", u64::from(offset))];
            self.probe.instant_at(Track::Engine, "S_FETCH", now, &args);
        }
        self.trace_instr(|| sc_isa::Instr::SFetch { sid, offset });
        self.ensure_resident(sid, &[sid])?;
        let idx = self.lookup_use(sid)?;
        let ready = self.smt.get(sid)?.ready_at;
        // A fetch that blocks on an output stream is waiting for the
        // producing SU to retire; blocking on any other stream is waiting
        // for its setup (the first S-Cache window, or the scratchpad).
        let wait_site = if self.data[idx].as_ref().is_some_and(|p| p.source == StreamSource::Output)
        {
            Site::SuRetire
        } else {
            Site::StreamSetup
        };
        let prev = self.core.set_stall_site(wait_site);
        self.core.wait_until(ready);
        let key = {
            let payload = self.data[idx].as_ref().expect("mapped stream has payload");
            payload.keys.get(offset as usize).copied()
        };
        let out = match key {
            Some(k) => {
                // Residency: a fetch outside the current S-Cache window
                // refills from L2.
                let lines = self.refill_window(idx, offset as usize);
                let mut extra = 0;
                for a in lines {
                    extra = extra.max(self.core.mem_mut().load_bypassing_l1(a).latency);
                }
                if extra > 0 {
                    // Distinguish the window fill from first-touch stream
                    // setup in the span log.
                    self.core.set_stall_site(Site::ScacheFill);
                    self.core.stall_memory(extra);
                }
                Ok(k)
            }
            None => Ok(EOS),
        };
        self.core.set_stall_site(prev);
        out
    }

    /// Snapshot of a stream's keys (test/debug convenience — timing-free).
    ///
    /// # Errors
    ///
    /// [`StreamException::UseUndefined`] if the ID has no live mapping.
    pub fn stream_keys(&self, sid: StreamId) -> Result<&[Key], StreamException> {
        let idx = self.smt.lookup(sid)?;
        Ok(&self.data[idx].as_ref().expect("payload").keys)
    }

    /// Snapshot of a stream's values, if it is a (key, value) stream.
    ///
    /// # Errors
    ///
    /// [`StreamException::UseUndefined`] if the ID has no live mapping.
    pub fn stream_values(&self, sid: StreamId) -> Result<Option<&[Value]>, StreamException> {
        let idx = self.smt.lookup(sid)?;
        Ok(self.data[idx].as_ref().expect("payload").vals.as_deref())
    }

    /// Length of a stream.
    ///
    /// # Errors
    ///
    /// [`StreamException::UseUndefined`] if the ID has no live mapping.
    pub fn stream_len(&self, sid: StreamId) -> Result<u32, StreamException> {
        Ok(self.smt.get(sid)?.len)
    }

    // ------------------------------------------------------------------
    // SU scheduling internals
    // ------------------------------------------------------------------

    /// Slide stream register `idx`'s S-Cache window to `key_idx` and count
    /// the refill; returns the lines to fetch from L2.
    fn refill_window(&mut self, idx: SregIdx, key_idx: usize) -> LineRuns {
        let lines = self.scache.refill_window(idx, key_idx);
        let n = lines.len() as u64;
        self.stats.scache_window_refills += u64::from(n > 0);
        self.stats.scache_refill_lines += n;
        lines
    }

    /// Charge line fetches for the consumed portion of a memory-sourced
    /// stream (beyond what was already fetched), returning the mean line
    /// latency used for the supply-rate model.
    fn charge_stream_lines(&mut self, idx: SregIdx, consumed: u64) -> f64 {
        let payload = self.data[idx].as_ref().expect("payload");
        if payload.source != StreamSource::Memory {
            // Scratchpad / S-Cache resident: SRAM-rate supply.
            return self.cfg.scratchpad.latency as f64;
        }
        let already = payload.lines_fetched;
        let key_addr = self.smt.reg(idx).key_addr;
        let line_bytes = self.cfg.core.mem.l2.line_bytes;
        let lines_needed = consumed.div_ceil(self.keys_per_line());
        let mut total = 0u64;
        let mut n = 0u64;
        for l in already..lines_needed {
            let r = self.core.mem_mut().load_bypassing_l1(key_addr + l * line_bytes);
            total += r.latency;
            n += 1;
        }
        if let Some(p) = self.data[idx].as_mut() {
            p.lines_fetched = p.lines_fetched.max(lines_needed);
        }
        if n == 0 {
            self.cfg.core.mem.l2.latency as f64
        } else {
            total as f64 / n as f64
        }
    }

    /// Pick the earliest-free SU and compute the op's completion time.
    /// Returns (start, done).
    fn schedule_su(
        &mut self,
        ready: Cycle,
        timing: &SuTiming,
        mem_rate: f64,
        value_cycles: Cycle,
    ) -> (Cycle, Cycle) {
        let (su, &free_at) =
            self.su_free_at.iter().enumerate().min_by_key(|(_, &t)| t).expect("at least one SU");
        let start = self.core.cycles().max(free_at);
        // Operand-arrival bubble: the SU sits idle until the operands'
        // first windows are resident (S-Cache fill from L2, or the
        // scratchpad's SRAM latency on a reuse hit). Back-to-back
        // operations on a busy SU hide it; a free SU pays it.
        let bubble = ready.saturating_sub(start);
        // Bandwidth share: SUs busy at `start` (including this one) split
        // the aggregate S-Cache + scratchpad bandwidth.
        let concurrency = self
            .su_free_at
            .iter()
            .filter(|&&t| t > start)
            .count()
            .saturating_add(1)
            .min(self.cfg.num_sus) as u64;
        let share = (self.cfg.stream_bandwidth / concurrency).max(1);
        let supply_rate = (share as f64).min(mem_rate).max(1.0 / 64.0);
        let supply_cycles = (timing.consumed_total() as f64 / supply_rate).ceil() as u64;
        // The SVPU attached to this SU bounds value-carrying operations:
        // one reduction or output value per cycle, and the value-fetch
        // rate the load queue sustains.
        let busy = timing.compare_cycles.max(supply_cycles).max(value_cycles);
        let done = start + bubble + busy;
        self.su_free_at[su] = done;
        self.stats.su_busy_cycles += busy;
        self.stats.elements_streamed += timing.consumed_total();
        self.stats.set_ops += 1;
        if self.probe.tracing() {
            self.probe.span(
                Track::Su(su),
                "su_op",
                start,
                done,
                &[("bubble", bubble), ("busy", busy), ("produced", timing.produced)],
            );
        }
        self.last_event = self.last_event.max(done);
        if let Some(san) = &mut self.san {
            san.check_su_event(ready, start, done);
            san.check_clock(self.last_event);
        }
        (start, done)
    }

    /// Stream keys carried by one memory line, from the hierarchy's
    /// configured L2 line size (the level that feeds the S-Cache). 16 for
    /// the paper's 64-byte lines and 4-byte keys.
    fn keys_per_line(&self) -> u64 {
        (self.cfg.core.mem.l2.line_bytes / self.cfg.scache.key_bytes).max(1)
    }

    /// Memory-side supply rate (elements/cycle) for one stream given its
    /// mean line latency: `prefetch_depth` line fills in flight, a line's
    /// worth of keys per fill.
    fn mem_rate(&self, mean_line_latency: f64) -> f64 {
        self.keys_per_line() as f64 * self.cfg.prefetch_depth as f64 / mean_line_latency.max(1.0)
    }

    /// The operand path of every two-stream set operation: dispatch
    /// (`uops` issue slots), trace recording, and both operands brought
    /// into the SMT. Returns the start cycle, both operands' registers and
    /// the cycle both are ready.
    fn operands(
        &mut self,
        uops: u64,
        instr: sc_isa::Instr,
        a: StreamId,
        b: StreamId,
    ) -> Result<(Cycle, [SregIdx; 2], Cycle), StreamException> {
        let t0 = self.core.cycles();
        self.probe.set_now(t0);
        self.core.ops(uops);
        self.trace_instr(|| instr);
        self.ensure_resident(a, &[a, b])?;
        self.ensure_resident(b, &[a, b])?;
        let idx = [self.lookup_use(a)?, self.lookup_use(b)?];
        let ready = self.smt.reg(idx[0]).ready_at.max(self.smt.reg(idx[1]).ready_at);
        Ok((t0, idx, ready))
    }

    /// Charge the key lines both operands consumed, A's then B's, and
    /// return the memory-side supply rate they sustain together.
    fn charge_operands(&mut self, [a, b]: [SregIdx; 2], timing: &SuTiming) -> f64 {
        let lat_a = self.charge_stream_lines(a, timing.consumed_a);
        let lat_b = self.charge_stream_lines(b, timing.consumed_b);
        self.mem_rate(lat_a) + self.mem_rate(lat_b)
    }

    /// The output path of every set operation with an output stream:
    /// allocate a region, bind `out` to it, ready at `done`, and write the
    /// keys back through its S-Cache slot. `S_VMERGE` passes its values
    /// too; they follow the key lines and stream back through the
    /// hierarchy a line at a time from the SVPU's buffer, not through core
    /// store uops. Returns the output length.
    fn write_output(
        &mut self,
        out: StreamId,
        keys: Vec<Key>,
        vals: Option<Vec<Value>>,
        done: Cycle,
    ) -> Result<u32, StreamException> {
        let n = keys.len() as u64;
        let out_addr = self.out_alloc;
        let key_bytes = ((n * 4) | 63) + 1;
        let val_out = vals.as_ref().map(|_| out_addr + key_bytes);
        // The sanitizer checks every byte written. For S_VMERGE that
        // reaches past its allocation for some lengths (DESIGN.md,
        // "Dense-operand seek").
        let (bytes, written, what) = match val_out {
            None => (key_bytes, out_addr + key_bytes, "output-stream writeback"),
            Some(v) => (((n * 12) | 63) + 1, v + n * 8, "value-merge writeback"),
        };
        self.out_alloc += bytes;
        if let Some(san) = &mut self.san {
            san.check_write(out_addr, written, what);
        }
        let idx = self.smt.define(out, out_addr, val_out, n as u32, Priority(0), done)?;
        if let Some(san) = &mut self.san {
            san.note_define(out);
        }
        self.scache.bind_output(idx, out_addr);
        for line in self.scache.push_output_keys(idx, keys.len()) {
            self.core.mem_mut().writeback_to_l2(line);
        }
        self.scache.seal_output(idx);
        if let Some(v) = val_out {
            for l in 0..(n * 8).div_ceil(64) {
                self.core.mem_mut().store(v + l * 64);
            }
        }
        self.stats.lengths.record(n as u32);
        self.data[idx] = Some(StreamPayload {
            dense: vals.is_some() && su::is_dense(&keys),
            keys,
            vals,
            source: StreamSource::Output,
            lines_fetched: 0,
        });
        Ok(n as u32)
    }

    /// Common path of the six key-stream set operations. Returns the
    /// produced count.
    fn set_op(
        &mut self,
        op: SuOp,
        a: StreamId,
        b: StreamId,
        out: Option<StreamId>,
        bound: Bound,
    ) -> Result<u64, StreamException> {
        let instr = match (op, out) {
            (SuOp::Intersect, Some(out)) => sc_isa::Instr::SInter { a, b, out, bound },
            (SuOp::Intersect, None) => sc_isa::Instr::SInterC { a, b, bound },
            (SuOp::Subtract, Some(out)) => sc_isa::Instr::SSub { a, b, out, bound },
            (SuOp::Subtract, None) => sc_isa::Instr::SSubC { a, b, bound },
            (SuOp::Merge, Some(out)) => sc_isa::Instr::SMerge { a, b, out },
            (SuOp::Merge, None) => sc_isa::Instr::SMergeC { a, b },
        };
        // Dispatch plus the operand moves (ids, bound, dest).
        let (t0, idx, ready) = self.operands(4, instr, a, b)?;

        // Datapath-cycle replay and functional output in one pass
        // (immutable phase).
        let mut result = out.map(|_| Vec::new());
        let timing = {
            let [ka, kb] = idx.map(|i| &self.data[i].as_ref().expect("payload").keys);
            execute(op, ka, kb, bound, self.cfg.su_buffer, result.as_mut())
        };
        let mem_rate = self.charge_operands(idx, &timing);
        let (_start, done) = self.schedule_su(ready, &timing, mem_rate, 0);
        if let (Some(out), Some(keys)) = (out, result) {
            self.write_output(out, keys, None, done)?;
        }
        let args = [("produced", timing.produced), ("done", done)];
        self.probe.span(Track::Engine, instr.mnemonic(), t0, self.core.cycles(), &args);
        Ok(timing.produced)
    }

    /// `S_INTER`: bounded intersection into output stream `out`.
    ///
    /// # Errors
    ///
    /// [`StreamException`] on undefined operands or register exhaustion.
    pub fn s_inter(
        &mut self,
        a: StreamId,
        b: StreamId,
        out: StreamId,
        bound: Bound,
    ) -> Result<u32, StreamException> {
        self.set_op(SuOp::Intersect, a, b, Some(out), bound).map(|n| n as u32)
    }

    /// `S_INTER.C`: bounded intersection count.
    ///
    /// # Errors
    ///
    /// [`StreamException::UseUndefined`] on undefined operands.
    pub fn s_inter_c(
        &mut self,
        a: StreamId,
        b: StreamId,
        bound: Bound,
    ) -> Result<u64, StreamException> {
        self.set_op(SuOp::Intersect, a, b, None, bound)
    }

    /// `S_SUB`: bounded subtraction (`a \ b`) into output stream `out`.
    ///
    /// # Errors
    ///
    /// [`StreamException`] on undefined operands or register exhaustion.
    pub fn s_sub(
        &mut self,
        a: StreamId,
        b: StreamId,
        out: StreamId,
        bound: Bound,
    ) -> Result<u32, StreamException> {
        self.set_op(SuOp::Subtract, a, b, Some(out), bound).map(|n| n as u32)
    }

    /// `S_SUB.C`: bounded subtraction count.
    ///
    /// # Errors
    ///
    /// [`StreamException::UseUndefined`] on undefined operands.
    pub fn s_sub_c(
        &mut self,
        a: StreamId,
        b: StreamId,
        bound: Bound,
    ) -> Result<u64, StreamException> {
        self.set_op(SuOp::Subtract, a, b, None, bound)
    }

    /// `S_MERGE`: union into output stream `out`.
    ///
    /// # Errors
    ///
    /// [`StreamException`] on undefined operands or register exhaustion.
    pub fn s_merge(
        &mut self,
        a: StreamId,
        b: StreamId,
        out: StreamId,
    ) -> Result<u32, StreamException> {
        self.set_op(SuOp::Merge, a, b, Some(out), Bound::none()).map(|n| n as u32)
    }

    /// `S_MERGE.C`: union count.
    ///
    /// # Errors
    ///
    /// [`StreamException::UseUndefined`] on undefined operands.
    pub fn s_merge_c(&mut self, a: StreamId, b: StreamId) -> Result<u64, StreamException> {
        self.set_op(SuOp::Merge, a, b, None, Bound::none())
    }

    /// The memory effects and SU schedule of a value instruction, after
    /// its walk: both operands' consumed key lines, then the value loads
    /// at `loads` in order, then the SU. VA_gen issues the value loads
    /// through the load queue *in hardware* (Section 4.5): the
    /// instruction holds a single ROB entry and the core issues nothing
    /// per value. The SVPU pipeline is bounded by one reduction or output
    /// value per cycle and by the value-supply rate the load queue
    /// sustains. Returns the cycle the SU finishes.
    fn value_op(
        &mut self,
        idx: [SregIdx; 2],
        ready: Cycle,
        timing: &SuTiming,
        loads: impl Iterator<Item = u64>,
    ) -> Cycle {
        let mem_rate = self.charge_operands(idx, timing);
        let mut lat_sum = 0u64;
        for addr in loads {
            lat_sum += self.core.mem_mut().load(addr).latency;
            self.stats.value_loads += 1;
        }
        let lq = u64::from(self.cfg.core.load_queue); // >= 1: `Core::new` asserts it
        let value_cycles = timing.produced.max(lat_sum.div_ceil(lq));
        self.schedule_su(ready, timing, mem_rate, value_cycles).1
    }

    /// `S_VINTER`: intersect the keys of two (key, value) streams and
    /// reduce the matched values with `op`. The value fetches go through
    /// the normal memory hierarchy via the load queue (VA_gen + vBuf +
    /// SVPU, paper Section 4.5).
    ///
    /// # Errors
    ///
    /// [`StreamException::NotKeyValueStream`] if an input carries no
    /// values; [`StreamException::UseUndefined`] on undefined operands.
    pub fn s_vinter(
        &mut self,
        a: StreamId,
        b: StreamId,
        op: ValueOp,
    ) -> Result<Value, StreamException> {
        self.stats.value_ops += 1;
        let (t0, idx, ready) = self.operands(1, sc_isa::Instr::SVInter { a, b, op }, a, b)?;
        let (va, oa) = value_operand(&self.smt, &self.data, a, idx[0])?;
        let (vb, ob) = value_operand(&self.smt, &self.data, b, idx[1])?;
        // A *dense* operand lets the SU seek instead of scan: key k of a
        // dense stream lives at offset k − lo, so the S-Cache window
        // slides straight to the other operand's head (the same
        // window-slide mechanism S_FETCH uses).
        let mut matches = std::mem::take(&mut self.matches);
        let (timing, acc) = su::vinter(oa, ob, op, self.cfg.su_buffer, &mut matches);
        // Per match in key order, A's value and then B's.
        let loads = matches[..timing.produced as usize]
            .iter()
            .flat_map(|&(i, j)| [va + u64::from(i) * 8, vb + u64::from(j) * 8]);
        let done = self.value_op(idx, ready, &timing, loads);
        self.matches = matches;
        let args = [("matches", timing.produced), ("done", done)];
        self.probe.span(Track::Engine, "S_VINTER", t0, self.core.cycles(), &args);
        Ok(acc)
    }

    /// `S_VMERGE`: merge two (key, value) streams with per-input scales
    /// into output stream `out` (`out[k] = scale_a*a[k] + scale_b*b[k]`).
    ///
    /// # Errors
    ///
    /// [`StreamException::NotKeyValueStream`] if an input carries no
    /// values; [`StreamException`] on undefined operands or register
    /// exhaustion.
    pub fn s_vmerge(
        &mut self,
        scale_a: Value,
        scale_b: Value,
        a: StreamId,
        b: StreamId,
        out: StreamId,
    ) -> Result<u32, StreamException> {
        self.stats.value_ops += 1;
        let instr = sc_isa::Instr::SVMerge { scale_a, scale_b, a, b, out };
        let (t0, idx, ready) = self.operands(1, instr, a, b)?;
        let (va, oa) = value_operand(&self.smt, &self.data, a, idx[0])?;
        let (vb, ob) = value_operand(&self.smt, &self.data, b, idx[1])?;
        let (len_a, len_b) = (oa.keys.len() as u64, ob.keys.len() as u64);
        let (timing, keys, vals) = su::vmerge(scale_a, oa, scale_b, ob, self.cfg.su_buffer);
        // Merge consumes both streams, so every value is loaded: all of
        // A's, then all of B's.
        let loads = (0..len_a).map(|i| va + i * 8).chain((0..len_b).map(|j| vb + j * 8));
        let done = self.value_op(idx, ready, &timing, loads);
        let produced = self.write_output(out, keys, Some(vals), done)?;
        let args = [("produced", u64::from(produced)), ("done", done)];
        self.probe.span(Track::Engine, "S_VMERGE", t0, self.core.cycles(), &args);
        Ok(produced)
    }

    /// `S_NESTINTER`: for each key `s_i` of stream `sid`, intersect the
    /// stream with `s_i`'s own edge list bounded by `s_i`, and accumulate
    /// the counts (paper Sections 3.3 and 4.6). The dependent edge lists
    /// are resolved through `source` (the GFRs in hardware). Returns the
    /// accumulated count.
    ///
    /// # Errors
    ///
    /// [`StreamException::UseUndefined`] if `sid` has no live mapping.
    pub fn s_nestinter<S: NestedSource>(
        &mut self,
        sid: StreamId,
        source: &S,
    ) -> Result<u64, StreamException> {
        let t0 = self.core.cycles();
        self.probe.set_now(t0);
        self.core.ops(1); // the S_NESTINTER instruction itself
        self.stats.nested += 1;
        self.trace_instr(|| sc_isa::Instr::SNestInter { sid });
        self.ensure_resident(sid, &[sid])?;
        let s_idx = self.lookup_use(sid)?;
        let s_ready = self.smt.get(sid)?.ready_at;
        let s_keys: Vec<Key> = self.data[s_idx].as_ref().expect("payload").keys.clone();
        // The whole input stream is consumed repeatedly; charge its lines
        // once (it stays resident in S-Cache/scratchpad across steps).
        let s_lat = self.charge_stream_lines(s_idx, s_keys.len() as u64);

        let mut total = 0u64;
        // In-flight nested steps bounded by the translation buffer: each
        // step takes 4 entries (S_READ, S_INTER.C, S_FREE, ADD).
        let max_inflight = (self.cfg.translation_buffer / 4).max(1);
        let mut inflight: VecDeque<Cycle> = VecDeque::with_capacity(max_inflight);

        // Everything the core itself stalls on inside this loop — the
        // stream-info loads and the translation-buffer back-pressure — is
        // translator work (paper Section 4.6), not a generic memory stall.
        let prev = self.core.set_stall_site(Site::Translator);
        for &s_i in &s_keys {
            // Translator loads the stream info (vertex array + CSR offset)
            // through the load queue.
            self.core.load(self.gfr.gfr0 + u64::from(s_i) * 8);
            self.core.load(self.gfr.gfr2 + u64::from(s_i) * 4);

            // Translation-buffer back-pressure.
            if inflight.len() >= max_inflight {
                let oldest = inflight.pop_front().expect("non-empty");
                self.core.wait_until(oldest.min(self.last_event));
            }

            let nkeys = source.keys(s_i);
            let naddr = source.key_addr(s_i);
            let bound = Bound::below(s_i);
            let timing = simulate(SuOp::Intersect, &s_keys, nkeys, bound, self.cfg.su_buffer);
            total += timing.produced;
            self.stats.lengths.record(nkeys.len() as u32);

            // Charge the dependent stream's consumed lines (only the
            // bounded prefix is fetched, thanks to the CSR offset).
            let line_bytes = self.cfg.core.mem.l2.line_bytes;
            let lines = timing.consumed_b.div_ceil(self.keys_per_line());
            let mut lat_sum = 0u64;
            for l in 0..lines {
                lat_sum += self.core.mem_mut().load_bypassing_l1(naddr + l * line_bytes).latency;
            }
            let lat_n = if lines == 0 {
                self.cfg.core.mem.l2.latency as f64
            } else {
                lat_sum as f64 / lines as f64
            };
            let mem_rate = self.mem_rate(s_lat) + self.mem_rate(lat_n);
            let (_start, done) = self.schedule_su(s_ready, &timing, mem_rate, 0);
            inflight.push_back(done);
            self.core.ops(1); // the accumulate micro-op
        }
        self.core.set_stall_site(prev);
        if self.probe.tracing() {
            self.probe.span(
                Track::Engine,
                "S_NESTINTER",
                t0,
                self.core.cycles(),
                &[("steps", s_keys.len() as u64), ("total", total)],
            );
        }
        Ok(total)
    }

    /// Iterate a stream's keys through repeated `S_FETCH` (the paper's
    /// "typically, the offset is incremented to traverse all elements"
    /// pattern), charging each fetch. Stops at [`EOS`].
    ///
    /// # Errors
    ///
    /// [`StreamException::UseUndefined`] if the ID has no live mapping.
    ///
    /// # Example
    ///
    /// ```
    /// use sparsecore::{Engine, SparseCoreConfig};
    /// use sc_isa::{Priority, StreamId};
    ///
    /// let mut e = Engine::new(SparseCoreConfig::paper());
    /// e.s_read(0x1000, &[2, 4, 6], StreamId::new(0), Priority(0))?;
    /// let keys = e.fetch_all(StreamId::new(0))?;
    /// assert_eq!(keys, vec![2, 4, 6]);
    /// # Ok::<(), sc_isa::StreamException>(())
    /// ```
    pub fn fetch_all(&mut self, sid: StreamId) -> Result<Vec<Key>, StreamException> {
        let mut out = Vec::new();
        let mut offset = 0u32;
        loop {
            let k = self.s_fetch(sid, offset)?;
            if k == EOS {
                return Ok(out);
            }
            out.push(k);
            offset += 1;
        }
    }

    /// Drain all outstanding stream work and return the total cycle count
    /// (the maximum of the core clock and the last SU/SVPU completion).
    /// Also adds to the attached probe's registry what each engine
    /// counter gained since the last export.
    pub fn finish(&mut self) -> Cycle {
        let t0 = self.core.cycles();
        // Draining means waiting for the last SU completion: the core is
        // blocked on outstanding comparisons, not on memory.
        let prev = self.core.set_stall_site(Site::Drain);
        self.core.wait_until(self.last_event);
        self.core.set_stall_site(prev);
        let t1 = self.core.cycles();
        if self.probe.tracing() && t1 > t0 {
            self.probe.span(Track::Engine, "drain", t0, t1, &[]);
        }
        self.probe.set_now(t1);
        self.export_counters();
        t1
    }

    /// Total cycles so far without draining (monotonic, may lag
    /// [`Engine::finish`]).
    pub fn cycles(&self) -> Cycle {
        self.core.cycles().max(self.last_event)
    }

    /// Cycle breakdown in the paper's Figure 10 buckets: the core's cache /
    /// mispredict / other-compute buckets plus SU busy cycles as
    /// "intersection". (SU work overlaps scalar work, so the buckets are
    /// reported as fractions of their sum, exactly as the paper's stacked
    /// bars are.)
    pub fn breakdown(&self) -> sc_cpu::Breakdown {
        let mut b = self.core.breakdown();
        b.intersection += self.stats.su_busy_cycles;
        b
    }

    // ------------------------------------------------------------------
    // Invariant sanitizer (see crate::sanitize and the sc-san crate)
    // ------------------------------------------------------------------

    /// Is the invariant sanitizer attached to this engine? Controlled by
    /// [`SparseCoreConfig::sanitize`].
    pub fn sanitize_enabled(&self) -> bool {
        self.san.is_some()
    }

    /// Declare the simulated byte range `[lo, hi)` read-only for this
    /// engine: any simulated write into it is reported as `SC-S310`
    /// (Section 5.1 — parallel cores share the graph without coherence).
    /// No-op when the sanitizer is off.
    pub fn protect_range(&mut self, lo: u64, hi: u64) {
        if let Some(san) = &mut self.san {
            san.protect(lo, hi);
        }
    }

    /// Run the cross-state audit and drain every violation recorded so
    /// far into a report. Empty when the sanitizer is off — and on a
    /// healthy engine.
    pub fn sanitizer_report(&mut self) -> sc_lint::Report {
        self.run_sanitizer_audit();
        let diags = self.san.as_mut().map(|s| s.take()).unwrap_or_default();
        sc_lint::Report::new(diags)
    }

    /// Like [`Engine::sanitizer_report`], but additionally requires the
    /// stream-register file to be fully drained: any still-mapped or
    /// still-spilled stream is a leak (`SC-S302`). Call at the end of a
    /// workload, after its final `S_FREE`s.
    pub fn sanitizer_final_report(&mut self) -> sc_lint::Report {
        if let Some(san) = &mut self.san {
            let live: Vec<StreamId> = self.smt.active_regs().map(|(_, r)| r.sid).collect();
            let mut spilled: Vec<StreamId> = self.spilled.keys().copied().collect();
            spilled.sort_by_key(|s| s.raw());
            for sid in live {
                san.record(
                    Diagnostic::sanitizer(
                        LintCode::SanStreamLeak,
                        format!("stream {} is still mapped at the end of the run", sid.raw()),
                    )
                    .with_sid(sid),
                );
            }
            for sid in spilled {
                san.record(
                    Diagnostic::sanitizer(
                        LintCode::SanStreamLeak,
                        format!(
                            "stream {} is still spilled to the virtualization \
                             region at the end of the run",
                            sid.raw()
                        ),
                    )
                    .with_sid(sid),
                );
            }
        }
        self.sanitizer_report()
    }

    /// Cross-check SMT, payloads, S-Cache bindings, the memory-substrate
    /// audits and the statistics counters, recording violations into the
    /// sanitizer.
    fn run_sanitizer_audit(&mut self) {
        if self.san.is_none() {
            return;
        }
        let mut diags: Vec<Diagnostic> = Vec::new();
        // SMT <-> payload <-> S-Cache consistency, register by register.
        let nregs = self.data.len();
        let mut active: Vec<Option<(StreamId, u32)>> = vec![None; nregs];
        for (idx, reg) in self.smt.active_regs() {
            active[idx] = Some((reg.sid, reg.len));
        }
        for (idx, entry) in active.iter().enumerate() {
            match *entry {
                Some((sid, len)) => {
                    match self.data[idx].as_ref() {
                        None => diags.push(
                            Diagnostic::sanitizer(
                                LintCode::SanUseAfterFree,
                                format!(
                                    "stream {} is SMT-active but register {idx} \
                                     holds no payload",
                                    sid.raw()
                                ),
                            )
                            .with_sid(sid),
                        ),
                        Some(p) if p.keys.len() as u32 != len => diags.push(
                            Diagnostic::sanitizer(
                                LintCode::SanUseAfterFree,
                                format!(
                                    "stream {}: payload holds {} keys but the SMT \
                                     entry says {len}",
                                    sid.raw(),
                                    p.keys.len()
                                ),
                            )
                            .with_sid(sid),
                        ),
                        Some(_) => {}
                    }
                    if !self.scache.is_bound(idx) {
                        diags.push(
                            Diagnostic::sanitizer(
                                LintCode::SanScacheSmtDesync,
                                format!(
                                    "stream {} is SMT-active but S-Cache slot \
                                     {idx} is unbound",
                                    sid.raw()
                                ),
                            )
                            .with_sid(sid),
                        );
                    }
                }
                None => {
                    if self.data[idx].is_some() {
                        diags.push(Diagnostic::sanitizer(
                            LintCode::SanUseAfterFree,
                            format!("register {idx} holds a payload but no SMT entry maps it"),
                        ));
                    }
                    if self.scache.is_bound(idx) {
                        diags.push(Diagnostic::sanitizer(
                            LintCode::SanScacheSmtDesync,
                            format!("S-Cache slot {idx} is bound but no SMT entry maps it"),
                        ));
                    }
                }
            }
        }
        // Memory-substrate self-audits, mapped onto their SC-S3xx codes.
        for v in self.scache.audit() {
            diags.push(Diagnostic::sanitizer(audit_code(v.kind), v.message));
        }
        for v in self.scratchpad.audit() {
            diags.push(Diagnostic::sanitizer(audit_code(v.kind), v.message));
        }
        for v in self.core.mem().audit() {
            diags.push(Diagnostic::sanitizer(audit_code(v.kind), v.message));
        }
        // Statistics conservation (SC-S313): every S_READ/S_VREAD does
        // exactly one scratchpad lookup, and the engine's counters must
        // agree with the scratchpad's own.
        let checks = [
            ("scratchpad hits", self.scratchpad.hits, self.stats.scratchpad_hits),
            ("scratchpad misses", self.scratchpad.misses, self.stats.scratchpad_misses),
            ("stream reads", self.scratchpad.hits + self.scratchpad.misses, self.stats.reads),
        ];
        for (what, model, stat) in checks {
            if model != stat {
                diags.push(Diagnostic::sanitizer(
                    LintCode::SanStatsConservation,
                    format!("{what}: model observed {model} but engine stats say {stat}"),
                ));
            }
        }
        let san = self.san.as_mut().expect("checked");
        for d in diags {
            san.record(d);
        }
    }

    /// Mutation hook: drop a mapped stream's payload while leaving its
    /// SMT entry live — the model-level use-after-free/double-free bug
    /// class behind `SC-S301`/`SC-S303`. Test-only.
    #[doc(hidden)]
    pub fn sabotage_drop_payload(&mut self, sid: StreamId) {
        if let Ok(idx) = self.smt.lookup(sid) {
            self.data[idx] = None;
        }
    }

    /// Mutation hook: rewind the engine's latest-event clock to zero and
    /// re-observe it, reproducing a non-monotone completion-time bug
    /// (`SC-S305`). Test-only.
    #[doc(hidden)]
    pub fn sabotage_rewind_clock(&mut self) {
        self.last_event = 0;
        if let Some(san) = &mut self.san {
            san.check_clock(self.last_event);
        }
    }

    /// Mutation hook: passthrough to
    /// [`StreamCacheStorage::sabotage_retain_pending`] on slot 0 — the
    /// missed-writeback bug class behind `SC-S308`. Test-only.
    #[doc(hidden)]
    pub fn scache_sabotage_retain_pending(&mut self) {
        self.scache.sabotage_retain_pending(0);
    }

    /// Mutation hook: passthrough to
    /// [`Scratchpad::sabotage_leak_bytes`] — the accounting-drift bug
    /// class behind `SC-S312`. Test-only.
    #[doc(hidden)]
    pub fn scratchpad_sabotage_leak_bytes(&mut self, n: u64) {
        self.scratchpad.sabotage_leak_bytes(n);
    }

    /// Mutation hook: bind the last S-Cache slot with no SMT entry
    /// backing it — the binding-leak bug class behind `SC-S309`.
    /// Test-only.
    #[doc(hidden)]
    pub fn sabotage_bind_ghost_slot(&mut self) {
        let idx = self.cfg.num_stream_registers() - 1;
        self.scache.bind(idx, 0xDEAD_0000, 16);
    }

    /// Mutation hook: point the output-stream bump allocator at an
    /// arbitrary address — the misdirected-writeback bug class behind
    /// `SC-S310` when the target lies in a protected range. Test-only.
    #[doc(hidden)]
    pub fn sabotage_redirect_out_alloc(&mut self, addr: u64) {
        self.out_alloc = addr;
    }

    /// Mutation hook: make the next rollback skip its trace restore,
    /// reproducing the squashed-micro-ops-left-in-trace drift behind
    /// `SC-S311`. Test-only.
    #[doc(hidden)]
    pub fn sabotage_skip_trace_restore(&mut self) {
        if let Some(san) = &mut self.san {
            san.skip_trace_restore = true;
        }
    }

    /// Mutation hook: feed one synthetic SU completion event through the
    /// causality checker (`SC-S304`) as if `schedule_su` had produced it.
    /// Test-only.
    #[doc(hidden)]
    pub fn san_observe_su_event(&mut self, ready: Cycle, start: Cycle, done: Cycle) {
        if let Some(san) = &mut self.san {
            san.check_su_event(ready, start, done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u32) -> StreamId {
        StreamId::new(n)
    }

    fn engine() -> Engine {
        Engine::new(SparseCoreConfig::tiny())
    }

    fn read(e: &mut Engine, n: u32, keys: &[Key]) {
        e.s_read(0x10_0000 + n as u64 * 0x1000, keys, sid(n), Priority(0)).unwrap();
    }

    #[test]
    fn inter_count_functional() {
        let mut e = engine();
        read(&mut e, 0, &[1, 3, 5, 7]);
        read(&mut e, 1, &[3, 4, 7, 9]);
        assert_eq!(e.s_inter_c(sid(0), sid(1), Bound::none()).unwrap(), 2);
        assert_eq!(e.s_inter_c(sid(0), sid(1), Bound::below(7)).unwrap(), 1);
    }

    #[test]
    fn inter_output_stream_usable() {
        let mut e = engine();
        read(&mut e, 0, &[1, 3, 5, 7]);
        read(&mut e, 1, &[3, 5, 9]);
        let n = e.s_inter(sid(0), sid(1), sid(2), Bound::none()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(e.stream_keys(sid(2)).unwrap(), &[3, 5]);
        // The output stream works as an operand.
        read(&mut e, 3, &[5]);
        assert_eq!(e.s_inter_c(sid(2), sid(3), Bound::none()).unwrap(), 1);
        // And can be fetched element-wise, with EOS past the end.
        assert_eq!(e.s_fetch(sid(2), 0).unwrap(), 3);
        assert_eq!(e.s_fetch(sid(2), 1).unwrap(), 5);
        assert_eq!(e.s_fetch(sid(2), 2).unwrap(), EOS);
    }

    #[test]
    fn sub_and_merge() {
        let mut e = engine();
        read(&mut e, 0, &[1, 2, 3, 4]);
        read(&mut e, 1, &[2, 4]);
        e.s_sub(sid(0), sid(1), sid(2), Bound::none()).unwrap();
        assert_eq!(e.stream_keys(sid(2)).unwrap(), &[1, 3]);
        e.s_merge(sid(1), sid(2), sid(3)).unwrap();
        assert_eq!(e.stream_keys(sid(3)).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(e.s_merge_c(sid(0), sid(1)).unwrap(), 4);
        assert_eq!(e.s_sub_c(sid(0), sid(1), Bound::below(4)).unwrap(), 2);
    }

    #[test]
    fn free_then_use_is_exception() {
        let mut e = engine();
        read(&mut e, 0, &[1]);
        e.s_free(sid(0)).unwrap();
        assert_eq!(
            e.s_inter_c(sid(0), sid(0), Bound::none()),
            Err(StreamException::UseUndefined(sid(0)))
        );
        assert_eq!(e.s_free(sid(0)), Err(StreamException::FreeUnmapped(sid(0))));
    }

    #[test]
    fn vinter_dot_product_with_exception_paths() {
        let mut e = engine();
        e.s_vread(0x1000, &[1, 3, 7], 0x9000, &[45.0, 21.0, 13.0], sid(0), Priority(0)).unwrap();
        e.s_vread(0x2000, &[2, 5, 7], 0xA000, &[14.0, 36.0, 2.0], sid(1), Priority(0)).unwrap();
        let acc = e.s_vinter(sid(0), sid(1), ValueOp::Mac).unwrap();
        assert_eq!(acc, 26.0); // paper's own example
        read(&mut e, 2, &[1, 2]);
        assert_eq!(
            e.s_vinter(sid(0), sid(2), ValueOp::Mac),
            Err(StreamException::NotKeyValueStream(sid(2)))
        );
    }

    #[test]
    fn vmerge_paper_example() {
        let mut e = engine();
        e.s_vread(0x1000, &[1, 3], 0x9000, &[4.0, 21.0], sid(0), Priority(0)).unwrap();
        e.s_vread(0x2000, &[1, 5], 0xA000, &[1.0, 36.0], sid(1), Priority(0)).unwrap();
        let n = e.s_vmerge(2.0, 3.0, sid(0), sid(1), sid(2)).unwrap();
        assert_eq!(n, 3);
        assert_eq!(e.stream_keys(sid(2)).unwrap(), &[1, 3, 5]);
        assert_eq!(e.stream_values(sid(2)).unwrap().unwrap(), &[11.0, 42.0, 108.0]);
    }

    #[test]
    fn nested_intersection_counts_triangles() {
        // Triangle 0-1-2 plus edge 2-3. Adjacency lists:
        let lists = vec![vec![1, 2], vec![0, 2], vec![0, 1, 3], vec![2]];
        let src = SliceNestedSource::new(lists.clone(), 0x40_0000);
        let mut e = engine();
        // Triangle counting: sum over v of nestinter(N(v)) counts each
        // triangle once per its largest vertex... actually once per
        // ordered pattern; the GPM layer owns the algorithm — here we
        // check the instruction semantics directly on one stream.
        read(&mut e, 0, &[0, 1, 3]); // N(2) augmented order
                                     // For s_i = 0: N(0)={1,2}, bound <0 -> 0 matches.
                                     // For s_i = 1: N(1)={0,2} ∩ {0,1,3} bounded <1 -> {0} -> 1.
                                     // For s_i = 3: N(3)={2} ∩ ... bounded <3 -> {} ∩... 2 not in stream -> 0.
        let total = e.s_nestinter(sid(0), &src).unwrap();
        assert_eq!(total, 1);
    }

    #[test]
    fn nested_matches_explicit_loop() {
        // Random-ish adjacency; check S_NESTINTER == sum of bounded
        // S_INTER.C over the same lists.
        let lists: Vec<Vec<Key>> = (0..20u32)
            .map(|v| (0..20u32).filter(|&u| u != v && (u * 7 + v * 3) % 5 < 2).collect())
            .collect();
        let src = SliceNestedSource::new(lists.clone(), 0x40_0000);
        let stream: Vec<Key> = (0..20).filter(|&v| v % 3 != 0).collect();

        let mut e = engine();
        read(&mut e, 0, &stream);
        let nested = e.s_nestinter(sid(0), &src).unwrap();

        let mut explicit = 0u64;
        for &s_i in &stream {
            explicit +=
                crate::setops::intersect_count(&stream, &lists[s_i as usize], Bound::below(s_i));
        }
        assert_eq!(nested, explicit);
    }

    #[test]
    fn finish_drains_and_is_monotonic() {
        let mut e = engine();
        read(&mut e, 0, &(0..200).collect::<Vec<_>>());
        read(&mut e, 1, &(100..300).collect::<Vec<_>>());
        e.s_inter_c(sid(0), sid(1), Bound::none()).unwrap();
        let t1 = e.finish();
        let t2 = e.finish();
        assert!(t1 > 0);
        assert_eq!(t1, t2);
        assert!(e.breakdown().intersection > 0);
    }

    #[test]
    fn multiple_sus_overlap_independent_ops() {
        // Two long independent intersections should overlap on 2 SUs:
        // total < 2x single (compare against a 1-SU engine).
        let a: Vec<Key> = (0..2000).map(|x| x * 2).collect();
        let b: Vec<Key> = (0..2000).map(|x| x * 2).collect();

        let run = |sus: usize| {
            let mut cfg = SparseCoreConfig::tiny();
            cfg.num_sus = sus;
            cfg.stream_bandwidth = 64; // not bandwidth-bound
            let mut e = Engine::new(cfg);
            for n in 0..4u32 {
                e.s_read(
                    0x10_0000 + n as u64 * 0x10000,
                    if n % 2 == 0 { &a } else { &b },
                    sid(n),
                    Priority(0),
                )
                .unwrap();
            }
            e.s_inter_c(sid(0), sid(1), Bound::none()).unwrap();
            e.s_inter_c(sid(2), sid(3), Bound::none()).unwrap();
            e.finish()
        };
        let one = run(1);
        let two = run(2);
        assert!(two < one, "two SUs {two} should beat one SU {one}");
    }

    #[test]
    fn bandwidth_throttles_long_ops() {
        // Skewed operands: few comparison cycles, many consumed elements —
        // the supply term dominates, so the S-Cache bandwidth shows.
        let a: Vec<Key> = (0..512).collect();
        let b: Vec<Key> = (0..8).map(|x| x * 64).collect();
        let run = |bw: u64| {
            let mut cfg = SparseCoreConfig::tiny();
            cfg.stream_bandwidth = bw;
            cfg.prefetch_depth = 64; // not memory-rate-bound
            let mut e = Engine::new(cfg);
            e.s_read(0x10_0000, &a, sid(0), Priority(0)).unwrap();
            e.s_read(0x20_0000, &b, sid(1), Priority(0)).unwrap();
            e.s_inter_c(sid(0), sid(1), Bound::none()).unwrap();
            e.finish()
        };
        assert!(run(2) > run(32), "low bandwidth should be slower");
    }

    #[test]
    fn scratchpad_reuse_speeds_reread() {
        // 200 keys = 800 B fits the tiny scratchpad (1 KiB).
        let a: Vec<Key> = (0..200).collect();
        let mut e = engine();
        // First read with priority admits to scratchpad; re-read hits.
        e.s_read(0x10_0000, &a, sid(0), Priority(5)).unwrap();
        e.s_free(sid(0)).unwrap();
        e.s_read(0x10_0000, &a, sid(0), Priority(5)).unwrap();
        assert_eq!(e.stats().scratchpad_hits, 1);
        assert_eq!(e.stats().scratchpad_misses, 1);
        e.s_free(sid(0)).unwrap();
    }

    #[test]
    fn out_of_registers_reported() {
        let mut e = engine(); // tiny: 8 slots
        for n in 0..8u32 {
            read(&mut e, n, &[1, 2]);
        }
        assert_eq!(
            e.s_read(0x90_0000, &[1], sid(99), Priority(0)),
            Err(StreamException::OutOfStreamRegisters)
        );
    }

    #[test]
    fn stream_id_reuse_across_iterations() {
        let mut e = engine();
        for it in 0..20u32 {
            let keys: Vec<Key> = (it..it + 10).collect();
            read(&mut e, 0, &keys);
            read(&mut e, 1, &keys);
            assert_eq!(e.s_inter_c(sid(0), sid(1), Bound::none()).unwrap(), 10);
            e.s_free(sid(0)).unwrap();
            e.s_free(sid(1)).unwrap();
        }
        assert_eq!(e.stats().reads, 40);
        assert_eq!(e.stats().frees, 40);
    }

    #[test]
    fn stats_record_lengths() {
        let mut e = engine();
        read(&mut e, 0, &[1, 2, 3]);
        read(&mut e, 1, &[1]);
        e.s_inter(sid(0), sid(1), sid(2), Bound::none()).unwrap();
        // Two reads + one output recorded.
        assert_eq!(e.stats().lengths.count(), 3);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    fn sid(n: u32) -> StreamId {
        StreamId::new(n)
    }

    #[test]
    fn virtualization_survives_register_exhaustion() {
        let mut e = Engine::new(SparseCoreConfig::tiny()); // 8 registers
        e.enable_virtualization();
        // Define 12 live streams — 4 beyond the register file.
        for n in 0..12u32 {
            let keys: Vec<Key> = (n..n + 8).collect();
            e.s_read(0x10_0000 + u64::from(n) * 0x1000, &keys, sid(n), Priority(0)).unwrap();
        }
        // Every stream, including swapped-out ones, is still usable.
        for n in 0..12u32 {
            assert_eq!(e.s_fetch(sid(n), 0).unwrap(), n, "stream {n}");
        }
        // Pairwise ops across resident/spilled streams work too:
        // [0..8) vs [11..19) are disjoint, [4..12) vs [11..19) share 11.
        assert_eq!(e.s_inter_c(sid(0), sid(11), Bound::none()).unwrap(), 0);
        assert_eq!(e.s_inter_c(sid(4), sid(11), Bound::none()).unwrap(), 1);
        for n in 0..12u32 {
            e.s_free(sid(n)).unwrap();
        }
    }

    #[test]
    fn without_virtualization_exhaustion_faults() {
        let mut e = Engine::new(SparseCoreConfig::tiny());
        for n in 0..8u32 {
            e.s_read(0x10_0000, &[1, 2], sid(n), Priority(0)).unwrap();
        }
        assert_eq!(
            e.s_read(0x20_0000, &[1], sid(99), Priority(0)),
            Err(StreamException::OutOfStreamRegisters)
        );
    }

    #[test]
    fn checkpoint_rollback_restores_stream_state() {
        let mut e = Engine::new(SparseCoreConfig::tiny());
        e.s_read(0x10_0000, &[1, 2, 3], sid(0), Priority(0)).unwrap();
        let cp = e.checkpoint();
        // Mutate: free s0, define s1, produce an output stream.
        e.s_read(0x20_0000, &[2, 3, 4], sid(1), Priority(0)).unwrap();
        e.s_inter(sid(0), sid(1), sid(2), Bound::none()).unwrap();
        e.s_free(sid(0)).unwrap();
        let t_before = e.cycles();
        e.rollback(cp);
        // s0 is live again; s1/s2 are gone; time moved forward.
        assert_eq!(e.stream_keys(sid(0)).unwrap(), &[1, 2, 3]);
        assert!(e.stream_keys(sid(1)).is_err());
        assert!(e.stream_keys(sid(2)).is_err());
        assert!(e.cycles() >= t_before);
        e.s_free(sid(0)).unwrap();
    }

    #[test]
    fn rollback_squashes_trace_entries() {
        // Regression: the checkpoint used to omit the trace buffer, so a
        // rollback left squashed micro-ops in the recorded program. The
        // trace must end exactly where the checkpoint took it, and the
        // sanitizer must agree the rollback restored state faithfully.
        let mut e = Engine::new(SparseCoreConfig::tiny());
        e.record_trace();
        e.s_read(0x10_0000, &[1, 2, 3], sid(0), Priority(0)).unwrap();
        let cp = e.checkpoint();
        e.s_read(0x20_0000, &[2, 3], sid(1), Priority(0)).unwrap();
        e.s_inter(sid(0), sid(1), sid(2), Bound::none()).unwrap();
        e.rollback(cp);
        assert!(e.sanitizer_report().is_empty(), "rollback must not drift");
        e.s_free(sid(0)).unwrap();
        let trace = e.take_trace();
        // Exactly: the S_READ before the checkpoint + the S_FREE after
        // the rollback. The squashed S_READ/S_INTER are gone.
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn rollback_restores_sanitizer_freed_history() {
        // Regression: the freed-stream history shadows SMT state but was
        // not part of the checkpoint, so a rollback left the two
        // disagreeing. A stream defined+freed only on the squashed path
        // must not report SC-S303 when the (architecturally
        // never-defined) id is used afterwards.
        let sanitized = SparseCoreConfig { sanitize: true, ..SparseCoreConfig::tiny() };
        let mut e = Engine::new(sanitized);
        e.s_read(0x10_0000, &[1, 2], sid(0), Priority(0)).unwrap();
        let cp = e.checkpoint();
        e.s_read(0x20_0000, &[2, 3], sid(1), Priority(0)).unwrap();
        e.s_free(sid(1)).unwrap();
        e.rollback(cp);
        assert!(e.s_inter(sid(0), sid(1), sid(2), Bound::none()).is_err());
        let report = e.sanitizer_report();
        assert!(report.is_empty(), "spurious finding after rollback: {:?}", report.diagnostics());

        // The converse: a stream freed before the checkpoint and
        // redefined only on the squashed path is still freed after the
        // rollback, so re-freeing it must report the SC-S301 hazard.
        let mut e = Engine::new(sanitized);
        e.s_read(0x10_0000, &[1, 2], sid(0), Priority(0)).unwrap();
        e.s_free(sid(0)).unwrap();
        let cp = e.checkpoint();
        e.s_read(0x20_0000, &[2, 3], sid(0), Priority(0)).unwrap();
        e.rollback(cp);
        assert!(e.s_free(sid(0)).is_err());
        let report = e.sanitizer_report();
        assert!(
            report.diagnostics().iter().any(|d| d.code == sc_lint::LintCode::SanDoubleFree),
            "missed SC-S301 after rollback: {:?}",
            report.diagnostics()
        );
    }

    #[test]
    fn overlapping_read_waits_for_producer() {
        // An S_READ over the memory region of a just-produced output
        // stream must not be ready before the producer completes
        // (Section 4.4, scenario 2).
        let mut e = Engine::new(SparseCoreConfig::tiny());
        let a: Vec<Key> = (0..200).collect();
        e.s_read(0x10_0000, &a, sid(0), Priority(0)).unwrap();
        e.s_read(0x20_0000, &a, sid(1), Priority(0)).unwrap();
        e.s_inter(sid(0), sid(1), sid(2), Bound::none()).unwrap();
        let producer_ready = e.smt.get(sid(2)).unwrap().ready_at;
        // Read a stream overlapping the output's region.
        let out_addr = e.smt.get(sid(2)).unwrap().key_addr;
        e.s_read(out_addr + 64, &a[16..32], sid(3), Priority(0)).unwrap();
        let dependent_ready = e.smt.get(sid(3)).unwrap().ready_at;
        assert!(
            dependent_ready >= producer_ready,
            "dependent {dependent_ready} vs producer {producer_ready}"
        );
        // A read elsewhere has no such constraint when caches are warm.
        e.s_read(0x10_0000, &a, sid(4), Priority(0)).unwrap();
        let independent_ready = e.smt.get(sid(4)).unwrap().ready_at;
        assert!(independent_ready <= dependent_ready);
        for n in [0u32, 1, 2, 3, 4] {
            e.s_free(sid(n)).unwrap();
        }
    }

    #[test]
    fn probe_attribution_conserves_engine_cycles() {
        // Every modeled cycle must land in exactly one attribution bin:
        // after finish(), the bins sum to the engine's total cycle count.
        let mut e = Engine::new(SparseCoreConfig::tiny());
        let a: Vec<Key> = (0..300).collect();
        let b: Vec<Key> = (100..400).collect();
        e.s_read(0x10_0000, &a, sid(0), Priority(2)).unwrap();
        e.s_read(0x20_0000, &b, sid(1), Priority(0)).unwrap();
        e.s_inter(sid(0), sid(1), sid(2), Bound::none()).unwrap();
        e.s_fetch(sid(2), 0).unwrap();
        let lists = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let src = SliceNestedSource::new(lists, 0x40_0000);
        e.s_read(0x30_0000, &[0, 1, 2], sid(3), Priority(0)).unwrap();
        e.s_nestinter(sid(3), &src).unwrap();
        let total = e.finish();
        assert_eq!(e.attribution().total(), total, "attribution bins must sum to total cycles");
        assert_eq!(total, e.cycles());
        // The workload exercised SUs and memory, so those bins are live.
        assert!(e.attribution().get(sc_probe::AttrBin::ScalarOverlap) > 0);
    }

    #[test]
    fn export_triggers_are_rows_that_trigger_themselves() {
        for (name, _, trigger) in EXPORTS {
            assert_eq!(EXPORTS[trigger].2, trigger, "{name} triggers on a dependent row");
        }
    }

    #[test]
    fn finish_exports_counter_deltas_since_the_last_export() {
        let mut e = Engine::new(SparseCoreConfig::tiny());
        let a: Vec<Key> = (0..200).collect();
        e.s_read(0x10_0000, &a, sid(0), Priority(5)).unwrap(); // before the attach
        let probe = Probe::new(sc_probe::ProbeLevel::Metrics);
        e.set_probe(probe.clone());
        e.s_read(0x20_0000, &a[50..150], sid(1), Priority(0)).unwrap();
        e.s_inter(sid(0), sid(1), sid(2), Bound::none()).unwrap();
        assert_eq!(probe.counter("engine.reads"), 0, "counters wait for finish");
        e.finish();
        let value = |name| sc_probe::check::metrics_value(&probe.metrics_json(), name);
        assert_eq!(value("engine.reads"), Some(1.0), "the read before the attach stays out");
        assert_eq!(value("engine.set_ops"), Some(1.0));
        assert_eq!(value("engine.stream_len.count"), Some(2.0));
        assert_eq!(value("engine.value_ops"), None, "no value op ran");
        assert_eq!(value("engine.fetches"), None, "no fetch ran");
        e.finish(); // nothing new: nothing added
        assert_eq!(value("engine.reads"), Some(1.0));
        e.s_vread(0x30_0000, &[1, 3, 7], 0x9000, &[1.0, 2.0, 3.0], sid(3), Priority(0)).unwrap();
        e.s_vread(0x31_0000, &[2, 4, 8], 0xA000, &[4.0, 5.0, 6.0], sid(4), Priority(0)).unwrap();
        e.s_vinter(sid(3), sid(4), ValueOp::Mac).unwrap();
        e.finish();
        assert_eq!(value("engine.reads"), Some(3.0));
        assert_eq!(value("engine.value_ops"), Some(1.0));
        assert_eq!(value("engine.value_loads"), Some(0.0), "loads appear with their op");
        // A second engine on the same probe adds its own events.
        let mut f = Engine::new(SparseCoreConfig::tiny());
        f.set_probe(probe.clone());
        f.s_read(0x40_0000, &a, sid(0), Priority(0)).unwrap();
        f.finish();
        assert_eq!(value("engine.reads"), Some(4.0));
        assert_eq!(e.stats().reads + f.stats().reads, 5);
    }

    #[test]
    fn probe_trace_validates_and_snapshot_exports() {
        let mut e = Engine::new(SparseCoreConfig::tiny());
        e.set_probe(Probe::new(sc_probe::ProbeLevel::Trace));
        let a: Vec<Key> = (0..100).collect();
        e.s_read(0x10_0000, &a, sid(0), Priority(0)).unwrap();
        e.s_read(0x20_0000, &a, sid(1), Priority(0)).unwrap();
        e.s_inter(sid(0), sid(1), sid(2), Bound::none()).unwrap();
        e.s_free(sid(0)).unwrap();
        e.finish();
        e.probe_snapshot();
        let trace = e.probe().trace_json(0);
        sc_probe::check::validate_trace(&trace).expect("engine trace must validate");
        let names = sc_probe::check::trace_event_names(&trace).unwrap();
        for expected in ["S_READ", "S_INTER", "S_FREE", "su_op", "slot_bind"] {
            assert!(names.iter().any(|n| n == expected), "missing event {expected}: {names:?}");
        }
        let metrics = e.probe().metrics_json();
        sc_probe::check::validate_metrics(&metrics).expect("metrics must validate");
        let attr_total =
            sc_probe::check::metrics_value(&metrics, "attr.total").expect("attr.total present");
        assert_eq!(attr_total as u64, e.attribution().total());
    }

    #[test]
    fn sanitizer_violations_surface_as_probe_events() {
        let mut cfg = SparseCoreConfig::tiny();
        cfg.sanitize = true;
        let mut e = Engine::new(cfg);
        e.set_probe(Probe::new(sc_probe::ProbeLevel::Trace));
        e.s_read(0x10_0000, &[1, 2, 3], sid(0), Priority(0)).unwrap();
        e.sabotage_drop_payload(sid(0));
        let report = e.sanitizer_report();
        assert!(!report.is_empty());
        assert!(e.probe().counter("sanitizer.violations") > 0);
        let names = sc_probe::check::trace_event_names(&e.probe().trace_json(0)).unwrap();
        assert!(
            names.iter().any(|n| n.starts_with("SC-S3")),
            "expected an SC-S3xx instant, got {names:?}"
        );
    }

    #[test]
    fn trace_instants_carry_their_own_engines_clock() {
        let probe = Probe::new(sc_probe::ProbeLevel::Trace);
        let mut first = Engine::new(SparseCoreConfig::tiny());
        first.set_probe(probe.clone());
        first.core_mut().ops(400_000);
        let high = first.finish();
        let mut second = Engine::new(SparseCoreConfig::tiny());
        second.set_probe(probe.clone());
        second.s_read(0x10_0000, &(0..64).collect::<Vec<_>>(), sid(0), Priority(0)).unwrap();
        let own = second.cycles();
        assert!(own < high, "the second engine's clock {own} stays below {high}");
        let trace = sc_probe::json::parse(&probe.trace_json(0)).unwrap();
        let events = trace.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        let stamps: Vec<f64> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("dram_access"))
            .map(|e| e.get("ts").and_then(|t| t.as_f64()).unwrap())
            .collect();
        assert!(!stamps.is_empty(), "a cold S_READ reaches DRAM");
        assert!(stamps.iter().all(|&ts| ts <= own as f64), "dram_access at {stamps:?}");
    }

    #[test]
    fn vmerge_value_writes_past_its_allocation_are_checked() {
        // One merged key: the allocation is ((12 × 1) | 63) + 1 = 64
        // bytes, but the value region starts 64 bytes in and holds 8.
        let mut cfg = SparseCoreConfig::tiny();
        cfg.sanitize = true;
        let mut e = Engine::new(cfg);
        let out_addr = 0xC000_0000; // the output allocator's base
        e.protect_range(out_addr + 64, out_addr + 72);
        e.s_vread(0x1000, &[5], 0x2000, &[1.0], sid(0), Priority(0)).unwrap();
        e.s_vread(0x3000, &[5], 0x4000, &[2.0], sid(1), Priority(0)).unwrap();
        assert_eq!(e.s_vmerge(1.0, 1.0, sid(0), sid(1), sid(2)).unwrap(), 1);
        let report = e.sanitizer_report();
        assert!(
            report.diagnostics().iter().any(|d| d.code == LintCode::SanReadOnlyWrite),
            "expected SC-S310, got {report}"
        );
    }

    #[test]
    fn spilled_stream_free_releases_cleanly() {
        let mut e = Engine::new(SparseCoreConfig::tiny());
        e.enable_virtualization();
        for n in 0..10u32 {
            e.s_read(0x10_0000 + u64::from(n) * 0x1000, &[n], sid(n), Priority(0)).unwrap();
        }
        // Some of 0..10 are spilled; free them all, then reuse the IDs.
        for n in 0..10u32 {
            e.s_free(sid(n)).unwrap();
        }
        for n in 0..10u32 {
            e.s_read(0x30_0000 + u64::from(n) * 0x1000, &[n + 100], sid(n), Priority(0)).unwrap();
            assert_eq!(e.s_fetch(sid(n), 0).unwrap(), n + 100);
        }
    }
}
