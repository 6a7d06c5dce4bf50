//! Shared command-line plumbing for the figure binaries.
//!
//! Every binary in `src/bin/` accepts the same cross-cutting flags, so
//! they are parsed here once instead of twelve times:
//!
//! - `--sanitize` — enable the runtime invariant sanitizer (SC-S3xx).
//! - `--metrics <path>` — write a JSON metrics snapshot on exit.
//! - `--trace <path>` — write a Chrome `trace_event` JSON file on exit,
//!   loadable in Perfetto.
//! - `--record <path>` — append one canonical `sc-report` run record per
//!   workload to the given registry file.
//! - `--verify` — statically verify every stream program and partition
//!   plan the bench emits with `sc-verify` before/alongside execution;
//!   any `REJECTED` verdict makes the process exit 1 after the outputs
//!   are written.
//! - `--cost` — statically bound every stream program the bench emits
//!   with `sc-cost`, replay it on a synthesized image, and assert the
//!   simulated cycles land inside the static `[lower, upper]` bounds;
//!   any violation makes the process exit 1 after the outputs are
//!   written. Under `--record`, every record carries the process's final
//!   tally (checked, violations, worst `upper / simulated` ratio) as its
//!   `cost` section.
//! - `--spans <path>` — keep per-core simulated-clock span logs
//!   (`sc_probe::SpanLog`) in every engine and write them per workload
//!   as a JSON document on exit. The document feeds `sc-report html`'s
//!   timeline.
//! - `--explain <path>` — extract the simulated critical path of every
//!   workload from its span logs (`sc_explain::extract`, which re-proves
//!   the conservation invariant: path length == final simulated clock)
//!   and write a text report; implies spans.
//! - `--host` — host-process observability: per-workload wall split by
//!   phase (generate / emit / verify / simulate / record / other) from
//!   `sc-host`'s switching phase timers, peak RSS, and allocator stats,
//!   printed per workload and attached to `--record` records as the
//!   `host` section for `sc-report host`'s budget gates.
//! - `--jobs N` — shard independent workloads of the bench across `N`
//!   host worker threads via [`BenchCli::sweep`] (`auto`/`0` = all
//!   cores). Host threads only: every simulation stays byte-identical,
//!   and the emitted registry, span documents, and probe outputs are
//!   merged in workload order, so they match `--jobs 1` exactly (up to
//!   wall-clock timings, which are measurements, not model outputs).
//!
//! Each output flag sets the probe level its file needs: `--trace`
//! records at trace level; `--metrics`, `--spans` and `--explain` at
//! metrics level. Without any of them the probe is off. `--record` needs
//! no probe: a bench hands every record its values, bins included, from
//! the run that produced them.
//!
//! Independently of `--host`, every bench installs the `sc-host`
//! flight recorder's panic hook and logs one structured event per
//! workload / failed obligation; the ring is dumped to stderr (and
//! `SC_FLIGHT` as JSON, when set) only on panic or nonzero exit.
//!
//! Binary-specific flags (`--skip-fsm`, `--gramer`, `--datasets`,
//! `--matrices`, ...) are declared by their binaries as [`Flag`]s, with
//! the checks their values must pass, and read through
//! [`BenchCli::flag`], [`BenchCli::value`], [`BenchCli::parsed`] and
//! [`BenchCli::datasets`]. A binary declares only the flags it reads.
//! Every command line goes through `sc_probe::args`: an unknown flag, a
//! missing value or one its check refuses (a `--jobs` that is neither a
//! count nor `auto`, a `--datasets` tag that names no Table 4 graph) is
//! a usage error, exit 2, before any work starts.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sc_graph::Dataset;
use sc_host::flight::{self, Level};
use sc_host::{AllocStats, Phase, PhaseTimers};
use sc_probe::args::{self, ensure, Args, Flag};
use sc_probe::{AttrBin, Attribution, Probe, ProbeLevel, SpanSnapshot};
use sc_report::{CostSection, HostSection, RunRecord};
use sparsecore::SparseCoreConfig;

/// The parsed command line. Read-only once built, and shared by the
/// parent CLI and every sweep worker.
#[derive(Debug)]
struct Options {
    args: Args,
    bench: String,
    level: ProbeLevel,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    record: Option<PathBuf>,
    spans: Option<PathBuf>,
    explain: Option<PathBuf>,
    verify: bool,
    cost: bool,
    host: bool,
    jobs: usize,
}

impl Options {
    /// Parse `argv` (program name first) against the cross-cutting flags
    /// plus the binary's own.
    fn parse(argv: Vec<String>, own: &[Flag]) -> Result<Self, String> {
        let mut argv = argv.into_iter();
        let bench = argv.next().map_or_else(
            || "unknown".into(),
            |a| Path::new(&a).file_stem().map_or(a.clone(), |s| s.to_string_lossy().into_owned()),
        );
        let flags: Vec<Flag> = COMMON_FLAGS.iter().chain(own).copied().collect();
        let args = args::parse(argv, &flags)?;
        let path = |name: &str| args.value(name).map(PathBuf::from);
        let (trace, metrics, record) = (path("--trace"), path("--metrics"), path("--record"));
        let (spans, explain) = (path("--spans"), path("--explain"));
        let level = if trace.is_some() {
            ProbeLevel::Trace
        } else if metrics.is_some() || spans.is_some() || explain.is_some() {
            ProbeLevel::Metrics
        } else {
            ProbeLevel::Off
        };
        let jobs = match args.value("--jobs") {
            None => 1,
            Some("auto" | "0") => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            Some(n) => n.parse().expect("--jobs passed its check"),
        };
        Ok(Options {
            bench,
            level,
            trace,
            metrics,
            record,
            spans,
            explain,
            verify: args.switch("--verify"),
            cost: args.switch("--cost"),
            host: args.switch("--host"),
            jobs,
            args,
        })
    }

    /// Print the banner lines naming the active switches.
    fn announce(&self) {
        if self.spans_on() {
            println!("# spans: ON (per-core simulated-clock span logs)\n");
        }
        if self.level != ProbeLevel::Off {
            println!("# probe: level {}\n", self.level.name());
        }
        if self.verify {
            println!("# verify: ON (static verification via sc-verify)\n");
        }
        if self.cost {
            println!("# cost: ON (static cycle bounds + replay soundness gate via sc-cost)\n");
        }
        if self.host {
            println!(
                "# host: ON (phase timers + RSS/alloc accounting; counting allocator installed)\n"
            );
        }
        if self.jobs > 1 {
            println!("# jobs: {} (host worker threads; simulated timing unchanged)", self.jobs);
        }
    }

    fn spans_on(&self) -> bool {
        self.spans.is_some() || self.explain.is_some()
    }

    /// A fresh probe at the level the output flags ask for.
    fn probe(&self) -> Probe {
        let probe = Probe::new(self.level);
        if self.spans_on() {
            probe.enable_spans();
        }
        probe
    }
}

/// One gate's obligation ledger, for `--verify` and `--cost` alike: how
/// many obligations were checked, how many failed, and the worst
/// `upper / simulated` tightness ratio seen (`--cost` only).
#[derive(Debug, Clone, Copy)]
struct Tally {
    checked: usize,
    failed: usize,
    worst: f64,
}

impl Tally {
    const NONE: Tally = Tally { checked: 0, failed: 0, worst: 1.0 };

    fn plus(self, other: Tally) -> Tally {
        Tally {
            checked: self.checked + other.checked,
            failed: self.failed + other.failed,
            worst: self.worst.max(other.worst),
        }
    }

    fn counts(self) -> (usize, usize) {
        (self.checked, self.failed)
    }

    /// The tally as a record's cost section, once anything was checked.
    fn section(self) -> Option<CostSection> {
        (self.checked > 0).then_some(CostSection {
            checked: self.checked as u64,
            violations: self.failed as u64,
            tightness: self.worst,
        })
    }
}

/// Which gate an obligation belongs to.
#[derive(Debug, Clone, Copy)]
enum Gate {
    Verify,
    Cost,
}

/// Everything a run leaves for the exit-time outputs. The parent CLI
/// holds one; every sweep item fills its own, and the parent merges
/// them in item order with [`RunOutput::absorb`].
#[derive(Debug)]
struct RunOutput {
    records: Vec<RunRecord>,
    /// Per-workload span snapshots, drained from the probe at each
    /// [`BenchCli::record`] call, in workload order.
    spans: Vec<(String, Vec<SpanSnapshot>)>,
    /// Every host section so far, for the end-of-run summary (and
    /// tests); parallel to the per-workload `# host:` lines.
    host: Vec<HostSection>,
    verify: Tally,
    cost: Tally,
    /// Buffered stdout; `None` prints directly.
    stdout: Option<String>,
    probe: Probe,
}

impl RunOutput {
    fn write(&mut self, text: &str) {
        match &mut self.stdout {
            Some(buf) => buf.push_str(text),
            None => print!("{text}"),
        }
    }

    /// Append `other` after everything this output holds.
    fn absorb(&mut self, other: RunOutput) {
        self.write(other.stdout.as_deref().unwrap_or_default());
        self.records.extend(other.records);
        self.spans.extend(other.spans);
        self.host.extend(other.host);
        self.verify = self.verify.plus(other.verify);
        self.cost = self.cost.plus(other.cost);
        self.probe.absorb(&other.probe);
    }
}

/// Parsed cross-cutting flags plus the run output they configure.
/// Construct one at the top of every bench `main` (it also turns on the
/// sanitizer under `--sanitize`, which must precede the first
/// `SparseCoreConfig`), and call [`BenchCli::write_probe_outputs`] at
/// the end.
#[derive(Debug)]
pub struct BenchCli {
    opts: Arc<Options>,
    out: RefCell<RunOutput>,
    /// Start of the current host window: construction time, then each
    /// `record()` call and the end of each sweep re-arm it, so a
    /// record's `wall_ms` covers the work since the previous record.
    last_mark: Cell<Instant>,
    /// The switching phase-timer state machine; only touched when
    /// `--host` is on, and drained per workload by [`BenchCli::record`]
    /// so phase windows line up with `last_mark` windows.
    timers: RefCell<PhaseTimers>,
    /// Allocator counters at the last drain, for per-window deltas.
    last_alloc: Cell<AllocStats>,
}

/// The cross-cutting flags every bench accepts.
const COMMON_FLAGS: &[Flag] = &[
    Flag::switch("--sanitize"),
    Flag::value("--metrics"),
    Flag::value("--trace"),
    Flag::value("--record"),
    Flag::switch("--verify"),
    Flag::switch("--cost"),
    Flag::value("--spans"),
    Flag::value("--explain"),
    Flag::switch("--host"),
    Flag::value("--jobs").checked(|v| {
        ensure(v == "auto" || v.parse::<usize>().is_ok(), "a positive integer or 'auto'")
    }),
];

impl BenchCli {
    /// Parse the process's command line, accepting the cross-cutting
    /// flags plus the binary's `own`. A usage error exits 2.
    pub fn parse_with(own: &[Flag]) -> Self {
        Self::try_from_args_with(std::env::args().collect(), own).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parse an explicit argument vector, program name first (tests use
    /// this).
    ///
    /// # Panics
    ///
    /// Panics on a usage error.
    pub fn from_args(argv: Vec<String>) -> Self {
        Self::try_from_args_with(argv, &[]).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible core of the constructors: parse `argv` (program
    /// name first) against the cross-cutting flags plus `own`, turn on
    /// the sanitizer under `--sanitize`, then wire up the probe.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag or value.
    pub fn try_from_args_with(argv: Vec<String>, own: &[Flag]) -> Result<Self, String> {
        let line = argv.get(1..).unwrap_or_default().join(" ");
        let opts = Options::parse(argv, own)?;
        if opts.args.switch("--sanitize") {
            // Read once by `sparsecore`'s config constructors, so this
            // precedes the first `SparseCoreConfig` the bench builds.
            std::env::set_var("SC_SANITIZE", "1");
            println!("# sanitizer: ON (--sanitize -> SC_SANITIZE=1)\n");
        }
        opts.announce();
        // The flight recorder rides along unconditionally: it records a
        // handful of events per workload and only ever speaks on panic
        // or nonzero exit.
        flight::install_panic_hook();
        flight::log(Level::Info, &opts.bench, "bench start", &[("args", line)]);
        Ok(Self::new(Arc::new(opts), None))
    }

    fn new(opts: Arc<Options>, stdout: Option<String>) -> Self {
        let out = RunOutput {
            records: Vec::new(),
            spans: Vec::new(),
            host: Vec::new(),
            verify: Tally::NONE,
            cost: Tally::NONE,
            stdout,
            probe: opts.probe(),
        };
        BenchCli {
            opts,
            out: RefCell::new(out),
            last_mark: Cell::new(Instant::now()),
            timers: RefCell::new(PhaseTimers::new()),
            last_alloc: Cell::new(sc_host::alloc::thread_stats()),
        }
    }

    /// Was the switch `name` (like `--skip-fsm`) given?
    pub fn flag(&self, name: &str) -> bool {
        self.opts.args.switch(name)
    }

    /// The value of `name`, if it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.opts.args.value(name)
    }

    /// The value of `name` as a `T`, if it was given. The flag's check
    /// guarantees it parses.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.opts.args.parsed(name)
    }

    /// The [`crate::DATASETS`] filter, in Table 4 order, or `default`
    /// when the flag is absent. The binary must declare the flag.
    pub fn datasets(&self, default: &[Dataset]) -> Vec<Dataset> {
        match self.value("--datasets") {
            Some(list) => {
                Dataset::ALL.into_iter().filter(|d| list.split(',').any(|t| t == d.tag())).collect()
            }
            None => default.to_vec(),
        }
    }

    /// A handle on the shared probe (cloning is an `Arc` bump; all
    /// clones feed the same registry and trace buffer).
    pub fn probe(&self) -> Probe {
        self.out.borrow().probe.clone()
    }

    /// Is `--record` active?
    pub fn recording(&self) -> bool {
        self.opts.record.is_some()
    }

    /// Is span logging active (`--spans` or `--explain`)?
    pub fn spans_on(&self) -> bool {
        self.opts.spans_on()
    }

    /// Is `--host` active?
    pub fn hosting(&self) -> bool {
        self.opts.host
    }

    /// The `--jobs` worker-pool width (1 without the flag).
    pub fn jobs(&self) -> usize {
        self.opts.jobs
    }

    /// Print one line of per-workload output. On the parent CLI this is
    /// `println!`; on a sweep worker the line lands in the worker's
    /// buffer and the parent flushes it in workload order, so bench
    /// stdout stays byte-deterministic under `--jobs N`. Bench bins
    /// should route any stdout they emit *inside* a sweep closure
    /// through this.
    pub fn say(&self, line: &str) {
        self.out.borrow_mut().write(&format!("{line}\n"));
    }

    /// Route [`BenchCli::say`] output (including sweep-worker flushes)
    /// into an in-memory buffer instead of stdout. Tests use this to
    /// observe output ordering.
    pub fn capture_output(&mut self) {
        self.out.get_mut().stdout = Some(String::new());
    }

    /// Everything captured since [`BenchCli::capture_output`] (empty if
    /// output was never captured).
    pub fn captured_output(&self) -> String {
        self.out.borrow().stdout.clone().unwrap_or_default()
    }

    /// Run one closure per item, sharded across the `--jobs` worker
    /// pool, and return the closure results in item order.
    ///
    /// Each item gets a **fresh worker `BenchCli`** over the same
    /// options (own probe, own phase timers, own stdout buffer)
    /// regardless of the pool width — `--jobs 1` runs the items inline
    /// through the very same worker machinery, so the two paths cannot
    /// diverge. Each worker's run output (buffered stdout, records, span
    /// documents, host sections, gate tallies, probe) comes back through
    /// its thread's join handle and is merged into this CLI **in item
    /// order**, never completion order: the emitted registry, span and
    /// probe outputs are therefore independent of scheduling, and
    /// byte-identical between `--jobs 1` and `--jobs N` (wall-clock
    /// fields excepted — those are measurements, not model outputs).
    ///
    /// The closure must treat its item as self-contained: record via
    /// the *worker* CLI it is handed, print via [`BenchCli::say`], and
    /// not touch the parent CLI (which is not `Sync` and is not
    /// reachable from the pool anyway).
    ///
    /// # Panics
    ///
    /// A panicking worker finishes the scope and then propagates the
    /// panic (the flight recorder's panic hook has already dumped the
    /// ring by then, stamped with the worker's thread name).
    pub fn sweep<I: Sync, R: Send>(
        &self,
        items: &[I],
        f: impl Fn(&BenchCli, &I) -> R + Sync,
    ) -> Vec<R> {
        let opts = &self.opts;
        let run = |item: &I| {
            let worker = Self::new(Arc::clone(opts), Some(String::new()));
            let result = f(&worker, item);
            (result, worker.out.into_inner())
        };
        let merge = |(result, out)| {
            self.out.borrow_mut().absorb(out);
            result
        };
        let jobs = opts.jobs.min(items.len());
        let results = if jobs <= 1 {
            items.iter().map(run).map(merge).collect()
        } else {
            let next = AtomicUsize::new(0);
            let mut done: Vec<(usize, (R, RunOutput))> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..jobs)
                    .map(|w| {
                        let (next, run) = (&next, &run);
                        std::thread::Builder::new()
                            .name(format!("sweep-worker-{w}"))
                            .spawn_scoped(scope, move || {
                                let mut mine = Vec::new();
                                loop {
                                    let i = next.fetch_add(1, Ordering::Relaxed);
                                    let Some(item) = items.get(i) else { return mine };
                                    mine.push((i, run(item)));
                                }
                            })
                            .expect("spawning a sweep worker thread")
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            });
            done.sort_unstable_by_key(|&(i, _)| i);
            done.into_iter().map(|(_, item)| item).map(merge).collect()
        };
        self.rearm();
        results
    }

    /// Open a fresh host window: the next record's wall, phase walls and
    /// allocation deltas start here. A sweep ends with this, because its
    /// items have already recorded its work.
    fn rearm(&self) {
        self.last_mark.set(Instant::now());
        if self.opts.host {
            let mut timers = self.timers.borrow_mut();
            let phase = timers.current();
            timers.drain(phase);
            self.last_alloc.set(sc_host::alloc::thread_stats());
        }
    }

    /// Run `f` attributed to host phase `phase`, restoring the previous
    /// phase afterwards. Inert (a single branch) without `--host`, so
    /// phase scopes cost nothing in the probes-off overhead budget.
    pub fn in_phase<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let _scope = self.phase(phase);
        f()
    }

    /// RAII variant of [`BenchCli::in_phase`] for scopes that span
    /// several statements: the returned guard restores the previous
    /// phase on drop.
    pub fn phase(&self, phase: Phase) -> PhaseGuard<'_> {
        let prev = self.opts.host.then(|| self.timers.borrow_mut().switch(phase));
        PhaseGuard { cli: self, prev }
    }

    /// Host sections produced so far, one per recorded workload (tests
    /// inspect these; the same sections ride on `pending_records`).
    pub fn pending_host(&self) -> Vec<HostSection> {
        self.out.borrow().host.clone()
    }

    /// Is `--verify` active? Benches can skip building verification
    /// workloads (partition plans) when nothing will be checked.
    pub fn verifying(&self) -> bool {
        self.opts.verify
    }

    /// Is `--cost` active? Benches can skip building cost workloads
    /// (traced runs) when nothing will be bounded.
    pub fn costing(&self) -> bool {
        self.opts.cost
    }

    /// `(checked, rejected)` obligation counts so far (tests inspect
    /// these; [`BenchCli::write_probe_outputs`] turns rejections into
    /// exit status 1).
    pub fn verify_counts(&self) -> (usize, usize) {
        self.out.borrow().verify.counts()
    }

    /// `(checked, violated)` cost-soundness counts so far.
    pub fn cost_counts(&self) -> (usize, usize) {
        self.out.borrow().cost.counts()
    }

    /// Check stream programs under whichever of `--verify` and `--cost`
    /// is on, in the host's verify phase: every program is verified,
    /// then every program is bounded and replayed, against `config`.
    /// `build` makes the `(label, program)` list, once for both gates,
    /// and only when one of them is on.
    pub fn check_programs(
        &self,
        config: &SparseCoreConfig,
        build: impl FnOnce() -> Vec<(String, sc_isa::Program)>,
    ) {
        if !self.opts.verify && !self.opts.cost {
            return;
        }
        let _scope = self.phase(Phase::Verify);
        let programs = build();
        let vcfg = sc_verify::VerifyConfig::for_config(config);
        for (label, program) in &programs {
            self.verify_program(label, program, &vcfg);
        }
        if self.opts.cost {
            for (label, program) in &programs {
                self.cost_program(label, program, config);
            }
        }
    }

    /// Statically bound one stream program with `sc-cost` and check the
    /// replay soundness gate. Prints the bounds, the simulated witness
    /// cycles, and the tightness ratio; a violation (simulated cycles
    /// outside the static bounds) or a replay fault counts toward the
    /// exit-1 total.
    fn cost_program(&self, label: &str, program: &sc_isa::Program, config: &SparseCoreConfig) {
        let (ok, detail) = match sc_cost::check_program(program, config) {
            Ok(out) => {
                if let Some(t) = out.tightness {
                    let mut run = self.out.borrow_mut();
                    run.cost.worst = run.cost.worst.max(t);
                }
                let detail = if out.sound() {
                    let t = out.tightness.map_or("unbounded".into(), |t| format!("{t:.2}x"));
                    let (cycles, simulated) = (&out.report.cycles, out.simulated);
                    format!("cycles {cycles} contains simulated {simulated}, tightness {t}")
                } else {
                    format!("simulated {} outside static {}", out.simulated, out.report.cycles)
                };
                (out.sound(), detail)
            }
            Err(e) => (false, e.to_string()),
        };
        self.note(Gate::Cost, label, ok, &detail, &[]);
    }

    /// Count one externally-evaluated cost obligation (e.g. the
    /// observed-length-in-static-hull check fig14 runs on a traced
    /// execution), under `--cost` (no-op without the flag). `ok = false`
    /// counts toward the exit-1 total.
    pub fn cost_check(&self, label: &str, ok: bool, detail: &str) {
        if self.opts.cost {
            self.note(Gate::Cost, label, ok, detail, &[]);
        }
    }

    /// Statically verify one stream program under `--verify` (no-op
    /// without the flag).
    fn verify_program(
        &self,
        label: &str,
        program: &sc_isa::Program,
        config: &sc_verify::VerifyConfig,
    ) {
        if !self.opts.verify {
            return;
        }
        let verdict = sc_verify::verify_program(program, config);
        let detail = format!(
            "pressure {}/{}, scratch {} B",
            verdict.max_pressure, config.stream_registers, verdict.scratch_peak
        );
        self.note(Gate::Verify, label, verdict.verified(), &detail, verdict.report.diagnostics());
    }

    /// Statically verify a multicore partition of `total` items over
    /// `cores` cores under `--verify` (no-op without the flag): the static
    /// interleave's per-core write sets disjoint, a chunk plan disjoint
    /// and covering ([`sc_verify::verify_partition`]).
    pub fn verify_partition(
        &self,
        label: &str,
        partition: &sparsecore::Partition,
        cores: usize,
        total: usize,
    ) {
        if !self.opts.verify {
            return;
        }
        let verdict = sc_verify::verify_partition(partition, cores, total);
        let detail = format!("proof: {}", verdict.proof.name());
        self.note(Gate::Verify, label, verdict.verified(), &detail, &verdict.findings);
    }

    /// Count one obligation of `gate` and print its verdict. A failure
    /// also prints its `findings` and goes to the flight recorder.
    fn note(
        &self,
        gate: Gate,
        label: &str,
        ok: bool,
        detail: &str,
        findings: &[sc_lint::Diagnostic],
    ) {
        let (name, pass, fail) = match gate {
            Gate::Verify => ("verify", "VERIFIED", "REJECTED"),
            Gate::Cost => ("cost", "SOUND", "VIOLATION"),
        };
        {
            let mut out = self.out.borrow_mut();
            let tally = match gate {
                Gate::Verify => &mut out.verify,
                Gate::Cost => &mut out.cost,
            };
            tally.checked += 1;
            tally.failed += usize::from(!ok);
        }
        self.say(&format!("# {name}: {label}: {} ({detail})", if ok { pass } else { fail }));
        if !ok {
            for d in findings {
                self.say(&format!("#   {d}"));
            }
            let fields = [("label", label.to_string()), ("detail", detail.to_string())];
            flight::log(Level::Error, &self.opts.bench, &format!("{name} {fail}"), &fields);
        }
    }

    /// Queue one run record for this bench's current workload. No-op
    /// without `--record`. `cfg` is the simulated configuration (`None`
    /// for records that never ran the stream engine, e.g. dataset
    /// reports — their digest is 0). `baseline_cycles` is the comparison
    /// point when the workload measures a speedup, and `attr` is the
    /// cycle attribution of the run the bench took it from (empty when
    /// the run exports none).
    pub fn record(
        &self,
        workload: &str,
        cfg: Option<&SparseCoreConfig>,
        checksum: u64,
        cycles: u64,
        baseline_cycles: Option<u64>,
        attr: Attribution,
    ) {
        let now = Instant::now();
        let wall_ms = now.duration_since(self.last_mark.replace(now)).as_secs_f64() * 1e3;
        // Close the host phase window first, so its walls cover the same
        // span as `wall_ms`. Draining leaves the timers in the `record`
        // phase: the bookkeeping below is charged to the *next* window's
        // record bucket, and the tail switch below returns to `other`.
        let host = self.opts.host.then(|| self.close_host_window(workload));
        flight::log(
            Level::Debug,
            &self.opts.bench,
            workload,
            &[("cycles", cycles.to_string()), ("wall_ms", format!("{wall_ms:.2}"))],
        );
        let mut out = self.out.borrow_mut();
        // Drain span snapshots per workload even without --record, so
        // `--spans`/`--explain` work standalone. Draining here (at the
        // same call sites `--record` already requires) keeps each
        // workload's snapshots attributed to the right label.
        if self.opts.spans_on() {
            let snaps = out.probe.take_spans();
            if !snaps.is_empty() {
                out.spans.push((workload.to_string(), snaps));
            }
        }
        if self.opts.record.is_some() {
            out.records.push(RunRecord {
                bench: self.opts.bench.clone(),
                workload: workload.to_string(),
                git_sha: sc_report::current_git_sha(),
                config_digest: cfg.map_or(0, SparseCoreConfig::digest),
                checksum,
                cycles,
                baseline_cycles,
                wall_ms,
                attr: AttrBin::ALL.map(|bin| attr.get(bin)),
                cost: None,
                host,
            });
        }
        if self.opts.host {
            self.timers.borrow_mut().switch(Phase::Other);
        }
    }

    /// Drain the phase timers and allocator counters into one host
    /// section, print its `# host:` line and keep it for the summary.
    fn close_host_window(&self, workload: &str) -> HostSection {
        let walls = self.timers.borrow_mut().drain(Phase::Record);
        // Thread-local counters, so a sweep worker's per-workload alloc
        // deltas never include a sibling worker's traffic (the peak is
        // still the process-wide high-water mark).
        let alloc_now = sc_host::alloc::thread_stats();
        let delta = alloc_now.since(&self.last_alloc.replace(alloc_now));
        let section = HostSection {
            phase_ms: walls.ms,
            peak_rss_kb: sc_host::rss::peak_rss_kb(),
            alloc_count: delta.count,
            alloc_bytes: delta.bytes,
            alloc_peak_bytes: alloc_now.peak_live,
        };
        self.say(&format!(
            "# host: {workload}: wall {:.1} ms = {}; peak rss {}; allocs +{} (+{:.1} MB)",
            section.total_ms(),
            phase_split(&section.phase_ms),
            rss_mb(section.peak_rss_kb),
            section.alloc_count,
            section.alloc_bytes as f64 / (1024.0 * 1024.0),
        ));
        self.out.borrow_mut().host.push(section.clone());
        section
    }

    /// Records queued so far, each carrying the cost tally so far as its
    /// cost section; [`BenchCli::write_probe_outputs`] writes them with
    /// the final one.
    pub fn pending_records(&self) -> Vec<RunRecord> {
        let out = self.out.borrow();
        let cost = out.cost.section();
        out.records.iter().map(|r| RunRecord { cost, ..r.clone() }).collect()
    }

    /// Span documents drained so far: `(workload, per-core snapshots)`
    /// in workload order (tests inspect these without touching disk).
    pub fn pending_spans(&self) -> Vec<(String, Vec<SpanSnapshot>)> {
        self.out.borrow().spans.clone()
    }

    /// Write the `--trace` / `--metrics` output files and flush queued
    /// run records to the `--record` registry file, if requested. Call
    /// this once, after the last simulation finishes.
    ///
    /// # Panics
    ///
    /// Panics when an output file cannot be written — a bench run whose
    /// requested artifacts silently vanish is worse than a crash. Also
    /// panics when `--record` was given but the bench never called
    /// [`BenchCli::record`]: an empty registry append is the silent
    /// no-op the regression gate exists to catch. The same applies to
    /// `--verify` and `--cost` with zero checked obligations. When any
    /// obligation failed, the process exits with status 1 after all
    /// outputs are written, so CI fails loudly without losing the
    /// artifacts.
    pub fn write_probe_outputs(&self) {
        let opts = &*self.opts;
        let out = self.out.borrow();
        if let Some(path) = &opts.record {
            let records = self.pending_records();
            assert!(
                !records.is_empty(),
                "--record given but no workload produced a record (bench bug?)"
            );
            let total = sc_report::append_records(path, &records)
                .unwrap_or_else(|e| panic!("appending records: {e}"));
            println!(
                "# record: {} run records -> {} ({total} total)",
                records.len(),
                path.display()
            );
        }
        if let Some(path) = &opts.metrics {
            write_file(path, &out.probe.metrics_json());
            println!("# probe: metrics snapshot -> {}", path.display());
        }
        if let Some(path) = &opts.trace {
            write_file(path, &out.probe.trace_json(0));
            println!(
                "# probe: trace ({} events) -> {} (load in Perfetto / chrome://tracing)",
                out.probe.trace_len(),
                path.display()
            );
        }
        if opts.spans_on() {
            assert!(
                !out.spans.is_empty(),
                "--spans/--explain given but no workload produced span snapshots (bench bug?)"
            );
        }
        if let Some(path) = &opts.spans {
            write_file(path, &sc_probe::spans::render_doc(&out.spans));
            println!("# spans: {} workload span documents -> {}", out.spans.len(), path.display());
        }
        if let Some(path) = &opts.explain {
            let mut text = String::new();
            for (workload, snaps) in &out.spans {
                // `extract` re-proves conservation (critical-path
                // length == final simulated clock); a failure here is
                // a model bug and must not be written away quietly.
                let ex = sc_explain::extract(snaps)
                    .unwrap_or_else(|e| panic!("explain {workload}: {e}"));
                text.push_str(&format!("== {workload} ==\n"));
                text.push_str(&ex.render_text());
                text.push('\n');
                println!(
                    "# explain: {workload}: {} cycles on core {}",
                    ex.makespan, ex.critical_core
                );
            }
            write_file(path, &text);
            println!("# explain: critical-path report -> {}", path.display());
        }
        if opts.host {
            let sections = &out.host;
            assert!(
                !sections.is_empty(),
                "--host given but no workload produced a host section (bench bug?)"
            );
            let mut phase_ms = [0.0f64; Phase::COUNT];
            for s in sections {
                for (acc, ms) in phase_ms.iter_mut().zip(s.phase_ms) {
                    *acc += ms;
                }
            }
            let total_ms: f64 = phase_ms.iter().sum();
            let peak_kb = sections.iter().filter_map(|s| s.peak_rss_kb).max();
            let allocs: u64 = sections.iter().map(|s| s.alloc_count).sum();
            let alloc_mb: f64 =
                sections.iter().map(|s| s.alloc_bytes).sum::<u64>() as f64 / (1024.0 * 1024.0);
            // Under --jobs the per-workload walls overlap in real time,
            // so the sum is aggregate worker wall, not elapsed wall.
            let wall_kind = if opts.jobs > 1 { " aggregate worker wall" } else { "" };
            println!(
                "# host: total: {} workloads in {total_ms:.1} ms{wall_kind} ({:.1} records/s) = \
                 {}; peak rss {}; allocs {allocs} ({alloc_mb:.1} MB)",
                sections.len(),
                if total_ms > 0.0 { sections.len() as f64 / (total_ms / 1e3) } else { 0.0 },
                phase_split(&phase_ms),
                rss_mb(peak_kb),
            );
        }
        if opts.verify {
            let (checked, rejected) = out.verify.counts();
            assert!(checked > 0, "--verify given but the bench checked no obligation (bench bug?)");
            println!("# verify: {checked} obligations checked, {rejected} rejected");
            if rejected > 0 {
                eprintln!("error: {rejected} static-verification obligations REJECTED");
                flight::dump("nonzero exit: verify rejections");
                std::process::exit(1);
            }
        }
        if opts.cost {
            let (checked, violated) = out.cost.counts();
            assert!(checked > 0, "--cost given but the bench bounded no program (bench bug?)");
            println!(
                "# cost: {checked} programs bounded, {violated} violations, worst tightness {:.2}x",
                out.cost.worst
            );
            if violated > 0 {
                eprintln!("error: {violated} cost-soundness checks VIOLATED");
                flight::dump("nonzero exit: cost violations");
                std::process::exit(1);
            }
        }
    }
}

/// RAII host-phase scope from [`BenchCli::phase`]: restores the
/// previous phase when dropped. Inert when `--host` is off.
pub struct PhaseGuard<'a> {
    cli: &'a BenchCli,
    prev: Option<Phase>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            self.cli.timers.borrow_mut().switch(prev);
        }
    }
}

/// `generate 1.0 + emit 0.0 + ...`: per-phase walls in milliseconds.
fn phase_split(phase_ms: &[f64; Phase::COUNT]) -> String {
    Phase::ALL
        .iter()
        .map(|p| format!("{} {:.1}", p.name(), phase_ms[p.index()]))
        .collect::<Vec<_>>()
        .join(" + ")
}

fn rss_mb(kb: Option<u64>) -> String {
    kb.map_or("n/a".into(), |kb| format!("{:.1} MB", kb as f64 / 1024.0))
}

fn write_file(path: &std::path::Path, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cli(extra: &[&str]) -> BenchCli {
        cli_with(extra, &[])
    }

    fn argv(extra: &[&str]) -> Vec<String> {
        std::iter::once("prog").chain(extra.iter().copied()).map(String::from).collect()
    }

    fn cli_with(extra: &[&str], own: &[Flag]) -> BenchCli {
        BenchCli::try_from_args_with(argv(extra), own).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn defaults_are_off() {
        let c = cli_with(&[], BIN_FLAGS);
        assert!(!c.probe().enabled());
        assert!(!c.flag("--skip-fsm"));
        assert_eq!(c.datasets(&[Dataset::Citeseer]), vec![Dataset::Citeseer]);
    }

    #[test]
    fn output_paths_imply_levels() {
        assert_eq!(cli(&["--metrics", "/tmp/m.json"]).probe().level(), ProbeLevel::Metrics);
        // A record's values come from its run, so recording needs no probe.
        assert_eq!(cli(&["--record", "/tmp/reg.json"]).probe().level(), ProbeLevel::Off);
        assert_eq!(cli(&["--trace", "/tmp/t.json"]).probe().level(), ProbeLevel::Trace);
        // The trace level is never lowered by a metrics-level output.
        let c = cli(&["--metrics", "/tmp/m.json", "--trace", "/tmp/t.json"]);
        assert_eq!(c.probe().level(), ProbeLevel::Trace);
    }

    const BIN_FLAGS: &[Flag] = &[Flag::switch("--skip-fsm"), crate::DATASETS, crate::MATRICES];

    #[test]
    fn flags_and_values_read_through() {
        let c = cli_with(&["--skip-fsm", "--matrices", "C,E"], BIN_FLAGS);
        assert!(c.flag("--skip-fsm"));
        assert_eq!(c.value("--matrices"), Some("C,E"));
        assert_eq!(c.value("--datasets"), None);
    }

    #[test]
    fn equals_form_is_accepted_everywhere() {
        let c = cli_with(&["--matrices=C,E", "--metrics=/tmp/m.json"], BIN_FLAGS);
        assert_eq!(c.value("--matrices"), Some("C,E"));
        assert_eq!(c.probe().level(), ProbeLevel::Metrics);
        let c = cli_with(&["--datasets=E,W"], BIN_FLAGS);
        assert_eq!(c.datasets(&Dataset::ALL).len(), 2);
    }

    #[test]
    fn unknown_flag_is_a_hard_error() {
        let err = BenchCli::try_from_args_with(argv(&["--no-such-flag"]), BIN_FLAGS).unwrap_err();
        assert!(err.contains("--no-such-flag"), "{err}");
        // A flag the binary didn't declare is unknown to it.
        let err = BenchCli::try_from_args_with(argv(&["--skip-fsm"]), &[]).unwrap_err();
        assert!(err.contains("--skip-fsm"), "{err}");
        let err = BenchCli::try_from_args_with(argv(&["--datasets=C"]), &[]).unwrap_err();
        assert_eq!(err, "unknown flag '--datasets'");
    }

    #[test]
    fn missing_value_and_stray_positional_rejected() {
        let err = BenchCli::try_from_args_with(argv(&["--datasets"]), BIN_FLAGS).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let err = BenchCli::try_from_args_with(argv(&["oops"]), &[]).unwrap_err();
        assert!(err.contains("oops"), "{err}");
    }

    #[test]
    fn malformed_values_are_usage_errors() {
        // The cross-cutting checks, and the ones the multicore bins declare.
        let own = &[
            Flag::value("--cores").checked(args::positive),
            Flag::value("--chunk").checked(args::positive),
            Flag::value("--sched").checked(|v| {
                ensure(matches!(v, "static" | "dynamic" | "both"), "static, dynamic or both")
            }),
            crate::DATASETS,
            crate::MATRICES,
        ];
        for (flag, value) in [
            ("--jobs", "-2"),
            ("--jobs", "x"),
            ("--cores", "x"),
            ("--cores", "0"),
            ("--chunk", "x"),
            ("--chunk", "0"),
            ("--sched", "bogus"),
            ("--datasets", "Q"),
            ("--datasets", "C,Q"),
            ("--datasets", "C,"),
            ("--matrices", "Z"),
        ] {
            let err = BenchCli::try_from_args_with(argv(&[flag, value]), own).unwrap_err();
            assert_eq!(err.matches("expects").count(), 1, "{err}");
            assert!(err.starts_with(&format!("{flag} expects ")), "{err}");
            assert!(err.ends_with(&format!("got '{value}'")), "{err}");
        }
        // Well-formed values still parse, in either form.
        let c = cli_with(&["--cores=4", "--chunk", "8", "--sched", "both", "--jobs", "2"], own);
        assert_eq!((c.parsed("--cores"), c.parsed("--chunk")), (Some(4usize), Some(8usize)));
        assert_eq!((c.value("--sched"), c.jobs()), (Some("both"), 2));
    }

    #[test]
    fn dataset_filter_still_applies() {
        let c = cli_with(&["--datasets", "E,W"], BIN_FLAGS);
        assert_eq!(c.datasets(&Dataset::ALL).len(), 2);
    }

    #[test]
    fn record_queues_records() {
        let c = cli(&["--record", "/tmp/reg.json", "--metrics", "/tmp/m.json"]);
        assert!(c.recording());
        assert_eq!(c.probe().level(), ProbeLevel::Metrics);

        let cfg = SparseCoreConfig::paper();
        let mut attr = Attribution::default();
        attr.add(AttrBin::SuCompare, 40_000);
        attr.add(AttrBin::ScalarOverlap, 85_000);
        c.record("TC/C", Some(&cfg), 1458, 125_000, Some(1_690_000), attr);
        c.record("cdf/T", None, 7, 10, None, Attribution::default());
        let records = c.pending_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].bench, "prog");
        assert_eq!(records[0].config_digest, cfg.digest());
        // The bins are the ones handed over, in storage order.
        assert_eq!(records[0].attr, [40_000, 0, 0, 0, 85_000]);
        assert_eq!(records[1].attr, [0; 5]);
        assert!(records[0].wall_ms >= 0.0);
        assert_eq!(records[1].config_digest, 0);
        // Records round-trip through the registry schema.
        for r in &records {
            r.round_trip().unwrap();
        }
    }

    #[test]
    fn record_is_a_noop_without_the_flag() {
        let c = cli(&[]);
        assert!(!c.recording());
        c.record("TC/C", None, 1, 2, None, Attribution::default());
        assert!(c.pending_records().is_empty());
    }

    #[test]
    fn verify_is_a_noop_without_the_flag() {
        let c = cli(&[]);
        assert!(!c.verifying());
        let p: sc_isa::Program =
            [sc_isa::Instr::SFree { sid: sc_isa::StreamId::new(0) }].into_iter().collect();
        c.verify_program("bad", &p, &sc_verify::VerifyConfig::paper());
        // Would be rejected when on.
        c.verify_partition("plan", &sparsecore::Partition::Dynamic(Vec::new()), 1, 10);
        assert_eq!(c.verify_counts(), (0, 0));
    }

    #[test]
    fn verify_counts_verdicts_and_rejections() {
        use sc_isa::{Instr, Priority, StreamId};
        let c = cli(&["--verify"]);
        assert!(c.verifying());
        let clean: sc_isa::Program = [
            Instr::SRead { key_addr: 0x1000, len: 8, sid: StreamId::new(0), priority: Priority(0) },
            Instr::SFree { sid: StreamId::new(0) },
        ]
        .into_iter()
        .collect();
        c.verify_program("clean", &clean, &sc_verify::VerifyConfig::paper());
        assert_eq!(c.verify_counts(), (1, 0));
        // A use of a never-defined stream is rejected.
        let bad: sc_isa::Program =
            [Instr::SFetch { sid: StreamId::new(3), offset: 0 }].into_iter().collect();
        c.verify_program("bad", &bad, &sc_verify::VerifyConfig::paper());
        assert_eq!(c.verify_counts(), (2, 1));
        // Disjoint interleaved shards and a covering chunk plan verify.
        c.verify_partition("shards", &sparsecore::Partition::Static, 4, 103);
        let plan = sparsecore::Partition::Dynamic(sparsecore::chunks(103, 16));
        c.verify_partition("chunks", &plan, 4, 103);
        assert_eq!(c.verify_counts(), (4, 1));
    }

    #[test]
    fn spans_flag_enables_span_logging_and_drains_per_workload() {
        let c = cli(&["--spans", "/tmp/s.json"]);
        assert!(c.spans_on());
        // Spans imply the metrics level and flip the probe's span switch.
        assert_eq!(c.probe().level(), ProbeLevel::Metrics);
        assert!(c.probe().spans_on());

        // Simulate an engine submitting one snapshot per workload.
        let mut log = sc_probe::SpanLog::new(8);
        log.record(7, sc_probe::Site::Scalar);
        let mut totals = [0; sc_probe::Site::COUNT];
        totals[sc_probe::Site::Scalar as usize] = 7;
        c.probe().submit_spans(0, log.snapshot(0, totals));
        c.record("w1", None, 0, 7, None, Attribution::default());
        let docs = c.pending_spans();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].0, "w1");
        assert_eq!(docs[0].1[0].total, 7);
        // The drain is destructive: a second record without new
        // submissions adds no document.
        c.record("w2", None, 0, 0, None, Attribution::default());
        assert_eq!(c.pending_spans().len(), 1);
    }

    #[test]
    fn explain_implies_spans() {
        let c = cli(&["--explain", "/tmp/e.txt"]);
        assert!(c.spans_on());
        assert!(c.probe().spans_on());
    }

    #[test]
    fn spans_are_off_by_default() {
        let c = cli(&["--record", "/tmp/reg.json"]);
        assert!(!c.spans_on());
        assert!(!c.probe().spans_on());
        c.record("w", None, 0, 0, None, Attribution::default());
        assert!(c.pending_spans().is_empty());
    }

    #[test]
    fn host_sections_ride_on_records_and_phase_walls_sum_to_the_wall() {
        let c = cli(&["--record", "/tmp/reg.json", "--host"]);
        assert!(c.hosting());
        c.in_phase(Phase::Generate, || std::thread::sleep(std::time::Duration::from_millis(2)));
        {
            let _g = c.phase(Phase::Simulate);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        c.record("w1", None, 0, 10, None, Attribution::default());
        let records = c.pending_records();
        let h = records[0].host.as_ref().expect("--host attaches a section");
        assert!(h.get(Phase::Generate) >= 1.0, "{h:?}");
        assert!(h.get(Phase::Simulate) >= 1.0, "{h:?}");
        // The phase walls cover the record's wall window (same clock,
        // drained at the same call; allow scheduler-level skew).
        assert!(
            (h.total_ms() - records[0].wall_ms).abs() <= 0.5 + records[0].wall_ms * 0.05,
            "phase sum {} vs wall {}",
            h.total_ms(),
            records[0].wall_ms
        );
        if cfg!(target_os = "linux") {
            assert!(h.peak_rss_kb.unwrap() > 0, "peak RSS populated on Linux");
        }
        let v: Vec<u64> = Vec::with_capacity(1024);
        drop(v);
        c.record("w2", None, 0, 10, None, Attribution::default());
        let h2 = &c.pending_host()[1];
        assert!(h2.alloc_count > 0, "window delta counts allocations: {h2:?}");
        // Each record starts a fresh phase window.
        c.record("w3", None, 0, 10, None, Attribution::default());
        let h3 = c.pending_host().pop().unwrap();
        assert!(h3.get(Phase::Generate) < 1.0, "{h3:?}");
        // Records with host sections still round-trip the schema.
        for r in c.pending_records() {
            r.round_trip().unwrap();
        }
    }

    #[test]
    fn a_record_after_a_sweep_has_phase_walls_summing_to_its_wall() {
        for jobs in ["1", "2"] {
            let c = cli(&["--record", "/tmp/reg.json", "--host", "--jobs", jobs]);
            let items: Vec<u64> = (0..3).collect();
            c.sweep(&items, |w, &i| {
                w.in_phase(Phase::Simulate, || std::thread::sleep(Duration::from_millis(20)));
                w.record(&format!("w{i}"), None, 0, 1, None, Attribution::default());
            });
            c.in_phase(Phase::Simulate, || std::thread::sleep(Duration::from_millis(2)));
            c.record("after", None, 0, 1, None, Attribution::default());
            let r = c.pending_records().pop().unwrap();
            let h = r.host.expect("--host attaches a section");
            // The sweep's wall belongs to its items' records alone.
            assert!(
                (h.total_ms() - r.wall_ms).abs() <= 0.5 + r.wall_ms * 0.05,
                "jobs {jobs}: phase sum {} vs wall {}",
                h.total_ms(),
                r.wall_ms
            );
        }
    }

    #[test]
    fn host_off_means_no_sections_and_inert_scopes() {
        let c = cli(&["--record", "/tmp/reg.json"]);
        assert!(!c.hosting());
        assert_eq!(c.in_phase(Phase::Simulate, || 42), 42);
        let _g = c.phase(Phase::Generate);
        c.record("w", None, 0, 1, None, Attribution::default());
        assert!(c.pending_records()[0].host.is_none());
        assert!(c.pending_host().is_empty());
    }

    #[test]
    fn host_works_standalone_without_record() {
        let c = cli(&["--host"]);
        assert!(c.hosting());
        assert!(!c.recording());
        c.in_phase(Phase::Simulate, || ());
        c.record("w", None, 0, 1, None, Attribution::default());
        assert!(c.pending_records().is_empty(), "no --record, no records");
        assert_eq!(c.pending_host().len(), 1, "the host section is still produced");
    }

    /// Strip the wall-clock measurements a determinism comparison must
    /// ignore (they are timings, not model outputs).
    fn deterministic_view(records: Vec<RunRecord>) -> Vec<RunRecord> {
        records
            .into_iter()
            .map(|mut r| {
                r.wall_ms = 0.0;
                r.host = None;
                r
            })
            .collect()
    }

    #[test]
    fn sweep_returns_results_and_records_in_item_order() {
        let c = cli(&["--record", "/tmp/reg.json", "--jobs", "3"]);
        let items: Vec<u64> = (0..7).collect();
        let out = c.sweep(&items, |w, &i| {
            // Later items finish first, so completion order is the
            // reverse of item order.
            std::thread::sleep(std::time::Duration::from_millis((7 - i) * 2));
            w.record(&format!("w{i}"), None, i ^ 0xabc, 100 + i, None, Attribution::default());
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
        let records = c.pending_records();
        assert_eq!(records.len(), 7);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.workload, format!("w{i}"));
            assert_eq!(r.cycles, 100 + i as u64);
        }
    }

    #[test]
    fn sweep_serial_and_parallel_outputs_are_identical() {
        let run = |jobs: &str| {
            let c = cli(&["--record", "/tmp/reg.json", "--metrics", "/tmp/m.json", "--jobs", jobs]);
            let items: Vec<u64> = (0..6).collect();
            c.sweep(&items, |w, &i| {
                std::thread::sleep(std::time::Duration::from_millis((6 - i) * 2));
                let p = w.probe();
                p.gauge("attr.su_compare", (i * 7) as f64);
                p.gauge("attr.total", (i * 7) as f64);
                p.count("sweep.runs", 1);
                let mut attr = Attribution::default();
                attr.add(AttrBin::SuCompare, i * 7);
                let checksum = i.wrapping_mul(0x9e37);
                w.record(&format!("w{i}"), None, checksum, i * 1000, Some(i * 2000), attr);
            });
            c
        };
        let serial = run("1");
        let parallel = run("4");
        assert_eq!(
            deterministic_view(serial.pending_records()),
            deterministic_view(parallel.pending_records()),
        );
        // The merged parent registries match byte-for-byte too: counters
        // sum, gauges land in item order (last write wins, same winner).
        assert_eq!(serial.probe().metrics_json(), parallel.probe().metrics_json());
        assert_eq!(serial.probe().counter("sweep.runs"), 6);
    }

    #[test]
    fn sweep_seeds_workers_with_presweep_counters_and_merges_deltas() {
        let c = cli(&[
            "--record",
            "/tmp/reg.json",
            "--metrics",
            "/tmp/m.json",
            "--cost",
            "--verify",
            "--jobs",
            "2",
        ]);
        c.record("first", None, 0, 1, None, Attribution::default());
        // A pre-sweep obligation, as benches that cost-check shared
        // kernels before the workload loop do.
        c.cost_check("pre", true, "seed");
        c.verify_partition("pre", &sparsecore::Partition::Static, 4, 103);
        let items: Vec<u64> = (0..4).collect();
        c.sweep(&items, |w, &i| {
            w.cost_check(&format!("item{i}"), true, "per-item");
            w.record(&format!("w{i}"), None, 0, 1, None, Attribution::default());
        });
        assert_eq!(c.cost_counts(), (5, 0), "1 seed + 4 per-item obligations");
        assert_eq!(c.verify_counts(), (1, 0), "workers add no verify obligations here");
        // Every record, the one made before the first check included,
        // carries the whole tally the `sc-report tightness --require`
        // gate reads.
        let records = c.pending_records();
        assert_eq!(records.len(), 5);
        for r in &records {
            let tally = CostSection { checked: 5, violations: 0, tightness: 1.0 };
            assert_eq!(r.cost, Some(tally), "{}", r.workload);
        }
    }

    #[test]
    fn sweep_worker_output_flushes_to_the_parent_sink_in_item_order() {
        // Give the parent its own sink so the flush order is observable.
        let mut c = cli(&["--jobs", "4"]);
        c.capture_output();
        let items: Vec<u64> = (0..5).collect();
        c.sweep(&items, |w, &i| {
            std::thread::sleep(std::time::Duration::from_millis((5 - i) * 2));
            w.say(&format!("line {i}"));
        });
        assert_eq!(c.captured_output(), "line 0\nline 1\nline 2\nline 3\nline 4\n");
    }

    #[test]
    fn jobs_parses_auto_and_rejects_zero_width_garbage() {
        assert_eq!(cli(&[]).jobs(), 1);
        assert_eq!(cli(&["--jobs", "3"]).jobs(), 3);
        assert!(cli(&["--jobs", "auto"]).jobs() >= 1);
        assert!(cli(&["--jobs", "0"]).jobs() >= 1, "'0' means auto, not a zero-width pool");
        let err = std::panic::catch_unwind(|| cli(&["--jobs", "-2"]));
        assert!(err.is_err(), "negative widths are rejected");
    }
}
