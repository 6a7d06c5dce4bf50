//! Straight-line program interpreter for [`sc_isa::Program`].
//!
//! The engine API is what compilers target; this interpreter closes the
//! loop for raw assembly: given a [`MemImage`] describing the functional
//! content behind each address, it executes every instruction of a
//! [`Program`] on an [`Engine`] and collects the scalar results
//! (`S_FETCH` elements, `.C` counts, `S_VINTER` reductions).

use crate::engine::{Engine, SliceNestedSource};
use crate::su;
use sc_isa::{Instr, Key, Program, StreamException, Value};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Functional memory image: sorted key arrays (and value arrays) planted
/// at simulated addresses.
///
/// # Example
///
/// ```
/// use sparsecore::MemImage;
///
/// let mut img = MemImage::new();
/// img.add_keys(0x1000, vec![1, 2, 3]);
/// assert_eq!(img.keys_at(0x1000, 3).unwrap(), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    keys: BTreeMap<u64, Vec<Key>>,
    vals: BTreeMap<u64, Vec<Value>>,
    /// Adjacency lists for `S_NESTINTER` (vertex -> edge list), if any.
    nested: Option<SliceNestedSource>,
}

impl MemImage {
    /// An empty image.
    pub fn new() -> Self {
        MemImage::default()
    }

    /// Plant a key array at `addr`.
    pub fn add_keys(&mut self, addr: u64, keys: Vec<Key>) {
        self.keys.insert(addr, keys);
    }

    /// Plant a value array at `addr`.
    pub fn add_values(&mut self, addr: u64, vals: Vec<Value>) {
        self.vals.insert(addr, vals);
    }

    /// Provide the adjacency table used by `S_NESTINTER`.
    pub fn set_nested_source(&mut self, source: SliceNestedSource) {
        self.nested = Some(source);
    }

    /// The key slice of length `len` at exactly `addr`.
    pub fn keys_at(&self, addr: u64, len: u32) -> Option<&[Key]> {
        let keys = self.keys.get(&addr)?;
        keys.get(..len as usize)
    }

    /// The value slice of length `len` at exactly `addr`.
    pub fn values_at(&self, addr: u64, len: u32) -> Option<&[Value]> {
        let vals = self.vals.get(&addr)?;
        vals.get(..len as usize)
    }
}

/// A scalar produced during interpretation, in program order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarResult {
    /// An `S_FETCH` element (possibly [`sc_isa::EOS`]).
    Fetched(Key),
    /// A `.C` count or `S_NESTINTER` total.
    Count(u64),
    /// An `S_VINTER` reduction.
    Reduced(Value),
}

/// Interpretation error: an architectural exception, a memory image gap,
/// or a static rejection by the linter.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// The program raised a stream exception at instruction `at`.
    Exception {
        /// Instruction index.
        at: usize,
        /// The architectural exception.
        cause: StreamException,
    },
    /// An `S_READ`/`S_VREAD` referenced an address the image does not
    /// cover.
    MissingData {
        /// Instruction index.
        at: usize,
        /// The unmapped address.
        addr: u64,
    },
    /// `S_NESTINTER` was executed but the image has no adjacency table.
    MissingNestedSource {
        /// Instruction index.
        at: usize,
    },
    /// [`Interpreter::lint_before_run`] was enabled and static analysis
    /// found error-level diagnostics; nothing was executed. The full
    /// report is attached.
    LintRejected(sc_lint::Report),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Exception { at, cause } => {
                write!(f, "instruction {at}: {cause}")
            }
            InterpError::MissingData { at, addr } => {
                write!(f, "instruction {at}: no data at {addr:#x} in memory image")
            }
            InterpError::MissingNestedSource { at } => {
                write!(f, "instruction {at}: S_NESTINTER without a nested source")
            }
            InterpError::LintRejected(report) => {
                let (errors, _, _) = report.counts();
                write!(f, "program rejected by static analysis ({errors} error(s)):")?;
                for d in report.diagnostics() {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for InterpError {}

/// Executes programs against an engine + memory image.
#[derive(Debug)]
pub struct Interpreter<'a> {
    engine: &'a mut Engine,
    image: &'a MemImage,
    lint_before_run: bool,
}

impl<'a> Interpreter<'a> {
    /// Bind an engine and an image.
    pub fn new(engine: &'a mut Engine, image: &'a MemImage) -> Self {
        Interpreter { engine, image, lint_before_run: false }
    }

    /// Statically analyze each program with `sc-lint` before executing
    /// it; error-level findings abort the run with
    /// [`InterpError::LintRejected`] *before* any instruction executes.
    /// The lint model is derived from the engine: its configured
    /// stream-register count and whether virtualization is enabled.
    pub fn lint_before_run(mut self, on: bool) -> Self {
        self.lint_before_run = on;
        self
    }

    /// The lint configuration matching this interpreter's engine: its
    /// stream-register count, virtualization mode, and perf thresholds
    /// derived from the same memory hierarchy the engine simulates.
    fn lint_config(&self) -> sc_lint::LintConfig {
        let cfg = self.engine.config();
        sc_lint::LintConfig::default()
            .stream_registers(cfg.num_stream_registers())
            .virtualization(self.engine.virtualization_enabled())
            .perf_thresholds(cfg.perf_thresholds())
    }

    /// Run the program to completion, returning the scalar results in
    /// program order.
    ///
    /// # Errors
    ///
    /// [`InterpError`] at the first failing instruction, or
    /// [`InterpError::LintRejected`] up front when
    /// [`lint_before_run`](Interpreter::lint_before_run) is enabled and
    /// the program has error-level lint findings.
    pub fn run(&mut self, program: &Program) -> Result<Vec<ScalarResult>, InterpError> {
        if self.lint_before_run {
            let report = sc_lint::lint(program, &self.lint_config());
            if report.has_errors() {
                return Err(InterpError::LintRejected(report));
            }
        }
        let mut out = Vec::new();
        for (at, instr) in program.iter().enumerate() {
            self.step(at, instr, &mut out)?;
        }
        Ok(out)
    }

    fn step(
        &mut self,
        at: usize,
        instr: &Instr,
        out: &mut Vec<ScalarResult>,
    ) -> Result<(), InterpError> {
        let exc = |cause| InterpError::Exception { at, cause };
        match *instr {
            Instr::SRead { key_addr, len, sid, priority } => {
                let keys = self
                    .image
                    .keys_at(key_addr, len)
                    .ok_or(InterpError::MissingData { at, addr: key_addr })?;
                self.engine.s_read(key_addr, keys, sid, priority).map_err(exc)?;
            }
            Instr::SVRead { key_addr, len, sid, val_addr, priority } => {
                let keys = self
                    .image
                    .keys_at(key_addr, len)
                    .ok_or(InterpError::MissingData { at, addr: key_addr })?;
                let vals = self
                    .image
                    .values_at(val_addr, len)
                    .ok_or(InterpError::MissingData { at, addr: val_addr })?;
                self.engine.s_vread(key_addr, keys, val_addr, vals, sid, priority).map_err(exc)?;
            }
            Instr::SFree { sid } => {
                self.engine.s_free(sid).map_err(exc)?;
            }
            Instr::SFetch { sid, offset } => {
                let k = self.engine.s_fetch(sid, offset).map_err(exc)?;
                out.push(ScalarResult::Fetched(k));
            }
            Instr::SInter { a, b, out: o, bound } => {
                self.engine.s_inter(a, b, o, bound).map_err(exc)?;
            }
            Instr::SInterC { a, b, bound } => {
                let n = self.engine.s_inter_c(a, b, bound).map_err(exc)?;
                out.push(ScalarResult::Count(n));
            }
            Instr::SSub { a, b, out: o, bound } => {
                self.engine.s_sub(a, b, o, bound).map_err(exc)?;
            }
            Instr::SSubC { a, b, bound } => {
                let n = self.engine.s_sub_c(a, b, bound).map_err(exc)?;
                out.push(ScalarResult::Count(n));
            }
            Instr::SMerge { a, b, out: o } => {
                self.engine.s_merge(a, b, o).map_err(exc)?;
            }
            Instr::SMergeC { a, b } => {
                let n = self.engine.s_merge_c(a, b).map_err(exc)?;
                out.push(ScalarResult::Count(n));
            }
            Instr::SVInter { a, b, op } => {
                let v = self.engine.s_vinter(a, b, op).map_err(exc)?;
                out.push(ScalarResult::Reduced(v));
            }
            Instr::SVMerge { scale_a, scale_b, a, b, out: o } => {
                self.engine.s_vmerge(scale_a, scale_b, a, b, o).map_err(exc)?;
            }
            Instr::SLdGfr { gfr } => {
                self.engine.s_ld_gfr(gfr);
            }
            Instr::SNestInter { sid } => {
                let source =
                    self.image.nested.as_ref().ok_or(InterpError::MissingNestedSource { at })?;
                let n = self.engine.s_nestinter(sid, source).map_err(exc)?;
                out.push(ScalarResult::Count(n));
            }
        }
        // Keep SU types referenced so docs can link them.
        let _ = su::SuOp::Intersect;
        Ok(())
    }
}

impl Engine {
    /// Lint `program` against this engine's hardware model, then execute
    /// it over `image` — the one-call path compilers and tests use.
    /// Equivalent to `Interpreter::new(self, image).lint_before_run(true)`.
    ///
    /// # Errors
    ///
    /// [`InterpError::LintRejected`] (with the full report, before any
    /// instruction executes) if static analysis finds errors, otherwise
    /// any [`InterpError`] execution raises.
    pub fn run_program(
        &mut self,
        program: &Program,
        image: &MemImage,
    ) -> Result<Vec<ScalarResult>, InterpError> {
        Interpreter::new(self, image).lint_before_run(true).run(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseCoreConfig;
    use sc_isa::parse_program;

    /// Tests return `Result` and propagate with `?` so a malformed
    /// program or fixture surfaces as a typed failure, never an abort.
    type TestResult = Result<(), Box<dyn Error>>;

    fn setup() -> (Engine, MemImage) {
        let mut img = MemImage::new();
        img.add_keys(0x1000, vec![1, 3, 5, 7, 9]);
        img.add_keys(0x2000, vec![3, 4, 5, 6, 7]);
        img.add_values(0x3000, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        img.add_values(0x4000, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        (Engine::new(SparseCoreConfig::tiny()), img)
    }

    #[test]
    fn assembled_program_runs() -> TestResult {
        let (mut e, img) = setup();
        let p = parse_program(
            "S_READ 0x1000, 5, s0, 0\n\
             S_READ 0x2000, 5, s1, 0\n\
             S_INTER.C s0, s1, -1\n\
             S_FREE s0\n\
             S_FREE s1\n",
        )?;
        let results = Interpreter::new(&mut e, &img).run(&p)?;
        assert_eq!(results, vec![ScalarResult::Count(3)]);
        Ok(())
    }

    #[test]
    fn fetch_loop_with_eos() -> TestResult {
        let (mut e, img) = setup();
        let p = parse_program(
            "S_READ 0x1000, 5, s0, 0\n\
             S_READ 0x2000, 5, s1, 0\n\
             S_INTER s0, s1, s2, -1\n\
             S_FETCH s2, 0\n\
             S_FETCH s2, 1\n\
             S_FETCH s2, 2\n\
             S_FETCH s2, 3\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\n",
        )?;
        let results = Interpreter::new(&mut e, &img).run(&p)?;
        assert_eq!(
            results,
            vec![
                ScalarResult::Fetched(3),
                ScalarResult::Fetched(5),
                ScalarResult::Fetched(7),
                ScalarResult::Fetched(sc_isa::EOS),
            ]
        );
        Ok(())
    }

    #[test]
    fn vinter_through_program() -> TestResult {
        let (mut e, img) = setup();
        let p = parse_program(
            "S_VREAD 0x1000, 5, s0, 0x3000, 0\n\
             S_VREAD 0x2000, 5, s1, 0x4000, 0\n\
             S_VINTER s0, s1, MAC\n\
             S_FREE s0\nS_FREE s1\n",
        )?;
        let results = Interpreter::new(&mut e, &img).run(&p)?;
        // Matches: key 3 (2.0 * 10.0), key 5 (3.0 * 30.0), key 7 (4.0 * 50.0)
        // a = [1,3,5,7,9] vals [1,2,3,4,5]; b = [3,4,5,6,7] vals [10,20,30,40,50].
        // 3 -> 2*10=20; 5 -> 3*30=90; 7 -> 4*50=200. total 310.
        assert_eq!(results, vec![ScalarResult::Reduced(310.0)]);
        Ok(())
    }

    #[test]
    fn missing_data_reported() -> TestResult {
        let (mut e, img) = setup();
        let p = parse_program("S_READ 0x9999, 5, s0, 0\n")?;
        let err =
            Interpreter::new(&mut e, &img).run(&p).expect_err("address 0x9999 is not in the image");
        assert_eq!(err, InterpError::MissingData { at: 0, addr: 0x9999 });
        Ok(())
    }

    #[test]
    fn exception_reported_with_index() -> TestResult {
        let (mut e, img) = setup();
        let p = parse_program("S_FREE s5\n")?;
        let err = Interpreter::new(&mut e, &img).run(&p).expect_err("s5 was never defined");
        match err {
            InterpError::Exception { at: 0, cause: StreamException::FreeUnmapped(_) } => Ok(()),
            other => Err(format!("unexpected {other:?}").into()),
        }
    }

    #[test]
    fn nested_without_source_reported() -> TestResult {
        let (mut e, img) = setup();
        let p = parse_program("S_READ 0x1000, 5, s0, 0\nS_NESTINTER s0\n")?;
        let err = Interpreter::new(&mut e, &img).run(&p).expect_err("no nested source set");
        assert_eq!(err, InterpError::MissingNestedSource { at: 1 });
        Ok(())
    }

    #[test]
    fn nested_with_source() -> TestResult {
        let (mut e, mut img) = setup();
        let lists = vec![vec![1, 2], vec![0, 2], vec![0, 1], vec![]];
        img.set_nested_source(SliceNestedSource::new(lists, 0x8000));
        img.add_keys(0x7000, vec![0, 1, 2]);
        let p = parse_program(
            "S_LD_GFR 0x100, 0x8000, 0x200\n\
             S_READ 0x7000, 3, s0, 0\n\
             S_NESTINTER s0\n\
             S_FREE s0\n",
        )?;
        let results = Interpreter::new(&mut e, &img).run(&p)?;
        // Stream [0,1,2] over triangle 0-1-2: s_i=0 -> 0; s_i=1 -> |{0}|=1;
        // s_i=2 -> |{0,1}|=2. Total 3.
        assert_eq!(results, vec![ScalarResult::Count(3)]);
        Ok(())
    }

    #[test]
    fn full_program_timing_positive() -> TestResult {
        let (mut e, img) = setup();
        let p = parse_program(
            "S_READ 0x1000, 5, s0, 0\nS_READ 0x2000, 5, s1, 0\nS_MERGE.C s0, s1\nS_FREE s0\nS_FREE s1\n",
        )?;
        Interpreter::new(&mut e, &img).run(&p)?;
        assert!(e.finish() > 0);
        Ok(())
    }

    #[test]
    fn lint_before_run_rejects_before_executing() -> TestResult {
        let (mut e, img) = setup();
        // Use-after-free: the linter must reject it before a single
        // instruction (and thus cycle) executes.
        let p = parse_program("S_READ 0x1000, 5, s0, 0\nS_FREE s0\nS_FETCH s0, 0\n")?;
        let err = Interpreter::new(&mut e, &img)
            .lint_before_run(true)
            .run(&p)
            .expect_err("lint must reject the use-after-free");
        match err {
            InterpError::LintRejected(report) => {
                assert!(report.has_errors());
                assert_eq!(e.cycles(), 0, "rejection must precede execution");
                Ok(())
            }
            other => Err(format!("unexpected {other:?}").into()),
        }
    }

    #[test]
    fn lint_before_run_accepts_clean_programs() -> TestResult {
        let (mut e, img) = setup();
        let p = parse_program(
            "S_READ 0x1000, 5, s0, 0\nS_READ 0x2000, 5, s1, 0\nS_INTER.C s0, s1, -1\nS_FREE s0\nS_FREE s1\n",
        )?;
        let results = e.run_program(&p, &img)?;
        assert_eq!(results, vec![ScalarResult::Count(3)]);
        Ok(())
    }

    #[test]
    fn lint_model_tracks_engine_capacity() -> TestResult {
        // tiny() has 8 stream registers: 9 live streams must be rejected
        // statically, matching what execution would hit dynamically.
        let (mut e, mut img) = setup();
        let mut text = String::new();
        for n in 0..9 {
            let addr = 0x1000_0000u64 + n * 0x100;
            img.add_keys(addr, vec![1, 2, 3]);
            text.push_str(&format!("S_READ {addr:#x}, 3, s{n}, 0\n"));
        }
        text.push_str("S_MERGE.C s0, s1\n");
        for n in 0..9 {
            text.push_str(&format!("S_FREE s{n}\n"));
        }
        let p = parse_program(&text)?;
        let err = e.run_program(&p, &img).expect_err("9 streams exceed tiny()'s 8 registers");
        match err {
            InterpError::LintRejected(report) => {
                assert!(report
                    .diagnostics()
                    .iter()
                    .any(|d| d.code == sc_lint::LintCode::RegisterPressure));
                Ok(())
            }
            other => Err(format!("unexpected {other:?}").into()),
        }
    }
}
