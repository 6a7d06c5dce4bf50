//! Oracle test for the core model's host fast path: the branch-free
//! `Gshare::predict_and_update`, the MRU-hinted `Cache::access` and
//! `Cache::fill`, and `Core`'s branch-free cycle charging must behave
//! exactly like the reference models below, which keep the
//! straightforward form of each: a `match` on the 2-bit counter; a set
//! searched front to back whose LRU victim is removed with `swap_remove`
//! before the new line is pushed; and a core that charges cycles under
//! `if`s and retires completed loads on every load.
//!
//! After every step of a random stream the test compares return values,
//! every counter, the clock, and (for the caches) which lines are
//! resident.

use std::collections::VecDeque;

use proptest::prelude::*;
use sc_cpu::{Core, CoreConfig, CoreStats, Gshare};
use sc_mem::{Cache, CacheConfig, CacheStats, MemoryHierarchy};

/// Reference gshare: 2-bit saturating counters updated by a `match`.
struct RefGshare {
    table: Vec<u8>,
    history: u64,
    mask: u64,
    predictions: u64,
    mispredictions: u64,
}

impl RefGshare {
    fn new(history_bits: u32) -> Self {
        let entries = 1usize << history_bits;
        RefGshare {
            table: vec![1; entries],
            history: 0,
            mask: (entries as u64) - 1,
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = (((pc >> 2) ^ self.history) & self.mask) as usize;
        let counter = self.table[idx];
        let predicted_taken = counter >= 2;
        let correct = predicted_taken == taken;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        self.table[idx] = match (counter, taken) {
            (3, true) => 3,
            (c, true) => c + 1,
            (0, false) => 0,
            (c, false) => c - 1,
        };
        self.history = ((self.history << 1) | u64::from(taken)) & self.mask;
        correct
    }
}

/// Reference cache: true LRU over unordered sets of (tag, stamp).
struct RefCache {
    config: CacheConfig,
    sets: Vec<Vec<(u64, u64)>>,
    tick: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        RefCache {
            config,
            sets: vec![Vec::new(); config.num_sets() as usize],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn locate(&self, addr: u64) -> (u64, usize) {
        let line = addr / self.config.line_bytes;
        (line, (line % self.config.num_sets()) as usize)
    }

    fn access(&mut self, addr: u64) -> bool {
        let (line, idx) = self.locate(addr);
        self.tick += 1;
        let tick = self.tick;
        let ways = self.config.ways as usize;
        let set = &mut self.sets[idx];
        if let Some(entry) = set.iter_mut().find(|(tag, _)| *tag == line) {
            entry.1 = tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if set.len() >= ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("non-empty set");
            set.swap_remove(victim);
            self.stats.evictions += 1;
        }
        set.push((line, tick));
        false
    }

    fn fill(&mut self, addr: u64) {
        let (line, idx) = self.locate(addr);
        self.tick += 1;
        let tick = self.tick;
        let ways = self.config.ways as usize;
        let set = &mut self.sets[idx];
        if let Some(entry) = set.iter_mut().find(|(tag, _)| *tag == line) {
            entry.1 = tick;
            return;
        }
        if set.len() >= ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("non-empty set");
            set.swap_remove(victim);
            self.stats.evictions += 1;
        }
        set.push((line, tick));
        self.stats.fills += 1;
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let (line, idx) = self.locate(addr);
        let set = &mut self.sets[idx];
        match set.iter().position(|(tag, _)| *tag == line) {
            Some(pos) => {
                set.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let (line, idx) = self.locate(addr);
        self.sets[idx].iter().any(|(tag, _)| *tag == line)
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Reference core: `Core`'s cycle rules with a branch around each charge,
/// and completed loads retired on every load.
struct RefCore {
    config: CoreConfig,
    mem: MemoryHierarchy,
    predictor: RefGshare,
    cycle: u64,
    slack_uops: u64,
    outstanding: VecDeque<u64>,
    stats: CoreStats,
    /// `Breakdown::mispredict`.
    mispredict_cycles: u64,
    /// `Breakdown::cache`.
    stall_cycles: u64,
}

impl RefCore {
    fn new(config: CoreConfig) -> Self {
        RefCore {
            config,
            mem: MemoryHierarchy::new(config.mem),
            predictor: RefGshare::new(config.predictor_bits),
            cycle: 0,
            slack_uops: 0,
            outstanding: VecDeque::new(),
            stats: CoreStats::default(),
            mispredict_cycles: 0,
            stall_cycles: 0,
        }
    }

    fn stall(&mut self, cycles: u64) {
        self.cycle += cycles;
        self.stall_cycles += cycles;
    }

    fn ops(&mut self, n: u64) {
        self.stats.uops += n;
        let total = self.slack_uops + n;
        let width = u64::from(self.config.issue_width);
        if total < width {
            self.slack_uops = total;
            return;
        }
        self.cycle += total / width;
        self.slack_uops = total % width;
    }

    fn dependent_ops(&mut self, n: u64) {
        self.stats.uops += n;
        self.cycle += n;
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.stats.branches += 1;
        self.ops(1);
        if !self.predictor.predict_and_update(pc, taken) {
            self.stats.mispredicts += 1;
            self.cycle += self.config.mispredict_penalty;
            self.mispredict_cycles += self.config.mispredict_penalty;
        }
    }

    fn load(&mut self, addr: u64) {
        self.stats.loads += 1;
        self.ops(1);
        while let Some(&front) = self.outstanding.front() {
            if front <= self.cycle {
                self.outstanding.pop_front();
            } else {
                break;
            }
        }
        if self.outstanding.len() >= self.config.load_queue as usize {
            let oldest = self.outstanding.pop_front().expect("non-empty queue");
            if oldest > self.cycle {
                self.stall(oldest - self.cycle);
            }
        }
        let result = self.mem.load(addr);
        self.outstanding.push_back(self.cycle + result.latency);
    }

    fn load_use(&mut self, addr: u64) {
        self.stats.loads += 1;
        self.ops(1);
        let result = self.mem.load(addr);
        let hidden = self.config.mem.l1.latency;
        if result.latency > hidden {
            self.stall(result.latency - hidden);
        }
    }

    fn store(&mut self, addr: u64) {
        self.stats.stores += 1;
        self.ops(1);
        self.mem.store(addr);
    }
}

/// One core event: `(kind, value)`. Kinds: 0 `ops`, 1 `dependent_ops`,
/// 2 `branch`, 3 a random `load`, 4 the next `load` of a sequential key
/// walk, 5 `load_use`, 6 `store`.
type CoreOp = (u8, u64);

/// Run `ops` on a `Core` and the reference side by side.
fn check_core(config: CoreConfig, ops: &[CoreOp]) -> Result<(), String> {
    let mut core = Core::new(config);
    let mut oracle = RefCore::new(config);
    for (step, &(kind, v)) in ops.iter().enumerate() {
        // Random addresses span 512 KiB, past L1 and L2 of both configs.
        let random = (v % (1 << 16)) * 8;
        let sequential = 0x100_0000 + step as u64 * 4;
        match kind {
            0 => {
                core.ops(1 + v % 5);
                oracle.ops(1 + v % 5);
            }
            1 => {
                core.dependent_ops(v % 4);
                oracle.dependent_ops(v % 4);
            }
            2 => {
                let (pc, taken) = (0x100 + 4 * (v % 8), v & 8 != 0);
                core.branch(pc, taken);
                oracle.branch(pc, taken);
            }
            3 | 4 => {
                let addr = if kind == 3 { random } else { sequential };
                core.load(addr);
                oracle.load(addr);
            }
            5 => {
                core.load_use(random);
                oracle.load_use(random);
            }
            _ => {
                core.store(random);
                oracle.store(random);
            }
        }
        let ctx = format!("width {}, step {step}: op {kind} ({v})", config.issue_width);
        prop_assert_eq!(core.cycles(), oracle.cycle, "clock: {}", ctx);
        prop_assert_eq!(*core.stats(), oracle.stats, "counters: {}", ctx);
        prop_assert_eq!(core.breakdown().mispredict, oracle.mispredict_cycles, "{}", ctx);
        prop_assert_eq!(core.breakdown().cache, oracle.stall_cycles, "{}", ctx);
        prop_assert_eq!(core.breakdown().total(), core.cycles(), "{}", ctx);
        prop_assert_eq!(core.attribution().total(), core.cycles(), "{}", ctx);
        prop_assert_eq!(*core.mem().stats(), *oracle.mem.stats(), "{}", ctx);
    }
    Ok(())
}

/// The paper's core, the tiny test core, and the tiny core at issue
/// width 3 (a width that is not a power of two).
fn core_configs() -> [CoreConfig; 3] {
    [CoreConfig::paper(), CoreConfig::tiny(), CoreConfig { issue_width: 3, ..CoreConfig::tiny() }]
}

/// The paper's three levels plus a tiny 2-way cache. L3's 12288 sets are
/// not a power of two, so it indexes with `%` rather than a mask.
fn configs() -> [CacheConfig; 4] {
    [
        CacheConfig::l1d(),
        CacheConfig::l2(),
        CacheConfig::l3(),
        CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64, latency: 1 },
    ]
}

/// Sets an address stream touches: few enough that lines conflict.
const SETS: u64 = 3;

/// One cache operation: `(kind, set, tag, byte offset)`. Kinds 0..=5 are
/// demand accesses, 6..=7 fills, 8 an invalidation.
type Op = (u8, u64, u64, u64);

/// The byte address of `(set, tag, offset)` under `config`: tags range
/// over twice the associativity plus two, so sets overflow and evict.
fn addr_of(config: &CacheConfig, set: u64, tag: u64, offset: u64) -> u64 {
    let tags = 2 * u64::from(config.ways) + 2;
    ((tag % tags) * config.num_sets() + set) * config.line_bytes + offset % config.line_bytes
}

/// Run `ops` on the cache and the reference side by side.
fn check_cache(config: CacheConfig, ops: &[Op]) -> Result<(), String> {
    let mut cache = Cache::new(config);
    let mut oracle = RefCache::new(config);
    let tags = 2 * u64::from(config.ways) + 2;
    for (step, &(kind, set, tag, offset)) in ops.iter().enumerate() {
        let addr = addr_of(&config, set, tag, offset);
        let ctx = format!("{} ways, step {step}: op {kind} at {addr:#x}", config.ways);
        match kind {
            0..=5 => prop_assert_eq!(cache.access(addr), oracle.access(addr), "access: {}", ctx),
            6..=7 => {
                cache.fill(addr);
                oracle.fill(addr);
            }
            _ => prop_assert_eq!(
                cache.invalidate(addr),
                oracle.invalidate(addr),
                "invalidate: {}",
                ctx
            ),
        }
        prop_assert_eq!(*cache.stats(), oracle.stats, "counters: {}", ctx);
        // The step touched one set: every candidate line of it must agree.
        for t in 0..tags {
            let a = addr_of(&config, set, t, 0);
            prop_assert_eq!(cache.probe(a), oracle.probe(a), "resident {:#x}: {}", a, ctx);
        }
        prop_assert_eq!(cache.resident_lines(), oracle.resident_lines(), "{}", ctx);
    }
    Ok(())
}

/// A stream of `n` branch outcomes over a handful of PCs, so counters
/// saturate at both ends and histories alias.
fn branch_stream(n: usize) -> impl Strategy<Value = Vec<(u64, bool)>> {
    proptest::collection::vec((0u64..8, 0u8..4), 0..n).prop_map(|v| {
        // Bias one PC in four towards taken so counters sit at 3.
        v.into_iter()
            .map(|(pc, r)| (0x100 + 4 * pc, if pc % 4 == 0 { r != 0 } else { r < 2 }))
            .collect()
    })
}

#[test]
fn cache_matches_oracle_on_sequential_walks() {
    // Each line touched 16 times at rising offsets, as a walk over 4-byte
    // keys touches it, over more lines than a set holds, twice; a fill
    // and an invalidation are mixed in every 97 keys.
    for config in configs() {
        let mut ops = Vec::new();
        for pass in 0..2u64 {
            for k in 0..(40 * 16u64) {
                let kind = match (k + pass) % 97 {
                    0 => 6,
                    1 => 8,
                    _ => 0,
                };
                ops.push((kind, k / 16 % SETS, k / 16, (k % 16) * 4));
            }
        }
        check_cache(config, &ops).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gshare_matches_oracle(history_bits in 1u32..=12, outcomes in branch_stream(3000)) {
        let mut bp = Gshare::new(history_bits);
        let mut oracle = RefGshare::new(history_bits);
        for (step, &(pc, taken)) in outcomes.iter().enumerate() {
            prop_assert_eq!(
                bp.predict_and_update(pc, taken),
                oracle.predict_and_update(pc, taken),
                "step {} pc {:#x} taken {}", step, pc, taken
            );
            prop_assert_eq!(bp.predictions, oracle.predictions, "step {}", step);
            prop_assert_eq!(bp.mispredictions, oracle.mispredictions, "step {}", step);
        }
    }

    #[test]
    fn core_matches_oracle(ops in proptest::collection::vec((0u8..7, any::<u64>()), 0..600)) {
        for config in core_configs() {
            check_core(config, &ops)?;
        }
    }

    #[test]
    fn cache_matches_oracle(
        ops in proptest::collection::vec((0u8..9, 0u64..SETS, any::<u64>(), 0u64..64), 0..400),
    ) {
        for config in configs() {
            check_cache(config, &ops)?;
        }
    }
}
