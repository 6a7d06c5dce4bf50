//! SparseCore configuration (paper Table 2 plus SU micro-parameters).

use sc_cpu::CoreConfig;
use sc_mem::{ScratchpadConfig, StreamCacheConfig};

/// Full configuration of a SparseCore processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseCoreConfig {
    /// The conventional out-of-order core underneath.
    pub core: CoreConfig,
    /// Number of Stream Units (paper default: 4; Figure 12 sweeps 1–16).
    pub num_sus: usize,
    /// SU internal comparison buffer width in elements (paper: 16, double
    /// buffered).
    pub su_buffer: usize,
    /// Aggregate S-Cache + scratchpad bandwidth to the SUs in elements per
    /// cycle (paper: 2 cache lines = 32 elements; Figure 13 sweeps 2–64).
    pub stream_bandwidth: u64,
    /// Stream cache geometry (16 slots x 256 B in the paper).
    pub scache: StreamCacheConfig,
    /// Scratchpad for stream reuse (16 KiB in the paper).
    pub scratchpad: ScratchpadConfig,
    /// Outstanding line fills the S-Cache prefetcher sustains per stream
    /// (bounds the memory-side supply rate of a stream).
    pub prefetch_depth: u64,
    /// Nested-intersection translation buffer capacity (micro-op entries).
    pub translation_buffer: usize,
    /// Run the micro-architectural invariant sanitizer alongside the
    /// simulation. Defaults to on in debug builds; in release builds it is
    /// opt-in via the `SC_SANITIZE` environment variable (any value other
    /// than `0`) or by setting this field directly.
    pub sanitize: bool,
}

/// Default sanitizer enablement: always on under `debug_assertions`
/// (which covers `cargo test` of this workspace), opt-in through
/// `SC_SANITIZE` in release builds. The environment is read once.
pub fn default_sanitize() -> bool {
    static ENV: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    cfg!(debug_assertions)
        || *ENV.get_or_init(|| std::env::var("SC_SANITIZE").is_ok_and(|v| v != "0"))
}

impl SparseCoreConfig {
    /// The paper's Table 2 configuration.
    pub fn paper() -> Self {
        SparseCoreConfig {
            core: CoreConfig::paper(),
            num_sus: 4,
            su_buffer: 16,
            stream_bandwidth: 32,
            scache: StreamCacheConfig::paper(),
            scratchpad: ScratchpadConfig::paper(),
            prefetch_depth: 8,
            translation_buffer: 32,
            sanitize: default_sanitize(),
        }
    }

    /// Paper configuration with a single SU (used for the accelerator
    /// comparisons in Sections 6.3.1 and 6.9.2, which enable one
    /// computation unit per design for fairness).
    pub fn paper_one_su() -> Self {
        SparseCoreConfig { num_sus: 1, ..Self::paper() }
    }

    /// Paper configuration with `n` SUs (Figure 12 sweep).
    pub fn with_sus(n: usize) -> Self {
        SparseCoreConfig { num_sus: n, ..Self::paper() }
    }

    /// Paper configuration with the given aggregate stream bandwidth in
    /// elements/cycle (Figure 13 sweep).
    pub fn with_bandwidth(elements_per_cycle: u64) -> Self {
        SparseCoreConfig { stream_bandwidth: elements_per_cycle, ..Self::paper() }
    }

    /// Small configuration for unit tests (tiny caches, 2 SUs).
    pub fn tiny() -> Self {
        SparseCoreConfig {
            core: CoreConfig::tiny(),
            num_sus: 2,
            su_buffer: 4,
            stream_bandwidth: 8,
            scache: StreamCacheConfig {
                slots: 8,
                slot_keys: 16,
                key_bytes: 4,
                elements_per_cycle: 8,
            },
            scratchpad: ScratchpadConfig { size_bytes: 1024, latency: 2 },
            prefetch_depth: 4,
            translation_buffer: 8,
            sanitize: default_sanitize(),
        }
    }

    /// Number of stream registers (= S-Cache slots).
    pub fn num_stream_registers(&self) -> usize {
        self.scache.slots
    }

    /// The short-stream (`SC-W204`) thresholds of this hardware: one
    /// refill line of keys (`l2.line_bytes / scache.key_bytes`) and the
    /// worst `l2 + l3 + dram` warmup walk it must amortize. The one
    /// derivation both the interpreter's lint gate and `sc-cost` use.
    pub fn perf_thresholds(&self) -> sc_lint::PerfThresholds {
        let mem = &self.core.mem;
        sc_lint::PerfThresholds::derive(
            mem.l2.line_bytes,
            self.scache.key_bytes,
            mem.l2.latency + mem.l3.latency + mem.dram_latency,
        )
    }

    /// A stable 64-bit digest of every model-affecting parameter, used by
    /// the run-record registry (`sc-report`) to decide whether two bench
    /// runs are comparable. Two properties matter:
    ///
    /// * **Field-order independence** — each `(path, value)` pair is
    ///   hashed on its own and the pair hashes are combined with a
    ///   commutative wrapping add, so reordering struct fields (or the
    ///   enumeration below) cannot change the digest. Only renaming a
    ///   field path, changing a value, or adding/removing a parameter
    ///   does — exactly the changes that make runs incomparable.
    /// * **`sanitize` is excluded** — the invariant sanitizer observes
    ///   the model without changing its results, so records taken with
    ///   and without `SC_SANITIZE` stay mutually comparable.
    pub fn digest(&self) -> u64 {
        self.digest_fields()
            .iter()
            .fold(0u64, |acc, (path, v)| acc.wrapping_add(field_hash(path, *v)))
    }

    /// The `(path, value)` pairs [`Self::digest`] hashes. Kept separate so
    /// the order-independence test can recombine them in shuffled order.
    /// The cache level is part of each path, so L1 and L2 swapping
    /// geometries changes the digest even though the multiset of values
    /// would be identical.
    fn digest_fields(&self) -> Vec<(&'static str, u64)> {
        let (l1, l2, l3) = (&self.core.mem.l1, &self.core.mem.l2, &self.core.mem.l3);
        vec![
            ("core.issue_width", self.core.issue_width as u64),
            ("core.rob_size", self.core.rob_size as u64),
            ("core.load_queue", self.core.load_queue as u64),
            ("core.mispredict_penalty", self.core.mispredict_penalty),
            ("core.predictor_bits", self.core.predictor_bits as u64),
            ("core.mem.dram_latency", self.core.mem.dram_latency),
            ("core.mem.l1.size_bytes", l1.size_bytes),
            ("core.mem.l1.ways", l1.ways as u64),
            ("core.mem.l1.line_bytes", l1.line_bytes),
            ("core.mem.l1.latency", l1.latency),
            ("core.mem.l2.size_bytes", l2.size_bytes),
            ("core.mem.l2.ways", l2.ways as u64),
            ("core.mem.l2.line_bytes", l2.line_bytes),
            ("core.mem.l2.latency", l2.latency),
            ("core.mem.l3.size_bytes", l3.size_bytes),
            ("core.mem.l3.ways", l3.ways as u64),
            ("core.mem.l3.line_bytes", l3.line_bytes),
            ("core.mem.l3.latency", l3.latency),
            ("num_sus", self.num_sus as u64),
            ("su_buffer", self.su_buffer as u64),
            ("stream_bandwidth", self.stream_bandwidth),
            ("scache.slots", self.scache.slots as u64),
            ("scache.slot_keys", self.scache.slot_keys as u64),
            ("scache.key_bytes", self.scache.key_bytes),
            ("scache.elements_per_cycle", self.scache.elements_per_cycle),
            ("scratchpad.size_bytes", self.scratchpad.size_bytes),
            ("scratchpad.latency", self.scratchpad.latency),
            ("prefetch_depth", self.prefetch_depth),
            ("translation_buffer", self.translation_buffer as u64),
        ]
    }
}

/// FNV-1a over the field path and the value's little-endian bytes. Each
/// pair hashes independently of every other, which is what lets the
/// combination step be commutative.
fn field_hash(path: &str, value: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in path.as_bytes().iter().chain(&value.to_le_bytes()) {
        h ^= *b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_table2() {
        let c = SparseCoreConfig::paper();
        assert_eq!(c.core.rob_size, 128);
        assert_eq!(c.core.load_queue, 32);
        assert_eq!(c.scache.slot_bytes(), 256);
        assert_eq!(c.scratchpad.size_bytes, 16 << 10);
        assert_eq!(c.num_sus, 4);
        assert_eq!(c.num_stream_registers(), 16);
    }

    #[test]
    fn sweep_constructors() {
        assert_eq!(SparseCoreConfig::paper_one_su().num_sus, 1);
        assert_eq!(SparseCoreConfig::with_sus(16).num_sus, 16);
        assert_eq!(SparseCoreConfig::with_bandwidth(64).stream_bandwidth, 64);
    }

    #[test]
    fn digest_is_field_order_independent() {
        let c = SparseCoreConfig::paper();
        let fields = c.digest_fields();
        // Recombine the pair hashes in reversed and in interleaved order;
        // the commutative combination must land on the same digest.
        let reversed =
            fields.iter().rev().fold(0u64, |acc, (p, v)| acc.wrapping_add(field_hash(p, *v)));
        assert_eq!(reversed, c.digest());
        let mut shuffled: Vec<_> =
            fields.iter().step_by(2).chain(fields.iter().skip(1).step_by(2)).collect();
        shuffled.reverse();
        let interleaved =
            shuffled.iter().fold(0u64, |acc, (p, v)| acc.wrapping_add(field_hash(p, *v)));
        assert_eq!(interleaved, c.digest());
    }

    #[test]
    fn digest_ignores_sanitize_but_not_model_fields() {
        let mut a = SparseCoreConfig::paper();
        let mut b = SparseCoreConfig::paper();
        a.sanitize = false;
        b.sanitize = true;
        // Sanitizer on/off observes the model without changing results, so
        // records from both stay comparable. Default construction paths
        // (paper() under any SC_SANITIZE setting) agree too.
        assert_eq!(a.digest(), b.digest());
        assert_eq!(SparseCoreConfig::paper().digest(), SparseCoreConfig::with_sus(4).digest());

        // Any model-affecting field must move the digest.
        assert_ne!(SparseCoreConfig::paper().digest(), SparseCoreConfig::tiny().digest());
        assert_ne!(SparseCoreConfig::paper().digest(), SparseCoreConfig::paper_one_su().digest());
        assert_ne!(
            SparseCoreConfig::paper().digest(),
            SparseCoreConfig::with_bandwidth(64).digest()
        );
        let mut no_sp = SparseCoreConfig::paper();
        no_sp.scratchpad.size_bytes = 0;
        assert_ne!(SparseCoreConfig::paper().digest(), no_sp.digest());
    }

    #[test]
    fn digest_distinguishes_same_value_in_different_fields() {
        // Swapping two equal-typed fields' values must change the digest,
        // because the path is hashed with the value.
        let mut a = SparseCoreConfig::paper();
        a.prefetch_depth = 8;
        a.translation_buffer = 32;
        let mut b = a;
        b.prefetch_depth = 32;
        b.translation_buffer = 8;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_is_reproducible_across_calls() {
        let c = SparseCoreConfig::paper();
        assert_eq!(c.digest(), c.digest());
        assert_eq!(c.digest(), SparseCoreConfig::paper().digest());
    }

    #[test]
    fn sanitizer_default_follows_the_build() {
        // On under debug_assertions; in a release build, on exactly when
        // SC_SANITIZE is set to anything but `0`.
        let want = cfg!(debug_assertions) || std::env::var("SC_SANITIZE").is_ok_and(|v| v != "0");
        assert_eq!(default_sanitize(), want);
        assert_eq!(SparseCoreConfig::paper().sanitize, want);
        assert_eq!(SparseCoreConfig::tiny().sanitize, want);
        assert_eq!(SparseCoreConfig::paper_one_su().sanitize, want);
    }
}
