//! What the verifier assumes about the machine a program runs on.

use sc_isa::Interval;

/// Context the verifier assumes about the machine the program will run
/// on. Mirrors the execution context of [`sparsecore::Engine`]: register
/// capacity, scratchpad size, the output-region allocator base, and the
/// address ranges declared read-only by the parallel drivers.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Stream-register (= S-Cache slot) capacity.
    pub stream_registers: usize,
    /// Scratchpad capacity in bytes (priority streams pin their keys
    /// here).
    pub scratchpad_bytes: u64,
    /// SMT virtualization: pressure beyond capacity spills instead of
    /// faulting, so exceeding it downgrades to a note.
    pub virtualization: bool,
    /// Base of the engine's bump allocator for materialized output
    /// streams.
    pub out_alloc_base: u64,
    /// Read-only ranges (the shared graph of a parallel run): any
    /// write-set reaching one is an `SC-S310` violation.
    pub protected: Vec<Interval>,
}

/// The engine's output-region allocator base (see `Engine::new`).
pub const OUT_ALLOC_BASE: u64 = 0xC000_0000;

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig::paper()
    }
}

impl VerifyConfig {
    /// The paper's hardware: 16 stream registers, 16 KiB scratchpad.
    pub fn paper() -> Self {
        VerifyConfig {
            stream_registers: 16,
            scratchpad_bytes: 16 * 1024,
            virtualization: false,
            out_alloc_base: OUT_ALLOC_BASE,
            protected: Vec::new(),
        }
    }

    /// Mirror a concrete engine configuration. Virtualization is an
    /// engine runtime flag, not a config field — chain
    /// [`VerifyConfig::virtualized`] when the engine enables it.
    pub fn for_config(cfg: &sparsecore::SparseCoreConfig) -> Self {
        VerifyConfig {
            stream_registers: cfg.num_stream_registers(),
            scratchpad_bytes: cfg.scratchpad.size_bytes,
            virtualization: false,
            out_alloc_base: OUT_ALLOC_BASE,
            protected: Vec::new(),
        }
    }

    /// Add a read-only range `[lo, hi)` (builder).
    pub fn protect(mut self, lo: u64, hi: u64) -> Self {
        self.protected.push(Interval::new(lo, hi));
        self
    }

    /// Override the output-allocator base (builder) — the static mirror
    /// of `Engine::sabotage_redirect_out_alloc`.
    pub fn with_out_alloc(mut self, base: u64) -> Self {
        self.out_alloc_base = base;
        self
    }

    /// Override the register capacity (builder).
    pub fn with_stream_registers(mut self, n: usize) -> Self {
        self.stream_registers = n;
        self
    }

    /// Enable SMT virtualization (builder).
    pub fn virtualized(mut self) -> Self {
        self.virtualization = true;
        self
    }
}
