//! Analyzer configuration.

/// Hardware-derived thresholds for the performance lints. There are no
/// free-standing magic numbers: both values derive from the memory
/// hierarchy (`derive`). `SparseCoreConfig::perf_thresholds` in the
/// simulator crate is the one place that derivation reads a hardware
/// config, for the interpreter's lint gate and for `sc-cost` alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfThresholds {
    /// Shortest stream that amortizes one refill line of setup
    /// (`line_bytes / key_bytes`): anything shorter pays the full
    /// warmup walk for a partial line (`SC-W204`).
    pub min_amortized_len: u32,
    /// Setup cycles such a stream fails to amortize (the worst
    /// `l2 + l3 + dram` warmup walk); quoted in the diagnostic.
    pub setup_cycles: u64,
}

impl PerfThresholds {
    /// Derive from raw hardware numbers (sc-lint deliberately does not
    /// depend on the simulator crate; callers pass the line geometry
    /// and setup latency of the config they simulate with).
    pub fn derive(line_bytes: u64, key_bytes: u64, setup_latency: u64) -> Self {
        PerfThresholds {
            min_amortized_len: (line_bytes / key_bytes.max(1)).max(1) as u32,
            setup_cycles: setup_latency,
        }
    }

    /// The paper's hardware: 64-byte lines, 4-byte keys, and a
    /// 12 + 38 + 200 cycle worst-case warmup walk.
    pub fn paper() -> Self {
        PerfThresholds::derive(64, 4, 250)
    }
}

/// Knobs controlling which lints fire and against what hardware model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Physical stream-register (SMT) capacity the pressure pass checks
    /// against. The paper's SparseCore has 16 (Section 3.3).
    pub stream_registers: usize,
    /// When true, exceeding `stream_registers` is reported as a note
    /// (the SMT virtualizes extra streams at a cost) instead of an
    /// error predicting `OutOfStreamRegisters`.
    pub virtualization: bool,
    /// Report streams still live at the end of the program (`SC-E003`).
    /// Disable for program *fragments* that intentionally hand streams
    /// to a continuation.
    pub check_leaks: bool,
    /// Run the performance lints (`SC-W2xx`).
    pub perf_lints: bool,
    /// Hardware-derived thresholds the perf pass fires against.
    pub perf: PerfThresholds,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig::paper()
    }
}

impl LintConfig {
    /// The paper's hardware: 16 stream registers, no virtualization.
    pub fn paper() -> Self {
        LintConfig {
            stream_registers: 16,
            virtualization: false,
            check_leaks: true,
            perf_lints: true,
            perf: PerfThresholds::paper(),
        }
    }

    /// Set the stream-register capacity.
    pub fn stream_registers(mut self, n: usize) -> Self {
        self.stream_registers = n;
        self
    }

    /// Enable/disable SMT virtualization in the pressure model.
    pub fn virtualization(mut self, on: bool) -> Self {
        self.virtualization = on;
        self
    }

    /// Enable/disable the leak check.
    pub fn check_leaks(mut self, on: bool) -> Self {
        self.check_leaks = on;
        self
    }

    /// Enable/disable the performance lints.
    pub fn perf_lints(mut self, on: bool) -> Self {
        self.perf_lints = on;
        self
    }

    /// Set the hardware-derived perf thresholds.
    pub fn perf_thresholds(mut self, t: PerfThresholds) -> Self {
        self.perf = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = LintConfig::default();
        assert_eq!(c.stream_registers, 16);
        assert!(!c.virtualization);
        assert!(c.check_leaks);
        assert!(c.perf_lints);
    }

    #[test]
    fn builders_chain() {
        let c = LintConfig::paper().stream_registers(8).virtualization(true).perf_lints(false);
        assert_eq!(c.stream_registers, 8);
        assert!(c.virtualization);
        assert!(!c.perf_lints);
    }

    #[test]
    fn thresholds_derive_from_hardware() {
        let t = PerfThresholds::paper();
        assert_eq!(t.min_amortized_len, 16, "64 B lines / 4 B keys");
        assert_eq!(t.setup_cycles, 250, "l2 + l3 + dram");
        let tiny = PerfThresholds::derive(64, 4, 64);
        assert_eq!(tiny.min_amortized_len, 16);
        assert_eq!(tiny.setup_cycles, 64);
        let c = LintConfig::paper().perf_thresholds(PerfThresholds::derive(128, 4, 300));
        assert_eq!(c.perf.min_amortized_len, 32);
    }
}
