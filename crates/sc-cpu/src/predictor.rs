//! Gshare branch predictor.
//!
//! The scalar intersection loop the paper analyzes (Section 2.2) is
//! dominated by a data-dependent three-way branch — whichever pointer
//! advances depends on the comparison of stream elements, which is close to
//! random for real inputs. A global-history predictor fed real outcomes
//! reproduces exactly that effect: loop-closing branches predict well,
//! comparison branches mispredict at a data-dependent rate.
//!
//! The update is branch-free on the host: the simulator feeds those same
//! unpredictable outcomes through here, so a host branch on them would
//! mispredict wherever the modeled predictor does.

/// Next state of a 2-bit saturating counter, indexed `[counter][taken]`:
/// taken counts up and saturates at 3, not-taken counts down and
/// saturates at 0.
const NEXT: [[u8; 2]; 4] = [[0, 1], [0, 2], [1, 3], [2, 3]];

/// A classic gshare predictor: the branch PC is XOR-folded with a global
/// history register to index a table of 2-bit saturating counters.
///
/// # Example
///
/// ```
/// use sc_cpu::Gshare;
///
/// let mut bp = Gshare::new(12);
/// // A branch that is always taken becomes perfectly predicted.
/// let mut last = false;
/// for _ in 0..64 {
///     last = bp.predict_and_update(0x400, true);
/// }
/// assert!(last);
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    /// 2-bit saturating counters; >= 2 predicts taken.
    table: Vec<u8>,
    /// Global history of recent outcomes (youngest in bit 0).
    history: u64,
    mask: u64,
    /// Total predictions made.
    pub predictions: u64,
    /// Mispredictions.
    pub mispredictions: u64,
}

impl Gshare {
    /// Create a predictor with `history_bits` bits of global history and a
    /// `2^history_bits`-entry counter table (weakly-not-taken initial
    /// state).
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is 0 or greater than 24.
    pub fn new(history_bits: u32) -> Self {
        assert!((1..=24).contains(&history_bits), "history_bits must be in 1..=24");
        let entries = 1usize << history_bits;
        Gshare {
            table: vec![1; entries],
            history: 0,
            mask: (entries as u64) - 1,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// The paper-scale default: 12 bits of history, 4096 counters.
    pub fn default_size() -> Self {
        Gshare::new(12)
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predict the branch at `pc`, then update with the actual outcome
    /// `taken`. Returns `true` when the prediction was **correct**.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let counter = self.table[idx];
        let predicted_taken = counter >= 2;
        let correct = predicted_taken == taken;
        self.predictions += 1;
        self.mispredictions += u64::from(!correct);
        self.table[idx] = NEXT[usize::from(counter)][usize::from(taken)];
        self.history = ((self.history << 1) | u64::from(taken)) & self.mask;
        correct
    }

    /// Fraction of predictions that were wrong; 0.0 before any prediction.
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Forget statistics but keep learned state.
    pub fn reset_stats(&mut self) {
        self.predictions = 0;
        self.mispredictions = 0;
    }
}

impl Default for Gshare {
    fn default() -> Self {
        Gshare::default_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut bp = Gshare::new(10);
        for _ in 0..100 {
            bp.predict_and_update(0x100, true);
        }
        // After warm-up the predictor should be essentially perfect.
        bp.reset_stats();
        for _ in 0..100 {
            bp.predict_and_update(0x100, true);
        }
        assert_eq!(bp.mispredictions, 0);
    }

    #[test]
    fn learns_alternating_pattern() {
        // Gshare keys on history, so a strict T/N/T/N pattern is learnable.
        let mut bp = Gshare::new(10);
        let mut taken = false;
        for _ in 0..400 {
            bp.predict_and_update(0x200, taken);
            taken = !taken;
        }
        bp.reset_stats();
        for _ in 0..200 {
            bp.predict_and_update(0x200, taken);
            taken = !taken;
        }
        assert!(
            bp.mispredict_rate() < 0.05,
            "alternating pattern should be learned, rate={}",
            bp.mispredict_rate()
        );
    }

    #[test]
    fn random_branches_mispredict_heavily() {
        // A deterministic pseudo-random outcome sequence: the predictor
        // should hover near 50% — this is the intersection-loop effect the
        // paper describes.
        let mut bp = Gshare::new(12);
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bp.predict_and_update(0x300, x & 1 == 1);
        }
        let rate = bp.mispredict_rate();
        assert!(rate > 0.35, "random outcomes should mispredict often, rate={rate}");
    }

    #[test]
    fn stats_counts() {
        let mut bp = Gshare::new(8);
        bp.predict_and_update(0, true);
        bp.predict_and_update(0, true);
        assert_eq!(bp.predictions, 2);
        bp.reset_stats();
        assert_eq!(bp.predictions, 0);
        assert_eq!(bp.mispredict_rate(), 0.0);
    }

    #[test]
    fn next_state_table_is_the_saturating_update() {
        for c in 0u8..4 {
            assert_eq!(NEXT[usize::from(c)][1], (c + 1).min(3));
            assert_eq!(NEXT[usize::from(c)][0], c.saturating_sub(1));
        }
    }

    #[test]
    #[should_panic(expected = "history_bits")]
    fn zero_history_rejected() {
        Gshare::new(0);
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut bp = Gshare::new(12);
        // Train PC A always-taken.
        for _ in 0..64 {
            bp.predict_and_update(0x1000, true);
        }
        // PC B mostly not-taken must not be wrecked by A's training beyond
        // aliasing noise.
        bp.reset_stats();
        for _ in 0..64 {
            bp.predict_and_update(0x2004, false);
        }
        assert!(bp.mispredict_rate() < 0.5);
    }
}
