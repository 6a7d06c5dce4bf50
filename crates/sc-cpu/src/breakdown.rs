//! Cycle-accounting buckets matching the paper's Figures 9 and 10.
//!
//! The paper decomposes execution cycles into: cache (memory stall),
//! branch misprediction, "other computation", and "intersection" (cycles
//! where the CPU — or a Stream Unit — is performing an intersection or
//! subtraction). The workload tags intersection phases with a
//! [`Region`]; the core routes compute cycles to the matching bucket.

use std::fmt;
use std::ops::AddAssign;

/// The attribution region for compute cycles. Its discriminant is its
/// compute slot in the core's cycle ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Region {
    /// Generic application code.
    #[default]
    Other,
    /// Inside an intersection / subtraction / merge set operation.
    Intersection,
}

/// Cycle counts by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Cycles stalled waiting on the cache hierarchy / DRAM.
    pub cache: u64,
    /// Branch misprediction penalty cycles.
    pub mispredict: u64,
    /// Compute cycles outside set operations.
    pub other_compute: u64,
    /// Compute cycles inside set operations (scalar loop on the CPU, or SU
    /// busy cycles on SparseCore).
    pub intersection: u64,
}

impl Breakdown {
    /// Total cycles across all buckets.
    pub fn total(&self) -> u64 {
        self.cache + self.mispredict + self.other_compute + self.intersection
    }

    /// Fractions of the total per bucket, in the order
    /// (cache, mispredict, other, intersection). All zeros if empty.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0 {
            return [0.0; 4];
        }
        let t = t as f64;
        [
            self.cache as f64 / t,
            self.mispredict as f64 / t,
            self.other_compute as f64 / t,
            self.intersection as f64 / t,
        ]
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.cache += rhs.cache;
        self.mispredict += rhs.mispredict;
        self.other_compute += rhs.other_compute;
        self.intersection += rhs.intersection;
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [c, m, o, i] = self.fractions();
        write!(
            f,
            "cache {:.1}% | mispredict {:.1}% | other {:.1}% | intersection {:.1}% ({} cycles)",
            c * 100.0,
            m * 100.0,
            o * 100.0,
            i * 100.0,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let b = Breakdown { cache: 25, mispredict: 25, other_compute: 25, intersection: 25 };
        assert_eq!(b.total(), 100);
        assert_eq!(b.fractions(), [0.25; 4]);
    }

    #[test]
    fn empty_fractions_are_zero() {
        assert_eq!(Breakdown::default().fractions(), [0.0; 4]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Breakdown { cache: 1, mispredict: 2, other_compute: 3, intersection: 4 };
        let b = Breakdown { cache: 10, mispredict: 20, other_compute: 30, intersection: 40 };
        a += b;
        assert_eq!(a.total(), 110);
        assert_eq!(a.intersection, 44);
    }

    #[test]
    fn display_mentions_buckets() {
        let b = Breakdown { cache: 1, mispredict: 1, other_compute: 1, intersection: 1 };
        let s = b.to_string();
        assert!(s.contains("cache"));
        assert!(s.contains("intersection"));
    }
}
