//! Half-open intervals over `u64`: the length domain of the dataflow
//! walk, and the byte-range domain of the analyzers built on it.

use crate::operand::Key;
use std::fmt;

/// A half-open interval `[lo, hi)`. `lo >= hi` encodes the empty
/// interval. Used for byte ranges and for element-count value ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower end.
    pub lo: u64,
    /// Exclusive upper end.
    pub hi: u64,
}

impl Interval {
    /// The interval `[lo, hi)`.
    pub fn new(lo: u64, hi: u64) -> Self {
        Interval { lo, hi }
    }

    /// The empty interval.
    pub fn empty() -> Self {
        Interval { lo: 0, hi: 0 }
    }

    /// The single point `[v, v+1)` — an exactly-known value.
    pub fn exact(v: u64) -> Self {
        Interval { lo: v, hi: v.saturating_add(1) }
    }

    /// The length domain's ⊤: any representable stream length. Unlike
    /// keys, a *length* of `u32::MAX` is representable (`len: u32` has
    /// no sentinel), so the exclusive end is `Key::MAX + 1`; `[0,
    /// Key::MAX)` would silently exclude the maximum legal length and
    /// un-widen the domain.
    pub fn len_top() -> Self {
        Interval { lo: 0, hi: u64::from(Key::MAX) + 1 }
    }

    /// Does the interval contain no points?
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Greatest value the interval admits (`hi - 1`), or `None` when
    /// empty. For element-count ranges this is the length upper bound.
    pub fn max(&self) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(self.hi - 1)
        }
    }

    /// Do the two intervals share at least one point?
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo < other.hi && other.lo < self.hi
    }

    /// Is `other` entirely inside `self`?
    pub fn contains(&self, other: &Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Convex hull (join): the smallest interval containing both.
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Sum of two element-count ranges (saturating): the range of
    /// `x + y` for `x` in `self`, `y` in `other`. Empty absorbs.
    pub fn add(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval {
            lo: self.lo.saturating_add(other.lo),
            hi: (self.hi - 1).saturating_add(other.hi - 1).saturating_add(1),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "[)")
        } else {
            write!(f, "[{:#x}, {:#x})", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let a = Interval::new(0x1000, 0x2000);
        let b = Interval::new(0x1800, 0x2800);
        assert!(a.overlaps(&b));
        assert_eq!(a.hull(&b), Interval::new(0x1000, 0x2800));
        assert!(!a.overlaps(&Interval::new(0x2000, 0x3000)), "adjacent is disjoint");
        assert!(Interval::empty().is_empty());
        assert!(!a.overlaps(&Interval::empty()));
        assert!(a.contains(&Interval::new(0x1100, 0x1200)));
        assert!(!a.contains(&b));
        assert_eq!(Interval::exact(7).max(), Some(7));
        assert_eq!(Interval::empty().max(), None);
    }

    #[test]
    fn interval_count_arithmetic() {
        // [0,4] + [0,6] = [0,10] as counts (stored half-open).
        let a = Interval::new(0, 5);
        let b = Interval::new(0, 7);
        assert_eq!(a.add(&b), Interval::new(0, 11));
        assert_eq!(a.add(&Interval::empty()), Interval::empty());
        // Saturates instead of wrapping.
        let top = Interval::new(0, u64::MAX);
        assert_eq!(top.add(&top).hi, u64::MAX);
    }

    #[test]
    fn length_top_admits_the_maximum_representable_length() {
        // Regression for the interval-widening off-by-one: a top of
        // `[0, Key::MAX)` excludes the maximal legal `len: u32` value.
        assert!(Interval::len_top().contains(&Interval::exact(u64::from(u32::MAX))));
        assert!(!Interval::len_top().contains(&Interval::exact(u64::from(u32::MAX) + 1)));
    }
}
