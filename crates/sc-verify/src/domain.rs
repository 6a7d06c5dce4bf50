//! Abstract domains for the verifier: half-open byte/element intervals
//! and strided address sets.
//!
//! Two domains cover everything the stream ISA can express statically:
//!
//! * [`Interval`] — a half-open range `[lo, hi)` used both for byte
//!   address ranges (stream sources, output regions, protected graph
//!   data) and for element-count value ranges (a stream whose length is
//!   only known up to a bound is `[0, hi)` elements). It is the length
//!   domain of the [`sc_isa::dataflow`] walk, re-exported here.
//! * [`Stride`] — a finite arithmetic progression
//!   `{base, base + stride, ...}` used for descriptor address sets and
//!   for partition write-sets (a static interleave shard is exactly a
//!   residue class, which two cores can be proven to never share without
//!   enumerating it).

pub use sc_isa::Interval;
use std::fmt;

/// A finite arithmetic progression `{base + k*stride : 0 <= k < count}`,
/// each element occupying `width` bytes. `stride == width` degenerates
/// to a contiguous range; `stride > width` is a strided descriptor or an
/// interleaved shard's residue class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stride {
    /// First element's address/index.
    pub base: u64,
    /// Distance between consecutive elements.
    pub stride: u64,
    /// Number of elements.
    pub count: u64,
    /// Bytes each element occupies (4 for keys, 8 for values, 1 for
    /// index-space write-sets).
    pub width: u64,
}

impl Stride {
    /// A contiguous progression: `count` elements of `width` bytes
    /// packed from `base` (stride == width).
    pub fn contiguous(base: u64, count: u64, width: u64) -> Self {
        Stride { base, stride: width, count, width }
    }

    /// No elements?
    pub fn is_empty(&self) -> bool {
        self.count == 0 || self.width == 0
    }

    /// The convex hull: the smallest interval covering every element.
    pub fn hull(&self) -> Interval {
        if self.is_empty() {
            return Interval::empty();
        }
        let last = self.base.saturating_add((self.count - 1).saturating_mul(self.stride));
        Interval { lo: self.base, hi: last.saturating_add(self.width) }
    }

    /// Structural disjointness for two progressions with the *same*
    /// stride: distinct residues modulo the stride (with element extents
    /// that do not bridge the gap) can never collide, no matter how many
    /// elements either side has. This is the static interleave proof:
    /// core `c` of `n` owning `{c, c+n, ...}` is disjoint from core `c'`
    /// for every `c != c'` without enumerating a single index.
    pub fn disjoint_residues(&self, other: &Stride) -> bool {
        if self.is_empty() || other.is_empty() {
            return true;
        }
        if self.stride != other.stride || self.stride == 0 {
            return false;
        }
        let m = self.stride;
        let ra = self.base % m;
        let rb = other.base % m;
        if ra == rb {
            return false;
        }
        // Residue gap in both directions; each element must fit inside
        // its gap so extents cannot bridge into the neighbor class.
        let fwd = (rb + m - ra) % m;
        let bwd = (ra + m - rb) % m;
        self.width <= fwd && other.width <= bwd
    }

    /// Exact membership test (used by the enumeration fallback).
    pub fn covers_point(&self, p: u64) -> bool {
        if self.is_empty() || p < self.base {
            return false;
        }
        let off = p - self.base;
        if self.stride == 0 {
            return off < self.width;
        }
        let k = off / self.stride;
        k < self.count && off - k * self.stride < self.width
    }

    /// Do two progressions share any byte? Decides exactly: the
    /// same-stride residue proof first, then hull separation, then an
    /// enumeration of the smaller progression (partition plans are at
    /// most a few thousand elements, so this stays cheap).
    pub fn overlaps(&self, other: &Stride) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if !self.hull().overlaps(&other.hull()) {
            return false;
        }
        if self.disjoint_residues(other) {
            return false;
        }
        let (small, big) = if self.count <= other.count { (self, other) } else { (other, self) };
        for k in 0..small.count {
            let lo = small.base + k * small.stride;
            for b in 0..small.width {
                if big.covers_point(lo + b) {
                    return true;
                }
            }
        }
        false
    }
}

impl fmt::Display for Stride {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{:#x} + k*{} : k < {}}} x{}B", self.base, self.stride, self.count, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_stride_hull() {
        let s = Stride::contiguous(0x1000, 16, 4);
        assert_eq!(s.hull(), Interval::new(0x1000, 0x1040));
        assert!(Stride::contiguous(0x1000, 0, 4).is_empty());
    }

    #[test]
    fn residue_classes_are_disjoint() {
        // Cores 0 and 1 of 6, unit-width index write-sets.
        let c0 = Stride { base: 0, stride: 6, count: 100, width: 1 };
        let c1 = Stride { base: 1, stride: 6, count: 100, width: 1 };
        assert!(c0.disjoint_residues(&c1));
        assert!(!c0.overlaps(&c1));
        // Same residue collides.
        let c0b = Stride { base: 6, stride: 6, count: 10, width: 1 };
        assert!(!c0.disjoint_residues(&c0b));
        assert!(c0.overlaps(&c0b));
    }

    #[test]
    fn wide_elements_can_bridge_residues() {
        // 4-byte elements every 6 bytes at residues 0 and 3: 0..4 vs 3..7
        // overlap even though the residues differ.
        let a = Stride { base: 0, stride: 6, count: 8, width: 4 };
        let b = Stride { base: 3, stride: 6, count: 8, width: 4 };
        assert!(!a.disjoint_residues(&b));
        assert!(a.overlaps(&b));
        // 2-byte elements at residues 0 and 3 fit in their gaps.
        let a = Stride { base: 0, stride: 6, count: 8, width: 2 };
        let b = Stride { base: 3, stride: 6, count: 8, width: 2 };
        assert!(a.disjoint_residues(&b));
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn enumeration_fallback_decides_mixed_strides() {
        let a = Stride { base: 0, stride: 12, count: 5, width: 4 };
        let b = Stride { base: 24, stride: 8, count: 3, width: 4 };
        // a covers {0..4, 12..16, 24..28, ...}; b covers {24..28, ...}.
        assert!(a.overlaps(&b));
        let c = Stride { base: 4, stride: 12, count: 5, width: 4 };
        let d = Stride { base: 0, stride: 12, count: 5, width: 4 };
        assert!(!c.overlaps(&d));
    }
}
