//! Cycle-attribution profiler (the paper's Figure 9/10 breakdown, live).
//!
//! Every cycle the core timeline advances is binned into one of five
//! causes while the simulation runs, instead of being reconstructed by
//! bespoke accounting in the figure binaries. The invariant that makes
//! the bins trustworthy is *conservation*: the per-bin totals sum to the
//! total modeled cycles, because they are a projection of the cycle
//! ledger of `sc-cpu`'s `Core`, to which every advance of the core clock
//! adds exactly once.

use crate::json;
use crate::spans::Site;

/// Where a retired cycle went. The five bins of the paper's stacked
/// bars, generalized to the stream engine:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrBin {
    /// Waiting on a Stream Unit's parallel-comparison datapath (the
    /// "Intersection" share of Figure 10).
    SuCompare,
    /// Waiting on S-Cache window refills or stream-data readiness.
    ScacheRefill,
    /// Stalled on the conventional cache hierarchy / DRAM (loads,
    /// load-queue pressure).
    MemStall,
    /// Waiting on the nested-intersection translator (dependent stream
    /// info loads, translation-buffer back-pressure).
    Translator,
    /// Scalar work overlapping the stream engine: issue, dependent
    /// chains, branch penalties.
    ScalarOverlap,
}

impl AttrBin {
    /// All bins, in reporting order.
    pub const ALL: [AttrBin; 5] = [
        AttrBin::SuCompare,
        AttrBin::ScacheRefill,
        AttrBin::MemStall,
        AttrBin::Translator,
        AttrBin::ScalarOverlap,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            AttrBin::SuCompare => "su_compare",
            AttrBin::ScacheRefill => "scache_refill",
            AttrBin::MemStall => "mem_stall",
            AttrBin::Translator => "translator",
            AttrBin::ScalarOverlap => "scalar_overlap",
        }
    }

    /// Position in [`AttrBin::ALL`] (array index for per-bin grids).
    pub fn index(self) -> usize {
        match self {
            AttrBin::SuCompare => 0,
            AttrBin::ScacheRefill => 1,
            AttrBin::MemStall => 2,
            AttrBin::Translator => 3,
            AttrBin::ScalarOverlap => 4,
        }
    }

    /// Parse a [`AttrBin::name`] back (span-log JSON round trip).
    pub fn parse(s: &str) -> Option<AttrBin> {
        AttrBin::ALL.into_iter().find(|b| b.name() == s)
    }
}

/// Accumulated cycles per attribution bin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    bins: [u64; 5],
}

impl Attribution {
    /// An empty attribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold cycles per site, in [`Site::ALL`] order, into their bins
    /// ([`Site::bin`]).
    pub fn from_sites(sites: &[u64; Site::COUNT]) -> Attribution {
        let mut attr = Attribution::new();
        for site in Site::ALL {
            attr.add(site.bin(), sites[site as usize]);
        }
        attr
    }

    /// Add `cycles` to `bin`.
    #[inline]
    pub fn add(&mut self, bin: AttrBin, cycles: u64) {
        self.bins[bin.index()] += cycles;
    }

    /// Cycles accumulated in `bin`.
    pub fn get(&self, bin: AttrBin) -> u64 {
        self.bins[bin.index()]
    }

    /// Total cycles across all bins. Equal to the total modeled cycles
    /// when every clock advance is attributed (the conservation property
    /// the integration tests assert).
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Per-bin fractions of the total, in [`AttrBin::ALL`] order (all
    /// zeros when empty).
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total();
        if t == 0 {
            return [0.0; 5];
        }
        self.bins.map(|b| b as f64 / t as f64)
    }

    /// Merge another attribution into this one (multi-core aggregation).
    pub fn merge(&mut self, other: &Attribution) {
        for (a, b) in self.bins.iter_mut().zip(other.bins) {
            *a += b;
        }
    }

    /// The attribution as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, bin) in AttrBin::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, bin.name());
            out.push(':');
            out.push_str(&self.get(*bin).to_string());
        }
        out.push('}');
        out
    }
}

impl std::fmt::Display for Attribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fr = self.fractions();
        for (i, bin) in AttrBin::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{} {:.1}%", bin.name(), fr[i] * 100.0)?;
        }
        write!(f, " ({} cycles)", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_of_total() {
        let mut a = Attribution::new();
        a.add(AttrBin::SuCompare, 10);
        a.add(AttrBin::MemStall, 20);
        a.add(AttrBin::ScalarOverlap, 70);
        assert_eq!(a.total(), 100);
        let fr = a.fractions();
        assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((fr[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_bins() {
        let mut a = Attribution::new();
        a.add(AttrBin::Translator, 5);
        let mut b = Attribution::new();
        b.add(AttrBin::Translator, 7);
        b.add(AttrBin::ScacheRefill, 3);
        a.merge(&b);
        assert_eq!(a.get(AttrBin::Translator), 12);
        assert_eq!(a.total(), 15);
    }

    #[test]
    fn json_has_all_bins() {
        let mut a = Attribution::new();
        a.add(AttrBin::ScacheRefill, 9);
        let j = crate::json::parse(&a.to_json()).unwrap();
        for bin in AttrBin::ALL {
            assert!(j.get(bin.name()).is_some(), "missing {}", bin.name());
        }
        assert_eq!(j.get("scache_refill").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn display_mentions_every_bin() {
        let s = Attribution::new().to_string();
        for bin in AttrBin::ALL {
            assert!(s.contains(bin.name()));
        }
    }
}
