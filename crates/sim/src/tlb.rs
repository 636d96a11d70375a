//! Translation look-aside buffer model.
//!
//! ITLB/DTLB behaviour is one of the paper's 45 metric categories and the
//! subject of Figure 5. We model set-associative first-level instruction
//! and data TLBs plus a shared second-level TLB; reported MPKI counts
//! first-level misses, matching how `perf` counts `iTLB-load-misses` /
//! `dTLB-load-misses`.

use crate::cache::{touch_lru, INVALID};

/// Geometry of a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Ways per set.
    pub assoc: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl TlbConfig {
    /// 4 KiB-page, 4-way TLB with `entries` entries.
    pub fn small_pages(entries: usize) -> Self {
        Self {
            entries,
            assoc: 4,
            page_bytes: 4096,
        }
    }

    /// Checks that the geometry builds a [`Tlb`]: a power-of-two page
    /// size and a power-of-two number of whole sets.
    pub fn validate(&self) -> Result<(), String> {
        let sets = self.entries.checked_div(self.assoc).unwrap_or(0);
        let fault = if !self.page_bytes.is_power_of_two() {
            "page size must be a power of two"
        } else if !sets.is_power_of_two() || sets * self.assoc != self.entries {
            "TLB set count must be a power of two"
        } else {
            return Ok(());
        };
        // bdb-lint: allow(hot-loop-allocation): error path only; a buildable geometry returned above
        Err(format!(
            "{fault}: {} entries in {} ways of {} B pages",
            self.entries, self.assoc, self.page_bytes
        ))
    }
}

/// Set-associative LRU TLB.
///
/// # Examples
///
/// ```
/// use bdb_sim::tlb::{Tlb, TlbConfig};
///
/// let mut t = Tlb::new(TlbConfig::small_pages(16));
/// assert!(!t.access(0x1000));
/// assert!(t.access(0x1fff)); // same page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    page_shift: u32,
    set_mask: usize,
    /// `pages[set * assoc..][..assoc]`, most-recent-first; [`INVALID`]
    /// marks an empty way.
    pages: Vec<u64>,
    accesses: u64,
    misses: u64,
}

impl Tlb {
    /// Builds a TLB.
    ///
    /// # Panics
    ///
    /// Panics if [`TlbConfig::validate`] rejects the geometry.
    pub fn new(config: TlbConfig) -> Self {
        let geometry = config.validate();
        assert!(geometry.is_ok(), "{geometry:?}");
        Self {
            config,
            page_shift: config.page_bytes.trailing_zeros(),
            set_mask: config.entries / config.assoc - 1,
            pages: vec![INVALID; config.entries],
            accesses: 0,
            misses: 0,
        }
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Translates `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let page = addr >> self.page_shift;
        let assoc = self.config.assoc;
        let base = (page as usize & self.set_mask) * assoc;
        let hit = touch_lru(&mut self.pages[base..base + assoc], page, 0).is_none();
        self.misses += u64::from(!hit);
        hit
    }

    /// Page number of `addr` under this TLB's page size.
    pub fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Total translations requested.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Translations that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(TlbConfig::small_pages(8));
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
        assert_eq!(t.misses(), 2);
        assert_eq!(t.accesses(), 3);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 8 entries, 4-way => 2 sets. Pages 0,2,4,6,8 all map to set 0.
        let mut t = Tlb::new(TlbConfig::small_pages(8));
        for p in [0u64, 2, 4, 6] {
            t.access(p << 12);
        }
        t.access(0); // refresh page 0
        t.access(8 << 12); // evicts page 2 (oldest)
        assert!(t.access(0));
        assert!(!t.access(2 << 12));
    }

    #[test]
    fn footprint_within_entries_never_misses_after_warmup() {
        let mut t = Tlb::new(TlbConfig::small_pages(16));
        for _ in 0..4 {
            for p in 0..16u64 {
                t.access(p << 12);
            }
        }
        // Pages 0..16 spread evenly over 4 sets x 4 ways: all fit.
        assert_eq!(t.misses(), 16);
    }

    #[test]
    fn page_of_uses_page_size() {
        let t = Tlb::new(TlbConfig {
            entries: 4,
            assoc: 4,
            page_bytes: 1 << 21,
        });
        assert_eq!(t.page_of(0x001F_FFFF), 0);
        assert_eq!(t.page_of(0x0020_0000), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 12,
            assoc: 4,
            page_bytes: 4096,
        });
    }
}
