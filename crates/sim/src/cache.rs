//! Set-associative cache model.
//!
//! A [`Cache`] is a tag array with per-set replacement state; it models
//! hits/misses (and dirty-line writebacks) but not contents — the trace
//! carries real data in the workload layer, the simulator only needs
//! addresses. All the paper's cache numbers (Figure 4's MPKI, Figures 6–9's
//! miss-ratio-versus-capacity curves) come from this model.

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Least-recently-used (default; what the paper's platforms approximate).
    Lru,
    /// Pseudo-random (ablation target).
    Random,
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Convenience constructor with LRU replacement (see
    /// [`CacheConfig::validate`] for the geometries a [`Cache`] accepts).
    pub fn lru(size_bytes: u64, assoc: usize, line_bytes: u64) -> Self {
        Self {
            size_bytes,
            assoc,
            line_bytes,
            replacement: Replacement::Lru,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.assoc as u64)) as usize
    }

    /// Checks that the geometry builds a [`Cache`]: a power-of-two line
    /// size and a capacity that is a positive whole number of sets.
    pub fn validate(&self) -> Result<(), String> {
        let set_bytes = self.line_bytes.checked_mul(self.assoc as u64).unwrap_or(0);
        let fault = if !self.line_bytes.is_power_of_two() {
            "line size must be a power of two"
        } else if set_bytes == 0
            || self.size_bytes == 0
            || !self.size_bytes.is_multiple_of(set_bytes)
        {
            "capacity must be a positive multiple of line_bytes * assoc"
        } else {
            return Ok(());
        };
        // bdb-lint: allow(hot-loop-allocation): error path only; a buildable geometry returned above
        Err(format!(
            "{fault}: {} B in {} ways of {} B lines",
            self.size_bytes, self.assoc, self.line_bytes
        ))
    }
}

/// Hit/miss/writeback counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (line not present).
    pub misses: u64,
    /// Dirty lines evicted.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Marks an empty slot in an order-list set. Never a line or page
/// number: simulated addresses stay far below 2^63, because the trace
/// layer allocates code, heap and scratch upward from low base addresses.
pub(crate) const INVALID: u64 = u64::MAX;

/// Bit 63 of a cache slot: the line is dirty. Free for the same reason
/// [`INVALID`] is unreachable.
const DIRTY: u64 = 1 << 63;

/// Touches `key` in one MRU-first order-list set, OR-ing `flags` into
/// its slot. A hit rotates the slot to the front and returns `None`; a
/// miss shifts the set down one, inserts `key | flags` at the front and
/// returns the dropped tail slot (possibly [`INVALID`]).
///
/// This is true LRU: invalid slots always form a suffix, so a miss
/// fills an empty way before it evicts the least-recent line. The probe
/// shifts slots back as it searches, so a hit at depth `d` costs `d`
/// moves and no separate rotate; most accesses stop at depth 0 or 1.
#[inline]
pub(crate) fn touch_lru(set: &mut [u64], key: u64, flags: u64) -> Option<u64> {
    debug_assert_eq!(key & DIRTY, 0, "line/page numbers never use bit 63");
    let mut carry = set[0];
    if carry & !DIRTY == key {
        set[0] = carry | flags;
        return None;
    }
    for i in 1..set.len() {
        let here = std::mem::replace(&mut set[i], carry);
        if here & !DIRTY == key {
            set[0] = here | flags;
            return None;
        }
        carry = here;
    }
    set[0] = key | flags;
    Some(carry)
}

/// One level of set-associative cache.
///
/// # Examples
///
/// ```
/// use bdb_sim::cache::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::lru(32 * 1024, 8, 64));
/// assert!(!c.access(0x1000, false)); // cold miss
/// assert!(c.access(0x1000, false));  // now hits
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// `sets - 1` when the set count is a power of two (so indexing is a
    /// mask instead of a modulo), `u64::MAX` otherwise.
    set_mask: u64,
    line_shift: u32,
    /// `slots[set * assoc..][..assoc]`: line numbers with the dirty flag
    /// in bit 63, [`INVALID`] for an empty way. LRU sets are kept
    /// most-recent-first; Random sets are positional.
    slots: Vec<u64>,
    rng: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the geometry.
    pub fn new(config: CacheConfig) -> Self {
        let geometry = config.validate();
        assert!(geometry.is_ok(), "{geometry:?}");
        let sets = config.sets();
        Self {
            config,
            sets,
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                u64::MAX
            },
            line_shift: config.line_bytes.trailing_zeros(),
            slots: vec![INVALID; sets * config.assoc],
            rng: 0xA076_1D64_78BD_642F,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Set index of a line number. Modulo indexing supports
    /// non-power-of-two set counts (the Xeon's 12 MiB L3 has 12288 sets);
    /// power-of-two geometries — every swept L1 — take the mask path,
    /// which computes the identical value without the division.
    #[inline]
    fn set_index(&self, line: u64) -> usize {
        if self.set_mask != u64::MAX {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// Brings the line containing `addr` in (or refreshes it), OR-ing
    /// `flags` into its slot; counts a writeback when a dirty line is
    /// evicted. Returns `true` on hit. Demand counters are untouched.
    #[inline]
    fn fill(&mut self, addr: u64, flags: u64) -> bool {
        let line = addr >> self.line_shift;
        let assoc = self.config.assoc;
        let base = self.set_index(line) * assoc;
        let set = &mut self.slots[base..base + assoc];
        let evicted = match self.config.replacement {
            Replacement::Lru => match touch_lru(set, line, flags) {
                None => return true,
                Some(evicted) => evicted,
            },
            Replacement::Random => {
                if let Some(slot) = set.iter_mut().find(|s| **s & !DIRTY == line) {
                    *slot |= flags;
                    return true;
                }
                let mut x = self.rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.rng = x;
                std::mem::replace(&mut set[(x as usize) % assoc], line | flags)
            }
        };
        if evicted != INVALID && evicted & DIRTY != 0 {
            self.stats.writebacks += 1;
        }
        false
    }

    /// Accesses `addr`; returns `true` on hit. `is_store` marks the line
    /// dirty so its eventual eviction counts as a writeback.
    pub fn access(&mut self, addr: u64, is_store: bool) -> bool {
        self.stats.accesses += 1;
        let hit = self.fill(addr, u64::from(is_store) << 63);
        self.stats.misses += u64::from(!hit);
        hit
    }

    /// Equivalent to `count` back-to-back [`Cache::access`] calls with
    /// the same `addr`/`is_store`, returning the first call's hit flag.
    ///
    /// After the first access the line is resident (most recent, under
    /// LRU) and already carries the store's dirty flag, so the remaining
    /// `count - 1` accesses are hits that change nothing but the access
    /// counter. Trace-replay code uses it to collapse same-line runs;
    /// every counter (and, for [`Replacement::Random`], the RNG, which
    /// hits never touch) ends up exactly as if the calls had been made
    /// one by one.
    pub fn access_run(&mut self, addr: u64, is_store: bool, count: u64) -> bool {
        let hit = self.access(addr, is_store);
        self.stats.accesses += count.saturating_sub(1);
        hit
    }

    /// Installs the line containing `addr` without touching the demand
    /// counters — the prefetcher's fill path. Dirty victims still count as
    /// writebacks.
    pub fn install(&mut self, addr: u64) {
        self.fill(addr, 0);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters (contents are kept — useful after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig::lru(512, 2, 64))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(63, false)); // same line
        assert!(!c.access(64, false)); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a more recent than b
        c.access(d, false); // evicts b
        assert!(c.access(a, false), "a must survive");
        assert!(!c.access(b, false), "b must have been evicted");
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = small();
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, true); // dirty
        c.access(b, false);
        c.access(d, false); // evicts a (LRU), dirty -> writeback
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = Cache::new(CacheConfig::lru(8 * 1024, 8, 64));
        // 4KB working set walked repeatedly fits in 8KB.
        for _round in 0..10 {
            for addr in (0..4096u64).step_by(64) {
                c.access(addr, false);
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, 64, "only cold misses expected, got {}", s.misses);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_with_lru() {
        let mut c = Cache::new(CacheConfig::lru(4 * 1024, 8, 64));
        // 8KB working set cyclically walked through a 4KB LRU cache misses every time.
        let mut misses_after_warmup = 0;
        for round in 0..10 {
            for addr in (0..8192u64).step_by(64) {
                let hit = c.access(addr, false);
                if round > 0 && !hit {
                    misses_after_warmup += 1;
                }
            }
        }
        assert_eq!(misses_after_warmup, 9 * 128);
    }

    #[test]
    fn random_replacement_differs_from_lru_under_thrash() {
        let mut lru = Cache::new(CacheConfig::lru(4 * 1024, 8, 64));
        let mut rnd = Cache::new(CacheConfig {
            replacement: Replacement::Random,
            ..CacheConfig::lru(4 * 1024, 8, 64)
        });
        for _ in 0..20 {
            for addr in (0..8192u64).step_by(64) {
                lru.access(addr, false);
                rnd.access(addr, false);
            }
        }
        // Random keeps some lines across the cyclic sweep; LRU keeps none.
        assert!(rnd.stats().misses < lru.stats().misses);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(0, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0, false), "contents survive reset");
    }

    #[test]
    fn miss_ratio_bounds() {
        let mut c = small();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0, false);
        assert_eq!(c.stats().miss_ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = Cache::new(CacheConfig::lru(512, 2, 48));
    }
}
