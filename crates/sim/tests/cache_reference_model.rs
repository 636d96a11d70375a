//! Model-checks the set-associative cache and the TLB against naive
//! reference implementations: for arbitrary access sequences, hit/miss
//! decisions and writeback counts must match an obviously-correct LRU
//! model, at power-of-two and modulo-indexed set counts alike.

use bdb_sim::cache::{Cache, CacheConfig, Replacement};
use bdb_sim::tlb::{Tlb, TlbConfig};
use proptest::prelude::*;

/// Obviously-correct set-associative LRU cache: each set is a Vec kept in
/// MRU-first order.
struct NaiveLru {
    sets: Vec<Vec<(u64, bool)>>, // (line, dirty), MRU first
    assoc: usize,
    line_bytes: u64,
    writebacks: u64,
}

impl NaiveLru {
    fn new(size: u64, assoc: usize, line_bytes: u64) -> Self {
        let sets = (size / (line_bytes * assoc as u64)) as usize;
        Self {
            sets: vec![Vec::new(); sets],
            assoc,
            line_bytes,
            writebacks: 0,
        }
    }

    fn access(&mut self, addr: u64, is_store: bool) -> bool {
        self.touch(addr / self.line_bytes, is_store)
    }

    /// The prefetch fill: same recency and eviction as an access.
    fn install(&mut self, addr: u64) {
        self.touch(addr / self.line_bytes, false);
    }

    fn touch(&mut self, line: u64, is_store: bool) -> bool {
        let set = (line % self.sets.len() as u64) as usize;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&(l, _)| l == line) {
            let (l, dirty) = ways.remove(pos);
            ways.insert(0, (l, dirty || is_store));
            return true;
        }
        if ways.len() == self.assoc {
            let (_, dirty) = ways.pop().expect("full set");
            if dirty {
                self.writebacks += 1;
            }
        }
        ways.insert(0, (line, is_store));
        false
    }
}

/// Obviously-correct set-associative LRU TLB: MRU-first page lists.
struct NaiveTlb {
    sets: Vec<Vec<u64>>,
    assoc: usize,
    page_bytes: u64,
    misses: u64,
}

impl NaiveTlb {
    fn new(config: TlbConfig) -> Self {
        Self {
            sets: vec![Vec::new(); config.entries / config.assoc],
            assoc: config.assoc,
            page_bytes: config.page_bytes,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let page = addr / self.page_bytes;
        let set = (page % self.sets.len() as u64) as usize;
        let pages = &mut self.sets[set];
        if let Some(pos) = pages.iter().position(|&p| p == page) {
            pages.remove(pos);
            pages.insert(0, page);
            return true;
        }
        self.misses += 1;
        pages.truncate(self.assoc - 1);
        pages.insert(0, page);
        false
    }
}

/// Associativities of the paper's platforms (the D510's 6-way L1D and
/// the E5645's 16-way L3 included) plus the degenerate direct-mapped one.
fn assoc() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(6), Just(8), Just(16)]
}

/// Set counts: powers of two take the masked index, the others (like the
/// Xeon L3's 12288 sets) the modulo path.
fn sets() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(3), Just(4), Just(12), Just(16)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_reference_lru(
        accesses in proptest::collection::vec((0u64..1u64 << 16, any::<bool>()), 1..2000),
        assoc in assoc(),
        sets in sets(),
    ) {
        let size = sets * assoc as u64 * 64;
        let mut real = Cache::new(CacheConfig::lru(size, assoc, 64));
        let mut reference = NaiveLru::new(size, assoc, 64);
        for &(addr, is_store) in &accesses {
            let a = real.access(addr, is_store);
            let b = reference.access(addr, is_store);
            prop_assert_eq!(a, b, "divergence at addr {:#x}", addr);
        }
        prop_assert_eq!(real.stats().writebacks, reference.writebacks);
        prop_assert_eq!(real.stats().accesses, accesses.len() as u64);
    }

    #[test]
    fn access_run_equals_repeated_access(
        runs in proptest::collection::vec((0u64..1u64 << 14, any::<bool>(), 0u64..6), 1..400),
        assoc in assoc(),
        sets in sets(),
        random in any::<bool>(),
    ) {
        let config = CacheConfig {
            replacement: if random { Replacement::Random } else { Replacement::Lru },
            ..CacheConfig::lru(sets * assoc as u64 * 64, assoc, 64)
        };
        let mut bulk = Cache::new(config);
        let mut single = Cache::new(config);
        for &(addr, is_store, n) in &runs {
            let first = bulk.access_run(addr, is_store, n);
            let mut hits = Vec::new();
            for _ in 0..n.max(1) {
                hits.push(single.access(addr, is_store));
            }
            prop_assert_eq!(first, hits[0], "first hit flag at {:#x}", addr);
            prop_assert!(hits[1..].iter().all(|&h| h), "repeats must hit");
            prop_assert_eq!(bulk.stats(), single.stats());
        }
    }

    /// Installs move lines and evict like accesses, but only the
    /// writebacks they cause are counted.
    #[test]
    fn install_never_changes_demand_counters(
        ops in proptest::collection::vec((0u64..1u64 << 14, 0u8..3), 1..1000),
        assoc in assoc(),
        sets in sets(),
    ) {
        let size = sets * assoc as u64 * 64;
        let mut cache = Cache::new(CacheConfig::lru(size, assoc, 64));
        let mut reference = NaiveLru::new(size, assoc, 64);
        let (mut accesses, mut misses) = (0u64, 0u64);
        for &(addr, kind) in &ops {
            if kind == 2 {
                cache.install(addr);
                reference.install(addr);
            } else {
                accesses += 1;
                let hit = cache.access(addr, kind == 1);
                prop_assert_eq!(hit, reference.access(addr, kind == 1));
                misses += u64::from(!hit);
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses, accesses);
        prop_assert_eq!(stats.misses, misses);
        prop_assert_eq!(stats.writebacks, reference.writebacks);
    }

    #[test]
    fn tlb_matches_reference_lru(
        addrs in proptest::collection::vec(0u64..1u64 << 22, 1..2000),
        assoc in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        sets in prop_oneof![Just(1usize), Just(2), Just(16), Just(64)],
        huge in any::<bool>(),
    ) {
        let config = TlbConfig {
            entries: sets * assoc,
            assoc,
            page_bytes: if huge { 1 << 16 } else { 4096 },
        };
        let mut real = Tlb::new(config);
        let mut reference = NaiveTlb::new(config);
        for &addr in &addrs {
            prop_assert_eq!(real.access(addr), reference.access(addr), "divergence at addr {:#x}", addr);
        }
        prop_assert_eq!(real.misses(), reference.misses);
        prop_assert_eq!(real.accesses(), addrs.len() as u64);
    }

    #[test]
    fn installed_lines_hit(addr in 0u64..1u64 << 20) {
        let mut cache = Cache::new(CacheConfig::lru(32 * 1024, 8, 64));
        cache.install(addr);
        prop_assert!(cache.access(addr, false), "installed line must hit");
    }
}
