//! Reuse-distance (LRU stack distance) profiling.
//!
//! The paper's future-work section commits to "system-independent
//! characterization work on representative big data workloads" in the
//! style of Hoste & Eeckhout. Reuse distances are the core of that
//! methodology: the LRU stack distance distribution of a trace predicts
//! its miss ratio on *any* LRU cache of *any* capacity, independent of a
//! particular machine. This module implements Olken's exact algorithm
//! (hash map of last-access times + a Fenwick tree counting distinct lines
//! in a time window).
//!
//! # Examples
//!
//! ```
//! use bdb_trace::reuse::ReuseProfiler;
//!
//! let mut p = ReuseProfiler::new(64);
//! p.touch(0x0000); // cold
//! p.touch(0x1000); // cold
//! p.touch(0x0000); // reuse distance 1 (one distinct line in between)
//! let h = p.histogram();
//! assert_eq!(h.cold, 2);
//! assert_eq!(h.bucket_for_distance(1), 1);
//! ```

// The last-access map is keyed-lookup only (get/insert/remove by line
// address, never iterated), so hash order cannot affect the histogram.
// bdb-lint: allow(determinism): keyed-lookup-only map, never iterated.
use std::collections::HashMap;

/// Power-of-two bucketed reuse-distance histogram.
///
/// Bucket `i` counts reuses with stack distance in `[2^i, 2^(i+1))`
/// (bucket 0 holds distances 0 and 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseHistogram {
    /// Count of first-touch (cold) accesses.
    pub cold: u64,
    /// Reuses beyond the profiler's tracking window.
    pub beyond_window: u64,
    /// Log2-bucketed reuse counts.
    pub buckets: Vec<u64>,
    /// Line granularity in bytes.
    pub line_bytes: u64,
}

impl ReuseHistogram {
    /// Total accesses recorded.
    pub fn total(&self) -> u64 {
        self.cold + self.beyond_window + self.buckets.iter().sum::<u64>()
    }

    /// Count recorded in the bucket covering `distance`.
    pub fn bucket_for_distance(&self, distance: u64) -> u64 {
        let i = (64 - distance.max(1).leading_zeros() as usize).saturating_sub(1);
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Predicted miss ratio of a fully-associative LRU cache holding
    /// `lines` lines: every reuse at stack distance > `lines` misses, plus
    /// all cold and beyond-window accesses.
    ///
    /// Returns 0 for an empty histogram.
    pub fn predicted_miss_ratio(&self, lines: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut misses = self.cold + self.beyond_window;
        for (i, &count) in self.buckets.iter().enumerate() {
            // Bucket i covers distances [2^i, 2^(i+1)); classify by the
            // bucket's upper edge so a bucket only counts as hitting once
            // the capacity covers all distances it may contain.
            let bucket_max = 1u64 << (i + 1);
            if bucket_max > lines {
                misses += count;
            }
        }
        misses as f64 / total as f64
    }

    /// The smallest capacity (in lines, power of two) at which the
    /// predicted miss ratio falls within `epsilon` of the cold-miss floor —
    /// a machine-independent footprint estimate.
    pub fn footprint_lines(&self, epsilon: f64) -> u64 {
        let floor = if self.total() == 0 {
            0.0
        } else {
            (self.cold + self.beyond_window) as f64 / self.total() as f64
        };
        for i in 0..self.buckets.len() {
            let lines = 1u64 << i;
            if self.predicted_miss_ratio(lines) - floor <= epsilon {
                return lines;
            }
        }
        1u64 << self.buckets.len()
    }
}

/// Fenwick tree over access timestamps (ring buffer of `window` slots).
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }

    fn prefix(&self, mut i: usize) -> u64 {
        let mut sum = 0u64;
        i = i.min(self.tree.len() - 1);
        while i > 0 {
            sum += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Exact LRU stack-distance profiler (Olken's algorithm) with a bounded
/// time window.
#[derive(Debug, Clone)]
pub struct ReuseProfiler {
    line_shift: u32,
    window: usize,
    time: u64,
    // bdb-lint: allow(determinism): keyed-lookup-only map, never iterated.
    last_access: HashMap<u64, u64>,
    fenwick: Fenwick,
    cold: u64,
    beyond: u64,
    buckets: Vec<u64>,
    /// Bucket boundary table, built once at construction: maps a reuse
    /// distance's bit width (`64 - leading_zeros`) to its clamped bucket
    /// index, hoisting the shift/clamp arithmetic out of the per-access
    /// path of [`ReuseProfiler::touch`].
    bucket_of: [u8; 65],
}

impl ReuseProfiler {
    /// Creates a profiler at `line_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(line_bytes: u64) -> Self {
        Self::with_window(line_bytes, 1 << 21)
    }

    /// Creates a profiler with an explicit tracking window (accesses);
    /// reuses farther apart than the window count as `beyond_window`.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two or `window == 0`.
    pub fn with_window(line_bytes: u64, window: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(window > 0, "window must be positive");
        let buckets = vec![0; 40];
        let last = buckets.len() - 1;
        let mut bucket_of = [0u8; 65];
        for (width, slot) in bucket_of.iter_mut().enumerate() {
            *slot = width.saturating_sub(1).min(last) as u8;
        }
        Self {
            line_shift: line_bytes.trailing_zeros(),
            window,
            time: 0,
            // bdb-lint: allow(determinism): keyed-lookup-only map.
            last_access: HashMap::new(),
            fenwick: Fenwick::new(window),
            cold: 0,
            beyond: 0,
            buckets,
            bucket_of,
        }
    }

    fn slot(&self, t: u64) -> usize {
        (t % self.window as u64) as usize
    }

    /// Records an access to `addr`.
    pub fn touch(&mut self, addr: u64) {
        let line = addr >> self.line_shift;
        let now = self.time;
        self.time += 1;
        // Evict the timestamp about to be overwritten by the ring.
        if now >= self.window as u64 {
            let expiring = now - self.window as u64;
            // Any line whose last access is exactly `expiring` leaves the
            // window; its Fenwick bit is cleared lazily below when touched,
            // so just clear the slot if it is still set.
            // (Slot reuse is handled by the distance check.)
            let slot = self.slot(expiring);
            if self.fenwick.prefix(slot + 1) > self.fenwick.prefix(slot) {
                self.fenwick.add(slot, -1);
            }
        }
        match self.last_access.insert(line, now) {
            None => {
                self.cold += 1;
            }
            Some(prev) => {
                if now - prev >= self.window as u64 {
                    self.beyond += 1;
                } else {
                    // Distinct lines touched strictly between prev and now:
                    // count of set slots in (prev, now) over the ring.
                    let distance = self.count_between(prev, now);
                    let width = (64 - distance.max(1).leading_zeros()) as usize;
                    self.buckets[self.bucket_of[width] as usize] += 1;
                    // Clear the previous position.
                    self.fenwick.add(self.slot(prev), -1);
                }
            }
        }
        self.fenwick.add(self.slot(now), 1);
    }

    /// Distinct-line count in the open interval `(prev, now)`, on the ring.
    fn count_between(&self, prev: u64, now: u64) -> u64 {
        let a = self.slot(prev);
        let b = self.slot(now);
        let count = |lo: usize, hi: usize| -> u64 {
            // set slots in [lo, hi)
            if hi <= lo {
                0
            } else {
                self.fenwick.prefix(hi) - self.fenwick.prefix(lo)
            }
        };
        if a < b {
            count(a + 1, b)
        } else {
            count(a + 1, self.window) + count(0, b)
        }
    }

    /// Produces the histogram collected so far.
    pub fn histogram(&self) -> ReuseHistogram {
        ReuseHistogram {
            cold: self.cold,
            beyond_window: self.beyond,
            buckets: self.buckets.clone(),
            line_bytes: 1 << self.line_shift,
        }
    }
}

/// A [`TraceSink`](crate::TraceSink) that profiles data and instruction
/// reuse distances simultaneously (the input to architecture-independent
/// characterization).
#[derive(Debug)]
pub struct ReuseSink {
    /// Data-access reuse profiler (64-byte lines).
    pub data: ReuseProfiler,
    /// Instruction-fetch reuse profiler (64-byte lines).
    pub instructions: ReuseProfiler,
}

impl ReuseSink {
    /// Creates a sink with 64-byte line granularity.
    pub fn new() -> Self {
        Self {
            data: ReuseProfiler::new(64),
            instructions: ReuseProfiler::new(64),
        }
    }
}

impl Default for ReuseSink {
    fn default() -> Self {
        Self::new()
    }
}

impl crate::TraceSink for ReuseSink {
    fn exec(&mut self, pc: u64, op: crate::MicroOp) {
        self.instructions.touch(pc);
        match op {
            crate::MicroOp::Load { addr, .. } | crate::MicroOp::Store { addr, .. } => {
                self.data.touch(addr);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_exact_distances() {
        let mut p = ReuseProfiler::new(64);
        // Touch lines A B C A: A's reuse sees 2 distinct lines (B, C).
        p.touch(0x0000);
        p.touch(0x1000);
        p.touch(0x2000);
        p.touch(0x0000);
        let h = p.histogram();
        assert_eq!(h.cold, 3);
        assert_eq!(h.bucket_for_distance(2), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn same_line_is_distance_zero() {
        let mut p = ReuseProfiler::new(64);
        p.touch(0x100);
        p.touch(0x108); // same 64B line
        let h = p.histogram();
        assert_eq!(h.cold, 1);
        assert_eq!(h.bucket_for_distance(0), 1);
    }

    #[test]
    fn repeated_sweep_has_constant_distance() {
        let mut p = ReuseProfiler::new(64);
        // Sweep 16 lines, 4 rounds: after warmup every access has
        // distance 15.
        for _ in 0..4 {
            for i in 0..16u64 {
                p.touch(i * 64);
            }
        }
        let h = p.histogram();
        assert_eq!(h.cold, 16);
        // 48 reuses at distance 15 => bucket log2(15)=3.
        assert_eq!(h.buckets[3], 48);
    }

    #[test]
    fn predicted_miss_ratio_matches_lru_intuition() {
        let mut p = ReuseProfiler::new(64);
        for _ in 0..10 {
            for i in 0..32u64 {
                p.touch(i * 64);
            }
        }
        let h = p.histogram();
        // A 64-line cache holds the sweep: only cold misses.
        let big = h.predicted_miss_ratio(64);
        assert!(big < 0.15, "{big}");
        // An 8-line cache thrashes the 32-line sweep.
        let small = h.predicted_miss_ratio(8);
        assert!(small > 0.9, "{small}");
    }

    #[test]
    fn footprint_lines_detects_working_set() {
        let mut p = ReuseProfiler::new(64);
        for _ in 0..20 {
            for i in 0..100u64 {
                p.touch(i * 64);
            }
        }
        let fp = p.histogram().footprint_lines(0.01);
        assert!((128..=256).contains(&fp), "footprint {fp}");
    }

    #[test]
    fn window_overflow_counts_as_beyond() {
        let mut p = ReuseProfiler::with_window(64, 64);
        p.touch(0xAAAA_0000);
        for i in 0..100u64 {
            p.touch(0x5000_0000 + i * 64);
        }
        p.touch(0xAAAA_0000); // reuse 100 accesses later, window is 64
        let h = p.histogram();
        assert_eq!(h.beyond_window, 1);
    }

    /// Exact LRU stack distance by brute force: distinct lines touched
    /// since the previous occurrence, via a linear recency list.
    fn brute_force_histogram(lines: &[u64]) -> ReuseHistogram {
        let mut stack: Vec<u64> = Vec::new();
        let mut h = ReuseHistogram {
            cold: 0,
            beyond_window: 0,
            buckets: vec![0; 40],
            line_bytes: 64,
        };
        for &line in lines {
            match stack.iter().position(|&l| l == line) {
                None => h.cold += 1,
                Some(pos) => {
                    // `pos` lines are more recent than the previous touch.
                    let width = (64 - (pos as u64).max(1).leading_zeros()) as usize;
                    let bucket = width.saturating_sub(1).min(h.buckets.len() - 1);
                    h.buckets[bucket] += 1;
                    stack.remove(pos);
                }
            }
            stack.insert(0, line);
        }
        h
    }

    /// Regression pin for the hoisted bucket-boundary table: a fixed
    /// xorshift trace must produce a histogram byte-identical to an
    /// independent brute-force reference AND to a pinned checksum, so any
    /// drift in the per-access bucket arithmetic fails loudly.
    #[test]
    fn histogram_bytes_are_pinned() {
        let mut profiler = ReuseProfiler::new(64);
        let mut lines = Vec::new();
        let mut x = 0x0123_4567_89AB_CDEF_u64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 700;
            lines.push(line);
            profiler.touch(line * 64);
        }
        let h = profiler.histogram();
        assert_eq!(h, brute_force_histogram(&lines));

        // FNV-1a over the histogram's fields, pinned. This is the byte-level
        // contract: an optimization may not move a single count.
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for value in [h.cold, h.beyond_window]
            .into_iter()
            .chain(h.buckets.iter().copied())
        {
            for byte in value.to_le_bytes() {
                fnv ^= u64::from(byte);
                fnv = fnv.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        assert_eq!(fnv, 0x2DA7_6EC5_F32E_1399, "histogram checksum drifted");
    }

    #[test]
    fn histogram_totals_are_consistent() {
        let mut p = ReuseProfiler::new(64);
        let mut x = 7u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            p.touch((x % 500) * 64);
        }
        assert_eq!(p.histogram().total(), 5000);
    }
}
