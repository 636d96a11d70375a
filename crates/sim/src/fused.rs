//! Fused multi-capacity sweep: trace once, replay cheap L1 streams per
//! capacity — and, where the inclusion property holds, compute every
//! capacity in a single stack-distance pass.
//!
//! The per-point sweep re-executes the entire workload generator once per
//! L1 size, even though everything outside the two L1 caches (generator,
//! TLBs, branch unit, pipeline, L2) behaves identically at every point.
//! This module splits the work:
//!
//! 1. **Extract** ([`SweepStreams::extract`] from a recorded trace, or
//!    [`SweepStreams::record`] straight from a running workload): one
//!    pass through a sink that mirrors `Machine`'s front end — the
//!    fetch-line filter and the stride-1 stream prefetcher — emitting
//!    the exact, capacity-independent, run-length-compressed event
//!    streams that reach the L1I and L1D. (Both filters are
//!    capacity-independent: the fetch filter only compares consecutive
//!    line addresses, and the prefetcher only observes the demand line
//!    sequence. Drift between this mirror and `Machine` is caught by
//!    `extractor_matches_machine_l1_traffic`.)
//! 2. **Replay** ([`fused_point`] / [`fused_points`]): drive bare L1
//!    models with those streams, once per capacity. Set-associative LRU
//!    with power-of-two sets — every paper sweep point — goes through
//!    the compact `ReplayLru` order lists (one 64-byte host cache
//!    line per 8-way set, the same LRU order as [`Cache`]); everything else
//!    executes the same [`Cache`] code over the same event sequence as
//!    the full machine. Both are exact: same access and miss counts,
//!    bit for bit.
//! 3. **Single pass** ([`fused_points`] when
//!    [`SweepFamily::single_pass_sound`]): for fully-associative LRU, the
//!    inclusion property holds on the data side, so one Mattson/Olken
//!    stack-distance traversal (Fenwick-tree counter, the same machinery
//!    as `bdb_trace::reuse`) yields the exact hit count for *every*
//!    capacity at once. The instruction side keeps a per-capacity pass
//!    even then, because the next-line prefetch fires only on a miss —
//!    capacity-dependent feedback that breaks inclusion.
//!
//! The default machine family ([`SweepFamily::atom`]) is 8-way
//! set-associative, where inclusion is unsound (set conflicts can make a
//! bigger cache miss where a smaller one hit), so `sweep` routes it to
//! the exact per-capacity replay. Either way the workload generator runs
//! exactly once per sweep instead of once per point.
//!
//! Replay is built to run at hardware limits:
//!
//! * **Intra-workload parallelism** ([`fused_points_parallel`]): once
//!   the streams are extracted, capacity points are independent
//!   read-only replays, so one workload's sweep fans out across cores
//!   with deterministic index-ordered assembly — byte-identical to
//!   serial at any width.
//! * **Batched probes**: `ReplayLru` probes whole runs of RLE entries
//!   per call, and the 8-way order-list line is matched with a
//!   branch-free bitwise way mask; the Olken/Fenwick stack engine
//!   advances a warm touch with two merged tree traversals
//!   ([`Fenwick::range`] / [`Fenwick::move_mark`]) instead of four.
//! * **Arena-backed extraction** ([`StreamArena`]): long-lived callers
//!   recycle stream vectors across sweeps, so extraction stops paying
//!   the allocator once warm.

use crate::cache::{Cache, CacheConfig, CacheStats, Replacement};
use crate::machine::MachineConfig;
use crate::sweep::point_ratios;
use bdb_trace::{MicroOp, TraceBuffer, TraceEvent, TraceSink};
use rayon::prelude::*;
// Keyed-lookup only (entry by line address, never iterated), so hash
// order cannot affect any count.
// bdb-lint: allow(determinism): keyed-lookup-only map, never iterated.
use std::collections::HashMap;
use std::sync::Mutex;

/// Data-side event kinds within [`SweepStreams`].
const D_LOAD: u8 = 0;
const D_STORE: u8 = 1;
const D_INSTALL: u8 = 2;

/// The L1 cache family being swept: what varies is capacity, what stays
/// fixed is geometry (associativity, 64-byte lines) and replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepFamily {
    /// Ways per set; `None` means fully associative at every capacity.
    pub l1_assoc: Option<usize>,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl SweepFamily {
    /// The paper's sweep platform: 8-way LRU, matching
    /// [`MachineConfig::atom_sweep`] byte for byte.
    pub fn atom() -> Self {
        SweepFamily {
            l1_assoc: Some(8),
            replacement: Replacement::Lru,
        }
    }

    /// Fully-associative LRU — the family where the inclusion property
    /// holds and the single-pass stack-distance engine applies.
    pub fn fully_associative() -> Self {
        SweepFamily {
            l1_assoc: None,
            replacement: Replacement::Lru,
        }
    }

    /// L1 geometry at `kib` of capacity.
    pub fn l1_config(&self, kib: u64) -> CacheConfig {
        let size_bytes = kib * 1024;
        CacheConfig {
            size_bytes,
            assoc: self.l1_assoc.unwrap_or((size_bytes / 64) as usize),
            line_bytes: 64,
            replacement: self.replacement,
        }
    }

    /// Full machine configuration for the per-point reference path:
    /// [`MachineConfig::atom_sweep`] with this family's L1 geometry.
    pub fn machine_config(&self, kib: u64) -> MachineConfig {
        let mut config = MachineConfig::atom_sweep(kib);
        config.l1i = self.l1_config(kib);
        config.l1d = self.l1_config(kib);
        config
    }

    /// Whether one stack-distance pass yields exact hit counts for every
    /// capacity (the inclusion property): requires full associativity
    /// (set conflicts are capacity-dependent) and LRU (a random victim
    /// stream diverges between capacities).
    pub fn single_pass_sound(&self) -> bool {
        self.l1_assoc.is_none() && self.replacement == Replacement::Lru
    }
}

/// The capacity-independent L1 event streams of one recorded trace.
///
/// Streams are run-length compressed: consecutive events of the same
/// kind touching the same 64-byte line collapse into one entry with a
/// repeat count. Replay expands runs through [`Cache::access_run`]'s
/// bulk-hit path — after the first access the line is resident and most
/// recent and nothing else touches the cache within a run, so the
/// repeats are guaranteed hits; the counters come out exactly as if
/// every event were replayed individually. Sequential byte-granularity
/// scans (most of the catalog's inner loops) shrink several-fold.
#[derive(Debug, Default, Clone)]
pub struct SweepStreams {
    /// Program counters that reach the L1I, post fetch-line filter.
    ifetch: Vec<u64>,
    /// Repeat count per `ifetch` entry (same-line refetches after a
    /// taken branch reset the filter without leaving the line).
    irepeat: Vec<u32>,
    /// Data-side addresses in L1D arrival order (demand and prefetch).
    daddr: Vec<u64>,
    /// Parallel event kinds for `daddr` (`D_LOAD`/`D_STORE`/`D_INSTALL`).
    dkind: Vec<u8>,
    /// Repeat count per `daddr` entry (installs never collapse: a
    /// three-line fill targets three distinct lines).
    drepeat: Vec<u32>,
    /// Running total of `irepeat` (pre-compression L1I event count),
    /// kept incrementally so the replay-work estimate is O(1).
    ievents: u64,
    /// Running total of `drepeat` (pre-compression L1D event count).
    devents: u64,
}

impl SweepStreams {
    /// Extracts the streams from a recorded trace in one pass.
    pub fn extract(buffer: &TraceBuffer) -> Self {
        let mut extractor = SweepExtractor::new();
        // Iterate the columns directly rather than through
        // `replay_into`'s scratch batches: extraction is the one pass
        // that touches every recorded event, so the extra copy shows up.
        for event in buffer.events() {
            extractor.step(event.pc, event.op);
        }
        extractor.streams
    }

    /// Extracts the streams straight from a running workload — the
    /// extractor itself is the sink, so no trace is materialized in
    /// between. Produces bit-identical streams to recording into a
    /// [`TraceBuffer`] and calling [`SweepStreams::extract`] (buffer
    /// replay reproduces the exact event sequence); the engine's fused
    /// sweep uses this to skip the buffer write and re-read on its hot
    /// path.
    pub fn record(workload: impl FnOnce(&mut dyn TraceSink)) -> Self {
        let mut extractor = SweepExtractor::new();
        workload(&mut extractor);
        extractor.streams
    }

    /// [`SweepStreams::record`] into `self`, reusing whatever capacity
    /// the five stream vectors already hold — the [`StreamArena`] path,
    /// so repeated sweeps stop paying the allocator for stream growth.
    pub fn record_into(&mut self, workload: impl FnOnce(&mut dyn TraceSink)) {
        self.clear();
        let mut extractor = SweepExtractor {
            streams: std::mem::take(self),
            last_fetch_line: u64::MAX,
            prefetch: StreamDetector::new(),
        };
        workload(&mut extractor);
        *self = extractor.streams;
    }

    /// Empties the streams without releasing their buffers.
    pub fn clear(&mut self) {
        self.ifetch.clear();
        self.irepeat.clear();
        self.daddr.clear();
        self.dkind.clear();
        self.drepeat.clear();
        self.ievents = 0;
        self.devents = 0;
    }

    /// Number of L1I fetch events (before run-length compression).
    pub fn ifetch_len(&self) -> usize {
        self.ievents as usize
    }

    /// Number of L1D events, demand plus prefetch installs (before
    /// run-length compression).
    pub fn data_len(&self) -> usize {
        self.devents as usize
    }

    /// Total L1 events (both sides, before run-length compression) —
    /// the `trace events` factor in the engine's point-parallel work
    /// threshold.
    pub fn event_count(&self) -> u64 {
        self.ievents + self.devents
    }

    /// Number of run-length-compressed entries across both streams — the
    /// work one capacity replay actually performs.
    pub fn compressed_entries(&self) -> usize {
        self.ifetch.len() + self.daddr.len()
    }

    /// Appends an L1I fetch, collapsing same-line runs.
    fn push_ifetch(&mut self, pc: u64) {
        self.ievents += 1;
        if let (Some(&last_pc), Some(last_n)) = (self.ifetch.last(), self.irepeat.last_mut()) {
            if last_pc >> 6 == pc >> 6 && *last_n < u32::MAX {
                *last_n += 1;
                return;
            }
        }
        self.ifetch.push(pc);
        self.irepeat.push(1);
    }

    /// Appends an L1D event, collapsing same-line same-kind demand runs.
    fn push_data(&mut self, addr: u64, kind: u8) {
        self.devents += 1;
        if let (Some(&last_addr), Some(&last_kind), Some(last_n)) = (
            self.daddr.last(),
            self.dkind.last(),
            self.drepeat.last_mut(),
        ) {
            if last_kind == kind
                && kind != D_INSTALL
                && last_addr >> 6 == addr >> 6
                && *last_n < u32::MAX
            {
                *last_n += 1;
                return;
            }
        }
        self.daddr.push(addr);
        self.dkind.push(kind);
        self.drepeat.push(1);
    }
}

/// Reusable pool of [`SweepStreams`] buffers: checked-in streams keep
/// their five vectors' capacity, so a long-lived caller (the engine,
/// the daemons) extracts thousands of sweeps into the same handful of
/// allocations instead of growing fresh vectors from zero every time.
/// bdb-lint's hot-loop-allocation rule is the enforcement backstop: the
/// extraction path itself must stay allocation-free.
///
/// Concurrent checkouts each get their own streams (the pool refills on
/// first use per concurrent caller); check-in order does not matter.
#[derive(Debug, Default)]
pub struct StreamArena {
    pool: Mutex<Vec<SweepStreams>>,
}

impl StreamArena {
    /// An empty arena.
    pub fn new() -> Self {
        StreamArena::default()
    }

    /// Takes a cleared streams buffer out of the arena (an empty one if
    /// the pool is dry — or poisoned, which only an unwinding recorder
    /// can cause; the replacement buffer keeps the arena functional).
    pub fn checkout(&self) -> SweepStreams {
        self.pool
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default()
    }

    /// Returns a streams buffer to the arena for reuse (contents are
    /// cleared, capacity is kept).
    pub fn checkin(&self, mut streams: SweepStreams) {
        streams.clear();
        if let Ok(mut pool) = self.pool.lock() {
            pool.push(streams);
        }
    }
}

/// Mirror of `Machine`'s stride-1 stream prefetcher (8 slots, round-robin
/// allocation, two-line trigger, three-line fill).
#[derive(Debug)]
struct StreamDetector {
    streams: [StreamSlot; 8],
    clock: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct StreamSlot {
    last_line: u64,
    confidence: u8,
}

impl StreamDetector {
    fn new() -> Self {
        StreamDetector {
            streams: [StreamSlot::default(); 8],
            clock: 0,
        }
    }

    /// Observes a demand line; returns `true` when the three-line prefetch
    /// fill fires. Mirrors `Machine::note_data_line` exactly, including
    /// the default slots initially matching line 0.
    fn note(&mut self, line: u64) -> bool {
        for s in &mut self.streams {
            if line == s.last_line {
                return false;
            }
            if line > s.last_line && line - s.last_line <= 2 {
                s.last_line = line;
                s.confidence = (s.confidence + 1).min(3);
                return s.confidence >= 2;
            }
        }
        self.clock = (self.clock + 1) % self.streams.len();
        self.streams[self.clock] = StreamSlot {
            last_line: line,
            confidence: 0,
        };
        false
    }
}

/// Sink that turns a replayed trace into [`SweepStreams`].
#[derive(Debug)]
struct SweepExtractor {
    streams: SweepStreams,
    last_fetch_line: u64,
    prefetch: StreamDetector,
}

impl SweepExtractor {
    fn new() -> Self {
        SweepExtractor {
            streams: SweepStreams::default(),
            last_fetch_line: u64::MAX,
            prefetch: StreamDetector::new(),
        }
    }

    fn step(&mut self, pc: u64, op: MicroOp) {
        // Machine::fetch's line filter: consecutive ops on one line reach
        // the L1I once; a taken branch (below) resets the filter.
        let line = pc >> 6;
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            self.streams.push_ifetch(pc);
        }
        match op {
            MicroOp::Load { addr, .. } => self.data(addr, false),
            MicroOp::Store { addr, .. } => self.data(addr, true),
            MicroOp::Branch { taken: true, .. } => self.last_fetch_line = u64::MAX,
            _ => {}
        }
    }

    fn data(&mut self, addr: u64, is_store: bool) {
        let line = addr >> 6;
        // Machine::data_access notes the line (possibly firing prefetch
        // installs) before the demand access itself.
        if self.prefetch.note(line) {
            for ahead in 1..=3u64 {
                self.streams.push_data((line + ahead) << 6, D_INSTALL);
            }
        }
        self.streams
            .push_data(addr, if is_store { D_STORE } else { D_LOAD });
    }
}

impl TraceSink for SweepExtractor {
    fn exec(&mut self, pc: u64, op: MicroOp) {
        self.step(pc, op);
    }

    fn exec_batch(&mut self, batch: &[TraceEvent]) {
        for event in batch {
            self.step(event.pc, event.op);
        }
    }
}

/// One fused sweep point: replays the extracted streams against bare L1
/// models at `kib` and returns `(instruction, data, unified)` miss ratios
/// — bit-identical to `sweep_point` on the same recorded workload.
///
/// Exact for any associativity/replacement: set-associative LRU with a
/// power-of-two set count (every paper sweep point) replays through the
/// compact `ReplayLru` order lists, everything else executes the same
/// [`Cache`] code over the same event sequence as the full machine; both
/// produce the machine's exact access and miss counts.
pub fn fused_point(family: &SweepFamily, kib: u64, streams: &SweepStreams) -> (f64, f64, f64) {
    let (l1i, l1d) = if let Some((sets, assoc)) = lru_fast_path(family, kib) {
        lru_replay_point(sets, assoc, streams)
    } else {
        cache_replay_point(family, kib, streams)
    };
    point_ratios(l1i, l1d)
}

/// Geometry for the [`ReplayLru`] fast path, when it is exact: true-LRU
/// set-associative with at least two power-of-two sets (so masked
/// indexing applies and the next-line instruction install always lands
/// in a different set than the line that missed — the property that
/// makes the bulk run replay order-exact).
fn lru_fast_path(family: &SweepFamily, kib: u64) -> Option<(usize, usize)> {
    let assoc = family.l1_assoc?;
    if family.replacement != Replacement::Lru {
        return None;
    }
    let sets = family.l1_config(kib).sets();
    (sets >= 2 && sets.is_power_of_two()).then_some((sets, assoc))
}

/// Replay-only true-LRU set-associative model: per set, `assoc` line
/// numbers stored most-recent-first in one contiguous slab, so an 8-way
/// set is a single 64-byte cache line of host memory. It keeps
/// [`Cache`]'s order-list layout but drops what replay never reads: the
/// dirty bit, the writeback counter and the replacement-policy dispatch,
/// which lets the 8-way probe run branch-free over a fixed-size array.
///
/// A hit rotates the line to the front, a miss shifts the new line in at
/// the front and drops the last slot — the least-recently-used valid
/// line, or an invalid slot (invalid slots always form a suffix). That is
/// [`Cache`]'s LRU update, so accesses and misses come out identical;
/// writebacks are not modelled, which is fine for miss-ratio sweeps —
/// `point_ratios` never reads them.
#[derive(Debug)]
struct ReplayLru {
    /// `tags[set * assoc ..][..assoc]`, most-recent-first; `u64::MAX`
    /// marks an invalid slot (unreachable as a line number: lines are
    /// addresses shifted right by 6).
    tags: Vec<u64>,
    set_mask: u64,
    assoc: usize,
    accesses: u64,
    misses: u64,
}

impl ReplayLru {
    fn new(sets: usize, assoc: usize) -> Self {
        debug_assert!(sets.is_power_of_two());
        ReplayLru {
            tags: vec![u64::MAX; sets * assoc],
            set_mask: sets as u64 - 1,
            assoc,
            accesses: 0,
            misses: 0,
        }
    }

    /// Refreshes `line`'s recency without touching the demand counters
    /// (the install path); returns `true` when the line was resident.
    #[inline]
    fn touch(&mut self, line: u64) -> bool {
        let base = (line & self.set_mask) as usize * self.assoc;
        let set = &mut self.tags[base..base + self.assoc];
        match <&mut [u64; 8]>::try_from(&mut *set) {
            Ok(set8) => Self::probe8(set8, line),
            Err(_) => Self::probe_scan(set, line),
        }
    }

    /// Branch-free probe of one 8-way order-list line (the paper sweep's
    /// only geometry, one 64-byte host cache line): all eight tag
    /// comparisons fold into a way mask in one pass — auto-vectorizable,
    /// no early exit — and the hit/update is a single `copy_within`
    /// whose length comes straight off the mask. A hit at depth `d`
    /// rotates `set[..=d]` right; a miss "rotates" the whole set,
    /// dropping the LRU tail and inserting the new line at the front —
    /// the same update either way, so no divergent control flow.
    #[inline]
    fn probe8(set: &mut [u64; 8], line: u64) -> bool {
        let mut mask = 0u32;
        for (w, &tag) in set.iter().enumerate() {
            mask |= u32::from(tag == line) << w;
        }
        // Depth of the matched way; bit 7 makes an empty mask (a miss)
        // select depth 7 — the evicted LRU slot.
        let depth = (mask | 0x80).trailing_zeros() as usize;
        set.copy_within(..depth, 1);
        set[0] = line;
        mask != 0
    }

    /// Scalar probe for the general geometry (any associativity) — also
    /// the drift oracle the batched 8-way path is proptested against.
    #[inline]
    fn probe_scan(set: &mut [u64], line: u64) -> bool {
        if set[0] == line {
            return true;
        }
        for w in 1..set.len() {
            if set[w] == line {
                set[..=w].rotate_right(1);
                return true;
            }
        }
        set.rotate_right(1);
        set[0] = line;
        false
    }

    /// `n` back-to-back demand accesses to `line`: only the first can
    /// miss, and the repeats just re-touch the line already at the front
    /// of its set, so they reduce to counter bumps.
    #[inline]
    fn access_run(&mut self, line: u64, n: u64) -> bool {
        self.accesses += n;
        let hit = self.touch(line);
        if !hit {
            self.misses += 1;
        }
        hit
    }

    /// Replays a run of RLE instruction-stream entries in one call: the
    /// whole batch walks the order lists without leaving the cache's
    /// working set, and each entry costs one probe (plus the next-line
    /// install probe on a miss) regardless of its repeat count.
    fn replay_ifetch(&mut self, pcs: &[u64], repeats: &[u32]) {
        for (&pc, &n) in pcs.iter().zip(repeats) {
            let line = pc >> 6;
            if !self.access_run(line, u64::from(n)) {
                // Machine::fetch's next-line instruction prefetch.
                self.touch(line + 1);
            }
        }
    }

    /// Replays a run of RLE data-stream entries in one call; installs
    /// refresh recency without counting as demand accesses.
    fn replay_data(&mut self, addrs: &[u64], kinds: &[u8], repeats: &[u32]) {
        for ((&addr, &kind), &n) in addrs.iter().zip(kinds).zip(repeats) {
            if kind == D_INSTALL {
                self.touch(addr >> 6);
            } else {
                // Loads and stores count the same here: dirtiness only
                // feeds the writeback counter, which this model does not
                // track.
                self.access_run(addr >> 6, u64::from(n));
            }
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            accesses: self.accesses,
            misses: self.misses,
            writebacks: 0,
        }
    }
}

/// [`cache_replay_point`] through [`ReplayLru`] order lists. The event
/// sequence and its interleaving are identical; with at least two sets,
/// a miss's next-line instruction install lands in a different set than
/// the missing line (consecutive line numbers differ in their low set
/// bits), so running it after the run's bulk repeats cannot perturb any
/// within-set recency order — the same argument [`cache_replay_point`]
/// makes.
fn lru_replay_point(sets: usize, assoc: usize, streams: &SweepStreams) -> (CacheStats, CacheStats) {
    let mut l1i = ReplayLru::new(sets, assoc);
    l1i.replay_ifetch(&streams.ifetch, &streams.irepeat);
    let mut l1d = ReplayLru::new(sets, assoc);
    l1d.replay_data(&streams.daddr, &streams.dkind, &streams.drepeat);
    (l1i.stats(), l1d.stats())
}

fn cache_replay_point(
    family: &SweepFamily,
    kib: u64,
    streams: &SweepStreams,
) -> (CacheStats, CacheStats) {
    let mut l1i = Cache::new(family.l1_config(kib));
    // On the instruction side a miss injects a next-line install *between*
    // the first access of a run and its repeats. Under LRU that is
    // irrelevant (the victim is never the just-accessed MRU line, and with
    // two or more sets the next line lives in another set, so no set's
    // recency order changes), so the bulk path is exact. Under
    // Random replacement the install could evict the run's own line, so
    // runs are replayed access by access, exactly as the machine would.
    let expand_iruns = family.replacement == Replacement::Random;
    for (&pc, &n) in streams.ifetch.iter().zip(&streams.irepeat) {
        if expand_iruns {
            for _ in 0..n {
                if !l1i.access(pc, false) {
                    // Machine::fetch's next-line instruction prefetch.
                    l1i.install(pc + 64);
                }
            }
        } else if !l1i.access_run(pc, false, u64::from(n)) {
            l1i.install(pc + 64);
        }
    }
    let mut l1d = Cache::new(family.l1_config(kib));
    // Data-side runs carry no interleaved events at all (an install in
    // between would have ended the run at extraction), so the bulk path
    // is exact for every replacement policy.
    for ((&addr, &kind), &n) in streams
        .daddr
        .iter()
        .zip(&streams.dkind)
        .zip(&streams.drepeat)
    {
        match kind {
            D_INSTALL => l1d.install(addr),
            D_STORE => {
                l1d.access_run(addr, true, u64::from(n));
            }
            _ => {
                l1d.access_run(addr, false, u64::from(n));
            }
        }
    }
    (l1i.stats(), l1d.stats())
}

/// All sweep points for `capacities_kib`, routed per
/// [`SweepFamily::single_pass_sound`]: single-pass stack distance where
/// inclusion holds, exact per-capacity replay otherwise.
pub fn fused_points(
    family: &SweepFamily,
    capacities_kib: &[u64],
    streams: &SweepStreams,
) -> Vec<(f64, f64, f64)> {
    if family.single_pass_sound() {
        let cap_lines: Vec<u64> = capacities_kib.iter().map(|&kib| kib * 1024 / 64).collect();
        let data = stack_sweep_data(streams, &cap_lines);
        return cap_lines
            .iter()
            .zip(data)
            .map(|(&lines, d)| point_ratios(fa_lru_instruction_point(streams, lines), d))
            .collect();
    }
    capacities_kib
        .iter()
        .map(|&kib| fused_point(family, kib, streams))
        .collect()
}

/// [`fused_points`] with the per-capacity replays fanned out across
/// `threads` workers — *intra-workload* parallelism: once the streams
/// are extracted, every capacity point is an independent read-only
/// replay, so they fan out freely and the results are assembled in
/// `capacities_kib` index order. Output is byte-identical to the serial
/// [`fused_points`] at any width.
///
/// A single-pass-sound family stays serial regardless of `threads`: its
/// data side already computes every capacity in one stack-distance
/// traversal, so there are no independent per-capacity replays to fan
/// out (splitting them would *add* work).
pub fn fused_points_parallel(
    family: &SweepFamily,
    capacities_kib: &[u64],
    streams: &SweepStreams,
    threads: usize,
) -> Vec<(f64, f64, f64)> {
    if threads <= 1 || capacities_kib.len() <= 1 || family.single_pass_sound() {
        return fused_points(family, capacities_kib, streams);
    }
    match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(pool) => pool.install(|| {
            capacities_kib
                .par_iter()
                .map(|&kib| fused_point(family, kib, streams))
                .collect()
        }),
        // Degradation is safe: serial replay produces the same bytes.
        Err(_) => fused_points(family, capacities_kib, streams),
    }
}

/// Olken's exact LRU stack: a last-touch map plus a Fenwick tree over
/// touch timestamps, answering "how many distinct lines since this line's
/// previous touch" in O(log N) — the same tree-counter technique as
/// `bdb_trace::reuse`, but windowless and time-indexed.
#[derive(Debug)]
struct LruStack {
    // bdb-lint: allow(determinism): keyed-lookup-only map, never iterated.
    last_touch: HashMap<u64, usize>,
    marked: Fenwick,
    time: usize,
}

impl LruStack {
    /// `touches` bounds the total number of [`LruStack::touch`] calls.
    fn with_capacity(touches: usize) -> Self {
        LruStack {
            // bdb-lint: allow(determinism): keyed-lookup-only map.
            last_touch: HashMap::new(),
            marked: Fenwick::new(touches),
            time: 0,
        }
    }

    /// Touches `line`; returns its stack depth before the touch —
    /// `Some(d)` means `d` distinct lines were touched since its previous
    /// touch (so it sits at LRU stack position `d`), `None` means cold.
    ///
    /// A warm touch is two merged Fenwick traversals (the bulk-advance:
    /// [`Fenwick::range`] for the depth, [`Fenwick::move_mark`] to slide
    /// the mark from `prev` to `now`) instead of the four root walks the
    /// naive prefix/add decomposition costs — and both stop early where
    /// their up/down chains meet, so the short reuse intervals that
    /// dominate real traces touch only a few tree nodes.
    fn touch(&mut self, line: u64) -> Option<u64> {
        let now = self.time;
        self.time += 1;
        match self.last_touch.insert(line, now) {
            Some(prev) => {
                // Marked positions are last-touch times of distinct
                // lines, so the marks strictly between prev and now
                // count exactly the distinct lines touched since.
                let d = self.marked.range(prev + 1, now);
                self.marked.move_mark(prev, now);
                Some(d)
            }
            None => {
                self.marked.add(now, 1);
                None
            }
        }
    }
}

/// Fenwick tree over touch timestamps (non-ring; sized to the trace).
#[derive(Debug)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (i64::from(self.tree[i]) + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of marks at positions `< i` — the scalar walk the merged
    /// [`Fenwick::range`] is drift-tested against.
    #[cfg(test)]
    fn prefix(&self, mut i: usize) -> u64 {
        let mut sum = 0u64;
        i = i.min(self.tree.len() - 1);
        while i > 0 {
            sum += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum of marks at positions in `[l, r)` — `prefix(r) - prefix(l)`
    /// as **one** merged traversal: the two downward chains are walked
    /// in lockstep and stop the moment they meet, where the remaining
    /// (identical) nodes would cancel. A short span — the temporally
    /// local reuse that dominates real traces — therefore costs a few
    /// nodes near the leaves instead of two full walks to the root.
    fn range(&self, mut l: usize, mut r: usize) -> u64 {
        let cap = self.tree.len() - 1;
        l = l.min(cap);
        r = r.min(cap);
        let mut sum = 0i64;
        while l != r {
            if r > l {
                sum += i64::from(self.tree[r]);
                r -= r & r.wrapping_neg();
            } else {
                sum -= i64::from(self.tree[l]);
                l -= l & l.wrapping_neg();
            }
        }
        sum as u64
    }

    /// Moves one mark from position `from` to position `to` — the
    /// `add(from, -1); add(to, +1)` pair as **one** merged traversal:
    /// the two upward chains advance in lockstep and stop the moment
    /// they meet, where every remaining node would receive both the -1
    /// and the +1. Together with [`Fenwick::range`] this is the
    /// stack-distance engine's bulk-advance: a warm touch costs two
    /// short merged walks instead of four root-length ones.
    fn move_mark(&mut self, from: usize, to: usize) {
        let len = self.tree.len();
        let mut i = from + 1;
        let mut j = to + 1;
        while i != j && (i < len || j < len) {
            if i < j {
                if i < len {
                    self.tree[i] -= 1;
                }
                i += i & i.wrapping_neg();
            } else {
                if j < len {
                    self.tree[j] += 1;
                }
                j += j & j.wrapping_neg();
            }
        }
    }
}

/// Single-pass multi-capacity data-side sweep for fully-associative LRU:
/// one traversal of the data stream yields the exact per-capacity stats.
///
/// An FA-LRU cache of C lines holds exactly the C most recently touched
/// distinct lines (touch = demand access or prefetch install, both of
/// which refresh recency in `Cache`), so a demand access hits iff its
/// stack depth `d < C` — one depth computation classifies every capacity.
fn stack_sweep_data(streams: &SweepStreams, cap_lines: &[u64]) -> Vec<CacheStats> {
    let mut stack = LruStack::with_capacity(streams.daddr.len());
    // bdb-lint: allow(hot-loop-allocation): one allocation per sweep, amortised over the whole replay
    let mut hits = vec![0u64; cap_lines.len()];
    let mut accesses = 0u64;
    for ((&addr, &kind), &n) in streams
        .daddr
        .iter()
        .zip(&streams.dkind)
        .zip(&streams.drepeat)
    {
        let depth = stack.touch(addr >> 6);
        if kind == D_INSTALL {
            // Installs refresh recency but are not demand accesses.
            continue;
        }
        accesses += u64::from(n);
        // A run's repeats sit at stack depth 0, hitting at every
        // capacity; collapsing them to one touch leaves the marked-line
        // count (and so every other depth) unchanged.
        let repeat_hits = u64::from(n) - 1;
        for (hit, &lines) in hits.iter_mut().zip(cap_lines) {
            *hit += repeat_hits + u64::from(matches!(depth, Some(d) if d < lines));
        }
    }
    cap_lines
        .iter()
        .zip(hits)
        .map(|(_, hit)| CacheStats {
            accesses,
            misses: accesses - hit,
            writebacks: 0,
        })
        .collect()
}

/// Per-capacity FA-LRU instruction-side pass. Still O(log N) per event
/// via the stack, but cannot be fused across capacities: the next-line
/// prefetch fires only on a miss, which depends on the capacity.
fn fa_lru_instruction_point(streams: &SweepStreams, cap_lines: u64) -> CacheStats {
    // Demand touches plus at most one install per demand miss.
    let mut stack = LruStack::with_capacity(streams.ifetch.len() * 2);
    let mut stats = CacheStats::default();
    for (&pc, &n) in streams.ifetch.iter().zip(&streams.irepeat) {
        // Only a run's first access can miss; its repeats sit at depth 0
        // (every capacity holds at least one line), and the miss install
        // touches the adjacent line, which can never push the run's own
        // just-touched line off the top of the stack.
        stats.accesses += u64::from(n);
        let hit = matches!(stack.touch(pc >> 6), Some(d) if d < cap_lines);
        if !hit {
            stats.misses += 1;
            stack.touch((pc + 64) >> 6);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::sweep::{sweep_per_point, sweep_replay};
    use bdb_trace::{CodeLayout, ExecCtx};

    /// A workload with enough irregularity to exercise the fetch filter,
    /// taken branches, the stream prefetcher, and both access kinds.
    fn mixed_workload(sink: &mut dyn TraceSink) {
        let mut layout = CodeLayout::new();
        let regions: Vec<_> = (0..24)
            .map(|i| layout.region(format!("f{i}"), 2048))
            .collect();
        let mut ctx = ExecCtx::new(&layout, sink);
        let heap = ctx.heap_alloc(96 * 1024, 64);
        let mut x = 0x9E37_79B9u64;
        ctx.frame(regions[0], |ctx| {
            for round in 0..12u64 {
                for &r in &regions {
                    ctx.frame(r, |ctx| {
                        for j in 0..96u64 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            match j % 5 {
                                // Sequential walk: trains the prefetcher.
                                0 => ctx.read(heap.addr((round * 96 + j) * 64 % heap.len()), 8),
                                // Scattered traffic: misses and new streams.
                                1 => ctx.read(heap.addr(x % (heap.len() - 8)), 8),
                                2 => ctx.write(heap.addr(x % (heap.len() - 8)), 8),
                                3 => ctx.cond_branch(x.is_multiple_of(3)),
                                _ => ctx.int_other(1),
                            }
                        }
                    });
                }
            }
        });
    }

    #[test]
    fn extractor_matches_machine_l1_traffic() {
        // The drift guard: the extractor's mirror of Machine's front end
        // must reproduce the machine's exact L1 demand traffic at every
        // capacity, or the fused sweep silently diverges.
        let buffer = TraceBuffer::capture(mixed_workload);
        let streams = SweepStreams::extract(&buffer);
        let family = SweepFamily::atom();
        for kib in [16, 64, 512] {
            let mut machine = Machine::new(family.machine_config(kib));
            buffer.replay_into(&mut machine);
            let report = machine.report();
            let (l1i, l1d) = cache_replay_point(&family, kib, &streams);
            assert_eq!(l1i, report.l1i, "L1I stats diverged at {kib} KiB");
            assert_eq!(l1d, report.l1d, "L1D stats diverged at {kib} KiB");
        }
    }

    #[test]
    fn run_length_compression_is_invisible() {
        // Sequential 8-byte reads touch each 64-byte line eight times in
        // a row — dense runs on both sides (the loop body stays in one
        // code line across taken branches). Replay through the bulk path
        // must still match the machine bit for bit.
        fn runs(sink: &mut dyn TraceSink) {
            let mut layout = CodeLayout::new();
            let f = layout.region("runs", 256);
            let mut ctx = ExecCtx::new(&layout, sink);
            let heap = ctx.heap_alloc(32 * 1024, 64);
            ctx.frame(f, |ctx| {
                for round in 0..4u64 {
                    for off in (0..24 * 1024u64).step_by(8) {
                        ctx.read(heap.addr(off), 8);
                        if off.is_multiple_of(1024) {
                            ctx.write(heap.addr(off), 8);
                            ctx.cond_branch(round % 2 == 0);
                        }
                    }
                }
            });
        }
        let buffer = TraceBuffer::capture(runs);
        let streams = SweepStreams::extract(&buffer);
        assert!(
            streams.data_len() > 2 * streams.daddr.len(),
            "expected dense data runs, got {} events in {} entries",
            streams.data_len(),
            streams.daddr.len()
        );
        let family = SweepFamily::atom();
        for kib in [16, 128] {
            let mut machine = Machine::new(family.machine_config(kib));
            buffer.replay_into(&mut machine);
            let report = machine.report();
            let (l1i, l1d) = cache_replay_point(&family, kib, &streams);
            assert_eq!(l1i, report.l1i, "L1I stats diverged at {kib} KiB");
            assert_eq!(l1d, report.l1d, "L1D stats diverged at {kib} KiB");
        }
    }

    #[test]
    fn replay_lru_matches_cache_replay() {
        // The ReplayLru fast path must reproduce the full Cache
        // replay's exact access and miss counts (writebacks are the one
        // counter it deliberately does not model) at every geometry the
        // sweep can ask for, dense runs included.
        let buffer = TraceBuffer::capture(mixed_workload);
        let streams = SweepStreams::extract(&buffer);
        let family = SweepFamily::atom();
        for kib in [16, 64, 512, 4096] {
            let (sets, assoc) = lru_fast_path(&family, kib).expect("atom sweep points are pow2");
            let (fast_i, fast_d) = lru_replay_point(sets, assoc, &streams);
            let (ref_i, ref_d) = cache_replay_point(&family, kib, &streams);
            assert_eq!(
                (fast_i.accesses, fast_i.misses),
                (ref_i.accesses, ref_i.misses),
                "L1I diverged at {kib} KiB"
            );
            assert_eq!(
                (fast_d.accesses, fast_d.misses),
                (ref_d.accesses, ref_d.misses),
                "L1D diverged at {kib} KiB"
            );
        }
        // Random replacement and fully-associative families must not take
        // the fast path (a random victim stream needs the RNG, and FA
        // recency arguments live in the stack engine instead).
        assert_eq!(
            lru_fast_path(
                &SweepFamily {
                    l1_assoc: Some(8),
                    replacement: Replacement::Random,
                },
                64
            ),
            None
        );
        assert_eq!(lru_fast_path(&SweepFamily::fully_associative(), 64), None);
    }

    #[test]
    fn record_matches_buffered_extract() {
        // The direct-from-workload extraction must produce the same
        // streams as recording a trace and extracting from it — the
        // engine's fused path relies on this equivalence.
        let buffer = TraceBuffer::capture(mixed_workload);
        let buffered = SweepStreams::extract(&buffer);
        let direct = SweepStreams::record(mixed_workload);
        assert_eq!(direct.ifetch, buffered.ifetch);
        assert_eq!(direct.irepeat, buffered.irepeat);
        assert_eq!(direct.daddr, buffered.daddr);
        assert_eq!(direct.dkind, buffered.dkind);
        assert_eq!(direct.drepeat, buffered.drepeat);
    }

    #[test]
    fn stack_depth_matches_brute_force() {
        let mut stack = LruStack::with_capacity(64);
        let mut recency: Vec<u64> = Vec::new();
        let mut x = 42u64;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 12;
            let expected = recency.iter().position(|&l| l == line).map(|p| p as u64);
            assert_eq!(stack.touch(line), expected, "depth of line {line}");
            if let Some(p) = expected {
                recency.remove(p as usize);
            }
            recency.insert(0, line);
        }
    }

    #[test]
    fn single_pass_matches_per_capacity_replay_for_fa_lru() {
        // Inclusion-property check: the one-pass stack engine must equal
        // the per-capacity Cache replay (which itself equals the machine)
        // on a fully-associative LRU family.
        let buffer = TraceBuffer::capture(mixed_workload);
        let streams = SweepStreams::extract(&buffer);
        let family = SweepFamily::fully_associative();
        let caps = [16u64, 32, 64];
        let single_pass = fused_points(&family, &caps, &streams);
        for (&kib, &point) in caps.iter().zip(&single_pass) {
            let per_capacity = fused_point(&family, kib, &streams);
            assert_eq!(point, per_capacity, "FA-LRU mismatch at {kib} KiB");
        }
    }

    #[test]
    fn fa_lru_fused_matches_per_point_machines() {
        // End to end: single-pass FA-LRU output equals full per-point
        // machine runs, byte for byte.
        let family = SweepFamily::fully_associative();
        let caps = [16u64, 32, 64];
        let fused = sweep_replay(&family, "fa", &caps, &TraceBuffer::capture(mixed_workload));
        let per_point = sweep_per_point(&family, "fa", &caps, mixed_workload);
        assert_eq!(fused, per_point);
    }

    #[test]
    fn random_replacement_family_uses_exact_replay() {
        // Random replacement breaks inclusion, so the router must fall
        // back to per-capacity replay — which stays byte-identical to the
        // per-point machines because the identical Cache code (same
        // xorshift evolution) runs over the identical event sequence.
        let family = SweepFamily {
            l1_assoc: Some(8),
            replacement: Replacement::Random,
        };
        assert!(!family.single_pass_sound());
        let caps = [16u64, 64];
        let fused = sweep_replay(&family, "rnd", &caps, &TraceBuffer::capture(mixed_workload));
        let per_point = sweep_per_point(&family, "rnd", &caps, mixed_workload);
        assert_eq!(fused, per_point);
    }

    #[test]
    fn record_into_arena_matches_fresh_record() {
        // The arena path (recycled stream vectors) must produce exactly
        // the streams a fresh record produces, and check-in must keep
        // the buffers' capacity for the next checkout.
        let fresh = SweepStreams::record(mixed_workload);
        let arena = StreamArena::new();
        let mut pooled = arena.checkout();
        pooled.record_into(mixed_workload);
        assert_eq!(pooled.ifetch, fresh.ifetch);
        assert_eq!(pooled.irepeat, fresh.irepeat);
        assert_eq!(pooled.daddr, fresh.daddr);
        assert_eq!(pooled.dkind, fresh.dkind);
        assert_eq!(pooled.drepeat, fresh.drepeat);
        assert_eq!(pooled.event_count(), fresh.event_count());
        let daddr_capacity = pooled.daddr.capacity();
        assert!(daddr_capacity >= fresh.daddr.len());
        arena.checkin(pooled);
        let recycled = arena.checkout();
        assert_eq!(recycled.compressed_entries(), 0, "check-in clears");
        assert_eq!(recycled.event_count(), 0);
        assert!(
            recycled.daddr.capacity() >= daddr_capacity,
            "check-in must keep the grown buffers"
        );
        // A second record into the recycled buffer is still identical.
        let mut recycled = recycled;
        recycled.record_into(mixed_workload);
        assert_eq!(recycled.daddr, fresh.daddr);
        assert_eq!(recycled.irepeat, fresh.irepeat);
    }

    #[test]
    fn event_counts_match_repeat_sums() {
        // The O(1) counters must agree with the repeat-vector sums they
        // replaced.
        let streams = SweepStreams::record(mixed_workload);
        assert_eq!(
            streams.ifetch_len(),
            streams.irepeat.iter().map(|&n| n as usize).sum::<usize>()
        );
        assert_eq!(
            streams.data_len(),
            streams.drepeat.iter().map(|&n| n as usize).sum::<usize>()
        );
        assert_eq!(
            streams.event_count(),
            (streams.ifetch_len() + streams.data_len()) as u64
        );
    }

    #[test]
    fn point_parallel_replay_is_byte_identical_to_serial() {
        let streams = SweepStreams::record(mixed_workload);
        let caps = [16u64, 32, 64, 128, 256, 512, 1024];
        for family in [SweepFamily::atom(), SweepFamily::fully_associative()] {
            let serial = fused_points(&family, &caps, &streams);
            for threads in [1usize, 2, 4, 7] {
                let parallel = fused_points_parallel(&family, &caps, &streams, threads);
                for ((kib, s), p) in caps.iter().zip(&serial).zip(&parallel) {
                    assert_eq!(
                        (s.0.to_bits(), s.1.to_bits(), s.2.to_bits()),
                        (p.0.to_bits(), p.1.to_bits(), p.2.to_bits()),
                        "ratio bits differ at {kib} KiB with {threads} threads"
                    );
                }
            }
        }
    }

    /// Replays one op stream through a [`ReplayLru`] (optionally split
    /// at the given boundaries) and through two oracles: a [`Cache`]
    /// using the same bulk calls, and a second [`Cache`] replaying every
    /// run access by access (scalar expansion).
    fn replay_three_ways(
        sets: usize,
        assoc: usize,
        ops: &[(u64, u8, u32)],
        splits: &[usize],
    ) -> [(u64, u64); 3] {
        let config = CacheConfig {
            size_bytes: (sets * assoc * 64) as u64,
            assoc,
            line_bytes: 64,
            replacement: Replacement::Lru,
        };
        let addrs: Vec<u64> = ops.iter().map(|&(line, _, _)| line << 6).collect();
        let kinds: Vec<u8> = ops.iter().map(|&(_, kind, _)| kind).collect();
        let repeats: Vec<u32> = ops.iter().map(|&(_, _, n)| n).collect();
        let mut fast = ReplayLru::new(sets, assoc);
        let mut start = 0usize;
        for &end in splits.iter().chain([ops.len()].iter()) {
            let end = end.clamp(start, ops.len());
            fast.replay_data(&addrs[start..end], &kinds[start..end], &repeats[start..end]);
            start = end;
        }
        let mut bulk = Cache::new(config);
        let mut scalar = Cache::new(config);
        for &(line, kind, n) in ops {
            let addr = line << 6;
            if kind == D_INSTALL {
                bulk.install(addr);
                scalar.install(addr);
            } else {
                let is_store = kind == D_STORE;
                bulk.access_run(addr, is_store, u64::from(n));
                for _ in 0..n {
                    scalar.access(addr, is_store);
                }
            }
        }
        let fast = fast.stats();
        let bulk = bulk.stats();
        let scalar = scalar.stats();
        [
            (fast.accesses, fast.misses),
            (bulk.accesses, bulk.misses),
            (scalar.accesses, scalar.misses),
        ]
    }

    mod batch_props {
        use super::*;
        use proptest::prelude::*;

        /// One RLE data-stream entry over a small line universe: the
        /// low line numbers collide heavily within sets, exercising
        /// every probe depth including the eviction tail.
        fn data_op() -> impl Strategy<Value = (u64, u8, u32)> {
            (
                0u64..96,
                prop_oneof![Just(D_LOAD), Just(D_STORE), Just(D_INSTALL)],
                1u32..20,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Batched `ReplayLru::replay_data` (over arbitrary chunk
            /// boundaries) vs the stamp-LRU [`Cache`] bulk path vs the
            /// access-by-access scalar expansion: all three agree on
            /// accesses and misses at every geometry, including non-8
            /// associativities that route through `probe_scan` and the
            /// 8-way geometry that routes through `probe8`.
            #[test]
            fn batched_data_replay_matches_stamp_and_scalar(
                set_bits in 0u32..6,
                assoc in 1usize..=12,
                ops in proptest::collection::vec(data_op(), 1..200),
                raw_splits in proptest::collection::vec(0usize..200, 0..4),
            ) {
                let sets = 1usize << set_bits;
                let mut splits = raw_splits;
                splits.sort_unstable();
                let [fast, bulk, scalar] = replay_three_ways(sets, assoc, &ops, &splits);
                prop_assert_eq!(fast, bulk, "order-list vs stamp bulk");
                prop_assert_eq!(fast, scalar, "order-list vs scalar expansion");
            }

            /// Batched `ReplayLru::replay_ifetch` vs the machine-order
            /// scalar expansion (access, then next-line install *between*
            /// the first access and the repeats, exactly as
            /// `Machine::fetch` would emit it). With at least two sets
            /// the install lands in a different set, so the batched
            /// run-at-once order is exact — the same argument
            /// `cache_replay_point` makes.
            #[test]
            fn batched_ifetch_replay_matches_machine_order(
                set_bits in 1u32..6,
                assoc in 1usize..=12,
                entries in proptest::collection::vec((0u64..96, 1u32..20), 1..200),
            ) {
                let sets = 1usize << set_bits;
                let pcs: Vec<u64> = entries.iter().map(|&(line, _)| line << 6).collect();
                let repeats: Vec<u32> = entries.iter().map(|&(_, n)| n).collect();
                let mut fast = ReplayLru::new(sets, assoc);
                fast.replay_ifetch(&pcs, &repeats);
                let mut oracle = Cache::new(CacheConfig {
                    size_bytes: (sets * assoc * 64) as u64,
                    assoc,
                    line_bytes: 64,
                    replacement: Replacement::Lru,
                });
                for (&pc, &n) in pcs.iter().zip(&repeats) {
                    for _ in 0..n {
                        if !oracle.access(pc, false) {
                            oracle.install(pc + 64);
                        }
                    }
                }
                let fast = fast.stats();
                let oracle = oracle.stats();
                prop_assert_eq!(fast.accesses, oracle.accesses);
                prop_assert_eq!(fast.misses, oracle.misses);
            }

            /// The merged Fenwick traversals (`range`, `move_mark`) vs
            /// the scalar `prefix`/`add` decomposition they replace: a
            /// random mark layout, random span queries, and random mark
            /// moves applied to a twin tree must agree node for node.
            #[test]
            fn fenwick_merged_walks_match_scalar_decomposition(
                n in 1usize..160,
                seeds in proptest::collection::vec((0usize..160, 0usize..160), 1..60),
            ) {
                let mut merged = Fenwick::new(n);
                let mut oracle = Fenwick::new(n);
                // Place an initial mark so moves always have a source.
                let mut marks = vec![0usize % n];
                merged.add(marks[0], 1);
                oracle.add(marks[0], 1);
                for &(a, b) in &seeds {
                    let (a, b) = (a % n, b % n);
                    let (l, r) = if a <= b { (a, b) } else { (b, a) };
                    // Span query: merged downward walk vs two prefix walks.
                    prop_assert_eq!(
                        merged.range(l, r),
                        oracle.prefix(r) - oracle.prefix(l),
                        "range({}, {})", l, r
                    );
                    // Mark move: merged upward walk vs -1/+1 root walks
                    // (LruStack only ever moves marks forward in time).
                    let from = marks[a % marks.len()];
                    if b > from && !marks.contains(&b) {
                        merged.move_mark(from, b);
                        oracle.add(from, -1);
                        oracle.add(b, 1);
                        let i = marks.iter().position(|&m| m == from).unwrap();
                        marks[i] = b;
                    } else if !marks.contains(&(a.min(n - 1))) {
                        merged.add(a, 1);
                        oracle.add(a, 1);
                        marks.push(a);
                    }
                    prop_assert_eq!(&merged.tree, &oracle.tree);
                }
            }

            /// The batched sweep point end to end: random RLE streams
            /// replayed through `lru_replay_point` (order lists, probe8)
            /// vs `cache_replay_point` (stamp LRU) at a non-pow2-sets
            /// geometry note — the pow2 check routes non-pow2 sets to
            /// the stamp path in production, so here we pin the pow2
            /// geometries the fast path actually owns.
            #[test]
            fn lru_replay_point_matches_cache_replay_point_random_streams(
                entries in proptest::collection::vec((0u64..96, 1u32..12), 1..120),
                data in proptest::collection::vec(data_op(), 1..120),
            ) {
                let mut streams = SweepStreams::default();
                for &(line, n) in &entries {
                    for _ in 0..n {
                        streams.push_ifetch(line << 6);
                    }
                }
                for &(line, kind, n) in &data {
                    for _ in 0..n {
                        streams.push_data(line << 6, kind);
                    }
                }
                let family = SweepFamily::atom();
                for kib in [4u64, 16, 64] {
                    let config = family.l1_config(kib);
                    let sets = config.sets();
                    if !sets.is_power_of_two() || sets < 2 {
                        continue;
                    }
                    let (fast_i, fast_d) = lru_replay_point(sets, config.assoc, &streams);
                    let (ref_i, ref_d) = cache_replay_point(&family, kib, &streams);
                    prop_assert_eq!(
                        (fast_i.accesses, fast_i.misses, fast_d.accesses, fast_d.misses),
                        (ref_i.accesses, ref_i.misses, ref_d.accesses, ref_d.misses)
                    );
                }
            }
        }
    }

    #[test]
    fn stream_detector_initial_state_matches_machine() {
        // Machine's stream slots default to line 0, so the very first
        // touch of line 0 is swallowed and lines 1/2 look like stride hits.
        // The mirror must reproduce that quirk.
        let mut d = StreamDetector::new();
        assert!(!d.note(0));
        assert!(!d.note(1)); // confidence 1
        assert!(d.note(2)); // confidence 2: fill fires
    }
}
