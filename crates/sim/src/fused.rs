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
//! * **Pipelined sweep** ([`fused_points_pipelined`]): the extractor runs
//!   on the calling thread and hands off fixed-size chunks of finished
//!   RLE entries ([`PIPELINE_CHUNK_ENTRIES`]); the other `width - 1`
//!   threads advance every capacity point's replay state over each chunk
//!   as it arrives, while the chunk is still resident in the host's
//!   caches, and the calling thread joins in on the remaining chunks once
//!   extraction ends. Each point's state (`PointReplay`) sees the chunks
//!   in stream order, and the chunks concatenate to exactly the streams
//!   [`SweepStreams::record`] produces, so the curves are byte-identical
//!   to [`fused_points`] at any width. At width 1, or when extraction
//!   yields a single chunk, the sweep replays inline and spawns no thread.
//! * **Batched probes**: `ReplayLru` probes whole runs of RLE entries
//!   per call, and the 8-way order-list line is matched with a
//!   branch-free bitwise way mask; the Olken/Fenwick stack engine
//!   advances a warm touch with two merged tree traversals
//!   ([`Fenwick::range`] / [`Fenwick::move_mark`]) instead of four.

use crate::cache::{Cache, CacheConfig, CacheStats, Replacement};
use crate::machine::MachineConfig;
use crate::sweep::point_ratios;
use bdb_trace::{MicroOp, TraceBuffer, TraceEvent, TraceSink};
// Keyed-lookup only (entry by line address, never iterated), so hash
// order cannot affect any count.
// bdb-lint: allow(determinism): keyed-lookup-only map, never iterated.
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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

    /// Empty streams with room for `entries` RLE entries per side.
    fn with_capacity(entries: usize) -> Self {
        SweepStreams {
            ifetch: Vec::with_capacity(entries),
            irepeat: Vec::with_capacity(entries),
            daddr: Vec::with_capacity(entries),
            dkind: Vec::with_capacity(entries),
            drepeat: Vec::with_capacity(entries),
            ievents: 0,
            devents: 0,
        }
    }

    /// Entries no later event can extend: all but the last of each side
    /// (the last may still grow by a repeat).
    fn finished_entries(&self) -> usize {
        self.ifetch.len().saturating_sub(1) + self.daddr.len().saturating_sub(1)
    }

    /// Splits off the finished entries as one chunk, leaving the last
    /// entry of each side behind in `self` (whose buffers are replaced by
    /// fresh ones with room for `entries` per side).
    fn split_finished(&mut self, entries: usize) -> SweepStreams {
        let mut tail = SweepStreams::with_capacity(entries);
        if let (Some(pc), Some(n)) = (self.ifetch.pop(), self.irepeat.pop()) {
            self.ievents -= u64::from(n);
            tail.ifetch.push(pc);
            tail.irepeat.push(n);
            tail.ievents = u64::from(n);
        }
        if let (Some(addr), Some(kind), Some(n)) =
            (self.daddr.pop(), self.dkind.pop(), self.drepeat.pop())
        {
            self.devents -= u64::from(n);
            tail.daddr.push(addr);
            tail.dkind.push(kind);
            tail.drepeat.push(n);
            tail.devents = u64::from(n);
        }
        let mut chunk = std::mem::replace(self, tail);
        // Hand the unused room on each side back to the allocator: a
        // chunk lives until the slowest lane has replayed it.
        chunk.ifetch.shrink_to_fit();
        chunk.irepeat.shrink_to_fit();
        chunk.daddr.shrink_to_fit();
        chunk.dkind.shrink_to_fit();
        chunk.drepeat.shrink_to_fit();
        chunk
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

    /// Total L1 events (both sides, before run-length compression).
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

/// The pipeline's producer: a [`SweepExtractor`] that hands off its
/// finished entries to `emit` in chunks of at least `chunk_entries` as
/// extraction goes. In order, the emitted chunks followed by
/// [`ChunkedExtractor::finish`]'s remainder concatenate to exactly the
/// streams [`SweepStreams::record`] produces.
struct ChunkedExtractor<F: FnMut(SweepStreams)> {
    extractor: SweepExtractor,
    chunk_entries: usize,
    emit: F,
}

impl<F: FnMut(SweepStreams)> ChunkedExtractor<F> {
    fn new(chunk_entries: usize, emit: F) -> Self {
        let chunk_entries = chunk_entries.max(1);
        let mut extractor = SweepExtractor::new();
        extractor.streams = SweepStreams::with_capacity(chunk_entries + CHUNK_SLACK);
        ChunkedExtractor {
            extractor,
            chunk_entries,
            emit,
        }
    }

    fn step(&mut self, pc: u64, op: MicroOp) {
        self.extractor.step(pc, op);
        if self.extractor.streams.finished_entries() >= self.chunk_entries {
            let chunk = self
                .extractor
                .streams
                .split_finished(self.chunk_entries + CHUNK_SLACK);
            (self.emit)(chunk);
        }
    }

    /// The last chunk: whatever extraction left unsent.
    fn finish(self) -> SweepStreams {
        self.extractor.streams
    }
}

/// Entries one event can add past the chunk threshold (an instruction
/// fetch, three prefetch installs and the demand access) plus the two
/// unfinished entries a chunk leaves behind.
const CHUNK_SLACK: usize = 7;

impl<F: FnMut(SweepStreams)> TraceSink for ChunkedExtractor<F> {
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
    let mut point = PointReplay::new(family, kib);
    point.feed(streams);
    point.finish()
}

/// Geometry for the [`ReplayLru`] fast path, when it is exact: true-LRU
/// set-associative with a power-of-two set count, so masked indexing
/// applies.
fn lru_fast_path(family: &SweepFamily, kib: u64) -> Option<(usize, usize)> {
    let assoc = family.l1_assoc?;
    if family.replacement != Replacement::Lru {
        return None;
    }
    let sets = family.l1_config(kib).sets();
    sets.is_power_of_two().then_some((sets, assoc))
}

/// One L1 of one sweep point, advanced chunk by chunk over the RLE
/// streams: the `ReplayLru` order lists where [`lru_fast_path`] applies,
/// the machine's own [`Cache`] code everywhere else.
#[derive(Debug)]
enum L1Replay {
    Lru(ReplayLru),
    Full {
        cache: Cache,
        /// Replay instruction runs access by access. On the instruction
        /// side a miss injects a next-line install *between* the first
        /// access of a run and its repeats. With two or more sets under
        /// LRU that is irrelevant — the victim is never the just-accessed
        /// MRU line, and the next line lives in another set, so no set's
        /// recency order changes — and the bulk path is exact. With one
        /// set the install lands ahead of the run's line, and under
        /// Random replacement it could evict it, so there runs are
        /// replayed exactly as the machine would.
        expand_iruns: bool,
    },
}

impl L1Replay {
    fn new(family: &SweepFamily, kib: u64) -> Self {
        match lru_fast_path(family, kib) {
            Some((sets, assoc)) => L1Replay::Lru(ReplayLru::new(sets, assoc)),
            None => L1Replay::full(family.l1_config(kib)),
        }
    }

    fn full(config: CacheConfig) -> Self {
        L1Replay::Full {
            expand_iruns: config.replacement == Replacement::Random || config.sets() < 2,
            cache: Cache::new(config),
        }
    }

    fn feed_ifetch(&mut self, pcs: &[u64], repeats: &[u32]) {
        match self {
            L1Replay::Lru(lru) => lru.replay_ifetch(pcs, repeats),
            L1Replay::Full {
                cache,
                expand_iruns,
            } => {
                for (&pc, &n) in pcs.iter().zip(repeats) {
                    if *expand_iruns {
                        for _ in 0..n {
                            if !cache.access(pc, false) {
                                // Machine::fetch's next-line instruction prefetch.
                                cache.install(pc + 64);
                            }
                        }
                    } else if !cache.access_run(pc, false, u64::from(n)) {
                        cache.install(pc + 64);
                    }
                }
            }
        }
    }

    fn feed_data(&mut self, addrs: &[u64], kinds: &[u8], repeats: &[u32]) {
        match self {
            L1Replay::Lru(lru) => lru.replay_data(addrs, kinds, repeats),
            // Data-side runs carry no interleaved events at all (an
            // install in between would have ended the run at
            // extraction), so the bulk path is exact for every
            // replacement policy.
            L1Replay::Full { cache, .. } => {
                for ((&addr, &kind), &n) in addrs.iter().zip(kinds).zip(repeats) {
                    match kind {
                        D_INSTALL => cache.install(addr),
                        D_STORE => {
                            cache.access_run(addr, true, u64::from(n));
                        }
                        _ => {
                            cache.access_run(addr, false, u64::from(n));
                        }
                    }
                }
            }
        }
    }

    fn stats(&self) -> CacheStats {
        match self {
            L1Replay::Lru(lru) => lru.stats(),
            L1Replay::Full { cache, .. } => cache.stats(),
        }
    }
}

/// One capacity point's replay state: feed it the streams' chunks in
/// order, then read the point off. Feeding the whole streams as one chunk
/// is [`fused_point`]; feeding the pipeline's chunks as they arrive gives
/// the same counts, because both L1 models are plain state machines over
/// the concatenated entry sequence.
#[derive(Debug)]
struct PointReplay {
    l1i: L1Replay,
    l1d: L1Replay,
}

impl PointReplay {
    fn new(family: &SweepFamily, kib: u64) -> Self {
        PointReplay {
            l1i: L1Replay::new(family, kib),
            l1d: L1Replay::new(family, kib),
        }
    }

    /// Advances both L1s over the next chunk of the streams.
    fn feed(&mut self, chunk: &SweepStreams) {
        self.l1i.feed_ifetch(&chunk.ifetch, &chunk.irepeat);
        self.l1d
            .feed_data(&chunk.daddr, &chunk.dkind, &chunk.drepeat);
    }

    fn stats(&self) -> (CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats())
    }

    /// `(instruction, data, unified)` miss ratios over everything fed.
    fn finish(&self) -> (f64, f64, f64) {
        let (l1i, l1d) = self.stats();
        point_ratios(l1i, l1d)
    }
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
            self.accesses += u64::from(n);
            // Machine order within a run: the first access, the
            // next-line install if it missed, then the repeats.
            let mut left = n;
            while !self.touch(line) {
                self.misses += 1;
                // Machine::fetch's next-line instruction prefetch.
                self.touch(line + 1);
                left -= 1;
                // With two or more sets the install lands in another set,
                // so the run's line stays most recent in its own and
                // every repeat hits. In a single set the install went in
                // ahead of it: the next repeat re-touches the line, and
                // misses again only when the set has a single way.
                if left == 0 || self.set_mask != 0 {
                    break;
                }
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

/// Finished RLE entries (both sides together) per pipeline chunk: about
/// 1.6 MB of stream data, small enough to stay in the host's caches while
/// every capacity point replays it.
pub const PIPELINE_CHUNK_ENTRIES: usize = 64 * 1024;

/// Runs `workload` once and returns the sweep points for
/// `capacities_kib` — the engine's fused sweep as a pipeline `width`
/// threads wide. Extraction runs on the calling thread; from the first
/// full chunk on, `width - 1` helper threads replay the chunks as they
/// arrive, and the calling thread joins them once extraction ends. The
/// points are assembled in `capacities_kib` order and are byte-identical
/// to [`fused_points`] over [`SweepStreams::record`] at any width.
///
/// At width 1, or when extraction yields a single chunk, the sweep
/// replays on the calling thread and spawns no thread. A
/// single-pass-sound family records the whole streams and runs the
/// stack-distance engine, which needs every entry before it can classify
/// any capacity.
pub fn fused_points_pipelined(
    family: &SweepFamily,
    capacities_kib: &[u64],
    width: usize,
    workload: impl FnOnce(&mut dyn TraceSink),
) -> Vec<(f64, f64, f64)> {
    pipelined_points(
        family,
        capacities_kib,
        width,
        PIPELINE_CHUNK_ENTRIES,
        workload,
    )
    .0
}

/// [`fused_points_pipelined`] at an explicit chunk size; also returns how
/// many helper threads it spawned.
pub(crate) fn pipelined_points(
    family: &SweepFamily,
    capacities_kib: &[u64],
    width: usize,
    chunk_entries: usize,
    workload: impl FnOnce(&mut dyn TraceSink),
) -> (Vec<(f64, f64, f64)>, usize) {
    if family.single_pass_sound() {
        let streams = SweepStreams::record(workload);
        return (fused_points(family, capacities_kib, &streams), 0);
    }
    let lanes: Vec<Mutex<Lane>> = capacities_kib
        .iter()
        .map(|&kib| {
            Mutex::new(Lane {
                point: PointReplay::new(family, kib),
                fed: 0,
            })
        })
        .collect();
    let feed = Feed::new(lanes.len());
    let mut helpers = 0;
    std::thread::scope(|scope| {
        // Closes the feed on every exit, unwinding included, so helpers
        // waiting for chunks never outlive a panicking workload.
        let _close = CloseOnDrop(&feed);
        let (lanes, feed) = (&lanes, &feed);
        let mut extractor = ChunkedExtractor::new(chunk_entries, |chunk| {
            if helpers == 0 && width > 1 {
                helpers = width - 1;
                for h in 1..width {
                    scope.spawn(move || drain(lanes, feed, h * lanes.len() / width));
                }
            }
            feed.publish(chunk);
        });
        workload(&mut extractor);
        let last = extractor.finish();
        feed.publish(last);
        feed.close();
        drain(lanes, feed, 0);
    });
    let points = lanes
        .into_iter()
        .map(|lane| {
            lane.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .point
                .finish()
        })
        .collect();
    (points, helpers)
}

/// One capacity point in the pipeline, with the number of chunks it has
/// replayed so far.
#[derive(Debug)]
struct Lane {
    point: PointReplay,
    fed: usize,
}

/// The chunks extraction has published so far, in stream order. A chunk
/// is dropped as soon as every lane has replayed it, so memory holds only
/// the stretch of stream between the slowest lane and the extractor.
#[derive(Debug)]
struct Feed {
    lanes: usize,
    state: Mutex<FeedState>,
    published: Condvar,
}

#[derive(Debug, Default)]
struct FeedState {
    chunks: Vec<Slot>,
    closed: bool,
}

/// A published chunk and the number of lanes still to replay it.
#[derive(Debug)]
struct Slot {
    chunk: Option<Arc<SweepStreams>>,
    pending: usize,
}

impl Feed {
    fn new(lanes: usize) -> Self {
        Feed {
            lanes,
            state: Mutex::default(),
            published: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FeedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish(&self, chunk: SweepStreams) {
        self.lock().chunks.push(Slot {
            chunk: Some(Arc::new(chunk)),
            pending: self.lanes,
        });
        self.published.notify_all();
    }

    fn close(&self) {
        self.lock().closed = true;
        self.published.notify_all();
    }

    /// The number of chunks published, and whether that is all of them —
    /// first blocking, when `wait` is set, until more than `seen` are
    /// published or the feed is closed.
    fn status(&self, seen: usize, wait: bool) -> (usize, bool) {
        let mut state = self.lock();
        while wait && state.chunks.len() == seen && !state.closed {
            state = self
                .published
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        (state.chunks.len(), state.closed)
    }

    /// Chunk `k`, once published; the calling lane has not replayed it
    /// yet, so it has not been dropped.
    fn chunk(&self, k: usize) -> Option<Arc<SweepStreams>> {
        self.lock().chunks.get(k)?.chunk.clone()
    }

    /// Notes that one more lane has replayed chunk `k`.
    fn replayed(&self, k: usize) {
        let mut state = self.lock();
        if let Some(slot) = state.chunks.get_mut(k) {
            slot.pending -= 1;
            if slot.pending == 0 {
                slot.chunk = None;
            }
        }
    }
}

struct CloseOnDrop<'a>(&'a Feed);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One pipeline thread. Each pass walks the lanes from `first` on and
/// advances every lane it can claim by one chunk, so the lanes move
/// through the stream together and each chunk is replayed by all of
/// them while it is still in the host's caches. Lanes another thread
/// holds are skipped: that thread passes again after releasing them. A
/// pass that advances nothing waits for the next chunk, or returns once
/// the feed is closed.
fn drain(lanes: &[Mutex<Lane>], feed: &Feed, first: usize) {
    let mut published = 0;
    let mut idle = false;
    loop {
        let (now, closed) = feed.status(published, idle);
        published = now;
        let mut advanced = false;
        for i in 0..lanes.len() {
            let Ok(mut lane) = lanes[(first + i) % lanes.len()].try_lock() else {
                continue;
            };
            let k = lane.fed;
            let Some(chunk) = feed.chunk(k) else {
                continue;
            };
            lane.point.feed(&chunk);
            feed.replayed(k);
            lane.fed += 1;
            advanced = true;
        }
        if closed && !advanced {
            return;
        }
        idle = !advanced;
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
    debug_assert!(cap_lines >= 2, "a swept capacity holds at least two lines");
    // Per entry: the demand touch, and on a miss the install plus the
    // re-touch below.
    let mut stack = LruStack::with_capacity(streams.ifetch.len() * 3);
    let mut stats = CacheStats::default();
    for (&pc, &n) in streams.ifetch.iter().zip(&streams.irepeat) {
        // Only a run's first access can miss. On a hit the repeats sit at
        // depth 0.
        stats.accesses += u64::from(n);
        let hit = matches!(stack.touch(pc >> 6), Some(d) if d < cap_lines);
        if !hit {
            stats.misses += 1;
            stack.touch((pc + 64) >> 6);
            if n > 1 {
                // The machine installs the next line before the repeats,
                // which leaves the run's line at depth 1: the first
                // repeat hits there (every capacity holds two lines) and
                // brings it back to the top, where the rest hit.
                stack.touch(pc >> 6);
            }
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

    /// Both L1s of one point replayed through the machine's [`Cache`]
    /// code — the reference path for every family.
    fn cache_replay_point(
        family: &SweepFamily,
        kib: u64,
        streams: &SweepStreams,
    ) -> (CacheStats, CacheStats) {
        let mut point = PointReplay {
            l1i: L1Replay::full(family.l1_config(kib)),
            l1d: L1Replay::full(family.l1_config(kib)),
        };
        point.feed(streams);
        point.stats()
    }

    /// Both L1s of one point replayed through [`ReplayLru`] order lists.
    fn lru_replay_point(
        sets: usize,
        assoc: usize,
        streams: &SweepStreams,
    ) -> (CacheStats, CacheStats) {
        let mut point = PointReplay {
            l1i: L1Replay::Lru(ReplayLru::new(sets, assoc)),
            l1d: L1Replay::Lru(ReplayLru::new(sets, assoc)),
        };
        point.feed(streams);
        point.stats()
    }

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
        let buffer = TraceBuffer::capture(dense_runs);
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

    /// The families the pipelined sweep must reproduce: the paper's
    /// 8-way LRU, Random replacement (the full `Cache` path), a single
    /// 256-way set at 16 KiB (`ReplayLru` with one set) and fully
    /// associative LRU (the stack engine).
    fn pipeline_families() -> [SweepFamily; 4] {
        [
            SweepFamily::atom(),
            SweepFamily {
                l1_assoc: Some(8),
                replacement: Replacement::Random,
            },
            SweepFamily {
                l1_assoc: Some(256),
                replacement: Replacement::Lru,
            },
            SweepFamily::fully_associative(),
        ]
    }

    fn ratio_bits(points: &[(f64, f64, f64)]) -> Vec<(u64, u64, u64)> {
        points
            .iter()
            .map(|p| (p.0.to_bits(), p.1.to_bits(), p.2.to_bits()))
            .collect()
    }

    #[test]
    fn pipelined_sweep_matches_fused_points_bit_for_bit() {
        let streams = SweepStreams::record(mixed_workload);
        let caps = [16u64, 32, 64, 128, 256, 512, 1024];
        for family in pipeline_families() {
            let serial = ratio_bits(&fused_points(&family, &caps, &streams));
            for chunk_entries in [61usize, 997, 4096] {
                assert!(
                    streams.compressed_entries() >= 3 * chunk_entries,
                    "{chunk_entries}-entry chunks must split the stream at least three ways"
                );
                for width in 1usize..=4 {
                    let (points, helpers) =
                        pipelined_points(&family, &caps, width, chunk_entries, mixed_workload);
                    assert_eq!(
                        ratio_bits(&points),
                        serial,
                        "{family:?} at width {width}, {chunk_entries}-entry chunks"
                    );
                    let expected = if family.single_pass_sound() {
                        0
                    } else {
                        width - 1
                    };
                    assert_eq!(helpers, expected, "{family:?} at width {width}");
                }
            }
        }
    }

    #[test]
    fn single_chunk_or_width_one_spawns_no_thread() {
        let streams = SweepStreams::record(mixed_workload);
        let caps = [16u64, 64, 512];
        let serial = ratio_bits(&fused_points(&SweepFamily::atom(), &caps, &streams));
        // The default chunk holds the whole of this small stream.
        assert!(streams.compressed_entries() < PIPELINE_CHUNK_ENTRIES);
        for width in [1usize, 2, 4] {
            let (points, helpers) = pipelined_points(
                &SweepFamily::atom(),
                &caps,
                width,
                PIPELINE_CHUNK_ENTRIES,
                mixed_workload,
            );
            assert_eq!(ratio_bits(&points), serial, "width {width}");
            assert_eq!(helpers, 0, "a single chunk replays inline at width {width}");
        }
        let (points, helpers) =
            pipelined_points(&SweepFamily::atom(), &caps, 1, 64, mixed_workload);
        assert_eq!(ratio_bits(&points), serial);
        assert_eq!(helpers, 0, "width 1 replays inline however many chunks");
    }

    /// Runs `workload` through a [`ChunkedExtractor`] and returns its
    /// chunks, the finishing remainder last.
    fn chunks_of(
        chunk_entries: usize,
        workload: impl FnOnce(&mut dyn TraceSink),
    ) -> Vec<SweepStreams> {
        let mut chunks = Vec::new();
        let mut extractor = ChunkedExtractor::new(chunk_entries, |chunk| chunks.push(chunk));
        workload(&mut extractor);
        let last = extractor.finish();
        chunks.push(last);
        chunks
    }

    /// Concatenates chunks back into one set of streams.
    fn concat(chunks: &[SweepStreams]) -> SweepStreams {
        let mut whole = SweepStreams::default();
        for chunk in chunks {
            whole.ifetch.extend_from_slice(&chunk.ifetch);
            whole.irepeat.extend_from_slice(&chunk.irepeat);
            whole.daddr.extend_from_slice(&chunk.daddr);
            whole.dkind.extend_from_slice(&chunk.dkind);
            whole.drepeat.extend_from_slice(&chunk.drepeat);
            whole.ievents += chunk.ievents;
            whole.devents += chunk.devents;
        }
        whole
    }

    fn assert_same_streams(got: &SweepStreams, want: &SweepStreams) {
        assert_eq!(got.ifetch, want.ifetch);
        assert_eq!(got.irepeat, want.irepeat);
        assert_eq!(got.daddr, want.daddr);
        assert_eq!(got.dkind, want.dkind);
        assert_eq!(got.drepeat, want.drepeat);
        assert_eq!(got.event_count(), want.event_count());
    }

    /// Sequential 8-byte reads: every entry on both sides is a dense run,
    /// so most chunk boundaries fall while a run is still growing.
    fn dense_runs(sink: &mut dyn TraceSink) {
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

    #[test]
    fn chunks_concatenate_to_recorded_streams() {
        for workload in [mixed_workload as fn(&mut dyn TraceSink), dense_runs] {
            let recorded = SweepStreams::record(workload);
            for chunk_entries in [1usize, 2, 3, 5, 64, 1000] {
                let chunks = chunks_of(chunk_entries, workload);
                assert!(chunks.len() >= 3, "{chunk_entries}-entry chunks");
                for chunk in &chunks[..chunks.len() - 1] {
                    assert!(chunk.compressed_entries() >= chunk_entries);
                    assert!(chunk.compressed_entries() <= chunk_entries + CHUNK_SLACK);
                }
                assert_same_streams(&concat(&chunks), &recorded);
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

        /// RLE streams from raw `(line, repeats)` instruction entries and
        /// `(line, kind, repeats)` data entries (adjacent same-line
        /// entries collapse, as extraction would collapse them).
        fn streams_from(entries: &[(u64, u32)], data: &[(u64, u8, u32)]) -> SweepStreams {
            let mut streams = SweepStreams::default();
            for &(line, n) in entries {
                for _ in 0..n {
                    streams.push_ifetch(line << 6);
                }
            }
            for &(line, kind, n) in data {
                for _ in 0..n {
                    streams.push_data(line << 6, kind);
                }
            }
            streams
        }

        /// Both L1s replayed access by access in machine order.
        fn machine_order_oracle(
            config: CacheConfig,
            entries: &[(u64, u32)],
            data: &[(u64, u8, u32)],
        ) -> (CacheStats, CacheStats) {
            let mut l1i = Cache::new(config);
            for &(line, n) in entries {
                for _ in 0..n {
                    if !l1i.access(line << 6, false) {
                        l1i.install((line + 1) << 6);
                    }
                }
            }
            let mut l1d = Cache::new(config);
            for &(line, kind, n) in data {
                for _ in 0..n {
                    if kind == D_INSTALL {
                        l1d.install(line << 6);
                    } else {
                        l1d.access(line << 6, kind == D_STORE);
                    }
                }
            }
            (l1i.stats(), l1d.stats())
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
            /// run-at-once order is exact; with one set (`set_bits` 0)
            /// the replay re-touches the run's line after the install.
            #[test]
            fn batched_ifetch_replay_matches_machine_order(
                set_bits in 0u32..6,
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
            /// vs `cache_replay_point` (the machine's `Cache`) at the
            /// power-of-two geometries the fast path owns (the pow2
            /// check routes any other set count to `Cache` in
            /// production).
            #[test]
            fn lru_replay_point_matches_cache_replay_point_random_streams(
                entries in proptest::collection::vec((0u64..96, 1u32..12), 1..120),
                data in proptest::collection::vec(data_op(), 1..120),
            ) {
                let streams = streams_from(&entries, &data);
                let family = SweepFamily::atom();
                for kib in [4u64, 16, 64] {
                    let config = family.l1_config(kib);
                    let sets = config.sets();
                    if !sets.is_power_of_two() {
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

            /// Fully associative LRU against the machine-order oracle: a
            /// `Cache` replaying every access, with the next-line install
            /// right after each instruction miss. Both sweep routes must
            /// match it — the single-pass stack engine (`fused_points`)
            /// and the per-capacity `Cache` replay in its single set
            /// (`fused_point`). Capacities of 16 to 64 lines over a
            /// 97-line universe keep evictions frequent.
            #[test]
            fn fully_associative_replay_matches_expanded_cache(
                entries in proptest::collection::vec((0u64..96, 1u32..12), 1..150),
                data in proptest::collection::vec(data_op(), 1..150),
            ) {
                let streams = streams_from(&entries, &data);
                let family = SweepFamily::fully_associative();
                let caps = [1u64, 2, 4];
                let single_pass = fused_points(&family, &caps, &streams);
                for (&kib, &point) in caps.iter().zip(&single_pass) {
                    let (oracle_i, oracle_d) =
                        machine_order_oracle(family.l1_config(kib), &entries, &data);
                    let want = ratio_bits(&[point_ratios(oracle_i, oracle_d)]);
                    prop_assert_eq!(ratio_bits(&[point]), want.clone(), "stack engine at {} KiB", kib);
                    prop_assert_eq!(
                        ratio_bits(&[fused_point(&family, kib, &streams)]),
                        want,
                        "Cache replay at {} KiB", kib
                    );
                }
            }

            /// Chunking at any size is invisible: the chunks concatenate
            /// to exactly the recorded streams, runs that straddle a
            /// boundary included.
            #[test]
            fn random_chunk_sizes_concatenate_to_recorded_streams(
                chunk_entries in 1usize..5000,
            ) {
                let recorded = SweepStreams::record(mixed_workload);
                let chunks = chunks_of(chunk_entries, mixed_workload);
                prop_assert!(!chunks.is_empty());
                assert_same_streams(&concat(&chunks), &recorded);
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
