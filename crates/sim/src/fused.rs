//! Fused multi-capacity sweep: trace once, then replay cheap L1 streams
//! at every capacity, cascading the data side through the capacities so
//! an entry stops where replaying it further would change nothing.
//! DESIGN.md §13 has the full argument and the oracles that pin it.
//!
//! Everything outside the two L1 caches (generator, TLBs, branch unit,
//! pipeline, L2) behaves identically at every sweep point, so:
//!
//! 1. **Extract** ([`SweepStreams::record`], straight from the running
//!    workload): one pass through a mirror of `Machine`'s front end —
//!    the fetch-line filter and the stride-1 stream prefetcher, both
//!    capacity-independent — emits the exact run-length-compressed
//!    event streams that reach the L1I and L1D.
//! 2. **Replay** ([`fused_points`]): bare L1 models
//!    replay those streams in *lanes*, an instruction lane per capacity
//!    point and data lanes that between them own every point's L1D.
//!    Set-associative LRU with power-of-two sets — every paper sweep
//!    point — goes through the compact `ReplayLru` order lists, anything
//!    else through the machine's own [`Cache`]; both give the machine's
//!    access and miss counts bit for bit.
//! 3. **Cascade** (the data lanes): under LRU the front of a set is the
//!    line most recently touched in it. Power-of-two set counts nest — a
//!    set of the bigger cache sees a subset of the touches its parent
//!    set in the smaller cache sees — so a line most recent at one
//!    capacity is most recent at every larger one (set refinement;
//!    Mattson et al. 1970, Hill & Smith 1989), where touching it changes
//!    nothing. A data lane walks the points in ascending set-count order
//!    and stops each entry at the first point where its line is already
//!    at the front; the skipped points count its repeats as hits. The
//!    instruction side cannot cascade: `Machine::fetch` installs the next
//!    line only on a miss, and misses depend on capacity
//!    (`instruction_install_breaks_the_lemma` pins an example).
//!
//! **Pipelined sweep** ([`fused_points_pipelined`]): the extractor runs
//! on the calling thread and hands off chunks of finished RLE entries
//! ([`PIPELINE_CHUNK_ENTRIES`]); the other `width - 1` threads advance
//! every lane over each chunk while it is still in the host's caches,
//! and the calling thread joins them once extraction ends. Past width 2
//! the data side splits by the low bits of the line number into one
//! cascade per helper, rounded down to a power of two; the bits pick the
//! set at every capacity, so each split owns whole sets. Each lane sees
//! the chunks in stream order, so the curves are byte-identical to
//! [`fused_points`] at any width. At width 1, or when extraction yields a
//! single chunk, the sweep replays inline and spawns no thread.

use crate::cache::{Cache, CacheConfig, CacheStats, Replacement};
use crate::machine::MachineConfig;
use crate::sweep::point_ratios;
use bdb_trace::{MicroOp, TraceSink};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Data-side event kinds within [`SweepStreams`].
const D_LOAD: u8 = 0;
const D_STORE: u8 = 1;
const D_INSTALL: u8 = 2;

/// The L1 cache family being swept: what varies is capacity, what stays
/// fixed is geometry (associativity, 64-byte lines) and replacement.
///
/// Under LRU, every capacity whose set count is a power of two replays
/// through `ReplayLru`, and when all of a sweep's points do, the data
/// side cascades across them (see the module docs): the set counts nest,
/// so a line most recent at one capacity is most recent at every larger
/// one. Random replacement and non-power-of-two set counts replay every
/// point through [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepFamily {
    /// Ways per set.
    pub l1_assoc: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl SweepFamily {
    /// The paper's sweep platform: 8-way LRU, matching
    /// [`MachineConfig::atom_sweep`] byte for byte.
    pub fn atom() -> Self {
        SweepFamily {
            l1_assoc: 8,
            replacement: Replacement::Lru,
        }
    }

    /// L1 geometry at `kib` of capacity.
    pub fn l1_config(&self, kib: u64) -> CacheConfig {
        CacheConfig {
            size_bytes: kib * 1024,
            assoc: self.l1_assoc,
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
}

/// The capacity-independent L1 event streams of one workload run.
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
    /// Extracts the streams straight from a running workload — the
    /// extractor itself is the sink, so no trace is materialized in
    /// between.
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

/// Sink that turns a workload's micro-op stream into [`SweepStreams`].
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
}

/// All sweep points for `capacities_kib`, in that order: the streams fed
/// whole through the lanes [`fused_points_pipelined`] feeds chunk by
/// chunk. Each point's `(instruction, data, unified)` miss ratios are
/// bit-identical to [`crate::sweep_per_point`] on the same workload, for
/// any associativity and replacement.
pub fn fused_points(
    family: &SweepFamily,
    capacities_kib: &[u64],
    streams: &SweepStreams,
) -> Vec<(f64, f64, f64)> {
    let mut lanes = sweep_lanes(family, capacities_kib, 1);
    for lane in &mut lanes {
        lane.feed(streams);
    }
    sweep_points(&lanes)
}

/// Geometry for the [`ReplayLru`] fast path, when it is exact: true-LRU
/// with a power-of-two set count, so masked indexing applies.
fn lru_fast_path(family: &SweepFamily, kib: u64) -> Option<(usize, usize)> {
    if family.replacement != Replacement::Lru {
        return None;
    }
    let config = family.l1_config(kib);
    let sets = config.sets();
    sets.is_power_of_two().then_some((sets, config.assoc))
}

/// Every lane of one sweep: an instruction lane per capacity point, in
/// capacity order, then up to `data` data lanes (see [`data_lanes`]).
fn sweep_lanes(family: &SweepFamily, capacities_kib: &[u64], data: usize) -> Vec<Lane> {
    capacities_kib
        .iter()
        .map(|&kib| Lane::Instruction(InstructionLane::new(family, kib)))
        .chain(
            data_lanes(family, capacities_kib, data)
                .into_iter()
                .map(Lane::Data),
        )
        .collect()
}

/// `(L1I, L1D)` stats per capacity point, in capacity order, of the
/// lanes [`sweep_lanes`] built.
fn sweep_stats(lanes: &[Lane]) -> Vec<(CacheStats, CacheStats)> {
    let l1i: Vec<CacheStats> = lanes
        .iter()
        .filter_map(|lane| match lane {
            Lane::Instruction(lane) => Some(lane.stats()),
            Lane::Data(_) => None,
        })
        .collect();
    // bdb-lint: allow(hot-loop-allocation): once per sweep, after the replay
    let mut l1d = vec![CacheStats::default(); l1i.len()];
    for lane in lanes {
        if let Lane::Data(lane) = lane {
            lane.add_stats(&mut l1d);
        }
    }
    l1i.into_iter().zip(l1d).collect()
}

/// `(instruction, data, unified)` miss ratios per capacity point.
fn sweep_points(lanes: &[Lane]) -> Vec<(f64, f64, f64)> {
    sweep_stats(lanes)
        .into_iter()
        .map(|(l1i, l1d)| point_ratios(l1i, l1d))
        .collect()
}

/// One unit of replay work: a plain state machine over the concatenated
/// entry sequence of its side, so feeding it the whole streams at once
/// or the pipeline's chunks in order gives the same counts.
#[derive(Debug)]
enum Lane {
    Instruction(InstructionLane),
    Data(DataLane),
}

impl Lane {
    /// Advances the lane over its side of the next chunk.
    fn feed(&mut self, chunk: &SweepStreams) {
        match self {
            Lane::Instruction(lane) => lane.feed(&chunk.ifetch, &chunk.irepeat),
            Lane::Data(lane) => lane.feed(&chunk.daddr, &chunk.dkind, &chunk.drepeat),
        }
    }
}

/// The L1I of one capacity point: the `ReplayLru` order lists where
/// [`lru_fast_path`] applies, the machine's own [`Cache`] code everywhere
/// else. Each point needs a lane of its own because the next-line install
/// fires on a miss, and misses depend on capacity.
#[derive(Debug)]
enum InstructionLane {
    Lru(ReplayLru),
    Full {
        cache: Cache,
        /// Replay runs access by access. A miss injects a next-line
        /// install between the first access of a run and its repeats.
        /// Under LRU with two or more sets the install lands in another
        /// set and the bulk path is exact; with one set it lands ahead
        /// of the run's line, and under Random replacement it could
        /// evict it, so there runs replay exactly as the machine would.
        expand_runs: bool,
    },
}

impl InstructionLane {
    fn new(family: &SweepFamily, kib: u64) -> Self {
        match lru_fast_path(family, kib) {
            Some((sets, assoc)) => InstructionLane::Lru(ReplayLru::new(sets, assoc)),
            None => InstructionLane::full(family.l1_config(kib)),
        }
    }

    fn full(config: CacheConfig) -> Self {
        InstructionLane::Full {
            expand_runs: config.replacement == Replacement::Random || config.sets() < 2,
            cache: Cache::new(config),
        }
    }

    fn feed(&mut self, pcs: &[u64], repeats: &[u32]) {
        match self {
            InstructionLane::Lru(lru) => lru.replay_ifetch(pcs, repeats),
            InstructionLane::Full { cache, expand_runs } => {
                for (&pc, &n) in pcs.iter().zip(repeats) {
                    if *expand_runs {
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

    fn stats(&self) -> CacheStats {
        match self {
            InstructionLane::Lru(lru) => lru.stats(),
            InstructionLane::Full { cache, .. } => cache.stats(),
        }
    }
}

/// One of the independent lanes the L1D side splits into (see
/// [`data_lanes`]); their stats add up to every point's L1D.
#[derive(Debug)]
enum DataLane {
    /// Every point replays through [`ReplayLru`] (LRU with power-of-two
    /// set counts), in ascending set-count order, and an entry stops at
    /// the first point whose set already holds its line at the front.
    /// The lane keeps only the lines whose low `shard_bits` bits equal
    /// `shard`: those bits pick the set at every point, so its order
    /// lists hold just its own sets, indexed by the line without them.
    Cascade {
        shard: u64,
        shard_bits: u32,
        /// Capacity-list index of each point, in cascade order.
        order: Vec<usize>,
        lrus: Vec<ReplayLru>,
        /// `skipped[k]`: demand accesses whose entry stopped at point
        /// `k`. They hit at point `k` and at every later point.
        skipped: Vec<u64>,
    },
    /// Any other family: one point, by capacity-list index, replaying
    /// every entry through the machine's [`Cache`].
    Each(usize, Cache),
}

/// The L1D side of a sweep. A cascading family splits into up to
/// `lanes` cascades by the low bits of the line number — at most as many
/// as the smallest capacity has sets, so each owns whole sets at every
/// point. Any other family gets a lane per point.
fn data_lanes(family: &SweepFamily, capacities_kib: &[u64], lanes: usize) -> Vec<DataLane> {
    let geometry: Option<Vec<(usize, usize)>> = capacities_kib
        .iter()
        .map(|&kib| lru_fast_path(family, kib))
        .collect();
    let Some(geometry) = geometry else {
        return capacities_kib
            .iter()
            .enumerate()
            .map(|(i, &kib)| DataLane::Each(i, Cache::new(family.l1_config(kib))))
            .collect();
    };
    let min_sets = geometry.iter().map(|&(sets, _)| sets).min().unwrap_or(1);
    let lanes = lanes.max(1).min(min_sets);
    // Round down to a power of two, which stays within `min_sets`.
    let shard_bits = lanes.ilog2();
    let mut order: Vec<usize> = (0..geometry.len()).collect();
    order.sort_by_key(|&i| geometry[i].0);
    (0..1u64 << shard_bits)
        .map(|shard| DataLane::Cascade {
            shard,
            shard_bits,
            lrus: order
                .iter()
                .map(|&i| ReplayLru::new(geometry[i].0 >> shard_bits, geometry[i].1))
                .collect(),
            // bdb-lint: allow(hot-loop-allocation): once per lane, before the replay
            skipped: vec![0; order.len()],
            order: order.clone(),
        })
        .collect()
}

impl DataLane {
    fn feed(&mut self, addrs: &[u64], kinds: &[u8], repeats: &[u32]) {
        match self {
            DataLane::Cascade {
                shard,
                shard_bits,
                lrus,
                skipped,
                ..
            } => {
                let shard_mask = (1u64 << *shard_bits) - 1;
                for ((&addr, &kind), &n) in addrs.iter().zip(kinds).zip(repeats) {
                    let line = addr >> 6;
                    if line & shard_mask != *shard {
                        continue;
                    }
                    let line = line >> *shard_bits;
                    // Loads and stores count the same: dirtiness only
                    // feeds the writeback counter, which replay does not
                    // track. Installs refresh recency without counting as
                    // demand accesses.
                    let demand = if kind == D_INSTALL { 0 } else { u64::from(n) };
                    for (lru, skip) in lrus.iter_mut().zip(skipped.iter_mut()) {
                        match lru.touch_unless_mru(line) {
                            None => {
                                *skip += demand;
                                break;
                            }
                            Some(hit) => {
                                lru.accesses += demand;
                                lru.misses += u64::from(demand != 0 && !hit);
                            }
                        }
                    }
                }
            }
            // Data-side runs carry no interleaved events at all (an
            // install in between would have ended the run at
            // extraction), so the bulk path is exact for every
            // replacement policy.
            DataLane::Each(_, cache) => {
                for ((&addr, &kind), &n) in addrs.iter().zip(kinds).zip(repeats) {
                    match kind {
                        D_INSTALL => cache.install(addr),
                        _ => {
                            cache.access_run(addr, kind == D_STORE, u64::from(n));
                        }
                    }
                }
            }
        }
    }

    /// Adds this lane's counts into `l1d`, indexed like the capacity list.
    fn add_stats(&self, l1d: &mut [CacheStats]) {
        let mut add = |i: usize, point: CacheStats| {
            l1d[i].accesses += point.accesses;
            l1d[i].misses += point.misses;
            l1d[i].writebacks += point.writebacks;
        };
        match self {
            DataLane::Cascade {
                order,
                lrus,
                skipped,
                ..
            } => {
                let mut skipped_hits = 0;
                for ((&i, lru), &skip) in order.iter().zip(lrus).zip(skipped) {
                    skipped_hits += skip;
                    let mut point = lru.stats();
                    point.accesses += skipped_hits;
                    add(i, point);
                }
            }
            DataLane::Each(i, cache) => add(*i, cache.stats()),
        }
    }
}

/// Replay-only true-LRU set-associative model: per set, `assoc` line
/// numbers stored most-recent-first in one contiguous slab, so an 8-way
/// set is a single 64-byte cache line of host memory. It keeps
/// [`Cache`]'s order lists and LRU update (a hit rotates the line to the
/// front, a miss shifts the new line in and drops the last slot), so
/// accesses and misses come out identical, but drops what replay never
/// reads — the dirty bit, writebacks and the replacement dispatch —
/// which lets the 8-way probe run branch-free over a fixed-size array.
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

    /// The order list of `line`'s set.
    #[inline]
    fn set_of(&mut self, line: u64) -> &mut [u64] {
        let base = (line & self.set_mask) as usize * self.assoc;
        &mut self.tags[base..base + self.assoc]
    }

    /// Makes `line` the most recent in its set without touching the
    /// counters; returns `true` when the line was resident.
    #[inline]
    fn touch(&mut self, line: u64) -> bool {
        Self::probe(self.set_of(line), line)
    }

    /// [`ReplayLru::touch`], except that a line already most recent in
    /// its set is left alone — touching it would change nothing — and
    /// reported as `None`.
    #[inline]
    fn touch_unless_mru(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        if set.first() == Some(&line) {
            return None;
        }
        Some(Self::probe(set, line))
    }

    #[inline]
    fn probe(set: &mut [u64], line: u64) -> bool {
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

    /// Scalar probe for the general geometry (any associativity).
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

    fn stats(&self) -> CacheStats {
        CacheStats {
            accesses: self.accesses,
            misses: self.misses,
            writebacks: 0,
        }
    }
}

/// Finished RLE entries (both sides together) per pipeline chunk: about
/// 1.6 MB of stream data, small enough to stay in the host's caches while
/// every lane replays it.
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
/// replays on the calling thread and spawns no thread.
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
    let lanes: Vec<Mutex<PipelineLane>> = sweep_lanes(family, capacities_kib, data_width(width))
        .into_iter()
        .map(|lane| Mutex::new(PipelineLane { lane, fed: 0 }))
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
    let lanes: Vec<Lane> = lanes
        .into_iter()
        .map(|lane| {
            lane.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .lane
        })
        .collect();
    (sweep_points(&lanes), helpers)
}

/// Data lanes for a pipeline `width` threads wide: the largest power of
/// two no greater than its helper-thread count, so the data side — most
/// of the replay — spreads over the helpers instead of bounding the
/// sweep from one lane. Up to width 2 that is a single lane.
fn data_width(width: usize) -> usize {
    let helpers = width.saturating_sub(1).max(1);
    1 << helpers.ilog2()
}

/// One lane in the pipeline, with the number of chunks it has replayed
/// so far.
#[derive(Debug)]
struct PipelineLane {
    lane: Lane,
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
fn drain(lanes: &[Mutex<PipelineLane>], feed: &Feed, first: usize) {
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
            lane.lane.feed(&chunk);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::sweep::{assemble_sweep, sweep_per_point};
    use bdb_trace::{CodeLayout, ExecCtx};

    /// Both L1s of one point replayed through the machine's [`Cache`]
    /// code — the reference path for every family.
    fn cache_replay_point(
        family: &SweepFamily,
        kib: u64,
        streams: &SweepStreams,
    ) -> (CacheStats, CacheStats) {
        let config = family.l1_config(kib);
        let mut l1i = InstructionLane::full(config);
        l1i.feed(&streams.ifetch, &streams.irepeat);
        let mut l1d = DataLane::Each(0, Cache::new(config));
        l1d.feed(&streams.daddr, &streams.dkind, &streams.drepeat);
        let mut stats = [CacheStats::default()];
        l1d.add_stats(&mut stats);
        (l1i.stats(), stats[0])
    }

    /// `(L1I, L1D)` stats per point of the production lanes.
    fn lane_stats(
        family: &SweepFamily,
        capacities_kib: &[u64],
        streams: &SweepStreams,
    ) -> Vec<(CacheStats, CacheStats)> {
        let mut lanes = sweep_lanes(family, capacities_kib, 1);
        for lane in &mut lanes {
            lane.feed(streams);
        }
        sweep_stats(&lanes)
    }

    /// Accesses and misses, the counters replay must reproduce.
    fn counts((l1i, l1d): (CacheStats, CacheStats)) -> [u64; 4] {
        [l1i.accesses, l1i.misses, l1d.accesses, l1d.misses]
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
        let streams = SweepStreams::record(mixed_workload);
        let family = SweepFamily::atom();
        for kib in [16, 64, 512] {
            let mut machine = Machine::new(family.machine_config(kib));
            mixed_workload(&mut machine);
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
        let streams = SweepStreams::record(dense_runs);
        assert!(
            streams.data_len() > 2 * streams.daddr.len(),
            "expected dense data runs, got {} events in {} entries",
            streams.data_len(),
            streams.daddr.len()
        );
        let family = SweepFamily::atom();
        for kib in [16, 128] {
            let mut machine = Machine::new(family.machine_config(kib));
            dense_runs(&mut machine);
            let report = machine.report();
            let (l1i, l1d) = cache_replay_point(&family, kib, &streams);
            assert_eq!(l1i, report.l1i, "L1I stats diverged at {kib} KiB");
            assert_eq!(l1d, report.l1d, "L1D stats diverged at {kib} KiB");
        }
    }

    #[test]
    fn replay_lru_matches_cache_replay() {
        // The ReplayLru lanes must reproduce the full Cache replay's
        // exact access and miss counts (writebacks are the one counter
        // they deliberately do not model) at every geometry the sweep
        // can ask for, dense runs included.
        let streams = SweepStreams::record(mixed_workload);
        let family = SweepFamily::atom();
        let caps = [16u64, 64, 512, 4096];
        for (&kib, lanes) in caps.iter().zip(lane_stats(&family, &caps, &streams)) {
            assert!(
                lru_fast_path(&family, kib).is_some(),
                "atom sweep points are pow2"
            );
            assert_eq!(
                counts(lanes),
                counts(cache_replay_point(&family, kib, &streams)),
                "diverged at {kib} KiB"
            );
        }
        // Random replacement must not take the fast path (a random victim
        // stream needs the RNG).
        let random = SweepFamily {
            l1_assoc: 8,
            replacement: Replacement::Random,
        };
        assert_eq!(lru_fast_path(&random, 64), None);
    }

    #[test]
    fn random_replacement_family_uses_exact_replay() {
        // A random victim stream breaks set refinement, so the data lane
        // must replay every point in full — which stays byte-identical
        // to the per-point machines because the identical Cache code
        // (same xorshift evolution) runs over the identical event
        // sequence.
        let family = SweepFamily {
            l1_assoc: 8,
            replacement: Replacement::Random,
        };
        let caps = [16u64, 64];
        for lanes in [1, 2, 4] {
            assert!(data_lanes(&family, &caps, lanes)
                .iter()
                .all(|lane| matches!(lane, DataLane::Each(..))));
        }
        let streams = SweepStreams::record(mixed_workload);
        let fused = assemble_sweep("rnd", &caps, fused_points(&family, &caps, &streams));
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
    /// 8-way LRU, Random replacement (the full `Cache` path) and a single
    /// 256-way set at 16 KiB (`ReplayLru` with one set).
    fn pipeline_families() -> [SweepFamily; 3] {
        [
            SweepFamily::atom(),
            SweepFamily {
                l1_assoc: 8,
                replacement: Replacement::Random,
            },
            SweepFamily {
                l1_assoc: 256,
                replacement: Replacement::Lru,
            },
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
                for width in [1usize, 2, 3, 4, 8] {
                    let (points, helpers) =
                        pipelined_points(&family, &caps, width, chunk_entries, mixed_workload);
                    assert_eq!(
                        ratio_bits(&points),
                        serial,
                        "{family:?} at width {width}, {chunk_entries}-entry chunks"
                    );
                    assert_eq!(helpers, width - 1, "{family:?} at width {width}");
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

    /// Replays one op stream through a one-point data lane of
    /// [`ReplayLru`] order lists (optionally split at the given
    /// boundaries) and through two oracles: a [`Cache`] using the same
    /// bulk calls, and a second [`Cache`] replaying every run access by
    /// access (scalar expansion).
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
        let mut fast = DataLane::Cascade {
            shard: 0,
            shard_bits: 0,
            order: vec![0],
            lrus: vec![ReplayLru::new(sets, assoc)],
            skipped: vec![0],
        };
        let mut start = 0usize;
        for &end in splits.iter().chain([ops.len()].iter()) {
            let end = end.clamp(start, ops.len());
            fast.feed(&addrs[start..end], &kinds[start..end], &repeats[start..end]);
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
        let mut fast_stats = [CacheStats::default()];
        fast.add_stats(&mut fast_stats);
        let fast = fast_stats[0];
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

        /// One RLE data-stream entry with a run that is often long.
        fn long_data_op() -> impl Strategy<Value = (u64, u8, u32)> {
            (
                0u64..384,
                prop_oneof![Just(D_LOAD), Just(D_STORE), Just(D_INSTALL)],
                prop_oneof![1u32..4, 1u32..400],
            )
        }

        /// A family and capacity list for the data-lane property.
        /// `kind` 0 is LRU with power-of-two set counts (the cascade), 1
        /// is Random replacement and 2 is LRU with set counts that are
        /// not powers of two. `picks` index a capacity ladder, so the
        /// list comes out of order and with duplicates.
        fn lane_family(kind: usize, assoc_bits: u32, picks: &[usize]) -> (SweepFamily, Vec<u64>) {
            let (assoc, replacement, base_kib) = match kind {
                0 => (1 << assoc_bits, Replacement::Lru, 1),
                1 => (1 << assoc_bits, Replacement::Random, 1),
                // 3 KiB in 4 ways is 12 sets, and doubling keeps the 3.
                _ => (4, Replacement::Lru, 3),
            };
            let family = SweepFamily {
                l1_assoc: assoc,
                replacement,
            };
            (family, picks.iter().map(|&p| base_kib << p).collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The data lanes, fed in random chunks, against an
            /// independent access-by-access [`Cache`] replay of every
            /// point. Only the power-of-two LRU family may cascade, split
            /// by line into at most as many lanes as its smallest
            /// capacity has sets; Random replacement and other set counts
            /// get a lane per point.
            #[test]
            fn data_lane_matches_independent_point_replays(
                kind in 0usize..3,
                assoc_bits in 0u32..4,
                picks in proptest::collection::vec(0usize..5, 1..7),
                lanes in 1usize..9,
                data in proptest::collection::vec(long_data_op(), 1..150),
                raw_splits in proptest::collection::vec(0usize..150, 0..5),
            ) {
                let (family, caps) = lane_family(kind, assoc_bits, &picks);
                let streams = streams_from(&[], &data);
                let mut split = data_lanes(&family, &caps, lanes);
                let cascades = split
                    .iter()
                    .filter(|lane| matches!(lane, DataLane::Cascade { .. }))
                    .count();
                let expected = if kind == 0 {
                    let min_sets = caps.iter().map(|&kib| family.l1_config(kib).sets()).min();
                    (1 << lanes.ilog2()).min(min_sets.unwrap_or(1))
                } else {
                    0
                };
                prop_assert_eq!(cascades, expected);
                prop_assert_eq!(split.len(), if kind == 0 { expected } else { caps.len() });
                let entries = streams.daddr.len();
                let mut splits = raw_splits;
                splits.sort_unstable();
                let mut start = 0usize;
                for &end in splits.iter().chain([entries].iter()) {
                    let end = end.clamp(start, entries);
                    for lane in &mut split {
                        lane.feed(
                            &streams.daddr[start..end],
                            &streams.dkind[start..end],
                            &streams.drepeat[start..end],
                        );
                    }
                    start = end;
                }
                let mut stats = vec![CacheStats::default(); caps.len()];
                for lane in &split {
                    lane.add_stats(&mut stats);
                }
                for (&kib, got) in caps.iter().zip(stats) {
                    let (_, want) = machine_order_oracle(family.l1_config(kib), &[], &data);
                    prop_assert_eq!(
                        (got.accesses, got.misses),
                        (want.accesses, want.misses),
                        "{:?} at {} KiB of {:?} in {} lanes", family, kib, caps, lanes
                    );
                }
            }

            /// Set refinement on the data side: with nested power-of-two
            /// set counts, a line most recent in its set at one capacity
            /// is most recent at every larger one, before every touch.
            #[test]
            fn mru_at_one_capacity_is_mru_at_every_larger_one(
                assoc_bits in 0u32..4,
                data in proptest::collection::vec(data_op(), 1..300),
            ) {
                let assoc = 1usize << assoc_bits;
                let mut lrus: Vec<ReplayLru> =
                    (0..6).map(|k| ReplayLru::new(1 << k, assoc)).collect();
                for &(line, _, _) in &data {
                    let mru: Vec<bool> = lrus
                        .iter_mut()
                        .map(|lru| lru.set_of(line).first() == Some(&line))
                        .collect();
                    if let Some(k) = mru.iter().position(|&m| m) {
                        prop_assert!(
                            mru[k..].iter().all(|&m| m),
                            "line {} is most recent at {} sets but not beyond: {:?}",
                            line, 1 << k, mru
                        );
                    }
                    for lru in &mut lrus {
                        lru.touch(line);
                    }
                }
            }

            /// A one-point data lane (over arbitrary chunk boundaries)
            /// vs the stamp-LRU [`Cache`] bulk path vs the
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

            /// The production lanes end to end: random RLE streams
            /// replayed through the lanes (order lists, probe8, the data
            /// cascade) vs `cache_replay_point` (the machine's `Cache`)
            /// at the power-of-two geometries the fast path owns.
            #[test]
            fn sweep_lanes_match_cache_replay_point_random_streams(
                entries in proptest::collection::vec((0u64..96, 1u32..12), 1..120),
                data in proptest::collection::vec(data_op(), 1..120),
            ) {
                let streams = streams_from(&entries, &data);
                let family = SweepFamily::atom();
                let caps = [1u64, 4, 16, 64];
                for (&kib, lanes) in caps.iter().zip(lane_stats(&family, &caps, &streams)) {
                    prop_assert_eq!(counts(lanes), counts(cache_replay_point(&family, kib, &streams)));
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
    fn instruction_install_breaks_the_lemma() {
        // Direct-mapped caches of 2 and 4 sets fetch lines 0, 3, 1. The
        // fetch of line 1 misses in the small cache (line 3 took its
        // set), whose next-line install puts line 2 at the front of set
        // 0. The big cache hits on line 1, installs nothing, and line 2's
        // set there stays empty — so the instruction side cannot
        // cascade.
        let pcs = [0u64, 3, 1].map(|line| line << 6);
        let mut small = ReplayLru::new(2, 1);
        let mut big = ReplayLru::new(4, 1);
        small.replay_ifetch(&pcs, &[1; 3]);
        big.replay_ifetch(&pcs, &[1; 3]);
        assert_eq!((small.misses, big.misses), (3, 2));
        assert_eq!(small.set_of(2).first(), Some(&2));
        assert_ne!(big.set_of(2).first(), Some(&2));
    }

    #[test]
    fn data_cascade_skips_entries_on_a_workload_with_reuse() {
        let streams = SweepStreams::record(mixed_workload);
        let mut lanes = data_lanes(&SweepFamily::atom(), &crate::sweep::PAPER_SWEEP_KIB, 1);
        lanes[0].feed(&streams.daddr, &streams.dkind, &streams.drepeat);
        let DataLane::Cascade { skipped, .. } = &lanes[0] else {
            panic!("the atom family cascades");
        };
        assert!(skipped.iter().sum::<u64>() > 0, "no entry stopped early");
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
