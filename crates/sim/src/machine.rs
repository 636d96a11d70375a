//! The full simulated machine: cache hierarchy + TLBs + branch unit +
//! pipeline, consuming a micro-op trace as a [`TraceSink`].
//!
//! This is the reproduction's stand-in for both `perf` on the Xeon E5645
//! (the [`MachineConfig::xeon_e5645`] preset) and the MARSSx86 simulator
//! used for the locality study (the [`MachineConfig::atom_sweep`] preset).

use crate::branch::{BranchStats, BranchUnit, DirectionScheme};
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::pipeline::{Pipeline, PipelineConfig, ServiceLevel};
use crate::tlb::{Tlb, TlbConfig};
use bdb_trace::{InstructionMix, MicroOp, TraceSink};

/// Complete configuration of a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable platform name (appears in reports).
    pub name: String,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Unified L3, if present.
    pub l3: Option<CacheConfig>,
    /// First-level instruction TLB.
    pub itlb: TlbConfig,
    /// First-level data TLB.
    pub dtlb: TlbConfig,
    /// Shared second-level TLB.
    pub stlb: TlbConfig,
    /// Branch unit flavour.
    pub predictor: DirectionScheme,
    /// Pipeline parameters.
    pub pipeline: PipelineConfig,
}

impl MachineConfig {
    /// The paper's measurement platform: Intel Xeon E5645 (Table 3) —
    /// 32 KB L1I/L1D, 256 KB L2, 12 MB L3, hybrid predictor with 8192-entry
    /// BTB, out-of-order pipeline.
    pub fn xeon_e5645() -> Self {
        Self {
            name: "Intel Xeon E5645".to_owned(),
            l1i: CacheConfig::lru(32 * 1024, 4, 64),
            l1d: CacheConfig::lru(32 * 1024, 8, 64),
            l2: CacheConfig::lru(256 * 1024, 8, 64),
            l3: Some(CacheConfig::lru(12 * 1024 * 1024, 16, 64)),
            itlb: TlbConfig::small_pages(128),
            dtlb: TlbConfig::small_pages(64),
            stlb: TlbConfig::small_pages(512),
            predictor: DirectionScheme::Hybrid,
            pipeline: PipelineConfig::xeon_ooo(),
        }
    }

    /// A modern-for-2015 brawny core in the paper's discussion (the "Dual
    /// Xeon E5 2697" it cites for peak GFLOPS): wider issue, larger BTB
    /// coverage via the same hybrid unit, bigger L2/L3, faster memory.
    /// Used by the `modern_core_projection` experiment to ask how much of
    /// the big data stall problem a newer core buys back.
    pub fn xeon_e5_2697() -> Self {
        Self {
            name: "Intel Xeon E5-2697-class".to_owned(),
            l1i: CacheConfig::lru(32 * 1024, 8, 64),
            l1d: CacheConfig::lru(32 * 1024, 8, 64),
            l2: CacheConfig::lru(256 * 1024, 8, 64),
            l3: Some(CacheConfig::lru(30 * 1024 * 1024, 20, 64)),
            itlb: TlbConfig::small_pages(128),
            dtlb: TlbConfig::small_pages(64),
            stlb: TlbConfig::small_pages(1024),
            predictor: DirectionScheme::Hybrid,
            pipeline: PipelineConfig {
                base_cpi: 0.35,
                l2_latency: 12,
                l3_latency: 34,
                mem_latency: 150,
                ..PipelineConfig::xeon_ooo()
            },
        }
    }

    /// The paper's low-power comparison point: Intel Atom D510 — in-order,
    /// two-level predictor, 128-entry BTB, no L3 (Table 4).
    pub fn atom_d510() -> Self {
        Self {
            name: "Intel Atom D510".to_owned(),
            l1i: CacheConfig::lru(32 * 1024, 8, 64),
            l1d: CacheConfig::lru(24 * 1024, 6, 64),
            l2: CacheConfig::lru(512 * 1024, 8, 64),
            l3: None,
            itlb: TlbConfig::small_pages(64),
            dtlb: TlbConfig::small_pages(64),
            stlb: TlbConfig::small_pages(256),
            predictor: DirectionScheme::TwoLevel,
            pipeline: PipelineConfig::atom_inorder(),
        }
    }

    /// The locality-study simulator (paper §5.4): Atom-like in-order single
    /// core with two cache levels, 8-way L1 caches of `l1_kib` KiB each and
    /// a large shared L2 — swept from 16 KiB to 8192 KiB to trace the
    /// miss-ratio-versus-capacity curves of Figures 6–9.
    ///
    /// # Panics
    ///
    /// Panics if `l1_kib` does not produce a power-of-two set count.
    pub fn atom_sweep(l1_kib: u64) -> Self {
        Self {
            name: format!("MARSS-like in-order, L1 {l1_kib} KiB"),
            l1i: CacheConfig::lru(l1_kib * 1024, 8, 64),
            l1d: CacheConfig::lru(l1_kib * 1024, 8, 64),
            l2: CacheConfig::lru(16 * 1024 * 1024, 8, 64),
            l3: None,
            itlb: TlbConfig::small_pages(64),
            dtlb: TlbConfig::small_pages(64),
            stlb: TlbConfig::small_pages(256),
            predictor: DirectionScheme::TwoLevel,
            pipeline: PipelineConfig::atom_inorder(),
        }
    }
}

/// Everything the simulated machine measured for one workload run — the
/// reproduction's equivalent of one `perf stat` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Platform name.
    pub platform: String,
    /// Retired-instruction mix.
    pub mix: InstructionMix,
    /// Total retired micro-ops.
    pub instructions: u64,
    /// Total simulated cycles.
    pub cycles: f64,
    /// Raw cache statistics (L1I, L1D, L2, L3).
    pub l1i: CacheStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Unified L3 statistics (zeroed when the machine has no L3).
    pub l3: CacheStats,
    /// First-level ITLB misses.
    pub itlb_misses: u64,
    /// First-level DTLB misses.
    pub dtlb_misses: u64,
    /// Instruction-side page walks (ITLB and STLB both missed) — what
    /// `perf`'s iTLB-miss counter reports.
    pub itlb_walks: u64,
    /// Data-side page walks.
    pub dtlb_walks: u64,
    /// Second-level TLB misses (total page walks).
    pub stlb_misses: u64,
    /// Branch statistics.
    pub branch: BranchStats,
    /// Cycles stalled on instruction fetch.
    pub fetch_stall_cycles: f64,
    /// Cycles stalled on data access.
    pub data_stall_cycles: f64,
    /// Cycles lost to branch flushes.
    pub branch_stall_cycles: f64,
    /// Cycles lost to TLB walks.
    pub tlb_stall_cycles: f64,
    /// Off-core requests (accesses that left the private L2).
    pub offcore_requests: u64,
    /// Snoop responses (modelled as dirty writebacks reaching the shared level).
    pub snoop_responses: u64,
}

impl PerfReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }

    fn mpki(&self, misses: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L1 instruction-cache misses per kilo-instruction (Figure 4).
    pub fn l1i_mpki(&self) -> f64 {
        self.mpki(self.l1i.misses)
    }

    /// L1 data-cache misses per kilo-instruction.
    pub fn l1d_mpki(&self) -> f64 {
        self.mpki(self.l1d.misses)
    }

    /// L2 misses per kilo-instruction (Figure 4).
    pub fn l2_mpki(&self) -> f64 {
        self.mpki(self.l2.misses)
    }

    /// L3 misses per kilo-instruction (Figure 4).
    pub fn l3_mpki(&self) -> f64 {
        self.mpki(self.l3.misses)
    }

    /// ITLB misses per kilo-instruction (Figure 5). Counts page walks,
    /// matching the hardware iTLB-miss event the paper's `perf` runs read.
    pub fn itlb_mpki(&self) -> f64 {
        self.mpki(self.itlb_walks)
    }

    /// DTLB misses per kilo-instruction (Figure 5). Counts page walks.
    pub fn dtlb_mpki(&self) -> f64 {
        self.mpki(self.dtlb_walks)
    }

    /// Branch misses per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        self.mpki(self.branch.mispredicts)
    }

    /// Off-core requests per kilo-instruction.
    pub fn offcore_rpki(&self) -> f64 {
        self.mpki(self.offcore_requests)
    }

    /// Snoop responses per kilo-instruction.
    pub fn snoop_rpki(&self) -> f64 {
        self.mpki(self.snoop_responses)
    }

    /// Fraction of cycles lost to front-end stalls.
    pub fn frontend_stall_fraction(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.fetch_stall_cycles / self.cycles
        }
    }
}

/// The simulated machine. Implements [`TraceSink`]: feed it a workload's
/// micro-op stream and read off a [`PerfReport`].
///
/// # Examples
///
/// ```
/// use bdb_sim::machine::{Machine, MachineConfig};
/// use bdb_trace::{CodeLayout, ExecCtx};
///
/// let mut layout = CodeLayout::new();
/// let main = layout.region("main", 4096);
/// let mut machine = Machine::new(MachineConfig::xeon_e5645());
/// let mut ctx = ExecCtx::new(&layout, &mut machine);
/// let buf = ctx.heap_alloc(4096, 8);
/// ctx.frame(main, |ctx| {
///     for i in 0..512u64 {
///         ctx.read(buf.addr(i * 8 % 4096), 8);
///     }
/// });
/// drop(ctx);
/// let report = machine.report();
/// assert!(report.ipc() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    last_line: u64,
    confidence: u8,
}

/// The simulated machine. Implements [`TraceSink`]: feed it a workload's
/// micro-op stream and read off a [`PerfReport`] — the reproduction's
/// equivalent of running under `perf stat`.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    itlb: Tlb,
    dtlb: Tlb,
    stlb: Tlb,
    branch: BranchUnit,
    pipe: Pipeline,
    mix: InstructionMix,
    instructions: u64,
    last_fetch_line: u64,
    last_itlb_page: u64,
    itlb_walks: u64,
    dtlb_walks: u64,
    streams: [Stream; 8],
    stream_clock: usize,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let branch = match config.predictor {
            DirectionScheme::TwoLevel => BranchUnit::d510(),
            DirectionScheme::Hybrid => BranchUnit::e5645(),
        };
        Self {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            stlb: Tlb::new(config.stlb),
            branch,
            pipe: Pipeline::new(config.pipeline),
            mix: InstructionMix::default(),
            instructions: 0,
            last_fetch_line: u64::MAX,
            last_itlb_page: u64::MAX,
            itlb_walks: 0,
            dtlb_walks: 0,
            streams: [Stream::default(); 8],
            stream_clock: 0,
            config,
        }
    }

    /// Fills `addr`'s line into the hierarchy without demand counting (the
    /// prefetch path).
    fn prefetch_fill(&mut self, addr: u64) {
        self.l1d.install(addr);
        self.l2.install(addr);
        if let Some(l3) = &mut self.l3 {
            l3.install(addr);
        }
    }

    /// Stride-1 stream detector (the hardware prefetcher of the paper's
    /// platforms): sequential data streams are recognized after two
    /// consecutive lines and then stay two lines ahead, which both hides
    /// their latency and removes their demand misses — exactly why the
    /// streaming HPC suites keep low MPKI and high IPC on real machines.
    fn note_data_line(&mut self, line: u64) {
        for s in &mut self.streams {
            if line == s.last_line {
                return;
            }
            if line > s.last_line && line - s.last_line <= 2 {
                s.last_line = line;
                s.confidence = (s.confidence + 1).min(3);
                if s.confidence >= 2 {
                    self.prefetch_fill((line + 1) << 6);
                    self.prefetch_fill((line + 2) << 6);
                    self.prefetch_fill((line + 3) << 6);
                }
                return;
            }
        }
        // Allocate a new stream slot round-robin.
        self.stream_clock = (self.stream_clock + 1) % self.streams.len();
        self.streams[self.stream_clock] = Stream {
            last_line: line,
            confidence: 0,
        };
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Walks the unified levels for a line that missed L1.
    fn walk_unified(&mut self, addr: u64, is_store: bool) -> ServiceLevel {
        if self.l2.access(addr, is_store) {
            return ServiceLevel::L2;
        }
        match &mut self.l3 {
            Some(l3) => {
                if l3.access(addr, is_store) {
                    ServiceLevel::L3
                } else {
                    ServiceLevel::Memory
                }
            }
            None => ServiceLevel::Memory,
        }
    }

    fn fetch(&mut self, pc: u64) {
        let line = pc >> 6;
        if line == self.last_fetch_line {
            return;
        }
        self.last_fetch_line = line;
        let page = self.itlb.page_of(pc);
        if page != self.last_itlb_page {
            self.last_itlb_page = page;
            if !self.itlb.access(pc) {
                let walked = !self.stlb.access(pc);
                if walked {
                    self.itlb_walks += 1;
                }
                self.pipe.tlb_stall(walked);
            }
        }
        if !self.l1i.access(pc, false) {
            let level = self.walk_unified(pc, false);
            self.pipe.fetch_stall(level);
            // Next-line instruction prefetch: straight-line code rarely
            // misses twice in a row.
            self.l1i.install(pc + 64);
            self.l2.install(pc + 64);
        }
    }

    fn data_access(&mut self, addr: u64, is_store: bool) {
        if !self.dtlb.access(addr) {
            let walked = !self.stlb.access(addr);
            if walked {
                self.dtlb_walks += 1;
            }
            self.pipe.tlb_stall(walked);
        }
        self.note_data_line(addr >> 6);
        if self.l1d.access(addr, is_store) {
            self.pipe.data_stall(ServiceLevel::L1, is_store);
        } else {
            let level = self.walk_unified(addr, is_store);
            self.pipe.data_stall(level, is_store);
        }
    }

    /// Produces the measurement report.
    pub fn report(&self) -> PerfReport {
        PerfReport {
            platform: self.config.name.clone(),
            mix: self.mix,
            instructions: self.instructions,
            cycles: self.pipe.cycles(),
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.as_ref().map(|c| c.stats()).unwrap_or_default(),
            itlb_misses: self.itlb.misses(),
            dtlb_misses: self.dtlb.misses(),
            itlb_walks: self.itlb_walks,
            dtlb_walks: self.dtlb_walks,
            stlb_misses: self.itlb_walks + self.dtlb_walks,
            branch: self.branch.stats(),
            fetch_stall_cycles: self.pipe.fetch_stall_cycles(),
            data_stall_cycles: self.pipe.data_stall_cycles(),
            branch_stall_cycles: self.pipe.branch_stall_cycles(),
            tlb_stall_cycles: self.pipe.tlb_stall_cycles(),
            offcore_requests: self.l2.stats().misses + self.l2.stats().writebacks,
            snoop_responses: self.l1d.stats().writebacks,
        }
    }
}

impl TraceSink for Machine {
    fn exec(&mut self, pc: u64, op: MicroOp) {
        self.instructions += 1;
        self.mix.record(&op);
        self.pipe.issue_class(&op);
        self.fetch(pc);
        match op {
            MicroOp::Load { addr, .. } => self.data_access(addr, false),
            MicroOp::Store { addr, .. } => self.data_access(addr, true),
            MicroOp::Branch {
                taken,
                target,
                kind,
            } => {
                let mispredicted = self.branch.observe(pc, taken, target, kind);
                if mispredicted {
                    self.pipe.branch_penalty(self.branch.mispredict_penalty());
                }
                if taken {
                    // Redirect: the next fetch starts at a new line.
                    self.last_fetch_line = u64::MAX;
                }
            }
            MicroOp::Int { .. } | MicroOp::Fp => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_trace::{CodeLayout, ExecCtx};

    fn run_kernel(config: MachineConfig, code_kib: u64, data_kib: u64, iters: u64) -> PerfReport {
        let mut layout = CodeLayout::new();
        // Spread the code over many 4 KiB routines to control I-footprint.
        let regions: Vec<_> = (0..code_kib.div_ceil(4))
            .map(|i| layout.region(format!("r{i}"), 4096))
            .collect();
        let mut machine = Machine::new(config);
        let mut ctx = ExecCtx::new(&layout, &mut machine);
        let data = ctx.heap_alloc(data_kib * 1024, 64);
        let root = regions[0];
        ctx.frame(root, |ctx| {
            for i in 0..iters {
                let r = regions[(i % regions.len() as u64) as usize];
                ctx.frame(r, |ctx| {
                    for j in 0..64u64 {
                        // Hashed (non-sequential) accesses so the stream
                        // prefetcher cannot hide the data footprint.
                        let mut x = i * 64 + j;
                        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let off = (x % (data.len() / 64)) * 64;
                        ctx.read(data.addr(off), 8);
                        ctx.int_other(2);
                        ctx.cond_branch(j % 8 != 0);
                    }
                });
            }
        });
        machine.report()
    }

    #[test]
    fn small_footprint_has_low_l1i_mpki() {
        let r = run_kernel(MachineConfig::xeon_e5645(), 8, 16, 400);
        assert!(r.l1i_mpki() < 1.0, "l1i mpki {}", r.l1i_mpki());
    }

    #[test]
    fn large_code_footprint_raises_l1i_mpki() {
        let small = run_kernel(MachineConfig::xeon_e5645(), 8, 16, 400);
        let large = run_kernel(MachineConfig::xeon_e5645(), 1024, 16, 400);
        assert!(
            large.l1i_mpki() > 10.0 * small.l1i_mpki().max(0.01),
            "small {} large {}",
            small.l1i_mpki(),
            large.l1i_mpki()
        );
    }

    #[test]
    fn large_data_footprint_raises_l2_misses() {
        let small = run_kernel(MachineConfig::xeon_e5645(), 8, 64, 400);
        let large = run_kernel(MachineConfig::xeon_e5645(), 8, 8 * 1024, 400);
        assert!(large.l2.misses > small.l2.misses);
    }

    #[test]
    fn ipc_degrades_with_code_footprint() {
        let small = run_kernel(MachineConfig::xeon_e5645(), 8, 16, 400);
        let large = run_kernel(MachineConfig::xeon_e5645(), 2048, 16, 400);
        assert!(
            small.ipc() > large.ipc(),
            "small {} large {}",
            small.ipc(),
            large.ipc()
        );
    }

    #[test]
    fn report_totals_are_consistent() {
        let r = run_kernel(MachineConfig::xeon_e5645(), 16, 32, 100);
        assert_eq!(r.instructions, r.mix.total());
        assert!(r.cycles > 0.0);
        assert!(r.l1i.accesses > 0);
        assert!(r.l1d.accesses > 0);
        assert!(r.branch.branches > 0);
        // Off-core requests can't exceed L2 traffic.
        assert!(r.offcore_requests <= r.l2.accesses + r.l2.writebacks);
    }

    #[test]
    fn atom_sweep_larger_l1_lowers_miss_ratio() {
        let small = run_kernel(MachineConfig::atom_sweep(16), 256, 16, 300);
        let large = run_kernel(MachineConfig::atom_sweep(512), 256, 16, 300);
        assert!(large.l1i.miss_ratio() < small.l1i.miss_ratio());
    }

    #[test]
    fn presets_have_expected_shapes() {
        let xeon = MachineConfig::xeon_e5645();
        assert!(xeon.l3.is_some());
        assert_eq!(xeon.predictor, DirectionScheme::Hybrid);
        let atom = MachineConfig::atom_d510();
        assert!(atom.l3.is_none());
        assert_eq!(atom.predictor, DirectionScheme::TwoLevel);
    }
}
