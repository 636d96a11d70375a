//! Trace-driven micro-architecture simulator — the reproduction's stand-in
//! for both hardware performance counters (`perf` on the Xeon E5645) and
//! the MARSSx86 cycle simulator used in the paper's locality study.
//!
//! A [`Machine`] consumes the micro-op stream produced by
//! `bdb_trace::ExecCtx` and measures everything the paper reports:
//!
//! * instruction mix (Figures 1–2) — counted directly from the stream,
//! * IPC (Figure 3) — from the analytic [`pipeline`] model,
//! * L1I/L2/L3 MPKI (Figure 4) — from the set-associative [`cache`] model,
//! * ITLB/DTLB MPKI (Figure 5) — from the [`tlb`] model,
//! * branch misprediction ratios (Table 4) — from the [`branch`] unit,
//! * miss-ratio-versus-capacity curves (Figures 6–9) — from the [`mod@sweep`]
//!   harness.
//!
//! # Examples
//!
//! ```
//! use bdb_sim::{Machine, MachineConfig};
//! use bdb_trace::{CodeLayout, ExecCtx};
//!
//! let mut layout = CodeLayout::new();
//! let kernel = layout.region("kernel", 8192);
//! let mut machine = Machine::new(MachineConfig::xeon_e5645());
//! let mut ctx = ExecCtx::new(&layout, &mut machine);
//! let data = ctx.heap_alloc(8 * 1024, 64);
//! ctx.frame(kernel, |ctx| {
//!     let top = ctx.loop_start();
//!     for i in 0..16_000u64 {
//!         ctx.read(data.addr(i * 64 % data.len()), 8);
//!         ctx.int_other(2);
//!         ctx.loop_back(top, i < 15_999);
//!     }
//! });
//! drop(ctx);
//! let report = machine.report();
//! assert!(report.ipc() > 0.5);
//! println!("IPC {:.2}, L1I MPKI {:.1}", report.ipc(), report.l1i_mpki());
//! ```

pub mod branch;
pub mod cache;
pub mod fused;
pub mod machine;
pub mod pipeline;
pub mod sweep;
pub mod tlb;

pub use branch::{BranchStats, BranchUnit, DirectionScheme};
pub use cache::{Cache, CacheConfig, CacheStats, Replacement};
pub use fused::{
    fused_points, fused_points_pipelined, SweepFamily, SweepStreams, PIPELINE_CHUNK_ENTRIES,
};
pub use machine::{Machine, MachineConfig, PerfReport};
pub use pipeline::{Pipeline, PipelineConfig, PipelineKind, ServiceLevel};
pub use sweep::{
    assemble_sweep, sweep_per_point, MissRatioCurve, SweepMetric, SweepResult, PAPER_SWEEP_KIB,
};
pub use tlb::{Tlb, TlbConfig};
