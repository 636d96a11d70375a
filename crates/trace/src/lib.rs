//! Micro-op trace model — the contract between workloads and the
//! micro-architecture simulator.
//!
//! The paper measures real binaries with hardware performance counters; this
//! reproduction instead executes **real algorithms instrumented at the
//! micro-op level**. Every workload (and every miniature software stack it
//! runs on) performs its actual computation in Rust while simultaneously
//! narrating that computation as a stream of [`MicroOp`]s — loads, stores,
//! integer/floating-point operations, and branches — each attributed to a
//! program counter inside a named [`region::CodeRegion`].
//!
//! The stream is consumed online by any [`TraceSink`]; the cycle-level
//! consumer lives in `bdb-sim`, while this crate ships lightweight sinks for
//! instruction-mix statistics and testing.
//!
//! # Architecture
//!
//! * [`op`] — the micro-op vocabulary ([`MicroOp`], [`IntPurpose`],
//!   [`BranchKind`]).
//! * [`region`] — code-address-space management: each framework routine or
//!   kernel loop owns a [`region::CodeRegion`]; instruction footprint emerges
//!   from how much of each region executions actually touch.
//! * [`mem`] — the simulated data address space ([`mem::SimAlloc`],
//!   [`mem::MemRegion`]); workloads allocate their arrays/hash tables here so
//!   data-cache behaviour emerges from real access patterns.
//! * [`ctx`] — [`ExecCtx`], the instrumented execution context with frame
//!   (call/return) tracking, loop helpers, and boilerplate emitters.
//! * [`mix`] — retired-instruction mix accounting (paper Figures 1 and 2).
//! * [`sink`] — the [`TraceSink`] trait and utility sinks.
//!
//! # Examples
//!
//! ```
//! use bdb_trace::{CodeLayout, ExecCtx, MixSink};
//!
//! let mut layout = CodeLayout::new();
//! let kernel = layout.region("kernel", 4096);
//! let mut sink = MixSink::default();
//! let mut ctx = ExecCtx::new(&layout, &mut sink);
//! let buf = ctx.heap_alloc(1024, 8);
//! ctx.frame(kernel, |ctx| {
//!     for i in 0..128u64 {
//!         ctx.read(buf.addr(i * 8), 8);
//!         ctx.int_other(1);
//!         ctx.cond_branch(i % 2 == 0);
//!     }
//! });
//! let mix = sink.mix();
//! assert_eq!(mix.loads, 128);
//! assert!(mix.branches >= 128);
//! ```

pub mod ctx;
pub mod mem;
pub mod mix;
pub mod op;
pub mod region;
pub mod reuse;
pub mod sink;

pub use ctx::{ExecCtx, OpMix};
pub use mem::{MemRegion, SimAlloc};
pub use mix::InstructionMix;
pub use op::{BranchKind, IntPurpose, MicroOp};
pub use region::{CodeLayout, CodeRegion, RegionId};
pub use reuse::{ReuseHistogram, ReuseProfiler, ReuseSink};
pub use sink::{CountingSink, MixSink, NullSink, TraceSink};
