//! Trace consumers.
//!
//! A [`TraceSink`] receives every dynamic micro-op together with its program
//! counter, online, as the instrumented workload executes. The
//! cycle-accurate consumer is `bdb_sim::Machine`; the sinks here are the
//! lightweight ones: [`MixSink`] for instruction-mix-only runs and
//! [`CountingSink`]/[`NullSink`] for tests and calibration.

use crate::mix::InstructionMix;
use crate::op::MicroOp;

/// Consumes a stream of `(pc, op)` pairs.
///
/// Implementations must be deterministic: measured tables are replayed from
/// seeds, so a sink must not consult wall-clock time or ambient randomness.
pub trait TraceSink {
    /// Handles one retired micro-op at program counter `pc`.
    fn exec(&mut self, pc: u64, op: MicroOp);

    /// Called once when the traced workload finishes (optional).
    fn finish(&mut self) {}
}

/// Discards everything. Useful to run a workload purely for its effects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn exec(&mut self, _pc: u64, _op: MicroOp) {}
}

/// Counts retired ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    ops: u64,
}

impl CountingSink {
    /// Creates a fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Retired op count so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

impl TraceSink for CountingSink {
    fn exec(&mut self, _pc: u64, _op: MicroOp) {
        self.ops += 1;
    }
}

/// Accumulates the full [`InstructionMix`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixSink {
    mix: InstructionMix,
}

impl MixSink {
    /// Creates an empty mix accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated mix.
    pub fn mix(&self) -> InstructionMix {
        self.mix
    }
}

impl TraceSink for MixSink {
    fn exec(&mut self, _pc: u64, op: MicroOp) {
        self.mix.record(&op);
    }
}

/// Forwarding through a mutable reference, so sinks compose without being
/// moved: a `FanoutSink` can borrow a `Machine` that the caller still owns.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn exec(&mut self, pc: u64, op: MicroOp) {
        (**self).exec(pc, op);
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

/// Fans one trace out to any number of sinks, so a single instrumented run
/// can feed e.g. a `Machine`, a [`MixSink`], and a reuse profiler in one
/// pass instead of re-executing the workload per consumer.
///
/// Sinks are borrowed, not owned: the caller keeps its `Machine` and reads
/// the report afterwards. Dispatch order is the registration order, and
/// [`TraceSink::finish`] is forwarded to every sink.
///
/// ```
/// use bdb_trace::{CountingSink, FanoutSink, MicroOp, MixSink, TraceSink};
///
/// let mut count = CountingSink::new();
/// let mut mix = MixSink::new();
/// {
///     let mut fan = FanoutSink::new().with(&mut count).with(&mut mix);
///     fan.exec(0, MicroOp::Fp);
///     fan.finish();
/// }
/// assert_eq!(count.ops(), 1);
/// assert_eq!(mix.mix().fp, 1);
/// ```
#[derive(Default)]
pub struct FanoutSink<'a> {
    sinks: Vec<&'a mut dyn TraceSink>,
}

impl<'a> FanoutSink<'a> {
    /// Creates an empty fan-out (a `NullSink` until receivers are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a receiver (builder style).
    #[must_use]
    pub fn with(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Adds a receiver.
    pub fn push(&mut self, sink: &'a mut dyn TraceSink) {
        self.sinks.push(sink);
    }

    /// Number of registered receivers.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no receivers are registered.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl TraceSink for FanoutSink<'_> {
    fn exec(&mut self, pc: u64, op: MicroOp) {
        for sink in &mut self.sinks {
            sink.exec(pc, op);
        }
    }

    fn finish(&mut self) {
        for sink in &mut self.sinks {
            sink.finish();
        }
    }
}

/// Fans one trace out to two sinks (e.g. machine + mix in one pass).
///
/// For more than two receivers, or when the receivers must stay owned by
/// the caller, use [`FanoutSink`].
#[derive(Debug, Default)]
pub struct TeeSink<A, B> {
    /// First receiver.
    pub first: A,
    /// Second receiver.
    pub second: B,
}

impl<A: TraceSink, B: TraceSink> TeeSink<A, B> {
    /// Creates a tee over two sinks.
    pub fn new(first: A, second: B) -> Self {
        Self { first, second }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn exec(&mut self, pc: u64, op: MicroOp) {
        self.first.exec(pc, op);
        self.second.exec(pc, op);
    }

    fn finish(&mut self) {
        self.first.finish();
        self.second.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BranchKind, IntPurpose};

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::new();
        s.exec(0, MicroOp::Fp);
        s.exec(
            4,
            MicroOp::Int {
                purpose: IntPurpose::Other,
            },
        );
        assert_eq!(s.ops(), 2);
    }

    #[test]
    fn mix_sink_accumulates() {
        let mut s = MixSink::new();
        s.exec(0, MicroOp::Load { addr: 1, size: 8 });
        s.exec(
            4,
            MicroOp::Branch {
                taken: false,
                target: 0,
                kind: BranchKind::Conditional,
            },
        );
        let m = s.mix();
        assert_eq!(m.loads, 1);
        assert_eq!(m.branches, 1);
    }

    #[test]
    fn tee_feeds_both() {
        let mut t = TeeSink::new(CountingSink::new(), MixSink::new());
        t.exec(0, MicroOp::Fp);
        t.finish();
        assert_eq!(t.first.ops(), 1);
        assert_eq!(t.second.mix().fp, 1);
    }

    #[test]
    fn fanout_feeds_all_in_one_pass() {
        let mut a = CountingSink::new();
        let mut b = MixSink::new();
        let mut c = CountingSink::new();
        {
            let mut fan = FanoutSink::new().with(&mut a).with(&mut b).with(&mut c);
            assert_eq!(fan.len(), 3);
            fan.exec(0, MicroOp::Fp);
            fan.exec(4, MicroOp::Load { addr: 8, size: 8 });
            fan.finish();
        }
        assert_eq!(a.ops(), 2);
        assert_eq!(b.mix().fp, 1);
        assert_eq!(b.mix().loads, 1);
        assert_eq!(c.ops(), 2);
    }

    #[test]
    fn empty_fanout_is_a_null_sink() {
        let mut fan = FanoutSink::new();
        assert!(fan.is_empty());
        fan.exec(0, MicroOp::Fp);
        fan.finish();
    }

    #[test]
    fn single_sink_fanout_matches_direct_delivery() {
        let ops = [
            MicroOp::Fp,
            MicroOp::Load { addr: 8, size: 8 },
            MicroOp::Store { addr: 16, size: 4 },
            MicroOp::Branch {
                taken: true,
                target: 0,
                kind: BranchKind::Conditional,
            },
        ];
        let mut direct = MixSink::new();
        for (pc, op) in ops.iter().enumerate() {
            direct.exec(pc as u64 * 4, *op);
        }
        direct.finish();

        let mut fanned = MixSink::new();
        {
            let mut fan = FanoutSink::new().with(&mut fanned);
            assert_eq!(fan.len(), 1);
            for (pc, op) in ops.iter().enumerate() {
                fan.exec(pc as u64 * 4, *op);
            }
            fan.finish();
        }
        assert_eq!(fanned.mix(), direct.mix());
    }

    #[test]
    fn mut_ref_forwards() {
        let mut inner = CountingSink::new();
        {
            let mut by_ref: &mut CountingSink = &mut inner;
            TraceSink::exec(&mut by_ref, 0, MicroOp::Fp);
            TraceSink::finish(&mut by_ref);
        }
        assert_eq!(inner.ops(), 1);
    }
}
