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

/// Forwarding through a mutable reference, so a caller can lend a sink
/// (a `Machine` it still owns, say) to a workload without moving it.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn exec(&mut self, pc: u64, op: MicroOp) {
        (**self).exec(pc, op);
    }

    fn finish(&mut self) {
        (**self).finish();
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
