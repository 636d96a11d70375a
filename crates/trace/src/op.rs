//! The micro-op vocabulary.
//!
//! Five classes mirror the categories of the paper's Figure 1 (load, store,
//! branch, integer, floating-point); integer ops additionally carry the
//! purpose tag used by Figure 2's integer-instruction breakdown (integer
//! address calculation / floating-point address calculation / other).

/// Why an integer operation was executed (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntPurpose {
    /// Address arithmetic for integer/byte data (e.g. locating an array slot).
    IntAddr,
    /// Address arithmetic for floating-point data.
    FpAddr,
    /// Everything else: actual computation, comparisons, bit twiddling.
    Other,
}

/// Control-flow transfer kind, used by the branch-predictor models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional branch; `taken` is meaningful.
    Conditional,
    /// Unconditional direct jump (always taken).
    Direct,
    /// Indirect jump/call through a register (virtual dispatch, switch).
    Indirect,
    /// Direct call (always taken, pushes return address).
    Call,
    /// Return (indirect through the return stack).
    Return,
}

/// One dynamic micro-operation.
///
/// The program counter is supplied separately by the execution context, so
/// `MicroOp` itself stays a small `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MicroOp {
    /// Data load of `size` bytes from `addr`.
    Load {
        /// Virtual data address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// Data store of `size` bytes to `addr`.
    Store {
        /// Virtual data address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// Integer ALU operation.
    Int {
        /// Why the operation was executed (Figure 2 categories).
        purpose: IntPurpose,
    },
    /// Floating-point operation.
    Fp,
    /// Control transfer.
    Branch {
        /// Outcome (always `true` for unconditional kinds).
        taken: bool,
        /// Target program counter when taken.
        target: u64,
        /// Kind of transfer.
        kind: BranchKind,
    },
}

impl MicroOp {
    /// Returns `true` for loads and stores.
    pub fn is_memory(&self) -> bool {
        matches!(self, MicroOp::Load { .. } | MicroOp::Store { .. })
    }

    /// Returns `true` for any branch kind.
    pub fn is_branch(&self) -> bool {
        matches!(self, MicroOp::Branch { .. })
    }

    /// Bytes moved by this op (0 for non-memory ops).
    pub fn bytes_moved(&self) -> u64 {
        match self {
            MicroOp::Load { size, .. } | MicroOp::Store { size, .. } => u64::from(*size),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        assert!(MicroOp::Load { addr: 0, size: 8 }.is_memory());
        assert!(MicroOp::Store { addr: 0, size: 4 }.is_memory());
        assert!(!MicroOp::Fp.is_memory());
        assert!(MicroOp::Branch {
            taken: true,
            target: 0,
            kind: BranchKind::Call
        }
        .is_branch());
        assert!(!MicroOp::Int {
            purpose: IntPurpose::Other
        }
        .is_branch());
    }

    #[test]
    fn bytes_moved() {
        assert_eq!(MicroOp::Load { addr: 16, size: 8 }.bytes_moved(), 8);
        assert_eq!(MicroOp::Store { addr: 16, size: 1 }.bytes_moved(), 1);
        assert_eq!(MicroOp::Fp.bytes_moved(), 0);
    }

    #[test]
    fn micro_op_is_small() {
        // The sink is called once per dynamic instruction; keep the op tiny.
        assert!(std::mem::size_of::<MicroOp>() <= 24);
    }
}
