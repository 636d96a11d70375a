//! Retired-instruction mix accounting (paper Figures 1 and 2).

use crate::op::{IntPurpose, MicroOp};

/// Counts of retired micro-ops by class, plus the integer-purpose breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstructionMix {
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Retired branches (all kinds).
    pub branches: u64,
    /// Retired integer ops for integer address calculation.
    pub int_addr: u64,
    /// Retired integer ops for floating-point address calculation.
    pub fp_addr: u64,
    /// Retired integer ops for other computation.
    pub int_other: u64,
    /// Retired floating-point ops.
    pub fp: u64,
    /// Total bytes moved by loads and stores.
    pub bytes_moved: u64,
}

impl InstructionMix {
    /// Records one op.
    pub fn record(&mut self, op: &MicroOp) {
        match op {
            MicroOp::Load { size, .. } => {
                self.loads += 1;
                self.bytes_moved += u64::from(*size);
            }
            MicroOp::Store { size, .. } => {
                self.stores += 1;
                self.bytes_moved += u64::from(*size);
            }
            MicroOp::Branch { .. } => self.branches += 1,
            MicroOp::Int {
                purpose: IntPurpose::IntAddr,
            } => self.int_addr += 1,
            MicroOp::Int {
                purpose: IntPurpose::FpAddr,
            } => self.fp_addr += 1,
            MicroOp::Int {
                purpose: IntPurpose::Other,
            } => self.int_other += 1,
            MicroOp::Fp => self.fp += 1,
        }
    }

    /// Total retired instructions.
    pub fn total(&self) -> u64 {
        self.loads + self.stores + self.branches + self.integer() + self.fp
    }

    /// Total integer ops across all purposes.
    pub fn integer(&self) -> u64 {
        self.int_addr + self.fp_addr + self.int_other
    }

    /// Fraction of instructions that are branches.
    pub fn branch_ratio(&self) -> f64 {
        self.ratio(self.branches)
    }

    /// Fraction of instructions that are integer ops.
    pub fn integer_ratio(&self) -> f64 {
        self.ratio(self.integer())
    }

    /// Fraction of instructions that are loads.
    pub fn load_ratio(&self) -> f64 {
        self.ratio(self.loads)
    }

    /// Fraction of instructions that are stores.
    pub fn store_ratio(&self) -> f64 {
        self.ratio(self.stores)
    }

    /// Fraction of instructions that are floating-point ops.
    pub fn fp_ratio(&self) -> f64 {
        self.ratio(self.fp)
    }

    /// The paper's "data movement" share: loads + stores + all address
    /// calculation + branches (the 92% headline of observation O1).
    pub fn data_movement_ratio(&self) -> f64 {
        self.ratio(self.loads + self.stores + self.int_addr + self.fp_addr + self.branches)
    }

    /// Figure 2 breakdown: fractions of *integer* ops that are integer
    /// address calc, FP address calc, and other, in that order.
    ///
    /// Returns `(0.0, 0.0, 0.0)` when no integer ops retired.
    pub fn integer_breakdown(&self) -> (f64, f64, f64) {
        let n = self.integer();
        if n == 0 {
            return (0.0, 0.0, 0.0);
        }
        let n = n as f64;
        (
            self.int_addr as f64 / n,
            self.fp_addr as f64 / n,
            self.int_other as f64 / n,
        )
    }

    /// Operation intensity: (integer + FP ops) per byte moved, one of the
    /// paper's 45 characterization metrics.
    pub fn operation_intensity(&self) -> f64 {
        if self.bytes_moved == 0 {
            return 0.0;
        }
        (self.integer() + self.fp) as f64 / self.bytes_moved as f64
    }

    /// Merges another mix into this one.
    pub fn merge(&mut self, other: &InstructionMix) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.branches += other.branches;
        self.int_addr += other.int_addr;
        self.fp_addr += other.fp_addr;
        self.int_other += other.int_other;
        self.fp += other.fp;
        self.bytes_moved += other.bytes_moved;
    }

    fn ratio(&self, n: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BranchKind;

    fn sample_mix() -> InstructionMix {
        let mut m = InstructionMix::default();
        m.record(&MicroOp::Load { addr: 0, size: 8 });
        m.record(&MicroOp::Store { addr: 8, size: 4 });
        m.record(&MicroOp::Branch {
            taken: true,
            target: 0,
            kind: BranchKind::Conditional,
        });
        m.record(&MicroOp::Int {
            purpose: IntPurpose::IntAddr,
        });
        m.record(&MicroOp::Int {
            purpose: IntPurpose::FpAddr,
        });
        m.record(&MicroOp::Int {
            purpose: IntPurpose::Other,
        });
        m.record(&MicroOp::Fp);
        m
    }

    #[test]
    fn totals_add_up() {
        let m = sample_mix();
        assert_eq!(m.total(), 7);
        assert_eq!(m.integer(), 3);
        assert_eq!(m.bytes_moved, 12);
    }

    #[test]
    fn ratios() {
        let m = sample_mix();
        assert!((m.branch_ratio() - 1.0 / 7.0).abs() < 1e-12);
        assert!((m.integer_ratio() - 3.0 / 7.0).abs() < 1e-12);
        // loads + stores + int_addr + fp_addr + branch = 5 of 7
        assert!((m.data_movement_ratio() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn integer_breakdown_sums_to_one() {
        let m = sample_mix();
        let (a, b, c) = m.integer_breakdown();
        assert!((a + b + c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_mix_is_all_zeros() {
        let m = InstructionMix::default();
        assert_eq!(m.total(), 0);
        assert_eq!(m.branch_ratio(), 0.0);
        assert_eq!(m.integer_breakdown(), (0.0, 0.0, 0.0));
        assert_eq!(m.operation_intensity(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample_mix();
        let b = sample_mix();
        a.merge(&b);
        assert_eq!(a.total(), 14);
        assert_eq!(a.bytes_moved, 24);
    }
}
