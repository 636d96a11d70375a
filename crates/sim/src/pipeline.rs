//! Analytic pipeline models.
//!
//! The paper reports IPC (Figure 3) measured on two very different cores:
//! the out-of-order Xeon E5645 and the in-order Atom. We model both with a
//! trace-driven *interval* accounting: every retired micro-op costs its
//! issue slot, and each miss event (front-end, data, TLB, branch) adds a
//! stall whose exposure depends on the pipeline's ability to hide it.
//!
//! An out-of-order window hides much of the data-miss latency behind
//! independent work but can hide almost none of an instruction-fetch miss
//! or a branch misprediction — which is exactly why the paper's front-end
//! observations (high L1I MPKI on deep stacks) translate into the IPC gaps
//! of its Figure 3.

/// Where in the hierarchy a miss was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Hit in L1 (no stall beyond the pipelined L1 latency).
    L1,
    /// L1 miss served by L2.
    L2,
    /// L2 miss served by L3.
    L3,
    /// Served by DRAM.
    Memory,
}

/// Execution model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineKind {
    /// In-order dual-issue (Atom-like): miss latency is fully exposed.
    InOrder,
    /// Out-of-order (Xeon-like): data misses partially hidden.
    OutOfOrder,
}

/// Latency and width parameters of a pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Execution model.
    pub kind: PipelineKind,
    /// Sustainable cycles per retired micro-op with no stalls
    /// (1 / effective issue width).
    pub base_cpi: f64,
    /// L2 hit latency in cycles.
    pub l2_latency: u32,
    /// L3 hit latency in cycles.
    pub l3_latency: u32,
    /// DRAM latency in cycles.
    pub mem_latency: u32,
    /// Page-walk latency on a second-level TLB miss.
    pub tlb_walk_latency: u32,
    /// Second-level TLB hit latency (first-level miss, STLB hit).
    pub stlb_latency: u32,
}

impl PipelineConfig {
    /// Xeon-E5645-like out-of-order parameters.
    pub fn xeon_ooo() -> Self {
        Self {
            kind: PipelineKind::OutOfOrder,
            base_cpi: 0.5,
            l2_latency: 10,
            l3_latency: 32,
            mem_latency: 180,
            tlb_walk_latency: 30,
            stlb_latency: 7,
        }
    }

    /// Atom-like in-order parameters.
    pub fn atom_inorder() -> Self {
        Self {
            kind: PipelineKind::InOrder,
            base_cpi: 0.65,
            l2_latency: 15,
            l3_latency: 40,
            mem_latency: 160,
            tlb_walk_latency: 30,
            stlb_latency: 7,
        }
    }
}

/// Trace-driven cycle accumulator.
///
/// # Examples
///
/// ```
/// use bdb_sim::pipeline::{Pipeline, PipelineConfig, ServiceLevel};
///
/// let mut p = Pipeline::new(PipelineConfig::xeon_ooo());
/// p.issue(1000);
/// p.fetch_stall(ServiceLevel::L2);
/// assert!(p.cycles() > 500.0);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    cycles: f64,
    stall_fetch: f64,
    stall_data: f64,
    stall_branch: f64,
    stall_tlb: f64,
}

impl Pipeline {
    /// Creates a pipeline accumulator.
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            cycles: 0.0,
            stall_fetch: 0.0,
            stall_data: 0.0,
            stall_branch: 0.0,
            stall_tlb: 0.0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Charges issue slots for `n` retired micro-ops.
    pub fn issue(&mut self, n: u64) {
        self.cycles += self.config.base_cpi * n as f64;
    }

    /// Charges one retired op with a class-dependent issue cost:
    /// floating-point ops carry latency chains (`1.6x` base), memory ops
    /// occupy AGU+port (`1.1x`), integer/branch ops are cheapest (`0.9x`).
    pub fn issue_class(&mut self, op: &bdb_trace::MicroOp) {
        let factor = match op {
            bdb_trace::MicroOp::Fp => 1.6,
            bdb_trace::MicroOp::Load { .. } | bdb_trace::MicroOp::Store { .. } => 1.1,
            _ => 0.9,
        };
        self.cycles += self.config.base_cpi * factor;
    }

    fn latency_of(&self, level: ServiceLevel) -> f64 {
        match level {
            ServiceLevel::L1 => 0.0,
            ServiceLevel::L2 => f64::from(self.config.l2_latency),
            ServiceLevel::L3 => f64::from(self.config.l3_latency),
            ServiceLevel::Memory => f64::from(self.config.mem_latency),
        }
    }

    /// Charges an instruction-fetch miss served at `level`.
    ///
    /// Front-end misses starve decode; even the out-of-order core exposes
    /// most of the latency.
    pub fn fetch_stall(&mut self, level: ServiceLevel) {
        let exposure = match self.config.kind {
            PipelineKind::InOrder => 1.0,
            // Decoded-uop queues and overlapping fetch hide a bit more of
            // the miss on the out-of-order front end.
            PipelineKind::OutOfOrder => 0.6,
        };
        let c = self.latency_of(level) * exposure;
        self.cycles += c;
        self.stall_fetch += c;
    }

    /// Charges a data access served at `level`. Stores are largely absorbed
    /// by the write buffer; loads stall the window once independent work
    /// runs out.
    pub fn data_stall(&mut self, level: ServiceLevel, is_store: bool) {
        let exposure = match (self.config.kind, is_store) {
            (_, true) => 0.05,
            (PipelineKind::InOrder, false) => 1.0,
            (PipelineKind::OutOfOrder, false) => match level {
                ServiceLevel::L1 => 0.0,
                ServiceLevel::L2 => 0.3,
                ServiceLevel::L3 => 0.45,
                ServiceLevel::Memory => 0.65,
            },
        };
        let c = self.latency_of(level) * exposure;
        self.cycles += c;
        self.stall_data += c;
    }

    /// Charges a branch misprediction flush of `penalty` cycles.
    pub fn branch_penalty(&mut self, penalty: u32) {
        self.cycles += f64::from(penalty);
        self.stall_branch += f64::from(penalty);
    }

    /// Charges a first-level TLB miss; `walked` means the second-level TLB
    /// also missed and a page walk was needed.
    pub fn tlb_stall(&mut self, walked: bool) {
        let c = if walked {
            f64::from(self.config.tlb_walk_latency)
        } else {
            f64::from(self.config.stlb_latency)
        };
        self.cycles += c;
        self.stall_tlb += c;
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Cycles lost to front-end (fetch) stalls.
    pub fn fetch_stall_cycles(&self) -> f64 {
        self.stall_fetch
    }

    /// Cycles lost to data-access stalls.
    pub fn data_stall_cycles(&self) -> f64 {
        self.stall_data
    }

    /// Cycles lost to branch mispredictions.
    pub fn branch_stall_cycles(&self) -> f64 {
        self.stall_branch
    }

    /// Cycles lost to TLB misses.
    pub fn tlb_stall_cycles(&self) -> f64 {
        self.stall_tlb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_code_reaches_peak_ipc() {
        let mut p = Pipeline::new(PipelineConfig::xeon_ooo());
        p.issue(10_000);
        let ipc = 10_000.0 / p.cycles();
        assert!((ipc - 2.0).abs() < 1e-9, "peak IPC should be 1/base_cpi");
    }

    #[test]
    fn in_order_exposes_more_than_ooo() {
        let mut inord = Pipeline::new(PipelineConfig::atom_inorder());
        let mut ooo = Pipeline::new(PipelineConfig::xeon_ooo());
        for _ in 0..100 {
            inord.data_stall(ServiceLevel::Memory, false);
            ooo.data_stall(ServiceLevel::Memory, false);
        }
        assert!(inord.data_stall_cycles() > ooo.data_stall_cycles());
    }

    #[test]
    fn stores_cost_less_than_loads() {
        let mut p = Pipeline::new(PipelineConfig::xeon_ooo());
        p.data_stall(ServiceLevel::Memory, true);
        let store_cost = p.data_stall_cycles();
        let mut p2 = Pipeline::new(PipelineConfig::xeon_ooo());
        p2.data_stall(ServiceLevel::Memory, false);
        assert!(store_cost < p2.data_stall_cycles());
    }

    #[test]
    fn stall_categories_sum_to_total_minus_issue() {
        let mut p = Pipeline::new(PipelineConfig::xeon_ooo());
        p.issue(100);
        p.fetch_stall(ServiceLevel::L2);
        p.data_stall(ServiceLevel::L3, false);
        p.branch_penalty(12);
        p.tlb_stall(true);
        let stalls = p.fetch_stall_cycles()
            + p.data_stall_cycles()
            + p.branch_stall_cycles()
            + p.tlb_stall_cycles();
        assert!((p.cycles() - 50.0 - stalls).abs() < 1e-9);
    }

    #[test]
    fn l1_hits_are_free() {
        let mut p = Pipeline::new(PipelineConfig::xeon_ooo());
        p.data_stall(ServiceLevel::L1, false);
        p.fetch_stall(ServiceLevel::L1);
        assert_eq!(p.cycles(), 0.0);
    }
}
