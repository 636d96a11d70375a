//! The 45-metric characterization vector (paper §3).
//!
//! The paper selects 45 metrics "covering the characteristics of
//! instruction mix, cache behavior, TLB behavior, branch execution,
//! pipeline behavior, off-core requests and snoop responses, parallelism,
//! and operation intensity". This module defines our concrete 45, sourced
//! from the simulator's [`PerfReport`] and the node model's
//! [`SystemMetrics`].

use bdb_node::SystemMetrics;
use bdb_sim::PerfReport;

/// Number of characterization metrics.
pub const METRIC_COUNT: usize = 45;

/// Metric names, index-aligned with [`MetricVector::values`].
pub const METRIC_NAMES: [&str; METRIC_COUNT] = [
    // Instruction mix (paper category 1)
    "load_ratio",
    "store_ratio",
    "branch_ratio",
    "integer_ratio",
    "fp_ratio",
    "int_addr_share",
    "fp_addr_share",
    "int_other_share",
    "data_movement_ratio",
    // Operation intensity (category 8)
    "operation_intensity",
    "bytes_per_instr",
    // Cache behaviour (category 2)
    "l1i_mpki",
    "l1i_miss_ratio",
    "l1d_mpki",
    "l1d_miss_ratio",
    "l2_mpki",
    "l2_miss_ratio",
    "l3_mpki",
    "l3_miss_ratio",
    "l1d_writeback_pki",
    "l2_writeback_pki",
    "mem_access_pki",
    // TLB behaviour (category 3)
    "itlb_mpki",
    "itlb_miss_ratio",
    "dtlb_mpki",
    "dtlb_miss_ratio",
    "stlb_mpki",
    // Branch execution (category 4)
    "branch_mispredict_ratio",
    "branch_mispredict_pki",
    "cond_branch_share",
    "branch_stall_frac",
    // Pipeline behaviour (category 5)
    "ipc",
    "cpi",
    "frontend_stall_frac",
    "data_stall_frac",
    "tlb_stall_frac",
    "peak_efficiency",
    // Off-core requests & snoop responses (category 6)
    "offcore_rpki",
    "snoop_rpki",
    "offcore_per_kmem",
    // Parallelism proxies (category 7)
    "miss_depth_ratio",
    // System behaviour
    "cpu_utilization",
    "io_wait_ratio",
    "weighted_io_ratio",
    "disk_bandwidth_mbps",
];

/// One workload's 45-metric characterization.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricVector {
    values: Vec<f64>,
}

impl MetricVector {
    /// Builds the vector from the simulator report and system metrics.
    pub fn from_measurements(report: &PerfReport, system: &SystemMetrics) -> Self {
        let mix = &report.mix;
        let instr = report.instructions.max(1) as f64;
        let pki = |x: u64| x as f64 * 1000.0 / instr;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let (int_addr, fp_addr, int_other) = mix.integer_breakdown();
        let cycles = report.cycles.max(1.0);
        let mem_ops = (mix.loads + mix.stores).max(1);
        let values = [
            mix.load_ratio(),
            mix.store_ratio(),
            mix.branch_ratio(),
            mix.integer_ratio(),
            mix.fp_ratio(),
            int_addr,
            fp_addr,
            int_other,
            mix.data_movement_ratio(),
            mix.operation_intensity(),
            mix.bytes_moved as f64 / instr,
            report.l1i_mpki(),
            report.l1i.miss_ratio(),
            report.l1d_mpki(),
            report.l1d.miss_ratio(),
            report.l2_mpki(),
            report.l2.miss_ratio(),
            report.l3_mpki(),
            report.l3.miss_ratio(),
            pki(report.l1d.writebacks),
            pki(report.l2.writebacks),
            pki(report.l3.misses),
            report.itlb_mpki(),
            ratio(report.itlb_misses, report.instructions),
            report.dtlb_mpki(),
            ratio(report.dtlb_misses, mix.loads + mix.stores),
            pki(report.stlb_misses),
            report.branch.mispredict_ratio(),
            report.branch_mpki(),
            ratio(report.branch.conditionals, report.branch.branches.max(1)),
            report.branch_stall_cycles / cycles,
            report.ipc(),
            cycles / instr,
            report.frontend_stall_fraction(),
            report.data_stall_cycles / cycles,
            report.tlb_stall_cycles / cycles,
            report.ipc() * 0.5, // fraction of the 2-wide sustainable peak
            report.offcore_rpki(),
            report.snoop_rpki(),
            ratio(report.offcore_requests * 1000, mem_ops),
            ratio(report.l3.misses, report.l1d.misses.max(1)),
            system.cpu_utilization,
            system.io_wait_ratio,
            system.weighted_io_ratio,
            system.disk_bandwidth_mbps,
        ];
        Self {
            values: values.to_vec(),
        }
    }

    /// Builds a vector directly from values (tests, synthetic data).
    pub fn from_values(values: [f64; METRIC_COUNT]) -> Self {
        Self {
            values: values.to_vec(),
        }
    }

    /// The metric values, index-aligned with [`METRIC_NAMES`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value of the named metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        METRIC_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| self.values[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_sim::{Machine, MachineConfig};
    use bdb_trace::{CodeLayout, ExecCtx};

    fn sample_report() -> PerfReport {
        let mut layout = CodeLayout::new();
        let main = layout.region("m", 8192);
        let mut machine = Machine::new(MachineConfig::xeon_e5645());
        let mut ctx = ExecCtx::new(&layout, &mut machine);
        let data = ctx.heap_alloc(64 * 1024, 64);
        ctx.frame(main, |ctx| {
            let top = ctx.loop_start();
            for i in 0..5000u64 {
                ctx.read(data.addr(i * 8 % data.len()), 8);
                ctx.int_other(2);
                ctx.fp_ops(1);
                ctx.loop_back(top, i < 4999);
            }
        });
        drop(ctx);
        machine.report()
    }

    fn sample_system() -> SystemMetrics {
        SystemMetrics {
            wall_seconds: 10.0,
            cpu_utilization: 70.0,
            io_wait_ratio: 10.0,
            weighted_io_ratio: 3.0,
            disk_bandwidth_mbps: 55.0,
            net_bandwidth_mbps: 12.0,
        }
    }

    #[test]
    fn names_are_unique_and_count_45() {
        let set: std::collections::HashSet<_> = METRIC_NAMES.iter().collect();
        assert_eq!(set.len(), METRIC_COUNT);
        assert_eq!(METRIC_NAMES.len(), 45);
    }

    #[test]
    fn vector_is_finite_and_plausible() {
        let v = MetricVector::from_measurements(&sample_report(), &sample_system());
        for (name, x) in METRIC_NAMES.iter().zip(v.values()) {
            assert!(x.is_finite(), "{name} not finite");
        }
        assert!(v.get("ipc").unwrap() > 0.0);
        assert!(v.get("load_ratio").unwrap() > 0.0);
        assert!((v.get("cpu_utilization").unwrap() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn ratios_are_bounded() {
        let v = MetricVector::from_measurements(&sample_report(), &sample_system());
        for name in [
            "load_ratio",
            "store_ratio",
            "branch_ratio",
            "fp_ratio",
            "l1i_miss_ratio",
            "branch_mispredict_ratio",
            "frontend_stall_frac",
        ] {
            let x = v.get(name).unwrap();
            assert!((0.0..=1.0).contains(&x), "{name} = {x}");
        }
    }

    #[test]
    fn get_unknown_metric_is_none() {
        let v = MetricVector::from_values([0.0; METRIC_COUNT]);
        assert!(v.get("nope").is_none());
    }
}
