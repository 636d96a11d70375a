//! Workload profiling: one run = one simulated `perf stat` plus proc-fs
//! sample plus data-volume accounting — everything the rest of the WCRT
//! pipeline consumes.

use crate::classify::{classify_system, SystemClass};
use crate::metrics::MetricVector;
use bdb_node::{Node, NodeConfig, SystemMetrics};
use bdb_sim::{Machine, MachineConfig, PerfReport};
use bdb_stacks::{DataBehavior, RunStats};
use bdb_workloads::{Scale, WorkloadDef, WorkloadSpec};

/// Everything measured about one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Workload identity.
    pub spec: WorkloadSpec,
    /// Simulated hardware-counter report.
    pub report: PerfReport,
    /// Simulated proc-fs metrics.
    pub system: SystemMetrics,
    /// System-behaviour class (paper §3.2.1 rules).
    pub system_class: SystemClass,
    /// Data-behaviour class (paper §3.2.2 rules).
    pub data_behavior: DataBehavior,
    /// Input/intermediate/output volumes.
    pub input_bytes: u64,
    /// Intermediate bytes (spills, shuffles).
    pub intermediate_bytes: u64,
    /// Output bytes.
    pub output_bytes: u64,
    /// The 45-metric characterization vector.
    pub metrics: MetricVector,
}

/// Profiles one workload at `scale` on the given machine and node models.
pub fn profile_workload(
    workload: &WorkloadDef,
    scale: Scale,
    machine_config: MachineConfig,
    node_config: NodeConfig,
) -> WorkloadProfile {
    let mut machine = Machine::new(machine_config);
    let stats: RunStats = workload.run(&mut machine, scale);
    let report = machine.report();
    let mut node = Node::new(node_config);
    for phase in &stats.phases {
        node.run_phase(phase.clone());
    }
    let system = node.metrics();
    let metrics = MetricVector::from_measurements(&report, &system);
    WorkloadProfile {
        spec: workload.spec.clone(),
        system_class: classify_system(&system),
        data_behavior: stats.data_behavior(),
        input_bytes: stats.input_bytes,
        intermediate_bytes: stats.intermediate_bytes,
        output_bytes: stats.output_bytes,
        report,
        system,
        metrics,
    }
}

/// Profiles many workloads (convenience for the reduction pipeline and the
/// benchmark binaries).
pub fn profile_all(
    workloads: &[WorkloadDef],
    scale: Scale,
    machine_config: &MachineConfig,
    node_config: &NodeConfig,
) -> Vec<WorkloadProfile> {
    workloads
        .iter()
        .map(|w| profile_workload(w, scale, machine_config.clone(), *node_config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_workloads::catalog;

    #[test]
    fn profile_produces_finite_metrics() {
        let reps = catalog::representatives();
        let wc = reps
            .iter()
            .find(|w| w.spec.id == "H-WordCount")
            .expect("H-WordCount");
        let p = profile_workload(
            wc,
            Scale::tiny(),
            MachineConfig::xeon_e5645(),
            NodeConfig::default(),
        );
        assert!(p.report.instructions > 10_000);
        assert!(p.report.ipc() > 0.0);
        assert!(p.metrics.values().iter().all(|v| v.is_finite()));
        assert!(p.input_bytes > 0);
    }

    #[test]
    fn profile_is_deterministic() {
        let reps = catalog::representatives();
        let grep = reps.iter().find(|w| w.spec.id == "S-Grep").expect("S-Grep");
        let run = || {
            let p = profile_workload(
                grep,
                Scale::tiny(),
                MachineConfig::xeon_e5645(),
                NodeConfig::default(),
            );
            (
                p.report.instructions,
                p.report.cycles.to_bits(),
                p.metrics.values().to_vec(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn service_profile_differs_from_batch_profile() {
        let reps = catalog::representatives();
        let read = reps.iter().find(|w| w.spec.id == "H-Read").expect("H-Read");
        let wc = reps.iter().find(|w| w.spec.id == "M-WordCount").or(None);
        assert!(wc.is_none(), "MPI workloads are not representatives");
        let p = profile_workload(
            read,
            Scale::tiny(),
            MachineConfig::xeon_e5645(),
            NodeConfig::default(),
        );
        // The service workload has nontrivial front-end pressure.
        assert!(
            p.report.l1i_mpki() > 1.0,
            "service L1I MPKI {}",
            p.report.l1i_mpki()
        );
    }
}
