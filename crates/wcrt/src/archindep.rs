//! Architecture-independent workload characterization — the paper's stated
//! future work ("we will perform system-independent characterization work
//! on representative big data workloads", §6, in the style of Hoste &
//! Eeckhout and Joshi et al.).
//!
//! Instead of counters from one machine, a workload is summarized by
//! properties of its *trace alone*: instruction mix, branch predictability
//! proxies (taken rate, transition rate), instruction/data reuse-distance
//! distributions, and machine-independent footprints. Two workloads that
//! look alike here look alike on *any* microarchitecture, which makes this
//! vector the more defensible basis for subsetting.

use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_trace::{InstructionMix, MicroOp, ReuseHistogram, ReuseProfiler, TraceSink};
use bdb_workloads::{Scale, WorkloadDef};

/// Number of architecture-independent metrics.
pub const ARCHINDEP_COUNT: usize = 20;

/// Metric names, index-aligned with [`ArchIndepVector::values`].
pub const ARCHINDEP_NAMES: [&str; ARCHINDEP_COUNT] = [
    "load_ratio",
    "store_ratio",
    "branch_ratio",
    "integer_ratio",
    "fp_ratio",
    "int_addr_share",
    "data_movement_ratio",
    "operation_intensity",
    "branch_taken_rate",
    "branch_transition_rate",
    "instr_footprint_lines",
    "data_footprint_lines",
    "instr_reuse_p50_log2",
    "instr_reuse_p90_log2",
    "data_reuse_p50_log2",
    "data_reuse_p90_log2",
    "instr_cold_ratio",
    "data_cold_ratio",
    "instr_miss_at_512_lines",
    "data_miss_at_512_lines",
];

/// The architecture-independent characterization of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchIndepVector {
    values: Vec<f64>,
}

impl ArchIndepVector {
    /// The metric values, index-aligned with [`ARCHINDEP_NAMES`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value of the named metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        ARCHINDEP_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| self.values[i])
    }
}

/// Collects everything [`ArchIndepVector`] needs in one trace pass.
#[derive(Debug)]
pub struct ArchIndepSink {
    mix: InstructionMix,
    instr_reuse: ReuseProfiler,
    data_reuse: ReuseProfiler,
    branches: u64,
    taken: u64,
    transitions: u64,
    last_taken: bool,
}

impl ArchIndepSink {
    /// Creates a collector.
    pub fn new() -> Self {
        Self {
            mix: InstructionMix::default(),
            instr_reuse: ReuseProfiler::new(64),
            data_reuse: ReuseProfiler::new(64),
            branches: 0,
            taken: 0,
            transitions: 0,
            last_taken: false,
        }
    }

    /// Finalizes the characterization vector.
    pub fn finish(&self) -> ArchIndepVector {
        let instr = self.instr_reuse.histogram();
        let data = self.data_reuse.histogram();
        let (int_addr, _, _) = self.mix.integer_breakdown();
        let b = self.branches.max(1) as f64;
        let values = vec![
            self.mix.load_ratio(),
            self.mix.store_ratio(),
            self.mix.branch_ratio(),
            self.mix.integer_ratio(),
            self.mix.fp_ratio(),
            int_addr,
            self.mix.data_movement_ratio(),
            self.mix.operation_intensity(),
            self.taken as f64 / b,
            self.transitions as f64 / b,
            (instr.footprint_lines(0.005) as f64).log2(),
            (data.footprint_lines(0.005) as f64).log2(),
            percentile_log2(&instr, 0.50),
            percentile_log2(&instr, 0.90),
            percentile_log2(&data, 0.50),
            percentile_log2(&data, 0.90),
            cold_ratio(&instr),
            cold_ratio(&data),
            instr.predicted_miss_ratio(512),
            data.predicted_miss_ratio(512),
        ];
        ArchIndepVector { values }
    }
}

impl Default for ArchIndepSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for ArchIndepSink {
    fn exec(&mut self, pc: u64, op: MicroOp) {
        self.mix.record(&op);
        self.instr_reuse.touch(pc);
        match op {
            MicroOp::Load { addr, .. } | MicroOp::Store { addr, .. } => {
                self.data_reuse.touch(addr);
            }
            MicroOp::Branch { taken, .. } => {
                self.branches += 1;
                if taken {
                    self.taken += 1;
                }
                if self.branches > 1 && taken != self.last_taken {
                    self.transitions += 1;
                }
                self.last_taken = taken;
            }
            _ => {}
        }
    }
}

fn cold_ratio(h: &ReuseHistogram) -> f64 {
    let total = h.total();
    if total == 0 {
        0.0
    } else {
        h.cold as f64 / total as f64
    }
}

/// Log2 of the reuse-distance percentile `q` (0 for an empty histogram).
fn percentile_log2(h: &ReuseHistogram, q: f64) -> f64 {
    let reuses: u64 = h.buckets.iter().sum();
    if reuses == 0 {
        return 0.0;
    }
    let target = (reuses as f64 * q) as u64;
    let mut acc = 0u64;
    for (i, &count) in h.buckets.iter().enumerate() {
        acc += count;
        if acc >= target.max(1) {
            return i as f64;
        }
    }
    h.buckets.len() as f64
}

/// Characterizes a workload architecture-independently (one trace pass,
/// no machine model).
pub fn characterize(workload: &WorkloadDef, scale: Scale) -> ArchIndepVector {
    let mut sink = ArchIndepSink::new();
    let _ = workload.run(&mut sink, scale);
    sink.finish()
}

/// Compares the architecture-*dependent* reduction (45 machine metrics)
/// with the architecture-*independent* one over the same workloads:
/// returns `(dependent assignments, independent assignments)` from K-means
/// with identical `k` and seed. Agreement between the two partitions is
/// evidence that the paper's subset is not an artifact of the E5645.
pub fn compare_partitions(
    workloads: &[WorkloadDef],
    scale: Scale,
    k: usize,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    use crate::{kmeans::kmeans, pca::Pca, stats::zscore};
    // Architecture-dependent matrix via the usual profile path.
    let profiles = crate::profile::profile_all(
        workloads,
        scale,
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    let mut dep: Vec<Vec<f64>> = profiles
        .iter()
        .map(|p| p.metrics.values().to_vec())
        .collect();
    zscore(&mut dep);
    let dep_pca = Pca::fit(&dep, 0.9);
    let dep_assign = kmeans(&dep_pca.transform(&dep), k, seed, 300).assignments;

    let mut indep: Vec<Vec<f64>> = workloads
        .iter()
        .map(|w| characterize(w, scale).values().to_vec())
        .collect();
    zscore(&mut indep);
    let indep_pca = Pca::fit(&indep, 0.9);
    let indep_assign = kmeans(&indep_pca.transform(&indep), k, seed, 300).assignments;
    (dep_assign, indep_assign)
}

/// Rand index between two partitions of the same items (1.0 = identical
/// groupings up to relabeling).
pub fn rand_index(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "partitions must cover the same items");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut agree = 0u64;
    let mut total = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            let same_a = a[i] == a[j];
            let same_b = b[i] == b[j];
            if same_a == same_b {
                agree += 1;
            }
            total += 1;
        }
    }
    agree as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_workloads::catalog;

    #[test]
    fn names_match_count() {
        assert_eq!(ARCHINDEP_NAMES.len(), ARCHINDEP_COUNT);
        let set: std::collections::HashSet<_> = ARCHINDEP_NAMES.iter().collect();
        assert_eq!(set.len(), ARCHINDEP_COUNT);
    }

    #[test]
    fn characterize_produces_finite_bounded_vector() {
        let reps = catalog::representatives();
        let grep = reps.iter().find(|w| w.spec.id == "S-Grep").expect("S-Grep");
        let v = characterize(grep, Scale::tiny());
        assert_eq!(v.values().len(), ARCHINDEP_COUNT);
        assert!(v.values().iter().all(|x| x.is_finite()));
        assert!(v.get("branch_taken_rate").unwrap() <= 1.0);
        assert!(v.get("load_ratio").unwrap() > 0.0);
        assert!(v.get("instr_footprint_lines").unwrap() > 0.0);
    }

    #[test]
    fn deep_stack_has_larger_instruction_footprint() {
        let mut defs = catalog::full_catalog();
        defs.extend(catalog::mpi_workloads());
        let h = characterize(
            defs.iter()
                .find(|w| w.spec.id == "H-WordCount")
                .expect("H-WordCount"),
            Scale::tiny(),
        );
        let m = characterize(
            defs.iter()
                .find(|w| w.spec.id == "M-WordCount")
                .expect("M-WordCount"),
            Scale::tiny(),
        );
        assert!(
            h.get("instr_footprint_lines").unwrap() > m.get("instr_footprint_lines").unwrap(),
            "Hadoop {} vs MPI {}",
            h.get("instr_footprint_lines").unwrap(),
            m.get("instr_footprint_lines").unwrap()
        );
    }

    #[test]
    fn rand_index_basics() {
        assert_eq!(rand_index(&[0, 0, 1, 1], &[1, 1, 0, 0]), 1.0);
        assert!(rand_index(&[0, 0, 1, 1], &[0, 1, 0, 1]) < 0.5);
        assert_eq!(rand_index(&[0], &[3]), 1.0);
    }

    #[test]
    fn characterization_is_deterministic() {
        let reps = catalog::representatives();
        let def = reps
            .iter()
            .find(|w| w.spec.id == "I-SelectQuery")
            .expect("workload");
        let a = characterize(def, Scale::tiny());
        let b = characterize(def, Scale::tiny());
        assert_eq!(a, b);
    }
}
