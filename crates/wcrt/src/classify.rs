//! The paper's §3.2.1 system-behaviour classification rules.
//!
//! > "1) For a workload, if the CPU utilization is larger than 85%, we
//! > consider it CPU-Intensive; 2) For a workload, if the average weighted
//! > Disk I/O time ratio is larger than 10 or the I/O wait ratio is larger
//! > than 20% and the CPU utilization is less than 60%, we consider it
//! > I/O-Intensive; 3) other workloads … are considered as hybrid."

use bdb_node::SystemMetrics;
use std::fmt;

/// System-behaviour class of a workload (paper Table 2, last column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemClass {
    /// CPU utilization > 85 %.
    CpuIntensive,
    /// Heavy disk pressure with a mostly idle CPU.
    IoIntensive,
    /// Everything in between.
    Hybrid,
}

impl fmt::Display for SystemClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SystemClass::CpuIntensive => "CPU-Intensive",
            SystemClass::IoIntensive => "IO-Intensive",
            SystemClass::Hybrid => "Hybrid",
        };
        f.write_str(s)
    }
}

/// Applies the paper's thresholds to one run's system metrics.
pub fn classify_system(m: &SystemMetrics) -> SystemClass {
    if m.cpu_utilization > 85.0 {
        SystemClass::CpuIntensive
    } else if m.weighted_io_ratio > 10.0 || (m.io_wait_ratio > 20.0 && m.cpu_utilization < 60.0) {
        SystemClass::IoIntensive
    } else {
        SystemClass::Hybrid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(cpu: f64, iowait: f64, weighted: f64) -> SystemMetrics {
        SystemMetrics {
            wall_seconds: 1.0,
            cpu_utilization: cpu,
            io_wait_ratio: iowait,
            weighted_io_ratio: weighted,
            disk_bandwidth_mbps: 0.0,
            net_bandwidth_mbps: 0.0,
        }
    }

    #[test]
    fn high_cpu_is_cpu_intensive() {
        assert_eq!(
            classify_system(&metrics(90.0, 50.0, 50.0)),
            SystemClass::CpuIntensive
        );
    }

    #[test]
    fn deep_queue_is_io_intensive() {
        assert_eq!(
            classify_system(&metrics(30.0, 5.0, 15.0)),
            SystemClass::IoIntensive
        );
    }

    #[test]
    fn iowait_rule_requires_low_cpu() {
        assert_eq!(
            classify_system(&metrics(30.0, 25.0, 1.0)),
            SystemClass::IoIntensive
        );
        assert_eq!(
            classify_system(&metrics(70.0, 25.0, 1.0)),
            SystemClass::Hybrid
        );
    }

    #[test]
    fn middle_ground_is_hybrid() {
        assert_eq!(
            classify_system(&metrics(70.0, 10.0, 2.0)),
            SystemClass::Hybrid
        );
        assert_eq!(
            classify_system(&metrics(85.0, 0.0, 0.0)),
            SystemClass::Hybrid
        );
    }

    #[test]
    fn display_matches_paper_terms() {
        assert_eq!(SystemClass::CpuIntensive.to_string(), "CPU-Intensive");
        assert_eq!(SystemClass::IoIntensive.to_string(), "IO-Intensive");
        assert_eq!(SystemClass::Hybrid.to_string(), "Hybrid");
    }
}
