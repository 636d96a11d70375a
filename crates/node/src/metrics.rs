//! Device accounting and proc-fs-style metrics.

/// Hardware parameters of one cluster node (paper Table 3 plus commodity
/// disk/network assumptions for the 2015 testbed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Average sustained IPC assumed for CPU-time conversion.
    pub assumed_ipc: f64,
    /// How many real machine instructions one traced micro-op represents.
    ///
    /// The instrumented kernels narrate their work at a coarser granularity
    /// than real retired x86 instructions (one traced op stands for a short
    /// sequence of real ones), so CPU time is scaled up by this factor to
    /// keep the CPU-vs-I/O balance realistic.
    pub instr_scale: f64,
    /// Sequential disk bandwidth in bytes/second.
    pub disk_bw: f64,
    /// Per-phase fixed disk overhead in seconds (seeks, metadata).
    pub disk_overhead_s: f64,
    /// Network bandwidth in bytes/second.
    pub net_bw: f64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            clock_hz: 2.4e9,
            assumed_ipc: 1.2,
            instr_scale: 7.0,
            disk_bw: 110.0e6,
            disk_overhead_s: 0.0003,
            net_bw: 117.0e6, // ~1 GbE
        }
    }
}

/// One resource phase of a workload run (a map wave, a shuffle, a reduce
/// wave, a service interval…).
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase label (for reports).
    pub name: String,
    /// Traced micro-ops executed in this phase.
    pub instructions: u64,
    /// Bytes read from disk.
    pub disk_read_bytes: u64,
    /// Bytes written to disk.
    pub disk_write_bytes: u64,
    /// Bytes crossing the network.
    pub net_bytes: u64,
    /// Mean outstanding disk requests while the phase does I/O (drives the
    /// paper's *weighted* disk I/O time).
    pub io_parallelism: f64,
}

impl Phase {
    /// A purely computational phase.
    pub fn compute(name: impl Into<String>, instructions: u64) -> Self {
        Self {
            name: name.into(),
            instructions,
            disk_read_bytes: 0,
            disk_write_bytes: 0,
            net_bytes: 0,
            io_parallelism: 1.0,
        }
    }
}

/// Accumulated proc-fs-style metrics for one workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemMetrics {
    /// Wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// CPU utilization in percent (time the CPU executed user+system work).
    pub cpu_utilization: f64,
    /// I/O-wait ratio in percent (CPU idle while disk requests outstanding).
    pub io_wait_ratio: f64,
    /// Average weighted disk I/O time ratio: outstanding-requests-weighted
    /// disk busy time divided by wall time (the paper's `> 10` threshold).
    pub weighted_io_ratio: f64,
    /// Mean disk bandwidth over the run in MB/s.
    pub disk_bandwidth_mbps: f64,
    /// Mean network bandwidth over the run in MB/s.
    pub net_bandwidth_mbps: f64,
}

/// Replays phases against the device model and accumulates metrics.
#[derive(Debug, Clone)]
pub struct Node {
    config: NodeConfig,
    wall: f64,
    cpu_busy: f64,
    io_wait: f64,
    weighted_io: f64,
    disk_bytes: u64,
    net_bytes: u64,
    phases: Vec<Phase>,
}

impl Node {
    /// Creates a node.
    pub fn new(config: NodeConfig) -> Self {
        Self {
            config,
            wall: 0.0,
            cpu_busy: 0.0,
            io_wait: 0.0,
            weighted_io: 0.0,
            disk_bytes: 0,
            net_bytes: 0,
            phases: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// Executes one phase. CPU work and I/O overlap within a phase (both
    /// Hadoop and Spark pipeline record processing with input streaming),
    /// so phase wall time is the maximum of the two, and any disk time not
    /// covered by CPU work is I/O wait.
    pub fn run_phase(&mut self, phase: Phase) {
        let c = &self.config;
        let cpu_s = phase.instructions as f64 * c.instr_scale / (c.clock_hz * c.assumed_ipc);
        let disk_bytes = phase.disk_read_bytes + phase.disk_write_bytes;
        let disk_s = if disk_bytes == 0 {
            0.0
        } else {
            disk_bytes as f64 / c.disk_bw + c.disk_overhead_s
        };
        let net_s = phase.net_bytes as f64 / c.net_bw;
        let io_s = disk_s.max(net_s);
        let wall = cpu_s.max(io_s).max(1e-9);
        self.wall += wall;
        self.cpu_busy += cpu_s;
        self.io_wait += (disk_s - cpu_s).max(0.0);
        self.weighted_io += disk_s * phase.io_parallelism.max(0.0);
        self.disk_bytes += disk_bytes;
        self.net_bytes += phase.net_bytes;
        self.phases.push(phase);
    }

    /// Phases replayed so far.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Produces the run's metrics.
    ///
    /// Returns all-zero metrics if no phase has been run.
    pub fn metrics(&self) -> SystemMetrics {
        if self.wall <= 0.0 {
            return SystemMetrics {
                wall_seconds: 0.0,
                cpu_utilization: 0.0,
                io_wait_ratio: 0.0,
                weighted_io_ratio: 0.0,
                disk_bandwidth_mbps: 0.0,
                net_bandwidth_mbps: 0.0,
            };
        }
        SystemMetrics {
            wall_seconds: self.wall,
            cpu_utilization: (self.cpu_busy / self.wall * 100.0).min(100.0),
            io_wait_ratio: (self.io_wait / self.wall * 100.0).min(100.0),
            weighted_io_ratio: self.weighted_io / self.wall,
            disk_bandwidth_mbps: self.disk_bytes as f64 / self.wall / 1e6,
            net_bandwidth_mbps: self.net_bytes as f64 / self.wall / 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io_phase(read_mb: u64, qd: f64) -> Phase {
        Phase {
            name: "io".into(),
            instructions: 1_000,
            disk_read_bytes: read_mb << 20,
            disk_write_bytes: 0,
            net_bytes: 0,
            io_parallelism: qd,
        }
    }

    #[test]
    fn compute_heavy_phase_has_high_cpu_utilization() {
        let mut n = Node::new(NodeConfig::default());
        n.run_phase(Phase::compute("spin", 10_000_000_000));
        let m = n.metrics();
        assert!(m.cpu_utilization > 95.0, "{m:?}");
        assert!(m.io_wait_ratio < 1.0);
    }

    #[test]
    fn io_heavy_phase_has_high_io_wait() {
        let mut n = Node::new(NodeConfig::default());
        n.run_phase(io_phase(512, 8.0));
        let m = n.metrics();
        assert!(m.cpu_utilization < 10.0, "{m:?}");
        assert!(m.io_wait_ratio > 80.0, "{m:?}");
        assert!(m.weighted_io_ratio > 5.0, "{m:?}");
    }

    #[test]
    fn weighted_io_scales_with_queue_depth() {
        let run = |qd| {
            let mut n = Node::new(NodeConfig::default());
            n.run_phase(io_phase(256, qd));
            n.metrics().weighted_io_ratio
        };
        assert!(run(16.0) > 3.0 * run(2.0));
    }

    #[test]
    fn bandwidth_reflects_bytes_over_wall() {
        let mut n = Node::new(NodeConfig::default());
        n.run_phase(io_phase(110, 1.0)); // ~1s at 110 MB/s
        let m = n.metrics();
        assert!(
            (m.disk_bandwidth_mbps - 110.0 * 1.048).abs() < 15.0,
            "{m:?}"
        );
    }

    #[test]
    fn overlap_takes_max_not_sum() {
        let mut n = Node::new(NodeConfig::default());
        let mut p = io_phase(110, 1.0);
        p.instructions = 250_000_000; // ~0.52 s CPU, ~1 s disk
        n.run_phase(p);
        let m = n.metrics();
        assert!(m.wall_seconds < 1.3, "{m:?}");
        assert!(
            m.cpu_utilization > 30.0 && m.cpu_utilization < 80.0,
            "{m:?}"
        );
    }

    #[test]
    fn empty_node_reports_zeros() {
        let n = Node::new(NodeConfig::default());
        let m = n.metrics();
        assert_eq!(m.wall_seconds, 0.0);
        assert_eq!(m.cpu_utilization, 0.0);
    }

    #[test]
    fn metrics_accumulate_over_phases() {
        let mut n = Node::new(NodeConfig::default());
        n.run_phase(Phase::compute("a", 1_000_000_000));
        n.run_phase(io_phase(64, 4.0));
        assert_eq!(n.phases().len(), 2);
        let m = n.metrics();
        assert!(m.cpu_utilization > 0.0 && m.io_wait_ratio > 0.0);
    }
}
