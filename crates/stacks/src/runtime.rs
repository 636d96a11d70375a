//! Shared resource accounting and data-behaviour classification.
//!
//! Every stack engine returns a [`RunStats`]: the real byte volumes it
//! read, shuffled, and wrote, plus the [`bdb_node::Phase`]s to replay on
//! the system-level node model. The paper's Table 2 columns "Data
//! Processing Behaviors" (§3.2.2) are computed from these volumes with the
//! paper's own thresholds.

use bdb_trace::{ExecCtx, MemRegion, OpMix, RegionId};
use std::fmt;

/// One framework routine: a [code region](bdb_trace::CodeRegion) plus how a
/// typical invocation walks it.
///
/// `units` is the boilerplate micro-op count charged per invocation and
/// `spread` is how many bytes of the region invocations wander over (via
/// [`ExecCtx::frame_spread`]): deep managed stacks use large regions with
/// wide spread, thin runtimes use small regions with zero spread. These two
/// knobs are what make the paper's stack-dependent L1I behaviour (O3/O4)
/// emerge from the trace rather than being asserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routine {
    /// The routine's code region.
    pub region: RegionId,
    /// Boilerplate micro-ops charged per invocation.
    pub units: u32,
    /// Bytes of the region that invocation entry points wander over.
    pub spread: u64,
}

impl Routine {
    /// Registers a routine of `size` code bytes in `layout`.
    ///
    /// `spread_pct` (0–100) controls which fraction of the region the
    /// per-invocation entry offset ranges over.
    pub fn register(
        layout: &mut bdb_trace::CodeLayout,
        name: impl Into<String>,
        size: u64,
        units: u32,
        spread_pct: u64,
    ) -> Self {
        let region = layout.region(name, size);
        Self {
            region,
            units,
            spread: size * spread_pct.min(100) / 100,
        }
    }

    /// Invokes the routine: frame + boilerplate, then `f` inside the frame.
    pub fn enter<R>(
        &self,
        ctx: &mut ExecCtx<'_>,
        mix: &OpMix,
        scratch: &MemRegion,
        f: impl FnOnce(&mut ExecCtx<'_>) -> R,
    ) -> R {
        ctx.frame_spread(self.region, self.spread, |ctx| {
            ctx.boilerplate(mix, u64::from(self.units), scratch);
            f(ctx)
        })
    }

    /// Invokes the routine for its boilerplate only.
    pub fn run(&self, ctx: &mut ExecCtx<'_>, mix: &OpMix, scratch: &MemRegion) {
        self.enter(ctx, mix, scratch, |_| ());
    }
}

/// Which software stack executed a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StackKind {
    /// The Hadoop-like MapReduce engine.
    Hadoop,
    /// The Spark-like dataflow engine.
    Spark,
    /// The thin MPI-like runtime.
    Mpi,
    /// The Hive mode of the SQL engine (SQL compiled onto MapReduce).
    Hive,
    /// The Shark mode of the SQL engine (SQL compiled onto dataflow).
    Shark,
    /// The Impala mode of the SQL engine (native operators).
    Impala,
    /// The HBase-like key-value service.
    Hbase,
    /// A native benchmark binary (comparison suites).
    Native,
}

impl fmt::Display for StackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StackKind::Hadoop => "Hadoop",
            StackKind::Spark => "Spark",
            StackKind::Mpi => "MPI",
            StackKind::Hive => "Hive",
            StackKind::Shark => "Shark",
            StackKind::Impala => "Impala",
            StackKind::Hbase => "HBase",
            StackKind::Native => "native",
        };
        f.write_str(s)
    }
}

/// The paper's §3.2.2 size-relation classes between two data volumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Ratio in `[0.9, 1.1)`: the volumes are considered equal.
    Equal,
    /// Ratio in `[0.01, 0.9)`: output smaller than input.
    Less,
    /// Ratio below `0.01`: output much smaller than input.
    MuchLess,
    /// Ratio `>= 1.1`: output larger than input.
    Greater,
}

impl Relation {
    /// Classifies `numerator / denominator` with the paper's thresholds.
    ///
    /// A zero denominator classifies as [`Relation::Greater`] when the
    /// numerator is non-zero and [`Relation::Equal`] otherwise.
    pub fn classify(numerator: u64, denominator: u64) -> Self {
        if denominator == 0 {
            return if numerator == 0 {
                Relation::Equal
            } else {
                Relation::Greater
            };
        }
        let ratio = numerator as f64 / denominator as f64;
        if ratio >= 1.1 {
            Relation::Greater
        } else if ratio >= 0.9 {
            Relation::Equal
        } else if ratio >= 0.01 {
            Relation::Less
        } else {
            Relation::MuchLess
        }
    }

    /// The paper's notation for this relation against "Input".
    pub fn notation(&self, subject: &str) -> String {
        match self {
            Relation::Equal => format!("{subject}=Input"),
            Relation::Less => format!("{subject}<Input"),
            Relation::MuchLess => format!("{subject}<<Input"),
            Relation::Greater => format!("{subject}>Input"),
        }
    }
}

/// Table 2's "Data Processing Behaviors" cell for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataBehavior {
    /// Output volume relative to input.
    pub output: Relation,
    /// Intermediate (shuffle/spill) volume relative to input; `None` when
    /// the workload produces no intermediate data.
    pub intermediate: Option<Relation>,
}

impl fmt::Display for DataBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.output.notation("Output"))?;
        match self.intermediate {
            Some(rel) => write!(f, " and {}", rel.notation("Intermediate")),
            None => write!(f, " and no Intermediate"),
        }
    }
}

/// Resource accounting for one stack run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Bytes of input consumed.
    pub input_bytes: u64,
    /// Bytes of intermediate data materialized (spills, shuffles).
    pub intermediate_bytes: u64,
    /// Bytes of output produced.
    pub output_bytes: u64,
    /// Resource phases for the node model.
    pub phases: Vec<bdb_node::Phase>,
}

impl RunStats {
    /// Classifies the run's data behaviour with the paper's §3.2.2 rules.
    ///
    /// Intermediate volume below one-per-mille of input counts as "no
    /// intermediate" (the paper lists e.g. H-Read as having none even
    /// though the stack touches small internal buffers).
    pub fn data_behavior(&self) -> DataBehavior {
        let intermediate = if self.intermediate_bytes * 1000 < self.input_bytes {
            None
        } else {
            Some(Relation::classify(
                self.intermediate_bytes,
                self.input_bytes,
            ))
        };
        DataBehavior {
            output: Relation::classify(self.output_bytes, self.input_bytes),
            intermediate,
        }
    }

    /// Merges another run's accounting into this one (multi-job pipelines).
    pub fn merge(&mut self, other: RunStats) {
        // Input/output of a pipeline are the first input and last output;
        // callers overwrite those. Here we accumulate everything.
        self.input_bytes += other.input_bytes;
        self.intermediate_bytes += other.intermediate_bytes;
        self.output_bytes += other.output_bytes;
        self.phases.extend(other.phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_thresholds_match_paper() {
        assert_eq!(Relation::classify(95, 100), Relation::Equal);
        assert_eq!(Relation::classify(109, 100), Relation::Equal);
        assert_eq!(Relation::classify(110, 100), Relation::Greater);
        assert_eq!(Relation::classify(89, 100), Relation::Less);
        assert_eq!(Relation::classify(1, 100), Relation::Less);
        assert_eq!(Relation::classify(0, 100), Relation::MuchLess);
        assert_eq!(Relation::classify(9, 1000), Relation::MuchLess);
    }

    #[test]
    fn zero_denominator() {
        assert_eq!(Relation::classify(0, 0), Relation::Equal);
        assert_eq!(Relation::classify(5, 0), Relation::Greater);
    }

    #[test]
    fn data_behavior_formats_like_table2() {
        let stats = RunStats {
            input_bytes: 1000,
            intermediate_bytes: 500,
            output_bytes: 5,
            phases: Vec::new(),
        };
        assert_eq!(
            stats.data_behavior().to_string(),
            "Output<<Input and Intermediate<Input"
        );
        let no_inter = RunStats {
            input_bytes: 1000,
            intermediate_bytes: 0,
            output_bytes: 1000,
            phases: Vec::new(),
        };
        assert_eq!(
            no_inter.data_behavior().to_string(),
            "Output=Input and no Intermediate"
        );
    }

    #[test]
    fn merge_accumulates_phases() {
        let mut a = RunStats {
            input_bytes: 10,
            ..Default::default()
        };
        let b = RunStats {
            input_bytes: 5,
            phases: vec![bdb_node::Phase::compute("x", 1)],
            ..Default::default()
        };
        a.merge(b);
        assert_eq!(a.input_bytes, 15);
        assert_eq!(a.phases.len(), 1);
    }

    #[test]
    fn stack_kind_display() {
        assert_eq!(StackKind::Hadoop.to_string(), "Hadoop");
        assert_eq!(StackKind::Mpi.to_string(), "MPI");
    }
}
