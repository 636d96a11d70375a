//! Workload descriptors and the scale knob.

use bdb_datagen::DataSetId;
use bdb_stacks::{RunStats, StackKind};
use bdb_trace::TraceSink;
use std::fmt;
use std::sync::Arc;

/// The paper's three application categories (§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Offline data analysis (MapReduce/Spark/MPI batch jobs).
    DataAnalysis,
    /// Cloud OLTP services.
    Service,
    /// Interactive analytics (SQL engines).
    InteractiveAnalysis,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::DataAnalysis => "data analysis",
            Category::Service => "service",
            Category::InteractiveAnalysis => "interactive analysis",
        };
        f.write_str(s)
    }
}

/// The algorithm or operator a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum KernelKind {
    WordCount,
    Sort,
    Grep,
    KMeans,
    PageRank,
    NaiveBayes,
    InvertedIndex,
    ConnectedComponents,
    Select,
    Project,
    OrderBy,
    Aggregation,
    Join,
    Difference,
    TpcDsQ3,
    TpcDsQ6,
    TpcDsQ8,
    TpcDsQ10,
    TpcDsQ13,
    KvRead,
    KvWrite,
    KvScan,
    SuiteKernel,
}

impl KernelKind {
    /// Prose description in the style of the paper's Table 2.
    pub fn description(&self) -> &'static str {
        match self {
            KernelKind::WordCount => {
                "counts the number of each word in the input; a fundamental operation for big data statistics analytics"
            }
            KernelKind::Sort => {
                "sorts key-value records; a fundamental operation from relational algebra used in various scenes"
            }
            KernelKind::Grep => {
                "searches plain text for lines that match a pattern; another fundamental, widely used operation"
            }
            KernelKind::KMeans => {
                "a popular clustering algorithm partitioning n observations into k clusters"
            }
            KernelKind::PageRank => {
                "a graph computing algorithm scoring web pages by the number and quality of links"
            }
            KernelKind::NaiveBayes => {
                "a simple but widely used probabilistic classifier in statistical calculation"
            }
            KernelKind::InvertedIndex => "builds word -> document posting lists for search",
            KernelKind::ConnectedComponents => {
                "labels the connected components of a social graph by iterative label propagation"
            }
            KernelKind::Select => {
                "select query to filter data; filter is one of the five basic operators from relational algebra"
            }
            KernelKind::Project => {
                "project, one of the five basic operators from relational algebra"
            }
            KernelKind::OrderBy => {
                "sorting, a fundamental operation from relational algebra, extensively used"
            }
            KernelKind::Aggregation => "group-by aggregation over a fact table",
            KernelKind::Join => "equi-join between a fact table and a dimension",
            KernelKind::Difference => {
                "set difference, one of the five basic operators from relational algebra"
            }
            KernelKind::TpcDsQ3 => "query 3 of TPC-DS, complex relational algebra",
            KernelKind::TpcDsQ6 => "a TPC-DS-style customer-rollup query",
            KernelKind::TpcDsQ8 => "query 8 of TPC-DS, complex relational algebra",
            KernelKind::TpcDsQ10 => "query 10 of TPC-DS, complex relational algebra",
            KernelKind::TpcDsQ13 => "a TPC-DS-style quantity/date rollup query",
            KernelKind::KvRead => {
                "basic read operation of a popular non-relational distributed database"
            }
            KernelKind::KvWrite => {
                "basic write operation of a popular non-relational distributed database"
            }
            KernelKind::KvScan => {
                "range scan operation of a popular non-relational distributed database"
            }
            KernelKind::SuiteKernel => "comparison-suite kernel",
        }
    }
}

/// Identity and taxonomy of one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Short id in the paper's style, e.g. `"H-WordCount"`.
    pub id: String,
    /// Software stack.
    pub stack: StackKind,
    /// Application category.
    pub category: Category,
    /// Source data set.
    pub dataset: DataSetId,
    /// Algorithm/operator.
    pub kernel: KernelKind,
}

/// Global scale knob: multiplies every workload's base data size.
///
/// `tiny` keeps unit tests fast; `small` is the default for examples and
/// integration tests; `paper` is what the benchmark binaries use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    factor: f64,
}

impl Scale {
    /// Unit-test scale (~50–100 k traced ops per workload).
    pub fn tiny() -> Self {
        Self { factor: 0.02 }
    }

    /// Example/integration scale.
    pub fn small() -> Self {
        Self { factor: 0.25 }
    }

    /// Benchmark scale (the default for table/figure regeneration).
    pub fn paper() -> Self {
        Self { factor: 1.0 }
    }

    /// Custom scale factor.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    pub fn custom(factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        Self { factor }
    }

    /// Scales a base count, with a floor of 4.
    pub fn n(&self, base: usize) -> usize {
        ((base as f64 * self.factor) as usize).max(4)
    }

    /// The raw factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::small()
    }
}

/// Runner signature: execute onto a sink at a scale, return accounting.
pub type Runner = Arc<dyn Fn(&mut dyn TraceSink, Scale) -> RunStats + Send + Sync>;

/// A described, runnable workload.
#[derive(Clone)]
pub struct WorkloadDef {
    /// Identity and taxonomy.
    pub spec: WorkloadSpec,
    runner: Runner,
}

impl fmt::Debug for WorkloadDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadDef")
            .field("spec", &self.spec)
            .finish()
    }
}

impl WorkloadDef {
    /// Creates a workload from its spec and runner.
    pub fn new(spec: WorkloadSpec, runner: Runner) -> Self {
        Self { spec, runner }
    }

    /// Runs the workload, streaming its trace into `sink`.
    pub fn run(&self, sink: &mut dyn TraceSink, scale: Scale) -> RunStats {
        (self.runner)(sink, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_floors_at_four() {
        assert_eq!(Scale::tiny().n(10), 4);
        assert_eq!(Scale::paper().n(10), 10);
        assert_eq!(Scale::custom(2.0).n(10), 20);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = Scale::custom(0.0);
    }

    #[test]
    fn category_display() {
        assert_eq!(Category::Service.to_string(), "service");
        assert_eq!(
            Category::InteractiveAnalysis.to_string(),
            "interactive analysis"
        );
    }

    #[test]
    fn workload_def_runs_its_runner() {
        use bdb_trace::MixSink;
        let spec = WorkloadSpec {
            id: "T-Test".into(),
            stack: StackKind::Native,
            category: Category::DataAnalysis,
            dataset: DataSetId::Wikipedia,
            kernel: KernelKind::SuiteKernel,
        };
        let def = WorkloadDef::new(
            spec,
            Arc::new(|_sink, scale| RunStats {
                input_bytes: scale.n(100) as u64,
                ..Default::default()
            }),
        );
        let mut sink = MixSink::new();
        assert_eq!(def.run(&mut sink, Scale::paper()).input_bytes, 100);
    }
}
