//! [`WorkloadProfile`] ⇄ JSON, hand-rolled.
//!
//! The cache stores one profile per file. Field order mirrors the struct
//! definitions so encoding is deterministic; enums are stored as their
//! variant names. Decoding is strict — any missing field, unknown variant,
//! or wrong-typed value is a [`DecodeError`], which the engine treats as a
//! cache miss (the file is recomputed and rewritten).
//!
//! Each decoder is written once, generic over [`ValueRef`]: the byte
//! paths (cache reads, cluster and serve frames) hand it a
//! [`bdb_codec::bval::DocRef`] into a validated bval tape, so no value
//! tree is built, while knob edits and JSON interchange hand it a
//! `&Value`.

use crate::json::Value;
use bdb_codec::bval::ValueRef;
use bdb_datagen::DataSetId;
use bdb_node::{NodeConfig, SystemMetrics};
use bdb_sim::{
    BranchStats, CacheConfig, CacheStats, DirectionScheme, MachineConfig, MissRatioCurve,
    PerfReport, PipelineConfig, PipelineKind, Replacement, SweepMetric, SweepResult, TlbConfig,
};
use bdb_stacks::{DataBehavior, Relation, StackKind};
use bdb_trace::InstructionMix;
use bdb_wcrt::{MetricVector, SystemClass, WorkloadProfile, METRIC_COUNT};
use bdb_workloads::{Category, KernelKind, Scale, WorkloadSpec};

/// A cache file failed to decode (treated as a miss by the engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl DecodeError {
    fn field(field: &str, reason: &str) -> Self {
        DecodeError(format!("{field}: {reason}"))
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "profile decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn get<'a, V: ValueRef<'a>>(v: V, key: &str) -> Result<V, DecodeError> {
    v.get(key).ok_or_else(|| DecodeError::field(key, "missing"))
}

/// The unsigned integer field `key` of the object `v`.
pub fn get_u64<'a, V: ValueRef<'a>>(v: V, key: &str) -> Result<u64, DecodeError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| DecodeError::field(key, "expected unsigned integer"))
}

/// An unsigned integer field that must fit `T`: a wider value is
/// refused, never truncated.
fn get_int<'a, V: ValueRef<'a>, T: TryFrom<u64>>(v: V, key: &str) -> Result<T, DecodeError> {
    T::try_from(get_u64(v, key)?).map_err(|_| DecodeError::field(key, "out of range"))
}

fn get_f64<'a, V: ValueRef<'a>>(v: V, key: &str) -> Result<f64, DecodeError> {
    get(v, key)?
        .as_f64()
        .ok_or_else(|| DecodeError::field(key, "expected number"))
}

/// The string field `key` of the object `v`.
pub fn get_str<'a, V: ValueRef<'a>>(v: V, key: &str) -> Result<&'a str, DecodeError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| DecodeError::field(key, "expected string"))
}

macro_rules! enum_codec {
    ($encode:ident, $decode:ident, $ty:ty, [$($variant:ident),+ $(,)?]) => {
        fn $encode(v: $ty) -> Value {
            Value::Str(
                match v {
                    $(<$ty>::$variant => stringify!($variant),)+
                }
                .to_owned(),
            )
        }

        fn $decode<'a, V: ValueRef<'a>>(v: V, field: &str) -> Result<$ty, DecodeError> {
            let name = v
                .as_str()
                .ok_or_else(|| DecodeError::field(field, "expected variant string"))?;
            match name {
                $(stringify!($variant) => Ok(<$ty>::$variant),)+
                other => Err(DecodeError::field(
                    field,
                    &format!("unknown variant '{other}'"),
                )),
            }
        }
    };
}

enum_codec!(
    enc_stack,
    dec_stack,
    StackKind,
    [Hadoop, Spark, Mpi, Hive, Shark, Impala, Hbase, Native]
);
enum_codec!(
    enc_category,
    dec_category,
    Category,
    [DataAnalysis, Service, InteractiveAnalysis]
);
enum_codec!(
    enc_dataset,
    dec_dataset,
    DataSetId,
    [
        Wikipedia,
        AmazonReviews,
        GoogleWebGraph,
        FacebookSocial,
        EcommerceTransactions,
        ProfSearchResumes,
        TpcdsWeb,
    ]
);
enum_codec!(
    enc_kernel,
    dec_kernel,
    KernelKind,
    [
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
    ]
);
enum_codec!(
    enc_system_class,
    dec_system_class,
    SystemClass,
    [CpuIntensive, IoIntensive, Hybrid]
);
enum_codec!(
    enc_relation,
    dec_relation,
    Relation,
    [Equal, Less, MuchLess, Greater]
);
enum_codec!(enc_replacement, dec_replacement, Replacement, [Lru, Random]);
enum_codec!(
    enc_predictor,
    dec_predictor,
    DirectionScheme,
    [TwoLevel, Hybrid]
);
enum_codec!(
    enc_pipeline_kind,
    dec_pipeline_kind,
    PipelineKind,
    [InOrder, OutOfOrder]
);

fn enc_spec(spec: &WorkloadSpec) -> Value {
    Value::object(vec![
        ("id", Value::Str(spec.id.clone())),
        ("stack", enc_stack(spec.stack)),
        ("category", enc_category(spec.category)),
        ("dataset", enc_dataset(spec.dataset)),
        ("kernel", enc_kernel(spec.kernel)),
    ])
}

fn dec_spec<'a, V: ValueRef<'a>>(v: V) -> Result<WorkloadSpec, DecodeError> {
    Ok(WorkloadSpec {
        id: get_str(v, "id")?.to_owned(),
        stack: dec_stack(get(v, "stack")?, "stack")?,
        category: dec_category(get(v, "category")?, "category")?,
        dataset: dec_dataset(get(v, "dataset")?, "dataset")?,
        kernel: dec_kernel(get(v, "kernel")?, "kernel")?,
    })
}

fn enc_mix(mix: &InstructionMix) -> Value {
    Value::object(vec![
        ("loads", Value::UInt(mix.loads)),
        ("stores", Value::UInt(mix.stores)),
        ("branches", Value::UInt(mix.branches)),
        ("int_addr", Value::UInt(mix.int_addr)),
        ("fp_addr", Value::UInt(mix.fp_addr)),
        ("int_other", Value::UInt(mix.int_other)),
        ("fp", Value::UInt(mix.fp)),
        ("bytes_moved", Value::UInt(mix.bytes_moved)),
    ])
}

fn dec_mix<'a, V: ValueRef<'a>>(v: V) -> Result<InstructionMix, DecodeError> {
    Ok(InstructionMix {
        loads: get_u64(v, "loads")?,
        stores: get_u64(v, "stores")?,
        branches: get_u64(v, "branches")?,
        int_addr: get_u64(v, "int_addr")?,
        fp_addr: get_u64(v, "fp_addr")?,
        int_other: get_u64(v, "int_other")?,
        fp: get_u64(v, "fp")?,
        bytes_moved: get_u64(v, "bytes_moved")?,
    })
}

fn enc_cache_stats(c: &CacheStats) -> Value {
    Value::object(vec![
        ("accesses", Value::UInt(c.accesses)),
        ("misses", Value::UInt(c.misses)),
        ("writebacks", Value::UInt(c.writebacks)),
    ])
}

fn dec_cache_stats<'a, V: ValueRef<'a>>(v: V) -> Result<CacheStats, DecodeError> {
    Ok(CacheStats {
        accesses: get_u64(v, "accesses")?,
        misses: get_u64(v, "misses")?,
        writebacks: get_u64(v, "writebacks")?,
    })
}

fn enc_branch(b: &BranchStats) -> Value {
    Value::object(vec![
        ("branches", Value::UInt(b.branches)),
        ("mispredicts", Value::UInt(b.mispredicts)),
        ("conditionals", Value::UInt(b.conditionals)),
        ("cond_mispredicts", Value::UInt(b.cond_mispredicts)),
    ])
}

fn dec_branch<'a, V: ValueRef<'a>>(v: V) -> Result<BranchStats, DecodeError> {
    Ok(BranchStats {
        branches: get_u64(v, "branches")?,
        mispredicts: get_u64(v, "mispredicts")?,
        conditionals: get_u64(v, "conditionals")?,
        cond_mispredicts: get_u64(v, "cond_mispredicts")?,
    })
}

fn enc_report(r: &PerfReport) -> Value {
    Value::object(vec![
        ("platform", Value::Str(r.platform.clone())),
        ("mix", enc_mix(&r.mix)),
        ("instructions", Value::UInt(r.instructions)),
        ("cycles", Value::Float(r.cycles)),
        ("l1i", enc_cache_stats(&r.l1i)),
        ("l1d", enc_cache_stats(&r.l1d)),
        ("l2", enc_cache_stats(&r.l2)),
        ("l3", enc_cache_stats(&r.l3)),
        ("itlb_misses", Value::UInt(r.itlb_misses)),
        ("dtlb_misses", Value::UInt(r.dtlb_misses)),
        ("itlb_walks", Value::UInt(r.itlb_walks)),
        ("dtlb_walks", Value::UInt(r.dtlb_walks)),
        ("stlb_misses", Value::UInt(r.stlb_misses)),
        ("branch", enc_branch(&r.branch)),
        ("fetch_stall_cycles", Value::Float(r.fetch_stall_cycles)),
        ("data_stall_cycles", Value::Float(r.data_stall_cycles)),
        ("branch_stall_cycles", Value::Float(r.branch_stall_cycles)),
        ("tlb_stall_cycles", Value::Float(r.tlb_stall_cycles)),
        ("offcore_requests", Value::UInt(r.offcore_requests)),
        ("snoop_responses", Value::UInt(r.snoop_responses)),
    ])
}

fn dec_report<'a, V: ValueRef<'a>>(v: V) -> Result<PerfReport, DecodeError> {
    Ok(PerfReport {
        platform: get_str(v, "platform")?.to_owned(),
        mix: dec_mix(get(v, "mix")?)?,
        instructions: get_u64(v, "instructions")?,
        cycles: get_f64(v, "cycles")?,
        l1i: dec_cache_stats(get(v, "l1i")?)?,
        l1d: dec_cache_stats(get(v, "l1d")?)?,
        l2: dec_cache_stats(get(v, "l2")?)?,
        l3: dec_cache_stats(get(v, "l3")?)?,
        itlb_misses: get_u64(v, "itlb_misses")?,
        dtlb_misses: get_u64(v, "dtlb_misses")?,
        itlb_walks: get_u64(v, "itlb_walks")?,
        dtlb_walks: get_u64(v, "dtlb_walks")?,
        stlb_misses: get_u64(v, "stlb_misses")?,
        branch: dec_branch(get(v, "branch")?)?,
        fetch_stall_cycles: get_f64(v, "fetch_stall_cycles")?,
        data_stall_cycles: get_f64(v, "data_stall_cycles")?,
        branch_stall_cycles: get_f64(v, "branch_stall_cycles")?,
        tlb_stall_cycles: get_f64(v, "tlb_stall_cycles")?,
        offcore_requests: get_u64(v, "offcore_requests")?,
        snoop_responses: get_u64(v, "snoop_responses")?,
    })
}

fn enc_system(s: &SystemMetrics) -> Value {
    Value::object(vec![
        ("wall_seconds", Value::Float(s.wall_seconds)),
        ("cpu_utilization", Value::Float(s.cpu_utilization)),
        ("io_wait_ratio", Value::Float(s.io_wait_ratio)),
        ("weighted_io_ratio", Value::Float(s.weighted_io_ratio)),
        ("disk_bandwidth_mbps", Value::Float(s.disk_bandwidth_mbps)),
        ("net_bandwidth_mbps", Value::Float(s.net_bandwidth_mbps)),
    ])
}

fn dec_system<'a, V: ValueRef<'a>>(v: V) -> Result<SystemMetrics, DecodeError> {
    Ok(SystemMetrics {
        wall_seconds: get_f64(v, "wall_seconds")?,
        cpu_utilization: get_f64(v, "cpu_utilization")?,
        io_wait_ratio: get_f64(v, "io_wait_ratio")?,
        weighted_io_ratio: get_f64(v, "weighted_io_ratio")?,
        disk_bandwidth_mbps: get_f64(v, "disk_bandwidth_mbps")?,
        net_bandwidth_mbps: get_f64(v, "net_bandwidth_mbps")?,
    })
}

fn enc_behavior(b: &DataBehavior) -> Value {
    Value::object(vec![
        ("output", enc_relation(b.output)),
        (
            "intermediate",
            match b.intermediate {
                Some(r) => enc_relation(r),
                None => Value::Null,
            },
        ),
    ])
}

fn dec_behavior<'a, V: ValueRef<'a>>(v: V) -> Result<DataBehavior, DecodeError> {
    let intermediate = get(v, "intermediate")?;
    Ok(DataBehavior {
        output: dec_relation(get(v, "output")?, "output")?,
        intermediate: if intermediate.is_null() {
            None
        } else {
            Some(dec_relation(intermediate, "intermediate")?)
        },
    })
}

/// Encodes a profile as a [`Value`] tree.
pub fn profile_to_value(p: &WorkloadProfile) -> Value {
    Value::object(vec![
        ("spec", enc_spec(&p.spec)),
        ("report", enc_report(&p.report)),
        ("system", enc_system(&p.system)),
        ("system_class", enc_system_class(p.system_class)),
        ("data_behavior", enc_behavior(&p.data_behavior)),
        ("input_bytes", Value::UInt(p.input_bytes)),
        ("intermediate_bytes", Value::UInt(p.intermediate_bytes)),
        ("output_bytes", Value::UInt(p.output_bytes)),
        (
            "metrics",
            Value::Array(
                p.metrics
                    .values()
                    .iter()
                    .map(|&v| Value::Float(v))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a profile from a bval tape or a [`Value`] tree.
pub fn profile_from_value<'a, V: ValueRef<'a>>(v: V) -> Result<WorkloadProfile, DecodeError> {
    let metric_values = get(v, "metrics")?
        .items()
        .ok_or_else(|| DecodeError::field("metrics", "expected array"))?;
    if metric_values.len() != METRIC_COUNT {
        return Err(DecodeError::field(
            "metrics",
            &format!(
                "expected {METRIC_COUNT} values, got {}",
                metric_values.len()
            ),
        ));
    }
    let mut metrics = [0.0f64; METRIC_COUNT];
    for (slot, value) in metrics.iter_mut().zip(metric_values) {
        *slot = value
            .as_f64()
            .ok_or_else(|| DecodeError::field("metrics", "expected number"))?;
    }
    Ok(WorkloadProfile {
        spec: dec_spec(get(v, "spec")?)?,
        report: dec_report(get(v, "report")?)?,
        system: dec_system(get(v, "system")?)?,
        system_class: dec_system_class(get(v, "system_class")?, "system_class")?,
        data_behavior: dec_behavior(get(v, "data_behavior")?)?,
        input_bytes: get_u64(v, "input_bytes")?,
        intermediate_bytes: get_u64(v, "intermediate_bytes")?,
        output_bytes: get_u64(v, "output_bytes")?,
        metrics: MetricVector::from_values(metrics),
    })
}

fn enc_cache_config(c: &CacheConfig) -> Value {
    Value::object(vec![
        ("size_bytes", Value::UInt(c.size_bytes)),
        ("assoc", Value::UInt(c.assoc as u64)),
        ("line_bytes", Value::UInt(c.line_bytes)),
        ("replacement", enc_replacement(c.replacement)),
    ])
}

fn dec_cache_config<'a, V: ValueRef<'a>>(v: V) -> Result<CacheConfig, DecodeError> {
    let config = CacheConfig {
        size_bytes: get_u64(v, "size_bytes")?,
        assoc: get_int(v, "assoc")?,
        line_bytes: get_u64(v, "line_bytes")?,
        replacement: dec_replacement(get(v, "replacement")?, "replacement")?,
    };
    config.validate().map_err(DecodeError)?;
    Ok(config)
}

fn enc_tlb_config(t: &TlbConfig) -> Value {
    Value::object(vec![
        ("entries", Value::UInt(t.entries as u64)),
        ("assoc", Value::UInt(t.assoc as u64)),
        ("page_bytes", Value::UInt(t.page_bytes)),
    ])
}

fn dec_tlb_config<'a, V: ValueRef<'a>>(v: V) -> Result<TlbConfig, DecodeError> {
    let config = TlbConfig {
        entries: get_int(v, "entries")?,
        assoc: get_int(v, "assoc")?,
        page_bytes: get_u64(v, "page_bytes")?,
    };
    config.validate().map_err(DecodeError)?;
    Ok(config)
}

fn enc_pipeline(p: &PipelineConfig) -> Value {
    Value::object(vec![
        ("kind", enc_pipeline_kind(p.kind)),
        ("base_cpi", Value::Float(p.base_cpi)),
        ("l2_latency", Value::UInt(u64::from(p.l2_latency))),
        ("l3_latency", Value::UInt(u64::from(p.l3_latency))),
        ("mem_latency", Value::UInt(u64::from(p.mem_latency))),
        (
            "tlb_walk_latency",
            Value::UInt(u64::from(p.tlb_walk_latency)),
        ),
        ("stlb_latency", Value::UInt(u64::from(p.stlb_latency))),
    ])
}

fn dec_pipeline<'a, V: ValueRef<'a>>(v: V) -> Result<PipelineConfig, DecodeError> {
    Ok(PipelineConfig {
        kind: dec_pipeline_kind(get(v, "kind")?, "kind")?,
        base_cpi: get_f64(v, "base_cpi")?,
        l2_latency: get_int(v, "l2_latency")?,
        l3_latency: get_int(v, "l3_latency")?,
        mem_latency: get_int(v, "mem_latency")?,
        tlb_walk_latency: get_int(v, "tlb_walk_latency")?,
        stlb_latency: get_int(v, "stlb_latency")?,
    })
}

/// Encodes a full machine configuration (used by the cluster wire
/// protocol to ship the exact simulation inputs to workers).
pub fn machine_config_to_value(m: &MachineConfig) -> Value {
    Value::object(vec![
        ("name", Value::Str(m.name.clone())),
        ("l1i", enc_cache_config(&m.l1i)),
        ("l1d", enc_cache_config(&m.l1d)),
        ("l2", enc_cache_config(&m.l2)),
        (
            "l3",
            match &m.l3 {
                Some(c) => enc_cache_config(c),
                None => Value::Null,
            },
        ),
        ("itlb", enc_tlb_config(&m.itlb)),
        ("dtlb", enc_tlb_config(&m.dtlb)),
        ("stlb", enc_tlb_config(&m.stlb)),
        ("predictor", enc_predictor(m.predictor)),
        ("pipeline", enc_pipeline(&m.pipeline)),
    ])
}

/// Decodes a machine configuration (strict, like the profile codec).
pub fn machine_config_from_value<'a, V: ValueRef<'a>>(v: V) -> Result<MachineConfig, DecodeError> {
    let l3 = get(v, "l3")?;
    Ok(MachineConfig {
        name: get_str(v, "name")?.to_owned(),
        l1i: dec_cache_config(get(v, "l1i")?)?,
        l1d: dec_cache_config(get(v, "l1d")?)?,
        l2: dec_cache_config(get(v, "l2")?)?,
        l3: if l3.is_null() {
            None
        } else {
            Some(dec_cache_config(l3)?)
        },
        itlb: dec_tlb_config(get(v, "itlb")?)?,
        dtlb: dec_tlb_config(get(v, "dtlb")?)?,
        stlb: dec_tlb_config(get(v, "stlb")?)?,
        predictor: dec_predictor(get(v, "predictor")?, "predictor")?,
        pipeline: dec_pipeline(get(v, "pipeline")?)?,
    })
}

/// Encodes a node (system-metrics) configuration.
pub fn node_config_to_value(n: &NodeConfig) -> Value {
    Value::object(vec![
        ("clock_hz", Value::Float(n.clock_hz)),
        ("assumed_ipc", Value::Float(n.assumed_ipc)),
        ("instr_scale", Value::Float(n.instr_scale)),
        ("disk_bw", Value::Float(n.disk_bw)),
        ("disk_overhead_s", Value::Float(n.disk_overhead_s)),
        ("net_bw", Value::Float(n.net_bw)),
    ])
}

/// Decodes a node configuration.
pub fn node_config_from_value<'a, V: ValueRef<'a>>(v: V) -> Result<NodeConfig, DecodeError> {
    Ok(NodeConfig {
        clock_hz: get_f64(v, "clock_hz")?,
        assumed_ipc: get_f64(v, "assumed_ipc")?,
        instr_scale: get_f64(v, "instr_scale")?,
        disk_bw: get_f64(v, "disk_bw")?,
        disk_overhead_s: get_f64(v, "disk_overhead_s")?,
        net_bw: get_f64(v, "net_bw")?,
    })
}

enum_codec!(
    enc_sweep_metric,
    dec_sweep_metric,
    SweepMetric,
    [Instruction, Data, Unified]
);

fn enc_curve(c: &MissRatioCurve) -> Value {
    Value::object(vec![
        ("label", Value::Str(c.label.clone())),
        ("metric", enc_sweep_metric(c.metric)),
        (
            "points",
            Value::Array(
                c.points
                    .iter()
                    .map(|&(kib, ratio)| Value::Array(vec![Value::UInt(kib), Value::Float(ratio)]))
                    .collect(),
            ),
        ),
    ])
}

fn dec_curve<'a, V: ValueRef<'a>>(v: V) -> Result<MissRatioCurve, DecodeError> {
    let raw = get(v, "points")?
        .items()
        .ok_or_else(|| DecodeError::field("points", "expected array"))?;
    let mut points = Vec::with_capacity(raw.len());
    for point in raw {
        let mut pair = point
            .items()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| DecodeError::field("points", "expected [capacity, ratio] pairs"))?;
        let kib = pair
            .next()
            .and_then(V::as_u64)
            .ok_or_else(|| DecodeError::field("points", "expected unsigned capacity"))?;
        let ratio = pair
            .next()
            .and_then(V::as_f64)
            .ok_or_else(|| DecodeError::field("points", "expected numeric ratio"))?;
        points.push((kib, ratio));
    }
    Ok(MissRatioCurve {
        label: get_str(v, "label")?.to_owned(),
        metric: dec_sweep_metric(get(v, "metric")?, "metric")?,
        points,
    })
}

/// Encodes a sweep result: the value of a sweep cache entry (see
/// `Engine::sweep_workload`), so a warm rerun reads a finished sweep
/// instead of re-tracing. Ratios travel as canonical floats, so the
/// roundtrip is bit-exact.
pub fn sweep_result_to_value(s: &SweepResult) -> Value {
    Value::object(vec![
        ("instruction", enc_curve(&s.instruction)),
        ("data", enc_curve(&s.data)),
        ("unified", enc_curve(&s.unified)),
    ])
}

/// Decodes a sweep result (strict, like the profile codec).
pub fn sweep_result_from_value<'a, V: ValueRef<'a>>(v: V) -> Result<SweepResult, DecodeError> {
    Ok(SweepResult {
        instruction: dec_curve(get(v, "instruction")?)?,
        data: dec_curve(get(v, "data")?)?,
        unified: dec_curve(get(v, "unified")?)?,
    })
}

/// Encodes a [`crate::task::Task`]'s configuration — everything but
/// its workload id: `{scale_bits, machine, node}`. The scale factor
/// travels as its exact `f64` bit pattern so the worker profiles with
/// bit-identical inputs. Tasks that share a configuration share its
/// encoding; the cluster sends it once per distinct configuration.
pub fn task_config_to_value(t: &crate::task::Task) -> Value {
    Value::object(vec![
        (
            "scale_bits",
            Value::Str(format!("{:016x}", t.scale.factor().to_bits())),
        ),
        ("machine", machine_config_to_value(&t.machine)),
        ("node", node_config_to_value(&t.node)),
    ])
}

/// Rebuilds the [`crate::task::Task`] of `workload_id` from its
/// configuration ([`task_config_to_value`]). Rejects non-finite or
/// non-positive scale factors rather than panicking in `Scale::custom`.
pub fn task_from_config_value<'a, V: ValueRef<'a>>(
    workload_id: &str,
    v: V,
) -> Result<crate::task::Task, DecodeError> {
    let bits = get_str(v, "scale_bits")?;
    let bits = u64::from_str_radix(bits, 16)
        .map_err(|_| DecodeError::field("scale_bits", "expected 16 hex digits"))?;
    let factor = f64::from_bits(bits);
    if !factor.is_finite() || factor <= 0.0 {
        return Err(DecodeError::field(
            "scale_bits",
            "scale factor must be finite and positive",
        ));
    }
    Ok(crate::task::Task {
        workload_id: workload_id.to_owned(),
        scale: Scale::custom(factor),
        machine: machine_config_from_value(get(v, "machine")?)?,
        node: node_config_from_value(get(v, "node")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_wcrt::profile_workload;
    use bdb_workloads::{catalog, Scale};

    fn sample_profile() -> WorkloadProfile {
        let reps = catalog::representatives();
        let wc = reps
            .iter()
            .find(|w| w.spec.id == "H-WordCount")
            .expect("H-WordCount");
        profile_workload(
            wc,
            Scale::tiny(),
            MachineConfig::xeon_e5645(),
            NodeConfig::default(),
        )
    }

    #[test]
    fn real_profile_roundtrips_exactly() {
        let p = sample_profile();
        let bytes = profile_to_value(&p).encode();
        let back = profile_from_value(&crate::json::parse(&bytes).unwrap()).unwrap();
        assert_eq!(back.spec, p.spec);
        assert_eq!(back.report, p.report);
        assert_eq!(back.system, p.system);
        assert_eq!(back.system_class, p.system_class);
        assert_eq!(back.data_behavior, p.data_behavior);
        assert_eq!(
            (back.input_bytes, back.intermediate_bytes, back.output_bytes),
            (p.input_bytes, p.intermediate_bytes, p.output_bytes)
        );
        let a: Vec<u64> = p.metrics.values().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = back.metrics.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "metric bits must survive the roundtrip");
        // Byte stability: re-encoding the decoded profile is the identity.
        assert_eq!(profile_to_value(&back).encode(), bytes);
    }

    #[test]
    fn decode_rejects_truncated_metrics() {
        let p = sample_profile();
        let mut v = profile_to_value(&p);
        if let Value::Object(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "metrics" {
                    *val = Value::Array(vec![Value::Float(1.0)]);
                }
            }
        }
        assert!(profile_from_value(&v).is_err());
    }

    #[test]
    fn task_roundtrips_exactly() {
        for machine in [
            MachineConfig::xeon_e5645(),
            MachineConfig::atom_d510(),
            MachineConfig::atom_sweep(64),
        ] {
            let task = crate::task::Task {
                workload_id: "H-WordCount".to_owned(),
                scale: Scale::custom(0.073),
                machine,
                node: NodeConfig::default(),
            };
            let bytes = task_config_to_value(&task).encode();
            let back = task_from_config_value("H-WordCount", &crate::json::parse(&bytes).unwrap())
                .unwrap();
            assert_eq!(
                back.scale.factor().to_bits(),
                task.scale.factor().to_bits(),
                "scale bits must survive"
            );
            assert_eq!(back, task);
            assert_eq!(back.fingerprint(), task.fingerprint());
            // Byte stability: re-encoding the decoded config is the identity.
            assert_eq!(task_config_to_value(&back).encode(), bytes);
        }
    }

    #[test]
    fn task_decode_rejects_bad_scale() {
        let task = crate::task::Task {
            workload_id: "H-Grep".to_owned(),
            scale: Scale::tiny(),
            machine: MachineConfig::xeon_e5645(),
            node: NodeConfig::default(),
        };
        let good = task_config_to_value(&task).encode();
        let tiny = format!("{:016x}", Scale::tiny().factor().to_bits());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = format!("{:016x}", f64::to_bits(bad));
            let v = crate::json::parse(&good.replace(&tiny, &bad)).unwrap();
            assert!(
                task_from_config_value("H-Grep", &v).is_err(),
                "must reject factor {bad}"
            );
        }
    }

    #[test]
    fn sweep_result_roundtrips_exactly() {
        let curve = |metric, bias: f64| MissRatioCurve {
            label: "probe".to_owned(),
            metric,
            points: vec![(16, 0.25 + bias), (64, 0.125 + bias), (256, bias / 3.0)],
        };
        let result = SweepResult {
            instruction: curve(SweepMetric::Instruction, 0.001),
            data: curve(SweepMetric::Data, 0.002),
            unified: curve(SweepMetric::Unified, 0.003),
        };
        let bytes = sweep_result_to_value(&result).encode();
        let back = sweep_result_from_value(&crate::json::parse(&bytes).unwrap()).unwrap();
        assert_eq!(back, result);
        // Byte stability: re-encoding the decoded result is the identity.
        assert_eq!(sweep_result_to_value(&back).encode(), bytes);
    }

    #[test]
    fn sweep_result_decode_rejects_malformed_points() {
        let result = SweepResult {
            instruction: MissRatioCurve {
                label: "p".to_owned(),
                metric: SweepMetric::Instruction,
                points: vec![(16, 0.5)],
            },
            data: MissRatioCurve {
                label: "p".to_owned(),
                metric: SweepMetric::Data,
                points: vec![(16, 0.5)],
            },
            unified: MissRatioCurve {
                label: "p".to_owned(),
                metric: SweepMetric::Unified,
                points: vec![(16, 0.5)],
            },
        };
        let good = sweep_result_to_value(&result).encode();
        let bad = good.replace("[16,0.5]", "[16]");
        assert!(sweep_result_from_value(&crate::json::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn decode_rejects_unknown_variant() {
        let v = crate::json::parse(
            &profile_to_value(&sample_profile())
                .encode()
                .replace("\"Hadoop\"", "\"Fortran\""),
        )
        .unwrap();
        assert!(profile_from_value(&v).is_err());
    }
}
