//! The Hadoop-like MapReduce engine.
//!
//! A deliberately *deep* stack: per record, execution passes through the
//! input format, record reader, deserializers, the map runner, the output
//! collector, partitioner, and serializers; periodically through progress
//! reporting, logging, heartbeats, and GC scans; per spill through a real
//! traced sort (optionally a combiner) and the spill writer; and on the
//! reduce side through shuffle fetch, merge, grouping, the reduce runner,
//! and the output writer. Each of those routines owns kilobytes of code
//! region with a wide invocation spread, which is how the engine
//! accumulates the ~1 MiB instruction footprint the paper measures for
//! Hadoop workloads (Figure 6) — while the *work* (sorting, grouping,
//! copying, user map/reduce) is real computation on real records.

use crate::record::{trace_copy, trace_scan, trace_stream, Record, RecordBuffer};
use crate::runtime::{Routine, RunStats};
use crate::sort::{group_runs, traced_sort_by_key};
use bdb_node::Phase;
use bdb_trace::{CodeLayout, ExecCtx, MemRegion, OpMix};

/// Receives records emitted by mappers, combiners, and reducers.
#[derive(Debug, Default)]
pub struct Emitter {
    records: Vec<Record>,
}

impl Emitter {
    /// Creates an empty emitter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits one record.
    pub fn emit(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Number of records emitted so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Takes the emitted records, leaving the emitter empty.
    pub fn take(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.records)
    }
}

/// User map function.
pub trait Mapper {
    /// Maps one input record. `value_addr` is the simulated address of the
    /// record's bytes (for tracing data touches inside the mapper).
    fn map(&mut self, ctx: &mut ExecCtx<'_>, record: &Record, value_addr: u64, out: &mut Emitter);
}

/// User reduce (and combine) function.
pub trait Reducer {
    /// Reduces one key group. `addr` is the simulated address of the first
    /// grouped record.
    fn reduce(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        key: &[u8],
        values: &[Record],
        addr: u64,
        out: &mut Emitter,
    );
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapReduceConfig {
    /// Number of reduce partitions.
    pub reduces: usize,
    /// Input records per map task (split size).
    pub split_records: usize,
    /// Collector records per spill.
    pub spill_records: usize,
    /// Records between framework service ticks (progress, counters).
    pub service_interval: usize,
    /// Whether to run the combiner before spilling.
    pub use_combiner: bool,
}

impl Default for MapReduceConfig {
    fn default() -> Self {
        Self {
            reduces: 4,
            split_records: 512,
            spill_records: 256,
            service_interval: 48,
            use_combiner: false,
        }
    }
}

/// The registered routine set of the Hadoop-like stack.
///
/// Region sizes and spreads are the reproduction's model of the Hadoop +
/// JVM code base (~1.2 MiB of hot framework text).
#[derive(Debug, Clone)]
pub struct HadoopStack {
    mix: OpMix,
    /// JVM runtime service farm (class lookup, codecs, NIO buffers, CRC,
    /// reflection glue…) touched on every record path — the bulk of the
    /// Hadoop instruction footprint.
    jvm: Vec<Routine>,
    // one-time
    job_setup: Routine,
    task_setup: Routine,
    // per-record, map side
    input_format: Routine,
    record_reader: Routine,
    deserialize: Routine,
    map_runner: Routine,
    collector: Routine,
    partitioner: Routine,
    serializer: Routine,
    // periodic services
    progress: Routine,
    gc_minor: Routine,
    logging: Routine,
    heartbeat: Routine,
    // spill
    sort: Routine,
    combine_runner: Routine,
    spill_writer: Routine,
    // reduce side
    shuffle_fetch: Routine,
    merge: Routine,
    grouping: Routine,
    reduce_runner: Routine,
    output_writer: Routine,
}

impl HadoopStack {
    /// Registers all framework routines in `layout`.
    pub fn register(layout: &mut CodeLayout) -> Self {
        let r = |layout: &mut CodeLayout, name: &str, kib: u64, units: u32, spread: u64| {
            Routine::register(layout, format!("hadoop::{name}"), kib * 1024, units, spread)
        };
        Self {
            mix: OpMix::framework(),
            jvm: (0..10)
                .map(|i| {
                    Routine::register(layout, format!("hadoop::jvm_svc_{i}"), 56 * 1024, 8, 100)
                })
                .collect(),
            job_setup: r(layout, "job_setup", 96, 2500, 100),
            task_setup: r(layout, "task_setup", 64, 900, 100),
            input_format: r(layout, "input_format", 24, 8, 95),
            record_reader: r(layout, "record_reader", 40, 20, 95),
            deserialize: r(layout, "deserialize", 32, 14, 95),
            map_runner: r(layout, "map_runner", 24, 10, 95),
            collector: r(layout, "output_collector", 32, 12, 95),
            partitioner: r(layout, "partitioner", 8, 5, 80),
            serializer: r(layout, "serializer", 32, 12, 95),
            progress: r(layout, "progress_report", 40, 45, 100),
            gc_minor: r(layout, "gc_minor", 96, 130, 100),
            logging: r(layout, "logging", 64, 35, 100),
            heartbeat: r(layout, "rpc_heartbeat", 64, 60, 100),
            sort: r(layout, "spill_sort", 24, 30, 70),
            combine_runner: r(layout, "combine_runner", 24, 9, 80),
            spill_writer: r(layout, "spill_writer", 40, 14, 95),
            shuffle_fetch: r(layout, "shuffle_fetch", 48, 25, 95),
            merge: r(layout, "merge_manager", 48, 25, 90),
            grouping: r(layout, "grouping_iterator", 16, 8, 80),
            reduce_runner: r(layout, "reduce_runner", 24, 8, 80),
            output_writer: r(layout, "output_writer", 40, 16, 95),
        }
    }

    /// Region usable as a driver's root frame.
    pub fn root_region(&self) -> bdb_trace::RegionId {
        self.map_runner.region
    }
}

/// Output of a MapReduce job.
#[derive(Debug)]
pub struct JobOutput {
    /// Final output records (concatenated across reduce partitions, in
    /// partition order; each partition is key-sorted).
    pub records: Vec<Record>,
    /// Resource accounting.
    pub stats: RunStats,
}

/// The MapReduce engine bound to a registered stack.
#[derive(Debug)]
pub struct MapReduce<'s> {
    stack: &'s HadoopStack,
    config: MapReduceConfig,
}

impl<'s> MapReduce<'s> {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if `reduces == 0` or `split_records == 0`.
    pub fn new(stack: &'s HadoopStack, config: MapReduceConfig) -> Self {
        assert!(config.reduces > 0, "need at least one reduce partition");
        assert!(config.split_records > 0, "split must hold records");
        Self { stack, config }
    }

    /// Runs a map-only job (no sort, shuffle, or reduce) — what Hive plans
    /// for pure SELECT/filter/projection queries. The mapper's emissions
    /// become the job output directly.
    pub fn run_map_only(
        &self,
        ctx: &mut ExecCtx<'_>,
        input: &[Record],
        mapper: &mut dyn Mapper,
    ) -> JobOutput {
        let s = self.stack;
        let scratch = ctx.scratch_alloc(64 * 1024, 64);
        let input_bytes = crate::record::total_bytes(input);
        let input_region = ctx.heap_alloc(input_bytes.clamp(4096, 16 << 20), 64);
        let mut input_buf = RecordBuffer::new(input_region);
        let input_addrs: Vec<u64> = input
            .iter()
            .map(|r| input_buf.push(r.byte_size()))
            .collect();
        let mut stats = RunStats {
            input_bytes,
            ..Default::default()
        };
        ctx.frame(s.job_setup.region, |ctx| {
            ctx.boilerplate(&s.mix, u64::from(s.job_setup.units), &scratch);
        });
        let map_start_ops = ctx.ops_retired();
        let mut output = Vec::new();
        let mut output_bytes = 0u64;
        let mut emitter = Emitter::new();
        for (task_id, split) in input.chunks(self.config.split_records).enumerate() {
            let split_addrs = &input_addrs[task_id * self.config.split_records..][..split.len()];
            s.task_setup.run(ctx, &s.mix, &scratch);
            for (i, (record, &addr)) in split.iter().zip(split_addrs).enumerate() {
                self.map_one(ctx, &scratch, record, addr, mapper, &mut emitter);
                for out in emitter.take() {
                    let len = out.byte_size();
                    output_bytes += len;
                    s.output_writer.enter(ctx, &s.mix, &scratch, |ctx| {
                        trace_copy(ctx, addr, scratch.base(), len.min(scratch.len()));
                    });
                    output.push(out);
                }
                if (i + 1) % self.config.service_interval == 0 {
                    s.progress.run(ctx, &s.mix, &scratch);
                    if (i + 1) % (self.config.service_interval * 4) == 0 {
                        s.gc_minor.run(ctx, &s.mix, &scratch);
                    }
                }
            }
        }
        stats.output_bytes = output_bytes;
        stats.phases.push(Phase {
            name: "map_only".into(),
            instructions: ctx.ops_retired() - map_start_ops,
            disk_read_bytes: input_bytes,
            disk_write_bytes: output_bytes,
            net_bytes: 0,
            io_parallelism: 4.0,
        });
        JobOutput {
            records: output,
            stats,
        }
    }

    /// Runs a full job.
    ///
    /// `combiner` is only consulted when the config enables it.
    pub fn run(
        &self,
        ctx: &mut ExecCtx<'_>,
        input: &[Record],
        mapper: &mut dyn Mapper,
        mut combiner: Option<&mut dyn Reducer>,
        reducer: &mut dyn Reducer,
    ) -> JobOutput {
        let s = self.stack;
        let scratch = ctx.scratch_alloc(64 * 1024, 64);
        let input_bytes = crate::record::total_bytes(input);
        // Simulated placement of input, map-output, and reduce-side buffers.
        let input_region = ctx.heap_alloc(input_bytes.clamp(4096, 16 << 20), 64);
        let mut input_buf = RecordBuffer::new(input_region);
        let input_addrs: Vec<u64> = input
            .iter()
            .map(|r| input_buf.push(r.byte_size()))
            .collect();
        let spill_region = ctx.heap_alloc(1 << 20, 64);
        let reduce_region = ctx.heap_alloc(2 << 20, 64);

        let mut stats = RunStats {
            input_bytes,
            ..Default::default()
        };

        ctx.frame(s.job_setup.region, |ctx| {
            ctx.boilerplate(&s.mix, u64::from(s.job_setup.units), &scratch);
        });

        // ---- map phase -------------------------------------------------
        let map_start_ops = ctx.ops_retired();
        let mut partitions: Vec<Vec<(Record, u64)>> = vec![Vec::new(); self.config.reduces];
        let mut intermediate_bytes = 0u64;
        for (task_id, split) in input.chunks(self.config.split_records).enumerate() {
            let split_addrs = &input_addrs[task_id * self.config.split_records..][..split.len()];
            s.task_setup.run(ctx, &s.mix, &scratch);
            let mut spill_buf = RecordBuffer::new(spill_region);
            let mut collected: Vec<Record> = Vec::new();
            let mut collected_addrs: Vec<u64> = Vec::new();
            let mut emitter = Emitter::new();
            for (i, (record, &addr)) in split.iter().zip(split_addrs).enumerate() {
                self.map_one(ctx, &scratch, record, addr, mapper, &mut emitter);
                for out in emitter.take() {
                    let len = out.byte_size();
                    s.partitioner.enter(ctx, &s.mix, &scratch, |ctx| {
                        trace_scan(ctx, addr, out.key.len() as u64);
                        ctx.int_other(3);
                    });
                    let dst = spill_buf.push(len.max(1));
                    s.serializer.enter(ctx, &s.mix, &scratch, |ctx| {
                        trace_copy(ctx, addr, dst, len);
                    });
                    collected.push(out);
                    collected_addrs.push(dst);
                }
                if (i + 1) % self.config.service_interval == 0 {
                    s.progress.run(ctx, &s.mix, &scratch);
                    if (i + 1) % (self.config.service_interval * 4) == 0 {
                        s.gc_minor.enter(ctx, &s.mix, &scratch, |ctx| {
                            trace_scan(ctx, spill_region.base(), 2048);
                        });
                        s.logging.run(ctx, &s.mix, &scratch);
                    }
                    if (i + 1) % (self.config.service_interval * 8) == 0 {
                        s.heartbeat.run(ctx, &s.mix, &scratch);
                    }
                }
                if collected.len() >= self.config.spill_records {
                    intermediate_bytes += self.spill(
                        ctx,
                        &scratch,
                        &mut collected,
                        &mut collected_addrs,
                        &mut combiner,
                        &mut partitions,
                    );
                    spill_buf.clear();
                }
            }
            if !collected.is_empty() {
                intermediate_bytes += self.spill(
                    ctx,
                    &scratch,
                    &mut collected,
                    &mut collected_addrs,
                    &mut combiner,
                    &mut partitions,
                );
            }
        }
        stats.intermediate_bytes = intermediate_bytes;
        stats.phases.push(Phase {
            name: "map".into(),
            instructions: ctx.ops_retired() - map_start_ops,
            disk_read_bytes: input_bytes,
            disk_write_bytes: intermediate_bytes,
            net_bytes: 0,
            io_parallelism: 4.0,
        });

        // ---- shuffle ---------------------------------------------------
        let shuffle_start_ops = ctx.ops_retired();
        let remote_fraction =
            (self.config.reduces.saturating_sub(1)) as f64 / self.config.reduces as f64;
        let net_bytes = (intermediate_bytes as f64 * remote_fraction) as u64;
        let mut reduce_inputs: Vec<(Vec<Record>, Vec<u64>)> = Vec::new();
        for part in partitions {
            let mut fetch_buf = RecordBuffer::new(reduce_region);
            let mut records = Vec::with_capacity(part.len());
            let mut addrs = Vec::with_capacity(part.len());
            s.shuffle_fetch.enter(ctx, &s.mix, &scratch, |ctx| {
                for (rec, src) in part {
                    let len = rec.byte_size();
                    let dst = fetch_buf.push(len.max(1));
                    trace_copy(ctx, src, dst, len);
                    records.push(rec);
                    addrs.push(dst);
                }
            });
            reduce_inputs.push((records, addrs));
        }
        stats.phases.push(Phase {
            name: "shuffle".into(),
            instructions: ctx.ops_retired() - shuffle_start_ops,
            disk_read_bytes: intermediate_bytes,
            disk_write_bytes: 0,
            net_bytes,
            io_parallelism: 8.0,
        });

        // ---- reduce phase ----------------------------------------------
        let reduce_start_ops = ctx.ops_retired();
        let mut output = Vec::new();
        let mut output_bytes = 0u64;
        let mut emitter = Emitter::new();
        for (mut records, mut addrs) in reduce_inputs {
            s.merge.enter(ctx, &s.mix, &scratch, |ctx| {
                ctx.frame(s.sort.region, |ctx| {
                    traced_sort_by_key(ctx, &mut records, &mut addrs);
                });
            });
            for (lo, hi) in group_runs(&records) {
                s.grouping.run(ctx, &s.mix, &scratch);
                let key = records[lo].key.clone();
                s.reduce_runner.enter(ctx, &s.mix, &scratch, |ctx| {
                    reducer.reduce(ctx, &key, &records[lo..hi], addrs[lo], &mut emitter);
                });
                for out in emitter.take() {
                    let len = out.byte_size();
                    output_bytes += len;
                    s.output_writer.enter(ctx, &s.mix, &scratch, |ctx| {
                        trace_copy(ctx, addrs[lo], reduce_region.base(), len);
                    });
                    output.push(out);
                }
            }
        }
        stats.output_bytes = output_bytes;
        stats.phases.push(Phase {
            name: "reduce".into(),
            instructions: ctx.ops_retired() - reduce_start_ops,
            disk_read_bytes: 0,
            disk_write_bytes: output_bytes,
            net_bytes: 0,
            io_parallelism: 2.0,
        });

        JobOutput {
            records: output,
            stats,
        }
    }

    fn map_one(
        &self,
        ctx: &mut ExecCtx<'_>,
        scratch: &MemRegion,
        record: &Record,
        addr: u64,
        mapper: &mut dyn Mapper,
        emitter: &mut Emitter,
    ) {
        let s = self.stack;
        // Two JVM runtime services per record (rotating through the farm).
        let salt = (ctx.ops_retired() / 97) as usize;
        s.jvm[salt % s.jvm.len()].run(ctx, &s.mix, scratch);
        s.jvm[(salt + 3) % s.jvm.len()].run(ctx, &s.mix, scratch);
        s.input_format.run(ctx, &s.mix, scratch);
        s.record_reader.enter(ctx, &s.mix, scratch, |ctx| {
            trace_stream(ctx, addr, record.byte_size(), 16);
        });
        s.deserialize.enter(ctx, &s.mix, scratch, |ctx| {
            trace_copy(
                ctx,
                addr,
                scratch.base(),
                record.byte_size().min(scratch.len()),
            );
        });
        s.map_runner.enter(ctx, &s.mix, scratch, |ctx| {
            mapper.map(ctx, record, addr, emitter);
        });
        if !emitter.is_empty() {
            s.collector.run(ctx, &s.mix, scratch);
        }
    }

    /// Sorts, optionally combines, and spills the collected map output.
    /// Returns the bytes spilled.
    fn spill(
        &self,
        ctx: &mut ExecCtx<'_>,
        scratch: &MemRegion,
        collected: &mut Vec<Record>,
        collected_addrs: &mut Vec<u64>,
        combiner: &mut Option<&mut dyn Reducer>,
        partitions: &mut [Vec<(Record, u64)>],
    ) -> u64 {
        let s = self.stack;
        ctx.frame(s.sort.region, |ctx| {
            traced_sort_by_key(ctx, collected, collected_addrs);
        });
        let mut to_spill: Vec<(Record, u64)> = Vec::new();
        if let Some(combiner) = combiner.as_mut() {
            let mut emitter = Emitter::new();
            for (lo, hi) in group_runs(collected) {
                let key = collected[lo].key.clone();
                s.combine_runner.enter(ctx, &s.mix, scratch, |ctx| {
                    combiner.reduce(
                        ctx,
                        &key,
                        &collected[lo..hi],
                        collected_addrs[lo],
                        &mut emitter,
                    );
                });
                for rec in emitter.take() {
                    to_spill.push((rec, collected_addrs[lo]));
                }
            }
        } else {
            to_spill = collected.drain(..).zip(collected_addrs.drain(..)).collect();
        }
        collected.clear();
        collected_addrs.clear();
        let mut bytes = 0u64;
        for (rec, addr) in to_spill {
            let len = rec.byte_size();
            bytes += len;
            s.spill_writer.enter(ctx, &s.mix, scratch, |ctx| {
                trace_copy(ctx, addr, scratch.base(), len.min(scratch.len()));
            });
            let p = partition_of(&rec.key, partitions.len());
            partitions[p].push((rec, addr));
        }
        bytes
    }
}

/// The engine's hash partitioner (deterministic FNV-1a over the key).
pub fn partition_of(key: &[u8], partitions: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % partitions as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_trace::MixSink;

    /// WordCount-style mapper/reducer used to exercise the engine.
    struct SplitMapper;
    impl Mapper for SplitMapper {
        fn map(&mut self, ctx: &mut ExecCtx<'_>, record: &Record, addr: u64, out: &mut Emitter) {
            // Split the value on spaces; real work, traced coarsely.
            trace_scan(ctx, addr, record.byte_size());
            for word in record.value.split(|&b| b == b' ') {
                if !word.is_empty() {
                    out.emit(Record::new(word.to_vec(), 1u64.to_be_bytes().to_vec()));
                }
            }
        }
    }

    struct SumReducer;
    impl Reducer for SumReducer {
        fn reduce(
            &mut self,
            ctx: &mut ExecCtx<'_>,
            key: &[u8],
            values: &[Record],
            addr: u64,
            out: &mut Emitter,
        ) {
            let mut sum = 0u64;
            for v in values {
                ctx.read(addr, 8);
                ctx.int_other(1);
                sum += u64::from_be_bytes(v.value[..8].try_into().expect("8-byte counts"));
            }
            out.emit(Record::new(key.to_vec(), sum.to_be_bytes().to_vec()));
        }
    }

    fn sample_input() -> Vec<Record> {
        vec![
            Record::new(b"1".to_vec(), b"the quick brown fox".to_vec()),
            Record::new(b"2".to_vec(), b"the lazy dog".to_vec()),
            Record::new(b"3".to_vec(), b"the quick dog".to_vec()),
        ]
    }

    fn run_job(use_combiner: bool) -> (JobOutput, bdb_trace::InstructionMix) {
        let mut layout = CodeLayout::new();
        let stack = HadoopStack::register(&mut layout);
        let mut sink = MixSink::new();
        let mut ctx = ExecCtx::new(&layout, &mut sink);
        let engine = MapReduce::new(
            &stack,
            MapReduceConfig {
                reduces: 2,
                use_combiner,
                ..Default::default()
            },
        );
        let mut mapper = SplitMapper;
        let mut reducer = SumReducer;
        let mut combiner = SumReducer;
        let out = engine.run(
            &mut ctx,
            &sample_input(),
            &mut mapper,
            if use_combiner {
                Some(&mut combiner)
            } else {
                None
            },
            &mut reducer,
        );
        (out, sink.mix())
    }

    fn counts(out: &JobOutput) -> std::collections::HashMap<Vec<u8>, u64> {
        out.records
            .iter()
            .map(|r| {
                (
                    r.key.clone(),
                    u64::from_be_bytes(r.value[..8].try_into().expect("8 bytes")),
                )
            })
            .collect()
    }

    #[test]
    fn wordcount_produces_correct_counts() {
        let (out, _) = run_job(false);
        let c = counts(&out);
        assert_eq!(c[&b"the".to_vec()], 3);
        assert_eq!(c[&b"quick".to_vec()], 2);
        assert_eq!(c[&b"dog".to_vec()], 2);
        assert_eq!(c[&b"fox".to_vec()], 1);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn combiner_does_not_change_results() {
        let (plain, _) = run_job(false);
        let (combined, _) = run_job(true);
        assert_eq!(counts(&plain), counts(&combined));
    }

    #[test]
    fn combiner_reduces_intermediate_bytes() {
        let (plain, _) = run_job(false);
        let (combined, _) = run_job(true);
        assert!(combined.stats.intermediate_bytes <= plain.stats.intermediate_bytes);
    }

    #[test]
    fn stats_have_three_phases_and_real_bytes() {
        let (out, _) = run_job(false);
        assert_eq!(out.stats.phases.len(), 3);
        assert!(out.stats.input_bytes > 0);
        assert!(out.stats.intermediate_bytes > 0);
        assert!(out.stats.output_bytes > 0);
        assert!(out.stats.phases.iter().all(|p| p.instructions > 0));
    }

    #[test]
    fn framework_dominates_instruction_stream() {
        // The deep-stack property: most dynamic instructions come from the
        // framework, not the tiny user functions.
        let (_, mix) = run_job(false);
        // 3 records of ~15 bytes each: a thin stack would emit a few
        // hundred ops; the deep stack emits thousands.
        assert!(
            mix.total() > 4_000,
            "deep stack should emit plenty of ops: {}",
            mix.total()
        );
        assert!(mix.branches > 0 && mix.loads > 0 && mix.stores > 0);
    }

    #[test]
    fn output_is_sorted_within_partitions() {
        let (out, _) = run_job(false);
        // Each partition's records are key-sorted; verify global grouping.
        let mut seen = std::collections::HashSet::new();
        for r in &out.records {
            assert!(
                seen.insert(r.key.clone()),
                "duplicate key in output: {:?}",
                r.key
            );
        }
    }

    #[test]
    fn partition_of_is_stable_and_in_range() {
        for key in [b"a".as_slice(), b"hello", b"", b"zzz"] {
            let p = partition_of(key, 7);
            assert!(p < 7);
            assert_eq!(p, partition_of(key, 7));
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let mut layout = CodeLayout::new();
        let stack = HadoopStack::register(&mut layout);
        let mut sink = MixSink::new();
        let mut ctx = ExecCtx::new(&layout, &mut sink);
        let engine = MapReduce::new(&stack, MapReduceConfig::default());
        let out = engine.run(&mut ctx, &[], &mut SplitMapper, None, &mut SumReducer);
        assert!(out.records.is_empty());
        assert_eq!(out.stats.output_bytes, 0);
    }
}
