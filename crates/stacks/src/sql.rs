//! The relational engine behind the interactive-analytics workloads.
//!
//! One logical [`Plan`] (scan / filter / project / sort / aggregate / join /
//! set-difference / limit) executes on three backends, mirroring the
//! paper's workload matrix:
//!
//! * **Hive mode** — every plan node compiles to a MapReduce job on the
//!   Hadoop-like engine (rows serialized to byte records between jobs),
//! * **Shark mode** — plan nodes compile to dataflow stages on the
//!   Spark-like engine,
//! * **Impala mode** — plan nodes run as native operators over an
//!   [`ImpalaStack`] with small, hot code regions (the C++-engine analog).
//!
//! The three backends return identical result tables (tested), so the
//! micro-architectural differences between H-/S-/I- query workloads come
//! purely from the stacks — the paper's central point.

use crate::dataflow::{Dataflow, DataflowConfig, SparkStack};
use crate::mapreduce::{Emitter, HadoopStack, MapReduce, MapReduceConfig, Mapper, Reducer};
use crate::record::{trace_scan, Record};
use crate::runtime::{Routine, RunStats};
use crate::sort::group_runs;
use bdb_datagen::{Field, Row, Table};
use bdb_node::Phase;
use bdb_trace::{CodeLayout, ExecCtx, MemRegion, OpMix};
use std::collections::HashMap;

/// Predicate over one column.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `col == v` for integer columns.
    I64Eq(usize, i64),
    /// `lo <= col < hi` for integer columns.
    I64Between(usize, i64, i64),
    /// `col == s` for string columns.
    StrEq(usize, String),
    /// `col > v` for float columns.
    F64Gt(usize, f64),
}

impl Pred {
    /// Evaluates the predicate on `row`, narrating the field load and
    /// comparison at `addr`.
    pub fn eval(&self, ctx: &mut ExecCtx<'_>, row: &Row, addr: u64) -> bool {
        let result = match self {
            Pred::I64Eq(c, v) => {
                ctx.read(addr + *c as u64 * 16, 8);
                ctx.int_other(1);
                row[*c].as_i64() == Some(*v)
            }
            Pred::I64Between(c, lo, hi) => {
                ctx.read(addr + *c as u64 * 16, 8);
                ctx.int_other(2);
                row[*c]
                    .as_i64()
                    .map(|x| x >= *lo && x < *hi)
                    .unwrap_or(false)
            }
            Pred::StrEq(c, s) => {
                let col_addr = addr + *c as u64 * 16;
                trace_scan(ctx, col_addr, s.len().max(1) as u64);
                row[*c].as_str() == Some(s.as_str())
            }
            Pred::F64Gt(c, v) => {
                ctx.read_fp(addr + *c as u64 * 16, 8);
                ctx.fp_ops(1);
                row[*c].as_f64().map(|x| x > *v).unwrap_or(false)
            }
        };
        ctx.cond_branch(result);
        result
    }
}

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// `COUNT(*)`.
    CountStar,
    /// `SUM(col)` over a float column.
    SumF64(usize),
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan of input table `table` (index into the executor's table list).
    Scan {
        /// Table index.
        table: usize,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate.
        pred: Pred,
    },
    /// Keep only the given columns.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Columns to keep.
        cols: Vec<usize>,
    },
    /// Sort by one column.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort column.
        col: usize,
        /// Descending order.
        desc: bool,
    },
    /// First `n` rows.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Row budget.
        n: usize,
    },
    /// Group-by + aggregate. Output rows are `group_cols ++ [agg]`.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping columns.
        group: Vec<usize>,
        /// Aggregate function.
        agg: Agg,
    },
    /// Inner equi-join; output rows are `left_row ++ right_row`.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join column on the left.
        lcol: usize,
        /// Join column on the right.
        rcol: usize,
    },
    /// Set difference `left \ right` over whole rows.
    Difference {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
}

impl Plan {
    /// Scan of table `i`.
    pub fn scan(i: usize) -> Plan {
        Plan::Scan { table: i }
    }

    /// Adds a filter.
    pub fn filter(self, pred: Pred) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            pred,
        }
    }

    /// Adds a projection.
    pub fn project(self, cols: Vec<usize>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            cols,
        }
    }

    /// Adds a sort.
    pub fn sort(self, col: usize, desc: bool) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            col,
            desc,
        }
    }

    /// Adds a limit.
    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Adds a group-by aggregate.
    pub fn aggregate(self, group: Vec<usize>, agg: Agg) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group,
            agg,
        }
    }

    /// Joins with another plan.
    pub fn join(self, right: Plan, lcol: usize, rcol: usize) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            lcol,
            rcol,
        }
    }

    /// Set difference with another plan.
    pub fn difference(self, right: Plan) -> Plan {
        Plan::Difference {
            left: Box::new(self),
            right: Box::new(right),
        }
    }
}

// ---------------------------------------------------------------------------
// Row <-> record encoding (used by the Hive and Shark backends)
// ---------------------------------------------------------------------------

/// Encodes a row to bytes (tag byte + fixed/length-prefixed payload per
/// field). Integer fields use big-endian so byte order matches value order.
pub fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 9);
    for f in row {
        match f {
            Field::I64(v) => {
                out.push(0);
                // Offset so negative values order correctly as bytes.
                out.extend_from_slice(&(*v as u64 ^ (1 << 63)).to_be_bytes());
            }
            Field::F64(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Field::Str(s) => {
                out.push(2);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    out
}

/// Decodes a row from [`encode_row`] bytes.
///
/// # Panics
///
/// Panics on malformed input.
pub fn decode_row(mut bytes: &[u8]) -> Row {
    let mut row = Vec::new();
    while !bytes.is_empty() {
        match bytes[0] {
            0 => {
                // bdb-lint: allow(panic-hygiene): documented panic on malformed input.
                let v = u64::from_be_bytes(bytes[1..9].try_into().expect("i64 field"));
                row.push(Field::I64((v ^ (1 << 63)) as i64));
                bytes = &bytes[9..];
            }
            1 => {
                // bdb-lint: allow(panic-hygiene): documented panic on malformed input.
                let v = f64::from_be_bytes(bytes[1..9].try_into().expect("f64 field"));
                row.push(Field::F64(v));
                bytes = &bytes[9..];
            }
            2 => {
                // bdb-lint: allow(panic-hygiene): documented panic on malformed input.
                let len = u32::from_be_bytes(bytes[1..5].try_into().expect("str len")) as usize;
                // bdb-lint: allow(panic-hygiene): documented panic on malformed input.
                let s = std::str::from_utf8(&bytes[5..5 + len]).expect("utf8 field");
                row.push(Field::Str(s.to_owned()));
                bytes = &bytes[5 + len..];
            }
            // bdb-lint: allow(panic-hygiene): documented panic on malformed input.
            t => panic!("unknown field tag {t}"),
        }
    }
    row
}

/// Order-preserving key bytes for the given columns of a row.
pub fn key_of(row: &Row, cols: &[usize]) -> Vec<u8> {
    let projected: Row = cols.iter().map(|&c| row[c].clone()).collect();
    encode_row(&projected)
}

// ---------------------------------------------------------------------------
// Impala backend: native operators over a thin stack
// ---------------------------------------------------------------------------

/// The registered routine set of the Impala-like native engine (~300 KiB;
/// hot, tight operator loops).
#[derive(Debug, Clone)]
pub struct ImpalaStack {
    mix: OpMix,
    scanner: Routine,
    exprs: Routine,
    hash_join: Routine,
    agg: Routine,
    sorter: Routine,
    exchange: Routine,
}

impl ImpalaStack {
    /// Registers all engine routines in `layout`.
    pub fn register(layout: &mut CodeLayout) -> Self {
        let r = |layout: &mut CodeLayout, name: &str, kib: u64, units: u32, spread: u64| {
            Routine::register(layout, format!("impala::{name}"), kib * 1024, units, spread)
        };
        Self {
            mix: OpMix::integer_compute(),
            scanner: r(layout, "parquet_scanner", 64, 6, 15),
            exprs: r(layout, "expr_eval", 32, 3, 10),
            hash_join: r(layout, "hash_join", 48, 8, 15),
            agg: r(layout, "hash_agg", 48, 7, 15),
            sorter: r(layout, "sorter", 40, 10, 15),
            exchange: r(layout, "exchange", 32, 12, 20),
        }
    }

    /// Region for the query driver.
    pub fn root_region(&self) -> bdb_trace::RegionId {
        self.exchange.region
    }
}

/// Executes `plan` natively (Impala mode). Returns the result rows and the
/// run's accounting.
pub fn execute_impala(
    ctx: &mut ExecCtx<'_>,
    stack: &ImpalaStack,
    tables: &[&Table],
    plan: &Plan,
) -> (Vec<Row>, RunStats) {
    let scratch = ctx.scratch_alloc(32 * 1024, 64);
    let mut exec = ImpalaExec {
        stack,
        scratch,
        stats: RunStats::default(),
        region: None,
        ctx_tables: tables,
    };
    let ops0 = ctx.ops_retired();
    let rows = ctx.frame(stack.root_region(), |ctx| exec.run(ctx, plan));
    let out_bytes = rows_bytes(&rows);
    exec.stats.output_bytes = out_bytes;
    exec.stats.phases.push(Phase {
        name: "query".into(),
        instructions: ctx.ops_retired() - ops0,
        disk_read_bytes: exec.stats.input_bytes,
        disk_write_bytes: out_bytes,
        net_bytes: exec.stats.intermediate_bytes,
        io_parallelism: 6.0,
    });
    (rows, exec.stats)
}

fn rows_bytes(rows: &[Row]) -> u64 {
    rows.iter()
        .map(|r| r.iter().map(Field::byte_size).sum::<usize>() as u64)
        .sum()
}

struct ImpalaExec<'a> {
    stack: &'a ImpalaStack,
    scratch: MemRegion,
    stats: RunStats,
    region: Option<MemRegion>,
    ctx_tables: &'a [&'a Table],
}

impl ImpalaExec<'_> {
    fn data_region(&mut self, ctx: &mut ExecCtx<'_>) -> MemRegion {
        *self
            .region
            .get_or_insert_with(|| ctx.heap_alloc(8 << 20, 64))
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>, plan: &Plan) -> Vec<Row> {
        let s = self.stack;
        match plan {
            Plan::Scan { table } => {
                let t = self.ctx_tables[*table];
                let region = self.data_region(ctx);
                let arity = t.schema().arity().max(1) as u64;
                let mut out = Vec::with_capacity(t.len());
                // Columnar batch scan: per batch, decode overhead; per row,
                // one load per column plus tuple materialization.
                for (b, batch) in t.rows().chunks(64).enumerate() {
                    s.scanner.enter(ctx, &s.mix, &self.scratch, |ctx| {
                        ctx.boilerplate(&s.mix, 24, &self.scratch);
                        let top = ctx.loop_start();
                        for (j, row) in batch.iter().enumerate() {
                            let i = b * 64 + j;
                            let base = region.base() + (i as u64 * arity * 16) % region.len();
                            // Page decompression + dictionary decode: real
                            // column-store scanners spend ~1-2 instructions per
                            // byte before any predicate runs.
                            for col in 0..arity {
                                ctx.read(base + col * 16, 8);
                                ctx.int_other(4);
                                ctx.read(base + col * 16 + 8, 8);
                                ctx.int_other(4);
                            }
                            ctx.int_other(arity as u32 * 2);
                            ctx.store(base + 8, 8);
                            out.push(row.clone());
                            ctx.loop_back(top, j + 1 < batch.len());
                        }
                    });
                }
                // Columnar storage reads only the referenced columns;
                // charge half the row bytes as the pruning model.
                self.stats.input_bytes += t.byte_size() as u64 / 2;
                out
            }
            Plan::Filter { input, pred } => {
                let rows = self.run(ctx, input);
                let region = self.data_region(ctx);
                let mut out = Vec::new();
                s.exprs.enter(ctx, &s.mix, &self.scratch, |ctx| {
                    let top = ctx.loop_start();
                    for (i, row) in rows.iter().enumerate() {
                        let addr = region.base() + (i as u64 * 128) % region.len();
                        if pred.eval(ctx, row, addr) {
                            out.push(row.clone());
                        }
                        ctx.loop_back(top, i + 1 < rows.len());
                    }
                });
                out
            }
            Plan::Project { input, cols } => {
                let rows = self.run(ctx, input);
                let region = self.data_region(ctx);
                s.exprs.enter(ctx, &s.mix, &self.scratch, |ctx| {
                    let top = ctx.loop_start();
                    for i in 0..rows.len().max(1) {
                        ctx.read(region.base() + (i as u64 * 64) % region.len(), 8);
                        ctx.store(region.base() + (i as u64 * 64 + 32) % region.len(), 8);
                        ctx.loop_back(top, i + 1 < rows.len().max(1));
                    }
                });
                rows.into_iter()
                    .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                    .collect()
            }
            Plan::Sort { input, col, desc } => {
                let mut rows = self.run(ctx, input);
                let region = self.data_region(ctx);
                let n = rows.len().max(2) as u64;
                s.sorter.enter(ctx, &s.mix, &self.scratch, |ctx| {
                    // n log n traced comparisons, each with tuple move.
                    let comparisons = n * n.ilog2() as u64;
                    let top = ctx.loop_start();
                    for c in 0..comparisons {
                        ctx.read(region.base() + (c * 64) % region.len(), 8);
                        ctx.read(region.base() + (c * 64 + 8) % region.len(), 8);
                        ctx.int_other(10);
                        ctx.cond_branch(c % 3 != 0);
                        // Move the winning tuple (three words).
                        for w in 0..3u64 {
                            ctx.read(region.base() + (c * 80 + w * 8) % region.len(), 8);
                            ctx.store(region.base() + (c * 80 + w * 8 + 40) % region.len(), 8);
                        }
                        ctx.int_other(6);
                        ctx.loop_back(top, c + 1 < comparisons);
                    }
                });
                rows.sort_by(|a, b| {
                    let ord = cmp_field(&a[*col], &b[*col]);
                    if *desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                rows
            }
            Plan::Limit { input, n } => {
                let mut rows = self.run(ctx, input);
                rows.truncate(*n);
                rows
            }
            Plan::Aggregate { input, group, agg } => {
                let rows = self.run(ctx, input);
                let region = self.data_region(ctx);
                let mut out_rows = Vec::new();
                s.agg.enter(ctx, &s.mix, &self.scratch, |ctx| {
                    // bdb-lint: allow(nondeterminism-reachability): drained below via sorted key list
                    let mut groups: HashMap<Vec<u8>, (Row, f64, u64)> = HashMap::new();
                    let top = ctx.loop_start();
                    for (i, row) in rows.iter().enumerate() {
                        let addr = region.base() + (i as u64 * 96) % region.len();
                        ctx.read(addr, 8);
                        ctx.int_other(3);
                        let key = key_of(row, group);
                        let entry = groups.entry(key).or_insert_with(|| {
                            (group.iter().map(|&c| row[c].clone()).collect(), 0.0, 0)
                        });
                        match agg {
                            Agg::CountStar => entry.2 += 1,
                            Agg::SumF64(c) => {
                                ctx.read_fp(addr + 8, 8);
                                ctx.fp_ops(1);
                                entry.1 += row[*c].as_f64().unwrap_or(0.0);
                            }
                        }
                        ctx.loop_back(top, i + 1 < rows.len());
                    }
                    let mut keys: Vec<Vec<u8>> = groups.keys().cloned().collect();
                    keys.sort();
                    for k in keys {
                        // bdb-lint: allow(panic-hygiene): k was drawn from groups.keys().
                        let (mut row, sum, count) = groups.remove(&k).expect("key present");
                        match agg {
                            Agg::CountStar => row.push(Field::I64(count as i64)),
                            Agg::SumF64(_) => row.push(Field::F64(sum)),
                        }
                        out_rows.push(row);
                    }
                });
                out_rows
            }
            Plan::Join {
                left,
                right,
                lcol,
                rcol,
            } => {
                let lrows = self.run(ctx, left);
                let rrows = self.run(ctx, right);
                let region = self.data_region(ctx);
                let mut out = Vec::new();
                s.hash_join.enter(ctx, &s.mix, &self.scratch, |ctx| {
                    // bdb-lint: allow(nondeterminism-reachability): keyed probe only; output order follows the probe side
                    let mut table: HashMap<Vec<u8>, Vec<&Row>> = HashMap::new();
                    let build = ctx.loop_start();
                    for (i, row) in lrows.iter().enumerate() {
                        ctx.read(region.base() + (i as u64 * 48) % region.len(), 8);
                        ctx.int_other(2);
                        table.entry(key_of(row, &[*lcol])).or_default().push(row);
                        ctx.loop_back(build, i + 1 < lrows.len());
                    }
                    let probe_loop = ctx.loop_start();
                    for (i, row) in rrows.iter().enumerate() {
                        ctx.read(region.base() + (i as u64 * 48 + 16) % region.len(), 8);
                        ctx.int_other(2);
                        let probe = key_of(row, &[*rcol]);
                        let hit = table.contains_key(&probe);
                        ctx.cond_branch(hit);
                        if let Some(matches) = table.get(&probe) {
                            for m in matches {
                                let mut joined: Row = (*m).clone();
                                joined.extend(row.iter().cloned());
                                out.push(joined);
                            }
                        }
                        ctx.loop_back(probe_loop, i + 1 < rrows.len());
                    }
                });
                self.stats.intermediate_bytes += rows_bytes(&out);
                out
            }
            Plan::Difference { left, right } => {
                let lrows = self.run(ctx, left);
                let rrows = self.run(ctx, right);
                let region = self.data_region(ctx);
                let mut out = Vec::new();
                s.hash_join.enter(ctx, &s.mix, &self.scratch, |ctx| {
                    // bdb-lint: allow(nondeterminism-reachability): membership checks only, never iterated
                    let mut seen: HashMap<Vec<u8>, ()> = HashMap::new();
                    let build = ctx.loop_start();
                    for (i, row) in rrows.iter().enumerate() {
                        ctx.read(region.base() + (i as u64 * 48) % region.len(), 8);
                        seen.insert(encode_row(row), ());
                        ctx.loop_back(build, i + 1 < rrows.len());
                    }
                    let probe = ctx.loop_start();
                    for (i, row) in lrows.iter().enumerate() {
                        ctx.read(region.base() + (i as u64 * 48 + 24) % region.len(), 8);
                        // Set semantics: emit each surviving row once.
                        let keep = seen.insert(encode_row(row), ()).is_none();
                        ctx.cond_branch(keep);
                        if keep {
                            out.push(row.clone());
                        }
                        ctx.loop_back(probe, i + 1 < lrows.len());
                    }
                });
                out
            }
        }
    }
}

fn cmp_field(a: &Field, b: &Field) -> std::cmp::Ordering {
    match (a, b) {
        (Field::I64(x), Field::I64(y)) => x.cmp(y),
        (Field::F64(x), Field::F64(y)) => x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal),
        (Field::Str(x), Field::Str(y)) => x.cmp(y),
        _ => std::cmp::Ordering::Equal,
    }
}

// ---------------------------------------------------------------------------
// Hive backend: plan nodes compile to MapReduce jobs
// ---------------------------------------------------------------------------

/// Executes `plan` by compiling each node to a MapReduce job on the
/// Hadoop-like engine (Hive mode).
pub fn execute_hive(
    ctx: &mut ExecCtx<'_>,
    stack: &HadoopStack,
    tables: &[&Table],
    plan: &Plan,
) -> (Vec<Row>, RunStats) {
    let engine = MapReduce::new(
        stack,
        MapReduceConfig {
            reduces: 4,
            ..Default::default()
        },
    );
    let mut stats = RunStats::default();
    let root = stack.root_region();
    let rows = ctx.frame(root, |ctx| {
        let scan_engine = MapReduce::new(
            stack,
            MapReduceConfig {
                reduces: 1,
                ..Default::default()
            },
        );
        let mut scan_stage = |ctx: &mut ExecCtx<'_>, stats: &mut RunStats, records: &[Record]| {
            struct IdentityMapper;
            impl Mapper for IdentityMapper {
                fn map(
                    &mut self,
                    ctx: &mut ExecCtx<'_>,
                    record: &Record,
                    addr: u64,
                    out: &mut Emitter,
                ) {
                    trace_scan(ctx, addr, record.byte_size().clamp(1, 256));
                    out.emit(record.clone());
                }
            }
            let out = scan_engine.run_map_only(ctx, records, &mut IdentityMapper);
            stats.merge(out.stats);
            out.records
        };
        run_staged(
            ctx,
            &mut stats,
            tables,
            plan,
            &mut scan_stage,
            &mut |ctx, stats, records, key_cols| {
                // One MR job: map re-keys records, reduce passes groups through.
                // An empty `key_cols` means the records arrive pre-keyed.
                struct KeyMapper {
                    key_cols: Vec<usize>,
                }
                impl Mapper for KeyMapper {
                    fn map(
                        &mut self,
                        ctx: &mut ExecCtx<'_>,
                        record: &Record,
                        addr: u64,
                        out: &mut Emitter,
                    ) {
                        trace_scan(ctx, addr, record.key.len().max(1) as u64);
                        if self.key_cols.is_empty() {
                            out.emit(record.clone());
                            return;
                        }
                        let row = decode_row(&record.value);
                        out.emit(Record::new(
                            key_of(&row, &self.key_cols),
                            record.value.clone(),
                        ));
                    }
                }
                struct PassReducer;
                impl Reducer for PassReducer {
                    fn reduce(
                        &mut self,
                        ctx: &mut ExecCtx<'_>,
                        key: &[u8],
                        values: &[Record],
                        addr: u64,
                        out: &mut Emitter,
                    ) {
                        ctx.read(addr, 8);
                        for v in values {
                            out.emit(Record::new(key.to_vec(), v.value.clone()));
                        }
                    }
                }
                let mut mapper = KeyMapper {
                    key_cols: key_cols.to_vec(),
                };
                let mut reducer = PassReducer;
                let out = engine.run(ctx, records, &mut mapper, None, &mut reducer);
                stats.merge(out.stats);
                out.records
            },
        )
    });
    finalize_staged(&mut stats, tables, plan, &rows);
    (rows, stats)
}

/// Executes `plan` by compiling each node to dataflow stages on the
/// Spark-like engine (Shark mode).
pub fn execute_shark(
    ctx: &mut ExecCtx<'_>,
    stack: &SparkStack,
    tables: &[&Table],
    plan: &Plan,
) -> (Vec<Row>, RunStats) {
    let root = stack.root_region();
    let (rows, df_stats) = ctx.frame(root, |ctx| {
        let df = std::cell::RefCell::new(Dataflow::new(stack, DataflowConfig::default(), ctx));
        let mut stats = RunStats::default();
        let rows = run_staged(
            ctx,
            &mut stats,
            tables,
            plan,
            &mut |ctx, stats, records| {
                let mut df = df.borrow_mut();
                let ds = df.read_input(ctx, records);
                let scanned = df.narrow(ctx, "scan", &ds, &mut |ctx, rec, addr, out| {
                    trace_scan(ctx, addr, rec.byte_size().clamp(1, 256));
                    out.emit(rec.clone());
                });
                let _ = stats;
                scanned
                    .parts
                    .iter()
                    .flat_map(|p| p.records.iter().cloned())
                    .collect()
            },
            &mut |ctx, stats, records, key_cols| {
                let mut df = df.borrow_mut();
                let key_cols = key_cols.to_vec();
                let ds = df.parallelize(ctx, records);
                let rekeyed = df.narrow(ctx, "rekey", &ds, &mut |ctx, rec, addr, out| {
                    trace_scan(ctx, addr, rec.key.len().max(1) as u64);
                    if key_cols.is_empty() {
                        out.emit(rec.clone());
                        return;
                    }
                    let row = decode_row(&rec.value);
                    out.emit(Record::new(key_of(&row, &key_cols), rec.value.clone()));
                });
                let grouped = df.group_by_key(ctx, &rekeyed);
                stats.merge(RunStats {
                    intermediate_bytes: grouped.byte_size(),
                    phases: Vec::new(),
                    ..Default::default()
                });
                grouped
                    .parts
                    .iter()
                    .flat_map(|p| p.records.iter().cloned())
                    .collect()
            },
        );
        stats.merge(df.into_inner().finish());
        (rows, stats)
    });
    let mut stats = df_stats;
    finalize_staged(&mut stats, tables, plan, &rows);
    (rows, stats)
}

fn finalize_staged(stats: &mut RunStats, tables: &[&Table], plan: &Plan, rows: &[Row]) {
    stats.input_bytes = plan_input_bytes(tables, plan);
    stats.output_bytes = rows_bytes(rows);
}

fn plan_input_bytes(tables: &[&Table], plan: &Plan) -> u64 {
    match plan {
        Plan::Scan { table } => tables[*table].byte_size() as u64,
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Aggregate { input, .. } => plan_input_bytes(tables, input),
        Plan::Join { left, right, .. } | Plan::Difference { left, right } => {
            plan_input_bytes(tables, left) + plan_input_bytes(tables, right)
        }
    }
}

/// Shared staged interpreter for the Hive and Shark backends: each
/// group/sort boundary invokes `shuffle_stage`, which runs the records
/// through the backend's engine keyed by the given columns and returns them
/// grouped/sorted by that key. Narrow work (filter/project) happens between
/// stages in driver code decoding the encoded rows.
/// Stage callback: run records through the backend engine (scan pass).
type ScanStage<'a> = dyn FnMut(&mut ExecCtx<'_>, &mut RunStats, &[Record]) -> Vec<Record> + 'a;
/// Stage callback: group/sort records by the given key columns.
type ShuffleStage<'a> =
    dyn FnMut(&mut ExecCtx<'_>, &mut RunStats, &[Record], &[usize]) -> Vec<Record> + 'a;

fn run_staged(
    ctx: &mut ExecCtx<'_>,
    stats: &mut RunStats,
    tables: &[&Table],
    plan: &Plan,
    scan_stage: &mut ScanStage<'_>,
    shuffle_stage: &mut ShuffleStage<'_>,
) -> Vec<Row> {
    match plan {
        Plan::Scan { table } => {
            // The table scan itself runs on the engine (Hive: a map-only
            // job; Shark: a narrow stage) so every query pays the stack's
            // per-record framework cost.
            let records: Vec<Record> = tables[*table]
                .rows()
                .iter()
                .map(|r| Record::new(Vec::new(), encode_row(r)))
                .collect();
            let scanned = scan_stage(ctx, stats, &records);
            scanned.iter().map(|r| decode_row(&r.value)).collect()
        }
        Plan::Filter { input, pred } => {
            let rows = run_staged(ctx, stats, tables, input, scan_stage, shuffle_stage);
            let mut out = Vec::new();
            let top = ctx.loop_start();
            for (i, row) in rows.iter().enumerate() {
                if pred.eval(ctx, row, 0x2000_0000 + (i as u64 * 128) % (4 << 20)) {
                    out.push(row.clone());
                }
                ctx.loop_back(top, i + 1 < rows.len());
            }
            out
        }
        Plan::Project { input, cols } => {
            run_staged(ctx, stats, tables, input, scan_stage, shuffle_stage)
                .into_iter()
                .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                .collect()
        }
        Plan::Limit { input, n } => {
            let mut rows = run_staged(ctx, stats, tables, input, scan_stage, shuffle_stage);
            rows.truncate(*n);
            rows
        }
        Plan::Sort { input, col, desc } => {
            let rows = run_staged(ctx, stats, tables, input, scan_stage, shuffle_stage);
            let records: Vec<Record> = rows
                .iter()
                .map(|r| Record::new(Vec::new(), encode_row(r)))
                .collect();
            let sorted = shuffle_stage(ctx, stats, &records, &[*col]);
            let mut out: Vec<Row> = sorted.iter().map(|r| decode_row(&r.value)).collect();
            // The engines key-sort ascending; honour desc and make the
            // global order exact (hash-partitioned engines group per key).
            out.sort_by(|a, b| {
                let ord = cmp_field(&a[*col], &b[*col]);
                if *desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
            out
        }
        Plan::Aggregate { input, group, agg } => {
            let rows = run_staged(ctx, stats, tables, input, scan_stage, shuffle_stage);
            let records: Vec<Record> = rows
                .iter()
                .map(|r| Record::new(Vec::new(), encode_row(r)))
                .collect();
            let grouped = shuffle_stage(ctx, stats, &records, group);
            // Records come back grouped by key; fold each run.
            let mut out = Vec::new();
            let recs: Vec<Record> = grouped;
            let mut sorted = recs;
            sorted.sort_by(|a, b| a.key.cmp(&b.key));
            for (lo, hi) in group_runs(&sorted) {
                let rows_in_group: Vec<Row> = sorted[lo..hi]
                    .iter()
                    .map(|r| decode_row(&r.value))
                    .collect();
                let mut row: Row = group.iter().map(|&c| rows_in_group[0][c].clone()).collect();
                match agg {
                    Agg::CountStar => row.push(Field::I64(rows_in_group.len() as i64)),
                    Agg::SumF64(c) => {
                        ctx.fp_ops(rows_in_group.len() as u32);
                        row.push(Field::F64(
                            rows_in_group
                                .iter()
                                .map(|r| r[*c].as_f64().unwrap_or(0.0))
                                .sum(),
                        ));
                    }
                }
                out.push(row);
            }
            out
        }
        Plan::Join {
            left,
            right,
            lcol,
            rcol,
        } => {
            let lrows = run_staged(ctx, stats, tables, left, scan_stage, shuffle_stage);
            let rrows = run_staged(ctx, stats, tables, right, scan_stage, shuffle_stage);
            // Tag records by side, shuffle both on the join key, then join
            // each group run.
            let mut tagged: Vec<Record> = Vec::with_capacity(lrows.len() + rrows.len());
            for r in &lrows {
                let mut v = vec![b'L'];
                v.extend(encode_row(r));
                tagged.push(Record::new(key_of(r, &[*lcol]), v));
            }
            for r in &rrows {
                let mut v = vec![b'R'];
                v.extend(encode_row(r));
                tagged.push(Record::new(key_of(r, &[*rcol]), v));
            }
            // Pre-key the records; key columns already encoded into key.
            let shuffled = shuffle_stage(ctx, stats, &tagged, &[]);
            let mut sorted = shuffled;
            sorted.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
            let mut out = Vec::new();
            for (lo, hi) in group_runs(&sorted) {
                let (lefts, rights): (Vec<_>, Vec<_>) =
                    sorted[lo..hi].iter().partition(|r| r.value[0] == b'L');
                for l in &lefts {
                    for r in &rights {
                        let mut joined = decode_row(&l.value[1..]);
                        joined.extend(decode_row(&r.value[1..]));
                        out.push(joined);
                    }
                }
            }
            out
        }
        Plan::Difference { left, right } => {
            let lrows = run_staged(ctx, stats, tables, left, scan_stage, shuffle_stage);
            let rrows = run_staged(ctx, stats, tables, right, scan_stage, shuffle_stage);
            let mut tagged: Vec<Record> = Vec::with_capacity(lrows.len() + rrows.len());
            for r in &lrows {
                tagged.push(Record::new(encode_row(r), vec![b'L']));
            }
            for r in &rrows {
                tagged.push(Record::new(encode_row(r), vec![b'R']));
            }
            let shuffled = shuffle_stage(ctx, stats, &tagged, &[]);
            let mut sorted = shuffled;
            sorted.sort_by(|a, b| a.key.cmp(&b.key));
            let mut out = Vec::new();
            for (lo, hi) in group_runs(&sorted) {
                let any_right = sorted[lo..hi].iter().any(|r| r.value == [b'R']);
                if !any_right {
                    // Distinct semantics: one output row per distinct value.
                    out.push(decode_row(&sorted[lo].key));
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_datagen::{FieldKind, Schema};
    use bdb_trace::MixSink;

    fn test_table() -> Table {
        let schema = Schema::new([
            ("id", FieldKind::I64),
            ("grp", FieldKind::I64),
            ("price", FieldKind::F64),
            ("cat", FieldKind::Str),
        ]);
        let rows = (0..40)
            .map(|i| {
                vec![
                    Field::I64(i),
                    Field::I64(i % 4),
                    Field::F64(i as f64 * 1.5),
                    Field::Str(if i % 2 == 0 {
                        "even".into()
                    } else {
                        "odd".into()
                    }),
                ]
            })
            .collect();
        Table::from_rows(schema, rows)
    }

    fn dim_table() -> Table {
        let schema = Schema::new([("grp", FieldKind::I64), ("label", FieldKind::Str)]);
        let rows = (0..4)
            .map(|g| vec![Field::I64(g), Field::Str(format!("g{g}"))])
            .collect();
        Table::from_rows(schema, rows)
    }

    fn run_all_backends(plan: &Plan, tables: Vec<&Table>) -> Vec<Vec<Row>> {
        let impala = {
            let mut layout = CodeLayout::new();
            let stack = ImpalaStack::register(&mut layout);
            let mut sink = MixSink::new();
            let mut ctx = ExecCtx::new(&layout, &mut sink);
            execute_impala(&mut ctx, &stack, &tables, plan).0
        };
        let hive = {
            let mut layout = CodeLayout::new();
            let stack = HadoopStack::register(&mut layout);
            let mut sink = MixSink::new();
            let mut ctx = ExecCtx::new(&layout, &mut sink);
            execute_hive(&mut ctx, &stack, &tables, plan).0
        };
        let shark = {
            let mut layout = CodeLayout::new();
            let stack = SparkStack::register(&mut layout);
            let mut sink = MixSink::new();
            let mut ctx = ExecCtx::new(&layout, &mut sink);
            execute_shark(&mut ctx, &stack, &tables, plan).0
        };
        vec![impala, hive, shark]
    }

    fn normalized(mut rows: Vec<Row>) -> Vec<String> {
        let mut strings: Vec<String> = rows
            .drain(..)
            .map(|r| {
                r.iter()
                    .map(|f| format!("{f}"))
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        strings.sort();
        strings
    }

    #[test]
    fn filter_project_agrees_across_backends() {
        let t = test_table();
        let plan = Plan::scan(0)
            .filter(Pred::I64Between(0, 10, 20))
            .project(vec![0, 2]);
        let results = run_all_backends(&plan, vec![&t]);
        assert_eq!(results[0].len(), 10);
        assert_eq!(
            normalized(results[0].clone()),
            normalized(results[1].clone())
        );
        assert_eq!(
            normalized(results[0].clone()),
            normalized(results[2].clone())
        );
    }

    #[test]
    fn aggregate_agrees_across_backends() {
        let t = test_table();
        let plan = Plan::scan(0).aggregate(vec![1], Agg::SumF64(2));
        let results = run_all_backends(&plan, vec![&t]);
        for r in &results {
            assert_eq!(r.len(), 4, "four groups");
        }
        assert_eq!(
            normalized(results[0].clone()),
            normalized(results[1].clone())
        );
        assert_eq!(
            normalized(results[0].clone()),
            normalized(results[2].clone())
        );
    }

    #[test]
    fn join_agrees_across_backends() {
        let fact = test_table();
        let dim = dim_table();
        let plan = Plan::scan(0)
            .filter(Pred::I64Between(0, 0, 8))
            .join(Plan::scan(1), 1, 0);
        let results = run_all_backends(&plan, vec![&fact, &dim]);
        assert_eq!(
            results[0].len(),
            8,
            "every filtered row matches one dim row"
        );
        assert_eq!(
            normalized(results[0].clone()),
            normalized(results[1].clone())
        );
        assert_eq!(
            normalized(results[0].clone()),
            normalized(results[2].clone())
        );
    }

    #[test]
    fn difference_returns_left_only_rows() {
        let t = test_table();
        let left = Plan::scan(0).project(vec![1]); // grp values 0..4 repeated
        let right = Plan::scan(1)
            .project(vec![0])
            .filter(Pred::I64Between(0, 0, 2));
        let dim = dim_table();
        let plan = left.difference(right);
        let results = run_all_backends(&plan, vec![&t, &dim]);
        // grp values {0,1,2,3} minus {0,1} = {2,3}.
        for r in &results {
            assert_eq!(normalized(r.clone()), vec!["2".to_owned(), "3".to_owned()]);
        }
    }

    #[test]
    fn sort_orders_rows() {
        let t = test_table();
        let plan = Plan::scan(0).sort(2, true).limit(3);
        let results = run_all_backends(&plan, vec![&t]);
        for rows in &results {
            assert_eq!(rows.len(), 3);
            let prices: Vec<f64> = rows.iter().map(|r| r[2].as_f64().unwrap()).collect();
            assert!(
                prices[0] >= prices[1] && prices[1] >= prices[2],
                "{prices:?}"
            );
            assert_eq!(prices[0], 39.0 * 1.5);
        }
    }

    #[test]
    fn row_encoding_round_trips() {
        let row: Row = vec![Field::I64(-5), Field::F64(2.25), Field::Str("hello".into())];
        assert_eq!(decode_row(&encode_row(&row)), row);
        let empty: Row = vec![];
        assert_eq!(decode_row(&encode_row(&empty)), empty);
    }

    #[test]
    fn encoded_i64_keys_preserve_order() {
        let a = encode_row(&vec![Field::I64(-10)]);
        let b = encode_row(&vec![Field::I64(3)]);
        let c = encode_row(&vec![Field::I64(1000)]);
        assert!(a < b && b < c);
    }

    #[test]
    fn pred_eval_matches_semantics() {
        let mut layout = CodeLayout::new();
        let main = layout.region("main", 4096);
        let mut sink = MixSink::new();
        let mut ctx = ExecCtx::new(&layout, &mut sink);
        ctx.frame(main, |ctx| {
            let row: Row = vec![Field::I64(7), Field::F64(1.5), Field::Str("x".into())];
            assert!(Pred::I64Eq(0, 7).eval(ctx, &row, 0x1000));
            assert!(!Pred::I64Eq(0, 8).eval(ctx, &row, 0x1000));
            assert!(Pred::I64Between(0, 5, 10).eval(ctx, &row, 0x1000));
            assert!(!Pred::I64Between(0, 8, 10).eval(ctx, &row, 0x1000));
            assert!(Pred::F64Gt(1, 1.0).eval(ctx, &row, 0x1000));
            assert!(Pred::StrEq(2, "x".into()).eval(ctx, &row, 0x1000));
            assert!(!Pred::StrEq(2, "y".into()).eval(ctx, &row, 0x1000));
        });
    }

    #[test]
    fn impala_stats_account_io() {
        let t = test_table();
        let mut layout = CodeLayout::new();
        let stack = ImpalaStack::register(&mut layout);
        let mut sink = MixSink::new();
        let mut ctx = ExecCtx::new(&layout, &mut sink);
        let root = stack.root_region();
        let (_, stats) = ctx.frame(root, |ctx| {
            execute_impala(
                ctx,
                &stack,
                &[&t],
                &Plan::scan(0).filter(Pred::StrEq(3, "even".into())),
            )
        });
        assert_eq!(stats.input_bytes, t.byte_size() as u64 / 2);
        assert!(stats.output_bytes > 0);
        assert_eq!(stats.phases.len(), 1);
    }
}
