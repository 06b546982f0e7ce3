//! The traced run: every workload's statements replayed through the
//! layers' public entry points, with a span recorded around each call from
//! this file. No span is added inside the program; the layer numbers are
//! the benchmark's view of each entry point from outside.
//!
//! Metric names are `<workload>.<layer>.<what>`. Counts (rows, nodes,
//! fsyncs, bytes) repeat exactly for a given seed; times are medians over
//! repetitions.

use crate::employee::{self, class_of};
use crate::gates::{self, Gates};
use crate::oltp::{self, Kind, Running};
use crate::overlap;
use crate::util::{self, Json};
use crate::{session_options, Metric, Outcome};
use algebra::{Plan, PlanNode};
use bench_harness::{run_approach, run_oracle, Approach};
use engine::{Engine, ExecStats, NodeStats};
use index::IndexCatalog;
use rewrite::{infer_domain, RewriteOptions, SnapshotCompiler};
use snapshot_server::protocol::rowset_frames;
use snapshot_server::Frame;
use snapshot_session::SharedDatabase;
use std::collections::BTreeMap;
use std::time::Instant;
use storage::{Catalog, Table};

/// Repetitions of each timed step (medians are reported).
const REPEATS: usize = 3;
/// Repetitions of the microsecond-scale front-end steps.
const FRONT_REPEATS: usize = 15;
/// Operations of connection 0 replayed by the traced `oltp_wire` run.
const OLTP_OPS: usize = 300;
/// Wire and in-process reads compared for the round-trip overhead.
const ROUND_TRIPS: usize = 30;

/// Registry series read before and after the traced writes; their deltas
/// give the index, txn, session and wal figures.
const WRITE_SERIES: [&str; 11] = [
    "index_full_builds_total",
    "index_full_build_seconds",
    "index_incremental_build_seconds",
    "txn_commit_wait_seconds",
    "txn_conflicts_total",
    "session_retries_total",
    "wal_fsyncs_total",
    "wal_fsync_seconds",
    "wal_appended_bytes_total",
    "wal_checkpoints_total",
    "wal_checkpoint_seconds",
];

/// The operators each workload's plans run; each gets a self-time and a
/// row-count metric, reported as 0 if a plan stops using it.
const EMPLOYEE_OPS: &[&str] = &[
    "Scan",
    "Filter",
    "Project",
    "Join",
    "TemporalAggregate",
    "TemporalExceptAll",
    "Coalesce",
];
const OVERLAP_OPS: &[&str] = &["Scan", "Project", "Join", "Coalesce"];
const OLTP_OPS_RUN: &[&str] = &["Scan", "Project", "TemporalAggregate", "Coalesce"];

/// One recorded span: a call into a layer, made by the benchmark.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; returns its result and duration in ms.
    fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].end_ns = (end - self.origin).as_nanos() as u64;
        (r, (end - start).as_secs_f64() * 1e3)
    }

    /// [`Tracer::span`] repeated `n` times; returns the last result and the
    /// median duration in ms.
    fn repeat<R>(&mut self, name: &str, op: u64, n: usize, mut f: impl FnMut() -> R) -> (R, f64) {
        let mut times = Vec::with_capacity(n);
        let mut last = None;
        for _ in 0..n {
            let (r, ms) = self.span(name, op, |_| f());
            times.push(ms);
            last = Some(r);
        }
        (last.expect("n >= 1"), util::median(&times))
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.name.as_str())
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with(
                            "parent",
                            s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                        )
                        .with("op", s.op)
                })
                .collect(),
        )
    }
}

/// The operator name of a plan node.
fn op_name(plan: &Plan) -> &'static str {
    match &plan.node {
        PlanNode::Scan { .. } => "Scan",
        PlanNode::VirtualScan { .. } => "VirtualScan",
        PlanNode::Values { .. } => "Values",
        PlanNode::Filter { .. } => "Filter",
        PlanNode::Project { .. } => "Project",
        PlanNode::Join { .. } => "Join",
        PlanNode::Union { .. } => "Union",
        PlanNode::ExceptAll { .. } => "ExceptAll",
        PlanNode::Aggregate { .. } => "Aggregate",
        PlanNode::Distinct { .. } => "Distinct",
        PlanNode::Sort { .. } => "Sort",
        PlanNode::Coalesce { .. } => "Coalesce",
        PlanNode::Timeslice { .. } => "Timeslice",
        PlanNode::TimeRange { .. } => "TimeRange",
        PlanNode::Split { .. } => "Split",
        PlanNode::TemporalAggregate { .. } => "TemporalAggregate",
        PlanNode::TemporalExceptAll { .. } => "TemporalExceptAll",
    }
}

fn plan_nodes(plan: &Plan) -> u64 {
    1 + plan.children().into_iter().map(plan_nodes).sum::<u64>()
}

fn find_join(plan: &Plan) -> Option<&Plan> {
    if matches!(plan.node, PlanNode::Join { .. }) {
        return Some(plan);
    }
    plan.children().into_iter().find_map(find_join)
}

/// Per-operator self time (inclusive time minus the executed children's)
/// and rows produced, from one analyzed execution.
fn operator_split(
    plan: &Plan,
    nodes: &NodeStats,
    self_ms: &mut BTreeMap<&'static str, f64>,
    rows: &mut BTreeMap<&'static str, u64>,
) {
    if let Some(a) = nodes.get(plan) {
        let children: u64 = plan
            .children()
            .into_iter()
            .filter_map(|c| nodes.get(c))
            .map(|c| c.nanos)
            .sum();
        *self_ms.entry(op_name(plan)).or_default() += a.nanos.saturating_sub(children) as f64 / 1e6;
        *rows.entry(op_name(plan)).or_default() += a.rows;
    }
    for child in plan.children() {
        operator_split(child, nodes, self_ms, rows);
    }
}

/// What the traced replay of one read statement measured.
struct ReadTrace {
    parse_us: f64,
    bind_us: f64,
    compile_us: f64,
    tokens: u64,
    plan_nodes: u64,
    execute_ms: f64,
    self_ms: BTreeMap<&'static str, f64>,
    rows: BTreeMap<&'static str, u64>,
    plan: Plan,
    result: Table,
}

impl ReadTrace {
    fn front_ms(&self) -> f64 {
        (self.parse_us + self.bind_us + self.compile_us) / 1e3
    }
}

/// Replays one read statement layer by layer, as a session would run it:
/// parse, bind, compile with the inferred domain, execute over the
/// indexes. Self times are the per-operator medians over `repeats`
/// analyzed executions.
fn trace_read(
    t: &mut Tracer,
    op: u64,
    sql_text: &str,
    catalog: &Catalog,
    indexes: &IndexCatalog,
    front_repeats: usize,
    repeats: usize,
) -> Result<ReadTrace, String> {
    let tokens = sql::lexer::tokenize(sql_text)?.len() as u64;
    let (stmt, parse_ms) = t.repeat("sql.parse_statement", op, front_repeats, || {
        sql::parse_statement(sql_text)
    });
    let stmt = stmt?;
    let (bound, bind_ms) = t.repeat("sql.bind_statement", op, front_repeats, || {
        sql::bind_statement(&stmt, catalog)
    });
    let bound = bound?;
    let (plan, compile_ms) = t.repeat("rewrite.compile_statement", op, front_repeats, || {
        SnapshotCompiler::with_options(infer_domain(catalog), RewriteOptions::default())
            .compile_statement(&bound, catalog)
    });
    let plan = plan?;
    let engine = Engine::with_parallelism(1);
    let mut exec_times = Vec::new();
    let mut self_runs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut rows = BTreeMap::new();
    let mut result = None;
    for _ in 0..repeats {
        let mut stats = ExecStats::default();
        let mut nodes = NodeStats::default();
        let (out, ms) = t.span("engine.execute_analyzed", op, |_| {
            engine.execute_analyzed(&plan, catalog, Some(indexes), &mut stats, &mut nodes)
        });
        exec_times.push(ms);
        let mut self_ms = BTreeMap::new();
        rows.clear();
        operator_split(&plan, &nodes, &mut self_ms, &mut rows);
        self_runs.push(self_ms);
        result = Some(out?);
    }
    let self_ms = self_runs[0]
        .keys()
        .map(|k| {
            let v: Vec<f64> = self_runs
                .iter()
                .map(|m| m.get(k).copied().unwrap_or(0.0))
                .collect();
            (*k, util::median(&v))
        })
        .collect();
    Ok(ReadTrace {
        parse_us: parse_ms * 1e3,
        bind_us: bind_ms * 1e3,
        compile_us: compile_ms * 1e3,
        tokens,
        plan_nodes: plan_nodes(&plan),
        plan,
        execute_ms: util::median(&exec_times),
        self_ms,
        rows,
        result: result.expect("repeats >= 1"),
    })
}

/// Metrics of a workload, prefixed with its name.
struct Sink {
    prefix: &'static str,
    metrics: Vec<Metric>,
    /// Lines printed before the result.
    notes: Vec<String>,
}

impl Sink {
    fn new(prefix: &'static str) -> Sink {
        Sink {
            prefix,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .push(Metric::new(&format!("{}.{name}", self.prefix), value, unit));
    }

    /// Engine metrics over a workload's statements: self time and rows of
    /// each operator in `ops` (the operators its plans hold), summed and
    /// divided by `per` (1 for one round of statements, the number of
    /// statements for a per-statement figure).
    fn engine(&mut self, reads: &[&ReadTrace], ops: &[&str], per: usize) {
        let per = per as f64;
        for op in ops {
            let ms: f64 = reads.iter().filter_map(|r| r.self_ms.get(op)).sum();
            self.put(&format!("engine.self_ms.{op}"), ms / per, "ms");
        }
        for op in ops {
            let rows: u64 = reads.iter().filter_map(|r| r.rows.get(op)).sum();
            self.put(&format!("engine.rows.{op}"), rows as f64 / per, "count");
        }
        let produced: u64 = reads.iter().flat_map(|r| r.rows.values()).sum();
        let results: u64 = reads.iter().map(|r| r.result.len() as u64).sum();
        self.put(
            "engine.rows_per_result",
            produced as f64 / results.max(1) as f64,
            "rows/row",
        );
        let unlisted: Vec<&str> = reads
            .iter()
            .flat_map(|r| r.self_ms.keys())
            .filter(|k| !ops.contains(k))
            .copied()
            .collect();
        if !unlisted.is_empty() {
            self.notes.push(format!(
                "{}: operators without a metric ran: {unlisted:?}",
                self.prefix
            ));
        }
    }
}

/// The data seed of the traced replay. The replay's inputs do not follow
/// `--seed`, so that its counts repeat bit-for-bit across runs and across
/// commits; the untraced runs cover the seeds.
pub const TRACE_SEED: u64 = 1;

pub fn run(workload: &str) -> Outcome {
    match run_inner(workload, TRACE_SEED) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("snapbench: traced run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Replays all three workloads, whatever `--workload` names, so that every
/// layer is measured on the workload where it lies on the blocking path.
fn run_inner(workload: &str, seed: u64) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let mut gates = Gates::default();
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let mut calib = vec![util::calib_ms()];
    let mut attempted = 0u64;

    let employee = trace_employee(&mut t, seed, &mut gates, &mut attempted)?;
    calib.push(util::calib_ms());
    let overlap = trace_overlap(&mut t, seed, &mut attempted)?;
    calib.push(util::calib_ms());
    let oltp = trace_oltp(&mut t, seed, &mut attempted)?;
    calib.push(util::calib_ms());
    for sink in [employee, overlap, oltp] {
        metrics.extend(sink.metrics);
        notes.extend(sink.notes);
    }
    metrics.push(Metric::new("harness.calib_ms", util::median(&calib), "ms"));

    let details = Json::obj()
        .with("replayed_for", workload)
        .with("data_seed", seed)
        .with("calib_ms", Json::nums(&calib))
        .with("spans", t.to_json());
    Ok(Outcome {
        gates,
        attempted,
        failed: 0,
        metrics,
        notes,
        details,
    })
}

/// `employee`: every query's layer split, the index build, and the paper's
/// comparison against the native baselines and the oracle.
fn trace_employee(
    t: &mut Tracer,
    seed: u64,
    gates: &mut Gates,
    attempted: &mut u64,
) -> Result<Sink, String> {
    let mut sink = Sink::new("employee");
    let catalog = datagen::employees::generate(employee::SCALE, seed);
    let (indexes, build_ms) = t.repeat("index.build_all", 0, REPEATS, || {
        IndexCatalog::build_all(&catalog)
    });
    sink.put("index.build_ms", build_ms, "ms");

    let queries = datagen::employees::queries();
    let mut traces = Vec::new();
    for (op, (_, sql_text)) in queries.iter().enumerate() {
        *attempted += 1;
        traces.push(trace_read(
            t,
            op as u64,
            sql_text,
            &catalog,
            &indexes,
            FRONT_REPEATS,
            REPEATS,
        )?);
    }
    sink.put(
        "rewrite.plan_nodes",
        traces.iter().map(|r| r.plan_nodes).sum::<u64>() as f64,
        "count",
    );
    sink.put(
        "rewrite.compile_us",
        traces.iter().map(|r| r.compile_us).sum(),
        "us",
    );
    for ((name, _), r) in queries.iter().zip(&traces) {
        sink.put(&format!("engine.execute_ms.{name}"), r.execute_ms, "ms");
    }
    sink.engine(&traces.iter().collect::<Vec<_>>(), EMPLOYEE_OPS, 1);

    // Tracing overhead: the traced per-statement total against the same
    // statements run untraced through a session.
    let shared = employee::load(&catalog);
    let mut session = shared.session_with_options(session_options());
    let mut overhead = 0.0;
    for (i, (_, sql_text)) in queries.iter().enumerate() {
        let mut times = Vec::new();
        for _ in 0..REPEATS {
            let s = Instant::now();
            let _ = session.execute(sql_text);
            times.push(util::ms_since(s));
        }
        overhead += traces[i].front_ms() + traces[i].execute_ms - util::median(&times);
    }
    drop(session);
    drop(shared);
    sink.put("harness.trace_overhead_ms", overhead, "ms");

    // The paper's comparison: Seq against the native baselines, per class.
    let domain = datagen::employees::domain();
    let mut class_ms: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for ((name, sql_text), r) in queries.iter().zip(&traces) {
        let class = class_of(name);
        *class_ms.entry(("seq", class)).or_default() += r.front_ms() + r.execute_ms;
        for (route, approach) in [
            ("nat_align", Approach::NatAlignment),
            ("nat_ip", Approach::NatIntervalPreservation),
        ] {
            let (out, ms) = t.span(&format!("baseline.{route}"), 0, |_| {
                run_approach(
                    approach,
                    sql_text,
                    &catalog,
                    domain,
                    RewriteOptions::default(),
                )
            });
            out?;
            *class_ms.entry((route, class)).or_default() += ms;
        }
    }
    for ((route, class), ms) in &class_ms {
        sink.put(&format!("baseline.{route}.{class}_ms"), *ms, "ms");
    }
    let mut paper = vec!["paper shape (employee, per class; winner = fastest route):".to_string()];
    for class in employee::CLASSES {
        let routes = ["seq", "nat_align", "nat_ip"];
        let times: Vec<f64> = routes.iter().map(|r| class_ms[&(*r, class)]).collect();
        let winner = routes[times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i)];
        paper.push(format!(
            "  {class:<9} seq {:>9.2} ms  nat_align {:>9.2} ms  nat_ip {:>9.2} ms  winner {winner}",
            times[0], times[1], times[2]
        ));
    }

    // The bug column: each route's wrong results against the point-wise
    // oracle on a tiny instance.
    let tiny = datagen::employees::generate(employee::ORACLE_SCALE, seed);
    let tiny_domain = infer_domain(&tiny);
    let tiny_indexes = IndexCatalog::build_all(&tiny);
    let mut wrong: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (op, (name, sql_text)) in queries.iter().enumerate() {
        let oracle = run_oracle(sql_text, &tiny, tiny_domain)?;
        let seq = trace_read(t, op as u64, sql_text, &tiny, &tiny_indexes, 1, 1)?.result;
        let seq_check = gates::oracle_equal(&seq, &oracle, tiny_domain);
        gates.check(
            &format!("trace.employee.{name}.eq_oracle"),
            seq_check.clone(),
        );
        if seq_check.is_err() {
            wrong.entry("seq").or_default().push(name);
        }
        for (route, approach) in [
            ("nat_align", Approach::NatAlignment),
            ("nat_ip", Approach::NatIntervalPreservation),
        ] {
            let out = run_approach(
                approach,
                sql_text,
                &tiny,
                tiny_domain,
                RewriteOptions::default(),
            )?;
            if gates::oracle_equal(&out, &oracle, tiny_domain).is_err() {
                wrong.entry(route).or_default().push(name);
            }
        }
    }
    let wrong_total: usize = ["nat_align", "nat_ip"]
        .iter()
        .map(|r| wrong.get(r).map_or(0, Vec::len))
        .sum();
    sink.put("baseline.wrong_results", wrong_total as f64, "count");
    for route in ["seq", "nat_align", "nat_ip"] {
        paper.push(format!(
            "  bug column {route:<9}: {:?}",
            wrong.get(route).cloned().unwrap_or_default()
        ));
    }
    sink.notes.extend(paper);
    Ok(sink)
}

/// `overlap_join`: the join statement's layer split plus the bare overlap
/// `Join` through the indexed engine, sequential and with two workers.
fn trace_overlap(t: &mut Tracer, seed: u64, attempted: &mut u64) -> Result<Sink, String> {
    let mut sink = Sink::new("overlap_join");
    let shared = overlap::load(seed);
    let snapshot = shared.snapshot();
    let catalog = snapshot.catalog();
    let (indexes, build_ms) = t.repeat("index.build_all", 0, REPEATS, || {
        IndexCatalog::build_all(catalog)
    });
    sink.put("index.build_ms", build_ms, "ms");
    *attempted += 1;
    let r = trace_read(
        t,
        0,
        overlap::QUERY,
        catalog,
        &indexes,
        FRONT_REPEATS,
        REPEATS,
    )?;
    sink.put("sql.parse_us", r.parse_us, "us");
    sink.put("rewrite.plan_nodes", r.plan_nodes as f64, "count");
    sink.put("engine.execute_ms", r.execute_ms, "ms");
    sink.engine(&[&r], OVERLAP_OPS, 1);

    let join = find_join(&r.plan).ok_or("the overlap plan has no Join")?;
    let (pairs, seq_ms) = t.repeat("engine.execute_indexed.join", 0, REPEATS, || {
        Engine::with_parallelism(1).execute_indexed(join, catalog, &indexes)
    });
    let (pairs2, par_ms) = t.repeat("engine.execute_indexed.join_parallel2", 0, REPEATS, || {
        Engine::with_parallelism(2).execute_indexed(join, catalog, &indexes)
    });
    let (pairs, pairs2) = (pairs?, pairs2?);
    if pairs.len() != pairs2.len() {
        return Err(format!(
            "parallel join: {} vs {} pairs",
            pairs2.len(),
            pairs.len()
        ));
    }
    sink.put("index.join_ms", seq_ms, "ms");
    sink.put("index.join_pairs", pairs.len() as f64, "count");
    sink.put("index.parallel2_speedup", seq_ms / par_ms, "x");

    let mut session = shared.session_with_options(session_options());
    let mut times = Vec::new();
    for _ in 0..REPEATS {
        let s = Instant::now();
        let _ = session.execute(overlap::QUERY);
        times.push(util::ms_since(s));
    }
    sink.put(
        "harness.trace_overhead_ms",
        r.front_ms() + r.execute_ms - util::median(&times),
        "ms",
    );
    Ok(sink)
}

/// `oltp_wire`: recovery split, then a fixed list of connection-0
/// operations replayed in-process on the durable database (so every count
/// repeats exactly), with the wire encode/decode of each read's result and
/// a wire-versus-in-process round trip at the end.
fn trace_oltp(t: &mut Tracer, seed: u64, attempted: &mut u64) -> Result<Sink, String> {
    let mut sink = Sink::new("oltp_wire");
    let work = oltp::work_dir("trace");
    let _ = std::fs::remove_dir_all(&work);
    let pristine = work.join("pristine");
    oltp::build_pristine(&pristine, seed)?;

    // Recovery: Persistence::open alone, then the whole open_durable.
    let mut open_ms = Vec::new();
    let mut durable_ms = Vec::new();
    for k in 0..REPEATS {
        let a = work.join(format!("open{k}"));
        oltp::copy_dir(&pristine, &a)?;
        let (p, ms) = t.span("wal.persistence_open", 0, |_| {
            snapshot_wal::Persistence::open(&a, oltp::persistence_options())
        });
        drop(p?);
        open_ms.push(ms);
        let b = work.join(format!("durable{k}"));
        oltp::copy_dir(&pristine, &b)?;
        let (db, ms) = t.span("session.open_durable", 0, |_| {
            SharedDatabase::open_durable(&b, session_options(), oltp::persistence_options())
        });
        drop(db?);
        durable_ms.push(ms);
    }
    sink.put("wal.open_ms", util::median(&open_ms), "ms");
    sink.put(
        "wal.replay_ms",
        util::median(&durable_ms) - util::median(&open_ms),
        "ms",
    );

    let dir = work.join("replay");
    oltp::copy_dir(&pristine, &dir)?;
    let (shared, _) =
        SharedDatabase::open_durable(&dir, session_options(), oltp::persistence_options())?;
    let mut session = shared.session_with_options(session_options());

    let series = || -> BTreeMap<&str, f64> {
        WRITE_SERIES
            .iter()
            .map(|n| (*n, util::registry_value(n)))
            .collect()
    };
    let before = series();
    let (mut parse_us, mut bind_us, mut compile_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut exec_ms, mut commit_ms) = (Vec::new(), Vec::new());
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    let (mut wire_bytes, mut wire_rows) = (0u64, 0u64);
    let mut reads = Vec::new();
    let mut writes = 0u64;
    for i in 0..OLTP_OPS {
        *attempted += 1;
        let (kind, sql_text) = oltp::operation(seed, 0, i);
        let op = i as u64;
        if kind == Kind::Read {
            let snap = shared.snapshot();
            let r = trace_read(t, op, &sql_text, snap.catalog(), snap.indexes(), 1, 1)?;
            // The wire layer: the frames a server streams for this result,
            // encoded and decoded.
            let ((frames, payloads), enc) = t.span("server.encode", op, |_| {
                let frames = rowset_frames(&r.result);
                let payloads: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
                (frames, payloads)
            });
            let (decoded, dec) = t.span("server.decode", op, |_| {
                payloads
                    .iter()
                    .map(|p| Frame::decode(p))
                    .collect::<Result<Vec<_>, _>>()
            });
            if decoded? != frames {
                return Err("wire frames do not round-trip".into());
            }
            let rows = r.result.len().max(1) as f64;
            encode_us.push(enc * 1e3 / rows);
            decode_us.push(dec * 1e3 / rows);
            wire_bytes += payloads.iter().map(|p| p.len() as u64).sum::<u64>();
            wire_rows += r.result.len() as u64;
            parse_us.push(r.parse_us);
            bind_us.push(r.bind_us);
            compile_us.push(r.compile_us);
            exec_ms.push(r.execute_ms);
            reads.push(r);
        } else {
            writes += 1;
            let (parsed, ms) = t.span("sql.parse_sql_statement", op, |_| {
                sql::parse_sql_statement(&sql_text)
            });
            parsed?;
            parse_us.push(ms * 1e3);
            let (out, _) = t.span("session.execute", op, |_| session.execute(&sql_text));
            out?;
            commit_ms.push(session.last_phase_timings().commit_ns as f64 / 1e6);
            // Commit repairs the committed indexes; this call finds them
            // fresh unless that changes.
            t.span("index.refresh_indexes", op, |_| {
                shared.refresh_indexes(None)
            });
        }
    }
    let after = series();
    let delta = |n: &str| after[n] - before[n];
    // A write-write race on different rows of one table, interleaved
    // deterministically: an explicit transaction updates one seed row while
    // another session commits an update of a different row first. With
    // table-granular first-committer-wins validation the transaction's
    // COMMIT conflicts; a row-granular validator would let it commit.
    let conflicts_before = util::registry_value("txn_conflicts_total");
    let mut other = shared.session_with_options(session_options());
    let (probe, _) = t.span("txn.conflict_probe", OLTP_OPS as u64, |_| {
        session.execute("BEGIN")?;
        session.execute("UPDATE works SET skill = 'S7' WHERE name = 'p1'")?;
        other.execute("UPDATE works SET skill = 'S6' WHERE name = 'p2'")?;
        if session.execute("COMMIT").is_err() && session.in_transaction() {
            session.execute("ROLLBACK")?;
        }
        Ok::<(), String>(())
    });
    probe?;
    drop(other);
    let conflicts = util::registry_value("txn_conflicts_total") - conflicts_before;

    let w = writes.max(1) as f64;
    let fsyncs = delta("wal_fsyncs_total");
    let checkpoints = delta("wal_checkpoints_total");

    sink.put("sql.parse_us", util::median(&parse_us), "us");
    sink.put("sql.bind_us", util::median(&bind_us), "us");
    sink.put("sql.tokens", reads[0].tokens as f64, "count");
    sink.put("rewrite.compile_us", util::median(&compile_us), "us");
    sink.put("rewrite.plan_nodes", reads[0].plan_nodes as f64, "count");
    // Index maintenance per write, from the index layer's own build
    // histograms (full rebuilds and incremental refreshes).
    let index_s = delta("index_full_build_seconds") + delta("index_incremental_build_seconds");
    sink.put("index.refresh_ms", index_s * 1e3 / w, "ms");
    sink.put(
        "index.full_builds_per_write",
        delta("index_full_builds_total") / w,
        "count",
    );
    sink.put("engine.execute_ms", util::median(&exec_ms), "ms");
    sink.engine(&reads.iter().collect::<Vec<_>>(), OLTP_OPS_RUN, reads.len());
    sink.put("txn.commit_ms", util::median(&commit_ms), "ms");
    sink.put(
        "txn.commit_wait_ms",
        delta("txn_commit_wait_seconds") * 1e3 / w,
        "ms",
    );
    sink.put(
        "txn.conflicts",
        delta("txn_conflicts_total") + conflicts,
        "count",
    );
    sink.put("session.retries", delta("session_retries_total"), "count");
    sink.put("wal.fsyncs_per_write", fsyncs / w, "count");
    sink.put(
        "wal.fsync_ms",
        delta("wal_fsync_seconds") * 1e3 / fsyncs.max(1.0),
        "ms",
    );
    sink.put(
        "wal.bytes_per_write",
        delta("wal_appended_bytes_total") / w,
        "B",
    );
    sink.put("wal.checkpoints", checkpoints, "count");
    sink.put(
        "wal.checkpoint_ms",
        delta("wal_checkpoint_seconds") * 1e3 / checkpoints.max(1.0),
        "ms",
    );
    sink.put("server.encode_us_per_row", util::median(&encode_us), "us");
    sink.put("server.decode_us_per_row", util::median(&decode_us), "us");
    sink.put(
        "server.bytes_per_row",
        wire_bytes as f64 / wire_rows.max(1) as f64,
        "B",
    );

    // The same read over the wire and in-process, alternately, on the
    // same state.
    let (running, mut client) = Running::serve(shared.clone())?;
    let (mut wire, mut local) = (Vec::new(), Vec::new());
    for k in 0..ROUND_TRIPS {
        let (resp, ms) = t.span("server.client_query", k as u64, |_| {
            client.query(oltp::READ)
        });
        let resp = resp.map_err(|e| format!("{e:?}"))?;
        if resp.error.is_some() {
            return Err(format!("wire read failed: {:?}", resp.error));
        }
        wire.push(ms);
        let (out, ms) = t.span("session.execute", k as u64, |_| session.execute(oltp::READ));
        out?;
        local.push(ms);
    }
    let _ = client.close();
    running.stop()?;
    sink.put(
        "server.round_trip_overhead_ms",
        util::median(&wire) - util::median(&local),
        "ms",
    );
    drop(session);
    drop(shared);
    let _ = std::fs::remove_dir_all(&work);
    Ok(sink)
}
