//! Plan execution.

use crate::coalesce::coalesce_rows;
use crate::eval::{eval_expr, eval_predicate};
use crate::sliding::{Partial, SlidingAgg};
use crate::split::split_rows;
use crate::temporal::{agg_arg_types, temporal_aggregate, temporal_except_all};
use algebra::{BinOp, Expr, JoinAlgo, Plan, PlanNode, TimesliceAlgo};
use index::{
    choose_cuts, elementary_boundaries, elementary_boundaries_from_events,
    try_parallel_sweep_join_presorted, try_sweep_join_presorted, IndexCatalog,
};
use snapshot_obs as obs;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{Catalog, Row, Schema, SqlType, Table, Value};

/// Join-pair interval between cooperative cancellation checks: frequent
/// enough that a runaway join reacts within microseconds, rare enough
/// that the per-pair cost is one counter bump.
const CANCEL_CHECK_INTERVAL: u64 = 1024;

/// Per-statement execution context: the live [`obs::ResourceAccount`]
/// the operators bump and the [`obs::CancelToken`] they check at batch
/// boundaries. Shared (`Arc`) with the owning session's entry in the
/// activity registry, so `snapshot_stat_progress` sees counters move
/// while the statement runs and `.kill` can reach into the executor.
#[derive(Debug, Clone)]
pub struct ExecContext {
    account: Arc<obs::ResourceAccount>,
    token: Arc<obs::CancelToken>,
}

impl ExecContext {
    /// Context over a session's shared account and token.
    pub fn new(account: Arc<obs::ResourceAccount>, token: Arc<obs::CancelToken>) -> Self {
        ExecContext { account, token }
    }

    /// The live resource counters.
    pub fn account(&self) -> &obs::ResourceAccount {
        &self.account
    }

    /// The cooperative check (see [`obs::CancelToken::check`]).
    fn check(&self) -> Result<(), String> {
        self.token.check(&self.account)
    }
}

/// Join strategy for the non-temporal part of join conditions.
///
/// The paper's experiments observed PostgreSQL and DBY using hash joins on
/// the non-temporal attributes, while DBX used merge joins over the interval
/// overlap predicate; both strategies are available here so the benchmark
/// harness can reproduce that comparison. [`JoinStrategy::IndexSweep`]
/// additionally enables the endpoint-sweep temporal join of the `index`
/// crate even for non-indexed inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Hash join on equality conjuncts, residual predicate after (PG/DBY).
    #[default]
    Hash,
    /// Forward-scan plane sweep over the interval overlap predicate (DBX),
    /// falling back to hash when no overlap pattern is present.
    MergeInterval,
    /// Endpoint-sweep (sort-merge) temporal join over the interval overlap
    /// predicate, falling back to hash when no overlap pattern is present.
    IndexSweep,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Join strategy.
    pub join_strategy: JoinStrategy,
    /// Worker threads for parallel operators (currently the parallel
    /// endpoint-sweep temporal join). `0` and `1` both mean sequential
    /// execution; values above `1` make [`JoinAlgo::Auto`] prefer
    /// [`JoinAlgo::ParallelSweep`] wherever it would pick the sequential
    /// sweep, and set the slab count of explicit `ParallelSweep` hints.
    pub parallelism: usize,
}

/// Per-operator execution counters (operator name → (invocations, rows
/// produced)); useful for explaining benchmark results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    counters: BTreeMap<&'static str, (u64, u64)>,
}

impl ExecStats {
    fn record(&mut self, op: &'static str, rows: usize) {
        let e = self.counters.entry(op).or_insert((0, 0));
        e.0 += 1;
        e.1 += rows as u64;
    }

    /// `(invocations, rows produced)` for an operator name.
    pub fn get(&self, op: &str) -> Option<(u64, u64)> {
        self.counters.get(op).copied()
    }

    /// All counters, sorted by operator name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, (u64, u64))> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Publish these counters into the global metrics registry as
    /// `engine_<op>_invocations_total` / `engine_<op>_rows_total` (operator
    /// names lower-cased). The session layer calls this once per statement
    /// when metrics collection is on, so the per-operator hot path stays a
    /// plain `BTreeMap` bump.
    pub fn publish_to_registry(&self) {
        let reg = obs::registry();
        // lint:allow(cancellation) bounded by the number of operator kinds
        for (op, (invocations, rows)) in self.iter() {
            let op = op.to_lowercase();
            reg.counter(&format!("engine_{op}_invocations_total"))
                .add(invocations);
            reg.counter(&format!("engine_{op}_rows_total")).add(rows);
        }
    }
}

/// Actual execution figures for one plan node, as collected by
/// [`Engine::execute_analyzed`] for `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeActuals {
    /// Times the node produced its output (re-runs under retries add up).
    pub calls: u64,
    /// Total rows produced across calls.
    pub rows: u64,
    /// Total wall-clock nanoseconds, inclusive of children.
    pub nanos: u64,
}

/// Per-plan-node actuals keyed by node *identity* (not operator name, so
/// two `Scan`s of the same table report separately). Valid only for the
/// exact [`Plan`] value that was executed.
#[derive(Debug, Default)]
pub struct NodeStats {
    map: HashMap<usize, NodeActuals>,
}

impl NodeStats {
    fn record(&mut self, plan: &Plan, rows: usize, elapsed: Duration) {
        let e = self.map.entry(plan_key(plan)).or_default();
        e.calls += 1;
        e.rows += rows as u64;
        e.nanos += elapsed.as_nanos() as u64;
    }

    /// Actuals for a node of the executed plan; `None` when the node was
    /// never executed (e.g. an input short-circuited by an indexed route).
    pub fn get(&self, plan: &Plan) -> Option<NodeActuals> {
        self.map.get(&plan_key(plan)).copied()
    }
}

fn plan_key(plan: &Plan) -> usize {
    plan as *const Plan as usize
}

/// Renders `plan` as its EXPLAIN tree with per-node actuals appended:
/// `(actual rows=R calls=C time=T ms)`, or `(never executed)` for nodes an
/// accelerated route short-circuited (e.g. the scan under an indexed
/// timeslice).
pub fn explain_analyzed(plan: &Plan, nodes: &NodeStats) -> String {
    fn walk(out: &mut String, plan: &Plan, depth: usize, nodes: &NodeStats) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&plan.node_label());
        match nodes.get(plan) {
            Some(a) => {
                out.push_str(&format!(
                    " (actual rows={} calls={} time={:.3} ms)",
                    a.rows,
                    a.calls,
                    a.nanos as f64 / 1e6
                ));
            }
            None => out.push_str(" (never executed)"),
        }
        out.push('\n');
        // lint:allow(cancellation) bounded by plan size
        for child in plan.children() {
            walk(out, child, depth + 1, nodes);
        }
    }
    let mut out = String::new();
    walk(&mut out, plan, 0, nodes);
    out
}

/// Resolves a user-facing parallelism setting to a worker count: `0`
/// means one worker per hardware thread (the convention shared by the
/// shell's `--parallelism 0`, the `SNAPSHOT_PARALLELISM` environment
/// variable, and the test harness), anything else passes through.
pub fn resolve_parallelism(n: usize) -> usize {
    if n == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        n
    }
}

/// The in-memory plan executor. Operators run on the calling thread,
/// except the parallel sweep join, which fans slab workers out over
/// `std::thread::scope` when [`EngineConfig::parallelism`] asks for it.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
    /// Resource accounting + cooperative cancellation for the statement
    /// being executed; `None` (engines built outside a session) keeps the
    /// hot path at a single branch per operator.
    ctx: Option<ExecContext>,
}

impl Engine {
    /// Engine with default configuration (hash joins, sequential).
    pub fn new() -> Self {
        Engine::default()
    }

    /// Engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Engine { config, ctx: None }
    }

    /// Engine with default strategy and the given worker-thread count.
    pub fn with_parallelism(parallelism: usize) -> Self {
        Engine::with_config(EngineConfig {
            parallelism,
            ..EngineConfig::default()
        })
    }

    /// Attach a per-statement execution context: operators bump its
    /// resource account and honor its cancellation token.
    pub fn with_context(mut self, ctx: ExecContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Executes a plan against a catalog, producing a result table.
    pub fn execute(&self, plan: &Plan, catalog: &Catalog) -> Result<Table, String> {
        let mut stats = ExecStats::default();
        self.execute_with_stats(plan, catalog, &mut stats)
    }

    /// Executes a plan, recording per-operator counters.
    pub fn execute_with_stats(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        stats: &mut ExecStats,
    ) -> Result<Table, String> {
        let rows = self.run(plan, catalog, None, stats, None)?;
        result_table(plan, rows)
    }

    /// Executes a plan with a table-index registry: joins, timeslices, and
    /// coalescing over indexed base tables dispatch to the `index` crate's
    /// operators; everything else (and any stale index) falls back to the
    /// naive paths.
    pub fn execute_indexed(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        indexes: &IndexCatalog,
    ) -> Result<Table, String> {
        let mut stats = ExecStats::default();
        self.execute_indexed_with_stats(plan, catalog, indexes, &mut stats)
    }

    /// [`Engine::execute_indexed`], recording per-operator counters (the
    /// indexed dispatches appear as `IndexSweepJoin`, `IndexTimeslice`, and
    /// `IndexCoalesce`).
    pub fn execute_indexed_with_stats(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        indexes: &IndexCatalog,
        stats: &mut ExecStats,
    ) -> Result<Table, String> {
        let rows = self.run(plan, catalog, Some(indexes), stats, None)?;
        result_table(plan, rows)
    }

    /// Executes a plan while collecting per-node actuals (row counts,
    /// call counts, inclusive wall-clock) keyed by node identity — the
    /// execution mode behind `EXPLAIN ANALYZE`. Pass `indexes` to take the
    /// same dispatch routes as [`Engine::execute_indexed`].
    pub fn execute_analyzed(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        indexes: Option<&IndexCatalog>,
        stats: &mut ExecStats,
        nodes: &mut NodeStats,
    ) -> Result<Table, String> {
        let rows = self.run(plan, catalog, indexes, stats, Some(nodes))?;
        result_table(plan, rows)
    }

    fn run(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        indexes: Option<&IndexCatalog>,
        stats: &mut ExecStats,
        nodes: Option<&mut NodeStats>,
    ) -> Result<Vec<Row>, String> {
        self.run_node(plan, None, catalog, indexes, stats, nodes)
    }

    /// Runs one plan node. `project` is set only for a `Join` whose parent
    /// is a `Project`: the join then emits the projected rows itself, and
    /// the parent passes them through. The join node still records its own
    /// actuals (its rows are the pairs that passed the condition).
    fn run_node(
        &self,
        plan: &Plan,
        project: Option<&[Expr]>,
        catalog: &Catalog,
        indexes: Option<&IndexCatalog>,
        stats: &mut ExecStats,
        mut nodes: Option<&mut NodeStats>,
    ) -> Result<Vec<Row>, String> {
        // Per-node clock reads only in analyze mode; the span and profile
        // guards are each a single relaxed atomic load when disabled.
        let started = nodes.as_ref().map(|_| Instant::now());
        let mut span = obs::Span::enter(op_name(&plan.node));
        let _frame = obs::ProfileSpan::enter(op_name(&plan.node));
        // Operator boundary: a cancelled statement stops before producing
        // another node's output.
        if let Some(ctx) = &self.ctx {
            ctx.check()?;
        }
        let rows = match &plan.node {
            PlanNode::Scan { table } => {
                let t = catalog.require(table)?;
                if t.schema().arity() != plan.schema.arity() {
                    return Err(format!(
                        "table '{table}' changed since binding: arity {} vs {}",
                        t.schema().arity(),
                        plan.schema.arity()
                    ));
                }
                t.rows().to_vec()
            }
            PlanNode::VirtualScan { table } => {
                crate::vtab::virtual_table_rows(table, catalog, indexes)?
            }
            PlanNode::Values { rows } => rows.clone(),
            PlanNode::Filter { input, predicate } => {
                let input_rows = self.run(input, catalog, indexes, stats, nodes.as_deref_mut())?;
                input_rows
                    .into_iter()
                    .filter(|r| eval_predicate(predicate, r))
                    .collect()
            }
            PlanNode::Project { input, exprs } => {
                if matches!(input.node, PlanNode::Join { .. }) {
                    self.run_node(
                        input,
                        Some(exprs),
                        catalog,
                        indexes,
                        stats,
                        nodes.as_deref_mut(),
                    )?
                } else {
                    let input_rows =
                        self.run(input, catalog, indexes, stats, nodes.as_deref_mut())?;
                    input_rows
                        .iter()
                        .map(|r| Row::new(exprs.iter().map(|e| eval_expr(e, r)).collect()))
                        .collect()
                }
            }
            PlanNode::Join {
                left,
                right,
                condition,
                algo,
            } => {
                let l = self.run(left, catalog, indexes, stats, nodes.as_deref_mut())?;
                let r = self.run(right, catalog, indexes, stats, nodes.as_deref_mut())?;
                self.join(
                    JoinInputs {
                        left_plan: left,
                        right_plan: right,
                        left_rows: &l,
                        right_rows: &r,
                    },
                    condition,
                    project,
                    *algo,
                    catalog,
                    indexes,
                    stats,
                )?
            }
            PlanNode::Union { left, right } => {
                let mut l = self.run(left, catalog, indexes, stats, nodes.as_deref_mut())?;
                let r = self.run(right, catalog, indexes, stats, nodes.as_deref_mut())?;
                l.extend(r);
                l
            }
            PlanNode::ExceptAll { left, right } => {
                let l = self.run(left, catalog, indexes, stats, nodes.as_deref_mut())?;
                let r = self.run(right, catalog, indexes, stats, nodes.as_deref_mut())?;
                except_all(l, &r)
            }
            PlanNode::Aggregate {
                input,
                group_cols,
                aggs,
            } => {
                let input_rows = self.run(input, catalog, indexes, stats, nodes.as_deref_mut())?;
                let arg_types = agg_arg_types(aggs, &input.schema)?;
                hash_aggregate(&input_rows, group_cols, aggs, &arg_types)
            }
            PlanNode::Distinct { input } => {
                let input_rows = self.run(input, catalog, indexes, stats, nodes.as_deref_mut())?;
                let set: std::collections::BTreeSet<Row> = input_rows.into_iter().collect();
                set.into_iter().collect()
            }
            PlanNode::Sort { input, keys } => {
                let mut input_rows =
                    self.run(input, catalog, indexes, stats, nodes.as_deref_mut())?;
                input_rows.sort_by(|a, b| {
                    // lint:allow(cancellation) bounded by sort-key arity
                    for (e, asc) in keys {
                        let (va, vb) = (eval_expr(e, a), eval_expr(e, b));
                        let ord = va.cmp(&vb);
                        let ord = if *asc { ord } else { ord.reverse() };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                input_rows
            }
            PlanNode::Coalesce { input } => {
                // Coalescing accelerator: a scan of an indexed period-last
                // table has its per-group events presorted at index-build
                // time; emit segments directly instead of re-sorting.
                if let Some(accel) =
                    indexed_scan(input, catalog, indexes)?.and_then(|(idx, _)| idx.coalesce())
                {
                    let rows = accel.coalesced_rows();
                    stats.record("IndexCoalesce", rows.len());
                    if let Some(ctx) = &self.ctx {
                        ctx.account.add_index_probes(1);
                    }
                    rows
                } else {
                    let input_rows =
                        self.run(input, catalog, indexes, stats, nodes.as_deref_mut())?;
                    let rows = coalesce_rows(&input_rows, input.schema.arity());
                    stats.record("NaiveCoalesce", rows.len());
                    rows
                }
            }
            PlanNode::Timeslice { input, at, algo } => {
                // Indexed route: interval-tree stabbing on a scanned table
                // whose period sits in the trailing two columns.
                let indexed = (*algo != TimesliceAlgo::Linear)
                    .then(|| indexed_scan(input, catalog, indexes))
                    .transpose()?
                    .flatten()
                    .filter(|(idx, _)| {
                        let n = input.schema.arity();
                        n >= 2 && idx.period() == (n - 2, n - 1)
                    });
                if let Some((idx, table)) = indexed {
                    let rows = idx.timeslice_rows(table, *at);
                    stats.record("IndexTimeslice", rows.len());
                    if let Some(ctx) = &self.ctx {
                        ctx.account.add_index_probes(1);
                    }
                    rows
                } else {
                    let input_rows =
                        self.run(input, catalog, indexes, stats, nodes.as_deref_mut())?;
                    let n = input.schema.arity();
                    let rows: Vec<Row> = input_rows
                        .into_iter()
                        .filter(|r| r.int(n - 2) <= *at && *at < r.int(n - 1))
                        .collect();
                    stats.record("NaiveTimeslice", rows.len());
                    rows
                }
            }
            PlanNode::TimeRange { input, range, algo } => {
                // Indexed route: interval-tree overlap probing on a scanned
                // table whose period sits in the trailing two columns.
                let (b, e) = *range;
                let indexed = (*algo != TimesliceAlgo::Linear)
                    .then(|| indexed_scan(input, catalog, indexes))
                    .transpose()?
                    .flatten()
                    .filter(|(idx, _)| {
                        let n = input.schema.arity();
                        n >= 2 && idx.period() == (n - 2, n - 1)
                    });
                if let Some((idx, table)) = indexed {
                    let rows = idx.overlapping_rows(table, b, e);
                    stats.record("IndexTimeRange", rows.len());
                    if let Some(ctx) = &self.ctx {
                        ctx.account.add_index_probes(1);
                    }
                    rows
                } else {
                    let input_rows =
                        self.run(input, catalog, indexes, stats, nodes.as_deref_mut())?;
                    let n = input.schema.arity();
                    let rows: Vec<Row> = input_rows
                        .into_iter()
                        .filter(|r| r.int(n - 2) < e && b < r.int(n - 1))
                        .collect();
                    stats.record("NaiveTimeRange", rows.len());
                    rows
                }
            }
            PlanNode::Split {
                left,
                right,
                group_cols,
            } => {
                let l = self.run(left, catalog, indexes, stats, nodes.as_deref_mut())?;
                let r = self.run(right, catalog, indexes, stats, nodes.as_deref_mut())?;
                split_rows(&l, &r, group_cols, left.schema.arity())
            }
            PlanNode::TemporalAggregate {
                input,
                group_cols,
                aggs,
                add_gap_neutral,
                domain,
            } => {
                let input_rows = self.run(input, catalog, indexes, stats, nodes.as_deref_mut())?;
                let arg_types = agg_arg_types(aggs, &input.schema)?;
                temporal_aggregate(
                    &input_rows,
                    input.schema.arity(),
                    group_cols,
                    aggs,
                    &arg_types,
                    *add_gap_neutral,
                    *domain,
                )
            }
            PlanNode::TemporalExceptAll { left, right } => {
                let l = self.run(left, catalog, indexes, stats, nodes.as_deref_mut())?;
                let r = self.run(right, catalog, indexes, stats, nodes.as_deref_mut())?;
                temporal_except_all(&l, &r, left.schema.arity())
            }
        };
        span.record_rows(rows.len() as u64);
        stats.record(op_name(&plan.node), rows.len());
        if let (Some(nodes), Some(started)) = (nodes, started) {
            nodes.record(plan, rows.len(), started.elapsed());
        }
        if let Some(ctx) = &self.ctx {
            let n = rows.len() as u64;
            ctx.account.add_rows_emitted(n);
            // Approximate materialization: rows × arity × a 16-byte value.
            let arity = project.map_or(plan.schema.arity(), <[Expr]>::len);
            ctx.account.add_bytes_materialized(n * arity as u64 * 16);
            if matches!(
                plan.node,
                PlanNode::Scan { .. } | PlanNode::VirtualScan { .. } | PlanNode::Values { .. }
            ) {
                ctx.account.add_rows_scanned(n);
            }
            // Re-check after bumping so `max_rows_scanned` /
            // `max_result_rows` trip at the node that crossed them.
            ctx.check()?;
        }
        Ok(rows)
    }

    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        inputs: JoinInputs<'_>,
        condition: &Expr,
        project: Option<&[Expr]>,
        algo: JoinAlgo,
        catalog: &Catalog,
        indexes: Option<&IndexCatalog>,
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>, String> {
        let JoinInputs {
            left_plan,
            right_plan,
            left_rows: left,
            right_rows: right,
        } = inputs;
        let (l_schema, r_schema) = (&left_plan.schema, &right_plan.schema);
        let conjuncts = collect_conjuncts(condition);
        let equi: Vec<(usize, usize)> = conjuncts
            .iter()
            .filter_map(|c| equi_key(c, l_schema, r_schema))
            .collect();
        let overlap = overlap_pattern(&conjuncts, l_schema, r_schema);

        // Physical choice: the plan hint wins; Auto is index-aware. An
        // index is only usable for the sweep when it was built on the very
        // columns the overlap pattern sweeps (the trailing period pair) —
        // a table whose declared period sits elsewhere would hand the
        // sweep a begin order over the wrong columns.
        let (l_index, r_index) = match overlap {
            Some((lts, lte, rts, rte)) => (
                indexed_scan(left_plan, catalog, indexes)?
                    .filter(|(idx, _)| idx.period() == (lts, lte)),
                indexed_scan(right_plan, catalog, indexes)?
                    .filter(|(idx, _)| idx.period() == (rts, rte)),
            ),
            None => (None, None),
        };
        let both_indexed = l_index.is_some() && r_index.is_some();
        // Auto resolution: a pinned engine strategy routes every overlap
        // join its way (that is how the harness compares routes); otherwise
        // equality conjuncts win — the hash join sweeps each key's bucket
        // by interval, so it visits only pairs that match on the key *and*
        // overlap, while a global sweep visits every overlapping pair
        // across all keys. The indexed sweep is the automatic choice only
        // for *pure* overlap joins.
        let resolved = match algo {
            JoinAlgo::Auto => {
                let sweep_pinned = self.config.join_strategy == JoinStrategy::IndexSweep;
                if overlap.is_some() && (sweep_pinned || (both_indexed && equi.is_empty())) {
                    // A configured worker pool upgrades every Auto sweep
                    // to the slab-parallel route (identical bag by the
                    // credit rule; the differential tests enforce it).
                    if self.config.parallelism > 1 {
                        JoinAlgo::ParallelSweep
                    } else {
                        JoinAlgo::IndexSweep
                    }
                } else if overlap.is_some()
                    && self.config.join_strategy == JoinStrategy::MergeInterval
                {
                    JoinAlgo::MergeInterval
                } else if !equi.is_empty() {
                    JoinAlgo::Hash
                } else {
                    JoinAlgo::NestedLoop
                }
            }
            explicit => explicit,
        };

        let sink = |conjuncts| PairSink {
            conjuncts,
            project,
            ctx: self.ctx.as_ref(),
            pairs: 0,
            out: Vec::new(),
        };
        Ok(match resolved {
            JoinAlgo::ParallelSweep if overlap.is_some() => {
                let (lts, lte, rts, rte) = overlap.unwrap();
                let l_sorted: Vec<&Row> = match &l_index {
                    Some((idx, _)) => idx.events().begin_order().map(|i| &left[i]).collect(),
                    None => sorted_by_begin(left, lts),
                };
                let r_sorted: Vec<&Row> = match &r_index {
                    Some((idx, _)) => idx.events().begin_order().map(|i| &right[i]).collect(),
                    None => sorted_by_begin(right, rts),
                };
                // Slab boundaries follow the elementary intervals of the
                // join's endpoint domain; with both sides indexed they
                // come out of the prebuilt event lists in O(n).
                let boundaries = match (&l_index, &r_index) {
                    (Some((li, _)), Some((ri, _))) => {
                        elementary_boundaries_from_events(li.events(), ri.events())
                    }
                    _ => elementary_boundaries(&l_sorted, (lts, lte), &r_sorted, (rts, rte)),
                };
                let cuts = choose_cuts(&boundaries, self.config.parallelism.max(1));
                // Slab workers share one pair counter; every worker checks
                // the token each `CANCEL_CHECK_INTERVAL` pairs, so a kill
                // or timeout lands mid-sweep on every thread. The tally is
                // flushed to the resource account at the same cadence so
                // `snapshot_stat_progress` moves while the join runs.
                // Without a context no worker touches the shared counter.
                let sink = sink(&conjuncts);
                let pairs = AtomicU64::new(0);
                let (out, pstats) = try_parallel_sweep_join_presorted::<_, String, _>(
                    &l_sorted,
                    &r_sorted,
                    (lts, lte),
                    (rts, rte),
                    &cuts,
                    |lr, rr| {
                        if let Some(ctx) = &self.ctx {
                            let seen = pairs.fetch_add(1, Ordering::Relaxed) + 1;
                            if seen.is_multiple_of(CANCEL_CHECK_INTERVAL) {
                                ctx.account.add_join_pairs(CANCEL_CHECK_INTERVAL);
                                ctx.check()?;
                            }
                        }
                        Ok(sink.row(lr, rr))
                    },
                )?;
                if let Some(ctx) = &self.ctx {
                    ctx.account
                        .add_join_pairs(pairs.load(Ordering::Relaxed) % CANCEL_CHECK_INTERVAL);
                    ctx.account
                        .add_index_probes(if both_indexed { 2 } else { 0 });
                }
                stats.record("ParallelSweepJoin", out.len());
                stats.record("ParallelSweepSlabs", pstats.slabs);
                out
            }
            JoinAlgo::IndexSweep if overlap.is_some() => {
                let (lts, lte, rts, rte) = overlap.unwrap();
                // Indexed scans reuse the table's begin-sorted event list
                // (scan output preserves table row order, so the index row
                // ids address the materialized rows directly); other inputs
                // are sorted on the fly.
                let l_sorted: Vec<&Row> = match &l_index {
                    Some((idx, _)) => idx.events().begin_order().map(|i| &left[i]).collect(),
                    None => sorted_by_begin(left, lts),
                };
                let r_sorted: Vec<&Row> = match &r_index {
                    Some((idx, _)) => idx.events().begin_order().map(|i| &right[i]).collect(),
                    None => sorted_by_begin(right, rts),
                };
                let mut sink = sink(&conjuncts);
                try_sweep_join_presorted(&l_sorted, &r_sorted, (lts, lte), (rts, rte), |l, r| {
                    sink.visit(l, r)
                })?;
                if let Some(ctx) = &self.ctx {
                    ctx.account
                        .add_index_probes(if both_indexed { 2 } else { 0 });
                }
                let out = sink.finish();
                stats.record(
                    if both_indexed {
                        "IndexSweepJoin"
                    } else {
                        "SweepJoin"
                    },
                    out.len(),
                );
                out
            }
            JoinAlgo::MergeInterval if overlap.is_some() => {
                let mut sink = sink(&conjuncts);
                merge_interval_join(left, right, overlap.unwrap(), &mut sink)?;
                let out = sink.finish();
                stats.record("MergeIntervalJoin", out.len());
                out
            }
            JoinAlgo::Hash
            | JoinAlgo::IndexSweep
            | JoinAlgo::ParallelSweep
            | JoinAlgo::MergeInterval
                if !equi.is_empty() =>
            {
                // Hashing proves a key conjunct for every pair it pairs up,
                // except on `DOUBLE` keys, whose buckets are only a superset
                // (`NaN` shares a bucket with itself). The bucket sweep is a
                // superset too (exact only for non-empty intervals), so the
                // overlap conjuncts stay in the residual.
                let residual: Vec<&Expr> = conjuncts
                    .iter()
                    .copied()
                    .filter(|c| {
                        !equi_key(c, l_schema, r_schema)
                            .is_some_and(|(li, _)| l_schema.column(li).ty != SqlType::Double)
                    })
                    .collect();
                let mut sink = sink(&residual);
                hash_join(left, right, &equi, overlap, &mut sink)?;
                let out = sink.finish();
                stats.record("HashJoin", out.len());
                out
            }
            _ => {
                // Nested loop fallback.
                let mut sink = sink(&conjuncts);
                for l in left {
                    for r in right {
                        sink.visit(l, r)?;
                    }
                }
                let out = sink.finish();
                stats.record("NestedLoopJoin", out.len());
                out
            }
        })
    }
}

/// Builds a statement's result table. A row that does not fit the plan's
/// schema is an error for the statement, never a panic.
fn result_table(plan: &Plan, rows: Vec<Row>) -> Result<Table, String> {
    let mut table = Table::new(plan.schema.clone());
    table.try_extend(rows)?;
    Ok(table)
}

/// Where a join kernel hands every pair it visits. The condition's
/// conjuncts are checked on the borrowed pair (see [`crate::Columns`]), and
/// only a pair that passes allocates its output row: the concatenation,
/// or, when the join's parent `Project` is fused into it, the projected
/// row. Sequential kernels [`PairSink::visit`] each pair, which also keeps
/// the statement's join-pair tally (the resource account is bumped and the
/// cancel token polled every `CANCEL_CHECK_INTERVAL` pairs); the parallel
/// sweep's workers share the sink and call [`PairSink::row`].
struct PairSink<'a> {
    conjuncts: &'a [&'a Expr],
    project: Option<&'a [Expr]>,
    ctx: Option<&'a ExecContext>,
    pairs: u64,
    out: Vec<Row>,
}

impl PairSink<'_> {
    #[inline]
    fn row(&self, l: &Row, r: &Row) -> Option<Row> {
        let pair = (l, r);
        if !self.conjuncts.iter().all(|c| eval_predicate(c, &pair)) {
            return None;
        }
        Some(match self.project {
            Some(exprs) => Row::new(exprs.iter().map(|e| eval_expr(e, &pair)).collect()),
            None => l.concat(r),
        })
    }

    #[inline]
    fn visit(&mut self, l: &Row, r: &Row) -> Result<(), String> {
        if let Some(ctx) = self.ctx {
            self.pairs += 1;
            if self.pairs.is_multiple_of(CANCEL_CHECK_INTERVAL) {
                ctx.account.add_join_pairs(CANCEL_CHECK_INTERVAL);
                ctx.check()?;
            }
        }
        if let Some(row) = self.row(l, r) {
            self.out.push(row);
        }
        Ok(())
    }

    /// The emitted rows; flushes the visited pairs not yet accounted.
    fn finish(self) -> Vec<Row> {
        if let Some(ctx) = self.ctx {
            ctx.account
                .add_join_pairs(self.pairs % CANCEL_CHECK_INTERVAL);
        }
        self.out
    }
}

/// The materialized inputs of a join together with their plans (the plans
/// carry the schemas and reveal indexed scans).
struct JoinInputs<'a> {
    left_plan: &'a Plan,
    right_plan: &'a Plan,
    left_rows: &'a [Row],
    right_rows: &'a [Row],
}

/// When `plan` is a scan of a table with a fresh index, returns the index
/// and the table. Errors only when the scanned table vanished from the
/// catalog.
fn indexed_scan<'a>(
    plan: &Plan,
    catalog: &'a Catalog,
    indexes: Option<&'a IndexCatalog>,
) -> Result<Option<(&'a index::TableIndex, &'a Table)>, String> {
    let Some(reg) = indexes else {
        return Ok(None);
    };
    let PlanNode::Scan { table } = &plan.node else {
        return Ok(None);
    };
    let t = catalog.require(table)?;
    if t.schema().arity() != plan.schema.arity() {
        return Ok(None); // stale binding: let the naive path report it
    }
    Ok(reg.get_fresh(table, t).map(|idx| (idx, t)))
}

/// Row references sorted ascending by the `ts` column.
fn sorted_by_begin(rows: &[Row], ts: usize) -> Vec<&Row> {
    let mut v: Vec<&Row> = rows.iter().collect();
    v.sort_by_key(|r| r.int(ts));
    v
}

fn op_name(node: &PlanNode) -> &'static str {
    match node {
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

fn collect_conjuncts(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(e, &mut out);
    out
}

/// A cross-side `left_col = right_col` conjunct as local `(left, right)`
/// column indices. Only same-typed pairs qualify: SQL `=` matches `INT`
/// against `DOUBLE` numerically, which hashing `Value`s cannot.
fn equi_key(c: &Expr, l: &Schema, r: &Schema) -> Option<(usize, usize)> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    let (Expr::Col(i), Expr::Col(j)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    let la = l.arity();
    let (li, ri) = if *i < la && *j >= la {
        (*i, *j - la)
    } else if *j < la && *i >= la {
        (*j, *i - la)
    } else {
        return None;
    };
    let ty = l.column(li).ty;
    (ri < r.arity() && r.column(ri).ty == ty).then_some((li, ri))
}

/// Detects the `overlaps` pattern produced by the rewriter:
/// `Col(lts) < Col(rte) AND Col(rts) < Col(lte)` on the trailing period
/// columns of both inputs, which must be `INT`. Returns local indices
/// `(lts, lte, rts, rte)`.
fn overlap_pattern(
    conjuncts: &[&Expr],
    l: &Schema,
    r: &Schema,
) -> Option<(usize, usize, usize, usize)> {
    let (la, ra) = (l.arity(), r.arity());
    if la < 2 || ra < 2 {
        return None;
    }
    let (lts, lte, rts, rte) = (la - 2, la - 1, ra - 2, ra - 1);
    let int = |s: &Schema, i: usize| s.column(i).ty == SqlType::Int;
    if !(int(l, lts) && int(l, lte) && int(r, rts) && int(r, rte)) {
        return None;
    }
    let mut has_l_lt_r = false;
    let mut has_r_lt_l = false;
    // lint:allow(cancellation) bounded by predicate size
    for c in conjuncts {
        if let Expr::Binary {
            op: BinOp::Lt,
            left,
            right,
        } = c
        {
            if let (Expr::Col(i), Expr::Col(j)) = (left.as_ref(), right.as_ref()) {
                if *i == lts && *j == la + rte {
                    has_l_lt_r = true;
                }
                if *i == la + rts && *j == lte {
                    has_r_lt_l = true;
                }
            }
        }
    }
    (has_l_lt_r && has_r_lt_l).then_some((lts, lte, rts, rte))
}

/// A row's join key, borrowed: hashes and compares the values at `cols`,
/// so neither side clones key values. `-0.0` is folded into `0.0` so that
/// every pair SQL `=` matches shares a bucket.
struct KeyRef<'a> {
    row: &'a Row,
    cols: &'a [usize],
}

impl std::hash::Hash for KeyRef<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // lint:allow(cancellation) bounded by join-key arity
        for &c in self.cols {
            key_value(self.row.get(c)).hash(state);
        }
    }
}

impl PartialEq for KeyRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cols
            .iter()
            .zip(other.cols)
            .all(|(&a, &b)| key_value(self.row.get(a)) == key_value(other.row.get(b)))
    }
}

impl Eq for KeyRef<'_> {}

static POSITIVE_ZERO: Value = Value::Double(0.0);

fn key_value(v: &Value) -> &Value {
    match v {
        Value::Double(d) if *d == 0.0 => &POSITIVE_ZERO,
        v => v,
    }
}

/// Whether a row can join at all: no NULL key (NULL never equals), and,
/// when the condition requires overlap, an `INT` period (a NULL endpoint
/// makes the overlap test unknown).
fn joinable(row: &Row, keys: &[usize], period: Option<(usize, usize)>) -> bool {
    keys.iter().all(|&k| !row.get(k).is_null())
        && period
            .is_none_or(|(ts, te)| row.get(ts).as_int().is_some() && row.get(te).as_int().is_some())
}

/// Hash join on `keys`: the smaller side is hashed into buckets of rows
/// sharing a key, and the larger side's rows are dropped into the bucket of
/// their key (rows whose key the build side lacks go nowhere). Each bucket
/// then pairs its two halves: with an overlap pattern `(lts, lte, rts,
/// rte)` both halves are sorted by begin and swept, so only pairs that
/// match on the key *and* overlap are visited (plus, for empty or inverted
/// intervals, some that do not); without one, every pair is. Visited pairs
/// go to `sink`, whose conjuncts are the residual: all but the keys hashing
/// proves.
fn hash_join(
    left: &[Row],
    right: &[Row],
    keys: &[(usize, usize)],
    overlap: Option<(usize, usize, usize, usize)>,
    sink: &mut PairSink<'_>,
) -> Result<(), String> {
    let ctx = sink.ctx;
    let (l_keys, r_keys): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
    let l_side = (
        left,
        &l_keys[..],
        overlap.map(|(lts, lte, _, _)| (lts, lte)),
    );
    let r_side = (
        right,
        &r_keys[..],
        overlap.map(|(_, _, rts, rte)| (rts, rte)),
    );
    // Build on the smaller side; probe with the larger. Each bucket holds
    // the left and the right rows (`[0]` and `[1]`) sharing one build key.
    let (build, probe, build_slot) = if left.len() <= right.len() {
        (l_side, r_side, 0)
    } else {
        (r_side, l_side, 1)
    };
    let mut ids: HashMap<KeyRef<'_>, usize> = HashMap::with_capacity(build.0.len());
    let mut buckets: Vec<[Vec<&Row>; 2]> = Vec::new();
    let (build_rows, build_keys, build_period) = build;
    for (n, row) in build_rows.iter().enumerate() {
        if let Some(ctx) = ctx {
            // The build side can be arbitrarily large; poll the token at
            // the same cadence as the pair counting below.
            if (n as u64 + 1).is_multiple_of(CANCEL_CHECK_INTERVAL) {
                ctx.check()?;
            }
        }
        if !joinable(row, build_keys, build_period) {
            continue;
        }
        let key = KeyRef {
            row,
            cols: build_keys,
        };
        let id = *ids.entry(key).or_insert_with(|| {
            buckets.push([Vec::new(), Vec::new()]);
            buckets.len() - 1
        });
        buckets[id][build_slot].push(row);
    }
    let (probe_rows, probe_keys, probe_period) = probe;
    for (n, row) in probe_rows.iter().enumerate() {
        if let Some(ctx) = ctx {
            if (n as u64 + 1).is_multiple_of(CANCEL_CHECK_INTERVAL) {
                ctx.check()?;
            }
        }
        if !joinable(row, probe_keys, probe_period) {
            continue;
        }
        let key = KeyRef {
            row,
            cols: probe_keys,
        };
        if let Some(&id) = ids.get(&key) {
            buckets[id][1 - build_slot].push(row);
        }
    }

    for [l_rows, r_rows] in &mut buckets {
        match overlap {
            Some((lts, lte, rts, rte)) => {
                l_rows.sort_unstable_by_key(|r| r.int(lts));
                r_rows.sort_unstable_by_key(|r| r.int(rts));
                try_sweep_join_presorted(l_rows, r_rows, (lts, lte), (rts, rte), |l, r| {
                    sink.visit(l, r)
                })?;
            }
            None => {
                for &l in l_rows.iter() {
                    for &r in r_rows.iter() {
                        sink.visit(l, r)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Forward-scan plane sweep over interval overlap (Bouros & Mamoulis style):
/// both sides sorted by interval begin; each overlapping pair is visited
/// exactly once and handed to `sink`, which checks the full join condition.
fn merge_interval_join(
    left: &[Row],
    right: &[Row],
    (lts, lte, rts, rte): (usize, usize, usize, usize),
    sink: &mut PairSink<'_>,
) -> Result<(), String> {
    let mut l: Vec<&Row> = left.iter().collect();
    let mut r: Vec<&Row> = right.iter().collect();
    l.sort_by_key(|row| row.int(lts));
    r.sort_by_key(|row| row.int(rts));

    let (mut i, mut j) = (0usize, 0usize);
    while i < l.len() && j < r.len() {
        if l[i].int(lts) <= r[j].int(rts) {
            let end = l[i].int(lte);
            let mut k = j;
            while k < r.len() && r[k].int(rts) < end {
                sink.visit(l[i], r[k])?;
                k += 1;
            }
            i += 1;
        } else {
            let end = r[j].int(rte);
            let mut k = i;
            while k < l.len() && l[k].int(lts) < end {
                sink.visit(l[k], r[j])?;
                k += 1;
            }
            j += 1;
        }
    }
    Ok(())
}

fn except_all(left: Vec<Row>, right: &[Row]) -> Vec<Row> {
    let mut counts: HashMap<&Row, usize> = HashMap::with_capacity(right.len());
    // lint:allow(cancellation) single linear counting pass, no pair blowup
    for r in right {
        *counts.entry(r).or_insert(0) += 1;
    }
    left.into_iter()
        .filter(|l| {
            if let Some(c) = counts.get_mut(l) {
                if *c > 0 {
                    *c -= 1;
                    return false;
                }
            }
            true
        })
        .collect()
}

fn hash_aggregate(
    rows: &[Row],
    group_cols: &[usize],
    aggs: &[algebra::AggExpr],
    arg_types: &[storage::SqlType],
) -> Vec<Row> {
    let new_state = || -> Vec<SlidingAgg> {
        aggs.iter()
            .zip(arg_types)
            .map(|(a, ty)| SlidingAgg::new(a.func.clone(), *ty))
            .collect()
    };
    let mut groups: BTreeMap<Vec<Value>, Vec<SlidingAgg>> = BTreeMap::new();
    // lint:allow(cancellation) single linear pass over already-checked input
    for r in rows {
        let key: Vec<Value> = group_cols.iter().map(|&i| r.get(i).clone()).collect();
        let state = groups.entry(key).or_insert_with(new_state);
        for (a, s) in aggs.iter().zip(state.iter_mut()) {
            let mut p = Partial::new();
            let v = match &a.arg {
                Some(e) => eval_expr(e, r),
                None => Value::Int(1),
            };
            p.add_value(&v);
            s.add(&p);
        }
    }
    // Global aggregation produces one row even over empty input.
    if group_cols.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), new_state());
    }
    groups
        .into_iter()
        .map(|(mut key, state)| {
            key.extend(state.iter().map(|s| s.current()));
            Row::new(key)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::{AggExpr, AggFunc};
    use storage::{row, Schema, SqlType};

    fn works_catalog() -> Catalog {
        let schema = Schema::of(&[
            ("name", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut t = Table::with_period(schema, 2, 3);
        t.push(row!["Ann", "SP", 3, 10]);
        t.push(row!["Joe", "NS", 8, 16]);
        t.push(row!["Sam", "SP", 8, 16]);
        t.push(row!["Ann", "SP", 18, 20]);
        let mut c = Catalog::new();
        c.register("works", t);
        c
    }

    fn works_schema() -> Schema {
        works_catalog().get("works").unwrap().schema().clone()
    }

    #[test]
    fn scan_filter_project() {
        let c = works_catalog();
        let plan = Plan::scan("works", works_schema())
            .filter(Expr::col(1).eq(Expr::lit("SP")))
            .project_cols(&[0]);
        let out = Engine::new().execute(&plan, &c).unwrap();
        let mut names: Vec<String> = out.rows().iter().map(|r| r.get(0).to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["Ann", "Ann", "Sam"]);
    }

    #[test]
    fn hash_join_with_residual() {
        let c = works_catalog();
        let l = Plan::scan("works", works_schema());
        let r = Plan::scan("works", works_schema());
        // Self-join on skill with a residual inequality on names.
        let cond =
            Expr::col(1)
                .eq(Expr::col(5))
                .and(Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(4)));
        let plan = l.join(r, cond);
        let out = Engine::new().execute(&plan, &c).unwrap();
        // SP pairs with name_l < name_r: (Ann,Sam) twice (two Ann rows).
        assert_eq!(out.len(), 2);
        for row in out.rows() {
            assert_eq!(row.get(0), &Value::str("Ann"));
            assert_eq!(row.get(4), &Value::str("Sam"));
        }
    }

    #[test]
    fn join_null_keys_never_match() {
        let schema = Schema::of(&[("k", SqlType::Int)]);
        let mut t = Table::new(schema.clone());
        t.push(Row::new(vec![Value::Null]));
        t.push(row![1]);
        let mut c = Catalog::new();
        c.register("t", t);
        let plan = Plan::scan("t", schema.clone())
            .join(Plan::scan("t", schema), Expr::col(0).eq(Expr::col(1)));
        let out = Engine::new().execute(&plan, &c).unwrap();
        assert_eq!(out.len(), 1); // only (1,1)
    }

    #[test]
    fn merge_interval_join_matches_hash() {
        let c = works_catalog();
        let (lts, lte) = (2, 3);
        let (rts_g, rte_g) = (6, 7);
        let cond = Expr::col(1)
            .eq(Expr::col(5))
            .and(Expr::col(lts).lt(Expr::col(rte_g)))
            .and(Expr::col(rts_g).lt(Expr::col(lte)));
        let plan =
            Plan::scan("works", works_schema()).join(Plan::scan("works", works_schema()), cond);

        let hash = Engine::new().execute(&plan, &c).unwrap().canonicalized();
        let merge = Engine::with_config(EngineConfig {
            join_strategy: JoinStrategy::MergeInterval,
            ..EngineConfig::default()
        })
        .execute(&plan, &c)
        .unwrap()
        .canonicalized();
        assert_eq!(hash, merge);
        assert!(
            hash.len() >= 4,
            "self overlap join must match each row with itself"
        );
    }

    #[test]
    fn except_all_is_bag_difference() {
        let schema = Schema::of(&[("x", SqlType::Int)]);
        let l = Plan::values(schema.clone(), vec![row![1], row![1], row![1], row![2]]);
        let r = Plan::values(schema, vec![row![1], row![3]]);
        let plan = l.except_all(r).unwrap();
        let out = Engine::new().execute(&plan, &Catalog::new()).unwrap();
        let mut xs: Vec<i64> = out.rows().iter().map(|r| r.int(0)).collect();
        xs.sort();
        assert_eq!(xs, vec![1, 1, 2]); // one 1 removed, not all (no BD bug)
    }

    #[test]
    fn aggregation_groups_and_global() {
        let c = works_catalog();
        let plan = Plan::scan("works", works_schema())
            .aggregate(vec![1], vec![AggExpr::count_star("cnt")])
            .unwrap();
        let out = Engine::new().execute(&plan, &c).unwrap();
        let mut got: Vec<(String, i64)> = out
            .rows()
            .iter()
            .map(|r| (r.get(0).to_string(), r.int(1)))
            .collect();
        got.sort();
        assert_eq!(got, vec![("NS".into(), 1), ("SP".into(), 3)]);

        // Global count over empty input yields one row with 0.
        let empty = Plan::values(works_schema(), vec![])
            .aggregate(vec![], vec![AggExpr::count_star("cnt")])
            .unwrap();
        let out = Engine::new().execute(&empty, &Catalog::new()).unwrap();
        assert_eq!(out.rows(), &[row![0]]);
    }

    #[test]
    fn aggregation_min_max_sum_avg() {
        let schema = Schema::of(&[("g", SqlType::Str), ("v", SqlType::Int)]);
        let plan = Plan::values(schema, vec![row!["a", 1], row!["a", 5], row!["b", 10]])
            .aggregate(
                vec![0],
                vec![
                    AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
                    AggExpr::new(AggFunc::Avg, Expr::col(1), "avg"),
                    AggExpr::new(AggFunc::Min, Expr::col(1), "lo"),
                    AggExpr::new(AggFunc::Max, Expr::col(1), "hi"),
                ],
            )
            .unwrap();
        let out = Engine::new().execute(&plan, &Catalog::new()).unwrap();
        let rows = out.canonicalized();
        assert_eq!(
            rows.rows(),
            &[row!["a", 6, 3.0, 1, 5], row!["b", 10, 10.0, 10, 10]]
        );
    }

    #[test]
    fn distinct_and_sort() {
        let schema = Schema::of(&[("x", SqlType::Int)]);
        let plan = Plan::values(schema, vec![row![3], row![1], row![3], row![2]])
            .distinct()
            .sort(vec![(Expr::col(0), false)]);
        let out = Engine::new().execute(&plan, &Catalog::new()).unwrap();
        assert_eq!(out.rows(), &[row![3], row![2], row![1]]);
    }

    #[test]
    fn stats_are_collected() {
        let c = works_catalog();
        let plan = Plan::scan("works", works_schema()).filter(Expr::col(1).eq(Expr::lit("SP")));
        let mut stats = ExecStats::default();
        Engine::new()
            .execute_with_stats(&plan, &c, &mut stats)
            .unwrap();
        assert_eq!(stats.get("Scan"), Some((1, 4)));
        assert_eq!(stats.get("Filter"), Some((1, 3)));
    }

    #[test]
    fn wrong_arity_result_row_is_an_error_not_a_panic() {
        // A plan whose rows do not fit its schema (built around the
        // arity-checking constructor) fails the statement on every entry
        // point instead of panicking while the result table is built.
        let plan = Plan {
            node: PlanNode::Values {
                rows: vec![row![1], row![2, 3]],
            },
            schema: Schema::of(&[("x", SqlType::Int)]),
        };
        let c = Catalog::new();
        let indexes = IndexCatalog::default();
        let mut stats = ExecStats::default();
        let errs = [
            Engine::new().execute_with_stats(&plan, &c, &mut stats),
            Engine::new().execute_indexed_with_stats(&plan, &c, &indexes, &mut stats),
            Engine::new().execute_analyzed(&plan, &c, None, &mut stats, &mut NodeStats::default()),
        ];
        for err in errs {
            assert!(err.unwrap_err().contains("arity"));
        }
    }

    #[test]
    fn unknown_table_is_an_error() {
        let plan = Plan::scan("nope", works_schema());
        let err = Engine::new().execute(&plan, &Catalog::new()).unwrap_err();
        assert!(err.contains("unknown table"));
    }

    /// Equality on skill plus the rewriter's overlap pattern.
    fn equi_overlap_self_join_plan() -> Plan {
        let (lts, lte) = (2, 3);
        let (rts_g, rte_g) = (6, 7);
        let cond = Expr::col(1)
            .eq(Expr::col(5))
            .and(Expr::col(lts).lt(Expr::col(rte_g)))
            .and(Expr::col(rts_g).lt(Expr::col(lte)));
        Plan::scan("works", works_schema()).join(Plan::scan("works", works_schema()), cond)
    }

    /// Pure overlap join (non-equality residual on names).
    fn pure_overlap_self_join_plan() -> Plan {
        let (lts, lte) = (2, 3);
        let (rts_g, rte_g) = (6, 7);
        let cond = Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(4))
            .and(Expr::col(lts).lt(Expr::col(rte_g)))
            .and(Expr::col(rts_g).lt(Expr::col(lte)));
        Plan::scan("works", works_schema()).join(Plan::scan("works", works_schema()), cond)
    }

    #[test]
    fn indexed_sweep_join_matches_naive_and_is_dispatched() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        let plan = pure_overlap_self_join_plan();

        let naive = Engine::new().execute(&plan, &c).unwrap().canonicalized();
        let mut stats = ExecStats::default();
        let indexed = Engine::new()
            .execute_indexed_with_stats(&plan, &c, &indexes, &mut stats)
            .unwrap()
            .canonicalized();
        assert_eq!(naive, indexed);
        assert!(
            stats.get("IndexSweepJoin").is_some(),
            "indexed dispatch must be taken: {stats:?}"
        );
    }

    #[test]
    fn equi_keys_beat_the_sweep_under_auto() {
        // Equality conjuncts present: hash is the selective choice even
        // with fresh indexes on both sides — it sweeps each key's bucket,
        // visiting only key-matching overlapping pairs, while the global
        // sweep visits every overlapping pair across all keys.
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        let plan = equi_overlap_self_join_plan();
        let hash = Engine::new().execute(&plan, &c).unwrap().canonicalized();
        let mut stats = ExecStats::default();
        let indexed = Engine::new()
            .execute_indexed_with_stats(&plan, &c, &indexes, &mut stats)
            .unwrap()
            .canonicalized();
        assert_eq!(hash, indexed);
        assert!(
            stats.get("IndexSweepJoin").is_none() && stats.get("SweepJoin").is_none(),
            "Auto must pick hash over the sweep for equi joins: {stats:?}"
        );
    }

    #[test]
    fn hash_join_visits_only_key_matching_overlapping_pairs() {
        let c = works_catalog();
        let rows = c.get("works").unwrap().rows();
        let expected = rows
            .iter()
            .flat_map(|l| rows.iter().map(move |r| (l, r)))
            .filter(|(l, r)| l.get(1) == r.get(1) && l.int(2) < r.int(3) && r.int(2) < l.int(3))
            .count() as u64;
        let account = Arc::new(obs::ResourceAccount::default());
        let token = Arc::new(obs::CancelToken::default());
        token.arm(None, None, None);
        let engine = Engine::new().with_context(ExecContext::new(Arc::clone(&account), token));
        let mut stats = ExecStats::default();
        let out = engine
            .execute_with_stats(&equi_overlap_self_join_plan(), &c, &mut stats)
            .unwrap();
        assert_eq!(stats.get("HashJoin"), Some((1, expected)));
        assert_eq!(out.len() as u64, expected);
        // Valid periods: every visited pair overlaps and is emitted.
        assert_eq!(account.usage().join_pairs, expected);
    }

    #[test]
    fn hash_join_skips_null_periods_and_touching_intervals() {
        let schema = Schema::of(&[
            ("k", SqlType::Int),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut t = Table::new(schema.clone());
        t.push(row![1, 0, 5]);
        t.push(row![1, 5, 9]); // touches [0,5) and [9,12): joins only itself
        t.push(row![1, 9, 12]);
        t.push(Row::new(vec![Value::Int(1), Value::Null, Value::Int(7)]));
        let mut c = Catalog::new();
        c.register("t", t);
        let cond = Expr::col(0)
            .eq(Expr::col(3))
            .and(Expr::col(1).lt(Expr::col(5)))
            .and(Expr::col(4).lt(Expr::col(2)));
        let plan = Plan::scan("t", schema.clone()).join(Plan::scan("t", schema), cond);
        let mut stats = ExecStats::default();
        let out = Engine::new()
            .execute_with_stats(&plan, &c, &mut stats)
            .unwrap();
        assert!(stats.get("HashJoin").is_some(), "{stats:?}");
        let nested = Engine::new()
            .execute(&plan_with_algo(&plan, JoinAlgo::NestedLoop), &c)
            .unwrap();
        assert_eq!(out.canonicalized(), nested.canonicalized());
        // Each non-NULL interval overlaps only itself.
        assert_eq!(out.len(), 3);
    }

    fn plan_with_algo(plan: &Plan, algo: JoinAlgo) -> Plan {
        let PlanNode::Join {
            left,
            right,
            condition,
            ..
        } = &plan.node
        else {
            panic!("not a join")
        };
        (**left)
            .clone()
            .join_with((**right).clone(), condition.clone(), algo)
    }

    #[test]
    fn stale_index_falls_back_to_naive_join() {
        let mut c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        // Mutate the table after indexing: version mismatch → fallback.
        let mut t = c.get("works").unwrap().clone();
        t.push(row!["Eve", "SP", 0, 2]);
        c.register("works", t);

        let plan = pure_overlap_self_join_plan();
        let mut stats = ExecStats::default();
        let indexed = Engine::new()
            .execute_indexed_with_stats(&plan, &c, &indexes, &mut stats)
            .unwrap()
            .canonicalized();
        assert!(
            stats.get("IndexSweepJoin").is_none(),
            "must not use stale index"
        );
        let naive = Engine::new().execute(&plan, &c).unwrap().canonicalized();
        assert_eq!(naive, indexed);
    }

    #[test]
    fn explicit_sweep_without_indexes_matches_hash() {
        let c = works_catalog();
        let plan = {
            let (lts, lte) = (2, 3);
            let (rts_g, rte_g) = (6, 7);
            let cond = Expr::col(1)
                .eq(Expr::col(5))
                .and(Expr::col(lts).lt(Expr::col(rte_g)))
                .and(Expr::col(rts_g).lt(Expr::col(lte)));
            Plan::scan("works", works_schema()).join_with(
                Plan::scan("works", works_schema()),
                cond,
                algebra::JoinAlgo::IndexSweep,
            )
        };
        let mut stats = ExecStats::default();
        let sweep = Engine::new()
            .execute_with_stats(&plan, &c, &mut stats)
            .unwrap()
            .canonicalized();
        assert!(
            stats.get("SweepJoin").is_some(),
            "sort-on-the-fly sweep used"
        );
        let hash = Engine::new()
            .execute(&equi_overlap_self_join_plan(), &c)
            .unwrap()
            .canonicalized();
        assert_eq!(hash, sweep);
    }

    #[test]
    fn index_on_non_sweep_columns_is_not_used_for_the_sweep() {
        // The table's declared period is columns (0, 1), but the overlap
        // pattern always sweeps the trailing two columns (2, 3) of each
        // side. The index's begin order is over the wrong columns, so the
        // engine must ignore it (hash fallback), not feed it to the sweep.
        let schema = Schema::of(&[
            ("a", SqlType::Int),
            ("b", SqlType::Int),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut t = Table::with_period(schema.clone(), 0, 1);
        // Declared period (cols 0..1) deliberately orders differently than
        // the trailing columns the join sweeps.
        t.push(row![1, 9, 5, 7]);
        t.push(row![2, 9, 0, 6]);
        t.push(row![3, 9, 6, 8]);
        let mut c = Catalog::new();
        c.register("t", t);
        let indexes = IndexCatalog::build_all(&c);
        assert_eq!(indexes.len(), 1, "the (0,1) period is indexed");

        let (lts, lte) = (2, 3);
        let (rts_g, rte_g) = (6, 7);
        let cond = Expr::col(lts)
            .lt(Expr::col(rte_g))
            .and(Expr::col(rts_g).lt(Expr::col(lte)));
        let plan = Plan::scan("t", schema.clone()).join(Plan::scan("t", schema), cond);
        let naive = Engine::new().execute(&plan, &c).unwrap().canonicalized();
        let mut stats = ExecStats::default();
        let indexed = Engine::new()
            .execute_indexed_with_stats(&plan, &c, &indexes, &mut stats)
            .unwrap()
            .canonicalized();
        assert_eq!(naive, indexed);
        assert!(
            stats.get("IndexSweepJoin").is_none(),
            "mismatched period columns must not drive the sweep: {stats:?}"
        );
    }

    #[test]
    fn parallel_sweep_matches_sequential_and_is_dispatched() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        let plan = pure_overlap_self_join_plan();
        let sequential = Engine::new()
            .execute_indexed(&plan, &c, &indexes)
            .unwrap()
            .canonicalized();
        for parallelism in [1usize, 2, 4, 8] {
            let mut stats = ExecStats::default();
            let parallel = Engine::with_parallelism(parallelism)
                .execute_indexed_with_stats(&plan, &c, &indexes, &mut stats)
                .unwrap()
                .canonicalized();
            assert_eq!(sequential, parallel, "parallelism {parallelism}");
            if parallelism > 1 {
                assert!(
                    stats.get("ParallelSweepJoin").is_some(),
                    "Auto must route to the parallel sweep at parallelism \
                     {parallelism}: {stats:?}"
                );
            } else {
                assert!(
                    stats.get("IndexSweepJoin").is_some(),
                    "parallelism 1 keeps the sequential sweep: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn explicit_parallel_sweep_hint_without_indexes() {
        // The hint works on non-indexed inputs too (sort-on-the-fly), and
        // falls back to hash when the condition has no overlap pattern.
        let c = works_catalog();
        let plan = {
            let (lts, lte) = (2, 3);
            let (rts_g, rte_g) = (6, 7);
            let cond = Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(4))
                .and(Expr::col(lts).lt(Expr::col(rte_g)))
                .and(Expr::col(rts_g).lt(Expr::col(lte)));
            Plan::scan("works", works_schema()).join_with(
                Plan::scan("works", works_schema()),
                cond,
                algebra::JoinAlgo::ParallelSweep,
            )
        };
        let mut stats = ExecStats::default();
        let parallel = Engine::with_parallelism(3)
            .execute_with_stats(&plan, &c, &mut stats)
            .unwrap()
            .canonicalized();
        assert!(stats.get("ParallelSweepJoin").is_some(), "{stats:?}");
        let naive = Engine::new()
            .execute(&pure_overlap_self_join_plan(), &c)
            .unwrap()
            .canonicalized();
        assert_eq!(naive, parallel);

        // Equality-only condition: no overlap pattern, hash fallback.
        let equi = Plan::scan("works", works_schema()).join_with(
            Plan::scan("works", works_schema()),
            Expr::col(0).eq(Expr::col(4)),
            algebra::JoinAlgo::ParallelSweep,
        );
        let mut stats = ExecStats::default();
        Engine::with_parallelism(3)
            .execute_with_stats(&equi, &c, &mut stats)
            .unwrap();
        assert!(stats.get("ParallelSweepJoin").is_none(), "{stats:?}");
    }

    #[test]
    fn context_accounts_and_cancels() {
        let c = works_catalog();
        let account = Arc::new(obs::ResourceAccount::default());
        let token = Arc::new(obs::CancelToken::default());
        token.arm(None, None, None);
        let engine =
            Engine::new().with_context(ExecContext::new(Arc::clone(&account), Arc::clone(&token)));
        let plan = Plan::scan("works", works_schema()).filter(Expr::col(1).eq(Expr::lit("SP")));
        engine.execute(&plan, &c).unwrap();
        let usage = account.usage();
        assert_eq!(usage.rows_scanned, 4, "scan accounted");
        assert_eq!(usage.rows_emitted, 4 + 3, "scan + filter outputs");
        assert!(usage.bytes_materialized > 0);

        // A pre-tripped token fails execution with the cancel marker, and
        // the result is an error, not a partial table.
        token.cancel(obs::CancelKind::Killed);
        let err = engine.execute(&plan, &c).unwrap_err();
        assert!(obs::is_cancel_error(&err), "{err}");

        // A row-scan limit trips mid-plan.
        account.reset();
        token.arm(None, Some(2), None);
        let err = engine.execute(&plan, &c).unwrap_err();
        assert!(err.contains("max_rows_scanned"), "{err}");

        // Join pairs are accounted on the nested-loop path.
        account.reset();
        token.arm(None, None, None);
        let join = Plan::scan("works", works_schema()).join(
            Plan::scan("works", works_schema()),
            Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(4)),
        );
        engine.execute(&join, &c).unwrap();
        assert_eq!(account.usage().join_pairs, 16, "4x4 pairs considered");
    }

    #[test]
    fn timeslice_indexed_and_linear_agree() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        for at in -1..25 {
            let plan = Plan::scan("works", works_schema()).timeslice(at);
            let linear = Engine::new().execute(&plan, &c).unwrap();
            let mut stats = ExecStats::default();
            let indexed = Engine::new()
                .execute_indexed_with_stats(&plan, &c, &indexes, &mut stats)
                .unwrap();
            assert_eq!(linear, indexed, "timeslice at {at}");
            assert!(
                stats.get("IndexTimeslice").is_some(),
                "indexed stabbing must be taken"
            );
        }
    }

    #[test]
    fn timeslice_respects_linear_hint() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        let plan =
            Plan::scan("works", works_schema()).timeslice_with(9, algebra::TimesliceAlgo::Linear);
        let mut stats = ExecStats::default();
        let out = Engine::new()
            .execute_indexed_with_stats(&plan, &c, &indexes, &mut stats)
            .unwrap();
        assert!(stats.get("IndexTimeslice").is_none());
        assert_eq!(out.len(), 3); // Ann [3,10), Joe [8,16), Sam [8,16)
    }

    #[test]
    fn time_range_indexed_and_linear_agree() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        for b in -1..22 {
            for e in [b + 1, b + 4, b + 12] {
                let plan = Plan::scan("works", works_schema()).time_range(b, e);
                let linear = Engine::new()
                    .execute(
                        &Plan::scan("works", works_schema()).time_range_with(
                            b,
                            e,
                            algebra::TimesliceAlgo::Linear,
                        ),
                        &c,
                    )
                    .unwrap();
                let mut stats = ExecStats::default();
                let indexed = Engine::new()
                    .execute_indexed_with_stats(&plan, &c, &indexes, &mut stats)
                    .unwrap();
                assert_eq!(linear, indexed, "time range [{b}, {e})");
                assert!(
                    stats.get("IndexTimeRange").is_some(),
                    "indexed overlap probe must be taken"
                );
            }
        }
    }

    #[test]
    fn coalesce_over_indexed_scan_uses_accelerator() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        let plan = Plan::scan("works", works_schema()).coalesce();
        let naive = Engine::new().execute(&plan, &c).unwrap();
        let mut stats = ExecStats::default();
        let accel = Engine::new()
            .execute_indexed_with_stats(&plan, &c, &indexes, &mut stats)
            .unwrap();
        assert_eq!(naive, accel);
        assert!(
            stats.get("IndexCoalesce").is_some(),
            "accelerator must be taken"
        );
    }
}
