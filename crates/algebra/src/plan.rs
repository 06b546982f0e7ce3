//! Logical plans: multiset relational algebra plus the temporal operators
//! of the paper's implementation layer.

use crate::{AggExpr, Expr};
use std::fmt;
use storage::{Column, Row, Schema, SqlType};

/// Physical-choice hint on a join: how the engine should evaluate it.
///
/// `Auto` lets the engine pick — indexed sweep when the condition contains
/// the rewriter's interval-overlap pattern and both inputs are indexed
/// scans, otherwise the configured strategy. The explicit variants pin one
/// algorithm (with a safe fallback when the condition does not support it),
/// which is how the benchmark harness and the differential tests compare
/// routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgo {
    /// Engine decides (index-aware).
    #[default]
    Auto,
    /// Force the nested-loop join.
    NestedLoop,
    /// Force the hash join on equality conjuncts.
    Hash,
    /// Force the forward-scan merge interval join.
    MergeInterval,
    /// Force the endpoint-sweep (sort-merge) temporal join, reusing table
    /// event lists when the inputs are indexed scans.
    IndexSweep,
    /// Force the parallel endpoint-sweep temporal join: the endpoint
    /// domain is partitioned into contiguous time slabs along
    /// elementary-interval boundaries and swept on worker threads (the
    /// engine's configured parallelism decides the slab count; with
    /// parallelism 1 this degenerates to the sequential sweep).
    ParallelSweep,
}

/// Physical-choice hint on a timeslice: how the engine should evaluate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimesliceAlgo {
    /// Engine decides: interval-tree stabbing when the input is an indexed
    /// scan, linear filter otherwise.
    #[default]
    Auto,
    /// Force the linear scan-and-filter evaluation.
    Linear,
    /// Force interval-tree stabbing (falls back to linear when no fresh
    /// index is available).
    Index,
}

/// A logical plan node. See [`Plan`] for construction; every constructor
/// computes and validates the output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan of a catalog table.
    Scan {
        /// Table name in the catalog.
        table: String,
    },
    /// Scan of an introspection virtual table (see [`crate::vtab`]): the
    /// rows are materialized by the engine from observability state at
    /// execution time, not read from the catalog. Not a temporal
    /// relation — never valid under snapshot (`SEQ VT`) semantics.
    VirtualScan {
        /// Virtual table name (one of [`crate::vtab::VIRTUAL_TABLES`]).
        table: String,
    },
    /// Inline constant relation.
    Values {
        /// The rows.
        rows: Vec<Row>,
    },
    /// `σ_pred(input)`.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// `Π_exprs(input)` (multiset projection, no dedup).
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Projection expressions.
        exprs: Vec<Expr>,
    },
    /// Inner join with arbitrary condition over the concatenated schema.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Condition over `left.schema ++ right.schema` column positions.
        condition: Expr,
        /// Physical-choice hint (index-aware when [`JoinAlgo::Auto`]).
        algo: JoinAlgo,
    },
    /// `UNION ALL`.
    Union {
        /// Left input.
        left: Box<Plan>,
        /// Right input (schema must be union-compatible).
        right: Box<Plan>,
    },
    /// `EXCEPT ALL` (bag difference).
    ExceptAll {
        /// Left input.
        left: Box<Plan>,
        /// Right input (schema must be union-compatible).
        right: Box<Plan>,
    },
    /// Hash aggregation: group columns by position, aggregates over rows.
    /// With `group_cols` empty this is global aggregation producing exactly
    /// one row (even for empty input).
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping columns (positions in the input).
        group_cols: Vec<usize>,
        /// Aggregate calls.
        aggs: Vec<AggExpr>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Sort (top-level only; snapshot queries do not support ORDER BY, per
    /// paper Section 10.1).
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// `(expression, ascending)` keys.
        keys: Vec<(Expr, bool)>,
    },
    /// Multiset temporal coalescing `C` (Def. 8.2): period = last two
    /// columns, all other columns are the value-equivalence key.
    Coalesce {
        /// Input plan (period-last convention).
        input: Box<Plan>,
    },
    /// Point-in-time selection `τ_t` (period-last convention): keeps every
    /// row whose validity interval contains `at`. The schema is unchanged —
    /// projecting the period away afterwards yields the snapshot at `at`.
    Timeslice {
        /// Input plan (period-last convention).
        input: Box<Plan>,
        /// The time point.
        at: i64,
        /// Physical-choice hint (index-aware when [`TimesliceAlgo::Auto`]).
        algo: TimesliceAlgo,
    },
    /// Time-range selection (period-last convention): keeps every row whose
    /// validity interval overlaps the half-open window `[begin, end)`. The
    /// schema is unchanged; clipping the survivors' periods to the window
    /// (a projection above) yields the range-restricted encoding. Indexed
    /// scans answer this with an `O(log n + k)` interval-tree overlap
    /// probe.
    TimeRange {
        /// Input plan (period-last convention).
        input: Box<Plan>,
        /// The half-open query window `[begin, end)`.
        range: (i64, i64),
        /// Physical-choice hint (index-aware when [`TimesliceAlgo::Auto`]).
        algo: TimesliceAlgo,
    },
    /// The split operator `N_G(left, right)` (Def. 8.3): refines the
    /// intervals of `left` rows at all endpoints of `left ∪ right` rows in
    /// the same group. Output schema = left schema.
    Split {
        /// The relation whose rows are split.
        left: Box<Plan>,
        /// The partner providing additional endpoints.
        right: Box<Plan>,
        /// Group columns (positions valid in both inputs).
        group_cols: Vec<usize>,
    },
    /// Fused snapshot aggregation with pre-aggregation (Section 9): splits
    /// and aggregates in one operator. With `add_gap_neutral` (global
    /// aggregation), gaps produce rows — `count` yields 0, other functions
    /// yield NULL — exactly the `∪ {(null, Tmin, Tmax)}` rewrite of Fig. 4.
    TemporalAggregate {
        /// Input plan (period-last convention).
        input: Box<Plan>,
        /// Grouping columns (positions in the input, excluding period).
        group_cols: Vec<usize>,
        /// Aggregate calls (arguments positional in the input).
        aggs: Vec<AggExpr>,
        /// Whether to produce rows for gaps over `[Tmin, Tmax)`.
        add_gap_neutral: bool,
        /// `Tmin`/`Tmax` of the time domain (needed for gap rows).
        domain: (i64, i64),
    },
    /// Fused snapshot bag difference (Section 9): aligns both sides on their
    /// common refinement and applies the monus per elementary interval.
    TemporalExceptAll {
        /// Left input (period-last convention).
        left: Box<Plan>,
        /// Right input (union-compatible).
        right: Box<Plan>,
    },
}

/// A logical plan: a node plus its computed output schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The operator.
    pub node: PlanNode,
    /// The output schema.
    pub schema: Schema,
}

impl Plan {
    /// Scan of a named table with the given schema (captured at bind time).
    pub fn scan(table: impl Into<String>, schema: Schema) -> Plan {
        Plan {
            node: PlanNode::Scan {
                table: table.into(),
            },
            schema,
        }
    }

    /// Scan of an introspection virtual table; `schema` comes from
    /// [`crate::vtab::virtual_table_schema`].
    pub fn virtual_scan(table: impl Into<String>, schema: Schema) -> Plan {
        Plan {
            node: PlanNode::VirtualScan {
                table: table.into(),
            },
            schema,
        }
    }

    /// Constant relation.
    pub fn values(schema: Schema, rows: Vec<Row>) -> Plan {
        for r in &rows {
            assert_eq!(r.arity(), schema.arity(), "Values row arity mismatch");
        }
        Plan {
            node: PlanNode::Values { rows },
            schema,
        }
    }

    /// Filter.
    pub fn filter(self, predicate: Expr) -> Plan {
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Filter {
                input: Box::new(self),
                predicate,
            },
            schema,
        }
    }

    /// Projection; output columns named by `names` (or synthesized).
    ///
    /// Two shapes build no new node. An identity projection (`#0..#n-1`
    /// over an `n`-column input) keeps the input and adopts only the new
    /// column names. A projection over a projection composes into one, the
    /// outer expressions restated over the inner input by
    /// [`Expr::substitute`], unless that would evaluate a non-trivial inner
    /// expression more than once per row.
    pub fn project(self, exprs: Vec<Expr>, names: Vec<String>) -> Result<Plan, String> {
        assert_eq!(exprs.len(), names.len(), "one name per projection");
        let mut cols = Vec::with_capacity(exprs.len());
        for (e, n) in exprs.iter().zip(&names) {
            let ty = e.infer_type(&self.schema)?;
            cols.push(Column::new(n.clone(), ty));
        }
        let schema = Schema::new(cols);
        let identity = exprs.len() == self.schema.arity()
            && exprs.iter().enumerate().all(|(i, e)| *e == Expr::Col(i));
        if identity {
            return Ok(Plan {
                node: self.node,
                schema,
            });
        }
        match self.node {
            PlanNode::Project {
                input,
                exprs: inner,
            } if composes(&inner, &exprs) => {
                let composed = exprs.iter().map(|e| e.substitute(&inner)).collect();
                input.project(composed, names)
            }
            node => Ok(Plan {
                node: PlanNode::Project {
                    input: Box::new(Plan {
                        node,
                        schema: self.schema,
                    }),
                    exprs,
                },
                schema,
            }),
        }
    }

    /// Projection keeping input column names where the expression is a bare
    /// column reference.
    pub fn project_cols(self, indices: &[usize]) -> Plan {
        let schema = Schema::new(
            indices
                .iter()
                .map(|&i| self.schema.column(i).clone())
                .collect(),
        );
        Plan {
            node: PlanNode::Project {
                input: Box::new(self),
                exprs: indices.iter().map(|&i| Expr::Col(i)).collect(),
            },
            schema,
        }
    }

    /// Inner join; `condition` refers to the concatenated schema. The
    /// engine picks the physical algorithm ([`JoinAlgo::Auto`]).
    pub fn join(self, right: Plan, condition: Expr) -> Plan {
        self.join_with(right, condition, JoinAlgo::Auto)
    }

    /// Inner join with an explicit physical-choice hint.
    pub fn join_with(self, right: Plan, condition: Expr, algo: JoinAlgo) -> Plan {
        let schema = self.schema.concat(&right.schema);
        Plan {
            node: PlanNode::Join {
                left: Box::new(self),
                right: Box::new(right),
                condition,
                algo,
            },
            schema,
        }
    }

    /// `UNION ALL`; schemas must have equal arity and column types.
    pub fn union(self, right: Plan) -> Result<Plan, String> {
        check_union_compatible(&self.schema, &right.schema)?;
        let schema = self.schema.clone();
        Ok(Plan {
            node: PlanNode::Union {
                left: Box::new(self),
                right: Box::new(right),
            },
            schema,
        })
    }

    /// `EXCEPT ALL`.
    pub fn except_all(self, right: Plan) -> Result<Plan, String> {
        check_union_compatible(&self.schema, &right.schema)?;
        let schema = self.schema.clone();
        Ok(Plan {
            node: PlanNode::ExceptAll {
                left: Box::new(self),
                right: Box::new(right),
            },
            schema,
        })
    }

    /// Hash aggregation.
    pub fn aggregate(self, group_cols: Vec<usize>, aggs: Vec<AggExpr>) -> Result<Plan, String> {
        let mut cols: Vec<Column> = group_cols
            .iter()
            .map(|&i| self.schema.column(i).clone())
            .collect();
        for a in &aggs {
            cols.push(Column::new(a.name.clone(), a.output_type(&self.schema)?));
        }
        Ok(Plan {
            node: PlanNode::Aggregate {
                input: Box::new(self),
                group_cols,
                aggs,
            },
            schema: Schema::new(cols),
        })
    }

    /// Duplicate elimination.
    pub fn distinct(self) -> Plan {
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Distinct {
                input: Box::new(self),
            },
            schema,
        }
    }

    /// Sort.
    pub fn sort(self, keys: Vec<(Expr, bool)>) -> Plan {
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Sort {
                input: Box::new(self),
                keys,
            },
            schema,
        }
    }

    /// Temporal multiset coalescing (period-last convention).
    pub fn coalesce(self) -> Plan {
        assert_period_last(&self.schema);
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Coalesce {
                input: Box::new(self),
            },
            schema,
        }
    }

    /// Point-in-time selection at `at` (period-last convention). The engine
    /// picks the physical route ([`TimesliceAlgo::Auto`]).
    pub fn timeslice(self, at: i64) -> Plan {
        self.timeslice_with(at, TimesliceAlgo::Auto)
    }

    /// Point-in-time selection with an explicit physical-choice hint.
    pub fn timeslice_with(self, at: i64, algo: TimesliceAlgo) -> Plan {
        assert_period_last(&self.schema);
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Timeslice {
                input: Box::new(self),
                at,
                algo,
            },
            schema,
        }
    }

    /// Time-range selection over `[begin, end)` (period-last convention).
    /// The engine picks the physical route ([`TimesliceAlgo::Auto`]).
    ///
    /// # Panics
    /// Panics when the window is empty (`begin >= end`).
    pub fn time_range(self, begin: i64, end: i64) -> Plan {
        self.time_range_with(begin, end, TimesliceAlgo::Auto)
    }

    /// Time-range selection with an explicit physical-choice hint.
    pub fn time_range_with(self, begin: i64, end: i64, algo: TimesliceAlgo) -> Plan {
        assert_period_last(&self.schema);
        assert!(begin < end, "empty time range [{begin}, {end})");
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::TimeRange {
                input: Box::new(self),
                range: (begin, end),
                algo,
            },
            schema,
        }
    }

    /// The split operator `N_G`.
    pub fn split(self, right: Plan, group_cols: Vec<usize>) -> Result<Plan, String> {
        assert_period_last(&self.schema);
        check_union_compatible(&self.schema, &right.schema)?;
        let schema = self.schema.clone();
        Ok(Plan {
            node: PlanNode::Split {
                left: Box::new(self),
                right: Box::new(right),
                group_cols,
            },
            schema,
        })
    }

    /// Fused snapshot aggregation (see [`PlanNode::TemporalAggregate`]).
    /// Output schema: group columns, aggregate outputs, then the period.
    pub fn temporal_aggregate(
        self,
        group_cols: Vec<usize>,
        aggs: Vec<AggExpr>,
        add_gap_neutral: bool,
        domain: (i64, i64),
    ) -> Result<Plan, String> {
        assert_period_last(&self.schema);
        let mut cols: Vec<Column> = group_cols
            .iter()
            .map(|&i| self.schema.column(i).clone())
            .collect();
        for a in &aggs {
            cols.push(Column::new(a.name.clone(), a.output_type(&self.schema)?));
        }
        cols.push(Column::new("__ts", SqlType::Int));
        cols.push(Column::new("__te", SqlType::Int));
        Ok(Plan {
            node: PlanNode::TemporalAggregate {
                input: Box::new(self),
                group_cols,
                aggs,
                add_gap_neutral,
                domain,
            },
            schema: Schema::new(cols),
        })
    }

    /// Fused snapshot bag difference.
    pub fn temporal_except_all(self, right: Plan) -> Result<Plan, String> {
        assert_period_last(&self.schema);
        check_union_compatible(&self.schema, &right.schema)?;
        let schema = self.schema.clone();
        Ok(Plan {
            node: PlanNode::TemporalExceptAll {
                left: Box::new(self),
                right: Box::new(right),
            },
            schema,
        })
    }

    /// Names of every catalog table this plan scans, sorted and
    /// deduplicated — what the session layer refreshes indexes for before
    /// executing.
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.collect_tables(&mut names);
        names.sort_unstable();
        names.dedup();
        names
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        match &self.node {
            PlanNode::Scan { table } => out.push(table.clone()),
            // Virtual tables are not catalog tables: nothing to refresh,
            // nothing for a transaction to record as read.
            PlanNode::VirtualScan { .. } | PlanNode::Values { .. } => {}
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Sort { input, .. }
            | PlanNode::Coalesce { input }
            | PlanNode::Timeslice { input, .. }
            | PlanNode::TimeRange { input, .. }
            | PlanNode::TemporalAggregate { input, .. } => input.collect_tables(out),
            PlanNode::Join { left, right, .. }
            | PlanNode::Union { left, right }
            | PlanNode::ExceptAll { left, right }
            | PlanNode::Split { left, right, .. }
            | PlanNode::TemporalExceptAll { left, right } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }

    /// Renders the plan as an indented tree (EXPLAIN-style).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push_str(&self.node_label());
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }

    /// The single-line EXPLAIN label of this node (no children, no
    /// indentation) — the building block the engine's `EXPLAIN ANALYZE`
    /// renderer annotates with actual row counts and timings.
    pub fn node_label(&self) -> String {
        match &self.node {
            PlanNode::Scan { table } => format!("Scan {table} {}", self.schema),
            PlanNode::VirtualScan { table } => {
                format!("VirtualScan {table} {}", self.schema)
            }
            PlanNode::Values { rows } => format!("Values ({} rows)", rows.len()),
            PlanNode::Filter { predicate, .. } => format!("Filter {predicate}"),
            PlanNode::Project { exprs, .. } => {
                let es: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                format!("Project [{}]", es.join(", "))
            }
            PlanNode::Join {
                condition, algo, ..
            } => {
                if *algo == JoinAlgo::Auto {
                    format!("Join on {condition}")
                } else {
                    format!("Join[{algo:?}] on {condition}")
                }
            }
            PlanNode::Union { .. } => "UnionAll".to_string(),
            PlanNode::ExceptAll { .. } => "ExceptAll".to_string(),
            PlanNode::Aggregate {
                group_cols, aggs, ..
            } => {
                let gs: Vec<String> = group_cols.iter().map(|g| format!("#{g}")).collect();
                let as_: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                format!(
                    "Aggregate group=[{}] aggs=[{}]",
                    gs.join(","),
                    as_.join(",")
                )
            }
            PlanNode::Distinct { .. } => "Distinct".to_string(),
            PlanNode::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{e} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort [{}]", ks.join(", "))
            }
            PlanNode::Coalesce { .. } => "Coalesce (multiset temporal)".to_string(),
            PlanNode::Timeslice { at, algo, .. } => {
                if *algo == TimesliceAlgo::Auto {
                    format!("Timeslice at {at}")
                } else {
                    format!("Timeslice[{algo:?}] at {at}")
                }
            }
            PlanNode::TimeRange { range, algo, .. } => {
                if *algo == TimesliceAlgo::Auto {
                    format!("TimeRange [{}, {})", range.0, range.1)
                } else {
                    format!("TimeRange[{algo:?}] [{}, {})", range.0, range.1)
                }
            }
            PlanNode::Split { group_cols, .. } => {
                let gs: Vec<String> = group_cols.iter().map(|g| format!("#{g}")).collect();
                format!("Split N_G group=[{}]", gs.join(","))
            }
            PlanNode::TemporalAggregate {
                group_cols,
                aggs,
                add_gap_neutral,
                ..
            } => {
                let gs: Vec<String> = group_cols.iter().map(|g| format!("#{g}")).collect();
                let as_: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                format!(
                    "TemporalAggregate group=[{}] aggs=[{}]{}",
                    gs.join(","),
                    as_.join(","),
                    if *add_gap_neutral { " with-gaps" } else { "" }
                )
            }
            PlanNode::TemporalExceptAll { .. } => "TemporalExceptAll".to_string(),
        }
    }

    /// The direct child plans of this node, in plan order (empty for the
    /// leaves `Scan` and `Values`).
    pub fn children(&self) -> Vec<&Plan> {
        match &self.node {
            PlanNode::Scan { .. } | PlanNode::VirtualScan { .. } | PlanNode::Values { .. } => {
                Vec::new()
            }
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Sort { input, .. }
            | PlanNode::Coalesce { input }
            | PlanNode::Timeslice { input, .. }
            | PlanNode::TimeRange { input, .. }
            | PlanNode::TemporalAggregate { input, .. } => vec![input],
            PlanNode::Join { left, right, .. }
            | PlanNode::Union { left, right }
            | PlanNode::ExceptAll { left, right }
            | PlanNode::Split { left, right, .. }
            | PlanNode::TemporalExceptAll { left, right } => vec![left, right],
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

fn check_union_compatible(a: &Schema, b: &Schema) -> Result<(), String> {
    if a.arity() != b.arity() {
        return Err(format!(
            "inputs are not union-compatible: arity {} vs {}",
            a.arity(),
            b.arity()
        ));
    }
    for i in 0..a.arity() {
        let (ta, tb) = (a.column(i).ty, b.column(i).ty);
        let numeric = |t: SqlType| matches!(t, SqlType::Int | SqlType::Double);
        if ta != tb && !(numeric(ta) && numeric(tb)) {
            return Err(format!(
                "inputs are not union-compatible: column {i} has type {ta} vs {tb}"
            ));
        }
    }
    Ok(())
}

/// Whether `outer` (over the output of a projection by `inner`) may be
/// substituted into `inner`: every inner expression other than a column or
/// a literal is referenced at most once, so the composed projection never
/// evaluates it twice. `outer` must already type-check against the inner
/// projection's output.
fn composes(inner: &[Expr], outer: &[Expr]) -> bool {
    let mut refs = Vec::new();
    for e in outer {
        e.referenced_columns(&mut refs);
    }
    let mut uses = vec![0usize; inner.len()];
    for i in refs {
        uses[i] += 1;
    }
    inner
        .iter()
        .zip(uses)
        .all(|(e, n)| n <= 1 || matches!(e, Expr::Col(_) | Expr::Lit(_)))
}

fn assert_period_last(schema: &Schema) {
    let n = schema.arity();
    assert!(
        n >= 2
            && schema.column(n - 2).ty == SqlType::Int
            && schema.column(n - 1).ty == SqlType::Int,
        "temporal operator requires the period (two INT columns) as the last two columns, got {schema}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggFunc, BinOp};
    use storage::row;

    fn works_schema() -> Schema {
        Schema::of(&[
            ("name", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ])
    }

    #[test]
    fn scan_filter_project_schema() {
        let p = Plan::scan("works", works_schema())
            .filter(Expr::col(1).eq(Expr::lit("SP")))
            .project(vec![Expr::col(0)], vec!["name".into()])
            .unwrap();
        assert_eq!(p.schema.arity(), 1);
        assert_eq!(p.schema.column(0).name, "name");
    }

    fn project_count(p: &Plan) -> usize {
        usize::from(matches!(p.node, PlanNode::Project { .. }))
            + p.children().into_iter().map(project_count).sum::<usize>()
    }

    #[test]
    fn identity_projection_keeps_the_input_and_renames() {
        let names: Vec<String> = ["a", "b", "c", "d"].map(String::from).to_vec();
        let p = Plan::scan("works", works_schema())
            .project((0..4).map(Expr::Col).collect(), names)
            .unwrap();
        assert!(matches!(p.node, PlanNode::Scan { .. }), "{p}");
        let got: Vec<&str> = p.schema.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(got, ["a", "b", "c", "d"]);
        assert_eq!(p.schema.column(2).ty, SqlType::Int);
        // A permutation or a prefix is not the identity.
        let swapped = Plan::scan("works", works_schema())
            .project(
                vec![Expr::col(1), Expr::col(0), Expr::col(2), Expr::col(3)],
                ["a", "b", "c", "d"].map(String::from).to_vec(),
            )
            .unwrap();
        assert_eq!(project_count(&swapped), 1);
    }

    #[test]
    fn stacked_projections_compose() {
        let inner = Plan::scan("works", works_schema())
            .project(
                vec![
                    Expr::col(0),
                    Expr::Greatest(vec![Expr::col(2), Expr::lit(5)]),
                    Expr::col(3),
                ],
                ["n", "b", "e"].map(String::from).to_vec(),
            )
            .unwrap();
        let outer = inner
            .clone()
            .project(
                vec![Expr::col(1), Expr::col(0), Expr::col(0)],
                ["b", "n", "n2"].map(String::from).to_vec(),
            )
            .unwrap();
        assert_eq!(project_count(&outer), 1, "{outer}");
        let PlanNode::Project { input, exprs } = &outer.node else {
            panic!("{outer}")
        };
        assert!(matches!(input.node, PlanNode::Scan { .. }));
        assert_eq!(
            exprs,
            &vec![
                Expr::Greatest(vec![Expr::col(2), Expr::lit(5)]),
                Expr::col(0),
                Expr::col(0)
            ]
        );
        assert_eq!(outer.schema.column(0).ty, SqlType::Int);

        // GREATEST would be evaluated twice per row: the stack stays.
        let twice = inner
            .clone()
            .project(
                vec![Expr::binary(BinOp::Add, Expr::col(1), Expr::col(1))],
                vec!["x".into()],
            )
            .unwrap();
        assert_eq!(project_count(&twice), 2, "{twice}");

        // Composing into an identity leaves the bare input.
        let back = Plan::scan("works", works_schema())
            .project(
                vec![Expr::col(1), Expr::col(0), Expr::col(2), Expr::col(3)],
                ["a", "b", "c", "d"].map(String::from).to_vec(),
            )
            .unwrap()
            .project(
                vec![Expr::col(1), Expr::col(0), Expr::col(2), Expr::col(3)],
                ["w", "x", "y", "z"].map(String::from).to_vec(),
            )
            .unwrap();
        assert!(matches!(back.node, PlanNode::Scan { .. }), "{back}");
        assert_eq!(back.schema.column(0).name, "w");
    }

    #[test]
    fn join_concatenates_schema() {
        let l = Plan::scan("a", works_schema());
        let r = Plan::scan("b", works_schema());
        let j = l.join(r, Expr::col(1).eq(Expr::col(5)));
        assert_eq!(j.schema.arity(), 8);
    }

    #[test]
    fn union_compatibility_enforced() {
        let l = Plan::scan("a", works_schema());
        let bad = Plan::scan("b", Schema::of(&[("x", SqlType::Int)]));
        assert!(l.clone().union(bad).is_err());
        let ok = Plan::scan("b", works_schema());
        assert!(l.union(ok).is_ok());
    }

    #[test]
    fn aggregate_schema() {
        let p = Plan::scan("works", works_schema())
            .aggregate(
                vec![1],
                vec![
                    AggExpr::count_star("cnt"),
                    AggExpr::new(AggFunc::Min, Expr::col(2), "first_ts"),
                ],
            )
            .unwrap();
        assert_eq!(p.schema.arity(), 3);
        assert_eq!(p.schema.column(0).name, "skill");
        assert_eq!(p.schema.column(1).ty, SqlType::Int);
    }

    #[test]
    fn temporal_aggregate_schema_has_period_last() {
        let p = Plan::scan("works", works_schema())
            .temporal_aggregate(vec![1], vec![AggExpr::count_star("cnt")], false, (0, 24))
            .unwrap();
        let names: Vec<&str> = p.schema.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["skill", "cnt", "__ts", "__te"]);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn coalesce_requires_period_columns() {
        let _ = Plan::scan("x", Schema::of(&[("a", SqlType::Str)])).coalesce();
    }

    #[test]
    fn values_arity_checked() {
        let res = std::panic::catch_unwind(|| {
            Plan::values(Schema::of(&[("a", SqlType::Int)]), vec![row![1, 2]])
        });
        assert!(res.is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let p = Plan::scan("works", works_schema())
            .filter(Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit("SP")))
            .coalesce();
        let text = p.explain();
        assert!(text.contains("Coalesce"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Scan works"));
    }

    #[test]
    fn time_range_schema_and_explain() {
        let p = Plan::scan("works", works_schema()).time_range(3, 9);
        assert_eq!(p.schema.arity(), 4);
        assert!(p.explain().contains("TimeRange [3, 9)"));
        assert!(
            std::panic::catch_unwind(|| Plan::scan("works", works_schema()).time_range(9, 9))
                .is_err(),
            "empty windows are rejected"
        );
    }

    #[test]
    fn referenced_tables_deduplicated() {
        let p = Plan::scan("a", works_schema())
            .join(Plan::scan("b", works_schema()), Expr::lit(true))
            .join(Plan::scan("a", works_schema()), Expr::lit(true));
        assert_eq!(p.referenced_tables(), vec!["a", "b"]);
    }
}
