//! Differential tests of late materialization: join kernels check their
//! condition on a borrowed `(left, right)` pair and build only the rows
//! that survive, a `Project` directly over a `Join` is evaluated inside
//! the join, and stacked projections compose into one.
//!
//! Every join route (endpoint sweep, merge interval, hash, nested loop,
//! parallel sweep at 2 and 4 workers) must return the same bag as the
//! non-indexed session route and the point-wise oracle, on `SEQ VT`,
//! `AS OF` and plain statements whose select lists hold arithmetic,
//! `CASE`, `LIKE` and NULL-producing expressions over inputs with NULLs and
//! duplicate rows.

use snapshot_semantics::algebra::{BinOp, Expr, Plan, PlanNode};
use snapshot_semantics::baseline::PointwiseOracle;
use snapshot_semantics::engine::{
    explain_analyzed, Engine, EngineConfig, ExecStats, JoinStrategy, NodeStats,
};
use snapshot_semantics::index::IndexCatalog;
use snapshot_semantics::rewrite::{infer_domain, SnapshotCompiler};
use snapshot_semantics::session::{Database, Session, SessionOptions};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{Catalog, Row, Schema, SqlType, Table, Value};

/// xorshift64*: deterministic and dependency-free.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> i64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n) as i64
    }
}

/// `(k INT, x INT, name TEXT, ts INT, te INT)` with period `(ts, te)`:
/// `x` is NULL or 0 now and then (NULL arithmetic, division by zero),
/// `name` is NULL now and then, and every fifth row is stored twice.
fn side(seed: u64, rows: usize) -> Table {
    let schema = Schema::of(&[
        ("k", SqlType::Int),
        ("x", SqlType::Int),
        ("name", SqlType::Str),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut t = Table::with_period(schema, 3, 4);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    for n in 0..rows {
        let k = Value::Int(rng.below(4));
        let x = match rng.below(6) {
            0 => Value::Null,
            v => Value::Int(v - 1),
        };
        let name = match rng.below(7) {
            0 => Value::Null,
            v => Value::str(["a1", "b2", "a3", "c1"][v as usize % 4]),
        };
        let ts = rng.below(28);
        let te = ts + 1 + rng.below(8);
        let row = Row::new(vec![k, x, name, Value::Int(ts), Value::Int(te)]);
        if n % 5 == 0 {
            t.push(row.clone());
        }
        t.push(row);
    }
    t
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register("r", side(1, 60));
    c.register("s", side(2, 50));
    c
}

/// Select lists and conditions covering arithmetic, `CASE`, `LIKE`,
/// NULL-producing expressions and duplicates; `equi` marks the queries
/// with a hashable key.
const QUERIES: &[(&str, bool)] = &[
    ("SELECT r.x + s.x AS sx, r.name FROM r, s", false),
    (
        "SELECT CASE WHEN r.x < s.x THEN r.name ELSE s.name END AS pick, s.x - 1 AS d \
         FROM r JOIN s ON r.k < s.k",
        false,
    ),
    (
        "SELECT r.name LIKE 'a%' AS l, s.x / r.x AS q FROM r, s \
         WHERE r.name LIKE '%1' OR s.x IS NULL",
        false,
    ),
    (
        "SELECT r.k, s.name, r.x * s.x AS p, NULL AS z FROM r JOIN s ON r.k = s.k",
        true,
    ),
    ("SELECT r.name, s.name FROM r, s", false),
];

fn sorted(table: &Table) -> Vec<Row> {
    let mut rows = table.rows().to_vec();
    rows.sort_unstable();
    rows
}

/// The statement through a session that bypasses the indexes.
fn naive_session_rows(catalog: &Catalog, sql: &str) -> Vec<Row> {
    let mut session = Session::with_options(
        Database::from_catalog(catalog.clone()),
        SessionOptions {
            use_indexes: false,
            ..SessionOptions::default()
        },
    );
    let result = session
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    sorted(result.rows().expect("a query result"))
}

/// One physical route: an engine and whether it sees the indexes.
struct Route {
    name: &'static str,
    engine: Engine,
    indexed: bool,
}

fn routes() -> Vec<Route> {
    let pinned = |join_strategy, parallelism| {
        Engine::with_config(EngineConfig {
            join_strategy,
            parallelism,
        })
    };
    vec![
        Route {
            name: "IndexSweepJoin",
            engine: pinned(JoinStrategy::IndexSweep, 1),
            indexed: true,
        },
        Route {
            name: "MergeIntervalJoin",
            engine: pinned(JoinStrategy::MergeInterval, 1),
            indexed: false,
        },
        Route {
            name: "Auto",
            engine: Engine::new(),
            indexed: false,
        },
        Route {
            name: "Auto, indexed",
            engine: Engine::new(),
            indexed: true,
        },
        Route {
            name: "ParallelSweepJoin/2",
            engine: pinned(JoinStrategy::IndexSweep, 2),
            indexed: true,
        },
        Route {
            name: "ParallelSweepJoin/4",
            engine: pinned(JoinStrategy::IndexSweep, 4),
            indexed: true,
        },
    ]
}

/// The join operator a route must record for a `SEQ VT` overlap join.
fn expected_join(route: &Route, equi: bool) -> &'static str {
    match route.name {
        "IndexSweepJoin" => "IndexSweepJoin",
        "MergeIntervalJoin" => "MergeIntervalJoin",
        "ParallelSweepJoin/2" | "ParallelSweepJoin/4" => "ParallelSweepJoin",
        _ if equi => "HashJoin",
        "Auto" => "NestedLoopJoin",
        _ => "IndexSweepJoin",
    }
}

/// `plan` with a `Filter TRUE` slipped under every `Project` that sits
/// directly on a `Join`: the same bag, but each such join concatenates
/// its pairs and the projection evaluates the concatenated rows, as
/// before projections fused into joins. The point-wise oracle runs its
/// snapshot plans on the same engine, so this is the reference that does
/// not share the fused path.
fn unfused(plan: &Plan) -> Plan {
    let mut plan = plan.clone();
    fn walk(p: &mut Plan) {
        if let PlanNode::Project { input, .. } = &mut p.node {
            if matches!(input.node, PlanNode::Join { .. }) {
                **input = (**input).clone().filter(Expr::lit(true));
            }
        }
        match &mut p.node {
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Coalesce { input }
            | PlanNode::Timeslice { input, .. }
            | PlanNode::TimeRange { input, .. } => walk(input),
            PlanNode::Join { left, right, .. } => {
                walk(left);
                walk(right);
            }
            _ => {}
        }
    }
    walk(&mut plan);
    plan
}

/// Runs `sql` on every route; each must equal `want`, and so must the
/// plan without fused projections. Returns the stats of each route for
/// route-specific checks.
fn run_routes(sql: &str, catalog: &Catalog, want: &[Row]) -> Vec<(Route, ExecStats)> {
    let bound = bind_statement(&parse_statement(sql).unwrap(), catalog).unwrap();
    let plan = SnapshotCompiler::new(infer_domain(catalog))
        .compile_statement(&bound, catalog)
        .unwrap();
    let reference = Engine::new().execute(&unfused(&plan), catalog).unwrap();
    assert_eq!(sorted(&reference), want, "{sql}: unfused plan");
    let indexes = IndexCatalog::build_all(catalog);
    routes()
        .into_iter()
        .map(|route| {
            let mut stats = ExecStats::default();
            let out = if route.indexed {
                route
                    .engine
                    .execute_indexed_with_stats(&plan, catalog, &indexes, &mut stats)
            } else {
                route.engine.execute_with_stats(&plan, catalog, &mut stats)
            }
            .unwrap_or_else(|e| panic!("{sql} [{}]: {e}", route.name));
            assert_eq!(sorted(&out), want, "{sql} [{}]", route.name);
            (route, stats)
        })
        .collect()
}

fn oracle_rows(sql: &str, catalog: &Catalog) -> Vec<Row> {
    let bound = bind_statement(&parse_statement(sql).unwrap(), catalog).unwrap();
    let BoundStatement::Snapshot { plan, .. } = &bound else {
        panic!("{sql}: not a SEQ VT statement")
    };
    PointwiseOracle::new(infer_domain(catalog))
        .eval_rows(plan, catalog)
        .unwrap()
}

#[test]
fn seq_vt_joins_equal_naive_and_oracle_on_every_route() {
    let c = catalog();
    for (query, equi) in QUERIES {
        let sql = format!("SEQ VT ({query})");
        let want = naive_session_rows(&c, &sql);
        assert!(!want.is_empty(), "{sql}: an empty result tests nothing");
        let mut oracle = oracle_rows(&sql, &c);
        oracle.sort_unstable();
        assert_eq!(want, oracle, "{sql}: naive session vs point-wise oracle");
        for (route, stats) in run_routes(&sql, &c, &want) {
            let join = expected_join(&route, *equi);
            assert!(
                stats.get(join).is_some(),
                "{sql} [{}]: {join} not taken: {stats:?}",
                route.name
            );
        }
    }
}

#[test]
fn as_of_joins_equal_naive_and_oracle_slices() {
    let c = catalog();
    for (query, _) in QUERIES {
        let oracle = oracle_rows(&format!("SEQ VT ({query})"), &c);
        for at in [3i64, 11, 20] {
            let sql = format!("SEQ VT AS OF {at} ({query})");
            let want = naive_session_rows(&c, &sql);
            let mut slice: Vec<Row> = oracle
                .iter()
                .filter(|r| {
                    let n = r.arity();
                    r.int(n - 2) <= at && at < r.int(n - 1)
                })
                .map(|r| Row::new(r.values()[..r.arity() - 2].to_vec()))
                .collect();
            slice.sort_unstable();
            assert_eq!(want, slice, "{sql}: naive session vs oracle slice");
            run_routes(&sql, &c, &want);
        }
    }
}

#[test]
fn plain_joins_equal_naive_and_the_unfused_plan() {
    let c = catalog();
    for (query, _) in QUERIES {
        let want = naive_session_rows(&c, query);
        assert!(!want.is_empty(), "{query}: an empty result tests nothing");
        run_routes(query, &c, &want);
    }
}

#[test]
fn composed_projections_equal_the_stacked_plan_row_by_row() {
    let c = catalog();
    let r_schema = c.get("r").unwrap().schema().clone();
    let s_schema = c.get("s").unwrap().schema().clone();
    let inner = vec![
        Expr::binary(BinOp::Mul, Expr::col(1), Expr::lit(3)),
        Expr::Case {
            branches: vec![(Expr::col(0).lt(Expr::lit(2)), Expr::col(2))],
            else_expr: None,
        },
        Expr::Like {
            expr: Box::new(Expr::col(2)),
            pattern: "a%".into(),
            negated: false,
        },
        Expr::col(3),
        Expr::lit(Value::Null),
        Expr::binary(BinOp::Div, Expr::lit(10), Expr::col(1)),
    ];
    let outer = vec![
        Expr::binary(BinOp::Add, Expr::col(0), Expr::col(3)),
        Expr::IsNull {
            expr: Box::new(Expr::col(1)),
            negated: true,
        },
        Expr::col(2),
        Expr::binary(BinOp::Sub, Expr::col(4), Expr::col(3)),
        Expr::col(5),
        Expr::col(3),
    ];
    let inputs = [
        Plan::scan("r", r_schema.clone()),
        // Over a join, the composed projection is the one fused into it.
        Plan::scan("r", r_schema).join(
            Plan::scan("s", s_schema),
            Expr::binary(BinOp::Leq, Expr::col(0), Expr::col(5)),
        ),
    ];
    for input in inputs {
        let names = |n: usize| (0..n).map(|i| format!("c{i}")).collect::<Vec<String>>();
        let inner_plan = input.project(inner.clone(), names(inner.len())).unwrap();
        let composed = inner_plan
            .clone()
            .project(outer.clone(), names(outer.len()))
            .unwrap();
        let PlanNode::Project {
            input: under,
            exprs,
        } = &composed.node
        else {
            panic!("{composed}")
        };
        assert!(
            !matches!(under.node, PlanNode::Project { .. }),
            "one projection: {composed}"
        );
        let expected: Vec<Expr> = outer.iter().map(|e| e.substitute(&inner)).collect();
        assert_eq!(exprs, &expected);
        // The same two projections, built node by node so that
        // `Plan::project` cannot compose them.
        let stacked = Plan {
            schema: composed.schema.clone(),
            node: PlanNode::Project {
                input: Box::new(inner_plan),
                exprs: outer.clone(),
            },
        };
        let a = Engine::new().execute(&composed, &c).unwrap();
        let b = Engine::new().execute(&stacked, &c).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a.rows(), b.rows(), "row by row");
    }
}

#[test]
fn explain_analyze_reports_the_fused_join() {
    let c = catalog();
    let sql = "SEQ VT (SELECT r.x + s.x AS sx, r.name FROM r, s)";
    let bound = bind_statement(&parse_statement(sql).unwrap(), &c).unwrap();
    let plan = SnapshotCompiler::new(infer_domain(&c))
        .compile_statement(&bound, &c)
        .unwrap();
    // Coalesce ← one Project ← Join: the two projections composed.
    let PlanNode::Coalesce { input: project } = &plan.node else {
        panic!("{plan}")
    };
    let PlanNode::Project { input: join, .. } = &project.node else {
        panic!("{plan}")
    };
    assert!(matches!(join.node, PlanNode::Join { .. }), "{plan}");
    let pairs = Engine::new().execute(join, &c).unwrap().len();
    assert!(pairs > 0);

    let indexes = IndexCatalog::build_all(&c);
    for idx in [None, Some(&indexes)] {
        let (mut stats, mut nodes) = (ExecStats::default(), NodeStats::default());
        Engine::new()
            .execute_analyzed(&plan, &c, idx, &mut stats, &mut nodes)
            .unwrap();
        assert_eq!(stats.get("Join"), Some((1, pairs as u64)));
        assert_eq!(stats.get("Project"), Some((1, pairs as u64)));
        let text = explain_analyzed(&plan, &nodes);
        let line = |op: &str| {
            text.lines()
                .find(|l| l.trim_start().starts_with(op))
                .unwrap_or_else(|| panic!("no {op} line:\n{text}"))
                .to_string()
        };
        for op in ["Join", "Project"] {
            assert!(
                line(op).contains(&format!("(actual rows={pairs} calls=1")),
                "{op}:\n{text}"
            );
        }
        assert!(!line("Join").contains("never executed"), "{text}");
    }
}

#[test]
fn identity_projection_reaches_the_coalesce_accelerator() {
    let c = catalog();
    let indexes = IndexCatalog::build_all(&c);
    let domain = infer_domain(&c);
    let sql = "SEQ VT (SELECT k, x, name FROM r)";
    let bound = bind_statement(&parse_statement(sql).unwrap(), &c).unwrap();
    let plan = SnapshotCompiler::new(domain)
        .compile_statement(&bound, &c)
        .unwrap();
    let PlanNode::Coalesce { input } = &plan.node else {
        panic!("{plan}")
    };
    assert!(matches!(input.node, PlanNode::Scan { .. }), "{plan}");
    let mut stats = ExecStats::default();
    let accel = Engine::new()
        .execute_indexed_with_stats(&plan, &c, &indexes, &mut stats)
        .unwrap();
    assert!(stats.get("IndexCoalesce").is_some(), "{stats:?}");
    let naive = Engine::new().execute(&plan, &c).unwrap();
    // Both emit the canonical encoding: identical, in order.
    assert_eq!(accel.rows(), naive.rows());
    assert_eq!(naive.rows(), &oracle_rows(sql, &c)[..]);

    // The aggregate read's trailing identity projection is gone too.
    let sql = "SEQ VT (SELECT name, count(*) AS c FROM r GROUP BY name)";
    let bound = bind_statement(&parse_statement(sql).unwrap(), &c).unwrap();
    let plan = SnapshotCompiler::new(domain)
        .compile_statement(&bound, &c)
        .unwrap();
    let PlanNode::Coalesce { input } = &plan.node else {
        panic!("{plan}")
    };
    assert!(
        matches!(input.node, PlanNode::TemporalAggregate { .. }),
        "{plan}"
    );
}
