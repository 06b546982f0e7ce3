//! Differential tests of the bucketed hash join: an equality-plus-overlap
//! join hashes each key into a bucket and sweeps the bucket by interval.
//! On inputs built to stress that kernel (skewed keys, NULL keys, bag
//! duplicates, touching half-open periods, two-column keys, residual
//! predicates beyond keys and overlap), the hash route must equal the
//! nested-loop route and the point-wise oracle. Plain statements over
//! non-period tables (empty and inverted intervals, `DOUBLE` keys) must
//! equal the nested-loop route.

use snapshot_semantics::algebra::{JoinAlgo, Plan, PlanNode};
use snapshot_semantics::baseline::PointwiseOracle;
use snapshot_semantics::engine::{Engine, ExecContext, ExecStats};
use snapshot_semantics::index::IndexCatalog;
use snapshot_semantics::rewrite::{RewriteOptions, SnapshotCompiler};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{Catalog, Row, Schema, SqlType, Table, Value};
use snapshot_semantics::timeline::TimeDomain;
use std::sync::Arc;

const DOMAIN: (i64, i64) = (0, 40);

/// How one side's rows are drawn.
#[derive(Clone, Copy)]
struct Spec {
    rows: usize,
    /// Distinct values of `k` (and of `k2`).
    keys: u64,
    /// One row in `null_every` has a NULL `k` (0: none).
    null_every: usize,
    /// Each drawn row is stored this many times.
    copies: usize,
    max_len: i64,
}

/// xorshift64*: deterministic and dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// `(k INT, k2 STR, v INT, ts INT, te INT)` with period `(ts, te)`.
fn side(spec: Spec, seed: u64) -> Table {
    let schema = Schema::of(&[
        ("k", SqlType::Int),
        ("k2", SqlType::Str),
        ("v", SqlType::Int),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut t = Table::with_period(schema, 3, 4);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    for n in 0..spec.rows {
        let k = if spec.null_every > 0 && n % spec.null_every == 0 {
            Value::Null
        } else {
            Value::Int(rng.below(spec.keys))
        };
        let k2 = Value::str(format!("c{}", rng.below(spec.keys)));
        let v = Value::Int(rng.below(8));
        let ts = DOMAIN.0 + rng.below((DOMAIN.1 - DOMAIN.0 - 1) as u64);
        let te = (ts + 1 + rng.below(spec.max_len as u64)).min(DOMAIN.1);
        let row = Row::new(vec![k, k2, v, Value::Int(ts), Value::Int(te)]);
        for _ in 0..spec.copies {
            t.push(row.clone());
        }
    }
    t
}

fn catalog(r: Table, s: Table) -> Catalog {
    let mut c = Catalog::new();
    c.register("r", r);
    c.register("s", s);
    c
}

/// Runs `sql` through the hash route (the engine's own choice) and the
/// nested-loop route, checks each took its route, and checks both against
/// the point-wise oracle. Returns the result size and the number of rows
/// the hash join emitted.
fn check(name: &str, sql: &str, catalog: &Catalog) -> (usize, u64) {
    let domain = TimeDomain::new(DOMAIN.0, DOMAIN.1);
    let bound = bind_statement(&parse_statement(sql).unwrap(), catalog).unwrap();
    let BoundStatement::Snapshot { plan, .. } = &bound else {
        panic!("{name}: expected a SEQ VT statement")
    };
    let oracle = PointwiseOracle::new(domain)
        .eval_rows(plan, catalog)
        .unwrap();
    let indexes = IndexCatalog::build_all(catalog);

    let run = |algo: JoinAlgo, route: &str| -> (Vec<Row>, u64) {
        let compiled = SnapshotCompiler::with_options(
            domain,
            RewriteOptions {
                temporal_join_algo: algo,
                ..RewriteOptions::default()
            },
        )
        .compile_statement(&bound, catalog)
        .unwrap();
        let mut stats = ExecStats::default();
        let out = Engine::new()
            .execute_indexed_with_stats(&compiled, catalog, &indexes, &mut stats)
            .unwrap();
        let Some((_, joined)) = stats.get(route) else {
            panic!("{name}: {route} not taken: {stats:?}")
        };
        let mut rows = out.rows().to_vec();
        rows.sort_unstable();
        (rows, joined)
    };
    let (hash, joined) = run(JoinAlgo::Auto, "HashJoin");
    let (nested, nested_joined) = run(JoinAlgo::NestedLoop, "NestedLoopJoin");
    assert_eq!(hash, nested, "{name}: hash vs nested loop");
    assert_eq!(joined, nested_joined, "{name}: join output sizes");
    assert_eq!(hash, oracle, "{name}: hash vs point-wise oracle");
    (hash.len(), joined)
}

const EQUI: &str = "SEQ VT (SELECT r.v, s.v FROM r JOIN s ON r.k = s.k)";

#[test]
fn skewed_keys() {
    // Two distinct keys, 250 rows each on either side: every bucket is
    // large, so the per-bucket sweep does real work.
    let spec = Spec {
        rows: 500,
        keys: 2,
        null_every: 0,
        copies: 1,
        max_len: 6,
    };
    let c = catalog(side(spec, 1), side(spec, 2));
    assert!(check("skewed", EQUI, &c).0 > 0);
    let three = Spec { keys: 3, ..spec };
    let c = catalog(side(three, 3), side(three, 4));
    check("skewed/3", EQUI, &c);
}

#[test]
fn null_keys_never_join() {
    let spec = Spec {
        rows: 80,
        keys: 4,
        null_every: 3,
        copies: 1,
        max_len: 10,
    };
    let c = catalog(side(spec, 5), side(spec, 6));
    check("null keys", EQUI, &c);
    // All-NULL keys on one side: nothing joins.
    let all_null = Spec {
        null_every: 1,
        ..spec
    };
    let c = catalog(side(all_null, 7), side(spec, 8));
    assert_eq!(check("all null", EQUI, &c), (0, 0));
}

#[test]
fn duplicate_rows_multiply() {
    let spec = Spec {
        rows: 40,
        keys: 4,
        null_every: 0,
        copies: 3,
        max_len: 10,
    };
    let c = catalog(side(spec, 9), side(Spec { copies: 2, ..spec }, 10));
    check("duplicates", EQUI, &c);
}

#[test]
fn touching_half_open_periods_do_not_join() {
    let schema = side(
        Spec {
            rows: 0,
            keys: 1,
            null_every: 0,
            copies: 1,
            max_len: 1,
        },
        0,
    )
    .schema()
    .clone();
    let table = |rows: &[(i64, i64, i64)]| {
        let mut t = Table::with_period(schema.clone(), 3, 4);
        for &(k, ts, te) in rows {
            t.push(Row::new(vec![
                Value::Int(k),
                Value::str("c0"),
                Value::Int(k),
                Value::Int(ts),
                Value::Int(te),
            ]));
        }
        t
    };
    // Same key everywhere: [0,5) touches [5,9) and [5,9) touches [9,12);
    // only [4,6) overlaps anything on the other side.
    let r = table(&[(1, 0, 5), (1, 9, 12)]);
    let s = table(&[(1, 5, 9), (1, 4, 6), (1, 12, 20)]);
    let c = catalog(r, s);
    // One joined pair and one result row: [0,5) ∩ [4,6) = [4,5).
    assert_eq!(check("touching", EQUI, &c), (1, 1));
}

#[test]
fn two_column_keys() {
    let spec = Spec {
        rows: 120,
        keys: 3,
        null_every: 7,
        copies: 1,
        max_len: 8,
    };
    let c = catalog(side(spec, 11), side(spec, 12));
    check(
        "two-column keys",
        "SEQ VT (SELECT r.v, s.v FROM r JOIN s ON r.k = s.k AND r.k2 = s.k2)",
        &c,
    );
    check(
        "two-column keys, comma FROM",
        "SEQ VT (SELECT r.k, s.v FROM r, s WHERE s.k2 = r.k2 AND s.k = r.k)",
        &c,
    );
}

#[test]
fn residuals_beyond_keys_and_overlap() {
    let spec = Spec {
        rows: 120,
        keys: 3,
        null_every: 9,
        copies: 1,
        max_len: 8,
    };
    let c = catalog(side(spec, 13), side(spec, 14));
    // A cross-side `<` and a one-sided `> c`, in ON and in WHERE.
    for (name, sql) in [
        (
            "cross-side <",
            "SEQ VT (SELECT r.v, s.v FROM r JOIN s ON r.k = s.k AND r.v < s.v)",
        ),
        (
            "one-sided >",
            "SEQ VT (SELECT r.v, s.v FROM r JOIN s ON r.k = s.k WHERE r.v > 3)",
        ),
        (
            "both, comma FROM",
            "SEQ VT (SELECT r.v, s.v FROM r, s WHERE r.k = s.k AND r.v < s.v AND s.v > 2)",
        ),
    ] {
        assert!(
            check(name, sql, &c).0 > 0,
            "{name}: empty result tests nothing"
        );
    }
}

/// Binds a plain `SELECT` over `catalog`, runs it as the engine chooses
/// and again with every join forced to the nested loop, asserts the
/// engine chose `route` and both agree, and returns the result size.
fn check_plain(sql: &str, catalog: &Catalog, route: &str) -> usize {
    fn nested_loop(plan: &mut Plan) {
        match &mut plan.node {
            PlanNode::Project { input, .. } | PlanNode::Filter { input, .. } => nested_loop(input),
            PlanNode::Join {
                left, right, algo, ..
            } => {
                *algo = JoinAlgo::NestedLoop;
                nested_loop(left);
                nested_loop(right);
            }
            _ => {}
        }
    }
    let BoundStatement::Query(plan) =
        bind_statement(&parse_statement(sql).unwrap(), catalog).unwrap()
    else {
        panic!("{sql}: expected a plain query")
    };
    let mut stats = ExecStats::default();
    let got = Engine::new()
        .execute_with_stats(&plan, catalog, &mut stats)
        .unwrap()
        .canonicalized();
    assert!(
        stats.get(route).is_some(),
        "{sql}: {route} not taken: {stats:?}"
    );
    let mut reference = plan.clone();
    nested_loop(&mut reference);
    let mut stats = ExecStats::default();
    let want = Engine::new()
        .execute_with_stats(&reference, catalog, &mut stats)
        .unwrap()
        .canonicalized();
    assert!(stats.get("NestedLoopJoin").is_some(), "{sql}: {stats:?}");
    assert_eq!(got, want, "{sql}: {route} vs nested loop");
    got.len()
}

#[test]
fn empty_and_inverted_intervals_outside_periods() {
    // A plain table whose trailing INT columns look like a period but are
    // not validated as one: the overlap pattern still matches, and empty
    // or inverted intervals must not join where the predicate says no.
    let schema = Schema::of(&[
        ("k", SqlType::Int),
        ("lo", SqlType::Int),
        ("hi", SqlType::Int),
    ]);
    let mut t = Table::new(schema);
    for (lo, hi) in [(5, 2), (3, 10), (0, 0), (0, 1), (1, 10), (7, 7), (9, 4)] {
        t.push(Row::new(vec![
            Value::Int(1),
            Value::Int(lo),
            Value::Int(hi),
        ]));
    }
    let mut c = Catalog::new();
    c.register("t", t);
    let sql = "SELECT * FROM t x JOIN t y ON x.k = y.k AND x.lo < y.hi AND y.lo < x.hi";
    // Nonempty results: (3,10), (0,1) and (1,10) overlap among themselves,
    // and the inverted (5,2) meets (1,10) under the predicate as written.
    assert!(check_plain(sql, &c, "HashJoin") > 0);
    let comma = "SELECT * FROM t x, t y WHERE x.k = y.k AND x.lo < y.hi AND y.lo < x.hi";
    check_plain(comma, &c, "HashJoin");
}

#[test]
fn double_keys_hash_and_match_sql_equality() {
    // `-0.0 = 0.0` holds in SQL but the two differ bit-wise; `NaN` never
    // equals anything, itself included; NULL never joins.
    let schema = Schema::of(&[("d", SqlType::Double), ("v", SqlType::Int)]);
    let keys = [0.0, -0.0, 1.5, f64::NAN, 2.0, 1.5];
    let mut t = Table::new(schema.clone());
    for (n, &d) in keys.iter().enumerate() {
        t.push(Row::new(vec![Value::Double(d), Value::Int(n as i64)]));
    }
    t.push(Row::new(vec![Value::Null, Value::Int(9)]));
    let mut c = Catalog::new();
    c.register("a", t.clone());
    c.register("b", t);
    // ±0 pair four ways, 1.5 four ways, 2.0 once.
    let n = check_plain("SELECT a.v, b.v FROM a JOIN b ON a.d = b.d", &c, "HashJoin");
    assert_eq!(n, 9);
    // INT = DOUBLE compares numerically, which a hash on `Value`s cannot.
    let ints = Schema::of(&[("i", SqlType::Int)]);
    let mut i = Table::new(ints);
    for x in [0, 1, 2] {
        i.push(Row::new(vec![Value::Int(x)]));
    }
    c.register("i", i);
    let n = check_plain(
        "SELECT a.v, i.i FROM a JOIN i ON a.d = i.i",
        &c,
        "NestedLoopJoin",
    );
    assert_eq!(n, 3);
}

/// The count guard: the paper's agg-join query visits only key-matching,
/// overlapping pairs. At scale 0.002 (seed 1) a hash join on `dept_no`
/// alone, with the WHERE filter above it, considered 3,280,033 pairs.
#[test]
fn employee_agg_join_considers_few_pairs() {
    let catalog = snapshot_semantics::datagen::employees::generate(0.002, 1);
    let domain = snapshot_semantics::datagen::employees::domain();
    let indexes = IndexCatalog::build_all(&catalog);
    let (_, sql) = snapshot_semantics::datagen::employees::queries()
        .into_iter()
        .find(|(name, _)| *name == "agg-join")
        .unwrap();
    let bound = bind_statement(&parse_statement(sql).unwrap(), &catalog).unwrap();
    let plan = SnapshotCompiler::new(domain)
        .compile_statement(&bound, &catalog)
        .unwrap();
    let account = Arc::new(snapshot_obs::ResourceAccount::default());
    let token = Arc::new(snapshot_obs::CancelToken::default());
    token.arm(None, None, None);
    Engine::new()
        .with_context(ExecContext::new(Arc::clone(&account), token))
        .execute_indexed(&plan, &catalog, &indexes)
        .unwrap();
    let pairs = account.usage().join_pairs;
    assert!(
        pairs <= 20_000,
        "agg-join considered {pairs} join pairs (bound 20,000)"
    );
}
