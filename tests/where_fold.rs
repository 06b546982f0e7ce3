//! WHERE folding: the binder merges a WHERE clause bound directly over a
//! join into the join's condition (σ_p(R ⋈_c S) = R ⋈_{c∧p} S). These
//! tests check that the folded plan returns exactly what the unfolded plan
//! — the join with a Filter on top, built by hand — returns, for snapshot
//! and plain statements over explicit `JOIN` and comma `FROM` lists, with
//! NULLs, `OR` across sides and one-sided conjuncts.

use snapshot_semantics::algebra::{BinOp, Expr, Plan, PlanNode, SnapshotNode, SnapshotPlan};
use snapshot_semantics::engine::{Engine, ExecStats};
use snapshot_semantics::rewrite::SnapshotCompiler;
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{Catalog, Row, Schema, SqlType, Table, Value};
use snapshot_semantics::timeline::TimeDomain;

const DOMAIN: (i64, i64) = (0, 30);

/// `r(k, v, name, ts, te)` and `s(k, w, tag, ts, te)`: small keys, every
/// fifth `k` and every seventh `v`/`w` NULL, short periods inside the
/// domain.
fn catalog() -> Catalog {
    let table = |cols: [&str; 3], seed: u64| {
        let schema = Schema::of(&[
            (cols[0], SqlType::Int),
            (cols[1], SqlType::Int),
            (cols[2], SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut t = Table::with_period(schema, 3, 4);
        let mut state = seed;
        let mut draw = |n: u64| {
            // xorshift64*: independent draws per column.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as i64 % n as i64
        };
        for n in 0..60 {
            let k = if n % 5 == 0 {
                Value::Null
            } else {
                Value::Int(draw(3))
            };
            let v = if n % 7 == 3 {
                Value::Null
            } else {
                Value::Int(draw(6))
            };
            let ts = draw(DOMAIN.1 as u64 - 4);
            let te = ts + 1 + draw(4);
            t.push(Row::new(vec![
                k,
                v,
                Value::str(format!("n{}", draw(3))),
                Value::Int(ts),
                Value::Int(te),
            ]));
        }
        t
    };
    let mut c = Catalog::new();
    c.register("r", table(["k", "v", "name"], 1));
    c.register("s", table(["k", "w", "tag"], 4));
    c
}

const PREDICATES: &[&str] = &[
    "r.k = s.k",
    "r.k = s.k AND r.v < s.w",
    "r.k = s.k OR r.v = s.w",
    "r.v > 2 AND s.w IS NOT NULL",
    "r.k = s.k AND r.v = NULL",
    "r.k = s.k AND (r.v > s.w OR s.w IS NULL) AND r.name <> 'n1'",
];

/// The two FROM forms, and whether the join carries its own ON condition.
const FROMS: &[(&str, bool)] = &[("r JOIN s ON r.name = s.tag", true), ("r, s", false)];

/// Splits a folded join condition back into the join's own condition and
/// the WHERE predicate: `c AND p` for an explicit join, `p` alone (over a
/// TRUE join) for a comma list.
fn split(condition: &Expr, explicit: bool) -> (Expr, Expr) {
    if !explicit {
        return (Expr::lit(true), condition.clone());
    }
    let Expr::Binary {
        op: BinOp::And,
        left,
        right,
    } = condition
    else {
        panic!("explicit join condition was not folded: {condition}")
    };
    ((**left).clone(), (**right).clone())
}

/// The unfolded plain plan: `Project(Filter_p(Join_c(l, r)))`.
fn unfold_plain(plan: &Plan, explicit: bool) -> Plan {
    let PlanNode::Project { input, exprs } = &plan.node else {
        panic!("expected a projection on top: {plan}")
    };
    let PlanNode::Join {
        left,
        right,
        condition,
        ..
    } = &input.node
    else {
        panic!("expected the WHERE folded into the join: {plan}")
    };
    let (c, p) = split(condition, explicit);
    let names = plan
        .schema
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    (**left)
        .clone()
        .join((**right).clone(), c)
        .filter(p)
        .project(exprs.clone(), names)
        .unwrap()
}

/// The unfolded snapshot plan, likewise.
fn unfold_snapshot(plan: &SnapshotPlan, explicit: bool) -> SnapshotPlan {
    let SnapshotNode::Project { input, exprs } = &plan.node else {
        panic!("expected a projection on top")
    };
    let SnapshotNode::Join {
        left,
        right,
        condition,
    } = &input.node
    else {
        panic!("expected the WHERE folded into the join")
    };
    let (c, p) = split(condition, explicit);
    let names = plan
        .schema
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    (**left)
        .clone()
        .join((**right).clone(), c)
        .filter(p)
        .project(exprs.clone(), names)
        .unwrap()
}

fn execute(bound: &BoundStatement, catalog: &Catalog) -> Table {
    let domain = TimeDomain::new(DOMAIN.0, DOMAIN.1);
    let plan = SnapshotCompiler::new(domain)
        .compile_statement(bound, catalog)
        .unwrap();
    Engine::new()
        .execute(&plan, catalog)
        .unwrap()
        .canonicalized()
}

#[test]
fn folded_plans_equal_hand_unfolded_plans() {
    let catalog = catalog();
    let windows = [
        "SEQ VT (",
        "SEQ VT AS OF 7 (",
        "SEQ VT BETWEEN 3 AND 12 (",
        "",
    ];
    let mut nonempty = 0;
    for p in PREDICATES {
        for &(from, explicit) in FROMS {
            for open in windows {
                let close = if open.is_empty() { "" } else { ")" };
                let sql = format!("{open}SELECT r.v, s.w, r.name FROM {from} WHERE {p}{close}");
                let folded = bind_statement(&parse_statement(&sql).unwrap(), &catalog).unwrap();
                let unfolded = match &folded {
                    BoundStatement::Query(plan) => {
                        BoundStatement::Query(unfold_plain(plan, explicit))
                    }
                    BoundStatement::Snapshot {
                        plan,
                        order_by,
                        window,
                    } => BoundStatement::Snapshot {
                        plan: unfold_snapshot(plan, explicit),
                        order_by: order_by.clone(),
                        window: *window,
                    },
                };
                let got = execute(&folded, &catalog);
                assert_eq!(got, execute(&unfolded, &catalog), "{sql}");
                nonempty += usize::from(!got.is_empty());
            }
        }
    }
    // `r.v = NULL` is never TRUE; every other statement returns rows, so
    // the comparisons are not between empty results.
    assert_eq!(nonempty, 40, "non-empty results");
}

#[test]
fn comma_join_with_where_equality_is_a_hash_join() {
    let catalog = catalog();
    let sql = "SELECT r.v, s.w FROM r, s WHERE r.k = s.k AND r.v < s.w";
    let BoundStatement::Query(plan) =
        bind_statement(&parse_statement(sql).unwrap(), &catalog).unwrap()
    else {
        panic!("expected a plain query")
    };
    let mut stats = ExecStats::default();
    let out = Engine::new()
        .execute_with_stats(&plan, &catalog, &mut stats)
        .unwrap();
    assert!(!out.is_empty());
    assert!(stats.get("HashJoin").is_some(), "{stats:?}");
    assert!(stats.get("NestedLoopJoin").is_none(), "{stats:?}");
}
