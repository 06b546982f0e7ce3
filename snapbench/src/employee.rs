//! `employee`: the paper's ten-query Employee workload (Section 10.1),
//! run in-process by one closed-loop client, queries interleaved in a
//! fixed order each round.

use crate::gates::{self, Gates};
use crate::util::{self, Json};
use crate::{session_options, Metric, Outcome};
use snapshot_session::{SessionOptions, SharedDatabase};
use std::time::{Duration, Instant};
use storage::{Catalog, Table};

/// Dataset scale. agg-join grows with the square of the scale (about 1 s
/// here on a 2-vCPU host); the other nine queries total about 60 ms, so
/// every query class sums to at least about 10 ms.
pub const SCALE: f64 = 0.002;
/// Scale of the point-wise oracle check (the oracle's cost is linear in
/// the number of time points, and each point evaluates the whole query).
pub const ORACLE_SCALE: f64 = 0.0002;
/// Set-ups timed before the measured loop and again after it; the median
/// of all of them is reported, so that one slow host phase at either end
/// does not decide it.
const SETUP_REPEATS: usize = 6;

/// The query classes of the paper's Table 3.
pub const CLASSES: [&str; 4] = ["join", "agg", "agg_join", "diff"];

/// The class a query belongs to (`agg-join` is its own class).
pub fn class_of(query: &str) -> &'static str {
    match query {
        "agg-join" => "agg_join",
        q if q.starts_with("join-") => "join",
        q if q.starts_with("agg-") => "agg",
        _ => "diff",
    }
}

/// Installs a generated catalog into a fresh shared database and builds
/// its indexes.
pub fn load(catalog: &Catalog) -> SharedDatabase {
    let shared = SharedDatabase::in_memory();
    let tables = catalog
        .table_names()
        .map(|n| (n.to_string(), catalog.get(n).expect("listed table").clone()));
    shared
        .register_tables(tables.collect::<Vec<_>>())
        .expect("in-memory registration cannot fail");
    shared.refresh_indexes(None);
    shared
}

/// Runs the workload for `seconds` of measured time.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut gates = Gates::default();

    // Set-up: generate, load, build indexes.
    let setup = || load(&datagen::employees::generate(SCALE, seed));
    let (shared, mut setups) = util::time_setups(SETUP_REPEATS, setup);
    let queries = datagen::employees::queries();

    // Warm-up round. Its results are the reference for every measured
    // result and are checked against the naive route after the loop, so
    // that the check's memory does not count in the workload's peak.
    let mut session = shared.session_with_options(session_options());
    let reference: Vec<Table> = queries
        .iter()
        .map(|(name, sql)| rows_of(session.execute(sql)).unwrap_or_else(|e| die(name, &e)))
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
    let mut calib = vec![util::calib_ms()];
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < deadline {
        for (i, (_, sql)) in queries.iter().enumerate() {
            attempted += 1;
            let t = Instant::now();
            let out = session.execute(sql);
            let ms = util::ms_since(t);
            // Every measured result must have the checked result's
            // cardinality (the full bag check runs once, after the loop).
            match out.as_ref().ok().and_then(|r| r.rows()) {
                Some(rows) if rows.len() == reference[i].len() => samples[i].push(ms),
                Some(_) => {
                    failed += 1;
                    wrong += 1;
                }
                None => failed += 1,
            }
        }
        calib.push(util::calib_ms());
    }

    let peak_rss_mb = util::peak_rss_mb();
    gates.check("employee.measured_cardinality", cardinality_gate(wrong));
    drop(session);

    // Gate 1 (untimed): the indexed route equals the naive route.
    let mut naive = shared.session_with_options(SessionOptions {
        use_indexes: false,
        ..session_options()
    });
    for ((name, sql), indexed) in queries.iter().zip(&reference) {
        let plain = rows_of(naive.execute(sql)).unwrap_or_else(|e| die(name, &e));
        gates.check(
            &format!("employee.{name}.indexed_eq_naive"),
            gates::bag_equal(&plain, indexed),
        );
    }
    drop(naive);
    drop(shared);
    if let Some(t) = reference.iter().find(|t| !t.is_empty()) {
        gates.self_test("indexed_eq_naive", gates::bag_equal(t, &gates::perturb(t)));
    }
    // Gate 2 (untimed): all ten queries equal the point-wise oracle on a
    // tiny instance.
    check_oracle(seed, &mut gates);

    setups.extend(util::time_setups(SETUP_REPEATS, setup).1);

    let medians: Vec<f64> = samples.iter().map(|s| util::median(s)).collect();
    let tails: Vec<util::Tail> = samples.iter().map(|s| util::tail(s)).collect();
    let mut metrics = vec![
        Metric::new("setup_s", util::median(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new(
            "read_in_calib",
            util::geomean(&medians) / util::median(&calib),
            "calib",
        ),
        Metric::new("read_ms", util::geomean(&medians), "ms"),
        Metric::new("calib_ms", util::median(&calib), "ms"),
        Metric::new(
            "read_tail_ms",
            util::geomean(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
            "ms",
        ),
    ];
    for class in CLASSES {
        let sum: f64 = queries
            .iter()
            .zip(&medians)
            .filter(|((name, _), _)| class_of(name) == class)
            .map(|(_, m)| m)
            .sum();
        metrics.push(Metric::new(&format!("{class}_ms"), sum, "ms"));
    }
    let per_query: Vec<Json> = queries
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            Json::obj()
                .with("query", *name)
                .with("class", class_of(name))
                .with("result_rows", reference[i].len())
                .with("median_ms", medians[i])
                .with("tail_ms", tails[i].value)
                .with("tail_percentile", tails[i].percentile)
                .with("samples_ms", Json::nums(&samples[i]))
        })
        .collect();
    let details = Json::obj()
        .with("scale", SCALE)
        .with("oracle_scale", ORACLE_SCALE)
        .with("rounds", samples.first().map_or(0, Vec::len))
        .with("setup_s_samples", Json::nums(&setups))
        .with("calib_ms", Json::nums(&calib))
        .with("queries", per_query);
    Outcome {
        gates,
        attempted,
        failed,
        metrics,
        notes: vec![format!(
            "read_tail_ms is the geometric mean of each query's p{:.1} ({} samples per query)",
            tails.first().map_or(f64::NAN, |t| t.percentile),
            samples.first().map_or(0, Vec::len)
        )],
        details,
    }
}

/// All ten queries, through the same session route the workload measures,
/// against the point-wise oracle on a tiny instance with a narrowed domain.
fn check_oracle(seed: u64, gates: &mut Gates) {
    let catalog = datagen::employees::generate(ORACLE_SCALE, seed);
    let domain = rewrite::infer_domain(&catalog);
    let shared = load(&catalog);
    let mut session = shared.session_with_options(session_options());
    let mut tested = false;
    for (name, sql) in datagen::employees::queries() {
        let out = rows_of(session.execute(sql)).unwrap_or_else(|e| die(name, &e));
        let oracle = bench_harness::run_oracle(sql, &catalog, domain)
            .unwrap_or_else(|e| die(name, &format!("oracle: {e}")));
        gates.check(
            &format!("employee.{name}.eq_oracle"),
            gates::oracle_equal(&out, &oracle, domain),
        );
        if !tested && !out.is_empty() {
            tested = true;
            gates.self_test(
                "eq_oracle",
                gates::oracle_equal(&gates::perturb(&out), &oracle, domain),
            );
        }
    }
}

/// Measured results whose cardinality differed from the checked result.
pub fn cardinality_gate(wrong: u64) -> Result<(), String> {
    match wrong {
        0 => Ok(()),
        n => Err(format!("{n} measured result(s) had another cardinality")),
    }
}

/// The result table of a query statement.
pub fn rows_of(result: Result<snapshot_session::StatementResult, String>) -> Result<Table, String> {
    match result? {
        snapshot_session::StatementResult::Rows(t) => Ok(t),
        other => Err(format!("expected rows, got {other}")),
    }
}

fn die(what: &str, e: &str) -> ! {
    eprintln!("snapbench: {what} failed: {e}");
    std::process::exit(1)
}
