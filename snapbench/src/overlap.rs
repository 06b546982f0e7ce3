//! `overlap_join`: a pure interval-overlap `SEQ VT` join over two random
//! period tables, run in-process by one closed-loop client.

use crate::employee::{cardinality_gate, rows_of};
use crate::gates::{self, Gates};
use crate::util::{self, Json};
use crate::{session_options, Metric, Outcome};
use datagen::random::{random_period_table, RandomTableSpec};
use engine::{Engine, EngineConfig, JoinStrategy};
use snapshot_session::SharedDatabase;
use std::time::{Duration, Instant};
use timeline::TimeDomain;

/// Rows per side.
pub const ROWS: usize = 10_000;
/// The measured statement: every overlapping pair of rows, no predicate
/// beyond the overlap itself, coalesced on output.
pub const QUERY: &str = "SEQ VT (SELECT r.i0, s.s0 FROM r, s)";
/// Set-ups timed before the measured loop and again after it.
const SETUP_REPEATS: usize = 6;

fn spec() -> RandomTableSpec {
    RandomTableSpec {
        rows: ROWS,
        int_cols: 1,
        str_cols: 1,
        cardinality: 16,
        domain: TimeDomain::new(0, 100_000),
        max_len: 90,
    }
}

/// Generates both tables, loads them into a fresh shared database and
/// builds their indexes.
pub fn load(seed: u64) -> SharedDatabase {
    let shared = SharedDatabase::in_memory();
    let r = random_period_table(&spec(), seed);
    let s = random_period_table(&spec(), seed.wrapping_add(1));
    shared
        .register_tables(vec![("r".to_string(), r), ("s".to_string(), s)])
        .expect("in-memory registration cannot fail");
    shared.refresh_indexes(None);
    shared
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut gates = Gates::default();
    let (shared, mut setups) = util::time_setups(SETUP_REPEATS, || load(seed));

    // The first result is checked against the non-indexed route after
    // the measured loop, so that the check's memory does not count in the
    // workload's peak.
    let mut session = shared.session_with_options(session_options());
    let reference = rows_of(session.execute(QUERY)).expect("overlap query");
    let _ = session.execute(QUERY);
    let mut samples = Vec::new();
    let mut calib = vec![util::calib_ms()];
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < deadline {
        attempted += 1;
        let t = Instant::now();
        let out = session.execute(QUERY);
        let ms = util::ms_since(t);
        match out.as_ref().ok().and_then(|r| r.rows()) {
            Some(rows) if rows.len() == reference.len() => samples.push(ms),
            Some(_) => {
                failed += 1;
                wrong += 1;
            }
            None => failed += 1,
        }
        calib.push(util::calib_ms());
    }
    let peak_rss_mb = util::peak_rss_mb();
    gates.check("overlap_join.measured_cardinality", cardinality_gate(wrong));

    // Gate (untimed): the indexed route equals the non-indexed route. The
    // hash route has no equality key on a pure overlap join and degenerates
    // to a nested loop over 10^8 pairs (about 15 s), so the non-indexed
    // reference is the engine's merge interval join.
    let plan = session.compile(QUERY).expect("overlap query compiles");
    let naive = Engine::with_config(EngineConfig {
        join_strategy: JoinStrategy::MergeInterval,
        parallelism: 1,
    })
    .execute(&plan, shared.snapshot().catalog())
    .expect("overlap query (non-indexed)");
    gates.check(
        "overlap_join.indexed_eq_naive",
        gates::bag_equal(&naive, &reference),
    );
    gates.self_test(
        "overlap_join.indexed_eq_naive",
        gates::bag_equal(&naive, &gates::perturb(&reference)),
    );
    drop(session);
    drop(shared);
    setups.extend(util::time_setups(SETUP_REPEATS, || load(seed)).1);
    let tail = util::tail(&samples);
    let metrics = vec![
        Metric::new("setup_s", util::median(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new(
            "read_in_calib",
            util::median(&samples) / util::median(&calib),
            "calib",
        ),
        Metric::new("read_ms", util::median(&samples), "ms"),
        Metric::new("calib_ms", util::median(&calib), "ms"),
        Metric::new("read_tail_ms", tail.value, "ms"),
    ];
    let details = Json::obj()
        .with("rows_per_side", ROWS)
        .with("query", QUERY)
        .with("result_rows", reference.len())
        .with("read_tail_percentile", tail.percentile)
        .with("setup_s_samples", Json::nums(&setups))
        .with("calib_ms", Json::nums(&calib))
        .with("read_samples_ms", Json::nums(&samples));
    Outcome {
        gates,
        attempted,
        failed,
        metrics,
        notes: vec![format!(
            "read_tail_ms is p{:.2} of {} samples; result {} rows",
            tail.percentile,
            samples.len(),
            reference.len()
        )],
        details,
    }
}
