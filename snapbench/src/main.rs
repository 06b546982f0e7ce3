//! snapbench: end-to-end and per-layer benchmark of the snapshot-semantics
//! database. See `README.md` in this directory for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! snapbench --workload <employee|overlap_join|oltp_wire> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload untraced and prints its end-to-end
//! metrics; `--trace 1` replays every workload's statements through the
//! layers' public entry points with spans recorded around each call and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`), the raw samples go to `out/` beside this package, and the
//! exit code is nonzero when a correctness gate failed.

mod employee;
mod gates;
mod oltp;
mod overlap;
mod trace;
mod util;

use gates::Gates;
use snapshot_session::SessionOptions;
use std::path::PathBuf;
use util::Json;

/// The end-to-end metrics on the result line: the ones every workload has
/// and that repeat across runs on a host whose speed drifts (see the
/// README). Each workload prints more, and keeps them in its details file.
pub const END_TO_END: [&str; 3] = ["setup_s", "peak_rss_mb", "read_in_calib"];

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    pub gates: Gates,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed before the result (how to read some metric).
    pub notes: Vec<String>,
    /// Raw samples and settings, written to the details file.
    pub details: Json,
}

/// The session options every workload runs with. Parallelism is set
/// explicitly so that `SNAPSHOT_PARALLELISM` cannot leak into a run.
pub fn session_options() -> SessionOptions {
    SessionOptions {
        parallelism: 1,
        ..SessionOptions::default()
    }
}

/// Where runs write their details and scratch directories: `out/` of this
/// package, relative to the repository root the command runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("snapbench/out")
}

const WORKLOADS: [&str; 3] = ["employee", "overlap_join", "oltp_wire"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| format!("--trace: {e}"))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snapbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        trace::run(&args.workload)
    } else {
        match args.workload.as_str() {
            "employee" => employee::run(args.seed, args.seconds),
            "overlap_join" => overlap::run(args.seed, args.seconds),
            _ => oltp::run(args.seed, args.seconds),
        }
    };
    let correct = outcome.gates.passed();

    for m in &outcome.metrics {
        if args.trace {
            println!("{} = {} {}", m.name, m.value, m.unit);
        } else {
            println!("{}/{} = {} {}", args.workload, m.name, m.value, m.unit);
        }
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!(
        "gates: {} checked, {}",
        outcome.gates.count(),
        if correct { "all passed" } else { "FAILED" }
    );
    for f in outcome.gates.failures() {
        println!("gate failure: {f}");
    }

    let details = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with(
            "hardware_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with(
            "metrics",
            Json::Arr(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", m.name.as_str())
                            .with("value", m.value)
                            .with("unit", m.unit)
                    })
                    .collect(),
            ),
        )
        .with("gates", outcome.gates.to_json())
        .with("details", outcome.details);
    let dir = out_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, details.render())) {
        Ok(()) => println!("details: {}", path.display()),
        Err(e) => eprintln!("snapbench: cannot write {}: {e}", path.display()),
    }

    // The result line: the end-to-end metrics untraced, the per-layer
    // metrics traced.
    let reported: Vec<(String, Json)> = outcome
        .metrics
        .iter()
        .filter(|m| args.trace || END_TO_END.contains(&m.name.as_str()))
        .map(|m| {
            (
                m.name.clone(),
                Json::obj().with("value", m.value).with("unit", m.unit),
            )
        })
        .collect();
    let line = Json::obj()
        .with("correct", correct)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", Json::Obj(reported));
    println!("{}", line.render());
    if !correct {
        std::process::exit(1);
    }
}
