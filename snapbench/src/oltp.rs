//! `oltp_wire`: an 80/20 mix of `SEQ VT … GROUP BY` reads and
//! INSERT/UPDATE/DELETE writes, sent over TCP by two closed-loop
//! connections to a server on a durable directory (every commit fsynced,
//! a checkpoint every 64 logged statements).

use crate::gates::{self, Gates};
use crate::util::{self, Json};
use crate::{out_dir, session_options, Metric, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snapshot_server::{Client, RemoteResult, Server, ServerConfig, ServerHandle};
use snapshot_session::{PersistenceOptions, SharedDatabase, SyncPolicy};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use storage::{Table, Value};

/// Rows in `works` before the run.
pub const SEED_ROWS: usize = 4_000;
/// Writes logged after the pristine directory's checkpoint, so every
/// set-up replays a WAL tail.
pub const WAL_TAIL: usize = 48;
/// Closed-loop client connections (the host has two hardware threads).
pub const CONNECTIONS: usize = 2;
/// Set-ups timed before the measured loop and again after it.
const SETUP_REPEATS: usize = 4;
/// Client operations between two calibration-kernel timings.
const CALIB_EVERY: usize = 100;

pub const CREATE: &str =
    "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te)";
/// The read statement: a temporal aggregate over the whole table.
pub const READ: &str = "SEQ VT (SELECT skill, count(*) AS cnt FROM works GROUP BY skill)";

/// Every commit is fsynced; a checkpoint follows every 64 logged
/// statements.
pub fn persistence_options() -> PersistenceOptions {
    PersistenceOptions {
        sync: SyncPolicy::Always,
        checkpoint_every: 64,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Insert,
    Update,
    Delete,
}

impl Kind {
    fn letter(self) -> char {
        match self {
            Kind::Read => 'R',
            Kind::Insert => 'I',
            Kind::Update => 'U',
            Kind::Delete => 'D',
        }
    }
}

/// The `i`-th operation of connection `conn`: positions 0–7 of every ten
/// are reads, 8 and 9 are writes. Writes cycle insert → update → delete
/// over one key at a time, so each touches exactly one row and the table
/// keeps its size. Connections own disjoint keys, so the final state does
/// not depend on how the connections interleave.
pub fn operation(seed: u64, conn: usize, i: usize) -> (Kind, String) {
    if i % 10 < 8 {
        return (Kind::Read, READ.to_string());
    }
    let w = (i / 10) * 2 + (i % 10 - 8);
    let key = format!("c{conn}_{}", w / 3);
    match w % 3 {
        0 => {
            let mut rng = StdRng::seed_from_u64(seed ^ ((conn as u64) << 40) ^ w as u64);
            let ts: i64 = rng.gen_range(0..1_000);
            let te = ts + rng.gen_range(1..=60);
            (
                Kind::Insert,
                format!("INSERT INTO works VALUES ('{key}', 'S9', {ts}, {te})"),
            )
        }
        1 => (
            Kind::Update,
            format!("UPDATE works SET skill = 'S8' WHERE name = '{key}'"),
        ),
        _ => (
            Kind::Delete,
            format!("DELETE FROM works WHERE name = '{key}'"),
        ),
    }
}

/// The statements that build the pristine directory: the table, the seed
/// rows in INSERT batches of 250, and (after a checkpoint) the WAL tail.
pub fn seed_statements(seed: u64) -> (Vec<String>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut load = vec![CREATE.to_string()];
    for chunk in (0..SEED_ROWS).collect::<Vec<_>>().chunks(250) {
        let values: Vec<String> = chunk
            .iter()
            .map(|&i| {
                let ts: i64 = rng.gen_range(0..1_000);
                let te = ts + rng.gen_range(1..=60);
                format!("('p{}', 'S{}', {ts}, {te})", i % 31, rng.gen_range(0..5))
            })
            .collect();
        load.push(format!("INSERT INTO works VALUES {}", values.join(", ")));
    }
    let tail = (0..)
        .map(|i| operation(seed, 9, i))
        .filter(|(k, _)| *k != Kind::Read)
        .take(WAL_TAIL)
        .map(|(_, sql)| sql)
        .collect();
    (load, tail)
}

/// Writes the pristine database directory.
pub fn build_pristine(dir: &Path, seed: u64) -> Result<(), String> {
    let (load, tail) = seed_statements(seed);
    let (shared, _) = SharedDatabase::open_durable(dir, session_options(), persistence_options())?;
    let mut session = shared.session_with_options(session_options());
    for sql in &load {
        session.execute(sql)?;
    }
    shared.checkpoint()?;
    for sql in &tail {
        session.execute(sql)?;
    }
    Ok(())
}

/// A running server over a recovered durable directory.
pub struct Running {
    pub shared: SharedDatabase,
    pub handle: ServerHandle,
    pub addr: std::net::SocketAddr,
    thread: JoinHandle<Result<u64, String>>,
}

impl Running {
    /// Recovers `dir`, starts a server on a free local port and accepts
    /// the first connection: the workload's set-up.
    pub fn start(dir: &Path) -> Result<(Running, Client), String> {
        let (shared, _) =
            SharedDatabase::open_durable(dir, session_options(), persistence_options())?;
        Running::serve(shared)
    }

    /// Starts a server over `shared` and accepts the first connection.
    pub fn serve(shared: SharedDatabase) -> Result<(Running, Client), String> {
        let config = ServerConfig {
            options: session_options(),
            ..ServerConfig::default()
        };
        let server = Server::bind(shared.clone(), "127.0.0.1:0", config)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let client = Client::connect(addr).map_err(|e| format!("connect: {e:?}"))?;
        Ok((
            Running {
                shared,
                handle,
                addr,
                thread,
            },
            client,
        ))
    }

    /// Graceful shutdown (which checkpoints), waiting for the server
    /// thread.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map(|_| ())
    }
}

/// Copies a database directory file by file.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Bytes of checkpoints and WAL in a database directory.
pub fn stored_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    let name = e.file_name().to_string_lossy().to_string();
                    name == "wal.log" || name.starts_with("checkpoint.")
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Bytes of live user data in a table: eight per number, the text's
/// length per string.
pub fn user_bytes(table: &Table) -> u64 {
    table
        .rows()
        .iter()
        .flat_map(|r| r.values().iter())
        .map(|v| match v {
            Value::Str(s) => s.len() as u64,
            Value::Null => 0,
            Value::Bool(_) => 1,
            _ => 8,
        })
        .sum()
}

/// The `works` table of a database's committed state.
pub fn works(shared: &SharedDatabase) -> Table {
    shared
        .snapshot()
        .catalog()
        .get("works")
        .expect("works table")
        .clone()
}

/// What one client connection did.
#[derive(Debug, Default)]
struct ClientLog {
    /// Operation kinds in order (`R`/`I`/`U`/`D`).
    kinds: String,
    /// Round-trip latency per operation, ms.
    ms: Vec<f64>,
    /// Indices of operations that failed.
    failed: Vec<usize>,
    calib: Vec<f64>,
}

fn client_loop(
    mut client: Client,
    seed: u64,
    conn: usize,
    deadline: Instant,
    calibrate: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut i = 0;
    while Instant::now() < deadline {
        let (kind, sql) = operation(seed, conn, i);
        let t = Instant::now();
        let resp = client.query(&sql);
        let ms = util::ms_since(t);
        let ok = match &resp {
            Ok(r) if r.error.is_none() => {
                matches!(
                    (kind, r.results.as_slice()),
                    (Kind::Read, [RemoteResult::Rows(t)]) if t.schema().arity() == 4 && !t.is_empty()
                ) || matches!(
                    (kind, r.results.as_slice()),
                    (
                        Kind::Insert | Kind::Update | Kind::Delete,
                        [RemoteResult::Done(_)]
                    )
                )
            }
            _ => false,
        };
        log.kinds.push(kind.letter());
        log.ms.push(ms);
        if !ok {
            log.failed.push(i);
        }
        if resp.is_err() {
            break;
        }
        i += 1;
        if calibrate && i % CALIB_EVERY == 0 {
            log.calib.push(util::calib_ms());
        }
    }
    let _ = client.close();
    log
}

/// One set-up on a fresh copy of the pristine directory (the copy is not
/// timed), with its duration in seconds.
fn timed_setup(pristine: &Path, dir: &Path) -> Result<((Running, Client), f64), String> {
    copy_dir(pristine, dir)?;
    let t = Instant::now();
    let started = Running::start(dir)?;
    Ok((started, t.elapsed().as_secs_f64()))
}

fn stop(running: Running, client: Client) -> Result<(), String> {
    let _ = client.close();
    running.stop()
}

/// Replays the pristine statements and every successful write of the
/// logs, in-process and in memory.
fn replay(seed: u64, logs: &[ClientLog]) -> Result<Table, String> {
    let (load, tail) = seed_statements(seed);
    let shared = SharedDatabase::in_memory();
    let mut session = shared.session_with_options(session_options());
    for sql in load.iter().chain(&tail) {
        session.execute(sql)?;
    }
    for (conn, log) in logs.iter().enumerate() {
        for i in 0..log.kinds.len() {
            let (kind, sql) = operation(seed, conn, i);
            if kind != Kind::Read && !log.failed.contains(&i) {
                session.execute(&sql)?;
            }
        }
    }
    drop(session);
    Ok(works(&shared))
}

/// A fresh working directory for this process.
pub fn work_dir(tag: &str) -> PathBuf {
    out_dir().join(format!("{tag}-{}", std::process::id()))
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    match run_inner(seed, seconds) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("snapbench: oltp_wire failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_inner(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut gates = Gates::default();
    let work = work_dir("oltp");
    let _ = std::fs::remove_dir_all(&work);
    let pristine = work.join("pristine");
    build_pristine(&pristine, seed)?;

    // Set-up: recover a copy of the pristine directory and accept the
    // first connection. Timed before the measured loop (the last one is
    // kept for it) and again after it.
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUP_REPEATS {
        if let Some((running, client)) = live.take() {
            stop(running, client)?;
        }
        let (started, ms) = timed_setup(&pristine, &work.join(format!("run{k}")))?;
        setups.push(ms);
        live = Some(started);
    }
    let (running, first) = live.expect("at least one set-up");
    let dir = work.join(format!("run{}", SETUP_REPEATS - 1));

    let (conflicts_before, retries_before) = (
        util::registry_value("txn_conflicts_total"),
        util::registry_value("session_retries_total"),
    );
    let calib_before = util::calib_ms();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let addr = running.addr;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let mut first = Some(first);
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let client = match first.take() {
                    Some(c) => Ok(c),
                    None => Client::connect(addr).map_err(|e| format!("{e:?}")),
                };
                scope.spawn(move || match client {
                    Ok(c) => client_loop(c, seed, conn, deadline, conn == 0),
                    // A refused connection counts as its first operation,
                    // attempted and failed.
                    Err(_) => ClientLog {
                        kinds: "R".into(),
                        ms: vec![0.0],
                        failed: vec![0],
                        ..ClientLog::default()
                    },
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let calib_after = util::calib_ms();
    let peak_rss_mb = util::peak_rss_mb();
    let conflicts = util::registry_value("txn_conflicts_total") - conflicts_before;
    let retries = util::registry_value("session_retries_total") - retries_before;

    // Every write is acknowledged now: measure the directory, copy it for
    // the durability check, and check the live state.
    let stored = stored_bytes(&dir);
    let copy = work.join("after-last-ack");
    copy_dir(&dir, &copy)?;
    let live_works = works(&running.shared);
    let expected = replay(seed, &logs)?;
    gates.check(
        "oltp_wire.live_eq_replay",
        gates::bag_equal(&expected, &live_works),
    );
    gates.self_test(
        "oltp_wire.live_eq_replay",
        gates::bag_equal(&expected, &gates::perturb(&live_works)),
    );
    running.stop()?;
    for k in 0..SETUP_REPEATS {
        let ((running, client), ms) = timed_setup(&pristine, &work.join(format!("after{k}")))?;
        setups.push(ms);
        stop(running, client)?;
    }
    // The copy is read back through the OS page cache, so this shows the
    // WAL and checkpoints hold every acknowledged write; it cannot show
    // that fsync reached the device.
    let (recovered, report) =
        SharedDatabase::open_durable(&copy, session_options(), persistence_options())?;
    let recovered_works = works(&recovered);
    gates.check(
        "oltp_wire.recovered_copy_eq_replay",
        gates::bag_equal(&expected, &recovered_works),
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&work);

    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut calib = vec![calib_before, calib_after];
    let (mut attempted, mut failed) = (0u64, 0u64);
    for log in &logs {
        attempted += log.kinds.len() as u64;
        failed += log.failed.len() as u64;
        calib.extend_from_slice(&log.calib);
        for (i, (k, ms)) in log.kinds.chars().zip(&log.ms).enumerate() {
            if log.failed.contains(&i) {
                continue;
            }
            if k == 'R' {
                reads.push(*ms);
            } else {
                writes.push(*ms);
            }
        }
    }
    let (read_tail, write_tail) = (util::tail(&reads), util::tail(&writes));
    let completed = attempted - failed;
    let metrics = vec![
        Metric::new("setup_s", util::median(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new(
            "read_in_calib",
            util::median(&reads) / util::median(&calib),
            "calib",
        ),
        Metric::new("read_ms", util::median(&reads), "ms"),
        Metric::new("calib_ms", util::median(&calib), "ms"),
        Metric::new("read_tail_ms", read_tail.value, "ms"),
        Metric::new("write_ms", util::median(&writes), "ms"),
        Metric::new("write_tail_ms", write_tail.value, "ms"),
        Metric::new("ops_per_s", completed as f64 / wall_s, "1/s"),
        Metric::new(
            "stored_bytes_per_user_byte",
            stored as f64 / user_bytes(&live_works).max(1) as f64,
            "B/B",
        ),
    ];
    let per_conn: Vec<Json> = logs
        .iter()
        .map(|l| {
            Json::obj()
                .with("kinds", l.kinds.as_str())
                .with("ms", Json::nums(&l.ms))
                .with(
                    "failed_ops",
                    Json::Arr(l.failed.iter().map(|i| Json::from(*i)).collect()),
                )
        })
        .collect();
    let details = Json::obj()
        .with("seed_rows", SEED_ROWS)
        .with("wal_tail", WAL_TAIL)
        .with("connections", CONNECTIONS)
        .with("read_query", READ)
        .with(
            "flush_policy",
            "SyncPolicy::Always (fsync per commit), checkpoint_every 64",
        )
        .with("read_tail_percentile", read_tail.percentile)
        .with("write_tail_percentile", write_tail.percentile)
        .with("reads", reads.len())
        .with("txn_conflicts", conflicts)
        .with("session_retries", retries)
        .with("writes", writes.len())
        .with("stored_bytes", stored)
        .with("live_rows", live_works.len())
        .with(
            "recovered_checkpoint_seq",
            report.checkpoint_seq.unwrap_or(0),
        )
        .with("recovered_wal_records", report.replayed)
        .with("setup_s_samples", Json::nums(&setups))
        .with("calib_ms", Json::nums(&calib))
        .with("clients", per_conn);
    Ok(Outcome {
        gates,
        attempted,
        failed,
        metrics,
        notes: vec![
            format!(
                "read_tail_ms is p{:.2} of {} reads; write_tail_ms is p{:.2} of {} writes",
                read_tail.percentile,
                reads.len(),
                write_tail.percentile,
                writes.len()
            ),
            format!(
                "{conflicts} commit conflict(s), {retries} autocommit retry(ies) during the run"
            ),
            "flush policy: SyncPolicy::Always (fsync per commit), checkpoint every 64 statements"
                .into(),
            "durability copy is recovered through the OS page cache: it proves the log holds \
             every acknowledged write, not that fsync reached the device"
                .into(),
        ],
        details,
    })
}
