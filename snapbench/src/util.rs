//! Statistics, the JSON writer, process measurements and the calibration
//! kernel shared by every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Median of a sample (the mean of the two middle values for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of a sample that still has at least ten samples
/// above it, with the percentile it is. A sample of ten or fewer has no
/// such percentile; its maximum is reported as the 100th.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
}

pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    if n <= 10 {
        return Tail {
            value: s.last().copied().unwrap_or(f64::NAN),
            percentile: 100.0,
        };
    }
    let idx = n - 11;
    Tail {
        value: s[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
    }
}

/// Geometric mean: every member moves it by the same share when it moves
/// by a given share, whatever its absolute size.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// `harness.calib_ms`: a fixed CPU and allocation kernel (build, sort and
/// fold a 200k-element vector and a 20k-entry ordered map). It exercises
/// no code of the program, so its time only says how fast the host ran
/// when it was taken. Workloads time it between rounds and divide their
/// read latency by its median (`read_in_calib`), which takes out the host
/// speed drifting between runs.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u64> = (0..200_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut m = BTreeMap::new();
    for (i, e) in v.iter().step_by(10).enumerate() {
        m.insert(*e % 65_536, i);
    }
    std::hint::black_box((v.len(), m.len()));
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` `n` times, dropping each result before the next, and
/// returns the last result with every duration in seconds.
pub fn time_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up"), times)
}

/// The current value of a metrics-registry series: a counter's count, or
/// a histogram's sum in seconds (0 before anything registered it).
pub fn registry_value(name: &str) -> f64 {
    let registry = snapshot_obs::registry();
    registry
        .get_counter(name)
        .map(|c| c.get() as f64)
        .or_else(|| registry.get_histogram(name).map(|h| h.sum()))
        .unwrap_or(0.0)
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A JSON value, rendered by hand (the benchmark has no serializer crate).
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a key to an object (no-op on other variants).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` prints the shortest text that reads back as the same
            // f64: every digit the measurement has, and no more.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}
