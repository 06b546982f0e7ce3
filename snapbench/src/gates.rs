//! Correctness gates. Every gate is a pure comparison of two results, so
//! each can be shown to reject a deliberately perturbed result in the same
//! run that trusts it.

use crate::util::Json;
use storage::{Row, Table};
use timeline::TimeDomain;

/// Bag equality of two results: the same rows with the same
/// multiplicities, in any order.
pub fn bag_equal(expected: &Table, actual: &Table) -> Result<(), String> {
    let (e, a) = (expected.canonicalized(), actual.canonicalized());
    if e.rows() == a.rows() {
        Ok(())
    } else {
        let first_diff = e
            .rows()
            .iter()
            .zip(a.rows())
            .position(|(x, y)| x != y)
            .unwrap_or(e.len().min(a.len()));
        Err(format!(
            "bags differ: {} vs {} rows, first difference at sorted row {first_diff}",
            e.len(),
            a.len()
        ))
    }
}

/// Snapshot equivalence with the point-wise oracle's rows over `domain`.
pub fn oracle_equal(actual: &Table, oracle: &[Row], domain: TimeDomain) -> Result<(), String> {
    let arity = actual.schema().arity();
    if baseline::bugs::snapshot_equivalent(actual.rows(), oracle, arity, domain) {
        Ok(())
    } else {
        Err(format!(
            "not snapshot-equivalent to the oracle ({} rows vs {} oracle rows)",
            actual.len(),
            oracle.len()
        ))
    }
}

/// A copy of `t` with its first row duplicated: a different bag, and a
/// different multiplicity at every time point of that row's period.
pub fn perturb(t: &Table) -> Table {
    let mut out = t.clone();
    if let Some(first) = t.rows().first() {
        out.push(first.clone());
    }
    out
}

/// The gates a run checked, and the self-test of each.
#[derive(Debug, Default)]
pub struct Gates {
    results: Vec<(String, Result<(), String>)>,
}

impl Gates {
    /// Records one gate check.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.results.push((name.to_string(), result));
    }

    /// Records a self-test: the gate, fed a perturbed result, must fail.
    pub fn self_test(&mut self, name: &str, result_on_perturbed: Result<(), String>) {
        let outcome = match result_on_perturbed {
            Err(_) => Ok(()),
            Ok(()) => Err("accepted a perturbed result".to_string()),
        };
        self.results.push((format!("self_test.{name}"), outcome));
    }

    pub fn passed(&self) -> bool {
        self.results.iter().all(|(_, r)| r.is_ok())
    }

    pub fn count(&self) -> usize {
        self.results.len()
    }

    pub fn failures(&self) -> Vec<String> {
        self.results
            .iter()
            .filter_map(|(n, r)| r.as_ref().err().map(|e| format!("{n}: {e}")))
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.results
                .iter()
                .map(|(n, r)| {
                    Json::obj().with("gate", n.as_str()).with(
                        "result",
                        match r {
                            Ok(()) => "pass".to_string(),
                            Err(e) => format!("FAIL: {e}"),
                        },
                    )
                })
                .collect(),
        )
    }
}
