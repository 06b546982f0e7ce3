//! Coalescing accelerator: precomputed per-group endpoint events.
//!
//! Multiset coalescing (paper Definition 8.2) groups rows by their data
//! columns, sorts each group's interval endpoints, and emits maximal
//! constant-multiplicity segments. The grouping and the sort dominate; both
//! depend only on the stored rows, not on the query. A [`CoalesceIndex`]
//! performs them once at index-build time, so every later coalesce of the
//! table is a linear emission pass over presorted events instead of a fresh
//! `O(n log n)` sort inside `engine::coalesce`.

use storage::{Row, Value};

/// One value-equivalence group: the data-column key and its `(t, ±1)`
/// endpoint events, sorted by `(t, delta)`.
type GroupEvents = (Vec<Value>, Vec<(i64, i64)>);

/// Per-group sorted endpoint events of a period table.
#[derive(Debug, Clone, PartialEq)]
pub struct CoalesceIndex {
    /// Groups sorted by key for deterministic emission.
    groups: Vec<GroupEvents>,
    rows: usize,
}

impl CoalesceIndex {
    /// Builds the accelerator. `rows` must carry the period in the last two
    /// (integer) columns; everything before is the value-equivalence key.
    pub fn build(rows: &[Row], arity: usize) -> CoalesceIndex {
        assert!(arity >= 2, "period rows need the two period columns");
        let data_cols = arity - 2;
        let mut groups: std::collections::HashMap<&[Value], Vec<(i64, i64)>> =
            std::collections::HashMap::new();
        for r in rows {
            debug_assert_eq!(r.arity(), arity);
            let events = groups.entry(&r.values()[..data_cols]).or_default();
            events.push((r.int(data_cols), 1));
            events.push((r.int(data_cols + 1), -1));
        }
        let mut groups: Vec<GroupEvents> = groups
            .into_iter()
            .map(|(key, mut events)| {
                events.sort_unstable();
                (key.to_vec(), events)
            })
            .collect();
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        CoalesceIndex {
            groups,
            rows: rows.len(),
        }
    }

    /// The accelerator for the original rows plus `new_rows`: groups the
    /// appended rows (sorting only *their* events) and merges the two
    /// key-sorted group lists linearly — `O(groups + k log k)` instead of
    /// re-grouping and re-sorting all `n + k` rows.
    pub fn merged_with(&self, new_rows: &[Row], arity: usize) -> CoalesceIndex {
        let fresh = CoalesceIndex::build(new_rows, arity);
        let mut groups: Vec<GroupEvents> =
            Vec::with_capacity(self.groups.len() + fresh.groups.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.groups.len() && j < fresh.groups.len() {
            match self.groups[i].0.cmp(&fresh.groups[j].0) {
                std::cmp::Ordering::Less => {
                    groups.push(self.groups[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    groups.push(fresh.groups[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let key = self.groups[i].0.clone();
                    let (a, b) = (&self.groups[i].1, &fresh.groups[j].1);
                    let mut events = Vec::with_capacity(a.len() + b.len());
                    let (mut x, mut y) = (0usize, 0usize);
                    while x < a.len() && y < b.len() {
                        if a[x] <= b[y] {
                            events.push(a[x]);
                            x += 1;
                        } else {
                            events.push(b[y]);
                            y += 1;
                        }
                    }
                    events.extend_from_slice(&a[x..]);
                    events.extend_from_slice(&b[y..]);
                    groups.push((key, events));
                    i += 1;
                    j += 1;
                }
            }
        }
        groups.extend(self.groups[i..].iter().cloned());
        groups.extend(fresh.groups[j..].iter().cloned());
        CoalesceIndex {
            groups,
            rows: self.rows + new_rows.len(),
        }
    }

    /// Number of rows the accelerator was built over.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of distinct value-equivalence groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Emits the coalesced multiset — identical output (including the
    /// canonical order) to `engine::coalesce::coalesce_rows` on the same
    /// input, but without re-grouping or re-sorting: the groups are kept in
    /// key order and [`emit_segments`] emits each one in time order.
    pub fn coalesced_rows(&self) -> Vec<Row> {
        let mut out: Vec<Row> = Vec::with_capacity(self.rows);
        for (key, events) in &self.groups {
            emit_segments(key, events, &mut out);
        }
        out
    }
}

/// Emits one value-equivalence group's coalesced rows: `events` are the
/// group's `(t, +1)` begin and `(t, -1)` end events sorted by time, and
/// every maximal segment `[b, e)` of constant multiplicity `m > 0` becomes
/// `m` copies of `key ++ [b, e]`. Segments come out in time order, so a
/// caller that visits groups in key order emits the canonical (sorted)
/// encoding without sorting rows.
pub fn emit_segments(key: &[Value], events: &[(i64, i64)], out: &mut Vec<Row>) {
    let mut depth: i64 = 0;
    let mut seg_start: i64 = 0;
    let mut i = 0usize;
    while i < events.len() {
        let t = events[i].0;
        let mut delta = 0;
        while i < events.len() && events[i].0 == t {
            delta += events[i].1;
            i += 1;
        }
        if delta == 0 {
            continue; // equal opens and closes: multiplicity unchanged
        }
        if depth > 0 {
            // Close the maximal segment [seg_start, t) at depth `depth`.
            let mut values = Vec::with_capacity(key.len() + 2);
            values.extend_from_slice(key);
            values.push(Value::Int(seg_start));
            values.push(Value::Int(t));
            let row = Row::new(values);
            for _ in 1..depth {
                out.push(row.clone());
            }
            out.push(row);
        }
        depth += delta;
        seg_start = t;
    }
    debug_assert_eq!(depth, 0, "unbalanced interval events");
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::row;

    #[test]
    fn example_5_3_multiset_coalescing() {
        let rows = vec![row![30, 3, 13], row![30, 3, 10]];
        let idx = CoalesceIndex::build(&rows, 3);
        assert_eq!(idx.rows(), 2);
        assert_eq!(idx.group_count(), 1);
        assert_eq!(
            idx.coalesced_rows(),
            vec![row![30, 3, 10], row![30, 3, 10], row![30, 10, 13]]
        );
    }

    #[test]
    fn multiple_groups_sorted_output() {
        let rows = vec![
            row!["b", 5, 9],
            row!["a", 1, 5],
            row!["a", 3, 8],
            row!["b", 2, 9],
        ];
        let idx = CoalesceIndex::build(&rows, 3);
        assert_eq!(idx.group_count(), 2);
        let out = idx.coalesced_rows();
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(out, sorted, "output is canonically sorted");
    }

    #[test]
    fn empty_input() {
        let idx = CoalesceIndex::build(&[], 3);
        assert!(idx.coalesced_rows().is_empty());
    }

    #[test]
    fn merged_with_matches_full_build() {
        let old = vec![
            row!["b", 5, 9],
            row!["a", 1, 5],
            row!["a", 3, 8],
            row!["b", 2, 9],
        ];
        let new = vec![row!["a", 2, 4], row!["c", 0, 7], row!["b", 1, 2]];
        let merged = CoalesceIndex::build(&old, 3).merged_with(&new, 3);
        let mut all = old.clone();
        all.extend(new);
        assert_eq!(merged, CoalesceIndex::build(&all, 3));
        assert_eq!(merged.rows(), 7);

        // Merging nothing is the identity.
        let base = CoalesceIndex::build(&old, 3);
        assert_eq!(base.merged_with(&[], 3), base);
    }
}
