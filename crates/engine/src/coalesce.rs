//! Multiset temporal coalescing (paper Sections 8–9).
//!
//! The coalesce operator `C` (Definition 8.2) brings a `PERIODENC`-encoded
//! relation into the unique normal form of N-coalescing: for every group of
//! value-equivalent rows it emits, per maximal interval over which the
//! multiplicity is constant, exactly that multiplicity of duplicate rows.
//!
//! The algorithm mirrors the paper's analytic-window SQL implementation
//! (Section 9, after [Zhou et al.]): per value-equivalent group, count open
//! intervals per endpoint (+m at begin, −m at end), detect changepoints
//! where the count changes, and emit maximal constant segments. One sort per
//! group: `O(n log n)` overall.

use index::coalesce::emit_segments;
use std::collections::HashMap;
use storage::{Row, Value};

/// Coalesces a multiset of period rows.
///
/// `rows` must carry the period in the last two (integer) columns; data
/// columns are everything before. The output is canonically ordered (sorted
/// rows), making the encoding unique per Definition 4.5. Rows are grouped
/// by their borrowed data columns, and only the distinct keys are sorted:
/// each group's segments are emitted in time order, so visiting the groups
/// in key order yields sorted output without sorting the rows.
pub fn coalesce_rows(rows: &[Row], arity: usize) -> Vec<Row> {
    assert!(
        arity >= 2,
        "period rows need at least the two period columns"
    );
    let data_cols = arity - 2;

    // Per group: +1 at each begin, −1 at each end, per duplicate interval.
    let mut groups: HashMap<&[Value], Vec<(i64, i64)>> = HashMap::new();
    for r in rows {
        debug_assert_eq!(r.arity(), arity);
        let events = groups.entry(&r.values()[..data_cols]).or_default();
        events.push((r.int(data_cols), 1));
        events.push((r.int(data_cols + 1), -1));
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_unstable_by(|a, b| a.0.cmp(b.0));

    let mut out: Vec<Row> = Vec::with_capacity(rows.len());
    for (key, mut events) in groups {
        events.sort_unstable();
        emit_segments(key, &events, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::row;

    #[test]
    fn example_5_3_multiset_coalescing() {
        // S = {(30k,[3,13)), (30k,[3,10))}  ==>  30k×2 on [3,10), 30k×1 on [10,13)
        let rows = vec![row![30, 3, 13], row![30, 3, 10]];
        let out = coalesce_rows(&rows, 3);
        assert_eq!(
            out,
            vec![row![30, 3, 10], row![30, 3, 10], row![30, 10, 13],]
        );
    }

    #[test]
    fn merges_adjacent_equal_multiplicity() {
        // [1,5) and [5,9) with equal multiplicity merge into [1,9).
        let rows = vec![row!["a", 1, 5], row!["a", 5, 9]];
        assert_eq!(coalesce_rows(&rows, 3), vec![row!["a", 1, 9]]);
    }

    #[test]
    fn distinct_values_do_not_merge() {
        let rows = vec![row!["a", 1, 5], row!["b", 5, 9]];
        let out = coalesce_rows(&rows, 3);
        assert_eq!(out, vec![row!["a", 1, 5], row!["b", 5, 9]]);
    }

    #[test]
    fn idempotent() {
        let rows = vec![
            row!["x", 0, 10],
            row!["x", 5, 15],
            row!["x", 5, 15],
            row!["y", 2, 4],
        ];
        let once = coalesce_rows(&rows, 3);
        let twice = coalesce_rows(&once, 3);
        assert_eq!(once, twice);
    }

    #[test]
    fn unique_encoding_of_equivalent_inputs() {
        // Same temporal content presented two ways.
        let a = vec![row!["x", 0, 10]];
        let b = vec![row!["x", 0, 6], row!["x", 6, 10]];
        assert_eq!(coalesce_rows(&a, 3), coalesce_rows(&b, 3));
    }

    #[test]
    fn figure_1b_shape_counts() {
        // works SP rows: Ann [3,10), Sam [8,16), Ann [18,20) — projecting to
        // skill only, coalescing yields the multiplicity profile of Π_skill.
        let rows = vec![row!["SP", 3, 10], row!["SP", 8, 16], row!["SP", 18, 20]];
        let out = coalesce_rows(&rows, 3);
        assert_eq!(
            out,
            vec![
                row!["SP", 3, 8],
                row!["SP", 8, 10],
                row!["SP", 8, 10],
                row!["SP", 10, 16],
                row!["SP", 18, 20],
            ]
        );
    }

    #[test]
    fn empty_input() {
        assert!(coalesce_rows(&[], 3).is_empty());
    }

    #[test]
    fn equal_open_close_at_same_point_does_not_split() {
        // [0,5) and [5,5+5): one closes exactly where another opens with the
        // same multiplicity — stays merged ([0,10) ×1).
        let rows = vec![row!["k", 0, 5], row!["k", 5, 10]];
        assert_eq!(coalesce_rows(&rows, 3), vec![row!["k", 0, 10]]);
    }

    /// Reference implementation: per-point multiplicity counting.
    fn pointwise(rows: &[Row], arity: usize, horizon: i64) -> Vec<(Vec<storage::Value>, i64, i64)> {
        let data = arity - 2;
        let mut acc = Vec::new();
        let mut keys: Vec<Vec<storage::Value>> =
            rows.iter().map(|r| r.values()[..data].to_vec()).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            for t in 0..horizon {
                let m = rows
                    .iter()
                    .filter(|r| {
                        r.values()[..data] == key[..] && r.int(data) <= t && t < r.int(data + 1)
                    })
                    .count() as i64;
                if m > 0 {
                    acc.push((key.clone(), t, m));
                }
            }
        }
        acc
    }

    #[test]
    fn agrees_with_pointwise_reference() {
        use rand_like::*;
        // Deterministic pseudo-random rows (no rand dependency in engine).
        let mut state = 42u64;
        let mut rows = Vec::new();
        for _ in 0..200 {
            let v = (next(&mut state) % 3) as i64;
            let b = (next(&mut state) % 20) as i64;
            let len = 1 + (next(&mut state) % 8) as i64;
            rows.push(row![v, b, b + len]);
        }
        let out = coalesce_rows(&rows, 3);
        // Compare point-wise multiplicity of input and output.
        assert_eq!(pointwise(&rows, 3, 40), pointwise(&out, 3, 40));
        // Output must be normal form: per key, intervals disjoint and
        // adjacent segments have different multiplicities.
        let mut per_key: std::collections::BTreeMap<Vec<storage::Value>, Vec<(i64, i64, i64)>> =
            Default::default();
        for r in &out {
            let key = r.values()[..1].to_vec();
            let entry = per_key.entry(key).or_default();
            if let Some(last) = entry.last_mut() {
                if last.0 == r.int(1) && last.1 == r.int(2) {
                    last.2 += 1;
                    continue;
                }
            }
            entry.push((r.int(1), r.int(2), 1));
        }
        for (_, segs) in per_key {
            for w in segs.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping output segments");
                if w[0].1 == w[1].0 {
                    assert_ne!(w[0].2, w[1].2, "adjacent equal-multiplicity segments");
                }
            }
        }
    }

    /// The sort-based algorithm `coalesce_rows` replaced, kept as the
    /// reference for its emission order: owned keys, groups emitted in hash
    /// order, then one sort of the whole output.
    fn sorted_reference(rows: &[Row], arity: usize) -> Vec<Row> {
        let data = arity - 2;
        let mut groups: HashMap<Vec<Value>, Vec<(i64, i64)>> = HashMap::new();
        for r in rows {
            groups
                .entry(r.values()[..data].to_vec())
                .or_default()
                .push((r.int(data), r.int(data + 1)));
        }
        let mut out = Vec::new();
        for (key, intervals) in groups {
            let mut events: Vec<(i64, i64)> = Vec::new();
            for (b, e) in intervals {
                events.push((b, 1));
                events.push((e, -1));
            }
            events.sort_unstable();
            let (mut depth, mut seg_start, mut i) = (0i64, 0i64, 0usize);
            while i < events.len() {
                let t = events[i].0;
                let mut delta = 0;
                while i < events.len() && events[i].0 == t {
                    delta += events[i].1;
                    i += 1;
                }
                if delta == 0 {
                    continue;
                }
                if depth > 0 {
                    let mut values = key.clone();
                    values.push(Value::Int(seg_start));
                    values.push(Value::Int(t));
                    for _ in 0..depth {
                        out.push(Row::new(values.clone()));
                    }
                }
                depth += delta;
                seg_start = t;
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn emission_order_equals_sorted_reference() {
        use rand_like::next;
        let mut state = 0x5eed_u64;
        for groups in [1u64, 16, 200] {
            let mut rows = Vec::new();
            for _ in 0..1500 {
                let g = next(&mut state) % groups;
                // Keys mix NULL, INT, and the two signed DOUBLE zeros, which
                // are distinct keys that sort -0.0 first.
                let k0 = if g % 7 == 3 {
                    Value::Null
                } else {
                    Value::Int(g as i64)
                };
                let k1 = Value::Double(if g.is_multiple_of(2) { 0.0 } else { -0.0 });
                let b = (next(&mut state) % 60) as i64;
                let e = b + 1 + (next(&mut state) % 9) as i64;
                let row = |b: i64, e: i64| {
                    Row::new(vec![k0.clone(), k1.clone(), Value::Int(b), Value::Int(e)])
                };
                rows.push(row(b, e));
                match next(&mut state) % 4 {
                    0 => rows.push(row(b, e)),     // duplicate
                    1 => rows.push(row(e, e + 3)), // touching, after
                    2 => rows.push(row(b - 2, b)), // touching, before
                    _ => {}
                }
            }
            let want = sorted_reference(&rows, 4);
            assert_eq!(coalesce_rows(&rows, 4), want, "{groups} groups");
            assert_eq!(
                index::CoalesceIndex::build(&rows, 4).coalesced_rows(),
                want,
                "{groups} groups (accelerator)"
            );
        }
    }

    mod rand_like {
        /// xorshift64* — deterministic pseudo-random for tests.
        pub fn next(state: &mut u64) -> u64 {
            let mut x = *state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            *state = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }
}
