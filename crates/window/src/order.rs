//! ORDER BY machinery: sort keys, comparators, permutations, peer groups and
//! dense code preprocessing over arbitrary SQL values.
//!
//! The merge sort tree only stores integers; this module is the boundary
//! where SQL ordering intricacies (multiple criteria, DESC, NULLS FIRST/LAST)
//! are folded into integer codes, exactly as §5.1 prescribes.
//!
//! The folding starts when [`KeyColumns`] are built: each criterion is
//! stored as one order-preserving `u64` per row, so every sort, peer test and
//! binary search downstream compares plain integers.
//!
//! | Value          | Ascending code                                   |
//! |----------------|--------------------------------------------------|
//! | `Int(x)`       | `(x as u64) ^ (1 << 63)`                          |
//! | `Date(d)`      | the same on `d as i64`                            |
//! | `Bool(b)`      | the same on `b as i64`                            |
//! | `Float(f)`     | total-order bits: all bits flipped if the sign is set, else the sign bit set (≡ `f64::total_cmp`) |
//!
//! DESC takes the bitwise NOT of the ascending code. NULL takes `0` under
//! NULLS FIRST and `u64::MAX` under NULLS LAST — only while no non-null value
//! of the column encodes to that sentinel. The encoding is a bijection per
//! type, so [`KeyColumns::single_key`] decodes values exactly.
//!
//! A criterion whose values cannot be encoded — strings, mixed types (an Int
//! column widened to Float by an append), or a non-null value colliding with
//! the NULL sentinel — stays a `Vec<Value>` compared by [`Value::sql_cmp`].
//! Each criterion has exactly one of the two representations.

use crate::error::Result;
use crate::expr::Expr;
use crate::table::Table;
use crate::value::Value;
use holistic_core::codes::{dense_codes, DenseCodes};
use rayon::prelude::*;
use std::cmp::Ordering;

/// One ORDER BY criterion.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// The key expression.
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
    /// NULL placement (SQL default: last for ASC, first for DESC).
    pub nulls_first: bool,
}

impl SortKey {
    /// Ascending, NULLS LAST.
    pub fn asc(expr: Expr) -> Self {
        SortKey { expr, desc: false, nulls_first: false }
    }

    /// Descending, NULLS FIRST.
    pub fn desc(expr: Expr) -> Self {
        SortKey { expr, desc: true, nulls_first: true }
    }

    /// Overrides NULL placement.
    pub fn nulls_first(mut self, yes: bool) -> Self {
        self.nulls_first = yes;
        self
    }
}

const SIGN: u64 = 1 << 63;

/// Ascending order-preserving code of a signed integer.
pub(crate) fn encode_i64(x: i64) -> u64 {
    (x as u64) ^ SIGN
}

/// Inverts [`encode_i64`].
pub(crate) fn decode_i64(code: u64) -> i64 {
    (code ^ SIGN) as i64
}

/// Ascending order-preserving code of a float under `f64::total_cmp`
/// (`-0.0` below `+0.0`, NaNs ordered by their bits).
pub(crate) fn encode_f64(f: f64) -> u64 {
    let b = f.to_bits();
    if b & SIGN != 0 {
        !b
    } else {
        b | SIGN
    }
}

/// Inverts [`encode_f64`] bit-exactly.
pub(crate) fn decode_f64(code: u64) -> f64 {
    f64::from_bits(if code & SIGN != 0 { code & !SIGN } else { !code })
}

/// The value type behind an encoded criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyKind {
    Int,
    Float,
    Date,
    Bool,
}

/// Ascending code and type of a non-null encodable value.
fn encode(v: &Value) -> Option<(u64, KeyKind)> {
    Some(match v {
        Value::Int(x) => (encode_i64(*x), KeyKind::Int),
        Value::Float(f) => (encode_f64(*f), KeyKind::Float),
        Value::Date(d) => (encode_i64(i64::from(*d)), KeyKind::Date),
        Value::Bool(b) => (encode_i64(i64::from(*b)), KeyKind::Bool),
        Value::Null | Value::Str(_) => return None,
    })
}

/// Inverts [`encode`].
fn decode(code: u64, kind: KeyKind) -> Value {
    match kind {
        KeyKind::Int => Value::Int(decode_i64(code)),
        KeyKind::Float => Value::Float(decode_f64(code)),
        KeyKind::Date => Value::Date(decode_i64(code) as i32),
        KeyKind::Bool => Value::Bool(decode_i64(code) != 0),
    }
}

/// One criterion's materialized keys, in exactly one representation.
#[derive(Clone)]
enum KeyData {
    /// Order-preserving codes with DESC and NULL placement folded in.
    Encoded {
        codes: Vec<u64>,
        /// Type of the non-null values (`None` while every row is NULL).
        kind: Option<KeyKind>,
        /// Some row is NULL (its code is the sentinel).
        has_null: bool,
        /// Some non-null value encodes to the NULL sentinel.
        sentinel_taken: bool,
    },
    /// The fallback: values under [`Value::sql_cmp`].
    Values(Vec<Value>),
}

#[derive(Clone)]
struct Criterion {
    desc: bool,
    nulls_first: bool,
    data: KeyData,
}

impl Criterion {
    fn new(sk: &SortKey, rows: usize) -> Self {
        let data = KeyData::Encoded {
            codes: Vec::with_capacity(rows),
            kind: None,
            has_null: false,
            sentinel_taken: false,
        };
        Criterion { desc: sk.desc, nulls_first: sk.nulls_first, data }
    }

    fn null_code(&self) -> u64 {
        if self.nulls_first {
            0
        } else {
            u64::MAX
        }
    }

    /// Appends one row's key, converting to the fallback the first time a
    /// value cannot be encoded.
    fn push(&mut self, v: Value) {
        let sentinel = self.null_code();
        let desc = self.desc;
        if let KeyData::Encoded { codes, kind, has_null, sentinel_taken } = &mut self.data {
            if v.is_null() {
                if !*sentinel_taken {
                    *has_null = true;
                    codes.push(sentinel);
                    return;
                }
            } else if let Some((asc, k)) = encode(&v) {
                let code = if desc { !asc } else { asc };
                if *kind.get_or_insert(k) == k && !(code == sentinel && *has_null) {
                    *sentinel_taken |= code == sentinel;
                    codes.push(code);
                    return;
                }
            }
            self.data = KeyData::Values(self.decoded());
        }
        let KeyData::Values(vals) = &mut self.data else { unreachable!("converted above") };
        vals.push(v);
    }

    /// The key of row `i` as a value.
    fn value(&self, i: usize) -> Value {
        match &self.data {
            KeyData::Values(vals) => vals[i].clone(),
            KeyData::Encoded { codes, kind, has_null, .. } => {
                let code = codes[i];
                match kind {
                    Some(k) if !(*has_null && code == self.null_code()) => {
                        decode(if self.desc { !code } else { code }, *k)
                    }
                    _ => Value::Null,
                }
            }
        }
    }

    /// Every row's key as a value (the conversion to the fallback).
    fn decoded(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    fn len(&self) -> usize {
        match &self.data {
            KeyData::Encoded { codes, .. } => codes.len(),
            KeyData::Values(vals) => vals.len(),
        }
    }

    fn cmp(&self, a: usize, b: usize) -> Ordering {
        match &self.data {
            KeyData::Encoded { codes, .. } => codes[a].cmp(&codes[b]),
            KeyData::Values(vals) => {
                let (va, vb) = (&vals[a], &vals[b]);
                match (va.is_null(), vb.is_null()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => {
                        if self.nulls_first {
                            Ordering::Less
                        } else {
                            Ordering::Greater
                        }
                    }
                    (false, true) => {
                        if self.nulls_first {
                            Ordering::Greater
                        } else {
                            Ordering::Less
                        }
                    }
                    (false, false) => {
                        let o = va.sql_cmp(vb);
                        if self.desc {
                            o.reverse()
                        } else {
                            o
                        }
                    }
                }
            }
        }
    }

    fn bytes(&self) -> usize {
        match &self.data {
            KeyData::Encoded { codes, .. } => codes.len() * std::mem::size_of::<u64>(),
            KeyData::Values(vals) => {
                vals.len() * std::mem::size_of::<Value>()
                    + vals.iter().map(Value::heap_bytes).sum::<usize>()
            }
        }
    }
}

/// Materialized sort keys for a set of rows, with comparison flags.
#[derive(Clone)]
pub struct KeyColumns {
    keys: Vec<Criterion>,
}

impl KeyColumns {
    /// Evaluates `sort_keys` for every row of `table`.
    pub fn evaluate(table: &Table, sort_keys: &[SortKey]) -> Result<Self> {
        let n = table.num_rows();
        let mut keys = Vec::with_capacity(sort_keys.len());
        for sk in sort_keys {
            let bound = sk.expr.bind(table)?;
            let mut c = Criterion::new(sk, n);
            for r in 0..n {
                c.push(bound.eval(table, r)?);
            }
            keys.push(c);
        }
        Ok(KeyColumns { keys })
    }

    /// Extends already-materialized key columns with rows `from_row..` of a
    /// grown table — the O(b) append path: only the new rows are evaluated
    /// and encoded. `sort_keys` must be the criteria this instance was built
    /// from.
    pub fn extend(&mut self, table: &Table, sort_keys: &[SortKey], from_row: usize) -> Result<()> {
        debug_assert_eq!(self.keys.len(), sort_keys.len());
        let n = table.num_rows();
        for (sk, c) in sort_keys.iter().zip(self.keys.iter_mut()) {
            let bound = sk.expr.bind(table)?;
            if let KeyData::Encoded { codes, .. } = &mut c.data {
                codes.reserve(n - from_row);
            }
            for r in from_row..n {
                c.push(bound.eval(table, r)?);
            }
        }
        Ok(())
    }

    /// True when there are no criteria (every row is a peer of every other).
    pub fn is_trivial(&self) -> bool {
        self.keys.is_empty()
    }

    /// Footprint in bytes of the materialized keys: 8 bytes per row for an
    /// encoded criterion; for a fallback one the `Value` spines plus the
    /// string heap behind `Arc<str>` keys, counted once per owned reference
    /// (see [`Value::heap_bytes`]). The per-ref count is a deliberate upper
    /// bound — it prices what keeping these columns alive keeps alive, which
    /// is what a memory budget must charge for.
    pub fn bytes(&self) -> usize {
        self.keys.iter().map(Criterion::bytes).sum()
    }

    /// Compares two rows under the full criteria list.
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        for c in &self.keys {
            let ord = c.cmp(a, b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// True when two rows are peers (equal under every criterion).
    pub fn rows_equal(&self, a: usize, b: usize) -> bool {
        self.cmp_rows(a, b) == Ordering::Equal
    }

    /// The key value of the single criterion for row `i` (used by RANGE
    /// frames, which SQL restricts to exactly one numeric key), with its
    /// DESC flag.
    pub fn single_key(&self, i: usize) -> Option<(Value, bool)> {
        match self.keys.as_slice() {
            [c] => Some((c.value(i), c.desc)),
            _ => None,
        }
    }

    /// The codes of the only criterion, when there is exactly one and it is
    /// encoded: the whole order is then one integer per row.
    fn single_codes(&self) -> Option<&[u64]> {
        match self.keys.as_slice() {
            [Criterion { data: KeyData::Encoded { codes, .. }, .. }] => Some(codes),
            _ => None,
        }
    }
}

/// Sorts `(key, index)` pairs; the unique index makes the order total.
fn sort_pairs(pairs: &mut [(u64, usize)], parallel: bool) {
    if parallel && pairs.len() >= 4096 {
        pairs.par_sort_unstable();
    } else {
        pairs.sort_unstable();
    }
}

/// Sorts `rows` (indices into the table) stably by `keys`, ties broken by the
/// original index for determinism. This is the window operator's ORDER BY
/// phase; it reuses the platform sorter as the paper reuses Hyper's (§5.3).
pub fn sort_permutation(keys: &KeyColumns, rows: &mut [usize], parallel: bool) {
    if let Some(codes) = keys.single_codes() {
        let mut pairs: Vec<(u64, usize)> = rows.iter().map(|&r| (codes[r], r)).collect();
        sort_pairs(&mut pairs, parallel);
        for (dst, (_, r)) in rows.iter_mut().zip(pairs) {
            *dst = r;
        }
        return;
    }
    let cmp = |&a: &usize, &b: &usize| keys.cmp_rows(a, b).then_with(|| a.cmp(&b));
    if parallel && rows.len() >= 4096 {
        rows.par_sort_unstable_by(cmp);
    } else {
        rows.sort_unstable_by(cmp);
    }
}

/// Dense code preprocessing (Figure 8) over arbitrary comparators.
///
/// `rows[pos]` maps partition positions to table rows; the returned codes are
/// in *position* space (0-based positions within the sorted partition), ready
/// to feed into a merge sort tree.
pub fn dense_codes_for(keys: &KeyColumns, rows: &[usize], parallel: bool) -> DenseCodes {
    if let Some(codes) = keys.single_codes() {
        let gathered: Vec<u64> = rows.iter().map(|&r| codes[r]).collect();
        return dense_codes(&gathered, parallel);
    }
    let mut perm: Vec<usize> = (0..rows.len()).collect();
    let cmp = |&a: &usize, &b: &usize| keys.cmp_rows(rows[a], rows[b]).then_with(|| a.cmp(&b));
    if parallel && perm.len() >= 4096 {
        perm.par_sort_unstable_by(cmp);
    } else {
        perm.sort_unstable_by(cmp);
    }
    DenseCodes::from_sorted(perm, |perm, a, b| keys.rows_equal(rows[perm[b]], rows[perm[a]]))
}

/// Peer group boundaries of an already-sorted position range: for each
/// position, the `[start, end)` of its group of equals under `keys`.
pub fn peer_bounds(keys: &KeyColumns, rows: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = rows.len();
    let mut start = vec![0usize; n];
    let mut end = vec![0usize; n];
    let mut g = 0;
    while g < n {
        let mut e = g + 1;
        while e < n && keys.rows_equal(rows[e], rows[g]) {
            e += 1;
        }
        for s in g..e {
            start[s] = g;
            end[s] = e;
        }
        g = e;
    }
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::expr::col;

    fn table() -> Table {
        Table::new(vec![
            ("k", Column::ints_opt(vec![Some(3), Some(1), None, Some(3), Some(2)])),
            ("t", Column::ints(vec![0, 1, 2, 3, 4])),
        ])
        .unwrap()
    }

    #[test]
    fn asc_sorts_nulls_last() {
        let t = table();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..5).collect();
        sort_permutation(&keys, &mut rows, false);
        assert_eq!(rows, vec![1, 4, 0, 3, 2]);
    }

    #[test]
    fn desc_sorts_nulls_first() {
        let t = table();
        let keys = KeyColumns::evaluate(&t, &[SortKey::desc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..5).collect();
        sort_permutation(&keys, &mut rows, false);
        assert_eq!(rows, vec![2, 0, 3, 4, 1]);
    }

    #[test]
    fn nulls_first_override() {
        let t = table();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k")).nulls_first(true)]).unwrap();
        let mut rows: Vec<usize> = (0..5).collect();
        sort_permutation(&keys, &mut rows, false);
        assert_eq!(rows, vec![2, 1, 4, 0, 3]);
    }

    #[test]
    fn multi_key_comparison() {
        let t = Table::new(vec![
            ("a", Column::ints(vec![1, 1, 2])),
            ("b", Column::ints(vec![9, 3, 0])),
        ])
        .unwrap();
        let keys =
            KeyColumns::evaluate(&t, &[SortKey::asc(col("a")), SortKey::desc(col("b"))]).unwrap();
        let mut rows: Vec<usize> = (0..3).collect();
        sort_permutation(&keys, &mut rows, false);
        assert_eq!(rows, vec![0, 1, 2]); // (1,9) < (1,3) under b DESC, then (2,0)
    }

    #[test]
    fn dense_codes_over_rows() {
        let t = table();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        // Partition = rows [0, 1, 3, 4] in this order (values 3, 1, 3, 2).
        let rows = vec![0usize, 1, 3, 4];
        let dc = dense_codes_for(&keys, &rows, false);
        assert_eq!(dc.perm, vec![1, 3, 0, 2]); // positions sorted: 1 (v1), 3 (v2), 0, 2 (v3, v3)
        assert_eq!(dc.code, vec![2, 0, 3, 1]);
        assert_eq!(dc.group_min, vec![2, 0, 2, 1]);
        assert_eq!(dc.group_end, vec![4, 1, 4, 2]);
        assert_eq!(dc.num_groups, 3);
    }

    #[test]
    fn peer_bounds_group_equal_keys() {
        let t = Table::new(vec![("k", Column::ints(vec![5, 5, 7, 7, 7, 9]))]).unwrap();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let rows: Vec<usize> = (0..6).collect();
        let (start, end) = peer_bounds(&keys, &rows);
        assert_eq!(start, vec![0, 0, 2, 2, 2, 5]);
        assert_eq!(end, vec![2, 2, 5, 5, 5, 6]);
    }

    #[test]
    fn bytes_counts_string_heap_payloads() {
        // Regression: `bytes()` used to count only the `Value` spine, so
        // string-key partitions under-reported footprints and a memory
        // budget would be blown silently.
        let payloads = ["a long order-by key that clearly dwarfs the spine"; 64];
        let t = Table::new(vec![("s", Column::strs(payloads.to_vec()))]).unwrap();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("s"))]).unwrap();
        let payload_total: usize = payloads.iter().map(|s| s.len()).sum();
        assert!(
            keys.bytes() >= payload_total,
            "footprint {} must cover {} heap bytes",
            keys.bytes(),
            payload_total
        );
        // And the spine is still counted on top of the payload.
        assert!(keys.bytes() >= payload_total + 64 * std::mem::size_of::<Value>());
    }

    /// Number of rows held as fallback `Value`s rather than codes.
    fn fallback_rows(keys: &KeyColumns) -> usize {
        keys.keys
            .iter()
            .map(|c| match &c.data {
                KeyData::Values(v) => v.len(),
                KeyData::Encoded { .. } => 0,
            })
            .sum()
    }

    #[test]
    fn encodable_criteria_cost_one_word_per_row() {
        let t = Table::new(vec![
            ("i", Column::ints_opt(vec![Some(i64::MIN + 1), None, Some(i64::MAX - 1)])),
            ("f", Column::floats_opt(vec![Some(-0.0), None, Some(f64::INFINITY)])),
            ("d", Column::dates(vec![-5, 0, 9])),
            (
                "b",
                Column::from_values(&[Value::Bool(false), Value::Null, Value::Bool(true)]).unwrap(),
            ),
        ])
        .unwrap();
        for name in ["i", "f", "d", "b"] {
            for nulls_first in [false, true] {
                for sk in [SortKey::asc(col(name)), SortKey::desc(col(name))] {
                    let keys = KeyColumns::evaluate(&t, &[sk.nulls_first(nulls_first)]).unwrap();
                    assert_eq!(fallback_rows(&keys), 0, "{name} must stay encoded");
                    assert_eq!(keys.bytes(), 3 * 8);
                }
            }
        }
    }

    #[test]
    fn unencodable_criteria_fall_back_to_values() {
        let collide_last = Column::ints_opt(vec![Some(i64::MAX), None]);
        let collide_first = Column::ints_opt(vec![None, Some(i64::MIN)]);
        let t = Table::new(vec![
            ("last", collide_last),
            ("first", collide_first),
            ("s", Column::strs(vec!["b", "a"])),
        ])
        .unwrap();
        for sk in [
            SortKey::asc(col("last")),
            SortKey::asc(col("first")).nulls_first(true),
            SortKey::desc(col("first")).nulls_first(false),
            SortKey::asc(col("s")),
        ] {
            let keys = KeyColumns::evaluate(&t, std::slice::from_ref(&sk)).unwrap();
            assert_eq!(fallback_rows(&keys), 2, "{:?}", sk.expr);
        }
        // Away from the sentinel the same values encode.
        let keys =
            KeyColumns::evaluate(&t, &[SortKey::asc(col("last")).nulls_first(true)]).unwrap();
        assert_eq!(fallback_rows(&keys), 0);
    }

    #[test]
    fn extend_converts_once_when_an_append_collides() {
        let base = Table::new(vec![("k", Column::ints(vec![i64::MAX, 1]))]).unwrap();
        let sk = [SortKey::asc(col("k"))];
        let mut keys = KeyColumns::evaluate(&base, &sk).unwrap();
        assert_eq!(fallback_rows(&keys), 0);
        let mut grown = base.clone();
        grown
            .append_rows(&Table::new(vec![("k", Column::ints_opt(vec![None, Some(5)]))]).unwrap())
            .unwrap();
        keys.extend(&grown, &sk, 2).unwrap();
        assert_eq!(fallback_rows(&keys), 4);
        let mut rows: Vec<usize> = (0..4).collect();
        sort_permutation(&keys, &mut rows, false);
        assert_eq!(rows, vec![1, 3, 0, 2], "NULL sorts after i64::MAX");
        assert!(!keys.rows_equal(0, 2));
        assert!(matches!(keys.single_key(2), Some((Value::Null, false))));
        assert!(matches!(keys.single_key(0), Some((Value::Int(i64::MAX), false))));
    }

    #[test]
    fn float_codes_follow_total_cmp_and_round_trip() {
        let vals = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF),
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF),
        ];
        for a in vals {
            assert_eq!(decode_f64(encode_f64(a)).to_bits(), a.to_bits());
            for b in vals {
                assert_eq!(encode_f64(a).cmp(&encode_f64(b)), a.total_cmp(&b), "{a:?} vs {b:?}");
            }
        }
        for x in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(decode_i64(encode_i64(x)), x);
            assert_eq!(encode_i64(x).cmp(&encode_i64(0)), x.cmp(&0));
        }
    }

    #[test]
    fn empty_order_by_makes_everything_peers() {
        let t = table();
        let keys = KeyColumns::evaluate(&t, &[]).unwrap();
        assert!(keys.is_trivial());
        let rows: Vec<usize> = (0..5).collect();
        let (start, end) = peer_bounds(&keys, &rows);
        assert!(start.iter().all(|&s| s == 0));
        assert!(end.iter().all(|&e| e == 5));
    }
}
