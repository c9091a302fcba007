//! Output digests and table comparisons used by the correctness gate and by
//! every timed operation.

use holistic_window::{Column, Table, Value};
use std::cmp::Ordering;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hash, fed byte slices.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Int(x) => {
                self.bytes(&[1]);
                self.bytes(&x.to_le_bytes());
            }
            Value::Float(x) => {
                self.bytes(&[2]);
                self.bytes(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                self.bytes(&[3]);
                self.bytes(&(s.len() as u64).to_le_bytes());
                self.bytes(s.as_bytes());
            }
            Value::Date(d) => {
                self.bytes(&[4]);
                self.bytes(&d.to_le_bytes());
            }
            Value::Bool(b) => self.bytes(&[5, u8::from(*b)]),
        }
    }
}

/// Bit-exact digest of a table: column names, row count and every value
/// (floats by their bit pattern), in row order.
pub fn table_digest(t: &Table) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&(t.num_rows() as u64).to_le_bytes());
    for (name, col) in t.iter() {
        h.bytes(name.as_bytes());
        h.bytes(&[0xff]);
        for i in 0..col.len() {
            h.value(&col.get(i));
        }
    }
    h.0
}

/// Digest of a row-index list (an append's `changed_outputs`).
pub fn rows_digest(rows: &[usize]) -> u64 {
    let mut h = Fnv::new();
    for &r in rows {
        h.bytes(&(r as u64).to_le_bytes());
    }
    h.0
}

/// A total order on values: by variant, then by payload (floats by
/// `total_cmp`).
pub fn cmp_values(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Date(_) => 4,
            Value::Str(_) => 5,
        }
    }
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        (Value::Date(x), Value::Date(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// Bit-exact value equality (floats by bit pattern).
pub fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => cmp_values(a, b) == Ordering::Equal,
    }
}

/// Equal values, with floats equal up to a relative 1e-9 (the naive oracle
/// sums in a different order than the engine).
fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits() || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => cmp_values(a, b) == Ordering::Equal,
    }
}

/// Bit-exact equality of two tables: same column names in the same order,
/// same values in the same rows.
pub fn identical(a: &Table, b: &Table) -> Result<(), String> {
    same_shape(a, b)?;
    for ((name, ca), (_, cb)) in a.iter().zip(b.iter()) {
        for i in 0..ca.len() {
            let (x, y) = (ca.get(i), cb.get(i));
            if !same_value(&x, &y) {
                return Err(format!("column `{name}` row {i}: {x:?} vs {y:?}"));
            }
        }
    }
    Ok(())
}

/// Equality up to float tolerance, row for row.
pub fn close_tables(a: &Table, b: &Table) -> Result<(), String> {
    same_shape(a, b)?;
    for ((name, ca), (_, cb)) in a.iter().zip(b.iter()) {
        for i in 0..ca.len() {
            let (x, y) = (ca.get(i), cb.get(i));
            if !close(&x, &y) {
                return Err(format!("column `{name}` row {i}: {x:?} vs {y:?}"));
            }
        }
    }
    Ok(())
}

/// Equality of the two tables' row multisets up to float tolerance (row
/// order ignored: ties under a final ORDER BY may be emitted in any order).
pub fn close_row_multisets(a: &Table, b: &Table) -> Result<(), String> {
    same_shape(a, b)?;
    let (ra, rb) = (sorted_rows(a), sorted_rows(b));
    for (i, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
        if !x.iter().zip(y.iter()).all(|(p, q)| close(p, q)) {
            return Err(format!("sorted row {i}: {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

fn same_shape(a: &Table, b: &Table) -> Result<(), String> {
    let names = |t: &Table| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    if names(a) != names(b) {
        return Err(format!("columns {:?} vs {:?}", names(a), names(b)));
    }
    if a.num_rows() != b.num_rows() {
        return Err(format!("{} rows vs {} rows", a.num_rows(), b.num_rows()));
    }
    Ok(())
}

fn sorted_rows(t: &Table) -> Vec<Vec<Value>> {
    let cols: Vec<&Column> = t.iter().map(|(_, c)| c).collect();
    let mut rows: Vec<Vec<Value>> =
        (0..t.num_rows()).map(|i| cols.iter().map(|c| c.get(i)).collect()).collect();
    rows.sort_by(|x, y| {
        x.iter()
            .zip(y.iter())
            .map(|(p, q)| cmp_values(p, q))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(vals: Vec<i64>, f: Vec<f64>) -> Table {
        Table::new(vec![("a", Column::ints(vals)), ("f", Column::floats(f))]).unwrap()
    }

    #[test]
    fn one_flipped_value_changes_digest_and_fails_identity() {
        let a = table(vec![1, 2, 3], vec![0.5, 1.5, 2.5]);
        let b = table(vec![1, 2, 3], vec![0.5, 1.5, 2.5]);
        let c = table(vec![1, 2, 4], vec![0.5, 1.5, 2.5]);
        assert_eq!(table_digest(&a), table_digest(&b));
        assert!(identical(&a, &b).is_ok());
        assert_ne!(table_digest(&a), table_digest(&c));
        assert!(identical(&a, &c).is_err());
        assert!(close_tables(&a, &c).is_err());
    }

    #[test]
    fn float_bits_matter_for_identity_but_not_for_closeness() {
        let a = table(vec![1], vec![0.1 + 0.2]);
        let b = table(vec![1], vec![0.3]);
        assert!(identical(&a, &b).is_err());
        assert!(close_tables(&a, &b).is_ok());
    }

    #[test]
    fn multisets_ignore_row_order() {
        let a = table(vec![1, 2, 3], vec![0.5, 1.5, 2.5]);
        let b = table(vec![3, 1, 2], vec![2.5, 0.5, 1.5]);
        assert!(close_row_multisets(&a, &b).is_ok());
        assert!(close_tables(&a, &b).is_err());
    }

    #[test]
    fn rows_digest_is_order_sensitive() {
        assert_ne!(rows_digest(&[1, 2]), rows_digest(&[2, 1]));
        assert_eq!(rows_digest(&[1, 2]), rows_digest(&[1, 2]));
    }
}
