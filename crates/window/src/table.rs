//! Named column collections.

use crate::column::Column;
use crate::error::{Error, Result};

/// A table: equally long named columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    columns: Vec<(String, Column)>,
    rows: usize,
}

impl Table {
    /// An empty table.
    pub fn empty() -> Self {
        Table::default()
    }

    /// Builds from `(name, column)` pairs; all columns must have equal length.
    pub fn new(columns: Vec<(impl Into<String>, Column)>) -> Result<Self> {
        let mut t = Table::default();
        for (name, col) in columns {
            t.add_column(name, col)?;
        }
        Ok(t)
    }

    /// Adds a column.
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> Result<()> {
        if self.columns.is_empty() {
            self.rows = col.len();
        } else if col.len() != self.rows {
            return Err(Error::LengthMismatch { expected: self.rows, got: col.len() });
        }
        self.columns.push((name.into(), col));
        Ok(())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Looks a column up by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx].1
    }

    /// Iterates `(name, column)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.columns.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Appends the rows of `batch` (the delta-API ingest path): `batch` must
    /// carry exactly this table's columns, by name and order, with
    /// push-compatible types (see [`Column::extend_from`]). Columns grow in
    /// place — O(batch) amortized, no copy of the existing rows. On error the
    /// table is left unchanged.
    pub fn append_rows(&mut self, batch: &Table) -> Result<()> {
        if batch.num_columns() != self.num_columns() {
            return Err(Error::LengthMismatch {
                expected: self.num_columns(),
                got: batch.num_columns(),
            });
        }
        for ((name, _), (bname, _)) in self.columns.iter().zip(batch.columns.iter()) {
            if name != bname {
                return Err(Error::UnknownColumn(bname.clone()));
            }
        }
        // Check every column before growing any, so a type error in a later
        // column cannot leave the table ragged.
        for ((_, dst), (_, src)) in self.columns.iter().zip(&batch.columns) {
            dst.check_extend(src)?;
        }
        for ((_, dst), (_, src)) in self.columns.iter_mut().zip(&batch.columns) {
            dst.extend_from(src)?;
        }
        self.rows += batch.rows;
        Ok(())
    }

    /// Rows `[a, b)` as a new table with the same columns (exact types and
    /// validity preserved — the natural way to carve a table into
    /// [`Table::append_rows`]-compatible batches).
    pub fn slice_rows(&self, a: usize, b: usize) -> Table {
        Table {
            columns: self.columns.iter().map(|(n, c)| (n.clone(), c.slice(a, b))).collect(),
            rows: b - a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn build_and_lookup() {
        let t = Table::new(vec![
            ("a", Column::ints(vec![1, 2, 3])),
            ("b", Column::strs(vec!["x", "y", "z"])),
        ])
        .unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.column("b").unwrap().get(1), Value::str("y"));
        assert_eq!(t.column_index("a").unwrap(), 0);
        assert!(t.column("c").is_err());
    }

    #[test]
    fn rejects_ragged_columns() {
        let r = Table::new(vec![("a", Column::ints(vec![1, 2, 3])), ("b", Column::ints(vec![1]))]);
        assert!(matches!(r, Err(Error::LengthMismatch { expected: 3, got: 1 })));
    }

    /// The per-value reference: push every batch value onto a clone.
    fn push_reference(t: &Table, batch: &Table) -> Table {
        let mut out = t.clone();
        for ((_, col), (_, src)) in out.columns.iter_mut().zip(&batch.columns) {
            for i in 0..batch.rows {
                col.push(src.get(i)).unwrap();
            }
        }
        out.rows += batch.rows;
        out
    }

    /// Same type, values, validity vector and NULL-slot payloads.
    fn assert_same(a: &Table, b: &Table) {
        assert_eq!(a.num_rows(), b.num_rows());
        for ((na, ca), (nb, cb)) in a.iter().zip(b.iter()) {
            assert_eq!(na, nb);
            assert_eq!(format!("{ca:?}"), format!("{cb:?}"), "column {na}");
        }
    }

    fn base() -> Table {
        Table::new(vec![
            ("i", Column::ints(vec![1, 2])),
            ("f", Column::floats(vec![0.5, 1.5])),
            ("s", Column::strs(vec!["a", "b"])),
            ("d", Column::dates(vec![10, 11])),
            ("b", Column::bools(vec![true, false])),
        ])
        .unwrap()
    }

    #[test]
    fn append_rows_type_error_in_later_column_changes_nothing() {
        let mut t = base();
        let before = t.clone();
        let batch = Table::new(vec![
            ("i", Column::ints(vec![3])),
            ("f", Column::floats(vec![2.5])),
            ("s", Column::strs(vec!["c"])),
            ("d", Column::ints(vec![12])), // Int into Date: rejected
            ("b", Column::bools(vec![true])),
        ])
        .unwrap();
        let err = t.append_rows(&batch).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { got: "int", .. }), "{err:?}");
        assert_same(&t, &before);
    }

    #[test]
    fn append_rows_accepts_all_null_columns_of_another_type_and_widens_ints() {
        let mut t = base();
        let batch = Table::new(vec![
            ("i", Column::Str(vec!["x".into(), "y".into()], vec![false, false])),
            ("f", Column::ints_opt(vec![Some(7), None])),
            ("s", Column::Float(vec![1.0, 2.0], vec![false, false])),
            ("d", Column::dates(vec![12, 13])),
            ("b", Column::Int(vec![4, 5], vec![false, false])),
        ])
        .unwrap();
        let reference = push_reference(&t, &batch);
        t.append_rows(&batch).unwrap();
        assert_same(&t, &reference);
        assert_eq!(t.column("i").unwrap().to_values()[2..], [Value::Null, Value::Null]);
        assert_eq!(t.column("f").unwrap().to_values()[2..], [Value::Float(7.0), Value::Null]);
        assert_eq!(t.num_rows(), 4);
    }

    #[test]
    fn append_rows_materializes_validity_on_first_null_only() {
        let mut t = base();
        let clean = t.slice_rows(0, 1);
        t.append_rows(&clean).unwrap();
        assert!(t.iter().all(|(_, c)| c.validity().is_empty()));
        // A NULL payload that is not the type's default still lands as the
        // default, exactly as a push of `Value::Null` would.
        let holey = Table::new(vec![
            ("i", Column::Int(vec![9, 8], vec![true, false])),
            ("f", Column::floats(vec![3.0, 4.0])),
            ("s", Column::Str(vec!["p".into(), "q".into()], vec![false, true])),
            ("d", Column::dates(vec![1, 2])),
            ("b", Column::bools(vec![true, true])),
        ])
        .unwrap();
        let reference = push_reference(&t, &holey);
        t.append_rows(&holey).unwrap();
        assert_same(&t, &reference);
        assert_eq!(t.column("i").unwrap().validity(), &vec![true, true, true, true, false]);
        assert!(t.column("f").unwrap().validity().is_empty());
        // Once materialized, validity keeps growing with NULL-free batches.
        let reference = push_reference(&t, &clean);
        t.append_rows(&clean).unwrap();
        assert_same(&t, &reference);
        assert_eq!(t.column("i").unwrap().validity().len(), 6);
    }

    #[test]
    fn append_rows_matches_per_value_push_on_random_batches() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA99E);
        let mut t = base();
        for _ in 0..50 {
            let n = rng.gen_range(0..6);
            let mut opt = |p: f64| (0..n).map(|_| rng.gen_bool(p)).collect::<Vec<bool>>();
            let (vi, vf, vs) = (opt(0.8), opt(0.9), opt(0.7));
            let mask = |v: Vec<bool>| if v.iter().all(|&x| x) { Vec::new() } else { v };
            let batch = Table::new(vec![
                ("i", Column::Int((0..n as i64).collect(), mask(vi))),
                ("f", Column::Int((0..n as i64).map(|x| -x).collect(), mask(vf))),
                ("s", Column::Str((0..n).map(|x| x.to_string().into()).collect(), mask(vs))),
                ("d", Column::Bool(vec![false; n], vec![false; n])),
                ("b", Column::bools(vec![true; n])),
            ])
            .unwrap();
            let reference = push_reference(&t, &batch);
            t.append_rows(&batch).unwrap();
            assert_same(&t, &reference);
        }
    }

    #[test]
    fn empty_table() {
        let t = Table::empty();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }
}
