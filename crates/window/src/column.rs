//! Columnar storage.

use crate::error::{Error, Result};
use crate::value::{DataType, Value};
use std::sync::Arc;

/// A typed column with a validity mask.
///
/// Storage is dense (one slot per row); `valid[i] == false` marks NULL. The
/// validity vector is omitted (empty) when no NULLs exist.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<i64>, Validity),
    /// 64-bit floats.
    Float(Vec<f64>, Validity),
    /// Strings.
    Str(Vec<Arc<str>>, Validity),
    /// Days since epoch.
    Date(Vec<i32>, Validity),
    /// Booleans.
    Bool(Vec<bool>, Validity),
}

/// NULL mask: empty means "all valid".
pub type Validity = Vec<bool>;

impl Column {
    /// Builds an integer column without NULLs.
    pub fn ints(v: Vec<i64>) -> Self {
        Column::Int(v, Vec::new())
    }

    /// Builds a float column without NULLs.
    pub fn floats(v: Vec<f64>) -> Self {
        Column::Float(v, Vec::new())
    }

    /// Builds a date column without NULLs.
    pub fn dates(v: Vec<i32>) -> Self {
        Column::Date(v, Vec::new())
    }

    /// Builds a string column without NULLs.
    pub fn strs<S: Into<Arc<str>>>(v: Vec<S>) -> Self {
        Column::Str(v.into_iter().map(Into::into).collect(), Vec::new())
    }

    /// Builds a bool column without NULLs.
    pub fn bools(v: Vec<bool>) -> Self {
        Column::Bool(v, Vec::new())
    }

    /// Builds an integer column from options.
    pub fn ints_opt(v: Vec<Option<i64>>) -> Self {
        let valid: Vec<bool> = v.iter().map(|o| o.is_some()).collect();
        let data = v.into_iter().map(|o| o.unwrap_or(0)).collect();
        Column::Int(data, if valid.iter().all(|&b| b) { Vec::new() } else { valid })
    }

    /// Builds a float column from options.
    pub fn floats_opt(v: Vec<Option<f64>>) -> Self {
        let valid: Vec<bool> = v.iter().map(|o| o.is_some()).collect();
        let data = v.into_iter().map(|o| o.unwrap_or(0.0)).collect();
        Column::Float(data, if valid.iter().all(|&b| b) { Vec::new() } else { valid })
    }

    /// Builds a column from dynamically typed values (type inferred from the
    /// first non-null; all-null columns become Int).
    pub fn from_values(values: &[Value]) -> Result<Self> {
        let dt = values
            .iter()
            .find(|v| !v.is_null())
            .map(|v| match v {
                Value::Int(_) => DataType::Int,
                Value::Float(_) => DataType::Float,
                Value::Str(_) => DataType::Str,
                Value::Date(_) => DataType::Date,
                Value::Bool(_) => DataType::Bool,
                Value::Null => unreachable!(),
            })
            .unwrap_or(DataType::Int);
        let mut col = Column::new_empty(dt);
        for v in values {
            col.push(v.clone())?;
        }
        Ok(col)
    }

    /// An empty column of the given type.
    pub fn new_empty(dt: DataType) -> Self {
        match dt {
            DataType::Int => Column::Int(Vec::new(), Vec::new()),
            DataType::Float => Column::Float(Vec::new(), Vec::new()),
            DataType::Str => Column::Str(Vec::new(), Vec::new()),
            DataType::Date => Column::Date(Vec::new(), Vec::new()),
            DataType::Bool => Column::Bool(Vec::new(), Vec::new()),
        }
    }

    /// Appends a value (NULL or matching type).
    pub fn push(&mut self, v: Value) -> Result<()> {
        fn put<T>(data: &mut Vec<T>, valid: &mut Validity, item: Option<T>, default: T) {
            match item {
                Some(x) => {
                    if !valid.is_empty() {
                        valid.push(true);
                    }
                    data.push(x);
                }
                None => {
                    if valid.is_empty() {
                        valid.extend(std::iter::repeat_n(true, data.len()));
                    }
                    valid.push(false);
                    data.push(default);
                }
            }
        }
        let type_err = |got: &'static str| Error::TypeMismatch {
            expected: "column element",
            got,
            context: "Column::push",
        };
        match (self, v) {
            (Column::Int(d, va), Value::Int(x)) => put(d, va, Some(x), 0),
            (Column::Int(d, va), Value::Null) => put(d, va, None, 0),
            (Column::Float(d, va), Value::Float(x)) => put(d, va, Some(x), 0.0),
            (Column::Float(d, va), Value::Int(x)) => put(d, va, Some(x as f64), 0.0),
            (Column::Float(d, va), Value::Null) => put(d, va, None, 0.0),
            (Column::Str(d, va), Value::Str(x)) => put(d, va, Some(x), Arc::from("")),
            (Column::Str(d, va), Value::Null) => put(d, va, None, Arc::from("")),
            (Column::Date(d, va), Value::Date(x)) => put(d, va, Some(x), 0),
            (Column::Date(d, va), Value::Null) => put(d, va, None, 0),
            (Column::Bool(d, va), Value::Bool(x)) => put(d, va, Some(x), false),
            (Column::Bool(d, va), Value::Null) => put(d, va, None, false),
            (_, v) => return Err(type_err(v.type_name())),
        }
        Ok(())
    }

    /// Appends every row of `src` in place — the bulk form of
    /// [`Column::push`], accepting exactly what pushing each of `src`'s
    /// values would: the same type, Int into Float (widened), or a column
    /// without a single valid row. On error `self` is unchanged. Validity
    /// stays empty until the first NULL arrives, as with `push`, and NULL
    /// slots hold the type's default.
    pub fn extend_from(&mut self, src: &Column) -> Result<()> {
        self.check_extend(src)?;
        match (self, src) {
            (Column::Int(d, v), Column::Int(s, sv)) => grow(d, v, s.iter().copied(), sv, 0),
            (Column::Float(d, v), Column::Float(s, sv)) => grow(d, v, s.iter().copied(), sv, 0.0),
            (Column::Float(d, v), Column::Int(s, sv)) => {
                grow(d, v, s.iter().map(|&x| x as f64), sv, 0.0)
            }
            (Column::Str(d, v), Column::Str(s, sv)) => {
                grow(d, v, s.iter().cloned(), sv, Arc::from(""))
            }
            (Column::Date(d, v), Column::Date(s, sv)) => grow(d, v, s.iter().copied(), sv, 0),
            (Column::Bool(d, v), Column::Bool(s, sv)) => grow(d, v, s.iter().copied(), sv, false),
            // `check_extend` admitted a mismatched type only for a column
            // holding no valid row.
            (Column::Int(d, v), src) => pad_nulls(d, v, src.len(), 0),
            (Column::Float(d, v), src) => pad_nulls(d, v, src.len(), 0.0),
            (Column::Str(d, v), src) => pad_nulls(d, v, src.len(), Arc::from("")),
            (Column::Date(d, v), src) => pad_nulls(d, v, src.len(), 0),
            (Column::Bool(d, v), src) => pad_nulls(d, v, src.len(), false),
        }
        Ok(())
    }

    /// The type check of [`Column::extend_from`], without mutating anything:
    /// the error is the one `push` would raise on `src`'s first offending
    /// value.
    pub(crate) fn check_extend(&self, src: &Column) -> Result<()> {
        use Column::*;
        match (self, src) {
            (Int(..), Int(..))
            | (Float(..), Float(..) | Int(..))
            | (Str(..), Str(..))
            | (Date(..), Date(..))
            | (Bool(..), Bool(..)) => Ok(()),
            _ => match (0..src.len()).find(|&i| src.is_valid(i)) {
                None => Ok(()),
                Some(i) => Err(Error::TypeMismatch {
                    expected: "column element",
                    got: src.get(i).type_name(),
                    context: "Column::push",
                }),
            },
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(d, _) => d.len(),
            Column::Float(d, _) => d.len(),
            Column::Str(d, _) => d.len(),
            Column::Date(d, _) => d.len(),
            Column::Bool(d, _) => d.len(),
        }
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(..) => DataType::Int,
            Column::Float(..) => DataType::Float,
            Column::Str(..) => DataType::Str,
            Column::Date(..) => DataType::Date,
            Column::Bool(..) => DataType::Bool,
        }
    }

    /// The NULL mask (empty when the column has no NULL).
    #[inline]
    pub(crate) fn validity(&self) -> &Validity {
        match self {
            Column::Int(_, v) | Column::Date(_, v) => v,
            Column::Float(_, v) => v,
            Column::Str(_, v) => v,
            Column::Bool(_, v) => v,
        }
    }

    /// True when row `i` is valid (non-NULL).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        let v = self.validity();
        v.is_empty() || v[i]
    }

    /// Row `i` as a [`Value`].
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            Column::Int(d, _) => Value::Int(d[i]),
            Column::Float(d, _) => Value::Float(d[i]),
            Column::Str(d, _) => Value::Str(d[i].clone()),
            Column::Date(d, _) => Value::Date(d[i]),
            Column::Bool(d, _) => Value::Bool(d[i]),
        }
    }

    /// All rows as values (convenience for tests and small outputs).
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Rows `[a, b)` as a new column of the *same* type, validity preserved.
    /// Unlike a [`Column::from_values`] round-trip, slicing never re-infers
    /// the type, so an all-NULL or empty slice keeps the source type — which
    /// is what makes sliced batches push-compatible with their source (see
    /// [`crate::table::Table::slice_rows`]).
    pub fn slice(&self, a: usize, b: usize) -> Column {
        fn vslice(valid: &Validity, a: usize, b: usize) -> Validity {
            if valid.is_empty() {
                Vec::new()
            } else {
                let s = valid[a..b].to_vec();
                if s.iter().all(|&x| x) {
                    Vec::new()
                } else {
                    s
                }
            }
        }
        match self {
            Column::Int(d, v) => Column::Int(d[a..b].to_vec(), vslice(v, a, b)),
            Column::Float(d, v) => Column::Float(d[a..b].to_vec(), vslice(v, a, b)),
            Column::Str(d, v) => Column::Str(d[a..b].to_vec(), vslice(v, a, b)),
            Column::Date(d, v) => Column::Date(d[a..b].to_vec(), vslice(v, a, b)),
            Column::Bool(d, v) => Column::Bool(d[a..b].to_vec(), vslice(v, a, b)),
        }
    }
}

/// Appends `items` (whose validity is `src_valid`, empty meaning all valid)
/// to `data`/`valid`, keeping `valid` empty until the first NULL and writing
/// `default` into NULL slots — what pushing the items one by one does.
fn grow<T: Clone>(
    data: &mut Vec<T>,
    valid: &mut Validity,
    items: impl Iterator<Item = T>,
    src_valid: &[bool],
    default: T,
) {
    let old = data.len();
    data.extend(items);
    if !src_valid.contains(&false) {
        if !valid.is_empty() {
            valid.resize(data.len(), true);
        }
        return;
    }
    if valid.is_empty() {
        valid.resize(old, true);
    }
    valid.extend_from_slice(src_valid);
    for (d, &ok) in data[old..].iter_mut().zip(src_valid) {
        if !ok {
            *d = default.clone();
        }
    }
}

/// Appends `n` NULLs (slots holding `default`) to `data`/`valid`.
fn pad_nulls<T: Clone>(data: &mut Vec<T>, valid: &mut Validity, n: usize, default: T) {
    if n == 0 {
        return;
    }
    if valid.is_empty() {
        valid.resize(data.len(), true);
    }
    valid.resize(data.len() + n, false);
    data.resize(data.len() + n, default);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut c = Column::new_empty(DataType::Int);
        c.push(Value::Int(5)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(-3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(5));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(-3));
        assert!(!c.is_valid(1) && c.is_valid(2));
    }

    #[test]
    fn validity_stays_empty_without_nulls() {
        let mut c = Column::new_empty(DataType::Float);
        c.push(Value::Float(1.5)).unwrap();
        c.push(Value::Int(2)).unwrap(); // int→float widening
        match &c {
            Column::Float(d, v) => {
                assert_eq!(d, &vec![1.5, 2.0]);
                assert!(v.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut c = Column::new_empty(DataType::Int);
        assert!(c.push(Value::str("nope")).is_err());
    }

    #[test]
    fn from_values_infers_type() {
        let vals = vec![Value::Null, Value::str("x"), Value::Null];
        let c = Column::from_values(&vals).unwrap();
        assert_eq!(c.data_type(), DataType::Str);
        assert_eq!(c.to_values(), vals);
    }

    #[test]
    fn opt_constructors() {
        let c = Column::ints_opt(vec![Some(1), None, Some(3)]);
        assert_eq!(c.get(1), Value::Null);
        let c = Column::floats_opt(vec![Some(1.0), Some(2.0)]);
        assert!(matches!(c, Column::Float(_, ref v) if v.is_empty()));
    }
}
