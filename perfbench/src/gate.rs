//! The correctness gate, run before any timing. It verifies the workload's
//! output and hands the timed run a reference digest for every operation.

use crate::check;
use crate::workloads::{AppendInputs, Sizes, Workload};
use holistic_baselines::naive;
use holistic_sql::{compile, parse_window_query, PlannedItem, SqlSession};
use holistic_window::{Column, ExecOptions, Expr, SortKey, Strategy, Table, WindowQuery};
use std::cmp::Ordering;

/// Verified output digests the timed operations are compared against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Digest of the SQL result table, or of the append episode's final
    /// `output_table()`.
    pub output: u64,
    /// Append only: digest of each batch's `changed_outputs`, in order.
    pub batches: Vec<u64>,
}

impl Reference {
    /// One line: `reference <output> <batch>,<batch>,...` in hex.
    pub fn encode(&self) -> String {
        let batches: Vec<String> = self.batches.iter().map(|d| format!("{d:016x}")).collect();
        format!("reference {:016x} {}", self.output, batches.join(","))
    }

    /// Parses [`Reference::encode`]'s line.
    pub fn decode(line: &str) -> Option<Reference> {
        let mut parts = line.trim_end().splitn(3, ' ');
        if parts.next()? != "reference" {
            return None;
        }
        let output = u64::from_str_radix(parts.next()?, 16).ok()?;
        let batches = match parts.next().unwrap_or("") {
            "" => Vec::new(),
            list => {
                list.split(',').map(|d| u64::from_str_radix(d, 16).ok()).collect::<Option<_>>()?
            }
        };
        Some(Reference { output, batches })
    }

    /// The reference with one bit flipped in every digest (the self-test of
    /// the per-operation comparison).
    pub fn corrupted(mut self) -> Reference {
        self.output ^= 1;
        for d in &mut self.batches {
            *d ^= 1;
        }
        self
    }
}

/// The configurations the output must be bit-identical under.
fn configs() -> [(&'static str, ExecOptions); 3] {
    [
        ("serial", ExecOptions::serial()),
        ("default", ExecOptions::default()),
        ("force-mst", ExecOptions::default().force_strategy(Strategy::Mst)),
    ]
}

/// Runs the gate for `workload`: configuration bit-identity on the full
/// input, the naive oracle on a prefix, and (append) the incremental result
/// against a from-scratch run on the grown table.
pub fn run(workload: Workload, sizes: Sizes, seed: u64) -> Result<Reference, String> {
    if workload.is_sql() {
        sql_gate(workload.sql(), sizes, seed)
    } else {
        append_gate(workload.sql(), sizes, seed)
    }
}

fn sql_gate(sql: &str, sizes: Sizes, seed: u64) -> Result<Reference, String> {
    let table = holistic_tpch::lineitem(sizes.n, seed).to_table();
    let prefix = table.slice_rows(0, sizes.oracle_prefix.min(sizes.n));
    let mut session = SqlSession::new();
    session.register("lineitem", table);
    let mut first: Option<Table> = None;
    for (label, opts) in configs() {
        let out = session.query_with(sql, opts).map_err(|e| format!("{label}: {e}"))?;
        match &first {
            None => first = Some(out),
            Some(f) => check::identical(f, &out)
                .map_err(|e| format!("{label} differs from serial: {e}"))?,
        }
    }
    oracle_sql(sql, &prefix)?;
    Ok(Reference {
        output: check::table_digest(&first.expect("three configs ran")),
        batches: Vec::new(),
    })
}

/// The SQL result on `prefix` against the same query assembled from the
/// naive oracle's per-window outputs.
fn oracle_sql(sql: &str, prefix: &Table) -> Result<(), String> {
    let mut session = SqlSession::new();
    session.register("lineitem", prefix.clone());
    let got = session.query_with(sql, ExecOptions::serial()).map_err(|e| e.to_string())?;
    let plan = compile(sql).map_err(|e| e.to_string())?;
    let filtered = match &plan.filter {
        Some(pred) => where_filter(prefix, pred).map_err(|e| e.to_string())?,
        None => prefix.clone(),
    };
    let outs = plan
        .windows
        .iter()
        .map(|w| naive::execute(w, &filtered))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("naive oracle: {e}"))?;
    let mut want = Table::empty();
    for item in &plan.items {
        let added = match item {
            PlannedItem::AllColumns { .. } => {
                filtered.iter().try_for_each(|(name, col)| want.add_column(name, col.clone()))
            }
            PlannedItem::Scalar { expr, name, .. } => {
                match expr.bind(&filtered).and_then(|b| b.eval_column(&filtered)) {
                    Ok(col) => want.add_column(name.clone(), col),
                    Err(e) => Err(e),
                }
            }
            PlannedItem::Window { group, call, name, .. } => {
                want.add_column(name.clone(), outs[*group].column_at(*call).clone())
            }
        };
        added.map_err(|e| e.to_string())?;
    }
    check::close_row_multisets(&want, &got)
        .map_err(|e| format!("naive oracle on {} rows: {e}", prefix.num_rows()))?;
    check_sorted(&got, &plan.order_by)
}

/// Keeps the rows of `table` where `pred` is TRUE (the session's WHERE).
pub fn where_filter(table: &Table, pred: &Expr) -> holistic_window::Result<Table> {
    let mask = pred.bind(table)?.eval_column(table)?;
    let keep: Vec<usize> = (0..table.num_rows()).filter(|&i| mask.get(i).is_truthy()).collect();
    let mut out = Table::empty();
    for (name, col) in table.iter() {
        let mut kept = Column::new_empty(col.data_type());
        for &i in &keep {
            kept.push(col.get(i))?;
        }
        out.add_column(name, kept)?;
    }
    Ok(out)
}

/// Checks the final ORDER BY when every key names an output column.
fn check_sorted(out: &Table, keys: &[SortKey]) -> Result<(), String> {
    let mut cols = Vec::new();
    for key in keys {
        match &key.expr {
            Expr::Col(name) if out.column(name).is_ok() => {
                cols.push((out.column(name).expect("checked"), key.desc))
            }
            _ => return Ok(()),
        }
    }
    for i in 1..out.num_rows() {
        for (col, desc) in &cols {
            let o = check::cmp_values(&col.get(i - 1), &col.get(i));
            match if *desc { o.reverse() } else { o } {
                Ordering::Less => break,
                Ordering::Equal => continue,
                Ordering::Greater => return Err(format!("final ORDER BY violated at row {i}")),
            }
        }
    }
    Ok(())
}

fn append_gate(sql: &str, sizes: Sizes, seed: u64) -> Result<Reference, String> {
    let (query, _) = parse_window_query(sql).map_err(|e| e.to_string())?;
    let inputs = AppendInputs::generate(sizes, seed);
    let base = inputs.full.slice_rows(0, sizes.n);
    let mut engine =
        query.begin_incremental(&base, ExecOptions::default()).map_err(|e| e.to_string())?;
    let mut batches = Vec::with_capacity(inputs.batches.len());
    for (k, batch) in inputs.batches.iter().enumerate() {
        // The first two batches also check `changed_outputs` against a diff
        // of the full outputs.
        let before =
            if k < 2 { Some(engine.output_table().map_err(|e| e.to_string())?) } else { None };
        let res = engine.append(batch).map_err(|e| format!("batch {k}: {e}"))?;
        if let Some(before) = before {
            let after = engine.output_table().map_err(|e| e.to_string())?;
            if changed_rows(&before, &after) != res.changed_outputs {
                return Err(format!("batch {k}: changed_outputs differs from the output diff"));
            }
        }
        batches.push(check::rows_digest(&res.changed_outputs));
    }
    let incremental = engine.output_table().map_err(|e| e.to_string())?;
    for (label, opts) in configs() {
        let scratch =
            query.execute_with(engine.table(), opts).map_err(|e| format!("{label}: {e}"))?;
        check::identical(&scratch, &incremental)
            .map_err(|e| format!("incremental differs from from-scratch {label}: {e}"))?;
    }
    drop(engine);
    oracle_append(
        &query,
        &inputs.full.slice_rows(0, sizes.oracle_prefix.min(inputs.full.num_rows())),
    )?;
    Ok(Reference { output: check::table_digest(&incremental), batches })
}

/// Rows whose output changed between two output tables, plus the new rows.
fn changed_rows(before: &Table, after: &Table) -> Vec<usize> {
    let old = before.num_rows();
    let mut rows: Vec<usize> = (0..old)
        .filter(|&i| {
            before
                .iter()
                .zip(after.iter())
                .any(|((_, a), (_, b))| !check::same_value(&a.get(i), &b.get(i)))
        })
        .collect();
    rows.extend(old..after.num_rows());
    rows
}

/// An incremental run over a prefix, in three pieces, against the naive
/// oracle on the whole prefix.
fn oracle_append(query: &WindowQuery, prefix: &Table) -> Result<(), String> {
    let p = prefix.num_rows();
    let (a, b) = (p / 2, 3 * p / 4);
    let mut engine = query
        .begin_incremental(&prefix.slice_rows(0, a), ExecOptions::serial())
        .map_err(|e| e.to_string())?;
    for (lo, hi) in [(a, b), (b, p)] {
        engine.append(&prefix.slice_rows(lo, hi)).map_err(|e| e.to_string())?;
    }
    let got = engine.output_table().map_err(|e| e.to_string())?;
    let want = naive::execute(query, prefix).map_err(|e| format!("naive oracle: {e}"))?;
    check::close_tables(&want, &got).map_err(|e| format!("naive oracle on {p} rows: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips_and_corrupts() {
        let r = Reference { output: 0xabc, batches: vec![1, 2, 0xffff_ffff_ffff_ffff] };
        assert_eq!(Reference::decode(&r.encode()), Some(r.clone()));
        let sql = Reference { output: 7, batches: Vec::new() };
        assert_eq!(Reference::decode(&sql.encode()), Some(sql.clone()));
        let bad = r.clone().corrupted();
        assert_ne!(bad.output, r.output);
        assert!(bad.batches.iter().zip(&r.batches).all(|(a, b)| a != b));
    }

    #[test]
    fn gate_passes_on_every_workload_at_tiny_size() {
        for w in Workload::ALL {
            let r = run(w, w.sizes(true), 7).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(r.batches.len(), w.sizes(true).batches);
        }
    }
}
