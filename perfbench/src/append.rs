//! The append workload: end-appends of fixed-size batches to an
//! `IncrementalEngine`, untimed and traced.
//!
//! A run is a sequence of episodes. Each episode sets up an engine over the
//! same base table (the set-up sample), appends the same batches in order
//! (one timed operation each), and checks the final `output_table()`
//! against the verified reference. Every episode replays identical inputs,
//! so latencies from different episodes are comparable.

use crate::check;
use crate::gate::Reference;
use crate::report::{median, quantile, Report};
use crate::sql::{ratio, strategy_metric};
use crate::trace::Tracer;
use crate::workloads::{AppendInputs, Sizes, Workload};
use holistic_sql::parse_window_query;
use holistic_window::{ExecOptions, IncrementalEngine, Strategy};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Parses the query, builds the base table and opens the engine: the
/// set-up a user pays before the first append. Returns the engine and the
/// set-up time.
fn set_up(
    sql: &str,
    inputs: &AppendInputs,
    sizes: Sizes,
    opts: ExecOptions,
) -> Result<(IncrementalEngine, f64), String> {
    let t = Instant::now();
    let (query, _) = parse_window_query(sql).map_err(|e| e.to_string())?;
    let base = inputs.full.slice_rows(0, sizes.n);
    let engine = query.begin_incremental(&base, opts).map_err(|e| e.to_string())?;
    let dt = t.elapsed().as_secs_f64();
    Ok((engine, dt))
}

/// Checks an episode's final outputs (untimed); false on error or mismatch.
fn final_ok(engine: &IncrementalEngine, reference: &Reference) -> bool {
    match engine.output_table() {
        Ok(t) => check::table_digest(&t) == reference.output,
        Err(e) => {
            eprintln!("output_table failed: {e}");
            false
        }
    }
}

/// The end-to-end run: pairs of episodes, one under default options and
/// one under `ExecOptions::serial()`, until `seconds` have passed.
pub fn timed(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: Duration,
    reference: &Reference,
) -> Report {
    let inputs = AppendInputs::generate(sizes, seed);
    let mut r = Report::default();
    let (mut parallel, mut serial, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut pairs = 0;
    while pairs == 0 || start.elapsed() < seconds {
        pairs += 1;
        for (opts, sink) in
            [(ExecOptions::default(), &mut parallel), (ExecOptions::serial(), &mut serial)]
        {
            let (mut engine, dt) = match set_up(w.sql(), &inputs, sizes, opts) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("set-up failed: {e}");
                    r.op(false);
                    continue;
                }
            };
            if opts.parallel {
                setup.push(dt);
            }
            for (k, batch) in inputs.batches.iter().enumerate() {
                let t = Instant::now();
                let res = engine.append(batch);
                let dt = t.elapsed().as_secs_f64();
                let ok = match res {
                    Ok(res) => check::rows_digest(&res.changed_outputs) == reference.batches[k],
                    Err(e) => {
                        eprintln!("append {k} failed: {e}");
                        false
                    }
                };
                r.op(ok);
                if ok {
                    sink.push(dt);
                }
            }
            r.op(final_ok(&engine, reference));
        }
    }
    r.set_sampled("latency_p50_s", median(&parallel), parallel.len());
    r.set_sampled("latency_serial_p50_s", median(&serial), serial.len());
    r.set_sampled("rows_per_s", sizes.batch_rows as f64 / median(&parallel), parallel.len());
    r.set_sampled("setup_s", median(&setup), setup.len());
    r
}

/// The traced run: episodes under `ExecOptions::serial()`, at least 200
/// appends.
/// Besides each append it times the standalone `Table::append_rows` of the
/// same batch onto a copy of the engine's table as it was before the append,
/// and once per episode the `output_table()` call.
pub fn traced(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: Duration,
    reference: &Reference,
    tracer: &mut Tracer,
) -> Report {
    let inputs = AppendInputs::generate(sizes, seed);
    let opts = ExecOptions::serial();
    let mut r = Report::default();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &'static str, v: f64| samples.entry(k).or_default().push(v);
    // Enough episodes for at least 200 appends, so that 10 samples lie
    // beyond the p95.
    let min_episodes = 200usize.div_ceil(inputs.batches.len().max(1));
    let start = Instant::now();
    let mut episodes = 0;
    let mut op = 0u64;
    while episodes < min_episodes || start.elapsed() < seconds {
        episodes += 1;
        tracer.set_op(op);
        let setup = tracer.enter("episode.set_up");
        let (query, _) = tracer.leaf("sql.parse_window_query", || parse_window_query(w.sql()));
        let (query, _) = query.expect("the gate parsed this query");
        let base = inputs.full.slice_rows(0, sizes.n);
        let (engine, _) =
            tracer.leaf("append.begin_incremental", || query.begin_incremental(&base, opts));
        tracer.exit(setup);
        drop(base);
        let mut engine = match engine {
            Ok(e) => e,
            Err(e) => {
                eprintln!("set-up failed: {e}");
                r.op(false);
                continue;
            }
        };
        let (mut fast_rows, mut rows, mut recomputed) = (0usize, 0usize, 0usize);
        let mut last = None;
        for (k, batch) in inputs.batches.iter().enumerate() {
            op += 1;
            tracer.set_op(op);
            let mut copy = engine.table().clone();
            let (res, append_s) = tracer.leaf("append.append", || engine.append(batch));
            let (grown, rows_s) = tracer.leaf("table.append_rows", || copy.append_rows(batch));
            drop(copy);
            let ok = match (res, grown) {
                (Ok(res), Ok(())) => {
                    fast_rows += res.profile.fast_path_rows;
                    rows += res.profile.appended_rows;
                    recomputed += res.profile.recomputed_partitions;
                    let ok = check::rows_digest(&res.changed_outputs) == reference.batches[k];
                    last = Some(res.profile);
                    ok
                }
                _ => false,
            };
            r.op(ok);
            if ok {
                push("append.append_s", append_s);
                push("table.append_rows_s", rows_s);
            }
        }
        let (out, output_s) = tracer.leaf("append.output_table", || engine.output_table());
        r.op(matches!(&out, Ok(t) if check::table_digest(t) == reference.output));
        drop(out);
        push("append.output_table_s", output_s);
        push("append.fast_path_ratio", ratio(fast_rows as u64, rows as u64));
        push(
            "append.recomputed_partitions",
            recomputed as f64 / inputs.batches.len().max(1) as f64,
        );
        if let Some(p) = last {
            push("append.forest_runs", p.forest_runs as f64);
            push("append.rebuilt_per_row", ratio(p.forest_rebuilt_elements, rows as u64));
            push("append.forest_resident_bytes", p.forest_resident_bytes as f64);
            push("artifacts.peak_resident_bytes", p.peak_resident_artifact_bytes as f64);
        }
        let decisions = engine.strategy_decisions();
        for s in Strategy::ALL {
            push(strategy_metric(s), decisions[s.index()] as f64);
        }
        let stats = engine.partition_stats();
        push("partition.count", stats.len() as f64);
        push("partition.max_rows", stats.iter().map(|s| s.m).max().unwrap_or(0) as f64);
        op += 1;
    }
    for (k, v) in &samples {
        r.set_sampled(k, median(v), v.len());
    }
    let appends = samples.get("append.append_s").map_or(&[][..], Vec::as_slice);
    r.set_sampled("append.append_p95_s", quantile(appends, 0.95), appends.len());
    let share = r.values.get("table.append_rows_s").copied().unwrap_or(0.0)
        / r.values.get("append.append_s").copied().unwrap_or(f64::INFINITY);
    r.set("table.append_rows_share", share);
    r
}
