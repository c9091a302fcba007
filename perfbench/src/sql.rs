//! The SQL workloads: SQL text → result table, untimed and traced.

use crate::check;
use crate::gate::{where_filter, Reference};
use crate::report::{median, Report};
use crate::trace::Tracer;
use crate::workloads::{Sizes, Workload};
use holistic_sql::{execute_plan, parse_query, plan, SqlSession};
use holistic_tpch::Lineitem;
use holistic_window::order::KeyColumns;
use holistic_window::partition::partition_rows;
use holistic_window::{ExecOptions, ExecProfile, Strategy, Table};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Builds the table from the generated columns and registers it: the set-up
/// a user pays before the first query. Returns the session and its set-up
/// time.
fn set_up(data: &Lineitem) -> (SqlSession, f64) {
    let t = Instant::now();
    let mut session = SqlSession::new();
    session.register("lineitem", black_box(data.to_table()));
    (session, t.elapsed().as_secs_f64())
}

fn digest_ok(out: &Result<Table, impl std::fmt::Display>, reference: &Reference) -> bool {
    match out {
        Ok(t) => check::table_digest(t) == reference.output,
        Err(e) => {
            eprintln!("query failed: {e}");
            false
        }
    }
}

/// The end-to-end run: alternating default (parallel) and serial queries,
/// each from SQL text to result table, for at least `seconds`.
pub fn timed(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: Duration,
    reference: &Reference,
) -> Report {
    let data = holistic_tpch::lineitem(sizes.n, seed);
    let sql = w.sql();
    let mut r = Report::default();
    let (mut parallel, mut serial, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut session = SqlSession::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed() < seconds {
        rounds += 1;
        // Set-up samples are spread over the whole run, so that their median
        // sees the same machine conditions as the queries'.
        for _ in 0..sizes.setup_reps {
            drop(std::mem::take(&mut session));
            let (fresh, dt) = set_up(&data);
            session = fresh;
            setup.push(dt);
        }
        for (opts, sink) in
            [(ExecOptions::default(), &mut parallel), (ExecOptions::serial(), &mut serial)]
        {
            let t = Instant::now();
            let out = session.query_with(black_box(sql), opts);
            let dt = t.elapsed().as_secs_f64();
            let ok = digest_ok(&out, reference);
            r.op(ok);
            if ok {
                sink.push(dt);
            }
        }
    }
    r.set_sampled("latency_p50_s", median(&parallel), parallel.len());
    r.set_sampled("latency_serial_p50_s", median(&serial), serial.len());
    r.set_sampled("rows_per_s", sizes.n as f64 / median(&parallel), parallel.len());
    r.set_sampled("setup_s", median(&setup), setup.len());
    r
}

/// The traced run, under `ExecOptions::serial()` so the engine's phase sums
/// are wall time. Each operation is one untraced query (the overhead
/// baseline), one traced query (parse, plan, execute_plan), and a replay of
/// the plan's windows that times each window's `execute_profiled`,
/// `partition_rows` and `KeyColumns::evaluate` on the filtered table.
pub fn traced(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: Duration,
    reference: &Reference,
    tracer: &mut Tracer,
) -> Report {
    let data = holistic_tpch::lineitem(sizes.n, seed);
    let (session, _) = set_up(&data);
    let table = data.to_table();
    let sql = w.sql();
    let opts = ExecOptions::serial();
    let mut r = Report::default();
    let mut untraced = Vec::new();
    let mut traced_total = Vec::new();
    let mut per_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut op = 0u64;
    while op < 2 || start.elapsed() < seconds {
        let t = Instant::now();
        let out = session.query_with(black_box(sql), opts);
        untraced.push(t.elapsed().as_secs_f64());
        let ok = digest_ok(&out, reference);
        r.op(ok);

        tracer.set_op(op);
        op += 1;
        match traced_op(sql, &table, opts, tracer, reference) {
            Ok((total, sample)) => {
                r.op(true);
                traced_total.push(total);
                for (k, v) in sample {
                    per_op.entry(k).or_default().push(v);
                }
            }
            Err(e) => {
                eprintln!("traced query failed: {e}");
                tracer.close_open();
                r.op(false);
            }
        }
    }
    for (k, v) in &per_op {
        r.set_sampled(k, median(v), v.len());
    }
    r.set_sampled("trace.overhead", median(&traced_total) / median(&untraced), traced_total.len());
    r
}

/// One traced query plus the window replay; returns the traced query's
/// wall time and the operation's per-layer values.
fn traced_op(
    sql: &str,
    table: &Table,
    opts: ExecOptions,
    tracer: &mut Tracer,
    reference: &Reference,
) -> Result<(f64, BTreeMap<&'static str, f64>), String> {
    let root = tracer.enter("query");
    let (query, parse_s) = tracer.leaf("sql.parse_query", || parse_query(sql));
    let query = query.map_err(|e| e.to_string())?;
    let (plan, plan_s) = tracer.leaf("sql.plan", || plan(sql, &query, Some(table)));
    let plan = plan.map_err(|e| e.to_string())?;
    let (out, execute_s) =
        tracer.leaf("sql.execute_plan", || execute_plan(sql, &plan, table, opts));
    tracer.exit(root);
    let total = tracer.seconds(root);
    let (out, _) = out.map_err(|e| e.to_string())?;
    if check::table_digest(&out) != reference.output {
        return Err("traced result differs from the verified reference".into());
    }
    drop(out);

    let replay = tracer.enter("window.replay");
    let (filtered, _) = tracer.leaf("replay.where", || match &plan.filter {
        Some(pred) => where_filter(table, pred).map(Some),
        None => Ok(None),
    });
    let filtered = filtered.map_err(|e| e.to_string())?;
    let input = filtered.as_ref().unwrap_or(table);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *m.entry(k).or_insert(0.0) += v;
    let mut max_rows = 0usize;
    let mut profiles: Vec<ExecProfile> = Vec::new();
    for window in &plan.windows {
        let (res, s) =
            tracer.leaf("window.execute_profiled", || window.execute_profiled(input, opts));
        let (_, profile) = res.map_err(|e| e.to_string())?;
        add("window.execute_s", s);
        profiles.push(profile);
        let (parts, s) = tracer
            .leaf("partition.partition_rows", || partition_rows(input, &window.spec.partition_by));
        let parts = parts.map_err(|e| e.to_string())?;
        add("partition.partition_rows_s", s);
        add("partition.count", parts.len() as f64);
        max_rows = max_rows.max(parts.iter().map(Vec::len).max().unwrap_or(0));
        drop(parts);
        let (keys, s) =
            tracer.leaf("order.key_eval", || KeyColumns::evaluate(input, &window.spec.order_by));
        keys.map_err(|e| e.to_string())?;
        add("order.key_eval_s", s);
    }
    tracer.exit(replay);

    add("sql.parse_s", parse_s);
    add("sql.plan_s", plan_s);
    add("sql.execute_s", execute_s);
    add("partition.max_rows", max_rows as f64);
    let (mut hits, mut misses, mut seeded, mut full, mut peak) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for p in &profiles {
        add("window.plan_s", p.plan.as_secs_f64());
        add("window.build_s", p.build.as_secs_f64());
        add("window.resolve_s", p.resolve.as_secs_f64());
        add("window.probe_s", p.probe.as_secs_f64());
        for s in Strategy::ALL {
            add(strategy_metric(s), p.strategy.decisions[s.index()] as f64);
        }
        add("strategy.cacheless_partitions", p.strategy.cacheless_partitions as f64);
        hits += p.cache.hits;
        misses += p.cache.misses;
        add("artifacts.mst_builds", p.cache.mst_builds as f64);
        add("artifacts.inner_sorts", p.cache.inner_sorts as f64);
        add("artifacts.bytes_built", p.cache.bytes_built as f64);
        peak = peak.max(p.spill.peak_resident);
        add("probe.block_queries", p.probe_kernel.block_queries as f64);
        add("probe.cursor_probes", p.probe_kernel.cursor_probes as f64);
        seeded += p.probe_kernel.gallop_seeded;
        full += p.probe_kernel.full_searches;
        add("vm.vm_rows", p.expr_vm.vm_rows as f64);
        add("vm.interpreted_rows", p.expr_vm.interpreted_rows as f64);
        add("vm.fallbacks", p.expr_vm.vm_fallbacks as f64);
    }
    add("artifacts.hit_ratio", ratio(hits, hits + misses));
    add("artifacts.peak_resident_bytes", peak as f64);
    add("probe.gallop_ratio", ratio(seeded, seeded + full));
    let window_s = m["window.execute_s"];
    let phases = m["window.plan_s"] + m["window.build_s"] + m["window.probe_s"];
    let residual = execute_s - window_s;
    let unattributed = window_s - phases;
    m.insert("sql.session_residual_s", residual);
    m.insert("window.unattributed_s", unattributed);
    m.insert("trace.unattributed_share", (unattributed + residual) / execute_s);
    Ok((total, m))
}

/// The per-layer metric counting decisions for `s`.
pub fn strategy_metric(s: Strategy) -> &'static str {
    match s {
        Strategy::Naive => "strategy.naive",
        Strategy::Incremental => "strategy.incremental",
        Strategy::OsTree => "strategy.ostree",
        Strategy::SegTree => "strategy.segtree",
        Strategy::Mst => "strategy.mst",
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
