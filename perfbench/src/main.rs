//! `perfbench`: the window-query benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale tiny] [--trace-dir <dir>] [--corrupt-reference]
//! ```
//!
//! Generates the workload's input from the seed, runs the correctness gate
//! in a child process (so its memory does not count towards this process's
//! peak RSS), then measures for `--seconds` seconds. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it records spans around
//! every call it makes into a layer's public function, writes them to
//! `<trace-dir>/trace-<workload>-<seed>.json`, and reports the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod append;
mod check;
mod gate;
mod json;
mod report;
mod sql;
mod trace;
mod workloads;

use gate::Reference;
use report::{peak_rss_bytes, Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use trace::Tracer;
use workloads::Workload;

const USAGE: &str =
    "usage: perfbench --workload <sql_big_partition|sql_many_windows|append_stream> \
--seed <n> --seconds <s> --trace <0|1> [--scale tiny] [--trace-dir <dir>] [--corrupt-reference]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    trace_dir: PathBuf,
    corrupt_reference: bool,
    /// Internal: run only the correctness gate and print the reference.
    gate_only: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = Args {
            workload: Workload::SqlBigPartition,
            seed: 0,
            seconds: 0,
            trace: false,
            tiny: false,
            trace_dir: PathBuf::from("perfbench/out"),
            corrupt_reference: false,
            gate_only: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
                }
                "--seed" => {
                    seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
                }
                "--seconds" => {
                    seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    })
                }
                "--scale" => {
                    args.tiny = match value()?.as_str() {
                        "tiny" => true,
                        "full" => false,
                        v => return Err(format!("--scale takes tiny or full, not `{v}`")),
                    }
                }
                "--trace-dir" => args.trace_dir = PathBuf::from(value()?),
                "--corrupt-reference" => args.corrupt_reference = true,
                "--gate-only" => args.gate_only = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        args.seed = seed.ok_or("--seed is required")?;
        if !args.gate_only {
            args.seconds = seconds.ok_or("--seconds is required")?;
            args.trace = trace.ok_or("--trace is required")?;
        }
        Ok(args)
    }
}

/// Runs the gate in a child process and reads the reference it prints.
fn gate_in_child(args: &Args) -> Result<Reference, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--gate-only", "--workload", args.workload.name(), "--seed", &args.seed.to_string()]);
    if args.tiny {
        cmd.args(["--scale", "tiny"]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the gate: {e}"))?;
    if !out.status.success() {
        return Err(format!("correctness gate failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(Reference::decode)
        .ok_or_else(|| "gate printed no reference".to_string())
}

fn threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Keeps freed memory inside the process: blocks up to 32 MiB come from the
/// heap instead of fresh `mmap`s, and the heap is never trimmed. Without
/// this, every operation re-faults its working set from the kernel, and
/// the page-fault path's run-to-run variation swamps the engine's own cost.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only changes glibc allocator parameters, both values
    // are in their documented ranges, and it runs before any other thread
    // of this process exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() -> ExitCode {
    keep_freed_memory();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (w, sizes) = (args.workload, args.workload.sizes(args.tiny));
    if args.gate_only {
        return match gate::run(w, sizes, args.seed) {
            Ok(r) => {
                println!("{}", r.encode());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {}: correctness gate failed: {e}", w.name());
                ExitCode::FAILURE
            }
        };
    }

    let reference = match gate_in_child(&args) {
        Ok(r) if args.corrupt_reference => r.corrupted(),
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            println!(
                "{}",
                Report { attempted: 1, failed: 1, ..Report::default() }.result_line(false, &[])
            );
            return ExitCode::FAILURE;
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let threads = threads();
    let (report, list) = if args.trace {
        let mut tracer = Tracer::new();
        let mut report = if w.is_sql() {
            sql::traced(w, sizes, args.seed, seconds, &reference, &mut tracer)
        } else {
            append::traced(w, sizes, args.seed, seconds, &reference, &mut tracer)
        };
        // Layers the workload leaves idle read 0.
        for (name, _) in PER_LAYER {
            report.values.entry(name).or_insert(0.0);
        }
        if let Err(e) = write_trace(&args, &tracer, &report, threads) {
            eprintln!("perfbench: writing the trace: {e}");
            report.op(false);
        }
        (report, &PER_LAYER[..])
    } else {
        let mut report = if w.is_sql() {
            sql::timed(w, sizes, args.seed, seconds, &reference)
        } else {
            append::timed(w, sizes, args.seed, seconds, &reference)
        };
        report.set("peak_rss_bytes", peak_rss_bytes());
        (report, &END_TO_END[..])
    };

    let correct = report.failed == 0;
    println!(
        "# {} seed={} n={} threads={} trace={} attempted={} failed={} error_rate={}",
        w.name(),
        args.seed,
        sizes.n,
        threads,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    print!("{}", report.summary(list));
    println!("{}", report.result_line(correct, list));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_trace(
    args: &Args,
    tracer: &Tracer,
    report: &Report,
    threads: usize,
) -> std::io::Result<()> {
    let w = args.workload;
    let sizes = w.sizes(args.tiny);
    let header = [
        ("workload", json::string(w.name())),
        ("seed", args.seed.to_string()),
        ("n", sizes.n.to_string()),
        ("batch_rows", sizes.batch_rows.to_string()),
        ("batches", sizes.batches.to_string()),
        ("threads", threads.to_string()),
        ("exec_options", json::string("serial")),
        ("sql", json::string(w.sql())),
        ("why", json::string(w.why())),
        ("stresses", json::string(w.stresses())),
        ("bypasses", json::string(w.bypasses())),
    ];
    std::fs::create_dir_all(&args.trace_dir)?;
    let path = args.trace_dir.join(format!("trace-{}-{}.json", w.name(), args.seed));
    std::fs::write(&path, tracer.to_json(&header, &report.values))?;
    eprintln!("perfbench: trace written to {}", path.display());
    Ok(())
}
