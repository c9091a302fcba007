//! Runs the benchmark binary on every workload at tiny size and checks its
//! result line against `BENCHMARK.json`, and that a corrupted reference is
//! caught.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["sql_big_partition", "sql_many_windows", "append_stream"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo root")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`, which
/// lists one `{"name": .., "unit": .., ..}` object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.lines()
        .filter_map(|line| {
            let name = field(line, "name")?;
            Some((name, field(line, "unit")?))
        })
        .collect()
}

/// The string value of `"key": "..."` in `line`.
fn field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let from = line.find(&pat)? + pat.len();
    Some(line[from..from + line[from..].find('"')?].to_string())
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .args(["--scale", "tiny", "--trace-dir", env!("CARGO_TARGET_TMPDIR")])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let last = stdout.lines().last().unwrap_or("").to_string();
    (out, last)
}

/// The value of metric `name` in a result line, checking its unit.
fn metric(line: &str, name: &str, unit: &str) -> f64 {
    let pat = format!("\"{name}\": {{\"value\": ");
    let from =
        line.find(&pat).unwrap_or_else(|| panic!("metric {name} missing from {line}")) + pat.len();
    let rest = &line[from..];
    let end = rest.find(',').expect("value ends");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "metric {name} lacks unit {unit}"
    );
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} is not a number: {}", &rest[..end]))
}

fn count(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let from = line.find(&pat).expect("key present") + pat.len();
    let rest = &line[from..];
    rest[..rest.find(',').expect("value ends")].parse().expect("integer")
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(layers.len() > 30);
    for w in WORKLOADS {
        for (trace, list) in [(0, &e2e), (1, &layers)] {
            let (out, line) = run(w, trace, &[]);
            assert!(
                out.status.success(),
                "{w} --trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(line.starts_with("{\"correct\": true, "), "{w}: {line}");
            assert!(count(&line, "attempted") >= 1);
            assert_eq!(count(&line, "failed"), 0);
            for (name, unit) in list.iter() {
                let v = metric(&line, name, unit);
                if trace == 0 {
                    assert!(v > 0.0, "{w}: end-to-end metric {name} is {v}");
                }
            }
            if trace == 1 {
                let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{w}-3.json"));
                let json = std::fs::read_to_string(path).expect("trace file written");
                assert!(json.contains("\"spans\": [") && json.contains("\"span_totals\""));
            }
        }
    }
}

#[test]
fn predicted_layer_contrasts_hold() {
    let (_, big) = run("sql_big_partition", 1, &[]);
    assert!(metric(&big, "strategy.mst", "count") > 0.0);
    assert_eq!(metric(&big, "partition.count", "count"), 1.0);
    let (_, many) = run("sql_many_windows", 1, &[]);
    assert_eq!(metric(&many, "strategy.mst", "count"), 0.0);
    let (_, append) = run("append_stream", 1, &[]);
    assert!(metric(&append, "append.append_s", "s") > 0.0);
    assert!(metric(&append, "table.append_rows_s", "s") > 0.0);
}

#[test]
fn corrupted_reference_fails_every_operation() {
    for w in ["sql_many_windows", "append_stream"] {
        let (out, line) = run(w, 0, &["--corrupt-reference"]);
        assert!(!out.status.success(), "{w}: a corrupted reference must fail the run");
        assert!(line.starts_with("{\"correct\": false, "), "{w}: {line}");
        assert_eq!(count(&line, "failed"), count(&line, "attempted"), "{w}: {line}");
    }
}

#[test]
fn bad_arguments_are_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
