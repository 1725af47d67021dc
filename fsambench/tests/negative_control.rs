//! Smoke-scale passes of both benchmark binaries: a clean pass reports
//! zero failed operations and prints every metric `BENCHMARK.json` lists,
//! with its unit; a pass against one corrupted expected digest reports
//! failed operations and exits non-zero.

use std::path::{Path, PathBuf};
use std::process::Command;

use fsam_trace::json::{self, Value};
use fsambench::expected::{self, Expected};
use fsambench::workload::{Subject, Workload};

/// Small enough for an unoptimized build.
const SMOKE_SCALE: f64 = 0.05;

/// Expected outputs at the smoke scale for `small` and `serve`, written
/// to a file named `name` (optionally with `kmeans`' digest corrupted).
fn smoke_expected(name: &str, corrupt: bool) -> PathBuf {
    let mut subjects: Vec<Subject> = Workload::Small.subjects();
    subjects.extend(Workload::Serve.subjects());
    let mut e: Expected = expected::generate(&subjects, SMOKE_SCALE, &["x264"], |_| {}).unwrap();
    if corrupt {
        e.entries.get_mut("kmeans").unwrap().pts ^= 1;
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, e.render()).unwrap();
    path
}

/// Runs `bin` on `workload` and returns its exit success and parsed
/// result line.
fn run(bin: &str, workload: &str, trace: bool, expected: &Path) -> (bool, Value) {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &SMOKE_SCALE.to_string()])
        .arg("--expected")
        .arg(expected)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: no JSON result line ({e}): {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), result)
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_num).unwrap()
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Value::Arr(metrics)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    metrics
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn assert_prints_exactly(result: &Value, want: &[(String, String)], what: &str) {
    let metrics = result.get("metrics").unwrap();
    let names = metrics.keys().unwrap();
    for name in &names {
        assert!(
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
            "{what}: metric name {name:?} is not [A-Za-z0-9_.-]+"
        );
    }
    let got: Vec<(String, String)> = names
        .iter()
        .map(|&n| {
            let m = metrics.get(n).unwrap();
            assert!(
                m.get("value").and_then(Value::as_num).is_some(),
                "{what}: {n} has no value"
            );
            (
                n.to_string(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(
        got, want,
        "{what}: printed metrics differ from BENCHMARK.json"
    );
}

#[test]
fn clean_passes_report_no_failures_and_every_metric() {
    let expected = smoke_expected("clean.txt", false);
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in ["small", "serve"] {
        let (ok, result) = run(env!("CARGO_BIN_EXE_fsambench"), workload, false, &expected);
        assert!(ok, "{workload}: clean end-to-end pass exited non-zero");
        assert_eq!(num(&result, "failed"), 0.0, "{workload}");
        assert!(num(&result, "attempted") >= 1.0, "{workload}");
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_prints_exactly(&result, &end_to_end, workload);
    }
    let (ok, result) = run(
        env!("CARGO_BIN_EXE_fsambench-traced"),
        "small",
        true,
        &expected,
    );
    assert!(ok, "clean traced pass exited non-zero");
    assert_eq!(num(&result, "failed"), 0.0);
    assert_prints_exactly(&result, &per_layer, "traced small");
}

#[test]
fn a_corrupted_digest_fails_ops_and_exits_nonzero() {
    let expected = smoke_expected("corrupt.txt", true);
    let (ok, result) = run(env!("CARGO_BIN_EXE_fsambench"), "small", false, &expected);
    assert!(!ok, "a pass with a corrupted expected digest exited 0");
    assert!(num(&result, "failed") > 0.0);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
}
