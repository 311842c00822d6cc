//! Smoke-sized self-test of the benchmark: every workload runs for one
//! second, untraced and traced, against a freshly built `fairrank`, and
//! must answer correctly and print exactly the metrics `BENCHMARK.json`
//! names, each with its unit.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use fairrank_engine::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// Build the release `fairrank` binary into this test's temporary target
/// directory.
fn fairrank() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fairrank");
    let status = Command::new(env!("CARGO"))
        .current_dir(repo_root())
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "fairrank",
        ])
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building fairrank failed");
    target.join("release").join("fairrank")
}

/// `(name, unit)` of every metric of one kind in `BENCHMARK.json`.
fn declared(spec: &Json, kind: &str) -> Vec<(String, String)> {
    spec.get(kind)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let fairrank = fairrank();
    for workload in &workloads {
        for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(&root)
                .arg("--fairrank")
                .arg(&fairrank)
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace])
                .output()
                .expect("perfbench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the result line is JSON");
            assert!(
                matches!(result.get("correct"), Some(Json::Bool(true))),
                "{workload}: {last}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}: {last}"
            );
            let metrics = result.get("metrics").expect("metrics");
            let Json::Object(printed) = metrics else {
                panic!("metrics is not an object: {last}");
            };
            let expected = declared(&spec, kind);
            assert_eq!(printed.len(), expected.len(), "{workload}: {last}");
            for (name, unit) in expected {
                let metric = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert!(
                    metric.get("value").and_then(Json::as_f64).is_some(),
                    "{name}"
                );
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
            }
        }
    }
}
