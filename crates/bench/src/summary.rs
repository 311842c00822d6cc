//! Durable perf trajectory: dated bench records appended to committed
//! `BENCH_<name>.json` files at the workspace root.
//!
//! Each engine-facing bench ends by calling [`record`] with its
//! headline numbers. When the run is invoked with
//! `FAIRRANK_BENCH_RECORD=1` (a release-mode run on a quiet machine —
//! not CI, whose shared runners would poison the trajectory), the
//! record is appended to the bench's trajectory file and the file is
//! committed with the PR, so `git log -p BENCH_*.json` replays how the
//! numbers moved across the project's history.
//!
//! A trajectory file is a JSON array of records:
//!
//! ```json
//! [
//!   {"date":"2026-08-08","bench":"http_throughput",
//!    "metrics":{"req_per_s":52000,"speedup":6.1}}
//! ]
//! ```
//!
//! Records written by [`record`] also name their host, so numbers
//! from different machines and commits are not compared blindly:
//! `"host":{"cpus":2,"commit":"0fb3846-dirty"}` (the CPU count the
//! process sees and `git describe --always --dirty` of the checkout).
//!
//! [`validate_trajectory`] checks that shape strictly (it parses with
//! the engine's own zero-dependency JSON parser) and runs over every
//! committed file in `crates/bench/tests/bench_schema.rs`, which CI
//! executes as part of the ordinary test suite.

use fairrank_engine::json::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// The benches that maintain a committed trajectory file.
pub const TRACKED_BENCHES: [&str; 6] = [
    "http_throughput",
    "engine_throughput",
    "sampler_tables",
    "batch_ingest",
    "metrics_render",
    "criterion_kernels",
];

/// Metric keys every **new** record of `bench` must carry. Appends
/// missing one are refused, and `crates/bench/tests/bench_schema.rs`
/// checks the committed files' latest records, so a bench cannot
/// silently stop reporting a headline number (historical records keep
/// whatever keys they were written with).
pub fn required_metrics(bench: &str) -> &'static [&'static str] {
    match bench {
        "batch_ingest" => &[
            "table_speedup",
            "table_peak_ratio",
            "scan_peak_ratio",
            "index_build_ms",
            "parallel_speedup_4t",
        ],
        "criterion_kernels" => &["rank_n1e4_ms", "abandon_rate", "infeasible_speedup"],
        _ => &[],
    }
}

/// Metric keys of the trajectory's latest (last) record, or an error
/// when the document does not parse as a record array.
pub fn latest_metric_keys(text: &str) -> Result<Vec<String>, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let records = doc.as_array().ok_or("trajectory must be a JSON array")?;
    let last = records.last().ok_or("trajectory holds no records")?;
    let Some(Json::Object(metrics)) = last.get("metrics") else {
        return Err("latest record has no `metrics` object".to_string());
    };
    Ok(metrics.iter().map(|(key, _)| key.clone()).collect())
}

/// The workspace root (this crate lives at `crates/bench`).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The committed trajectory file for `bench`.
pub fn trajectory_path(bench: &str) -> PathBuf {
    workspace_root().join(format!("BENCH_{bench}.json"))
}

/// Append one dated record for `bench` to its trajectory file — but
/// only when `FAIRRANK_BENCH_RECORD=1`, so ordinary bench runs (and
/// CI smoke runs) never touch the committed files. Failures are
/// reported on stderr, never panicked: a read-only checkout must not
/// break a bench run.
pub fn record(bench: &str, metrics: &[(&str, f64)]) {
    if !std::env::var("FAIRRANK_BENCH_RECORD").is_ok_and(|v| v == "1") {
        return;
    }
    let path = trajectory_path(bench);
    match append_to_file(&path, bench, &today_utc(), Some(&Host::detect()), metrics) {
        Ok(()) => eprintln!("bench: recorded {bench} trajectory in {}", path.display()),
        Err(e) => eprintln!("bench: cannot record {bench} trajectory: {e}"),
    }
}

/// The machine and checkout a record was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// CPUs available to the process.
    pub cpus: usize,
    /// `git describe --always --dirty` of the workspace (letters,
    /// digits and `-` only), or `unknown` without git.
    pub commit: String,
}

impl Host {
    /// This process's CPU count and the workspace's commit.
    pub fn detect() -> Host {
        let commit = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .current_dir(workspace_root())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| {
                String::from_utf8_lossy(&out.stdout)
                    .chars()
                    .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect::<String>()
            })
            .filter(|commit| !commit.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpus: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            commit,
        }
    }
}

/// Append a `{date, bench, host, metrics}` record (`host` omitted when
/// `None`) to the JSON array in `path`, creating the file when
/// missing. The append is textual (the trailing `]` is replaced) so
/// existing records are preserved byte-for-byte and diffs stay
/// one-record-sized.
pub fn append_to_file(
    path: &Path,
    bench: &str,
    date: &str,
    host: Option<&Host>,
    metrics: &[(&str, f64)],
) -> Result<(), String> {
    for required in required_metrics(bench) {
        if !metrics.iter().any(|(key, _)| key == required) {
            return Err(format!(
                "record for `{bench}` is missing required metric `{required}`"
            ));
        }
    }
    let mut record = String::new();
    write_record(&mut record, bench, date, host, metrics);
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let trimmed = existing.trim_end();
    let content = if trimmed.is_empty() {
        format!("[\n  {record}\n]\n")
    } else {
        let body = trimmed
            .strip_suffix(']')
            .ok_or_else(|| format!("{} is not a JSON array", path.display()))?
            .trim_end();
        if body.ends_with('[') {
            format!("{body}\n  {record}\n]\n")
        } else {
            format!("{body},\n  {record}\n]\n")
        }
    };
    validate_trajectory(bench, &content)
        .map_err(|e| format!("refusing to write invalid trajectory: {e}"))?;
    std::fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn write_record(
    out: &mut String,
    bench: &str,
    date: &str,
    host: Option<&Host>,
    metrics: &[(&str, f64)],
) {
    let _ = write!(out, "{{\"date\":\"{date}\",\"bench\":\"{bench}\",");
    if let Some(Host { cpus, commit }) = host {
        let _ = write!(out, "\"host\":{{\"cpus\":{cpus},\"commit\":\"{commit}\"}},");
    }
    out.push_str("\"metrics\":{");
    for (i, (key, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if value.is_finite() {
            let _ = write!(out, "\"{key}\":{value}");
        } else {
            // NaN/inf are not JSON; record a null-equivalent sentinel
            let _ = write!(out, "\"{key}\":0");
        }
    }
    out.push_str("}}");
}

/// Strictly validate a trajectory document for `bench`: a JSON array
/// of records, each `{date: "YYYY-MM-DD", bench: <name>, metrics:
/// {non-empty, all finite numbers}}` with an optional `host: {cpus:
/// number, commit: string}`. Returns the record count.
pub fn validate_trajectory(bench: &str, text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let records = doc.as_array().ok_or("trajectory must be a JSON array")?;
    for (index, record) in records.iter().enumerate() {
        let context = |message: String| format!("record {index}: {message}");
        let date = record
            .get("date")
            .and_then(Json::as_str)
            .ok_or_else(|| context("`date` (string) is required".to_string()))?;
        if !is_civil_date(date) {
            return Err(context(format!("`date` `{date}` is not YYYY-MM-DD")));
        }
        let name = record
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| context("`bench` (string) is required".to_string()))?;
        if name != bench {
            return Err(context(format!("`bench` is `{name}`, expected `{bench}`")));
        }
        if let Some(host) = record.get("host") {
            let cpus = host.get("cpus").and_then(Json::as_f64);
            let commit = host.get("commit").and_then(Json::as_str);
            if cpus.is_none() || commit.is_none() {
                return Err(context(
                    "`host` needs `cpus` (number) and `commit` (string)".to_string(),
                ));
            }
        }
        let Some(Json::Object(metrics)) = record.get("metrics") else {
            return Err(context("`metrics` (object) is required".to_string()));
        };
        if metrics.is_empty() {
            return Err(context("`metrics` must not be empty".to_string()));
        }
        for (key, value) in metrics {
            let number = value
                .as_f64()
                .ok_or_else(|| context(format!("metric `{key}` must be a number")))?;
            if !number.is_finite() {
                return Err(context(format!("metric `{key}` must be finite")));
            }
        }
    }
    Ok(records.len())
}

fn is_civil_date(s: &str) -> bool {
    let bytes = s.as_bytes();
    bytes.len() == 10
        && bytes[4] == b'-'
        && bytes[7] == b'-'
        && [0, 1, 2, 3, 5, 6, 8, 9]
            .iter()
            .all(|&i| bytes[i].is_ascii_digit())
        && &s[5..7] >= "01"
        && &s[5..7] <= "12"
        && &s[8..10] >= "01"
        && &s[8..10] <= "31"
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock alone (no
/// chrono): days since the epoch, converted with the standard civil
/// calendar algorithm.
pub fn today_utc() -> String {
    let days = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| (d.as_secs() / 86_400) as i64);
    let (year, month, day) = civil_from_days(days);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Days-since-epoch → (year, month, day), Gregorian. The era-based
/// algorithm from Howard Hinnant's date library notes.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_673), (2026, 8, 8));
    }

    #[test]
    fn today_is_a_valid_civil_date() {
        assert!(is_civil_date(&today_utc()));
    }

    #[test]
    fn append_creates_then_extends_the_array() {
        let path = std::env::temp_dir().join("fairrank_bench_summary_append_test.json");
        let _ = std::fs::remove_file(&path);
        append_to_file(
            &path,
            "metrics_render",
            "2026-08-08",
            None,
            &[("renders_per_s", 100.0)],
        )
        .unwrap();
        let host = Host {
            cpus: 2,
            commit: "0fb3846-dirty".to_string(),
        };
        append_to_file(
            &path,
            "metrics_render",
            "2026-08-09",
            Some(&host),
            &[("renders_per_s", 125.5), ("bytes", 4096.0)],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            validate_trajectory("metrics_render", &text),
            Ok(2),
            "{text}"
        );
        assert!(text.contains("\"renders_per_s\":125.5"), "{text}");
        assert!(
            text.contains("\"host\":{\"cpus\":2,\"commit\":\"0fb3846-dirty\"}"),
            "{text}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validation_rejects_malformed_records() {
        assert!(validate_trajectory("x", "{}").is_err());
        assert!(validate_trajectory("x", "[{\"bench\":\"x\"}]").is_err());
        let wrong_bench = "[{\"date\":\"2026-08-08\",\"bench\":\"y\",\"metrics\":{\"a\":1}}]";
        assert!(validate_trajectory("x", wrong_bench).is_err());
        let bad_date = "[{\"date\":\"08/08/2026\",\"bench\":\"x\",\"metrics\":{\"a\":1}}]";
        assert!(validate_trajectory("x", bad_date).is_err());
        let empty_metrics = "[{\"date\":\"2026-08-08\",\"bench\":\"x\",\"metrics\":{}}]";
        assert!(validate_trajectory("x", empty_metrics).is_err());
        let good = "[{\"date\":\"2026-08-08\",\"bench\":\"x\",\"metrics\":{\"a\":1}}]";
        assert_eq!(validate_trajectory("x", good), Ok(1));
        let bad_host =
            "[{\"date\":\"2026-08-08\",\"bench\":\"x\",\"host\":{\"cpus\":2},\"metrics\":{\"a\":1}}]";
        assert!(validate_trajectory("x", bad_host).is_err());
    }

    #[test]
    fn record_without_env_flag_is_a_no_op() {
        // the env var is absent in tests: record() must not create the
        // committed file's path variant for a made-up bench name
        record("no_such_bench_name", &[("a", 1.0)]);
        assert!(!trajectory_path("no_such_bench_name").exists());
    }
}
