//! Spawned-binary integration tests in the xsv `Workdir` idiom: each
//! test gets a scratch directory, writes CSV fixtures into it, runs the
//! real `fairrank` binary against them, and compares stdout.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

static WORKDIR_COUNT: AtomicUsize = AtomicUsize::new(0);

/// A scratch directory plus a handle on the compiled `fairrank` binary.
struct Workdir {
    dir: PathBuf,
}

impl Workdir {
    /// Fresh empty directory named after the test.
    fn new(name: &str) -> Workdir {
        let id = WORKDIR_COUNT.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "fairrank_workdir_{name}_{id}_{}",
            std::process::id()
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clearing stale workdir");
        }
        std::fs::create_dir_all(&dir).expect("creating workdir");
        Workdir { dir }
    }

    /// Write rows as a CSV file inside the workdir.
    fn create(&self, name: &str, rows: &[Vec<&str>]) {
        let content: String = rows.iter().map(|r| r.join(",") + "\n").collect();
        std::fs::write(self.path(name), content).expect("writing fixture");
    }

    /// Absolute path of a file in the workdir.
    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// A `fairrank` command with the given subcommand, rooted here.
    fn command(&self, subcommand: &str) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fairrank"));
        cmd.current_dir(&self.dir).arg(subcommand);
        cmd
    }

    /// Run and return stdout, panicking (with stderr) on failure.
    fn stdout(&self, cmd: &mut Command) -> String {
        let out = self.output(cmd);
        assert!(
            out.status.success(),
            "command failed with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("stdout is utf-8")
    }

    fn output(&self, cmd: &mut Command) -> Output {
        cmd.output().expect("spawning fairrank")
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn candidate_rows() -> Vec<Vec<&'static str>> {
    vec![
        vec!["id", "score", "group"],
        vec!["a", "0.95", "g1"],
        vec!["b", "0.90", "g1"],
        vec!["c", "0.85", "g1"],
        vec!["d", "0.80", "g1"],
        vec!["e", "0.60", "g2"],
        vec!["f", "0.55", "g2"],
        vec!["g", "0.50", "g2"],
        vec!["h", "0.45", "g2"],
    ]
}

#[test]
fn rank_weakly_fair_golden_stdout() {
    let wrk = Workdir::new("rank_weakly_fair");
    wrk.create("pool.csv", &candidate_rows());

    let mut cmd = wrk.command("rank");
    cmd.args([
        "--input",
        "pool.csv",
        "--algorithm",
        "weakly-fair",
        "--tolerance",
        "0.2",
    ]);

    // weakly-fair is deterministic: exact golden output
    let got = wrk.stdout(&mut cmd);
    assert_eq!(
        got,
        "\
rank,id,score,group
1,a,0.95,g1
2,b,0.9,g1
3,c,0.85,g1
4,e,0.6,g2
5,d,0.8,g1
6,f,0.55,g2
7,g,0.5,g2
8,h,0.45,g2
# ndcg_within_selection,0.997102
# ndcg_vs_pool,0.997102
# infeasible_index,0
# pfair_percentage,100.00
"
    );
}

#[test]
fn rank_mallows_is_reproducible_per_seed() {
    let wrk = Workdir::new("rank_mallows_seed");
    wrk.create("pool.csv", &candidate_rows());
    let run = |seed: &str| {
        let mut cmd = wrk.command("rank");
        cmd.args([
            "--input",
            "pool.csv",
            "--algorithm",
            "mallows",
            "--samples",
            "5",
            "--theta",
            "0.5",
            "--seed",
            seed,
        ]);
        wrk.stdout(&mut cmd)
    };
    let a = run("7");
    let b = run("7");
    let c = run("8");
    assert_eq!(a, b, "same --seed must reproduce byte-identical output");
    assert_ne!(a, c, "different --seed must change the sampled ranking");
}

#[test]
fn pipeline_golden_stdout_and_seed_flag() {
    let wrk = Workdir::new("pipeline_golden");
    wrk.create(
        "votes.csv",
        &[
            vec!["a", "b", "c", "d"],
            vec!["a", "b", "d", "c"],
            vec!["b", "a", "c", "d"],
        ],
    );
    wrk.create(
        "groups.csv",
        &[
            vec!["a", "x"],
            vec!["b", "x"],
            vec!["c", "y"],
            vec!["d", "y"],
        ],
    );

    // deterministic post stage → exact golden output
    let mut cmd = wrk.command("pipeline");
    cmd.args([
        "--input",
        "votes.csv",
        "--groups",
        "groups.csv",
        "--method",
        "borda",
        "--post",
        "gr-binary",
        "--tolerance",
        "0.2",
    ]);
    let got = wrk.stdout(&mut cmd);
    assert_eq!(
        got,
        "\
consensus,a,b,c,d
fair,a,b,c,d
# consensus_total_kt,2
# fair_total_kt,2
# consensus_infeasible,0
# fair_infeasible,0
"
    );

    // randomized post stage → reproducible per seed
    let run = |seed: &str| {
        let mut cmd = wrk.command("pipeline");
        cmd.args([
            "--input",
            "votes.csv",
            "--groups",
            "groups.csv",
            "--method",
            "borda",
            "--post",
            "mallows",
            "--theta",
            "0.3",
            "--samples",
            "1",
            "--seed",
            seed,
        ]);
        wrk.stdout(&mut cmd)
    };
    assert_eq!(run("5"), run("5"));
}

#[test]
fn sample_seed_flag_round_trips_through_aggregate() {
    let wrk = Workdir::new("sample_aggregate");
    let mut cmd = wrk.command("sample");
    cmd.args(["--n", "5", "--theta", "8.0", "--count", "6", "--seed", "21"]);
    let votes = wrk.stdout(&mut cmd);
    assert_eq!(votes.lines().count(), 6);
    std::fs::write(wrk.path("votes.csv"), &votes).unwrap();

    let mut cmd = wrk.command("aggregate");
    cmd.args(["--input", "votes.csv", "--method", "borda"]);
    let got = wrk.stdout(&mut cmd);
    assert!(
        got.starts_with("0,1,2,3,4\n"),
        "high θ must recover the identity:\n{got}"
    );

    // and the sample itself is seed-reproducible
    let mut cmd = wrk.command("sample");
    cmd.args(["--n", "5", "--theta", "8.0", "--count", "6", "--seed", "21"]);
    assert_eq!(wrk.stdout(&mut cmd), votes);
}

#[test]
fn output_flag_writes_file_instead_of_stdout() {
    let wrk = Workdir::new("output_flag");
    wrk.create("pool.csv", &candidate_rows());
    let mut cmd = wrk.command("metrics");
    cmd.args(["--input", "pool.csv", "--output", "report.csv"]);
    let stdout = wrk.stdout(&mut cmd);
    assert!(
        stdout.is_empty(),
        "stdout should be empty with --output: {stdout}"
    );
    let report = std::fs::read_to_string(wrk.path("report.csv")).unwrap();
    assert!(report.starts_with("metric,value\n"), "{report}");
    assert!(report.contains("candidates,8"), "{report}");
}

#[test]
fn closed_stdout_ends_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    // far more output than a pipe buffers, so the writer is still
    // writing when the reader goes away
    let wrk = Workdir::new("closed_stdout");
    let mut rows = vec![vec!["id", "score", "group"]];
    let ids: Vec<String> = (0..20_000).map(|i| format!("candidate-{i}")).collect();
    for (i, id) in ids.iter().enumerate() {
        rows.push(vec![id, ["0.9", "0.5", "0.1"][i % 3], ["g1", "g2"][i % 2]]);
    }
    wrk.create("pool.csv", &rows);
    let mut child = wrk
        .command("rank")
        .args(["--input", "pool.csv", "--algorithm", "weakly-fair"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning fairrank");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("reading the first line");
    // the reader (and with it the pipe's read end) is dropped here
    assert_eq!(first, "rank,id,score,group\n");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("reading stderr");
    let status = child.wait().expect("waiting for fairrank");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(status.code(), Some(101), "{stderr}");
    assert!(status.success(), "{status}: {stderr}");
}

#[test]
fn usage_errors_exit_2_and_algorithm_errors_exit_1() {
    let wrk = Workdir::new("exit_codes");
    wrk.create("pool.csv", &candidate_rows());

    let mut cmd = wrk.command("rank");
    cmd.args(["--input", "pool.csv", "--algorithm", "psychic"]);
    let out = wrk.output(&mut cmd);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown algorithm is a usage error"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage error"));

    let mut cmd = wrk.command("rank");
    cmd.args(["--input", "missing.csv", "--algorithm", "ilp"]);
    let out = wrk.output(&mut cmd);
    assert_eq!(
        out.status.code(),
        Some(1),
        "missing input is an input error"
    );

    // a registered name of the wrong kind, an unknown criterion and an
    // unknown pipeline stage are usage errors too
    wrk.create("votes.csv", &[vec!["a", "b", "c"], vec!["b", "a", "c"]]);
    wrk.create(
        "groups.csv",
        &[vec!["a", "x"], vec!["b", "x"], vec!["c", "y"]],
    );
    for (command, args) in [
        ("rank", &["--input", "pool.csv", "--algorithm", "borda"][..]),
        (
            "rank",
            &[
                "--input",
                "pool.csv",
                "--algorithm",
                "mallows",
                "--criterion",
                "luck",
            ],
        ),
        (
            "aggregate",
            &["--input", "votes.csv", "--method", "mallows"],
        ),
        (
            "pipeline",
            &[
                "--input",
                "votes.csv",
                "--groups",
                "groups.csv",
                "--post",
                "magic",
            ],
        ),
    ] {
        let mut cmd = wrk.command(command);
        cmd.args(args);
        let out = wrk.output(&mut cmd);
        assert_eq!(out.status.code(), Some(2), "{command} {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage error"));
    }

    // GrBinaryIPF handles exactly two groups: three is an algorithm error
    let mut rows = candidate_rows();
    rows[1][2] = "g3";
    wrk.create("three_groups.csv", &rows);
    let mut cmd = wrk.command("rank");
    cmd.args(["--input", "three_groups.csv", "--algorithm", "gr-binary"]);
    let out = wrk.output(&mut cmd);
    assert_eq!(out.status.code(), Some(1), "algorithm failure exits 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("algorithm error"));
}

#[test]
fn index_builds_reuses_forces_and_detects_stale() {
    let wrk = Workdir::new("index_lifecycle");
    wrk.create("pool.csv", &candidate_rows());

    // build: reports record count and sidecar path
    let mut cmd = wrk.command("index");
    cmd.args(["--input", "pool.csv"]);
    let got = wrk.stdout(&mut cmd);
    assert!(got.starts_with("indexed pool.csv: 9 records"), "{got}");
    assert!(wrk.path("pool.csv.frix").exists());

    // a fresh sidecar is reused, not rebuilt
    let mut cmd = wrk.command("index");
    cmd.args(["--input", "pool.csv"]);
    let got = wrk.stdout(&mut cmd);
    assert!(got.contains("is fresh (9 records)"), "{got}");
    assert!(got.contains("--force true"), "{got}");

    // --force true rebuilds even when fresh
    let mut cmd = wrk.command("index");
    cmd.args(["--input", "pool.csv", "--force", "true"]);
    let got = wrk.stdout(&mut cmd);
    assert!(got.starts_with("indexed pool.csv: 9 records"), "{got}");

    // growing the file invalidates the sidecar: reads fall back to the
    // sequential scan (with a warning) instead of trusting stale offsets
    let grown = std::fs::read_to_string(wrk.path("pool.csv")).unwrap() + "i,0.40,g2\n";
    std::fs::write(wrk.path("pool.csv"), grown).unwrap();
    let mut cmd = wrk.command("metrics");
    cmd.args(["--input", "pool.csv", "--jobs", "2"]);
    let out = wrk.output(&mut cmd);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("falling back to sequential scan"),
        "{stderr}"
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("candidates,9"), "{report}");

    // and `index` rebuilds rather than reusing the stale sidecar
    let mut cmd = wrk.command("index");
    cmd.args(["--input", "pool.csv"]);
    let got = wrk.stdout(&mut cmd);
    assert!(got.starts_with("indexed pool.csv: 10 records"), "{got}");
}

#[test]
fn indexed_parallel_rank_matches_unindexed_output() {
    let wrk = Workdir::new("index_rank_equality");
    wrk.create("pool.csv", &candidate_rows());
    let run = |jobs: &str| {
        let mut cmd = wrk.command("rank");
        cmd.args([
            "--input",
            "pool.csv",
            "--algorithm",
            "weakly-fair",
            "--tolerance",
            "0.2",
            "--jobs",
            jobs,
        ]);
        wrk.stdout(&mut cmd)
    };
    let unindexed = run("2");
    let mut cmd = wrk.command("index");
    cmd.args(["--input", "pool.csv"]);
    wrk.stdout(&mut cmd);
    for jobs in ["1", "2", "8"] {
        assert_eq!(
            run(jobs),
            unindexed,
            "indexed ingest at --jobs {jobs} must not change the ranking"
        );
    }
}

#[test]
fn serve_starts_and_answers_healthz() {
    use std::io::{BufRead, BufReader, Read, Write};

    let wrk = Workdir::new("serve_smoke");
    let mut cmd = wrk.command("serve");
    cmd.args(["--port", "0", "--workers", "4"]);
    cmd.stdout(std::process::Stdio::piped());
    cmd.stderr(std::process::Stdio::null());
    let mut child = cmd.spawn().expect("spawning fairrank serve");

    // the CLI announces the bound address on stdout before serving
    let stdout = child.stdout.take().expect("piped stdout");
    let mut first_line = String::new();
    BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("reading announce line");
    let addr = first_line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {first_line:?}"))
        .to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connecting to fairrank serve");
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    child.kill().expect("stopping the server");
    let _ = child.wait();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"status\":\"ok\""), "{response}");
}
