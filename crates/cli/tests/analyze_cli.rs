//! Spawned-binary tests for `fairrank analyze` in the same `Workdir`
//! idiom as `workdir.rs`: build a throwaway violating workspace in a
//! scratch directory, run the real binary against it, and assert on
//! the exit code and the machine-readable output.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

static WORKDIR_COUNT: AtomicUsize = AtomicUsize::new(0);

struct Workdir {
    dir: PathBuf,
}

impl Workdir {
    fn new(name: &str) -> Workdir {
        let id = WORKDIR_COUNT.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "fairrank_analyze_{name}_{id}_{}",
            std::process::id()
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clearing stale workdir");
        }
        std::fs::create_dir_all(&dir).expect("creating workdir");
        Workdir { dir }
    }

    /// Write a file (creating parent directories) inside the workdir.
    fn create(&self, rel: &str, content: &str) {
        let path = self.dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent"))
            .expect("creating fixture directories");
        std::fs::write(path, content).expect("writing fixture");
    }

    fn analyze(&self, extra: &[&str]) -> Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fairrank"));
        cmd.current_dir(&self.dir)
            .arg("analyze")
            .args(["--root", "."])
            .args(extra);
        cmd.output().expect("spawning fairrank")
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A one-member workspace whose sole crate root is missing
/// `#![forbid(unsafe_code)]` and holds an undocumented `unsafe`. An
/// integration test calls its `pub fn`, so UNREACHED_PUB stays quiet.
fn violating_workspace(wrk: &Workdir) {
    wrk.create("Cargo.toml", "[workspace]\nmembers = [\"app\"]\n");
    wrk.create(
        "app/Cargo.toml",
        "[package]\nname = \"app\"\nversion = \"0.1.0\"\n",
    );
    wrk.create(
        "app/src/lib.rs",
        r#"extern "C" { fn getpid() -> i32; }
pub fn pid() -> i32 { unsafe { getpid() } }
"#,
    );
    wrk.create(
        "app/tests/pid.rs",
        "#[test]\nfn positive() { assert!(app::pid() > 0); }\n",
    );
}

#[test]
fn analyze_json_on_violating_workspace_exits_nonzero() {
    let wrk = Workdir::new("violations_json");
    violating_workspace(&wrk);

    let out = wrk.analyze(&["--format", "json"]);
    assert!(
        !out.status.success(),
        "analyze must fail on violations, got {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf-8");

    // parseable: one JSON object, diagnostics array with file/line/col/
    // lint/message fields on every element
    assert!(stdout.trim_start().starts_with('{'), "not JSON: {stdout}");
    assert!(stdout.contains("\"diagnostics\":["), "no array: {stdout}");
    assert!(stdout.contains("\"allowlisted\":0"), "bad count: {stdout}");
    assert!(
        stdout.contains("\"lint\":\"FORBID_UNSAFE_MISSING\"")
            && stdout.contains("\"lint\":\"UNSAFE_NO_SAFETY\""),
        "expected both lints in {stdout}"
    );
    assert!(
        stdout.contains("\"file\":\"app/src/lib.rs\""),
        "workspace-relative path missing in {stdout}"
    );
}

#[test]
fn analyze_text_lists_diagnostics_and_summary() {
    let wrk = Workdir::new("violations_text");
    violating_workspace(&wrk);

    let out = wrk.analyze(&[]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf-8");
    assert!(
        stdout.contains("app/src/lib.rs:2:23 · UNSAFE_NO_SAFETY"),
        "missing positioned diagnostic in {stdout}"
    );
    assert!(
        stdout.contains("analyze: 2 diagnostics (0 allowlisted)"),
        "missing summary in {stdout}"
    );
}

#[test]
fn analyze_allowlist_with_justification_makes_the_run_clean() {
    let wrk = Workdir::new("allowlisted");
    violating_workspace(&wrk);
    wrk.create(
        "analyze.toml",
        r#"[[allow]]
file = "app/src/lib.rs"
lint = "FORBID_UNSAFE_MISSING"
justification = "this crate wraps libc"

[[allow]]
file = "app/src/lib.rs"
lint = "UNSAFE_NO_SAFETY"
justification = "documented in the module header instead"
"#,
    );

    let out = wrk.analyze(&["--format", "json"]);
    assert!(
        out.status.success(),
        "allowlisted run must exit zero: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf-8");
    assert!(
        stdout.contains("\"diagnostics\":[]") && stdout.contains("\"allowlisted\":2"),
        "unexpected report: {stdout}"
    );
}

#[test]
fn analyze_rejects_unjustified_and_unused_allowlist_entries() {
    let wrk = Workdir::new("allowlist_rot");
    wrk.create("Cargo.toml", "[workspace]\nmembers = [\"app\"]\n");
    wrk.create(
        "app/Cargo.toml",
        "[package]\nname = \"app\"\nversion = \"0.1.0\"\n",
    );
    wrk.create("app/src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n");
    // one entry without a justification, one covering nothing
    wrk.create(
        "analyze.toml",
        r#"[[allow]]
file = "app/src/lib.rs"
lint = "UNSAFE_NO_SAFETY"

[[allow]]
file = "app/src/lib.rs"
lint = "FORBID_UNSAFE_MISSING"
justification = "stale: the attribute was added long ago"
"#,
    );

    let out = wrk.analyze(&[]);
    assert!(!out.status.success(), "allowlist rot must fail the run");
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf-8");
    assert!(
        stdout.contains("ALLOWLIST_INVALID"),
        "missing-justification entry not reported in {stdout}"
    );
    assert!(
        stdout.contains("ALLOWLIST_UNUSED"),
        "stale entry not reported in {stdout}"
    );
}
