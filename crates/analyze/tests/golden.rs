//! Golden fixture tests for the lint pass.
//!
//! Each `tests/fixtures/<name>.rs` is lexed and linted under the scope
//! its `//@` header directives request, and the diagnostics are
//! compared line-for-line against `tests/fixtures/<name>.expected`
//! (one `line:col LINT` per line; an empty file means the fixture must
//! be clean). The fixtures deliberately bury every lint token inside
//! strings, raw strings, comments and `#[cfg(test)]` modules to prove
//! the lexer, not a substring match, drives the pass.
//!
//! UNREACHED_PUB looks across files, so its fixtures are small inline
//! workspaces run through the full pass (`unreached_pub_names`).
//!
//! Regenerate the sidecars after an intentional lint change with
//! `ANALYZE_BLESS=1 cargo test -p fairrank_analyze --test golden`.
//!
//! Directives:
//! * `//@ kernel` — lint under the determinism scope;
//! * `//@ panic-free` — lint under the panic-freedom scope;
//! * `//@ channels` — lint under the bounded-channels scope;
//! * `//@ crate-root` — treat as `src/lib.rs` (forbid-unsafe applies).

use fairrank_analyze::lexer::{lex, strip_test_code};
use fairrank_analyze::lints::{self, FileContext, LintConfig};
use std::path::{Path, PathBuf};

const CRATE_NAME: &str = "fixture_crate";

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Run every applicable lint over one fixture and render the
/// diagnostics as `line:col LINT` lines.
fn lint_fixture(source: &str, rel: &str) -> Vec<String> {
    let mut config = LintConfig {
        kernel_crates: Vec::new(),
        panic_free: Vec::new(),
        channel_crates: Vec::new(),
        metrics_sources: Vec::new(),
        metrics_docs: Vec::new(),
        reference_dirs: Vec::new(),
    };
    let mut is_crate_root = false;
    for line in source.lines().take_while(|l| l.starts_with("//@")) {
        match line.trim_start_matches("//@").trim() {
            "kernel" => config.kernel_crates.push(CRATE_NAME.to_string()),
            "panic-free" => config.panic_free.push(rel.to_string()),
            "channels" => config.channel_crates.push(CRATE_NAME.to_string()),
            "crate-root" => is_crate_root = true,
            other => panic!("unknown fixture directive `//@ {other}` in {rel}"),
        }
    }

    let lexed = lex(source);
    let code = strip_test_code(&lexed.tokens);
    let ctx = FileContext {
        rel,
        crate_name: CRATE_NAME,
        is_crate_root,
        lexed: &lexed,
        code: &code,
    };

    let mut diags = Vec::new();
    if config.kernel_crates.iter().any(|c| c == CRATE_NAME) {
        lints::determinism(&ctx, &mut diags);
    }
    if config.is_panic_free(rel) {
        lints::panic_freedom(&ctx, &mut diags);
    }
    if config.channel_crates.iter().any(|c| c == CRATE_NAME) {
        lints::bounded_channels(&ctx, &mut diags);
    }
    lints::unsafe_audit(&ctx, &mut diags);
    lints::forbid_unsafe(&ctx, &mut diags);

    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    diags
        .iter()
        .map(|d| format!("{}:{} {}", d.line, d.col, d.lint))
        .collect()
}

#[test]
fn fixtures_match_expected_diagnostics() {
    let dir = fixtures_dir();
    let bless = std::env::var_os("ANALYZE_BLESS").is_some();
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no fixtures found in {}", dir.display());

    let mut failures = Vec::new();
    for path in names {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        let rel = format!("crates/fixture/src/{stem}.rs");
        let source = std::fs::read_to_string(&path).expect("reading fixture");
        let actual = lint_fixture(&source, &rel);
        let sidecar = path.with_extension("expected");
        if bless {
            let mut content = actual.join("\n");
            if !content.is_empty() {
                content.push('\n');
            }
            std::fs::write(&sidecar, content).expect("writing sidecar");
            continue;
        }
        let expected: Vec<String> = std::fs::read_to_string(&sidecar)
            .unwrap_or_else(|_| panic!("missing sidecar {}", sidecar.display()))
            .lines()
            .map(str::to_string)
            .collect();
        if actual != expected {
            failures.push(format!(
                "{stem}: expected {expected:#?}, got {actual:#?} (re-bless with ANALYZE_BLESS=1 \
                 if the change is intentional)"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The traps file and the fully-scoped clean root must stay silent —
/// stated as standalone tests too, so a regression names the guarantee
/// and not just a sidecar diff.
#[test]
fn trap_fixtures_stay_silent() {
    for name in ["determinism_traps", "clean_root"] {
        let path = fixtures_dir().join(format!("{name}.rs"));
        let source = std::fs::read_to_string(&path).expect("reading fixture");
        let diags = lint_fixture(&source, &format!("crates/fixture/src/{name}.rs"));
        assert!(diags.is_empty(), "{name} should be clean, got {diags:?}");
    }
}

/// UNREACHED_PUB is cross-file, so its fixture is a small workspace
/// written to a scratch directory and run through the full pass, the
/// walker included. Returns the flagged items as `pub <kind> <name>`.
fn unreached_pub_names(fixture: &str, files: &[(&str, &str)]) -> Vec<String> {
    let root =
        std::env::temp_dir().join(format!("fairrank_golden_{fixture}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, content: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"lib\", \"app\"]\n");
    write("lib/Cargo.toml", "[package]\nname = \"lib\"\n");
    write("app/Cargo.toml", "[package]\nname = \"app\"\n");
    for (rel, content) in files {
        write(rel, content);
    }
    let config = LintConfig {
        kernel_crates: Vec::new(),
        panic_free: Vec::new(),
        channel_crates: Vec::new(),
        metrics_sources: Vec::new(),
        metrics_docs: Vec::new(),
        reference_dirs: vec!["perfbench/src".to_string()],
    };
    let report = fairrank_analyze::run(&root, None, &config).expect("analyze run");
    let _ = std::fs::remove_dir_all(&root);
    let mut names: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == fairrank_analyze::UNREACHED_PUB)
        .map(|d| d.message.split('`').nth(1).unwrap_or("").to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn unreached_pub_flags_items_no_other_file_names() {
    let lib = r#"#![forbid(unsafe_code)]
mod inner;
pub use inner::reexported_only;

/// Only this file calls it, so it needs no `pub`.
pub fn own_file_only() -> u32 { 1 }
pub fn caller() -> u32 { own_file_only() }
pub fn from_integration_test() {}
pub fn from_perfbench() {}
pub fn in_comment_and_string() {}
pub(crate) fn restricted() {}
pub struct Reached;
pub struct ReachedThroughSignature;
pub fn returns_it() -> ReachedThroughSignature { ReachedThroughSignature }

#[cfg(test)]
mod tests {
    pub fn test_only() {}
}
"#;
    let inner = "pub fn reexported_only() {}\n";
    let app = r#"#![forbid(unsafe_code)]
// in_comment_and_string() is mentioned here, but only in a comment
fn main() {
    let _ = "in_comment_and_string";
    let _ = lib::caller();
    let _ = lib::Reached;
    let _ = lib::returns_it();
}
"#;
    let names = unreached_pub_names(
        "unreached",
        &[
            ("lib/src/lib.rs", lib),
            ("lib/src/inner.rs", inner),
            (
                "lib/tests/it.rs",
                "#[test]\nfn t() { lib::from_integration_test(); }\n",
            ),
            ("app/src/main.rs", app),
            (
                "perfbench/src/main.rs",
                "fn main() { lib::from_perfbench(); }\n",
            ),
        ],
    );
    assert_eq!(
        names,
        [
            "pub fn in_comment_and_string",
            "pub fn own_file_only",
            "pub fn reexported_only",
        ]
    );
}

#[test]
fn unreached_pub_counts_imports_from_other_crates_and_macro_paths() {
    let lib = r#"#![forbid(unsafe_code)]
pub fn imported_elsewhere() {}
pub fn expanded_by_macro() {}
#[macro_export]
macro_rules! call {
    () => { $crate::expanded_by_macro() };
}
"#;
    let app =
        "#![forbid(unsafe_code)]\nuse lib::imported_elsewhere as run;\nfn main() { run(); }\n";
    let names = unreached_pub_names(
        "reached",
        &[("lib/src/lib.rs", lib), ("app/src/main.rs", app)],
    );
    assert!(names.is_empty(), "{names:?}");
}
