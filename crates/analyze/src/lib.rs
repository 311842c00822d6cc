//! `fairrank_analyze` — zero-dependency static analysis for this
//! workspace's own invariants, run in CI as a hard gate and locally as
//! `fairrank analyze`.
//!
//! Nine PRs of growth accumulated rules that previously lived only in
//! reviewer memory: kernel crates must be byte-identically
//! deterministic (the router's job resubmission and the result cache
//! both replay work and compare bytes), the HTTP request path must
//! never panic, every queue must be bounded, every `unsafe` must be
//! audited, and every metric family must be documented. This crate
//! machine-checks all of them with a small Rust lexer
//! ([`lexer`]) — no syn, no regex crate, the same write-it-ourselves
//! discipline as the workspace's JSON parser and Prometheus validator.
//!
//! Run it over a workspace with [`run`]; intentional exceptions live
//! in a committed `analyze.toml` allowlist ([`allowlist`]) where every
//! entry carries a mandatory justification.
//!
//! ```
//! use fairrank_analyze::{lexer, lints};
//! let lexed = lexer::lex("fn f() { x.unwrap(); } // unwrap() here is just a comment");
//! let code = lexer::strip_test_code(&lexed.tokens);
//! let ctx = lints::FileContext {
//!     rel: "crates/engine/src/server.rs",
//!     crate_name: "fairrank_engine",
//!     is_crate_root: false,
//!     lexed: &lexed,
//!     code: &code,
//! };
//! let mut diags = Vec::new();
//! lints::panic_freedom(&ctx, &mut diags);
//! assert_eq!(diags.len(), 1); // the call fires, the comment does not
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod walker;

use diag::{Diagnostic, Report};
use lints::{FileContext, LintConfig};
use std::path::Path;

/// Kernel crates must not read wall clocks.
pub const DETERMINISM_CLOCK: &str = "DETERMINISM_CLOCK";
/// Kernel crates must not use ambient (thread-local) RNGs.
pub const DETERMINISM_RNG: &str = "DETERMINISM_RNG";
/// Kernel crates must not iterate hash-ordered collections.
pub const DETERMINISM_HASH_ORDER: &str = "DETERMINISM_HASH_ORDER";
/// Request paths must not contain panicking constructs.
pub const PANIC_PATH: &str = "PANIC_PATH";
/// Serving crates must not create unbounded channels.
pub const UNBOUNDED_CHANNEL: &str = "UNBOUNDED_CHANNEL";
/// Every `unsafe` needs a `// SAFETY:` comment.
pub const UNSAFE_NO_SAFETY: &str = "UNSAFE_NO_SAFETY";
/// Crate roots must declare `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE_MISSING: &str = "FORBID_UNSAFE_MISSING";
/// Registered metric families must appear in the docs.
pub const METRICS_UNDOCUMENTED: &str = "METRICS_UNDOCUMENTED";
/// Documented metric families must be registered.
pub const METRICS_UNREGISTERED: &str = "METRICS_UNREGISTERED";
/// Library `pub` items must be named by some other file.
pub const UNREACHED_PUB: &str = "UNREACHED_PUB";
/// The allowlist itself is malformed.
pub const ALLOWLIST_INVALID: &str = "ALLOWLIST_INVALID";
/// An allowlist entry matched no finding.
const ALLOWLIST_UNUSED: &str = "ALLOWLIST_UNUSED";

/// Run the full pass over the workspace at `root`.
///
/// `allowlist_path`: explicit allowlist location; when `None`,
/// `<root>/analyze.toml` is used if present (its absence means an
/// empty allowlist, which is not an error).
pub fn run(
    root: &Path,
    allowlist_path: Option<&Path>,
    config: &LintConfig,
) -> Result<Report, String> {
    let ws = walker::discover(root)?;
    let crate_names = ws.crate_names();
    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut registered = Vec::new();
    let mut pub_items = Vec::new();
    let mut names = Vec::new();
    let mut files_scanned = 0usize;

    for member in &ws.members {
        let kernel = config.kernel_crates.iter().any(|k| k == &member.name);
        let channels = config.channel_crates.iter().any(|c| c == &member.name);
        for rel in &member.sources {
            let abs = ws.abs(rel);
            let src = std::fs::read_to_string(&abs)
                .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
            files_scanned += 1;
            let lexed = lexer::lex(&src);
            let code = lexer::strip_test_code(&lexed.tokens);
            let is_crate_root = {
                let base = rel.rsplit('/').next().unwrap_or(rel);
                (base == "lib.rs" || base == "main.rs")
                    && rel
                        .strip_suffix(base)
                        .is_some_and(|dir| dir.ends_with("src/"))
            };
            let ctx = FileContext {
                rel,
                crate_name: &member.name,
                is_crate_root,
                lexed: &lexed,
                code: &code,
            };
            if kernel {
                lints::determinism(&ctx, &mut findings);
            }
            if config.is_panic_free(rel) {
                lints::panic_freedom(&ctx, &mut findings);
            }
            if channels {
                lints::bounded_channels(&ctx, &mut findings);
            }
            lints::unsafe_audit(&ctx, &mut findings);
            lints::forbid_unsafe(&ctx, &mut findings);
            if config.metrics_sources.iter().any(|m| m == rel) {
                lints::collect_registered_metrics(&ctx, &crate_names, &mut registered);
            }
            // `src/main.rs` and `src/bin/` are binary targets: their
            // `pub` is not library surface, and their imports come
            // from outside the library
            let in_lib = !rel.ends_with("src/main.rs") && !rel.contains("src/bin/");
            if in_lib {
                lints::collect_pub_items(&ctx, &mut pub_items);
            }
            let lib_crate = in_lib.then_some(member.name.as_str());
            names.push(lints::FileNames::new(rel, lib_crate, &lexed.tokens));
        }
    }

    // tests, benches, examples and the configured directories only
    // count as callers for UNREACHED_PUB
    let mut references: Vec<String> = ws
        .members
        .iter()
        .flat_map(|m| m.references.iter().cloned())
        .collect();
    for dir in &config.reference_dirs {
        references.extend(walker::rs_files(root, dir)?);
    }
    for rel in &references {
        let abs = ws.abs(rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        names.push(lints::FileNames::new(rel, None, &lexer::lex(&src).tokens));
    }
    lints::unreached_pub(&pub_items, &names, &mut findings);

    // a missing docs file reads as empty: every registered family then
    // correctly reports undocumented, and a workspace with no metric
    // sources (fixtures, other repos) has nothing to cross-check
    let mut docs = Vec::new();
    for rel in &config.metrics_docs {
        let abs = ws.abs(rel);
        let text = std::fs::read_to_string(&abs).unwrap_or_default();
        docs.push((rel.clone(), text));
    }
    lints::metrics_consistency(&registered, &docs, &crate_names, &mut findings);

    // allowlist: explicit path must exist; the default may be absent
    let default_path = root.join("analyze.toml");
    let (list, label) = match allowlist_path {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read allowlist {}: {e}", p.display()))?;
            (
                allowlist::Allowlist::parse(&text, &p.display().to_string()),
                p.display().to_string(),
            )
        }
        None => match std::fs::read_to_string(&default_path) {
            Ok(text) => (
                allowlist::Allowlist::parse(&text, "analyze.toml"),
                "analyze.toml".to_string(),
            ),
            Err(_) => (allowlist::Allowlist::default(), "analyze.toml".to_string()),
        },
    };

    let mut report = Report {
        files_scanned,
        ..Report::default()
    };
    let mut used = vec![false; list.entries.len()];
    for d in findings {
        match list.covers(&d) {
            Some(idx) => {
                used[idx] = true;
                report.allowlisted.push(d);
            }
            None => report.diagnostics.push(d),
        }
    }
    report.diagnostics.extend(list.problems);
    for (entry, used) in list.entries.iter().zip(used) {
        if !used {
            report.diagnostics.push(Diagnostic {
                file: label.clone(),
                line: entry.line,
                col: 1,
                lint: ALLOWLIST_UNUSED,
                message: format!(
                    "allowlist entry ({}, {}) matched no finding; delete it",
                    entry.file, entry.lint
                ),
            });
        }
    }
    report.diagnostics.sort_by_key(Diagnostic::sort_key);
    report.allowlisted.sort_by_key(Diagnostic::sort_key);
    Ok(report)
}
