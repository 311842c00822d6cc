//! The lint pass itself: pattern matchers over the token stream.
//!
//! Each lint encodes one invariant this codebase actually depends on
//! (see `docs/ANALYSIS.md` for the full rationale):
//!
//! * [`determinism`] — kernel crates must be byte-identically
//!   deterministic: the router resubmits jobs after replica loss and
//!   the result cache keys on job digests, both of which assume a
//!   re-run reproduces the exact bytes. Wall clocks, ambient RNGs and
//!   hash-order iteration all break that.
//! * [`panic_freedom`] — the HTTP request path must degrade to the
//!   400/500 error taxonomy, never unwind: a panic tears down an I/O
//!   worker mid-connection.
//! * [`bounded_channels`] — every queue in the serving path is
//!   bounded; an unbounded `mpsc::channel()` is a hidden OOM under
//!   overload.
//! * [`unsafe_audit`] — every `unsafe` must carry a `// SAFETY:`
//!   comment on the preceding (or same) line.
//! * [`forbid_unsafe`] — crate roots must declare
//!   `#![forbid(unsafe_code)]`; crates that genuinely need `unsafe`
//!   carry a justified allowlist entry instead.
//! * [`metrics_consistency`] — every metric family registered in the
//!   engine/router must appear in `docs/HTTP_API.md` and vice versa;
//!   docs drift is a build failure, not a review nitpick.

use crate::diag::Diagnostic;
use crate::lexer::{Lexed, Token, TokenKind};
use crate::{
    DETERMINISM_CLOCK, DETERMINISM_HASH_ORDER, DETERMINISM_RNG, FORBID_UNSAFE_MISSING,
    METRICS_UNDOCUMENTED, METRICS_UNREGISTERED, PANIC_PATH, UNBOUNDED_CHANNEL, UNSAFE_NO_SAFETY,
};

/// Which lints apply where. The defaults
/// ([`LintConfig::workspace_default`]) encode this workspace's layout;
/// tests construct narrower configs over fixture files.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crate *names* whose non-test code must be deterministic.
    pub kernel_crates: Vec<String>,
    /// Workspace-relative files (exact) or directory prefixes (ending
    /// in `/`) whose non-test code must be panic-free.
    pub panic_free: Vec<String>,
    /// Crate names where `mpsc::channel()` is forbidden outside tests.
    pub channel_crates: Vec<String>,
    /// Files whose string literals register metric family names.
    pub metrics_sources: Vec<String>,
    /// Documentation files that must list every family (and name no
    /// unknown ones).
    pub metrics_docs: Vec<String>,
}

impl LintConfig {
    /// The scoping for this repository.
    pub fn workspace_default() -> Self {
        LintConfig {
            kernel_crates: [
                "ranking_core",
                "mallows_model",
                "fairness_metrics",
                "rank_aggregation",
                "fair_mallows",
                "fair_baselines",
            ]
            .map(str::to_string)
            .to_vec(),
            panic_free: [
                "crates/engine/src/lib.rs",
                "crates/engine/src/cache.rs",
                "crates/engine/src/registry.rs",
                "crates/engine/src/server.rs",
                "crates/engine/src/http.rs",
                "crates/engine/src/num.rs",
                "crates/engine/src/batch.rs",
                "crates/engine/src/pool.rs",
                "crates/router/src/",
            ]
            .map(str::to_string)
            .to_vec(),
            channel_crates: ["fairrank_engine", "fairrank_router"]
                .map(str::to_string)
                .to_vec(),
            metrics_sources: [
                "crates/engine/src/lib.rs",
                "crates/engine/src/stats.rs",
                "crates/router/src/metrics.rs",
            ]
            .map(str::to_string)
            .to_vec(),
            metrics_docs: ["docs/HTTP_API.md"].map(str::to_string).to_vec(),
        }
    }

    /// Whether `rel` falls under the panic-freedom scope.
    pub fn is_panic_free(&self, rel: &str) -> bool {
        self.panic_free
            .iter()
            .any(|p| rel == p || (p.ends_with('/') && rel.starts_with(p.as_str())))
    }
}

/// One lexed source file plus its workspace coordinates.
pub struct FileContext<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel: &'a str,
    /// Owning crate's package name.
    pub crate_name: &'a str,
    /// Whether this file is a crate root (`src/lib.rs` / `src/main.rs`).
    pub is_crate_root: bool,
    /// The full lex (tokens + comments).
    pub lexed: &'a Lexed,
    /// Token stream with test-only items removed.
    pub code: &'a [Token],
}

fn diag(ctx: &FileContext, t: &Token, lint: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: ctx.rel.to_string(),
        line: t.line,
        col: t.col,
        lint,
        message,
    }
}

fn is_punct(t: Option<&Token>, ch: &str) -> bool {
    matches!(t, Some(t) if t.kind == TokenKind::Punct && t.text == ch)
}

fn is_ident(t: Option<&Token>, name: &str) -> bool {
    matches!(t, Some(t) if t.kind == TokenKind::Ident && t.text == name)
}

/// `a :: b` ending at index `i` (the `b` token).
fn path_prefix_is(code: &[Token], i: usize, name: &str) -> bool {
    i >= 3
        && is_punct(code.get(i - 1), ":")
        && is_punct(code.get(i - 2), ":")
        && is_ident(code.get(i - 3), name)
}

/// Determinism: no wall clocks, no ambient RNG, no hash-order
/// iteration in the kernel crates.
pub fn determinism(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "now"
                if path_prefix_is(ctx.code, i, "SystemTime")
                    || path_prefix_is(ctx.code, i, "Instant") =>
            {
                let which = &ctx.code[i - 3].text;
                out.push(diag(
                    ctx,
                    &ctx.code[i - 3],
                    DETERMINISM_CLOCK,
                    format!(
                        "`{which}::now()` in kernel crate `{}`: re-runs must be byte-identical \
                         (router resubmission and the result cache depend on it); thread timing \
                         through the caller instead",
                        ctx.crate_name
                    ),
                ));
            }
            "thread_rng" => out.push(diag(
                ctx,
                t,
                DETERMINISM_RNG,
                format!(
                    "`thread_rng()` in kernel crate `{}`: all randomness must come from the \
                     per-job seeded StdRng so identical jobs reproduce identical bytes",
                    ctx.crate_name
                ),
            )),
            "HashMap" | "HashSet" => out.push(diag(
                ctx,
                t,
                DETERMINISM_HASH_ORDER,
                format!(
                    "`{}` in kernel crate `{}`: iteration order is randomized per process and \
                     leaks into output; use Vec/BTreeMap or sort before iterating",
                    t.text, ctx.crate_name
                ),
            )),
            _ => {}
        }
    }
}

/// Panic-freedom: `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`
/// are forbidden on the request path.
pub fn panic_freedom(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" => out.push(diag(
                ctx,
                t,
                PANIC_PATH,
                format!(
                    "`{}` on a request path: map the failure into the 400/500 error taxonomy \
                     (or recover, e.g. poisoned-lock recovery) instead of unwinding",
                    t.text
                ),
            )),
            "panic" | "unreachable" | "todo" if is_punct(ctx.code.get(i + 1), "!") => {
                out.push(diag(
                    ctx,
                    t,
                    PANIC_PATH,
                    format!(
                        "`{}!` on a request path: a panic tears down an I/O worker \
                         mid-connection; return an error response instead",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// Bounded channels: `mpsc::channel()` (unbounded) is forbidden in the
/// serving crates; use `mpsc::sync_channel(n)`.
pub fn bounded_channels(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let mut use_depth: Option<bool> = None; // Some(saw_mpsc) while inside a `use …;`
    for (i, t) in ctx.code.iter().enumerate() {
        if t.kind == TokenKind::Ident && t.text == "use" {
            use_depth = Some(false);
            continue;
        }
        if is_punct(Some(t), ";") {
            use_depth = None;
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "mpsc" {
            if let Some(saw) = use_depth.as_mut() {
                *saw = true;
            }
        }
        if t.text == "channel" {
            let direct = path_prefix_is(ctx.code, i, "mpsc");
            let imported = use_depth == Some(true);
            if direct || imported {
                out.push(diag(
                    ctx,
                    t,
                    UNBOUNDED_CHANNEL,
                    "unbounded `mpsc::channel()`: every queue in the serving path must be \
                     bounded (hidden OOM under overload); use `mpsc::sync_channel(n)`"
                        .to_string(),
                ));
            }
        }
    }
}

/// Unsafe audit: each `unsafe` keyword needs a `// SAFETY:` comment on
/// the preceding (or same) line.
pub fn unsafe_audit(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for t in ctx.code {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        // accept a `SAFETY:` anywhere in the contiguous comment block
        // that ends on the line above the `unsafe` (the justification
        // usually wraps over several `//` lines), or on the same line
        let mut boundary = t.line;
        let mut documented = false;
        for c in ctx.lexed.comments.iter().rev() {
            if c.line == t.line || c.end_line + 1 == boundary {
                if c.text.contains("SAFETY:") {
                    documented = true;
                    break;
                }
                boundary = c.line;
            }
        }
        if !documented {
            out.push(diag(
                ctx,
                t,
                UNSAFE_NO_SAFETY,
                "`unsafe` without a `// SAFETY:` comment on the preceding line: state the \
                 invariant that makes this sound"
                    .to_string(),
            ));
        }
    }
}

/// Crate roots must declare `#![forbid(unsafe_code)]`.
pub fn forbid_unsafe(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !ctx.is_crate_root {
        return;
    }
    let toks = &ctx.lexed.tokens;
    let has = toks.windows(7).any(|w| {
        is_punct(w.first(), "#")
            && is_punct(w.get(1), "!")
            && is_punct(w.get(2), "[")
            && is_ident(w.get(3), "forbid")
            && is_punct(w.get(4), "(")
            && is_ident(w.get(5), "unsafe_code")
            && is_punct(w.get(6), ")")
    });
    if !has {
        out.push(Diagnostic {
            file: ctx.rel.to_string(),
            line: 1,
            col: 1,
            lint: FORBID_UNSAFE_MISSING,
            message: format!(
                "crate root of `{}` lacks `#![forbid(unsafe_code)]`; add it (or allowlist \
                 this file with a justification if the crate genuinely needs unsafe)",
                ctx.crate_name
            ),
        });
    }
}

/// A metric family name: `fairrank_*` / `process_*`, lowercase, no
/// trailing underscore (trailing underscores mark prose prefixes like
/// `fairrank_router_*`).
fn is_metric_name(word: &str, crate_names: &[String]) -> bool {
    (word.starts_with("fairrank_") || word.starts_with("process_"))
        && !word.ends_with('_')
        && word
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && !crate_names.iter().any(|n| n == word)
}

/// A registered family found in source.
pub struct RegisteredMetric {
    /// The family name.
    pub name: String,
    /// Where it was registered.
    pub file: String,
    /// Registration position.
    pub line: u32,
    /// Registration position.
    pub col: u32,
}

/// Collect metric family names from one registration source file's
/// non-test string literals.
pub fn collect_registered_metrics(
    ctx: &FileContext,
    crate_names: &[String],
    out: &mut Vec<RegisteredMetric>,
) {
    for t in ctx.code {
        if !matches!(t.kind, TokenKind::Str | TokenKind::RawStr) {
            continue;
        }
        if is_metric_name(&t.text, crate_names) {
            out.push(RegisteredMetric {
                name: t.text.clone(),
                file: ctx.rel.to_string(),
                line: t.line,
                col: t.col,
            });
        }
    }
}

/// Metrics ↔ docs consistency over already-collected registrations and
/// the documentation text.
///
/// `docs` is `(rel_path, contents)` per configured doc file. The
/// `_bucket`/`_sum`/`_count` suffixes of a registered histogram family
/// count as documented mentions of that family.
pub fn metrics_consistency(
    registered: &[RegisteredMetric],
    docs: &[(String, String)],
    crate_names: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let mut doc_words: Vec<(String, String, u32, u32)> = Vec::new(); // word, file, line, col
    for (rel, text) in docs {
        for (line_idx, line) in text.lines().enumerate() {
            let mut col = 0u32;
            let mut word = String::new();
            let mut word_col = 0u32;
            let flush = |word: &mut String,
                         word_col: u32,
                         doc_words: &mut Vec<(String, String, u32, u32)>| {
                if !word.is_empty() {
                    doc_words.push((
                        std::mem::take(word),
                        rel.clone(),
                        (line_idx + 1) as u32,
                        word_col,
                    ));
                }
            };
            for c in line.chars() {
                col += 1;
                if c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' {
                    if word.is_empty() {
                        word_col = col;
                    }
                    word.push(c);
                } else {
                    flush(&mut word, word_col, &mut doc_words);
                }
            }
            flush(&mut word, word_col, &mut doc_words);
        }
    }

    // `X_bucket`/`X_sum`/`X_count` count as mentions of a registered
    // histogram family `X`
    fn strip_series_suffix<'w>(word: &'w str, registered: &[RegisteredMetric]) -> &'w str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = word.strip_suffix(suffix) {
                if registered.iter().any(|r| r.name == base) {
                    return &word[..base.len()];
                }
            }
        }
        word
    }

    // direction 1: every registered family must be documented
    for r in registered {
        let mentioned = doc_words
            .iter()
            .any(|(w, _, _, _)| w == &r.name || strip_series_suffix(w, registered) == r.name);
        if !mentioned {
            out.push(Diagnostic {
                file: r.file.clone(),
                line: r.line,
                col: r.col,
                lint: METRICS_UNDOCUMENTED,
                message: format!(
                    "metric family `{}` is registered here but never mentioned in the docs \
                     ({}); document it or remove it",
                    r.name,
                    if docs.is_empty() {
                        "none configured".to_string()
                    } else {
                        docs.iter()
                            .map(|(rel, _)| rel.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    }
                ),
            });
        }
    }

    // direction 2: every metric-shaped word in the docs must be a
    // registered family (or a derived series of one)
    for (word, file, line, col) in &doc_words {
        if !is_metric_name(word, crate_names) {
            continue;
        }
        let known = registered.iter().any(|r| &r.name == word)
            || registered
                .iter()
                .any(|r| strip_series_suffix(word, registered) == r.name);
        if !known {
            out.push(Diagnostic {
                file: file.clone(),
                line: *line,
                col: *col,
                lint: METRICS_UNREGISTERED,
                message: format!(
                    "docs mention metric family `{word}` but no registration site defines it; \
                     fix the docs or register the family"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};

    fn run_one(
        src: &str,
        crate_name: &str,
        rel: &str,
        f: impl Fn(&FileContext, &mut Vec<Diagnostic>),
    ) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let code = strip_test_code(&lexed.tokens);
        let ctx = FileContext {
            rel,
            crate_name,
            is_crate_root: rel.ends_with("lib.rs"),
            lexed: &lexed,
            code: &code,
        };
        let mut out = Vec::new();
        f(&ctx, &mut out);
        out
    }

    #[test]
    fn determinism_catches_clock_rng_and_hash_order() {
        let src = "
            fn f() {
                let t = Instant::now();
                let s = std::time::SystemTime::now();
                let r = rand::thread_rng();
                let m: HashMap<u32, u32> = HashMap::new();
            }
        ";
        let diags = run_one(src, "fair_mallows", "crates/core/src/x.rs", determinism);
        let lints: Vec<_> = diags.iter().map(|d| d.lint).collect();
        assert_eq!(
            lints,
            vec![
                DETERMINISM_CLOCK,
                DETERMINISM_CLOCK,
                DETERMINISM_RNG,
                DETERMINISM_HASH_ORDER,
                DETERMINISM_HASH_ORDER,
            ]
        );
    }

    #[test]
    fn panic_lint_fires_on_macros_only_with_bang() {
        let src = "
            fn f() -> u32 {
                let v = compute().unwrap();
                let w = other().expect(\"context\");
                if bad { panic!(\"no\"); }
                match x { _ => unreachable!() }
            }
            fn ok() { std::panic::catch_unwind(g); } // `panic` as a path is fine
        ";
        let diags = run_one(
            src,
            "fairrank_engine",
            "crates/engine/src/server.rs",
            panic_freedom,
        );
        assert_eq!(diags.len(), 4, "{diags:?}");
    }

    #[test]
    fn channel_lint_catches_direct_and_imported_forms() {
        let src = "
            use std::sync::mpsc::{channel, Sender};
            fn f() {
                let (a, b) = mpsc::channel::<u32>();
                let (c, d) = mpsc::sync_channel::<u32>(8); // fine
            }
        ";
        let diags = run_one(
            src,
            "fairrank_engine",
            "crates/engine/src/x.rs",
            bounded_channels,
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
    }

    #[test]
    fn unsafe_audit_requires_safety_comment() {
        let src = "
            fn f() {
                // SAFETY: fd is owned and open for the process lifetime
                unsafe { write(fd, &b, 1); }
                unsafe { read(fd, &mut b, 1); }
                // SAFETY: the justification may wrap over several
                // comment lines; the block right above still counts
                unsafe { close(fd); }
            }
        ";
        let diags = run_one(
            src,
            "fairrank_cli",
            "crates/cli/src/signals.rs",
            unsafe_audit,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn forbid_unsafe_checks_crate_roots_only() {
        let with = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        let without = "pub fn f() {}\n";
        assert!(run_one(with, "x", "crates/x/src/lib.rs", forbid_unsafe).is_empty());
        assert_eq!(
            run_one(without, "x", "crates/x/src/lib.rs", forbid_unsafe).len(),
            1
        );
        assert!(run_one(without, "x", "crates/x/src/other.rs", forbid_unsafe).is_empty());
    }

    #[test]
    fn metrics_consistency_both_directions() {
        let src = r#"
            fn families() {
                register("fairrank_cache_hits_total");
                register("fairrank_request_latency_us");
            }
        "#;
        let lexed = lex(src);
        let code = strip_test_code(&lexed.tokens);
        let ctx = FileContext {
            rel: "crates/engine/src/lib.rs",
            crate_name: "fairrank_engine",
            is_crate_root: true,
            lexed: &lexed,
            code: &code,
        };
        let crates = vec!["fairrank_engine".to_string()];
        let mut registered = Vec::new();
        collect_registered_metrics(&ctx, &crates, &mut registered);
        assert_eq!(registered.len(), 2);

        // docs mention one family (via a derived series), one unknown
        // family, one crate name (ignored) and a prose prefix (ignored)
        let docs = vec![(
            "docs/HTTP_API.md".to_string(),
            "see `fairrank_request_latency_us_bucket`, `fairrank_ghost_total`,\n\
             the `fairrank_engine` crate and the `fairrank_router_*` families\n"
                .to_string(),
        )];
        let mut out = Vec::new();
        metrics_consistency(&registered, &docs, &crates, &mut out);
        let lints: Vec<_> = out.iter().map(|d| (d.lint, d.message.clone())).collect();
        assert_eq!(out.len(), 2, "{lints:?}");
        assert!(out
            .iter()
            .any(|d| d.lint == METRICS_UNDOCUMENTED
                && d.message.contains("fairrank_cache_hits_total")));
        assert!(out
            .iter()
            .any(|d| d.lint == METRICS_UNREGISTERED && d.message.contains("fairrank_ghost_total")));
    }
}
