//! Workspace discovery: members from the root `Cargo.toml`, package
//! names from each member manifest, the `.rs` files under each
//! member's `src/` tree, and the reference-only `.rs` files under its
//! `tests/`, `benches/` and `examples/` trees.
//!
//! Only a tiny TOML subset is parsed — quoted strings inside the
//! `members = [ … ]` array and `name = "…"` under `[package]` — the
//! same keep-it-boring discipline as the workspace's own JSON parser:
//! parse exactly what the repo's manifests contain, fail loudly on
//! anything else.

use std::path::{Path, PathBuf};

/// One workspace member crate.
#[derive(Debug, Clone)]
pub struct Member {
    /// Package name from the member's `Cargo.toml` (`fairrank_engine`).
    pub name: String,
    /// Member directory, relative to the workspace root
    /// (`crates/engine`); `.` for the root package.
    pub dir: String,
    /// Every `.rs` file under `src/`, workspace-relative with `/`
    /// separators, sorted.
    pub sources: Vec<String>,
    /// Every `.rs` file under `tests/`, `benches/` and `examples/`
    /// (fixture trees excluded), in the same form. They are never
    /// linted; they only count as references for `UNREACHED_PUB`.
    pub references: Vec<String>,
}

/// The discovered workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Every member with a `src/` tree, in manifest order.
    pub members: Vec<Member>,
}

impl Workspace {
    /// All member package names (used to keep crate names out of the
    /// metrics-name namespace).
    pub fn crate_names(&self) -> Vec<String> {
        self.members.iter().map(|m| m.name.clone()).collect()
    }

    /// Absolute path of a workspace-relative file.
    pub fn abs(&self, rel: &str) -> PathBuf {
        self.root.join(rel)
    }
}

/// Discover the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`).
pub fn discover(root: &Path) -> Result<Workspace, String> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let mut dirs = parse_members(&manifest)?;
    // the root manifest may also define a package (this workspace's
    // umbrella crate does)
    if manifest.lines().any(|l| l.trim() == "[package]") {
        dirs.insert(0, ".".to_string());
    }
    let mut members = Vec::new();
    for dir in dirs {
        let member_root = root.join(&dir);
        let member_manifest = member_root.join("Cargo.toml");
        let text = std::fs::read_to_string(&member_manifest)
            .map_err(|e| format!("cannot read {}: {e}", member_manifest.display()))?;
        let name = parse_package_name(&text)
            .ok_or_else(|| format!("{}: no [package] name", member_manifest.display()))?;
        if !member_root.join("src").is_dir() {
            continue;
        }
        let sources = rs_files(root, &format!("{dir}/src"))?;
        let mut references = Vec::new();
        for tree in ["tests", "benches", "examples"] {
            references.extend(rs_files(root, &format!("{dir}/{tree}"))?);
        }
        members.push(Member {
            name,
            dir,
            sources,
            references,
        });
    }
    Ok(Workspace {
        root: root.to_path_buf(),
        members,
    })
}

/// Walk upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Every `.rs` file under the workspace-relative directory `dir`,
/// workspace-relative and sorted; empty when `dir` does not exist.
/// Directories named `fixtures` are skipped: they hold lint inputs,
/// not compiled code.
pub fn rs_files(root: &Path, dir: &str) -> Result<Vec<String>, String> {
    let dir = root.join(dir.strip_prefix("./").unwrap_or(dir));
    let mut found = Vec::new();
    if dir.is_dir() {
        collect_rs(&dir, &mut found)?;
    }
    let mut rel: Vec<String> = found
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(to_slash)
        .collect();
    rel.sort();
    Ok(rel)
}

fn to_slash(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The quoted entries of `members = [ … ]` in the `[workspace]` table.
fn parse_members(manifest: &str) -> Result<Vec<String>, String> {
    let mut members = Vec::new();
    let mut in_workspace = false;
    let mut in_members = false;
    for line in manifest.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_workspace = trimmed == "[workspace]";
            in_members = false;
        }
        if !in_workspace {
            continue;
        }
        let mut rest = trimmed;
        if let Some(after) = trimmed.strip_prefix("members") {
            let after = after.trim_start();
            if let Some(after_eq) = after.strip_prefix('=') {
                in_members = true;
                rest = after_eq.trim_start();
            }
        }
        if in_members {
            for part in quoted_strings(rest) {
                members.push(part);
            }
            if rest.contains(']') {
                in_members = false;
            }
        }
    }
    if members.is_empty() {
        return Err("no `members` array under [workspace]".to_string());
    }
    Ok(members)
}

/// `name = "…"` inside the `[package]` table.
fn parse_package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_package = trimmed == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some(after) = trimmed.strip_prefix("name") {
            let after = after.trim_start();
            if let Some(value) = after.strip_prefix('=') {
                return quoted_strings(value).into_iter().next();
            }
        }
    }
    None
}

/// Every `"…"`-quoted string on one line (comments excluded: parsing
/// stops at a `#` that is not inside quotes).
fn quoted_strings(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '#' => break,
            '"' => {
                let mut s = String::new();
                for q in chars.by_ref() {
                    if q == '"' {
                        break;
                    }
                    s.push(q);
                }
                out.push(s);
            }
            _ => {}
        }
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "fixtures") {
                collect_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_members_array_across_lines() {
        let manifest = "\
[workspace]
members = [
    \"crates/a\", # trailing comment
    \"crates/b\",
]
[workspace.dependencies]
ignored = { path = \"crates/c\" }
";
        assert_eq!(
            parse_members(manifest).unwrap(),
            vec!["crates/a", "crates/b"]
        );
    }

    #[test]
    fn parses_package_name_only_from_package_table() {
        let manifest = "\
[dependencies]
name_like = \"zzz\"
[package]
name = \"fairrank_thing\"
";
        assert_eq!(
            parse_package_name(manifest).as_deref(),
            Some("fairrank_thing")
        );
    }

    #[test]
    fn discovers_this_workspace() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let ws = discover(&root).unwrap();
        let names = ws.crate_names();
        assert!(names.iter().any(|n| n == "fairrank_engine"), "{names:?}");
        assert!(names.iter().any(|n| n == "fairrank_analyze"), "{names:?}");
        let engine = ws
            .members
            .iter()
            .find(|m| m.name == "fairrank_engine")
            .unwrap();
        assert!(engine
            .sources
            .iter()
            .any(|s| s == "crates/engine/src/server.rs"));
        let analyze = ws
            .members
            .iter()
            .find(|m| m.name == "fairrank_analyze")
            .unwrap();
        assert!(analyze
            .references
            .iter()
            .any(|s| s == "crates/analyze/tests/golden.rs"));
        assert!(
            !analyze.references.iter().any(|s| s.contains("/fixtures/")),
            "{:?}",
            analyze.references
        );
        let root_pkg = ws.members.iter().find(|m| m.dir == ".").unwrap();
        assert!(root_pkg.sources.iter().any(|s| s == "src/lib.rs"));
        assert!(root_pkg
            .references
            .iter()
            .any(|s| s.starts_with("examples/")));
    }
}
