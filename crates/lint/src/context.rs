//! File classification: which rules apply where.
//!
//! hpclint is workspace-shaped, not generic: the crate allowlists and
//! audited-module lists below *are* the policy being enforced, kept in
//! one place so a policy change is one diff reviewed next to the rule
//! catalog (`docs/LINTS.md`).

use std::path::Path;

/// Crates allowed to read wall-clock time and to use hash-ordered
/// collections: the serving/load-generation layer (latency histograms,
/// deadlines) and the criterion bench crate (timing is the product).
/// Everything else in the tree is a deterministic crate — byte-identical
/// output across threads, shards, and cache states — where both are
/// contraband.
pub const NONDETERMINISTIC_CRATES: [&str; 2] = ["server", "bench"];

/// The only modules allowed to contain `unsafe`: the hand-declared
/// epoll/eventfd/signal syscall surface, the slab (historically audited
/// here even though its current implementation is index-based safe
/// code), and the leaked-string intern table.
pub const UNSAFE_ALLOWLIST: [&str; 4] = [
    "crates/server/src/poll.rs",
    "crates/server/src/signal.rs",
    "crates/server/src/slab.rs",
    "crates/catalog/src/intern.rs",
];

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source: every rule applies.
    Library,
    /// Binary source (`src/bin/…`, a crate's `src/main.rs`): everything
    /// but `panic-in-library` applies — a CLI aborting with a message is
    /// the contract, not a bug.
    Binary,
    /// Tests, benches, examples, fixtures: skipped entirely. Panics are
    /// how tests fail, and wall-clock reads are how benches measure.
    TestLike,
}

/// The lint context of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// The owning crate (`"server"`, `"core"`, …); `None` for the
    /// facade package at the workspace root and for standalone paths.
    pub crate_name: Option<String>,
    /// Role of the file.
    pub kind: FileKind,
}

impl FileClass {
    /// Classifies a workspace-relative path (`/`-separated).
    pub fn classify(rel: &str) -> FileClass {
        let parts: Vec<&str> = rel.split('/').collect();
        let test_like = parts
            .iter()
            .any(|p| matches!(*p, "tests" | "benches" | "examples" | "fixtures"));
        let crate_name = match parts.as_slice() {
            ["crates", name, ..] => Some((*name).to_string()),
            _ => None,
        };
        let kind = if test_like {
            FileKind::TestLike
        } else if parts.contains(&"bin") || parts.last() == Some(&"main.rs") || rel == "build.rs" {
            FileKind::Binary
        } else {
            FileKind::Library
        };
        FileClass {
            rel: rel.to_string(),
            crate_name,
            kind,
        }
    }

    /// A standalone file linted by explicit path: treated as library
    /// code in a deterministic, non-allowlisted crate so every rule is
    /// live. This is the mode the golden fixtures use.
    pub fn standalone(rel: &str) -> FileClass {
        FileClass {
            rel: rel.to_string(),
            crate_name: None,
            kind: FileKind::Library,
        }
    }

    /// Is this file in a crate whose output must be deterministic?
    pub fn deterministic(&self) -> bool {
        match &self.crate_name {
            Some(c) => !NONDETERMINISTIC_CRATES.contains(&c.as_str()),
            None => true, // facade + standalone files: deterministic
        }
    }

    /// Is this one of the audited modules where `unsafe` is permitted?
    pub fn unsafe_allowlisted(&self) -> bool {
        UNSAFE_ALLOWLIST.contains(&self.rel.as_str())
    }
}

/// Should a directory be descended into during a workspace walk?
/// `catalog/` at the workspace root is entity *data*, skipped — but
/// `crates/catalog/` is code and must be walked, so the decision is
/// depth-aware.
pub fn skip_dir(name: &str, at_root: bool) -> bool {
    if at_root && matches!(name, "catalog" | "ci") {
        return true;
    }
    matches!(
        name,
        "target" | "vendor" | "out" | ".git" | ".github" | "fixtures"
    )
}

/// Walks `root` for `.rs` files in deterministic (sorted) order,
/// returning workspace-relative `/`-separated paths.
pub fn walk_workspace(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk_dir(root, root, true, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk_dir(root: &Path, dir: &Path, at_root: bool, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !skip_dir(&name, at_root) {
                walk_dir(root, &path, false, out)?;
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_is_nondeterministic_core_is_not() {
        let server = FileClass::classify("crates/server/src/event_loop.rs");
        assert!(!server.deterministic());
        assert_eq!(server.kind, FileKind::Library);
        let core = FileClass::classify("crates/core/src/whatif.rs");
        assert!(core.deterministic());
    }

    #[test]
    fn tests_benches_examples_are_skipped() {
        for p in [
            "crates/server/tests/robustness.rs",
            "crates/bench/benches/bench_serve.rs",
            "examples/scenario_sweep.rs",
            "tests/fixtures/lints/panic_paths.rs",
        ] {
            assert_eq!(FileClass::classify(p).kind, FileKind::TestLike, "{p}");
        }
    }

    #[test]
    fn binaries_are_exempt_from_panic_rule_only() {
        assert_eq!(
            FileClass::classify("src/bin/hpcarbon.rs").kind,
            FileKind::Binary
        );
        assert_eq!(
            FileClass::classify("crates/lint/src/main.rs").kind,
            FileKind::Binary
        );
        assert_eq!(FileClass::classify("src/lib.rs").kind, FileKind::Library);
    }

    #[test]
    fn unsafe_allowlist_is_exact_paths() {
        assert!(FileClass::classify("crates/server/src/poll.rs").unsafe_allowlisted());
        assert!(!FileClass::classify("crates/server/src/http.rs").unsafe_allowlisted());
        assert!(
            !FileClass::standalone("tests/fixtures/lints/unsafe_no_comment.rs")
                .unsafe_allowlisted()
        );
    }

    #[test]
    fn facade_sources_are_deterministic_library_code() {
        let f = FileClass::classify("src/lib.rs");
        assert!(f.deterministic());
        assert_eq!(f.crate_name, None);
    }
}
