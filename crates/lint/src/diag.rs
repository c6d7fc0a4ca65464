//! Diagnostics: the `{file}:{line}: {rule}: {message}` contract.
//!
//! Like the catalog validator, hpclint reports **everything at once**
//! in a deterministic order — a contributor fixes the whole batch, not
//! one diagnostic per run. Ordering is (file, line, rule id, message);
//! file paths are workspace-relative with `/` separators on every
//! platform so CI and local runs print identical bytes.

use std::fmt;

/// The closed set of rules. `docs/LINTS.md` is the operator-facing
/// catalog; the ids here are the strings used in diagnostics and in
/// `// lint: allow(<rule>)` suppressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `Instant::now` / `SystemTime::now` in a deterministic crate.
    WallClockInDeterministicCrate,
    /// `HashMap` / `HashSet` in a deterministic crate.
    HashIterationOrder,
    /// `unsafe` outside the audited modules, or without `// SAFETY:`.
    UnsafeNeedsSafetyComment,
    /// `unwrap` / `expect` / `panic!` / `todo!` / `unimplemented!` in
    /// library code.
    PanicInLibrary,
    /// A frozen `Display` format string drifted from the registry.
    FrozenDisplayDrift,
    /// A `// lint: allow(…)` comment that is malformed, names an
    /// unknown rule, or lacks the required justification.
    BadSuppression,
}

/// Every rule, in diagnostic-sort order.
pub const ALL_RULES: [RuleId; 6] = [
    RuleId::WallClockInDeterministicCrate,
    RuleId::HashIterationOrder,
    RuleId::UnsafeNeedsSafetyComment,
    RuleId::PanicInLibrary,
    RuleId::FrozenDisplayDrift,
    RuleId::BadSuppression,
];

impl RuleId {
    /// The stable diagnostic / suppression id.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::WallClockInDeterministicCrate => "wall-clock-in-deterministic-crate",
            RuleId::HashIterationOrder => "hash-iteration-order",
            RuleId::UnsafeNeedsSafetyComment => "unsafe-needs-safety-comment",
            RuleId::PanicInLibrary => "panic-in-library",
            RuleId::FrozenDisplayDrift => "frozen-display-drift",
            RuleId::BadSuppression => "bad-suppression",
        }
    }

    /// Resolves a suppression/CLI rule name. [`RuleId::BadSuppression`]
    /// is deliberately not nameable: a malformed suppression must not
    /// be suppressible by another suppression.
    pub fn parse(name: &str) -> Option<RuleId> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.id() == name && *r != RuleId::BadSuppression)
    }

    /// One-line summary used by `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::WallClockInDeterministicCrate => {
                "no Instant::now / SystemTime::now outside the server/loadgen/bench allowlist"
            }
            RuleId::HashIterationOrder => {
                "no HashMap/HashSet in deterministic crates; use BTreeMap/BTreeSet or a sorted Vec"
            }
            RuleId::UnsafeNeedsSafetyComment => {
                "unsafe only in the audited modules, each block/fn preceded by // SAFETY:"
            }
            RuleId::PanicInLibrary => {
                "no unwrap/expect/panic!/todo!/unimplemented! in library code outside tests"
            }
            RuleId::FrozenDisplayDrift => {
                "frozen ApiError/CatalogError Display strings must match the committed registry"
            }
            RuleId::BadSuppression => {
                "lint: allow(...) must name a known rule and carry `-- <justification>`"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding, anchored to a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: RuleId,
    /// The human-readable finding.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(file: &str, line: usize, rule: RuleId, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Sorts diagnostics into the reporting order the contract promises:
/// by file, then line, then rule id, then message.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.id(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule.id(),
            b.message.as_str(),
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contract_is_line_anchored() {
        let d = Diagnostic::new(
            "crates/core/src/whatif.rs",
            42,
            RuleId::PanicInLibrary,
            "`.unwrap()` on a library path".to_string(),
        );
        assert_eq!(
            d.to_string(),
            "crates/core/src/whatif.rs:42: panic-in-library: `.unwrap()` on a library path"
        );
    }

    #[test]
    fn sort_is_file_line_rule_message() {
        let mk = |f: &str, l: usize, r: RuleId| Diagnostic::new(f, l, r, "m".to_string());
        let mut v = vec![
            mk("b.rs", 1, RuleId::PanicInLibrary),
            mk("a.rs", 9, RuleId::PanicInLibrary),
            mk("a.rs", 2, RuleId::WallClockInDeterministicCrate),
            mk("a.rs", 2, RuleId::HashIterationOrder),
        ];
        sort(&mut v);
        assert_eq!(v[0].file, "a.rs");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, RuleId::HashIterationOrder);
        assert_eq!(v[1].rule, RuleId::WallClockInDeterministicCrate);
        assert_eq!(v[3].file, "b.rs");
    }

    #[test]
    fn bad_suppression_is_not_nameable() {
        assert_eq!(RuleId::parse("bad-suppression"), None);
        assert_eq!(
            RuleId::parse("panic-in-library"),
            Some(RuleId::PanicInLibrary)
        );
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }
}
