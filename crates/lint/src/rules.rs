//! The five workspace-invariant rules.
//!
//! Each rule is a pure function over the token stream of one file plus
//! its [`FileClass`]; none of them parse Rust. That buys robustness
//! (strings/comments can never fool them — the lexer already stripped
//! those) at the price of token-level judgment: `.expect(` flags any
//! method named `expect`, `HashMap` flags the identifier wherever it
//! appears. The workspace is kept clean of such collisions (e.g. the
//! JSON parser's internal `expect` byte-matcher is named
//! `expect_byte`), and `docs/LINTS.md` documents the limits.

use crate::context::{FileClass, FileKind, UNSAFE_ALLOWLIST};
use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{Comment, LexedFile, Tok};
use crate::registry::DisplayRegistry;
use crate::suppress;
use std::collections::BTreeMap;

/// Runs every applicable rule over one lexed file, applies inline
/// suppressions, and returns the surviving diagnostics (unsorted; the
/// caller batches and sorts across files).
pub fn check_file(
    class: &FileClass,
    lexed: &LexedFile,
    registry: &DisplayRegistry,
) -> Vec<Diagnostic> {
    if class.kind == FileKind::TestLike {
        return Vec::new();
    }
    let mut diags = Vec::new();
    let sups = suppress::collect(&class.rel, &lexed.comments, &mut diags);
    let toks = mask_cfg_test(&lexed.tokens);

    if class.deterministic() {
        wall_clock(class, &toks, &mut diags);
        hash_iteration(class, &toks, &mut diags);
    }
    unsafe_audit(class, &toks, &lexed.comments, &mut diags);
    if class.kind == FileKind::Library {
        panic_in_library(class, &toks, &mut diags);
    }
    display_drift(class, &toks, registry, &mut diags);

    diags.retain(|d| {
        d.rule == RuleId::BadSuppression || !sups.iter().any(|s| s.covers(d.rule, d.line))
    });
    diags
}

/// Drops tokens inside `#[cfg(test)]` items (the attribute itself, any
/// stacked attributes after it, and the guarded item's body). Tests are
/// where panics and wall-clock reads are legitimate; the rules must not
/// see them.
fn mask_cfg_test(tokens: &[Tok]) -> Vec<&Tok> {
    let all: Vec<&Tok> = tokens.iter().collect();
    let mut out = Vec::with_capacity(all.len());
    let mut i = 0usize;
    while i < all.len() {
        if is_cfg_test_attr(&all, i) {
            i += 7; // past `# [ cfg ( test ) ]`
                    // Skip any further stacked attributes (`#[allow(…)]` …).
            while i < all.len() && all[i].is_punct('#') {
                i = skip_bracket_group(&all, i + 1);
            }
            i = skip_item(&all, i);
        } else {
            out.push(all[i]);
            i += 1;
        }
    }
    out
}

fn is_cfg_test_attr(tokens: &[&Tok], i: usize) -> bool {
    tokens.len() > i + 6
        && tokens[i].is_punct('#')
        && tokens[i + 1].is_punct('[')
        && tokens[i + 2].ident() == Some("cfg")
        && tokens[i + 3].is_punct('(')
        && tokens[i + 4].ident() == Some("test")
        && tokens[i + 5].is_punct(')')
        && tokens[i + 6].is_punct(']')
}

/// `i` points just past a `[`-opening `#`; returns the index after the
/// matching `]`.
fn skip_bracket_group(tokens: &[&Tok], mut i: usize) -> usize {
    if i >= tokens.len() || !tokens[i].is_punct('[') {
        return i;
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('[') {
            depth += 1;
        } else if tokens[i].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Skips one item: to the `;` that ends a braceless item, or to the
/// `}` matching the item's first `{`, whichever comes first.
fn skip_item(tokens: &[&Tok], mut i: usize) -> usize {
    while i < tokens.len() {
        if tokens[i].is_punct(';') {
            return i + 1;
        }
        if tokens[i].is_punct('{') {
            let mut depth = 0usize;
            while i < tokens.len() {
                if tokens[i].is_punct('{') {
                    depth += 1;
                } else if tokens[i].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                i += 1;
            }
            return i;
        }
        i += 1;
    }
    i
}

/// `wall-clock-in-deterministic-crate`: `Instant::now` /
/// `SystemTime::now` sequences.
fn wall_clock(class: &FileClass, toks: &[&Tok], diags: &mut Vec<Diagnostic>) {
    for w in toks.windows(4) {
        let ty = match w[0].ident() {
            Some(t @ ("Instant" | "SystemTime")) => t,
            _ => continue,
        };
        if w[1].is_punct(':') && w[2].is_punct(':') && w[3].ident() == Some("now") {
            diags.push(Diagnostic::new(
                &class.rel,
                w[0].line(),
                RuleId::WallClockInDeterministicCrate,
                format!(
                    "`{ty}::now()` reads the wall clock in a deterministic crate; \
                     take time as an input or move the read into the server/loadgen/bench layer"
                ),
            ));
        }
    }
}

/// `hash-iteration-order`: any `HashMap` / `HashSet` identifier.
fn hash_iteration(class: &FileClass, toks: &[&Tok], diags: &mut Vec<Diagnostic>) {
    for t in toks {
        let name = match t.ident() {
            Some(n @ ("HashMap" | "HashSet")) => n,
            _ => continue,
        };
        diags.push(Diagnostic::new(
            &class.rel,
            t.line(),
            RuleId::HashIterationOrder,
            format!(
                "`{name}` has nondeterministic iteration order; use `BTreeMap`/`BTreeSet` \
                 or a sorted `Vec` in deterministic crates"
            ),
        ));
    }
}

/// `unsafe-needs-safety-comment`: location allowlist + `// SAFETY:`
/// within the three lines above (or trailing on the same line).
fn unsafe_audit(
    class: &FileClass,
    toks: &[&Tok],
    comments: &[Comment],
    diags: &mut Vec<Diagnostic>,
) {
    for t in toks {
        if t.ident() != Some("unsafe") {
            continue;
        }
        let line = t.line();
        if !class.unsafe_allowlisted() {
            diags.push(Diagnostic::new(
                &class.rel,
                line,
                RuleId::UnsafeNeedsSafetyComment,
                format!(
                    "unsafe code is confined to the audited modules ({}); this file is not one of them",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            ));
        }
        let covered = comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.end_line <= line && c.end_line + 3 >= line);
        if !covered {
            diags.push(Diagnostic::new(
                &class.rel,
                line,
                RuleId::UnsafeNeedsSafetyComment,
                "`unsafe` without a `// SAFETY:` comment on the preceding lines stating why \
                 the invariants hold"
                    .to_string(),
            ));
        }
    }
}

/// `panic-in-library`: `.unwrap()`, `.expect(`, and the aborting
/// macros, outside `#[cfg(test)]`.
fn panic_in_library(class: &FileClass, toks: &[&Tok], diags: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        if let Some(name @ ("unwrap" | "expect")) = t.ident() {
            let dotted = i > 0 && toks[i - 1].is_punct('.');
            let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if dotted && called {
                diags.push(Diagnostic::new(
                    &class.rel,
                    t.line(),
                    RuleId::PanicInLibrary,
                    format!(
                        "`.{name}(…)` panics on a library path; return a typed error, rewrite \
                         infallibly, or justify with `// lint: allow(panic-in-library) -- …`"
                    ),
                ));
            }
        }
        if let Some(mac @ ("panic" | "todo" | "unimplemented")) = t.ident() {
            if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                diags.push(Diagnostic::new(
                    &class.rel,
                    t.line(),
                    RuleId::PanicInLibrary,
                    format!("`{mac}!` aborts a library path; return a typed error instead"),
                ));
            }
        }
    }
}

/// One extracted `Display` impl: the type name, the line the `impl`
/// starts on, and every `write!`/`writeln!` format string inside it
/// (line, raw literal as written).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisplayImpl {
    /// The implemented type's name (`ApiError`, …).
    pub type_name: String,
    /// Line of the `impl` keyword.
    pub impl_line: usize,
    /// Format strings: (line, raw literal including quotes).
    pub strings: Vec<(usize, String)>,
}

/// Extracts every `impl … Display for <Type>` block's format strings.
/// Shared by the rule and by `hpclint --dump-display`.
pub fn display_impls(toks: &[&Tok]) -> Vec<DisplayImpl> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].ident() != Some("impl") {
            i += 1;
            continue;
        }
        let impl_line = toks[i].line();
        // Scan the header (everything before the body's `{`); find
        // `Display` and the type ident after `for`.
        let mut j = i + 1;
        let mut saw_display = false;
        let mut after_for = false;
        let mut type_name: Option<String> = None;
        while j < toks.len() && !toks[j].is_punct('{') {
            match toks[j].ident() {
                Some("Display") if !after_for => saw_display = true,
                Some("for") => after_for = true,
                Some(name) if after_for => type_name = Some(name.to_string()),
                _ => {}
            }
            // A `where` clause or generic bound after the type keeps the
            // last ident heuristic honest enough for this tree; stop at
            // `where` so bounds don't overwrite the type name.
            if toks[j].ident() == Some("where") {
                break;
            }
            j += 1;
        }
        // Find the body braces.
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let body_start = j;
        let body_end = skip_item(toks, body_start);
        if let (true, Some(ty)) = (saw_display, type_name) {
            let mut strings = Vec::new();
            let mut k = body_start;
            while k < body_end.min(toks.len()) {
                if matches!(toks[k].ident(), Some("write" | "writeln"))
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('!'))
                    && toks.get(k + 2).is_some_and(|t| t.is_punct('('))
                {
                    // First string literal before the macro's `)` is the
                    // format string.
                    let mut depth = 0usize;
                    let mut m = k + 2;
                    while m < toks.len() {
                        if toks[m].is_punct('(') {
                            depth += 1;
                        } else if toks[m].is_punct(')') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if let Tok::Str { line, raw } = toks[m] {
                            strings.push((*line, raw.clone()));
                            break;
                        }
                        m += 1;
                    }
                    k = m;
                }
                k += 1;
            }
            out.push(DisplayImpl {
                type_name: ty,
                impl_line,
                strings,
            });
            i = body_end.max(i + 1);
        } else {
            i += 1;
        }
    }
    out
}

/// `frozen-display-drift`: compare each registered type's extracted
/// format strings against the committed registry. Only the **first**
/// divergence per impl is reported — an insertion shifts every later
/// string, and one precise diagnostic beats a cascade.
fn display_drift(
    class: &FileClass,
    toks: &[&Tok],
    registry: &DisplayRegistry,
    diags: &mut Vec<Diagnostic>,
) {
    for imp in display_impls(toks) {
        if !registry.contains(&imp.type_name) {
            continue;
        }
        let want = registry.strings(&imp.type_name);
        let got = &imp.strings;
        let n = want.len().max(got.len());
        for idx in 0..n {
            match (want.get(idx), got.get(idx)) {
                (Some(w), Some((line, g))) if w != g => {
                    diags.push(Diagnostic::new(
                        &class.rel,
                        *line,
                        RuleId::FrozenDisplayDrift,
                        format!(
                            "Display format string {g} drifted from the frozen registry for \
                             {} (expected {w}); if the contract change is intentional, \
                             regenerate with `hpclint --dump-display`",
                            imp.type_name
                        ),
                    ));
                    break;
                }
                (None, Some((line, g))) => {
                    diags.push(Diagnostic::new(
                        &class.rel,
                        *line,
                        RuleId::FrozenDisplayDrift,
                        format!(
                            "Display format string {g} is not in the frozen registry for {} \
                             ({} strings frozen, {} found)",
                            imp.type_name,
                            want.len(),
                            got.len()
                        ),
                    ));
                    break;
                }
                (Some(w), None) => {
                    diags.push(Diagnostic::new(
                        &class.rel,
                        imp.impl_line,
                        RuleId::FrozenDisplayDrift,
                        format!(
                            "Display for {} lost frozen format string {w} \
                             ({} strings frozen, {} found)",
                            imp.type_name,
                            want.len(),
                            got.len()
                        ),
                    ));
                    break;
                }
                _ => {}
            }
        }
    }
}

/// Extracts display strings from raw source for `--dump-display`:
/// type → literals in impl order. Types seen in several files merge in
/// file-walk order (in practice each frozen type has one impl).
pub fn extract_display_strings(src: &str, into: &mut BTreeMap<String, Vec<String>>) {
    let lexed = crate::lexer::lex(src);
    let toks: Vec<&Tok> = lexed.tokens.iter().collect();
    for imp in display_impls(&toks) {
        into.entry(imp.type_name)
            .or_default()
            .extend(imp.strings.into_iter().map(|(_, raw)| raw));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(rel: &str, src: &str) -> Vec<Diagnostic> {
        let reg = DisplayRegistry::parse("ApiError \"frozen {x}\"\n").expect("registry");
        let mut d = check_file(&FileClass::classify(rel), &lex(src), &reg);
        crate::diag::sort(&mut d);
        d
    }

    fn check_standalone(src: &str) -> Vec<Diagnostic> {
        let reg = DisplayRegistry::parse("ApiError \"frozen {x}\"\n").expect("registry");
        let mut d = check_file(&FileClass::standalone("fixture.rs"), &lex(src), &reg);
        crate::diag::sort(&mut d);
        d
    }

    #[test]
    fn wall_clock_fires_in_deterministic_crates_only() {
        let src = "fn f() { let t = Instant::now(); }";
        let det = check("crates/core/src/whatif.rs", src);
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].rule, RuleId::WallClockInDeterministicCrate);
        assert_eq!(det[0].line, 1);
        assert!(check("crates/server/src/event_loop.rs", src).is_empty());
        assert!(check("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn system_time_is_flagged_too() {
        let d = check("crates/grid/src/trace.rs", "let t = SystemTime::now();");
        assert!(d[0].message.contains("SystemTime::now()"));
    }

    #[test]
    fn hash_collections_fire_per_token() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
        let d = check("crates/catalog/src/provider.rs", src);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[1].line, 2);
        assert!(check("crates/server/src/cache.rs", src).is_empty());
    }

    #[test]
    fn unsafe_needs_comment_and_location() {
        let bare = "fn f() { unsafe { g() } }";
        let d = check_standalone(bare);
        assert_eq!(d.len(), 2, "{d:?}"); // outside allowlist + no SAFETY
        let commented = "// SAFETY: g has no invariants\nfn f() { unsafe { g() } }";
        let d = check("crates/server/src/poll.rs", commented);
        assert!(d.is_empty(), "{d:?}");
        let far = "// SAFETY: too far away\n\n\n\n\nfn f() { unsafe { g() } }";
        let d = check("crates/server/src/poll.rs", far);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn panic_rule_catches_all_five_forms() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"msg\");\n    if a > b { panic!(\"no\") }\n    todo!()\n}\nfn g() { unimplemented!() }\n";
        let d = check("crates/core/src/whatif.rs", src);
        assert_eq!(d.len(), 5, "{d:?}");
        assert!(d.iter().all(|x| x.rule == RuleId::PanicInLibrary));
        assert_eq!(
            d.iter().map(|x| x.line).collect::<Vec<_>>(),
            [2, 3, 4, 5, 7]
        );
    }

    #[test]
    fn panic_rule_skips_cfg_test_and_binaries() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(check("crates/core/src/whatif.rs", src).is_empty());
        let bin = "fn main() { std::fs::read(\"x\").unwrap(); }";
        assert!(check("src/bin/hpcarbon.rs", bin).is_empty());
    }

    #[test]
    fn expect_requires_dot_and_call() {
        // A method *named* expect on self is still flagged (token-level
        // rule), but a bare path call is not.
        assert_eq!(
            check("crates/api/src/json.rs", "self.expect(b'{')?;").len(),
            1
        );
        assert!(check("crates/api/src/json.rs", "expect(b'{');").is_empty());
        assert!(check("crates/api/src/json.rs", "let unwrap = 3; unwrap + 1;").is_empty());
    }

    #[test]
    fn suppression_waves_through_with_justification() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(panic-in-library) -- checked non-empty above\n    x.unwrap()\n}\n";
        assert!(check("crates/core/src/whatif.rs", src).is_empty());
        let bad = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(panic-in-library)\n    x.unwrap()\n}\n";
        let d = check("crates/core/src/whatif.rs", bad);
        assert_eq!(d.len(), 2); // bad-suppression + the unsuppressed unwrap
        assert_eq!(d[0].rule, RuleId::BadSuppression);
        assert_eq!(d[1].rule, RuleId::PanicInLibrary);
    }

    #[test]
    fn display_drift_first_divergence_only() {
        let src = "impl std::fmt::Display for ApiError {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        write!(f, \"drifted {x}\")\n    }\n}\n";
        let d = check("crates/api/src/error.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RuleId::FrozenDisplayDrift);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("\"drifted {x}\""));
        assert!(d[0].message.contains("expected \"frozen {x}\""));
    }

    #[test]
    fn display_matching_registry_is_clean() {
        let src = "impl std::fmt::Display for ApiError {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        write!(f, \"frozen {x}\")\n    }\n}\n";
        assert!(check("crates/api/src/error.rs", src).is_empty());
    }

    #[test]
    fn display_lost_string_anchors_to_impl() {
        let src = "impl std::fmt::Display for ApiError {\n    fn fmt(&self, _f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        Ok(())\n    }\n}\n";
        let d = check("crates/api/src/error.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("lost frozen format string"));
    }

    #[test]
    fn unregistered_display_impls_are_ignored() {
        let src = "impl std::fmt::Display for SomethingElse {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        write!(f, \"whatever\")\n    }\n}\n";
        assert!(check("crates/api/src/error.rs", src).is_empty());
    }

    #[test]
    fn test_like_files_are_exempt_entirely() {
        let src = "fn f() { None::<u32>.unwrap(); let t = Instant::now(); }";
        assert!(check("crates/server/tests/robustness.rs", src).is_empty());
        assert!(check("examples/scenario_sweep.rs", src).is_empty());
    }
}
