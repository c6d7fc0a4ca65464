//! Hostile-input properties for the three hand-rolled file and body
//! readers: the JSON request decoder, the trace-CSV parser and the `.ent`
//! catalog loader. (The HTTP reader has its own battery in
//! `crates/server/tests/prop_parser.rs`.)
//!
//! Each reader gets raw byte soup, a token-biased line soup built from
//! the fragments its grammar cares about, and valid input with a few
//! hostile edits (request-shaped documents, a simulated trace year, the
//! committed catalog), so cases reach past the first syntax check. The
//! contract for any input:
//!
//! - no panic (a panicking case fails the property);
//! - every failure is the reader's typed error, and an accepted trace
//!   holds only finite, non-negative gCO₂/kWh;
//! - every anchored diagnostic points inside the input: a JSON syntax
//!   error's byte offset is at most the input length, and a line-anchored
//!   message starts with `{file}:{line}: ` where `line` is a line of that
//!   file. An empty file has no lines, but its diagnostics may anchor to
//!   line 1, where an editor puts the cursor.

use proptest::collection;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use sustainable_hpc::api::{ApiError, EstimateRequest, ParseError};
use sustainable_hpc::catalog::{Catalog, CatalogError};
use sustainable_hpc::grid::synth::synthesize_year;
use sustainable_hpc::grid::tracefile::{
    parse_trace_csv, write_trace_csv, GapPolicy, TraceFileError,
};
use sustainable_hpc::grid::OperatorId;

fn byte_soup() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(0u8..=255, 0..2048)
}

/// Up to 48 lines, each 0–5 picks from `tokens` joined by `sep`.
fn line_soup(tokens: &'static [&'static str], sep: &'static str) -> impl Strategy<Value = String> {
    collection::vec(collection::vec(0..tokens.len(), 0..6), 0..48).prop_map(move |lines| {
        lines
            .iter()
            .map(|line| {
                line.iter()
                    .map(|&t| tokens[t])
                    .collect::<Vec<_>>()
                    .join(sep)
            })
            .collect::<Vec<_>>()
            .join("\n")
    })
}

/// Request-shaped documents: one object, or an array of up to three,
/// whose fields pair schema keys with plausible and hostile values, most
/// behind a valid `schema_version`, so cases reach the per-field decoders.
fn request_soup() -> impl Strategy<Value = String> {
    let object = (
        0..4,
        collection::vec((0..JSON_KEYS.len(), 0..JSON_VALUES.len()), 0..6),
    )
        .prop_map(|(versioned, fields)| {
            let mut body: Vec<String> = fields
                .iter()
                .map(|&(k, v)| format!("\"{}\": {}", JSON_KEYS[k], JSON_VALUES[v]))
                .collect();
            if versioned > 0 {
                body.insert(0, "\"schema_version\": 1".to_string());
            }
            format!("{{{}}}", body.join(", "))
        });
    (collection::vec(object, 1..4), 0..2).prop_map(|(objects, as_array)| {
        if as_array == 0 {
            objects[0].clone()
        } else {
            format!("[{}]", objects.join(", "))
        }
    })
}

/// Up to four line edits: `(position, operation, token)`.
fn edits() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    collection::vec((0usize..1 << 20, 0usize..5, 0usize..1 << 10), 1..5)
}

/// Applies `edits` to the lines of `text`: replace a line with one of
/// `lines`, delete it, duplicate it, insert one of `lines` before it, or
/// keep it through its first `sep` and replace the rest with one of
/// `tails` (a valid timestamp or key with a hostile value).
fn apply_edits(
    text: &str,
    edits: &[(usize, usize, usize)],
    lines: &[&str],
    sep: char,
    tails: &[&str],
) -> String {
    let mut out: Vec<String> = text.lines().map(str::to_string).collect();
    for &(pos, op, token) in edits {
        let line = lines[token % lines.len()].to_string();
        if out.is_empty() {
            out.push(line);
            continue;
        }
        let at = pos % out.len();
        match op {
            0 => out[at] = line,
            1 => {
                out.remove(at);
            }
            2 => out.insert(at, out[at].clone()),
            3 => out.insert(at, line),
            _ => {
                let head = out[at].split(sep).next().unwrap_or_default();
                out[at] = format!("{head}{sep}{}", tails[token % tails.len()]);
            }
        }
    }
    out.join("\n") + "\n"
}

/// The canonical CSV of one simulated year: a valid file to corrupt.
fn canonical_year() -> &'static str {
    static CSV: OnceLock<String> = OnceLock::new();
    CSV.get_or_init(|| write_trace_csv(&synthesize_year(OperatorId::Eso, 2021, 1)))
}

/// The highest line an anchor into `text` may name.
fn last_line(text: &str) -> usize {
    text.lines().count().max(1)
}

const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\u0000",
    "null",
    "true",
    "false",
    "0",
    "-0",
    "1",
    "1.5e3",
    "1e999",
    "-1",
    "18446744073709551616",
    "\"eso\"",
    "é",
];

const JSON_KEYS: &[&str] = &[
    "schema_version",
    "system",
    "region",
    "storage",
    "trace",
    "pue",
    "policy",
    "upgrade",
    "usage",
    "seed",
    "year",
    "jobs",
    "cluster_gpus",
    "forecast",
    "partner",
    "name",
    "slack_hours",
    "mean",
    "amplitude",
    "from",
    "to",
    "suite",
    "bogus",
];

const JSON_VALUES: &[&str] = &[
    "1",
    "2",
    "0",
    "-1",
    "0.6",
    "1.2",
    "24",
    "2021",
    "9000",
    "1e999",
    "-0",
    "18446744073709551615",
    "18446744073709551616",
    "9007199254740993",
    "null",
    "true",
    "[]",
    "{}",
    "\"frontier\"",
    "\"perlmutter\"",
    "\"eso\"",
    "\"miso\"",
    "\"all-flash\"",
    "\"synthetic\"",
    "\"p100\"",
    "\"a100\"",
    "\"vision\"",
    "\"persistence\"",
    "\"temporal-shift\"",
    "\"\\ud800\"",
    "\"é\"",
    "{\"name\": \"temporal-shift\", \"slack_hours\": 24}",
    "{\"name\": \"spatio-temporal\", \"slack_hours\": 1e999}",
    "{\"mean\": 1.2, \"amplitude\": 0.1}",
    "{\"mean\": 0.5, \"amplitude\": 2}",
    "{\"from\": \"p100\", \"to\": \"a100\", \"suite\": \"vision\"}",
];

const CSV_TOKENS: &[&str] = &[
    "timestamp,zone,intensity,unit",
    "timestamp",
    "2021-01-01T00:00Z",
    "2021-01-01T01:00Z",
    "2021-01-01T03:00Z",
    "2021-12-31T23:00Z",
    "2022-01-01T00:00Z",
    "2021-01-01T09:00+09:00",
    "2020-02-29T23:00+14:00",
    "9999-12-31T23:00-12:00",
    "0000-01-01T00:00+14:00",
    "2021-02-29T00:00Z",
    "2021-01-01T24:00Z",
    "2021-01-01T00:00",
    "2021-01-01T00:00+",
    "2021-01-01T00:00-99:00",
    "2021-01-01T00:30Z",
    "T:+-Z",
    "eso",
    "ciso",
    "ESO",
    "213.4",
    "0",
    "-1",
    "NaN",
    "inf",
    "1e308",
    "gCO2/kWh",
    "kgCO2/MWh",
    "kgCO2/kWh",
    "é",
    "",
];

/// Whole rows that break a valid year in one way each.
const CSV_ROWS: &[&str] = &[
    "timestamp,zone,intensity,unit",
    "",
    ",,,",
    "2021-01-01T00:00Z,eso,213.4,gCO2/kWh",
    "2021-06-01T00:00Z,ciso,1,gCO2/kWh",
    "2022-01-01T00:00Z,eso,1,gCO2/kWh",
    "2020-12-31T23:00Z,eso,1,gCO2/kWh",
    "2021-03-01T00:00+14:00,eso,1,kgCO2/kWh",
    "2021-07-01T12:00Z,eso,-1,gCO2/kWh",
    "2021-07-01T12:00Z,eso,NaN,gCO2/kWh",
    "2021-07-01T12:00Z,eso,1e308,kgCO2/kWh",
    "2021-07-01T12:00Z,eso,1e308,gCO2/kWh",
    "2021-07-01T12:00,eso,1,gCO2/kWh",
    "2021-07-01T12:00Z,eso,1,gCO2/kWh,extra",
];

/// Row tails after a valid timestamp.
const CSV_TAILS: &[&str] = &[
    "eso,1e308,kgCO2/kWh",
    "eso,1e-320,kgCO2/kWh",
    "eso,-0,gCO2/kWh",
    "eso,inf,gCO2/kWh",
    "eso,,gCO2/kWh",
    "eso,1,",
    "ciso,1,gCO2/kWh",
    "eso,1,gCO2/kWh,",
];

/// Field values after a valid key.
const ENT_VALUES: &[&str] = &[
    " 1e999",
    " -1",
    " NaN",
    " 0",
    "",
    " é",
    " n7",
    " part",
    " gpu-a100-pcie-40 0",
    " gpu-a100-pcie-40 18446744073709551616",
    " 2020-13",
    " 99999999999",
];

const ENT_TOKENS: &[&str] = &[
    "kind: part",
    "kind: system",
    "kind: node",
    "kind: region",
    "kind: ",
    "id: gpu-a100-pcie-40",
    "id: frontier",
    "id: n7",
    "id: eso",
    "class: gpu",
    "link: gpu-a100-pcie-40 1",
    "link: nothing 18446744073709551616",
    "node: n7",
    "release: 2020-13",
    "die-area-mm2: 1e999",
    "capacity-gb: -1",
    "tdp-w: NaN",
    "cores: 0",
    "year: 99999999999",
    "# comment",
    ":",
    "key:",
    ": value",
    "é",
    " ",
    "\t",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_reader_survives_byte_soup(bytes in byte_soup()) {
        check_json(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn json_reader_survives_token_soup(src in line_soup(JSON_TOKENS, " ")) {
        check_json(&src)?;
    }

    #[test]
    fn json_reader_survives_request_soup(src in request_soup()) {
        check_json(&src)?;
    }

    #[test]
    fn trace_reader_survives_byte_soup(bytes in byte_soup(), gaps in 0usize..3) {
        check_trace(&String::from_utf8_lossy(&bytes), gaps)?;
    }

    #[test]
    fn trace_reader_survives_token_soup(src in line_soup(CSV_TOKENS, ","), gaps in 0usize..3) {
        check_trace(&src, gaps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trace_reader_survives_corrupted_years(edits in edits(), gaps in 0usize..3) {
        let src = apply_edits(canonical_year(), &edits, CSV_ROWS, ',', CSV_TAILS);
        check_trace(&src, gaps)?;
    }

    #[test]
    fn catalog_loader_survives_byte_soup(bytes in byte_soup(), victim in 0usize..1000) {
        check_catalog(victim, |_| bytes.clone())?;
    }

    #[test]
    fn catalog_loader_survives_token_soup(src in line_soup(ENT_TOKENS, "\n"), victim in 0usize..1000) {
        check_catalog(victim, |_| src.clone().into_bytes())?;
    }

    #[test]
    fn catalog_loader_survives_corrupted_entities(edits in edits(), victim in 0usize..1000) {
        check_catalog(victim, |text| apply_edits(text, &edits, ENT_TOKENS, ':', ENT_VALUES).into_bytes())?;
    }
}

fn check_json(src: &str) -> Result<(), TestCaseError> {
    let Err(e) = EstimateRequest::batch_from_json(src) else {
        return Ok(());
    };
    // Document decoding fails only on syntax, the schema gate or a
    // field; estimation-stage kinds cannot occur before estimation.
    prop_assert!(
        matches!(e, ApiError::Parse(_) | ApiError::Schema { .. }),
        "{:?}",
        e
    );
    if let ApiError::Parse(ParseError::Json { at, .. }) = &e {
        prop_assert!(*at <= src.len(), "offset {} past {} bytes", at, src.len());
    }
    prop_assert!(!e.to_string().is_empty());
    Ok(())
}

fn check_trace(src: &str, gaps: usize) -> Result<(), TestCaseError> {
    let policy = [GapPolicy::Reject, GapPolicy::Interpolate, GapPolicy::Hold][gaps];
    let errors = match parse_trace_csv("soup.csv", src, policy) {
        Ok(parsed) => {
            // An accepted file yields what the format promises.
            let values = parsed.trace.series().values();
            prop_assert!(
                values.iter().all(|v| v.is_finite() && *v >= 0.0),
                "accepted a non-finite or negative intensity"
            );
            return Ok(());
        }
        Err(errors) => errors,
    };
    prop_assert!(!errors.0.is_empty());
    let last = last_line(src);
    for e in &errors.0 {
        let text = e.to_string();
        match e {
            TraceFileError::Line { file, line, .. } => {
                prop_assert_eq!(file.as_str(), "soup.csv");
                prop_assert!(
                    (1..=last).contains(line),
                    "line {} outside {} lines: {}",
                    line,
                    last,
                    text
                );
                prop_assert!(text.starts_with(&format!("soup.csv:{line}: ")), "{}", text);
            }
            TraceFileError::File { .. } => {
                prop_assert!(text.starts_with("soup.csv: "), "{}", text);
            }
        }
    }
    Ok(())
}

/// Loads a fresh copy of the committed catalog in which one entity file
/// (picked by `victim`) is rewritten by `corrupt` from its committed text.
fn check_catalog(
    victim: usize,
    corrupt: impl FnOnce(&str) -> Vec<u8>,
) -> Result<(), TestCaseError> {
    let root = scratch_catalog();
    let files = entity_files(&root);
    let target = &files[victim % files.len()];
    let committed = std::fs::read_to_string(target).unwrap();
    std::fs::write(target, corrupt(&committed)).unwrap();
    let loaded = Catalog::load(&root);
    let outcome = match &loaded {
        Ok(_) => Ok(()),
        Err(errors) if errors.0.is_empty() => Err(TestCaseError::fail("an empty error list")),
        Err(errors) => errors
            .0
            .iter()
            .try_for_each(|e| check_catalog_error(&root, e)),
    };
    std::fs::remove_dir_all(&root).unwrap();
    outcome
}

fn check_catalog_error(root: &Path, e: &CatalogError) -> Result<(), TestCaseError> {
    let text = e.to_string();
    if let CatalogError::Entity { file, line, .. } = e {
        // The anchor names a real file, and a line of it.
        let body = std::fs::read(root.join(file))
            .map_err(|err| TestCaseError::fail(format!("{text}: {err}")))?;
        let body = String::from_utf8_lossy(&body);
        prop_assert!(
            (1..=last_line(&body)).contains(line),
            "line {} outside {} lines: {}",
            line,
            body.lines().count(),
            text
        );
        prop_assert!(text.starts_with(&format!("{file}:{line}: ")), "{}", text);
    }
    Ok(())
}

/// The catalog's entity directories.
const KINDS: [&str; 4] = ["parts", "nodes", "systems", "regions"];

/// A private copy of the committed `catalog/` tree.
fn scratch_catalog() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let root = std::env::temp_dir().join(format!(
        "hpcarbon-hostile-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&root);
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("catalog");
    for kind in KINDS {
        std::fs::create_dir_all(root.join(kind)).unwrap();
        for entry in std::fs::read_dir(committed.join(kind)).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, root.join(kind).join(path.file_name().unwrap())).unwrap();
        }
    }
    root
}

/// Every `.ent` file under `root`, in a stable order.
fn entity_files(root: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = KINDS
        .iter()
        .flat_map(|kind| std::fs::read_dir(root.join(kind)).unwrap())
        .map(|entry| entry.unwrap().path())
        .collect();
    files.sort();
    files
}
