//! Numeric CLI flags are typed: a malformed value is a usage error
//! (exit 2, `invalid {flag} "{raw}" (expected …)` on stderr), never a
//! silent run of the default.

use std::process::Command;

#[test]
fn malformed_numeric_flags_exit_two_naming_the_flag() {
    let request = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/estimate_request.json"
    );
    let advisor = ["advisor", "--from", "v100", "--to", "a100"];
    // (arguments before the bad flag, flag, malformed value, expected)
    let cases: &[(&[&str], &str, &str, &str)] = &[
        (&["figures"], "--seed", "banana", "a non-negative integer"),
        (&["regions"], "--seed", "banana", "a non-negative integer"),
        (&["schedule"], "--seed", "banana", "a non-negative integer"),
        (&["schedule"], "--jobs", "many", "a non-negative integer"),
        (&["schedule"], "--slack", "1.5", "a non-negative integer"),
        (&["sweep"], "--seed", "banana", "a non-negative integer"),
        (&["sweep"], "--seeds", "ten", "a non-negative integer"),
        (&["sweep"], "--jobs", "-1", "a non-negative integer"),
        (&["sweep"], "--threads", "four", "a non-negative integer"),
        (&["sweep"], "--top", "5x", "a non-negative integer"),
        (&advisor, "--usage", "1.5", "a fraction in [0, 1]"),
        (&advisor, "--usage", "high", "a fraction in [0, 1]"),
        (&advisor, "--intensity", "dirty", "a number in gCO2/kWh"),
        (
            &["estimate", "--request", request],
            "--threads",
            "0",
            "a positive integer",
        ),
        (&["serve"], "--shards", "0", "a positive integer"),
        (&["serve"], "--workers", "two", "a positive integer"),
        (&["serve"], "--cache", "-1", "a non-negative integer"),
        (&["serve"], "--max-body", "1MB", "a positive integer"),
        (&["loadgen"], "--requests", "0", "a positive integer"),
        (&["loadgen"], "--concurrency", "x", "a positive integer"),
        (&["loadgen"], "--wait", "-3", "a positive integer"),
        (&["loadgen"], "--jobs", "0", "a positive integer"),
        (
            &["loadgen"],
            "--connect-retries",
            "-1",
            "a non-negative integer",
        ),
        (&["loadgen"], "--seed", "banana", "a non-negative integer"),
    ];
    for (args, name, raw, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcarbon"))
            .args(*args)
            .args([*name, *raw])
            .output()
            .expect("run hpcarbon");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let anchor = format!("invalid {name} \"{raw}\" (expected {expected})");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} {name} {raw}: {stderr}"
        );
        assert!(stderr.contains(&anchor), "{args:?} {name} {raw}: {stderr}");
    }
}
