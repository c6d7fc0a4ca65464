//! Front-door API contract tests: batch determinism across thread
//! counts, every `ApiError` variant on its error path, and the golden
//! request → report round trip against committed fixtures.

use sustainable_hpc::api::{
    batch_to_json, parse as api_parse, ApiError, EstimateRequest, Estimator, ParseError, PueSpec,
    StorageVariant, SystemId, TraceSource,
};
use sustainable_hpc::prelude::{OperatorId, Policy};

const REQUEST_FIXTURE: &str = include_str!("fixtures/estimate_request.json");
const EXPECTED_REPORT: &str = include_str!("fixtures/expected_report.json");

fn quick_request(seed: u64) -> EstimateRequest {
    let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
    r.jobs = 40;
    r.seed = seed;
    r
}

#[test]
fn estimate_batch_is_byte_identical_across_thread_counts() {
    // A batch that exercises several axes: regions, policies, a storage
    // what-if error row, and both trace sources.
    let mut requests: Vec<EstimateRequest> =
        (0..6).map(|i| quick_request(2021 + i as u64)).collect();
    requests[1].region = OperatorId::Ciso;
    requests[2].policy = Policy::TemporalShift { slack_hours: 24 };
    requests[3].source = TraceSource::Synthetic;
    requests[4].system = SystemId::Perlmutter;
    requests[4].storage = StorageVariant::AllFlash; // error row
    requests[5].policy = Policy::SpatioTemporal { slack_hours: 24 };

    let serial = Estimator::builder()
        .threads(1)
        .build()
        .estimate_batch(&requests);
    let reference = batch_to_json(&serial);
    for threads in [2, 4, 8] {
        let parallel = Estimator::builder()
            .threads(threads)
            .build()
            .estimate_batch(&requests);
        assert_eq!(
            batch_to_json(&parallel),
            reference,
            "batch JSON must be byte-identical at {threads} threads"
        );
    }
    // The error row stayed a row (batch alignment survives errors).
    assert!(serial[4].is_err());
    assert_eq!(serial.len(), requests.len());
}

#[test]
fn golden_round_trip_matches_committed_fixtures() {
    // The committed request fixture parses…
    let requests = EstimateRequest::batch_from_json(REQUEST_FIXTURE).unwrap();
    assert_eq!(requests.len(), 3);
    // …estimates…
    let results = Estimator::builder()
        .threads(1)
        .build()
        .estimate_batch(&requests);
    assert!(results.iter().all(|r| r.is_ok()));
    // …and re-serializes to the committed expected report, byte for byte.
    assert_eq!(batch_to_json(&results), EXPECTED_REPORT);
}

// ---- One test per ApiError variant. ----

#[test]
fn error_path_invalid_pue() {
    let mut r = quick_request(1);
    r.pue = PueSpec::Constant(0.8);
    assert!(matches!(
        Estimator::builder().build().estimate(&r).unwrap_err(),
        ApiError::InvalidPue(_)
    ));
}

#[test]
fn error_path_whatif() {
    let mut r = quick_request(1);
    r.system = SystemId::Perlmutter; // no HDD tier to swap
    r.storage = StorageVariant::AllFlash;
    let e = Estimator::builder().build().estimate(&r).unwrap_err();
    assert!(matches!(e, ApiError::WhatIf(_)));
    assert!(e.to_string().starts_with("storage what-if: "));
}

#[test]
fn error_path_sched() {
    let mut r = quick_request(1);
    r.policy = Policy::TemporalShift { slack_hours: 9000 }; // longer than the trace
    let e = Estimator::builder().build().estimate(&r).unwrap_err();
    assert!(matches!(e, ApiError::Sched(_)));
    assert!(e.to_string().starts_with("scheduling: "));
}

#[test]
fn error_path_analysis() {
    // The analysis layer unifies under the same error type.
    let e = ApiError::from(
        sustainable_hpc::grid::analysis::try_winner_counts(
            &[],
            sustainable_hpc::timeseries::datetime::TimeZone::UTC,
        )
        .unwrap_err(),
    );
    assert!(matches!(e, ApiError::Analysis(_)));
    assert!(e.to_string().starts_with("grid analysis: "));
}

#[test]
fn error_path_schema() {
    // Via JSON: the gate fires before anything else is decoded.
    let e = EstimateRequest::from_json(
        r#"{"schema_version": 99, "system": "frontier", "region": "eso"}"#,
    )
    .unwrap_err();
    assert_eq!(
        e,
        ApiError::Schema {
            found: 99,
            supported: 1
        }
    );
    // Via a programmatically built request too.
    let mut r = quick_request(1);
    r.schema_version = 0;
    assert!(matches!(
        r.validate().unwrap_err(),
        ApiError::Schema { found: 0, .. }
    ));
}

#[test]
fn error_path_parse_every_variant() {
    // Json: syntactically broken input.
    assert!(matches!(
        EstimateRequest::from_json("{not json").unwrap_err(),
        ApiError::Parse(ParseError::Json { .. })
    ));
    // UnknownField: the strict-schema rule.
    assert!(matches!(
        EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso", "gpu_count": 4}"#
        )
        .unwrap_err(),
        ApiError::Parse(ParseError::UnknownField { .. })
    ));
    // MissingField: no region.
    assert!(matches!(
        EstimateRequest::from_json(r#"{"schema_version": 1, "system": "frontier"}"#).unwrap_err(),
        ApiError::Parse(ParseError::MissingField { field: "region" })
    ));
    // BadType: system must be a string.
    assert!(matches!(
        EstimateRequest::from_json(r#"{"schema_version": 1, "system": 9, "region": "eso"}"#)
            .unwrap_err(),
        ApiError::Parse(ParseError::BadType {
            field: "system",
            ..
        })
    ));
    // UnknownValue: vocabulary violation, message lists valid values.
    let e = EstimateRequest::from_json(
        r#"{"schema_version": 1, "system": "frontier", "region": "mars"}"#,
    )
    .unwrap_err();
    assert!(matches!(
        e,
        ApiError::Parse(ParseError::UnknownValue {
            field: "region",
            ..
        })
    ));
    assert!(e.to_string().contains("eso"), "{e}");
    // BadNumber: non-integer seed.
    assert!(matches!(
        EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso", "seed": 0.5}"#
        )
        .unwrap_err(),
        ApiError::Parse(ParseError::BadNumber { field: "seed", .. })
    ));
}

#[test]
fn error_path_invalid_request() {
    let mut r = quick_request(1);
    r.jobs = 0;
    let e = r.validate().unwrap_err();
    assert!(matches!(e, ApiError::InvalidRequest { field: "jobs", .. }));
    assert!(e.to_string().contains("jobs"), "{e}");
    let mut r = quick_request(1);
    r.cluster_gpus = 0;
    assert!(matches!(
        r.validate().unwrap_err(),
        ApiError::InvalidRequest {
            field: "cluster_gpus",
            ..
        }
    ));
}

#[test]
fn cli_and_json_share_the_typed_parsers() {
    // The same ParseError type and vocabulary serve both surfaces.
    let from_flag = api_parse::node_gen("--from", "h100").unwrap_err();
    let from_json = EstimateRequest::from_json(
        r#"{"schema_version": 1, "system": "frontier", "region": "eso",
            "upgrade": {"from": "h100", "to": "a100"}}"#,
    )
    .unwrap_err();
    match (from_flag, from_json) {
        (
            ParseError::UnknownValue {
                value: v1,
                expected: e1,
                ..
            },
            ApiError::Parse(ParseError::UnknownValue {
                value: v2,
                expected: e2,
                ..
            }),
        ) => {
            assert_eq!(v1, v2);
            assert_eq!(e1, e2);
        }
        other => panic!("expected twin UnknownValue errors, got {other:?}"),
    }
}
