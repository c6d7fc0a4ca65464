//! `estimate-cold`: one caller in a closed loop, each unit a
//! `paper_default` request document with a fresh seed, parsed, estimated
//! and rendered. No region-year is shared between units, so the trace
//! layer does most of the work and no memo or cache can help.

use crate::common::{
    corrupt, expect_infeasible, paper_request, reconcile, render, Outcome, RunCfg, REPORT_FIXTURE,
    REQUEST_FIXTURE, SETUP_REPEATS,
};
use crate::stages::{retime_estimate, traced_estimator, Ledger, ESTIMATE_STAGES};
use crate::util::{digest, mean, median_setup, peak_rss_mib, records, timed, us_since, Rng};
use hpcarbon_api::{batch_to_json, EstimateRequest, Estimator};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One pass of the timed loop.
struct Pass {
    reqs: Vec<EstimateRequest>,
    digests: Vec<u64>,
    lat_us: Vec<f64>,
    end_s: Vec<f64>,
    elapsed_s: f64,
}

fn unit(est: &Estimator, doc: &str, ledger: Option<&Ledger>) -> String {
    match ledger {
        None => match EstimateRequest::from_json(doc) {
            Ok(r) => render(&est.estimate(&r)),
            Err(e) => format!("parse error: {e}"),
        },
        Some(l) => {
            let (parsed, us) = timed(|| EstimateRequest::from_json(doc));
            l.add("parse", us);
            let result = match parsed {
                Ok(r) => est.estimate(&r),
                Err(e) => return format!("parse error: {e}"),
            };
            let (s, us) = timed(|| render(&result));
            l.add("render", us);
            s
        }
    }
}

fn pass(
    est: &Estimator,
    mut gen: Rng,
    dur: Duration,
    ledger: Option<&Arc<Ledger>>,
    bad: bool,
) -> Pass {
    let mut p = Pass {
        reqs: records(1 << 16),
        digests: records(1 << 16),
        lat_us: records(1 << 16),
        end_s: records(1 << 16),
        elapsed_s: 0.0,
    };
    let start = Instant::now();
    while start.elapsed() < dur {
        let seed = gen.request_seed();
        let req = paper_request(&mut gen, seed);
        let doc = req.to_json();
        let t = Instant::now();
        let mut s = unit(est, &doc, ledger.map(|l| &**l));
        p.lat_us.push(us_since(t));
        p.end_s.push(start.elapsed().as_secs_f64());
        if let Some(l) = ledger {
            let traces = l.take_traces();
            let jobs = l.take_jobs();
            retime_estimate(&req, &traces, jobs.first(), l);
        }
        if bad && p.reqs.is_empty() {
            corrupt(&mut s);
        }
        p.digests.push(digest(s.as_bytes()));
        p.reqs.push(req);
    }
    p.elapsed_s = start.elapsed().as_secs_f64();
    p
}

/// Re-estimates every unit through the batch path (two threads, hoisted
/// context, no document parse) and compares bytes unit by unit. Also
/// checks that errors appear exactly on the infeasible combination.
fn check_against_batch(out: &mut Outcome, p: &Pass) {
    let est = Estimator::builder().threads(2).build();
    let mut mismatched = 0;
    for (chunk, digests) in p.reqs.chunks(32).zip(p.digests.chunks(32)) {
        for ((req, res), d) in chunk.iter().zip(est.estimate_batch(chunk)).zip(digests) {
            let s = render(&res);
            let infeasible_ok = s.starts_with("error: ") == expect_infeasible(req);
            if digest(s.as_bytes()) != *d || !infeasible_ok {
                mismatched += 1;
            }
        }
    }
    out.count_mismatches(
        "estimates differ from the batch path",
        mismatched,
        p.reqs.len(),
    );
}

/// The committed request fixture must still produce the committed
/// report bytes.
pub fn check_fixture(out: &mut Outcome) {
    let ok = (|| {
        let req = std::fs::read_to_string(REQUEST_FIXTURE).ok()?;
        let want = std::fs::read_to_string(REPORT_FIXTURE).ok()?;
        let reqs = EstimateRequest::batch_from_json(&req).ok()?;
        let got = batch_to_json(
            &Estimator::builder()
                .threads(1)
                .build()
                .estimate_batch(&reqs),
        );
        Some(got == want)
    })();
    out.check(
        "committed request fixture reproduces expected_report.json",
        ok == Some(true),
    );
}

/// Per-layer metrics from a ledger filled by estimate-shaped units.
/// Times are only set for stages the path called; counts always are.
pub fn estimate_layers(out: &mut Outcome, l: &Ledger, units: f64) {
    for (metric, stage) in [
        ("grid.year_trace_us", "year_trace"),
        ("timeseries.window_index_us", "window_index"),
        ("api.trace_stats_us", "trace_stats"),
        ("api.parse_us", "parse"),
        ("api.validate_us", "validate"),
        ("api.render_us", "render"),
        ("api.job_trace_us", "job_trace"),
        ("core.build_system_us", "build_system"),
        ("sched.sim_us", "sched"),
        ("grid.trace_parse_us", "trace_parse"),
        ("grid.forecast_us", "forecast"),
    ] {
        let s = l.get(stage);
        if s.calls > 0 {
            out.layers.insert(metric, s.mean_us());
        }
        out.notes.push(format!(
            "layer {stage:>13}: {:>7} calls, {:>12.1} us total, {:>10.2} us/call",
            s.calls,
            s.us,
            s.mean_us()
        ));
    }
    let units = units.max(1.0);
    out.layers.insert(
        "grid.year_trace_calls_per_unit",
        l.get("year_trace").calls as f64 / units,
    );
    out.layers.insert(
        "sched.sim_runs_per_unit",
        l.get("sched").calls as f64 / units,
    );
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let base = Rng::new(cfg.seed);
    let (setup_s, est) = median_setup(SETUP_REPEATS, |i| {
        let est = Estimator::builder().build();
        let mut warm = base.fork(100 + i as u64);
        let seed = warm.request_seed();
        let mut req = paper_request(&mut warm, seed);
        req.system = hpcarbon_api::SystemId::Frontier;
        black_box(unit(&est, &req.to_json(), None));
        est
    });
    out.setup_s = setup_s;

    let p = pass(&est, base.fork(1), cfg.duration(), None, cfg.corrupt);
    out.peak_rss_mib = peak_rss_mib();
    out.attempted = p.reqs.len() as u64;
    out.elapsed_s = p.elapsed_s;
    out.samples = p
        .end_s
        .iter()
        .copied()
        .zip(p.lat_us.iter().copied())
        .collect();
    let infeasible = p.reqs.iter().filter(|r| expect_infeasible(r)).count();
    out.notes.push(format!(
        "estimate-cold: {} estimates in {:.3} s ({infeasible} expected infeasible rows)",
        p.reqs.len(),
        p.elapsed_s
    ));

    if cfg.trace {
        let ledger = Ledger::new(true);
        let est = traced_estimator(&ledger).build();
        let t = pass(&est, base.fork(1), cfg.duration(), Some(&ledger), false);
        let n = t.digests.len().min(p.digests.len());
        out.check(
            "traced and untraced passes emit identical bytes",
            t.digests[..n] == p.digests[..n],
        );
        let e2e: f64 = t.lat_us.iter().sum();
        let overhead = mean(&t.lat_us) / mean(&p.lat_us) - 1.0;
        estimate_layers(&mut out, &ledger, t.lat_us.len() as f64);
        reconcile(&mut out, ledger.sum_us(&ESTIMATE_STAGES), e2e, overhead);
    }

    check_against_batch(&mut out, &p);
    check_fixture(&mut out);
    out
}
