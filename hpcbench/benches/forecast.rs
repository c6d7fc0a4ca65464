//! `trace-forecast`: one caller in a closed loop. Each unit parses the
//! committed 8760-row measured trace with `parse_trace_csv`, registers it
//! as the region's file trace, and runs four file-sourced temporal-shift
//! estimates planned on persistence, day-ahead, noisy:10 and noisy:25
//! forecasts. The dispatch simulator is never called.

use crate::common::{corrupt, reconcile, render, Outcome, RunCfg, SETUP_REPEATS, TRACE_FIXTURE};
use crate::estimate::estimate_layers;
use crate::stages::{retime_estimate, traced_estimator, Ledger, ESTIMATE_STAGES};
use crate::util::{
    digest, fnv1a, mean, median_setup, peak_rss_mib, records, timed, us_since, Rng, FNV_OFFSET,
};
use hpcarbon_api::{EstimateRequest, Estimator, ForecastModel, SystemId, TraceSource};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_grid::{parse_trace_csv, GapPolicy};
use hpcarbon_sched::Policy;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODELS: [ForecastModel; 4] = [
    ForecastModel::Persistence,
    ForecastModel::DayAhead,
    ForecastModel::Noisy { error_pct: 10 },
    ForecastModel::Noisy { error_pct: 25 },
];

/// Digest of the committed trace's hourly values (f64 bits, little
/// endian), recorded from `tests/fixtures/traces/sample.csv`.
const SAMPLE_VALUES_FNV: u64 = 0x245f_41f1_3c98_c732;

fn values_digest(t: &IntensityTrace) -> u64 {
    t.series()
        .values()
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

fn request(region: OperatorId, year: i32, seed: u64, model: ForecastModel) -> EstimateRequest {
    let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, region);
    r.source = TraceSource::File;
    r.year = year;
    r.policy = Policy::TemporalShift { slack_hours: 24 };
    r.forecast = Some(model);
    r.seed = seed;
    r
}

/// One unit's outputs, the parsed trace (for the checks) and its
/// requests.
struct UnitOut {
    text: String,
    trace: Option<Arc<IntensityTrace>>,
    reqs: Vec<EstimateRequest>,
}

fn unit(src: &str, seed: u64, ledger: Option<&Arc<Ledger>>) -> UnitOut {
    let (parsed, us) = timed(|| parse_trace_csv("sample.csv", src, GapPolicy::Reject));
    let Ok(parsed) = parsed else {
        return UnitOut {
            text: "trace parse error".to_string(),
            trace: None,
            reqs: Vec::new(),
        };
    };
    let trace = Arc::new(parsed.trace);
    let builder = match ledger {
        Some(l) => {
            l.add("trace_parse", us);
            traced_estimator(l)
        }
        None => Estimator::builder(),
    };
    let est = builder
        .trace_file(parsed.operator, Arc::clone(&trace))
        .build();
    let mut text = String::new();
    let mut reqs = Vec::with_capacity(MODELS.len());
    for model in MODELS {
        let req = request(parsed.operator, parsed.year, seed, model);
        let result = est.estimate(&req);
        match ledger {
            Some(l) => {
                let (s, us) = timed(|| render(&result));
                l.add("render", us);
                text.push_str(&s);
            }
            None => text.push_str(&render(&result)),
        }
        text.push('\n');
        reqs.push(req);
    }
    UnitOut {
        text,
        trace: Some(trace),
        reqs,
    }
}

struct Pass {
    digests: Vec<u64>,
    trace_ok: Vec<bool>,
    reqs: Vec<EstimateRequest>,
    lat_us: Vec<f64>,
    end_s: Vec<f64>,
    elapsed_s: f64,
}

fn pass(src: &str, mut gen: Rng, dur: Duration, ledger: Option<&Arc<Ledger>>, bad: bool) -> Pass {
    let mut p = Pass {
        digests: records(1 << 14),
        trace_ok: records(1 << 14),
        reqs: records(1 << 16),
        lat_us: records(1 << 14),
        end_s: records(1 << 14),
        elapsed_s: 0.0,
    };
    let start = Instant::now();
    while start.elapsed() < dur {
        let seed = gen.request_seed();
        let t = Instant::now();
        let mut u = unit(src, seed, ledger);
        p.lat_us.push(us_since(t));
        p.end_s.push(start.elapsed().as_secs_f64());
        if let Some(l) = ledger {
            let traces: Vec<_> = u.trace.iter().cloned().collect();
            let jobs = l.take_jobs();
            for (i, req) in u.reqs.iter().enumerate() {
                retime_estimate(req, &traces, jobs.get(i), l);
            }
        }
        if bad && p.digests.is_empty() {
            corrupt(&mut u.text);
        }
        p.trace_ok
            .push(u.trace.as_deref().map(values_digest) == Some(SAMPLE_VALUES_FNV));
        p.digests.push(digest(u.text.as_bytes()));
        p.reqs.extend(u.reqs);
    }
    p.elapsed_s = start.elapsed().as_secs_f64();
    p
}

/// Re-estimates every unit's four requests through the batch path, with
/// the trace parsed once, and compares bytes unit by unit.
fn check_against_batch(out: &mut Outcome, src: &str, p: &Pass) {
    let Ok(parsed) = parse_trace_csv("sample.csv", src, GapPolicy::Reject) else {
        out.check("committed trace parses", false);
        return;
    };
    let est = Estimator::builder()
        .threads(2)
        .trace_file(parsed.operator, parsed.trace)
        .build();
    let mut mismatched = 0;
    for (reqs, d) in p.reqs.chunks(MODELS.len() * 8).zip(p.digests.chunks(8)) {
        let results = est.estimate_batch(reqs);
        for (rows, d) in results.chunks(MODELS.len()).zip(d) {
            let text: String = rows.iter().map(|r| render(r) + "\n").collect();
            if digest(text.as_bytes()) != *d {
                mismatched += 1;
            }
        }
    }
    out.count_mismatches(
        "units differ from the batch path",
        mismatched,
        p.digests.len(),
    );
    let bad_parse = p.trace_ok.iter().filter(|ok| !**ok).count() as u64;
    out.count_mismatches(
        "parses differ from the recorded trace digest",
        bad_parse,
        p.trace_ok.len(),
    );
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let base = Rng::new(cfg.seed);
    let (setup_s, src) = median_setup(SETUP_REPEATS, |i| {
        let src = std::fs::read_to_string(TRACE_FIXTURE).unwrap_or_default();
        black_box(
            unit(&src, base.fork(100 + i as u64).request_seed(), None)
                .text
                .len(),
        );
        src
    });
    out.setup_s = setup_s;

    let p = pass(&src, base.fork(1), cfg.duration(), None, cfg.corrupt);
    out.peak_rss_mib = peak_rss_mib();
    out.attempted = p.digests.len() as u64;
    out.elapsed_s = p.elapsed_s;
    out.samples = p
        .end_s
        .iter()
        .copied()
        .zip(p.lat_us.iter().copied())
        .collect();
    out.notes.push(format!(
        "trace-forecast: {} units ({} estimates) in {:.3} s",
        p.digests.len(),
        p.reqs.len(),
        p.elapsed_s
    ));

    if cfg.trace {
        let ledger = Ledger::new(true);
        let t = pass(&src, base.fork(1), cfg.duration(), Some(&ledger), false);
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

    check_against_batch(&mut out, &src, &p);
    out
}
