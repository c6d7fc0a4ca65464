//! Off-path layer probe for traced runs.
//!
//! Each workload exercises only some layers. So that every traced run
//! reports every per-layer time, layers a workload's path does not call
//! are timed here directly through their public functions, on small
//! inputs drawn from the workload seed. `main` marks these values
//! `(probe)`; values measured on the workload's own path win.

use crate::client::Client;
use crate::common::{paper_request, TRACE_FIXTURE};
use crate::stages::{forecast, retime_estimate, DigestWriter, Ledger, TimedSink};
use crate::util::{median, percentile, sorted, timed, Rng};
use hpcarbon_api::providers::{
    CatalogEmbodied, DispatchIntensity, EmbodiedSource, GeneratedJobs, IntensityProvider, JobSource,
};
use hpcarbon_api::{EstimateRequest, Estimator, ForecastModel, SystemId, TraceSource, TraceStats};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::{parse_trace_csv, GapPolicy};
use hpcarbon_server::http::RequestParser;
use hpcarbon_server::EstimateService;
use hpcarbon_sweep::{CsvSink, Sweep, SweepConfig, SweepContext};
use hpcarbon_timeseries::window::WindowIndex;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

const ROUNDS: usize = 3;

fn once(rng: &mut Rng, m: &mut BTreeMap<&'static str, Vec<f64>>) {
    let mut put = |k: &'static str, v: f64| m.entry(k).or_default().push(v);
    let seed = rng.request_seed();
    let region = rng.pick(&OperatorId::ALL);
    let mut req = paper_request(rng, seed);
    req.system = SystemId::Frontier;
    req.region = region;

    let (trace, us) =
        timed(|| DispatchIntensity.year_trace(region, TraceSource::Paper, 2021, seed));
    put("grid.year_trace_us", us);
    let (w, us) = timed(|| WindowIndex::of_series(trace.series()));
    black_box(w.len());
    put("timeseries.window_index_us", us);
    let (s, us) = timed(|| TraceStats::of(&trace));
    black_box(s);
    put("api.trace_stats_us", us);
    let (jobs, us) = timed(|| GeneratedJobs.job_trace(req.jobs, seed));
    put("api.job_trace_us", us);
    let (sys, us) = timed(|| CatalogEmbodied.build_system(req.system));
    black_box(sys);
    put("core.build_system_us", us);
    let ledger = Ledger::new(false);
    retime_estimate(&req, &[Arc::clone(&trace)], Some(&jobs), &ledger);
    put("sched.sim_us", ledger.get("sched").mean_us());
    put("api.validate_us", ledger.get("validate").mean_us());
    let (f, us) = timed(|| forecast(ForecastModel::Persistence, &trace, seed));
    black_box(f.series().len());
    put("grid.forecast_us", us);

    let doc = req.to_json();
    let (parsed, us) = timed(|| EstimateRequest::from_json(&doc));
    put("api.parse_us", us);
    if let Ok(Ok(rep)) = parsed.map(|r| Estimator::default().estimate(&r)) {
        let (s, us) = timed(|| rep.to_json());
        black_box(s.len());
        put("api.render_us", us);
    }

    if let Ok(src) = std::fs::read_to_string(TRACE_FIXTURE) {
        let (p, us) = timed(|| parse_trace_csv("sample.csv", &src, GapPolicy::Reject));
        black_box(p.is_ok());
        put("grid.trace_parse_us", us);
    }

    let grid = crate::sweep::grid(seed, &[region]);
    let cfg = SweepConfig::paper_default();
    let (ctx, us) =
        timed(|| SweepContext::build_with(&grid, cfg, Some(2), Arc::new(CatalogEmbodied)));
    put("sweep.context_build_ms", us / 1e3);
    let rows: Vec<f64> = grid
        .scenarios()
        .iter()
        .map(|sc| timed(|| black_box(ctx.run(sc).is_ok())).1)
        .collect();
    let rows = sorted(rows);
    put("sweep.row_p50_us", percentile(&rows, 50.0));
    put("sweep.row_p99_us", percentile(&rows, 99.0));
    let sink_ledger = Ledger::new(false);
    let mut sink = TimedSink::new(
        CsvSink::new(DigestWriter::default()),
        Some(&sink_ledger),
        false,
    );
    black_box(
        Sweep::over(&grid)
            .config(cfg)
            .threads(1)
            .sink(&mut sink)
            .run()
            .is_ok(),
    );
    put(
        "sweep.sink_us",
        sink_ledger.get("sink").us / grid.len() as f64,
    );

    let shadow = EstimateService::new(Estimator::default(), 16);
    let bytes = Client::encode("POST", "/v1/estimate", doc.as_bytes());
    let (http, us) = timed(|| {
        let mut p = RequestParser::new(shadow.max_body_bytes());
        p.feed(&bytes);
        p.poll()
    });
    put("server.http_parse_us", us);
    if let Ok(Some(http)) = http {
        let (resp, us) = timed(|| shadow.handle(&http));
        black_box(resp.body.len());
        put("server.miss_handle_us", us);
        let (hot, us) = timed(|| shadow.try_hot(&http.body));
        black_box(hot.is_some());
        put("server.try_hot_us", us);
    }
}

/// Median over a few rounds of every probed layer time.
pub fn run(seed: u64) -> BTreeMap<&'static str, f64> {
    let mut rng = Rng::new(seed).fork(7);
    let mut samples = BTreeMap::new();
    for _ in 0..ROUNDS {
        once(&mut rng, &mut samples);
    }
    samples.into_iter().map(|(k, v)| (k, median(&v))).collect()
}
