//! Per-layer timing from outside the program.
//!
//! Layers the estimator calls internally are timed by decorating the
//! public provider traits ([`IntensityProvider`], [`JobSource`],
//! [`EmbodiedSource`]) and the sweep's [`RowSink`]. Stages with no trait
//! (validation, trace stats, the window index, forecasts, the scheduling
//! simulation) are re-timed after each unit, outside its timed span, by
//! calling the same public functions on the same inputs.

use crate::util::{fnv1a, timed, FNV_OFFSET};
use hpcarbon_api::context::partner_region;
use hpcarbon_api::providers::{
    CatalogEmbodied, DispatchIntensity, EmbodiedSource, GeneratedJobs, IntensityProvider, JobSource,
};
use hpcarbon_api::{EstimateRequest, ForecastModel, SystemId, TraceSource, TraceStats};
use hpcarbon_core::systems::HpcSystem;
use hpcarbon_grid::forecast::{
    day_ahead_harmonic_forecast, noisy_oracle_forecast, persistence_forecast,
};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_sched::{shift_savings, summarize_shift_savings, Cluster, Job, Policy, Simulation};
use hpcarbon_sim::rng::SimRng;
use hpcarbon_sweep::{RowSink, SinkDigest, SweepRow};
use hpcarbon_timeseries::window::WindowIndex;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Calls and busy time of one stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stage {
    pub calls: u64,
    pub us: f64,
}

impl Stage {
    pub fn mean_us(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.us / self.calls as f64
        }
    }
}

/// Stages that make up one estimate when summed. `window_index` is left
/// out: it is a child span of `year_trace`.
pub const ESTIMATE_STAGES: [&str; 11] = [
    "parse",
    "validate",
    "build_system",
    "part_spec",
    "year_trace",
    "trace_stats",
    "job_trace",
    "forecast",
    "sched",
    "render",
    "trace_parse",
];

/// Shared stage totals, plus (when `keep` is set) the traces and job
/// lists the decorated providers handed out, for re-timing.
#[derive(Debug, Default)]
pub struct Ledger {
    stages: Mutex<BTreeMap<&'static str, Stage>>,
    keep: bool,
    traces: Mutex<Vec<Arc<IntensityTrace>>>,
    jobs: Mutex<Vec<Arc<Vec<Job>>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Ledger {
    pub fn new(keep: bool) -> Arc<Ledger> {
        Arc::new(Ledger {
            keep,
            ..Ledger::default()
        })
    }

    pub fn add(&self, name: &'static str, us: f64) {
        let mut s = lock(&self.stages);
        let e = s.entry(name).or_default();
        e.calls += 1;
        e.us += us;
    }

    pub fn get(&self, name: &str) -> Stage {
        lock(&self.stages).get(name).copied().unwrap_or_default()
    }

    pub fn sum_us(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n).us).sum()
    }

    pub fn take_traces(&self) -> Vec<Arc<IntensityTrace>> {
        std::mem::take(&mut *lock(&self.traces))
    }

    pub fn take_jobs(&self) -> Vec<Arc<Vec<Job>>> {
        std::mem::take(&mut *lock(&self.jobs))
    }
}

/// [`DispatchIntensity`] with every `year_trace` call timed.
pub struct TimedIntensity(pub Arc<Ledger>);

impl IntensityProvider for TimedIntensity {
    fn year_trace(
        &self,
        region: OperatorId,
        source: TraceSource,
        year: i32,
        seed: u64,
    ) -> Arc<IntensityTrace> {
        let t = Instant::now();
        let trace = DispatchIntensity.year_trace(region, source, year, seed);
        self.0.add("year_trace", crate::util::us_since(t));
        if self.0.keep {
            lock(&self.0.traces).push(Arc::clone(&trace));
        }
        trace
    }
}

/// [`GeneratedJobs`] with every `job_trace` call timed.
pub struct TimedJobs(pub Arc<Ledger>);

impl JobSource for TimedJobs {
    fn job_trace(&self, count: usize, seed: u64) -> Arc<Vec<Job>> {
        let t = Instant::now();
        let jobs = GeneratedJobs.job_trace(count, seed);
        self.0.add("job_trace", crate::util::us_since(t));
        if self.0.keep {
            lock(&self.0.jobs).push(Arc::clone(&jobs));
        }
        jobs
    }
}

/// [`CatalogEmbodied`] with `build_system` and `part_spec` timed.
pub struct TimedEmbodied(pub Arc<Ledger>);

impl EmbodiedSource for TimedEmbodied {
    fn build_system(&self, system: SystemId) -> HpcSystem {
        let t = Instant::now();
        let s = CatalogEmbodied.build_system(system);
        self.0.add("build_system", crate::util::us_since(t));
        s
    }

    fn part_spec(&self, part: hpcarbon_core::db::PartId) -> hpcarbon_core::db::PartSpec {
        let t = Instant::now();
        let s = CatalogEmbodied.part_spec(part);
        self.0.add("part_spec", crate::util::us_since(t));
        s
    }
}

/// The default estimator with all three decorated providers.
pub fn traced_estimator(ledger: &Arc<Ledger>) -> hpcarbon_api::EstimatorBuilder {
    hpcarbon_api::Estimator::builder()
        .intensity(TimedIntensity(Arc::clone(ledger)))
        .jobs(TimedJobs(Arc::clone(ledger)))
        .embodied(TimedEmbodied(Arc::clone(ledger)))
}

/// An `io::Write` that keeps only the length and FNV-1a digest of what
/// passes through it.
#[derive(Debug, Clone, Copy)]
pub struct DigestWriter {
    pub bytes: u64,
    pub fnv: u64,
}

impl Default for DigestWriter {
    fn default() -> DigestWriter {
        DigestWriter {
            bytes: 0,
            fnv: FNV_OFFSET,
        }
    }
}

impl io::Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        self.fnv = fnv1a(self.fnv, buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A [`RowSink`] decorator timing every call into the inner sink and,
/// when `arrivals` is set, recording when each row reached it.
pub struct TimedSink<S> {
    pub inner: S,
    pub ledger: Option<Arc<Ledger>>,
    pub arrivals: Option<Vec<Instant>>,
}

impl<S: RowSink> TimedSink<S> {
    pub fn new(inner: S, ledger: Option<&Arc<Ledger>>, arrivals: bool) -> TimedSink<S> {
        TimedSink {
            inner,
            ledger: ledger.cloned(),
            arrivals: arrivals.then(Vec::new),
        }
    }

    fn time<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        match &self.ledger {
            None => f(&mut self.inner),
            Some(l) => {
                let (out, us) = timed(|| f(&mut self.inner));
                l.add("sink", us);
                out
            }
        }
    }
}

impl<S: RowSink> RowSink for TimedSink<S> {
    fn begin(&mut self) -> io::Result<()> {
        self.time(|s| s.begin())
    }

    fn row(&mut self, row: &SweepRow) -> io::Result<()> {
        if let Some(a) = &mut self.arrivals {
            a.push(Instant::now());
        }
        self.time(|s| s.row(row))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.time(|s| s.finish())
    }

    fn digest(&self) -> Option<SinkDigest> {
        self.inner.digest()
    }
}

/// The planning trace the estimator builds for `model`.
pub fn forecast(
    model: ForecastModel,
    actual: &Arc<IntensityTrace>,
    seed: u64,
) -> Arc<IntensityTrace> {
    match model {
        ForecastModel::Oracle => Arc::clone(actual),
        ForecastModel::Persistence => Arc::new(persistence_forecast(actual)),
        ForecastModel::DayAhead => Arc::new(day_ahead_harmonic_forecast(actual)),
        ForecastModel::Noisy { error_pct } => {
            Arc::new(noisy_oracle_forecast(actual, error_pct, seed))
        }
    }
}

/// One scheduling run plus its shift-savings accounting.
fn sched_run(clusters: &[Cluster], policy: Policy, jobs: &[Job]) -> f64 {
    match Simulation::multi_region(clusters.to_vec(), policy, jobs).try_run() {
        Ok(sim) => summarize_shift_savings(&shift_savings(&sim, jobs, clusters)).saved_kg,
        Err(_) => 0.0,
    }
}

/// Re-times, on the inputs one estimate of `req` just used, the stages
/// the estimator runs without a trait seam: validation, trace stats, the
/// window index (child of `year_trace`), forecasts and the scheduling
/// simulation. `traces` are the primary (and partner) traces in the
/// order the estimator fetched them; empty when the request failed
/// before reaching the grid layer.
pub fn retime_estimate(
    req: &EstimateRequest,
    traces: &[Arc<IntensityTrace>],
    jobs: Option<&Arc<Vec<Job>>>,
    ledger: &Ledger,
) {
    let (v, us) = timed(|| req.validate());
    black_box(v.is_ok());
    ledger.add("validate", us);
    let Some(primary) = traces.first() else {
        return;
    };
    let (s, us) = timed(|| TraceStats::of(primary));
    black_box(s);
    ledger.add("trace_stats", us);
    for t in traces {
        let (w, us) = timed(|| WindowIndex::of_series(t.series()));
        black_box(w.len());
        ledger.add("window_index", us);
    }
    let Some(jobs) = jobs else {
        return;
    };
    let pue = req.pue.mean_value();
    let regions = [req.region, partner_region(req.region)];
    let clusters: Vec<Cluster> = traces
        .iter()
        .zip(regions)
        .map(|(t, region)| {
            let mut c = Cluster::new(region.info().short, Arc::clone(t), req.cluster_gpus);
            c.pue = pue;
            c
        })
        .collect();
    let (k, us) = timed(|| sched_run(&clusters, req.policy, jobs));
    black_box(k);
    ledger.add("sched", us);
    if let Some(model) = req.forecast {
        let base = SimRng::seed_from(req.seed).substream("forecast");
        let planned: Vec<Cluster> = clusters
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (f, us) = timed(|| forecast(model, &c.trace, base.fork(i as u64).seed()));
                ledger.add("forecast", us);
                c.clone().with_forecast(f)
            })
            .collect();
        let (k, us) = timed(|| sched_run(&planned, req.policy, jobs));
        black_box(k);
        ledger.add("sched", us);
    }
}
