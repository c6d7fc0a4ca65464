//! `sweep-paper`: the streaming `Sweep` over the `paper_default` grid
//! with a fresh scenario seed per sweep, on two threads, into CSV and
//! JSON sinks that only digest. A unit is one row; latency is the wall
//! time of one whole sweep.

use crate::common::{expect_infeasible, reconcile, Outcome, RunCfg, SETUP_REPEATS};
use crate::stages::{retime_estimate, DigestWriter, Ledger, TimedSink};
use crate::util::{
    mean, median_setup, peak_rss_mib, percentile, records, sorted, timed, us_since, Rng,
};
use hpcarbon_api::providers::{
    CatalogEmbodied, DispatchIntensity, GeneratedJobs, IntensityProvider, JobSource,
};
use hpcarbon_api::{PueSpec, RequestKeys, StorageVariant, SystemId, TraceSource, UpgradePath};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_sched::Policy;
use hpcarbon_sweep::{CsvSink, JsonSink, ScenarioGrid, Sweep, SweepConfig, SweepContext};
use hpcarbon_workloads::benchmarks::Suite;
use hpcarbon_workloads::nodes::NodeGen;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const THREADS: usize = 2;

/// Length and FNV-1a of the seed-2021 `paper_default` grid's CSV and
/// JSON documents at `SweepConfig::fast()`, as pinned by the golden
/// sweep test.
const GOLDEN: [(u64, u64); 2] = [
    (95_050, 0xa75b_26b8_69a4_2a88),
    (281_635, 0x1fa8_2ec8_6a07_6055),
];

/// The `paper_default` grid at one scenario seed, its dimensions written
/// out here (see `common::paper_request`).
pub fn grid(seed: u64, regions: &[OperatorId]) -> ScenarioGrid {
    ScenarioGrid::new()
        .systems(SystemId::ALL)
        .storage(StorageVariant::ALL)
        .regions(regions.to_vec())
        .sources([TraceSource::Paper])
        .pues([
            PueSpec::Constant(1.2),
            PueSpec::Seasonal {
                mean: 1.2,
                amplitude: 0.1,
            },
        ])
        .policies([
            Policy::Fifo,
            Policy::GreenestWindow { horizon_hours: 24 },
            Policy::ThresholdDefer {
                threshold_g_per_kwh: 150.0,
            },
        ])
        .upgrades([
            UpgradePath {
                from: NodeGen::P100Node,
                to: NodeGen::A100Node,
                suite: Suite::Nlp,
            },
            UpgradePath {
                from: NodeGen::V100Node,
                to: NodeGen::A100Node,
                suite: Suite::Vision,
            },
        ])
        .seeds([seed])
}

/// One sweep's emitted documents, digested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Docs {
    csv: (u64, u64),
    json: (u64, u64),
    errors: usize,
}

/// Runs one sweep; returns its digested documents and when each row
/// reached the sinks.
fn sweep(
    grid: &ScenarioGrid,
    cfg: SweepConfig,
    threads: usize,
    ledger: Option<&Arc<Ledger>>,
) -> (Docs, Vec<Instant>) {
    let mut csv = TimedSink::new(CsvSink::new(DigestWriter::default()), ledger, true);
    let mut json = TimedSink::new(JsonSink::new(DigestWriter::default()), ledger, false);
    let report = Sweep::over(grid)
        .config(cfg)
        .threads(threads)
        .sink(&mut csv)
        .sink(&mut json)
        .run();
    let arrivals = csv.arrivals.take().unwrap_or_default();
    let (c, j) = (csv.inner.into_inner(), json.inner.into_inner());
    let docs = Docs {
        csv: (c.bytes, c.fnv),
        json: (j.bytes, j.fnv),
        errors: report.map_or(usize::MAX, |r| r.errors),
    };
    (docs, arrivals)
}

struct Pass {
    seeds: Vec<u64>,
    docs: Vec<Docs>,
    /// Row arrival gaps at the sinks, µs: how long the consumer waited
    /// for each row after the previous one (the first row of a sweep
    /// after the sweep started, so context build counts).
    lat_us: Vec<f64>,
    /// When each row arrived, s into the pass.
    end_s: Vec<f64>,
    /// Wall time of each whole sweep, µs.
    sweep_us: Vec<f64>,
    rows: usize,
    elapsed_s: f64,
}

fn pass(mut gen: Rng, cfg: &RunCfg, ledger: Option<&Arc<Ledger>>) -> Pass {
    let mut p = Pass {
        seeds: Vec::new(),
        docs: Vec::new(),
        lat_us: records(1 << 18),
        end_s: records(1 << 18),
        sweep_us: Vec::new(),
        rows: 0,
        elapsed_s: 0.0,
    };
    let start = Instant::now();
    while start.elapsed() < cfg.duration() {
        let seed = gen.request_seed();
        let g = grid(seed, &OperatorId::ALL);
        let t = Instant::now();
        let (mut d, arrivals) = sweep(&g, SweepConfig::paper_default(), THREADS, ledger);
        p.sweep_us.push(us_since(t));
        let mut prev = t;
        for a in arrivals {
            p.lat_us.push((a - prev).as_nanos() as f64 / 1e3);
            p.end_s.push((a - start).as_secs_f64());
            prev = a;
        }
        if cfg.corrupt && p.docs.is_empty() {
            d.csv.1 ^= 1;
        }
        p.rows += g.len();
        p.seeds.push(seed);
        p.docs.push(d);
    }
    p.elapsed_s = start.elapsed().as_secs_f64();
    p
}

/// Every sweep must equal a one-thread reference run of the same grid,
/// and fail soft on exactly the infeasible rows. References run two at
/// a time, one per core.
fn check(out: &mut Outcome, p: &Pass) {
    let mut mismatched = 0;
    for (seeds, docs) in p.seeds.chunks(2).zip(p.docs.chunks(2)) {
        let refs: Vec<Docs> = std::thread::scope(|s| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    s.spawn(move || {
                        sweep(
                            &grid(seed, &OperatorId::ALL),
                            SweepConfig::paper_default(),
                            1,
                            None,
                        )
                        .0
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference sweep thread panicked"))
                .collect()
        });
        for ((seed, got), want) in seeds.iter().zip(docs).zip(refs) {
            let g = grid(*seed, &OperatorId::ALL);
            let infeasible = g
                .scenarios()
                .iter()
                .filter(|sc| expect_infeasible(&sc.to_request(&SweepConfig::paper_default())))
                .count();
            if *got != want || got.errors != infeasible {
                mismatched += g.len() as u64;
            }
        }
    }
    out.count_mismatches(
        "rows sit in sweeps that differ from the one-thread reference",
        mismatched,
        p.rows,
    );
    let (golden, _) = sweep(
        &grid(2021, &OperatorId::ALL),
        SweepConfig::fast(),
        THREADS,
        None,
    );
    out.check(
        "seed-2021 paper_default grid matches the pinned golden digests",
        golden.csv == GOLDEN[0] && golden.json == GOLDEN[1],
    );
}

/// The traced breakdown, re-timed on the first sweeps' grids: context
/// build, each row through `SweepContext::run`, the scheduling stage of
/// each row, and the sinks; reconciled against a one-thread sweep of the
/// same grids, where stage times add up to wall time.
fn traced(out: &mut Outcome, cfg: &RunCfg, untraced: &Pass) {
    let ledger = Ledger::new(false);
    let t = pass(Rng::new(cfg.seed).fork(1), cfg, Some(&ledger));
    let n = t.docs.len().min(untraced.docs.len());
    out.check(
        "traced and untraced passes emit identical bytes",
        t.docs[..n] == untraced.docs[..n],
    );
    let sink = ledger.get("sink");
    out.layers
        .insert("sweep.sink_us", sink.us / t.rows.max(1) as f64);

    let serial = Ledger::new(false);
    let sched = Ledger::new(false);
    let mut rows_us = Vec::new();
    let (mut wall_1t, mut ctx_ms, mut traces, mut rows) = (0.0, Vec::new(), 0usize, 0usize);
    let cfg_sw = SweepConfig::paper_default();
    for &seed in t.seeds.iter().take(2) {
        let g = grid(seed, &OperatorId::ALL);
        let (_, us) = timed(|| sweep(&g, cfg_sw, 1, Some(&serial)));
        wall_1t += us;
        let (ctx, us) =
            timed(|| SweepContext::build_with(&g, cfg_sw, Some(1), Arc::new(CatalogEmbodied)));
        serial.add("context_build", us);
        let (ctx2, us2) = timed(|| {
            SweepContext::build_with(&g, cfg_sw, Some(THREADS), Arc::new(CatalogEmbodied))
        });
        black_box(ctx2.trace_count());
        ctx_ms.push(us2 / 1e3);
        traces += ctx.trace_count();
        let mut inputs = BTreeMap::new();
        for sc in g.scenarios() {
            let (r, us) = timed(|| ctx.run(&sc));
            black_box(r.is_ok());
            serial.add("row", us);
            rows_us.push(us);
            rows += 1;
            let req = sc.to_request(&cfg_sw);
            let keys = RequestKeys::of(&req);
            let (trace, jobs) = inputs.entry((keys.trace, keys.jobs)).or_insert_with(|| {
                let (region, source, year, s) = keys.trace;
                (
                    DispatchIntensity.year_trace(region, source, year, s),
                    GeneratedJobs.job_trace(keys.jobs.0, keys.jobs.1),
                )
            });
            if !expect_infeasible(&req) {
                retime_estimate(&req, &[Arc::clone(trace)], Some(jobs), &sched);
            }
        }
    }
    let rows_sorted = sorted(rows_us);
    out.layers
        .insert("sweep.context_build_ms", crate::util::median(&ctx_ms));
    out.layers
        .insert("sweep.row_p50_us", percentile(&rows_sorted, 50.0));
    out.layers
        .insert("sweep.row_p99_us", percentile(&rows_sorted, 99.0));
    out.layers
        .insert("sched.sim_us", sched.get("sched").mean_us());
    out.layers.insert(
        "sched.sim_runs_per_unit",
        sched.get("sched").calls as f64 / rows.max(1) as f64,
    );
    out.layers
        .insert("api.validate_us", sched.get("validate").mean_us());
    out.layers.insert(
        "grid.year_trace_calls_per_unit",
        traces as f64 / rows.max(1) as f64,
    );

    let rate_1t = rows as f64 / (wall_1t / 1e6);
    let rate_2t = untraced.rows as f64 / untraced.elapsed_s;
    out.layers.insert(
        "sweep.parallel_efficiency",
        rate_2t / (THREADS as f64 * rate_1t),
    );
    out.notes.push(format!(
        "sweep: {rows} rows re-timed; one-thread {rate_1t:.1} rows/s, two-thread {rate_2t:.1} rows/s; \
         sched {} runs",
        sched.get("sched").calls
    ));
    let stages = serial.sum_us(&["context_build", "row", "sink"]);
    let overhead = mean(&t.lat_us) / mean(&untraced.lat_us) - 1.0;
    reconcile(out, stages, wall_1t, overhead);
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let base = Rng::new(cfg.seed);
    let (setup_s, ()) = median_setup(SETUP_REPEATS, |i| {
        let mut g = base.fork(100 + i as u64);
        let seed = g.request_seed();
        black_box(grid(seed, &OperatorId::ALL).scenarios().len());
        let warm = grid(seed, &[OperatorId::ALL[i % OperatorId::ALL.len()]]);
        black_box(sweep(&warm, SweepConfig::paper_default(), THREADS, None));
    });
    out.setup_s = setup_s;

    let p = pass(base.fork(1), cfg, None);
    out.peak_rss_mib = peak_rss_mib();
    out.attempted = p.rows as u64;
    out.elapsed_s = p.elapsed_s;
    out.samples = p
        .end_s
        .iter()
        .copied()
        .zip(p.lat_us.iter().copied())
        .collect();
    out.notes.push(format!(
        "sweep-paper: {} sweeps, {} rows in {:.3} s on {THREADS} threads; \
         median sweep {:.0} us; latency is the gap between rows reaching the sinks",
        p.docs.len(),
        p.rows,
        p.elapsed_s,
        crate::util::median(&p.sweep_us)
    ));
    if cfg.trace {
        traced(&mut out, cfg, &p);
    }
    check(&mut out, &p);
    out
}
