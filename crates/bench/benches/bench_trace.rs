//! Benches for the trace layer: the dispatch simulator over a full
//! 8760-hour region-year, the strict CSV parser over a year of data, and
//! the day-ahead harmonic forecast built and scored against its actual
//! trace.
//!
//! `ci/bench_gate.sh` tracks all three medians against the committed
//! baseline — one simulated region-year is most of an uncached estimate,
//! parsing a year of real data sits on the CLI's hot path
//! (`hpcarbon trace …`, `--trace-file` sweeps), and the forecast build
//! runs once per cluster per scenario under `--forecast`.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcarbon_grid::forecast::day_ahead_harmonic_forecast;
use hpcarbon_grid::sim::simulate_year;
use hpcarbon_grid::synth::synthesize_year;
use hpcarbon_grid::tracefile::{parse_trace_csv, write_trace_csv, GapPolicy};
use hpcarbon_grid::OperatorId;
use std::hint::black_box;

fn trace(c: &mut Criterion) {
    let year = synthesize_year(OperatorId::Eso, 2021, 7);
    let csv = write_trace_csv(&year);
    let mut g = c.benchmark_group("trace");
    g.bench_function("simulate_year_8760", |b| {
        b.iter(|| black_box(simulate_year(OperatorId::Eso, 2021, black_box(7))))
    });
    g.bench_function("parse_8760", |b| {
        b.iter(|| {
            let parsed = parse_trace_csv("bench.csv", black_box(&csv), GapPolicy::Reject)
                .expect("canonical emission parses");
            black_box(parsed.trace.at_index(4000).as_g_per_kwh())
        })
    });
    g.finish();
}

fn forecast(c: &mut Criterion) {
    let actual = synthesize_year(OperatorId::Eso, 2021, 7);
    let mut g = c.benchmark_group("forecast");
    g.bench_function("day_ahead_eval", |b| {
        b.iter(|| {
            let planned = day_ahead_harmonic_forecast(black_box(&actual));
            // Score the forecast: mean absolute error over the year.
            let mut err = 0.0;
            for h in 0..8760u32 {
                err +=
                    (planned.at_index(h).as_g_per_kwh() - actual.at_index(h).as_g_per_kwh()).abs();
            }
            black_box(err / 8760.0)
        })
    });
    g.finish();
}

criterion_group!(benches, trace, forecast);
criterion_main!(benches);
