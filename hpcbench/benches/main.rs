//! The repository benchmark: end-to-end metrics of four workloads over
//! the estimate, serve, sweep and trace-ingestion paths, and, in a
//! separate traced run, the per-layer ledger that explains them.
//!
//! ```text
//! cargo run --release --offline --manifest-path hpcbench/Cargo.toml -- \
//!     --workload estimate-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root (it reads the committed fixtures under
//! `tests/fixtures/`). Human-readable lines come first; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, with `--trace 1` the per-layer ones. The exit code
//! is 0 only when every output check passed.

mod client;
mod common;
mod estimate;
mod forecast;
mod probe;
mod serve;
mod stages;
mod sweep;
mod util;

use common::{Outcome, RunCfg};
use std::process::ExitCode;

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("ok_frac", "frac"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: name, unit.
const PER_LAYER: [(&str, &str); 28] = [
    ("grid.year_trace_us", "us"),
    ("grid.year_trace_calls_per_unit", "count"),
    ("grid.year_trace_calls_per_miss", "count"),
    ("timeseries.window_index_us", "us"),
    ("api.trace_stats_us", "us"),
    ("api.parse_us", "us"),
    ("api.validate_us", "us"),
    ("api.render_us", "us"),
    ("api.job_trace_us", "us"),
    ("core.build_system_us", "us"),
    ("sched.sim_us", "us"),
    ("sched.sim_runs_per_unit", "count"),
    ("grid.trace_parse_us", "us"),
    ("grid.forecast_us", "us"),
    ("sweep.context_build_ms", "ms"),
    ("sweep.row_p50_us", "us"),
    ("sweep.row_p99_us", "us"),
    ("sweep.sink_us", "us"),
    ("sweep.parallel_efficiency", "frac"),
    ("server.http_parse_us", "us"),
    ("server.try_hot_us", "us"),
    ("server.miss_handle_us", "us"),
    ("server.worker_wait_frac", "frac"),
    ("server.hot_hit_frac", "frac"),
    ("server.cache_hit_frac", "frac"),
    ("server.wakeups_per_request", "count"),
    ("unattributed_frac", "frac"),
    ("trace_overhead_frac", "frac"),
];

const WORKLOADS: [&str; 4] = [
    "estimate-cold",
    "serve-mixed",
    "sweep-paper",
    "trace-forecast",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: hpcbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--corrupt]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<(String, RunCfg)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--workload" => workload = Some(value?.clone()),
            "--seed" => cfg.seed = value?.parse().ok()?,
            "--seconds" => cfg.seconds = value?.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => cfg.trace = value?.parse::<u8>().ok()? == 1,
            "--corrupt" => {
                cfg.corrupt = true;
                i += 1;
                continue;
            }
            _ => return None,
        }
        i += 2;
    }
    Some((workload?, cfg))
}

/// A JSON number; non-finite values cannot be encoded and read as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let Some((workload, cfg)) = parse_args() else {
        return usage();
    };
    let mut out: Outcome = match workload.as_str() {
        "estimate-cold" => estimate::run(&cfg),
        "serve-mixed" => serve::run(&cfg),
        "sweep-paper" => sweep::run(&cfg),
        "trace-forecast" => forecast::run(&cfg),
        _ => return usage(),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let metrics: Vec<(&str, f64, &str)> = if cfg.trace {
        let probed = probe::run(cfg.seed);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (v, from) = match (out.layers.get(name), probed.get(name)) {
                    (Some(&v), _) => (v, "path"),
                    (None, Some(&v)) => (v, "probe"),
                    (None, None) => (0.0, "n/a"),
                };
                out.notes
                    .push(format!("per-layer {name:<32} {v:>14.4} {unit:<6} ({from})"));
                (name, v, unit)
            })
            .collect()
    } else {
        let ok_frac = if out.attempted == 0 {
            0.0
        } else {
            1.0 - (out.failed as f64 / out.attempted as f64).min(1.0)
        };
        let (throughput, p50, p99) = out.timing();
        let values = [out.setup_s, throughput, p50, p99, ok_frac, out.peak_rss_mib];
        out.notes.push(format!(
            "latency samples: {} in {:.3} s, {} blocks (p99 has {} beyond it per block); \
             error_frac {:.6} ({} of {}); {cores} cores available",
            out.samples.len(),
            out.elapsed_s,
            common::BLOCKS,
            out.samples.len() / common::BLOCKS / 100,
            1.0 - ok_frac,
            out.failed,
            out.attempted
        ));
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| {
                out.notes
                    .push(format!("end-to-end {name:<18} {v:>14.4} {unit}"));
                (name, v, unit)
            })
            .collect()
    };

    for line in &out.notes {
        println!("# {line}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
