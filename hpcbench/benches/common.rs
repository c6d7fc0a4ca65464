//! What every workload shares: the run settings, the outcome it hands
//! back, and the generator of `paper_default`-shaped requests.

use crate::util::{median, percentile, sorted, Rng};
use hpcarbon_api::{EstimateRequest, PueSpec, StorageVariant, SystemId, TraceSource, UpgradePath};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_sched::Policy;
use hpcarbon_workloads::benchmarks::Suite;
use hpcarbon_workloads::nodes::NodeGen;
use std::collections::BTreeMap;
use std::time::Duration;

/// How many times each workload repeats its set-up; the median is
/// reported as `setup_s`.
pub const SETUP_REPEATS: usize = 9;

/// The timed phase is cut into this many equal time blocks; throughput
/// and latency percentiles are the medians of the per-block values, so a
/// slow spell of the host in a minority of blocks does not move them.
pub const BLOCKS: usize = 10;

/// The committed request fixture and the report bytes it must produce.
pub const REQUEST_FIXTURE: &str = "tests/fixtures/estimate_request.json";
pub const REPORT_FIXTURE: &str = "tests/fixtures/expected_report.json";
/// The committed 8760-row measured trace.
pub const TRACE_FIXTURE: &str = "tests/fixtures/traces/sample.csv";

#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Flip one output byte before the checks run, to show that they
    /// catch a wrong output.
    pub corrupt: bool,
}

impl RunCfg {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    /// Length of the timed phase, s.
    pub elapsed_s: f64,
    /// One sample per unit: when it completed (s into the timed phase)
    /// and its latency (µs).
    pub samples: Vec<(f64, f64)>,
    pub peak_rss_mib: f64,
    /// Per-layer metrics (traced runs only), by the names in
    /// `BENCHMARK.json`.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one check: a failed check is a failed unit.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Records unit-level mismatches: each one is a failed unit.
    pub fn count_mismatches(&mut self, what: &str, mismatched: u64, of: usize) {
        self.failed += mismatched;
        if mismatched > 0 {
            self.notes
                .push(format!("CHECK FAILED: {mismatched} of {of} {what}"));
        }
    }

    /// Throughput (units/s), p50 and p99 latency (µs): each the median
    /// of its value over the [`BLOCKS`] time blocks. The per-block
    /// values are added to the notes.
    pub fn timing(&mut self) -> (f64, f64, f64) {
        let len = self.elapsed_s / BLOCKS as f64;
        let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); BLOCKS];
        for &(end_s, lat_us) in &self.samples {
            blocks[((end_s / len) as usize).min(BLOCKS - 1)].push(lat_us);
        }
        let rate: Vec<f64> = blocks.iter().map(|b| b.len() as f64 / len).collect();
        let sorted_blocks: Vec<Vec<f64>> = blocks
            .into_iter()
            .filter(|b| !b.is_empty())
            .map(sorted)
            .collect();
        let pct = |p: f64| -> Vec<f64> { sorted_blocks.iter().map(|b| percentile(b, p)).collect() };
        let (p50, p99) = (pct(50.0), pct(99.0));
        let show = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.notes
            .push(format!("block throughput: {}", show(&rate)));
        self.notes.push(format!("block p50: {}", show(&p50)));
        self.notes.push(format!("block p99: {}", show(&p99)));
        (median(&rate), median(&p50), median(&p99))
    }
}

/// The `paper_default` scenario grid's dimensions (seven regions, three
/// systems, both storage variants, two PUE models, three policies, two
/// upgrade paths), written out here so the inputs do not depend on the
/// program's own grid definition.
pub fn paper_request(rng: &mut Rng, seed: u64) -> EstimateRequest {
    let mut r =
        EstimateRequest::paper_baseline(rng.pick(&SystemId::ALL), rng.pick(&OperatorId::ALL));
    r.storage = rng.pick(&StorageVariant::ALL);
    r.source = TraceSource::Paper;
    r.pue = rng.pick(&[
        PueSpec::Constant(1.2),
        PueSpec::Seasonal {
            mean: 1.2,
            amplitude: 0.1,
        },
    ]);
    r.policy = rng.pick(&[
        Policy::Fifo,
        Policy::GreenestWindow { horizon_hours: 24 },
        Policy::ThresholdDefer {
            threshold_g_per_kwh: 150.0,
        },
    ]);
    r.upgrade = rng.pick(&[
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
    ]);
    r.seed = seed;
    r
}

/// The one infeasible combination of the grid: Perlmutter has no disk
/// tier to swap for flash, so the estimator must answer with an error.
pub fn expect_infeasible(r: &EstimateRequest) -> bool {
    r.system == SystemId::Perlmutter && r.storage == StorageVariant::AllFlash
}

/// One estimate's output bytes: the report JSON, or the error text.
pub fn render(result: &Result<hpcarbon_api::FootprintReport, hpcarbon_api::ApiError>) -> String {
    match result {
        Ok(rep) => rep.to_json(),
        Err(e) => format!("error: {e}"),
    }
}

/// Flips the low bit of the first byte of `out` (the `--corrupt` probe).
pub fn corrupt(out: &mut String) {
    let mut bytes = std::mem::take(out).into_bytes();
    if let Some(b) = bytes.first_mut() {
        *b ^= 1;
    }
    *out = String::from_utf8_lossy(&bytes).into_owned();
}

/// `1 - stages / e2e`: the share of end-to-end time no measured stage
/// accounts for. The ±15 % reconciliation rule applies to it.
pub fn unattributed(stages_us: f64, e2e_us: f64) -> f64 {
    if e2e_us <= 0.0 {
        return 0.0;
    }
    1.0 - stages_us / e2e_us
}

/// Applies the reconciliation rule and records the two traced-run
/// fractions every workload reports.
pub fn reconcile(out: &mut Outcome, stages_us: f64, traced_e2e_us: f64, overhead: f64) {
    let u = unattributed(stages_us, traced_e2e_us);
    out.notes.push(format!(
        "reconcile: stages {stages_us:.0} us of traced e2e {traced_e2e_us:.0} us \
         (unattributed {:.2}%)",
        u * 100.0
    ));
    out.check(
        "stage sums reconcile with traced e2e within 15%",
        u.abs() <= 0.15,
    );
    out.layers.insert("unattributed_frac", u);
    out.layers.insert("trace_overhead_frac", overhead);
}
