//! The result table's shape: per-scenario rows, summary statistics, and
//! the column contract.
//!
//! Emission lives in [`crate::sink`] ([`CsvSink`]/[`JsonSink`] follow
//! `COLUMNS`); summaries and rankings are folded online by
//! [`crate::SummaryAccumulator`] and returned in the
//! [`crate::SweepReport`].
//!
//! [`CsvSink`]: crate::sink::CsvSink
//! [`JsonSink`]: crate::sink::JsonSink

use crate::scenario::{Scenario, ScenarioError, ScenarioOutcome};
use hpcarbon_report::emit::MarkdownTable;

/// One evaluated grid point.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The scenario.
    pub scenario: Scenario,
    /// Its outcome, or why it was infeasible.
    pub outcome: Result<ScenarioOutcome, ScenarioError>,
}

/// Min/mean/max of one metric over the successful rows.
#[derive(Debug, Clone)]
pub struct MetricSummary {
    /// Metric name (matches the CSV column).
    pub metric: &'static str,
    /// Rows contributing (rows where the metric is defined).
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

/// CSV column order; the CSV and JSON emitters both follow it.
pub(crate) const COLUMNS: [&str; 25] = [
    "id",
    "system",
    "storage",
    "region",
    "trace",
    "pue",
    "policy",
    "upgrade",
    "seed",
    "status",
    "error",
    "embodied_t",
    "storage_delta_pct",
    "median_g_per_kwh",
    "cov_pct",
    "sched_kg",
    "sched_kwh",
    "mean_wait_h",
    "max_wait_h",
    "saved_kg",
    "saved_pct",
    "node_annual_kg",
    "break_even_y",
    "asymptotic_pct",
    "verdict",
];

/// The forecast-mode extension columns. Appended **after** `verdict`
/// only when a sink opts in ([`crate::CsvSink::forecast_columns`] /
/// [`crate::JsonSink::forecast_columns`]); the default emission stays
/// byte-identical to the frozen 25-column contract.
pub(crate) const FORECAST_COLUMNS: [&str; 2] = ["oracle_saved_kg", "oracle_saved_pct"];

/// Renders metric summaries as an aligned Markdown table.
pub(crate) fn summary_markdown(summaries: &[MetricSummary]) -> String {
    let num = |v: f64| format!("{v:.4}");
    let mut t = MarkdownTable::new(&["metric", "n", "min", "mean", "max"]);
    for s in summaries {
        t.row([
            s.metric.to_string(),
            s.count.to_string(),
            num(s.min),
            num(s.mean),
            num(s.max),
        ]);
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Sweep, SweepConfig, SweepReport};
    use crate::grid::ScenarioGrid;
    use crate::sink::{CollectSink, CsvSink, JsonSink, RowSink};
    use crate::summary::SummaryAccumulator;

    /// A streamed run of `grid`: the report, both documents, and the
    /// rows in grid order.
    struct Run {
        report: SweepReport,
        csv: String,
        json: String,
        rows: Vec<SweepRow>,
    }

    fn run(grid: &ScenarioGrid) -> Run {
        let mut csv = CsvSink::new(Vec::new());
        let mut json = JsonSink::new(Vec::new());
        let mut collect = CollectSink::new();
        let report = Sweep::over(grid)
            .config(SweepConfig::fast())
            .threads(2)
            .sink(&mut csv)
            .sink(&mut json)
            .sink(&mut collect)
            .run()
            .unwrap();
        Run {
            report,
            csv: String::from_utf8(csv.into_inner()).unwrap(),
            json: String::from_utf8(json.into_inner()).unwrap(),
            rows: collect.rows().to_vec(),
        }
    }

    fn quick() -> Run {
        run(&ScenarioGrid::quick())
    }

    /// Feeds `rows` through `sink` as one complete stream.
    fn feed(sink: &mut dyn RowSink, rows: &[SweepRow]) {
        sink.begin().unwrap();
        for r in rows {
            sink.row(r).unwrap();
        }
        sink.finish().unwrap();
    }

    fn error_row(id: usize) -> SweepRow {
        let mut sc = ScenarioGrid::quick().scenario_at(0);
        sc.id = id;
        SweepRow {
            scenario: sc,
            outcome: Err(crate::ScenarioError::InvalidPue(crate::PueSpec::Constant(
                0.5,
            ))),
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_scenario() {
        let r = quick();
        let lines: Vec<&str> = r.csv.lines().collect();
        assert_eq!(lines.len(), r.report.len() + 1);
        assert!(lines[0].starts_with("id,system,storage,region,trace,pue,policy"));
        // Every row has the full column count.
        for line in &lines {
            assert_eq!(line.split(',').count(), COLUMNS.len(), "{line}");
        }
    }

    #[test]
    fn json_is_structurally_sound() {
        let r = quick();
        assert!(r.json.starts_with("[\n"));
        assert!(r.json.ends_with("]\n"));
        assert_eq!(r.json.matches("\"status\": \"ok\"").count(), r.report.ok);
        // Balanced braces (no nesting in the emitted objects).
        assert_eq!(r.json.matches('{').count(), r.json.matches('}').count());
    }

    #[test]
    fn json_schema_is_uniform_across_ok_and_error_rows() {
        // Run a grid that contains infeasible points so both row kinds
        // appear, then check every row carries every column key.
        let r = run(&ScenarioGrid::quick().storage(crate::scenario::StorageVariant::ALL));
        assert!(r.report.errors > 0 && r.report.ok > 0);
        let rows: Vec<&str> = r
            .json
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .collect();
        assert_eq!(rows.len(), r.report.len());
        for key in super::COLUMNS {
            for row in &rows {
                assert!(
                    row.contains(&format!("\"{key}\":")),
                    "{key} missing in {row}"
                );
            }
        }
        // seed is a number, error rows null their metrics.
        assert!(r.json.contains("\"seed\": 2021,"));
        assert!(r.json.contains("\"error\": \"storage what-if"));
        assert!(r.json.contains("\"sched_kg\": null"));
    }

    #[test]
    fn rankings_are_sorted_and_bounded() {
        let r = quick();
        let top = &r.report.top;
        assert_eq!(top.len(), 5.min(r.report.ok));
        for w in top.windows(2) {
            let a = w[0].outcome.as_ref().unwrap().sched_carbon_kg;
            let b = w[1].outcome.as_ref().unwrap().sched_carbon_kg;
            assert!(a <= b);
        }
    }

    #[test]
    fn summary_covers_the_headline_metrics() {
        let r = quick();
        let s = &r.report.summary;
        assert!(s.iter().any(|m| m.metric == "sched_kg"));
        for m in s {
            assert!(m.min <= m.mean && m.mean <= m.max, "{}", m.metric);
            assert!(m.count > 0);
        }
        assert!(r.report.summary_table().contains("sched_kg"));
    }

    #[test]
    fn error_rows_anywhere_leave_summary_and_ranking_total() {
        // Error rows leading, interleaved, and trailing: the statistics
        // must come out as if only the ok rows existed.
        let base = quick().rows;
        let mut rows = vec![error_row(9000), error_row(9001)];
        for (i, r) in base.iter().enumerate() {
            rows.push(r.clone());
            if i % 3 == 0 {
                rows.push(error_row(9100 + i));
            }
        }
        rows.push(error_row(9999));
        let mut salted = SummaryAccumulator::new(5);
        feed(&mut salted, &rows);
        let mut clean = SummaryAccumulator::new(5);
        feed(&mut clean, &base);
        assert_eq!(salted.ok_count(), clean.ok_count());
        let a = salted.summary();
        let b = clean.summary();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.metric, y.metric);
            assert_eq!(x.count, y.count);
            assert_eq!(
                (x.min.to_bits(), x.mean.to_bits(), x.max.to_bits()),
                (y.min.to_bits(), y.mean.to_bits(), y.max.to_bits())
            );
        }
        let ids = |acc: &SummaryAccumulator| -> Vec<usize> {
            acc.top().iter().map(|r| r.scenario.id).collect()
        };
        assert_eq!(ids(&salted), ids(&clean));
    }

    #[test]
    fn all_error_sweep_stays_total() {
        // Every row infeasible: counts add up, the summary is empty,
        // rankings are empty, and both emitters still produce complete
        // documents.
        let rows: Vec<SweepRow> = (0..4).map(error_row).collect();
        let mut acc = SummaryAccumulator::new(5);
        feed(&mut acc, &rows);
        assert_eq!(acc.ok_count(), 0);
        assert_eq!(acc.error_count(), 4);
        assert!(acc.summary().is_empty());
        assert!(acc.top().is_empty());
        assert_eq!(summary_markdown(&acc.summary()).lines().count(), 2); // header + rule
        let mut csv = CsvSink::new(Vec::new());
        feed(&mut csv, &rows);
        assert_eq!(csv.into_inner().iter().filter(|&&b| b == b'\n').count(), 5);
        let mut json = JsonSink::new(Vec::new());
        feed(&mut json, &rows);
        let json = String::from_utf8(json.into_inner()).unwrap();
        assert!(json.starts_with("[\n") && json.ends_with("\n]\n"));
        assert_eq!(json.matches("\"status\": \"error\"").count(), 4);
    }

    #[test]
    fn greener_policies_rank_ahead_of_fifo() {
        // In the quick grid (GB + CA), greenest-window rows must beat the
        // FIFO rows from the same region/seed on scheduled carbon.
        let r = quick();
        let best = &r.report.top[0];
        assert_ne!(best.scenario.policy, hpcarbon_sched::Policy::Fifo);
    }
}
