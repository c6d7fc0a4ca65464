//! The response: a structured footprint report with a stable JSON form.
//!
//! A [`FootprintReport`] carries everything the paper's pipeline produces
//! for one request — the embodied breakdown, the grid-year statistics,
//! the scheduled operational carbon, the shift savings, and the upgrade
//! verdict — plus the request itself, echoed back verbatim for
//! provenance. JSON emission is hand-rolled in the `sweep::table` idiom
//! (fixed `{:.4}` metric formatting, deterministic field order), so
//! batch outputs can be `diff`ed across thread counts.

use crate::error::ApiError;
use crate::json::{esc, fmt_metric};
use crate::request::EstimateRequest;

/// The upgrade advisor's five-year-horizon verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Replace the hardware now; embodied cost amortizes in time.
    Upgrade,
    /// Keep running the old hardware past the horizon, then revisit.
    Extend,
    /// Keep the hardware; the upgrade never pays off at this grid.
    Keep,
}

impl Verdict {
    /// Stable label (also the JSON value and the sweep's CSV cell).
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Upgrade => "upgrade",
            Verdict::Extend => "extend",
            Verdict::Keep => "keep",
        }
    }
}

/// Embodied carbon of the (possibly transformed) inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbodiedSection {
    /// Total embodied carbon, tCO₂.
    pub total_t: f64,
    /// Relative embodied change of the storage what-if, % (`None` for
    /// the baseline variant).
    pub storage_delta_pct: Option<f64>,
}

/// Statistics of the simulated regional grid year.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSection {
    /// Median annual carbon intensity, gCO₂/kWh.
    pub median_g_per_kwh: f64,
    /// Coefficient of variation of the intensity trace, %.
    pub cov_pct: f64,
}

/// Operational results of the scheduled job trace.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationalSection {
    /// Total operational carbon, kgCO₂.
    pub sched_kg: f64,
    /// Total facility energy, kWh.
    pub sched_kwh: f64,
    /// Mean queue wait, hours.
    pub mean_wait_h: f64,
    /// Max queue wait, hours.
    pub max_wait_h: f64,
}

/// Carbon-aware shifting savings versus running every job at arrival.
///
/// Without a forecast on the request, `saved_*` are the perfect-knowledge
/// (oracle) numbers and the `oracle_*` fields are `None` — emission omits
/// them, so pre-forecast documents keep their exact bytes. With a
/// forecast, `saved_*` are the *realized* savings (decisions planned on
/// the forecast, carbon paid on the actual trace) and `oracle_*` carry
/// the perfect-knowledge numbers for comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftSection {
    /// Carbon saved, kgCO₂ (negative when deferral backfired).
    pub saved_kg: f64,
    /// The same savings as a percentage of the baseline.
    pub saved_pct: f64,
    /// Perfect-knowledge savings, kgCO₂ (`None` without a forecast).
    pub oracle_saved_kg: Option<f64>,
    /// Perfect-knowledge savings, % (`None` without a forecast).
    pub oracle_saved_pct: Option<f64>,
}

/// The upgrade question at the region's median intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct UpgradeSection {
    /// Annual carbon of one reference node under the request's PUE
    /// model, kgCO₂.
    pub node_annual_kg: f64,
    /// Break-even time, years (`None` when the upgrade never pays off).
    pub break_even_y: Option<f64>,
    /// Asymptotic energy saving, %.
    pub asymptotic_pct: f64,
    /// Advisor verdict at a five-year horizon.
    pub verdict: Verdict,
}

/// One estimate's full answer, including the request that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintReport {
    /// Schema version of this report (matches the request schema).
    pub schema_version: u32,
    /// The request, echoed back verbatim.
    pub request: EstimateRequest,
    /// Embodied breakdown.
    pub embodied: EmbodiedSection,
    /// Grid-year statistics.
    pub grid: GridSection,
    /// Scheduled operational results.
    pub operational: OperationalSection,
    /// Shift savings.
    pub shift: ShiftSection,
    /// Upgrade break-even and verdict.
    pub upgrade: UpgradeSection,
}

impl FootprintReport {
    /// Emits the report as a multi-line JSON object (no trailing
    /// newline). Field order and number formatting are fixed, so
    /// emission is deterministic.
    pub fn to_json(&self) -> String {
        self.to_json_padded("")
    }

    fn to_json_padded(&self, pad: &str) -> String {
        let m = fmt_metric;
        // The oracle columns appear only when the request engaged a
        // forecast, so forecast-free reports keep their exact bytes.
        let shift = match (self.shift.oracle_saved_kg, self.shift.oracle_saved_pct) {
            (None, None) => format!(
                "{{\"saved_kg\": {}, \"saved_pct\": {}}}",
                m(Some(self.shift.saved_kg)),
                m(Some(self.shift.saved_pct)),
            ),
            (kg, pct) => format!(
                "{{\"saved_kg\": {}, \"saved_pct\": {}, \"oracle_saved_kg\": {}, \"oracle_saved_pct\": {}}}",
                m(Some(self.shift.saved_kg)),
                m(Some(self.shift.saved_pct)),
                m(kg),
                m(pct),
            ),
        };
        format!(
            "{pad}{{\n\
             {pad}  \"schema_version\": {},\n\
             {pad}  \"request\": {},\n\
             {pad}  \"embodied\": {{\"total_t\": {}, \"storage_delta_pct\": {}}},\n\
             {pad}  \"grid\": {{\"median_g_per_kwh\": {}, \"cov_pct\": {}}},\n\
             {pad}  \"operational\": {{\"sched_kg\": {}, \"sched_kwh\": {}, \"mean_wait_h\": {}, \"max_wait_h\": {}}},\n\
             {pad}  \"shift\": {},\n\
             {pad}  \"upgrade\": {{\"node_annual_kg\": {}, \"break_even_y\": {}, \"asymptotic_pct\": {}, \"verdict\": {}}}\n\
             {pad}}}",
            self.schema_version,
            self.request.to_json(),
            m(Some(self.embodied.total_t)),
            m(self.embodied.storage_delta_pct),
            m(Some(self.grid.median_g_per_kwh)),
            m(Some(self.grid.cov_pct)),
            m(Some(self.operational.sched_kg)),
            m(Some(self.operational.sched_kwh)),
            m(Some(self.operational.mean_wait_h)),
            m(Some(self.operational.max_wait_h)),
            shift,
            m(Some(self.upgrade.node_annual_kg)),
            m(self.upgrade.break_even_y),
            m(Some(self.upgrade.asymptotic_pct)),
            esc(self.upgrade.verdict.label()),
        )
    }
}

/// Emits a batch result as a JSON array, one entry per request in
/// request order; infeasible requests become `{"error": "..."}` rows so
/// the array always aligns with the input batch. Ends with a newline
/// (the CLI writes it to files that CI `cmp`s).
///
/// Generic over how the reports are held (`FootprintReport` for the
/// CLI's owned batches, `Arc<FootprintReport>` for the server's cached
/// rows) — the emitted bytes are identical either way, which is what
/// lets a caching layer share reports without re-cloning them per
/// response.
pub fn batch_to_json<R: std::borrow::Borrow<FootprintReport>>(
    results: &[Result<R, ApiError>],
) -> String {
    if results.is_empty() {
        return "[]\n".to_string();
    }
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(rep) => out.push_str(&rep.borrow().to_json_padded("  ")),
            Err(e) => out.push_str(&format!("  {{\"error\": {}}}", esc(&e.to_string()))),
        }
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Estimator;
    use crate::types::SystemId;
    use hpcarbon_grid::regions::OperatorId;

    fn report() -> FootprintReport {
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.jobs = 40;
        Estimator::default().estimate(&r).unwrap()
    }

    #[test]
    fn batch_emission_aligns_errors_with_requests() {
        let ok = report();
        let row = ok.to_json_padded("  ");
        let results = vec![
            Ok(ok.clone()),
            Err(ApiError::InvalidRequest {
                field: "jobs",
                reason: "must be at least 1",
            }),
            Ok(ok),
        ];
        let json = batch_to_json(&results);
        let error = results[1].as_ref().unwrap_err().to_string();
        assert!(error.contains("jobs"), "{error}");
        assert_eq!(
            json,
            format!("[\n{row},\n  {{\"error\": {}}},\n{row}\n]\n", esc(&error))
        );
        assert_eq!(batch_to_json::<FootprintReport>(&[]), "[]\n");
        // Arc-held reports emit the same bytes as owned ones (the
        // serving layer's cached rows depend on this).
        let owned = vec![Ok(report())];
        let arced: Vec<Result<std::sync::Arc<FootprintReport>, ApiError>> = owned
            .iter()
            .map(|r| r.clone().map(std::sync::Arc::new))
            .collect();
        assert_eq!(batch_to_json(&owned), batch_to_json(&arced));
    }

    #[test]
    fn forecast_reports_round_trip_with_oracle_columns() {
        // Forecast-free reports must not mention the oracle columns…
        let plain = report();
        assert!(!plain.to_json().contains("oracle_saved"));
        // …and forecast-engaged reports carry them as numbers.
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.jobs = 40;
        r.policy = hpcarbon_sched::Policy::TemporalShift { slack_hours: 24 };
        r.forecast = Some(crate::types::ForecastModel::Persistence);
        let rep = Estimator::default().estimate(&r).unwrap();
        let json = rep.to_json();
        assert!(json.contains("\"oracle_saved_kg\": "));
        assert!(json.contains("\"oracle_saved_pct\": "));
        assert!(!json.contains("\"oracle_saved_kg\": null"), "{json}");
        assert!(!json.contains("\"oracle_saved_pct\": null"), "{json}");
    }
}
