//! The carbontracker-equivalent: predict and account training-run carbon.
//!
//! The paper "uses the carbontracker tool to measure a system's
//! operational carbon footprint while running certain benchmark suites".
//! carbontracker's core trick: measure the energy of the first training
//! epoch(s), extrapolate to the full run, and convert energy to carbon
//! with the local grid intensity. This module reproduces that pipeline on
//! top of `hpcarbon-grid` traces.

use hpcarbon_core::operational::Pue;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_units::{CarbonIntensity, CarbonMass, Energy, TimeSpan};

/// One measured epoch: how long it took and the IT energy it consumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMeasurement {
    /// Wall-clock duration of the epoch.
    pub duration: TimeSpan,
    /// IT-equipment energy consumed.
    pub energy: Energy,
}

/// Prediction for a full training run extrapolated from measured epochs.
#[derive(Debug, Clone, Copy)]
pub struct RunPrediction {
    /// Total predicted IT energy.
    pub energy: Energy,
    /// Total predicted duration.
    pub duration: TimeSpan,
    /// Predicted operational carbon (facility level).
    pub carbon: CarbonMass,
}

/// Carbon accounting for a training run, in the style of carbontracker.
#[derive(Debug, Clone)]
pub struct CarbonTracker {
    pue: Pue,
    measured: Vec<EpochMeasurement>,
}

impl CarbonTracker {
    /// Creates a tracker with the facility PUE.
    pub fn new(pue: Pue) -> CarbonTracker {
        CarbonTracker {
            pue,
            measured: Vec::new(),
        }
    }

    /// Records one measured epoch.
    pub fn record_epoch(&mut self, m: EpochMeasurement) {
        assert!(
            m.duration.as_hours() > 0.0 && m.energy.as_kwh() >= 0.0,
            "epoch must have positive duration and non-negative energy"
        );
        self.measured.push(m);
    }

    /// Number of epochs measured so far.
    pub fn epochs_measured(&self) -> usize {
        self.measured.len()
    }

    /// Total measured IT energy.
    pub fn measured_energy(&self) -> Energy {
        self.measured.iter().map(|m| m.energy).sum()
    }

    /// Total measured duration.
    pub fn measured_duration(&self) -> TimeSpan {
        self.measured
            .iter()
            .map(|m| m.duration)
            .fold(TimeSpan::ZERO, |a, b| a + b)
    }

    /// carbontracker-style prediction: extrapolate measured epochs to
    /// `total_epochs` and convert at a constant intensity.
    ///
    /// # Panics
    /// If nothing was measured or `total_epochs` is smaller than the
    /// measured count.
    pub fn predict(&self, total_epochs: usize, intensity: CarbonIntensity) -> RunPrediction {
        assert!(!self.measured.is_empty(), "measure at least one epoch");
        assert!(
            total_epochs >= self.measured.len(),
            "total epochs below measured count"
        );
        let k = total_epochs as f64 / self.measured.len() as f64;
        let energy = self.measured_energy() * k;
        let duration = self.measured_duration() * k;
        let facility = self.pue.apply(energy);
        RunPrediction {
            energy,
            duration,
            carbon: intensity * facility,
        }
    }

    /// Accounts the *actual* carbon of a run against an hourly intensity
    /// trace: the run starts at `start_hour` (hour-of-year) and consumes
    /// energy at a constant rate for `duration`. Each hour of the run is
    /// priced at that hour's intensity — the time-varying version of Eq. 6.
    pub fn account_against_trace(
        &self,
        trace: &IntensityTrace,
        start_hour: u32,
        energy: Energy,
        duration: TimeSpan,
    ) -> CarbonMass {
        assert!(duration.as_hours() > 0.0, "duration must be positive");
        let facility = self.pue.apply(energy);
        let rate_kwh_per_h = facility.as_kwh() / duration.as_hours();
        let hours = duration.as_hours();
        let n_full = hours.floor() as u32;
        let mut grams = 0.0;
        let len = trace.series().len() as u32;
        for k in 0..n_full {
            let idx = (start_hour + k) % len;
            grams += rate_kwh_per_h * trace.at_index(idx).as_g_per_kwh();
        }
        let frac = hours - f64::from(n_full);
        if frac > 0.0 {
            let idx = (start_hour + n_full) % len;
            grams += rate_kwh_per_h * frac * trace.at_index(idx).as_g_per_kwh();
        }
        CarbonMass::from_g(grams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_timeseries::series::HourlySeries;

    fn epoch(hours: f64, kwh: f64) -> EpochMeasurement {
        EpochMeasurement {
            duration: TimeSpan::from_hours(hours),
            energy: Energy::from_kwh(kwh),
        }
    }

    #[test]
    fn prediction_extrapolates_linearly() {
        let mut t = CarbonTracker::new(Pue::new(1.0));
        t.record_epoch(epoch(0.5, 1.0));
        t.record_epoch(epoch(0.5, 1.0));
        let p = t.predict(10, CarbonIntensity::from_g_per_kwh(100.0));
        assert!((p.energy.as_kwh() - 10.0).abs() < 1e-9);
        assert!((p.duration.as_hours() - 5.0).abs() < 1e-9);
        assert!((p.carbon.as_g() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_applies_pue() {
        let mut t = CarbonTracker::new(Pue::new(1.5));
        t.record_epoch(epoch(1.0, 2.0));
        let p = t.predict(1, CarbonIntensity::from_g_per_kwh(100.0));
        // 2 kWh IT * 1.5 PUE * 100 g = 300 g.
        assert!((p.carbon.as_g() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn single_epoch_prediction_matches_carbontracker_semantics() {
        // carbontracker predicts after the first epoch.
        let mut t = CarbonTracker::new(Pue::new(1.0));
        t.record_epoch(epoch(0.25, 0.8));
        let p = t.predict(100, CarbonIntensity::from_g_per_kwh(200.0));
        assert!((p.energy.as_kwh() - 80.0).abs() < 1e-9);
        assert!((p.carbon.as_kg() - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "measure at least one epoch")]
    fn predict_requires_measurement() {
        let t = CarbonTracker::new(Pue::DEFAULT);
        let _ = t.predict(10, CarbonIntensity::from_g_per_kwh(100.0));
    }

    #[test]
    #[should_panic(expected = "total epochs below measured count")]
    fn predict_rejects_shrinking_run() {
        let mut t = CarbonTracker::new(Pue::DEFAULT);
        t.record_epoch(epoch(1.0, 1.0));
        t.record_epoch(epoch(1.0, 1.0));
        let _ = t.predict(1, CarbonIntensity::from_g_per_kwh(100.0));
    }

    #[test]
    fn trace_accounting_prices_each_hour() {
        // Intensity 100 during even hours, 300 during odd hours.
        let series = HourlySeries::from_fn(2021, |st| {
            if st.hour_of_year() % 2 == 0 {
                100.0
            } else {
                300.0
            }
        });
        let trace = IntensityTrace::new(OperatorId::Eso, series);
        let t = CarbonTracker::new(Pue::new(1.0));
        // 4 kWh over 4 hours starting at hour 0: 1 kWh priced at each of
        // 100, 300, 100, 300 = 800 g.
        let c =
            t.account_against_trace(&trace, 0, Energy::from_kwh(4.0), TimeSpan::from_hours(4.0));
        assert!((c.as_g() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn trace_accounting_handles_fractional_hours() {
        let series = HourlySeries::constant(2021, 200.0);
        let trace = IntensityTrace::new(OperatorId::Eso, series);
        let t = CarbonTracker::new(Pue::new(1.0));
        let c = t.account_against_trace(
            &trace,
            100,
            Energy::from_kwh(3.0),
            TimeSpan::from_hours(1.5),
        );
        // Constant intensity: simply 3 kWh * 200 g.
        assert!((c.as_g() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn greener_start_hours_cost_less() {
        // Cheap at night (hours 0-5), expensive in the day.
        let series = HourlySeries::from_fn(2021, |st| if st.hour() < 6 { 50.0 } else { 400.0 });
        let trace = IntensityTrace::new(OperatorId::Eso, series);
        let t = CarbonTracker::new(Pue::new(1.2));
        let night =
            t.account_against_trace(&trace, 0, Energy::from_kwh(6.0), TimeSpan::from_hours(6.0));
        let day =
            t.account_against_trace(&trace, 12, Energy::from_kwh(6.0), TimeSpan::from_hours(6.0));
        assert!(night.as_g() * 4.0 < day.as_g());
    }
}
