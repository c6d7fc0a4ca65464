//! Intensity forecasts for uncertainty-aware shifting.
//!
//! The shifting policies' argmin primitives (`greenest_shift`,
//! `greenest_window`) assume perfect future knowledge — the numbers they
//! produce are *oracle* savings. Real schedulers plan on a forecast and
//! pay the actual grid. This module builds whole-year *planning traces*
//! from an actual trace under several forecast models, so a scheduler can
//! argmin over the forecast while cost is realized against the actual
//! series:
//!
//! - [`persistence_forecast`] — tomorrow looks like today (24 h lag), the
//!   standard no-skill baseline of the forecasting literature;
//! - [`day_ahead_harmonic_forecast`] — a deterministic harmonic fit
//!   (annual mean + two diurnal harmonics + one seasonal harmonic), the
//!   shape a day-ahead market forecast captures;
//! - [`noisy_oracle_forecast`] — the actual trace under seeded
//!   multiplicative Gaussian error, for dialing forecast quality
//!   continuously between oracle and useless.
//!
//! All three return an [`IntensityTrace`] over the same year, so the
//! `WindowIndex` machinery applies to the forecast unchanged. Everything
//! here is deterministic: the harmonic fit uses no randomness, and the
//! noisy oracle forks one [`SimRng`] stream per hour from the caller's
//! seed, independent of thread count or evaluation order.

use crate::trace::IntensityTrace;
use hpcarbon_sim::dist::standard_normal;
use hpcarbon_sim::rng::SimRng;
use hpcarbon_timeseries::series::HourlySeries;

/// The persistence forecast: each hour predicted by the same hour one day
/// earlier. The first day wraps to the last day of the year — a benign
/// fiction (both are midwinter) that keeps the planning trace total.
pub fn persistence_forecast(actual: &IntensityTrace) -> IntensityTrace {
    let series = actual.series();
    let n = series.len();
    let values = (0..n)
        .map(|h| series.at(((h + n - 24) % n) as u32))
        .collect();
    IntensityTrace::new(actual.operator(), HourlySeries::new(series.year(), values))
}

/// The day-ahead harmonic forecast: annual mean plus the first two
/// diurnal harmonics (periods 24 h and 12 h — the solar duck curve needs
/// the second) plus the first annual harmonic, fit to the actual series
/// by discrete Fourier projection. Captures the systematic structure a
/// day-ahead forecast gets right while missing all weather-driven
/// residuals. Negative fitted values clamp to zero.
pub fn day_ahead_harmonic_forecast(actual: &IntensityTrace) -> IntensityTrace {
    let series = actual.series();
    let v = series.values();
    let n = v.len();
    let nf = n as f64;
    let mean = series.mean();

    // Projection coefficients for angular frequency `w` (radians/hour).
    let project = |w: f64| -> (f64, f64) {
        let mut a = 0.0;
        let mut b = 0.0;
        for (h, x) in v.iter().enumerate() {
            let t = w * h as f64;
            a += (x - mean) * t.cos();
            b += (x - mean) * t.sin();
        }
        (2.0 * a / nf, 2.0 * b / nf)
    };

    let tau = std::f64::consts::TAU;
    let freqs = [tau / 24.0, tau / 12.0, tau / nf];
    let coeffs: Vec<(f64, f64, f64)> = freqs
        .iter()
        .map(|&w| {
            let (a, b) = project(w);
            (w, a, b)
        })
        .collect();

    let values = (0..n)
        .map(|h| {
            let t = h as f64;
            let fit: f64 = coeffs
                .iter()
                .map(|&(w, a, b)| a * (w * t).cos() + b * (w * t).sin())
                .sum();
            (mean + fit).max(0.0)
        })
        .collect();
    IntensityTrace::new(actual.operator(), HourlySeries::new(series.year(), values))
}

/// The noisy oracle: the actual value at each hour scaled by
/// `1 + σ·z_h` with `σ = error_pct / 100` and `z_h` standard normal,
/// clamped at zero. Each hour forks its own RNG stream from `seed`, so
/// the forecast is byte-identical regardless of thread count or
/// evaluation order, and `error_pct = 0` degenerates to the oracle.
pub fn noisy_oracle_forecast(actual: &IntensityTrace, error_pct: u32, seed: u64) -> IntensityTrace {
    let series = actual.series();
    let sigma = f64::from(error_pct) / 100.0;
    let base = SimRng::seed_from(seed);
    let values = series
        .values()
        .iter()
        .enumerate()
        .map(|(h, v)| {
            let mut rng = base.fork(h as u64);
            let z = standard_normal(&mut rng);
            (v * (1.0 + sigma * z)).max(0.0)
        })
        .collect();
    IntensityTrace::new(actual.operator(), HourlySeries::new(series.year(), values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::OperatorId;
    use crate::synth::synthesize_year;

    fn actual() -> IntensityTrace {
        synthesize_year(OperatorId::Eso, 2021, 11)
    }

    #[test]
    fn oracle_is_identity() {
        let a = actual();
        // The oracle planning trace is the actual trace itself; the
        // zero-error noisy oracle degenerates to it whatever the seed.
        for seed in [0, 99, u64::MAX] {
            let f = noisy_oracle_forecast(&a, 0, seed);
            assert_eq!(f.series().values(), a.series().values());
            assert_eq!(f.operator(), a.operator());
        }
    }

    #[test]
    fn persistence_lags_a_day() {
        let a = actual();
        let f = persistence_forecast(&a);
        assert_eq!(f.series().at(24), a.series().at(0));
        assert_eq!(f.series().at(8759), a.series().at(8735));
        // The first day wraps to the last day.
        assert_eq!(f.series().at(0), a.series().at(8736));
        assert_eq!(f.operator(), a.operator());
    }

    #[test]
    fn day_ahead_preserves_mean_and_diurnal_shape() {
        let a = actual();
        let f = day_ahead_harmonic_forecast(&a);
        // The projection keeps the annual mean (up to clamping).
        assert!((f.series().mean() - a.series().mean()).abs() / a.series().mean() < 0.02);
        // It explains variance: RMSE of the fit is below the raw std dev.
        let n = a.series().len() as f64;
        let var: f64 = a
            .series()
            .values()
            .iter()
            .map(|v| (v - a.series().mean()).powi(2))
            .sum::<f64>()
            / n;
        let mse: f64 = a
            .series()
            .values()
            .iter()
            .zip(f.series().values())
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            / n;
        assert!(
            mse < var,
            "harmonic fit should beat the mean: {mse} vs {var}"
        );
        // Deterministic: no randomness, so a refit is identical.
        let g = day_ahead_harmonic_forecast(&a);
        assert_eq!(f.series().values(), g.series().values());
    }

    #[test]
    fn noisy_oracle_is_seeded_and_scales_with_error() {
        let a = actual();
        let f1 = noisy_oracle_forecast(&a, 10, 42);
        let f2 = noisy_oracle_forecast(&a, 10, 42);
        assert_eq!(f1.series().values(), f2.series().values());
        let f3 = noisy_oracle_forecast(&a, 10, 43);
        assert_ne!(f1.series().values(), f3.series().values());
        // Zero error degenerates to the oracle.
        let f0 = noisy_oracle_forecast(&a, 0, 42);
        assert_eq!(f0.series().values(), a.series().values());
        // Larger error ⇒ larger mean absolute deviation.
        let mad = |f: &IntensityTrace| -> f64 {
            f.series()
                .values()
                .iter()
                .zip(a.series().values())
                .map(|(x, y)| (x - y).abs())
                .sum::<f64>()
        };
        let f20 = noisy_oracle_forecast(&a, 20, 42);
        assert!(mad(&f20) > mad(&f1));
        // Never negative.
        assert!(f20.series().values().iter().all(|v| *v >= 0.0));
    }
}
