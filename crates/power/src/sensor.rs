//! Device power models.
//!
//! The paper measures device power with "power measurement tools (e.g.,
//! NVML, RAPL)". Here a power model maps a device's utilization to its
//! draw instead.

use hpcarbon_units::{Fraction, Power};

/// Maps utilization to power draw for one device.
///
/// The model is the standard affine-plus-curvature fit used in GPU power
/// studies: `P(u) = idle + (tdp - idle) · u^alpha` with `alpha` slightly
/// below 1 (real accelerators reach near-peak power well before 100%
/// utilization because memory and static power dominate early).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DevicePowerModel {
    idle: Power,
    tdp: Power,
    alpha: f64,
}

impl DevicePowerModel {
    /// Default curvature exponent.
    pub const DEFAULT_ALPHA: f64 = 0.85;

    /// Creates a model with the default curvature.
    ///
    /// # Panics
    /// If `idle > tdp` or either is negative.
    pub fn new(idle: Power, tdp: Power) -> DevicePowerModel {
        Self::with_alpha(idle, tdp, Self::DEFAULT_ALPHA)
    }

    /// Creates a model with an explicit curvature exponent.
    pub fn with_alpha(idle: Power, tdp: Power, alpha: f64) -> DevicePowerModel {
        assert!(
            idle.as_w() >= 0.0 && tdp.as_w() >= 0.0,
            "power must be >= 0"
        );
        assert!(idle <= tdp, "idle power cannot exceed TDP");
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        DevicePowerModel { idle, tdp, alpha }
    }

    /// Idle draw.
    pub fn idle(&self) -> Power {
        self.idle
    }

    /// Peak (TDP) draw.
    pub fn tdp(&self) -> Power {
        self.tdp
    }

    /// Power at utilization `u` (clamped to `[0, 1]`).
    pub fn power_at(&self, u: f64) -> Power {
        let u = u.clamp(0.0, 1.0);
        self.idle + (self.tdp - self.idle) * u.powf(self.alpha)
    }

    /// Average power of a duty cycle that is busy a fraction `busy` of the
    /// time at utilization `u_busy` and idle otherwise. This is the form
    /// the upgrade analysis uses for "40% GPU usage" style inputs (RQ8).
    pub fn duty_cycle_power(&self, busy: Fraction, u_busy: f64) -> Power {
        self.power_at(u_busy) * busy.value() + self.idle * busy.complement().value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100_model() -> DevicePowerModel {
        DevicePowerModel::new(Power::from_w(40.0), Power::from_w(300.0))
    }

    #[test]
    fn endpoints() {
        let m = v100_model();
        assert_eq!(m.power_at(0.0).as_w(), 40.0);
        assert_eq!(m.power_at(1.0).as_w(), 300.0);
        // Clamping.
        assert_eq!(m.power_at(-1.0).as_w(), 40.0);
        assert_eq!(m.power_at(2.0).as_w(), 300.0);
    }

    #[test]
    fn monotone_in_utilization() {
        let m = v100_model();
        let mut last = -1.0;
        for i in 0..=20 {
            let p = m.power_at(f64::from(i) / 20.0).as_w();
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn sublinear_exponent_front_loads_power() {
        // With alpha < 1, half utilization draws more than half the range.
        let m = v100_model();
        let half = m.power_at(0.5).as_w();
        assert!(half > 40.0 + 0.5 * 260.0);
    }

    #[test]
    fn duty_cycle_average() {
        let m = v100_model();
        let p = m.duty_cycle_power(Fraction::new_unchecked(0.4), 1.0);
        // 0.4 * 300 + 0.6 * 40 = 144.
        assert!((p.as_w() - 144.0).abs() < 1e-9);
        let idle_only = m.duty_cycle_power(Fraction::ZERO, 1.0);
        assert_eq!(idle_only.as_w(), 40.0);
    }

    #[test]
    #[should_panic(expected = "idle power cannot exceed TDP")]
    fn rejects_idle_above_tdp() {
        let _ = DevicePowerModel::new(Power::from_w(400.0), Power::from_w(300.0));
    }
}
