//! # hpcarbon-power
//!
//! Device power models and hourly-priced operational carbon — the
//! workspace's stand-in for the measurement stack the paper uses on real
//! nodes (NVML/RAPL power counters read by the `carbontracker` tool).
//!
//! - [`sensor`]: device power models mapping utilization to draw (the
//!   role NVML/RAPL readings play on real nodes);
//! - [`pue_model`]: a seasonal PUE that follows outdoor temperature, and
//!   [`pue_model::account_with_seasonal_pue`], which prices each hour of
//!   a run at that hour's grid intensity and PUE (the paper's Eq. 6,
//!   time-resolved).
//!
//! # Example
//!
//! ```
//! use hpcarbon_power::sensor::DevicePowerModel;
//! use hpcarbon_units::Power;
//!
//! // A V100-like device: 40 W idle, 300 W TDP.
//! let model = DevicePowerModel::new(Power::from_w(40.0), Power::from_w(300.0));
//! assert_eq!(model.power_at(0.0).as_w(), 40.0);
//! assert_eq!(model.power_at(1.0).as_w(), 300.0);
//! assert!(model.power_at(0.5).as_w() > 150.0); // convex-ish curve
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pue_model;
pub mod sensor;

pub use pue_model::SeasonalPue;
pub use sensor::DevicePowerModel;
