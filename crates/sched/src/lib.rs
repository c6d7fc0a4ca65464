//! # hpcarbon-sched
//!
//! A carbon-intensity-aware job-scheduling substrate — the system the
//! paper calls for but does not build:
//!
//! > "There is a strong need to design, develop, and deploy
//! > carbon-intensity-aware job schedulers to exploit these opportunities
//! > across geographically distributed HPC centers." (§4, Implication)
//!
//! Components:
//!
//! - [`job`]: jobs and a seeded trace generator (Poisson arrivals,
//!   log-normal runtimes, power-law GPU sizes — the standard HPC workload
//!   shape);
//! - [`cluster`]: a GPU partition bound to a regional intensity trace;
//! - [`policy`]: scheduling policies — FIFO baseline, temporal deferral
//!   (threshold and greenest-window forms), cross-region dispatch, and
//!   the indexed shifting pair [`Policy::TemporalShift`] /
//!   [`Policy::SpatioTemporal`] answering "greenest start within slack"
//!   from the trace's window index instead of rescans;
//! - [`sim`]: a discrete-event simulation joining the above, with a
//!   first-fit capacity queue per cluster, accounting every job's
//!   operational carbon against the hourly trace (Eq. 6 per hour);
//! - [`metrics`]: per-job shifted-vs-baseline carbon savings — what a
//!   policy buys in carbon against running every job on arrival.
//!
//! # Example
//!
//! ```
//! use hpcarbon_sched::{job::JobTraceGenerator, sim::Simulation, policy::Policy, cluster::Cluster};
//! use hpcarbon_grid::{simulate_year, OperatorId};
//!
//! let trace = simulate_year(OperatorId::Eso, 2021, 7);
//! let jobs = JobTraceGenerator::default_rates().generate(200, 99);
//! let fifo = Simulation::single_region(Cluster::new("gb", trace.clone(), 64), Policy::Fifo, &jobs).run();
//! let aware = Simulation::single_region(
//!     Cluster::new("gb", trace, 64),
//!     Policy::GreenestWindow { horizon_hours: 24 },
//!     &jobs,
//! ).run();
//! // Carbon-aware deferral emits less carbon for the same jobs.
//! assert!(aware.total_carbon.as_kg() < fifo.total_carbon.as_kg());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod job;
pub mod metrics;
pub mod policy;
pub mod sim;

pub use cluster::Cluster;
pub use job::{Job, JobTraceGenerator};
pub use metrics::{shift_savings, summarize_shift_savings, JobShiftSavings, ShiftSavingsSummary};
pub use policy::Policy;
pub use sim::{SimError, SimOutcome, Simulation};
