//! The scheduling simulation: discrete events over clusters and a policy.

use crate::cluster::Cluster;
use crate::job::Job;
use crate::policy::Policy;
use hpcarbon_sim::des::EventQueue;
use hpcarbon_units::{CarbonMass, Energy, TimeSpan};

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A job is submitted.
    Arrive(usize),
    /// A deferred job becomes eligible to run on its placed cluster.
    Release(usize, usize),
    /// A running job completes on a cluster.
    Finish(usize, usize),
}

/// Why a configured simulation cannot run.
///
/// Sweep batches construct simulations from generated (cluster, trace,
/// job) combinations; an infeasible combination must come back as an
/// `Err` row rather than a panic that kills the whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A job demands more GPUs than any cluster offers.
    OversizedJob {
        /// Offending job id.
        job: usize,
        /// GPUs the job demands.
        gpus: u32,
    },
    /// A shifting policy's slack spans at least one full trace year, so a
    /// deferred release hour could land outside the trace (and the
    /// "greenest window within slack" question degenerates to scanning
    /// the whole year again).
    ShiftSlackExceedsTrace {
        /// The policy's slack, hours.
        slack_hours: u32,
        /// The shortest cluster trace, hours.
        trace_hours: u32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OversizedJob { job, gpus } => write!(
                f,
                "job {job} needs {gpus} GPUs but no cluster is large enough"
            ),
            SimError::ShiftSlackExceedsTrace {
                slack_hours,
                trace_hours,
            } => write!(
                f,
                "shifting slack of {slack_hours} h meets or exceeds the {trace_hours} h trace horizon"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-job outcome.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// Job id.
    pub id: usize,
    /// Cluster the job ran on.
    pub cluster: usize,
    /// Queue wait (from arrival to start), hours. Includes policy
    /// deferral and capacity waiting.
    pub wait_hours: f64,
    /// Start time, hours since epoch.
    pub start_hours: f64,
    /// Operational carbon of the run.
    pub carbon: CarbonMass,
    /// Facility energy of the run.
    pub energy: Energy,
}

/// Aggregate outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Policy simulated.
    pub policy: Policy,
    /// Per-job outcomes, in job-id order.
    pub jobs: Vec<JobOutcome>,
    /// Sum of job carbon.
    pub total_carbon: CarbonMass,
    /// Sum of facility energy.
    pub total_energy: Energy,
    /// Mean queue wait, hours.
    pub mean_wait_hours: f64,
    /// Maximum queue wait, hours.
    pub max_wait_hours: f64,
}

impl SimOutcome {
    /// Mean carbon per job, grams.
    pub fn mean_carbon_g(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.total_carbon.as_g() / self.jobs.len() as f64
    }
}

struct RegionState {
    free_gpus: u32,
    /// Jobs eligible to run, waiting for capacity (job indices, in
    /// eligibility order).
    queue: Vec<usize>,
}

/// A configured simulation.
pub struct Simulation<'a> {
    clusters: Vec<Cluster>,
    policy: Policy,
    jobs: &'a [Job],
}

impl<'a> Simulation<'a> {
    /// Single-cluster setup.
    pub fn single_region(cluster: Cluster, policy: Policy, jobs: &'a [Job]) -> Simulation<'a> {
        Simulation {
            clusters: vec![cluster],
            policy,
            jobs,
        }
    }

    /// Multi-cluster setup. Jobs arrive round-robin across clusters (the
    /// user's home site); multi-region policies may move them.
    pub fn multi_region(clusters: Vec<Cluster>, policy: Policy, jobs: &'a [Job]) -> Simulation<'a> {
        assert!(!clusters.is_empty(), "need at least one cluster");
        Simulation {
            clusters,
            policy,
            jobs,
        }
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    /// If a job is larger than every cluster ([`Simulation::try_run`] is
    /// the non-panicking variant).
    pub fn run(self) -> SimOutcome {
        match self.try_run() {
            Ok(out) => out,
            // lint: allow(panic-in-library) -- documented "# Panics" convenience wrapper; try_run is the typed-error form
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the simulation, reporting infeasible configurations as a
    /// [`SimError`] instead of panicking — the sweep-friendly entry point.
    ///
    /// # Errors
    /// [`SimError::OversizedJob`] when a job is larger than every cluster.
    pub fn try_run(self) -> Result<SimOutcome, SimError> {
        let Simulation {
            clusters,
            policy,
            jobs,
        } = self;
        let mut q: EventQueue<Event> = EventQueue::new();
        let mut regions: Vec<RegionState> = clusters
            .iter()
            .map(|c| RegionState {
                free_gpus: c.capacity_gpus,
                queue: Vec::new(),
            })
            .collect();
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];

        for (i, job) in jobs.iter().enumerate() {
            q.schedule_at(job.arrival_hours, Event::Arrive(i));
        }

        // Capacity guard: a job larger than every cluster can never run.
        for job in jobs {
            if !clusters.iter().any(|c| c.capacity_gpus >= job.gpus) {
                return Err(SimError::OversizedJob {
                    job: job.id,
                    gpus: job.gpus,
                });
            }
        }

        // Slack guard: a shifting slack of a full trace year (or more)
        // would defer jobs past the hours the trace can price.
        if let Some(slack_hours) = policy.shift_slack_hours() {
            for c in &clusters {
                let trace_hours = c.trace.series().len() as u32;
                if slack_hours >= trace_hours {
                    return Err(SimError::ShiftSlackExceedsTrace {
                        slack_hours,
                        trace_hours,
                    });
                }
            }
        }

        while let Some((now, event)) = q.pop() {
            match event {
                Event::Arrive(i) => {
                    let arrival_cluster = jobs[i].user % clusters.len();
                    let mut placement = policy.place(&jobs[i], now, arrival_cluster, &clusters);
                    // The shared fallback rule; the capacity guard above
                    // ensures a fit exists.
                    placement.cluster =
                        crate::cluster::fitting_cluster(placement.cluster, &jobs[i], &clusters);
                    if placement.earliest_start_hours > now {
                        q.schedule_at(
                            placement.earliest_start_hours,
                            Event::Release(i, placement.cluster),
                        );
                    } else {
                        regions[placement.cluster].queue.push(i);
                        try_start(
                            &mut q,
                            &clusters,
                            &mut regions,
                            jobs,
                            &mut outcomes,
                            placement.cluster,
                            now,
                        );
                    }
                }
                Event::Release(i, cluster) => {
                    regions[cluster].queue.push(i);
                    try_start(
                        &mut q,
                        &clusters,
                        &mut regions,
                        jobs,
                        &mut outcomes,
                        cluster,
                        now,
                    );
                }
                Event::Finish(i, cluster) => {
                    regions[cluster].free_gpus += jobs[i].gpus;
                    try_start(
                        &mut q,
                        &clusters,
                        &mut regions,
                        jobs,
                        &mut outcomes,
                        cluster,
                        now,
                    );
                }
            }
        }

        let jobs_out: Vec<JobOutcome> = outcomes
            .into_iter()
            // lint: allow(panic-in-library) -- the event loop only terminates once every queue is drained, and try_run has already rejected jobs no cluster can fit
            .map(|o| o.expect("every job eventually runs"))
            .collect();
        let total_carbon: CarbonMass = jobs_out.iter().map(|j| j.carbon).sum();
        let total_energy: Energy = jobs_out.iter().map(|j| j.energy).sum();
        let mean_wait =
            jobs_out.iter().map(|j| j.wait_hours).sum::<f64>() / jobs_out.len().max(1) as f64;
        let max_wait = jobs_out.iter().map(|j| j.wait_hours).fold(0.0f64, f64::max);
        Ok(SimOutcome {
            policy,
            jobs: jobs_out,
            total_carbon,
            total_energy,
            mean_wait_hours: mean_wait,
            max_wait_hours: max_wait,
        })
    }
}

/// Starts queued jobs on `cluster` while any fits: first-fit, so the
/// earliest-eligible job that fits the free GPUs starts, even past a
/// blocked wider job ahead of it.
fn try_start(
    q: &mut EventQueue<Event>,
    clusters: &[Cluster],
    regions: &mut [RegionState],
    jobs: &[Job],
    outcomes: &mut [Option<JobOutcome>],
    cluster: usize,
    now: f64,
) {
    let region = &mut regions[cluster];
    while let Some(pick) = region
        .queue
        .iter()
        .position(|&j| jobs[j].gpus <= region.free_gpus)
    {
        let job_idx = region.queue.remove(pick);
        let job = &jobs[job_idx];
        region.free_gpus -= job.gpus;
        let duration = TimeSpan::from_hours(job.runtime_hours);
        let carbon = clusters[cluster].carbon_for(now, duration, job.power());
        let energy = clusters[cluster].energy_for(duration, job.power());
        outcomes[job_idx] = Some(JobOutcome {
            id: job.id,
            cluster,
            wait_hours: now - job.arrival_hours,
            start_hours: now,
            carbon,
            energy,
        });
        q.schedule_at(now + job.runtime_hours, Event::Finish(job_idx, cluster));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobTraceGenerator;
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_grid::trace::IntensityTrace;
    use hpcarbon_timeseries::series::HourlySeries;
    use hpcarbon_units::Power;

    fn diurnal_cluster(capacity: u32) -> Cluster {
        let t = IntensityTrace::new(
            OperatorId::Eso,
            HourlySeries::from_fn(2021, |st| if st.hour() < 6 { 50.0 } else { 400.0 }),
        );
        Cluster::new("a", t, capacity)
    }

    fn jobs(n: usize, seed: u64) -> Vec<Job> {
        JobTraceGenerator::default_rates().generate(n, seed)
    }

    #[test]
    fn fifo_runs_everything_with_zero_policy_delay() {
        let js = jobs(100, 1);
        let out = Simulation::single_region(diurnal_cluster(512), Policy::Fifo, &js).run();
        assert_eq!(out.jobs.len(), 100);
        // Enormous capacity: every job starts on arrival.
        assert!(out.mean_wait_hours < 1e-9, "{}", out.mean_wait_hours);
        assert!(out.total_carbon.as_kg() > 0.0);
    }

    #[test]
    fn capacity_pressure_creates_waits() {
        let js = jobs(200, 2);
        let big = Simulation::single_region(diurnal_cluster(512), Policy::Fifo, &js).run();
        let small = Simulation::single_region(diurnal_cluster(8), Policy::Fifo, &js).run();
        assert!(small.mean_wait_hours > big.mean_wait_hours);
        // Same jobs, same region: energy identical regardless of capacity.
        assert!((small.total_energy.as_kwh() - big.total_energy.as_kwh()).abs() < 1e-6);
    }

    #[test]
    fn greenest_window_cuts_carbon_at_bounded_wait() {
        let js = jobs(300, 3);
        let fifo = Simulation::single_region(diurnal_cluster(512), Policy::Fifo, &js).run();
        let aware = Simulation::single_region(
            diurnal_cluster(512),
            Policy::GreenestWindow { horizon_hours: 24 },
            &js,
        )
        .run();
        assert!(
            aware.total_carbon.as_kg() < fifo.total_carbon.as_kg() * 0.8,
            "aware {} vs fifo {}",
            aware.total_carbon.as_kg(),
            fifo.total_carbon.as_kg()
        );
        // Waits stay within the deferral tolerances (+ small queueing).
        let max_tolerance = js.iter().map(|j| j.max_defer_hours).fold(0.0f64, f64::max);
        assert!(aware.max_wait_hours <= max_tolerance + 1.0);
    }

    #[test]
    fn threshold_defer_cuts_carbon() {
        let js = jobs(300, 4);
        let fifo = Simulation::single_region(diurnal_cluster(512), Policy::Fifo, &js).run();
        let aware = Simulation::single_region(
            diurnal_cluster(512),
            Policy::ThresholdDefer {
                threshold_g_per_kwh: 100.0,
            },
            &js,
        )
        .run();
        assert!(aware.total_carbon < fifo.total_carbon);
        assert!(aware.mean_wait_hours > fifo.mean_wait_hours);
    }

    #[test]
    fn cross_region_dispatch_prefers_clean_regions() {
        let dirty = Cluster::new(
            "dirty",
            IntensityTrace::new(OperatorId::Miso, HourlySeries::constant(2021, 500.0)),
            256,
        );
        let clean = Cluster::new(
            "clean",
            IntensityTrace::new(OperatorId::Eso, HourlySeries::constant(2021, 100.0)),
            256,
        );
        let js = jobs(200, 5);
        let single =
            Simulation::multi_region(vec![dirty.clone(), clean.clone()], Policy::Fifo, &js).run();
        let multi =
            Simulation::multi_region(vec![dirty, clean], Policy::LowestIntensityRegion, &js).run();
        assert!(multi.total_carbon.as_kg() < single.total_carbon.as_kg());
        // All jobs land on the clean cluster.
        assert!(multi.jobs.iter().all(|j| j.cluster == 1));
    }

    #[test]
    fn outcomes_are_deterministic() {
        let js = jobs(150, 6);
        let a = Simulation::single_region(
            diurnal_cluster(32),
            Policy::GreenestWindow { horizon_hours: 12 },
            &js,
        )
        .run();
        let b = Simulation::single_region(
            diurnal_cluster(32),
            Policy::GreenestWindow { horizon_hours: 12 },
            &js,
        )
        .run();
        assert_eq!(a.total_carbon.as_g(), b.total_carbon.as_g());
        assert_eq!(a.mean_wait_hours, b.mean_wait_hours);
    }

    #[test]
    fn job_carbon_matches_cluster_accounting() {
        let c = diurnal_cluster(8);
        let js = vec![Job {
            id: 0,
            user: 0,
            arrival_hours: 2.0,
            runtime_hours: 3.0,
            gpus: 2,
            power_per_gpu: Power::from_w(250.0),
            max_defer_hours: 0.0,
        }];
        let out = Simulation::single_region(c.clone(), Policy::Fifo, &js).run();
        let expected = c.carbon_for(2.0, TimeSpan::from_hours(3.0), Power::from_w(500.0));
        assert!((out.total_carbon.as_g() - expected.as_g()).abs() < 1e-9);
    }

    #[test]
    fn temporal_shift_cuts_carbon_via_release_events() {
        let js = jobs(300, 3);
        let fifo = Simulation::single_region(diurnal_cluster(512), Policy::Fifo, &js).run();
        let shifted = Simulation::single_region(
            diurnal_cluster(512),
            Policy::TemporalShift { slack_hours: 24 },
            &js,
        )
        .run();
        assert!(
            shifted.total_carbon.as_kg() < fifo.total_carbon.as_kg() * 0.8,
            "shifted {} vs fifo {}",
            shifted.total_carbon.as_kg(),
            fifo.total_carbon.as_kg()
        );
        // Deferral is bounded by the policy slack (+ capacity queueing,
        // which is zero at this capacity).
        assert!(shifted.max_wait_hours <= 24.0 + 1e-9);
    }

    #[test]
    fn spatio_temporal_beats_single_axis_policies() {
        let dirty_flat = Cluster::new(
            "flat",
            IntensityTrace::new(OperatorId::Miso, HourlySeries::constant(2021, 300.0)),
            512,
        );
        let js = jobs(200, 9);
        let run = |policy| {
            Simulation::multi_region(vec![dirty_flat.clone(), diurnal_cluster(512)], policy, &js)
                .run()
                .total_carbon
                .as_kg()
        };
        let joint = run(Policy::SpatioTemporal { slack_hours: 24 });
        let temporal_only = run(Policy::TemporalShift { slack_hours: 24 });
        let spatial_only = run(Policy::LowestIntensityRegion);
        assert!(joint <= temporal_only + 1e-9, "{joint} vs {temporal_only}");
        assert!(joint <= spatial_only + 1e-9, "{joint} vs {spatial_only}");
    }

    #[test]
    fn shifting_outcomes_are_deterministic() {
        let js = jobs(150, 8);
        let run = || {
            Simulation::single_region(
                diurnal_cluster(32),
                Policy::SpatioTemporal { slack_hours: 18 },
                &js,
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.total_carbon.as_g(), b.total_carbon.as_g());
        assert_eq!(a.mean_wait_hours, b.mean_wait_hours);
    }

    #[test]
    fn oversized_slack_fails_soft() {
        let js = jobs(10, 1);
        let err = Simulation::single_region(
            diurnal_cluster(512),
            Policy::TemporalShift { slack_hours: 8760 },
            &js,
        )
        .try_run()
        .unwrap_err();
        assert_eq!(
            err,
            SimError::ShiftSlackExceedsTrace {
                slack_hours: 8760,
                trace_hours: 8760
            }
        );
        assert!(err.to_string().contains("trace horizon"));
        // One hour less is fine.
        assert!(Simulation::single_region(
            diurnal_cluster(512),
            Policy::TemporalShift { slack_hours: 8759 },
            &js,
        )
        .try_run()
        .is_ok());
    }

    #[test]
    fn try_run_reports_oversized_jobs_softly() {
        let js = vec![Job {
            id: 7,
            user: 0,
            arrival_hours: 0.0,
            runtime_hours: 1.0,
            gpus: 64,
            power_per_gpu: Power::from_w(250.0),
            max_defer_hours: 0.0,
        }];
        let err = Simulation::single_region(diurnal_cluster(8), Policy::Fifo, &js)
            .try_run()
            .unwrap_err();
        assert_eq!(err, SimError::OversizedJob { job: 7, gpus: 64 });
    }

    #[test]
    #[should_panic(expected = "no cluster is large enough")]
    fn oversized_job_is_rejected_up_front() {
        let js = vec![Job {
            id: 0,
            user: 0,
            arrival_hours: 0.0,
            runtime_hours: 1.0,
            gpus: 64,
            power_per_gpu: Power::from_w(250.0),
            max_defer_hours: 0.0,
        }];
        let _ = Simulation::single_region(diurnal_cluster(8), Policy::Fifo, &js).run();
    }
}

#[cfg(test)]
mod discipline_tests {
    use super::*;
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_grid::trace::IntensityTrace;
    use hpcarbon_timeseries::series::HourlySeries;
    use hpcarbon_units::Power;

    fn cluster(capacity: u32) -> Cluster {
        Cluster::new(
            "c",
            IntensityTrace::new(OperatorId::Eso, HourlySeries::constant(2021, 200.0)),
            capacity,
        )
    }

    /// A wide job arrives just after a stream of narrow jobs begins; more
    /// narrow jobs keep arriving forever after.
    fn starvation_trace() -> Vec<Job> {
        let mut jobs = Vec::new();
        // Two 4-GPU jobs occupy the whole 8-GPU cluster from t=0, renewed
        // in staggered fashion so 4 GPUs free up periodically.
        for k in 0..60 {
            jobs.push(Job {
                id: jobs.len(),
                user: 0,
                arrival_hours: k as f64 * 1.0,
                runtime_hours: 2.0,
                gpus: 4,
                power_per_gpu: Power::from_w(300.0),
                max_defer_hours: 0.0,
            });
        }
        // The wide job arrives at t=0.5 and needs the whole cluster.
        jobs.push(Job {
            id: jobs.len(),
            user: 1,
            arrival_hours: 0.5,
            runtime_hours: 4.0,
            gpus: 8,
            power_per_gpu: Power::from_w(300.0),
            max_defer_hours: 0.0,
        });
        jobs.sort_by(|a, b| a.arrival_hours.partial_cmp(&b.arrival_hours).unwrap());
        let mut jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, mut j)| {
                j.id = i;
                j
            })
            .collect();
        jobs.sort_by_key(|j| j.id);
        jobs
    }

    #[test]
    fn first_fit_starves_the_wide_job() {
        // Narrow jobs keep slipping in front of the blocked wide job: it
        // starts only once the narrow stream has drained.
        let jobs = starvation_trace();
        let out = Simulation::single_region(cluster(8), Policy::Fifo, &jobs).run();
        let wide = jobs.iter().find(|j| j.gpus == 8).expect("wide job present");
        let narrow_end = jobs
            .iter()
            .filter(|j| j.gpus < 8)
            .map(|j| out.jobs[j.id].start_hours + j.runtime_hours)
            .fold(0.0f64, f64::max);
        let start = out.jobs[wide.id].start_hours;
        assert!(
            start >= narrow_end,
            "wide job started at {start}, before the narrow stream ended at {narrow_end}"
        );
        assert!(out.jobs[wide.id].wait_hours > 50.0);
    }
}
