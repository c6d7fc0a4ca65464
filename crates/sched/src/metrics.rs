//! Shifted-vs-baseline carbon savings: what a carbon-aware policy buys
//! each job against running it the moment it arrived.

use crate::cluster::Cluster;
use crate::job::Job;
use crate::sim::SimOutcome;
use hpcarbon_units::TimeSpan;

/// One job's shifted-vs-baseline carbon comparison: what the job emitted
/// where the policy actually ran it, against what it would have emitted
/// starting the moment it arrived on its arrival cluster.
#[derive(Debug, Clone, Copy)]
pub struct JobShiftSavings {
    /// Job id.
    pub job: usize,
    /// Carbon of the run-at-arrival counterfactual, kgCO₂.
    pub baseline_kg: f64,
    /// Carbon of the actual (possibly shifted/moved) run, kgCO₂.
    pub actual_kg: f64,
    /// `baseline - actual`; negative when waiting made things worse.
    pub saved_kg: f64,
}

/// Aggregate of [`JobShiftSavings`] over one outcome.
#[derive(Debug, Clone, Copy)]
pub struct ShiftSavingsSummary {
    /// Total baseline carbon, kgCO₂.
    pub baseline_kg: f64,
    /// Total actual carbon, kgCO₂.
    pub actual_kg: f64,
    /// Total savings, kgCO₂.
    pub saved_kg: f64,
    /// Savings as a percentage of the baseline (0 when the baseline is 0).
    pub saved_pct: f64,
}

/// Per-job carbon savings of an outcome against the run-at-arrival
/// baseline. `jobs` and `clusters` must be the slices the simulation ran
/// (outcomes align positionally with `jobs`). The baseline places each
/// job at its arrival via [`crate::cluster::fitting_cluster`] — the same
/// rule the simulator's arrival event applies — so the counterfactual is
/// always a feasible run.
pub fn shift_savings(
    outcome: &SimOutcome,
    jobs: &[Job],
    clusters: &[Cluster],
) -> Vec<JobShiftSavings> {
    assert_eq!(outcome.jobs.len(), jobs.len(), "outcome/job mismatch");
    assert!(!clusters.is_empty(), "need at least one cluster");
    jobs.iter()
        .zip(&outcome.jobs)
        .map(|(job, o)| {
            let baseline_cluster =
                crate::cluster::fitting_cluster(job.user % clusters.len(), job, clusters);
            let baseline_kg = clusters[baseline_cluster]
                .carbon_for(
                    job.arrival_hours,
                    TimeSpan::from_hours(job.runtime_hours),
                    job.power(),
                )
                .as_kg();
            let actual_kg = o.carbon.as_kg();
            JobShiftSavings {
                job: job.id,
                baseline_kg,
                actual_kg,
                saved_kg: baseline_kg - actual_kg,
            }
        })
        .collect()
}

/// Sums per-job savings into one summary.
pub fn summarize_shift_savings(savings: &[JobShiftSavings]) -> ShiftSavingsSummary {
    let baseline_kg: f64 = savings.iter().map(|s| s.baseline_kg).sum();
    let actual_kg: f64 = savings.iter().map(|s| s.actual_kg).sum();
    let saved_kg = baseline_kg - actual_kg;
    ShiftSavingsSummary {
        baseline_kg,
        actual_kg,
        saved_kg,
        saved_pct: if baseline_kg > 0.0 {
            100.0 * saved_kg / baseline_kg
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod savings_tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::job::JobTraceGenerator;
    use crate::policy::Policy;
    use crate::sim::Simulation;
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_grid::trace::IntensityTrace;
    use hpcarbon_timeseries::series::HourlySeries;

    fn diurnal_cluster() -> Cluster {
        let t = IntensityTrace::new(
            OperatorId::Eso,
            HourlySeries::from_fn(2021, |st| if st.hour() < 6 { 50.0 } else { 400.0 }),
        );
        Cluster::new("a", t, 4096)
    }

    #[test]
    fn fifo_at_capacity_has_zero_savings() {
        // With unlimited capacity, FIFO runs every job at arrival — the
        // baseline itself — so savings vanish identically.
        let jobs = JobTraceGenerator::default_rates().generate(80, 5);
        let clusters = vec![diurnal_cluster()];
        let out = Simulation::multi_region(clusters.clone(), Policy::Fifo, &jobs).run();
        let s = shift_savings(&out, &jobs, &clusters);
        assert_eq!(s.len(), jobs.len());
        for js in &s {
            assert!(js.saved_kg.abs() < 1e-9, "job {}: {}", js.job, js.saved_kg);
        }
        let sum = summarize_shift_savings(&s);
        assert!(sum.saved_kg.abs() < 1e-9);
        assert!(sum.saved_pct.abs() < 1e-9);
    }

    #[test]
    fn temporal_shift_saves_against_the_baseline() {
        let jobs = JobTraceGenerator::default_rates().generate(150, 6);
        let clusters = vec![diurnal_cluster()];
        let out = Simulation::multi_region(
            clusters.clone(),
            Policy::TemporalShift { slack_hours: 24 },
            &jobs,
        )
        .run();
        let s = shift_savings(&out, &jobs, &clusters);
        let sum = summarize_shift_savings(&s);
        assert!(
            sum.saved_pct > 20.0,
            "expected big savings on a diurnal trace, got {:.1}%",
            sum.saved_pct
        );
        // The summary is consistent with the outcome's totals.
        assert!((sum.actual_kg - out.total_carbon.as_kg()).abs() < 1e-6);
    }

    #[test]
    fn empty_savings_summarize_to_zero() {
        let sum = summarize_shift_savings(&[]);
        assert_eq!(sum.saved_kg, 0.0);
        assert_eq!(sum.saved_pct, 0.0);
    }
}
