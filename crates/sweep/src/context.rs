//! Per-sweep shared evaluation context.
//!
//! Before this layer existed, every scenario evaluation regenerated its
//! own intensity trace (a dispatch simulation plus a `WindowIndex`
//! build), re-read the system catalog, and regenerated its job trace —
//! even though a grid of a million scenarios draws those from a handful
//! of distinct keys. [`SweepContext`] hoists the work: it derives the
//! key sets **directly from the grid's dimension lists** (never by
//! expanding the product — O(dimensions) memory at any grid size),
//! builds an [`hpcarbon_api::EstimateContext`] once, and evaluates
//! every scenario through one context-attached [`Estimator`].
//!
//! Byte-safety is inherited from the API layer: context hits are pure
//! caches of the very provider calls the uncontexted path makes
//! (`crates/api` asserts report equality with and without a context),
//! so a context-evaluated sweep emits **exactly** the bytes a
//! [`crate::run_scenario`] sweep emits — only faster.

use crate::exec::SweepConfig;
use crate::grid::ScenarioGrid;
use crate::scenario::{Scenario, ScenarioError, ScenarioOutcome};
use hpcarbon_api::context::{partner_region, seed_substreams};
use hpcarbon_api::providers::{CatalogEmbodied, DispatchIntensity, EmbodiedSource, GeneratedJobs};
use hpcarbon_api::{EstimateContext, Estimator, JobKey, TraceKey};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Immutable shared state for one sweep: the workload knobs plus a
/// context-attached estimator covering every key the grid can touch.
///
/// Build once with [`SweepContext::build`], then call
/// [`SweepContext::run`] from any number of worker threads (the context
/// is immutable; traces and job lists are shared by `Arc`).
pub struct SweepContext {
    config: SweepConfig,
    estimator: Estimator,
    context: Arc<EstimateContext>,
}

impl std::fmt::Debug for SweepContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepContext")
            .field("config", &self.config)
            .field("context", &self.context)
            .finish_non_exhaustive()
    }
}

impl SweepContext {
    /// Builds the context for `grid` under `config`, simulating the
    /// distinct traces over `threads` workers (`None` = available
    /// parallelism). Cost is proportional to **distinct keys** — for
    /// the paper grids a handful of traces — not to `grid.len()`.
    pub fn build(grid: &ScenarioGrid, config: SweepConfig, threads: Option<usize>) -> SweepContext {
        Self::build_with(grid, config, threads, Arc::new(CatalogEmbodied))
    }

    /// [`SweepContext::build`] with an explicit embodied source — the
    /// `--catalog DIR` path. The grid's `system` dimension then
    /// resolves every inventory (and the all-flash what-if's
    /// replacement SSD) against `embodied` instead of the built-in
    /// tables; with the default [`CatalogEmbodied`] the two
    /// constructors are byte-identical.
    pub fn build_with(
        grid: &ScenarioGrid,
        config: SweepConfig,
        threads: Option<usize>,
        embodied: Arc<dyn EmbodiedSource>,
    ) -> SweepContext {
        Self::build_full(grid, config, threads, embodied, Vec::new())
    }

    /// [`SweepContext::build_with`] plus registered trace files — the
    /// `--trace-file` path. Each `(region, trace)` pair backs that
    /// region's [`hpcarbon_api::TraceSource::File`] scenarios; regions
    /// without a registered file fail those rows soft with the API's
    /// "no trace file registered" error. File keys are measured data,
    /// not simulator output, so they are deliberately excluded from the
    /// precomputed provider context (the estimator resolves them from
    /// its own registry).
    pub fn build_full(
        grid: &ScenarioGrid,
        config: SweepConfig,
        threads: Option<usize>,
        embodied: Arc<dyn EmbodiedSource>,
        trace_files: Vec<(
            hpcarbon_grid::regions::OperatorId,
            Arc<hpcarbon_grid::trace::IntensityTrace>,
        )>,
    ) -> SweepContext {
        let mut trace_keys: BTreeSet<TraceKey> = BTreeSet::new();
        let mut job_keys: BTreeSet<JobKey> = BTreeSet::new();
        // The sweep translates scenarios with `partner: None`, so a
        // partner trace is engaged exactly when the policy is
        // multi-region; one such policy in the dimension list puts the
        // partner key of every (region, source, seed) cell in play.
        let partnered = grid.policies.iter().any(|p| p.is_multi_region());
        for &seed in &grid.seeds {
            let (trace_seed, jobs_seed) = seed_substreams(seed);
            job_keys.insert((config.jobs_per_scenario, jobs_seed));
            for &region in &grid.regions {
                for &source in &grid.sources {
                    trace_keys.insert((region, source, config.year, trace_seed));
                    if partnered {
                        trace_keys.insert((
                            partner_region(region),
                            source,
                            config.year,
                            trace_seed,
                        ));
                    }
                }
            }
        }
        let system_keys: BTreeSet<_> = grid.systems.iter().copied().collect();
        let context = Arc::new(EstimateContext::build_from_keys(
            trace_keys,
            job_keys,
            system_keys,
            &DispatchIntensity,
            &embodied,
            &GeneratedJobs,
            threads,
        ));
        let mut builder = Estimator::builder()
            .context(Arc::clone(&context))
            .embodied(embodied);
        for (region, trace) in trace_files {
            builder = builder.trace_file(region, trace);
        }
        let estimator = builder.build();
        SweepContext {
            config,
            estimator,
            context,
        }
    }

    /// The sweep's workload knobs.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Distinct intensity traces precomputed for this sweep.
    pub fn trace_count(&self) -> usize {
        self.context.trace_count()
    }

    /// Evaluates one scenario against the shared context. Semantically
    /// identical to [`crate::run_scenario`] — the context only removes
    /// repeated derivations — and safe to call from many threads.
    pub fn run(&self, sc: &Scenario) -> Result<ScenarioOutcome, ScenarioError> {
        self.estimator
            .estimate(&sc.to_request(&self.config))
            .map(ScenarioOutcome::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_scenario;
    use hpcarbon_sched::Policy;

    #[test]
    fn covers_every_key_of_the_grid() {
        let grid = ScenarioGrid::quick();
        let ctx = SweepContext::build(&grid, SweepConfig::fast(), Some(1));
        // quick(): 2 regions × 1 source × 2 seeds, no multi-region policy.
        assert_eq!(ctx.trace_count(), 4);
        assert_eq!(ctx.context.job_trace_count(), 2);
        assert_eq!(ctx.context.system_count(), 2);
    }

    #[test]
    fn multi_region_policies_pull_in_partner_traces() {
        let grid = ScenarioGrid::shifting();
        let ctx = SweepContext::build(&grid, SweepConfig::fast(), Some(1));
        // shifting(): regions {GB, CA} × 2 sources; SpatioTemporal adds the
        // partner of each — which is again {CA, GB}, already present.
        assert!(grid.policies.iter().any(|p| p.is_multi_region()));
        assert_eq!(ctx.trace_count(), 4);
        // A single dirty region with a multi-region policy pulls its
        // partner in even though the grid never lists it.
        let lone = ScenarioGrid::shifting()
            .regions([hpcarbon_grid::regions::OperatorId::Miso])
            .policies([Policy::SpatioTemporal { slack_hours: 24 }]);
        let ctx = SweepContext::build(&lone, SweepConfig::fast(), Some(1));
        assert_eq!(ctx.trace_count(), 4); // (MISO + partner GB) × 2 sources
    }

    #[test]
    fn contexted_run_matches_run_scenario_exactly() {
        let grid = ScenarioGrid::shifting();
        let cfg = SweepConfig::fast();
        let ctx = SweepContext::build(&grid, cfg, Some(2));
        for sc in grid.scenarios() {
            let contexted = ctx.run(&sc);
            let direct = run_scenario(&sc, &cfg);
            match (contexted, direct) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.sched_carbon_kg, b.sched_carbon_kg, "id {}", sc.id);
                    assert_eq!(a.median_g_per_kwh, b.median_g_per_kwh);
                    assert_eq!(a.shift_saved_kg, b.shift_saved_kg);
                    assert_eq!(a.break_even_years, b.break_even_years);
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("divergent feasibility: {a:?} vs {b:?}"),
            }
        }
    }
}
