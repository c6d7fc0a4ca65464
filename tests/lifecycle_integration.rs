//! Integration of the power tracker, grid and core: the accounting the
//! paper runs with carbontracker on real nodes.

use sustainable_hpc::power::tracker::CarbonTracker;
use sustainable_hpc::prelude::*;

/// Embodied parity: how long a device must run before operational carbon
/// equals its embodied carbon — the paper's "greener grids make embodied
/// dominant" argument, quantified end to end.
#[test]
fn embodied_parity_shifts_with_region() {
    use sustainable_hpc::core::lifecycle::LifecyclePosition;
    let a100 = PartId::GpuA100Pcie40.spec();
    let position = LifecyclePosition {
        embodied: a100.embodied().total(),
        avg_it_power: Power::from_w(250.0 * 0.4), // 40% duty at TDP
        pue: Pue::DEFAULT,
    };
    let traces = simulate_all_regions(2021, 11);
    let parity_years: Vec<(OperatorId, f64)> = traces
        .iter()
        .map(|t| {
            (
                t.operator(),
                position
                    .embodied_parity_time(t.mean())
                    .expect("positive intensity")
                    .as_years(),
            )
        })
        .collect();
    let get = |op: OperatorId| parity_years.iter().find(|(o, _)| *o == op).unwrap().1;
    // On the dirtiest grid the embodied carbon is matched several times
    // faster than on the greenest one.
    assert!(get(OperatorId::Eso) > 2.0 * get(OperatorId::Tokyo));
    // Parity spans weeks (Tokyo's ~545 gCO2/kWh grid) to months (GB).
    for (_, years) in &parity_years {
        assert!((0.02..=5.0).contains(years), "{years}");
    }
}

/// The carbontracker prediction is conservative under intensity variation:
/// pricing hour-by-hour differs from mean-intensity pricing, bounded by
/// the trace's min/max.
#[test]
fn hourly_pricing_bounded_by_trace_extremes() {
    let trace = simulate_year(OperatorId::Eso, 2021, 17);
    let tracker = CarbonTracker::new(Pue::new(1.0));
    let energy = Energy::from_kwh(100.0);
    let duration = TimeSpan::from_hours(10.0);
    for start in [0u32, 1000, 4000, 8000] {
        let carbon = tracker.account_against_trace(&trace, start, energy, duration);
        let implied = carbon.as_g() / energy.as_kwh();
        assert!(implied >= trace.series().min() - 1e-9);
        assert!(implied <= trace.series().max() + 1e-9);
    }
}
