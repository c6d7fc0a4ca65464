//! Integration of the grid and core: the life-cycle position of one
//! device on each simulated regional grid.

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
