//! Quickstart: the paper's Eq. 1 pipeline end to end for one GPU.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Computes the embodied carbon of an NVIDIA A100 (Eqs. 2–5), prices a
//! fine-tuning run hour by hour against a simulated Great Britain grid
//! trace (Eq. 6), and reports the life-cycle total.

use sustainable_hpc::power::pue_model::{account_with_seasonal_pue, SeasonalPue};
use sustainable_hpc::prelude::*;

fn main() {
    // --- Embodied carbon (production stage) -------------------------------
    let a100 = PartId::GpuA100Pcie40.spec();
    let embodied = a100.embodied();
    println!("== Embodied carbon: {} ==", a100.part_name);
    println!("  manufacturing : {}", embodied.manufacturing);
    println!("  packaging     : {}", embodied.packaging);
    println!(
        "  total         : {}  ({} of it packaging)",
        embodied.total(),
        embodied.packaging_share()
    );
    println!(
        "  per FP64 TFLOPS: {:.2} kgCO2/TFLOPS",
        a100.embodied_per_tflops().expect("GPU has FP64 spec")
    );

    // --- Operational carbon (use stage) ------------------------------------
    // A BERT fine-tune: 20 epochs of 18 min at ~280 W IT draw
    // (0.084 kWh each), priced hour by hour against the grid trace.
    let trace = simulate_year(OperatorId::Eso, 2021, 42);
    println!("\n== Operational carbon: BERT fine-tune on one A100 ==");
    println!(
        "  grid: {} (annual mean {})",
        OperatorId::Eso.info().name,
        trace.mean()
    );

    let energy = Energy::from_kwh(0.084) * 20.0;
    let duration = TimeSpan::from_minutes(18.0) * 20.0;
    // A constant facility PUE of 1.2 (zero seasonal swing).
    let pue = SeasonalPue::new(1.2, 0.0);
    println!(
        "  run: {energy} over {duration}, {} at the annual mean intensity",
        operational_carbon(energy, pue.mean(), trace.mean())
    );

    // The actual run starts at 18:00 on June 1 (a dirty evening hour).
    let start = 24 * 151 + 18;
    let actual = account_with_seasonal_pue(&trace, &pue, start, energy, duration);
    println!("  actual (hourly-priced, evening start): {actual}");

    // Shifting the same run to the greenest window of the next day helps:
    let best = trace.greenest_window(start, 24, duration.as_hours().ceil() as u32);
    let shifted = account_with_seasonal_pue(&trace, &pue, best, energy, duration);
    println!(
        "  shifted {}h later into the greenest window: {} ({:+.1}%)",
        best - start,
        shifted,
        100.0 * (shifted.as_g() - actual.as_g()) / actual.as_g()
    );

    // --- Life-cycle total (Eq. 1) -------------------------------------------
    let total = total_carbon(embodied.total(), actual);
    println!("\n== Life-cycle position (Eq. 1) ==");
    println!(
        "  C_total = C_em + C_op = {} + {} = {}",
        embodied.total(),
        actual,
        total
    );
    println!(
        "  (one fine-tune adds {:.3}% on top of the embodied carbon)",
        100.0 * actual.as_g() / embodied.total().as_g()
    );
}
