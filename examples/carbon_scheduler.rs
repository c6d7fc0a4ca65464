//! The carbon-intensity-aware scheduler the paper's §4 calls for.
//!
//! ```text
//! cargo run --example carbon_scheduler
//! ```
//!
//! Runs the same 500-job trace under five scheduling policies across two
//! geographically distributed clusters (Great Britain + California, the
//! two greenest Table 3 regions) and reports the carbon/wait trade-off.

use sustainable_hpc::prelude::*;

fn main() {
    let gb = Cluster::new("gb-site", simulate_year(OperatorId::Eso, 2021, 7), 96);
    let ca = Cluster::new("ca-site", simulate_year(OperatorId::Ciso, 2021, 7), 96);
    let jobs = JobTraceGenerator::default_rates().generate(500, 99);

    let policies = [
        Policy::Fifo,
        Policy::ThresholdDefer {
            threshold_g_per_kwh: 150.0,
        },
        Policy::GreenestWindow { horizon_hours: 24 },
        Policy::LowestIntensityRegion,
        Policy::RegionAndTime { horizon_hours: 24 },
    ];

    println!("500 jobs over two sites (GB + CA), 2021 hourly intensities\n");
    println!(
        "{:<28} {:>12} {:>12} {:>11} {:>10}",
        "policy", "tCO2 total", "kg/job", "mean wait", "max wait"
    );
    let mut fifo_carbon = None;
    for policy in policies {
        let outcome = Simulation::multi_region(vec![gb.clone(), ca.clone()], policy, &jobs).run();
        let total_t = outcome.total_carbon.as_t();
        if policy == Policy::Fifo {
            fifo_carbon = Some(total_t);
        }
        let vs_fifo = fifo_carbon
            .map(|f| format!("{:+.1}%", 100.0 * (total_t - f) / f))
            .unwrap_or_default();
        println!(
            "{:<28} {:>10.3} t {:>9.2} kg {:>9.1} h {:>8.1} h   {vs_fifo}",
            policy.label(),
            total_t,
            outcome.mean_carbon_g() / 1e3,
            outcome.mean_wait_hours,
            outcome.max_wait_hours,
        );
    }
}
