//! Bit-exact golden digests for the scheduling simulator.
//!
//! Each row pins an FNV-1a digest over every `JobOutcome` of one run (its
//! cluster index and the little-endian `f64::to_bits` of its wait, start,
//! carbon and energy) followed by the run's totals, for every `Policy`.
//! The single-region case is a congested 12-GPU cluster, so jobs queue
//! for capacity and first-fit backfill starts later arrivals ahead of a
//! blocked wider job; the multi-region case runs two 16-GPU clusters on
//! different grids. Each runs over three job-trace seeds. On a mismatch
//! the test prints the full recomputed table.

use hpcarbon_grid::{simulate_year, OperatorId};
use hpcarbon_sched::{Cluster, Job, JobTraceGenerator, Policy, SimOutcome, Simulation};

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn outcome_digest(out: &SimOutcome) -> u64 {
    let per_job = out.jobs.iter().flat_map(|j| {
        [
            j.cluster as u64,
            j.wait_hours.to_bits(),
            j.start_hours.to_bits(),
            j.carbon.as_g().to_bits(),
            j.energy.as_kwh().to_bits(),
        ]
    });
    let totals = [
        out.total_carbon.as_g().to_bits(),
        out.total_energy.as_kwh().to_bits(),
        out.mean_wait_hours.to_bits(),
        out.max_wait_hours.to_bits(),
    ];
    digest(per_job.chain(totals))
}

const POLICIES: [Policy; 7] = [
    Policy::Fifo,
    Policy::ThresholdDefer {
        threshold_g_per_kwh: 150.0,
    },
    Policy::GreenestWindow { horizon_hours: 24 },
    Policy::LowestIntensityRegion,
    Policy::RegionAndTime { horizon_hours: 24 },
    Policy::TemporalShift { slack_hours: 24 },
    Policy::SpatioTemporal { slack_hours: 24 },
];

const SEEDS: [u64; 3] = [1, 2, 3];

const JOBS: usize = 150;

/// `(setup, seed, policy label, digest of the run)`.
const RUN_DIGESTS: &[(&str, u64, &str, u64)] = &[
    ("single", 1, "FIFO (carbon-unaware)", 0x2e3d8e2a10201780),
    ("single", 1, "threshold deferral", 0x230bb6598fb6f30e),
    ("single", 1, "greenest-window deferral", 0xcd69d9e3b52a7b21),
    ("single", 1, "lowest-intensity region", 0x2e3d8e2a10201780),
    ("single", 1, "region + time aware", 0xcd69d9e3b52a7b21),
    ("single", 1, "temporal shift", 0xb4838a7426cd9d32),
    ("single", 1, "spatio-temporal shift", 0xb4838a7426cd9d32),
    ("single", 2, "FIFO (carbon-unaware)", 0x6bbce19b1cd2a364),
    ("single", 2, "threshold deferral", 0xa8ef29d677df7ca1),
    ("single", 2, "greenest-window deferral", 0x9ac14fc39f71e5b6),
    ("single", 2, "lowest-intensity region", 0x6bbce19b1cd2a364),
    ("single", 2, "region + time aware", 0x9ac14fc39f71e5b6),
    ("single", 2, "temporal shift", 0x3e94d118190dd8eb),
    ("single", 2, "spatio-temporal shift", 0x3e94d118190dd8eb),
    ("single", 3, "FIFO (carbon-unaware)", 0xbab3b10db22192f6),
    ("single", 3, "threshold deferral", 0x563da8bd8e660ebe),
    ("single", 3, "greenest-window deferral", 0x125e907e34390e73),
    ("single", 3, "lowest-intensity region", 0xbab3b10db22192f6),
    ("single", 3, "region + time aware", 0x125e907e34390e73),
    ("single", 3, "temporal shift", 0xb2d62f5ada956797),
    ("single", 3, "spatio-temporal shift", 0xb2d62f5ada956797),
    ("multi", 1, "FIFO (carbon-unaware)", 0x835d9b0e2cd791ed),
    ("multi", 1, "threshold deferral", 0xbc79c8feb2f01a4c),
    ("multi", 1, "greenest-window deferral", 0x65a846a96db2ed51),
    ("multi", 1, "lowest-intensity region", 0xb3aa6026984ee11b),
    ("multi", 1, "region + time aware", 0x706e745139c34416),
    ("multi", 1, "temporal shift", 0x090b3bece812693a),
    ("multi", 1, "spatio-temporal shift", 0x4b4e01b19f714fd0),
    ("multi", 2, "FIFO (carbon-unaware)", 0xb7cecdfe96837255),
    ("multi", 2, "threshold deferral", 0x92e1c6fa7c2de0bd),
    ("multi", 2, "greenest-window deferral", 0x26022af48e70e56b),
    ("multi", 2, "lowest-intensity region", 0x130c58c48a2ebf80),
    ("multi", 2, "region + time aware", 0x0fe1370ca2cdad44),
    ("multi", 2, "temporal shift", 0x52f0adb8e01dcf05),
    ("multi", 2, "spatio-temporal shift", 0x24d985ff80a63f02),
    ("multi", 3, "FIFO (carbon-unaware)", 0xd59c46c2454a117f),
    ("multi", 3, "threshold deferral", 0x266634b7a71a16b0),
    ("multi", 3, "greenest-window deferral", 0x10f26b5e778bb84e),
    ("multi", 3, "lowest-intensity region", 0x262d3300f1c22e2b),
    ("multi", 3, "region + time aware", 0xf9e21fe56280fcba),
    ("multi", 3, "temporal shift", 0x5f91fe9bb3f2bd55),
    ("multi", 3, "spatio-temporal shift", 0xbbabaf3cc8cb9120),
];

fn single_region(policy: Policy, jobs: &[Job]) -> SimOutcome {
    let trace = simulate_year(OperatorId::Eso, 2021, 7);
    Simulation::single_region(Cluster::new("eso", trace, 12), policy, jobs).run()
}

fn multi_region(policy: Policy, jobs: &[Job]) -> SimOutcome {
    let clusters = vec![
        Cluster::new("eso", simulate_year(OperatorId::Eso, 2021, 7), 16),
        Cluster::new("ciso", simulate_year(OperatorId::Ciso, 2021, 7), 16),
    ];
    Simulation::multi_region(clusters, policy, jobs).run()
}

/// True when some job started before a job that arrived earlier, i.e.
/// the queue admitted a later arrival past a blocked one.
fn backfilled(out: &SimOutcome, jobs: &[Job]) -> bool {
    jobs.iter().any(|a| {
        jobs.iter().any(|b| {
            a.arrival_hours < b.arrival_hours
                && out.jobs[b.id].start_hours < out.jobs[a.id].start_hours
        })
    })
}

/// One cluster setup: runs a policy over a job trace.
type Setup = fn(Policy, &[Job]) -> SimOutcome;

fn run_rows() -> Vec<(&'static str, u64, &'static str, u64)> {
    let setups: [(&str, Setup); 2] = [("single", single_region), ("multi", multi_region)];
    let mut rows = Vec::new();
    for (name, run) in setups {
        for seed in SEEDS {
            let jobs = JobTraceGenerator::default_rates().generate(JOBS, seed);
            for policy in POLICIES {
                let out = run(policy, &jobs);
                assert_eq!(out.jobs.len(), JOBS);
                if name == "single" && policy == Policy::Fifo {
                    assert!(backfilled(&out, &jobs), "seed {seed}: no backfill fired");
                }
                rows.push((name, seed, policy.label(), outcome_digest(&out)));
            }
        }
    }
    rows
}

#[test]
fn simulation_bits_match_the_golden_digests() {
    let rows = run_rows();
    if rows != RUN_DIGESTS {
        println!("const RUN_DIGESTS: &[(&str, u64, &str, u64)] = &[");
        for (setup, seed, label, d) in &rows {
            println!("    (\"{setup}\", {seed}, \"{label}\", 0x{d:016x}),");
        }
        println!("];");
        panic!("simulation output bits changed (recomputed table printed above)");
    }
}
