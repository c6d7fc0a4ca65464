//! Property tests for the grid simulator: invariants that must hold for
//! any seed and any region.

use hpcarbon_grid::fuel::{Fuel, GenerationMix};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::sim::simulate_year;
use hpcarbon_timeseries::datetime::TimeZone;
use hpcarbon_units::CarbonIntensity;
use proptest::prelude::*;

fn any_operator() -> impl Strategy<Value = OperatorId> {
    prop_oneof![
        Just(OperatorId::Kansai),
        Just(OperatorId::Tokyo),
        Just(OperatorId::Eso),
        Just(OperatorId::Ciso),
        Just(OperatorId::Pjm),
        Just(OperatorId::Miso),
        Just(OperatorId::Ercot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every simulated hour is physically bounded by the fuel palette.
    #[test]
    fn intensity_physically_bounded(op in any_operator(), seed in 0u64..200) {
        let t = simulate_year(op, 2021, seed);
        let min = t.series().min();
        let max = t.series().max();
        prop_assert!(min >= Fuel::Wind.emission_factor().as_g_per_kwh() - 1e-9);
        prop_assert!(max <= Fuel::Coal.emission_factor().as_g_per_kwh() + 1e-9);
    }

    /// Simulation is a pure function of (operator, year, seed).
    #[test]
    fn deterministic(op in any_operator(), seed in 0u64..100) {
        let a = simulate_year(op, 2021, seed);
        let b = simulate_year(op, 2021, seed);
        prop_assert_eq!(a.series().values(), b.series().values());
    }

    /// Annual ordering invariants survive any seed: Japan dirtier than GB,
    /// MISO dirtier than ESO.
    #[test]
    fn robust_orderings(seed in 0u64..50) {
        let eso = simulate_year(OperatorId::Eso, 2021, seed).mean().as_g_per_kwh();
        let tk = simulate_year(OperatorId::Tokyo, 2021, seed).mean().as_g_per_kwh();
        let miso = simulate_year(OperatorId::Miso, 2021, seed).mean().as_g_per_kwh();
        prop_assert!(tk > eso * 1.8, "tk {tk} vs eso {eso}");
        prop_assert!(miso > eso * 1.8, "miso {miso} vs eso {eso}");
    }

    /// Hourly profiles viewed from any timezone preserve the annual mean.
    #[test]
    fn profile_mean_is_zone_invariant(seed in 0u64..30, off in -12i8..=14i8) {
        let t = simulate_year(OperatorId::Ercot, 2021, seed);
        let tz = TimeZone::fixed(off, "TST");
        let profile = t.hourly_profile(tz);
        let profile_mean: f64 = profile.iter().sum::<f64>() / 24.0;
        // Hour buckets have equal sizes (8760/24), so the bucket-mean of
        // means equals the global mean.
        prop_assert!((profile_mean - t.series().mean()).abs() < 1e-6);
    }

    /// The greenest window is never worse than starting immediately.
    #[test]
    fn greenest_window_dominates_now(
        seed in 0u64..30,
        start in 0u32..8000,
        horizon in 0u32..72,
        n in 1u32..24,
    ) {
        let t = simulate_year(OperatorId::Eso, 2021, seed);
        let best = t.greenest_window(start, horizon, n);
        let mean_at = |s: u32| {
            let vals = &t.series().values()[s as usize..(s + n).min(8760) as usize];
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        if start + n <= 8760 && best + n <= 8760 {
            prop_assert!(mean_at(best) <= mean_at(start) + 1e-9);
        }
        prop_assert!(best >= start);
        prop_assert!(best <= start + horizon);
    }

    /// Generation mixes always yield intensities inside the convex hull of
    /// their fuels.
    #[test]
    fn mix_intensity_convex(
        coal in 0.0..2.0f64,
        gas in 0.0..2.0f64,
        wind in 0.0..2.0f64,
        nuclear in 0.0..2.0f64,
    ) {
        prop_assume!(coal + gas + wind + nuclear > 0.0);
        let mut m = GenerationMix::new();
        m.add(Fuel::Coal, coal);
        m.add(Fuel::Gas, gas);
        m.add(Fuel::Wind, wind);
        m.add(Fuel::Nuclear, nuclear);
        let i = m.intensity(CarbonIntensity::from_g_per_kwh(450.0)).as_g_per_kwh();
        prop_assert!(i >= Fuel::Wind.emission_factor().as_g_per_kwh() - 1e-9);
        prop_assert!(i <= Fuel::Coal.emission_factor().as_g_per_kwh() + 1e-9);
    }
}
