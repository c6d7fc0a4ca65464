//! Savings curves, break-even solving and the Fig. 8/9 grids.

use hpcarbon_core::operational::Pue;
use hpcarbon_units::{CarbonIntensity, CarbonMass, Energy, Fraction, TimeSpan};
use hpcarbon_workloads::benchmarks::Suite;
use hpcarbon_workloads::nodes::NodeGen;
use hpcarbon_workloads::perf::suite_speedup;
use hpcarbon_workloads::power::node_active_power;

/// The three usage patterns of the paper's Fig. 9: medium is 40% ("to
/// align with a production trace"), high and low are 1.5× more and less.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UsageLevel {
    /// 60% busy.
    High,
    /// 40% busy.
    Medium,
    /// 26.7% busy.
    Low,
}

impl UsageLevel {
    /// All levels in the paper's legend order.
    pub const ALL: [UsageLevel; 3] = [UsageLevel::High, UsageLevel::Medium, UsageLevel::Low];

    /// The busy fraction.
    pub fn fraction(self) -> Fraction {
        match self {
            UsageLevel::High => Fraction::new_unchecked(0.60),
            UsageLevel::Medium => Fraction::new_unchecked(0.40),
            UsageLevel::Low => Fraction::new_unchecked(0.40 / 1.5),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            UsageLevel::High => "High Usage",
            UsageLevel::Medium => "Medium Usage",
            UsageLevel::Low => "Low Usage",
        }
    }
}

/// One upgrade question: replace `old` with `new` for workload `suite`,
/// given a usage pattern and facility PUE.
#[derive(Debug, Clone, Copy)]
pub struct UpgradeScenario {
    /// Currently deployed node generation.
    pub old: NodeGen,
    /// Candidate replacement generation.
    pub new: NodeGen,
    /// Workload mix driving performance/power.
    pub suite: Suite,
    /// Fraction of time the old node is busy serving work.
    pub usage: Fraction,
    /// Facility PUE.
    pub pue: Pue,
}

impl UpgradeScenario {
    /// The paper's default configuration: 40% usage ("medium"), constant
    /// PUE.
    pub fn paper_default(old: NodeGen, new: NodeGen, suite: Suite) -> UpgradeScenario {
        UpgradeScenario {
            old,
            new,
            suite,
            usage: UsageLevel::Medium.fraction(),
            pue: Pue::DEFAULT,
        }
    }

    /// The three upgrade options of Fig. 8 / Table 6.
    pub fn paper_options(suite: Suite) -> [UpgradeScenario; 3] {
        [
            UpgradeScenario::paper_default(NodeGen::P100Node, NodeGen::V100Node, suite),
            UpgradeScenario::paper_default(NodeGen::P100Node, NodeGen::A100Node, suite),
            UpgradeScenario::paper_default(NodeGen::V100Node, NodeGen::A100Node, suite),
        ]
    }

    /// Suite-average speedup of the upgrade.
    pub fn speedup(&self) -> f64 {
        suite_speedup(self.suite, self.old, self.new)
    }

    /// Embodied carbon paid by the upgrade (the new node's full build).
    pub fn upgrade_embodied(&self) -> CarbonMass {
        self.new.embodied().total()
    }

    /// Annual facility energy of the *old* node serving the workload.
    pub fn old_annual_energy(&self) -> Energy {
        let busy = self.usage.value();
        let p = node_active_power(self.old, self.suite) * busy;
        self.pue.apply(p * TimeSpan::from_years(1.0))
    }

    /// Annual facility energy of the *new* node serving the same workload
    /// (busy fraction shrinks by the speedup).
    pub fn new_annual_energy(&self) -> Energy {
        let busy = self.usage.value() / self.speedup();
        let p = node_active_power(self.new, self.suite) * busy;
        self.pue.apply(p * TimeSpan::from_years(1.0))
    }

    /// Annual operational-energy saving of the upgrade (may be negative if
    /// the new node is less efficient per unit of work).
    pub fn annual_energy_saving(&self) -> Energy {
        self.old_annual_energy() - self.new_annual_energy()
    }

    /// Cumulative carbon of *keeping* the old node for `t` (operational
    /// only — its embodied carbon is sunk).
    pub fn carbon_keep(&self, t: TimeSpan, intensity: CarbonIntensity) -> CarbonMass {
        intensity * (self.old_annual_energy() * t.as_years())
    }

    /// Cumulative carbon of *upgrading*: new embodied + new operational.
    pub fn carbon_upgrade(&self, t: TimeSpan, intensity: CarbonIntensity) -> CarbonMass {
        self.upgrade_embodied() + intensity * (self.new_annual_energy() * t.as_years())
    }

    /// Fig. 8/9's y-axis: percentage carbon saving of upgrading relative
    /// to keeping, after `t` of operation. Negative while the embodied
    /// "tax" is unpaid.
    pub fn savings_percent(&self, t: TimeSpan, intensity: CarbonIntensity) -> f64 {
        let keep = self.carbon_keep(t, intensity);
        if keep.as_g() <= 0.0 {
            return f64::NEG_INFINITY;
        }
        100.0 * (keep - self.carbon_upgrade(t, intensity)).as_g() / keep.as_g()
    }

    /// The asymptotic saving as `t → ∞`: the pure energy-efficiency gain.
    pub fn asymptotic_savings_percent(&self) -> f64 {
        100.0 * (1.0 - self.new_annual_energy() / self.old_annual_energy())
    }

    /// Time until the upgrade's cumulative carbon matches keeping the old
    /// node ("the time it takes to amortize the embodied carbon").
    /// `None` when the upgrade never pays off at this intensity.
    pub fn break_even(&self, intensity: CarbonIntensity) -> Option<TimeSpan> {
        let saving_per_year = intensity * self.annual_energy_saving();
        if saving_per_year.as_g() <= 0.0 {
            return None;
        }
        let years = self.upgrade_embodied() / saving_per_year;
        Some(TimeSpan::from_years(years))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcarbon_grid::IntensityLevel;

    fn scenario(old: NodeGen, new: NodeGen, suite: Suite) -> UpgradeScenario {
        UpgradeScenario::paper_default(old, new, suite)
    }

    #[test]
    fn usage_levels_match_paper() {
        assert_eq!(UsageLevel::Medium.fraction().value(), 0.40);
        assert_eq!(UsageLevel::High.fraction().value(), 0.60);
        assert!((UsageLevel::Low.fraction().value() - 0.2667).abs() < 1e-3);
    }

    #[test]
    fn curves_start_negative() {
        // "all curves start from a negative point because an upgrade
        // immediately incurs embodied carbon cost".
        for suite in Suite::ALL {
            for s in UpgradeScenario::paper_options(suite) {
                for level in IntensityLevel::ALL {
                    let early = s.savings_percent(TimeSpan::from_days(3.0), level.intensity());
                    assert!(early < 0.0, "{s:?} {level:?}: {early}");
                }
            }
        }
    }

    #[test]
    fn curves_increase_toward_asymptote() {
        let s = scenario(NodeGen::V100Node, NodeGen::A100Node, Suite::Nlp);
        let i = IntensityLevel::Medium.intensity();
        let mut last = f64::NEG_INFINITY;
        for years in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let v = s.savings_percent(TimeSpan::from_years(years), i);
            assert!(v > last, "savings must increase with time");
            last = v;
        }
        assert!(last < s.asymptotic_savings_percent());
        let far = s.savings_percent(TimeSpan::from_years(1000.0), i);
        assert!((far - s.asymptotic_savings_percent()).abs() < 0.5);
    }

    #[test]
    fn break_even_matches_zero_crossing() {
        let s = scenario(NodeGen::P100Node, NodeGen::A100Node, Suite::Vision);
        let i = IntensityLevel::Medium.intensity();
        let t = s.break_even(i).expect("pays off at 200 g/kWh");
        let at = s.savings_percent(t, i);
        assert!(at.abs() < 1e-6, "savings at break-even: {at}");
    }

    #[test]
    fn fig8_break_even_ordering_across_intensity() {
        // "at high carbon intensity, it takes less than half a year …; at
        // medium … less than a year …; at low … about five years or more."
        for suite in Suite::ALL {
            for s in UpgradeScenario::paper_options(suite) {
                let hi = s
                    .break_even(IntensityLevel::High.intensity())
                    .unwrap()
                    .as_years();
                let med = s
                    .break_even(IntensityLevel::Medium.intensity())
                    .unwrap()
                    .as_years();
                let low = s
                    .break_even(IntensityLevel::Low.intensity())
                    .unwrap()
                    .as_years();
                assert!(hi < 0.5, "{suite:?} {:?}->{:?}: hi={hi}", s.old, s.new);
                assert!(med < 1.0, "{suite:?}: med={med}");
                assert!(med > hi && low > med);
                assert!(low >= 3.0, "{suite:?}: low={low}");
                // Exactly 10x medium (intensity scales linearly).
                assert!((low / med - 10.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn v100_to_a100_low_intensity_takes_about_5_years_or_more() {
        // Paper: "at low carbon intensity … the amortization time is about
        // five years or more".
        for suite in Suite::ALL {
            let s = scenario(NodeGen::V100Node, NodeGen::A100Node, suite);
            let low = s
                .break_even(IntensityLevel::Low.intensity())
                .unwrap()
                .as_years();
            assert!(low > 4.5, "{suite:?}: {low}");
        }
        // The slowest-improving suite (NLP) takes clearly more than five.
        let nlp = scenario(NodeGen::V100Node, NodeGen::A100Node, Suite::Nlp)
            .break_even(IntensityLevel::Low.intensity())
            .unwrap()
            .as_years();
        assert!(nlp > 5.0, "NLP low-CI break-even {nlp}");
    }

    #[test]
    fn nlp_curve_sits_below_other_suites() {
        // "NLP curve is typically below other Vision and CANDLE workloads
        // because NLP receives the least performance improvement" —
        // for the V100 -> A100 upgrade.
        let i = IntensityLevel::Medium.intensity();
        let t = TimeSpan::from_years(3.0);
        let nlp = scenario(NodeGen::V100Node, NodeGen::A100Node, Suite::Nlp).savings_percent(t, i);
        let vision =
            scenario(NodeGen::V100Node, NodeGen::A100Node, Suite::Vision).savings_percent(t, i);
        let candle =
            scenario(NodeGen::V100Node, NodeGen::A100Node, Suite::Candle).savings_percent(t, i);
        assert!(nlp < vision, "nlp={nlp} vision={vision}");
        assert!(nlp < candle, "nlp={nlp} candle={candle}");
    }

    #[test]
    fn fig9_usage_ordering() {
        // Higher usage amortizes faster; at CI 200, V100->A100 low usage
        // pays off around one year ("the low usage pattern has just paid
        // off the initial embodied carbon" after one year).
        let i = IntensityLevel::Medium.intensity();
        let mk = |u: UsageLevel| UpgradeScenario {
            usage: u.fraction(),
            ..scenario(NodeGen::V100Node, NodeGen::A100Node, Suite::Nlp)
        };
        let hi = mk(UsageLevel::High).break_even(i).unwrap().as_years();
        let med = mk(UsageLevel::Medium).break_even(i).unwrap().as_years();
        let low = mk(UsageLevel::Low).break_even(i).unwrap().as_years();
        assert!(hi < med && med < low);
        assert!((0.7..=1.6).contains(&low), "low-usage break-even {low}");
        // Usage differences matter less than intensity differences
        // ("The difference is not as significant as the carbon intensity").
        assert!(low / hi < 3.0);
    }

    #[test]
    fn faster_upgrades_amortize_faster() {
        // P100 -> A100 saves more energy per year than P100 -> V100.
        let i = IntensityLevel::Medium.intensity();
        for suite in Suite::ALL {
            let pv = scenario(NodeGen::P100Node, NodeGen::V100Node, suite);
            let pa = scenario(NodeGen::P100Node, NodeGen::A100Node, suite);
            assert!(
                pa.annual_energy_saving() > pv.annual_energy_saving(),
                "{suite:?}"
            );
            // Both pay off within a year at medium intensity.
            assert!(pa.break_even(i).unwrap().as_years() < 1.0);
        }
    }

    #[test]
    fn zero_intensity_never_pays_off() {
        let s = scenario(NodeGen::P100Node, NodeGen::A100Node, Suite::Nlp);
        assert!(s.break_even(CarbonIntensity::from_g_per_kwh(0.0)).is_none());
    }
}
