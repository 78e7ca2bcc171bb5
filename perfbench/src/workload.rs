//! The benchmark's workloads: which scenarios each one runs, built from the
//! workload seed alone.

use cia_data::presets::Scale;
use cia_scenarios::{builtin_suite, pers_gossip_churn_suite, DefenseKind, ScenarioSpec, SuiteSpec};

/// Attack evaluations the gossip prefix must contain.
const GOSSIP_PREFIX_EVALS: u64 = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `baseline-static`: FedAvg, full sharing, an evaluation every 3 rounds.
    /// Attack scoring/ranking and client training dominate; no gossip code.
    FlPaper,
    /// `pers-static` from `pers-gossip-churn`, a prefix with three attack
    /// evaluations. MixTrain, snapshot/send and the per-delivery attack
    /// update dominate; scoring and ranking almost never run.
    GossipPaper,
    /// `baseline-static` under DP-SGD (ε = 10) and then Share-less (τ = 0.5).
    /// The DP transform and Share-less `prepare`/per-target scoring.
    FlMitigationsPaper,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::FlPaper, Workload::GossipPaper, Workload::FlMitigationsPaper];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlPaper => "fl-paper",
            Workload::GossipPaper => "gossip-paper",
            Workload::FlMitigationsPaper => "fl-mitigations-paper",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenarios one operation runs, in order, at `scale` with the
    /// workload seed `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a built-in suite lost the scenario the workload is built
    /// on (a program change the benchmark must follow).
    #[must_use]
    pub fn specs(self, scale: Scale, seed: u64) -> Vec<ScenarioSpec> {
        match self {
            Workload::FlPaper => vec![pick(&builtin_suite(scale, seed), "baseline-static")],
            Workload::GossipPaper => {
                vec![pick(&pers_gossip_churn_suite(scale, seed), "pers-static")]
            }
            Workload::FlMitigationsPaper => {
                // Built like the defense grid's cells: one field changed on
                // the undefended scenario.
                let base = pick(&builtin_suite(scale, seed), "baseline-static");
                let mut dp = base.clone();
                dp.name = "baseline-dp10".to_string();
                dp.defense = DefenseKind::Dp { epsilon: Some(10.0) };
                let mut share_less = base;
                share_less.name = "baseline-shareless".to_string();
                share_less.defense = DefenseKind::ShareLess { tau: 0.5 };
                vec![dp, share_less]
            }
        }
    }

    /// Whole cycles of [`Workload::specs`] an end-to-end run makes for a
    /// budget of `seconds`: the budget divided by the cycle's wall time on a
    /// 2-core x86-64 host, rounded, and at least one.
    #[must_use]
    pub fn cycles(self, seconds: f64) -> u64 {
        let nominal = match self {
            Workload::FlPaper => 3.0,
            Workload::GossipPaper => 18.0,
            Workload::FlMitigationsPaper => 18.0,
        };
        // A budget of 1e-3..=60 s keeps the quotient far inside u64.
        (seconds / nominal).round().max(1.0) as u64
    }

    /// Rounds after which each scenario stops (`None` runs to completion).
    #[must_use]
    pub fn stop_after(self, scale: Scale) -> Option<u64> {
        match self {
            Workload::GossipPaper => {
                let params = cia_scenarios::ScaleParams::of(scale);
                Some(GOSSIP_PREFIX_EVALS * params.gl_eval_every)
            }
            Workload::FlPaper | Workload::FlMitigationsPaper => None,
        }
    }
}

fn pick(suite: &SuiteSpec, name: &str) -> ScenarioSpec {
    suite
        .expanded()
        .expect("built-in suites expand")
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("built-in suite {} has no scenario {name}", suite.name))
}
