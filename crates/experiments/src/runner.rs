//! Smoke tests of the end-to-end runs behind most tables and figures,
//! which drive [`cia_scenarios::run_quiet`] with a
//! [`cia_scenarios::ScenarioSpec`]: FL and gossip, both models, both
//! defenses, a coalition, and the dynamics-aware bound.

#[cfg(test)]
mod tests {
    use crate::{build_setup, DefenseKind, ModelKind, ProtocolKind};
    use cia_data::presets::{Preset, Scale};
    use cia_scenarios::{run_quiet, ScenarioSpec};

    #[test]
    fn smoke_fl_gmf_run() {
        let spec =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, Scale::Smoke);
        let r = run_quiet(&spec);
        assert!(r.attack.max_aac > r.attack.random_bound, "attack below random");
        assert!(r.utility > 0.0, "HR must be positive");
        assert_eq!(r.utility_metric, "HR@20");
    }

    #[test]
    fn smoke_gossip_prme_run() {
        let spec = ScenarioSpec::new(
            Preset::Foursquare,
            ModelKind::Prme,
            ProtocolKind::RandGossip,
            Scale::Smoke,
        );
        let r = run_quiet(&spec);
        assert!((0.0..=1.0).contains(&r.attack.max_aac));
        assert_eq!(r.utility_metric, "F1@20");
    }

    #[test]
    fn smoke_share_less_and_dp_run() {
        let mut spec =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, Scale::Smoke);
        spec.defense = DefenseKind::ShareLess { tau: 0.3 };
        let sl = run_quiet(&spec);
        assert!((0.0..=1.0).contains(&sl.attack.max_aac));

        spec.defense = DefenseKind::Dp { epsilon: Some(10.0) };
        let dp = run_quiet(&spec);
        assert!((0.0..=1.0).contains(&dp.attack.max_aac));
    }

    #[test]
    fn smoke_coalition_run() {
        let mut spec = ScenarioSpec::new(
            Preset::MovieLens,
            ModelKind::Gmf,
            ProtocolKind::RandGossip,
            Scale::Smoke,
        );
        spec.colluders = 4;
        let r = run_quiet(&spec);
        assert!((0.0..=1.0).contains(&r.attack.max_aac));
        assert!(r.attack.upper_bound > 0.0, "coalition saw nobody");
    }

    #[test]
    fn online_bound_matches_static_bound_without_dynamics() {
        // Every table/figure run is a static-population scenario, so the
        // dynamics-aware bound must coincide with the paper's coverage
        // bound — tables keep reporting one number.
        let spec =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, Scale::Smoke);
        let r = run_quiet(&spec);
        assert_eq!(r.attack.upper_bound_online, r.attack.upper_bound);
        for p in &r.attack.history {
            assert_eq!(p.upper_bound_online, p.upper_bound);
        }
    }

    #[test]
    fn online_bound_separates_under_churn() {
        let mut spec =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, Scale::Smoke);
        spec.dynamics = cia_scenarios::DynamicsSpec {
            leave_prob: 0.2,
            join_prob: 0.3,
            initial_online: 0.8,
            ..Default::default()
        };
        let r = run_quiet(&spec);
        assert!(
            r.attack.history.iter().all(|p| p.upper_bound_online <= p.upper_bound + 1e-12),
            "online bound exceeded the static bound"
        );
        assert!(
            r.attack.history.iter().any(|p| p.upper_bound_online < p.upper_bound),
            "churn never separated the bounds"
        );
    }

    #[test]
    fn setup_tables_are_aligned() {
        let s = build_setup(Preset::MovieLens, Scale::Smoke, None, 1);
        assert_eq!(s.truth_table().len(), s.data.num_users());
        assert_eq!(s.owner_table().len(), s.data.num_users());
        assert_eq!(s.k, 5);
    }
}
