//! CIA in the gossip setting (Algorithm 2): adversaries attack with the
//! models delivered to the node(s) they control.
//!
//! A single adversary or a colluding coalition runs the paper-exact
//! parameter momentum of [`crate::GlCiaCoalition`], the gossip role of
//! [`crate::MomentumCia`]. This module holds [`GlCiaAllPlacements`]: every
//! node simultaneously plays the adversary with its own train set as the
//! target (the paper's Table III protocol). Per-(observer, sender)
//! parameter momentum for every placement at once would need O(N²) model
//! copies, so the momentum (Eq. 4) is applied to relevance *scores*
//! instead of parameters. With `β = 0` both engines rank by the latest
//! delivered model, and the test below checks that they agree.

use crate::cia::CiaConfig;
use crate::evaluator::RelevanceEvaluator;
use crate::metrics::{community_accuracy, top_k_ids, AttackOutcome, AttackTracker, RoundPoint};
use cia_data::UserId;
use cia_gossip::{GossipObserver, GossipRoundStats};
use cia_models::parallel::par_map;
use cia_models::SharedModel;
use cia_obs::Recorder;
use cia_runtime::{Checkpointable, LivenessEvent};

/// Serializable snapshot of an all-placements sweep's mutable state
/// (checkpoint/resume counterpart of [`crate::CiaAttackState`]).
#[derive(Debug, Clone)]
pub struct PlacementsState {
    /// Dense score EMAs (`NaN` = never seen).
    pub s_ema: Vec<f32>,
    /// Evaluated history recorded so far.
    pub history: Vec<RoundPoint>,
    /// Whether the evaluator has been prepared at least once.
    pub prepared: bool,
}

/// The all-placements sweep: node `u` attacks with its own train set as
/// `V_target`, for every `u` simultaneously, applying the momentum to
/// relevance scores (score-EMA; see the module docs).
pub struct GlCiaAllPlacements<E: RelevanceEvaluator> {
    cfg: CiaConfig,
    evaluator: E,
    truths: Vec<Vec<UserId>>,
    /// Dense score EMAs: `s[observer * n + sender]`, NaN = never seen.
    s_ema: Vec<f32>,
    num_users: usize,
    /// Latest wake mask (see [`crate::MomentumCia`]'s `live` field).
    live: Vec<bool>,
    tracker: AttackTracker,
    prepared: bool,
    /// Metrics sink for the attack-phase spans (prepare/rank/update); a
    /// detached default until the runner wires in the shared recorder.
    obs: Recorder,
}

impl<E: RelevanceEvaluator> GlCiaAllPlacements<E> {
    /// Creates the sweep; the evaluator must register exactly one target per
    /// node (node `u`'s target is its own train set).
    ///
    /// # Panics
    ///
    /// Panics if the evaluator's target count differs from `num_users` or
    /// the truth table is misaligned.
    pub fn new(cfg: CiaConfig, evaluator: E, num_users: usize, truths: Vec<Vec<UserId>>) -> Self {
        assert!(cfg.k > 0, "community size must be positive");
        assert!(cfg.eval_every > 0, "eval_every must be positive");
        assert_eq!(evaluator.num_targets(), num_users, "one target per node");
        assert_eq!(truths.len(), num_users, "one truth per node");
        GlCiaAllPlacements {
            tracker: AttackTracker::new(cfg.k, num_users.saturating_sub(1)),
            cfg,
            evaluator,
            truths,
            s_ema: vec![f32::NAN; num_users * num_users],
            num_users,
            live: vec![true; num_users],
            prepared: false,
            obs: Recorder::new(),
        }
    }

    /// Routes the sweep's spans into a shared recorder (the default sink is
    /// detached). Clones are cheap; all clones share one registry.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// The attack summary (AAC averaged over all adversary placements).
    pub fn outcome(&self) -> AttackOutcome {
        self.tracker.outcome()
    }

    /// The evaluated per-round history so far.
    pub fn history(&self) -> &[RoundPoint] {
        self.tracker.history()
    }

    /// The relevance evaluator (checkpoint access to evaluator-side state).
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }

    /// Mutable access to the relevance evaluator (checkpoint resume).
    pub fn evaluator_mut(&mut self) -> &mut E {
        &mut self.evaluator
    }

    fn evaluate(&mut self, round: u64) {
        let _rank = self.obs.span("attack_rank");
        let n = self.num_users;
        let k = self.cfg.k;
        // Accuracy covers every placement (the paper's AAC); the coverage
        // bounds cover only observers with at least one observation — an
        // observer that never heard anything (offline the whole window under
        // churn, say) has no vantage point, and averaging its zero into the
        // bound would conflate "offline" with "zero coverage".
        let results: Vec<(f64, Option<(f64, f64)>)> = par_map(n, |obs| {
            let row = &self.s_ema[obs * n..(obs + 1) * n];
            // NaN marks a sender this observer never heard from: not a
            // candidate.
            let heard = row
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_nan())
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                .map(|(u, &s)| (s, u as u32));
            let predicted: Vec<UserId> = top_k_ids(heard, k).into_iter().map(UserId::new).collect();
            if predicted.is_empty() {
                return (0.0, None);
            }
            let acc = community_accuracy(&predicted, &self.truths[obs], k);
            let seen = self.truths[obs].iter().filter(|u| !row[u.index()].is_nan()).count();
            let seen_live = self.truths[obs]
                .iter()
                .filter(|u| !row[u.index()].is_nan() && self.live[u.index()])
                .count();
            (acc, Some((seen as f64 / k as f64, seen_live as f64 / k as f64)))
        });
        let accs: Vec<f64> = results.iter().map(|r| r.0).collect();
        let uppers: Vec<f64> = results.iter().filter_map(|r| r.1.map(|b| b.0)).collect();
        let uppers_online: Vec<f64> = results.iter().filter_map(|r| r.1.map(|b| b.1)).collect();
        self.tracker.record_with_online(round, &accs, &uppers, &uppers_online);
    }
}

/// Snapshot/restore of the sweep's mutable state for checkpoint/resume.
/// Restoring panics if the score table is not aligned with the participants.
impl<E: RelevanceEvaluator> Checkpointable for GlCiaAllPlacements<E> {
    type State = PlacementsState;

    fn export_state(&self) -> PlacementsState {
        PlacementsState {
            s_ema: self.s_ema.clone(),
            history: self.tracker.history().to_vec(),
            prepared: self.prepared,
        }
    }

    fn restore_state(&mut self, state: PlacementsState) {
        assert_eq!(state.s_ema.len(), self.s_ema.len(), "score table size");
        self.s_ema = state.s_ema;
        self.tracker.restore_history(state.history);
        self.prepared = state.prepared;
    }
}

impl<E: RelevanceEvaluator> GossipObserver for GlCiaAllPlacements<E> {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { mask, .. } = event {
            // One entry per node; mismatches must panic, not truncate.
            self.live.copy_from_slice(mask);
        }
    }

    fn on_delivery(&mut self, _round: u64, receiver: UserId, model: &SharedModel) {
        let _update = self.obs.span("attack_update");
        if !self.prepared {
            // Share-less fictive embeddings need public parameters; the first
            // delivered model provides them (refreshed lazily afterwards).
            self.evaluator.prepare(&model.agg, self.cfg.seed);
            self.prepared = true;
        }
        let obs = receiver.index();
        let y = self.evaluator.relevance_one(model.owner_emb.as_deref(), &model.agg, obs);
        let slot = &mut self.s_ema[obs * self.num_users + model.owner.index()];
        if slot.is_nan() {
            *slot = y;
        } else {
            *slot = self.cfg.beta * *slot + (1.0 - self.cfg.beta) * y;
        }
    }

    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        if (stats.round + 1).is_multiple_of(self.cfg.eval_every) {
            self.evaluate(stats.round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ItemSetEvaluator;
    use crate::GlCiaCoalition;
    use cia_data::{GroundTruth, LeaveOneOut, SyntheticConfig};
    use cia_gossip::{GossipConfig, GossipSim};
    use cia_models::{GmfClient, GmfHyper, GmfSpec, SharingPolicy};

    struct Setup {
        clients: Vec<GmfClient>,
        spec: GmfSpec,
        train_sets: Vec<Vec<u32>>,
        truths: Vec<Vec<UserId>>,
        users: usize,
        k: usize,
    }

    fn setup(users: usize, k: usize, seed: u64) -> Setup {
        let data = SyntheticConfig::builder()
            .users(users)
            .items(120)
            .communities(6)
            .interactions_per_user(14)
            .seed(seed)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 10, 3).unwrap();
        let gt = GroundTruth::from_train_sets(split.train_sets(), k);
        let spec = GmfSpec::new(120, 8, GmfHyper::default());
        let clients: Vec<_> = split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                spec.build_client(
                    // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                    UserId::new(u as u32),
                    items.clone(),
                    SharingPolicy::Full,
                    u as u64,
                )
            })
            .collect();
        let truths: Vec<Vec<UserId>> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..users).map(|u| gt.community_of(UserId::new(u as u32)).to_vec()).collect();
        Setup { clients, spec, train_sets: split.train_sets().to_vec(), truths, users, k }
    }

    /// A coalition over `s`'s population observing the deliveries to
    /// `members`; every user is excluded from its own target's candidates.
    fn coalition(
        s: &Setup,
        cfg: CiaConfig,
        members: &[u32],
    ) -> GlCiaCoalition<ItemSetEvaluator<GmfSpec>> {
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let owners: Vec<Option<UserId>> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..s.users).map(|u| Some(UserId::new(u as u32))).collect();
        let mut coal = GlCiaCoalition::new(cfg, evaluator, s.users, s.truths.clone(), owners);
        coal.set_members(members);
        coal
    }

    #[test]
    fn all_placements_beats_random_on_planted_communities() {
        let s = setup(36, 5, 11);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let mut attack = GlCiaAllPlacements::new(
            CiaConfig { k: s.k, beta: 0.9, eval_every: 5, seed: 0 },
            evaluator,
            s.users,
            s.truths.clone(),
        );
        let mut sim =
            GossipSim::new(s.clients, GossipConfig { rounds: 40, seed: 3, ..Default::default() });
        sim.run(&mut attack);
        let out = attack.outcome();
        assert!(
            out.max_aac > 1.5 * out.random_bound,
            "GL attack did not beat random: {} vs {}",
            out.max_aac,
            out.random_bound
        );
        // Gossip adversaries see only part of the network early on.
        assert!(out.upper_bound <= 1.0);
    }

    #[test]
    fn coalition_sees_more_senders_than_lone_adversary() {
        let mut s = setup(30, 4, 5);
        let clients = std::mem::take(&mut s.clients);
        let make = |members: Vec<u32>, clients: Vec<GmfClient>| {
            let cfg = CiaConfig { k: s.k, beta: 0.9, eval_every: 5, seed: 0 };
            let mut attack = coalition(&s, cfg, &members);
            let mut sim =
                GossipSim::new(clients, GossipConfig { rounds: 25, seed: 7, ..Default::default() });
            sim.run(&mut attack);
            (attack.senders_seen(), attack.outcome())
        };
        let (seen_single, out_single) = make(vec![0], setup(30, 4, 5).clients);
        let (seen_coal, out_coal) = make(vec![0, 7, 14, 21, 28], clients);
        assert!(
            seen_coal > seen_single,
            "coalition saw {seen_coal} senders vs single {seen_single}"
        );
        assert!(out_coal.upper_bound >= out_single.upper_bound);
    }

    #[test]
    fn score_and_param_momentum_agree_on_rankings() {
        // With beta = 0 both engines rank by the latest delivered model, so
        // a lone adversary's coalition ranking must match the all-placements
        // row for that observer.
        let s = setup(24, 4, 9);
        let adversary = 3u32;

        let eval_all = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let mut all = GlCiaAllPlacements::new(
            CiaConfig { k: s.k, beta: 0.0, eval_every: 1000, seed: 0 },
            eval_all,
            s.users,
            s.truths.clone(),
        );
        let mut coal =
            coalition(&s, CiaConfig { k: s.k, beta: 0.0, eval_every: 1000, seed: 0 }, &[adversary]);

        // Drive both with the same simulated run.
        struct Tee<'a, A: GossipObserver, B: GossipObserver>(&'a mut A, &'a mut B);
        impl<A: GossipObserver, B: GossipObserver> GossipObserver for Tee<'_, A, B> {
            fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
                self.0.on_delivery(round, receiver, model);
                self.1.on_delivery(round, receiver, model);
            }
            fn on_round_end(&mut self, stats: &GossipRoundStats) {
                self.0.on_round_end(stats);
                self.1.on_round_end(stats);
            }
        }
        let mut sim =
            GossipSim::new(s.clients, GossipConfig { rounds: 12, seed: 13, ..Default::default() });
        {
            let mut tee = Tee(&mut all, &mut coal);
            sim.run(&mut tee);
        }

        // Compare the adversary's own-target ranking from both engines.
        let n = s.users;
        let row = &all.s_ema[adversary as usize * n..(adversary as usize + 1) * n];
        let mut from_scores: Vec<(f32, u32)> = row
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            .map(|(u, &v)| (v, u as u32))
            .collect();
        from_scores.sort_by(crate::metrics::rank_desc);
        let pred_scores: Vec<u32> = from_scores.into_iter().take(s.k).map(|(_, u)| u).collect();

        let pred_params: Vec<u32> =
            coal.predict(adversary as usize).into_iter().map(UserId::raw).collect();

        assert_eq!(pred_scores, pred_params);
    }

    #[test]
    fn bound_excludes_observers_that_saw_nothing() {
        // Regression: the coverage bound used to average in a zero for every
        // observer with an empty row, so one active adversary among n nodes
        // reported a bound deflated by a factor of n under churn. Only
        // observers with at least one observation may contribute.
        use cia_models::Participant;
        let s = setup(12, 2, 3);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let mut all = GlCiaAllPlacements::new(
            CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 },
            evaluator,
            s.users,
            s.truths.clone(),
        );
        // Observer 0 hears from every node; everyone else hears nothing.
        for sender in 1..s.users {
            let snap = s.clients[sender].snapshot(0);
            all.on_delivery(0, UserId::new(0), &snap);
        }
        all.on_round_end(&GossipRoundStats {
            round: 0,
            awake: 12,
            deliveries: 11,
            mean_loss: None,
            bytes_materialized: 0,
        });
        let p = &all.history()[0];
        // Observer 0 has seen 11 of 12 users — its own-community coverage is
        // high; a mean over all 12 observers would sit at or below 1/12th of
        // the per-observer maximum.
        assert!(p.upper_bound > 0.4, "bound {} still deflated by empty observers", p.upper_bound);
        assert_eq!(p.upper_bound_online, p.upper_bound, "static population");
    }

    #[test]
    fn online_bound_never_exceeds_static_bound() {
        let s = setup(24, 4, 9);
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let mut all = GlCiaAllPlacements::new(
            CiaConfig { k: s.k, beta: 0.9, eval_every: 2, seed: 0 },
            evaluator,
            s.users,
            s.truths.clone(),
        );
        // Half the population is asleep each round, alternating by parity so
        // everyone still gets observed eventually; the wake mask is routed
        // through the attack the way the dynamics layer does.
        struct HalfAsleep<'a, E: RelevanceEvaluator>(&'a mut GlCiaAllPlacements<E>);
        impl<E: RelevanceEvaluator> GossipObserver for HalfAsleep<'_, E> {
            fn on_liveness(&mut self, event: LivenessEvent<'_>) {
                if let LivenessEvent::ActingSet { round, mask } = event {
                    for (u, m) in mask.iter_mut().enumerate() {
                        if u % 2 == (round % 2) as usize {
                            *m = false;
                        }
                    }
                    self.0.on_liveness(LivenessEvent::ActingSet { round, mask });
                }
            }
            fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
                self.0.on_delivery(round, receiver, model);
            }
            fn on_round_end(&mut self, stats: &GossipRoundStats) {
                self.0.on_round_end(stats);
            }
        }
        let mut sim =
            GossipSim::new(s.clients, GossipConfig { rounds: 16, seed: 5, ..Default::default() });
        {
            let mut obs = HalfAsleep(&mut all);
            sim.run(&mut obs);
        }
        let history = all.history();
        assert!(!history.is_empty());
        for p in history {
            assert!(
                p.upper_bound_online <= p.upper_bound + 1e-12,
                "round {}: online {} > static {}",
                p.round,
                p.upper_bound_online,
                p.upper_bound
            );
        }
        // With half the population permanently asleep the two bounds must
        // actually separate by the end.
        let last = history.last().unwrap();
        assert!(last.upper_bound_online < last.upper_bound);
    }

    #[test]
    fn nan_scores_rank_last_instead_of_panicking() {
        // A DP-destroyed model can carry NaN parameters, making every
        // relevance score NaN. Ranking must route through the NaN-mapping
        // `metrics::rank_desc` (a bare `partial_cmp().unwrap()` panics) and
        // sink the destroyed sender below every finite-scored one.
        use cia_models::Participant;
        let s = setup(12, 2, 3);
        let mut coal = coalition(&s, CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 }, &[0]);
        // Healthy senders 1..4, then a destroyed model from sender 5.
        for sender in 1..4 {
            let snap = s.clients[sender].snapshot(0);
            coal.on_delivery(0, UserId::new(0), &snap);
        }
        let mut destroyed = s.clients[5].snapshot(0);
        destroyed.agg.fill(f32::NAN);
        if let Some(emb) = &mut destroyed.owner_emb {
            emb.fill(f32::NAN);
        }
        coal.on_delivery(0, UserId::new(0), &destroyed);
        // `last_agg` now carries NaN parameters too; evaluation must still
        // complete (no panic) and report finite bounds.
        coal.on_round_end(&GossipRoundStats {
            round: 0,
            awake: 12,
            deliveries: 4,
            mean_loss: None,
            bytes_materialized: 0,
        });
        let p = &coal.history()[0];
        assert!(p.upper_bound.is_finite());
        // The all-placements engine must tolerate NaN score EMAs the same
        // way.
        let evaluator = ItemSetEvaluator::new(s.spec.clone(), s.train_sets.clone(), false);
        let mut all = GlCiaAllPlacements::new(
            CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 },
            evaluator,
            s.users,
            s.truths.clone(),
        );
        for sender in 1..6 {
            let snap = s.clients[sender].snapshot(0);
            all.on_delivery(0, UserId::new(0), &snap);
        }
        all.on_delivery(0, UserId::new(0), &destroyed);
        all.on_round_end(&GossipRoundStats {
            round: 0,
            awake: 12,
            deliveries: 6,
            mean_loss: None,
            bytes_materialized: 0,
        });
        assert!(!all.history().is_empty());
    }

    #[test]
    fn set_members_moves_the_delivery_filter_but_keeps_momentum() {
        use cia_models::Participant;
        let s = setup(12, 2, 3);
        let mut coal =
            coalition(&s, CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 }, &[0, 6]);
        assert_eq!(coal.members(), vec![0, 6]);
        // Observations land at the initial placement…
        for sender in 1..4 {
            let snap = s.clients[sender].snapshot(0);
            coal.on_delivery(0, UserId::new(0), &snap);
        }
        assert_eq!(coal.senders_seen(), 3);
        // …and survive the relocation: retained member 0 leaves, 3 and 9
        // take over, the sender-keyed momentum table is untouched.
        coal.set_members(&[3, 9]);
        assert_eq!(coal.members(), vec![3, 9]);
        assert_eq!(coal.senders_seen(), 3, "relocation must not drop momentum state");
        // Deliveries to the old placement are no longer observed; the new
        // one is.
        let snap = s.clients[5].snapshot(1);
        coal.on_delivery(1, UserId::new(0), &snap);
        assert_eq!(coal.senders_seen(), 3);
        coal.on_delivery(1, UserId::new(9), &snap);
        assert_eq!(coal.senders_seen(), 4);
    }

    #[test]
    fn unseen_observer_records_zero() {
        let s = setup(12, 2, 3);
        let mut coal = coalition(&s, CiaConfig { k: 2, beta: 0.9, eval_every: 1, seed: 0 }, &[0]);
        // No deliveries at all: evaluation must not panic and records zero.
        coal.on_round_end(&GossipRoundStats {
            round: 0,
            awake: 0,
            deliveries: 0,
            mean_loss: None,
            bytes_materialized: 0,
        });
        let out = coal.outcome();
        assert_eq!(out.max_aac, 0.0);
    }
}
