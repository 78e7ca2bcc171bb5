//! The momentum-based Community Inference Attack (Algorithms 1 and 2).
//!
//! Both algorithms are one comparison-based attack: keep the Eq. 4 parameter
//! momentum per sender, score every momentum model against each target and
//! predict the top `K`. They differ only in what the adversary sees. The FL
//! server sees every uploaded client model ([`RoundObserver`]); a gossip
//! coalition sees the models delivered to the nodes it controls
//! ([`GossipObserver`]). [`MomentumCia`] implements both observers, and
//! [`FlCia`] and [`GlCiaCoalition`] name its two roles.

use crate::evaluator::{RelevanceEvaluator, BLOCK};
use crate::metrics::{community_accuracy, top_k_ids, AttackOutcome, AttackTracker, RoundPoint};
use crate::momentum::MomentumState;
use cia_data::UserId;
use cia_federated::{RoundObserver, RoundStats};
use cia_gossip::{GossipObserver, GossipRoundStats};
use cia_models::parallel::{par_chunks_mut, par_for_each_mut, par_map};
use cia_models::SharedModel;
use cia_obs::Recorder;
use cia_runtime::{Checkpointable, LivenessEvent};
use serde::{Deserialize, Serialize};

/// CIA parameters (the paper defaults to `K = 50`, `β = 0.99`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CiaConfig {
    /// Community size `K`.
    pub k: usize,
    /// Momentum coefficient `β` of Eq. 4 (0 disables smoothing).
    pub beta: f32,
    /// Evaluate (rank + score) every this many rounds; momentum is updated
    /// every round regardless.
    pub eval_every: u64,
    /// Seed for the adversary's own randomness (fictive embedding training).
    pub seed: u64,
}

impl Default for CiaConfig {
    fn default() -> Self {
        CiaConfig { k: 50, beta: 0.99, eval_every: 1, seed: 0 }
    }
}

/// Serializable snapshot of a [`MomentumCia`]'s mutable state, used for
/// checkpoint/resume of long suite runs. Evaluator-side state (fictive
/// embeddings) is captured separately through the evaluator accessors.
#[derive(Debug, Clone)]
pub struct CiaAttackState {
    /// Per-sender momentum table (`None` = never observed).
    pub momentum: Vec<Option<MomentumState>>,
    /// Evaluated history recorded so far.
    pub history: Vec<RoundPoint>,
    /// Last observed public parameters (fictive-embedding reference).
    pub last_global: Option<Vec<f32>>,
    /// Whether the evaluator has been prepared at least once.
    pub prepared: bool,
}

/// Algorithm 1: the server-side attack, observing every client upload.
pub type FlCia<E> = MomentumCia<E>;

/// Algorithm 2 with parameter momentum, for one adversary node or a
/// coalition of colluders: build with [`MomentumCia::new`], then restrict
/// the observed receivers with [`MomentumCia::set_members`]. Colluders
/// multicast received models to each other (line 14 of Algorithm 2), so the
/// coalition shares one momentum table.
pub type GlCiaCoalition<E> = MomentumCia<E>;

/// The momentum CIA engine behind [`FlCia`] and [`GlCiaCoalition`].
///
/// It keeps one momentum model per sender and at every evaluation round
/// ranks senders by the relevance their momentum model assigns to each
/// target. As a [`RoundObserver`] it observes every client upload and takes
/// the broadcast global model as its reference parameters. As a
/// [`GossipObserver`] it observes only deliveries to its members and takes
/// the reference parameters from the delivered model.
pub struct MomentumCia<E: RelevanceEvaluator> {
    cfg: CiaConfig,
    evaluator: E,
    /// Truth community per target, aligned with the evaluator's targets.
    truths: Vec<Vec<UserId>>,
    /// Per-target owner to exclude from candidates (the user whose train set
    /// is the target), if any.
    owners: Vec<Option<UserId>>,
    /// Gossip receivers whose deliveries the adversary observes (every node
    /// until [`MomentumCia::set_members`] narrows it).
    members: Vec<bool>,
    /// Dense momentum slab indexed by sender id (`None` = never observed).
    momentum: Vec<Option<MomentumState>>,
    /// Flat `num_users × num_targets` relevance matrix, reused across
    /// evaluation rounds (rows of never-seen users stay untouched and are
    /// skipped at ranking time).
    rel: Vec<f32>,
    /// The most recent acting-set mask delivered through `on_liveness` — the
    /// dynamics layer's live set, feeding the per-round online upper bound.
    /// All-true until a mask arrives (static populations never shrink it).
    live: Vec<bool>,
    tracker: AttackTracker,
    /// Last observed public parameters: the broadcast global model in FL,
    /// the last observed delivery's parameters in gossip.
    last_global: Option<Vec<f32>>,
    prepared: bool,
    /// Metrics sink for the attack-phase spans (prepare/score/rank/update);
    /// a detached default until the runner wires in the shared recorder.
    obs: Recorder,
}

impl<E: RelevanceEvaluator> MomentumCia<E> {
    /// Creates the attack for `num_users` participants, observing every
    /// node.
    ///
    /// `truths[t]` is the ground-truth community of the evaluator's target
    /// `t` (Eq. 5); `owners[t]` optionally excludes the target's donor user
    /// from the candidate ranking.
    ///
    /// # Panics
    ///
    /// Panics if the truth/owner tables are not aligned with the evaluator's
    /// targets, `k == 0`, `eval_every == 0` or `β` lies outside `[0, 1]`.
    pub fn new(
        cfg: CiaConfig,
        evaluator: E,
        num_users: usize,
        truths: Vec<Vec<UserId>>,
        owners: Vec<Option<UserId>>,
    ) -> Self {
        assert!(cfg.k > 0, "community size must be positive");
        assert!(cfg.eval_every > 0, "eval_every must be positive");
        assert!((0.0..=1.0).contains(&cfg.beta), "beta must be in [0, 1]");
        assert_eq!(truths.len(), evaluator.num_targets(), "one truth per target");
        assert_eq!(owners.len(), evaluator.num_targets(), "one owner entry per target");
        let candidates = num_users.saturating_sub(usize::from(owners.iter().any(Option::is_some)));
        MomentumCia {
            tracker: AttackTracker::new(cfg.k, candidates),
            rel: vec![0.0; num_users * evaluator.num_targets()],
            members: vec![true; num_users],
            live: vec![true; num_users],
            cfg,
            evaluator,
            truths,
            owners,
            momentum: (0..num_users).map(|_| None).collect(),
            last_global: None,
            prepared: false,
            obs: Recorder::new(),
        }
    }

    /// Routes the attack's spans into a shared recorder (the default sink is
    /// detached). Clones are cheap; all clones share one registry.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// The attack summary.
    pub fn outcome(&self) -> AttackOutcome {
        self.tracker.outcome()
    }

    /// The evaluated per-round history so far (streaming access for suite
    /// runners that emit one record per evaluation).
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

    /// Number of distinct senders observed so far.
    pub fn senders_seen(&self) -> usize {
        self.momentum.iter().flatten().count()
    }

    /// The gossip receivers the adversary observes, ascending.
    pub fn members(&self) -> Vec<u32> {
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        self.members.iter().enumerate().filter_map(|(i, &m)| m.then_some(i as u32)).collect()
    }

    /// Restricts the observed gossip receivers to `members`: a lone
    /// adversary or a coalition right after construction, or a mid-run
    /// relocation (adaptive sybil placement). Only the delivery filter
    /// changes: the sender-keyed momentum table, the tracker history and the
    /// evaluator state all survive, so members retained across a relocation
    /// keep every observation.
    ///
    /// # Panics
    ///
    /// Panics on an empty membership or an out-of-range node id.
    pub fn set_members(&mut self, members: &[u32]) {
        assert!(!members.is_empty(), "coalition needs at least one member");
        self.members.iter_mut().for_each(|m| *m = false);
        for &m in members {
            self.members[m as usize] = true;
        }
    }

    /// Predicted community for target `t` from the current momentum models.
    /// Exposed for the motivating example.
    pub fn predict(&mut self, target: usize) -> Vec<UserId> {
        self.refresh_relevance();
        self.rank_all().swap_remove(target)
    }

    /// Scores every seen user's momentum model against every target, into the
    /// reusable flat relevance matrix: one row per user, in chunks of
    /// [`BLOCK`] users filled in parallel. Each run of consecutive seen users
    /// in a chunk is one [`RelevanceEvaluator::relevance_many`] call; rows of
    /// never-seen users stay untouched.
    fn refresh_relevance(&mut self) {
        let num_targets = self.evaluator.num_targets();
        if num_targets == 0 {
            return; // degenerate zero-target attack; nothing to score
        }
        let (rel, momentum, evaluator) = (&mut self.rel, &self.momentum, &self.evaluator);
        par_chunks_mut(rel, num_targets * BLOCK, |chunk, rows| {
            let users = &momentum[chunk * BLOCK..][..rows.len() / num_targets];
            let mut models: [(Option<&[f32]>, &[f32]); BLOCK] = [(None, &[]); BLOCK];
            let mut start = 0;
            for run in users.split(Option::is_none) {
                for (slot, m) in models.iter_mut().zip(run.iter().flatten()) {
                    *slot = (m.emb(), m.agg());
                }
                let out = &mut rows[start * num_targets..(start + run.len()) * num_targets];
                evaluator.relevance_many(&models[..run.len()], out);
                start += run.len() + 1;
            }
        });
    }

    /// Ranks the seen users for every target against the relevance matrix
    /// ([`MomentumCia::refresh_relevance`] must have run since the last
    /// momentum update).
    fn rank_all(&self) -> Vec<Vec<UserId>> {
        let num_targets = self.evaluator.num_targets();
        par_map(num_targets, |t| {
            let candidates = self.momentum.iter().enumerate().filter_map(|(u, m)| {
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                let id = u as u32;
                (m.is_some() && self.owners[t] != Some(UserId::new(id)))
                    .then(|| (self.rel[u * num_targets + t], id))
            });
            top_k_ids(candidates, self.cfg.k).into_iter().map(UserId::new).collect()
        })
    }

    /// Scores, ranks and records one round. Before any observation every
    /// prediction is empty and every bound counts nobody, so the recorded
    /// point is all zero; `prepare` waits for reference parameters.
    fn evaluate(&mut self, round: u64) {
        let obs = self.obs.clone();
        if let Some(global) = &self.last_global {
            if !self.prepared || round.is_multiple_of((self.cfg.eval_every * 4).max(1)) {
                let _prepare = obs.span("attack_prepare");
                self.evaluator.prepare(global, self.cfg.seed ^ round);
                self.prepared = true;
            }
        }
        {
            let _score = obs.span("attack_score");
            self.refresh_relevance();
        }
        let _rank = obs.span("attack_rank");
        let predictions = self.rank_all();
        let mut accs = Vec::with_capacity(predictions.len());
        let mut uppers = Vec::with_capacity(predictions.len());
        let mut uppers_online = Vec::with_capacity(predictions.len());
        for (pred, truth) in predictions.iter().zip(&self.truths) {
            accs.push(community_accuracy(pred, truth, self.cfg.k));
            let seen = truth.iter().filter(|u| self.momentum[u.index()].is_some()).count();
            let seen_live = truth
                .iter()
                .filter(|u| self.momentum[u.index()].is_some() && self.live[u.index()])
                .count();
            uppers.push(seen as f64 / self.cfg.k as f64);
            uppers_online.push(seen_live as f64 / self.cfg.k as f64);
        }
        self.tracker.record_with_online(round, &accs, &uppers, &uppers_online);
    }

    fn track_liveness(&mut self, event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { mask, .. } = event {
            // One entry per participant; a length mismatch is a wiring bug
            // and must fail loudly rather than leave part of the live set
            // stale.
            self.live.copy_from_slice(mask);
        }
    }

    fn end_round(&mut self, round: u64) {
        if (round + 1).is_multiple_of(self.cfg.eval_every) {
            self.evaluate(round);
        }
    }
}

/// Folds one observed model into its sender's momentum slot (Eq. 4; the
/// first observation initializes it).
fn fold(slot: &mut Option<MomentumState>, beta: f32, model: &SharedModel) {
    match slot {
        Some(state) => state.update(beta, model),
        None => *slot = Some(MomentumState::from_snapshot(model)),
    }
}

/// Snapshot/restore of the attack's mutable state for checkpoint/resume.
/// Evaluator-side state (fictive embeddings) is captured separately through
/// the evaluator accessors. Restoring panics if the momentum table is not
/// aligned with the participants.
impl<E: RelevanceEvaluator> Checkpointable for MomentumCia<E> {
    type State = CiaAttackState;

    fn export_state(&self) -> CiaAttackState {
        CiaAttackState {
            momentum: self.momentum.clone(),
            history: self.tracker.history().to_vec(),
            last_global: self.last_global.clone(),
            prepared: self.prepared,
        }
    }

    fn restore_state(&mut self, state: CiaAttackState) {
        assert_eq!(state.momentum.len(), self.momentum.len(), "momentum table size");
        self.momentum = state.momentum;
        self.tracker.restore_history(state.history);
        self.last_global = state.last_global;
        self.prepared = state.prepared;
    }
}

impl<E: RelevanceEvaluator> RoundObserver for MomentumCia<E> {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        self.track_liveness(event);
    }

    fn on_global(&mut self, _round: u64, global_agg: &[f32]) {
        self.last_global = Some(global_agg.to_vec());
    }

    fn on_client_model(&mut self, model: &SharedModel) {
        let _update = self.obs.span("attack_update");
        fold(&mut self.momentum[model.owner.index()], self.cfg.beta, model);
    }

    /// Folds a round's uploads in one pass. Momentum is keyed by sender and
    /// each EMA is independent, so the senders' slots update in parallel;
    /// one sender's models keep their batch order. First observations (which
    /// allocate) and every layout check run on the driving thread first.
    fn on_client_models(&mut self, models: &[&SharedModel]) {
        let _update = self.obs.span("attack_update");
        let beta = self.cfg.beta;
        // A stable sort: senders ascending, each sender's models in order.
        let mut order: Vec<usize> = (0..models.len()).collect();
        order.sort_by_key(|&i| models[i].owner.index());
        let mut slots = self.momentum.iter_mut().enumerate();
        let mut jobs: Vec<(&mut MomentumState, &[usize])> = Vec::new();
        for run in order.chunk_by(|&a, &b| models[a].owner == models[b].owner) {
            let first = models[run[0]];
            let (_, slot) = slots
                .find(|&(u, _)| u == first.owner.index())
                .expect("sender ids lie within the population");
            let mut skip = 0;
            if slot.is_none() {
                *slot = Some(MomentumState::from_snapshot(first));
                skip = 1;
            }
            let state = slot.as_mut().expect("observed above");
            let rest = &run[skip..];
            rest.iter().for_each(|&i| state.check_layout(models[i]));
            if !rest.is_empty() {
                jobs.push((state, rest));
            }
        }
        par_for_each_mut(&mut jobs, |_, (state, batch)| {
            for &i in *batch {
                state.update(beta, models[i]);
            }
        });
    }

    fn on_round_end(&mut self, stats: &RoundStats) {
        self.end_round(stats.round);
    }
}

impl<E: RelevanceEvaluator> GossipObserver for MomentumCia<E> {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        self.track_liveness(event);
    }

    fn on_delivery(&mut self, _round: u64, receiver: UserId, model: &SharedModel) {
        if !self.members[receiver.index()] {
            return;
        }
        let _update = self.obs.span("attack_update");
        // Members also observe each other's honest models; those are
        // genuine participants and stay candidates.
        self.last_global = Some(model.agg.clone());
        fold(&mut self.momentum[model.owner.index()], self.cfg.beta, model);
    }

    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        self.end_round(stats.round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ItemSetEvaluator;
    use cia_data::{GroundTruth, LeaveOneOut, SyntheticConfig};
    use cia_federated::{FedAvg, FedAvgConfig};
    use cia_models::{GmfHyper, GmfSpec, SharingPolicy};

    /// End-to-end: FL + GMF on a planted-community dataset; CIA must beat the
    /// random bound by a wide margin.
    #[test]
    fn recovers_planted_communities_in_fl() {
        let users = 36;
        let data = SyntheticConfig::builder()
            .users(users)
            .items(120)
            .communities(6)
            .interactions_per_user(14)
            .seed(7)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 10, 3).unwrap();
        let k = 5;
        let gt = GroundTruth::from_train_sets(split.train_sets(), k);
        let spec = GmfSpec::new(120, 8, GmfHyper { lr: 0.1, ..GmfHyper::default() });
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

        let evaluator = ItemSetEvaluator::new(spec.clone(), split.train_sets().to_vec(), false);
        let truths: Vec<Vec<UserId>> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..users).map(|u| gt.community_of(UserId::new(u as u32)).to_vec()).collect();
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        let owners: Vec<Option<UserId>> = (0..users).map(|u| Some(UserId::new(u as u32))).collect();
        let mut attack = FlCia::new(
            CiaConfig { k, beta: 0.9, eval_every: 2, seed: 0 },
            evaluator,
            users,
            truths,
            owners,
        );

        let mut sim = FedAvg::new(
            clients,
            FedAvgConfig { rounds: 20, local_epochs: 2, seed: 2, ..Default::default() },
        );
        sim.run(&mut attack);

        let out = attack.outcome();
        let random = out.random_bound;
        assert!(
            out.max_aac > 3.0 * random,
            "CIA did not beat random: {} vs bound {random}",
            out.max_aac
        );
        assert!(out.best10_aac >= out.max_aac * 0.8 || out.best10_aac > out.random_bound);
        // FL adversary sees everyone: upper bound 1, and with a static
        // population the online bound agrees.
        assert!((out.upper_bound - 1.0).abs() < 1e-9);
        assert_eq!(out.upper_bound_online, out.upper_bound);
        assert_eq!(out.history.len(), 10);
    }

    #[test]
    fn online_bound_tracks_the_live_mask() {
        // Round 0 observes everyone; from round 1 on, odd users are offline.
        // The static bound stays at full coverage (their momentum persists)
        // while the online bound drops to the live half.
        let users = 12;
        let data = SyntheticConfig::builder()
            .users(users)
            .items(60)
            .communities(2)
            .interactions_per_user(8)
            .seed(4)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 5, 0).unwrap();
        let k = 3;
        let gt = GroundTruth::from_train_sets(split.train_sets(), k);
        let spec = GmfSpec::new(60, 4, GmfHyper::default());
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
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        let owners = (0..users).map(|u| Some(UserId::new(u as u32))).collect();
        let evaluator = ItemSetEvaluator::new(spec, split.train_sets().to_vec(), false);
        let attack = FlCia::new(
            CiaConfig { k, beta: 0.99, eval_every: 1, seed: 0 },
            evaluator,
            users,
            truths,
            owners,
        );

        struct OddOffline<E: crate::evaluator::RelevanceEvaluator>(FlCia<E>);
        impl<E: crate::evaluator::RelevanceEvaluator> RoundObserver for OddOffline<E> {
            fn on_liveness(&mut self, event: LivenessEvent<'_>) {
                if let LivenessEvent::ActingSet { round, mask } = event {
                    if round >= 1 {
                        for (u, m) in mask.iter_mut().enumerate() {
                            if u % 2 == 1 {
                                *m = false;
                            }
                        }
                    }
                    RoundObserver::on_liveness(
                        &mut self.0,
                        LivenessEvent::ActingSet { round, mask },
                    );
                }
            }
            fn on_global(&mut self, round: u64, global_agg: &[f32]) {
                self.0.on_global(round, global_agg);
            }
            fn on_client_model(&mut self, model: &SharedModel) {
                self.0.on_client_model(model);
            }
            fn on_round_end(&mut self, stats: &RoundStats) {
                RoundObserver::on_round_end(&mut self.0, stats);
            }
        }

        let mut obs = OddOffline(attack);
        let mut sim =
            FedAvg::new(clients, FedAvgConfig { rounds: 4, seed: 8, ..Default::default() });
        sim.run(&mut obs);
        let history = obs.0.history().to_vec();
        assert_eq!(history.len(), 4);
        // Full coverage after round 0 either way.
        assert!((history[1].upper_bound - 1.0).abs() < 1e-9);
        for p in &history[1..] {
            assert!(
                p.upper_bound_online < p.upper_bound,
                "round {}: online bound {} not below static {}",
                p.round,
                p.upper_bound_online,
                p.upper_bound
            );
        }
        // Round 0 saw everyone live.
        assert_eq!(history[0].upper_bound_online, history[0].upper_bound);
    }

    #[test]
    fn momentum_states_cover_all_sampled_users() {
        let data = SyntheticConfig::builder()
            .users(10)
            .items(60)
            .communities(2)
            .interactions_per_user(8)
            .seed(1)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 5, 0).unwrap();
        let spec = GmfSpec::new(60, 4, GmfHyper::default());
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
        let gt = GroundTruth::from_train_sets(split.train_sets(), 2);
        let truths: Vec<Vec<UserId>> =
            (0..10).map(|u| gt.community_of(UserId::new(u)).to_vec()).collect();
        let owners = (0..10).map(|u| Some(UserId::new(u))).collect();
        let evaluator = ItemSetEvaluator::new(spec, split.train_sets().to_vec(), false);
        let mut attack = FlCia::new(
            CiaConfig { k: 2, beta: 0.99, eval_every: 1, seed: 0 },
            evaluator,
            10,
            truths,
            owners,
        );
        let mut sim =
            FedAvg::new(clients, FedAvgConfig { rounds: 3, seed: 5, ..Default::default() });
        sim.run(&mut attack);
        assert!(attack.momentum.iter().all(Option::is_some));
        assert!(attack.momentum.iter().flatten().all(|m| m.updates() == 3));
    }

    #[test]
    fn blocked_refresh_fills_seen_rows_and_leaves_the_rest() {
        // 40 users span three blocks (the last one partial); users 1, 4,
        // 7, … and all of 16..20 are never seen, so runs break inside blocks
        // and one run spans a block boundary.
        use rand::{Rng, SeedableRng};
        let users = 40;
        let spec = GmfSpec::new(30, 4, GmfHyper::default());
        let targets = vec![vec![0, 3, 7], vec![], vec![29], vec![1, 2, 5, 8, 13, 21]];
        let evaluator = ItemSetEvaluator::new(spec.clone(), targets, false);
        let mut attack =
            FlCia::new(CiaConfig::default(), evaluator, users, vec![vec![]; 4], vec![None; 4]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let agg_len = cia_models::RelevanceScorer::agg_len(&spec);
        for u in (0..users).filter(|u| u % 3 != 1 && !(16..20).contains(u)) {
            attack.on_client_model(&SharedModel {
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                owner: UserId::new(u as u32),
                round: 0,
                owner_emb: Some((0..4).map(|_| rng.gen::<f32>() - 0.5).collect()),
                agg: (0..agg_len).map(|_| rng.gen::<f32>() - 0.5).collect(),
            });
        }
        let sentinel = f32::from_bits(0x7FC0_1234);
        attack.rel.iter_mut().for_each(|r| *r = sentinel);
        attack.refresh_relevance();
        for (u, row) in attack.rel.chunks_exact(4).enumerate() {
            let bits: Vec<u32> = row.iter().map(|r| r.to_bits()).collect();
            let want: Vec<u32> = match &attack.momentum[u] {
                Some(m) => {
                    let mut one = [0.0f32; 4];
                    attack.evaluator.relevance_all(m.emb(), m.agg(), &mut one);
                    one.iter().map(|r| r.to_bits()).collect()
                }
                None => vec![sentinel.to_bits(); 4],
            };
            assert_eq!(bits, want, "user {u}");
        }
    }

    /// A small attack over `users` senders with random GMF-shaped models.
    fn batch_fixture(users: usize) -> (FlCia<ItemSetEvaluator<GmfSpec>>, GmfSpec) {
        let spec = GmfSpec::new(30, 4, GmfHyper::default());
        let targets = vec![vec![0, 3, 7], vec![29], vec![1, 2, 5, 8, 13, 21]];
        let evaluator = ItemSetEvaluator::new(spec.clone(), targets, false);
        let cfg = CiaConfig { k: 3, beta: 0.9, eval_every: 1, seed: 0 };
        (FlCia::new(cfg, evaluator, users, vec![vec![]; 3], vec![None; 3]), spec)
    }

    fn momentum_bits(attack: &FlCia<ItemSetEvaluator<GmfSpec>>) -> Vec<Option<(Vec<u32>, u64)>> {
        attack
            .momentum
            .iter()
            .map(|m| {
                m.as_ref().map(|m| {
                    let emb = m.emb().into_iter().flatten();
                    (emb.chain(m.agg()).map(|x| x.to_bits()).collect(), m.updates())
                })
            })
            .collect()
    }

    #[test]
    fn batched_uploads_fold_like_one_at_a_time() {
        use rand::{Rng, SeedableRng};
        let users = 37;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (_, spec) = batch_fixture(users);
        let agg_len = cia_models::RelevanceScorer::agg_len(&spec);
        // Four rounds of uploads. Senders join over time, so most batches
        // mix first observations with re-observed senders; a few senders
        // appear twice in one batch, out of id order.
        let rounds: Vec<Vec<SharedModel>> = (0..4u64)
            .map(|round| {
                let senders: Vec<usize> = (0..users)
                    .filter(|&u| u < 10 * (round as usize + 1) && rng.gen_bool(0.7))
                    .chain([3, 20])
                    .collect();
                let mut batch: Vec<SharedModel> = senders
                    .into_iter()
                    .map(|u| SharedModel {
                        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                        owner: UserId::new(u as u32),
                        round,
                        owner_emb: Some((0..4).map(|_| rng.gen::<f32>() - 0.5).collect()),
                        agg: (0..agg_len).map(|_| rng.gen::<f32>() - 0.5).collect(),
                    })
                    .collect();
                batch.swap(0, 1);
                batch
            })
            .collect();
        let (mut looped, _) = batch_fixture(users);
        for (round, batch) in rounds.iter().enumerate() {
            batch.iter().for_each(|m| looped.on_client_model(m));
            let stats = RoundStats {
                round: round as u64,
                participants: 0,
                mean_loss: None,
                bytes_materialized: 0,
            };
            RoundObserver::on_round_end(&mut looped, &stats);
        }
        for threads in ["1", "2", "4"] {
            std::env::set_var("CIA_THREADS", threads);
            let (mut batched, _) = batch_fixture(users);
            for (round, batch) in rounds.iter().enumerate() {
                batched.on_client_models(&batch.iter().collect::<Vec<_>>());
                let stats = RoundStats {
                    round: round as u64,
                    participants: 0,
                    mean_loss: None,
                    bytes_materialized: 0,
                };
                RoundObserver::on_round_end(&mut batched, &stats);
            }
            assert_eq!(momentum_bits(&batched), momentum_bits(&looped), "CIA_THREADS={threads}");
            assert_eq!(batched.senders_seen(), looped.senders_seen());
            let history = |a: &FlCia<_>| -> Vec<_> {
                a.history()
                    .iter()
                    .map(|p| (p.round, p.aac.to_bits(), p.upper_bound.to_bits()))
                    .collect()
            };
            assert_eq!(history(&batched), history(&looped), "CIA_THREADS={threads}");
        }
        std::env::remove_var("CIA_THREADS");
    }

    #[test]
    fn a_batch_opens_one_update_span_on_the_driving_thread() {
        let (mut attack, spec) = batch_fixture(4);
        let rec = Recorder::new();
        rec.set_detail(true);
        attack.set_recorder(rec.clone());
        let agg_len = cia_models::RelevanceScorer::agg_len(&spec);
        let models: Vec<SharedModel> = (0..4)
            .map(|u| SharedModel {
                owner: UserId::new(u),
                round: 0,
                owner_emb: Some(vec![0.5; 4]),
                agg: vec![0.25; agg_len],
            })
            .collect();
        let refs: Vec<&SharedModel> = models.iter().collect();
        attack.on_client_models(&refs);
        attack.on_client_models(&refs);
        let spans = rec.drain().spans;
        assert_eq!(spans.len(), 2, "one attack_update span per batch");
        assert!(spans.iter().all(|s| s.name == "attack_update"));
        assert!(momentum_bits(&attack).iter().flatten().all(|(_, updates)| *updates == 2));
    }

    #[test]
    #[should_panic(expected = "sharing policy changed mid-attack")]
    fn a_batch_rejects_a_sharing_policy_change() {
        let (mut attack, spec) = batch_fixture(2);
        let agg_len = cia_models::RelevanceScorer::agg_len(&spec);
        let full = SharedModel {
            owner: UserId::new(1),
            round: 0,
            owner_emb: Some(vec![0.5; 4]),
            agg: vec![0.25; agg_len],
        };
        let share_less = SharedModel { owner_emb: None, round: 1, ..full.clone() };
        attack.on_client_models(&[&full]);
        attack.on_client_models(&[&share_less]);
    }

    #[test]
    #[should_panic(expected = "one truth per target")]
    fn rejects_misaligned_truths() {
        let spec = GmfSpec::new(10, 4, GmfHyper::default());
        let evaluator = ItemSetEvaluator::new(spec, vec![vec![1]], false);
        let _ = FlCia::new(CiaConfig::default(), evaluator, 5, vec![], vec![None]);
    }
}
