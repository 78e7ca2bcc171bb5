//! Property tests for the event-driven FedAvg round: under any participation
//! fraction, weighting, epoch count, seed and DP setting, a seeded
//! interleaved delivery order replays the FIFO round bit for bit, and a
//! mid-run restore lands on the uninterrupted trajectory.

use cia_data::UserId;
use cia_defenses::{DpConfig, DpMechanism};
use cia_federated::{
    DeliveryPolicy, FedAvg, FedAvgConfig, LivenessEvent, RoundObserver, RoundStats, Weighting,
};
use cia_models::{Participant, SharedModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Deterministic toy client: params drift towards a per-community fixed
/// point with a small RNG perturbation, so any divergence in RNG stream
/// order between two delivery orders shows up in the parameters.
struct TestClient {
    user: UserId,
    params: Vec<f32>,
    target: Vec<f32>,
}

impl TestClient {
    fn new(user: u32) -> Self {
        let mut target = vec![0.0f32; 8];
        target[user as usize % 4] = 1.0;
        TestClient { user: UserId::new(user), params: vec![0.0; 8], target }
    }
}

impl Participant for TestClient {
    fn user(&self) -> UserId {
        self.user
    }
    fn agg_len(&self) -> usize {
        8
    }
    fn agg(&self) -> &[f32] {
        &self.params
    }
    fn absorb_agg(&mut self, agg: &[f32]) {
        self.params.copy_from_slice(agg);
    }
    fn train_local(&mut self, rng: &mut StdRng) -> f32 {
        let mut dist = 0.0f32;
        for (p, t) in self.params.iter_mut().zip(&self.target) {
            *p += 0.5 * (t - *p) + rng.gen_range(-0.01f32..0.01);
            dist += (t - *p) * (t - *p);
        }
        dist
    }
    fn snapshot(&self, round: u64) -> SharedModel {
        SharedModel { owner: self.user, round, owner_emb: None, agg: self.params.clone() }
    }
    fn num_examples(&self) -> usize {
        1 + self.user.raw() as usize % 3
    }
}

fn sim(n: usize, cfg: FedAvgConfig) -> FedAvg<TestClient> {
    // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
    FedAvg::new((0..n as u32).map(TestClient::new).collect(), cfg)
}

/// [`sim`] with a DP-SGD transform on every outgoing update when `dp`.
fn sim_with_dp(n: usize, cfg: FedAvgConfig, dp: bool) -> FedAvg<TestClient> {
    let mut s = sim(n, cfg);
    if dp {
        s.set_update_transform(Box::new(DpMechanism::new(DpConfig {
            clip: 0.5,
            noise_multiplier: 0.3,
        })));
    }
    s
}

/// Observer taping every event the FL adversary can see.
#[derive(Default, Debug, PartialEq)]
struct Tape {
    acting: Vec<(u64, Vec<bool>)>,
    globals: Vec<(u64, Vec<f32>)>,
    models: Vec<(u64, u32, Vec<f32>)>,
    stats: Vec<RoundStats>,
}

impl RoundObserver for Tape {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { round, mask } = event {
            self.acting.push((round, mask.to_vec()));
        }
    }
    fn on_global(&mut self, round: u64, global_agg: &[f32]) {
        self.globals.push((round, global_agg.to_vec()));
    }
    fn on_client_model(&mut self, model: &SharedModel) {
        self.models.push((model.round, model.owner.raw(), model.agg.clone()));
    }
    fn on_round_end(&mut self, stats: &RoundStats) {
        self.stats.push(stats.clone());
    }
}

fn config(
    rounds: u64,
    participation: f64,
    epochs: usize,
    by_examples: bool,
    seed: u64,
) -> FedAvgConfig {
    FedAvgConfig {
        rounds,
        participation,
        local_epochs: epochs,
        weighting: if by_examples { Weighting::ByExamples } else { Weighting::Uniform },
        seed,
    }
}

proptest! {
    #[test]
    fn any_interleaving_seed_replays_the_fifo_round(
        n in 2usize..14,
        rounds in 1u64..5,
        participation in 0.2f64..1.0,
        epochs in 1usize..3,
        by_examples in any::<bool>(),
        dp in any::<bool>(),
        seed in 0u64..(1 << 40),
        interleave in any::<u64>(),
    ) {
        let cfg = config(rounds, participation, epochs, by_examples, seed);
        let mut fifo = sim_with_dp(n, cfg, dp);
        let mut fifo_tape = Tape::default();
        for _ in 0..rounds {
            fifo.step_evented(&mut fifo_tape, DeliveryPolicy::Lockstep);
        }
        let mut shuffled = sim_with_dp(n, cfg, dp);
        let mut shuffled_tape = Tape::default();
        for _ in 0..rounds {
            shuffled.step_evented(&mut shuffled_tape, DeliveryPolicy::Interleaved { seed: interleave });
        }
        prop_assert_eq!(&shuffled_tape, &fifo_tape);
        prop_assert_eq!(shuffled.global_agg(), fifo.global_agg());
        for (a, b) in shuffled.clients().iter().zip(fifo.clients()) {
            prop_assert_eq!(&a.params, &b.params);
        }
    }

    #[test]
    fn mid_run_restore_replays_the_evented_trajectory(
        n in 2usize..14,
        rounds in 2u64..6,
        cut in 1u64..5,
        participation in 0.2f64..1.0,
        seed in 0u64..(1 << 40),
    ) {
        prop_assume!(cut < rounds);
        let cfg = config(rounds, participation, 1, true, seed);
        let mut straight = sim(n, cfg);
        let mut straight_tape = Tape::default();
        for _ in 0..rounds {
            straight.step_evented(&mut straight_tape, DeliveryPolicy::Lockstep);
        }

        let mut first = sim(n, cfg);
        let mut tape = Tape::default();
        for _ in 0..cut {
            first.step_evented(&mut tape, DeliveryPolicy::Lockstep);
        }
        let global = first.global_agg().to_vec();
        let params: Vec<Vec<f32>> = first.clients().iter().map(Participant::state_vec).collect();
        drop(first);

        let mut resumed = sim(n, cfg);
        resumed.restore(cut, global);
        for (node, p) in resumed.clients_mut().iter_mut().zip(&params) {
            node.restore_state(p);
        }
        for _ in cut..rounds {
            resumed.step_evented(&mut tape, DeliveryPolicy::Lockstep);
        }
        prop_assert_eq!(&tape, &straight_tape, "stitched tape diverged at cut {}", cut);
        prop_assert_eq!(resumed.global_agg(), straight.global_agg());
    }
}
