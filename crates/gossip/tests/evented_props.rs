//! Property tests for the event-driven gossip round — the two guarantees the
//! scheduler design rests on:
//!
//! 1. *Interleaving invariance*: any seed for
//!    [`DeliveryPolicy::Interleaved`] reproduces the FIFO
//!    ([`DeliveryPolicy::Lockstep`]) transcript byte for byte, with or
//!    without DP (every reorderable mailbox is sorted on a canonical key
//!    before a float is touched).
//! 2. *Kill/resume across a live queue*: exporting state at an arbitrary
//!    round cut — where per-node refresh timers are always still in flight —
//!    and restoring into a fresh simulation replays the uninterrupted run
//!    exactly.

use cia_data::UserId;
use cia_defenses::{DpConfig, DpMechanism};
use cia_gossip::{
    Checkpointable, DeliveryPolicy, GossipConfig, GossipObserver, GossipProtocol, GossipRoundStats,
    GossipSim,
};
use cia_models::{Participant, SharedModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// A deterministic toy participant: params drift towards a per-community
/// fixed point during "training" with a small RNG perturbation, so any
/// divergence in RNG stream order between two delivery orders shows up in
/// the parameters.
struct TestNode {
    user: UserId,
    params: Vec<f32>,
    target: Vec<f32>,
}

impl TestNode {
    fn new(user: u32, community: usize) -> Self {
        let mut target = vec![0.0f32; 8];
        target[community % 8] = 1.0;
        TestNode { user: UserId::new(user), params: vec![0.0; 8], target }
    }
}

impl Participant for TestNode {
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
    fn evaluate_model(&self, model: &SharedModel) -> f32 {
        // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
        -model.agg.iter().zip(&self.target).map(|(a, t)| (a - t) * (a - t)).sum::<f32>()
    }
}

fn sim(n: usize, cfg: GossipConfig) -> GossipSim<TestNode> {
    // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
    let nodes = (0..n).map(|u| TestNode::new(u as u32, u % 4)).collect();
    GossipSim::new(nodes, cfg)
}

/// [`sim`] with a DP-SGD transform on every outgoing model when `dp`.
fn sim_with_dp(n: usize, cfg: GossipConfig, dp: bool) -> GossipSim<TestNode> {
    let mut s = sim(n, cfg);
    if dp {
        s.set_update_transform(Box::new(DpMechanism::new(DpConfig {
            clip: 0.5,
            noise_multiplier: 0.3,
        })));
    }
    s
}

/// Observer taping every observable event.
#[derive(Default, Debug, PartialEq)]
struct Tape {
    deliveries: Vec<(u64, u32, u32)>,
    stats: Vec<GossipRoundStats>,
}

impl GossipObserver for Tape {
    fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
        self.deliveries.push((round, receiver.raw(), model.owner.raw()));
    }
    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        self.stats.push(stats.clone());
    }
}

/// Every observable byte of a finished simulation.
fn observables(
    s: &GossipSim<TestNode>,
) -> (Vec<Vec<f32>>, Vec<Vec<u32>>, cia_gossip::TrafficCounters) {
    let params = s.nodes().iter().map(|c| c.params.clone()).collect();
    // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
    let views = (0..s.nodes().len() as u32).map(|u| s.view_of(u).to_vec()).collect();
    (params, views, s.traffic().clone())
}

#[allow(clippy::too_many_arguments)]
fn config(rounds: u64, wake: f64, refresh: f64, pers: bool, seed: u64) -> GossipConfig {
    GossipConfig {
        rounds,
        wake_fraction: wake,
        view_refresh_rate: refresh,
        protocol: if pers {
            GossipProtocol::Pers { exploration: 0.4 }
        } else {
            GossipProtocol::Rand
        },
        seed,
        ..Default::default()
    }
}

proptest! {
    #[test]
    fn any_interleaving_seed_replays_the_fifo_transcript(
        n in 6usize..16,
        rounds in 2u64..6,
        wake in 0.3f64..1.0,
        refresh in 0.1f64..1.0,
        pers in any::<bool>(),
        dp in any::<bool>(),
        seed in 0u64..(1 << 40),
        interleave in any::<u64>(),
    ) {
        let cfg = config(rounds, wake, refresh, pers, seed);
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
        prop_assert_eq!(observables(&shuffled), observables(&fifo));
    }

    #[test]
    fn kill_resume_across_a_live_event_queue_replays_exactly(
        n in 6usize..16,
        rounds in 3u64..8,
        cut in 1u64..7,
        wake in 0.3f64..1.0,
        refresh in 0.1f64..1.0,
        pers in any::<bool>(),
        seed in 0u64..(1 << 40),
    ) {
        prop_assume!(cut < rounds);
        let cfg = config(rounds, wake, refresh, pers, seed);
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
        let state = first.export_state();
        // The cut always catches a live queue: every node keeps a refresh
        // timer in flight, so resume genuinely crosses pending events.
        prop_assert!(!state.pending.is_empty(), "event queue empty at round {}", cut);
        let params: Vec<Vec<f32>> = first.nodes().iter().map(Participant::state_vec).collect();
        drop(first);

        let mut resumed = sim(n, cfg);
        resumed.restore_state(state);
        for (node, p) in resumed.nodes_mut().iter_mut().zip(&params) {
            node.restore_state(p);
        }
        for _ in cut..rounds {
            resumed.step_evented(&mut tape, DeliveryPolicy::Lockstep);
        }
        prop_assert_eq!(&tape, &straight_tape, "stitched event tape diverged at cut {}", cut);
        prop_assert_eq!(observables(&resumed), observables(&straight));
    }
}
