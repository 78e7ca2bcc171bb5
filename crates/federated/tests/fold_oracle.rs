//! The evented FedAvg round against a scalar textbook FedAvg.
//!
//! The reference keeps its own copy of every client. Each round it trains
//! the sampled ones from the broadcast global on the protocol's per-client
//! RNG streams, then forms `global + Σ w̃ᵢ · (aggᵢ − global)` with one dense
//! scalar pass per client, in ascending client order. The engine folds the
//! same sum window by window over `CIA_THREADS` workers and skips the rows
//! training left untouched, so on finite parameters it must land on the
//! reference's bits at every thread count. Cases cover partial
//! participation, both weightings, Share-less clients and all-offline
//! rounds (every participant cleared by the observer).

use cia_data::UserId;
use cia_federated::{FedAvg, FedAvgConfig, LivenessEvent, RoundObserver, Weighting};
use cia_models::{GmfClient, GmfHyper, GmfSpec, Participant, SharedModel, SharingPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random FedAvg instance: GMF clients and a configuration.
struct Instance {
    clients: Vec<GmfClient>,
    cfg: FedAvgConfig,
    /// Per round: whether the observer takes every participant offline.
    offline: Vec<bool>,
}

fn instance(rng: &mut StdRng) -> Instance {
    let items = rng.gen_range(6u32..40);
    let dim = [3usize, 8, 16][rng.gen_range(0usize..3)];
    let spec = GmfSpec::new(items, dim, GmfHyper { negatives: 2, ..GmfHyper::default() });
    let clients = (0..rng.gen_range(1u32..12))
        .map(|u| {
            let mut train: Vec<u32> =
                (0..rng.gen_range(1..=items / 2)).map(|_| rng.gen_range(0..items)).collect();
            train.sort_unstable();
            train.dedup();
            let policy = if rng.gen_bool(0.3) {
                SharingPolicy::ShareLess { tau: 0.5 }
            } else {
                SharingPolicy::Full
            };
            spec.build_client(UserId::new(u), train, policy, u64::from(u))
        })
        .collect();
    let rounds = rng.gen_range(1u64..5);
    let cfg = FedAvgConfig {
        rounds,
        participation: if rng.gen_bool(0.5) { 1.0 } else { rng.gen_range(0.2f64..1.0) },
        local_epochs: rng.gen_range(1usize..3),
        weighting: if rng.gen_bool(0.5) { Weighting::Uniform } else { Weighting::ByExamples },
        seed: rng.gen_range(0..1 << 40),
    };
    let offline = (0..rounds).map(|_| rng.gen_bool(0.2)).collect();
    Instance { clients, cfg, offline }
}

/// Clears the acting set in the rounds marked offline and records the
/// final mask of every round.
struct Availability {
    offline: Vec<bool>,
    masks: Vec<Vec<bool>>,
}

impl RoundObserver for Availability {
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        if let LivenessEvent::ActingSet { round, mask } = event {
            if self.offline[round as usize] {
                mask.iter_mut().for_each(|m| *m = false);
            }
            self.masks.push(mask.to_vec());
        }
    }

    fn on_client_model(&mut self, _model: &SharedModel) {}
}

/// Client `i`'s training RNG stream for round `t`, as the protocol derives
/// it from the configured seed.
fn client_rng(cfg: &FedAvgConfig, t: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ (t << 20) ^ (i as u64).wrapping_mul(0x5851_F42D))
}

/// Textbook FedAvg over `clients` with the engine's final participation
/// masks; returns the global after every round.
fn reference(inst: &Instance, masks: &[Vec<bool>]) -> Vec<Vec<f32>> {
    let mut clients = inst.clients.clone();
    let mut global = clients[0].agg().to_vec();
    let mut out = Vec::new();
    for (t, mask) in masks.iter().enumerate() {
        let weight = |c: &GmfClient| match inst.cfg.weighting {
            Weighting::Uniform => 1.0f32,
            Weighting::ByExamples => c.num_examples().max(1) as f32,
        };
        let mut total = 0.0f32;
        for (c, _) in clients.iter().zip(mask).filter(|&(_, &m)| m) {
            total += weight(c);
        }
        let mut acc = vec![0.0f32; global.len()];
        for (i, c) in clients.iter_mut().enumerate().filter(|&(i, _)| mask[i]) {
            let mut rng = client_rng(&inst.cfg, t as u64, i);
            c.absorb_agg(&global);
            for _ in 0..inst.cfg.local_epochs.max(1) {
                c.train_local(&mut rng);
            }
            let w = weight(c) / total;
            for ((o, &a), &g) in acc.iter_mut().zip(c.agg()).zip(&global) {
                *o += w * (a - g);
            }
        }
        if mask.iter().any(|&m| m) {
            for (g, a) in global.iter_mut().zip(&acc) {
                *g += a;
            }
        }
        out.push(global.clone());
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn evented_rounds_match_textbook_fedavg_at_any_thread_count(seed in 0u64..(1 << 60)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = instance(&mut rng);
        let mut want = None;
        for threads in ["1", "2", "4"] {
            std::env::set_var("CIA_THREADS", threads);
            let mut sim = FedAvg::new(inst.clients.clone(), inst.cfg);
            let mut obs = Availability { offline: inst.offline.clone(), masks: Vec::new() };
            let mut globals = Vec::new();
            for _ in 0..inst.cfg.rounds {
                sim.step(&mut obs);
                globals.push(bits(sim.global_agg()));
            }
            let want = want.get_or_insert_with(|| {
                reference(&inst, &obs.masks).iter().map(|g| bits(g)).collect::<Vec<_>>()
            });
            prop_assert_eq!(&globals, &*want, "CIA_THREADS={}", threads);
        }
        std::env::remove_var("CIA_THREADS");
    }
}
