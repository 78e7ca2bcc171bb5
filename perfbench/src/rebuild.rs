//! The scenario rebuilt from the program's public parts, with the timing
//! wrappers of [`crate::seams`] at every seam.
//!
//! This mirrors what `cia_scenarios::run_scenario` does for the benchmark's
//! GMF scenarios (FedAvg, and gossip with the all-placements attack): the
//! same setup, client construction seeds, attack and dynamics wiring, DP
//! mechanism, evented rounds under lockstep delivery, a detail-on program
//! `Recorder` drained every round, and the HR@20 utility pass. The constants
//! below are the runner's; the equality gate in [`crate::run`] compares every
//! rebuilt run with `run_scenario` bit for bit, so a drift between the two
//! fails the traced run instead of timing a copy.

use crate::clock;
use crate::seams::{TimedAttack, TimedEvaluator, TimedParticipant, TimedTransform};
use crate::spans::{open, Seam, Tracer};
use cia_core::{CiaConfig, FlCia, GlCiaAllPlacements, ItemSetEvaluator, Recorder, RoundPoint};
use cia_data::UserId;
use cia_defenses::{DpConfig, DpMechanism};
use cia_federated::{FedAvg, FedAvgConfig};
use cia_gossip::{GossipConfig, GossipProtocol, GossipSim};
use cia_models::parallel::par_map;
use cia_models::{hit_ratio, GmfClient, UpdateTransform};
use cia_runtime::DeliveryPolicy;
use cia_scenarios::runner::gmf_scorer;
use cia_scenarios::{
    try_build_setup, DefenseKind, FlDynamics, GlDynamics, ModelKind, ParticipantDynamics,
    PlacementEngine, PlacementObserver, PlacementStrategy, ProtocolKind, RecsysSetup, ScenarioSpec,
};
use std::sync::Arc;
use std::time::Duration;

/// How a rebuilt scenario is instrumented.
pub struct Instruments {
    /// The benchmark's span recorder; `None` leaves the wrappers silent.
    pub tracer: Option<Arc<Tracer>>,
    /// Whether the program's own `Recorder` records spans and histograms
    /// (`Recorder::set_detail`); the runner always turns it on.
    pub recorder_detail: bool,
}

/// What a rebuilt scenario computed and what the protocol reported.
#[derive(Debug)]
pub struct Rebuilt {
    /// Attack history, one point per evaluation.
    pub history: Vec<RoundPoint>,
    /// HR@20 after the last round, when the scenario ran to completion.
    pub utility: Option<f64>,
    /// Protocol rounds run.
    pub rounds: u64,
    /// `bytes_materialized` of every round.
    pub bytes_materialized: Vec<u64>,
    /// Model deliveries of every round (gossip only).
    pub deliveries: Vec<u64>,
    /// Wall time of the whole scenario, setup included.
    pub elapsed: Duration,
}

/// Runs `spec` rebuilt from public parts, stopping after `stop_after`
/// rounds when given (as `RunOptions::stop_after_rounds` does).
///
/// # Errors
///
/// Returns an error for a spec shape the rebuild does not cover (non-GMF
/// models, gossip coalitions) or a setup failure.
pub fn run(
    spec: &ScenarioSpec,
    stop_after: Option<u64>,
    inst: &Instruments,
) -> Result<Rebuilt, String> {
    spec.validate()?;
    if spec.model != ModelKind::Gmf {
        return Err(format!("{}: the rebuilt pipeline covers GMF scenarios only", spec.name));
    }
    let start = clock::now();
    let tracer = inst.tracer.as_deref();
    let setup = {
        let _s = open(tracer, Seam::Setup);
        try_build_setup(spec.preset, spec.scale, spec.k_override, spec.seed)?
    };
    let mut out = match spec.protocol {
        ProtocolKind::Fl => run_fl(spec, &setup, stop_after, inst),
        ProtocolKind::RandGossip | ProtocolKind::PersGossip => {
            run_gossip(spec, &setup, stop_after, inst)
        }
    }?;
    out.elapsed = start.elapsed();
    Ok(out)
}

/// Everything both protocols build the same way.
struct Parts {
    clients: Vec<TimedParticipant<GmfClient>>,
    evaluator: TimedEvaluator<ItemSetEvaluator<cia_models::GmfSpec>>,
    cia: CiaConfig,
    dynamics: ParticipantDynamics,
    recorder: Recorder,
}

fn parts(spec: &ScenarioSpec, setup: &RecsysSetup, inst: &Instruments) -> Parts {
    let n = setup.data.num_users();
    let model_spec = gmf_scorer(setup.data.num_items(), setup.params.dim);
    let policy = spec.defense.policy();
    let clients = {
        let _s = open(inst.tracer.as_deref(), Seam::BuildClients);
        setup
            .split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                let user = UserId::new(u32::try_from(u).expect("populations fit u32"));
                let seed = spec.seed ^ (u as u64).wrapping_mul(0xD6E8_FEB8);
                let client = model_spec.build_client(user, items.clone(), policy, seed);
                TimedParticipant::new(client, inst.tracer.clone())
            })
            .collect()
    };
    let share_less = matches!(spec.defense, DefenseKind::ShareLess { .. });
    let targets = setup.split.train_sets().to_vec();
    let evaluator = TimedEvaluator::new(
        ItemSetEvaluator::new(model_spec, targets, share_less),
        inst.tracer.clone(),
    );
    let cia = CiaConfig {
        k: setup.k,
        beta: spec.beta,
        eval_every: setup.params.eval_every(spec.protocol),
        seed: spec.seed ^ 0xC1A,
    };
    let dynamics = ParticipantDynamics::new(&spec.dynamics, n, spec.seed ^ 0xD11A);
    let recorder = Recorder::new();
    recorder.set_detail(inst.recorder_detail);
    Parts { clients, evaluator, cia, dynamics, recorder }
}

fn dp_transform(
    spec: &ScenarioSpec,
    rounds: u64,
    inst: &Instruments,
) -> Option<Box<dyn UpdateTransform>> {
    let DefenseKind::Dp { epsilon } = spec.defense else {
        return None;
    };
    let mech = match epsilon {
        Some(eps) => DpMechanism::with_target_epsilon(eps, 1e-6, rounds, 1.0, 2.0),
        None => DpMechanism::new(DpConfig { clip: 2.0, noise_multiplier: 0.0 }),
    };
    Some(Box::new(TimedTransform::new(mech, inst.tracer.clone())))
}

fn last_round(total: u64, stop_after: Option<u64>) -> u64 {
    stop_after.map_or(total, |s| s.min(total))
}

fn hr20(clients: &[TimedParticipant<GmfClient>], setup: &RecsysSetup) -> f64 {
    let eval = setup.split.eval_instances();
    let n = clients.len().min(eval.len());
    if n == 0 {
        return 0.0;
    }
    let hits = par_map(n, |u| {
        let (c, inst) = (clients[u].inner(), &eval[u]);
        let pos = c.score_candidates(&[inst.primary()])[0];
        let negs = c.score_candidates(&inst.negatives);
        hit_ratio(pos, &negs, 20)
    });
    hits.iter().filter(|&&h| h).count() as f64 / n as f64
}

fn run_fl(
    spec: &ScenarioSpec,
    setup: &RecsysSetup,
    stop_after: Option<u64>,
    inst: &Instruments,
) -> Result<Rebuilt, String> {
    let tracer = inst.tracer.as_deref();
    let n = setup.data.num_users();
    let total = setup.params.fl_rounds;
    let Parts { clients, evaluator, cia, mut dynamics, recorder } = parts(spec, setup, inst);
    let attack = FlCia::new(cia, evaluator, n, setup.truth_table(), setup.owner_table());
    let mut attack = TimedAttack::new(attack, inst.tracer.clone());
    let cfg = FedAvgConfig {
        rounds: total,
        local_epochs: setup.params.local_epochs,
        seed: spec.seed,
        ..Default::default()
    };
    let mut sim = FedAvg::new(clients, cfg);
    if let Some(t) = dp_transform(spec, total, inst) {
        sim.set_update_transform(t);
    }
    sim.set_recorder(recorder.clone());
    attack.inner.set_recorder(recorder.clone());
    let (mut bytes, stop) = (Vec::new(), last_round(total, stop_after));
    while sim.round() < stop {
        if let Some(t) = tracer {
            t.set_round(sim.round());
        }
        let round_span = recorder.span("round");
        let stats = {
            let _s = open(tracer, Seam::Round);
            let mut obs = FlDynamics { inner: &mut attack, dynamics: &mut dynamics };
            sim.step_evented(&mut obs, DeliveryPolicy::Lockstep)
        };
        drop(round_span);
        recorder.drain();
        bytes.push(stats.bytes_materialized);
    }
    let utility = (stop == total).then(|| {
        let _s = open(tracer, Seam::Utility);
        sim.sync_clients_to_global();
        hr20(sim.clients(), setup)
    });
    Ok(Rebuilt {
        history: attack.inner.history().to_vec(),
        utility,
        rounds: stop,
        bytes_materialized: bytes,
        deliveries: Vec::new(),
        elapsed: Duration::ZERO,
    })
}

fn run_gossip(
    spec: &ScenarioSpec,
    setup: &RecsysSetup,
    stop_after: Option<u64>,
    inst: &Instruments,
) -> Result<Rebuilt, String> {
    if spec.coalition_size() > 0 {
        return Err(format!(
            "{}: the rebuilt pipeline covers the single-adversary gossip attack only",
            spec.name
        ));
    }
    let tracer = inst.tracer.as_deref();
    let n = setup.data.num_users();
    let total = setup.params.gl_rounds;
    let Parts { clients, evaluator, cia, mut dynamics, recorder } = parts(spec, setup, inst);
    let protocol = match spec.protocol {
        ProtocolKind::PersGossip => GossipProtocol::Pers { exploration: 0.4 },
        _ => GossipProtocol::Rand,
    };
    let mut sim = GossipSim::new(
        clients,
        GossipConfig { rounds: total, protocol, seed: spec.seed, ..Default::default() },
    );
    if let Some(t) = dp_transform(spec, total, inst) {
        sim.set_update_transform(t);
    }
    sim.set_recorder(recorder.clone());
    let attack = GlCiaAllPlacements::new(cia, evaluator, n, setup.truth_table());
    let mut attack = TimedAttack::new(attack, inst.tracer.clone());
    attack.inner.set_recorder(recorder.clone());
    // No coalition: the engine never relocates, exactly as in the runner.
    let mut placement = PlacementEngine::new(
        PlacementStrategy::Static,
        spec.dynamics.placement_warmup,
        Vec::new(),
        n,
    );
    let (mut bytes, mut deliveries) = (Vec::new(), Vec::new());
    let stop = last_round(total, stop_after);
    while sim.round() < stop {
        if let Some(t) = tracer {
            t.set_round(sim.round());
        }
        let round_span = recorder.span("round");
        let stats = {
            let _s = open(tracer, Seam::Round);
            let mut obs = PlacementObserver { inner: &mut attack, engine: &mut placement };
            let mut obs = GlDynamics { inner: &mut obs, dynamics: &mut dynamics };
            sim.step_evented(&mut obs, DeliveryPolicy::Lockstep)
        };
        drop(round_span);
        recorder.drain();
        bytes.push(stats.bytes_materialized);
        deliveries.push(stats.deliveries as u64);
    }
    // A gossip run computes utility only when it completes; the benchmark's
    // gossip workload runs a prefix.
    let utility = (stop == total).then(|| {
        let _s = open(tracer, Seam::Utility);
        hr20(sim.nodes(), setup)
    });
    Ok(Rebuilt {
        history: attack.inner.history().to_vec(),
        utility,
        rounds: stop,
        bytes_materialized: bytes,
        deliveries,
        elapsed: Duration::ZERO,
    })
}
