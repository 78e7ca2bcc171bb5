//! Federated learning (FedAvg) simulation with adversary observer hooks.
//!
//! Reproduces the paper's federated recommender setting (§III-B): at each
//! round the server broadcasts the global model, (a subset of) clients train
//! locally and send back their models, and the server aggregates them into
//! the next global model. The [`RoundObserver`] hook exposes exactly what the
//! server receives — the vantage point of the paper's FL adversary, who *is*
//! the server (§IV-A).
//!
//! # Example
//!
//! ```
//! use cia_data::{LeaveOneOut, SyntheticConfig, UserId};
//! use cia_federated::{FedAvg, FedAvgConfig, RoundObserver};
//! use cia_models::{GmfHyper, GmfSpec, SharedModel, SharingPolicy};
//!
//! let data = SyntheticConfig::builder()
//!     .users(12).items(60).communities(3).interactions_per_user(8)
//!     .seed(1).build().generate();
//! let split = LeaveOneOut::new(&data, 10, 0).unwrap();
//! let spec = GmfSpec::new(60, 8, GmfHyper::default());
//! let clients: Vec<_> = split
//!     .train_sets()
//!     .iter()
//!     .enumerate()
//!     .map(|(u, items)| {
//!         spec.build_client(UserId::new(u as u32), items.clone(), SharingPolicy::Full, u as u64)
//!     })
//!     .collect();
//!
//! struct Counter(usize);
//! impl RoundObserver for Counter {
//!     fn on_client_model(&mut self, _m: &SharedModel) { self.0 += 1; }
//! }
//!
//! let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 2, ..Default::default() });
//! let mut counter = Counter(0);
//! sim.run(&mut counter);
//! assert_eq!(counter.0, 2 * 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cia_data::UserId;
use cia_models::params::weighted_mean;
use cia_models::{ClientStore, Participant, SharedModel, UpdateTransform};
use cia_obs::{Counter, Metric, Recorder};
use cia_runtime::{Ctx, Msg, Node, NodeId, Scheduler, HUB, SLOTS_PER_ROUND};

// The runtime abstractions this crate's API surfaces (observer liveness
// events, evented delivery policies).
pub use cia_runtime::{DeliveryPolicy, LivenessEvent};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How client updates are weighted during aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Weighting {
    /// Every participating client weighs the same.
    Uniform,
    /// FedAvg's default: weigh by local example count.
    #[default]
    ByExamples,
}

/// FedAvg configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedAvgConfig {
    /// Number of communication rounds `T`.
    pub rounds: u64,
    /// Fraction of clients sampled each round (1.0 = full participation, the
    /// paper's FL adversary "may contact all or part of the users").
    pub participation: f64,
    /// Local training epochs per round.
    pub local_epochs: usize,
    /// Aggregation weighting.
    pub weighting: Weighting,
    /// Simulation seed (client sampling, training order, DP noise).
    pub seed: u64,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        FedAvgConfig {
            rounds: 20,
            participation: 1.0,
            local_epochs: 1,
            weighting: Weighting::ByExamples,
            seed: 0,
        }
    }
}

/// Per-round statistics handed to observers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// The completed round index.
    pub round: u64,
    /// Number of clients that participated.
    pub participants: usize,
    /// Mean local training loss across participants; `None` when no client
    /// participated (an all-offline round has no losses to average — a `0.0`
    /// sentinel would be indistinguishable from perfect convergence).
    pub mean_loss: Option<f32>,
    /// Bytes of client model state materialized for this round: rebuilt lazy
    /// clients plus observer snapshots (sharded stores), or the snapshot
    /// buffers refilled for the observer (dense stores, where client state
    /// is permanently resident).
    pub bytes_materialized: u64,
}

/// Observes what the FL server sees — the adversary's vantage point.
///
/// All methods have empty default bodies so observers implement only what
/// they need.
pub trait RoundObserver {
    /// Called when a round begins.
    fn on_round_start(&mut self, round: u64) {
        let _ = round;
    }

    /// Called with protocol-agnostic liveness events (the same enum gossip
    /// observers consume). FedAvg issues one
    /// [`LivenessEvent::ActingSet`] per round, after its own participation
    /// sampling, with the round's tentative participant mask. Observers may
    /// clear entries to model availability — churn, stragglers, device
    /// dropout — without the training loop knowing about participant
    /// dynamics (the `cia-scenarios` dynamics layer plugs in here). Setting
    /// entries to `true` is ignored-at-your-own-risk: the protocol honors
    /// the final mask as-is.
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        let _ = event;
    }

    /// Called at the start of every round with the broadcast global model —
    /// public knowledge for a server-side adversary (reference for update
    /// reconstruction and for training fictive embeddings).
    fn on_global(&mut self, round: u64, global_agg: &[f32]) {
        let _ = (round, global_agg);
    }

    /// Called once per received client model, in user-id order.
    fn on_client_model(&mut self, model: &SharedModel) {
        let _ = model;
    }

    /// Called once per round with every received client model, in user-id
    /// order (dense rounds; sharded rounds observe one model at a time). The
    /// default hands each model to [`RoundObserver::on_client_model`];
    /// observers override it to fold the batch at once, and must end in the
    /// state that loop would leave.
    fn on_client_models(&mut self, models: &[&SharedModel]) {
        for model in models {
            self.on_client_model(model);
        }
    }

    /// Whether this observer consumes [`RoundObserver::on_client_model`].
    /// Observers that don't (e.g. [`NullObserver`] in utility-only runs and
    /// round benchmarks) should return `false`: the protocol then skips
    /// materializing per-client snapshots entirely — aggregation works
    /// directly from client state — which removes a full copy of every
    /// client's model from each round. Aggregation math is identical either
    /// way.
    fn observes_models(&self) -> bool {
        true
    }

    /// Called when a round's aggregation completes.
    fn on_round_end(&mut self, stats: &RoundStats) {
        let _ = stats;
    }
}

/// A no-op observer for runs without an adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RoundObserver for NullObserver {
    fn observes_models(&self) -> bool {
        false
    }
}

/// The FedAvg simulation.
pub struct FedAvg<P: Participant> {
    store: ClientStore<P>,
    global_agg: Vec<f32>,
    cfg: FedAvgConfig,
    transform: Option<Box<dyn UpdateTransform>>,
    round: u64,
    /// Per-client round slots (dense stores), persistent across rounds so
    /// snapshots reuse their buffers instead of re-allocating a full model
    /// per client per round.
    slots: Vec<RoundSlot>,
    /// Reused aggregation accumulator.
    acc: Vec<f32>,
    /// Sharded-mode shared training workspace — one catalog-sized buffer
    /// lent to every sampled client in turn (see
    /// [`Participant::fed_round_shared`]).
    workspace: Vec<f32>,
    /// Sharded-mode reusable observer snapshot slot (clients are observed
    /// one at a time, in index order, so one slot serves the cohort).
    snap_slot: SharedModel,
    /// The observability sink: phase spans, event counters (clients trained,
    /// bytes materialized) and the per-client training-latency histogram.
    /// Shared with the client store in sharded mode so every materialized
    /// byte lands in one registry.
    obs: Recorder,
    /// Invoked when a dense round's scheduled
    /// [`Msg::GlobalBroadcast`] event fires: `(round, clients, global)`.
    /// The scenario runner installs snapshot publication to `cia-serve`
    /// here, making publication a scheduled event instead of an
    /// out-of-band runner step.
    publish_hook: Option<PublishHook<P>>,
}

/// Post-broadcast publication callback: `(round, clients, new_global)`.
pub type PublishHook<P> = Box<dyn FnMut(u64, &[P], &[f32])>;

/// Per-client per-round bookkeeping; `model` keeps its buffers across rounds.
struct RoundSlot {
    model: SharedModel,
    loss: f32,
    sampled: bool,
}

impl<P: Participant> FedAvg<P> {
    /// Creates a simulation over `clients`. The initial global model is the
    /// first client's public parameters (all clients sync to it in round 0).
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty or clients disagree on parameter sizes.
    pub fn new(clients: Vec<P>, cfg: FedAvgConfig) -> Self {
        assert!(!clients.is_empty(), "need at least one client");
        let len = clients[0].agg_len();
        assert!(
            clients.iter().all(|c| c.agg_len() == len),
            "clients must share a parameter layout"
        );
        assert!(
            cfg.participation > 0.0 && cfg.participation <= 1.0,
            "participation must be in (0, 1]"
        );
        let global_agg = clients[0].agg().to_vec();
        let slots = clients
            .iter()
            .map(|c| RoundSlot {
                model: SharedModel { owner: c.user(), round: 0, owner_emb: None, agg: Vec::new() },
                loss: 0.0,
                sampled: false,
            })
            .collect();
        FedAvg {
            store: ClientStore::dense(clients),
            global_agg,
            cfg,
            transform: None,
            round: 0,
            slots,
            acc: Vec::new(),
            workspace: Vec::new(),
            snap_slot: empty_snap_slot(),
            obs: Recorder::new(),
            publish_hook: None,
        }
    }

    /// Creates a simulation over a sharded, lazily materialized client store
    /// (see `cia_models::ClientStore`). `initial_global` seeds the global
    /// model — shell clients carry no aggregatable buffer, so the caller
    /// supplies the value a dense run would read off its first client.
    ///
    /// Sharded rounds run the shared-workspace serial path: bit-identical to
    /// the dense path for the same seed, but only the sampled clients are
    /// ever resident. Update transforms (DP) require a dense store.
    ///
    /// # Panics
    ///
    /// Panics if the store is empty or dense, or `participation` is out of
    /// range.
    pub fn sharded(store: ClientStore<P>, initial_global: Vec<f32>, cfg: FedAvgConfig) -> Self {
        assert!(!store.is_empty(), "need at least one client");
        assert!(store.is_sharded(), "FedAvg::sharded needs a sharded store; use FedAvg::new");
        assert!(
            cfg.participation > 0.0 && cfg.participation <= 1.0,
            "participation must be in (0, 1]"
        );
        let obs = Recorder::new();
        let mut store = store;
        store.set_recorder(obs.clone());
        FedAvg {
            store,
            global_agg: initial_global,
            cfg,
            transform: None,
            round: 0,
            slots: Vec::new(),
            acc: Vec::new(),
            workspace: Vec::new(),
            snap_slot: empty_snap_slot(),
            obs,
            publish_hook: None,
        }
    }

    /// Installs the post-broadcast publication hook (see [`PublishHook`]).
    /// Every dense round schedules the [`Msg::GlobalBroadcast`] event that
    /// fires it; sharded rounds never publish.
    pub fn set_publish_hook(&mut self, hook: PublishHook<P>) {
        self.publish_hook = Some(hook);
    }

    /// Installs the metrics/trace sink this simulation (and, in sharded
    /// mode, its client store) reports into. The scenario runner installs
    /// one recorder per scenario; standalone simulations keep their own
    /// default recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.store.set_recorder(recorder.clone());
        self.obs = recorder;
    }

    /// The metrics/trace sink this simulation reports into.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Installs a local update transform (DP-SGD) applied to every outgoing
    /// client update.
    ///
    /// # Panics
    ///
    /// Panics on a sharded store: the DP path aggregates dense transformed
    /// snapshots of every participant, which defeats lazy materialization.
    pub fn set_update_transform(&mut self, transform: Box<dyn UpdateTransform>) {
        assert!(!self.store.is_sharded(), "update transforms (DP) require a dense client store");
        self.transform = Some(transform);
    }

    /// The configuration.
    pub fn config(&self) -> &FedAvgConfig {
        &self.cfg
    }

    /// The client store.
    pub fn store(&self) -> &ClientStore<P> {
        &self.store
    }

    /// The clients (evaluation access).
    ///
    /// # Panics
    ///
    /// Panics on a sharded store — lazy clients are not resident; use
    /// [`FedAvg::store`].
    pub fn clients(&self) -> &[P] {
        self.store.as_dense().expect("clients() needs a dense store; use store()")
    }

    /// The current global public parameters.
    pub fn global_agg(&self) -> &[f32] {
        &self.global_agg
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Mutable access to the clients (checkpoint resume restores each
    /// participant's private state in place).
    ///
    /// # Panics
    ///
    /// Panics on a sharded store — lazy clients are not resident.
    pub fn clients_mut(&mut self) -> &mut [P] {
        self.store.as_dense_mut().expect("clients_mut() needs a dense store")
    }

    /// Restores the protocol-side state — the round counter and the current
    /// global model — captured from [`FedAvg::round`] and
    /// [`FedAvg::global_agg`]. Per-round RNG streams are derived from
    /// `(seed, round)`, so no generator state needs saving: stepping after a
    /// restore replays exactly the rounds an uninterrupted run would have
    /// executed.
    ///
    /// # Panics
    ///
    /// Panics if `global_agg` does not match the clients' parameter layout.
    pub fn restore(&mut self, round: u64, global_agg: Vec<f32>) {
        assert_eq!(global_agg.len(), self.global_agg.len(), "global layout mismatch");
        self.round = round;
        self.global_agg = global_agg;
    }

    /// Loads the current global model into every client (used before utility
    /// evaluation, mirroring the broadcast deployment of the final model).
    ///
    /// # Panics
    ///
    /// Panics on a sharded store — materialize individual clients instead.
    pub fn sync_clients_to_global(&mut self) {
        let global = self.global_agg.clone();
        for c in self.store.as_dense_mut().expect("sync needs a dense store") {
            c.absorb_agg(&global);
        }
    }

    /// Runs one round: sample, broadcast, local training, transform,
    /// observe, aggregate — [`FedAvg::step_evented`] under FIFO delivery.
    pub fn step(&mut self, observer: &mut dyn RoundObserver) -> RoundStats {
        self.step_evented(observer, DeliveryPolicy::Lockstep)
    }

    /// One round over a sharded store: identical sampling, RNG streams,
    /// visit order and aggregation math as the dense evented round —
    /// bit-identical results — but each sampled client is rebuilt on demand,
    /// trains inside the shared workspace, and retires back to its compact
    /// descriptor before the next client materializes.
    fn step_sharded(&mut self, observer: &mut dyn RoundObserver) -> RoundStats {
        debug_assert!(self.transform.is_none(), "transforms are rejected at install time");
        let t = self.round;
        let obs = self.obs.clone();
        let bytes0 = obs.counter(Counter::BytesMaterialized);
        let cfg = self.cfg;

        let sample_span = obs.span("sample");
        let mut sampled = sample_participants(self.store.len(), &cfg, t);
        observer.on_round_start(t);
        observer.on_liveness(LivenessEvent::ActingSet { round: t, mask: &mut sampled });
        observer.on_global(t, &self.global_agg);
        drop(sample_span);
        let materialize = observer.observes_models();

        let weight_of = |store: &ClientStore<P>, i: usize| match cfg.weighting {
            Weighting::Uniform => 1.0,
            Weighting::ByExamples => store.num_examples_of(i).max(1) as f32,
        };
        let total: f32 = sampled
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| weight_of(&self.store, i))
            .sum();
        self.acc.resize(self.global_agg.len(), 0.0);
        self.acc.fill(0.0);
        // The cohort's shared workspace starts bit-identical to the
        // broadcast global; every `fed_round_shared` returns it that way.
        self.workspace.resize(self.global_agg.len(), 0.0);
        self.workspace.copy_from_slice(&self.global_agg);

        // Training and observation are fused per client here (the snapshot
        // slot is reused client to client), so one "train" span covers the
        // materialize → train → observe → retire chain.
        let train_span = obs.span("train");
        let mut loss_sum = 0.0f32;
        let mut participants = 0usize;
        for (i, _) in sampled.iter().enumerate().filter(|&(_, &s)| s) {
            let t0 = obs.clock();
            let mut client = self.store.materialize(i);
            let mut crng = client_rng(&cfg, t, i);
            let sink = if total > 0.0 {
                Some((weight_of(&self.store, i) / total, self.acc.as_mut_slice()))
            } else {
                None
            };
            let snap = if materialize { Some((t, &mut self.snap_slot)) } else { None };
            let loss = client.fed_round_shared(
                &mut self.workspace,
                &self.global_agg,
                cfg.local_epochs,
                &mut crng,
                sink,
                snap,
            );
            obs.observe_since(Metric::TrainMicros, t0);
            if materialize {
                obs.add(Counter::BytesMaterialized, 4 * self.snap_slot.len() as u64);
                observer.on_client_model(&self.snap_slot);
            }
            loss_sum += loss;
            participants += 1;
            self.store.retire(i, client);
        }
        drop(train_span);
        obs.add(Counter::ClientsTrained, participants as u64);

        let aggregate_span = obs.span("aggregate");
        if participants > 0 {
            for (g, a) in self.global_agg.iter_mut().zip(&self.acc) {
                *g += a;
            }
        }
        drop(aggregate_span);

        let stats = RoundStats {
            round: t,
            participants,
            mean_loss: (participants > 0).then(|| loss_sum / participants as f32),
            bytes_materialized: obs.counter(Counter::BytesMaterialized) - bytes0,
        };
        let evaluate_span = obs.span("evaluate");
        observer.on_round_end(&stats);
        drop(evaluate_span);
        self.round += 1;
        stats
    }

    /// Runs one round on the event-driven runtime: the server (the
    /// scheduler's hub) and every client (a seat) exchange typed messages
    /// under the deterministic virtual-clock scheduler:
    ///
    /// * slot 0 — the `RoundStart` timer samples the cohort and sends every
    ///   sampled client its [`Msg::TrainRequest`] for slot 1;
    /// * slot 1 — the requests form one batch, so the clients absorb the
    ///   global, train on their own RNG streams and snapshot (or run the DP
    ///   transform) in parallel over `CIA_THREADS`, each replying with a
    ///   [`Msg::ModelUpdate`];
    /// * fold — once slot 1 drains, the server folds `w̃ᵢ · (aggᵢ − global)`
    ///   of every sampled client into its accumulator with
    ///   [`fold_updates`]: one disjoint window of the accumulator per
    ///   worker, each walking the clients in ascending index order through
    ///   [`Participant::accumulate_update_rows`] (DP rounds skip it: they
    ///   aggregate the transformed snapshots);
    /// * slot 3 — the `RoundEnd` timer hands the round's snapshots to the
    ///   observer in one [`RoundObserver::on_client_models`] call,
    ///   aggregates and evaluates, then schedules [`Msg::GlobalBroadcast`].
    ///
    /// The batch contract (see the `cia_runtime` crate docs) makes the
    /// parallel slot deliver exactly what one-at-a-time delivery would, and
    /// every accumulator element receives the same additions in the same
    /// client order as a serial fold, so every thread count and every
    /// [`DeliveryPolicy`] produces the same bytes.
    ///
    /// Sharded stores run `step_sharded`, the lazy shared-workspace round
    /// (see [`FedAvg::sharded`]), which is bit-identical to this dense round.
    pub fn step_evented(
        &mut self,
        observer: &mut dyn RoundObserver,
        policy: DeliveryPolicy,
    ) -> RoundStats {
        if self.store.is_sharded() {
            return self.step_sharded(observer);
        }
        let t = self.round;
        let obs = self.obs.clone();
        let bytes0 = obs.counter(Counter::BytesMaterialized);
        let base = t * SLOTS_PER_ROUND;
        let mut stats_out = None;
        let mut publish = false;
        {
            let FedAvg { store, global_agg, cfg, transform, slots, acc, .. } = &mut *self;
            let clients = store.as_dense_mut().expect("dense step");
            let cfg = *cfg;
            let weights: Vec<f32> = clients
                .iter()
                .map(|c| match cfg.weighting {
                    Weighting::Uniform => 1.0,
                    Weighting::ByExamples => c.num_examples().max(1) as f32,
                })
                .collect();
            let transform = transform.as_deref();
            let mut sched = Scheduler::new(policy);
            sched.set_recorder(obs.clone());
            let mut server = ServerRound {
                observer,
                global: global_agg,
                acc,
                slots,
                weights,
                cfg,
                obs: obs.clone(),
                dp: transform.is_some(),
                materialize: false,
                cohort: Vec::new(),
                total: 0.0,
                global_arc: Arc::new(Vec::new()),
                bytes0,
                stats: &mut stats_out,
                publish: &mut publish,
            };
            let mut seats: Vec<ClientSeat<'_, P>> = clients
                .iter_mut()
                .enumerate()
                .map(|(index, client)| ClientSeat {
                    index,
                    client,
                    transform,
                    cfg,
                    obs: obs.clone(),
                })
                .collect();
            sched.timer_at(base, HUB, Msg::RoundStart { round: t });
            sched.timer_at(base + 3, HUB, Msg::RoundEnd { round: t });
            sched.run_until(base, &mut server, &mut seats);
            // Training (slot 1) and the fold — one "train" span covers
            // both, as it covered the fused per-client round.
            let train_span = obs.span("train");
            sched.run_until(base + 1, &mut server, &mut seats);
            server.fold(&seats);
            drop(train_span);
            sched.run_until(base + 3, &mut server, &mut seats);
            debug_assert_eq!(sched.pending_len(), 0, "FL rounds drain their queue");
        }
        self.round += 1;
        let stats = stats_out.expect("RoundEnd produced stats");
        if publish {
            if let Some(mut hook) = self.publish_hook.take() {
                hook(t, self.clients(), &self.global_agg);
                self.publish_hook = Some(hook);
            }
        }
        stats
    }

    /// Runs all configured rounds.
    pub fn run(&mut self, observer: &mut dyn RoundObserver) {
        for _ in 0..self.cfg.rounds {
            self.step(observer);
        }
    }
}

/// The server's per-round working state (borrows the simulation's persistent
/// buffers so every round reuses the same allocations); the scheduler's hub.
struct ServerRound<'a> {
    observer: &'a mut dyn RoundObserver,
    global: &'a mut Vec<f32>,
    acc: &'a mut Vec<f32>,
    slots: &'a mut Vec<RoundSlot>,
    /// Raw aggregation weight per client (pre-normalization).
    weights: Vec<f32>,
    cfg: FedAvgConfig,
    obs: Recorder,
    dp: bool,
    materialize: bool,
    /// Sampled client indices in ascending (fold) order.
    cohort: Vec<usize>,
    total: f32,
    global_arc: Arc<Vec<f32>>,
    bytes0: u64,
    stats: &'a mut Option<RoundStats>,
    publish: &'a mut bool,
}

/// A client seat: the participant plus everything its handler needs.
struct ClientSeat<'a, P: Participant> {
    index: usize,
    client: &'a mut P,
    transform: Option<&'a dyn UpdateTransform>,
    cfg: FedAvgConfig,
    obs: Recorder,
}

/// Client `i`'s node address (the server is the hub).
fn client_node(i: usize) -> NodeId {
    NodeId::try_from(i + 1).expect("client index fits a node id")
}

impl ServerRound<'_> {
    fn round_start(&mut self, t: u64, ctx: &mut Ctx<'_>) {
        let n = self.slots.len();
        let sample_span = self.obs.span("sample");
        let mut sampled = sample_participants(n, &self.cfg, t);
        self.observer.on_round_start(t);
        self.observer.on_liveness(LivenessEvent::ActingSet { round: t, mask: &mut sampled });
        self.observer.on_global(t, self.global);
        drop(sample_span);

        // Snapshots are materialized only when something consumes them: the
        // observer, or the DP transform (which aggregates transformed
        // parameters instead of the clients' own).
        self.materialize = self.dp || self.observer.observes_models();
        for (slot, &s) in self.slots.iter_mut().zip(&sampled) {
            slot.sampled = s;
            slot.loss = 0.0;
        }
        self.total = self.weights.iter().zip(&sampled).filter(|&(_, &s)| s).map(|(&w, _)| w).sum();
        self.acc.resize(self.global.len(), 0.0);
        self.acc.fill(0.0);
        self.cohort = sampled.iter().enumerate().filter(|&(_, &s)| s).map(|(i, _)| i).collect();
        if self.cohort.is_empty() {
            return; // The already-scheduled RoundEnd closes the round.
        }
        self.global_arc = Arc::new(self.global.clone());
        for &i in &self.cohort {
            let snap = self.materialize.then(|| {
                let mut model = std::mem::replace(&mut self.slots[i].model, empty_snap_slot());
                // A fresh slot gets its buffer here, on the driving thread:
                // allocated on a training worker, it would land in whichever
                // allocator arena that worker picked up, and peak memory
                // would vary from run to run.
                model.agg.reserve(self.global.len().saturating_sub(model.agg.len()));
                model
            });
            ctx.send_at(
                t * SLOTS_PER_ROUND + 1,
                client_node(i),
                Msg::TrainRequest {
                    round: t,
                    epochs: self.cfg.local_epochs,
                    global: Arc::clone(&self.global_arc),
                    snap,
                },
            );
        }
    }

    fn on_update(&mut self, client: u32, loss: f32, snap: Option<SharedModel>) {
        let slot = &mut self.slots[client as usize];
        slot.loss = loss;
        if let Some(snap) = snap {
            slot.model = snap;
        }
    }

    /// Folds every sampled client's weighted update into the accumulator
    /// (see [`fold_updates`]) once training has drained. DP rounds skip it:
    /// they aggregate the transformed snapshots instead.
    fn fold<P: Participant>(&mut self, seats: &[ClientSeat<'_, P>]) {
        if self.dp || self.cohort.is_empty() {
            return;
        }
        let _fold = self.obs.span("fold");
        // Weights are at least 1, so a non-empty cohort has `total > 0`.
        let cohort: Vec<(&P, f32)> = self
            .cohort
            .iter()
            .map(|&i| (&*seats[i].client, self.weights[i] / self.total))
            .collect();
        fold_updates(self.acc, self.global, &cohort);
    }

    fn round_end(&mut self, t: u64, ctx: &mut Ctx<'_>) {
        // Observe in deterministic (user-id) order. Dense clients are
        // permanently resident, so the round's materialization cost is the
        // snapshot buffers refilled for the observer / DP transform.
        let attack_span = self.obs.span("attack");
        let mut loss_sum = 0.0f32;
        let mut participants = 0usize;
        let mut models: Vec<&SharedModel> = Vec::new();
        for slot in self.slots.iter().filter(|slot| slot.sampled) {
            if self.materialize {
                self.obs.add(Counter::BytesMaterialized, 4 * slot.model.len() as u64);
                models.push(&slot.model);
            }
            loss_sum += slot.loss;
            participants += 1;
        }
        if !models.is_empty() {
            self.observer.on_client_models(&models);
        }
        drop(attack_span);
        self.obs.add(Counter::ClientsTrained, participants as u64);
        // Aggregate. An all-offline round (dynamics can empty the mask)
        // keeps the previous global — nothing arrived to aggregate.
        let aggregate_span = self.obs.span("aggregate");
        if participants > 0 {
            if !self.dp {
                // The fold added every client's `w̃ᵢ · (aggᵢ − global)` into
                // `acc`, in client index order (Σ w̃ᵢ = 1, so
                // `global + Σ w̃ᵢ·(aggᵢ − global) = Σ w̃ᵢ·aggᵢ`).
                for (g, a) in self.global.iter_mut().zip(self.acc.iter()) {
                    *g += a;
                }
            } else {
                // Transformed parameters live only in the snapshots: dense
                // weighted mean over the materialized models.
                let mut rows: Vec<&[f32]> = Vec::with_capacity(participants);
                let mut weights: Vec<f32> = Vec::with_capacity(participants);
                for (slot, &w) in self.slots.iter().zip(&self.weights) {
                    if slot.sampled {
                        rows.push(&slot.model.agg);
                        weights.push(w);
                    }
                }
                let mut new_global = vec![0.0f32; self.global.len()];
                weighted_mean(&mut new_global, &rows, &weights);
                *self.global = new_global;
            }
        }
        drop(aggregate_span);
        let stats = RoundStats {
            round: t,
            participants,
            mean_loss: (participants > 0).then(|| loss_sum / participants as f32),
            bytes_materialized: self.obs.counter(Counter::BytesMaterialized) - self.bytes0,
        };
        let evaluate_span = self.obs.span("evaluate");
        self.observer.on_round_end(&stats);
        drop(evaluate_span);
        *self.stats = Some(stats);
        ctx.send(HUB, Msg::GlobalBroadcast { round: t });
    }
}

impl<P: Participant> ClientSeat<'_, P> {
    /// One client's training: absorb the global, train on the client's own
    /// RNG stream, then fill the snapshot carcass and — under DP — apply
    /// the transform to it (the transform needs the pre-round embedding).
    fn train(
        &mut self,
        round: u64,
        global: &[f32],
        mut snap: Option<SharedModel>,
        ctx: &mut Ctx<'_>,
    ) {
        let cfg = self.cfg;
        let i = self.index;
        let t0 = self.obs.clock();
        let mut crng = client_rng(&cfg, round, i);
        self.client.absorb_agg(global);
        let emb_before: Option<Vec<f32>> =
            self.transform.and_then(|_| self.client.owner_emb().map(<[f32]>::to_vec));
        let mut loss = 0.0;
        for _ in 0..cfg.local_epochs.max(1) {
            loss = self.client.train_local(&mut crng);
        }
        debug_assert!(self.transform.is_none() || snap.is_some(), "DP rounds always materialize");
        if let Some(snap) = &mut snap {
            self.client.snapshot_into(round, snap);
            if let Some(tr) = self.transform {
                apply_update_transform(tr, snap, global, emb_before.as_deref(), &mut crng);
            }
        }
        self.obs.observe_since(Metric::TrainMicros, t0);
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        ctx.send(HUB, Msg::ModelUpdate { round, client: i as u32, loss, snap });
    }
}

impl Node for ServerRound<'_> {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::ModelUpdate { client, loss, snap, .. } => self.on_update(client, loss, snap),
            Msg::GlobalBroadcast { .. } => *self.publish = true,
            Msg::RoundStart { round } => self.round_start(round, ctx),
            Msg::RoundEnd { round } => self.round_end(round, ctx),
            other => unreachable!("{} is not addressed to the FL server", other.label()),
        }
    }
}

impl<P: Participant> Node for ClientSeat<'_, P> {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::TrainRequest { round, global, snap, .. } => self.train(round, &global, snap, ctx),
            other => unreachable!("{} is not addressed to an FL client", other.label()),
        }
    }
}

/// An empty reusable snapshot slot (overwritten by `snapshot_into` before
/// every observer call).
fn empty_snap_slot() -> SharedModel {
    SharedModel { owner: UserId::new(0), round: 0, owner_emb: None, agg: Vec::new() }
}

/// The round's tentative participant mask: everyone under full
/// participation, else `round(n · participation)` clients (at least one)
/// drawn from the round's own RNG stream.
fn sample_participants(n: usize, cfg: &FedAvgConfig, t: u64) -> Vec<bool> {
    if cfg.participation >= 1.0 {
        return vec![true; n];
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let k = ((n as f64 * cfg.participation).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    let mut mask = vec![false; n];
    for &i in idx.iter().take(k) {
        mask[i] = true;
    }
    mask
}

/// Folds `Σ wᵢ · (aggᵢ − reference)` over `cohort` (clients with their
/// normalized weights, in ascending index order) into `acc`: the FedAvg
/// server's aggregation step. `acc` is split into one disjoint window per
/// `CIA_THREADS` worker, a multiple of 16 floats long (so windows start on
/// a row boundary for the usual embedding widths 8 and 16), and each worker
/// walks the whole cohort in order through
/// [`Participant::accumulate_update_rows`] for its window alone. Every
/// element therefore receives the same additions, in the same client order,
/// as one [`Participant::accumulate_update`] per client would make: the
/// result is bit-identical at any thread count.
///
/// # Panics
///
/// Panics if a client's parameter layout differs from `reference` or `acc`.
pub fn fold_updates<P: Participant>(acc: &mut [f32], reference: &[f32], cohort: &[(&P, f32)]) {
    assert_eq!(acc.len(), reference.len(), "accumulator/reference length mismatch");
    const LINE: usize = 16;
    let threads = cia_data::parallel::num_threads();
    let window = acc.len().div_ceil(threads).next_multiple_of(LINE).max(LINE);
    cia_data::parallel::par_chunks_mut(acc, window, |w, out| {
        for &(client, weight) in cohort {
            client.accumulate_update_rows(reference, weight, w * window, out);
        }
    });
}

/// Client `i`'s training (and DP noise) RNG stream for round `t`.
fn client_rng(cfg: &FedAvgConfig, t: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ (t << 20) ^ (i as u64).wrapping_mul(0x5851_F42D))
}

/// Applies a DP-style transform to the *update* encoded by `snap` relative to
/// the round-start reference, then rewrites `snap` as `reference + update`.
fn apply_update_transform(
    transform: &dyn UpdateTransform,
    snap: &mut SharedModel,
    global_before: &[f32],
    emb_before: Option<&[f32]>,
    rng: &mut StdRng,
) {
    // Concatenate [emb_update | agg_update] so the clipping bound covers the
    // whole shared vector, as user-level LDP requires.
    let emb_len = snap.owner_emb.as_ref().map_or(0, Vec::len);
    let mut update = vec![0.0f32; emb_len + snap.agg.len()];
    if let (Some(emb), Some(before)) = (&snap.owner_emb, emb_before) {
        for k in 0..emb_len {
            update[k] = emb[k] - before[k];
        }
    }
    for (k, u) in update[emb_len..].iter_mut().enumerate() {
        *u = snap.agg[k] - global_before[k];
    }

    transform.transform(&mut update, rng);

    if let (Some(emb), Some(before)) = (&mut snap.owner_emb, emb_before) {
        for k in 0..emb_len {
            emb[k] = before[k] + update[k];
        }
    }
    for (k, a) in snap.agg.iter_mut().enumerate() {
        *a = global_before[k] + update[emb_len + k];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_data::{LeaveOneOut, SyntheticConfig, UserId};
    use cia_models::{GmfHyper, GmfSpec, SharingPolicy};

    fn make_sim(users: usize, rounds: u64, policy: SharingPolicy) -> FedAvg<cia_models::GmfClient> {
        let data = SyntheticConfig::builder()
            .users(users)
            .items(80)
            .communities(4)
            .interactions_per_user(10)
            .seed(3)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 10, 1).unwrap();
        let spec = GmfSpec::new(80, 8, GmfHyper::default());
        let clients: Vec<_> = split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                spec.build_client(UserId::new(u as u32), items.clone(), policy, u as u64)
            })
            .collect();
        FedAvg::new(clients, FedAvgConfig { rounds, seed: 9, ..Default::default() })
    }

    #[derive(Default)]
    struct Recorder {
        started: Vec<u64>,
        models: Vec<(u64, u32, bool)>,
        stats: Vec<RoundStats>,
    }

    impl RoundObserver for Recorder {
        fn on_round_start(&mut self, round: u64) {
            self.started.push(round);
        }
        fn on_client_model(&mut self, model: &SharedModel) {
            self.models.push((model.round, model.owner.raw(), model.owner_emb.is_some()));
        }
        fn on_round_end(&mut self, stats: &RoundStats) {
            self.stats.push(stats.clone());
        }
    }

    #[test]
    fn observer_sees_every_model_every_round() {
        let mut sim = make_sim(10, 3, SharingPolicy::Full);
        let mut rec = Recorder::default();
        sim.run(&mut rec);
        assert_eq!(rec.started, vec![0, 1, 2]);
        assert_eq!(rec.models.len(), 30);
        assert!(rec.models.iter().all(|&(_, _, has_emb)| has_emb));
        // User-id order within each round.
        for r in 0..3 {
            let round_models: Vec<u32> =
                rec.models.iter().filter(|&&(t, _, _)| t == r).map(|&(_, u, _)| u).collect();
            assert_eq!(round_models, (0..10).collect::<Vec<u32>>());
        }
        assert_eq!(sim.round(), 3);
    }

    #[test]
    fn share_less_hides_embeddings_from_server() {
        let mut sim = make_sim(6, 2, SharingPolicy::ShareLess { tau: 0.5 });
        let mut rec = Recorder::default();
        sim.run(&mut rec);
        assert!(rec.models.iter().all(|&(_, _, has_emb)| !has_emb));
    }

    #[test]
    fn training_loss_decreases_over_rounds() {
        let mut sim = make_sim(12, 15, SharingPolicy::Full);
        let mut rec = Recorder::default();
        sim.run(&mut rec);
        let first = rec.stats.first().unwrap().mean_loss.expect("clients participated");
        let last = rec.stats.last().unwrap().mean_loss.expect("clients participated");
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn partial_participation_samples_subset() {
        let data = SyntheticConfig::builder()
            .users(20)
            .items(80)
            .communities(4)
            .interactions_per_user(8)
            .seed(5)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 10, 1).unwrap();
        let spec = GmfSpec::new(80, 8, GmfHyper::default());
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
        let mut sim = FedAvg::new(
            clients,
            FedAvgConfig { rounds: 4, participation: 0.5, seed: 2, ..Default::default() },
        );
        let mut rec = Recorder::default();
        sim.run(&mut rec);
        for s in &rec.stats {
            assert_eq!(s.participants, 10);
        }
        // Different rounds sample different subsets (overwhelmingly likely).
        let r0: Vec<u32> = rec.models.iter().filter(|m| m.0 == 0).map(|m| m.1).collect();
        let r1: Vec<u32> = rec.models.iter().filter(|m| m.0 == 1).map(|m| m.1).collect();
        assert_ne!(r0, r1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = make_sim(8, 3, SharingPolicy::Full);
            let mut rec = Recorder::default();
            sim.run(&mut rec);
            (sim.global_agg().to_vec(), rec.stats.last().unwrap().mean_loss)
        };
        let (g1, l1) = run();
        let (g2, l2) = run();
        assert_eq!(g1, g2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn dp_transform_perturbs_observed_models() {
        use cia_defenses::{DpConfig, DpMechanism};
        // Two runs from identical state: with strong noise the observed agg
        // differs from the noiseless run; global stays finite.
        let mut clean = make_sim(6, 1, SharingPolicy::Full);
        let mut noisy = make_sim(6, 1, SharingPolicy::Full);
        noisy.set_update_transform(Box::new(DpMechanism::new(DpConfig {
            clip: 1.0,
            noise_multiplier: 1.0,
        })));
        let mut rec_clean = Recorder::default();
        let mut rec_noisy = Recorder::default();
        clean.run(&mut rec_clean);
        noisy.run(&mut rec_noisy);
        assert_ne!(clean.global_agg(), noisy.global_agg());
        assert!(noisy.global_agg().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sync_clients_loads_global() {
        let mut sim = make_sim(5, 2, SharingPolicy::Full);
        sim.run(&mut NullObserver);
        sim.sync_clients_to_global();
        let g = sim.global_agg().to_vec();
        for c in sim.clients() {
            assert_eq!(c.agg(), g.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "need at least one client")]
    fn rejects_empty_clients() {
        let _: FedAvg<cia_models::GmfClient> = FedAvg::new(vec![], FedAvgConfig::default());
    }

    /// Masks odd users via the availability hook and records what arrives.
    #[derive(Default)]
    struct OddMasker {
        models: Vec<u32>,
    }

    impl RoundObserver for OddMasker {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let LivenessEvent::ActingSet { mask, .. } = event {
                for (u, m) in mask.iter_mut().enumerate() {
                    if u % 2 == 1 {
                        *m = false;
                    }
                }
            }
        }
        fn on_client_model(&mut self, model: &SharedModel) {
            self.models.push(model.owner.raw());
        }
    }

    #[test]
    fn participants_hook_filters_the_round() {
        let mut sim = make_sim(10, 2, SharingPolicy::Full);
        let mut masker = OddMasker::default();
        sim.run(&mut masker);
        assert_eq!(masker.models.len(), 10, "5 even users over 2 rounds");
        assert!(masker.models.iter().all(|u| u % 2 == 0));
    }

    struct Blackout;

    impl RoundObserver for Blackout {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let LivenessEvent::ActingSet { mask, .. } = event {
                mask.fill(false);
            }
        }
    }

    #[test]
    fn all_offline_round_keeps_global_and_reports_no_loss() {
        let mut sim = make_sim(6, 1, SharingPolicy::Full);
        let before = sim.global_agg().to_vec();
        let stats = sim.step(&mut Blackout);
        assert_eq!(stats.participants, 0);
        assert_eq!(stats.mean_loss, None);
        assert_eq!(sim.global_agg(), before.as_slice());
        assert_eq!(sim.round(), 1);
    }

    /// One observed snapshot: (round, owner, owner_emb, agg).
    type TapedModel = (u64, u32, Option<Vec<f32>>, Vec<f32>);

    /// Records the full model stream (owner, round, byte-exact agg) so dense
    /// and lazy runs can be compared snapshot for snapshot.
    #[derive(Default)]
    struct ModelTape {
        models: Vec<TapedModel>,
        stats: Vec<RoundStats>,
    }

    impl RoundObserver for ModelTape {
        fn on_client_model(&mut self, m: &SharedModel) {
            self.models.push((m.round, m.owner.raw(), m.owner_emb.clone(), m.agg.clone()));
        }
        fn on_round_end(&mut self, stats: &RoundStats) {
            self.stats.push(stats.clone());
        }
    }

    fn dense_vs_lazy(
        users: usize,
        items: u32,
        policy: SharingPolicy,
        cfg: FedAvgConfig,
        data: cia_data::Dataset,
    ) {
        let split = LeaveOneOut::new(&data, 20, 1).unwrap();
        let spec = GmfSpec::new(items, 8, GmfHyper::default());
        let train = split.train_sets().to_vec();

        let clients: Vec<_> = train
            .iter()
            .enumerate()
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            .map(|(u, it)| spec.build_client(UserId::new(u as u32), it.clone(), policy, u as u64))
            .collect();
        let mut dense = FedAvg::new(clients, cfg);
        let mut dense_tape = ModelTape::default();
        dense.run(&mut dense_tape);

        let initial = spec.build_client(UserId::new(0), train[0].clone(), policy, 0).agg().to_vec();
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        let examples: Vec<u32> = train.iter().map(|s| s.len() as u32).collect();
        let factory_spec = spec.clone();
        let store = cia_models::ClientStore::sharded(
            64,
            examples,
            Box::new(move |i| {
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                factory_spec.build_shell(UserId::new(i as u32), train[i].clone(), policy, i as u64)
            }),
        );
        let mut lazy = FedAvg::sharded(store, initial, cfg);
        let mut lazy_tape = ModelTape::default();
        lazy.run(&mut lazy_tape);

        // Byte-identical: the lazy shared-workspace round replays the dense
        // round exactly — global model, observed snapshots, and losses.
        assert_eq!(dense.global_agg(), lazy.global_agg());
        assert_eq!(dense_tape.models, lazy_tape.models);
        for (d, l) in dense_tape.stats.iter().zip(&lazy_tape.stats) {
            assert_eq!(
                (d.round, d.participants, d.mean_loss),
                (l.round, l.participants, l.mean_loss)
            );
        }
        assert!(lazy_tape.stats.iter().all(|s| s.bytes_materialized > 0));
        // Only the sampled shards' descriptor blocks ever materialized.
        assert!(lazy.store().resident_shards() <= users.div_ceil(64));
    }

    #[test]
    fn sharded_lazy_round_matches_dense_at_paper_scale() {
        use cia_data::presets::{Preset, Scale};
        let data = Preset::MovieLens.generate(Scale::Paper, 11);
        let users = data.num_users();
        let items = data.num_items();
        let cfg = FedAvgConfig {
            rounds: 3,
            participation: 0.01,
            local_epochs: 2,
            seed: 7,
            ..Default::default()
        };
        dense_vs_lazy(users, items, SharingPolicy::Full, cfg, data);
    }

    #[test]
    fn sharded_lazy_round_matches_dense_under_share_less() {
        let data = SyntheticConfig::builder()
            .users(30)
            .items(80)
            .communities(4)
            .interactions_per_user(10)
            .seed(4)
            .build()
            .generate();
        let cfg = FedAvgConfig {
            rounds: 4,
            participation: 0.3,
            local_epochs: 2,
            seed: 13,
            weighting: Weighting::Uniform,
        };
        dense_vs_lazy(30, 80, SharingPolicy::ShareLess { tau: 0.4 }, cfg, data);
    }

    #[test]
    #[should_panic(expected = "dense client store")]
    fn sharded_store_rejects_update_transform() {
        use cia_defenses::{DpConfig, DpMechanism};
        let spec = GmfSpec::new(40, 8, GmfHyper::default());
        let store = cia_models::ClientStore::sharded(
            8,
            vec![2u32; 16],
            Box::new(move |i| {
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                spec.build_shell(UserId::new(i as u32), vec![1, 2], SharingPolicy::Full, i as u64)
            }),
        );
        let initial = vec![0.0f32; 40 * 8 + 8];
        let mut sim = FedAvg::sharded(store, initial, FedAvgConfig::default());
        sim.set_update_transform(Box::new(DpMechanism::new(DpConfig {
            clip: 1.0,
            noise_multiplier: 1.0,
        })));
    }

    #[test]
    fn sharded_bytes_materialized_matches_pre_registry_baseline() {
        // Equivalence pin: the per-round `bytes_materialized` stats were
        // captured *before* the store's ad-hoc byte meter moved onto the
        // `cia_obs` counter registry. The registry-backed path must
        // reproduce them bit-identically (stats are within-step counter
        // deltas, so the refactor is observable only if it miscounts).
        let data = SyntheticConfig::builder()
            .users(30)
            .items(80)
            .communities(4)
            .interactions_per_user(10)
            .seed(4)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 20, 1).unwrap();
        let spec = GmfSpec::new(80, 8, GmfHyper::default());
        let train = split.train_sets().to_vec();
        let policy = SharingPolicy::Full;
        let initial = spec.build_client(UserId::new(0), train[0].clone(), policy, 0).agg().to_vec();
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        let examples: Vec<u32> = train.iter().map(|s| s.len() as u32).collect();
        let factory_spec = spec.clone();
        let store = cia_models::ClientStore::sharded(
            8,
            examples,
            Box::new(move |i| {
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                factory_spec.build_shell(UserId::new(i as u32), train[i].clone(), policy, i as u64)
            }),
        );
        let cfg = FedAvgConfig {
            rounds: 4,
            participation: 0.3,
            local_epochs: 2,
            seed: 13,
            weighting: Weighting::Uniform,
        };
        let mut lazy = FedAvg::sharded(store, initial, cfg);
        let bytes: Vec<u64> =
            (0..4).map(|_| lazy.step(&mut NullObserver).bytes_materialized).collect();
        assert_eq!(bytes, vec![288, 384, 448, 480]);
    }

    #[test]
    fn recorder_counts_clients_and_spans_phases() {
        /// Opens one `attack_update` span per batch, as the momentum attack
        /// does.
        struct BatchSpans(cia_obs::Recorder);
        impl RoundObserver for BatchSpans {
            fn on_client_models(&mut self, models: &[&SharedModel]) {
                let _update = self.0.span("attack_update");
                assert_eq!(models.len(), 10, "every client, in one batch");
            }
        }
        let mut sim = make_sim(10, 2, SharingPolicy::Full);
        let rec = cia_obs::Recorder::new();
        rec.set_detail(true);
        sim.set_recorder(rec.clone());
        sim.run(&mut NullObserver);
        assert_eq!(rec.counter(Counter::ClientsTrained), 20);
        assert_eq!(rec.counter(Counter::BytesMaterialized), 0, "NullObserver skips snapshots");
        assert_eq!(rec.histogram(Metric::TrainMicros).count(), 20);
        sim.run(&mut BatchSpans(rec.clone()));
        let chunk = rec.drain();
        for phase in ["sample", "train", "fold", "attack", "aggregate", "evaluate"] {
            assert_eq!(
                chunk.spans.iter().filter(|s| s.name == phase).count(),
                4,
                "one {phase} span per round"
            );
        }
        assert_eq!(
            chunk.spans.iter().filter(|s| s.name == "attack_update").count(),
            2,
            "one attack_update span per observed round"
        );
        // The per-message trace: one span per dispatched batch, nested under
        // the round's train phase on the driving thread — the clients of a
        // batch train on workers, which open no spans. The fold is one span
        // of its own, nested under train; no message carries it.
        for msg in ["msg:train_request", "msg:model_update"] {
            assert_eq!(
                chunk.spans.iter().filter(|s| s.name == msg).count(),
                4,
                "one {msg} batch span per round"
            );
        }
        assert!(chunk.spans.iter().all(|s| s.name != "msg:fold"), "no fold messages");
        let depth = |name| chunk.spans.iter().find(|s| s.name == name).expect(name).depth;
        assert_eq!(depth("fold"), depth("train") + 1, "fold nests under train");
        let driving = chunk.spans.iter().find(|s| s.name == "train").expect("train span").tid;
        assert!(
            chunk.spans.iter().all(|s| s.tid == driving),
            "a span was opened off the driving thread"
        );
    }

    #[test]
    fn restore_replays_identically() {
        // Run 4 rounds straight; then run 2, export, rebuild, restore, run 2
        // more — the global models must agree exactly.
        let mut straight = make_sim(8, 4, SharingPolicy::Full);
        straight.run(&mut NullObserver);

        let mut first = make_sim(8, 4, SharingPolicy::Full);
        first.step(&mut NullObserver);
        first.step(&mut NullObserver);
        let round = first.round();
        let global = first.global_agg().to_vec();
        let states: Vec<Vec<f32>> = first.clients().iter().map(Participant::state_vec).collect();

        let mut resumed = make_sim(8, 4, SharingPolicy::Full);
        resumed.restore(round, global);
        for (c, s) in resumed.clients_mut().iter_mut().zip(&states) {
            c.restore_state(s);
        }
        resumed.step(&mut NullObserver);
        resumed.step(&mut NullObserver);
        assert_eq!(resumed.global_agg(), straight.global_agg());
    }

    /// Runs FIFO and seeded-interleaved delivery from identical state,
    /// comparing every observable byte: the observed model stream, round
    /// stats, the final global, and every client's private state.
    fn assert_interleaving_matches_fifo(
        mut make: impl FnMut() -> FedAvg<cia_models::GmfClient>,
        rounds: u64,
        seed: u64,
    ) {
        let mut fifo = make();
        let mut fifo_tape = ModelTape::default();
        for _ in 0..rounds {
            fifo.step_evented(&mut fifo_tape, DeliveryPolicy::Lockstep);
        }

        let mut shuffled = make();
        let mut shuffled_tape = ModelTape::default();
        for _ in 0..rounds {
            shuffled.step_evented(&mut shuffled_tape, DeliveryPolicy::Interleaved { seed });
        }

        assert_eq!(fifo_tape.models, shuffled_tape.models);
        assert_eq!(fifo_tape.stats, shuffled_tape.stats);
        assert_eq!(fifo.global_agg(), shuffled.global_agg());
        for (l, e) in fifo.clients().iter().zip(shuffled.clients()) {
            assert_eq!(l.state_vec(), e.state_vec());
        }
    }

    #[test]
    fn interleaving_seeds_cannot_change_fl_bytes() {
        // Updates land in per-client slots and the server folds them in
        // client order, so any interleaving seed replays the FIFO bytes —
        // under partial participation, weighting by examples and DP alike.
        let partial = || {
            let mut sim = make_sim(9, 2, SharingPolicy::Full);
            sim.cfg.participation = 0.6;
            sim
        };
        let by_examples = || {
            let mut sim = make_sim(12, 4, SharingPolicy::Full);
            sim.cfg.participation = 0.5;
            sim.cfg.weighting = Weighting::ByExamples;
            sim
        };
        let dp = || {
            use cia_defenses::{DpConfig, DpMechanism};
            let mut sim = make_sim(8, 3, SharingPolicy::Full);
            sim.set_update_transform(Box::new(DpMechanism::new(DpConfig {
                clip: 1.0,
                noise_multiplier: 0.5,
            })));
            sim
        };
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            assert_interleaving_matches_fifo(partial, 2, seed);
            assert_interleaving_matches_fifo(by_examples, 4, seed);
            assert_interleaving_matches_fifo(dp, 3, seed);
        }
    }

    #[test]
    fn evented_round_fires_publish_hook_after_broadcast() {
        use std::cell::RefCell;
        use std::rc::Rc;
        type Published = Rc<RefCell<Vec<(u64, Vec<f32>)>>>;
        let published: Published = Rc::default();
        let sink = Rc::clone(&published);
        let mut sim = make_sim(5, 2, SharingPolicy::Full);
        sim.set_publish_hook(Box::new(move |t, clients, global| {
            assert_eq!(clients.len(), 5);
            sink.borrow_mut().push((t, global.to_vec()));
        }));
        sim.step_evented(&mut NullObserver, DeliveryPolicy::Lockstep);
        let after_first = sim.global_agg().to_vec();
        sim.step_evented(&mut NullObserver, DeliveryPolicy::Lockstep);
        let events = published.borrow();
        assert_eq!(events.len(), 2, "one broadcast per round");
        assert_eq!(events[0].0, 0);
        assert_eq!(events[0].1, after_first, "hook sees the post-aggregation global");
        assert_eq!(events[1].0, 1);
        assert_eq!(events[1].1, sim.global_agg());
    }
}
