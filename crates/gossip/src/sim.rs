//! The round-synchronous gossip learning engine.

use crate::graph::{sample_exp_interval, ViewTable};
use cia_data::UserId;
use cia_models::{ClientStore, Participant, SharedModel, UpdateTransform};
use cia_obs::{Counter, Metric, Recorder};
use cia_runtime::{
    Checkpointable, Ctx, DeliveryPolicy, LivenessEvent, Msg, Node, SavedEvent, Scheduler, HUB,
    SLOTS_PER_ROUND,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which gossip protocol to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GossipProtocol {
    /// Rand-Gossip [12]: uniform random peer sampling.
    Rand,
    /// Pers-Gossip [5]: performance-aware peer retention with uniform
    /// exploration.
    Pers {
        /// Fraction of the view refilled uniformly at random on refresh
        /// (the paper uses 0.4).
        exploration: f64,
    },
}

/// Gossip simulation configuration (paper defaults: `P = 3`, view refresh
/// `~ Exp(0.1)`, exploration 0.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GossipConfig {
    /// Number of rounds.
    pub rounds: u64,
    /// Out-degree `P` of the communication graph.
    pub out_degree: usize,
    /// Rate of the exponential view-refresh interval distribution.
    pub view_refresh_rate: f64,
    /// The protocol variant.
    pub protocol: GossipProtocol,
    /// Probability that a node wakes (sends + aggregates + trains) in a
    /// round.
    pub wake_fraction: f64,
    /// Local training epochs per wake.
    pub local_epochs: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            rounds: 50,
            out_degree: 3,
            view_refresh_rate: 0.1,
            protocol: GossipProtocol::Rand,
            wake_fraction: 1.0,
            local_epochs: 1,
            seed: 0,
        }
    }
}

/// Per-round statistics handed to observers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GossipRoundStats {
    /// The completed round index.
    pub round: u64,
    /// Number of nodes that woke up.
    pub awake: usize,
    /// Number of model deliveries routed this round.
    pub deliveries: usize,
    /// Mean local training loss across awake nodes; `None` when every node
    /// slept (an all-offline round has no losses to average — a `0.0`
    /// sentinel would be indistinguishable from perfect convergence and
    /// silently deflate downstream loss averages).
    pub mean_loss: Option<f32>,
    /// Bytes of model state materialized for this round: the outgoing
    /// snapshot copies routed into inboxes (node state itself is permanently
    /// resident in gossip — every round mixes neighbors in place).
    pub bytes_materialized: u64,
}

/// Observes gossip model deliveries — the vantage point of a gossip
/// adversary, who sees the models delivered to nodes she controls.
pub trait GossipObserver {
    /// Called when a round begins.
    fn on_round_start(&mut self, round: u64) {
        let _ = round;
    }

    /// The protocol-agnostic liveness hook (shared with
    /// `cia_federated::RoundObserver`):
    ///
    /// * [`LivenessEvent::ActingSet`] arrives after the protocol's own wake
    ///   sampling with the round's tentative wake mask. Observers may clear
    ///   entries to model availability — churn, stragglers, node failures —
    ///   without the gossip loop knowing about participant dynamics (the
    ///   `cia-scenarios` dynamics layer plugs in here). Asleep nodes keep
    ///   accumulating their inbox, exactly like a natural sleep round.
    /// * [`LivenessEvent::Probe`] is the availability query consulted before
    ///   a node acts on its scheduled view refresh: an offline device cannot
    ///   re-sample peers, so clearing `available` defers the refresh (and,
    ///   under Pers-Gossip, preserves the `heard` personalization evidence
    ///   the refresh would consume) until the node's next available round.
    ///
    /// The default leaves both events untouched (everyone acts, everyone
    /// available), which reproduces the pre-dynamics behavior exactly.
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        let _ = event;
    }

    /// Called for every routed model delivery.
    fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
        let _ = (round, receiver, model);
    }

    /// Called when a round completes.
    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        let _ = stats;
    }
}

/// A no-op observer for runs without an adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullGossipObserver;

impl GossipObserver for NullGossipObserver {}

/// Serializable snapshot of a [`GossipSim`]'s protocol-side state
/// (checkpoint/resume of long runs; node parameters travel separately).
#[derive(Debug, Clone)]
pub struct GossipSimState {
    /// Rounds completed.
    pub round: u64,
    /// Next scheduled view-refresh round per node.
    pub refresh_at: Vec<u64>,
    /// Current out-views.
    pub views: Vec<Vec<u32>>,
    /// Undelivered inbox contents per node (asleep nodes accumulate).
    pub inboxes: Vec<Vec<SharedModel>>,
    /// Pers-Gossip `(sender, score)` candidates heard since the last refresh.
    pub heard: Vec<Vec<(u32, f32)>>,
    /// DP reference vectors (last sent `[emb | agg]` per node).
    pub prev_sent: Vec<Option<Vec<f32>>>,
    /// Accumulated per-node traffic counters.
    pub traffic: TrafficCounters,
    /// Undelivered scheduler events carried across the round boundary
    /// (view-refresh timers, chiefly). An empty queue re-derives the refresh
    /// timers from `refresh_at` on the next round (see
    /// [`GossipSim::step_evented`]).
    pub pending: Vec<SavedEvent>,
}

/// Passive per-node traffic counters the simulation accumulates every round.
/// They never influence the protocol — they exist so observers with a
/// network vantage point (e.g. the adaptive sybil-placement engine in
/// `cia-scenarios`) can rank positions by observed traffic instead of
/// guessing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Models delivered to each node since round 0.
    pub received: Vec<u64>,
    /// Accumulated in-degree of the communication graph: each round, every
    /// out-view containing the node adds one (view-membership frequency).
    pub view_in_degree: Vec<u64>,
}

impl TrafficCounters {
    fn zeroed(n: usize) -> Self {
        TrafficCounters { received: vec![0; n], view_in_degree: vec![0; n] }
    }
}

/// Per-node bookkeeping owned by the node itself (a peer's seat borrows
/// exactly this struct, so nothing here may be touched by the coordinator
/// mid-round).
struct PeerCtl {
    inbox: Vec<SharedModel>,
    /// Reference shared vector for DP updates (last sent `[emb | agg]`).
    prev_sent: Option<Vec<f32>>,
    /// `(sender, score)` entries produced while mixing this round's inbox;
    /// shipped to the simulation-level `heard` table via
    /// [`Msg::TrainReport`].
    heard_scratch: Vec<(u32, f32)>,
    /// Snapshot carcasses: consumed inbox buffers, recycled into the peer's
    /// next outgoing snapshot. Between rounds [`restock_carcasses`] leaves
    /// exactly one here.
    stash: Vec<SharedModel>,
    /// Local copy of the node's out-view (maintained by [`Msg::ViewPush`];
    /// the authoritative table stays with the coordinator's graph).
    view: Vec<u32>,
}

/// The gossip learning simulation.
pub struct GossipSim<P: Participant> {
    /// Node storage. Gossip requires a dense (fully resident) store: every
    /// round each awake node mixes its neighbors' models into its *own*
    /// persistent parameters, so there is no global aggregate to rebuild a
    /// lazy client from — unlike FedAvg, where untouched clients are exactly
    /// reconstructible from seed + global (see `cia_federated::FedAvg::sharded`).
    store: ClientStore<P>,
    ctl: Vec<PeerCtl>,
    /// Pers-Gossip `(sender, score)` candidates heard since each node's last
    /// view refresh. Lives on the simulation (the refresh phase consumes it
    /// while peers own their [`PeerCtl`]s), filled from each peer's
    /// [`Msg::TrainReport`] at the round end.
    heard: Vec<Vec<(u32, f32)>>,
    views: ViewTable,
    refresh_at: Vec<u64>,
    cfg: GossipConfig,
    transform: Option<Box<dyn UpdateTransform>>,
    traffic: TrafficCounters,
    round: u64,
    /// Undelivered scheduler events carried between rounds (see
    /// [`GossipSimState::pending`]).
    pending: Vec<SavedEvent>,
    /// Surplus snapshot carcasses collected from the peers' stashes between
    /// rounds (see [`restock_carcasses`]).
    spare: Vec<SharedModel>,
    /// Invoked when a round's scheduled [`Msg::GlobalBroadcast`]
    /// fires: `(round, nodes)`. The scenario runner installs per-user
    /// snapshot publication to `cia-serve` here.
    publish_hook: Option<GossipPublishHook<P>>,
    /// The observability sink: phase spans, wire/delivery counters and the
    /// per-node mix/train latency histograms.
    obs: Recorder,
}

/// Post-round publication callback: `(round, nodes)`.
pub type GossipPublishHook<P> = Box<dyn FnMut(u64, &[P])>;

impl<P: Participant> GossipSim<P> {
    /// Creates a simulation over `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `out_degree + 1` nodes are given, configuration
    /// values are out of range, or nodes disagree on parameter sizes.
    pub fn new(nodes: Vec<P>, cfg: GossipConfig) -> Self {
        assert!(nodes.len() > cfg.out_degree, "need more nodes than the out-degree");
        let len = nodes[0].agg_len();
        assert!(nodes.iter().all(|n| n.agg_len() == len), "nodes must share a parameter layout");
        assert!(
            cfg.wake_fraction > 0.0 && cfg.wake_fraction <= 1.0,
            "wake fraction must be in (0, 1]"
        );
        if let GossipProtocol::Pers { exploration } = cfg.protocol {
            assert!((0.0..=1.0).contains(&exploration), "exploration must be in [0, 1]");
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let views = ViewTable::new(nodes.len(), cfg.out_degree, &mut rng);
        let refresh_at = (0..nodes.len())
            .map(|_| sample_exp_interval(cfg.view_refresh_rate, &mut rng))
            .collect();
        let ctl = (0..nodes.len())
            .map(|_| PeerCtl {
                inbox: Vec::new(),
                prev_sent: None,
                heard_scratch: Vec::new(),
                stash: Vec::new(),
                view: Vec::new(),
            })
            .collect();
        let heard = vec![Vec::new(); nodes.len()];
        let traffic = TrafficCounters::zeroed(nodes.len());
        GossipSim {
            store: ClientStore::dense(nodes),
            ctl,
            heard,
            views,
            refresh_at,
            cfg,
            transform: None,
            traffic,
            round: 0,
            pending: Vec::new(),
            spare: Vec::new(),
            publish_hook: None,
            obs: Recorder::new(),
        }
    }

    /// Installs the post-round publication hook (see the `publish_hook`
    /// field); every round's scheduled [`Msg::GlobalBroadcast`] fires it.
    pub fn set_publish_hook(&mut self, hook: GossipPublishHook<P>) {
        self.publish_hook = Some(hook);
    }

    /// Installs the metrics/trace sink this simulation reports into. The
    /// scenario runner installs one recorder per scenario; standalone
    /// simulations keep their own default recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder;
    }

    /// The metrics/trace sink this simulation reports into.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Installs a local update transform (DP-SGD) applied to every outgoing
    /// model.
    pub fn set_update_transform(&mut self, transform: Box<dyn UpdateTransform>) {
        self.transform = Some(transform);
    }

    /// The configuration.
    pub fn config(&self) -> &GossipConfig {
        &self.cfg
    }

    /// Creates a simulation from a [`ClientStore`].
    ///
    /// # Panics
    ///
    /// Panics if the store is sharded — gossip has no global aggregate to
    /// lazily rebuild clients from (see the `store` field docs) — plus
    /// everything [`GossipSim::new`] panics on.
    pub fn from_store(mut store: ClientStore<P>, cfg: GossipConfig) -> Self {
        let nodes = store.as_dense_mut().map(std::mem::take).expect(
            "gossip requires a dense client store: nodes mix neighbors into resident state",
        );
        Self::new(nodes, cfg)
    }

    /// The nodes (evaluation access).
    pub fn nodes(&self) -> &[P] {
        self.store.as_dense().expect("gossip stores are dense")
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current out-view of node `u` (testing/diagnostics).
    pub fn view_of(&self, u: u32) -> &[u32] {
        self.views.view_of(u)
    }

    /// The accumulated per-node traffic counters (observed-traffic vantage
    /// point for placement decisions; purely passive).
    pub fn traffic(&self) -> &TrafficCounters {
        &self.traffic
    }

    /// Mutable access to the nodes (checkpoint resume restores each
    /// participant's private state in place).
    pub fn nodes_mut(&mut self) -> &mut [P] {
        self.store.as_dense_mut().expect("gossip stores are dense")
    }

    /// Runs one gossip round: refresh views, send, route, aggregate, train —
    /// [`GossipSim::step_evented`] under FIFO delivery.
    pub fn step(&mut self, observer: &mut dyn GossipObserver) -> GossipRoundStats {
        self.step_evented(observer, DeliveryPolicy::Lockstep)
    }

    /// Runs all configured rounds.
    pub fn run(&mut self, observer: &mut dyn GossipObserver) {
        for _ in 0..self.cfg.rounds {
            self.step(observer);
        }
    }

    /// Runs one round on the event-driven runtime: the coordinator (the
    /// scheduler's hub, node 0) owns the graph, the observer and the round
    /// timeline, every gossip node becomes a peer seat (node `i + 1`), and
    /// the round unfolds as typed messages —
    /// [`Msg::RefreshTimer`]/[`Msg::ViewPush`] for view management,
    /// [`Msg::WakeSend`]/[`Msg::ModelPush`] for the push path,
    /// [`Msg::MixTrain`]/[`Msg::TrainReport`] for mixing and training —
    /// under the deterministic virtual-clock scheduler.
    ///
    /// Per-node work runs in parallel over `CIA_THREADS`: the slot-1
    /// `WakeSend` batch (snapshot plus the DP transform, on the node's own
    /// RNG stream) and the slot-3 `MixTrain` batch (`evaluate_model`,
    /// `mix_agg`, `train_local`) each fan out across the awake peers.
    /// Routing, `on_delivery` and the round end stay on the coordinator, in
    /// canonical order. The batch contract (see the `cia_runtime` crate
    /// docs) makes a parallel batch deliver exactly what one-at-a-time
    /// delivery would, so the thread count cannot change a byte.
    ///
    /// Every [`DeliveryPolicy`] produces the same bytes too: every
    /// reorderable mailbox is sorted on a canonical key before any float is
    /// touched (routing by ascending sender, inboxes by `(round, owner)`,
    /// train reports by node), so interleaving seeds cannot change the RNG
    /// streams, the float operations or the observer callback order.
    ///
    /// View-refresh timers are the events that legitimately cross rounds:
    /// leftover queue contents persist on the simulation (and inside
    /// checkpoints via [`GossipSimState::pending`]); an empty queue re-derives
    /// them from `refresh_at`, which produces the identical firing schedule.
    pub fn step_evented(
        &mut self,
        observer: &mut dyn GossipObserver,
        policy: DeliveryPolicy,
    ) -> GossipRoundStats {
        let t = self.round;
        let obs = self.obs.clone();
        let bytes0 = obs.counter(Counter::BytesOnWire);
        let n = self.store.len();
        let base = t * SLOTS_PER_ROUND;
        let mut stats_out = None;
        let mut publish = false;
        {
            let GossipSim {
                store,
                ctl,
                heard,
                views,
                refresh_at,
                cfg,
                transform,
                traffic,
                pending,
                spare,
                ..
            } = &mut *self;
            let nodes = store.as_dense_mut().expect("gossip stores are dense");
            restock_carcasses(nodes, ctl, spare, t);
            let cfg = *cfg;
            let transform = transform.as_deref();
            let mut sched = Scheduler::new(policy);
            sched.set_recorder(obs.clone());
            if pending.is_empty() {
                // Round 0 of a fresh simulation, or a resumed v5 checkpoint
                // with an empty queue section (written by an older build's
                // fused round loops): derive each node's refresh timer from
                // its scheduled round. `max(refresh_at, t)` folds overdue (deferred)
                // refreshes into the current round.
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                for u in 0..n as u32 {
                    let at = refresh_at[u as usize].max(t) * SLOTS_PER_ROUND;
                    sched.timer_at(at, HUB, Msg::RefreshTimer { node: u });
                }
            } else {
                sched.install_pending(std::mem::take(pending));
            }
            sched.timer_at(base, HUB, Msg::RoundStart { round: t });
            sched.timer_at(base + 2, HUB, Msg::RouteFlush { round: t });
            sched.timer_at(base + 4, HUB, Msg::RoundEnd { round: t });

            let mut coord = CoordRound {
                observer,
                views,
                refresh_at,
                heard,
                traffic,
                cfg,
                obs: obs.clone(),
                due: Vec::new(),
                wake: Vec::new(),
                buffer: Vec::new(),
                reports: Vec::new(),
                deliveries: 0,
                bytes0,
                stats: &mut stats_out,
                publish: &mut publish,
            };
            let mut seats: Vec<PeerSeat<'_, P>> = nodes
                .iter_mut()
                .zip(ctl.iter_mut())
                .enumerate()
                .map(|(index, (node, ctl))| PeerSeat {
                    index,
                    node,
                    ctl,
                    transform,
                    cfg,
                    obs: obs.clone(),
                })
                .collect();

            // Slot 0: due refresh timers, then the round opening (refresh +
            // sample phases in its handler).
            sched.run_until(base, &mut coord, &mut seats);
            // Slot 1: view pushes + wake sends (peers snapshot and apply DP).
            let send_span = obs.span("send");
            sched.run_until(base + 1, &mut coord, &mut seats);
            drop(send_span);
            // Slot 2: model pushes buffer at the coordinator; the route-flush
            // timer then routes them in canonical sender order.
            let route_span = obs.span("route");
            sched.run_until(base + 2, &mut coord, &mut seats);
            drop(route_span);
            // Slot 3: routed models land in peer inboxes, then every awake
            // peer's mix+train timer fires.
            let train_span = obs.span("train");
            sched.run_until(base + 3, &mut coord, &mut seats);
            drop(train_span);
            // Slots 4–5: train reports, round closing, broadcast.
            sched.run_until(base + 5, &mut coord, &mut seats);
            *pending = sched.drain_pending();
        }
        self.round += 1;
        let stats = stats_out.expect("RoundEnd produced stats");
        if publish {
            if let Some(mut hook) = self.publish_hook.take() {
                hook(t, self.nodes());
                self.publish_hook = Some(hook);
            }
        }
        stats
    }
}

impl<P: Participant> Checkpointable for GossipSim<P> {
    type State = GossipSimState;

    /// Snapshot of the protocol-side state — round counter, views, refresh
    /// schedule, per-node mailboxes and the pending event queue. Per-round
    /// RNG streams are derived from `(seed, round)`, so no generator state
    /// needs saving; node parameters are captured separately via
    /// [`cia_models::Participant::state_vec`].
    fn export_state(&self) -> GossipSimState {
        GossipSimState {
            round: self.round,
            refresh_at: self.refresh_at.clone(),
            views: self.views.views().to_vec(),
            inboxes: self.ctl.iter().map(|c| c.inbox.clone()).collect(),
            traffic: self.traffic.clone(),
            heard: self.heard.clone(),
            prev_sent: self.ctl.iter().map(|c| c.prev_sent.clone()).collect(),
            pending: self.pending.clone(),
        }
    }

    /// Restores a state captured by `export_state` on a simulation
    /// constructed with the same nodes and configuration.
    ///
    /// # Panics
    ///
    /// Panics if any table is not aligned with the node count or the views
    /// are malformed.
    fn restore_state(&mut self, state: GossipSimState) {
        let n = self.store.len();
        assert_eq!(state.refresh_at.len(), n, "one refresh time per node");
        assert_eq!(state.inboxes.len(), n, "one inbox per node");
        assert_eq!(state.heard.len(), n, "one heard list per node");
        assert_eq!(state.prev_sent.len(), n, "one DP reference per node");
        self.views.restore_views(state.views);
        self.round = state.round;
        self.refresh_at = state.refresh_at;
        self.heard = state.heard;
        for ((c, inbox), prev) in self.ctl.iter_mut().zip(state.inboxes).zip(state.prev_sent) {
            c.inbox = inbox;
            c.prev_sent = prev;
        }
        assert_eq!(state.traffic.received.len(), n, "one received counter per node");
        assert_eq!(state.traffic.view_in_degree.len(), n, "one in-degree counter per node");
        self.traffic = state.traffic;
        self.pending = state.pending;
    }
}

/// Availability probe through the unified liveness hook.
fn probe_available(observer: &mut dyn GossipObserver, round: u64, node: u32) -> bool {
    let mut available = true;
    observer.on_liveness(LivenessEvent::Probe { round, node, available: &mut available });
    available
}

/// Leaves exactly one snapshot carcass in every peer's stash, on the driving
/// thread before a round's scheduler starts: surplus carcasses (a peer that
/// mixed several inbound models holds them all) move to `spare`, then every
/// empty stash takes a spare, or a fresh snapshot when none is left.
///
/// The carcass population thus only grows while the models parked in
/// inboxes outnumber the spares, and the parallel send and mix batches never
/// allocate or free a catalog-sized buffer. Allocating and freeing them
/// there instead put the buffers in whichever allocator arena each worker
/// thread happened to pick up, so peak memory varied from run to run.
fn restock_carcasses<P: Participant>(
    nodes: &[P],
    ctl: &mut [PeerCtl],
    spare: &mut Vec<SharedModel>,
    round: u64,
) {
    for c in ctl.iter_mut() {
        if c.stash.len() > 1 {
            spare.extend(c.stash.drain(1..));
        }
    }
    for (node, c) in nodes.iter().zip(ctl) {
        if c.stash.is_empty() {
            c.stash.push(spare.pop().unwrap_or_else(|| node.snapshot(round)));
        }
    }
}

/// One buffered `TrainReport`: `(node, loss, heard)`.
type TrainReportRow = (u32, f32, Vec<(u32, f32)>);

/// The coordinator's per-round working state (borrows the simulation's
/// persistent tables); the scheduler's hub.
struct CoordRound<'a> {
    observer: &'a mut dyn GossipObserver,
    views: &'a mut ViewTable,
    refresh_at: &'a mut Vec<u64>,
    heard: &'a mut Vec<Vec<(u32, f32)>>,
    traffic: &'a mut TrafficCounters,
    cfg: GossipConfig,
    obs: Recorder,
    /// Nodes whose refresh timers fired this round (processed in ascending
    /// node order).
    due: Vec<u32>,
    /// This round's final wake mask.
    wake: Vec<bool>,
    /// Buffered pushes awaiting the route flush: `(sender, dest, model)`.
    buffer: Vec<(u32, u32, SharedModel)>,
    /// Buffered train reports awaiting the round end: `(node, loss, heard)`.
    reports: Vec<TrainReportRow>,
    deliveries: usize,
    bytes0: u64,
    stats: &'a mut Option<GossipRoundStats>,
    publish: &'a mut bool,
}

/// A peer seat: the participant plus its own control block.
struct PeerSeat<'a, P: Participant> {
    index: usize,
    node: &'a mut P,
    ctl: &'a mut PeerCtl,
    transform: Option<&'a dyn UpdateTransform>,
    cfg: GossipConfig,
    obs: Recorder,
}

impl CoordRound<'_> {
    fn round_start(&mut self, t: u64, ctx: &mut Ctx<'_>) {
        let n = self.refresh_at.len();
        let base = t * SLOTS_PER_ROUND;
        let cfg = self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ t.wrapping_mul(0xA076_1D64_78BD_642F));
        self.observer.on_round_start(t);

        // Refresh phase: the due set arrived as timer events; sorted, it is
        // the ascending scan of every node with `refresh_at[u] <= t`.
        let refresh_span = self.obs.span("refresh");
        let keep = match cfg.protocol {
            GossipProtocol::Rand => 0,
            GossipProtocol::Pers { exploration } => {
                ((1.0 - exploration) * cfg.out_degree as f64).ceil() as usize
            }
        };
        self.due.sort_unstable();
        for i in 0..self.due.len() {
            let u = self.due[i];
            debug_assert!(self.refresh_at[u as usize] <= t, "refresh timer fired early");
            if probe_available(self.observer, t, u) {
                match cfg.protocol {
                    GossipProtocol::Rand => self.views.refresh_random(u, &mut rng),
                    GossipProtocol::Pers { .. } => {
                        let mut scored = std::mem::take(&mut self.heard[u as usize]);
                        self.views.refresh_personalized(u, &mut scored, keep, &mut rng);
                    }
                }
                self.refresh_at[u as usize] =
                    t + sample_exp_interval(cfg.view_refresh_rate, &mut rng);
                ctx.timer_at(
                    self.refresh_at[u as usize] * SLOTS_PER_ROUND,
                    HUB,
                    Msg::RefreshTimer { node: u },
                );
                ctx.send_at(
                    base + 1,
                    u + 1,
                    Msg::ViewPush { round: t, view: self.views.view_of(u).to_vec() },
                );
            } else {
                // Deferred: `refresh_at` stays in the past; re-probe next
                // round (the node's first available round acts on it).
                ctx.timer_at((t + 1) * SLOTS_PER_ROUND, HUB, Msg::RefreshTimer { node: u });
            }
        }
        self.due.clear();
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        for u in 0..n as u32 {
            for &v in self.views.view_of(u) {
                self.traffic.view_in_degree[v as usize] += 1;
            }
        }
        drop(refresh_span);

        // Wake sampling (drawn first to keep the RNG stream stable, then
        // filtered through the observer's liveness hook).
        let sample_span = self.obs.span("sample");
        let mut wake: Vec<bool> = (0..n)
            .map(|_| cfg.wake_fraction >= 1.0 || rng.gen::<f64>() < cfg.wake_fraction)
            .collect();
        self.observer.on_liveness(LivenessEvent::ActingSet { round: t, mask: &mut wake });
        drop(sample_span);

        // Destinations are drawn for every node — awake or not — so the
        // round's RNG stream does not depend on the wake mask's contents.
        let destinations: Vec<u32> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..n).map(|u| self.views.random_neighbor(u as u32, &mut rng)).collect();
        for (u, &w) in wake.iter().enumerate() {
            if w {
                ctx.send_at(
                    base + 1,
                    // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                    u as u32 + 1,
                    Msg::WakeSend { round: t, dest: destinations[u], snap: None },
                );
            }
        }
        self.wake = wake;
    }

    fn route(&mut self, t: u64, ctx: &mut Ctx<'_>) {
        let base = t * SLOTS_PER_ROUND;
        // Canonical routing order: ascending sender, independent of how the
        // delivery policy interleaved the pushes' arrival.
        self.buffer.sort_unstable_by_key(|&(sender, _, _)| sender);
        for (sender, dest, snap) in self.buffer.drain(..) {
            self.obs.add(Counter::BytesOnWire, 4 * snap.len() as u64);
            self.obs.inc(Counter::InboxDeliveries);
            self.observer.on_delivery(t, UserId::new(dest), &snap);
            self.traffic.received[dest as usize] += 1;
            self.deliveries += 1;
            ctx.send_at(base + 3, dest + 1, Msg::ModelPush { round: t, sender, dest, model: snap });
        }
        // Every awake peer mixes + trains once all routed models are in its
        // inbox (the timer lane fires after same-slot messages).
        for (u, &w) in self.wake.iter().enumerate() {
            if w {
                ctx.timer_at(
                    base + 3,
                    // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                    u as u32 + 1,
                    Msg::MixTrain { round: t, epochs: self.cfg.local_epochs },
                );
            }
        }
    }

    fn round_end(&mut self, t: u64, ctx: &mut Ctx<'_>) {
        let awake_count = self.wake.iter().filter(|&&w| w).count();
        debug_assert_eq!(self.reports.len(), awake_count, "one report per awake peer");
        // Canonical report order: ascending node, whatever order the
        // delivery policy handed the reports over in.
        self.reports.sort_unstable_by_key(|&(node, _, _)| node);
        let mut loss_sum = 0.0f32;
        for (node, loss, mut heard) in self.reports.drain(..) {
            self.heard[node as usize].append(&mut heard);
            loss_sum += loss;
        }
        self.obs.add(Counter::ClientsTrained, awake_count as u64);
        let stats = GossipRoundStats {
            round: t,
            awake: awake_count,
            deliveries: self.deliveries,
            mean_loss: (awake_count > 0).then(|| loss_sum / awake_count as f32),
            bytes_materialized: self.obs.counter(Counter::BytesOnWire) - self.bytes0,
        };
        let evaluate_span = self.obs.span("evaluate");
        self.observer.on_round_end(&stats);
        drop(evaluate_span);
        *self.stats = Some(stats);
        ctx.send(HUB, Msg::GlobalBroadcast { round: t });
    }
}

impl<P: Participant> PeerSeat<'_, P> {
    /// The send phase for one node: snapshot into a recycled carcass (local
    /// stash) and apply the DP transform on its own RNG stream, then push to
    /// the drawn destination via the network.
    fn wake_send(&mut self, t: u64, dest: u32, ctx: &mut Ctx<'_>) {
        let i = self.index;
        let mut snap = match self.ctl.stash.pop() {
            Some(mut s) => {
                self.node.snapshot_into(t, &mut s);
                s
            }
            // Only a second send in one round (a resumed queue) gets here.
            None => self.node.snapshot(t),
        };
        if let Some(tr) = self.transform {
            let mut crng = StdRng::seed_from_u64(
                self.cfg.seed ^ (t << 22) ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            );
            apply_gossip_transform(tr, &mut snap, &mut self.ctl.prev_sent, &mut crng);
        }
        ctx.send_at(
            ctx.now() + 1,
            HUB,
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            Msg::ModelPush { round: t, sender: i as u32, dest, model: snap },
        );
    }

    /// Fused mix+train for one node, on the canonically ordered inbox. Mix
    /// and train stay fused deliberately: a node's aggregate is
    /// catalog-sized, so training right after mixing reuses it while
    /// cache-hot. The `mix_us` / `train_us` histograms still split the cost.
    fn mix_train(&mut self, t: u64, epochs: usize, ctx: &mut Ctx<'_>) {
        let i = self.index;
        // Canonical inbox order — `(round, owner)` ascending (one push per
        // sender per round) — independent of how the delivery policy
        // interleaved this round's arrivals.
        self.ctl.inbox.sort_unstable_by_key(|m| (m.round, m.owner.raw()));
        if !self.ctl.inbox.is_empty() {
            let t0 = self.obs.clock();
            if matches!(self.cfg.protocol, GossipProtocol::Pers { .. }) {
                for m in &self.ctl.inbox {
                    self.ctl.heard_scratch.push((m.owner.raw(), self.node.evaluate_model(m)));
                }
            }
            let rows: Vec<&[f32]> = self.ctl.inbox.iter().map(|m| m.agg.as_slice()).collect();
            self.node.mix_agg(&rows);
            self.obs.observe_since(Metric::MixMicros, t0);
        }
        let t0 = self.obs.clock();
        let mut crng = StdRng::seed_from_u64(
            self.cfg.seed ^ (t << 24) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut loss = 0.0;
        for _ in 0..epochs.max(1) {
            loss = self.node.train_local(&mut crng);
        }
        self.obs.observe_since(Metric::TrainMicros, t0);
        // Consumed inbox buffers recycle into the local carcass stash (the
        // surplus returns to the simulation's spares before the next round).
        self.ctl.stash.append(&mut self.ctl.inbox);
        ctx.send_at(
            ctx.now() + 1,
            HUB,
            Msg::TrainReport {
                round: t,
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                node: i as u32,
                loss,
                heard: std::mem::take(&mut self.ctl.heard_scratch),
            },
        );
    }
}

impl Node for CoordRound<'_> {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::ModelPush { sender, dest, model, .. } => self.buffer.push((sender, dest, model)),
            Msg::TrainReport { node, loss, heard, .. } => self.reports.push((node, loss, heard)),
            Msg::GlobalBroadcast { .. } => *self.publish = true,
            Msg::RefreshTimer { node } => self.due.push(node),
            Msg::RoundStart { round } => self.round_start(round, ctx),
            Msg::RouteFlush { round } => self.route(round, ctx),
            Msg::RoundEnd { round } => self.round_end(round, ctx),
            other => unreachable!("{} is not addressed to the gossip coordinator", other.label()),
        }
    }
}

impl<P: Participant> Node for PeerSeat<'_, P> {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::ViewPush { view, .. } => self.ctl.view = view,
            Msg::WakeSend { round, dest, .. } => self.wake_send(round, dest, ctx),
            Msg::ModelPush { model, .. } => self.ctl.inbox.push(model),
            Msg::MixTrain { round, epochs } => self.mix_train(round, epochs, ctx),
            other => unreachable!("{} is not addressed to a gossip peer", other.label()),
        }
    }
}

/// DP in gossip: the outgoing `[emb | agg]` vector is treated as an update
/// relative to the previously sent vector (zero for the first send), clipped
/// and noised, then rewritten. `prev_sent` is updated to the new clean value.
fn apply_gossip_transform(
    transform: &dyn UpdateTransform,
    snap: &mut SharedModel,
    prev_sent: &mut Option<Vec<f32>>,
    rng: &mut StdRng,
) {
    let emb_len = snap.owner_emb.as_ref().map_or(0, Vec::len);
    let mut current = vec![0.0f32; emb_len + snap.agg.len()];
    if let Some(emb) = &snap.owner_emb {
        current[..emb_len].copy_from_slice(emb);
    }
    current[emb_len..].copy_from_slice(&snap.agg);

    let reference = prev_sent.get_or_insert_with(|| current.clone());
    let mut update: Vec<f32> = current.iter().zip(reference.iter()).map(|(c, r)| c - r).collect();
    transform.transform(&mut update, rng);

    if let Some(emb) = &mut snap.owner_emb {
        for k in 0..emb_len {
            emb[k] = reference[k] + update[k];
        }
    }
    for (k, a) in snap.agg.iter_mut().enumerate() {
        *a = reference[emb_len + k] + update[emb_len + k];
    }
    *prev_sent = Some(current);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic toy participant: params drift towards a per-community
    /// fixed point during "training", and `evaluate_model` prefers models
    /// close to the node's own fixed point — enough to exercise the protocol
    /// without real ML.
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
        fn train_local(&mut self, _rng: &mut StdRng) -> f32 {
            let mut dist = 0.0f32;
            for (p, t) in self.params.iter_mut().zip(&self.target) {
                *p += 0.5 * (t - *p);
                dist += (t - *p) * (t - *p);
            }
            dist
        }
        fn snapshot(&self, round: u64) -> SharedModel {
            SharedModel { owner: self.user, round, owner_emb: None, agg: self.params.clone() }
        }
        fn num_examples(&self) -> usize {
            1
        }
        fn evaluate_model(&self, model: &SharedModel) -> f32 {
            // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
            -model.agg.iter().zip(&self.target).map(|(a, t)| (a - t) * (a - t)).sum::<f32>()
        }
    }

    fn sim(n: usize, cfg: GossipConfig) -> GossipSim<TestNode> {
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        let nodes = (0..n).map(|u| TestNode::new(u as u32, u % 4)).collect();
        GossipSim::new(nodes, cfg)
    }

    #[derive(Default)]
    struct Recorder {
        deliveries: Vec<(u64, u32, u32)>,
        stats: Vec<GossipRoundStats>,
    }

    impl GossipObserver for Recorder {
        fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
            self.deliveries.push((round, receiver.raw(), model.owner.raw()));
        }
        fn on_round_end(&mut self, stats: &GossipRoundStats) {
            self.stats.push(stats.clone());
        }
    }

    #[test]
    fn every_awake_node_sends_exactly_one_model() {
        let mut s = sim(20, GossipConfig { rounds: 5, seed: 3, ..Default::default() });
        let mut rec = Recorder::default();
        s.run(&mut rec);
        for st in &rec.stats {
            assert_eq!(st.awake, 20);
            assert_eq!(st.deliveries, 20);
        }
        // Nobody delivers to itself.
        assert!(rec.deliveries.iter().all(|&(_, recv, sender)| recv != sender));
    }

    #[test]
    fn deliveries_follow_views() {
        let mut s = sim(15, GossipConfig { rounds: 1, seed: 7, ..Default::default() });
        // Record views before the round; deliveries of round 0 must respect
        // them (views refresh only at their scheduled time > 0).
        let views: Vec<Vec<u32>> = (0..15).map(|u| s.view_of(u).to_vec()).collect();
        let mut rec = Recorder::default();
        s.run(&mut rec);
        for &(_, recv, sender) in &rec.deliveries {
            assert!(
                views[sender as usize].contains(&recv),
                "delivery {sender}->{recv} not in view {:?}",
                views[sender as usize]
            );
        }
    }

    #[test]
    fn snapshot_carcasses_are_recycled_not_reallocated() {
        // Every node wakes, so every carcass sent in a round is mixed and
        // stashed by its receiver within that round: once each node holds
        // one, restocking only moves carcasses and the population stays at
        // one per node.
        let n = 20;
        let mut s = sim(n, GossipConfig { rounds: 6, seed: 4, ..Default::default() });
        let mut rec = Recorder::default();
        for _ in 0..6 {
            s.step(&mut rec);
            let stashed: usize = s.ctl.iter().map(|c| c.stash.len()).sum();
            assert!(s.ctl.iter().all(|c| c.inbox.is_empty()));
            assert_eq!(stashed + s.spare.len(), n, "round {}", s.round);
        }
        let nodes = s.store.as_dense_mut().expect("gossip stores are dense");
        restock_carcasses(nodes, &mut s.ctl, &mut s.spare, s.round);
        assert!(s.ctl.iter().all(|c| c.stash.len() == 1));
        assert!(s.spare.is_empty());
    }

    #[test]
    fn partial_wake_fraction_accumulates_inboxes() {
        let mut s =
            sim(30, GossipConfig { rounds: 10, wake_fraction: 0.5, seed: 1, ..Default::default() });
        let mut rec = Recorder::default();
        s.run(&mut rec);
        for st in &rec.stats {
            assert!(st.awake < 30, "round {}: awake {}", st.round, st.awake);
            assert_eq!(st.deliveries, st.awake);
        }
    }

    #[test]
    fn training_converges_towards_targets() {
        let mut s = sim(16, GossipConfig { rounds: 30, seed: 5, ..Default::default() });
        let mut rec = Recorder::default();
        s.run(&mut rec);
        let first = rec.stats.first().unwrap().mean_loss.expect("nodes awake");
        let last = rec.stats.last().unwrap().mean_loss.expect("nodes awake");
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = sim(12, GossipConfig { rounds: 6, seed: 11, ..Default::default() });
            let mut rec = Recorder::default();
            s.run(&mut rec);
            (rec.deliveries, s.nodes()[3].params.clone())
        };
        let (d1, p1) = run();
        let (d2, p2) = run();
        assert_eq!(d1, d2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn pers_gossip_biases_views_towards_own_community() {
        // 4 communities of 10; after plenty of rounds, Pers-Gossip views
        // should contain more same-community peers than the ~23% a uniform
        // view would give.
        let cfg = GossipConfig {
            rounds: 120,
            protocol: GossipProtocol::Pers { exploration: 0.4 },
            seed: 2,
            ..Default::default()
        };
        let mut s = sim(40, cfg);
        s.run(&mut NullGossipObserver);
        let mut same = 0usize;
        let mut total = 0usize;
        for u in 0..40u32 {
            for &v in s.view_of(u) {
                total += 1;
                if v % 4 == u % 4 {
                    same += 1;
                }
            }
        }
        let frac = same as f64 / total as f64;
        assert!(frac > 0.35, "same-community view fraction only {frac}");
    }

    #[test]
    fn rand_gossip_views_stay_uniform() {
        let mut s = sim(40, GossipConfig { rounds: 120, seed: 2, ..Default::default() });
        s.run(&mut NullGossipObserver);
        let mut same = 0usize;
        let mut total = 0usize;
        for u in 0..40u32 {
            for &v in s.view_of(u) {
                total += 1;
                if v % 4 == u % 4 {
                    same += 1;
                }
            }
        }
        let frac = same as f64 / total as f64;
        assert!(frac < 0.4, "rand-gossip views unexpectedly clustered: {frac}");
    }

    #[test]
    fn dp_transform_perturbs_deliveries() {
        use cia_defenses::{DpConfig, DpMechanism};
        let run = |noisy: bool| {
            let mut s = sim(10, GossipConfig { rounds: 2, seed: 4, ..Default::default() });
            if noisy {
                s.set_update_transform(Box::new(DpMechanism::new(DpConfig {
                    clip: 0.5,
                    noise_multiplier: 1.0,
                })));
            }
            let mut rec = Recorder::default();
            s.run(&mut rec);
            s.nodes()[0].params.clone()
        };
        assert_ne!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "need more nodes")]
    fn rejects_too_few_nodes() {
        let _ = sim(3, GossipConfig::default());
    }

    /// Clears every odd node from the wake set via the availability hook.
    #[derive(Default)]
    struct OddSleeper {
        stats: Vec<GossipRoundStats>,
        deliveries: Vec<u32>,
    }

    impl GossipObserver for OddSleeper {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let LivenessEvent::ActingSet { mask, .. } = event {
                for (u, m) in mask.iter_mut().enumerate() {
                    if u % 2 == 1 {
                        *m = false;
                    }
                }
            }
        }
        fn on_delivery(&mut self, _round: u64, _receiver: UserId, model: &SharedModel) {
            self.deliveries.push(model.owner.raw());
        }
        fn on_round_end(&mut self, stats: &GossipRoundStats) {
            self.stats.push(stats.clone());
        }
    }

    #[test]
    fn wake_hook_filters_senders() {
        let mut s = sim(20, GossipConfig { rounds: 4, seed: 6, ..Default::default() });
        let mut obs = OddSleeper::default();
        s.run(&mut obs);
        for st in &obs.stats {
            assert_eq!(st.awake, 10, "only even nodes wake");
            assert_eq!(st.deliveries, 10);
        }
        assert!(obs.deliveries.iter().all(|u| u % 2 == 0), "only awake nodes send");
    }

    /// Declares node 5 permanently unavailable (refresh deferral only; the
    /// wake set is left alone so the rest of the round is unchanged).
    struct FiveOffline;

    impl GossipObserver for FiveOffline {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let LivenessEvent::Probe { node, available, .. } = event {
                if node == 5 {
                    *available = false;
                }
            }
        }
    }

    #[test]
    fn offline_nodes_defer_view_refreshes() {
        // A refresh rate of 1.0 schedules refreshes nearly every round, so
        // over 12 rounds every available node re-samples its view at least
        // once with overwhelming probability — while node 5's view must
        // stay exactly its initial one.
        let cfg =
            GossipConfig { rounds: 12, view_refresh_rate: 1.0, seed: 9, ..Default::default() };
        let mut s = sim(16, cfg);
        let initial: Vec<Vec<u32>> = (0..16).map(|u| s.view_of(u).to_vec()).collect();
        s.run(&mut FiveOffline);
        assert_eq!(s.view_of(5), initial[5].as_slice(), "offline node refreshed its view");
        let changed = (0..16u32)
            .filter(|&u| u != 5 && s.view_of(u) != initial[u as usize].as_slice())
            .count();
        assert!(changed > 10, "only {changed} available nodes refreshed");
    }

    #[test]
    fn traffic_counters_account_for_every_delivery_and_view_slot() {
        let rounds = 6;
        let mut s = sim(20, GossipConfig { rounds, seed: 3, ..Default::default() });
        let mut rec = Recorder::default();
        s.run(&mut rec);
        let traffic = s.traffic();
        // Every routed delivery is counted exactly once.
        let received: u64 = traffic.received.iter().sum();
        assert_eq!(received as usize, rec.deliveries.len());
        for (u, &count) in traffic.received.iter().enumerate() {
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            let delivered = rec.deliveries.iter().filter(|&&(_, recv, _)| recv == u as u32).count();
            assert_eq!(count as usize, delivered, "node {u}");
        }
        // Each round accumulates exactly out_degree view slots per node.
        let in_degree: u64 = traffic.view_in_degree.iter().sum();
        assert_eq!(in_degree, rounds * 20 * s.config().out_degree as u64);
        // And the counters survive a checkpoint roundtrip.
        let state = s.export_state();
        assert_eq!(&state.traffic, traffic);
        let mut fresh = sim(20, GossipConfig { rounds, seed: 3, ..Default::default() });
        let traffic = traffic.clone();
        fresh.restore_state(state);
        assert_eq!(fresh.traffic(), &traffic);
    }

    #[test]
    fn recorder_counts_wire_bytes_and_spans_phases() {
        let rounds = 5u64;
        let mut s = sim(20, GossipConfig { rounds, seed: 3, ..Default::default() });
        let rec = cia_obs::Recorder::new();
        rec.set_detail(true);
        s.set_recorder(rec.clone());
        let mut tape = Recorder::default();
        s.run(&mut tape);
        assert_eq!(rec.counter(Counter::InboxDeliveries) as usize, tape.deliveries.len());
        assert_eq!(rec.counter(Counter::ClientsTrained), rounds * 20);
        // Every delivery carries the 8-float test model: 32 bytes, and the
        // stats field mirrors the counter delta exactly.
        assert_eq!(rec.counter(Counter::BytesOnWire), 32 * rec.counter(Counter::InboxDeliveries));
        let stat_bytes: u64 = tape.stats.iter().map(|s| s.bytes_materialized).sum();
        assert_eq!(stat_bytes, rec.counter(Counter::BytesOnWire));
        assert_eq!(rec.histogram(Metric::TrainMicros).count(), rounds * 20);
        // The fused mix+train pass still splits per-node cost into the two
        // histograms: one mix observation per (round, node-with-mail), so
        // the count is positive and bounded by the delivery count.
        let mixes = rec.histogram(Metric::MixMicros).count();
        assert!(mixes > 0, "mix cost was never observed");
        assert!(mixes <= rec.counter(Counter::InboxDeliveries));
        let chunk = rec.drain();
        for phase in ["refresh", "sample", "send", "route", "train", "evaluate"] {
            assert_eq!(
                chunk.spans.iter().filter(|s| s.name == phase).count(),
                rounds as usize,
                "one {phase} span per round"
            );
        }
        // One trace slice per dispatched message batch, all on the driving
        // thread: the peers of a batch run on workers, which open no spans.
        let wake_sends = chunk.spans.iter().filter(|s| s.name == "msg:wake_send").count();
        assert_eq!(wake_sends, rounds as usize, "one wake-send batch per round");
        let driving = chunk.spans.iter().find(|s| s.name == "train").expect("train span").tid;
        assert!(
            chunk.spans.iter().all(|s| s.tid == driving),
            "a span was opened off the driving thread"
        );
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        // A detail-enabled recorder (spans, histograms, per-node mix/train
        // clock reads) must leave the protocol bit-identical to an
        // untraced run.
        let cfg = GossipConfig {
            rounds: 8,
            wake_fraction: 0.6,
            protocol: GossipProtocol::Pers { exploration: 0.4 },
            seed: 17,
            ..Default::default()
        };
        let run = |traced: bool| {
            let mut s = sim(16, cfg);
            if traced {
                let rec = cia_obs::Recorder::new();
                rec.set_detail(true);
                s.set_recorder(rec);
            }
            let mut tape = Recorder::default();
            s.run(&mut tape);
            let params: Vec<Vec<f32>> = s.nodes().iter().map(|n| n.params.clone()).collect();
            (tape.deliveries, params)
        };
        assert_eq!(run(false), run(true));
    }

    /// Runs FIFO and seeded-interleaved delivery from identical state,
    /// comparing every observable byte: deliveries, stats, traffic, views,
    /// node parameters.
    fn assert_interleaving_matches_fifo(cfg: GossipConfig, n: usize, dp: bool, seed: u64) {
        let build = || {
            let mut s = sim(n, cfg);
            if dp {
                use cia_defenses::{DpConfig, DpMechanism};
                s.set_update_transform(Box::new(DpMechanism::new(DpConfig {
                    clip: 0.5,
                    noise_multiplier: 0.3,
                })));
            }
            s
        };
        let mut fifo = build();
        let mut fifo_tape = Recorder::default();
        for _ in 0..cfg.rounds {
            fifo.step_evented(&mut fifo_tape, DeliveryPolicy::Lockstep);
        }

        let mut shuffled = build();
        let mut shuffled_tape = Recorder::default();
        for _ in 0..cfg.rounds {
            shuffled.step_evented(&mut shuffled_tape, DeliveryPolicy::Interleaved { seed });
        }

        assert_eq!(fifo_tape.deliveries, shuffled_tape.deliveries);
        assert_eq!(fifo_tape.stats, shuffled_tape.stats);
        assert_eq!(fifo.traffic(), shuffled.traffic());
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        for u in 0..n as u32 {
            assert_eq!(fifo.view_of(u), shuffled.view_of(u), "view of {u}");
        }
        for (a, b) in fifo.nodes().iter().zip(shuffled.nodes()) {
            assert_eq!(a.params, b.params);
        }
    }

    #[test]
    fn interleaving_seeds_cannot_change_gossip_bytes() {
        // Every reorderable mailbox is sorted on a canonical key before any
        // float is touched, so a permuted delivery order must still replay
        // the FIFO transcript exactly — with and without Pers-Gossip,
        // partial wake-up and DP.
        let pers = GossipConfig {
            rounds: 5,
            wake_fraction: 0.7,
            protocol: GossipProtocol::Pers { exploration: 0.4 },
            view_refresh_rate: 0.8,
            seed: 23,
            ..Default::default()
        };
        let pers_partial_wake_dp = GossipConfig {
            rounds: 8,
            wake_fraction: 0.6,
            protocol: GossipProtocol::Pers { exploration: 0.4 },
            view_refresh_rate: 0.5,
            seed: 17,
            ..Default::default()
        };
        for seed in [0u64, 9, 0xFEED_C0DE] {
            assert_interleaving_matches_fifo(pers, 12, false, seed);
            assert_interleaving_matches_fifo(pers_partial_wake_dp, 16, true, seed);
        }
    }

    #[test]
    fn evented_resume_restores_the_pending_event_queue() {
        // Kill/resume across a half-drained queue: after 3 rounds the queue
        // holds future refresh timers; a restore must carry them (and
        // produce the exact same continuation as an uninterrupted run). A
        // checkpoint with an empty queue section must land on the same
        // continuation too: the timers are re-derived from `refresh_at`.
        let cfg = GossipConfig {
            rounds: 8,
            wake_fraction: 0.7,
            view_refresh_rate: 0.5,
            seed: 21,
            ..Default::default()
        };
        let mut straight = sim(14, cfg);
        straight.run(&mut NullGossipObserver);

        let mut first = sim(14, cfg);
        for _ in 0..3 {
            first.step(&mut NullGossipObserver);
        }
        let proto = first.export_state();
        assert!(!proto.pending.is_empty(), "refresh timers should be in flight");
        let params: Vec<Vec<f32>> = first.nodes().iter().map(Participant::state_vec).collect();

        let mut empty_queue = proto.clone();
        empty_queue.pending.clear();
        for state in [proto, empty_queue] {
            let mut resumed = sim(14, cfg);
            resumed.restore_state(state);
            for (node, p) in resumed.nodes_mut().iter_mut().zip(&params) {
                node.restore_state(p);
            }
            for _ in 3..8 {
                resumed.step(&mut NullGossipObserver);
            }
            for (a, b) in straight.nodes().iter().zip(resumed.nodes()) {
                assert_eq!(a.params, b.params);
            }
            for u in 0..14u32 {
                assert_eq!(straight.view_of(u), resumed.view_of(u), "view of {u}");
            }
            assert_eq!(straight.round(), resumed.round());
        }
    }

    #[test]
    fn evented_round_fires_publish_hook_after_broadcast() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let published: Rc<RefCell<Vec<u64>>> = Rc::default();
        let sink = Rc::clone(&published);
        let mut s = sim(10, GossipConfig { rounds: 3, seed: 4, ..Default::default() });
        s.set_publish_hook(Box::new(move |t, nodes| {
            assert_eq!(nodes.len(), 10);
            sink.borrow_mut().push(t);
        }));
        s.step_evented(&mut NullGossipObserver, DeliveryPolicy::Lockstep);
        s.step_evented(&mut NullGossipObserver, DeliveryPolicy::Interleaved { seed: 5 });
        s.step(&mut NullGossipObserver);
        assert_eq!(*published.borrow(), vec![0, 1, 2]);
    }
}
