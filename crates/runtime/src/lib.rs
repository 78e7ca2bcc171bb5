//! Event-driven node runtime: typed protocol messages under a deterministic
//! virtual-clock scheduler.
//!
//! The dense rounds of `cia-federated` and `cia-gossip` (train →
//! aggregate/mix → evaluate) run as *nodes* consuming typed protocol
//! messages plus injected timer events — the Maelstrom-style shape — under
//! one deterministic [`Scheduler`]: a virtual clock, two delivery lanes
//! (messages, then timers) and a seeded delivery order.
//!
//! Two delivery policies exist:
//!
//! * [`DeliveryPolicy::Lockstep`] delivers same-time messages in FIFO
//!   (enqueue) order — the default, and the order the golden JSONL
//!   transcripts pin.
//! * [`DeliveryPolicy::Interleaved`] shuffles same-time message-lane
//!   deliveries with a seeded hash (timers keep FIFO order). The protocols
//!   are written to be *insensitive* to this reordering (mailboxes are
//!   sorted on canonical keys before any float is touched), so every
//!   interleaving seed still reproduces the FIFO transcript byte for byte —
//!   the property the protocol crates and `cia-scenarios` pin with
//!   proptest.
//!
//! The crate also hosts the two cross-protocol abstractions the runtime
//! unified: [`LivenessEvent`] (the single observer event enum replacing the
//! `on_participants` / `on_wake_set` / `node_available` hook zoo) and
//! [`Checkpointable`] (the one export/restore trait the checkpoint codec
//! drives).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cia_models::SharedModel;
use cia_obs::Recorder;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Virtual-time slots per protocol round. Each round occupies the half-open
/// window `[round * SLOTS_PER_ROUND, (round + 1) * SLOTS_PER_ROUND)`; the
/// protocol ports lay their phases out on slots inside it (see
/// `crates/scenarios/README.md` for both timelines).
pub const SLOTS_PER_ROUND: u64 = 8;

/// A node address inside one scheduler (an index into the node slice handed
/// to [`Scheduler::run_until`]).
pub type NodeId = u32;

/// Typed protocol messages. One enum covers both protocols so a single
/// scheduler, codec and trace vocabulary serves FedAvg and gossip alike;
/// nodes simply ignore variants that are not addressed to their role.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // --- Federated learning (server ⇄ client) ---
    /// Server → client: train this round on the broadcast global model.
    /// Aggregation rides along: `acc` threads the shared sparse-update
    /// accumulator through the participant chain (each client folds
    /// `weight · (own − global)` into it while its parameters are cache-hot),
    /// and `snap` carries a recycled snapshot carcass when the round
    /// materializes client models for the observer or a DP transform.
    TrainRequest {
        /// Round index.
        round: u64,
        /// Local epochs to run.
        epochs: usize,
        /// The broadcast global model (shared, read-only).
        global: Arc<Vec<f32>>,
        /// This client's normalized aggregation weight (`wᵢ / Σw`).
        weight: f32,
        /// The threaded sparse-update accumulator (`None` on the DP path,
        /// which aggregates dense transformed snapshots instead).
        acc: Option<Vec<f32>>,
        /// Snapshot carcass to fill when the round materializes models.
        snap: Option<SharedModel>,
    },
    /// Client → server: the trained reply closing one link of the chain.
    ModelUpdate {
        /// Round index.
        round: u64,
        /// The client's index.
        client: u32,
        /// Final local training loss.
        loss: f32,
        /// The accumulator handed back (with this client's update folded in).
        acc: Option<Vec<f32>>,
        /// The materialized snapshot, when requested.
        snap: Option<SharedModel>,
    },
    /// The post-aggregation broadcast of the new global model — the hook
    /// where snapshot publication to `cia-serve` is scheduled as an event
    /// instead of an out-of-band runner step.
    GlobalBroadcast {
        /// The round whose aggregate is being broadcast.
        round: u64,
    },

    // --- Gossip (coordinator ⇄ peer) ---
    /// Coordinator → peer: your refreshed out-view (peers keep a local copy
    /// of their neighbor list; the authoritative table stays with the graph).
    ViewPush {
        /// Round index.
        round: u64,
        /// The refreshed out-view.
        view: Vec<u32>,
    },
    /// A model push. Leaving the sender it is addressed at the network
    /// (the coordinator routes it); after routing it is forwarded verbatim
    /// to `dest`'s inbox.
    ModelPush {
        /// Round index.
        round: u64,
        /// Sending node index (canonical routing order is ascending sender,
        /// independent of delivery interleaving).
        sender: u32,
        /// Destination node.
        dest: u32,
        /// The pushed model snapshot.
        model: SharedModel,
    },
    /// A node's scheduled view-refresh timer coming due (`Exp(rate)`
    /// inter-arrival times). These are the events that legitimately sit in
    /// the queue *across* rounds — and therefore across checkpoints.
    RefreshTimer {
        /// The node whose refresh is due.
        node: u32,
    },
    /// Coordinator → awake peer: wake up and push one model to `dest`
    /// (carrying a recycled snapshot carcass when one is available).
    WakeSend {
        /// Round index.
        round: u64,
        /// Destination drawn from the sender's current view.
        dest: u32,
        /// Recycled snapshot carcass (buffer reuse only; contents ignored).
        snap: Option<SharedModel>,
    },
    /// Timer at an awake peer: mix the inbox into local state and train.
    MixTrain {
        /// Round index.
        round: u64,
        /// Local epochs to run.
        epochs: usize,
    },
    /// Peer → coordinator: the round's training report (loss plus the
    /// Pers-Gossip `(sender, score)` evidence heard while mixing).
    TrainReport {
        /// Round index.
        round: u64,
        /// Reporting node.
        node: u32,
        /// Final local training loss.
        loss: f32,
        /// Personalization evidence heard from the mixed inbox.
        heard: Vec<(u32, f32)>,
    },

    /// Timer at the gossip coordinator: route all buffered [`Msg::ModelPush`]
    /// sends to their destinations' inboxes (in canonical ascending-sender
    /// order), after every push of the round has arrived.
    RouteFlush {
        /// Round index.
        round: u64,
    },

    // --- Round control (both protocols) ---
    /// Timer opening a round (sampling/refresh happen in its handler).
    RoundStart {
        /// Round index.
        round: u64,
    },
    /// Timer closing a round (observe/aggregate/evaluate happen in its
    /// handler, after every message of the round has been delivered).
    RoundEnd {
        /// Round index.
        round: u64,
    },
}

impl Msg {
    /// Stable label for per-message trace spans (and debugging).
    pub fn label(&self) -> &'static str {
        match self {
            Msg::TrainRequest { .. } => "msg:train_request",
            Msg::ModelUpdate { .. } => "msg:model_update",
            Msg::GlobalBroadcast { .. } => "msg:global_broadcast",
            Msg::ViewPush { .. } => "msg:view_push",
            Msg::ModelPush { .. } => "msg:model_push",
            Msg::RefreshTimer { .. } => "msg:refresh_timer",
            Msg::WakeSend { .. } => "msg:wake_send",
            Msg::MixTrain { .. } => "msg:mix_train",
            Msg::TrainReport { .. } => "msg:train_report",
            Msg::RouteFlush { .. } => "msg:route_flush",
            Msg::RoundStart { .. } => "msg:round_start",
            Msg::RoundEnd { .. } => "msg:round_end",
        }
    }
}

/// How same-virtual-time deliveries are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryPolicy {
    /// FIFO enqueue order within each (time, lane) — the default, and the
    /// order the golden transcripts pin.
    #[default]
    Lockstep,
    /// Same-time *message*-lane deliveries are permuted by a seeded hash;
    /// timers stay FIFO. Protocol ports must be insensitive to this.
    Interleaved {
        /// The interleaving seed.
        seed: u64,
    },
}

/// An event-driven participant: a handler for delivered messages and fired
/// timers. The default timer handler forwards to [`Node::on_message`] so
/// nodes that don't distinguish the lanes implement one method.
pub trait Node {
    /// Handle a delivered protocol message.
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>);

    /// Handle a fired timer event.
    fn on_timer(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        self.on_message(msg, ctx);
    }
}

/// Delivery lane. Messages deliver before timers at equal virtual time, so
/// a timer scheduled for "end of slot t" observes every message of slot t.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Lane {
    Message,
    Timer,
}

/// A queued event. Ordering key: `(at, lane, order, seq)`.
#[derive(Debug)]
struct Event {
    at: u64,
    lane: Lane,
    /// Seeded permutation key (0 under [`DeliveryPolicy::Lockstep`] and for
    /// every timer, so ties fall through to FIFO `seq`).
    order: u64,
    seq: u64,
    dst: NodeId,
    msg: Msg,
}

impl Event {
    fn key(&self) -> (u64, Lane, u64, u64) {
        (self.at, self.lane, self.order, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// SplitMix64 finalizer — the seeded same-time permutation key.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A pending event in serializable form (checkpoint codecs store these so
/// kill/resume works across a non-empty queue).
#[derive(Debug, Clone, PartialEq)]
pub struct SavedEvent {
    /// Virtual delivery time.
    pub at: u64,
    /// Destination node.
    pub dst: NodeId,
    /// Whether the event rides the timer lane.
    pub timer: bool,
    /// The payload.
    pub msg: Msg,
}

/// The deterministic virtual-clock scheduler: a priority queue of events
/// drained in `(time, lane, order, seq)` order against a slice of nodes.
#[derive(Debug, Default)]
pub struct Scheduler {
    queue: BinaryHeap<Reverse<Event>>,
    now: u64,
    seq: u64,
    policy: DeliveryPolicy,
    obs: Recorder,
}

impl Scheduler {
    /// A fresh scheduler under `policy`, starting at virtual time 0.
    pub fn new(policy: DeliveryPolicy) -> Self {
        Scheduler { queue: BinaryHeap::new(), now: 0, seq: 0, policy, obs: Recorder::new() }
    }

    /// Installs the trace sink: when detail is enabled, every message-lane
    /// delivery slice is bracketed by a span named [`Msg::label`].
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// Current virtual time (the timestamp of the last delivered event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of undelivered events.
    pub fn pending_len(&self) -> usize {
        self.queue.len()
    }

    fn order_key(&self, lane: Lane, at: u64, seq: u64) -> u64 {
        match (self.policy, lane) {
            (DeliveryPolicy::Interleaved { seed }, Lane::Message) => {
                mix64(seed ^ at.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq)
            }
            _ => 0,
        }
    }

    fn push(&mut self, at: u64, lane: Lane, dst: NodeId, msg: Msg) {
        let seq = self.seq;
        self.seq += 1;
        let order = self.order_key(lane, at, seq);
        self.queue.push(Reverse(Event { at, lane, order, seq, dst, msg }));
    }

    /// Injects a message delivery at virtual time `at`.
    pub fn send_at(&mut self, at: u64, dst: NodeId, msg: Msg) {
        self.push(at, Lane::Message, dst, msg);
    }

    /// Schedules a timer to fire at virtual time `at`.
    pub fn timer_at(&mut self, at: u64, dst: NodeId, msg: Msg) {
        self.push(at, Lane::Timer, dst, msg);
    }

    /// Delivers every event with `at <= until` (including events enqueued
    /// while draining), advancing the virtual clock.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses a node outside `nodes`.
    pub fn run_until<N: Node>(&mut self, until: u64, nodes: &mut [N]) {
        while let Some(Reverse(ev)) = self.queue.peek().filter(|Reverse(e)| e.at <= until) {
            debug_assert!(ev.at >= self.now, "virtual time must be monotone");
            let Reverse(ev) = self.queue.pop().expect("peeked");
            self.now = ev.at;
            let node = &mut nodes[ev.dst as usize];
            let mut ctx = Ctx {
                queue: &mut self.queue,
                seq: &mut self.seq,
                policy: self.policy,
                now: ev.at,
                me: ev.dst,
            };
            match ev.lane {
                Lane::Message => {
                    let span = self.obs.span(ev.msg.label());
                    node.on_message(ev.msg, &mut ctx);
                    drop(span);
                }
                Lane::Timer => node.on_timer(ev.msg, &mut ctx),
            }
        }
        self.now = self.now.max(until);
    }

    /// Drains every undelivered event into serializable form, in delivery
    /// order (checkpoint capture). The queue is left empty.
    pub fn drain_pending(&mut self) -> Vec<SavedEvent> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(Reverse(ev)) = self.queue.pop() {
            out.push(SavedEvent {
                at: ev.at,
                dst: ev.dst,
                timer: ev.lane == Lane::Timer,
                msg: ev.msg,
            });
        }
        out
    }

    /// Re-enqueues saved events (checkpoint restore). Enqueue order becomes
    /// FIFO order, so feeding back [`Scheduler::drain_pending`]'s output
    /// reproduces the uninterrupted delivery order exactly.
    pub fn install_pending(&mut self, pending: Vec<SavedEvent>) {
        for ev in pending {
            let lane = if ev.timer { Lane::Timer } else { Lane::Message };
            self.push(ev.at, lane, ev.dst, ev.msg);
        }
    }
}

/// The per-delivery context a [`Node`] handler sends and schedules through.
pub struct Ctx<'a> {
    queue: &'a mut BinaryHeap<Reverse<Event>>,
    seq: &'a mut u64,
    policy: DeliveryPolicy,
    now: u64,
    me: NodeId,
}

impl Ctx<'_> {
    /// The node this event was delivered to.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    fn push(&mut self, at: u64, lane: Lane, dst: NodeId, msg: Msg) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = *self.seq;
        *self.seq += 1;
        let order = match (self.policy, lane) {
            (DeliveryPolicy::Interleaved { seed }, Lane::Message) => {
                mix64(seed ^ at.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq)
            }
            _ => 0,
        };
        self.queue.push(Reverse(Event { at, lane, order, seq, dst, msg }));
    }

    /// Sends `msg` to `dst`, delivered at the current virtual time (after
    /// every already-queued same-time message under
    /// [`DeliveryPolicy::Lockstep`]).
    pub fn send(&mut self, dst: NodeId, msg: Msg) {
        self.push(self.now, Lane::Message, dst, msg);
    }

    /// Sends `msg` to `dst`, delivered at virtual time `at`.
    pub fn send_at(&mut self, at: u64, dst: NodeId, msg: Msg) {
        self.push(at, Lane::Message, dst, msg);
    }

    /// Schedules a timer at `dst` firing at virtual time `at` (timers fire
    /// after all messages of the same virtual time).
    pub fn timer_at(&mut self, at: u64, dst: NodeId, msg: Msg) {
        self.push(at, Lane::Timer, dst, msg);
    }
}

/// The protocol-agnostic liveness/participation event both protocol
/// observers consume — one enum instead of the former
/// `RoundObserver::on_participants` / `GossipObserver::on_wake_set` /
/// `GossipObserver::node_available` trio, so dynamics adapters and attack
/// trackers stop special-casing the protocol they ride on.
#[derive(Debug)]
pub enum LivenessEvent<'a> {
    /// The round's tentative acting set — FedAvg's sampled participants or
    /// gossip's wake set. Observers may clear entries to model availability
    /// (churn, stragglers, device dropout); setting entries is
    /// ignored-at-your-own-risk, the protocol honors the final mask as-is.
    ActingSet {
        /// Round index.
        round: u64,
        /// The mutable mask (index = node).
        mask: &'a mut [bool],
    },
    /// Availability probe for one node about to act on scheduled protocol
    /// work (gossip consults it before a due view refresh: an offline device
    /// cannot re-sample peers, so clearing `available` defers the refresh to
    /// the node's next available round). Observers may clear `available`;
    /// probes are only issued for work that is actually due.
    Probe {
        /// Round index.
        round: u64,
        /// The node being probed.
        node: u32,
        /// Availability answer (starts `true`; observers may clear).
        available: &'a mut bool,
    },
}

/// Uniform mid-run state capture: one trait the checkpoint codec drives
/// instead of per-type `export_state`/`restore_state` pairs. `State` is the
/// serializable snapshot type the codec already knows how to write.
pub trait Checkpointable {
    /// The serializable state snapshot.
    type State;

    /// Captures the current state (cheap, clone-based).
    fn export_state(&self) -> Self::State;

    /// Restores a previously captured state in place.
    ///
    /// # Panics
    ///
    /// Implementations panic when `state` is not aligned with the receiver
    /// (wrong node count, malformed tables).
    fn restore_state(&mut self, state: Self::State);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tape node: records every delivery as (now, me, label, timer).
    struct Tape {
        log: Vec<(u64, NodeId, &'static str, bool)>,
        relay: bool,
    }

    impl Node for &mut Tape {
        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            self.log.push((ctx.now(), ctx.me(), msg.label(), false));
            if self.relay {
                if let Msg::RoundStart { round } = msg {
                    // A causal chain: each hop enqueues the next at the same
                    // virtual time.
                    if round > 0 {
                        ctx.send(ctx.me(), Msg::RoundStart { round: round - 1 });
                    }
                }
            }
        }
        fn on_timer(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            self.log.push((ctx.now(), ctx.me(), msg.label(), true));
        }
    }

    fn tape() -> Tape {
        Tape { log: Vec::new(), relay: false }
    }

    #[test]
    fn lockstep_delivers_fifo_messages_before_timers() {
        let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
        sched.timer_at(5, 0, Msg::RoundEnd { round: 0 });
        sched.send_at(5, 0, Msg::GlobalBroadcast { round: 0 });
        sched.send_at(3, 0, Msg::RoundStart { round: 0 });
        sched.send_at(5, 0, Msg::ViewPush { round: 0, view: vec![] });
        let mut t = tape();
        sched.run_until(10, std::slice::from_mut(&mut &mut t));
        let labels: Vec<_> = t.log.iter().map(|&(at, _, l, timer)| (at, l, timer)).collect();
        assert_eq!(
            labels,
            vec![
                (3, "msg:round_start", false),
                (5, "msg:global_broadcast", false),
                (5, "msg:view_push", false),
                (5, "msg:round_end", true),
            ]
        );
        assert_eq!(sched.now(), 10);
        assert_eq!(sched.pending_len(), 0);
    }

    #[test]
    fn causal_same_time_chains_self_order() {
        let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
        sched.send_at(1, 0, Msg::RoundStart { round: 3 });
        let mut t = tape();
        t.relay = true;
        sched.run_until(1, std::slice::from_mut(&mut &mut t));
        assert_eq!(t.log.len(), 4, "each hop delivered at time 1");
        assert!(t.log.iter().all(|&(at, ..)| at == 1));
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
        sched.send_at(2, 0, Msg::RoundStart { round: 0 });
        sched.send_at(7, 0, Msg::RoundStart { round: 1 });
        let mut t = tape();
        sched.run_until(4, std::slice::from_mut(&mut &mut t));
        assert_eq!(t.log.len(), 1);
        assert_eq!(sched.pending_len(), 1);
        sched.run_until(7, std::slice::from_mut(&mut &mut t));
        assert_eq!(t.log.len(), 2);
    }

    #[test]
    fn interleaved_permutes_same_time_messages_but_not_timers() {
        let deliver = |policy: DeliveryPolicy| -> Vec<&'static str> {
            let mut sched = Scheduler::new(policy);
            for (i, msg) in [
                Msg::ViewPush { round: 0, view: vec![] },
                Msg::GlobalBroadcast { round: 0 },
                Msg::MixTrain { round: 0, epochs: 1 },
                Msg::RoundStart { round: 0 },
            ]
            .into_iter()
            .enumerate()
            {
                let _ = i;
                sched.send_at(4, 0, msg);
            }
            sched.timer_at(4, 0, Msg::RoundEnd { round: 0 });
            let mut t = tape();
            sched.run_until(4, std::slice::from_mut(&mut &mut t));
            t.log.iter().map(|&(_, _, l, _)| l).collect()
        };
        let fifo = deliver(DeliveryPolicy::Lockstep);
        // Some seed produces a genuinely different message order (4! = 24
        // permutations; seeds 0..16 overwhelmingly cover a non-identity).
        let mut saw_permutation = false;
        for seed in 0..16 {
            let got = deliver(DeliveryPolicy::Interleaved { seed });
            // The timer still closes the slot.
            assert_eq!(*got.last().unwrap(), "msg:round_end");
            // Same multiset of messages.
            let mut a = fifo.clone();
            let mut b = got.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            if got != fifo {
                saw_permutation = true;
            }
        }
        assert!(saw_permutation, "no seed permuted the same-time messages");
        // And a fixed seed is deterministic.
        assert_eq!(
            deliver(DeliveryPolicy::Interleaved { seed: 9 }),
            deliver(DeliveryPolicy::Interleaved { seed: 9 })
        );
    }

    #[test]
    fn half_drained_queue_survives_save_restore() {
        // Drain half the events, save the rest, restore into a fresh
        // scheduler: the concatenated delivery order equals an uninterrupted
        // drain — the property checkpoint/resume across a non-empty event
        // queue rests on.
        let fill = |sched: &mut Scheduler| {
            for i in 0..12u64 {
                sched.send_at(i / 3, (i % 2) as NodeId, Msg::RoundStart { round: i });
                if i % 4 == 0 {
                    // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                    sched.timer_at(i / 3, 0, Msg::RefreshTimer { node: i as u32 });
                }
            }
        };
        let mut straight = Scheduler::new(DeliveryPolicy::Lockstep);
        fill(&mut straight);
        let mut full_log = tape();
        let mut nodes = [tape(), tape()];
        {
            let mut refs: Vec<&mut Tape> = nodes.iter_mut().collect();
            straight.run_until(10, &mut refs);
            for n in &mut nodes {
                full_log.log.append(&mut n.log);
            }
        }

        let mut first = Scheduler::new(DeliveryPolicy::Lockstep);
        fill(&mut first);
        let mut a = [tape(), tape()];
        {
            let mut refs: Vec<&mut Tape> = a.iter_mut().collect();
            first.run_until(1, &mut refs);
        }
        let pending = first.drain_pending();
        assert!(!pending.is_empty(), "queue must be non-empty at the cut");

        let mut resumed = Scheduler::new(DeliveryPolicy::Lockstep);
        resumed.install_pending(pending);
        let mut b = [tape(), tape()];
        {
            let mut refs: Vec<&mut Tape> = b.iter_mut().collect();
            resumed.run_until(10, &mut refs);
        }
        let mut spliced = tape();
        for n in a.iter_mut().chain(b.iter_mut()) {
            spliced.log.append(&mut n.log);
        }
        // Per-node logs concatenate; compare as multisets per (time, node).
        let canon = |mut log: Vec<(u64, NodeId, &'static str, bool)>| {
            log.sort();
            log
        };
        assert_eq!(canon(spliced.log), canon(full_log.log));
    }

    #[test]
    fn saved_events_roundtrip_preserves_payloads() {
        let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
        let model = SharedModel {
            owner: cia_data::UserId::new(7),
            round: 3,
            owner_emb: Some(vec![1.0, -2.5]),
            agg: vec![0.5; 4],
        };
        sched.send_at(9, 1, Msg::ModelPush { round: 3, sender: 0, dest: 1, model: model.clone() });
        sched.timer_at(8, 0, Msg::RefreshTimer { node: 4 });
        let pending = sched.drain_pending();
        assert_eq!(pending.len(), 2);
        // Delivery order: the earlier timer first.
        assert_eq!(
            pending[0],
            SavedEvent { at: 8, dst: 0, timer: true, msg: Msg::RefreshTimer { node: 4 } }
        );
        assert_eq!(pending[1].msg, Msg::ModelPush { round: 3, sender: 0, dest: 1, model });
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct BadNode;
        impl Node for BadNode {
            fn on_message(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
                ctx.send_at(ctx.now() - 1, 0, Msg::RoundStart { round: 0 });
            }
        }
        let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
        sched.send_at(5, 0, Msg::RoundStart { round: 0 });
        sched.run_until(5, &mut [BadNode]);
    }
}
