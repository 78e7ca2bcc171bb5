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
//! # Batch dispatch
//!
//! A scheduler drives one *hub* (node [`HUB`]: the FedAvg server or the
//! gossip coordinator, which owns the adversary's observer) and a slice of
//! *seats* (node `i + 1` is seat `i`: a client or a gossip peer). It pops
//! every queued event that shares the head's virtual time, lane and message
//! kind — one *batch* — and delivers it as follows:
//!
//! * the hub's events run on the calling thread, in delivery order;
//! * the seats' events are grouped by destination, FIFO within a seat, and
//!   the groups fan out over `cia_data::parallel` workers (`CIA_THREADS`;
//!   at `1`, or with a single seat, the same code runs inline);
//! * handlers write into their own outbox ([`Ctx`]); after the batch the
//!   outboxes are queued by the emitting event's batch position, then by
//!   emission order. These are exactly the sequence numbers one-at-a-time
//!   delivery would assign, so the Lockstep delivery order — and every byte
//!   downstream of it — does not depend on the thread count.
//!
//! The contract a handler relies on: a message sent for the current virtual
//! time is delivered after the batch that sent it, and seats in one batch
//! never see each other's effects. That holds for one-at-a-time delivery
//! too, with one exception the scheduler rejects with a panic: a timer
//! handler, other than the batch's last, that emits a message for the
//! current time (serial delivery would hand that message over before the
//! remaining timers of the batch). The trace records one `msg:<label>` span
//! per message-lane batch, on the calling thread; workers open none.
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

/// A node address inside one scheduler: [`HUB`] for the hub handed to
/// [`Scheduler::run_until`], `i + 1` for seat `i`.
pub type NodeId = u32;

/// Typed protocol messages. One enum covers both protocols so a single
/// scheduler, codec and trace vocabulary serves FedAvg and gossip alike;
/// nodes simply ignore variants that are not addressed to their role.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // --- Federated learning (server ⇄ client) ---
    /// Server → client: train this round on the broadcast global model.
    /// Every sampled client gets its request in the same slot, so the
    /// clients train in one parallel batch; `snap` carries a recycled
    /// snapshot carcass when the round materializes client models for the
    /// observer or a DP transform.
    TrainRequest {
        /// Round index.
        round: u64,
        /// Local epochs to run.
        epochs: usize,
        /// The broadcast global model (shared, read-only).
        global: Arc<Vec<f32>>,
        /// Snapshot carcass to fill when the round materializes models.
        snap: Option<SharedModel>,
    },
    /// Client → server: the trained reply. No message carries the
    /// aggregation itself: once the training batch drains, the server folds
    /// every sampled client's update in one data-parallel pass over its own
    /// accumulator (`cia_federated::fold_updates`).
    ModelUpdate {
        /// Round index.
        round: u64,
        /// The client's index.
        client: u32,
        /// Final local training loss.
        loss: f32,
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
/// drained in `(time, lane, order, seq)` order, one *batch* at a time,
/// against a hub node and a slice of seat nodes (see the crate docs for the
/// batch contract).
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
    /// batch is bracketed by one span named [`Msg::label`], opened on the
    /// driving thread.
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

    fn push(&mut self, at: u64, lane: Lane, dst: NodeId, msg: Msg) {
        let seq = self.seq;
        self.seq += 1;
        let order = match (self.policy, lane) {
            (DeliveryPolicy::Interleaved { seed }, Lane::Message) => {
                mix64(seed ^ at.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq)
            }
            _ => 0,
        };
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
    /// while draining), advancing the virtual clock. Node [`HUB`] is `hub`;
    /// node `i + 1` is `seats[i]`.
    ///
    /// Events are dispatched in batches: every queued event of one virtual
    /// time, lane and message kind ([`Msg::label`]), in delivery order. The
    /// hub's events run on the calling thread; the seats' events are grouped
    /// by destination (FIFO within a seat) and the groups fan out over
    /// `cia_data::parallel` workers. Everything the handlers emit is queued
    /// after the batch, by the batch position of the event that emitted it,
    /// then by emission order — exactly the sequence numbers one-at-a-time
    /// delivery assigns, so the [`DeliveryPolicy::Lockstep`] delivery order
    /// is the serial one for any `CIA_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses a node outside `hub` and `seats`, or if
    /// a timer handler other than the batch's last emits a message for the
    /// current virtual time (one-at-a-time delivery would have delivered it
    /// before the batch's remaining timers).
    pub fn run_until<H: Node, S: Node + Send>(&mut self, until: u64, hub: &mut H, seats: &mut [S]) {
        while let Some(Reverse(head)) = self.queue.peek().filter(|Reverse(e)| e.at <= until) {
            debug_assert!(head.at >= self.now, "virtual time must be monotone");
            let (at, lane, label) = (head.at, head.lane, head.msg.label());
            self.now = at;
            let mut batch = Vec::new();
            while let Some(Reverse(e)) = self.queue.peek() {
                if (e.at, e.lane, e.msg.label()) != (at, lane, label) {
                    break;
                }
                let Reverse(e) = self.queue.pop().expect("peeked");
                batch.push((e.dst, e.msg));
            }
            let last = batch.len() - 1;
            let outboxes = {
                let _span = (lane == Lane::Message).then(|| self.obs.span(label));
                dispatch(lane, at, batch, hub, seats)
            };
            for (pos, out) in outboxes.into_iter().enumerate() {
                for o in out {
                    assert!(
                        lane == Lane::Message || pos == last || o.at > at || o.lane == Lane::Timer,
                        "a timer batch emitted a same-time message before its last timer ({label})"
                    );
                    self.push(o.at, o.lane, o.dst, o.msg);
                }
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

/// The hub's node address: the node handed to [`Scheduler::run_until`] as
/// `hub` (seat `i` is node `i + 1`).
pub const HUB: NodeId = 0;

/// An event a handler emitted, queued once its batch completes.
#[derive(Debug)]
struct Outgoing {
    at: u64,
    lane: Lane,
    dst: NodeId,
    msg: Msg,
}

/// One seat's share of a batch: its events in FIFO order, each with the
/// batch position it came from, and the outboxes the handlers filled.
struct SeatGroup<'a, S> {
    me: NodeId,
    seat: &'a mut S,
    events: Vec<(usize, Msg)>,
    outs: Vec<(usize, Vec<Outgoing>)>,
}

fn deliver<N: Node>(node: &mut N, lane: Lane, msg: Msg, ctx: &mut Ctx<'_>) {
    match lane {
        Lane::Message => node.on_message(msg, ctx),
        Lane::Timer => node.on_timer(msg, ctx),
    }
}

/// Runs one batch and returns each event's outbox, indexed by batch
/// position.
fn dispatch<H: Node, S: Node + Send>(
    lane: Lane,
    now: u64,
    batch: Vec<(NodeId, Msg)>,
    hub: &mut H,
    seats: &mut [S],
) -> Vec<Vec<Outgoing>> {
    let mut outboxes: Vec<Vec<Outgoing>> = (0..batch.len()).map(|_| Vec::new()).collect();
    let mut seat_events = Vec::new();
    for (pos, (dst, msg)) in batch.into_iter().enumerate() {
        if dst == HUB {
            deliver(hub, lane, msg, &mut Ctx { out: &mut outboxes[pos], now, me: HUB });
        } else {
            assert!(
                dst as usize <= seats.len(),
                "event addressed to node {dst}, outside the hub and {} seats",
                seats.len()
            );
            seat_events.push((dst, pos, msg));
        }
    }
    // A stable sort keeps each seat's events in batch (FIFO) order.
    seat_events.sort_by_key(|&(dst, ..)| dst);
    let mut groups: Vec<SeatGroup<'_, S>> = Vec::new();
    let mut rest = seats;
    let mut first = 1;
    for (dst, pos, msg) in seat_events {
        if groups.last().is_some_and(|g| g.me == dst) {
            groups.last_mut().expect("checked").events.push((pos, msg));
            continue;
        }
        let (head, tail) = std::mem::take(&mut rest).split_at_mut((dst - first) as usize + 1);
        let seat = head.last_mut().expect("split keeps the destination");
        groups.push(SeatGroup { me: dst, seat, events: vec![(pos, msg)], outs: Vec::new() });
        rest = tail;
        first = dst + 1;
    }
    cia_data::parallel::par_for_each_mut(&mut groups, |_, g| {
        for (pos, msg) in std::mem::take(&mut g.events) {
            let mut out = Vec::new();
            deliver(g.seat, lane, msg, &mut Ctx { out: &mut out, now, me: g.me });
            g.outs.push((pos, out));
        }
    });
    for g in groups {
        for (pos, out) in g.outs {
            outboxes[pos] = out;
        }
    }
    outboxes
}

/// The per-delivery context a [`Node`] handler sends and schedules through.
/// Emissions land in the handler's own outbox and are queued when the batch
/// completes (see [`Scheduler::run_until`]).
pub struct Ctx<'a> {
    out: &'a mut Vec<Outgoing>,
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
        self.out.push(Outgoing { at, lane, dst, msg });
    }

    /// Sends `msg` to `dst`, delivered at the current virtual time, after
    /// the current batch (and after every already-queued same-time message
    /// under [`DeliveryPolicy::Lockstep`]).
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

    type LogEntry = (u64, NodeId, u64, bool);

    /// Tape node: records every delivery as `(now, me, id, timer)`, where
    /// `id` is the `round` payload, and — when `relay` is set — emits a
    /// fixed fan of follow-ups derived from `(id, me)` (see [`fan`]).
    #[derive(Default)]
    struct Tape {
        log: Vec<LogEntry>,
        relay: bool,
        nodes: u32,
    }

    /// The follow-ups a relaying tape emits for delivery `id` at node `me`:
    /// `(timer, delay, dst, id)`. Messages relay same-time and one slot
    /// later; timers never emit a same-time message.
    fn fan(id: u64, me: NodeId, nodes: u32, timer: bool) -> Vec<(bool, u64, NodeId, u64)> {
        let n = u64::from(nodes);
        let to = |k: u64| NodeId::try_from((id * k + u64::from(me)) % n).expect("small");
        let mut out = Vec::new();
        if timer {
            if id.is_multiple_of(3) && id < 300 {
                out.push((false, 1, to(5), id + 401));
                out.push((true, 0, to(11), id + 302));
            }
            return out;
        }
        if id < 120 {
            out.push((false, 0, to(7), id * 3 + 1));
        }
        if id.is_multiple_of(2) && id < 200 {
            out.push((false, 1, to(13), id * 3 + 2));
        }
        if id.is_multiple_of(5) {
            out.push((true, 0, me, id + 3));
        }
        out
    }

    impl Node for Tape {
        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            self.record(msg, ctx, false);
        }
        fn on_timer(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            self.record(msg, ctx, true);
        }
    }

    impl Tape {
        fn record(&mut self, msg: Msg, ctx: &mut Ctx<'_>, timer: bool) {
            let id = match msg {
                Msg::RoundStart { round }
                | Msg::GlobalBroadcast { round }
                | Msg::RoundEnd { round } => round,
                _ => u64::MAX,
            };
            self.log.push((ctx.now(), ctx.me(), id, timer));
            if !self.relay || id == u64::MAX {
                return;
            }
            for (t, delay, dst, next) in fan(id, ctx.me(), self.nodes, timer) {
                if t {
                    ctx.timer_at(ctx.now() + delay, dst, Msg::RoundEnd { round: next });
                } else if next % 4 == 1 {
                    // A second message kind, so same-time runs split into
                    // several batches.
                    ctx.send_at(ctx.now() + delay, dst, Msg::GlobalBroadcast { round: next });
                } else {
                    ctx.send_at(ctx.now() + delay, dst, Msg::RoundStart { round: next });
                }
            }
        }
    }

    fn tape() -> Tape {
        Tape::default()
    }

    fn relays(nodes: u32) -> Vec<Tape> {
        (0..nodes).map(|_| Tape { relay: true, nodes, ..Tape::default() }).collect()
    }

    #[test]
    fn lockstep_delivers_fifo_messages_before_timers() {
        let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
        sched.timer_at(5, 0, Msg::RoundEnd { round: 0 });
        sched.send_at(5, 0, Msg::GlobalBroadcast { round: 0 });
        sched.send_at(3, 0, Msg::RoundStart { round: 0 });
        sched.send_at(5, 0, Msg::ViewPush { round: 0, view: vec![] });
        let mut t = tape();
        sched.run_until(10, &mut t, &mut Vec::<Tape>::new());
        let labels: Vec<_> = t.log.iter().map(|&(at, _, id, timer)| (at, id, timer)).collect();
        assert_eq!(labels, vec![(3, 0, false), (5, 0, false), (5, u64::MAX, false), (5, 0, true)]);
        assert_eq!(sched.now(), 10);
        assert_eq!(sched.pending_len(), 0);
    }

    #[test]
    fn causal_same_time_chains_self_order() {
        struct Chain(Vec<u64>);
        impl Node for Chain {
            fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                if let Msg::RoundStart { round } = msg {
                    self.0.push(ctx.now());
                    // Each hop enqueues the next at the same virtual time.
                    if round > 0 {
                        ctx.send(ctx.me(), Msg::RoundStart { round: round - 1 });
                    }
                }
            }
        }
        let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
        sched.send_at(1, 0, Msg::RoundStart { round: 3 });
        let mut c = Chain(Vec::new());
        sched.run_until(1, &mut c, &mut Vec::<Chain>::new());
        assert_eq!(c.0, vec![1; 4], "each hop delivered at time 1");
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
        sched.send_at(2, 0, Msg::RoundStart { round: 0 });
        sched.send_at(7, 0, Msg::RoundStart { round: 1 });
        let mut t = tape();
        sched.run_until(4, &mut t, &mut Vec::<Tape>::new());
        assert_eq!(t.log.len(), 1);
        assert_eq!(sched.pending_len(), 1);
        sched.run_until(7, &mut t, &mut Vec::<Tape>::new());
        assert_eq!(t.log.len(), 2);
    }

    #[test]
    fn interleaved_permutes_same_time_messages_but_not_timers() {
        let deliver = |policy: DeliveryPolicy| -> Vec<u64> {
            let mut sched = Scheduler::new(policy);
            for id in 0..6 {
                sched.send_at(4, 0, Msg::RoundStart { round: id });
            }
            sched.timer_at(4, 0, Msg::RoundEnd { round: 99 });
            let mut t = tape();
            sched.run_until(4, &mut t, &mut Vec::<Tape>::new());
            t.log.iter().map(|&(_, _, id, _)| id).collect()
        };
        let fifo = deliver(DeliveryPolicy::Lockstep);
        assert_eq!(fifo, vec![0, 1, 2, 3, 4, 5, 99]);
        // Some seed produces a genuinely different message order (6! = 720
        // permutations; seeds 0..16 overwhelmingly cover a non-identity).
        let mut saw_permutation = false;
        for seed in 0..16 {
            let got = deliver(DeliveryPolicy::Interleaved { seed });
            // The timer still closes the slot.
            assert_eq!(*got.last().unwrap(), 99);
            // Same multiset of messages.
            let mut sorted = got.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, fifo);
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
        let run = |sched: &mut Scheduler, until: u64| -> Vec<LogEntry> {
            let (mut hub, mut seats) = (tape(), vec![tape()]);
            sched.run_until(until, &mut hub, &mut seats);
            let mut log = hub.log;
            log.append(&mut seats[0].log);
            log
        };
        let mut straight = Scheduler::new(DeliveryPolicy::Lockstep);
        fill(&mut straight);
        let mut full_log = run(&mut straight, 10);

        let mut first = Scheduler::new(DeliveryPolicy::Lockstep);
        fill(&mut first);
        let mut spliced = run(&mut first, 1);
        let pending = first.drain_pending();
        assert!(!pending.is_empty(), "queue must be non-empty at the cut");

        let mut resumed = Scheduler::new(DeliveryPolicy::Lockstep);
        resumed.install_pending(pending);
        spliced.append(&mut run(&mut resumed, 10));
        // Per-node logs concatenate; compare as multisets per (time, node).
        spliced.sort_unstable();
        full_log.sort_unstable();
        assert_eq!(spliced, full_log);
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
        sched.run_until(5, &mut BadNode, &mut Vec::<BadNode>::new());
    }

    /// One-at-a-time delivery — the scheduler before batch dispatch — kept
    /// as the reference the batch path must reproduce under Lockstep.
    /// Delivers every event with `at <= until` to `nodes` (node 0 is the
    /// hub) and returns the rest in delivery order.
    fn serial_reference(init: &[SavedEvent], nodes: &mut [Tape], until: u64) -> Vec<SavedEvent> {
        type Queue = BinaryHeap<Reverse<(u64, Lane, usize)>>;
        fn push(q: &mut Queue, slab: &mut Vec<Option<(NodeId, Msg)>>, o: Outgoing) {
            q.push(Reverse((o.at, o.lane, slab.len())));
            slab.push(Some((o.dst, o.msg)));
        }
        let (mut queue, mut slab) = (Queue::new(), Vec::new());
        for e in init {
            let lane = if e.timer { Lane::Timer } else { Lane::Message };
            push(
                &mut queue,
                &mut slab,
                Outgoing { at: e.at, lane, dst: e.dst, msg: e.msg.clone() },
            );
        }
        let mut left = Vec::new();
        while let Some(Reverse((at, lane, seq))) = queue.pop() {
            let (dst, msg) = slab[seq].take().expect("delivered once");
            if at > until {
                left.push(SavedEvent { at, dst, timer: lane == Lane::Timer, msg });
                continue;
            }
            let mut out = Vec::new();
            deliver(
                &mut nodes[dst as usize],
                lane,
                msg,
                &mut Ctx { out: &mut out, now: at, me: dst },
            );
            for o in out {
                push(&mut queue, &mut slab, o);
            }
        }
        left
    }

    #[test]
    fn batch_dispatch_matches_the_serial_reference_at_any_thread_count() {
        let nodes = 7u32;
        let mut init = Vec::new();
        // Two messages to one seat in one slot (node 2 at t=0, node 3 at
        // t=1), hub traffic, and a timer sharing a slot with messages.
        for (i, (at, dst)) in
            [(0, 2), (0, 2), (0, 0), (0, 5), (1, 3), (1, 3), (1, 1), (2, 6)].into_iter().enumerate()
        {
            let msg = Msg::RoundStart { round: 4 * i as u64 };
            init.push(SavedEvent { at, dst, timer: false, msg });
        }
        init.push(SavedEvent { at: 0, dst: 4, timer: true, msg: Msg::RoundEnd { round: 9 } });
        init.push(SavedEvent { at: 1, dst: 0, timer: true, msg: Msg::RoundEnd { round: 6 } });
        let until = 3;
        let mut reference = relays(nodes);
        let left = serial_reference(&init, &mut reference, until);
        let delivered: usize = reference.iter().map(|t| t.log.len()).sum();
        assert!(delivered > 60, "the fan is too thin to test anything: {delivered}");
        assert!(!left.is_empty(), "some events must outlive the cut");
        for threads in ["1", "2", "4"] {
            std::env::set_var("CIA_THREADS", threads);
            let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
            sched.install_pending(init.clone());
            let mut all = relays(nodes);
            let (hub, seats) = all.split_first_mut().expect("nodes");
            sched.run_until(until, hub, seats);
            for (node, (got, want)) in all.iter().zip(&reference).enumerate() {
                assert_eq!(got.log, want.log, "node {node} at CIA_THREADS={threads}");
            }
            assert_eq!(sched.drain_pending(), left, "queue at CIA_THREADS={threads}");
        }
        std::env::remove_var("CIA_THREADS");
    }

    #[test]
    fn same_time_sends_land_after_their_batch() {
        // Node 2 has two messages queued at t=1; node 1, in the same batch,
        // relays a third to it at t=1. The relay arrives after both.
        #[derive(Default)]
        struct Fwd(Vec<u64>);
        impl Node for Fwd {
            fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                if let Msg::RoundStart { round } = msg {
                    self.0.push(round);
                    if round == 10 {
                        ctx.send(2, Msg::RoundStart { round: 11 });
                    }
                }
            }
        }
        let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
        sched.send_at(1, 2, Msg::RoundStart { round: 1 });
        sched.send_at(1, 1, Msg::RoundStart { round: 10 });
        sched.send_at(1, 2, Msg::RoundStart { round: 2 });
        let mut seats = [Fwd::default(), Fwd::default()];
        sched.run_until(1, &mut Fwd::default(), &mut seats);
        assert_eq!(seats[0].0, vec![10]);
        assert_eq!(seats[1].0, vec![1, 2, 11]);
    }

    #[test]
    #[should_panic(expected = "same-time message")]
    fn timer_batch_emitting_a_same_time_message_panics() {
        // Serial delivery would hand the first timer's message over before
        // the second timer fires; a batch cannot, so it refuses.
        struct Eager;
        impl Node for Eager {
            fn on_message(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
                ctx.send(HUB, Msg::RoundStart { round: 0 });
            }
        }
        let mut sched = Scheduler::new(DeliveryPolicy::Lockstep);
        sched.timer_at(5, 1, Msg::RoundEnd { round: 0 });
        sched.timer_at(5, 2, Msg::RoundEnd { round: 1 });
        sched.run_until(5, &mut Eager, &mut [Eager, Eager]);
    }
}
