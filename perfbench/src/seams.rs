//! Timing wrappers at the program's public trait seams.
//!
//! Each wrapper forwards every trait method to the wrapped value and opens a
//! [`Span`](crate::spans::Span) around the calls a workload's rounds make;
//! accessors (`user`, `agg`, …) and the sharded-store and checkpoint methods,
//! which no workload calls, forward untimed. With no tracer attached a
//! wrapper times nothing, which is how the untraced rebuilt loop runs.
//! The traced run's equality gate (see [`crate::rebuild`]) proves that the
//! wrapped pipeline computes exactly what `run_scenario` computes.

use crate::spans::{open, Seam, Tracer};
use cia_core::{FlCia, GlCiaAllPlacements, RelevanceEvaluator};
use cia_data::UserId;
use cia_federated::{RoundObserver, RoundStats};
use cia_gossip::{GossipObserver, GossipRoundStats};
use cia_models::{Participant, SharedModel, UpdateTransform};
use cia_runtime::LivenessEvent;
use rand::rngs::StdRng;
use std::sync::Arc;

/// A participant whose work methods are timed.
pub struct TimedParticipant<P> {
    inner: P,
    tracer: Option<Arc<Tracer>>,
}

impl<P> TimedParticipant<P> {
    /// Wraps `inner`; `tracer = None` times nothing.
    pub fn new(inner: P, tracer: Option<Arc<Tracer>>) -> Self {
        TimedParticipant { inner, tracer }
    }

    /// The wrapped participant.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Participant> Participant for TimedParticipant<P> {
    fn user(&self) -> UserId {
        self.inner.user()
    }

    fn agg_len(&self) -> usize {
        self.inner.agg_len()
    }

    fn agg(&self) -> &[f32] {
        self.inner.agg()
    }

    fn owner_emb(&self) -> Option<&[f32]> {
        self.inner.owner_emb()
    }

    fn absorb_agg(&mut self, agg: &[f32]) {
        let _s = open(self.tracer.as_deref(), Seam::AbsorbAgg);
        self.inner.absorb_agg(agg);
    }

    fn mix_agg(&mut self, others: &[&[f32]]) {
        let _s = open(self.tracer.as_deref(), Seam::MixAgg);
        self.inner.mix_agg(others);
    }

    fn train_local(&mut self, rng: &mut StdRng) -> f32 {
        let _s = open(self.tracer.as_deref(), Seam::TrainLocal);
        self.inner.train_local(rng)
    }

    /// Runs the trait's default fused round through this wrapper's own timed
    /// `absorb_agg`/`train_local`/`accumulate_update`, so the three phases
    /// show as children of the round. `GmfClient` keeps this default, so the
    /// sequence is the one the program runs (the equality gate checks it).
    fn fed_round(
        &mut self,
        global: &[f32],
        epochs: usize,
        rng: &mut StdRng,
        acc: Option<(f32, &mut [f32])>,
    ) -> f32 {
        let tracer = self.tracer.clone();
        let _s = open(tracer.as_deref(), Seam::FedRound);
        self.absorb_agg(global);
        let mut loss = 0.0;
        for _ in 0..epochs.max(1) {
            loss = self.train_local(rng);
        }
        if let Some((weight, acc)) = acc {
            self.accumulate_update(global, weight, acc);
        }
        loss
    }

    fn fed_round_shared(
        &mut self,
        workspace: &mut Vec<f32>,
        global: &[f32],
        epochs: usize,
        rng: &mut StdRng,
        acc: Option<(f32, &mut [f32])>,
        snapshot: Option<(u64, &mut SharedModel)>,
    ) -> f32 {
        self.inner.fed_round_shared(workspace, global, epochs, rng, acc, snapshot)
    }

    fn private_state(&self) -> Vec<f32> {
        self.inner.private_state()
    }

    fn restore_private_state(&mut self, state: &[f32]) {
        self.inner.restore_private_state(state);
    }

    fn snapshot(&self, round: u64) -> SharedModel {
        let _s = open(self.tracer.as_deref(), Seam::Snapshot);
        self.inner.snapshot(round)
    }

    fn snapshot_into(&self, round: u64, slot: &mut SharedModel) {
        let _s = open(self.tracer.as_deref(), Seam::Snapshot);
        self.inner.snapshot_into(round, slot);
    }

    fn accumulate_update(&self, reference: &[f32], weight: f32, out: &mut [f32]) {
        let _s = open(self.tracer.as_deref(), Seam::Accumulate);
        self.inner.accumulate_update(reference, weight, out);
    }

    fn num_examples(&self) -> usize {
        self.inner.num_examples()
    }

    fn evaluate_model(&self, model: &SharedModel) -> f32 {
        let _s = open(self.tracer.as_deref(), Seam::EvaluateModel);
        self.inner.evaluate_model(model)
    }

    fn state_vec(&self) -> Vec<f32> {
        self.inner.state_vec()
    }

    fn restore_state(&mut self, state: &[f32]) {
        self.inner.restore_state(state);
    }
}

/// A relevance evaluator whose `prepare` and `relevance_all` are timed.
/// `relevance_all` runs on `par_chunks_mut` workers, hence the shared,
/// thread-safe tracer.
pub struct TimedEvaluator<E> {
    inner: E,
    tracer: Option<Arc<Tracer>>,
}

impl<E> TimedEvaluator<E> {
    /// Wraps `inner`; `tracer = None` times nothing.
    pub fn new(inner: E, tracer: Option<Arc<Tracer>>) -> Self {
        TimedEvaluator { inner, tracer }
    }
}

impl<E: RelevanceEvaluator> RelevanceEvaluator for TimedEvaluator<E> {
    fn num_targets(&self) -> usize {
        self.inner.num_targets()
    }

    fn prepare(&mut self, agg: &[f32], seed: u64) {
        let _s = open(self.tracer.as_deref(), Seam::AttackPrepare);
        self.inner.prepare(agg, seed);
    }

    fn relevance_one(&self, owner_emb: Option<&[f32]>, agg: &[f32], target: usize) -> f32 {
        self.inner.relevance_one(owner_emb, agg, target)
    }

    fn relevance_all(&self, owner_emb: Option<&[f32]>, agg: &[f32], out: &mut [f32]) {
        let _s = open(self.tracer.as_deref(), Seam::AttackScore);
        self.inner.relevance_all(owner_emb, agg, out);
    }
}

/// An update transform (DP clip + noise) whose calls are timed.
pub struct TimedTransform<T> {
    inner: T,
    tracer: Option<Arc<Tracer>>,
}

impl<T> TimedTransform<T> {
    /// Wraps `inner`; `tracer = None` times nothing.
    pub fn new(inner: T, tracer: Option<Arc<Tracer>>) -> Self {
        TimedTransform { inner, tracer }
    }
}

impl<T: UpdateTransform> UpdateTransform for TimedTransform<T> {
    fn transform(&self, update: &mut [f32], rng: &mut StdRng) {
        let _s = open(self.tracer.as_deref(), Seam::Transform);
        self.inner.transform(update, rng);
    }
}

/// The attack engine behind a timed observer: how many evaluations it has
/// recorded, so a round end can be labelled as an evaluation or not.
pub trait Evaluations {
    /// Evaluations recorded so far.
    fn evaluations(&self) -> usize;
}

impl<E: RelevanceEvaluator> Evaluations for FlCia<E> {
    fn evaluations(&self) -> usize {
        self.history().len()
    }
}

impl<E: RelevanceEvaluator> Evaluations for GlCiaAllPlacements<E> {
    fn evaluations(&self) -> usize {
        self.history().len()
    }
}

/// An attack observer whose model updates and round ends are timed. It
/// implements both `RoundObserver` (FL) and `GossipObserver` (gossip) for
/// the attack it wraps.
pub struct TimedAttack<A> {
    /// The wrapped attack engine.
    pub inner: A,
    tracer: Option<Arc<Tracer>>,
}

impl<A: Evaluations> TimedAttack<A> {
    /// Wraps `inner`; `tracer = None` times nothing.
    pub fn new(inner: A, tracer: Option<Arc<Tracer>>) -> Self {
        TimedAttack { inner, tracer }
    }

    /// Runs a round end, labelled by whether it recorded an evaluation.
    fn round_end(&mut self, f: impl FnOnce(&mut A)) {
        let Some(tracer) = self.tracer.clone() else {
            f(&mut self.inner);
            return;
        };
        let before = self.inner.evaluations();
        let mut span = tracer.span(Seam::AttackRoundEnd);
        f(&mut self.inner);
        if self.inner.evaluations() > before {
            span.relabel(Seam::AttackEval);
        }
    }
}

impl<A: RoundObserver + Evaluations> RoundObserver for TimedAttack<A> {
    fn on_round_start(&mut self, round: u64) {
        self.inner.on_round_start(round);
    }

    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        self.inner.on_liveness(event);
    }

    fn on_global(&mut self, round: u64, global_agg: &[f32]) {
        self.inner.on_global(round, global_agg);
    }

    fn on_client_model(&mut self, model: &SharedModel) {
        let _s = open(self.tracer.as_deref(), Seam::AttackUpdate);
        self.inner.on_client_model(model);
    }

    fn observes_models(&self) -> bool {
        self.inner.observes_models()
    }

    fn on_round_end(&mut self, stats: &RoundStats) {
        self.round_end(|a| a.on_round_end(stats));
    }
}

impl<A: GossipObserver + Evaluations> GossipObserver for TimedAttack<A> {
    fn on_round_start(&mut self, round: u64) {
        self.inner.on_round_start(round);
    }

    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        self.inner.on_liveness(event);
    }

    fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
        let _s = open(self.tracer.as_deref(), Seam::AttackUpdate);
        self.inner.on_delivery(round, receiver, model);
    }

    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        self.round_end(|a| a.on_round_end(stats));
    }
}
