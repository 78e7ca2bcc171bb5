//! A naive reference oracle for the attack layer.
//!
//! The oracle is a scalar CIA that is plainly correct: one `Vec<f32>`
//! momentum per sender updated as `β·v + (1−β)·θ`, a toy relevance
//! evaluator, a full `sort_by(rank_desc)` ranking, and accuracy and bounds
//! computed by hand. The optimized engines must record exactly its history,
//! bit for bit, in three roles: the FL server observing uploads (one at a
//! time, and in one batch per round), a gossip coalition that relocates once
//! mid-run, and the all-placements sweep.
//! Coarse parameter levels make exact score ties common, and some models
//! are destroyed (all NaN).
//!
//! A second oracle pins `ItemSetEvaluator`'s blocked kernel against the
//! plain definition of relevance: score the catalog, then take
//! `items.iter().map(..).sum::<f32>() / len` per target.

use cia_core::metrics::rank_desc;
use cia_core::{
    CiaConfig, GlCiaAllPlacements, ItemSetEvaluator, MomentumCia, RelevanceEvaluator,
    RelevanceKind, RoundPoint, BLOCK,
};
use cia_data::UserId;
use cia_federated::{RoundObserver, RoundStats};
use cia_gossip::{GossipObserver, GossipRoundStats};
use cia_models::{GmfHyper, GmfSpec, RelevanceScorer, SharedModel};
use cia_runtime::LivenessEvent;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relevance for target `t`: the bias parameter `agg[0]` plus `w · agg[i]`
/// for each of the target's parameter indices `i`, where `w` is the first
/// entry of the owner embedding. Models that share no embedding are scored
/// with a fictive one that `prepare` derives from the reference parameters,
/// as under Share-less.
#[derive(Clone)]
struct ToyEvaluator {
    targets: Vec<Vec<usize>>,
    fictive: f32,
}

impl RelevanceEvaluator for ToyEvaluator {
    fn num_targets(&self) -> usize {
        self.targets.len()
    }

    fn prepare(&mut self, agg: &[f32], seed: u64) {
        self.fictive = agg[0] + (seed % 4) as f32 * 0.25;
    }

    fn relevance_one(&self, owner_emb: Option<&[f32]>, agg: &[f32], target: usize) -> f32 {
        let w = owner_emb.map_or(self.fictive, |e| e[0]);
        let mut score = agg[0];
        for &i in &self.targets[target] {
            score += w * agg[i];
        }
        score
    }
}

/// One random attack instance: `n` users, one target per user.
struct Instance {
    n: usize,
    dim: usize,
    with_emb: bool,
    cfg: CiaConfig,
    evaluator: ToyEvaluator,
    truths: Vec<Vec<UserId>>,
    owners: Vec<Option<UserId>>,
}

fn instance(rng: &mut StdRng) -> Instance {
    let n = rng.gen_range(2usize..10);
    let dim = rng.gen_range(1usize..4);
    // Mostly fewer slots than candidates, so the order decides the hits;
    // sometimes more slots than users.
    let k = if rng.gen_bool(0.1) { n + 1 } else { rng.gen_range(1..=n / 2) };
    let beta = [0.0f32, 0.5, 0.75, 0.9, 1.0][rng.gen_range(0usize..5)];
    let cfg = CiaConfig { k, beta, eval_every: rng.gen_range(1u64..4), seed: rng.gen_range(0..8) };
    let targets = (0..n)
        .map(|_| (0..rng.gen_range(0..=dim)).map(|_| rng.gen_range(0..dim)).collect())
        .collect();
    let truths = (0..n)
        .map(|_| {
            let mut truth: Vec<UserId> =
                // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
                (0..n as u32).filter(|_| rng.gen_bool(0.4)).map(UserId::new).collect();
            truth.truncate(k);
            truth
        })
        .collect();
    // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
    let owners = (0..n as u32).map(|t| rng.gen_bool(0.7).then(|| UserId::new(t))).collect();
    Instance {
        n,
        dim,
        with_emb: rng.gen_bool(0.5),
        cfg,
        evaluator: ToyEvaluator { targets, fictive: 1.0 },
        truths,
        owners,
    }
}

/// A parameter on a coarse grid (exact ties), or NaN for a destroyed model.
fn level(rng: &mut StdRng, destroyed: bool) -> f32 {
    if destroyed {
        f32::NAN
    } else {
        rng.gen_range(-2i32..=2) as f32 * 0.5
    }
}

fn params(rng: &mut StdRng, len: usize) -> Vec<f32> {
    let destroyed = rng.gen_bool(0.1);
    (0..len).map(|_| level(rng, destroyed)).collect()
}

fn model(rng: &mut StdRng, inst: &Instance, owner: usize, round: u64) -> SharedModel {
    let destroyed = rng.gen_bool(0.1);
    SharedModel {
        // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
        owner: UserId::new(owner as u32),
        round,
        owner_emb: inst.with_emb.then(|| vec![level(rng, destroyed)]),
        agg: (0..inst.dim).map(|_| level(rng, destroyed)).collect(),
    }
}

fn live_mask(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen_bool(0.8)).collect()
}

/// A non-empty member set.
fn members(rng: &mut StdRng, n: usize) -> Vec<u32> {
    // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
    let picked: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.3)).collect();
    if picked.is_empty() {
        // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
        vec![rng.gen_range(0..n as u32)]
    } else {
        picked
    }
}

fn ema(v: &mut [f32], beta: f32, theta: &[f32]) {
    for (x, t) in v.iter_mut().zip(theta) {
        *x = beta * *x + (1.0 - beta) * t;
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for x in v {
        sum += x;
    }
    sum / v.len() as f64
}

/// The recorded point: means of each slice, and the Best-10% floor as the
/// ⌈10%⌉-th largest accuracy (at least the largest).
fn point(round: u64, accs: &[f64], uppers: &[f64], onlines: &[f64]) -> RoundPoint {
    let best10 = if accs.is_empty() {
        0.0
    } else {
        let mut sorted = accs.to_vec();
        // cia-lint: allow(D08, the oracle keeps the plain partial order on purpose, to check the total_cmp order of best_fraction_floor; accuracies here are never NaN)
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let take = ((sorted.len() as f64 * 0.1).ceil() as usize).clamp(1, sorted.len());
        sorted[take - 1]
    };
    RoundPoint {
        round,
        aac: mean(accs),
        best10,
        upper_bound: mean(uppers),
        upper_bound_online: mean(onlines),
    }
}

/// Full-sort ranking: the best `k` ids under `rank_desc`.
fn rank(mut scored: Vec<(f32, u32)>, k: usize) -> Vec<u32> {
    scored.sort_by(rank_desc);
    scored.into_iter().take(k).map(|(_, id)| id).collect()
}

fn accuracy(predicted: &[u32], truth: &[UserId], k: usize) -> f64 {
    let hits = predicted.iter().filter(|&&u| truth.contains(&UserId::new(u))).count();
    hits as f64 / k as f64
}

/// `(round, aac, best10, upper, online)` with every float as raw bits.
fn bits(history: &[RoundPoint]) -> Vec<(u64, u64, u64, u64, u64)> {
    history
        .iter()
        .map(|p| {
            (
                p.round,
                p.aac.to_bits(),
                p.best10.to_bits(),
                p.upper_bound.to_bits(),
                p.upper_bound_online.to_bits(),
            )
        })
        .collect()
}

/// One sender's momentum: the averaged owner embedding and aggregate.
type Momentum = (Option<Vec<f32>>, Vec<f32>);

/// The scalar momentum CIA (Algorithms 1 and 2).
struct NaiveCia {
    cfg: CiaConfig,
    evaluator: ToyEvaluator,
    truths: Vec<Vec<UserId>>,
    owners: Vec<Option<UserId>>,
    /// Per sender, `None` until its first observed model.
    momentum: Vec<Option<Momentum>>,
    /// Gossip receivers whose deliveries are observed.
    members: Vec<bool>,
    live: Vec<bool>,
    reference: Option<Vec<f32>>,
    prepared: bool,
    history: Vec<RoundPoint>,
}

impl NaiveCia {
    fn new(inst: &Instance) -> Self {
        NaiveCia {
            cfg: inst.cfg,
            evaluator: inst.evaluator.clone(),
            truths: inst.truths.clone(),
            owners: inst.owners.clone(),
            momentum: vec![None; inst.n],
            members: vec![true; inst.n],
            live: vec![true; inst.n],
            reference: None,
            prepared: false,
            history: Vec::new(),
        }
    }

    fn set_members(&mut self, ids: &[u32]) {
        for (u, m) in self.members.iter_mut().enumerate() {
            // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
            *m = ids.contains(&(u as u32));
        }
    }

    fn observe(&mut self, model: &SharedModel) {
        let beta = self.cfg.beta;
        let slot = &mut self.momentum[model.owner.index()];
        match slot {
            None => *slot = Some((model.owner_emb.clone(), model.agg.clone())),
            Some((emb, agg)) => {
                ema(agg, beta, &model.agg);
                if let (Some(e), Some(theta)) = (emb, &model.owner_emb) {
                    ema(e, beta, theta);
                }
            }
        }
    }

    fn deliver(&mut self, receiver: usize, model: &SharedModel) {
        if self.members[receiver] {
            self.reference = Some(model.agg.clone());
            self.observe(model);
        }
    }

    fn end_round(&mut self, round: u64) {
        if !(round + 1).is_multiple_of(self.cfg.eval_every) {
            return;
        }
        if let Some(reference) = &self.reference {
            if !self.prepared || round.is_multiple_of(self.cfg.eval_every * 4) {
                self.evaluator.prepare(reference, self.cfg.seed ^ round);
                self.prepared = true;
            }
        }
        let k = self.cfg.k;
        let (mut accs, mut uppers, mut onlines) = (Vec::new(), Vec::new(), Vec::new());
        for (t, truth) in self.truths.iter().enumerate() {
            let mut scored = Vec::new();
            for (u, m) in self.momentum.iter().enumerate() {
                // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
                let id = u as u32;
                if let Some((emb, agg)) = m {
                    if self.owners[t] != Some(UserId::new(id)) {
                        scored.push((self.evaluator.relevance_one(emb.as_deref(), agg, t), id));
                    }
                }
            }
            accs.push(accuracy(&rank(scored, k), truth, k));
            let seen = truth.iter().filter(|u| self.momentum[u.index()].is_some()).count();
            let seen_live = truth
                .iter()
                .filter(|u| self.momentum[u.index()].is_some() && self.live[u.index()])
                .count();
            uppers.push(seen as f64 / k as f64);
            onlines.push(seen_live as f64 / k as f64);
        }
        self.history.push(point(round, &accs, &uppers, &onlines));
    }
}

/// The scalar all-placements sweep: node `u` attacks with its own target,
/// keeping a score EMA per (observer, sender). A NaN EMA means the sender is
/// not in the observer's view: never heard from, or its scores destroyed.
struct NaivePlacements {
    cfg: CiaConfig,
    evaluator: ToyEvaluator,
    truths: Vec<Vec<UserId>>,
    scores: Vec<Vec<f32>>,
    live: Vec<bool>,
    prepared: bool,
    history: Vec<RoundPoint>,
}

impl NaivePlacements {
    fn deliver(&mut self, receiver: usize, model: &SharedModel) {
        if !self.prepared {
            self.evaluator.prepare(&model.agg, self.cfg.seed);
            self.prepared = true;
        }
        let y = self.evaluator.relevance_one(model.owner_emb.as_deref(), &model.agg, receiver);
        let s = &mut self.scores[receiver][model.owner.index()];
        *s = if s.is_nan() { y } else { self.cfg.beta * *s + (1.0 - self.cfg.beta) * y };
    }

    fn end_round(&mut self, round: u64) {
        if !(round + 1).is_multiple_of(self.cfg.eval_every) {
            return;
        }
        let k = self.cfg.k;
        let (mut accs, mut uppers, mut onlines) = (Vec::new(), Vec::new(), Vec::new());
        for (obs, row) in self.scores.iter().enumerate() {
            let scored: Vec<(f32, u32)> = row
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_nan())
                // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
                .map(|(u, &s)| (s, u as u32))
                .collect();
            if scored.is_empty() {
                // No vantage point: zero accuracy, and no say in the bounds.
                accs.push(0.0);
                continue;
            }
            let truth = &self.truths[obs];
            accs.push(accuracy(&rank(scored, k), truth, k));
            let seen = truth.iter().filter(|u| !row[u.index()].is_nan()).count();
            let seen_live =
                truth.iter().filter(|u| !row[u.index()].is_nan() && self.live[u.index()]).count();
            uppers.push(seen as f64 / k as f64);
            onlines.push(seen_live as f64 / k as f64);
        }
        self.history.push(point(round, &accs, &uppers, &onlines));
    }
}

/// A scorer that reads item `i`'s score straight out of the parameters:
/// `w · agg[i]`, with `w` the user embedding's one entry (1 without one).
/// Parameter values therefore pick the scores exactly, signed zeros,
/// infinities and NaN included. Its fictive Share-less embedding is ±1 by
/// the parity of the target's size.
struct LookupScorer {
    items: u32,
}

impl RelevanceScorer for LookupScorer {
    fn num_items(&self) -> u32 {
        self.items
    }

    fn agg_len(&self) -> usize {
        self.items as usize
    }

    fn user_emb_len(&self) -> usize {
        1
    }

    fn score_items(&self, user_emb: Option<&[f32]>, agg: &[f32], out: &mut [f32]) {
        self.score_item_range(user_emb, agg, 0, out);
    }

    fn score_item_range(&self, user_emb: Option<&[f32]>, agg: &[f32], start: u32, out: &mut [f32]) {
        let w = user_emb.map_or(1.0, |e| e[0]);
        for (o, &a) in out.iter_mut().zip(&agg[start as usize..]) {
            *o = w * a;
        }
    }

    fn train_adversary_embedding(
        &self,
        _agg: &[f32],
        target_items: &[u32],
        _warm_start: Option<&[f32]>,
        _rng: &mut StdRng,
    ) -> Option<Vec<f32>> {
        Some(vec![if target_items.len().is_multiple_of(2) { 1.0 } else { -1.0 }])
    }
}

/// Per-item values from which float sums come out differently when
/// reordered, plus signed zeros and the non-finite values.
const FINITE: [f32; 8] = [0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 1e8, -1e8];
const SPECIAL: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

/// One lookup model's parameters: finite mixed magnitudes, only signed
/// zeros (so a whole target can sum to `-0.0`), or anything at all.
fn lookup_params(rng: &mut StdRng, len: usize) -> Vec<f32> {
    let regime = rng.gen_range(0u32..3);
    (0..len)
        .map(|_| match regime {
            0 => FINITE[rng.gen_range(0..FINITE.len())],
            1 => FINITE[rng.gen_range(0usize..2)],
            _ if rng.gen_bool(0.3) => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            _ => FINITE[rng.gen_range(0..FINITE.len())],
        })
        .collect()
}

/// Sorted, deduplicated item sets; empty and single-item targets are common.
fn item_targets(rng: &mut StdRng, items: u32) -> Vec<Vec<u32>> {
    (0..rng.gen_range(0usize..7))
        .map(|_| {
            let len = match rng.gen_range(0u32..4) {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(2..=items as usize * 2),
            };
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..items)).collect();
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect()
}

/// The plain definition: score the catalog (or rank it), then the mean of
/// each target's per-item values as an iterator sum in item order.
fn naive_relevance<S: RelevanceScorer>(
    scorer: &S,
    kind: RelevanceKind,
    items: &[u32],
    emb: Option<&[f32]>,
    agg: &[f32],
) -> f32 {
    let n = scorer.num_items() as usize;
    let mut scores = vec![0.0f32; n];
    scorer.score_items(emb, agg, &mut scores);
    let per_item = match kind {
        RelevanceKind::MeanScore => scores,
        RelevanceKind::MeanNormalizedRank => {
            // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by(|&a, &b| rank_desc(&(scores[a as usize], a), &(scores[b as usize], b)));
            let mut ranks = vec![0.0f32; n];
            for (pos, &i) in order.iter().enumerate() {
                ranks[i as usize] = 1.0 - pos as f32 / n as f32;
            }
            ranks
        }
    };
    if items.is_empty() {
        return 0.0;
    }
    // cia-lint: allow(D07, the reference is the plain iterator sum, in item order, by definition)
    items.iter().map(|&i| per_item[i as usize]).sum::<f32>() / items.len() as f32
}

/// Bit equality, except that any NaN equals any NaN: NaN payloads are not
/// part of the contract.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

/// Checks `relevance_many` over all `models` at once, and `relevance_all`
/// per model, against the naive reference. Under Share-less the reference
/// scores each target with its fictive embedding, and both must also equal
/// the per-target `relevance_one` loop.
fn check_evaluator<S: RelevanceScorer>(
    ev: &ItemSetEvaluator<S>,
    kind: RelevanceKind,
    models: &[(Option<Vec<f32>>, Vec<f32>)],
) -> Result<(), TestCaseError> {
    let nt = ev.num_targets();
    let pairs: Vec<(Option<&[f32]>, &[f32])> =
        models.iter().map(|(e, a)| (e.as_deref(), a.as_slice())).collect();
    let mut many = vec![f32::NAN; pairs.len() * nt];
    ev.relevance_many(&pairs, &mut many);
    for (m, &(emb, agg)) in pairs.iter().enumerate() {
        let want: Vec<f32> = ev
            .targets()
            .iter()
            .enumerate()
            .map(|(t, items)| {
                let emb =
                    if ev.is_share_less() { ev.adversary_embeddings()[t].as_deref() } else { emb };
                naive_relevance(ev.scorer(), kind, items, emb, agg)
            })
            .collect();
        let mut all = vec![f32::NAN; nt];
        ev.relevance_all(emb, agg, &mut all);
        let row = &many[m * nt..][..nt];
        prop_assert!(same_bits(row, &want), "relevance_many row {}: {:?} vs {:?}", m, row, want);
        prop_assert!(same_bits(&all, &want), "relevance_all {}: {:?} vs {:?}", m, all, want);
        if ev.is_share_less() {
            let one: Vec<f32> = (0..nt).map(|t| ev.relevance_one(emb, agg, t)).collect();
            prop_assert!(same_bits(row, &one), "share-less row {}: {:?} vs {:?}", m, row, one);
        }
    }
    Ok(())
}

fn gossip_stats(round: u64) -> GossipRoundStats {
    GossipRoundStats { round, awake: 0, deliveries: 0, mean_loss: None, bytes_materialized: 0 }
}

proptest! {
    #[test]
    fn fl_uploads_match_the_oracle(seed in 0u64..(1 << 60)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = instance(&mut rng);
        let mut engine = MomentumCia::new(
            inst.cfg,
            inst.evaluator.clone(),
            inst.n,
            inst.truths.clone(),
            inst.owners.clone(),
        );
        // The same engine fed each round's uploads in one batch, as a dense
        // FedAvg round delivers them.
        let mut batched = MomentumCia::new(
            inst.cfg,
            inst.evaluator.clone(),
            inst.n,
            inst.truths.clone(),
            inst.owners.clone(),
        );
        let mut oracle = NaiveCia::new(&inst);
        for round in 0..rng.gen_range(1u64..8) {
            let mut mask = live_mask(&mut rng, inst.n);
            oracle.live = mask.clone();
            RoundObserver::on_liveness(&mut engine, LivenessEvent::ActingSet { round, mask: &mut mask.clone() });
            RoundObserver::on_liveness(&mut batched, LivenessEvent::ActingSet { round, mask: &mut mask });
            let global = params(&mut rng, inst.dim);
            engine.on_global(round, &global);
            batched.on_global(round, &global);
            oracle.reference = Some(global);
            // Uploads arrive in user-id order; some rounds see nobody.
            let mut uploads = Vec::new();
            for u in 0..inst.n {
                if rng.gen_bool(0.5) {
                    let m = model(&mut rng, &inst, u, round);
                    engine.on_client_model(&m);
                    oracle.observe(&m);
                    uploads.push(m);
                }
            }
            batched.on_client_models(&uploads.iter().collect::<Vec<_>>());
            let stats = RoundStats { round, participants: 0, mean_loss: None, bytes_materialized: 0 };
            RoundObserver::on_round_end(&mut engine, &stats);
            RoundObserver::on_round_end(&mut batched, &stats);
            oracle.end_round(round);
        }
        prop_assert_eq!(bits(engine.history()), bits(&oracle.history));
        prop_assert_eq!(bits(batched.history()), bits(&oracle.history));
    }

    #[test]
    fn relocating_gossip_coalition_matches_the_oracle(seed in 0u64..(1 << 60)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = instance(&mut rng);
        let mut engine = MomentumCia::new(
            inst.cfg,
            inst.evaluator.clone(),
            inst.n,
            inst.truths.clone(),
            inst.owners.clone(),
        );
        let mut oracle = NaiveCia::new(&inst);
        let first = members(&mut rng, inst.n);
        engine.set_members(&first);
        oracle.set_members(&first);
        let rounds = rng.gen_range(1u64..8);
        let relocate_at = rng.gen_range(0..rounds);
        let relocated = members(&mut rng, inst.n);
        // Rounds before any member hears a delivery: evaluations there see
        // nothing yet.
        let quiet = rng.gen_range(0..=rounds);
        for round in 0..rounds {
            if round == relocate_at {
                engine.set_members(&relocated);
                oracle.set_members(&relocated);
            }
            let mut mask = live_mask(&mut rng, inst.n);
            oracle.live = mask.clone();
            GossipObserver::on_liveness(&mut engine, LivenessEvent::ActingSet { round, mask: &mut mask });
            for _ in 0..rng.gen_range(0..2 * inst.n) {
                let receiver = rng.gen_range(0..inst.n);
                if round < quiet && oracle.members[receiver] {
                    continue;
                }
                let sender = rng.gen_range(0..inst.n);
                let m = model(&mut rng, &inst, sender, round);
                // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
                engine.on_delivery(round, UserId::new(receiver as u32), &m);
                oracle.deliver(receiver, &m);
            }
            GossipObserver::on_round_end(&mut engine, &gossip_stats(round));
            oracle.end_round(round);
        }
        prop_assert_eq!(bits(engine.history()), bits(&oracle.history));
        prop_assert_eq!(engine.members(), relocated);
    }

    #[test]
    fn all_placements_sweep_matches_the_oracle(seed in 0u64..(1 << 60)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = instance(&mut rng);
        let mut engine =
            GlCiaAllPlacements::new(inst.cfg, inst.evaluator.clone(), inst.n, inst.truths.clone());
        let mut oracle = NaivePlacements {
            cfg: inst.cfg,
            evaluator: inst.evaluator.clone(),
            truths: inst.truths.clone(),
            scores: vec![vec![f32::NAN; inst.n]; inst.n],
            live: vec![true; inst.n],
            prepared: false,
            history: Vec::new(),
        };
        for round in 0..rng.gen_range(1u64..8) {
            let mut mask = live_mask(&mut rng, inst.n);
            oracle.live = mask.clone();
            engine.on_liveness(LivenessEvent::ActingSet { round, mask: &mut mask });
            for _ in 0..rng.gen_range(0..2 * inst.n) {
                let receiver = rng.gen_range(0..inst.n);
                let sender = rng.gen_range(0..inst.n);
                let m = model(&mut rng, &inst, sender, round);
                // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
                engine.on_delivery(round, UserId::new(receiver as u32), &m);
                oracle.deliver(receiver, &m);
            }
            engine.on_round_end(&gossip_stats(round));
            oracle.end_round(round);
        }
        prop_assert_eq!(bits(engine.history()), bits(&oracle.history));
    }

    #[test]
    fn item_set_evaluator_matches_the_naive_reference(seed in 0u64..(1 << 60)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = rng.gen_range(1u32..24);
        let targets = item_targets(&mut rng, items);
        // Model counts up to two full blocks and a partial third.
        let count = rng.gen_range(1..=2 * BLOCK + 1);
        let share_less = rng.gen_bool(0.25);
        let kind = if share_less || rng.gen_bool(0.5) {
            RelevanceKind::MeanScore
        } else {
            RelevanceKind::MeanNormalizedRank
        };
        if rng.gen_bool(0.6) {
            let models: Vec<_> = (0..count)
                .map(|_| {
                    let w = [1.0f32, -1.0, 0.5, 0.0][rng.gen_range(0usize..4)];
                    (rng.gen_bool(0.8).then_some(vec![w]), lookup_params(&mut rng, items as usize))
                })
                .collect();
            let mut ev =
                ItemSetEvaluator::with_relevance(LookupScorer { items }, targets, share_less, kind);
            ev.prepare(&models[0].1, seed);
            check_evaluator(&ev, kind, &models)?;
        } else {
            let dim = rng.gen_range(1usize..5);
            let spec = GmfSpec::new(items, dim, GmfHyper::default());
            let len = RelevanceScorer::agg_len(&spec);
            let models: Vec<_> = (0..count)
                .map(|_| {
                    let destroyed = rng.gen_bool(0.1);
                    let emb: Vec<f32> = (0..dim).map(|_| level(&mut rng, destroyed)).collect();
                    let agg: Vec<f32> = (0..len).map(|_| level(&mut rng, destroyed)).collect();
                    (Some(emb), agg)
                })
                .collect();
            let mut ev = ItemSetEvaluator::with_relevance(spec, targets, share_less, kind);
            ev.prepare(&models[0].1, seed);
            check_evaluator(&ev, kind, &models)?;
        }
    }
}
