//! Target relevance evaluation, including the Share-less adaptation.
//!
//! Under full sharing [`ItemSetEvaluator`] scores models in blocks of
//! [`BLOCK`]: each model's catalog scores (or normalized ranks) go into one
//! lane of an item-major scratch matrix, `block[i * BLOCK + b]` for item `i`
//! and model `b`. A target's relevance is then one pass over its items, each
//! step a contiguous `BLOCK`-lane load added into a `[f32; BLOCK]`
//! accumulator, instead of one scalar gather per model. Every lane performs
//! exactly the additions of `items.iter().map(..).sum::<f32>()`, in the same
//! order and from the same start value, `-0.0` (the additive identity for
//! every float, including `-0.0` itself, which `+0.0` is not), so the result
//! is bit-identical to scoring one model at a time.
//!
//! A lone model (`relevance_all`) runs the same kernel with one lane, so
//! its scratch stays catalog-sized: at `BLOCK` lanes its pass over a
//! target would stream `BLOCK` times the bytes for one useful sum.

use cia_models::parallel::par_map;
use cia_models::RelevanceScorer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};

/// Models scored together by [`ItemSetEvaluator`]'s
/// [`RelevanceEvaluator::relevance_many`]: the lane count of its item-major
/// scratch block and per-target accumulator. Callers batching models (the
/// momentum attack's relevance refresh) hand it this many at a time.
pub const BLOCK: usize = 16;

/// Reusable catalog-sized buffers for [`ItemSetEvaluator::relevance_many`].
#[derive(Default)]
struct EvalScratch {
    scores: Vec<f32>,
    ranks: Vec<f32>,
    order: Vec<u32>,
    /// Item-major per-item values of up to `L` models, for an `L`-lane
    /// kernel: `block[i * L + b]` is item `i` under model `b`.
    block: Vec<f32>,
}

/// Computes `Ŷ(Θ, V_target)` for every registered target given one
/// (momentum-averaged) model, or a batch of them.
///
/// Implementations may batch across targets and models: the recsys
/// evaluator scores the whole catalog once per model under full sharing,
/// turning the per-target cost into a cheap mean, and shares each target's
/// pass over its items between a block of models. The MNIST experiment in
/// `cia-experiments` provides its own implementation, demonstrating that the
/// attack is model-agnostic (§VIII-E).
pub trait RelevanceEvaluator: Send + Sync {
    /// Number of registered targets.
    fn num_targets(&self) -> usize;

    /// Refresh per-target adversary state against current public parameters
    /// (trains the fictive embeddings of §IV-C under Share-less; a no-op
    /// under full sharing).
    fn prepare(&mut self, agg: &[f32], seed: u64);

    /// Relevance of one model for one target.
    fn relevance_one(&self, owner_emb: Option<&[f32]>, agg: &[f32], target: usize) -> f32;

    /// Relevance of one model for all targets, written into `out`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `out.len() != num_targets()`.
    fn relevance_all(&self, owner_emb: Option<&[f32]>, agg: &[f32], out: &mut [f32]) {
        for (t, o) in out.iter_mut().enumerate() {
            *o = self.relevance_one(owner_emb, agg, t);
        }
    }

    /// Relevance of every model in `models` (`(owner_emb, agg)` pairs) for
    /// all targets, written model-major into `out`: row `m`,
    /// `out[m * num_targets()..][..num_targets()]`, belongs to `models[m]`.
    ///
    /// Any model count is allowed, zero included. Row `m` must equal
    /// [`RelevanceEvaluator::relevance_all`] of `models[m]` bit for bit, so
    /// a caller may batch models however it likes without changing a
    /// result. The default loops `relevance_all`.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != models.len() * num_targets()`.
    fn relevance_many(&self, models: &[(Option<&[f32]>, &[f32])], out: &mut [f32]) {
        let num_targets = self.num_targets();
        assert_eq!(out.len(), models.len() * num_targets, "one output row per model");
        if num_targets == 0 {
            return;
        }
        for (&(emb, agg), row) in models.iter().zip(out.chunks_exact_mut(num_targets)) {
            self.relevance_all(emb, agg, row);
        }
    }
}

/// How `Ŷ(Θ, V_target)` aggregates per-item scores (§IV-B notes the
/// relevance "can be any recommendation quality metric").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelevanceKind {
    /// Mean raw score over the target items (the paper's default).
    #[default]
    MeanScore,
    /// Mean normalized rank of the target items in the model's full catalog
    /// ranking: `mean(1 − rank(i)/|V|)`. Invariant to monotone score
    /// transformations, so models whose scores saturate (late training, DP
    /// noise) remain comparable.
    MeanNormalizedRank,
}

/// The recommender-system evaluator: targets are item sets, relevance is the
/// mean per-item score assigned by the model (§IV-B).
///
/// Under the Share-less policy the received models carry no user embedding;
/// the adversary trains one fictive embedding `e_A` per target that "likes"
/// the target items and scores with it instead (§IV-C). Call
/// [`RelevanceEvaluator::prepare`] whenever fresh public parameters are
/// available; it is cheap and the embeddings are reused until the next call.
///
/// Under full sharing, [`RelevanceEvaluator::relevance_many`] scores models
/// in blocks of [`BLOCK`] through one kernel (module docs): item-major
/// scratch, one `BLOCK`-lane accumulator per target started at `-0.0`, the
/// start value of `Iterator::sum::<f32>`. `relevance_all` is that kernel with
/// one model in one lane. Share-less scores each target with its own
/// fictive embedding, so it keeps the per-target
/// [`RelevanceEvaluator::relevance_one`] loop.
pub struct ItemSetEvaluator<S: RelevanceScorer> {
    scorer: S,
    targets: Vec<Vec<u32>>,
    share_less: bool,
    adversary_embs: Vec<Option<Vec<f32>>>,
    kind: RelevanceKind,
    /// Idle scratch buffers, one per concurrent `relevance_many` call at
    /// most. The call sites run on `par_chunks_mut` workers, which are
    /// spawned afresh for every refresh, so thread-local buffers would be
    /// allocated and freed again on every evaluation; a pool owned by the
    /// evaluator stays warm from one evaluation to the next.
    scratch: Mutex<Vec<EvalScratch>>,
}

impl<S: RelevanceScorer> ItemSetEvaluator<S> {
    /// Creates the evaluator. Target item sets must be sorted and
    /// deduplicated; `share_less` selects the fictive-embedding adaptation.
    ///
    /// # Panics
    ///
    /// Panics if any target references an item outside the scorer's catalog.
    pub fn new(scorer: S, targets: Vec<Vec<u32>>, share_less: bool) -> Self {
        Self::with_relevance(scorer, targets, share_less, RelevanceKind::MeanScore)
    }

    /// Like [`ItemSetEvaluator::new`] with an explicit relevance
    /// aggregation. [`RelevanceKind::MeanNormalizedRank`] requires full
    /// sharing (the rank is computed once per model, not per target
    /// embedding).
    ///
    /// # Panics
    ///
    /// Panics if any target references an item outside the scorer's catalog,
    /// or rank relevance is combined with Share-less.
    pub fn with_relevance(
        scorer: S,
        targets: Vec<Vec<u32>>,
        share_less: bool,
        kind: RelevanceKind,
    ) -> Self {
        let n = scorer.num_items();
        for (i, t) in targets.iter().enumerate() {
            assert!(
                t.iter().all(|&it| it < n),
                "target {i} references an item outside the catalog"
            );
        }
        assert!(
            !(share_less && kind == RelevanceKind::MeanNormalizedRank),
            "rank relevance requires full sharing"
        );
        let adversary_embs = vec![None; targets.len()];
        ItemSetEvaluator {
            scorer,
            targets,
            share_less,
            adversary_embs,
            kind,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// The registered target item sets.
    pub fn targets(&self) -> &[Vec<u32>] {
        &self.targets
    }

    /// The underlying scorer.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }

    /// Whether the Share-less adaptation is active.
    pub fn is_share_less(&self) -> bool {
        self.share_less
    }

    /// The current fictive adversary embeddings (checkpoint access; empty of
    /// meaning under full sharing).
    pub fn adversary_embeddings(&self) -> &[Option<Vec<f32>>] {
        &self.adversary_embs
    }

    /// Restores fictive adversary embeddings captured by
    /// [`ItemSetEvaluator::adversary_embeddings`] (checkpoint resume).
    ///
    /// # Panics
    ///
    /// Panics if the table is not aligned with the registered targets.
    pub fn restore_adversary_embeddings(&mut self, embs: Vec<Option<Vec<f32>>>) {
        assert_eq!(embs.len(), self.targets.len(), "one embedding slot per target");
        self.adversary_embs = embs;
    }
}

impl<S: RelevanceScorer> RelevanceEvaluator for ItemSetEvaluator<S> {
    fn num_targets(&self) -> usize {
        self.targets.len()
    }

    fn prepare(&mut self, agg: &[f32], seed: u64) {
        if !self.share_less {
            return;
        }
        // Warm-start each fictive embedding from the previous refresh's
        // solution: public parameters drift slowly between refreshes, so a
        // short polish replaces full retraining (ROADMAP "share-less
        // fictive-embedding training" item).
        let (scorer, targets, prev) = (&self.scorer, &self.targets, &self.adversary_embs);
        self.adversary_embs = par_map(targets.len(), |t| {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            scorer.train_adversary_embedding(agg, &targets[t], prev[t].as_deref(), &mut rng)
        });
    }

    fn relevance_one(&self, owner_emb: Option<&[f32]>, agg: &[f32], target: usize) -> f32 {
        if self.kind == RelevanceKind::MeanNormalizedRank {
            let mut out = vec![0.0f32; self.targets.len()];
            self.relevance_all(owner_emb, agg, &mut out);
            return out[target];
        }
        let emb = if self.share_less { self.adversary_embs[target].as_deref() } else { owner_emb };
        self.scorer.mean_relevance(emb, agg, &self.targets[target])
    }

    fn relevance_all(&self, owner_emb: Option<&[f32]>, agg: &[f32], out: &mut [f32]) {
        self.relevance_many(&[(owner_emb, agg)], out);
    }

    fn relevance_many(&self, models: &[(Option<&[f32]>, &[f32])], out: &mut [f32]) {
        let num_targets = self.targets.len();
        assert_eq!(out.len(), models.len() * num_targets, "one output row per model");
        if num_targets == 0 {
            return;
        }
        if self.share_less {
            for (&(emb, agg), row) in models.iter().zip(out.chunks_exact_mut(num_targets)) {
                for (t, o) in row.iter_mut().enumerate() {
                    *o = self.relevance_one(emb, agg, t);
                }
            }
            return;
        }
        let pool = || self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let mut scratch = pool().pop().unwrap_or_default();
        for (group, rows) in models.chunks(BLOCK).zip(out.chunks_mut(BLOCK * num_targets)) {
            if group.len() == 1 {
                self.score_lanes::<1>(group, rows, &mut scratch);
            } else {
                self.score_lanes::<BLOCK>(group, rows, &mut scratch);
            }
        }
        pool().push(scratch);
    }
}

impl<S: RelevanceScorer> ItemSetEvaluator<S> {
    /// The relevance kernel for up to `L` models (full sharing): each
    /// model's per-item values go into one lane of the item-major scratch
    /// `block[i * L + b]`, then every target is one pass over its items into
    /// an `L`-lane accumulator (module docs). Lanes past `group.len()` hold
    /// stale values; their sums are computed and dropped.
    fn score_lanes<const L: usize>(
        &self,
        group: &[(Option<&[f32]>, &[f32])],
        rows: &mut [f32],
        scratch: &mut EvalScratch,
    ) {
        let n = self.scorer.num_items() as usize;
        let num_targets = self.targets.len();
        let EvalScratch { scores, ranks, order, block } = scratch;
        scores.resize(n, 0.0);
        block.resize(block.len().max(n * L), 0.0);
        let (lanes, _) = block.as_chunks_mut::<L>();
        let lanes = &mut lanes[..n];
        for (b, &(emb, agg)) in group.iter().enumerate() {
            self.scorer.score_items(emb, agg, scores);
            let per_item = match self.kind {
                RelevanceKind::MeanScore => &*scores,
                RelevanceKind::MeanNormalizedRank => {
                    normalized_ranks(scores, order, ranks);
                    &*ranks
                }
            };
            for (lane, &v) in lanes.iter_mut().zip(per_item) {
                lane[b] = v;
            }
        }
        for (t, items) in self.targets.iter().enumerate() {
            let mean = if items.is_empty() {
                [0.0; L]
            } else {
                // Lane `b` is `items.iter().map(..).sum::<f32>()` of model
                // `b`: the same additions in the same order.
                let mut acc = [-0.0f32; L];
                for &i in items {
                    for (a, &v) in acc.iter_mut().zip(&lanes[i as usize]) {
                        *a += v;
                    }
                }
                let len = items.len() as f32;
                acc.map(|a| a / len)
            };
            for (b, &m) in mean.iter().enumerate().take(group.len()) {
                rows[b * num_targets + t] = m;
            }
        }
    }
}

/// Writes `1 − rank(i)/n` for every item into `ranks`, where `rank(i)` is the
/// item's position in the descending [`crate::metrics::rank_desc`] order of
/// `scores`.
fn normalized_ranks(scores: &[f32], order: &mut Vec<u32>, ranks: &mut Vec<f32>) {
    let n = scores.len();
    order.clear();
    // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
    order.extend(0..n as u32);
    order.sort_by(|&a, &b| {
        crate::metrics::rank_desc(&(scores[a as usize], a), &(scores[b as usize], b))
    });
    ranks.resize(n, 0.0);
    for (pos, &item) in order.iter().enumerate() {
        ranks[item as usize] = 1.0 - pos as f32 / n as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_data::UserId;
    use cia_models::{GmfHyper, GmfSpec, Participant, SharingPolicy};

    fn trained_gmf() -> (GmfSpec, cia_models::SharedModel) {
        let spec = GmfSpec::new(40, 4, GmfHyper { lr: 0.1, ..GmfHyper::default() });
        let mut c = spec.build_client(UserId::new(0), vec![1, 2, 3], SharingPolicy::Full, 5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..40 {
            c.train_local(&mut rng);
        }
        let snap = c.snapshot(0);
        (spec, snap)
    }

    #[test]
    fn relevance_all_matches_relevance_one() {
        let (spec, snap) = trained_gmf();
        let ev = ItemSetEvaluator::new(spec, vec![vec![1, 2], vec![10, 11, 12], vec![]], false);
        let mut out = vec![0.0f32; 3];
        ev.relevance_all(snap.owner_emb.as_deref(), &snap.agg, &mut out);
        for (t, &batched) in out.iter().enumerate() {
            let one = ev.relevance_one(snap.owner_emb.as_deref(), &snap.agg, t);
            assert!((batched - one).abs() < 1e-6, "target {t}: {batched} vs {one}");
        }
        assert_eq!(out[2], 0.0);
    }

    #[test]
    fn own_items_outscore_foreign_items() {
        let (spec, snap) = trained_gmf();
        let ev = ItemSetEvaluator::new(spec, vec![vec![1, 2, 3], vec![30, 31, 32]], false);
        let mut out = vec![0.0f32; 2];
        ev.relevance_all(snap.owner_emb.as_deref(), &snap.agg, &mut out);
        assert!(out[0] > out[1], "own {} !> foreign {}", out[0], out[1]);
    }

    #[test]
    fn share_less_uses_fictive_embeddings() {
        let (spec, snap) = trained_gmf();
        let mut ev = ItemSetEvaluator::new(spec, vec![vec![1, 2, 3]], true);
        ev.prepare(&snap.agg, 9);
        // Share-less models come without an embedding; scoring must work.
        let r = ev.relevance_one(None, &snap.agg, 0);
        assert!(r.is_finite());
        // The fictive embedding prefers its target over foreign items.
        let mut ev2 = ItemSetEvaluator::new(
            GmfSpec::new(40, 4, GmfHyper { lr: 0.1, ..GmfHyper::default() }),
            vec![vec![1, 2, 3], vec![30, 31, 32]],
            true,
        );
        ev2.prepare(&snap.agg, 9);
        let on = ev2.relevance_one(None, &snap.agg, 0);
        let emb0_on_foreign = {
            // score target 1's items with target 0's embedding by reusing
            // relevance_one on a fresh evaluator whose target 0 is foreign.
            let mut swapped = ItemSetEvaluator::new(
                GmfSpec::new(40, 4, GmfHyper { lr: 0.1, ..GmfHyper::default() }),
                vec![vec![30, 31, 32]],
                true,
            );
            // Train the same embedding (same seed/target index) then score.
            swapped.adversary_embs = vec![ev2.adversary_embs[0].clone()];
            swapped.relevance_one(None, &snap.agg, 0)
        };
        assert!(on > emb0_on_foreign, "on {on} !> foreign {emb0_on_foreign}");
    }

    #[test]
    #[should_panic(expected = "outside the catalog")]
    fn rejects_out_of_range_targets() {
        let spec = GmfSpec::new(10, 4, GmfHyper::default());
        let _ = ItemSetEvaluator::new(spec, vec![vec![99]], false);
    }

    #[test]
    fn rank_relevance_agrees_with_score_relevance_on_ordering() {
        let (spec, snap) = trained_gmf();
        let targets = vec![vec![1u32, 2, 3], vec![30, 31, 32]];
        let score_ev = ItemSetEvaluator::new(spec.clone(), targets.clone(), false);
        let rank_ev = ItemSetEvaluator::with_relevance(
            spec,
            targets,
            false,
            RelevanceKind::MeanNormalizedRank,
        );
        let mut s = vec![0.0f32; 2];
        let mut r = vec![0.0f32; 2];
        score_ev.relevance_all(snap.owner_emb.as_deref(), &snap.agg, &mut s);
        rank_ev.relevance_all(snap.owner_emb.as_deref(), &snap.agg, &mut r);
        // Both agree: the model's own items outrank the foreign ones.
        assert!(s[0] > s[1]);
        assert!(r[0] > r[1]);
        // Rank relevance is normalized to (0, 1].
        assert!(r.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn rank_relevance_is_invariant_to_score_scaling() {
        // Two models whose scores differ by a monotone transformation must
        // produce identical rank relevances. Simulate by comparing the rank
        // relevance computed from a model against itself — and checking that
        // relevance_one matches relevance_all (the shared-path contract).
        let (spec, snap) = trained_gmf();
        let rank_ev = ItemSetEvaluator::with_relevance(
            spec,
            vec![vec![1u32, 2], vec![20, 21]],
            false,
            RelevanceKind::MeanNormalizedRank,
        );
        let mut all = vec![0.0f32; 2];
        rank_ev.relevance_all(snap.owner_emb.as_deref(), &snap.agg, &mut all);
        for (t, &batched) in all.iter().enumerate() {
            let one = rank_ev.relevance_one(snap.owner_emb.as_deref(), &snap.agg, t);
            assert!((one - batched).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "rank relevance requires full sharing")]
    fn rank_relevance_rejects_share_less() {
        let spec = GmfSpec::new(10, 4, GmfHyper::default());
        let _ = ItemSetEvaluator::with_relevance(
            spec,
            vec![vec![1]],
            true,
            RelevanceKind::MeanNormalizedRank,
        );
    }
}
