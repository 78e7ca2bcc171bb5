//! Per-sender parameter momentum (the paper's Eq. 4).
//!
//! Models leak most early in training, and in gossip they arrive at varying
//! training stages; comparing raw snapshots confounds model *quality* with
//! model *specialization*. The attack therefore ranks exponential moving
//! averages `v_u^t = β·v_u^{t−1} + (1−β)·Θ_u^t` instead of raw models.

use cia_models::params::ema;
use cia_models::SharedModel;

/// The EMA state `v_u` kept by the adversary for one sender.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentumState {
    emb: Option<Vec<f32>>,
    agg: Vec<f32>,
    updates: u64,
}

impl MomentumState {
    /// Initializes the state from the first observed snapshot
    /// (`v⁰_u = Θ⁰_u`, line 10 of Algorithms 1 and 2).
    pub fn from_snapshot(model: &SharedModel) -> Self {
        MomentumState { emb: model.owner_emb.clone(), agg: model.agg.clone(), updates: 1 }
    }

    /// Rebuilds a state from its raw parts (checkpoint resume); the inverse
    /// of the [`MomentumState::emb`]/[`MomentumState::agg`]/
    /// [`MomentumState::updates`] accessors.
    pub fn from_parts(emb: Option<Vec<f32>>, agg: Vec<f32>, updates: u64) -> Self {
        MomentumState { emb, agg, updates }
    }

    /// Applies Eq. 4 with coefficient `beta`.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's layout differs from the state's.
    pub fn update(&mut self, beta: f32, model: &SharedModel) {
        self.check_layout(model);
        ema(&mut self.agg, beta, &model.agg);
        if let (Some(v), Some(m)) = (&mut self.emb, &model.owner_emb) {
            ema(v, beta, m);
        }
        self.updates += 1;
    }

    /// The layout checks [`MomentumState::update`] makes before it folds
    /// `model` in, on their own: batched folds run them on the driving
    /// thread, so a mismatch panics there with its own message.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's layout differs from the state's.
    pub(crate) fn check_layout(&self, model: &SharedModel) {
        assert_eq!(self.agg.len(), model.agg.len(), "ema length mismatch");
        match (&self.emb, &model.owner_emb) {
            (Some(v), Some(m)) => assert_eq!(v.len(), m.len(), "ema length mismatch"),
            (None, None) => {}
            _ => panic!("sharing policy changed mid-attack"),
        }
    }

    /// The averaged owner embedding (if shared).
    pub fn emb(&self) -> Option<&[f32]> {
        self.emb.as_deref()
    }

    /// The averaged aggregatable parameters.
    pub fn agg(&self) -> &[f32] {
        &self.agg
    }

    /// Number of snapshots folded in (including the initial one).
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_data::UserId;

    fn snap(v: f32, with_emb: bool) -> SharedModel {
        SharedModel {
            owner: UserId::new(0),
            round: 0,
            owner_emb: with_emb.then(|| vec![v; 2]),
            agg: vec![v; 3],
        }
    }

    #[test]
    fn first_snapshot_is_copied() {
        let s = MomentumState::from_snapshot(&snap(2.0, true));
        assert_eq!(s.agg(), &[2.0; 3]);
        assert_eq!(s.emb(), Some(&[2.0f32; 2][..]));
        assert_eq!(s.updates(), 1);
    }

    #[test]
    fn beta_zero_tracks_latest() {
        let mut s = MomentumState::from_snapshot(&snap(1.0, true));
        s.update(0.0, &snap(5.0, true));
        assert_eq!(s.agg(), &[5.0; 3]);
        assert_eq!(s.updates(), 2);
    }

    #[test]
    fn high_beta_changes_slowly() {
        let mut s = MomentumState::from_snapshot(&snap(0.0, false));
        s.update(0.99, &snap(1.0, false));
        assert!((s.agg()[0] - 0.01).abs() < 1e-6);
        assert!(s.emb().is_none());
    }

    #[test]
    #[should_panic(expected = "sharing policy changed")]
    fn layout_change_is_rejected() {
        let mut s = MomentumState::from_snapshot(&snap(0.0, true));
        s.update(0.5, &snap(1.0, false));
    }
}
