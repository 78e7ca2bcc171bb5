//! The windowed update fold against the whole-vector one.
//!
//! The FedAvg server folds each client's weighted update into disjoint
//! windows of its accumulator, one window per worker, through
//! `Participant::accumulate_update_rows`. Summed over any partition of the
//! parameter vector, those calls must leave the accumulator bit-identical
//! to one `accumulate_update` call, whatever the parameters hold. GMF and
//! PRME skip the rows local training left untouched in both methods, so the
//! check plants ±0.0, ±inf, NaN and subnormals in the absorbed global: a
//! dense `a − r` over an untouched row holding `inf` would yield NaN.
//! Every float compares by its bits, except that NaN equals any NaN: Rust
//! leaves the sign and payload of a NaN result unspecified, and they vary
//! with the operand order the compiler picks for each code shape.

use cia_data::UserId;
use cia_models::{kernel, GmfHyper, GmfSpec, Participant, PrmeHyper, PrmeSpec, SharingPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SPECIALS: [f32; 8] =
    [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0e-40, -3.0e-39, f32::MIN_POSITIVE];

/// The bits of every element, with every NaN mapped to one pattern.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// `len` random parameters, some of them special values.
fn params(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.05) {
                SPECIALS[rng.gen_range(0usize..SPECIALS.len())]
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect()
}

/// A random partition of `0..len` into 1–5 windows: cut points drawn
/// anywhere (mid-row included), repeats giving empty windows.
fn windows(rng: &mut StdRng, len: usize) -> Vec<std::ops::Range<usize>> {
    let mut cuts: Vec<usize> =
        (0..rng.gen_range(0usize..5)).map(|_| rng.gen_range(0..=len)).collect();
    cuts.push(0);
    cuts.push(len);
    cuts.sort_unstable();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Folds every client into one accumulator whole and window by window, in
/// the same client order, and compares the bits.
fn check_fold<P: Participant>(
    rng: &mut StdRng,
    clients: &[P],
    global: &[f32],
) -> Result<(), TestCaseError> {
    let start = params(rng, global.len());
    let mut whole = start.clone();
    let mut windowed = start;
    let parts = windows(rng, global.len());
    for client in clients {
        let weight = rng.gen_range(0.0f32..1.0);
        client.accumulate_update(global, weight, &mut whole);
        for w in &parts {
            client.accumulate_update_rows(global, weight, w.start, &mut windowed[w.clone()]);
        }
    }
    prop_assert_eq!(bits(&windowed), bits(&whole), "windows {:?}", parts);
    Ok(())
}

fn train_set(rng: &mut StdRng, items: u32) -> Vec<u32> {
    let mut set: Vec<u32> =
        (0..rng.gen_range(1..=items / 2)).map(|_| rng.gen_range(0..items)).collect();
    set.sort_unstable();
    set.dedup();
    set
}

fn policy(rng: &mut StdRng) -> SharingPolicy {
    if rng.gen_bool(0.5) {
        SharingPolicy::Full
    } else {
        SharingPolicy::ShareLess { tau: 0.5 }
    }
}

proptest! {
    #[test]
    fn gmf_windows_sum_to_the_whole_fold(seed in 0u64..(1 << 60)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = rng.gen_range(4u32..40);
        let dim = [3usize, 8, 16][rng.gen_range(0usize..3)];
        let spec = GmfSpec::new(items, dim, GmfHyper { negatives: 2, ..GmfHyper::default() });
        let global = params(&mut rng, spec.agg_len());
        let clients: Vec<_> = (0..rng.gen_range(1u32..4))
            .map(|u| {
                let items = train_set(&mut rng, items);
                let mut c = spec.build_client(UserId::new(u), items, policy(&mut rng), u64::from(u));
                c.absorb_agg(&global);
                for _ in 0..rng.gen_range(0..3) {
                    c.train_local(&mut rng);
                }
                c
            })
            .collect();
        check_fold(&mut rng, &clients, &global)?;
    }

    #[test]
    fn prme_windows_sum_to_the_whole_fold(seed in 0u64..(1 << 60)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = rng.gen_range(4u32..40);
        let dim = [3usize, 8, 16][rng.gen_range(0usize..3)];
        let spec = PrmeSpec::new(items, dim, PrmeHyper::default());
        let global = params(&mut rng, spec.agg_len());
        let clients: Vec<_> = (0..rng.gen_range(1u32..4))
            .map(|u| {
                let items = train_set(&mut rng, items);
                let sequence = items.clone();
                let mut c =
                    spec.build_client(UserId::new(u), items, sequence, policy(&mut rng), u64::from(u));
                c.absorb_agg(&global);
                for _ in 0..rng.gen_range(0..3) {
                    c.train_local(&mut rng);
                }
                c
            })
            .collect();
        check_fold(&mut rng, &clients, &global)?;
    }

    /// The kernel against its per-element definition, for row widths on
    /// both sides of its 64-lane select block.
    #[test]
    fn masked_row_delta_matches_its_definition(seed in 0u64..(1 << 60)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = [1usize, 3, 8, 16, 64, 70][rng.gen_range(0usize..6)];
        let rows = rng.gen_range(0usize..30);
        let len = rows * d + rng.gen_range(0..=d);
        let mask: Vec<u8> = (0..rng.gen_range(0..=rows + 1)).map(|_| rng.gen_range(0..3)).collect();
        let (agg, reference) = (params(&mut rng, len), params(&mut rng, len));
        let weight = rng.gen_range(-1.0f32..1.0);
        let start = params(&mut rng, len);
        let mut want = start.clone();
        for (i, o) in want.iter_mut().enumerate() {
            if mask.get(i / d).is_none_or(|&t| t != 0) {
                *o += weight * (agg[i] - reference[i]);
            }
        }
        let mut got = start;
        for w in windows(&mut rng, len) {
            kernel::masked_row_delta(d, &mask, &agg, &reference, weight, w.start, &mut got[w]);
        }
        prop_assert_eq!(bits(&got), bits(&want));
    }
}
