//! Batched fault draws vs. per-frame Bernoulli consultation.
//!
//! The golden digests depend on every fault process consuming its RNG
//! stream exactly as the per-frame loop does, so the batched
//! [`FaultProcess::corrupts_run`] path is held to two standards here:
//!
//! * **exact** — for the pinned golden master seed (and neighbours), the
//!   batched draw must reproduce the per-frame hit sequence bit for bit,
//!   fingerprint included, under arbitrary batch splits (proptest);
//! * **memo-exact** — over more distinct frame sizes than any fixed-size
//!   memo slot count, both processes reproduce a reference that evaluates
//!   `1 − (1 − BER)^bits` afresh on every frame over the same RNG stream;
//! * **in distribution** — the opt-in geometric skip-sampler
//!   [`BernoulliFaults::corrupts_run_geometric`] is *not*
//!   stream-compatible, so it is instead checked against the analytic
//!   per-frame fault probability: sample mean and variance of per-segment
//!   hit counts must sit inside tight bands around the binomial values.

use event_sim::rng::{substream, Digest};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use reliability::fault::{BernoulliFaults, FaultProcess, GilbertElliott, SegmentHits};
use reliability::Ber;

/// The golden corpus master seed (see `corpus/golden.json`).
const GOLDEN_SEED: u64 = 20140630;

/// Frame widths a paper-geometry cycle actually mixes: static frames of a
/// few hundred coded bits, small dynamic fits, and full 64-frame batches.
const WIDTH_PATTERN: [u32; 8] = [16, 1, 7, 64, 13, 32, 2, 50];

/// Draws `total` frames of `bits` bits one `corrupts` call at a time and
/// returns the hit sequence packed little-endian into 64-bit words.
fn per_frame_hits(process: &mut dyn FaultProcess, bits: u32, total: u32) -> Vec<u64> {
    let mut words = vec![0u64; (total as usize).div_ceil(64)];
    for i in 0..total {
        let hit = process.corrupts(bits);
        words[i as usize / 64] |= u64::from(hit) << (i % 64);
    }
    words
}

/// Draws the same `total` frames through `corrupts_run` batches of the
/// given widths (cycled), packing hits the same way.
fn batched_hits(process: &mut dyn FaultProcess, bits: u32, total: u32, widths: &[u32]) -> Vec<u64> {
    let mut words = vec![0u64; (total as usize).div_ceil(64)];
    let mut done = 0u32;
    let mut w = widths.iter().cycle();
    while done < total {
        let frames = (*w.next().unwrap()).min(total - done);
        let hits = process.corrupts_run(bits, frames);
        assert_eq!(hits.frames, frames);
        assert_eq!(hits.count(), hits.mask.count_ones());
        for i in 0..frames {
            let at = (done + i) as usize;
            words[at / 64] |= u64::from(hits.hit(i)) << (at % 64);
        }
        done += frames;
    }
    words
}

fn fingerprint(words: &[u64]) -> u64 {
    let mut d = Digest::new();
    for w in words {
        d.push(*w);
    }
    d.finish()
}

#[test]
fn batched_bernoulli_matches_per_frame_stream_and_fingerprint() {
    // A BER high enough that hits actually occur over a few thousand
    // frames of golden-sized payloads.
    let ber = Ber::new(1e-5).unwrap();
    for seed in [GOLDEN_SEED, GOLDEN_SEED ^ 0xA, GOLDEN_SEED ^ 0xB] {
        for bits in [424, 4040] {
            let mut loose = BernoulliFaults::new(ber, seed);
            let mut batched = BernoulliFaults::new(ber, seed);
            let a = per_frame_hits(&mut loose, bits, 4096);
            let b = batched_hits(&mut batched, bits, 4096, &WIDTH_PATTERN);
            assert_eq!(a, b, "seed {seed} bits {bits}: hit sequences diverge");
            assert_eq!(fingerprint(&a), fingerprint(&b));
            assert_eq!(loose.counters(), batched.counters());
            assert!(
                a.iter().any(|w| *w != 0),
                "seed {seed} bits {bits}: no hits — the check is vacuous"
            );
        }
    }
}

#[test]
fn batched_gilbert_elliott_matches_per_frame_stream() {
    let mk = |seed| {
        GilbertElliott::new(
            Ber::new(1e-7).unwrap(),
            Ber::new(1e-4).unwrap(),
            0.05,
            0.2,
            seed,
        )
    };
    for seed in [GOLDEN_SEED, GOLDEN_SEED ^ 0xA] {
        let (mut loose, mut batched) = (mk(seed), mk(seed));
        let a = per_frame_hits(&mut loose, 4040, 4096);
        let b = batched_hits(&mut batched, 4040, 4096, &WIDTH_PATTERN);
        assert_eq!(a, b, "seed {seed}: hit sequences diverge");
        assert_eq!(loose.counters(), batched.counters());
        assert_eq!(loose.is_in_bad_state(), batched.is_in_bad_state());
    }
}

/// Static and dynamic wire sizes of 32 payload lengths, 64 distinct
/// sizes in all (a synthetic cell mixes about 50), in a scrambled order.
fn mixed_sizes() -> Vec<u32> {
    let mut sizes: Vec<u32> = (0..32u32)
        .flat_map(|i| {
            let words = 1 + (i * 37) % 100;
            [88 + 20 * words, 90 + 20 * words]
        })
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    assert!(sizes.len() >= 48);
    sizes.rotate_left(11);
    sizes
}

/// The frame sizes of `frames` draws cycling through `sizes`, with every
/// seventh draw a batch of up to 9 equal frames.
fn size_schedule(sizes: &[u32], frames: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut drawn = 0;
    for (k, &bits) in sizes.iter().cycle().enumerate() {
        if drawn >= frames {
            break;
        }
        let n = if k % 7 == 0 {
            1 + (k as u32 / 7) % 9
        } else {
            1
        };
        out.push((bits, n));
        drawn += n as usize;
    }
    out
}

/// A Bernoulli draw that evaluates the probability on every frame.
fn reference_bernoulli(ber: Ber, rng: &mut SmallRng, bits: u32) -> bool {
    let p = ber.frame_failure_probability(bits);
    p > 0.0 && rng.gen::<f64>() < p
}

#[test]
fn memoised_bernoulli_matches_the_per_frame_formula_over_many_sizes() {
    let sizes = mixed_sizes();
    for rate in [1e-5, 3e-4] {
        let ber = Ber::new(rate).unwrap();
        for seed in [GOLDEN_SEED, GOLDEN_SEED ^ 0xA] {
            let mut process = BernoulliFaults::new(ber, seed);
            let mut rng = substream(seed, "fault/bernoulli");
            let (mut frames, mut hits) = (0u64, 0u64);
            for (round, (bits, n)) in size_schedule(&sizes, 20_000).into_iter().enumerate() {
                let got = if n == 1 {
                    u64::from(process.corrupts(bits))
                } else {
                    process.corrupts_run(bits, n).mask
                };
                let want = (0..n).fold(0u64, |m, i| {
                    m | u64::from(reference_bernoulli(ber, &mut rng, bits)) << i
                });
                assert_eq!(
                    got, want,
                    "rate {rate} seed {seed} draw {round} ({bits} bits)"
                );
                frames += u64::from(n);
                hits += u64::from(want.count_ones());
            }
            assert_eq!(process.counters().frames_checked, frames);
            assert_eq!(process.counters().faults_injected, hits);
            assert!(
                hits > 0,
                "rate {rate} seed {seed}: no hits — the check is vacuous"
            );
        }
    }
}

#[test]
fn memoised_gilbert_elliott_matches_the_per_frame_formula_over_many_sizes() {
    let sizes = mixed_sizes();
    let (good, bad) = (Ber::new(1e-6).unwrap(), Ber::new(1e-3).unwrap());
    let (p_gb, p_bg) = (0.02, 0.1);
    for seed in [GOLDEN_SEED, GOLDEN_SEED ^ 0xB] {
        let mut process = GilbertElliott::new(good, bad, p_gb, p_bg, seed);
        let mut rng = substream(seed, "fault/gilbert-elliott");
        let mut in_bad = false;
        let (mut frames, mut hits, mut bad_frames) = (0u64, 0u64, 0u64);
        for (round, (bits, n)) in size_schedule(&sizes, 20_000).into_iter().enumerate() {
            let got = if n == 1 {
                u64::from(process.corrupts(bits))
            } else {
                process.corrupts_run(bits, n).mask
            };
            let mut want = 0u64;
            for i in 0..n {
                let p = if in_bad { bad } else { good }.frame_failure_probability(bits);
                want |= u64::from(p > 0.0 && rng.gen::<f64>() < p) << i;
                bad_frames += u64::from(in_bad);
                if rng.gen::<f64>() < if in_bad { p_bg } else { p_gb } {
                    in_bad = !in_bad;
                }
            }
            assert_eq!(got, want, "seed {seed} draw {round} ({bits} bits)");
            assert_eq!(process.is_in_bad_state(), in_bad);
            frames += u64::from(n);
            hits += u64::from(want.count_ones());
        }
        assert_eq!(process.counters().frames_checked, frames);
        assert_eq!(process.counters().faults_injected, hits);
        assert!(
            hits > 0 && bad_frames > 0,
            "seed {seed}: the check is vacuous"
        );
    }
}

#[test]
fn zero_rate_batches_are_clear_and_free() {
    let mut f = BernoulliFaults::new(Ber::new(0.0).unwrap(), GOLDEN_SEED);
    for frames in [1, 17, 64] {
        let hits = f.corrupts_run(4040, frames);
        assert_eq!(hits.mask, 0);
        assert_eq!(hits.count(), 0);
    }
    assert_eq!(f.counters().frames_checked, 1 + 17 + 64);
    assert_eq!(f.counters().faults_injected, 0);
}

/// The geometric skip-sampler draws one gap per fault instead of one
/// uniform per frame, so it cannot match the stream — but segment hit
/// counts must still be binomial(W, p). With S segments of W frames the
/// sample mean of per-segment counts concentrates around `W·p` with
/// standard error `sqrt(W·p·(1−p)/S)`, and the sample variance around
/// `W·p·(1−p)`; both are checked at ±5 standard errors, wide enough for
/// the pinned seeds yet far below any off-by-a-draw bug.
#[test]
fn geometric_sampler_matches_bernoulli_in_distribution() {
    const SEGMENTS: u32 = 4000;
    const W: u32 = 64;
    let ber = Ber::new(5e-5).unwrap();
    let bits = 1000;
    let p = ber.frame_failure_probability(bits);
    assert!(p > 0.01, "pick a rate with a workable hit probability");

    for seed in [GOLDEN_SEED, GOLDEN_SEED ^ 0xA, GOLDEN_SEED ^ 0xB] {
        let mut f = BernoulliFaults::new(ber, seed);
        let counts: Vec<f64> = (0..SEGMENTS)
            .map(|_| f64::from(f.corrupts_run_geometric(bits, W).count()))
            .collect();
        let n = f64::from(SEGMENTS);
        let mean = counts.iter().sum::<f64>() / n;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1.0);

        let want_mean = f64::from(W) * p;
        let want_var = f64::from(W) * p * (1.0 - p);
        let mean_se = (want_var / n).sqrt();
        let var_se = want_var * (2.0 / (n - 1.0)).sqrt();
        assert!(
            (mean - want_mean).abs() < 5.0 * mean_se,
            "seed {seed}: mean {mean} vs {want_mean} (se {mean_se})"
        );
        assert!(
            (var - want_var).abs() < 5.0 * var_se,
            "seed {seed}: variance {var} vs {want_var} (se {var_se})"
        );
        // Counters agree with the mask even though the stream differs.
        assert_eq!(f.counters().frames_checked, u64::from(SEGMENTS * W));
    }
}

proptest! {
    /// Splitting a run of frames into arbitrary batch widths never
    /// changes the hit sequence or the counters: `corrupts_run` is
    /// stream-identical to per-frame consultation for any split.
    #[test]
    fn batch_split_never_changes_the_stream(
        seed in 0u64..1_000_000,
        bits in (0usize..4).prop_map(|i| [64u32, 424, 1000, 4040][i]),
        widths in proptest::collection::vec(1u32..=64, 1..8),
        total in 64u32..512,
    ) {
        let ber = Ber::new(1e-4).unwrap();
        let mut loose = BernoulliFaults::new(ber, seed);
        let mut batched = BernoulliFaults::new(ber, seed);
        let a = per_frame_hits(&mut loose, bits, total);
        let b = batched_hits(&mut batched, bits, total, &widths);
        prop_assert_eq!(a, b);
        prop_assert_eq!(loose.counters(), batched.counters());
    }

    /// `SegmentHits` accessors agree with the raw mask for any contents.
    #[test]
    fn segment_hits_accessors_are_consistent(mask in 0u64..=u64::MAX, frames in 1u32..=64) {
        let trimmed = if frames == 64 { mask } else { mask & ((1u64 << frames) - 1) };
        let hits = SegmentHits { mask: trimmed, frames };
        prop_assert_eq!(hits.count(), trimmed.count_ones());
        let rebuilt = (0..frames).fold(0u64, |m, i| m | (u64::from(hits.hit(i)) << i));
        prop_assert_eq!(rebuilt, trimmed);
        prop_assert_eq!(SegmentHits::clear(frames).count(), 0);
    }
}
