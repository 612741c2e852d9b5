//! Stochastic fault processes.
//!
//! The bus simulator asks a fault process, per transmitted frame, whether a
//! transient fault corrupted it. Two models are provided:
//!
//! * [`BernoulliFaults`] — the paper's model: each frame of `W` bits is
//!   corrupted independently with `p = 1 − (1 − BER)^W`;
//! * [`GilbertElliott`] — a bursty two-state extension (good/bad channel
//!   states with different BERs), modelling the temperature/interference
//!   bursts the paper attributes transient faults to.
//!
//! Both are deterministic under a seed, via [`event_sim::rng::substream`].

use rand::rngs::SmallRng;
use rand::Rng;

use event_sim::rng::substream;

use crate::ber::Ber;
use crate::campaign::CampaignCounters;

/// Slots in the frame-probability memo's table.
///
/// A run draws for one wire size per distinct payload length in its
/// message set, static and dynamic frames coded apart. The paper's tables
/// give a handful; the synthetic 64–1600-bit sets give about 50 in a
/// 60-message cell. The memo keeps up to [`FRAME_PROB_MEMO_MAX`] sizes and
/// never evicts one, so a run's working set stays resident; sizes first
/// seen after the table is full are computed on every frame.
const FRAME_PROB_SLOTS: usize = 128;
const _: () = assert!(
    FRAME_PROB_SLOTS.is_power_of_two(),
    "the hash takes the top bits"
);

/// The most sizes the memo holds: three quarters of the table, which
/// keeps linear probes short and guarantees a probe meets an empty slot.
const FRAME_PROB_MEMO_MAX: usize = FRAME_PROB_SLOTS / 4 * 3;

/// The memo's keys and probabilities, slot for slot.
type FrameProbTable = (Box<[u32; FRAME_PROB_SLOTS]>, Box<[f64; FRAME_PROB_SLOTS]>);

/// Exact memo of [`Ber::frame_failure_probability`] for one bit error rate.
///
/// `ln(1 − BER)` is precomputed once and each distinct `bits` value pays
/// the `exp_m1` only on first sight, so the per-frame hot path is a table
/// probe. The cached value is produced by the *same expression* as the
/// uncached one — `-exp_m1(bits · ln_1p(−BER))` — so results are
/// bit-identical and golden digests are unaffected.
///
/// The table is open-addressed with linear probing (`bits == 0` marks an
/// empty slot: zero-bit frames never reach it). It is allocated on the
/// first lookup, so a process that never draws, or draws at BER 0, costs
/// no allocation. Keys and probabilities are two allocations of at most
/// 1 KiB rather than one of 2 KiB: glibc's per-thread cache recycles
/// chunks this small without merging them back into the heap top, so a
/// fleet that builds and drops a runner per vehicle does not trim the
/// heap and fault its pages back in for the next vehicle (one 2 KiB
/// table cost `fleet-setup` ~6 % per vehicle in minor page faults).
#[derive(Debug, Clone)]
struct FrameProbCache {
    rate: f64,
    ln1p_neg_rate: f64,
    table: Option<FrameProbTable>,
    len: usize,
}

impl FrameProbCache {
    fn new(ber: Ber) -> Self {
        FrameProbCache {
            rate: ber.rate(),
            ln1p_neg_rate: f64::ln_1p(-ber.rate()),
            table: None,
            len: 0,
        }
    }

    #[inline]
    fn probability(&mut self, bits: u32) -> f64 {
        if self.rate == 0.0 || bits == 0 {
            return 0.0;
        }
        let (keys, probs) = self.table.get_or_insert_with(|| {
            (
                Box::new([0; FRAME_PROB_SLOTS]),
                Box::new([0.0; FRAME_PROB_SLOTS]),
            )
        });
        // Fibonacci hashing spreads the arithmetic progressions wire
        // sizes form (20 bits per payload word) over the table.
        let mut i =
            (bits.wrapping_mul(0x9E37_79B9) >> (32 - FRAME_PROB_SLOTS.trailing_zeros())) as usize;
        loop {
            let key = keys[i];
            if key == bits {
                return probs[i];
            }
            if key == 0 {
                break;
            }
            i = (i + 1) % FRAME_PROB_SLOTS;
        }
        let p = -f64::exp_m1(f64::from(bits) * self.ln1p_neg_rate);
        if self.len < FRAME_PROB_MEMO_MAX {
            keys[i] = bits;
            probs[i] = p;
            self.len += 1;
        }
        p
    }
}

/// Hit pattern returned by a batched per-segment fault draw.
///
/// Bit `i` of `mask` is set iff the `i`-th frame of the batch was
/// corrupted; batches are therefore limited to 64 frames, which comfortably
/// covers a FlexRay segment (≤ 60 static slots, ≤ 64 minislot frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHits {
    /// Per-frame corruption bitmask (frame `i` ↔ bit `i`).
    pub mask: u64,
    /// Number of frames covered by the batch.
    pub frames: u32,
}

impl SegmentHits {
    /// A batch of `frames` frames, none corrupted.
    #[must_use]
    pub fn clear(frames: u32) -> Self {
        SegmentHits { mask: 0, frames }
    }

    /// Whether frame `i` of the batch was corrupted.
    #[must_use]
    pub fn hit(&self, i: u32) -> bool {
        debug_assert!(i < self.frames);
        self.mask >> i & 1 == 1
    }

    /// Number of corrupted frames in the batch.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Cumulative fault-injection counters a [`FaultProcess`] maintains.
///
/// `faults_injected` counts frames the process corrupted; recovery
/// accounting (how many corrupted *instances* were still delivered via
/// planned retransmissions) lives with the instance tracker, because a
/// fault process cannot know whether a later copy succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Frames this process was consulted about.
    pub frames_checked: u64,
    /// Frames it decided to corrupt.
    pub faults_injected: u64,
}

impl FaultCounters {
    /// Field-wise sum of two counter sets (e.g. across channels).
    #[must_use]
    pub fn merged(self, other: FaultCounters) -> FaultCounters {
        FaultCounters {
            frames_checked: self.frames_checked + other.frames_checked,
            faults_injected: self.faults_injected + other.faults_injected,
        }
    }
}

/// A source of per-frame transient faults.
///
/// Implementations are stateful (they own an RNG and possibly a channel
/// state) and deterministic under their construction seed.
pub trait FaultProcess: std::fmt::Debug + Send {
    /// Returns `true` if a frame of `bits` bits transmitted now is
    /// corrupted.
    fn corrupts(&mut self, bits: u32) -> bool;

    /// The long-run probability that a frame of `bits` bits is corrupted
    /// (used by analysis code; need not be exact for bursty models).
    fn frame_failure_probability(&self, bits: u32) -> f64;

    /// Cumulative injection counters. Every process must count
    /// `frames_checked` on each [`corrupts`](Self::corrupts) consultation
    /// — even fault-free ones like [`NoFaults`] — so that counter diffs
    /// (golden verify) and the reliability monitor see the same frame
    /// totals regardless of the fault model.
    fn counters(&self) -> FaultCounters;

    /// Whether the process is currently inside a correlated fault burst.
    ///
    /// Memoryless models keep the default `false`; bursty models
    /// ([`GilbertElliott`]'s bad state, an active
    /// [`crate::campaign::CampaignFaults`] disturbance) override it.
    /// Purely observational — the bus tracer uses it to tag fault-hit
    /// events — and must not mutate state.
    fn in_burst(&self) -> bool {
        false
    }

    /// Announces the start of communication cycle `cycle`.
    ///
    /// The bus engine calls this once per channel before running the
    /// cycle's segments, giving scripted processes
    /// ([`crate::campaign::CampaignFaults`]) a deterministic cycle clock.
    /// The default is a no-op — stochastic processes are clockless, and
    /// the hook must never draw from the RNG or touch counters, so
    /// enabling it engine-wide cannot move golden digests.
    fn on_cycle_start(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// Campaign-layer counters, when this process is (or wraps) a
    /// scripted [`crate::campaign::CampaignFaults`] decorator; `None` for
    /// plain stochastic processes.
    fn campaign_counters(&self) -> Option<CampaignCounters> {
        None
    }

    /// Draws faults for a batch of `frames` equal-sized frames at once.
    ///
    /// The default implementation loops [`corrupts`](Self::corrupts), so it
    /// is RNG-stream-identical to per-frame consultation by construction.
    /// Implementations may override it to amortise work across the batch
    /// (see [`BernoulliFaults`]) but must consume the RNG stream exactly as
    /// the per-frame loop would: digests of runs that interleave batched
    /// and per-frame draws are part of the golden contract.
    ///
    /// # Panics
    /// Panics in debug builds if `frames > 64` (the mask width).
    fn corrupts_run(&mut self, bits: u32, frames: u32) -> SegmentHits {
        debug_assert!(frames <= 64, "batch wider than the hit mask");
        let mut mask = 0u64;
        for i in 0..frames {
            mask |= u64::from(self.corrupts(bits)) << i;
        }
        SegmentHits { mask, frames }
    }
}

/// Independent per-frame Bernoulli faults derived from a bit error rate.
///
/// ```
/// use reliability::{Ber, fault::{BernoulliFaults, FaultProcess}};
/// let mut f = BernoulliFaults::new(Ber::new(0.5).unwrap(), 42);
/// // With BER=0.5 a long frame is corrupted essentially always.
/// assert!(f.corrupts(1_000));
/// ```
#[derive(Debug)]
pub struct BernoulliFaults {
    ber: Ber,
    prob: FrameProbCache,
    rng: SmallRng,
    counters: FaultCounters,
}

impl BernoulliFaults {
    /// Creates the process with the given BER and seed.
    pub fn new(ber: Ber, seed: u64) -> Self {
        BernoulliFaults {
            ber,
            prob: FrameProbCache::new(ber),
            rng: substream(seed, "fault/bernoulli"),
            counters: FaultCounters::default(),
        }
    }

    /// The underlying bit error rate.
    pub fn ber(&self) -> Ber {
        self.ber
    }

    /// Batched draw via geometric gap sampling: one draw per *fault* plus
    /// one overshoot draw, instead of one per frame — the low-BER fast
    /// path (p ≈ 1e-4 means one draw per ~10 000 frames).
    ///
    /// Distribution-equivalent to `frames` independent Bernoulli(p) trials
    /// but **not** RNG-stream-compatible with
    /// [`corrupts`](FaultProcess::corrupts): it consumes a
    /// different number of uniforms, so mixing it with per-frame draws on
    /// the same process changes every later draw. Golden-path code must use
    /// [`corrupts_run`](FaultProcess::corrupts_run); this sampler is for
    /// throughput studies and is validated against the per-frame process by
    /// the distribution property tests.
    pub fn corrupts_run_geometric(&mut self, bits: u32, frames: u32) -> SegmentHits {
        debug_assert!(frames <= 64, "batch wider than the hit mask");
        self.counters.frames_checked += u64::from(frames);
        let p = self.prob.probability(bits);
        if p <= 0.0 || frames == 0 {
            return SegmentHits::clear(frames);
        }
        let mut mask = 0u64;
        if p >= 1.0 {
            mask = u64::MAX >> (64 - frames);
        } else {
            // Gap between hits is Geometric(p): k = ⌊ln U / ln(1−p)⌋ with
            // U uniform on (0, 1].
            let ln_q = f64::ln_1p(-p);
            let mut i = 0u64;
            loop {
                let u = 1.0 - self.rng.gen::<f64>();
                // Saturating cast: an enormous gap simply ends the batch.
                let gap = (u.ln() / ln_q).floor() as u64;
                i = i.saturating_add(gap);
                if i >= u64::from(frames) {
                    break;
                }
                mask |= 1 << i;
                i += 1;
            }
        }
        self.counters.faults_injected += u64::from(mask.count_ones());
        SegmentHits { mask, frames }
    }
}

impl FaultProcess for BernoulliFaults {
    fn corrupts(&mut self, bits: u32) -> bool {
        let p = self.prob.probability(bits);
        let hit = p > 0.0 && self.rng.gen::<f64>() < p;
        self.counters.frames_checked += 1;
        self.counters.faults_injected += u64::from(hit);
        hit
    }

    fn frame_failure_probability(&self, bits: u32) -> f64 {
        self.ber.frame_failure_probability(bits)
    }

    fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Stream-identical batched draw: one cache probe for the whole batch,
    /// and a `p == 0` batch short-circuits without touching the RNG —
    /// exactly as `frames` per-frame calls would (the per-frame path only
    /// draws when `p > 0`).
    fn corrupts_run(&mut self, bits: u32, frames: u32) -> SegmentHits {
        debug_assert!(frames <= 64, "batch wider than the hit mask");
        self.counters.frames_checked += u64::from(frames);
        let p = self.prob.probability(bits);
        if p <= 0.0 {
            return SegmentHits::clear(frames);
        }
        let mut mask = 0u64;
        for i in 0..frames {
            mask |= u64::from(self.rng.gen::<f64>() < p) << i;
        }
        self.counters.faults_injected += u64::from(mask.count_ones());
        SegmentHits { mask, frames }
    }
}

/// A two-state Gilbert–Elliott burst-fault channel.
///
/// The channel alternates between a *good* state (low BER) and a *bad*
/// state (high BER). After each frame, it switches state with the
/// configured transition probabilities. This produces the temporally
/// correlated fault bursts seen under real EMI/temperature events, which
/// the independent Bernoulli model cannot express.
#[derive(Debug)]
pub struct GilbertElliott {
    good_ber: Ber,
    bad_ber: Ber,
    good_prob: FrameProbCache,
    bad_prob: FrameProbCache,
    /// P(good → bad) after a frame.
    p_gb: f64,
    /// P(bad → good) after a frame.
    p_bg: f64,
    in_bad: bool,
    rng: SmallRng,
    counters: FaultCounters,
}

impl GilbertElliott {
    /// Creates the channel in the good state.
    ///
    /// # Panics
    /// Panics if either transition probability is outside `[0, 1]`.
    pub fn new(good_ber: Ber, bad_ber: Ber, p_gb: f64, p_bg: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_gb), "p_gb out of range");
        assert!((0.0..=1.0).contains(&p_bg), "p_bg out of range");
        GilbertElliott {
            good_ber,
            bad_ber,
            good_prob: FrameProbCache::new(good_ber),
            bad_prob: FrameProbCache::new(bad_ber),
            p_gb,
            p_bg,
            in_bad: false,
            rng: substream(seed, "fault/gilbert-elliott"),
            counters: FaultCounters::default(),
        }
    }

    /// Whether the channel is currently in the bad state.
    pub fn is_in_bad_state(&self) -> bool {
        self.in_bad
    }

    /// Long-run fraction of time spent in the bad state:
    /// `p_gb / (p_gb + p_bg)` (0 if both transition probabilities are 0).
    pub fn stationary_bad_fraction(&self) -> f64 {
        let denom = self.p_gb + self.p_bg;
        if denom == 0.0 {
            0.0
        } else {
            self.p_gb / denom
        }
    }
}

impl FaultProcess for GilbertElliott {
    fn corrupts(&mut self, bits: u32) -> bool {
        let p = if self.in_bad {
            self.bad_prob.probability(bits)
        } else {
            self.good_prob.probability(bits)
        };
        let hit = p > 0.0 && self.rng.gen::<f64>() < p;
        self.counters.frames_checked += 1;
        self.counters.faults_injected += u64::from(hit);
        // State transition after the frame.
        let flip = if self.in_bad { self.p_bg } else { self.p_gb };
        if self.rng.gen::<f64>() < flip {
            self.in_bad = !self.in_bad;
        }
        hit
    }

    fn frame_failure_probability(&self, bits: u32) -> f64 {
        let pb = self.stationary_bad_fraction();
        pb * self.bad_ber.frame_failure_probability(bits)
            + (1.0 - pb) * self.good_ber.frame_failure_probability(bits)
    }

    fn counters(&self) -> FaultCounters {
        self.counters
    }

    fn in_burst(&self) -> bool {
        self.in_bad
    }
}

/// A fault process that never corrupts anything (fault-free runs).
///
/// It still counts every consultation in `frames_checked`, so fault-free
/// and faulty runs report comparable frame totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults {
    frames_checked: u64,
}

impl NoFaults {
    /// Creates the process with zeroed counters.
    pub fn new() -> Self {
        NoFaults::default()
    }
}

impl FaultProcess for NoFaults {
    fn corrupts(&mut self, _bits: u32) -> bool {
        self.frames_checked += 1;
        false
    }

    fn frame_failure_probability(&self, _bits: u32) -> f64 {
        0.0
    }

    fn counters(&self) -> FaultCounters {
        FaultCounters {
            frames_checked: self.frames_checked,
            faults_injected: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_frequency_matches_probability() {
        let ber = Ber::new(1e-3).unwrap();
        let mut f = BernoulliFaults::new(ber, 1);
        let bits = 1000; // p ≈ 0.632
        let p = f.frame_failure_probability(bits);
        let trials = 20_000;
        let hits = (0..trials).filter(|_| f.corrupts(bits)).count();
        let freq = hits as f64 / trials as f64;
        assert!((freq - p).abs() < 0.02, "freq {freq} vs p {p}");
    }

    #[test]
    fn bernoulli_is_deterministic_under_seed() {
        let ber = Ber::new(1e-2).unwrap();
        let mut a = BernoulliFaults::new(ber, 9);
        let mut b = BernoulliFaults::new(ber, 9);
        for _ in 0..256 {
            assert_eq!(a.corrupts(500), b.corrupts(500));
        }
    }

    #[test]
    fn zero_ber_never_corrupts() {
        let mut f = BernoulliFaults::new(Ber::ZERO, 3);
        assert!((0..1000).all(|_| !f.corrupts(10_000)));
    }

    #[test]
    fn no_faults_process() {
        let mut f = NoFaults::new();
        assert!(!f.corrupts(u32::MAX));
        assert_eq!(f.frame_failure_probability(123), 0.0);
        // Consultations are counted even though nothing is ever corrupted.
        assert!(!f.corrupts(1));
        assert_eq!(
            f.counters(),
            FaultCounters {
                frames_checked: 2,
                faults_injected: 0,
            }
        );
    }

    #[test]
    fn in_burst_tracks_burst_state() {
        let mut quiet = BernoulliFaults::new(Ber::ZERO, 1);
        assert!(!quiet.in_burst(), "memoryless models are never in a burst");
        let _ = quiet.corrupts(100);
        assert!(!quiet.in_burst());

        let mut ge = GilbertElliott::new(Ber::ZERO, Ber::ZERO, 0.5, 0.5, 5);
        let mut matched = true;
        for _ in 0..200 {
            let _ = ge.corrupts(100);
            matched &= ge.in_burst() == ge.is_in_bad_state();
        }
        assert!(matched, "in_burst mirrors the bad state");
    }

    #[test]
    fn gilbert_elliott_visits_both_states() {
        let g = Ber::new(1e-9).unwrap();
        let b = Ber::new(1e-3).unwrap();
        let mut ch = GilbertElliott::new(g, b, 0.1, 0.3, 5);
        let mut saw_bad = false;
        let mut saw_good = false;
        for _ in 0..1000 {
            let _ = ch.corrupts(100);
            if ch.is_in_bad_state() {
                saw_bad = true;
            } else {
                saw_good = true;
            }
        }
        assert!(saw_bad && saw_good);
    }

    #[test]
    fn gilbert_elliott_stationary_fraction() {
        let g = Ber::ZERO;
        let b = Ber::ZERO;
        let ch = GilbertElliott::new(g, b, 0.1, 0.3, 0);
        assert!((ch.stationary_bad_fraction() - 0.25).abs() < 1e-12);
        let frozen = GilbertElliott::new(g, b, 0.0, 0.0, 0);
        assert_eq!(frozen.stationary_bad_fraction(), 0.0);
    }

    #[test]
    fn gilbert_elliott_bursts_are_correlated() {
        // With sticky states, consecutive frames should correlate: count
        // runs of faults and compare to an independent process with the
        // same marginal probability. We just sanity-check that the bad
        // state produces a much higher local fault rate.
        let g = Ber::ZERO;
        let b = Ber::new(0.01).unwrap();
        let mut ch = GilbertElliott::new(g, b, 0.01, 0.01, 11);
        let mut faults_in_bad = 0u32;
        let mut frames_in_bad = 0u32;
        let mut faults_in_good = 0u32;
        let mut frames_in_good = 0u32;
        for _ in 0..50_000 {
            let in_bad = ch.is_in_bad_state();
            let hit = ch.corrupts(200);
            if in_bad {
                frames_in_bad += 1;
                faults_in_bad += u32::from(hit);
            } else {
                frames_in_good += 1;
                faults_in_good += u32::from(hit);
            }
        }
        assert_eq!(faults_in_good, 0, "good state has BER 0");
        assert!(frames_in_good > 0 && frames_in_bad > 0);
        assert!(faults_in_bad > 0, "bad state must produce faults");
    }

    #[test]
    fn counters_track_checks_and_injections() {
        let ber = Ber::new(0.9).unwrap();
        let mut f = BernoulliFaults::new(ber, 1);
        let mut observed = 0u64;
        for _ in 0..100 {
            observed += u64::from(f.corrupts(10_000));
        }
        assert_eq!(f.counters().frames_checked, 100);
        assert_eq!(f.counters().faults_injected, observed);
        assert!(observed > 0, "BER 0.9 on long frames must corrupt");

        let mut ge = GilbertElliott::new(Ber::ZERO, Ber::new(0.5).unwrap(), 0.5, 0.5, 7);
        let mut hits = 0u64;
        for _ in 0..200 {
            hits += u64::from(ge.corrupts(1_000));
        }
        assert_eq!(ge.counters().frames_checked, 200);
        assert_eq!(ge.counters().faults_injected, hits);

        let mut quiet = NoFaults::new();
        assert!(!quiet.corrupts(64));
        assert_eq!(quiet.counters().frames_checked, 1);
        assert_eq!(quiet.counters().faults_injected, 0);
        let merged = f.counters().merged(ge.counters());
        assert_eq!(merged.frames_checked, 300);
        assert_eq!(merged.faults_injected, observed + hits);
    }

    #[test]
    #[should_panic(expected = "p_gb out of range")]
    fn ge_rejects_bad_probability() {
        let _ = GilbertElliott::new(Ber::ZERO, Ber::ZERO, 1.5, 0.1, 0);
    }

    #[test]
    fn prob_cache_is_bit_identical_to_ber() {
        // Static and dynamic wire sizes of every even payload length
        // (more sizes than the memo holds), odd extremes, and zero.
        let wire = (1..=127u32).flat_map(|words| [88 + 20 * words, 90 + 20 * words]);
        let sizes: Vec<u32> = [0u32, 1, 7, 42, 65_535, 123_456, u32::MAX]
            .into_iter()
            .chain(wire)
            .collect();
        assert!(sizes.len() > FRAME_PROB_SLOTS);
        for rate in [1e-7, 1e-5, 1e-3, 0.3] {
            let ber = Ber::new(rate).unwrap();
            let mut cache = FrameProbCache::new(ber);
            // Visited three times: the fill pass, then hits for the held
            // sizes and recomputation for the rest.
            for _ in 0..3 {
                for &bits in &sizes {
                    let want = ber.frame_failure_probability(bits);
                    let got = cache.probability(bits);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "rate {rate} bits {bits}: cached {got} != direct {want}"
                    );
                }
            }
            assert_eq!(cache.len, FRAME_PROB_MEMO_MAX, "the memo fills and stops");
        }
        let mut quiet = FrameProbCache::new(Ber::ZERO);
        assert_eq!(quiet.probability(1000), 0.0);
        assert!(quiet.table.is_none(), "BER 0 never allocates the table");
    }

    #[test]
    fn prob_cache_holds_a_synthetic_working_set() {
        // The 50 sizes of a synthetic cell all stay resident after one
        // pass (no eviction, so cycling through them never thrashes).
        let ber = Ber::new(1e-5).unwrap();
        let mut cache = FrameProbCache::new(ber);
        let sizes: Vec<u32> = (4..=103u32).step_by(2).map(|w| 88 + 20 * w).collect();
        assert_eq!(sizes.len(), 50);
        for _ in 0..3 {
            for &bits in &sizes {
                let _ = cache.probability(bits);
            }
            assert_eq!(cache.len, sizes.len());
            let (keys, _) = cache.table.as_ref().unwrap();
            assert!(sizes.iter().all(|bits| keys.contains(bits)));
        }
    }

    #[test]
    fn batched_bernoulli_draw_matches_per_frame_stream() {
        let ber = Ber::new(1e-3).unwrap();
        let mut per_frame = BernoulliFaults::new(ber, 77);
        let mut batched = BernoulliFaults::new(ber, 77);
        // Interleave batch widths so boundaries never line up by accident.
        for (round, &width) in [1u32, 64, 7, 13, 64, 3, 31]
            .iter()
            .cycle()
            .take(200)
            .enumerate()
        {
            let bits = [200u32, 1000, 4000][round % 3];
            let hits = batched.corrupts_run(bits, width);
            for i in 0..width {
                assert_eq!(
                    per_frame.corrupts(bits),
                    hits.hit(i),
                    "round {round} frame {i} diverged"
                );
            }
        }
        assert_eq!(per_frame.counters(), batched.counters());
    }

    #[test]
    fn batched_draw_on_zero_ber_consumes_no_rng() {
        // A p == 0 batch must not advance the stream (the per-frame path
        // only draws when p > 0), so a later positive-p draw still matches.
        let ber = Ber::new(1e-2).unwrap();
        let mut a = BernoulliFaults::new(ber, 5);
        let mut b = BernoulliFaults::new(ber, 5);
        let quiet = b.corrupts_run(0, 64); // bits == 0 → p == 0
        assert_eq!(quiet, SegmentHits::clear(64));
        for _ in 0..64 {
            let _ = a.corrupts(0);
        }
        assert_eq!(a.corrupts(500), b.corrupts(500));
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn default_batched_draw_matches_gilbert_elliott_stream() {
        let g = Ber::new(1e-6).unwrap();
        let b = Ber::new(1e-3).unwrap();
        let mut per_frame = GilbertElliott::new(g, b, 0.05, 0.2, 13);
        let mut batched = GilbertElliott::new(g, b, 0.05, 0.2, 13);
        for round in 0..300 {
            let width = 1 + (round % 64) as u32;
            let hits = batched.corrupts_run(1000, width);
            for i in 0..width {
                assert_eq!(per_frame.corrupts(1000), hits.hit(i));
            }
            assert_eq!(per_frame.is_in_bad_state(), batched.is_in_bad_state());
        }
        assert_eq!(per_frame.counters(), batched.counters());
    }

    #[test]
    fn geometric_sampler_counts_frames_and_is_deterministic() {
        let ber = Ber::new(1e-4).unwrap();
        let mut a = BernoulliFaults::new(ber, 21);
        let mut b = BernoulliFaults::new(ber, 21);
        let mut hits = 0u64;
        for _ in 0..1000 {
            let ha = a.corrupts_run_geometric(2000, 64);
            let hb = b.corrupts_run_geometric(2000, 64);
            assert_eq!(ha, hb);
            hits += u64::from(ha.count());
        }
        assert_eq!(a.counters().frames_checked, 64_000);
        assert_eq!(a.counters().faults_injected, hits);
        // p ≈ 0.18 per frame here, so some faults must have landed.
        assert!(hits > 0);
    }

    #[test]
    fn geometric_sampler_edge_rates() {
        let mut zero = BernoulliFaults::new(Ber::ZERO, 1);
        assert_eq!(
            zero.corrupts_run_geometric(1000, 64),
            SegmentHits::clear(64)
        );
        // BER high enough that p rounds to 1.0 for a long frame.
        let mut hot = BernoulliFaults::new(Ber::new(0.9).unwrap(), 1);
        let all = hot.corrupts_run_geometric(100_000, 17);
        assert_eq!(all.count(), 17);
        assert!((0..17).all(|i| all.hit(i)));
    }
}
