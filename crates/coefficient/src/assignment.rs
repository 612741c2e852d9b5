//! Static-segment allocation and selective slack stealing.
//!
//! Everything periodic in a FlexRay schedule repeats over the 64-cycle
//! matrix, so CoEfficient's placement decisions — primaries, mirrors, and
//! the retransmission copies required by the reliability plan — are made
//! **offline** over a `(channel × slot × 64 cycles)` occupancy matrix:
//!
//! * **primaries**: each static message gets a slot and a
//!   `(base, repetition)` pattern on channel A, repetition being the
//!   largest power of two whose cycle multiple still fits the message
//!   period (so every period sees at least one transmission);
//! * **mirrors** (FSPEC): the same position on channel B — the
//!   spec's blanket dual-channel redundancy;
//! * **copies** (CoEfficient): `k_z` extra positions *stolen from the idle
//!   slack*, preferring zero-added-latency positions (channel B, same
//!   slot/cycle), then later slots of the same cycle, then following
//!   cycles — and only positions whose capacity fits the frame (the
//!   *selective* criterion of §III-F). Copies that find no static slack
//!   spill to the dynamic segment at run time.

use std::fmt;

use flexray::codec::FrameCoding;
use flexray::config::{ClusterConfig, CYCLE_COUNT_MAX};
use flexray::schedule::MessageId;
use flexray::signal::Signal;
use flexray::ChannelId;

/// Why an occupant sits in a position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupantKind {
    /// The message's primary transmission.
    Primary,
    /// FSPEC's channel-B duplicate of the primary.
    Mirror,
    /// A CoEfficient retransmission copy stolen from slack.
    Copy,
}

/// One occupied position in the allocation matrix. It is 8 bytes, and so
/// is a matrix entry (`Option<Occupant>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupant {
    /// The message transmitted here.
    pub message: MessageId,
    /// The message's position in the `messages` slice the allocation was
    /// built from — the dense index the scheduler's tables use.
    pub index: u16,
    /// Primary, mirror or stolen copy.
    pub kind: OccupantKind,
}

/// A repeating position in the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPosition {
    /// Static slot (1-based).
    pub slot: u16,
    /// First active cycle (0–63).
    pub base_cycle: u8,
    /// Cycle repetition (power of two ≤ 64).
    pub repetition: u8,
    /// Channel.
    pub channel: ChannelId,
}

/// A stolen-slack copy position for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyPlacement {
    /// The protected message.
    pub message: MessageId,
    /// Where the copy transmits.
    pub position: SlotPosition,
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationError {
    /// A frame's wire length exceeds the static slot capacity.
    FrameTooLarge {
        /// The offending message.
        message: MessageId,
        /// Its on-wire bits.
        wire_bits: u64,
        /// The slot capacity.
        capacity: u64,
    },
    /// No `(slot, base)` could host the message's primary pattern.
    NoSlotAvailable {
        /// The message that could not be placed.
        message: MessageId,
    },
    /// Two messages share an id.
    DuplicateMessage {
        /// The repeated id.
        message: MessageId,
    },
    /// More messages than an occupant's 16-bit `index` can address.
    TooManyMessages {
        /// The number of messages given.
        count: usize,
    },
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::FrameTooLarge {
                message,
                wire_bits,
                capacity,
            } => write!(
                f,
                "message {message}: frame of {wire_bits} wire bits exceeds slot capacity {capacity}"
            ),
            AllocationError::NoSlotAvailable { message } => {
                write!(
                    f,
                    "message {message}: no free static slot pattern available"
                )
            }
            AllocationError::DuplicateMessage { message } => {
                write!(f, "message id {message} occurs more than once")
            }
            AllocationError::TooManyMessages { count } => write!(
                f,
                "{count} static messages exceed the {MAX_MESSAGES} an allocation can index"
            ),
        }
    }
}

impl std::error::Error for AllocationError {}

/// The most messages an allocation indexes ([`Occupant::index`] is 16
/// bits wide).
const MAX_MESSAGES: usize = u16::MAX as usize;

/// `(id, input index)` pairs sorted by id: the table behind every id →
/// dense index translation. `Err` carries the smallest repeated id.
pub(crate) fn index_table<K: Ord + Copy>(ids: impl Iterator<Item = K>) -> Result<Vec<(K, u32)>, K> {
    let mut table: Vec<(K, u32)> = ids.zip(0..).collect();
    table.sort_unstable();
    match table.windows(2).find(|w| w[0].0 == w[1].0) {
        Some(w) => Err(w[0].0),
        None => Ok(table),
    }
}

/// The input index of `id` in a table built by [`index_table`].
pub(crate) fn index_in<K: Ord + Copy>(table: &[(K, u32)], id: K) -> Option<usize> {
    let i = table.binary_search_by_key(&id, |&(k, _)| k).ok()?;
    Some(table[i].1 as usize)
}

/// The populated allocation matrix.
pub struct StaticAllocation {
    slots: u16,
    /// `matrix[channel][slot-1][cycle]`.
    matrix: Vec<Option<Occupant>>,
    /// Primary positions in input order.
    primaries: Vec<SlotPosition>,
    /// `(message id, input index)`, sorted by id.
    ids: Vec<(MessageId, u32)>,
    copies: Vec<CopyPlacement>,
    /// Copies that found no static slack: `(message, count per instance)`.
    spill: Vec<(MessageId, u32)>,
}

impl fmt::Debug for StaticAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StaticAllocation")
            .field("slots", &self.slots)
            .field("primaries", &self.primaries.len())
            .field("copies", &self.copies.len())
            .field("spill", &self.spill)
            .finish()
    }
}

const CYCLES: usize = CYCLE_COUNT_MAX as usize;

impl StaticAllocation {
    fn index(&self, channel: ChannelId, slot: u16, cycle: u8) -> usize {
        debug_assert!(slot >= 1 && slot <= self.slots);
        (channel.index() * usize::from(self.slots) + usize::from(slot - 1)) * CYCLES
            + usize::from(cycle)
    }

    /// The occupant of `(channel, slot)` in the cycle with counter
    /// `cycle_counter`, if any.
    pub fn occupant(&self, channel: ChannelId, slot: u16, cycle_counter: u8) -> Option<Occupant> {
        self.matrix[self.index(channel, slot, cycle_counter)]
    }

    /// `true` if the position is free.
    pub fn is_free(&self, channel: ChannelId, slot: u16, cycle_counter: u8) -> bool {
        self.occupant(channel, slot, cycle_counter).is_none()
    }

    /// Primary position of `message`.
    pub fn primary_of(&self, message: MessageId) -> Option<SlotPosition> {
        self.index_of(message).map(|i| self.primaries[i])
    }

    /// Primary positions of every message, in the order of the
    /// `messages` slice the allocation was built from.
    pub(crate) fn primaries(&self) -> &[SlotPosition] {
        &self.primaries
    }

    /// The position of `message` in the `messages` slice the allocation
    /// was built from (its dense index), if it is one of them.
    pub(crate) fn index_of(&self, message: MessageId) -> Option<usize> {
        index_in(&self.ids, message)
    }

    /// Every message's dense index, in ascending id order (the scan
    /// oracle's walk).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn indices_by_id(&self) -> impl Iterator<Item = usize> + '_ {
        self.ids.iter().map(|&(_, i)| i as usize)
    }

    /// All stolen-slack copy placements.
    pub fn copies(&self) -> &[CopyPlacement] {
        &self.copies
    }

    /// Copies that must spill to the dynamic segment, per instance.
    pub fn spill(&self) -> &[(MessageId, u32)] {
        &self.spill
    }

    /// Number of static slots per channel.
    pub fn slot_count(&self) -> u16 {
        self.slots
    }

    /// Free positions over the whole matrix (both channels).
    pub fn free_positions(&self) -> usize {
        self.matrix.iter().filter(|o| o.is_none()).count()
    }

    /// Fraction of matrix positions occupied on `channel`.
    pub fn occupancy(&self, channel: ChannelId) -> f64 {
        let per_channel = usize::from(self.slots) * CYCLES;
        let start = channel.index() * per_channel;
        let used = self.matrix[start..start + per_channel]
            .iter()
            .filter(|o| o.is_some())
            .count();
        used as f64 / per_channel as f64
    }

    /// The cycles of the pattern `(base, rep)`: `base, base + rep, …`
    /// below 64, i.e. every cycle `c` with `c % rep == base`.
    fn pattern_cycles(base: u8, rep: u8) -> impl Iterator<Item = u8> {
        debug_assert!(base < rep, "base {base} outside repetition {rep}");
        (base..CYCLES as u8).step_by(usize::from(rep))
    }

    /// Checks a candidate `(slot, base, rep)` pattern for freeness.
    fn pattern_free(&self, channel: ChannelId, slot: u16, base: u8, rep: u8) -> bool {
        Self::pattern_cycles(base, rep).all(|c| self.is_free(channel, slot, c))
    }

    fn occupy_pattern(&mut self, pos: SlotPosition, occ: Occupant) {
        for c in Self::pattern_cycles(pos.base_cycle, pos.repetition) {
            let i = self.index(pos.channel, pos.slot, c);
            debug_assert!(self.matrix[i].is_none(), "double allocation");
            self.matrix[i] = Some(occ);
        }
    }

    /// The repetition used for a message of the given period: the largest
    /// power of two `r ≤ 64` with `r × cycle ≤ period`, at least 1.
    pub fn repetition_for(config: &ClusterConfig, period: event_sim::SimDuration) -> u8 {
        let cycle = config.cycle_duration();
        let mut rep: u64 = 1;
        while rep < CYCLE_COUNT_MAX && cycle * (rep * 2) <= period {
            rep *= 2;
        }
        rep as u8
    }

    /// Builds the allocation with dual-channel copy placement (the
    /// default CoEfficient behaviour). See [`Self::build_with_channels`].
    ///
    /// # Errors
    /// [`AllocationError`] if a frame exceeds the slot capacity, no
    /// primary pattern fits, or the message ids are not unique.
    pub fn build(
        config: &ClusterConfig,
        coding: &FrameCoding,
        messages: &[Signal],
        copy_counts: &[(MessageId, u32)],
        mirror_on_b: bool,
    ) -> Result<Self, AllocationError> {
        Self::build_with_channels(config, coding, messages, copy_counts, mirror_on_b, true)
    }

    /// Builds the allocation.
    ///
    /// * `messages` — the static workload;
    /// * `copy_counts` — per message id, the number of retransmission
    ///   copies to steal slack for (`k_z`; empty for FSPEC);
    /// * `mirror_on_b` — FSPEC's blanket channel-B duplication;
    /// * `copies_on_b` — whether stolen-slack copies may use channel B
    ///   (disabled by the single-channel ablation).
    ///
    /// # Errors
    /// [`AllocationError`] if a frame exceeds the slot capacity, no
    /// primary pattern fits, or the message ids are not unique.
    pub fn build_with_channels(
        config: &ClusterConfig,
        coding: &FrameCoding,
        messages: &[Signal],
        copy_counts: &[(MessageId, u32)],
        mirror_on_b: bool,
        copies_on_b: bool,
    ) -> Result<Self, AllocationError> {
        if messages.len() > MAX_MESSAGES {
            return Err(AllocationError::TooManyMessages {
                count: messages.len(),
            });
        }
        let ids = index_table(messages.iter().map(|m| m.id))
            .map_err(|message| AllocationError::DuplicateMessage { message })?;
        let slots = config.static_slot_count() as u16;
        let capacity = config.static_slot_capacity_bits();
        let mut alloc = StaticAllocation {
            slots,
            matrix: vec![None; 2 * usize::from(slots) * CYCLES],
            primaries: Vec::new(),
            ids,
            copies: Vec::new(),
            spill: Vec::new(),
        };

        // Capacity check up front (selective criterion: a slot must fit
        // the frame).
        for m in messages {
            let wire = coding.message_wire_bits(u64::from(m.size_bits), false);
            if wire > capacity {
                return Err(AllocationError::FrameTooLarge {
                    message: m.id,
                    wire_bits: wire,
                    capacity,
                });
            }
        }

        // Primary placement: tightest repetition first (they are the
        // hardest to fit), then by deadline, then id for determinism.
        let mut order: Vec<(&Signal, u16)> = messages.iter().zip(0..).collect();
        order.sort_by_key(|(m, _)| {
            (
                StaticAllocation::repetition_for(config, m.period),
                m.deadline,
                m.id,
            )
        });
        let mut primaries = vec![None; messages.len()];
        for &(m, index) in &order {
            let rep = StaticAllocation::repetition_for(config, m.period);
            let mut placed = false;
            'search: for slot in 1..=slots {
                for base in 0..rep {
                    if alloc.pattern_free(ChannelId::A, slot, base, rep)
                        && (!mirror_on_b || alloc.pattern_free(ChannelId::B, slot, base, rep))
                    {
                        let pos = SlotPosition {
                            slot,
                            base_cycle: base,
                            repetition: rep,
                            channel: ChannelId::A,
                        };
                        alloc.occupy_pattern(
                            pos,
                            Occupant {
                                message: m.id,
                                index,
                                kind: OccupantKind::Primary,
                            },
                        );
                        if mirror_on_b {
                            alloc.occupy_pattern(
                                SlotPosition {
                                    channel: ChannelId::B,
                                    ..pos
                                },
                                Occupant {
                                    message: m.id,
                                    index,
                                    kind: OccupantKind::Mirror,
                                },
                            );
                        }
                        primaries[usize::from(index)] = Some(pos);
                        placed = true;
                        break 'search;
                    }
                }
            }
            if !placed {
                return Err(AllocationError::NoSlotAvailable { message: m.id });
            }
        }
        // Every message is placed by now, so no entry is `None`.
        alloc.primaries = primaries.into_iter().flatten().collect();

        // Copy placement: steal slack near the primary, cheapest added
        // latency first.
        for &(message, k) in copy_counts {
            if k == 0 {
                continue;
            }
            let Some(index) = alloc.index_of(message) else {
                continue; // dynamic messages spill entirely
            };
            let primary = alloc.primaries[index];
            let index = u16::try_from(index).expect("at most MAX_MESSAGES messages");
            let mut remaining = k;
            // Candidate order: same slot on B (Δlatency 0), later slots of
            // the same cycle (A then B), then subsequent cycles.
            let channel_order: &[ChannelId] = if copies_on_b {
                &[ChannelId::B, ChannelId::A]
            } else {
                &[ChannelId::A]
            };
            'day: for delta_cycle in 0..u16::from(primary.repetition) {
                let base =
                    (u16::from(primary.base_cycle) + delta_cycle) % u16::from(primary.repetition);
                let slot_from = if delta_cycle == 0 { primary.slot } else { 1 };
                for slot in slot_from..=slots {
                    for &channel in channel_order {
                        if delta_cycle == 0 && slot == primary.slot && channel == ChannelId::A {
                            continue; // the primary itself
                        }
                        if alloc.pattern_free(channel, slot, base as u8, primary.repetition) {
                            let pos = SlotPosition {
                                slot,
                                base_cycle: base as u8,
                                repetition: primary.repetition,
                                channel,
                            };
                            alloc.occupy_pattern(
                                pos,
                                Occupant {
                                    message,
                                    index,
                                    kind: OccupantKind::Copy,
                                },
                            );
                            alloc.copies.push(CopyPlacement {
                                message,
                                position: pos,
                            });
                            remaining -= 1;
                            if remaining == 0 {
                                break 'day;
                            }
                        }
                    }
                }
            }
            if remaining > 0 {
                alloc.spill.push((message, remaining));
            }
        }
        // Dynamic-message copies (ids without a primary) spill by
        // definition; record them so the runtime enqueues extras.
        for &(message, k) in copy_counts {
            if k > 0 && alloc.index_of(message).is_none() {
                alloc.spill.push((message, k));
            }
        }

        Ok(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_sim::SimDuration;

    fn config() -> ClusterConfig {
        ClusterConfig::paper_dynamic(50)
    }

    fn sig(id: u32, period_ms: u64, bits: u32) -> Signal {
        Signal::new(
            id,
            SimDuration::from_millis(period_ms),
            SimDuration::ZERO,
            SimDuration::from_millis(period_ms),
            bits,
        )
    }

    #[test]
    fn repetition_matches_period() {
        let c = config(); // 1 ms cycle
        assert_eq!(
            StaticAllocation::repetition_for(&c, SimDuration::from_millis(1)),
            1
        );
        assert_eq!(
            StaticAllocation::repetition_for(&c, SimDuration::from_millis(8)),
            8
        );
        assert_eq!(
            StaticAllocation::repetition_for(&c, SimDuration::from_millis(24)),
            16
        );
        assert_eq!(
            StaticAllocation::repetition_for(&c, SimDuration::from_millis(100)),
            64
        );
        // Period shorter than the cycle still transmits every cycle.
        assert_eq!(
            StaticAllocation::repetition_for(&c, SimDuration::from_micros(500)),
            1
        );
    }

    #[test]
    fn primaries_land_on_channel_a_without_conflicts() {
        let msgs = vec![
            sig(1, 1, 100),
            sig(2, 2, 100),
            sig(3, 2, 100),
            sig(4, 8, 100),
        ];
        let a =
            StaticAllocation::build(&config(), &FrameCoding::default(), &msgs, &[], false).unwrap();
        // msg 1 needs a full slot; msgs 2 and 3 share slot 2 (bases 0/1).
        let p1 = a.primary_of(1).unwrap();
        let p2 = a.primary_of(2).unwrap();
        let p3 = a.primary_of(3).unwrap();
        assert_eq!(p1.repetition, 1);
        assert_eq!(p2.slot, p3.slot, "rep-2 messages share a slot");
        assert_ne!(p2.base_cycle, p3.base_cycle);
        for p in [p1, p2, p3] {
            assert_eq!(p.channel, ChannelId::A);
        }
        // Channel B stays empty without mirrors.
        assert_eq!(a.occupancy(ChannelId::B), 0.0);
    }

    #[test]
    fn mirror_mode_duplicates_on_b() {
        let msgs = vec![sig(1, 1, 100)];
        let a =
            StaticAllocation::build(&config(), &FrameCoding::default(), &msgs, &[], true).unwrap();
        let p = a.primary_of(1).unwrap();
        let occ_b = a.occupant(ChannelId::B, p.slot, p.base_cycle).unwrap();
        assert_eq!(occ_b.kind, OccupantKind::Mirror);
        assert_eq!(occ_b.message, 1);
        assert!((a.occupancy(ChannelId::A) - a.occupancy(ChannelId::B)).abs() < 1e-12);
    }

    #[test]
    fn first_copy_prefers_channel_b_same_slot() {
        let msgs = vec![sig(1, 1, 100)];
        let a =
            StaticAllocation::build(&config(), &FrameCoding::default(), &msgs, &[(1, 2)], false)
                .unwrap();
        assert_eq!(a.copies().len(), 2);
        let p = a.primary_of(1).unwrap();
        let first = a.copies()[0].position;
        assert_eq!(first.channel, ChannelId::B);
        assert_eq!(first.slot, p.slot);
        assert_eq!(first.base_cycle, p.base_cycle);
        assert!(a.spill().is_empty());
    }

    #[test]
    fn copies_spill_when_matrix_is_full() {
        // Fill every slot with rep-1 messages, then ask for copies.
        let cfg = config();
        let slots = cfg.static_slot_count() as u32;
        let msgs: Vec<Signal> = (1..=slots * 2).map(|i| sig(i, 2, 100)).collect();
        // 2×slots rep-2 messages fill both bases of every slot on A...
        // with mirrors they'd fill B too; use mirrors to exhaust all slack.
        let a =
            StaticAllocation::build(&cfg, &FrameCoding::default(), &msgs, &[(1, 3)], true).unwrap();
        assert_eq!(a.free_positions(), 0, "matrix fully packed");
        assert_eq!(a.spill(), &[(1, 3)]);
    }

    #[test]
    fn overflow_of_primaries_errors() {
        let cfg = config();
        let slots = cfg.static_slot_count() as u32;
        let msgs: Vec<Signal> = (1..=slots + 1).map(|i| sig(i, 1, 100)).collect();
        let err =
            StaticAllocation::build(&cfg, &FrameCoding::default(), &msgs, &[], false).unwrap_err();
        assert!(matches!(err, AllocationError::NoSlotAvailable { .. }));
    }

    #[test]
    fn oversized_frame_errors() {
        let cfg = config();
        let cap = cfg.static_slot_capacity_bits();
        let msgs = vec![sig(1, 1, (cap + 1) as u32)];
        let err =
            StaticAllocation::build(&cfg, &FrameCoding::default(), &msgs, &[], false).unwrap_err();
        assert!(matches!(
            err,
            AllocationError::FrameTooLarge { message: 1, .. }
        ));
    }

    #[test]
    fn dynamic_message_copies_always_spill() {
        let msgs = vec![sig(1, 1, 100)];
        let a = StaticAllocation::build(
            &config(),
            &FrameCoding::default(),
            &msgs,
            &[(99, 2)], // 99 has no primary → dynamic
            false,
        )
        .unwrap();
        assert_eq!(a.spill(), &[(99, 2)]);
        assert!(a.copies().is_empty());
    }

    #[test]
    fn occupancy_accounts_repetitions() {
        let cfg = config();
        let msgs = vec![sig(1, 2, 100)]; // rep 2: half the cycles of one slot
        let a = StaticAllocation::build(&cfg, &FrameCoding::default(), &msgs, &[], false).unwrap();
        let expected = 0.5 / cfg.static_slot_count() as f64;
        assert!((a.occupancy(ChannelId::A) - expected).abs() < 1e-12);
    }

    #[test]
    fn stride_pattern_free_matches_the_modulo_filter() {
        use rand::Rng;
        let cfg = config();
        let msgs = vec![sig(1, 1, 100)];
        let mut a =
            StaticAllocation::build(&cfg, &FrameCoding::default(), &msgs, &[], false).unwrap();
        // Occupy random positions at a per-slot density, so that both
        // answers occur for every repetition.
        const DENSITY: [f64; 4] = [0.0, 0.02, 0.1, 0.3];
        let mut rng = event_sim::rng::substream(7, "stride-pattern-free");
        let slots = usize::from(a.slots);
        for (i, o) in a.matrix.iter_mut().enumerate() {
            if rng.gen_bool(DENSITY[(i / CYCLES) % slots % DENSITY.len()]) {
                *o = Some(Occupant {
                    message: 1,
                    index: 0,
                    kind: OccupantKind::Copy,
                });
            }
        }
        let mut answers = [[0u32; 2]; 7];
        for channel in [ChannelId::A, ChannelId::B] {
            for slot in 1..=a.slot_count() {
                for rep in (0..=6).map(|e| 1u8 << e) {
                    for base in 0..rep {
                        let modulo = (0..CYCLES as u16)
                            .filter(|c| c % u16::from(rep) == u16::from(base))
                            .all(|c| a.is_free(channel, slot, c as u8));
                        assert_eq!(
                            a.pattern_free(channel, slot, base, rep),
                            modulo,
                            "{channel:?} slot {slot} base {base} rep {rep}"
                        );
                        answers[rep.trailing_zeros() as usize][usize::from(modulo)] += 1;
                    }
                }
            }
        }
        for (e, [busy, free]) in answers.iter().enumerate() {
            assert!(
                *busy > 0 && *free > 0,
                "rep {}: {busy} busy, {free} free",
                1 << e
            );
        }
    }

    #[test]
    fn a_matrix_entry_stays_eight_bytes() {
        assert_eq!(std::mem::size_of::<Option<Occupant>>(), 8);
    }

    #[test]
    fn repeated_ids_are_refused() {
        let msgs = vec![sig(3, 1, 100), sig(7, 2, 100), sig(3, 4, 100)];
        let err = StaticAllocation::build(&config(), &FrameCoding::default(), &msgs, &[], false)
            .unwrap_err();
        assert_eq!(err, AllocationError::DuplicateMessage { message: 3 });
    }

    #[test]
    fn more_messages_than_the_index_holds_are_refused() {
        let msgs: Vec<Signal> = (0..=MAX_MESSAGES as u32).map(|i| sig(i, 100, 8)).collect();
        let err = StaticAllocation::build(&config(), &FrameCoding::default(), &msgs, &[], false)
            .unwrap_err();
        assert_eq!(err, AllocationError::TooManyMessages { count: 65_536 });
    }

    #[test]
    fn indexed_primary_of_matches_the_linear_find() {
        use rand::seq::SliceRandom;
        use rand::Rng;
        const PERIODS_MS: [u64; 8] = [1, 2, 3, 4, 8, 20, 50, 100];
        let cfg = ClusterConfig::paper_mixed(50);
        let mut rng = event_sim::rng::substream(11, "indexed-primary-of");
        let mut built = 0;
        for _ in 0..200 {
            let n = rng.gen_range(1..48);
            let mut ids: Vec<u32> = (1..200).collect();
            for i in 0..n + 4 {
                let j = rng.gen_range(i..ids.len());
                ids.swap(i, j);
            }
            let msgs: Vec<Signal> = ids[..n]
                .iter()
                .map(|&id| {
                    let period = *PERIODS_MS.choose(&mut rng).unwrap();
                    sig(id, period, rng.gen_range(8..400))
                })
                .collect();
            // Copy counts for some statics and for ids that are not.
            let counts: Vec<(MessageId, u32)> = ids[..n + 4]
                .iter()
                .map(|&id| (id, rng.gen_range(0..3)))
                .collect();
            let dual = rng.gen_bool(0.5);
            let mirror = rng.gen_bool(0.3);
            let Ok(a) = StaticAllocation::build_with_channels(
                &cfg,
                &FrameCoding::default(),
                &msgs,
                if mirror { &[] } else { &counts },
                mirror,
                dual,
            ) else {
                continue;
            };
            built += 1;
            // The list the old linear find walked, rebuilt from the
            // matrix: one (message, position) per channel-A primary.
            let mut linear: Vec<(MessageId, SlotPosition)> = Vec::new();
            for slot in 1..=a.slot_count() {
                for cycle in 0..CYCLES as u8 {
                    let Some(occ) = a.occupant(ChannelId::A, slot, cycle) else {
                        continue;
                    };
                    if occ.kind != OccupantKind::Primary
                        || linear.iter().any(|(m, _)| *m == occ.message)
                    {
                        continue;
                    }
                    let period = msgs[usize::from(occ.index)].period;
                    assert_eq!(msgs[usize::from(occ.index)].id, occ.message);
                    linear.push((
                        occ.message,
                        SlotPosition {
                            slot,
                            base_cycle: cycle,
                            repetition: StaticAllocation::repetition_for(&cfg, period),
                            channel: ChannelId::A,
                        },
                    ));
                }
            }
            for &id in &ids[..n + 4] {
                let old = linear.iter().find(|(m, _)| *m == id).map(|(_, p)| *p);
                assert_eq!(a.primary_of(id), old, "message {id}");
                assert_eq!(a.index_of(id), msgs.iter().position(|m| m.id == id));
            }
        }
        assert!(built > 100, "only {built} of 200 sets fit");
    }

    #[test]
    fn bbw_and_acc_fit_the_paper_dynamic_preset() {
        let mut msgs = workloads::bbw::message_set();
        msgs.extend(workloads::acc::message_set());
        let a = StaticAllocation::build(&config(), &FrameCoding::default(), &msgs, &[], false);
        let a = a.expect("BBW+ACC must fit 18 slots via cycle multiplexing");
        assert_eq!(a.primaries.len(), 40);
    }
}
