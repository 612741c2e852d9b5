//! Incremental candidate index behind the free-slot searches.
//!
//! Every free static position asks the same question: which released,
//! still-live static instance is the most urgent one this slot may carry?
//! Three searches ask it under different rules — the nominal early copy,
//! the degraded-mode hard copy and the dual-channel failover mirror —
//! and answering each by walking every static message costs
//! O(messages) per free slot. The index answers them from state planned
//! once per release instead (the hypercycle-reservation principle of
//! planning per event, not per slot):
//!
//! * **Live interval.** At production each instance gets the interval in
//!   which a search may pick it. For the early copy that is
//!   `[produced_at, min(next primary occurrence, produced_at + period))`;
//!   for the recovery searches `[produced_at, min(deadline, produced_at +
//!   period))`. Releases of one message are a period apart, so at most one
//!   instance per message is live at any instant — exactly the scan's
//!   "newest instance at or before the slot, window still open".
//! * **Per-channel clocks.** The bus runs channel A's whole static
//!   segment before channel B's, so slot instants only rise within one
//!   channel. Each channel keeps its own view; an entry that is dead on a
//!   channel's clock stays dead, which makes lazy deletion sound.
//! * **Early-copy view.** A min-heap on `(deadline, message id)` — the
//!   scan's tie-break. Entries die when their interval ends or once the
//!   instance has spent an early copy; dead entries are popped when they
//!   surface.
//! * **Recovery view.** A deadline-sorted vector. Entries die when their
//!   interval ends, when the instance is delivered, or once it has spent
//!   [`MAX_RECOVERY_BUDGET`] opportunistic copies. A query walks from the
//!   front, dropping the dead and skipping entries at or over the
//!   caller's budget (which varies with health, so over-budget entries
//!   are kept). Only the degraded-mode searches query it, so it is built
//!   on demand: releases are appended to an unsorted arrivals list, and
//!   the first query after them sorts the arrivals and merges them in.
//!   The candidate order is total (instance ids are unique), so the
//!   merged vector is the one sorted insertion would have built, and a
//!   nominal cycle never pays for the ordering.
//!
//! Releases wait in a per-channel FIFO until the channel's clock reaches
//! them: production runs up to a cycle ahead of the bus.
//! [`CandidateIndex::prune`] advances both clocks at each cycle start and
//! sweeps the dead, so the index stays bounded even when no search runs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use event_sim::SimTime;
use flexray::schedule::MessageId;
use flexray::ChannelId;

use crate::instance::{InstanceId, InstanceStatus, InstanceTracker};

/// The largest per-instance copy budget any recovery search uses (the
/// failover mirror's); an instance at it can never be picked again.
pub(crate) const MAX_RECOVERY_BUDGET: u32 = 4;

/// A released static instance as the free-slot searches see it. The
/// derived order is `(deadline, message, instance)`: the first two are
/// the scans' key and tie-break, the instance id makes it total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Candidate {
    pub deadline: SimTime,
    pub message: MessageId,
    pub instance: InstanceId,
    pub payload_bytes: u16,
    pub produced_at: SimTime,
    /// End (exclusive) of the early-copy interval.
    pub early_end: SimTime,
    /// End (exclusive) of the recovery interval.
    pub recovery_end: SimTime,
}

impl Candidate {
    fn early_dead(&self, t: SimTime, inst: &InstanceStatus) -> bool {
        self.early_end <= t || inst.early_copies > 0
    }

    fn recovery_dead(&self, t: SimTime, inst: &InstanceStatus) -> bool {
        self.recovery_end <= t || inst.is_delivered() || inst.early_copies >= MAX_RECOVERY_BUDGET
    }
}

#[derive(Debug)]
struct ChannelView {
    /// Produced but not yet released on this channel's clock, in release
    /// order.
    pending: VecDeque<Candidate>,
    early: BinaryHeap<Reverse<Candidate>>,
    /// Sorted ascending by the candidate order.
    recovery: Vec<Candidate>,
    /// Released into the recovery view but not yet merged into
    /// `recovery`, in release order.
    arrivals: Vec<Candidate>,
    /// The latest instant this channel was queried or pruned at.
    clock: SimTime,
}

/// The per-channel candidate views; see the module docs.
#[derive(Debug)]
pub(crate) struct CandidateIndex {
    channels: [ChannelView; 2],
    early: bool,
    recovery: bool,
}

impl CandidateIndex {
    /// An index for `messages` static messages maintaining the early-copy
    /// and/or recovery view. Capacity scales with the message count so
    /// the steady-state cycle loop never grows it.
    pub fn new(messages: usize, early: bool, recovery: bool) -> Self {
        let cap = 2 * messages;
        let view = || ChannelView {
            pending: VecDeque::with_capacity(cap),
            early: BinaryHeap::with_capacity(if early { cap } else { 0 }),
            recovery: Vec::new(),
            arrivals: Vec::with_capacity(if recovery { cap } else { 0 }),
            clock: SimTime::ZERO,
        };
        CandidateIndex {
            channels: [view(), view()],
            early,
            recovery,
        }
    }

    /// Registers a release. Releases must arrive in time order and no
    /// earlier than either channel's clock.
    pub fn insert(&mut self, c: Candidate) {
        for view in &mut self.channels {
            debug_assert!(
                c.produced_at >= view.clock
                    && view
                        .pending
                        .back()
                        .is_none_or(|b| b.produced_at <= c.produced_at),
                "static releases must not go back in time"
            );
            view.pending.push_back(c);
        }
    }

    /// The most urgent instance an early copy on `channel` at `t` may
    /// carry. The caller spends the copy, which retires the entry.
    pub fn early_copy(
        &mut self,
        channel: ChannelId,
        t: SimTime,
        tracker: &InstanceTracker,
    ) -> Option<Candidate> {
        let view = self.advance(channel, t);
        while let Some(Reverse(top)) = view.early.peek() {
            if !top.early_dead(t, tracker.get(top.instance)) {
                return Some(*top);
            }
            view.early.pop();
        }
        None
    }

    /// The most urgent undelivered instance a recovery copy on `channel`
    /// at `t` may carry when each instance may hold up to `budget`
    /// opportunistic copies.
    pub fn recovery(
        &mut self,
        channel: ChannelId,
        t: SimTime,
        budget: u32,
        tracker: &InstanceTracker,
    ) -> Option<Candidate> {
        debug_assert!(budget <= MAX_RECOVERY_BUDGET);
        let view = self.advance(channel, t);
        view.merge_arrivals();
        // Compact the walked prefix in place: dead entries are dropped,
        // over-budget ones kept for a later, larger budget.
        let (mut kept, mut walked, mut found) = (0, 0, None);
        while walked < view.recovery.len() {
            let c = view.recovery[walked];
            walked += 1;
            let inst = tracker.get(c.instance);
            if c.recovery_dead(t, inst) {
                continue;
            }
            view.recovery[kept] = c;
            kept += 1;
            if inst.early_copies < budget {
                found = Some(c);
                break;
            }
        }
        view.recovery.drain(kept..walked);
        found
    }

    /// Advances both channels' clocks to `now` and drops every dead entry.
    /// No later query may ask about an instant before `now`.
    pub fn prune(&mut self, now: SimTime, tracker: &InstanceTracker) {
        for channel in ChannelId::BOTH {
            let view = self.advance(channel, now);
            view.early
                .retain(|Reverse(c)| !c.early_dead(now, tracker.get(c.instance)));
            let live = |c: &Candidate| !c.recovery_dead(now, tracker.get(c.instance));
            view.recovery.retain(live);
            view.arrivals.retain(live);
        }
    }

    /// Moves `channel`'s clock to `t`, releasing every pending entry
    /// produced at or before it into the maintained views.
    fn advance(&mut self, channel: ChannelId, t: SimTime) -> &mut ChannelView {
        let (early, recovery) = (self.early, self.recovery);
        let view = &mut self.channels[channel.index()];
        debug_assert!(t >= view.clock, "channel clock went backwards");
        view.clock = t;
        while let Some(c) = view.pending.front().copied() {
            if c.produced_at > t {
                break;
            }
            view.pending.pop_front();
            if early {
                view.early.push(Reverse(c));
            }
            if recovery {
                view.arrivals.push(c);
            }
        }
        view
    }
}

impl ChannelView {
    /// Sorts the arrivals and merges them into `recovery`, back to front,
    /// so each entry moves at most once.
    fn merge_arrivals(&mut self) {
        if self.arrivals.is_empty() {
            return;
        }
        if self.recovery.capacity() == 0 {
            // The first query sizes the sorted view like the arrivals
            // list, which held every live entry until now.
            self.recovery.reserve_exact(self.arrivals.capacity());
        }
        self.arrivals.sort_unstable();
        let (mut i, mut j) = (self.recovery.len(), self.arrivals.len());
        self.recovery.extend_from_slice(&self.arrivals);
        while j > 0 {
            let w = i + j - 1;
            if i > 0 && self.recovery[i - 1] > self.arrivals[j - 1] {
                self.recovery[w] = self.recovery[i - 1];
                i -= 1;
            } else {
                self.recovery[w] = self.arrivals[j - 1];
                j -= 1;
            }
        }
        self.arrivals.clear();
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn candidate(rng: &mut SmallRng, instance: InstanceId) -> Candidate {
        let at = |us: u64| SimTime::from_micros(us);
        Candidate {
            // Narrow ranges so deadlines and messages tie often and the
            // instance id has to break the tie.
            deadline: at(rng.gen_range(0..20) * 250),
            message: rng.gen_range(0..6),
            instance,
            payload_bytes: 8,
            produced_at: at(0),
            early_end: at(0),
            recovery_end: at(0),
        }
    }

    /// Merging a batch of arrivals builds the vector that inserting each
    /// one in sorted position (the index's former release path) built.
    #[test]
    fn merged_arrivals_match_sorted_insertion() {
        let mut rng = SmallRng::seed_from_u64(15);
        let mut merged_tail = 0;
        for _ in 0..500 {
            let mut view = ChannelView {
                pending: VecDeque::new(),
                early: BinaryHeap::new(),
                recovery: Vec::new(),
                arrivals: Vec::new(),
                clock: SimTime::ZERO,
            };
            let mut inserted: Vec<Candidate> = Vec::new();
            let mut next_instance = 0;
            for _ in 0..rng.gen_range(1..6u32) {
                for _ in 0..rng.gen_range(0..12u32) {
                    let c = candidate(&mut rng, next_instance);
                    next_instance += 1;
                    view.arrivals.push(c);
                    let pos = inserted.partition_point(|e| *e < c);
                    inserted.insert(pos, c);
                }
                merged_tail += usize::from(
                    view.recovery
                        .last()
                        .is_some_and(|last| view.arrivals.iter().any(|c| c < last)),
                );
                view.merge_arrivals();
                assert!(view.arrivals.is_empty());
                assert_eq!(view.recovery, inserted);
            }
        }
        assert!(
            merged_tail > 100,
            "arrivals rarely landed inside the sorted prefix"
        );
    }
}
