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
//!   are kept).
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
            recovery: Vec::with_capacity(if recovery { cap } else { 0 }),
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
            view.recovery
                .retain(|c| !c.recovery_dead(now, tracker.get(c.instance)));
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
                let pos = view.recovery.partition_point(|e| *e < c);
                view.recovery.insert(pos, c);
            }
        }
        view
    }
}
