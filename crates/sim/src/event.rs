//! A deterministic time-ordered event queue.
//!
//! Events are delivered in `(time, sequence)` order, where the sequence
//! number is assigned at insertion. Two events scheduled for the same
//! instant are therefore delivered in insertion order, which makes
//! whole-simulation runs reproducible regardless of the queue's internals.
//!
//! ## Keys and payloads
//!
//! The queue orders 24-byte keys `(time, sequence, slot)`. Each event's
//! payload waits in a slot of a slab that is recycled across events, so
//! ordering moves keys and never a payload (the cluster's event alone is
//! 48 bytes), and a cancel drops its payload at once.
//!
//! ## A sorted run plus an overflow heap
//!
//! Which event-set structure wins depends on where new events land (Jones,
//! "An Empirical Comparison of Priority-Queue and Event-Set
//! Implementations", CACM 1986). A pipeline simulation mostly schedules
//! near the head. In one execution of each repository benchmark workload
//! (seed 7), the share of pushes that land within 4 keys of the head is
//! 55% on `sim_core`, 83% on `online_traffic` and 96% on `paper_mix`. So
//! keys live in a *run* sorted latest first. The head is the run's last
//! key and pops in O(1); a push counts the keys due before it from the
//! head and shifts only those, so a near-head push costs a few
//! comparisons. A key that would shift more than [`SHIFT_BOUND`] keys
//! goes to a binary min-heap of keys instead (0.8% of `sim_core`'s
//! pushes, and every key but the first few of an arrival trace seeded in
//! ascending order), so no push pattern is quadratic. A pop takes the
//! earlier of the two heads.
//!
//! ## Cancellation without per-event hashing
//!
//! Cancellation is lazy: a cancelled key stays where it is as a tombstone
//! and is dropped when it surfaces at a head. Liveness is tracked by a
//! slot/generation scheme, not by any hashed set of live ids (the
//! workspace bans hash collections in sim crates; see `freeride-lint`):
//! every pending event owns a slot, its [`EventId`] stamps the slot's
//! generation, and the slot (generation bumped) is recycled once its key
//! leaves the queue. Push, cancel and pop are amortised allocation-free,
//! and a stale id can never cancel a later event that reuses its slot.
//!
//! Tombstones are purged from both heads whenever one surfaces, so both
//! heads are always live events and [`EventQueue::peek_time`] needs only
//! `&self`.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The most run keys a push may shift. A key due after more run keys than
/// this goes to the overflow heap.
const SHIFT_BOUND: usize = 32;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Raw opaque value backing this id (slot and generation, packed).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    fn pack(generation: u32, slot: u32) -> Self {
        EventId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// Delivery key of one pending event. The derived order is `(time, seq)`:
/// `seq` is unique, so `slot` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

/// One slab slot. The generation distinguishes the slot's current tenant
/// from stale [`EventId`]s of earlier tenants.
struct Slot<E> {
    generation: u32,
    /// The pending payload; `None` once delivered or cancelled.
    event: Option<E>,
}

/// Events keyed by `(time, insertion order)`, delivered earliest first.
///
/// Keys sit in a run sorted latest first or, when a push would shift more
/// than a few run keys, in an overflow min-heap; payloads sit in a
/// recycled slot slab. Cancellation is lazy and per-event allocation-free.
pub struct EventQueue<E> {
    /// Keys sorted latest first: the last key is the run's head.
    run: Vec<Key>,
    /// Min-heap of the keys that would have shifted more than
    /// [`SHIFT_BOUND`] run keys.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Monotonic insertion counter; orders same-instant events.
    next_seq: u64,
    /// Slot slab; grows to the maximum number of keys held at once and is
    /// recycled thereafter.
    slots: Vec<Slot<E>>,
    /// Indices of vacant slots.
    free: Vec<u32>,
    /// Number of scheduled, not-yet-delivered, not-cancelled events.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Schedules `event` for delivery at `time` and returns a handle that
    /// can later cancel it.
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("slot slab overflow");
                self.slots.push(Slot {
                    generation: 0,
                    event: None,
                });
                s
            }
        };
        let cell = &mut self.slots[slot as usize];
        cell.event = Some(event);
        let id = EventId::pack(cell.generation, slot);
        // The new key is the latest of its instant, so it goes before every
        // run key due at or before `time` and shifts exactly those. If the
        // key `SHIFT_BOUND` places from the head is one of them, there are
        // too many; otherwise count them from the head.
        let key = Key { time, seq, slot };
        let len = self.run.len();
        if len > SHIFT_BOUND && self.run[len - 1 - SHIFT_BOUND].time <= time {
            self.overflow.push(Reverse(key));
        } else {
            let due_before = self.run.iter().rev().take_while(|k| k.time <= time).count();
            self.run.insert(len - due_before, key);
        }
        self.live += 1;
        id
    }

    /// Cancels a previously scheduled event, dropping its payload.
    ///
    /// Returns `true` if the event had not yet been delivered or cancelled.
    /// Cancelling a delivered, already-cancelled, or unknown id is a no-op
    /// returning `false` — a stale id can never hit a recycled slot because
    /// the generation stamp no longer matches.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let (generation, slot) = id.unpack();
        match self.slots.get_mut(slot as usize) {
            Some(s) if s.generation == generation && s.event.is_some() => {
                s.event = None;
                self.live -= 1;
                self.purge_heads();
                true
            }
            _ => false,
        }
    }

    /// Timestamp of the next live event, if any.
    ///
    /// Read-only: tombstones are purged eagerly on `cancel`/`pop`, so both
    /// heads are live.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(key, _)| key.time)
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Removes and returns the earliest live event if it is due at or
    /// before `deadline`. `None` means the queue is empty or its next
    /// event lies after `deadline`; [`EventQueue::is_empty`] tells which.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (key, in_overflow) = self.head()?;
        if key.time > deadline {
            return None;
        }
        if in_overflow {
            self.overflow.pop();
        } else {
            self.run.pop();
        }
        let event = self.slots[key.slot as usize].event.take();
        debug_assert!(event.is_some(), "both heads must be live");
        self.retire(key.slot);
        self.live -= 1;
        self.purge_heads();
        event.map(|e| (key.time, e))
    }

    /// The earliest key, and whether it sits in the overflow heap.
    fn head(&self) -> Option<(Key, bool)> {
        match (self.run.last(), self.overflow.peek()) {
            (Some(&run), Some(&Reverse(over))) if over < run => Some((over, true)),
            (Some(&run), _) => Some((run, false)),
            (None, Some(&Reverse(over))) => Some((over, true)),
            (None, None) => None,
        }
    }

    /// Recycles a slot whose key just left the queue.
    fn retire(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
    }

    /// Drops cancelled keys that surfaced at either head, restoring the
    /// invariant that both heads are live events.
    fn purge_heads(&mut self) {
        while let Some(&key) = self.run.last() {
            if self.slots[key.slot as usize].event.is_some() {
                break;
            }
            self.run.pop();
            self.retire(key.slot);
        }
        while let Some(&Reverse(key)) = self.overflow.peek() {
            if self.slots[key.slot as usize].event.is_some() {
                break;
            }
            self.overflow.pop();
            self.retire(key.slot);
        }
    }

    /// Number of scheduled, not-yet-delivered, not-cancelled events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Removes every pending event. Outstanding [`EventId`]s are
    /// invalidated (their generations are bumped), so they can never
    /// cancel events scheduled after the clear.
    pub fn clear(&mut self) {
        self.run.clear();
        self.overflow.clear();
        self.free.clear();
        for (i, s) in self.slots.iter_mut().enumerate() {
            s.event = None;
            s.generation = s.generation.wrapping_add(1);
            self.free.push(i as u32);
        }
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(10), "a");
        q.push(t(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_rejected() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(10), 1);
        q.push(t(15), 2);
        q.cancel(a);
        // peek_time is read-only: a shared reference suffices.
        let q_ref: &EventQueue<i32> = &q;
        assert_eq!(q_ref.peek_time(), Some(t(15)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.push(t(1), ());
        let _b = q.push(t(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = EventQueue::new();
        q.push(t(1), ());
        q.push(t(2), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_invalidates_outstanding_ids() {
        let mut q = EventQueue::new();
        let old = q.push(t(1), "old");
        q.clear();
        let _new = q.push(t(2), "new");
        assert!(!q.cancel(old), "stale id must not hit the recycled slot");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "new")));
    }

    #[test]
    fn delivered_id_cannot_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        // The next push recycles a's slot under a new generation.
        let _b = q.push(t(2), "b");
        assert!(!q.cancel(a), "delivered id is dead forever");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_maintains_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 10u64);
        q.push(t(5), 5);
        assert_eq!(q.pop(), Some((t(5), 5)));
        q.push(t(7), 7);
        q.push(t(1) + SimDuration::from_millis(1), 2);
        assert_eq!(q.pop(), Some((t(2), 2)));
        assert_eq!(q.pop(), Some((t(7), 7)));
        assert_eq!(q.pop(), Some((t(10), 10)));
    }

    /// Heavy-cancellation workload: every other event of a large batch is
    /// cancelled. Tombstone purge must keep pops in order, `len()` exact at
    /// every step, and the slot slab bounded by the peak pending count.
    #[test]
    fn heavy_cancellation_purges_tombstones_and_keeps_len_exact() {
        let mut q = EventQueue::new();
        let n = 10_000u64;
        let ids: Vec<EventId> = (0..n).map(|i| q.push(t(i), i)).collect();
        assert_eq!(q.len(), n as usize);
        // Cancel every odd event.
        let mut live = n as usize;
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 1 {
                assert!(q.cancel(*id));
                live -= 1;
                assert_eq!(q.len(), live);
            }
        }
        // Only even events remain, in time order; len counts down exactly.
        for i in (0..n).step_by(2) {
            assert_eq!(q.peek_time(), Some(t(i)));
            assert_eq!(q.pop(), Some((t(i), i)));
            live -= 1;
            assert_eq!(q.len(), live);
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // The slab never outgrew the peak pending population.
        assert!(q.slots.len() <= n as usize);
    }

    /// Cancelling the current head repeatedly: the purge must keep the heap
    /// top live so a read-only peek sees through arbitrarily long tombstone
    /// runs.
    #[test]
    fn cancelling_the_head_keeps_peek_live() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..100).map(|i| q.push(t(i), i)).collect();
        for (i, id) in ids.iter().enumerate().take(99) {
            assert_eq!(q.peek_time(), Some(t(i as u64)));
            assert!(q.cancel(*id));
        }
        assert_eq!(q.peek_time(), Some(t(99)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(99), 99)));
    }

    #[test]
    fn keys_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    /// Where the key `seq` sits in the run, counted from the head: the
    /// number of run keys due before it, which its push shifted.
    fn keys_due_before(q: &EventQueue<u64>, seq: u64) -> Option<usize> {
        let at = q.run.iter().position(|k| k.seq == seq)?;
        Some(q.run.len() - 1 - at)
    }

    /// An arrival trace seeded in ascending order: every key is due after
    /// all earlier ones, so once the run holds `SHIFT_BOUND + 1` keys the
    /// rest go to the overflow heap. No push shifts more than the bound,
    /// and the keys still pop in order.
    #[test]
    fn ascending_seeding_never_shifts_more_than_the_bound() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(t(i), i);
            if let Some(shifted) = keys_due_before(&q, i) {
                assert!(shifted <= SHIFT_BOUND, "push {i} shifted {shifted} keys");
            }
        }
        assert_eq!(q.run.len(), SHIFT_BOUND + 1);
        assert_eq!(q.overflow.len(), 10_000 - SHIFT_BOUND - 1);
        for i in 0..10_000u64 {
            assert_eq!(q.pop(), Some((t(i), i)));
        }
        assert!(q.is_empty());
    }

    /// Descending, tied and scattered pushes, interleaved with pops: the
    /// shift bound holds for every push pattern.
    #[test]
    fn no_push_pattern_shifts_more_than_the_bound() {
        let mut q = EventQueue::new();
        let mut x = 1u64;
        for i in 0..6_000u64 {
            let time = match i % 3 {
                0 => 1_000_000 - i,
                1 => 500,
                _ => {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (x >> 33) % 1_000_000
                }
            };
            q.push(t(time), i);
            if let Some(shifted) = keys_due_before(&q, i) {
                assert!(shifted <= SHIFT_BOUND, "push {i} shifted {shifted} keys");
            }
            if i % 5 == 0 {
                q.pop();
            }
        }
        let mut last = SimTime::ZERO;
        while let Some((time, _)) = q.pop() {
            assert!(time >= last);
            last = time;
        }
    }

    /// The overflow heap's head can be due before the run's: a pop takes
    /// the earlier of the two, and `pop_due` checks the deadline against
    /// it.
    #[test]
    fn pops_take_the_earlier_of_run_and_overflow() {
        let mut q = EventQueue::new();
        for i in 0..=SHIFT_BOUND as u64 {
            q.push(t(10), i);
        }
        // Due after SHIFT_BOUND + 1 run keys: overflow.
        q.push(t(20), 100);
        assert_eq!(q.overflow.len(), 1);
        for i in 0..=SHIFT_BOUND as u64 {
            assert_eq!(q.pop(), Some((t(10), i)));
        }
        q.push(t(30), 101);
        assert_eq!(q.run.len(), 1);
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.pop_due(t(19)), None);
        assert_eq!(q.pop_due(t(20)), Some((t(20), 100)));
        assert_eq!(q.pop_due(t(29)), None);
        assert!(!q.is_empty());
        assert_eq!(q.pop_due(t(30)), Some((t(30), 101)));
        assert_eq!(q.pop_due(SimTime::MAX), None);
        assert!(q.is_empty());
    }

    /// A cancel drops the payload at once, even when its key stays behind
    /// as a tombstone.
    #[test]
    fn cancel_drops_the_payload_at_once() {
        let payload = std::rc::Rc::new(());
        let mut q = EventQueue::new();
        q.push(t(5), std::rc::Rc::clone(&payload));
        let later = q.push(t(10), std::rc::Rc::clone(&payload));
        assert_eq!(std::rc::Rc::strong_count(&payload), 3);
        assert!(q.cancel(later));
        assert_eq!(std::rc::Rc::strong_count(&payload), 2);
        assert_eq!(q.run.len(), 2, "the cancelled key waits as a tombstone");
        assert!(q.pop().is_some());
        assert!(q.run.is_empty(), "the tombstone is purged once it surfaces");
        assert_eq!(std::rc::Rc::strong_count(&payload), 1);
    }

    /// Slots are recycled: a long push/pop stream keeps the slab at the
    /// concurrent-pending high-water mark instead of growing per event.
    #[test]
    fn slot_slab_is_recycled_across_generations() {
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            let a = q.push(t(round), round);
            q.push(t(round), round + 1);
            assert!(q.cancel(a));
            assert_eq!(q.pop(), Some((t(round), round + 1)));
        }
        assert!(q.is_empty());
        assert!(
            q.slots.len() <= 2,
            "slab must stay at the high-water mark, got {}",
            q.slots.len()
        );
    }
}
