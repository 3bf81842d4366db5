//! Deterministic event queue.
//!
//! Events pop in `(time, sequence)` order. The sequence number is a
//! monotonically increasing insertion counter, so two events scheduled for
//! the same instant pop in insertion order. This makes every simulation run
//! a pure function of its inputs and seeds.
//!
//! The queue stores entries in two lanes:
//!
//! * **The heap** — an indexed 4-ary min-heap holding every event due
//!   after the current instant ([`EventQueue::now`]). A dense per-slot
//!   position array follows each entry through its sifts, so a cancelled
//!   entry is removed at once and a rescheduled one is re-keyed where it
//!   stands ([`EventQueue::reschedule`]). The heap never holds debris.
//! * **The same-instant lane** — a FIFO of events scheduled for the
//!   current instant itself, including schedules into the past that are
//!   clamped forward. About a quarter of all schedules in an MPI run
//!   target the instant being processed; in a heap each would sift to the
//!   root and straight back out.
//!
//! `pop` takes the smaller `(time, seq)` key of the lane front and the heap
//! top. The lane is exact: every lane entry is due at `now()` and was
//! scheduled after `now()` became current, so lane seqs increase front to
//! back, and any heap entry due at `now()` was scheduled earlier and
//! carries a smaller seq than every lane entry.
//!
//! Every entry occupies a payload slot from schedule until it leaves the
//! queue. An [`EventKey`] names `(seq, slot)`, and the slot remembers the
//! seq of the entry it currently holds, so a key whose event already
//! popped, was cancelled, or whose slot was reused by a later event is
//! rejected by one comparison — no hash set is needed. Only cancelled lane
//! entries are removed lazily: they stay in the FIFO, payload dropped,
//! until they reach its front.
//!
//! Payloads live out-of-line in the slot slab and the heap sifts only
//! 24-byte `(time, seq, slot)` keys. With the MPI world's ~72-byte event
//! enum, sifting full entries made heap push/pop ~70% of event-loop time
//! (gprofng, fig8 sweep); the indirection removes the payload `memcpy`
//! from every sift level while leaving pop order — a pure function of
//! `(time, seq)` — untouched.

use crate::time::Time;
use std::collections::VecDeque;

/// Sequence number reserved for [`EventKey::default`] and for empty slots.
/// `schedule` hands out sequence numbers counting up from zero, so this
/// value is never assigned to a real event.
const SENTINEL_SEQ: u64 = u64::MAX;

/// Position of a slot whose entry waits in the same-instant lane.
const IN_LANE: u32 = u32::MAX;

/// Handle to a scheduled event, usable for cancellation and rescheduling.
/// The default key is a reserved sentinel that never matches a live event:
/// cancelling it is always a no-op returning `false`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey {
    seq: u64,
    slot: u32,
}

impl Default for EventKey {
    fn default() -> Self {
        EventKey {
            seq: SENTINEL_SEQ,
            slot: u32::MAX,
        }
    }
}

/// One queued entry: ordering key plus the slab slot holding the payload.
#[derive(Clone, Copy)]
struct Entry {
    time: Time,
    seq: u64,
    slot: u32,
}

impl Entry {
    /// Ordering key. `(time, seq)` is a *strict* total order (seqs are
    /// unique), so every correct queue pops the same sequence — the heap's
    /// internal shape can never influence a simulation.
    ///
    /// Packed as `time << 64 | seq`: a single `u128` compare is
    /// branchless (sub/sbb), where the equivalent tuple compare turns
    /// into data-dependent branches that mispredict badly in the sift
    /// loops. Ordering is identical to the lexicographic `(time, seq)`.
    #[inline]
    fn key(&self) -> u128 {
        ((self.time.0 as u128) << 64) | self.seq as u128
    }
}

/// Branching factor of the sift heap. A 4-ary heap is half as deep as a
/// binary one and its four children sit in at most two cache lines of
/// 24-byte entries, which measurably beats `std::collections::BinaryHeap`
/// on the simulator's pop-heavy workload.
const HEAP_ARITY: usize = 4;

/// A `Vec`-backed 4-ary min-heap of [`Entry`]s ordered by `(time, seq)`,
/// indexed by slot: `pos[slot]` is the heap index of the entry in `slot`.
/// Every sift step that moves an entry rewrites its position.
#[derive(Default)]
struct IndexedHeap {
    v: Vec<Entry>,
    /// Heap index per slab slot (meaningful only for slots in the heap).
    pos: Vec<u32>,
}

impl IndexedHeap {
    #[inline]
    fn len(&self) -> usize {
        self.v.len()
    }

    #[inline]
    fn peek(&self) -> Option<&Entry> {
        self.v.first()
    }

    #[inline]
    fn place(&mut self, i: usize, e: Entry) {
        self.v[i] = e;
        self.pos[e.slot as usize] = i as u32;
    }

    fn push(&mut self, e: Entry) {
        let i = self.v.len();
        self.v.push(e);
        self.sift_up(i, e);
    }

    fn pop(&mut self) -> Option<Entry> {
        let last = self.v.pop()?;
        if self.v.is_empty() {
            return Some(last);
        }
        let top = self.v[0];
        self.sift_down(0, last);
        Some(top)
    }

    /// Remove the entry at heap index `i`.
    fn remove(&mut self, i: usize) {
        let last = self.v.pop().expect("remove from a non-empty heap");
        if i < self.v.len() {
            self.settle(i, last);
        }
    }

    /// Put `e` into the hole at `i` (an emptied or re-keyed position),
    /// sifting whichever way it must go.
    fn settle(&mut self, i: usize, e: Entry) {
        if i > 0 && e.key() < self.v[(i - 1) / HEAP_ARITY].key() {
            self.sift_up(i, e);
        } else {
            self.sift_down(i, e);
        }
    }

    /// Move the hole at `i` toward the root until the parent is smaller,
    /// writing `e` once at its final position.
    fn sift_up(&mut self, mut i: usize, e: Entry) {
        let key = e.key();
        while i > 0 {
            let parent = (i - 1) / HEAP_ARITY;
            let p = self.v[parent];
            if p.key() <= key {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, e);
    }

    /// Move the hole at `i` toward the leaves, descending to the smallest
    /// child until none is smaller than `e`.
    fn sift_down(&mut self, mut i: usize, e: Entry) {
        let key = e.key();
        let n = self.v.len();
        loop {
            let first = i * HEAP_ARITY + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            let mut min_key = self.v[first].key();
            for c in (first + 1)..(first + HEAP_ARITY).min(n) {
                let k = self.v[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key >= key {
                break;
            }
            self.place(i, self.v[min]);
            i = min;
        }
        self.place(i, e);
    }
}

/// One payload slot of the slab.
struct Slot<E> {
    /// Seq of the live entry held here; [`SENTINEL_SEQ`] while the slot is
    /// free or its lane entry was cancelled.
    seq: u64,
    payload: Option<E>,
}

/// Counted queue work since the queue was created: where schedules went
/// and how cancellations were paid for. Deterministic for a given run, so
/// two builds can be compared by it exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Entries pushed onto the heap (due after the current instant).
    pub heap_pushes: u64,
    /// Entries appended to the same-instant lane.
    pub lane_pushes: u64,
    /// [`EventQueue::reschedule`] calls that re-keyed a heap entry in
    /// place.
    pub reschedules: u64,
    /// Heap entries removed at once by a cancel.
    pub cancels: u64,
}

/// Internal-consistency snapshot of an [`EventQueue`], used by the
/// simulator-wide audit layer ([`crate::audit::AuditReport`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueAudit {
    /// Live events as reported by [`EventQueue::len`] (the live counter).
    pub reported_live: usize,
    /// Live entries actually found by a full scan: heap entries whose slot
    /// holds their seq and points back at their heap index, plus lane
    /// entries whose slot holds their seq.
    pub actual_live: usize,
    /// Total stored entries: the heap plus the same-instant lane. The heap
    /// holds no debris, so this exceeds the live count only by cancelled
    /// lane entries awaiting lazy removal.
    pub heap_total: usize,
    /// Number of schedule calls that targeted the past and were clamped
    /// forward (see [`EventQueue::schedule`]).
    pub causality_violations: u64,
}

impl QueueAudit {
    /// True when the reported live count matches the stored entries.
    pub fn is_consistent(&self) -> bool {
        self.reported_live == self.actual_live && self.actual_live <= self.heap_total
    }
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<E> {
    heap: IndexedHeap,
    /// Entries due at `last_popped`, in seq order.
    lane: VecDeque<Entry>,
    /// Payload storage, indexed by [`Entry::slot`]. A slot is occupied
    /// from schedule until its entry pops, is cancelled from the heap, or
    /// (cancelled in the lane) reaches the lane front; then it is recycled
    /// through `free`.
    slab: Vec<Slot<E>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    next_seq: u64,
    /// Live entries in both lanes.
    live: usize,
    /// Last time popped; used to detect causality violations.
    last_popped: Time,
    /// Schedule calls that targeted the past and were clamped forward.
    causality_violations: u64,
    counters: QueueCounters,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: IndexedHeap::default(),
            lane: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            last_popped: Time::ZERO,
            causality_violations: 0,
            counters: QueueCounters::default(),
        }
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// Scheduling in the past (before the last popped event) is a logic
    /// error in the caller; it is clamped forward to preserve causality
    /// and counted in [`EventQueue::causality_violations`] so the audit
    /// layer can report it instead of the bug silently disappearing.
    #[inline]
    pub fn schedule(&mut self, time: Time, payload: E) -> EventKey {
        let (time, seq) = self.stamp(time);
        let slot = self.alloc_slot(seq, payload);
        let e = Entry { time, seq, slot };
        if time == self.last_popped {
            self.heap.pos[slot as usize] = IN_LANE;
            self.lane.push_back(e);
            self.counters.lane_pushes += 1;
        } else {
            self.heap.push(e);
            self.counters.heap_pushes += 1;
        }
        self.live += 1;
        EventKey { seq, slot }
    }

    /// Replace the event behind `old` with `payload` at `time`; return the
    /// replacement's key.
    ///
    /// Equivalent to `schedule(time, payload)` followed by `cancel(old)`:
    /// the replacement draws the next sequence number exactly as
    /// `schedule` would, so pop order is identical. When `old` is a live
    /// heap entry it is re-keyed where it stands — one sift instead of a
    /// push plus a removal.
    pub fn reschedule(&mut self, old: EventKey, time: Time, payload: E) -> EventKey {
        let in_heap = self.live_slot(old).filter(|&s| self.heap.pos[s] != IN_LANE);
        let Some(s) = in_heap else {
            let key = self.schedule(time, payload);
            self.cancel(old);
            return key;
        };
        let (time, seq) = self.stamp(time);
        let slot = &mut self.slab[s];
        slot.seq = seq;
        slot.payload = Some(payload);
        let i = self.heap.pos[s] as usize;
        self.heap.settle(
            i,
            Entry {
                time,
                seq,
                slot: old.slot,
            },
        );
        self.counters.reschedules += 1;
        EventKey {
            seq,
            slot: old.slot,
        }
    }

    /// Clamp `time` to the present (counting a violation) and draw the
    /// next sequence number.
    #[inline]
    fn stamp(&mut self, time: Time) -> (Time, u64) {
        if time < self.last_popped {
            self.causality_violations += 1;
        }
        let seq = self.next_seq;
        assert!(seq != SENTINEL_SEQ, "event sequence space exhausted");
        self.next_seq += 1;
        (time.max(self.last_popped), seq)
    }

    #[inline]
    fn alloc_slot(&mut self, seq: u64, payload: E) -> u32 {
        let slot = Slot {
            seq,
            payload: Some(payload),
        };
        match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = slot;
                s
            }
            None => {
                let s = self.slab.len();
                assert!(s < u32::MAX as usize, "event slab exhausted");
                self.slab.push(slot);
                self.heap.pos.push(0);
                s as u32
            }
        }
    }

    /// Release a slot whose entry left the queue.
    #[inline]
    fn release(&mut self, slot: u32) -> Option<E> {
        let s = &mut self.slab[slot as usize];
        s.seq = SENTINEL_SEQ;
        self.free.push(slot);
        s.payload.take()
    }

    /// The slot index of `key` if it names a live event.
    #[inline]
    fn live_slot(&self, key: EventKey) -> Option<usize> {
        let s = key.slot as usize;
        self.slab
            .get(s)
            .is_some_and(|slot| slot.seq == key.seq)
            .then_some(s)
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending — i.e. scheduled and not yet popped or cancelled.
    /// Cancelling a popped event, a cancelled event, or the default
    /// sentinel key is a no-op returning false and leaves `len()` intact.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let Some(s) = self.live_slot(key) else {
            return false;
        };
        match self.heap.pos[s] {
            IN_LANE => {
                // Lazy: the lane entry stays until it reaches the front;
                // the slot is held until then so it cannot be reused
                // under it.
                let slot = &mut self.slab[s];
                slot.seq = SENTINEL_SEQ;
                slot.payload = None;
            }
            i => {
                self.heap.remove(i as usize);
                self.release(key.slot);
                self.counters.cancels += 1;
            }
        }
        self.live -= 1;
        true
    }

    /// The lane holds the next entry (else the heap does, if any).
    #[inline]
    fn lane_first(&self) -> Option<bool> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => Some(l.key() < h.key()),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// Drop cancelled entries from the front of the lane.
    #[inline]
    fn skip_lane_debris(&mut self) {
        while let Some(e) = self.lane.front() {
            if self.slab[e.slot as usize].seq == e.seq {
                return;
            }
            let slot = e.slot;
            self.lane.pop_front();
            self.free.push(slot);
        }
    }

    /// Remove and return the earliest live event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.skip_lane_debris();
        let e = if self.lane_first()? {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }
        .expect("chosen lane is non-empty");
        let payload = self.release(e.slot).expect("live slot holds a payload");
        self.live -= 1;
        self.last_popped = e.time;
        Some((e.time, payload))
    }

    /// Time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.peek_key().map(|(t, _)| t)
    }

    /// Full `(time, seq)` ordering key of the earliest live event without
    /// removing it. Sequence numbers count `schedule` and `reschedule`
    /// calls from zero, so a caller that logs those calls can name the
    /// event behind the head of the queue.
    pub fn peek_key(&mut self) -> Option<(Time, u64)> {
        self.skip_lane_debris();
        let e = if self.lane_first()? {
            self.lane.front()
        } else {
            self.heap.peek()
        }?;
        Some((e.time, e.seq))
    }

    /// Number of live scheduled events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The time of the last popped event (the queue's notion of "now").
    pub fn now(&self) -> Time {
        self.last_popped
    }

    /// Number of schedule calls that targeted an instant before `now()`
    /// and were clamped forward.
    pub fn causality_violations(&self) -> u64 {
        self.causality_violations
    }

    /// Counted work since the queue was created.
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Cross-check the reported live count against the stored entries
    /// (O(entries) scan; intended for end-of-run audits, not the hot path).
    pub fn audit(&self) -> QueueAudit {
        let heap_live = self.heap.v.iter().enumerate().filter(|&(i, e)| {
            self.slab[e.slot as usize].seq == e.seq && self.heap.pos[e.slot as usize] as usize == i
        });
        let lane_live = self.lane.iter().filter(|e| {
            self.slab[e.slot as usize].seq == e.seq && self.heap.pos[e.slot as usize] == IN_LANE
        });
        QueueAudit {
            reported_live: self.live,
            actual_live: heap_live.count() + lane_live.count(),
            heap_total: self.heap.len() + self.lane.len(),
            causality_violations: self.causality_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(30), "c");
        q.schedule(Time(10), "a");
        q.schedule(Time(20), "b");
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(5), 1);
        q.schedule(Time(5), 2);
        q.schedule(Time(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn cancel_skips_entry() {
        let mut q = EventQueue::new();
        let _a = q.schedule(Time(1), "a");
        let b = q.schedule(Time(2), "b");
        let _c = q.schedule(Time(3), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel reports false");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Time(1), "a")));
        assert_eq!(q.pop(), Some((Time(3), "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), "a");
        q.schedule(Time(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Time(2)));
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO + Duration::from_micros(7), ());
        q.pop();
        assert_eq!(q.now(), Time(7_000));
    }

    #[test]
    fn len_counts_live_only() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), ());
        q.schedule(Time(2), ());
        q.cancel(a);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn default_key_cancel_is_a_noop() {
        // Regression: the default key used to carry seq 0, colliding with
        // the first scheduled event — cancelling a placeholder key would
        // silently kill it.
        let mut q = EventQueue::new();
        assert!(!q.cancel(EventKey::default()), "fresh queue: no-op");
        let first = q.schedule(Time(1), "first");
        assert!(!q.cancel(EventKey::default()), "must not match seq 0");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time(1), "first")));
        assert!(!q.cancel(first), "already popped");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_pop_is_a_noop() {
        // Regression: cancel used to return true for already-popped keys,
        // decrementing the live count below reality.
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), "a");
        q.schedule(Time(2), "b");
        assert_eq!(q.pop(), Some((Time(1), "a")));
        assert!(!q.cancel(a), "popped event is not cancellable");
        assert_eq!(q.len(), 1, "live count untouched by the failed cancel");
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((Time(2), "b")));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stale_key_cannot_cancel_the_slot_reuser() {
        // A popped event's slot is recycled by the next schedule; the old
        // key must be rejected by the slot's new seq.
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), "a");
        assert_eq!(q.pop(), Some((Time(1), "a")));
        let b = q.schedule(Time(2), "b");
        assert_eq!(a.slot, b.slot, "slot is reused");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time(2), "b")));
    }

    #[test]
    fn cancel_then_reschedule_cycles_stay_bounded_and_consistent() {
        // The drain-reschedule pattern the network engine uses: schedule a
        // replacement, cancel the old event, repeat. Storage must not grow
        // and len() must match the heap at every step.
        let mut q = EventQueue::new();
        let mut key = q.schedule(Time(10), 0u32);
        for i in 1..1000u32 {
            let new = q.schedule(Time(10 + i as u64), i);
            assert!(q.cancel(key));
            key = new;
            assert_eq!(q.len(), 1);
            assert_eq!(q.audit().heap_total, 1, "cancel leaves no debris");
        }
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert_eq!(audit.reported_live, 1);
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        let audit = q.audit();
        assert_eq!(audit.heap_total, 0, "no leaked entries: {audit:?}");
        assert!(audit.is_consistent());
    }

    #[test]
    fn heap_holds_exactly_the_live_entries_after_cancel_or_reschedule() {
        // Eager removal and in-place re-keying: with the lane empty, the
        // stored entries are exactly the live ones after every operation.
        let mut q = EventQueue::new();
        let mut keys: Vec<EventKey> = (0..100u64).map(|i| q.schedule(Time(1 + i), i)).collect();
        for round in 0..200u64 {
            for (j, k) in keys.iter_mut().enumerate() {
                let t = Time(200 + (round * 37 + j as u64 * 11) % 500);
                if (round + j as u64).is_multiple_of(3) {
                    let new = q.schedule(t, round);
                    assert!(q.cancel(*k));
                    *k = new;
                } else {
                    *k = q.reschedule(*k, t, round);
                }
                let audit = q.audit();
                assert!(audit.is_consistent(), "{audit:?}");
                assert_eq!(audit.heap_total, q.len(), "{audit:?}");
            }
        }
        assert_eq!(q.len(), 100);
        let mut last = (Time::ZERO, 0);
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last.0);
            last.0 = t;
            popped += 1;
            assert_eq!(q.audit().heap_total, q.len());
        }
        assert_eq!(popped, 100);
    }

    #[test]
    fn reschedule_matches_schedule_then_cancel() {
        // Same seq draw and same pop order as the two-call form.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let mut ka = Vec::new();
        let mut kb = Vec::new();
        for i in 0..20u64 {
            ka.push(a.schedule(Time(100 + 7 * i % 50), i));
            kb.push(b.schedule(Time(100 + 7 * i % 50), i));
        }
        for i in (0..20usize).step_by(2) {
            let t = Time(90 + (13 * i as u64) % 40);
            ka[i] = a.reschedule(ka[i], t, 100 + i as u64);
            let new = b.schedule(t, 100 + i as u64);
            assert!(b.cancel(kb[i]));
            kb[i] = new;
        }
        assert_eq!(a.counters().reschedules, 10);
        assert_eq!(a.len(), b.len());
        loop {
            assert_eq!(a.peek_key(), b.peek_key());
            let (pa, pb) = (a.pop(), b.pop());
            assert_eq!(pa, pb);
            if pa.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reschedule_of_a_dead_key_schedules_fresh() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), "a");
        assert_eq!(q.pop(), Some((Time(1), "a")));
        let b = q.reschedule(a, Time(5), "b");
        let c = q.reschedule(EventKey::default(), Time(3), "c");
        assert_eq!(q.len(), 2);
        assert_eq!(q.counters().reschedules, 0);
        assert_eq!(q.pop(), Some((Time(3), "c")));
        assert_eq!(q.pop(), Some((Time(5), "b")));
        assert!(!q.cancel(b) && !q.cancel(c));
    }

    #[test]
    fn same_instant_schedules_use_the_lane_and_keep_seq_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(5), "h1"); // heap: due later
        q.schedule(Time(10), "h2");
        assert_eq!(q.pop(), Some((Time(5), "h1")));
        q.schedule(Time(10), "h3"); // heap: after h2 by seq
        q.schedule(Time(5), "l1"); // lane: due now
        q.schedule(Time(1), "l2"); // past: clamped into the lane
        let c = q.counters();
        assert_eq!((c.heap_pushes, c.lane_pushes), (3, 2));
        assert_eq!(q.causality_violations(), 1);
        assert_eq!(q.pop(), Some((Time(5), "l1")));
        assert_eq!(q.pop(), Some((Time(5), "l2")));
        assert_eq!(q.pop(), Some((Time(10), "h2")));
        // Now at 10: the heap's h3 (older seq) precedes a new lane entry.
        q.schedule(Time(10), "l3");
        assert_eq!(q.pop(), Some((Time(10), "h3")));
        assert_eq!(q.pop(), Some((Time(10), "l3")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_lane_entries_are_dropped_at_the_front() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::ZERO, "a"); // lane: now is zero
        q.schedule(Time::ZERO, "b");
        let c = q.schedule(Time::ZERO, "c");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert!(q.cancel(c));
        assert_eq!(q.len(), 1);
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert_eq!(audit.heap_total, 3, "lane debris waits for the front");
        assert_eq!(q.counters().cancels, 0, "lane cancels are lazy");
        assert_eq!(q.peek_key(), Some((Time::ZERO, 1)));
        assert_eq!(q.pop(), Some((Time::ZERO, "b")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.audit().heap_total, 0);
    }

    #[test]
    fn mass_cancel_preserves_pop_order_and_len() {
        let mut q = EventQueue::new();
        let keys: Vec<EventKey> = (0..200u64).map(|i| q.schedule(Time(1000 - i), i)).collect();
        for k in keys.iter().take(150) {
            q.cancel(*k);
        }
        assert_eq!(q.len(), 50);
        assert_eq!(q.audit().heap_total, 50);
        let mut last = Time::ZERO;
        let mut seen = Vec::new();
        while let Some((t, v)) = q.pop() {
            assert!(t >= last);
            last = t;
            seen.push(v);
        }
        // The survivors are exactly the 50 latest-scheduled payloads, in
        // descending payload order (they were scheduled at descending
        // times).
        assert_eq!(seen, (150..200u64).rev().collect::<Vec<_>>());
    }

    #[test]
    fn causality_violations_are_counted_and_clamped() {
        let mut q = EventQueue::new();
        q.schedule(Time(100), "late");
        assert_eq!(q.pop(), Some((Time(100), "late")));
        assert_eq!(q.causality_violations(), 0);
        // Scheduling before now() clamps forward and counts.
        q.schedule(Time(50), "past");
        assert_eq!(q.causality_violations(), 1);
        assert_eq!(q.pop(), Some((Time(100), "past")));
        assert_eq!(q.audit().causality_violations, 1);
    }

    #[test]
    fn audit_matches_reality_through_mixed_operations() {
        let mut q = EventQueue::new();
        let keys: Vec<EventKey> = (0..20).map(|i| q.schedule(Time(i), i)).collect();
        for k in keys.iter().step_by(3) {
            q.cancel(*k);
        }
        for _ in 0..5 {
            q.pop();
        }
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert_eq!(audit.reported_live, q.len());
    }
}
