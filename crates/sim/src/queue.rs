//! Deterministic event queue.
//!
//! Events pop in `(time, sequence)` order. The sequence number is a
//! monotonically increasing insertion counter, so two events scheduled for
//! the same instant pop in insertion order. This makes every simulation run
//! a pure function of its inputs and seeds.
//!
//! The queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
//! J. ACM 1990). It is exact here because no key is ever below the current
//! instant [`EventQueue::now`]: schedules into the past are clamped forward.
//! An entry lives in one of 65 buckets, chosen by the highest bit in which
//! its time differs from `now()`:
//!
//! * **Bucket 0** is the FIFO of events due at `now()` itself. About a
//!   quarter of all schedules in an MPI run target the instant being
//!   processed, and each is a plain append.
//! * **Bucket `i ≥ 1`** holds the events whose time first differs from
//!   `now()` in bit `i - 1`. A schedule is one XOR, one leading-zeros count
//!   and one `Vec::push`; a bitmask records which buckets are non-empty.
//!
//! When bucket 0 is used up, `pop` takes the lowest non-empty bucket, makes
//! its earliest live time the new `now()` and redistributes the bucket's
//! entries, each to a strictly lower bucket. The moves are stable appends,
//! and all entries due at one instant always share a bucket, so they reach
//! bucket 0 in seq order: the `(time, seq)` order is kept exactly, with no
//! comparison heap and no sift.
//!
//! Every entry occupies a payload slot from schedule until it pops or is
//! cancelled. An [`EventKey`] names `(seq, slot)`, and the slot remembers
//! the seq of the entry it currently holds, so a key whose event already
//! popped, was cancelled, or whose slot was reused by a later event is
//! rejected by one comparison. A cancel frees the slot at once and leaves
//! its entry in its bucket, dead. Dead entries are dropped when their
//! bucket is redistributed or reached, and an amortized purge keeps the
//! stored entries at most `2 * live + 64`.
//!
//! Payloads live out-of-line in the slot slab, so redistribution moves
//! only 24-byte `(time, seq, slot)` entries and checks liveness in a dense
//! array of slot seqs.

use crate::time::Time;

/// Sequence number reserved for [`EventKey::default`] and for empty slots.
/// `schedule` hands out sequence numbers counting up from zero, so this
/// value is never assigned to a real event.
const SENTINEL_SEQ: u64 = u64::MAX;

/// Bucket 0 for the current instant, then one per bit of a 64-bit time.
const BUCKETS: usize = 65;

/// Capacity (entries) an emptied bucket keeps for reuse. Larger buffers
/// are freed: each bucket would otherwise keep the peak it ever reached,
/// and those peaks sum to many times the largest queue.
const RETAIN: usize = 256;

/// Dead entries tolerated beyond the live count before a purge.
const PURGE_SLACK: usize = 64;

/// Handle to a scheduled event, usable for cancellation.
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
/// The entry is live while its slot still holds its seq.
#[derive(Clone, Copy)]
struct Entry {
    time: Time,
    seq: u64,
    slot: u32,
}

/// Counted queue work since the queue was created: where schedules went,
/// what advancing the clock cost, and how cancels were paid for.
/// Deterministic for a given run, so two builds can be compared by it
/// exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Schedules appended to bucket 0: due at the current instant, or
    /// clamped to it.
    pub now_pushes: u64,
    /// Schedules appended to a later bucket.
    pub bucket_pushes: u64,
    /// Buckets redistributed by a pop: one per instant the clock advanced
    /// to.
    pub redistributions: u64,
    /// Live entries moved to a lower bucket by the redistributions.
    pub moves: u64,
    /// Live events cancelled.
    pub cancels: u64,
    /// Dead (cancelled) entries dropped from storage: when their bucket
    /// was redistributed or reached, or by a purge.
    pub dropped: u64,
}

/// Internal-consistency snapshot of an [`EventQueue`], used by the
/// simulator-wide audit layer ([`crate::audit::AuditReport`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueAudit {
    /// Live events as reported by [`EventQueue::len`] (the live counter).
    pub reported_live: usize,
    /// Live entries actually found by a full scan: entries whose slot
    /// holds their seq and which sit in the bucket their time selects.
    pub actual_live: usize,
    /// Total stored entries, live and dead. Cancels are lazy, so this may
    /// exceed the live count, by at most the live count plus 64.
    pub stored: usize,
    /// Number of schedule calls that targeted the past and were clamped
    /// forward (see [`EventQueue::schedule`]).
    pub causality_violations: u64,
}

impl QueueAudit {
    /// True when the reported live count matches the stored entries and
    /// the dead ones stay within the purge bound.
    pub fn is_consistent(&self) -> bool {
        self.reported_live == self.actual_live && self.stored <= 2 * self.actual_live + PURGE_SLACK
    }
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<E> {
    /// `buckets[0]` holds entries due at `last_popped` in seq order;
    /// `buckets[i]` those whose time first differs from it in bit `i - 1`.
    buckets: [Vec<Entry>; BUCKETS],
    /// Bit `i - 1` is set while `buckets[i]` is non-empty (`i ≥ 1`).
    occupied: u64,
    /// Read position in `buckets[0]`: entries before it have left.
    head: usize,
    /// Seq of the live entry held in each slot; [`SENTINEL_SEQ`] while the
    /// slot is free.
    seqs: Vec<u64>,
    /// Payload per slot, `Some` exactly while the slot is live.
    payloads: Vec<Option<E>>,
    /// Recycled slots.
    free: Vec<u32>,
    next_seq: u64,
    /// Live entries.
    live: usize,
    /// Cancelled entries still stored in a bucket.
    dead: usize,
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
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            head: 0,
            seqs: Vec::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            dead: 0,
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
        if time < self.last_popped {
            self.causality_violations += 1;
        }
        let time = time.max(self.last_popped);
        let seq = self.next_seq;
        assert!(seq != SENTINEL_SEQ, "event sequence space exhausted");
        self.next_seq += 1;
        let slot = self.alloc_slot(seq, payload);
        let b = self.bucket(time);
        self.push(b, Entry { time, seq, slot });
        if b == 0 {
            self.counters.now_pushes += 1;
        } else {
            self.counters.bucket_pushes += 1;
        }
        self.live += 1;
        EventKey { seq, slot }
    }

    /// The bucket of an entry due at `time` (never before `now()`).
    #[inline]
    fn bucket(&self, time: Time) -> usize {
        (u64::BITS - (time.0 ^ self.last_popped.0).leading_zeros()) as usize
    }

    #[inline]
    fn push(&mut self, b: usize, e: Entry) {
        self.buckets[b].push(e);
        if b > 0 {
            self.occupied |= 1 << (b - 1);
        }
    }

    #[inline]
    fn alloc_slot(&mut self, seq: u64, payload: E) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.seqs[s as usize] = seq;
                self.payloads[s as usize] = Some(payload);
                s
            }
            None => {
                let s = self.seqs.len();
                assert!(s < u32::MAX as usize, "event slab exhausted");
                self.seqs.push(seq);
                self.payloads.push(Some(payload));
                s as u32
            }
        }
    }

    /// Free a live slot and hand back its payload.
    #[inline]
    fn release(&mut self, slot: u32) -> E {
        self.seqs[slot as usize] = SENTINEL_SEQ;
        self.free.push(slot);
        self.payloads[slot as usize]
            .take()
            .expect("live slot holds a payload")
    }

    #[inline]
    fn is_live(&self, e: &Entry) -> bool {
        self.seqs[e.slot as usize] == e.seq
    }

    #[inline]
    fn drop_dead(&mut self, n: usize) {
        self.dead -= n;
        self.counters.dropped += n as u64;
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending — i.e. scheduled and not yet popped or cancelled.
    /// Cancelling a popped event, a cancelled event, or the default
    /// sentinel key is a no-op returning false and leaves `len()` intact.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if self.seqs.get(key.slot as usize) != Some(&key.seq) {
            return false;
        }
        self.release(key.slot);
        self.live -= 1;
        self.dead += 1;
        self.counters.cancels += 1;
        self.bound_dead();
        true
    }

    /// Purge when the dead entries outnumber the live ones by more than
    /// [`PURGE_SLACK`]. Every dead entry a purge drops was cancelled since
    /// the last purge, so the purges cost O(1) per cancel, amortized.
    #[inline]
    fn bound_dead(&mut self) {
        if self.dead > self.live + PURGE_SLACK {
            self.purge();
        }
    }

    #[cold]
    fn purge(&mut self) {
        self.buckets[0].drain(..self.head);
        self.head = 0;
        let seqs = &self.seqs;
        for (b, v) in self.buckets.iter_mut().enumerate() {
            v.retain(|e| seqs[e.slot as usize] == e.seq);
            if b > 0 && v.is_empty() {
                self.occupied &= !(1 << (b - 1));
            }
        }
        self.drop_dead(self.dead);
    }

    /// Refill the used-up bucket 0 from the lowest bucket holding a live
    /// entry: its earliest live time becomes `now()`. Returns false when
    /// no live entry remains.
    fn advance(&mut self) -> bool {
        self.buckets[0].clear();
        self.head = 0;
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize + 1;
            self.occupied &= self.occupied - 1;
            let mut src = std::mem::take(&mut self.buckets[b]);
            let min = src.iter().filter(|e| self.is_live(e)).map(|e| e.time).min();
            if let Some(min) = min {
                self.last_popped = min;
                self.counters.redistributions += 1;
            }
            // Relative to the new now(), every live entry belongs to a
            // lower bucket; a bucket of dead entries is just dropped.
            let (mut moved, mut dead) = (0, 0);
            for e in src.drain(..) {
                if self.is_live(&e) {
                    self.push(self.bucket(e.time), e);
                    moved += 1;
                } else {
                    dead += 1;
                }
            }
            self.drop_dead(dead);
            self.counters.moves += moved;
            if src.capacity() <= RETAIN {
                self.buckets[b] = src;
            }
            if min.is_some() {
                return true;
            }
        }
        false
    }

    /// Remove and return the earliest live event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        loop {
            let Some(&e) = self.buckets[0].get(self.head) else {
                if self.advance() {
                    continue;
                }
                return None;
            };
            self.head += 1;
            if self.is_live(&e) {
                let payload = self.release(e.slot);
                self.live -= 1;
                self.bound_dead();
                return Some((e.time, payload));
            }
            self.drop_dead(1);
        }
    }

    /// Time of the earliest live event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.peek_key().map(|(t, _)| t)
    }

    /// Full `(time, seq)` ordering key of the earliest live event without
    /// removing it or moving `now()`. Sequence numbers count `schedule`
    /// calls from zero, so a caller that logs those calls can name the
    /// event behind the head of the queue. Past bucket 0 this scans the
    /// lowest bucket holding a live entry.
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        let mut first = self.buckets[0][self.head..]
            .iter()
            .find(|e| self.is_live(e));
        let mut occupied = self.occupied;
        while first.is_none() && occupied != 0 {
            let b = occupied.trailing_zeros() as usize + 1;
            occupied &= occupied - 1;
            // Equal times share a bucket in seq order, so the first entry
            // of the earliest time carries the smallest key.
            first = self.buckets[b]
                .iter()
                .filter(|e| self.is_live(e))
                .min_by_key(|e| e.time);
        }
        first.map(|e| (e.time, e.seq))
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
        let stored = || {
            let rest = self.buckets.iter().enumerate().skip(1);
            let now = self.buckets[0][self.head..].iter().map(|e| (0, e));
            now.chain(rest.flat_map(|(b, v)| v.iter().map(move |e| (b, e))))
        };
        QueueAudit {
            reported_live: self.live,
            actual_live: stored()
                .filter(|&(b, e)| self.is_live(e) && self.bucket(e.time) == b)
                .count(),
            stored: stored().count(),
            causality_violations: self.causality_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// The purge bound every operation must leave intact.
    fn assert_bounded<E>(q: &EventQueue<E>) {
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert!(audit.stored <= 2 * q.len() + PURGE_SLACK, "{audit:?}");
    }

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
    fn equal_times_scheduled_from_different_buckets_pop_in_seq_order() {
        // Events due at 15 (0b1111) scheduled at now() = 0, 8, 12 and 14
        // start in buckets 4, 3, 2 and 1; one scheduled once 15 is the
        // current instant goes to bucket 0. Redistribution must still hand
        // them out in seq order.
        let mut q = EventQueue::new();
        for (i, now) in [0u64, 8, 12, 14].into_iter().enumerate() {
            if now > 0 {
                q.schedule(Time(now), 0);
                assert_eq!(q.pop(), Some((Time(now), 0)));
            }
            assert_eq!(q.bucket(Time(15)), 4 - i, "now = {now}");
            q.schedule(Time(15), 1 + i as u32);
            q.schedule(Time(16 + i as u64), 0);
        }
        assert_eq!(q.pop(), Some((Time(15), 1)));
        assert_eq!(q.bucket(Time(15)), 0);
        q.schedule(Time(15), 5);
        for due in 2..=5 {
            assert_eq!(q.peek_key().map(|(t, _)| t), Some(Time(15)));
            assert_eq!(q.pop(), Some((Time(15), due)));
        }
        assert_eq!(q.len(), 4, "only the later events remain");
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
    fn peek_does_not_move_now() {
        let mut q = EventQueue::new();
        q.schedule(Time(40), "a");
        q.schedule(Time(50), "b");
        assert_eq!(q.peek_key(), Some((Time(40), 0)));
        assert_eq!(q.now(), Time::ZERO);
        // Still free to schedule between now() and the head.
        q.schedule(Time(20), "c");
        assert_eq!(q.causality_violations(), 0);
        assert_eq!(q.pop(), Some((Time(20), "c")));
        assert_eq!(q.pop(), Some((Time(40), "a")));
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
        // A cancelled event's slot is recycled by the next schedule while
        // its dead entry is still stored; neither the old key nor the dead
        // entry may touch the reuser.
        let mut q = EventQueue::new();
        let a = q.schedule(Time(1), "a");
        assert!(q.cancel(a));
        let b = q.schedule(Time(1), "b");
        assert_eq!(a.slot, b.slot, "slot is reused");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.audit().stored, 2, "the dead entry waits in its bucket");
        assert_eq!(q.pop(), Some((Time(1), "b")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.counters().dropped, 1);
    }

    #[test]
    fn cancel_then_reschedule_cycles_stay_bounded_and_consistent() {
        // The drain-reschedule pattern the network engine uses: schedule a
        // replacement, cancel the old event, repeat. Cancels are lazy, so
        // dead entries accumulate, but a purge keeps the stored entries
        // within 2 * live + 64 at every step.
        let mut q = EventQueue::new();
        let mut key = q.schedule(Time(10), 0u32);
        for i in 1..1000u32 {
            let new = q.schedule(Time(10 + i as u64), i);
            assert!(q.cancel(key));
            key = new;
            assert_eq!(q.len(), 1);
            assert_bounded(&q);
        }
        assert!(q.counters().dropped > 0, "purges ran");
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert_eq!(audit.reported_live, 1);
        assert_eq!(q.pop(), Some((Time(1009), 999)));
        assert!(q.pop().is_none());
        let audit = q.audit();
        assert_eq!(audit.stored, 0, "no leaked entries: {audit:?}");
        assert!(audit.is_consistent());
    }

    #[test]
    fn stored_entries_stay_bounded_after_cancels_and_pops() {
        // Schedule-then-cancel and plain cancels over a live set of 100,
        // then a full drain: the bound holds after every operation,
        // including the pops that shrink the live count under the dead.
        let mut q = EventQueue::new();
        let mut keys: Vec<EventKey> = (0..100u64).map(|i| q.schedule(Time(1 + i), i)).collect();
        for round in 0..200u64 {
            for (j, k) in keys.iter_mut().enumerate() {
                let t = Time(200 + (round * 37 + j as u64 * 11) % 500);
                let new = q.schedule(t, round);
                assert!(q.cancel(*k));
                *k = new;
                assert_bounded(&q);
            }
        }
        assert_eq!(q.len(), 100);
        let mut last = (Time::ZERO, 0);
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last.0);
            last.0 = t;
            popped += 1;
            assert_bounded(&q);
        }
        assert_eq!(popped, 100);
        let c = q.counters();
        assert_eq!(c.cancels, 20_000);
        assert_eq!(c.dropped, c.cancels, "every dead entry was dropped");
    }

    #[test]
    fn same_instant_schedules_use_bucket_0_and_keep_seq_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(5), "h1"); // later bucket
        q.schedule(Time(10), "h2");
        assert_eq!(q.pop(), Some((Time(5), "h1")));
        q.schedule(Time(10), "h3"); // later bucket, after h2 by seq
        q.schedule(Time(5), "l1"); // bucket 0: due now
        q.schedule(Time(1), "l2"); // past: clamped into bucket 0
        let c = q.counters();
        assert_eq!((c.bucket_pushes, c.now_pushes), (3, 2));
        assert_eq!((c.redistributions, c.moves), (1, 1));
        assert_eq!(q.causality_violations(), 1);
        assert_eq!(q.pop(), Some((Time(5), "l1")));
        assert_eq!(q.pop(), Some((Time(5), "l2")));
        assert_eq!(q.pop(), Some((Time(10), "h2")));
        // Now at 10: the redistributed h3 (older seq) precedes a new
        // bucket-0 entry.
        q.schedule(Time(10), "l3");
        assert_eq!(q.pop(), Some((Time(10), "h3")));
        assert_eq!(q.pop(), Some((Time(10), "l3")));
        assert!(q.is_empty());
        assert_eq!(q.counters().redistributions, 2);
    }

    #[test]
    fn cancelled_bucket_0_entries_are_dropped_when_reached() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::ZERO, "a"); // bucket 0: now is zero
        q.schedule(Time::ZERO, "b");
        let c = q.schedule(Time::ZERO, "c");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert!(q.cancel(c));
        assert_eq!(q.len(), 1);
        let audit = q.audit();
        assert!(audit.is_consistent(), "{audit:?}");
        assert_eq!(audit.stored, 3, "dead entries wait until reached");
        assert_eq!(q.counters().cancels, 2);
        assert_eq!(q.peek_key(), Some((Time::ZERO, 1)));
        assert_eq!(q.pop(), Some((Time::ZERO, "b")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.audit().stored, 0);
        assert_eq!(q.counters().dropped, 2);
    }

    #[test]
    fn a_bucket_of_dead_entries_is_dropped_without_moving_now() {
        let mut q = EventQueue::new();
        let dead: Vec<EventKey> = (0..5).map(|i| q.schedule(Time(100 + i), i)).collect();
        q.schedule(Time(1 << 20), 99);
        for k in dead {
            assert!(q.cancel(k));
        }
        assert_eq!(q.peek_key(), Some((Time(1 << 20), 5)));
        assert_eq!(q.pop(), Some((Time(1 << 20), 99)));
        let c = q.counters();
        assert_eq!((c.redistributions, c.dropped), (1, 5));
    }

    #[test]
    fn mass_cancel_preserves_pop_order_and_len() {
        let mut q = EventQueue::new();
        let keys: Vec<EventKey> = (0..200u64).map(|i| q.schedule(Time(1000 - i), i)).collect();
        for k in keys.iter().take(150) {
            q.cancel(*k);
            assert_bounded(&q);
        }
        assert_eq!(q.len(), 50);
        // The 133rd cancel left 133 dead against 67 live and purged them.
        assert_eq!(q.counters().dropped, 133);
        assert_eq!(q.audit().stored, 50 + 17);
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
    fn far_future_times_use_the_top_bucket() {
        let mut q = EventQueue::new();
        q.schedule(Time(u64::MAX), "max");
        q.schedule(Time(1 << 63), "half");
        q.schedule(Time(3), "near");
        assert_eq!(q.bucket(Time(u64::MAX)), 64);
        assert_eq!(q.pop(), Some((Time(3), "near")));
        assert_eq!(q.pop(), Some((Time(1 << 63), "half")));
        assert_eq!(q.pop(), Some((Time(u64::MAX), "max")));
        assert_eq!(q.pop(), None);
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
