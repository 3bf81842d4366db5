//! Model-based test of the event queue: seeded random interleavings of
//! every operation, checked step by step against a `BTreeMap` keyed on
//! `(time, seq)` — the order the queue promises, with none of its buckets
//! or slots.
//!
//! The generator covers schedules at the current instant, a short way into
//! the future, at log-uniform distances from 1 ns to 2^62 ns (so every
//! bucket and multi-level redistribution is hit) and in the past
//! (clamped); cancels of live, popped, cancelled, slot-reused and default
//! keys; the network engine's schedule-then-cancel reschedule of the same;
//! pops and peeks. After every operation the stored entries must stay
//! within `2 * live + 64`. Every failure message names its seed, so a
//! failing case reruns alone with `QUEUE_MODEL_SEED=<seed>`.

use adapt_sim::queue::{EventKey, EventQueue, QueueCounters};
use adapt_sim::time::Time;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The reference: live events by `(time, seq)`.
#[derive(Default)]
struct Model {
    live: BTreeMap<(u64, u64), u32>,
    next_seq: u64,
    now: u64,
    violations: u64,
}

impl Model {
    /// Clamp and stamp a schedule exactly as the queue documents it.
    fn schedule(&mut self, t: u64, payload: u32) -> (u64, u64) {
        if t < self.now {
            self.violations += 1;
        }
        let key = (t.max(self.now), self.next_seq);
        self.next_seq += 1;
        self.live.insert(key, payload);
        key
    }

    fn cancel(&mut self, key: Option<(u64, u64)>) -> bool {
        key.is_some_and(|k| self.live.remove(&k).is_some())
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let ((t, _), v) = self.live.pop_first()?;
        self.now = t;
        Some((t, v))
    }
}

/// Every key ever handed out, with its model key (`None` for the default
/// key), so cancels and reschedules hit live, dead and reused slots alike.
struct Handles(Vec<(EventKey, Option<(u64, u64)>)>);

impl Handles {
    fn pick(&self, rng: &mut SmallRng) -> (EventKey, Option<(u64, u64)>) {
        if self.0.is_empty() || rng.random_bool(0.05) {
            return (EventKey::default(), None);
        }
        // Favour recent keys: they are the ones most likely still live.
        let n = self.0.len();
        let back = if rng.random_bool(0.7) {
            rng.random_range(0..n.min(8))
        } else {
            rng.random_range(0..n)
        };
        self.0[n - 1 - back]
    }
}

/// A distance from `now` drawn log-uniformly from 1 ns to 2^62 ns.
fn far(rng: &mut SmallRng) -> u64 {
    let bits = rng.random_range(0..=62u32);
    rng.random_range(1..=1u64 << bits)
}

/// The bucket the queue files an event due at `t` under, at `now`.
fn bucket(t: u64, now: u64) -> u32 {
    u64::BITS - (t.max(now) ^ now).leading_zeros()
}

/// Returns the queue's counters and a mask of the buckets schedules hit.
fn run(seed: u64, steps: usize) -> (QueueCounters, u128) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut m = Model::default();
    let mut handles = Handles(Vec::new());
    let mut payload = 0u32;
    let mut hit = 0u128;
    // Short horizons keep many events at equal instants, so bucket 0 and
    // same-time seq ties are exercised constantly.
    let horizon = rng.random_range(1..20u64);
    // Cumulative percentages for schedule, cancel, reschedule and pop
    // (the rest peek). One seed in three is reschedule churn with rare
    // pops, so dead entries pile up and the purge bound is what holds.
    let mix = if seed.is_multiple_of(3) {
        [20, 30, 85, 90]
    } else {
        [40, 55, 70, 90]
    };
    for step in 0..steps {
        let ctx = format!("seed {seed} step {step}");
        let roll = rng.random_range(0..100u32);
        if roll < mix[0] {
            let t = match rng.random_range(0..4u32) {
                0 => m.now,
                1 => m.now + rng.random_range(1..=horizon),
                2 => m.now.saturating_add(far(&mut rng)),
                _ => m.now.saturating_sub(rng.random_range(1..=horizon)),
            };
            payload += 1;
            hit |= 1 << bucket(t, m.now);
            let key = q.schedule(Time(t), payload);
            let mk = m.schedule(t, payload);
            handles.0.push((key, Some(mk)));
        } else if roll < mix[1] {
            let (key, mk) = handles.pick(&mut rng);
            assert_eq!(q.cancel(key), m.cancel(mk), "{ctx}: cancel {key:?}");
        } else if roll < mix[2] {
            // A drain reschedule: the replacement first, then the cancel.
            let (old, mk) = handles.pick(&mut rng);
            let t = if rng.random_bool(0.5) {
                m.now + rng.random_range(0..=horizon)
            } else {
                m.now.saturating_add(far(&mut rng))
            };
            payload += 1;
            hit |= 1 << bucket(t, m.now);
            let key = q.schedule(Time(t), payload);
            let new = m.schedule(t, payload);
            assert_eq!(q.cancel(old), m.cancel(mk), "{ctx}: reschedule {old:?}");
            handles.0.push((key, Some(new)));
        } else if roll < mix[3] {
            let got = q.pop().map(|(t, v)| (t.as_nanos(), v));
            assert_eq!(got, m.pop(), "{ctx}: pop");
        } else {
            let want = m.live.keys().next().copied();
            let got = q.peek_key().map(|(t, s)| (t.as_nanos(), s));
            assert_eq!(got, want, "{ctx}: peek_key");
        }
        assert_eq!(q.len(), m.live.len(), "{ctx}: len");
        assert_eq!(q.is_empty(), m.live.is_empty(), "{ctx}: is_empty");
        assert_eq!(q.now().as_nanos(), m.now, "{ctx}: now");
        assert_eq!(
            q.causality_violations(),
            m.violations,
            "{ctx}: causality_violations"
        );
        let audit = q.audit();
        assert!(audit.is_consistent(), "{ctx}: {audit:?}");
        assert!(audit.stored <= 2 * m.live.len() + 64, "{ctx}: {audit:?}");
        assert_eq!(audit.causality_violations, m.violations, "{ctx}");
    }
    // Drain: the full remaining order must agree too.
    loop {
        let got = q.pop().map(|(t, v)| (t.as_nanos(), v));
        assert_eq!(got, m.pop(), "seed {seed}: drain");
        if got.is_none() {
            break;
        }
    }
    assert_eq!(q.audit().stored, 0, "seed {seed}: leftovers");
    (q.counters(), hit)
}

#[test]
fn queue_matches_the_btreemap_model() {
    if let Some(seed) = std::env::var("QUEUE_MODEL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        eprintln!("queue model: seed {seed}");
        run(seed, 2_000);
        return;
    }
    let (mut pushed, mut moved, mut hit) = (0, 0, 0u128);
    for seed in 0..300 {
        eprintln!("queue model: seed {seed}");
        let (c, h) = run(seed, 600);
        hit |= h;
        if !seed.is_multiple_of(3) {
            pushed += c.bucket_pushes;
            moved += c.moves;
        }
    }
    // Coverage: schedules hit buckets 0 to 62 (deltas reach 2^62 ns), and
    // outside the churn seeds, where most entries are popped rather than
    // cancelled, entries moved more often than they were pushed past
    // bucket 0, so redistributions sent entries down several levels.
    assert_eq!(
        hit & ((1 << 63) - 1),
        (1 << 63) - 1,
        "buckets hit: {hit:#x}"
    );
    assert!(moved > pushed, "{moved} moves for {pushed} pushes");
}

#[test]
fn counters_account_for_every_schedule_and_cancel() {
    // Every schedule lands in exactly one bucket; every successful cancel
    // is counted once and its dead entry is dropped exactly once by the
    // time the queue is drained; the clock advances once per
    // redistribution.
    for seed in 0..20 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut q: EventQueue<()> = EventQueue::new();
        let mut keys = Vec::new();
        let (mut schedules, mut cancels, mut advances) = (0u64, 0u64, 0u64);
        for _ in 0..500 {
            match rng.random_range(0..4u32) {
                0 | 1 => {
                    let t = q.now().as_nanos() + rng.random_range(0..5u64);
                    keys.push(q.schedule(Time(t), ()));
                    schedules += 1;
                }
                2 if !keys.is_empty() => {
                    let i = rng.random_range(0..keys.len());
                    cancels += u64::from(q.cancel(keys[i]));
                }
                _ => {
                    let before = q.now();
                    q.pop();
                    advances += u64::from(q.now() != before);
                }
            }
        }
        while !q.is_empty() {
            let before = q.now();
            q.pop();
            advances += u64::from(q.now() != before);
        }
        let c = q.counters();
        assert_eq!(
            c.now_pushes + c.bucket_pushes,
            schedules,
            "seed {seed}: {c:?}"
        );
        assert_eq!(c.cancels, cancels, "seed {seed}: {c:?}");
        assert_eq!(c.dropped, cancels, "seed {seed}: {c:?}");
        assert_eq!(c.redistributions, advances, "seed {seed}: {c:?}");
        assert!(c.moves >= c.redistributions, "seed {seed}: {c:?}");
    }
}
