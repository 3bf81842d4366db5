//! Model-based test of the event queue: seeded random interleavings of
//! every operation, checked step by step against a `BTreeMap` keyed on
//! `(time, seq)` — the order the queue promises, with none of its lanes,
//! slots or heap indices.
//!
//! The generator covers schedules at the current instant, in the future
//! and in the past (clamped), cancels of live, popped, cancelled,
//! slot-reused and default keys, reschedules of the same, pops and peeks.
//! Every failure message names its seed, so a failing case reruns alone
//! with `QUEUE_MODEL_SEED=<seed>`.

use adapt_sim::queue::{EventKey, EventQueue};
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

fn run(seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut m = Model::default();
    let mut handles = Handles(Vec::new());
    let mut payload = 0u32;
    // Short horizons keep many events at equal instants, so the lane and
    // same-time seq ties are exercised constantly.
    let horizon = rng.random_range(1..20u64);
    for step in 0..steps {
        let ctx = format!("seed {seed} step {step}");
        let roll = rng.random_range(0..100u32);
        if roll < 40 {
            let t = match rng.random_range(0..3u32) {
                0 => m.now,
                1 => m.now + rng.random_range(1..=horizon),
                _ => m.now.saturating_sub(rng.random_range(1..=horizon)),
            };
            payload += 1;
            let key = q.schedule(Time(t), payload);
            let mk = m.schedule(t, payload);
            handles.0.push((key, Some(mk)));
        } else if roll < 55 {
            let (key, mk) = handles.pick(&mut rng);
            assert_eq!(q.cancel(key), m.cancel(mk), "{ctx}: cancel {key:?}");
        } else if roll < 70 {
            let (old, mk) = handles.pick(&mut rng);
            let t = m.now + rng.random_range(0..=horizon);
            payload += 1;
            let key = q.reschedule(old, Time(t), payload);
            let new = m.schedule(t, payload);
            m.cancel(mk);
            handles.0.push((key, Some(new)));
        } else if roll < 90 {
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
    assert_eq!(q.audit().heap_total, 0, "seed {seed}: leftovers");
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
    for seed in 0..300 {
        eprintln!("queue model: seed {seed}");
        run(seed, 600);
    }
}

#[test]
fn counters_account_for_every_schedule() {
    // Every schedule lands in exactly one lane; every in-place reschedule
    // and eager cancel is counted once.
    for seed in 0..20 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut q: EventQueue<()> = EventQueue::new();
        let mut keys = Vec::new();
        let mut schedules = 0u64;
        for _ in 0..500 {
            match rng.random_range(0..4u32) {
                0 | 1 => {
                    let t = q.now().as_nanos() + rng.random_range(0..5u64);
                    keys.push(q.schedule(Time(t), ()));
                    schedules += 1;
                }
                2 if !keys.is_empty() => {
                    let i = rng.random_range(0..keys.len());
                    let t = q.now().as_nanos() + rng.random_range(1..5u64);
                    let before = q.counters();
                    keys[i] = q.reschedule(keys[i], Time(t), ());
                    let after = q.counters();
                    let placed = (after.heap_pushes + after.lane_pushes + after.reschedules)
                        - (before.heap_pushes + before.lane_pushes + before.reschedules);
                    assert_eq!(placed, 1, "seed {seed}: one placement per reschedule");
                    schedules += 1;
                }
                _ => {
                    q.pop();
                }
            }
        }
        let c = q.counters();
        assert_eq!(
            c.heap_pushes + c.lane_pushes + c.reschedules,
            schedules,
            "seed {seed}: {c:?}"
        );
    }
}
