//! The in-place `EventQueue::reschedule` must be indistinguishable from the
//! default `FlowScheduler::reschedule` (schedule the replacement, then
//! cancel the old event): the same random flow workload driven through
//! both gives the same steps at the same instants and the same counters.

use adapt_net::{
    FlowId, FlowScheduler, FlowSpec, Link, LinkClass, LinkId, NetPerf, NetStep, Network, Path,
};
use adapt_sim::queue::{EventKey, EventQueue};
use adapt_sim::time::{Duration, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uses the trait's default `reschedule`: `schedule` then `cancel`.
struct TwoCall(EventQueue<FlowId>);

impl FlowScheduler for TwoCall {
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
        self.0.schedule(at, flow)
    }
    fn cancel(&mut self, key: EventKey) {
        self.0.cancel(key);
    }
}

/// Re-keys the drain event in place.
struct InPlace(EventQueue<FlowId>);

impl FlowScheduler for InPlace {
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
        self.0.schedule(at, flow)
    }
    fn cancel(&mut self, key: EventKey) {
        self.0.cancel(key);
    }
    fn reschedule(&mut self, old: EventKey, at: Time, flow: FlowId) -> EventKey {
        self.0.reschedule(old, at, flow)
    }
}

trait Queued: FlowScheduler {
    fn queue(&mut self) -> &mut EventQueue<FlowId>;
}

impl Queued for TwoCall {
    fn queue(&mut self) -> &mut EventQueue<FlowId> {
        &mut self.0
    }
}

impl Queued for InPlace {
    fn queue(&mut self) -> &mut EventQueue<FlowId> {
        &mut self.0
    }
}

/// One flow start: instant, path and size.
#[derive(Clone, Copy)]
struct Start {
    at: u64,
    path: Path,
    bytes: u64,
}

/// A random workload over `links` links. Round capacities and sizes make
/// many drain estimates land on the same nanosecond, so same-instant
/// ordering is exercised, not just distinct-time ordering.
fn workload(seed: u64) -> (Vec<Link>, Vec<Start>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nlinks = rng.random_range(1..7u32);
    let round = rng.random_bool(0.5);
    let links = (0..nlinks)
        .map(|_| Link {
            class: LinkClass::Backbone,
            capacity: if round {
                rng.random_range(1..5u64) as f64 * 1e9
            } else {
                rng.random_range(1e8..4e9)
            },
            latency: Duration::from_nanos(rng.random_range(0..3u64) * 500),
        })
        .collect();
    let nflows = rng.random_range(1..80usize);
    let mut starts: Vec<Start> = (0..nflows)
        .map(|_| {
            let hops = rng.random_range(1..=nlinks.min(3));
            let mut ids: Vec<LinkId> = Vec::new();
            while ids.len() < hops as usize {
                let l = LinkId(rng.random_range(0..nlinks));
                if !ids.contains(&l) {
                    ids.push(l);
                }
            }
            let bytes = match rng.random_range(0..10u32) {
                0 => 0,
                1..=5 => rng.random_range(1..64u64) * 4096,
                _ => rng.random_range(1..2_000_000u64),
            };
            Start {
                at: rng.random_range(0..40u64) * 1000,
                path: Path::new(&ids),
                bytes,
            }
        })
        .collect();
    starts.sort_by_key(|s| s.at);
    (links, starts)
}

/// Everything observable about one drive.
#[derive(Debug, PartialEq)]
struct Outcome {
    steps: Vec<(u64, FlowId, NetStep)>,
    started: Vec<FlowId>,
    perf: NetPerf,
}

/// Handle the next event, logging it; false once the queue is empty.
fn step<S: Queued>(net: &mut Network, s: &mut S, log: &mut Vec<(u64, FlowId, NetStep)>) -> bool {
    let Some((t, fid)) = s.queue().pop() else {
        return false;
    };
    let st = net.handle_event(t, fid, s);
    log.push((t.as_nanos(), fid, st));
    true
}

fn drive<S: Queued>(links: Vec<Link>, starts: &[Start], s: &mut S) -> Outcome {
    let mut net = Network::new(links);
    let mut steps = Vec::new();
    let mut started = Vec::new();
    for (tag, st) in starts.iter().enumerate() {
        while s.queue().peek_time().is_some_and(|t| t.as_nanos() <= st.at) {
            step(&mut net, s, &mut steps);
        }
        let spec = FlowSpec {
            path: st.path,
            bytes: st.bytes,
            tag: tag as u64,
        };
        started.push(net.start_flow(Time(st.at), spec, s));
    }
    while step(&mut net, s, &mut steps) {}
    assert_eq!(net.active_flows(), 0);
    Outcome {
        steps,
        started,
        perf: net.perf_counters(),
    }
}

#[test]
fn in_place_reschedule_matches_schedule_then_cancel() {
    let mut in_place_total = 0u64;
    for seed in 0..200 {
        let (links, starts) = workload(seed);
        let mut a = TwoCall(EventQueue::new());
        let mut b = InPlace(EventQueue::new());
        let want = drive(links.clone(), &starts, &mut a);
        let got = drive(links, &starts, &mut b);
        assert_eq!(got, want, "seed {seed}: outcomes differ");
        assert_eq!(a.0.counters().reschedules, 0, "seed {seed}");
        assert_eq!(
            b.0.counters().reschedules,
            want.perf.reschedules,
            "seed {seed}: every drain reschedule re-keys in place"
        );
        in_place_total += b.0.counters().reschedules;
        for q in [&a.0, &b.0] {
            let audit = q.audit();
            assert!(audit.is_consistent(), "seed {seed}: {audit:?}");
            assert_eq!(audit.heap_total, 0, "seed {seed}: {audit:?}");
        }
    }
    assert!(
        in_place_total > 1000,
        "workload too gentle: {in_place_total}"
    );
}
