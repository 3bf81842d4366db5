//! Replay a traced run's flow log through `adapt-net` alone.
//!
//! The log holds every `Network::start_flow` the world made, with the
//! instant its launch was scheduled, plus every drain and delivery it
//! handled, in the world's order. The replay drives a fresh [`Network`]
//! over its own [`EventQueue`]. The network makes the same scheduling
//! calls in the same order as in the world, so its events pop in the
//! world's relative order too; only the starts must be placed among them:
//!
//! * a drain or delivery record handles events until that flow's step;
//! * a start at instant `t` first handles the events due before `t`, then
//!   the events due at `t` that were scheduled no later than the launch,
//!   up to the first one *owed* to a later record (a drain or delivery
//!   the log puts after the start).
//!
//! The events that rule places are self-correcting drain estimates
//! (`NetStep::Progress`), which the recorder never sees. The world orders
//! a same-instant launch and estimate by scheduling order, and the
//! replay's guess of it is exact when no two are scheduled at the same
//! instant. The self-tests check that the counters the world reports come
//! out equal.

use crate::shim::FlowRecord;
use adapt_net::{FlowId, FlowScheduler, FlowSpec, Link, NetPerf, NetStep, Network};
use adapt_sim::queue::EventKey;
use adapt_sim::time::Time;
use adapt_sim::EventQueue;

/// The replay's event queue. Sequence numbers count schedule calls from
/// zero, so the flow behind any queued `(time, seq)` key is `by_seq[seq]`.
/// `sched_ns[seq]` is the instant it was scheduled at.
#[derive(Default)]
struct Queue {
    events: EventQueue<FlowId>,
    by_seq: Vec<FlowId>,
    sched_ns: Vec<u64>,
    /// Instant of the network call in progress.
    now: u64,
}

impl FlowScheduler for Queue {
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
        self.by_seq.push(flow);
        self.sched_ns.push(self.now);
        self.events.schedule(at, flow)
    }

    fn cancel(&mut self, key: EventKey) {
        self.events.cancel(key);
    }
}

/// Counters of one replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Flows started.
    pub flows: u64,
    /// The network engine's own counters.
    pub perf: NetPerf,
}

/// A replayed flow's logged future and how far the replay has got.
#[derive(Clone, Copy, Default)]
struct Track {
    /// World drain instant (`None`: no drain phase, or never drained).
    drain_ns: Option<u64>,
    /// World delivery instant (`None`: lost, or never delivered).
    deliver_ns: Option<u64>,
    drained: bool,
    delivered: bool,
}

impl Track {
    /// Is an event of this flow at `t` its logged drain or delivery?
    fn owed(&self, t: u64) -> bool {
        if !self.drained {
            self.drain_ns == Some(t)
        } else {
            !self.delivered && self.deliver_ns == Some(t)
        }
    }
}

struct Replay {
    net: Network,
    queue: Queue,
    tracks: Vec<Track>,
    counts: ReplayCounts,
}

impl Replay {
    /// Handle the next event; false once the queue is empty.
    fn step(&mut self) -> bool {
        let Some((t, flow)) = self.queue.events.pop() else {
            return false;
        };
        self.queue.now = t.as_nanos();
        let track = &mut self.tracks[flow.0 as usize];
        match self.net.handle_event(t, flow, &mut self.queue) {
            NetStep::Progress => {}
            NetStep::Drained { .. } => track.drained = true,
            NetStep::Delivered(_) | NetStep::Dropped(_) => track.delivered = true,
        }
        true
    }

    /// Handle the events a start at `t`, scheduled at `sched`, follows:
    /// those due before `t`, then those due at `t` that were scheduled no
    /// later than the start, up to the first one owed to a later record.
    fn advance_to(&mut self, t: u64, sched: u64) {
        while let Some((at, seq)) = self.queue.events.peek_key() {
            let at = at.as_nanos();
            let flow = self.queue.by_seq[seq as usize];
            if at > t
                || at == t
                    && (self.queue.sched_ns[seq as usize] > sched
                        || self.tracks[flow.0 as usize].owed(t))
            {
                return;
            }
            self.step();
        }
    }
}

/// Replay `log` over a network built from `links`.
pub fn replay(links: Vec<Link>, log: &[FlowRecord]) -> ReplayCounts {
    // Each start's logged drain and delivery instants (a slot belongs to
    // its latest start until delivered).
    let mut future: Vec<(Option<u64>, Option<u64>)> = vec![(None, None); log.len()];
    let mut owner: Vec<usize> = Vec::new();
    for (i, rec) in log.iter().enumerate() {
        match *rec {
            FlowRecord::Start { slot, .. } => {
                let slot = slot as usize;
                if slot >= owner.len() {
                    owner.resize(slot + 1, 0);
                }
                owner[slot] = i;
            }
            FlowRecord::Drained { slot, t_ns } => future[owner[slot as usize]].0 = Some(t_ns),
            FlowRecord::Delivered { slot, t_ns } => future[owner[slot as usize]].1 = Some(t_ns),
        }
    }

    let mut r = Replay {
        net: Network::new(links),
        queue: Queue::default(),
        tracks: Vec::new(),
        counts: ReplayCounts::default(),
    };
    // World slot -> replay flow id of the latest flow started in it.
    let mut slot_map: Vec<usize> = Vec::new();
    for (i, rec) in log.iter().enumerate() {
        match *rec {
            FlowRecord::Start {
                slot,
                t_ns,
                sched_ns,
                bytes,
                path,
            } => {
                r.advance_to(t_ns, sched_ns);
                r.queue.now = t_ns;
                let spec = FlowSpec {
                    path,
                    bytes,
                    tag: 0,
                };
                let id = r.net.start_flow(Time(t_ns), spec, &mut r.queue).0 as usize;
                r.counts.flows += 1;
                if id >= r.tracks.len() {
                    r.tracks.resize(id + 1, Track::default());
                }
                let (drain_ns, deliver_ns) = future[i];
                r.tracks[id] = Track {
                    drain_ns,
                    deliver_ns,
                    drained: bytes == 0 || path.is_empty(),
                    ..Track::default()
                };
                let slot = slot as usize;
                if slot >= slot_map.len() {
                    slot_map.resize(slot + 1, 0);
                }
                slot_map[slot] = id;
            }
            FlowRecord::Drained { slot, .. } => {
                let id = slot_map[slot as usize];
                while !r.tracks[id].drained && r.step() {}
            }
            FlowRecord::Delivered { slot, .. } => {
                let id = slot_map[slot as usize];
                while !r.tracks[id].delivered && r.step() {}
            }
        }
    }
    r.counts.perf = r.net.perf_counters();
    r.counts
}
