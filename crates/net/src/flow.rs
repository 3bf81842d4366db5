//! Flow-level network simulation with per-link fair bandwidth sharing.
//!
//! Every in-flight message is a *flow* over a path of links. Each link's
//! capacity is shared equally among the flows crossing it (processor
//! sharing), and a flow drains at the minimum share along its path:
//!
//! ```text
//! rate(f) = min over links l of f:  capacity(l) / active_flows(l)
//! ```
//!
//! This is the classic equal-share approximation of max-min fairness. It
//! is *local*: a flow entering or leaving only perturbs flows that share
//! one of its links, which keeps the engine O(affected flows) per event —
//! essential for thousand-rank collectives with tens of thousands of
//! concurrent flows — while still producing the congestion effects the
//! ADAPT paper reasons about (three flows on one PCIe direction each see a
//! third of its bandwidth, §4.1; heterogeneous lanes progress
//! independently, §3.2.2).
//!
//! Each flow passes through two phases:
//!
//! 1. **Draining** — its bytes leave the sender at the allotted rate; a
//!    *drain* event fires when the last byte is injected, at which point
//!    the flow stops consuming link capacity.
//! 2. **Latency tail** — the path's propagation latency elapses; a
//!    *delivery* event fires and the owner is handed the flow's tag.
//!
//! The engine does not own the event queue (the MPI runtime does); it
//! talks to it through [`FlowScheduler`], so flows, rank events, and noise
//! share one deterministic timeline.

use crate::links::{Link, Path, MAX_PATH};
use adapt_sim::queue::EventKey;
use adapt_sim::time::{Duration, Time};

/// Identifier of an in-flight flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// How the owner's event queue is driven by the network engine.
pub trait FlowScheduler {
    /// Schedule a network event for `flow` at `at`; return a cancellable key.
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey;
    /// Cancel a previously scheduled network event.
    fn cancel(&mut self, key: EventKey);
}

/// Description of a new flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Links the flow traverses, in order.
    pub path: Path,
    /// Payload size in bytes. Zero-byte flows model control messages and
    /// are charged latency only.
    pub bytes: u64,
    /// Opaque tag returned on delivery (the MPI layer keys its bookkeeping
    /// on this).
    pub tag: u64,
}

/// Outcome handed to the owner when a delivery event fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The completed flow.
    pub flow: FlowId,
    /// The tag from the original [`FlowSpec`].
    pub tag: u64,
    /// Bytes that were carried.
    pub bytes: u64,
}

/// What a network event meant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetStep {
    /// Internal bookkeeping (a stale drain estimate corrected itself);
    /// nothing to act on.
    Progress,
    /// The flow's last byte left the sender: its buffer is reusable and it
    /// stopped consuming link capacity. Delivery follows after the path
    /// latency.
    Drained {
        /// The draining flow.
        flow: FlowId,
        /// The tag from the original [`FlowSpec`].
        tag: u64,
        /// Bytes carried.
        bytes: u64,
    },
    /// The flow arrived at the receiver.
    Delivered(Delivery),
    /// The flow was lost: injected fault (link loss or outage) consumed
    /// the transfer. The flow drained normally — bandwidth was spent — but
    /// nothing arrives; recovery is the reliability layer's job.
    Dropped(Delivery),
}

#[derive(Debug)]
enum Phase {
    /// Consuming link capacity.
    Draining {
        /// Bytes left as of `last_update`.
        remaining: f64,
        /// Current rate, bytes/sec.
        rate: f64,
        /// When `remaining` was last reconciled.
        last_update: Time,
    },
    /// Drained; waiting out the propagation latency.
    Tail,
}

#[derive(Debug)]
struct Flow {
    spec: FlowSpec,
    phase: Phase,
    /// Marked lost at injection time by the fault layer: the flow drains
    /// and ties up bandwidth as usual, but delivery reports
    /// [`NetStep::Dropped`] instead of handing data to the receiver.
    doomed: bool,
    event: EventKey,
    /// Scheduled time of `event` (to judge whether a rate change moved the
    /// estimate enough to warrant a reschedule).
    event_time: Time,
    /// For each path position, this flow's index inside that link's
    /// `link_flows` list — a slot map that turns the leave-link update into
    /// an O(1) `swap_remove` instead of a linear `position()` scan.
    slots: [u32; MAX_PATH],
}

/// The flow-level network engine. Flows live in a slab (vector plus free
/// list) so the per-event refresh of neighbouring flows is direct indexing
/// rather than hashing — the hot path with tens of thousands of
/// concurrent flows.
pub struct Network {
    links: Vec<Link>,
    /// Pristine `(capacity, latency)` of every link, kept so degradation
    /// windows can scale from the base values rather than compounding.
    base_links: Vec<(f64, Duration)>,
    slab: Vec<Option<Flow>>,
    free: Vec<u32>,
    active: usize,
    /// Flows currently draining through each link (unordered slab indices).
    link_flows: Vec<Vec<u32>>,
    /// Cached equal-share rate of each link: `capacity / active.max(1)`,
    /// maintained on every occupancy change. Queries fold cached values
    /// instead of re-dividing, and the cache is what makes the refresh
    /// prefilter possible: a neighbour whose current rate is unaffected by
    /// the one share that moved is skipped without touching its state.
    link_share: Vec<f64>,
    /// Cumulative bytes injected by `start_flow` (audit).
    injected_bytes: u64,
    /// Cumulative bytes delivered (diagnostics and audit).
    delivered_bytes: u64,
    /// Cumulative bytes consumed by doomed flows (injected faults).
    dropped_bytes: u64,
    /// Scratch buffer: flows affected by the current perturbation, each
    /// paired with the perturbed link's comparison share (post-join share
    /// when a flow entered, pre-leave share when one left).
    affected: Vec<(u32, f64)>,
    /// Diagnostics: refresh scans and actual reschedules performed.
    refreshes: u64,
    reschedules: u64,
    /// Diagnostics: full path-minimum share recomputations.
    share_recomputes: u64,
}

/// Network-engine perf counters (diagnostics, surfaced through the MPI
/// runtime's `WorldStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetPerf {
    /// Neighbour flows visited while refreshing after a perturbation.
    pub refreshes: u64,
    /// Drain events actually rescheduled (estimate moved materially).
    pub reschedules: u64,
    /// Full path-minimum share recomputations performed.
    pub share_recomputes: u64,
}

/// Rate below which a flow is considered stalled; avoids division blow-ups
/// from floating-point corner cases. One byte per second.
const MIN_RATE: f64 = 1.0;

/// A drain event is rescheduled only when the new estimate moves by more
/// than this fraction of the remaining drain time (or fires early). Small
/// share fluctuations in steady pipelines thus keep their schedule; the
/// drain event *self-corrects* — if it fires with bytes still unsent it
/// re-arms at the true estimate — so accuracy is preserved, only
/// fast-forwarded deliveries are delayed by at most this fraction.
const RESCHED_TOL: f64 = 0.10;

impl Network {
    /// Create an engine over a fixed set of links.
    pub fn new(links: Vec<Link>) -> Network {
        let n = links.len();
        // An idle link's share is `capacity / 1` (the `.max(1)` clamp), and
        // dividing by one is exact, so seeding with the raw capacity is
        // bit-identical to the formula.
        let link_share = links.iter().map(|l| l.capacity).collect();
        let base_links = links.iter().map(|l| (l.capacity, l.latency)).collect();
        Network {
            links,
            base_links,
            slab: Vec::new(),
            free: Vec::new(),
            active: 0,
            link_flows: vec![Vec::new(); n],
            link_share,
            injected_bytes: 0,
            delivered_bytes: 0,
            dropped_bytes: 0,
            affected: Vec::new(),
            refreshes: 0,
            reschedules: 0,
            share_recomputes: 0,
        }
    }

    fn alloc(&mut self, flow: Flow) -> u32 {
        self.active += 1;
        match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(flow);
                i
            }
            None => {
                self.slab.push(Some(flow));
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// The link table (for diagnostics and fabric queries).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Permanently rescale one link's pristine capacity and latency before
    /// any flow starts (a what-if intervention applied to a real re-run).
    /// Unlike [`Network::scale_link`], the *baseline* moves too, so later
    /// degradation windows scale relative to the intervened values.
    ///
    /// # Panics
    /// Panics if called while flows are active — the rescale would bypass
    /// the reschedule machinery.
    pub fn prescale_link(&mut self, link: u32, cap_factor: f64, lat_factor: f64) {
        assert_eq!(self.active, 0, "prescale_link requires an idle network");
        assert!(
            cap_factor > 0.0 && lat_factor > 0.0,
            "scale factors must be positive"
        );
        let l = link as usize;
        let cap = self.base_links[l].0 * cap_factor;
        let lat = Duration::from_nanos(
            (self.base_links[l].1.as_nanos() as f64 * lat_factor).round() as u64,
        );
        self.base_links[l] = (cap, lat);
        self.links[l].capacity = cap;
        self.links[l].latency = lat;
        self.link_share[l] = cap;
    }

    /// Number of flows currently in the network (draining or in tail).
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Total bytes delivered so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Total bytes injected into flows so far. Once the network is idle
    /// ([`Network::active_flows`] is zero) this must equal
    /// [`Network::delivered_bytes`] plus [`Network::dropped_bytes`] — the
    /// audit layer checks exactly that.
    pub fn injected_bytes(&self) -> u64 {
        self.injected_bytes
    }

    /// Total bytes consumed by doomed flows (injected faults) so far.
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// Visit every link currently carrying flows, for time-series
    /// sampling: calls `f(link_id, flow_count, utilization)` where
    /// `utilization` is the summed drain rate of the link's flows over
    /// its capacity. Only draining flows count: a flow leaves its links'
    /// lists the moment it drains, so flows in their latency tail
    /// contribute nothing. Idle links are skipped — a large machine has
    /// mostly-idle lanes.
    pub fn for_each_link_load(&self, mut f: impl FnMut(u32, usize, f64)) {
        for (l, flows) in self.link_flows.iter().enumerate() {
            if flows.is_empty() {
                continue;
            }
            let mut used = 0.0;
            for &fi in flows {
                if let Some(Some(flow)) = self.slab.get(fi as usize) {
                    if let Phase::Draining { rate, .. } = flow.phase {
                        used += rate;
                    }
                }
            }
            let cap = self.links[l].capacity;
            let util = if cap > 0.0 { used / cap } else { 0.0 };
            f(l as u32, flows.len(), util);
        }
    }

    /// Diagnostics: perf counters accumulated so far.
    pub fn perf_counters(&self) -> NetPerf {
        NetPerf {
            refreshes: self.refreshes,
            reschedules: self.reschedules,
            share_recomputes: self.share_recomputes,
        }
    }

    /// Sum of path latencies for `path`.
    pub fn path_latency(&self, path: &Path) -> Duration {
        let mut d = Duration::ZERO;
        for l in path {
            d += self.links[l.0 as usize].latency;
        }
        d
    }

    /// Recompute a link's cached share after its occupancy changed. The
    /// expression matches the one historical queries used
    /// (`capacity / count.max(1)`), so cached values are bit-identical to
    /// what an on-the-fly recomputation would produce.
    fn set_share(&mut self, l: usize) {
        let count = self.link_flows[l].len().max(1) as f64;
        self.link_share[l] = self.links[l].capacity / count;
    }

    /// The equal-share rate a flow with `path` gets right now: the minimum
    /// cached link share along the path, clamped at [`MIN_RATE`].
    fn share_rate(&self, path: &Path) -> f64 {
        let mut rate = f64::INFINITY;
        for l in path {
            rate = rate.min(self.link_share[l.0 as usize]);
        }
        rate.max(MIN_RATE)
    }

    /// Time a hypothetical `bytes`-sized transfer over `path` would take
    /// under the *current* share allocation: path latency plus the drain
    /// at today's equal-share rate. The reliability layer uses this as its
    /// RTT stand-in when arming retransmission timers; it is an estimate,
    /// not a promise — shares move as flows come and go.
    pub fn estimate_transfer(&self, path: &Path, bytes: u64) -> Duration {
        let latency = self.path_latency(path);
        if bytes == 0 || path.is_empty() {
            return latency;
        }
        latency + Duration::from_secs_f64_ceil(bytes as f64 / self.share_rate(path))
    }

    /// Scale one link's capacity and latency to `cap_factor` / `lat_factor`
    /// times its *base* values (factors of 1.0 restore the link). Flows
    /// currently draining through the link are re-rated immediately via the
    /// usual refresh; latency changes apply to drains and launches that
    /// happen after the call.
    pub fn scale_link(
        &mut self,
        now: Time,
        link: u32,
        cap_factor: f64,
        lat_factor: f64,
        sched: &mut impl FlowScheduler,
    ) {
        let l = link as usize;
        let (base_cap, base_lat) = self.base_links[l];
        self.links[l].capacity = base_cap * cap_factor;
        self.links[l].latency =
            Duration::from_nanos((base_lat.as_nanos() as f64 * lat_factor).round() as u64);
        let old_share = self.link_share[l];
        self.set_share(l);
        let new_share = self.link_share[l];
        if new_share == old_share {
            return;
        }
        // Reuse the join/leave refresh machinery: shares that fell compare
        // against the new (lower) value, shares that rose against the old
        // one — the same dismissal logic as flow churn (see
        // `refresh_affected`).
        let rose = new_share > old_share;
        let cmp = if rose { old_share } else { new_share };
        self.affected.clear();
        for &fid in &self.link_flows[l] {
            self.affected.push((fid, cmp));
        }
        self.refresh_affected(now, sched, rose);
    }

    /// Inject a new flow at time `now`. Returns its id; a delivery (or
    /// drain) event is scheduled through `sched`.
    pub fn start_flow(
        &mut self,
        now: Time,
        spec: FlowSpec,
        sched: &mut impl FlowScheduler,
    ) -> FlowId {
        self.start_flow_doomed(now, spec, false, sched)
    }

    /// [`Network::start_flow`] with a fault verdict attached: a doomed
    /// flow drains and consumes bandwidth normally but reports
    /// [`NetStep::Dropped`] at delivery time instead of arriving.
    pub fn start_flow_doomed(
        &mut self,
        now: Time,
        spec: FlowSpec,
        doomed: bool,
        sched: &mut impl FlowScheduler,
    ) -> FlowId {
        let latency = self.path_latency(&spec.path);
        self.injected_bytes += spec.bytes;

        if spec.bytes == 0 || spec.path.is_empty() {
            // Control message or purely local hand-off: latency only.
            // Reserve the slot first so the scheduled event's id is right.
            let id = self.alloc(Flow {
                spec,
                phase: Phase::Tail,
                doomed,
                event: EventKey::default(),
                event_time: now + latency,
                slots: [0; MAX_PATH],
            });
            let event = sched.schedule(now + latency, FlowId(id as u64));
            self.slab[id as usize]
                .as_mut()
                .expect("just allocated")
                .event = event;
            return FlowId(id as u64);
        }

        let id = self.alloc(Flow {
            spec,
            phase: Phase::Draining {
                remaining: spec.bytes as f64,
                rate: 0.0,
                last_update: now,
            },
            doomed,
            event: EventKey::default(),
            event_time: Time::MAX,
            slots: [0; MAX_PATH],
        });
        // Join the links, recording this flow's slot in each list and
        // refreshing the cached shares as occupancy grows.
        for (i, l) in spec.path.as_slice().iter().enumerate() {
            let v = &mut self.link_flows[l.0 as usize];
            v.push(id);
            let slot = (v.len() - 1) as u32;
            self.slab[id as usize]
                .as_mut()
                .expect("just allocated")
                .slots[i] = slot;
            self.set_share(l.0 as usize);
        }
        // Collect the neighbours whose share may have changed, paired with
        // the post-join share of the link they were found on. The new flow
        // sits at the tail of every list it joined; skipping it reproduces
        // the pre-join neighbour set exactly.
        self.affected.clear();
        for l in &spec.path {
            let share = self.link_share[l.0 as usize];
            for &fid in &self.link_flows[l.0 as usize] {
                if fid != id {
                    self.affected.push((fid, share));
                }
            }
        }
        self.share_recomputes += 1;
        let rate = self.share_rate(&spec.path);
        let drain_in = Duration::from_secs_f64_ceil(spec.bytes as f64 / rate);
        let event = sched.schedule(now + drain_in, FlowId(id as u64));
        {
            let f = self.slab[id as usize].as_mut().expect("just allocated");
            f.event = event;
            f.event_time = now + drain_in;
            if let Phase::Draining { rate: r, .. } = &mut f.phase {
                *r = rate;
            }
        }
        self.refresh_affected(now, sched, false);
        FlowId(id as u64)
    }

    /// Handle a network event for `flow`: either the drain (last byte
    /// injected — the flow stops consuming bandwidth and its delivery is
    /// scheduled one path-latency later) or the delivery itself.
    pub fn handle_event(
        &mut self,
        now: Time,
        flow: FlowId,
        sched: &mut impl FlowScheduler,
    ) -> NetStep {
        let idx = flow.0 as usize;
        let draining = matches!(
            self.slab[idx]
                .as_ref()
                .expect("event for unknown flow")
                .phase,
            Phase::Draining { .. }
        );
        if draining {
            // Reconcile; if the stale schedule fired before the bytes are
            // really out, re-arm at the true estimate (self-correction).
            {
                let f = self.slab[idx].as_mut().expect("flow vanished");
                if let Phase::Draining {
                    remaining,
                    rate,
                    last_update,
                } = &mut f.phase
                {
                    let drained = *rate * now.saturating_since(*last_update).as_secs_f64();
                    *remaining = (*remaining - drained).max(0.0);
                    *last_update = now;
                    if *remaining > 1.0 {
                        let drain_in = Duration::from_secs_f64_ceil(*remaining / *rate);
                        let event = sched.schedule(now + drain_in, flow);
                        f.event = event;
                        f.event_time = now + drain_in;
                        return NetStep::Progress;
                    }
                }
            }
            let (path, tag, bytes) = {
                let f = self.slab[idx].as_mut().expect("flow vanished");
                f.phase = Phase::Tail;
                (f.spec.path, f.spec.tag, f.spec.bytes)
            };
            // Remember each link's share while this flow still occupies it —
            // the refresh prefilter needs the pre-leave value to tell which
            // neighbours were actually bottlenecked here.
            let mut old_shares = [0.0f64; MAX_PATH];
            for (i, l) in path.as_slice().iter().enumerate() {
                old_shares[i] = self.link_share[l.0 as usize];
            }
            // Stop consuming capacity; neighbours speed up. The slot map
            // makes each leave O(1): swap_remove this flow's recorded slot,
            // then repoint the slot of whichever flow got moved into it.
            for i in 0..path.len() {
                let l = path.as_slice()[i].0 as usize;
                let pos = self.slab[idx].as_ref().expect("flow vanished").slots[i] as usize;
                let v = &mut self.link_flows[l];
                debug_assert_eq!(v[pos], flow.0 as u32, "slot map out of sync");
                let last = v.len() - 1;
                v.swap_remove(pos);
                if pos != last {
                    let moved = v[pos];
                    let mf = self.slab[moved as usize]
                        .as_mut()
                        .expect("moved flow vanished");
                    for (j, ml) in mf.spec.path.as_slice().iter().enumerate() {
                        if ml.0 as usize == l && mf.slots[j] as usize == last {
                            mf.slots[j] = pos as u32;
                            break;
                        }
                    }
                }
                self.set_share(l);
            }
            self.affected.clear();
            for (i, l) in path.as_slice().iter().enumerate() {
                for &fid in &self.link_flows[l.0 as usize] {
                    self.affected.push((fid, old_shares[i]));
                }
            }
            let latency = self.path_latency(&path);
            let event = sched.schedule(now + latency, flow);
            {
                let f = self.slab[idx].as_mut().expect("flow vanished");
                f.event = event;
                f.event_time = now + latency;
            }
            self.refresh_affected(now, sched, true);
            NetStep::Drained { flow, tag, bytes }
        } else {
            let f = self.slab[idx].take().expect("flow vanished");
            self.active -= 1;
            self.free.push(flow.0 as u32);
            let delivery = Delivery {
                flow,
                tag: f.spec.tag,
                bytes: f.spec.bytes,
            };
            if f.doomed {
                self.dropped_bytes += f.spec.bytes;
                NetStep::Dropped(delivery)
            } else {
                self.delivered_bytes += f.spec.bytes;
                NetStep::Delivered(delivery)
            }
        }
    }

    /// Re-derive the rate of every affected flow, reconciling its remaining
    /// bytes at the old rate and rescheduling its drain event if the rate
    /// moved.
    ///
    /// `rose` says which way the perturbed link's share moved (a flow left:
    /// shares rise; a flow joined: shares fall). Each affected entry
    /// carries that link's comparison share, which lets most neighbours be
    /// dismissed in O(1) without recomputing their path minimum:
    ///
    /// * shares **fell** to `s`: a neighbour running at `rate <= s` keeps
    ///   its bottleneck (its path minimum is at most `s`), so its rate is
    ///   literally unchanged;
    /// * shares **rose** from `s`: a neighbour running at `rate < s` was
    ///   bottlenecked on some *other* link, so raising this one cannot
    ///   move its minimum.
    ///
    /// Both dismissals coincide exactly with cases where the full
    /// recomputation would return a bit-identical rate and the epsilon
    /// check below would skip anyway — the prefilter changes which work is
    /// done, never the outcome.
    fn refresh_affected(&mut self, now: Time, sched: &mut impl FlowScheduler, rose: bool) {
        let affected = std::mem::take(&mut self.affected);
        self.refreshes += affected.len() as u64;
        let mut reschedules = 0u64;
        for &(id, cmp) in &affected {
            let f = self.slab[id as usize]
                .as_ref()
                .expect("affected flow vanished");
            // Affected flows come from `link_flows`, which a flow leaves
            // the moment it drains: only draining flows are ever listed.
            debug_assert!(
                matches!(f.phase, Phase::Draining { .. }),
                "flow {id} in its latency tail is still on a link's list"
            );
            let Phase::Draining { rate: current, .. } = f.phase else {
                continue;
            };
            let unaffected = if rose { current < cmp } else { current <= cmp };
            if unaffected {
                continue;
            }
            let path = f.spec.path;
            self.share_recomputes += 1;
            let new_rate = self.share_rate(&path);
            let f = self.slab[id as usize]
                .as_mut()
                .expect("affected flow vanished");
            let event_time = f.event_time;
            let Phase::Draining {
                remaining,
                rate,
                last_update,
            } = &mut f.phase
            else {
                unreachable!("phase checked above");
            };
            if (*rate - new_rate).abs() <= 1e-9 * new_rate.max(*rate) {
                continue;
            }
            // Reconcile progress at the old rate, then switch.
            let dt = now.saturating_since(*last_update).as_secs_f64();
            *remaining = (*remaining - *rate * dt).max(0.0);
            *last_update = now;
            *rate = new_rate;
            // Keep the existing event unless the estimate moved materially:
            // a late event self-corrects on firing, an early one re-arms.
            let drain_in = Duration::from_secs_f64_ceil(*remaining / new_rate);
            let estimate = now + drain_in;
            let scheduled_in = event_time.saturating_since(now).as_nanos() as f64;
            let shift = (estimate.as_nanos() as f64 - event_time.as_nanos() as f64).abs();
            if shift <= (scheduled_in.max(drain_in.as_nanos() as f64)) * RESCHED_TOL {
                continue;
            }
            reschedules += 1;
            // Replacement first, then the cancel: the new event's seq is
            // drawn before the old one dies.
            let old = f.event;
            f.event = sched.schedule(estimate, FlowId(id as u64));
            f.event_time = estimate;
            sched.cancel(old);
        }
        self.reschedules += reschedules;
        self.affected = affected;
    }

    /// Test-only invariant: every cached link share equals the formula
    /// recomputed from scratch, bit for bit.
    #[cfg(test)]
    fn check_share_cache(&self) {
        for (i, link) in self.links.iter().enumerate() {
            let count = self.link_flows[i].len().max(1) as f64;
            assert_eq!(
                self.link_share[i].to_bits(),
                (link.capacity / count).to_bits(),
                "stale share cache on link {i}"
            );
        }
    }

    /// Test-only invariant: the slot map and the per-link flow lists agree
    /// in both directions.
    #[cfg(test)]
    fn check_slots(&self) {
        for (l, v) in self.link_flows.iter().enumerate() {
            for (pos, &id) in v.iter().enumerate() {
                let f = self.slab[id as usize]
                    .as_ref()
                    .expect("listed flow vanished");
                assert!(
                    f.spec
                        .path
                        .as_slice()
                        .iter()
                        .enumerate()
                        .any(|(j, pl)| pl.0 as usize == l && f.slots[j] as usize == pos),
                    "flow {id} at link {l} pos {pos} has no matching slot"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::LinkId;
    use adapt_sim::queue::EventQueue;

    /// Test scheduler backed directly by an EventQueue.
    struct Q(EventQueue<FlowId>);

    impl FlowScheduler for Q {
        fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
            self.0.schedule(at, flow)
        }
        fn cancel(&mut self, key: EventKey) {
            self.0.cancel(key);
        }
    }

    fn one_link(bw: f64, lat_ns: u64) -> Network {
        Network::new(vec![Link {
            class: crate::links::LinkClass::Backbone,
            capacity: bw,
            latency: Duration::from_nanos(lat_ns),
        }])
    }

    fn drive_until_delivery(net: &mut Network, q: &mut Q) -> Vec<(Time, Delivery)> {
        let mut out = Vec::new();
        while let Some((t, fid)) = q.0.pop() {
            if let NetStep::Delivered(d) = net.handle_event(t, fid, q) {
                out.push((t, d));
            }
        }
        out
    }

    #[test]
    fn single_flow_hockney_time() {
        // 1e6 bytes at 1e9 B/s = 1 ms drain + 1 us latency.
        let mut net = one_link(1e9, 1_000);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 7,
            },
            &mut q,
        );
        let deliveries = drive_until_delivery(&mut net, &mut q);
        assert_eq!(deliveries.len(), 1);
        let (t, d) = deliveries[0];
        assert_eq!(d.tag, 7);
        assert_eq!(t.as_nanos(), 1_000_000 + 1_000);
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.delivered_bytes(), 1_000_000);
    }

    #[test]
    fn two_flows_share_fairly() {
        // Two equal flows on one link: each runs at half speed for the
        // duration, so both finish at 2 ms (plus latency).
        let mut net = one_link(1e9, 0);
        let mut q = Q(EventQueue::new());
        for tag in 0..2 {
            net.start_flow(
                Time::ZERO,
                FlowSpec {
                    path: Path::new(&[LinkId(0)]),
                    bytes: 1_000_000,
                    tag,
                },
                &mut q,
            );
        }
        let deliveries = drive_until_delivery(&mut net, &mut q);
        assert_eq!(deliveries.len(), 2);
        for (t, _) in deliveries {
            assert!(t.as_nanos().abs_diff(2_000_000) <= 2);
        }
    }

    #[test]
    fn three_flows_get_third_bandwidth() {
        // The §4.1 congestion claim: three concurrent flows on one PCIe
        // direction each see one third of the bandwidth.
        let mut net = one_link(9e9, 0);
        let mut q = Q(EventQueue::new());
        for tag in 0..3 {
            net.start_flow(
                Time::ZERO,
                FlowSpec {
                    path: Path::new(&[LinkId(0)]),
                    bytes: 3_000_000,
                    tag,
                },
                &mut q,
            );
        }
        let deliveries = drive_until_delivery(&mut net, &mut q);
        // 3 MB at 3 GB/s = 1 ms each.
        for (t, _) in &deliveries {
            assert!(t.as_nanos().abs_diff(1_000_000) <= 2);
        }
    }

    #[test]
    fn late_second_flow_speeds_up_after_first_drains() {
        let mut net = one_link(1e9, 0);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 0,
            },
            &mut q,
        );
        let d = drive_until_delivery(&mut net, &mut q);
        assert_eq!(d[0].0.as_nanos(), 1_000_000);
        net.start_flow(
            Time(1_000_000),
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 1,
            },
            &mut q,
        );
        let d = drive_until_delivery(&mut net, &mut q);
        assert_eq!(d[0].0.as_nanos(), 2_000_000);
    }

    #[test]
    fn preempted_flow_finishes_later() {
        // A (2 MB) starts alone; B (1 MB) joins at 0.5 ms. From then on each
        // gets 0.5 GB/s. B drains after 2 ms shared (at t=2.5ms), after
        // which A runs alone: A drained 0.5 MB by 0.5 ms, another 1 MB
        // while sharing, 0.5 MB left alone at 1 GB/s -> finishes at 3.0 ms.
        let mut net = one_link(1e9, 0);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 2_000_000,
                tag: 0,
            },
            &mut q,
        );
        net.start_flow(
            Time(500_000),
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 1,
            },
            &mut q,
        );
        let deliveries = drive_until_delivery(&mut net, &mut q);
        let t_b = deliveries.iter().find(|(_, d)| d.tag == 1).unwrap().0;
        let t_a = deliveries.iter().find(|(_, d)| d.tag == 0).unwrap().0;
        assert!(t_b.as_nanos().abs_diff(2_500_000) <= 2, "B at {t_b:?}");
        assert!(t_a.as_nanos().abs_diff(3_000_000) <= 4, "A at {t_a:?}");
    }

    #[test]
    fn equal_share_on_shared_bottleneck() {
        // Links: L0 cap 1.0, L1 cap 3.0 (GB/s). Flow A on [L0], flow B on
        // [L0, L1], flow C on [L1]. Equal-share: A and B get 0.5 each on
        // L0; C gets min(3.0 / 2) = 1.5 on L1 (the equal-share model does
        // not redistribute B's unused L1 share — see module docs).
        let mk = |cap| Link {
            class: crate::links::LinkClass::Backbone,
            capacity: cap,
            latency: Duration::ZERO,
        };
        let mut net = Network::new(vec![mk(1e9), mk(3e9)]);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 500_000,
                tag: 0,
            },
            &mut q,
        );
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0), LinkId(1)]),
                bytes: 500_000,
                tag: 1,
            },
            &mut q,
        );
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(1)]),
                bytes: 1_500_000,
                tag: 2,
            },
            &mut q,
        );
        let deliveries = drive_until_delivery(&mut net, &mut q);
        // A and B: 0.5 MB at 0.5 GB/s = 1 ms. C: 1.5 MB at 1.5 GB/s = 1 ms.
        for (t, d) in &deliveries {
            assert!(
                t.as_nanos().abs_diff(1_000_000) <= 2,
                "flow {} at {t:?}",
                d.tag
            );
        }
    }

    #[test]
    fn zero_byte_flow_is_latency_only() {
        let mut net = one_link(1e9, 2_000);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 0,
                tag: 9,
            },
            &mut q,
        );
        let d = drive_until_delivery(&mut net, &mut q);
        assert_eq!(d[0].0.as_nanos(), 2_000);
    }

    #[test]
    fn empty_path_delivers_immediately() {
        let mut net = one_link(1e9, 2_000);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time(5),
            FlowSpec {
                path: Path::EMPTY,
                bytes: 123,
                tag: 4,
            },
            &mut q,
        );
        let d = drive_until_delivery(&mut net, &mut q);
        assert_eq!(d[0].0, Time(5));
        assert_eq!(d[0].1.bytes, 123);
    }

    #[test]
    fn determinism_two_identical_runs() {
        let run = || {
            let mut net = one_link(7e8, 300);
            let mut q = Q(EventQueue::new());
            for tag in 0..20 {
                net.start_flow(
                    Time(tag * 10_000),
                    FlowSpec {
                        path: Path::new(&[LinkId(0)]),
                        bytes: 100_000 + tag * 7_777,
                        tag,
                    },
                    &mut q,
                );
            }
            drive_until_delivery(&mut net, &mut q)
                .into_iter()
                .map(|(t, d)| (t.as_nanos(), d.tag))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn share_cache_and_slot_map_survive_churn() {
        // Overlapping paths over a small fabric, staggered starts, drains
        // interleaved with joins: after every event the cached shares must
        // equal the from-scratch formula and the slot map must be
        // consistent both ways.
        let mk = |cap| Link {
            class: crate::links::LinkClass::Backbone,
            capacity: cap,
            latency: Duration::from_nanos(100),
        };
        let mut net = Network::new(vec![mk(1e9), mk(2e9), mk(4e9), mk(8e9)]);
        let mut q = Q(EventQueue::new());
        let paths = [
            Path::new(&[LinkId(0)]),
            Path::new(&[LinkId(0), LinkId(1)]),
            Path::new(&[LinkId(1), LinkId(2)]),
            Path::new(&[LinkId(2), LinkId(3)]),
            Path::new(&[LinkId(0), LinkId(2), LinkId(3)]),
        ];
        let mut tag = 0u64;
        let mut seed = 1u64;
        for wave in 0..40u64 {
            let wave_start = Time(wave * 20_000);
            // Process everything due before this wave so joins and leaves
            // overlap without time running backwards.
            while q.0.peek_time().is_some_and(|t| t <= wave_start) {
                let (t, fid) = q.0.pop().unwrap();
                net.handle_event(t, fid, &mut q);
                net.check_share_cache();
                net.check_slots();
            }
            for (i, p) in paths.iter().enumerate() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let bytes = 10_000 + (seed >> 48);
                net.start_flow(
                    wave_start + Duration::from_nanos(i as u64),
                    FlowSpec {
                        path: *p,
                        bytes,
                        tag,
                    },
                    &mut q,
                );
                tag += 1;
                net.check_share_cache();
                net.check_slots();
            }
        }
        while let Some((t, fid)) = q.0.pop() {
            net.handle_event(t, fid, &mut q);
            net.check_share_cache();
            net.check_slots();
        }
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.injected_bytes(), net.delivered_bytes());
    }

    #[test]
    fn doomed_flow_consumes_bandwidth_but_never_arrives() {
        // A doomed flow shares the link like any other (the honest model of
        // a transfer corrupted in flight), then reports Dropped.
        let mut net = one_link(1e9, 0);
        let mut q = Q(EventQueue::new());
        net.start_flow_doomed(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 0,
            },
            true,
            &mut q,
        );
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 1,
            },
            &mut q,
        );
        let mut dropped = Vec::new();
        let mut delivered = Vec::new();
        while let Some((t, fid)) = q.0.pop() {
            match net.handle_event(t, fid, &mut q) {
                NetStep::Dropped(d) => dropped.push((t, d)),
                NetStep::Delivered(d) => delivered.push((t, d)),
                _ => {}
            }
        }
        assert_eq!(dropped.len(), 1);
        assert_eq!(delivered.len(), 1);
        assert_eq!(dropped[0].1.tag, 0);
        // Both flows shared the link: each finishes around 2 ms.
        assert!(dropped[0].0.as_nanos().abs_diff(2_000_000) <= 2);
        assert!(delivered[0].0.as_nanos().abs_diff(2_000_000) <= 2);
        assert_eq!(net.dropped_bytes(), 1_000_000);
        assert_eq!(net.delivered_bytes(), 1_000_000);
        assert_eq!(
            net.injected_bytes(),
            net.delivered_bytes() + net.dropped_bytes()
        );
    }

    #[test]
    fn scale_link_rerates_inflight_flows() {
        // One flow alone at 1 GB/s; halfway through, the link degrades to
        // 10%: 1 MB total = 0.5 ms at full speed + 5 ms for the rest.
        let mut net = one_link(1e9, 0);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 0,
            },
            &mut q,
        );
        // Drive events up to the degradation instant.
        while q.0.peek_time().is_some_and(|t| t <= Time(500_000)) {
            let (t, fid) = q.0.pop().unwrap();
            net.handle_event(t, fid, &mut q);
        }
        net.scale_link(Time(500_000), 0, 0.1, 1.0, &mut q);
        net.check_share_cache();
        let d = drive_until_delivery(&mut net, &mut q);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].0.as_nanos().abs_diff(5_500_000) <= 4,
            "degraded delivery at {:?}",
            d[0].0
        );
        // Restoring uses base values, not compounded ones.
        net.scale_link(Time(6_000_000), 0, 1.0, 1.0, &mut q);
        assert_eq!(net.links()[0].capacity, 1e9);
    }

    #[test]
    fn estimate_transfer_matches_hockney() {
        let net = one_link(1e9, 1_000);
        let p = Path::new(&[LinkId(0)]);
        assert_eq!(net.estimate_transfer(&p, 0), Duration::from_nanos(1_000));
        assert_eq!(
            net.estimate_transfer(&p, 1_000_000),
            Duration::from_nanos(1_001_000)
        );
        assert_eq!(net.estimate_transfer(&Path::EMPTY, 123), Duration::ZERO);
    }

    #[test]
    fn disjoint_links_do_not_interact() {
        // A flow joining link 1 must not reschedule flows on link 0.
        let mk = |cap| Link {
            class: crate::links::LinkClass::Backbone,
            capacity: cap,
            latency: Duration::ZERO,
        };
        let mut net = Network::new(vec![mk(1e9), mk(1e9)]);
        let mut q = Q(EventQueue::new());
        net.start_flow(
            Time::ZERO,
            FlowSpec {
                path: Path::new(&[LinkId(0)]),
                bytes: 1_000_000,
                tag: 0,
            },
            &mut q,
        );
        net.start_flow(
            Time(100),
            FlowSpec {
                path: Path::new(&[LinkId(1)]),
                bytes: 1_000_000,
                tag: 1,
            },
            &mut q,
        );
        let deliveries = drive_until_delivery(&mut net, &mut q);
        let t0 = deliveries.iter().find(|(_, d)| d.tag == 0).unwrap().0;
        let t1 = deliveries.iter().find(|(_, d)| d.tag == 1).unwrap().0;
        assert_eq!(t0.as_nanos(), 1_000_000);
        assert_eq!(t1.as_nanos(), 1_000_100);
    }
}
