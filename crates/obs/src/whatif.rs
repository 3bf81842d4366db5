//! Counterfactual prediction: replay a recording under a virtual
//! intervention and predict the resulting schedule.
//!
//! The engine reconstructs the full causal event graph from an
//! [`ObsData`] recording — which dispatch launched which flow, which
//! delivery woke which handler, what each handler cost in *pure* CPU
//! work (recorded durations minus recorded preemption windows) — and
//! then re-executes that graph with the same event-queue discipline the
//! simulator uses, against a real [`Network`] rebuilt from the recorded
//! link parameters and per-rank preemption [`Schedule`]s rebuilt from
//! the recorded noise/stall windows. An [`Intervention`] perturbs the
//! inputs (drop a rank's noise, rescale a link, Coz-style virtual
//! speedup of one layer) and the replay recomputes every completion
//! time downstream.
//!
//! ## Exactness contract
//!
//! The replay is *structure-preserving*: message matching outcomes
//! (posted vs unexpected) and handler triggering are taken from the
//! recording, while all timing is recomputed. Consequences:
//!
//! * A no-op intervention reproduces the recorded schedule **exactly**
//!   (bit-equal per-rank finish times) — asserted in tests and CI.
//! * An intervention that is expressible as a real simulator
//!   configuration (noise off, link rescale, stall removal) predicts
//!   the re-run exactly as long as it does not flip a matching race
//!   (an arrival overtaking its receive posting, or vice versa) or
//!   reorder two same-instant events. When a race does flip, the
//!   prediction degrades gracefully: the error is bounded by the cost
//!   difference of the flipped protocol path (one unexpected-copy /
//!   CTS handshake), not by the makespan.
//! * Recordings that contain dropped or retransmitted flows are
//!   refused — loss recovery re-randomizes (RTO jitter), so no
//!   counterfactual replay of it can be validated. Degradation-window
//!   plans are likewise out of scope (the windows are not recorded).
//!
//! Virtual-speedup interventions ([`Intervention::ScaleLayer`]) have no
//! real-config equivalent; they answer Coz-style questions ("how much
//! faster would the run be if all `Matching` work cost 20% less?") and
//! are validated indirectly through the no-op and real-config cases.

use std::collections::HashMap;
use std::collections::VecDeque;

use adapt_faults::Schedule;
use adapt_net::{FlowId, FlowScheduler, FlowSpec, Link, LinkClass, LinkId, NetStep, Network, Path};
use adapt_sim::queue::{EventKey, EventQueue};
use adapt_sim::time::{Duration, Time};

use crate::critical::Layer;
use crate::record::{FlowClass, ObsData, ProtoKind, Trigger};

/// A virtual change to apply to a recorded run.
#[derive(Clone, Debug, PartialEq)]
pub enum Intervention {
    /// Change nothing (must predict the recording exactly).
    Noop,
    /// Remove every rank's OS-noise windows (`--noise 0`).
    NoiseOff,
    /// Remove one rank's OS-noise windows.
    RankNoiseOff(u32),
    /// Remove every injected stall window from the fault plan.
    StallsOff,
    /// Rescale every link whose label starts with `pattern` by a
    /// *speedup* factor: capacity × `factor`, latency ÷ `factor`.
    ScaleLink {
        /// Link-label prefix (e.g. `NicTx`, `Backbone`, `NicTx(3)`).
        pattern: String,
        /// Speedup (> 1 is faster, < 1 slower). Must be positive.
        factor: f64,
    },
    /// Coz-style virtual speedup: multiply every duration charged to
    /// `layer` by `factor` (< 1 is faster). `Layer::Blocked` is derived
    /// waiting time and cannot be scaled.
    ScaleLayer {
        /// The layer whose costs are scaled.
        layer: Layer,
        /// Duration multiplier (0.8 = "20% virtual speedup").
        factor: f64,
    },
}

impl Intervention {
    /// Parse an intervention spec string:
    ///
    /// * `noop`
    /// * `noise-off`
    /// * `rank-noise-off=R`
    /// * `stalls-off`
    /// * `scale-link=PATTERN:FACTOR` (speedup: cap ×F, lat ÷F)
    /// * `scale-layer=LAYER:FACTOR` (duration multiplier)
    /// * `speedup=LAYER:PERCENT` (sugar for `scale-layer=LAYER:1-P/100`)
    pub fn parse(spec: &str) -> Result<Intervention, String> {
        let spec = spec.trim();
        if let Some((key, val)) = spec.split_once('=') {
            return match key {
                "rank-noise-off" => {
                    let r: u32 = val.parse().map_err(|_| format!("bad rank in {spec:?}"))?;
                    Ok(Intervention::RankNoiseOff(r))
                }
                "scale-link" => {
                    let (pat, f) = val
                        .split_once(':')
                        .ok_or_else(|| format!("{spec:?}: want scale-link=PATTERN:FACTOR"))?;
                    let factor: f64 = f.parse().map_err(|_| format!("bad factor in {spec:?}"))?;
                    if !factor.is_finite() || factor <= 0.0 {
                        return Err(format!("{spec:?}: factor must be positive"));
                    }
                    Ok(Intervention::ScaleLink {
                        pattern: pat.to_string(),
                        factor,
                    })
                }
                "scale-layer" => {
                    let (l, f) = val
                        .split_once(':')
                        .ok_or_else(|| format!("{spec:?}: want scale-layer=LAYER:FACTOR"))?;
                    let layer = parse_layer(l)?;
                    let factor: f64 = f.parse().map_err(|_| format!("bad factor in {spec:?}"))?;
                    if !factor.is_finite() || factor < 0.0 {
                        return Err(format!("{spec:?}: factor must be non-negative"));
                    }
                    Ok(Intervention::ScaleLayer { layer, factor })
                }
                "speedup" => {
                    let (l, p) = val
                        .split_once(':')
                        .ok_or_else(|| format!("{spec:?}: want speedup=LAYER:PERCENT"))?;
                    let layer = parse_layer(l)?;
                    let pct: f64 = p.parse().map_err(|_| format!("bad percent in {spec:?}"))?;
                    if !(0.0..=100.0).contains(&pct) {
                        return Err(format!("{spec:?}: percent must be in 0..=100"));
                    }
                    Ok(Intervention::ScaleLayer {
                        layer,
                        factor: 1.0 - pct / 100.0,
                    })
                }
                _ => Err(format!("unknown intervention {spec:?}")),
            };
        }
        match spec {
            "noop" => Ok(Intervention::Noop),
            "noise-off" => Ok(Intervention::NoiseOff),
            "stalls-off" => Ok(Intervention::StallsOff),
            _ => Err(format!("unknown intervention {spec:?}")),
        }
    }

    /// Human-readable description for reports.
    pub fn describe(&self) -> String {
        match self {
            Intervention::Noop => "no-op (replay the recording unchanged)".into(),
            Intervention::NoiseOff => "remove all OS-noise windows".into(),
            Intervention::RankNoiseOff(r) => format!("remove rank {r}'s OS-noise windows"),
            Intervention::StallsOff => "remove all injected stall windows".into(),
            Intervention::ScaleLink { pattern, factor } => {
                format!("links '{pattern}*': capacity x{factor}, latency /{factor}")
            }
            Intervention::ScaleLayer { layer, factor } => {
                format!("scale {} durations x{factor}", layer.label())
            }
        }
    }
}

/// Parse a [`Layer`] from its lowercase label.
pub fn parse_layer(s: &str) -> Result<Layer, String> {
    crate::critical::LAYERS
        .iter()
        .copied()
        .find(|l| l.label() == s)
        .ok_or_else(|| format!("unknown layer {s:?}"))
}

/// What the replay predicts for an intervened run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The recording's makespan (ns).
    pub baseline_ns: u64,
    /// Predicted makespan under the intervention (ns).
    pub predicted_ns: u64,
    /// Predicted per-rank finish times (ns).
    pub per_rank_finish_ns: Vec<u64>,
}

impl Prediction {
    /// Predicted − baseline, negative for a speedup.
    pub fn delta_ns(&self) -> i64 {
        self.predicted_ns as i64 - self.baseline_ns as i64
    }

    /// Baseline / predicted (> 1 means the intervention helps).
    pub fn speedup(&self) -> f64 {
        if self.predicted_ns == 0 {
            1.0
        } else {
            self.baseline_ns as f64 / self.predicted_ns as f64
        }
    }
}

// ---------------------------------------------------------------------
// Causal-graph reconstruction
// ---------------------------------------------------------------------

/// Handler-trigger identity: mirrors [`Trigger`] as a map key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TrigKey {
    Start,
    SendDone(u64),
    RecvDone(u64),
    ComputeDone(u64),
    CopyDone(u64),
    GpuDone(u64),
}

impl From<Trigger> for TrigKey {
    fn from(t: Trigger) -> TrigKey {
        match t {
            Trigger::Start => TrigKey::Start,
            Trigger::SendDone { msg } => TrigKey::SendDone(msg),
            Trigger::RecvDone { msg } => TrigKey::RecvDone(msg),
            Trigger::ComputeDone { token } => TrigKey::ComputeDone(token),
            Trigger::CopyDone { token } => TrigKey::CopyDone(token),
            Trigger::GpuDone { token } => TrigKey::GpuDone(token),
        }
    }
}

/// One side effect of a dispatch, at a pure-work offset from its begin.
#[derive(Clone, Debug)]
enum Act {
    /// Launch recorded flow `fi` into the network.
    Launch(usize),
    /// Zero-byte send completing locally (SendDone to self).
    LocalSendDone(u64),
    /// RecvDone becomes deliverable (posted-match copy-out finished).
    CompleteRecv(u64),
    /// Synchronous compute finished.
    ComputeDone(u64),
    /// GPU-stream enqueue: serialized on the rank's stream, runs `dur`.
    Gpu { token: u64, dur: Duration },
    /// The rank's program called finish.
    Finish,
    /// Pure scaling anchor (a cost boundary with no side effect).
    Mark,
}

/// A dispatch with its side effects at layer-scaled pure-work offsets.
#[derive(Clone, Debug, Default)]
struct DispatchPlan {
    /// `(pure offset from begin, act)`, sorted by offset.
    acts: Vec<(Duration, Act)>,
    /// Pure cost of the whole handler (busy horizon advance).
    end_off: Duration,
}

/// Replay event. Mirrors the simulator's `Ev` one-to-one so the event
/// interleaving (and the queue's `(time, seq)` total order) matches the
/// original run's.
enum REv {
    /// Network engine step for a live flow.
    Net(FlowId),
    /// A protocol/data arrival at its destination rank (recorded flow
    /// index): Eager/Rts/Cts/Rndv handling.
    Arrive(usize),
    /// A completion delivery waking a handler.
    Deliver { rank: u32, key: TrigKey },
    /// Start recorded flow `fi` now.
    Launch(usize),
}

struct QSched<'a>(&'a mut EventQueue<REv>);

impl FlowScheduler for QSched<'_> {
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
        self.0.schedule(at, REv::Net(flow))
    }
    fn cancel(&mut self, key: EventKey) {
        self.0.cancel(key);
    }
}

/// Per-layer duration multipliers (identity unless `ScaleLayer`).
#[derive(Clone, Copy, Debug)]
struct Factors {
    callback: f64,
    protocol: f64,
    matching: f64,
    compute: f64,
    gpu: f64,
    copy: f64,
    network: f64,
}

impl Factors {
    fn identity() -> Factors {
        Factors {
            callback: 1.0,
            protocol: 1.0,
            matching: 1.0,
            compute: 1.0,
            gpu: 1.0,
            copy: 1.0,
            network: 1.0,
        }
    }
}

fn scale_dur(d: Duration, f: f64) -> Duration {
    if f == 1.0 {
        d
    } else {
        Duration::from_nanos((d.as_nanos() as f64 * f).round() as u64)
    }
}

/// Predict the schedule of `data`'s run under `iv`.
///
/// See the module docs for the exactness contract. Returns an error for
/// recordings the replay cannot be faithful to: pre-what-if recordings
/// (no link parameters / windows), runs with dropped or retransmitted
/// flows, or a structural divergence during replay.
pub fn predict(data: &ObsData, iv: &Intervention) -> Result<Prediction, String> {
    Replay::build(data, iv)?.run()
}

struct Replay<'a> {
    data: &'a ObsData,
    nranks: usize,
    /// Intervened per-rank preemption schedule (noise ∪ stalls, minus
    /// whatever the intervention removed).
    sched: Vec<Schedule>,
    plans: Vec<DispatchPlan>,
    /// `(rank, trigger) → dispatch indices`, in recorded order.
    fifo: HashMap<(u32, TrigKey), VecDeque<usize>>,
    /// Scaled pure durations of protocol spans, keyed by message and
    /// kind (0 = CtsSend, 1 = DataLaunch, 2 = Unexpected).
    proto: HashMap<(u64, u8), Duration>,
    /// Per-message flow indices by class.
    cts_flow: HashMap<u64, usize>,
    rndv_flow: HashMap<u64, usize>,
    net: Network,
    factors: Factors,
}

impl<'a> Replay<'a> {
    fn build(data: &'a ObsData, iv: &Intervention) -> Result<Replay<'a>, String> {
        let nranks = data.nranks as usize;
        if nranks == 0 || data.dispatches.is_empty() {
            return Err("empty recording".into());
        }
        if data.link_caps.len() != data.link_labels.len() || data.link_caps.is_empty() {
            return Err("recording lacks link parameters (made before the what-if engine?)".into());
        }
        if data.noise_windows.len() != nranks || data.stall_windows.len() != nranks {
            return Err("recording lacks per-rank preemption windows".into());
        }
        let dropped: u32 = data.msgs.iter().map(|m| m.drops).sum();
        let retrans: u32 = data.msgs.iter().map(|m| m.retransmits).sum();
        if dropped > 0 || retrans > 0 {
            return Err(format!(
                "recording contains loss recovery ({dropped} drops, {retrans} retransmits); \
                 counterfactual replay is not defined for re-randomized recovery"
            ));
        }

        let mut factors = Factors::identity();
        if let Intervention::ScaleLayer { layer, factor } = iv {
            match layer {
                Layer::Callback => factors.callback = *factor,
                Layer::Protocol => factors.protocol = *factor,
                Layer::Matching => factors.matching = *factor,
                Layer::Compute => factors.compute = *factor,
                Layer::Gpu => factors.gpu = *factor,
                Layer::Copy => factors.copy = *factor,
                Layer::Network => factors.network = *factor,
                Layer::Blocked => {
                    return Err("blocked time is derived waiting; it cannot be scaled".into())
                }
            }
        }

        // Recorded (ground-truth) preemption schedules: the union of
        // noise and stall windows reproduces the simulator's composed
        // defer/finish-work arithmetic exactly. Used to strip recorded
        // timestamps down to pure work.
        let to_sched = |wins: &[(u64, u64)]| -> Vec<(Time, Time)> {
            wins.iter().map(|&(s, e)| (Time(s), Time(e))).collect()
        };
        let mut rec_sched = Vec::with_capacity(nranks);
        let mut sched = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let noise = to_sched(&data.noise_windows[r]);
            let stalls = to_sched(&data.stall_windows[r]);
            let mut both = noise.clone();
            both.extend_from_slice(&stalls);
            rec_sched.push(Schedule::new(both));
            let kept: Vec<(Time, Time)> = match iv {
                Intervention::NoiseOff => stalls,
                Intervention::RankNoiseOff(rr) if *rr as usize == r => stalls,
                Intervention::StallsOff => noise,
                _ => {
                    sched.push(rec_sched[r].clone());
                    continue;
                }
            };
            sched.push(Schedule::new(kept));
        }

        // The network, rebuilt from recorded pristine parameters (the
        // class is diagnostics-only in the flow engine, so a placeholder
        // is fine — interventions select links by recorded label).
        let mut links = Vec::with_capacity(data.link_caps.len());
        for i in 0..data.link_caps.len() {
            let mut cap = data.link_caps[i];
            let mut lat = data.link_lat_ns[i] as f64;
            if let Intervention::ScaleLink { pattern, factor } = iv {
                if data.link_labels[i].starts_with(pattern.as_str()) {
                    cap *= factor;
                    lat /= factor;
                }
            }
            if factors.network != 1.0 {
                cap /= factors.network;
                lat *= factors.network;
            }
            links.push(Link {
                class: LinkClass::Backbone,
                capacity: cap,
                latency: Duration::from_nanos(lat.round() as u64),
            });
        }
        if let Intervention::ScaleLink { pattern, .. } = iv {
            if !data
                .link_labels
                .iter()
                .any(|l| l.starts_with(pattern.as_str()))
            {
                return Err(format!("no link label starts with {pattern:?}"));
            }
        }
        let net = Network::new(links);

        // Per-message flow indices. Duplicates mean retransmission.
        let mut eager_flow = HashMap::new();
        let mut rts_flow = HashMap::new();
        let mut cts_flow = HashMap::new();
        let mut rndv_flow = HashMap::new();
        for (fi, f) in data.flows.iter().enumerate() {
            let map = match f.class {
                FlowClass::Eager => &mut eager_flow,
                FlowClass::Rts => &mut rts_flow,
                FlowClass::Cts => &mut cts_flow,
                FlowClass::Rndv => &mut rndv_flow,
                FlowClass::Copy | FlowClass::Ack => continue,
            };
            let m = f.msg.ok_or("protocol flow without a message")?;
            if map.insert(m, fi).is_some() {
                return Err(format!(
                    "message {m} has duplicate {} flows (retransmission?)",
                    f.class.label()
                ));
            }
        }

        // Scaled pure protocol-span durations.
        let mut proto = HashMap::new();
        for p in &data.protocols {
            let pure = rec_sched[p.rank as usize].work_in(Time(p.begin_ns), Time(p.end_ns));
            let (k, f) = match p.kind {
                ProtoKind::CtsSend => (0u8, factors.protocol),
                ProtoKind::DataLaunch => (1, factors.protocol),
                ProtoKind::Unexpected => (2, factors.protocol),
            };
            proto.insert((p.msg, k), scale_dur(pure, f));
        }

        // --- Rebuild per-dispatch action lists -------------------------
        // Dispatches are serialized per rank (next begin ≥ previous end)
        // and every anchored side effect lands at finish_work(begin, c)
        // with cost c > 0, i.e. strictly inside (begin, end]. Assignment
        // by binary search over the rank's dispatch list is therefore
        // unambiguous.
        let mut by_rank: Vec<Vec<usize>> = vec![Vec::new(); nranks];
        for (di, d) in data.dispatches.iter().enumerate() {
            by_rank[d.rank as usize].push(di);
        }
        for list in &mut by_rank {
            list.sort_by_key(|&di| data.dispatches[di].begin_ns);
        }
        let assign = |rank: u32, t_ns: u64| -> Result<usize, String> {
            let list = &by_rank[rank as usize];
            // Last dispatch with begin < t.
            let i = list.partition_point(|&di| data.dispatches[di].begin_ns < t_ns);
            if i == 0 {
                return Err(format!("no dispatch on rank {rank} contains t={t_ns}ns"));
            }
            let di = list[i - 1];
            if t_ns > data.dispatches[di].end_ns {
                return Err(format!(
                    "t={t_ns}ns on rank {rank} falls between dispatches"
                ));
            }
            Ok(di)
        };

        // Raw (unscaled) actions per dispatch, with the layer the cost
        // delta leading to each anchor belongs to.
        #[derive(Clone, Copy, PartialEq)]
        enum DeltaLayer {
            Callback,
            Protocol,
            Matching,
            Compute,
        }
        let mut raw: Vec<Vec<(u64, u32, DeltaLayer, Act)>> =
            vec![Vec::new(); data.dispatches.len()];
        let mut push = |di: usize, t_ns: u64, seq: u32, dl: DeltaLayer, act: Act| {
            raw[di].push((t_ns, seq, dl, act));
        };

        for (mi, m) in data.msgs.iter().enumerate() {
            let m_id = mi as u64;
            // The send side.
            let posted = m
                .posted_ns
                .ok_or_else(|| format!("message {m_id} has no posting time"))?;
            let di = assign(m.src, posted)?;
            if m.eager {
                let fi = *eager_flow
                    .get(&m_id)
                    .ok_or_else(|| format!("message {m_id}: eager flow missing"))?;
                push(di, posted, 0, DeltaLayer::Callback, Act::Launch(fi));
                if m.bytes == 0 {
                    push(
                        di,
                        posted,
                        1,
                        DeltaLayer::Callback,
                        Act::LocalSendDone(m_id),
                    );
                }
            } else {
                let fi = *rts_flow
                    .get(&m_id)
                    .ok_or_else(|| format!("message {m_id}: RTS flow missing"))?;
                push(di, posted, 0, DeltaLayer::Callback, Act::Launch(fi));
            }
            // The receive side.
            if let Some(rp) = m.recv_posted_ns {
                let di = assign(m.dst, rp)?;
                push(di, rp, 0, DeltaLayer::Callback, Act::Mark);
                if m.unexpected && m.eager {
                    // Unexpected-queue copy-out; RecvDone at its end.
                    let ready = m.recv_ready_ns.ok_or_else(|| {
                        format!("message {m_id}: unexpected eager without recv_ready")
                    })?;
                    push(di, ready, 1, DeltaLayer::Matching, Act::CompleteRecv(m_id));
                } else if m.unexpected {
                    // Pending-RTS match: CTS handshake runs inside the
                    // posting dispatch.
                    let cts = m.cts_launch_ns.ok_or_else(|| {
                        format!("message {m_id}: unexpected rendezvous without CTS launch")
                    })?;
                    let fi = *cts_flow
                        .get(&m_id)
                        .ok_or_else(|| format!("message {m_id}: CTS flow missing"))?;
                    push(di, cts, 1, DeltaLayer::Protocol, Act::Launch(fi));
                }
            }
        }
        for c in &data.computes {
            if c.gpu {
                // The stream-enqueue instant is not recorded; anchoring
                // at the recorded start is exact whenever the stream was
                // idle (the common case) and an approximation otherwise.
                let di = assign_gpu(&by_rank, data, c.rank, c.begin_ns)?;
                let dur = scale_dur(Duration::from_nanos(c.end_ns - c.begin_ns), factors.gpu);
                push(
                    di,
                    c.begin_ns.min(data.dispatches[di].end_ns),
                    0,
                    DeltaLayer::Callback,
                    Act::Gpu {
                        token: c.token,
                        dur,
                    },
                );
            } else {
                let di = assign(c.rank, c.begin_ns)?;
                push(di, c.begin_ns, 0, DeltaLayer::Callback, Act::Mark);
                push(
                    di,
                    c.end_ns,
                    1,
                    DeltaLayer::Compute,
                    Act::ComputeDone(c.token),
                );
            }
        }
        for (fi, f) in data.flows.iter().enumerate() {
            if f.class == FlowClass::Copy {
                let di = assign(f.rank, f.launch_ns)?;
                push(di, f.launch_ns, 0, DeltaLayer::Callback, Act::Launch(fi));
            }
        }
        if data.per_rank_finish_ns.len() != nranks {
            return Err("recording lacks per-rank finish times".into());
        }
        for (r, &f) in data.per_rank_finish_ns.iter().enumerate() {
            let di = assign(r as u32, f)?;
            push(di, f, 0, DeltaLayer::Callback, Act::Finish);
        }

        // Convert anchors to layer-scaled pure offsets from each
        // dispatch begin. Pure deltas between consecutive anchors are
        // scaled by the layer that caused the delta, then re-accumulated.
        let mut plans = Vec::with_capacity(data.dispatches.len());
        for (di, d) in data.dispatches.iter().enumerate() {
            let rs = &rec_sched[d.rank as usize];
            let begin = Time(d.begin_ns);
            let mut items = std::mem::take(&mut raw[di]);
            items.sort_by_key(|&(t, seq, _, _)| (t, seq));
            let mut acts = Vec::with_capacity(items.len());
            let mut prev_pure = Duration::ZERO;
            let mut prev_scaled = Duration::ZERO;
            for (t_ns, _, dl, act) in items {
                let pure = rs.work_in(begin, Time(t_ns));
                let delta =
                    Duration::from_nanos(pure.as_nanos().saturating_sub(prev_pure.as_nanos()));
                let f = match dl {
                    DeltaLayer::Callback => factors.callback,
                    DeltaLayer::Protocol => factors.protocol,
                    DeltaLayer::Matching => factors.matching,
                    DeltaLayer::Compute => factors.compute,
                };
                let scaled = prev_scaled + scale_dur(delta, f);
                prev_pure = prev_pure.max(pure);
                prev_scaled = scaled;
                acts.push((scaled, act));
            }
            let total = rs.work_in(begin, Time(d.end_ns));
            let tail = Duration::from_nanos(total.as_nanos().saturating_sub(prev_pure.as_nanos()));
            let end_off = prev_scaled + scale_dur(tail, factors.callback);
            plans.push(DispatchPlan { acts, end_off });
        }

        let mut fifo: HashMap<(u32, TrigKey), VecDeque<usize>> = HashMap::new();
        for (di, d) in data.dispatches.iter().enumerate() {
            fifo.entry((d.rank, d.trigger.into()))
                .or_default()
                .push_back(di);
        }

        Ok(Replay {
            data,
            nranks,
            sched,
            plans,
            fifo,
            proto,
            cts_flow,
            rndv_flow,
            net,
            factors,
        })
    }

    fn run(mut self) -> Result<Prediction, String> {
        let data = self.data;
        let mut q: EventQueue<REv> = EventQueue::new();
        let mut busy = vec![Time::ZERO; self.nranks];
        let mut gpu_busy = vec![Time::ZERO; self.nranks];
        let mut finished: Vec<Option<Time>> = vec![None; self.nranks];
        let mut finished_count = 0usize;
        // Network slab slot → recorded flow index.
        let mut net2rec: Vec<usize> = Vec::new();

        for r in 0..self.nranks {
            q.schedule(
                Time::ZERO,
                REv::Deliver {
                    rank: r as u32,
                    key: TrigKey::Start,
                },
            );
        }

        let cpu_ready = |sched: &[Schedule], busy: &[Time], rank: usize, t: Time| -> Time {
            sched[rank].defer(t.max(busy[rank]))
        };

        // Generous cap: structural divergence must not hang the caller.
        let max_events = 64 * (data.dispatches.len() + data.flows.len() + 16) as u64;
        let mut events = 0u64;
        while let Some((t, ev)) = q.pop() {
            events += 1;
            if events > max_events {
                return Err("replay exceeded its event budget (structural divergence?)".into());
            }
            match ev {
                REv::Net(fid) => {
                    let mut sched = QSched(&mut q);
                    let step = self.net.handle_event(t, fid, &mut sched);
                    match step {
                        NetStep::Progress => {}
                        NetStep::Drained { flow, .. } => {
                            let fi = net2rec[flow.0 as usize];
                            let f = &data.flows[fi];
                            if matches!(f.class, FlowClass::Eager | FlowClass::Rndv) {
                                let m = f.msg.expect("data flow has a message");
                                q.schedule(
                                    t,
                                    REv::Deliver {
                                        rank: data.msgs[m as usize].src,
                                        key: TrigKey::SendDone(m),
                                    },
                                );
                            }
                        }
                        NetStep::Delivered(d) => {
                            let fi = net2rec[d.flow.0 as usize];
                            let f = &data.flows[fi];
                            let ev = match f.class {
                                FlowClass::Copy => REv::Deliver {
                                    rank: f.rank,
                                    key: TrigKey::CopyDone(f.token),
                                },
                                _ => REv::Arrive(fi),
                            };
                            q.schedule(t, ev);
                        }
                        NetStep::Dropped(_) => return Err("replayed network dropped a flow".into()),
                    }
                }
                REv::Launch(fi) => {
                    let f = &data.flows[fi];
                    let links: Vec<LinkId> = f.links.iter().map(|&l| LinkId(l)).collect();
                    let bytes = if f.class == FlowClass::Copy {
                        scale_dur(Duration::from_nanos(f.bytes), self.factors.copy).as_nanos()
                    } else {
                        f.bytes
                    };
                    let mut sched = QSched(&mut q);
                    let fid = self.net.start_flow(
                        t,
                        FlowSpec {
                            path: Path::new(&links),
                            bytes,
                            tag: 0,
                        },
                        &mut sched,
                    );
                    let slot = fid.0 as usize;
                    if net2rec.len() <= slot {
                        net2rec.resize(slot + 1, usize::MAX);
                    }
                    net2rec[slot] = fi;
                }
                REv::Arrive(fi) => {
                    let f = &data.flows[fi];
                    let m = f.msg.expect("protocol flow has a message") as usize;
                    let mr = &data.msgs[m];
                    match f.class {
                        FlowClass::Eager => {
                            let dst = mr.dst as usize;
                            if finished[dst].is_some() {
                                continue;
                            }
                            if mr.unexpected {
                                let e = cpu_ready(&self.sched, &busy, dst, t);
                                let pure = self
                                    .proto
                                    .get(&(m as u64, 2))
                                    .copied()
                                    .unwrap_or(Duration::ZERO);
                                busy[dst] = self.sched[dst].finish_work(e, pure);
                            } else {
                                q.schedule(
                                    t,
                                    REv::Deliver {
                                        rank: mr.dst,
                                        key: TrigKey::RecvDone(m as u64),
                                    },
                                );
                            }
                        }
                        FlowClass::Rts => {
                            let dst = mr.dst as usize;
                            if finished[dst].is_some() {
                                continue;
                            }
                            if mr.unexpected {
                                let e = cpu_ready(&self.sched, &busy, dst, t);
                                let pure = self
                                    .proto
                                    .get(&(m as u64, 2))
                                    .copied()
                                    .unwrap_or(Duration::ZERO);
                                busy[dst] = self.sched[dst].finish_work(e, pure);
                            } else {
                                // Posted match: CTS handshake at cpu_ready.
                                let e = cpu_ready(&self.sched, &busy, dst, t);
                                let pure = self
                                    .proto
                                    .get(&(m as u64, 0))
                                    .copied()
                                    .unwrap_or(Duration::ZERO);
                                let end = self.sched[dst].finish_work(e, pure);
                                busy[dst] = end;
                                let cfi = *self
                                    .cts_flow
                                    .get(&(m as u64))
                                    .ok_or_else(|| format!("message {m}: CTS flow missing"))?;
                                q.schedule(end, REv::Launch(cfi));
                            }
                        }
                        FlowClass::Cts => {
                            let src = mr.src as usize;
                            if finished[src].is_some() {
                                continue;
                            }
                            let ready = cpu_ready(&self.sched, &busy, src, t);
                            if ready > t {
                                q.schedule(ready, REv::Arrive(fi));
                                continue;
                            }
                            let pure = self
                                .proto
                                .get(&(m as u64, 1))
                                .copied()
                                .unwrap_or(Duration::ZERO);
                            let end = self.sched[src].finish_work(t, pure);
                            busy[src] = end;
                            let rfi = *self
                                .rndv_flow
                                .get(&(m as u64))
                                .ok_or_else(|| format!("message {m}: payload flow missing"))?;
                            q.schedule(end, REv::Launch(rfi));
                        }
                        FlowClass::Rndv => {
                            let dst = mr.dst as usize;
                            if finished[dst].is_some() {
                                continue;
                            }
                            q.schedule(
                                t,
                                REv::Deliver {
                                    rank: mr.dst,
                                    key: TrigKey::RecvDone(m as u64),
                                },
                            );
                        }
                        FlowClass::Copy | FlowClass::Ack => {
                            unreachable!("copies/acks never take the arrival path")
                        }
                    }
                }
                REv::Deliver { rank, key } => {
                    let r = rank as usize;
                    if finished[r].is_some() {
                        continue;
                    }
                    let ready = cpu_ready(&self.sched, &busy, r, t);
                    if ready > t {
                        q.schedule(ready, REv::Deliver { rank, key });
                        continue;
                    }
                    let di = self
                        .fifo
                        .get_mut(&(rank, key))
                        .and_then(|f| f.pop_front())
                        .ok_or_else(|| {
                            format!("rank {rank}: no recorded dispatch for {key:?} (divergence)")
                        })?;
                    let plan = &self.plans[di];
                    for (off, act) in &plan.acts {
                        let at = self.sched[r].finish_work(t, *off);
                        let deliver = |key| REv::Deliver { rank, key };
                        match act {
                            Act::Launch(fi) => {
                                q.schedule(at, REv::Launch(*fi));
                            }
                            Act::LocalSendDone(m) => {
                                q.schedule(at, deliver(TrigKey::SendDone(*m)));
                            }
                            Act::CompleteRecv(m) => {
                                q.schedule(at, deliver(TrigKey::RecvDone(*m)));
                            }
                            Act::ComputeDone(tok) => {
                                q.schedule(at, deliver(TrigKey::ComputeDone(*tok)));
                            }
                            Act::Gpu { token, dur } => {
                                let start = gpu_busy[r].max(at);
                                let done = start + *dur;
                                gpu_busy[r] = done;
                                q.schedule(done, deliver(TrigKey::GpuDone(*token)));
                            }
                            Act::Finish => {
                                if finished[r].is_none() {
                                    finished[r] = Some(at);
                                    finished_count += 1;
                                }
                            }
                            Act::Mark => {}
                        }
                    }
                    let end = self.sched[r].finish_work(t, plan.end_off);
                    busy[r] = busy[r].max(end);
                }
            }
            if finished_count == self.nranks {
                break;
            }
        }

        if finished_count != self.nranks {
            return Err(format!(
                "replay deadlocked: {} of {} ranks finished (structural divergence)",
                finished_count, self.nranks
            ));
        }
        let per_rank: Vec<u64> = finished
            .into_iter()
            .map(|f| f.expect("all finished").as_nanos())
            .collect();
        let predicted = per_rank.iter().copied().max().unwrap_or(0);
        Ok(Prediction {
            baseline_ns: data.makespan_ns(),
            predicted_ns: predicted,
            per_rank_finish_ns: per_rank,
        })
    }
}

/// Dispatch assignment for a GPU span: the recorded begin is the stream
/// start (`max(enqueue, stream busy)`), which can postdate the enqueuing
/// dispatch. Fall back to the last dispatch beginning before it.
fn assign_gpu(
    by_rank: &[Vec<usize>],
    data: &ObsData,
    rank: u32,
    begin_ns: u64,
) -> Result<usize, String> {
    let list = &by_rank[rank as usize];
    let i = list.partition_point(|&di| data.dispatches[di].begin_ns < begin_ns);
    if i == 0 {
        return Err(format!("gpu span on rank {rank} precedes every dispatch"));
    }
    Ok(list[i - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(Intervention::parse("noop").unwrap(), Intervention::Noop);
        assert_eq!(
            Intervention::parse("noise-off").unwrap(),
            Intervention::NoiseOff
        );
        assert_eq!(
            Intervention::parse("rank-noise-off=7").unwrap(),
            Intervention::RankNoiseOff(7)
        );
        assert_eq!(
            Intervention::parse("stalls-off").unwrap(),
            Intervention::StallsOff
        );
        assert_eq!(
            Intervention::parse("scale-link=NicTx:2").unwrap(),
            Intervention::ScaleLink {
                pattern: "NicTx".into(),
                factor: 2.0
            }
        );
        match Intervention::parse("speedup=network:20").unwrap() {
            Intervention::ScaleLayer { layer, factor } => {
                assert_eq!(layer, Layer::Network);
                assert!((factor - 0.8).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Intervention::parse("bogus").is_err());
        assert!(Intervention::parse("scale-link=NicTx:-1").is_err());
        assert!(Intervention::parse("speedup=blocked:200").is_err());
    }

    #[test]
    fn refuses_pre_whatif_recordings() {
        let data = ObsData {
            nranks: 2,
            ..ObsData::default()
        };
        assert!(predict(&data, &Intervention::Noop).is_err());
    }

    #[test]
    fn blocked_layer_cannot_be_scaled() {
        let mut data = ObsData {
            nranks: 1,
            link_labels: vec!["Backbone".into()],
            link_caps: vec![1e9],
            link_lat_ns: vec![100],
            noise_windows: vec![vec![]],
            stall_windows: vec![vec![]],
            per_rank_finish_ns: vec![10],
            ..ObsData::default()
        };
        data.dispatches.push(crate::record::DispatchSpan {
            rank: 0,
            begin_ns: 0,
            end_ns: 10,
            trigger: Trigger::Start,
        });
        let err = predict(
            &data,
            &Intervention::ScaleLayer {
                layer: Layer::Blocked,
                factor: 0.5,
            },
        )
        .unwrap_err();
        assert!(err.contains("cannot be scaled"), "{err}");
    }
}
