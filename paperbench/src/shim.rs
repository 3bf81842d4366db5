//! Transparent instruments wrapped around the program's public traits.
//!
//! [`TimedProgram`] forwards every `RankProgram` callback and times it;
//! [`ForwardRecorder`] forwards every `Recorder` probe to an optional
//! inner [`StreamRecorder`], timing it, while counting flows and noise
//! windows and logging the flow starts for the network replay. Neither
//! changes what it forwards, so a traced run simulates exactly what the
//! plain run does.

use adapt_mpi::{Completion, ProgramCtx, RankProgram};
use adapt_net::{LinkId, Path};
use adapt_obs::{
    FlowClass, FlowStart, GaugeMetric, HealthAlert, MsgEvent, ObsData, ObsSummary, ProtoKind,
    Recorder, StreamRecorder, Trigger,
};
use adapt_topology::Rank;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Callback count and host time, shared by every rank's shim of a run.
#[derive(Default)]
pub struct CallbackClock {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl CallbackClock {
    /// Callbacks forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Host nanoseconds spent inside them.
    pub fn nanos(&self) -> u64 {
        self.nanos.get()
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.nanos
            .set(self.nanos.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

/// A `RankProgram` that forwards to `inner` and times each callback.
pub struct TimedProgram {
    inner: Box<dyn RankProgram>,
    clock: Rc<CallbackClock>,
}

impl TimedProgram {
    /// Wrap every program of a run around one shared clock.
    pub fn wrap_all(
        programs: Vec<Box<dyn RankProgram>>,
        clock: &Rc<CallbackClock>,
    ) -> Vec<Box<dyn RankProgram>> {
        programs
            .into_iter()
            .map(|inner| {
                Box::new(TimedProgram {
                    inner,
                    clock: Rc::clone(clock),
                }) as Box<dyn RankProgram>
            })
            .collect()
    }
}

impl RankProgram for TimedProgram {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_start(ctx));
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_completion(ctx, completion));
    }

    fn on_peer_failed(&mut self, ctx: &mut dyn ProgramCtx, dead: &[Rank], active: &[Rank]) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_peer_failed(ctx, dead, active));
    }
}

/// One network-visible step reported through the recorder, in the order
/// the world processed it.
#[derive(Clone, Copy, Debug)]
pub enum FlowRecord {
    /// `Network::start_flow` in slot `slot`.
    Start {
        /// Network slot (flow id) the world assigned.
        slot: u32,
        /// Launch instant (ns).
        t_ns: u64,
        /// Instant the launch was scheduled (ns): the initiating rank's
        /// latest handler, or the launch instant itself for acks and
        /// retransmissions, which the world launches as it decides them.
        sched_ns: u64,
        /// Bytes carried.
        bytes: u64,
        /// Links traversed.
        path: Path,
    },
    /// The flow in `slot` drained.
    Drained {
        /// Network slot.
        slot: u32,
        /// Drain instant (ns).
        t_ns: u64,
    },
    /// The flow in `slot` was delivered (losses are not reported).
    Delivered {
        /// Network slot.
        slot: u32,
        /// Delivery instant (ns).
        t_ns: u64,
    },
}

/// What a [`ForwardRecorder`] saw, read back after the run.
#[derive(Default)]
pub struct RecorderTally {
    /// Flows started.
    pub flows: u64,
    /// OS-noise windows reported at run end.
    pub noise_windows: u64,
    /// Probes forwarded to the inner recorder.
    pub probes: u64,
    /// Host nanoseconds spent inside the inner recorder.
    pub probe_nanos: u64,
    /// Flow starts, drains and deliveries, in world order.
    pub log: Vec<FlowRecord>,
}

/// A `Recorder` that counts flows and noise windows, logs flow steps, and
/// forwards every probe to an optional inner [`StreamRecorder`], timing
/// it. Enabled even without an inner recorder, so the flow probes fire.
pub struct ForwardRecorder {
    inner: Option<StreamRecorder>,
    tally: Rc<RefCell<RecorderTally>>,
    /// Begin of each rank's latest program or protocol handler (ns).
    last_handler: Vec<u64>,
    /// A retransmission was announced; its flow starts next.
    retransmit: bool,
    /// Latest launch instant of each message's protocol lanes (indexed by
    /// message id, then [`lane`]): a retransmission's timer was armed
    /// then.
    lane_launch: Vec<[u64; 4]>,
}

/// Reliability lane of a protocol flow class.
fn lane(class: FlowClass) -> Option<usize> {
    match class {
        FlowClass::Rts => Some(0),
        FlowClass::Cts => Some(1),
        FlowClass::Eager => Some(2),
        FlowClass::Rndv => Some(3),
        _ => None,
    }
}

impl ForwardRecorder {
    /// Wrap `inner`; the returned tally fills in as the run proceeds.
    pub fn new(inner: Option<StreamRecorder>) -> (ForwardRecorder, Rc<RefCell<RecorderTally>>) {
        let tally = Rc::new(RefCell::new(RecorderTally::default()));
        let rec = ForwardRecorder {
            inner,
            tally: Rc::clone(&tally),
            last_handler: Vec::new(),
            retransmit: false,
            lane_launch: Vec::new(),
        };
        (rec, tally)
    }

    fn forward<T: Default>(&mut self, f: impl FnOnce(&mut StreamRecorder) -> T) -> T {
        let Some(inner) = self.inner.as_mut() else {
            return T::default();
        };
        let t0 = Instant::now();
        let out = f(inner);
        let mut tally = self.tally.borrow_mut();
        tally.probe_nanos += t0.elapsed().as_nanos() as u64;
        tally.probes += 1;
        out
    }

    fn handler_began(&mut self, rank: u32, begin_ns: u64) {
        let r = rank as usize;
        if r >= self.last_handler.len() {
            self.last_handler.resize(r + 1, 0);
        }
        self.last_handler[r] = begin_ns;
    }
}

impl Recorder for ForwardRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn metrics_interval(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|r| r.metrics_interval())
    }

    fn meta(&mut self, nranks: u32, link_labels: Vec<String>) {
        self.forward(|r| r.meta(nranks, link_labels));
    }

    fn link_params(&mut self, caps: Vec<f64>, lat_ns: Vec<u64>) {
        self.forward(|r| r.link_params(caps, lat_ns));
    }

    fn rank_windows(&mut self, rank: u32, noise: Vec<(u64, u64)>, stalls: Vec<(u64, u64)>) {
        self.tally.borrow_mut().noise_windows += noise.len() as u64;
        self.forward(|r| r.rank_windows(rank, noise, stalls));
    }

    fn msg_posted(
        &mut self,
        msg: u64,
        src: u32,
        dst: u32,
        tag: u32,
        bytes: u64,
        eager: bool,
        t_ns: u64,
    ) {
        self.forward(|r| r.msg_posted(msg, src, dst, tag, bytes, eager, t_ns));
    }

    fn msg_event(&mut self, msg: u64, ev: MsgEvent, t_ns: u64) {
        self.retransmit |= ev == MsgEvent::Retransmit;
        self.forward(|r| r.msg_event(msg, ev, t_ns));
    }

    fn flow_start(&mut self, slot: u32, rec: FlowStart, links: &[u32]) {
        {
            let lane = rec.msg.zip(lane(rec.class));
            let sched_ns = if std::mem::take(&mut self.retransmit) {
                lane.and_then(|(m, l)| self.lane_launch.get(m as usize).map(|x| x[l]))
                    .unwrap_or(rec.t_ns)
            } else if rec.class == FlowClass::Ack {
                rec.t_ns
            } else {
                let handler = self.last_handler.get(rec.rank as usize).copied();
                handler.unwrap_or(0).min(rec.t_ns)
            };
            if let Some((m, l)) = lane {
                let m = m as usize;
                if m >= self.lane_launch.len() {
                    self.lane_launch.resize(m + 1, [0; 4]);
                }
                self.lane_launch[m][l] = rec.t_ns;
            }
            let mut tally = self.tally.borrow_mut();
            tally.flows += 1;
            let mut path = Path::new(&[]);
            for &l in links {
                path.push(LinkId(l));
            }
            tally.log.push(FlowRecord::Start {
                slot,
                t_ns: rec.t_ns,
                sched_ns,
                bytes: rec.bytes,
                path,
            });
        }
        self.forward(|r| r.flow_start(slot, rec, links));
    }

    fn flow_drained(&mut self, slot: u32, t_ns: u64) {
        self.tally
            .borrow_mut()
            .log
            .push(FlowRecord::Drained { slot, t_ns });
        self.forward(|r| r.flow_drained(slot, t_ns));
    }

    fn flow_delivered(&mut self, slot: u32, t_ns: u64) {
        self.tally
            .borrow_mut()
            .log
            .push(FlowRecord::Delivered { slot, t_ns });
        self.forward(|r| r.flow_delivered(slot, t_ns));
    }

    fn dispatch(&mut self, rank: u32, begin_ns: u64, end_ns: u64, trigger: Trigger) {
        self.handler_began(rank, begin_ns);
        self.forward(|r| r.dispatch(rank, begin_ns, end_ns, trigger));
    }

    fn protocol(&mut self, rank: u32, begin_ns: u64, end_ns: u64, kind: ProtoKind, msg: u64) {
        self.handler_began(rank, begin_ns);
        self.forward(|r| r.protocol(rank, begin_ns, end_ns, kind, msg));
    }

    fn compute(&mut self, rank: u32, token: u64, begin_ns: u64, end_ns: u64, gpu: bool) {
        self.forward(|r| r.compute(rank, token, begin_ns, end_ns, gpu));
    }

    fn phase(&mut self, rank: u32, phase: u32, begin: bool, t_ns: u64) {
        self.forward(|r| r.phase(rank, phase, begin, t_ns));
    }

    fn gauge(&mut self, t_ns: u64, metric: GaugeMetric, index: u32, value: f64) {
        self.forward(|r| r.gauge(t_ns, metric, index, value));
    }

    fn alert(&mut self, a: HealthAlert) {
        self.forward(|r| r.alert(a));
    }

    fn finish(&mut self, per_rank_finish_ns: &[u64]) -> Option<ObsData> {
        self.forward(|r| r.finish(per_rank_finish_ns))
    }

    fn finish_summary(&mut self) -> Option<ObsSummary> {
        self.forward(|r| r.finish_summary())
    }

    fn flight_dump(&mut self) -> Option<String> {
        self.forward(|r| r.flight_dump())
    }
}
