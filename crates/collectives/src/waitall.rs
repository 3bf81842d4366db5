//! Non-blocking + Waitall collective implementations (paper §2.1.2,
//! Figure 3, Algorithm 2) — the Open MPI `tuned`-module baseline
//! ("OMPI-default" in the evaluation).
//!
//! Sends to all children of one segment are posted concurrently, but a
//! **Waitall** fences each segment: the next segment cannot start until
//! every child received the previous one, so all lanes run at the speed of
//! the slowest (§3.2.2), and a delayed child stalls its siblings through
//! the fence (§2.1.2's noise-propagation pattern). Receivers keep two
//! receives pre-posted to tolerate slightly out-of-order arrival, exactly
//! as Figure 3 describes.

use adapt_core::{Segments, Tree};
use adapt_mpi::{Completion, Payload, ProgramCtx, RankProgram, Tag, Token};
use bytes::Bytes;
use std::sync::Arc;

/// How many receives the Figure 3 implementation keeps pre-posted.
const RECV_DEPTH: u64 = 2;

/// Description of a Waitall-fenced pipelined broadcast.
#[derive(Clone)]
pub struct WaitallBcastSpec {
    /// Communication tree.
    pub tree: Arc<Tree>,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Pipeline segment size.
    pub seg_size: u64,
    /// Real payload at the root (`None` = synthetic).
    pub data: Option<Bytes>,
}

impl WaitallBcastSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        (0..self.tree.len())
            .map(|r| Box::new(WaitallBcast::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

/// Where a phase-embedded broadcast gets and leaves its data (see
/// [`crate::hier`]): the slot is filled before the phase starts (by the
/// previous level) and written by every receiver when it completes, so the
/// next level's leader finds its payload there.
pub type DataSlot = std::rc::Rc<std::cell::RefCell<Option<Payload>>>;

/// One rank's Waitall broadcast state machine.
pub struct WaitallBcast {
    parent: Option<u32>,
    children: Vec<u32>,
    segs: Segments,
    root_payload: Option<Payload>,
    received: Vec<Option<Payload>>,
    /// Segment currently being forwarded (the Wait(i) of Figure 3).
    current: u64,
    /// Receives posted so far.
    recvs_posted: u64,
    /// SendDones outstanding for `current`.
    sends_pending: u32,
    /// True once the sends for `current` have been posted.
    forwarding: bool,
    /// Hierarchical data hand-off (phase use only).
    slot: Option<DataSlot>,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
    finished: bool,
}

impl WaitallBcast {
    /// Build rank `rank`'s program.
    pub fn new(spec: &WaitallBcastSpec, rank: u32) -> WaitallBcast {
        let segs = Segments::new(spec.msg_bytes, spec.seg_size);
        let root_payload = (rank == spec.tree.root()).then(|| match &spec.data {
            Some(b) => Payload::Data(b.clone()),
            None => Payload::Synthetic(spec.msg_bytes),
        });
        WaitallBcast {
            parent: spec.tree.parent(rank),
            children: spec.tree.children(rank).to_vec(),
            segs,
            root_payload,
            received: vec![None; segs.count() as usize],
            current: 0,
            recvs_posted: 0,
            sends_pending: 0,
            forwarding: false,
            slot: None,
            finished_at: None,
            finished: false,
        }
    }

    /// Build a *phase* program over a partial tree: the sub-root reads its
    /// payload from `slot` when the phase starts, and every receiver writes
    /// the assembled payload back to its own slot on completion. The
    /// hierarchical specs build it only for ranks `tree` links; the others
    /// get an idle phase.
    pub fn phase(
        tree: &Tree,
        msg_bytes: u64,
        seg_size: u64,
        slot: DataSlot,
        rank: u32,
    ) -> WaitallBcast {
        let segs = Segments::new(msg_bytes, seg_size);
        WaitallBcast {
            parent: tree.parent(rank),
            children: tree.children(rank).to_vec(),
            segs,
            root_payload: None,
            received: vec![None; segs.count() as usize],
            current: 0,
            recvs_posted: 0,
            sends_pending: 0,
            forwarding: false,
            slot: Some(slot),
            finished_at: None,
            finished: false,
        }
    }

    fn seg_payload(&self, s: u64) -> Payload {
        match &self.root_payload {
            Some(p) => p.slice(self.segs.offset(s), self.segs.len(s)),
            None => self.received[s as usize].clone().expect("segment present"),
        }
    }

    /// Write the assembled payload into the hand-off slot (phase use).
    fn store_slot(&self) {
        let Some(slot) = &self.slot else { return };
        if self.parent.is_none() {
            return; // sub-root's slot was the input
        }
        let synthetic = self
            .received
            .iter()
            .any(|s| matches!(s, Some(Payload::Synthetic(_))));
        let payload = if synthetic {
            Payload::Synthetic(self.segs.total())
        } else {
            let mut out = Vec::with_capacity(self.segs.total() as usize);
            for seg in &self.received {
                out.extend_from_slice(seg.as_ref().expect("complete").bytes().expect("data"));
            }
            Payload::from(out)
        };
        *slot.borrow_mut() = Some(payload);
    }

    /// `Wait(current)` satisfied: forward the segment (or advance if leaf).
    fn advance(&mut self, ctx: &mut dyn ProgramCtx) {
        loop {
            if self.finished {
                return;
            }
            if self.current == self.segs.count() {
                self.finished = true;
                self.finished_at = Some(ctx.now());
                if self.parent.is_some() && self.segs.count() > 0 {
                    self.store_slot();
                }
                ctx.finish();
                return;
            }
            let have = self.parent.is_none() || self.received[self.current as usize].is_some();
            if !have || self.forwarding {
                return; // still waiting on Wait(current) or on the Waitall
            }
            if self.children.is_empty() {
                self.current += 1;
                self.post_recvs(ctx);
                continue;
            }
            // Post the segment to every child, then fence on Waitall.
            self.forwarding = true;
            self.sends_pending = self.children.len() as u32;
            let payload = self.seg_payload(self.current);
            for (c, &child) in self.children.iter().enumerate() {
                ctx.isend(
                    child,
                    self.current as Tag,
                    payload.clone(),
                    Token(((c as u64) << 32) | self.current),
                );
            }
            return;
        }
    }

    /// Keep `RECV_DEPTH` receives pre-posted.
    fn post_recvs(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.parent.is_none() {
            return;
        }
        while self.recvs_posted < self.segs.count() && self.recvs_posted < self.current + RECV_DEPTH
        {
            let seg = self.recvs_posted;
            self.recvs_posted += 1;
            ctx.irecv(self.parent.expect("non-root"), seg as Tag, Token(seg));
        }
    }

    /// Received segments reassembled (testing aid).
    pub fn assembled(&self) -> Option<Vec<u8>> {
        if let Some(p) = &self.root_payload {
            return p.bytes().map(|b| b.to_vec());
        }
        let mut out = Vec::new();
        for seg in &self.received {
            out.extend_from_slice(seg.as_ref()?.bytes()?);
        }
        Some(out)
    }
}

impl RankProgram for WaitallBcast {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.segs.count() == 0 {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        // A phase sub-root picks its payload up from the hand-off slot,
        // which the previous level filled before this phase started.
        if self.parent.is_none() && !self.children.is_empty() && self.root_payload.is_none() {
            if let Some(slot) = &self.slot {
                self.root_payload = Some(
                    slot.borrow()
                        .clone()
                        .expect("slot filled by previous phase"),
                );
            }
        }
        self.post_recvs(ctx);
        self.advance(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::RecvDone { data, tag, .. } => {
                self.received[tag as usize] = Some(data);
            }
            Completion::SendDone { .. } => {
                self.sends_pending -= 1;
                if self.sends_pending == 0 {
                    // Waitall satisfied: move to the next segment.
                    self.forwarding = false;
                    self.current += 1;
                    self.post_recvs(ctx);
                }
            }
            other => panic!("waitall bcast got {other:?}"),
        }
        self.advance(ctx);
    }
}

/// Description of a Waitall-fenced pipelined reduce.
#[derive(Clone)]
pub struct WaitallReduceSpec {
    /// Communication tree (data flows child → parent).
    pub tree: Arc<Tree>,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Pipeline segment size.
    pub seg_size: u64,
    /// Real per-rank contributions (`None` = synthetic).
    pub data: Option<crate::ReduceInputs>,
}

impl WaitallReduceSpec {
    /// Instantiate the per-rank programs.
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        (0..self.tree.len())
            .map(|r| Box::new(WaitallReduce::new(self, r)) as Box<dyn RankProgram>)
            .collect()
    }
}

/// One rank's Waitall reduce: per segment, receive from *all* children
/// (posted concurrently, fenced by Waitall), fold on the CPU, send upward,
/// fence again, then move on.
pub struct WaitallReduce {
    parent: Option<u32>,
    children: Vec<u32>,
    segs: Segments,
    real: Option<(adapt_mpi::ReduceOp, adapt_mpi::DType)>,
    acc: Vec<Option<Vec<u8>>>,
    current: u64,
    /// Receive window start (segments with all receives posted).
    recvs_posted: u64,
    /// Per segment in the window: contributions received but not folded.
    arrived: Vec<u32>,
    /// Contributions folded for `current`.
    folded: u32,
    /// Folds requested but not completed for `current`.
    folds_pending: u32,
    /// Send of `current` outstanding.
    sending: bool,
    /// Hierarchical data hand-off (phase use only).
    slot: Option<DataSlot>,
    /// Operator to apply when the slot carries real data.
    slot_op: Option<(adapt_mpi::ReduceOp, adapt_mpi::DType)>,
    /// Completion time, for inspection after the run.
    pub finished_at: Option<adapt_sim::time::Time>,
    finished: bool,
}

impl WaitallReduce {
    /// Build a *phase* program over a partial tree: every rank's own
    /// contribution is read from its `slot` when the phase starts, and the
    /// sub-root writes the folded result back, where the next level picks
    /// it up.
    pub fn phase(
        tree: &Tree,
        msg_bytes: u64,
        seg_size: u64,
        op_dtype: Option<(adapt_mpi::ReduceOp, adapt_mpi::DType)>,
        slot: DataSlot,
        rank: u32,
    ) -> WaitallReduce {
        let segs = Segments::new(msg_bytes, seg_size);
        WaitallReduce {
            parent: tree.parent(rank),
            children: tree.children(rank).to_vec(),
            segs,
            real: None,
            acc: vec![None; segs.count() as usize],
            current: 0,
            recvs_posted: 0,
            arrived: vec![0; segs.count() as usize],
            folded: 0,
            folds_pending: 0,
            sending: false,
            slot: Some(slot),
            slot_op: op_dtype,
            finished_at: None,
            finished: false,
        }
    }

    /// Build rank `rank`'s program.
    pub fn new(spec: &WaitallReduceSpec, rank: u32) -> WaitallReduce {
        let segs = Segments::new(spec.msg_bytes, spec.seg_size);
        let children = spec.tree.children(rank).to_vec();
        let (real, acc) = match &spec.data {
            None => (None, vec![None; segs.count() as usize]),
            Some(inputs) => {
                let own = &inputs.contributions[rank as usize];
                assert_eq!(own.len() as u64, spec.msg_bytes);
                let acc = (0..segs.count())
                    .map(|s| {
                        Some(
                            own.slice(
                                segs.offset(s) as usize..(segs.offset(s) + segs.len(s)) as usize,
                            )
                            .to_vec(),
                        )
                    })
                    .collect();
                (Some((inputs.op, inputs.dtype)), acc)
            }
        };
        WaitallReduce {
            parent: spec.tree.parent(rank),
            children,
            segs,
            real,
            acc,
            current: 0,
            recvs_posted: 0,
            arrived: vec![0; segs.count() as usize],
            folded: 0,
            folds_pending: 0,
            sending: false,
            slot: None,
            slot_op: None,
            finished_at: None,
            finished: false,
        }
    }

    /// Materialize the accumulator from the hand-off slot (phase start).
    fn init_from_slot(&mut self) {
        let Some(slot) = &self.slot else { return };
        match slot.borrow().as_ref().expect("slot filled") {
            Payload::Synthetic(_) => {
                self.real = None;
            }
            Payload::Data(b) => {
                self.real = Some(self.slot_op.expect("op for real phased reduce"));
                for s in 0..self.segs.count() {
                    let off = self.segs.offset(s) as usize;
                    let len = self.segs.len(s) as usize;
                    self.acc[s as usize] = Some(b.slice(off..off + len).to_vec());
                }
            }
        }
    }

    /// Write the folded result back into the hand-off slot (sub-roots).
    fn store_slot(&self) {
        let Some(slot) = &self.slot else { return };
        let payload = if self.real.is_some() {
            let mut out = Vec::with_capacity(self.segs.total() as usize);
            for st in &self.acc {
                out.extend_from_slice(st.as_ref().expect("complete"));
            }
            Payload::from(out)
        } else {
            Payload::Synthetic(self.segs.total())
        };
        *slot.borrow_mut() = Some(payload);
    }

    fn post_recvs(&mut self, ctx: &mut dyn ProgramCtx) {
        while self.recvs_posted < self.segs.count() && self.recvs_posted < self.current + RECV_DEPTH
        {
            let seg = self.recvs_posted;
            self.recvs_posted += 1;
            for (c, &child) in self.children.iter().enumerate() {
                ctx.irecv(child, seg as Tag, Token(((c as u64) << 32) | seg));
            }
        }
    }

    fn advance(&mut self, ctx: &mut dyn ProgramCtx) {
        loop {
            if self.finished {
                return;
            }
            if self.current == self.segs.count() {
                self.finished = true;
                self.finished_at = Some(ctx.now());
                if self.parent.is_none() && self.segs.count() > 0 {
                    self.store_slot();
                }
                ctx.finish();
                return;
            }
            if self.sending || self.folds_pending > 0 {
                return;
            }
            let nchildren = self.children.len() as u32;
            // Fold contributions that have arrived for the current segment.
            let waiting = self.arrived[self.current as usize];
            if waiting > 0 {
                self.arrived[self.current as usize] = 0;
                self.folds_pending = waiting;
                for _ in 0..waiting {
                    ctx.cpu_reduce(self.segs.len(self.current), Token(self.current));
                }
                return;
            }
            if self.folded < nchildren {
                return; // Waitall on the remaining receives.
            }
            // Segment fully folded: forward it (or advance at the root).
            if let Some(parent) = self.parent {
                self.sending = true;
                let payload = match &self.acc[self.current as usize] {
                    Some(v) => Payload::from(v.clone()),
                    None => Payload::Synthetic(self.segs.len(self.current)),
                };
                ctx.isend(parent, self.current as Tag, payload, Token(self.current));
                return;
            }
            self.current += 1;
            self.folded = 0;
            self.post_recvs(ctx);
        }
    }

    /// The fully reduced message (root, real mode, after the run).
    pub fn result(&self) -> Option<Vec<u8>> {
        if self.parent.is_some() {
            return None;
        }
        let mut out = Vec::new();
        for st in &self.acc {
            out.extend_from_slice(st.as_ref()?);
        }
        Some(out)
    }
}

impl RankProgram for WaitallReduce {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        if self.segs.count() == 0 {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            ctx.finish();
            return;
        }
        self.init_from_slot();
        self.post_recvs(ctx);
        self.advance(ctx);
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        match completion {
            Completion::RecvDone { data, tag, .. } => {
                let seg = tag as u64;
                if let (Some((op, dtype)), Some(operand)) = (self.real, data.bytes()) {
                    adapt_mpi::combine(
                        op,
                        dtype,
                        self.acc[seg as usize].as_mut().expect("acc"),
                        operand,
                    );
                }
                self.arrived[seg as usize] += 1;
            }
            Completion::ComputeDone { .. } => {
                self.folds_pending -= 1;
                self.folded += 1;
            }
            Completion::SendDone { .. } => {
                debug_assert!(self.sending);
                self.sending = false;
                self.current += 1;
                self.folded = 0;
                self.post_recvs(ctx);
            }
            other => panic!("waitall reduce got {other:?}"),
        }
        self.advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_core::TreeKind;
    use adapt_mpi::{f64_to_bytes, World};
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;

    #[test]
    fn waitall_bcast_delivers_data() {
        let data: Vec<u8> = (0..150_000u32).map(|i| (i % 255) as u8).collect();
        for kind in [TreeKind::Binomial, TreeKind::Chain, TreeKind::Binary] {
            let spec = WaitallBcastSpec {
                tree: Arc::new(Tree::build(kind, 10, 0)),
                msg_bytes: data.len() as u64,
                seg_size: 32 * 1024,
                data: Some(Bytes::from(data.clone())),
            };
            let world = World::cpu(profiles::minicluster(4, 1, 4), 10, ClusterNoise::silent(10));
            let res = world.run(spec.programs());
            for (r, p) in res.programs.into_iter().enumerate() {
                let any: Box<dyn std::any::Any> = p;
                let b = any.downcast::<WaitallBcast>().unwrap();
                assert_eq!(b.assembled().unwrap(), data, "rank {r} kind {kind:?}");
            }
        }
    }

    #[test]
    fn waitall_reduce_computes_sum() {
        let n = 9u32;
        let elems = 3000usize;
        let contributions: Vec<Bytes> = (0..n)
            .map(|r| Bytes::from(f64_to_bytes(&vec![(r * r) as f64; elems])))
            .collect();
        let spec = WaitallReduceSpec {
            tree: Arc::new(Tree::build(TreeKind::Binomial, n, 0)),
            msg_bytes: (elems * 8) as u64,
            seg_size: 8 * 1024,
            data: Some(crate::ReduceInputs {
                op: adapt_mpi::ReduceOp::Sum,
                dtype: adapt_mpi::DType::F64,
                contributions: Arc::new(contributions),
            }),
        };
        let world = World::cpu(profiles::minicluster(3, 1, 3), n, ClusterNoise::silent(n));
        let res = world.run(spec.programs());
        let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let root = root.downcast::<WaitallReduce>().unwrap();
        let got = adapt_mpi::bytes_to_f64(&root.result().unwrap());
        let expect: f64 = (0..n as u64).map(|r| (r * r) as f64).sum();
        assert_eq!(got, vec![expect; elems]);
    }

    #[test]
    fn adapt_beats_waitall_on_heterogeneous_tree() {
        // On a topology-aware tree the Waitall fences every lane to the
        // slowest; ADAPT overlaps them (§3.2.2).
        let machine = profiles::minicluster(4, 2, 4);
        let placement = adapt_topology::Placement::block_cpu(machine.shape, 32);
        let tree = Arc::new(adapt_core::topology_aware_tree(
            &placement,
            adapt_core::TopoTreeConfig::default(),
        ));
        let msg = 4 << 20;
        let waitall = {
            let spec = WaitallBcastSpec {
                tree: tree.clone(),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            };
            let world = World::cpu(machine.clone(), 32, ClusterNoise::silent(32));
            world.run(spec.programs()).makespan
        };
        let adapt = {
            let spec = adapt_core::BcastSpec {
                tree,
                msg_bytes: msg,
                cfg: adapt_core::AdaptConfig::default(),
                data: None,
            };
            let world = World::cpu(machine, 32, ClusterNoise::silent(32));
            world.run(spec.programs()).makespan
        };
        assert!(
            adapt.as_nanos() < waitall.as_nanos(),
            "adapt={adapt} waitall={waitall}"
        );
    }
}
