//! Run one cell, plain or traced, and time the calls into each layer.

use crate::replay::{replay, ReplayCounts};
use crate::shim::{CallbackClock, ForwardRecorder, TimedProgram};
use crate::workload::{reference_ns, Cell, CellKind, Perturbation, Workload};
use adapt_apps::asp_programs;
use adapt_collectives::{noise_for_case, NoiseScope};
use adapt_mpi::{FaultPlan, RankProgram, RunError, RunResult, World, WorldStats};
use adapt_net::Fabric;
use adapt_noise::ClusterNoise;
use adapt_obs::{AnyRecorder, Monitor, StreamRecorder};
use std::rc::Rc;
use std::time::Instant;

/// Plain (tracing off) or traced (shims attached).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The program exactly as a user runs it.
    Plain,
    /// Every layer call timed from outside; flow log replayed afterwards.
    Traced,
}

/// Host seconds spent in each set-up call of a traced cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSplit {
    /// `noise_for_case` (or the silent model of an ASP cell).
    pub noise_s: f64,
    /// `World::cpu` and its `with_*` calls.
    pub world_s: f64,
    /// `CollectiveCase::programs`.
    pub collective_programs_s: f64,
    /// `asp_programs`.
    pub app_programs_s: f64,
}

/// Per-layer figures of one traced cell.
#[derive(Clone, Debug, Default)]
pub struct CellTrace {
    /// Set-up time by call.
    pub setup: SetupSplit,
    /// Callbacks forwarded by the program shims.
    pub callbacks: u64,
    /// Host seconds inside them.
    pub callback_s: f64,
    /// Flows started (counted by the forwarding recorder).
    pub flows: u64,
    /// Noise windows reported at run end.
    pub noise_windows: u64,
    /// Probes forwarded to the wrapped `StreamRecorder`.
    pub probes: u64,
    /// Host seconds inside it.
    pub probe_s: f64,
    /// Health-monitor snapshots.
    pub snapshots: u64,
    /// Health-monitor alerts.
    pub alerts: u64,
    /// Event-queue schedules clamped forward.
    pub causality_violations: u64,
    /// The network replay's counters.
    pub replay: ReplayCounts,
    /// Host seconds of the replay.
    pub replay_s: f64,
}

/// The raw outcome of simulating one cell.
pub struct Execution {
    /// Host seconds of set-up (noise model, world, programs).
    pub setup_s: f64,
    /// Host seconds of `World::try_run`.
    pub run_s: f64,
    /// The run's result or typed error.
    pub result: Result<RunResult, Box<RunError>>,
    /// Layer figures (traced mode only).
    pub trace: Option<CellTrace>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Build and run one cell.
pub fn execute(cell: &Cell, mode: Mode) -> Execution {
    let traced = mode == Mode::Traced;
    let t_setup = Instant::now();
    let mut split = SetupSplit::default();
    let (world, programs, perturbed): (World, Vec<Box<dyn RankProgram>>, bool) = match &cell.kind {
        CellKind::Collective { case, perturb } => {
            let (noise, noise_s) = timed(|| match perturb {
                Some(p) => noise_for_case(
                    case,
                    Perturbation::NOISE_SCOPE,
                    Perturbation::NOISE_PERCENT,
                    p.noise_seed,
                ),
                None => noise_for_case(case, NoiseScope::PerNode, 0.0, 0),
            });
            let (world, world_s) = timed(|| {
                let world = World::cpu(case.machine.clone(), case.nranks, noise);
                match perturb {
                    Some(p) => world
                        .with_faults(
                            FaultPlan::lossy(p.fault_seed, Perturbation::LOSS)
                                .with_rto(Perturbation::RTO),
                        )
                        .with_monitor(Monitor::new(Perturbation::MONITOR_INTERVAL_NS)),
                    None => world,
                }
            });
            let (programs, programs_s) = timed(|| case.programs());
            split.noise_s = noise_s;
            split.world_s = world_s;
            split.collective_programs_s = programs_s;
            (world, programs, perturb.is_some())
        }
        CellKind::Asp(cfg) => {
            let (noise, noise_s) = timed(|| ClusterNoise::silent(cfg.nranks));
            let (world, world_s) = timed(|| World::cpu(cfg.machine.clone(), cfg.nranks, noise));
            let (programs, programs_s) = timed(|| asp_programs(cfg));
            split.noise_s = noise_s;
            split.world_s = world_s;
            split.app_programs_s = programs_s;
            (world, programs, false)
        }
    };
    let stream = perturbed.then(StreamRecorder::new);

    if !traced {
        let world = match stream {
            Some(rec) => world.with_recorder(rec),
            None => world,
        };
        let setup_s = t_setup.elapsed().as_secs_f64();
        let (result, run_s) = timed(|| world.try_run(programs));
        return Execution {
            setup_s,
            run_s,
            result,
            trace: None,
        };
    }

    let clock = Rc::new(CallbackClock::default());
    let programs = TimedProgram::wrap_all(programs, &clock);
    let (fwd, tally) = ForwardRecorder::new(stream);
    let world = world.with_recorder(AnyRecorder::Dyn(Box::new(fwd)));
    let setup_s = t_setup.elapsed().as_secs_f64();
    let (result, run_s) = timed(|| world.try_run(programs));

    let tally = std::mem::take(&mut *tally.borrow_mut());
    let (replay_counts, replay_s) = timed(|| replay(Fabric::build(cell.machine()).1, &tally.log));
    let (snapshots, alerts, causality_violations) = match &result {
        Ok(res) => (
            res.health.as_ref().map_or(0, |h| h.snapshots),
            res.health.as_ref().map_or(0, |h| h.total_alerts()),
            res.audit.queue.causality_violations,
        ),
        Err(_) => (0, 0, 0),
    };
    let trace = CellTrace {
        setup: split,
        callbacks: clock.calls(),
        callback_s: clock.nanos() as f64 * 1e-9,
        flows: tally.flows,
        noise_windows: tally.noise_windows,
        probes: tally.probes,
        probe_s: tally.probe_nanos as f64 * 1e-9,
        snapshots,
        alerts,
        causality_violations,
        replay: replay_counts,
        replay_s,
    };
    Execution {
        setup_s,
        run_s,
        result,
        trace: Some(trace),
    }
}

/// One cell's measured and checked outcome.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Reference key.
    pub label: String,
    /// Simulated makespan (ns; 0 when the run failed).
    pub makespan_ns: u64,
    /// Relative deviation from the reference, percent (100 when the run
    /// failed or has no reference).
    pub err_pct: f64,
    /// Why the cell failed, if it did.
    pub failure: Option<String>,
    /// Host seconds for the whole cell: set-up, run and checks.
    pub wall_s: f64,
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of `World::run`.
    pub run_s: f64,
    /// The run's counters.
    pub stats: WorldStats,
    /// Layer figures (traced mode only; replay excluded from `wall_s`).
    pub trace: Option<CellTrace>,
}

/// Simulate one cell and check it against the committed reference.
pub fn run_cell(w: Workload, cell: &Cell, mode: Mode) -> CellOutcome {
    let t0 = Instant::now();
    let exec = execute(cell, mode);
    let mut out = CellOutcome {
        label: cell.label.clone(),
        makespan_ns: 0,
        err_pct: 100.0,
        failure: None,
        wall_s: 0.0,
        setup_s: exec.setup_s,
        run_s: exec.run_s,
        stats: WorldStats::default(),
        trace: None,
    };
    match &exec.result {
        Err(e) => out.failure = Some(format!("run error: {e}")),
        Ok(res) => {
            out.makespan_ns = res.makespan.as_nanos();
            out.stats = res.stats;
            match reference_ns(w, cell) {
                None => out.failure = Some("no committed reference".into()),
                Some(want) => {
                    let got = out.makespan_ns;
                    out.err_pct = got.abs_diff(want) as f64 / want.max(1) as f64 * 100.0;
                    if got != want {
                        out.failure = Some(format!("makespan {got} ns, reference {want} ns"));
                    }
                }
            }
            if !res.audit.is_clean() {
                out.failure = Some(format!("audit: {}", res.audit));
            }
        }
    }
    let replay_s = exec.trace.as_ref().map_or(0.0, |t| t.replay_s);
    out.trace = exec.trace;
    drop(exec.result);
    out.wall_s = t0.elapsed().as_secs_f64() - replay_s;
    out
}

/// One pass over every cell of a workload.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds building the cell list.
    pub spec_s: f64,
    /// Per-cell outcomes, in workload order.
    pub cells: Vec<CellOutcome>,
}

impl Pass {
    /// Run every cell of `w` for `seed` once.
    pub fn run(w: Workload, seed: u64, mode: Mode) -> Pass {
        let (cells, spec_s) = timed(|| w.cells(seed));
        let cells = cells.iter().map(|c| run_cell(w, c, mode)).collect();
        Pass { spec_s, cells }
    }

    /// Host seconds for the whole pass, set-up included.
    pub fn wall_s(&self) -> f64 {
        self.spec_s + self.cells.iter().map(|c| c.wall_s).sum::<f64>()
    }

    /// Host seconds of set-up: specs, worlds, noise models and programs.
    pub fn setup_s(&self) -> f64 {
        self.spec_s + self.cells.iter().map(|c| c.setup_s).sum::<f64>()
    }

    /// Host seconds inside `World::run`.
    pub fn run_s(&self) -> f64 {
        self.cells.iter().map(|c| c.run_s).sum()
    }

    /// Point-to-point messages simulated.
    pub fn messages(&self) -> u64 {
        self.cells.iter().map(|c| c.stats.messages).sum()
    }

    /// Cells that failed.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.failure.is_some()).count()
    }

    /// Largest deviation of any cell from its reference, percent.
    pub fn max_err_pct(&self) -> f64 {
        self.cells.iter().map(|c| c.err_pct).fold(0.0, f64::max)
    }
}
