//! The four named workloads, their cells, and the committed reference.
//!
//! A *cell* is one simulated operation: one `World::run` of one
//! configuration. Every cell has an exact reference makespan (ns) in
//! `reference/<workload>.txt`; a cell whose makespan differs is a failed
//! operation.

use adapt_apps::AspConfig;
use adapt_collectives::{CollectiveCase, Library, NoiseScope, OpKind};
use adapt_sim::rng::{MasterSeed, StreamTag};
use adapt_sim::time::Duration;
use adapt_topology::{profiles, MachineSpec};

/// Message sizes of the paper's Figure 9 sweep (64 KB – 4 MB).
const FIG9_SIZES: [u64; 7] = [
    64 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
    1 << 20,
    2 << 20,
    4 << 20,
];

/// Distinct input draws of the seeded workload. `--seed s` selects draw
/// `s % DRAWS`, and every draw has a committed reference, so any seed is
/// checkable. Seeds congruent modulo `DRAWS` give identical inputs.
pub const DRAWS: u64 = 16;

/// Iterations of the shortened Table 1 ASP run.
const ASP_ITERATIONS: u32 = 8;

/// One of the benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 9 broadcast sweep on Cori (1024 ranks), no noise.
    Fig9Bcast,
    /// Figure 9 reduce sweep on Cori (1024 ranks), no noise.
    Fig9Reduce,
    /// Stampede2 (1536 ranks) 4 MB bcast + reduce with noise, loss, a
    /// streaming recorder and a health monitor.
    Stampede2Noisy,
    /// Table 1 ASP on Cori (1024 ranks), shortened iteration count.
    Table1Asp,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig9Bcast,
        Workload::Fig9Reduce,
        Workload::Stampede2Noisy,
        Workload::Table1Asp,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Bcast => "fig9_bcast_cori1024",
            Workload::Fig9Reduce => "fig9_reduce_cori1024",
            Workload::Stampede2Noisy => "stampede2_4m_noisy_lossy_obs",
            Workload::Table1Asp => "table1_asp_cori1024",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does `--seed` change this workload's inputs? Only the noisy
    /// workload draws anything at random; the others are seed-free by
    /// construction (silent noise, no fault plan).
    pub fn seeded(self) -> bool {
        self == Workload::Stampede2Noisy
    }

    /// The cells of one pass over the workload for `seed`.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        match self {
            Workload::Fig9Bcast => fig9_cells(OpKind::Bcast),
            Workload::Fig9Reduce => fig9_cells(OpKind::Reduce),
            Workload::Stampede2Noisy => stampede2_cells(seed % DRAWS),
            Workload::Table1Asp => table1_cells(),
        }
    }
}

/// Noise, loss and observers attached to a seeded cell.
#[derive(Clone, Copy, Debug)]
pub struct Perturbation {
    /// Master seed of the noise windows.
    pub noise_seed: u64,
    /// Seed of the loss draws.
    pub fault_seed: u64,
}

impl Perturbation {
    /// Noise duty cycle (percent).
    pub const NOISE_PERCENT: f64 = 10.0;
    /// Noise layout: one noisy rank per four nodes.
    pub const NOISE_SCOPE: NoiseScope = NoiseScope::SparseNodes(4);
    /// Per-hop loss probability.
    pub const LOSS: f64 = 0.01;
    /// Retransmission timeout.
    pub const RTO: Duration = Duration::from_micros(80);
    /// Health-monitor snapshot interval (ns).
    pub const MONITOR_INTERVAL_NS: u64 = 10_000;

    /// The noise and loss seeds of input draw `draw`.
    pub fn for_draw(draw: u64) -> Perturbation {
        let master = MasterSeed(2018);
        Perturbation {
            noise_seed: master.stream(StreamTag::Noise, draw),
            fault_seed: master.stream(StreamTag::Faults, draw),
        }
    }
}

/// What one cell runs.
#[derive(Clone)]
pub enum CellKind {
    /// One collective through `CollectiveCase::programs`.
    Collective {
        /// The configuration.
        case: CollectiveCase,
        /// Noise, loss and observers (`None` = silent, fault-free).
        perturb: Option<Perturbation>,
    },
    /// One ASP application run through `asp_programs`.
    Asp(AspConfig),
}

/// One simulated operation of a workload.
#[derive(Clone)]
pub struct Cell {
    /// Reference key: unique within the workload and draw.
    pub label: String,
    /// Input draw (0 for seed-free workloads).
    pub draw: u64,
    /// The configuration.
    pub kind: CellKind,
}

impl Cell {
    /// The cell's machine description.
    pub fn machine(&self) -> &MachineSpec {
        match &self.kind {
            CellKind::Collective { case, .. } => &case.machine,
            CellKind::Asp(cfg) => &cfg.machine,
        }
    }
}

fn lib_key(lib: Library) -> String {
    lib.label().to_lowercase().replace(' ', "-")
}

fn op_key(op: OpKind) -> &'static str {
    match op {
        OpKind::Bcast => "bcast",
        OpKind::Reduce => "reduce",
    }
}

fn fig9_cells(op: OpKind) -> Vec<Cell> {
    let machine = profiles::cori(32);
    let libs = [
        Library::CrayMpi,
        Library::IntelMpi,
        Library::OmpiDefault,
        Library::OmpiAdapt,
    ];
    let mut cells = Vec::new();
    for library in libs {
        for msg_bytes in FIG9_SIZES {
            cells.push(Cell {
                label: format!("{}/{}/{}", op_key(op), lib_key(library), msg_bytes),
                draw: 0,
                kind: CellKind::Collective {
                    case: CollectiveCase {
                        machine: machine.clone(),
                        nranks: 1024,
                        op,
                        library,
                        msg_bytes,
                    },
                    perturb: None,
                },
            });
        }
    }
    cells
}

fn stampede2_cells(draw: u64) -> Vec<Cell> {
    let machine = profiles::stampede2(32);
    let libs = [
        Library::IntelMpi,
        Library::Mvapich,
        Library::OmpiDefault,
        Library::OmpiAdapt,
    ];
    let mut cells = Vec::new();
    for op in [OpKind::Bcast, OpKind::Reduce] {
        for library in libs {
            cells.push(Cell {
                label: format!("{}/{}/{}", op_key(op), lib_key(library), 4u64 << 20),
                draw,
                kind: CellKind::Collective {
                    case: CollectiveCase {
                        machine: machine.clone(),
                        nranks: 1536,
                        op,
                        library,
                        msg_bytes: 4 << 20,
                    },
                    perturb: Some(Perturbation::for_draw(draw)),
                },
            });
        }
    }
    cells
}

fn table1_cells() -> Vec<Cell> {
    let machine = profiles::cori(32);
    [
        Library::CrayMpi,
        Library::IntelMpi,
        Library::OmpiAdapt,
        Library::OmpiDefault,
    ]
    .into_iter()
    .map(|library| Cell {
        label: format!("asp/{}/{}", lib_key(library), ASP_ITERATIONS),
        draw: 0,
        kind: CellKind::Asp(AspConfig {
            machine: machine.clone(),
            nranks: 1024,
            library,
            row_bytes: 1 << 20,
            iterations: ASP_ITERATIONS,
            compute_per_iter: Duration::from_micros(650),
        }),
    })
    .collect()
}

/// The committed per-cell reference makespans of a workload.
pub fn reference_text(w: Workload) -> &'static str {
    match w {
        Workload::Fig9Bcast => include_str!("../reference/fig9_bcast_cori1024.txt"),
        Workload::Fig9Reduce => include_str!("../reference/fig9_reduce_cori1024.txt"),
        Workload::Stampede2Noisy => {
            include_str!("../reference/stampede2_4m_noisy_lossy_obs.txt")
        }
        Workload::Table1Asp => include_str!("../reference/table1_asp_cori1024.txt"),
    }
}

/// Reference makespan (ns) of a cell, from lines of the form
/// `<draw> <label> <makespan_ns>`; `#` starts a comment.
pub fn reference_ns(w: Workload, cell: &Cell) -> Option<u64> {
    reference_text(w).lines().find_map(|line| {
        let line = line.split('#').next().unwrap_or("");
        let mut it = line.split_whitespace();
        let draw: u64 = it.next()?.parse().ok()?;
        let label = it.next()?;
        let ns: u64 = it.next()?.parse().ok()?;
        (draw == cell.draw && label == cell.label).then_some(ns)
    })
}
