//! Self-tests of the benchmark's instruments: the shims are transparent,
//! the network replay is exact, counted work repeats, the seed reaches
//! only the seeded workload, and the committed reference is complete and
//! agrees with the printed Figure 9 tables.

use adapt_apps::AspConfig;
use adapt_collectives::{CollectiveCase, Library, OpKind};
use adapt_paperbench::workload::{reference_ns, reference_text, Perturbation};
use adapt_paperbench::{execute, Cell, CellKind, Execution, Mode, Workload, DRAWS};
use adapt_sim::time::Duration;
use adapt_topology::profiles;

fn mini_cell(op: OpKind, library: Library, perturb: Option<Perturbation>) -> Cell {
    Cell {
        label: "mini".into(),
        draw: 0,
        kind: CellKind::Collective {
            case: CollectiveCase {
                machine: profiles::minicluster(4, 2, 4),
                nranks: 32,
                op,
                library,
                msg_bytes: 1 << 20,
            },
            perturb,
        },
    }
}

fn mini_asp() -> Cell {
    Cell {
        label: "mini-asp".into(),
        draw: 0,
        kind: CellKind::Asp(AspConfig {
            machine: profiles::minicluster(2, 2, 4),
            nranks: 16,
            library: Library::IntelMpi,
            row_bytes: 256 * 1024,
            iterations: 4,
            compute_per_iter: Duration::from_micros(20),
        }),
    }
}

fn small_cells() -> Vec<Cell> {
    vec![
        mini_cell(OpKind::Bcast, Library::OmpiAdapt, None),
        mini_cell(OpKind::Reduce, Library::CrayMpi, None),
        mini_cell(
            OpKind::Bcast,
            Library::OmpiAdapt,
            Some(Perturbation::for_draw(3)),
        ),
        mini_cell(
            OpKind::Reduce,
            Library::Mvapich,
            Some(Perturbation::for_draw(5)),
        ),
        mini_asp(),
    ]
}

/// Every count a traced run reports, as one comparable value.
fn counted(e: &Execution) -> String {
    let res = e.result.as_ref().expect("cell runs");
    let t = e.trace.as_ref().expect("traced");
    format!(
        "{:?} {:?} flows={} windows={} probes={} snaps={} alerts={} cb={} replay={:?}",
        res.per_rank_finish,
        res.stats,
        t.flows,
        t.noise_windows,
        t.probes,
        t.snapshots,
        t.alerts,
        t.callbacks,
        t.replay
    )
}

#[test]
fn traced_cell_is_transparent() {
    for cell in small_cells() {
        let plain = execute(&cell, Mode::Plain);
        let traced = execute(&cell, Mode::Traced);
        let (p, t) = (plain.result.unwrap(), traced.result.unwrap());
        assert!(p.audit.is_clean(), "{}", p.audit);
        assert_eq!(p.per_rank_finish, t.per_rank_finish);
        assert_eq!(p.stats, t.stats);
        assert_eq!(p.audit, t.audit);
        assert_eq!(
            p.health.map(|h| (h.snapshots, h.total_alerts())),
            t.health.map(|h| (h.snapshots, h.total_alerts()))
        );
    }
}

#[test]
fn replay_reproduces_network_counters() {
    for cell in small_cells() {
        let e = execute(&cell, Mode::Traced);
        let stats = e.result.as_ref().unwrap().stats;
        let t = e.trace.unwrap();
        assert!(t.flows > 0);
        assert_eq!(t.replay.flows, t.flows);
        assert_eq!(
            (
                t.replay.perf.share_recomputes,
                t.replay.perf.refreshes,
                t.replay.perf.reschedules
            ),
            (
                stats.net_share_recomputes,
                stats.net_refreshes,
                stats.net_reschedules
            )
        );
    }
}

/// Full-scale cells where a same-instant launch and drain estimate meet,
/// so the replay must order them by scheduling instant to stay exact.
#[test]
fn replay_is_exact_on_full_scale_cells() {
    let pick = |w: Workload, seed: u64, label: &str| {
        w.cells(seed)
            .into_iter()
            .find(|c| c.label == label)
            .expect("cell exists")
    };
    for cell in [
        pick(Workload::Fig9Bcast, 0, "bcast/ompi-adapt/1048576"),
        pick(Workload::Stampede2Noisy, 3, "bcast/ompi-adapt/4194304"),
    ] {
        let e = execute(&cell, Mode::Traced);
        let stats = e.result.as_ref().unwrap().stats;
        let r = e.trace.unwrap().replay.perf;
        assert_eq!(
            (r.share_recomputes, r.refreshes, r.reschedules),
            (
                stats.net_share_recomputes,
                stats.net_refreshes,
                stats.net_reschedules
            ),
            "{}",
            cell.label
        );
    }
}

#[test]
fn two_traced_runs_count_the_same_work() {
    for cell in small_cells() {
        let a = execute(&cell, Mode::Traced);
        let b = execute(&cell, Mode::Traced);
        assert_eq!(counted(&a), counted(&b));
    }
}

#[test]
fn perturbed_cells_drive_noise_loss_and_obs() {
    let clean = execute(
        &mini_cell(OpKind::Bcast, Library::OmpiAdapt, None),
        Mode::Traced,
    );
    let stats = clean.result.as_ref().unwrap().stats;
    let t = clean.trace.unwrap();
    assert_eq!((t.noise_windows, t.probes, t.snapshots), (0, 0, 0));
    assert_eq!((stats.retransmits, stats.drops_injected), (0, 0));

    let noisy = execute(
        &mini_cell(
            OpKind::Bcast,
            Library::OmpiAdapt,
            Some(Perturbation::for_draw(3)),
        ),
        Mode::Traced,
    );
    let stats = noisy.result.as_ref().unwrap().stats;
    let t = noisy.trace.unwrap();
    assert!(t.noise_windows > 0 && t.probes > 0 && t.snapshots > 0);
    assert!(stats.drops_injected > 0 && stats.retransmits > 0);
}

#[test]
fn seed_changes_noise_and_loss_only_on_the_seeded_workload() {
    // Seed-free workloads: identical cells for every seed, no perturbation.
    for w in [
        Workload::Fig9Bcast,
        Workload::Fig9Reduce,
        Workload::Table1Asp,
    ] {
        assert!(!w.seeded());
        let a = w.cells(1);
        let b = w.cells(12345);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.label, x.draw), (&y.label, y.draw));
            if let CellKind::Collective { perturb, .. } = &x.kind {
                assert!(perturb.is_none(), "{}", x.label);
            }
        }
    }

    // The seeded workload: a different draw is a different noise and loss
    // stream, with its own simulated outcome.
    let w = Workload::Stampede2Noisy;
    assert!(w.seeded());
    let (p1, p2) = (Perturbation::for_draw(1), Perturbation::for_draw(2));
    assert_ne!(p1.noise_seed, p2.noise_seed);
    assert_ne!(p1.fault_seed, p2.fault_seed);
    assert_eq!(w.cells(2)[0].draw, w.cells(2 + DRAWS)[0].draw);
    let run = |p| {
        let e = execute(
            &mini_cell(OpKind::Bcast, Library::Mvapich, Some(p)),
            Mode::Traced,
        );
        let res = e.result.unwrap();
        (
            res.makespan,
            res.stats.drops_injected,
            res.stats.retransmits,
        )
    };
    assert_ne!(run(p1), run(p2));
    let distinct: std::collections::BTreeSet<u64> = (0..DRAWS)
        .map(|d| {
            let cell = &w.cells(d)[0];
            reference_ns(w, cell).expect("every draw has a reference")
        })
        .collect();
    assert!(distinct.len() > 1, "draws give different makespans");
}

#[test]
fn every_cell_has_a_reference() {
    for w in Workload::ALL {
        let draws = if w.seeded() { DRAWS } else { 1 };
        let mut n = 0;
        for d in 0..draws {
            for cell in w.cells(d) {
                assert!(
                    reference_ns(w, &cell).is_some(),
                    "{} {}",
                    w.name(),
                    cell.label
                );
                n += 1;
            }
        }
        let lines = reference_text(w)
            .lines()
            .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
            .count();
        assert_eq!(lines, n, "{}: stale reference lines", w.name());
    }
}

/// The Figure 9 Cori tables as printed by `fig9 --scale full`.
fn printed_fig9(op_title: &str) -> Vec<(String, Vec<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/figures_full.txt");
    let text = std::fs::read_to_string(path).expect("results/figures_full.txt");
    let header = format!("=== Figure 9 (Cori): {op_title} time vs message size, 1024 ranks ===");
    let mut lines = text.lines().skip_while(|l| l.trim() != header).skip(2);
    let mut rows = Vec::new();
    for line in lines.by_ref() {
        if line.starts_with("speedup") {
            break;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        let n = cols.len();
        rows.push((
            cols[..n - 7].join(" "),
            cols[n - 7..].iter().map(|s| s.to_string()).collect(),
        ));
    }
    rows
}

#[test]
fn fig9_reference_matches_the_printed_tables() {
    for (w, title) in [
        (Workload::Fig9Bcast, "Broadcast"),
        (Workload::Fig9Reduce, "Reduce"),
    ] {
        let rows = printed_fig9(title);
        assert_eq!(rows.len(), 4, "{title}: four library rows");
        let cells = w.cells(0);
        for (i, (lib, printed)) in rows.iter().enumerate() {
            for (j, want) in printed.iter().enumerate() {
                let cell = &cells[i * 7 + j];
                let key = lib.to_lowercase().replace(' ', "-");
                assert!(cell.label.contains(&key), "{} vs {lib}", cell.label);
                let ns = reference_ns(w, cell).unwrap();
                assert_eq!(&format!("{:.3}ms", ns as f64 / 1e6), want, "{}", cell.label);
            }
        }
    }
}
