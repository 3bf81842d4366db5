//! Fold passes into the named metrics.

use crate::measure::{CellOutcome, CellTrace, Pass};

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(passes.iter().map(f).collect())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Process peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum over cells of each cell's median across passes: a pass-level
/// figure that a burst of host interference in one pass cannot move.
fn cell_median_sum(passes: &[Pass], f: impl Fn(&CellOutcome) -> f64) -> f64 {
    (0..passes[0].cells.len())
        .map(|i| median(passes.iter().map(|p| f(&p.cells[i])).collect()))
        .sum()
}

/// The end-to-end metrics of the plain passes.
pub fn end_to_end(plain: &[Pass]) -> Vec<Metric> {
    let spec_s = median_of(plain, |p| p.spec_s);
    let run_s = cell_median_sum(plain, |c| c.run_s);
    vec![
        metric("wall_s", "s", spec_s + cell_median_sum(plain, |c| c.wall_s)),
        metric(
            "setup_s",
            "s",
            spec_s + cell_median_sum(plain, |c| c.setup_s),
        ),
        metric(
            "host_ns_per_msg",
            "ns/msg",
            ratio(run_s * 1e9, plain[0].messages() as f64),
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

fn trace_sum(p: &Pass, f: impl Fn(&CellTrace) -> f64) -> f64 {
    p.cells.iter().filter_map(|c| c.trace.as_ref()).map(f).sum()
}

fn stat_sum(p: &Pass, f: impl Fn(&adapt_mpi::WorldStats) -> u64) -> f64 {
    p.cells.iter().map(|c| f(&c.stats) as f64).sum()
}

/// The per-layer metrics of the traced passes; `plain` gives the base of
/// the tracing overhead.
pub fn per_layer(plain: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    let first = &traced[0];
    let t = |f: fn(&CellTrace) -> f64| median_of(traced, |p| trace_sum(p, f));
    let c = |f: fn(&CellTrace) -> f64| trace_sum(first, f);
    let s = |f: fn(&adapt_mpi::WorldStats) -> u64| stat_sum(first, f);

    let messages = s(|st| st.messages);
    let events = s(|st| st.events);
    let flows = c(|x| x.flows as f64);
    let run_s = median_of(traced, Pass::run_s);
    let callback_s = t(|x| x.callback_s);
    let probe_s = t(|x| x.probe_s);
    let replay_s = t(|x| x.replay_s);
    let plain_wall = median_of(plain, Pass::wall_s);
    let traced_wall = median_of(traced, Pass::wall_s);
    vec![
        metric("sim.events", "count", events),
        metric("sim.events_per_msg", "events/msg", ratio(events, messages)),
        metric(
            "sim.causality_violations",
            "count",
            c(|x| x.causality_violations as f64),
        ),
        metric("mpi.run_s", "s", run_s),
        metric("mpi.run_self_s", "s", run_s - callback_s - probe_s),
        metric("mpi.world_build_s", "s", t(|x| x.setup.world_s)),
        metric("mpi.messages", "count", messages),
        metric("mpi.rendezvous", "count", s(|st| st.rendezvous)),
        metric(
            "mpi.unexpected_matches",
            "count",
            s(|st| st.unexpected_matches),
        ),
        metric(
            "mpi.match_probes_per_msg",
            "probes/msg",
            ratio(s(|st| st.match_probes), messages),
        ),
        metric("mpi.retransmits", "count", s(|st| st.retransmits)),
        metric("mpi.acks", "count", s(|st| st.acks)),
        metric(
            "mpi.duplicates_suppressed",
            "count",
            s(|st| st.duplicates_suppressed),
        ),
        metric(
            "mpi.retransmits_per_msg",
            "retx/msg",
            ratio(s(|st| st.retransmits), messages),
        ),
        metric("net.flows", "count", flows),
        metric(
            "net.share_recomputes",
            "count",
            s(|st| st.net_share_recomputes),
        ),
        metric("net.refreshes", "count", s(|st| st.net_refreshes)),
        metric("net.reschedules", "count", s(|st| st.net_reschedules)),
        metric(
            "net.share_recomputes_per_flow",
            "recomputes/flow",
            ratio(s(|st| st.net_share_recomputes), flows),
        ),
        metric(
            "net.reschedule_ratio",
            "resched/refresh",
            ratio(s(|st| st.net_reschedules), s(|st| st.net_refreshes)),
        ),
        metric(
            "net.replay_mismatches",
            "cells",
            replay_mismatches(first).len() as f64,
        ),
        metric("net.replay_s", "s", replay_s),
        metric(
            "net.replay_ns_per_flow",
            "ns/flow",
            ratio(replay_s * 1e9, flows),
        ),
        metric(
            "collectives.programs_s",
            "s",
            t(|x| x.setup.collective_programs_s),
        ),
        metric("collectives.callbacks", "count", c(|x| x.callbacks as f64)),
        metric("collectives.callback_s", "s", callback_s),
        metric(
            "collectives.callback_ns_per_msg",
            "ns/msg",
            ratio(callback_s * 1e9, messages),
        ),
        metric("apps.programs_s", "s", t(|x| x.setup.app_programs_s)),
        metric("noise.model_s", "s", t(|x| x.setup.noise_s)),
        metric("noise.windows", "count", c(|x| x.noise_windows as f64)),
        metric("faults.drops_injected", "count", s(|st| st.drops_injected)),
        metric("obs.probes", "count", c(|x| x.probes as f64)),
        metric("obs.probe_s", "s", probe_s),
        metric("obs.snapshots", "count", c(|x| x.snapshots as f64)),
        metric("obs.alerts", "count", c(|x| x.alerts as f64)),
        metric(
            "trace_overhead_pct",
            "%",
            (ratio(traced_wall, plain_wall) - 1.0) * 100.0,
        ),
        metric(
            "sim_err_pct",
            "%",
            plain
                .iter()
                .chain(traced)
                .map(Pass::max_err_pct)
                .fold(0.0, f64::max),
        ),
    ]
}

/// Counted work of a traced pass, cell by cell: everything that must
/// repeat exactly between two traced runs of the same inputs.
pub fn counted_signature(p: &Pass) -> Vec<String> {
    p.cells
        .iter()
        .map(|c| {
            let t = c.trace.clone().unwrap_or_default();
            format!(
                "{} {} {:?} flows={} windows={} probes={} snaps={} alerts={} cb={} replay={:?}",
                c.label,
                c.makespan_ns,
                c.stats,
                t.flows,
                t.noise_windows,
                t.probes,
                t.snapshots,
                t.alerts,
                t.callbacks,
                t.replay
            )
        })
        .collect()
}

/// Cells whose replay counters differ from the world's network counters.
pub fn replay_mismatches(p: &Pass) -> Vec<String> {
    p.cells
        .iter()
        .filter_map(|c| {
            let r = c.trace.as_ref()?.replay;
            let st = &c.stats;
            let world = (
                st.net_share_recomputes,
                st.net_refreshes,
                st.net_reschedules,
            );
            let ours = (
                r.perf.share_recomputes,
                r.perf.refreshes,
                r.perf.reschedules,
            );
            (world != ours).then(|| {
                format!(
                    "{}: world (recomputes, refreshes, reschedules) = {world:?}, replay = {ours:?}",
                    c.label
                )
            })
        })
        .collect()
}
