//! Command line of the paper-artefact benchmark.
//!
//! ```text
//! cargo run --release --manifest-path paperbench/Cargo.toml -- \
//!     --workload fig9_bcast_cori1024 --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path paperbench/Cargo.toml -- \
//!     --workload fig9_bcast_cori1024 --emit-reference
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use adapt_paperbench::report::{counted_signature, replay_mismatches};
use adapt_paperbench::{end_to_end, execute, per_layer, Metric, Mode, Pass, Workload, DRAWS};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    emit_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut emit_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-reference" {
            emit_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or(format!("--workload is one of {}", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        emit_reference,
    })
}

/// Print every cell's makespan in the reference format.
fn emit_reference(w: Workload) {
    println!("# {}: <draw> <cell> <makespan_ns>", w.name());
    let draws = if w.seeded() { DRAWS } else { 1 };
    for draw in 0..draws {
        for cell in w.cells(draw) {
            let res = execute(&cell, Mode::Plain)
                .result
                .unwrap_or_else(|e| panic!("{}: {e}", cell.label));
            assert!(res.audit.is_clean(), "{}: {}", cell.label, res.audit);
            println!("{draw} {} {}", cell.label, res.makespan.as_nanos());
        }
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if args.emit_reference {
        emit_reference(w);
        return ExitCode::SUCCESS;
    }

    // Plain runs repeat plain passes; traced runs alternate a plain pass
    // (the overhead base) with a traced one. A run stops at the pass
    // boundary nearest the budget, so its length does not depend on how
    // long one pass takes.
    let budget = args.seconds as f64;
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    loop {
        let round = Instant::now();
        plain.push(Pass::run(w, args.seed, Mode::Plain));
        if args.trace {
            traced.push(Pass::run(w, args.seed, Mode::Traced));
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + round.elapsed().as_secs_f64() / 2.0 >= budget {
            break;
        }
    }

    let mut problems = Vec::new();
    for pass in plain.iter().chain(&traced) {
        for c in &pass.cells {
            if let Some(f) = &c.failure {
                problems.push(format!("{}: {f}", c.label));
            }
        }
    }
    if let Some(first) = traced.first() {
        let sig = counted_signature(first);
        if traced.iter().any(|p| counted_signature(p) != sig) {
            problems.push("counted work differs between traced passes".into());
        }
        for (t, p) in first.cells.iter().zip(&plain[0].cells) {
            if (t.makespan_ns, t.stats) != (p.makespan_ns, p.stats) {
                problems.push(format!("{}: traced cell differs from plain cell", t.label));
            }
        }
        for m in replay_mismatches(first) {
            eprintln!("paperbench: replay differs: {m}");
        }
    }
    for p in &problems {
        eprintln!("paperbench: FAILED {p}");
    }

    let metrics = if args.trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain)
    };
    let attempted: usize = plain.iter().chain(&traced).map(|p| p.cells.len()).sum();
    let failed: usize = plain.iter().chain(&traced).map(Pass::failed).sum();
    println!(
        "workload {} seed {} ({} plain + {} traced passes of {} cells)",
        w.name(),
        args.seed,
        plain.len(),
        traced.len(),
        plain[0].cells.len()
    );
    for m in &metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        let err = plain.iter().map(Pass::max_err_pct).fold(0.0, f64::max);
        println!(
            "  {:<34} {err:>16.6} % (any deviation fails its cell)",
            "sim_err_pct"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        problems.is_empty(),
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
