//! The `adapt-cli` binary's command-line contract, driven as a process.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adapt-cli"))
        .args(args)
        .output()
        .expect("spawn adapt-cli")
}

#[test]
fn unknown_flag_exits_2_and_names_it() {
    let out = cli(&["--machine", "mini", "--nodes", "2", "--threads", "4"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("unknown flag --threads"), "{stderr}");
    assert!(stderr.contains("usage: adapt-cli"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs before the rejection");
}

#[test]
fn valid_quick_run_exits_0() {
    let out = cli(&[
        "--machine",
        "mini",
        "--nodes",
        "2",
        "--op",
        "bcast",
        "--msg",
        "4096",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("audit: clean"), "{stdout}");
}

/// Every malformed value is a usage error: exit 2, the usage, the flag
/// and its value named on stderr, no panic, and nothing run.
#[test]
fn malformed_values_exit_2_and_name_the_flag() {
    let base = ["--machine", "mini", "--nodes", "2", "--msg", "4096"];
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let missing = tmp.join("no-such-baseline.json");
    let _ = std::fs::remove_file(&missing);
    let missing = missing.to_str().expect("utf-8 temp path");
    let garbled = tmp.join("garbled-baseline.json");
    std::fs::write(&garbled, "{\"format\": ").expect("write garbled baseline");
    let garbled = garbled.to_str().expect("utf-8 temp path");
    let missing_needle = format!("--diff-against {missing}");
    let garbled_needle = format!("--diff-against {garbled}");
    let cases: &[(&[&str], &str)] = &[
        (&["--diff-against", missing], &missing_needle),
        (&["--diff-against", garbled], &garbled_needle),
        (&["--nodes", "x"], "--nodes x"),
        (&["--nodes", "0"], "--nodes needs at least 1"),
        (&["--msg", "1k"], "--msg 1k"),
        (&["--seed", "-3"], "--seed -3"),
        (&["--noise", "ten"], "--noise ten"),
        (&["--noise", "100"], "--noise 100"),
        (&["--monitor", "0"], "--monitor needs at least 1"),
        (&["--monitor", "fast"], "--monitor fast"),
        (&["--flight", "-1"], "--flight -1"),
        (&["--metrics-interval", "1e4"], "--metrics-interval 1e4"),
        (&["--machine", "summit"], "--machine summit"),
        (&["--lib", "openmpi"], "--lib openmpi"),
        (&["--op", "allgatherv"], "--op allgatherv"),
        (&["--faults", "loss=2"], "--faults loss=2"),
        (&["--watchdog-horizon", "soon"], "--watchdog-horizon soon"),
        (&["--whatif", "faster"], "--whatif faster"),
        (
            &["--summary-out", "s.json", "--critical-path"],
            "pick one side",
        ),
    ];
    for (extra, needle) in cases {
        // Later occurrences of a flag do not override earlier ones, so the
        // malformed value goes first.
        let args: Vec<&str> = extra.iter().chain(base.iter()).copied().collect();
        let out = cli(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains("usage: adapt-cli"), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
}

/// An output path that cannot be written is reported with the flag that
/// named it and exits 2; it never panics.
#[test]
fn unwritable_output_exits_2_and_names_the_flag() {
    let out = cli(&[
        "--machine",
        "mini",
        "--nodes",
        "2",
        "--msg",
        "4096",
        "--trace-out",
        "/nonexistent-dir/x.json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("adapt-cli: cannot write --trace-out /nonexistent-dir/x.json: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A flight dump that cannot be written is reported, and the run keeps
/// its own exit code (3: the watchdog diagnosed a stall).
#[test]
fn unwritable_flight_dump_keeps_the_stall_exit_code() {
    // A directory where the dump file should go makes the write fail.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("flight-blocked");
    std::fs::create_dir_all(dir.join("adapt-flight.json")).expect("create blocking dir");
    let out = Command::new(env!("CARGO_BIN_EXE_adapt-cli"))
        .current_dir(&dir)
        .args([
            "--machine",
            "mini",
            "--nodes",
            "2",
            "--op",
            "bcast",
            "--msg",
            "262144",
            "--faults",
            "stall=2:0-3600s",
            "--watchdog-horizon",
            "1ms",
            "--flight",
            "16",
        ])
        .output()
        .expect("spawn adapt-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr:\n{stderr}");
    assert!(
        stderr.contains("adapt-cli: cannot write flight dump adapt-flight.json: "),
        "{stderr}"
    );
    assert!(stderr.contains("deadlock:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
