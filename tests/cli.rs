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
