//! `throughput-gate`'s command line: a usage error exits 2 with its message
//! and the usage before anything is measured, an I/O error exits 1 naming
//! the path, and `--record` appends under a run id no other run reserved.

use std::process::{Command, Output};

fn gate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_throughput-gate"))
        .args(args)
        .env("CDF_GIT_COMMIT", "gate0000")
        .env("CDF_GIT_DIRTY", "0")
        .output()
        .expect("binary runs")
}

#[test]
fn usage_errors_exit_2_before_anything_is_measured() {
    for (args, message) in [
        (&["--bles"][..], "unknown flag `--bles`"),
        (&["--help"], "unknown flag `--help`"),
        (&["--tolerence", "0.5"], "unknown flag `--tolerence`"),
        (
            &["--tolerance", "abc"],
            "invalid value `abc` for --tolerance",
        ),
        (&["--tolerance"], "missing value for --tolerance"),
        (&["--full", "--full"], "--full given twice"),
        (&["extra"], "unexpected argument `extra`"),
    ] {
        let out = gate(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} measured anyway");
    }
}

/// One measured run: `--record` must skip the ordinal an in-flight
/// producer reserved (marker `r0007`, empty store), and the unwritable
/// `--profile-out` path that follows exits 1 naming it, not a panic.
#[test]
fn record_respects_reserved_run_ids_and_io_errors_exit_1() {
    let dir = std::env::temp_dir().join(format!("cdf-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("results.jsonl.runs")).unwrap();
    std::fs::write(dir.join("results.jsonl.runs/r0007"), "").unwrap();
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let profile_out = path("missing/profiles.json");
    let out = gate(&[
        "--record",
        "--store",
        &path("results.jsonl"),
        "--baseline",
        &path("no-baseline.json"),
        "--profile-out",
        &profile_out,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("writing {profile_out}")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let store = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
    assert!(!store.is_empty());
    for line in store.lines() {
        assert!(line.contains("\"run_id\":\"r0008-gate0000\""), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
