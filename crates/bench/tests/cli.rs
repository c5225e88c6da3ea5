//! Exit codes of the bench binaries on malformed arguments.
//!
//! Every binary checks its arguments against its usage line — the grid
//! binaries through `runner::CommonArgs`, the table and figure binaries
//! through `Args`, `trace dump`/`trace top` through the same check — so a
//! bad value or a key off the usage line is a usage error with exit code
//! 2: never a silently ignored knob, and never a panic. Every run points
//! its outputs into a scratch directory so a binary that wrongly accepts
//! the argument cannot write into the source tree.

use std::path::PathBuf;
use std::process::Command;

/// Runs `bin` with `args` plus `outputs` (the binary's output-path keys)
/// pointed into a fresh scratch directory, which is also its working
/// directory; returns the exit code (`None` if killed by a signal).
fn exit_code(bin: &str, name: &str, outputs: &[&str], args: &[&str]) -> Option<i32> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "impulse-cli-{name}-{}-{}",
        args.join("_").replace(['=', '/', '.'], "_"),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let at = |file: &str| dir.join(file).display().to_string();
    let out = Command::new(bin)
        .args(args)
        .args(outputs.iter().map(|key| format!("{key}={}", at(key))))
        .current_dir(&dir)
        .output()
        .expect("spawn binary");
    let _ = std::fs::remove_dir_all(&dir);
    out.status.code()
}

#[test]
fn run_all_rejects_zero_retries_and_bad_seed() {
    let bin = env!("CARGO_BIN_EXE_run_all");
    let outputs = ["out", "json"];
    for arg in ["max_retries=0", "seed=abc"] {
        assert_eq!(
            exit_code(bin, "run_all", &outputs, &[arg]),
            Some(2),
            "{arg}"
        );
    }
}

/// A misspelt key and a retired flag are usage errors, not a run of the
/// defaults.
#[test]
fn run_all_rejects_unknown_keys() {
    let bin = env!("CARGO_BIN_EXE_run_all");
    for arg in ["jbos=1", "--resume"] {
        assert_eq!(
            exit_code(bin, "run_all", &["out", "json"], &[arg]),
            Some(2),
            "{arg}"
        );
    }
}

/// `run_all` writes the artifacts it is pointed at and nothing else: no
/// stray ledger, journal or timing file lands in its working directory.
#[test]
fn run_all_writes_only_its_two_artifacts() {
    let dir = std::env::temp_dir().join(format!("impulse-cli-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let outputs = ["out", "json"];
    let status = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(
            outputs
                .iter()
                .map(|key| format!("{key}={}", dir.join(key).display())),
        )
        .current_dir(&dir)
        .output()
        .expect("spawn run_all")
        .status;
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("list scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    written.sort();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(status.success(), "run_all exited with {status}");
    assert_eq!(written, ["json", "out"]);
}

#[test]
fn sweep_rejects_zero_retries_and_bad_seed() {
    let bin = env!("CARGO_BIN_EXE_sweep");
    for arg in ["max_retries=0", "seed=abc"] {
        assert_eq!(exit_code(bin, "sweep", &[], &[arg]), Some(2), "{arg}");
    }
}

/// `tier=` is not on `sweep`'s usage line (its tier sweep is a grid
/// section): a usage error, not a panic.
#[test]
fn sweep_rejects_tier() {
    let bin = env!("CARGO_BIN_EXE_sweep");
    assert_eq!(exit_code(bin, "sweep", &[], &["tier=flat"]), Some(2));
}

/// `run_all` creates both output directories before it runs the grid:
/// a `json=` path under a regular file fails the run and leaves no CSV.
#[test]
fn run_all_bad_json_path_writes_no_csv() {
    let dir = std::env::temp_dir().join(format!("impulse-cli-badjson-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("file"), b"").expect("create regular file");
    let csv = dir.join("x.csv");
    let status = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg(format!("out={}", csv.display()))
        .arg(format!("json={}", dir.join("file/x.json").display()))
        .current_dir(&dir)
        .output()
        .expect("spawn run_all")
        .status;
    let csv_written = csv.exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!status.success(), "run_all exited with {status}");
    assert!(!csv_written, "a failed run_all left its CSV behind");
}

/// The table and figure binaries check their arguments against their
/// usage lines: a retired flag, a misspelt key or a non-integer value is
/// a usage error, not a panic or a run of the defaults.
#[test]
fn table_and_figure_binaries_reject_bad_arguments() {
    let fig1 = env!("CARGO_BIN_EXE_fig1");
    assert_eq!(exit_code(fig1, "fig1", &[], &["--resume"]), Some(2));
    let table1 = env!("CARGO_BIN_EXE_table1");
    for arg in ["rowz=5", "rows=abc"] {
        assert_eq!(exit_code(table1, "table1", &[], &[arg]), Some(2), "{arg}");
    }
}

/// `trace dump`, `top` and `diff` type their values and reject keys off
/// their usage lines before they read a capture (which here does not
/// exist, so a wrongly accepted argument exits 1, not 2).
#[test]
fn trace_dump_top_and_diff_reject_bad_arguments() {
    let trace = env!("CARGO_BIN_EXE_trace");
    for args in [
        &["top", "missing.trace", "k=x"][..],
        &["dump", "missing.trace", "limit=abc"],
        &["top", "missing.trace", "bogus=1"],
        &["diff", "a.trace", "b.trace", "bogus=1"],
    ] {
        assert_eq!(exit_code(trace, "trace", &[], args), Some(2), "{args:?}");
    }
}
