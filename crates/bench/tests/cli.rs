//! Exit codes of the grid binaries on malformed shared arguments.
//!
//! `run_all` and `sweep` parse the shared vocabulary (`jobs=`, `seed=`,
//! `watchdog_ms=`, `max_retries=`, ...) through `runner::CommonArgs`, so
//! a bad value is a usage error with exit code 2 — never a silently
//! ignored knob, and never a panic. Every run points its outputs into a
//! scratch directory so a binary that wrongly accepts the argument
//! cannot write into the source tree.

use std::path::PathBuf;
use std::process::Command;

/// Runs `bin` with `arg` plus `outputs` (the binary's output-path keys)
/// pointed into a fresh scratch directory; returns the exit code (`None`
/// if killed by a signal).
fn exit_code(bin: &str, name: &str, outputs: &[&str], arg: &str) -> Option<i32> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "impulse-cli-{name}-{}-{}",
        arg.replace('=', "_"),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let at = |file: &str| dir.join(file).display().to_string();
    let out = Command::new(bin)
        .arg(arg)
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
    let outputs = ["out", "json", "journal"];
    for arg in ["max_retries=0", "seed=abc"] {
        assert_eq!(exit_code(bin, "run_all", &outputs, arg), Some(2), "{arg}");
    }
}

/// `run_all` writes the artifacts it is pointed at and nothing else: no
/// stray ledger or timing file lands in its working directory.
#[test]
fn run_all_writes_only_its_three_artifacts() {
    let dir = std::env::temp_dir().join(format!("impulse-cli-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let outputs = ["out", "json", "journal"];
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
    assert_eq!(written, ["journal", "json", "out"]);
}

#[test]
fn sweep_rejects_zero_retries_and_bad_seed() {
    let bin = env!("CARGO_BIN_EXE_sweep");
    for arg in ["max_retries=0", "seed=abc"] {
        assert_eq!(exit_code(bin, "sweep", &["journal"], arg), Some(2), "{arg}");
    }
}
