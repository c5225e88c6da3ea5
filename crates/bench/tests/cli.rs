//! Exit codes of the bench binaries on malformed arguments.
//!
//! Every binary checks its arguments against its usage line through
//! `runner::Args`, so a bad value or a key off the usage line is a usage
//! error with exit code 2: never a silently ignored knob, and never a
//! panic. Every run points its outputs into a scratch directory so a
//! binary that wrongly accepts the argument cannot write into the source
//! tree.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Runs `bin` with `args` plus `outputs` (the binary's output-path keys)
/// pointed into a fresh scratch directory, which is also its working
/// directory; returns the exit code (`None` if killed by a signal).
fn exit_code(bin: &str, name: &str, outputs: &[&str], args: &[&str]) -> Option<i32> {
    run(bin, name, outputs, args).status.code()
}

/// [`exit_code`], returning the whole output.
fn run(bin: &str, name: &str, outputs: &[&str], args: &[&str]) -> Output {
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
    out
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

/// `record` is `trace`'s only subcommand: any other, or none, is a
/// usage error that prints the one usage line.
#[test]
fn trace_rejects_every_subcommand_but_record() {
    let trace = env!("CARGO_BIN_EXE_trace");
    for args in [&[][..], &["dump", "x.trace"], &["top", "x.trace"]] {
        let out = run(trace, "trace", &[], args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr,
            "usage: trace record [dir=results/trace] [seed=N] [jobs=N] [flight=N] [top=N]\n"
        );
    }
}

/// `out=` is not on `chaos`'s usage line (it writes its two documents
/// into `dir=`): a usage error, not a run of the defaults.
#[test]
fn chaos_rejects_the_retired_out_key() {
    let bin = env!("CARGO_BIN_EXE_chaos");
    let out = run(bin, "chaos", &["dir"], &["out=chaos.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown argument `out=chaos.json`"),
        "{stderr}"
    );
}

/// `chaos` creates `dir=` before it runs a case: a directory it cannot
/// create is an error (exit 1), not a panic, and nothing is written.
#[test]
fn chaos_bad_dir_is_an_error_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("impulse-cli-chaosdir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("file"), b"").expect("create regular file");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .arg(format!("dir={}", dir.join("file/x").display()))
        .current_dir(&dir)
        .output()
        .expect("spawn chaos");
    let written = std::fs::read_dir(&dir).expect("list scratch dir").count();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert_eq!(written, 1, "only the regular file is left");
    assert!(out.stdout.is_empty(), "no case ran");
}

/// `trace record` reports a directory it cannot create as an error
/// (exit 1), as `run_all` does, instead of panicking.
#[test]
fn trace_record_bad_dir_is_an_error() {
    let dir = std::env::temp_dir().join(format!("impulse-cli-tracedir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("file"), b"").expect("create regular file");
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .arg("record")
        .arg(format!("dir={}", dir.join("file/x").display()))
        .current_dir(&dir)
        .output()
        .expect("spawn trace");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error:"), "{stderr}");
}

/// A reader that is gone before the first line (`ablation_dram | head
/// -0`) or right after it (`streambuf | head -1`: `streambuf` prints its
/// banner before it runs its cells, so it is mid-way through its output)
/// costs a printing binary its output and nothing else: it runs to
/// completion and exits 0, with nothing on stderr. `table2` prints
/// through the shared table printer, `ablation_dram`, `chaos` and
/// `streambuf` line by line (`chaos` still writes both documents).
#[test]
fn printing_binaries_exit_zero_on_a_closed_pipe() {
    let dir = std::env::temp_dir().join(format!("impulse-cli-chaospipe-{}", std::process::id()));
    let chaos_dir = format!("dir={}", dir.display());
    for (bin, args, read_first) in [
        (
            env!("CARGO_BIN_EXE_ablation_dram"),
            &["batches=100", "jobs=1"][..],
            false,
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["n=64", "tile=16"][..],
            false,
        ),
        (
            env!("CARGO_BIN_EXE_chaos"),
            &[chaos_dir.as_str()][..],
            false,
        ),
        (env!("CARGO_BIN_EXE_streambuf"), &[][..], true),
    ] {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn binary");
        let mut stdout = child.stdout.take().expect("piped stdout");
        if read_first {
            let mut first = String::new();
            BufReader::new(&mut stdout)
                .read_line(&mut first)
                .expect("read the first line");
            assert!(!first.is_empty(), "{bin}: no first line");
        }
        drop(stdout); // The reader is gone: the pipe is closed.
        let out = child.wait_with_output().expect("wait for binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{bin}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
    let written = ["chaos.json", "chaos_tier.json"].map(|f| dir.join(f).exists());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, [true, true]);
}
