//! The repository benchmark: host-speed metrics of the simulator on four
//! workloads that together are the 28 `run_all` catalog cells, plus a
//! traced run that splits host time by simulator layer.
//!
//! ```text
//! perf run <workload> [seed=N] [seconds=S] [out=PATH]     end-to-end metrics
//! perf trace <workload> [seed=N] [seconds=S] [out=PATH]   per-layer split
//! perf compare A.jsonl B.jsonl                            parent vs change
//! perf --workload W --seed N --seconds S --trace 0|1      = run (0) / trace (1)
//! ```
//!
//! Workloads: `remap-gather`, `direct-miss`, `tiled-compute`, `tiered`.
//! `run` and `trace` append one result record to `out=` (default
//! `target/perf/<command>-<workload>.jsonl`) and print, as their last line,
//! `{"correct", "attempted", "failed", "metrics"}`. Every report is checked
//! (see [`run::Checker`]); any mismatch makes the exit code nonzero. See
//! `README.md` for the metrics, the calibration and the layer map.
//!
//! Run from the repository root:
//! `cargo run --release --example perf -- run remap-gather`, or as its own
//! package: `cargo run --release --manifest-path examples/perf/Cargo.toml -- ...`.

mod calib;
mod cells;
mod compare;
mod run;
mod stats;
mod trace;

use std::io::Write;
use std::process::{Command, ExitCode};

use impulse_obs::Json;

use cells::{Workload, DEFAULT_SEED};
use run::{Checker, END_TO_END};

const USAGE: &str = "usage: perf run|trace <workload> [seed=N] [seconds=S] [out=PATH]
       perf compare A.jsonl B.jsonl
       perf --workload W --seed N --seconds S --trace 0|1
workloads: remap-gather, direct-miss, tiled-compute, tiered";

/// Measurement time of a run when none is given: the `run_seconds` of the
/// repository's `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// A parsed command line: positional words and `key=value` / `--key value`
/// options.
struct Args {
    words: Vec<String>,
    opts: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut words, mut opts) = (Vec::new(), Vec::new());
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = raw.next().ok_or(format!("--{key} needs a value"))?;
                opts.push((key.to_string(), value));
            } else if let Some((k, v)) = a.split_once('=') {
                opts.push((k.to_string(), v.to_string()));
            } else {
                words.push(a);
            }
        }
        Ok(Self { words, opts })
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.opts
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn check_keys(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .opts
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option `{k}`")),
            None => Ok(()),
        }
    }
}

/// A checked `run`/`trace` request.
struct Request {
    traced: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: String,
}

fn request(args: &Args) -> Result<Request, String> {
    args.check_keys(&["workload", "seed", "seconds", "trace", "out"])?;
    let mut words = args.words.iter().map(String::as_str);
    let traced = match (words.next(), args.opt("trace")) {
        (Some("run"), None) => false,
        (Some("trace"), None) => true,
        (None, Some("0")) => false,
        (None, Some("1")) => true,
        _ => return Err("expected `run`, `trace` or `--trace 0|1`".into()),
    };
    let name = words
        .next()
        .or(args.opt("workload"))
        .ok_or("missing workload")?;
    if words.next().is_some() {
        return Err("too many arguments".into());
    }
    let workload = Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = match args.opt("seed") {
        Some(s) => s.parse().map_err(|_| format!("bad seed `{s}`"))?,
        None => DEFAULT_SEED,
    };
    let seconds = match args.opt("seconds") {
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0 && *x <= 3600.0)
            .ok_or(format!("bad seconds `{s}` (0 < s <= 3600)"))?,
        None => DEFAULT_SECONDS,
    };
    let command = if traced { "trace" } else { "run" };
    let out = args.opt("out").map_or_else(
        || format!("target/perf/{command}-{}.jsonl", workload.name()),
        str::to_string,
    );
    Ok(Request {
        traced,
        workload,
        seed,
        seconds,
        out,
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    if args.words.first().map(String::as_str) == Some("compare") {
        if args.words.len() != 3 || !args.opts.is_empty() {
            return usage_error("compare takes exactly two files");
        }
        return match compare::compare(&args.words[1], &args.words[2]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => {
                eprintln!("regression beyond a bound");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let req = match request(&args) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    let mut check = match Checker::new(req.seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (record, metrics) = if req.traced {
        traced(&req, &mut check)
    } else {
        end_to_end(&req, &mut check)
    };
    finish(&req, record, metrics, &check)
}

fn usage_error(e: &str) -> ExitCode {
    eprintln!("error: {e}\n{USAGE}");
    ExitCode::from(2)
}

/// `perf run`: the record and the final line's metric map.
fn end_to_end(req: &Request, check: &mut Checker) -> (Json, Json) {
    let s = run::measure(req.workload, req.seed, req.seconds, check);
    let rss = run::peak_rss_mb();
    let mut metrics = Json::obj();
    let mut last = Json::obj();
    for def in &END_TO_END {
        let values = match def.name {
            "maccess_per_s" => s.maccess_per_s.clone(),
            "pass_s" => s.pass_s.clone(),
            "setup_s" => s.setup_s.clone(),
            "peak_rss_mb" => vec![rss],
            other => unreachable!("no samples for {other}"),
        };
        let value = stats::median(&values);
        println!(
            "{:<14} {value:>12.4} {:<7} (n={}, {} is better)",
            def.name,
            def.unit,
            values.len(),
            def.better.name()
        );
        metrics.set(def.name, run::summarize(def, &values));
        last.set(def.name, value_unit(value, def.unit));
    }
    let mut context = Json::obj();
    context.set("raw_pass_s", Json::Float(stats::median(&s.raw_pass_s)));
    context.set(
        "raw_maccess_per_s",
        Json::Float(stats::median(&s.raw_maccess_per_s)),
    );
    context.set("accesses_per_pass", Json::UInt(s.accesses_per_pass));
    println!(
        "context: raw {:.4} s/pass, raw {:.3} Macc/s, {} accesses/pass, calibration {:.3} ms (ref {} ms)",
        stats::median(&s.raw_pass_s),
        stats::median(&s.raw_maccess_per_s),
        s.accesses_per_pass,
        stats::median(&s.calib_ms),
        calib::CALIB_REF_MS
    );
    let mut samples = Json::obj();
    for (k, v) in [
        ("pass_s", &s.pass_s),
        ("setup_s", &s.setup_s),
        ("maccess_per_s", &s.maccess_per_s),
        ("calib_ms", &s.calib_ms),
    ] {
        samples.set(k, Json::Arr(v.iter().map(|&x| Json::Float(x)).collect()));
    }
    let mut record = header(req, s.pass_s.len(), &s.calib_ms);
    record.set("metrics", metrics);
    record.set("context", context);
    record.set("samples", samples);
    (record, last)
}

/// `perf trace`: the record and the final line's metric map.
fn traced(req: &Request, check: &mut Checker) -> (Json, Json) {
    let t = trace::measure(req.workload, req.seed, req.seconds, check);
    let mut metrics = Json::obj();
    for (&(name, unit), &(_, value)) in trace::PER_LAYER.iter().zip(&t.metrics) {
        println!("{name:<28} {value:>14.6} {unit}");
        metrics.set(name, value_unit(value, unit));
    }
    let mut record = header(req, t.passes, &[]);
    record.set("metrics", metrics.clone());
    record.set(
        "cells",
        Json::Arr(t.cells.iter().map(trace::CellTrace::json).collect()),
    );
    (record, metrics)
}

fn value_unit(value: f64, unit: &str) -> Json {
    let mut o = Json::obj();
    o.set("value", Json::Float(value));
    o.set("unit", Json::Str(unit.into()));
    o
}

/// The run metadata every record carries.
fn header(req: &Request, passes: usize, calib_ms: &[f64]) -> Json {
    let mut r = Json::obj();
    r.set("schema", Json::Str("impulse-perf-v1".into()));
    r.set(
        "command",
        Json::Str(if req.traced { "trace" } else { "run" }.into()),
    );
    r.set("workload", Json::Str(req.workload.name().into()));
    r.set("seed", Json::UInt(req.seed));
    r.set("seconds", Json::Float(req.seconds));
    r.set("passes", Json::UInt(passes as u64));
    r.set("warmup_passes", Json::UInt(u64::from(!req.traced)));
    r.set("host", host());
    let (rev, dirty) = git();
    let mut g = Json::obj();
    g.set("rev", rev.map_or(Json::Null, Json::Str));
    g.set("dirty", dirty.map_or(Json::Null, Json::Bool));
    r.set("git", g);
    let mut c = Json::obj();
    c.set("ref_ms", Json::Float(calib::CALIB_REF_MS));
    if !calib_ms.is_empty() {
        let (q1, q3) = stats::quartiles(calib_ms);
        c.set("median_ms", Json::Float(stats::median(calib_ms)));
        c.set("iqr_ms", Json::Float(q3 - q1));
        c.set("n", Json::UInt(calib_ms.len() as u64));
    }
    r.set("calibration", c);
    r
}

/// Host fingerprint: CPU count, CPU model and compiler version.
fn host() -> Json {
    let mut h = Json::obj();
    h.set(
        "nproc",
        Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
    );
    let model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    h.set("cpu_model", model.map_or(Json::Null, Json::Str));
    h.set(
        "rustc",
        stdout_of(Command::new("rustc").arg("-V")).map_or(Json::Null, Json::Str),
    );
    h
}

/// The checkout's git revision and whether its tree is dirty; `None` when
/// the benchmark does not run inside a git work tree.
fn git() -> (Option<String>, Option<bool>) {
    let git = |args: &[&str]| {
        let mut cmd = Command::new("git");
        cmd.args(args);
        // Never look for a repository above the working directory.
        if let Some(parent) = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
        stdout_of(&mut cmd)
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    (rev, dirty)
}

/// Runs a program to completion; its trimmed stdout on success.
fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(std::process::Stdio::null()).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Appends the record to `out=`, prints failures and the final line.
fn finish(req: &Request, mut record: Json, metrics: Json, check: &Checker) -> ExitCode {
    let failed = check.failed();
    let correct = failed == 0;
    let failed_frac = failed as f64 / check.attempted.max(1) as f64;
    record.set("attempted", Json::UInt(check.attempted));
    record.set("failed", Json::UInt(failed));
    record.set("failed_frac", Json::Float(failed_frac));
    record.set(
        "failures",
        Json::Arr(check.failures.iter().cloned().map(Json::Str).collect()),
    );
    record.set("correct", Json::Bool(correct));
    for f in &check.failures {
        println!("FAILED: {f}");
    }
    println!(
        "failed_frac {failed_frac} ({failed} of {} cell runs)",
        check.attempted
    );
    let written = append_line(&req.out, &record.to_string());
    match &written {
        Ok(()) => println!("record appended to {}", req.out),
        Err(e) => eprintln!("error: cannot write {}: {e}", req.out),
    }
    let mut last = Json::obj();
    last.set("correct", Json::Bool(correct));
    last.set("attempted", Json::UInt(check.attempted));
    last.set("failed", Json::UInt(failed));
    last.set("metrics", metrics);
    println!("{last}");
    if correct && written.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.flush()
}
