//! `perf run`: the end-to-end measurement, and the correctness check every
//! pass goes through.
//!
//! A sample is one *pass*: every cell of the workload once, each on a fresh
//! `Machine`, timed phase by phase and bracketed by calibration-kernel runs.
//! One untimed warm-up pass comes first; timed passes then follow in a
//! closed loop on one thread until the run's time budget is spent.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use impulse_obs::Json;
use impulse_sim::{Machine, Report};

use crate::calib::{Calibrator, CALIB_REF_MS};
use crate::cells::{Workload, DEFAULT_SEED};
use crate::stats::{self, Better};

/// One end-to-end metric: name, unit, direction and regression bound (the
/// share of the parent's median by which it may get worse).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics, identical on every workload. The time bounds
/// cover the 10–16% by which normalized medians moved between a contended
/// and a quiet hour on the reference host; `setup_s` carries the largest
/// bound because its few-millisecond samples are the noisiest.
pub const END_TO_END: [MetricDef; 4] = [
    MetricDef {
        name: "maccess_per_s",
        unit: "Macc/s",
        better: Better::Higher,
        bound: 0.20,
    },
    MetricDef {
        name: "pass_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// Checks every report a pass produces:
///
/// - the attribution invariant (stage sum equals demand cycles);
/// - at the default seed, byte equality of the compact `Report::to_json()`
///   with the cell's entry in `results/run_all.json`;
/// - at any other seed, equality with the first pass's report.
///
/// Each mismatch is named and counted; none aborts the run.
pub struct Checker {
    expected: HashMap<String, String>,
    from_reference: bool,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checker {
    /// The reference document the default seed is checked against,
    /// relative to the repository root the benchmark runs from.
    pub const REFERENCE: &'static str = "results/run_all.json";

    /// # Errors
    ///
    /// At the default seed, fails if the reference document is missing or
    /// malformed.
    pub fn new(seed: u64) -> Result<Self, String> {
        let expected = if seed == DEFAULT_SEED {
            let text = std::fs::read_to_string(Self::REFERENCE)
                .map_err(|e| format!("cannot read {}: {e}", Self::REFERENCE))?;
            reference_reports(&text)?
        } else {
            HashMap::new()
        };
        Ok(Self {
            from_reference: seed == DEFAULT_SEED,
            expected,
            attempted: 0,
            failures: Vec::new(),
        })
    }

    pub fn check(&mut self, pass: &str, r: &Report) {
        self.attempted += 1;
        let demand = r.mem.load_cycles + r.mem.store_cycles;
        if r.attr.total() != demand {
            self.failures.push(format!(
                "{pass}: {}: attribution stages sum to {} but demand cycles are {demand}",
                r.name,
                r.attr.total()
            ));
            return;
        }
        let got = canonical(r);
        match self.expected.get(&r.name) {
            Some(want) if *want == got => {}
            Some(_) => {
                let against = if self.from_reference {
                    Self::REFERENCE
                } else {
                    "the first pass"
                };
                self.failures
                    .push(format!("{pass}: {}: report differs from {against}", r.name));
            }
            None if self.from_reference => self.failures.push(format!(
                "{pass}: {}: no entry in {}",
                r.name,
                Self::REFERENCE
            )),
            None => {
                self.expected.insert(r.name.clone(), got);
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// A report's compact JSON without the flight recorder's own `mc.flight.*`
/// counters: recording is observability, not a result, and traced runs keep
/// the recorder on.
fn canonical(r: &Report) -> String {
    let mut j = r.to_json();
    if let Json::Obj(fields) = &mut j {
        for (key, value) in fields.iter_mut() {
            if let (true, Json::Obj(counters)) = (key == "counters", value) {
                counters.retain(|(name, _)| !name.starts_with("mc.flight."));
            }
        }
    }
    j.to_string()
}

/// Name → compact JSON of every report in a `run_all.json` document.
///
/// # Errors
///
/// Fails on malformed JSON or a document without a `reports` array.
pub fn reference_reports(text: &str) -> Result<HashMap<String, String>, String> {
    let doc = Json::parse(text)?;
    let reports = doc
        .get("reports")
        .and_then(Json::items)
        .ok_or("reference has no `reports` array")?;
    reports
        .iter()
        .map(|r| {
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or("reference report without a name")?;
            Ok((name.to_string(), r.to_string()))
        })
        .collect()
}

/// Host-second timings of one pass.
struct Pass {
    wall: Duration,
    setup: Duration,
    measured: Duration,
    accesses: u64,
}

/// Runs every cell of `w` once on fresh machines and checks the reports.
fn pass(w: Workload, seed: u64, label: &str, check: &mut Checker) -> Pass {
    let t0 = Instant::now();
    let cells = w.cells(seed);
    let mut setup = t0.elapsed();
    let mut measured = Duration::ZERO;
    let mut reports = Vec::with_capacity(cells.len());
    for cell in &cells {
        let t = Instant::now();
        let mut m = Machine::new(&cell.cfg);
        let run = (cell.setup)(&mut m);
        let t1 = Instant::now();
        setup += t1 - t;
        run(&mut m);
        measured += t1.elapsed();
        reports.push(m.report(cell.name.clone()));
    }
    let wall = t0.elapsed();
    for r in &reports {
        check.check(label, r);
    }
    Pass {
        wall,
        setup,
        measured,
        accesses: reports.iter().map(|r| r.mem.loads + r.mem.stores).sum(),
    }
}

/// Normalized samples of a run, one entry per timed pass.
pub struct RunSamples {
    pub pass_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub maccess_per_s: Vec<f64>,
    pub raw_pass_s: Vec<f64>,
    pub raw_maccess_per_s: Vec<f64>,
    pub calib_ms: Vec<f64>,
    pub accesses_per_pass: u64,
}

/// Warm-up pass, then timed passes until `seconds` of measurement are
/// spent (at least one).
pub fn measure(w: Workload, seed: u64, seconds: f64, check: &mut Checker) -> RunSamples {
    let mut cal = Calibrator::new();
    cal.run_ms(); // first touch of the kernel's code and data
    pass(w, seed, "warm-up", check);
    let mut s = RunSamples {
        pass_s: Vec::new(),
        setup_s: Vec::new(),
        maccess_per_s: Vec::new(),
        raw_pass_s: Vec::new(),
        raw_maccess_per_s: Vec::new(),
        calib_ms: Vec::new(),
        accesses_per_pass: 0,
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut before = cal.run_ms();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        let p = pass(w, seed, &format!("pass {}", s.pass_s.len() + 1), check);
        let after = cal.run_ms();
        longest = longest.max(t.elapsed());
        let calib = (before + after) / 2.0;
        before = after;
        let norm = CALIB_REF_MS / calib;
        let macc = p.accesses as f64 / 1e6;
        s.pass_s.push(p.wall.as_secs_f64() * norm);
        s.setup_s.push(p.setup.as_secs_f64() * norm);
        s.maccess_per_s
            .push(macc / (p.measured.as_secs_f64() * norm));
        s.raw_pass_s.push(p.wall.as_secs_f64());
        s.raw_maccess_per_s.push(macc / p.measured.as_secs_f64());
        s.calib_ms.push(calib);
        s.accesses_per_pass = p.accesses;
        if start.elapsed() + longest > budget {
            return s;
        }
    }
}

/// The `VmHWM` line of `/proc/self/status`, in MB (0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric's summary over a run's samples: median, quartiles, sample
/// count and the tail percentile (when there are enough samples).
pub fn summarize(def: &MetricDef, values: &[f64]) -> Json {
    let (q1, q3) = stats::quartiles(values);
    let mut o = Json::obj();
    o.set("value", Json::Float(stats::median(values)));
    o.set("unit", Json::Str(def.unit.into()));
    o.set("better", Json::Str(def.better.name().into()));
    o.set("bound", Json::Float(def.bound));
    o.set("q1", Json::Float(q1));
    o.set("q3", Json::Float(q3));
    o.set("n", Json::UInt(values.len() as u64));
    o.set(
        "tail",
        match stats::tail(values, def.better) {
            Some((pct, v)) => {
                let mut t = Json::obj();
                t.set("percentile", Json::Float(pct));
                t.set("value", Json::Float(v));
                t
            }
            None => Json::Null,
        },
    );
    o
}
