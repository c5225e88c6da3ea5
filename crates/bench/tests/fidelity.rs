//! The exact-cycle gate: every catalog report at the default seed must
//! match its entry in the committed `results/run_all.json`, byte for byte
//! in compact JSON (simulated cycles, counters, attribution, histograms).
//!
//! The reference is parsed with `impulse_obs::Json` and each report
//! re-serialized compactly, the same reading the `perf` benchmark's
//! checker applies. A simulator change that is meant to move cycles
//! regenerates `results/` in the same change; any other drift fails here
//! by entry name. Each report is serialized through `report_artifacts`,
//! so its attribution and demand-latency invariants are asserted too.

use std::collections::BTreeMap;

use impulse_bench::experiments::{report_artifacts, run_all_experiments, DEFAULT_SEED};
use impulse_bench::runner;
use impulse_obs::Json;

const REFERENCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/run_all.json");

/// Name → compact JSON of every report in the reference document.
fn reference_reports() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(REFERENCE)
        .unwrap_or_else(|e| panic!("cannot read {REFERENCE}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{REFERENCE}: {e}"));
    let reports = doc
        .get("reports")
        .and_then(Json::items)
        .expect("reference has a `reports` array");
    let mut by_name = BTreeMap::new();
    for r in reports {
        let name = r
            .get("name")
            .and_then(Json::as_str)
            .expect("every reference report has a name");
        assert!(
            by_name.insert(name.to_string(), r.to_string()).is_none(),
            "duplicate reference entry {name}"
        );
    }
    by_name
}

#[test]
fn catalog_reproduces_run_all_json_exactly() {
    let mut expected = reference_reports();
    let jobs = run_all_experiments(DEFAULT_SEED)
        .into_iter()
        .map(|e| move || e.run())
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut failures = Vec::new();
    for r in runner::run_ordered(jobs, workers) {
        match expected.remove(&r.name) {
            Some(want) if want == report_artifacts(&r).json.to_string() => {}
            Some(_) => failures.push(format!("{}: differs from the reference", r.name)),
            None => failures.push(format!("{}: no entry in the reference", r.name)),
        }
    }
    for name in expected.keys() {
        failures.push(format!("{name}: in the reference but not in the catalog"));
    }
    assert!(
        failures.is_empty(),
        "{} catalog entries drift from {REFERENCE}:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
