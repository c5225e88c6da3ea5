//! The parallel runner must not perturb simulated results: a `run_all`
//! style collection serialized from a `jobs=1` run and a `jobs=4` run
//! must be **byte-identical** (CSV and JSON). This is the contract that
//! lets `results.csv` / `results/run_all.json` regenerate reproducibly
//! on any host at any worker count.

use impulse_bench::experiments::{csv_document, json_document, run_all_experiments, DEFAULT_SEED};
use impulse_bench::runner;
use impulse_sim::Report;

/// Serializes reports with the builders the `run_all` binary uses.
fn serialize(reports: &[Report]) -> (String, String) {
    let json = format!("{:#}\n", json_document(DEFAULT_SEED, reports));
    (csv_document(reports), json)
}

/// A reduced experiment list (the quick half of the catalog) run at
/// `workers` threads.
fn collect(workers: usize) -> (String, String) {
    let exps: Vec<_> = run_all_experiments(DEFAULT_SEED)
        .into_iter()
        .filter(|e| {
            ["fig1/", "transpose/", "superpage/", "ipc/"]
                .iter()
                .any(|p| e.name().starts_with(p))
        })
        .collect();
    assert_eq!(exps.len(), 8, "reduced list covers four experiment pairs");
    let reports = runner::run_ordered(exps.into_iter().map(|e| move || e.run()).collect(), workers);
    serialize(&reports)
}

#[test]
fn serial_and_parallel_reports_are_byte_identical() {
    let (csv1, json1) = collect(1);
    let (csv4, json4) = collect(4);
    assert_eq!(csv1, csv4, "CSV must not depend on the worker count");
    assert_eq!(json1, json4, "JSON must not depend on the worker count");
    // Sanity: the serialization isn't trivially empty.
    assert!(csv1.lines().count() == 9);
    assert!(json1.contains("impulse-run-all-v1"));
}
