//! Tests of the repository benchmark in `examples/perf`, built from the
//! benchmark's own sources so that the tier-1 `cargo test` covers them:
//!
//! - its 28 cell declarations reproduce `results/run_all.json` report for
//!   report (drift between the `run_all` catalog and the benchmark fails
//!   here, not silently in a perf record);
//! - the order statistics and the change verdict;
//! - a traced run replays its streams exactly on two small cells, and its
//!   self shares add up to one.

// `results/run_all.json` is read relative to the working directory, which
// cargo sets to the repository root for integration tests.
#[allow(dead_code)]
#[path = "../../examples/perf/calib.rs"]
mod calib;
#[allow(dead_code)]
#[path = "../../examples/perf/cells.rs"]
mod cells;
#[allow(dead_code)]
#[path = "../../examples/perf/run.rs"]
mod run;
#[allow(dead_code)]
#[path = "../../examples/perf/stats.rs"]
mod stats;
#[allow(dead_code)]
#[path = "../../examples/perf/trace.rs"]
mod trace;

use std::collections::HashSet;

use impulse_sim::Machine;

use cells::{Cell, Workload, DEFAULT_SEED};
use run::Checker;
use stats::{Better, Verdict};

#[test]
fn cells_reproduce_run_all_json() {
    let mut check = Checker::new(DEFAULT_SEED).expect("reference document");
    let mut names = HashSet::new();
    for w in Workload::ALL {
        for cell in w.cells(DEFAULT_SEED) {
            let mut m = Machine::new(&cell.cfg);
            let run = (cell.setup)(&mut m);
            run(&mut m);
            check.check(w.name(), &m.report(cell.name.clone()));
            assert!(names.insert(cell.name), "cell declared twice");
        }
    }
    assert!(check.failures.is_empty(), "{:#?}", check.failures);
    let text = std::fs::read_to_string(Checker::REFERENCE).expect("reference document");
    let reference = run::reference_reports(&text).expect("reference parses");
    assert_eq!(check.attempted, 28);
    assert_eq!(
        names,
        reference.keys().cloned().collect::<HashSet<_>>(),
        "the workloads must cover exactly the catalog"
    );
}

#[test]
fn a_changed_report_is_named_as_a_failure() {
    let cell = Workload::DirectMiss
        .cells(DEFAULT_SEED)
        .into_iter()
        .find(|c| c.name.starts_with("fig1/"))
        .expect("fig1 cell");
    let mut m = Machine::new(&cell.cfg);
    (cell.setup)(&mut m)(&mut m);
    let mut r = m.report(cell.name.clone());
    r.cycles += 1;
    let mut check = Checker::new(DEFAULT_SEED).expect("reference document");
    check.check("pass 1", &r);
    assert_eq!(check.failed(), 1);
    assert!(check.failures[0].contains("fig1/conventional"));

    // Away from the default seed, the first pass is the reference.
    let mut check = Checker::new(7).expect("no reference needed");
    check.check("pass 1", &r);
    check.check("pass 2", &r);
    assert_eq!(check.failed(), 0);
    r.cycles += 1;
    check.check("pass 3", &r);
    assert_eq!(check.failed(), 1);
    assert_eq!(check.attempted, 3);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&v), (2.75, 8.25));
    assert_eq!(stats::median(&v), 5.5);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(stats::quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(stats::quartiles(&[1.0, 2.0]), (0.75, 2.25));
    assert_eq!(stats::quartiles(&[4.0]), (4.0, 4.0));
    // Ties: a constant series has no spread.
    assert_eq!(stats::rel_iqr(&[2.0; 9]), 0.0);
    assert_eq!(stats::median(&[1.0, 5.0, 5.0, 5.0]), 5.0);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    let v: Vec<f64> = (1..=19).map(f64::from).collect();
    assert_eq!(stats::tail(&v, Better::Lower), None, "n < 20 has no tail");
    let v: Vec<f64> = (1..=20).map(f64::from).collect();
    // 10 samples (11..=20) lie beyond the 50th percentile's value 10...
    assert_eq!(stats::tail(&v, Better::Lower), Some((50.0, 10.0)));
    // ...and for a higher-is-better metric the tail is on the low side.
    assert_eq!(stats::tail(&v, Better::Higher), Some((50.0, 11.0)));
    let v: Vec<f64> = (1..=40).map(f64::from).collect();
    assert_eq!(stats::tail(&v, Better::Lower), Some((75.0, 30.0)));
}

#[test]
fn verdicts_follow_the_pair_rule() {
    let a = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02];
    // Every pair won, gap far beyond A's spread: improved (lower is better).
    let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
    assert_eq!(
        stats::verdict(&a, &b, Better::Lower, 0.1),
        Verdict::Improved
    );
    // The same runs are a regression when higher is better.
    assert_eq!(
        stats::verdict(&a, &b, Better::Higher, 0.1),
        Verdict::Regressed
    );
    // Within the bound and no clear win: unchanged.
    let b: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
    assert_eq!(
        stats::verdict(&a, &b, Better::Lower, 0.1),
        Verdict::Unchanged
    );
    // Ties count for neither side: identical runs never improve.
    assert_eq!(stats::pair_wins(&a, &a, Better::Lower), (0, 10));
    assert_eq!(
        stats::verdict(&a, &a, Better::Lower, 0.1),
        Verdict::Unchanged
    );
    // Winning every pair of too few pairs is not a gain either.
    let b: Vec<f64> = a[..3].iter().map(|x| x * 0.8).collect();
    assert_eq!(stats::pair_wins(&a[..3], &b, Better::Lower), (3, 3));
    assert_ne!(
        stats::verdict(&a[..3], &b, Better::Lower, 0.1),
        Verdict::Improved
    );
    // 8 of 10 pairs won is not enough for a gain.
    let mut b: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
    b[0] = 20.0;
    b[1] = 20.0;
    assert_eq!(stats::pair_wins(&a, &b, Better::Lower), (8, 10));
    assert_ne!(
        stats::verdict(&a, &b, Better::Lower, 0.1),
        Verdict::Improved
    );
    // A spread wider than the bound leaves the verdict open...
    let wide = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0];
    let b: Vec<f64> = wide.iter().map(|x| x * 1.2).collect();
    assert_eq!(
        stats::verdict(&wide, &b, Better::Lower, 0.1),
        Verdict::Unresolved
    );
    // ...unless every run of one side reads worse than every run of the other.
    let b: Vec<f64> = wide.iter().map(|x| x + 20.0).collect();
    assert_eq!(
        stats::verdict(&wide, &b, Better::Lower, 0.1),
        Verdict::Regressed
    );
}

fn cell(w: Workload, name: &str) -> Cell {
    w.cells(DEFAULT_SEED)
        .into_iter()
        .find(|c| c.name == name)
        .expect("cell in workload")
}

#[test]
fn traced_replay_is_exact_and_shares_sum_to_one() {
    let cells = [
        cell(Workload::Tiered, "tier/cache/dbscan-gather"),
        cell(Workload::DirectMiss, "dbscan/conventional index fetch"),
    ];
    let mut traces = Vec::new();
    for c in &cells {
        let (_, t) = trace::trace_cell(c, 0.0);
        assert!(t.memsys_exact, "{}: memory-system replay diverged", t.name);
        assert!(t.mc_exact, "{}: controller replay diverged", t.name);
        traces.push(t);
    }
    let metrics = trace::host_metrics(&traces, 1.0);
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("metric present")
    };
    let shares: f64 = metrics
        .iter()
        .filter(|m| m.0.ends_with(".self_share"))
        .map(|m| m.1)
        .sum();
    assert!((shares - 1.0).abs() < 1e-9, "self shares sum to {shares}");
    assert_eq!(get("replay.memsys_exact"), 1.0);
    assert_eq!(get("replay.mc_exact"), 1.0);
    assert_eq!(get("trace.coverage"), 1.0);
    assert!(get("trace.overhead") > 0.0);
    assert!(
        get("core.mc.shadow_ns") > 0.0,
        "the gather cell takes the shadow path"
    );
    assert!(
        get("core.mc.direct_ns") > 0.0,
        "the index fetch takes the direct path"
    );
}
