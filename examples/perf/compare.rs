//! `perf compare A B`: the parent's runs (A) against the change's runs (B).
//!
//! Each file holds one result record per line, as `perf run` and `perf
//! trace` append them. Run records are paired in file order per workload
//! (run them alternately: A, B, A, B, ...); every end-to-end metric gets
//! both sides' medians and quartiles, B's pair wins and a verdict. Trace
//! records are pooled per workload and their self shares diffed.

use std::collections::BTreeMap;

use impulse_obs::Json;

use crate::stats::{self, Better, Verdict};

/// Reads a file of result records, one JSON object per line.
///
/// # Errors
///
/// Fails on an unreadable file or a malformed line.
pub fn read_records(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// Per workload, per metric: the values of the records of one command, in
/// file order, plus the metric's direction and bound from its first record.
type Series = BTreeMap<String, BTreeMap<String, (Vec<f64>, Better, f64)>>;

fn series(records: &[Json], command: &str) -> Series {
    let mut out = Series::new();
    for r in records {
        if r.get("command").and_then(Json::as_str) != Some(command) {
            continue;
        }
        let (Some(w), Some(Json::Obj(metrics))) =
            (r.get("workload").and_then(Json::as_str), r.get("metrics"))
        else {
            continue;
        };
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(num) else {
                continue;
            };
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .unwrap_or(Better::Lower);
            let bound = m.get("bound").and_then(num).unwrap_or(0.0);
            out.entry(w.to_string())
                .or_default()
                .entry(name.clone())
                .or_insert_with(|| (Vec::new(), better, bound))
                .0
                .push(value);
        }
    }
    out
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Float(x) => Some(*x),
        Json::UInt(n) => Some(*n as f64),
        _ => None,
    }
}

/// Prints the comparison; returns whether any metric regressed.
///
/// # Errors
///
/// Fails when either file cannot be read or parsed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (read_records(a_path)?, read_records(b_path)?);
    let mut regressed = false;

    let (ra, rb) = (series(&a, "run"), series(&b, "run"));
    println!(
        "{:<14} {:<14} {:>30} {:>30} {:>6} verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins"
    );
    for (w, metrics) in &ra {
        let Some(bm) = rb.get(w) else {
            println!("{w:<14} (no runs in {b_path})");
            continue;
        };
        for (name, (av, better, bound)) in metrics {
            let Some((bv, _, _)) = bm.get(name) else {
                continue;
            };
            let v = stats::verdict(av, bv, *better, *bound);
            regressed |= v == Verdict::Regressed;
            let (wins, pairs) = stats::pair_wins(av, bv, *better);
            let side = |xs: &[f64]| {
                let (q1, q3) = stats::quartiles(xs);
                format!("{:.4} [{:.4}, {:.4}]", stats::median(xs), q1, q3)
            };
            println!(
                "{w:<14} {name:<14} {:>30} {:>30} {:>6} {} (bound {:.0}%)",
                side(av),
                side(bv),
                format!("{wins}/{pairs}"),
                v.name(),
                bound * 100.0
            );
        }
    }

    let (ta, tb) = (series(&a, "trace"), series(&b, "trace"));
    if !ta.is_empty() {
        println!(
            "\n{:<14} {:<24} {:>9} {:>9} {:>9}",
            "workload", "self share", "A", "B", "B-A"
        );
    }
    for (w, metrics) in &ta {
        let Some(bm) = tb.get(w) else {
            continue;
        };
        for (name, (av, _, _)) in metrics.iter().filter(|(n, _)| n.ends_with(".self_share")) {
            if let Some((bv, _, _)) = bm.get(name) {
                let (ma, mb) = (stats::median(av), stats::median(bv));
                println!(
                    "{w:<14} {name:<24} {:>8.1}% {:>8.1}% {:>+8.1}pp",
                    ma * 100.0,
                    mb * 100.0,
                    (mb - ma) * 100.0
                );
            }
        }
    }
    Ok(regressed)
}
