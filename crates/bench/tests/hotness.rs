//! Observability acceptance tests over the full `run_all` catalog:
//! every experiment's flight capture round-trips bit-exactly, and the
//! heatmap's `hot` list is exactly [`flight::exact_top`] over the
//! decoded capture (the list is built from the same ring the capture
//! encodes, so the capture *is* the ground truth).

use impulse_bench::experiments::{run_all_experiments_obs, ObsSpec, DEFAULT_SEED};
use impulse_core::flight;
use impulse_obs::Json;

/// Large enough that no catalog experiment wraps the ring (the biggest
/// capture at quick scale is the transpose walk at 2^18 events).
const FLIGHT_CAPACITY: usize = 1 << 19;
const TOP_K: usize = 32;

#[test]
fn captures_round_trip_and_hot_list_is_the_exact_ranking() {
    let obs = ObsSpec::recording(FLIGHT_CAPACITY, TOP_K);
    let catalog = run_all_experiments_obs(DEFAULT_SEED, obs);
    assert_eq!(catalog.len(), 28);
    for exp in catalog {
        let name = exp.name().to_string();
        let out = exp.run();

        // Full-fidelity capture: nothing overwritten, decode → encode
        // is bit-exact.
        let cap = flight::decode(&out.capture).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(cap.overwritten, 0, "{name}: ring wrapped; grow capacity");
        assert_eq!(cap.recorded as usize, cap.events.len(), "{name}");
        assert!(!cap.events.is_empty(), "{name}: nothing recorded");
        assert_eq!(
            cap.encode(),
            out.capture,
            "{name}: capture round-trip must be bit-exact"
        );

        let hot = out
            .heatmap
            .get("hot")
            .unwrap_or_else(|| panic!("{name}: heatmap has no hot section"));
        assert_eq!(
            hot.get("recorded").and_then(Json::as_u64),
            Some(cap.recorded),
            "{name}"
        );
        assert_eq!(
            hot.get("overwritten").and_then(Json::as_u64),
            Some(0),
            "{name}"
        );
        let entries: Vec<(u64, u64)> = hot
            .get("entries")
            .and_then(Json::items)
            .unwrap_or_else(|| panic!("{name}: hot.entries missing"))
            .iter()
            .map(|e| {
                let field = |k| e.get(k).and_then(Json::as_u64).expect(k);
                (field("line"), field("count"))
            })
            .collect();
        let exact = flight::exact_top(&cap.events);
        assert_eq!(entries, exact[..TOP_K.min(exact.len())], "{name}");

        // The bank heatmap saw the same DRAM traffic the capture did.
        let banks = out
            .heatmap
            .get("banks")
            .and_then(Json::items)
            .unwrap_or_else(|| panic!("{name}: heatmap has no banks"));
        let touched: u64 = banks
            .iter()
            .map(|b| {
                b.get("row_hits").and_then(Json::as_u64).unwrap_or(0)
                    + b.get("row_misses").and_then(Json::as_u64).unwrap_or(0)
            })
            .sum();
        assert!(touched > 0, "{name}: bank heat counters never moved");
    }
}

#[test]
fn recording_does_not_perturb_simulated_results() {
    // The observability acceptance bar that matters most: a machine
    // with the recorder attached reports *identical* simulated cycles.
    // Compare one shadow-heavy experiment both ways.
    let plain = run_all_experiments_obs(DEFAULT_SEED, ObsSpec::off());
    let recorded = run_all_experiments_obs(DEFAULT_SEED, ObsSpec::recording(1 << 16, 8));
    for (p, r) in plain.iter().zip(&recorded).take(4) {
        assert_eq!(p.name(), r.name());
        let a = p.run().report;
        let b = r.run().report;
        assert_eq!(a.cycles, b.cycles, "{}", p.name());
        assert_eq!(a.mem.loads, b.mem.loads, "{}", p.name());
        assert_eq!(a.mem.load_cycles, b.mem.load_cycles, "{}", p.name());
    }
}
