//! Observability acceptance tests over the full `run_all` catalog:
//! every experiment's flight ring holds its whole run, the heatmap's
//! `hot` list is exactly [`flight::exact_top`] over the ring's events,
//! and neither the flight recorder nor the [`Tracer`] moves a report.

use impulse_bench::experiments::{catalog_entries, run_all_experiments_obs, ObsSpec, DEFAULT_SEED};
use impulse_core::flight;
use impulse_obs::Json;
use impulse_sim::{Machine, Report, Tracer};

/// Large enough that no catalog experiment wraps the ring (the biggest
/// ring at quick scale is the transpose walk at 2^18 events).
const FLIGHT_CAPACITY: usize = 1 << 19;
const TOP_K: usize = 32;

#[test]
fn ring_holds_every_event_and_hot_list_is_the_exact_ranking() {
    let obs = ObsSpec::recording(FLIGHT_CAPACITY, TOP_K);
    let catalog = run_all_experiments_obs(DEFAULT_SEED, obs);
    assert_eq!(catalog.len(), 28);
    for exp in catalog {
        let name = exp.name().to_string();
        let out = exp.run();

        // Full fidelity: nothing overwritten, every recorded event held.
        let ring = out.flight.unwrap_or_else(|| panic!("{name}: no ring"));
        let events = ring.events();
        assert_eq!(ring.overwritten(), 0, "{name}: ring wrapped; grow capacity");
        assert_eq!(ring.recorded() as usize, events.len(), "{name}");
        assert!(!events.is_empty(), "{name}: nothing recorded");

        let hot = out
            .heatmap
            .get("hot")
            .unwrap_or_else(|| panic!("{name}: heatmap has no hot section"));
        assert_eq!(
            hot.get("recorded").and_then(Json::as_u64),
            Some(ring.recorded()),
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
        let exact = flight::exact_top(&events);
        assert_eq!(entries, exact[..TOP_K.min(exact.len())], "{name}");

        // The bank heatmap saw the same DRAM traffic the ring did.
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

/// A report's compact JSON without the flight recorder's own
/// `mc.flight.*` counters: recording is observability, not a result.
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

#[test]
fn recording_does_not_perturb_simulated_results() {
    // The observability acceptance bar that matters most: a machine with
    // the flight recorder or the Tracer attached reports exactly what a
    // plain one does, on every catalog entry. The Tracer also forces the
    // CPU's featured load and store paths, so this locks the plain and
    // featured paths to the same results over the catalog's syscalls,
    // remaps and flushes.
    let plain = run_all_experiments_obs(DEFAULT_SEED, ObsSpec::off());
    let recorded = run_all_experiments_obs(DEFAULT_SEED, ObsSpec::recording(1 << 16, 8));
    let entries = catalog_entries(DEFAULT_SEED);
    assert_eq!(entries.len(), 28);
    for ((p, r), entry) in plain.iter().zip(&recorded).zip(&entries) {
        let name = p.name();
        assert_eq!(name, r.name());
        assert_eq!(name, entry.name());
        let want = canonical(&p.run().report);
        assert_eq!(canonical(&r.run().report), want, "{name}: flight recorder");

        let mut m = Machine::new(entry.config());
        m.attach_tracer(Tracer::new(1 << 12));
        entry.drive(&mut m);
        let traced = m.report(name.to_string());
        let tracer = m.take_tracer().expect("tracer attached");
        assert!(!tracer.events().is_empty(), "{name}: tracer saw nothing");
        assert_eq!(canonical(&traced), want, "{name}: Tracer");
    }
}
