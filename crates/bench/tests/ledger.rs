//! The cycle ledger: every catalog entry at the default seed spends each
//! cycle of its epoch on exactly one of a demand load, a demand store, a
//! non-memory instruction (one cycle each on the single-issue pipeline)
//! or a system call. Every catalog config blocks on loads (one MSHR), so
//! the identity is exact; `Report::instructions` counts loads, stores and
//! compute cycles, and the non-memory cycles are read off it.

use impulse_bench::experiments::{run_all_experiments, DEFAULT_SEED};
use impulse_bench::runner;

#[test]
fn every_catalog_cycle_is_a_load_a_store_an_instruction_or_a_syscall() {
    let jobs: Vec<_> = run_all_experiments(DEFAULT_SEED)
        .into_iter()
        .map(|e| move || e.run())
        .collect();
    let entries = jobs.len();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut failures = Vec::new();
    for r in runner::run_ordered(jobs, workers) {
        let m = &r.mem;
        let compute = r.instructions - m.loads - m.stores;
        let ledger = m.load_cycles + m.store_cycles + compute + r.syscall_cycles;
        if r.cycles != ledger {
            failures.push(format!(
                "{}: {} cycles, ledger {ledger} (loads {}, stores {}, compute {compute}, \
                 syscalls {})",
                r.name, r.cycles, m.load_cycles, m.store_cycles, r.syscall_cycles
            ));
        }
    }
    assert!(entries > 0, "the catalog is empty");
    assert!(
        failures.is_empty(),
        "{} of {entries} catalog entries break the cycle ledger:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
