//! The serve-mode backend: the `run_all` catalog behind the
//! [`impulse_serve::Backend`] trait.
//!
//! The byte-identity contract lives here: [`CatalogBackend::run`] goes
//! through exactly the same job construction as the batch `run_all`
//! binary (build a [`Machine`] from the catalogued config, drive it,
//! report), and stores exactly the strings the batch documents are
//! assembled from — the CSV row and the compact JSON fragment — so a
//! result served from the daemon's cache is byte-identical to the
//! batch runner's artifact for the same `(config, seed, tier)`.
//!
//! Chaos hooks: with [`CatalogBackend::with_chaos_hooks`], three
//! synthetic experiments (`__chaos/hang`, `__chaos/panic`,
//! `__chaos/flaky`) join the catalog so the chaos suite can provoke
//! watchdog kills, worker panics, and retry-then-succeed flakiness
//! against a live server without touching real experiments. They are
//! off by default and never appear in production catalogs.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use impulse_serve::{Backend, StoredResult};
use impulse_sim::Machine;
use impulse_types::ident::{digest64, mix};
use impulse_types::TierPolicy;

use crate::experiments::{catalog_entries, report_artifacts};

/// Name prefix for the synthetic fault-injection experiments.
pub const CHAOS_PREFIX: &str = "__chaos/";

/// How many times `__chaos/flaky` fails before succeeding.
pub const FLAKY_FAILURES: u32 = 2;

/// The `run_all` catalog as a daemon backend.
pub struct CatalogBackend {
    chaos_hooks: bool,
    flaky_calls: Mutex<HashMap<String, u32>>,
}

impl Default for CatalogBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl CatalogBackend {
    /// Production backend: exactly the 28 catalog experiments.
    pub fn new() -> Self {
        Self {
            chaos_hooks: false,
            flaky_calls: Mutex::new(HashMap::new()),
        }
    }

    /// Test backend: the catalog plus the `__chaos/*` fault hooks.
    pub fn with_chaos_hooks() -> Self {
        Self {
            chaos_hooks: true,
            ..Self::new()
        }
    }

    fn run_chaos_hook(&self, experiment: &str, seed: u64) -> Result<StoredResult, String> {
        match experiment {
            "__chaos/hang" => {
                // Long enough to trip any test watchdog; the attempt
                // thread is abandoned and dies with the process.
                std::thread::sleep(Duration::from_secs(600));
                Err("hang hook unexpectedly woke up".into())
            }
            "__chaos/panic" => panic!("chaos hook: injected worker panic"),
            "__chaos/flaky" => {
                let mut calls = self.flaky_calls.lock().expect("flaky lock");
                let n = calls.entry(experiment.to_string()).or_insert(0);
                *n += 1;
                if *n <= FLAKY_FAILURES {
                    return Err(format!("chaos hook: injected flaky failure #{n}"));
                }
                Ok(StoredResult {
                    csv: format!("__chaos/flaky,{seed},ok"),
                    report: format!("{{\"name\": \"__chaos/flaky\", \"seed\": {seed}}}"),
                })
            }
            other => Err(format!("unknown chaos hook `{other}`")),
        }
    }
}

impl Backend for CatalogBackend {
    fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = catalog_entries(crate::experiments::DEFAULT_SEED)
            .iter()
            .map(|e| e.name().to_string())
            .collect();
        if self.chaos_hooks {
            names.extend(["hang", "panic", "flaky"].map(|n| format!("{CHAOS_PREFIX}{n}")));
        }
        names
    }

    fn config_digest(&self, experiment: &str, seed: u64, tier: TierPolicy) -> Option<u64> {
        if experiment.starts_with(CHAOS_PREFIX) {
            if !self.chaos_hooks || !self.names().iter().any(|n| n == experiment) {
                return None;
            }
            return Some(mix(
                digest64(experiment.as_bytes()),
                digest64(tier.name().as_bytes()),
            ));
        }
        // Several catalog entries share a SystemConfig (all `paint()`),
        // so the digest folds the name in next to the config
        // fingerprint — and the tier override next to both, since the
        // same experiment under a different memory organisation is a
        // different cached result.
        catalog_entries(seed)
            .into_iter()
            .find(|e| e.name() == experiment)
            .map(|e| {
                mix(
                    mix(
                        digest64(experiment.as_bytes()),
                        digest64(tier.name().as_bytes()),
                    ),
                    Machine::config_fingerprint(e.with_tier(tier).config()),
                )
            })
    }

    fn run(&self, experiment: &str, seed: u64, tier: TierPolicy) -> Result<StoredResult, String> {
        if experiment.starts_with(CHAOS_PREFIX) {
            return self.run_chaos_hook(experiment, seed);
        }
        // Same construction path as the batch runner (build from the
        // catalogued config, drive, report), so for `tier = None` the
        // simulated results — and their serialized artifacts — are
        // byte-identical to the batch `run_all` output.
        let entry = catalog_entries(seed)
            .into_iter()
            .find(|e| e.name() == experiment)
            .ok_or_else(|| format!("no catalog entry named `{experiment}`"))?
            .with_tier(tier);
        let mut m = Machine::new(entry.config());
        entry.drive(&mut m);
        let report = m.report(entry.name().to_string());
        let artifacts = report_artifacts(&report);
        Ok(StoredResult {
            csv: artifacts.csv,
            report: format!("{}", artifacts.json),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn digests_are_stable_and_name_sensitive() {
        let b = CatalogBackend::new();
        let d1 = b
            .config_digest("ipc/software gather (copy)", DEFAULT_SEED, TierPolicy::None)
            .expect("known");
        let d2 = b
            .config_digest("ipc/software gather (copy)", DEFAULT_SEED, TierPolicy::None)
            .expect("known");
        assert_eq!(d1, d2, "digest must be deterministic");
        let other = b
            .config_digest("ipc/impulse no-copy gather", DEFAULT_SEED, TierPolicy::None)
            .expect("known");
        assert_ne!(d1, other, "same config, different name ⇒ different digest");
        assert_eq!(
            b.config_digest("no/such/experiment", DEFAULT_SEED, TierPolicy::None),
            None
        );
    }

    #[test]
    fn digests_are_tier_sensitive() {
        let b = CatalogBackend::new();
        let mut seen = std::collections::HashSet::new();
        for tier in TierPolicy::ALL {
            let d = b
                .config_digest("fig1/conventional", DEFAULT_SEED, tier)
                .expect("known");
            assert!(seen.insert(d), "tier {} collides", tier.name());
        }
    }

    #[test]
    fn chaos_hooks_are_invisible_unless_enabled() {
        let plain = CatalogBackend::new();
        assert_eq!(
            plain.config_digest("__chaos/flaky", 1, TierPolicy::None),
            None
        );
        assert_eq!(plain.names().len(), 28);
        let chaotic = CatalogBackend::with_chaos_hooks();
        assert!(chaotic
            .config_digest("__chaos/flaky", 1, TierPolicy::None)
            .is_some());
        assert_eq!(chaotic.names().len(), 31);
        assert_eq!(
            chaotic.config_digest("__chaos/bogus", 1, TierPolicy::None),
            None
        );
    }

    #[test]
    fn flaky_hook_fails_then_succeeds() {
        let b = CatalogBackend::with_chaos_hooks();
        for i in 1..=FLAKY_FAILURES {
            let err = b
                .run("__chaos/flaky", 7, TierPolicy::None)
                .expect_err("injected failure");
            assert!(err.contains(&format!("#{i}")), "got: {err}");
        }
        let ok = b
            .run("__chaos/flaky", 7, TierPolicy::None)
            .expect("succeeds after retries");
        assert_eq!(ok.csv, "__chaos/flaky,7,ok");
    }
}
