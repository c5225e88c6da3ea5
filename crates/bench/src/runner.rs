//! A dependency-free job pool for fanning independent experiments across
//! cores.
//!
//! Every experiment in the regenerator binaries builds its own
//! [`Machine`](impulse_sim::Machine), so runs share no mutable state and
//! the *simulated* cycle counts are identical however the host schedules
//! them. The pool exploits that: jobs are claimed from a shared cursor by
//! `std::thread::scope` workers, and results land in per-job slots so the
//! returned `Vec` is always in **submission order** — callers that print
//! tables or write CSV/JSON see byte-identical output at any worker
//! count, only faster.
//!
//! `jobs=1` (or a single-core host) short-circuits to a plain serial
//! loop on the calling thread, preserving the pre-pool execution path
//! exactly.
//!
//! A job that panics fails the whole run: the panic reaches the caller
//! once the workers stop, so a binary exits nonzero before it writes a
//! partial artifact. The simulations are deterministic, so a rerun
//! would only panic again.
//!
//! # Examples
//!
//! ```
//! use impulse_bench::runner;
//!
//! let jobs: Vec<_> = (0..8u64).map(|i| move || i * i).collect();
//! let squares = runner::run_ordered(jobs, 4);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: every hardware thread the host offers.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A malformed command-line argument, reported with enough context for
/// the binaries to print a usage message and exit nonzero instead of
/// panicking or silently substituting a default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `jobs=0` — a pool with no workers cannot make progress.
    ZeroJobs,
    /// An argument that is not on the binary's usage line.
    Unknown {
        /// The offending argument as given.
        arg: String,
    },
    /// The value is not an unsigned integer.
    NotANumber {
        /// The argument key (`jobs`, `seed`, ...).
        key: &'static str,
        /// The offending value as given.
        value: String,
    },
    /// `tier=` named no known tier policy.
    UnknownTier {
        /// The offending value as given.
        value: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::ZeroJobs => write!(f, "jobs= wants a positive integer, got `0`"),
            ArgError::Unknown { arg } => write!(f, "unknown argument `{arg}`"),
            ArgError::NotANumber { key, value } => {
                write!(f, "{key}= wants an unsigned integer, got `{value}`")
            }
            ArgError::UnknownTier { value } => {
                write!(f, "tier= wants one of none|flat|cache, got `{value}`")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses one `jobs=` value: a positive worker count.
///
/// # Errors
///
/// Rejects `0` and non-numeric values with a typed [`ArgError`].
pub fn parse_jobs(value: &str) -> Result<usize, ArgError> {
    match value.parse::<usize>() {
        Ok(0) => Err(ArgError::ZeroJobs),
        Ok(n) => Ok(n),
        Err(_) => Err(ArgError::NotANumber {
            key: "jobs",
            value: value.to_string(),
        }),
    }
}

/// Parses a `jobs=N` argument out of raw command-line arguments,
/// defaulting to [`default_jobs`] when absent.
///
/// # Errors
///
/// `jobs=0` and non-numeric values are rejected with a typed
/// [`ArgError`] rather than silently falling back to the default.
pub fn jobs_from_args(args: &[String]) -> Result<usize, ArgError> {
    match args.iter().find_map(|a| a.strip_prefix("jobs=")) {
        None => Ok(default_jobs()),
        Some(v) => parse_jobs(v),
    }
}

/// Runs `jobs` on up to `workers` threads, returning results in
/// submission order. `workers <= 1` runs everything serially on the
/// calling thread.
///
/// A panic in any job propagates to the caller once all workers have
/// stopped (no result is silently dropped).
pub fn run_ordered<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }

    // Each job and each result slot gets its own mutex; contention is
    // only on the claim cursor, and each lock is taken exactly once.
    let queue: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = queue[i]
                    .lock()
                    .expect("job queue poisoned")
                    .take()
                    .expect("each job is claimed once");
                let out = job();
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran to completion")
        })
        .collect()
}

/// Parses a `key=N` unsigned-integer argument out of raw command-line
/// arguments (last occurrence wins), defaulting when absent.
///
/// # Errors
///
/// Non-numeric values are rejected with a typed [`ArgError`] rather than
/// silently falling back to the default.
pub fn u64_from_args(args: &[String], key: &'static str, default: u64) -> Result<u64, ArgError> {
    let prefix = format!("{key}=");
    match args.iter().rev().find_map(|a| a.strip_prefix(&prefix)) {
        None => Ok(default),
        Some(v) => v.parse::<u64>().map_err(|_| ArgError::NotANumber {
            key,
            value: v.to_string(),
        }),
    }
}

/// Parses a `tier=none|flat|cache` argument (last occurrence wins),
/// defaulting to
/// [`TierPolicy::None`](impulse_types::TierPolicy::None) when absent.
///
/// # Errors
///
/// Unknown policy names are rejected with a typed [`ArgError`] rather
/// than silently running untiered.
pub fn tier_from_args(args: &[String]) -> Result<impulse_types::TierPolicy, ArgError> {
    match args.iter().rev().find_map(|a| a.strip_prefix("tier=")) {
        None => Ok(impulse_types::TierPolicy::None),
        Some(v) => impulse_types::TierPolicy::parse(v).ok_or_else(|| ArgError::UnknownTier {
            value: v.to_string(),
        }),
    }
}

/// Checks raw arguments against a binary's usage line: `known` lists
/// every `key=` prefix and `--flag` it accepts.
///
/// # Errors
///
/// The first argument not in `known` is [`ArgError::Unknown`], so a
/// misspelt or retired option never runs the defaults in silence.
pub fn check_usage(args: &[String], known: &[&str]) -> Result<(), ArgError> {
    let accepted = |a: &String| {
        known.iter().any(|k| {
            if k.ends_with('=') {
                a.starts_with(k)
            } else {
                a == k
            }
        })
    };
    match args.iter().find(|a| !accepted(a)) {
        Some(arg) => Err(ArgError::Unknown { arg: arg.clone() }),
        None => Ok(()),
    }
}

/// Prints `error: {e}` and the binary's usage text to stderr and exits
/// with status 2, the usage-error code of every bench binary.
pub fn usage_exit(e: impl fmt::Display, usage: &str) -> ! {
    eprintln!("error: {e}\n{usage}");
    std::process::exit(2)
}

/// The `key=value` arguments every grid binary shares, parsed once and
/// typed once: `jobs=` (worker count), `seed=` (master seed) and
/// `tier=none|flat|cache`.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Worker-thread count (`jobs=`, default: all hardware threads).
    pub jobs: usize,
    /// Master seed (`seed=`).
    pub seed: u64,
    /// Hybrid-tier policy (`tier=`).
    pub tier: impulse_types::TierPolicy,
}

impl CommonArgs {
    /// Parses the shared vocabulary out of raw arguments, with
    /// `default_seed` standing in when `seed=` is absent. `known` is the
    /// binary's usage line: every `key=` and `--flag` it accepts, the
    /// shared keys included.
    ///
    /// # Errors
    ///
    /// An argument not in `known` is [`ArgError::Unknown`] (see
    /// [`check_usage`]); a malformed shared value is rejected with its
    /// typed [`ArgError`].
    pub fn parse(args: &[String], default_seed: u64, known: &[&str]) -> Result<Self, ArgError> {
        check_usage(args, known)?;
        Ok(Self {
            jobs: jobs_from_args(args)?,
            seed: u64_from_args(args, "seed", default_seed)?,
            tier: tier_from_args(args)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_keep_submission_order() {
        // Jobs deliberately finish out of order (later jobs are cheaper).
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_micros((32 - i) * 50));
                    i
                }
            })
            .collect();
        let out = run_ordered(jobs, 8);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || (0..16u64).map(|i| move || i * 3 + 1).collect::<Vec<_>>();
        assert_eq!(run_ordered(mk(), 1), run_ordered(mk(), 4));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u64> = run_ordered(Vec::<fn() -> u64>::new(), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn oversubscribed_workers_are_clamped() {
        let jobs: Vec<_> = (0..3u64).map(|i| move || i).collect();
        assert_eq!(run_ordered(jobs, 64), vec![0, 1, 2]);
    }

    #[test]
    fn jobs_arg_parsing() {
        assert_eq!(jobs_from_args(&["jobs=3".into()]), Ok(3));
        assert_eq!(jobs_from_args(&[]), Ok(default_jobs()));
        assert_eq!(jobs_from_args(&["out=x.csv".into()]), Ok(default_jobs()));
    }

    #[test]
    fn zero_and_garbage_jobs_are_typed_errors() {
        assert_eq!(jobs_from_args(&["jobs=0".into()]), Err(ArgError::ZeroJobs));
        assert_eq!(
            jobs_from_args(&["jobs=four".into()]),
            Err(ArgError::NotANumber {
                key: "jobs",
                value: "four".into()
            })
        );
        assert!(parse_jobs("-2").unwrap_err().to_string().contains("-2"));
        // Display strings are stable usage text.
        assert_eq!(
            ArgError::ZeroJobs.to_string(),
            "jobs= wants a positive integer, got `0`"
        );
    }

    #[test]
    fn u64_args_are_typed() {
        assert_eq!(u64_from_args(&["seed=7".into()], "seed", 1), Ok(7));
        assert_eq!(u64_from_args(&[], "seed", 1), Ok(1));
        assert_eq!(
            u64_from_args(&["seed=1".into(), "seed=2".into()], "seed", 0),
            Ok(2),
            "last occurrence wins"
        );
        assert_eq!(
            u64_from_args(&["seed=xyz".into()], "seed", 1),
            Err(ArgError::NotANumber {
                key: "seed",
                value: "xyz".into()
            })
        );
    }

    #[test]
    fn tier_args_are_typed() {
        use impulse_types::TierPolicy;
        assert_eq!(tier_from_args(&[]), Ok(TierPolicy::None));
        assert_eq!(tier_from_args(&["tier=flat".into()]), Ok(TierPolicy::Flat));
        assert_eq!(
            tier_from_args(&["tier=warp".into()]),
            Err(ArgError::UnknownTier {
                value: "warp".into()
            })
        );
        // Display strings are stable usage text.
        assert_eq!(
            ArgError::UnknownTier {
                value: "warp".into()
            }
            .to_string(),
            "tier= wants one of none|flat|cache, got `warp`"
        );
    }

    #[test]
    fn common_args_parse_the_shared_vocabulary_once() {
        let known = ["jobs=", "seed=", "tier=", "out=", "--paper"];
        let args: Vec<String> = ["jobs=2", "seed=77", "tier=cache", "out=x.json", "--paper"]
            .map(String::from)
            .to_vec();
        let c = CommonArgs::parse(&args, 1, &known).expect("parse");
        assert_eq!(c.jobs, 2);
        assert_eq!(c.seed, 77);
        assert_eq!(c.tier, impulse_types::TierPolicy::Cache);

        let d = CommonArgs::parse(&[], 9, &known).expect("defaults");
        assert_eq!(d.seed, 9);
        assert_eq!(d.tier, impulse_types::TierPolicy::None);

        // Anything off the usage line is a typed error: a misspelt key, a
        // bare key without `=`, or a flag the binary does not take.
        for bad in ["jbos=1", "out", "--verbose", "max_retries=2"] {
            assert_eq!(
                CommonArgs::parse(&[bad.to_string()], 0, &known).unwrap_err(),
                ArgError::Unknown { arg: bad.into() },
                "{bad}"
            );
        }
        assert_eq!(
            ArgError::Unknown {
                arg: "jbos=1".into()
            }
            .to_string(),
            "unknown argument `jbos=1`"
        );
    }

    #[test]
    fn a_panicking_job_fails_the_run() {
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("deliberately poisoned experiment")),
            Box::new(|| 3),
        ];
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_ordered(jobs, 2)));
        assert!(run.is_err(), "a job's panic must fail the whole run");
    }
}
