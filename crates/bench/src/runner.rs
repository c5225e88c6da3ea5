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
//! [`Args`] types every bench binary's command line once, against the
//! binary's usage line.
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

use impulse_types::TierPolicy;

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
        key: String,
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

/// The keys whose value is a file or directory path. Every other `key=`
/// on a usage line takes an unsigned integer, except `jobs=` (a positive
/// worker count) and `tier=` (a tier policy).
const PATH_KEYS: [&str; 3] = ["out", "json", "dir"];

/// The arguments of every bench binary, checked against its usage line
/// and typed once: `--paper`, `jobs=`, `tier=none|flat|cache`, the path
/// keys `out=`, `json=` and `dir=`, and integer keys such as `seed=`.
/// When a key is given twice, the last occurrence wins.
#[derive(Clone, Debug, Default)]
pub struct Args {
    paper: bool,
    jobs: Option<usize>,
    tier: TierPolicy,
    ints: Vec<(String, u64)>,
    paths: Vec<(String, String)>,
}

impl Args {
    /// Types raw arguments against a binary's usage line: `known` lists
    /// every `key=` and `--flag` it accepts.
    ///
    /// # Errors
    ///
    /// An argument off the usage line is [`ArgError::Unknown`] (see
    /// [`check_usage`]); a malformed value is rejected with its typed
    /// [`ArgError`] rather than replaced by a default.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Self, ArgError> {
        check_usage(args, known)?;
        let mut out = Args::default();
        for a in args {
            let Some((key, value)) = a.split_once('=') else {
                out.paper |= a == "--paper";
                continue;
            };
            let not_a_number = || ArgError::NotANumber {
                key: key.to_string(),
                value: value.to_string(),
            };
            match key {
                "jobs" => match value.parse::<usize>() {
                    Ok(0) => return Err(ArgError::ZeroJobs),
                    Ok(n) => out.jobs = Some(n),
                    Err(_) => return Err(not_a_number()),
                },
                "tier" => {
                    out.tier = TierPolicy::parse(value).ok_or_else(|| ArgError::UnknownTier {
                        value: value.to_string(),
                    })?;
                }
                k if PATH_KEYS.contains(&k) => out.paths.push((k.to_string(), value.to_string())),
                k => {
                    let n = value.parse::<u64>().map_err(|_| not_a_number())?;
                    out.ints.push((k.to_string(), n));
                }
            }
        }
        Ok(out)
    }

    /// [`Args::parse`] over the process's arguments; a usage error prints
    /// `usage` and exits 2 (see [`usage_exit`]).
    pub fn from_env(known: &[&str], usage: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, known).unwrap_or_else(|e| usage_exit(e, usage))
    }

    /// Whether `--paper` asked for the paper's full problem size.
    pub fn paper(&self) -> bool {
        self.paper
    }

    /// The worker count (`jobs=`, default [`default_jobs`]).
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(default_jobs)
    }

    /// The hybrid-tier policy (`tier=`, default none).
    pub fn tier(&self) -> TierPolicy {
        self.tier
    }

    /// The integer value of `key=` (`seed`, `rows`, ...), or `default`.
    pub fn get(&self, key: &str, default: u64) -> u64 {
        self.ints
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map_or(default, |&(_, v)| v)
    }

    /// The path value of `key=` (`out`, `json` or `dir`), or `default`.
    pub fn path<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.paths
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map_or(default, |(_, v)| v.as_str())
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

    /// Parses `args` against a usage line with every key the binaries use.
    fn parse(args: &[&str]) -> Result<Args, ArgError> {
        let known = [
            "jobs=", "seed=", "tier=", "out=", "dir=", "rows=", "--paper",
        ];
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Args::parse(&args, &known)
    }

    #[test]
    fn jobs_arg_parsing() {
        assert_eq!(parse(&["jobs=3"]).unwrap().jobs(), 3);
        assert_eq!(parse(&[]).unwrap().jobs(), default_jobs());
        assert_eq!(parse(&["out=x.csv"]).unwrap().jobs(), default_jobs());
    }

    #[test]
    fn zero_and_garbage_jobs_are_typed_errors() {
        assert_eq!(parse(&["jobs=0"]).unwrap_err(), ArgError::ZeroJobs);
        assert_eq!(
            parse(&["jobs=four"]).unwrap_err(),
            ArgError::NotANumber {
                key: "jobs".into(),
                value: "four".into()
            }
        );
        assert!(parse(&["jobs=-2"]).unwrap_err().to_string().contains("-2"));
        // Display strings are stable usage text.
        assert_eq!(
            ArgError::ZeroJobs.to_string(),
            "jobs= wants a positive integer, got `0`"
        );
    }

    #[test]
    fn u64_args_are_typed() {
        assert_eq!(parse(&["seed=7"]).unwrap().get("seed", 1), 7);
        assert_eq!(parse(&[]).unwrap().get("seed", 1), 1);
        assert_eq!(
            parse(&["seed=xyz"]).unwrap_err(),
            ArgError::NotANumber {
                key: "seed".into(),
                value: "xyz".into()
            }
        );
        assert_eq!(
            parse(&["rows=1e3"]).unwrap_err().to_string(),
            "rows= wants an unsigned integer, got `1e3`"
        );
    }

    #[test]
    fn tier_args_are_typed() {
        assert_eq!(parse(&[]).unwrap().tier(), TierPolicy::None);
        assert_eq!(parse(&["tier=flat"]).unwrap().tier(), TierPolicy::Flat);
        assert_eq!(
            parse(&["tier=warp"]).unwrap_err(),
            ArgError::UnknownTier {
                value: "warp".into()
            }
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
        let a = parse(&["jobs=2", "seed=77", "tier=cache", "out=x.json", "--paper"]).unwrap();
        assert_eq!(a.jobs(), 2);
        assert_eq!(a.get("seed", 1), 77);
        assert_eq!(a.tier(), TierPolicy::Cache);
        assert_eq!(a.path("out", "results.csv"), "x.json");
        assert!(a.paper());

        let d = parse(&[]).unwrap();
        assert_eq!(d.get("seed", 9), 9);
        assert_eq!(d.path("dir", "results"), "results");
        assert!(!d.paper());

        // Anything off the usage line is a typed error: a misspelt key, a
        // bare key without `=`, or a flag the binary does not take.
        for bad in ["jbos=1", "out", "--verbose", "max_retries=2"] {
            assert_eq!(
                parse(&[bad]).unwrap_err(),
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
    fn the_last_occurrence_of_every_key_wins() {
        let a = parse(&["out=a.json", "out=b.json", "seed=5", "seed=1999"]).unwrap();
        assert_eq!(a.path("out", "results.csv"), "b.json");
        assert_eq!(a.get("seed", 0), 1999);
        let b = parse(&["jobs=1", "tier=flat", "jobs=3", "tier=cache"]).unwrap();
        assert_eq!((b.jobs(), b.tier()), (3, TierPolicy::Cache));
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
