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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

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
    /// `max_retries=0` — a job that may never attempt cannot finish.
    ZeroRetries,
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
            ArgError::ZeroRetries => {
                write!(f, "max_retries= wants a positive integer, got `0`")
            }
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

/// Parses the full supervision policy out of raw command-line
/// arguments: `watchdog_ms=N` (per-attempt deadline; 0 disables the
/// watchdog) and `max_retries=K` (attempts before quarantine). The
/// older spellings `timeout_ms=` and `attempts=` are accepted as
/// aliases; the new names win when both are given.
///
/// # Errors
///
/// `max_retries=0` and non-numeric values are rejected with a typed
/// [`ArgError`] rather than silently falling back to defaults.
pub fn supervise_from_args(args: &[String]) -> Result<SuperviseOpts, ArgError> {
    let timeout_alias = u64_from_args(args, "timeout_ms", 0)?;
    let watchdog_ms = u64_from_args(args, "watchdog_ms", timeout_alias)?;
    let attempts_alias = u64_from_args(args, "attempts", 2)?;
    let max_retries = u64_from_args(args, "max_retries", attempts_alias)?;
    if max_retries == 0 {
        return Err(ArgError::ZeroRetries);
    }
    Ok(SuperviseOpts {
        timeout: (watchdog_ms > 0).then(|| Duration::from_millis(watchdog_ms)),
        max_attempts: max_retries.min(u64::from(u32::MAX)) as u32,
    })
}

/// Parses a `tier=none|flat|cache` argument (alias: `tier_policy=`;
/// `tier=` wins when both are given), defaulting to
/// [`TierPolicy::None`](impulse_types::TierPolicy::None) when absent.
///
/// # Errors
///
/// Unknown policy names are rejected with a typed [`ArgError`] rather
/// than silently running untiered.
pub fn tier_from_args(args: &[String]) -> Result<impulse_types::TierPolicy, ArgError> {
    let value = args
        .iter()
        .rev()
        .find_map(|a| a.strip_prefix("tier="))
        .or_else(|| {
            args.iter()
                .rev()
                .find_map(|a| a.strip_prefix("tier_policy="))
        });
    match value {
        None => Ok(impulse_types::TierPolicy::None),
        Some(v) => impulse_types::TierPolicy::parse(v).ok_or_else(|| ArgError::UnknownTier {
            value: v.to_string(),
        }),
    }
}

/// The `key=value` arguments every grid binary shares, parsed once and
/// typed once: `jobs=` (worker count), `seed=` (master seed),
/// `watchdog_ms=`/`max_retries=` (supervision; legacy `timeout_ms=` and
/// `attempts=` aliases accepted), and `tier=none|flat|cache` (alias
/// `tier_policy=`). New binaries get the whole vocabulary — including
/// the tier axis — from one call instead of re-growing their own
/// parsers.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Worker-thread count (`jobs=`, default: all hardware threads).
    pub jobs: usize,
    /// Master seed (`seed=`).
    pub seed: u64,
    /// Supervision policy (`watchdog_ms=`, `max_retries=` + aliases).
    pub supervise: SuperviseOpts,
    /// Hybrid-tier policy (`tier=`, alias `tier_policy=`).
    pub tier: impulse_types::TierPolicy,
}

impl CommonArgs {
    /// Parses the shared vocabulary out of raw arguments, with
    /// `default_seed` standing in when `seed=` is absent.
    ///
    /// # Errors
    ///
    /// Any malformed shared argument is rejected with a typed
    /// [`ArgError`]; unknown keys are ignored (they belong to the
    /// binary's own vocabulary).
    pub fn parse(args: &[String], default_seed: u64) -> Result<Self, ArgError> {
        Ok(Self {
            jobs: jobs_from_args(args)?,
            seed: u64_from_args(args, "seed", default_seed)?,
            supervise: supervise_from_args(args)?,
            tier: tier_from_args(args)?,
        })
    }
}

/// A supervised job: shared (not consumed) so the watchdog can retry it
/// after a panic or timeout without rebuilding the catalog.
pub type SharedJob<T> = Arc<dyn Fn() -> T + Send + Sync>;

/// Why a supervised job failed to produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; `detail` is the panic payload.
    Panicked {
        /// The panic message (or a placeholder for non-string payloads).
        detail: String,
    },
    /// The job ran past its per-attempt deadline. The attempt thread is
    /// abandoned (it cannot be killed); its eventual result is dropped.
    TimedOut {
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
    /// Every configured attempt failed; the job is quarantined and the
    /// rest of the grid proceeds without it.
    Quarantined {
        /// How many attempts were made.
        attempts: u32,
        /// Display form of the last failure.
        last: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked { detail } => write!(f, "job panicked: {detail}"),
            JobError::TimedOut { limit_ms } => {
                write!(f, "job exceeded its {limit_ms} ms deadline")
            }
            JobError::Quarantined { attempts, last } => {
                write!(
                    f,
                    "job quarantined after {attempts} failed attempts (last: {last})"
                )
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Watchdog policy for [`run_supervised`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperviseOpts {
    /// Per-attempt deadline. `None` disables the watchdog thread; each
    /// attempt runs on the worker itself (panics are still isolated).
    pub timeout: Option<Duration>,
    /// Attempts before the job is quarantined (>= 1). With `1`, the
    /// first failure is returned directly; with more, the final error is
    /// [`JobError::Quarantined`].
    pub max_attempts: u32,
}

impl Default for SuperviseOpts {
    /// No deadline, one retry before quarantine.
    fn default() -> Self {
        Self {
            timeout: None,
            max_attempts: 2,
        }
    }
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One attempt: inline (no deadline) or on a watchdog-monitored thread.
fn attempt_one<T: Send + 'static>(
    job: &SharedJob<T>,
    timeout: Option<Duration>,
) -> Result<T, JobError> {
    let Some(limit) = timeout else {
        return catch_unwind(AssertUnwindSafe(|| job())).map_err(|p| JobError::Panicked {
            detail: panic_detail(p),
        });
    };
    // The attempt runs detached so the supervisor can give up on it; a
    // hung attempt leaks its thread (threads cannot be killed) but the
    // grid moves on, which is the contract the deadline buys.
    let (tx, rx) = mpsc::channel();
    let job = job.clone();
    std::thread::spawn(move || {
        let out = catch_unwind(AssertUnwindSafe(|| job()));
        let _ = tx.send(out);
    });
    match rx.recv_timeout(limit) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(p)) => Err(JobError::Panicked {
            detail: panic_detail(p),
        }),
        Err(_) => Err(JobError::TimedOut {
            limit_ms: limit.as_millis() as u64,
        }),
    }
}

/// Retries up to the configured budget, then quarantines.
fn supervise_one<T: Send + 'static>(
    job: &SharedJob<T>,
    opts: &SuperviseOpts,
) -> Result<T, JobError> {
    let attempts = opts.max_attempts.max(1);
    let mut last = None;
    for _ in 0..attempts {
        match attempt_one(job, opts.timeout) {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
    }
    let last = last.expect("at least one attempt ran");
    if attempts == 1 {
        Err(last)
    } else {
        Err(JobError::Quarantined {
            attempts,
            last: last.to_string(),
        })
    }
}

/// Like [`run_ordered`], but self-healing: each job runs under
/// [`catch_unwind`] (one poisoned experiment yields an `Err` slot while
/// the rest of the grid completes), an optional per-attempt deadline
/// watchdog, and a bounded retry/quarantine policy. `on_complete` fires
/// as each job finishes (in completion order, possibly from several
/// worker threads) — the hook the crash-safe journal appends from.
///
/// Results come back in submission order regardless of completion order,
/// preserving the byte-identical-output contract at any worker count.
pub fn run_supervised<T: Send + 'static>(
    jobs: Vec<SharedJob<T>>,
    workers: usize,
    opts: &SuperviseOpts,
    on_complete: &(dyn Fn(usize, &Result<T, JobError>) + Sync),
) -> Vec<Result<T, JobError>> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let slots: Vec<Mutex<Option<Result<T, JobError>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = supervise_one(&jobs[i], opts);
                on_complete(i, &out);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every job was claimed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn tier_args_are_typed_with_alias() {
        use impulse_types::TierPolicy;
        assert_eq!(tier_from_args(&[]), Ok(TierPolicy::None));
        assert_eq!(tier_from_args(&["tier=flat".into()]), Ok(TierPolicy::Flat));
        assert_eq!(
            tier_from_args(&["tier_policy=cache".into()]),
            Ok(TierPolicy::Cache),
            "legacy-style alias accepted"
        );
        assert_eq!(
            tier_from_args(&["tier_policy=cache".into(), "tier=flat".into()]),
            Ok(TierPolicy::Flat),
            "tier= wins over the alias"
        );
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
        let args: Vec<String> = [
            "jobs=2",
            "seed=77",
            "watchdog_ms=5000",
            "max_retries=3",
            "tier=cache",
            "out=ignored.json",
        ]
        .map(String::from)
        .to_vec();
        let c = CommonArgs::parse(&args, 1).expect("parse");
        assert_eq!(c.jobs, 2);
        assert_eq!(c.seed, 77);
        assert_eq!(c.supervise.timeout, Some(Duration::from_millis(5000)));
        assert_eq!(c.supervise.max_attempts, 3);
        assert_eq!(c.tier, impulse_types::TierPolicy::Cache);

        let d = CommonArgs::parse(&[], 9).expect("defaults");
        assert_eq!(d.seed, 9);
        assert_eq!(d.tier, impulse_types::TierPolicy::None);

        // Legacy supervision aliases flow through unchanged.
        let legacy: Vec<String> = ["timeout_ms=100", "attempts=4"].map(String::from).to_vec();
        let l = CommonArgs::parse(&legacy, 0).expect("aliases");
        assert_eq!(l.supervise.timeout, Some(Duration::from_millis(100)));
        assert_eq!(l.supervise.max_attempts, 4);
    }

    fn shared<T, F: Fn() -> T + Send + Sync + 'static>(f: F) -> SharedJob<T> {
        Arc::new(f)
    }

    #[test]
    fn panicking_job_is_isolated_and_typed() {
        let jobs: Vec<SharedJob<u64>> = vec![
            shared(|| 1),
            shared(|| panic!("deliberately poisoned experiment")),
            shared(|| 3),
        ];
        let opts = SuperviseOpts {
            timeout: None,
            max_attempts: 1,
        };
        let out = run_supervised(jobs, 2, &opts, &|_, _| {});
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[2], Ok(3), "grid completes around the poisoned job");
        match &out[1] {
            Err(JobError::Panicked { detail }) => {
                assert!(detail.contains("deliberately poisoned"))
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn repeated_failure_quarantines_with_attempt_count() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        let jobs: Vec<SharedJob<u64>> = vec![shared(move || {
            c.fetch_add(1, Ordering::Relaxed);
            panic!("always fails")
        })];
        let opts = SuperviseOpts {
            timeout: None,
            max_attempts: 3,
        };
        let out = run_supervised(jobs, 1, &opts, &|_, _| {});
        assert_eq!(calls.load(Ordering::Relaxed), 3, "retried exactly K times");
        match &out[0] {
            Err(JobError::Quarantined { attempts: 3, last }) => {
                assert!(last.contains("always fails"))
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
    }

    #[test]
    fn flaky_job_recovers_on_retry() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        let jobs: Vec<SharedJob<u64>> = vec![shared(move || {
            if c.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            42
        })];
        let out = run_supervised(jobs, 1, &SuperviseOpts::default(), &|_, _| {});
        assert_eq!(out[0], Ok(42));
    }

    #[test]
    fn watchdog_times_out_hung_job_and_grid_completes() {
        let jobs: Vec<SharedJob<u64>> = vec![
            shared(|| {
                std::thread::sleep(Duration::from_secs(30));
                0
            }),
            shared(|| 7),
        ];
        let opts = SuperviseOpts {
            timeout: Some(Duration::from_millis(50)),
            max_attempts: 1,
        };
        let out = run_supervised(jobs, 2, &opts, &|_, _| {});
        assert_eq!(out[0], Err(JobError::TimedOut { limit_ms: 50 }));
        assert_eq!(out[1], Ok(7));
    }

    #[test]
    fn on_complete_sees_every_job_exactly_once() {
        let seen = Mutex::new(vec![0u32; 8]);
        let jobs: Vec<SharedJob<usize>> = (0..8).map(|i| shared(move || i)).collect();
        let out = run_supervised(jobs, 4, &SuperviseOpts::default(), &|i, r| {
            assert_eq!(*r.as_ref().expect("job succeeds"), i);
            seen.lock().expect("lock")[i] += 1;
        });
        assert_eq!(out.len(), 8);
        assert!(seen.lock().expect("lock").iter().all(|&c| c == 1));
    }

    #[test]
    fn supervise_args_are_typed_with_aliases() {
        let opts = supervise_from_args(&[]).expect("defaults");
        assert_eq!(opts.timeout, None);
        assert_eq!(opts.max_attempts, 2);

        let opts = supervise_from_args(&["watchdog_ms=250".into(), "max_retries=5".into()])
            .expect("new names");
        assert_eq!(opts.timeout, Some(Duration::from_millis(250)));
        assert_eq!(opts.max_attempts, 5);

        // Old spellings still work...
        let opts =
            supervise_from_args(&["timeout_ms=100".into(), "attempts=3".into()]).expect("aliases");
        assert_eq!(opts.timeout, Some(Duration::from_millis(100)));
        assert_eq!(opts.max_attempts, 3);

        // ...and the new names win when both are given.
        let opts = supervise_from_args(&[
            "timeout_ms=100".into(),
            "watchdog_ms=400".into(),
            "attempts=3".into(),
            "max_retries=7".into(),
        ])
        .expect("both");
        assert_eq!(opts.timeout, Some(Duration::from_millis(400)));
        assert_eq!(opts.max_attempts, 7);

        assert_eq!(
            supervise_from_args(&["max_retries=0".into()]),
            Err(ArgError::ZeroRetries)
        );
        assert!(supervise_from_args(&["watchdog_ms=soon".into()]).is_err());
        assert_eq!(
            ArgError::ZeroRetries.to_string(),
            "max_retries= wants a positive integer, got `0`"
        );
    }

    #[test]
    fn job_error_display_is_stable() {
        assert_eq!(
            JobError::Panicked {
                detail: "boom".into()
            }
            .to_string(),
            "job panicked: boom"
        );
        assert_eq!(
            JobError::TimedOut { limit_ms: 250 }.to_string(),
            "job exceeded its 250 ms deadline"
        );
        assert_eq!(
            JobError::Quarantined {
                attempts: 2,
                last: "job panicked: boom".into()
            }
            .to_string(),
            "job quarantined after 2 failed attempts (last: job panicked: boom)"
        );
    }
}
