//! The experiment daemon: Unix-socket accept loop, per-class queues,
//! a supervised worker pool, and crash-consistent result publication.
//!
//! A `Run` request's lifecycle:
//!
//! ```text
//! decode → identity (ExperimentKey) → cache? ── hit ──▶ Result{cached}
//!                                        │
//!                                     inflight? ─ yes ─▶ wait (deduped)
//!                                        │
//!                                    admission ── shed ─▶ Reject{Retry-After}
//!                                        │
//!                                     enqueue → worker → journal fsync
//!                                                              │
//!                                          Result ◀── publish ─┘
//! ```
//!
//! Supervision: each execution attempt runs on its own thread under a
//! watchdog; an attempt that hangs past `watchdog_ms` is abandoned and
//! a replacement attempt spawned, up to `max_retries` attempts, after
//! which the request fails with a typed `worker-failed` error. The
//! journal fsync *precedes* every waiter notification, so no client
//! ever holds a result the restarted server has forgotten.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use impulse_obs::Json;
use impulse_types::{ExperimentKey, TierPolicy};

use crate::admission::{Admission, AdmissionConfig};
use crate::domains::TenantDomains;
use crate::proto::{Class, Request, Response, RunRequest, RunResult, ServerError, ServerErrorKind};
use crate::store::{Recovery, ResultStore, StoredResult};
use crate::wire::{read_frame, write_frame, WireError};

/// What the daemon serves: a catalog of named experiments, each with a
/// stable configuration digest and a deterministic runner.
///
/// The contract that makes caching sound: `run(name, seed)` must be a
/// pure function of `config_digest(name, seed)` — identical digests
/// must produce byte-identical results.
pub trait Backend: Send + Sync + 'static {
    /// Every experiment name this backend can run.
    fn names(&self) -> Vec<String>;
    /// Stable configuration digest for an experiment, or `None` if the
    /// name is unknown. The tier policy is part of the digest: the same
    /// experiment under a different memory organisation is a different
    /// cache entry.
    fn config_digest(&self, experiment: &str, seed: u64, tier: TierPolicy) -> Option<u64>;
    /// Runs the experiment to completion.
    ///
    /// # Errors
    ///
    /// A human-readable reason; the server wraps it in a typed
    /// `worker-failed` error after the retry budget is spent.
    fn run(&self, experiment: &str, seed: u64, tier: TierPolicy) -> Result<StoredResult, String>;
}

/// Daemon tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Unix socket path (created at start, unlinked on shutdown).
    pub socket: PathBuf,
    /// Result journal path.
    pub journal: PathBuf,
    /// Worker threads.
    pub workers: usize,
    /// Watchdog limit per execution attempt, in milliseconds.
    pub watchdog_ms: u64,
    /// Execution attempts per request before `worker-failed`.
    pub max_retries: u32,
    /// Admission-control tunables.
    pub admission: AdmissionConfig,
    /// Maximum concurrently in-flight requests per tenant, enforced by
    /// lease capabilities in the tenant's capability domain (see
    /// [`crate::domains`]). Generous by default: the capability layer is
    /// a backstop below the token buckets, not the primary throttle.
    pub max_inflight_leases: usize,
    /// Server-side cap on how long a connection waits for a result.
    pub request_timeout_ms: u64,
    /// Idle-connection read timeout.
    pub idle_timeout_ms: u64,
    /// Test knob: sleep this long between the journal fsync and the
    /// waiter notification, widening the kill-mid-publish window the
    /// chaos suite aims at. Zero in production.
    pub publish_stall_ms: u64,
}

impl ServerConfig {
    /// Sensible defaults for a socket/journal pair.
    pub fn new(socket: PathBuf, journal: PathBuf) -> Self {
        Self {
            socket,
            journal,
            workers: 4,
            watchdog_ms: 30_000,
            max_retries: 3,
            admission: AdmissionConfig::default(),
            max_inflight_leases: 256,
            request_timeout_ms: 120_000,
            idle_timeout_ms: 30_000,
            publish_stall_ms: 0,
        }
    }
}

/// A parked requester: the slot a worker completes into.
struct Pending {
    state: Mutex<Option<Result<StoredResult, ServerError>>>,
    cv: Condvar,
}

impl Pending {
    fn new() -> Self {
        Self {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, outcome: Result<StoredResult, ServerError>) {
        let mut state = self.state.lock().expect("pending lock");
        *state = Some(outcome);
        self.cv.notify_all();
    }

    /// Waits up to `limit`; `None` on timeout.
    fn wait(&self, limit: Duration) -> Option<Result<StoredResult, ServerError>> {
        let deadline = Instant::now() + limit;
        let mut state = self.state.lock().expect("pending lock");
        loop {
            if let Some(outcome) = state.as_ref() {
                return Some(outcome.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("pending lock");
            state = next;
        }
    }
}

struct Job {
    key: ExperimentKey,
    experiment: String,
    seed: u64,
    tier: TierPolicy,
    enqueued_ms: u64,
    pending: Arc<Pending>,
}

#[derive(Default)]
struct Queues {
    interactive: VecDeque<Job>,
    bulk: VecDeque<Job>,
    bulk_running: usize,
    shutdown: bool,
}

#[derive(Clone, Copy, Default)]
struct Counters {
    requests: u64,
    cache_hits: u64,
    dedups: u64,
    executed: u64,
    failed: u64,
    watchdog_kills: u64,
    bad_frames: u64,
}

struct Inner {
    cfg: ServerConfig,
    backend: Arc<dyn Backend>,
    started: Instant,
    admission: Mutex<Admission>,
    domains: Mutex<TenantDomains>,
    store: Mutex<ResultStore>,
    inflight: Mutex<HashMap<ExperimentKey, Arc<Pending>>>,
    queues: Mutex<Queues>,
    queue_cv: Condvar,
    counters: Mutex<Counters>,
    stopping: AtomicBool,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// A started daemon; call [`Server::run`] to serve until shutdown.
pub struct Server {
    inner: Arc<Inner>,
    listener: UnixListener,
    recovery: Recovery,
}

impl Server {
    /// Binds the socket, opens (and recovers) the result journal, and
    /// spins up the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates socket and journal I/O failures.
    pub fn start(backend: Arc<dyn Backend>, cfg: ServerConfig) -> io::Result<Server> {
        let (store, recovery) = ResultStore::open(&cfg.journal)?;
        // A stale socket file from a killed daemon would make bind fail.
        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;
        let inner = Arc::new(Inner {
            admission: Mutex::new(Admission::new(cfg.admission)),
            domains: Mutex::new(TenantDomains::new(cfg.max_inflight_leases)),
            store: Mutex::new(store),
            inflight: Mutex::new(HashMap::new()),
            queues: Mutex::new(Queues::default()),
            queue_cv: Condvar::new(),
            counters: Mutex::new(Counters::default()),
            stopping: AtomicBool::new(false),
            started: Instant::now(),
            backend,
            cfg,
        });
        Ok(Server {
            inner,
            listener,
            recovery,
        })
    }

    /// What journal recovery found at startup.
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// Serves until a `Shutdown` request arrives, then drains workers
    /// and unlinks the socket.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures.
    pub fn run(self) -> io::Result<()> {
        let workers: Vec<_> = (0..self.inner.cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&self.inner);
                thread::Builder::new()
                    .name(format!("impulse-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        for conn in self.listener.incoming() {
            if self.inner.stopping.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    let inner = Arc::clone(&self.inner);
                    // Connection threads are detached: they are bounded
                    // by the idle/request timeouts and die with the
                    // process; shutdown only waits for workers.
                    let _ = thread::Builder::new()
                        .name("impulse-conn".into())
                        .spawn(move || handle_connection(&inner, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        for w in workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(&self.inner.cfg.socket);
        Ok(())
    }
}

/// Pops the next runnable job, honoring strict interactive priority
/// and the Heracles bulk allowance. `None` means shutdown with empty
/// queues.
fn next_job(inner: &Inner) -> Option<Job> {
    let mut q = inner.queues.lock().expect("queues lock");
    loop {
        if let Some(job) = q.interactive.pop_front() {
            let wait = inner.now_ms().saturating_sub(job.enqueued_ms);
            inner
                .admission
                .lock()
                .expect("admission lock")
                .observe_interactive_wait(wait);
            return Some(job);
        }
        let allowance = inner.admission.lock().expect("admission lock").bulk_slots();
        if q.bulk_running < allowance {
            if let Some(job) = q.bulk.pop_front() {
                q.bulk_running += 1;
                return Some(job);
            }
        }
        if q.shutdown && q.interactive.is_empty() && q.bulk.is_empty() {
            return None;
        }
        // Timed wait: the bulk allowance can grow while we sleep, and
        // a bare `wait` would never re-check it.
        let (next, _) = inner
            .queue_cv
            .wait_timeout(q, Duration::from_millis(50))
            .expect("queues lock");
        q = next;
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(job) = next_job(inner) {
        let outcome = run_job(inner, &job);
        // Publication contract: journal fsync BEFORE any waiter can
        // observe the result.
        let outcome = match outcome {
            Ok(result) => {
                let published = inner
                    .store
                    .lock()
                    .expect("store lock")
                    .publish(job.key, result.clone());
                match published {
                    Ok(()) => Ok(result),
                    Err(e) => Err(ServerError::new(
                        ServerErrorKind::WorkerFailed,
                        format!("result publication failed: {e}"),
                    )),
                }
            }
            Err(e) => Err(e),
        };
        if inner.cfg.publish_stall_ms > 0 {
            thread::sleep(Duration::from_millis(inner.cfg.publish_stall_ms));
        }
        inner
            .inflight
            .lock()
            .expect("inflight lock")
            .remove(&job.key);
        job.pending.complete(outcome);
        let mut q = inner.queues.lock().expect("queues lock");
        q.bulk_running = q.bulk_running.saturating_sub(1);
        drop(q);
        inner.queue_cv.notify_all();
    }
}

/// Runs one job under the watchdog/retry budget. A cached result (for
/// example after a restart mid-queue) short-circuits execution.
fn run_job(inner: &Arc<Inner>, job: &Job) -> Result<StoredResult, ServerError> {
    if let Some(hit) = inner.store.lock().expect("store lock").get(job.key) {
        return Ok(hit.clone());
    }
    let attempts = inner.cfg.max_retries.max(1);
    let limit = Duration::from_millis(inner.cfg.watchdog_ms.max(1));
    let mut last = String::new();
    for attempt in 1..=attempts {
        let (tx, rx) = mpsc::channel();
        let backend = Arc::clone(&inner.backend);
        let name = job.experiment.clone();
        let seed = job.seed;
        let tier = job.tier;
        // The attempt runs detached so a hang cannot wedge the worker:
        // the watchdog abandons it and spawns a replacement attempt.
        let spawned = thread::Builder::new()
            .name(format!("impulse-attempt-{name}"))
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| backend.run(&name, seed, tier)));
                let _ = tx.send(result);
            });
        if spawned.is_err() {
            last = "could not spawn attempt thread".into();
            continue;
        }
        match rx.recv_timeout(limit) {
            Ok(Ok(Ok(result))) => {
                let mut c = inner.counters.lock().expect("counters lock");
                c.executed += 1;
                return Ok(result);
            }
            Ok(Ok(Err(reason))) => {
                last = format!("attempt {attempt}: {reason}");
            }
            Ok(Err(panic)) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".into());
                last = format!("attempt {attempt} panicked: {msg}");
            }
            Err(_) => {
                inner.counters.lock().expect("counters lock").watchdog_kills += 1;
                last = format!(
                    "attempt {attempt} exceeded the {} ms watchdog",
                    inner.cfg.watchdog_ms
                );
            }
        }
    }
    inner.counters.lock().expect("counters lock").failed += 1;
    Err(ServerError::new(
        ServerErrorKind::WorkerFailed,
        format!("{last} ({attempts} attempt(s))"),
    ))
}

fn handle_connection(inner: &Arc<Inner>, mut stream: UnixStream) {
    let idle = Duration::from_millis(inner.cfg.idle_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(idle));
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(WireError::Closed) => return,
            Err(WireError::Io(kind, _))
                if kind == io::ErrorKind::WouldBlock || kind == io::ErrorKind::TimedOut =>
            {
                return; // idle client
            }
            Err(e) => {
                // Corrupt or truncated frame: answer with a typed
                // error (best effort — the peer may be gone), then
                // close; framing sync is lost on this stream.
                inner.counters.lock().expect("counters lock").bad_frames += 1;
                let err = ServerError::new(ServerErrorKind::BadRequest, e.to_string());
                let _ = write_frame(&mut stream, &Response::Error(err).to_frame());
                return;
            }
        };
        let (response, shutdown) = match Request::from_frame(&frame) {
            Ok(Request::Run(req)) => (handle_run(inner, &req), false),
            Ok(Request::Stats) => (Response::Stats(stats_doc(inner)), false),
            Ok(Request::Ping) => (Response::Ok, false),
            Ok(Request::Shutdown) => (Response::Ok, true),
            Err(e) => (
                Response::Error(ServerError::new(ServerErrorKind::BadRequest, e.to_string())),
                false,
            ),
        };
        if write_frame(&mut stream, &response.to_frame()).is_err() {
            return;
        }
        if shutdown {
            begin_shutdown(inner);
            return;
        }
    }
}

fn handle_run(inner: &Arc<Inner>, req: &RunRequest) -> Response {
    inner.counters.lock().expect("counters lock").requests += 1;
    let Some(config) = inner
        .backend
        .config_digest(&req.experiment, req.seed, req.tier)
    else {
        return Response::Error(ServerError::new(
            ServerErrorKind::UnknownExperiment,
            format!("no catalog entry named `{}`", req.experiment),
        ));
    };
    let key = ExperimentKey::new(config, req.seed);
    if let Some(hit) = inner.store.lock().expect("store lock").get(key) {
        inner.counters.lock().expect("counters lock").cache_hits += 1;
        return Response::Result(RunResult {
            key_hex: key.hex(),
            cached: true,
            deduped: false,
            csv: hit.csv.clone(),
            report: hit.report.clone(),
        });
    }
    // Dedup-or-admit, atomically under the inflight lock so two
    // identical requests can never both enqueue.
    let (pending, deduped, lease) = {
        let mut inflight = inner.inflight.lock().expect("inflight lock");
        if let Some(p) = inflight.get(&key) {
            inner.counters.lock().expect("counters lock").dedups += 1;
            (Arc::clone(p), true, None)
        } else {
            let mut q = inner.queues.lock().expect("queues lock");
            let depth = match req.class {
                Class::Interactive => q.interactive.len(),
                Class::Bulk => q.bulk.len(),
            };
            let verdict = inner.admission.lock().expect("admission lock").admit(
                req.class,
                &req.tenant,
                depth,
                inner.now_ms(),
            );
            if let Err(reject) = verdict {
                return Response::Reject(reject);
            }
            // Kernel-enforced backstop below the token buckets: the
            // request holds a lease capability in the tenant's domain
            // until its response is sent.
            let lease = match inner
                .domains
                .lock()
                .expect("domains lock")
                .lease(&req.tenant)
            {
                Ok(cap) => cap,
                Err(reject) => return Response::Reject(reject),
            };
            let pending = Arc::new(Pending::new());
            let job = Job {
                key,
                experiment: req.experiment.clone(),
                seed: req.seed,
                tier: req.tier,
                enqueued_ms: inner.now_ms(),
                pending: Arc::clone(&pending),
            };
            match req.class {
                Class::Interactive => q.interactive.push_back(job),
                Class::Bulk => q.bulk.push_back(job),
            }
            drop(q);
            inflight.insert(key, Arc::clone(&pending));
            inner.queue_cv.notify_all();
            (pending, false, Some(lease))
        }
    };
    let mut wait_ms = inner.cfg.request_timeout_ms.max(1);
    if req.deadline_ms > 0 {
        wait_ms = wait_ms.min(req.deadline_ms);
    }
    let response = match pending.wait(Duration::from_millis(wait_ms)) {
        Some(Ok(result)) => Response::Result(RunResult {
            key_hex: key.hex(),
            cached: false,
            deduped,
            csv: result.csv,
            report: result.report,
        }),
        Some(Err(err)) => Response::Error(err),
        None => Response::Error(ServerError::new(
            ServerErrorKind::DeadlineExceeded,
            format!("no result within {wait_ms} ms"),
        )),
    };
    if let Some(cap) = lease {
        // The lease dies with the request, whatever the outcome —
        // deadline-exceeded included, or the tenant's budget would leak.
        inner
            .domains
            .lock()
            .expect("domains lock")
            .release(&req.tenant, cap);
    }
    response
}

fn stats_doc(inner: &Arc<Inner>) -> Json {
    let c = *inner.counters.lock().expect("counters lock");
    let (iq, bq, br) = {
        let q = inner.queues.lock().expect("queues lock");
        (q.interactive.len(), q.bulk.len(), q.bulk_running)
    };
    let (slots, adm) = {
        let a = inner.admission.lock().expect("admission lock");
        (a.bulk_slots(), a.stats())
    };
    let cached = inner.store.lock().expect("store lock").len();
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("impulse-serve-stats-v1".into()));
    doc.set("uptime_ms", Json::UInt(inner.now_ms()));
    doc.set("requests", Json::UInt(c.requests));
    doc.set("cache_hits", Json::UInt(c.cache_hits));
    doc.set("dedups", Json::UInt(c.dedups));
    doc.set("executed", Json::UInt(c.executed));
    doc.set("failed", Json::UInt(c.failed));
    doc.set("watchdog_kills", Json::UInt(c.watchdog_kills));
    doc.set("bad_frames", Json::UInt(c.bad_frames));
    doc.set("cached_results", Json::UInt(cached as u64));
    doc.set("queue_interactive", Json::UInt(iq as u64));
    doc.set("queue_bulk", Json::UInt(bq as u64));
    doc.set("bulk_running", Json::UInt(br as u64));
    doc.set("bulk_slots", Json::UInt(slots as u64));
    let mut a = Json::obj();
    a.set("admitted", Json::UInt(adm.admitted));
    a.set("rejected_quota", Json::UInt(adm.rejected_quota));
    a.set("rejected_queue_full", Json::UInt(adm.rejected_queue_full));
    a.set(
        "rejected_shutting_down",
        Json::UInt(adm.rejected_shutting_down),
    );
    a.set("bulk_shrinks", Json::UInt(adm.bulk_shrinks));
    a.set("bulk_grows", Json::UInt(adm.bulk_grows));
    doc.set("admission", a);
    let (dstats, live) = {
        let d = inner.domains.lock().expect("domains lock");
        (d.stats(), d.live_total())
    };
    let mut t = Json::obj();
    t.set("domains", Json::UInt(dstats.domains));
    t.set("live_leases", Json::UInt(live as u64));
    t.set("leases_granted", Json::UInt(dstats.leases_granted));
    t.set("leases_revoked", Json::UInt(dstats.leases_revoked));
    t.set("rejected_leases", Json::UInt(dstats.rejected_leases));
    t.set("stale_releases", Json::UInt(dstats.stale_releases));
    doc.set("tenant_domains", t);
    doc
}

/// Flips the daemon into drain mode and unblocks the accept loop.
fn begin_shutdown(inner: &Arc<Inner>) {
    inner.admission.lock().expect("admission lock").drain();
    inner.stopping.store(true, Ordering::SeqCst);
    {
        let mut q = inner.queues.lock().expect("queues lock");
        q.shutdown = true;
    }
    inner.queue_cv.notify_all();
    // The accept loop is parked in `accept`; poke it with a throwaway
    // connection so it observes the stopping flag.
    let _ = UnixStream::connect(&inner.cfg.socket);
}
