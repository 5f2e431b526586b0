//! Sweep-as-a-service: a long-running server that accepts
//! `wishbranch.request/v1` documents over local TCP from many concurrent
//! clients, admits them under per-tenant simulated-cycle budgets, shards
//! each request across a bounded pool of worker *processes*, and streams
//! per-job results back as `wishbranch.response/v1` JSONL lines as they
//! land.
//!
//! ## Protocol
//!
//! A client connects, writes one request line, and reads response lines
//! until the connection closes:
//!
//! ```text
//! → {"schema":"wishbranch.request/v1","tenant":"alice","experiments":["fig10"],...}
//! ← {"schema":"wishbranch.response/v1","type":"accepted","tenant":"alice","fingerprint":123}
//! ← {"schema":"wishbranch.response/v1","type":"job","experiment":"fig10","key":K,
//!    "entry":{"key":K,"v":4,"image":{"bench":"gzip","input":"A","fnv":F},
//!             "data":[...]}}                     (one per job, as it lands)
//! ← {"schema":"wishbranch.response/v1","type":"report","experiment":"fig10",
//!    "report":{"schema":"wishbranch.report/v1",...}}
//! ← {"schema":"wishbranch.response/v1","type":"done","jobs":N,...,"failures":[...]}
//! ```
//!
//! A refused request gets a single `rejected` line (typed `kind` +
//! human-readable `reason`) and the connection closes. Each `job` line
//! embeds a verbatim `wishbranch.journal/v1` entry — the very bytes the
//! worker wrote to its journal and the store, or read back from them on a
//! hit — so clients reuse the journal codec
//! ([`journal::decode_entry`](crate::journal::decode_entry)) to recover
//! full bit-identical [`RunOutcome`](crate::RunOutcome)s. A layout-4
//! entry carries only the memory words the job changed and names its
//! input image; decoding rebuilds that image from `wishbranch-workloads`
//! (the client needs no simulator state) and checks its fingerprint.
//!
//! ## Sharding and crash recovery
//!
//! One shard = one experiment of the request. Each shard runs in a worker
//! process (`wishbranch-repro --worker`, fed one
//! `wishbranch.workerspec/v1` line on stdin), bounded by
//! [`ServeConfig::max_procs`] process slots across all connections. Every
//! shard journals to its own per-connection file; if a worker dies
//! mid-shard (crash, `kill -9`, injected abort), the server respawns it
//! in resume mode — completed jobs replay bit-identically from the
//! journal and re-announce through the stream, the server deduplicates by
//! job key, and the client sees a complete, gap-free, duplicate-free
//! stream. Respawns strip the request's fault plan, mirroring the CLI's
//! kill-then-resume contract (a resume legitimately does not re-inject
//! the fault that killed the run).
//!
//! ## Admission and billing
//!
//! Tenants named in [`ServeConfig::tenant_budgets`] are admitted until
//! their accumulated simulated cycles reach the budget; the next request
//! is `rejected` with kind `cycle_budget_exceeded` (the same stable kind
//! string as the per-job typed error). Journal and artifact-store hits
//! bill zero cycles — tenants pay only for simulation actually executed.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{ChaosKind, ChaosPlan, FaultPlan};
use crate::journal::encode_entry;
use crate::minijson::JsonValue;
use crate::report::json_escape;
use crate::request::SweepRequest;
use crate::store::ArtifactStore;

/// Schema tag on every response line.
pub const RESPONSE_SCHEMA: &str = "wishbranch.response/v1";

/// Schema tag on the one-line spec a worker process reads from stdin.
pub const WORKER_SPEC_SCHEMA: &str = "wishbranch.workerspec/v1";

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server configuration: where worker processes come from, where state
/// lives, and who may spend how much.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The binary to fork/exec per shard (run with `--worker`); normally
    /// the server's own executable.
    pub worker_exe: PathBuf,
    /// Root for per-connection shard journals
    /// (`<state_dir>/conn-N/<experiment>/journal.jsonl`).
    pub state_dir: PathBuf,
    /// Content-addressed artifact store shared by every worker, run and
    /// tenant; `None` disables the store.
    pub store_dir: Option<PathBuf>,
    /// Maximum worker processes alive at once, across all connections.
    pub max_procs: usize,
    /// Per-tenant simulated-cycle budgets. Tenants not named here are
    /// unmetered.
    pub tenant_budgets: HashMap<String, u64>,
    /// How many times a dead *or hung* worker is respawned (in
    /// journal-resume mode) before its shard is reported failed.
    pub max_respawns: u32,
    /// How long a connection may take to deliver its one request line
    /// before it is `rejected` with kind `request_timeout`. `0` disables.
    pub read_timeout_ms: u64,
    /// Per-write timeout toward the client. A stalled client (full socket
    /// buffers) trips this; the connection is marked dead, workers finish
    /// (journal and store stay complete), and the handler thread exits
    /// instead of pinning. `0` disables.
    pub write_timeout_ms: u64,
    /// Interval of the worker liveness heartbeat line (propagated into
    /// the worker spec). Heartbeats are consumed server-side and never
    /// forwarded to clients.
    pub heartbeat_ms: u64,
    /// Silence threshold after which a worker is declared hung, killed,
    /// and respawned in resume mode (any worker output — heartbeat or
    /// protocol line — counts as liveness).
    pub liveness_timeout_ms: u64,
    /// Shard deadline = the request's per-job `budget_wall_ms` × this
    /// factor, spanning every respawn attempt of the shard. On expiry the
    /// worker is killed and the shard fails with typed kind
    /// `shard_deadline_exceeded`. `0` (or a request without a wall
    /// budget) disables the deadline.
    pub shard_deadline_factor: u64,
    /// Maximum accepted request-line length in bytes (newline included);
    /// longer requests are `rejected` with kind `request_too_large`
    /// instead of buffering without bound.
    pub max_request_bytes: usize,
    /// Deterministic serve-layer fault injection (worker-side clauses are
    /// propagated into attempt-0 worker specs; respawns strip them, like
    /// the fault plan). Empty in production.
    pub chaos_plan: ChaosPlan,
}

impl ServeConfig {
    /// A config with defaults: 4 process slots, 2 respawns, no store, no
    /// budgets, 10 s read/write timeouts, 250 ms heartbeats with a 5 s
    /// liveness threshold, shard deadline 100 × `budget_wall_ms`, 1 MiB
    /// request cap, no chaos.
    #[must_use]
    pub fn new(worker_exe: impl Into<PathBuf>, state_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            worker_exe: worker_exe.into(),
            state_dir: state_dir.into(),
            store_dir: None,
            max_procs: 4,
            tenant_budgets: HashMap::new(),
            max_respawns: 2,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            heartbeat_ms: 250,
            liveness_timeout_ms: 5_000,
            shard_deadline_factor: 100,
            max_request_bytes: 1 << 20,
            chaos_plan: ChaosPlan::new(),
        }
    }
}

/// The attempt-indexed respawn/reconnect backoff schedule. Deterministic
/// by construction — no wall-clock sampling, no jitter — so chaos runs
/// reproduce: the *timing* of a respawn varies with the host, the
/// schedule consulted does not.
const BACKOFF_MS: [u64; 6] = [10, 25, 50, 100, 250, 500];

/// The pause before respawn/reconnect attempt `attempt` (1-based).
/// Attempt-indexed into a fixed bounded schedule, saturating at the last
/// entry (500 ms).
#[must_use]
pub fn respawn_backoff(attempt: u32) -> Duration {
    let idx = (attempt.saturating_sub(1) as usize).min(BACKOFF_MS.len() - 1);
    Duration::from_millis(BACKOFF_MS[idx])
}

fn timeout_of(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// A counting semaphore bounding live worker processes.
struct Slots {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Slots {
    fn new(n: usize) -> Slots {
        Slots {
            free: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a slot is free and claims it. The claim is RAII: the
    /// returned guard releases on drop, so a panicking spawn path (or any
    /// early return) can never leak a slot.
    fn acquire(&self) -> SlotGuard<'_> {
        let mut free = lock(&self.free);
        while *free == 0 {
            free = self.cv.wait(free).unwrap_or_else(PoisonError::into_inner);
        }
        *free -= 1;
        SlotGuard { slots: self }
    }

    /// Slots currently free (test/observability hook).
    #[cfg(test)]
    fn available(&self) -> usize {
        *lock(&self.free)
    }
}

/// An RAII claim on one process slot; dropping it releases the slot.
struct SlotGuard<'a> {
    slots: &'a Slots,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        *lock(&self.slots.free) += 1;
        self.slots.cv.notify_one();
    }
}

/// Server-lifetime resilience counters, reported to every client as a
/// `stats` line immediately before its `done` line.
#[derive(Debug, Default)]
struct ServerStats {
    /// Workers respawned in resume mode (died or hung, then restarted).
    respawns: AtomicU64,
    /// Workers killed because their liveness heartbeat went silent.
    hung_killed: AtomicU64,
    /// Workers killed because their shard deadline expired.
    deadline_kills: AtomicU64,
    /// Requests refused with a typed `rejected` line.
    rejected_requests: AtomicU64,
}

/// State shared by every connection thread.
struct Shared {
    cfg: ServeConfig,
    /// Simulated cycles spent so far, per tenant.
    ledger: Mutex<HashMap<String, u64>>,
    slots: Slots,
    conn_seq: AtomicU64,
    stats: ServerStats,
    /// Set by [`Server::shutdown`]: stop accepting, drain in-flight work.
    draining: AtomicBool,
    /// Live connection handlers (guarded by `idle_cv` for drain waits).
    active: Mutex<u64>,
    idle_cv: Condvar,
}

/// Decrements the live-handler count when a connection thread exits,
/// panicking or not, and wakes any drain waiter.
struct ActiveGuard<'a> {
    shared: &'a Shared,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        *lock(&self.shared.active) -= 1;
        self.shared.idle_cv.notify_all();
    }
}

/// The sweep server: one [`bind`](Server::bind), then [`run`](Server::run)
/// forever. Each accepted connection is one request, handled on its own
/// thread; shards compete for the shared process-slot pool.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Aggregated statistics of one finished shard, lifted from the worker's
/// `done` line.
#[derive(Clone, Debug, Default)]
struct ShardStats {
    jobs: u64,
    failed: u64,
    store_hits: u64,
    store_misses: u64,
    store_quarantined: u64,
    profile_misses: u64,
    compile_misses: u64,
    sim_cycles: u64,
    /// Jobs the shard ran inside multi-lane lockstep batches.
    batched_jobs: u64,
    /// The raw contents of the shard's `failures` array (no brackets).
    failures_raw: String,
}

/// A shard-level failure: a stable `kind` for the failure table plus a
/// human-readable reason.
struct ShardError {
    kind: &'static str,
    reason: String,
}

impl ShardError {
    fn failed(reason: String) -> ShardError {
        ShardError {
            kind: "shard_failed",
            reason,
        }
    }
}

impl Server {
    /// Binds the server to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) and creates the state directory.
    ///
    /// # Errors
    ///
    /// I/O errors binding the socket or creating `state_dir`.
    pub fn bind(addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        if let Some(store_dir) = &cfg.store_dir {
            std::fs::create_dir_all(store_dir)?;
        }
        let listener = TcpListener::bind(addr)?;
        let slots = Slots::new(cfg.max_procs);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cfg,
                ledger: Mutex::new(HashMap::new()),
                slots,
                conn_seq: AtomicU64::new(0),
                stats: ServerStats::default(),
                draining: AtomicBool::new(false),
                active: Mutex::new(0),
                idle_cv: Condvar::new(),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// The socket's local address could not be read.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until [`shutdown`](Server::shutdown) drains
    /// the server, one handler thread per connection. Returns only after
    /// every in-flight handler (and its workers) has finished — shard
    /// journals are flushed per job, so a drained server leaves nothing
    /// torn behind.
    ///
    /// # Errors
    ///
    /// A fatal accept-loop I/O error (per-connection errors are contained
    /// in their handler threads).
    pub fn run(&self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let shared = Arc::clone(&self.shared);
            // Count the handler *before* the thread starts so a drain
            // that begins right now still waits for it.
            *lock(&shared.active) += 1;
            std::thread::spawn(move || {
                let _live = ActiveGuard { shared: &shared };
                handle_connection(&shared, stream);
            });
        }
        self.wait_idle();
        Ok(())
    }

    /// Graceful drain: stop accepting new connections, let every
    /// in-flight shard finish and stream its results, then return. Safe
    /// to call from any thread (e.g. a SIGTERM watcher) while
    /// [`run`](Server::run) blocks in accept.
    ///
    /// # Errors
    ///
    /// The socket's local address could not be read (needed to wake the
    /// blocked accept loop).
    pub fn shutdown(&self) -> io::Result<()> {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection so it observes
        // the drain flag instead of blocking forever.
        let _ = TcpStream::connect(self.local_addr()?);
        self.wait_idle();
        Ok(())
    }

    fn wait_idle(&self) {
        let mut active = lock(&self.shared.active);
        while *active > 0 {
            active = self
                .shared
                .idle_cv
                .wait(active)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Binds to `addr`, prints one `listening on <addr>` line to stdout
/// (flushed, so wrappers can scrape the port), and serves forever.
///
/// # Errors
///
/// Bind or accept-loop I/O errors.
pub fn serve_forever(addr: &str, cfg: ServeConfig) -> io::Result<()> {
    let server = Server::bind(addr, cfg)?;
    println!("listening on {}", server.local_addr()?);
    io::stdout().flush()?;
    server.run()
}

/// A line writer shared by every shard of one connection. Once a write
/// fails (client went away) further writes are skipped; workers still
/// finish so the journal and store stay complete.
struct ConnWriter {
    stream: TcpStream,
    dead: bool,
}

impl ConnWriter {
    fn send(&mut self, line: &str) {
        if self.dead {
            return;
        }
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        if self.stream.write_all(&buf).is_err() {
            self.dead = true;
        }
    }
}

fn rejected_line(kind: &str, reason: &str) -> String {
    format!(
        "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"rejected\",\"kind\":\"{}\",\"reason\":\"{}\"}}",
        json_escape(kind),
        json_escape(reason)
    )
}

/// Sends a typed `rejected` line and counts it in the server stats.
fn reject(shared: &Shared, writer: &mut ConnWriter, kind: &str, reason: &str) {
    shared.stats.rejected_requests.fetch_add(1, Ordering::Relaxed);
    writer.send(&rejected_line(kind, reason));
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let cfg = &shared.cfg;
    // Slow-client defenses: a client that never finishes its request
    // line, or never drains its responses, must not pin this thread.
    let _ = stream.set_read_timeout(timeout_of(cfg.read_timeout_ms));
    let _ = stream.set_write_timeout(timeout_of(cfg.write_timeout_ms));
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = ConnWriter {
        stream,
        dead: false,
    };
    // The request line (newline included) is capped: one extra byte of
    // budget distinguishes "exactly at the cap" from "overflowed it".
    let cap = cfg.max_request_bytes as u64;
    let mut limited = reader.take(cap + 1);
    let mut line = String::new();
    match limited.read_line(&mut line) {
        Ok(_) => {}
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            reject(
                shared,
                &mut writer,
                "request_timeout",
                &format!(
                    "no complete request line within {} ms",
                    cfg.read_timeout_ms
                ),
            );
            return;
        }
        Err(_) => return,
    }
    if line.len() as u64 > cap {
        reject(
            shared,
            &mut writer,
            "request_too_large",
            &format!("request line exceeds {} bytes", cfg.max_request_bytes),
        );
        return;
    }
    if line.trim().is_empty() {
        return;
    }
    let req = match SweepRequest::parse(line.trim()) {
        Ok(req) => req,
        Err(e) => {
            reject(shared, &mut writer, e.kind(), &e.to_string());
            return;
        }
    };
    // Admission: a metered tenant whose ledger has reached its budget is
    // refused before any work starts.
    if let Some(&budget) = shared.cfg.tenant_budgets.get(&req.tenant) {
        let spent = lock(&shared.ledger).get(&req.tenant).copied().unwrap_or(0);
        if spent >= budget {
            reject(
                shared,
                &mut writer,
                "cycle_budget_exceeded",
                &format!(
                    "tenant {:?} has spent {spent} of {budget} budgeted simulated cycles",
                    req.tenant
                ),
            );
            return;
        }
    }
    writer.send(&format!(
        "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"accepted\",\"tenant\":\"{}\",\"fingerprint\":{}}}",
        json_escape(&req.tenant),
        req.fingerprint()
    ));
    let conn = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
    let conn_dir = shared.cfg.state_dir.join(format!("conn-{conn:06}"));
    let writer = Mutex::new(writer);
    let seen = Mutex::new(HashSet::new());
    // Shard deadline: one absolute instant spanning every respawn attempt
    // of every shard, derived from the request's own wall budget.
    let deadline = match (req.budgets.wall_ms, cfg.shard_deadline_factor) {
        (Some(ms), factor) if factor > 0 => {
            Some(Instant::now() + Duration::from_millis(ms.saturating_mul(factor)))
        }
        _ => None,
    };
    // One shard per experiment, all in flight at once; the process-slot
    // semaphore (shared across connections) bounds real concurrency.
    let results: Vec<Result<ShardStats, ShardError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = req
            .experiments
            .iter()
            .map(|exp| {
                let mut shard_req = req.clone();
                shard_req.experiments = vec![*exp];
                let conn_dir = &conn_dir;
                let writer = &writer;
                let seen = &seen;
                scope.spawn(move || run_shard(shared, conn_dir, shard_req, deadline, seen, writer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                Err(_) => Err(ShardError::failed("shard thread panicked".to_string())),
            })
            .collect()
    });
    // Synthesize the request-level `done` line from the shard summaries.
    let mut total = ShardStats::default();
    let mut failure_items: Vec<String> = Vec::new();
    for (exp, result) in req.experiments.iter().zip(results) {
        match result {
            Ok(stats) => {
                total.jobs += stats.jobs;
                total.failed += stats.failed;
                total.store_hits += stats.store_hits;
                total.store_misses += stats.store_misses;
                total.store_quarantined += stats.store_quarantined;
                total.profile_misses += stats.profile_misses;
                total.compile_misses += stats.compile_misses;
                total.sim_cycles += stats.sim_cycles;
                total.batched_jobs += stats.batched_jobs;
                if !stats.failures_raw.is_empty() {
                    failure_items.push(stats.failures_raw);
                }
            }
            Err(e) => {
                total.failed += 1;
                failure_items.push(format!(
                    "{{\"index\":0,\"kind\":\"{}\",\"job\":\"{}\",\"error\":\"{}\",\"attempts\":0}}",
                    json_escape(e.kind),
                    json_escape(exp.id()),
                    json_escape(&e.reason)
                ));
            }
        }
    }
    lock(&shared.ledger)
        .entry(req.tenant.clone())
        .and_modify(|spent| *spent += total.sim_cycles)
        .or_insert(total.sim_cycles);
    let stats_line = format!(
        "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"stats\",\"respawns\":{},\
         \"hung_killed\":{},\"deadline_kills\":{},\"rejected_requests\":{}}}",
        shared.stats.respawns.load(Ordering::Relaxed),
        shared.stats.hung_killed.load(Ordering::Relaxed),
        shared.stats.deadline_kills.load(Ordering::Relaxed),
        shared.stats.rejected_requests.load(Ordering::Relaxed),
    );
    let mut w = lock(&writer);
    w.send(&stats_line);
    w.send(&format!(
        "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"done\",\"jobs\":{},\"failed\":{},\
         \"store_hits\":{},\"store_misses\":{},\"store_quarantined\":{},\
         \"profile_misses\":{},\"compile_misses\":{},\
         \"sim_cycles\":{},\"batched_jobs\":{},\"failures\":[{}]}}",
        total.jobs,
        total.failed,
        total.store_hits,
        total.store_misses,
        total.store_quarantined,
        total.profile_misses,
        total.compile_misses,
        total.sim_cycles,
        total.batched_jobs,
        failure_items.join(",")
    ));
}

/// How one worker attempt ended, as seen by the shard's respawn loop.
enum ShardOutcome {
    /// The worker printed its shard `done` line and exited.
    Done(ShardStats),
    /// The worker died (crash, abort, torn write) before `done`.
    Died,
    /// The worker's liveness heartbeat went silent; it was killed.
    HungKilled,
    /// The shard deadline expired; the worker was killed.
    DeadlineKilled,
}

/// Runs one shard to completion: spawn a worker, forward its stream,
/// respawn in resume mode (after a deterministic attempt-indexed backoff)
/// if it dies or hangs before finishing. A shard-deadline expiry is a
/// budget violation, not a transient fault, so it fails the shard without
/// respawning.
fn run_shard(
    shared: &Shared,
    conn_dir: &Path,
    mut shard_req: SweepRequest,
    deadline: Option<Instant>,
    seen: &Mutex<HashSet<u64>>,
    writer: &Mutex<ConnWriter>,
) -> Result<ShardStats, ShardError> {
    let exp_id = shard_req.experiments[0].id();
    let shard_dir = conn_dir.join(exp_id);
    std::fs::create_dir_all(&shard_dir)
        .map_err(|e| ShardError::failed(format!("creating shard dir: {e}")))?;
    let journal_path = shard_dir.join("journal.jsonl");
    let mut attempt = 0u32;
    loop {
        let resume = attempt > 0;
        if resume {
            // Mirror the CLI's kill-then-resume contract: a resume does
            // not re-inject the fault that killed the previous attempt.
            shard_req.fault_plan = Some(FaultPlan::new());
        }
        // Chaos rides only on the first attempt, stripped on respawn for
        // the same reason.
        let chaos = if resume {
            String::new()
        } else {
            shared.cfg.chaos_plan.worker_spec()
        };
        let outcome = {
            let _slot = shared.slots.acquire();
            spawn_and_stream(
                shared,
                &journal_path,
                resume,
                &shard_req,
                &chaos,
                deadline,
                seen,
                writer,
            )
        };
        match outcome {
            Ok(ShardOutcome::Done(stats)) => return Ok(stats),
            Ok(ShardOutcome::Died | ShardOutcome::HungKilled) => {
                attempt += 1;
                if attempt > shared.cfg.max_respawns {
                    return Err(ShardError::failed(format!(
                        "worker for {exp_id} died {attempt} times without completing its shard"
                    )));
                }
                shared.stats.respawns.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(respawn_backoff(attempt));
            }
            Ok(ShardOutcome::DeadlineKilled) => {
                return Err(ShardError {
                    kind: "shard_deadline_exceeded",
                    reason: format!(
                        "shard {exp_id} exceeded its deadline \
                         (budget_wall_ms x {}) and was killed",
                        shared.cfg.shard_deadline_factor
                    ),
                });
            }
            Err(e) => return Err(ShardError::failed(format!("worker for {exp_id}: {e}"))),
        }
    }
}

/// The one-line `wishbranch.workerspec/v1` document a worker reads on
/// stdin. The request rides along as an escaped string, so the worker
/// reuses [`SweepRequest::parse`] verbatim.
fn worker_spec_line(
    journal: &Path,
    store: Option<&Path>,
    resume: bool,
    req: &SweepRequest,
    heartbeat_ms: u64,
    chaos: &str,
) -> String {
    let store_field = match store {
        Some(p) => format!("\"{}\"", json_escape(&p.display().to_string())),
        None => "null".to_string(),
    };
    format!(
        "{{\"schema\":\"{WORKER_SPEC_SCHEMA}\",\"journal\":\"{}\",\"store\":{},\"resume\":{},\
         \"heartbeat_ms\":{},\"chaos\":\"{}\",\"request\":\"{}\"}}",
        json_escape(&journal.display().to_string()),
        store_field,
        resume,
        heartbeat_ms,
        json_escape(chaos),
        json_escape(&req.to_json())
    )
}

/// Spawns one worker process and forwards its stream, monitoring
/// liveness (any output, heartbeat or protocol, counts) and the shard
/// deadline. A worker that goes silent past the liveness threshold, or
/// outlives the deadline, is killed — never waited on forever.
#[allow(clippy::too_many_arguments)]
fn spawn_and_stream(
    shared: &Shared,
    journal_path: &Path,
    resume: bool,
    shard_req: &SweepRequest,
    chaos: &str,
    deadline: Option<Instant>,
    seen: &Mutex<HashSet<u64>>,
    writer: &Mutex<ConnWriter>,
) -> io::Result<ShardOutcome> {
    let cfg = &shared.cfg;
    let mut child = Command::new(&cfg.worker_exe)
        .arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    {
        let mut stdin = child.stdin.take().ok_or_else(|| {
            io::Error::new(io::ErrorKind::BrokenPipe, "worker stdin unavailable")
        })?;
        let mut spec = worker_spec_line(
            journal_path,
            cfg.store_dir.as_deref(),
            resume,
            shard_req,
            cfg.heartbeat_ms,
            chaos,
        );
        spec.push('\n');
        stdin.write_all(spec.as_bytes())?;
        // Dropping stdin closes it: the worker sees EOF after the spec.
    }
    let stdout = child.stdout.take().ok_or_else(|| {
        io::Error::new(io::ErrorKind::BrokenPipe, "worker stdout unavailable")
    })?;
    // A reader thread feeds lines through a channel so this thread can
    // wait with a timeout — a blocking read on a hung worker's pipe would
    // never return. The channel is unbounded, so the reader never blocks
    // and always drains to EOF once the worker dies.
    let (tx, rx) = mpsc::channel::<io::Result<String>>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if tx.send(line).is_err() {
                return;
            }
        }
    });
    let liveness = Duration::from_millis(cfg.liveness_timeout_ms.max(1));
    let mut last_activity = Instant::now();
    let mut stats = None;
    let outcome = loop {
        let now = Instant::now();
        if deadline.is_some_and(|d| now >= d) {
            let _ = child.kill();
            shared.stats.deadline_kills.fetch_add(1, Ordering::Relaxed);
            break ShardOutcome::DeadlineKilled;
        }
        let Some(live_rem) = liveness.checked_sub(now.duration_since(last_activity)) else {
            let _ = child.kill();
            shared.stats.hung_killed.fetch_add(1, Ordering::Relaxed);
            break ShardOutcome::HungKilled;
        };
        let wait = match deadline {
            Some(d) => live_rem.min(d.duration_since(now)),
            None => live_rem,
        };
        match rx.recv_timeout(wait) {
            Ok(Ok(line)) => {
                last_activity = Instant::now();
                match line_type(&line) {
                    // Heartbeats prove liveness and are never forwarded.
                    Some("heartbeat") => {}
                    Some("job") => {
                        // Validate before claiming the key: a torn or
                        // garbled line must neither reach the client nor
                        // block the real line a journal replay will send.
                        if ResponseLine::parse(&line).is_ok() {
                            if let Some(key) = job_line_key(&line) {
                                if lock(seen).insert(key) {
                                    lock(writer).send(&line);
                                }
                            }
                        }
                    }
                    Some("report") => {
                        if ResponseLine::parse(&line).is_ok() {
                            lock(writer).send(&line);
                        }
                    }
                    Some("done") => stats = parse_shard_done(&line),
                    _ => {} // stray worker output; never forwarded
                }
            }
            // Pipe closed (worker exited) or errored: classify by whether
            // the shard `done` line arrived first.
            Ok(Err(_)) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                break match stats.take() {
                    Some(s) => ShardOutcome::Done(s),
                    None => ShardOutcome::Died,
                };
            }
            // Woke to re-check liveness/deadline; loop around.
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    };
    let _ = child.kill(); // no-op if already exited
    let _ = child.wait(); // always reap; never leave a zombie
    let _ = reader.join();
    Ok(outcome)
}

/// The `type` of one of *our* response lines (emitter-controlled format:
/// `schema` first, `type` second).
fn line_type(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(&format!(
        "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\""
    ))?;
    rest.split('"').next()
}

/// The top-level `"key":` of a job line (field order is fixed:
/// `experiment`, `key`, `entry` — the first match is the top-level one).
fn job_line_key(line: &str) -> Option<u64> {
    let idx = line.find("\"key\":")?;
    let digits: String = line[idx + 6..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn parse_shard_done(line: &str) -> Option<ShardStats> {
    let doc = JsonValue::parse(line).ok()?;
    let field = |name: &str| doc.get(name).and_then(JsonValue::as_u64);
    let failures_raw = {
        let start = line.find("\"failures\":[")? + "\"failures\":[".len();
        let end = line.rfind(']')?;
        line.get(start..end)?.to_string()
    };
    Some(ShardStats {
        jobs: field("jobs")?,
        failed: field("failed")?,
        store_hits: field("store_hits")?,
        store_misses: field("store_misses")?,
        store_quarantined: field("store_quarantined")?,
        profile_misses: field("profile_misses")?,
        compile_misses: field("compile_misses")?,
        sim_cycles: field("sim_cycles")?,
        // Absent on done lines written before the batch dimension existed
        // (e.g. a journal replayed across an upgrade): default to 0.
        batched_jobs: field("batched_jobs").unwrap_or(0),
        failures_raw,
    })
}

// ---------------------------------------------------------------------------
// Worker mode
// ---------------------------------------------------------------------------

/// The body of `wishbranch-repro --worker`: reads one
/// `wishbranch.workerspec/v1` line from stdin, runs the embedded request
/// with journal + artifact store attached, and prints protocol lines
/// (`job` per completed job, `report` per experiment, one shard `done`)
/// to stdout. Returns the process exit code: 0 done, 4 aborted mid-shard
/// (the server respawns in resume mode), 2 on a bad spec.
#[must_use]
pub fn worker_main() -> i32 {
    let mut spec_line = String::new();
    if io::stdin().read_line(&mut spec_line).is_err() {
        eprintln!("worker: failed reading spec from stdin");
        return 2;
    }
    match worker_run(spec_line.trim()) {
        Ok(aborted) => {
            if aborted {
                4
            } else {
                0
            }
        }
        Err(msg) => {
            eprintln!("worker: {msg}");
            2
        }
    }
}

/// Runs one worker spec. `Ok(true)` means the shard aborted mid-run.
fn worker_run(spec_line: &str) -> Result<bool, String> {
    let spec = JsonValue::parse(spec_line).map_err(|e| format!("bad spec JSON: {e}"))?;
    match spec.get("schema").and_then(JsonValue::as_str) {
        Some(WORKER_SPEC_SCHEMA) => {}
        other => return Err(format!("bad spec schema {other:?}")),
    }
    let journal_path = spec
        .get("journal")
        .and_then(JsonValue::as_str)
        .ok_or("spec missing \"journal\"")?
        .to_string();
    let store_path = spec
        .get("store")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    let resume = spec
        .get("resume")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let heartbeat_ms = spec
        .get("heartbeat_ms")
        .and_then(JsonValue::as_u64)
        .unwrap_or(250);
    let chaos = match spec.get("chaos").and_then(JsonValue::as_str) {
        Some(s) if !s.is_empty() => ChaosPlan::parse(s)?,
        _ => ChaosPlan::new(),
    };
    let request_text = spec
        .get("request")
        .and_then(JsonValue::as_str)
        .ok_or("spec missing \"request\"")?;
    let req = SweepRequest::parse(request_text).map_err(|e| format!("bad request: {e}"))?;
    let mut runner = req.build_runner().map_err(|e| e.to_string())?;
    let mut chaos_store = None;
    if let Some(path) = store_path {
        let store =
            Arc::new(ArtifactStore::open(path).map_err(|e| format!("opening store: {e}"))?);
        runner.attach_store(Arc::clone(&store));
        chaos_store = Some(store);
    }
    // Liveness heartbeat: a dedicated thread proves this process is alive
    // even between slow jobs. Each println! is one locked write, so
    // heartbeats never tear another thread's protocol line. An injected
    // hang clears `hb_alive` first — a hung worker must look hung.
    let hb_alive = Arc::new(AtomicBool::new(true));
    {
        let alive = Arc::clone(&hb_alive);
        let interval = Duration::from_millis(heartbeat_ms.max(1));
        std::thread::spawn(move || {
            let mut seq = 0u64;
            loop {
                std::thread::sleep(interval);
                if !alive.load(Ordering::SeqCst) {
                    return;
                }
                println!(
                    "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"heartbeat\",\"seq\":{seq}}}"
                );
                seq += 1;
            }
        });
    }
    // The observer streams every completed job — fresh, journal hit or
    // store hit — as a protocol line, and doubles as the chaos injection
    // point: faults strike *after* the journal append and store put for
    // this job, so a respawned resume always replays it bit-identically.
    // Stdout is line-buffered through the runtime lock, so concurrent
    // workers' println!s never interleave within a line.
    let current_exp = Arc::new(Mutex::new(String::new()));
    let label = Arc::clone(&current_exp);
    let completed = AtomicU64::new(0);
    let hb = Arc::clone(&hb_alive);
    runner.set_observer(Arc::new(move |key, result| {
        // The journal is attached, so the engine hands over the entry it
        // already wrote (or read back on a hit) and nothing is re-encoded.
        let entry = (result.entry.clone())
            .unwrap_or_else(|| encode_entry(key, &result.outcome).into());
        let line = format!(
            "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"job\",\"experiment\":\"{}\",\"key\":{key},\"entry\":{entry}}}",
            json_escape(&lock(&label)),
        );
        let index = completed.fetch_add(1, Ordering::SeqCst);
        match chaos.fault_at(index) {
            Some(ChaosKind::TornLine) => {
                // A crash mid-write: half the line, no newline, gone.
                let bytes = line.as_bytes();
                let mut out = io::stdout().lock();
                let _ = out.write_all(&bytes[..bytes.len() / 2]);
                let _ = out.flush();
                drop(out);
                std::process::exit(4);
            }
            Some(ChaosKind::Hang) => {
                println!("{line}");
                let _ = io::stdout().flush();
                hb.store(false, Ordering::SeqCst);
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            Some(ChaosKind::CorruptStore) => {
                println!("{line}");
                if let Some(store) = &chaos_store {
                    let _ = std::fs::write(store.path_for(key), "{\"key\":torn");
                }
            }
            _ => println!("{line}"),
        }
    }));
    runner
        .attach_journal(Path::new(&journal_path), resume)
        .map_err(|e| format!("attaching journal: {e}"))?;
    for exp in &req.experiments {
        *lock(&current_exp) = exp.id().to_string();
        let report = exp.run(&runner);
        if runner.aborted() {
            return Ok(true);
        }
        println!(
            "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"report\",\"experiment\":\"{}\",\"report\":{}}}",
            json_escape(exp.id()),
            report.to_json()
        );
    }
    let s = runner.summary();
    let failure_items: Vec<String> = runner
        .failures()
        .iter()
        .map(|f| {
            format!(
                "{{\"index\":{},\"kind\":\"{}\",\"job\":\"{}\",\"error\":\"{}\",\"attempts\":{}}}",
                f.index,
                json_escape(f.error.kind()),
                json_escape(&format!(
                    "bench{} {} @{}",
                    f.job.bench,
                    f.job.variant.label(),
                    f.job.input.label()
                )),
                json_escape(&f.error.to_string()),
                f.attempts
            )
        })
        .collect();
    println!(
        "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"done\",\"jobs\":{},\"failed\":{},\
         \"store_hits\":{},\"store_misses\":{},\"store_quarantined\":{},\
         \"profile_misses\":{},\"compile_misses\":{},\
         \"sim_cycles\":{},\"batched_jobs\":{},\"failures\":[{}]}}",
        s.jobs,
        s.failed,
        s.store_hits,
        s.store_misses,
        s.store_quarantined,
        s.profile_misses,
        s.compile_misses,
        s.sim_cycles,
        s.batched_jobs,
        failure_items.join(",")
    );
    Ok(false)
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// One parsed `wishbranch.response/v1` line.
#[derive(Clone, PartialEq, Debug)]
pub enum ResponseLine {
    /// The request was admitted; results follow.
    Accepted {
        /// The admitted tenant.
        tenant: String,
        /// The canonical-request fingerprint the server computed.
        fingerprint: u64,
    },
    /// The request was refused; the connection closes after this line.
    Rejected {
        /// Stable error discriminator (e.g. `cycle_budget_exceeded`).
        kind: String,
        /// Human-readable explanation.
        reason: String,
    },
    /// One completed job.
    Job {
        /// The experiment this job belongs to.
        experiment: String,
        /// The job's stable key ([`SweepRunner::job_key`](crate::SweepRunner::job_key)).
        key: u64,
        /// The verbatim `wishbranch.journal/v1` entry, e.g.
        /// `{"key":K,"v":4,"image":{"bench":"gzip","input":"A","fnv":F},"data":[...]}`.
        /// Decode with [`journal::decode_entry`](crate::journal::decode_entry),
        /// which rebuilds the named input image from `wishbranch-workloads`
        /// and overlays the entry's memory delta on it.
        entry: String,
    },
    /// One experiment's finished `wishbranch.report/v1` document.
    Report {
        /// The experiment id.
        experiment: String,
        /// The verbatim report JSON.
        report: String,
    },
    /// A worker liveness pulse. Consumed server-side — clients never see
    /// one on a healthy stream — but parseable so a captured worker
    /// stream stays fully decodable.
    Heartbeat {
        /// Monotonic pulse counter within one worker process.
        seq: u64,
    },
    /// Server-lifetime resilience counters, sent immediately before
    /// `done`: what the resilience layer absorbed to produce this stream.
    Stats {
        /// Workers respawned in resume mode (died or hung).
        respawns: u64,
        /// Workers killed for a silent heartbeat.
        hung_killed: u64,
        /// Workers killed for an expired shard deadline.
        deadline_kills: u64,
        /// Requests refused with a typed `rejected` line.
        rejected_requests: u64,
    },
    /// The request finished; aggregate statistics.
    Done {
        /// Jobs completed across all shards.
        jobs: u64,
        /// Jobs that failed after retries.
        failed: u64,
        /// Jobs served from the shared artifact store.
        store_hits: u64,
        /// Jobs that consulted the store and missed.
        store_misses: u64,
        /// Corrupt store entries quarantined during this request.
        store_quarantined: u64,
        /// Profiling runs actually executed.
        profile_misses: u64,
        /// Compiles actually executed.
        compile_misses: u64,
        /// Simulated cycles billed to the tenant.
        sim_cycles: u64,
        /// Jobs that ran inside multi-lane lockstep batches (0 when
        /// batching is off or the server predates the batch dimension).
        batched_jobs: u64,
        /// The raw JSON `failures` array (same element shape as the
        /// summary document's failure table).
        failures: String,
    },
}

impl ResponseLine {
    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// A description of the malformation, if the line is not a
    /// well-formed response line.
    pub fn parse(line: &str) -> Result<ResponseLine, String> {
        let doc = JsonValue::parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(RESPONSE_SCHEMA) => {}
            other => return Err(format!("bad response schema {other:?}")),
        }
        let text = |name: &str| {
            doc.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("response line missing {name:?}"))
        };
        let num = |name: &str| {
            doc.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("response line missing {name:?}"))
        };
        // `entry`/`report`/`failures` payloads are returned as verbatim
        // substrings; each is the final field of its line, so the payload
        // runs to the closing brace.
        let tail_after = |marker: &str| {
            let start = line.find(marker).map(|i| i + marker.len())?;
            line.get(start..line.len() - 1).map(str::to_string)
        };
        match doc.get("type").and_then(JsonValue::as_str) {
            Some("accepted") => Ok(ResponseLine::Accepted {
                tenant: text("tenant")?,
                fingerprint: num("fingerprint")?,
            }),
            Some("rejected") => Ok(ResponseLine::Rejected {
                kind: text("kind")?,
                reason: text("reason")?,
            }),
            Some("job") => Ok(ResponseLine::Job {
                experiment: text("experiment")?,
                key: num("key")?,
                entry: tail_after("\"entry\":").ok_or("job line missing entry payload")?,
            }),
            Some("report") => Ok(ResponseLine::Report {
                experiment: text("experiment")?,
                report: tail_after("\"report\":").ok_or("report line missing payload")?,
            }),
            Some("heartbeat") => Ok(ResponseLine::Heartbeat { seq: num("seq")? }),
            Some("stats") => Ok(ResponseLine::Stats {
                respawns: num("respawns")?,
                hung_killed: num("hung_killed")?,
                deadline_kills: num("deadline_kills")?,
                rejected_requests: num("rejected_requests")?,
            }),
            Some("done") => Ok(ResponseLine::Done {
                jobs: num("jobs")?,
                failed: num("failed")?,
                store_hits: num("store_hits")?,
                store_misses: num("store_misses")?,
                store_quarantined: num("store_quarantined")?,
                profile_misses: num("profile_misses")?,
                compile_misses: num("compile_misses")?,
                sim_cycles: num("sim_cycles")?,
                batched_jobs: num("batched_jobs").unwrap_or(0),
                failures: {
                    let raw = tail_after("\"failures\":[").ok_or("done line missing failures")?;
                    raw.strip_suffix(']').map(str::to_string).unwrap_or(raw)
                },
            }),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

/// An open response stream: iterate to receive parsed lines as the server
/// streams them. Parse failures surface as `InvalidData` I/O errors —
/// typed, never a panic and never silent termination. Generic over the
/// byte source (defaulting to the live TCP connection) so malformed-input
/// behavior is testable against any reader.
pub struct ResponseStream<R: io::Read = TcpStream> {
    lines: std::io::Lines<BufReader<R>>,
}

impl<R: io::Read> ResponseStream<R> {
    /// Wraps any byte source in a response stream (tests feed canned or
    /// deliberately torn bytes through this).
    pub fn from_reader(reader: R) -> ResponseStream<R> {
        ResponseStream {
            lines: BufReader::new(reader).lines(),
        }
    }
}

impl<R: io::Read> Iterator for ResponseStream<R> {
    type Item = io::Result<(String, ResponseLine)>;

    /// The next `(raw line, parsed line)` pair — raw is kept so clients
    /// can persist or diff verbatim protocol bytes.
    fn next(&mut self) -> Option<io::Result<(String, ResponseLine)>> {
        let line = match self.lines.next()? {
            Ok(line) => line,
            Err(e) => return Some(Err(e)),
        };
        match ResponseLine::parse(&line) {
            Ok(parsed) => Some(Ok((line, parsed))),
            Err(msg) => Some(Err(io::Error::new(io::ErrorKind::InvalidData, msg))),
        }
    }
}

/// Connects to a server, submits `req`, and returns the response stream.
/// The canonical client one-liner:
///
/// ```no_run
/// use wishbranch_core::{client_stream, Experiment, SweepRequest};
/// for line in client_stream("127.0.0.1:7005", &SweepRequest::new(vec![Experiment::Fig10]))? {
///     println!("{}", line?.0);
/// }
/// # Ok::<(), std::io::Error>(())
/// ```
///
/// # Errors
///
/// Connection or request-write I/O errors.
pub fn client_stream(addr: &str, req: &SweepRequest) -> io::Result<ResponseStream> {
    let mut stream = TcpStream::connect(addr)?;
    let mut line = req.to_json();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()?;
    Ok(ResponseStream {
        lines: BufReader::new(stream).lines(),
    })
}

/// A self-healing response stream: if the connection drops (or delivers a
/// torn line) before `done`, it re-submits the *same* fingerprinted
/// request after a deterministic backoff and merges the new stream into
/// the old one — deduplicating jobs by key and reports by experiment, so
/// the caller sees one gap-free, duplicate-free stream ending in exactly
/// one `done`. A server-side store or journal makes the retry cheap, but
/// even a cold re-run merges correctly because results are deterministic.
pub struct ResilientStream {
    addr: String,
    req: SweepRequest,
    max_reconnects: u32,
    reconnects_used: u32,
    inner: Option<ResponseStream>,
    seen_jobs: HashSet<u64>,
    seen_reports: HashSet<String>,
    accepted_sent: bool,
    /// The last `stats` line of the *current* connection, held back until
    /// that same connection's `done` proves the stream completed (a
    /// reconnect would otherwise leak a stale stats line mid-stream).
    pending_stats: Option<(String, ResponseLine)>,
    pending_done: Option<(String, ResponseLine)>,
    finished: bool,
}

/// How many reconnect attempts a resilient client makes by default.
pub const DEFAULT_RECONNECTS: u32 = 3;

/// Connects like [`client_stream`] but returns a [`ResilientStream`]
/// that survives up to `max_reconnects` dropped connections.
///
/// # Errors
///
/// Connection or request-write I/O errors on the *initial* connection
/// (later drops are absorbed by the stream itself).
pub fn client_stream_resilient(
    addr: &str,
    req: &SweepRequest,
    max_reconnects: u32,
) -> io::Result<ResilientStream> {
    let inner = client_stream(addr, req)?;
    Ok(ResilientStream {
        addr: addr.to_string(),
        req: req.clone(),
        max_reconnects,
        reconnects_used: 0,
        inner: Some(inner),
        seen_jobs: HashSet::new(),
        seen_reports: HashSet::new(),
        accepted_sent: false,
        pending_stats: None,
        pending_done: None,
        finished: false,
    })
}

impl ResilientStream {
    /// Reconnects left before the stream gives up.
    #[must_use]
    pub fn reconnects_remaining(&self) -> u32 {
        self.max_reconnects - self.reconnects_used
    }

    fn reconnect(&mut self) -> Option<io::Error> {
        self.inner = None;
        self.pending_stats = None; // stale: from the dead connection
        if self.reconnects_used >= self.max_reconnects {
            return Some(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "stream ended before done and the reconnect budget is exhausted",
            ));
        }
        self.reconnects_used += 1;
        std::thread::sleep(respawn_backoff(self.reconnects_used));
        match client_stream(&self.addr, &self.req) {
            Ok(stream) => {
                self.inner = Some(stream);
                None
            }
            Err(e) => Some(e),
        }
    }
}

impl Iterator for ResilientStream {
    type Item = io::Result<(String, ResponseLine)>;

    fn next(&mut self) -> Option<io::Result<(String, ResponseLine)>> {
        if let Some(done) = self.pending_done.take() {
            self.finished = true;
            return Some(Ok(done));
        }
        if self.finished {
            return None;
        }
        loop {
            let next = self.inner.as_mut()?.next();
            match next {
                Some(Ok((raw, parsed))) => match parsed {
                    ResponseLine::Accepted { .. } => {
                        if !self.accepted_sent {
                            self.accepted_sent = true;
                            return Some(Ok((raw, parsed)));
                        }
                    }
                    ResponseLine::Rejected { .. } => {
                        self.finished = true;
                        return Some(Ok((raw, parsed)));
                    }
                    ResponseLine::Job { key, .. } => {
                        if self.seen_jobs.insert(key) {
                            return Some(Ok((raw, parsed)));
                        }
                    }
                    ResponseLine::Report { ref experiment, .. } => {
                        if self.seen_reports.insert(experiment.clone()) {
                            return Some(Ok((raw, parsed)));
                        }
                    }
                    ResponseLine::Heartbeat { .. } => {}
                    ResponseLine::Stats { .. } => {
                        self.pending_stats = Some((raw, parsed));
                    }
                    ResponseLine::Done { .. } => {
                        if let Some(stats) = self.pending_stats.take() {
                            self.pending_done = Some((raw, parsed));
                            return Some(Ok(stats));
                        }
                        self.finished = true;
                        return Some(Ok((raw, parsed)));
                    }
                },
                // A dropped connection or torn line before `done`:
                // re-submit the same request and keep merging.
                Some(Err(_)) | None => {
                    if let Some(e) = self.reconnect() {
                        self.finished = true;
                        return Some(Err(e));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Experiment;

    #[test]
    fn response_lines_round_trip() {
        let cases = [
            format!(
                "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"accepted\",\"tenant\":\"a\",\"fingerprint\":7}}"
            ),
            rejected_line("cycle_budget_exceeded", "over budget"),
            format!(
                "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"job\",\"experiment\":\"fig10\",\"key\":9,\"entry\":{{\"key\":9,\"v\":2,\"data\":[1,2]}}}}"
            ),
            format!(
                "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"report\",\"experiment\":\"fig10\",\"report\":{{\"schema\":\"wishbranch.report/v1\"}}}}"
            ),
            format!(
                "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"heartbeat\",\"seq\":11}}"
            ),
            format!(
                "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"stats\",\"respawns\":2,\
                 \"hung_killed\":1,\"deadline_kills\":0,\"rejected_requests\":3}}"
            ),
            format!(
                "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"done\",\"jobs\":3,\"failed\":0,\
                 \"store_hits\":1,\"store_misses\":2,\"store_quarantined\":1,\
                 \"profile_misses\":0,\"compile_misses\":0,\
                 \"sim_cycles\":42,\"failures\":[]}}"
            ),
        ];
        for line in &cases {
            let parsed = ResponseLine::parse(line).expect(line);
            match parsed {
                ResponseLine::Job { key, ref entry, .. } => {
                    assert_eq!(key, 9);
                    assert_eq!(entry, "{\"key\":9,\"v\":2,\"data\":[1,2]}");
                }
                ResponseLine::Report { ref report, .. } => {
                    assert_eq!(report, "{\"schema\":\"wishbranch.report/v1\"}");
                }
                ResponseLine::Heartbeat { seq } => assert_eq!(seq, 11),
                ResponseLine::Stats {
                    respawns,
                    hung_killed,
                    ..
                } => {
                    assert_eq!(respawns, 2);
                    assert_eq!(hung_killed, 1);
                }
                ResponseLine::Done {
                    sim_cycles,
                    store_quarantined,
                    ..
                } => {
                    assert_eq!(sim_cycles, 42);
                    assert_eq!(store_quarantined, 1);
                }
                _ => {}
            }
        }
        assert!(ResponseLine::parse("{\"schema\":\"nope\"}").is_err());
    }

    #[test]
    fn worker_spec_embeds_a_parseable_request() {
        let req = SweepRequest::new(vec![Experiment::Fig10]);
        let spec = worker_spec_line(Path::new("/tmp/j.jsonl"), None, true, &req, 250, "hang@3");
        let doc = JsonValue::parse(&spec).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(WORKER_SPEC_SCHEMA)
        );
        assert_eq!(doc.get("resume").and_then(JsonValue::as_bool), Some(true));
        assert!(doc.get("store").is_some_and(|v| v.as_str().is_none()));
        assert_eq!(doc.get("heartbeat_ms").and_then(JsonValue::as_u64), Some(250));
        assert_eq!(doc.get("chaos").and_then(JsonValue::as_str), Some("hang@3"));
        let embedded = doc.get("request").and_then(JsonValue::as_str).unwrap();
        assert_eq!(SweepRequest::parse(embedded).unwrap(), req);
    }

    #[test]
    fn slot_guard_releases_on_drop_and_on_panic() {
        let slots = Slots::new(2);
        assert_eq!(slots.available(), 2);
        {
            let _one = slots.acquire();
            let _two = slots.acquire();
            assert_eq!(slots.available(), 0);
        }
        assert_eq!(slots.available(), 2, "drop must return both slots");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = slots.acquire();
            panic!("spawn path exploded");
        }));
        assert!(panicked.is_err());
        assert_eq!(slots.available(), 2, "a panicking holder must not leak its slot");
    }

    #[test]
    fn respawn_backoff_is_deterministic_bounded_and_monotonic() {
        assert_eq!(respawn_backoff(1), Duration::from_millis(10));
        assert_eq!(respawn_backoff(1), respawn_backoff(1));
        for attempt in 1..20 {
            assert!(respawn_backoff(attempt) <= respawn_backoff(attempt + 1));
        }
        assert_eq!(respawn_backoff(1_000), Duration::from_millis(500));
    }

    #[test]
    fn job_lines_classify_and_key() {
        let line = format!(
            "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"job\",\"experiment\":\"fig10\",\"key\":18446744073709551615,\"entry\":{{\"key\":18446744073709551615,\"v\":2,\"data\":[]}}}}"
        );
        assert_eq!(line_type(&line), Some("job"));
        assert_eq!(job_line_key(&line), Some(u64::MAX));
        assert_eq!(line_type("{\"schema\":\"x\"}"), None);
    }
}
