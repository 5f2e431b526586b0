//! The parallel experiment engine: a deterministic [`SweepRunner`] that
//! executes `(benchmark, variant, input, machine)` jobs on a scoped worker
//! pool, backed by memoized profile and compiled-binary caches.
//!
//! Every figure and table of the reproduction is a sweep over such jobs,
//! and the sweep shape is embarrassingly parallel: each job is an
//! independent profile → compile → simulate → verify chain. Three
//! properties make the engine safe to drop under every experiment:
//!
//! * **Determinism** — the IR interpreter, the compiler, and the cycle
//!   simulator are all deterministic, and the compiler consumes profiles
//!   only through keyed lookups (never iteration order), so a cached
//!   profile or binary is bit-identical to a freshly computed one and
//!   parallel results are bit-identical to serial results. The test suite
//!   enforces this (`tests/engine_equivalence.rs`).
//! * **Submission order** — results are returned in job-submission order
//!   regardless of completion order, so downstream figure assembly never
//!   observes scheduling.
//! * **Fault isolation** — a job that fails (typed [`JobError`], or an
//!   outright worker panic caught with `catch_unwind`) becomes one
//!   [`JobFailure`] cell; every other job still completes and stays
//!   bit-identical to a fault-free run (`tests/fault_tolerance.rs`).
//!   Poisoned locks are recovered via [`PoisonError::into_inner`] — the
//!   guarded data is plain results and counters, valid regardless of
//!   where a panic landed — so one panic can never cascade into a second.
//!
//! The caches are keyed on `(benchmark, train-inputs)` for profiles and
//! `(benchmark, variant, train-inputs, compile-options)` for binaries, so
//! a figure sweep compiles each distinct binary once instead of once per
//! (input, machine) point. Failures are cached exactly like successes:
//! both are deterministic, so re-requesting a failed compile returns the
//! same typed error without re-running it.
//!
//! When a journal is attached ([`SweepRunner::attach_journal`]), every
//! completed job is appended to a JSONL file as it finishes, and — on
//! resume — jobs whose key is already journaled are served from the
//! journal bit-identically instead of re-running (`--resume`). A runner
//! that persists (journal or [`ArtifactStore`] attached) encodes each
//! fresh success once, against the input image it ran on, and writes the
//! same entry bytes to the journal, the store and
//! [`JobResult::entry`]; a runner that persists nothing does no codec
//! work at all.

use std::any::Any;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{FaultKind, FaultPlan, JobError, JobFailure};
use crate::experiment::{
    input_image, job_label, lockstep_check, profile_on, simulate_on_image, verify_against_image,
    ExperimentConfig, RunOutcome,
};
use crate::journal::{encode_entry_on, fnv1a64, InputImage, JournalError, JournalWriter};
use crate::store::ArtifactStore;
use wishbranch_compiler::{compile, compile_adaptive, BinaryVariant, CompileOptions, CompiledBinary};
use wishbranch_ir::Profile;
use wishbranch_isa::exec::MemImage;
use wishbranch_uarch::{MachineConfig, SimScratch};
use wishbranch_workloads::{suite, Benchmark, InputSet};

/// Environment variable overriding the worker count.
pub const WORKERS_ENV: &str = "WISHBRANCH_WORKERS";

/// Retries of a retryable failure (worker panic, budget overrun) before
/// the job fails: one retry, two attempts total.
const RETRY_LIMIT: u32 = 1;

/// Locks a mutex, recovering the guard from a poisoned lock. Everything
/// the engine guards (result slots, cache maps, counters, the journal) is
/// structurally valid no matter where a worker panic landed, so poisoning
/// carries no information here — and the whole point of panic isolation
/// is that one panic must not cascade into a second.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stringifies a caught panic payload for [`JobError::WorkerPanic`].
fn panic_payload_string(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Which training inputs the compiler profiles on for a job.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TrainSpec {
    /// The paper's flow: one training profile (§4.2).
    Single(InputSet),
    /// The adaptive extension: several training profiles whose
    /// misprediction spread drives the §3.6 input-dependence heuristic.
    Multi(Vec<InputSet>),
}

/// One unit of sweep work: simulate `variant` of benchmark `bench` on
/// `input`, on `machine`, compiled with `compile` after training on
/// `train`.
#[derive(Clone, Debug)]
pub struct SweepJob {
    /// Index of the benchmark in the runner's suite.
    pub bench: usize,
    /// Which Table 3 binary to build.
    pub variant: BinaryVariant,
    /// The run-time input set.
    pub input: InputSet,
    /// The training input(s) the compiler profiles on.
    pub train: TrainSpec,
    /// Compiler heuristics for this job.
    pub compile: CompileOptions,
    /// The simulated machine for this job.
    pub machine: MachineConfig,
}

impl SweepJob {
    /// A job with the experiment's default machine, compile options and
    /// training input.
    #[must_use]
    pub fn standard(
        bench: usize,
        variant: BinaryVariant,
        input: InputSet,
        ec: &ExperimentConfig,
    ) -> SweepJob {
        SweepJob {
            bench,
            variant,
            input,
            train: TrainSpec::Single(ec.train_input),
            compile: ec.compile,
            machine: ec.machine.clone(),
        }
    }

    /// Replaces the simulated machine.
    #[must_use]
    pub fn with_machine(mut self, machine: MachineConfig) -> SweepJob {
        self.machine = machine;
        self
    }

    /// Replaces the training spec (e.g. [`TrainSpec::Multi`] for the
    /// adaptive compiler).
    #[must_use]
    pub fn with_train(mut self, train: TrainSpec) -> SweepJob {
        self.train = train;
        self
    }

    /// Replaces the compile options (ablation sweeps).
    #[must_use]
    pub fn with_compile(mut self, compile: CompileOptions) -> SweepJob {
        self.compile = compile;
        self
    }
}

/// Hashable image of [`CompileOptions`]: floats are keyed by bit pattern,
/// so any numeric difference — however small — is a distinct cache entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct OptionsKey {
    wish_jump_threshold: usize,
    wish_loop_body_max: usize,
    mispredict_penalty: u64,
    est_ipc: u64,
    max_predicated_side: usize,
    input_dependence_threshold: u64,
}

impl OptionsKey {
    fn new(o: &CompileOptions) -> OptionsKey {
        OptionsKey {
            wish_jump_threshold: o.wish_jump_threshold,
            wish_loop_body_max: o.wish_loop_body_max,
            mispredict_penalty: o.mispredict_penalty.to_bits(),
            est_ipc: o.est_ipc.to_bits(),
            max_predicated_side: o.max_predicated_side,
            input_dependence_threshold: o.input_dependence_threshold.to_bits(),
        }
    }
}

/// Cache key for compiled binaries.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct CompileKey {
    bench: usize,
    variant: BinaryVariant,
    train: TrainSpec,
    options: OptionsKey,
}

impl CompileKey {
    fn of(job: &SweepJob) -> CompileKey {
        CompileKey {
            bench: job.bench,
            variant: job.variant,
            train: job.train.clone(),
            options: OptionsKey::new(&job.compile),
        }
    }
}

/// One unit of worker-pool scheduling: positions into the `try_run` job
/// slice, run one after another by one worker on its recycled
/// [`SimScratch`]. With batching on, a unit is a group of jobs sharing a
/// compiled binary; otherwise it is one job.
type WorkUnit = Vec<usize>;

/// The result of one job, in submission order.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job that produced this result.
    pub job: SweepJob,
    /// Simulation outcome (stats + compile report + static stats).
    pub outcome: RunOutcome,
    /// Wall-clock time this job took on its worker (all phases); zero for
    /// a journal hit.
    pub wall: Duration,
    /// Where this job's wall time went, phase by phase.
    pub phases: JobPhases,
    /// Whether the compiled binary came from the cache (always `true` for
    /// a journal hit, which never touches the compiler).
    pub compile_cache_hit: bool,
    /// Whether the whole outcome was served from an attached sweep
    /// journal (`--resume`) instead of being executed.
    pub journal_hit: bool,
    /// Whether the whole outcome was served from an attached
    /// content-addressed [`ArtifactStore`] instead of being executed.
    pub store_hit: bool,
    /// The job's `wishbranch.journal/v1` entry line, when the runner
    /// persists outcomes (a journal or store is attached): the bytes
    /// written to the journal and the store for a fresh success, or read
    /// back from them on a hit. `None` on a runner that persists nothing.
    pub entry: Option<Arc<str>>,
}

/// Per-phase wall-clock breakdown of one job, measured on that job alone
/// whether or not it ran in a group. `acquire` covers the binary-cache
/// lookup, including any profiling and compilation it triggered
/// (zero-ish on a cache hit); `simulate` is the cycle simulation,
/// including building the job's input image and, in oracle mode, the
/// lockstep replay; `verify` is the functional-reference cross-check
/// alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct JobPhases {
    /// Binary acquisition: cache lookup + (on miss) profile + compile.
    pub acquire: Duration,
    /// Cycle simulation, input-image build included.
    pub simulate: Duration,
    /// Architectural verification against the functional reference.
    pub verify: Duration,
}

/// Aggregate statistics over everything a [`SweepRunner`] has executed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepSummary {
    /// Jobs completed successfully (including journal hits).
    pub jobs: u64,
    /// Worker threads the pool runs.
    pub workers: usize,
    /// Profile cache hits.
    pub profile_hits: u64,
    /// Profile cache misses (profiling runs actually executed).
    pub profile_misses: u64,
    /// Compiled-binary cache hits.
    pub compile_hits: u64,
    /// Compiled-binary cache misses (compiles actually executed).
    pub compile_misses: u64,
    /// Jobs that ended in a [`JobFailure`] after all retry attempts.
    pub failed: u64,
    /// Extra execution attempts spent retrying retryable failures.
    pub retries: u64,
    /// Jobs served bit-identically from an attached sweep journal.
    pub journal_hits: u64,
    /// Jobs served bit-identically from an attached content-addressed
    /// artifact store (identical work done earlier, possibly by another
    /// run or tenant).
    pub store_hits: u64,
    /// Jobs that consulted an attached artifact store and missed (and so
    /// were executed, then written back).
    pub store_misses: u64,
    /// Corrupt store entries quarantined (renamed to `<key>.corrupt`) by
    /// the attached store; each also counts as one store miss.
    pub store_quarantined: u64,
    /// Sum of per-job wall-clock times (the serial cost of the work).
    pub job_time: Duration,
    /// End-to-end wall-clock time spent inside [`SweepRunner::try_run`].
    pub wall_time: Duration,
    /// Time spent profiling (inside cache misses only).
    pub profile_time: Duration,
    /// Time spent compiling, excluding the profiling it triggered.
    pub compile_time: Duration,
    /// Time spent in the cycle simulator, including building each job's
    /// input image and, in oracle mode, the lockstep replay.
    pub simulate_time: Duration,
    /// Time spent verifying retired state against the reference machine
    /// (the check alone).
    pub verify_time: Duration,
    /// Simulated cycles across all executed jobs (journal hits excluded —
    /// they spend no simulator time).
    pub sim_cycles: u64,
    /// Retired µops across all executed jobs (journal hits excluded).
    pub sim_uops: u64,
    /// Configured batch width (most jobs per same-binary group); `1`
    /// means no grouping.
    pub batch_size: usize,
    /// Fresh successes that ran inside a same-binary group of two or more
    /// (subset of `jobs`; journal and store hits and singleton groups are
    /// not counted).
    pub batched_jobs: u64,
}

impl SweepSummary {
    /// Parallel speedup: total job time over end-to-end wall time. With
    /// one worker this hovers around 1.0; with N busy workers it
    /// approaches N.
    #[must_use]
    pub fn parallel_speedup(&self) -> f64 {
        if self.wall_time.is_zero() {
            return 1.0;
        }
        self.job_time.as_secs_f64() / self.wall_time.as_secs_f64()
    }

    /// Fraction of binary requests served from the cache.
    #[must_use]
    pub fn compile_hit_rate(&self) -> f64 {
        let total = self.compile_hits + self.compile_misses;
        if total == 0 {
            return 0.0;
        }
        self.compile_hits as f64 / total as f64
    }

    /// Simulator throughput: simulated cycles per host-second of
    /// simulate-phase time. Zero when nothing was simulated.
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        if self.simulate_time.is_zero() {
            return 0.0;
        }
        self.sim_cycles as f64 / self.simulate_time.as_secs_f64()
    }

    /// Simulator throughput: retired µops per host-second of
    /// simulate-phase time. Zero when nothing was simulated.
    #[must_use]
    pub fn uops_per_sec(&self) -> f64 {
        if self.simulate_time.is_zero() {
            return 0.0;
        }
        self.sim_uops as f64 / self.simulate_time.as_secs_f64()
    }
}

// Failures are cached exactly like successes — both are deterministic
// (same inputs, same fault), so a cached `Err` is the same answer a rerun
// would produce, minus the rerun.
type ProfileCell = Arc<OnceLock<Result<Arc<Profile>, JobError>>>;
type BinaryCell = Arc<OnceLock<Result<Arc<CompiledBinary>, JobError>>>;

/// A job-completion hook (see [`SweepRunner::set_observer`]): called with
/// the job's stable key and its successful result, from worker threads,
/// in completion order.
pub type JobObserver = Arc<dyn Fn(u64, &JobResult) + Send + Sync>;

/// An attached sweep journal: the append handle plus the outcomes (and
/// their entry lines) loaded for `--resume` (empty when not resuming).
struct JournalState {
    writer: JournalWriter,
    resume: HashMap<u64, (RunOutcome, Arc<str>)>,
}

/// The parallel sweep engine. See the module docs.
///
/// A runner owns its benchmark suite (built once at the experiment's
/// scale) and its caches; figures that share a runner share compiled
/// binaries — `wishbranch-repro all` compiles each binary exactly once
/// across every figure it regenerates.
pub struct SweepRunner {
    ec: ExperimentConfig,
    benches: Vec<Benchmark>,
    workers: usize,
    profiles: Mutex<HashMap<(usize, InputSet), ProfileCell>>,
    binaries: Mutex<HashMap<CompileKey, BinaryCell>>,
    /// Global submission index: every job submitted over the runner's
    /// lifetime gets the next index, independent of worker count and
    /// scheduling. [`FaultPlan`] indices and [`JobFailure::index`] refer
    /// to this counter.
    next_index: AtomicU64,
    fault_plan: FaultPlan,
    aborted: AtomicBool,
    /// Lockstep-oracle mode (`--oracle`): every job's retired stream is
    /// replayed through [`wishbranch_isa::LockstepOracle`].
    oracle: bool,
    /// Batch width (`--batch`): the most jobs per same-binary group; `1`
    /// disables grouping entirely.
    batch: usize,
    wall_budget: Option<Duration>,
    /// Recycled simulator buffers, one entry per idle worker: each worker
    /// checks one out for its whole tour and threads it through every
    /// job it runs, so back-to-back jobs reuse the big
    /// allocations instead of reallocating them per job.
    scratch_pool: Mutex<Vec<SimScratch>>,
    journal: Mutex<Option<JournalState>>,
    /// Content-addressed outcome store shared across runs and tenants
    /// (`None` when not serving). Consulted after the journal, before
    /// execution; written back on every fresh success.
    store: Option<Arc<ArtifactStore>>,
    /// Completion hook: fires once per successful job with its key and
    /// result — on fresh executions, journal hits *and* store hits — so a
    /// streaming consumer sees every job exactly once even across a
    /// kill-and-resume cycle.
    observer: Option<JobObserver>,
    failures: Mutex<Vec<JobFailure>>,
    profile_hits: AtomicU64,
    profile_misses: AtomicU64,
    compile_hits: AtomicU64,
    compile_misses: AtomicU64,
    jobs_run: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    journal_hits: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    batched_jobs: AtomicU64,
    job_time_nanos: AtomicU64,
    wall_nanos: AtomicU64,
    profile_nanos: AtomicU64,
    compile_nanos: AtomicU64,
    simulate_nanos: AtomicU64,
    verify_nanos: AtomicU64,
    sim_cycles: AtomicU64,
    sim_uops: AtomicU64,
}

/// Worker count: `WISHBRANCH_WORKERS` if set and positive, else the
/// machine's available parallelism. An invalid override (unparseable, or
/// zero) is rejected with a one-line stderr warning naming the rejected
/// value and the fallback used.
#[must_use]
pub fn default_workers() -> usize {
    let available = || {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    };
    match std::env::var(WORKERS_ENV) {
        Ok(value) => match value.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                let fallback = available();
                eprintln!(
                    "warning: ignoring invalid {WORKERS_ENV}={value:?} (want a positive integer); \
                     using {fallback} workers (available parallelism)"
                );
                fallback
            }
        },
        Err(_) => available(),
    }
}

impl SweepRunner {
    /// A runner over the full nine-benchmark suite at the experiment's
    /// scale, with [`default_workers`].
    #[must_use]
    pub fn new(ec: &ExperimentConfig) -> SweepRunner {
        SweepRunner::with_workers(ec, default_workers())
    }

    /// A runner with an explicit worker count (`0` is clamped to 1).
    #[must_use]
    pub fn with_workers(ec: &ExperimentConfig, workers: usize) -> SweepRunner {
        SweepRunner {
            ec: ec.clone(),
            benches: suite(ec.scale),
            workers: workers.max(1),
            profiles: Mutex::new(HashMap::new()),
            binaries: Mutex::new(HashMap::new()),
            next_index: AtomicU64::new(0),
            fault_plan: FaultPlan::new(),
            aborted: AtomicBool::new(false),
            oracle: false,
            batch: 1,
            wall_budget: None,
            scratch_pool: Mutex::new(Vec::new()),
            journal: Mutex::new(None),
            store: None,
            observer: None,
            failures: Mutex::new(Vec::new()),
            profile_hits: AtomicU64::new(0),
            profile_misses: AtomicU64::new(0),
            compile_hits: AtomicU64::new(0),
            compile_misses: AtomicU64::new(0),
            jobs_run: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            journal_hits: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            batched_jobs: AtomicU64::new(0),
            job_time_nanos: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            profile_nanos: AtomicU64::new(0),
            compile_nanos: AtomicU64::new(0),
            simulate_nanos: AtomicU64::new(0),
            verify_nanos: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
            sim_uops: AtomicU64::new(0),
        }
    }

    /// The experiment configuration the runner was built with.
    #[must_use]
    pub fn config(&self) -> &ExperimentConfig {
        &self.ec
    }

    /// The benchmark suite jobs index into.
    #[must_use]
    pub fn benches(&self) -> &[Benchmark] {
        &self.benches
    }

    /// The worker-pool size.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Installs a deterministic fault-injection plan (tests and the
    /// `--fault-plan` CLI flag). Indices are global submission indices on
    /// this runner.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Enables lockstep-oracle mode (`--oracle`): every job's simulation
    /// replays its retired-instruction stream through the in-order
    /// reference oracle ([`wishbranch_isa::LockstepOracle`]); a divergence
    /// surfaces as that job's [`JobError::VerifyDivergence`] — a failed
    /// cell, gap-rendered like any other — instead of poisoning the sweep.
    pub fn set_oracle(&mut self, on: bool) {
        self.oracle = on;
    }

    /// Sets the batch width (`--batch N` / `WISHBRANCH_BATCH`). With a
    /// width above 1, [`try_run`](Self::try_run) groups jobs that share a
    /// compiled binary into units of up to `width` jobs, which one worker
    /// runs back to back; each job is still run, timed and fault-isolated
    /// on its own, so the width changes scheduling, never results. `0` is
    /// clamped to 1 (batching off).
    pub fn set_batch(&mut self, width: usize) {
        self.batch = width.max(1);
    }

    /// Sets a per-job wall-clock budget. The budget is checked *between*
    /// phases and after completion — never mid-simulation, which would
    /// break determinism — so an overrunning job still finishes its work
    /// but reports [`JobError::WallBudgetExceeded`] instead of a result.
    pub fn set_wall_budget(&mut self, budget: Option<Duration>) {
        self.wall_budget = budget;
    }

    /// Attaches a content-addressed [`ArtifactStore`]: before executing a
    /// job (and after the journal lookup) the store is consulted under
    /// the job's [`job_key`](Self::job_key); a hit is returned
    /// bit-identically as a [`JobResult::store_hit`] and appended to the
    /// local journal so resume stays complete. Every fresh success is
    /// written back. Lookup order is journal → store → execute.
    pub fn attach_store(&mut self, store: Arc<ArtifactStore>) {
        self.store = Some(store);
    }

    /// Installs a completion observer: called once per successful job
    /// with `(job_key, &result)`, on every success path — fresh
    /// execution, journal hit, store hit — in completion order. Streaming
    /// consumers (the serve protocol) rely on journal hits re-firing
    /// after a resume so a client stream stays gap-free.
    pub fn set_observer(&mut self, observer: JobObserver) {
        self.observer = Some(observer);
    }

    /// The run-identity fingerprint stamped into this runner's journal
    /// header: an FNV-1a-64 hash over the experiment scale, machine
    /// configuration, compile options (floats by bit pattern) and
    /// training input. Deliberately *excludes* the fault plan and worker
    /// count — neither changes what a job computes, and a kill-then-resume
    /// cycle legitimately resumes without re-injecting the fault that
    /// killed it.
    #[must_use]
    pub fn run_fingerprint(&self) -> u64 {
        let fingerprint = format!(
            "{}|{:?}|{:?}|{:?}",
            self.ec.scale,
            self.ec.machine,
            OptionsKey::new(&self.ec.compile),
            self.ec.train_input,
        );
        fnv1a64(fingerprint.as_bytes())
    }

    /// Attaches the sweep journal at `path`: every subsequently completed
    /// job is appended as it finishes. With `resume`, already-journaled
    /// outcomes are loaded first and served bit-identically as
    /// [`JobResult::journal_hit`]s instead of re-running. Returns how many
    /// journaled outcomes were loaded.
    ///
    /// # Errors
    ///
    /// [`JournalError::RunMismatch`] when the journal exists but was
    /// written under a different [`run_fingerprint`](Self::run_fingerprint)
    /// — resuming it would silently replay results from a different
    /// configuration or scale. [`JournalError::Io`] for real I/O failures
    /// opening or reading the file. Unparseable journal *content* is never
    /// an error — corrupt or torn lines are skipped and their jobs simply
    /// re-run.
    pub fn attach_journal(&self, path: &Path, resume: bool) -> Result<usize, JournalError> {
        // Open (and fingerprint-check) first: a stale journal must be
        // refused before a single outcome is loaded from it.
        let writer = JournalWriter::open(path, self.run_fingerprint())?;
        let resume_map = if resume {
            crate::journal::load(path)?
        } else {
            HashMap::new()
        };
        let loaded = resume_map.len();
        *lock_unpoisoned(&self.journal) = Some(JournalState {
            writer,
            resume: resume_map,
        });
        Ok(loaded)
    }

    /// Whether a [`FaultKind::Abort`] fault has fired on this runner.
    /// Once aborted, workers stop pulling jobs and every unstarted job
    /// (in this and any later batch) fails with [`JobError::Aborted`] —
    /// in-process, this models a sweep whose process was killed mid-run.
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Every [`JobFailure`] recorded over the runner's lifetime, in the
    /// order failures were recorded.
    #[must_use]
    pub fn failures(&self) -> Vec<JobFailure> {
        lock_unpoisoned(&self.failures).clone()
    }

    /// The stable journal/cache key of a job: an FNV-1a-64 fingerprint
    /// over the benchmark name, variant, run input, training spec,
    /// compile options (floats by bit pattern) and the full machine
    /// configuration.
    #[must_use]
    pub fn job_key(&self, job: &SweepJob) -> u64 {
        let fingerprint = format!(
            "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
            self.benches[job.bench].name,
            job.variant,
            job.input,
            job.train,
            OptionsKey::new(&job.compile),
            job.machine,
            self.ec.scale,
        );
        fnv1a64(fingerprint.as_bytes())
    }

    /// Executes `jobs` on the worker pool, returning one
    /// `Ok(`[`JobResult`]`)` or `Err(`[`JobFailure`]`)` per job, **in
    /// submission order** regardless of completion order. A failed job —
    /// typed error or caught worker panic — never prevents any other job
    /// from completing; non-failed results are bit-identical to a
    /// fault-free run.
    #[must_use]
    pub fn try_run(&self, jobs: Vec<SweepJob>) -> Vec<Result<JobResult, JobFailure>> {
        let t0 = Instant::now();
        let n = jobs.len();
        let base = self.next_index.fetch_add(n as u64, Ordering::SeqCst);
        let units = self.plan_units(&jobs);
        let jobs = &jobs;
        let units = &units;
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<JobResult, JobFailure>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let workers = self.workers.min(units.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = self.take_scratch();
                    let claim = || units.get(next.fetch_add(1, Ordering::Relaxed));
                    'tour: while let Some(unit) = claim() {
                        for &i in unit {
                            if self.aborted() {
                                break 'tour;
                            }
                            let outcome = self.run_indexed(&jobs[i], base + i as u64, &mut scratch);
                            let fresh = matches!(&outcome, Ok(d) if !d.journal_hit && !d.store_hit);
                            if fresh && unit.len() > 1 {
                                self.batched_jobs.fetch_add(1, Ordering::Relaxed);
                            }
                            *lock_unpoisoned(&slots[i]) = Some(outcome);
                        }
                    }
                    self.return_scratch(scratch);
                });
            }
        });
        self.wall_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let filled = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                // A slot is only left unfilled when an abort stopped the
                // workers before this job was claimed.
                filled.unwrap_or_else(|| {
                    Err(self.record_failure(&jobs[i], base + i as u64, JobError::Aborted, 0))
                })
            })
            .collect()
    }

    /// Executes `jobs` like [`try_run`](SweepRunner::try_run), but
    /// collapses the per-job results: all results in submission order on
    /// success, the first failure otherwise. (The remaining jobs still
    /// ran; their failures stay visible via
    /// [`failures`](SweepRunner::failures).)
    ///
    /// # Errors
    ///
    /// The first [`JobFailure`] in submission order, if any job failed.
    pub fn run(&self, jobs: Vec<SweepJob>) -> Result<Vec<JobResult>, JobFailure> {
        self.try_run(jobs).into_iter().collect()
    }

    /// Records a failure in the runner's failure table and returns it.
    fn record_failure(
        &self,
        job: &SweepJob,
        index: u64,
        error: JobError,
        attempts: u32,
    ) -> JobFailure {
        let failure = JobFailure {
            job: Box::new(job.clone()),
            index,
            error,
            attempts,
        };
        self.failed.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&self.failures).push(failure.clone());
        failure
    }

    /// Takes a recycled scratch from the pool (or a fresh one) for a
    /// worker's tour of duty.
    fn take_scratch(&self) -> SimScratch {
        lock_unpoisoned(&self.scratch_pool).pop().unwrap_or_default()
    }

    /// Returns a worker's scratch to the pool at the end of its tour.
    fn return_scratch(&self, scratch: SimScratch) {
        lock_unpoisoned(&self.scratch_pool).push(scratch);
    }

    /// Splits `jobs` into scheduling units. With batching off (width 1)
    /// every job is its own unit, in submission order. Otherwise jobs
    /// sharing a compile key — and therefore a compiled program — are
    /// grouped in first-seen order and chunked to the batch width.
    fn plan_units(&self, jobs: &[SweepJob]) -> Vec<WorkUnit> {
        if self.batch <= 1 {
            return (0..jobs.len()).map(|i| vec![i]).collect();
        }
        let mut order: Vec<CompileKey> = Vec::new();
        let mut groups: HashMap<CompileKey, Vec<usize>> = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            let key = CompileKey::of(job);
            match groups.get_mut(&key) {
                Some(members) => members.push(i),
                None => {
                    order.push(key.clone());
                    groups.insert(key, vec![i]);
                }
            }
        }
        order
            .iter()
            .flat_map(|key| groups[key].chunks(self.batch).map(<[usize]>::to_vec))
            .collect()
    }

    /// Serves a job from the attached journal or artifact store, if
    /// present there, with all the counter/notify side effects of that
    /// path. A store consult that misses counts as a store miss.
    fn cached_lookup(&self, job: &SweepJob) -> Option<JobResult> {
        if let Some((key, outcome, entry)) = self.journal_lookup(job) {
            self.jobs_run.fetch_add(1, Ordering::Relaxed);
            self.journal_hits.fetch_add(1, Ordering::Relaxed);
            let done = JobResult {
                job: job.clone(),
                outcome,
                wall: Duration::ZERO,
                phases: JobPhases::default(),
                compile_cache_hit: true,
                journal_hit: true,
                store_hit: false,
                entry: Some(entry),
            };
            self.notify(Some(key), &done);
            return Some(done);
        }
        if let Some(store) = &self.store {
            let key = self.job_key(job);
            if let Some((outcome, entry)) = store.get_entry(key) {
                self.jobs_run.fetch_add(1, Ordering::Relaxed);
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                // Append the bytes as read to the local journal, so a
                // later resume of this run is complete without consulting
                // the store.
                self.journal_append(&entry);
                let done = JobResult {
                    job: job.clone(),
                    outcome,
                    wall: Duration::ZERO,
                    phases: JobPhases::default(),
                    compile_cache_hit: true,
                    journal_hit: false,
                    store_hit: true,
                    entry: Some(entry.into()),
                };
                self.notify(Some(key), &done);
                return Some(done);
            }
            self.store_misses.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// One job at its global submission index: journal lookup, fault
    /// injection, panic isolation, bounded retry.
    fn run_indexed(
        &self,
        job: &SweepJob,
        index: u64,
        scratch: &mut SimScratch,
    ) -> Result<JobResult, JobFailure> {
        let fault = self.fault_plan.fault_at(index);
        if fault == Some(FaultKind::Abort) {
            self.aborted.store(true, Ordering::SeqCst);
            return Err(self.record_failure(job, index, JobError::Aborted, 0));
        }
        if let Some(done) = self.cached_lookup(job) {
            return Ok(done);
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.execute_job(job, fault, scratch)
            }));
            let result = match caught {
                Ok(result) => result,
                Err(payload) => Err(JobError::WorkerPanic {
                    payload: panic_payload_string(payload),
                }),
            };
            match result {
                Ok((mut done, image)) => {
                    self.land(&mut done, &image);
                    return Ok(done);
                }
                Err(error) if error.retryable() && attempts <= RETRY_LIMIT => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(error) => return Err(self.record_failure(job, index, error, attempts)),
            }
        }
    }

    /// One execution attempt: acquire → simulate → verify, with the
    /// injected fault (if any) applied. Injected faults produce *genuine*
    /// failures — a real panic, a real cycle-budget overrun (tiny
    /// `max_cycles`), a real verify divergence (corrupted retired memory)
    /// — so the whole recovery path is exercised, not a mock of it.
    /// Returns the result with the input image it ran on, which
    /// [`land`](Self::land) encodes the outcome against.
    fn execute_job(
        &self,
        job: &SweepJob,
        fault: Option<FaultKind>,
        scratch: &mut SimScratch,
    ) -> Result<(JobResult, MemImage), JobError> {
        if fault == Some(FaultKind::Panic) {
            panic!("injected fault: worker panic");
        }
        let t0 = Instant::now();
        let (binary, compile_cache_hit) = self.binary(job)?;
        let acquire = t0.elapsed();
        let bench = &self.benches[job.bench];
        let starved;
        let machine = if fault == Some(FaultKind::Budget) {
            starved = job.machine.clone().with_max_cycles(64);
            &starved
        } else {
            &job.machine
        };
        let t1 = Instant::now();
        let image = input_image(bench, job.input);
        let label = job_label(bench, job.input);
        let lockstep = self.oracle && !machine.oracles.no_false_predicate_fetch;
        let (mut sim, records) =
            simulate_on_image(&binary.program, &image, machine, scratch, lockstep)?;
        if lockstep {
            lockstep_check(&binary.program, &label, &image, &sim, &records)?;
        }
        let simulate = t1.elapsed();
        if fault == Some(FaultKind::Diverge) {
            sim.final_mem.insert(u64::MAX, i64::MIN);
        }
        let t2 = Instant::now();
        verify_against_image(&binary.program, &label, &image, &sim)?;
        let verify = t2.elapsed();
        let wall = t0.elapsed();
        if let Some(budget) = self.wall_budget {
            if wall > budget {
                return Err(JobError::WallBudgetExceeded {
                    limit_ms: budget.as_millis() as u64,
                });
            }
        }
        self.jobs_run.fetch_add(1, Ordering::Relaxed);
        self.job_time_nanos
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        self.simulate_nanos
            .fetch_add(simulate.as_nanos() as u64, Ordering::Relaxed);
        self.verify_nanos
            .fetch_add(verify.as_nanos() as u64, Ordering::Relaxed);
        // Throughput numerators: only genuinely simulated work counts
        // (journal hits return long before this point).
        self.sim_cycles.fetch_add(sim.stats.cycles, Ordering::Relaxed);
        self.sim_uops
            .fetch_add(sim.stats.retired_uops, Ordering::Relaxed);
        let done = JobResult {
            job: job.clone(),
            outcome: RunOutcome {
                sim,
                report: binary.report,
                static_stats: binary.program.static_stats(),
            },
            wall,
            phases: JobPhases {
                acquire,
                simulate,
                verify,
            },
            compile_cache_hit,
            journal_hit: false,
            store_hit: false,
            entry: None,
        };
        Ok((done, image))
    }

    /// Lands a fresh success: when the runner persists, encodes it once
    /// against `image` (the input it ran on) and writes those bytes to
    /// the journal and the store and into [`JobResult::entry`]; then
    /// notifies the observer. A runner with neither journal nor store
    /// skips the codec entirely.
    fn land(&self, done: &mut JobResult, image: &MemImage) {
        let persists = self.store.is_some() || lock_unpoisoned(&self.journal).is_some();
        if !persists {
            self.notify(None, done);
            return;
        }
        let key = self.job_key(&done.job);
        let input = InputImage {
            bench: self.benches[done.job.bench].name,
            input: done.job.input,
            image,
        };
        let entry: Arc<str> = encode_entry_on(key, &done.outcome, Some(input)).into();
        self.journal_append(&entry);
        if let Some(store) = &self.store {
            if let Err(e) = store.put_entry(key, &entry) {
                // Store write failure degrades the cache (warn), never the
                // sweep — same contract as the journal.
                eprintln!("warning: artifact-store write failed: {e}");
            }
        }
        done.entry = Some(entry);
        self.notify(Some(key), done);
    }

    /// Fires the completion observer, if one is installed, with the job's
    /// key (computed here unless the caller already has it).
    fn notify(&self, key: Option<u64>, done: &JobResult) {
        if let Some(observer) = &self.observer {
            observer(key.unwrap_or_else(|| self.job_key(&done.job)), done);
        }
    }

    /// The journaled key, outcome and entry line for a job, if a journal
    /// is attached in resume mode and has this job's key.
    fn journal_lookup(&self, job: &SweepJob) -> Option<(u64, RunOutcome, Arc<str>)> {
        {
            let guard = lock_unpoisoned(&self.journal);
            let state = guard.as_ref()?;
            if state.resume.is_empty() {
                return None;
            }
        }
        // Fingerprinting is outside the lock; only the map read is inside.
        let key = self.job_key(job);
        let (outcome, entry) = lock_unpoisoned(&self.journal)
            .as_ref()
            .and_then(|state| state.resume.get(&key).cloned())?;
        Some((key, outcome, entry))
    }

    /// Appends a completed job's entry line to the attached journal, if
    /// any. A journal write failure degrades the journal (warn on
    /// stderr), never the sweep.
    fn journal_append(&self, entry: &str) {
        if let Some(state) = lock_unpoisoned(&self.journal).as_mut() {
            if let Err(e) = state.writer.append(entry) {
                eprintln!("warning: sweep journal write failed: {e}");
            }
        }
    }

    /// The memoized profile of benchmark `bench` on `input`.
    ///
    /// Exactly one profiling run per `(bench, input)` pair executes over
    /// the runner's lifetime; concurrent requesters block on the first.
    /// A profiling failure is memoized the same way (it is deterministic).
    ///
    /// # Errors
    ///
    /// The memoized [`JobError::ProfileFault`] if profiling failed.
    pub fn profile(&self, bench: usize, input: InputSet) -> Result<Arc<Profile>, JobError> {
        let cell: ProfileCell = {
            let mut map = lock_unpoisoned(&self.profiles);
            Arc::clone(map.entry((bench, input)).or_default())
        };
        let mut computed = false;
        let result = cell.get_or_init(|| {
            computed = true;
            self.profile_misses.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let profile = profile_on(&self.benches[bench], input).map(Arc::new);
            self.profile_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            profile
        });
        if !computed {
            self.profile_hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// The memoized compiled binary for a job's `(bench, variant, train,
    /// compile-options)` key. Returns the binary and whether it was a
    /// cache hit. A compile-path failure is memoized like a success.
    ///
    /// # Errors
    ///
    /// The memoized [`JobError`] if the profile/compile path failed.
    pub fn binary(&self, job: &SweepJob) -> Result<(Arc<CompiledBinary>, bool), JobError> {
        let cell: BinaryCell = {
            let mut map = lock_unpoisoned(&self.binaries);
            Arc::clone(map.entry(CompileKey::of(job)).or_default())
        };
        let mut computed = false;
        let result = cell.get_or_init(|| {
            computed = true;
            self.compile_misses.fetch_add(1, Ordering::Relaxed);
            self.compile_uncached(job).map(Arc::new)
        });
        if !computed {
            self.compile_hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone().map(|binary| (binary, !computed))
    }

    fn compile_uncached(&self, job: &SweepJob) -> Result<CompiledBinary, JobError> {
        let module = &self.benches[job.bench].module;
        // Profiles are acquired first so `compile_time` measures only the
        // compiler itself, never the profiling a cold cache triggers.
        match &job.train {
            TrainSpec::Single(input) => {
                let profile = self.profile(job.bench, *input)?;
                let t0 = Instant::now();
                let bin = compile(module, &profile, job.variant, &job.compile);
                self.compile_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Ok(bin)
            }
            TrainSpec::Multi(inputs) => {
                let profiles: Vec<Profile> = inputs
                    .iter()
                    .map(|&i| self.profile(job.bench, i).map(|p| (*p).clone()))
                    .collect::<Result<_, _>>()?;
                let t0 = Instant::now();
                let bin = compile_adaptive(module, &profiles, &job.compile);
                self.compile_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Ok(bin)
            }
        }
    }

    /// A snapshot of everything the runner has executed so far.
    #[must_use]
    pub fn summary(&self) -> SweepSummary {
        SweepSummary {
            jobs: self.jobs_run.load(Ordering::Relaxed),
            workers: self.workers,
            profile_hits: self.profile_hits.load(Ordering::Relaxed),
            profile_misses: self.profile_misses.load(Ordering::Relaxed),
            compile_hits: self.compile_hits.load(Ordering::Relaxed),
            compile_misses: self.compile_misses.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            journal_hits: self.journal_hits.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            store_quarantined: self.store.as_ref().map_or(0, |s| s.quarantined()),
            job_time: Duration::from_nanos(self.job_time_nanos.load(Ordering::Relaxed)),
            wall_time: Duration::from_nanos(self.wall_nanos.load(Ordering::Relaxed)),
            profile_time: Duration::from_nanos(self.profile_nanos.load(Ordering::Relaxed)),
            compile_time: Duration::from_nanos(self.compile_nanos.load(Ordering::Relaxed)),
            simulate_time: Duration::from_nanos(self.simulate_nanos.load(Ordering::Relaxed)),
            verify_time: Duration::from_nanos(self.verify_nanos.load(Ordering::Relaxed)),
            sim_cycles: self.sim_cycles.load(Ordering::Relaxed),
            sim_uops: self.sim_uops.load(Ordering::Relaxed),
            batch_size: self.batch,
            batched_jobs: self.batched_jobs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let ec = ExperimentConfig::quick(20);
        let runner = SweepRunner::with_workers(&ec, 4);
        // Benchmarks differ wildly in runtime, so completion order will
        // not match submission order; the engine must reorder.
        let jobs: Vec<SweepJob> = (0..4)
            .flat_map(|b| {
                InputSet::ALL
                    .into_iter()
                    .map(move |i| (b, i))
            })
            .map(|(b, i)| SweepJob::standard(b, BinaryVariant::NormalBranch, i, &ec))
            .collect();
        let expect: Vec<(usize, InputSet)> = jobs.iter().map(|j| (j.bench, j.input)).collect();
        let results = runner.run(jobs).expect("fault-free sweep");
        let got: Vec<(usize, InputSet)> = results.iter().map(|r| (r.job.bench, r.job.input)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn caches_hit_and_count() {
        let ec = ExperimentConfig::quick(20);
        let runner = SweepRunner::with_workers(&ec, 2);
        let jobs: Vec<SweepJob> = InputSet::ALL
            .into_iter()
            .map(|i| SweepJob::standard(0, BinaryVariant::BaseDef, i, &ec))
            .collect();
        let results = runner.run(jobs).expect("fault-free sweep");
        let summary = runner.summary();
        // One binary serves all three inputs.
        assert_eq!(summary.compile_misses, 1, "{summary:?}");
        assert_eq!(summary.compile_hits, 2, "{summary:?}");
        assert_eq!(results.iter().filter(|r| r.compile_cache_hit).count(), 2);
        // One training profile; the compile-cache hits never re-request it.
        assert_eq!(summary.profile_misses, 1, "{summary:?}");
        assert_eq!(summary.profile_hits, 0, "{summary:?}");
        // A second variant reuses the cached profile.
        let extra = SweepJob::standard(0, BinaryVariant::BaseMax, InputSet::A, &ec);
        let extra = runner.try_run(vec![extra]);
        assert!(extra.iter().all(Result::is_ok), "extra job");
        let summary = runner.summary();
        assert_eq!(summary.profile_misses, 1, "{summary:?}");
        assert_eq!(summary.profile_hits, 1, "{summary:?}");
        assert_eq!(summary.jobs, 4);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.retries, 0);
        assert!(summary.job_time > Duration::ZERO);
        // Phase timing: the cycle sim always runs, and the per-job phase
        // breakdown can never exceed the job's own wall clock.
        assert!(summary.simulate_time > Duration::ZERO);
        for r in &results {
            assert!(r.phases.acquire + r.phases.simulate + r.phases.verify <= r.wall);
        }
    }

    #[test]
    fn distinct_options_and_train_inputs_do_not_alias() {
        let ec = ExperimentConfig::quick(20);
        let runner = SweepRunner::new(&ec);
        let base = SweepJob::standard(1, BinaryVariant::WishJumpJoin, InputSet::B, &ec);
        let mut tweaked_opts = ec.compile.clone();
        tweaked_opts.wish_jump_threshold += 1;
        let other_train = base.clone().with_train(TrainSpec::Single(InputSet::C));
        let _ = runner.binary(&base).expect("compile");
        let _ = runner.binary(&base.clone().with_compile(tweaked_opts)).expect("compile");
        let _ = runner.binary(&other_train).expect("compile");
        assert_eq!(runner.summary().compile_misses, 3, "three distinct keys");
    }

    #[test]
    fn job_keys_distinguish_jobs_and_are_stable() {
        let ec = ExperimentConfig::quick(20);
        let runner = SweepRunner::new(&ec);
        let a = SweepJob::standard(0, BinaryVariant::NormalBranch, InputSet::A, &ec);
        let b = SweepJob::standard(0, BinaryVariant::NormalBranch, InputSet::B, &ec);
        assert_eq!(runner.job_key(&a), runner.job_key(&a.clone()));
        assert_ne!(runner.job_key(&a), runner.job_key(&b));
        assert_ne!(
            runner.job_key(&a),
            runner.job_key(&a.clone().with_machine(ec.machine.clone().with_window(128)))
        );
    }
}
