//! The typed failure model of the experiment layer: every way a sweep job
//! can fail, as data instead of a panic.
//!
//! A job is a profile → compile → simulate → verify chain, and each stage
//! has a distinct failure mode: the IR interpreter can fault while
//! profiling, the cycle simulator can exhaust its cycle budget, the
//! retired state can diverge from the functional reference, and — the
//! catch-all — arbitrary code in a worker can panic. [`JobError`] names
//! them all; [`SweepRunner::try_run`](crate::SweepRunner::try_run) turns
//! each failed job into one [`JobFailure`] cell instead of a dead sweep.
//!
//! [`FaultPlan`] (an [`InjectionPlan`] of [`FaultKind`]s) is the
//! deterministic fault-injection hook the tests and CI drive: it maps
//! *global job submission indices* (a runner-lifetime counter,
//! independent of worker count and scheduling) to injected
//! faults, so a test can make job 7 panic, job 11 blow its cycle budget,
//! or the whole sweep abort at job 20 — reproducibly, with no wall-clock
//! dependence.

use std::collections::BTreeMap;
use std::fmt;

use crate::engine::SweepJob;

/// Why one sweep job failed. Every variant is a *typed outcome*: the
/// engine never panics on the job execution path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JobError {
    /// The IR profiling interpreter faulted (including step-budget
    /// exhaustion while gathering the training profile).
    ProfileFault(String),
    /// The cycle simulator faulted for a reason other than its budget
    /// (also covers a functional-reference machine fault during verify).
    SimFault(String),
    /// The cycle simulator exhausted its per-job cycle budget
    /// ([`MachineConfig::max_cycles`](wishbranch_uarch::MachineConfig)).
    CycleBudgetExceeded {
        /// The configured cycle limit.
        limit: u64,
    },
    /// The job exceeded its per-job wall-clock budget
    /// ([`SweepRunner::set_wall_budget`](crate::SweepRunner::set_wall_budget)).
    /// The budget is checked after each phase, so the simulation itself is
    /// never interrupted (determinism) — the completed result is discarded
    /// and the overrun reported as this typed outcome.
    WallBudgetExceeded {
        /// The configured budget in milliseconds.
        limit_ms: u64,
    },
    /// The cycle simulator retired a different architectural state than
    /// the functional reference machine — a simulator bug (or an injected
    /// divergence fault).
    VerifyDivergence {
        /// What diverged (benchmark, input, first differing address).
        detail: String,
    },
    /// The worker thread panicked while executing the job; the panic was
    /// caught and isolated to this one cell.
    WorkerPanic {
        /// The panic payload, stringified.
        payload: String,
    },
    /// The sweep was aborted (by a [`FaultKind::Abort`] fault or a prior
    /// abort on the same runner) before this job ran.
    Aborted,
}

impl JobError {
    /// Short stable discriminator, used in the failure table and
    /// `summary.json`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::ProfileFault(_) => "profile_fault",
            JobError::SimFault(_) => "sim_fault",
            JobError::CycleBudgetExceeded { .. } => "cycle_budget_exceeded",
            JobError::WallBudgetExceeded { .. } => "wall_budget_exceeded",
            JobError::VerifyDivergence { .. } => "verify_divergence",
            JobError::WorkerPanic { .. } => "worker_panic",
            JobError::Aborted => "aborted",
        }
    }

    /// Whether the engine's bounded retry applies. Only worker panics and
    /// budget overruns are considered potentially transient; a profile
    /// fault or verify divergence is deterministic and retrying it would
    /// only burn time.
    #[must_use]
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            JobError::WorkerPanic { .. }
                | JobError::CycleBudgetExceeded { .. }
                | JobError::WallBudgetExceeded { .. }
        )
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::ProfileFault(msg) => write!(f, "profiling run failed: {msg}"),
            JobError::SimFault(msg) => write!(f, "simulation failed: {msg}"),
            JobError::CycleBudgetExceeded { limit } => {
                write!(f, "cycle budget exceeded (limit {limit})")
            }
            JobError::WallBudgetExceeded { limit_ms } => {
                write!(f, "wall-clock budget exceeded (limit {limit_ms} ms)")
            }
            JobError::VerifyDivergence { detail } => {
                write!(f, "retired state diverged from the functional reference: {detail}")
            }
            JobError::WorkerPanic { payload } => write!(f, "worker panicked: {payload}"),
            JobError::Aborted => write!(f, "sweep aborted before this job ran"),
        }
    }
}

impl std::error::Error for JobError {}

/// One failed sweep cell: which job failed, where in the submission
/// sequence, why, and after how many attempts.
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// The job that failed (boxed: a job is large, and a failure travels
    /// in the `Err` arm of every job's result).
    pub job: Box<SweepJob>,
    /// The job's global submission index on its runner.
    pub index: u64,
    /// The typed failure.
    pub error: JobError,
    /// Execution attempts made (1 = no retry; 0 = never started, e.g.
    /// aborted).
    pub attempts: u32,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job #{} (bench {} {} {}): {} (attempts: {})",
            self.index,
            self.job.bench,
            self.job.variant.label(),
            self.job.input.label(),
            self.error,
            self.attempts
        )
    }
}

/// What an [`InjectionPlan`] injects: [`FaultKind`] (job failures inside
/// the engine) or [`ChaosKind`] (infrastructure failures around it).
pub trait PlanKind: Copy + Eq + fmt::Debug + 'static {
    /// Every kind, in the order parse errors list their keywords.
    const ALL: &'static [Self];
    /// The noun parse errors name a clause by (`fault` / `chaos`).
    const NOUN: &'static str;
    /// The spec keyword (`panic`, `torn-line`, …).
    fn label(self) -> &'static str;
}

/// A deterministic injection plan: global job index → injected kind.
/// Construction and spec parsing never consult the clock or any ambient
/// randomness, so a plan reproduces exactly across runs, worker counts
/// and platforms. Used as [`FaultPlan`] and [`ChaosPlan`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InjectionPlan<K> {
    faults: BTreeMap<u64, K>,
}

impl<K> Default for InjectionPlan<K> {
    fn default() -> Self {
        InjectionPlan {
            faults: BTreeMap::new(),
        }
    }
}

impl<K: PlanKind> InjectionPlan<K> {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault at the given global job index (builder style).
    #[must_use]
    pub fn inject(mut self, index: u64, kind: K) -> Self {
        self.faults.insert(index, kind);
        self
    }

    /// Parses a spec like `"panic@3,diverge@7,budget@2,abort@10"` or
    /// `"hang@3,torn-line@7,stall-client@2,corrupt-store@5"`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause on malformed input.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let noun = K::NOUN;
        let mut plan = Self::new();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            let (kind, index) = clause
                .split_once('@')
                .ok_or_else(|| format!("bad {noun} clause {clause:?} (want kind@index)"))?;
            let Some(&kind) = K::ALL.iter().find(|k| k.label() == kind) else {
                let keywords: Vec<&str> = K::ALL.iter().map(|k| k.label()).collect();
                return Err(format!(
                    "unknown {noun} kind {kind:?} (want {})",
                    keywords.join("|")
                ));
            };
            let index: u64 = index
                .parse()
                .map_err(|_| format!("bad {noun} index {index:?} in {clause:?}"))?;
            plan.faults.insert(index, kind);
        }
        Ok(plan)
    }

    /// The canonical spec string (`parse` ∘ `to_spec` is the identity).
    #[must_use]
    pub fn to_spec(&self) -> String {
        let clauses: Vec<String> = self
            .iter()
            .map(|(i, k)| format!("{}@{i}", k.label()))
            .collect();
        clauses.join(",")
    }

    /// The fault injected at a global job index, if any.
    #[must_use]
    pub fn fault_at(&self, index: u64) -> Option<K> {
        self.faults.get(&index).copied()
    }

    /// Number of planned faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned `(index, kind)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, K)> + '_ {
        self.faults.iter().map(|(&i, &k)| (i, k))
    }
}

/// A deterministic fault to inject into one job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Panic inside the worker before the job executes (exercises
    /// `catch_unwind` isolation and poisoned-lock recovery).
    Panic,
    /// Run the job with a tiny cycle budget so the simulator genuinely
    /// returns a cycle-budget overrun.
    Budget,
    /// Corrupt the retired memory image before verification so the
    /// functional cross-check genuinely reports a divergence.
    Diverge,
    /// Abort the whole sweep at this job, as if the process had been
    /// killed mid-run; remaining jobs become [`JobError::Aborted`]. Used
    /// by the kill-then-`--resume` tests.
    Abort,
}

impl PlanKind for FaultKind {
    const ALL: &'static [FaultKind] = &[
        FaultKind::Panic,
        FaultKind::Budget,
        FaultKind::Diverge,
        FaultKind::Abort,
    ];
    const NOUN: &'static str = "fault";

    fn label(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Budget => "budget",
            FaultKind::Diverge => "diverge",
            FaultKind::Abort => "abort",
        }
    }
}

/// The engine's fault-injection plan: global job submission index →
/// [`FaultKind`].
pub type FaultPlan = InjectionPlan<FaultKind>;

/// A deterministic serve-layer fault to inject at one global job index.
/// Where [`FaultKind`] models *job* failures inside the engine,
/// `ChaosKind` models *infrastructure* failures around it: hung worker
/// processes, torn protocol writes, stalled clients and corrupted store
/// artifacts. The resilience layer must absorb every one of them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosKind {
    /// The worker process hangs after announcing this job: heartbeats
    /// stop, output goes silent, and the process never exits. The server
    /// must detect the dead heartbeat, kill the worker, and respawn it in
    /// resume mode.
    Hang,
    /// The worker writes only a prefix of this job's protocol line (no
    /// newline) and then dies — a crash mid-write. The server must drop
    /// the torn line and recover the job from the respawned worker's
    /// journal replay.
    TornLine,
    /// The *client* stops reading the response stream after this many
    /// lines. Honored by chaos-test clients (a server cannot make a
    /// client stall); the server's write timeout must keep its handler
    /// thread from being pinned.
    StallClient,
    /// The worker corrupts this job's artifact-store entry after writing
    /// it. The next reader must quarantine the corrupt file, treat it as
    /// a miss, and re-execute.
    CorruptStore,
}

impl PlanKind for ChaosKind {
    const ALL: &'static [ChaosKind] = &[
        ChaosKind::Hang,
        ChaosKind::TornLine,
        ChaosKind::StallClient,
        ChaosKind::CorruptStore,
    ];
    const NOUN: &'static str = "chaos";

    fn label(self) -> &'static str {
        match self {
            ChaosKind::Hang => "hang",
            ChaosKind::TornLine => "torn-line",
            ChaosKind::StallClient => "stall-client",
            ChaosKind::CorruptStore => "corrupt-store",
        }
    }
}

impl ChaosKind {
    /// Whether this fault is injected inside the worker process (as
    /// opposed to [`ChaosKind::StallClient`], which only a client can
    /// enact).
    #[must_use]
    pub fn is_worker_side(self) -> bool {
        !matches!(self, ChaosKind::StallClient)
    }
}

/// [`FaultPlan`]'s serve-layer sibling: a deterministic map from global
/// job indices (worker-local completion order) to injected
/// infrastructure faults. The *timing* of kills and respawns varies with
/// the host, but the set of injected faults, and therefore the final
/// reports and journals, do not.
pub type ChaosPlan = InjectionPlan<ChaosKind>;

impl ChaosPlan {
    /// Only the worker-side clauses (everything but `stall-client`), as a
    /// spec string — what the server propagates into a worker spec.
    #[must_use]
    pub fn worker_spec(&self) -> String {
        let clauses: Vec<String> = self
            .iter()
            .filter(|(_, k)| k.is_worker_side())
            .map(|(i, k)| format!("{}@{i}", k.label()))
            .collect();
        clauses.join(",")
    }

    /// The first `stall-client` index, if the plan has one (the line
    /// count after which a chaos client stops reading).
    #[must_use]
    pub fn stall_after(&self) -> Option<u64> {
        self.iter()
            .find(|(_, k)| *k == ChaosKind::StallClient)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let plan = FaultPlan::parse("panic@3,diverge@7, budget@2 ,abort@10").unwrap();
        assert_eq!(plan.fault_at(3), Some(FaultKind::Panic));
        assert_eq!(plan.fault_at(7), Some(FaultKind::Diverge));
        assert_eq!(plan.fault_at(2), Some(FaultKind::Budget));
        assert_eq!(plan.fault_at(10), Some(FaultKind::Abort));
        assert_eq!(plan.fault_at(4), None);
        assert_eq!(plan.len(), 4);
        assert_eq!(
            FaultPlan::parse("explode@1").unwrap_err(),
            r#"unknown fault kind "explode" (want panic|budget|diverge|abort)"#
        );
        assert_eq!(
            FaultPlan::parse("panic@x").unwrap_err(),
            r#"bad fault index "x" in "panic@x""#
        );
        assert_eq!(
            FaultPlan::parse("panic").unwrap_err(),
            r#"bad fault clause "panic" (want kind@index)"#
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn retryability_matches_policy() {
        assert!(JobError::WorkerPanic { payload: "x".into() }.retryable());
        assert!(JobError::CycleBudgetExceeded { limit: 64 }.retryable());
        assert!(JobError::WallBudgetExceeded { limit_ms: 5 }.retryable());
        assert!(!JobError::ProfileFault("x".into()).retryable());
        assert!(!JobError::VerifyDivergence { detail: "x".into() }.retryable());
        assert!(!JobError::Aborted.retryable());
    }

    #[test]
    fn chaos_plan_parses_splits_and_round_trips() {
        let plan =
            ChaosPlan::parse("hang@3, torn-line@7 ,stall-client@2,corrupt-store@5").unwrap();
        assert_eq!(plan.fault_at(3), Some(ChaosKind::Hang));
        assert_eq!(plan.fault_at(7), Some(ChaosKind::TornLine));
        assert_eq!(plan.fault_at(2), Some(ChaosKind::StallClient));
        assert_eq!(plan.fault_at(5), Some(ChaosKind::CorruptStore));
        assert_eq!(plan.fault_at(4), None);
        assert_eq!(plan.len(), 4);
        // Canonical spec round trip.
        assert_eq!(ChaosPlan::parse(&plan.to_spec()).unwrap(), plan);
        // The worker spec drops the client-side clause; stall_after keeps it.
        assert_eq!(plan.worker_spec(), "hang@3,corrupt-store@5,torn-line@7");
        assert_eq!(plan.stall_after(), Some(2));
        assert_eq!(
            ChaosPlan::parse("explode@1").unwrap_err(),
            r#"unknown chaos kind "explode" (want hang|torn-line|stall-client|corrupt-store)"#
        );
        assert_eq!(
            ChaosPlan::parse("hang@x").unwrap_err(),
            r#"bad chaos index "x" in "hang@x""#
        );
        assert_eq!(
            ChaosPlan::parse("hang").unwrap_err(),
            r#"bad chaos clause "hang" (want kind@index)"#
        );
        assert!(ChaosPlan::parse("").unwrap().is_empty());
        assert_eq!(ChaosPlan::new().stall_after(), None);
    }

    #[test]
    fn error_kinds_are_stable_strings() {
        assert_eq!(JobError::Aborted.kind(), "aborted");
        assert_eq!(
            JobError::VerifyDivergence { detail: String::new() }.kind(),
            "verify_divergence"
        );
        assert_eq!(JobError::SimFault(String::new()).kind(), "sim_fault");
    }
}
