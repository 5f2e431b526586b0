//! The single-job simulator handle, and the pipeline vocabulary the lane
//! engine is written in.
//!
//! [`Simulator`] is a thin facade over one lane of the out-of-order engine
//! in [`crate::batch`] — the crate's only core. A [`crate::BatchSimulator`]
//! runs N such lanes one after another over shared decoded tables; a
//! `Simulator` runs one, optionally on buffers recycled from the previous
//! job ([`SimScratch`]). Both produce the same [`SimResult`] for the same
//! program, configuration and input.
//!
//! The types below the facade (branch metadata, front-end modes, the
//! waiter list, the I-cache fetch gate, …) are the engine's shared
//! vocabulary.

use crate::batch::{Lane, LaneArenas};
use crate::config::MachineConfig;
use crate::decode::DecodedProgram;
use crate::stats::SimStats;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;
use wishbranch_bpred::{HybridToken, LoopToken, RasCheckpoint};
use wishbranch_isa::{insn_addr, PredReg, Program, NUM_GPRS, NUM_PREDS};
use wishbranch_mem::{AccessOutcome, MemoryHierarchy};

/// Errors from [`Simulator::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The cycle budget was exhausted before `halt` retired.
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "program did not retire halt within {limit} cycles")
            }
        }
    }
}

impl Error for SimError {}

/// Outcome of a simulation.
#[derive(Clone, PartialEq, Debug)]
pub struct SimResult {
    /// All statistics.
    pub stats: SimStats,
    /// Final (retired) general registers.
    pub final_regs: [i64; NUM_GPRS],
    /// Final (retired) predicate registers.
    pub final_preds: [bool; NUM_PREDS],
    /// Final (retired) memory, sorted.
    pub final_mem: std::collections::BTreeMap<u64, i64>,
}

/// Dynamic-hammock-predication fetch state: which region is currently
/// being fetched under an injected guard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum DhpState {
    Off,
    /// Guarding the fall-through arm. At `until`, either stop (triangle) or
    /// redirect into the taken arm (`then` = (taken_start, taken_until,
    /// skip_to-after-taken)).
    GuardFall {
        pred: PredReg,
        negated: bool,
        /// Architectural value of `pred` when the branch was fetched (the
        /// renamed condition real hardware would hold).
        cond: bool,
        until: u32,
        then: Option<(u32, u32, Option<u32>)>,
    },
    /// Guarding the taken arm under the complement; at `until`, optionally
    /// skip the arm's trailing unconditional jump back to `skip_to`.
    GuardTaken {
        pred: PredReg,
        negated: bool,
        /// See [`DhpState::GuardFall::cond`].
        cond: bool,
        until: u32,
        skip_to: Option<u32>,
    },
}

/// Front-end mode of Fig. 8.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Mode {
    Normal,
    HighConf,
    /// Low-confidence mode. For wish jumps/joins, `exit_target` is the
    /// target of the branch that caused entry (fetching it exits the mode);
    /// for wish loops, `loop_pc` identifies the loop being predicated.
    LowConf {
        exit_target: Option<u32>,
        loop_pc: Option<u32>,
    },
}

/// Branch metadata captured at fetch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BrMeta {
    /// Direction fetch followed (conditional branches).
    pub(crate) predicted_taken: bool,
    /// pc fetch continued at.
    pub(crate) predicted_next: u32,
    /// Hybrid predictor token (conditional branches, non-oracle).
    pub(crate) bp_token: Option<HybridToken>,
    /// What the direction predictor said before any wish-branch forcing.
    pub(crate) predictor_said_taken: bool,
    /// GHR before this branch's speculative update.
    pub(crate) ghr_checkpoint: u64,
    /// GHR value used to index the confidence estimator.
    pub(crate) conf_ghr: u64,
    /// RAS state after this branch's own push/pop.
    pub(crate) ras_checkpoint: RasCheckpoint,
    /// Confidence estimate for wish branches (None = not a wish branch or
    /// hardware disabled).
    pub(crate) conf_high: Option<bool>,
    /// Mode the front end was in when this branch was fetched (§3.5.4
    /// footnote: recovery checks the mode at fetch, not at resolution).
    pub(crate) fetch_mode: Mode,
    /// Specialized wish-loop predictor token, when that predictor is
    /// enabled and produced this prediction.
    pub(crate) loop_token: Option<LoopToken>,
    /// This branch was dynamically hammock-predicated (DHP): both arms are
    /// in the pipeline under hardware guards, so it never flushes.
    pub(crate) dhp: bool,
}

/// Role of a ROB entry under the select-µop mechanism.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Role {
    /// The whole architectural µop (C-style, or unguarded).
    Whole,
    /// Select-µop expansion: the unguarded compute part.
    Compute,
    /// Select-µop expansion: the select merging under the predicate.
    Select,
}

/// Inline capacity of a [`WaiterList`]; spills go to a pooled `Vec`.
pub(crate) const WAITERS_INLINE: usize = 4;

/// Consumers waiting on one producer's completion, in ascending ROB-id
/// order (ids only grow between flushes, and a flush truncates the tail).
/// Small-buffer inline; the rare spill vectors are recycled through
/// the lane's `waiter_pool` across flushes so steady state allocates
/// nothing per µop.
#[derive(Clone, Debug, Default)]
pub(crate) struct WaiterList {
    pub(crate) len: u32,
    pub(crate) inline: [u64; WAITERS_INLINE],
    pub(crate) spill: Vec<u64>,
}

impl WaiterList {
    pub(crate) fn push(&mut self, id: u64) {
        let l = self.len as usize;
        if l < WAITERS_INLINE {
            self.inline[l] = id;
        } else {
            self.spill.push(id);
        }
        self.len += 1;
    }

    /// The next `push` would land in the spill vector.
    pub(crate) fn will_spill(&self) -> bool {
        self.len as usize >= WAITERS_INLINE
    }

    /// Drops waiters with id > `boundary` (flush squash). The list is
    /// ascending, so squashed ids form the tail.
    pub(crate) fn truncate_above(&mut self, boundary: u64) {
        while self.len > 0 {
            let l = (self.len - 1) as usize;
            let last = if l < WAITERS_INLINE {
                self.inline[l]
            } else {
                self.spill[l - WAITERS_INLINE]
            };
            if last <= boundary {
                break;
            }
            if l >= WAITERS_INLINE {
                self.spill.pop();
            }
            self.len -= 1;
        }
    }
}

/// Simulates one program on one machine configuration. Create with
/// [`Simulator::new`] (or [`Simulator::with_scratch`] to reuse a previous
/// job's buffers), preload the input with [`Simulator::preload_mem`], then
/// [`Simulator::run`].
///
/// A `Simulator` is one lane of the out-of-order engine that
/// [`crate::BatchSimulator`] runs N at a time: a job simulated alone and
/// the same job at any position in a batch produce equal results.
pub struct Simulator<'p> {
    lane: Lane,
    /// The lane decodes `program` up front; the borrow ties the simulator
    /// to it like a batch lane's [`crate::BatchLaneSpec`] does.
    program: PhantomData<&'p Program>,
}

/// Reusable simulator buffers: a worker thread keeps one `SimScratch` and
/// threads it through consecutive [`Simulator::with_scratch`] /
/// [`Simulator::recycle`] pairs, so back-to-back jobs reuse the decoded-µop
/// tables and the lane's arenas (µop slots, ROB, queues, ready bitmap,
/// event calendar) instead of reallocating them per job. Purely an
/// allocation cache: a simulator built from a scratch pool is
/// bit-identical to one built fresh.
#[derive(Default)]
pub struct SimScratch {
    decoded: DecodedProgram,
    arenas: LaneArenas,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator over `program` with cold predictors and caches.
    #[must_use]
    pub fn new(program: &'p Program, cfg: MachineConfig) -> Simulator<'p> {
        Simulator::with_scratch(program, cfg, &mut SimScratch::default())
    }

    /// Like [`Simulator::new`], but reuses the buffer allocations held in
    /// `scratch` (emptied by a prior [`Simulator::recycle`]). Simulation
    /// results are bit-identical either way.
    #[must_use]
    pub fn with_scratch(
        program: &'p Program,
        cfg: MachineConfig,
        scratch: &mut SimScratch,
    ) -> Simulator<'p> {
        let mut decoded = std::mem::take(&mut scratch.decoded);
        decoded.rebuild(program, &cfg);
        let arenas = std::mem::take(&mut scratch.arenas);
        Simulator {
            lane: Lane::new(cfg, Arc::new(decoded), arenas),
            program: PhantomData,
        }
    }

    /// Returns this simulator's buffers to `scratch` for the next
    /// [`Simulator::with_scratch`] on the same worker.
    pub fn recycle(self, scratch: &mut SimScratch) {
        let (decoded, arenas) = self.lane.into_parts();
        scratch.arenas = arenas;
        if let Ok(decoded) = Arc::try_unwrap(decoded) {
            scratch.decoded = decoded;
        }
    }

    /// Enables pipeline event tracing (see [`crate::trace`]). Call before
    /// [`Simulator::run`]; collect the events with
    /// [`Simulator::take_trace`]. Tracing does not change timing.
    pub fn enable_trace(&mut self) {
        self.lane.trace = Some(Vec::new());
    }

    /// Takes the collected trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<crate::trace::TraceEvent> {
        self.lane.trace.take().unwrap_or_default()
    }

    /// Enables the retired-instruction stream for differential validation
    /// against [`wishbranch_isa::LockstepOracle`]. Call before
    /// [`Simulator::run`]; collect with [`Simulator::take_retire_log`].
    /// Like tracing, the log observes retirement and never changes timing.
    pub fn enable_retire_log(&mut self) {
        self.lane.retire_log = Some(Vec::new());
    }

    /// Takes the collected retired stream (empty if never enabled). One
    /// record per retired architectural µop in commit order; select-µop
    /// `Compute` halves are folded into their `Select` records.
    pub fn take_retire_log(&mut self) -> Vec<wishbranch_isa::RetireRecord> {
        self.lane.retire_log.take().unwrap_or_default()
    }

    /// Preloads a data-memory word (program input).
    pub fn preload_mem(&mut self, addr: u64, value: i64) {
        self.lane.preload_mem(addr, value);
    }

    /// Runs to `halt` retirement. The accumulated statistics move into the
    /// returned [`SimResult`]; a second `run` on the same simulator would
    /// observe them reset.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimitExceeded`] if the configured cycle
    /// budget runs out (runaway program or configuration bug).
    pub fn run(&mut self) -> Result<SimResult, SimError> {
        self.lane.advance()?;
        Ok(self.lane.finish())
    }
}

/// Why the fetch stage is stalled (`fetch_stall_until` armed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StallReason {
    /// I-cache miss in flight.
    IMiss,
    /// Redirect bubble: post-flush resteer or BTB-miss target bubble.
    Redirect,
}

/// The fetch stage's I-cache gate: given the line the next µop lives on,
/// decide whether fetch can proceed this cycle and arm the I-miss stall
/// if not.
///
/// Under the flat model this is the legacy behaviour: access the I-cache,
/// latch the line, and stall for the returned latency when it exceeds an
/// L1-I hit. Under the non-blocking model the access goes through the
/// I-side MSHRs: a `Pending` fill stalls fetch until the fill cycle (the
/// line is latched so the post-fill resume does not re-access), and an
/// `MshrFull` refusal retries next cycle without latching — no request
/// was issued, so the retry must re-access.
///
/// Returns `true` when the line is available and fetch may consume the
/// µop this cycle.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fetch_line_gate(
    mem: &mut MemoryHierarchy,
    fetch_line: &mut Option<u64>,
    fetch_stall_until: &mut u64,
    fetch_stall_reason: &mut StallReason,
    icache_hit_latency: u64,
    fetch_pc: u32,
    line: u64,
    cycle: u64,
) -> bool {
    if *fetch_line == Some(line) {
        return true;
    }
    if mem.realistic() {
        match mem.fetch_access_nonblocking(insn_addr(fetch_pc), cycle) {
            AccessOutcome::Ready(_) => {
                *fetch_line = Some(line);
                true
            }
            AccessOutcome::Pending(fill_at) => {
                *fetch_line = Some(line);
                *fetch_stall_until = fill_at;
                *fetch_stall_reason = StallReason::IMiss;
                false
            }
            AccessOutcome::MshrFull | AccessOutcome::PortBusy => {
                // No request left the fetch stage: retry next cycle.
                *fetch_stall_until = cycle + 1;
                *fetch_stall_reason = StallReason::IMiss;
                false
            }
        }
    } else {
        let lat = mem.fetch_access_at(insn_addr(fetch_pc), cycle);
        *fetch_line = Some(line);
        if lat > icache_hit_latency {
            *fetch_stall_until = cycle + lat;
            *fetch_stall_reason = StallReason::IMiss;
            false
        } else {
            true
        }
    }
}

/// Store-to-load-forwarding verdict for a ready load (see
/// `Lane::forward_state`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ForwardState {
    /// Fully covered by the youngest older overlapping store whose data
    /// is ready: take the value from the store queue at L1-hit latency.
    Forward,
    /// Partially covered: conservative replay — wait until the store
    /// drains and read from the cache.
    PartialOverlap,
    /// No older in-flight store overlaps (or forwarding is off).
    NoMatch,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum GuardPlan {
    /// Unguarded.
    None,
    /// Guarded; producer already retired (value architecturally ready).
    Ready,
    /// Guarded; wait on this ROB producer.
    Wait(u64),
    /// Guarded; value known at rename (oracle or §3.5.3 elimination).
    Known(bool),
}
