//! The out-of-order engine, one module per pipeline stage. Every
//! simulation runs on one [`Lane`]: the lane behind a [`crate::Simulator`].
//!
//! [`Lane::advance`] runs the stages in this order each cycle:
//!
//! | stage | module | paper |
//! |---|---|---|
//! | branch resolution, flush | [`resolve`] | §3.5.4 wish-loop early/late/no-exit recovery |
//! | retire | [`retire`] | predictor and JRS training |
//! | issue, execute, wakeup | [`issue`] (over [`calendar`]) | store forwarding, non-blocking memory |
//! | dispatch, rename | [`rename`] | §5.3.3 select-µop expansion |
//! | fetch | [`fetch`] | Fig. 8 mode FSM, §3.5.3 predicate elimination, DHP |
//! | cycle attribution | [`accounting`] | `CycleAccounting`, idle fast-forward |
//!
//! Fetch runs the speculative emulator ([`crate::emu::SpecEmulator`]) along
//! the predicted path; resolution compares the predicted direction with
//! the architectural one and flushes (or, for wish branches in
//! low-confidence mode, deliberately does not flush).
//!
//! Each module is its own codegen unit, so the calls that cross modules on
//! the per-cycle and per-µop paths carry `#[inline]`: without it the split
//! engine measured ~5% slower than the one-module engine it replaced (CPU
//! time of a quick `all` run on a 2-vCPU x86-64 VM).
//!
//! # Layout
//!
//! * fetched µops live in a slot arena ([`UopSlot`]) written once at
//!   fetch; the front-end queue and ROB hold `u32` slot indices, so no
//!   stage moves a µop's full state around;
//! * ROB entries are slim records ([`RobSlim`]) with *implicit* contiguous
//!   ids — the id of entry `i` is `front_id + i`, maintained at
//!   retire/flush;
//! * static per-PC facts are read from the lane's
//!   [`crate::decode::DecodedProgram`], and per-PC/per-predicate dynamic
//!   state (the predicate-elimination buffer, cmp2 pairings, wish-loop last
//!   predictions, the predicate-value PHT, hot-site counters) lives in flat
//!   direct-indexed tables;
//! * scheduling is event-driven: a ready bitmap (oldest first) and a
//!   completion-event calendar ([`calendar::Calendar`]), per-producer
//!   waiter lists, the in-flight unresolved branches and a store queue —
//!   plus an idle fast-forward ([`Lane::inert_until`]) over cycles in which
//!   no stage can act.
//!
//! # Reference
//!
//! This is the crate's only out-of-order core. Its answers are pinned by
//! three golden lanes in `tests/golden_figures.rs` — 24 flat-model jobs,
//! 24 memory-hierarchy jobs, and 71 jobs fingerprinted by the scalar core
//! this engine replaced — and checked µop by µop against the ISA by the
//! lockstep oracle ([`wishbranch_isa::LockstepOracle`]).

mod accounting;
mod calendar;
mod fetch;
mod issue;
mod rename;
mod resolve;
mod retire;

use self::calendar::Calendar;
use self::fetch::{BrMeta, DhpState, Mode, StallReason};
use self::rename::{Role, WaiterList};
use crate::config::MachineConfig;
use crate::core::{SimError, SimResult};
use crate::decode::DecodedProgram;
use crate::emu::{SpecEmulator, StepInfo};
use crate::stats::{HotSiteCounts, SimStats};
use crate::trace::{TraceEvent, TraceKind};
use std::collections::VecDeque;
use wishbranch_bpred::{
    Btb, HybridPredictor, IndirectConfig, IndirectTargetCache, JrsConfidence, LoopPredictor,
    ReturnAddressStack,
};
use wishbranch_isa::{PredReg, Program, NUM_GPRS, NUM_PREDS};
use wishbranch_mem::MemoryHierarchy;

/// In-flight µop state, written once at fetch into the lane's slot arena.
/// The front-end queue and ROB reference slots by index; the instruction
/// itself is *not* stored — static facts come from the
/// [`DecodedProgram`].
struct UopSlot {
    seq: u64,
    pc: u32,
    fetch_cycle: u64,
    info: StepInfo,
    /// Branch metadata arena reference ([`NO_BR`] = not a branch and not a
    /// predicted predicate write). [`BrMeta`] embeds a full RAS checkpoint
    /// (~300 bytes), so it lives out-of-line: the per-µop slot copy stays
    /// small and the metadata is written only for µops that carry it.
    br: u32,
    /// Guard value supplied by the predicate-dependency-elimination buffer
    /// (§3.5.3), if any.
    guard_pred_elim: Option<bool>,
    /// Hardware-injected guard from dynamic hammock predication.
    hw_guard: Option<(PredReg, bool)>,
    /// Predicate prediction: predicted first-destination value.
    pred_check: Option<bool>,
}

/// `UopSlot::br` value for µops without branch metadata.
const NO_BR: u32 = u32::MAX;

/// `RobSlim::flags` bits.
const F_ISSUED: u8 = 1;
const F_DONE: u8 = 2;
const F_RESOLVED: u8 = 4;
const F_MISPRED: u8 = 8;
/// A completion event for this entry is scheduled (lazy wakeup: events
/// exist only for producers that actually have registered waiters).
const F_EVENT: u8 = 16;

/// `RobSlim::meta` layout: execution-latency class in the low bits plus
/// the two static facts the scheduler checks every cycle, copied out of
/// the decoded [`crate::decode::PcInfo`] at dispatch so the
/// resolve/retire/issue hot paths never touch the decoded-program tables
/// for non-memory µops.
const META_CLASS: u8 = 7;
const META_BRANCH: u8 = 8;
const META_PREDCHK: u8 = 16;

/// `RobSlim::loop_class` encoding (0 = none).
const LC_EARLY: u8 = 1;
const LC_LATE: u8 = 2;
const LC_NOEXIT: u8 = 3;

/// A slim ROB entry: a slot reference plus scheduling state. Entry ids are
/// implicit — the entry at index `i` has id `front_id + i`.
struct RobSlim {
    slot: u32,
    pc: u32,
    unready: u32,
    /// `META_*` bits: exec class + is-branch + has-pred-check.
    meta: u8,
    role: Role,
    flags: u8,
    /// Filled at resolution for mispredicted low-confidence wish loops.
    loop_class: u8,
    ready_cycle: u64,
    waiters: WaiterList,
}

/// One simulation's complete state: its decoded program, configuration,
/// input memory image, predictors, speculative emulator and counters.
/// Fields are grouped by the pipeline stage they belong to.
pub(crate) struct Lane {
    decoded: DecodedProgram,
    cfg: MachineConfig,
    cycle: u64,
    emu: SpecEmulator,
    mem: MemoryHierarchy,
    stats: SimStats,
    hot_sites: Vec<HotSiteCounts>,
    halted: bool,
    /// The µop slot arena and its free list.
    slots: Vec<UopSlot>,
    free: Vec<u32>,
    /// Branch-metadata arena (referenced by `UopSlot::br`) and free list.
    br_arena: Vec<BrMeta>,
    br_free: Vec<u32>,
    // Fetch.
    fetch_queue_cap: usize,
    fe_queue: VecDeque<u32>,
    fetch_pc: u32,
    fetch_stall_until: u64,
    fetch_stall_reason: StallReason,
    fetch_blocked: bool,
    fetch_line: Option<u64>,
    next_seq: u64,
    bp: HybridPredictor,
    btb: Btb,
    ras: ReturnAddressStack,
    itc: IndirectTargetCache,
    jrs: JrsConfidence,
    loop_pred: Option<LoopPredictor>,
    conf_history: u64,
    mode: Mode,
    pred_elim: [Option<bool>; NUM_PREDS],
    pred_elim_live: u32,
    cmp2_partner: [Option<u8>; NUM_PREDS],
    loop_last_pred: Vec<Option<(bool, u64)>>,
    dhp: DhpState,
    pred_value_pht: Vec<u8>,
    // Rename.
    /// Id of the ROB entry at index 0; when the ROB is empty, the id the
    /// next pushed entry receives. The next id is always
    /// `front_id + rob.len()`.
    front_id: u64,
    rob: VecDeque<RobSlim>,
    gpr_prod: [Option<u64>; NUM_GPRS],
    pred_prod: [Option<u64>; NUM_PREDS],
    dep_scratch: Vec<u64>,
    waiter_pool: Vec<Vec<u64>>,
    // Issue.
    cal: Calendar,
    /// Event ids drained from the calendar this cycle.
    due: Vec<u64>,
    store_queue: VecDeque<u64>,
    blocked_loads: Vec<u64>,
    // Resolve.
    /// Earliest cycle at which an unresolved branch/pred-check could become
    /// eligible; the resolve scan is skipped entirely before then.
    next_resolve: u64,
    unresolved: Vec<u64>,
    last_flush_cycle: Option<u64>,
    // Per-cycle attribution inputs, reset at the start of each cycle.
    cyc_retired_useful: bool,
    cyc_retired_guard_false: bool,
    cyc_mshr_stalled: bool,
    cyc_writebuf_stalled: bool,
    /// Retired-instruction stream for the lockstep oracle (off by
    /// default).
    pub(crate) retire_log: Option<Vec<wishbranch_isa::RetireRecord>>,
    /// Pipeview events (off by default; see [`crate::trace`]).
    pub(crate) trace: Option<Vec<TraceEvent>>,
}

/// A lane's reusable heap buffers: the decoded program, the per-PC
/// tables, the µop and branch-metadata arenas, the ROB and front-end
/// queue, the calendar and the scheduling scratch lists. [`Lane::new`]
/// takes them (emptied and resized for the program) and
/// [`Lane::into_arenas`] hands them back, so a worker that runs many jobs
/// back to back allocates them once (see [`crate::SimScratch`]). Purely an
/// allocation cache: a lane built on reused arenas is bit-identical to one
/// built on fresh ones.
#[derive(Default)]
pub(crate) struct LaneArenas {
    decoded: DecodedProgram,
    loop_last_pred: Vec<Option<(bool, u64)>>,
    pred_value_pht: Vec<u8>,
    hot_sites: Vec<HotSiteCounts>,
    slots: Vec<UopSlot>,
    free: Vec<u32>,
    br_arena: Vec<BrMeta>,
    br_free: Vec<u32>,
    fe_queue: VecDeque<u32>,
    rob: VecDeque<RobSlim>,
    cal: Calendar,
    due: Vec<u64>,
    unresolved: Vec<u64>,
    store_queue: VecDeque<u64>,
    blocked_loads: Vec<u64>,
    dep_scratch: Vec<u64>,
    waiter_pool: Vec<Vec<u64>>,
}

impl Lane {
    /// A lane at cycle 0 with cold predictors and caches, running `program`
    /// on `cfg`, over `arenas`' allocations.
    pub(crate) fn new(program: &Program, cfg: MachineConfig, arenas: LaneArenas) -> Lane {
        let LaneArenas {
            mut decoded,
            mut loop_last_pred,
            mut pred_value_pht,
            mut hot_sites,
            mut slots,
            mut free,
            mut br_arena,
            mut br_free,
            mut fe_queue,
            mut rob,
            mut cal,
            mut due,
            mut unresolved,
            mut store_queue,
            mut blocked_loads,
            mut dep_scratch,
            waiter_pool,
        } = arenas;
        decoded.rebuild(program, &cfg);
        let n = decoded.pcs.len();
        loop_last_pred.clear();
        loop_last_pred.resize(n, None);
        pred_value_pht.clear();
        pred_value_pht.resize(n, 2);
        hot_sites.clear();
        hot_sites.resize(n, HotSiteCounts::default());
        slots.clear();
        free.clear();
        br_arena.clear();
        br_free.clear();
        fe_queue.clear();
        rob.clear();
        cal.reset(cfg.rob_size);
        due.clear();
        unresolved.clear();
        store_queue.clear();
        blocked_loads.clear();
        dep_scratch.clear();
        Lane {
            fetch_pc: decoded.entry,
            fetch_queue_cap: cfg.fetch_queue_cap(),
            cycle: 0,
            emu: SpecEmulator::new(),
            mem: MemoryHierarchy::new(cfg.mem),
            bp: HybridPredictor::new(cfg.bpred),
            btb: Btb::new(cfg.btb),
            ras: ReturnAddressStack::new(),
            itc: IndirectTargetCache::new(IndirectConfig::default()),
            jrs: JrsConfidence::new(cfg.jrs),
            loop_pred: cfg.wish_loop_predictor.map(LoopPredictor::new),
            fetch_stall_until: 0,
            fetch_stall_reason: StallReason::Redirect,
            fetch_blocked: false,
            fetch_line: None,
            last_flush_cycle: None,
            cyc_retired_useful: false,
            cyc_retired_guard_false: false,
            cyc_mshr_stalled: false,
            cyc_writebuf_stalled: false,
            mode: Mode::Normal,
            pred_elim: [None; NUM_PREDS],
            pred_elim_live: 0,
            cmp2_partner: [None; NUM_PREDS],
            loop_last_pred,
            dhp: DhpState::Off,
            pred_value_pht,
            hot_sites,
            conf_history: 0,
            next_seq: 1,
            front_id: 1,
            slots,
            free,
            br_arena,
            br_free,
            fe_queue,
            rob,
            cal,
            due,
            next_resolve: 0,
            unresolved,
            store_queue,
            blocked_loads,
            dep_scratch,
            waiter_pool,
            gpr_prod: [None; NUM_GPRS],
            pred_prod: [None; NUM_PREDS],
            stats: SimStats::default(),
            halted: false,
            retire_log: None,
            trace: None,
            decoded,
            cfg,
        }
    }

    /// Consumes the lane, returning its buffers for the next [`Lane::new`].
    pub(crate) fn into_arenas(self) -> LaneArenas {
        LaneArenas {
            decoded: self.decoded,
            loop_last_pred: self.loop_last_pred,
            pred_value_pht: self.pred_value_pht,
            hot_sites: self.hot_sites,
            slots: self.slots,
            free: self.free,
            br_arena: self.br_arena,
            br_free: self.br_free,
            fe_queue: self.fe_queue,
            rob: self.rob,
            cal: self.cal,
            due: self.due,
            unresolved: self.unresolved,
            store_queue: self.store_queue,
            blocked_loads: self.blocked_loads,
            dep_scratch: self.dep_scratch,
            waiter_pool: self.waiter_pool,
        }
    }

    /// Preloads a data-memory word (program input) before cycle 0.
    pub(crate) fn preload_mem(&mut self, addr: u64, value: i64) {
        self.emu.mem.insert(addr, value);
    }

    /// Runs the per-cycle loop until `halt` retires or the configured
    /// cycle budget runs out.
    pub(crate) fn advance(&mut self) -> Result<(), SimError> {
        // The stages read the decoded tables while they mutate the rest of
        // the lane, so the tables sit outside `self` while the loop runs.
        let d = std::mem::take(&mut self.decoded);
        let mut outcome = Ok(());
        while !self.halted {
            if self.cycle >= self.cfg.max_cycles {
                outcome = Err(SimError::CycleLimitExceeded {
                    limit: self.cfg.max_cycles,
                });
                break;
            }
            // Event-driven fast-forward: when every stage is provably
            // unable to act until some future cycle, jump straight there,
            // bulk-applying the per-cycle idle accounting the skipped
            // cycles would have produced.
            if let Some(wake) = self.inert_until(&d) {
                self.skip_inert_cycles(wake - self.cycle);
                continue;
            }
            // Resolve completions first so a branch that finished executing
            // this cycle can retire this cycle (otherwise every branch that
            // reaches the ROB head right after completing would lose a
            // cycle, throttling retirement in window-full phases).
            self.resolve_branches(&d);
            let retired_before = self.stats.retired_uops;
            self.cyc_retired_useful = false;
            self.cyc_retired_guard_false = false;
            self.cyc_mshr_stalled = false;
            self.cyc_writebuf_stalled = false;
            self.retire(&d);
            let retired_any = self.stats.retired_uops != retired_before;
            if !retired_any {
                self.stats.retire_idle_cycles += 1;
            }
            if self.halted {
                // The halt-retiring iteration does not increment `cycle`.
                break;
            }
            self.issue(&d);
            let rob_before = self.rob.len();
            self.dispatch(&d);
            if self.rob.len() == rob_before {
                self.stats.dispatch_idle_cycles += 1;
            }
            let fetched_before = self.stats.fetched_uops;
            self.fetch(&d);
            if self.stats.fetched_uops == fetched_before {
                self.account_fetch_idle(1);
            }
            // Attribute this cycle to exactly one cause, immediately before
            // the cycle counter advances — this placement makes the
            // `cycle_accounting.total() == cycles` invariant structural.
            self.account_cycle(retired_any, 1);
            self.cycle += 1;
        }
        self.decoded = d;
        outcome
    }

    /// Final statistics fold and architectural-state capture after halt.
    pub(crate) fn finish(&mut self) -> SimResult {
        self.stats.cycles = self.cycle;
        let (ic, l1, l2) = self.mem.stats();
        self.stats.icache = ic;
        self.stats.l1d = l1;
        self.stats.l2 = l2;
        self.stats.wrong_path_fills = self.mem.wrong_path_fills();
        for (pc, c) in self.hot_sites.iter().enumerate() {
            if *c != HotSiteCounts::default() {
                self.stats.hot_sites.insert(pc as u32, *c);
            }
        }
        SimResult {
            stats: std::mem::take(&mut self.stats),
            final_regs: self.emu.regs,
            final_preds: self.emu.preds,
            final_mem: self.emu.mem.sorted_entries().into_iter().collect(),
        }
    }

    /// Appends one pipeview event for the µop in `slot` at the current
    /// cycle. Every call site guards with `self.trace.is_some()`, so an
    /// untraced lane pays one `Option` check per site and never formats a
    /// disassembly.
    #[cold]
    fn trace_event(&mut self, d: &DecodedProgram, kind: TraceKind, slot: u32, extra: u64) {
        debug_assert!(
            self.trace.is_some(),
            "trace_event called without an active trace"
        );
        let UopSlot { seq, pc, .. } = self.slots[slot as usize];
        let cycle = self.cycle;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEvent {
                cycle,
                kind,
                seq,
                pc,
                disasm: d.pcs[pc as usize].insn.to_string(),
                extra,
            });
        }
    }

    /// Returns a µop slot (and its branch metadata, if any) to the free
    /// lists. Compute halves never own their slot — the Select twin frees
    /// it — so callers guard on role.
    #[inline]
    fn free_slot(&mut self, slot: u32) {
        let br = self.slots[slot as usize].br;
        if br != NO_BR {
            self.br_free.push(br);
        }
        self.free.push(slot);
    }
}

/// Stores `v` in a free slot of `arena` (or a new one) and returns its
/// index.
fn arena_alloc<T>(arena: &mut Vec<T>, free: &mut Vec<u32>, v: T) -> u32 {
    match free.pop() {
        Some(i) => {
            arena[i as usize] = v;
            i
        }
        None => {
            arena.push(v);
            (arena.len() - 1) as u32
        }
    }
}
