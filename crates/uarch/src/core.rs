//! The public simulation handles over the lane engine in [`crate::lane`],
//! the crate's only core: [`Simulator`] runs one job on one lane,
//! optionally on buffers recycled from the previous job ([`SimScratch`]),
//! and [`BatchSimulator`] runs a list of jobs one after another. Both
//! produce the same [`SimResult`] for the same program, configuration and
//! input.

use crate::config::MachineConfig;
use crate::lane::{Lane, LaneArenas};
use crate::stats::SimStats;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;
use wishbranch_isa::{Program, RetireRecord, NUM_GPRS, NUM_PREDS};

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

/// Simulates one program on one machine configuration. Create with
/// [`Simulator::new`] (or [`Simulator::with_scratch`] to reuse a previous
/// job's buffers), preload the input with [`Simulator::preload_mem`], then
/// [`Simulator::run`].
pub struct Simulator<'p> {
    lane: Lane,
    /// The lane decodes `program` up front; the borrow ties the simulator
    /// to it like a [`BatchLaneSpec`] does.
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
pub struct SimScratch(LaneArenas);

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
        Simulator {
            lane: Lane::new(program, cfg, std::mem::take(&mut scratch.0)),
            program: PhantomData,
        }
    }

    /// Returns this simulator's buffers to `scratch` for the next
    /// [`Simulator::with_scratch`] on the same worker.
    pub fn recycle(self, scratch: &mut SimScratch) {
        scratch.0 = self.lane.into_arenas();
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
    pub fn take_retire_log(&mut self) -> Vec<RetireRecord> {
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

/// One job of a [`BatchSimulator`]: a program reference, its machine
/// configuration, the input memory image, and whether the
/// retired-instruction stream should be collected (lockstep-oracle
/// validation).
pub struct BatchLaneSpec<'p> {
    /// The compiled program this lane executes.
    pub program: &'p Program,
    /// The lane's machine configuration.
    pub cfg: MachineConfig,
    /// Data-memory preloads (program input), applied before cycle 0.
    pub preload_mem: Vec<(u64, i64)>,
    /// Collect a [`RetireRecord`] stream for this lane (retrieve with
    /// [`BatchSimulator::take_retire_log`]).
    pub retire_log: bool,
}

/// Runs a list of jobs, one [`Simulator`] each, one after another in spec
/// order. Nothing is shared between lanes, so every lane's [`SimResult`]
/// equals the same job run alone.
///
/// # Example
///
/// ```
/// use wishbranch_isa::{AluOp, Gpr, Insn, Operand, Program};
/// use wishbranch_uarch::{BatchLaneSpec, BatchSimulator, MachineConfig};
///
/// let prog = Program::from_insns(vec![
///     Insn::mov_imm(Gpr::new(1), 2),
///     Insn::alu(AluOp::Add, Gpr::new(1), Gpr::new(1), Operand::imm(3)),
///     Insn::halt(),
/// ]);
/// let specs: Vec<BatchLaneSpec> = (0..4)
///     .map(|_| BatchLaneSpec {
///         program: &prog,
///         cfg: MachineConfig::default(),
///         preload_mem: Vec::new(),
///         retire_log: false,
///     })
///     .collect();
/// let mut batch = BatchSimulator::new(&specs);
/// for r in batch.run() {
///     assert_eq!(r.expect("halts").final_regs[1], 5);
/// }
/// ```
pub struct BatchSimulator<'p> {
    sims: Vec<Simulator<'p>>,
}

impl<'p> BatchSimulator<'p> {
    /// Builds one simulator per spec, with its input preloaded.
    #[must_use]
    pub fn new(specs: &[BatchLaneSpec<'p>]) -> BatchSimulator<'p> {
        let sims = specs
            .iter()
            .map(|spec| {
                let mut sim = Simulator::new(spec.program, spec.cfg.clone());
                for &(addr, value) in &spec.preload_mem {
                    sim.preload_mem(addr, value);
                }
                if spec.retire_log {
                    sim.enable_retire_log();
                }
                sim
            })
            .collect();
        BatchSimulator { sims }
    }

    /// Runs each lane to completion in spec order and returns one result
    /// per lane, in the same order.
    pub fn run(&mut self) -> Vec<Result<SimResult, SimError>> {
        self.sims.iter_mut().map(Simulator::run).collect()
    }

    /// Takes lane `lane`'s retired-instruction stream (empty unless the
    /// spec asked for it), exactly like [`Simulator::take_retire_log`].
    pub fn take_retire_log(&mut self, lane: usize) -> Vec<RetireRecord> {
        self.sims[lane].take_retire_log()
    }
}
