//! Profile → compile → simulate → verify, the spine of every experiment.
//!
//! Every stage returns a typed [`Result`]: a profiling fault, a cycle- or
//! step-budget overrun, or an architectural divergence is a [`JobError`]
//! value, never a panic, so the sweep engine can isolate one bad job to
//! one failed cell.

use crate::error::JobError;
use wishbranch_compiler::{compile, BinaryVariant, CompileOptions, CompiledBinary};
use wishbranch_ir::{Interpreter, Profile};
use wishbranch_isa::exec::{merge_by_address, Machine, MemImage};
use wishbranch_isa::{Program, RetireRecord};
use wishbranch_uarch::{MachineConfig, SimError, SimResult, SimScratch, Simulator};
use wishbranch_workloads::{Benchmark, InputSet};

/// Step budget for the IR profiling interpreter and the functional
/// reference machine. Generous (every suite benchmark finishes in a tiny
/// fraction of this at any scale we run) but finite, so a non-terminating
/// workload surfaces as a typed fault instead of a hang.
pub const DEFAULT_STEP_BUDGET: u64 = 1 << 40;

/// Everything an experiment needs to know.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Workload scale (outer iterations) used when the caller builds the
    /// suite; kept here for reporting.
    pub scale: i32,
    /// The simulated machine (Table 2 defaults).
    pub machine: MachineConfig,
    /// Compiler heuristics (§4.2 defaults).
    pub compile: CompileOptions,
    /// Input set the compiler profiles on. The paper's compiler sees only
    /// a training profile; running other inputs exposes the compile-time /
    /// run-time mismatch that motivates wish branches (Fig. 1).
    pub train_input: InputSet,
}

impl ExperimentConfig {
    /// Paper-fidelity configuration at the given workload scale.
    #[must_use]
    pub fn paper(scale: i32) -> ExperimentConfig {
        ExperimentConfig {
            scale,
            machine: MachineConfig::default(),
            compile: CompileOptions::default(),
            train_input: InputSet::B,
        }
    }

    /// A scaled-down machine (shallower pipeline, smaller window) for fast
    /// debug-build tests and doctests. Keeps all mechanisms active.
    #[must_use]
    pub fn quick(scale: i32) -> ExperimentConfig {
        let machine = MachineConfig {
            pipeline_depth: 10,
            rob_size: 64,
            ..MachineConfig::default()
        };
        ExperimentConfig {
            scale,
            machine,
            compile: CompileOptions::default(),
            train_input: InputSet::B,
        }
    }

    /// Replaces the simulated machine
    /// (`ExperimentConfig::paper(scale).with_machine(...)`).
    #[must_use]
    pub fn with_machine(mut self, machine: MachineConfig) -> ExperimentConfig {
        self.machine = machine;
        self
    }

    /// Replaces the compiler heuristics.
    #[must_use]
    pub fn with_compile(mut self, compile: CompileOptions) -> ExperimentConfig {
        self.compile = compile;
        self
    }

    /// Replaces the training input the compiler profiles on.
    #[must_use]
    pub fn with_train(mut self, train_input: InputSet) -> ExperimentConfig {
        self.train_input = train_input;
        self
    }
}

/// One simulated binary run, with everything needed for the figures.
#[derive(Clone, PartialEq, Debug)]
pub struct RunOutcome {
    /// The simulation result (stats + final architectural state).
    pub sim: SimResult,
    /// The compiler's report for this binary.
    pub report: wishbranch_compiler::CompileReport,
    /// Static program statistics (sizes, wish-branch counts).
    pub static_stats: wishbranch_isa::StaticStats,
}

/// Profiles `bench` on the given input with the IR interpreter.
///
/// # Errors
///
/// [`JobError::ProfileFault`] if the interpreter faults or exhausts
/// [`DEFAULT_STEP_BUDGET`].
pub fn profile_on(bench: &Benchmark, input: InputSet) -> Result<Profile, JobError> {
    let mut interp = Interpreter::new();
    for (a, v) in (bench.input_fn)(input) {
        interp.mem.insert(a, v);
    }
    interp
        .run(&bench.module, DEFAULT_STEP_BUDGET)
        .map(|r| r.profile)
        .map_err(|e| JobError::ProfileFault(format!("{}: {e}", bench.name)))
}

/// Compiles `bench` into the requested Table 3 variant, profiling on the
/// experiment's training input.
///
/// # Errors
///
/// Propagates the [`JobError::ProfileFault`] of a failed training run.
pub fn compile_variant(
    bench: &Benchmark,
    variant: BinaryVariant,
    ec: &ExperimentConfig,
) -> Result<CompiledBinary, JobError> {
    let profile = profile_on(bench, ec.train_input)?;
    Ok(compile(&bench.module, &profile, variant, &ec.compile))
}

/// Compiles the input-dependence-aware extension binary
/// ([`BinaryVariant::WishAdaptive`]): the compiler profiles on *several*
/// training inputs and uses the misprediction spread across them as the
/// §3.6 "input data set dependence" signal.
///
/// # Errors
///
/// Propagates the [`JobError::ProfileFault`] of any failed training run.
pub fn compile_adaptive_variant(
    bench: &Benchmark,
    train_inputs: &[InputSet],
    ec: &ExperimentConfig,
) -> Result<CompiledBinary, JobError> {
    let profiles: Vec<_> = train_inputs
        .iter()
        .map(|&i| profile_on(bench, i))
        .collect::<Result<_, _>>()?;
    Ok(wishbranch_compiler::compile_adaptive(&bench.module, &profiles, &ec.compile))
}

/// The input image of `bench` on `input`: its preload list normalised
/// once into address order, last write winning. One job builds it once
/// and shares it between the simulator's preload, the lockstep oracle and
/// the architectural check.
pub fn input_image(bench: &Benchmark, input: InputSet) -> MemImage {
    MemImage::from_preload((bench.input_fn)(input))
}

/// Simulates `program` on `machine` with the benchmark's input set, and
/// verifies the retired state against the functional reference machine.
///
/// # Errors
///
/// [`JobError::CycleBudgetExceeded`] if the simulation exhausts the
/// machine's cycle budget, [`JobError::VerifyDivergence`] if it retires a
/// different architectural state than the functional reference (which
/// would be a simulator bug).
pub fn simulate(
    program: &Program,
    bench: &Benchmark,
    input: InputSet,
    machine: &MachineConfig,
) -> Result<SimResult, JobError> {
    let image = input_image(bench, input);
    let (result, _) =
        simulate_on_image(program, &image, machine, &mut SimScratch::default(), false)?;
    verify_against_image(program, bench, input, &image, &result)?;
    Ok(result)
}

/// The cycle simulation alone, without the architectural cross-check.
/// Prefer [`simulate`] unless you verify yourself.
///
/// # Errors
///
/// [`JobError::CycleBudgetExceeded`] if the simulation exhausts the
/// machine's cycle budget.
pub fn simulate_unverified(
    program: &Program,
    bench: &Benchmark,
    input: InputSet,
    machine: &MachineConfig,
) -> Result<SimResult, JobError> {
    let image = input_image(bench, input);
    simulate_on_image(program, &image, machine, &mut SimScratch::default(), false)
        .map(|(result, _)| result)
}

/// The cycle simulation of `program` preloaded with `image`, on
/// caller-owned scratch buffers: the simulator is built with
/// [`Simulator::with_scratch`] and recycled back into `scratch`
/// afterwards, so a worker running many jobs back to back reuses its
/// large allocations (the decoded µop tables and the lane's arenas)
/// instead of reallocating them per job. With `retire_log` set it also
/// returns the retired-instruction stream for [`lockstep_check`].
///
/// # Errors
///
/// [`JobError::CycleBudgetExceeded`] if the simulation exhausts the
/// machine's cycle budget.
pub fn simulate_on_image(
    program: &Program,
    image: &MemImage,
    machine: &MachineConfig,
    scratch: &mut SimScratch,
    retire_log: bool,
) -> Result<(SimResult, Vec<RetireRecord>), JobError> {
    let mut sim = Simulator::with_scratch(program, machine.clone(), scratch);
    for &(a, v) in image.words() {
        sim.preload_mem(a, v);
    }
    if retire_log {
        sim.enable_retire_log();
    }
    let run = sim.run().map_err(|e| match e {
        SimError::CycleLimitExceeded { limit } => JobError::CycleBudgetExceeded { limit },
    });
    let records = if retire_log { sim.take_retire_log() } else { Vec::new() };
    sim.recycle(scratch);
    Ok((run?, records))
}

/// Simulates `program` with the retired-instruction stream enabled and
/// replays every retirement through the lockstep reference oracle
/// ([`wishbranch_isa::LockstepOracle`]): the committed PC chain, guard
/// values, every register/predicate/memory write, and the legality of
/// forced (non-architectural) wish/DHP directions are checked µop by µop,
/// and the first divergent retirement is reported with full context. The
/// run is then anchored twice: the oracle's final state must match the
/// simulator's retired state, and the independent functional reference
/// machine must agree on retired memory.
///
/// The NO-FETCH limit study (`no_false_predicate_fetch`) omits guard-false
/// µops from the pipeline entirely, so its retired stream is not a
/// contiguous architectural walk; lockstep replay is skipped for that
/// oracle machine (the final-state verification still runs).
///
/// # Errors
///
/// [`JobError::CycleBudgetExceeded`] on budget exhaustion,
/// [`JobError::VerifyDivergence`] naming the first divergent retirement
/// (or final-state mismatch).
pub fn simulate_lockstep(
    program: &Program,
    bench: &Benchmark,
    input: InputSet,
    machine: &MachineConfig,
) -> Result<SimResult, JobError> {
    let image = input_image(bench, input);
    let lockstep = !machine.oracles.no_false_predicate_fetch;
    let (result, records) =
        simulate_on_image(program, &image, machine, &mut SimScratch::default(), lockstep)?;
    if lockstep {
        lockstep_check(program, bench, input, &image, &result, &records)?;
    }
    verify_against_image(program, bench, input, &image, &result)?;
    Ok(result)
}

/// Replays a retired-instruction stream through the lockstep reference
/// oracle, preloaded with the job's input `image`, and anchors the
/// oracle's final state against the simulator's retired state. This is
/// the oracle half of [`simulate_lockstep`], factored out so the engine
/// can run it on a retire log from either a lone [`Simulator`] or a
/// [`wishbranch_uarch::BatchSimulator`] lane. Callers are responsible for
/// skipping it for the NO-FETCH limit machine
/// (`no_false_predicate_fetch`), whose retired stream is not a contiguous
/// architectural walk.
///
/// # Errors
///
/// [`JobError::VerifyDivergence`] naming the first divergent retirement
/// or final-state mismatch.
pub fn lockstep_check(
    program: &Program,
    bench: &Benchmark,
    input: InputSet,
    image: &MemImage,
    result: &SimResult,
    records: &[RetireRecord],
) -> Result<(), JobError> {
    let mut oracle = wishbranch_isa::LockstepOracle::new(program);
    for &(a, v) in image.words() {
        oracle.preload_mem(a, v);
    }
    let label = format!("{} {input}", bench.name);
    for record in records {
        oracle.step(record).map_err(|d| JobError::VerifyDivergence {
            detail: format!("{label}: lockstep {d}"),
        })?;
    }
    oracle
        .finish(&result.final_regs, &result.final_preds, &result.final_mem)
        .map_err(|d| JobError::VerifyDivergence {
            detail: format!("{label}: lockstep {d}"),
        })
}

/// Checks a simulation's retired memory state against the functional
/// reference machine (always-on architectural verification). Builds the
/// job's input image itself; the engine, which already holds the image,
/// calls [`verify_against_image`].
///
/// This check is not free next to the cycle simulation. In perfbench's
/// traced ledger (`isa.verify_ms`, which times this function; seed 7,
/// 2-vCPU Xeon VM, median of 3) it took 66 ms for the 45 `grid-scalar`
/// jobs and 199 ms for the 126 `sweep-batch8` lanes, beside 160–290 ms of
/// simulation, while it rebuilt the input into a map and compared
/// whole-image map copies. Checking in place cut that to 22 ms and 57 ms;
/// most of what remains is regenerating the input.
///
/// # Errors
///
/// [`JobError::SimFault`] if the reference run itself fails,
/// [`JobError::VerifyDivergence`] if the simulator retired a different
/// architectural state — naming the first differing address.
pub fn verify_retired_state(
    program: &Program,
    bench: &Benchmark,
    input: InputSet,
    result: &SimResult,
) -> Result<(), JobError> {
    verify_against_image(program, bench, input, &input_image(bench, input), result)
}

/// [`verify_retired_state`] against an input image the caller already
/// built. The reference runs on the shared image and keeps only the words
/// it writes; one ordered walk then compares the simulator's final memory
/// with the image overlaid by those writes, word by word. Every job runs
/// its own reference and compares every word.
///
/// # Errors
///
/// As [`verify_retired_state`].
pub fn verify_against_image(
    program: &Program,
    bench: &Benchmark,
    input: InputSet,
    image: &MemImage,
    result: &SimResult,
) -> Result<(), JobError> {
    let expect = Machine::new()
        .run_on(program, image, DEFAULT_STEP_BUDGET)
        .map_err(|e| JobError::SimFault(format!("{} {input}: reference run failed: {e}", bench.name)))?;
    let retired = result.final_mem.iter().map(|(&a, &v)| (a, v));
    // The walk visits addresses in ascending order, so this is the lowest
    // differing address, which keeps the failure table actionable.
    let first = merge_by_address(retired, image.overlay(&expect.mem))
        .find(|&(_, got, want)| got != want);
    match first {
        None => Ok(()),
        Some((addr, got, want)) => Err(JobError::VerifyDivergence {
            detail: format!(
                "{} {input}: addr {addr:#x}: simulator {got:?}, reference {want:?}",
                bench.name
            ),
        }),
    }
}

/// Profile (on the training input), compile, simulate (on `input`), verify.
///
/// # Errors
///
/// Any [`JobError`] from the profile, simulate or verify stages.
pub fn run_binary(
    bench: &Benchmark,
    variant: BinaryVariant,
    input: InputSet,
    ec: &ExperimentConfig,
) -> Result<RunOutcome, JobError> {
    let bin = compile_variant(bench, variant, ec)?;
    let sim = simulate(&bin.program, bench, input, &ec.machine)?;
    Ok(RunOutcome {
        sim,
        report: bin.report,
        static_stats: bin.program.static_stats(),
    })
}

/// Compiles `bench` into `variant` and simulates it on `input` with the
/// pipeview tracer enabled, returning the verified result and the typed
/// event stream ([`wishbranch_uarch::TraceEvent`]). Tracing does not
/// change timing, so the result matches an untraced run bit for bit.
///
/// [`BinaryVariant::WishAdaptive`] trains on inputs A and C (the same
/// convention as the adaptive figure); every other variant trains on the
/// experiment's single training input.
///
/// # Errors
///
/// Fails under the same conditions as [`simulate`].
pub fn trace_binary(
    bench: &Benchmark,
    variant: BinaryVariant,
    input: InputSet,
    ec: &ExperimentConfig,
) -> Result<(SimResult, Vec<wishbranch_uarch::TraceEvent>), JobError> {
    let bin = if variant == BinaryVariant::WishAdaptive {
        compile_adaptive_variant(bench, &[InputSet::A, InputSet::C], ec)?
    } else {
        compile_variant(bench, variant, ec)?
    };
    let image = input_image(bench, input);
    let mut sim = Simulator::new(&bin.program, ec.machine.clone());
    for &(a, v) in image.words() {
        sim.preload_mem(a, v);
    }
    sim.enable_trace();
    let result = sim.run().map_err(|e| match e {
        SimError::CycleLimitExceeded { limit } => JobError::CycleBudgetExceeded { limit },
    })?;
    let trace = sim.take_trace();
    verify_against_image(&bin.program, bench, input, &image, &result)?;
    Ok((result, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbranch_workloads::suite;

    #[test]
    fn every_benchmark_compiles_to_every_variant_and_verifies() {
        let ec = ExperimentConfig::quick(30);
        for bench in suite(30) {
            for variant in BinaryVariant::ALL {
                let out = run_binary(&bench, variant, InputSet::B, &ec)
                    .expect("quick-scale suite run must succeed");
                assert!(
                    out.sim.stats.retired_uops > 100,
                    "{} {variant}: did too little work",
                    bench.name
                );
            }
        }
    }

    #[test]
    fn lockstep_oracle_validates_every_variant() {
        let ec = ExperimentConfig::quick(30);
        for bench in suite(30) {
            for variant in BinaryVariant::ALL {
                let bin = compile_variant(&bench, variant, &ec).expect("compile");
                simulate_lockstep(&bin.program, &bench, InputSet::B, &ec.machine)
                    .unwrap_or_else(|e| {
                        panic!("{} {variant}: lockstep diverged: {e}", bench.name)
                    });
            }
        }
    }

    #[test]
    fn wish_binaries_contain_wish_branches() {
        let ec = ExperimentConfig::quick(30);
        for bench in suite(30) {
            let jj = compile_variant(&bench, BinaryVariant::WishJumpJoin, &ec).expect("compile");
            let jjl =
                compile_variant(&bench, BinaryVariant::WishJumpJoinLoop, &ec).expect("compile");
            let s_jj = jj.program.static_stats();
            let s_jjl = jjl.program.static_stats();
            assert!(
                s_jjl.wish_branches >= s_jj.wish_branches,
                "{}: adding loops can only add wish branches",
                bench.name
            );
            assert_eq!(s_jj.wish_loops, 0, "{}: jj binary has no wish loops", bench.name);
            let normal =
                compile_variant(&bench, BinaryVariant::NormalBranch, &ec).expect("compile");
            assert_eq!(normal.program.static_stats().wish_branches, 0);
        }
    }

    #[test]
    fn suite_has_wish_loops_somewhere() {
        let ec = ExperimentConfig::quick(30);
        let total: usize = suite(30)
            .iter()
            .map(|b| {
                compile_variant(b, BinaryVariant::WishJumpJoinLoop, &ec)
                    .expect("compile")
                    .program
                    .static_stats()
                    .wish_loops
            })
            .sum();
        assert!(total >= 4, "suite must exercise wish loops, got {total}");
    }

    #[test]
    fn tiny_cycle_budget_is_a_typed_outcome_not_a_panic() {
        let ec = ExperimentConfig::quick(30);
        let bench = &suite(30)[0];
        let bin = compile_variant(bench, BinaryVariant::NormalBranch, &ec).expect("compile");
        let starved = ec.machine.clone().with_max_cycles(8);
        match simulate_unverified(&bin.program, bench, InputSet::B, &starved) {
            Err(JobError::CycleBudgetExceeded { limit: 8 }) => {}
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_retired_memory_is_a_verify_divergence() {
        let ec = ExperimentConfig::quick(30);
        let bench = &suite(30)[0];
        let bin = compile_variant(bench, BinaryVariant::NormalBranch, &ec).expect("compile");
        let mut sim =
            simulate_unverified(&bin.program, bench, InputSet::B, &ec.machine).expect("sim");
        sim.final_mem.insert(u64::MAX, i64::MIN);
        match verify_retired_state(&bin.program, bench, InputSet::B, &sim) {
            Err(JobError::VerifyDivergence { detail }) => {
                assert!(detail.contains("addr"), "detail names the address: {detail}");
            }
            other => panic!("expected VerifyDivergence, got {other:?}"),
        }
    }
}
