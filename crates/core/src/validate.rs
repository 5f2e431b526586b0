//! Differential validation: suite-wide lockstep runs, the seeded
//! random-program × random-config fuzz harness, and the divergence
//! shrinker.
//!
//! Both entry points run the sweeps' one lockstep check (see
//! [`crate::experiment`]), on the flat memory model or, with `hierarchy`,
//! on the non-blocking hierarchy, which only moves timing.
//! [`validate_suite`] is an `--oracle` sweep of the nine workloads × five
//! Table 3 variants. The fuzzer generates small structured IR programs
//! (straight-line code, input-dependent diamonds, bounded counted loops —
//! including zero-trip loops), pushes each through the *real* profile →
//! compile pipeline into one of the five variants, and checks it on a
//! randomized machine. The first divergence is then minimized by
//! [`shrink_case`]: delta-debugging over whole regions, then individual
//! instructions, then structural simplifications (diamond → straight
//! line, loop trip counts), then configuration fields — yielding a
//! near-minimal program + config repro.

use crate::engine::{SweepJob, SweepRunner};
use crate::error::JobError;
use crate::experiment::{
    lockstep_check, simulate_on_image, verify_against_image, ExperimentConfig,
};
use wishbranch_compiler::{compile, BinaryVariant, CompileOptions};
use wishbranch_ir::{FunctionBuilder, Interpreter, Module};
use wishbranch_isa::exec::MemImage;
use wishbranch_isa::{AluOp, CmpOp, Gpr, Operand, Program, RetireRecord};
use wishbranch_mem::MemConfig;
use wishbranch_uarch::{MachineConfig, PredMechanism, SimScratch};
use wishbranch_workloads::InputSet;

/// Base address of the fuzz program's data area (inputs and stores).
const BASE: u64 = 4096;
/// Register holding [`BASE`] (outside the scratch set).
const BASE_REG: u8 = 12;
/// Loop counter register (outside the scratch set).
const CTR_REG: u8 = 15;
/// Scratch registers the generated ops read and write: `r1..=r8`.
const SCRATCH: u8 = 8;

fn r(i: u8) -> Gpr {
    Gpr::new(i)
}

/// splitmix64: the deterministic PRNG behind case generation (no external
/// randomness anywhere — a seed fully determines a fuzz run).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, n: u64) -> u64 {
    splitmix64(state) % n.max(1)
}

/// One generated instruction (maps 1:1 to an IR body instruction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FuzzOp {
    /// `dst = imm`.
    Movi {
        /// Destination scratch register.
        dst: u8,
        /// Immediate value.
        imm: i64,
    },
    /// `dst = src1 <op> (src2 | imm)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination scratch register.
        dst: u8,
        /// First source.
        src1: u8,
        /// Second source register; `None` uses `imm`.
        src2: Option<u8>,
        /// Immediate second source.
        imm: i32,
    },
    /// `dst = mem[BASE + off]`.
    Load {
        /// Destination scratch register.
        dst: u8,
        /// Word offset into the data area.
        off: i32,
    },
    /// `mem[BASE + off] = src`.
    Store {
        /// Source scratch register.
        src: u8,
        /// Word offset into the data area.
        off: i32,
    },
}

/// One structured region of a generated program; regions run sequentially.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FuzzRegion {
    /// Straight-line ops.
    Straight(
        /// The ops.
        Vec<FuzzOp>,
    ),
    /// `if (lhs <cmp> rhs) { then_ops } else { else_ops }` — the hammock
    /// shape if-conversion and wish jumps/joins act on.
    Diamond {
        /// Comparison.
        cmp: CmpOp,
        /// Left-hand scratch register (input-dependent, so the branch's
        /// hardness varies by input).
        lhs: u8,
        /// Right-hand immediate.
        rhs: i32,
        /// Taken-side ops.
        then_ops: Vec<FuzzOp>,
        /// Fall-through-side ops.
        else_ops: Vec<FuzzOp>,
    },
    /// A counted loop running `trips` iterations (possibly zero with
    /// `top_test`) — the shape wish-loop conversion acts on.
    Loop {
        /// Iteration count (`top_test` loops may run zero times).
        trips: i64,
        /// Test before the body (while-shape) instead of after (do-shape).
        top_test: bool,
        /// Body ops.
        body: Vec<FuzzOp>,
    },
}

impl FuzzRegion {
    /// Number of op lists in this region (for the shrinker's walk).
    fn op_lists(&self) -> usize {
        match self {
            FuzzRegion::Straight(_) | FuzzRegion::Loop { .. } => 1,
            FuzzRegion::Diamond { .. } => 2,
        }
    }

    fn ops_mut(&mut self, which: usize) -> &mut Vec<FuzzOp> {
        match self {
            FuzzRegion::Straight(ops) => ops,
            FuzzRegion::Loop { body, .. } => body,
            FuzzRegion::Diamond {
                then_ops, else_ops, ..
            } => {
                if which == 0 {
                    then_ops
                } else {
                    else_ops
                }
            }
        }
    }
}

/// A self-contained fuzz case: everything needed to rebuild and re-run it.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// Seed this case was generated from (repro bookkeeping).
    pub seed: u64,
    /// The generated program, region by region.
    pub regions: Vec<FuzzRegion>,
    /// Preloaded input words at `BASE + i`.
    pub inputs: Vec<i64>,
    /// Binary variant the program is compiled into.
    pub variant: BinaryVariant,
    /// Compiler heuristics.
    pub compile: CompileOptions,
    /// The simulated machine.
    pub machine: MachineConfig,
}

impl FuzzCase {
    /// Rebuilds the IR module for this case. The fixed preamble
    /// materializes the data-area base and loads each input word into a
    /// scratch register, so diamond conditions are input-dependent.
    #[must_use]
    pub fn build_module(&self) -> Module {
        let mut f = FunctionBuilder::new("fuzz");
        f.select(f.entry_block());
        f.movi(r(BASE_REG), BASE as i64);
        for (i, _) in self.inputs.iter().take(4).enumerate() {
            f.load(r(1 + i as u8), r(BASE_REG), i as i32);
        }
        let emit = |f: &mut FunctionBuilder, ops: &[FuzzOp]| {
            for &op in ops {
                match op {
                    FuzzOp::Movi { dst, imm } => f.movi(r(dst), imm),
                    FuzzOp::Alu {
                        op,
                        dst,
                        src1,
                        src2,
                        imm,
                    } => {
                        let rhs = src2.map_or(Operand::imm(imm), Operand::reg);
                        f.alu(op, r(dst), r(src1), rhs);
                    }
                    FuzzOp::Load { dst, off } => f.load(r(dst), r(BASE_REG), off),
                    FuzzOp::Store { src, off } => f.store(r(src), r(BASE_REG), off),
                }
            }
        };
        for region in &self.regions {
            match region {
                FuzzRegion::Straight(ops) => emit(&mut f, ops),
                FuzzRegion::Diamond {
                    cmp,
                    lhs,
                    rhs,
                    then_ops,
                    else_ops,
                } => {
                    let t = f.new_block();
                    let e = f.new_block();
                    let join = f.new_block();
                    f.branch(*cmp, r(*lhs), Operand::imm(*rhs), t, e);
                    f.select(t);
                    emit(&mut f, then_ops);
                    f.jump(join);
                    f.select(e);
                    emit(&mut f, else_ops);
                    f.jump(join);
                    f.select(join);
                }
                FuzzRegion::Loop {
                    trips,
                    top_test,
                    body,
                } => {
                    f.movi(r(CTR_REG), 0);
                    if *top_test {
                        let header = f.new_block();
                        let b = f.new_block();
                        let exit = f.new_block();
                        f.jump(header);
                        f.select(header);
                        f.branch(CmpOp::Lt, r(CTR_REG), Operand::imm(*trips as i32), b, exit);
                        f.select(b);
                        emit(&mut f, body);
                        f.alu(AluOp::Add, r(CTR_REG), r(CTR_REG), Operand::imm(1));
                        f.jump(header);
                        f.select(exit);
                    } else {
                        let b = f.new_block();
                        let exit = f.new_block();
                        f.jump(b);
                        f.select(b);
                        emit(&mut f, body);
                        f.alu(AluOp::Add, r(CTR_REG), r(CTR_REG), Operand::imm(1));
                        f.branch(CmpOp::Lt, r(CTR_REG), Operand::imm(*trips as i32), b, exit);
                        f.select(exit);
                    }
                }
            }
        }
        f.halt();
        Module::new(vec![f.build()], 0).expect("generated module is well-formed")
    }

    /// The case's preloaded memory image.
    #[must_use]
    pub fn input_mem(&self) -> Vec<(u64, i64)> {
        self.inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| (BASE + i as u64, v))
            .collect()
    }

    /// Total IR instructions (bodies plus terminators) of the rebuilt
    /// module — the size metric the shrinker minimizes.
    #[must_use]
    pub fn insn_count(&self) -> usize {
        let module = self.build_module();
        module
            .funcs()
            .iter()
            .flat_map(|f| f.blocks.iter())
            .map(|b| b.insns.len() + 1)
            .sum()
    }

    /// A deterministic multi-line description: the repro the CI gate
    /// uploads as an artifact and `validate --fuzz` writes on failure.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("seed: {:#x}\n", self.seed));
        s.push_str(&format!("variant: {:?}\n", self.variant));
        s.push_str(&format!("inputs: {:?}\n", self.inputs));
        s.push_str(&format!("compile: {:?}\n", self.compile));
        s.push_str(&format!("machine: {:?}\n", self.machine));
        s.push_str(&format!("ir instructions: {}\n", self.insn_count()));
        for (i, region) in self.regions.iter().enumerate() {
            s.push_str(&format!("region {i}: {region:?}\n"));
        }
        s
    }
}

fn gen_ops(state: &mut u64, max: u64) -> Vec<FuzzOp> {
    let n = pick(state, max + 1);
    (0..n)
        .map(|_| {
            let dst = 1 + pick(state, u64::from(SCRATCH)) as u8;
            let src1 = 1 + pick(state, u64::from(SCRATCH)) as u8;
            match pick(state, 8) {
                0 => FuzzOp::Movi {
                    dst,
                    imm: pick(state, 64) as i64 - 16,
                },
                1 => FuzzOp::Load {
                    dst,
                    off: pick(state, 16) as i32,
                },
                2 => FuzzOp::Store {
                    src: src1,
                    off: 16 + pick(state, 16) as i32,
                },
                _ => {
                    const OPS: [AluOp; 9] = [
                        AluOp::Add,
                        AluOp::Sub,
                        AluOp::And,
                        AluOp::Or,
                        AluOp::Xor,
                        AluOp::Shl,
                        AluOp::Shr,
                        AluOp::Mul,
                        AluOp::Div,
                    ];
                    let op = OPS[pick(state, OPS.len() as u64) as usize];
                    let src2 = (pick(state, 2) == 0)
                        .then(|| 1 + pick(state, u64::from(SCRATCH)) as u8);
                    FuzzOp::Alu {
                        op,
                        dst,
                        src1,
                        src2,
                        imm: pick(state, 32) as i32 - 8,
                    }
                }
            }
        })
        .collect()
}

const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Generates the `index`-th case of a fuzz run seeded with `seed`.
#[must_use]
pub fn gen_case(seed: u64, index: u64) -> FuzzCase {
    let mut st = seed ^ (index.wrapping_mul(0xA076_1D64_78BD_642F));
    let _ = splitmix64(&mut st);
    let n_regions = 1 + pick(&mut st, 4);
    let regions = (0..n_regions)
        .map(|_| match pick(&mut st, 4) {
            0 => FuzzRegion::Straight(gen_ops(&mut st, 6)),
            1 | 2 => FuzzRegion::Diamond {
                cmp: CMPS[pick(&mut st, 6) as usize],
                lhs: 1 + pick(&mut st, 4) as u8,
                rhs: pick(&mut st, 32) as i32,
                then_ops: gen_ops(&mut st, 5),
                else_ops: gen_ops(&mut st, 5),
            },
            _ => FuzzRegion::Loop {
                trips: pick(&mut st, 8) as i64, // 0 = zero-trip
                top_test: pick(&mut st, 2) == 0,
                body: gen_ops(&mut st, 4),
            },
        })
        .collect();
    let inputs = (0..4).map(|_| pick(&mut st, 64) as i64).collect();
    let variant = BinaryVariant::ALL[(index % 5) as usize];
    let compile = CompileOptions {
        wish_jump_threshold: 1 + pick(&mut st, 8) as usize,
        wish_loop_body_max: 4 + pick(&mut st, 36) as usize,
        max_predicated_side: 4 + pick(&mut st, 196) as usize,
        ..CompileOptions::default()
    };
    let machine = MachineConfig {
        pipeline_depth: [5, 10, 30][pick(&mut st, 3) as usize],
        rob_size: [16, 32, 64, 128][pick(&mut st, 4) as usize],
        fetch_width: [2, 4, 8][pick(&mut st, 3) as usize],
        pred_mechanism: if pick(&mut st, 2) == 0 {
            PredMechanism::CStyle
        } else {
            PredMechanism::SelectUop
        },
        wish_enabled: pick(&mut st, 4) != 0,
        dhp_enabled: pick(&mut st, 4) == 0,
        predicate_prediction: pick(&mut st, 4) == 0,
        wish_loop_predictor: (pick(&mut st, 4) == 0)
            .then(wishbranch_bpred::LoopPredConfig::default),
        max_cycles: 2_000_000,
        ..MachineConfig::default()
    };
    FuzzCase {
        seed,
        regions,
        inputs,
        variant,
        compile,
        machine,
    }
}

/// Compiles a fuzz case through the real pipeline. `None` when the
/// profiling interpreter faults (a generator bug, not a simulator one).
fn compile_case(case: &FuzzCase) -> Option<Program> {
    let module = case.build_module();
    let mut interp = Interpreter::new();
    for (a, v) in case.input_mem() {
        interp.mem.insert(a, v);
    }
    let profile = interp.run(&module, 1 << 24).ok()?.profile;
    Some(compile(&module, &profile, case.variant, &case.compile).program)
}

/// A test hook that mutates a retired stream before it is replayed.
type CorruptRecords<'a> = &'a dyn Fn(&mut Vec<RetireRecord>);

/// Lockstep-checks one compiled case with the sweeps' check sequence.
/// `corrupt_records` is the test hook for injected commit-path mutations
/// (applied to the retired stream before replay). `Ok(None)` = clean,
/// `Ok(Some(detail))` = divergence, `Err(())` = the case could not be
/// judged (cycle budget).
fn lockstep_program(
    program: &Program,
    case: &FuzzCase,
    corrupt_records: Option<CorruptRecords<'_>>,
) -> Result<Option<String>, ()> {
    let image = MemImage::from_preload(case.input_mem());
    let label = format!("fuzz {}", case.variant.label());
    let scratch = &mut SimScratch::default();
    let checked = simulate_on_image(program, &image, &case.machine, scratch, true).and_then(
        |(result, mut records)| {
            if let Some(corrupt) = corrupt_records {
                corrupt(&mut records);
            }
            lockstep_check(program, &label, &image, &result, &records)?;
            verify_against_image(program, &label, &image, &result)
        },
    );
    match checked {
        Ok(()) => Ok(None),
        Err(JobError::CycleBudgetExceeded { .. }) => Err(()),
        Err(JobError::VerifyDivergence { detail }) => Ok(Some(detail)),
        Err(other) => Ok(Some(other.to_string())),
    }
}

/// Runs one fuzz case end to end. `None` = clean (or unjudgeable),
/// `Some(detail)` = divergence.
#[must_use]
pub fn check_case(case: &FuzzCase) -> Option<String> {
    let program = compile_case(case)?;
    lockstep_program(&program, case, None).ok().flatten()
}

/// Outcome of a fuzz run.
#[derive(Clone, Debug)]
pub enum FuzzOutcome {
    /// Every generated case replayed clean.
    Clean,
    /// A case diverged; the run stopped and minimized it.
    Diverged {
        /// The original failing case.
        case: Box<FuzzCase>,
        /// The shrinker's minimized repro.
        minimized: Box<FuzzCase>,
        /// The divergence detail of the original case.
        detail: String,
    },
}

/// Summary of one seeded fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases: usize,
    /// Cases skipped (cycle budget or profiling fault — generator noise,
    /// not simulator verdicts).
    pub skipped: usize,
    /// The verdict.
    pub outcome: FuzzOutcome,
}

impl FuzzReport {
    /// Whether the run found no divergence.
    #[must_use]
    pub fn clean(&self) -> bool {
        matches!(self.outcome, FuzzOutcome::Clean)
    }
}

/// The `index`-th case of a fuzz run. With `hierarchy` its machine runs
/// the realistic preset, whose tight MSHR, write-buffer and port caps
/// drive the contention paths the oracle should exercise. The override
/// follows [`gen_case`], so case `i` runs the same program, inputs and
/// variant on either memory model.
fn lane_case(seed: u64, index: u64, hierarchy: bool) -> FuzzCase {
    let mut case = gen_case(seed, index);
    if hierarchy {
        case.machine.mem = MemConfig::realistic_preset();
        // Future-cycle fills stretch runtimes; keep the budget generous so
        // long-latency cases stay judgeable rather than skipped.
        case.machine.max_cycles = 8_000_000;
    }
    case
}

/// Runs `count` seeded random cases (cycling through the five binary
/// variants) through the lockstep oracle, on the non-blocking hierarchy
/// with `hierarchy`; stops at the first divergence and minimizes it with
/// [`shrink_case`] under the same machine.
#[must_use]
pub fn fuzz_lockstep(seed: u64, count: usize, hierarchy: bool) -> FuzzReport {
    let mut skipped = 0usize;
    for index in 0..count {
        let case = lane_case(seed, index as u64, hierarchy);
        let Some(program) = compile_case(&case) else {
            skipped += 1;
            continue;
        };
        match lockstep_program(&program, &case, None) {
            Err(()) => skipped += 1,
            Ok(None) => {}
            Ok(Some(detail)) => {
                let minimized = shrink_case(&case, &mut check_case);
                return FuzzReport {
                    cases: index + 1,
                    skipped,
                    outcome: FuzzOutcome::Diverged {
                        case: Box::new(case),
                        minimized: Box::new(minimized),
                        detail,
                    },
                };
            }
        }
    }
    FuzzReport {
        cases: count,
        skipped,
        outcome: FuzzOutcome::Clean,
    }
}

/// Minimizes a diverging case by delta-debugging: whole regions, then
/// individual ops, then structural simplifications (diamond → straight
/// line, loop-trip reduction), then configuration fields (variant,
/// machine knobs, inputs). `still_diverges` must return `Some(detail)`
/// while the candidate still reproduces the divergence; the given case is
/// assumed to reproduce it.
pub fn shrink_case(
    case: &FuzzCase,
    still_diverges: &mut dyn FnMut(&FuzzCase) -> Option<String>,
) -> FuzzCase {
    let mut best = case.clone();
    loop {
        let mut improved = false;
        let accept = |best: &mut FuzzCase,
                          cand: FuzzCase,
                          still: &mut dyn FnMut(&FuzzCase) -> Option<String>|
         -> bool {
            if still(&cand).is_some() {
                *best = cand;
                true
            } else {
                false
            }
        };

        // Whole regions.
        let mut i = 0;
        while i < best.regions.len() {
            let mut cand = best.clone();
            cand.regions.remove(i);
            if accept(&mut best, cand, still_diverges) {
                improved = true;
            } else {
                i += 1;
            }
        }
        // Individual ops.
        for ri in 0..best.regions.len() {
            for list in 0..best.regions[ri].op_lists() {
                let mut oi = 0;
                while oi < best.regions[ri].ops_mut(list).len() {
                    let mut cand = best.clone();
                    cand.regions[ri].ops_mut(list).remove(oi);
                    if accept(&mut best, cand, still_diverges) {
                        improved = true;
                    } else {
                        oi += 1;
                    }
                }
            }
        }
        // Structural simplification.
        for ri in 0..best.regions.len() {
            let simpler: Vec<FuzzRegion> = match &best.regions[ri] {
                FuzzRegion::Diamond {
                    then_ops, else_ops, ..
                } => {
                    let mut flat = then_ops.clone();
                    flat.extend(else_ops.iter().copied());
                    vec![FuzzRegion::Straight(flat)]
                }
                FuzzRegion::Loop {
                    trips,
                    top_test,
                    body,
                } if *trips > 0 => vec![
                    FuzzRegion::Straight(body.clone()),
                    FuzzRegion::Loop {
                        trips: trips - 1,
                        top_test: *top_test,
                        body: body.clone(),
                    },
                ],
                _ => Vec::new(),
            };
            for replacement in simpler {
                let mut cand = best.clone();
                cand.regions[ri] = replacement;
                if accept(&mut best, cand, still_diverges) {
                    improved = true;
                    break;
                }
            }
        }
        // Inputs.
        if !best.inputs.is_empty() {
            let mut cand = best.clone();
            cand.inputs.clear();
            if accept(&mut best, cand, still_diverges) {
                improved = true;
            }
        }
        // Configuration: variant, then machine knobs toward the default.
        if best.variant != BinaryVariant::NormalBranch {
            let mut cand = best.clone();
            cand.variant = BinaryVariant::NormalBranch;
            if accept(&mut best, cand, still_diverges) {
                improved = true;
            }
        }
        let knobs: [&dyn Fn(&mut MachineConfig); 6] = [
            &|m| m.dhp_enabled = false,
            &|m| m.predicate_prediction = false,
            &|m| m.wish_loop_predictor = None,
            &|m| m.pred_mechanism = PredMechanism::CStyle,
            &|m| m.pipeline_depth = 30,
            &|m| m.rob_size = 512,
        ];
        for knob in knobs {
            let mut probe = best.machine.clone();
            knob(&mut probe);
            if format!("{probe:?}") == format!("{:?}", best.machine) {
                continue; // knob already at its simpler setting
            }
            let mut cand = best.clone();
            knob(&mut cand.machine);
            if accept(&mut best, cand, still_diverges) {
                improved = true;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// The outcome of a suite validation run.
#[derive(Clone, Debug)]
pub struct ValidateReport {
    /// Jobs run (benchmark × variant).
    pub jobs: usize,
    /// Failures in submission order: `("<bench> <variant>", error)`.
    pub failures: Vec<(String, JobError)>,
}

impl ValidateReport {
    /// Whether every job replayed clean.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Lockstep-validates the full retirement stream of every Table 3 binary
/// variant across all nine suite workloads at the experiment's scale, on
/// the non-blocking hierarchy's realistic preset with `hierarchy`. The 45
/// jobs run as one oracle sweep ([`SweepRunner::set_oracle`]) with the
/// default worker count; a failed job is one typed failure.
#[must_use]
pub fn validate_suite(ec: &ExperimentConfig, input: InputSet, hierarchy: bool) -> ValidateReport {
    let mut ec = ec.clone();
    if hierarchy {
        ec.machine.mem = MemConfig::realistic_preset();
    }
    let mut runner = SweepRunner::new(&ec);
    runner.set_oracle(true);
    let jobs: Vec<SweepJob> = (0..runner.benches().len())
        .flat_map(|b| BinaryVariant::ALL.map(|v| SweepJob::standard(b, v, input, &ec)))
        .collect();
    let count = jobs.len();
    let failures = runner
        .try_run(jobs)
        .into_iter()
        .filter_map(Result::err)
        .map(|f| {
            let bench = runner.benches()[f.job.bench].name;
            (format!("{bench} {}", f.job.variant.label()), f.error)
        })
        .collect();
    ValidateReport {
        jobs: count,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_fuzz_run_is_clean() {
        // A slice of the CI gate's run: deterministic, so any divergence
        // here is reproducible with the same seed.
        let report = fuzz_lockstep(0x5EED, 40, false);
        match &report.outcome {
            FuzzOutcome::Clean => {}
            FuzzOutcome::Diverged {
                minimized, detail, ..
            } => panic!("fuzz diverged: {detail}\n{}", minimized.describe()),
        }
        assert!(
            report.skipped < report.cases / 2,
            "most cases must be judgeable ({}/{} skipped)",
            report.skipped,
            report.cases
        );
    }

    #[test]
    fn generated_cases_are_deterministic() {
        let a = gen_case(42, 7);
        let b = gen_case(42, 7);
        assert_eq!(a.regions, b.regions);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(format!("{:?}", a.machine), format!("{:?}", b.machine));
    }

    #[test]
    fn injected_commit_path_mutation_shrinks_to_a_tiny_repro() {
        for hierarchy in [false, true] {
            // The injected bug: the first retired register write's value is
            // off by one — a seeded commit-path mutation the oracle must
            // catch. The shrinker must reduce the repro to ≤ 20 instructions
            // on either memory model.
            let corrupt = |records: &mut Vec<RetireRecord>| {
                if let Some(rec) = records.iter_mut().find(|r| r.reg_write.is_some()) {
                    let (reg, v) = rec.reg_write.unwrap();
                    rec.reg_write = Some((reg, v.wrapping_add(1)));
                }
            };
            let mut check = |case: &FuzzCase| -> Option<String> {
                let program = compile_case(case)?;
                lockstep_program(&program, case, Some(&corrupt)).ok().flatten()
            };
            // Find a seeded case that exercises the mutation (any case with a
            // register write does).
            let mut found = None;
            for index in 0..50 {
                let case = lane_case(0xDEAD_BEEF, index, hierarchy);
                if check(&case).is_some() {
                    found = Some(case);
                    break;
                }
            }
            let case = found.expect("a case with a register write exists");
            assert_eq!(case.machine.mem.realistic, hierarchy);
            let minimized = shrink_case(&case, &mut check);
            let detail = check(&minimized).expect("minimized case still reproduces");
            assert!(detail.contains("lockstep"), "{detail}");
            assert!(
                minimized.insn_count() <= 20,
                "hierarchy {hierarchy}: repro must be ≤ 20 instructions, got {} \n{}",
                minimized.insn_count(),
                minimized.describe()
            );
        }
    }

    #[test]
    fn validate_suite_is_clean_at_tiny_scale() {
        let report = validate_suite(&ExperimentConfig::quick(20), InputSet::B, false);
        assert_eq!(report.jobs, 45);
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn starved_suite_validation_fails_every_job_with_a_typed_budget_error() {
        let ec = ExperimentConfig::quick(20);
        let ec = ec.clone().with_machine(ec.machine.with_max_cycles(8));
        let report = validate_suite(&ec, InputSet::B, false);
        assert_eq!(report.jobs, 45);
        let expect: Vec<String> = wishbranch_workloads::suite(20)
            .iter()
            .flat_map(|b| BinaryVariant::ALL.map(|v| format!("{} {}", b.name, v.label())))
            .collect();
        let labels: Vec<&str> = report.failures.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, expect);
        for (label, error) in &report.failures {
            assert!(
                matches!(error, JobError::CycleBudgetExceeded { limit: 8 }),
                "{label}: {error:?}"
            );
        }
    }
}
