//! Job matrices shared by the lane-engine suites (`batch_equiv.rs` and
//! the third golden lane in `golden_figures.rs`): the seeded
//! [`random_lane`] draw and two fixed compositions — an I-miss-heavy
//! program under every I-side hierarchy configuration, and a straggler
//! program with 100× the work of its batchmates.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{compile_variant, ExperimentConfig};
use wishbranch_isa::{
    AluOp, BranchKind, CmpOp, Gpr, Insn, Operand, PredReg, Program, ProgramBuilder,
};
use wishbranch_uarch::{MachineConfig, PredMechanism};
use wishbranch_workloads::{suite, InputSet};

/// Workload scale of the random-lane matrix.
pub const LANE_SCALE: i32 = 40;

/// splitmix64: the deterministic stream the job matrices are drawn from.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Initial [`random_lane`] stream state for `seed`.
pub fn lane_stream(seed: u64) -> u64 {
    0x000b_a7c4_u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One lane drawn from the stream: bench index, variant, input, machine.
/// The machine mixes every mechanism and all three memory models (flat,
/// flat with a finite miss queue, and the non-blocking hierarchy with its
/// I-side, write-buffer and port knobs rolled independently).
pub fn random_lane(st: &mut u64) -> (usize, BinaryVariant, InputSet, MachineConfig) {
    let mut pick = |n: u64| splitmix64(st) % n;
    let bench = pick(9) as usize;
    let variant = [
        BinaryVariant::NormalBranch,
        BinaryVariant::BaseDef,
        BinaryVariant::BaseMax,
        BinaryVariant::WishJumpJoin,
        BinaryVariant::WishJumpJoinLoop,
    ][pick(5) as usize];
    let input = [InputSet::A, InputSet::B, InputSet::C][pick(3) as usize];
    let mut m = MachineConfig {
        pipeline_depth: [5, 10, 30][pick(3) as usize],
        rob_size: [32, 128, 512][pick(3) as usize],
        ..MachineConfig::default()
    };
    if pick(2) == 0 {
        m.pred_mechanism = PredMechanism::SelectUop;
    }
    match pick(5) {
        0 => m.oracles.perfect_confidence = true,
        1 => m.oracles.perfect_branch_prediction = true,
        2 => m.oracles.no_pred_dependencies = true,
        3 => {
            m.oracles.no_pred_dependencies = true;
            m.oracles.no_false_predicate_fetch = true;
        }
        _ => {}
    }
    if pick(4) == 0 {
        m.dhp_enabled = true;
    }
    if pick(4) == 0 && !m.dhp_enabled {
        m.predicate_prediction = true;
    }
    if pick(3) == 0 {
        m.wish_loop_predictor = Some(Default::default());
    }
    match pick(3) {
        0 => {}
        1 => m.mem.max_outstanding_misses = 2,
        _ => {
            m.mem.realistic = true;
            if pick(2) == 0 {
                m.mem.write_buffer_entries = [2, 4][pick(2) as usize];
            }
            if pick(2) == 0 {
                m.mem.data_ports = [1, 2][pick(2) as usize];
            }
            if pick(2) == 0 {
                m.mem.iprefetch = false;
            }
            if pick(3) == 0 {
                m.mem.i_mshrs = 1;
            }
        }
    }
    (bench, variant, input, m)
}

/// A compiled lane job: program, machine and input image.
pub struct LaneJob {
    /// Human-readable description for assertion messages.
    pub label: String,
    pub program: Program,
    pub cfg: MachineConfig,
    pub preload: Vec<(u64, i64)>,
}

/// The lane drawn first from `seed`'s stream, compiled at [`LANE_SCALE`].
pub fn seeded_lane(seed: u64) -> LaneJob {
    let mut st = lane_stream(seed);
    let (b, v, input, cfg) = random_lane(&mut st);
    let benches = suite(LANE_SCALE);
    let bin =
        compile_variant(&benches[b], v, &ExperimentConfig::quick(LANE_SCALE)).expect("compile");
    LaneJob {
        label: format!("seed {seed}: {} {v:?} {input}", benches[b].name),
        program: bin.program,
        preload: (benches[b].input_fn)(input),
        cfg,
    }
}

/// Two passes over 2 KB of straight-line code: pass one cold-misses every
/// I-cache line (with a mispredictable exit branch at the bottom), pass
/// two hits — both memory models' I-paths get exercised, warm and cold.
pub fn imiss_program() -> Program {
    let r = Gpr::new;
    let mut b = ProgramBuilder::new();
    let top = b.label("top");
    let done = b.label("done");
    b.push(Insn::mov_imm(r(1), 0));
    b.bind(top);
    for _ in 0..512 {
        b.push(Insn::alu(AluOp::Add, r(2), r(2), Operand::imm(1)));
    }
    b.push(Insn::alu(AluOp::Add, r(1), r(1), Operand::imm(1)));
    b.push(Insn::cmp(CmpOp::Eq, PredReg::new(1), r(1), Operand::imm(2)));
    b.push_cond_branch(PredReg::new(1), true, done, None);
    b.push_branch_to(Insn::branch(BranchKind::Uncond, 0), top);
    b.bind(done);
    b.push(Insn::halt());
    b.build()
}

/// Every I-side hierarchy configuration [`imiss_program`] runs under:
/// non-blocking fetch, prefetch off, a starved 1-entry I-MSHR file, the
/// full realistic preset, and the flat model.
pub fn imiss_configs() -> Vec<(&'static str, MachineConfig)> {
    let mut cfgs = Vec::new();
    let mut m = MachineConfig::default();
    m.mem.realistic = true;
    cfgs.push(("nonblocking", m));
    let mut m = MachineConfig::default();
    m.mem.realistic = true;
    m.mem.iprefetch = false;
    cfgs.push(("no-iprefetch", m));
    let mut m = MachineConfig::default();
    m.mem.realistic = true;
    m.mem.i_mshrs = 1;
    cfgs.push(("tight-imshr", m));
    let m = MachineConfig {
        mem: wishbranch_mem::MemConfig::realistic_preset(),
        ..MachineConfig::default()
    };
    cfgs.push(("realistic-preset", m));
    cfgs.push(("flat", MachineConfig::default()));
    cfgs
}

/// The straggler composition: benchmark 0's wish-jump/join binary at
/// [`LANE_SCALE`] and the same benchmark compiled at 100× the scale (the
/// trip count is baked into the program text), both on input A and the
/// default machine. Returns `[short, long]`.
pub fn straggler_jobs() -> [LaneJob; 2] {
    [LANE_SCALE, LANE_SCALE * 100].map(|scale| {
        let benches = suite(scale);
        let bin = compile_variant(
            &benches[0],
            BinaryVariant::WishJumpJoin,
            &ExperimentConfig::quick(scale),
        )
        .expect("compile");
        LaneJob {
            label: format!("straggler {} at scale {scale}", benches[0].name),
            program: bin.program,
            cfg: MachineConfig::default(),
            preload: (benches[0].input_fn)(InputSet::A),
        }
    })
}
