//! Micro-level checks of the cycle-accounting layer: the `sum == cycles`
//! identity, the fetch-idle split identity, and qualitative category
//! behavior on hand-built programs. (The suite-wide identity over every
//! benchmark × variant lives in the workspace-level
//! `tests/cycle_accounting.rs`.)

use wishbranch_isa::{AluOp, CmpOp, Gpr, Insn, Operand, PredReg, Program, ProgramBuilder};
use wishbranch_uarch::{MachineConfig, SimResult, Simulator};

fn r(i: u8) -> Gpr {
    Gpr::new(i)
}

fn run(program: &Program, cfg: MachineConfig) -> SimResult {
    let mut sim = Simulator::new(program, cfg);
    sim.run().expect("halts")
}

fn assert_identities(res: &SimResult) {
    let s = &res.stats;
    assert_eq!(
        s.cycle_accounting.total(),
        s.cycles,
        "cycle accounting must cover every cycle exactly once: {:?}",
        s.cycle_accounting
    );
    assert_eq!(
        s.fetch_idle_imiss + s.fetch_idle_redirect + s.fetch_idle_queue_full + s.fetch_idle_blocked,
        s.fetch_idle_cycles,
        "fetch-idle split must cover every fetch-idle cycle"
    );
    let flushes: u64 = s.hot_sites.values().map(|c| c.flushes).sum();
    let avoided: u64 = s.hot_sites.values().map(|c| c.flushes_avoided).sum();
    let gf: u64 = s.hot_sites.values().map(|c| c.guard_false_uops).sum();
    assert_eq!(flushes, s.flushes, "per-site flushes must sum to the total");
    assert_eq!(avoided, s.flushes_avoided, "per-site avoided flushes must sum");
    assert_eq!(gf, s.retired_guard_false, "per-site guard-false µops must sum");
}

/// A loop whose body holds one pseudo-random (hard-to-predict) hammock
/// branch; returns (program, hammock branch pc, loop-back branch pc).
fn alternating_branch_loop(trips: i32) -> (Program, u32, u32) {
    let mut b = ProgramBuilder::new();
    let top = b.label("top");
    let skip = b.label("skip");
    b.push(Insn::mov_imm(r(1), 0)); // pc 0: i = 0
    b.push(Insn::mov_imm(r(2), 0)); // pc 1: acc = 0
    b.bind(top);
    // if ((i*37 ^ i>>2) & 7 < 3) acc += 1 — direction is effectively random.
    b.push(Insn::alu(AluOp::Mul, r(4), r(1), Operand::imm(37))); // pc 2
    b.push(Insn::alu(AluOp::Xor, r(4), r(4), Operand::imm(21))); // pc 3
    b.push(Insn::alu(AluOp::And, r(4), r(4), Operand::imm(7))); // pc 4
    b.push(Insn::cmp(CmpOp::Ge, PredReg::new(1), r(4), Operand::imm(3))); // pc 5
    let hammock_pc = 6;
    b.push_cond_branch(PredReg::new(1), true, skip, None); // pc 6
    b.push(Insn::alu(AluOp::Add, r(2), r(2), Operand::imm(1))); // pc 7
    b.bind(skip);
    b.push(Insn::alu(AluOp::Add, r(1), r(1), Operand::imm(1))); // pc 8
    b.push(Insn::cmp(CmpOp::Lt, PredReg::new(2), r(1), Operand::imm(trips))); // pc 9
    let back_pc = 10;
    b.push_cond_branch(PredReg::new(2), true, top, None); // pc 10
    b.push(Insn::halt()); // pc 11
    (b.build(), hammock_pc, back_pc)
}

#[test]
fn straight_line_program_is_mostly_useful_retire() {
    let mut insns = vec![Insn::mov_imm(r(1), 0)];
    for i in 0..64u8 {
        insns.push(Insn::alu(AluOp::Add, r(1 + i % 8), r(1), Operand::imm(1)));
    }
    insns.push(Insn::halt());
    let res = run(&Program::from_insns(insns), MachineConfig::default());
    assert_identities(&res);
    let acc = res.stats.cycle_accounting;
    assert!(acc.useful_retire > 0, "useful work must be attributed: {acc:?}");
    assert_eq!(acc.flush_recovery, 0, "no branches, no flushes: {acc:?}");
    assert_eq!(acc.guard_false_retire, 0, "nothing predicated: {acc:?}");
}

#[test]
fn hard_to_predict_branch_accrues_flush_recovery_and_hot_site() {
    let (prog, hammock_pc, back_pc) = alternating_branch_loop(97);
    let res = run(&prog, MachineConfig::default());
    assert_identities(&res);
    let s = &res.stats;
    assert!(s.flushes > 0, "alternating branch must flush at least once");
    assert!(
        s.cycle_accounting.flush_recovery > 0,
        "flushes must surface as flush-recovery cycles: {:?}",
        s.cycle_accounting
    );
    let site = s.hot_sites.get(&hammock_pc).copied().unwrap_or_default();
    let back = s.hot_sites.get(&back_pc).copied().unwrap_or_default();
    assert!(
        site.flushes + back.flushes > 0,
        "flushes must be attributed to the branch PCs, got sites {:?}",
        s.hot_sites
    );
}

/// 16 independent cold loads, 4 KiB apart (distinct lines and sets).
fn scattered_load_program() -> Program {
    let mut insns = vec![Insn::mov_imm(r(1), 0x2_0000)];
    for k in 0..16u8 {
        insns.push(Insn::load(r(2 + k % 8), r(1), i32::from(k) * 4096));
    }
    insns.push(Insn::halt());
    Program::from_insns(insns)
}

#[test]
fn tight_mshr_files_accrue_mshr_full_cycles() {
    let mut cfg = MachineConfig::default();
    cfg.mem.realistic = true;
    cfg.mem.l1_mshrs = 1;
    cfg.mem.l2_mshrs = 1;
    let res = run(&scattered_load_program(), cfg);
    assert_identities(&res);
    let acc = res.stats.cycle_accounting;
    assert!(
        acc.mshr_full > 0,
        "16 misses against 1 MSHR must stall on allocation: {acc:?}"
    );
    assert!(
        res.stats.mshr_full_stalls > 0,
        "refused issues must be counted"
    );
}

#[test]
fn outstanding_fills_accrue_miss_pending_cycles() {
    let mut cfg = MachineConfig::default();
    cfg.mem.realistic = true;
    // The default L1 MSHR file holds 4 misses; size both levels for all
    // 16 outstanding misses so no cycle is an MSHR-full stall.
    cfg.mem.l1_mshrs = 16;
    cfg.mem.l2_mshrs = 16;
    let res = run(&scattered_load_program(), cfg);
    assert_identities(&res);
    let acc = res.stats.cycle_accounting;
    assert!(
        acc.miss_pending > 0,
        "cycles spent waiting on in-flight fills must be attributed: {acc:?}"
    );
    assert_eq!(
        acc.mshr_full, 0,
        "default MSHR files are ample for 16 misses: {acc:?}"
    );
}

#[test]
fn flat_model_never_reports_hierarchy_causes() {
    let res = run(&scattered_load_program(), MachineConfig::default());
    assert_identities(&res);
    let acc = res.stats.cycle_accounting;
    assert_eq!(
        (acc.mshr_full, acc.miss_pending),
        (0, 0),
        "hierarchy causes are structurally zero under the flat model: {acc:?}"
    );
    assert_eq!(res.stats.mshr_full_stalls, 0);
}

#[test]
fn top_sites_ranks_by_activity_and_truncates() {
    let (prog, _, _) = alternating_branch_loop(50);
    let res = run(&prog, MachineConfig::default());
    assert_identities(&res);
    let sites = res.stats.top_sites(2);
    assert!(sites.len() <= 2, "top_sites must truncate to n");
    if sites.len() == 2 {
        assert!(
            sites[0].1.score() >= sites[1].1.score(),
            "top_sites must be sorted by score"
        );
    }
    assert!(
        !res.stats.top_sites(100).is_empty(),
        "a flushing run must populate the hot-site table"
    );
}
