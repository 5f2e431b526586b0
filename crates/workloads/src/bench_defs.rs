//! The nine benchmark programs. Each function documents which paper
//! behaviour it reproduces and how its input sets modulate that behaviour.

use crate::common::{
    count_array, emit_index, emit_prologue, emit_xorshift, input_rng, regs, signed_array,
    DATA_BASE,
};
use crate::{Benchmark, InputSet};
use wishbranch_ir::{FunctionBuilder, Module};
use wishbranch_isa::{AluOp, CmpOp, Gpr, Operand};

fn r(i: u8) -> Gpr {
    Gpr::new(i)
}

fn set_tag(set: InputSet) -> u64 {
    match set {
        InputSet::A => 0,
        InputSet::B => 1,
        InputSet::C => 2,
    }
}

/// Values that are large-positive with probability `1-q` and borderline
/// (±16, a coin flip once ±16 noise is added) with probability `q`: the
/// branch-entropy knob used by most benchmarks.
fn bias_array(bench: &str, set: InputSet, n: u64, q: f64) -> Vec<(u64, i64)> {
    let mut rng = input_rng(bench, set_tag(set));
    use rand::Rng;
    (0..n)
        .map(|i| {
            let v = if rng.gen_bool(q) {
                rng.gen_range(-16..=16)
            } else {
                1000
            };
            (DATA_BASE as u64 + i * 8, v)
        })
        .collect()
}

/// Emits `r7 = data[idx & mask] + (noise in -16..=15)` then branches on
/// `r7 >= 0` — an easy branch for large-positive data, a coin flip for
/// borderline data.
fn emit_noisy_branch(
    f: &mut FunctionBuilder,
    idx: Gpr,
    mask: i32,
    then_b: wishbranch_ir::BlockId,
    else_b: wishbranch_ir::BlockId,
) {
    emit_index(f, r(2), idx, mask, 0);
    f.load(r(6), r(2), 0);
    emit_xorshift(f, r(3));
    f.alu(AluOp::And, r(7), regs::PRNG, Operand::imm(31));
    f.alu(AluOp::Sub, r(7), r(7), Operand::imm(16));
    f.alu(AluOp::Add, r(7), r(7), Operand::Reg(r(6)));
    f.branch(CmpOp::Ge, r(7), Operand::imm(0), then_b, else_b);
}

/// Emits `count` dependent-ish ALU filler µops over `dsts`, reading `src`.
fn emit_arm(f: &mut FunctionBuilder, src: Gpr, dsts: &[Gpr], salt: i32) {
    for (k, &d) in dsts.iter().enumerate() {
        let op = [AluOp::Add, AluOp::Sub, AluOp::Xor][(k + salt as usize) % 3];
        let src2 = if k % 2 == 0 {
            Operand::Reg(src)
        } else {
            Operand::imm(salt + k as i32)
        };
        f.alu(op, d, d, src2);
    }
}

/// Standard epilogue: spill accumulators so architectural equivalence
/// checks observe the computation.
fn emit_epilogue(f: &mut FunctionBuilder) {
    for (slot, reg) in (8..14).enumerate() {
        f.store(r(reg), regs::OUT, slot as i32 * 8);
    }
    f.store(regs::PRNG, regs::OUT, 64);
}

/// **gzip** — LZ-style literal/match decision plus a short copy loop.
///
/// Paper evidence: gzip's wish binary gains 12.5% over normal branches
/// (Table 5); 61% of its dynamic wish branches are loops (Table 4). Input
/// sets vary compressibility: input-A is highly compressible (decision
/// branch predictable), input-C is near-random.
#[must_use]
pub fn gzip(scale: i32) -> Benchmark {
    let mut f = FunctionBuilder::new("gzip");
    let e = f.entry_block();
    let outer = f.new_block();
    let match_b = f.new_block();
    let lit_b = f.new_block();
    let join = f.new_block();
    let copy = f.new_block();
    let copy_exit = f.new_block();
    let exit = f.new_block();
    f.select(e);
    emit_prologue(&mut f);
    f.movi(r(20), 0);
    f.jump(outer);
    f.select(outer);
    emit_noisy_branch(&mut f, r(20), 4095, match_b, lit_b);
    f.select(lit_b);
    emit_arm(&mut f, r(6), &[r(8), r(9), r(10), r(8), r(9), r(10)], 3);
    f.jump(join);
    f.select(match_b);
    emit_arm(&mut f, r(6), &[r(11), r(12), r(13), r(11), r(12), r(13)], 5);
    f.jump(join);
    f.select(join);
    // Copy loop: trip = 1 + (match length from the data stream & 3).
    emit_index(&mut f, r(2), r(20), 4095, 4096);
    f.load(r(4), r(2), 0);
    f.alu(AluOp::And, r(4), r(4), Operand::imm(3));
    f.alu(AluOp::Add, r(4), r(4), Operand::imm(1));
    f.movi(r(21), 0);
    f.jump(copy);
    f.select(copy);
    f.alu(AluOp::Add, r(9), r(9), Operand::Reg(r(21)));
    f.alu(AluOp::Xor, r(10), r(10), Operand::Reg(r(9)));
    f.alu(AluOp::Add, r(21), r(21), Operand::imm(1));
    f.branch(CmpOp::Lt, r(21), Operand::Reg(r(4)), copy, copy_exit);
    f.select(copy_exit);
    f.alu(AluOp::Add, r(20), r(20), Operand::imm(1));
    f.branch(CmpOp::Lt, r(20), Operand::imm(scale), outer, exit);
    f.select(exit);
    emit_epilogue(&mut f);
    f.halt();
    Benchmark {
        name: "gzip",
        module: Module::new(vec![f.build()], 0).expect("valid module"),
        behavior: "LZ literal/match decision + short copy loops; hardness follows input entropy",
        input_fn: |set| {
            let q = match set {
                InputSet::A => 0.05,
                InputSet::B => 0.25,
                InputSet::C => 0.50,
            };
            let mut mem = bias_array("gzip", set, 4096, q);
            let mut rng = input_rng("gzip-len", set_tag(set));
            // Match lengths: constant for compressible input, random
            // otherwise (drives wish-loop late exits).
            if set == InputSet::A {
                mem.extend((0..4096u64).map(|i| (DATA_BASE as u64 + (4096 + i) * 8, 2)));
            } else {
                mem.extend(
                    count_array(&mut rng, 4096, 64)
                        .into_iter()
                        .map(|(a, v)| (a + 4096 * 8, v)),
                );
            }
            mem
        },
    }
}

/// **vpr** — simulated-annealing accept/reject hammock plus a variable
/// net-pin loop.
///
/// Paper evidence: vpr gains 36.3% with wish branches vs normal and 23.9%
/// vs the best predicated binary (Table 5); wish loops add >3% (Fig. 12).
#[must_use]
pub fn vpr(scale: i32) -> Benchmark {
    let mut f = FunctionBuilder::new("vpr");
    let e = f.entry_block();
    let outer = f.new_block();
    let accept = f.new_block();
    let reject = f.new_block();
    let join = f.new_block();
    let pins = f.new_block();
    let pins_exit = f.new_block();
    let exit = f.new_block();
    f.select(e);
    emit_prologue(&mut f);
    f.movi(r(20), 0);
    f.jump(outer);
    f.select(outer);
    emit_noisy_branch(&mut f, r(20), 2047, accept, reject);
    f.select(reject);
    emit_arm(&mut f, r(7), &[r(8), r(9), r(8), r(9), r(8), r(9), r(10)], 2);
    f.jump(join);
    f.select(accept);
    emit_arm(&mut f, r(7), &[r(11), r(12), r(11), r(12), r(11), r(12), r(13)], 4);
    f.jump(join);
    f.select(join);
    // Net-pin loop: trip 1..=4 from input data (hard to predict).
    emit_index(&mut f, r(2), r(20), 2047, 2048);
    f.load(r(4), r(2), 0);
    f.alu(AluOp::And, r(4), r(4), Operand::imm(3));
    f.alu(AluOp::Add, r(4), r(4), Operand::imm(1));
    f.movi(r(21), 0);
    f.jump(pins);
    f.select(pins);
    f.alu(AluOp::Add, r(10), r(10), Operand::Reg(r(4)));
    f.alu(AluOp::Sub, r(13), r(13), Operand::Reg(r(21)));
    f.alu(AluOp::Add, r(21), r(21), Operand::imm(1));
    f.branch(CmpOp::Lt, r(21), Operand::Reg(r(4)), pins, pins_exit);
    f.select(pins_exit);
    f.alu(AluOp::Add, r(20), r(20), Operand::imm(1));
    f.branch(CmpOp::Lt, r(20), Operand::imm(scale), outer, exit);
    f.select(exit);
    emit_epilogue(&mut f);
    f.halt();
    Benchmark {
        name: "vpr",
        module: Module::new(vec![f.build()], 0).expect("valid module"),
        behavior: "annealing accept/reject hammock + variable net-pin loops (wish-loop win)",
        input_fn: |set| {
            let q = match set {
                InputSet::A => 0.15,
                InputSet::B => 0.35,
                InputSet::C => 0.55,
            };
            let mut mem = bias_array("vpr", set, 2048, q);
            let mut rng = input_rng("vpr-pins", set_tag(set));
            mem.extend(
                count_array(&mut rng, 2048, 97)
                    .into_iter()
                    .map(|(a, v)| (a + 2048 * 8, v)),
            );
            mem
        },
    }
}

/// **mcf** — arc-array scan with a guarded dependent load per arc.
///
/// Paper evidence: aggressive predication slows mcf down by 102% because
/// "the execution of many critical load instructions … are delayed because
/// their source predicates are dependent on other critical loads", i.e.
/// predication serializes loads that branch prediction would service in
/// parallel (§5.1). Here each iteration loads an arc cost (large,
/// L2-resident array, parallel across iterations), compares it, and
/// *conditionally* loads a node word into an accumulator register. Under
/// C-style predication the guarded load's predicate and old-destination
/// dependences chain consecutive iterations — every node load waits for
/// the previous one plus the cost load's latency. Under branch prediction
/// (the branch is ≥95% taken and easy) the loads all overlap. Wish
/// branches detect the easy branch and predict the predicate, recovering
/// the parallelism (the paper's mcf headline).
#[must_use]
pub fn mcf(scale: i32) -> Benchmark {
    const TABLE: i32 = 1 << 14; // 128 KiB cost array + 128 KiB node table
    let mut f = FunctionBuilder::new("mcf");
    let e = f.entry_block();
    let outer = f.new_block();
    let then_b = f.new_block();
    let else_b = f.new_block();
    let join = f.new_block();
    let exit = f.new_block();
    f.select(e);
    emit_prologue(&mut f);
    f.movi(r(20), 0);
    f.jump(outer);
    f.select(outer);
    // Arc cost load: address from the induction variable → iterations
    // overlap freely in the window.
    emit_index(&mut f, r(2), r(20), TABLE - 1, 0);
    f.load(r(6), r(2), 0);
    emit_xorshift(&mut f, r(3));
    f.alu(AluOp::And, r(7), regs::PRNG, Operand::imm(31));
    f.alu(AluOp::Sub, r(7), r(7), Operand::imm(16));
    f.alu(AluOp::Add, r(7), r(7), Operand::Reg(r(6)));
    // Independent per-arc bookkeeping (keeps the normal binary busy).
    emit_arm(&mut f, r(6), &[r(9), r(10), r(11), r(12), r(9), r(10), r(11), r(12)], 3);
    f.branch(CmpOp::Ge, r(7), Operand::imm(0), then_b, else_b);
    f.select(else_b);
    emit_arm(&mut f, r(6), &[r(9), r(10), r(11), r(12), r(13), r(9)], 1);
    f.jump(join);
    f.select(then_b);
    // The critical guarded load: node word indexed by the arc cost. Its
    // address does NOT depend on r8, so only predication's old-destination
    // and guard dependences serialize it.
    f.alu(AluOp::Xor, r(5), r(6), Operand::Reg(r(20)));
    f.alu(AluOp::And, r(5), r(5), Operand::imm(TABLE - 1));
    f.alu(AluOp::Shl, r(5), r(5), Operand::imm(3));
    f.alu(AluOp::Add, r(5), r(5), Operand::Reg(regs::DATA));
    f.load(r(8), r(5), TABLE * 8);
    f.alu(AluOp::Add, r(13), r(13), Operand::Reg(r(8)));
    f.jump(join);
    f.select(join);
    f.alu(AluOp::Add, r(20), r(20), Operand::imm(1));
    f.branch(CmpOp::Lt, r(20), Operand::imm(scale), outer, exit);
    f.select(exit);
    emit_epilogue(&mut f);
    f.halt();
    Benchmark {
        name: "mcf",
        module: Module::new(vec![f.build()], 0).expect("valid module"),
        behavior: "guarded dependent loads: predication serializes what prediction overlaps",
        input_fn: |set| {
            let q = match set {
                InputSet::A => 0.001,
                InputSet::B => 0.01,
                InputSet::C => 0.05,
            };
            let n = 1u64 << 14;
            let mut mem = bias_array("mcf", set, n, q);
            let mut rng = input_rng("mcf-nodes", set_tag(set));
            mem.extend(
                count_array(&mut rng, n, 1 << 20)
                    .into_iter()
                    .map(|(a, v)| (a + n * 8, v)),
            );
            mem
        },
    }
}

/// **crafty** — search-engine integer code: one easy and one hard hammock
/// per position, plus a short occupancy-scan loop.
///
/// Paper evidence: crafty gains 16.8% vs normal branches, 0.4% vs BASE-MAX
/// (Table 5) — both predication and wish branches pay off on its
/// mixed-hardness branches.
#[must_use]
pub fn crafty(scale: i32) -> Benchmark {
    let mut f = FunctionBuilder::new("crafty");
    let e = f.entry_block();
    let outer = f.new_block();
    let t1 = f.new_block();
    let e1 = f.new_block();
    let j1 = f.new_block();
    let t2 = f.new_block();
    let e2 = f.new_block();
    let j2 = f.new_block();
    let scan = f.new_block();
    let scan_exit = f.new_block();
    let exit = f.new_block();
    f.select(e);
    emit_prologue(&mut f);
    f.movi(r(20), 0);
    f.jump(outer);
    f.select(outer);
    // Hard hammock (evaluation sign).
    emit_noisy_branch(&mut f, r(20), 1023, t1, e1);
    f.select(e1);
    emit_arm(&mut f, r(7), &[r(8), r(9), r(10), r(8), r(9), r(10)], 1);
    f.jump(j1);
    f.select(t1);
    emit_arm(&mut f, r(7), &[r(11), r(12), r(13), r(11), r(12), r(13)], 2);
    f.jump(j1);
    f.select(j1);
    // Easy hammock (in-check test, rarely true).
    emit_index(&mut f, r(2), r(20), 1023, 1024);
    f.load(r(6), r(2), 0);
    f.branch(CmpOp::Ge, r(6), Operand::imm(0), t2, e2);
    f.select(e2);
    emit_arm(&mut f, r(6), &[r(8), r(10), r(12), r(8), r(10), r(12)], 3);
    f.jump(j2);
    f.select(t2);
    emit_arm(&mut f, r(6), &[r(9), r(11), r(13), r(9), r(11), r(13)], 4);
    f.jump(j2);
    f.select(j2);
    // Occupancy scan: trip 1..=3, fairly predictable.
    f.alu(AluOp::And, r(4), r(6), Operand::imm(1));
    f.alu(AluOp::Add, r(4), r(4), Operand::imm(1));
    f.movi(r(21), 0);
    f.jump(scan);
    f.select(scan);
    f.alu(AluOp::Add, r(9), r(9), Operand::imm(1));
    f.alu(AluOp::Add, r(21), r(21), Operand::imm(1));
    f.branch(CmpOp::Lt, r(21), Operand::Reg(r(4)), scan, scan_exit);
    f.select(scan_exit);
    f.alu(AluOp::Add, r(20), r(20), Operand::imm(1));
    f.branch(CmpOp::Lt, r(20), Operand::imm(scale), outer, exit);
    f.select(exit);
    emit_epilogue(&mut f);
    f.halt();
    Benchmark {
        name: "crafty",
        module: Module::new(vec![f.build()], 0).expect("valid module"),
        behavior: "mixed-hardness hammocks (hard eval sign + easy in-check) and short scans",
        input_fn: |set| {
            let q = match set {
                InputSet::A => 0.25,
                InputSet::B => 0.40,
                InputSet::C => 0.50,
            };
            let mut mem = bias_array("crafty", set, 1024, q);
            // Second array: mostly positive (easy branch).
            let mut rng = input_rng("crafty-easy", set_tag(set));
            mem.extend(
                signed_array(&mut rng, 1024, 0.03, 100)
                    .into_iter()
                    .map(|(a, v)| (a + 1024 * 8, v)),
            );
            mem
        },
    }
}

/// **parser** — word-by-word scan: predictable dictionary hammock with
/// *small* arms (plainly predicated even in wish binaries) plus a
/// hard variable word-length loop.
///
/// Paper evidence: parser's overhead from predication is small (Fig. 2),
/// wish jumps/joins change little, but wish loops add >3% (Fig. 12).
#[must_use]
pub fn parser(scale: i32) -> Benchmark {
    let mut f = FunctionBuilder::new("parser");
    let e = f.entry_block();
    let outer = f.new_block();
    let t1 = f.new_block();
    let e1 = f.new_block();
    let j1 = f.new_block();
    let wloop = f.new_block();
    let wexit = f.new_block();
    let exit = f.new_block();
    f.select(e);
    emit_prologue(&mut f);
    f.movi(r(20), 0);
    f.jump(outer);
    f.select(outer);
    // Dictionary-hit hammock: predictable, tiny arms.
    emit_index(&mut f, r(2), r(20), 2047, 0);
    f.load(r(6), r(2), 0);
    f.branch(CmpOp::Ge, r(6), Operand::imm(0), t1, e1);
    f.select(e1);
    f.alu(AluOp::Sub, r(8), r(8), Operand::imm(1));
    f.jump(j1);
    f.select(t1);
    f.alu(AluOp::Add, r(8), r(8), Operand::imm(1));
    f.jump(j1);
    f.select(j1);
    // Word-length loop: trip 1..=5, data-dependent and unpredictable.
    emit_index(&mut f, r(2), r(20), 2047, 2048);
    f.load(r(4), r(2), 0);
    f.alu(AluOp::And, r(4), r(4), Operand::imm(3));
    f.alu(AluOp::Add, r(4), r(4), Operand::imm(1));
    f.movi(r(21), 0);
    f.jump(wloop);
    f.select(wloop);
    f.alu(AluOp::Add, r(9), r(9), Operand::Reg(r(8)));
    f.alu(AluOp::Xor, r(10), r(10), Operand::Reg(r(9)));
    f.alu(AluOp::Add, r(21), r(21), Operand::imm(1));
    f.branch(CmpOp::Lt, r(21), Operand::Reg(r(4)), wloop, wexit);
    f.select(wexit);
    f.alu(AluOp::Add, r(20), r(20), Operand::imm(1));
    f.branch(CmpOp::Lt, r(20), Operand::imm(scale), outer, exit);
    f.select(exit);
    emit_epilogue(&mut f);
    f.halt();
    Benchmark {
        name: "parser",
        module: Module::new(vec![f.build()], 0).expect("valid module"),
        behavior: "predictable dictionary hammock (tiny arms) + hard word-length loops",
        input_fn: |set| {
            let mut rng = input_rng("parser", set_tag(set));
            let mut mem = signed_array(&mut rng, 2048, 0.08, 100);
            let lens_q = match set {
                InputSet::A => 16, // lengths cluster (predictable-ish)
                InputSet::B => 64,
                InputSet::C => 997, // fully random lengths
            };
            let mut rng = input_rng("parser-len", set_tag(set));
            mem.extend(
                count_array(&mut rng, 2048, lens_q)
                    .into_iter()
                    .map(|(a, v)| (a + 2048 * 8, v)),
            );
            mem
        },
    }
}

/// **gap** — arithmetic over vectors with highly predictable guards and a
/// *large* rarely-used arm: predication is pure fetch overhead.
///
/// Paper evidence: gap's BASE-DEF loses vs normal branches; wish branches
/// recover the loss (Fig. 10, +4.9% vs normal in Table 5).
#[must_use]
pub fn gap(scale: i32) -> Benchmark {
    let mut f = FunctionBuilder::new("gap");
    let e = f.entry_block();
    let outer = f.new_block();
    let t1 = f.new_block();
    let e1 = f.new_block();
    let j1 = f.new_block();
    let exit = f.new_block();
    f.select(e);
    emit_prologue(&mut f);
    f.movi(r(20), 0);
    f.jump(outer);
    f.select(outer);
    emit_noisy_branch(&mut f, r(20), 4095, t1, e1);
    f.select(e1);
    // Rare big arm: multiprecision carry fix-up.
    emit_arm(
        &mut f,
        r(7),
        &[r(8), r(9), r(10), r(11), r(8), r(9), r(10), r(11), r(8), r(9), r(10), r(11)],
        6,
    );
    f.jump(j1);
    f.select(t1);
    // Common arm, also sizable.
    emit_arm(
        &mut f,
        r(7),
        &[r(12), r(13), r(12), r(13), r(12), r(13), r(12), r(13), r(12), r(13)],
        7,
    );
    f.jump(j1);
    f.select(j1);
    f.alu(AluOp::Add, r(20), r(20), Operand::imm(1));
    f.branch(CmpOp::Lt, r(20), Operand::imm(scale), outer, exit);
    f.select(exit);
    emit_epilogue(&mut f);
    f.halt();
    Benchmark {
        name: "gap",
        module: Module::new(vec![f.build()], 0).expect("valid module"),
        behavior: "predictable guard with large arms: predication = pure fetch overhead",
        input_fn: |set| {
            let q = match set {
                InputSet::A => 0.002,
                InputSet::B => 0.01,
                InputSet::C => 0.05,
            };
            bias_array("gap", set, 4096, q)
        },
    }
}

/// **vortex** — OO-database style code: many distinct, extremely
/// predictable small hammocks and a call-heavy structure.
///
/// Paper evidence: vortex has 0.8 mispredictions per 1K µops (Table 4);
/// wish branches gain nothing and lose slightly vs predicated binaries
/// (Table 5, −4.3%). Our compiler does not lose optimization scope across
/// wish branches, so the loss here is only the extra wish instructions.
#[must_use]
pub fn vortex(scale: i32) -> Benchmark {
    // A small helper function models vortex's dense call graph.
    let mut h = FunctionBuilder::new("vortex_helper");
    let he = h.entry_block();
    let ht = h.new_block();
    let hel = h.new_block();
    let hj = h.new_block();
    h.select(he);
    h.alu(AluOp::Add, r(9), r(9), Operand::Reg(r(6)));
    h.branch(CmpOp::Ge, r(9), Operand::imm(0), ht, hel);
    h.select(hel);
    h.alu(AluOp::Sub, r(10), r(10), Operand::imm(1));
    h.alu(AluOp::Xor, r(11), r(11), Operand::imm(2));
    h.jump(hj);
    h.select(ht);
    h.alu(AluOp::Add, r(10), r(10), Operand::imm(1));
    h.alu(AluOp::Xor, r(11), r(11), Operand::imm(4));
    h.jump(hj);
    h.select(hj);
    h.ret();

    let mut f = FunctionBuilder::new("vortex");
    let e = f.entry_block();
    let outer = f.new_block();
    // Three consecutive predictable hammocks with different sizes.
    let mut hblocks = Vec::new();
    for _ in 0..3 {
        hblocks.push((f.new_block(), f.new_block(), f.new_block()));
    }
    let call_site = f.new_block();
    let exit = f.new_block();
    f.select(e);
    emit_prologue(&mut f);
    f.movi(r(20), 0);
    f.jump(outer);
    f.select(outer);
    emit_index(&mut f, r(2), r(20), 1023, 0);
    f.load(r(6), r(2), 0);
    let (t0, e0, _j0) = hblocks[0];
    // Branch on the *rare* direction so the common path falls through —
    // the normal binary then fetches straight-line, which is what makes
    // extra wish instructions a (slight) net loss on vortex (Table 5).
    f.branch(CmpOp::Lt, r(6), Operand::imm(0), t0, e0);
    for (k, &(t, el, j)) in hblocks.iter().enumerate() {
        let arms = 2 + 2 * k; // 2, 4, 6 µops — around the N=5 threshold
        // Each hammock accumulates into its own registers so the per-move
        // dataflow stays parallel (as in real record-validation code).
        let er = r(8 + 2 * k as u8);
        let tr = r(9 + 2 * k as u8);
        f.select(el);
        emit_arm(&mut f, r(6), &vec![er; arms], k as i32);
        f.jump(j);
        f.select(t);
        emit_arm(&mut f, r(6), &vec![tr; arms], k as i32 + 1);
        f.jump(j);
        f.select(j);
        if k + 1 < hblocks.len() {
            let (nt, ne, _) = hblocks[k + 1];
            f.load(r(6), r(2), 1024 * 8 * (k as i32 + 1));
            f.branch(CmpOp::Lt, r(6), Operand::imm(0), nt, ne);
        } else {
            f.jump(call_site);
        }
    }
    f.select(call_site);
    f.call(wishbranch_ir::FuncId(1));
    f.alu(AluOp::Add, r(20), r(20), Operand::imm(1));
    f.branch(CmpOp::Lt, r(20), Operand::imm(scale), outer, exit);
    f.select(exit);
    emit_epilogue(&mut f);
    f.halt();
    Benchmark {
        name: "vortex",
        module: Module::new(vec![f.build(), h.build()], 0).expect("valid module"),
        behavior: "many distinct highly predictable hammocks + dense calls (RAS traffic)",
        input_fn: |set| {
            let mut rng = input_rng("vortex", set_tag(set));
            let p = match set {
                InputSet::A => 0.005,
                InputSet::B => 0.01,
                InputSet::C => 0.03,
            };
            let mut mem = signed_array(&mut rng, 1024, p, 100);
            for k in 1..3u64 {
                let mut rng = input_rng("vortex", set_tag(set) + 10 * k);
                mem.extend(
                    signed_array(&mut rng, 1024, p, 100)
                        .into_iter()
                        .map(|(a, v)| (a + 1024 * 8 * k, v)),
                );
            }
            mem
        },
    }
}

/// **bzip2** — run-counting loops over a data stream whose entropy is
/// strongly input-dependent.
///
/// Paper evidence: predication loses 16% on bzip2's input-A and wins 1% on
/// input-C on real hardware (Fig. 1); 90% of bzip2's dynamic wish branches
/// are wish loops (Table 4).
#[must_use]
pub fn bzip2(scale: i32) -> Benchmark {
    let mut f = FunctionBuilder::new("bzip2");
    let e = f.entry_block();
    let outer = f.new_block();
    let t1 = f.new_block();
    let e1 = f.new_block();
    let j1 = f.new_block();
    let run = f.new_block();
    let run_exit = f.new_block();
    let exit = f.new_block();
    f.select(e);
    emit_prologue(&mut f);
    f.movi(r(20), 0);
    f.jump(outer);
    f.select(outer);
    // Comparison hammock (sorting order check).
    emit_noisy_branch(&mut f, r(20), 4095, t1, e1);
    f.select(e1);
    emit_arm(&mut f, r(7), &[r(8), r(9), r(10), r(8), r(9), r(10)], 1);
    f.jump(j1);
    f.select(t1);
    emit_arm(&mut f, r(7), &[r(11), r(12), r(13), r(11), r(12), r(13)], 2);
    f.jump(j1);
    f.select(j1);
    // Run-length loop: trip = 1 + (stream byte & 7).
    emit_index(&mut f, r(2), r(20), 4095, 4096);
    f.load(r(4), r(2), 0);
    f.alu(AluOp::And, r(4), r(4), Operand::imm(7));
    f.alu(AluOp::Add, r(4), r(4), Operand::imm(1));
    f.movi(r(21), 0);
    f.jump(run);
    f.select(run);
    f.alu(AluOp::Add, r(9), r(9), Operand::imm(1));
    f.alu(AluOp::Xor, r(12), r(12), Operand::Reg(r(9)));
    f.alu(AluOp::Add, r(21), r(21), Operand::imm(1));
    f.branch(CmpOp::Lt, r(21), Operand::Reg(r(4)), run, run_exit);
    f.select(run_exit);
    f.alu(AluOp::Add, r(20), r(20), Operand::imm(1));
    f.branch(CmpOp::Lt, r(20), Operand::imm(scale), outer, exit);
    f.select(exit);
    emit_epilogue(&mut f);
    f.halt();
    Benchmark {
        name: "bzip2",
        module: Module::new(vec![f.build()], 0).expect("valid module"),
        behavior: "sort-order hammocks + run-length loops; entropy strongly input-dependent",
        input_fn: |set| {
            // input-A: structured text (easy branch, constant runs);
            // input-C: already-compressed data (coin flips, random runs).
            let q = match set {
                InputSet::A => 0.03,
                InputSet::B => 0.30,
                InputSet::C => 0.55,
            };
            let mut mem = bias_array("bzip2", set, 4096, q);
            if set == InputSet::A {
                mem.extend((0..4096u64).map(|i| (DATA_BASE as u64 + (4096 + i) * 8, 3)));
            } else {
                let mut rng = input_rng("bzip2-runs", set_tag(set));
                mem.extend(
                    count_array(&mut rng, 4096, 251)
                        .into_iter()
                        .map(|(a, v)| (a + 4096 * 8, v)),
                );
            }
            mem
        },
    }
}

/// **twolf** — placement cost comparisons: two hard hammocks with sizable
/// arms per move.
///
/// Paper evidence: twolf is the biggest wish-branch winner (29.8% vs
/// normal, 13.8% vs BASE-MAX, Table 5): its branches are hard, so both
/// predication and (better) adaptive predication pay off.
#[must_use]
pub fn twolf(scale: i32) -> Benchmark {
    let mut f = FunctionBuilder::new("twolf");
    let e = f.entry_block();
    let outer = f.new_block();
    let t1 = f.new_block();
    let e1 = f.new_block();
    let j1 = f.new_block();
    let t2 = f.new_block();
    let e2 = f.new_block();
    let j2 = f.new_block();
    let exit = f.new_block();
    f.select(e);
    emit_prologue(&mut f);
    f.movi(r(20), 0);
    f.jump(outer);
    f.select(outer);
    emit_noisy_branch(&mut f, r(20), 2047, t1, e1);
    f.select(e1);
    emit_arm(&mut f, r(7), &[r(8), r(9), r(10), r(8), r(9), r(10), r(8), r(9)], 1);
    f.jump(j1);
    f.select(t1);
    emit_arm(&mut f, r(7), &[r(11), r(12), r(13), r(11), r(12), r(13), r(11), r(12)], 2);
    f.jump(j1);
    f.select(j1);
    emit_noisy_branch(&mut f, r(9), 2047, t2, e2);
    f.select(e2);
    emit_arm(&mut f, r(7), &[r(8), r(10), r(12), r(8), r(10), r(12), r(8), r(10)], 3);
    f.jump(j2);
    f.select(t2);
    emit_arm(&mut f, r(7), &[r(9), r(11), r(13), r(9), r(11), r(13), r(9), r(11)], 4);
    f.jump(j2);
    f.select(j2);
    f.alu(AluOp::Add, r(20), r(20), Operand::imm(1));
    f.branch(CmpOp::Lt, r(20), Operand::imm(scale), outer, exit);
    f.select(exit);
    emit_epilogue(&mut f);
    f.halt();
    Benchmark {
        name: "twolf",
        module: Module::new(vec![f.build()], 0).expect("valid module"),
        behavior: "two hard cost hammocks with big arms per move: adaptive predication shines",
        input_fn: |set| {
            let q = match set {
                InputSet::A => 0.30,
                InputSet::B => 0.45,
                InputSet::C => 0.55,
            };
            bias_array("twolf", set, 2048, q)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use wishbranch_ir::Interpreter;

    #[test]
    fn all_benchmarks_build_and_run() {
        for b in suite(20) {
            for set in InputSet::ALL {
                let mut interp = Interpreter::new();
                for (a, v) in (b.input_fn)(set) {
                    interp.mem.insert(a, v);
                }
                let res = interp
                    .run(&b.module, 10_000_000)
                    .unwrap_or_else(|e| panic!("{} {set}: {e}", b.name));
                assert!(res.steps > 100, "{} did too little work", b.name);
                assert!(
                    !res.profile.is_empty(),
                    "{} must exercise branches",
                    b.name
                );
            }
        }
    }

    #[test]
    fn input_generator_names_each_benchmarks_inputs_at_any_scale() {
        for b in suite(37) {
            let gen = crate::input_generator(b.name).expect("suite benchmark");
            for set in InputSet::ALL {
                assert_eq!(gen(set), (b.input_fn)(set), "{} {set}", b.name);
            }
        }
        assert!(crate::input_generator("spec").is_none());
    }

    #[test]
    fn inputs_are_deterministic() {
        let b = gzip(10);
        assert_eq!((b.input_fn)(InputSet::B), (b.input_fn)(InputSet::B));
        assert_ne!((b.input_fn)(InputSet::A), (b.input_fn)(InputSet::C));
    }

    #[test]
    fn entropy_ordering_a_below_c() {
        // The profiled misprediction estimate must rise from input A to C
        // for the entropy-knob benchmarks.
        for b in [gzip(400), bzip2(400), twolf(400)] {
            let mut rates = Vec::new();
            for set in [InputSet::A, InputSet::C] {
                let mut interp = Interpreter::new();
                for (a, v) in (b.input_fn)(set) {
                    interp.mem.insert(a, v);
                }
                let res = interp.run(&b.module, 10_000_000).unwrap();
                let (mut misp, mut total) = (0u64, 0u64);
                for p in res.profile.values() {
                    misp += p.est_mispredicts;
                    total += p.executions();
                }
                rates.push(misp as f64 / total as f64);
            }
            assert!(
                rates[1] > rates[0] * 1.5,
                "{}: input-C must be much harder than input-A ({:?})",
                b.name,
                rates
            );
        }
    }

    #[test]
    fn mcf_branch_is_mostly_taken() {
        let b = mcf(500);
        let mut interp = Interpreter::new();
        for (a, v) in (b.input_fn)(InputSet::A) {
            interp.mem.insert(a, v);
        }
        let res = interp.run(&b.module, 10_000_000).unwrap();
        let hot = res
            .profile
            .values()
            .max_by_key(|p| p.executions())
            .unwrap();
        let _ = crate::common::OUT_BASE;
        assert!(hot.p_taken() > 0.9 || hot.p_taken() < 0.1 || hot.executions() == 500);
    }
}
