//! Functional (architectural) execution of µop programs.
//!
//! [`Machine`] executes a [`crate::Program`] in order with exact
//! architectural semantics — including full predication — but no timing.
//! It is the reference the cycle simulator's retired state is checked
//! against, and the oracle the compiler's binary variants are validated
//! with: every variant of the same IR module must leave identical memory.
//!
//! A program's input can live in a shared, read-only [`MemImage`]
//! instead of the machine's own map ([`Machine::run_on`]): loads read the
//! machine's written words first and the image second, so a run touches
//! only the words it writes, and [`MemImage::overlay`] rebuilds the full
//! final memory in address order without copying the image.
//!
//! Guard semantics are the C-style conversion of the paper's §2.1 viewed
//! architecturally: a µop whose qualifying predicate reads FALSE changes no
//! architectural state (registers keep their old values, stores are
//! suppressed, branches fall through).
//!
//! `Machine`'s one step (`execute`, one TRUE-guard µop and its writes) is
//! the crate's only definition of µop semantics: [`Machine::run_on`] loops
//! over it, and the lockstep oracle ([`crate::LockstepOracle`]) runs a
//! `Machine` and compares each retired µop's writes against that step.
//! [`MemImage::first_difference`] is the final-memory compare both
//! checks share.

use crate::insn::{BranchKind, Insn, InsnKind};
use crate::program::Program;
use crate::regs::{Gpr, PredReg, NUM_GPRS, NUM_PREDS};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// A read-only memory image: `(address, value)` words sorted by address,
/// at most one per address. Build one per input with
/// [`MemImage::from_preload`] and share it between the simulator's
/// preload, the reference run and the final-state check.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MemImage {
    words: Vec<(u64, i64)>,
}

impl MemImage {
    /// Normalises a preload list — any order, duplicates allowed — into an
    /// image. A duplicated address keeps its last value, exactly as
    /// inserting the list in order into a map would.
    #[must_use]
    pub fn from_preload(mut words: Vec<(u64, i64)>) -> MemImage {
        // Stable, so duplicates stay in list order; `dedup_by` then folds
        // each run of equal addresses into its first slot, last value
        // winning.
        words.sort_by_key(|&(addr, _)| addr);
        words.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        MemImage { words }
    }

    /// The words, sorted by address.
    #[must_use]
    pub fn words(&self) -> &[(u64, i64)] {
        &self.words
    }

    /// The value at `addr`, if the image holds it.
    #[inline]
    #[must_use]
    pub fn get(&self, addr: u64) -> Option<i64> {
        self.words
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.words[i].1)
    }

    /// The image overlaid by `writes` (a run's written words), in address
    /// order: a written word replaces the image's value at its address.
    /// Collected into a map, this equals the final memory of a run whose
    /// machine was preloaded with the image.
    pub fn overlay<'a>(
        &'a self,
        writes: &'a BTreeMap<u64, i64>,
    ) -> impl Iterator<Item = (u64, i64)> + 'a {
        merge_by_address(
            self.words.iter().copied(),
            writes.iter().map(|(&a, &v)| (a, v)),
        )
        .map(|(addr, image, written)| (addr, written.or(image).unwrap_or_default()))
    }

    /// The lowest address where `retired` (a full final memory) differs
    /// from the image overlaid by `written` (a reference run's own words),
    /// as `(addr, retired value, expected value)`; `None` when they agree
    /// word for word. One ordered walk, no copy of the image.
    #[must_use]
    pub fn first_difference(
        &self,
        retired: &BTreeMap<u64, i64>,
        written: &BTreeMap<u64, i64>,
    ) -> Option<(u64, Option<i64>, Option<i64>)> {
        merge_by_address(retired.iter().map(|(&a, &v)| (a, v)), self.overlay(written))
            .find(|&(_, got, want)| got != want)
    }
}

/// Walks two address-sorted word streams (one word per address each) in
/// one ordered pass, yielding every address of either with its value in
/// `a` and in `b`.
pub fn merge_by_address(
    a: impl Iterator<Item = (u64, i64)>,
    b: impl Iterator<Item = (u64, i64)>,
) -> impl Iterator<Item = (u64, Option<i64>, Option<i64>)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(&(x, _)), Some(&(y, _))) => x.cmp(&y),
        };
        match order {
            Ordering::Less => a.next().map(|(addr, v)| (addr, Some(v), None)),
            Ordering::Greater => b.next().map(|(addr, v)| (addr, None, Some(v))),
            Ordering::Equal => {
                let (addr, va) = a.next()?;
                let (_, vb) = b.next()?;
                Some((addr, Some(va), Some(vb)))
            }
        }
    })
}

/// Errors from [`Machine::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// Control transferred outside the program image.
    PcOutOfRange {
        /// The bad µop index.
        pc: u32,
    },
    /// The step budget was exhausted before `halt`.
    StepLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc} outside program image"),
            ExecError::StepLimitExceeded { limit } => {
                write!(f, "program did not halt within {limit} µops")
            }
        }
    }
}

impl Error for ExecError {}

/// Architectural state of one functional run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExecResult {
    /// Retired µops (guard-false µops count — they are fetched NOPs).
    pub steps: u64,
    /// Retired µops whose guard read FALSE (architectural NOPs).
    pub guard_false_steps: u64,
    /// Final general registers.
    pub regs: [i64; NUM_GPRS],
    /// Final predicate registers.
    pub preds: [bool; NUM_PREDS],
    /// The machine's own final memory, sorted: every word for
    /// [`Machine::run`]; for [`Machine::run_on`], only what the machine
    /// held itself — its preloaded words and the words the program wrote —
    /// with the image left out (see [`MemImage::overlay`]).
    pub mem: BTreeMap<u64, i64>,
}

/// A simple in-order architectural µop machine.
#[derive(Clone, Debug)]
pub struct Machine {
    /// General registers; pre-set to pass program inputs.
    pub regs: [i64; NUM_GPRS],
    /// Predicate registers (`p0` stays TRUE regardless of writes).
    pub preds: [bool; NUM_PREDS],
    /// Sparse data memory; pre-populate with input arrays.
    pub mem: HashMap<u64, i64>,
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

impl Machine {
    /// Creates a machine with zeroed registers, FALSE predicates (except
    /// `p0`), and empty memory.
    #[must_use]
    pub fn new() -> Machine {
        let mut preds = [false; NUM_PREDS];
        preds[0] = true;
        Machine {
            regs: [0; NUM_GPRS],
            preds,
            mem: HashMap::new(),
        }
    }

    #[inline]
    fn reg(&self, r: Gpr) -> i64 {
        self.regs[r.index()]
    }

    #[inline]
    fn operand(&self, op: crate::Operand) -> i64 {
        match op {
            crate::Operand::Reg(r) => self.reg(r),
            crate::Operand::Imm(i) => i64::from(i),
        }
    }

    /// Whether `insn`'s qualifying predicate reads TRUE (unguarded µops
    /// always execute).
    #[inline]
    pub(crate) fn guard_true(&self, insn: &Insn) -> bool {
        insn.guard.is_none_or(|g| self.preds[g.index()])
    }

    /// Executes `insn` at `pc` with a TRUE guard and applies its writes:
    /// the one definition of µop semantics. A load reads the machine's own
    /// words first and `image` second; a store writes the machine's words
    /// only. `p0` writes are reported but not applied.
    #[inline]
    pub(crate) fn execute(&mut self, pc: u32, insn: &Insn, image: &MemImage) -> Effects {
        let mut fx = Effects {
            next_pc: pc + 1,
            ..Effects::default()
        };
        let pred = |dst: PredReg, v: bool| Some((dst.index() as u8, v));
        match insn.kind {
            InsnKind::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                fx.reg_write = Some((
                    dst.index() as u8,
                    op.apply(self.reg(src1), self.operand(src2)),
                ))
            }
            InsnKind::MovImm { dst, imm } => fx.reg_write = Some((dst.index() as u8, imm)),
            InsnKind::Cmp {
                op,
                dst,
                src1,
                src2,
            } => fx.pred_writes[0] = pred(dst, op.apply(self.reg(src1), self.operand(src2))),
            InsnKind::Cmp2 {
                op,
                dst_t,
                dst_f,
                src1,
                src2,
            } => {
                let v = op.apply(self.reg(src1), self.operand(src2));
                fx.pred_writes = [pred(dst_t, v), pred(dst_f, !v)];
            }
            InsnKind::PredRR {
                op,
                dst,
                src1,
                src2,
            } => {
                let v = op.apply(self.preds[src1.index()], self.preds[src2.index()]);
                fx.pred_writes[0] = pred(dst, v);
            }
            InsnKind::PredNot { dst, src } => {
                fx.pred_writes[0] = pred(dst, !self.preds[src.index()])
            }
            InsnKind::PredSet { dst, value } => fx.pred_writes[0] = pred(dst, value),
            InsnKind::Load { dst, base, offset } => {
                let addr = self.reg(base).wrapping_add(i64::from(offset)) as u64;
                let v = match self.mem.get(&addr) {
                    Some(&v) => v,
                    None => image.get(addr).unwrap_or(0),
                };
                fx.reg_write = Some((dst.index() as u8, v));
            }
            InsnKind::Store { src, base, offset } => {
                let addr = self.reg(base).wrapping_add(i64::from(offset)) as u64;
                fx.mem_write = Some((addr, self.reg(src)));
            }
            InsnKind::Branch { kind, target } => match kind {
                BranchKind::Cond { pred, sense } => {
                    fx.taken = self.preds[pred.index()] == sense;
                    if fx.taken {
                        fx.next_pc = target;
                    }
                }
                BranchKind::Uncond => fx.next_pc = target,
                BranchKind::Call => {
                    fx.reg_write = Some((Gpr::LINK.index() as u8, i64::from(pc + 1)));
                    fx.next_pc = target;
                }
                BranchKind::Ret => fx.next_pc = self.reg(Gpr::LINK) as u32,
                BranchKind::Indirect { target: reg } => fx.next_pc = self.reg(reg) as u32,
            },
            InsnKind::Halt => fx.halted = true,
            InsnKind::Nop => {}
        }
        if let Some((r, v)) = fx.reg_write {
            self.regs[usize::from(r)] = v;
        }
        for (p, v) in fx.pred_writes.into_iter().flatten() {
            if p != 0 {
                self.preds[usize::from(p)] = v;
            }
        }
        if let Some((addr, v)) = fx.mem_write {
            self.mem.insert(addr, v);
        }
        fx
    }

    /// Runs `program` from its entry to `halt`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if control leaves the image or the step budget
    /// is exhausted.
    pub fn run(&mut self, program: &Program, max_steps: u64) -> Result<ExecResult, ExecError> {
        self.run_on(program, &MemImage::default(), max_steps)
    }

    /// Runs `program` from its entry to `halt` with `image` as read-only
    /// backing memory: a load reads the machine's own map first and the
    /// image second, a store writes the machine's map only. The result's
    /// `mem` therefore holds only the machine's own words; overlay them on
    /// the image ([`MemImage::overlay`]) for the full final memory.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_on(
        &mut self,
        program: &Program,
        image: &MemImage,
        max_steps: u64,
    ) -> Result<ExecResult, ExecError> {
        let mut pc = program.entry();
        let mut steps: u64 = 0;
        let mut guard_false_steps: u64 = 0;
        loop {
            let Some(insn) = program.get(pc) else {
                return Err(ExecError::PcOutOfRange { pc });
            };
            steps += 1;
            if steps > max_steps {
                return Err(ExecError::StepLimitExceeded { limit: max_steps });
            }
            if !self.guard_true(insn) {
                guard_false_steps += 1;
                pc += 1;
                continue;
            }
            let fx = self.execute(pc, insn, image);
            if fx.halted {
                return Ok(ExecResult {
                    steps,
                    guard_false_steps,
                    regs: self.regs,
                    preds: self.preds,
                    mem: self.mem.iter().map(|(&k, &v)| (k, v)).collect(),
                });
            }
            pc = fx.next_pc;
        }
    }
}

/// The architectural effects of one executed µop ([`Machine::execute`]):
/// the next PC, a conditional branch's direction, and the writes, whose
/// fields have exactly the shape of [`crate::RetireRecord`]'s so the
/// lockstep oracle compares them field by field. The default (plus a
/// fall-through `next_pc`) is a guard-FALSE µop: an architectural NOP.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Effects {
    pub next_pc: u32,
    pub taken: bool,
    pub reg_write: Option<(u8, i64)>,
    pub pred_writes: [Option<(u8, bool)>; 2],
    pub mem_write: Option<(u64, i64)>,
    pub halted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, BranchKind, CmpOp, Insn, Operand, ProgramBuilder, WishType};

    fn r(i: u8) -> Gpr {
        Gpr::new(i)
    }
    fn p(i: u8) -> PredReg {
        PredReg::new(i)
    }

    #[test]
    fn guarded_false_is_architectural_nop() {
        let prog = Program::from_insns(vec![
            Insn::mov_imm(r(1), 5),
            Insn::cmp(CmpOp::Lt, p(1), r(1), Operand::imm(0)), // p1 = false
            Insn::mov_imm(r(2), 99).guarded(p(1)),
            Insn::store(r(1), r(1), 0).guarded(p(1)),
            Insn::halt(),
        ]);
        let mut m = Machine::new();
        let res = m.run(&prog, 100).unwrap();
        assert_eq!(res.regs[2], 0);
        assert!(res.mem.is_empty());
        assert_eq!(res.guard_false_steps, 2);
    }

    #[test]
    fn cmp2_writes_both_polarities() {
        let prog = Program::from_insns(vec![
            Insn::mov_imm(r(1), 3),
            Insn::cmp2(CmpOp::Lt, p(1), p(2), r(1), Operand::imm(5)),
            Insn::mov_imm(r(2), 10).guarded(p(1)),
            Insn::mov_imm(r(2), 20).guarded(p(2)),
            Insn::halt(),
        ]);
        let res = Machine::new().run(&prog, 100).unwrap();
        assert_eq!(res.regs[2], 10);
        assert!(res.preds[1]);
        assert!(!res.preds[2]);
    }

    #[test]
    fn wish_branch_executes_as_normal_branch() {
        let mut b = ProgramBuilder::new();
        let target = b.label("T");
        b.push(Insn::mov_imm(r(1), 1));
        b.push(Insn::cmp(CmpOp::Eq, p(1), r(1), Operand::imm(1)));
        b.push_cond_branch(p(1), true, target, Some(WishType::Jump));
        b.push(Insn::mov_imm(r(2), 111)); // skipped
        b.bind(target);
        b.push(Insn::halt());
        let res = Machine::new().run(&b.build(), 100).unwrap();
        assert_eq!(res.regs[2], 0);
    }

    #[test]
    fn call_and_ret() {
        let mut b = ProgramBuilder::new();
        let f = b.label("f");
        b.push_call(f);
        b.push(Insn::halt());
        b.bind(f);
        b.push(Insn::alu(AluOp::Add, r(1), r(1), Operand::imm(7)));
        b.push(Insn::branch(BranchKind::Ret, 0));
        let res = Machine::new().run(&b.build(), 100).unwrap();
        assert_eq!(res.regs[1], 7);
        assert_eq!(res.regs[Gpr::LINK.index()], 1);
    }

    #[test]
    fn p0_writes_are_ignored() {
        let prog = Program::from_insns(vec![
            Insn::pred_set(PredReg::TRUE, false),
            Insn::mov_imm(r(1), 4).guarded(PredReg::TRUE),
            Insn::halt(),
        ]);
        let res = Machine::new().run(&prog, 100).unwrap();
        assert!(res.preds[0]);
        assert_eq!(res.regs[1], 4);
    }

    #[test]
    fn step_limit() {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.bind(top);
        b.push_jump(top);
        let mut m = Machine::new();
        assert_eq!(
            m.run(&b.build(), 10),
            Err(ExecError::StepLimitExceeded { limit: 10 })
        );
    }

    #[test]
    fn run_on_reads_image_and_keeps_only_written_words() {
        // r2 = mem[16] + 1; mem[24] = r2; mem[16] = 0; r3 = mem[16].
        let prog = Program::from_insns(vec![
            Insn::mov_imm(r(1), 16),
            Insn::load(r(2), r(1), 0),
            Insn::alu(AluOp::Add, r(2), r(2), Operand::imm(1)),
            Insn::store(r(2), r(1), 8),
            Insn::store(r(0), r(1), 0),
            Insn::load(r(3), r(1), 0),
            Insn::halt(),
        ]);
        let image = MemImage::from_preload(vec![(16, 41), (32, 7)]);
        let res = Machine::new().run_on(&prog, &image, 100).unwrap();
        assert_eq!(res.regs[2], 42);
        assert_eq!(res.regs[3], 0, "a written word shadows the image");
        assert_eq!(res.mem, BTreeMap::from([(16, 0), (24, 42)]));
        let full: BTreeMap<u64, i64> = image.overlay(&res.mem).collect();
        assert_eq!(full, BTreeMap::from([(16, 0), (24, 42), (32, 7)]));
    }

    #[test]
    fn guarded_branch_false_falls_through() {
        let mut b = ProgramBuilder::new();
        let t = b.label("t");
        b.push_branch_to(
            {
                let mut i = Insn::branch(BranchKind::Uncond, 0);
                i.guard = Some(p(1)); // p1 is false initially
                i
            },
            t,
        );
        b.push(Insn::mov_imm(r(1), 1));
        b.bind(t);
        b.push(Insn::halt());
        let res = Machine::new().run(&b.build(), 100).unwrap();
        assert_eq!(res.regs[1], 1);
    }
}
