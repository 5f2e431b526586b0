//! The lockstep retirement oracle: an in-order reference executor that
//! replays a cycle simulator's *retired-instruction stream* against the
//! architectural semantics of the program, µop by µop.
//!
//! The functional reference machine ([`crate::exec::Machine`]) checks only
//! the *final* architectural state of a run — a commit-path bug whose
//! effects cancel out by the end of the program (a double rollback, a
//! stale forwarded value that is later overwritten, a wrong branch
//! direction inside a predicated region) is invisible to it. The oracle
//! closes that gap: the simulator reports every retired µop as a
//! [`RetireRecord`] (PC, effective guard value, register/predicate/memory
//! writes, branch direction, and whether the retirement was *forced* —
//! i.e. the pipeline deliberately followed a non-architectural direction
//! under wish-branch or dynamic-hammock predication), and the oracle
//! executes the same µop in commit order on a [`Machine`], through the
//! machine's one µop step, reporting the **first** divergent retirement
//! with full context. The oracle defines no semantics of its own: it adds
//! the checks below around `Machine`'s step and compares the record's
//! writes against the step's field by field. Its memory is the job's
//! shared input [`MemImage`], read in place; the machine holds only the
//! words the stream writes.
//!
//! What lockstep checking validates that a final-state fingerprint cannot:
//!
//! * the committed PC chain — every retirement must continue from the
//!   previous one (architecturally, or via a legal forced direction);
//! * each µop's effective guard value against the oracle's own predicate
//!   file at that point in commit order;
//! * every register, predicate and memory write value-by-value at the
//!   retirement where it happens, not just whatever survives to the end;
//! * that a branch retired down a non-architectural path only when the
//!   hardware had predication cover for it (a wish hint, or a
//!   hardware-injected hammock guard).
//!
//! Forced directions are the heart of wish-branch semantics (§3.2–3.5 of
//! the paper): a low-confidence wish branch retires down the *predicted*
//! path even when mispredicted, because the guarded instructions on that
//! path are architectural NOPs. The oracle therefore follows the pipeline's
//! committed path — checking that predication actually covers it — and
//! [`LockstepOracle::finish`] anchors the whole stream by comparing the
//! oracle's final state against the simulator's retired state, memory
//! through [`MemImage::first_difference`], the compare the final-state
//! check against `Machine::run_on` uses too.

use std::collections::BTreeMap;
use std::fmt;

use crate::exec::{Effects, Machine, MemImage};
use crate::insn::{BranchKind, Insn, InsnKind, WishType};
use crate::program::Program;
use crate::regs::{NUM_GPRS, NUM_PREDS};

/// One retired µop, as reported by the cycle simulator's retire stage.
///
/// The record captures the *committed* effects of the µop: everything here
/// is post-squash (wrong-path µops are never reported) and in commit
/// order, so replaying the records is an in-order walk of the program as
/// the machine architecturally executed it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetireRecord {
    /// The µop's fetch sequence number (monotone over the stream).
    pub seq: u64,
    /// Program counter (µop index) of the retired instruction.
    pub pc: u32,
    /// The PC the pipeline followed after this µop — for a forced branch,
    /// the predicted (non-architectural) direction it retired down.
    pub next_pc: u32,
    /// The effective guard value the µop retired with: the architectural
    /// qualifying predicate AND any hardware-injected (DHP) guard.
    pub guard_true: bool,
    /// For conditional branches: the architecturally correct direction.
    pub taken: bool,
    /// The µop retired following a direction other than the architectural
    /// one (legal only under wish-branch or DHP predication cover).
    pub forced: bool,
    /// The wish hint on the instruction, if any.
    pub wish: Option<WishType>,
    /// This branch was dynamically hammock-predicated (DHP): it never
    /// flushes; its arms retire under hardware-injected guards.
    pub dhp: bool,
    /// This µop carries a hardware-injected DHP guard (it sits inside a
    /// dynamically predicated hammock arm).
    pub hw_guard: bool,
    /// GPR written (register index, value), if the guard was TRUE.
    pub reg_write: Option<(u8, i64)>,
    /// Predicate registers written (index, value); `cmp2` fills both.
    pub pred_writes: [Option<(u8, bool)>; 2],
    /// Memory word written (address, value), if a TRUE-guard store.
    pub mem_write: Option<(u64, i64)>,
    /// The µop halts the program (end of the retired stream).
    pub halted: bool,
}

/// The first divergent retirement found by the oracle, with enough context
/// to act on: where in the stream, which instruction, and what differed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// Position of the offending record in the retired stream (0-based).
    pub index: usize,
    /// The record's sequence number.
    pub seq: u64,
    /// The record's program counter.
    pub pc: u32,
    /// Disassembly of the instruction at `pc` (empty if out of range).
    pub disasm: String,
    /// What diverged, with the oracle's and the simulator's view.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retirement #{} (seq {}, pc {}): {} [{}]",
            self.index, self.seq, self.pc, self.detail, self.disasm
        )
    }
}

/// The lockstep in-order reference executor: a [`Machine`] on the job's
/// input image plus the checks. Feed it every [`RetireRecord`] of a run
/// via [`step`](LockstepOracle::step), then call
/// [`finish`](LockstepOracle::finish) with the simulator's final
/// architectural state.
#[derive(Clone, Debug)]
pub struct LockstepOracle<'a> {
    program: &'a Program,
    /// The job's input, read in place; the machine holds only the words
    /// the stream wrote.
    image: &'a MemImage,
    machine: Machine,
    /// PC the next record must retire at (`None` before the first record).
    expected_pc: Option<u32>,
    /// The previous record carried a hardware DHP guard: the fetch
    /// hardware may skip over an arm boundary without a branch µop, so a
    /// PC-chain discontinuity right after it is legal.
    prev_hw_guard: bool,
    halted: bool,
    index: usize,
}

impl<'a> LockstepOracle<'a> {
    /// A fresh oracle over `program` with zeroed registers (`p0`
    /// hardwired TRUE, like every machine in the stack) and `image` as
    /// its input memory.
    #[must_use]
    pub fn new(program: &'a Program, image: &'a MemImage) -> LockstepOracle<'a> {
        LockstepOracle {
            program,
            image,
            machine: Machine::new(),
            expected_pc: None,
            prev_hw_guard: false,
            halted: false,
            index: 0,
        }
    }

    fn diverge(&self, rec: &RetireRecord, detail: String) -> Divergence {
        Divergence {
            index: self.index,
            seq: rec.seq,
            pc: rec.pc,
            disasm: self
                .program
                .get(rec.pc)
                .map(Insn::to_string)
                .unwrap_or_default(),
            detail,
        }
    }

    /// Checks one reported field against the reference step's value.
    fn expect<T: PartialEq + fmt::Debug>(
        &self,
        rec: &RetireRecord,
        what: &str,
        want: T,
        got: T,
    ) -> Result<(), Divergence> {
        if want == got {
            return Ok(());
        }
        let nop = if rec.guard_true { "" } else { " (guard FALSE)" };
        Err(self.diverge(
            rec,
            format!("{what}: oracle expects {want:?}{nop}, simulator retired {got:?}"),
        ))
    }

    /// Replays one retired record. On the first inconsistency, returns a
    /// [`Divergence`] naming what the oracle expected and what the
    /// simulator retired; the oracle is then poisoned for further use this
    /// run (state may be partially updated).
    ///
    /// # Errors
    ///
    /// The first divergence between the record and the oracle's in-order
    /// architectural execution.
    pub fn step(&mut self, rec: &RetireRecord) -> Result<(), Divergence> {
        if self.halted {
            return Err(self.diverge(rec, "retirement after halt".to_string()));
        }
        // Committed PC chain. DHP fetch hardware steers over hammock-arm
        // boundaries without a branch µop carrying the redirect, so a
        // discontinuity adjacent to a hardware-guarded µop is legal — the
        // final-state anchor still covers those regions.
        if let Some(expect) = self.expected_pc {
            if rec.pc != expect && !self.prev_hw_guard && !rec.hw_guard {
                return Err(self.diverge(
                    rec,
                    format!("committed PC chain broken: oracle expects pc {expect}"),
                ));
            }
        }
        let program = self.program;
        let Some(insn) = program.get(rec.pc) else {
            return Err(self.diverge(rec, "retired µop outside the program".to_string()));
        };

        // Guard value. With a hardware-injected guard the effective value
        // also depends on the captured (renamed) branch condition, which
        // only the pipeline holds — the oracle checks what is derivable:
        // a TRUE effective guard requires a TRUE architectural guard.
        let arch_guard = self.machine.guard_true(insn);
        if rec.hw_guard {
            if rec.guard_true && !arch_guard {
                return Err(self.diverge(
                    rec,
                    "guard: retired TRUE but the architectural qualifying predicate is FALSE"
                        .to_string(),
                ));
            }
        } else if rec.guard_true != arch_guard {
            return Err(self.diverge(
                rec,
                format!(
                    "guard: oracle predicate file says {}, simulator retired {}",
                    arch_guard, rec.guard_true
                ),
            ));
        }

        // Execute on the reference machine; a guard-false µop, branch or
        // not, is an architectural NOP.
        let fx = if rec.guard_true {
            self.machine.execute(rec.pc, insn, self.image)
        } else {
            Effects {
                next_pc: rec.pc + 1,
                ..Effects::default()
            }
        };
        let conditional = matches!(
            insn.kind,
            InsnKind::Branch {
                kind: BranchKind::Cond { .. },
                ..
            }
        );
        if rec.guard_true && conditional && rec.taken != fx.taken {
            return Err(self.diverge(
                rec,
                format!(
                    "branch direction: oracle says taken={}, simulator retired taken={}",
                    fx.taken, rec.taken
                ),
            ));
        }

        // Forced (non-architectural) directions need predication cover.
        let arch_next = fx.next_pc;
        if rec.next_pc != arch_next {
            let covered = insn.wish.is_some() || rec.dhp || rec.hw_guard;
            if !covered {
                return Err(self.diverge(
                    rec,
                    format!(
                        "followed pc {} instead of architectural {} with no \
                         wish/DHP predication cover",
                        rec.next_pc, arch_next
                    ),
                ));
            }
            if !rec.forced {
                return Err(self.diverge(
                    rec,
                    format!(
                        "followed pc {} instead of architectural {} but the \
                         retirement was not flagged forced",
                        rec.next_pc, arch_next
                    ),
                ));
            }
        } else if rec.forced {
            return Err(self.diverge(
                rec,
                "flagged forced but followed the architectural direction".to_string(),
            ));
        }

        // Every architectural write, value by value, and the halt flag.
        self.expect(rec, "register write", fx.reg_write, rec.reg_write)?;
        self.expect(rec, "predicate write", fx.pred_writes, rec.pred_writes)?;
        self.expect(rec, "memory write", fx.mem_write, rec.mem_write)?;
        self.expect(rec, "halt flag", fx.halted, rec.halted)?;

        self.halted = fx.halted;
        self.expected_pc = Some(rec.next_pc);
        self.prev_hw_guard = rec.hw_guard;
        self.index += 1;
        Ok(())
    }

    /// Final-state anchor: the stream must have halted, and the oracle's
    /// architectural state must match the simulator's retired state
    /// exactly (registers, predicates, and every memory word — the input
    /// image overlaid by the stream's writes).
    ///
    /// # Errors
    ///
    /// A [`Divergence`] (with `index`/`seq`/`pc` of the last retirement)
    /// naming the first differing register, predicate or memory word.
    pub fn finish(
        &self,
        final_regs: &[i64; NUM_GPRS],
        final_preds: &[bool; NUM_PREDS],
        final_mem: &BTreeMap<u64, i64>,
    ) -> Result<(), Divergence> {
        let end = |detail: String| Divergence {
            index: self.index,
            seq: 0,
            pc: self.expected_pc.unwrap_or(0),
            disasm: String::new(),
            detail,
        };
        if !self.halted {
            return Err(end("retired stream ended without a halt".to_string()));
        }
        for (i, (&got, &want)) in final_regs.iter().zip(&self.machine.regs).enumerate() {
            if got != want {
                return Err(end(format!(
                    "final state: r{i} simulator {got}, oracle {want}"
                )));
            }
        }
        for (i, (&got, &want)) in final_preds.iter().zip(&self.machine.preds).enumerate() {
            if got != want {
                return Err(end(format!(
                    "final state: p{i} simulator {got}, oracle {want}"
                )));
            }
        }
        let written: BTreeMap<u64, i64> = self.machine.mem.iter().map(|(&a, &v)| (a, v)).collect();
        match self.image.first_difference(final_mem, &written) {
            None => Ok(()),
            Some((a, got, want)) => Err(end(format!(
                "final state: mem[{a:#x}] simulator {got:?}, oracle {want:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, CmpOp, Operand};
    use crate::program::ProgramBuilder;
    use crate::regs::{Gpr, PredReg};

    fn r(i: u8) -> Gpr {
        Gpr::new(i)
    }
    fn p(i: u8) -> PredReg {
        PredReg::new(i)
    }

    /// A straight-line record with sensible defaults.
    fn rec(seq: u64, pc: u32) -> RetireRecord {
        RetireRecord {
            seq,
            pc,
            next_pc: pc + 1,
            guard_true: true,
            taken: false,
            forced: false,
            wish: None,
            dhp: false,
            hw_guard: false,
            reg_write: None,
            pred_writes: [None, None],
            mem_write: None,
            halted: false,
        }
    }

    /// movi r1,5 ; cmp p1 = r1==5 ; (p1) add r2 = r1+1 ; st r2 -> [r0+8] ; halt
    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Insn::mov_imm(r(1), 5));
        b.push(Insn::cmp(CmpOp::Eq, p(1), r(1), Operand::imm(5)));
        b.push(Insn::alu(AluOp::Add, r(2), r(1), Operand::imm(1)).guarded(p(1)));
        b.push(Insn::store(r(2), r(0), 8));
        b.push(Insn::halt());
        b.build()
    }

    fn sample_stream() -> Vec<RetireRecord> {
        let mut s = vec![rec(1, 0), rec(2, 1), rec(3, 2), rec(4, 3), rec(5, 4)];
        s[0].reg_write = Some((1, 5));
        s[1].pred_writes[0] = Some((1, true));
        s[2].reg_write = Some((2, 6));
        s[3].mem_write = Some((8, 6));
        s[4].halted = true;
        s
    }

    #[test]
    fn faithful_stream_replays_clean() {
        let prog = sample_program();
        let empty = MemImage::default();
        let mut oracle = LockstepOracle::new(&prog, &empty);
        for record in sample_stream() {
            oracle.step(&record).expect("faithful record");
        }
        let mut regs = [0i64; NUM_GPRS];
        regs[1] = 5;
        regs[2] = 6;
        let mut preds = [false; NUM_PREDS];
        preds[0] = true;
        preds[1] = true;
        let mem: BTreeMap<u64, i64> = [(8, 6)].into_iter().collect();
        oracle.finish(&regs, &preds, &mem).expect("final state");
    }

    #[test]
    fn wrong_register_value_is_caught_at_the_retirement() {
        let prog = sample_program();
        let empty = MemImage::default();
        let mut oracle = LockstepOracle::new(&prog, &empty);
        let mut stream = sample_stream();
        stream[2].reg_write = Some((2, 7)); // should be 6
        oracle.step(&stream[0]).unwrap();
        oracle.step(&stream[1]).unwrap();
        let d = oracle.step(&stream[2]).unwrap_err();
        assert_eq!(d.index, 2);
        assert_eq!(d.pc, 2);
        assert!(d.detail.contains("register write"), "{d}");
    }

    #[test]
    fn broken_pc_chain_is_caught() {
        let prog = sample_program();
        let empty = MemImage::default();
        let mut oracle = LockstepOracle::new(&prog, &empty);
        let stream = sample_stream();
        oracle.step(&stream[0]).unwrap();
        let d = oracle.step(&stream[2]).unwrap_err(); // skips pc 1
        assert!(d.detail.contains("PC chain"), "{d}");
    }

    #[test]
    fn wrong_guard_value_is_caught() {
        let prog = sample_program();
        let empty = MemImage::default();
        let mut oracle = LockstepOracle::new(&prog, &empty);
        let mut stream = sample_stream();
        stream[2].guard_true = false; // p1 is architecturally TRUE here
        stream[2].reg_write = None;
        oracle.step(&stream[0]).unwrap();
        oracle.step(&stream[1]).unwrap();
        let d = oracle.step(&stream[2]).unwrap_err();
        assert!(d.detail.contains("guard"), "{d}");
    }

    #[test]
    fn unforced_wrong_direction_is_caught() {
        let mut b = ProgramBuilder::new();
        b.push(Insn::cmp(CmpOp::Eq, p(1), r(1), Operand::imm(0))); // p1 = true
        b.push(Insn::branch(BranchKind::cond(p(1), true), 3));
        b.push(Insn::halt());
        b.push(Insn::halt());
        let prog = b.build();
        let empty = MemImage::default();
        let mut oracle = LockstepOracle::new(&prog, &empty);
        let mut c = rec(1, 0);
        c.pred_writes[0] = Some((1, true));
        oracle.step(&c).unwrap();
        let mut br = rec(2, 1);
        br.taken = true;
        br.next_pc = 2; // fell through a taken normal branch: illegal
        let d = oracle.step(&br).unwrap_err();
        assert!(d.detail.contains("predication cover"), "{d}");
    }

    #[test]
    fn forced_wish_branch_direction_is_legal() {
        // wish.jump predicted not-taken but actually taken: retires forced
        // down the fall-through, whose instructions are guarded.
        let mut b = ProgramBuilder::new();
        b.push(Insn::cmp2(CmpOp::Eq, p(1), p(2), r(1), Operand::imm(0))); // p1=t, p2=f
        b.push(Insn::branch(BranchKind::cond(p(1), true), 4).with_wish(WishType::Jump));
        b.push(Insn::mov_imm(r(3), 9).guarded(p(2))); // guard-false on this path
        b.push(Insn::halt());
        b.push(Insn::halt());
        let prog = b.build();
        let empty = MemImage::default();
        let mut oracle = LockstepOracle::new(&prog, &empty);
        let mut c = rec(1, 0);
        c.pred_writes = [Some((1, true)), Some((2, false))];
        oracle.step(&c).unwrap();
        let mut br = rec(2, 1);
        br.taken = true;
        br.forced = true;
        br.next_pc = 2; // predicted fall-through, kept under wish cover
        br.wish = Some(WishType::Jump);
        oracle.step(&br).unwrap();
        let mut nop = rec(3, 2);
        nop.guard_true = false;
        oracle.step(&nop).unwrap();
        let mut h = rec(4, 3);
        h.halted = true;
        oracle.step(&h).unwrap();
        // r3's guarded write never happened: the final state is all zero
        // registers beside the compare's two predicates.
        let mut preds = [false; NUM_PREDS];
        preds[0] = true;
        preds[1] = true;
        oracle
            .finish(&[0; NUM_GPRS], &preds, &BTreeMap::new())
            .expect("forced stream anchors");
    }

    #[test]
    fn guard_false_write_is_caught() {
        let prog = sample_program();
        let empty = MemImage::default();
        let mut oracle = LockstepOracle::new(&prog, &empty);
        let mut bad = rec(1, 0);
        bad.guard_true = true;
        bad.reg_write = Some((1, 5));
        oracle.step(&bad).unwrap();
        let mut c = rec(2, 1);
        c.pred_writes[0] = Some((1, true));
        oracle.step(&c).unwrap();
        let mut g = rec(3, 2);
        g.guard_true = false; // wrong: p1 is TRUE — caught as a guard mismatch
        g.reg_write = Some((2, 6));
        let d = oracle.step(&g).unwrap_err();
        assert!(d.detail.contains("guard"), "{d}");
    }

    #[test]
    fn missing_halt_fails_finish() {
        let prog = sample_program();
        let empty = MemImage::default();
        let oracle = LockstepOracle::new(&prog, &empty);
        let regs = [0i64; NUM_GPRS];
        let mut preds = [false; NUM_PREDS];
        preds[0] = true;
        let d = oracle.finish(&regs, &preds, &BTreeMap::new()).unwrap_err();
        assert!(d.detail.contains("halt"), "{d}");
    }

    #[test]
    fn image_words_are_read_in_place_and_anchor_final_memory() {
        // movi r1,16 ; ld r2 = [r1+0] ; st r2 -> [r1+8] ; halt — on an
        // image holding 0x10, 0x18 and 0x20.
        let mut b = ProgramBuilder::new();
        b.push(Insn::mov_imm(r(1), 16));
        b.push(Insn::load(r(2), r(1), 0));
        b.push(Insn::store(r(2), r(1), 8));
        b.push(Insn::halt());
        let prog = b.build();
        let image = MemImage::from_preload(vec![(0x10, 41), (0x18, 5), (0x20, 7)]);
        let mut stream = vec![rec(1, 0), rec(2, 1), rec(3, 2), rec(4, 3)];
        stream[0].reg_write = Some((1, 16));
        stream[1].reg_write = Some((2, 41)); // read from the image
        stream[2].mem_write = Some((0x18, 41));
        stream[3].halted = true;
        let mut oracle = LockstepOracle::new(&prog, &image);
        for record in &stream {
            oracle.step(record).expect("faithful record");
        }
        let mut regs = [0i64; NUM_GPRS];
        regs[1] = 16;
        regs[2] = 41;
        let mut preds = [false; NUM_PREDS];
        preds[0] = true;
        let good: BTreeMap<u64, i64> = [(0x10, 41), (0x18, 41), (0x20, 7)].into();
        oracle.finish(&regs, &preds, &good).expect("final state");

        // An untouched image word missing from the retired memory.
        let mut missing = good.clone();
        missing.remove(&0x20);
        let d = oracle.finish(&regs, &preds, &missing).unwrap_err();
        assert!(d.detail.contains("mem[0x20]"), "{d}");
        // The stored-over word still holding its input value.
        let mut stale = good.clone();
        stale.insert(0x18, 5);
        let d = oracle.finish(&regs, &preds, &stale).unwrap_err();
        assert!(d.detail.contains("mem[0x18]"), "{d}");
    }
}
