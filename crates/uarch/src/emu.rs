//! The speculative front-end emulator: architectural state along the
//! *fetched* path, with an undo log for pipeline flushes.

use std::collections::{HashMap, VecDeque};
use wishbranch_isa::{BranchKind, Gpr, Insn, InsnKind, PredReg, NUM_GPRS, NUM_PREDS};

/// What one fetched µop did, as seen by the emulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct StepInfo {
    /// Value the qualifying predicate read (TRUE for unguarded µops).
    pub guard_true: bool,
    /// For conditional branches: the architecturally correct direction
    /// (predicate-implied). Meaningless otherwise.
    pub actual_taken: bool,
    /// For control µops: the architecturally correct next pc.
    pub actual_next: u32,
    /// The pc the emulator actually followed (fetch's choice).
    pub followed_next: u32,
    /// Data address touched, if this is a load/store with a TRUE guard.
    pub mem_addr: Option<u64>,
    /// Whether this is a store whose guard was TRUE (will commit).
    pub is_store: bool,
    /// The µop halts the program.
    pub halted: bool,
    /// Values written to predicate registers (for `cmp2`, `[t, f]`).
    pub pred_values: [Option<bool>; 2],
    /// GPR written (index, value) with a TRUE guard — ALU/mov/load results
    /// and a call's link-register write. Feeds the retirement oracle.
    pub reg_write: Option<(u8, i64)>,
    /// Value stored by a TRUE-guard store (address is in `mem_addr`).
    pub store_value: Option<i64>,
}

// µops that touch no architectural state (branches, nops, guard-false
// µops) log nothing at all: `rollback_after` and `commit_through` are
// keyed purely on sequence numbers, never on record positions, so gaps
// in the log are harmless and the common no-write case stays free.
#[derive(Clone, Copy, Debug)]
enum Undo {
    Reg(u8, i64),
    Pred(u8, bool),
    Mem(u64, Option<i64>),
}

/// Log of a data-memory word: 2^PAGE_BITS words per page.
const PAGE_BITS: u32 = 8;
const PAGE_WORDS: usize = 1 << PAGE_BITS;
const PRESENT_WORDS: usize = PAGE_WORDS / 64;

/// One page of speculative data memory. `present` tracks which words have
/// ever been stored to (and not rolled back): a word that is absent reads
/// as 0 for loads, but is *omitted* from the final-state dump, exactly
/// like the `HashMap` this store replaced. Absent words are kept zeroed so
/// the load path never has to consult the bitmap.
#[derive(Clone, Debug)]
struct Page {
    number: u64,
    present: [u64; PRESENT_WORDS],
    /// Out of line, so growing or compacting the page table moves 48-byte
    /// records, never 2 KB of words (inline words raised peak RSS by a
    /// third on a served workload).
    words: Box<[i64; PAGE_WORDS]>,
}

/// Paged flat store for speculative data memory. Loads and stores resolve
/// to a direct array access after a one-entry last-page cache (hit for the
/// overwhelmingly common same-page access streams) or a page-table lookup.
#[derive(Clone, Debug, Default)]
pub(crate) struct PagedMem {
    pages: Vec<Page>,
    /// Page number → slot in `pages`.
    index: HashMap<u64, u32>,
    /// Last page touched: (page number, slot).
    last: Option<(u64, u32)>,
}

impl PagedMem {
    fn slot(&mut self, page_no: u64) -> Option<u32> {
        if let Some((n, s)) = self.last {
            if n == page_no {
                return Some(s);
            }
        }
        let s = *self.index.get(&page_no)?;
        self.last = Some((page_no, s));
        Some(s)
    }

    fn slot_or_create(&mut self, page_no: u64) -> u32 {
        if let Some(s) = self.slot(page_no) {
            return s;
        }
        let s = u32::try_from(self.pages.len()).expect("page count fits u32");
        self.pages.push(Page {
            number: page_no,
            present: [0; PRESENT_WORDS],
            words: Box::new([0; PAGE_WORDS]),
        });
        self.index.insert(page_no, s);
        self.last = Some((page_no, s));
        s
    }

    /// Value at `addr`, defaulting to 0 when never stored (the pre-paging
    /// behavior of `HashMap::get(..).unwrap_or(0)`).
    pub(crate) fn load(&mut self, addr: u64) -> i64 {
        match self.slot(addr >> PAGE_BITS) {
            Some(s) => self.pages[s as usize].words[addr as usize & (PAGE_WORDS - 1)],
            None => 0,
        }
    }

    /// Value at `addr` if a store to it is live, else `None`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn get(&self, addr: u64) -> Option<i64> {
        let s = *self.index.get(&(addr >> PAGE_BITS))?;
        let p = &self.pages[s as usize];
        let o = addr as usize & (PAGE_WORDS - 1);
        (p.present[o / 64] & (1 << (o % 64)) != 0).then(|| p.words[o])
    }

    /// Stores `v` at `addr`, returning the previous live value (the undo
    /// record) — `None` when the word was absent.
    pub(crate) fn insert(&mut self, addr: u64, v: i64) -> Option<i64> {
        let s = self.slot_or_create(addr >> PAGE_BITS) as usize;
        let p = &mut self.pages[s];
        let o = addr as usize & (PAGE_WORDS - 1);
        let bit = 1u64 << (o % 64);
        let old = (p.present[o / 64] & bit != 0).then(|| p.words[o]);
        p.present[o / 64] |= bit;
        p.words[o] = v;
        old
    }

    /// Marks `addr` absent again (rollback of a first-touch store). The
    /// word is re-zeroed so loads keep reading 0 without a bitmap check.
    /// A page whose last live word is removed is reclaimed — without this,
    /// long fuzz runs that roll back first-touch stores to ever-new pages
    /// grow the page table monotonically.
    pub(crate) fn remove(&mut self, addr: u64) {
        let page_no = addr >> PAGE_BITS;
        if let Some(s) = self.slot(page_no) {
            let p = &mut self.pages[s as usize];
            let o = addr as usize & (PAGE_WORDS - 1);
            p.present[o / 64] &= !(1u64 << (o % 64));
            p.words[o] = 0;
            if p.present.iter().all(|&m| m == 0) {
                self.pages.swap_remove(s as usize);
                self.index.remove(&page_no);
                if let Some(moved) = self.pages.get(s as usize) {
                    self.index.insert(moved.number, s);
                }
                // The cache may point at the dead page or the moved one.
                self.last = None;
            }
        }
    }

    /// Number of live pages in the table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Every live (address, value) pair in ascending address order.
    pub(crate) fn sorted_entries(&self) -> Vec<(u64, i64)> {
        let mut pages: Vec<&Page> = self.pages.iter().collect();
        pages.sort_unstable_by_key(|p| p.number);
        let mut out = Vec::new();
        for p in pages {
            for (w, &mask) in p.present.iter().enumerate() {
                let mut bits = mask;
                while bits != 0 {
                    let o = w * 64 + bits.trailing_zeros() as usize;
                    out.push(((p.number << PAGE_BITS) | o as u64, p.words[o]));
                    bits &= bits - 1;
                }
            }
        }
        out
    }
}

/// Architectural state along the fetched path. Every fetched µop is
/// executed here at fetch time; a flush unwinds to the offending branch.
#[derive(Clone, Debug)]
pub(crate) struct SpecEmulator {
    pub regs: [i64; NUM_GPRS],
    pub preds: [bool; NUM_PREDS],
    pub mem: PagedMem,
    /// (sequence number, undo record) per executed µop, in order. A deque:
    /// retire drains from the front (`commit_through`), flushes unwind from
    /// the back (`rollback_after`) — both ends stay O(1) per record.
    log: VecDeque<(u64, Undo)>,
}

impl SpecEmulator {
    pub(crate) fn new() -> SpecEmulator {
        let mut preds = [false; NUM_PREDS];
        preds[0] = true;
        SpecEmulator {
            regs: [0; NUM_GPRS],
            preds,
            mem: PagedMem::default(),
            log: VecDeque::new(),
        }
    }

    fn reg(&self, r: Gpr) -> i64 {
        self.regs[r.index()]
    }

    fn operand(&self, op: wishbranch_isa::Operand) -> i64 {
        match op {
            wishbranch_isa::Operand::Reg(r) => self.reg(r),
            wishbranch_isa::Operand::Imm(i) => i64::from(i),
        }
    }

    fn write_reg(&mut self, seq: u64, r: Gpr, v: i64) {
        self.log.push_back((seq, Undo::Reg(r.index() as u8, self.regs[r.index()])));
        self.regs[r.index()] = v;
    }

    fn write_pred(&mut self, seq: u64, p: PredReg, v: bool) {
        if p.is_hardwired_true() {
            return;
        }
        self.log.push_back((seq, Undo::Pred(p.index() as u8, self.preds[p.index()])));
        self.preds[p.index()] = v;
    }

    fn write_mem(&mut self, seq: u64, addr: u64, v: i64) {
        let old = self.mem.insert(addr, v);
        self.log.push_back((seq, Undo::Mem(addr, old)));
    }

    /// Peeks the direction a conditional branch would take right now
    /// (used by the perfect-confidence oracle at fetch).
    pub(crate) fn peek_cond(&self, insn: &Insn) -> Option<bool> {
        match insn.kind {
            InsnKind::Branch {
                kind: BranchKind::Cond { pred, sense },
                ..
            } => Some(self.preds[pred.index()] == sense),
            _ => None,
        }
    }

    /// Executes the µop at `pc` with sequence number `seq`. For control
    /// µops, `forced_next` is the pc fetch decided to go to (from the
    /// predictors / wish-branch rules); the emulator follows it but reports
    /// the architecturally correct next pc so the core can detect the
    /// misprediction at branch-execute time.
    pub(crate) fn exec(
        &mut self,
        seq: u64,
        pc: u32,
        insn: &Insn,
        forced_next: Option<u32>,
        hw_guard_ok: Option<bool>,
    ) -> StepInfo {
        // A hardware-injected guard (dynamic hammock predication) composes
        // with any architectural guard. Its value was captured when the
        // predicated branch was fetched — hardware holds the *renamed*
        // condition, so later redefinitions of the register in the guarded
        // arms must not affect it.
        let guard_true =
            hw_guard_ok.unwrap_or(true) && insn.guard.is_none_or(|g| self.preds[g.index()]);
        let fall = pc + 1;
        let mut info = StepInfo {
            guard_true,
            actual_taken: false,
            actual_next: fall,
            followed_next: fall,
            mem_addr: None,
            is_store: false,
            halted: false,
            pred_values: [None, None],
            reg_write: None,
            store_value: None,
        };
        if !guard_true {
            // Architectural NOP (C-style: the old destination value is kept).
            info.followed_next = forced_next.unwrap_or(fall);
            // A guard-false branch architecturally falls through.
            info.actual_next = fall;
            return info;
        }
        match insn.kind {
            InsnKind::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                let v = op.apply(self.reg(src1), self.operand(src2));
                self.write_reg(seq, dst, v);
                info.reg_write = Some((dst.index() as u8, v));
            }
            InsnKind::MovImm { dst, imm } => {
                self.write_reg(seq, dst, imm);
                info.reg_write = Some((dst.index() as u8, imm));
            }
            InsnKind::Cmp {
                op,
                dst,
                src1,
                src2,
            } => {
                let v = op.apply(self.reg(src1), self.operand(src2));
                self.write_pred(seq, dst, v);
                info.pred_values[0] = Some(v);
            }
            InsnKind::Cmp2 {
                op,
                dst_t,
                dst_f,
                src1,
                src2,
            } => {
                let v = op.apply(self.reg(src1), self.operand(src2));
                // Two undo records for one seq — both unwound together.
                self.write_pred(seq, dst_t, v);
                self.write_pred(seq, dst_f, !v);
                info.pred_values = [Some(v), Some(!v)];
            }
            InsnKind::PredRR {
                op,
                dst,
                src1,
                src2,
            } => {
                let v = op.apply(self.preds[src1.index()], self.preds[src2.index()]);
                self.write_pred(seq, dst, v);
                info.pred_values[0] = Some(v);
            }
            InsnKind::PredNot { dst, src } => {
                let v = !self.preds[src.index()];
                self.write_pred(seq, dst, v);
                info.pred_values[0] = Some(v);
            }
            InsnKind::PredSet { dst, value } => {
                self.write_pred(seq, dst, value);
                info.pred_values[0] = Some(value);
            }
            InsnKind::Load { dst, base, offset } => {
                let addr = self.reg(base).wrapping_add(i64::from(offset)) as u64;
                let v = self.mem.load(addr);
                self.write_reg(seq, dst, v);
                info.mem_addr = Some(addr);
                info.reg_write = Some((dst.index() as u8, v));
            }
            InsnKind::Store { src, base, offset } => {
                let addr = self.reg(base).wrapping_add(i64::from(offset)) as u64;
                let v = self.reg(src);
                self.write_mem(seq, addr, v);
                info.mem_addr = Some(addr);
                info.is_store = true;
                info.store_value = Some(v);
            }
            InsnKind::Branch { kind, target } => {
                match kind {
                    BranchKind::Cond { pred, sense } => {
                        info.actual_taken = self.preds[pred.index()] == sense;
                        info.actual_next = if info.actual_taken { target } else { fall };
                    }
                    BranchKind::Uncond => {
                        info.actual_next = target;
                    }
                    BranchKind::Call => {
                        self.write_reg(seq, Gpr::LINK, i64::from(fall));
                        info.reg_write = Some((Gpr::LINK.index() as u8, i64::from(fall)));
                        info.actual_next = target;
                    }
                    BranchKind::Ret => {
                        info.actual_next = self.reg(Gpr::LINK) as u32;
                    }
                    BranchKind::Indirect { target: reg } => {
                        info.actual_next = self.reg(reg) as u32;
                    }
                }
                info.followed_next = forced_next.unwrap_or(info.actual_next);
                return info;
            }
            InsnKind::Halt => info.halted = true,
            InsnKind::Nop => {}
        }
        info.followed_next = forced_next.unwrap_or(fall);
        info
    }

    /// Unwinds every µop with sequence number strictly greater than
    /// `keep_seq`, restoring the state right after `keep_seq` executed.
    pub(crate) fn rollback_after(&mut self, keep_seq: u64) {
        while let Some(&(seq, _)) = self.log.back() {
            if seq <= keep_seq {
                break;
            }
            let (_, undo) = self.log.pop_back().expect("checked non-empty");
            match undo {
                Undo::Reg(i, old) => self.regs[i as usize] = old,
                Undo::Pred(i, old) => self.preds[i as usize] = old,
                Undo::Mem(addr, Some(old)) => {
                    self.mem.insert(addr, old);
                }
                Undo::Mem(addr, None) => {
                    self.mem.remove(addr);
                }
            }
        }
    }

    /// Drops undo records for µops with sequence ≤ `seq` (they have
    /// retired and can never be rolled back). Keeps the log bounded.
    pub(crate) fn commit_through(&mut self, seq: u64) {
        while let Some(&(s, _)) = self.log.front() {
            if s > seq {
                break;
            }
            self.log.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbranch_isa::{AluOp, CmpOp, Operand};

    fn r(i: u8) -> Gpr {
        Gpr::new(i)
    }
    fn p(i: u8) -> PredReg {
        PredReg::new(i)
    }

    #[test]
    fn exec_and_rollback_registers() {
        let mut e = SpecEmulator::new();
        e.exec(1, 0, &Insn::mov_imm(r(1), 10), None, None);
        e.exec(2, 1, &Insn::alu(AluOp::Add, r(1), r(1), Operand::imm(5)), None, None);
        assert_eq!(e.regs[1], 15);
        e.rollback_after(1);
        assert_eq!(e.regs[1], 10);
        e.rollback_after(0);
        assert_eq!(e.regs[1], 0);
    }

    #[test]
    fn rollback_memory_insert_and_overwrite() {
        let mut e = SpecEmulator::new();
        e.regs[2] = 0x100;
        e.exec(1, 0, &Insn::mov_imm(r(3), 7), None, None);
        e.exec(2, 1, &Insn::store(r(3), r(2), 0), None, None);
        assert_eq!(e.mem.get(0x100), Some(7));
        e.exec(3, 2, &Insn::mov_imm(r(3), 9), None, None);
        e.exec(4, 3, &Insn::store(r(3), r(2), 0), None, None);
        assert_eq!(e.mem.get(0x100), Some(9));
        e.rollback_after(2);
        assert_eq!(e.mem.get(0x100), Some(7));
        e.rollback_after(1);
        assert_eq!(e.mem.get(0x100), None);
    }

    #[test]
    fn forced_branch_direction_reports_actual() {
        let mut e = SpecEmulator::new();
        e.exec(1, 0, &Insn::mov_imm(r(1), 1), None, None);
        e.exec(2, 1, &Insn::cmp(CmpOp::Eq, p(1), r(1), Operand::imm(1)), None, None);
        let br = Insn::branch(BranchKind::cond(p(1), true), 50);
        // Fetch forces fall-through although the branch is actually taken.
        let info = e.exec(3, 2, &br, Some(3), None);
        assert!(info.actual_taken);
        assert_eq!(info.actual_next, 50);
        assert_eq!(info.followed_next, 3);
    }

    #[test]
    fn guard_false_is_nop_and_reports() {
        let mut e = SpecEmulator::new();
        let i = Insn::mov_imm(r(1), 42).guarded(p(2)); // p2 = false
        let info = e.exec(1, 0, &i, None, None);
        assert!(!info.guard_true);
        assert_eq!(e.regs[1], 0);
        e.rollback_after(0); // must not underflow or corrupt
        assert_eq!(e.regs[1], 0);
    }

    #[test]
    fn cmp2_rolls_back_both_predicates() {
        let mut e = SpecEmulator::new();
        e.exec(1, 0, &Insn::cmp2(CmpOp::Eq, p(1), p(2), r(0), Operand::imm(0)), None, None);
        assert!(e.preds[1]);
        assert!(!e.preds[2]);
        e.rollback_after(0);
        assert!(!e.preds[1]);
        assert!(!e.preds[2]);
    }

    #[test]
    fn commit_bounds_the_log() {
        let mut e = SpecEmulator::new();
        for s in 1..=100 {
            e.exec(s, 0, &Insn::mov_imm(r(1), s as i64), None, None);
        }
        e.commit_through(90);
        assert!(e.log.len() <= 10);
        e.rollback_after(95);
        assert_eq!(e.regs[1], 95);
    }

    #[test]
    fn paged_mem_dump_is_sorted_and_tracks_presence() {
        let mut m = PagedMem::default();
        // Spread across pages, inserted out of order.
        assert_eq!(m.insert(0x10_000, 1), None);
        assert_eq!(m.insert(0x3, -4), None);
        assert_eq!(m.insert(0x3, 5), Some(-4));
        assert_eq!(m.insert(0x1ff, 9), None); // last word of page 1
        assert_eq!(m.load(0x3), 5);
        assert_eq!(m.load(0x4), 0); // absent word of a live page
        assert_eq!(m.load(0x999_999), 0); // absent page
        m.remove(0x1ff);
        assert_eq!(m.get(0x1ff), None);
        assert_eq!(m.load(0x1ff), 0);
        assert_eq!(m.sorted_entries(), vec![(0x3, 5), (0x10_000, 1)]);
    }

    #[test]
    fn empty_pages_are_reclaimed_on_remove() {
        let mut m = PagedMem::default();
        assert_eq!(m.page_count(), 0);
        m.insert(0x3, 1); // page 0
        m.insert(0x10_000, 2); // page 0x100
        m.insert(0x10_001, 3); // same page
        m.insert(0x20_000, 4); // page 0x200
        assert_eq!(m.page_count(), 3);
        // Removing one of two live words keeps the page.
        m.remove(0x10_001);
        assert_eq!(m.page_count(), 3);
        // Removing the last live word reclaims the page.
        m.remove(0x10_000);
        assert_eq!(m.page_count(), 2);
        // Removing the middle slot exercises the swap_remove index fixup:
        // the moved page must remain addressable.
        m.remove(0x3);
        assert_eq!(m.page_count(), 1);
        assert_eq!(m.get(0x20_000), Some(4));
        assert_eq!(m.load(0x20_000), 4);
        m.remove(0x20_000);
        assert_eq!(m.page_count(), 0);
        assert_eq!(m.sorted_entries(), vec![]);
        // A reclaimed page can be repopulated.
        m.insert(0x10_000, 9);
        assert_eq!(m.get(0x10_000), Some(9));
        assert_eq!(m.page_count(), 1);
    }

    #[test]
    fn full_rollback_restores_page_count() {
        let mut e = SpecEmulator::new();
        let pre = e.mem.page_count();
        // First-touch stores to several fresh pages, all speculative.
        for (s, page) in (1u64..=6).zip([0x1u64, 0x2, 0x3, 0x4, 0x5, 0x6]) {
            e.regs[2] = (page << 12) as i64;
            e.exec(s * 2 - 1, 0, &Insn::mov_imm(r(3), s as i64), None, None);
            e.exec(s * 2, 1, &Insn::store(r(3), r(2), 0), None, None);
        }
        assert!(e.mem.page_count() > pre);
        e.rollback_after(0);
        assert_eq!(
            e.mem.page_count(),
            pre,
            "rollback of first-touch stores must reclaim their pages"
        );
    }
}
