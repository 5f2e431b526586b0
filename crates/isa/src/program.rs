//! Program images: linear µop sequences with symbols and label fixups.

use crate::insn::{Insn, InsnKind, WishType};
use std::fmt;

/// A named position in a program, for debugging and disassembly.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Symbol {
    /// Symbol name (e.g. a basic-block or function label).
    pub name: String,
    /// µop index the symbol refers to.
    pub index: u32,
}

/// Static code statistics, used for Table 4 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct StaticStats {
    /// Total µop count.
    pub insns: usize,
    /// Static conditional branches (wish or normal).
    pub cond_branches: usize,
    /// Static wish branches of any type.
    pub wish_branches: usize,
    /// Static `wish.jump` instructions.
    pub wish_jumps: usize,
    /// Static `wish.join` instructions.
    pub wish_joins: usize,
    /// Static `wish.loop` instructions.
    pub wish_loops: usize,
    /// µops carrying a qualifying predicate other than `p0`.
    pub guarded_insns: usize,
}

/// An immutable program image: the unit loaded into the simulator.
///
/// A program is a flat sequence of µops; control transfers use absolute µop
/// indices. Execution starts at [`Program::entry`] and finishes at a `halt`
/// µop.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    insns: Vec<Insn>,
    entry: u32,
    symbols: Vec<Symbol>,
}

impl Program {
    /// Wraps a raw instruction sequence (entry at index 0, no symbols).
    ///
    /// # Panics
    ///
    /// Panics if any direct branch targets an index out of range.
    #[must_use]
    pub fn from_insns(insns: Vec<Insn>) -> Program {
        let p = Program {
            insns,
            entry: 0,
            symbols: Vec::new(),
        };
        p.validate();
        p
    }

    fn validate(&self) {
        for (i, insn) in self.insns.iter().enumerate() {
            if let Some(t) = insn.direct_target() {
                assert!(
                    (t as usize) < self.insns.len(),
                    "µop {i} ({insn}) targets out-of-range index {t}"
                );
            }
        }
        assert!(
            (self.entry as usize) < self.insns.len() || self.insns.is_empty(),
            "entry point {} out of range",
            self.entry
        );
    }

    /// The µop at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    #[must_use]
    pub fn insn(&self, index: u32) -> &Insn {
        &self.insns[index as usize]
    }

    /// The µop at `index`, or `None` when out of range (used by the
    /// simulator when fetching down a bogus wrong path).
    #[inline]
    #[must_use]
    pub fn get(&self, index: u32) -> Option<&Insn> {
        self.insns.get(index as usize)
    }

    /// Number of µops in the image.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the image contains no µops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Entry-point µop index.
    #[must_use]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// All µops in index order.
    #[must_use]
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// Symbols, sorted by index.
    #[must_use]
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Computes static statistics over the image.
    #[must_use]
    pub fn static_stats(&self) -> StaticStats {
        let mut s = StaticStats {
            insns: self.insns.len(),
            ..StaticStats::default()
        };
        for i in &self.insns {
            if i.is_conditional_branch() {
                s.cond_branches += 1;
            }
            match i.wish {
                Some(WishType::Jump) => s.wish_jumps += 1,
                Some(WishType::Join) => s.wish_joins += 1,
                Some(WishType::Loop) => s.wish_loops += 1,
                None => {}
            }
            if i.is_wish_branch() {
                s.wish_branches += 1;
            }
            if i.guard.is_some_and(|g| !g.is_hardwired_true()) {
                s.guarded_insns += 1;
            }
        }
        s
    }
}

impl fmt::Display for Program {
    /// Disassembles the whole image, interleaving symbols.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sym_iter = self.symbols.iter().peekable();
        for (i, insn) in self.insns.iter().enumerate() {
            while let Some(s) = sym_iter.peek() {
                if (s.index as usize) <= i {
                    writeln!(f, "{}:", s.name)?;
                    sym_iter.next();
                } else {
                    break;
                }
            }
            writeln!(f, "  {i:5}  {insn}")?;
        }
        Ok(())
    }
}

/// An unresolved label handle issued by [`ProgramBuilder::label`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(u32);

/// Incremental builder for [`Program`] images with forward-label fixup.
///
/// # Example
///
/// ```
/// use wishbranch_isa::{ProgramBuilder, Insn, Gpr, PredReg, CmpOp, Operand, BranchKind, AluOp};
///
/// let mut b = ProgramBuilder::new();
/// let exit = b.label("EXIT");
/// b.push(Insn::mov_imm(Gpr::new(1), 0));
/// b.push(Insn::cmp(CmpOp::Ge, PredReg::new(1), Gpr::new(1), Operand::imm(10)));
/// b.push_cond_branch(PredReg::new(1), true, exit, None);
/// b.push(Insn::alu(AluOp::Add, Gpr::new(1), Gpr::new(1), Operand::imm(1)));
/// b.bind(exit);
/// b.push(Insn::halt());
/// let program = b.build();
/// assert_eq!(program.len(), 5);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insns: Vec<Insn>,
    // For each label id: resolved index (or u32::MAX while unbound) and name.
    labels: Vec<(u32, String)>,
    // (µop index, label id) pairs needing patching at build time.
    fixups: Vec<(u32, Label)>,
    symbols: Vec<Symbol>,
}

const UNBOUND: u32 = u32::MAX;

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Current µop index (where the next pushed instruction will land).
    #[must_use]
    pub fn here(&self) -> u32 {
        self.insns.len() as u32
    }

    /// Creates a fresh, unbound label with a debug name.
    pub fn label(&mut self, name: impl Into<String>) -> Label {
        let id = Label(self.labels.len() as u32);
        self.labels.push((UNBOUND, name.into()));
        id
    }

    /// Binds `label` to the current position and records it as a symbol.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let (slot, name) = &mut self.labels[label.0 as usize];
        assert!(*slot == UNBOUND, "label {name} bound twice");
        *slot = self.insns.len() as u32;
        self.symbols.push(Symbol {
            name: name.clone(),
            index: self.insns.len() as u32,
        });
    }

    /// Appends a non-branching µop (or a branch whose target is already an
    /// absolute index).
    pub fn push(&mut self, insn: Insn) {
        self.insns.push(insn);
    }

    /// Appends a conditional branch to `target`, optionally wish-hinted.
    pub fn push_cond_branch(
        &mut self,
        pred: crate::PredReg,
        sense: bool,
        target: Label,
        wish: Option<WishType>,
    ) {
        let mut insn = Insn::branch(crate::BranchKind::Cond { pred, sense }, 0);
        insn.wish = wish;
        self.push_branch_to(insn, target);
    }

    /// Appends an unconditional branch to `target`.
    pub fn push_jump(&mut self, target: Label) {
        self.push_branch_to(Insn::branch(crate::BranchKind::Uncond, 0), target);
    }

    /// Appends a call to `target`.
    pub fn push_call(&mut self, target: Label) {
        self.push_branch_to(Insn::branch(crate::BranchKind::Call, 0), target);
    }

    /// Appends any direct-branch µop whose target should be patched to
    /// `label` at build time.
    ///
    /// # Panics
    ///
    /// Panics if `insn` is not a direct branch.
    pub fn push_branch_to(&mut self, insn: Insn, label: Label) {
        assert!(
            matches!(insn.kind, InsnKind::Branch { .. }) && insn.direct_target().is_some(),
            "push_branch_to requires a direct branch, got {insn}"
        );
        self.fixups.push((self.insns.len() as u32, label));
        self.insns.push(insn);
    }

    /// Resolves all labels and produces the program image.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    #[must_use]
    pub fn build(mut self) -> Program {
        for (at, label) in &self.fixups {
            let (idx, name) = &self.labels[label.0 as usize];
            assert!(*idx != UNBOUND, "label {name} referenced but never bound");
            if let InsnKind::Branch { target, .. } = &mut self.insns[*at as usize].kind {
                *target = *idx;
            }
        }
        self.symbols.sort_by_key(|s| s.index);
        let p = Program {
            insns: self.insns,
            entry: 0,
            symbols: self.symbols,
        };
        p.validate();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, BranchKind, CmpOp, Gpr, Operand, PredReg};

    fn r(i: u8) -> Gpr {
        Gpr::new(i)
    }
    fn p(i: u8) -> PredReg {
        PredReg::new(i)
    }

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let top = b.label("TOP");
        let exit = b.label("EXIT");
        b.bind(top);
        b.push(Insn::alu(AluOp::Add, r(1), r(1), Operand::imm(1)));
        b.push(Insn::cmp(CmpOp::Ge, p(1), r(1), Operand::imm(3)));
        b.push_cond_branch(p(1), true, exit, None);
        b.push_jump(top);
        b.bind(exit);
        b.push(Insn::halt());
        let prog = b.build();
        assert_eq!(prog.insn(2).direct_target(), Some(4));
        assert_eq!(prog.insn(3).direct_target(), Some(0));
        assert_eq!(prog.symbols().len(), 2);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label("X");
        b.push_jump(l);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label("X");
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn static_stats_count_wish_branches() {
        let mut b = ProgramBuilder::new();
        let t = b.label("T");
        b.push_cond_branch(p(1), true, t, Some(WishType::Jump));
        b.push(Insn::mov(r(1), r(2)).guarded(p(2)));
        b.push_cond_branch(p(1), false, t, Some(WishType::Join));
        b.push_cond_branch(p(1), true, t, Some(WishType::Loop));
        b.push_cond_branch(p(1), true, t, None);
        b.bind(t);
        b.push(Insn::halt());
        let s = b.build().static_stats();
        assert_eq!(s.insns, 6);
        assert_eq!(s.cond_branches, 4);
        assert_eq!(s.wish_branches, 3);
        assert_eq!(s.wish_jumps, 1);
        assert_eq!(s.wish_joins, 1);
        assert_eq!(s.wish_loops, 1);
        assert_eq!(s.guarded_insns, 1);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_target_rejected() {
        let _ = Program::from_insns(vec![Insn::branch(BranchKind::Uncond, 5)]);
    }

    #[test]
    fn display_includes_symbols() {
        let mut b = ProgramBuilder::new();
        let l = b.label("LOOP");
        b.bind(l);
        b.push(Insn::halt());
        let text = b.build().to_string();
        assert!(text.contains("LOOP:"));
        assert!(text.contains("halt"));
    }
}
