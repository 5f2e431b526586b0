//! µop instruction definitions.

use crate::regs::{Gpr, PredReg};
use std::fmt;

/// An arithmetic/logic operation on general-purpose registers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Mul,
    Div,
}

impl AluOp {
    /// Mnemonic used by the disassembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
        }
    }

    /// Applies the operation to two 64-bit values (wrapping semantics;
    /// division by zero yields zero, as a trap-free ISA choice).
    #[must_use]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
        }
    }
}

/// A comparison that writes a predicate register (signed semantics).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Mnemonic suffix used by the disassembler (`cmp.lt` etc.).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Evaluates the comparison.
    #[must_use]
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The comparison computing the complement result.
    #[must_use]
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// A boolean operation between two predicate registers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum PredOp {
    And,
    Or,
    Xor,
}

impl PredOp {
    /// Mnemonic used by the disassembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            PredOp::And => "pand",
            PredOp::Or => "por",
            PredOp::Xor => "pxor",
        }
    }

    /// Evaluates the operation.
    #[must_use]
    pub fn apply(self, a: bool, b: bool) -> bool {
        match self {
            PredOp::And => a && b,
            PredOp::Or => a || b,
            PredOp::Xor => a ^ b,
        }
    }
}

/// The second source of an ALU or compare µop: a register or a small
/// immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A general-purpose register source.
    Reg(Gpr),
    /// A sign-extended immediate source.
    Imm(i32),
}

impl Operand {
    /// Convenience constructor for a register operand.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid GPR index.
    #[must_use]
    pub fn reg(index: u8) -> Operand {
        Operand::Reg(Gpr::new(index))
    }

    /// Convenience constructor for an immediate operand.
    #[must_use]
    pub fn imm(value: i32) -> Operand {
        Operand::Imm(value)
    }

    /// The register named by this operand, if any.
    #[must_use]
    pub fn as_reg(self) -> Option<Gpr> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// The wish-branch hint carried by a conditional branch (the `wtype` field of
/// the paper's Fig. 7 instruction format).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WishType {
    /// A forward branch guarding a predicated hammock (`wish.jump`).
    Jump,
    /// A branch control-flow dependent on a preceding wish jump/join
    /// (`wish.join`).
    Join,
    /// A backward loop branch over a predicated loop body (`wish.loop`).
    Loop,
}

impl WishType {
    /// Mnemonic suffix used by the disassembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            WishType::Jump => "jump",
            WishType::Join => "join",
            WishType::Loop => "loop",
        }
    }
}

/// The control-transfer flavour of a branch µop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// Conditional direct branch: taken when the predicate register equals
    /// `sense`.
    Cond {
        /// Condition predicate register.
        pred: PredReg,
        /// Direction sense: `true` = branch when the predicate is TRUE
        /// (like `br p1, T`), `false` = branch when it is FALSE
        /// (like `br !p1, T`).
        sense: bool,
    },
    /// Unconditional direct branch.
    Uncond,
    /// Direct call; writes the return µop index into [`Gpr::LINK`].
    Call,
    /// Return: an indirect jump through [`Gpr::LINK`], predicted with the
    /// return-address stack.
    Ret,
    /// Indirect jump through a general-purpose register, predicted with the
    /// indirect target cache.
    Indirect {
        /// Register holding the target µop index.
        target: Gpr,
    },
}

impl BranchKind {
    /// Convenience constructor for a conditional branch.
    #[must_use]
    pub fn cond(pred: PredReg, sense: bool) -> BranchKind {
        BranchKind::Cond { pred, sense }
    }
}

/// The operation performed by a µop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InsnKind {
    /// Register/immediate ALU operation: `dst = src1 <op> src2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Gpr,
        /// First source register.
        src1: Gpr,
        /// Second source (register or immediate).
        src2: Operand,
    },
    /// Load a 64-bit immediate (the binary encoder restricts it to a 44-bit
    /// signed value; see [`crate::encode`]).
    MovImm {
        /// Destination register.
        dst: Gpr,
        /// Immediate value.
        imm: i64,
    },
    /// Comparison writing a predicate register: `dst = src1 <op> src2`.
    Cmp {
        /// Comparison operation.
        op: CmpOp,
        /// Destination predicate register.
        dst: PredReg,
        /// First source register.
        src1: Gpr,
        /// Second source (register or immediate).
        src2: Operand,
    },
    /// Two-destination comparison, IA-64 style: `dst_t = src1 <op> src2`
    /// and `dst_f = !(src1 <op> src2)`. If-conversion uses this to guard the
    /// taken-side with `dst_t` and the fall-through side with `dst_f`.
    Cmp2 {
        /// Comparison operation.
        op: CmpOp,
        /// Destination predicate receiving the comparison result.
        dst_t: PredReg,
        /// Destination predicate receiving the complement.
        dst_f: PredReg,
        /// First source register.
        src1: Gpr,
        /// Second source (register or immediate).
        src2: Operand,
    },
    /// Boolean operation on predicate registers.
    PredRR {
        /// Operation.
        op: PredOp,
        /// Destination predicate register.
        dst: PredReg,
        /// First source predicate.
        src1: PredReg,
        /// Second source predicate.
        src2: PredReg,
    },
    /// Predicate complement: `dst = !src`.
    PredNot {
        /// Destination predicate register.
        dst: PredReg,
        /// Source predicate register.
        src: PredReg,
    },
    /// Predicate initialization: `dst = value` (e.g. the `mov p1,1` in the
    /// loop header of wish-loop code, Fig. 4b).
    PredSet {
        /// Destination predicate register.
        dst: PredReg,
        /// Value to set.
        value: bool,
    },
    /// 64-bit load: `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: Gpr,
        /// Base address register.
        base: Gpr,
        /// Byte offset.
        offset: i32,
    },
    /// 64-bit store: `mem[base + offset] = src`.
    Store {
        /// Data register.
        src: Gpr,
        /// Base address register.
        base: Gpr,
        /// Byte offset.
        offset: i32,
    },
    /// Control transfer. `target` is an absolute µop index (ignored by
    /// `Ret`/`Indirect`).
    Branch {
        /// Branch flavour.
        kind: BranchKind,
        /// Absolute target µop index for direct branches.
        target: u32,
    },
    /// Stops the program.
    Halt,
    /// No operation (kept in the ISA for encode/decode completeness; the
    /// compiler never emits it and the µop translator in the paper strips
    /// NOPs).
    Nop,
}

/// A complete µop: operation plus qualifying (guard) predicate plus optional
/// wish hint.
///
/// The `btype`/`wtype` hint fields of the paper's Fig. 7 are represented by
/// [`Insn::wish`]: `None` means `btype = normal`; `Some(w)` means
/// `btype = wish` with the given `wtype`. Hardware without wish-branch
/// support simply ignores the field and treats the instruction as a normal
/// conditional branch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Insn {
    /// Qualifying predicate: the µop architecturally executes only when the
    /// guard reads TRUE; otherwise it is a NOP (C-style conversion makes it
    /// copy its old destination value, see the uarch crate).
    pub guard: Option<PredReg>,
    /// The operation.
    pub kind: InsnKind,
    /// Wish hint; only meaningful on conditional branches.
    pub wish: Option<WishType>,
}

impl Insn {
    /// Creates an unguarded, non-wish instruction.
    #[must_use]
    pub fn new(kind: InsnKind) -> Insn {
        Insn {
            guard: None,
            kind,
            wish: None,
        }
    }

    /// ALU instruction `dst = src1 <op> src2`.
    #[must_use]
    pub fn alu(op: AluOp, dst: Gpr, src1: Gpr, src2: Operand) -> Insn {
        Insn::new(InsnKind::Alu {
            op,
            dst,
            src1,
            src2,
        })
    }

    /// Register move `dst = src` (encoded as `add dst = src, 0`).
    #[must_use]
    pub fn mov(dst: Gpr, src: Gpr) -> Insn {
        Insn::alu(AluOp::Add, dst, src, Operand::Imm(0))
    }

    /// Immediate move `dst = imm`.
    #[must_use]
    pub fn mov_imm(dst: Gpr, imm: i64) -> Insn {
        Insn::new(InsnKind::MovImm { dst, imm })
    }

    /// Comparison `pdst = src1 <op> src2`.
    #[must_use]
    pub fn cmp(op: CmpOp, dst: PredReg, src1: Gpr, src2: Operand) -> Insn {
        Insn::new(InsnKind::Cmp {
            op,
            dst,
            src1,
            src2,
        })
    }

    /// Two-destination comparison `dst_t, dst_f = src1 <op> src2`.
    ///
    /// # Panics
    ///
    /// Panics if `dst_t == dst_f` (the two destinations must differ).
    #[must_use]
    pub fn cmp2(op: CmpOp, dst_t: PredReg, dst_f: PredReg, src1: Gpr, src2: Operand) -> Insn {
        assert!(dst_t != dst_f, "cmp2 destinations must differ");
        Insn::new(InsnKind::Cmp2 {
            op,
            dst_t,
            dst_f,
            src1,
            src2,
        })
    }

    /// Load `dst = mem[base + offset]`.
    #[must_use]
    pub fn load(dst: Gpr, base: Gpr, offset: i32) -> Insn {
        Insn::new(InsnKind::Load { dst, base, offset })
    }

    /// Store `mem[base + offset] = src`.
    #[must_use]
    pub fn store(src: Gpr, base: Gpr, offset: i32) -> Insn {
        Insn::new(InsnKind::Store { src, base, offset })
    }

    /// Branch of the given flavour to an absolute µop index.
    #[must_use]
    pub fn branch(kind: BranchKind, target: u32) -> Insn {
        Insn::new(InsnKind::Branch { kind, target })
    }

    /// Predicate initialization `dst = value`.
    #[must_use]
    pub fn pred_set(dst: PredReg, value: bool) -> Insn {
        Insn::new(InsnKind::PredSet { dst, value })
    }

    /// Predicate complement `dst = !src`.
    #[must_use]
    pub fn pred_not(dst: PredReg, src: PredReg) -> Insn {
        Insn::new(InsnKind::PredNot { dst, src })
    }

    /// Halt instruction.
    #[must_use]
    pub fn halt() -> Insn {
        Insn::new(InsnKind::Halt)
    }

    /// Returns the same instruction guarded by predicate `p`.
    #[must_use]
    pub fn guarded(mut self, p: PredReg) -> Insn {
        self.guard = Some(p);
        self
    }

    /// Returns the same instruction with a wish hint attached.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a conditional branch — only
    /// conditional branches can be wish branches.
    #[must_use]
    pub fn with_wish(mut self, w: WishType) -> Insn {
        assert!(
            self.is_conditional_branch(),
            "wish hints are only valid on conditional branches: {self}"
        );
        self.wish = Some(w);
        self
    }

    /// Whether this is any control-transfer µop.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self.kind, InsnKind::Branch { .. })
    }

    /// Whether this is a conditional direct branch.
    #[must_use]
    pub fn is_conditional_branch(&self) -> bool {
        matches!(
            self.kind,
            InsnKind::Branch {
                kind: BranchKind::Cond { .. },
                ..
            }
        )
    }

    /// Whether this branch carries a wish hint.
    #[must_use]
    pub fn is_wish_branch(&self) -> bool {
        self.wish.is_some()
    }

    /// The GPR written by this instruction, if any.
    #[must_use]
    pub fn def_gpr(&self) -> Option<Gpr> {
        match self.kind {
            InsnKind::Alu { dst, .. } | InsnKind::MovImm { dst, .. } | InsnKind::Load { dst, .. } => {
                Some(dst)
            }
            InsnKind::Branch {
                kind: BranchKind::Call,
                ..
            } => Some(Gpr::LINK),
            _ => None,
        }
    }

    /// The predicate registers written by this instruction (up to two, for
    /// [`InsnKind::Cmp2`]). Writes to the hardwired `p0` are architecturally
    /// ignored but still reported here (the hardware must still detect the
    /// redefinition, §3.5.3).
    #[must_use]
    pub fn def_preds(&self) -> [Option<PredReg>; 2] {
        match self.kind {
            InsnKind::Cmp { dst, .. }
            | InsnKind::PredRR { dst, .. }
            | InsnKind::PredNot { dst, .. }
            | InsnKind::PredSet { dst, .. } => [Some(dst), None],
            InsnKind::Cmp2 { dst_t, dst_f, .. } => [Some(dst_t), Some(dst_f)],
            _ => [None, None],
        }
    }

    /// The first predicate register written by this instruction, if any.
    /// Prefer [`Insn::def_preds`] where `Cmp2`'s second destination matters.
    #[must_use]
    pub fn def_pred(&self) -> Option<PredReg> {
        self.def_preds()[0]
    }

    /// The (up to two) GPR sources read by this instruction, excluding the
    /// guard predicate. Entries are `None` when unused.
    #[must_use]
    pub fn gpr_srcs(&self) -> [Option<Gpr>; 2] {
        match self.kind {
            InsnKind::Alu { src1, src2, .. }
            | InsnKind::Cmp { src1, src2, .. }
            | InsnKind::Cmp2 { src1, src2, .. } => [Some(src1), src2.as_reg()],
            InsnKind::Load { base, .. } => [Some(base), None],
            InsnKind::Store { src, base, .. } => [Some(base), Some(src)],
            InsnKind::Branch {
                kind: BranchKind::Indirect { target },
                ..
            } => [Some(target), None],
            InsnKind::Branch {
                kind: BranchKind::Ret,
                ..
            } => [Some(Gpr::LINK), None],
            _ => [None, None],
        }
    }

    /// The (up to two) predicate sources read by this instruction, excluding
    /// the guard predicate.
    #[must_use]
    pub fn pred_srcs(&self) -> [Option<PredReg>; 2] {
        match self.kind {
            InsnKind::PredRR { src1, src2, .. } => [Some(src1), Some(src2)],
            InsnKind::PredNot { src, .. } => [Some(src), None],
            InsnKind::Branch {
                kind: BranchKind::Cond { pred, .. },
                ..
            } => [Some(pred), None],
            _ => [None, None],
        }
    }

    /// The static target of a direct branch/call, if this is one.
    #[must_use]
    pub fn direct_target(&self) -> Option<u32> {
        match self.kind {
            InsnKind::Branch { kind, target } => match kind {
                BranchKind::Cond { .. } | BranchKind::Uncond | BranchKind::Call => Some(target),
                BranchKind::Ret | BranchKind::Indirect { .. } => None,
            },
            _ => None,
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = self.guard {
            write!(f, "({g}) ")?;
        }
        match self.kind {
            InsnKind::Alu {
                op,
                dst,
                src1,
                src2,
            } => write!(f, "{} {dst} = {src1}, {src2}", op.mnemonic()),
            InsnKind::MovImm { dst, imm } => write!(f, "movi {dst} = {imm}"),
            InsnKind::Cmp {
                op,
                dst,
                src1,
                src2,
            } => write!(f, "cmp.{} {dst} = {src1}, {src2}", op.mnemonic()),
            InsnKind::Cmp2 {
                op,
                dst_t,
                dst_f,
                src1,
                src2,
            } => write!(f, "cmp.{} {dst_t}, {dst_f} = {src1}, {src2}", op.mnemonic()),
            InsnKind::PredRR {
                op,
                dst,
                src1,
                src2,
            } => write!(f, "{} {dst} = {src1}, {src2}", op.mnemonic()),
            InsnKind::PredNot { dst, src } => write!(f, "pnot {dst} = {src}"),
            InsnKind::PredSet { dst, value } => write!(f, "pset {dst} = {}", i32::from(value)),
            InsnKind::Load { dst, base, offset } => write!(f, "ld {dst} = [{base}{offset:+}]"),
            InsnKind::Store { src, base, offset } => write!(f, "st [{base}{offset:+}] = {src}"),
            InsnKind::Branch { kind, target } => match kind {
                BranchKind::Cond { pred, sense } => {
                    let prefix = match self.wish {
                        Some(w) => format!("wish.{}", w.mnemonic()),
                        None => "br".to_string(),
                    };
                    let bang = if sense { "" } else { "!" };
                    write!(f, "{prefix} {bang}{pred}, {target}")
                }
                BranchKind::Uncond => write!(f, "br.uncond {target}"),
                BranchKind::Call => write!(f, "call {target}"),
                BranchKind::Ret => write!(f, "ret"),
                BranchKind::Indirect { target: reg } => write!(f, "jmp {reg}"),
            },
            InsnKind::Halt => write!(f, "halt"),
            InsnKind::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u8) -> PredReg {
        PredReg::new(i)
    }
    fn r(i: u8) -> Gpr {
        Gpr::new(i)
    }

    #[test]
    fn display_matches_paper_style() {
        let i = Insn::alu(AluOp::Add, r(3), r(1), Operand::reg(2)).guarded(p(1));
        assert_eq!(i.to_string(), "(p1) add r3 = r1, r2");
        let wj = Insn::branch(BranchKind::cond(p(1), true), 42).with_wish(WishType::Jump);
        assert_eq!(wj.to_string(), "wish.jump p1, 42");
        let wj = Insn::branch(BranchKind::cond(p(1), false), 7).with_wish(WishType::Join);
        assert_eq!(wj.to_string(), "wish.join !p1, 7");
        assert_eq!(Insn::load(r(4), r(5), 8).to_string(), "ld r4 = [r5+8]");
        assert_eq!(Insn::store(r(4), r(5), -8).to_string(), "st [r5-8] = r4");
        assert_eq!(Insn::pred_set(p(1), true).to_string(), "pset p1 = 1");
    }

    #[test]
    fn defs_and_uses() {
        let i = Insn::alu(AluOp::Sub, r(3), r(1), Operand::reg(2));
        assert_eq!(i.def_gpr(), Some(r(3)));
        assert_eq!(i.gpr_srcs(), [Some(r(1)), Some(r(2))]);
        assert_eq!(i.def_pred(), None);

        let c = Insn::cmp(CmpOp::Lt, p(2), r(1), Operand::imm(5));
        assert_eq!(c.def_pred(), Some(p(2)));
        assert_eq!(c.gpr_srcs(), [Some(r(1)), None]);

        let call = Insn::branch(BranchKind::Call, 10);
        assert_eq!(call.def_gpr(), Some(Gpr::LINK));
        let ret = Insn::branch(BranchKind::Ret, 0);
        assert_eq!(ret.gpr_srcs(), [Some(Gpr::LINK), None]);
    }

    #[test]
    fn branch_queries() {
        let b = Insn::branch(BranchKind::cond(p(1), true), 9);
        assert!(b.is_branch());
        assert!(b.is_conditional_branch());
        assert!(!b.is_wish_branch());
        assert_eq!(b.direct_target(), Some(9));
        assert_eq!(b.pred_srcs()[0], Some(p(1)));

        let u = Insn::branch(BranchKind::Uncond, 3);
        assert!(!u.is_conditional_branch());
        assert_eq!(u.direct_target(), Some(3));

        let ind = Insn::branch(BranchKind::Indirect { target: r(7) }, 0);
        assert_eq!(ind.direct_target(), None);
        assert_eq!(ind.gpr_srcs()[0], Some(r(7)));
    }

    #[test]
    #[should_panic(expected = "only valid on conditional branches")]
    fn wish_on_non_branch_panics() {
        let _ = Insn::halt().with_wish(WishType::Loop);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(i64::MAX, 1), i64::MIN); // wrapping
        assert_eq!(AluOp::Div.apply(10, 0), 0); // trap-free
        assert_eq!(AluOp::Shl.apply(1, 65), 2); // shift masked to 6 bits
        assert!(CmpOp::Le.apply(3, 3));
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert!(PredOp::Xor.apply(true, false));
    }
}
