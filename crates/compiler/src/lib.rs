//! # wishbranch-compiler
//!
//! Lowers [`wishbranch_ir`] modules to µop [`wishbranch_isa::Program`]s in
//! the five binary variants of the paper's Table 3:
//!
//! | Variant | forward branches | backward branches |
//! |---|---|---|
//! | [`BinaryVariant::NormalBranch`]    | stay branches | stay branches |
//! | [`BinaryVariant::BaseDef`]         | predicated when the cost model (Eq. 4.1–4.3) says so | stay branches |
//! | [`BinaryVariant::BaseMax`]         | predicated whenever if-convertible | stay branches |
//! | [`BinaryVariant::WishJumpJoin`]    | wish jumps/joins or predicated (§4.2.2, threshold N) | stay branches |
//! | [`BinaryVariant::WishJumpJoinLoop`]| as above | wish loops (§4.2.2, threshold L) or stay branches |
//! | [`BinaryVariant::WishAdaptive`] *(extension)* | wish branches only where some training profile is hard (§3.6 input dependence, see [`compile_adaptive`]) | wish loops or stay branches |
//!
//! The pipeline is: IR → MIR (a machine-level CFG whose instructions are
//! µops) → if-conversion / wish-branch conversion / wish-loop conversion on
//! the MIR → block layout → linearization to a flat program image.
//!
//! If-conversion uses IA-64-style two-destination compares
//! ([`wishbranch_isa::InsnKind::Cmp2`]): the taken side of a hammock is
//! guarded by `pT`, the fall-through side by the complement `pF`. Nested
//! regions compose by re-ANDing inner predicate definitions with the outer
//! guard, so arbitrarily nested hammocks stay architecturally exact.
//!
//! # Example
//!
//! ```
//! use wishbranch_compiler::{compile, BinaryVariant, CompileOptions};
//! use wishbranch_ir::{FunctionBuilder, Module, Interpreter};
//! use wishbranch_isa::{CmpOp, Gpr, Operand};
//!
//! // if (r1 < 5) r2 = 1; else r2 = 2;
//! let r1 = Gpr::new(1);
//! let r2 = Gpr::new(2);
//! let mut f = FunctionBuilder::new("main");
//! let (e, t, el, j) = (f.entry_block(), f.new_block(), f.new_block(), f.new_block());
//! f.select(e);
//! f.movi(r1, 3);
//! f.branch(CmpOp::Lt, r1, Operand::imm(5), t, el);
//! f.select(el);
//! f.movi(r2, 2);
//! f.jump(j);
//! f.select(t);
//! f.movi(r2, 1);
//! f.jump(j);
//! f.select(j);
//! f.halt();
//! let module = Module::new(vec![f.build()], 0).unwrap();
//!
//! let profile = Interpreter::new().run(&module, 1_000).unwrap().profile;
//! let bin = compile(&module, &profile, BinaryVariant::BaseMax, &CompileOptions::default());
//! assert!(bin.report.regions_predicated >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod ifconv;
mod linearize;
mod mir;
mod wloop;

pub use cost::{region_cost, RegionCost};

use wishbranch_ir::{Module, Profile};
use wishbranch_isa::Program;

pub use mir::{ProfileBundle, SiteStats};

/// Which of the paper's Table 3 binaries to produce.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinaryVariant {
    /// All branches stay normal conditional branches.
    NormalBranch,
    /// Predicated-code baseline with the compile-time cost-benefit analysis
    /// of §4.2.1 (the paper's BASE-DEF).
    BaseDef,
    /// Aggressively predicated baseline: every if-convertible region is
    /// predicated (the paper's BASE-MAX).
    BaseMax,
    /// Wish jumps and joins for large regions, predication for small ones;
    /// backward branches stay normal.
    WishJumpJoin,
    /// As [`BinaryVariant::WishJumpJoin`], plus wish loops for small
    /// innermost loop bodies.
    WishJumpJoinLoop,
    /// Our implementation of the paper's §3.6/§7 future work: the compiler
    /// additionally considers the *input-data-set dependence* of each
    /// branch, measured as the spread of its misprediction estimate across
    /// multiple training profiles (see [`compile_adaptive`]). Regions whose
    /// hardness is input-dependent become wish branches; stably hard ones
    /// are plainly predicated; stably easy ones stay normal branches and
    /// pay no wish overhead at all.
    WishAdaptive,
}

impl BinaryVariant {
    /// All five variants of the paper's Table 3.
    pub const ALL: [BinaryVariant; 5] = [
        BinaryVariant::NormalBranch,
        BinaryVariant::BaseDef,
        BinaryVariant::BaseMax,
        BinaryVariant::WishJumpJoin,
        BinaryVariant::WishJumpJoinLoop,
    ];

    /// Table 3's five plus this reproduction's extensions.
    pub const ALL_WITH_EXTENSIONS: [BinaryVariant; 6] = [
        BinaryVariant::NormalBranch,
        BinaryVariant::BaseDef,
        BinaryVariant::BaseMax,
        BinaryVariant::WishJumpJoin,
        BinaryVariant::WishJumpJoinLoop,
        BinaryVariant::WishAdaptive,
    ];

    /// Short label used in experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BinaryVariant::NormalBranch => "normal",
            BinaryVariant::BaseDef => "BASE-DEF",
            BinaryVariant::BaseMax => "BASE-MAX",
            BinaryVariant::WishJumpJoin => "wish-jj",
            BinaryVariant::WishJumpJoinLoop => "wish-jjl",
            BinaryVariant::WishAdaptive => "wish-adaptive",
        }
    }
}

impl std::fmt::Display for BinaryVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Compiler tuning knobs. Defaults follow §4.2.2 of the paper.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CompileOptions {
    /// §4.2.2's N: a region whose predicated body exceeds this many µops
    /// becomes a wish jump/join instead of plain predicated code.
    pub wish_jump_threshold: usize,
    /// §4.2.2's L: a loop body must be smaller than this many µops to become
    /// a wish loop.
    pub wish_loop_body_max: usize,
    /// Branch misprediction penalty used by the cost model (cycles).
    pub mispredict_penalty: f64,
    /// Effective sustained µops/cycle assumed by the cost model when
    /// converting instruction counts to execution-time estimates.
    pub est_ipc: f64,
    /// Largest side (in µops) a region may have and still be if-converted.
    pub max_predicated_side: usize,
    /// [`BinaryVariant::WishAdaptive`] only: a region becomes a wish branch
    /// when its misprediction estimate varies by more than this across the
    /// training profiles (§3.6: "input data set dependence of the branch").
    pub input_dependence_threshold: f64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            wish_jump_threshold: 5,
            wish_loop_body_max: 30,
            mispredict_penalty: 30.0,
            est_ipc: 3.0,
            max_predicated_side: 200,
            input_dependence_threshold: 0.02,
        }
    }
}

/// Static summary of what the compiler did.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CompileReport {
    /// Regions fully predicated (branch removed).
    pub regions_predicated: usize,
    /// Regions converted to wish jump/join form.
    pub regions_wish: usize,
    /// Convertible regions deliberately left as branches.
    pub regions_kept: usize,
    /// Loops converted to wish loops.
    pub loops_wish: usize,
}

/// A compiled binary: the program image plus the compile report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompiledBinary {
    /// The µop program.
    pub program: Program,
    /// What the compiler converted.
    pub report: CompileReport,
}

/// Compiles `module` into the requested binary variant, using `profile`
/// (from [`wishbranch_ir::Interpreter`] on a *training* input) for the cost
/// model — the compiler never sees run-time hardware state, exactly like the
/// paper's ORC-based flow.
///
/// For [`BinaryVariant::WishAdaptive`] with a single profile, all branches
/// look input-independent (zero spread); use [`compile_adaptive`] with
/// several training profiles to exercise the §3.6 heuristic.
#[must_use]
pub fn compile(
    module: &Module,
    profile: &Profile,
    variant: BinaryVariant,
    opts: &CompileOptions,
) -> CompiledBinary {
    let bundle = mir::bundle_profiles(std::slice::from_ref(profile));
    compile_with_bundle(module, &bundle, variant, opts)
}

/// Compiles the [`BinaryVariant::WishAdaptive`] binary from several training
/// profiles (one per input set the compiler gets to see): branches whose
/// estimated misprediction rate is *input-dependent* (spread across profiles
/// above [`CompileOptions::input_dependence_threshold`]) become wish
/// branches, stably hard ones are predicated, stably easy ones stay normal
/// branches — the compile-time consideration the paper lists in §3.6 but
/// leaves to future work (§7).
#[must_use]
pub fn compile_adaptive(
    module: &Module,
    profiles: &[Profile],
    opts: &CompileOptions,
) -> CompiledBinary {
    let bundle = mir::bundle_profiles(profiles);
    compile_with_bundle(module, &bundle, BinaryVariant::WishAdaptive, opts)
}

fn compile_with_bundle(
    module: &Module,
    bundle: &mir::ProfileBundle,
    variant: BinaryVariant,
    opts: &CompileOptions,
) -> CompiledBinary {
    let mut report = CompileReport::default();
    let mut mfuncs: Vec<mir::MFunc> = module
        .funcs()
        .iter()
        .enumerate()
        .map(|(fi, f)| mir::lower_function(wishbranch_ir::FuncId(fi as u32), f, bundle))
        .collect();

    for mf in &mut mfuncs {
        if variant != BinaryVariant::NormalBranch {
            ifconv::run(mf, variant, opts, &mut report);
        }
        if matches!(
            variant,
            BinaryVariant::WishJumpJoinLoop | BinaryVariant::WishAdaptive
        ) {
            wloop::run(mf, opts, &mut report);
        }
    }

    let program = linearize::linearize(&mfuncs, module.main());
    CompiledBinary { program, report }
}
