//! # wishbranch-workloads
//!
//! Nine synthetic benchmarks standing in for the SPEC INT 2000 subset the
//! paper evaluates (Table 4). SPEC sources and MinneSPEC inputs are not
//! reproducible here; instead each program is *engineered to exhibit the
//! branch-behaviour class that drives that benchmark's result in the paper*
//! (see each module's documentation), which is what wish branches interact
//! with. Each benchmark has three input sets A/B/C that change branch
//! predictability at run time — the input-dependence of Fig. 1.
//!
//! | name | modeled behaviour (paper evidence) |
//! |---|---|
//! | `gzip`   | data-dependent literal/match decisions; hardness follows input entropy |
//! | `vpr`    | accept/reject cost hammocks + short variable-trip net loops (wish loops help, Fig. 12) |
//! | `mcf`    | pointer-chasing loads feeding predicates: predication serializes cache misses (BASE-MAX +102%, §5.1) |
//! | `crafty` | ALU-heavy search with mixed-hardness branches |
//! | `parser` | mostly predictable branches, low predication overhead, short variable word loops (wish loops help) |
//! | `gap`    | highly predictable branches: predication is pure overhead, high-confidence mode wins |
//! | `vortex` | extremely predictable branches (0.8 misp/1K µops in Table 4); wish branches gain nothing |
//! | `bzip2`  | sort/count loops whose hardness is strongly input-dependent (Fig. 1's ±16%); wish loops dominate (90% of its dynamic wish branches, Table 4) |
//! | `twolf`  | hard cost-comparison hammocks with sizable arms: predication and wish branches both win big |
//!
//! # Example
//!
//! ```
//! use wishbranch_workloads::{suite, InputSet};
//!
//! let benchmarks = suite(50); // tiny scale for doctests
//! assert_eq!(benchmarks.len(), 9);
//! let gzip = &benchmarks[0];
//! let input = (gzip.input_fn)(InputSet::A);
//! assert!(!input.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench_defs;
pub mod common;

pub use bench_defs::{bzip2, crafty, gap, gzip, mcf, parser, twolf, vortex, vpr};

use wishbranch_ir::Module;

/// The three run-time input sets of Fig. 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InputSet {
    /// Low-entropy input: branches are easy, predication tends to lose.
    A,
    /// Medium entropy.
    B,
    /// High-entropy input: branches are hard, predication tends to win.
    C,
}

impl InputSet {
    /// All input sets.
    pub const ALL: [InputSet; 3] = [InputSet::A, InputSet::B, InputSet::C];

    /// Label used in experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InputSet::A => "input-A",
            InputSet::B => "input-B",
            InputSet::C => "input-C",
        }
    }
}

impl std::fmt::Display for InputSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Generates a benchmark's initial data memory, `(address, value)`
/// words, for an input set.
pub type InputGenerator = fn(InputSet) -> Vec<(u64, i64)>;

/// A benchmark: an IR program plus its input generator.
pub struct Benchmark {
    /// Short name (matches the SPEC benchmark it models).
    pub name: &'static str,
    /// The IR program.
    pub module: Module,
    /// One-line description of the modeled behaviour.
    pub behavior: &'static str,
    /// Generates the initial data memory for an input set.
    pub input_fn: InputGenerator,
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("behavior", &self.behavior)
            .finish_non_exhaustive()
    }
}

/// Builds the full nine-benchmark suite at the given scale (outer-loop
/// iteration count; use ~50–500 for debug-build tests, several thousand for
/// release-mode experiments).
#[must_use]
pub fn suite(scale: i32) -> Vec<Benchmark> {
    vec![
        gzip(scale),
        vpr(scale),
        mcf(scale),
        crafty(scale),
        parser(scale),
        gap(scale),
        vortex(scale),
        bzip2(scale),
        twolf(scale),
    ]
}

/// The input generator of the suite benchmark named `name`, if there is
/// one. A benchmark's inputs depend on neither its scale nor its binary,
/// so a persisted outcome can name its input image by benchmark and input
/// set alone and rebuild it from here.
#[must_use]
pub fn input_generator(name: &str) -> Option<InputGenerator> {
    static TABLE: std::sync::OnceLock<Vec<(&str, InputGenerator)>> = std::sync::OnceLock::new();
    TABLE
        .get_or_init(|| suite(1).into_iter().map(|b| (b.name, b.input_fn)).collect())
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, f)| f)
}
