//! Oracle regression for the non-blocking memory hierarchy: MSHRs (data
//! and instruction side), future-cycle fills, store-to-load forwarding,
//! stride and next-line instruction prefetch, the asynchronous write
//! buffer and the data-port limit are *timing-only* mechanisms, so with
//! the hierarchy enabled (a) the lockstep oracle must still report zero
//! divergences across the whole suite × variant matrix, and (b) every run
//! must retire exactly the architectural state the flat-latency model
//! retires.

use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{compile_variant, simulate, validate_suite, ExperimentConfig};
use wishbranch_uarch::MachineConfig;
use wishbranch_workloads::{suite, InputSet};

const SCALE: i32 = 40;

/// The hierarchy configuration under test: the realistic preset —
/// forwarding on, tight-ish MSHR files on both sides, prefetchers, a
/// finite write buffer and limited data ports — so the contended paths
/// actually run.
fn hierarchy_machine(base: &MachineConfig) -> MachineConfig {
    let mut m = base.clone();
    m.mem = wishbranch_mem::MemConfig::realistic_preset();
    m
}

/// The full retirement stream of every suite workload × binary variant,
/// replayed through the lockstep oracle with the hierarchy on: zero
/// divergences.
#[test]
fn hierarchy_suite_replays_clean_through_the_oracle() {
    let ec = ExperimentConfig::quick(SCALE);
    let report = validate_suite(&ec, InputSet::B, true);
    assert!(
        report.passed(),
        "hierarchy lockstep divergences: {:?}",
        report.failures
    );
    assert_eq!(report.jobs, suite(SCALE).len() * BinaryVariant::ALL.len());
}

/// The hierarchy must retire the exact architectural state of the flat
/// model — registers, predicates and memory — for every suite workload,
/// on both the branch and the fully predicated binary (the variant whose
/// guard-false loads exercise the hierarchy hardest).
#[test]
fn hierarchy_matches_flat_model_architectural_state() {
    let ec = ExperimentConfig::quick(SCALE);
    let real = hierarchy_machine(&ec.machine);
    for bench in suite(SCALE) {
        for variant in [BinaryVariant::NormalBranch, BinaryVariant::BaseMax] {
            let bin = compile_variant(&bench, variant, &ec).expect("compile");
            let flat =
                simulate(&bin.program, &bench, InputSet::B, &ec.machine).expect("flat run");
            let hier = simulate(&bin.program, &bench, InputSet::B, &real).expect("hier run");
            let label = format!("{} {variant:?}", bench.name);
            assert_eq!(hier.final_regs, flat.final_regs, "{label}: registers diverged");
            assert_eq!(hier.final_preds, flat.final_preds, "{label}: predicates diverged");
            assert_eq!(hier.final_mem, flat.final_mem, "{label}: memory diverged");
            assert_eq!(
                hier.stats.retired_uops, flat.stats.retired_uops,
                "{label}: timing-only mechanisms must not change the retired stream length"
            );
        }
    }
}
