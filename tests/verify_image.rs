//! The architectural check runs the functional reference on a shared,
//! read-only input image and compares the simulator's final memory with
//! the image overlaid by the reference's writes. These tests pin that
//! check to the plain path it replaced — a reference machine preloaded
//! word by word into its own map — and show that it still names the
//! address of every kind of corruption.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{
    compile_variant, simulate, verify_retired_state, ExperimentConfig, JobError,
    DEFAULT_STEP_BUDGET,
};
use wishbranch_isa::exec::{Machine, MemImage};
use wishbranch_uarch::SimResult;
use wishbranch_workloads::{suite, Benchmark, InputSet};

const VARIANTS: [BinaryVariant; 5] = [
    BinaryVariant::NormalBranch,
    BinaryVariant::BaseDef,
    BinaryVariant::BaseMax,
    BinaryVariant::WishJumpJoin,
    BinaryVariant::WishJumpJoinLoop,
];

/// (a) For every suite benchmark, variant and input, the image overlaid
/// by an image-backed reference run's writes equals the final memory of a
/// reference machine preloaded word by word.
#[test]
fn image_overlay_equals_a_preloaded_reference_run() {
    let ec = ExperimentConfig::quick(30);
    for bench in suite(30) {
        for variant in VARIANTS {
            let program = compile_variant(&bench, variant, &ec).expect("compile").program;
            for input in InputSet::ALL {
                let preload = (bench.input_fn)(input);
                let mut plain = Machine::new();
                for &(a, v) in &preload {
                    plain.mem.insert(a, v);
                }
                let plain = plain.run(&program, DEFAULT_STEP_BUDGET).expect("plain run");

                let image = MemImage::from_preload(preload);
                let on_image = Machine::new()
                    .run_on(&program, &image, DEFAULT_STEP_BUDGET)
                    .expect("image run");
                let overlaid: BTreeMap<u64, i64> = image.overlay(&on_image.mem).collect();

                let what = format!("{} {variant} {input}", bench.name);
                assert_eq!(overlaid, plain.mem, "{what}: final memory");
                assert_eq!(on_image.regs, plain.regs, "{what}: registers");
                assert_eq!(on_image.steps, plain.steps, "{what}: steps");
            }
        }
    }
}

fn expect_divergence_at(
    program: &wishbranch_isa::Program,
    bench: &Benchmark,
    sim: &SimResult,
    addr: u64,
    what: &str,
) {
    match verify_retired_state(program, bench, InputSet::B, sim) {
        Err(JobError::VerifyDivergence { detail }) => assert!(
            detail.contains(&format!("addr {addr:#x}:")),
            "{what}: detail names {addr:#x}: {detail}"
        ),
        other => panic!("{what}: expected VerifyDivergence, got {other:?}"),
    }
}

/// (b) Each corruption of a simulated final memory — a changed input-only
/// word, a changed written word, an extra address, a missing address — is
/// a typed divergence that names the corrupted address.
#[test]
fn each_corruption_names_its_address() {
    let ec = ExperimentConfig::quick(30);
    let bench = &suite(30)[0];
    let program = compile_variant(bench, BinaryVariant::NormalBranch, &ec)
        .expect("compile")
        .program;
    let sim = simulate(&program, bench, InputSet::B, &ec.machine).expect("sim");
    verify_retired_state(&program, bench, InputSet::B, &sim).expect("clean run verifies");

    let image = MemImage::from_preload((bench.input_fn)(InputSet::B));
    let written = Machine::new()
        .run_on(&program, &image, DEFAULT_STEP_BUDGET)
        .expect("reference")
        .mem;
    let (&written_addr, _) = written.iter().next().expect("the program writes memory");
    let &(input_only, _) = image
        .words()
        .iter()
        .find(|(a, _)| !written.contains_key(a))
        .expect("some input word is never written");
    let extra = (0..)
        .map(|k| written_addr.wrapping_add(8 * k + 4))
        .find(|a| !sim.final_mem.contains_key(a))
        .expect("a free address");

    let mut changed_input = sim.clone();
    *changed_input.final_mem.get_mut(&input_only).expect("present") ^= 1;
    expect_divergence_at(&program, bench, &changed_input, input_only, "changed input word");

    let mut changed_write = sim.clone();
    *changed_write.final_mem.get_mut(&written_addr).expect("present") ^= 1;
    expect_divergence_at(&program, bench, &changed_write, written_addr, "changed written word");

    let mut extra_word = sim.clone();
    extra_word.final_mem.insert(extra, 7);
    expect_divergence_at(&program, bench, &extra_word, extra, "extra address");

    let mut missing = sim.clone();
    missing.final_mem.remove(&input_only);
    expect_divergence_at(&program, bench, &missing, input_only, "missing address");
}

fn preload_strategy() -> impl Strategy<Value = Vec<(u64, i64)>> {
    // Few distinct addresses, so duplicates are common.
    prop::collection::vec((0u64..24, any::<i64>()), 0..64)
        .prop_map(|words| words.into_iter().map(|(a, v)| (a * 8, v)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (c) Normalising an unsorted preload list with duplicate addresses
    /// gives what inserting it in order into a map gives: one word per
    /// address, the last write winning, sorted by address.
    #[test]
    fn normalised_preload_matches_map_last_write_wins(preload in preload_strategy()) {
        let mut map = HashMap::new();
        for &(a, v) in &preload {
            map.insert(a, v);
        }
        let mut expect: Vec<(u64, i64)> = map.into_iter().collect();
        expect.sort_unstable();
        let image = MemImage::from_preload(preload);
        prop_assert_eq!(image.words(), expect.as_slice());
        for &(a, v) in &expect {
            prop_assert_eq!(image.get(a), Some(v));
        }
    }
}
