//! Golden-figure regression: headline averages of Figs. 10 and 12 at a
//! reduced, fully deterministic scale.
//!
//! EXPERIMENTS.md records the paper-scale (WISHBRANCH_SCALE=4000) headline
//! numbers — Fig. 10 wish-jj AVGnomcf 0.918, Fig. 12 wish-jjl AVG 0.827,
//! BASE-DEF 0.892. Simulating at that scale is minutes of work, so this
//! test snapshots the same averages at scale 150 on the paper machine
//! (values measured from the engine, which is bit-identical to the serial
//! spine — see `engine_equivalence.rs`). The whole stack is deterministic,
//! so a drift beyond the stated tolerance means a real change to the
//! compiler, simulator, or workloads — rerun the paper-scale sweep and
//! update both this snapshot and EXPERIMENTS.md if the change is intended.

mod support;

use proptest::prelude::*;
use support::{splitmix64, LaneJob};
use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{
    compile_adaptive_variant, compile_variant, simulate, Experiment, ExperimentConfig, FigureData,
    Report, ReportData, SweepRunner,
};
use wishbranch_uarch::{MachineConfig, PredMechanism, SimResult, Simulator};
use wishbranch_workloads::{suite, InputSet};

const SCALE: i32 = 150;

/// Tolerance on each snapshot value. Generous enough to survive benign
/// heuristic retunes, tight enough to catch a broken mechanism (breaking
/// wish-loop conversion moves the Fig. 12 averages by > 0.02).
const TOL: f64 = 0.015;

fn avg_row<'a>(fig: &'a FigureData, which: &str, series: &str) -> f64 {
    let idx = fig
        .series
        .iter()
        .position(|s| s == series)
        .unwrap_or_else(|| panic!("series {series:?} missing from {:?}", fig.series));
    fig.rows
        .iter()
        .find(|r| r.name == which)
        .unwrap_or_else(|| panic!("{which} row missing"))
        .values[idx]
}

fn assert_close(label: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= TOL,
        "{label}: got {got:.6}, snapshot {want:.6} (tolerance ±{TOL})"
    );
}

/// Runs an experiment through the catalog and unwraps the figure payload —
/// so the golden values below pin the `Experiment::run` → `Report` path,
/// the only way to run an experiment.
fn run_figure(exp: Experiment, runner: &SweepRunner) -> (Report, FigureData) {
    let report = exp.run(runner);
    let ReportData::Figure(fig) = report.data.clone() else {
        panic!("{}: expected a figure payload", report.id)
    };
    (report, fig)
}

#[test]
fn figure_10_and_12_headline_averages_match_snapshot() {
    let ec = ExperimentConfig::paper(SCALE);
    let runner = SweepRunner::new(&ec);
    let (report10, fig10) = run_figure(Experiment::Fig10, &runner);
    let (_, fig12) = run_figure(Experiment::Fig12, &runner);

    // The report serializes the exact simulated values (six decimals).
    assert!(
        report10.to_json().contains(&format!(
            "{:.6}",
            avg_row(&fig10, "AVG", "BASE-DEF")
        )),
        "fig10 JSON must carry the snapshot value verbatim"
    );

    // Fig. 10 snapshot (scale 150).
    assert_close("fig10 BASE-DEF AVG", avg_row(&fig10, "AVG", "BASE-DEF"), 1.001474);
    assert_close(
        "fig10 wish-jj AVGnomcf",
        avg_row(&fig10, "AVGnomcf", "wish-jj (real-conf)"),
        0.982445,
    );
    assert_close(
        "fig10 wish-jj perf-conf AVG",
        avg_row(&fig10, "AVG", "wish-jj (perf-conf)"),
        0.974505,
    );

    // Fig. 12 snapshot (scale 150).
    assert_close(
        "fig12 wish-jjl AVG",
        avg_row(&fig12, "AVG", "wish-jjl (real-conf)"),
        0.943934,
    );
    assert_close(
        "fig12 wish-jjl AVGnomcf",
        avg_row(&fig12, "AVGnomcf", "wish-jjl (real-conf)"),
        0.917767,
    );

    // The paper's qualitative headline must hold at any scale: adding wish
    // loops beats both the predicated baseline and the jump/join binary.
    let wjjl = avg_row(&fig12, "AVGnomcf", "wish-jjl (real-conf)");
    assert!(
        wjjl < avg_row(&fig12, "AVGnomcf", "BASE-DEF"),
        "wish-jjl must beat BASE-DEF"
    );
    assert!(
        wjjl < avg_row(&fig12, "AVGnomcf", "wish-jj (real-conf)"),
        "wish loops must add benefit over jump/join alone"
    );
    assert!(wjjl < 1.0, "wish-jjl must beat the normal-branch binary");
}

// ---------------------------------------------------------------------------
// Randomized old-vs-new simulator equivalence.
//
// The hot-path overhaul (pre-decoded µop cache, flat state tables, wakeup
// lists) must not move a single architected number. These fingerprints were
// generated with the pre-overhaul simulator over a seeded random matrix of
// benchmark × variant × machine-config jobs; the rewritten simulator must
// reproduce every `SimResult` — stats, cycle accounting, hot-site table and
// final architectural state — byte for byte.
//
// To regenerate after an *intended* architected change:
//   cargo test --release --test golden_figures regenerate_random_job_goldens -- --ignored --nocapture

/// Scale for the randomized jobs (small: the matrix runs many machines).
const RJ_SCALE: i32 = 40;

/// Number of randomized jobs in the golden matrix.
const RJ_CASES: u64 = 24;

/// Pre-overhaul `SimResult` fingerprints, one per randomized job.
const RJ_GOLDEN: [u64; RJ_CASES as usize] = [
    0xd9bd_81d0_f5f3_6d33,
    0x7a29_d3d9_9eee_4c9c,
    0x92f6_ad70_f4b5_1782,
    0xc972_5c86_cf8b_ccb9,
    0x768f_b5ab_dcd2_e6aa,
    0xac76_cac9_ed00_b71f,
    0xf751_bd5a_2a1e_bbcc,
    0x29e7_d0b0_7418_dfe9,
    0x0306_3a37_ba34_3964,
    0xd765_7f74_abab_f03d,
    0x213f_61fc_5f75_9037,
    0x9fba_2bd1_9e0e_8bac,
    0xb123_158c_84d6_7e52,
    0x01ab_c847_5a77_6cb6,
    0x4f94_6c24_c135_d768,
    0x00e0_ce56_389d_4041,
    0x9540_4fa5_7960_240a,
    0x60fc_5c40_ffc2_19c4,
    0xbb81_67fb_9ed1_af03,
    0xe3f5_98d3_d9cc_e828,
    0xab41_005d_7bbe_4f90,
    0x077f_c5d1_2e46_9411,
    0xf632_42a1_bb9c_e9df,
    0xf6f7_00b1_16e1_3774,
];

/// FNV-1a-64 over a canonical byte serialization of a whole [`SimResult`]:
/// every stats field in declaration order, the cycle-accounting rows, the
/// hot-site table, cache stats, and the final architectural state.
fn fingerprint(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let s = &r.stats;
    for v in [
        s.cycles,
        s.retired_uops,
        s.retired_guard_false,
        s.retired_select_uops,
        s.retired_cond_branches,
        s.flushes,
        s.retired_mispredicted,
        s.flushes_avoided,
        s.fetched_uops,
        s.fetch_idle_cycles,
        s.fetch_idle_imiss,
        s.fetch_idle_redirect,
        s.fetch_idle_queue_full,
        s.fetch_idle_blocked,
        s.dispatch_idle_cycles,
        s.retire_idle_cycles,
        s.squashed_uops,
        s.dhp_predications,
        s.dhp_flushes_avoided,
        s.pred_value_predictions,
        s.pred_value_mispredictions,
    ] {
        put(v);
    }
    for w in [&s.wish_jumps, &s.wish_joins, &s.wish_loops] {
        put(w.high_correct);
        put(w.high_mispredicted);
        put(w.low_correct);
        put(w.low_mispredicted);
    }
    put(s.loop_early_exits);
    put(s.loop_late_exits);
    put(s.loop_no_exits);
    // The nine flat-model accounting causes, explicitly — NOT rows(), so
    // adding hierarchy-only causes (mshr_full/miss_pending, zero for every
    // golden job because the knobs default off) cannot silently shift the
    // hash. The assert pins that precondition.
    let a = &s.cycle_accounting;
    assert_eq!(
        (a.mshr_full, a.miss_pending),
        (0, 0),
        "golden jobs run the flat memory model; hierarchy causes must be zero"
    );
    for v in [
        a.useful_retire,
        a.guard_false_retire,
        a.select_uop_retire,
        a.exec_wait,
        a.rob_stall,
        a.flush_recovery,
        a.fetch_imiss,
        a.fetch_redirect,
        a.frontend_fill,
    ] {
        put(v);
    }
    for (&pc, c) in &s.hot_sites {
        put(u64::from(pc));
        put(c.flushes);
        put(c.flushes_avoided);
        put(c.guard_false_uops);
    }
    for c in [&s.icache, &s.l1d, &s.l2] {
        put(c.hits);
        put(c.misses);
        put(c.probes);
    }
    for &v in &r.final_regs {
        put(v as u64);
    }
    for &p in &r.final_preds {
        put(u64::from(p));
    }
    for (&a, &v) in &r.final_mem {
        put(a);
        put(v as u64);
    }
    h
}

// ---------------------------------------------------------------------------
// Second golden lane: the same job matrix with the non-blocking memory
// hierarchy on.
//
// The flat lane above pins the default model byte-for-byte; this lane pins
// `MemConfig::realistic_preset()` (I-MSHRs, next-line instruction
// prefetch, finite write buffer, limited data ports, store forwarding,
// stride prefetch) with per-case knob variation, so a timing change
// anywhere in the hierarchy path — MSHR allocation, fill ordering, port
// arbitration, write-buffer drains, wrong-path cancellation — moves a
// committed fingerprint. The hierarchy fingerprint hashes the FULL
// 13-cause accounting split plus the hierarchy-only counters the flat
// fingerprint deliberately excludes.
//
// To regenerate after an *intended* timing change:
//   cargo test --release --test golden_figures regenerate_hierarchy_job_goldens -- --ignored --nocapture

/// Hierarchy-on `SimResult` fingerprints, one per randomized job.
const RH_GOLDEN: [u64; RJ_CASES as usize] = [
    0xfa03_c0fa_8edf_e68c,
    0x3405_98db_2b39_8850,
    0xe05b_6f53_ce24_c64b,
    0xab13_a85c_f671_6ceb,
    0x0323_c44f_efd3_2790,
    0x28ae_65f9_b6ad_b5bd,
    0x41fa_e690_e817_41a3,
    0x22a3_0472_0494_dbf8,
    0x302b_843e_81eb_9a4e,
    0xbc6a_5430_69dc_2275,
    0x9d1a_d5c8_abca_bf3b,
    0x45c1_2d04_691e_8bec,
    0x539e_9edc_9767_227b,
    0x30a7_01e1_27e4_9de0,
    0xb4ff_3b1a_005f_391c,
    0xe87c_0bb4_cddc_acc4,
    0xabef_c0b2_b370_258c,
    0x2d73_fadc_6c63_a459,
    0x7514_01aa_7a88_2619,
    0xa321_cb34_62bb_1d52,
    0xaf58_f5c6_663d_e7b5,
    0x5841_6535_cb3e_a1ae,
    0xf6d3_5cb8_43a3_e664,
    0x4fdf_32ee_5ff3_51ed,
];

/// FNV-1a-64 over the flat fingerprint's serialization PLUS the full
/// 13-row cycle-accounting split and the hierarchy-only counters
/// (`mshr_full_stalls`, `writebuf_full_stalls`, `port_conflict_stalls`,
/// `wrong_path_fills`, `store_forwards`, `load_replays`) — everything the
/// non-blocking model can move.
fn fingerprint_hierarchy(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let s = &r.stats;
    for v in [
        s.cycles,
        s.retired_uops,
        s.retired_guard_false,
        s.retired_select_uops,
        s.retired_cond_branches,
        s.flushes,
        s.retired_mispredicted,
        s.flushes_avoided,
        s.fetched_uops,
        s.fetch_idle_cycles,
        s.fetch_idle_imiss,
        s.fetch_idle_redirect,
        s.fetch_idle_queue_full,
        s.fetch_idle_blocked,
        s.dispatch_idle_cycles,
        s.retire_idle_cycles,
        s.squashed_uops,
        s.store_forwards,
        s.load_replays,
        s.mshr_full_stalls,
        s.writebuf_full_stalls,
        s.port_conflict_stalls,
        s.wrong_path_fills,
    ] {
        put(v);
    }
    for (_, v) in s.cycle_accounting.rows() {
        put(v);
    }
    for (&pc, c) in &s.hot_sites {
        put(u64::from(pc));
        put(c.flushes);
        put(c.flushes_avoided);
        put(c.guard_false_uops);
    }
    for c in [&s.icache, &s.l1d, &s.l2] {
        put(c.hits);
        put(c.misses);
        put(c.probes);
    }
    for &v in &r.final_regs {
        put(v as u64);
    }
    for &p in &r.final_preds {
        put(u64::from(p));
    }
    for (&a, &v) in &r.final_mem {
        put(a);
        put(v as u64);
    }
    h
}

/// The hierarchy-lane job: the flat lane's job with the memory model
/// swapped for the realistic preset, then per-case knob variation drawn
/// from an independent stream — every new knob gets exercised at several
/// values across the 24 cases.
fn random_hierarchy_job(case: u64) -> (usize, Option<BinaryVariant>, InputSet, MachineConfig) {
    let (bench, variant, input, mut m) = random_job(case);
    m.mem = wishbranch_mem::MemConfig::realistic_preset();
    let mut st = 0x43ac_4e5e_u64 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut pick = |n: u64| splitmix64(&mut st) % n;
    m.mem.write_buffer_entries = [0, 2, 4][pick(3) as usize];
    m.mem.data_ports = [0, 1, 2][pick(3) as usize];
    if pick(3) == 0 {
        m.mem.iprefetch = false;
    }
    m.mem.i_mshrs = [1, 4][pick(2) as usize];
    if pick(3) == 0 {
        m.mem.l1_mshrs = 2;
    }
    if pick(3) == 0 {
        m.mem.prefetch_entries = 0;
    }
    if pick(4) == 0 {
        m.mem.store_forwarding = false;
    }
    (bench, variant, input, m)
}

/// Runs one hierarchy-lane job through the full suite spine and
/// fingerprints the verified result.
fn run_hierarchy_job(case: u64) -> u64 {
    let (bench_idx, variant, input, machine) = random_hierarchy_job(case);
    let ec = ExperimentConfig::quick(RJ_SCALE);
    let benches = suite(RJ_SCALE);
    let bench = &benches[bench_idx];
    let bin = match variant {
        Some(v) => compile_variant(bench, v, &ec).expect("compile"),
        None => compile_adaptive_variant(bench, &[InputSet::A, InputSet::C], &ec)
            .expect("compile adaptive"),
    };
    let result = simulate(&bin.program, bench, input, &machine).expect("simulate + verify");
    fingerprint_hierarchy(&result)
}

/// Every hierarchy-lane job must reproduce its committed fingerprint
/// exactly — the non-blocking model's timing is pinned as tightly as the
/// flat model's.
#[test]
fn randomized_hierarchy_jobs_are_bit_identical_to_goldens() {
    for case in 0..RJ_CASES {
        let got = run_hierarchy_job(case);
        assert_eq!(
            got,
            RH_GOLDEN[case as usize],
            "case {case} ({:?}): hierarchy SimResult diverged from its golden",
            random_hierarchy_job(case)
        );
    }
}

/// Regeneration helper (ignored): prints the hierarchy golden array.
#[test]
#[ignore = "golden generator, run manually with --nocapture"]
fn regenerate_hierarchy_job_goldens() {
    println!("const RH_GOLDEN: [u64; RJ_CASES as usize] = [");
    for case in 0..RJ_CASES {
        println!("    {:#018x},", run_hierarchy_job(case));
    }
    println!("];");
}

/// One randomized job drawn from the splitmix64 stream: a benchmark, a
/// binary variant (including the adaptive extension), an input set, and a
/// machine configuration spanning every mechanism the simulator models.
fn random_job(case: u64) -> (usize, Option<BinaryVariant>, InputSet, MachineConfig) {
    let mut st = 0x5eed_c0de_u64 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut pick = |n: u64| splitmix64(&mut st) % n;

    let bench = pick(9) as usize; // the suite has nine benchmarks
    // None = the adaptive extension binary (compiled from several profiles).
    let variant = match pick(6) {
        0 => Some(BinaryVariant::NormalBranch),
        1 => Some(BinaryVariant::BaseDef),
        2 => Some(BinaryVariant::BaseMax),
        3 => Some(BinaryVariant::WishJumpJoin),
        4 => Some(BinaryVariant::WishJumpJoinLoop),
        _ => None,
    };
    let input = [InputSet::A, InputSet::B, InputSet::C][pick(3) as usize];

    let mut m = MachineConfig {
        pipeline_depth: [5, 10, 30][pick(3) as usize],
        rob_size: [32, 64, 128, 512][pick(4) as usize],
        fetch_width: [4, 8][pick(2) as usize],
        ..MachineConfig::default()
    };
    m.max_cond_branches_per_cycle = [2, 3][pick(2) as usize];
    if pick(2) == 0 {
        m.pred_mechanism = PredMechanism::SelectUop;
    }
    if pick(4) == 0 {
        m.wish_enabled = false;
    }
    match pick(5) {
        0 => m.oracles.perfect_confidence = true,
        1 => m.oracles.perfect_branch_prediction = true,
        2 => m.oracles.no_pred_dependencies = true,
        3 => {
            m.oracles.no_pred_dependencies = true;
            m.oracles.no_false_predicate_fetch = true;
        }
        _ => {}
    }
    if pick(4) == 0 {
        m.dhp_enabled = true;
    }
    if pick(4) == 0 && !m.dhp_enabled {
        m.predicate_prediction = true;
    }
    if pick(3) == 0 {
        m.wish_loop_predictor = Some(Default::default());
    }
    if pick(3) == 0 {
        m.mem.max_outstanding_misses = 2;
    }
    (bench, variant, input, m)
}

/// Runs one randomized job through the full suite spine (profile →
/// compile → simulate → verify) and fingerprints the verified result.
fn run_random_job(case: u64) -> u64 {
    let (bench_idx, variant, input, machine) = random_job(case);
    let ec = ExperimentConfig::quick(RJ_SCALE);
    let benches = suite(RJ_SCALE);
    let bench = &benches[bench_idx];
    let bin = match variant {
        Some(v) => compile_variant(bench, v, &ec).expect("compile"),
        None => compile_adaptive_variant(bench, &[InputSet::A, InputSet::C], &ec)
            .expect("compile adaptive"),
    };
    let result = simulate(&bin.program, bench, input, &machine).expect("simulate + verify");
    fingerprint(&result)
}

/// Exhaustive check: every randomized job must reproduce its pre-overhaul
/// fingerprint exactly (stats, cycle accounting, hot sites, final state).
#[test]
fn randomized_jobs_are_bit_identical_to_pre_overhaul_goldens() {
    for case in 0..RJ_CASES {
        let got = run_random_job(case);
        assert_eq!(
            got, RJ_GOLDEN[case as usize],
            "case {case} ({:?}): SimResult diverged from the pre-overhaul simulator",
            random_job(case)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property flavor of the same check: a randomly sampled job from the
    /// golden matrix stays byte-identical to its pre-overhaul fingerprint
    /// (and, being run twice across the two tests, doubles as a
    /// determinism check).
    #[test]
    fn sampled_random_job_matches_pre_overhaul_golden(case in 0u64..RJ_CASES) {
        prop_assert_eq!(run_random_job(case), RJ_GOLDEN[case as usize]);
    }
}

/// Regeneration helper (ignored): prints the golden array for pasting.
#[test]
#[ignore = "golden generator, run manually with --nocapture"]
fn regenerate_random_job_goldens() {
    println!("const RJ_GOLDEN: [u64; RJ_CASES as usize] = [");
    for case in 0..RJ_CASES {
        println!("    {:#018x},", run_random_job(case));
    }
    println!("];");
}

// ---------------------------------------------------------------------------
// Third golden lane: the out-of-order engine against the retired scalar core.
//
// The simulator once carried two copies of its pipeline: a scalar core
// behind `Simulator` and the structure-of-arrays lane core behind
// `BatchSimulator`, proven equal job by job. The scalar copy is gone and
// `Simulator` is now a one-lane view of the lane engine, so that
// comparison became a tautology. These fingerprints keep the scalar core's
// answers instead: they were generated by it, before its deletion, over
// the `support::random_lane` draw of 64 seeds (every mechanism, all three
// memory models), the I-miss-heavy program under five I-side
// configurations, and the two straggler programs. The engine must
// reproduce every entry. `fingerprint_lane` hashes every `SimStats` field
// plus the final architectural state.
//
// To regenerate after an *intended* timing change:
//   cargo test --release --test golden_figures regenerate_lane_goldens -- --ignored --nocapture

/// Seeds of the random-lane draw (the first lane of each seed's stream).
const RL_SEEDS: u64 = 64;

/// Entries: one per seed, one per I-miss configuration, two stragglers.
const RL_CASES: usize = RL_SEEDS as usize + 5 + 2;

/// `SimResult` fingerprints of the scalar core, one per lane job.
const RL_GOLDEN: [u64; RL_CASES] = [
    0xae65_c7b6_0335_38ce,
    0xf86e_62f8_632d_5504,
    0x3a8a_a011_dd64_e757,
    0x43bd_369b_12e3_2b63,
    0x01f6_e38c_dded_160b,
    0x0a85_71ea_d0f8_d27b,
    0x2a63_fe94_2c55_b413,
    0xfbaf_3eab_8f92_f728,
    0xb2f3_580e_407d_a00c,
    0xd3f0_7fa9_c343_9248,
    0x37b8_2aa9_6c24_a82f,
    0x8681_d95a_7fb7_ac4b,
    0xd9eb_b036_3aee_2678,
    0x0724_ab24_4f1d_48ac,
    0x0330_7fb2_f1b4_7ae7,
    0xb3e6_07aa_2e03_01bf,
    0x2c17_e80f_673a_60ed,
    0xb7ae_6cd7_cc18_c1db,
    0x4e2d_991c_0880_128e,
    0x2d3c_430e_f424_87d8,
    0x0d7e_f8d9_d8ea_5c79,
    0xb1a5_8674_ef1c_3e76,
    0xea47_eaa6_8019_288a,
    0x6b04_6c19_66ea_559b,
    0xa59d_570c_537d_1a5d,
    0x4aab_9b74_c817_369e,
    0xd8bb_7a91_03a2_e9c6,
    0x08ca_97b5_883e_95bd,
    0xa40f_bf0b_2274_ab9e,
    0x9ab9_e5f0_7261_732b,
    0x2370_5dc6_8711_9a95,
    0xf81c_78ca_2cc0_c99a,
    0x0b39_558f_26dd_d301,
    0xa6d0_bc13_8723_e425,
    0x15cf_f5d8_97a3_2679,
    0x0d26_6b45_ebd8_4c9c,
    0x3a38_e168_02fb_8f08,
    0xefe8_61b0_f036_12b5,
    0x011b_5693_c987_0b42,
    0x8efd_fdc1_2715_4c6e,
    0x1cd6_8144_6233_3632,
    0x4a3f_8af7_613c_6650,
    0x6684_6cde_5e4b_bdec,
    0x5e96_e3e8_5a62_a855,
    0xb753_dc4c_a94c_c82d,
    0x8720_21fd_7ffb_283f,
    0x9318_3940_46cd_ab5e,
    0x9eb4_8135_1df6_964a,
    0x69d7_81d8_7ebb_80a6,
    0x9068_16a1_b81d_6193,
    0xcdc3_5985_7dfc_fefe,
    0x1ff0_cf40_6b17_87ca,
    0x0c12_bce1_2e78_22d2,
    0x2f69_d1fb_861c_8942,
    0x50fa_fd9e_de20_d6c2,
    0x1de1_8896_7dd6_4194,
    0x483a_ed82_6aa0_80e8,
    0x555d_66f5_e231_3173,
    0x5ce6_dbf7_57f3_13b0,
    0x349e_a51d_48fa_3d9b,
    0x7068_b977_c953_96f4,
    0x5106_8753_f79b_4453,
    0x74b8_b9ca_9e69_d2e2,
    0x39cb_f5ba_71f4_ab7c,
    0x7628_a7fd_988b_73d0,
    0x067b_6ce4_990d_1ed7,
    0xa5d3_fb96_d640_c9fe,
    0x7628_a7fd_988b_73d0,
    0xa1ad_3bf7_766d_5753,
    0xb29b_d9a6_7095_4bbd,
    0x2b14_be91_05e2_0bf0,
];

/// The third lane's jobs, in golden-table order.
fn lane_golden_jobs() -> Vec<LaneJob> {
    let mut jobs: Vec<LaneJob> = (0..RL_SEEDS).map(support::seeded_lane).collect();
    let program = support::imiss_program();
    for (name, cfg) in support::imiss_configs() {
        jobs.push(LaneJob {
            label: format!("imiss {name}"),
            program: program.clone(),
            cfg,
            preload: Vec::new(),
        });
    }
    jobs.extend(support::straggler_jobs());
    jobs
}

fn run_lane_job(job: &LaneJob) -> SimResult {
    let mut sim = Simulator::new(&job.program, job.cfg.clone());
    for &(a, v) in &job.preload {
        sim.preload_mem(a, v);
    }
    sim.run().unwrap_or_else(|e| panic!("{}: {e}", job.label))
}

/// The hierarchy fingerprint continued over the mechanism counters only
/// the flat fingerprint hashes (DHP, predicate prediction, the wish-class
/// confidence split, loop exits): every `SimStats` field a lane can move.
fn fingerprint_lane(r: &SimResult) -> u64 {
    let mut h = fingerprint_hierarchy(r);
    let s = &r.stats;
    let mut fields = vec![
        s.dhp_predications,
        s.dhp_flushes_avoided,
        s.pred_value_predictions,
        s.pred_value_mispredictions,
        s.loop_early_exits,
        s.loop_late_exits,
        s.loop_no_exits,
    ];
    for w in [&s.wish_jumps, &s.wish_joins, &s.wish_loops] {
        fields.extend([
            w.high_correct,
            w.high_mispredicted,
            w.low_correct,
            w.low_mispredicted,
        ]);
    }
    for v in fields {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every lane job reproduces the scalar core's fingerprint. The I-miss
/// composition must also actually stall on non-blocking I-fills under the
/// hierarchy (and never under the flat model), or it tests nothing.
#[test]
fn lane_engine_reproduces_scalar_core_goldens() {
    let jobs = lane_golden_jobs();
    assert_eq!(jobs.len(), RL_CASES);
    for (i, job) in jobs.iter().enumerate() {
        let r = run_lane_job(job);
        if job.label.starts_with("imiss") {
            let pending = r.stats.cycle_accounting.imiss_pending;
            assert_eq!(
                pending > 0,
                job.cfg.mem.realistic,
                "{}: {pending}",
                job.label
            );
        }
        assert_eq!(
            fingerprint_lane(&r),
            RL_GOLDEN[i],
            "case {i} ({}): SimResult diverged from the scalar core's golden",
            job.label
        );
    }
}

/// Regeneration helper (ignored): prints the lane golden array.
#[test]
#[ignore = "golden generator, run manually with --nocapture"]
fn regenerate_lane_goldens() {
    println!("const RL_GOLDEN: [u64; RL_CASES] = [");
    for job in lane_golden_jobs() {
        println!("    {:#018x},", fingerprint_lane(&run_lane_job(&job)));
    }
    println!("];");
}
