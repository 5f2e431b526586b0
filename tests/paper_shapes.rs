//! Cross-crate integration tests: the paper's qualitative results must
//! hold end-to-end (workloads → compiler → simulator → figures), at a
//! scale small enough for debug builds.

use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{
    run_binary, Experiment, ExperimentConfig, ReportData, SweepRunner,
};
use wishbranch_workloads::{mcf, suite, InputSet};

fn quick() -> ExperimentConfig {
    // Paper machine at reduced scale: big enough for the confidence
    // estimator to warm up and for 30-cycle flushes to matter, small enough
    // for debug-build CI.
    ExperimentConfig::paper(800)
}

fn quick_runner() -> SweepRunner {
    SweepRunner::new(&quick())
}

/// Runs a catalog experiment and unwraps its figure payload — the
/// catalog is the only way to run an experiment.
fn figure_of(exp: Experiment, runner: &SweepRunner) -> wishbranch_core::FigureData {
    match exp.run(runner).data {
        ReportData::Figure(fig) => fig,
        other => panic!("{exp:?} did not return a figure: {other:?}"),
    }
}

fn row<'a>(fig: &'a wishbranch_core::FigureData, name: &str) -> &'a [f64] {
    &fig
        .rows
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("row {name} missing"))
        .values
}

#[test]
fn figure2_oracle_ordering_holds() {
    let fig = figure_of(Experiment::Fig2, &quick_runner());
    // Removing overhead can only help: BASE-MAX ≥ NO-DEPEND ≥ NO-DEPEND+NO-FETCH.
    for r in &fig.rows {
        let (base, no_dep, no_dep_no_fetch) = (r.values[0], r.values[1], r.values[2]);
        assert!(
            no_dep <= base * 1.10,
            "{}: NO-DEPEND must not exceed BASE-MAX materially ({no_dep:.3} vs {base:.3})",
            r.name
        );
        // Per-benchmark, NO-FETCH can wiggle a few percent above NO-DEPEND
        // through second-order fetch-grouping effects (removing NOPs
        // repacks fetch groups around taken branches); the ordering is
        // guaranteed in aggregate below.
        assert!(
            no_dep_no_fetch <= no_dep * 1.10,
            "{}: NO-FETCH must not exceed NO-DEPEND materially ({no_dep_no_fetch:.3} vs {no_dep:.3})",
            r.name
        );
    }
    // Perfect branch prediction beats everything on average (the paper's
    // 37.4% headroom argument).
    let avg = row(&fig, "AVG");
    assert!(avg[1] <= avg[0], "AVG: NO-DEPEND ≤ BASE-MAX: {avg:?}");
    assert!(avg[2] <= avg[1], "AVG: NO-FETCH ≤ NO-DEPEND: {avg:?}");
    assert!(avg[3] < 1.0, "PERFECT-CBP must beat normal branches: {avg:?}");
    assert!(avg[3] < avg[2], "PERFECT-CBP must beat ideal predication: {avg:?}");
}

#[test]
fn figure12_wish_branches_win_on_average() {
    let fig = figure_of(Experiment::Fig12, &quick_runner());
    let avg = row(&fig, "AVG");
    let series: Vec<&str> = fig.series.iter().map(String::as_str).collect();
    assert_eq!(
        series,
        [
            "BASE-DEF",
            "BASE-MAX",
            "wish-jj (real-conf)",
            "wish-jjl (real-conf)",
            "wish-jjl (perf-conf)"
        ]
    );
    let (base_def, base_max, wjj, wjjl, wjjl_perf) =
        (avg[0], avg[1], avg[2], avg[3], avg[4]);
    // The headline claims, directionally.
    assert!(wjjl < 1.0, "wish-jjl must beat normal branches: {wjjl:.3}");
    assert!(
        wjjl < base_def.min(base_max),
        "wish-jjl must beat the best predicated baseline: {wjjl:.3} vs {base_def:.3}/{base_max:.3}"
    );
    assert!(
        wjjl <= wjj + 0.02,
        "adding wish loops must not hurt: {wjjl:.3} vs {wjj:.3}"
    );
    assert!(
        wjjl_perf <= wjjl + 0.01,
        "perfect confidence must not hurt: {wjjl_perf:.3} vs {wjjl:.3}"
    );
}

#[test]
fn figure14_mem_latency_wish_advantage_grows_with_latency() {
    let rows = match Experiment::Fig14Mem.run(&quick_runner()).data {
        ReportData::ParamSweep { rows, .. } => rows,
        other => panic!("Fig14Mem did not return a sweep: {other:?}"),
    };
    assert_eq!(rows.len(), 4, "four latency points");
    for r in &rows {
        let series: Vec<&str> = r.series.iter().map(String::as_str).collect();
        assert_eq!(series, ["BASE-MAX", "wish-jjl (real-conf)", "PERFECT-CBP"]);
        // Perfect branch prediction is the ceiling at every latency.
        assert!(
            r.avg[2] < r.avg[0].min(r.avg[1]),
            "PERFECT-CBP must beat both contenders at latency {}: {:?}",
            r.param,
            r.avg
        );
    }
    // The experiment's claim: wish branches' advantage over predication
    // (predicated code serializes load-dependent predicates that branches
    // speculate past, and its guard-false work competes for MSHRs) widens
    // as memory latency grows — strictly, on the mcf-free mean the paper
    // prefers, and end-to-end on the full mean.
    let adv: Vec<f64> = rows.iter().map(|r| r.avg_nomcf[0] - r.avg_nomcf[1]).collect();
    for pair in adv.windows(2) {
        assert!(
            pair[1] > pair[0],
            "wish advantage over BASE-MAX must grow with latency: {adv:?}"
        );
    }
    let adv_full: Vec<f64> = rows.iter().map(|r| r.avg[0] - r.avg[1]).collect();
    assert!(
        adv_full.last() > adv_full.first(),
        "advantage must grow across the sweep on the full mean too: {adv_full:?}"
    );
    assert!(
        *adv.last().unwrap() > 0.0,
        "at the longest latency wish branches must beat predication outright: {adv:?}"
    );
}

#[test]
fn mcf_predication_pathology_and_wish_rescue() {
    let ec = quick();
    let bench = mcf(150);
    let normal = run_binary(&bench, BinaryVariant::NormalBranch, InputSet::B, &ec).expect("run");
    let max = run_binary(&bench, BinaryVariant::BaseMax, InputSet::B, &ec).expect("run");
    let wjjl =
        run_binary(&bench, BinaryVariant::WishJumpJoinLoop, InputSet::B, &ec).expect("run");
    let n = normal.sim.stats.cycles as f64;
    assert!(
        max.sim.stats.cycles as f64 > n * 1.2,
        "BASE-MAX must hurt mcf badly: {:.3}",
        max.sim.stats.cycles as f64 / n
    );
    assert!(
        (wjjl.sim.stats.cycles as f64) < max.sim.stats.cycles as f64 * 0.8,
        "wish branches must rescue mcf: {:.3} vs {:.3}",
        wjjl.sim.stats.cycles as f64 / n,
        max.sim.stats.cycles as f64 / n
    );
}

#[test]
fn table4_is_consistent() {
    let rows = match Experiment::Tab4.run(&quick_runner()).data {
        ReportData::Benchmarks(rows) => rows,
        other => panic!("Tab4 did not return benchmark rows: {other:?}"),
    };
    assert_eq!(rows.len(), 9);
    for r in &rows {
        assert!(r.dynamic_uops > 1000, "{}: too little work", r.name);
        assert!(r.static_branches > 0);
        assert!(r.dynamic_branches > 0);
        assert!(r.upc > 0.0 && r.upc <= 8.0, "{}: µPC out of range", r.name);
        assert!(r.static_wish > 0, "{}: wish binary must contain wish branches", r.name);
        assert!((0.0..=100.0).contains(&r.static_wish_loop_pct));
        assert!((0.0..=100.0).contains(&r.dynamic_wish_loop_pct));
        assert!(r.dynamic_wish > 0, "{}: wish branches must retire", r.name);
    }
    // bzip2's dynamic wish-branch mix must be loop-dominated (Table 4: 90%).
    let bzip2 = rows.iter().find(|r| r.name == "bzip2").unwrap();
    assert!(
        bzip2.dynamic_wish_loop_pct > 50.0,
        "bzip2 must be wish-loop dominated: {:.0}%",
        bzip2.dynamic_wish_loop_pct
    );
}

#[test]
fn table5_average_positive_vs_normal() {
    let rows = match Experiment::Tab5.run(&quick_runner()).data {
        ReportData::BestBinary(rows) => rows,
        other => panic!("Tab5 did not return best-binary rows: {other:?}"),
    };
    let avg = rows.iter().find(|r| r.name == "AVG").unwrap();
    assert!(
        avg.vs_normal_pct > 0.0,
        "wish-jjl must reduce execution time on average: {:.1}%",
        avg.vs_normal_pct
    );
    for r in &rows {
        assert!(r.vs_best_pct <= r.vs_best_predicated_pct + 1e-9);
        assert!(r.vs_best_pct <= r.vs_normal_pct + 1e-9);
    }
}

#[test]
fn every_benchmark_every_input_architecturally_verified() {
    // `simulate` reports architectural divergence as a typed error, so a
    // clean `expect` across the sweep is itself the assertion.
    let ec = ExperimentConfig::quick(60);
    for bench in suite(60) {
        for input in InputSet::ALL {
            for variant in [BinaryVariant::NormalBranch, BinaryVariant::WishJumpJoinLoop] {
                let out = run_binary(&bench, variant, input, &ec).expect("verified run");
                assert!(out.sim.stats.cycles > 0);
            }
        }
    }
}

#[test]
fn adaptive_extension_never_loses_to_wjl_on_average() {
    use wishbranch_core::{compile_adaptive_variant, compile_variant, simulate};
    let ec = quick();
    let mut wjl_sum = 0.0;
    let mut adaptive_sum = 0.0;
    let mut n = 0.0;
    for bench in suite(800) {
        let normal =
            compile_variant(&bench, BinaryVariant::NormalBranch, &ec).expect("compile");
        let wjl =
            compile_variant(&bench, BinaryVariant::WishJumpJoinLoop, &ec).expect("compile");
        let adaptive = compile_adaptive_variant(&bench, &[InputSet::A, InputSet::C], &ec)
            .expect("compile");
        for input in InputSet::ALL {
            let cycles = |program| {
                simulate(program, &bench, input, &ec.machine).expect("simulate").stats.cycles as f64
            };
            let base = cycles(&normal.program);
            wjl_sum += cycles(&wjl.program) / base;
            adaptive_sum += cycles(&adaptive.program) / base;
            n += 1.0;
        }
    }
    let (wjl_avg, adaptive_avg) = (wjl_sum / n, adaptive_sum / n);
    assert!(
        adaptive_avg <= wjl_avg + 0.005,
        "the §3.6 extension must not lose on average: {adaptive_avg:.3} vs {wjl_avg:.3}"
    );
}

#[test]
fn biased_loop_predictor_turns_early_exits_into_late_exits() {
    let runner = quick_runner();
    let report = Experiment::AblLoopPredictor.run(&runner);
    assert_eq!(report.id, "abl_loop_predictor");
    assert_eq!(report.kind(), "figure");
    let ReportData::Figure(fig) = report.data else {
        panic!("abl_loop_predictor did not return a figure")
    };
    assert_eq!(fig.series.len(), 5, "{:?}", fig.series);
    let names: Vec<&str> = fig.rows.iter().map(|r| r.name.as_str()).collect();
    let mut expected: Vec<&str> = runner.benches().iter().map(|b| b.name).collect();
    expected.extend(["AVG", "AVGnomcf"]);
    assert_eq!(names, expected);
    // §3.2: overestimating the trip count makes late exits (no flush) more
    // common than early exits (flush).
    let avg = row(&fig, "AVG");
    assert!(avg[1] < avg[0], "biasing must lower early exits: {avg:?}");
    assert!(avg[3] > avg[2], "biasing must raise late exits: {avg:?}");
}
