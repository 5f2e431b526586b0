//! Regeneration of every figure in the paper's evaluation (§5).
//!
//! Each function returns typed rows; the `wishbranch-bench` crate prints
//! them in the paper's format. Execution times are normalized to the
//! normal-branch binary on the same machine and input, exactly as in the
//! paper ("all execution time results are normalized to the execution time
//! of the normal branch binaries", §4.2).
//!
//! Every figure is a plain `fn figureN(&SweepRunner)` over a caller-owned
//! runner: the figure submits its whole job list in one batch, so figures
//! that share a runner share the profile/compile caches and keep every
//! worker busy — that is how `wishbranch-repro all` compiles each binary
//! exactly once across the entire reproduction. Results are deterministic
//! and identical for any worker count (the engine's determinism contract).

use crate::engine::{SweepJob, SweepRunner, TrainSpec};
use wishbranch_compiler::BinaryVariant;
use wishbranch_uarch::MachineConfig;
use wishbranch_workloads::InputSet;

/// One benchmark's normalized execution times across a figure's series.
#[derive(Clone, PartialEq, Debug)]
pub struct NormalizedRow {
    /// Benchmark name, or `AVG` / `AVGnomcf`.
    pub name: String,
    /// One normalized execution time per series.
    pub values: Vec<f64>,
}

/// A whole bar-chart figure: series labels plus per-benchmark rows, with
/// `AVG` and `AVGnomcf` appended (the paper reports both because mcf skews
/// the mean, §2.2 footnote 2).
#[derive(Clone, PartialEq, Debug)]
pub struct FigureData {
    /// Figure title.
    pub title: String,
    /// Series (bar) labels.
    pub series: Vec<String>,
    /// Per-benchmark rows plus the two average rows.
    pub rows: Vec<NormalizedRow>,
}

/// Fig. 1 rows: BASE-DEF execution time normalized to the normal binary,
/// per input set.
pub type Fig1Row = NormalizedRow;

/// Fig. 2 rows.
pub type Fig2Row = NormalizedRow;

/// Appends AVG and AVGnomcf rows. Averages are over *finite* values only,
/// per series column: a failed cell (NaN gap) drops out of the mean
/// instead of poisoning it. With no failures this is the plain mean.
/// Returns the appended `(AVG, AVGnomcf)` series.
fn append_averages(rows: &mut Vec<NormalizedRow>) -> (Vec<f64>, Vec<f64>) {
    let series = rows.first().map_or(0, |r| r.values.len());
    let mut avg = Vec::with_capacity(series);
    let mut avg_nomcf = Vec::with_capacity(series);
    for k in 0..series {
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut sum_nomcf = 0.0;
        let mut n_nomcf = 0usize;
        for row in rows.iter() {
            let v = row.values[k];
            if !v.is_finite() {
                continue;
            }
            sum += v;
            n += 1;
            if row.name != "mcf" {
                sum_nomcf += v;
                n_nomcf += 1;
            }
        }
        avg.push(if n > 0 { sum / n as f64 } else { f64::NAN });
        avg_nomcf.push(if n_nomcf > 0 {
            sum_nomcf / n_nomcf as f64
        } else {
            f64::NAN
        });
    }
    rows.push(NormalizedRow {
        name: "AVG".into(),
        values: avg.clone(),
    });
    rows.push(NormalizedRow {
        name: "AVGnomcf".into(),
        values: avg_nomcf.clone(),
    });
    (avg, avg_nomcf)
}

/// Runs `jobs` on the runner and returns the retired-cycle count of each,
/// in submission order — `None` for a failed job. The failure itself stays
/// recorded on the runner ([`SweepRunner::failures`]) for the summary's
/// failure table; here it only needs to become a gap.
fn run_cycles(runner: &SweepRunner, jobs: Vec<SweepJob>) -> Vec<Option<u64>> {
    runner
        .try_run(jobs)
        .into_iter()
        .map(|r| r.ok().map(|r| r.outcome.sim.stats.cycles))
        .collect()
}

/// A normalized execution time, or NaN — the explicit-gap marker — when
/// either side of the ratio comes from a failed job.
fn ratio(num: Option<u64>, den: Option<u64>) -> f64 {
    match (num, den) {
        (Some(n), Some(d)) => n as f64 / d as f64,
        _ => f64::NAN,
    }
}

/// **Fig. 1** — execution time of the BASE-DEF predicated binary normalized
/// to the normal-branch binary, per input set A/B/C. The compiler profiles
/// on the training input only; the spread across inputs is the paper's
/// motivation ("the performance of predicated execution is highly dependent
/// on the run-time input set").
#[deprecated(note = "run `Experiment::Fig1` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure1(runner: &SweepRunner) -> FigureData {
    let ec = runner.config().clone();
    let mut jobs = Vec::new();
    for b in 0..runner.benches().len() {
        for input in InputSet::ALL {
            jobs.push(SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec));
            jobs.push(SweepJob::standard(b, BinaryVariant::BaseDef, input, &ec));
        }
    }
    let cycles = run_cycles(runner, jobs);
    let mut rows = Vec::new();
    for (b, chunk) in cycles.chunks_exact(2 * InputSet::ALL.len()).enumerate() {
        let values = chunk
            .chunks_exact(2)
            .map(|pair| ratio(pair[1], pair[0]))
            .collect();
        rows.push(NormalizedRow {
            name: runner.benches()[b].name.into(),
            values,
        });
    }
    append_averages(&mut rows);
    FigureData {
        title: "Fig.1: BASE-DEF exec time normalized to normal branches, per input".into(),
        series: InputSet::ALL.iter().map(|s| s.label().into()).collect(),
        rows,
    }
}

/// **Fig. 2** — where predication's overhead goes: BASE-MAX as-is, with
/// predicate dependencies ideally removed (NO-DEPEND), with useless
/// instructions also removed (NO-DEPEND + NO-FETCH), and the normal binary
/// under perfect conditional branch prediction (PERFECT-CBP).
#[deprecated(note = "run `Experiment::Fig2` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure2(runner: &SweepRunner) -> FigureData {
    let ec = runner.config().clone();
    let input = ec.train_input;

    let mut no_dep = ec.machine.clone();
    no_dep.oracles.no_pred_dependencies = true;
    let mut no_dep_no_fetch = no_dep.clone();
    no_dep_no_fetch.oracles.no_false_predicate_fetch = true;
    let mut perfect_cbp = ec.machine.clone();
    perfect_cbp.oracles.perfect_branch_prediction = true;

    let mut jobs = Vec::new();
    for b in 0..runner.benches().len() {
        jobs.push(SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec));
        jobs.push(SweepJob::standard(b, BinaryVariant::BaseMax, input, &ec));
        jobs.push(
            SweepJob::standard(b, BinaryVariant::BaseMax, input, &ec)
                .with_machine(no_dep.clone()),
        );
        jobs.push(
            SweepJob::standard(b, BinaryVariant::BaseMax, input, &ec)
                .with_machine(no_dep_no_fetch.clone()),
        );
        jobs.push(
            SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec)
                .with_machine(perfect_cbp.clone()),
        );
    }
    let cycles = run_cycles(runner, jobs);
    let mut rows = Vec::new();
    for (b, chunk) in cycles.chunks_exact(5).enumerate() {
        let baseline = chunk[0];
        rows.push(NormalizedRow {
            name: runner.benches()[b].name.into(),
            values: chunk[1..]
                .iter()
                .map(|&c| ratio(c, baseline))
                .collect(),
        });
    }
    append_averages(&mut rows);
    FigureData {
        title: "Fig.2: predication overhead ideally eliminated (normalized exec time)".into(),
        series: vec![
            "BASE-MAX".into(),
            "NO-DEPEND".into(),
            "NO-DEPEND+NO-FETCH".into(),
            "PERFECT-CBP".into(),
        ],
        rows,
    }
}

fn comparison_figure(
    runner: &SweepRunner,
    title: &str,
    machine: &MachineConfig,
    variants: &[(&str, BinaryVariant, bool /* perfect confidence */)],
) -> FigureData {
    let ec = runner.config().clone();
    let input = ec.train_input;
    let mut jobs = Vec::new();
    for b in 0..runner.benches().len() {
        jobs.push(
            SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec)
                .with_machine(machine.clone()),
        );
        for &(_, variant, perfect_conf) in variants {
            let mut m = machine.clone();
            m.oracles.perfect_confidence = perfect_conf;
            jobs.push(SweepJob::standard(b, variant, input, &ec).with_machine(m));
        }
    }
    let cycles = run_cycles(runner, jobs);
    let mut rows = Vec::new();
    for (b, chunk) in cycles.chunks_exact(1 + variants.len()).enumerate() {
        let baseline = chunk[0];
        rows.push(NormalizedRow {
            name: runner.benches()[b].name.into(),
            values: chunk[1..]
                .iter()
                .map(|&c| ratio(c, baseline))
                .collect(),
        });
    }
    append_averages(&mut rows);
    FigureData {
        title: title.into(),
        series: variants.iter().map(|&(l, _, _)| l.into()).collect(),
        rows,
    }
}

/// **Fig. 10** — wish jump/join binaries vs the predicated baselines, with
/// the real and a perfect confidence estimator.
#[deprecated(note = "run `Experiment::Fig10` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure10(runner: &SweepRunner) -> FigureData {
    comparison_figure(
        runner,
        "Fig.10: performance of wish jump/join binaries (normalized exec time)",
        &runner.config().machine.clone(),
        &[
            ("BASE-DEF", BinaryVariant::BaseDef, false),
            ("BASE-MAX", BinaryVariant::BaseMax, false),
            ("wish-jj (real-conf)", BinaryVariant::WishJumpJoin, false),
            ("wish-jj (perf-conf)", BinaryVariant::WishJumpJoin, true),
        ],
    )
}

/// **Fig. 12** — adds wish loops.
#[deprecated(note = "run `Experiment::Fig12` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure12(runner: &SweepRunner) -> FigureData {
    comparison_figure(
        runner,
        "Fig.12: performance of wish jump/join/loop binaries (normalized exec time)",
        &runner.config().machine.clone(),
        &[
            ("BASE-DEF", BinaryVariant::BaseDef, false),
            ("BASE-MAX", BinaryVariant::BaseMax, false),
            ("wish-jj (real-conf)", BinaryVariant::WishJumpJoin, false),
            ("wish-jjl (real-conf)", BinaryVariant::WishJumpJoinLoop, false),
            ("wish-jjl (perf-conf)", BinaryVariant::WishJumpJoinLoop, true),
        ],
    )
}

/// **Fig. 16** — the Fig. 12 comparison on a machine using the select-µop
/// mechanism instead of C-style conditional expressions (§5.3.3).
#[deprecated(note = "run `Experiment::Fig16` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure16(runner: &SweepRunner) -> FigureData {
    let mut machine = runner.config().machine.clone();
    machine.pred_mechanism = wishbranch_uarch::PredMechanism::SelectUop;
    comparison_figure(
        runner,
        "Fig.16: wish branches on a select-µop machine (normalized exec time)",
        &machine,
        &[
            ("BASE-DEF", BinaryVariant::BaseDef, false),
            ("BASE-MAX", BinaryVariant::BaseMax, false),
            ("wish-jj (real-conf)", BinaryVariant::WishJumpJoin, false),
            ("wish-jjl (real-conf)", BinaryVariant::WishJumpJoinLoop, false),
            ("wish-jjl (perf-conf)", BinaryVariant::WishJumpJoinLoop, true),
        ],
    )
}

/// One Fig. 11 bar pair: dynamic wish jumps/joins per 1M retired µops,
/// classified by confidence estimate × prediction correctness.
#[derive(Clone, PartialEq, Debug)]
pub struct Fig11Row {
    /// Benchmark name.
    pub name: String,
    /// Low-confidence, would have been mispredicted (flush avoided).
    pub low_mispredicted: f64,
    /// Low-confidence, would have been predicted correctly (pure overhead).
    pub low_correct: f64,
    /// High-confidence, mispredicted (flush).
    pub high_mispredicted: f64,
    /// High-confidence, correct (overhead avoided).
    pub high_correct: f64,
}

/// **Fig. 11** — the confidence-estimate breakdown for wish jumps + joins
/// in the wish jump/join binary.
#[deprecated(note = "run `Experiment::Fig11` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure11(runner: &SweepRunner) -> Vec<Fig11Row> {
    let ec = runner.config().clone();
    let jobs = (0..runner.benches().len())
        .map(|b| SweepJob::standard(b, BinaryVariant::WishJumpJoin, ec.train_input, &ec))
        .collect();
    runner
        .try_run(jobs)
        .into_iter()
        .enumerate()
        .map(|(b, r)| {
            let name: String = runner.benches()[b].name.into();
            match r {
                Ok(r) => {
                    let stats = r.outcome.sim.stats;
                    let j = stats.wish_jumps;
                    let o = stats.wish_joins;
                    Fig11Row {
                        name,
                        low_mispredicted: stats
                            .per_million_uops(j.low_mispredicted + o.low_mispredicted),
                        low_correct: stats.per_million_uops(j.low_correct + o.low_correct),
                        high_mispredicted: stats
                            .per_million_uops(j.high_mispredicted + o.high_mispredicted),
                        high_correct: stats.per_million_uops(j.high_correct + o.high_correct),
                    }
                }
                // A failed benchmark keeps its row — as an explicit gap.
                Err(_) => Fig11Row {
                    name,
                    low_mispredicted: f64::NAN,
                    low_correct: f64::NAN,
                    high_mispredicted: f64::NAN,
                    high_correct: f64::NAN,
                },
            }
        })
        .collect()
}

/// One Fig. 13 bar pair: dynamic wish loops per 1M retired µops, with the
/// low-confidence mispredictions split into early/late/no-exit (§3.2).
#[derive(Clone, PartialEq, Debug)]
pub struct Fig13Row {
    /// Benchmark name.
    pub name: String,
    /// Low-confidence, no-exit mispredictions (flush).
    pub low_no_exit: f64,
    /// Low-confidence, late-exit mispredictions (the winning case).
    pub low_late_exit: f64,
    /// Low-confidence, early-exit mispredictions (flush).
    pub low_early_exit: f64,
    /// Low-confidence, correctly predicted.
    pub low_correct: f64,
    /// High-confidence, mispredicted.
    pub high_mispredicted: f64,
    /// High-confidence, correct.
    pub high_correct: f64,
}

/// **Fig. 13** — the wish-loop breakdown in the wish jump/join/loop binary.
#[deprecated(note = "run `Experiment::Fig13` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure13(runner: &SweepRunner) -> Vec<Fig13Row> {
    let ec = runner.config().clone();
    let jobs = (0..runner.benches().len())
        .map(|b| SweepJob::standard(b, BinaryVariant::WishJumpJoinLoop, ec.train_input, &ec))
        .collect();
    runner
        .try_run(jobs)
        .into_iter()
        .enumerate()
        .map(|(b, r)| {
            let name: String = runner.benches()[b].name.into();
            match r {
                Ok(r) => {
                    let stats = r.outcome.sim.stats;
                    let l = stats.wish_loops;
                    Fig13Row {
                        name,
                        low_no_exit: stats.per_million_uops(stats.loop_no_exits),
                        low_late_exit: stats.per_million_uops(stats.loop_late_exits),
                        low_early_exit: stats.per_million_uops(stats.loop_early_exits),
                        low_correct: stats.per_million_uops(l.low_correct),
                        high_mispredicted: stats.per_million_uops(l.high_mispredicted),
                        high_correct: stats.per_million_uops(l.high_correct),
                    }
                }
                // A failed benchmark keeps its row — as an explicit gap.
                Err(_) => Fig13Row {
                    name,
                    low_no_exit: f64::NAN,
                    low_late_exit: f64::NAN,
                    low_early_exit: f64::NAN,
                    low_correct: f64::NAN,
                    high_mispredicted: f64::NAN,
                    high_correct: f64::NAN,
                },
            }
        })
        .collect()
}

/// One point of a machine-parameter sweep (Figs. 14/15): average normalized
/// execution times at one parameter value.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepRow {
    /// The swept parameter value (window entries or pipeline depth).
    pub param: u64,
    /// Series labels.
    pub series: Vec<String>,
    /// Average over all benchmarks.
    pub avg: Vec<f64>,
    /// Average excluding mcf.
    pub avg_nomcf: Vec<f64>,
}

/// Runs the 4-variant comparison at every `(param, machine)` point as one
/// batch, so all parameter values' jobs interleave across workers and the
/// per-variant binaries compile once for the whole sweep.
fn sweep(runner: &SweepRunner, machines: Vec<(u64, MachineConfig)>) -> Vec<SweepRow> {
    let variants: [(&str, BinaryVariant, bool); 4] = [
        ("BASE-DEF", BinaryVariant::BaseDef, false),
        ("BASE-MAX", BinaryVariant::BaseMax, false),
        ("wish-jjl (real-conf)", BinaryVariant::WishJumpJoinLoop, false),
        ("wish-jjl (perf-conf)", BinaryVariant::WishJumpJoinLoop, true),
    ];
    let ec = runner.config().clone();
    let input = ec.train_input;
    let nbench = runner.benches().len();

    let mut jobs = Vec::new();
    for (_, machine) in &machines {
        for b in 0..nbench {
            jobs.push(
                SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec)
                    .with_machine(machine.clone()),
            );
            for &(_, variant, perfect_conf) in &variants {
                let mut m = machine.clone();
                m.oracles.perfect_confidence = perfect_conf;
                jobs.push(SweepJob::standard(b, variant, input, &ec).with_machine(m));
            }
        }
    }
    let cycles = run_cycles(runner, jobs);

    let jobs_per_point = nbench * (1 + variants.len());
    machines
        .iter()
        .zip(cycles.chunks_exact(jobs_per_point))
        .map(|(&(param, _), point)| {
            let mut rows = Vec::new();
            for (b, chunk) in point.chunks_exact(1 + variants.len()).enumerate() {
                let baseline = chunk[0];
                rows.push(NormalizedRow {
                    name: runner.benches()[b].name.into(),
                    values: chunk[1..]
                        .iter()
                        .map(|&c| ratio(c, baseline))
                        .collect(),
                });
            }
            let (avg, avg_nomcf) = append_averages(&mut rows);
            SweepRow {
                param,
                series: variants.iter().map(|&(l, _, _)| l.into()).collect(),
                avg,
                avg_nomcf,
            }
        })
        .collect()
}

/// **Fig. 14** — instruction-window sweep (128/256/512 entries).
#[deprecated(note = "run `Experiment::Fig14` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure14(runner: &SweepRunner) -> Vec<SweepRow> {
    let ec = runner.config();
    let machines = [128usize, 256, 512]
        .into_iter()
        .map(|w| (w as u64, ec.machine.clone().with_window(w)))
        .collect();
    sweep(runner, machines)
}

/// **Fig. 15** — pipeline-depth sweep (10/20/30 stages) at a 256-entry
/// window, as in the paper.
#[deprecated(note = "run `Experiment::Fig15` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure15(runner: &SweepRunner) -> Vec<SweepRow> {
    let ec = runner.config();
    let machines = [10u64, 20, 30]
        .into_iter()
        .map(|d| (d, ec.machine.clone().with_window(256).with_depth(d)))
        .collect();
    sweep(runner, machines)
}

/// **Extension (Fig. 14-style)** — memory-latency sensitivity with the
/// non-blocking hierarchy enabled (finite MSHRs, future-cycle fills,
/// store-to-load forwarding). Sweeps the minimum main-memory latency and
/// compares predicated code (`BASE-MAX`), wish branches and a
/// perfect-branch-prediction ceiling (`PERFECT-CBP`), each normalized to
/// the normal-branch binary at the same latency.
///
/// The mechanism that makes the sweep interesting: predicated code
/// serializes every guarded µop behind its predicate, and predicates are
/// routinely computed from loads — so when a predicate misses, the whole
/// hammock waits out the full (growing) memory latency, while branch-based
/// code predicts past it and keeps the window full of misses that overlap
/// in the finite MSHR files. Wish branches fall back to the branch in
/// high-confidence regions, so their advantage over always-predicated
/// `BASE-MAX` widens as memory latency grows (the
/// `figure14_mem_latency_wish_advantage_grows_with_latency` shape test
/// pins this).
#[deprecated(note = "run `Experiment::Fig14Mem` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure14_mem_latency(runner: &SweepRunner) -> Vec<SweepRow> {
    let ec = runner.config().clone();
    let input = ec.train_input;
    let nbench = runner.benches().len();
    let series = ["BASE-MAX", "wish-jjl (real-conf)", "PERFECT-CBP"];

    let points: Vec<(u64, MachineConfig)> = [50u64, 100, 200, 400]
        .into_iter()
        .map(|lat| {
            let mut m = ec.machine.clone();
            // The non-blocking preset (I-MSHRs, instruction prefetch,
            // write buffer, data ports) minus the data-side stride
            // prefetcher: the experiment isolates how raw latency
            // punishes serialized predicate loads, and a stride engine
            // that streams them in would measure the prefetcher instead.
            // Only the swept memory latency varies per point.
            m.mem = wishbranch_mem::MemConfig::realistic_preset();
            m.mem.prefetch_entries = 0;
            m.mem.memory_latency = lat;
            (lat, m)
        })
        .collect();

    let mut jobs = Vec::new();
    for (_, machine) in &points {
        for b in 0..nbench {
            // Baseline and the two contenders share the machine; the
            // PERFECT-CBP ceiling is the normal-branch binary with the
            // branch-prediction oracle on.
            jobs.push(
                SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec)
                    .with_machine(machine.clone()),
            );
            jobs.push(
                SweepJob::standard(b, BinaryVariant::BaseMax, input, &ec)
                    .with_machine(machine.clone()),
            );
            jobs.push(
                SweepJob::standard(b, BinaryVariant::WishJumpJoinLoop, input, &ec)
                    .with_machine(machine.clone()),
            );
            let mut perfect = machine.clone();
            perfect.oracles.perfect_branch_prediction = true;
            jobs.push(
                SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec)
                    .with_machine(perfect),
            );
        }
    }
    let cycles = run_cycles(runner, jobs);

    let jobs_per_point = nbench * 4;
    points
        .iter()
        .zip(cycles.chunks_exact(jobs_per_point))
        .map(|(&(param, _), point)| {
            let mut rows = Vec::new();
            for (b, chunk) in point.chunks_exact(4).enumerate() {
                let baseline = chunk[0];
                rows.push(NormalizedRow {
                    name: runner.benches()[b].name.into(),
                    values: chunk[1..].iter().map(|&c| ratio(c, baseline)).collect(),
                });
            }
            let (avg, avg_nomcf) = append_averages(&mut rows);
            SweepRow {
                param,
                series: series.iter().map(|&l| l.into()).collect(),
                avg,
                avg_nomcf,
            }
        })
        .collect()
}

/// **Extension** — the §3.6/§7 input-dependence-aware compiler
/// ([`wishbranch_compiler::compile_adaptive`]) vs the paper's wish
/// jump/join/loop binary, evaluated across *all three* input sets. The
/// adaptive compiler trains on inputs A and C; the fixed heuristics train
/// on the experiment's training input as usual.
#[deprecated(note = "run `Experiment::Adaptive` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure_adaptive(runner: &SweepRunner) -> FigureData {
    let ec = runner.config().clone();
    let adaptive_train = TrainSpec::Multi(vec![InputSet::A, InputSet::C]);
    let mut jobs = Vec::new();
    for b in 0..runner.benches().len() {
        for input in InputSet::ALL {
            jobs.push(SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec));
            jobs.push(SweepJob::standard(b, BinaryVariant::WishJumpJoinLoop, input, &ec));
            jobs.push(
                SweepJob::standard(b, BinaryVariant::WishAdaptive, input, &ec)
                    .with_train(adaptive_train.clone()),
            );
        }
    }
    let cycles = run_cycles(runner, jobs);
    let mut rows = Vec::new();
    for (b, per_bench) in cycles.chunks_exact(3 * InputSet::ALL.len()).enumerate() {
        let mut values = Vec::new();
        for triple in per_bench.chunks_exact(3) {
            values.push(ratio(triple[1], triple[0]));
            values.push(ratio(triple[2], triple[0]));
        }
        rows.push(NormalizedRow {
            name: runner.benches()[b].name.into(),
            values,
        });
    }
    append_averages(&mut rows);
    FigureData {
        title: "Extension: input-dependence-aware compiler (wish-jjl vs wish-adaptive, per input)"
            .into(),
        series: InputSet::ALL
            .iter()
            .flat_map(|i| {
                [
                    format!("wish-jjl @{}", i.label()),
                    format!("adaptive @{}", i.label()),
                ]
            })
            .collect(),
        rows,
    }
}

/// **Extension** — dynamic hammock predication (Klauser et al., §6.1 of the
/// paper) as a hardware-only baseline: the *normal-branch* binary on a DHP
/// machine, against the wish jump/join/loop binary on the wish machine.
/// The paper argues wish branches beat DHP because the compiler converts
/// complex regions and loops that fetch-time hardware cannot; the wish rows
/// should therefore win wherever loops or large regions matter.
#[deprecated(note = "run `Experiment::Dhp` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure_dhp(runner: &SweepRunner) -> FigureData {
    let ec = runner.config().clone();
    let input = ec.train_input;
    let mut dhp_machine = ec.machine.clone();
    dhp_machine.dhp_enabled = true;

    let mut jobs = Vec::new();
    for b in 0..runner.benches().len() {
        jobs.push(SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec));
        jobs.push(
            SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec)
                .with_machine(dhp_machine.clone()),
        );
        jobs.push(SweepJob::standard(b, BinaryVariant::WishJumpJoinLoop, input, &ec));
    }
    let results = runner.try_run(jobs);
    let mut rows = Vec::new();
    for (b, chunk) in results.chunks_exact(3).enumerate() {
        let values = match (&chunk[0], &chunk[1], &chunk[2]) {
            (Ok(normal), Ok(dhp), Ok(wish)) => {
                let base = normal.outcome.sim.stats.cycles as f64;
                let dhp_stats = &dhp.outcome.sim.stats;
                vec![
                    dhp_stats.cycles as f64 / base,
                    wish.outcome.sim.stats.cycles as f64 / base,
                    dhp_stats.dhp_predications as f64,
                ]
            }
            // A failed job gaps the whole benchmark row.
            _ => vec![f64::NAN; 3],
        };
        rows.push(NormalizedRow {
            name: runner.benches()[b].name.into(),
            values,
        });
    }
    append_averages(&mut rows);
    FigureData {
        title: "Extension: dynamic hammock predication (normal binary + DHP HW) vs wish branches"
            .into(),
        series: vec![
            "DHP (exec time)".into(),
            "wish-jjl (exec time)".into(),
            "DHP predications (count)".into(),
        ],
        rows,
    }
}

/// **Extension** — predicate prediction (Chuang & Calder, §6.1 of the
/// paper) as a baseline: the BASE-MAX binary with every predicate value
/// predicted (and verified) in hardware, vs wish branches. Predicate
/// prediction removes predication's execution delay but still fetches the
/// useless instructions and flushes on hard predicates — the two costs
/// wish branches avoid.
#[deprecated(note = "run `Experiment::PredPred` through the Experiment catalog (or a typed SweepRequest via run_request) instead; this free-function entry point will be removed next release")]
#[must_use]
pub fn figure_predicate_prediction(runner: &SweepRunner) -> FigureData {
    let ec = runner.config().clone();
    let input = ec.train_input;
    let mut pp_machine = ec.machine.clone();
    pp_machine.predicate_prediction = true;

    let mut jobs = Vec::new();
    for b in 0..runner.benches().len() {
        jobs.push(SweepJob::standard(b, BinaryVariant::NormalBranch, input, &ec));
        jobs.push(SweepJob::standard(b, BinaryVariant::BaseMax, input, &ec));
        jobs.push(
            SweepJob::standard(b, BinaryVariant::BaseMax, input, &ec)
                .with_machine(pp_machine.clone()),
        );
        jobs.push(SweepJob::standard(b, BinaryVariant::WishJumpJoinLoop, input, &ec));
    }
    let cycles = run_cycles(runner, jobs);
    let mut rows = Vec::new();
    for (b, chunk) in cycles.chunks_exact(4).enumerate() {
        rows.push(NormalizedRow {
            name: runner.benches()[b].name.into(),
            values: vec![
                ratio(chunk[1], chunk[0]),
                ratio(chunk[2], chunk[0]),
                ratio(chunk[3], chunk[0]),
            ],
        });
    }
    append_averages(&mut rows);
    FigureData {
        title: "Extension: predicate prediction (BASE-MAX + pred-pred HW) vs wish branches".into(),
        series: vec![
            "BASE-MAX".into(),
            "BASE-MAX + pred-pred".into(),
            "wish-jjl".into(),
        ],
        rows,
    }
}
