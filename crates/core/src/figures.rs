//! Regeneration of every figure in the paper's evaluation (§5).
//!
//! Each builder returns typed rows, which the [`Experiment`] catalog wraps
//! in a [`Report`](crate::Report). Execution times are normalized to the
//! normal-branch binary on the same machine and input, exactly as in the
//! paper ("all execution time results are normalized to the execution time
//! of the normal branch binaries", §4.2).
//!
//! Every builder submits its whole job list to a caller-owned runner in
//! one batch, so experiments that share a runner share the profile/compile
//! caches and keep every worker busy — that is how `wishbranch-repro all`
//! compiles each binary exactly once across the entire reproduction.
//! Results are deterministic and identical for any worker count (the
//! engine's determinism contract).
//!
//! [`Experiment`]: crate::Experiment

use crate::engine::{JobResult, SweepJob, SweepRunner, TrainSpec};
use crate::error::JobFailure;
use wishbranch_compiler::BinaryVariant;
use wishbranch_uarch::{MachineConfig, SimStats};
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

/// Appends AVG and AVGnomcf rows. Averages are over *finite* values only,
/// per series column: a failed cell (NaN gap) drops out of the mean
/// instead of poisoning it. With no failures this is the plain mean.
/// Returns the appended `(AVG, AVGnomcf)` series.
pub(crate) fn append_averages(rows: &mut Vec<NormalizedRow>) -> (Vec<f64>, Vec<f64>) {
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

/// Submits every block's jobs in one batch, in block order, and hands the
/// results back split into the same blocks. A failed job stays recorded
/// on the runner ([`SweepRunner::failures`]) for the summary's failure
/// table; here it only needs to become a gap.
fn run_blocks(
    runner: &SweepRunner,
    blocks: Vec<Vec<SweepJob>>,
) -> Vec<Vec<Result<JobResult, JobFailure>>> {
    let lens: Vec<usize> = blocks.iter().map(Vec::len).collect();
    let mut results = runner.try_run(blocks.into_iter().flatten().collect()).into_iter();
    lens.into_iter()
        .map(|n| results.by_ref().take(n).collect())
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

/// One group of [`normalized`]: a row per benchmark followed by the AVG
/// and AVGnomcf rows, plus those two averages.
pub(crate) struct Normalized {
    /// Per-benchmark rows, then AVG and AVGnomcf.
    pub(crate) rows: Vec<NormalizedRow>,
    /// The AVG row's values.
    pub(crate) avg: Vec<f64>,
    /// The AVGnomcf row's values.
    pub(crate) avg_nomcf: Vec<f64>,
}

/// The normalizer behind every execution-time figure and sweep. Runs one
/// job block per `(group, benchmark)` — groups outer, benchmarks inner,
/// each block as `block` builds it — in a single batch. Each block is cut
/// into runs of `run` jobs, and every run adds its later jobs' cycle
/// counts over its first job's to the benchmark's row (NaN when either
/// side failed). Each group's rows then get AVG and AVGnomcf appended.
pub(crate) fn normalized<G>(
    runner: &SweepRunner,
    groups: &[G],
    run: usize,
    block: impl Fn(&G, usize) -> Vec<SweepJob>,
) -> Vec<Normalized> {
    let nbench = runner.benches().len();
    let block = &block;
    let blocks = groups
        .iter()
        .flat_map(|g| (0..nbench).map(move |b| block(g, b)))
        .collect();
    let mut blocks = run_blocks(runner, blocks).into_iter();
    groups
        .iter()
        .map(|_| {
            let mut rows: Vec<NormalizedRow> = blocks
                .by_ref()
                .take(nbench)
                .zip(runner.benches())
                .map(|(results, bench)| {
                    let cycles: Vec<Option<u64>> = results
                        .into_iter()
                        .map(|r| r.ok().map(|r| r.outcome.sim.stats.cycles))
                        .collect();
                    NormalizedRow {
                        name: bench.name.into(),
                        values: cycles
                            .chunks_exact(run)
                            .flat_map(|r| r[1..].iter().map(move |&c| ratio(c, r[0])))
                            .collect(),
                    }
                })
                .collect();
            let (avg, avg_nomcf) = append_averages(&mut rows);
            Normalized {
                rows,
                avg,
                avg_nomcf,
            }
        })
        .collect()
}

/// A one-group [`normalized`] figure.
fn figure(
    runner: &SweepRunner,
    title: &str,
    series: Vec<String>,
    run: usize,
    block: impl Fn(usize) -> Vec<SweepJob>,
) -> FigureData {
    FigureData {
        title: title.into(),
        series,
        rows: normalized(runner, &[()], run, |(), b| block(b))
            .into_iter()
            .flat_map(|g| g.rows)
            .collect(),
    }
}

/// Runs one job block per benchmark in one batch and builds each
/// benchmark's row from its name and its block's stats — `None` when a job
/// of the block failed, so the row becomes an explicit gap.
pub(crate) fn stat_rows<R>(
    runner: &SweepRunner,
    block: impl Fn(usize) -> Vec<SweepJob>,
    row: impl Fn(String, Option<&[&SimStats]>) -> R,
) -> Vec<R> {
    let blocks = (0..runner.benches().len()).map(block).collect();
    run_blocks(runner, blocks)
        .into_iter()
        .zip(runner.benches())
        .map(|(results, bench)| {
            let stats: Option<Vec<&SimStats>> = results
                .iter()
                .map(|r| r.as_ref().ok().map(|r| &r.outcome.sim.stats))
                .collect();
            row(bench.name.into(), stats.as_deref())
        })
        .collect()
}

pub(crate) fn labels(series: &[&str]) -> Vec<String> {
    series.iter().map(|&s| s.into()).collect()
}

/// **Fig. 1** — execution time of the BASE-DEF predicated binary normalized
/// to the normal-branch binary, per input set A/B/C. The compiler profiles
/// on the training input only; the spread across inputs is the paper's
/// motivation ("the performance of predicated execution is highly dependent
/// on the run-time input set").
pub(crate) fn figure1(runner: &SweepRunner) -> FigureData {
    let ec = runner.config();
    figure(
        runner,
        "Fig.1: BASE-DEF exec time normalized to normal branches, per input",
        InputSet::ALL.iter().map(|s| s.label().into()).collect(),
        2,
        |b| {
            InputSet::ALL
                .into_iter()
                .flat_map(|input| {
                    [BinaryVariant::NormalBranch, BinaryVariant::BaseDef]
                        .map(|v| SweepJob::standard(b, v, input, ec))
                })
                .collect()
        },
    )
}

/// **Fig. 2** — where predication's overhead goes: BASE-MAX as-is, with
/// predicate dependencies ideally removed (NO-DEPEND), with useless
/// instructions also removed (NO-DEPEND + NO-FETCH), and the normal binary
/// under perfect conditional branch prediction (PERFECT-CBP).
pub(crate) fn figure2(runner: &SweepRunner) -> FigureData {
    let ec = runner.config();
    let job = |b, variant| SweepJob::standard(b, variant, ec.train_input, ec);

    let mut no_dep = ec.machine.clone();
    no_dep.oracles.no_pred_dependencies = true;
    let mut no_dep_no_fetch = no_dep.clone();
    no_dep_no_fetch.oracles.no_false_predicate_fetch = true;
    let mut perfect_cbp = ec.machine.clone();
    perfect_cbp.oracles.perfect_branch_prediction = true;

    figure(
        runner,
        "Fig.2: predication overhead ideally eliminated (normalized exec time)",
        labels(&["BASE-MAX", "NO-DEPEND", "NO-DEPEND+NO-FETCH", "PERFECT-CBP"]),
        5,
        |b| {
            vec![
                job(b, BinaryVariant::NormalBranch),
                job(b, BinaryVariant::BaseMax),
                job(b, BinaryVariant::BaseMax).with_machine(no_dep.clone()),
                job(b, BinaryVariant::BaseMax).with_machine(no_dep_no_fetch.clone()),
                job(b, BinaryVariant::NormalBranch).with_machine(perfect_cbp.clone()),
            ]
        },
    )
}

/// A comparison series: label, binary, and whether the perfect-confidence
/// oracle is on.
type Contender = (&'static str, BinaryVariant, bool);

/// The Fig. 10 series.
const FIG10: [Contender; 4] = [
    ("BASE-DEF", BinaryVariant::BaseDef, false),
    ("BASE-MAX", BinaryVariant::BaseMax, false),
    ("wish-jj (real-conf)", BinaryVariant::WishJumpJoin, false),
    ("wish-jj (perf-conf)", BinaryVariant::WishJumpJoin, true),
];
/// The Fig. 12/16 series.
const FIG12: [Contender; 5] = [
    ("BASE-DEF", BinaryVariant::BaseDef, false),
    ("BASE-MAX", BinaryVariant::BaseMax, false),
    ("wish-jj (real-conf)", BinaryVariant::WishJumpJoin, false),
    ("wish-jjl (real-conf)", BinaryVariant::WishJumpJoinLoop, false),
    ("wish-jjl (perf-conf)", BinaryVariant::WishJumpJoinLoop, true),
];
/// The Fig. 14/15 sweep series.
const SWEEP: [Contender; 4] = [
    ("BASE-DEF", BinaryVariant::BaseDef, false),
    ("BASE-MAX", BinaryVariant::BaseMax, false),
    ("wish-jjl (real-conf)", BinaryVariant::WishJumpJoinLoop, false),
    ("wish-jjl (perf-conf)", BinaryVariant::WishJumpJoinLoop, true),
];

/// One benchmark's comparison block: the normal-branch baseline, then each
/// contender, all on `machine` and the training input.
fn comparison_block(
    runner: &SweepRunner,
    machine: &MachineConfig,
    contenders: &[Contender],
    b: usize,
) -> Vec<SweepJob> {
    let ec = runner.config();
    let input = ec.train_input;
    let mut jobs = vec![
        SweepJob::standard(b, BinaryVariant::NormalBranch, input, ec).with_machine(machine.clone()),
    ];
    for &(_, variant, perfect_conf) in contenders {
        let mut m = machine.clone();
        m.oracles.perfect_confidence = perfect_conf;
        jobs.push(SweepJob::standard(b, variant, input, ec).with_machine(m));
    }
    jobs
}

fn comparison_figure(
    runner: &SweepRunner,
    title: &str,
    machine: &MachineConfig,
    contenders: &[Contender],
) -> FigureData {
    figure(
        runner,
        title,
        contenders.iter().map(|&(l, _, _)| l.into()).collect(),
        1 + contenders.len(),
        |b| comparison_block(runner, machine, contenders, b),
    )
}

/// **Fig. 10** — wish jump/join binaries vs the predicated baselines, with
/// the real and a perfect confidence estimator.
pub(crate) fn figure10(runner: &SweepRunner) -> FigureData {
    comparison_figure(
        runner,
        "Fig.10: performance of wish jump/join binaries (normalized exec time)",
        &runner.config().machine,
        &FIG10,
    )
}

/// **Fig. 12** — adds wish loops.
pub(crate) fn figure12(runner: &SweepRunner) -> FigureData {
    comparison_figure(
        runner,
        "Fig.12: performance of wish jump/join/loop binaries (normalized exec time)",
        &runner.config().machine,
        &FIG12,
    )
}

/// **Fig. 16** — the Fig. 12 comparison on a machine using the select-µop
/// mechanism instead of C-style conditional expressions (§5.3.3).
pub(crate) fn figure16(runner: &SweepRunner) -> FigureData {
    let mut machine = runner.config().machine.clone();
    machine.pred_mechanism = wishbranch_uarch::PredMechanism::SelectUop;
    comparison_figure(
        runner,
        "Fig.16: wish branches on a select-µop machine (normalized exec time)",
        &machine,
        &FIG12,
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

/// One job of `variant` per benchmark on the training input. `row` builds
/// each benchmark's row through a rate function that turns the count it
/// picks into a per-million-µop rate, or NaN when the job failed.
fn per_million_rows<R>(
    runner: &SweepRunner,
    variant: BinaryVariant,
    row: impl Fn(String, &dyn Fn(fn(&SimStats) -> u64) -> f64) -> R,
) -> Vec<R> {
    let ec = runner.config();
    stat_rows(
        runner,
        |b| vec![SweepJob::standard(b, variant, ec.train_input, ec)],
        |name, stats| {
            let rate = |count: fn(&SimStats) -> u64| {
                stats.map_or(f64::NAN, |s| s[0].per_million_uops(count(s[0])))
            };
            row(name, &rate)
        },
    )
}

/// **Fig. 11** — the confidence-estimate breakdown for wish jumps + joins
/// in the wish jump/join binary.
pub(crate) fn figure11(runner: &SweepRunner) -> Vec<Fig11Row> {
    per_million_rows(runner, BinaryVariant::WishJumpJoin, |name, rate| Fig11Row {
        name,
        low_mispredicted: rate(|s| s.wish_jumps.low_mispredicted + s.wish_joins.low_mispredicted),
        low_correct: rate(|s| s.wish_jumps.low_correct + s.wish_joins.low_correct),
        high_mispredicted: rate(|s| {
            s.wish_jumps.high_mispredicted + s.wish_joins.high_mispredicted
        }),
        high_correct: rate(|s| s.wish_jumps.high_correct + s.wish_joins.high_correct),
    })
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
pub(crate) fn figure13(runner: &SweepRunner) -> Vec<Fig13Row> {
    per_million_rows(runner, BinaryVariant::WishJumpJoinLoop, |name, rate| Fig13Row {
        name,
        low_no_exit: rate(|s| s.loop_no_exits),
        low_late_exit: rate(|s| s.loop_late_exits),
        low_early_exit: rate(|s| s.loop_early_exits),
        low_correct: rate(|s| s.wish_loops.low_correct),
        high_mispredicted: rate(|s| s.wish_loops.high_mispredicted),
        high_correct: rate(|s| s.wish_loops.high_correct),
    })
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

/// Runs every `(param, machine)` point's blocks as one batch, so all
/// parameter values' jobs interleave across workers and the per-variant
/// binaries compile once for the whole sweep. Each block is a baseline
/// followed by one job per series.
fn sweep(
    runner: &SweepRunner,
    points: &[(u64, MachineConfig)],
    series: Vec<String>,
    block: impl Fn(&MachineConfig, usize) -> Vec<SweepJob>,
) -> Vec<SweepRow> {
    normalized(runner, points, 1 + series.len(), |(_, m), b| block(m, b))
        .into_iter()
        .zip(points)
        .map(|(g, &(param, _))| SweepRow {
            param,
            series: series.clone(),
            avg: g.avg,
            avg_nomcf: g.avg_nomcf,
        })
        .collect()
}

/// The Fig. 14/15 sweep: the four [`SWEEP`] contenders at every point.
fn contender_sweep(runner: &SweepRunner, points: &[(u64, MachineConfig)]) -> Vec<SweepRow> {
    sweep(
        runner,
        points,
        SWEEP.iter().map(|&(l, _, _)| l.into()).collect(),
        |m, b| comparison_block(runner, m, &SWEEP, b),
    )
}

/// **Fig. 14** — instruction-window sweep (128/256/512 entries).
pub(crate) fn figure14(runner: &SweepRunner) -> Vec<SweepRow> {
    let ec = runner.config();
    let points: Vec<_> = [128usize, 256, 512]
        .into_iter()
        .map(|w| (w as u64, ec.machine.clone().with_window(w)))
        .collect();
    contender_sweep(runner, &points)
}

/// **Fig. 15** — pipeline-depth sweep (10/20/30 stages) at a 256-entry
/// window, as in the paper.
pub(crate) fn figure15(runner: &SweepRunner) -> Vec<SweepRow> {
    let ec = runner.config();
    let points: Vec<_> = [10u64, 20, 30]
        .into_iter()
        .map(|d| (d, ec.machine.clone().with_window(256).with_depth(d)))
        .collect();
    contender_sweep(runner, &points)
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
pub(crate) fn figure14_mem_latency(runner: &SweepRunner) -> Vec<SweepRow> {
    let ec = runner.config();
    let input = ec.train_input;
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
    sweep(
        runner,
        &points,
        labels(&["BASE-MAX", "wish-jjl (real-conf)", "PERFECT-CBP"]),
        |machine, b| {
            // Baseline and the two contenders share the machine; the
            // PERFECT-CBP ceiling is the normal-branch binary with the
            // branch-prediction oracle on.
            let job = |variant| {
                SweepJob::standard(b, variant, input, ec).with_machine(machine.clone())
            };
            let mut perfect = machine.clone();
            perfect.oracles.perfect_branch_prediction = true;
            vec![
                job(BinaryVariant::NormalBranch),
                job(BinaryVariant::BaseMax),
                job(BinaryVariant::WishJumpJoinLoop),
                job(BinaryVariant::NormalBranch).with_machine(perfect),
            ]
        },
    )
}

/// **Extension** — the §3.6/§7 input-dependence-aware compiler
/// ([`wishbranch_compiler::compile_adaptive`]) vs the paper's wish
/// jump/join/loop binary, evaluated across *all three* input sets. The
/// adaptive compiler trains on inputs A and C; the fixed heuristics train
/// on the experiment's training input as usual.
pub(crate) fn figure_adaptive(runner: &SweepRunner) -> FigureData {
    let ec = runner.config();
    let adaptive_train = TrainSpec::Multi(vec![InputSet::A, InputSet::C]);
    figure(
        runner,
        "Extension: input-dependence-aware compiler (wish-jjl vs wish-adaptive, per input)",
        InputSet::ALL
            .iter()
            .flat_map(|i| {
                [
                    format!("wish-jjl @{}", i.label()),
                    format!("adaptive @{}", i.label()),
                ]
            })
            .collect(),
        3,
        |b| {
            InputSet::ALL
                .into_iter()
                .flat_map(|input| {
                    [
                        SweepJob::standard(b, BinaryVariant::NormalBranch, input, ec),
                        SweepJob::standard(b, BinaryVariant::WishJumpJoinLoop, input, ec),
                        SweepJob::standard(b, BinaryVariant::WishAdaptive, input, ec)
                            .with_train(adaptive_train.clone()),
                    ]
                })
                .collect()
        },
    )
}

/// **Extension** — dynamic hammock predication (Klauser et al., §6.1 of the
/// paper) as a hardware-only baseline: the *normal-branch* binary on a DHP
/// machine, against the wish jump/join/loop binary on the wish machine.
/// The paper argues wish branches beat DHP because the compiler converts
/// complex regions and loops that fetch-time hardware cannot; the wish rows
/// should therefore win wherever loops or large regions matter.
pub(crate) fn figure_dhp(runner: &SweepRunner) -> FigureData {
    let ec = runner.config();
    let job = |b, variant| SweepJob::standard(b, variant, ec.train_input, ec);
    let mut dhp_machine = ec.machine.clone();
    dhp_machine.dhp_enabled = true;

    let mut rows = stat_rows(
        runner,
        |b| {
            vec![
                job(b, BinaryVariant::NormalBranch),
                job(b, BinaryVariant::NormalBranch).with_machine(dhp_machine.clone()),
                job(b, BinaryVariant::WishJumpJoinLoop),
            ]
        },
        |name, stats| NormalizedRow {
            name,
            values: stats.map_or_else(
                || vec![f64::NAN; 3],
                |s| {
                    let base = s[0].cycles as f64;
                    vec![
                        s[1].cycles as f64 / base,
                        s[2].cycles as f64 / base,
                        s[1].dhp_predications as f64,
                    ]
                },
            ),
        },
    );
    append_averages(&mut rows);
    FigureData {
        title: "Extension: dynamic hammock predication (normal binary + DHP HW) vs wish branches"
            .into(),
        series: labels(&[
            "DHP (exec time)",
            "wish-jjl (exec time)",
            "DHP predications (count)",
        ]),
        rows,
    }
}

/// **Extension** — predicate prediction (Chuang & Calder, §6.1 of the
/// paper) as a baseline: the BASE-MAX binary with every predicate value
/// predicted (and verified) in hardware, vs wish branches. Predicate
/// prediction removes predication's execution delay but still fetches the
/// useless instructions and flushes on hard predicates — the two costs
/// wish branches avoid.
pub(crate) fn figure_predicate_prediction(runner: &SweepRunner) -> FigureData {
    let ec = runner.config();
    let job = |b, variant| SweepJob::standard(b, variant, ec.train_input, ec);
    let mut pp_machine = ec.machine.clone();
    pp_machine.predicate_prediction = true;

    figure(
        runner,
        "Extension: predicate prediction (BASE-MAX + pred-pred HW) vs wish branches",
        labels(&["BASE-MAX", "BASE-MAX + pred-pred", "wish-jjl"]),
        4,
        |b| {
            vec![
                job(b, BinaryVariant::NormalBranch),
                job(b, BinaryVariant::BaseMax),
                job(b, BinaryVariant::BaseMax).with_machine(pp_machine.clone()),
                job(b, BinaryVariant::WishJumpJoinLoop),
            ]
        },
    )
}
