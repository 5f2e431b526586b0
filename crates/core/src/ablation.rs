//! Ablation studies on the design choices DESIGN.md calls out: confidence
//! estimator threshold, MSHR count, the compiler's wish-conversion
//! threshold (§4.2.2's untuned N), and the §3.2 biased wish-loop predictor.
//!
//! Each sweep batches *every* parameter value's jobs into one
//! [`SweepRunner::try_run`] call, so the shared binaries (machine-parameter
//! sweeps reuse the same compiled binaries at every point) come out of the
//! cache and all points execute concurrently.

use crate::engine::{SweepJob, SweepRunner};
use crate::figures::{append_averages, labels, normalized, stat_rows, FigureData, NormalizedRow};
use wishbranch_compiler::{BinaryVariant, CompileOptions};
use wishbranch_uarch::MachineConfig;

/// One ablation measurement: a parameter value and the resulting average
/// normalized execution time of the wish jump/join/loop binary.
#[derive(Clone, PartialEq, Debug)]
pub struct AblationPoint {
    /// The swept parameter value.
    pub param: u64,
    /// Average wish-jjl execution time normalized to the normal binary.
    pub avg_normalized: f64,
}

/// Runs `(normal, wish-jjl)` over the whole suite at every configuration
/// point in one batch. A point's value is the AVG of the benchmarks whose
/// pair both completed; NaN (an explicit gap) if every pair failed.
fn wjl_points(
    runner: &SweepRunner,
    points: &[(u64, MachineConfig, CompileOptions)],
) -> Vec<AblationPoint> {
    let ec = runner.config();
    normalized(runner, points, 2, |(_, machine, compile), b| {
        [BinaryVariant::NormalBranch, BinaryVariant::WishJumpJoinLoop]
            .map(|v| {
                SweepJob::standard(b, v, ec.train_input, ec)
                    .with_machine(machine.clone())
                    .with_compile(*compile)
            })
            .into()
    })
    .into_iter()
    .zip(points)
    .map(|(g, &(param, _, _))| AblationPoint {
        param,
        avg_normalized: g.avg[0],
    })
    .collect()
}

/// Sweeps the JRS confidence threshold (§3.5.5: "an accurate confidence
/// estimator is essential"). Low thresholds trust the predictor too much
/// (high-confidence mispredictions flush); high thresholds predicate too
/// much (overhead without benefit).
pub(crate) fn confidence_threshold_sweep(
    runner: &SweepRunner,
    thresholds: &[u8],
) -> Vec<AblationPoint> {
    let ec = runner.config();
    let points: Vec<_> = thresholds
        .iter()
        .map(|&th| {
            let mut machine = ec.machine.clone();
            machine.jrs.threshold = th;
            (u64::from(th), machine, ec.compile)
        })
        .collect();
    wjl_points(runner, &points)
}

/// Sweeps the number of MSHRs (outstanding memory misses): bounding MLP
/// magnifies predication's serialization pathologies (mcf) and shrinks the
/// normal binary's ability to hide flush latency. `0` = unlimited.
pub(crate) fn mshr_sweep(runner: &SweepRunner, mshrs: &[usize]) -> Vec<AblationPoint> {
    let ec = runner.config();
    let points: Vec<_> = mshrs
        .iter()
        .map(|&m| {
            let mut machine = ec.machine.clone();
            machine.mem.max_outstanding_misses = m;
            (m as u64, machine, ec.compile)
        })
        .collect();
    wjl_points(runner, &points)
}

/// Sweeps §4.2.2's N: the fall-through size above which a convertible
/// region becomes a wish jump/join instead of plain predicated code. The
/// paper uses N = 5 without tuning.
/// Each N is a distinct compile-cache key, so the sweep deliberately
/// compiles fresh binaries per point (the engine's cache keys on the full
/// compile options).
pub(crate) fn wish_threshold_sweep(runner: &SweepRunner, ns: &[usize]) -> Vec<AblationPoint> {
    let ec = runner.config();
    let points: Vec<_> = ns
        .iter()
        .map(|&n| {
            let mut compile = ec.compile;
            compile.wish_jump_threshold = n;
            (n as u64, ec.machine.clone(), compile)
        })
        .collect();
    wjl_points(runner, &points)
}

/// Compares wish-loop outcome classes with and without overestimation
/// `bias` in a specialized trip predictor — the paper's §3.2 suggestion
/// that a wish-loop predictor "can be biased to overestimate the iteration
/// count … to make the late-exit case more common than the early-exit
/// case". Each benchmark runs its wish jump/join/loop binary on the
/// hybrid-only machine and on the biased one; the row holds both runs'
/// early and late exit counts and the biased run's cycles over the
/// hybrid-only run's. A failed run gaps the benchmark's row.
pub(crate) fn loop_predictor(runner: &SweepRunner, bias: u32) -> FigureData {
    let ec = runner.config();
    let mut biased_machine = ec.machine.clone();
    biased_machine.wish_loop_predictor = Some(wishbranch_bpred::LoopPredConfig {
        bias,
        ..wishbranch_bpred::LoopPredConfig::default()
    });
    let job = |b| SweepJob::standard(b, BinaryVariant::WishJumpJoinLoop, ec.train_input, ec);
    let mut rows = stat_rows(
        runner,
        |b| vec![job(b), job(b).with_machine(biased_machine.clone())],
        |name, stats| NormalizedRow {
            name,
            values: stats.map_or_else(
                || vec![f64::NAN; 5],
                |s| {
                    let (plain, biased) = (s[0], s[1]);
                    vec![
                        plain.loop_early_exits as f64,
                        biased.loop_early_exits as f64,
                        plain.loop_late_exits as f64,
                        biased.loop_late_exits as f64,
                        biased.cycles as f64 / plain.cycles as f64,
                    ]
                },
            ),
        },
    );
    append_averages(&mut rows);
    FigureData {
        title: format!("Ablation: specialized wish-loop predictor (bias +{bias}) vs hybrid-only"),
        series: labels(&[
            "early exits (hybrid-only)",
            "early exits (biased)",
            "late exits (hybrid-only)",
            "late exits (biased)",
            "cycles (biased / hybrid-only)",
        ]),
        rows,
    }
}
