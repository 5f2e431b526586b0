//! The two sweep workloads, `grid-scalar` and `sweep-batch8`.
//!
//! One round builds a fresh single-worker `SweepRunner` (the set-up),
//! submits the seeded job list once (the cold leg: empty profile and
//! compile caches) and then again on the same runner (the warm leg:
//! every profile and binary is a cache hit, every job simulates again).
//! Rounds repeat until the run's seconds are spent.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{ExperimentConfig, RunOutcome, SweepJob, SweepRunner, SweepSummary};
use wishbranch_mem::MemConfig;
use wishbranch_uarch::{BatchLaneSpec, BatchSimulator};
use wishbranch_workloads::{suite, InputSet};

use crate::layers::{self, plan_groups, Reexec};
use crate::trace::Tracer;
use crate::util::{median, ratio, Rng};
use crate::RunResult;

/// Workload scale of the grid (outer iterations per benchmark).
const GRID_SCALE: i32 = 120;
/// Workload scale of the batched sweep (7 machines per grid point).
const BATCH_SCALE: i32 = 35;
/// Lanes per `BatchSimulator` group.
const BATCH_WIDTH: usize = 8;
/// Repetitions of the paired one-lane-batch and scalar runs of every
/// `grid-scalar` job in the traced run.
const LANE1_REPS: usize = 3;

const VARIANTS: [BinaryVariant; 5] = [
    BinaryVariant::NormalBranch,
    BinaryVariant::BaseDef,
    BinaryVariant::BaseMax,
    BinaryVariant::WishJumpJoin,
    BinaryVariant::WishJumpJoinLoop,
];

pub struct Sweep {
    pub ec: ExperimentConfig,
    pub batch: usize,
    pub jobs: Vec<SweepJob>,
    /// One line per job, for the printed job-list fingerprint.
    pub labels: Vec<String>,
}

/// Draws one Fig. 10/12 grid point per benchmark and variant in
/// `variants(bench)`: the normal-branch binary runs on the training
/// input, the figures' normalization baseline; every other variant draws
/// its input set, and the wish variants a coin for the perfect
/// confidence estimator. The job list runs benchmark by benchmark, as
/// the figure sweeps do, so it always starts with the same baseline job.
fn draw_points(
    rng: &mut Rng,
    ec: &ExperimentConfig,
    variants: impl Fn(usize) -> Vec<BinaryVariant>,
) -> Vec<(SweepJob, String)> {
    let mut points = Vec::new();
    for bench in 0..9 {
        for variant in variants(bench) {
            let input = if variant == BinaryVariant::NormalBranch {
                ec.train_input
            } else {
                InputSet::ALL[rng.below(3)]
            };
            let wish = matches!(
                variant,
                BinaryVariant::WishJumpJoin | BinaryVariant::WishJumpJoinLoop
            );
            let perfect = wish && rng.below(2) == 1;
            let mut job = SweepJob::standard(bench, variant, input, ec);
            job.machine.oracles.perfect_confidence = perfect;
            points.push((
                job,
                format!("{bench} {variant:?} {input} perfect_conf={perfect}"),
            ));
        }
    }
    points
}

/// `grid-scalar`: all 45 (benchmark, variant) strata of the grid, each
/// drawn once, on the paper machine with flat memory. Covering every
/// stratum keeps the amount of work nearly independent of the seed.
pub fn grid_scalar(seed: u64) -> Sweep {
    let ec = ExperimentConfig::paper(GRID_SCALE);
    let points = draw_points(&mut Rng::new(seed), &ec, |_| VARIANTS.to_vec());
    let (jobs, labels) = points.into_iter().unzip();
    Sweep {
        ec,
        batch: 1,
        jobs,
        labels,
    }
}

/// `sweep-batch8`: two drawn grid points per benchmark — the baseline
/// and one other variant, assigned round-robin from a seeded offset so
/// each variant appears about equally often — each run over the Fig. 14
/// window axis on flat memory and the `fig14_mem_latency` latency axis on
/// the realistic hierarchy, at batch width 8: the seven machines of one
/// point share a binary and run as the lanes of one batch.
pub fn sweep_batch8(seed: u64) -> Sweep {
    let ec = ExperimentConfig::paper(BATCH_SCALE);
    let mut rng = Rng::new(seed);
    let offset = rng.below(4);
    let points = draw_points(&mut rng, &ec, |bench| {
        vec![VARIANTS[0], VARIANTS[1 + (bench + offset) % 4]]
    });
    let mut machines = Vec::new();
    for window in [128usize, 256, 512] {
        machines.push((
            format!("window={window}"),
            ec.machine.clone().with_window(window),
        ));
    }
    for latency in [50u64, 100, 200, 400] {
        let mut m = ec.machine.clone();
        // As in fig14_mem_latency: the realistic preset without the data
        // stride prefetcher, only the memory latency varies.
        m.mem = MemConfig::realistic_preset();
        m.mem.prefetch_entries = 0;
        m.mem.memory_latency = latency;
        machines.push((format!("realistic latency={latency}"), m));
    }
    let mut jobs = Vec::new();
    let mut labels = Vec::new();
    for (point, label) in points {
        for (axis, machine) in &machines {
            let mut m = machine.clone();
            m.oracles = point.machine.oracles;
            jobs.push(point.clone().with_machine(m));
            labels.push(format!("{label} {axis}"));
        }
    }
    Sweep {
        ec,
        batch: BATCH_WIDTH,
        jobs,
        labels,
    }
}

/// One leg: the job list submitted once, timed from submission to the
/// first completed job and to the last.
struct Leg {
    ttfj: Duration,
    ttd: Duration,
    /// Retired µops of the leg's successful jobs.
    uops: f64,
    /// Dropped once checked, so the benchmark holds one round's outcomes.
    outcomes: Vec<Option<RunOutcome>>,
}

fn leg(runner: &SweepRunner, jobs: &[SweepJob], first: &Mutex<Option<Instant>>) -> Leg {
    let jobs = jobs.to_vec();
    *first.lock().unwrap_or_else(PoisonError::into_inner) = None;
    let t0 = Instant::now();
    let results = runner.try_run(jobs);
    let ttd = t0.elapsed();
    let ttfj = first
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .map_or(ttd, |t| t - t0);
    let outcomes: Vec<Option<RunOutcome>> = results
        .into_iter()
        .map(|r| r.ok().map(|j| j.outcome))
        .collect();
    Leg {
        ttfj,
        ttd,
        uops: outcomes
            .iter()
            .flatten()
            .map(|o| o.sim.stats.retired_uops as f64)
            .sum(),
        outcomes,
    }
}

struct Round {
    setup: Duration,
    /// Peak resident set of the process during the round, MiB.
    peak_rss: f64,
    cold: Leg,
    warm: Leg,
    summary: SweepSummary,
}

fn round(sweep: &Sweep) -> Round {
    crate::util::reset_peak_rss();
    let t = Instant::now();
    let mut runner = SweepRunner::with_workers(&sweep.ec, 1);
    runner.set_batch(sweep.batch);
    let first: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let seen = Arc::clone(&first);
    runner.set_observer(Arc::new(move |_, _| {
        seen.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert_with(Instant::now);
    }));
    let setup = t.elapsed();
    let cold = leg(&runner, &sweep.jobs, &first);
    let warm = leg(&runner, &sweep.jobs, &first);
    Round {
        setup,
        peak_rss: crate::util::own_peak_rss_mb(),
        cold,
        warm,
        summary: runner.summary(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(sweep: &Sweep, seconds: f64, traced: bool, spans_path: &std::path::Path) -> RunResult {
    let mut res = RunResult::default();
    let jobs = sweep.jobs.len() as u64;
    // The traced run spends half its time on untraced rounds (the base
    // of the overhead ratio and of the output checks), then re-executes.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut reference: Option<Vec<Option<RunOutcome>>> = None;
    while rounds.is_empty() || t0.elapsed().as_secs_f64() < budget {
        let mut r = round(sweep);
        res.attempted += 2 * jobs;
        for leg in [&r.cold, &r.warm] {
            let failed = leg.outcomes.iter().filter(|o| o.is_none()).count() as u64;
            res.failed += failed;
            if failed > 0 {
                res.note(format!(
                    "{failed} jobs failed the engine's functional verify or budget"
                ));
            }
        }
        // Output checks: the warm leg and every later round reproduce the
        // first cold leg bit for bit.
        let expect = reference.get_or_insert_with(|| r.cold.outcomes.clone());
        for leg in [&r.cold, &r.warm] {
            let differ = leg
                .outcomes
                .iter()
                .zip(expect.iter())
                .filter(|(a, b)| a.is_some() && b.is_some() && a != b)
                .count() as u64;
            if differ > 0 {
                res.failed += differ;
                res.note(format!(
                    "{differ} jobs changed outcome between legs or rounds"
                ));
            }
        }
        r.cold.outcomes = Vec::new();
        r.warm.outcomes = Vec::new();
        rounds.push(r);
    }
    println!("untraced rounds: {} ({} jobs per leg)", rounds.len(), jobs);

    let col = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let m = &mut res.metrics;
    if !traced {
        m.set("setup_s", median(&col(&|r| r.setup.as_secs_f64())), "s");
        m.set("peak_rss_mb", median(&col(&|r| r.peak_rss)), "MB");
        m.set(
            "wall_s",
            median(&col(&|r| (r.cold.ttd + r.warm.ttd).as_secs_f64())),
            "s",
        );
        m.set(
            "uops_per_s",
            median(&col(&|r| {
                (r.cold.uops + r.warm.uops) / (r.cold.ttd + r.warm.ttd).as_secs_f64()
            })),
            "uop/s",
        );
        crate::latency_metrics(m, "ttfj_cold", &col(&|r| ms(r.cold.ttfj)));
        crate::latency_metrics(m, "ttd_cold", &col(&|r| ms(r.cold.ttd)));
        crate::latency_metrics(m, "ttfj_warm", &col(&|r| ms(r.warm.ttfj)));
        crate::latency_metrics(m, "ttd_warm", &col(&|r| ms(r.warm.ttd)));
        return res;
    }

    // Engine-level numbers from the untraced runners' own phase timers.
    let s = |f: &dyn Fn(&SweepSummary) -> f64| median(&col(&|r| f(&r.summary)));
    m.set(
        "engine.profile_hit_ratio",
        s(&|x| {
            ratio(
                x.profile_hits as f64,
                (x.profile_hits + x.profile_misses) as f64,
            )
        }),
        "ratio",
    );
    m.set(
        "engine.compile_hit_ratio",
        s(&|x| x.compile_hit_rate()),
        "ratio",
    );
    m.set(
        "engine.overhead_ms",
        s(&|x| {
            let phases = x.profile_time + x.compile_time + x.simulate_time + x.verify_time;
            ms(x.wall_time.saturating_sub(phases))
        }),
        "ms",
    );
    m.set(
        "batch.batched_ratio",
        s(&|x| ratio(x.batched_jobs as f64, x.jobs as f64)),
        "ratio",
    );
    let expect = reference.expect("at least one round ran");
    let stats: Vec<_> = expect.iter().flatten().map(|o| &o.sim.stats).collect();
    layers::sim_metrics(&stats, m);

    // The traced re-execution of the cold leg.
    let mut t = Tracer::new();
    let suite_span = t.enter("workloads.suite_build", 0);
    let benches = suite(sweep.ec.scale);
    t.exit(suite_span);
    m.set(
        "workloads.suite_build_ms",
        t.duration_ns(suite_span) as f64 / 1e6,
        "ms",
    );
    let key_runner = SweepRunner::with_workers(&sweep.ec, 1);
    let keys: Vec<u64> = sweep.jobs.iter().map(|j| key_runner.job_key(j)).collect();
    let mut rx = Reexec::new(&benches);
    rx.persist = false;
    let root = t.enter("round", 0);
    let mut traced_outcomes: Vec<Option<RunOutcome>> = vec![None; sweep.jobs.len()];
    for ids in plan_groups(&sweep.jobs, sweep.batch) {
        let outs = rx.run_group(&mut t, &sweep.jobs, &keys, &ids);
        for (i, o) in ids.into_iter().zip(outs) {
            traced_outcomes[i] = o;
        }
    }
    t.exit(root);
    res.attempted += jobs;
    let mismatched = traced_outcomes
        .iter()
        .zip(&expect)
        .filter(|(a, b)| a.is_none() || a != b)
        .count() as u64;
    for _ in 0..mismatched {
        res.fail("a traced job differs from the untraced sweep".to_string());
    }
    // The journal codec over the workload's own outcomes, off the job
    // path: the sweeps attach no journal.
    let codec_root = t.enter("codec", 0);
    for (i, out) in traced_outcomes.iter().enumerate() {
        if let Some(o) = out {
            rx.persist_outcome(&mut t, keys[i], i as u64, o);
        }
    }
    t.exit(codec_root);
    layers::layer_metrics(&t, root, &rx, &mut res.metrics);
    let untraced_ms = median(&col(&|r| ms(r.cold.ttd)));
    res.metrics.set(
        "trace.overhead_ratio",
        ratio(t.duration_ns(root) as f64 / 1e6, untraced_ms),
        "ratio",
    );

    // Layout versus batching: every job as a one-lane BatchSimulator,
    // paired with the same job on the pooled scalar core, both on the
    // same base of retired µops. The pair runs `LANE1_REPS` times in
    // alternating order, so host drift and cache warmth hit both alike.
    if sweep.batch == 1 {
        let (mut lane_ns, mut scalar_ns) = (0u64, 0u64);
        let mut uops = 0u64;
        let lane_root = t.enter("lane1", 0);
        for rep in 0..LANE1_REPS {
            for (i, job) in sweep.jobs.iter().enumerate() {
                let Some(bin) = rx.binary(&mut t, job, i as u64) else {
                    continue;
                };
                let want = expect[i].as_ref().map(|o| &o.sim);
                for lane_first in [(i + rep) % 2 == 0, (i + rep) % 2 == 1] {
                    res.attempted += 1;
                    // Input generation is inside both spans, as in `uarch.sim`.
                    let (ok, what) = if lane_first {
                        let span = t.enter("batch.lane1", i as u64);
                        let spec = BatchLaneSpec {
                            program: &bin.program,
                            cfg: job.machine.clone(),
                            preload_mem: (benches[job.bench].input_fn)(job.input),
                            retire_log: false,
                        };
                        let result = BatchSimulator::new(&[spec]).run();
                        t.exit(span);
                        lane_ns += t.duration_ns(span);
                        let ok = matches!(result.first(), Some(Ok(sim)) if Some(sim) == want);
                        if ok && rep == 0 {
                            uops += want.map_or(0, |s| s.stats.retired_uops);
                        }
                        (ok, "one-lane batch")
                    } else {
                        let span = t.enter("uarch.paired", i as u64);
                        let result = rx.simulate_scalar(&bin, job);
                        t.exit(span);
                        scalar_ns += t.duration_ns(span);
                        (result.ok().as_ref() == want, "paired scalar run")
                    };
                    if !ok {
                        res.fail(format!("{what} of job {i} differs from the untraced sweep"));
                    }
                }
            }
        }
        t.exit(lane_root);
        let total = (uops * LANE1_REPS as u64) as f64;
        let (lane, scalar) = (
            ratio(total, lane_ns as f64 / 1e9),
            ratio(total, scalar_ns as f64 / 1e9),
        );
        println!(
            "one-lane BatchSimulator {lane:.0} uop/s vs pooled Simulator {scalar:.0} uop/s \
             over {LANE1_REPS} alternating pairs per job (ratio {:.3})",
            ratio(lane, scalar)
        );
        res.metrics.set("uarch.lane1_uops_per_s", lane, "uop/s");
    }

    let samples: Vec<&SweepJob> = sweep.jobs.iter().take(2).collect();
    layers::component_replay(&mut t, &mut rx, &samples, &benches, &mut res.metrics);
    for e in &rx.errors {
        res.fail(e.clone());
    }
    if let Err(e) = t.write_jsonl(spans_path) {
        res.note(format!("cannot write spans: {e}"));
    }
    res
}
