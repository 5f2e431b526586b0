//! Lane-count invariance: a job simulated alone ([`Simulator`], one lane
//! of the out-of-order engine) must produce a `SimResult` **equal** to the
//! same job run at any position in a [`BatchSimulator`] of N lanes —
//! stats, cycle accounting, hot sites, cache counters, final architectural
//! state and the retired-instruction stream. A batch runs one `Simulator`
//! per lane, one after another, and lanes share nothing; any dependence on
//! batch width, position or batchmates is a bug. ("Scalar" in the test
//! names means that one-job `Simulator`.)
//!
//! What the engine computes is pinned separately: by the three golden
//! lanes in `golden_figures.rs` (the third holds the answers of the
//! retired scalar core over this suite's job draw) and by the lockstep
//! oracle.
//!
//! The job draw deliberately mixes benchmarks, binary variants, inputs
//! and machine configs — including hierarchy-on (`realistic`) and
//! hierarchy-off `MemConfig`s inside one batch, which the lane engine must
//! handle directly.

mod support;

use proptest::prelude::*;
use support::{lane_stream, random_lane, straggler_jobs, LANE_SCALE};
use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{compile_variant, ExperimentConfig};
use wishbranch_isa::{Program, RetireRecord};
use wishbranch_uarch::{BatchLaneSpec, BatchSimulator, MachineConfig, SimResult, Simulator};
use wishbranch_workloads::{suite, InputSet};

/// One job alone on a [`Simulator`], with its retired-instruction stream
/// when `retire_log` asks for one (empty otherwise).
fn solo_run(
    program: &Program,
    cfg: &MachineConfig,
    preload: &[(u64, i64)],
    retire_log: bool,
) -> (SimResult, Vec<RetireRecord>) {
    let mut sim = Simulator::new(program, cfg.clone());
    for &(a, v) in preload {
        sim.preload_mem(a, v);
    }
    if retire_log {
        sim.enable_retire_log();
    }
    let result = sim.run().expect("solo job halts");
    (result, sim.take_retire_log())
}

/// Draws `lanes` jobs from `seed`'s stream and runs them as one batch in
/// which only lane `target` collects its retire log. Every lane must
/// equal its solo run; the target's retire log must equal its solo log,
/// and the other lanes, which did not ask for one, must have none.
fn check_invariance(seed: u64, lanes: usize, target: usize) {
    let ec = ExperimentConfig::quick(LANE_SCALE);
    let benches = suite(LANE_SCALE);
    let mut st = lane_stream(seed);
    let jobs: Vec<_> = (0..lanes).map(|_| random_lane(&mut st)).collect();
    // Compile each distinct (bench, variant) once: lanes sharing a program
    // must share one `&Program` so the batch decode cache can unify them.
    let mut bins: Vec<((usize, BinaryVariant), Program)> = Vec::new();
    for &(b, v, _, _) in &jobs {
        if !bins.iter().any(|(k, _)| *k == (b, v)) {
            let bin = compile_variant(&benches[b], v, &ec).expect("compile");
            bins.push(((b, v), bin.program));
        }
    }
    let lookup = |b: usize, v: BinaryVariant| -> &Program {
        &bins.iter().find(|(k, _)| *k == (b, v)).expect("compiled").1
    };

    let specs: Vec<BatchLaneSpec> = jobs
        .iter()
        .enumerate()
        .map(|(i, &(b, v, input, ref cfg))| BatchLaneSpec {
            program: lookup(b, v),
            cfg: cfg.clone(),
            preload_mem: (benches[b].input_fn)(input),
            retire_log: i == target,
        })
        .collect();
    let mut batch = BatchSimulator::new(&specs);
    let results = batch.run();
    assert_eq!(results.len(), lanes);

    for (i, (&(b, v, input, ref cfg), got)) in jobs.iter().zip(&results).enumerate() {
        let what = format!(
            "lane {i}/{lanes} ({:?} {v:?} {input} cfg {cfg:?})",
            benches[b].name
        );
        let (want, want_log) = solo_run(
            lookup(b, v),
            cfg,
            &(benches[b].input_fn)(input),
            i == target,
        );
        let got = got
            .as_ref()
            .unwrap_or_else(|e| panic!("{what}: batch lane failed: {e}"));
        assert_eq!(
            *got, want,
            "{what}: batched result differs from the job alone"
        );
        let log = batch.take_retire_log(i);
        if i == target {
            assert_eq!(log.len(), want_log.len(), "{what}: retire stream length");
            for (k, (g, w)) in log.iter().zip(&want_log).enumerate() {
                assert_eq!(g, w, "{what}: retire record {k} differs");
            }
        } else {
            assert!(
                log.is_empty(),
                "{what}: lanes that didn't ask for a log must not pay for one"
            );
        }
    }
}

/// Fixed seeds × batch sizes × log positions, from a one-lane batch up to
/// eight lanes, with the logging lane at the front, middle and back.
#[test]
fn batched_lanes_are_bit_identical_to_scalar() {
    for (seed, lanes, target) in [(0, 1, 0), (1, 2, 1), (2, 3, 1), (3, 5, 0), (4, 8, 7)] {
        check_invariance(seed, lanes, target);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A job alone equals the same job at a random position in a batch of
    /// N = 2..8, for the `SimResult` and the retire log alike.
    #[test]
    fn sampled_batch_matches_scalar(seed in 0u64..1000, lanes in 2usize..9, pos in 0usize..8) {
        check_invariance(seed, lanes, pos % lanes);
    }
}

/// A straggler lane (100× the work of its batchmates) must not perturb
/// the other lanes' results, whichever side of it they run on.
#[test]
fn straggler_lane_stays_bit_identical() {
    // The trip count is baked into the program text, so the straggler is
    // the same benchmark compiled at 100× the scale — a second program in
    // the same batch (lanes need not share one).
    let [short, long] = straggler_jobs();
    let mut specs = Vec::new();
    for job in [&short, &long, &short, &short] {
        specs.push(BatchLaneSpec {
            program: &job.program,
            cfg: job.cfg.clone(),
            preload_mem: job.preload.clone(),
            retire_log: false,
        });
    }
    let mut batch = BatchSimulator::new(&specs);
    let results = batch.run();

    let (want_short, _) = solo_run(&short.program, &short.cfg, &short.preload, false);
    let (want_long, _) = solo_run(&long.program, &long.cfg, &long.preload, false);
    assert!(
        want_long.stats.cycles >= want_short.stats.cycles * 20,
        "straggler must dominate: {} vs {}",
        want_long.stats.cycles,
        want_short.stats.cycles
    );
    for (i, want) in [&want_short, &want_long, &want_short, &want_short]
        .into_iter()
        .enumerate()
    {
        assert_eq!(
            results[i].as_ref().expect("lane halts"),
            want,
            "lane {i} diverged"
        );
    }
}

/// Per-lane fault isolation at the engine level: a lane that exhausts its
/// cycle budget errors alone; its batchmates still produce exact results.
#[test]
fn faulting_lane_gaps_only_its_own_cell() {
    let ec = ExperimentConfig::quick(LANE_SCALE);
    let benches = suite(LANE_SCALE);
    let bin = compile_variant(&benches[0], BinaryVariant::BaseDef, &ec).expect("compile");
    let good_cfg = MachineConfig::default();
    let starved_cfg = MachineConfig::default().with_max_cycles(8);
    let preload = (benches[0].input_fn)(InputSet::B);

    let specs: Vec<BatchLaneSpec> = [&good_cfg, &starved_cfg, &good_cfg]
        .into_iter()
        .map(|cfg| BatchLaneSpec {
            program: &bin.program,
            cfg: cfg.clone(),
            preload_mem: preload.clone(),
            retire_log: false,
        })
        .collect();
    let mut batch = BatchSimulator::new(&specs);
    let results = batch.run();

    let (want, _) = solo_run(&bin.program, &good_cfg, &preload, false);
    assert_eq!(results[0].as_ref().expect("lane 0 halts"), &want);
    assert!(results[1].is_err(), "starved lane must report its limit");
    assert_eq!(results[2].as_ref().expect("lane 2 halts"), &want);
}

/// A lane's retire log (lockstep-oracle food) must equal the same job's
/// log alone, record for record, while its batchmate pays for no log.
#[test]
fn batched_retire_log_matches_scalar() {
    let ec = ExperimentConfig::quick(LANE_SCALE);
    let benches = suite(LANE_SCALE);
    let bin =
        compile_variant(&benches[2], BinaryVariant::WishJumpJoinLoop, &ec).expect("compile");
    let cfg = MachineConfig::default();
    let preload = (benches[2].input_fn)(InputSet::C);

    let specs: Vec<BatchLaneSpec> = [true, false]
        .into_iter()
        .map(|retire_log| BatchLaneSpec {
            program: &bin.program,
            cfg: cfg.clone(),
            preload_mem: preload.clone(),
            retire_log,
        })
        .collect();
    let mut batch = BatchSimulator::new(&specs);
    let results = batch.run();
    let batched_log = batch.take_retire_log(0);

    let (want, want_log) = solo_run(&bin.program, &cfg, &preload, true);
    assert!(!want_log.is_empty(), "the solo run must collect a log");
    assert_eq!(results[0].as_ref().expect("halts"), &want);
    assert_eq!(results[1].as_ref().expect("halts"), &want);
    assert_eq!(batched_log.len(), want_log.len(), "retire stream length");
    for (i, (g, w)) in batched_log.iter().zip(&want_log).enumerate() {
        assert_eq!(g, w, "retire record {i} diverged");
    }
    assert!(
        batch.take_retire_log(1).is_empty(),
        "lanes that didn't ask for a log must not pay for one"
    );
}
