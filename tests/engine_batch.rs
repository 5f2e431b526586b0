//! Engine-level batching contract: a [`SweepRunner`] with a batch width
//! above 1 groups jobs that share a compiled binary into units one worker
//! runs back to back, and every observable output — `SimResult`s, compile
//! reports, summary cache counters, journal entries, failure isolation —
//! is bit-identical to the unbatched (width-1) run. Batching is a
//! scheduling knob, never a semantics knob.

use std::path::{Path, PathBuf};

use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{ExperimentConfig, FaultKind, FaultPlan, SweepJob, SweepRunner};
use wishbranch_workloads::InputSet;

/// A sweep shaped like the real figure grids: few binaries, many machine
/// points per binary — exactly what the batch planner groups. Machine
/// variation inside one group mixes ROB sizes and memory models
/// (hierarchy-on, finite MSHRs, flat) so lanes of one batch exercise
/// genuinely different timing behavior.
fn batchable_jobs(ec: &ExperimentConfig) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for bench in [0, 3] {
        for variant in [BinaryVariant::NormalBranch, BinaryVariant::WishJumpJoin] {
            for (i, input) in InputSet::ALL.into_iter().enumerate() {
                for k in 0..3usize {
                    let mut machine = ec.machine.clone();
                    match (i + k) % 3 {
                        0 => machine = machine.with_window(48),
                        1 => machine.mem.max_outstanding_misses = 2,
                        _ => machine.mem.realistic = true,
                    }
                    jobs.push(
                        SweepJob::standard(bench, variant, input, ec).with_machine(machine),
                    );
                }
            }
        }
    }
    jobs
}

/// A unique scratch directory under the target dir (no tempfile dep).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("engine_batch_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn runner(ec: &ExperimentConfig, workers: usize, batch: usize) -> SweepRunner {
    let mut r = SweepRunner::with_workers(ec, workers);
    r.set_batch(batch);
    r
}

#[test]
fn batched_sweep_is_bit_identical_to_scalar() {
    let ec = ExperimentConfig::quick(40);
    let jobs = batchable_jobs(&ec);

    let scalar = runner(&ec, 2, 1).run(jobs.clone()).expect("scalar sweep");
    let batched_runner = runner(&ec, 2, 8);
    let batched = batched_runner.run(jobs.clone()).expect("batched sweep");

    assert_eq!(scalar.len(), batched.len());
    for (i, (s, b)) in scalar.iter().zip(&batched).enumerate() {
        assert_eq!(
            s.outcome.sim, b.outcome.sim,
            "job {i}: batched SimResult diverges from scalar"
        );
        assert_eq!(s.outcome.report, b.outcome.report, "job {i}: report diverges");
        assert_eq!(
            s.outcome.static_stats, b.outcome.static_stats,
            "job {i}: static stats diverge"
        );
        assert!(!b.journal_hit && !b.store_hit);
    }

    // The batch planner actually batched: 4 compile groups × 9 jobs at
    // width 8 → four chunks of 8 plus four singletons simulated alone.
    let sb = batched_runner.summary();
    assert_eq!(sb.batch_size, 8);
    assert!(
        sb.batched_jobs >= 32,
        "expected most jobs batched, got {}",
        sb.batched_jobs
    );
    assert_eq!(sb.jobs, jobs.len() as u64);
    assert_eq!(sb.failed, 0);
    assert!(sb.sim_uops > 0 && sb.simulate_time.as_nanos() > 0);

    // On one worker, grouping changes nothing a job observes: the same
    // jobs miss the binary cache, the summary counts the same work, and
    // every persisted entry is byte-identical.
    let dir = scratch_dir("width");
    let journaled = |batch: usize| {
        let r = runner(&ec, 1, batch);
        r.attach_journal(&dir.join(format!("batch{batch}.jsonl")), false)
            .expect("attach journal");
        let results = r.run(jobs.clone()).expect("journaled sweep");
        (results, r.summary())
    };
    let (w1, s1) = journaled(1);
    let (w8, s8) = journaled(8);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    for (i, (a, b)) in w1.iter().zip(&w8).enumerate() {
        assert_eq!(a.compile_cache_hit, b.compile_cache_hit, "job {i}: compile cache hit");
        assert!(a.entry.is_some(), "job {i}: a journaled run encodes an entry");
        assert_eq!(a.entry, b.entry, "job {i}: journal entry bytes differ");
    }
    let counts = |s: &wishbranch_core::SweepSummary| {
        (s.jobs, s.sim_cycles, s.sim_uops, s.compile_hits, s.compile_misses)
    };
    assert_eq!(counts(&s1), counts(&s8));
    assert_eq!((s1.batched_jobs, s8.batched_jobs), (0, sb.batched_jobs));
}

#[test]
fn batched_oracle_mode_matches_scalar() {
    let ec = ExperimentConfig::quick(30);
    let mut jobs = Vec::new();
    for input in InputSet::ALL {
        for _ in 0..2 {
            jobs.push(SweepJob::standard(1, BinaryVariant::WishJumpJoinLoop, input, &ec));
        }
    }

    let mut scalar_runner = runner(&ec, 1, 1);
    scalar_runner.set_oracle(true);
    let scalar = scalar_runner.run(jobs.clone()).expect("scalar oracle sweep");

    let mut batched_runner = runner(&ec, 1, 6);
    batched_runner.set_oracle(true);
    let batched = batched_runner.run(jobs).expect("batched oracle sweep");

    for (s, b) in scalar.iter().zip(&batched) {
        assert_eq!(s.outcome.sim, b.outcome.sim);
    }
    assert!(batched_runner.summary().batched_jobs == 6);
}

#[test]
fn fault_injected_job_stays_isolated_under_batching() {
    let ec = ExperimentConfig::quick(30);
    let jobs: Vec<SweepJob> = InputSet::ALL
        .into_iter()
        .flat_map(|input| {
            (0..2).map(move |_| input)
        })
        .map(|input| SweepJob::standard(0, BinaryVariant::BaseDef, input, &ec))
        .collect();

    // Reference: fault-free batched run.
    let clean = runner(&ec, 2, 8).run(jobs.clone()).expect("clean sweep");

    // Same sweep with job 2 faulting inside its group: that cell fails,
    // every other cell stays bit-identical, and batching stays on for the
    // rest.
    for kind in [FaultKind::Panic, FaultKind::Budget, FaultKind::Diverge] {
        let mut faulty_runner = runner(&ec, 2, 8);
        faulty_runner.set_fault_plan(FaultPlan::new().inject(2, kind));
        let faulty = faulty_runner.try_run(jobs.clone());

        for (i, (c, f)) in clean.iter().zip(&faulty).enumerate() {
            if i == 2 {
                let failure = f.as_ref().expect_err("injected fault must fail job 2");
                assert_eq!(failure.index, 2, "{kind:?}");
            } else {
                let ok = f.as_ref().expect("non-faulted jobs succeed");
                assert_eq!(
                    c.outcome.sim, ok.outcome.sim,
                    "{kind:?}: job {i} diverges beside a fault"
                );
            }
        }
        let summary = faulty_runner.summary();
        assert_eq!(summary.failed, 1, "{kind:?}");
        assert!(summary.batched_jobs > 0, "{kind:?}: remaining jobs still batched");
    }
}
