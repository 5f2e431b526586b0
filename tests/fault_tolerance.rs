//! The failure-model contract of the sweep engine: injected faults become
//! typed, isolated gaps; every non-faulted job is bit-identical to a
//! fault-free run; an aborted sweep resumes from its journal into
//! byte-identical reports — at the library level and through the CLI.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{
    Experiment, ExperimentConfig, FaultKind, FaultPlan, JournalError, ReportData, SweepJob,
    SweepRunner,
};
use wishbranch_workloads::{suite, InputSet};

/// A small deterministic job list: two benchmarks × two variants × all
/// three input sets = 12 jobs.
fn reduced_jobs(ec: &ExperimentConfig) -> Vec<SweepJob> {
    let nbench = suite(ec.scale).len();
    let mut jobs = Vec::new();
    for b in [0, nbench - 1] {
        for variant in [BinaryVariant::NormalBranch, BinaryVariant::WishJumpJoinLoop] {
            for input in InputSet::ALL {
                jobs.push(SweepJob::standard(b, variant, input, ec));
            }
        }
    }
    jobs
}

/// A unique scratch directory under the target dir (no tempfile dep).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("ft_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn injected_panic_is_one_failed_cell_and_the_rest_complete() {
    let ec = ExperimentConfig::quick(25);
    let jobs = reduced_jobs(&ec);

    let mut runner = SweepRunner::with_workers(&ec, 2);
    runner.set_fault_plan(FaultPlan::new().inject(4, FaultKind::Panic));
    let faulted = runner.try_run(jobs.clone());

    let clean = SweepRunner::with_workers(&ec, 2)
        .run(jobs.clone())
        .expect("fault-free sweep");

    assert_eq!(faulted.len(), clean.len());
    for (i, result) in faulted.iter().enumerate() {
        if i == 4 {
            let failure = result.as_ref().expect_err("job 4 must fail");
            assert_eq!(failure.index, 4);
            assert_eq!(failure.error.kind(), "worker_panic");
            assert_eq!(failure.attempts, 2, "panics are retried exactly once");
            assert!(
                failure.error.to_string().contains("injected fault"),
                "panic payload must be preserved: {}",
                failure.error
            );
        } else {
            let ok = result.as_ref().expect("non-faulted job must complete");
            assert_eq!(
                ok.outcome.sim, clean[i].outcome.sim,
                "job {i}: fault isolation must not perturb other jobs"
            );
        }
    }

    let summary = runner.summary();
    assert_eq!(summary.failed, 1);
    assert_eq!(summary.retries, 1);
    assert_eq!(summary.jobs, clean.len() as u64 - 1);
    assert_eq!(runner.failures().len(), 1);
    assert!(!runner.aborted());
}

/// In a report built from each benchmark's run statistics, a failed job
/// keeps its benchmark's row as an explicit gap: every value NaN, while
/// the other rows and the averages stay finite.
#[test]
fn failed_job_gaps_its_whole_benchmark_row() {
    let ec = ExperimentConfig::quick(25);
    let mut runner = SweepRunner::with_workers(&ec, 2);
    // abl_loop_predictor submits (hybrid-only, biased) per benchmark, so
    // job 3 is the second benchmark's biased run.
    runner.set_fault_plan(FaultPlan::new().inject(3, FaultKind::Panic));
    let report = Experiment::AblLoopPredictor.run(&runner);
    let ReportData::Figure(fig) = &report.data else {
        panic!("abl_loop_predictor did not return a figure")
    };
    assert_eq!(fig.rows.len(), suite(ec.scale).len() + 2);
    for (i, row) in fig.rows.iter().enumerate() {
        if i == 1 {
            assert!(row.values.iter().all(|v| v.is_nan()), "{}: {:?}", row.name, row.values);
        } else {
            assert!(row.values.iter().all(|v| v.is_finite()), "{}: {:?}", row.name, row.values);
        }
    }
    assert_eq!(runner.failures().len(), 1);
}

#[test]
fn budget_and_divergence_faults_are_typed_outcomes() {
    let ec = ExperimentConfig::quick(25);
    let jobs = reduced_jobs(&ec);

    let mut runner = SweepRunner::with_workers(&ec, 2);
    runner.set_fault_plan(
        FaultPlan::new()
            .inject(0, FaultKind::Budget)
            .inject(5, FaultKind::Diverge),
    );
    let results = runner.try_run(jobs);

    let budget = results[0].as_ref().expect_err("job 0 must blow its budget");
    assert_eq!(budget.error.kind(), "cycle_budget_exceeded");
    assert_eq!(budget.attempts, 2, "budget overruns are retried once");

    let diverge = results[5].as_ref().expect_err("job 5 must diverge");
    assert_eq!(diverge.error.kind(), "verify_divergence");
    assert_eq!(diverge.attempts, 1, "divergence is deterministic: no retry");
    assert!(
        diverge.error.to_string().contains("addr"),
        "divergence must name the first differing address: {}",
        diverge.error
    );

    for (i, r) in results.iter().enumerate() {
        if i != 0 && i != 5 {
            assert!(r.is_ok(), "job {i} must complete");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// With k seeded faults injected, every non-faulted job's result is
    /// bit-identical, in submission order, to the fault-free run.
    #[test]
    fn seeded_faults_leave_all_other_jobs_bit_identical(seed in any::<u64>()) {
        let ec = ExperimentConfig::quick(20);
        let jobs = reduced_jobs(&ec);
        // Three distinct indices drawn from the seed (splitmix64), kinds
        // cycling through panic, budget and diverge.
        let kinds = [FaultKind::Panic, FaultKind::Budget, FaultKind::Diverge];
        let mut state = seed;
        let mut plan = FaultPlan::new();
        while plan.len() < kinds.len() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let idx = (z ^ (z >> 31)) % jobs.len() as u64;
            if plan.fault_at(idx).is_none() {
                let kind = kinds[plan.len()];
                plan = plan.inject(idx, kind);
            }
        }
        let faulted_indices: Vec<u64> = plan.iter().map(|(i, _)| i).collect();

        let mut runner = SweepRunner::with_workers(&ec, 3);
        runner.set_fault_plan(plan);
        let faulted = runner.try_run(jobs.clone());

        let clean = SweepRunner::with_workers(&ec, 3)
            .run(jobs)
            .expect("fault-free sweep");

        for (i, result) in faulted.iter().enumerate() {
            if faulted_indices.contains(&(i as u64)) {
                let failure = result.as_ref().err().expect("faulted job must fail");
                prop_assert_eq!(failure.index, i as u64);
            } else {
                let ok = result.as_ref().ok().expect("non-faulted job must complete");
                prop_assert_eq!(
                    &ok.outcome.sim,
                    &clean[i].outcome.sim,
                    "job {} diverged under fault injection",
                    i
                );
                prop_assert_eq!(&ok.outcome.report, &clean[i].outcome.report);
            }
        }
        prop_assert_eq!(runner.failures().len(), faulted_indices.len());
    }
}

#[test]
fn aborted_sweep_resumes_from_journal_into_byte_identical_reports() {
    let ec = ExperimentConfig::quick(30);
    let dir = scratch_dir("lib_resume");
    let journal = dir.join("journal.jsonl");

    // Reference: one uninterrupted, journal-free run.
    let fresh = Experiment::Fig10.run(&SweepRunner::with_workers(&ec, 2));

    // Interrupted run: journal attached, hard abort mid-sweep.
    let mut interrupted = SweepRunner::with_workers(&ec, 2);
    interrupted
        .attach_journal(&journal, false)
        .expect("attach journal");
    interrupted.set_fault_plan(FaultPlan::new().inject(20, FaultKind::Abort));
    let partial = Experiment::Fig10.run(&interrupted);
    assert!(interrupted.aborted(), "abort fault must mark the runner");
    assert!(
        !interrupted.failures().is_empty(),
        "aborted jobs must be recorded as failures"
    );
    assert_ne!(
        partial.to_json(),
        fresh.to_json(),
        "the interrupted report must visibly differ (gaps)"
    );
    assert!(journal.exists(), "completed jobs must be journaled");

    // Resumed run: journaled jobs replay bit-identically, the rest run.
    let resumed_runner = SweepRunner::with_workers(&ec, 2);
    let replayed = resumed_runner
        .attach_journal(&journal, true)
        .expect("attach journal for resume");
    assert!(replayed > 0, "resume must load journaled outcomes");
    let resumed = Experiment::Fig10.run(&resumed_runner);

    assert_eq!(
        resumed.to_json(),
        fresh.to_json(),
        "resumed JSON report must be byte-identical to an uninterrupted run"
    );
    assert_eq!(
        resumed.to_csv(),
        fresh.to_csv(),
        "resumed CSV report must be byte-identical to an uninterrupted run"
    );
    let summary = resumed_runner.summary();
    assert!(
        summary.journal_hits > 0,
        "journaled jobs must be served as journal hits: {summary:?}"
    );
    assert_eq!(summary.failed, 0);
    assert!(!resumed_runner.aborted());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_a_changed_scale_is_refused() {
    let dir = scratch_dir("stale_resume");
    let journal = dir.join("journal.jsonl");

    // Journal a couple of completed jobs at scale 30.
    let ec = ExperimentConfig::quick(30);
    let runner = SweepRunner::with_workers(&ec, 2);
    runner
        .attach_journal(&journal, false)
        .expect("attach journal");
    let jobs: Vec<SweepJob> = reduced_jobs(&ec).into_iter().take(2).collect();
    runner.run(jobs).expect("jobs complete");

    // The identical configuration resumes fine (the kill-then-resume path).
    let replayed = SweepRunner::with_workers(&ec, 2)
        .attach_journal(&journal, true)
        .expect("same-config resume");
    assert_eq!(replayed, 2);

    // A changed scale must be a typed refusal — never a silent replay of
    // scale-30 results into a scale-31 report.
    let stale = SweepRunner::with_workers(&ExperimentConfig::quick(31), 2);
    let err = stale
        .attach_journal(&journal, true)
        .expect_err("stale resume must be refused");
    assert!(matches!(err, JournalError::RunMismatch { .. }), "{err}");
    assert!(
        err.to_string().contains("different run configuration"),
        "the refusal must say why: {err}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wishbranch-repro"))
        .args(args)
        .output()
        .expect("spawn wishbranch-repro")
}

#[test]
fn cli_fault_injection_exit_codes_and_kill_then_resume() {
    let base = scratch_dir("cli_resume");
    let fresh_dir = base.join("fresh");
    let resume_dir = base.join("resumed");
    let scale_args = ["--quick", "--scale", "30", "--workers", "2"];

    // Uninterrupted reference run.
    let fresh = repro(
        &[&scale_args[..], &["--report-dir", fresh_dir.to_str().unwrap(), "fig10"]].concat(),
    );
    assert_eq!(fresh.status.code(), Some(0), "{fresh:?}");

    // Injected panic + divergence: gaps, but exit 0 without --strict…
    let lax = repro(&[&scale_args[..], &["--fault-plan", "panic@3,diverge@8", "fig10"]].concat());
    assert_eq!(lax.status.code(), Some(0), "{lax:?}");
    let stdout = String::from_utf8_lossy(&lax.stdout);
    assert!(
        stdout.contains("worker_panic") && stdout.contains("verify_divergence"),
        "failure table must list both injected faults:\n{stdout}"
    );

    // …and exit 3 with --strict.
    let strict = repro(
        &[&scale_args[..], &["--fault-plan", "panic@3,diverge@8", "--strict", "fig10"]].concat(),
    );
    assert_eq!(strict.status.code(), Some(3), "{strict:?}");

    // --resume without --report-dir is a usage error.
    let misuse = repro(&["--resume", "fig10"]);
    assert_eq!(misuse.status.code(), Some(2), "{misuse:?}");

    // Kill mid-sweep via an abort fault: exit 4, journal left behind.
    let killed = repro(
        &[
            &scale_args[..],
            &[
                "--report-dir",
                resume_dir.to_str().unwrap(),
                "--fault-plan",
                "abort@20",
                "fig10",
            ],
        ]
        .concat(),
    );
    assert_eq!(killed.status.code(), Some(4), "{killed:?}");
    assert!(resume_dir.join("journal.jsonl").exists());

    // Resume: exit 0, reports byte-identical to the uninterrupted run.
    let resumed = repro(
        &[
            &scale_args[..],
            &["--report-dir", resume_dir.to_str().unwrap(), "--resume", "fig10"],
        ]
        .concat(),
    );
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    for file in ["fig10.json", "fig10.csv"] {
        let a = std::fs::read(fresh_dir.join(file)).expect("fresh report");
        let b = std::fs::read(resume_dir.join(file)).expect("resumed report");
        assert_eq!(a, b, "{file}: resumed report must be byte-identical");
    }
    let summary =
        std::fs::read_to_string(resume_dir.join("summary.json")).expect("resumed summary");
    assert!(summary.contains("\"failed\":0"), "{summary}");
    assert!(!summary.contains("\"journal_hits\":0"), "{summary}");
    assert!(summary.contains("\"failures\":[]"), "{summary}");

    // --resume after a scale change is refused as a usage error (exit 2):
    // the journal no longer describes the requested experiment.
    let stale = repro(&[
        "--quick",
        "--scale",
        "40",
        "--workers",
        "2",
        "--report-dir",
        resume_dir.to_str().unwrap(),
        "--resume",
        "fig10",
    ]);
    assert_eq!(stale.status.code(), Some(2), "{stale:?}");
    let stderr = String::from_utf8_lossy(&stale.stderr);
    assert!(
        stderr.contains("different run configuration"),
        "the refusal must say why:\n{stderr}"
    );

    std::fs::remove_dir_all(&base).ok();
}
