//! # wishbranch-bench
//!
//! Benches that regenerate every table and figure of the paper's
//! evaluation. The `paper` bench is one harness over the
//! [`Experiment`](wishbranch_core::Experiment) catalog:
//!
//! ```text
//! cargo bench -p wishbranch-bench --bench paper -- fig10 abl_loop_predictor
//! ```
//!
//! It runs the experiments named on the command line (every one when none
//! is named) on one shared runner at full scale and prints each report —
//! the reproduction artifact recorded in `EXPERIMENTS.md`. An unknown id
//! exits nonzero and lists the known ones.
//!
//! `perf_components` times the substrate components plus one scaled-down
//! simulator kernel ([`register_kernel`]), and `perf_smoke` is the
//! simulator-throughput gate.
//!
//! Scale is controlled with the `WISHBRANCH_SCALE` environment variable
//! (default 4000 outer iterations per benchmark).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use criterion::Criterion;
use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{
    compile_variant, failure_table, simulate, sweep_summary_table, ExperimentConfig, Report,
    SweepRunner,
};
use wishbranch_workloads::{twolf, InputSet};

/// Environment variable naming a directory to drop machine-readable
/// reports into (`<id>.json` + `<id>.csv` per emitted report).
pub const REPORT_DIR_ENV: &str = "WISHBRANCH_REPORT_DIR";

/// Full-regeneration scale (outer iterations per benchmark).
#[must_use]
pub fn paper_scale() -> i32 {
    std::env::var("WISHBRANCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000)
}

/// The experiment configuration used by the `paper` bench.
#[must_use]
pub fn paper_config() -> ExperimentConfig {
    ExperimentConfig::paper(paper_scale())
}

/// A parallel [`SweepRunner`] over the full suite at paper scale. Worker
/// count comes from `WISHBRANCH_WORKERS`, defaulting to the machine's
/// available parallelism.
#[must_use]
pub fn paper_runner() -> SweepRunner {
    SweepRunner::new(&paper_config())
}

/// Prints a report's rendered table and, when [`REPORT_DIR_ENV`] is set,
/// also writes `<id>.json` and `<id>.csv` into that directory — the same
/// files `wishbranch-repro --report-dir` produces. Cargo starts bench
/// binaries in the package directory (`crates/bench`), so a relative path
/// resolves there; pass an absolute one to write elsewhere.
pub fn emit_report(report: &Report) {
    println!("\n{}", report.render());
    if let Ok(dir) = std::env::var(REPORT_DIR_ENV) {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        for (ext, data) in [("json", report.to_json()), ("csv", report.to_csv())] {
            let path = dir.join(format!("{}.{ext}", report.id));
            std::fs::write(&path, data + "\n")
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
    }
}

/// Prints the runner's cumulative sweep summary (job count, cache hits,
/// parallel speedup) below a figure's table, plus the failure table when
/// any job failed (failed cells render as explicit gaps in the figure).
pub fn print_sweep_summary(runner: &SweepRunner) {
    println!("\n{}", sweep_summary_table(&runner.summary()));
    let failures = runner.failures();
    if !failures.is_empty() {
        println!("\n{}", failure_table(&failures));
    }
}

/// Registers the simulator kernel measurement: one small wish-branch
/// simulation (twolf kernel, 300 iterations), so `cargo bench` tracks
/// simulator performance regressions.
pub fn register_kernel(c: &mut Criterion, group: &str) {
    let ec = ExperimentConfig::paper(300);
    let bench = twolf(300);
    let bin = compile_variant(&bench, BinaryVariant::WishJumpJoinLoop, &ec)
        .expect("kernel compile");
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("sim_twolf300_wish_jjl", |b| {
        b.iter(|| {
            simulate(&bin.program, &bench, InputSet::B, &ec.machine)
                .expect("kernel simulation")
                .stats
                .cycles
        })
    });
    g.finish();
}
