//! The `perf-smoke` throughput gate: runs the Fig. 10 sweep at a fixed
//! scale on one worker twice — once at batch width 1 (every job its own
//! scheduling unit), once at width 8 (jobs that share a binary grouped
//! into units one worker runs back to back) — writes
//! `BENCH_sim_throughput.json` (`wishbranch.throughput/v1` for the
//! width-1 run plus the flat `batch_uops_per_sec` / `batch_width` /
//! `batch_speedup` dimension from the width-8 run), and fails if either
//! run's simulator throughput regressed more than [`MAX_REGRESSION`]
//! against the committed baseline (`crates/bench/perf_baseline.json`).
//!
//! Both runs simulate every job alone on one lane of the same engine;
//! width 8 only changes the order a worker takes jobs in, so
//! `batch_speedup` is expected to stay near 1.0.
//!
//! Environment:
//! - `WISHBRANCH_THROUGHPUT_OUT` — where to write the artifact
//!   (default `BENCH_sim_throughput.json` in the working directory);
//! - `WISHBRANCH_PERF_WRITE_BASELINE=1` — overwrite the committed
//!   baseline with this run's numbers instead of gating (run on the
//!   reference machine after an intentional perf change).

use wishbranch_core::{throughput_json, Experiment, ExperimentConfig, SweepRunner};

/// Fixed workload scale: big enough that simulate-phase time dominates
/// process noise, small enough for a smoke job.
const SCALE: i32 = 1000;

/// Batch width for the batched measurement (jobs per same-binary group).
const BATCH: usize = 8;

/// Allowed throughput loss vs the committed baseline (the ISSUE's 25%).
const MAX_REGRESSION: f64 = 0.25;

/// The committed baseline, resolved relative to this crate so the gate
/// works from any working directory.
fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("perf_baseline.json")
}

/// Extracts a numeric field from one of our flat JSON documents. The
/// writer is ours ([`throughput_json`]), so a string scan is exact.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = &doc[at..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Runs the Fig. 10 sweep on a fresh single-worker runner with the given
/// batch width and returns its summary. A fresh runner per measurement
/// keeps the two passes independent: no journal or compile-cache warmth
/// leaks from one into the other beyond what both equally enjoy.
fn measure(ec: &ExperimentConfig, batch: usize) -> wishbranch_core::SweepSummary {
    let mut runner = SweepRunner::with_workers(ec, 1);
    runner.set_batch(batch);
    let report = Experiment::Fig10.run(&runner);
    if batch <= 1 {
        println!("{}", report.render());
    }
    let failures = runner.failures();
    assert!(failures.is_empty(), "perf-smoke jobs failed: {failures:?}");
    runner.summary()
}

fn main() {
    let ec = ExperimentConfig::paper(SCALE);
    let single = measure(&ec, 1);
    let batched = measure(&ec, BATCH);
    assert!(
        batched.batched_jobs > 0,
        "batched pass planned no batches: {batched:?}"
    );

    let s_uops = single.uops_per_sec();
    let b_uops = batched.uops_per_sec();
    let speedup = b_uops / s_uops;
    let base = throughput_json(&single);
    let doc = format!(
        "{},\"batch_uops_per_sec\":{:.6},\"batch_width\":{},\"batch_speedup\":{:.6}}}",
        base.strip_suffix('}').expect("throughput_json is an object"),
        b_uops,
        BATCH,
        speedup,
    );

    let out = std::env::var("WISHBRANCH_THROUGHPUT_OUT")
        .unwrap_or_else(|_| "BENCH_sim_throughput.json".into());
    std::fs::write(&out, format!("{doc}\n")).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "perf-smoke: {} jobs, one lane {:.0} uops/s (simulate {:.2}s) | \
         batch={BATCH} {:.0} uops/s (simulate {:.2}s, {} jobs batched) | \
         speedup {speedup:.2}x -> {out}",
        single.jobs,
        s_uops,
        single.simulate_time.as_secs_f64(),
        b_uops,
        batched.simulate_time.as_secs_f64(),
        batched.batched_jobs,
    );

    let baseline = baseline_path();
    if std::env::var("WISHBRANCH_PERF_WRITE_BASELINE").as_deref() == Ok("1") {
        std::fs::write(&baseline, format!("{doc}\n"))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", baseline.display()));
        println!("perf-smoke: baseline rewritten at {}", baseline.display());
        return;
    }
    let base_doc = std::fs::read_to_string(&baseline)
        .unwrap_or_else(|e| panic!("no committed baseline at {}: {e}", baseline.display()));

    let mut pass = true;
    let mut gate = |label: &str, measured: f64, base_key: &str| {
        let Some(base_rate) = json_number(&base_doc, base_key) else {
            println!("perf-smoke: baseline has no {base_key}; skipping the {label} gate");
            return;
        };
        let floor = base_rate * (1.0 - MAX_REGRESSION);
        println!(
            "perf-smoke: {label} baseline {base_rate:.0} uops/s, floor {floor:.0}, \
             measured {measured:.0}"
        );
        if measured < floor {
            pass = false;
            eprintln!(
                "perf-smoke: {label} throughput regressed >{:.0}%: {measured:.0} uops/s vs \
                 baseline {base_rate:.0} (floor {floor:.0})",
                MAX_REGRESSION * 100.0
            );
        }
    };
    gate("one-lane", s_uops, "uops_per_sec");
    gate("batched", b_uops, "batch_uops_per_sec");
    assert!(pass, "perf-smoke throughput gate failed");
    println!("perf-smoke: PASS");
}
