//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <grid-scalar|sweep-batch8|served-store> \
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it re-executes the same seeded work layer by layer
//! inside spans and reports the per-layer ledger. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. The command fails (exit 1) when any output check
//! fails. See `README.md` for the workloads and the metric map.
//!
//! The binary doubles as the server's worker process: `--worker` runs
//! one shard from a spec on stdin, exactly like `wishbranch-repro
//! --worker`.

mod layers;
mod served;
mod sweep;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use util::{fnv, median, ratio, tail, Metrics};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 3] = ["grid-scalar", "sweep-batch8", "served-store"];

/// Every per-layer metric, reported by every traced workload. A layer a
/// workload does not exercise reads 0 there (e.g. `serve.*` on the sweeps).
const PER_LAYER: [(&str, &str); 61] = [
    ("workloads.suite_build_ms", "ms"),
    ("ir.profile_ms", "ms"),
    ("ir.profiles", "count"),
    ("compiler.compile_ms", "ms"),
    ("compiler.compiles", "count"),
    ("engine.profile_hit_ratio", "ratio"),
    ("engine.compile_hit_ratio", "ratio"),
    ("engine.overhead_ms", "ms"),
    ("uarch.sim_ms", "ms"),
    ("uarch.uops_per_s", "uop/s"),
    ("uarch.lane1_uops_per_s", "uop/s"),
    ("uarch.host_ns_per_cycle", "ns"),
    ("uarch.fetched_per_retired", "ratio"),
    ("batch.sim_ms", "ms"),
    ("batch.uops_per_s", "uop/s"),
    ("batch.batched_ratio", "ratio"),
    ("batch.mean_width", "lanes"),
    ("bpred.predict_update_ns", "ns"),
    ("bpred.jrs_ns", "ns"),
    ("bpred.mispredicts_per_kuop", "1/kuop"),
    ("bpred.flushes", "count"),
    ("bpred.flushes_avoided", "count"),
    ("bpred.low_conf_ratio", "ratio"),
    ("mem.cache_access_ns", "ns"),
    ("mem.icache_miss_ratio", "ratio"),
    ("mem.l1d_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.mshr_full_stalls", "count"),
    ("mem.writebuf_full_stalls", "count"),
    ("mem.port_conflict_stalls", "count"),
    ("mem.wrong_path_fills", "count"),
    ("isa.verify_ms", "ms"),
    ("isa.verify_share", "ratio"),
    ("journal.encode_us", "us"),
    ("journal.decode_us", "us"),
    ("journal.entry_bytes", "bytes"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("serve.accepted_ms", "ms"),
    ("serve.job_gap_p50_ms", "ms"),
    ("serve.bytes_per_job", "bytes"),
    ("serve.slowest_shard_ms", "ms"),
    ("sim.cycles", "cycles"),
    ("sim.retired_uops", "uops"),
    ("sim.upc", "uop/cycle"),
    ("sim.acct.useful_retire", "ratio"),
    ("sim.acct.guard_false_retire", "ratio"),
    ("sim.acct.select_uop_retire", "ratio"),
    ("sim.acct.exec_wait", "ratio"),
    ("sim.acct.rob_stall", "ratio"),
    ("sim.acct.flush_recovery", "ratio"),
    ("sim.acct.fetch_imiss", "ratio"),
    ("sim.acct.fetch_redirect", "ratio"),
    ("sim.acct.frontend_fill", "ratio"),
    ("sim.acct.mshr_full", "ratio"),
    ("sim.acct.miss_pending", "ratio"),
    ("sim.acct.imiss_pending", "ratio"),
    ("sim.acct.writebuf_full", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl RunResult {
    /// Counts one failed operation or output check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }

    pub fn note(&mut self, msg: String) {
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }
}

/// The median and tail of a latency sample, as `<name>_p50_ms` and
/// `<name>_tail_ms`; prints which percentile the tail is.
pub fn latency_metrics(m: &mut Metrics, name: &str, samples_ms: &[f64]) {
    let (pct, value) = tail(samples_ms);
    println!(
        "{name}: p50 {:.3} ms, tail = p{pct:.1} {value:.3} ms over {} samples",
        median(samples_ms),
        samples_ms.len()
    );
    m.set(format!("{name}_p50_ms"), median(samples_ms), "ms");
    m.set(format!("{name}_tail_ms"), value, "ms");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        return ExitCode::from(u8::try_from(wishbranch_core::worker_main()).unwrap_or(1));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Everything the run writes stays under the working directory.
    let work = PathBuf::from(".bench_work");
    let run_dir = work.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let spans = work.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));

    let (labels, mut res) = match args.workload.as_str() {
        "served-store" => {
            let reqs = served::draw(args.seed);
            (
                served::labels(&reqs),
                served::run(&reqs, args.seconds, args.trace, &run_dir, &spans),
            )
        }
        name => {
            let sweep = if name == "grid-scalar" {
                sweep::grid_scalar(args.seed)
            } else {
                sweep::sweep_batch8(args.seed)
            };
            let res = sweep::run(&sweep, args.seconds, args.trace, &spans);
            (sweep.labels, res)
        }
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    println!(
        "workload {} seed {}: {} drawn items, job-list fingerprint {:016x}",
        args.workload,
        args.seed,
        labels.len(),
        fnv(&labels.join("\n"))
    );

    let failed_ratio = ratio(res.failed as f64, res.attempted as f64);
    if args.trace {
        res.metrics.set("failed_ratio", failed_ratio, "ratio");
        for (name, unit) in PER_LAYER {
            if res.metrics.get(name).is_none() {
                res.metrics.set(name, 0.0, unit);
            }
        }
        println!("spans written to {}", spans.display());
    }
    res.metrics.print_table();
    println!(
        "attempted {}, failed {} (failed_ratio {failed_ratio})",
        res.attempted, res.failed
    );
    for note in &res.notes {
        eprintln!("perfbench: {note}");
    }
    let correct = res.failed == 0 && res.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        res.attempted.max(1),
        res.failed,
        res.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
