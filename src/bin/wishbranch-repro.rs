//! `wishbranch-repro` — regenerate any table or figure of the paper from
//! the command line, locally or against a sweep server.
//!
//! ```text
//! USAGE: wishbranch-repro [--scale N] [--workers N] [--batch N] [--json]
//!                         [--quick] [--report-dir DIR] [--resume] [--strict]
//!                         [--oracle] [--fault-plan SPEC] [--tenant T]
//!                         [--train A|B|C] [--budget-cycles N]
//!                         [--budget-wall-ms N] <experiment>...
//!        wishbranch-repro serve [--addr HOST:PORT] [--state-dir DIR] [--store DIR]
//!                               [--max-procs N] [--max-respawns N]
//!                               [--tenant-budget TENANT=CYCLES]...
//!        wishbranch-repro client --addr HOST:PORT [sweep flags] <experiment>...
//!        wishbranch-repro validate [--scale N] [--quick] [--input A|B|C] [--hierarchy]
//!                                  [--fuzz N] [--seed S] [--repro-out FILE]
//!        wishbranch-repro trace <bench> <variant> [--cycles A..B] [--scale N]
//!        wishbranch-repro --list
//! ```
//!
//! Every invocation first builds a typed `wishbranch.request/v1`
//! [`SweepRequest`] — the same validation, env-precedence and
//! runner-construction path whether the sweep runs in-process (default),
//! is submitted to a server (`client`), or arrives over a socket
//! (`serve`). Worker count resolves explicit `--workers` →
//! `WISHBRANCH_WORKERS` → available parallelism; the fault plan resolves
//! explicit `--fault-plan` → `WISHBRANCH_FAULT_PLAN` → none; the batch
//! width resolves explicit `--batch` → `WISHBRANCH_BATCH` → 1 (batching
//! off). A job in a batched group is bit-identical to the same job run
//! ungrouped — the knob only changes the order a worker takes jobs in.
//!
//! Output modes:
//!
//! * default — fixed-width text tables plus a cumulative sweep summary;
//! * `--json` — one `wishbranch.report/v1` JSON object per experiment on
//!   stdout (one per line);
//! * `--report-dir DIR` — write `DIR/<id>.json` and `DIR/<id>.csv` per
//!   experiment plus `DIR/summary.json` (engine + phase timing + failure
//!   table) and an incremental job journal `DIR/journal.jsonl`, while
//!   still printing the chosen stdout format.
//!
//! Failure handling: a job that panics, diverges, or blows its cycle
//! budget becomes an explicit gap in the affected figure, listed in the
//! failure table — it never takes the sweep down. `--resume` (requires
//! `--report-dir`) replays completed jobs from `DIR/journal.jsonl`
//! bit-identically instead of re-simulating them. `--strict` turns any
//! failed job into exit code 3. `--fault-plan SPEC` (or the
//! `WISHBRANCH_FAULT_PLAN` environment variable) injects deterministic
//! faults for testing, e.g. `panic@3,diverge@7,budget@2,abort@10` — job
//! indices are global submission order.
//!
//! Serving: `serve` runs the multi-tenant sweep server (see
//! `wishbranch_core::serve`) — requests stream back as
//! `wishbranch.response/v1` JSONL, shards run in worker processes
//! (respawned from the journal if killed), finished outcomes land in the
//! shared content-addressed artifact store (`--store`), and tenants named
//! by `--tenant-budget` are admitted until their simulated-cycle budget
//! is spent. `client` submits one request and prints the stream;
//! `--report-dir` additionally writes each streamed report payload.
//! (`--worker` is the internal per-shard entry point the server forks.)
//!
//! Differential validation: `--oracle` replays every job's retired
//! instruction stream through the lockstep in-order reference oracle —
//! a divergence is that job's typed `verify_divergence` failure (a gap,
//! like any other). The `validate` subcommand runs the whole suite ×
//! every variant under the oracle, or (`--fuzz N`) seeded random
//! programs × random machine configurations with automatic shrinking of
//! the first divergence to a minimal reproducer.
//!
//! Exit codes: 0 success, 1 fatal error (including a rejected `client`
//! request), 2 usage (including `--resume` against a journal written by a
//! different configuration or scale), 3 `--strict` with failed jobs or
//! `validate` with divergences, 4 sweep aborted.
//!
//! `trace` compiles one benchmark into one variant (labels as printed in
//! the figures: `normal BASE-DEF BASE-MAX wish-jj wish-jjl wish-adaptive`)
//! and dumps the pipeview event stream, optionally windowed to a cycle
//! range with `--cycles A..B`.

use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{
    client_stream_resilient, failure_table, fuzz_lockstep, parse_input_set,
    summary_json_with_failures, sweep_summary_table, trace_binary, validate_suite, worker_main,
    ChaosPlan, Experiment, ExperimentConfig, FaultPlan, FuzzOutcome, JobError, JournalError,
    ResponseLine, ServeConfig, Server, SweepRequest,
};
use wishbranch_uarch::render_trace;
use wishbranch_workloads::{suite, InputSet};

fn usage() -> ! {
    let ids: Vec<&str> = Experiment::ALL.iter().map(|e| e.id()).collect();
    eprintln!(
        "USAGE: wishbranch-repro [--scale N] [--workers N] [--batch N] [--json] [--quick]\n\
                                 [--report-dir DIR] [--resume] [--strict] [--oracle]\n\
                                 [--fault-plan SPEC] [--tenant T] [--train A|B|C]\n\
                                 [--budget-cycles N] [--budget-wall-ms N] <experiment>...\n\
                wishbranch-repro serve [--addr HOST:PORT] [--state-dir DIR] [--store DIR]\n\
                                       [--max-procs N] [--max-respawns N]\n\
                                       [--tenant-budget TENANT=CYCLES]...\n\
                                       [--heartbeat-ms N] [--liveness-timeout-ms N]\n\
                                       [--read-timeout-ms N] [--write-timeout-ms N]\n\
                                       [--deadline-factor N] [--max-request-bytes N]\n\
                                       [--chaos-plan SPEC]\n\
                wishbranch-repro client --addr HOST:PORT [--reconnect N]\n\
                                        [sweep flags] <experiment>...\n\
                wishbranch-repro validate [--scale N] [--quick] [--input A|B|C] [--hierarchy]\n\
                                          [--fuzz N] [--seed S] [--repro-out FILE]\n\
                wishbranch-repro trace <bench> <variant> [--cycles A..B] [--scale N]\n\
                wishbranch-repro --list\n\
         experiments: {} all\n\
         exit codes: 0 ok, 1 fatal/rejected, 2 usage (incl. stale journal),\n\
                     3 strict/validate failures, 4 aborted",
        ids.join(" ")
    );
    std::process::exit(2)
}

/// Flags that stay on this side of the request boundary: how results are
/// presented and persisted locally, never part of the request itself.
#[derive(Default)]
struct LocalOpts {
    json: bool,
    strict: bool,
    resume: bool,
    report_dir: Option<std::path::PathBuf>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace") => return trace_main(&args[1..]),
        Some("validate") => return validate_main(&args[1..]),
        Some("serve") => return serve_main(&args[1..]),
        Some("client") => return client_main(&args[1..]),
        // Internal: one server shard (spec arrives on stdin).
        Some("--worker") => std::process::exit(worker_main()),
        _ => {}
    }
    let (req, opts) = parse_sweep_args(args);
    run_local(&req, &opts);
}

/// Parses the shared sweep flags into the typed request (what to run)
/// plus the local presentation options (how to show/persist it). The CLI,
/// the `client` subcommand and — via [`SweepRequest::parse`] — the server
/// all funnel through the same request validation.
fn parse_sweep_args(args: Vec<String>) -> (SweepRequest, LocalOpts) {
    let mut req = SweepRequest::new(Vec::new());
    let mut opts = LocalOpts::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                req.scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--workers" => {
                req.workers = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--batch" => {
                req.batch = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--json" => opts.json = true,
            "--quick" => req.quick = true,
            "--strict" => opts.strict = true,
            "--resume" => opts.resume = true,
            "--oracle" => req.oracle = true,
            "--report-dir" => {
                opts.report_dir = Some(it.next().unwrap_or_else(|| usage()).into());
            }
            "--fault-plan" => {
                let spec = it.next().unwrap_or_else(|| usage());
                match FaultPlan::parse(&spec) {
                    Ok(plan) => req.fault_plan = Some(plan),
                    Err(e) => fatal(&format!("bad fault plan {spec:?}: {e}")),
                }
            }
            "--tenant" => {
                req.tenant = it.next().unwrap_or_else(|| usage());
            }
            "--train" => {
                req.train = it
                    .next()
                    .and_then(|s| parse_input_set(&s))
                    .map(Some)
                    .unwrap_or_else(|| usage());
            }
            "--budget-cycles" => {
                req.budgets.cycles = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--budget-wall-ms" => {
                req.budgets.wall_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--list" => {
                let ids: Vec<&str> = Experiment::ALL.iter().map(|e| e.id()).collect();
                println!("{} all", ids.join(" "));
                std::process::exit(0);
            }
            "all" => req.experiments.extend(Experiment::ALL),
            e => match Experiment::from_id(e) {
                Some(exp) => req.experiments.push(exp),
                None => usage(),
            },
        }
    }
    if req.experiments.is_empty() {
        usage();
    }
    (req, opts)
}

/// The in-process sweep path: one shared runner built from the request,
/// experiments in order, reports + journal + summary exactly as before.
fn run_local(req: &SweepRequest, opts: &LocalOpts) {
    if opts.resume && opts.report_dir.is_none() {
        eprintln!("wishbranch-repro: --resume requires --report-dir (the journal lives there)");
        std::process::exit(2);
    }
    // One runner for every requested experiment: figures share the profile
    // and compile caches, and `all` keeps the pool busy end to end.
    let runner = req
        .build_runner()
        .unwrap_or_else(|e| fatal(&e.to_string()));

    if let Some(dir) = &opts.report_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fatal(&format!("cannot create {}: {e}", dir.display())));
        let journal = dir.join("journal.jsonl");
        match runner.attach_journal(&journal, opts.resume) {
            Ok(replayed) => {
                if opts.resume && !opts.json {
                    println!("resuming: {replayed} completed jobs loaded from journal");
                }
            }
            // A stale journal is an invocation problem (wrong flags for
            // this journal), not an internal failure: exit 2 like any
            // other usage error so scripts can distinguish it.
            Err(e @ JournalError::RunMismatch { .. }) => {
                eprintln!("wishbranch-repro: {}: {e}", journal.display());
                std::process::exit(2);
            }
            Err(e) => fatal(&format!("cannot open {}: {e}", journal.display())),
        }
    }

    for exp in &req.experiments {
        let report = exp.run(&runner);
        if let Some(dir) = &opts.report_dir {
            write_file(&dir.join(format!("{}.json", report.id)), &report.to_json());
            write_file(&dir.join(format!("{}.csv", report.id)), &report.to_csv());
        }
        if opts.json {
            println!("{}", report.to_json());
        } else {
            println!("{}", report.render());
        }
        if runner.aborted() {
            break;
        }
    }
    let summary = runner.summary();
    let failures = runner.failures();
    if let Some(dir) = &opts.report_dir {
        write_file(
            &dir.join("summary.json"),
            &summary_json_with_failures(&summary, &failures),
        );
    }
    if !opts.json {
        println!("{}", sweep_summary_table(&summary));
        if !failures.is_empty() {
            println!("\n{}", failure_table(&failures));
        }
    }
    if runner.aborted() {
        eprintln!("wishbranch-repro: sweep aborted; reports are incomplete (resume with --resume)");
        std::process::exit(4);
    }
    if opts.strict && !failures.is_empty() {
        eprintln!(
            "wishbranch-repro: --strict: {} job(s) failed",
            failures.len()
        );
        std::process::exit(3);
    }
}

/// Set by the SIGTERM handler; a watcher thread turns it into a graceful
/// server drain (stop accepting, finish in-flight shards, exit 0).
static SIGTERM_RECEIVED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    SIGTERM_RECEIVED.store(true, std::sync::atomic::Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// `wishbranch-repro serve` — run the multi-tenant sweep server until
/// killed (SIGTERM drains gracefully: in-flight shards finish and their
/// journals flush before exit). Workers are forked from this same
/// executable.
fn serve_main(args: &[String]) {
    let mut addr = "127.0.0.1:7905".to_string();
    let mut state_dir = std::path::PathBuf::from("serve-state");
    let mut store_dir: Option<std::path::PathBuf> = None;
    let mut max_procs = 4usize;
    let mut max_respawns = 2u32;
    let mut tenant_budgets = std::collections::HashMap::new();
    let mut overrides: Vec<(&str, u64)> = Vec::new();
    let mut chaos_plan = ChaosPlan::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().unwrap_or_else(|| usage()).clone(),
            "--state-dir" => state_dir = it.next().unwrap_or_else(|| usage()).into(),
            "--store" => store_dir = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--max-procs" => {
                max_procs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--max-respawns" => {
                max_respawns = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--tenant-budget" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let Some((tenant, cycles)) = spec.split_once('=') else {
                    usage();
                };
                let Ok(cycles) = cycles.parse::<u64>() else {
                    usage();
                };
                tenant_budgets.insert(tenant.to_string(), cycles);
            }
            key @ ("--heartbeat-ms" | "--liveness-timeout-ms" | "--read-timeout-ms"
            | "--write-timeout-ms" | "--deadline-factor" | "--max-request-bytes") => {
                let value = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                overrides.push((key, value));
            }
            "--chaos-plan" => {
                let spec = it.next().unwrap_or_else(|| usage());
                chaos_plan = ChaosPlan::parse(spec)
                    .unwrap_or_else(|e| fatal(&format!("--chaos-plan: {e}")));
            }
            _ => usage(),
        }
    }
    let worker_exe = std::env::current_exe()
        .unwrap_or_else(|e| fatal(&format!("cannot locate own executable: {e}")));
    let mut cfg = ServeConfig::new(worker_exe, state_dir);
    cfg.store_dir = store_dir;
    cfg.max_procs = max_procs;
    cfg.max_respawns = max_respawns;
    cfg.tenant_budgets = tenant_budgets;
    cfg.chaos_plan = chaos_plan;
    for (key, value) in overrides {
        match key {
            "--heartbeat-ms" => cfg.heartbeat_ms = value,
            "--liveness-timeout-ms" => cfg.liveness_timeout_ms = value,
            "--read-timeout-ms" => cfg.read_timeout_ms = value,
            "--write-timeout-ms" => cfg.write_timeout_ms = value,
            "--deadline-factor" => cfg.shard_deadline_factor = value,
            "--max-request-bytes" => cfg.max_request_bytes = value as usize,
            _ => unreachable!(),
        }
    }
    let server = std::sync::Arc::new(
        Server::bind(&addr, cfg).unwrap_or_else(|e| fatal(&format!("serve: {e}"))),
    );
    match server.local_addr() {
        Ok(local) => {
            use std::io::Write as _;
            println!("listening on {local}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => fatal(&format!("serve: {e}")),
    }
    install_sigterm_handler();
    {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || loop {
            if SIGTERM_RECEIVED.load(std::sync::atomic::Ordering::SeqCst) {
                let _ = server.shutdown();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        });
    }
    if let Err(e) = server.run() {
        fatal(&format!("serve: {e}"));
    }
    // run() only returns after a drain: every in-flight shard finished
    // and flushed its journal.
    eprintln!("wishbranch-repro: serve: drained, exiting");
}

/// `wishbranch-repro client --addr HOST:PORT [--reconnect N]
/// [sweep flags] <experiment>...` — submit one request and print the
/// response stream; `--report-dir` additionally writes each streamed
/// `wishbranch.report/v1` payload to `DIR/<id>.json` plus a
/// `DIR/summary.json` combining the server's `stats` and `done` lines.
/// `--reconnect N` survives up to N dropped connections by re-submitting
/// the same fingerprinted request and merging the streams (gap-free,
/// duplicate-free). A stream that ends before `done` once the budget
/// (default 0) is spent exits 1.
fn client_main(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut reconnects = 0u32;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--addr" {
            addr = Some(it.next().unwrap_or_else(|| usage()).clone());
        } else if arg == "--reconnect" {
            reconnects = it
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage());
        } else {
            rest.push(arg.clone());
        }
    }
    let Some(addr) = addr else {
        usage();
    };
    let (req, opts) = parse_sweep_args(rest);
    if let Some(dir) = &opts.report_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fatal(&format!("cannot create {}: {e}", dir.display())));
    }
    let stream = client_stream_resilient(&addr, &req, reconnects)
        .unwrap_or_else(|e| fatal(&format!("connect {addr}: {e}")));
    let mut rejected = false;
    let mut failed = 0u64;
    let mut stats_raw: Option<String> = None;
    let mut done_raw: Option<String> = None;
    for item in stream {
        let (raw, parsed) = item.unwrap_or_else(|e| fatal(&format!("stream: {e}")));
        println!("{raw}");
        match parsed {
            ResponseLine::Rejected { .. } => rejected = true,
            ResponseLine::Report { experiment, report } => {
                if let Some(dir) = &opts.report_dir {
                    write_file(&dir.join(format!("{experiment}.json")), &report);
                }
            }
            ResponseLine::Stats { .. } => stats_raw = Some(raw),
            ResponseLine::Done { failed: f, .. } => {
                failed = f;
                done_raw = Some(raw);
            }
            _ => {}
        }
    }
    if let (Some(dir), Some(done)) = (&opts.report_dir, &done_raw) {
        write_file(
            &dir.join("summary.json"),
            &format!(
                "{{\"schema\":\"wishbranch.served_summary/v1\",\"stats\":{},\"done\":{}}}",
                stats_raw.as_deref().unwrap_or("null"),
                done
            ),
        );
    }
    if rejected {
        std::process::exit(1);
    }
    if opts.strict && failed > 0 {
        eprintln!("wishbranch-repro: --strict: {failed} job(s) failed");
        std::process::exit(3);
    }
}

fn write_file(path: &std::path::Path, contents: &str) {
    let mut data = contents.to_string();
    if !data.ends_with('\n') {
        data.push('\n');
    }
    std::fs::write(path, data)
        .unwrap_or_else(|e| fatal(&format!("cannot write {}: {e}", path.display())));
}

fn fatal(msg: &str) -> ! {
    eprintln!("wishbranch-repro: {msg}");
    std::process::exit(1)
}

/// `wishbranch-repro validate [--scale N] [--quick] [--input A|B|C]
/// [--fuzz N] [--seed S] [--repro-out FILE] [--hierarchy]`
///
/// Without `--fuzz`: runs every suite benchmark through every binary
/// variant as one `--oracle` sweep on the engine's worker pool
/// (`WISHBRANCH_WORKERS` sets its size) — exit 0 when every retirement
/// matches the in-order reference, 3 on any divergence.
///
/// With `--fuzz N`: generates N seeded random programs × random machine
/// configurations, checks each in lockstep, and on the first divergence
/// shrinks it to a minimal reproducer (printed, and written to
/// `--repro-out FILE` when given) before exiting 3.
///
/// `--hierarchy` runs either mode on the non-blocking memory hierarchy.
fn validate_main(args: &[String]) {
    let mut scale = 200;
    let mut quick = false;
    let mut input = InputSet::B;
    let mut fuzz: Option<usize> = None;
    let mut seed: u64 = 0x5EED;
    let mut repro_out: Option<std::path::PathBuf> = None;
    let mut hierarchy = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--quick" => quick = true,
            "--input" => {
                input = it
                    .next()
                    .and_then(|s| parse_input_set(s))
                    .unwrap_or_else(|| usage());
            }
            "--fuzz" => {
                fuzz = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| parse_seed(s))
                    .unwrap_or_else(|| usage());
            }
            "--repro-out" => {
                repro_out = Some(it.next().unwrap_or_else(|| usage()).into());
            }
            "--hierarchy" => hierarchy = true,
            _ => usage(),
        }
    }

    if let Some(count) = fuzz {
        let report = fuzz_lockstep(seed, count, hierarchy);
        println!(
            "fuzz: seed {seed:#x}{}, {} cases checked, {} skipped (compile-out or cycle budget)",
            if hierarchy { ", non-blocking hierarchy" } else { "" },
            report.cases,
            report.skipped
        );
        match report.outcome {
            FuzzOutcome::Clean => println!("fuzz: clean — no divergence"),
            FuzzOutcome::Diverged {
                case,
                minimized,
                detail,
            } => {
                eprintln!("fuzz: DIVERGENCE: {detail}");
                eprintln!("fuzz: minimized repro ({} instructions):", minimized.insn_count());
                eprintln!("{}", minimized.describe());
                if let Some(path) = &repro_out {
                    let body = format!(
                        "# wishbranch lockstep divergence (seed {seed:#x})\n# {detail}\n\n\
                         ## minimized ({} instructions)\n{}\n## original case\n{}",
                        minimized.insn_count(),
                        minimized.describe(),
                        case.describe()
                    );
                    write_file(path, &body);
                    eprintln!("fuzz: repro written to {}", path.display());
                }
                std::process::exit(3);
            }
        }
    } else {
        let ec = if quick {
            ExperimentConfig::quick(scale.min(500))
        } else {
            ExperimentConfig::paper(scale)
        };
        let report = validate_suite(&ec, input, hierarchy);
        for (label, error) in &report.failures {
            // A divergence prints its detail alone: it already names the
            // job, the input and the failing retirement or address.
            let detail = match error {
                JobError::VerifyDivergence { detail } => detail.clone(),
                other => other.to_string(),
            };
            eprintln!("validate: FAIL {label}: {detail}");
        }
        println!(
            "validate: {} jobs (suite x every variant, input {input}{}), {} divergent",
            report.jobs,
            if hierarchy { ", non-blocking hierarchy" } else { "" },
            report.failures.len()
        );
        if !report.passed() {
            std::process::exit(3);
        }
    }
}

/// Parses a fuzz seed: decimal, or hex with an `0x` prefix.
fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// `wishbranch-repro trace <bench> <variant> [--cycles A..B] [--scale N]`
fn trace_main(args: &[String]) {
    let mut scale = 200; // traces get long; default far below figure scale
    let mut cycles: Option<(u64, u64)> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--cycles" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (a, b) = spec.split_once("..").unwrap_or_else(|| usage());
                let lo = a.parse().ok().unwrap_or_else(|| usage());
                let hi = b.parse().ok().unwrap_or_else(|| usage());
                cycles = Some((lo, hi));
            }
            _ => positional.push(arg),
        }
    }
    let [bench_name, variant_name] = positional[..] else {
        usage();
    };
    let benches = suite(scale);
    let bench = benches
        .iter()
        .find(|b| b.name == bench_name.as_str())
        .unwrap_or_else(|| {
            let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
            fatal(&format!(
                "unknown benchmark {bench_name:?}; have: {}",
                names.join(" ")
            ))
        });
    let variant = BinaryVariant::ALL_WITH_EXTENSIONS
        .into_iter()
        .find(|v| v.label().eq_ignore_ascii_case(variant_name))
        .unwrap_or_else(|| {
            let labels: Vec<&str> = BinaryVariant::ALL_WITH_EXTENSIONS
                .iter()
                .map(|v| v.label())
                .collect();
            fatal(&format!(
                "unknown variant {variant_name:?}; have: {}",
                labels.join(" ")
            ))
        });
    let ec = ExperimentConfig::paper(scale);
    let (result, trace) = trace_binary(bench, variant, InputSet::B, &ec)
        .unwrap_or_else(|e| fatal(&format!("trace failed: {e}")));
    let events: Vec<_> = match cycles {
        Some((lo, hi)) => trace
            .into_iter()
            .filter(|e| e.cycle >= lo && e.cycle < hi)
            .collect(),
        None => trace,
    };
    print!("{}", render_trace(&events));
    eprintln!(
        "# {} {} scale={scale}: {} events, {} cycles, {} retired µops",
        bench.name,
        variant.label(),
        events.len(),
        result.stats.cycles,
        result.stats.retired_uops
    );
}
