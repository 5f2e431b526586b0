//! The `served-store` workload: one client in a closed loop against an
//! in-process `Server` with an `ArtifactStore` and two worker-process
//! slots. Each seeded `--quick` request is sent twice: cold (the store
//! misses, workers profile, compile, simulate and write journal and store
//! entries) and then warm (the same request, served from store hits).
//!
//! Every request is sent to a server bound on a fresh store, so its cold
//! leg misses however often it recurs. A pass sends the whole sequence;
//! passes repeat until the run's seconds are spent.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use wishbranch_core::journal::decode_entry;
use wishbranch_core::{
    client_stream, ArtifactStore, Experiment, FaultPlan, ResponseLine, ServeConfig, Server,
    SweepJob, SweepRequest, SweepSummary,
};
use wishbranch_uarch::SimStats;
use wishbranch_workloads::suite;

use crate::layers::{self, Reexec};
use crate::trace::Tracer;
use crate::util::{median, ratio, Rng};
use crate::RunResult;

/// The requests the sequence is drawn from: the repository's own quick
/// served requests. `fig10 --quick --scale 60` is the request the CI
/// serve gate sends to a server (and repeats to check it is served from
/// the store); `fig12 --quick --scale 60` is its companion in the CI
/// smoke run. Both are one shard of the Fig. 10/12 grid (45 and 54 jobs).
const KINDS: [(Experiment, i32); 2] = [(Experiment::Fig10, 60), (Experiment::Fig12, 60)];
/// Requests in the seeded sequence, each kind equally often; each is
/// sent cold and then warm.
const REQUESTS: usize = 8;
/// Worker-process slots of the server (the host has two cores).
const MAX_PROCS: usize = 2;

/// The seeded request sequence: the kinds in a drawn order.
pub fn draw(seed: u64) -> Vec<SweepRequest> {
    let mut rng = Rng::new(seed);
    let mut kinds: Vec<usize> = (0..REQUESTS).map(|i| i % KINDS.len()).collect();
    rng.shuffle(&mut kinds);
    kinds
        .into_iter()
        .map(|k| {
            let (experiment, scale) = KINDS[k];
            let mut req = SweepRequest::new(vec![experiment]);
            req.tenant = "perfbench".to_string();
            req.scale = scale;
            req.quick = true;
            // Pinned so the environment cannot change the served work.
            req.workers = Some(1);
            req.batch = Some(1);
            req.fault_plan = Some(FaultPlan::new());
            req
        })
        .collect()
}

pub fn labels(reqs: &[SweepRequest]) -> Vec<String> {
    reqs.iter().map(SweepRequest::to_json).collect()
}

/// One request sent once, as the client saw it.
#[derive(Default)]
struct ReqLeg {
    accepted: Option<Duration>,
    ttfj: Option<Duration>,
    ttd: Option<Duration>,
    /// Arrival time of every job line, and the job's key and entry.
    jobs: Vec<(Duration, u64, String)>,
    job_line_bytes: usize,
    /// Report payload and arrival time, per experiment.
    reports: BTreeMap<String, (String, Duration)>,
    done_jobs: u64,
    done_failed: u64,
    store_hits: u64,
    store_misses: u64,
    problems: Vec<String>,
}

fn send(addr: &str, req: &SweepRequest, mut tracer: Option<&mut Tracer>, id: u64) -> ReqLeg {
    let mut leg = ReqLeg::default();
    let span = tracer.as_deref_mut().map(|t| t.enter("request", id));
    let start_ns = tracer.as_deref().map_or(0, Tracer::now_ns);
    let t0 = Instant::now();
    let stream = match client_stream(addr, req) {
        Ok(s) => s,
        Err(e) => {
            leg.problems.push(format!("connect: {e}"));
            if let (Some(t), Some(s)) = (tracer, span) {
                t.exit(s);
            }
            return leg;
        }
    };
    let mut last_ns = start_ns;
    for item in stream {
        let at = t0.elapsed();
        let (raw, line) = match item {
            Ok(x) => x,
            Err(e) => {
                leg.problems.push(format!("stream: {e}"));
                break;
            }
        };
        let name = match line {
            ResponseLine::Accepted { .. } => {
                leg.accepted = Some(at);
                "serve.accepted"
            }
            ResponseLine::Rejected { kind, reason } => {
                leg.problems.push(format!("rejected ({kind}): {reason}"));
                "serve.rejected"
            }
            ResponseLine::Job { key, entry, .. } => {
                leg.ttfj.get_or_insert(at);
                leg.job_line_bytes += raw.len();
                leg.jobs.push((at, key, entry));
                "serve.job"
            }
            ResponseLine::Report { experiment, report } => {
                leg.reports.insert(experiment, (report, at));
                "serve.report"
            }
            ResponseLine::Done {
                jobs,
                failed,
                store_hits,
                store_misses,
                ..
            } => {
                leg.ttd = Some(at);
                leg.done_jobs = jobs;
                leg.done_failed = failed;
                leg.store_hits = store_hits;
                leg.store_misses = store_misses;
                "serve.done"
            }
            ResponseLine::Stats { .. } | ResponseLine::Heartbeat { .. } => "serve.stats",
        };
        if let Some(t) = tracer.as_deref_mut() {
            let now = t.now_ns();
            t.record(name, id, last_ns, now);
            last_ns = now;
        }
    }
    if let (Some(t), Some(s)) = (tracer, span) {
        t.exit(s);
    }
    if leg.ttd.is_none() {
        leg.problems.push("stream ended before done".to_string());
    }
    leg
}

struct Pass {
    /// Bind time of each request's server.
    binds: Vec<Duration>,
    /// Peak resident set of the benchmark process during the pass, MiB.
    peak_rss: f64,
    legs: Vec<(ReqLeg, ReqLeg)>,
}

impl Pass {
    /// Drops the job entries and reports once checked, so the benchmark
    /// holds one pass's payloads at a time.
    fn checked(mut self) -> Pass {
        for leg in self.legs.iter_mut().flat_map(|(c, w)| [c, w]) {
            for job in &mut leg.jobs {
                job.2 = String::new();
            }
            for report in leg.reports.values_mut() {
                report.0 = String::new();
            }
        }
        self
    }
}

fn bind(dir: &Path) -> std::io::Result<(Server, Duration)> {
    let exe = std::env::current_exe()?;
    let mut cfg = ServeConfig::new(exe, dir.join("state"));
    cfg.store_dir = Some(dir.join("store"));
    cfg.max_procs = MAX_PROCS;
    crate::util::settle_disk();
    let t = Instant::now();
    let server = Server::bind("127.0.0.1:0", cfg)?;
    Ok((server, t.elapsed()))
}

/// Sends each request cold and then warm to a server of its own, bound
/// on a fresh store under `dir`.
fn pass(
    reqs: &[SweepRequest],
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<Pass> {
    crate::util::reset_peak_rss();
    let mut binds = Vec::new();
    let mut legs = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let req_dir = dir.join(format!("request-{i}"));
        let (server, bind_time) = bind(&req_dir)?;
        binds.push(bind_time);
        let addr = server.local_addr()?.to_string();
        let pair = std::thread::scope(|scope| -> std::io::Result<(ReqLeg, ReqLeg)> {
            let accept = scope.spawn(|| server.run());
            let cold = send(&addr, req, tracer.as_deref_mut(), 2 * i as u64);
            let warm = send(&addr, req, tracer.as_deref_mut(), 2 * i as u64 + 1);
            server.shutdown()?;
            accept
                .join()
                .map_err(|_| std::io::Error::other("accept loop panicked"))??;
            Ok((cold, warm))
        })?;
        legs.push(pair);
        std::fs::remove_dir_all(&req_dir)?;
    }
    Ok(Pass {
        binds,
        peak_rss: crate::util::own_peak_rss_mb(),
        legs,
    })
}

/// What the same request computes in-process: the reports of
/// `Experiment::run`, the jobs each experiment (each served shard) ran,
/// and the runner's summary.
struct Reference {
    reports: BTreeMap<String, String>,
    shards: Vec<Vec<(u64, SweepJob)>>,
    /// Distinct job keys across the request's shards.
    distinct_jobs: usize,
    summary: SweepSummary,
    /// Simulated statistics per job key, decoded from the cold leg.
    stats: HashMap<u64, SimStats>,
    uops: f64,
}

fn reference(req: &SweepRequest) -> Result<Reference, String> {
    let mut runner = req.build_runner().map_err(|e| e.to_string())?;
    let jobs: Arc<Mutex<Vec<(u64, SweepJob)>>> = Arc::default();
    let sink = Arc::clone(&jobs);
    runner.set_observer(Arc::new(move |key, result| {
        sink.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((key, result.job.clone()));
    }));
    let mut reports = BTreeMap::new();
    let mut shards = Vec::new();
    for exp in &req.experiments {
        reports.insert(exp.id().to_string(), exp.run(&runner).to_json());
        let mut shard = std::mem::take(&mut *jobs.lock().unwrap_or_else(PoisonError::into_inner));
        let mut seen = HashSet::new();
        shard.retain(|(key, _)| seen.insert(*key));
        shards.push(shard);
    }
    let distinct_jobs = shards
        .iter()
        .flatten()
        .map(|(key, _)| *key)
        .collect::<HashSet<u64>>()
        .len();
    Ok(Reference {
        reports,
        shards,
        distinct_jobs,
        summary: runner.summary(),
        stats: HashMap::new(),
        uops: 0.0,
    })
}

/// Output checks of one pass against the in-process references
/// (`refs[kind_of[i]]` for request `i`); counts each check in `res`.
fn check(pass: &Pass, refs: &mut [Reference], kind_of: &[usize], res: &mut RunResult) {
    for ((cold, warm), &k) in pass.legs.iter().zip(kind_of) {
        let r = &mut refs[k];
        if r.stats.is_empty() {
            // The simulated statistics of the request's distinct jobs,
            // decoded from the cold leg's job lines.
            for (_, key, entry) in &cold.jobs {
                match decode_entry(entry) {
                    Some((k, o)) if k == *key => {
                        r.stats.insert(k, o.sim.stats);
                    }
                    _ => res.fail(format!("job line {key} does not decode")),
                }
            }
            r.uops = r.stats.values().map(|s| s.retired_uops as f64).sum();
        }
        let cold_entries: HashMap<u64, &str> =
            cold.jobs.iter().map(|(_, k, e)| (*k, e.as_str())).collect();
        for leg in [cold, warm] {
            res.attempted += 1 + leg.done_jobs;
            res.failed += leg.done_failed;
            for p in &leg.problems {
                res.fail(p.clone());
            }
            // Jobs shared by both shards of a request stream once.
            if leg.jobs.len() != r.distinct_jobs {
                res.fail(format!(
                    "{} distinct job lines, {} distinct jobs in-process",
                    leg.jobs.len(),
                    r.distinct_jobs
                ));
            }
            for (exp, want) in &r.reports {
                res.attempted += 1;
                match leg.reports.get(exp) {
                    Some((got, _)) if got == want => {}
                    _ => res.fail(format!("served {exp} report differs from Experiment::run")),
                }
            }
        }
        // The cold leg must really miss and the warm leg must be served
        // entirely from the store, or the two legs measure the wrong work.
        res.attempted += 2;
        if cold.store_hits != 0 {
            res.fail(format!("cold leg had {} store hits", cold.store_hits));
        }
        if warm.store_misses != 0 || warm.store_hits != warm.done_jobs {
            res.fail(format!(
                "warm leg: {} store hits, {} misses for {} jobs",
                warm.store_hits, warm.store_misses, warm.done_jobs
            ));
        }
        for (_, key, entry) in &warm.jobs {
            if cold_entries.get(key) != Some(&entry.as_str()) {
                res.fail(format!("warm job {key} differs from its cold entry"));
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn leg_time(leg: &ReqLeg) -> Duration {
    leg.ttd.unwrap_or_default()
}

pub fn run(
    reqs: &[SweepRequest],
    seconds: f64,
    traced: bool,
    work: &Path,
    spans_path: &Path,
) -> RunResult {
    let mut res = RunResult::default();
    // The distinct requests of the sequence, and each request's index
    // among them: references and decoded statistics are kept per kind.
    let mut kinds: Vec<&SweepRequest> = Vec::new();
    let kind_of: Vec<usize> = reqs
        .iter()
        .map(|req| {
            kinds.iter().position(|k| *k == req).unwrap_or_else(|| {
                kinds.push(req);
                kinds.len() - 1
            })
        })
        .collect();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut refs: Vec<Reference> = Vec::new();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < budget {
        let dir = work.join(format!("pass-{}", passes.len()));
        let p = match pass(reqs, &dir, None) {
            Ok(p) => p,
            Err(e) => {
                res.fail(format!("pass: {e}"));
                break;
            }
        };
        if refs.is_empty() {
            for req in &kinds {
                match reference(req) {
                    Ok(r) => refs.push(r),
                    Err(e) => {
                        res.fail(format!("in-process reference: {e}"));
                        return res;
                    }
                }
            }
        }
        check(&p, &mut refs, &kind_of, &mut res);
        passes.push(p.checked());
    }
    if passes.is_empty() {
        return res;
    }
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.binds.iter().map(Duration::as_secs_f64))
        .collect();
    let store_hits: u64 = passes[0]
        .legs
        .iter()
        .map(|(c, w)| c.store_hits + w.store_hits)
        .sum();
    let store_misses: u64 = passes[0]
        .legs
        .iter()
        .map(|(c, w)| c.store_misses + w.store_misses)
        .sum();
    let warm_hits: u64 = passes[0].legs.iter().map(|(_, w)| w.store_hits).sum();
    let warm_jobs: u64 = passes[0].legs.iter().map(|(_, w)| w.done_jobs).sum();
    println!(
        "untraced passes: {} ({} requests x cold+warm); warm legs served {warm_hits}/{warm_jobs} jobs from the store",
        passes.len(),
        reqs.len()
    );
    let wall = |p: &Pass| -> f64 {
        p.legs
            .iter()
            .map(|(c, w)| (leg_time(c) + leg_time(w)).as_secs_f64())
            .sum()
    };
    let legs = |cold: bool, f: &dyn Fn(&ReqLeg) -> Option<Duration>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| p.legs.iter())
            .filter_map(|(c, w)| f(if cold { c } else { w }).map(ms))
            .collect()
    };
    let request_uops: f64 = kind_of.iter().map(|&k| 2.0 * refs[k].uops).sum();
    let m = &mut res.metrics;
    if !traced {
        m.set("setup_s", median(&setups), "s");
        let own_rss: Vec<f64> = passes.iter().map(|p| p.peak_rss).collect();
        m.set(
            "peak_rss_mb",
            median(&own_rss).max(crate::util::children_peak_rss_mb()),
            "MB",
        );
        m.set(
            "wall_s",
            median(&passes.iter().map(wall).collect::<Vec<_>>()),
            "s",
        );
        m.set(
            "uops_per_s",
            median(
                &passes
                    .iter()
                    .map(|p| request_uops / wall(p))
                    .collect::<Vec<_>>(),
            ),
            "uop/s",
        );
        crate::latency_metrics(m, "ttfj_cold", &legs(true, &|l| l.ttfj));
        crate::latency_metrics(m, "ttd_cold", &legs(true, &|l| l.ttd));
        crate::latency_metrics(m, "ttfj_warm", &legs(false, &|l| l.ttfj));
        crate::latency_metrics(m, "ttd_warm", &legs(false, &|l| l.ttd));
        return res;
    }

    // Serve-layer numbers, from every untraced leg.
    let all_legs: Vec<&ReqLeg> = passes
        .iter()
        .flat_map(|p| p.legs.iter().flat_map(|(c, w)| [c, w]))
        .collect();
    m.set(
        "serve.accepted_ms",
        median(
            &all_legs
                .iter()
                .filter_map(|l| l.accepted.map(ms))
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let gaps: Vec<f64> = all_legs
        .iter()
        .flat_map(|l| l.jobs.windows(2).map(|w| ms(w[1].0 - w[0].0)))
        .collect();
    m.set("serve.job_gap_p50_ms", median(&gaps), "ms");
    let lines: usize = all_legs.iter().map(|l| l.jobs.len()).sum();
    let bytes: usize = all_legs.iter().map(|l| l.job_line_bytes).sum();
    m.set(
        "serve.bytes_per_job",
        ratio(bytes as f64, lines as f64),
        "bytes",
    );
    // A shard ends when its report line arrives; the slowest one sets
    // the cold request's time to done.
    let slowest: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.legs.iter())
        .filter_map(|(c, _)| c.reports.values().map(|(_, at)| ms(*at)).reduce(f64::max))
        .collect();
    m.set("serve.slowest_shard_ms", median(&slowest), "ms");
    m.set(
        "store.hit_ratio",
        ratio(store_hits as f64, (store_hits + store_misses) as f64),
        "ratio",
    );
    let sum =
        |f: &dyn Fn(&SweepSummary) -> u64| refs.iter().map(|r| f(&r.summary)).sum::<u64>() as f64;
    m.set(
        "engine.profile_hit_ratio",
        ratio(
            sum(&|s| s.profile_hits),
            sum(&|s| s.profile_hits + s.profile_misses),
        ),
        "ratio",
    );
    m.set(
        "engine.compile_hit_ratio",
        ratio(
            sum(&|s| s.compile_hits),
            sum(&|s| s.compile_hits + s.compile_misses),
        ),
        "ratio",
    );
    m.set(
        "engine.overhead_ms",
        refs.iter()
            .map(|r| {
                let s = &r.summary;
                let phases = s.profile_time + s.compile_time + s.simulate_time + s.verify_time;
                ms(s.wall_time.saturating_sub(phases))
            })
            .sum(),
        "ms",
    );
    let stats: Vec<&SimStats> = refs.iter().flat_map(|r| r.stats.values()).collect();
    layers::sim_metrics(&stats, m);

    // The traced pass: the same requests, with a span per response line.
    let mut t = Tracer::new();
    let client_root = t.enter("client", 0);
    let traced_pass = pass(reqs, &work.join("pass-traced"), Some(&mut t));
    t.exit(client_root);
    match traced_pass {
        Ok(p) => {
            check(&p, &mut refs, &kind_of, &mut res);
            let untraced = median(&passes.iter().map(wall).collect::<Vec<_>>());
            res.metrics
                .set("trace.overhead_ratio", ratio(wall(&p), untraced), "ratio");
        }
        Err(e) => res.fail(format!("traced pass: {e}")),
    }

    // In-process re-execution of the jobs of every distinct request,
    // layer by layer, with a store the outcomes are put into and read back from. Each
    // shard starts with empty profile and compile caches, as each served
    // shard's worker process does.
    let scale = reqs[0].experiment_config().scale;
    let suite_span = t.enter("workloads.suite_build", 0);
    let benches = suite(scale);
    t.exit(suite_span);
    res.metrics.set(
        "workloads.suite_build_ms",
        t.duration_ns(suite_span) as f64 / 1e6,
        "ms",
    );
    let store_dir: PathBuf = work.join("reexec-store");
    let mut rx = Reexec::new(&benches);
    match ArtifactStore::open(&store_dir) {
        Ok(s) => rx.store = Some(s),
        Err(e) => res.fail(format!("opening store: {e}")),
    }
    let root = t.enter("round", 0);
    for (i, r) in refs.iter().enumerate() {
        let req_span = t.enter("request", i as u64);
        for shard in &r.shards {
            rx.forget_binaries();
            for (key, job) in shard {
                res.attempted += 1;
                let out = rx.run_scalar(&mut t, job, *key, *key);
                let matches = out
                    .as_ref()
                    .is_some_and(|o| r.stats.get(key) == Some(&o.sim.stats));
                if !matches {
                    res.fail(format!("traced job {key} differs from the served outcome"));
                }
            }
        }
        t.exit(req_span);
    }
    t.exit(root);
    layers::layer_metrics(&t, root, &rx, &mut res.metrics);
    let samples: Vec<&SweepJob> = refs[0].shards[0].iter().take(2).map(|(_, j)| j).collect();
    layers::component_replay(&mut t, &mut rx, &samples, &benches, &mut res.metrics);
    for e in &rx.errors {
        res.fail(e.clone());
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    if let Err(e) = t.write_jsonl(spans_path) {
        res.note(format!("cannot write spans: {e}"));
    }
    res
}
