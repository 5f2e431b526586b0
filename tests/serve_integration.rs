//! End-to-end contract of the sweep server (`wishbranch.response/v1`):
//! served results are bit-identical to the in-process engine, a second
//! tenant's identical request is served entirely from the artifact store,
//! a worker killed mid-shard resumes gap-free, and tenant cycle budgets
//! reject at admission. One `#[test]` on purpose: the scenarios share one
//! server (and its warm store), and their order is the point — the store
//! must be cold for the first client and warm for the second.

use std::collections::HashSet;
use std::sync::Arc;

use wishbranch_core::{
    client_stream, Experiment, FaultPlan, ResponseLine, ServeConfig, Server, SweepRequest,
    SweepSummary,
};

fn base_request(tenant: &str) -> SweepRequest {
    let mut req = SweepRequest::new(vec![Experiment::Fig10]);
    req.tenant = tenant.into();
    req.quick = true;
    req.scale = 60;
    req.workers = Some(2);
    req
}

/// The in-process reference: the same request on one runner built from
/// it, as the CLI runs it — `(experiment, report JSON)` in request order,
/// and the runner's summary.
fn local_run(req: &SweepRequest) -> (Vec<(String, String)>, SweepSummary) {
    let runner = req.build_runner().expect("local runner");
    let reports = req
        .experiments
        .iter()
        .map(|exp| (exp.id().to_string(), exp.run(&runner).to_json()))
        .collect();
    (reports, runner.summary())
}

/// Drains one served request into (lines, report payloads by experiment).
struct Outcome {
    accepted: bool,
    rejected: Option<(String, String)>,
    job_keys: Vec<u64>,
    reports: Vec<(String, String)>,
    /// `(respawns, hung_killed, deadline_kills, rejected_requests)` from
    /// the server's `stats` line.
    stats: Option<(u64, u64, u64, u64)>,
    done: Option<(u64, u64, u64, u64, u64, u64, u64)>,
    /// The raw `failures` array contents of the `done` line.
    failures: String,
}

fn drive(addr: &str, req: &SweepRequest) -> Outcome {
    let mut out = Outcome {
        accepted: false,
        rejected: None,
        job_keys: Vec::new(),
        reports: Vec::new(),
        stats: None,
        done: None,
        failures: String::new(),
    };
    for item in client_stream(addr, req).expect("connect") {
        let (_raw, line) = item.expect("stream");
        match line {
            ResponseLine::Accepted { .. } => out.accepted = true,
            ResponseLine::Rejected { kind, reason } => out.rejected = Some((kind, reason)),
            ResponseLine::Job { key, .. } => out.job_keys.push(key),
            ResponseLine::Report { experiment, report } => out.reports.push((experiment, report)),
            ResponseLine::Heartbeat { .. } => {
                panic!("heartbeats are server-internal, never streamed to clients")
            }
            ResponseLine::Stats {
                respawns,
                hung_killed,
                deadline_kills,
                rejected_requests,
            } => {
                out.stats = Some((respawns, hung_killed, deadline_kills, rejected_requests));
            }
            ResponseLine::Done {
                jobs,
                failed,
                store_hits,
                store_misses,
                profile_misses,
                compile_misses,
                sim_cycles,
                failures,
                ..
            } => {
                out.failures = failures;
                out.done = Some((
                    jobs,
                    failed,
                    store_hits,
                    store_misses,
                    profile_misses,
                    compile_misses,
                    sim_cycles,
                ));
            }
        }
    }
    out
}

#[test]
fn served_sweeps_are_bit_identical_cached_and_crash_safe() {
    let dir = std::env::temp_dir().join(format!("wishbranch-serve-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(
        env!("CARGO_BIN_EXE_wishbranch-repro"),
        dir.join("state"),
    );
    cfg.store_dir = Some(dir.join("store"));
    cfg.max_procs = 2;
    cfg.tenant_budgets.insert("broke".into(), 1);
    let server = Arc::new(Server::bind("127.0.0.1:0", cfg).expect("bind"));
    let addr = server.local_addr().expect("local addr").to_string();
    let run_handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };

    // The ground truth: the same typed request through the in-process
    // engine.
    let (mut local, _) = local_run(&base_request("local"));
    assert_eq!(local.len(), 1);
    let local_json = local.remove(0).1;

    // 1. Cold store, budgeted tenant: full simulation, report
    //    bit-identical to the in-process engine.
    let first = drive(&addr, &base_request("broke"));
    assert!(first.accepted && first.rejected.is_none());
    let (jobs, failed, store_hits, _, _, _, sim_cycles) = first.done.expect("done line");
    assert_eq!(failed, 0);
    assert_eq!(store_hits, 0, "first run must not find a warm store");
    assert!(sim_cycles > 0, "a cold run simulates for real");
    assert_eq!(jobs as usize, first.job_keys.len());
    let expected_keys: HashSet<u64> = first.job_keys.iter().copied().collect();
    assert_eq!(expected_keys.len(), first.job_keys.len(), "no duplicate jobs");
    assert_eq!(first.reports, [("fig10".to_string(), local_json.clone())]);

    // 2. A different tenant submits the identical sweep: every job —
    //    profile and compile work included — comes from the store, and the
    //    report is still byte-for-byte the same.
    let second = drive(&addr, &base_request("t2"));
    let (jobs2, failed2, hits2, misses2, prof2, comp2, cycles2) = second.done.expect("done line");
    assert_eq!((failed2, misses2), (0, 0));
    assert_eq!(hits2, jobs2, "100% of the second tenant's work is store hits");
    assert_eq!((prof2, comp2), (0, 0), "no profile or compile work repeats");
    assert_eq!(cycles2, 0, "store hits bill no simulated cycles");
    assert_eq!(second.reports, [("fig10".to_string(), local_json.clone())]);

    // 3. A worker killed mid-shard (deterministic abort at global job
    //    index 7) is respawned against its journal: the client stream has
    //    no gaps and no duplicates, and the report is unchanged.
    let mut faulty = base_request("t3");
    faulty.fault_plan = Some(FaultPlan::parse("abort@7").expect("plan"));
    let third = drive(&addr, &faulty);
    let (_, failed3, _, _, _, _, _) = third.done.expect("done line after respawn");
    assert_eq!(failed3, 0, "the injected kill must not surface as a job failure");
    let (respawns3, _, _, _) = third.stats.expect("stats line precedes done");
    assert!(respawns3 >= 1, "the stats line records the respawn");
    let third_keys: HashSet<u64> = third.job_keys.iter().copied().collect();
    assert_eq!(third_keys.len(), third.job_keys.len(), "no duplicate jobs across respawn");
    assert_eq!(third_keys, expected_keys, "gap-free: same job set as the clean run");
    assert_eq!(third.reports, [("fig10".to_string(), local_json.clone())]);

    // 4. The budgeted tenant comes back: its first run spent real cycles
    //    against a budget of 1, so admission now refuses it outright.
    let fourth = drive(&addr, &base_request("broke"));
    assert!(!fourth.accepted);
    let (kind, reason) = fourth.rejected.expect("rejected line");
    assert_eq!(kind, "cycle_budget_exceeded");
    assert!(reason.contains("broke"), "rejection names the tenant: {reason}");
    assert!(fourth.job_keys.is_empty() && fourth.done.is_none());

    // 5. Graceful drain: a request in flight when shutdown begins still
    //    completes (handlers are drained, not killed), `run` returns, and
    //    nothing needs a force-kill.
    let inflight = {
        let addr = addr.clone();
        std::thread::spawn(move || drive(&addr, &base_request("t5")))
    };
    // Let the in-flight request get accepted before the drain starts.
    std::thread::sleep(std::time::Duration::from_millis(300));
    server.shutdown().expect("shutdown");
    let fifth = inflight.join().expect("in-flight client");
    assert!(fifth.accepted, "the drained request was accepted before shutdown");
    let (_, failed5, _, _, _, _, _) = fifth.done.expect("drain lets the stream finish");
    assert_eq!(failed5, 0);
    assert_eq!(fifth.reports, [("fig10".to_string(), local_json)]);
    run_handle
        .join()
        .expect("accept thread")
        .expect("run returns cleanly after a drain");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A multi-experiment request runs on one worker, as the CLI runs it on
/// one runner: the fault plan's indices count across the whole request,
/// so `panic@3` strikes once, and every report matches the local run.
#[test]
fn served_multi_experiment_request_matches_one_local_runner() {
    let dir = std::env::temp_dir().join(format!("wishbranch-serve-multi-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig::new(env!("CARGO_BIN_EXE_wishbranch-repro"), dir.join("state"));
    let server = Arc::new(Server::bind("127.0.0.1:0", cfg).expect("bind"));
    let addr = server.local_addr().expect("local addr").to_string();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run());
    }

    let mut req = base_request("multi");
    req.experiments = vec![Experiment::Fig10, Experiment::Fig12];
    req.fault_plan = Some(FaultPlan::parse("panic@3").expect("plan"));
    let served = drive(&addr, &req);
    let (reports, summary) = local_run(&req);
    assert_eq!(served.reports, reports, "served reports equal the local run's");
    let (jobs, failed, _, _, profile_misses, compile_misses, sim_cycles) =
        served.done.expect("done line");
    assert_eq!(
        (jobs, profile_misses, compile_misses, sim_cycles),
        (
            summary.jobs,
            summary.profile_misses,
            summary.compile_misses,
            summary.sim_cycles
        ),
        "the done line counts what one shared runner does"
    );
    assert_eq!(failed, 1, "the fault strikes once per request, not once per experiment");
    assert_eq!(served.failures.matches("\"index\":").count(), 1, "{}", served.failures);
    assert!(served.failures.starts_with("{\"index\":3,"), "{}", served.failures);

    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
