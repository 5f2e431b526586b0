//! Deterministic chaos harness for the sweep service's resilience layer.
//!
//! Every scenario injects one infrastructure failure mode from a fixed
//! [`ChaosPlan`] — a hung worker, a torn protocol write, a stalled
//! client, a corrupted store artifact, an expired shard deadline — and
//! asserts the contract from ISSUE 8: the client observes either a
//! complete, gap-free, duplicate-free stream whose report is
//! byte-identical to the in-process engine, or a typed error. Never a
//! hang, a partial-silent stream, or a duplicate; and no server thread or
//! worker process stays pinned (each scenario proves the server still
//! answers afterwards).
//!
//! Chaos indices are *worker-local completion order*, so which concrete
//! job a fault strikes varies with scheduling — but faults strike only
//! after that job's journal append and store put, so resume replays are
//! bit-identical and the final reports never vary. That is the
//! determinism contract: chaos perturbs timing, not bytes.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wishbranch_core::{
    client_stream, client_stream_resilient, ChaosPlan, Experiment, ResponseLine, ServeConfig,
    Server, SweepRequest,
};

fn base_request(tenant: &str) -> SweepRequest {
    let mut req = SweepRequest::new(vec![Experiment::Fig10]);
    req.tenant = tenant.into();
    req.quick = true;
    req.scale = 60;
    req.workers = Some(2);
    req
}

fn chaos_config(dir: &std::path::Path, plan: &str) -> ServeConfig {
    let mut cfg = ServeConfig::new(env!("CARGO_BIN_EXE_wishbranch-repro"), dir.join("state"));
    cfg.store_dir = Some(dir.join("store"));
    cfg.max_procs = 2;
    cfg.max_respawns = 3;
    // Tight liveness so a hung worker is detected in test time; the
    // 150 ms heartbeat keeps healthy-but-slow workers alive under it.
    cfg.heartbeat_ms = 150;
    cfg.liveness_timeout_ms = 2_000;
    cfg.write_timeout_ms = 1_000;
    cfg.chaos_plan = ChaosPlan::parse(plan).expect("chaos plan");
    cfg
}

fn start(cfg: ServeConfig) -> (Arc<Server>, String) {
    let server = Arc::new(Server::bind("127.0.0.1:0", cfg).expect("bind"));
    let addr = server.local_addr().expect("local addr").to_string();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = server.run();
        });
    }
    (server, addr)
}

struct Outcome {
    job_keys: Vec<u64>,
    reports: Vec<(String, String)>,
    stats: Option<(u64, u64, u64, u64)>,
    done: Option<(u64, u64)>,
    failures: String,
}

/// Drains one stream (plain or resilient) into an [`Outcome`], asserting
/// stream-level invariants on the way.
fn drain(
    stream: impl Iterator<Item = std::io::Result<(String, ResponseLine)>>,
) -> Outcome {
    let mut out = Outcome {
        job_keys: Vec::new(),
        reports: Vec::new(),
        stats: None,
        done: None,
        failures: String::new(),
    };
    for item in stream {
        let (_raw, line) = item.expect("typed, parseable line");
        match line {
            ResponseLine::Accepted { .. } | ResponseLine::Rejected { .. } => {}
            ResponseLine::Heartbeat { .. } => {
                panic!("heartbeats must be filtered from client streams")
            }
            ResponseLine::Job { key, .. } => out.job_keys.push(key),
            ResponseLine::Report { experiment, report } => out.reports.push((experiment, report)),
            ResponseLine::Stats {
                respawns,
                hung_killed,
                deadline_kills,
                rejected_requests,
            } => out.stats = Some((respawns, hung_killed, deadline_kills, rejected_requests)),
            ResponseLine::Done {
                jobs,
                failed,
                failures,
                ..
            } => {
                out.done = Some((jobs, failed));
                out.failures = failures;
            }
        }
    }
    out
}

fn assert_no_dups(out: &Outcome) -> HashSet<u64> {
    let set: HashSet<u64> = out.job_keys.iter().copied().collect();
    assert_eq!(set.len(), out.job_keys.len(), "duplicate job keys in stream");
    set
}

/// Ground truth for the fixed-seed request: the same sweep through the
/// in-process engine.
fn local_report() -> String {
    let runner = base_request("local").build_runner().expect("local runner");
    Experiment::Fig10.run(&runner).to_json()
}

#[test]
fn hung_worker_is_killed_respawned_and_stream_stays_bit_identical() {
    let dir = std::env::temp_dir().join(format!("wishbranch-chaos-hang-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_server, addr) = start(chaos_config(&dir, "hang@5"));
    let truth = local_report();

    let out = drain(client_stream(&addr, &base_request("t")).expect("connect"));
    let (jobs, failed) = out.done.expect("done despite the hang");
    assert_eq!(failed, 0);
    let keys = assert_no_dups(&out);
    assert_eq!(keys.len() as u64, jobs, "gap-free: every job announced once");
    assert_eq!(out.reports, [("fig10".to_string(), truth)], "report bit-identical");
    let (respawns, hung_killed, _, _) = out.stats.expect("stats line");
    assert!(hung_killed >= 1, "the hang was detected and killed");
    assert!(respawns >= 1, "the hung worker was respawned");

    // Nothing pinned: a follow-up request on the same server completes
    // promptly (warm store, so this is fast).
    let again = drain(client_stream(&addr, &base_request("t2")).expect("reconnect"));
    assert_eq!(again.done.expect("second done").1, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hang in the second experiment of a two-experiment request: the
/// respawned worker replays the first experiment from the journal, report
/// included, and the server forwards each report and each job once.
#[test]
fn respawn_replays_finished_experiments_without_duplicating_their_reports() {
    let dir = std::env::temp_dir().join(format!("wishbranch-chaos-multi-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_server, addr) = start(chaos_config(&dir, "hang@50"));
    let mut req = base_request("t");
    req.experiments = vec![Experiment::Fig10, Experiment::Fig12];
    // The local reference, recording every job key it runs. Fig. 12
    // reruns some of Fig. 10's jobs, so keys are fewer than jobs.
    let keys = Arc::new(Mutex::new(HashSet::new()));
    let mut runner = req.build_runner().expect("local runner");
    let sink = Arc::clone(&keys);
    runner.set_observer(Arc::new(move |key, _| {
        sink.lock().unwrap().insert(key);
    }));
    let fig10 = Experiment::Fig10.run(&runner).to_json();
    assert!(runner.summary().jobs <= 50, "the hang must strike after fig10 finished");
    let fig12 = Experiment::Fig12.run(&runner).to_json();
    let truth = [("fig10".to_string(), fig10), ("fig12".to_string(), fig12)];

    let lines: Vec<(String, ResponseLine)> = client_stream(&addr, &req)
        .expect("connect")
        .map(|item| item.expect("typed, parseable line"))
        .collect();
    let dones = lines
        .iter()
        .filter(|(_, l)| matches!(l, ResponseLine::Done { .. }))
        .count();
    assert_eq!(dones, 1, "exactly one done line");
    assert!(matches!(lines.last(), Some((_, ResponseLine::Done { failed: 0, .. }))));
    let out = drain(lines.into_iter().map(Ok));
    assert_eq!(out.reports, truth, "each report once, byte-identical to local");
    let (jobs, _) = out.done.expect("done");
    assert_eq!(jobs, runner.summary().jobs, "the resumed worker accounts for every job");
    assert_eq!(assert_no_dups(&out), *keys.lock().unwrap(), "gap-free, each key once");
    let (respawns, hung_killed, _, _) = out.stats.expect("stats line");
    assert!(hung_killed >= 1 && respawns >= 1, "the hang forced a respawn");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_line_is_dropped_and_recovered_from_the_respawn() {
    let dir = std::env::temp_dir().join(format!("wishbranch-chaos-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_server, addr) = start(chaos_config(&dir, "torn-line@4"));
    let truth = local_report();

    let out = drain(client_stream(&addr, &base_request("t")).expect("connect"));
    let (jobs, failed) = out.done.expect("done despite the torn write");
    assert_eq!(failed, 0, "a torn write is not a job failure");
    let keys = assert_no_dups(&out);
    assert_eq!(
        keys.len() as u64,
        jobs,
        "the torn job reappears intact from the journal replay"
    );
    assert_eq!(out.reports, [("fig10".to_string(), truth)]);
    let (respawns, _, _, _) = out.stats.expect("stats line");
    assert!(respawns >= 1, "the dead worker was respawned");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_entry_is_quarantined_and_rewritten() {
    let dir = std::env::temp_dir().join(format!("wishbranch-chaos-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_server, addr) = start(chaos_config(&dir, "corrupt-store@3"));
    let truth = local_report();

    // First tenant plants the corruption (after its own journal append,
    // so its stream is unaffected).
    let first = drain(client_stream(&addr, &base_request("t")).expect("connect"));
    assert_eq!(first.done.expect("first done").1, 0);
    assert_eq!(first.reports, [("fig10".to_string(), truth.clone())]);

    // Second tenant trips over it: the poisoned entry reads as a miss, is
    // quarantined to `<key>.corrupt`, and the job re-executes — the
    // stream stays complete and byte-identical.
    let second = drain(client_stream(&addr, &base_request("t2")).expect("connect"));
    let (jobs2, failed2) = second.done.expect("second done");
    assert_eq!(failed2, 0);
    assert_eq!(assert_no_dups(&second).len() as u64, jobs2);
    assert_eq!(second.reports, [("fig10".to_string(), truth.clone())]);
    let quarantined: Vec<_> = walk(&dir.join("store"))
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "corrupt"))
        .collect();
    assert_eq!(quarantined.len(), 1, "exactly the poisoned entry moved aside");

    // Third tenant is fully warm again: the rewritten entry serves hits.
    let third = drain(client_stream(&addr, &base_request("t3")).expect("connect"));
    assert_eq!(third.done.expect("third done").1, 0);
    assert_eq!(third.reports, [("fig10".to_string(), truth)]);
    let _ = std::fs::remove_dir_all(&dir);
}

fn walk(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            out.push(path);
        }
    }
    out
}

#[test]
fn stalled_client_does_not_pin_the_server_and_a_resilient_client_recovers() {
    let dir = std::env::temp_dir().join(format!("wishbranch-chaos-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_server, addr) = start(chaos_config(&dir, "stall-client@3"));
    let truth = local_report();

    // A raw-socket client that submits the request, reads the number of
    // lines its chaos plan allows, then stops reading and drops the
    // connection — the worst kind of consumer.
    let stall_after = ChaosPlan::parse("stall-client@3")
        .unwrap()
        .stall_after()
        .unwrap();
    {
        let mut sock = TcpStream::connect(&addr).expect("connect");
        let mut line = base_request("staller").to_json();
        line.push('\n');
        sock.write_all(line.as_bytes()).expect("send request");
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));
        let mut buf = String::new();
        for _ in 0..stall_after {
            buf.clear();
            if reader.read_line(&mut buf).expect("read") == 0 {
                break;
            }
        }
        // Stall: hold the socket open without reading, then vanish.
        std::thread::sleep(Duration::from_millis(500));
        drop(reader);
    }

    // The server is not pinned: a well-behaved client on the same server
    // gets a complete, correct stream within test time.
    let started = Instant::now();
    let out = drain(client_stream(&addr, &base_request("t")).expect("connect"));
    assert_eq!(out.done.expect("done").1, 0);
    assert_eq!(out.reports, [("fig10".to_string(), truth.clone())]);
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "follow-up request must not starve behind the stalled one"
    );

    // And a resilient client whose connection drops mid-stream recovers a
    // gap-free, duplicate-free stream by reconnecting: the merged stream
    // is indistinguishable from an unperturbed one.
    let resilient = drain(
        client_stream_resilient(&addr, &base_request("t2"), 3).expect("resilient connect"),
    );
    let (jobs, failed) = resilient.done.expect("resilient done");
    assert_eq!(failed, 0);
    assert_eq!(assert_no_dups(&resilient).len() as u64, jobs);
    assert_eq!(resilient.reports, [("fig10".to_string(), truth)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_deadline_kills_a_hung_worker_with_a_typed_failure() {
    let dir = std::env::temp_dir().join(format!("wishbranch-chaos-ddl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Liveness is set well past the shard deadline (budget_wall_ms 2000
    // x factor 2 = 4 s), so the deadline — not hang detection — must be
    // what ends the hung shard; the discriminating assertions below are
    // `deadline_kills` (not `hung_killed`) and the typed failure kind.
    // It stays finite because the chaos plan also strikes the follow-up
    // request's worker, which only liveness can recover.
    let mut cfg = chaos_config(&dir, "hang@0");
    cfg.liveness_timeout_ms = 10_000;
    cfg.shard_deadline_factor = 2;
    let (_server, addr) = start(cfg);

    let mut req = base_request("t");
    req.budgets.wall_ms = Some(2_000);
    let out = drain(client_stream(&addr, &req).expect("connect"));
    let (_, failed) = out.done.expect("done line with the typed failure");
    assert!(failed >= 1, "the deadline kill surfaces as a shard failure");
    assert!(
        out.failures.contains("shard_deadline_exceeded"),
        "typed failure kind, got: {}",
        out.failures
    );
    let (_, _, deadline_kills, _) = out.stats.expect("stats line");
    assert!(deadline_kills >= 1, "the stats line records the deadline kill");

    // The killed worker is gone, not pinned: the server still serves.
    let mut clean = base_request("t2");
    clean.budgets.wall_ms = None;
    let again = drain(client_stream(&addr, &clean).expect("connect"));
    assert_eq!(again.done.expect("done").1, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_and_silent_requests_get_typed_rejections() {
    let dir = std::env::temp_dir().join(format!("wishbranch-chaos-rej-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = chaos_config(&dir, "");
    cfg.max_request_bytes = 256;
    cfg.read_timeout_ms = 400;
    let (_server, addr) = start(cfg);

    // A request line over the cap is refused with a typed line, not
    // buffered without bound.
    let mut sock = TcpStream::connect(&addr).expect("connect");
    let huge = format!("{}\n", "x".repeat(4096));
    sock.write_all(huge.as_bytes()).expect("send");
    let mut line = String::new();
    BufReader::new(sock).read_line(&mut line).expect("read rejection");
    let parsed = ResponseLine::parse(line.trim()).expect("typed rejection");
    match parsed {
        ResponseLine::Rejected { kind, .. } => assert_eq!(kind, "request_too_large"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // A client that connects and never finishes its request line is cut
    // off by the read timeout with a typed line.
    let sock = TcpStream::connect(&addr).expect("connect");
    let mut line = String::new();
    BufReader::new(sock).read_line(&mut line).expect("read rejection");
    let parsed = ResponseLine::parse(line.trim()).expect("typed rejection");
    match parsed {
        ResponseLine::Rejected { kind, .. } => assert_eq!(kind, "request_timeout"),
        other => panic!("expected rejection, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_perturbed_journals_replay_bit_identically_via_resume() {
    // Determinism acceptance: rerun the served request locally with
    // --resume against the chaos run's journal — every journal entry must
    // replay bit-identically (journal hits, no fresh work, same report).
    let dir = std::env::temp_dir().join(format!("wishbranch-chaos-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_server, addr) = start(chaos_config(&dir, "torn-line@2,hang@6"));
    let truth = local_report();

    let out = drain(client_stream(&addr, &base_request("t")).expect("connect"));
    assert_eq!(out.done.expect("done").1, 0);
    assert_eq!(out.reports, [("fig10".to_string(), truth.clone())]);

    // Find the shard journal the chaos run left behind and replay it.
    let journal = walk(&dir.join("state"))
        .into_iter()
        .find(|p| p.file_name().is_some_and(|n| n == "journal.jsonl"))
        .expect("the chaos run journaled");
    let mut replay_req = base_request("t");
    replay_req.fault_plan = None;
    let runner = replay_req.build_runner().expect("runner");
    runner
        .attach_journal(&journal, true)
        .expect("resume against the chaos journal");
    let report = Experiment::Fig10.run(&runner);
    assert_eq!(report.to_json(), truth, "resume replay is bit-identical");
    let summary = runner.summary();
    assert_eq!(
        summary.journal_hits, summary.jobs,
        "every job replays from the journal; chaos never corrupted it"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
