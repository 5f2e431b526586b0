//! Byte-level fuzzing of the protocol readers: `minijson::JsonValue::parse`,
//! `SweepRequest::parse` and `ResponseLine::parse` see every proper
//! prefix of valid request and response lines, and seeded mutations of
//! them (truncation, bit flips, digit swaps, random bytes, deleted runs;
//! the mutators `persist_layouts.rs` uses on persisted entries). The
//! contract is a typed error or a parsed value, never a panic; a request
//! that still parses must be a fixed point of `to_json` → `parse`.

mod mutate;

use mutate::{mutate, mutation_strategy};
use proptest::prelude::*;
use wishbranch_core::minijson::JsonValue;
use wishbranch_core::{
    summary_json, Experiment, FaultPlan, RequestError, ResponseLine, SweepRequest, SweepSummary,
    RESPONSE_SCHEMA,
};
use wishbranch_workloads::InputSet;

/// Valid request lines: every optional field set, the minimal request,
/// and a tenant that needs string escapes.
fn request_lines() -> Vec<String> {
    let mut full = SweepRequest::new(vec![Experiment::Fig10, Experiment::Tab5]);
    full.tenant = "team-a".into();
    full.scale = 800;
    full.quick = true;
    full.workers = Some(3);
    full.oracle = true;
    full.batch = Some(8);
    full.fault_plan = Some(FaultPlan::parse("panic@3,diverge@8").expect("fault spec"));
    full.train = Some(InputSet::C);
    full.window = Some(256);
    full.depth = Some(20);
    full.wish_jump_threshold = Some(7);
    full.wish_loop_body_max = Some(40);
    full.budgets.cycles = Some(5_000_000);
    full.budgets.wall_ms = Some(60_000);
    let mut escaped = SweepRequest::new(vec![Experiment::Fig12]);
    escaped.tenant = "q\"uote\\back\nline\u{1}é✓".into();
    vec![
        full.to_json(),
        SweepRequest::new(vec![Experiment::Fig10]).to_json(),
        escaped.to_json(),
    ]
}

/// Valid response lines, one of each type.
fn response_lines() -> Vec<String> {
    let head = |kind: &str| format!("{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"{kind}\"");
    vec![
        format!("{},\"tenant\":\"team-a\",\"fingerprint\":18446744073709551615}}", head("accepted")),
        format!(
            "{},\"kind\":\"bad_field\",\"reason\":\"scale: must be a \\\"positive\\\" integer\"}}",
            head("rejected")
        ),
        format!(
            "{},\"experiment\":\"fig10\",\"key\":12,\"entry\":{{\"key\":12,\"v\":4,\
             \"image\":{{\"bench\":\"gzip\",\"input\":\"A\",\"fnv\":9}},\
             \"data\":[1,-2,300,[4096,-7]]}}}}",
            head("job")
        ),
        format!(
            "{},\"experiment\":\"fig10\",\"report\":{}}}",
            head("report"),
            summary_json(&SweepSummary::default())
        ),
        format!("{},\"seq\":11}}", head("heartbeat")),
        format!(
            "{},\"respawns\":2,\"hung_killed\":1,\"deadline_kills\":0,\"rejected_requests\":3}}",
            head("stats")
        ),
        format!(
            "{},\"jobs\":3,\"failed\":1,\"store_hits\":1,\"store_misses\":2,\
             \"store_quarantined\":0,\"profile_misses\":1,\"compile_misses\":1,\
             \"sim_cycles\":42,\"batched_jobs\":2,\"failures\":[{{\"index\":3,\
             \"kind\":\"worker_panic\",\"attempts\":2,\"error\":\"injected\"}}]}}",
            head("done")
        ),
    ]
}

/// Runs every reader on `text`. Each returns a typed result; a request
/// that parses must survive a serialize → parse round trip unchanged.
fn parse_all(text: &str) {
    let _ = JsonValue::parse(text);
    let _ = ResponseLine::parse(text);
    if let Ok(req) = SweepRequest::parse(text) {
        assert_eq!(SweepRequest::parse(&req.to_json()), Ok(req), "{text:?}");
    }
}

#[test]
fn valid_lines_parse_and_every_proper_prefix_is_a_typed_error() {
    for line in request_lines() {
        SweepRequest::parse(&line).expect("valid request line");
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            let prefix = &line[..cut];
            assert!(JsonValue::parse(prefix).is_err(), "prefix of {cut} bytes");
            assert!(SweepRequest::parse(prefix).is_err(), "prefix of {cut} bytes");
        }
    }
    for line in response_lines() {
        ResponseLine::parse(&line).expect("valid response line");
        for cut in 0..line.len() {
            assert!(ResponseLine::parse(&line[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }
}

/// A megabyte of nesting once overflowed the recursive-descent parser's
/// stack and aborted the process; it is now a typed error at the nesting
/// cap. A megabyte-long string parses in linear time.
#[test]
fn hostile_nesting_and_long_strings_stay_typed() {
    for open in ["[", "{\"a\":"] {
        let deep = open.repeat(1 << 20);
        assert!(JsonValue::parse(&deep).is_err());
        assert!(matches!(SweepRequest::parse(&deep), Err(RequestError::BadJson(_))));
        assert!(ResponseLine::parse(&deep).is_err());
    }
    let mut req = SweepRequest::new(vec![Experiment::Fig10]);
    req.tenant = "é".repeat(1 << 19);
    assert_eq!(SweepRequest::parse(&req.to_json()), Ok(req));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_request_lines_parse_or_fail_typed(
        which in any::<usize>(),
        mutation in mutation_strategy(),
    ) {
        let lines = request_lines();
        let mutated = mutate(lines[which % lines.len()].as_bytes(), mutation);
        parse_all(&String::from_utf8_lossy(&mutated));
    }

    #[test]
    fn mutated_response_lines_parse_or_fail_typed(
        which in any::<usize>(),
        mutation in mutation_strategy(),
    ) {
        let lines = response_lines();
        let mutated = mutate(lines[which % lines.len()].as_bytes(), mutation);
        parse_all(&String::from_utf8_lossy(&mutated));
    }
}
