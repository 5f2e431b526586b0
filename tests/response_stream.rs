//! Malformed-input contract of the client-side response decoder:
//! truncated or torn JSONL, unknown `type` values, missing fields and
//! mid-line EOF must every one surface as a *typed* error — a
//! `ResponseLine::parse` `Err` or an `InvalidData` I/O error from
//! `ResponseStream` — never a panic and never silent stream termination.
//! The `client` command holds to the same contract: a stream that ends
//! before `done` is a failed run.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpListener;
use std::process::Command;

use wishbranch_core::{ResponseLine, ResponseStream, RESPONSE_SCHEMA};

#[test]
fn parse_rejects_malformed_lines_without_panicking() {
    let bad = [
        // Torn mid-value: a crash cut the line short.
        r#"{"schema":"wishbranch.response/v1","type":"job","experiment":"fig10","key":12,"entry":{"key":12,"v"#,
        // Torn mid-key.
        r#"{"schema":"wishbranch.response/v1","type":"don"#,
        // Not JSON at all.
        "listening on 127.0.0.1:7905",
        "",
        "{",
        // Valid JSON, wrong schema.
        r#"{"schema":"wishbranch.request/v1","type":"job"}"#,
        // Valid schema, unknown type.
        r#"{"schema":"wishbranch.response/v1","type":"telemetry","payload":1}"#,
        // Valid schema, no type at all.
        r#"{"schema":"wishbranch.response/v1","key":9}"#,
        // Known type, missing required fields.
        r#"{"schema":"wishbranch.response/v1","type":"accepted"}"#,
        r#"{"schema":"wishbranch.response/v1","type":"job","experiment":"fig10"}"#,
        r#"{"schema":"wishbranch.response/v1","type":"done","jobs":3}"#,
        r#"{"schema":"wishbranch.response/v1","type":"stats","respawns":1}"#,
        r#"{"schema":"wishbranch.response/v1","type":"heartbeat"}"#,
        // Wrong field type where a number is required.
        r#"{"schema":"wishbranch.response/v1","type":"heartbeat","seq":"three"}"#,
    ];
    for line in bad {
        let result = ResponseLine::parse(line);
        assert!(result.is_err(), "must reject, got {result:?} for {line:?}");
    }
}

#[test]
fn stream_surfaces_torn_lines_as_invalid_data_not_silence() {
    // A healthy prefix, then a line torn by a mid-write crash, then more
    // healthy lines: the stream must yield ok, ok, ERR, ok — the error is
    // visible in-band, and iteration keeps going (the caller decides).
    let text = format!(
        "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"accepted\",\"tenant\":\"a\",\"fingerprint\":1}}\n\
         {{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"job\",\"experiment\":\"fig10\",\"key\":7,\"entry\":{{\"key\":7,\"v\":2,\"data\":[1]}}}}\n\
         {{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"job\",\"experiment\":\"fig10\",\"key\":8,\"ent\n\
         {{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"heartbeat\",\"seq\":0}}\n"
    );
    let results: Vec<_> = ResponseStream::from_reader(Cursor::new(text)).collect();
    assert_eq!(results.len(), 4, "every line accounted for, good or bad");
    assert!(results[0].is_ok() && results[1].is_ok());
    let err = results[2].as_ref().expect_err("torn line is an error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(results[3].is_ok(), "the stream recovers after a bad line");
}

#[test]
fn stream_ends_cleanly_on_mid_line_eof() {
    // EOF in the middle of a line (no trailing newline): the final
    // fragment still comes out as a typed InvalidData error, and the
    // iterator then terminates — no panic, no hang.
    let text = format!(
        "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"accepted\",\"tenant\":\"a\",\"fingerprint\":1}}\n\
         {{\"schema\":\"{RESPONSE_SCHEMA}\",\"type\":\"done\",\"jobs\":3,\"fail"
    );
    let mut stream = ResponseStream::from_reader(Cursor::new(text));
    assert!(stream.next().expect("first item").is_ok());
    let torn = stream.next().expect("truncated tail yields an item");
    assert_eq!(
        torn.expect_err("mid-line EOF is typed").kind(),
        std::io::ErrorKind::InvalidData
    );
    assert!(stream.next().is_none(), "then the stream ends");
}

#[test]
fn stream_of_empty_input_is_empty_not_an_error() {
    assert!(ResponseStream::from_reader(Cursor::new(String::new()))
        .next()
        .is_none());
}

#[test]
fn client_exits_1_when_the_stream_ends_before_done() {
    // A server that admits the request and then hangs up.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let mut request = String::new();
        BufReader::new(sock.try_clone().expect("clone"))
            .read_line(&mut request)
            .expect("read request");
        let accepted = ResponseLine::Accepted {
            tenant: "default".into(),
            fingerprint: 1,
        };
        writeln!(sock, "{}", accepted.to_line()).expect("send accepted");
    });
    let out = Command::new(env!("CARGO_BIN_EXE_wishbranch-repro"))
        .args(["client", "--addr", &addr, "--quick", "--scale", "60", "fig10"])
        .output()
        .expect("run client");
    server.join().expect("server thread");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("before done"), "stderr: {stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"type\":\"accepted\""));
}
