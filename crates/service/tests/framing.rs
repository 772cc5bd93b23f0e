//! Framing edge cases of the socket transport: partial lines split
//! across reads, oversize-line rejection with a typed protocol error,
//! interleaved concurrent connections, backpressure disconnects and the
//! idle timeout.

mod common;

use common::{golden_config, replay_over_socket, start_server, stdio_transcript, unix_path};
use fpga_rt_obs::Obs;
use fpga_rt_service::{conn_counters, ClientStream, Endpoint, TransportConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::time::Duration;

const SESSION_REQUESTS: &str = include_str!("../testdata/sessions.requests.jsonl");
const SESSION_GOLDEN: &str = include_str!("../testdata/sessions.responses.golden.jsonl");

fn conns(n: usize) -> TransportConfig {
    TransportConfig { max_conns: Some(n), ..TransportConfig::default() }
}

#[test]
fn lines_split_across_many_tiny_writes_reassemble_byte_identically() {
    let config = golden_config(2);
    let (endpoint, server) =
        start_server(&Endpoint::Tcp("127.0.0.1:0".into()), conns(1), config, Obs::off());
    let mut stream =
        ClientStream::connect_with_retry(&endpoint, Duration::from_secs(5)).expect("connect");
    // 7-byte fragments with flushes and pauses: every request line
    // crosses several reads, many pauses land mid-line.
    for (i, chunk) in SESSION_REQUESTS.as_bytes().chunks(7).enumerate() {
        stream.write_all(chunk).expect("send fragment");
        stream.flush().expect("flush");
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    stream.shutdown_write().expect("half-close");
    let mut transcript = String::new();
    stream.read_to_string(&mut transcript).expect("read responses");
    server.join().expect("server thread").expect("serve");
    assert_eq!(transcript, SESSION_GOLDEN);
}

#[test]
fn oversized_lines_get_a_typed_error_and_the_stream_resynchronizes() {
    let config = golden_config(1);
    let transport = TransportConfig { max_line_bytes: 128, ..conns(1) };
    let (endpoint, server) =
        start_server(&Endpoint::Tcp("127.0.0.1:0".into()), transport, config, Obs::on(true));
    // An unparseable giant (no newline for >128 bytes), then a valid
    // request: the giant is rejected in place, the valid line still
    // works — and a second oversize *with* a valid JSON body proves the
    // limit, not the parser, rejected it.
    let giant = format!(r#"{{"op":"query","id":"{}"}}"#, "x".repeat(400));
    let input = format!("{giant}\n{{\"op\":\"query\",\"id\":\"after\"}}\n{giant}\n");
    let transcript = replay_over_socket(&endpoint, &input);
    let (stats, snapshot) = server.join().expect("server thread").expect("serve");
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(lines.len(), 3, "{transcript}");
    assert!(lines[0].contains("\"ok\":false"), "{}", lines[0]);
    assert!(lines[0].contains("oversized request line: exceeds 128 bytes"), "{}", lines[0]);
    assert!(lines[0].contains("\"seq\":0"), "the reject consumes a sequence number");
    assert!(lines[0].contains("\"id\":\"req-0\""));
    assert!(lines[1].contains("\"id\":\"after\""), "resynchronized: {}", lines[1]);
    assert!(lines[1].contains("\"seq\":1"));
    assert!(lines[1].contains("\"ok\":true"));
    assert!(lines[2].contains("oversized request line"), "{}", lines[2]);
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.errors, 2);
    assert_eq!(snapshot.counter(conn_counters::OVERSIZE_REJECTS), Some(2));
}

#[test]
fn interleaved_connections_each_replay_their_session_byte_identically() {
    // Split the multi-session golden by tenant: each connection speaks
    // for one session, concurrently against one server. Sessions are
    // independent and sequence numbers are per-connection, so every
    // connection's transcript must equal the single-pipe stdio replay
    // of just its lines.
    let scripts: Vec<String> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|name| {
            // Everything addressed to this session *except* the `stats`
            // op — stats totals are service-wide, so they depend on the
            // other connections' interleaving. Lifecycle chains
            // (pause/snapshot/destroy/restore) stay in: they are ordered
            // within the one connection that speaks for the session.
            let script: String = SESSION_REQUESTS
                .lines()
                .filter(|l| {
                    l.contains(&format!("\"session\":\"{name}\"")) && !l.contains("\"stats\"")
                })
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
            assert!(!script.is_empty(), "golden covers session {name}");
            script
        })
        .collect();
    let config = golden_config(4);
    let (endpoint, server) =
        start_server(&Endpoint::Tcp("127.0.0.1:0".into()), conns(3), config, Obs::off());
    let mut clients = Vec::new();
    for script in &scripts {
        let endpoint = endpoint.clone();
        let script = script.clone();
        clients.push(std::thread::spawn(move || replay_over_socket(&endpoint, &script)));
    }
    let transcripts: Vec<String> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();
    server.join().expect("server thread").expect("serve");
    for (script, transcript) in scripts.iter().zip(&transcripts) {
        assert_eq!(transcript, &stdio_transcript(script, &config));
    }
}

#[test]
fn a_slow_consumer_is_disconnected_once_its_outbound_queue_overflows() {
    let config = golden_config(1);
    let transport = TransportConfig { outbound_max_bytes: 512, ..conns(1) };
    let path = unix_path("slow");
    let (endpoint, server) = start_server(&Endpoint::Unix(path), transport, config, Obs::on(true));
    let mut stream =
        ClientStream::connect_with_retry(&endpoint, Duration::from_secs(5)).expect("connect");
    // Never read: a few hundred query responses overflow 512 bytes of
    // outbound queue almost immediately. Writes may start failing once
    // the server hangs up — that is the expected outcome.
    for _ in 0..512 {
        if stream.write_all(b"{\"op\":\"query\"}\n").is_err() {
            break;
        }
        let _ = stream.flush();
    }
    let (_, snapshot) = server.join().expect("server thread").expect("serve");
    assert_eq!(snapshot.counter(conn_counters::SLOW_DISCONNECTS), Some(1));
    assert_eq!(snapshot.counter(conn_counters::CLOSED), Some(1));
}

#[test]
fn idle_connections_are_reaped_by_the_timeout() {
    let config = golden_config(1);
    let transport = TransportConfig { idle_timeout: Some(Duration::from_millis(50)), ..conns(1) };
    let (endpoint, server) =
        start_server(&Endpoint::Tcp("127.0.0.1:0".into()), transport, config, Obs::on(true));
    let stream =
        ClientStream::connect_with_retry(&endpoint, Duration::from_secs(5)).expect("connect");
    // Say nothing; the server must hang up on us with a notice.
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read notice or EOF");
    let (_, snapshot) = server.join().expect("server thread").expect("serve");
    if n > 0 {
        assert!(line.contains("idle timeout"), "{line}");
    }
    assert_eq!(snapshot.counter(conn_counters::IDLE_DISCONNECTS), Some(1));
}

#[test]
fn the_shutdown_handle_drains_and_stops_an_unbounded_server() {
    let config = golden_config(1);
    let server = fpga_rt_service::SocketServer::bind(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        TransportConfig::default(),
    )
    .expect("bind");
    let endpoint = server.local_endpoint();
    let shutdown = server.shutdown_handle();
    let cfg = config;
    let handle = std::thread::spawn(move || server.serve(&cfg, Obs::off()));
    // One full replay while the server is unbounded (no max_conns)...
    let transcript = replay_over_socket(&endpoint, "{\"op\":\"query\"}\n");
    assert!(transcript.contains("\"ok\":true"));
    // ...then the flag alone must stop it.
    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    let (stats, _) = handle.join().expect("server thread").expect("serve");
    assert_eq!(stats.requests, 1);
}

#[test]
fn deeply_nested_lines_are_malformed_requests_not_a_crash() {
    let config = golden_config(1);
    let (endpoint, server) =
        start_server(&Endpoint::Tcp("127.0.0.1:0".into()), conns(1), config, Obs::off());
    // 300 KB of `[` (under the 1 MiB line limit), then a valid admit on the
    // same connection: one response each, in order, and the server lives.
    let deep = "[".repeat(300_000);
    let admit = r#"{"op":"admit","task":{"exec":1.0,"deadline":5.0,"period":5.0,"area":2}}"#;
    let transcript = replay_over_socket(&endpoint, &format!("{deep}\n{admit}\n"));
    let (stats, _) = server.join().expect("server thread").expect("serve");
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(lines.len(), 2, "{transcript}");
    assert!(
        lines[0].contains(r#""error":"malformed request: recursion limit exceeded at byte 128""#),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains(r#""seq":0"#), "{}", lines[0]);
    assert!(lines[1].contains(r#""seq":1"#), "{}", lines[1]);
    assert!(lines[1].contains(r#""ok":true,"verdict":"accept""#), "{}", lines[1]);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 1);
}
