//! Integration tests for the event-loop serving tier: pipelining (on
//! both front ends, byte-identical), explicit shedding, idle timeouts,
//! janitor cadence, and a many-session concurrency check.

use ktpm_closure::ClosureTables;
use ktpm_core::topk_full;
use ktpm_graph::fixtures::citation_graph;
use ktpm_graph::{LabeledGraph, Score};
use ktpm_net::{EventServer, NetConfig};
use ktpm_query::TreeQuery;
use ktpm_service::{QueryEngine, Server, ServiceConfig, ServiceHandle};
use ktpm_storage::MemStore;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn handle_with(config: ServiceConfig) -> ServiceHandle {
    let g = citation_graph();
    // Attach the data graph so `OPEN kgpm` sessions have an undirected
    // mirror to plan over; tree algorithms never look at it.
    let store = MemStore::new(ClosureTables::compute(&g))
        .with_graph(g.clone())
        .into_shared();
    QueryEngine::new(g.interner().clone(), store, config)
}

fn small_config() -> ServiceConfig {
    ServiceConfig::new().with_workers(2)
}

/// Oracle scores for the query both pipelining tests use.
fn oracle_scores(g: &LabeledGraph, query: &str, k: usize) -> Vec<Score> {
    let store = MemStore::new(ClosureTables::compute(g));
    let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
    topk_full(&q, &store, k).iter().map(|m| m.score).collect()
}

/// Writes every line back-to-back without reading anything, half-closes
/// the write side, and returns the complete response stream. This is
/// pipelining in its purest form: if the server required a round-trip
/// per request, or answered out of order, the returned text would show
/// it.
fn pipeline_exchange(addr: SocketAddr, lines: &[&str]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut batch = String::new();
    for l in lines {
        batch.push_str(l);
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).unwrap();
    stream.flush().unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

/// The pipelined script both front ends must answer identically. A
/// fresh engine assigns session ids 1, 2, ... so the `NEXT`/`CLOSE`
/// lines can target the ids the `OPEN`s *will* return.
const SCRIPT: &[&str] = &[
    "OPEN topk-en C -> E; C -> S",
    "NEXT 1 2",
    "NEXT 1 2",
    "NEXT 1 10",
    "OPEN topk C -> S",
    "NEXT 2 5",
    "CLOSE 2",
    "CLOSE 1",
    "NEXT 1 1",
];

fn check_script_response(resp: &str) {
    let lines: Vec<&str> = resp.lines().collect();
    // 9 requests; the three-batch NEXT sequence over the 5-match result
    // adds 2 + 2 + 1 match lines, and `NEXT 2 5` adds its own matches.
    assert_eq!(lines[0], "OK 1", "first OPEN");
    assert!(lines[1].starts_with("OK 2 MORE"), "{resp:?}");
    assert!(lines[4].starts_with("OK 2 MORE"), "{resp:?}");
    assert!(lines[7].starts_with("OK 1 DONE"), "{resp:?}");
    let g = citation_graph();
    let expected = oracle_scores(&g, "C -> E\nC -> S", 10);
    let got: Vec<Score> = lines
        .iter()
        .take(9)
        .filter(|l| l.starts_with("M "))
        .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(got, expected, "pipelined batches stream the oracle order");
    assert_eq!(lines[9], "OK 2", "second OPEN");
    assert!(lines[10].starts_with("OK "), "{resp:?}");
    assert_eq!(*lines.last().unwrap(), "ERR unknown-session 1");
    assert!(
        lines[lines.len() - 3..].starts_with(&["OK closed", "OK closed"]),
        "CLOSE responses arrive in order: {resp:?}"
    );
}

#[test]
fn pipelined_requests_answer_in_order_on_both_front_ends() {
    // Event loop.
    let ev = EventServer::spawn(
        handle_with(small_config()),
        ("127.0.0.1", 0),
        NetConfig::default(),
    )
    .unwrap();
    let ev_resp = pipeline_exchange(ev.local_addr(), SCRIPT);
    check_script_response(&ev_resp);

    // Legacy thread-per-connection path: same script, written fully
    // before any read.
    let legacy = Server::spawn(handle_with(small_config()), ("127.0.0.1", 0)).unwrap();
    let legacy_resp = pipeline_exchange(legacy.local_addr(), SCRIPT);
    check_script_response(&legacy_resp);

    // The acceptance bar: byte-identical response streams.
    assert_eq!(ev_resp, legacy_resp);

    ev.shutdown();
    legacy.shutdown();
}

#[test]
fn kgpm_patterns_stream_identically_on_both_front_ends() {
    // A cyclic graph pattern is not tree-parseable, so this exercises
    // the pattern branch of `OPEN` end to end over the wire. The
    // triangle has 12 matches on citation_graph; pull them in two
    // batches and drain.
    let script: &[&str] = &[
        "OPEN kgpm C -> E; E -> S; S -> C",
        "NEXT 1 4",
        "NEXT 1 100",
        "CLOSE 1",
    ];
    let ev = EventServer::spawn(
        handle_with(small_config()),
        ("127.0.0.1", 0),
        NetConfig::default(),
    )
    .unwrap();
    let ev_resp = pipeline_exchange(ev.local_addr(), script);

    let legacy = Server::spawn(handle_with(small_config()), ("127.0.0.1", 0)).unwrap();
    let legacy_resp = pipeline_exchange(legacy.local_addr(), script);

    assert_eq!(ev_resp, legacy_resp, "front ends agree byte-for-byte");

    let lines: Vec<&str> = ev_resp.lines().collect();
    assert_eq!(lines[0], "OK 1", "OPEN kgpm: {ev_resp:?}");
    let scores: Vec<Score> = lines
        .iter()
        .filter(|l| l.starts_with("M "))
        .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(scores.len(), 12, "triangle matches: {ev_resp:?}");
    let mut sorted = scores.clone();
    sorted.sort();
    assert_eq!(scores, sorted, "ranked order over the wire");
    assert!(
        lines.iter().any(|l| l.starts_with("OK 8 DONE")),
        "drain reports DONE: {ev_resp:?}"
    );

    ev.shutdown();
    legacy.shutdown();
}

#[test]
fn stats_over_the_wire_reports_paged_store_io() {
    // A paged-store-backed engine behind the event front end: STATS
    // must carry the io_* fields, with the block-cache counters showing
    // real traffic after a query and hits after a warm replay.
    let g = citation_graph();
    let tables = ClosureTables::compute(&g);
    let mut path = std::env::temp_dir();
    path.push(format!("ktpm-net-paged-{}.bin", std::process::id()));
    ktpm_storage::write_store_v3(&tables, &path, 2).unwrap();
    let store = ktpm_storage::PagedStore::open(&path).unwrap().into_shared();
    let handle = QueryEngine::new(g.interner().clone(), store, small_config());
    let server = EventServer::spawn(handle, ("127.0.0.1", 0), NetConfig::new()).unwrap();
    // Same query, two algorithms: the lazy session streams some blocks
    // (misses); the full-loading session then fetches every block of
    // the same pair tables, re-hitting the streamed ones. (An identical
    // second session would be served from the result cache and never
    // touch storage at all.)
    let script = [
        "OPEN topk-en C -> E; C -> S",
        "NEXT 1 10",
        "OPEN topk C -> E; C -> S",
        "NEXT 2 10",
        "STATS",
    ];
    let resp = pipeline_exchange(server.local_addr(), &script);
    let stats = resp
        .lines()
        .find(|l| l.contains("io_block_reads="))
        .unwrap_or_else(|| panic!("no io_ fields in {resp}"));
    let field = |name: &str| -> u64 {
        stats
            .split(&format!(" {name}="))
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .unwrap_or_else(|| panic!("{name} missing from {stats}"))
            .parse()
            .expect("numeric field")
    };
    assert!(field("io_block_reads") > 0, "{stats}");
    assert!(
        field("io_cache_misses") > 0,
        "cold streaming fetches blocks"
    );
    assert!(
        field("io_cache_hits") > 0,
        "the full load replays the lazily-streamed blocks warm: {stats}"
    );
    assert!(field("io_cache_bytes_resident") > 0);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn overload_sheds_in_order_with_err_overloaded() {
    let handle = handle_with(small_config());
    let server = EventServer::spawn(
        handle.clone(),
        ("127.0.0.1", 0),
        NetConfig::new().with_workers(1).with_max_pipeline(1),
    )
    .unwrap();
    // A burst can race the (fast) worker draining the queue, so sheds
    // are not guaranteed on any single attempt — but with a pipeline
    // bound of 1 and 300 requests landing in one segment, a handful of
    // attempts is plenty.
    let burst: Vec<&str> = std::iter::repeat_n("STATS", 300).collect();
    let mut shed_seen = false;
    for _ in 0..20 {
        let resp = pipeline_exchange(server.local_addr(), &burst);
        let lines: Vec<&str> = resp.lines().collect();
        // Completeness + order even under shedding: one response per
        // request, each either served or shed, nothing dropped.
        assert_eq!(lines.len(), burst.len(), "every request gets an answer");
        assert!(lines
            .iter()
            .all(|l| l.starts_with("OK sessions_active=") || *l == "ERR overloaded"));
        if resp.contains("ERR overloaded") {
            shed_seen = true;
            break;
        }
    }
    assert!(shed_seen, "bounded queue never shed across 20 floods");
    let m = handle.stats().metrics;
    assert!(m.shed_total > 0, "sheds are counted");
    assert_eq!(m.errors, 0, "sheds are not engine errors");
    server.shutdown();
}

#[test]
fn event_loop_closes_idle_connections_but_keeps_sessions() {
    let handle = handle_with(small_config().with_idle_timeout(Some(Duration::from_millis(150))));
    let server = EventServer::spawn(handle, ("127.0.0.1", 0), NetConfig::default()).unwrap();
    let mut first = TcpStream::connect(server.local_addr()).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(first.try_clone().unwrap());
    writeln!(first, "OPEN topk-en C -> E; C -> S").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert_eq!(resp.trim(), "OK 1");
    // Go quiet: the server must hang up (EOF, not a client timeout).
    let mut rest = String::new();
    let start = Instant::now();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "idle close must come from the server, not the read timeout"
    );
    // The session outlives its connection: resume it from a new one.
    let resp = pipeline_exchange(server.local_addr(), &["NEXT 1 100"]);
    assert!(resp.starts_with("OK 5 DONE"), "{resp:?}");
    server.shutdown();
}

#[test]
fn legacy_server_times_out_idle_connections() {
    // Satellite: the thread-per-connection path used to block in
    // `read_line` forever, pinning a thread per idle client. With
    // `idle_timeout` it must hang up on its own.
    let handle = handle_with(small_config().with_idle_timeout(Some(Duration::from_millis(150))));
    let server = Server::spawn(handle.clone(), ("127.0.0.1", 0)).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(stream, "STATS").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.starts_with("OK "), "{resp:?}");
    let mut rest = String::new();
    let start = Instant::now();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closes with no parting message");
    assert!(start.elapsed() < Duration::from_secs(8));
    // The handler thread released the connection gauge on its way out.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().metrics.connections_active != 0 {
        assert!(Instant::now() < deadline, "connection gauge never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn janitor_sweep_interval_is_config_not_hardcoded() {
    // A sweep interval far beyond the test: sessions past their TTL
    // stay resident because the janitor never fires (the old hard-coded
    // 200 ms sweep would have evicted). Shutdown must still be prompt.
    let slow = handle_with(
        small_config()
            .with_session_ttl(Duration::from_millis(20))
            .with_sweep_interval(Duration::from_secs(3600)),
    );
    let server = Server::spawn(slow.clone(), ("127.0.0.1", 0)).unwrap();
    let resp = pipeline_exchange(server.local_addr(), &["OPEN topk C -> E"]);
    assert_eq!(resp.trim(), "OK 1");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        slow.stats().sessions_active,
        1,
        "an hour-long sweep interval must not evict at 200 ms"
    );
    let shutdown_start = Instant::now();
    server.shutdown();
    assert!(
        shutdown_start.elapsed() < Duration::from_secs(5),
        "shutdown does not wait out the sweep interval"
    );

    // A tight interval evicts promptly — on the event loop's janitor
    // this time, which shares the config field.
    let fast = handle_with(
        small_config()
            .with_session_ttl(Duration::from_millis(20))
            .with_sweep_interval(Duration::from_millis(10)),
    );
    let server = EventServer::spawn(fast.clone(), ("127.0.0.1", 0), NetConfig::default()).unwrap();
    let resp = pipeline_exchange(server.local_addr(), &["OPEN topk C -> E"]);
    assert_eq!(resp.trim(), "OK 1");
    let deadline = Instant::now() + Duration::from_secs(5);
    while fast.stats().sessions_active != 0 {
        assert!(Instant::now() < deadline, "janitor never swept");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn oversized_request_lines_close_the_connection_with_an_error() {
    let server = EventServer::spawn(
        handle_with(small_config()),
        ("127.0.0.1", 0),
        NetConfig::new().with_max_line_len(256),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&[b'x'; 4096]).unwrap(); // no newline, ever
    stream.flush().unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert_eq!(out, "ERR line-too-long\n");
    server.shutdown();
}

// Elsewhere than Unix the reactor sleeps the poll interval.
#[cfg(unix)]
#[test]
fn no_request_path_waits_for_the_poll_timeout() {
    // A poll timeout three times the whole budget: every step below is
    // woken by a ready socket or a worker's wakeup, or it fails.
    let budget = Duration::from_secs(10);
    let start = Instant::now();
    let within_budget = |step: &str| {
        let elapsed = start.elapsed();
        assert!(elapsed < budget, "{step}: {elapsed:?} elapsed");
    };
    let slow = NetConfig::new().with_poll_interval(Duration::from_secs(30));
    let server =
        EventServer::spawn(handle_with(small_config()), ("127.0.0.1", 0), slow.clone()).unwrap();

    // Ping-pong: each response is flushed on its worker's wakeup.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(budget)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..200 {
        writeln!(stream, "STATS").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.starts_with("OK sessions_active="), "{resp:?}");
    }
    drop((stream, reader));
    within_budget("200 sequential STATS");

    // Half-closed after a pipeline: the close waits for the worker to
    // let the drained connection go.
    check_script_response(&pipeline_exchange(server.local_addr(), SCRIPT));
    within_budget("EOF-drained close");

    let tight = EventServer::spawn(
        handle_with(small_config()),
        ("127.0.0.1", 0),
        slow.with_max_pipeline(1).with_max_line_len(256),
    )
    .unwrap();
    // An oversized line behind a request: the reactor drops the queued
    // request, and the worker it was handed to releases the connection
    // without answering. About one time in three the reactor has already
    // gone back to `poll` by then, and only that release wakes it to
    // close; twenty tries make that case all but certain.
    for _ in 0..20 {
        let mut stream = TcpStream::connect(tight.local_addr()).unwrap();
        stream.set_read_timeout(Some(budget)).unwrap();
        let mut flood = b"STATS\n".to_vec();
        flood.resize(4096, b'x');
        stream.write_all(&flood).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.lines().any(|l| l == "ERR line-too-long"), "{out:?}");
    }
    within_budget("max_line_len close");

    // A flood past the hard pending cap pauses the socket; the workers
    // draining the queue must get it read again.
    let burst: Vec<&str> = std::iter::repeat_n("STATS", 300).collect();
    let lines = pipeline_exchange(tight.local_addr(), &burst)
        .lines()
        .count();
    assert_eq!(lines, burst.len(), "every request gets an answer");
    within_budget("paused-socket resume");

    server.shutdown();
    tight.shutdown();
    within_budget("shutdown");
}

/// The acceptance-criteria concurrency check: hundreds of concurrent
/// open sessions, all driven with pipelined `NEXT`, correct matches,
/// zero sheds, zero errors.
#[test]
fn five_hundred_concurrent_pipelined_sessions() {
    const CONNS: usize = 64;
    const SESSIONS_PER_CONN: usize = 8; // 512 concurrent sessions
    let handle = handle_with(ServiceConfig::new().with_workers(4));
    let server =
        EventServer::spawn(handle.clone(), ("127.0.0.1", 0), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let g = citation_graph();
    let expected = oracle_scores(&g, "C -> E\nC -> S", 10);

    let clients: Vec<_> = (0..CONNS)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                // Phase 1: pipeline all OPENs, then read the ids.
                let mut batch = String::new();
                for _ in 0..SESSIONS_PER_CONN {
                    batch.push_str("OPEN topk-en C -> E; C -> S\n");
                }
                writer.write_all(batch.as_bytes()).unwrap();
                let mut ids = Vec::new();
                for _ in 0..SESSIONS_PER_CONN {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    ids.push(
                        line.trim()
                            .strip_prefix("OK ")
                            .unwrap_or_else(|| panic!("OPEN failed: {line:?}"))
                            .to_string(),
                    );
                }
                // Phase 2: rounds of pipelined NEXT across every
                // session; collect each session's score sequence.
                let mut scores: Vec<Vec<Score>> = vec![Vec::new(); ids.len()];
                for _round in 0..3 {
                    let mut batch = String::new();
                    for id in &ids {
                        batch.push_str(&format!("NEXT {id} 2\n"));
                    }
                    writer.write_all(batch.as_bytes()).unwrap();
                    for s in scores.iter_mut() {
                        let mut header = String::new();
                        reader.read_line(&mut header).unwrap();
                        let count: usize = header
                            .split_whitespace()
                            .nth(1)
                            .and_then(|c| c.parse().ok())
                            .unwrap_or_else(|| panic!("bad NEXT header {header:?}"));
                        for _ in 0..count {
                            let mut m = String::new();
                            reader.read_line(&mut m).unwrap();
                            s.push(m.split_whitespace().nth(1).unwrap().parse().unwrap());
                        }
                    }
                }
                for s in &scores {
                    assert_eq!(*s, expected, "pipelined session diverged from oracle");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let stats = handle.stats();
    assert_eq!(
        stats.sessions_active,
        CONNS * SESSIONS_PER_CONN,
        "all sessions concurrently open"
    );
    assert_eq!(stats.metrics.shed_total, 0, "nominal load must not shed");
    assert_eq!(stats.metrics.errors, 0);
    // Clients hung up; the reactor notices EOFs and drains the gauge.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().metrics.connections_active != 0 {
        assert!(Instant::now() < deadline, "connection gauge never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}
