//! End-to-end distributed serving: `ktpm serve --store tcp://…`
//! semantics. A serving tier backed by a [`RemoteStore`] talking to a
//! `blockd` block server over a sharded snapshot must answer
//! `OPEN`/`NEXT` byte-identically to the same tier over a single-file
//! [`PagedStore`] — and a blockd crash mid-`NEXT` must surface as an
//! `ERR` with a stable code word: no hang, no panic, no partial stream
//! passed off as complete.

use ktpm::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn tempdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ktpm-remote-serve-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_file(&p).ok();
    p
}

/// Deterministic multi-label weighted graph with enough matches that a
/// session stays open across several NEXT batches.
fn dense_graph(n: usize, labels: usize) -> LabeledGraph {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = GraphBuilder::new();
    let nodes: Vec<_> = (0..n)
        .map(|i| b.add_node(&format!("L{}", i % labels)))
        .collect();
    for u in 0..n {
        for _ in 0..4 {
            let v = (next() % n as u64) as usize;
            if v != u {
                b.add_edge(nodes[u], nodes[v], (next() % 5 + 1) as u32);
            }
        }
    }
    b.build().unwrap()
}

const QUERY: &str = "L0 -> L1; L0 -> L2";

/// Writes all lines pipelined, half-closes, returns the full response.
fn exchange(addr: SocketAddr, lines: &[&str]) -> String {
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
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn remote_tier_is_byte_identical_to_local_paged_serving() {
    let g = dense_graph(48, 5);
    let tables = ClosureTables::compute(&g);

    // The same snapshot twice: one single v5 file, one 3-way sharded.
    let file = tempdir("local.tc");
    write_store(&tables, &file).unwrap();
    let dir = tempdir("sharded");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 8).unwrap();

    let script = [
        &format!("OPEN topk-en {QUERY}") as &str,
        "NEXT 1 3",
        "NEXT 1 3",
        "NEXT 1 50",
        &format!("OPEN topk {QUERY}"),
        "NEXT 2 5",
        "CLOSE 2",
        "CLOSE 1",
    ];

    // Local single-file tier.
    let local_store = open_store_auto(&file, None).unwrap();
    let local_engine = QueryEngine::new(
        g.interner().clone(),
        local_store,
        ServiceConfig::new().with_workers(2),
    );
    let local_srv = Server::spawn(local_engine, ("127.0.0.1", 0)).unwrap();
    let local_resp = exchange(local_srv.local_addr(), &script);

    // Remote tier: blockd over the sharded snapshot, RemoteStore client.
    let blockd = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();
    let remote_store = open_store_uri(&format!("tcp://{}", blockd.local_addr()), None).unwrap();
    let remote_engine = QueryEngine::new(
        g.interner().clone(),
        remote_store,
        ServiceConfig::new().with_workers(2),
    );
    let remote_srv = Server::spawn(remote_engine, ("127.0.0.1", 0)).unwrap();
    let remote_resp = exchange(remote_srv.local_addr(), &script);

    assert!(
        local_resp.lines().any(|l| l.starts_with("M ")),
        "the script must stream matches: {local_resp:?}"
    );
    assert_eq!(
        local_resp, remote_resp,
        "remote serving must be byte-identical to local"
    );

    // The remote tier's STATS surface the remote counters.
    let stats = exchange(remote_srv.local_addr(), &["STATS"]);
    let field = |name: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("{name} missing from {stats:?}"))
            .parse()
            .unwrap()
    };
    assert!(field("io_remote_fetches") > 0);
    assert!(field("io_remote_bytes") > 0);
    assert_eq!(field("io_remote_errors"), 0);
    assert!(field("io_files_opened") > 0);
    blockd.shutdown();
    std::fs::remove_file(&file).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn blockd_crash_mid_next_yields_a_stable_err_code_not_a_hang() {
    let g = dense_graph(48, 5);
    let tables = ClosureTables::compute(&g);
    let dir = tempdir("crash");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 2), 2).unwrap();
    let blockd = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();

    // Fast-failing client with nothing resident: every NEXT re-reads
    // over the network, so a dead blockd is noticed immediately.
    let store = RemoteStore::connect_with(
        &blockd.local_addr().to_string(),
        ktpm::storage::RemoteOptions {
            connect_timeout: Duration::from_millis(300),
            request_timeout: Duration::from_millis(300),
            attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            cache_bytes: 1,
            ..ktpm::storage::RemoteOptions::default()
        },
    )
    .unwrap()
    .into_shared();
    let engine = QueryEngine::new(
        g.interner().clone(),
        store,
        ServiceConfig::new().with_workers(2),
    );
    let srv = Server::spawn(engine, ("127.0.0.1", 0)).unwrap();

    let stream = TcpStream::connect(srv.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    let mut send = |line: &str| {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    };
    let mut recv = || {
        let mut l = String::new();
        reader.read_line(&mut l).unwrap();
        l.trim_end().to_string()
    };

    send(&format!("OPEN topk-en {QUERY}"));
    assert_eq!(recv(), "OK 1");
    // A NEXT response is `OK <count> MORE|DONE` followed by `<count>`
    // match lines.
    send("NEXT 1 2");
    let header = recv();
    assert_eq!(header, "OK 2 MORE", "the healthy tier streams matches");
    for _ in 0..2 {
        let l = recv();
        assert!(l.starts_with("M "), "{l:?}");
    }

    // Kill the block server mid-session, then keep pulling.
    blockd.shutdown();
    send("NEXT 1 2");
    let l = recv();
    assert!(
        l.starts_with("ERR remote-unavailable "),
        "a dead blockd must fail with its stable code word, got {l:?}"
    );
    // The session is poisoned: the error is sticky, never a partial
    // stream pretending to be complete.
    send("NEXT 1 2");
    let l = recv();
    assert!(l.starts_with("ERR remote-unavailable "), "{l:?}");
    std::fs::remove_dir_all(&dir).ok();
}
