//! Block-server integration suite: a [`RemoteStore`] talking to an
//! in-process [`BlockServer`] over localhost must be element-for-element
//! identical to the local backends, survive a server crash mid-stream
//! with a clean [`StorageError::Remote`] (never a hang or panic), and
//! catch served bit flips with its client-side CRC. The server's own
//! transport — one thread per connection — must shut down with clients
//! blocked on it, never let one stalled connection hold up another,
//! drop a peer announcing an oversized request, and leave nothing
//! behind per closed connection.

use ktpm_closure::ClosureTables;
use ktpm_core::{QueryPlan, TopkEnEnumerator, TopkEnumerator};
use ktpm_graph::fixtures::label_star;
use ktpm_graph::{GraphBuilder, LabelId, LabeledGraph, NodeId};
use ktpm_net::BlockServer;
use ktpm_query::{ResolvedQuery, TreeQuery};
use ktpm_storage::{
    blockproto, open_store_uri, write_store, write_store_sharded, ClosureSource, MemStore,
    PagedStore, RemoteOptions, RemoteStore, Sections, ShardSpec, ShardedStore, StorageError,
    INDEX_PAGE_ENTRIES,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tempdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ktpm-blockd-test-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_file(&p).ok();
    p
}

/// Deterministic multi-label weighted graph with enough pairs and
/// blocks to exercise routing and the cache.
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

/// Fast-failing client options so fault tests finish quickly.
fn fast_opts() -> RemoteOptions {
    RemoteOptions {
        connect_timeout: Duration::from_millis(300),
        request_timeout: Duration::from_millis(300),
        attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        ..RemoteOptions::default()
    }
}

fn check_equivalent(mem: &MemStore, other: &dyn ClosureSource) {
    assert_eq!(mem.num_nodes(), other.num_nodes());
    for i in 0..mem.num_nodes() {
        let v = NodeId(i as u32);
        assert_eq!(mem.node_label(v), other.node_label(v));
    }
    assert_eq!(mem.pair_keys(), other.pair_keys());
    for (a, b) in mem.pair_keys() {
        assert_eq!(mem.load_d(a, b), other.load_d(a, b), "D table {a:?}->{b:?}");
        assert_eq!(mem.load_e(a, b), other.load_e(a, b), "E table {a:?}->{b:?}");
        let mut pm = mem.load_pair(a, b);
        let mut po = other.load_pair(a, b);
        pm.sort_unstable();
        po.sort_unstable();
        assert_eq!(pm, po, "L table {a:?}->{b:?}");
    }
    for u in 0..mem.num_nodes() {
        for v in 0..mem.num_nodes() {
            let (u, v) = (NodeId(u as u32), NodeId(v as u32));
            assert_eq!(mem.lookup_dist(u, v), other.lookup_dist(u, v));
        }
    }
}

#[test]
fn remote_store_matches_mem_over_a_sharded_snapshot() {
    let g = dense_graph(36, 5);
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone());
    let dir = tempdir("equiv");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 4).unwrap();
    let server = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();
    let store = RemoteStore::connect(&server.local_addr().to_string()).unwrap();
    check_equivalent(&mem, &store);
    assert!(store.take_error().is_none(), "no swallowed errors");
    let io = store.io();
    assert!(io.remote_fetches > 0 && io.remote_bytes > 0);
    assert_eq!(io.remote_retries, 0);
    assert_eq!(io.remote_errors, 0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_page_boundaries_read_like_memory_on_every_paged_tier() {
    // `label_star(m)` has exactly m label pairs, so m walks the paged
    // index across its edges: no page, one entry, one short of a page,
    // a page exactly, one past it, two pages and one past. Every tier
    // that reads the paged index — a local file, a 2-shard snapshot, a
    // block server — must answer like memory, for present keys and for
    // absent ones before, between and after the fence keys.
    let p = INDEX_PAGE_ENTRIES;
    for m in [0, 1, p - 1, p, p + 1, 2 * p + 1] {
        let tables = ClosureTables::compute(&label_star(m));
        let mem = MemStore::new(tables.clone());
        assert_eq!(mem.pair_keys().len(), m, "the fixture has {m} pairs");
        let file = tempdir(&format!("star-{m}.tc"));
        write_store(&tables, &file).unwrap();
        let dir = tempdir(&format!("star-{m}"));
        write_store_sharded(&tables, &dir, &ShardSpec::new(0, 2), 4).unwrap();
        let server = BlockServer::spawn(&file, ("127.0.0.1", 0)).unwrap();
        let tiers: [(&str, Box<dyn ClosureSource>); 3] = [
            ("paged", Box::new(PagedStore::open(&file).unwrap())),
            (
                "sharded",
                Box::new(ShardedStore::open(&dir.join("MANIFEST")).unwrap()),
            ),
            (
                "remote",
                Box::new(RemoteStore::connect(&server.local_addr().to_string()).unwrap()),
            ),
        ];
        let label = |i: usize| LabelId(i as u32);
        let mut absent = vec![(label(0), label(0)), (label(0), label(2 * m + 1))];
        absent.extend((0..m).map(|i| (label(0), label(2 * i + 2))));
        absent.extend([(label(1), label(0)), (label(2 * m + 1), label(0))]);
        for (tier, store) in &tiers {
            assert_eq!(store.pair_keys(), mem.pair_keys(), "{tier}, m = {m}");
            for (a, b) in mem.pair_keys() {
                assert!(store.has_pair(a, b), "{tier}, m = {m}: ({a:?}, {b:?})");
                assert_eq!(store.load_d(a, b), mem.load_d(a, b), "{tier}, m = {m}");
                assert_eq!(store.load_e(a, b), mem.load_e(a, b), "{tier}, m = {m}");
                assert_eq!(
                    store.load_pair(a, b),
                    mem.load_pair(a, b),
                    "{tier}, m = {m}"
                );
            }
            for &(a, b) in &absent {
                assert!(!store.has_pair(a, b), "{tier}, m = {m}: ({a:?}, {b:?})");
                assert!(store.load_d(a, b).is_empty(), "{tier}, m = {m}");
            }
            assert!(store.take_error().is_none(), "{tier}, m = {m}");
        }
        drop(tiers);
        server.shutdown();
        std::fs::remove_file(&file).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn blockd_serves_a_plain_v3_file_too() {
    // `load_snapshot_manifest` synthesizes a one-shard manifest for a
    // single-file snapshot, so blockd can serve any store path.
    let g = dense_graph(24, 4);
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone());
    let path = tempdir("single.tc");
    write_store(&tables, &path).unwrap();
    let server = BlockServer::spawn(&path, ("127.0.0.1", 0)).unwrap();
    let store = RemoteStore::connect(&server.local_addr().to_string()).unwrap();
    assert_eq!(store.manifest().shards.len(), 1);
    check_equivalent(&mem, &store);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn warm_cache_answers_without_any_remote_reads() {
    let g = dense_graph(30, 4);
    let tables = ClosureTables::compute(&g);
    let dir = tempdir("warm");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 2), 4).unwrap();
    let server = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();
    // Unlimited budget: one cold pass makes every block resident.
    let store = RemoteStore::connect_with(
        &server.local_addr().to_string(),
        RemoteOptions {
            cache_bytes: 0,
            ..RemoteOptions::default()
        },
    )
    .unwrap();
    for (a, b) in store.pair_keys() {
        store.load_d(a, b);
        store.load_e(a, b);
        store.load_pair(a, b);
    }
    let cold = store.io().remote_fetches;
    assert!(cold > 0);
    for (a, b) in store.pair_keys() {
        store.load_d(a, b);
        store.load_e(a, b);
        store.load_pair(a, b);
    }
    let warm = store.io();
    assert_eq!(
        warm.remote_fetches, cold,
        "warm reads must not touch the network"
    );
    assert!(warm.cache_hits > 0);
    // The server agrees: its fetch counter matches what the client paid.
    let stats = store.server_stats().unwrap();
    assert!(stats.contains("fetches="), "{stats}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killing_blockd_mid_stream_degrades_cleanly_and_recovers_nothing_stale() {
    let g = dense_graph(30, 4);
    let tables = ClosureTables::compute(&g);
    let dir = tempdir("kill");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 2), 2).unwrap();
    let server = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();
    let store = RemoteStore::connect_with(
        &server.local_addr().to_string(),
        RemoteOptions {
            cache_bytes: 1, // nothing stays resident: every read refetches
            ..fast_opts()
        },
    )
    .unwrap();
    let pairs = store.pair_keys();
    let (a, b) = pairs[0];
    assert!(!store.load_d(a, b).is_empty(), "server is up");
    // A second store builds a plan's lazy half, prefetch included,
    // while the server is up; its cursors have pulled nothing yet.
    let planned = RemoteStore::connect_with(&server.local_addr().to_string(), fast_opts())
        .unwrap()
        .into_shared();
    let plan = QueryPlan::new(resolve(&g, "L0 -> L1\nL0 -> L2\nL1 -> L3"), planned.clone());
    let stream = TopkEnEnumerator::from_plan(&plan);
    let fetched = planned.io().remote_fetches;

    server.shutdown();

    // The server died between the prefetch and the first cursor pull:
    // the stream ends (truncated) instead of hanging, and says why.
    let streamed = stream.count();
    assert_eq!(planned.io().remote_fetches, fetched, "nothing more arrived");
    match planned.take_error() {
        Some(StorageError::Remote { detail, .. }) => {
            assert!(detail.contains("attempt"), "{detail}")
        }
        other => panic!("expected StorageError::Remote after {streamed} match(es), got {other:?}"),
    }

    // Every further read returns empty — no panic, no hang — and the
    // first failure is retrievable as a Remote error.
    for &(a, b) in &pairs {
        let _ = store.load_d(a, b);
        let _ = store.load_pair(a, b);
    }
    let err = store.take_error().expect("failure must be recorded");
    match &err {
        StorageError::Remote { addr, detail } => {
            assert!(!addr.is_empty());
            assert!(detail.contains("attempt"), "{detail}");
        }
        other => panic!("expected StorageError::Remote, got {other}"),
    }
    assert!(store.io().remote_errors > 0);
    assert!(store.io().remote_retries > 0, "retries were attempted");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn served_bit_flip_is_caught_by_client_crc_retried_once_then_surfaced() {
    let g = dense_graph(30, 4);
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone());
    let dir = tempdir("flip");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 2), 4).unwrap();
    let server = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();
    // A 1-byte budget keeps nothing resident, so every group read goes
    // back to the network (the per-pair directory cache still warms).
    let store = RemoteStore::connect_with(
        &server.local_addr().to_string(),
        RemoteOptions {
            cache_bytes: 1,
            ..fast_opts()
        },
    )
    .unwrap();
    let (a, b) = store
        .pair_keys()
        .into_iter()
        .find(|&(a, b)| !mem.load_pair(a, b).is_empty())
        .expect("a nonempty pair");
    let oracle = {
        let mut p = mem.load_pair(a, b);
        p.sort_unstable();
        p
    };
    let sorted = |mut p: Vec<_>| {
        p.sort_unstable();
        p
    };
    assert_eq!(sorted(store.load_pair(a, b)), oracle, "clean server");

    // One poisoned response: the block CRC catches it client-side
    // and the single paged-layer re-fetch gets clean bytes — the read
    // succeeds and matches the oracle.
    server.inject_bit_flips(1);
    assert_eq!(sorted(store.load_pair(a, b)), oracle);
    assert!(store.take_error().is_none(), "one flip is absorbed");
    assert!(store.io().remote_retries > 0, "the re-fetch is counted");

    // Persistent corruption: the retry budget exhausts, the read
    // degrades instead of returning wrong bytes, and the failure
    // surfaces through the error slot.
    server.inject_bit_flips(u32::MAX);
    assert_ne!(sorted(store.load_pair(a, b)), oracle);
    let err = store.take_error().expect("corruption is recorded");
    assert!(
        matches!(
            err,
            StorageError::Corrupt { .. } | StorageError::Remote { .. }
        ),
        "unexpected error {err}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `text` parsed and resolved against `g`'s labels.
fn resolve(g: &LabeledGraph, text: &str) -> ResolvedQuery {
    TreeQuery::parse(text).unwrap().resolve(g.interner())
}

#[test]
fn a_flipped_range_in_a_prefetch_batch_is_read_again_within_the_round() {
    // A served bit flip inside a prefetch batch: the range fails its
    // section CRC, so the round reads it once more, alone — one more
    // round trip, counted as the one re-read — and keeps it. Nothing is
    // recorded, every later read finds what it found without the flip,
    // and the stream is memory's.
    let g = dense_graph(30, 4);
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone()).into_shared();
    let path = tempdir("prefetch-flip.tc");
    write_store(&tables, &path).unwrap();
    let server = BlockServer::spawn(&path, ("127.0.0.1", 0)).unwrap();
    let q = resolve(&g, "L0 -> L1\nL0 -> L2\nL1 -> L3");
    let want: Vec<_> = TopkEnEnumerator::from_plan(&QueryPlan::new(q.clone(), mem)).collect();
    assert!(!want.is_empty());
    let run = |flips: u32| {
        let store = RemoteStore::connect_with(&server.local_addr().to_string(), fast_opts())
            .unwrap()
            .into_shared();
        // Open the one store file and read its one index page, off the
        // query's pairs: the prefetch's first batch is then its
        // sections, and the flip lands on the first of them.
        assert!(store.has_pair(LabelId(3), LabelId(0)));
        assert!(!store.load_d(LabelId(3), LabelId(0)).is_empty());
        server.inject_bit_flips(flips);
        let plan = QueryPlan::new(q.clone(), store.clone());
        let got: Vec<_> = TopkEnEnumerator::from_plan(&plan).collect();
        assert_eq!(got, want, "{flips} flip(s)");
        assert!(
            store.take_error().is_none(),
            "{flips} flip(s): nothing recorded"
        );
        store.io()
    };
    let (clean, flipped) = (run(0), run(1));
    assert_eq!(clean.remote_retries, 0);
    assert_eq!(flipped.remote_retries, 1, "the flipped range, read again");
    assert_eq!(flipped.remote_fetches, clean.remote_fetches + 1);
    assert_eq!(
        flipped.cache_hits, clean.cache_hits,
        "the flipped range was cached in the round"
    );
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn cold_remote_plans_stream_like_memory_in_a_few_batches() {
    // Over a 3-file snapshot behind a block server, a cold plan of
    // either half streams memory's matches; its prefetch makes the
    // half's table and block reads a handful of round trips.
    let g = dense_graph(36, 5);
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone()).into_shared();
    let dir = tempdir("prefetch-plans");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 4).unwrap();
    let server = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();
    let q = resolve(&g, "L0 -> L1\nL0 -> L2\nL1 -> L3\nL2 -> L4\nL3 -> L0#2");
    let mem_plan = QueryPlan::new(q.clone(), mem);
    let want: Vec<_> = TopkEnumerator::from_plan(&mem_plan).collect();
    assert!(!want.is_empty());
    let connect = || {
        RemoteStore::connect(&server.local_addr().to_string())
            .unwrap()
            .into_shared()
    };
    let store = connect();
    let plan = QueryPlan::new(q.clone(), store.clone());
    let before = store.io().remote_fetches;
    let stream = TopkEnEnumerator::from_plan(&plan);
    let lazy = store.io().remote_fetches - before;
    assert_eq!(stream.collect::<Vec<_>>(), want);
    let store = connect();
    let plan = QueryPlan::new(q, store.clone());
    let before = store.io().remote_fetches;
    plan.runtime_graph();
    let full = store.io().remote_fetches - before;
    assert_eq!(TopkEnumerator::from_plan(&plan).collect::<Vec<_>>(), want);
    // At most three files: an open of two batches, then two (lazy) or
    // three (full) rounds each.
    assert!(lazy <= 3 * (2 + 2), "lazy half: {lazy} round trips");
    assert!(full <= 3 * (2 + 3), "full half: {full} round trips");
    assert!(store.take_error().is_none());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A 120-node graph over 30 labels: ≈ 900 label pairs, so a store's
/// paged index spans about seven pages.
fn paged_graph() -> LabeledGraph {
    dense_graph(120, 30)
}

/// The index page `key` lives on in a single file holding `keys`.
fn page_of(keys: &[(LabelId, LabelId)], key: (LabelId, LabelId)) -> usize {
    keys.binary_search(&key).expect("a stored pair") / INDEX_PAGE_ENTRIES
}

#[test]
fn a_cold_plan_half_announces_its_pairs_before_it_probes_them() {
    // Over one remote file, each half's edge probes land on several
    // index pages. The half hands its candidate pairs to its prefetch
    // first, so those pages arrive in its first round instead of one
    // demand `FETCH` each: an open of two batches, then two (lazy) or
    // three (full) rounds.
    let g = paged_graph();
    let tables = ClosureTables::compute(&g);
    let keys = MemStore::new(tables.clone()).pair_keys();
    let mem = MemStore::new(tables.clone()).into_shared();
    let path = tempdir("probe-order.tc");
    write_store(&tables, &path).unwrap();
    let server = BlockServer::spawn(&path, ("127.0.0.1", 0)).unwrap();
    let q = resolve(&g, "L0 -> L7\nL7 -> L14\nL14 -> L21\nL21 -> L28");
    let pages: std::collections::BTreeSet<usize> = [(0, 7), (7, 14), (14, 21), (21, 28)]
        .into_iter()
        .map(|(a, b)| page_of(&keys, (LabelId(a), LabelId(b))))
        .collect();
    assert!(pages.len() >= 3, "the edges land on pages {pages:?}");
    let want: Vec<_> = TopkEnumerator::from_plan(&QueryPlan::new(q.clone(), mem))
        .take(200)
        .collect();
    assert!(!want.is_empty());
    let connect = || {
        RemoteStore::connect(&server.local_addr().to_string())
            .unwrap()
            .into_shared()
    };
    let store = connect();
    let plan = QueryPlan::new(q.clone(), store.clone());
    let before = store.io().remote_fetches;
    let stream = TopkEnEnumerator::from_plan(&plan);
    let lazy = store.io().remote_fetches - before;
    assert_eq!(stream.take(200).collect::<Vec<_>>(), want);
    let store = connect();
    let plan = QueryPlan::new(q, store.clone());
    let before = store.io().remote_fetches;
    plan.runtime_graph();
    let full = store.io().remote_fetches - before;
    assert_eq!(
        TopkEnumerator::from_plan(&plan)
            .take(200)
            .collect::<Vec<_>>(),
        want
    );
    assert_eq!((lazy, full), (2 + 2, 2 + 3), "round trips (lazy, full)");
    assert!(store.take_error().is_none());
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn wildcard_queries_over_tcp_read_each_file_s_index_in_one_batch() {
    // A wildcard edge enumerates the store's pair keys, which a snapshot
    // keeps only in its shard files' paged indexes: each file is opened
    // (two batches) and its unread index pages arrive in one more batch,
    // never one round trip a page. The streams are memory's.
    let g = paged_graph();
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone());
    let keys = mem.pair_keys();
    assert!(
        keys.len() / 3 > 2 * INDEX_PAGE_ENTRIES,
        "{} pairs: each of three files spans three pages",
        keys.len()
    );
    let mem = mem.into_shared();
    let dir = tempdir("wildcard");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 4).unwrap();
    let server = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();
    let connect = || RemoteStore::connect(&server.local_addr().to_string()).unwrap();

    let store = connect();
    let before = store.io().remote_fetches;
    assert_eq!(store.pair_keys(), keys);
    let cost = store.io().remote_fetches - before;
    assert_eq!(store.files_open(), 3);
    assert!(cost <= 3 * (2 + 1), "pair_keys: {cost} round trips");

    let q = resolve(&g, "L0 -> *#1\nL0 -> L7\n*#1 -> L14");
    let want: Vec<_> = TopkEnumerator::from_plan(&QueryPlan::new(q.clone(), mem))
        .take(200)
        .collect();
    assert!(!want.is_empty());
    let lazy = connect().into_shared();
    let plan = QueryPlan::new(q.clone(), lazy.clone());
    let got: Vec<_> = TopkEnEnumerator::from_plan(&plan).take(200).collect();
    assert_eq!(got, want, "topk-en over tcp://");
    let full = connect().into_shared();
    let plan = QueryPlan::new(q, full.clone());
    let got: Vec<_> = TopkEnumerator::from_plan(&plan).take(200).collect();
    assert_eq!(got, want, "topk over tcp://");
    for store in [lazy, full] {
        assert!(store.take_error().is_none());
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Round trips a cold `Topk-EN` session may make over `tcp://` after
/// its plan half's (7–10 on the queries below, against 110–159
/// single-block reads over the local file): the cursor opens whose runs
/// entered `Q_g` only after an earlier read-ahead, each a round trip
/// that reads the next runs ahead again.
const CURSOR_TRIPS: u64 = 12;

#[test]
fn topk_en_over_tcp_reads_its_cursors_ahead_in_a_few_round_trips() {
    // Topk-EN opens its cursors one at a time, in `Q_g` order. Over
    // tcp:// a cold open fetches its own first block and those of the
    // next runs on `Q_g` in one FETCH, so each session streams memory's
    // matches, loads the same edges as over the local file, and makes
    // at most CURSOR_TRIPS round trips after its plan half's — where
    // the local file reads one block per cursor open.
    let g = dense_graph(240, 5);
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone()).into_shared();
    let path = tempdir("read-ahead.tc");
    write_store(&tables, &path).unwrap();
    let server = BlockServer::spawn(&path, ("127.0.0.1", 0)).unwrap();
    let mut opens = 0;
    for text in [
        "L0 -> L1\nL0 -> L2\nL1 -> L3\nL2 -> L4",
        "L1 -> L0\nL1 -> L2\nL2 -> L3",
        "L2 -> L3\nL3 -> L4\nL3 -> L0\nL4 -> L1",
        "L4 -> L0\nL4 -> L1\nL4 -> L2",
    ] {
        let q = resolve(&g, text);
        let want: Vec<_> = TopkEnEnumerator::from_plan(&QueryPlan::new(q.clone(), mem.clone()))
            .take(20)
            .collect();
        assert!(!want.is_empty(), "{text}");
        let session = |store: ktpm_storage::SharedSource| {
            let plan = QueryPlan::new(q.clone(), store.clone());
            let stream = TopkEnEnumerator::from_plan(&plan);
            let before = store.io();
            assert_eq!(stream.take(20).collect::<Vec<_>>(), want, "{text}");
            assert!(store.take_error().is_none(), "{text}");
            (before, store.io())
        };
        let (before, local) = session(PagedStore::open(&path).unwrap().into_shared());
        let local_opens = local.block_reads - before.block_reads;
        opens += local_opens;
        let remote = RemoteStore::connect(&server.local_addr().to_string()).unwrap();
        let (before, after) = session(remote.into_shared());
        assert_eq!(after.edges_read, local.edges_read, "{text}: edges loaded");
        let trips = after.remote_fetches - before.remote_fetches;
        assert!(
            trips <= CURSOR_TRIPS,
            "{text}: {trips} round trips for {local_opens} cursor reads"
        );
    }
    assert!(
        opens > 4 * CURSOR_TRIPS,
        "{opens} cursor reads over the local file"
    );
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_read_ahead_batch_is_one_fetch_per_touched_file() {
    // Over a 3-file snapshot, an offered cold open whose read-ahead
    // list spans every file fetches the listed first blocks in one
    // FETCH per file; every listed open is then a cache hit, and reads
    // what memory holds.
    let g = dense_graph(90, 5);
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone());
    let dir = tempdir("read-ahead-files");
    let manifest = write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 4).unwrap();
    let server = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();
    let store = RemoteStore::connect(&server.local_addr().to_string()).unwrap();
    // One pair from each file, its directory read as a lazy half would.
    let pairs: Vec<(LabelId, LabelId)> = manifest.shards.iter().map(|m| m.first_key).collect();
    let lazy = |_| Sections {
        d: true,
        directory: true,
        ..Sections::default()
    };
    store.prefetch(&[Vec::new(), pairs.clone()], &lazy);
    assert_eq!(store.files_open(), 3);
    let runs: Vec<Vec<(LabelId, NodeId)>> = pairs
        .iter()
        .map(|&(a, b)| mem.load_d(a, b).into_iter().map(|(v, _)| (a, v)).collect())
        .collect();
    assert!(runs.iter().all(|r| r.len() >= 2), "{runs:?}");
    // The offered run is file 0's first; the rest interleave the files.
    let mut list = vec![runs[0][0]];
    for k in 0..runs.iter().map(Vec::len).max().unwrap() {
        for (f, file_runs) in runs.iter().enumerate() {
            if (f, k) != (0, 0) && list.len() <= 16 {
                list.extend(file_runs.get(k));
            }
        }
    }
    let before = store.io().remote_fetches;
    let mut asked = 0;
    store.prefetch_incoming(list[0], &mut |more| {
        asked += 1;
        more.extend(&list[1..]);
    });
    assert_eq!(asked, 1);
    assert_eq!(store.io().remote_fetches - before, 3, "one FETCH per file");
    for &(a, v) in &list {
        store.prefetch_incoming((a, v), &mut |_| asked += 1);
        let block = store.incoming_cursor(a, v).next_block();
        let whole = mem.tables().pair(a, mem.node_label(v)).unwrap().incoming(v);
        assert_eq!(block, whole[..block.len()], "run ({a:?}, {v:?})");
    }
    assert_eq!(asked, 1, "every listed open finds its block cached");
    assert_eq!(store.io().remote_fetches - before, 3, "and reads nothing");
    assert!(store.take_error().is_none());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_store_uri_dispatches_tcp_and_local_paths() {
    let g = dense_graph(24, 4);
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone());
    let dir = tempdir("uri");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 2), 64).unwrap();
    let server = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();
    let remote = open_store_uri(&format!("tcp://{}", server.local_addr()), None).unwrap();
    check_equivalent(&mem, remote.as_ref());
    let local = open_store_uri(dir.join("MANIFEST").to_str().unwrap(), None).unwrap();
    check_equivalent(&mem, local.as_ref());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // A dead address fails fast with a Remote error, not a hang.
    let Err(err) = RemoteStore::connect_with("127.0.0.1:1", fast_opts()) else {
        panic!("a dead address must not connect");
    };
    assert!(matches!(err, StorageError::Remote { .. }), "{err}");
}

/// A plain v5 store file and a server over it.
fn small_server(name: &str) -> (BlockServer, PathBuf) {
    let path = tempdir(name);
    write_store(&ClosureTables::compute(&dense_graph(24, 4)), &path).unwrap();
    let server = BlockServer::spawn(&path, ("127.0.0.1", 0)).unwrap();
    (server, path)
}

/// A raw connection whose reads give up after `secs` instead of hanging
/// the test.
fn connect(addr: SocketAddr, secs: u64) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(secs))).unwrap();
    s
}

/// One request frame out, one response frame back.
fn round_trip(s: &mut TcpStream, payload: &[u8]) -> std::io::Result<Vec<u8>> {
    blockproto::write_frame(s, payload)?;
    blockproto::read_frame(s)
}

/// A `FETCH` of `len` bytes at offset 0 of file 0, checked OK and sized.
fn fetch_ok(s: &mut TcpStream, len: u32) {
    let resp = round_trip(s, &blockproto::encode_fetch(0, 0, len)).expect("FETCH answered");
    assert_eq!(resp.first(), Some(&blockproto::STATUS_OK));
    assert_eq!(resp.len(), 1 + 4 + len as usize);
}

/// One `key=value` counter of the server's `STATS`, asked over `s`.
fn stat(s: &mut TcpStream, key: &str) -> u64 {
    let resp = round_trip(s, &[blockproto::OP_STATS]).expect("STATS answered");
    assert_eq!(resp.first(), Some(&blockproto::STATUS_OK));
    let text = String::from_utf8(resp[1..].to_vec()).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in STATS:\n{text}"))
        .parse()
        .unwrap()
}

/// Polls `STATS` over `s` until `open_connections` reads `want`.
fn await_open_connections(s: &mut TcpStream, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = stat(s, "open_connections");
        if open == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "open_connections stuck at {open}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The peer hung up: EOF or a reset, not a read timeout.
fn assert_hung_up(s: &mut TcpStream) {
    let mut byte = [0u8; 1];
    match s.read(&mut byte) {
        Ok(0) => {}
        Ok(_) => panic!("expected the server to hang up, got data"),
        Err(e) => assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "server never hung up: {e}"
        ),
    }
}

#[test]
fn shutdown_returns_with_a_client_blocked_mid_frame_and_an_idle_pooled_connection() {
    let (server, path) = small_server("shutdown.tc");
    let addr = server.local_addr();
    // The MANIFEST pull leaves one idle connection in the store's pool.
    let store = RemoteStore::connect_with(&addr.to_string(), fast_opts()).unwrap();
    let mut stalled = connect(addr, 10);
    let header = (blockproto::FETCH_REQUEST_BYTES as u32).to_le_bytes();
    stalled.write_all(&header).unwrap();
    // The pooled, the stalled and the probing connection are all
    // registered server-side before shutdown.
    let mut probe = connect(addr, 10);
    await_open_connections(&mut probe, 3);

    let (done, returned) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        done.send(()).ok();
    });
    returned
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown must return while clients are blocked on the server");
    stopper.join().unwrap();

    assert_hung_up(&mut stalled);
    assert_hung_up(&mut probe);
    match store.server_stats() {
        Err(StorageError::Remote { detail, .. }) => assert!(detail.contains("attempt"), "{detail}"),
        other => panic!("expected a clean StorageError::Remote, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_connection_stalled_mid_frame_does_not_delay_another() {
    let (server, path) = small_server("stall.tc");
    let addr = server.local_addr();
    let req = blockproto::encode_fetch(0, 0, 64);
    let mut stalled = connect(addr, 10);
    stalled
        .write_all(&(req.len() as u32).to_le_bytes())
        .unwrap();
    stalled.write_all(&req[..5]).unwrap();

    // `other` answers while `stalled` is registered and mid-frame; a
    // server that waited for the half-frame would time this read out.
    let mut other = connect(addr, 2);
    await_open_connections(&mut other, 2);
    fetch_ok(&mut other, 64);

    // The stalled request completes once its bytes arrive.
    stalled.write_all(&req[5..]).unwrap();
    let resp = blockproto::read_frame(&mut stalled).expect("stalled FETCH answered");
    assert_eq!(resp.first(), Some(&blockproto::STATUS_OK));
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_peer_announcing_an_oversized_request_is_dropped() {
    let (server, path) = small_server("oversized.tc");
    let addr = server.local_addr();
    let mut hostile = connect(addr, 10);
    hostile.write_all(&(1u32 << 20).to_le_bytes()).unwrap();
    assert_hung_up(&mut hostile);

    let mut s = connect(addr, 10);
    fetch_ok(&mut s, 64);
    assert_eq!(stat(&mut s, "errors"), 1, "the drop is counted");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_range_longer_than_the_server_buffer_arrives_whole_and_sealed() {
    // The server streams a range through a 64 KiB buffer: this one
    // spans four reads with a ragged tail, and an injected flip lands
    // inside the second.
    let path = tempdir("long.tc");
    write_store(&ClosureTables::compute(&dense_graph(200, 4)), &path).unwrap();
    let file = std::fs::read(&path).unwrap();
    let (offset, len) = (7, 200_003);
    assert!(file.len() >= offset + len, "store of {} bytes", file.len());
    let want = &file[offset..offset + len];
    let server = BlockServer::spawn(&path, ("127.0.0.1", 0)).unwrap();
    let mut s = connect(server.local_addr(), 10);
    for flips in [0, 1] {
        server.inject_bit_flips(flips);
        let req = blockproto::encode_fetch(0, offset as u64, len as u32);
        let resp = round_trip(&mut s, &req).expect("FETCH answered");
        assert_eq!(resp.first(), Some(&blockproto::STATUS_OK));
        let (crc, data) = resp[1..].split_at(4);
        assert_eq!(
            u32::from_le_bytes(crc.try_into().unwrap()),
            blockproto::crc32(data),
            "the frame CRC seals the bytes sent"
        );
        let flipped: Vec<(usize, u8)> = (0..len)
            .filter(|&i| data[i] != want[i])
            .map(|i| (i, data[i] ^ want[i]))
            .collect();
        let expect = if flips == 0 {
            vec![]
        } else {
            vec![(len / 2, 1)]
        };
        assert_eq!(flipped, expect, "{flips} injected flip(s)");
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn nothing_is_left_open_after_500_connect_fetch_close_cycles() {
    let (server, path) = small_server("cycles.tc");
    let addr = server.local_addr();
    for _ in 0..500 {
        fetch_ok(&mut connect(addr, 10), 32);
    }
    let mut stats = connect(addr, 10);
    // Only the `STATS` caller itself stays open.
    await_open_connections(&mut stats, 1);
    assert_eq!(stat(&mut stats, "connections"), 501);
    assert_eq!(stat(&mut stats, "fetches"), 500);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A `FETCH` of `ranges` of file 0, answered OK: each range's
/// `(crc, data)`, split by the requested lengths.
fn fetch_batch(s: &mut TcpStream, ranges: &[(u64, u32)]) -> Vec<(u32, Vec<u8>)> {
    let req = blockproto::encode_fetch_ranges(ranges.iter().map(|&(off, len)| (0, off, len)));
    let resp = round_trip(s, &req).expect("FETCH answered");
    assert_eq!(resp.first(), Some(&blockproto::STATUS_OK));
    let mut body = &resp[1..];
    let out = ranges
        .iter()
        .map(|&(_, len)| {
            let (crc, rest) = body.split_at(4);
            let (data, rest) = rest.split_at(len as usize);
            body = rest;
            (u32::from_le_bytes(crc.try_into().unwrap()), data.to_vec())
        })
        .collect();
    assert!(body.is_empty(), "the response is exactly the ranges");
    out
}

#[test]
fn a_batched_fetch_answers_each_range_as_a_single_fetch_does() {
    let path = tempdir("batch.tc");
    write_store(&ClosureTables::compute(&dense_graph(200, 4)), &path).unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len();
    assert!(file_len > 300_000, "store of {file_len} bytes");
    let server = BlockServer::spawn(&path, ("127.0.0.1", 0)).unwrap();
    let mut s = connect(server.local_addr(), 10);

    // The single-range request is the n = 1 case, byte for byte.
    assert_eq!(
        blockproto::encode_fetch_ranges([(0, 7, 300)]),
        blockproto::encode_fetch(0, 7, 300)
    );
    assert_eq!(
        blockproto::encode_fetch(0, 7, 300).len(),
        blockproto::FETCH_REQUEST_BYTES
    );

    // Out of file order, one range longer than the server's 64 KiB
    // buffer, one empty, the rest of assorted small lengths.
    let ranges = |n: usize| -> Vec<(u64, u32)> {
        (0..n)
            .map(|i| match i {
                1 => (1_000, 70_000),
                3 => (file_len - 5, 0),
                _ => {
                    let off = (i as u64 * 7_919 + 131) * 97 % (file_len - 5_000);
                    (file_len - 5_000 - off, 1 + (i as u32 * 37) % 4_100)
                }
            })
            .collect()
    };
    for n in [2, 17, blockproto::MAX_FETCH_RANGES] {
        let ranges = ranges(n);
        let batch = fetch_batch(&mut s, &ranges);
        for (&(off, len), got) in ranges.iter().zip(&batch) {
            let single = round_trip(&mut s, &blockproto::encode_fetch(0, off, len)).unwrap();
            assert_eq!(single[0], blockproto::STATUS_OK);
            assert_eq!(
                single[1..5],
                got.0.to_le_bytes(),
                "n = {n}: the CRC of {off}+{len}"
            );
            assert_eq!(single[5..], got.1[..], "n = {n}: the bytes of {off}+{len}");
            assert_eq!(got.0, blockproto::crc32(&got.1), "sealed per range");
        }
    }
    assert_eq!(stat(&mut s, "fetch_ranges"), 2 + 17 + 256 + 2 + 17 + 256);

    // A bad range, or a response over the frame cap, fails the whole
    // request with STATUS_ERR; the connection stays usable.
    let past_end = [(0, 10), (file_len - 4, 8)];
    let cap = blockproto::MAX_FRAME_BYTES as u64;
    let over_cap = vec![(0, file_len as u32); (cap / file_len + 1) as usize];
    assert!(over_cap.len() <= blockproto::MAX_FETCH_RANGES);
    for bad in [&past_end[..], &over_cap[..]] {
        let req = blockproto::encode_fetch_ranges(bad.iter().map(|&(off, len)| (0, off, len)));
        let resp = round_trip(&mut s, &req).expect("answered, not dropped");
        assert_eq!(
            resp[0],
            blockproto::STATUS_ERR,
            "{}",
            String::from_utf8_lossy(&resp[1..])
        );
        fetch_ok(&mut s, 64);
    }
    assert_eq!(stat(&mut s, "errors"), 2);

    // One record past the cap is longer than any request: dropped and
    // counted, like any oversized announcement.
    let mut hostile = connect(server.local_addr(), 10);
    let too_many = vec![(0u64, 8u32); blockproto::MAX_FETCH_RANGES + 1];
    let req = blockproto::encode_fetch_ranges(too_many.iter().map(|&(off, len)| (0, off, len)));
    assert_eq!(
        req.len(),
        blockproto::MAX_REQUEST_BYTES + blockproto::FETCH_RANGE_BYTES
    );
    blockproto::write_frame(&mut hostile, &req).unwrap();
    assert_hung_up(&mut hostile);
    assert_eq!(stat(&mut s, "errors"), 3, "the drop is counted");
    fetch_ok(&mut s, 64);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}
