//! Integration tests for the serving layer.
//!
//! Everything cross-validates against `topk_full` (Algorithm 1 over a
//! fully-loaded run-time graph) — the same oracle the rest of the
//! workspace trusts. Ties: matches with equal scores may legally order
//! differently between *algorithms*, so exact-sequence assertions only
//! compare like with like and score-sequence assertions are used across
//! algorithms.

use ktpm_closure::ClosureTables;
use ktpm_core::Algo;
use ktpm_core::{topk_full, ParallelPolicy, ScoredMatch};
use ktpm_graph::fixtures::{citation_graph, paper_graph};
use ktpm_graph::{LabeledGraph, Score};
use ktpm_query::TreeQuery;
use ktpm_service::{protocol, QueryEngine, Server, ServiceConfig, ServiceHandle, SessionId};
use ktpm_storage::MemStore;
use ktpm_workload::{generate, GraphSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn handle_for(g: &LabeledGraph, config: ServiceConfig) -> ServiceHandle {
    // Graph-attached store: the undirected mirror derives lazily, so
    // `Algo::Kgpm` sessions work alongside the tree algorithms.
    let store = MemStore::new(ClosureTables::compute(g))
        .with_graph(g.clone())
        .into_shared();
    QueryEngine::new(g.interner().clone(), store, config)
}

/// The oracle: top-k via Algorithm 1 on a private store.
fn oracle(g: &LabeledGraph, query: &str, k: usize) -> Vec<ScoredMatch> {
    let store = MemStore::new(ClosureTables::compute(g));
    let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
    topk_full(&q, &store, k)
}

fn scores(ms: &[ScoredMatch]) -> Vec<Score> {
    ms.iter().map(|m| m.score).collect()
}

/// A moderately sized synthetic graph with enough matches to batch.
fn synthetic() -> (LabeledGraph, Vec<String>) {
    let g = generate(&GraphSpec {
        nodes: 600,
        labels: 8,
        label_skew: 0.3,
        avg_out_degree: 2.5,
        community: 300,
        cross_fraction: 0.1,
        weight_range: (1, 4),
        seed: 0x5EED,
    });
    // Queries over the small label alphabet (L1..L8 by construction).
    let queries = [
        "L1 -> L2",
        "L1 -> L2\nL1 -> L3",
        "L2 -> L1\nL2 -> L4",
        "L1 -> L3\nL3 -> L2",
        "L4 -> L1",
    ];
    (g, queries.iter().map(|q| q.to_string()).collect())
}

#[test]
fn concurrent_clients_cross_validate_against_topk_full() {
    let (g, queries) = synthetic();
    let handle = handle_for(
        &g,
        ServiceConfig::new()
            .with_workers(4)
            .with_parallel(ParallelPolicy {
                shards: 2,
                ..ParallelPolicy::default()
            }),
    );
    let expected: Vec<Vec<Score>> = queries.iter().map(|q| scores(&oracle(&g, q, 40))).collect();
    let expected = Arc::new(expected);
    let queries = Arc::new(queries);

    // N client threads hammer one engine, each opening sessions for
    // every query in a shifted order, pulling in odd-sized batches.
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let handle = handle.clone();
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                for round in 0..3 {
                    for qi in 0..queries.len() {
                        let qi = (qi + t + round) % queries.len();
                        let algo = match (t + round) % 3 {
                            0 => Algo::Topk,
                            1 => Algo::TopkEn,
                            _ => Algo::Par,
                        };
                        let id = handle.open(&queries[qi], algo).unwrap();
                        let mut got = Vec::new();
                        while got.len() < 40 {
                            let batch = handle.next(id, 7).unwrap();
                            got.extend(batch.matches);
                            if batch.exhausted {
                                break;
                            }
                        }
                        got.truncate(40);
                        assert_eq!(
                            scores(&got),
                            expected[qi],
                            "thread {t} round {round} query {qi} ({})",
                            algo.name()
                        );
                        handle.close(id).unwrap();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = handle.stats();
    assert_eq!(stats.sessions_active, 0);
    assert_eq!(stats.metrics.sessions_opened, 8 * 3 * 5);
    assert_eq!(stats.metrics.sessions_closed, 8 * 3 * 5);
    assert_eq!(stats.metrics.errors, 0);
}

#[test]
fn par_sessions_stream_exactly_topk_full() {
    // `par` sessions must be byte-identical to the oracle — order,
    // scores and witnesses — across batch boundaries and shard counts.
    let (g, queries) = synthetic();
    for shards in [1usize, 3] {
        let handle = handle_for(
            &g,
            ServiceConfig::new().with_parallel(ParallelPolicy { shards, batch: 8 }),
        );
        for q in &queries {
            let want = oracle(&g, q, 40);
            let id = handle.open(q, Algo::Par).unwrap();
            let mut got = Vec::new();
            while got.len() < 40 {
                let b = handle.next(id, 7).unwrap();
                got.extend(b.matches);
                if b.exhausted {
                    break;
                }
            }
            got.truncate(40);
            assert_eq!(got, want, "query {q:?} shards {shards}");
            handle.close(id).unwrap();
        }
    }
}

#[test]
fn one_par_session_hammered_by_concurrent_clients() {
    // The race test: many threads pull batches from the SAME ParTopk
    // session. Concurrent `next` calls serialize on the session lock,
    // so the batches must partition the exact oracle stream — nothing
    // lost, nothing duplicated, no interleaving corruption — while the
    // shard jobs of the single ParTopk run race on the shard pool.
    let (g, queries) = synthetic();
    let handle = handle_for(
        &g,
        ServiceConfig::new()
            .with_workers(4)
            .with_parallel(ParallelPolicy {
                shards: 4,
                batch: 4,
            }),
    );
    let query = &queries[1];
    let want = oracle(&g, query, 1_000_000);
    assert!(want.len() > 20, "race needs a non-trivial stream");
    let id = handle.open(query, Algo::Par).unwrap();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let mut mine = Vec::new();
                loop {
                    // Odd, per-thread batch sizes stress the cursor.
                    let batch = handle.next(id, 3 + t % 4).unwrap();
                    let done = batch.exhausted;
                    mine.extend(batch.matches);
                    if done {
                        return mine;
                    }
                }
            })
        })
        .collect();
    let mut got: Vec<ScoredMatch> = Vec::new();
    for t in threads {
        got.extend(t.join().unwrap());
    }
    handle.close(id).unwrap();
    assert_eq!(got.len(), want.len(), "stream must partition exactly");
    // The oracle is already in canonical (score, assignment) order, so
    // sorting the union must reproduce it exactly; any dropped or
    // double-served match would break the equality.
    got.sort_by(|a, b| (a.score, &a.assignment).cmp(&(b.score, &b.assignment)));
    assert_eq!(got, want);
    assert_eq!(handle.stats().metrics.errors, 0);
}

#[test]
fn session_resume_equals_one_take() {
    // NEXT k twice == one take(2k), exactly (same algorithm, same
    // engine: tie order must be reproduced, not just scores). Runs
    // every registry algorithm, kgpm included — the text parses as a
    // tree for the tree engines and as a (tree-shaped, undirected)
    // pattern for kgpm.
    let g = paper_graph();
    let handle = handle_for(&g, ServiceConfig::default());
    let query = "a -> b\na -> c\nc -> d\nc -> e";
    for algo in Algo::ALL {
        let k = 3;
        let one = handle.open(query, algo).unwrap();
        let whole = handle.next(one, 2 * k).unwrap();
        handle.close(one).unwrap();

        let two = handle.open(query, algo).unwrap();
        let first = handle.next(two, k).unwrap();
        let second = handle.next(two, k).unwrap();
        handle.close(two).unwrap();

        let stitched: Vec<ScoredMatch> = first.matches.into_iter().chain(second.matches).collect();
        assert_eq!(stitched, whole.matches, "algo {}", algo.name());
        assert_eq!(second.exhausted, whole.exhausted, "algo {}", algo.name());
    }
}

#[test]
fn resumed_sessions_agree_with_oracle_scores() {
    let (g, queries) = synthetic();
    let handle = handle_for(&g, ServiceConfig::default());
    for q in &queries {
        let want = scores(&oracle(&g, q, 25));
        let id = handle.open(q, Algo::TopkEn).unwrap();
        let mut got = Vec::new();
        for _ in 0..5 {
            let b = handle.next(id, 5).unwrap();
            got.extend(b.matches);
            if b.exhausted {
                break;
            }
        }
        got.truncate(25);
        assert_eq!(scores(&got), want, "query {q:?}");
        handle.close(id).unwrap();
    }
}

#[test]
fn cache_hits_serve_identical_results() {
    let g = citation_graph();
    let handle = handle_for(&g, ServiceConfig::default());
    let query = "C -> E\nC -> S";

    // Cold run: populates the cache (completes the stream).
    let cold_id = handle.open(query, Algo::TopkEn).unwrap();
    let cold = handle.next(cold_id, 100).unwrap();
    assert!(cold.exhausted);
    handle.close(cold_id).unwrap();
    assert_eq!(handle.stats().metrics.cache_misses, 1);
    assert_eq!(handle.stats().metrics.cache_hits, 0);

    // Warm runs: same query (even with scrambled whitespace) must be
    // cache hits and byte-identical, including across batch splits.
    for (i, text) in [query, "  C ->  E \n\n C   -> S "].iter().enumerate() {
        let id = handle.open(text, Algo::TopkEn).unwrap();
        let a = handle.next(id, 2).unwrap();
        let b = handle.next(id, 100).unwrap();
        assert!(b.exhausted);
        let warm: Vec<ScoredMatch> = a.matches.into_iter().chain(b.matches).collect();
        assert_eq!(warm, cold.matches, "warm run {i}");
        handle.close(id).unwrap();
        let m = handle.stats().metrics;
        assert_eq!(m.cache_hits, i as u64 + 1);
        // Canonical text keys the plan too: the scrambled-whitespace
        // OPEN is a plan hit, not a second plan.
        assert_eq!((m.plan_hits, m.plan_misses), (i as u64 + 1, 1));
    }

    // A different algorithm is a different cache key (scores must still
    // agree with the oracle).
    let id = handle.open(query, Algo::Topk).unwrap();
    let full = handle.next(id, 100).unwrap();
    handle.close(id).unwrap();
    assert_eq!(scores(&full.matches), scores(&cold.matches));
    let stats = handle.stats();
    assert_eq!(stats.metrics.cache_misses, 2);
    // ...but the same tree plan: every tree algorithm shares it.
    assert_eq!((stats.metrics.plan_hits, stats.plan_entries), (3, 1));
}

#[test]
fn outrunning_the_cached_prefix_falls_back_to_live_enumeration() {
    let g = citation_graph();
    let handle = handle_for(&g, ServiceConfig::default());
    let query = "C -> E\nC -> S";

    // Seed the cache with only a 2-match prefix (session closed early).
    let id = handle.open(query, Algo::TopkEn).unwrap();
    handle.next(id, 2).unwrap();
    handle.close(id).unwrap();

    // A cache-hit session that asks for more than the prefix.
    let id = handle.open(query, Algo::TopkEn).unwrap();
    assert_eq!(handle.stats().metrics.cache_hits, 1);
    let all = handle.next(id, 100).unwrap();
    assert!(all.exhausted);
    assert_eq!(scores(&all.matches), scores(&oracle(&g, query, 100)));
    handle.close(id).unwrap();

    // The cache now holds the complete stream.
    let id = handle.open(query, Algo::TopkEn).unwrap();
    let again = handle.next(id, 100).unwrap();
    assert_eq!(again.matches, all.matches);
    handle.close(id).unwrap();
}

#[test]
fn warm_opens_share_the_plan_across_algorithms_with_zero_discovery() {
    // The plan cache is keyed by query text alone: after one cold open
    // (any algorithm), every later open of the same query — same or
    // different algorithm — reuses the cached setup. For the
    // full-graph algorithms a warm open does zero storage I/O of any
    // kind; candidate-discovery sweeps (D/E entries) must be zero for
    // every warm open.
    let g = citation_graph();
    let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
    let handle = QueryEngine::new(
        g.interner().clone(),
        Arc::clone(&store),
        ServiceConfig::default(),
    );
    let query = "C -> E\nC -> S";
    let want = oracle(&g, query, 100);

    // Cold open (Topk): builds the plan's full half.
    let id = handle.open(query, Algo::Topk).unwrap();
    let cold = handle.next(id, 100).unwrap();
    handle.close(id).unwrap();
    assert_eq!(cold.matches, want);
    let after_cold = store.io();
    assert!(
        after_cold.edges_read > 0,
        "cold open must have loaded the graph"
    );

    // Warm opens: different algorithms, different result-cache keys —
    // all plan hits, zero discovery sweeps, zero reads entirely for
    // the full-graph algorithms.
    for (i, algo) in [Algo::Par, Algo::Topk].into_iter().enumerate() {
        let id = handle.open(query, algo).unwrap();
        let warm = handle.next(id, 100).unwrap();
        handle.close(id).unwrap();
        assert_eq!(warm.matches, want, "warm {} stream", algo.name());
        let now = store.io();
        assert_eq!(
            now.since(&after_cold),
            ktpm_storage::IoSnapshot::default(),
            "warm {} open performed storage I/O",
            algo.name()
        );
        let m = handle.stats().metrics;
        assert_eq!(m.plan_hits, i as u64 + 1);
        assert_eq!(m.plan_misses, 1);
    }

    // Topk-EN reuses the plan's (derived) discovery: its cursors do
    // read edge blocks lazily, but candidate-discovery sweep counters
    // stay exactly where the cold open left them.
    let id = handle.open(query, Algo::TopkEn).unwrap();
    let warm = handle.next(id, 100).unwrap();
    handle.close(id).unwrap();
    assert_eq!(scores(&warm.matches), scores(&want));
    let now = store.io();
    assert_eq!(
        now.d_entries, after_cold.d_entries,
        "warm topk-en swept D tables"
    );
    assert_eq!(
        now.e_entries, after_cold.e_entries,
        "warm topk-en swept E tables"
    );
    assert_eq!(handle.stats().plan_entries, 1);
}

#[test]
fn concurrent_opens_of_one_query_share_one_plan() {
    // Eight clients race to open the same query on a cold engine: the
    // plan cache must register exactly one plan (1 miss, 7 hits) and
    // the plan's OnceLock must run exactly one build — verified by
    // comparing total storage I/O against a single cold run.
    let g = citation_graph();
    let query = "C -> E\nC -> S";
    let single_io = {
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        let handle = QueryEngine::new(
            g.interner().clone(),
            Arc::clone(&store),
            ServiceConfig::default(),
        );
        let id = handle.open(query, Algo::Topk).unwrap();
        handle.next(id, 100).unwrap();
        handle.close(id).unwrap();
        store.io()
    };
    let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
    let handle = QueryEngine::new(
        g.interner().clone(),
        Arc::clone(&store),
        ServiceConfig::new().with_workers(4),
    );
    let want = oracle(&g, query, 100);
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let handle = handle.clone();
            let barrier = Arc::clone(&barrier);
            let want = want.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let id = handle.open(query, Algo::Topk).unwrap();
                let got = handle.next(id, 100).unwrap();
                assert_eq!(got.matches, want);
                handle.close(id).unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let m = handle.stats().metrics;
    assert_eq!(m.plan_misses, 1, "exactly one open may register the plan");
    assert_eq!(m.plan_hits, 7, "every other open must hit it");
    assert_eq!(
        store.io(),
        single_io,
        "8 racing sessions must pay exactly one plan build's worth of I/O"
    );
    assert_eq!(handle.stats().plan_entries, 1);
}

#[test]
fn session_cap_holds_under_concurrent_opens() {
    let g = citation_graph();
    let handle = handle_for(
        &g,
        ServiceConfig::new()
            .with_max_sessions(4)
            .with_session_ttl(Duration::from_secs(3600)), // nothing to reclaim
    );
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                (0..16)
                    .filter(|_| handle.open("C -> E", Algo::TopkEn).is_ok())
                    .count()
            })
        })
        .collect();
    let opened: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    // Exactly the cap may be open; every other attempt must have
    // failed with SessionLimit, never overshooting.
    assert_eq!(opened, 4);
    assert_eq!(handle.stats().sessions_active, 4);
    assert!(matches!(
        handle.open("C -> E", Algo::TopkEn),
        Err(ktpm_service::ServiceError::SessionLimit(4))
    ));
    // The hit/miss counters count sessions: the refused opens add none.
    let m = handle.stats().metrics;
    assert_eq!(m.sessions_opened, 4);
    assert_eq!(m.cache_hits + m.cache_misses, 4);
    assert_eq!(m.plan_hits + m.plan_misses, 4);
}

#[test]
fn idle_sessions_are_evicted_and_publish_their_prefix() {
    let g = citation_graph();
    let handle = handle_for(
        &g,
        ServiceConfig::new().with_session_ttl(Duration::from_millis(30)),
    );
    let id = handle.open("C -> E\nC -> S", Algo::TopkEn).unwrap();
    handle.next(id, 2).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(handle.sweep_expired(), 1);
    assert!(matches!(
        handle.next(id, 1),
        Err(ktpm_service::ServiceError::UnknownSession(_))
    ));
    let stats = handle.stats();
    assert_eq!(stats.metrics.sessions_evicted, 1);
    assert_eq!(stats.sessions_active, 0);
    // The evicted session's progress reached the cache.
    let id = handle.open("C -> E\nC -> S", Algo::TopkEn).unwrap();
    assert_eq!(handle.stats().metrics.cache_hits, 1);
    handle.close(id).unwrap();
}

// ---------------------------------------------------------------------
// TCP end-to-end
// ---------------------------------------------------------------------

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send_line(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        resp
    }

    fn open(&mut self, algo: &str, query_semicolons: &str) -> SessionId {
        let resp = self.send_line(&format!("OPEN {algo} {query_semicolons}"));
        resp.trim()
            .strip_prefix("OK ")
            .unwrap_or_else(|| panic!("open failed: {resp:?}"))
            .parse()
            .unwrap()
    }

    fn next(&mut self, id: SessionId, n: usize) -> ktpm_service::NextBatch {
        writeln!(self.writer, "NEXT {id} {n}").unwrap();
        self.writer.flush().unwrap();
        let mut text = String::new();
        self.reader.read_line(&mut text).unwrap();
        let count: usize = text
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("bad NEXT header {text:?}"));
        for _ in 0..count {
            self.reader.read_line(&mut text).unwrap();
        }
        protocol::parse_next_response(&text).unwrap()
    }

    fn close(&mut self, id: SessionId) {
        let resp = self.send_line(&format!("CLOSE {id}"));
        assert_eq!(resp.trim(), "OK closed");
    }
}

#[test]
fn tcp_end_to_end_with_two_concurrent_clients() {
    let g = citation_graph();
    let handle = handle_for(&g, ServiceConfig::default());
    let server = Server::spawn(handle.clone(), ("127.0.0.1", 0)).unwrap();
    let addr = server.local_addr();
    let want = oracle(&g, "C -> E\nC -> S", 100);
    assert_eq!(want.len(), 5);

    // The acceptance scenario: two concurrent clients each run
    // OPEN / NEXT / NEXT / CLOSE and must see exactly topk_full's
    // stream (same engine + same algorithm reproduces tie order).
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let id = c.open("topk", "C -> E; C -> S");
                let first = c.next(id, 2);
                assert!(!first.exhausted);
                let rest = c.next(id, 100);
                assert!(rest.exhausted);
                let got: Vec<ScoredMatch> = first.matches.into_iter().chain(rest.matches).collect();
                assert_eq!(got, want);
                c.close(id);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // STATS over the wire reflects both clients.
    let mut c = Client::connect(addr);
    let stats = c.send_line("STATS");
    assert!(stats.contains("sessions_opened=2"), "{stats:?}");
    assert!(stats.contains("sessions_closed=2"), "{stats:?}");
    assert!(stats.contains("errors=0"), "{stats:?}");
    server.shutdown();
}

#[test]
fn tcp_sessions_are_isolated_between_clients() {
    let g = paper_graph();
    let handle = handle_for(&g, ServiceConfig::default());
    let server = Server::spawn(handle, ("127.0.0.1", 0)).unwrap();
    let addr = server.local_addr();

    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    let qa = a.open("topk-en", "a -> b; a -> c; c -> d; c -> e");
    let qb = b.open("topk-en", "a -> c");
    assert_ne!(qa, qb);

    // Interleave: each client advances its own cursor only.
    let a1 = a.next(qa, 1);
    let b1 = b.next(qb, 1);
    let a2 = a.next(qa, 1);
    let b2 = b.next(qb, 1);
    let want_a = oracle(&g, "a -> b\na -> c\nc -> d\nc -> e", 2);
    let want_b = oracle(&g, "a -> c", 2);
    assert_eq!(scores(&[a1.matches, a2.matches].concat()), scores(&want_a));
    assert_eq!(scores(&[b1.matches, b2.matches].concat()), scores(&want_b));

    // Closing one session must not affect the other.
    a.close(qa);
    let b3 = b.next(qb, 100);
    assert!(b3.exhausted);
    server.shutdown();
}

#[test]
fn tcp_kgpm_sessions_stream_park_and_resume() {
    // Graph patterns over the wire: OPEN kgpm with a cyclic edge list,
    // pull across batch boundaries (the session parks the KgpmStream
    // between requests), and a second client's re-open of the same
    // pattern is a plan hit.
    let g = citation_graph();
    let handle = handle_for(&g, ServiceConfig::default());
    let server = Server::spawn(handle.clone(), ("127.0.0.1", 0)).unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect(addr);
    let id = c.open("kgpm", "C -> E; E -> S; S -> C");
    let first = c.next(id, 4);
    assert_eq!(first.matches.len(), 4);
    assert!(!first.exhausted);
    let rest = c.next(id, 100);
    assert!(rest.exhausted);
    let all: Vec<ScoredMatch> = first.matches.into_iter().chain(rest.matches).collect();
    assert_eq!(all.len(), 12, "3 C × 2 E × 2 S pairwise-connected triples");
    assert!(all.windows(2).all(|w| w[0].score <= w[1].score));
    c.close(id);

    let mut d = Client::connect(addr);
    let id = d.open("kgpm", "C -> E; E -> S; S -> C");
    let again = d.next(id, 100);
    assert!(again.exhausted);
    assert_eq!(again.matches, all, "warm kgpm open streams identical bytes");
    d.close(id);
    let stats = handle.stats().metrics;
    assert_eq!(stats.plan_hits, 1, "second open hit the pattern plan");
    assert_eq!(stats.errors, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Live graph updates through the public API
// ---------------------------------------------------------------------

#[test]
fn graph_update_invalidates_delta_aware_through_the_public_api() {
    use ktpm_graph::{GraphDelta, NodeId};
    use ktpm_storage::LiveStore;

    let g = citation_graph();
    let handle = QueryEngine::new(
        g.interner().clone(),
        LiveStore::new(g.clone()).into_shared(),
        ServiceConfig::new(),
    );
    let unaffected = "C -> E"; // reads only the (C,E) closure table
    let affected = "C -> E\nC -> S"; // reads (C,S), which the delta touches

    // Warm both queries to completion so plans and prefixes are cached.
    for q in [unaffected, affected] {
        let id = handle.open(q, Algo::Topk).unwrap();
        assert!(handle.next(id, 100).unwrap().exhausted);
        handle.close(id).unwrap();
    }

    // v1 -> v4 carries weight 5: only the (C,S) table changes.
    let delta = GraphDelta::new().set_weight(NodeId(0), NodeId(3), 5);
    let report = handle.apply_delta(&delta).unwrap();
    assert_eq!(report.version, 1);
    assert_eq!(report.plans_invalidated, 1);
    assert_eq!(report.prefix_entries_invalidated, 1);
    assert_eq!(handle.stats().graph_version, 1);

    // The unaffected query survives warm: plan hit + cache hit.
    let before = handle.stats().metrics;
    let id = handle.open(unaffected, Algo::Topk).unwrap();
    handle.next(id, 100).unwrap();
    handle.close(id).unwrap();
    let after = handle.stats().metrics;
    assert_eq!(after.plan_hits, before.plan_hits + 1);
    assert_eq!(after.cache_hits, before.cache_hits + 1);

    // The affected query rebuilds and streams the post-delta oracle.
    let (mutated, _) = g.apply_delta(&delta).unwrap();
    let want = oracle(&mutated, affected, 100);
    let id = handle.open(affected, Algo::Topk).unwrap();
    let got = handle.next(id, 100).unwrap();
    handle.close(id).unwrap();
    assert_eq!(got.matches, want);
    assert_eq!(
        handle.stats().metrics.plan_misses,
        3,
        "affected re-open rebuilt"
    );
}
