//! `open-cold` and `remote-cold`: the one-shot shape of
//! `ktpm query --store`. Every session opens the store afresh (empty
//! block cache), builds a cold plan and takes the first 20 matches, so
//! block fetch, cursor pull, candidate discovery and plan build are
//! nearly all of it. The two workloads run the same session list; only
//! the store URI differs (a local v3 file, or `tcp://` to an in-process
//! block server, where every miss is a `FETCH` round trip).

use crate::dataset::Dataset;
use crate::harness::{add_io, Checksum, Ctx, Rng, Round, SessionSample, Workload};

use crate::trace::Tracer;
use ktpm::core::{build_stream, Algo, MatchStream, ParallelPolicy, QueryPlan, ScoredMatch};
use ktpm::exec::WorkerPool;
use ktpm::graph::LabelInterner;
use ktpm::net::BlockServer;
use ktpm::query::{EdgeKind, TreeQuery};
use ktpm::storage::{open_store_uri, IoSnapshot};
use ktpm::workload::query_set;
use std::sync::Arc;
use std::time::Instant;

/// Matches per session: the first one, then `next_batch(K - 1)`.
pub const K: usize = 20;
/// Random tree queries; every round runs each of them once per entry
/// of [`ENGINES`]. Eleven, so that eight rounds of `remote-cold`
/// (≈ 85 ms a session) fit the run.
pub const QUERIES: usize = 11;
pub const QUERY_NODES: usize = 10;
/// `topk-en` reads lazily through `incoming_cursor`; `topk` bulk-loads
/// with `load_pair`. Locally the two form two modes (≈ 21 ms against
/// ≈ 11 ms a session); two to one puts the round's p50 and p90 both
/// inside the `topk-en` mode instead of on the edge between them.
pub const ENGINES: [Algo; 3] = [Algo::TopkEn, Algo::TopkEn, Algo::Topk];

/// Renders a query in the text format `TreeQuery::parse` reads
/// (`TreeQuery` has no `Display`). Only valid for queries whose labels
/// are pairwise distinct and not wildcards — what `query_set(..,
/// distinct_labels = true, ..)` produces — because a label then names
/// its node.
pub fn query_text(q: &TreeQuery, sep: &str) -> String {
    q.edges()
        .map(|(p, c, kind)| {
            let arrow = match kind {
                EdgeKind::Child => "=>",
                _ => "->",
            };
            format!(
                "{} {arrow} {}",
                q.label_name(p)
                    .expect("distinct-label queries have no wildcard"),
                q.label_name(c)
                    .expect("distinct-label queries have no wildcard"),
            )
        })
        .collect::<Vec<_>>()
        .join(sep)
}

/// The first `count` queries of a seed-derived `query_set` whose stream
/// has at least `k` matches, as `(text, oracle checksum of the first
/// k)`. The oracle is `Algo::Topk` over the in-memory store.
pub fn pick_queries(
    ds: &Dataset,
    nodes: usize,
    count: usize,
    k: usize,
    seed: u64,
) -> Result<Vec<(String, Checksum)>, String> {
    let policy = ParallelPolicy::with_shards(1);
    let pool = Arc::new(WorkerPool::new(1));
    let mut picked = Vec::new();
    for q in query_set(&ds.graph, nodes, count * 4, true, seed) {
        let text = query_text(&q, "\n");
        let plan = QueryPlan::new(q.resolve(ds.graph.interner()), Arc::clone(&ds.mem));
        let mut want: Vec<ScoredMatch> = Vec::with_capacity(k);
        build_stream(Algo::Topk, &plan, &policy, Arc::clone(&pool)).next_batch(k, &mut want);
        if want.len() == k && !picked.iter().any(|(t, _)| *t == text) {
            picked.push((text, Checksum::of(&want)));
            if picked.len() == count {
                return Ok(picked);
            }
        }
    }
    Err(format!(
        "only {} of {count} {nodes}-node queries have {k} matches",
        picked.len()
    ))
}

/// The workloads' queries: the same for both tiers and for every
/// `--seed` (which orders the sessions), so `open-cold` and
/// `remote-cold` run the same session list and the count metrics repeat.
pub fn queries(ds: &Dataset) -> Result<Vec<(String, Checksum)>, String> {
    pick_queries(ds, QUERY_NODES, QUERIES, K, 0xC01D)
}

pub struct Cold {
    uri: String,
    server: Option<BlockServer>,
    interner: LabelInterner,
    queries: Vec<(String, Checksum)>,
    sessions: Vec<(usize, Algo)>,
    policy: ParallelPolicy,
    pool: Arc<WorkerPool>,
}

impl Cold {
    /// `remote == false`: sessions open the local file. `remote ==
    /// true`: a block server is spawned over the same file and
    /// sessions open `tcp://` to it.
    pub fn setup(ds: &Dataset, seed: u64, remote: bool) -> Result<Cold, String> {
        // Warm the page cache once: "cold" here means an empty block
        // cache, not a cold disk, which this sandbox cannot control.
        std::fs::read(&ds.store_path).map_err(|e| format!("read store: {e}"))?;
        Cold::new(ds, seed, queries(ds)?, remote)
    }

    /// As [`Cold::setup`], over queries already picked.
    pub fn new(
        ds: &Dataset,
        seed: u64,
        queries: Vec<(String, Checksum)>,
        remote: bool,
    ) -> Result<Cold, String> {
        let mut sessions: Vec<(usize, Algo)> =
            (0..QUERIES).flat_map(|i| ENGINES.map(|a| (i, a))).collect();
        Rng::new(seed ^ 0xC01D_5E55).shuffle(&mut sessions);
        let (uri, server) = if remote {
            let server = BlockServer::spawn(&ds.store_path, ("127.0.0.1", 0))
                .map_err(|e| format!("spawn block server: {e}"))?;
            (format!("tcp://{}", server.local_addr()), Some(server))
        } else {
            (ds.store_path.to_string_lossy().into_owned(), None)
        };
        Ok(Cold {
            uri,
            server,
            interner: ds.graph.interner().clone(),
            queries,
            sessions,
            policy: ParallelPolicy::with_shards(1),
            pool: Arc::new(WorkerPool::new(1)),
        })
    }

    /// Restricts the session list to one `topk-en` session per query
    /// (the layer probe that compares the two tiers wants one mode).
    pub fn only_lazy(mut self) -> Self {
        self.sessions.retain(|&(_, a)| a == Algo::TopkEn);
        self.sessions.sort_unstable_by_key(|&(q, _)| q);
        self.sessions.dedup();
        self
    }

    fn session(&self, query: usize, algo: Algo, tr: &mut Tracer) -> (SessionSample, IoSnapshot) {
        let (text, want) = &self.queries[query];
        let t0 = Instant::now();
        let store = match tr.span("storage.open", |_| open_store_uri(&self.uri, None)) {
            Ok(s) => s,
            Err(_) => return (SessionSample::failed(), IoSnapshot::default()),
        };
        let resolved = tr.span("query.parse", |_| {
            TreeQuery::parse(text).map(|q| q.resolve(&self.interner))
        });
        let Ok(resolved) = resolved else {
            return (SessionSample::failed(), IoSnapshot::default());
        };
        let plan = QueryPlan::new(resolved, Arc::clone(&store));
        // Plan build happens inside these two spans (the public API
        // does not let it be cut out; `layers` replays it on its own).
        let mut stream = tr.span("core.stream_build", |_| {
            build_stream(algo, &plan, &self.policy, Arc::clone(&self.pool))
        });
        let mut out: Vec<ScoredMatch> = Vec::with_capacity(K);
        let first = tr.span("core.first_match", |_| MatchStream::next(&mut *stream));
        let ttf_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.extend(first);
        tr.span("core.next_batch", |_| stream.next_batch(K - 1, &mut out));
        let ttk_ms = t0.elapsed().as_secs_f64() * 1e3;
        let io = store.io();
        // A swallowed read error means a silently truncated stream.
        let ok = store.take_error().is_none() && out.len() == K && Checksum::of(&out) == *want;
        (SessionSample { ttf_ms, ttk_ms, ok }, io)
    }
}

impl Workload for Cold {
    fn k(&self) -> usize {
        K
    }

    fn sessions_per_round(&self) -> usize {
        self.sessions.len()
    }

    fn at_reference_speed(&self) -> bool {
        // The local tier runs on the client thread; the remote tier
        // mostly waits for round trips.
        self.server.is_none()
    }

    fn round(&mut self, cx: &mut Ctx) -> Round {
        let mut round = Round::default();
        let t0 = Instant::now();
        for &(query, algo) in &self.sessions {
            let (sample, io) = cx.tr.session(|tr| {
                let (sample, io) = self.session(query, algo, tr);
                tr.count("block_reads", io.block_reads);
                tr.count("bytes_read", io.bytes_read);
                tr.count("cache_hits", io.cache_hits);
                tr.count("cache_misses", io.cache_misses);
                tr.count("remote_fetches", io.remote_fetches);
                tr.count("remote_bytes", io.remote_bytes);
                (sample, io)
            });
            cx.after_session();
            round.matches += if sample.ok { K as u64 } else { 0 };
            round.sessions.push(sample);
            add_io(&mut round.io, &io);
        }
        round.wall_s = t0.elapsed().as_secs_f64();
        round
    }

    fn shutdown(self: Box<Self>) {
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}
