//! # ktpm — Optimal Enumeration: Efficient Top-k Tree Matching
//!
//! A Rust implementation of Chang, Lin, Zhang, Yu, Zhang & Qin,
//! *"Optimal Enumeration: Efficient Top-k Tree Matching"*, PVLDB 8(5),
//! 2015 — including the optimal Lawler-based enumerator (`Topk`), the
//! priority-based `Topk-EN`, the DP-B/DP-P baselines it compares
//! against (as test references, [`core::baselines`]), general twig support (duplicate labels, wildcards, `/`
//! edges), and the kGPM graph-pattern extension (mtree / mtree+).
//!
//! ## Quickstart
//!
//! ```
//! use ktpm::prelude::*;
//!
//! // A node-labeled directed data graph.
//! let mut b = GraphBuilder::new();
//! let c1 = b.add_node("C");
//! let e1 = b.add_node("E");
//! let s1 = b.add_node("S");
//! b.add_edge(c1, e1, 1);
//! b.add_edge(e1, s1, 1);
//! let g = b.build().unwrap();
//!
//! // Offline: shortest-distance transitive closure, organized as
//! // label-pair tables (persist with `write_store` for real block I/O).
//! let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
//!
//! // Online: top-k matches through the facade — one builder for every
//! // algorithm (`Algo::ALL`: the three tree engines and kGPM), one
//! // identical stream per query form.
//! // The twig query is the paper's Figure 1: C -> E, C -> S (both `//`).
//! let exec = Executor::new(g.interner().clone(), store);
//! let matches = exec.query("C -> E\nC -> S").unwrap().k(10).topk().unwrap();
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].score, 3); // δ(C,E) + δ(C,S) = 1 + 2
//! ```
//!
//! ## One enumeration surface
//!
//! All four served engines — the three tree engines and the kGPM
//! graph-pattern engine — run behind one object-safe trait,
//! [`core::MatchStream`], whose primitive is **batched pull**
//! (`next_batch(n, &mut out)` — one virtual call per batch, not per
//! match); [`api::Executor`] / [`api::QueryBuilder`] are the
//! ergonomic front end, and [`core::build_stream`] +
//! the canonical [`core::Algo`] registry (with its per-algorithm
//! `sharded` flag) are the single dispatch every layer — facade,
//! serving sessions, CLI, benchmark — goes through. Algorithm
//! choice is a performance decision only: the streams are
//! byte-identical.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`graph`] | labeled directed CSR graph, interner, fixtures |
//! | [`query`] | twig queries (`//`, `/`, `*`, duplicates), graph patterns, text format |
//! | [`closure`] | transitive closure, label-pair tables, incremental repair |
//! | [`storage`] | on-disk closure store, block cursors, I/O accounting |
//! | [`core`] | **Algorithms 1–3** (`Topk`, `ComputeFirst`, `Topk-EN`) + `ParTopk`, the DP-B / DP-P baselines (test references, `core::baselines`), the kGPM pattern engine (`KgpmStream`, pattern plans, `decompose`), the [`core::MatchStream`] surface, [`core::Algo`] registry, and the in-process surface over them: [`core::Executor`] / [`core::QueryBuilder`]; modules [`runtime`] (run-time graph `G_R` construction) and [`exec`] (the shared worker pool scheduling shard jobs and request batches), re-exported here at `ktpm::runtime` / `ktpm::exec` |
//! | [`api`] | **the facade**: re-exports `Executor` / `QueryBuilder` / `ApiError` from [`core`] (text → plan → `Box<dyn MatchStream + Send>`, tree *and* graph-pattern queries), with their docs and examples |
//! | [`workload`] | seeded dataset & query generators (the scaled §6 families) |
//! | [`service`] | concurrent query service: sessions, result and plan caches, metrics over one [`core::Executor`], TCP protocol |
//! | [`net`] | event-driven TCP front end: readiness loop, pipelining, backpressure |
//!
//! ## Serving
//!
//! Beyond one-shot queries, [`service`] keeps enumeration state alive
//! across requests: open a session, pull "next k" matches repeatedly
//! (resuming is free — the `Topk`/`Topk-EN` iterators are parked
//! between calls), and let hot queries hit the LRU result cache. Query
//! *setup* is amortized too: a cross-session plan cache of
//! [`core::QueryPlan`]s (candidate discovery + run-time graph + `bs` +
//! slot templates, keyed by canonical query text, shared by every
//! algorithm) makes a warm `OPEN` pay zero candidate-discovery work.
//! See `ktpm serve` (the TCP front end) and `examples/service_embed.rs`
//! (the in-process API).
//!
//! Two interchangeable TCP front ends speak the same wire protocol over
//! the same engine: the legacy thread-per-connection
//! [`service::Server`], and the [`net::EventServer`] readiness loop
//! (`ktpm serve --event-loop`) — one reactor thread multiplexing every
//! connection and blocking in `poll(2)` until a socket or a worker
//! wakes it, a fixed executor pool, pipelined requests answered in
//! order, and bounded per-connection queues that shed overload with
//! `ERR overloaded` instead of queueing without limit. Parked sessions
//! hold no thread on either path; on the event loop, parked
//! *connections* don't either.
//!
//! ## Parallel execution
//!
//! `ParTopk` ([`core::parallel`]) splits a query's root-candidate set
//! into `P` disjoint shards ([`storage::ShardSpec`], node-id stride),
//! runs an independent sequential `Topk` enumerator per shard on an
//! [`exec::WorkerPool`], and lazily k-way-merges the shard streams.
//! Every match has exactly one root, so shards partition the match
//! universe; each stream is in the workspace's **canonical order**
//! (ascending `(score, assignment)` — [`core::partition`]; natively,
//! since `Topk` pops in that order),
//! and a `(score, assignment)`-keyed merge of disjoint canonical
//! streams is itself canonical. Hence `ParTopk` output is
//! byte-identical to [`core::topk_full`] for *every* shard count —
//! order, scores and witnesses. Exposed end to end: `--algo par` /
//! `--parallel N` in `ktpm query`, `OPEN par …` sessions in
//! `ktpm serve` (policy in `ServiceConfig::parallel`).

pub mod api;

pub use ktpm_closure as closure;
pub use ktpm_core as core;
pub use ktpm_core::{exec, runtime};
pub use ktpm_graph as graph;
pub use ktpm_net as net;
pub use ktpm_query as query;
pub use ktpm_service as service;
pub use ktpm_storage as storage;
pub use ktpm_workload as workload;

/// The most common imports in one place.
///
/// Every engine owns its inputs: the lazy-loading ones (`topk_en`,
/// `TopkEnEnumerator`) take a [`storage::SharedSource`]
/// (`MemStore::into_shared`, `open_store_auto`, …) and the full-load
/// one (`TopkEnumerator`) an `Arc<RuntimeGraph>`, so any of them can be
/// kept by a session and moved across threads. `topk_full` only reads
/// its store while it loads the run-time graph, so it borrows a
/// `&dyn ClosureSource`. The paper's DP-B / DP-P baselines are test
/// references, not served engines: they are in [`core::baselines`],
/// not here.
pub mod prelude {
    pub use crate::api::{ApiError, Executor, QueryBuilder};
    pub use ktpm_closure::{sssp, ClosureTables};
    pub use ktpm_core::{
        build_stream, canonical_query_text, decompose, limit, par_topk, topk_en, topk_full, Algo,
        BoundMode, BoxedMatchStream, GraphMatch, KgpmStats, KgpmStream, MatchStream, ParTopk,
        ParallelPolicy, PatternUnsupported, PlanError, QueryForm, QueryPlan, ScoredMatch,
        ShardSpec, SpanningTree, StreamState, TopkEnEnumerator, TopkEnumerator,
    };
    pub use ktpm_core::{exec::WorkerPool, runtime::RuntimeGraph};
    pub use ktpm_graph::{
        Dist, GraphBuilder, GraphDelta, LabelId, LabeledGraph, NodeId, NodeRow, Score, INF_DIST,
        INF_SCORE,
    };
    pub use ktpm_net::{BlockServer, EventServer, NetConfig};
    pub use ktpm_query::{
        EdgeKind, GraphQuery, QNodeId, ResolvedQuery, TreeQuery, TreeQueryBuilder,
    };
    pub use ktpm_service::{
        NextBatch, PlanCache, QueryEngine, Server, ServiceConfig, ServiceHandle, SessionId,
        UpdateReport, WarmReport,
    };
    pub use ktpm_storage::{
        open_local_store, open_store_auto, open_store_uri, write_store, write_store_sharded,
        write_store_v3, ClosureSource, DeltaReport, IoSnapshot, LiveStore, LocalStore, Manifest,
        MemStore, OnDemandStore, PagedStore, RemoteStore, ShardedStore, SharedSource, StorageError,
        DEFAULT_BLOCK_CACHE_BYTES, DEFAULT_BLOCK_EDGES,
    };
    pub use ktpm_workload::{generate, query_set, random_tree_query, GraphSpec, QuerySpec};
}
