//! # ktpm-service
//!
//! The serving layer: a concurrent, resumable top-k query service over
//! one data graph and one closure store.
//!
//! The paper's headline result is that top-k matches can be
//! *enumerated* — results stream out one at a time in score order —
//! which is exactly the shape a server wants. This crate keeps that
//! enumeration state alive across requests:
//!
//! * [`QueryEngine`] / [`ServiceHandle`] — the in-process API. The
//!   engine is sessions + caches + metrics over one
//!   [`ktpm_core::Executor`] — the same surface `ktpm query` and the
//!   `ktpm::api` facade run on, which holds the closure store, the
//!   label interner and the shard pool and builds every plan and
//!   stream. The engine adds a session table, a result cache, a plan
//!   cache, metrics and a request worker pool; the handle is a cheap
//!   clone shared across client threads.
//! * **Sessions** ([`SessionId`]) — a client opens a session for a
//!   `(query, algorithm)` pair and repeatedly asks for "next n"
//!   matches. The session parks a live `Box<dyn MatchStream + Send>`
//!   built by the executor over [`ktpm_core::build_stream`] (the one
//!   dispatch every algorithm shares) so resuming never pays setup
//!   again; each `NEXT` is one batched `next_batch` pull. Idle sessions are evicted after
//!   a TTL.
//! * **Result cache** — an LRU keyed by the canonicalized query text
//!   plus algorithm, holding the longest match prefix any session has
//!   produced. Hot repeated queries are answered without touching an
//!   enumerator at all; a session that outruns the cached prefix
//!   transparently falls back to live enumeration.
//! * **Plan cache** — an LRU of [`ktpm_core::QueryPlan`]s keyed by
//!   query form and canonical text (no algorithm: one tree plan feeds
//!   `topk`, `topk-en`, `par` and the DP sessions; `kgpm`
//!   reads the text as a pattern and gets its own plan). A plan holds the
//!   per-query setup the paper's algorithms pay up front — candidate
//!   discovery, the run-time graph, the `bs` pass, slot-list
//!   templates — built lazily, at most once, behind `OnceLock`s that
//!   concurrent sessions can race on safely. A *warm* `OPEN` therefore
//!   performs **zero** candidate-discovery work (verifiable via
//!   `ktpm_storage::iostats` and the `plan_hits`/`plan_misses` `STATS`
//!   counters). Capacity is [`ServiceConfig::plan_cache_capacity`];
//!   eviction is LRU, and per-entry memory is bounded by the plan's
//!   run-time graph (O(m_R) for the hot query) — size the capacity to
//!   the working set of hot queries, not the total query space — or
//!   set [`ServiceConfig::plan_cache_max_bytes`] to bound it by
//!   approximate bytes directly (LRU eviction once the summed plan
//!   footprint exceeds the budget; `plan_cache_bytes_limit` in
//!   `STATS`). Sessions hold their plan's `Arc`, so eviction never
//!   invalidates live sessions. Known-hot queries can be pre-built
//!   before traffic arrives with [`ServiceHandle::warm_plans`]
//!   (`ktpm serve --warm <file>`).
//! * **Wire protocol** ([`protocol`]) + [`Server`] — a line-based TCP
//!   front end (`OPEN` / `NEXT` / `CLOSE` / `STATS`) used by
//!   `ktpm serve`.
//! * **Parallel execution** — `Algo::Par` sessions run `ParTopk`
//!   (root-partitioned shards, lazily re-merged) on a dedicated shard
//!   pool, per the engine-wide [`ktpm_core::ParallelPolicy`] in
//!   [`ServiceConfig::parallel`]. Every session algorithm emits the
//!   canonical `(score, assignment)` order, so `par` streams, cached
//!   prefixes and sequential streams are interchangeable byte for byte.
//!
//! ## Embedding
//!
//! ```
//! use ktpm_closure::ClosureTables;
//! use ktpm_core::Algo;
//! use ktpm_graph::fixtures::citation_graph;
//! use ktpm_service::{QueryEngine, ServiceConfig};
//! use ktpm_storage::MemStore;
//!
//! let g = citation_graph();
//! let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
//! let handle = QueryEngine::new(g.interner().clone(), store, ServiceConfig::default());
//!
//! let sid = handle.open("C -> E\nC -> S", Algo::TopkEn).unwrap();
//! let first = handle.next(sid, 2).unwrap();
//! assert_eq!(first.matches.len(), 2);
//! let rest = handle.next(sid, 10).unwrap(); // resumes, no re-setup
//! assert!(rest.exhausted);
//! handle.close(sid).unwrap();
//! ```

mod cache;
mod engine;
mod metrics;
pub mod protocol;
mod server;
mod session;

pub use cache::{CacheKey, CachedPrefix, PlanCache, ResultCache};
pub use engine::{NextBatch, QueryEngine, ServiceError, ServiceHandle, UpdateReport, WarmReport};
pub use metrics::{MetricsSnapshot, ServiceMetrics};
// `respond` and `serve_connection` are public so alternative front ends
// (the `ktpm-net` event loop) render through the exact same path as the
// in-crate thread-per-connection server — byte-identical responses are
// a protocol guarantee, not a coincidence.
pub use server::{respond, serve_connection, Server};
pub use session::{SessionId, SessionTable};

use std::time::Duration;

/// Engine tuning knobs.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`ServiceConfig::default`] (or [`ServiceConfig::new`]) and refine
/// with the builder-style `with_*` methods, so new knobs keep appearing
/// without breaking embedders.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Worker threads executing `next` batches.
    pub workers: usize,
    /// Idle sessions older than this are evicted.
    pub session_ttl: Duration,
    /// How often the server's janitor thread runs TTL eviction
    /// ([`ServiceHandle::sweep_expired`]). Short-TTL tests and soaks
    /// tune this down instead of racing a magic constant; `ktpm serve`
    /// exposes it as `--sweep-interval-ms`.
    pub sweep_interval: Duration,
    /// Connections with no client request for this long are closed by
    /// the front ends (the legacy thread-per-connection path sets it as
    /// a socket read timeout; the event loop tracks it per connection).
    /// `None` disables the timeout — an idle client then pins a thread
    /// forever on the legacy path, which is exactly the failure mode
    /// the default guards against.
    pub idle_timeout: Option<Duration>,
    /// Maximum number of concurrently open sessions (`open` fails
    /// beyond it after TTL eviction has been attempted).
    pub max_sessions: usize,
    /// Maximum number of cached query results (LRU beyond it).
    pub cache_capacity: usize,
    /// Maximum number of cached query plans (LRU beyond it). Each warm
    /// plan holds its query's run-time graph and slot templates —
    /// O(m_R) memory — so this bounds plan memory to the hot-query
    /// working set.
    pub plan_cache_capacity: usize,
    /// Optional byte budget over the plan cache: when the summed
    /// [`ktpm_core::QueryPlan::approx_bytes`] of cached plans exceeds
    /// it, least-recently-used plans are evicted until it fits (the
    /// entry-count cap above still applies). `None` (the default)
    /// disables the budget and its per-lookup sizing walk. Surfaced in
    /// `STATS` as `plan_cache_bytes_limit` (0 = off).
    pub plan_cache_max_bytes: Option<u64>,
    /// Shard policy for [`ktpm_core::Algo::Par`] sessions; also sizes
    /// the engine's dedicated shard-job pool (kept separate from the
    /// request pool so blocked requests can never starve their own shard
    /// jobs).
    pub parallel: ktpm_core::ParallelPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(16)),
            session_ttl: Duration::from_secs(300),
            sweep_interval: Duration::from_millis(200),
            idle_timeout: Some(Duration::from_secs(300)),
            max_sessions: 10_000,
            cache_capacity: 1_024,
            plan_cache_capacity: 256,
            plan_cache_max_bytes: None,
            parallel: ktpm_core::ParallelPolicy::default(),
        }
    }
}

impl ServiceConfig {
    /// The default configuration (alias of [`ServiceConfig::default`],
    /// reads better at the head of a builder chain).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets [`ServiceConfig::workers`].
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets [`ServiceConfig::session_ttl`].
    pub fn with_session_ttl(mut self, ttl: Duration) -> Self {
        self.session_ttl = ttl;
        self
    }

    /// Sets [`ServiceConfig::sweep_interval`].
    pub fn with_sweep_interval(mut self, interval: Duration) -> Self {
        self.sweep_interval = interval;
        self
    }

    /// Sets [`ServiceConfig::idle_timeout`] (`None` = never).
    pub fn with_idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets [`ServiceConfig::max_sessions`].
    pub fn with_max_sessions(mut self, max: usize) -> Self {
        self.max_sessions = max;
        self
    }

    /// Sets [`ServiceConfig::cache_capacity`].
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets [`ServiceConfig::plan_cache_capacity`].
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Sets [`ServiceConfig::plan_cache_max_bytes`] (`None` = off).
    pub fn with_plan_cache_max_bytes(mut self, budget: Option<u64>) -> Self {
        self.plan_cache_max_bytes = budget;
        self
    }

    /// Sets [`ServiceConfig::parallel`].
    pub fn with_parallel(mut self, parallel: ktpm_core::ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }
}
