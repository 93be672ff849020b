//! The query engine: sessions + result cache + plan cache + metrics
//! over one [`Executor`], behind a cloneable [`ServiceHandle`].

use crate::cache::{CacheKey, PlanCache, ResultCache};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::session::{Session, SessionId, SessionTable};
use crate::ServiceConfig;
use ktpm_core::exec::WorkerPool;
use ktpm_core::{
    canonical_query_text, tree_then_pattern, Algo, Executor, PlanError, QueryForm, QueryPlan,
    ScoredMatch,
};
use ktpm_graph::{GraphDelta, LabelInterner};
use ktpm_storage::{SharedSource, StorageError};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Errors surfaced to service clients.
///
/// `Display` renders `<code> <detail>` where `<code>` is the stable
/// machine-readable word of [`ServiceError::code`] — the wire layer
/// prepends `ERR `, so every error reply starts `ERR <code> …` (the
/// taxonomy documented in [`crate::protocol`]). The enum is
/// `#[non_exhaustive]`: match with a wildcard arm, or dispatch on the
/// code word.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// The query text failed to parse or resolve.
    BadQuery(String),
    /// Not one of [`Algo::valid_names`].
    UnknownAlgo(String),
    /// No such (or already closed / evicted) session.
    UnknownSession(SessionId),
    /// The session table is full even after TTL eviction.
    SessionLimit(usize),
    /// The session's plan was invalidated by a graph delta after it
    /// opened: its stream describes a graph that no longer exists, so
    /// it cannot be extended consistently. Re-`OPEN` the query to
    /// stream against the current graph.
    StaleVersion {
        /// The fenced session.
        session: SessionId,
        /// Graph version the session's plan was built against.
        plan_version: u64,
        /// Store version the invalidating delta produced.
        store_version: u64,
    },
    /// `OPEN kgpm` against a store that cannot serve graph patterns:
    /// the backend has no data graph attached, so the §5 undirected
    /// mirror cannot be built (e.g. a persisted closure-only
    /// snapshot).
    PatternUnsupported,
    /// A graph delta failed at the storage layer (immutable snapshot
    /// backend, or a rejected delta); no state changed.
    Update(StorageError),
    /// The store degraded while serving reads: a storage failure
    /// swallowed by the infallible [`ktpm_storage::ClosureSource`] API
    /// (remote fetch exhausted its retries, corrupt block, lost shard
    /// file, ...) was recovered via
    /// [`ktpm_storage::ClosureSource::take_error`]. The observing
    /// session is *poisoned* — its stream may silently miss matches,
    /// so every further `next` repeats this error and its buffer is
    /// never published to the result cache. Re-`OPEN` once the store
    /// recovers. The code word is `remote-unavailable` for
    /// [`StorageError::Remote`] and `storage-failed` for everything
    /// else.
    StorageFailed {
        /// The stable code word (`remote-unavailable` or
        /// `storage-failed`).
        code: &'static str,
        /// Human-readable failure detail, from the storage error.
        detail: String,
    },
}

impl ServiceError {
    /// The stable error-code word this error renders on the wire
    /// (`ERR <code> …`). Codes are part of the protocol contract —
    /// see the taxonomy table in [`crate::protocol`].
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::BadQuery(_) => "bad-query",
            ServiceError::UnknownAlgo(_) => "unknown-algo",
            ServiceError::UnknownSession(_) => "unknown-session",
            ServiceError::SessionLimit(_) => "session-limit",
            ServiceError::StaleVersion { .. } => "stale-version",
            ServiceError::PatternUnsupported => "pattern-unsupported",
            ServiceError::Update(StorageError::UpdatesUnsupported(_)) => "update-unsupported",
            ServiceError::Update(StorageError::DeltaRejected(_)) => "update-rejected",
            ServiceError::Update(_) => "update-failed",
            ServiceError::StorageFailed { code, .. } => code,
        }
    }

    /// Classifies a degraded-read storage error recovered via
    /// [`ktpm_storage::ClosureSource::take_error`].
    fn storage_failed(err: &StorageError) -> ServiceError {
        ServiceError::StorageFailed {
            code: match err {
                StorageError::Remote { .. } => "remote-unavailable",
                _ => "storage-failed",
            },
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.code())?;
        match self {
            ServiceError::BadQuery(m) => write!(f, "{m}"),
            ServiceError::UnknownAlgo(a) => {
                write!(f, "{a:?} (expected {})", Algo::valid_names())
            }
            ServiceError::UnknownSession(id) => write!(f, "{id}"),
            ServiceError::SessionLimit(n) => write!(f, "session limit reached ({n})"),
            ServiceError::StaleVersion {
                session,
                plan_version,
                store_version,
            } => write!(
                f,
                "session {session} opened at graph v{plan_version}, store now \
                 v{store_version}; re-OPEN the query"
            ),
            ServiceError::PatternUnsupported => write!(
                f,
                "graph patterns need a store with a data graph attached \
                 (this backend has no undirected mirror)"
            ),
            ServiceError::Update(e) => write!(f, "{e}"),
            ServiceError::StorageFailed { detail, .. } => {
                write!(f, "{detail}; re-OPEN once the store recovers")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> Self {
        ServiceError::Update(e)
    }
}

impl From<PlanError> for ServiceError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::BadQuery(m) => ServiceError::BadQuery(m),
            PlanError::PatternUnsupported => ServiceError::PatternUnsupported,
        }
    }
}

/// One batch of results from [`ServiceHandle::next`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NextBatch {
    /// The next matches, in non-decreasing score order. May be shorter
    /// than requested at stream end.
    pub matches: Vec<ScoredMatch>,
    /// Whether the stream is finished (subsequent `next` calls return
    /// empty batches).
    pub exhausted: bool,
}

/// Aggregate engine state for `STATS`.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Live sessions in the table.
    pub sessions_active: usize,
    /// Entries in the result cache.
    pub cache_entries: usize,
    /// Entries in the cross-session query-plan cache.
    pub plan_entries: usize,
    /// Approximate bytes held by all cached query plans (candidate
    /// lists + materialized slot templates; cold plans count ~0).
    pub plan_bytes: u64,
    /// Approximate bytes of the single largest cached plan.
    pub plan_largest_bytes: u64,
    /// The plan cache's byte budget
    /// ([`ServiceConfig::plan_cache_max_bytes`]); 0 = unlimited.
    pub plan_bytes_limit: u64,
    /// Worker pool width.
    pub workers: usize,
    /// Current graph version of the store (0 forever on immutable
    /// snapshot backends; bumped once per applied delta on live ones).
    pub graph_version: u64,
    /// The store's cumulative I/O counters (blocks/bytes/edges read,
    /// and — on the paged backend — block-cache hit/miss/eviction
    /// counts plus the resident-bytes gauge).
    pub io: ktpm_storage::IoSnapshot,
    /// Monotonic counters.
    pub metrics: MetricsSnapshot,
}

/// What one [`ServiceHandle::apply_delta`] did — the applied delta's
/// storage-level report plus the serving-layer invalidation tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Store version after the delta.
    pub version: u64,
    /// Number of closure tables (label pairs) the repair changed.
    pub touched_pairs: usize,
    /// Cached plans dropped (their tables were touched); survivors
    /// were re-stamped to `version` instead.
    pub plans_invalidated: usize,
    /// Result-cache prefixes dropped.
    pub prefix_entries_invalidated: usize,
    /// Live sessions newly fenced (their next `NEXT` answers
    /// `stale-version`).
    pub sessions_fenced: usize,
}

/// What [`ServiceHandle::warm_plans`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmReport {
    /// Plans newly registered and built.
    pub warmed: usize,
    /// Queries that failed to parse and were skipped.
    pub skipped: usize,
    /// Total [`QueryPlan::approx_bytes`] across the warmed plans.
    pub plan_bytes: u64,
}

/// The shared engine state — what serving adds to an [`Executor`]:
/// sessions, the result and plan caches, metrics and the request pool.
/// Use [`QueryEngine::new`] to get a [`ServiceHandle`].
pub struct QueryEngine {
    /// The store, the interner and the shard pool `Algo::Par` / kgpm
    /// sessions run on: every plan and every stream is built here.
    /// The shard pool is kept apart from `pool` — request jobs block
    /// waiting for shard jobs, shard jobs never block — so the two
    /// cannot wait on each other however many parallel sessions pile
    /// in.
    exec: Executor,
    sessions: SessionTable,
    cache: Mutex<ResultCache>,
    /// Cross-session query-plan cache (keyed by query form and
    /// canonical text, shared across the algorithms of a form): a warm
    /// `OPEN` reuses the cached setup and performs zero
    /// candidate-discovery work.
    plans: Mutex<PlanCache>,
    metrics: ServiceMetrics,
    pool: WorkerPool,
    next_id: AtomicU64,
    config: ServiceConfig,
}

/// A cheap, cloneable handle to a [`QueryEngine`]; the embedding API.
#[derive(Clone)]
pub struct ServiceHandle {
    engine: Arc<QueryEngine>,
}

impl QueryEngine {
    /// Builds an engine serving queries over `source`, resolving query
    /// labels through `interner` (clone it off the data graph).
    ///
    /// Returns the [`ServiceHandle`] rather than the engine itself: the
    /// engine only ever lives behind the handle's `Arc`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        interner: LabelInterner,
        source: SharedSource,
        config: ServiceConfig,
    ) -> ServiceHandle {
        ServiceHandle {
            engine: Arc::new(QueryEngine {
                exec: Executor::with_pool(
                    interner,
                    source,
                    Arc::new(WorkerPool::new(config.parallel.shards)),
                ),
                sessions: SessionTable::new(),
                cache: Mutex::new(ResultCache::new(config.cache_capacity)),
                plans: Mutex::new(PlanCache::with_byte_budget(
                    config.plan_cache_capacity,
                    config.plan_cache_max_bytes,
                )),
                metrics: ServiceMetrics::default(),
                pool: WorkerPool::new(config.workers),
                next_id: AtomicU64::new(1),
                config,
            }),
        }
    }
}

impl ServiceHandle {
    /// Opens a session for `(query, algo)`. Tree algorithms take the
    /// `A -> B` / `A => B` twig text format, newline- (or on the wire,
    /// `;`-) separated; [`Algo::Kgpm`] takes the same edge-list text
    /// read as an undirected graph pattern (cycles allowed, `=>` / `*`
    /// / `#` not), planned over the store's undirected mirror —
    /// [`ServiceError::PatternUnsupported`] when the backend has none.
    pub fn open(&self, query: &str, algo: Algo) -> Result<SessionId, ServiceError> {
        let e = &self.engine;
        let key: CacheKey = (algo.name(), canonical_query_text(query));
        let cached = e.cache.lock().expect("cache lock").get(&key);
        // The plan cache is keyed by the text and the form the
        // algorithm reads it in: one tree plan feeds every tree
        // algorithm, kgpm gets the pattern plan of the same text. A hit
        // parses nothing; a miss builds a cold plan (the expensive
        // setup runs lazily inside it, once, when the first session
        // actually needs it), and a text that does not plan caches
        // nothing.
        let plan_key = (algo.form(), key.1);
        let built = e
            .plans
            .lock()
            .expect("plan cache lock")
            .get_or_insert(&plan_key, || e.exec.build_plan(plan_key.0, &plan_key.1));
        let (plan, plan_hit) = built.map_err(|err| {
            e.metrics.error();
            ServiceError::from(err)
        })?;
        // Plan construction may have read the store (pattern plans
        // touch the undirected mirror): surface a degraded store now
        // rather than handing out a session over silently missing data.
        if let Some(err) = e.exec.source().take_error() {
            e.metrics.error();
            return Err(ServiceError::storage_failed(&err));
        }
        let cache_hit = cached.is_some();
        let session = Session::new(algo, plan_key.1, plan, cached.as_ref());
        let id = SessionId(e.next_id.fetch_add(1, Ordering::Relaxed));
        let max = e.config.max_sessions;
        // Cap check and insert are atomic (one table lock); on a full
        // table, reclaim idle sessions once and retry.
        if let Err(session) = e.sessions.insert_capped(id, session, max) {
            self.sweep_expired();
            if e.sessions.insert_capped(id, session, max).is_err() {
                e.metrics.error();
                return Err(ServiceError::SessionLimit(max));
            }
        }
        // The hit/miss counters count sessions: a failed OPEN is none.
        if cache_hit {
            e.metrics.cache_hit();
        } else {
            e.metrics.cache_miss();
        }
        if plan_hit {
            e.metrics.plan_hit();
        } else {
            e.metrics.plan_miss();
        }
        e.metrics.session_opened();
        Ok(id)
    }

    /// Produces the next `n` matches of a session, resuming exactly
    /// where the previous batch stopped. Executed on the worker pool;
    /// concurrent calls on the *same* session serialize, different
    /// sessions run in parallel up to the pool width.
    pub fn next(&self, id: SessionId, n: usize) -> Result<NextBatch, ServiceError> {
        let e = &self.engine;
        let Some(slot) = e.sessions.get(id) else {
            e.metrics.error();
            return Err(ServiceError::UnknownSession(id));
        };
        e.metrics.next_call();
        let engine = Arc::clone(e);
        let batch = e.pool.run(move || {
            let mut session = slot.session.lock().expect("session lock");
            // Fenced sessions refuse to advance: their parked stream
            // describes the pre-delta graph. The session stays in the
            // table (CLOSE still works) but every NEXT is an error.
            if let Some(store_version) = session.fenced_at() {
                return Err(ServiceError::StaleVersion {
                    session: id,
                    plan_version: session.plan_version(),
                    store_version,
                });
            }
            // Poisoned sessions repeat their storage failure: the
            // stream already silently lost matches when the store
            // degraded, so extending it would compound the lie.
            if let Some((code, detail)) = session.failure() {
                return Err(ServiceError::StorageFailed {
                    code,
                    detail: detail.to_string(),
                });
            }
            let adv = session.advance(n, &engine.exec, &engine.config.parallel);
            // The infallible read API degrades to empty results on
            // storage failures and parks the first error in the store;
            // recover it *before* publishing anything — a batch (or
            // prefix) produced over a degraded store may be missing
            // matches and must reach neither the client nor the cache.
            if let Some(err) = engine.exec.source().take_error() {
                let failure = ServiceError::storage_failed(&err);
                if let ServiceError::StorageFailed { code, detail } = &failure {
                    session.poison(code, detail.clone());
                }
                return Err(failure);
            }
            if let Some(prefix) = adv.publish {
                let key = session.cache_key();
                engine
                    .cache
                    .lock()
                    .expect("cache lock")
                    .insert(key, prefix, session.plan());
            }
            Ok(NextBatch {
                matches: adv.matches,
                exhausted: adv.exhausted,
            })
        });
        let batch = batch.inspect_err(|_| e.metrics.error())?;
        e.metrics.matches_served(batch.matches.len() as u64);
        Ok(batch)
    }

    /// Closes a session, publishing its final prefix to the cache.
    pub fn close(&self, id: SessionId) -> Result<(), ServiceError> {
        let e = &self.engine;
        let Some(slot) = e.sessions.remove(id) else {
            e.metrics.error();
            return Err(ServiceError::UnknownSession(id));
        };
        let session = slot.session.lock().expect("session lock");
        if let Some(prefix) = session.final_prefix() {
            e.cache
                .lock()
                .expect("cache lock")
                .insert(session.cache_key(), prefix, session.plan());
        }
        e.metrics.session_closed();
        Ok(())
    }

    /// One-shot convenience: open + next(k) + close.
    pub fn topk(
        &self,
        query: &str,
        algo: Algo,
        k: usize,
    ) -> Result<Vec<ScoredMatch>, ServiceError> {
        let id = self.open(query, algo)?;
        let batch = self.next(id, k)?;
        self.close(id)?;
        Ok(batch.matches)
    }

    /// Pre-builds query plans before traffic arrives (`ktpm serve
    /// --warm <file>`): each query is canonicalized, registered in the
    /// cross-session plan cache and its **full** setup half is forced —
    /// candidate discovery, run-time graph, `bs` pass — so the first
    /// real `OPEN` of a warmed query is a plan hit with zero discovery
    /// work (the lazy half derives from the loaded graph without
    /// storage I/O). Unplannable queries are skipped and counted;
    /// duplicates collapse onto one plan. Warm-up does not touch the
    /// `plan_hits`/`plan_misses` metrics — those measure client
    /// traffic.
    pub fn warm_plans<'q>(&self, queries: impl IntoIterator<Item = &'q str>) -> WarmReport {
        let e = &self.engine;
        let mut report = WarmReport::default();
        let mut plans: Vec<Arc<QueryPlan>> = Vec::new();
        for text in queries {
            // A text that plans as a rooted tree warms the plan every
            // tree algorithm shares; one that does not (typically
            // cyclic) warms the pattern plan a kgpm `OPEN` of it will
            // hit — and is skipped when that fails too (not a pattern
            // either, or no mirror on this backend).
            let mut key = (QueryForm::Tree, canonical_query_text(text));
            let mut cache = e.plans.lock().expect("plan cache lock");
            let built = tree_then_pattern(|form| {
                key.0 = form;
                cache.get_or_insert(&key, || e.exec.build_plan(form, &key.1))
            });
            drop(cache);
            let Ok((plan, hit)) = built else {
                report.skipped += 1;
                continue;
            };
            if !hit {
                report.warmed += 1;
            }
            if !plans.iter().any(|p| Arc::ptr_eq(p, &plan)) {
                plans.push(plan);
            }
        }
        // Force the builds *outside* the cache lock: candidate
        // discovery is the expensive part warm-up exists to pre-pay.
        for plan in &plans {
            let _ = plan.runtime_graph();
            report.plan_bytes += plan.approx_bytes();
        }
        report
    }

    /// Applies a batch of graph mutations to the live store and
    /// invalidates the serving-layer caches **delta-aware**: the store
    /// reports exactly which closure tables (label pairs) the repair
    /// changed, every cached plan and live session answers
    /// [`QueryPlan::is_affected_by`] for that report, and
    ///
    /// * affected cached plans are dropped, every other plan survives
    ///   bit-for-bit with a version re-stamp
    ///   ([`QueryPlan::stamp_version`]) — a later `OPEN` of an
    ///   unaffected query is still a plan hit with zero
    ///   candidate-discovery work;
    /// * result-cache prefixes are judged by the plan that produced
    ///   them: dropped when it is affected, and when it is gone (evicted
    ///   and unused, so nothing is left to judge by);
    /// * live sessions on affected plans are *fenced*: they answer
    ///   every further `next` with [`ServiceError::StaleVersion`] and
    ///   never publish their (pre-delta) buffers to the result cache.
    ///
    /// No query text is parsed. Errors ([`ServiceError::Update`]) leave
    /// all state — graph, closure, caches, sessions — untouched.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<UpdateReport, ServiceError> {
        let e = &self.engine;
        let report = e.exec.source().apply_delta(delta).map_err(|err| {
            e.metrics.error();
            ServiceError::Update(err)
        })?;
        e.metrics.graph_update();
        // Prefixes first, while the plans they are judged by are still
        // cached: an affected plan dropped below would otherwise leave
        // its prefixes to the orphan rule.
        let prefix_entries_invalidated = e
            .cache
            .lock()
            .expect("cache lock")
            .invalidate_affected(&report);
        let plans_invalidated = e
            .plans
            .lock()
            .expect("plan cache lock")
            .invalidate_affected(&report);
        let mut sessions_fenced = 0;
        for slot in e.sessions.all_slots() {
            let mut session = slot.session.lock().expect("session lock");
            if session.plan().is_affected_by(&report) {
                if session.fenced_at().is_none() {
                    sessions_fenced += 1;
                }
                session.fence(report.version);
            } else {
                // The session's plan may have been LRU-evicted from the
                // plan cache earlier; re-stamp it here so the session
                // keeps serving without tripping version checks.
                session.plan().stamp_version(report.version);
            }
        }
        e.metrics.plans_invalidated(plans_invalidated as u64);
        e.metrics
            .prefix_entries_invalidated(prefix_entries_invalidated as u64);
        Ok(UpdateReport {
            version: report.version,
            touched_pairs: report.touched_pairs.len(),
            plans_invalidated,
            prefix_entries_invalidated,
            sessions_fenced,
        })
    }

    /// The store's current graph version (0 forever on snapshot
    /// backends).
    pub fn graph_version(&self) -> u64 {
        self.engine.exec.source().graph_version()
    }

    /// Evicts sessions idle past the TTL (also runs opportunistically
    /// when the table is full and from the server's janitor thread).
    /// Evicted sessions publish their prefixes first, so their work is
    /// not lost.
    pub fn sweep_expired(&self) -> usize {
        let e = &self.engine;
        let evicted = e.sessions.sweep(e.config.session_ttl);
        let n = evicted.len();
        for slot in evicted {
            let session = slot.session.lock().expect("session lock");
            if let Some(prefix) = session.final_prefix() {
                e.cache.lock().expect("cache lock").insert(
                    session.cache_key(),
                    prefix,
                    session.plan(),
                );
            }
        }
        if n > 0 {
            e.metrics.sessions_evicted(n as u64);
        }
        n
    }

    /// Aggregate engine state.
    pub fn stats(&self) -> EngineStats {
        let e = &self.engine;
        // Snapshot the plan handles under the lock, size them outside
        // it: the per-plan estimate walks slot-template cells, which
        // must not block concurrent opens.
        let (plan_entries, snapshot) = {
            let plans = e.plans.lock().expect("plan cache lock");
            (plans.len(), plans.plans())
        };
        let (mut plan_bytes, mut plan_largest_bytes) = (0u64, 0u64);
        for plan in &snapshot {
            let b = plan.approx_bytes();
            plan_bytes += b;
            plan_largest_bytes = plan_largest_bytes.max(b);
        }
        EngineStats {
            sessions_active: e.sessions.len(),
            cache_entries: e.cache.lock().expect("cache lock").len(),
            plan_entries,
            plan_bytes,
            plan_largest_bytes,
            plan_bytes_limit: e.config.plan_cache_max_bytes.unwrap_or(0),
            workers: e.pool.width(),
            graph_version: e.exec.source().graph_version(),
            io: e.exec.source().io(),
            metrics: e.metrics.snapshot(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.engine.config
    }

    /// The live counters, for front ends that account connection-level
    /// events (accepts, sheds, pipeline depths) against the same
    /// `STATS` the engine reports.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.engine.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::citation_graph;
    use ktpm_storage::MemStore;

    fn handle_with(config: ServiceConfig) -> ServiceHandle {
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        QueryEngine::new(g.interner().clone(), store, config)
    }

    #[test]
    fn algo_names_roundtrip() {
        // The wire names must stay intact for clients.
        for a in Algo::ALL {
            assert_eq!(Algo::parse(a.name()), Some(a));
        }
        assert_eq!(Algo::parse("nope"), None);
        assert_eq!(Algo::valid_names(), "topk | topk-en | par | kgpm");
    }

    #[test]
    fn warm_plans_prebuilds_so_first_open_hits() {
        let h = handle_with(ServiceConfig::default());
        let report = h.warm_plans(["C -> E\nC -> S", "C -> E; broken ->", "C -> E\nC -> S"]);
        assert_eq!(report.warmed, 1, "duplicates collapse onto one plan");
        assert_eq!(report.skipped, 1, "unparseable queries are skipped");
        assert!(report.plan_bytes > 0, "warm plans report their footprint");
        // Warm-up leaves traffic metrics untouched...
        let m = h.stats().metrics;
        assert_eq!((m.plan_hits, m.plan_misses), (0, 0));
        // ...and the first real OPEN of the warmed query is a plan hit
        // with zero candidate discovery (the engine store does no I/O).
        let source = {
            let id = h.open("C -> E\nC -> S", Algo::Topk).unwrap();
            h.next(id, 5).unwrap();
            h.close(id).unwrap();
            h.stats()
        };
        assert_eq!(source.metrics.plan_hits, 1);
        assert_eq!(source.metrics.plan_misses, 0);
    }

    #[test]
    fn warm_plan_open_does_zero_candidate_discovery() {
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        let h = QueryEngine::new(
            g.interner().clone(),
            Arc::clone(&store),
            ServiceConfig::default(),
        );
        h.warm_plans(["C -> E\nC -> S"]);
        store.reset_io();
        let id = h.open("C -> E\nC -> S", Algo::Topk).unwrap();
        let batch = h.next(id, 5).unwrap();
        assert_eq!(batch.matches.len(), 5);
        let io = store.io();
        assert_eq!(
            io.d_entries + io.e_entries + io.edges_read,
            0,
            "a warmed query's first session must not touch storage"
        );
    }

    #[test]
    fn plan_cache_byte_budget_evicts_and_shows_in_stats() {
        // Measure one fully-drained plan's footprint (slot lists keep
        // materializing during enumeration, so drain through the same
        // path the budgeted engine will use), then budget for ~1.5 of
        // them: keeping a second drained plan must evict the LRU one.
        let probe = handle_with(ServiceConfig::default());
        let id = probe.open("C -> E\nC -> S", Algo::Topk).unwrap();
        probe.next(id, 5).unwrap();
        probe.close(id).unwrap();
        let one = probe.stats().plan_bytes;
        assert!(one > 0);

        let h = handle_with(ServiceConfig::new().with_plan_cache_max_bytes(Some(one * 3 / 2)));
        assert_eq!(h.stats().plan_bytes_limit, one * 3 / 2);
        for query in ["C -> E\nC -> S", "C -> S\nC -> E"] {
            let id = h.open(query, Algo::Topk).unwrap();
            h.next(id, 5).unwrap();
            h.close(id).unwrap();
        }
        // Plans warm during `next`, after cache registration — both
        // fit at registration time, so both are still cached here.
        assert_eq!(h.stats().plan_entries, 2);
        // The next cache access sees 2×`one` > budget and evicts the
        // LRU plan (the second query), keeping the one it serves.
        let id = h.open("C -> E\nC -> S", Algo::Topk).unwrap();
        h.close(id).unwrap();
        let s = h.stats();
        assert_eq!(
            s.plan_entries, 1,
            "two warm plans exceed the budget; the LRU one is evicted"
        );
        assert!(s.plan_bytes <= s.plan_bytes_limit, "within budget again");
        let m = s.metrics;
        assert_eq!(
            (m.plan_hits, m.plan_misses),
            (1, 2),
            "eviction keeps the hot plan hot"
        );
    }

    #[test]
    fn canonicalize_normalizes_whitespace_keeps_order() {
        assert_eq!(
            canonical_query_text("  C ->  E \n\n C -> S  "),
            "C -> E\nC -> S"
        );
        assert_ne!(
            canonical_query_text("A -> B\nA -> C"),
            canonical_query_text("A -> C\nA -> B")
        );
    }

    use ktpm_graph::NodeId;
    use ktpm_storage::LiveStore;

    fn live_handle(config: ServiceConfig) -> (ServiceHandle, SharedSource) {
        let g = citation_graph();
        let store = LiveStore::new(g.clone()).into_shared();
        (
            QueryEngine::new(g.interner().clone(), Arc::clone(&store), config),
            store,
        )
    }

    /// Weight bump on the direct `v1 -> v4` (C → S) edge: the repair
    /// touches only the `(C, S)` closure table.
    fn cs_only_delta() -> ktpm_graph::GraphDelta {
        ktpm_graph::GraphDelta::new().set_weight(NodeId(0), NodeId(3), 5)
    }

    #[test]
    fn snapshot_backend_updates_error_with_code() {
        let h = handle_with(ServiceConfig::default());
        let err = h.apply_delta(&cs_only_delta()).unwrap_err();
        assert_eq!(err.code(), "update-unsupported");
        assert!(matches!(err, ServiceError::Update(_)));
        assert_eq!(h.graph_version(), 0);
        assert_eq!(h.stats().metrics.graph_updates, 0);
        assert_eq!(h.stats().metrics.errors, 1);
    }

    #[test]
    fn delta_aware_invalidation_keeps_unaffected_plans_hot() {
        let (h, store) = live_handle(ServiceConfig::default());
        // Warm both queries end to end (plan + complete cached prefix).
        let unaffected = h.topk("C -> E", Algo::Topk, 100).unwrap();
        assert!(!unaffected.is_empty());
        h.topk("C -> E\nC -> S", Algo::Topk, 100).unwrap();
        assert_eq!(h.stats().plan_entries, 2);
        assert_eq!(h.stats().cache_entries, 2);

        let report = h.apply_delta(&cs_only_delta()).unwrap();
        assert_eq!(report.version, 1);
        assert_eq!(h.graph_version(), 1);
        assert_eq!(report.touched_pairs, 1, "only (C, S) changed");
        assert_eq!(report.plans_invalidated, 1, "only the C->S-reading plan");
        assert_eq!(report.prefix_entries_invalidated, 1);
        assert_eq!(report.sessions_fenced, 0, "no sessions were open");
        let m = h.stats().metrics;
        assert_eq!(m.graph_updates, 1);
        assert_eq!(m.plans_invalidated, 1);
        assert_eq!(m.prefix_entries_invalidated, 1);
        assert_eq!(h.stats().graph_version, 1);

        // The unaffected query re-opens as a plan hit *and* a cache hit
        // with zero candidate-discovery I/O, streaming identical bytes.
        store.reset_io();
        let before = h.stats().metrics;
        let again = h.topk("C -> E", Algo::Topk, 100).unwrap();
        assert_eq!(again, unaffected);
        let after = h.stats().metrics;
        assert_eq!(after.plan_hits, before.plan_hits + 1);
        assert_eq!(after.cache_hits, before.cache_hits + 1);
        let io = store.io();
        assert_eq!(
            io.d_entries + io.e_entries + io.edges_read,
            0,
            "surviving plan + prefix answer without touching storage"
        );

        // The affected query rebuilds (plan miss) and must stream the
        // same results as a cold engine over the mutated graph.
        let before = h.stats().metrics;
        let warm = h.topk("C -> E\nC -> S", Algo::Topk, 100).unwrap();
        assert_eq!(h.stats().metrics.plan_misses, before.plan_misses + 1);
        let mutated = citation_graph().apply_delta(&cs_only_delta()).unwrap().0;
        let cold_store = MemStore::new(ClosureTables::compute(&mutated)).into_shared();
        let cold_h = QueryEngine::new(
            mutated.interner().clone(),
            cold_store,
            ServiceConfig::default(),
        );
        let expect = cold_h.topk("C -> E\nC -> S", Algo::Topk, 100).unwrap();
        assert_eq!(warm, expect, "post-delta stream == cold rebuild");
    }

    #[test]
    fn fenced_sessions_error_and_close_without_publishing() {
        let (h, _) = live_handle(ServiceConfig::default());
        let affected = h.open("C -> E\nC -> S", Algo::Topk).unwrap();
        h.next(affected, 2).unwrap();
        let survivor = h.open("C -> E", Algo::Topk).unwrap();
        h.next(survivor, 1).unwrap();

        let report = h.apply_delta(&cs_only_delta()).unwrap();
        assert_eq!(report.sessions_fenced, 1);

        // The survivor keeps streaming; the fenced session errors with
        // the stale-version code but can still be closed.
        assert!(h.next(survivor, 1).is_ok());
        let err = h.next(affected, 1).unwrap_err();
        assert_eq!(err.code(), "stale-version");
        assert!(matches!(
            err,
            ServiceError::StaleVersion {
                plan_version: 0,
                store_version: 1,
                ..
            }
        ));
        h.close(affected).unwrap();
        // The fenced session's pre-delta buffer must not have been
        // republished: the affected query has no cached prefix, so a
        // fresh open is a cache miss.
        let before = h.stats().metrics;
        h.topk("C -> E\nC -> S", Algo::Topk, 100).unwrap();
        assert_eq!(h.stats().metrics.cache_misses, before.cache_misses + 1);
    }

    /// The Figure-1 graph's C–E–S triangle pattern: every (c, e, s)
    /// combination is pairwise connected in the undirected mirror, so
    /// kGPM yields 3 C × 2 E × 2 S = 12 matches.
    const TRIANGLE: &str = "C -> E\nE -> S\nS -> C";

    #[test]
    fn kgpm_sessions_stream_patterns_and_reopen_as_plan_hits() {
        let (h, _) = live_handle(ServiceConfig::default());
        let id = h.open(TRIANGLE, Algo::Kgpm).unwrap();
        let first = h.next(id, 4).unwrap();
        assert_eq!(first.matches.len(), 4);
        assert!(!first.exhausted);
        let rest = h.next(id, 100).unwrap();
        assert!(rest.exhausted);
        h.close(id).unwrap();
        let all: Vec<ScoredMatch> = first.matches.into_iter().chain(rest.matches).collect();
        assert_eq!(all.len(), 12);
        assert!(
            all.windows(2).all(|w| w[0].score <= w[1].score),
            "kgpm sessions stream in score order across batch boundaries"
        );
        let m = h.stats().metrics;
        assert_eq!((m.plan_hits, m.plan_misses), (0, 1));
        // Warm re-open: the pattern plan is a cache hit (decomposition,
        // candidate discovery and the residual bound are all reused)
        // and the published prefix answers from the result cache.
        let again = h.topk(TRIANGLE, Algo::Kgpm, 100).unwrap();
        assert_eq!(again, all, "warm kgpm re-open streams identical bytes");
        let m = h.stats().metrics;
        assert_eq!(m.plan_hits, 1);
        assert_eq!(m.cache_hits, 1);
    }

    #[test]
    fn kgpm_on_snapshot_store_without_graph_is_pattern_unsupported() {
        // The MemStore test handle carries no data graph, so there is
        // no undirected mirror to plan patterns over.
        let h = handle_with(ServiceConfig::default());
        let err = h.open(TRIANGLE, Algo::Kgpm).unwrap_err();
        assert_eq!(err.code(), "pattern-unsupported");
        assert!(matches!(err, ServiceError::PatternUnsupported));
        assert_eq!(h.stats().metrics.errors, 1);
        assert_eq!(h.stats().plan_entries, 0, "no plan was registered");
        // Cyclic text is still a bad query for tree algorithms.
        let err = h.open(TRIANGLE, Algo::Topk).unwrap_err();
        assert_eq!(err.code(), "bad-query");
        // Malformed text is a bad query in either form, and a failed
        // OPEN never leaves a plan behind.
        for algo in [Algo::Topk, Algo::Kgpm] {
            let err = h.open("C -> ", algo).unwrap_err();
            assert_eq!(err.code(), "bad-query", "{algo:?}");
        }
        let s = h.stats();
        assert_eq!(s.metrics.errors, 4);
        assert_eq!(s.plan_entries, 0, "failed OPENs cache no plan");
        assert_eq!(s.metrics.cache_misses, 0, "failed OPENs are no sessions");
    }

    #[test]
    fn warm_plans_is_dual_form() {
        let (h, _) = live_handle(ServiceConfig::default());
        // A cyclic pattern, a tree query, and junk: the first two warm
        // (one pattern plan, one tree plan), the junk is skipped.
        let report = h.warm_plans([TRIANGLE, "C -> E\nC -> S", "broken ->"]);
        assert_eq!((report.warmed, report.skipped), (2, 1));
        let id = h.open(TRIANGLE, Algo::Kgpm).unwrap();
        h.next(id, 3).unwrap();
        h.close(id).unwrap();
        let m = h.stats().metrics;
        assert_eq!(
            (m.plan_hits, m.plan_misses),
            (1, 0),
            "a warmed pattern's first kgpm OPEN is a plan hit"
        );
        // Without a mirror, pattern warming is skipped like junk.
        let snapshot = handle_with(ServiceConfig::default());
        let r = snapshot.warm_plans([TRIANGLE]);
        assert_eq!((r.warmed, r.skipped), (0, 1));
    }

    #[test]
    fn updates_fence_kgpm_sessions_and_invalidate_only_touched_pattern_plans() {
        let (h, _) = live_handle(ServiceConfig::default());
        // Three live sessions over three distinct plans: the triangle
        // pattern (reads the undirected (E, S) table among others), a
        // single-edge C->E pattern, and the C->E tree query. The "C ->
        // E" text is shared — pattern and tree plans must be separate
        // cache entries.
        let tri = h.open(TRIANGLE, Algo::Kgpm).unwrap();
        h.next(tri, 2).unwrap();
        let ce_pattern = h.open("C -> E", Algo::Kgpm).unwrap();
        h.next(ce_pattern, 1).unwrap();
        let ce_tree = h.open("C -> E", Algo::Topk).unwrap();
        h.next(ce_tree, 1).unwrap();
        assert_eq!(h.stats().plan_entries, 3);

        // Re-weight v5 -> v7 (an E -> S edge). Node v7 hangs off v5
        // alone, so undirected repairs touch only S-involving tables:
        // the triangle's plan is affected, both C->E plans are not
        // (undirected C–E distances never route through v7, and the
        // directed (C, E) closure is untouched entirely).
        let report = h
            .apply_delta(&ktpm_graph::GraphDelta::new().set_weight(NodeId(4), NodeId(6), 5))
            .unwrap();
        assert_eq!(report.plans_invalidated, 1, "only the triangle plan");
        assert_eq!(report.sessions_fenced, 1, "only the triangle session");
        assert_eq!(
            report.prefix_entries_invalidated, 1,
            "the triangle's published prefix is re-classified as a pattern and dropped"
        );
        let err = h.next(tri, 1).unwrap_err();
        assert_eq!(err.code(), "stale-version");
        assert!(
            h.next(ce_pattern, 1).is_ok(),
            "unaffected kgpm session streams on"
        );
        assert!(
            h.next(ce_tree, 1).is_ok(),
            "unaffected tree session streams on"
        );

        // The unaffected pattern re-opens as a plan hit; the fenced one
        // rebuilds and serves the post-delta graph.
        let before = h.stats().metrics;
        h.topk("C -> E", Algo::Kgpm, 1).unwrap();
        assert_eq!(h.stats().metrics.plan_hits, before.plan_hits + 1);
        let before = h.stats().metrics;
        let post = h.topk(TRIANGLE, Algo::Kgpm, 100).unwrap();
        assert_eq!(h.stats().metrics.plan_misses, before.plan_misses + 1);
        assert_eq!(post.len(), 12, "all triangles still exist, re-scored");

        // Re-weight C -> S (v1 -> v4): the directed closure changes only
        // its (C, S) table, but undirected C–E distances routed through
        // v4 grow. Each plan is judged by the list it reads: the C–E
        // pattern session is fenced, the C -> E tree session is not.
        let report = h.apply_delta(&cs_only_delta()).unwrap();
        assert_eq!(report.sessions_fenced, 1, "only the C–E pattern session");
        assert_eq!(h.next(ce_pattern, 1).unwrap_err().code(), "stale-version");
        assert!(
            h.next(ce_tree, 1).is_ok(),
            "the directed (C, E) table is untouched"
        );
    }

    #[test]
    fn result_entries_hold_their_plan_weakly_and_orphans_drop_on_update() {
        let (h, _) = live_handle(ServiceConfig::new().with_plan_cache_capacity(1));
        h.topk("C -> E", Algo::Topk, 100).unwrap();
        let evicted = Arc::downgrade(&h.engine.plans.lock().unwrap().plans()[0]);
        // The next query's plan evicts the first; its session is closed.
        h.topk("C -> S", Algo::Topk, 100).unwrap();
        let s = h.stats();
        assert_eq!((s.plan_entries, s.cache_entries), (1, 2));
        assert_eq!(
            evicted.strong_count(),
            0,
            "the result cache does not keep an evicted plan alive"
        );

        // A delta that changes no table: the prefix whose plan is gone
        // cannot be classified and goes; the one whose plan is cached
        // and unaffected stays.
        let report = h
            .apply_delta(&GraphDelta::new().set_weight(NodeId(0), NodeId(3), 1))
            .unwrap();
        assert_eq!(report.touched_pairs, 0, "same weight: nothing changed");
        assert_eq!(report.plans_invalidated, 0);
        assert_eq!(report.prefix_entries_invalidated, 1);
        let before = h.stats().metrics;
        h.topk("C -> S", Algo::Topk, 100).unwrap();
        h.topk("C -> E", Algo::Topk, 100).unwrap();
        let after = h.stats().metrics;
        assert_eq!(after.cache_hits, before.cache_hits + 1, "C -> S kept");
        assert_eq!(
            after.cache_misses,
            before.cache_misses + 1,
            "C -> E dropped"
        );
    }
}
