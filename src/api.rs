//! The one-stop query API: [`Executor`] + [`QueryBuilder`] over the
//! single [`MatchStream`] enumeration surface.
//!
//! Every engine in this workspace — `Topk`, `Topk-EN`, `ParTopk`,
//! DP-B/DP-P, the kGPM graph-pattern engine, the brute oracle — emits
//! a canonical ranked match stream; this module is the one place
//! callers select and run them, replacing the per-algorithm
//! constructor special-casing the CLI, bench drivers and examples used
//! to carry. Ranked-enumeration systems present exactly one any-k
//! iterator over many internal algorithms (Tziavelis et al., VLDB
//! 2020); this is that interface here:
//!
//! ```
//! use ktpm::api::Executor;
//! use ktpm::prelude::*;
//!
//! let g = ktpm::graph::fixtures::citation_graph();
//! let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
//! let exec = Executor::new(g.interner().clone(), store);
//!
//! // All four algorithms behind one builder; streams are byte-identical.
//! let top: Vec<ScoredMatch> = exec
//!     .query("C -> E\nC -> S")?
//!     .algo(Algo::Par)
//!     .shards(2)
//!     .k(3)
//!     .stream()?
//!     .collect();
//! assert_eq!(top.len(), 3);
//!
//! // Batched pull: one virtual call per batch, not per match.
//! let mut stream = exec.query("C -> E\nC -> S")?.algo(Algo::Topk).stream()?;
//! let mut batch = Vec::new();
//! while !stream.next_batch(2, &mut batch).is_done() {}
//! assert_eq!(batch[..3], top[..]);
//! # Ok::<(), ktpm::api::ApiError>(())
//! ```
//!
//! The builder resolves to a [`BoxedMatchStream`] via the canonical
//! [`ktpm_core::build_stream`] dispatch, so anything expressible here
//! behaves identically inside the serving layer (`ktpm serve` sessions
//! run the very same streams). Repeated queries should share setup:
//! pass a plan handle ([`QueryBuilder::plan`]) or a cache
//! ([`QueryBuilder::plan_cache`]) and warm runs skip candidate
//! discovery entirely.
//!
//! ## Graph patterns
//!
//! [`Executor::query`] accepts both query forms of the paper: twig
//! text and the undirected edge-list pattern form (for
//! [`Algo::Kgpm`]). The selected algorithm decides which form the text
//! is read in ([`Algo::form`]): `Algo::Kgpm` builds a *pattern plan*
//! (decomposition + undirected mirror), every other algorithm a tree
//! plan — both through the one text → plan constructor,
//! [`QueryPlan::from_text`], and a plan cache keys on that form and
//! the canonical text. The store must expose an undirected mirror for
//! pattern queries (graph-attached stores do: `MemStore::with_graph`,
//! `LiveStore`, `OnDemandStore`).

use ktpm_core::{
    build_stream, canonical_query_text, Algo, BoxedMatchStream, ParallelPolicy, PlanError,
    QueryForm, QueryPlan, ScoredMatch, ShardEngine,
};
use ktpm_exec::WorkerPool;
use ktpm_graph::{GraphDelta, LabelInterner};
use ktpm_query::{GraphQuery, ResolvedQuery};
use ktpm_service::{PlanCache, ServiceError};
use ktpm_storage::{DeltaReport, SharedSource, StorageError};
use std::fmt;
use std::sync::{Arc, Mutex};

// Re-exported so `use ktpm::api::*` is self-contained.
pub use ktpm_core::{AlgoCaps, MatchStream, StreamState};

/// Errors from the facade.
///
/// `#[non_exhaustive]`: match with a wildcard arm — new variants (like
/// [`ApiError::Storage`]) keep appearing as the API grows.
#[derive(Debug)]
#[non_exhaustive]
pub enum ApiError {
    /// The query text failed to parse.
    BadQuery(String),
    /// A builder option the selected algorithm does not support (e.g.
    /// `.shards(…)` on a non-sharded engine; see [`Algo::caps`]).
    Unsupported(String),
    /// The closure store rejected an operation — a graph delta on a
    /// snapshot store, or a delta naming a missing edge or zero weight.
    Storage(StorageError),
    /// A serving-layer error, for callers driving a
    /// [`ktpm_service::ServiceHandle`] alongside the facade.
    Service(ServiceError),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::BadQuery(m) => write!(f, "bad query: {m}"),
            ApiError::Unsupported(m) => write!(f, "unsupported option: {m}"),
            ApiError::Storage(e) => write!(f, "storage: {e}"),
            ApiError::Service(e) => write!(f, "service: {e}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<StorageError> for ApiError {
    fn from(e: StorageError) -> Self {
        ApiError::Storage(e)
    }
}

impl From<ServiceError> for ApiError {
    fn from(e: ServiceError) -> Self {
        ApiError::Service(e)
    }
}

impl From<PlanError> for ApiError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::BadQuery(m) => ApiError::BadQuery(m),
            PlanError::PatternUnsupported => ApiError::Unsupported(
                "graph patterns need a store with an undirected mirror — attach the graph \
                 (MemStore::with_graph, LiveStore, OnDemandStore)"
                    .to_string(),
            ),
        }
    }
}

/// A query executor over one closure store: the entry point of the
/// facade. Cheap to construct and to share (`&Executor` is all a
/// builder borrows); one per `(graph, store)` pair is the intended
/// shape, mirroring the serving layer's engine.
pub struct Executor {
    interner: LabelInterner,
    source: SharedSource,
    pool: Arc<WorkerPool>,
}

impl Executor {
    /// An executor resolving query labels through `interner` (clone it
    /// off the data graph) and matching against `source`. Parallel
    /// streams run on the process-wide default worker pool; use
    /// [`Executor::with_pool`] to supply your own.
    pub fn new(interner: LabelInterner, source: impl Into<SharedSource>) -> Executor {
        Executor::with_pool(interner, source, ktpm_exec::default_pool())
    }

    /// As [`Executor::new`] with an explicit worker pool for
    /// [`Algo::Par`] shard jobs.
    pub fn with_pool(
        interner: LabelInterner,
        source: impl Into<SharedSource>,
        pool: Arc<WorkerPool>,
    ) -> Executor {
        Executor {
            interner,
            source: source.into(),
            pool,
        }
    }

    /// The closure store this executor matches against.
    pub fn source(&self) -> &SharedSource {
        &self.source
    }

    /// Starts a query from text: twig lines (`A -> B` / `A => B`) or
    /// the undirected edge-list pattern form. Text valid in both forms
    /// keeps both — the algorithm selected on the builder decides which
    /// plan is built ([`Algo::form`]: [`Algo::Kgpm`] ⇒ pattern,
    /// everything else ⇒ tree). Text that is neither is rejected here.
    /// Defaults: `Algo::TopkEn`, unbounded `k`, the default
    /// [`ParallelPolicy`].
    pub fn query(&self, text: &str) -> Result<QueryBuilder<'_>, ApiError> {
        let text = canonical_query_text(text);
        let plan = |form| QueryPlan::from_text(form, &text, &self.interner, &self.source);
        if let Err(te) = plan(QueryForm::Tree) {
            if let Err(PlanError::BadQuery(pe)) = plan(QueryForm::Pattern) {
                return Err(ApiError::BadQuery(format!(
                    "neither a tree query ({te}) nor a graph pattern ({pe})"
                )));
            }
        }
        Ok(self.builder(text, None))
    }

    /// Starts a query from an already-resolved tree (programmatic
    /// callers that never had query text).
    pub fn query_resolved(&self, query: ResolvedQuery) -> QueryBuilder<'_> {
        let plan = QueryPlan::new(query, Arc::clone(&self.source));
        self.builder(String::new(), Some(Arc::new(plan)))
    }

    /// Starts a graph-pattern query from an already-built
    /// [`GraphQuery`]. The algorithm defaults to [`Algo::Kgpm`] — the
    /// one engine over patterns.
    pub fn query_pattern(&self, pattern: GraphQuery) -> QueryBuilder<'_> {
        let mut b = self.builder(String::new(), None);
        b.algo = Algo::Kgpm;
        match QueryPlan::new_pattern(pattern, &self.interner, &self.source) {
            Ok(plan) => b.plan = Some(Arc::new(plan)),
            Err(e) => b.deferred_err = Some(PlanError::from(e).into()),
        }
        b
    }

    /// A builder over canonical `text` (empty without text) and, if
    /// fixed, the plan to run (otherwise built from the text).
    fn builder(&self, text: String, plan: Option<Arc<QueryPlan>>) -> QueryBuilder<'_> {
        QueryBuilder {
            exec: self,
            text,
            algo: Algo::TopkEn,
            k: None,
            policy: ParallelPolicy::default(),
            shards_set: false,
            plan,
            cache: None,
            deferred_err: None,
        }
    }

    /// Applies a [`GraphDelta`] to the underlying store, which must
    /// accept updates (e.g. [`ktpm_storage::LiveStore`]; snapshot
    /// stores return [`StorageError::UpdatesUnsupported`] wrapped in
    /// [`ApiError::Storage`]). Returns the store's repair report: the
    /// new graph version and the closure-table label pairs the delta
    /// actually changed.
    ///
    /// Plans are snapshots. A [`QueryPlan`] handle built before the
    /// delta (via [`Executor::plan_for`] or [`QueryBuilder::plan_cache`])
    /// still describes the pre-delta graph — drop affected plans
    /// yourself (a caller-held [`PlanCache`] does it delta-aware when
    /// handed the returned report: [`PlanCache::invalidate_affected`]),
    /// or use the serving layer
    /// ([`ktpm_service::ServiceHandle::apply_delta`]), which invalidates
    /// its caches and fences affected sessions automatically.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<DeltaReport, ApiError> {
        Ok(self.source.apply_delta(delta)?)
    }

    /// The store's current graph version (0 for snapshot stores; bumped
    /// by every applied delta).
    pub fn graph_version(&self) -> u64 {
        self.source.graph_version()
    }

    /// The store's cumulative I/O counters — blocks/bytes/edges read
    /// and, on the paged (format-v5) backend, block-cache
    /// hit/miss/eviction counts plus the resident-bytes gauge. This is
    /// what `ktpm query --iostats` and the servers' `STATS` line print.
    pub fn io(&self) -> ktpm_storage::IoSnapshot {
        self.source.io()
    }

    /// Zeroes the store's I/O counters, so a following [`Executor::io`]
    /// reflects one phase in isolation.
    pub fn reset_io(&self) {
        self.source.reset_io();
    }

    /// A shareable [`QueryPlan`] for `text` read the way `algo` reads
    /// it (a pattern plan for [`Algo::Kgpm`], a tree plan otherwise)
    /// over this executor's store — hand it to [`QueryBuilder::plan`]
    /// across repeated runs of that algorithm so only the first pays
    /// setup (what `--repeat` and the serving layer's plan cache do).
    /// Errors exactly as `self.query(text)?.algo(algo).stream()` would.
    pub fn plan_for(&self, text: &str, algo: Algo) -> Result<Arc<QueryPlan>, ApiError> {
        self.query(text)?.algo(algo).resolve_plan()
    }
}

/// One query's execution choices; terminate with
/// [`QueryBuilder::stream`] (a lazy [`BoxedMatchStream`]) or
/// [`QueryBuilder::topk`] (collect). Consumes itself on terminal
/// calls; all setters are chainable.
pub struct QueryBuilder<'e> {
    exec: &'e Executor,
    /// Canonical query text (the plan-cache key's text); empty for
    /// builders made without text, for which
    /// [`QueryBuilder::plan_cache`] is rejected at
    /// [`QueryBuilder::stream`] (no text, no cache key).
    text: String,
    algo: Algo,
    k: Option<usize>,
    policy: ParallelPolicy,
    /// A setter detected misuse; surfaced as `Err` by the terminal
    /// calls (setters are infallible by signature).
    deferred_err: Option<ApiError>,
    shards_set: bool,
    /// The plan to run, when fixed: the caller's handle
    /// ([`QueryBuilder::plan`]) or the plan of a builder made without
    /// text. Otherwise the plan is built from `text`.
    plan: Option<Arc<QueryPlan>>,
    /// Deferred to [`QueryBuilder::stream`]: the plan-cache key's form
    /// depends on the *final* algorithm, which may be set after
    /// [`QueryBuilder::plan_cache`].
    cache: Option<&'e Mutex<PlanCache>>,
}

impl<'e> QueryBuilder<'e> {
    /// Selects the algorithm (default: [`Algo::TopkEn`]). The stream
    /// is byte-identical across algorithms — this is a performance
    /// choice only.
    pub fn algo(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Caps the stream at the top `k` matches (default: unbounded).
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Root-shard count for sharded engines. Rejected at
    /// [`QueryBuilder::stream`] if the selected algorithm's
    /// [`Algo::caps`] lack sharding — an explicit error instead of a
    /// silently sequential run.
    pub fn shards(mut self, shards: usize) -> Self {
        self.policy.shards = shards;
        self.shards_set = true;
        self
    }

    /// Matches pulled per shard job (sharded engines; see
    /// [`ParallelPolicy::batch`]).
    pub fn batch(mut self, batch: usize) -> Self {
        self.policy.batch = batch;
        self
    }

    /// The per-shard engine for [`Algo::Par`] (see [`ShardEngine`]).
    pub fn shard_engine(mut self, engine: ShardEngine) -> Self {
        self.policy.engine = engine;
        self
    }

    /// Runs over `plan` instead of building a fresh one — the plan
    /// must have been created for this same query text and store
    /// (e.g. by [`Executor::plan_for`]). Warm plans skip candidate
    /// discovery entirely.
    pub fn plan(mut self, plan: Arc<QueryPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Resolves the plan through `cache` (keyed by query form and
    /// canonical text, exactly like the serving layer): a hit reuses
    /// the cached setup, a miss registers a cold plan for future runs,
    /// and a text that does not plan registers nothing. Only valid
    /// on text-built queries ([`Executor::query`]) — a
    /// [`Executor::query_resolved`] builder has no cache key, and
    /// keying it on nothing would collide every resolved query onto
    /// one plan; the terminal call reports that as
    /// [`ApiError::Unsupported`]. Use [`QueryBuilder::plan`] there.
    pub fn plan_cache(mut self, cache: &'e Mutex<PlanCache>) -> Self {
        if self.text.is_empty() {
            self.deferred_err = Some(ApiError::Unsupported(
                "plan_cache() needs a text query for its cache key; this query was built \
                 without text (query_resolved()/query_pattern()) — pass a plan handle via \
                 .plan(...) instead"
                    .to_string(),
            ));
            return self;
        }
        self.cache = Some(cache);
        self
    }

    /// Builds the match stream: every algorithm behind one
    /// `Box<dyn MatchStream + Send>`, in the canonical
    /// `(score, assignment)` order.
    pub fn stream(mut self) -> Result<BoxedMatchStream, ApiError> {
        if let Some(err) = self.deferred_err.take() {
            return Err(err);
        }
        if self.shards_set && self.policy.shards > 1 && !self.algo.caps().sharded {
            return Err(ApiError::Unsupported(format!(
                "algorithm {:?} does not support sharding (asked for {} shards); \
                 use .algo(Algo::Par)",
                self.algo.name(),
                self.policy.shards
            )));
        }
        let (exec, algo, policy, k) = (self.exec, self.algo, self.policy, self.k);
        let plan = self.resolve_plan()?;
        let stream = build_stream(algo, &plan, &policy, Arc::clone(&exec.pool));
        Ok(match k {
            Some(k) => ktpm_core::limit(stream, k),
            None => stream,
        })
    }

    /// The plan the selected algorithm runs over: the fixed plan, a
    /// plan-cache entry, or a fresh plan of the form the algorithm
    /// reads the text in.
    fn resolve_plan(self) -> Result<Arc<QueryPlan>, ApiError> {
        let form = self.algo.form();
        if let Some(p) = self.plan {
            let wants_pattern = form == QueryForm::Pattern;
            if p.is_pattern() != wants_pattern {
                return Err(ApiError::Unsupported(format!(
                    "plan/algorithm mismatch: algorithm {:?} needs a {} plan but the supplied \
                     plan is a {} plan",
                    self.algo.name(),
                    if wants_pattern { "pattern" } else { "tree" },
                    if p.is_pattern() { "pattern" } else { "tree" },
                )));
            }
            return Ok(p);
        }
        let key = (form, self.text);
        let build = || QueryPlan::from_text(form, &key.1, &self.exec.interner, &self.exec.source);
        let plan = match self.cache {
            Some(cache) => cache
                .lock()
                .expect("plan cache lock")
                .get_or_insert(&key, build)
                .map(|(plan, _)| plan),
            None => build().map(Arc::new),
        };
        // `Executor::query` only lets through text that is one of the
        // two forms: failing to parse as one means it is the other.
        plan.map_err(|err| match err {
            PlanError::BadQuery(e) if form == QueryForm::Pattern => ApiError::BadQuery(format!(
                "Algo::Kgpm needs a graph pattern, but the query is not one: {e}"
            )),
            PlanError::BadQuery(_) => ApiError::Unsupported(format!(
                "the query only parsed as a graph pattern, which algorithm {:?} cannot run; \
                 use .algo(Algo::Kgpm)",
                self.algo.name()
            )),
            err => err.into(),
        })
    }

    /// Convenience: builds the stream and collects it (bounded by
    /// [`QueryBuilder::k`] if set — set it, unless you really want
    /// every match).
    pub fn topk(self) -> Result<Vec<ScoredMatch>, ApiError> {
        Ok(self.stream()?.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_core::{limit, KgpmStream};
    use ktpm_graph::fixtures::citation_graph;
    use ktpm_storage::MemStore;

    fn exec() -> Executor {
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        Executor::new(g.interner().clone(), store)
    }

    #[test]
    fn all_algorithms_stream_identically_through_the_builder() {
        let e = exec();
        let want = e
            .query("C -> E\nC -> S")
            .unwrap()
            .algo(Algo::Topk)
            .topk()
            .unwrap();
        assert_eq!(want.len(), 5);
        // Kgpm answers the *pattern* reading of the text (undirected
        // semantics — a different match set); it gets its own tests.
        for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Kgpm) {
            let mut b = e.query("C -> E\nC -> S").unwrap().algo(algo);
            if algo.caps().sharded {
                b = b.shards(3);
            }
            assert_eq!(b.topk().unwrap(), want, "{algo:?}");
        }
    }

    /// An executor whose store carries the graph, so pattern plans can
    /// derive the undirected mirror.
    fn pattern_exec() -> Executor {
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g))
            .with_graph(g.clone())
            .into_shared();
        Executor::new(g.interner().clone(), store)
    }

    #[test]
    fn kgpm_streams_through_the_facade() {
        let e = pattern_exec();
        // Cyclic pattern: only parses as a graph pattern.
        let got = e
            .query("C -> E\nE -> S\nS -> C")
            .unwrap()
            .algo(Algo::Kgpm)
            .k(10)
            .topk()
            .unwrap();
        // Reference: a sequential mtree+ stream over a pattern plan of
        // the same graph, built without the facade.
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g))
            .with_graph(g.clone())
            .into_shared();
        let q = GraphQuery::parse("C -> E\nE -> S\nS -> C").unwrap();
        let plan = QueryPlan::new_pattern(q, g.interner(), &store).unwrap();
        let policy = ParallelPolicy {
            shards: 1,
            engine: ShardEngine::Lazy,
            ..ParallelPolicy::default()
        };
        let mtree_plus = KgpmStream::from_plan(&plan, &policy, ktpm_exec::default_pool());
        let want: Vec<ScoredMatch> = limit(Box::new(mtree_plus), 10).collect();
        assert!(!want.is_empty());
        assert_eq!(got, want);
        // Sharded kgpm is byte-identical (Kgpm caps sharding).
        let sharded = e
            .query("C -> E\nE -> S\nS -> C")
            .unwrap()
            .algo(Algo::Kgpm)
            .shards(4)
            .k(10)
            .topk()
            .unwrap();
        assert_eq!(sharded, got);
    }

    #[test]
    fn pattern_only_text_needs_kgpm_and_tree_algos_say_so() {
        let e = pattern_exec();
        let err = e
            .query("C -> E\nE -> S\nS -> C")
            .unwrap()
            .algo(Algo::Topk)
            .stream()
            .err()
            .unwrap();
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
    }

    #[test]
    fn kgpm_on_tree_only_text_is_a_bad_query() {
        let e = pattern_exec();
        // `=>` child edges exist only in tree queries.
        let err = e
            .query("C => E")
            .unwrap()
            .algo(Algo::Kgpm)
            .stream()
            .err()
            .unwrap();
        assert!(matches!(err, ApiError::BadQuery(_)), "{err}");
    }

    #[test]
    fn kgpm_without_mirror_is_an_explicit_error() {
        // A plain MemStore (no attached graph) has no undirected mirror.
        let e = exec();
        let err = e
            .query("C -> E\nE -> S\nS -> C")
            .unwrap()
            .algo(Algo::Kgpm)
            .stream()
            .err()
            .unwrap();
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
    }

    #[test]
    fn pattern_plans_cache_separately_from_tree_plans() {
        let e = pattern_exec();
        let cache = Mutex::new(PlanCache::new(8));
        // Same text, both forms: tree run then pattern run.
        let tree = e
            .query("C -> E\nC -> S")
            .unwrap()
            .plan_cache(&cache)
            .topk()
            .unwrap();
        let pat = e
            .query("C -> E\nC -> S")
            .unwrap()
            .algo(Algo::Kgpm)
            .plan_cache(&cache)
            .topk()
            .unwrap();
        assert_eq!(cache.lock().unwrap().len(), 2, "two distinct keys");
        assert_ne!(
            tree.len(),
            pat.len(),
            "undirected pattern semantics admit more matches"
        );
        // Warm pattern re-open: the cached plan is reused.
        let pat2 = e
            .query("C -> E\nC -> S")
            .unwrap()
            .algo(Algo::Kgpm)
            .plan_cache(&cache)
            .topk()
            .unwrap();
        assert_eq!(pat, pat2);
        assert_eq!(cache.lock().unwrap().len(), 2);
    }

    #[test]
    fn plan_algo_mismatch_is_an_explicit_error() {
        let e = pattern_exec();
        let plan = e.plan_for("C -> E", Algo::Topk).unwrap();
        let err = e
            .query("C -> E")
            .unwrap()
            .algo(Algo::Kgpm)
            .plan(plan)
            .stream()
            .err()
            .unwrap();
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
    }

    #[test]
    fn plan_for_builds_the_form_the_algorithm_reads() {
        let e = pattern_exec();
        let tri = "C -> E\nE -> S\nS -> C";
        let plan = e.plan_for(tri, Algo::Kgpm).unwrap();
        assert!(plan.is_pattern());
        let run = |plan: &Arc<QueryPlan>| {
            e.query(tri)
                .unwrap()
                .algo(Algo::Kgpm)
                .plan(Arc::clone(plan))
                .topk()
                .unwrap()
        };
        let cold = run(&plan);
        assert_eq!(cold.len(), 12);
        assert_eq!(run(&plan), cold, "a warm pattern handle streams the same");
        // The handle errs as the builder would: a cycle is no tree.
        let err = e.plan_for(tri, Algo::Topk).err().unwrap();
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
        assert!(matches!(
            e.plan_for("C -> ", Algo::Kgpm),
            Err(ApiError::BadQuery(_))
        ));
    }

    #[test]
    fn k_caps_the_stream() {
        let e = exec();
        let top2 = e.query("C -> E\nC -> S").unwrap().k(2).topk().unwrap();
        assert_eq!(top2.len(), 2);
    }

    #[test]
    fn shards_on_sequential_algo_is_an_explicit_error() {
        let e = exec();
        let Err(err) = e
            .query("C -> E")
            .unwrap()
            .algo(Algo::Topk)
            .shards(4)
            .stream()
        else {
            panic!("sharded Topk must be rejected");
        };
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
        // One shard is sequential anyway: allowed on any algorithm.
        assert!(e
            .query("C -> E")
            .unwrap()
            .algo(Algo::Topk)
            .shards(1)
            .stream()
            .is_ok());
    }

    #[test]
    fn bad_query_errors() {
        let e = exec();
        assert!(matches!(e.query("C -> "), Err(ApiError::BadQuery(_))));
    }

    #[test]
    fn plan_cache_shares_setup_across_builder_runs() {
        let e = exec();
        let cache = Mutex::new(PlanCache::new(8));
        let a = e
            .query("C -> E\nC -> S")
            .unwrap()
            .plan_cache(&cache)
            .topk()
            .unwrap();
        // Second run hits the same plan (whitespace-insensitively).
        let b = e
            .query("  C ->  E \n C -> S ")
            .unwrap()
            .algo(Algo::Topk)
            .plan_cache(&cache)
            .topk()
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.lock().unwrap().len(), 1);
    }

    #[test]
    fn plan_cache_on_resolved_query_is_an_explicit_error() {
        // A resolved-only builder has no cache key; caching it would
        // collide every resolved query onto one plan and silently
        // serve the wrong matches. It must error instead.
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        let e = Executor::new(g.interner().clone(), store);
        let cache = Mutex::new(PlanCache::new(8));
        let rq = ktpm_query::TreeQuery::parse("C -> E")
            .unwrap()
            .resolve(g.interner());
        let err = e.query_resolved(rq).plan_cache(&cache).topk().unwrap_err();
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
        assert_eq!(cache.lock().unwrap().len(), 0, "nothing was cached");
    }

    #[test]
    fn apply_delta_updates_live_stores_and_errors_on_snapshots() {
        use ktpm_graph::NodeId;
        use ktpm_storage::LiveStore;
        let delta = GraphDelta::new().set_weight(NodeId(0), NodeId(3), 5);

        // Snapshot store: an explicit, typed refusal.
        let e = exec();
        assert!(matches!(
            e.apply_delta(&delta),
            Err(ApiError::Storage(StorageError::UpdatesUnsupported(_)))
        ));
        assert_eq!(e.graph_version(), 0);

        // Live store: the version bumps and, after invalidating the
        // affected plan, streams match a cold build of the mutated
        // graph exactly.
        let g = citation_graph();
        let e = Executor::new(
            g.interner().clone(),
            LiveStore::new(g.clone()).into_shared(),
        );
        let cache = Mutex::new(PlanCache::new(8));
        let before = e
            .query("C -> S")
            .unwrap()
            .plan_cache(&cache)
            .topk()
            .unwrap();
        let report = e.apply_delta(&delta).unwrap();
        assert_eq!(report.version, 1);
        assert_eq!(e.graph_version(), 1);
        assert_eq!(cache.lock().unwrap().invalidate_affected(&report), 1);
        let after = e
            .query("C -> S")
            .unwrap()
            .plan_cache(&cache)
            .topk()
            .unwrap();
        let (mutated, _) = g.apply_delta(&delta).unwrap();
        let cold = Executor::new(
            mutated.interner().clone(),
            MemStore::new(ClosureTables::compute(&mutated)).into_shared(),
        )
        .query("C -> S")
        .unwrap()
        .topk()
        .unwrap();
        assert_eq!(after, cold, "post-delta stream equals cold rebuild");
        assert_ne!(after, before, "the delta moved a match's score");
    }

    #[test]
    fn resolved_queries_run_without_text() {
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        let e = Executor::new(g.interner().clone(), store);
        let rq = ktpm_query::TreeQuery::parse("C -> E\nC -> S")
            .unwrap()
            .resolve(g.interner());
        let got = e.query_resolved(rq).algo(Algo::Par).topk().unwrap();
        assert_eq!(got.len(), 5);
    }
}
