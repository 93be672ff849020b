//! The in-process query surface: [`Executor`] + [`QueryBuilder`] over
//! the single [`MatchStream`](crate::MatchStream) enumeration surface.
//!
//! An [`Executor`] holds what every query over one store needs — the
//! label interner, the closure store and the worker pool sharded
//! engines run on — and is the one place request text becomes a plan
//! ([`Executor::build_plan`], over [`QueryPlan::from_text`]) and a plan
//! becomes a stream ([`Executor::build_stream`], over
//! [`crate::build_stream`]). The root crate re-exports it as
//! `ktpm::api` (module docs and examples there), and the serving
//! layer's engine runs over one: both front ends read text in the same
//! forms and stream the same bytes.

use crate::exec::WorkerPool;
use crate::{
    canonical_query_text, Algo, BoxedMatchStream, ParallelPolicy, PlanError, QueryForm, QueryPlan,
    ScoredMatch,
};
use ktpm_graph::LabelInterner;
use ktpm_query::{GraphQuery, ResolvedQuery};
use ktpm_storage::SharedSource;
use std::fmt;
use std::sync::Arc;

/// Errors from the facade.
///
/// `#[non_exhaustive]`: match with a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum ApiError {
    /// The query text failed to parse.
    BadQuery(String),
    /// A builder option the selected algorithm does not support (e.g.
    /// `.shards(…)` on a non-sharded engine; see [`Algo::sharded`]).
    Unsupported(String),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::BadQuery(m) => write!(f, "bad query: {m}"),
            ApiError::Unsupported(m) => write!(f, "unsupported option: {m}"),
        }
    }
}

impl std::error::Error for ApiError {}

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

/// The one rule for text whose form no algorithm fixed: `plan` is tried
/// for the tree form first and, only if that fails, for the pattern
/// form. A text that plans as a rooted tree is a tree query (every tree
/// algorithm shares its plan); one that does not (typically a cycle) is
/// read as a graph pattern. Both errors come back when neither plans.
pub fn tree_then_pattern<T>(
    mut plan: impl FnMut(QueryForm) -> Result<T, PlanError>,
) -> Result<T, (PlanError, PlanError)> {
    plan(QueryForm::Tree).or_else(|te| plan(QueryForm::Pattern).map_err(|pe| (te, pe)))
}

/// A query executor over one closure store: the entry point of the
/// facade. Cheap to construct and to share (`&Executor` is all a
/// builder borrows); one per `(graph, store)` pair is the intended
/// shape — the serving layer's engine holds exactly one.
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
        Executor::with_pool(interner, source, crate::exec::default_pool())
    }

    /// As [`Executor::new`] with an explicit worker pool for
    /// [`Algo::Par`] and [`Algo::Kgpm`] shard jobs.
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

    /// The closure store this executor matches against: its I/O
    /// counters, graph version and (on live stores) `apply_delta`.
    pub fn source(&self) -> &SharedSource {
        &self.source
    }

    /// A cold plan for *canonical* `text` ([`canonical_query_text`])
    /// read in `form`, over this executor's store — the one call of
    /// [`QueryPlan::from_text`] the facade and the serving layer make.
    /// Errors as that constructor does.
    pub fn build_plan(&self, form: QueryForm, text: &str) -> Result<QueryPlan, PlanError> {
        QueryPlan::from_text(form, text, &self.interner, &self.source)
    }

    /// `algo`'s stream over `plan` ([`crate::build_stream`]), with
    /// sharded engines running their jobs on this executor's pool.
    /// `plan` must be of the form `algo` reads ([`Algo::form`]).
    pub fn build_stream(
        &self,
        algo: Algo,
        plan: &QueryPlan,
        policy: &ParallelPolicy,
    ) -> BoxedMatchStream {
        crate::build_stream(algo, plan, policy, Arc::clone(&self.pool))
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
        if let Err((te, PlanError::BadQuery(pe))) =
            tree_then_pattern(|form| self.build_plan(form, &text))
        {
            return Err(ApiError::BadQuery(format!(
                "neither a tree query ({te}) nor a graph pattern ({pe})"
            )));
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
            deferred_err: None,
        }
    }

    /// A shareable [`QueryPlan`] for `text` read the way `algo` reads
    /// it (a pattern plan for [`Algo::Kgpm`], a tree plan otherwise)
    /// over this executor's store — hand it to [`QueryBuilder::plan`]
    /// across repeated runs of that algorithm so only the first pays
    /// setup (what `--repeat` does; the serving layer caches plans the
    /// same way). Errors exactly as `self.query(text)?.algo(algo).stream()`
    /// would.
    ///
    /// Plans are snapshots: a handle built before a graph delta
    /// (`self.source().apply_delta(…)`) still describes the pre-delta
    /// graph. Ask it [`QueryPlan::is_affected_by`] with the delta's
    /// report and build a fresh one if it is.
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
    /// Canonical query text; empty for builders made without text,
    /// which always carry a fixed plan (or a deferred error).
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
}

impl QueryBuilder<'_> {
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
    /// [`QueryBuilder::stream`] if the selected algorithm is not
    /// [`Algo::sharded`] — an explicit error instead of a silently
    /// sequential run.
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

    /// Runs over `plan` instead of building a fresh one — the plan
    /// must have been created for this same query text and store
    /// (e.g. by [`Executor::plan_for`]). Warm plans skip candidate
    /// discovery entirely.
    pub fn plan(mut self, plan: Arc<QueryPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Builds the match stream: every algorithm behind one
    /// `Box<dyn MatchStream + Send>`, in the canonical
    /// `(score, assignment)` order.
    pub fn stream(mut self) -> Result<BoxedMatchStream, ApiError> {
        if let Some(err) = self.deferred_err.take() {
            return Err(err);
        }
        if self.shards_set && self.policy.shards > 1 && !self.algo.sharded() {
            return Err(ApiError::Unsupported(format!(
                "algorithm {:?} does not support sharding (asked for {} shards); \
                 use .algo(Algo::Par)",
                self.algo.name(),
                self.policy.shards
            )));
        }
        let (exec, algo, policy, k) = (self.exec, self.algo, self.policy, self.k);
        let plan = self.resolve_plan()?;
        let stream = exec.build_stream(algo, &plan, &policy);
        Ok(match k {
            Some(k) => crate::limit(stream, k),
            None => stream,
        })
    }

    /// The plan the selected algorithm runs over: the fixed plan, or a
    /// fresh plan of the form the algorithm reads the text in.
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
        // `Executor::query` only lets through text that is one of the
        // two forms: failing to parse as one means it is the other.
        self.exec
            .build_plan(form, &self.text)
            .map(Arc::new)
            .map_err(|err| match err {
                PlanError::BadQuery(e) if form == QueryForm::Pattern => ApiError::BadQuery(
                    format!("Algo::Kgpm needs a graph pattern, but the query is not one: {e}"),
                ),
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
