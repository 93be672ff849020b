//! The shared per-query setup plan.
//!
//! Every enumerator in this crate pays a setup pipeline before the
//! first match comes out: candidate discovery against the closure
//! store, run-time-graph construction (`Topk`/`ParTopk`), the `bs`
//! pass, slot-list construction. The paper's `Topk`/`Topk-EN` split
//! exists precisely because that O(m_R) setup dominates small-`k`
//! queries — and in a serving context the same query is opened over
//! and over, so the setup should be paid **once per query**, not once
//! per session.
//!
//! A [`QueryPlan`] is that factored-out setup state: immutable,
//! `Arc`-shared, and safe to hit from any number of concurrent
//! sessions. It holds two independently lazy halves, each built at
//! most once (`OnceLock`, so racing sessions block on one builder
//! instead of duplicating work):
//!
//! * the **full** half — the loaded [`RuntimeGraph`], its [`BsData`]
//!   and shared [`SlotTemplates`] — feeding `Topk`, every `ParTopk`
//!   shard, the DP-B baseline and the brute oracle;
//! * the **lazy** half ([`LazySetup`]) — the `D`-table candidate sets,
//!   initial `eᵥ` bounds and `E`-seed edges of §4.1 — feeding
//!   `Topk-EN`. When the full half
//!   already exists it is *derived* from the loaded graph instead of
//!   re-sweeping storage, so a warm plan never repeats candidate
//!   discovery for any algorithm. Discovery touches only the compact
//!   `D`/`E` tables — never a whole `L` pair region — so over the
//!   paged (format-v5) store the lazy half fetches **zero** group
//!   blocks; edge lists stream later, block by verified block, only
//!   as the Topk-EN priority loader demands them. The half is also the
//!   session's start state: the `E`-seeds are kept as one row per
//!   parent candidate, in slot-list rank order, so a session fills a
//!   seeded list from its row on first touch instead of replaying
//!   every seed.
//!
//! Per-enumerator state (heaps, cursors, materialized list prefixes)
//! stays private to each enumerator; the plan only shares what is
//! provably identical across sessions of one query.

use crate::bs::BsData;
use crate::candidates::{edge_label_pairs, prefetch_edge_label_pairs, CandidateSets};
use crate::decompose::decompose;
use crate::lawler::SlotTemplates;
use crate::runtime::RuntimeGraph;
use ktpm_graph::{Dist, LabelId, LabelInterner, NodeId, Score};
use ktpm_query::{EdgeKind, GraphQuery, QNodeId, QueryLabel, ResolvedQuery, TreeQuery};
use ktpm_storage::{ClosureSource, DeltaReport, Sections, SharedSource};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Canonicalizes query text so semantically identical requests share
/// one plan-cache entry: lines trimmed, inner whitespace collapsed,
/// blank lines dropped. Line *order* is preserved (it defines the
/// tree's BFS numbering). The serving layer keys its plan cache by
/// `(`[`QueryForm`]`, this text)`, and [`crate::Executor`] reads text
/// in this form.
pub fn canonical_query_text(query: &str) -> String {
    query
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Which reading of query text a plan answers. The same `A -> B` lines
/// are both a rooted twig ([`TreeQuery::parse`], directed closure) and
/// an undirected graph pattern ([`GraphQuery::parse`], §5 mirror), and
/// the two read different tables — so a plan cache keys on the form as
/// well as the text ([`crate::Algo::form`] picks it per algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryForm {
    /// A rooted tree query, planned by [`QueryPlan::new`].
    Tree,
    /// An undirected graph pattern, planned by [`QueryPlan::new_pattern`].
    Pattern,
}

/// Why [`QueryPlan::from_text`] built no plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The text does not parse in the requested form; carries the
    /// parser's message unchanged.
    BadQuery(String),
    /// A pattern was asked of a store without an undirected mirror.
    PatternUnsupported,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadQuery(m) => write!(f, "{m}"),
            PlanError::PatternUnsupported => write!(f, "{PatternUnsupported}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<PatternUnsupported> for PlanError {
    fn from(_: PatternUnsupported) -> Self {
        PlanError::PatternUnsupported
    }
}

/// Whether a resolved tree query reads any of the closure tables in
/// `touched_pairs` — the tree-plan half of [`QueryPlan::is_affected_by`].
///
/// A query reads one closure table per tree edge: the pair
/// `(parent label, child label)`, where a wildcard node reads every
/// table on its side and an unmatchable label reads none. Single-node
/// queries read no pair table at all and are never affected.
fn query_reads_touched_pairs(query: &ResolvedQuery, touched_pairs: &[(LabelId, LabelId)]) -> bool {
    if touched_pairs.is_empty() {
        return false;
    }
    let tree = query.tree();
    let matches = |ql: QueryLabel, l: LabelId| match ql {
        QueryLabel::Label(have) => have == l,
        QueryLabel::Wildcard => true,
        QueryLabel::Unmatchable => false,
    };
    tree.node_ids().skip(1).any(|u| {
        let p = tree.parent(u).expect("non-root");
        let (pl, ul) = (query.label(p), query.label(u));
        touched_pairs
            .iter()
            .any(|&(a, b)| matches(pl, a) && matches(ul, b))
    })
}

/// The immutable, shareable setup state of one query over one store;
/// see module docs. Construction is cheap (no storage access) — the
/// expensive halves materialize on first use and are then shared by
/// every enumerator built from the plan.
///
/// A plan is either a **tree plan** ([`QueryPlan::new`]) or a
/// **pattern plan** ([`QueryPlan::new_pattern`]). A pattern plan *is* a
/// tree plan over the pattern's primary spanning tree and the source's
/// undirected mirror, plus a pattern-metadata half carrying the
/// decomposition — so all the warm-plan machinery (both lazy halves,
/// sharding, `approx_bytes`, session resume) applies wholesale.
pub struct QueryPlan {
    query: ResolvedQuery,
    source: SharedSource,
    pattern: Option<Arc<PatternMeta>>,
    full: OnceLock<FullSetup>,
    lazy: OnceLock<Arc<LazySetup>>,
    builds: AtomicU64,
    graph_version: AtomicU64,
}

/// The graph-pattern half of a pattern plan: the §5 decomposition of
/// the [`GraphQuery`], captured once at plan construction so warm
/// re-opens skip it entirely.
pub(crate) struct PatternMeta {
    /// The pattern as written.
    pub(crate) pattern: GraphQuery,
    /// Driver-tree BFS position → pattern node index.
    pub(crate) pattern_node: Vec<usize>,
    /// Pattern node index → driver-tree BFS position (the inverse).
    pub(crate) tree_pos: Vec<usize>,
    /// Pattern edges the driver tree leaves unverified, as
    /// *tree-position* pairs (precomputed so verification never
    /// searches the mapping).
    pub(crate) non_tree: Vec<(usize, usize)>,
    /// Sum over non-tree edges of each label pair's global minimum
    /// distance (≥ 1 per edge); the §5 termination bound. Lazy: reads
    /// the mirror's `D` tables once, on the first stream build.
    pub(crate) residual_lb: OnceLock<Score>,
}

/// The store cannot serve graph patterns: it has no data graph to
/// build the §5 undirected closure from
/// ([`ktpm_storage::ClosureSource::undirected`] returned `None` — e.g.
/// a persisted closure-only snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternUnsupported;

impl fmt::Display for PatternUnsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph patterns unsupported: the store has no data graph to \
             build the undirected closure from"
        )
    }
}

impl std::error::Error for PatternUnsupported {}

/// The full-loading half: run-time graph, `bs`, shared slot templates.
pub(crate) struct FullSetup {
    pub(crate) rg: Arc<RuntimeGraph>,
    pub(crate) bs: Arc<BsData>,
    pub(crate) slots: Arc<SlotTemplates>,
}

/// A compressed sparse row table over one query node's candidates (or
/// its parent's): the entries of key `k` are
/// `entries[offsets[k]..offsets[k + 1]]`. A table without entries holds
/// no offsets either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SeedCsr<T> {
    offsets: Vec<u32>,
    entries: Vec<T>,
}

impl<T> Default for SeedCsr<T> {
    fn default() -> Self {
        SeedCsr {
            offsets: Vec::new(),
            entries: Vec::new(),
        }
    }
}

impl<T: Copy> SeedCsr<T> {
    /// The table of `n_keys` keys holding `pairs`, given as
    /// `(key, entry)` ascending by key.
    fn from_sorted(n_keys: usize, pairs: impl ExactSizeIterator<Item = (u32, T)>) -> Self {
        if pairs.len() == 0 {
            return SeedCsr::default();
        }
        let mut offsets = vec![0u32; n_keys + 1];
        let mut entries = Vec::with_capacity(pairs.len());
        for (k, e) in pairs {
            offsets[k as usize + 1] += 1;
            entries.push(e);
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        SeedCsr { offsets, entries }
    }

    /// The entries of key `k`.
    #[inline]
    pub(crate) fn of(&self, k: u32) -> &[T] {
        match self.offsets.get(k as usize..k as usize + 2) {
            Some(&[lo, hi]) => &self.entries[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Heap bytes: 4 per offset, the entry width per entry.
    fn approx_bytes(&self) -> u64 {
        (self.offsets.len() * 4 + self.entries.len() * std::mem::size_of::<T>()) as u64
    }
}

/// One query node's §4.1 `E`-seeds in candidate-index space, kept both
/// ways round. A node without seeds (the root, an inner node, a `/`
/// edge, or no `E` entry at all) holds two empty tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct NodeSeeds {
    /// Keyed by parent candidate `pi`: the seeded slot list `(u, pi)`
    /// as `(dist, child index)` pairs, ascending — the list's elements
    /// in rank order (a leaf's key is its distance). A session fills the
    /// list from this row the first time it touches it.
    pub(crate) rows: SeedCsr<(Dist, u32)>,
    /// Keyed by child candidate `ci`: the parent indices whose list a
    /// seed already filled with `ci`'s edge, ascending. A cursor load of
    /// `ci`'s incoming edges skips them.
    pub(crate) parents: SeedCsr<u32>,
}

impl NodeSeeds {
    /// The seeds of a node with `n_children` candidates under a parent
    /// with `n_parents`, from `(child index, parent index, dist)` triples
    /// in any order. A repeated `(child, parent)` pair keeps its
    /// smallest distance.
    fn from_triples(n_children: usize, n_parents: usize, mut seeds: Vec<(u32, u32, Dist)>) -> Self {
        seeds.sort_unstable();
        seeds.dedup_by_key(|&mut (ci, pi, _)| (ci, pi));
        let parents = SeedCsr::from_sorted(n_children, seeds.iter().map(|&(ci, pi, _)| (ci, pi)));
        seeds.sort_unstable_by_key(|&(ci, pi, d)| (pi, d, ci));
        let rows = SeedCsr::from_sorted(n_parents, seeds.iter().map(|&(ci, pi, d)| (pi, (d, ci))));
        NodeSeeds { rows, parents }
    }

    /// Number of seeds.
    pub(crate) fn count(&self) -> usize {
        self.rows.entries.len()
    }

    /// Heap bytes of both tables: 8 per seed and 4 per parent offset in
    /// the rows, 4 per seed and 4 per child offset in the parent lists.
    fn approx_bytes(&self) -> u64 {
        self.rows.approx_bytes() + self.parents.approx_bytes()
    }
}

/// Whether §4.1 seeds `u` from the `E` tables: a `//` edge into a leaf.
fn is_seeded(tree: &ktpm_query::TreeQuery, u: QNodeId) -> bool {
    u != tree.root() && tree.is_leaf(u) && tree.edge_kind(u) == EdgeKind::Descendant
}

/// The lazy-loading half of a plan: everything `Topk-EN`'s
/// initialization (§4.1) reads from storage, captured once, and the
/// start state a session reads instead of replaying it. Sessions share
/// it read-only (`Arc`): a seeded slot list is filled from its row into
/// the session's own lists on first touch, and every per-candidate
/// array a session mutates is the session's own.
#[derive(Debug)]
pub(crate) struct LazySetup {
    /// `D`-mode candidate sets (root = full label bucket).
    pub(crate) cands: CandidateSets,
    /// Initial `eᵥ` lower bounds (`dᵅᵥ`), one per candidate in
    /// [`CandidateSets::flat`] order.
    pub(crate) evs: Vec<Dist>,
    /// Per query node: its `E`-seeds over `cands`' indices.
    pub(crate) seeds: Vec<NodeSeeds>,
    /// Per query node: the distinct source labels of its incoming
    /// closure tables, ascending — the cursors a loader opens for one
    /// of its candidates. Resolved with the rest of the half, so
    /// building a loader from a warm plan asks the store nothing.
    pub(crate) src_labels: Vec<Vec<LabelId>>,
}

/// [`LazySetup::src_labels`] from a query's resolved edge pairs.
fn src_labels_of(pairs: &[Vec<(LabelId, LabelId)>]) -> Vec<Vec<LabelId>> {
    pairs
        .iter()
        .map(|edge| {
            let mut ls: Vec<LabelId> = edge.iter().map(|&(a, _)| a).collect();
            ls.sort_unstable();
            ls.dedup();
            ls
        })
        .collect()
}

impl QueryPlan {
    /// A cold plan for `query` over `source`. No storage is touched
    /// until the first enumerator is built from the plan.
    pub fn new(query: ResolvedQuery, source: SharedSource) -> Self {
        let graph_version = AtomicU64::new(source.graph_version());
        QueryPlan {
            query,
            source,
            pattern: None,
            full: OnceLock::new(),
            lazy: OnceLock::new(),
            builds: AtomicU64::new(0),
            graph_version,
        }
    }

    /// A cold **pattern plan** for graph pattern `pattern` over the
    /// store behind `source`: decomposes the pattern (§5), resolves the
    /// primary spanning tree against `interner`, and plans that tree
    /// over the source's undirected mirror. The mirror shares the
    /// directed graph's node ids and label interner ids
    /// ([`ktpm_graph::undirect`] preserves both), so one interner
    /// serves both plan kinds.
    ///
    /// The plan's [`Self::graph_version`] is stamped from the
    /// **directed** source — the version the serving layer's
    /// delta/fencing machinery speaks — not the mirror's internal
    /// counter.
    ///
    /// Errors with [`PatternUnsupported`] when the backend has no data
    /// graph to mirror.
    pub fn new_pattern(
        pattern: GraphQuery,
        interner: &LabelInterner,
        source: &SharedSource,
    ) -> Result<QueryPlan, PatternUnsupported> {
        let mirror = source.undirected().ok_or(PatternUnsupported)?;
        let version = source.graph_version();
        let trees = decompose(&pattern);
        let driver = &trees[0];
        let query = driver.tree.resolve(interner);
        let mut tree_pos = vec![usize::MAX; pattern.len()];
        for (t, &p) in driver.pattern_node.iter().enumerate() {
            tree_pos[p] = t;
        }
        let non_tree = driver
            .non_tree_edges
            .iter()
            .map(|&(a, b)| (tree_pos[a], tree_pos[b]))
            .collect();
        let meta = PatternMeta {
            pattern_node: driver.pattern_node.clone(),
            tree_pos,
            non_tree,
            residual_lb: OnceLock::new(),
            pattern,
        };
        let plan = QueryPlan {
            query,
            source: mirror,
            pattern: Some(Arc::new(meta)),
            full: OnceLock::new(),
            lazy: OnceLock::new(),
            builds: AtomicU64::new(0),
            graph_version: AtomicU64::new(version),
        };
        Ok(plan)
    }

    /// A cold plan for canonical query `text` read in `form` — the one
    /// place request text becomes a plan: a tree form parses and
    /// resolves a [`TreeQuery`] for [`Self::new`], a pattern form parses
    /// a [`GraphQuery`] for [`Self::new_pattern`]. Errors with
    /// [`PlanError::BadQuery`] (the parser's message) when the text is
    /// not that form, and with [`PlanError::PatternUnsupported`] when
    /// the store has no undirected mirror for a pattern.
    pub fn from_text(
        form: QueryForm,
        text: &str,
        interner: &LabelInterner,
        source: &SharedSource,
    ) -> Result<QueryPlan, PlanError> {
        Ok(match form {
            QueryForm::Tree => {
                let tree =
                    TreeQuery::parse(text).map_err(|e| PlanError::BadQuery(e.to_string()))?;
                QueryPlan::new(tree.resolve(interner), Arc::clone(source))
            }
            QueryForm::Pattern => {
                let pattern =
                    GraphQuery::parse(text).map_err(|e| PlanError::BadQuery(e.to_string()))?;
                QueryPlan::new_pattern(pattern, interner, source)?
            }
        })
    }

    /// Whether this is a pattern plan (built by [`Self::new_pattern`]).
    pub fn is_pattern(&self) -> bool {
        self.pattern.is_some()
    }

    /// The planned graph pattern, for pattern plans.
    pub fn pattern_query(&self) -> Option<&GraphQuery> {
        self.pattern.as_deref().map(|m| &m.pattern)
    }

    pub(crate) fn pattern_meta(&self) -> Option<&Arc<PatternMeta>> {
        self.pattern.as_ref()
    }

    /// The §5 residual lower bound of a pattern plan: the sum over
    /// non-tree edges of each label pair's global minimum distance in
    /// the mirror's `D` tables (at least 1 per edge — every pattern
    /// edge maps to a path of length ≥ 1). `0` for tree plans and for
    /// patterns whose driver tree covers every edge. Computed once per
    /// plan, so warm re-opens skip the `D` probes too.
    pub(crate) fn residual_lb(&self) -> Score {
        let Some(meta) = self.pattern.as_deref() else {
            return 0;
        };
        *meta.residual_lb.get_or_init(|| {
            meta.non_tree
                .iter()
                .map(|&(ta, tb)| {
                    let (QueryLabel::Label(a), QueryLabel::Label(b)) = (
                        self.query.label(QNodeId(ta as u32)),
                        self.query.label(QNodeId(tb as u32)),
                    ) else {
                        // An unmatchable endpoint: the stream is empty,
                        // any bound is sound.
                        return 1;
                    };
                    self.source
                        .load_d(a, b)
                        .into_iter()
                        .map(|(_, d)| d as Score)
                        .min()
                        .unwrap_or(1)
                        .max(1)
                })
                .sum()
        })
    }

    /// The planned query.
    pub fn query(&self) -> &ResolvedQuery {
        &self.query
    }

    /// The closure store the plan was built over.
    pub fn source(&self) -> &SharedSource {
        &self.source
    }

    /// The shared run-time graph, loading it on first call. Subsequent
    /// calls (from any thread) return the same graph without touching
    /// storage.
    pub fn runtime_graph(&self) -> &Arc<RuntimeGraph> {
        &self.full().rg
    }

    /// The shared `bs` data over [`Self::runtime_graph`].
    pub fn bs_data(&self) -> &Arc<BsData> {
        &self.full().bs
    }

    /// How many setup halves have been materialized so far (0–2). Two
    /// sessions racing on a cold plan still count a single build per
    /// half — the `OnceLock` serializes them.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Whether any setup half has been materialized (a "warm" plan).
    pub fn is_warm(&self) -> bool {
        self.full.get().is_some() || self.lazy.get().is_some()
    }

    /// The graph version this plan is valid against. Captured from the
    /// source at construction; bumped via [`Self::stamp_version`] when a
    /// delta leaves the plan's tables untouched.
    pub fn graph_version(&self) -> u64 {
        self.graph_version.load(Ordering::Acquire)
    }

    /// Re-stamps the plan as current for graph version `v`. Only the
    /// invalidation layer calls this, and only after
    /// [`Self::is_affected_by`] proved the delta cannot change any
    /// closure table the plan reads.
    pub fn stamp_version(&self, v: u64) {
        self.graph_version.store(v, Ordering::Release);
    }

    /// Whether the delta `report` describes can affect this plan's
    /// setup or results.
    ///
    /// A **tree plan** reads the directed closure: it is checked
    /// against [`DeltaReport::touched_pairs`]. It reads one table per
    /// query-tree edge, the pair `(parent label, child label)`, where a
    /// wildcard query node reads every table on its side. Unmatchable
    /// labels have no candidates and read nothing. Node/label
    /// assignment is fixed under deltas, so a plan none of whose edge
    /// pairs is touched keeps its candidate sets, `eᵥ` bounds,
    /// run-time-graph edges, and result stream bit-for-bit — it
    /// survives with a version bump instead of being dropped.
    ///
    /// A **pattern plan** reads the *undirected* mirror (driver-tree
    /// tables, non-tree `lookup_dist` verification and the residual
    /// `D`-bounds), so it is checked against
    /// [`DeltaReport::undirected_touched_pairs`]; every pattern edge is
    /// checked in both orientations (conservative and sound — the
    /// mirror's tables are direction-symmetric in content but reported
    /// as ordered pairs).
    pub fn is_affected_by(&self, report: &DeltaReport) -> bool {
        let Some(meta) = self.pattern.as_deref() else {
            return query_reads_touched_pairs(&self.query, &report.touched_pairs);
        };
        let touched = &report.undirected_touched_pairs;
        meta.pattern.edges().iter().any(|&(pa, pb)| {
            let (QueryLabel::Label(a), QueryLabel::Label(b)) = (
                self.query.label(QNodeId(meta.tree_pos[pa] as u32)),
                self.query.label(QNodeId(meta.tree_pos[pb] as u32)),
            ) else {
                // Unmatchable endpoints stay unmatchable under deltas
                // (node labels never change): no table read, never
                // affected.
                return false;
            };
            touched
                .iter()
                .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
        })
    }

    pub(crate) fn slot_templates(&self) -> &Arc<SlotTemplates> {
        &self.full().slots
    }

    /// Approximate heap bytes held by this plan's materialized halves,
    /// estimated from candidate, edge, seed and slot-template counts
    /// (`STATS` surfaces the per-plan total through the service's plan
    /// cache). A cold plan reports 0; the estimate grows as halves and
    /// slot lists materialize.
    pub fn approx_bytes(&self) -> u64 {
        let mut total = 0u64;
        if let Some(fs) = self.full.get() {
            let stats = fs.rg.stats();
            // Run-time graph: one (u32, u32) entry per edge plus a 4 B
            // node id per candidate; bs: one Score per candidate.
            total += stats.edges as u64 * 8 + stats.nodes as u64 * 4;
            total += stats.nodes as u64 * 8;
            total += fs.slots.approx_bytes() as u64;
        }
        if let Some(lz) = self.lazy.get() {
            // A 4 B node id and a 4 B eᵥ bound per candidate, plus both
            // seed tables of every node.
            total += lz.cands.total() as u64 * 8;
            total += lz.seeds.iter().map(|s| s.approx_bytes()).sum::<u64>();
        }
        total
    }

    pub(crate) fn full(&self) -> &FullSetup {
        self.full.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            let rg = Arc::new(RuntimeGraph::load(&self.query, self.source.as_ref()));
            let bs = Arc::new(BsData::compute(&rg));
            let slots = Arc::new(SlotTemplates::new(Arc::clone(&rg), Arc::clone(&bs)));
            FullSetup { rg, bs, slots }
        })
    }

    pub(crate) fn lazy(&self) -> &Arc<LazySetup> {
        self.lazy.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            // A loaded run-time graph already contains every edge the
            // D/E sweeps would read — derive instead of re-sweeping.
            Arc::new(match self.full.get() {
                Some(fs) => LazySetup::derive(&fs.rg, self.source.as_ref()),
                None => LazySetup::discover(&self.query, self.source.as_ref()),
            })
        })
    }
}

impl LazySetup {
    /// §4.1 initialization against storage: `D`-table candidate
    /// discovery plus the `E`-seed edges of `//` leaves, resolved once
    /// into candidate-index space ([`NodeSeeds`]).
    ///
    /// A loader reads its start state off this setup in any order.
    /// Lists rank equal keys by candidate index, so a list's ranks do
    /// not depend on the order its elements arrived in. `Q_g` breaks
    /// equal bounds on `(u, i)` before the version, so which node pops
    /// next does not depend on how often a bound was lowered on the way
    /// there — nor on whether it was lowered at all: a session's `Q_g`
    /// entries all start at version 0 and pop in the order a replay of
    /// the seeds would.
    pub(crate) fn discover(query: &ResolvedQuery, source: &dyn ClosureSource) -> LazySetup {
        let tree = query.tree();
        // Every edge's label pairs, resolved once for all three reads
        // below (`D` candidates, `E` seeds, the loader's cursor labels),
        // after announcing what this half reads of them at once: every
        // `D`, the seeded edges' `E`, and the directory the first cursor
        // on the pair reads.
        let pairs = prefetch_edge_label_pairs(query, source, &|u| Sections {
            d: true,
            e: is_seeded(tree, QNodeId(u as u32)),
            directory: true,
            blocks: false,
        });
        let (cands, evs) = CandidateSets::from_d_tables(query, source, &pairs);
        let seeds = tree
            .node_ids()
            .map(|u| {
                if !is_seeded(tree, u) {
                    return NodeSeeds::default();
                }
                let p = tree.parent(u).expect("non-root");
                let mut triples = Vec::new();
                for &(a, b) in &pairs[u.index()] {
                    for (parent, child, dist) in source.load_e(a, b) {
                        if let (Some(pi), Some(ci)) =
                            (cands.index_of(p, parent), cands.index_of(u, child))
                        {
                            triples.push((ci, pi, dist));
                        }
                    }
                }
                NodeSeeds::from_triples(cands.len(u), cands.len(p), triples)
            })
            .collect();
        LazySetup {
            cands,
            evs,
            seeds,
            src_labels: src_labels_of(&pairs),
        }
    }

    /// The same setup, derived from a loaded run-time graph with no
    /// table reads: `D` entries are per-candidate minima over the
    /// loaded edge groups, `E` seeds are per-`(parent, child label)`
    /// minima (`source` is consulted for node labels and the pair
    /// index only — in-memory accessors on every backend).
    /// Equal-distance ties may
    /// pick a different seed *witness* than the stored `E` table
    /// would, which only changes which edge loads first — the
    /// `(score, assignment)` stream depends on the final lists alone.
    pub(crate) fn derive(rg: &RuntimeGraph, source: &dyn ClosureSource) -> LazySetup {
        let query = rg.query();
        let tree = query.tree();
        let n_t = tree.len();
        let mut cands: Vec<Vec<NodeId>> = vec![Vec::new(); n_t];
        let mut evs: Vec<Dist> = Vec::new();
        // Per query node: run-time-graph candidate index → index in
        // `cands` (`u32::MAX`: no incoming edge, not a lazy candidate).
        let mut lazy_index: Vec<Vec<u32>> = vec![Vec::new(); n_t];
        cands[0] = rg.candidates().of(tree.root()).to_vec();
        evs.resize(cands[0].len(), 0);
        lazy_index[0] = (0..cands[0].len() as u32).collect();
        for u in tree.node_ids().skip(1) {
            let p = tree.parent(u).expect("non-root");
            let mut best: Vec<Option<Dist>> = vec![None; rg.candidates().len(u)];
            for pi in 0..rg.candidates().len(p) as u32 {
                for &(ci, d) in rg.edges(u, pi) {
                    let b = &mut best[ci as usize];
                    *b = Some(b.map_or(d, |x| x.min(d)));
                }
            }
            let mut index = vec![u32::MAX; best.len()];
            for (ci, b) in best.into_iter().enumerate() {
                if let Some(d) = b {
                    index[ci] = cands[u.index()].len() as u32;
                    cands[u.index()].push(rg.candidates().node(u, ci as u32));
                    evs.push(d);
                }
            }
            lazy_index[u.index()] = index;
        }
        let mut per_label: Vec<(ktpm_graph::LabelId, Dist, u32)> = Vec::new();
        let seeds = tree
            .node_ids()
            .map(|u| {
                if !is_seeded(tree, u) {
                    return NodeSeeds::default();
                }
                let p = tree.parent(u).expect("non-root");
                let mut triples = Vec::new();
                for pi in 0..rg.candidates().len(p) as u32 {
                    let lazy_pi = lazy_index[p.index()][pi as usize];
                    if lazy_pi == u32::MAX {
                        continue;
                    }
                    // One seed per (parent, child label), mirroring the
                    // per-pair `E` tables. Groups are `(dist, index)`-
                    // sorted, so the first group entry of each label is
                    // that label's minimum.
                    per_label.clear();
                    for &(ci, dist) in rg.edges(u, pi) {
                        let l = source.node_label(rg.candidates().node(u, ci));
                        if !per_label.iter().any(|&(seen, _, _)| seen == l) {
                            per_label.push((l, dist, ci));
                        }
                    }
                    for &(_, dist, ci) in &per_label {
                        triples.push((lazy_index[u.index()][ci as usize], lazy_pi, dist));
                    }
                }
                let (n_children, n_parents) = (cands[u.index()].len(), cands[p.index()].len());
                NodeSeeds::from_triples(n_children, n_parents, triples)
            })
            .collect();
        LazySetup {
            cands: CandidateSets::from_lists(cands),
            evs,
            seeds,
            // The half's one label-pair resolution: index probes, plus
            // one key enumeration if the query has a wildcard edge.
            src_labels: src_labels_of(&edge_label_pairs(query, source)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topk_full, TopkEnEnumerator, TopkEnumerator};
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::LabeledGraph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    /// Number of keys a seed table spans (0 without entries).
    fn keys<T>(table: &SeedCsr<T>) -> u32 {
        table.offsets.len().saturating_sub(1) as u32
    }

    fn plan_for(g: &LabeledGraph, query: &str) -> Arc<QueryPlan> {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(g), 2).into_shared();
        Arc::new(QueryPlan::new(q, store))
    }

    fn check_all_paths(g: &LabeledGraph, query: &str) {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(g));
        let want = topk_full(&q, &store, usize::MAX);

        // Full-first plan: Topk, then derived Topk-EN.
        let plan = plan_for(g, query);
        let full: Vec<_> = TopkEnumerator::from_plan(&plan).collect();
        assert_eq!(full, want, "plan Topk, query {query:?}");
        let en: Vec<_> = TopkEnEnumerator::from_plan(&plan).collect();
        assert_eq!(en, want, "plan Topk-EN (derived), query {query:?}");

        // Lazy-first plan: discovered Topk-EN.
        let plan = plan_for(g, query);
        let en: Vec<_> = TopkEnEnumerator::from_plan(&plan).collect();
        assert_eq!(en, want, "plan Topk-EN (discovered), query {query:?}");
    }

    #[test]
    fn plan_backed_enumerators_match_topk_full() {
        let g = paper_graph();
        check_all_paths(&g, "a -> b\na -> c\nc -> d\nc -> e");
        check_all_paths(&g, "a -> c\nc -> d");
        check_all_paths(&g, "a");
        check_all_paths(&g, "a => b");
        check_all_paths(&g, "a#1 -> a#2");
        check_all_paths(&g, "c -> *#1");
        check_all_paths(&g, "s -> a"); // no matches
        let g = citation_graph();
        check_all_paths(&g, "C -> E\nC -> S");
    }

    #[test]
    fn derived_lazy_setup_equals_discovered() {
        let g = paper_graph();
        let mut seeded = 0;
        for query in ["a -> b\na -> c\nc -> d\nc -> e", "a => b", "c -> *#1"] {
            let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
            let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
            let discovered = LazySetup::discover(&q, store.as_ref());
            let rg = RuntimeGraph::load(&q, store.as_ref());
            let derived = LazySetup::derive(&rg, store.as_ref());
            assert_eq!(discovered.src_labels, derived.src_labels, "query {query:?}");
            for u in q.tree().node_ids() {
                assert_eq!(
                    discovered.cands.of(u),
                    derived.cands.of(u),
                    "candidates of {u:?}, query {query:?}"
                );
                assert_eq!(
                    discovered.evs[discovered.cands.span(u)],
                    derived.evs[derived.cands.span(u)],
                    "ev bounds of {u:?}, query {query:?}"
                );
            }
            // Seeds: same (child node, parent index, dist) multiset; the
            // tied witness may differ, so compare that projection. Each
            // setup's child-keyed parent lists are its rows transposed.
            let canon = |s: &LazySetup| {
                let (mut by_row, mut by_child) = (Vec::new(), Vec::new());
                for u in q.tree().node_ids() {
                    let seeds = &s.seeds[u.index()];
                    for pi in 0..keys(&seeds.rows) {
                        let row = seeds.rows.of(pi);
                        assert!(row.windows(2).all(|w| w[0] < w[1]), "row order");
                        by_row.extend(row.iter().map(|&(d, ci)| (u, pi, d, ci)));
                    }
                    for ci in 0..keys(&seeds.parents) {
                        by_child.extend(seeds.parents.of(ci).iter().map(|&pi| (u, ci, pi)));
                    }
                }
                let mut transposed: Vec<_> =
                    by_row.iter().map(|&(u, pi, _, ci)| (u, ci, pi)).collect();
                transposed.sort_unstable();
                assert_eq!(transposed, by_child, "child-keyed lists, query {query:?}");
                let mut v: Vec<_> = by_row.into_iter().map(|(u, pi, d, _)| (u, pi, d)).collect();
                v.sort_unstable();
                v
            };
            seeded += canon(&discovered).len();
            assert_eq!(
                canon(&discovered),
                canon(&derived),
                "seeds, query {query:?}"
            );
        }
        assert!(seeded > 0, "the queries have E-seeds to compare");
    }

    #[test]
    fn memory_estimate_tracks_materialized_halves() {
        // A cold plan reports 0 bytes (nothing forced); after an
        // enumerator materializes the full half, the estimate reflects
        // the loaded graph + touched slot templates.
        let g = paper_graph();
        let plan = plan_for(&g, "a -> b\na -> c");
        assert_eq!(plan.approx_bytes(), 0);
        let n = TopkEnumerator::from_plan(&plan).count();
        assert!(n > 0);
        let full = plan.approx_bytes();
        assert!(full > 0, "warm plan reports its footprint");
        // The lazy half, at its real widths. Candidates: a = {v1, v2}
        // (the root bucket), b = {v3, v4}, c = {v5, v6}: 6 × (4 B node
        // id + 4 B eᵥ) = 48. Both leaves are seeded, one nearest seed
        // per a-node: per leaf, rows 3 offsets × 4 + 2 seeds × 8 = 28
        // and parent lists 3 offsets × 4 + 2 seeds × 4 = 20, so 96.
        let lazy = 48 + 2 * (28 + 20);
        let discovered = plan_for(&g, "a -> b\na -> c");
        let _ = TopkEnEnumerator::from_plan(&discovered);
        assert_eq!(discovered.approx_bytes(), lazy, "discovered lazy half");
        let _ = TopkEnEnumerator::from_plan(&plan);
        assert_eq!(plan.approx_bytes(), full + lazy, "derived lazy half");
        // A whole session adds nothing to the plan.
        assert_eq!(TopkEnEnumerator::from_plan(&discovered).count(), n);
        assert_eq!(discovered.approx_bytes(), lazy);
    }

    #[test]
    fn setup_halves_build_once_under_contention() {
        let g = paper_graph();
        let plan = plan_for(&g, "a -> b\na -> c");
        assert!(!plan.is_warm());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let plan = Arc::clone(&plan);
                std::thread::spawn(move || {
                    let a: Vec<_> = TopkEnumerator::from_plan(&plan).collect();
                    let b: Vec<_> = TopkEnEnumerator::from_plan(&plan).collect();
                    assert_eq!(a, b);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(plan.is_warm());
        assert_eq!(plan.builds(), 2, "one build per half, however many racers");
    }

    #[test]
    fn version_stamp_and_affectedness_predicate() {
        let g = paper_graph();
        let lbl = |n: &str| g.interner().get(n).unwrap();
        let touching = |pairs: &[(&str, &str)]| DeltaReport {
            touched_pairs: pairs.iter().map(|&(a, b)| (lbl(a), lbl(b))).collect(),
            ..Default::default()
        };
        let plan = plan_for(&g, "a -> b\na -> c");
        assert_eq!(plan.graph_version(), 0, "snapshot stores pin version 0");

        assert!(!plan.is_affected_by(&touching(&[])));
        // (a, b) is a plan edge: affected.
        assert!(plan.is_affected_by(&touching(&[("a", "b")])));
        // (c, d) is not: survives.
        assert!(!plan.is_affected_by(&touching(&[("c", "d")])));
        // Reversed direction is a different table: survives.
        assert!(!plan.is_affected_by(&touching(&[("b", "a")])));
        // A tree plan ignores the undirected list.
        let undirected = DeltaReport {
            undirected_touched_pairs: vec![(lbl("a"), lbl("b"))],
            ..Default::default()
        };
        assert!(!plan.is_affected_by(&undirected));

        // Wildcards read every table on their side.
        let wild = plan_for(&g, "c -> *#1");
        assert!(wild.is_affected_by(&touching(&[("c", "e")])));
        assert!(!wild.is_affected_by(&touching(&[("a", "e")])));

        // Single-node queries read no pair table at all.
        let single = plan_for(&g, "a");
        assert!(!single.is_affected_by(&touching(&[("a", "b")])));

        plan.stamp_version(7);
        assert_eq!(plan.graph_version(), 7);
    }

    #[test]
    fn from_text_builds_either_form_or_says_why_not() {
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        let mirrored = MemStore::new(ClosureTables::compute(&g))
            .with_graph(g.clone())
            .into_shared();
        let build = |form, text: &str, source: &SharedSource| {
            QueryPlan::from_text(form, text, g.interner(), source)
        };
        let tree = build(QueryForm::Tree, "C -> E", &store).unwrap();
        assert!(!tree.is_pattern());
        let pattern = build(QueryForm::Pattern, "C -> E\nE -> S\nS -> C", &mirrored).unwrap();
        assert!(pattern.is_pattern());
        // The parsers' own messages, unchanged.
        let Err(PlanError::BadQuery(msg)) =
            build(QueryForm::Tree, "C -> E\nE -> S\nS -> C", &store)
        else {
            panic!("a cycle is not a tree");
        };
        assert_eq!(
            msg,
            TreeQuery::parse("C -> E\nE -> S\nS -> C")
                .unwrap_err()
                .to_string()
        );
        assert!(matches!(
            build(QueryForm::Pattern, "C => E", &mirrored),
            Err(PlanError::BadQuery(_))
        ));
        // Parsing comes first: a bad pattern is a bad query even
        // without a mirror; a good one is unsupported there.
        assert!(matches!(
            build(QueryForm::Pattern, "C => E", &store),
            Err(PlanError::BadQuery(_))
        ));
        assert_eq!(
            build(QueryForm::Pattern, "C -> E", &store).err(),
            Some(PlanError::PatternUnsupported)
        );
    }

    #[test]
    fn lazy_setup_over_a_paged_store_reads_tables_not_edge_blocks() {
        // The lazy half's candidate discovery replays through D/E
        // tables only; over a format-v5 PagedStore this means no group
        // block is fetched (and none materialized) until the Topk-EN
        // priority loader actually pulls a cursor. Enumeration then
        // matches the in-memory reference exactly.
        let g = citation_graph();
        let q = TreeQuery::parse("C -> E\nC -> S")
            .unwrap()
            .resolve(g.interner());
        let tables = ClosureTables::compute(&g);
        let mut path = std::env::temp_dir();
        path.push(format!("ktpm-plan-paged-{}.bin", std::process::id()));
        ktpm_storage::write_store_v3(&tables, &path, 2).unwrap();
        let paged = ktpm_storage::PagedStore::open(&path).unwrap().into_shared();
        let plan = QueryPlan::new(q.clone(), Arc::clone(&paged));
        paged.reset_io();
        plan.lazy();
        let io = paged.io();
        assert!(io.d_entries > 0, "discovery loads D tables");
        assert_eq!(
            io.edges_read, 0,
            "lazy setup must not materialize any L group block"
        );
        // D/E section bytes ride the shared block cache too, so the
        // misses discovery pays are table reads — never group blocks,
        // which the `edges_read == 0` assertion above pins down.
        assert!(io.cache_misses > 0, "table reads go through the cache");
        let want: Vec<_> = {
            let mem = MemStore::new(tables).into_shared();
            let mem_plan = QueryPlan::new(q, mem);
            TopkEnEnumerator::from_plan(&mem_plan).collect()
        };
        let got: Vec<_> = TopkEnEnumerator::from_plan(&plan).collect();
        assert_eq!(got, want);
        assert!(
            paged.io().edges_read > 0,
            "enumeration itself streams edges through block cursors"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A [`MemStore`] that counts `pair_keys()` enumerations — the
    /// O(P) call plan building must not make per query edge. Every
    /// other method (the `has_pair` probe included) passes through.
    struct CountingSource {
        inner: MemStore,
        pair_keys_calls: AtomicU64,
    }

    impl CountingSource {
        fn calls(&self) -> u64 {
            self.pair_keys_calls.load(Ordering::Relaxed)
        }
    }

    impl ClosureSource for CountingSource {
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn node_label(&self, v: NodeId) -> LabelId {
            self.inner.node_label(v)
        }
        fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
            self.pair_keys_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.pair_keys()
        }
        fn has_pair(&self, a: LabelId, b: LabelId) -> bool {
            self.inner.has_pair(a, b)
        }
        fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
            self.inner.load_d(a, b)
        }
        fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
            self.inner.load_e(a, b)
        }
        fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
            self.inner.load_pair(a, b)
        }
        fn incoming_cursor(
            &self,
            a: LabelId,
            v: NodeId,
        ) -> Box<dyn ktpm_storage::EdgeCursor + Send> {
            self.inner.incoming_cursor(a, v)
        }
        fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
            self.inner.lookup_dist(u, v)
        }
        fn io(&self) -> ktpm_storage::IoSnapshot {
            self.inner.io()
        }
        fn reset_io(&self) {
            self.inner.reset_io()
        }
    }

    #[test]
    fn plan_halves_resolve_label_pairs_by_lookup_not_key_enumeration() {
        // Pins the complexity, not the clock: a concrete-label query
        // never enumerates the store's pair keys, a wildcard query at
        // most once per plan half, and a warm plan never again.
        let mut b = ktpm_graph::GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..40)
            .map(|i| b.add_node(&format!("L{}", i % 10)))
            .collect();
        for i in 0..nodes.len() {
            for step in [1, 3] {
                if let Some(&to) = nodes.get(i + step) {
                    b.add_edge(nodes[i], to, 1 + (i % 3) as u32);
                }
            }
        }
        let g = b.build().unwrap();
        let tables = ClosureTables::compute(&g);
        let counted = Arc::new(CountingSource {
            inner: MemStore::new(tables.clone()),
            pair_keys_calls: AtomicU64::new(0),
        });
        let concrete = "L0 -> L1\nL0 -> L2\nL1 -> L3\nL1 -> L4\nL2 -> L5\nL2 -> L6\n\
                        L3 -> L7\nL4 -> L8\nL5 -> L9";
        let wild = "L0 -> L1\nL0 -> *#1\nL1 -> L3\n*#1 -> L5\nL3 -> *#2\nL5 -> L9";
        let unmatchable = "L0 -> L1\nL1 -> nosuchlabel\nL0 -> L2";
        for (text, n_t, per_half) in [(concrete, 10, 0), (wild, 7, 1), (unmatchable, 4, 0)] {
            let q = TreeQuery::parse(text).unwrap().resolve(g.interner());
            assert_eq!(q.len(), n_t, "query {text:?}");
            let want = topk_full(&q, &MemStore::new(tables.clone()), usize::MAX);
            assert_eq!(want.is_empty(), text == unmatchable, "query {text:?}");
            let mut src_labels = Vec::new();
            for lazy_first in [true, false] {
                let plan = QueryPlan::new(q.clone(), Arc::clone(&counted) as SharedSource);
                let build = |lazy: bool| {
                    let before = counted.calls();
                    if lazy {
                        plan.lazy();
                    } else {
                        plan.full();
                    }
                    counted.calls() - before
                };
                let (first, second) = (build(lazy_first), build(!lazy_first));
                assert_eq!(plan.builds(), 2, "both halves built, query {text:?}");
                assert!(
                    first <= per_half && second <= per_half,
                    "query {text:?} (lazy first: {lazy_first}): {first} + {second} \
                     pair_keys() calls, at most {per_half} per half allowed"
                );
                // Warm: enumerators built from the plan ask nothing.
                let built = counted.calls();
                let en: Vec<_> = TopkEnEnumerator::from_plan(&plan).collect();
                let full: Vec<_> = TopkEnumerator::from_plan(&plan).collect();
                assert_eq!(counted.calls(), built, "warm plan, query {text:?}");
                assert_eq!(en, want, "Topk-EN stream, query {text:?}");
                assert_eq!(full, want, "Topk stream, query {text:?}");
                src_labels.push(plan.lazy().src_labels.clone());
            }
            assert_eq!(
                src_labels[0], src_labels[1],
                "discovered vs derived cursor labels, query {text:?}"
            );
        }
    }

    #[test]
    fn prefetching_plan_halves_stream_what_memory_streams() {
        // Each plan half announces its reads to the store before it
        // makes them (`ClosureSource::prefetch`). Over a paged file and
        // a 3-file snapshot, cold plans of either half first must
        // stream exactly what memory streams, and every table load the
        // lazy half makes after its prefetch must be a cache hit.
        let mut b = ktpm_graph::GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..40)
            .map(|i| b.add_node(&format!("L{}", i % 10)))
            .collect();
        for i in 0..nodes.len() {
            for step in [1, 3, 7] {
                if let Some(&to) = nodes.get(i + step) {
                    b.add_edge(nodes[i], to, 1 + (i % 3) as u32);
                }
            }
        }
        let g = b.build().unwrap();
        let tables = ClosureTables::compute(&g);
        let mut dir = std::env::temp_dir();
        dir.push(format!("ktpm-plan-prefetch-{}", std::process::id()));
        let file = dir.with_extension("tc");
        ktpm_storage::write_store_v3(&tables, &file, 2).unwrap();
        ktpm_storage::write_store_sharded(&tables, &dir, &ktpm_storage::ShardSpec::new(0, 3), 2)
            .unwrap();
        let stores = || -> [(&str, SharedSource); 2] {
            [
                (
                    "paged",
                    ktpm_storage::open_store_auto(&file, Some(0)).unwrap(),
                ),
                (
                    "sharded",
                    ktpm_storage::open_store_auto(&dir, Some(0)).unwrap(),
                ),
            ]
        };
        for text in [
            "L0 -> L1\nL0 -> L2\nL1 -> L3\nL1 -> L4\nL2 -> L5\nL3 -> L7\nL4 -> L8",
            "L2 -> L3\nL2 => L5\nL3 -> L9\nL5 -> L6",
        ] {
            let q = TreeQuery::parse(text).unwrap().resolve(g.interner());
            let want = topk_full(&q, &MemStore::new(tables.clone()), usize::MAX);
            assert!(!want.is_empty(), "query {text:?}");
            for (tier, store) in stores() {
                let plan = QueryPlan::new(q.clone(), Arc::clone(&store));
                let before = store.io();
                plan.lazy();
                let io = store.io().since(&before);
                assert_eq!(
                    io.cache_hits, io.cache_misses,
                    "{tier}: each prefetched table found once, query {text:?}"
                );
                let en: Vec<_> = TopkEnEnumerator::from_plan(&plan).collect();
                assert_eq!(en, want, "{tier}: Topk-EN stream, query {text:?}");
                assert!(store.take_error().is_none(), "{tier}");
            }
            for (tier, store) in stores() {
                let plan = QueryPlan::new(q.clone(), Arc::clone(&store));
                let full: Vec<_> = TopkEnumerator::from_plan(&plan).collect();
                assert_eq!(full, want, "{tier}: Topk stream, query {text:?}");
                assert!(store.take_error().is_none(), "{tier}");
            }
        }
        std::fs::remove_file(&file).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_plan_enumerators_do_no_storage_io() {
        let g = paper_graph();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d\nc -> e")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        let plan = QueryPlan::new(q, Arc::clone(&store));
        let cold: Vec<_> = TopkEnumerator::from_plan(&plan).collect();
        store.reset_io();
        let warm: Vec<_> = TopkEnumerator::from_plan(&plan).collect();
        assert_eq!(cold, warm);
        assert_eq!(
            store.io(),
            ktpm_storage::IoSnapshot::default(),
            "a warm full-plan enumerator must not touch storage"
        );
    }
}
