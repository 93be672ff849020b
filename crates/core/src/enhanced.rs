//! Algorithm 3 — `Topk-EN`: Lawler enumeration over the lazily-loaded
//! run-time graph (§4.3).
//!
//! The enumerator interleaves two priority queues:
//!
//! * `Q` — certified candidates (their subspace's best match is final);
//! * `Q_g` — the loader's queue of nodes with unloaded incoming edges.
//!
//! A candidate computed from the current (incomplete) `L`/`H` lists
//! enters `Q` only when its score is *strictly* below the top of `Q_g`
//! (or `Q_g` is exhausted), and `Q`'s minimum is emitted under the same
//! test. Otherwise it is *parked* and linked to the list it depends on;
//! every expansion re-evaluates parked candidates on the touched lists
//! and promotes those the risen `Q_g` bound now certifies. Candidates
//! whose replacement rank does not exist yet are parked with score ∞
//! (§4.3: "an empty match in a subspace may become nonempty later").
//!
//! ## Why `Q` pops in the canonical order
//!
//! By Theorem 4.1 a match through an edge not loaded yet scores at
//! least the `Q_g` top. So once a candidate is certified at a score
//! `s < gtop`, every element later inserted into a list it (or the
//! match it was divided from) uses has a key strictly greater than each
//! element used there: a match through the new element would score
//! below `gtop` otherwise. Lists rank equal keys by candidate index
//! ([`crate::LazySortedList`]), and no insert lands at or before a used
//! rank, so the ranks a certified candidate reads are final. Its row —
//! materialized when it enters `Q` — is therefore the
//! `(score, assignment)`-minimum of its subspace over the *final*
//! lists, exactly as in `Topk` over static lists (see
//! `crate::lawler`), and `Q` shares `Topk`'s `(score, row)` heap. With
//! `≤` in place of `<` a later equal-key insert could precede a used
//! element, and a certified row would stop being its subspace's
//! minimum.
//!
//! Per match: one pop, at most `n_T` candidates placed (no side queues
//! here — a child is either certified into `Q` or parked), so `Q`
//! grows by at most `n_T` entrants and `n_T²` row words per pop.
//!
//! ## Bookkeeping
//!
//! The parked set is indexed, not hashed, so each successor costs O(1)
//! bookkeeping:
//! - Every slot list has a flat id, as `SlotLists` numbers them: the
//!   root list is 0, and list `(u, pi)` is `base[u] + pi`.
//! - A list's parked candidates form an intrusive chain: `Parked.next`
//!   links them, and `parked_head` holds each list's newest. A sweep
//!   walks the chain and unlinks the candidates promoted since the last
//!   sweep.
//! - The loader logs a list each time it inserts into it. A per-list
//!   `swept` epoch stamp makes one expansion batch sweep each list once.
//! - A re-evaluation pushes a `parked_heap` entry only when the score
//!   changed. Otherwise the candidate's live entry, at its current
//!   version, is still correct.

use crate::lawler::{LawlerCore, Popped, RowQueue, SlotLists};
use crate::loader::{BoundMode, PriorityLoader};
use crate::matches::{CandidateSpec, Child, HeapEntry, ScoredMatch, NO_PARENT};
use crate::plan::QueryPlan;
use ktpm_graph::Score;
use ktpm_query::{QNodeId, ResolvedQuery};
use ktpm_storage::SharedSource;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Work done by a [`TopkEnEnumerator`] so far, in the paper's cost
/// terms: one pop per match, at most `n_T` `Q` entrants per pop, one
/// `n_T`-word row per entrant, and `m'_R` edges loaded.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopkEnCounters {
    /// Entries popped off `Q` — one per emitted match.
    pub pops: u64,
    /// Candidates that entered `Q`, promotions out of the parked set
    /// included.
    pub q_pushes: u64,
    /// Candidates parked at least once (not certified when divided).
    pub parked: u64,
    /// Words written to the row pool (`n_T` per `Q` entrant).
    pub row_words: u64,
    /// Edges loaded from storage (the paper's `m'_R`).
    pub edges_loaded: u64,
}

/// End of a parked chain.
const NO_PARK: u32 = u32::MAX;

/// A candidate waiting for the `Q_g` bound to certify it.
#[derive(Debug, Clone, Copy)]
struct Parked {
    /// Its `score` is the latest evaluation (`Score::MAX`: rank not
    /// loaded yet).
    spec: CandidateSpec,
    /// Bumped on every re-evaluation that changed the score; stale
    /// `parked_heap` entries carry an older one.
    version: u32,
    alive: bool,
    /// The next park id on the same list's chain (`NO_PARK`: last).
    next: u32,
}

/// Algorithm 3: the `Topk-EN` enumerator. Yields matches in the
/// canonical `(score, assignment)` order — the stream `Topk` yields —
/// natively; `take(k)` gives the top-k after exactly `k` pops.
///
/// Specs name their generating popped match by **entrant id**: the
/// index of its row in `Q`'s pool, so the parked machinery reads any
/// position of any earlier match with one slice index.
pub struct TopkEnEnumerator {
    query: ResolvedQuery,
    core: LawlerCore,
    lists: SlotLists,
    loader: PriorityLoader,
    /// Certified candidates, ordered by `(score, row)`.
    q: RowQueue,
    /// The spec each `Q` entrant entered with, by entrant id: a child's
    /// re-evaluation reads its parent's score and division point here.
    entrants: Vec<CandidateSpec>,
    /// Every candidate ever parked, by park id.
    parked: Vec<Parked>,
    /// Per flat list id: the newest park id on the
    /// list's chain, `NO_PARK` for none.
    parked_head: Vec<u32>,
    /// Per flat list id: the sweep epoch that last swept it.
    swept: Vec<u32>,
    /// The current sweep epoch (bumped once per [`Self::after_expand`]).
    epoch: u32,
    /// Parked candidates keyed `(score, park id, version)` — versioned
    /// lazy deletion.
    parked_heap: BinaryHeap<HeapEntry>,
    /// Reused divide output buffer (cleared each pop).
    div_buf: Vec<Child>,
    /// Reused buffer the loader's dirty-list log is swapped into.
    dirty_buf: Vec<u32>,
    initial_created: bool,
    pops: u64,
}

impl TopkEnEnumerator {
    /// Builds the enumerator (runs the §4.1 initialization; no edges
    /// beyond `D`/`E` tables are loaded until iteration starts). It
    /// owns its shared store handle, so it can be parked in a session
    /// table, resumed later, and moved between worker threads.
    pub fn new(query: &ResolvedQuery, source: SharedSource) -> Self {
        Self::with_bound(query, source, BoundMode::Tight)
    }

    /// As [`Self::new`] with an explicit bound mode (the loose mode is
    /// DP-P's trigger; the §4.2 entry of `tests/paper_claims.rs` compares
    /// the two).
    pub fn with_bound(query: &ResolvedQuery, source: SharedSource, bound: BoundMode) -> Self {
        let mut lists = SlotLists::default();
        let loader = PriorityLoader::new(query, source, bound, &mut lists);
        Self::from_parts(query, loader, lists)
    }

    /// Algorithm 3 over a shared [`QueryPlan`]: the §4.1 candidate
    /// discovery (`D`/`E` table sweeps) comes from the plan — computed
    /// on its first use, shared ever after — so constructing this
    /// enumerator on a warm plan performs **zero** storage reads. Edge
    /// loading during iteration stays lazy and per-enumerator, exactly
    /// as with [`Self::new`].
    pub fn from_plan(plan: &QueryPlan) -> Self {
        let mut lists = SlotLists::default();
        let loader = PriorityLoader::from_setup(
            plan.query(),
            Arc::clone(plan.source()),
            BoundMode::Tight,
            &mut lists,
            plan.lazy(),
        );
        Self::from_parts(plan.query(), loader, lists)
    }

    fn from_parts(query: &ResolvedQuery, loader: PriorityLoader, lists: SlotLists) -> Self {
        // Capacity hint: every root candidate pops at least once before
        // the stream ends, so the root bucket size is a cheap estimate.
        let hint = loader.candidates().len(QNodeId(0)).clamp(16, 1 << 16);
        let lists_n = lists.num_ids();
        TopkEnEnumerator {
            query: query.clone(),
            core: LawlerCore::new(query.tree()),
            lists,
            loader,
            q: RowQueue::new(query.len(), hint),
            entrants: Vec::with_capacity(hint),
            parked: Vec::new(),
            parked_head: vec![NO_PARK; lists_n],
            swept: vec![0; lists_n],
            epoch: 0,
            parked_heap: BinaryHeap::new(),
            div_buf: Vec::new(),
            dirty_buf: Vec::new(),
            initial_created: false,
            pops: 0,
        }
    }

    /// Edges loaded from storage so far (the paper's `m'_R`).
    pub fn edges_loaded(&self) -> u64 {
        self.loader.edges_inserted()
    }

    /// Work done so far, read off the structures themselves: every `Q`
    /// entrant has one row and one entrant record, every parked
    /// candidate one park record.
    #[doc(hidden)]
    pub fn counters(&self) -> TopkEnCounters {
        TopkEnCounters {
            pops: self.pops,
            q_pushes: self.q.entrants(),
            parked: self.parked.len() as u64,
            row_words: self.q.row_words(),
            edges_loaded: self.edges_loaded(),
        }
    }

    /// Certifies `spec` (its score is final and below the bound): it
    /// gets its row and enters `Q`.
    fn enter_q(&mut self, spec: CandidateSpec) {
        self.q.enter(&mut self.core, &mut self.lists, spec);
        self.entrants.push(spec);
    }

    /// The flat id of the list `spec`'s replacement draws from.
    fn list_id(&self, spec: &CandidateSpec) -> u32 {
        if spec.pos == 0 {
            0
        } else {
            let p = self.core.parent_of(spec.pos);
            self.lists.id(spec.pos, self.q.row(spec.parent)[p as usize])
        }
    }

    /// Parks `spec` at the head of its list's chain.
    fn park(&mut self, spec: CandidateSpec) {
        let list = self.list_id(&spec) as usize;
        let id = self.parked.len() as u32;
        self.parked.push(Parked {
            spec,
            version: 0,
            alive: true,
            next: self.parked_head[list],
        });
        self.parked_head[list] = id;
        if spec.score != Score::MAX {
            self.parked_heap.push(HeapEntry {
                key: spec.score,
                a: id,
                b: 0,
            });
        }
    }

    /// Re-evaluates a parked candidate against the current lists (they
    /// may have grown since). Returns its score if the rank now exists.
    /// The parent's score and division point come from its entrant
    /// record, its node at the list's parent position from its row.
    fn reevaluate(&mut self, spec: &CandidateSpec) -> Option<Score> {
        if spec.parent == NO_PARENT {
            // The initial top-1: the best root.
            return self.lists.root.rank(1).map(|(key, _)| key);
        }
        let parent = self.entrants[spec.parent as usize];
        let base_rank = if spec.pos == parent.div_pos() {
            parent.rank
        } else {
            1
        };
        let list = self
            .core
            .list_at(&mut self.lists, self.q.row(spec.parent), spec.pos);
        let base_key = list.rank(base_rank as usize)?.0;
        let (new_key, _) = list.rank(spec.rank as usize)?;
        Some(parent.score - base_key + new_key)
    }

    /// Sends a fresh candidate to `Q` if the bound certifies it, to the
    /// parked set otherwise.
    fn place(&mut self, spec: CandidateSpec, known: bool, gtop: Option<Score>) {
        if known && gtop.is_none_or(|g| spec.score < g) {
            self.enter_q(spec);
        } else {
            let score = if known { spec.score } else { Score::MAX };
            self.park(CandidateSpec { score, ..spec });
        }
    }

    /// Re-evaluates parked candidates on freshly dirtied lists and
    /// promotes everything the current `Q_g` bound certifies.
    /// Allocation-free in steady state: the dirty log is swapped with a
    /// reused buffer, and lists are deduplicated by epoch stamp.
    fn after_expand(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty_buf);
        self.loader.swap_dirty(&mut dirty);
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.swept.fill(0);
                1
            }
        };
        for &list in &dirty {
            if self.swept[list as usize] == self.epoch {
                continue;
            }
            self.swept[list as usize] = self.epoch;
            self.sweep(list);
            if list == 0 && !self.initial_created && !self.lists.root.is_empty() {
                // The top-1 waits for certification like any other
                // candidate: an equal-score root may still load.
                self.initial_created = true;
                if let Some(init) = self.core.initial_candidate(&mut self.lists) {
                    self.park(init);
                }
            }
        }
        self.dirty_buf = dirty;
        self.promote_parked();
    }

    /// Walks `list`'s parked chain: unlinks the candidates promoted
    /// since the last sweep and re-evaluates the rest. A new
    /// `parked_heap` entry is pushed only when the score changed; an
    /// unchanged score keeps its live entry at the current version.
    fn sweep(&mut self, list: u32) {
        let mut prev = NO_PARK;
        let mut id = self.parked_head[list as usize];
        while id != NO_PARK {
            let Parked {
                spec, alive, next, ..
            } = self.parked[id as usize];
            if !alive {
                match prev {
                    NO_PARK => self.parked_head[list as usize] = next,
                    _ => self.parked[prev as usize].next = next,
                }
            } else {
                if let Some(score) = self.reevaluate(&spec) {
                    if score != spec.score {
                        let p = &mut self.parked[id as usize];
                        p.spec.score = score;
                        p.version += 1;
                        self.parked_heap.push(HeapEntry {
                            key: score,
                            a: id,
                            b: p.version,
                        });
                    }
                }
                prev = id;
            }
            id = next;
        }
    }

    /// Moves parked candidates whose score is certified by `Q_g` into
    /// `Q`. A live heap entry's score is current: lists change only by
    /// loading, and [`Self::after_expand`] has just re-evaluated every
    /// parked candidate on a list that did.
    fn promote_parked(&mut self) {
        let gtop = self.loader.qg_top();
        while let Some(&HeapEntry {
            key: score,
            a: id,
            b: version,
        }) = self.parked_heap.peek()
        {
            let p = &mut self.parked[id as usize];
            if p.alive && p.version == version {
                if gtop.is_some_and(|g| score >= g) {
                    return;
                }
                p.alive = false;
                let spec = p.spec;
                self.enter_q(spec);
            }
            self.parked_heap.pop();
        }
    }

    fn emit(&mut self) -> ScoredMatch {
        let (score, id) = self.q.pop().expect("emit called with non-empty Q");
        self.pops += 1;
        let spec = self.entrants[id as usize];
        let popped = Popped {
            id,
            score,
            div_pos: spec.div_pos(),
            rank_at_div: spec.rank,
        };
        let gtop = self.loader.qg_top();
        let mut children = std::mem::take(&mut self.div_buf);
        self.core
            .divide_into(&mut self.lists, self.q.row(id), popped, &mut children);
        for c in &children {
            self.place(c.spec, c.known, gtop);
        }
        self.div_buf = children;
        let row = self.q.row(id);
        let assignment = self
            .query
            .tree()
            .node_ids()
            .map(|u| self.loader.candidates().node(u, row[u.index()]))
            .collect();
        ScoredMatch { score, assignment }
    }

    /// Whether `Q`'s minimum is certified: strictly below `Q_g`'s top,
    /// or `Q_g` is exhausted.
    fn q_top_certified(&mut self) -> bool {
        match (self.q.peek_score(), self.loader.qg_top()) {
            (Some(qs), Some(gs)) => qs < gs,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }
}

impl Iterator for TopkEnEnumerator {
    type Item = ScoredMatch;

    fn next(&mut self) -> Option<ScoredMatch> {
        loop {
            if self.q_top_certified() {
                return Some(self.emit());
            }
            // Once `Q_g` is exhausted every list is final and the last
            // expansion batch promoted every parked candidate with a
            // rank: an empty `Q` is the end of the stream.
            self.loader.qg_top()?;
            // Batch expansions: parked re-evaluation is monotone (lists
            // only grow, the bound only rises), so running it once per
            // batch is equivalent and much cheaper than once per pop.
            for _ in 0..16 {
                if !self.loader.expand_top(&mut self.lists) || self.q_top_certified() {
                    break;
                }
            }
            self.after_expand();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{DpBEnumerator, DpPEnumerator};
    use crate::lawler::TopkEnumerator;
    use crate::runtime::RuntimeGraph;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::LabeledGraph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    fn compare_with_full(g: &LabeledGraph, query: &str, k: usize) {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(g), 2);
        let rg = RuntimeGraph::load(&q, &store);
        let full: Vec<Score> = TopkEnumerator::new(Arc::new(rg))
            .take(k)
            .map(|m| m.score)
            .collect();
        let en: Vec<Score> = TopkEnEnumerator::new(&q, store.into_shared())
            .take(k)
            .map(|m| m.score)
            .collect();
        assert_eq!(full, en, "query {query:?}");
    }

    #[test]
    fn agrees_with_full_on_paper_graph() {
        let g = paper_graph();
        compare_with_full(&g, "a -> b\na -> c\nc -> d\nc -> e", 100);
        compare_with_full(&g, "a -> c\nc -> d", 100);
        compare_with_full(&g, "a -> b", 100);
        compare_with_full(&g, "c -> d\nc -> e\nc -> s", 100);
    }

    #[test]
    fn agrees_with_full_on_citation_graph() {
        let g = citation_graph();
        compare_with_full(&g, "C -> E\nC -> S", 100);
        compare_with_full(&g, "C -> E", 100);
    }

    #[test]
    fn agrees_on_child_edges_and_single_node() {
        let g = paper_graph();
        compare_with_full(&g, "a => b", 100);
        compare_with_full(&g, "a => c\nc => d", 100);
        compare_with_full(&g, "a", 100);
    }

    #[test]
    fn agrees_on_duplicate_labels_and_wildcards() {
        let g = paper_graph();
        compare_with_full(&g, "a#1 -> a#2", 100);
        compare_with_full(&g, "c -> *#1", 100);
        compare_with_full(&g, "a -> *#1\n*#1 -> s", 100);
    }

    /// Pulls `k` matches in two parts, split at `pause`.
    fn pull_split(
        it: &mut impl Iterator<Item = ScoredMatch>,
        k: usize,
        pause: usize,
    ) -> Vec<ScoredMatch> {
        let j = pause.min(k);
        let mut got: Vec<ScoredMatch> = it.by_ref().take(j).collect();
        got.extend(it.by_ref().take(k - j));
        got
    }

    /// The raw `Topk-EN`, `DP-B` and `DP-P` streams, each pulled in two
    /// parts, against the raw `Topk` stream over the fully loaded graph.
    fn assert_raw_streams_equal(
        q: &ResolvedQuery,
        store: SharedSource,
        k: usize,
        pause: usize,
    ) -> Result<usize, String> {
        let rg = Arc::new(RuntimeGraph::load(q, store.as_ref()));
        let want: Vec<ScoredMatch> = TopkEnumerator::new(Arc::clone(&rg)).take(k).collect();
        let mut en = TopkEnEnumerator::new(q, Arc::clone(&store));
        let en_got = pull_split(&mut en, k, pause);
        if en.counters().pops != en_got.len() as u64 {
            return Err(format!("{:?} for {} matches", en.counters(), en_got.len()));
        }
        let streams = [
            ("Topk-EN", en_got),
            ("DP-B", pull_split(&mut DpBEnumerator::new(rg), k, pause)),
            (
                "DP-P",
                pull_split(&mut DpPEnumerator::new(q, store), k, pause),
            ),
        ];
        for (name, got) in streams {
            if got.len() != want.len() {
                return Err(format!(
                    "{name}: {} matches, Topk has {}",
                    got.len(),
                    want.len()
                ));
            }
            if let Some(i) = got.iter().zip(&want).position(|(a, b)| a != b) {
                return Err(format!(
                    "{name} match {i}: {:?} vs Topk {:?}",
                    got[i], want[i]
                ));
            }
        }
        Ok(want.len())
    }

    mod raw_vs_topk {
        use super::*;
        use ktpm_workload::{generate, random_tree_query, GraphSpec, QuerySpec};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            /// Strict certification plus payload-ranked list ties make
            /// the raw `Topk-EN`, `DP-B` and `DP-P` streams the `Topk`
            /// stream, element for element, across a resume split:
            /// random workload graphs with unit or 1–3 weights, queries
            /// of 2..7 nodes, storage blocks of 1–4 edges.
            #[test]
            fn raw_topk_en_equals_raw_topk_stream(
                nodes in 20..120usize,
                seed in 0..10_000u64,
                size in 2..7usize,
                unit in 0..2u64,
                block in 1..5usize,
                k in 1..300usize,
                pause in 0..300usize,
            ) {
                let g = generate(&GraphSpec {
                    nodes,
                    labels: 5,
                    label_skew: 0.5,
                    avg_out_degree: 2.5,
                    community: 30,
                    cross_fraction: 0.1,
                    weight_range: (1, if unit == 1 { 1 } else { 3 }),
                    seed,
                });
                let query = random_tree_query(&g, QuerySpec {
                    size,
                    distinct_labels: false,
                    seed: seed ^ 0x77,
                });
                if let Some(q) = query {
                    let q = q.resolve(g.interner());
                    let store = MemStore::with_block_edges(ClosureTables::compute(&g), block);
                    let checked = assert_raw_streams_equal(&q, store.into_shared(), k, pause);
                    prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
                }
            }
        }
    }

    /// Wildcard twigs over unit-weight graphs: hop-count scores, so the
    /// order is decided almost entirely by the tie-break — for
    /// `Topk-EN`, `DP-B` and `DP-P` alike. The 9-node twig's rows are
    /// past `NodeRow::INLINE`.
    #[test]
    fn wildcard_twigs_stream_raw_topk_en_as_raw_topk() {
        use ktpm_workload::{generate, GraphSpec};
        let shapes = [
            "L0 -> *#1\nL0 -> *#2",
            "L1 -> *#1\nL1 -> *#2\n*#1 -> *#3\n*#1 -> *#4",
            "L0 -> *#1\n*#1 -> *#2\n*#2 -> *#3\n*#2 -> *#4",
            "L0 -> *#1\nL0 -> *#2\n*#1 -> *#3\n*#1 -> *#4\n*#2 -> *#5\n\
             *#2 -> *#6\n*#3 -> *#7\n*#3 -> *#8",
        ];
        for seed in [0x7135u64, 0xC0FFEE] {
            let g = generate(&GraphSpec {
                nodes: 60,
                labels: 3,
                label_skew: 0.3,
                avg_out_degree: 1.5,
                community: 20,
                cross_fraction: 0.2,
                weight_range: (1, 1),
                seed,
            });
            for shape in shapes {
                let q = TreeQuery::parse(shape).unwrap().resolve(g.interner());
                for block in 1..=4 {
                    let store = MemStore::with_block_edges(ClosureTables::compute(&g), block);
                    let n = assert_raw_streams_equal(&q, store.into_shared(), 3_000, 1_000)
                        .unwrap_or_else(|e| panic!("{}-node twig, block {block}: {e}", q.len()));
                    assert!(n >= 200, "{}-node twig streams only {n}", q.len());
                }
            }
        }
    }

    /// The delay bound for `Topk-EN`, by arithmetic on its own counters:
    /// on `lawler.rs`'s tie star (first tie class ≥ 1 000), k matches
    /// cost k pops, each pop admits at most `n_T` candidates to `Q`
    /// with one `n_T`-word row each, and the loader never loads more
    /// than the full run-time graph holds.
    #[test]
    fn k_matches_cost_k_pops_and_n_t_rows_each() {
        let (q, store) = crate::lawler::tests::tie_star();
        let n_t = q.len() as u64;
        let full_edges = RuntimeGraph::load(&q, &store).num_edges() as u64;
        let mut it = TopkEnEnumerator::new(&q, store.into_shared());
        assert_eq!(
            (it.counters().pops, it.counters().q_pushes),
            (0, 0),
            "nothing is certified before the first pull"
        );
        let first = it.next().expect("the star has matches");
        assert_eq!(it.counters().pops, 1, "the first match costs one pop");
        let mut tie_class = 1;
        for k in 2..=3_000u64 {
            let m = it.next().expect("the star has thousands of matches");
            tie_class += u64::from(m.score == first.score);
            let c = it.counters();
            assert_eq!(c.pops, k, "k matches cost k pops");
            assert!(c.q_pushes <= 1 + n_t * c.pops, "match {k}: {c:?}");
            assert_eq!(c.row_words, n_t * c.q_pushes, "match {k}: {c:?}");
            assert!(c.edges_loaded <= full_edges, "match {k}: {c:?}");
        }
        assert!(
            tie_class >= 1_000,
            "first tie class has {tie_class} members"
        );
    }

    #[test]
    fn loads_fewer_edges_than_full_for_small_k() {
        let g = paper_graph();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d\nc -> e")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(&g), 1);
        let full_edges = RuntimeGraph::load(&q, &store).num_edges() as u64;
        let mut en = TopkEnEnumerator::new(&q, store.into_shared());
        let top1 = en.next().unwrap();
        assert_eq!(top1.score, 4);
        assert!(
            en.edges_loaded() <= full_edges,
            "EN loaded {} vs full {full_edges}",
            en.edges_loaded()
        );
    }

    #[test]
    fn exhausts_to_none() {
        let g = citation_graph();
        let q = TreeQuery::parse("C -> E\nC -> S")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        let mut en = TopkEnEnumerator::new(&q, store.into_shared());
        let all: Vec<_> = en.by_ref().collect();
        assert_eq!(all.len(), 5);
        assert_eq!(en.next(), None);
        assert_eq!(en.next(), None);
    }

    #[test]
    fn no_match_queries_yield_nothing() {
        let g = paper_graph();
        let q = TreeQuery::parse("s -> a").unwrap().resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        assert_eq!(TopkEnEnumerator::new(&q, store.into_shared()).count(), 0);
    }

    #[test]
    fn shared_enumerator_is_send_and_agrees_with_borrowed() {
        fn assert_send<T: Send>(_: &T) {}
        let g = citation_graph();
        let q = TreeQuery::parse("C -> E\nC -> S")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(&g), 2);
        let want = crate::brute::all_matches(&RuntimeGraph::load(&q, &store));
        let mut shared = TopkEnEnumerator::new(&q, store.into_shared());
        assert_send(&shared);
        // The enumerator owns its store handle, so another thread can
        // drive it.
        let got: Vec<ScoredMatch> = std::thread::spawn(move || {
            let first = shared.next();
            first.into_iter().chain(shared.by_ref()).collect()
        })
        .join()
        .unwrap();
        assert_eq!(want, got);
    }
}
