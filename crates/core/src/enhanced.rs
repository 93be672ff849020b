//! Algorithm 3 — `Topk-EN`: Lawler enumeration over the lazily-loaded
//! run-time graph (§4.3).
//!
//! The enumerator interleaves two priority queues:
//!
//! * `Q` — finalized candidates (their subspace's best match is certain);
//! * `Q_g` — the loader's queue of nodes with unloaded incoming edges.
//!
//! A candidate computed from the current (incomplete) `L`/`H` lists is
//! inserted into `Q` only when its score is at most the top of `Q_g` —
//! by Theorem 4.1 no match involving an unloaded edge can then beat it.
//! Otherwise it is *parked* and linked to the lists it depends on; every
//! expansion re-evaluates parked candidates on the touched lists and
//! promotes those the risen `Q_g` bound now certifies. Candidates whose
//! replacement rank does not exist yet are parked with score ∞ (§4.3:
//! "an empty match in a subspace may become nonempty later").

use crate::lawler::{LawlerCore, Popped, SlotLists};
use crate::loader::{BoundMode, PriorityLoader};
use crate::matches::{CandidateSpec, Child, HeapEntry, MatchArena, ScoredMatch};
use crate::plan::{LazySetup, QueryPlan};
use ktpm_graph::Score;
use ktpm_query::{QNodeId, ResolvedQuery};
use ktpm_storage::{ClosureSource, SharedSource, SourceRef};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Algorithm 3: the `Topk-EN` enumerator. Yields matches in
/// non-decreasing score order; `take(k)` gives the top-k.
///
/// Specs refer to their generating popped match by **arena id** (the
/// `parent` of the internal `CandidateSpec`); the parked machinery
/// resolves the single assignment position it needs per spec through
/// arena point lookups — no popped match is ever cloned or
/// materialized off the emission path.
pub struct TopkEnEnumerator<'s> {
    query: ResolvedQuery,
    core: LawlerCore,
    /// Popped matches in the deviation encoding: parked specs read
    /// single positions of arbitrary earlier matches through it.
    arena: MatchArena,
    lists: SlotLists,
    loader: PriorityLoader<'s>,
    specs: Vec<CandidateSpec>,
    /// Finalized candidates, keyed `(score, seq, spec id)`.
    q: BinaryHeap<HeapEntry>,
    /// Parked candidate ids per list key (`(0,0)` = root list).
    parked_by_list: HashMap<(u32, u32), Vec<u32>>,
    parked_alive: Vec<bool>,
    parked_version: Vec<u32>,
    /// Parked candidates keyed `(score, spec id, version)` — versioned
    /// lazy deletion.
    parked_heap: BinaryHeap<HeapEntry>,
    /// Reused divide output buffer (cleared each pop).
    div_buf: Vec<Child>,
    /// Reused dirty-key dedup scratch for [`Self::after_expand`].
    dirty_scratch: HashSet<(u32, u32)>,
    initial_created: bool,
    flushed: bool,
    seq: u32,
}

impl<'s> TopkEnEnumerator<'s> {
    /// Builds the enumerator (runs the §4.1 initialization; no edges
    /// beyond `D`/`E` tables are loaded until iteration starts).
    pub fn new(query: &ResolvedQuery, source: &'s dyn ClosureSource) -> Self {
        Self::with_bound(query, source, BoundMode::Tight)
    }

    /// As [`Self::new`] over a shared (`Arc`) source. The returned
    /// `TopkEnEnumerator<'static>` owns everything it needs — it can be
    /// parked in a session table, resumed later, and moved between
    /// worker threads (it is `Send`).
    pub fn new_shared(query: &ResolvedQuery, source: SharedSource) -> TopkEnEnumerator<'static> {
        Self::with_bound_shared(query, source, BoundMode::Tight)
    }

    /// Algorithm 3 over a shared [`QueryPlan`]: the §4.1 candidate
    /// discovery (`D`/`E` table sweeps) comes from the plan — computed
    /// on its first use, shared ever after — so constructing this
    /// enumerator on a warm plan performs **zero** storage reads. Edge
    /// loading during iteration stays lazy and per-enumerator, exactly
    /// as with [`Self::new`].
    pub fn from_plan(plan: &QueryPlan) -> TopkEnEnumerator<'static> {
        Self::from_setup(
            plan.query(),
            Arc::clone(plan.source()),
            BoundMode::Tight,
            plan.lazy(),
        )
    }

    /// As [`Self::from_plan`] from an explicit setup (used by
    /// `ParTopk`'s lazy shard engine with root-restricted setups).
    pub(crate) fn from_setup(
        query: &ResolvedQuery,
        source: SharedSource,
        bound: BoundMode,
        setup: &LazySetup,
    ) -> TopkEnEnumerator<'static> {
        let mut lists = SlotLists::default();
        let loader =
            PriorityLoader::from_setup(query, SourceRef::Shared(source), bound, &mut lists, setup);
        TopkEnEnumerator::from_parts(query, loader, lists)
    }

    /// As [`Self::new_shared`] with an explicit bound mode.
    pub fn with_bound_shared(
        query: &ResolvedQuery,
        source: SharedSource,
        bound: BoundMode,
    ) -> TopkEnEnumerator<'static> {
        let mut lists = SlotLists::default();
        let loader = PriorityLoader::new_shared(query, source, bound, &mut lists);
        TopkEnEnumerator::from_parts(query, loader, lists)
    }

    /// As [`Self::new`] with an explicit bound mode (the loose mode is
    /// used by DP-P comparisons and the ablation bench).
    pub fn with_bound(
        query: &ResolvedQuery,
        source: &'s dyn ClosureSource,
        bound: BoundMode,
    ) -> Self {
        let mut lists = SlotLists::default();
        let loader = PriorityLoader::new(query, source, bound, &mut lists);
        Self::from_parts(query, loader, lists)
    }

    fn from_parts(query: &ResolvedQuery, loader: PriorityLoader<'s>, lists: SlotLists) -> Self {
        // Arena hint: every root candidate pops at least once before
        // the stream ends, so the root bucket size is a cheap estimate.
        let hint = loader.candidates().len(QNodeId(0));
        TopkEnEnumerator {
            query: query.clone(),
            core: LawlerCore::new(query.tree()),
            arena: MatchArena::new(query.len(), hint.max(16)),
            lists,
            loader,
            specs: Vec::new(),
            q: BinaryHeap::new(),
            parked_by_list: HashMap::new(),
            parked_alive: Vec::new(),
            parked_version: Vec::new(),
            parked_heap: BinaryHeap::new(),
            div_buf: Vec::new(),
            dirty_scratch: HashSet::new(),
            initial_created: false,
            flushed: false,
            seq: 0,
        }
    }

    /// Edges loaded from storage so far (the paper's `m'_R`).
    pub fn edges_loaded(&self) -> u64 {
        self.loader.edges_inserted()
    }

    fn push_q(&mut self, id: u32, score: Score) {
        self.specs[id as usize].score = score;
        self.q.push(HeapEntry {
            key: score,
            a: self.seq,
            b: id,
        });
        self.seq += 1;
    }

    fn list_key(&self, spec: &CandidateSpec) -> (u32, u32) {
        if spec.pos == 0 {
            (0, 0)
        } else {
            let p = self.core.parent_of(spec.pos);
            let pi = self.arena.node_at(spec.parent, p);
            (spec.pos, pi)
        }
    }

    fn park(&mut self, id: u32, score: Score) {
        let key = self.list_key(&self.specs[id as usize]);
        self.parked_by_list.entry(key).or_default().push(id);
        if self.parked_alive.len() <= id as usize {
            self.parked_alive.resize(id as usize + 1, false);
            self.parked_version.resize(id as usize + 1, 0);
        }
        self.parked_alive[id as usize] = true;
        self.specs[id as usize].score = score;
        if score != Score::MAX {
            self.parked_heap.push(HeapEntry {
                key: score,
                a: id,
                b: self.parked_version[id as usize],
            });
        }
    }

    /// Re-evaluates a previously unknown or parked candidate against the
    /// current lists (they may have grown since). Returns the updated
    /// score if the rank now exists. Needs only one position of the
    /// parent's assignment — a point lookup in the arena, no
    /// materialization.
    fn reevaluate(&mut self, spec: &CandidateSpec) -> Option<Score> {
        let m = spec.parent;
        let base_rank = if spec.pos == self.arena.div_pos(m) {
            self.arena.rank_at_div(m)
        } else {
            1
        };
        let score = self.arena.score(m);
        let list = if spec.pos == 0 {
            &mut self.lists.root
        } else {
            let p = self.core.parent_of(spec.pos);
            self.lists.slot(spec.pos, self.arena.node_at(m, p))
        };
        let base_key = list.rank(base_rank as usize)?.0;
        let (new_key, _) = list.rank(spec.rank as usize)?;
        Some(score - base_key + new_key)
    }

    fn place(&mut self, spec: CandidateSpec, known: bool, gtop: Option<Score>) {
        let id = self.specs.len() as u32;
        self.specs.push(spec);
        if known && gtop.is_none_or(|g| spec.score <= g) {
            self.push_q(id, spec.score);
        } else {
            self.park(id, if known { spec.score } else { Score::MAX });
        }
    }

    /// Re-evaluates parked candidates on freshly dirtied lists and
    /// promotes everything the current `Q_g` bound certifies.
    /// Allocation-free in steady state: the dirty-key dedup set, the
    /// per-key id vectors and the loader's dirty buffer are all reused.
    fn after_expand(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        dirty.clear();
        dirty.extend(self.loader.dirty().iter().copied());
        self.loader.clear_dirty();
        for &key in &dirty {
            if key == (0, 0) && !self.initial_created && !self.lists.root.is_empty() {
                self.initial_created = true;
                if let Some(init) = self.core.initial_candidate(&mut self.lists) {
                    let id = self.specs.len() as u32;
                    self.specs.push(init);
                    self.push_q(id, init.score);
                }
            }
            // Take the key's id list out, re-insert after the sweep:
            // nothing in the loop parks, so the list cannot grow under
            // us, and this avoids cloning it per dirtied key.
            let Some(ids) = self.parked_by_list.remove(&key) else {
                continue;
            };
            for &id in &ids {
                if !self.parked_alive[id as usize] {
                    continue;
                }
                let spec = self.specs[id as usize];
                if let Some(score) = self.reevaluate(&spec) {
                    self.specs[id as usize].score = score;
                    self.parked_version[id as usize] += 1;
                    self.parked_heap.push(HeapEntry {
                        key: score,
                        a: id,
                        b: self.parked_version[id as usize],
                    });
                }
            }
            self.parked_by_list.insert(key, ids);
        }
        self.dirty_scratch = dirty;
        self.promote_parked();
    }

    /// Moves parked candidates whose score is certified by `Q_g` into `Q`.
    fn promote_parked(&mut self) {
        loop {
            let gtop = self.loader.qg_top();
            let Some(&HeapEntry {
                key: score,
                a: id,
                b: ver,
            }) = self.parked_heap.peek()
            else {
                return;
            };
            if !self.parked_alive[id as usize] || self.parked_version[id as usize] != ver {
                self.parked_heap.pop();
                continue;
            }
            if let Some(g) = gtop {
                if score > g {
                    return;
                }
            }
            self.parked_heap.pop();
            let spec = self.specs[id as usize];
            match self.reevaluate(&spec) {
                Some(ns) if gtop.is_none_or(|g| ns <= g) => {
                    self.parked_alive[id as usize] = false;
                    self.push_q(id, ns);
                }
                Some(ns) => {
                    self.specs[id as usize].score = ns;
                    self.parked_version[id as usize] += 1;
                    self.parked_heap.push(HeapEntry {
                        key: ns,
                        a: id,
                        b: self.parked_version[id as usize],
                    });
                    if ns >= score {
                        // Accurate score still above the bound: stop here
                        // (the heap top cannot certify either).
                        if gtop.is_some_and(|g| ns > g) {
                            return;
                        }
                    }
                }
                None => {
                    // Rank vanished is impossible (lists only grow); treat
                    // as still-unknown.
                    self.specs[id as usize].score = Score::MAX;
                    self.parked_version[id as usize] += 1;
                }
            }
        }
    }

    /// Once `Q_g` is exhausted the lists are final: every parked
    /// candidate with an existing rank becomes a regular `Q` entry.
    fn flush_all_parked(&mut self) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        if !self.initial_created && !self.lists.root.is_empty() {
            self.initial_created = true;
            if let Some(init) = self.core.initial_candidate(&mut self.lists) {
                let id = self.specs.len() as u32;
                self.specs.push(init);
                self.push_q(id, init.score);
            }
        }
        let all: Vec<u32> = self
            .parked_by_list
            .values()
            .flat_map(|v| v.iter().copied())
            .collect();
        for id in all {
            if id as usize >= self.parked_alive.len() || !self.parked_alive[id as usize] {
                continue;
            }
            let spec = self.specs[id as usize];
            if let Some(score) = self.reevaluate(&spec) {
                self.parked_alive[id as usize] = false;
                self.push_q(id, score);
            }
        }
    }

    fn emit(&mut self) -> ScoredMatch {
        let HeapEntry { b: id, .. } = self.q.pop().expect("emit called with non-empty Q");
        let spec = self.specs[id as usize];
        let row = self.arena.begin(spec.parent);
        let changed = self
            .core
            .materialize(&mut self.lists, row, spec.pos, spec.rank);
        let div_pos = spec.div_pos();
        let popped = Popped {
            id: self
                .arena
                .commit(spec.parent, spec.score, div_pos, spec.rank, changed),
            score: spec.score,
            div_pos,
            rank_at_div: spec.rank,
        };
        let gtop = self.loader.qg_top();
        let mut children = std::mem::take(&mut self.div_buf);
        // The arena's scratch row holds the match just committed.
        let asn = self.arena.load(popped.id);
        self.core
            .divide_into(&mut self.lists, asn, popped, &mut children);
        for c in &children {
            self.place(c.spec, c.known, gtop);
        }
        self.div_buf = children;
        let asn = self.arena.load(popped.id);
        let assignment = self
            .query
            .tree()
            .node_ids()
            .map(|u| self.loader.candidates().node(u, asn[u.index()]))
            .collect();
        ScoredMatch {
            score: spec.score,
            assignment,
        }
    }
}

impl Iterator for TopkEnEnumerator<'_> {
    type Item = ScoredMatch;

    fn next(&mut self) -> Option<ScoredMatch> {
        loop {
            let qtop = self.q.peek().map(|e| e.key);
            let gtop = self.loader.qg_top();
            match (qtop, gtop) {
                (Some(qs), Some(gs)) if qs <= gs => return Some(self.emit()),
                (Some(_), None) => return Some(self.emit()),
                (_, Some(_)) => {
                    // Batch expansions: parked re-evaluation is monotone
                    // (lists only grow, the bound only rises), so running
                    // it once per batch is equivalent and much cheaper
                    // than once per pop.
                    for _ in 0..16 {
                        if !self.loader.expand_top(&mut self.lists) {
                            break;
                        }
                        let done = match (self.q.peek().map(|e| e.key), self.loader.qg_top()) {
                            (Some(qs), Some(gs)) => qs <= gs,
                            (_, None) => true,
                            (None, _) => false,
                        };
                        if done {
                            break;
                        }
                    }
                    self.after_expand();
                }
                (None, None) => {
                    if self.flushed {
                        return None;
                    }
                    self.flush_all_parked();
                    if self.q.is_empty() {
                        return None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lawler::TopkEnumerator;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::LabeledGraph;
    use ktpm_query::TreeQuery;
    use ktpm_runtime::RuntimeGraph;
    use ktpm_storage::MemStore;

    fn compare_with_full(g: &LabeledGraph, query: &str, k: usize) {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(g), 2);
        let rg = RuntimeGraph::load(&q, &store);
        let full: Vec<Score> = TopkEnumerator::new(&rg).take(k).map(|m| m.score).collect();
        let en: Vec<Score> = TopkEnEnumerator::new(&q, &store)
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

    #[test]
    fn loads_fewer_edges_than_full_for_small_k() {
        let g = paper_graph();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d\nc -> e")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(&g), 1);
        let full_edges = RuntimeGraph::load(&q, &store).num_edges() as u64;
        let mut en = TopkEnEnumerator::new(&q, &store);
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
        let mut en = TopkEnEnumerator::new(&q, &store);
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
        assert_eq!(TopkEnEnumerator::new(&q, &store).count(), 0);
    }

    #[test]
    fn shared_enumerator_is_send_and_agrees_with_borrowed() {
        fn assert_send<T: Send>(_: &T) {}
        let g = citation_graph();
        let q = TreeQuery::parse("C -> E\nC -> S")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(&g), 2);
        let borrowed: Vec<Score> = TopkEnEnumerator::new(&q, &store).map(|m| m.score).collect();
        let mut shared = TopkEnEnumerator::new_shared(&q, store.into_shared());
        assert_send(&shared);
        // Drive it from another thread — the whole point of `new_shared`.
        let scores: Vec<Score> = std::thread::spawn(move || {
            let first = shared.next().map(|m| m.score);
            first
                .into_iter()
                .chain(shared.by_ref().map(|m| m.score))
                .collect()
        })
        .join()
        .unwrap();
        assert_eq!(borrowed, scores);
    }
}
