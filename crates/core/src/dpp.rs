//! DP-P: DP-B over a priority-order loaded run-time graph.
//!
//! Loading is driven by [`PriorityLoader`] with [`BoundMode::Loose`]
//! (`b̄s + e_v`): §4 of the VLDB'15 paper states DP-P's trigger is
//! strictly looser than Topk-EN's, so DP-P loads more edges. A match is
//! emitted only once its score is at most the loader's certified bound;
//! whenever more edges must load first, the DP structures are rebuilt
//! over the grown lists and replayed — the I/O-heavy enumeration phase
//! the paper observes for DP-P in Figures 6(e)/6(f).
//!
//! DP-P inserts into the same lists `Topk-EN` does, and an equal-key
//! insert may land before an element it already used (lists rank equal
//! keys by payload, and DP-P certifies at `≤` the bound, not `<`).
//! That is harmless here: every rebuild re-reads the grown lists from
//! scratch, the replay skips assignments already emitted, and the
//! stream reaches the canonical order through
//! [`crate::canonical`], not through its own tie order.

use crate::dpb::DpEngine;
use crate::lawler::SlotLists;
use crate::loader::{BoundMode, PriorityLoader};
use crate::matches::ScoredMatch;
use crate::plan::QueryPlan;
use ktpm_query::ResolvedQuery;
use ktpm_storage::{ClosureSource, SharedSource};
use std::collections::HashSet;
use std::sync::Arc;

/// The DP-P enumerator. Yields matches in non-decreasing score order.
pub struct DpPEnumerator<'s> {
    query: ResolvedQuery,
    lists: SlotLists,
    loader: PriorityLoader<'s>,
    engine: Option<DpEngine>,
    /// Next root-stream rank to examine in the current engine build.
    scan: usize,
    emitted: HashSet<ktpm_graph::NodeRow>,
}

impl<'s> DpPEnumerator<'s> {
    /// Runs the §4.1 initialization (D/E tables only).
    pub fn new(query: &ResolvedQuery, source: &'s dyn ClosureSource) -> Self {
        let mut lists = SlotLists::default();
        let loader = PriorityLoader::new(query, source, BoundMode::Loose, &mut lists);
        DpPEnumerator {
            query: query.clone(),
            lists,
            loader,
            engine: None,
            scan: 1,
            emitted: HashSet::new(),
        }
    }

    /// The `'static` shared-ownership form used by long-lived streams.
    pub fn new_shared(query: &ResolvedQuery, source: SharedSource) -> DpPEnumerator<'static> {
        let mut lists = SlotLists::default();
        let loader = PriorityLoader::new_shared(query, source, BoundMode::Loose, &mut lists);
        DpPEnumerator {
            query: query.clone(),
            lists,
            loader,
            engine: None,
            scan: 1,
            emitted: HashSet::new(),
        }
    }

    /// The plan-backed form [`crate::build_stream`] uses. DP-P's
    /// loading *is* its enumeration strategy — it always re-runs the
    /// §4.1 initialization against storage (hence
    /// `plan_reuse: false` in [`crate::Algo::caps`]); the plan supplies
    /// the query and the shared store handle.
    pub fn from_plan(plan: &QueryPlan) -> DpPEnumerator<'static> {
        Self::new_shared(plan.query(), Arc::clone(plan.source()))
    }

    /// Edges loaded from storage so far.
    pub fn edges_loaded(&self) -> u64 {
        self.loader.edges_inserted()
    }

    fn rebuild_if_dirty(&mut self) {
        if !self.loader.dirty().is_empty() {
            self.loader.clear_dirty();
            self.engine = None;
            self.scan = 1;
        }
    }

    fn to_scored(&self, score: ktpm_graph::Score, assignment: Vec<u32>) -> ScoredMatch {
        let tree = self.query.tree();
        ScoredMatch {
            score,
            assignment: tree
                .node_ids()
                .map(|u| self.loader.candidates().node(u, assignment[u.index()]))
                .collect(),
        }
    }
}

impl Iterator for DpPEnumerator<'_> {
    type Item = ScoredMatch;

    fn next(&mut self) -> Option<ScoredMatch> {
        loop {
            self.rebuild_if_dirty();
            let engine = self
                .engine
                .get_or_insert_with(|| DpEngine::new(self.query.tree().clone()));
            match engine.root_score(&mut self.lists, self.scan) {
                Some(score) => {
                    // Certify against the loader's bound before emitting.
                    match self.loader.qg_top() {
                        Some(g) if score > g => {
                            // Load until the bound certifies this score.
                            while let Some(g) = self.loader.qg_top() {
                                if g >= score {
                                    break;
                                }
                                self.loader.expand_top(&mut self.lists);
                            }
                            continue; // rebuild_if_dirty will reset if needed
                        }
                        _ => {}
                    }
                    let assignment = engine
                        .root_assignment(&mut self.lists, self.scan)
                        .expect("score existed");
                    self.scan += 1;
                    let m = self.to_scored(score, assignment);
                    if self.emitted.insert(m.assignment.clone()) {
                        return Some(m);
                    }
                    // Replayed duplicate after a rebuild: skip.
                }
                None => {
                    // Exhausted on the loaded subgraph; load more or stop.
                    self.loader.qg_top()?;
                    self.loader.expand_top(&mut self.lists);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpb::DpBEnumerator;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::{LabeledGraph, Score};
    use ktpm_query::TreeQuery;
    use ktpm_runtime::RuntimeGraph;
    use ktpm_storage::MemStore;

    fn compare(g: &LabeledGraph, query: &str, k: usize) {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(g), 2);
        let rg = RuntimeGraph::load(&q, &store);
        let dpb: Vec<Score> = DpBEnumerator::new(&rg).take(k).map(|m| m.score).collect();
        let dpp: Vec<Score> = DpPEnumerator::new(&q, &store)
            .take(k)
            .map(|m| m.score)
            .collect();
        assert_eq!(dpb, dpp, "query {query:?}");
    }

    #[test]
    fn agrees_with_dpb_on_fixtures() {
        let g = paper_graph();
        compare(&g, "a -> b\na -> c\nc -> d\nc -> e", 100);
        compare(&g, "a -> c\nc -> d", 100);
        compare(&g, "a => b", 100);
        compare(&g, "a", 100);
        let g = citation_graph();
        compare(&g, "C -> E\nC -> S", 100);
    }

    #[test]
    fn small_k_loads_fewer_edges_than_full_graph() {
        let g = paper_graph();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d\nc -> e")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(&g), 1);
        let full = RuntimeGraph::load(&q, &store).num_edges() as u64;
        let mut dpp = DpPEnumerator::new(&q, &store);
        let top1 = dpp.next().unwrap();
        assert_eq!(top1.score, 4);
        assert!(dpp.edges_loaded() <= full);
    }

    #[test]
    fn exhausts_cleanly() {
        let g = citation_graph();
        let q = TreeQuery::parse("C -> E\nC -> S")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        let all: Vec<_> = DpPEnumerator::new(&q, &store).collect();
        assert_eq!(all.len(), 5);
        assert!(all.windows(2).all(|w| w[0].score <= w[1].score));
    }
}
