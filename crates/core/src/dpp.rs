//! DP-P: DP-B over a priority-order loaded run-time graph.
//!
//! Loading is driven by [`PriorityLoader`] with [`BoundMode::Loose`]
//! (`b̄s + e_v`): §4 of the VLDB'15 paper states DP-P's trigger is
//! strictly looser than Topk-EN's, so DP-P loads more edges. A match is
//! emitted only once its score is *strictly* below the loader's bound;
//! whenever more edges must load first, the DP structures are rebuilt
//! over the grown lists — the I/O-heavy enumeration phase the paper
//! observes for DP-P in Figures 6(e)/6(f).
//!
//! ## Why a rebuild replays exactly what was emitted
//!
//! A match through an edge not loaded yet scores at least the `Q_g`
//! top, so every match emitted below that top precedes, in the
//! canonical `(score, assignment)` order, every match the loader can
//! still add. DP-B over any loaded subgraph pops that subgraph's
//! matches in the canonical order (see `crate::dpb`), so the emitted
//! matches are the first ones of every later rebuild too, in the same
//! order: after a rebuild the stream resumes at rank `emitted + 1`, and
//! a count is all the replay needs. With `≤` in place of `<`, a match
//! loaded later could tie an emitted one at the bound with a smaller
//! assignment and take its rank.

use crate::dpb::DpEngine;
use crate::lawler::SlotLists;
use crate::loader::{BoundMode, PriorityLoader};
use crate::matches::ScoredMatch;
use ktpm_query::ResolvedQuery;
use ktpm_storage::SharedSource;

/// The DP-P enumerator. Yields matches in the canonical
/// `(score, assignment)` order.
pub struct DpPEnumerator {
    query: ResolvedQuery,
    lists: SlotLists,
    loader: PriorityLoader,
    engine: Option<DpEngine>,
    /// Matches emitted so far: the next one is the current engine
    /// build's rank `emitted + 1`.
    emitted: usize,
}

impl DpPEnumerator {
    /// Runs the §4.1 initialization (D/E tables only). DP-P's loading
    /// *is* its enumeration strategy, so it has no plan-backed form:
    /// every stream re-runs the initialization against storage.
    pub fn new(query: &ResolvedQuery, source: SharedSource) -> Self {
        let mut lists = SlotLists::default();
        let loader = PriorityLoader::new(query, source, BoundMode::Loose, &mut lists);
        DpPEnumerator {
            query: query.clone(),
            lists,
            loader,
            engine: None,
            emitted: 0,
        }
    }

    /// Edges loaded from storage so far.
    pub fn edges_loaded(&self) -> u64 {
        self.loader.edges_inserted()
    }

    fn to_scored(&self, score: ktpm_graph::Score, row: &[u32]) -> ScoredMatch {
        let tree = self.query.tree();
        ScoredMatch {
            score,
            assignment: tree
                .node_ids()
                .map(|u| self.loader.candidates().node(u, row[u.index()]))
                .collect(),
        }
    }
}

impl Iterator for DpPEnumerator {
    type Item = ScoredMatch;

    fn next(&mut self) -> Option<ScoredMatch> {
        loop {
            if !self.loader.dirty().is_empty() {
                self.loader.clear_dirty();
                self.engine = None;
            }
            let engine = self
                .engine
                .get_or_insert_with(|| DpEngine::new(self.query.tree()));
            let Some((score, row)) = engine.root_match(&mut self.lists, self.emitted + 1) else {
                // Exhausted on the loaded subgraph; load more or stop.
                self.loader.qg_top()?;
                self.loader.expand_top(&mut self.lists);
                continue;
            };
            // Certify strictly below the loader's bound before emitting;
            // otherwise load until the bound passes this score.
            if self.loader.qg_top().is_some_and(|g| score >= g) {
                while self.loader.qg_top().is_some_and(|g| score >= g) {
                    self.loader.expand_top(&mut self.lists);
                }
                continue;
            }
            self.emitted += 1;
            return Some(self.to_scored(score, &row));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpb::DpBEnumerator;
    use crate::runtime::RuntimeGraph;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::LabeledGraph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;
    use std::sync::Arc;

    fn compare(g: &LabeledGraph, query: &str, k: usize) {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(g), 2);
        let rg = RuntimeGraph::load(&q, &store);
        let dpb: Vec<ScoredMatch> = DpBEnumerator::new(Arc::new(rg)).take(k).collect();
        let dpp: Vec<ScoredMatch> = DpPEnumerator::new(&q, store.into_shared())
            .take(k)
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
        let mut dpp = DpPEnumerator::new(&q, store.into_shared());
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
        let all: Vec<_> = DpPEnumerator::new(&q, store.into_shared()).collect();
        assert_eq!(all.len(), 5);
        assert!(all.windows(2).all(|w| w[0].score <= w[1].score));
    }
}
