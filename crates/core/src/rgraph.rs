//! The fully-loaded run-time graph.

use crate::candidates::{prefetch_edge_label_pairs, CandidateSets};
use ktpm_graph::{Dist, NodeId};
use ktpm_query::{EdgeKind, QNodeId, ResolvedQuery};
use ktpm_storage::{ClosureSource, Sections};

/// Size statistics of a run-time graph (Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// `n_R` — candidate count summed over query nodes.
    pub nodes: usize,
    /// `m_R` — edges of the run-time graph.
    pub edges: usize,
    /// `d_R` — maximum size of one `(parent candidate, child slot)` group.
    pub max_group: usize,
}

/// A fully-loaded run-time graph for one query.
///
/// Edges are grouped per `(child query node, parent candidate index)`:
/// `edges(u, i)` is the paper's `v.childrenᵅ` for `v = ` candidate `i` of
/// `parent(u)` and `α = l(u)`. Entries are `(child candidate index, dist)`.
#[derive(Debug, Clone)]
pub struct RuntimeGraph {
    query: ResolvedQuery,
    cands: CandidateSets,
    /// `adj[u][parent_idx]` for `u >= 1`; `adj[0]` is empty (root).
    adj: Vec<Vec<Vec<(u32, Dist)>>>,
    edges: usize,
}

impl RuntimeGraph {
    /// Loads the run-time graph for `query` from `source` (§3.1 "Run-Time
    /// Graph Identification": one table read per query edge's label pair).
    pub fn load(query: &ResolvedQuery, source: &dyn ClosureSource) -> Self {
        let cands = CandidateSets::from_labels(query, source);
        let n_t = query.len();
        let mut adj: Vec<Vec<Vec<(u32, Dist)>>> = Vec::with_capacity(n_t);
        for u in query.tree().node_ids() {
            match query.tree().parent(u) {
                // Groups are indexed by the *parent's* candidate index.
                Some(p) => adj.push(vec![Vec::new(); cands.len(p)]),
                None => adj.push(Vec::new()),
            }
        }
        // Every pair is read whole, below: announce it at once.
        let pairs = prefetch_edge_label_pairs(query, source, &|_| Sections {
            blocks: true,
            ..Sections::default()
        });
        let mut edges = 0;
        for u in query.tree().node_ids().skip(1) {
            let p = query.tree().parent(u).expect("non-root");
            let direct_only = query.tree().edge_kind(u) == EdgeKind::Child;
            for &(a, b) in &pairs[u.index()] {
                for (src, dst, dist) in source.load_pair(a, b) {
                    if direct_only && dist != 1 {
                        continue;
                    }
                    let (Some(pi), Some(ci)) = (cands.index_of(p, src), cands.index_of(u, dst))
                    else {
                        continue;
                    };
                    adj[u.index()][pi as usize].push((ci, dist));
                    edges += 1;
                }
            }
        }
        // Deterministic group order: ascending `(dist, child index)`.
        for groups in &mut adj {
            for g in groups {
                g.sort_unstable_by_key(|&(ci, d)| (d, ci));
            }
        }
        RuntimeGraph {
            query: query.clone(),
            cands,
            adj,
            edges,
        }
    }

    /// The query this graph serves.
    pub fn query(&self) -> &ResolvedQuery {
        &self.query
    }

    /// The candidate sets.
    pub(crate) fn candidates(&self) -> &CandidateSets {
        &self.cands
    }

    /// The edge group from candidate `parent_idx` of `parent(u)` into
    /// candidates of `u`, sorted by distance.
    #[inline]
    pub fn edges(&self, u: QNodeId, parent_idx: u32) -> &[(u32, Dist)] {
        &self.adj[u.index()][parent_idx as usize]
    }

    /// The data node behind candidate `idx` of query node `u`.
    #[inline]
    pub fn node(&self, u: QNodeId, idx: u32) -> NodeId {
        self.cands.node(u, idx)
    }

    /// Total run-time graph edges (`m_R`).
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Statistics for Table 3 style reporting.
    pub fn stats(&self) -> RuntimeStats {
        let max_group = self
            .adj
            .iter()
            .flat_map(|groups| groups.iter().map(Vec::len))
            .max()
            .unwrap_or(0);
        RuntimeStats {
            nodes: self.cands.total(),
            edges: self.edges,
            max_group,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::paper_graph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    fn rg(query_text: &str) -> RuntimeGraph {
        let g = paper_graph();
        let q = TreeQuery::parse(query_text).unwrap().resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        RuntimeGraph::load(&q, &store)
    }

    #[test]
    fn fig2_runtime_graph_structure() {
        let g = rg("a -> b\na -> c\nc -> d\nc -> e");
        // Query BFS order: a(0), b(1), c(2), d(3), e(4).
        let stats = g.stats();
        assert_eq!(stats.nodes, 10);
        assert!(stats.edges > 0);
        // v1 (root cand 0) reaches both b-candidates: v3 at 1, v4 at 2.
        let b = QNodeId(1);
        let groups = g.edges(b, 0);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1, 1);
        assert_eq!(groups[1].1, 2);
        // Groups sorted by distance.
        for u in g.query().tree().node_ids().skip(1) {
            let p = g.query().tree().parent(u).unwrap();
            for pi in 0..g.candidates().len(p) as u32 {
                let grp = g.edges(u, pi);
                assert!(grp.windows(2).all(|w| w[0].1 <= w[1].1));
            }
        }
    }

    #[test]
    fn child_edge_filters_distance() {
        let with_slash = rg("a => b");
        let with_desc = rg("a -> b");
        assert!(with_slash.num_edges() < with_desc.num_edges());
        // Only distance-1 entries survive.
        let b = QNodeId(1);
        for pi in 0..with_slash.candidates().len(QNodeId(0)) as u32 {
            for &(_, d) in with_slash.edges(b, pi) {
                assert_eq!(d, 1);
            }
        }
    }

    #[test]
    fn children_group_matches_paper_example() {
        // §3.1: "in Figure 2(d), v1.children_c = {v5, v6}".
        let g = rg("a -> c");
        let c = QNodeId(1);
        let v1 = 0u32; // candidate index of v1 within a-candidates
        let children: Vec<NodeId> = g
            .edges(c, v1)
            .iter()
            .map(|&(ci, _)| g.node(c, ci))
            .collect();
        assert_eq!(children, vec![NodeId(4), NodeId(5)]); // v5, v6 at dist 1 each
    }

    #[test]
    fn duplicate_labels_make_separate_candidate_sets() {
        let g = rg("a#1 -> a#2");
        // Both query nodes get both a-nodes as candidates.
        assert_eq!(g.candidates().len(QNodeId(0)), 2);
        assert_eq!(g.candidates().len(QNodeId(1)), 2);
        // Only v2 -> v1 exists among a-pairs.
        let child = QNodeId(1);
        let v2_idx = g.candidates().index_of(QNodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.edges(child, v2_idx), &[(0, 1)]); // v2 -> v1 dist 1
        let v1_idx = g.candidates().index_of(QNodeId(0), NodeId(0)).unwrap();
        assert!(g.edges(child, v1_idx).is_empty());
    }

    #[test]
    fn wildcard_child_collects_all_labels() {
        let g = rg("c -> *#1");
        let star = QNodeId(1);
        let v5_idx = g.candidates().index_of(QNodeId(0), NodeId(4)).unwrap();
        // v5 reaches v7,v8,v9,v10,v11,v13 — 6 nodes of assorted labels.
        assert_eq!(g.edges(star, v5_idx).len(), 6);
    }

    #[test]
    fn empty_query_label_gives_empty_graph() {
        let g = rg("a -> nolabel");
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.candidates().len(QNodeId(1)), 0);
    }
}
