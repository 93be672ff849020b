//! Per-query-node candidate sets.
//!
//! Candidate discovery differs by loading mode:
//!
//! * **Full mode** ([`CandidateSets::from_labels`]) — every data node with
//!   the right label is a candidate (§3.2's `V_i`); wildcards admit every
//!   node.
//! * **Priority mode** ([`CandidateSets::from_d_tables`]) — non-root
//!   candidates come from the `Dᵅᵦ` tables (only nodes with at least one
//!   incoming closure edge from the parent label can ever be matched),
//!   which is both what §4.1 loads at initialization and a useful pruning.
//!
//! A candidate's dense index is its position in its node's list, which
//! ascends strictly by data node id. So the reverse lookup
//! ([`CandidateSets::index_of`]) is a binary search of that list: no
//! per-node hash map is built or kept.

use ktpm_graph::{Dist, LabelId, NodeId};
use ktpm_query::{EdgeKind, QNodeId, QueryLabel, ResolvedQuery};
use ktpm_storage::{ClosureSource, Sections};

/// Candidate sets `V_u` for every query node, with dense per-node indices.
///
/// All sets live in one flat array, node after node: candidate `i` of
/// `u` sits at [`Self::flat`]`(u, i)`, so per-candidate state elsewhere
/// can be one flat array too.
#[derive(Debug, Clone)]
pub(crate) struct CandidateSets {
    /// Every node's candidates, node 0's first; each node's run is
    /// strictly ascending, and a candidate's index is its position in
    /// its run.
    nodes: Vec<NodeId>,
    /// `base[u]..base[u + 1]` is `u`'s run in `nodes`.
    base: Vec<u32>,
}

impl CandidateSets {
    /// Full-mode discovery: all nodes carrying the query label.
    pub(crate) fn from_labels(query: &ResolvedQuery, source: &dyn ClosureSource) -> Self {
        let n_t = query.len();
        let mut cands: Vec<Vec<NodeId>> = vec![Vec::new(); n_t];
        for i in 0..source.num_nodes() {
            let v = NodeId(i as u32);
            let l = source.node_label(v);
            for u in query.tree().node_ids() {
                match query.label(u) {
                    QueryLabel::Label(ql) if ql == l => cands[u.index()].push(v),
                    QueryLabel::Wildcard => cands[u.index()].push(v),
                    _ => {}
                }
            }
        }
        Self::from_lists(cands)
    }

    /// Priority-mode discovery from `D` tables: the root keeps its label
    /// bucket; every other node keeps only nodes with at least one
    /// incoming closure edge from the parent's label. Returns the sets
    /// and the initial `eᵥ` lower bounds (`dᵅᵥ`, §4.1) per candidate, in
    /// [`Self::flat`] order.
    /// `pairs` is the query's [`edge_label_pairs`] over `source`, which
    /// the caller resolves once and reuses for everything else it reads
    /// per edge.
    pub(crate) fn from_d_tables(
        query: &ResolvedQuery,
        source: &dyn ClosureSource,
        pairs: &[Vec<(LabelId, LabelId)>],
    ) -> (Self, Vec<Dist>) {
        let mut nodes = Vec::new();
        let mut evs = Vec::new();
        let mut base = Vec::with_capacity(query.len() + 1);
        base.push(0);
        // Root: full label bucket (root nodes need no incoming edges).
        for i in 0..source.num_nodes() {
            let v = NodeId(i as u32);
            let l = source.node_label(v);
            match query.label(query.tree().root()) {
                QueryLabel::Label(ql) if ql == l => nodes.push(v),
                QueryLabel::Wildcard => nodes.push(v),
                _ => {}
            }
        }
        evs.resize(nodes.len(), 0);
        base.push(nodes.len() as u32);
        // Non-root: D-table driven.
        let mut list: Vec<(NodeId, Dist)> = Vec::new();
        for u in query.tree().node_ids().skip(1) {
            let direct_only = query.tree().edge_kind(u) == EdgeKind::Child;
            list.clear();
            for &(a, b) in &pairs[u.index()] {
                list.extend(source.load_d(a, b));
            }
            // One entry per node, at its smallest distance over the
            // edge's label pairs.
            list.sort_unstable();
            list.dedup_by_key(|&mut (v, _)| v);
            for &(v, d) in &list {
                if !direct_only || d == 1 {
                    nodes.push(v);
                    evs.push(d);
                }
            }
            base.push(nodes.len() as u32);
        }
        (Self::from_flat(nodes, base), evs)
    }

    /// Wraps externally discovered candidate lists (one per query node,
    /// each strictly ascending by data node id — checked in debug
    /// builds).
    /// Used by setup caches that derive candidate sets from an already
    /// loaded run-time graph instead of re-sweeping storage.
    pub(crate) fn from_lists(cands: Vec<Vec<NodeId>>) -> Self {
        let mut base = Vec::with_capacity(cands.len() + 1);
        base.push(0);
        for list in &cands {
            base.push(base[base.len() - 1] + list.len() as u32);
        }
        Self::from_flat(cands.concat(), base)
    }

    fn from_flat(nodes: Vec<NodeId>, base: Vec<u32>) -> Self {
        let sets = CandidateSets { nodes, base };
        // Candidate index order is data node id order: `Topk` compares
        // assignments by index and emits them by node, and its
        // canonical `(score, assignment)` stream is only correct while
        // the two agree — and `index_of` binary-searches on it.
        debug_assert!(
            (0..sets.base.len() - 1)
                .all(|u| sets.of(QNodeId(u as u32)).windows(2).all(|w| w[0] < w[1])),
            "every candidate list must be strictly ascending by node id"
        );
        sets
    }

    /// Candidates of query node `u`, ascending by data node id.
    #[inline]
    pub(crate) fn of(&self, u: QNodeId) -> &[NodeId] {
        &self.nodes[self.span(u)]
    }

    /// The positions of `u`'s candidates in the flat numbering
    /// ([`Self::flat`]).
    #[inline]
    pub(crate) fn span(&self, u: QNodeId) -> std::ops::Range<usize> {
        self.base[u.index()] as usize..self.base[u.index() + 1] as usize
    }

    /// The flat position of candidate `i` of `u`: unique across all
    /// query nodes, below [`Self::total`].
    #[inline]
    pub(crate) fn flat(&self, u: QNodeId, i: u32) -> usize {
        self.base[u.index()] as usize + i as usize
    }

    /// Dense index of data node `v` within `u`'s candidate set: a
    /// binary search of the ascending list, O(log |V_u|).
    #[inline]
    pub(crate) fn index_of(&self, u: QNodeId, v: NodeId) -> Option<u32> {
        self.of(u).binary_search(&v).ok().map(|i| i as u32)
    }

    /// The data node at a dense index.
    #[inline]
    pub(crate) fn node(&self, u: QNodeId, idx: u32) -> NodeId {
        self.nodes[self.flat(u, idx)]
    }

    /// Number of candidates of `u`.
    #[inline]
    pub(crate) fn len(&self, u: QNodeId) -> usize {
        self.span(u).len()
    }

    /// Total candidates across all query nodes (the paper's `n_R`, with
    /// per-query-node copies counted separately as §5 prescribes).
    pub(crate) fn total(&self) -> usize {
        self.nodes.len()
    }
}

/// The closure label pairs feeding query edge `(p, u)`: the cross product
/// of the endpoint label sets, restricted to non-empty tables. Wildcards
/// expand to every label present in the store; an
/// [`QueryLabel::Unmatchable`] endpoint yields nothing.
///
/// Cost: an edge between two concrete labels is one
/// [`ClosureSource::has_pair`] probe — O(log P) or O(1) in the store's
/// pair count P on every indexed backend — and only an edge with a
/// wildcard endpoint enumerates [`ClosureSource::pair_keys`] (O(P)).
/// Callers that need every edge of a query use [`edge_label_pairs`],
/// which shares that one enumeration among all wildcard edges.
pub fn label_pairs(
    query: &ResolvedQuery,
    source: &dyn ClosureSource,
    p: QNodeId,
    u: QNodeId,
) -> Vec<(LabelId, LabelId)> {
    let (src, dst) = (query.label(p), query.label(u));
    let mut pairs = candidate_pairs(src, dst, source, &mut None);
    if is_probed(src, dst) {
        pairs.retain(|&(a, b)| source.has_pair(a, b));
    }
    pairs
}

/// [`label_pairs`] of every query edge at once: entry `u` holds the
/// pairs of edge `(parent(u), u)` (the root's entry is empty). The
/// store's pair keys are enumerated at most once, and only if some edge
/// has a wildcard endpoint.
pub fn edge_label_pairs(
    query: &ResolvedQuery,
    source: &dyn ClosureSource,
) -> Vec<Vec<(LabelId, LabelId)>> {
    let mut pairs = edge_candidate_pairs(query, source);
    keep_stored_pairs(query, source, &mut pairs);
    pairs
}

/// [`edge_label_pairs`] for a plan half about to read `sections(u)` of
/// edge `u`'s pairs — what each half resolves its edges through, once.
/// The half's one [`ClosureSource::prefetch`] is handed every candidate
/// pair *before* any is probed: a concrete edge's one pair unprobed, a
/// wildcard edge's from `pair_keys`. On a paged store the probes then
/// find their index pages already read, in the prefetch's first round,
/// instead of paying a demand read each — a round trip apiece on a
/// remote store. The prefetch skips a pair its index does not hold, so
/// an absent candidate costs only the page its probe would read anyway.
pub(crate) fn prefetch_edge_label_pairs(
    query: &ResolvedQuery,
    source: &dyn ClosureSource,
    sections: &dyn Fn(usize) -> Sections,
) -> Vec<Vec<(LabelId, LabelId)>> {
    let mut pairs = edge_candidate_pairs(query, source);
    source.prefetch(&pairs, sections);
    keep_stored_pairs(query, source, &mut pairs);
    pairs
}

/// Every edge's candidate pairs, the concrete edges' unprobed.
fn edge_candidate_pairs(
    query: &ResolvedQuery,
    source: &dyn ClosureSource,
) -> Vec<Vec<(LabelId, LabelId)>> {
    let tree = query.tree();
    let mut keys = None;
    tree.node_ids()
        .map(|u| match tree.parent(u) {
            Some(p) => candidate_pairs(query.label(p), query.label(u), source, &mut keys),
            None => Vec::new(),
        })
        .collect()
}

/// Drops the concrete edges' candidates the store does not hold; a
/// wildcard edge's came from the store's own keys.
fn keep_stored_pairs(
    query: &ResolvedQuery,
    source: &dyn ClosureSource,
    pairs: &mut [Vec<(LabelId, LabelId)>],
) {
    let tree = query.tree();
    for u in tree.node_ids() {
        if let Some(p) = tree.parent(u) {
            if is_probed(query.label(p), query.label(u)) {
                pairs[u.index()].retain(|&(a, b)| source.has_pair(a, b));
            }
        }
    }
}

/// Whether an edge's candidates need a [`ClosureSource::has_pair`]
/// probe: both endpoints concrete.
fn is_probed(src: QueryLabel, dst: QueryLabel) -> bool {
    matches!((src, dst), (QueryLabel::Label(_), QueryLabel::Label(_)))
}

/// One edge's candidate pairs: a concrete edge's one pair, unprobed, or
/// the store's keys a wildcard admits; `keys` memoizes the store's pair
/// keys across the wildcard edges of one query.
fn candidate_pairs(
    src: QueryLabel,
    dst: QueryLabel,
    source: &dyn ClosureSource,
    keys: &mut Option<Vec<(LabelId, LabelId)>>,
) -> Vec<(LabelId, LabelId)> {
    let admits = |ql: QueryLabel, l: LabelId| match ql {
        QueryLabel::Label(have) => have == l,
        QueryLabel::Wildcard => true,
        QueryLabel::Unmatchable => false,
    };
    match (src, dst) {
        (QueryLabel::Unmatchable, _) | (_, QueryLabel::Unmatchable) => Vec::new(),
        (QueryLabel::Label(a), QueryLabel::Label(b)) => vec![(a, b)],
        _ => keys
            .get_or_insert_with(|| source.pair_keys())
            .iter()
            .copied()
            .filter(|&(a, b)| admits(src, a) && admits(dst, b))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::paper_graph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    fn setup(query_text: &str) -> (MemStore, ResolvedQuery) {
        let g = paper_graph();
        let q = TreeQuery::parse(query_text).unwrap().resolve(g.interner());
        (MemStore::new(ClosureTables::compute(&g)), q)
    }

    fn from_d_tables(q: &ResolvedQuery, store: &MemStore) -> (CandidateSets, Vec<Dist>) {
        CandidateSets::from_d_tables(q, store, &edge_label_pairs(q, store))
    }

    #[test]
    fn full_mode_uses_label_buckets() {
        let (store, q) = setup("a -> b\na -> c\nc -> d\nc -> e");
        let sets = CandidateSets::from_labels(&q, &store);
        assert_eq!(sets.of(QNodeId(0)), &[NodeId(0), NodeId(1)]); // v1, v2
        assert_eq!(sets.total(), 10); // 2 per label, 5 query nodes
        assert!(q.tree().node_ids().all(|u| sets.len(u) == 2));
        assert_eq!(sets.index_of(QNodeId(0), NodeId(1)), Some(1));
        assert_eq!(sets.node(QNodeId(0), 1), NodeId(1));
    }

    #[test]
    fn d_mode_prunes_unreachable_candidates() {
        let (store, q) = setup("a -> b\na -> c\nc -> d\nc -> e");
        let (sets, evs) = from_d_tables(&q, &store);
        // Root keeps both a-nodes.
        assert_eq!(sets.len(QNodeId(0)), 2);
        // b-candidates reachable from a: v3 (dist 1) and v4 (dist 2).
        let b_node = q
            .tree()
            .node_ids()
            .find(|&u| q.tree().label_name(u) == Some("b"))
            .unwrap();
        assert_eq!(sets.of(b_node), &[NodeId(2), NodeId(3)]);
        // d^a_{v3} = 1 (v1->v3); d^a_{v4} = 2 (v1->v3->v4).
        assert_eq!(evs[sets.span(b_node)], [1, 2]);
    }

    #[test]
    fn d_mode_child_edge_requires_distance_one() {
        // '/' edge from c to e: direct edges only. v9 has δ(v5,v9)=1 so it
        // stays; but with parent b -> e nothing is at distance 1.
        let (store, q) = setup("c => e");
        let (sets, _) = from_d_tables(&q, &store);
        let e_node = QNodeId(1);
        assert_eq!(sets.of(e_node), &[NodeId(8)]); // only v9 (δ(v5,v9)=1)
    }

    #[test]
    fn wildcard_admits_every_node() {
        let (store, q) = setup("a -> *#1");
        let sets = CandidateSets::from_labels(&q, &store);
        assert_eq!(sets.len(QNodeId(1)), 13);
    }

    #[test]
    fn unmatchable_label_is_empty() {
        let (store, q) = setup("a -> nosuchlabel");
        let sets = CandidateSets::from_labels(&q, &store);
        assert_eq!(sets.len(QNodeId(1)), 0);
    }

    #[test]
    fn label_pairs_for_wildcard_edges() {
        let (store, q) = setup("a -> *#1");
        let pairs = label_pairs(&q, &store, QNodeId(0), QNodeId(1));
        // Every pair key starting from label 'a'.
        let g = paper_graph();
        let a = g.interner().get("a").unwrap();
        assert!(!pairs.is_empty());
        assert!(pairs.iter().all(|&(x, _)| x == a));
    }
}
