//! The transitive closure organized as label-pair tables.
//!
//! §3.1: "for each pair of node labels α, β we store in table `Lᵅᵦ` all
//! the triples `(vᵢ, vⱼ, δ_min(vᵢ, vⱼ))`". §4.1 further groups each table
//! by destination node (`Lᵅᵥ`, sorted by distance) and derives `Dᵅᵦ`
//! (minimum incoming distance per node) and `Eᵅᵦ` (minimum outgoing edge
//! per source and label).
//!
//! [`ClosureTables`] is the in-memory form; `ktpm-storage` serializes the
//! same layout to disk for the priority-based algorithms.

use crate::dijkstra::sssp;
use ktpm_graph::{Dist, LabelId, LabeledGraph, NodeId, INF_DIST};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// A label pair `(source label, destination label)` identifying one table.
pub type PairKey = (LabelId, LabelId);

/// Every `(source, dist)` run of one table, shared with each reader
/// that holds them.
pub type SharedRuns = Arc<[(NodeId, Dist)]>;

/// One `Lᵅᵦ` table: all closure edges from α-labeled to β-labeled nodes,
/// grouped by destination node with each group sorted by distance — the
/// exact on-disk layout §4.1 describes.
///
/// A table is immutable once built; a closure repair replaces it whole.
/// Its runs are shared (`Arc`), so a reader can hold one past the
/// table's replacement without copying it. The other arrays are sized
/// exactly (see `from_triples`), so they are boxed, without a `Vec`'s
/// capacity word.
#[derive(Debug, Clone, Default)]
pub struct PairTable {
    /// Destination nodes with at least one incoming edge, ascending.
    dst_nodes: Box<[NodeId]>,
    /// Group boundaries into `in_entries`; `len == dst_nodes.len() + 1`.
    dst_offsets: Box<[u32]>,
    /// `(source, dist)` runs per destination, each sorted by `(dist, src)`.
    in_entries: SharedRuns,
    /// `Eᵅᵦ`: for every source with at least one edge in this table, its
    /// minimum-distance outgoing edge. Sorted by source.
    min_out: Box<[(NodeId, NodeId, Dist)]>,
}

impl PairTable {
    /// Builds a table from raw `(src, dst, dist)` triples (used by the
    /// on-demand store of §5 "Managing Closure Size").
    pub fn build(triples: Vec<(NodeId, NodeId, Dist)>) -> Self {
        Self::from_triples(triples)
    }

    fn from_triples(mut triples: Vec<(NodeId, NodeId, Dist)>) -> Self {
        // E view first (min outgoing edge per source).
        let mut best: HashMap<NodeId, (NodeId, Dist)> = HashMap::new();
        for &(s, d, w) in &triples {
            best.entry(s)
                .and_modify(|cur| {
                    if (w, d) < (cur.1, cur.0) {
                        *cur = (d, w);
                    }
                })
                .or_insert((d, w));
        }
        let mut min_out: Vec<(NodeId, NodeId, Dist)> =
            best.into_iter().map(|(s, (d, w))| (s, d, w)).collect();
        min_out.sort_unstable_by_key(|&(s, _, _)| s);

        // Incoming layout: group by destination, sort groups by (dist, src).
        // The groups are counted first, so both group vectors are sized
        // exactly: a closure holds tens of thousands of tables, and
        // push-growth slack in each adds up.
        triples.sort_unstable_by_key(|&(s, d, w)| (d, w, s));
        let groups = triples.windows(2).filter(|w| w[0].1 != w[1].1).count()
            + usize::from(!triples.is_empty());
        let mut dst_nodes = Vec::with_capacity(groups);
        let mut dst_offsets = Vec::with_capacity(groups + 1);
        dst_offsets.push(0u32);
        let mut in_entries = Vec::with_capacity(triples.len());
        for (s, d, w) in triples {
            if dst_nodes.last() != Some(&d) {
                dst_nodes.push(d);
                dst_offsets.push(in_entries.len() as u32);
            }
            in_entries.push((s, w));
            *dst_offsets.last_mut().unwrap() = in_entries.len() as u32;
        }
        PairTable {
            dst_nodes: dst_nodes.into_boxed_slice(),
            dst_offsets: dst_offsets.into_boxed_slice(),
            in_entries: in_entries.into(),
            min_out: min_out.into_boxed_slice(),
        }
    }

    /// Number of closure edges in this table.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.in_entries.len()
    }

    /// Destination nodes with at least one incoming edge, ascending.
    pub fn dst_nodes(&self) -> &[NodeId] {
        &self.dst_nodes
    }

    /// `Lᵅᵥ`: incoming closure edges of `v`, sorted by `(dist, src)`.
    pub fn incoming(&self, v: NodeId) -> &[(NodeId, Dist)] {
        &self.in_entries[self.incoming_range(v)]
    }

    /// `Lᵅᵥ` as a share of the table's runs: every run, and `v`'s range
    /// in them (empty when `v` has no incoming edge here). The share
    /// keeps the run readable after the table is replaced.
    pub fn incoming_shared(&self, v: NodeId) -> (SharedRuns, Range<usize>) {
        (Arc::clone(&self.in_entries), self.incoming_range(v))
    }

    fn incoming_range(&self, v: NodeId) -> Range<usize> {
        match self.dst_nodes.binary_search(&v) {
            Ok(i) => self.dst_offsets[i] as usize..self.dst_offsets[i + 1] as usize,
            Err(_) => 0..0,
        }
    }

    /// `dᵅᵥ`: the minimum incoming distance of `v` (the `Dᵅᵦ` entry).
    pub fn min_incoming_dist(&self, v: NodeId) -> Option<Dist> {
        self.incoming(v).first().map(|&(_, d)| d)
    }

    /// `Eᵅᵦ`: per-source minimum outgoing edges, sorted by source.
    pub fn min_out(&self) -> &[(NodeId, NodeId, Dist)] {
        &self.min_out
    }

    /// Iterates all `(src, dst, dist)` triples (destination-major).
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Dist)> + '_ {
        self.dst_nodes.iter().enumerate().flat_map(move |(i, &d)| {
            let lo = self.dst_offsets[i] as usize;
            let hi = self.dst_offsets[i + 1] as usize;
            self.in_entries[lo..hi].iter().map(move |&(s, w)| (s, d, w))
        })
    }

    /// Point lookup `δ_min(u, v)` inside this table. Linear in `|Lᵅᵥ|`
    /// (used only for kGPM verification of a handful of non-tree edges).
    pub fn dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        self.incoming(v)
            .iter()
            .find(|&&(s, _)| s == u)
            .map(|&(_, d)| d)
    }
}

/// Aggregate closure statistics (Table 2 of the paper reports time/size).
#[derive(Debug, Clone, PartialEq)]
pub struct ClosureStats {
    /// Nodes of the underlying graph.
    pub nodes: usize,
    /// Total closure edges across all tables.
    pub edges: usize,
    /// Number of non-empty label-pair tables.
    pub pairs: usize,
    /// θ — average number of closure edges per label-pair type (§1/§3.1).
    pub theta: f64,
}

/// The full shortest-distance transitive closure as label-pair tables.
#[derive(Debug, Clone)]
pub struct ClosureTables {
    num_nodes: usize,
    labels: Vec<LabelId>,
    /// The non-empty pairs, strictly ascending; a pair is found by binary
    /// search. A sorted array costs 8 bytes a pair where a hash map
    /// costs a bucket of key and table, a third of them empty.
    keys: Vec<PairKey>,
    /// `keys[i]`'s table at position `i`.
    tables: Vec<PairTable>,
    total_edges: usize,
}

impl ClosureTables {
    /// Computes the closure of `g`, one SSSP per source, parallelized
    /// across available cores.
    pub fn compute(g: &LabeledGraph) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::compute_with_threads(g, threads)
    }

    /// Computes the closure with an explicit thread count.
    pub fn compute_with_threads(g: &LabeledGraph, threads: usize) -> Self {
        type PairShard = HashMap<PairKey, Vec<(NodeId, NodeId, Dist)>>;
        let n = g.num_nodes();
        let threads = threads.clamp(1, n.max(1));
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let mut shards: Vec<PairShard> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                if lo >= hi {
                    continue;
                }
                handles.push(scope.spawn(move || {
                    let mut local: HashMap<PairKey, Vec<(NodeId, NodeId, Dist)>> = HashMap::new();
                    let mut scratch = vec![INF_DIST; n];
                    for s in lo..hi {
                        let src = NodeId(s as u32);
                        let la = g.label(src);
                        for (dst, dist) in sssp(g, src, &mut scratch) {
                            let lb = g.label(dst);
                            local.entry((la, lb)).or_default().push((src, dst, dist));
                        }
                    }
                    local
                }));
            }
            for h in handles {
                shards.push(h.join().expect("closure worker panicked"));
            }
        });
        let mut merged: HashMap<PairKey, Vec<(NodeId, NodeId, Dist)>> = HashMap::new();
        for shard in shards {
            for (k, mut v) in shard {
                merged.entry(k).or_default().append(&mut v);
            }
        }
        let mut merged: Vec<_> = merged.into_iter().collect();
        merged.sort_unstable_by_key(|&(k, _)| k);
        let total = merged.iter().map(|(_, triples)| triples.len()).sum();
        let keys = merged.iter().map(|&(k, _)| k).collect();
        let tables = merged
            .into_iter()
            .map(|(_, triples)| PairTable::from_triples(triples))
            .collect();
        ClosureTables {
            num_nodes: n,
            labels: g.nodes().map(|v| g.label(v)).collect(),
            keys,
            tables,
            total_edges: total,
        }
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total closure edges.
    pub fn num_edges(&self) -> usize {
        self.total_edges
    }

    /// The label of node `v` (copied from the source graph).
    pub fn label(&self, v: NodeId) -> LabelId {
        self.labels[v.index()]
    }

    /// The `Lᵅᵦ` table for a label pair, if non-empty.
    pub fn pair(&self, src_label: LabelId, dst_label: LabelId) -> Option<&PairTable> {
        let i = self.keys.binary_search(&(src_label, dst_label)).ok()?;
        Some(&self.tables[i])
    }

    /// Iterates all non-empty tables, in ascending key order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (PairKey, &PairTable)> {
        self.keys.iter().copied().zip(&self.tables)
    }

    /// All tables whose *destination* label is `dst_label` — needed to
    /// assemble incoming lists of wildcard query nodes.
    pub fn pairs_into_label(
        &self,
        dst_label: LabelId,
    ) -> impl Iterator<Item = (LabelId, &PairTable)> {
        self.iter_pairs()
            .filter(move |&((_, b), _)| b == dst_label)
            .map(|((a, _), t)| (a, t))
    }

    /// Point lookup `δ_min(u, v)`.
    pub fn dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        self.pair(self.label(u), self.label(v))
            .and_then(|t| t.dist(u, v))
    }

    /// Replaces one `Lᵅᵦ` table from raw triples, dropping it when empty.
    /// Edge accounting stays consistent; used by the incremental repair.
    pub(crate) fn set_pair_triples(&mut self, key: PairKey, triples: Vec<(NodeId, NodeId, Dist)>) {
        let at = self.keys.binary_search(&key);
        if let Ok(i) = at {
            self.total_edges -= self.tables[i].num_edges();
        }
        self.total_edges += triples.len();
        match (at, triples.is_empty()) {
            (Ok(i), false) => self.tables[i] = PairTable::from_triples(triples),
            (Ok(i), true) => {
                self.keys.remove(i);
                self.tables.remove(i);
            }
            (Err(i), false) => {
                self.keys.insert(i, key);
                self.tables.insert(i, PairTable::from_triples(triples));
            }
            (Err(_), true) => {}
        }
    }

    /// θ — average edges per non-empty label-pair type.
    pub fn theta(&self) -> f64 {
        if self.keys.is_empty() {
            0.0
        } else {
            self.total_edges as f64 / self.keys.len() as f64
        }
    }

    /// Aggregate statistics (for Table 2 style reporting).
    pub fn stats(&self) -> ClosureStats {
        ClosureStats {
            nodes: self.num_nodes,
            edges: self.total_edges,
            pairs: self.keys.len(),
            theta: self.theta(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::floyd_warshall;
    use ktpm_graph::GraphBuilder;

    /// The paper's Figure 2(b) data graph with unit weights.
    fn fig2_graph() -> LabeledGraph {
        ktpm_graph::fixtures::paper_graph()
    }

    #[test]
    fn closure_matches_floyd_warshall() {
        let g = fig2_graph();
        let tc = ClosureTables::compute_with_threads(&g, 2);
        let fw = floyd_warshall(&g);
        let mut count = 0;
        for (i, row) in fw.iter().enumerate() {
            for (j, &expect) in row.iter().enumerate() {
                let got = tc.dist(NodeId(i as u32), NodeId(j as u32));
                if expect == INF_DIST {
                    assert_eq!(got, None, "({i},{j})");
                } else {
                    assert_eq!(got, Some(expect), "({i},{j})");
                    count += 1;
                }
            }
        }
        assert_eq!(tc.num_edges(), count);
    }

    #[test]
    fn incoming_groups_sorted_by_distance() {
        let g = fig2_graph();
        let tc = ClosureTables::compute(&g);
        for (_, table) in tc.iter_pairs() {
            for &v in table.dst_nodes() {
                let inc = table.incoming(v);
                assert!(!inc.is_empty());
                assert!(inc.windows(2).all(|w| w[0].1 <= w[1].1), "sorted by dist");
                assert_eq!(table.min_incoming_dist(v), Some(inc[0].1));
            }
        }
    }

    #[test]
    fn min_out_is_minimal() {
        let g = fig2_graph();
        let tc = ClosureTables::compute(&g);
        for (_, table) in tc.iter_pairs() {
            for &(s, d, w) in table.min_out() {
                assert_eq!(table.dist(s, d), Some(w));
                // No edge from s in this table is cheaper.
                for (s2, _, w2) in table.iter_edges() {
                    if s2 == s {
                        assert!(w2 >= w);
                    }
                }
            }
        }
    }

    #[test]
    fn thread_counts_agree() {
        let g = fig2_graph();
        let t1 = ClosureTables::compute_with_threads(&g, 1);
        let t4 = ClosureTables::compute_with_threads(&g, 4);
        assert_eq!(t1.num_edges(), t4.num_edges());
        for (k, table) in t1.iter_pairs() {
            let other = t4.pair(k.0, k.1).expect("same pairs");
            let mut e1: Vec<_> = table.iter_edges().collect();
            let mut e2: Vec<_> = other.iter_edges().collect();
            e1.sort_unstable();
            e2.sort_unstable();
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn example_from_section_4_1() {
        // Checks every closure fact stated in the paper's Example 4.1.
        let g = fig2_graph();
        let tc = ClosureTables::compute(&g);
        let lbl = |n| g.interner().get(n).unwrap();
        let (a, c, d, e, s) = (lbl("a"), lbl("c"), lbl("d"), lbl("e"), lbl("s"));
        let (v1, v2, v5, v6, v7, v8, v9, v11, v12) = (
            NodeId(0),
            NodeId(1),
            NodeId(4),
            NodeId(5),
            NodeId(6),
            NodeId(7),
            NodeId(8),
            NodeId(10),
            NodeId(11),
        );
        // L^a_{v5} = {(v1,1),(v2,2)}, d^a_{v5} = 1.
        let ac = tc.pair(a, c).unwrap();
        assert_eq!(ac.incoming(v5), &[(v1, 1), (v2, 2)]);
        assert_eq!(ac.min_incoming_dist(v5), Some(1));
        // L^a_{v6} = {(v1,1),(v2,2)}, d^a_{v6} = 1.
        assert_eq!(ac.incoming(v6), &[(v1, 1), (v2, 2)]);
        assert_eq!(ac.min_incoming_dist(v6), Some(1));
        // E_{v5} = {(v5,v7,1),(v5,v9,1),(v5,v11,1)} split across E^c_d, E^c_e, E^c_s.
        assert_eq!(
            tc.pair(c, d).unwrap().min_out(),
            &[(v5, v7, 1), (v6, v7, 1)]
        );
        assert_eq!(
            tc.pair(c, e).unwrap().min_out(),
            &[(v5, v9, 1), (v6, v9, 2)]
        );
        assert_eq!(
            tc.pair(c, s).unwrap().min_out(),
            &[(v5, v11, 1), (v6, v12, 1)]
        );
        // D^c_d stores only (v8, 2): d^c_{v7} = 1 is implicit.
        let cd = tc.pair(c, d).unwrap();
        assert_eq!(cd.min_incoming_dist(v7), Some(1));
        assert_eq!(cd.min_incoming_dist(v8), Some(2));
    }

    #[test]
    fn theta_and_stats() {
        let g = fig2_graph();
        let tc = ClosureTables::compute(&g);
        let s = tc.stats();
        assert_eq!(s.nodes, 13);
        assert_eq!(s.edges, tc.num_edges());
        assert!(s.theta > 0.0);
    }

    #[test]
    fn pairs_into_label_collects_all_sources() {
        let g = fig2_graph();
        let tc = ClosureTables::compute(&g);
        let d = g.interner().get("d").unwrap();
        let froms: Vec<LabelId> = tc.pairs_into_label(d).map(|(a, _)| a).collect();
        // d-labeled nodes (v7, v8) are reached from a, b, c labels.
        assert!(froms.len() >= 3);
    }

    #[test]
    fn empty_graph_closure() {
        let g = GraphBuilder::new().build().unwrap();
        let tc = ClosureTables::compute(&g);
        assert_eq!(tc.num_edges(), 0);
        assert_eq!(tc.theta(), 0.0);
    }
}
