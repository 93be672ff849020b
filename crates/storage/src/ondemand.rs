//! On-demand closure source — §5 "Managing Closure Size".
//!
//! The paper notes that the full transitive closure "may be extremely
//! large due to possible O(n²G) size" and proposes keeping only hot
//! lists while computing the rest on the fly. [`OnDemandStore`]
//! implements the no-precomputation end of that spectrum: it wraps the
//! data graph directly and materializes each `Lᵅᵦ` pair table lazily,
//! by running SSSP from the α-labeled nodes the first time any table
//! with source label α is requested. Tables are cached, so a query
//! workload touching few label pairs never pays for the rest of the
//! closure; a materialized table is read through the shared table read
//! path (`table.rs`), like every in-memory tier.
//!
//! Trade-off: the first query touching label α pays O(|Vα| · m) SSSP
//! time instead of a table read; wildcard query nodes touch every label
//! and therefore degrade to a full closure computation (as §5 predicts
//! for wildcards).

use crate::format::DEFAULT_BLOCK_EDGES;
use crate::iostats::{IoSnapshot, IoStats};
use crate::source::{ClosureSource, EdgeCursor};
use crate::table;
use ktpm_closure::{sssp, PairTable};
use ktpm_graph::{Dist, LabelId, LabeledGraph, NodeId, INF_DIST};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A [`ClosureSource`] that computes label-pair tables on demand.
pub struct OnDemandStore {
    graph: LabeledGraph,
    /// Pair tables materialized so far.
    tables: Mutex<HashMap<(LabelId, LabelId), Arc<PairTable>>>,
    /// Source labels whose SSSP sweep already ran (all pairs from that
    /// label are materialized together — one sweep serves every β).
    swept: Mutex<std::collections::HashSet<LabelId>>,
    /// Lazily-built undirected mirror — itself on-demand, so a pattern
    /// workload only sweeps the labels it touches.
    mirror: std::sync::OnceLock<crate::SharedSource>,
    io: IoStats,
    sweeps: AtomicU64,
    block_edges: usize,
}

impl OnDemandStore {
    /// Wraps `graph`; nothing is computed until a table is requested.
    pub fn new(graph: LabeledGraph) -> Self {
        Self::with_block_edges(graph, DEFAULT_BLOCK_EDGES)
    }

    /// Wraps with an explicit cursor block size.
    pub fn with_block_edges(graph: LabeledGraph, block_edges: usize) -> Self {
        OnDemandStore {
            graph,
            tables: Mutex::new(HashMap::new()),
            swept: Mutex::new(std::collections::HashSet::new()),
            mirror: std::sync::OnceLock::new(),
            io: IoStats::new(),
            sweeps: AtomicU64::new(0),
            block_edges: block_edges.max(1),
        }
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &LabeledGraph {
        &self.graph
    }

    /// Number of per-source-label SSSP sweeps performed so far (a cache
    /// effectiveness metric: one per distinct source label touched).
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// Ensures all tables with source label `a` exist.
    fn sweep(&self, a: LabelId) {
        {
            let swept = self.swept.lock().expect("swept set");
            if swept.contains(&a) {
                return;
            }
        }
        // Run SSSP from every α-labeled node and bucket by target label.
        let mut buckets: HashMap<LabelId, Vec<(NodeId, NodeId, Dist)>> = HashMap::new();
        let mut scratch = vec![INF_DIST; self.graph.num_nodes()];
        for &src in self.graph.nodes_with_label(a) {
            for (dst, dist) in sssp(&self.graph, src, &mut scratch) {
                buckets
                    .entry(self.graph.label(dst))
                    .or_default()
                    .push((src, dst, dist));
            }
        }
        let mut tables = self.tables.lock().expect("tables");
        let mut swept = self.swept.lock().expect("swept set");
        if swept.insert(a) {
            self.sweeps.fetch_add(1, Ordering::Relaxed);
            for (b, triples) in buckets {
                tables.insert((a, b), Arc::new(PairTable::build(triples)));
            }
        }
    }

    /// Wraps the store in a [`crate::SharedSource`] for concurrent use.
    pub fn into_shared(self) -> crate::SharedSource {
        Arc::new(self)
    }

    fn table(&self, a: LabelId, b: LabelId) -> Option<Arc<PairTable>> {
        self.sweep(a);
        self.tables.lock().expect("tables").get(&(a, b)).cloned()
    }
}

impl ClosureSource for OnDemandStore {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn node_label(&self, v: NodeId) -> LabelId {
        self.graph.label(v)
    }

    fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        // Without computing, the best sound answer is every pair of
        // *present* labels; absent pairs just materialize empty.
        let present: Vec<LabelId> = (0..self.graph.num_labels() as u32)
            .map(LabelId)
            .filter(|&l| !self.graph.nodes_with_label(l).is_empty())
            .collect();
        let mut keys = Vec::with_capacity(present.len() * present.len());
        for &a in &present {
            for &b in &present {
                keys.push((a, b));
            }
        }
        keys
    }

    fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        table::load_d(self.table(a, b).as_deref(), &self.io)
    }

    fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        table::load_e(self.table(a, b).as_deref(), &self.io)
    }

    fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        table::load_pair(self.table(a, b).as_deref(), &self.io)
    }

    fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        let t = self.table(a, self.graph.label(v));
        table::incoming_cursor(t.as_deref(), v, &self.io, self.block_edges)
    }

    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        self.table(self.node_label(u), self.node_label(v))
            .and_then(|t| t.dist(u, v))
    }

    fn io(&self) -> IoSnapshot {
        self.io.snapshot()
    }

    fn reset_io(&self) {
        self.io.reset();
    }

    fn undirected(&self) -> Option<crate::SharedSource> {
        Some(Arc::clone(self.mirror.get_or_init(|| {
            OnDemandStore::new(ktpm_graph::undirect(&self.graph)).into_shared()
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::paper_graph;

    #[test]
    fn tables_match_precomputed_closure() {
        let g = paper_graph();
        let mem = MemStore::new(ClosureTables::compute(&g));
        let od = OnDemandStore::new(g.clone());
        for (a, b) in mem.pair_keys() {
            assert_eq!(mem.load_d(a, b), od.load_d(a, b), "D {a:?}->{b:?}");
            assert_eq!(mem.load_e(a, b), od.load_e(a, b), "E {a:?}->{b:?}");
            let mut pm = mem.load_pair(a, b);
            let mut po = od.load_pair(a, b);
            pm.sort_unstable();
            po.sort_unstable();
            assert_eq!(pm, po, "L {a:?}->{b:?}");
        }
    }

    #[test]
    fn sweeps_are_cached_per_source_label() {
        let g = paper_graph();
        let od = OnDemandStore::new(g.clone());
        let a = g.interner().get("a").unwrap();
        let c = g.interner().get("c").unwrap();
        let d = g.interner().get("d").unwrap();
        od.load_pair(a, c);
        assert_eq!(od.sweeps(), 1);
        od.load_pair(a, d); // same source label: no new sweep
        assert_eq!(od.sweeps(), 1);
        od.load_pair(c, d);
        assert_eq!(od.sweeps(), 2);
    }

    #[test]
    fn lookup_dist_matches_closure() {
        let g = paper_graph();
        let tc = ClosureTables::compute(&g);
        let od = OnDemandStore::new(g.clone());
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(od.lookup_dist(u, v), tc.dist(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn cursor_streams_in_distance_order() {
        let g = paper_graph();
        let od = OnDemandStore::with_block_edges(g.clone(), 1);
        let a = g.interner().get("a").unwrap();
        let mut cur = od.incoming_cursor(a, NodeId(4)); // v5
        assert_eq!(cur.next_block(), vec![(NodeId(0), 1)]);
        assert_eq!(cur.next_block(), vec![(NodeId(1), 2)]);
        assert!(cur.next_block().is_empty());
    }

    #[test]
    fn io_counters_track_loads() {
        let g = paper_graph();
        let od = OnDemandStore::new(g.clone());
        let a = g.interner().get("a").unwrap();
        let c = g.interner().get("c").unwrap();
        od.load_pair(a, c);
        assert!(od.io().edges_read > 0);
        od.reset_io();
        assert_eq!(od.io().edges_read, 0);
    }
}
