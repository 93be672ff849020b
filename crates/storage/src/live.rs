//! The mutable [`ClosureSource`]: an in-memory store that accepts
//! [`GraphDelta`]s.
//!
//! [`LiveStore`] pairs the data graph with its closure tables behind one
//! `RwLock`. Reads (the whole [`ClosureSource`] surface) take the shared
//! lock and answer through the shared table read path (`table.rs`),
//! whose cursors share their entry run with the table they opened on.
//! A delta replaces a table rather than changing it, so an update can
//! never tear an in-flight block stream. [`LiveStore::apply_delta`]
//! takes the exclusive lock, validates and applies the delta to the
//! graph, repairs the closure incrementally
//! ([`ktpm_closure::ClosureTables::repair`]), and bumps the monotonic
//! graph version the serving layer stamps into plans and cache entries.

use crate::format::DEFAULT_BLOCK_EDGES;
use crate::iostats::{IoSnapshot, IoStats};
use crate::source::{ClosureSource, DeltaReport, EdgeCursor, StorageError};
use crate::table;
use ktpm_closure::ClosureTables;
use ktpm_graph::{undirect, Dist, GraphDelta, LabelId, LabeledGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

struct LiveInner {
    graph: LabeledGraph,
    tables: ClosureTables,
}

/// An in-memory closure store that accepts live graph updates.
pub struct LiveStore {
    inner: RwLock<LiveInner>,
    /// Lazily-built undirected mirror ([`ClosureSource::undirected`]) —
    /// itself a `LiveStore` so deltas repair it incrementally too.
    /// Lock order is `mirror` before `inner`, on both the build path
    /// (write + inner read held across the whole closure computation,
    /// so no delta can slip between snapshotting the graph and
    /// publishing the mirror) and the delta path (read + inner write).
    mirror: RwLock<Option<Arc<LiveStore>>>,
    version: AtomicU64,
    io: IoStats,
    block_edges: usize,
}

impl LiveStore {
    /// Computes the closure of `graph` and wraps both.
    pub fn new(graph: LabeledGraph) -> Self {
        let tables = ClosureTables::compute(&graph);
        Self::with_tables(graph, tables)
    }

    /// Wraps a graph with already-computed closure tables.
    pub fn with_tables(graph: LabeledGraph, tables: ClosureTables) -> Self {
        LiveStore {
            inner: RwLock::new(LiveInner { graph, tables }),
            mirror: RwLock::new(None),
            version: AtomicU64::new(0),
            io: IoStats::new(),
            block_edges: DEFAULT_BLOCK_EDGES,
        }
    }

    /// Sets the cursor block size (in `L` entries); returns `self`.
    pub fn with_block_edges(mut self, block_edges: usize) -> Self {
        self.block_edges = block_edges.max(1);
        self
    }

    /// A clone of the current graph (tests and diagnostics).
    pub fn graph(&self) -> LabeledGraph {
        self.inner
            .read()
            .expect("live store poisoned")
            .graph
            .clone()
    }

    /// Wraps the store in a [`crate::SharedSource`] for concurrent use.
    pub fn into_shared(self) -> crate::SharedSource {
        std::sync::Arc::new(self)
    }
}

impl ClosureSource for LiveStore {
    fn num_nodes(&self) -> usize {
        self.inner
            .read()
            .expect("live store poisoned")
            .tables
            .num_nodes()
    }

    fn node_label(&self, v: NodeId) -> LabelId {
        self.inner
            .read()
            .expect("live store poisoned")
            .tables
            .label(v)
    }

    fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        let inner = self.inner.read().expect("live store poisoned");
        inner.tables.iter_pairs().map(|(k, _)| k).collect()
    }

    fn has_pair(&self, a: LabelId, b: LabelId) -> bool {
        let inner = self.inner.read().expect("live store poisoned");
        inner.tables.pair(a, b).is_some()
    }

    fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        let inner = self.inner.read().expect("live store poisoned");
        table::load_d(inner.tables.pair(a, b), &self.io)
    }

    fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        let inner = self.inner.read().expect("live store poisoned");
        table::load_e(inner.tables.pair(a, b), &self.io)
    }

    fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        let inner = self.inner.read().expect("live store poisoned");
        table::load_pair(inner.tables.pair(a, b), &self.io)
    }

    fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        let inner = self.inner.read().expect("live store poisoned");
        // `v`'s label comes from the guard already held: a second
        // `self.node_label(v)` would re-enter `RwLock::read` and can
        // deadlock behind a waiting writer.
        let t = inner.tables.pair(a, inner.tables.label(v));
        table::incoming_cursor(t, v, &self.io, self.block_edges)
    }

    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        self.inner
            .read()
            .expect("live store poisoned")
            .tables
            .dist(u, v)
    }

    fn io(&self) -> IoSnapshot {
        self.io.snapshot()
    }

    fn reset_io(&self) {
        self.io.reset();
    }

    fn graph_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn apply_delta(&self, delta: &GraphDelta) -> Result<DeltaReport, StorageError> {
        // Lock order: mirror before inner. Holding the mirror slot for
        // reading across the whole apply keeps a concurrent mirror
        // build (slot write) from racing the graph mutation.
        let mirror = self.mirror.read().expect("live store poisoned");
        let mut inner = self.inner.write().expect("live store poisoned");
        let (new_graph, effects) = inner.graph.apply_delta(delta)?;
        // Mirror the delta into the undirected store (if built) as net
        // min-weight changes per unordered endpoint pair, *before*
        // swapping the new graph in — the old graph is still needed to
        // compute pre-delta undirected weights.
        let undirected_touched_pairs = match mirror.as_ref() {
            Some(m) => {
                let ud = undirected_delta(&inner.graph, &new_graph, delta);
                if ud.ops().is_empty() {
                    Vec::new()
                } else {
                    m.apply_delta(&ud)
                        .expect("derived undirected delta is valid by construction")
                        .touched_pairs
                }
            }
            None => Vec::new(),
        };
        let outcome = inner.tables.repair(&new_graph, &effects);
        inner.graph = new_graph;
        // Publish the version while still holding the write lock so
        // readers never observe new tables under an old version.
        let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        Ok(DeltaReport {
            version,
            touched_pairs: outcome.touched_pairs,
            undirected_touched_pairs,
            stats: outcome.stats,
        })
    }

    fn undirected(&self) -> Option<crate::SharedSource> {
        if let Some(m) = self.mirror.read().expect("live store poisoned").as_ref() {
            return Some(Arc::clone(m) as crate::SharedSource);
        }
        let mut slot = self.mirror.write().expect("live store poisoned");
        if slot.is_none() {
            // Hold `inner` for reading across the whole closure build
            // (lock order mirror → inner): a delta cannot land between
            // snapshotting the graph and publishing the mirror.
            let inner = self.inner.read().expect("live store poisoned");
            *slot = Some(Arc::new(LiveStore::new(undirect(&inner.graph))));
        }
        slot.as_ref().map(|m| Arc::clone(m) as crate::SharedSource)
    }
}

/// The undirected projection of one directed delta: for every unordered
/// endpoint pair an op names, compare the pre- and post-delta undirected
/// weight (the min over both directions — the weight [`undirect`] gives
/// that pair) and emit the matching mutation for *both* mirror
/// directions. Deltas masked by the opposite direction (e.g. bumping
/// `u→v` while `v→u` is shorter) project to nothing.
fn undirected_delta(old: &LabeledGraph, new: &LabeledGraph, delta: &GraphDelta) -> GraphDelta {
    use ktpm_graph::GraphDeltaOp;
    let und_weight = |g: &LabeledGraph, u: NodeId, v: NodeId| -> Option<Dist> {
        match (g.edge_weight(u, v), g.edge_weight(v, u)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    };
    let mut pairs: Vec<(NodeId, NodeId)> = delta
        .ops()
        .iter()
        .map(|op| match *op {
            GraphDeltaOp::SetWeight { from, to, .. }
            | GraphDeltaOp::InsertEdge { from, to, .. }
            | GraphDeltaOp::DeleteEdge { from, to } => (from.min(to), from.max(to)),
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut out = GraphDelta::new();
    for (u, v) in pairs {
        match (und_weight(old, u, v), und_weight(new, u, v)) {
            (None, Some(w)) => out = out.insert_edge(u, v, w).insert_edge(v, u, w),
            (Some(_), None) => out = out.delete_edge(u, v).delete_edge(v, u),
            (Some(a), Some(b)) if a != b => out = out.set_weight(u, v, b).set_weight(v, u, b),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use ktpm_graph::fixtures::paper_graph;

    #[test]
    fn starts_at_version_zero_and_bumps_per_delta() {
        let g = paper_graph();
        let e = g.edges().next().unwrap();
        let s = LiveStore::new(g);
        assert_eq!(s.graph_version(), 0);
        let r1 = s
            .apply_delta(&GraphDelta::new().set_weight(e.from, e.to, 5))
            .unwrap();
        assert_eq!(r1.version, 1);
        assert_eq!(s.graph_version(), 1);
        let r2 = s
            .apply_delta(&GraphDelta::new().set_weight(e.from, e.to, 1))
            .unwrap();
        assert_eq!(r2.version, 2);
    }

    #[test]
    fn rejected_delta_leaves_state_untouched() {
        let g = paper_graph();
        let s = LiveStore::new(g);
        let err = s
            .apply_delta(&GraphDelta::new().delete_edge(NodeId(0), NodeId(12)))
            .unwrap_err();
        assert!(matches!(err, StorageError::DeltaRejected(_)));
        assert_eq!(s.graph_version(), 0);
    }

    #[test]
    fn reads_match_memstore_after_update() {
        let g = paper_graph();
        let e = g.edges().next().unwrap();
        let live = LiveStore::new(g.clone());
        live.apply_delta(&GraphDelta::new().set_weight(e.from, e.to, 3))
            .unwrap();
        let (g2, _) = g
            .apply_delta(&GraphDelta::new().set_weight(e.from, e.to, 3))
            .unwrap();
        let cold = MemStore::new(ClosureTables::compute(&g2));
        for (a, b) in cold.pair_keys() {
            assert_eq!(live.load_d(a, b), cold.load_d(a, b));
            assert_eq!(live.load_e(a, b), cold.load_e(a, b));
            let mut lp = live.load_pair(a, b);
            let mut cp = cold.load_pair(a, b);
            lp.sort_unstable();
            cp.sort_unstable();
            assert_eq!(lp, cp);
        }
        assert_eq!(live.pair_keys(), cold.pair_keys());
    }

    #[test]
    fn snapshot_backends_reject_updates() {
        let g = paper_graph();
        let e = g.edges().next().unwrap();
        let mem = MemStore::new(ClosureTables::compute(&g));
        let err = mem
            .apply_delta(&GraphDelta::new().set_weight(e.from, e.to, 2))
            .unwrap_err();
        assert!(matches!(err, StorageError::UpdatesUnsupported(_)));
        assert_eq!(mem.graph_version(), 0);
    }

    /// Every read surface of `live` must equal `cold`'s.
    fn assert_sources_equal(live: &dyn ClosureSource, cold: &dyn ClosureSource) {
        assert_eq!(live.pair_keys(), cold.pair_keys());
        for (a, b) in cold.pair_keys() {
            assert_eq!(live.load_d(a, b), cold.load_d(a, b));
            assert_eq!(live.load_e(a, b), cold.load_e(a, b));
            let mut lp = live.load_pair(a, b);
            let mut cp = cold.load_pair(a, b);
            lp.sort_unstable();
            cp.sort_unstable();
            assert_eq!(lp, cp);
        }
    }

    #[test]
    fn undirected_mirror_matches_cold_undirected_closure() {
        let g = paper_graph();
        let s = LiveStore::new(g.clone());
        let m = s.undirected().expect("live stores mirror");
        let cold = MemStore::new(ClosureTables::compute(&ktpm_graph::undirect(&g)));
        assert_sources_equal(m.as_ref(), &cold);
        // The mirror handle is cached, not rebuilt.
        let m2 = s.undirected().expect("mirror");
        assert!(std::sync::Arc::ptr_eq(&m, &m2));
    }

    #[test]
    fn deltas_keep_the_mirror_consistent_and_report_undirected_pairs() {
        let g = paper_graph();
        let e = g.edges().next().unwrap();
        let s = LiveStore::new(g.clone());
        // Before the mirror exists, reports carry no undirected pairs.
        let r = s
            .apply_delta(&GraphDelta::new().set_weight(e.from, e.to, 4))
            .unwrap();
        assert!(r.undirected_touched_pairs.is_empty());
        let m = s.undirected().expect("mirror");
        // A real weight change must flow through to the mirror...
        let r = s
            .apply_delta(&GraphDelta::new().set_weight(e.from, e.to, 2))
            .unwrap();
        assert!(
            !r.undirected_touched_pairs.is_empty(),
            "weight change must touch undirected tables"
        );
        // ...and the mirror must read exactly like a cold undirected
        // closure of the mutated graph.
        let (g2, _) = g
            .apply_delta(&GraphDelta::new().set_weight(e.from, e.to, 2))
            .unwrap();
        let cold = MemStore::new(ClosureTables::compute(&ktpm_graph::undirect(&g2)));
        assert_sources_equal(m.as_ref(), &cold);
    }

    #[test]
    fn masked_delta_projects_to_no_undirected_change() {
        // u -> v weight 5 and v -> u weight 1: bumping the heavy
        // direction leaves the undirected min weight (1) intact.
        let mut b = ktpm_graph::GraphBuilder::new();
        let u = b.add_node("a");
        let v = b.add_node("b");
        b.add_edge(u, v, 5);
        b.add_edge(v, u, 1);
        let g = b.build().unwrap();
        let s = LiveStore::new(g);
        let m = s.undirected().expect("mirror");
        let v0 = m.graph_version();
        let r = s
            .apply_delta(&GraphDelta::new().set_weight(u, v, 7))
            .unwrap();
        assert!(r.undirected_touched_pairs.is_empty(), "masked: no change");
        assert_eq!(m.graph_version(), v0, "mirror untouched by masked delta");
        assert_eq!(m.lookup_dist(u, v), Some(1));
    }

    /// The blocks `cur` has left, in order.
    fn drain(cur: &mut Box<dyn EdgeCursor + Send>) -> Vec<Vec<(NodeId, Dist)>> {
        std::iter::from_fn(|| Some(cur.next_block()).filter(|b| !b.is_empty())).collect()
    }

    /// Every block of `a`'s cursor into `v`, in order.
    fn blocks(s: &dyn ClosureSource, a: LabelId, v: NodeId) -> Vec<Vec<(NodeId, Dist)>> {
        drain(&mut s.incoming_cursor(a, v))
    }

    #[test]
    fn open_cursor_survives_concurrent_update() {
        // A delta that rewrites the very run a cursor is streaming: the
        // open cursor keeps streaming the run it was opened on, block for
        // block, and a cursor opened after the delta streams the new run.
        let g = paper_graph();
        let a = g.interner().get("a").unwrap();
        let (v1, v5) = (NodeId(0), NodeId(4));
        let delta = GraphDelta::new().set_weight(v1, v5, 9);
        let (g2, _) = g.apply_delta(&delta).unwrap();
        let mem = |g: &LabeledGraph| MemStore::with_block_edges(ClosureTables::compute(g), 1);
        let old = blocks(&mem(&g), a, v5);
        let new = blocks(&mem(&g2), a, v5);
        assert_eq!(old.len(), 2, "the delta must land mid-stream");
        assert_ne!(old, new, "the delta must change the streamed run");
        let s = LiveStore::new(g).with_block_edges(1);
        let mut cur = s.incoming_cursor(a, v5);
        let mut got = vec![cur.next_block()];
        s.apply_delta(&delta).unwrap();
        got.extend(drain(&mut cur));
        assert_eq!(got, old, "an open cursor streams its own version");
        assert_eq!(blocks(&s, a, v5), new, "a later cursor streams the new run");
    }
}
