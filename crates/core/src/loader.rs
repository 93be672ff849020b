//! Algorithm 2 — `ComputeFirst`: the A*-style priority loader (§4.2).
//!
//! The loader owns the queue `Q_g` of *active* run-time-graph nodes. A
//! candidate `v` of query node `u` is active when every child slot has at
//! least one loaded edge; its key is
//!
//! ```text
//! lb(v) = b̄s(v) + e_v + L(q(v))          (BoundMode::Tight, §4.2)
//! lb(v) = b̄s(v) + e_v                    (BoundMode::Loose, DP-P's trigger)
//! ```
//!
//! where `b̄s` is the Equation-3 upper bound over the loaded lists, `e_v`
//! lower-bounds the next unloaded incoming edge (`dᵅᵥ` before any block
//! is read, then the last loaded distance), and `L(u) = n_T - 1 - |T_u|`
//! counts the remaining query edges (each costs ≥ 1).
//!
//! Popping the top expands it: incoming blocks are loaded (Lines 10–17)
//! and inserted into the parents' `L`/`H` lists — by Theorem 4.2 the
//! popped node's `b̄s` already equals `bs`, so inserted keys are final.
//! Root-label nodes don't load; their first pop finalizes them into the
//! root list (the top-1 match score is the first such pop).
//!
//! `Q_g` is a binary heap with versioned lazy deletion instead of the
//! paper's Fibonacci heap — same delete-min asymptotics, better
//! constants (documented deviation).

use crate::lawler::SlotLists;
use crate::plan::{LazySetup, SeedCsr};
use ktpm_graph::{Dist, NodeId, Score, INF_DIST};
use ktpm_query::{EdgeKind, QNodeId, ResolvedQuery};
use ktpm_runtime::CandidateSets;
use ktpm_storage::{
    merge_sorted_blocks, ClosureSource, EdgeCursor, ShardSpec, SharedSource, SourceRef,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Which lower bound drives the loading order (tight = Topk-EN, loose =
/// DP-P; see §4 intro: "we develop a tighter trigger than that in DP-P").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BoundMode {
    /// `b̄s + e_v + L(q(v))` — the paper's Algorithm 2.
    Tight,
    /// `b̄s + e_v` — no remaining-edges term.
    Loose,
}

enum CursorState {
    Unopened,
    Open(Box<dyn EdgeCursor + Send>),
    Exhausted,
}

/// The priority loader; see module docs.
pub struct PriorityLoader<'s> {
    source: SourceRef<'s>,
    query: ResolvedQuery,
    /// Shared with the setup cache that discovered them (cheap to hand
    /// to every loader of a hot query).
    cands: Arc<CandidateSets>,
    bound: BoundMode,
    // Per query node u.
    children_count: Vec<u32>,
    remaining_edges: Vec<Score>,
    // Per (query node u, candidate i).
    bs_bar: Vec<Vec<Score>>,
    nonempty: Vec<Vec<u32>>,
    active: Vec<Vec<bool>>,
    ev: Vec<Vec<Dist>>,
    version: Vec<Vec<u32>>,
    cursor: Vec<Vec<CursorState>>,
    /// Per query node: the setup's `E`-seeds, shared. The seeds of
    /// `(u, i)` are the parent indices whose list already holds this
    /// child's edge, so a cursor load skips them.
    seeds: Vec<Arc<SeedCsr>>,
    /// Per query node: distinct source labels of its incoming closure
    /// tables — the setup's, shared (cursor opens are hot, and a loader
    /// must not ask the store for them again).
    src_labels: Arc<Vec<Vec<ktpm_graph::LabelId>>>,
    root_final: Vec<bool>,
    /// `(lb, u, i, version)` min-heap with lazy deletion.
    qg: BinaryHeap<Reverse<(Score, u32, u32, u32)>>,
    /// Flat list ids: the root list is 0, slot list `(u, pi)` is
    /// `list_base[u] + pi`; `list_base[n_T]` is the list count.
    list_base: Vec<u32>,
    /// Flat ids of the lists touched since the last
    /// [`Self::clear_dirty`], in touch order, repeats included.
    dirty: Vec<u32>,
    /// Reused buffer of one block's `(parent index, key)` inserts.
    inserts: Vec<(u32, Score)>,
    /// Edges inserted into lists so far (reported as loaded `m'_R`).
    edges_inserted: u64,
}

impl<'s> PriorityLoader<'s> {
    /// Initialization (Algorithm 2 Lines 1–3): loads the `D` tables for
    /// every query edge and the `E` tables for `//` edges into leaves;
    /// activates leaves and `E`-completed nodes; seeds `Q_g`.
    pub fn new(
        query: &ResolvedQuery,
        source: &'s dyn ClosureSource,
        bound: BoundMode,
        lists: &mut SlotLists,
    ) -> Self {
        Self::with_source(
            query,
            SourceRef::Borrowed(source),
            bound,
            lists,
            ShardSpec::full(),
        )
    }

    /// As [`Self::new`] over a shared (`Arc`) source: the loader owns a
    /// reference-counted handle instead of a borrow, so the resulting
    /// `PriorityLoader<'static>` can live inside long-running sessions
    /// and move across worker threads.
    pub fn new_shared(
        query: &ResolvedQuery,
        source: SharedSource,
        bound: BoundMode,
        lists: &mut SlotLists,
    ) -> PriorityLoader<'static> {
        PriorityLoader::with_source(
            query,
            SourceRef::Shared(source),
            bound,
            lists,
            ShardSpec::full(),
        )
    }

    fn with_source(
        query: &ResolvedQuery,
        source: SourceRef<'s>,
        bound: BoundMode,
        lists: &mut SlotLists,
        shard: ShardSpec,
    ) -> Self {
        let setup = LazySetup::discover(query, source.get(), shard);
        Self::from_setup(query, source, bound, lists, &setup)
    }

    /// Builds a loader from an already-discovered [`LazySetup`] (a
    /// `QueryPlan`'s cached §4.1 initialization): candidate sets and
    /// `E`-seeds are shared, `eᵥ` bounds copied, and the seeds replayed
    /// by a walk over their CSRs — so construction performs **no**
    /// storage reads. Per-loader state (cursors, `Q_g`, loaded edges)
    /// starts fresh, exactly as a cold build would.
    pub(crate) fn from_setup(
        query: &ResolvedQuery,
        source: SourceRef<'s>,
        bound: BoundMode,
        lists: &mut SlotLists,
        setup: &LazySetup,
    ) -> Self {
        let tree = query.tree();
        let n_t = tree.len();
        let cands = Arc::clone(&setup.cands);
        *lists = SlotLists::empty_shaped(
            tree,
            &(0..n_t)
                .map(|u| cands.len(QNodeId(u as u32)))
                .collect::<Vec<_>>(),
        );
        let children_count: Vec<u32> = tree
            .node_ids()
            .map(|u| tree.children(u).len() as u32)
            .collect();
        let remaining_edges: Vec<Score> =
            tree.node_ids().map(|u| tree.remaining_edges(u)).collect();
        let sizes: Vec<usize> = (0..n_t).map(|u| cands.len(QNodeId(u as u32))).collect();
        let mut list_base = vec![0, 1];
        for u in tree.node_ids().skip(1) {
            let p = tree.parent(u).expect("non-root");
            list_base.push(list_base[u.index()] + sizes[p.index()] as u32);
        }
        let mut loader = PriorityLoader {
            source,
            query: query.clone(),
            cands,
            bound,
            children_count,
            remaining_edges,
            bs_bar: sizes.iter().map(|&n| vec![Score::MAX; n]).collect(),
            nonempty: sizes.iter().map(|&n| vec![0; n]).collect(),
            active: sizes.iter().map(|&n| vec![false; n]).collect(),
            ev: setup.evs.clone(),
            version: sizes.iter().map(|&n| vec![0; n]).collect(),
            cursor: sizes
                .iter()
                .map(|&n| (0..n).map(|_| CursorState::Unopened).collect())
                .collect(),
            seeds: setup.seeds.clone(),
            src_labels: Arc::clone(&setup.src_labels),
            root_final: vec![false; sizes[0]],
            qg: BinaryHeap::new(),
            list_base,
            dirty: Vec::new(),
            inserts: Vec::new(),
            edges_inserted: 0,
        };
        // Leaves are trivially active with b̄s = 0.
        for u in tree.node_ids() {
            if !tree.is_leaf(u) {
                continue;
            }
            for i in 0..loader.cands.len(u) as u32 {
                loader.active[u.index()][i as usize] = true;
                loader.bs_bar[u.index()][i as usize] = 0;
                loader.push_qg(u.0, i);
            }
        }
        // Replay the E-seeds (Line 1: "for each loaded Eᵅᵦ there must
        // be an edge (u, u') in T ... and u' is a leaf"). They are in
        // this setup's index space already: a root-shard restriction
        // dropped out-of-shard parents when it was made.
        for u in tree.node_ids().skip(1) {
            let seeds = Arc::clone(&loader.seeds[u.index()]);
            for ci in 0..seeds.len() as u32 {
                for &(pi, dist) in seeds.of(ci) {
                    loader.note_insert(lists, u.0, pi, dist as Score, ci);
                }
            }
        }
        loader
    }

    /// The current best lower bound in `Q_g` (`None` once everything
    /// relevant has been loaded).
    pub fn qg_top(&mut self) -> Option<Score> {
        self.clean_qg();
        self.qg.peek().map(|&Reverse((lb, _, _, _))| lb)
    }

    /// Pops and expands the top of `Q_g`. Returns `false` when `Q_g` is
    /// exhausted. Root pops finalize the root into the root list.
    pub fn expand_top(&mut self, lists: &mut SlotLists) -> bool {
        self.clean_qg();
        let Some(Reverse((_, u, i, _))) = self.qg.pop() else {
            return false;
        };
        self.version[u as usize][i as usize] += 1;
        if u == 0 {
            self.finalize_root(lists, i);
            return true;
        }
        self.expand(lists, u, i);
        true
    }

    /// Runs Algorithm 2 to completion: expands until the first root-label
    /// node tops `Q_g`, returning the top-1 match score.
    pub fn compute_first(&mut self, lists: &mut SlotLists) -> Option<Score> {
        loop {
            self.clean_qg();
            let &Reverse((_, u, i, _)) = self.qg.peek()?;
            self.qg.pop();
            self.version[u as usize][i as usize] += 1;
            if u == 0 {
                let score = self.bs_bar[0][i as usize];
                self.finalize_root(lists, i);
                return Some(score);
            }
            self.expand(lists, u, i);
        }
    }

    /// Candidate sets (shared with the enumeration layer).
    pub fn candidates(&self) -> &CandidateSets {
        self.cands.as_ref()
    }

    /// Flat ids of the slot lists touched since the last
    /// [`Self::clear_dirty`]: 0 is the root list. Ids may repeat —
    /// callers dedup.
    pub fn dirty(&self) -> &[u32] {
        &self.dirty
    }

    /// Resets the dirty-list log, keeping its buffer (the log/clear
    /// cycle runs once per expansion batch and must not allocate).
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Hands the dirty-list log to the caller in `buf` and takes `buf`,
    /// cleared, as the next log: the caller reads the ids while
    /// mutating the loader, and neither buffer is reallocated.
    pub(crate) fn swap_dirty(&mut self, buf: &mut Vec<u32>) {
        buf.clear();
        std::mem::swap(&mut self.dirty, buf);
    }

    /// The flat id of slot list `(u, pi)` — 0 for the root list
    /// (`u == 0`) — as [`Self::dirty`] reports it.
    #[inline]
    pub(crate) fn list_id(&self, u: u32, pi: u32) -> u32 {
        if u == 0 {
            0
        } else {
            self.list_base[u as usize] + pi
        }
    }

    /// How many flat list ids there are.
    pub(crate) fn num_lists(&self) -> usize {
        *self.list_base.last().expect("the root list") as usize
    }

    /// Total edges inserted into lists (the measured `m'_R`).
    pub fn edges_inserted(&self) -> u64 {
        self.edges_inserted
    }

    fn lb(&self, u: u32, i: u32) -> Score {
        let base = self.bs_bar[u as usize][i as usize];
        if u == 0 || base == Score::MAX {
            return base;
        }
        let ev = self.ev[u as usize][i as usize];
        if ev == INF_DIST {
            return Score::MAX;
        }
        let mut lb = base + ev as Score;
        if self.bound == BoundMode::Tight {
            lb += self.remaining_edges[u as usize];
        }
        lb
    }

    fn push_qg(&mut self, u: u32, i: u32) {
        let lb = self.lb(u, i);
        if lb == Score::MAX {
            return; // exhausted or inactive: never re-enters Q_g
        }
        let ver = self.version[u as usize][i as usize];
        self.qg.push(Reverse((lb, u, i, ver)));
    }

    fn clean_qg(&mut self) {
        while let Some(&Reverse((_, u, i, ver))) = self.qg.peek() {
            if self.version[u as usize][i as usize] != ver {
                self.qg.pop();
            } else {
                break;
            }
        }
    }

    fn finalize_root(&mut self, lists: &mut SlotLists, i: u32) {
        if !self.root_final[i as usize] {
            self.root_final[i as usize] = true;
            lists.root.insert(self.bs_bar[0][i as usize], i);
            self.dirty.push(0);
        }
    }

    /// Inserts one loaded edge into the slot list of `(parent(u), pi)` and
    /// propagates activation / b̄s decrease upward (Lines 12–13).
    fn note_insert(&mut self, lists: &mut SlotLists, u: u32, pi: u32, key: Score, ci: u32) {
        let p = self
            .query
            .tree()
            .parent(QNodeId(u))
            .expect("note_insert is for non-root nodes")
            .0;
        let list = lists.slot(u, pi);
        let old_first = list.first();
        list.insert(key, ci);
        self.edges_inserted += 1;
        self.dirty.push(self.list_id(u, pi));
        match old_first {
            None => {
                self.nonempty[p as usize][pi as usize] += 1;
                if self.nonempty[p as usize][pi as usize] == self.children_count[p as usize] {
                    // Activation: compute b̄s from the slot minima.
                    let tree = self.query.tree();
                    let mut total: Score = 0;
                    for &c in tree.children(QNodeId(p)) {
                        total += lists
                            .slot(c.0, pi)
                            .first()
                            .expect("slot counted as non-empty")
                            .0;
                    }
                    self.bs_bar[p as usize][pi as usize] = total;
                    self.active[p as usize][pi as usize] = true;
                    self.push_qg(p, pi);
                }
            }
            Some((old_key, _)) if key < old_key && self.active[p as usize][pi as usize] => {
                let entry = &mut self.bs_bar[p as usize][pi as usize];
                *entry -= old_key - key;
                self.version[p as usize][pi as usize] += 1;
                self.push_qg(p, pi);
            }
            _ => {}
        }
    }

    /// Lines 10–17: loads incoming blocks of candidate `i` of query node
    /// `u`, continuing while the estimated next block would still top
    /// `Q_g`.
    fn expand(&mut self, lists: &mut SlotLists, u: u32, i: u32) {
        let un = QNodeId(u);
        let tree = self.query.tree();
        let p = tree.parent(un).expect("non-root").0;
        let direct_only = tree.edge_kind(un) == EdgeKind::Child;
        let bsv = self.bs_bar[u as usize][i as usize];
        debug_assert_ne!(bsv, Score::MAX, "expanded nodes are active");
        if matches!(self.cursor[u as usize][i as usize], CursorState::Unopened) {
            let cur = self.open_cursor(un, i);
            self.cursor[u as usize][i as usize] = cur;
        }
        // The parent indices whose list an `E`-seed already filled with
        // this candidate's edge, ascending.
        let seeds = Arc::clone(&self.seeds[u as usize]);
        let seeded = seeds.of(i);
        let mut inserts = std::mem::take(&mut self.inserts);
        loop {
            let CursorState::Open(cursor) = &mut self.cursor[u as usize][i as usize] else {
                self.ev[u as usize][i as usize] = INF_DIST;
                break;
            };
            let block = cursor.next_block();
            if block.is_empty() {
                self.cursor[u as usize][i as usize] = CursorState::Exhausted;
                self.ev[u as usize][i as usize] = INF_DIST;
                break;
            }
            let done_after = cursor.remaining() == 0;
            let mut last_dist = 0;
            let mut useless_tail = false;
            inserts.clear();
            for (w, dist) in block {
                last_dist = dist;
                if direct_only && dist > 1 {
                    // Blocks are distance-ascending: nothing else can
                    // satisfy a '/' edge.
                    useless_tail = true;
                    break;
                }
                if let Some(pi) = self.cands.index_of(QNodeId(p), w) {
                    if seeded.binary_search_by_key(&pi, |&(s, _)| s).is_err() {
                        inserts.push((pi, bsv + dist as Score));
                    }
                }
            }
            for &(pi, key) in &inserts {
                self.note_insert(lists, u, pi, key, i);
            }
            if useless_tail || done_after {
                self.cursor[u as usize][i as usize] = CursorState::Exhausted;
                self.ev[u as usize][i as usize] = INF_DIST;
                break;
            }
            self.ev[u as usize][i as usize] = last_dist;
            // Line 14: keep loading while the next block estimate still
            // tops Q_g; otherwise re-enter the queue with the new bound.
            let next_lb = self.lb(u, i);
            match self.qg_top() {
                Some(top) if next_lb <= top => continue,
                _ => {
                    self.push_qg(u, i);
                    break;
                }
            }
        }
        self.inserts = inserts;
    }

    /// Opens the incoming cursor of candidate `i` of `u`. Multi-label
    /// parents (wildcards) get an eager merged cursor.
    fn open_cursor(&mut self, u: QNodeId, i: u32) -> CursorState {
        let v = self.cands.node(u, i);
        let src_labels = &self.src_labels[u.index()];
        match src_labels.len() {
            0 => CursorState::Exhausted,
            1 => CursorState::Open(self.source.get().incoming_cursor(src_labels[0], v)),
            _ => {
                // Wildcard-labeled parent: merge all labels' lists eagerly.
                let mut parts = Vec::with_capacity(src_labels.len());
                for &a in src_labels {
                    let mut cur = self.source.get().incoming_cursor(a, v);
                    let mut all = Vec::new();
                    loop {
                        let b = cur.next_block();
                        if b.is_empty() {
                            break;
                        }
                        all.extend(b);
                    }
                    parts.push(all);
                }
                CursorState::Open(Box::new(VecCursor {
                    entries: merge_sorted_blocks(parts),
                    pos: 0,
                    block: 64,
                }))
            }
        }
    }
}

/// Eager cursor over a pre-merged list (wildcard parents).
struct VecCursor {
    entries: Vec<(NodeId, Dist)>,
    pos: usize,
    block: usize,
}

impl EdgeCursor for VecCursor {
    fn next_block(&mut self) -> Vec<(NodeId, Dist)> {
        if self.pos >= self.entries.len() {
            return Vec::new();
        }
        let take = (self.entries.len() - self.pos).min(self.block);
        let out = self.entries[self.pos..self.pos + take].to_vec();
        self.pos += take;
        out
    }

    fn remaining(&self) -> usize {
        self.entries.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::paper_graph;
    use ktpm_graph::LabeledGraph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    fn first_score(g: &LabeledGraph, query: &str, bound: BoundMode) -> (Option<Score>, u64) {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(g), 2);
        let mut lists = SlotLists::default();
        let mut loader = PriorityLoader::new(&q, &store, bound, &mut lists);
        let s = loader.compute_first(&mut lists);
        (s, loader.edges_inserted())
    }

    #[test]
    fn top1_score_matches_full_computation() {
        let g = paper_graph();
        let (s, _) = first_score(&g, "a -> b\na -> c\nc -> d\nc -> e", BoundMode::Tight);
        assert_eq!(s, Some(4));
    }

    #[test]
    fn loose_bound_same_score_more_edges() {
        let g = paper_graph();
        let (st, tight_edges) = first_score(&g, "a -> b\na -> c\nc -> d\nc -> e", BoundMode::Tight);
        let (sl, loose_edges) = first_score(&g, "a -> b\na -> c\nc -> d\nc -> e", BoundMode::Loose);
        assert_eq!(st, sl);
        assert!(
            tight_edges <= loose_edges,
            "tight trigger must not load more edges ({tight_edges} vs {loose_edges})"
        );
    }

    #[test]
    fn no_match_returns_none() {
        let g = paper_graph();
        let (s, _) = first_score(&g, "s -> a", BoundMode::Tight);
        assert_eq!(s, None);
        let (s, _) = first_score(&g, "a -> nolabel", BoundMode::Tight);
        assert_eq!(s, None);
    }

    #[test]
    fn single_node_query_top1_is_zero() {
        let g = paper_graph();
        let (s, edges) = first_score(&g, "a", BoundMode::Tight);
        assert_eq!(s, Some(0));
        assert_eq!(edges, 0);
    }

    #[test]
    fn child_edge_query() {
        let g = paper_graph();
        // a => b: only direct a->b edges (v1->v3 at 1). Top-1 total must
        // then be 1.
        let (s, _) = first_score(&g, "a => b", BoundMode::Tight);
        assert_eq!(s, Some(1));
    }

    #[test]
    fn example_4_2_loads_few_edges() {
        // Build the Figure 4 graph: T = a -> b, a -> c, c -> d over a GR
        // where v1(a) has child v2(b) at 1, children v3..v6 (c) and each
        // c-node reaches v7(d). The loader must find top-1 = 3 without
        // loading incoming edges of v3, v4, v6.
        let mut b = ktpm_graph::GraphBuilder::new();
        let v1 = b.add_node("a");
        let v2 = b.add_node("b");
        let v3 = b.add_node("c");
        let v4 = b.add_node("c");
        let v5 = b.add_node("c");
        let v6 = b.add_node("c");
        let v7 = b.add_node("d");
        b.add_edge(v1, v2, 1);
        b.add_edge(v1, v3, 1);
        b.add_edge(v1, v4, 4);
        b.add_edge(v1, v5, 1);
        b.add_edge(v1, v6, 2);
        b.add_edge(v3, v7, 3);
        b.add_edge(v4, v7, 1);
        b.add_edge(v5, v7, 1);
        b.add_edge(v6, v7, 1);
        let g = b.build().unwrap();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(&g), 1);
        let mut lists = SlotLists::default();
        let mut loader = PriorityLoader::new(&q, &store, BoundMode::Tight, &mut lists);
        let s = loader.compute_first(&mut lists);
        // Top-1: v1 with b=v2 (1) + best c-child: v5 with 1 + bs(v5)=1 -> 3.
        assert_eq!(s, Some(3));
        // E-seeding covers all c->d edges; expansion should only have
        // loaded incoming edges of v5 (the popped c-node), i.e. far fewer
        // than the full runtime graph (9 closure edges among labels).
        let full = ktpm_runtime::RuntimeGraph::load(&q, &store).num_edges() as u64;
        assert!(
            loader.edges_inserted() < full,
            "lazy loading must not materialize the full run-time graph ({} vs {full})",
            loader.edges_inserted()
        );
    }
}
