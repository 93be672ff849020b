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
//!
//! Initialization (Lines 1–3) is a pure function of the query and the
//! store, so it lives in the plan's lazy half ([`LazySetup`]) and a
//! loader reads it instead of replaying it: the `E`-seeded slot lists
//! are filled from the plan's seed rows the first time they are
//! touched ([`SlotLists`]' deferred fill), and the counts, bounds and
//! `Q_g` entries the seeds imply are derived from the rows' first
//! entries in one pass. Per-candidate state is one flat array per
//! field, indexed by [`CandidateSets::flat`].
//!
//! # Reading ahead along `Q_g`
//!
//! Expansion opens the `Lᵅᵥ` cursors one at a time, in `Q_g` order, and
//! on the remote tier each first block is a round trip. So before a
//! candidate opens its cursor, the loader offers the store its run
//! ([`ClosureSource::prefetch_incoming`]). Only when the store says the
//! open is a round trip — the block is neither cached nor local — does
//! the loader list what it expects to open next: the runs of the
//! `READ_AHEAD` (B) lowest-key `Q_g` entries that are live (current
//! version), not roots, unopened and not yet announced, and whose
//! parent has a single source label (a wildcard parent merges eagerly
//! and is skipped, as the cursor open does). The store fetches the
//! offered run's first block and theirs in one batch per file; each
//! later open among them is then a cache hit. The scan is
//! O(|Q_g| log B) and runs only on such an open, so a store that never
//! makes a round trip — memory, a local file — never pays for it.
//! Listed runs are marked announced in their cursor state and are not
//! offered again. Edges are counted when a cursor delivers them, so
//! reading ahead never grows the loaded `m'_R`.
//!
//! B was chosen by simulating the rule in the loader over the
//! benchmark's `remote-cold` queries (k = 20); a miss is an open whose
//! run was not yet announced, one round trip each:
//!
//! | B | misses before the first match | misses after | blocks read ahead, never used |
//! |---|---|---|---|
//! | 0 | 15.0 | 31.9 | 0 |
//! | 4 | 3.6 | 6.1 | 0.1 |
//! | 8 | 3.3 | 2.3 | 0.3 |
//! | **16** | **3.3** | **0.4** | **0.3** |
//! | 32 / 64 | 3.3 | 0.2 | 0.3 |
//!
//! The misses left come from candidates that enter `Q_g` only after
//! another candidate is expanded.

use crate::candidates::CandidateSets;
use crate::lawler::SlotLists;
use crate::plan::LazySetup;
use ktpm_graph::{Dist, NodeId, Score, INF_DIST};
use ktpm_query::{EdgeKind, QNodeId, ResolvedQuery};
use ktpm_storage::{EdgeCursor, SharedSource};
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

/// How many more runs a cursor open that costs a round trip announces
/// to the store: the B of the module docs' read-ahead rule, where its
/// table shows why 16.
const READ_AHEAD: usize = 16;

/// A candidate's incoming cursor, which also carries its `eᵥ` once
/// loading starts: before, `eᵥ` is the setup's `dᵅᵥ`, so a session
/// copies no bounds.
enum CursorState {
    Unopened,
    /// Not yet open, but announced to the store by an earlier open's
    /// read-ahead; `eᵥ` is still `dᵅᵥ`.
    Announced,
    /// The open cursor and the last distance it loaded.
    Open(Box<dyn EdgeCursor + Send>, Dist),
    Exhausted,
}

/// The priority loader; see module docs.
pub struct PriorityLoader {
    source: SharedSource,
    query: ResolvedQuery,
    /// The plan's lazy half, shared read-only: candidate sets, initial
    /// `eᵥ` bounds, `E`-seeds and cursor labels (cursor opens are hot,
    /// and a loader must not ask the store for the labels again).
    setup: Arc<LazySetup>,
    bound: BoundMode,
    // Per candidate, at its `CandidateSets::flat` position.
    /// `b̄s`, or `Score::MAX` while some child slot is still empty (the
    /// candidate is inactive).
    bs_bar: Vec<Score>,
    /// How many of the candidate's child slots hold an edge.
    nonempty: Vec<u32>,
    version: Vec<u32>,
    cursor: Vec<CursorState>,
    /// Per root candidate: whether it is in the root list.
    root_final: Vec<bool>,
    /// `(lb, u, i, version)` min-heap with lazy deletion.
    qg: BinaryHeap<Reverse<(Score, u32, u32, u32)>>,
    /// Flat ids of the lists touched since the last
    /// [`Self::clear_dirty`], in touch order, repeats included.
    dirty: Vec<u32>,
    /// Reused buffer of one block's `(parent index, key)` inserts.
    inserts: Vec<(u32, Score)>,
    /// Reused buffer of one pulled block's `(source, dist)` entries.
    block: Vec<(NodeId, Dist)>,
    /// Edges inserted into lists so far (reported as loaded `m'_R`).
    edges_inserted: u64,
}

impl PriorityLoader {
    /// Initialization (Algorithm 2 Lines 1–3): loads the `D` tables for
    /// every query edge and the `E` tables for `//` edges into leaves;
    /// activates leaves and `E`-completed nodes; seeds `Q_g`. The
    /// loader owns its shared store handle, so it can live inside a
    /// long-running session and move across worker threads.
    pub fn new(
        query: &ResolvedQuery,
        source: SharedSource,
        bound: BoundMode,
        lists: &mut SlotLists,
    ) -> Self {
        let setup = Arc::new(LazySetup::discover(query, source.as_ref()));
        Self::from_setup(query, source, bound, lists, &setup)
    }

    /// Builds a loader from an already-discovered [`LazySetup`] (a
    /// `QueryPlan`'s cached §4.1 initialization), reading its start
    /// state instead of replaying it — so construction performs **no**
    /// storage reads and inserts nothing. `lists` become the setup's
    /// seeded slot lists, each filled from its `E`-seed row the first
    /// time it is touched. In one pass over the seed rows' first
    /// entries, each parent of seeded leaves gets its non-empty slot
    /// count and, once every slot holds an edge, its `b̄s` (the sum of
    /// the slot minima) and its `Q_g` entry; `Q_g` is then built with
    /// one heapify. Cursors, loaded edges and `Q_g` stay per loader.
    pub(crate) fn from_setup(
        query: &ResolvedQuery,
        source: SharedSource,
        bound: BoundMode,
        lists: &mut SlotLists,
        setup: &Arc<LazySetup>,
    ) -> Self {
        let tree = query.tree();
        let cands = &setup.cands;
        let n = cands.total();
        *lists = SlotLists::seeded(tree, Arc::clone(setup));
        let mut bs_bar = vec![Score::MAX; n];
        let mut nonempty = vec![0; n];
        let mut seeds = 0;
        for u in tree.node_ids() {
            let kids = tree.children(u);
            if kids.is_empty() {
                // Leaves are trivially active with b̄s = 0.
                bs_bar[cands.span(u)].fill(0);
                continue;
            }
            // Line 1: "for each loaded Eᵅᵦ there must be an edge (u, u')
            // in T ... and u' is a leaf" — a seeded slot starts at its
            // row's first entry.
            let kid_seeds = kids
                .iter()
                .map(|c| setup.seeds[c.index()].count() as u64)
                .sum::<u64>();
            if kid_seeds == 0 {
                continue;
            }
            seeds += kid_seeds;
            for pi in 0..cands.len(u) as u32 {
                let firsts = kids
                    .iter()
                    .filter_map(|c| setup.seeds[c.index()].rows.of(pi).first());
                let (count, total) = firsts.fold((0, 0), |(n, t), &(d, _)| (n + 1, t + d as Score));
                let f = cands.flat(u, pi);
                nonempty[f] = count;
                if count == kids.len() as u32 {
                    bs_bar[f] = total;
                }
            }
        }
        let mut loader = PriorityLoader {
            source,
            query: query.clone(),
            setup: Arc::clone(setup),
            bound,
            bs_bar,
            nonempty,
            version: vec![0; n],
            cursor: (0..n).map(|_| CursorState::Unopened).collect(),
            root_final: vec![false; cands.len(QNodeId(0))],
            qg: BinaryHeap::new(),
            dirty: Vec::new(),
            inserts: Vec::new(),
            block: Vec::new(),
            edges_inserted: seeds,
        };
        // Every active candidate enters `Q_g` at version 0.
        let mut entries = Vec::with_capacity(n);
        for u in tree.node_ids() {
            for i in 0..cands.len(u) as u32 {
                let lb = loader.lb(u.0, i);
                if lb != Score::MAX {
                    entries.push(Reverse((lb, u.0, i, 0)));
                }
            }
        }
        loader.qg = BinaryHeap::from(entries);
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
        let f = self.flat(u, i);
        self.version[f] += 1;
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
            let f = self.flat(u, i);
            self.version[f] += 1;
            if u == 0 {
                let score = self.bs_bar[i as usize];
                self.finalize_root(lists, i);
                return Some(score);
            }
            self.expand(lists, u, i);
        }
    }

    /// Candidate sets (shared with the enumeration layer).
    pub(crate) fn candidates(&self) -> &CandidateSets {
        &self.setup.cands
    }

    /// Flat ids of the slot lists touched since the last
    /// [`Self::clear_dirty`], as [`SlotLists`] numbers them: 0 is the
    /// root list. Ids may repeat — callers dedup.
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

    /// Total edges inserted into lists (the measured `m'_R`).
    pub fn edges_inserted(&self) -> u64 {
        self.edges_inserted
    }

    /// The flat position of candidate `i` of query node `u`.
    #[inline]
    fn flat(&self, u: u32, i: u32) -> usize {
        self.setup.cands.flat(QNodeId(u), i)
    }

    /// `eᵥ`: the setup's `dᵅᵥ` until the cursor opens, then the last
    /// loaded distance, and ∞ once nothing is left to load.
    fn ev(&self, f: usize) -> Dist {
        match self.cursor[f] {
            CursorState::Unopened | CursorState::Announced => self.setup.evs[f],
            CursorState::Open(_, last) => last,
            CursorState::Exhausted => INF_DIST,
        }
    }

    fn lb(&self, u: u32, i: u32) -> Score {
        let f = self.flat(u, i);
        let base = self.bs_bar[f];
        if u == 0 || base == Score::MAX {
            return base;
        }
        let ev = self.ev(f);
        if ev == INF_DIST {
            return Score::MAX;
        }
        let mut lb = base + ev as Score;
        if self.bound == BoundMode::Tight {
            lb += self.query.tree().remaining_edges(QNodeId(u));
        }
        lb
    }

    fn push_qg(&mut self, u: u32, i: u32) {
        let lb = self.lb(u, i);
        if lb == Score::MAX {
            return; // exhausted or inactive: never re-enters Q_g
        }
        let ver = self.version[self.flat(u, i)];
        self.qg.push(Reverse((lb, u, i, ver)));
    }

    fn clean_qg(&mut self) {
        while let Some(&Reverse((_, u, i, ver))) = self.qg.peek() {
            if self.version[self.flat(u, i)] != ver {
                self.qg.pop();
            } else {
                break;
            }
        }
    }

    fn finalize_root(&mut self, lists: &mut SlotLists, i: u32) {
        if !self.root_final[i as usize] {
            self.root_final[i as usize] = true;
            lists.root.insert(self.bs_bar[i as usize], i);
            self.dirty.push(0);
        }
    }

    /// Inserts one loaded edge into the slot list of `(parent(u), pi)` and
    /// propagates activation / b̄s decrease upward (Lines 12–13).
    fn note_insert(&mut self, lists: &mut SlotLists, u: u32, pi: u32, key: Score, ci: u32) {
        let tree = self.query.tree();
        let p = tree
            .parent(QNodeId(u))
            .expect("note_insert is for non-root nodes");
        let pf = self.setup.cands.flat(p, pi);
        let list = lists.slot(u, pi);
        let old_first = list.first();
        list.insert(key, ci);
        self.edges_inserted += 1;
        self.dirty.push(lists.id(u, pi));
        match old_first {
            None => {
                self.nonempty[pf] += 1;
                if self.nonempty[pf] == tree.children(p).len() as u32 {
                    // Activation: compute b̄s from the slot minima.
                    let mut total: Score = 0;
                    for &c in tree.children(p) {
                        total += lists
                            .slot(c.0, pi)
                            .first()
                            .expect("slot counted as non-empty")
                            .0;
                    }
                    self.bs_bar[pf] = total;
                    self.push_qg(p.0, pi);
                }
            }
            Some((old_key, _)) if key < old_key && self.bs_bar[pf] != Score::MAX => {
                self.bs_bar[pf] -= old_key - key;
                self.version[pf] += 1;
                self.push_qg(p.0, pi);
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
        let p = tree.parent(un).expect("non-root");
        let direct_only = tree.edge_kind(un) == EdgeKind::Child;
        let f = self.flat(u, i);
        let bsv = self.bs_bar[f];
        debug_assert_ne!(bsv, Score::MAX, "expanded nodes are active");
        match self.cursor[f] {
            CursorState::Unopened => {
                self.read_ahead(un, i);
                self.cursor[f] = self.open_cursor(un, i, self.setup.evs[f]);
            }
            CursorState::Announced => {
                self.cursor[f] = self.open_cursor(un, i, self.setup.evs[f]);
            }
            CursorState::Open(..) | CursorState::Exhausted => {}
        }
        // The parent indices whose list an `E`-seed already filled with
        // this candidate's edge, ascending.
        let setup = Arc::clone(&self.setup);
        let seeded = setup.seeds[u as usize].parents.of(i);
        let mut inserts = std::mem::take(&mut self.inserts);
        let mut block = std::mem::take(&mut self.block);
        while let CursorState::Open(cursor, _) = &mut self.cursor[f] {
            block.clear();
            if cursor.fill_block(&mut block) == 0 {
                self.cursor[f] = CursorState::Exhausted;
                break;
            }
            let done_after = cursor.remaining() == 0;
            let mut last_dist = 0;
            let mut useless_tail = false;
            inserts.clear();
            for &(w, dist) in &block {
                last_dist = dist;
                if direct_only && dist > 1 {
                    // Blocks are distance-ascending: nothing else can
                    // satisfy a '/' edge.
                    useless_tail = true;
                    break;
                }
                if let Some(pi) = setup.cands.index_of(p, w) {
                    if seeded.binary_search(&pi).is_err() {
                        inserts.push((pi, bsv + dist as Score));
                    }
                }
            }
            for &(pi, key) in &inserts {
                self.note_insert(lists, u, pi, key, i);
            }
            if useless_tail || done_after {
                self.cursor[f] = CursorState::Exhausted;
                break;
            }
            if let CursorState::Open(_, last) = &mut self.cursor[f] {
                *last = last_dist;
            }
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
        self.block = block;
    }

    /// The read-ahead rule (module docs), before candidate `i` of `u`
    /// opens its cursor: offers the store its run, and, if the store
    /// says the open is a round trip, the runs of the [`READ_AHEAD`]
    /// lowest-key live `Q_g` entries that are not roots, whose cursors
    /// are unopened and unannounced, and whose parents have one source
    /// label. Every run offered is marked announced, so none is offered
    /// twice. A wildcard parent's cursor merges eagerly and is skipped.
    fn read_ahead(&mut self, u: QNodeId, i: u32) {
        let setup = &*self.setup;
        let &[a] = &setup.src_labels[u.index()][..] else {
            return;
        };
        let cursor = &mut self.cursor;
        cursor[setup.cands.flat(u, i)] = CursorState::Announced;
        let (qg, version) = (&self.qg, &self.version);
        let run = (a, setup.cands.node(u, i));
        self.source.prefetch_incoming(run, &mut |runs| {
            // A max-heap of the smallest keys seen: O(|Q_g| log B).
            let mut best = BinaryHeap::with_capacity(READ_AHEAD);
            for &Reverse((lb, u, i, ver)) in qg.iter() {
                let f = setup.cands.flat(QNodeId(u), i);
                if u == 0
                    || version[f] != ver
                    || !matches!(cursor[f], CursorState::Unopened)
                    || setup.src_labels[u as usize].len() != 1
                {
                    continue;
                }
                let key = (lb, u, i);
                if best.len() == READ_AHEAD {
                    if best.peek().is_some_and(|&worst| key >= worst) {
                        continue;
                    }
                    best.pop();
                }
                best.push(key);
            }
            for (_, u, i) in best.into_sorted_vec() {
                let u = QNodeId(u);
                cursor[setup.cands.flat(u, i)] = CursorState::Announced;
                runs.push((setup.src_labels[u.index()][0], setup.cands.node(u, i)));
            }
        });
    }

    /// Opens the incoming cursor of candidate `i` of `u`. Multi-label
    /// parents (wildcards) get an eager merged cursor.
    fn open_cursor(&self, u: QNodeId, i: u32, ev: Dist) -> CursorState {
        let v = self.setup.cands.node(u, i);
        let src_labels = &self.setup.src_labels[u.index()];
        match src_labels.len() {
            0 => CursorState::Exhausted,
            1 => CursorState::Open(self.source.incoming_cursor(src_labels[0], v), ev),
            _ => {
                // Wildcard-labeled parent: read every label's run into
                // one list and sort it once (wildcards are rare; §5
                // notes they make the run-time graph large regardless).
                let mut entries = Vec::new();
                for &a in src_labels {
                    let mut cur = self.source.incoming_cursor(a, v);
                    while cur.fill_block(&mut entries) > 0 {}
                }
                entries.sort_unstable_by_key(|&(s, d)| (d, s));
                CursorState::Open(
                    Box::new(VecCursor {
                        entries,
                        pos: 0,
                        block: 64,
                    }),
                    ev,
                )
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
    fn fill_block(&mut self, out: &mut Vec<(NodeId, Dist)>) -> usize {
        let take = (self.entries.len() - self.pos).min(self.block);
        out.extend_from_slice(&self.entries[self.pos..self.pos + take]);
        self.pos += take;
        take
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
    use ktpm_graph::LabelId;
    use ktpm_graph::LabeledGraph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::{ClosureSource, IncomingRun, IoSnapshot, MemStore};
    use std::sync::Mutex;

    fn first_score(g: &LabeledGraph, query: &str, bound: BoundMode) -> (Option<Score>, u64) {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(g), 2).into_shared();
        let mut lists = SlotLists::default();
        let mut loader = PriorityLoader::new(&q, store, bound, &mut lists);
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
        let store = MemStore::with_block_edges(ClosureTables::compute(&g), 1).into_shared();
        let mut lists = SlotLists::default();
        let mut loader = PriorityLoader::new(&q, Arc::clone(&store), BoundMode::Tight, &mut lists);
        let s = loader.compute_first(&mut lists);
        // Top-1: v1 with b=v2 (1) + best c-child: v5 with 1 + bs(v5)=1 -> 3.
        assert_eq!(s, Some(3));
        // E-seeding covers all c->d edges; expansion should only have
        // loaded incoming edges of v5 (the popped c-node), i.e. far fewer
        // than the full runtime graph (9 closure edges among labels).
        let full = crate::runtime::RuntimeGraph::load(&q, store.as_ref()).num_edges() as u64;
        assert!(
            loader.edges_inserted() < full,
            "lazy loading must not materialize the full run-time graph ({} vs {full})",
            loader.edges_inserted()
        );
    }

    /// `MemStore`'s answers from a store on which every cursor open the
    /// loader offers costs a round trip: each offer asks for the
    /// read-ahead, and the store records the list, offered run first.
    struct Ahead {
        inner: MemStore,
        lists: Mutex<Vec<Vec<IncomingRun>>>,
    }

    impl Ahead {
        fn new(inner: MemStore) -> Self {
            Ahead {
                inner,
                lists: Mutex::new(Vec::new()),
            }
        }

        fn lists(&self) -> Vec<Vec<IncomingRun>> {
            std::mem::take(&mut self.lists.lock().unwrap())
        }
    }

    impl ClosureSource for Ahead {
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn node_label(&self, v: NodeId) -> LabelId {
            self.inner.node_label(v)
        }
        fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
            self.inner.pair_keys()
        }
        fn has_pair(&self, a: LabelId, b: LabelId) -> bool {
            self.inner.has_pair(a, b)
        }
        fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
            self.inner.load_d(a, b)
        }
        fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
            self.inner.load_e(a, b)
        }
        fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
            self.inner.load_pair(a, b)
        }
        fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
            self.inner.incoming_cursor(a, v)
        }
        fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
            self.inner.lookup_dist(u, v)
        }
        fn io(&self) -> IoSnapshot {
            self.inner.io()
        }
        fn reset_io(&self) {
            self.inner.reset_io()
        }
        fn prefetch_incoming(&self, run: IncomingRun, more: &mut dyn FnMut(&mut Vec<IncomingRun>)) {
            let mut runs = vec![run];
            more(&mut runs);
            self.lists.lock().unwrap().push(runs);
        }
    }

    /// A 300-node workload graph over five labels.
    fn workload_graph() -> LabeledGraph {
        ktpm_workload::generate(&ktpm_workload::GraphSpec {
            nodes: 300,
            labels: 5,
            label_skew: 0.3,
            avg_out_degree: 3.0,
            community: 40,
            cross_fraction: 0.1,
            weight_range: (1, 3),
            seed: 0x5EED,
        })
    }

    #[test]
    fn wildcard_parents_stream_like_the_oracle() {
        // A wildcard parent's cursor reads every source label's run into
        // one list and sorts it once; Topk-EN must still stream exactly
        // the brute-force oracle's matches, in its order.
        use crate::{runtime::RuntimeGraph, TopkEnEnumerator};
        let cases = [
            (paper_graph(), "*#1 -> d"),
            // '/' stops at the first entry past distance 1, so the
            // merged run must be in distance order across labels.
            (paper_graph(), "*#1 => d"),
            (paper_graph(), "*#1 -> d\n*#1 -> e"),
            (paper_graph(), "a -> *#1\n*#1 -> d\n*#1 -> s"),
            (workload_graph(), "*#1 -> L3"),
            (workload_graph(), "L0 -> *#1\n*#1 -> L2"),
        ];
        for (g, text) in cases {
            let q = TreeQuery::parse(text).unwrap().resolve(g.interner());
            let store = MemStore::with_block_edges(ClosureTables::compute(&g), 2).into_shared();
            let mut lists = SlotLists::default();
            let loader = PriorityLoader::new(&q, Arc::clone(&store), BoundMode::Tight, &mut lists);
            let widest = loader.setup.src_labels.iter().map(Vec::len).max();
            assert!(widest >= Some(2), "{text}: no wildcard parent");
            let want = crate::brute::all_matches(&RuntimeGraph::load(&q, store.as_ref()));
            assert!(!want.is_empty(), "{text}");
            let got: Vec<_> = TopkEnEnumerator::new(&q, store).collect();
            assert_eq!(got, want, "{text}");
        }
    }

    #[test]
    fn read_ahead_offers_each_run_once_and_changes_no_answer() {
        // Over a store where every offered open is a round trip, a
        // session streams memory's matches and loads the same edges;
        // each open offers a run no earlier list held, with at most
        // READ_AHEAD runs announced behind it, and no run is listed
        // twice. The announced runs then open without an offer.
        use crate::TopkEnEnumerator;
        let g = workload_graph();
        let tables = ClosureTables::compute(&g);
        let mut announced = 0;
        for text in [
            "L0 -> L1\nL0 -> L2\nL1 -> L3\nL2 -> L4",
            "L1 -> L0\nL1 -> L2\nL2 -> L3",
            "L2 -> L3\nL3 -> L4\nL3 -> L0\nL4 -> L1",
        ] {
            let q = TreeQuery::parse(text).unwrap().resolve(g.interner());
            let mem = Arc::new(MemStore::with_block_edges(tables.clone(), 2));
            let ahead = Arc::new(Ahead::new(MemStore::with_block_edges(tables.clone(), 2)));
            let want: Vec<_> = TopkEnEnumerator::new(&q, mem.clone()).take(300).collect();
            let got: Vec<_> = TopkEnEnumerator::new(&q, ahead.clone()).take(300).collect();
            assert!(!want.is_empty(), "{text}");
            assert_eq!(got, want, "{text}");
            assert_eq!(ahead.io().edges_read, mem.io().edges_read, "{text}");
            let lists = ahead.lists();
            let mut seen = std::collections::HashSet::new();
            for list in &lists {
                assert!(list.len() <= 1 + READ_AHEAD, "{text}: {} runs", list.len());
                for &run in list {
                    assert!(seen.insert(run), "{text}: {run:?} listed twice");
                }
                announced += list.len() - 1;
            }
        }
        assert!(announced > 0, "no open read ahead");
    }

    #[test]
    fn read_ahead_announces_the_lowest_live_unopened_keys() {
        // The runs behind an offered open are exactly the READ_AHEAD
        // smallest `Q_g` keys among live, non-root entries whose cursor
        // is unopened and unannounced, lowest first; each is then
        // marked announced. Checked from the start state and after
        // expansions.
        let g = workload_graph();
        let q = TreeQuery::parse("L0 -> L1\nL0 -> L2\nL1 -> L3\nL2 -> L4")
            .unwrap()
            .resolve(g.interner());
        let store = Arc::new(Ahead::new(MemStore::with_block_edges(
            ClosureTables::compute(&g),
            2,
        )));
        let mut lists = SlotLists::default();
        let mut loader = PriorityLoader::new(&q, store.clone(), BoundMode::Tight, &mut lists);
        let mut full = 0;
        for _ in 0..4 {
            let eligible = |l: &PriorityLoader| {
                let live = |u: u32, i: u32, ver: u32| {
                    let f = l.flat(u, i);
                    u != 0
                        && l.version[f] == ver
                        && matches!(l.cursor[f], CursorState::Unopened)
                        && l.setup.src_labels[u as usize].len() == 1
                };
                let mut keys: Vec<(Score, u32, u32)> =
                    l.qg.iter()
                        .filter(|&&Reverse((_, u, i, ver))| live(u, i, ver))
                        .map(|&Reverse((lb, u, i, _))| (lb, u, i))
                        .collect();
                keys.sort_unstable();
                keys
            };
            store.lists();
            let keys = eligible(&loader);
            let Some(&(_, u, i)) = keys.first() else {
                break;
            };
            let run_of = |&(_, u, i): &(Score, u32, u32)| {
                let u = QNodeId(u);
                (
                    loader.setup.src_labels[u.index()][0],
                    loader.setup.cands.node(u, i),
                )
            };
            let want: Vec<_> = keys.iter().take(1 + READ_AHEAD).map(run_of).collect();
            full += usize::from(want.len() == 1 + READ_AHEAD);
            loader.read_ahead(QNodeId(u), i);
            assert_eq!(store.lists(), vec![want]);
            for key in keys.iter().take(1 + READ_AHEAD) {
                let f = loader.flat(key.1, key.2);
                assert!(matches!(loader.cursor[f], CursorState::Announced));
            }
            for _ in 0..3 {
                loader.expand_top(&mut lists);
            }
        }
        assert!(
            full > 0,
            "no list was full: the check compared short lists only"
        );
    }
}
