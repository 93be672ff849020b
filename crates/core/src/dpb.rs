//! DP-B: per-node ranked-match streams over the run-time graph.
//!
//! Every run-time node `(u, i)` owns a lazily-advanced stream of the
//! matches of `T_u` rooted at it:
//!
//! * per child slot, a *slot stream* lazily merges `(edge to child w,
//!   rank j of w's own stream)` pairs — the classic 2-D frontier with
//!   successors `(r, j) -> (r, j+1)` and `(r, 1) -> (r+1, 1)`;
//! * slot streams combine into node matches through a combination
//!   frontier (one coordinate per slot), deduplicated with a hash set —
//!   this is where DP-B pays `O(d²)` per round.
//!
//! The root level is one more slot stream over the root candidates. All
//! streams read the same `L`/`H` lists (`ktpm_core::SlotLists`) keyed by
//! `bs(child) + dist`, and pull child ranks on demand — the paper's
//! "pull-down fashion ... to avoid visiting every node in G".
//!
//! ## Why the root stream is the canonical stream
//!
//! Every stream entry carries its subtree's **row**: candidate indices
//! in query-BFS order, `u32::MAX` outside the subtree (a node's row is
//! its own index plus its chosen slot items' rows), and every frontier
//! pops in `(score, row)` order. A subtree's nodes follow its root in
//! BFS order, so two rows of one stream first differ inside the
//! subtree, and every successor is greater than the entry it came from:
//!
//! * `(r, j+1)` follows `(r, j)` in child `w`'s own stream;
//! * `(r+1, 1)` has a greater key, or an equal key and a greater
//!   candidate index at the subtree root — lists rank equal keys by
//!   candidate index ([`crate::LazySortedList::new`]);
//! * a one-slot combination bump replaces one slot item by a later one
//!   and leaves every other position of the row alone.
//!
//! So each frontier's minimum is its stream's next entry in
//! `(score, row)` order, the root stream pops the matches in the
//! canonical `(score, assignment)` order (candidates ascend by data
//! node id), and its row *is* the emitted assignment.

use crate::bs::BsData;
use crate::lawler::SlotLists;
use crate::matches::ScoredMatch;
use crate::plan::QueryPlan;
use crate::runtime::RuntimeGraph;
use ktpm_graph::Score;
use ktpm_query::TreeQuery;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// A subtree match's candidate indices over the whole query, in
/// query-BFS order, `u32::MAX` outside the subtree. Shared: a slot
/// stream entry reuses its child's node row.
type Row = Arc<[u32]>;

#[derive(Debug, Default)]
struct SlotStream {
    /// Produced entries: total = dist + the child's score, and the
    /// child's row.
    produced: Vec<(Score, Row)>,
    /// `(total, row, edge rank r, child rank j)`.
    frontier: BinaryHeap<Reverse<(Score, Row, u32, u32)>>,
    seeded: bool,
}

#[derive(Debug, Default)]
struct NodeStream {
    produced: Vec<(Score, Row)>,
    /// `(score, row, combination)`: one slot-stream rank per slot.
    frontier: BinaryHeap<Reverse<(Score, Row, Vec<u32>)>>,
    seen: HashSet<Vec<u32>>,
    seeded: bool,
}

/// Writes `sub`'s subtree positions over `row`.
fn overlay(row: &mut [u32], sub: &[u32]) {
    for (dst, &src) in row.iter_mut().zip(sub) {
        if src != u32::MAX {
            *dst = src;
        }
    }
}

/// The DP-B enumeration engine over slot lists. DP-P drives it over a
/// partially-loaded graph.
pub(crate) struct DpEngine {
    /// Child query nodes per query node.
    children: Vec<Vec<u32>>,
    n_t: usize,
    /// Node streams per `(query node, candidate index)`.
    nodes: HashMap<(u32, u32), NodeStream>,
    /// Slot streams per `(child query node, parent candidate index)`.
    slots: HashMap<(u32, u32), SlotStream>,
    /// The root-level stream (child query node = root, one pseudo-slot).
    root: SlotStream,
}

impl DpEngine {
    pub fn new(tree: &TreeQuery) -> Self {
        DpEngine {
            children: tree
                .node_ids()
                .map(|u| tree.children(u).iter().map(|c| c.0).collect())
                .collect(),
            n_t: tree.len(),
            nodes: HashMap::new(),
            slots: HashMap::new(),
            root: SlotStream::default(),
        }
    }

    /// The `rank`-th match (1-based) in the canonical order: its score
    /// and its full candidate-index row.
    pub fn root_match(&mut self, lists: &mut SlotLists, rank: usize) -> Option<(Score, Row)> {
        if self.root.produced.len() < rank {
            let mut root = std::mem::take(&mut self.root);
            self.fill_slot(lists, &mut root, None, rank);
            self.root = root;
        }
        self.root.produced.get(rank - 1).cloned()
    }

    /// The rank-`j` match of `T_u` rooted at candidate `i`.
    fn node_item(
        &mut self,
        lists: &mut SlotLists,
        u: u32,
        i: u32,
        j: usize,
    ) -> Option<(Score, Row)> {
        if self.nodes.get(&(u, i)).is_none_or(|n| n.produced.len() < j) {
            let mut node = self.nodes.remove(&(u, i)).unwrap_or_default();
            self.fill_node(lists, &mut node, u, i, j);
            self.nodes.insert((u, i), node);
        }
        self.nodes[&(u, i)].produced.get(j - 1).cloned()
    }

    /// The rank-`t` entry of slot stream `(child u, parent candidate i)`.
    fn slot_item(
        &mut self,
        lists: &mut SlotLists,
        u: u32,
        i: u32,
        t: usize,
    ) -> Option<(Score, Row)> {
        if self.slots.get(&(u, i)).is_none_or(|s| s.produced.len() < t) {
            let mut slot = self.slots.remove(&(u, i)).unwrap_or_default();
            self.fill_slot(lists, &mut slot, Some((u, i)), t);
            self.slots.insert((u, i), slot);
        }
        self.slots[&(u, i)].produced.get(t - 1).cloned()
    }

    /// Advances node stream `(u, i)` until it has produced `j` matches
    /// or is exhausted. Successors bump one coordinate each (O(d)
    /// candidates, each requiring a slot stream advance — the O(d²) of
    /// DP-B).
    fn fill_node(
        &mut self,
        lists: &mut SlotLists,
        node: &mut NodeStream,
        u: u32,
        i: u32,
        j: usize,
    ) {
        let d = self.children[u as usize].len();
        if !node.seeded {
            node.seeded = true;
            let mut row = vec![u32::MAX; self.n_t];
            row[u as usize] = i;
            let mut total: Score = 0;
            for s in 0..d {
                let c = self.children[u as usize][s];
                let Some((t, sub)) = self.slot_item(lists, c, i, 1) else {
                    return;
                };
                total += t;
                overlay(&mut row, &sub);
            }
            let combo = vec![1u32; d];
            node.seen.insert(combo.clone());
            node.frontier.push(Reverse((total, row.into(), combo)));
        }
        while node.produced.len() < j {
            let Some(Reverse((score, row, combo))) = node.frontier.pop() else {
                return;
            };
            for s in 0..d {
                let c = self.children[u as usize][s];
                let mut succ = combo.clone();
                succ[s] += 1;
                if node.seen.contains(&succ) {
                    continue;
                }
                let cur = self.slot_item(lists, c, i, combo[s] as usize);
                let nxt = self.slot_item(lists, c, i, succ[s] as usize);
                if let (Some((cur, _)), Some((nxt, sub))) = (cur, nxt) {
                    let mut succ_row = row.to_vec();
                    overlay(&mut succ_row, &sub);
                    node.seen.insert(succ.clone());
                    node.frontier
                        .push(Reverse((score - cur + nxt, succ_row.into(), succ)));
                }
            }
            node.produced.push((score, row));
        }
    }

    /// Advances a slot stream until it has produced `t` entries or is
    /// exhausted. `slot_id` is `None` for the root stream (whose "edges"
    /// are the root-list entries and whose "children" are root
    /// candidates).
    fn fill_slot(
        &mut self,
        lists: &mut SlotLists,
        slot: &mut SlotStream,
        slot_id: Option<(u32, u32)>,
        t: usize,
    ) {
        if !slot.seeded {
            slot.seeded = true;
            self.push_entry(lists, slot, slot_id, 1, 1);
        }
        while slot.produced.len() < t {
            let Some(Reverse((total, row, r, j))) = slot.frontier.pop() else {
                return;
            };
            slot.produced.push((total, row));
            // Same edge, deeper child rank; then the next edge.
            self.push_entry(lists, slot, slot_id, r, j + 1);
            if j == 1 {
                self.push_entry(lists, slot, slot_id, r + 1, 1);
            }
        }
    }

    /// Pushes entry `(r, j)` onto a slot stream's frontier, if edge `r`
    /// and the child's rank `j` exist.
    fn push_entry(
        &mut self,
        lists: &mut SlotLists,
        slot: &mut SlotStream,
        slot_id: Option<(u32, u32)>,
        r: u32,
        j: u32,
    ) {
        let (child_u, edge) = match slot_id {
            Some((u, i)) => (u, lists.slot_mut(u, i).rank(r as usize)),
            None => (0, lists.root_mut().rank(r as usize)),
        };
        let Some((key, w)) = edge else {
            return;
        };
        // key = bs(w) + dist = score_1(w) + dist.
        let Some((s1, first)) = self.node_item(lists, child_u, w, 1) else {
            return;
        };
        let entry = if j == 1 {
            Some((s1, first))
        } else {
            self.node_item(lists, child_u, w, j as usize)
        };
        if let Some((sj, row)) = entry {
            slot.frontier.push(Reverse((key - s1 + sj, row, r, j)));
        }
    }
}

/// DP-B over a fully-loaded, shared run-time graph. Yields matches in
/// the canonical `(score, assignment)` order natively.
pub struct DpBEnumerator {
    rg: Arc<RuntimeGraph>,
    lists: SlotLists,
    engine: DpEngine,
    rank: usize,
}

impl DpBEnumerator {
    /// Builds lists (O(m_R)) and the DP structures.
    pub fn new(rg: Arc<RuntimeGraph>) -> Self {
        let bs = BsData::compute(&rg);
        let lists = SlotLists::build_full(&rg, &bs);
        Self::from_parts(rg, lists)
    }

    /// The plan-backed form (the *mtree* kGPM driver of Fig. 9): reuses
    /// the plan's shared run-time graph and `bs` pass (a warm plan
    /// repeats neither), only the per-stream slot lists are built here
    /// (they are mutated as the enumeration advances, so they cannot be
    /// shared).
    pub fn from_plan(plan: &QueryPlan) -> Self {
        let rg = Arc::clone(plan.runtime_graph());
        let lists = SlotLists::build_full(&rg, plan.bs_data());
        Self::from_parts(rg, lists)
    }

    fn from_parts(rg: Arc<RuntimeGraph>, lists: SlotLists) -> Self {
        let engine = DpEngine::new(rg.query().tree());
        DpBEnumerator {
            rg,
            lists,
            engine,
            rank: 0,
        }
    }
}

impl Iterator for DpBEnumerator {
    type Item = ScoredMatch;

    fn next(&mut self) -> Option<ScoredMatch> {
        self.rank += 1;
        let (score, row) = self.engine.root_match(&mut self.lists, self.rank)?;
        let tree = self.rg.query().tree();
        Some(ScoredMatch {
            score,
            assignment: tree
                .node_ids()
                .map(|u| self.rg.node(u, row[u.index()]))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopkEnumerator;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::LabeledGraph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    fn compare(g: &LabeledGraph, query: &str, k: usize) {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(g));
        let rg = Arc::new(RuntimeGraph::load(&q, &store));
        let lawler: Vec<ScoredMatch> = TopkEnumerator::new(Arc::clone(&rg)).take(k).collect();
        let dpb: Vec<ScoredMatch> = DpBEnumerator::new(rg).take(k).collect();
        assert_eq!(lawler, dpb, "query {query:?}");
    }

    #[test]
    fn agrees_with_lawler_on_fixtures() {
        let g = paper_graph();
        compare(&g, "a -> b\na -> c\nc -> d\nc -> e", 100);
        compare(&g, "a -> c\nc -> d", 100);
        compare(&g, "a", 100);
        compare(&g, "a => b", 100);
        let g = citation_graph();
        compare(&g, "C -> E\nC -> S", 100);
    }

    #[test]
    fn produces_valid_distinct_matches() {
        let g = paper_graph();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d\nc -> e")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        let rg = RuntimeGraph::load(&q, &store);
        let all: Vec<_> = DpBEnumerator::new(Arc::new(rg)).take(500).collect();
        let mut seen = HashSet::new();
        for m in &all {
            assert!(seen.insert(m.assignment.clone()), "duplicate match");
            // Validate score against closure distances.
            let mut total: Score = 0;
            for u in q.tree().node_ids().skip(1) {
                let p = q.tree().parent(u).unwrap();
                total += store
                    .tables()
                    .dist(m.assignment[p.index()], m.assignment[u.index()])
                    .expect("path must exist") as Score;
            }
            assert_eq!(total, m.score);
        }
        assert!(all.windows(2).all(|w| w[0].score <= w[1].score));
    }
}
