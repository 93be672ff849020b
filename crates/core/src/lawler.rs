//! Algorithm 1 — the optimal Lawler-based enumeration (`Topk`).
//!
//! The shared machinery ([`LawlerCore`]) implements subspace division
//! (Theorems 3.1/3.2), O(1)-sized candidate generation, and O(n_T) match
//! materialization. [`TopkEnumerator`] drives it over a fully-loaded
//! run-time graph with the global queue `Q` plus the per-round side
//! queues `Q_l` of §3.3 ("Computing Top-k Matches from Subspaces").
//! Algorithm 3 (`Topk-EN`, `crate::enhanced`) reuses [`LawlerCore`] and
//! adds lazy loading with delayed insertion.

use crate::bs::BsData;
use crate::lazylist::LazySortedList;
use crate::matches::{CandidateSpec, HeapEntry, MatchArena, ScoredMatch, NO_PARENT};
use crate::plan::QueryPlan;
use ktpm_graph::Score;
use ktpm_query::{QNodeId, TreeQuery};
use ktpm_runtime::{GraphRef, RuntimeGraph};
use ktpm_storage::ShardSpec;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Shared, concurrency-safe slot-list templates over one run-time
/// graph.
///
/// Each `(child query node, parent candidate)` list is materialized at
/// most once (`OnceLock`-backed), no matter how many enumerators —
/// shards of one query, or whole sessions racing on a hot
/// [`QueryPlan`] — touch it first; losers of the race block briefly
/// and reuse the winner's list. Enumerators *clone* the built template
/// into their private [`SlotLists`], so per-enumerator rank state
/// (materialized prefixes) stays unshared while the O(group)
/// construction cost is paid once per plan.
#[derive(Debug)]
pub struct SlotTemplates {
    rg: Arc<RuntimeGraph>,
    bs: Arc<BsData>,
    /// `cells[u][parent_idx]` for `u >= 1`; `cells[0]` empty.
    cells: Vec<Vec<OnceLock<LazySortedList>>>,
    /// The unsharded root list (sharded roots are cheap filters and
    /// are built per enumerator).
    root: OnceLock<LazySortedList>,
}

impl SlotTemplates {
    /// Empty templates shaped for `rg`; lists fill on first touch.
    pub fn new(rg: Arc<RuntimeGraph>, bs: Arc<BsData>) -> Self {
        let tree = rg.query().tree();
        let mut cells: Vec<Vec<OnceLock<LazySortedList>>> = Vec::with_capacity(tree.len());
        cells.push(Vec::new());
        for ui in 1..tree.len() {
            let p = tree.parent(QNodeId(ui as u32)).expect("non-root");
            cells.push(
                (0..rg.candidates().len(p))
                    .map(|_| OnceLock::new())
                    .collect(),
            );
        }
        SlotTemplates {
            rg,
            bs,
            cells,
            root: OnceLock::new(),
        }
    }

    /// The underlying shared run-time graph.
    pub fn runtime_graph(&self) -> &Arc<RuntimeGraph> {
        &self.rg
    }

    /// Approximate heap bytes of the materialized slot lists (cells
    /// that were never touched count nothing). Feeds the per-plan
    /// memory estimate surfaced in service `STATS`.
    pub fn approx_bytes(&self) -> usize {
        // One list entry is `(Score, u32, u32)` = 16 bytes.
        let list_bytes = |l: &LazySortedList| l.len() * 16;
        let mut total = self.root.get().map_or(0, list_bytes);
        for per_parent in &self.cells {
            for cell in per_parent {
                if let Some(l) = cell.get() {
                    total += list_bytes(l);
                }
            }
        }
        total
    }

    /// The template of child slot `u` under parent candidate `pi`,
    /// materializing it exactly once across all sharers.
    fn slot(&self, u: u32, pi: u32) -> &LazySortedList {
        self.cells[u as usize][pi as usize]
            .get_or_init(|| SlotLists::fill_slot(&self.rg, &self.bs, u, pi))
    }

    /// A fresh root list restricted to `shard` (the full-shard list is
    /// built once and cloned).
    fn root_list(&self, shard: ShardSpec) -> LazySortedList {
        if shard.is_full() {
            return self
                .root
                .get_or_init(|| Self::build_root(&self.rg, &self.bs, shard))
                .clone();
        }
        Self::build_root(&self.rg, &self.bs, shard)
    }

    fn build_root(rg: &RuntimeGraph, bs: &BsData, shard: ShardSpec) -> LazySortedList {
        let root = rg.query().tree().root();
        let items: Vec<(Score, u32)> = (0..rg.candidates().len(root) as u32)
            .filter(|&i| bs.is_valid(root, i) && shard.contains(rg.node(root, i)))
            .map(|i| (bs.bs(root, i), i))
            .collect();
        LazySortedList::new(items)
    }
}

/// Deferred list construction state for [`SlotLists::from_templates`]:
/// slot lists are copied out of the shared templates the first time
/// they are touched, so an enumerator restricted to a few roots only
/// pays for the lists its matches actually reach (and the template
/// itself is only *built* by the first toucher across all sharers).
#[derive(Debug, Clone)]
struct SlotFill {
    templates: Arc<SlotTemplates>,
    /// Per `(u, parent_idx)`: whether the local copy has been made.
    built: Vec<Vec<bool>>,
}

/// The `L`/`H` lists of every `(parent candidate, child slot)` pair plus
/// the root list (root candidates keyed by `bs`).
#[derive(Debug, Clone, Default)]
pub struct SlotLists {
    /// `lists[u][parent_idx]` for query nodes `u >= 1`; `lists[0]` empty.
    pub(crate) lists: Vec<Vec<LazySortedList>>,
    /// Root candidates keyed by `bs` (§3.3 "organized in a similar way").
    pub(crate) root: LazySortedList,
    /// When set, non-root lists fill lazily on first access.
    fill: Option<SlotFill>,
}

impl SlotLists {
    /// Builds all lists eagerly from a run-time graph and its `bs` data —
    /// the O(m_R) initialization of §3.3.
    pub fn build_full(rg: &RuntimeGraph, bs: &BsData) -> Self {
        let tree = rg.query().tree();
        let n_t = tree.len();
        let mut lists: Vec<Vec<LazySortedList>> = Vec::with_capacity(n_t);
        lists.push(Vec::new());
        for ui in 1..n_t {
            let u = QNodeId(ui as u32);
            let p = tree.parent(u).expect("non-root");
            let mut per_parent = Vec::with_capacity(rg.candidates().len(p));
            for pi in 0..rg.candidates().len(p) as u32 {
                if !bs.is_valid(p, pi) {
                    per_parent.push(LazySortedList::default());
                    continue;
                }
                let items: Vec<(Score, u32)> = rg
                    .edges(u, pi)
                    .iter()
                    .filter(|&&(j, _)| bs.is_valid(u, j))
                    .map(|&(j, d)| (bs.bs(u, j) + d as Score, j))
                    .collect();
                per_parent.push(LazySortedList::new(items));
            }
            lists.push(per_parent);
        }
        let root_items: Vec<(Score, u32)> = (0..rg.candidates().len(tree.root()) as u32)
            .filter(|&i| bs.is_valid(tree.root(), i))
            .map(|i| (bs.bs(tree.root(), i), i))
            .collect();
        SlotLists {
            lists,
            root: LazySortedList::new(root_items),
            fill: None,
        }
    }

    /// Builds the root list eagerly — restricted to root candidates whose
    /// data node lies in `shard` — and defers every non-root list to first
    /// access. Produces exactly the lists [`Self::build_full`] would for
    /// the slots it materializes, but an enumerator that only explores a
    /// fraction of the run-time graph (a root shard, or a small `k`) pays
    /// O(touched lists) instead of O(m_R) up front. The templates are
    /// shared: every list a previous sharer already touched is a clone,
    /// not a rebuild, and first touches race safely on their `OnceLock`s.
    pub fn from_templates(templates: Arc<SlotTemplates>, shard: ShardSpec) -> Self {
        let tree = templates.rg.query().tree();
        let n_t = tree.len();
        let mut lists: Vec<Vec<LazySortedList>> = Vec::with_capacity(n_t);
        lists.push(Vec::new());
        for ui in 1..n_t {
            let p = tree.parent(QNodeId(ui as u32)).expect("non-root");
            lists.push(vec![
                LazySortedList::default();
                templates.rg.candidates().len(p)
            ]);
        }
        let root = templates.root_list(shard);
        let built = lists.iter().map(|per| vec![false; per.len()]).collect();
        SlotLists {
            lists,
            root,
            fill: Some(SlotFill { templates, built }),
        }
    }

    /// Materializes the deferred list of child slot `u` under parent
    /// candidate `pi` — the same per-slot construction as
    /// [`Self::build_full`].
    fn fill_slot(rg: &RuntimeGraph, bs: &BsData, u: u32, pi: u32) -> LazySortedList {
        let un = QNodeId(u);
        let p = rg.query().tree().parent(un).expect("non-root");
        if !bs.is_valid(p, pi) {
            return LazySortedList::default();
        }
        let items: Vec<(Score, u32)> = rg
            .edges(un, pi)
            .iter()
            .filter(|&&(j, _)| bs.is_valid(un, j))
            .map(|&(j, d)| (bs.bs(un, j) + d as Score, j))
            .collect();
        LazySortedList::new(items)
    }

    /// Allocates empty lists shaped for a lazily-loaded run (Algorithm 3).
    pub fn empty_shaped(tree: &TreeQuery, parent_cand_counts: &[usize]) -> Self {
        let mut lists: Vec<Vec<LazySortedList>> = Vec::with_capacity(tree.len());
        lists.push(Vec::new());
        for ui in 1..tree.len() {
            let u = QNodeId(ui as u32);
            let p = tree.parent(u).expect("non-root");
            lists.push(vec![
                LazySortedList::default();
                parent_cand_counts[p.index()]
            ]);
        }
        SlotLists {
            lists,
            root: LazySortedList::default(),
            fill: None,
        }
    }

    /// The list of child slot `u` under parent candidate `pi`,
    /// materializing it first in deferred mode.
    #[inline]
    pub(crate) fn slot(&mut self, u: u32, pi: u32) -> &mut LazySortedList {
        if let Some(f) = &mut self.fill {
            if !f.built[u as usize][pi as usize] {
                f.built[u as usize][pi as usize] = true;
                self.lists[u as usize][pi as usize] = if Arc::strong_count(&f.templates) == 1 {
                    // Sole holder of the templates (a transient one-run
                    // plan): nobody can ever share the template cell,
                    // so build the list straight into this enumerator
                    // and skip the fill-then-clone round-trip.
                    Self::fill_slot(&f.templates.rg, &f.templates.bs, u, pi)
                } else {
                    f.templates.slot(u, pi).clone()
                };
            }
        }
        &mut self.lists[u as usize][pi as usize]
    }

    /// Mutable access to the slot list of child query node `u` under
    /// parent candidate `pi` (used by the DP baselines, which share the
    /// same `L`/`H` structures).
    #[inline]
    pub fn slot_mut(&mut self, u: u32, pi: u32) -> &mut LazySortedList {
        self.slot(u, pi)
    }

    /// Mutable access to the root list.
    #[inline]
    pub fn root_mut(&mut self) -> &mut LazySortedList {
        &mut self.root
    }
}

/// The shared Lawler machinery. Slot lists are passed in by the driver
/// (Algorithm 1 owns static lists; Algorithm 3's grow during loading).
/// Popped matches live in the arena-backed deviation encoding
/// ([`MatchArena`]): the pop → divide → emit cycle allocates nothing
/// per match, and full assignments materialize only at emission.
pub(crate) struct LawlerCore {
    /// Parent BFS index per query node (`u32::MAX` for the root).
    parents: Vec<u32>,
    n_t: usize,
    arena: MatchArena,
    /// Scratch for subtree membership during materialization.
    in_subtree: Vec<bool>,
}

/// The list a replacement at `pos` draws from: the root list for
/// `pos == 0`, otherwise the slot list under the parent candidate the
/// arena's current (scratch) row assigns.
fn list_at<'l>(
    lists: &'l mut SlotLists,
    parents: &[u32],
    arena: &MatchArena,
    pos: u32,
) -> &'l mut LazySortedList {
    if pos == 0 {
        &mut lists.root
    } else {
        let p = parents[pos as usize];
        lists.slot(pos, arena.scratch_at(p))
    }
}

impl LawlerCore {
    /// A core for `tree` whose arena reserves room for about `hint`
    /// popped matches (a capacity hint only — the arena grows freely).
    pub fn new(tree: &TreeQuery, hint: usize) -> Self {
        let parents: Vec<u32> = tree
            .node_ids()
            .map(|u| tree.parent(u).map_or(u32::MAX, |p| p.0))
            .collect();
        let n_t = tree.len();
        LawlerCore {
            parents,
            n_t,
            arena: MatchArena::new(n_t, hint),
            in_subtree: vec![false; n_t],
        }
    }

    /// The initial candidate: the best root (= top-1 match, Line 3 of
    /// Algorithm 1). `None` when the query has no match at all.
    pub fn initial_candidate(&mut self, lists: &mut SlotLists) -> Option<CandidateSpec> {
        let (score, _) = lists.root.rank(1)?;
        Some(CandidateSpec {
            score,
            parent: NO_PARENT,
            pos: 0,
            rank: 1,
        })
    }

    /// Materializes a candidate into a popped-match record (O(n_T), no
    /// allocation): the arena scratch row is loaded with the parent's
    /// assignment, the replaced position swapped, and only the replaced
    /// node's subtree re-derived via best-descendant links (list
    /// minima) — the changed positions become the record's patch.
    pub fn materialize(&mut self, lists: &mut SlotLists, spec: CandidateSpec) -> u32 {
        self.arena.begin(spec.parent);
        let (_, replacement) = list_at(lists, &self.parents, &self.arena, spec.pos)
            .rank(spec.rank as usize)
            .expect("candidate rank was verified at divide time");
        self.arena.set(spec.pos, replacement);
        // Re-derive the subtree strictly below `pos`.
        let pos = spec.pos as usize;
        self.in_subtree.fill(false);
        self.in_subtree[pos] = true;
        for w in (pos + 1)..self.n_t {
            let p = self.parents[w] as usize;
            if !self.in_subtree[p] {
                continue;
            }
            self.in_subtree[w] = true;
            let (_, best) = lists
                .slot(w as u32, self.arena.scratch_at(p as u32))
                .first()
                .expect("valid parents always have a non-empty slot list");
            self.arena.set(w as u32, best);
        }
        let div_pos = if spec.parent == NO_PARENT {
            NO_PARENT
        } else {
            spec.pos
        };
        self.arena
            .commit(spec.parent, spec.score, div_pos, spec.rank)
    }

    /// Divides the subspace of popped match `m_id` (procedure `Divide`)
    /// into `out` (cleared first; reused across pops so division
    /// allocates nothing): at most `n_T` O(1)-sized candidates, each
    /// flagged with whether its replacement rank exists yet. Candidates
    /// flagged `false` carry score `Score::MAX`; Algorithm 1 drops
    /// them (empty subspaces, Lemma 3.2), Algorithm 3 parks them until
    /// more edges load.
    pub fn divide_into(
        &mut self,
        lists: &mut SlotLists,
        m_id: u32,
        out: &mut Vec<(CandidateSpec, bool)>,
    ) {
        out.clear();
        // Dividing happens right after materializing `m_id`, so this is
        // memoized; the explicit load keeps the call order-independent.
        self.arena.load(m_id);
        let score = self.arena.score(m_id);
        let div_pos = self.arena.div_pos(m_id);
        let rank_at_div = self.arena.rank_at_div(m_id);
        // Case 1 (Theorem 3.1): continue the exclusion chain at div_pos.
        if div_pos != NO_PARENT {
            let list = list_at(lists, &self.parents, &self.arena, div_pos);
            let old_key = list
                .rank(rank_at_div as usize)
                .expect("the popped match's own element exists")
                .0;
            let spec_rank = rank_at_div + 1;
            let (found, new_score) = match list.rank(spec_rank as usize) {
                Some((new_key, _)) => (true, score - old_key + new_key),
                None => (false, Score::MAX),
            };
            out.push((
                CandidateSpec {
                    score: new_score,
                    parent: m_id,
                    pos: div_pos,
                    rank: spec_rank,
                },
                found,
            ));
        }
        // Case 2 (Theorem 3.2): one new subspace per later position.
        let start = if div_pos == NO_PARENT {
            0
        } else {
            div_pos as usize + 1
        };
        for x in start..self.n_t {
            let list = list_at(lists, &self.parents, &self.arena, x as u32);
            let Some((k1, _)) = list.rank(1) else {
                // The match's own element must exist; in lazy mode a just-
                // divided position always holds a loaded element, so an
                // empty list can only mean "no match at all" (skip).
                continue;
            };
            let (found, new_score) = match list.rank(2) {
                Some((k2, _)) => (true, score - k1 + k2),
                None => (false, Score::MAX),
            };
            out.push((
                CandidateSpec {
                    score: new_score,
                    parent: m_id,
                    pos: x as u32,
                    rank: 2,
                },
                found,
            ));
        }
    }

    /// Re-evaluates a previously unknown or parked candidate against the
    /// current lists (they may have grown since). Returns the updated
    /// score if the rank now exists. Needs only one position of the
    /// parent's assignment — a point lookup in the arena, no
    /// materialization.
    pub fn reevaluate(&mut self, lists: &mut SlotLists, spec: &CandidateSpec) -> Option<Score> {
        let m = spec.parent;
        let base_rank = if spec.pos == self.arena.div_pos(m) {
            self.arena.rank_at_div(m)
        } else {
            1
        };
        let score = self.arena.score(m);
        let list = if spec.pos == 0 {
            &mut lists.root
        } else {
            let p = self.parents[spec.pos as usize];
            lists.slot(spec.pos, self.arena.node_at(m, p))
        };
        let base_key = list.rank(base_rank as usize)?.0;
        let (new_key, _) = list.rank(spec.rank as usize)?;
        Some(score - base_key + new_key)
    }

    /// Total score of popped match `m_id`.
    pub fn score(&self, m_id: u32) -> Score {
        self.arena.score(m_id)
    }

    /// The candidate index one position of popped match `m_id` assigns
    /// (an arena point lookup; the row is not materialized).
    pub fn node_at(&self, m_id: u32, pos: u32) -> u32 {
        self.arena.node_at(m_id, pos)
    }

    /// Emission-time materialization: popped match `m_id`'s full
    /// assignment row (candidate indices, query-BFS order), rebuilt by
    /// the arena's parent-pointer walk into its reusable scratch row.
    pub fn load_assignment(&mut self, m_id: u32) -> &[u32] {
        self.arena.load(m_id)
    }
}

/// Algorithm 1: the `Topk` enumerator over a fully-loaded run-time graph.
///
/// Implements `Iterator`, yielding matches in non-decreasing score order;
/// `take(k)` gives the top-k. Enumeration is unbounded (the kGPM layer
/// streams past `k`).
pub struct TopkEnumerator<'g> {
    rg: GraphRef<'g>,
    core: LawlerCore,
    lists: SlotLists,
    /// Global queue `Q`: compact entries keyed `(score, seq, spec id)`.
    q: BinaryHeap<HeapEntry>,
    /// All candidate specs ever created, with their creation round.
    specs: Vec<(CandidateSpec, u32)>,
    /// The side queues `Q_l`, compacted into one flat pool: a round's
    /// non-best children are all known at divide time, so each round is
    /// a pre-sorted run in `side_pool` and "promote the next best of
    /// round `l`" is a cursor bump — no per-round heap, no per-round
    /// allocation.
    side_pool: Vec<HeapEntry>,
    /// Per round: `(cursor, end)` into `side_pool`.
    side_runs: Vec<(u32, u32)>,
    /// Reused divide output buffer (cleared each pop).
    div_buf: Vec<(CandidateSpec, bool)>,
    round: u32,
    use_side_queues: bool,
    seq: u32,
}

impl<'g> TopkEnumerator<'g> {
    /// Builds the enumerator: O(m_R) list construction + top-1.
    pub fn new(rg: &'g RuntimeGraph) -> Self {
        Self::with_side_queues(rg, true)
    }

    /// As [`Self::new`], with the `Q_l` optimization toggleable (for the
    /// ablation benchmark).
    pub fn with_side_queues(rg: &'g RuntimeGraph, use_side_queues: bool) -> Self {
        Self::with_graph(GraphRef::Borrowed(rg), use_side_queues)
    }

    /// As [`Self::new`] over a shared (`Arc`) run-time graph. The
    /// returned `TopkEnumerator<'static>` owns its graph handle, so it
    /// can be parked in a session table and moved across threads; the
    /// graph itself is shared, not copied.
    pub fn new_shared(rg: Arc<RuntimeGraph>) -> TopkEnumerator<'static> {
        TopkEnumerator::with_graph(GraphRef::Shared(rg), true)
    }

    /// The partitioned form: enumerates only matches whose *root* data
    /// node lies in `shard`, over a run-time graph and `bs` data shared
    /// with the other shards of the same query. Lists build on demand
    /// ([`SlotLists::from_templates`]), so `P` shard enumerators don't
    /// each repeat the O(m_R) list construction. Within its shard the
    /// emitted order (and every score/witness) is identical to what
    /// [`Self::new`] produces for those matches.
    pub fn new_sharded(
        rg: Arc<RuntimeGraph>,
        bs: Arc<BsData>,
        shard: ShardSpec,
    ) -> TopkEnumerator<'static> {
        Self::from_templates(Arc::new(SlotTemplates::new(rg, bs)), shard)
    }

    /// As [`Self::new_sharded`] over *shared* [`SlotTemplates`]:
    /// several enumerators — the shards of one `ParTopk` run, or any
    /// number of sessions of one cached [`QueryPlan`] — fill each slot
    /// list once between them instead of once each.
    pub fn from_templates(
        templates: Arc<SlotTemplates>,
        shard: ShardSpec,
    ) -> TopkEnumerator<'static> {
        let rg = Arc::clone(templates.runtime_graph());
        let lists = SlotLists::from_templates(templates, shard);
        TopkEnumerator::from_lists(GraphRef::Shared(rg), lists, true)
    }

    /// Algorithm 1 over a shared [`QueryPlan`]: the run-time graph,
    /// `bs` pass and slot templates come from the plan (built on its
    /// first use, shared ever after), so constructing this enumerator
    /// on a warm plan performs **zero** candidate discovery or storage
    /// I/O.
    pub fn from_plan(plan: &QueryPlan) -> TopkEnumerator<'static> {
        Self::from_templates(Arc::clone(plan.slot_templates()), ShardSpec::full())
    }

    fn with_graph(rg: GraphRef<'g>, use_side_queues: bool) -> Self {
        let g = rg.get();
        let bs = BsData::compute(g);
        let lists = SlotLists::build_full(g, &bs);
        Self::from_lists(rg, lists, use_side_queues)
    }

    fn from_lists(rg: GraphRef<'g>, mut lists: SlotLists, use_side_queues: bool) -> Self {
        // Arena hint: every root candidate pops at least once before
        // the stream ends, so the (shard-restricted) root list length
        // is a cheap lower-bound-flavored estimate.
        let mut core = LawlerCore::new(rg.get().query().tree(), lists.root.len().max(16));
        let mut q = BinaryHeap::new();
        let mut specs = Vec::new();
        if let Some(init) = core.initial_candidate(&mut lists) {
            specs.push((init, 0));
            q.push(HeapEntry {
                key: init.score,
                a: 0,
                b: 0,
            });
        }
        TopkEnumerator {
            rg,
            core,
            lists,
            q,
            specs,
            side_pool: Vec::new(),
            side_runs: vec![(0, 0)],
            div_buf: Vec::new(),
            round: 0,
            use_side_queues,
            seq: 1,
        }
    }

    fn push_spec_q(&mut self, spec: CandidateSpec, round: u32) {
        let id = self.specs.len() as u32;
        self.specs.push((spec, round));
        self.q.push(HeapEntry {
            key: spec.score,
            a: self.seq,
            b: id,
        });
        self.seq += 1;
    }
}

impl Iterator for TopkEnumerator<'_> {
    type Item = ScoredMatch;

    fn next(&mut self) -> Option<ScoredMatch> {
        let HeapEntry { b: cid, .. } = self.q.pop()?;
        let (spec, spec_round) = self.specs[cid as usize];
        // Promote the next best of the round this candidate came from:
        // runs are pre-sorted, so this is the next pool entry.
        if self.use_side_queues {
            let (cur, end) = &mut self.side_runs[spec_round as usize];
            if cur < end {
                let e = self.side_pool[*cur as usize];
                *cur += 1;
                self.q.push(e);
            }
        }
        let m_id = self.core.materialize(&mut self.lists, spec);
        self.round += 1;
        let round = self.round;
        let mut children = std::mem::take(&mut self.div_buf);
        self.core.divide_into(&mut self.lists, m_id, &mut children);
        // Algorithm 1 over static lists: unknown ranks are empty
        // subspaces (Lemma 3.2), dropped here.
        children.retain(|&(_, known)| known);
        let start = self.side_pool.len() as u32;
        if self.use_side_queues && !children.is_empty() {
            // Best child goes to Q, the rest become this round's run.
            let best = children
                .iter()
                .enumerate()
                .min_by_key(|(_, (s, _))| s.score)
                .map(|(i, _)| i)
                .expect("non-empty");
            let (best_spec, _) = children.swap_remove(best);
            self.push_spec_q(best_spec, round);
            for &(c, _) in &children {
                let id = self.specs.len() as u32;
                self.specs.push((c, round));
                self.side_pool.push(HeapEntry {
                    key: c.score,
                    a: self.seq,
                    b: id,
                });
                self.seq += 1;
            }
            // Same delivery order as the former per-round min-heap.
            self.side_pool[start as usize..].sort_unstable_by_key(|e| (e.key, e.a, e.b));
            self.side_runs.push((start, self.side_pool.len() as u32));
        } else {
            for &(c, _) in &children {
                self.push_spec_q(c, round);
            }
            self.side_runs.push((start, start));
        }
        children.clear();
        self.div_buf = children;
        // Emission-time materialization: the only per-match row built.
        let score = self.core.score(m_id);
        let rg = self.rg.get();
        let tree = rg.query().tree();
        let asn = self.core.load_assignment(m_id);
        let assignment = tree
            .node_ids()
            .map(|u| rg.node(u, asn[u.index()]))
            .collect();
        Some(ScoredMatch { score, assignment })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::{LabeledGraph, NodeId};
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    fn run(g: &LabeledGraph, query: &str, k: usize, side: bool) -> Vec<ScoredMatch> {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(g));
        let rg = RuntimeGraph::load(&q, &store);
        TopkEnumerator::with_side_queues(&rg, side)
            .take(k)
            .collect()
    }

    #[test]
    fn figure1_example_top_matches() {
        // Figure 1: query C -> E, C -> S; top-1 and top-2 both score 2,
        // 5 matches in total, worst score 3.
        let g = citation_graph();
        let all = run(&g, "C -> E\nC -> S", 100, true);
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].score, 2);
        assert_eq!(all[1].score, 2);
        assert_eq!(all.last().unwrap().score, 3);
        // Top-1 maps C to v1 with direct citations (v1, v5, v4).
        assert_eq!(all[0].assignment[0], NodeId(0));
    }

    #[test]
    fn scores_are_non_decreasing() {
        let g = paper_graph();
        let all = run(&g, "a -> b\na -> c\nc -> d\nc -> e", 100, true);
        assert!(!all.is_empty());
        assert!(all.windows(2).all(|w| w[0].score <= w[1].score));
    }

    #[test]
    fn top1_matches_bs() {
        let g = paper_graph();
        let all = run(&g, "a -> b\na -> c\nc -> d\nc -> e", 1, true);
        assert_eq!(all[0].score, 4);
        // v1, v3, v5, v7, v9 (BFS order: a, b, c, d, e).
        assert_eq!(
            all[0].assignment,
            vec![NodeId(0), NodeId(2), NodeId(4), NodeId(6), NodeId(8)]
        );
    }

    #[test]
    fn side_queues_do_not_change_results() {
        let g = paper_graph();
        let with = run(&g, "a -> b\na -> c\nc -> d\nc -> e", 50, true);
        let without = run(&g, "a -> b\na -> c\nc -> d\nc -> e", 50, false);
        let ws: Vec<_> = with.iter().map(|m| m.score).collect();
        let wos: Vec<_> = without.iter().map(|m| m.score).collect();
        assert_eq!(ws, wos);
    }

    #[test]
    fn matches_are_distinct_assignments() {
        let g = paper_graph();
        let all = run(&g, "a -> b\na -> c\nc -> d\nc -> e", 200, true);
        let mut seen = std::collections::HashSet::new();
        for m in &all {
            assert!(seen.insert(m.assignment.clone()), "duplicate {m:?}");
        }
    }

    #[test]
    fn all_matches_enumerated_exactly_once() {
        // Count matches by brute force over the tiny citation graph:
        // C x E x S combinations where paths exist.
        let g = citation_graph();
        let all = run(&g, "C -> E\nC -> S", 1000, true);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn shared_enumerator_is_send_and_agrees_with_borrowed() {
        fn assert_send<T: Send>(_: &T) {}
        let g = paper_graph();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d\nc -> e")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        let rg = Arc::new(RuntimeGraph::load(&q, &store));
        let borrowed: Vec<Score> = TopkEnumerator::new(&rg).take(50).map(|m| m.score).collect();
        let mut shared = TopkEnumerator::new_shared(rg);
        assert_send(&shared);
        let scores: Vec<Score> =
            std::thread::spawn(move || shared.by_ref().take(50).map(|m| m.score).collect())
                .join()
                .unwrap();
        assert_eq!(borrowed, scores);
    }

    #[test]
    fn sharded_enumerators_partition_the_full_stream() {
        // A 1-way "shard" reproduces the full stream byte for byte
        // (on-demand lists must not change anything), and an n-way split
        // partitions the match set: every match appears in exactly the
        // shard owning its root, scores non-decreasing per shard. Ties
        // within one shard may legally order differently from the full
        // run (different side-queue rounds), so cross-shard assertions
        // compare canonically sorted streams.
        let g = paper_graph();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d\nc -> e")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        let rg = Arc::new(RuntimeGraph::load(&q, &store));
        let bs = Arc::new(BsData::compute(&rg));
        let full: Vec<ScoredMatch> = TopkEnumerator::new(&rg).collect();
        assert!(!full.is_empty());

        let one: Vec<ScoredMatch> =
            TopkEnumerator::new_sharded(Arc::clone(&rg), Arc::clone(&bs), ShardSpec::full())
                .collect();
        assert_eq!(one, full);

        let canon = |mut ms: Vec<ScoredMatch>| {
            ms.sort_by(|a, b| (a.score, &a.assignment).cmp(&(b.score, &b.assignment)));
            ms
        };
        for n in [2usize, 3, 5] {
            let mut union = Vec::new();
            for spec in ShardSpec::split(n) {
                let part: Vec<ScoredMatch> =
                    TopkEnumerator::new_sharded(Arc::clone(&rg), Arc::clone(&bs), spec).collect();
                assert!(
                    part.windows(2).all(|w| w[0].score <= w[1].score),
                    "shard {spec} must stream in score order"
                );
                let want: Vec<ScoredMatch> = full
                    .iter()
                    .filter(|m| spec.contains(m.assignment[0]))
                    .cloned()
                    .collect();
                assert_eq!(canon(part.clone()), canon(want), "shard {spec} of {n}");
                union.extend(part);
            }
            assert_eq!(canon(union), canon(full.clone()), "{n}-way partition");
        }
    }

    /// The pre-arena, clone-based Lawler driver, retained verbatim as a
    /// test referee: every popped match stores its full `Vec<u32>`
    /// assignment, and `materialize`/`divide` clone it per call; side
    /// queues are per-round binary heaps. The arena-backed encoding
    /// must reproduce this stream **element for element** — score,
    /// assignment and raw (pre-canonical) tie order.
    mod clone_reference {
        use super::super::*;
        use std::cmp::Reverse;

        struct CloneMatch {
            assignment: Vec<u32>,
            score: Score,
            div_pos: u32,
            rank_at_div: u32,
        }

        pub(super) struct CloneEnumerator<'g> {
            rg: &'g RuntimeGraph,
            parents: Vec<u32>,
            n_t: usize,
            in_subtree: Vec<bool>,
            popped: Vec<CloneMatch>,
            lists: SlotLists,
            q: BinaryHeap<Reverse<(Score, u32, u32)>>,
            specs: Vec<(CandidateSpec, u32)>,
            side: Vec<BinaryHeap<Reverse<(Score, u32, u32)>>>,
            round: u32,
            seq: u32,
        }

        fn list_at<'l>(
            lists: &'l mut SlotLists,
            parents: &[u32],
            assignment: &[u32],
            pos: u32,
        ) -> &'l mut LazySortedList {
            if pos == 0 {
                &mut lists.root
            } else {
                let p = parents[pos as usize];
                lists.slot(pos, assignment[p as usize])
            }
        }

        impl<'g> CloneEnumerator<'g> {
            pub fn new(rg: &'g RuntimeGraph) -> Self {
                let bs = BsData::compute(rg);
                let mut lists = SlotLists::build_full(rg, &bs);
                let tree = rg.query().tree();
                let parents: Vec<u32> = tree
                    .node_ids()
                    .map(|u| tree.parent(u).map_or(u32::MAX, |p| p.0))
                    .collect();
                let n_t = tree.len();
                let mut q = BinaryHeap::new();
                let mut specs = Vec::new();
                if let Some((score, _)) = lists.root.rank(1) {
                    let init = CandidateSpec {
                        score,
                        parent: NO_PARENT,
                        pos: 0,
                        rank: 1,
                    };
                    specs.push((init, 0));
                    q.push(Reverse((score, 0, 0)));
                }
                CloneEnumerator {
                    rg,
                    parents,
                    n_t,
                    in_subtree: vec![false; n_t],
                    popped: Vec::new(),
                    lists,
                    q,
                    specs,
                    side: vec![BinaryHeap::new()],
                    round: 0,
                    seq: 1,
                }
            }

            fn materialize(&mut self, spec: CandidateSpec) -> u32 {
                let mut assignment = if spec.parent == NO_PARENT {
                    vec![u32::MAX; self.n_t]
                } else {
                    self.popped[spec.parent as usize].assignment.clone()
                };
                let (_, replacement) =
                    list_at(&mut self.lists, &self.parents, &assignment, spec.pos)
                        .rank(spec.rank as usize)
                        .expect("candidate rank was verified at divide time");
                assignment[spec.pos as usize] = replacement;
                let pos = spec.pos as usize;
                self.in_subtree.fill(false);
                self.in_subtree[pos] = true;
                for w in (pos + 1)..self.n_t {
                    let p = self.parents[w] as usize;
                    if !self.in_subtree[p] {
                        continue;
                    }
                    self.in_subtree[w] = true;
                    let (_, best) = self
                        .lists
                        .slot(w as u32, assignment[p])
                        .first()
                        .expect("valid parents have non-empty slot lists");
                    assignment[w] = best;
                }
                self.popped.push(CloneMatch {
                    assignment,
                    score: spec.score,
                    div_pos: if spec.parent == NO_PARENT {
                        NO_PARENT
                    } else {
                        spec.pos
                    },
                    rank_at_div: spec.rank,
                });
                (self.popped.len() - 1) as u32
            }

            fn divide(&mut self, m_id: u32) -> Vec<CandidateSpec> {
                let m = &self.popped[m_id as usize];
                let (assignment, score, div_pos, rank_at_div) =
                    (m.assignment.clone(), m.score, m.div_pos, m.rank_at_div);
                let mut out = Vec::new();
                if div_pos != NO_PARENT {
                    let list = list_at(&mut self.lists, &self.parents, &assignment, div_pos);
                    let old_key = list
                        .rank(rank_at_div as usize)
                        .expect("the popped match's own element exists")
                        .0;
                    if let Some((new_key, _)) = list.rank(rank_at_div as usize + 1) {
                        out.push(CandidateSpec {
                            score: score - old_key + new_key,
                            parent: m_id,
                            pos: div_pos,
                            rank: rank_at_div + 1,
                        });
                    }
                }
                let start = if div_pos == NO_PARENT {
                    0
                } else {
                    div_pos as usize + 1
                };
                for x in start..self.n_t {
                    let list = list_at(&mut self.lists, &self.parents, &assignment, x as u32);
                    let Some((k1, _)) = list.rank(1) else {
                        continue;
                    };
                    if let Some((k2, _)) = list.rank(2) {
                        out.push(CandidateSpec {
                            score: score - k1 + k2,
                            parent: m_id,
                            pos: x as u32,
                            rank: 2,
                        });
                    }
                }
                out
            }

            fn push_spec(&mut self, spec: CandidateSpec, round: u32, to_side: bool) {
                let id = self.specs.len() as u32;
                self.specs.push((spec, round));
                let entry = Reverse((spec.score, self.seq, id));
                self.seq += 1;
                if to_side {
                    self.side[round as usize].push(entry);
                } else {
                    self.q.push(entry);
                }
            }
        }

        impl Iterator for CloneEnumerator<'_> {
            type Item = ScoredMatch;

            fn next(&mut self) -> Option<ScoredMatch> {
                let Reverse((_, _, cid)) = self.q.pop()?;
                let (spec, spec_round) = self.specs[cid as usize];
                if let Some(e) = self.side[spec_round as usize].pop() {
                    self.q.push(e);
                }
                let m_id = self.materialize(spec);
                self.round += 1;
                self.side.push(BinaryHeap::new());
                let round = self.round;
                let mut children = self.divide(m_id);
                if !children.is_empty() {
                    let best = children
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.score)
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    let best_spec = children.swap_remove(best);
                    self.push_spec(best_spec, round, false);
                    for c in children {
                        self.push_spec(c, round, true);
                    }
                }
                let m = &self.popped[m_id as usize];
                let tree = self.rg.query().tree();
                Some(ScoredMatch {
                    score: m.score,
                    assignment: tree
                        .node_ids()
                        .map(|u| self.rg.node(u, m.assignment[u.index()]))
                        .collect(),
                })
            }
        }
    }

    mod arena_vs_clone_reference {
        use super::clone_reference::CloneEnumerator;
        use super::*;
        use ktpm_workload::{generate, random_tree_query, GraphSpec, QuerySpec};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The tentpole's referee: on random workload graphs and
            /// queries, the arena-backed `Topk` stream equals the
            /// retained clone-based driver element for element — raw
            /// tie order included — across a resume split.
            #[test]
            fn arena_topk_equals_clone_reference_stream(
                nodes in 20..120usize,
                seed in 0..10_000u64,
                size in 2..5usize,
                k in 1..80usize,
                pause in 0..80usize,
            ) {
                let spec = GraphSpec {
                    nodes,
                    labels: 5,
                    label_skew: 0.5,
                    avg_out_degree: 2.5,
                    community: 30,
                    cross_fraction: 0.1,
                    weight_range: (1, 3),
                    seed,
                };
                let g = generate(&spec);
                let query = random_tree_query(&g, QuerySpec {
                    size,
                    distinct_labels: false,
                    seed: seed ^ 0x77,
                });
                if let Some(q) = query {
                    let resolved = q.resolve(g.interner());
                    let store = ktpm_storage::MemStore::new(
                        ktpm_closure::ClosureTables::compute(&g),
                    );
                    let rg = RuntimeGraph::load(&resolved, &store);
                    let want: Vec<ScoredMatch> =
                        CloneEnumerator::new(&rg).take(k).collect();
                    // Split consumption at `pause` to exercise parked
                    // arena state across the resume boundary.
                    let j = pause.min(k);
                    let mut it = TopkEnumerator::new(&rg);
                    let mut got: Vec<ScoredMatch> = it.by_ref().take(j).collect();
                    got.extend(it.take(k - j));
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn no_match_query_yields_nothing() {
        let g = paper_graph();
        assert!(run(&g, "s -> a", 10, true).is_empty());
        assert!(run(&g, "a -> nolabel", 10, true).is_empty());
    }

    #[test]
    fn single_node_query_enumerates_label_bucket() {
        let g = paper_graph();
        let all = run(&g, "a", 10, true);
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|m| m.score == 0));
    }

    #[test]
    fn scores_equal_recomputed_path_sums() {
        // Validate every reported score against closure distances.
        let g = paper_graph();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d\nc -> e")
            .unwrap()
            .resolve(g.interner());
        let tc = ClosureTables::compute(&g);
        let store = MemStore::new(tc);
        let rg = RuntimeGraph::load(&q, &store);
        let all: Vec<_> = TopkEnumerator::new(&rg).collect();
        for m in &all {
            let mut total: Score = 0;
            for u in q.tree().node_ids().skip(1) {
                let p = q.tree().parent(u).unwrap();
                let d = store
                    .tables()
                    .dist(m.assignment[p.index()], m.assignment[u.index()])
                    .expect("edge must exist");
                total += d as Score;
            }
            assert_eq!(total, m.score);
        }
    }
}
