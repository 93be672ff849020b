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
use crate::matches::{CandidateSpec, Child, ScoredMatch, NO_PARENT};
use crate::plan::{LazySetup, QueryPlan};
use crate::rgraph::RuntimeGraph;
use ktpm_graph::Score;
use ktpm_query::{QNodeId, TreeQuery};
use ktpm_storage::ShardSpec;
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

/// Where a deferred [`SlotLists`] fills a list from on first touch.
#[derive(Debug, Clone)]
enum FillSource {
    /// `Topk` ([`SlotLists::from_templates`]): a copy of the shared
    /// template, so an enumerator restricted to a few roots only pays
    /// for the lists its matches actually reach (and the template
    /// itself is only *built* by the first toucher across all sharers).
    Templates(Arc<SlotTemplates>),
    /// `Topk-EN` ([`SlotLists::seeded`]): the list's `E`-seed row in
    /// the plan's lazy half (empty for an unseeded list), so a session
    /// builds only the seeded lists it touches.
    Seeds(Arc<LazySetup>),
}

/// Deferred list construction state: its source, and which lists have
/// been filled.
#[derive(Debug, Clone)]
struct SlotFill {
    source: FillSource,
    /// Per flat list id: whether the local list has been filled.
    built: Vec<bool>,
}

/// The `L`/`H` lists of every `(parent candidate, child slot)` pair plus
/// the root list (root candidates keyed by `bs`).
///
/// Lists have flat ids: the root list is 0, and slot list `(u, pi)` is
/// `base[u] + pi`.
#[derive(Debug, Clone, Default)]
pub struct SlotLists {
    /// Every slot list by flat id; entry 0 stands in for the root list,
    /// which lives in `root`, and stays empty.
    lists: Vec<LazySortedList>,
    /// `base[u]`: the flat id of `(u, 0)` for `u >= 1`; `base[0] = 0`
    /// and `base[n_T]` is the number of ids.
    base: Vec<u32>,
    /// Root candidates keyed by `bs` (§3.3 "organized in a similar way").
    pub(crate) root: LazySortedList,
    /// When set, non-root lists fill lazily on first access.
    fill: Option<SlotFill>,
}

impl SlotLists {
    /// Empty lists shaped for `tree`, whose node `p` has
    /// `n_cands(p)` candidates; filled on first touch from `fill`,
    /// when given.
    fn shaped(
        tree: &TreeQuery,
        n_cands: impl Fn(QNodeId) -> usize,
        fill: Option<FillSource>,
    ) -> Self {
        let mut base = Vec::with_capacity(tree.len() + 1);
        base.extend([0, 1]);
        for u in tree.node_ids().skip(1) {
            let p = tree.parent(u).expect("non-root");
            base.push(base[u.index()] + n_cands(p) as u32);
        }
        let n = base[tree.len()] as usize;
        let mut lists = Vec::with_capacity(n);
        lists.resize_with(n, LazySortedList::default);
        SlotLists {
            lists,
            base,
            root: LazySortedList::default(),
            fill: fill.map(|source| SlotFill {
                source,
                built: vec![false; n],
            }),
        }
    }

    /// Builds all lists eagerly from a run-time graph and its `bs` data —
    /// the O(m_R) initialization of §3.3.
    pub fn build_full(rg: &RuntimeGraph, bs: &BsData) -> Self {
        let tree = rg.query().tree();
        let mut lists = Self::shaped(tree, |p| rg.candidates().len(p), None);
        for u in tree.node_ids().skip(1) {
            let p = tree.parent(u).expect("non-root");
            for pi in 0..rg.candidates().len(p) as u32 {
                *lists.slot(u.0, pi) = Self::fill_slot(rg, bs, u.0, pi);
            }
        }
        let root_items: Vec<(Score, u32)> = (0..rg.candidates().len(tree.root()) as u32)
            .filter(|&i| bs.is_valid(tree.root(), i))
            .map(|i| (bs.bs(tree.root(), i), i))
            .collect();
        lists.root = LazySortedList::new(root_items);
        lists
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
        let root = templates.root_list(shard);
        let rg = Arc::clone(&templates.rg);
        let mut lists = Self::shaped(
            rg.query().tree(),
            |p| rg.candidates().len(p),
            Some(FillSource::Templates(templates)),
        );
        lists.root = root;
        lists
    }

    /// Empty lists for a lazily-loaded run (Algorithm 3) over `setup`:
    /// the root list starts empty, and each slot list starts as its
    /// `E`-seed row, filled the first time the list is touched.
    pub(crate) fn seeded(tree: &TreeQuery, setup: Arc<LazySetup>) -> Self {
        let shape = Arc::clone(&setup);
        Self::shaped(tree, |p| shape.cands.len(p), Some(FillSource::Seeds(setup)))
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

    /// The flat id of slot list `(u, pi)`, 0 for the root list
    /// (`u == 0`).
    #[inline]
    pub(crate) fn id(&self, u: u32, pi: u32) -> u32 {
        if u == 0 {
            0
        } else {
            self.base[u as usize] + pi
        }
    }

    /// How many flat list ids there are.
    pub(crate) fn num_ids(&self) -> usize {
        self.lists.len()
    }

    /// The list of child slot `u` under parent candidate `pi`,
    /// materializing it first in deferred mode.
    #[inline]
    pub(crate) fn slot(&mut self, u: u32, pi: u32) -> &mut LazySortedList {
        debug_assert_ne!(u, 0, "the root list is not a slot list");
        let id = self.id(u, pi) as usize;
        if let Some(f) = &mut self.fill {
            if !f.built[id] {
                f.built[id] = true;
                self.lists[id] = match &f.source {
                    // Sole holder of the templates (a transient one-run
                    // plan): nobody can ever share the template cell,
                    // so build the list straight into this enumerator
                    // and skip the fill-then-clone round-trip.
                    FillSource::Templates(t) if Arc::strong_count(t) == 1 => {
                        Self::fill_slot(&t.rg, &t.bs, u, pi)
                    }
                    FillSource::Templates(t) => t.slot(u, pi).clone(),
                    FillSource::Seeds(setup) => LazySortedList::new(
                        setup.seeds[u as usize]
                            .rows
                            .of(pi)
                            .iter()
                            .map(|&(dist, ci)| (dist as Score, ci))
                            .collect(),
                    ),
                };
            }
        }
        &mut self.lists[id]
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

/// The shared Lawler machinery: subspace division (Theorems 3.1/3.2)
/// and O(n_T) match materialization over assignment **rows** —
/// `[u32]` slices of candidate indices in query-BFS order. Slot lists
/// are passed in by the driver (Algorithm 1 owns static lists;
/// Algorithm 3's grow during loading) and so is the row storage: both
/// keep one row per queue entrant in a [`RowQueue`]. Nothing here
/// allocates per match.
pub(crate) struct LawlerCore {
    /// Parent BFS index per query node (`u32::MAX` for the root).
    parents: Vec<u32>,
    n_t: usize,
    /// Scratch for subtree membership during materialization.
    in_subtree: Vec<bool>,
}

/// What [`LawlerCore::divide_into`] reads of a popped match besides its
/// row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Popped {
    /// The id the match's children name as their `parent`.
    pub id: u32,
    pub score: Score,
    /// The position its subspace division starts at (`j` in §3.2);
    /// `NO_PARENT` for the initial top-1, which divides everywhere.
    pub div_pos: u32,
    /// The rank of its element at `div_pos` within that list
    /// (`|U_j| + 1`); drives the Theorem 3.1 chain.
    pub rank_at_div: u32,
}

impl LawlerCore {
    pub fn new(tree: &TreeQuery) -> Self {
        let parents: Vec<u32> = tree
            .node_ids()
            .map(|u| tree.parent(u).map_or(u32::MAX, |p| p.0))
            .collect();
        let n_t = tree.len();
        LawlerCore {
            parents,
            n_t,
            in_subtree: vec![false; n_t],
        }
    }

    /// Parent BFS index of query node `pos` (`u32::MAX` for the root).
    pub fn parent_of(&self, pos: u32) -> u32 {
        self.parents[pos as usize]
    }

    /// The list a replacement at `pos` of the match `row` draws from:
    /// the root list for `pos == 0`, otherwise the slot list under the
    /// parent candidate `row` assigns.
    pub fn list_at<'l>(
        &self,
        lists: &'l mut SlotLists,
        row: &[u32],
        pos: u32,
    ) -> &'l mut LazySortedList {
        if pos == 0 {
            &mut lists.root
        } else {
            let p = self.parents[pos as usize];
            lists.slot(pos, row[p as usize])
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

    /// Materializes a candidate (O(n_T), no allocation): `row` arrives
    /// holding the parent's assignment; the replaced position takes
    /// its list's `rank`-th element and only that node's subtree is
    /// re-derived via best-descendant links (list minima). Returns the
    /// mask of rewritten positions.
    pub fn materialize(
        &mut self,
        lists: &mut SlotLists,
        row: &mut [u32],
        pos: u32,
        rank: u32,
    ) -> &[bool] {
        let (_, replacement) = self
            .list_at(lists, row, pos)
            .rank(rank as usize)
            .expect("candidate rank was verified at divide time");
        let pos = pos as usize;
        row[pos] = replacement;
        // Re-derive the subtree strictly below `pos`.
        self.in_subtree.fill(false);
        self.in_subtree[pos] = true;
        for w in (pos + 1)..self.n_t {
            let p = self.parents[w] as usize;
            if !self.in_subtree[p] {
                continue;
            }
            self.in_subtree[w] = true;
            let (_, best) = lists
                .slot(w as u32, row[p])
                .first()
                .expect("valid parents always have a non-empty slot list");
            row[w] = best;
        }
        &self.in_subtree
    }

    /// Divides the subspace of popped match `m`, whose assignment is
    /// `row` (procedure `Divide`), into `out` (cleared first; reused
    /// across pops so division allocates nothing): at most `n_T`
    /// O(1)-sized candidates.
    pub fn divide_into(&self, lists: &mut SlotLists, row: &[u32], m: Popped, out: &mut Vec<Child>) {
        out.clear();
        let mut push = |pos: u32, rank: u32, old_key: Score, new: Option<(Score, u32)>| {
            out.push(Child {
                spec: CandidateSpec {
                    score: new.map_or(Score::MAX, |(key, _)| m.score - old_key + key),
                    parent: m.id,
                    pos,
                    rank,
                },
                known: new.is_some(),
                before_parent: new.is_some_and(|(_, node)| node < row[pos as usize]),
            });
        };
        // Case 1 (Theorem 3.1): continue the exclusion chain at div_pos.
        if m.div_pos != NO_PARENT {
            let list = self.list_at(lists, row, m.div_pos);
            let old_key = list
                .rank(m.rank_at_div as usize)
                .expect("the popped match's own element exists")
                .0;
            let rank = m.rank_at_div + 1;
            push(m.div_pos, rank, old_key, list.rank(rank as usize));
        }
        // Case 2 (Theorem 3.2): one new subspace per later position.
        let start = if m.div_pos == NO_PARENT {
            0
        } else {
            m.div_pos as usize + 1
        };
        for x in start..self.n_t {
            let list = self.list_at(lists, row, x as u32);
            let Some((k1, _)) = list.rank(1) else {
                // The match's own element must exist; in lazy mode a just-
                // divided position always holds a loaded element, so an
                // empty list can only mean "no match at all" (skip).
                continue;
            };
            push(x as u32, 2, k1, list.rank(2));
        }
    }
}

/// Work done by a [`TopkEnumerator`] so far, in the paper's own cost
/// terms: the O(n_T + log k) delay is `q_pushes ≤ 2` and
/// `row_words ≤ 2·n_T` per pop (side queues on), one pop per match.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopkCounters {
    /// Entries popped off `Q` — one per emitted match.
    pub pops: u64,
    /// Candidates that entered `Q`, promotions included.
    pub q_pushes: u64,
    /// `Q` entrants promoted out of a side run `Q_l`.
    pub promotions: u64,
    /// Words written to the row pool (`n_T` per `Q` entrant).
    pub row_words: u64,
}

/// The assignment rows of every candidate that has entered `Q`, `n_t`
/// words each, back to back; an entrant's id is its row's index. Rows
/// are never freed: a popped match's row stays the template its
/// later children are materialized from.
struct RowPool {
    words: Vec<u32>,
    n_t: usize,
}

impl RowPool {
    #[inline]
    fn row(&self, id: u32) -> &[u32] {
        let start = id as usize * self.n_t;
        &self.words[start..start + self.n_t]
    }

    /// Appends a copy of `parent`'s row (all-`MAX` for `NO_PARENT`) and
    /// returns it for the caller to overwrite.
    fn push_copy_of(&mut self, parent: u32) -> &mut [u32] {
        let at = self.words.len();
        if parent == NO_PARENT {
            self.words.resize(at + self.n_t, u32::MAX);
        } else {
            let start = parent as usize * self.n_t;
            self.words.extend_from_within(start..start + self.n_t);
        }
        &mut self.words[at..]
    }
}

/// A binary min-heap of `(score, entrant id)` ordered by
/// `(score, row)` — the canonical order. Hand-rolled because the
/// tie-break reads the row pool, which an `Ord` on the entry cannot.
/// Rows are compared only when two scores tie, O(n_T) worst case, so a
/// push or pop is O(log k) on distinct scores and O(n_T · log k) on a
/// fully tied stream.
#[derive(Default)]
struct RowHeap {
    entries: Vec<(Score, u32)>,
}

impl RowHeap {
    #[inline]
    fn less(rows: &RowPool, a: (Score, u32), b: (Score, u32)) -> bool {
        a.0 < b.0 || (a.0 == b.0 && rows.row(a.1) < rows.row(b.1))
    }

    /// Moves `e` from slot `i` towards the root until its parent is
    /// not greater; slots on the way shift down.
    fn sift_up(&mut self, rows: &RowPool, mut i: usize, e: (Score, u32)) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::less(rows, e, self.entries[parent]) {
                break;
            }
            self.entries[i] = self.entries[parent];
            i = parent;
        }
        self.entries[i] = e;
    }

    fn push(&mut self, rows: &RowPool, e: (Score, u32)) {
        let i = self.entries.len();
        self.entries.push(e);
        self.sift_up(rows, i, e);
    }

    fn pop(&mut self, rows: &RowPool) -> Option<(Score, u32)> {
        let last = self.entries.pop()?;
        let Some(&top) = self.entries.first() else {
            return Some(last);
        };
        // Walk the hole left by `top` to the bottom along the smaller
        // children, then sift the displaced tail entry up from there:
        // it usually belongs near the bottom, so this costs about one
        // comparison a level instead of two.
        let n = self.entries.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && Self::less(rows, self.entries[right], self.entries[left]) {
                right
            } else {
                left
            };
            self.entries[i] = self.entries[child];
            i = child;
        }
        self.sift_up(rows, i, last);
        Some(top)
    }
}

/// The global queue `Q` of both enumerators: every candidate that
/// enters it gets its full row — the parent's row with the replaced
/// subtree re-derived, O(n_T) — and the queue pops in `(score, row)`
/// order. The row is the entrant's one representation: compared, then
/// emitted, divided and copied for children from.
pub(crate) struct RowQueue {
    heap: RowHeap,
    rows: RowPool,
}

impl RowQueue {
    /// An empty queue for `n_t`-node rows, sized for `hint` entrants.
    pub fn new(n_t: usize, hint: usize) -> Self {
        RowQueue {
            heap: RowHeap::default(),
            rows: RowPool {
                words: Vec::with_capacity(hint * n_t),
                n_t,
            },
        }
    }

    /// Materializes `spec` into a new row and pushes it. Entrant ids
    /// count up from 0 in entry order.
    pub fn enter(&mut self, core: &mut LawlerCore, lists: &mut SlotLists, spec: CandidateSpec) {
        let id = self.entrants() as u32;
        let row = self.rows.push_copy_of(spec.parent);
        core.materialize(lists, row, spec.pos, spec.rank);
        self.heap.push(&self.rows, (spec.score, id));
    }

    /// Pops the minimum `(score, entrant id)`.
    pub fn pop(&mut self) -> Option<(Score, u32)> {
        self.heap.pop(&self.rows)
    }

    /// The minimum score, without popping.
    pub fn peek_score(&self) -> Option<Score> {
        self.heap.entries.first().map(|e| e.0)
    }

    /// Entrant `id`'s row.
    pub fn row(&self, id: u32) -> &[u32] {
        self.rows.row(id)
    }

    /// Candidates that have entered so far.
    pub fn entrants(&self) -> u64 {
        (self.rows.words.len() / self.rows.n_t) as u64
    }

    /// Words written to the row pool so far (`n_t` per entrant).
    pub fn row_words(&self) -> u64 {
        self.rows.words.len() as u64
    }
}

/// What `Topk` keeps per `Q` entrant besides its row: where its
/// division starts and which round's side run it came out of.
#[derive(Debug, Clone, Copy)]
struct Entrant {
    div_pos: u32,
    rank_at_div: u32,
    round: u32,
}

/// Algorithm 1: the `Topk` enumerator over a fully-loaded run-time graph.
///
/// Implements `Iterator`, yielding matches in the workspace's
/// **canonical order** — ascending `(score, assignment)`, see
/// [`crate::partition`] — natively: `take(k)` gives the top-k after
/// exactly `k` pops, with no look-ahead into a tie class. Enumeration is
/// unbounded (the kGPM layer streams past `k`).
///
/// ## Why the heap order can be the canonical order
///
/// 1. Slot and root lists break key ties by candidate index
///    ([`LazySortedList::new`]), and candidates ascend by data node id,
///    so a subspace's representative — list minimum at every free
///    position — is that subspace's `(score, assignment)`-minimum, and
///    Lawler's argument holds for the total order: the minimum of `Q`
///    is the next match.
/// 2. Only candidates that enter `Q` need a comparable row, and with
///    the §3.3 side queues that is at most two per pop (the round's
///    best child and one promotion): O(n_T) words per pop in one flat
///    pool, compared only when two scores tie.
/// 3. A round's side run is ordered without rows, in O(1) per
///    comparison (`Child::cmp_sibling`).
///
/// Per match: one pop, ≤ 2 pushes, ≤ 2·n_T row words, and a tie compare
/// of O(n_T) worst case — O(n_T · log k) on a fully tied stream,
/// O(n_T + log k) otherwise.
pub struct TopkEnumerator {
    rg: Arc<RuntimeGraph>,
    core: LawlerCore,
    lists: SlotLists,
    /// Global queue `Q`, ordered by `(score, row)`.
    q: RowQueue,
    /// Per `Q` entrant, parallel to its rows.
    entrants: Vec<Entrant>,
    /// The side queues `Q_l`, compacted into one flat pool: a round's
    /// non-best children are all known at divide time, so each round is
    /// a run in `side_pool` pre-sorted in the canonical order and
    /// "promote the next best of round `l`" is a cursor bump — no
    /// per-round heap, no per-round allocation. A spec's `parent` is
    /// the entrant id of the match its round popped.
    side_pool: Vec<CandidateSpec>,
    /// Per round: `(cursor, end)` into `side_pool`.
    side_runs: Vec<(u32, u32)>,
    /// Reused divide output buffer (cleared each pop).
    div_buf: Vec<Child>,
    use_side_queues: bool,
    /// Side-run cursor bumps so far (the one [`TopkCounters`] term the
    /// structures above do not already record).
    promotions: u64,
}

impl TopkEnumerator {
    /// Builds the enumerator: O(m_R) list construction + top-1. The
    /// graph is shared, not copied; the enumerator owns its handle, so
    /// it can be parked in a session table and moved across threads.
    pub fn new(rg: Arc<RuntimeGraph>) -> Self {
        Self::with_side_queues(rg, true)
    }

    /// As [`Self::new`], with the `Q_l` optimization toggleable (the
    /// §3.3 entry of `tests/paper_claims.rs` compares the two): off,
    /// every child enters `Q` with a row of its own — the same stream at
    /// up to `n_T` pushes per pop.
    pub fn with_side_queues(rg: Arc<RuntimeGraph>, use_side_queues: bool) -> Self {
        let bs = BsData::compute(&rg);
        let lists = SlotLists::build_full(&rg, &bs);
        Self::from_lists(rg, lists, use_side_queues)
    }

    /// The partitioned form over *shared* [`SlotTemplates`]: enumerates
    /// only matches whose *root* data node lies in `shard` — exactly
    /// what [`Self::new`] produces, filtered to the shard's roots. Lists
    /// build on demand ([`SlotLists::from_templates`]), so several
    /// enumerators — the shards of one `ParTopk` run, or any number of
    /// sessions of one cached [`QueryPlan`] — fill each slot list once
    /// between them instead of once each.
    pub fn from_templates(templates: Arc<SlotTemplates>, shard: ShardSpec) -> Self {
        let rg = Arc::clone(templates.runtime_graph());
        let lists = SlotLists::from_templates(templates, shard);
        Self::from_lists(rg, lists, true)
    }

    /// Algorithm 1 over a shared [`QueryPlan`]: the run-time graph,
    /// `bs` pass and slot templates come from the plan (built on its
    /// first use, shared ever after), so constructing this enumerator
    /// on a warm plan performs **zero** candidate discovery or storage
    /// I/O.
    pub fn from_plan(plan: &QueryPlan) -> Self {
        Self::from_templates(Arc::clone(plan.slot_templates()), ShardSpec::full())
    }

    /// Work done so far, read off the structures themselves: every
    /// pop opens one round, every `Q` push appends one entrant and one
    /// row.
    #[doc(hidden)]
    pub fn counters(&self) -> TopkCounters {
        TopkCounters {
            pops: self.side_runs.len() as u64 - 1,
            q_pushes: self.q.entrants(),
            promotions: self.promotions,
            row_words: self.q.row_words(),
        }
    }

    fn from_lists(rg: Arc<RuntimeGraph>, mut lists: SlotLists, use_side_queues: bool) -> Self {
        let tree = rg.query().tree();
        let mut core = LawlerCore::new(tree);
        let init = core.initial_candidate(&mut lists);
        // Capacity hint: every root candidate enters `Q` at least once
        // before the stream ends, so the (shard-restricted) root list
        // length is a cheap lower-bound-flavored estimate.
        let hint = lists.root.len().clamp(16, 1 << 16);
        let q = RowQueue::new(tree.len(), hint);
        let mut it = TopkEnumerator {
            rg,
            core,
            lists,
            q,
            entrants: Vec::with_capacity(hint),
            side_pool: Vec::new(),
            side_runs: vec![(0, 0)],
            div_buf: Vec::new(),
            use_side_queues,
            promotions: 0,
        };
        if let Some(init) = init {
            it.enter_q(init, 0);
        }
        it
    }

    /// Gives `spec` its row — the parent's with the replaced subtree
    /// re-derived — and pushes it onto `Q` as a child of `round`.
    fn enter_q(&mut self, spec: CandidateSpec, round: u32) {
        self.q.enter(&mut self.core, &mut self.lists, spec);
        self.entrants.push(Entrant {
            div_pos: spec.div_pos(),
            rank_at_div: spec.rank,
            round,
        });
    }
}

impl Iterator for TopkEnumerator {
    type Item = ScoredMatch;

    fn next(&mut self) -> Option<ScoredMatch> {
        let (score, id) = self.q.pop()?;
        let Entrant {
            div_pos,
            rank_at_div,
            round: from_round,
        } = self.entrants[id as usize];
        // Promote the next best of the round this candidate came from:
        // runs are pre-sorted, so this is the next pool entry.
        let (cur, end) = &mut self.side_runs[from_round as usize];
        if cur < end {
            let next_best = self.side_pool[*cur as usize];
            *cur += 1;
            self.promotions += 1;
            self.enter_q(next_best, from_round);
        }
        // This pop's round is the index its run gets in `side_runs`.
        let round = self.side_runs.len() as u32;
        let mut children = std::mem::take(&mut self.div_buf);
        let popped = Popped {
            id,
            score,
            div_pos,
            rank_at_div,
        };
        self.core
            .divide_into(&mut self.lists, self.q.row(id), popped, &mut children);
        // Algorithm 1 over static lists: unknown ranks are empty
        // subspaces (Lemma 3.2), dropped here.
        children.retain(|c| c.known);
        let start = self.side_pool.len() as u32;
        if self.use_side_queues {
            // Best child goes to Q, the rest become this round's run.
            children.sort_unstable_by(Child::cmp_sibling);
            let mut in_order = children.iter().map(|c| c.spec);
            if let Some(best) = in_order.next() {
                self.enter_q(best, round);
            }
            self.side_pool.extend(in_order);
        } else {
            for c in &children {
                self.enter_q(c.spec, round);
            }
        }
        self.side_runs.push((start, self.side_pool.len() as u32));
        self.div_buf = children;
        let rg = &self.rg;
        let row = self.q.row(id);
        let assignment = rg
            .query()
            .tree()
            .node_ids()
            .map(|u| rg.node(u, row[u.index()]))
            .collect();
        Some(ScoredMatch { score, assignment })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::{LabeledGraph, NodeId};
    use ktpm_query::{ResolvedQuery, TreeQuery};
    use ktpm_storage::MemStore;

    fn run(g: &LabeledGraph, query: &str, k: usize, side: bool) -> Vec<ScoredMatch> {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(g));
        let rg = RuntimeGraph::load(&q, &store);
        TopkEnumerator::with_side_queues(Arc::new(rg), side)
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
        // Whole matches, in order: the side queues are a cost
        // optimization, the stream is the canonical one either way.
        let g = paper_graph();
        for query in ["a -> b\na -> c\nc -> d\nc -> e", "c -> *#1\nc -> *#2"] {
            let with = run(&g, query, 50, true);
            let without = run(&g, query, 50, false);
            assert!(!with.is_empty());
            assert_eq!(with, without, "{query:?}");
        }
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
        let want: Vec<ScoredMatch> = crate::brute::all_matches(&rg)
            .into_iter()
            .take(50)
            .collect();
        let mut shared = TopkEnumerator::new(rg);
        assert_send(&shared);
        // The enumerator owns its graph handle, so another thread can
        // drive it.
        let got: Vec<ScoredMatch> = std::thread::spawn(move || shared.by_ref().take(50).collect())
            .join()
            .unwrap();
        assert_eq!(want, got);
    }

    #[test]
    fn sharded_enumerators_partition_the_full_stream() {
        // A 1-way "shard" reproduces the full stream byte for byte
        // (on-demand lists must not change anything), and an n-way split
        // partitions it: a shard's stream is exactly the full stream
        // filtered to the roots it owns — same matches, same order.
        let g = paper_graph();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d\nc -> e")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        let rg = Arc::new(RuntimeGraph::load(&q, &store));
        let bs = Arc::new(BsData::compute(&rg));
        let templates = Arc::new(SlotTemplates::new(Arc::clone(&rg), bs));
        let full: Vec<ScoredMatch> = TopkEnumerator::new(rg).collect();
        assert!(!full.is_empty());

        let one: Vec<ScoredMatch> =
            TopkEnumerator::from_templates(Arc::clone(&templates), ShardSpec::full()).collect();
        assert_eq!(one, full);

        for n in [2usize, 3, 5] {
            let mut total = 0;
            for spec in ShardSpec::split(n) {
                let part: Vec<ScoredMatch> =
                    TopkEnumerator::from_templates(Arc::clone(&templates), spec).collect();
                let want: Vec<ScoredMatch> = full
                    .iter()
                    .filter(|m| spec.contains(m.assignment[0]))
                    .cloned()
                    .collect();
                assert_eq!(part, want, "shard {spec} of {n}");
                total += part.len();
            }
            assert_eq!(total, full.len(), "{n}-way partition");
        }
    }

    /// The original clone-based Lawler driver, retained as a test
    /// referee: every popped match stores its full `Vec<u32>`
    /// assignment, `materialize`/`divide` clone it per call, `Q` and
    /// the per-round side queues are binary heaps keyed `(score,
    /// insertion seq)`, so ties leave in insertion order. Sorted by
    /// `canonical_prefix` it is the stream `Topk` must pop natively,
    /// **element for element**.
    mod clone_reference {
        use super::super::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

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

    /// The first `k` matches of a non-decreasing-score stream in the
    /// canonical order: pull until `k` matches and a score change,
    /// sort, truncate.
    fn canonical_prefix(it: impl Iterator<Item = ScoredMatch>, k: usize) -> Vec<ScoredMatch> {
        let mut out: Vec<ScoredMatch> = Vec::new();
        for m in it {
            if out.len() >= k && out.last().is_none_or(|last| m.score > last.score) {
                break;
            }
            out.push(m);
        }
        out.sort_unstable_by(|a, b| (a.score, &a.assignment).cmp(&(b.score, &b.assignment)));
        out.truncate(k);
        out
    }

    mod arena_vs_clone_reference {
        use super::clone_reference::CloneEnumerator;
        use super::*;
        use ktpm_workload::{generate, random_tree_query, GraphSpec, QuerySpec};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            /// The tentpole's referee: on random workload graphs and
            /// queries, the *raw* `Topk` stream — no adapter — equals
            /// the retained clone-based driver put into the canonical
            /// order, element for element, across a resume split.
            #[test]
            fn arena_topk_equals_clone_reference_stream(
                nodes in 20..120usize,
                seed in 0..10_000u64,
                size in 2..7usize,
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
                    let rg = Arc::new(RuntimeGraph::load(&resolved, &store));
                    let want = canonical_prefix(CloneEnumerator::new(&rg), k);
                    // Split consumption at `pause` to exercise parked
                    // state across the resume boundary.
                    let j = pause.min(k);
                    let mut it = TopkEnumerator::new(rg);
                    let mut got: Vec<ScoredMatch> = it.by_ref().take(j).collect();
                    got.extend(it.by_ref().take(k - j));
                    prop_assert_eq!(it.counters().pops, got.len() as u64);
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    /// A wildcard star over a unit-weight graph whose first tie class
    /// has over a thousand members, and its store.
    pub(crate) fn tie_star() -> (ResolvedQuery, MemStore) {
        use ktpm_workload::{generate, GraphSpec};
        let g = generate(&GraphSpec {
            nodes: 300,
            labels: 3,
            label_skew: 0.3,
            avg_out_degree: 4.0,
            community: 50,
            cross_fraction: 0.2,
            weight_range: (1, 1),
            seed: 0xB0D,
        });
        let q = TreeQuery::parse("L0 -> *#1\nL0 -> *#2")
            .unwrap()
            .resolve(g.interner());
        (q, MemStore::new(ClosureTables::compute(&g)))
    }

    /// The delay bound, checked by arithmetic on the enumerator's own
    /// counters rather than a stopwatch: on [`tie_star`], the first
    /// match costs one pop and every further match one more, each pop
    /// pushing at most two candidates (the round's best child and one
    /// promotion) and writing at most two rows.
    #[test]
    fn k_matches_cost_k_pops_and_two_rows_each() {
        let (q, store) = tie_star();
        let rg = Arc::new(RuntimeGraph::load(&q, &store));
        let n_t = q.len() as u64;
        let mut it = TopkEnumerator::new(Arc::clone(&rg));
        assert_eq!(
            it.counters(),
            TopkCounters {
                pops: 0,
                q_pushes: 1,
                promotions: 0,
                row_words: n_t
            },
            "only the top-1 candidate is queued before the first pull"
        );
        let first = it.next().expect("the star has matches");
        assert_eq!(it.counters().pops, 1, "the first match costs one pop");
        let mut before = it.counters();
        let mut tie_class = 1;
        for k in 2..=3_000u64 {
            let m = it.next().expect("the star has thousands of matches");
            tie_class += u64::from(m.score == first.score);
            let now = it.counters();
            assert_eq!(now.pops, k, "k matches cost k pops");
            assert!(now.q_pushes - before.q_pushes <= 2, "match {k}: {now:?}");
            assert!(
                now.promotions - before.promotions <= 1,
                "match {k}: {now:?}"
            );
            assert!(
                now.row_words - before.row_words <= 2 * n_t,
                "match {k}: {now:?}"
            );
            before = now;
        }
        assert!(
            tie_class >= 1_000,
            "first tie class has {tie_class} members"
        );
        // Without the side queues every child enters `Q` directly:
        // same stream (`side_queues_do_not_change_results`), no
        // promotions, up to n_T pushes a pop — never fewer in total
        // than with them, which only defer pushes.
        let mut flat = TopkEnumerator::with_side_queues(rg, false);
        assert_eq!(flat.by_ref().take(3_000).count(), 3_000);
        let c = flat.counters();
        assert_eq!((c.pops, c.promotions), (3_000, 0));
        assert!(
            c.q_pushes >= before.q_pushes && c.q_pushes <= 1 + n_t * c.pops,
            "{c:?} against {before:?}"
        );
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
        let all: Vec<_> = TopkEnumerator::new(Arc::new(rg)).collect();
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
