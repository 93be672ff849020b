//! Match representation: the compact candidate encoding of §3.3 and the
//! arena-backed deviation encoding behind `Topk-EN`'s popped matches.
//!
//! Following "Recovering the Match from Score", a candidate produced by
//! a subspace division is **not** stored as a full assignment: it is a
//! link to the popped match that generated it, the replaced position,
//! the rank of the replacement inside the relevant `L`/`H` list, and
//! the score (computed in O(1) as the parent's score plus the local key
//! difference).
//!
//! `Topk` keeps one full row per candidate that enters its queue (see
//! `crate::lawler`) and needs nothing else. `Topk-EN` must read single
//! positions of arbitrary earlier matches while its lists still grow,
//! so its popped matches use the same idea one level up
//! ([`MatchArena`]): each one is a compact record `(parent id, div_pos,
//! rank_at_div, score)` plus a *patch* — the `(position, candidate)`
//! pairs this match changed relative to its parent (the replaced
//! position and its re-derived subtree, recorded at pop time so
//! reconstruction never depends on later list growth). All patches live
//! in one flat pool; nothing in the pop → divide → emit cycle allocates
//! per match. Full assignments are rebuilt by a parent-pointer walk
//! bounded by periodic checkpoints (a record whose chain depth reaches
//! [`MatchArena::CHECKPOINT_DEPTH`] stores its whole row, so walks are
//! O(depth × patch) with a small constant).

use ktpm_graph::{NodeRow, Score};

/// A fully-materialized top-k result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoredMatch {
    /// Total penalty score (Definition 2.2).
    pub score: Score,
    /// Mapped data node per query node, in the query's BFS node order.
    /// Inline (allocation-free) for queries up to
    /// [`NodeRow::INLINE`] nodes.
    pub assignment: NodeRow,
}

/// Sentinel "no parent" id (the initial top-1 candidate).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// A compact, not-yet-materialized candidate (one subspace's best match).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CandidateSpec {
    /// Score of the candidate match.
    pub score: Score,
    /// Id of the popped match this candidate replaces one node of
    /// (`NO_PARENT` for the initial top-1 candidate).
    pub parent: u32,
    /// The replaced position (query node BFS index; 0 = root).
    pub pos: u32,
    /// Rank of the replacement within the `(parent candidate, slot)` list.
    pub rank: u32,
}

impl CandidateSpec {
    /// Where the candidate's own division starts once it is popped:
    /// its replaced position — except for the initial top-1, which
    /// divides everywhere.
    pub fn div_pos(&self) -> u32 {
        if self.parent == NO_PARENT {
            NO_PARENT
        } else {
            self.pos
        }
    }
}

/// One subspace produced by dividing a popped match.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Child {
    pub spec: CandidateSpec,
    /// Whether the replacement rank exists yet. Unknown children carry
    /// score `Score::MAX`: Algorithm 1 drops them (empty subspaces,
    /// Lemma 3.2), Algorithm 3 parks them until more edges load.
    pub known: bool,
    /// Whether the replacement's candidate index is below the one the
    /// popped match holds at `spec.pos` (`false` when unknown). Two
    /// children of one match first differ at the smaller of their
    /// positions — one holds its replacement there, the other the
    /// parent's node — so this bit orders siblings by assignment
    /// without their rows; see [`Child::cmp_sibling`].
    pub before_parent: bool,
}

impl Child {
    /// The canonical `(score, assignment)` order between two children
    /// of the same popped match, in O(1).
    pub fn cmp_sibling(&self, other: &Child) -> std::cmp::Ordering {
        use std::cmp::Ordering::{Equal, Greater, Less};
        self.spec.score.cmp(&other.spec.score).then_with(|| {
            match self.spec.pos.cmp(&other.spec.pos) {
                Less if self.before_parent => Less,
                Less => Greater,
                Greater if other.before_parent => Greater,
                Greater => Less,
                Equal => Equal,
            }
        })
    }
}

/// A compact min-heap entry: `BinaryHeap<HeapEntry>` pops the smallest
/// `(key, a, b)` triple. One flat 16-byte struct instead of the nested
/// `Reverse<(Score, u32, u32)>` tuples the queues used to hold —
/// `Topk-EN` keys its `Q` as `(score, insertion seq, spec id)` and its
/// parked heap as `(score, spec id, version)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeapEntry {
    /// Primary key (a match score).
    pub key: Score,
    /// First tie-breaker.
    pub a: u32,
    /// Second tie-breaker / payload.
    pub b: u32,
}

impl Ord for HeapEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the std max-heap pops the minimum.
        (other.key, other.a, other.b).cmp(&(self.key, self.a, self.b))
    }
}

impl PartialOrd for HeapEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One popped match's compact record; see module docs.
#[derive(Debug, Clone, Copy)]
struct DevRecord {
    /// Arena id of the popped match this one deviates from
    /// (`NO_PARENT` for the initial top-1).
    parent: u32,
    /// Total score.
    score: Score,
    /// The position where this match's subspace division starts (`j` in
    /// §3.2), `NO_PARENT` for the initial top-1 (divides everywhere).
    div_pos: u32,
    /// The rank of this match's element at `div_pos` within its list
    /// (`|U_j| + 1`); drives the Theorem 3.1 chain.
    rank_at_div: u32,
    /// This record's `(position, candidate)` patch in the shared pool.
    patch_start: u32,
    patch_len: u32,
    /// Parent-pointer distance to the nearest self-contained record
    /// (0 = this record's patch covers every position).
    depth: u32,
}

/// The arena of `Topk-EN`'s popped matches; see module docs. One arena
/// per enumerator — lazy `ParTopk` shards each own one, so the k-way
/// merge stays lock-free.
#[derive(Debug)]
pub(crate) struct MatchArena {
    n_t: usize,
    recs: Vec<DevRecord>,
    /// Flat `(position, candidate index)` patch pool.
    pool: Vec<(u32, u32)>,
    /// Scratch row: the assignment of `scratch_for` (or the row being
    /// built between `begin` and `commit`).
    scratch: Vec<u32>,
    /// Arena id the scratch currently holds; `NO_PARENT` when dirty.
    scratch_for: u32,
    /// Walk scratch for reconstruction (record ids, newest first).
    walk: Vec<u32>,
}

impl MatchArena {
    /// A chain of deviation records longer than this is cut by storing
    /// the full row: reconstruction walks are bounded, at ~1/32 of the
    /// memory a full-row-per-match (clone) encoding would pay.
    pub(crate) const CHECKPOINT_DEPTH: u32 = 32;

    /// An empty arena for `n_t`-node queries, sized for about
    /// `hint` popped matches up front.
    pub(crate) fn new(n_t: usize, hint: usize) -> Self {
        let hint = hint.min(1 << 16);
        MatchArena {
            n_t,
            recs: Vec::with_capacity(hint),
            // Most deviations patch a leaf (1 entry) or a small
            // subtree; 2/record absorbs typical shapes.
            pool: Vec::with_capacity(hint.saturating_mul(2)),
            scratch: vec![u32::MAX; n_t],
            scratch_for: NO_PARENT,
            walk: Vec::new(),
        }
    }

    pub(crate) fn score(&self, id: u32) -> Score {
        self.recs[id as usize].score
    }

    pub(crate) fn div_pos(&self, id: u32) -> u32 {
        self.recs[id as usize].div_pos
    }

    pub(crate) fn rank_at_div(&self, id: u32) -> u32 {
        self.recs[id as usize].rank_at_div
    }

    /// Starts building a new match deviating from `parent`: returns the
    /// scratch row loaded with the parent's assignment (all-`MAX` for
    /// `NO_PARENT`) for the caller to overwrite. Memoized: when the
    /// scratch already holds `parent` (the common chain case) nothing
    /// is walked.
    pub(crate) fn begin(&mut self, parent: u32) -> &mut [u32] {
        if parent == NO_PARENT {
            self.scratch.fill(u32::MAX);
        } else {
            self.load(parent);
        }
        // The scratch is about to diverge from `parent`.
        self.scratch_for = NO_PARENT;
        &mut self.scratch
    }

    /// Finishes the record begun by [`Self::begin`], returning its id.
    /// `changed[p]` marks the positions the caller rewrote — they
    /// become the record's patch.
    pub(crate) fn commit(
        &mut self,
        parent: u32,
        score: Score,
        div_pos: u32,
        rank_at_div: u32,
        changed: &[bool],
    ) -> u32 {
        let depth = if parent == NO_PARENT {
            0
        } else {
            self.recs[parent as usize].depth + 1
        };
        let patch_start = self.pool.len() as u32;
        let (patch_len, depth) = if depth >= Self::CHECKPOINT_DEPTH || parent == NO_PARENT {
            // Self-contained record: store the whole row so walks
            // terminate here. (The initial match writes every position
            // anyway; checkpoints pay n_t entries once per
            // CHECKPOINT_DEPTH chain links.)
            self.pool
                .extend((0..self.n_t).map(|p| (p as u32, self.scratch[p])));
            (self.n_t as u32, 0)
        } else {
            let start = self.pool.len();
            self.pool.extend(
                (0..self.n_t)
                    .filter(|&p| changed[p])
                    .map(|p| (p as u32, self.scratch[p])),
            );
            ((self.pool.len() - start) as u32, depth)
        };
        let id = self.recs.len() as u32;
        self.recs.push(DevRecord {
            parent,
            score,
            div_pos,
            rank_at_div,
            patch_start,
            patch_len,
            depth,
        });
        self.scratch_for = id;
        id
    }

    fn is_full(&self, id: u32) -> bool {
        self.recs[id as usize].patch_len as usize == self.n_t
    }

    fn apply_patch(&mut self, id: u32) {
        let r = self.recs[id as usize];
        let start = r.patch_start as usize;
        for i in start..start + r.patch_len as usize {
            let (pos, node) = self.pool[i];
            self.scratch[pos as usize] = node;
        }
    }

    /// Loads match `id`'s full assignment into the scratch row
    /// (allocation-free; memoized on `scratch_for`) and returns it:
    /// a walk over ancestors up to the nearest self-contained record,
    /// patches applied oldest-first.
    pub(crate) fn load(&mut self, id: u32) -> &[u32] {
        if self.scratch_for != id {
            let mut walk = std::mem::take(&mut self.walk);
            walk.clear();
            let mut cur = id;
            loop {
                walk.push(cur);
                if self.is_full(cur) {
                    break;
                }
                cur = self.recs[cur as usize].parent;
                debug_assert_ne!(cur, NO_PARENT, "walks end at a full record");
            }
            for rid in walk.iter().rev() {
                self.apply_patch(*rid);
            }
            self.walk = walk;
            self.scratch_for = id;
        }
        &self.scratch
    }

    /// The candidate at one `pos`ition of match `id`, without
    /// materializing the row: the parent-pointer walk stops at the
    /// first (newest) patch covering `pos`. Used by the parked-spec
    /// machinery of `Topk-EN`, which only ever needs single positions
    /// of arbitrary (not-current) parents.
    pub(crate) fn node_at(&self, id: u32, pos: u32) -> u32 {
        if self.scratch_for == id {
            return self.scratch[pos as usize];
        }
        let mut cur = id;
        loop {
            let r = &self.recs[cur as usize];
            if r.patch_len as usize == self.n_t {
                // Full rows are written in position order: direct index.
                return self.pool[r.patch_start as usize + pos as usize].1;
            }
            let start = r.patch_start as usize;
            // Newest-first: within one record later writes win, so scan
            // the patch backwards.
            for i in (start..start + r.patch_len as usize).rev() {
                let (p, node) = self.pool[i];
                if p == pos {
                    return node;
                }
            }
            cur = r.parent;
            debug_assert_ne!(cur, NO_PARENT, "walks end at a full record");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn heap_entry_pops_minimum_triple() {
        let mut h = BinaryHeap::new();
        for (key, a, b) in [(5u64, 1, 1), (2, 9, 9), (2, 3, 7), (2, 3, 4)] {
            h.push(HeapEntry { key, a, b });
        }
        let order: Vec<_> = std::iter::from_fn(|| h.pop().map(|e| (e.key, e.a, e.b))).collect();
        assert_eq!(order, vec![(2, 3, 4), (2, 3, 7), (2, 9, 9), (5, 1, 1)]);
    }

    /// Drives an arena alongside a plain clone-based mirror through a
    /// pseudo-random deviation tree: every `load`/`node_at` must agree
    /// with the mirror, across checkpoint boundaries.
    #[test]
    fn arena_reconstruction_matches_clone_mirror() {
        let n_t = 5usize;
        let mut arena = MatchArena::new(n_t, 8);
        let mut mirror: Vec<Vec<u32>> = Vec::new();
        let mut state = 0x5EEDu64;
        let mut rnd = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m) as u32
        };
        // Initial match.
        let init: Vec<u32> = (0..n_t as u32).map(|_| rnd(100)).collect();
        arena.begin(NO_PARENT).copy_from_slice(&init);
        assert_eq!(arena.commit(NO_PARENT, 0, NO_PARENT, 1, &[true; 5]), 0);
        mirror.push(init);
        // 200 deviations from random parents (long chains cross the
        // checkpoint depth).
        for i in 1..200u32 {
            // Bias towards the previous record so chains grow deep.
            let parent = if rnd(4) > 0 { i - 1 } else { rnd(i as u64) };
            let pos = rnd(n_t as u64);
            let scratch = arena.begin(parent);
            let mut row = mirror[parent as usize].clone();
            let mut changed = [false; 5];
            // Patch `pos` and a couple of later positions, as a real
            // subtree re-derivation would.
            for p in pos..n_t as u32 {
                if p == pos || rnd(2) == 0 {
                    let v = rnd(100);
                    scratch[p as usize] = v;
                    row[p as usize] = v;
                    changed[p as usize] = true;
                }
            }
            let id = arena.commit(parent, i as Score, pos, 2, &changed);
            assert_eq!(id, i);
            mirror.push(row);
        }
        // Point lookups against a *cold* scratch.
        for i in (0..200u32).rev() {
            for pos in 0..n_t as u32 {
                assert_eq!(
                    arena.node_at(i, pos),
                    mirror[i as usize][pos as usize],
                    "node_at({i}, {pos})"
                );
            }
        }
        // Full loads in pseudo-random order.
        for _ in 0..300 {
            let i = rnd(200);
            assert_eq!(arena.load(i), &mirror[i as usize][..], "load({i})");
        }
    }

    #[test]
    fn checkpoints_bound_walk_depth() {
        let n_t = 3usize;
        let mut arena = MatchArena::new(n_t, 8);
        arena.begin(NO_PARENT).copy_from_slice(&[0, 1, 2]);
        arena.commit(NO_PARENT, 0, NO_PARENT, 1, &[true; 3]);
        // One long Theorem-3.1 chain.
        for i in 1..200u32 {
            arena.begin(i - 1)[2] = 100 + i;
            arena.commit(i - 1, i as Score, 2, i + 1, &[false, false, true]);
        }
        for id in 0..200u32 {
            let d = arena.recs[id as usize].depth;
            assert!(d < MatchArena::CHECKPOINT_DEPTH, "depth {d} at {id}");
        }
        // Deep record reconstructs correctly despite the cut chains.
        assert_eq!(arena.load(199), &[0, 1, 299][..]);
        assert_eq!(arena.node_at(150, 2), 250);
    }
}
