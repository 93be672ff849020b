//! Match representation: the compact candidate encoding of §3.3.
//!
//! Following "Recovering the Match from Score", a candidate produced by
//! a subspace division is **not** stored as a full assignment: it is a
//! link to the popped match that generated it, the replaced position,
//! the rank of the replacement inside the relevant `L`/`H` list, and
//! the score (computed in O(1) as the parent's score plus the local key
//! difference).
//!
//! Both enumerators keep one full row per candidate that enters their
//! queue `Q` (`crate::lawler::RowQueue`) and nothing else per match: a
//! popped match is its row, and the specs divided from it name it by
//! the row's index. `Topk-EN`'s parked candidates read single
//! positions of earlier matches the same way, and certification
//! guarantees those rows never go stale (see `crate::enhanced`).

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
/// `(key, a, b)` triple. One flat 16-byte struct instead of a nested
/// `Reverse<(Score, u32, u32)>` tuple — `Topk-EN` keys its parked heap
/// as `(score, park id, version)`.
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
}
