//! The canonical output order and root-partitioned sub-enumerators.
//!
//! ## Why a canonical order exists
//!
//! Every enumerator in this workspace yields matches in non-decreasing
//! score order, but the paper leaves the order *within* an equal-score
//! group unspecified — and left alone it falls out of heap insertion
//! sequences, which differ between algorithms and (crucially) between
//! shard layouts of the same query. Partitioned execution re-merges
//! per-shard streams, so "same order as the sequential run" is only
//! meaningful once ties are broken deterministically.
//!
//! This module defines the workspace-wide **canonical order**:
//!
//! > ascending `(score, assignment)`, assignments compared
//! > lexicographically in query-BFS node order.
//!
//! Assignments are unique per match, so this is a total order. It is
//! independent of algorithm, shard count and thread schedule, which is
//! what makes the order-preservation argument for `ParTopk`
//! compositional:
//!
//! 1. each shard owns the matches rooted at its slice of the root
//!    candidate set ([`ktpm_storage::ShardSpec`] splits are disjoint
//!    and exhaustive, and a match has exactly one root);
//! 2. each shard's stream is in the canonical order — see below;
//! 3. a k-way merge keyed on `(score, assignment)` of canonically
//!    ordered disjoint streams is itself canonically ordered.
//!
//! Hence `ParTopk` with *any* shard count emits exactly the sequence of
//! [`crate::topk_full`] — order, scores and witnesses.
//!
//! ## Who pays for it
//!
//! The paper's enumerators pay nothing: the canonical order *is* the
//! heap order of `Topk` ([`crate::TopkEnumerator`]) and of `Topk-EN`
//! ([`crate::TopkEnEnumerator`], whose lists grow while it enumerates
//! but never below a rank a certified match uses). Ties compare
//! assignment rows, O(n_T) worst case. So `topk_full`, `topk_en`, the
//! [`crate::Algo::Topk`] and [`crate::Algo::TopkEn`] streams, both
//! kinds of `ParTopk` shard and kGPM's lazy (mtree+) tree engine emit
//! it natively — `k` matches cost `k` pops, with no look-ahead.
//!
//! The engines whose raw tie order is something else — `DP-B`, `DP-P`
//! and with them kGPM's DP-B (mtree) tree engine — go through the
//! [`Canonical`] adapter, which re-orders a stream without breaking
//! laziness by buffering one equal-score group at a time (legal because
//! scores never decrease). There the price is bounded lookahead:
//! emitting the first match of a score group requires having pulled the
//! whole group from the inner enumerator, so memory and delay are
//! O(largest equal-score group) — with hop-count scores, easily most of
//! the stream. Wrapping a stream that is already canonical is the
//! identity, at that price.

use crate::matches::ScoredMatch;
use std::collections::VecDeque;

/// An adaptor re-ordering a non-decreasing-score match stream into the
/// canonical `(score, assignment)` order; see module docs.
///
/// The group buffer persists across groups, so steady-state operation
/// performs no allocation: matches arrive with their assignment rows
/// already materialized at emission (inline for small queries), the
/// tiebreak compares those memoized rows directly — no re-walk, no
/// copy — and the buffer's capacity is recycled group after group.
pub struct Canonical<I> {
    inner: I,
    /// The current equal-score group, sorted once it is complete.
    group: VecDeque<ScoredMatch>,
    /// First match of the *next* group (pulled while closing a group).
    lookahead: Option<ScoredMatch>,
}

/// Wraps `inner` (which must yield non-decreasing scores) into the
/// canonical order.
pub fn canonical<I: Iterator<Item = ScoredMatch>>(inner: I) -> Canonical<I> {
    Canonical {
        inner,
        group: VecDeque::new(),
        lookahead: None,
    }
}

impl<I: Iterator<Item = ScoredMatch>> Iterator for Canonical<I> {
    type Item = ScoredMatch;

    fn next(&mut self) -> Option<ScoredMatch> {
        if let Some(m) = self.group.pop_front() {
            return Some(m);
        }
        // The buffer is empty here: refill it with the next complete
        // equal-score group (capacity reused from previous groups).
        let first = self.lookahead.take().or_else(|| self.inner.next())?;
        let score = first.score;
        self.group.push_back(first);
        loop {
            match self.inner.next() {
                Some(m) if m.score == score => self.group.push_back(m),
                boundary => {
                    debug_assert!(
                        boundary.as_ref().is_none_or(|m| m.score > score),
                        "inner stream must be non-decreasing in score"
                    );
                    self.lookahead = boundary;
                    break;
                }
            }
        }
        // Unstable is safe: assignments are pairwise distinct. The
        // deque was filled from empty, so this is one contiguous slice.
        self.group
            .make_contiguous()
            .sort_unstable_by(|a, b| a.assignment.cmp(&b.assignment));
        self.group.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_graph::NodeId;

    fn m(score: i64, a: &[u32]) -> ScoredMatch {
        ScoredMatch {
            score: score as ktpm_graph::Score,
            assignment: a.iter().map(|&v| NodeId(v)).collect(),
        }
    }

    #[test]
    fn sorts_within_equal_score_groups_only() {
        let raw = vec![
            m(1, &[3, 0]),
            m(1, &[0, 9]),
            m(1, &[0, 2]),
            m(4, &[7, 7]),
            m(5, &[1, 0]),
            m(5, &[0, 0]),
        ];
        let got: Vec<ScoredMatch> = canonical(raw.into_iter()).collect();
        let want = vec![
            m(1, &[0, 2]),
            m(1, &[0, 9]),
            m(1, &[3, 0]),
            m(4, &[7, 7]),
            m(5, &[0, 0]),
            m(5, &[1, 0]),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn lookahead_is_bounded_to_one_group() {
        // The adaptor must not drain the inner iterator beyond the group
        // boundary: after taking the whole first group, exactly one
        // boundary element may have been consumed.
        let raw = vec![m(1, &[1]), m(1, &[0]), m(2, &[5]), m(3, &[6])];
        let mut inner = raw.into_iter();
        let mut c = canonical(inner.by_ref());
        assert_eq!(c.next(), Some(m(1, &[0])));
        assert_eq!(c.next(), Some(m(1, &[1])));
        assert_eq!(c.next(), Some(m(2, &[5])));
        // The group-2 read consumed m(3) as lookahead; nothing further.
        assert_eq!(c.next(), Some(m(3, &[6])));
        assert_eq!(c.next(), None);
    }

    #[test]
    fn empty_and_single_streams() {
        assert_eq!(canonical(std::iter::empty()).count(), 0);
        let got: Vec<_> = canonical(std::iter::once(m(9, &[1, 2]))).collect();
        assert_eq!(got, vec![m(9, &[1, 2])]);
    }
}
