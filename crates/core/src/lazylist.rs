//! The `L`/`H` list pair of §3.3 as one structure.
//!
//! A [`LazySortedList`] keeps the globally smallest `|H|` elements in a
//! sorted prefix `H` (`sorted`) and the rest in a binary min-heap `L`
//! (`heap`) — built in O(n) with a single scan for the minimum, exactly
//! as §3.3 prescribes. Rank-r access materializes the prefix lazily:
//! `O(1)` when rank `r ≤ |H| + 1` (the paper's Line-13 case peeks the
//! heap top without popping), `O(log n)` per heap pop otherwise (the
//! Line-10 chain).
//!
//! Elements order by `(key, payload)`: equal keys rank by payload,
//! whether the list was built with them or they were inserted later.
//!
//! For the priority-based algorithms (§4) the list also supports
//! [`LazySortedList::insert`]: an element below the current prefix
//! maximum is placed inside the prefix at its `(key, payload)` position.
//! Ranks already handed out to certified matches never shift: `Topk-EN`
//! certifies a candidate only when its score is *strictly* below the
//! `Q_g` bound, and by Theorem 4.1 every match through a not-yet-loaded
//! edge scores at least that bound, so every later insert into a list a
//! certified candidate or emitted match uses carries a key strictly
//! greater than each element it uses there (see `crate::enhanced`).

use ktpm_graph::Score;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One list element: `(key, payload)`.
type Entry = (Score, u32);

/// A lazily-sorted list with heap tail; see module docs.
#[derive(Debug, Clone, Default)]
pub struct LazySortedList {
    /// `H`: the globally smallest `sorted.len()` elements, ascending.
    sorted: Vec<Entry>,
    /// `L`: everything else.
    heap: BinaryHeap<Reverse<Entry>>,
}

impl LazySortedList {
    /// Builds from unsorted `(key, payload)` items in O(n): one scan to
    /// find the minimum (placed in `H`), the rest heapified.
    ///
    /// Equal keys rank by **payload**, ascending, whatever order the
    /// items arrive in. Both enumerators rest on this: payloads are
    /// candidate indices, candidates ascend by data node id, so a list's
    /// rank-1 element is the lexicographically smallest of its cheapest
    /// ones — which makes a subspace's representative ("list minimum at
    /// every free position") its `(score, assignment)`-minimum, and lets
    /// the enumerators pop in the canonical order directly (see
    /// `crate::lawler`).
    pub fn new(mut items: Vec<(Score, u32)>) -> Self {
        let mut list = LazySortedList::default();
        let Some(min_pos) = items
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| **e)
            .map(|(i, _)| i)
        else {
            return list;
        };
        list.sorted.push(items.swap_remove(min_pos));
        list.heap = items.into_iter().map(Reverse).collect();
        list
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.sorted.len() + self.heap.len()
    }

    /// Whether the list has no elements.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty() && self.heap.is_empty()
    }

    /// The minimum element, `O(1)`. Stable across the list's lifetime
    /// except for inserts strictly below the current minimum.
    pub fn first(&self) -> Option<(Score, u32)> {
        match (self.sorted.first(), self.heap.peek()) {
            (Some(&e), _) | (None, Some(&Reverse(e))) => Some(e),
            (None, None) => None,
        }
    }

    /// The `r`-th smallest element (1-based).
    ///
    /// Ranks `≤ |H|` read the prefix in O(1); rank `|H| + 1` peeks the
    /// heap top without popping (the Theorem 3.2 fast path); deeper ranks
    /// pop the heap into the prefix (the Theorem 3.1 chain).
    pub fn rank(&mut self, r: usize) -> Option<(Score, u32)> {
        assert!(r >= 1, "ranks are 1-based");
        // Sanity: `new` keeps the minimum in `sorted`, but an
        // insert-into-empty list or pure-insert usage may leave the prefix
        // empty; normalize so prefix reads below stay correct.
        if self.sorted.is_empty() {
            match self.heap.pop() {
                Some(Reverse(e)) => self.sorted.push(e),
                None => return None,
            }
        }
        while self.sorted.len() < r.saturating_sub(1) {
            match self.heap.pop() {
                Some(Reverse(e)) => self.sorted.push(e),
                None => return None,
            }
        }
        if r <= self.sorted.len() {
            Some(self.sorted[r - 1])
        } else {
            debug_assert_eq!(r, self.sorted.len() + 1);
            self.heap.peek().map(|&Reverse(e)| e)
        }
    }

    /// Inserts `(key, payload)`, preserving the prefix/heap invariant
    /// (`max(H) ≤ min(L)`). Equal keys rank by payload, as in
    /// [`Self::new`].
    pub fn insert(&mut self, key: Score, val: u32) {
        let entry = (key, val);
        match self.sorted.last() {
            Some(&last) if entry < last => {
                let pos = self.sorted.partition_point(|&e| e < entry);
                self.sorted.insert(pos, entry);
            }
            _ => self.heap.push(Reverse(entry)),
        }
    }

    /// Number of elements already materialized in the sorted prefix.
    pub fn prefix_len(&self) -> usize {
        self.sorted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(list: &mut LazySortedList) -> Vec<Score> {
        (1..=list.len()).map(|r| list.rank(r).unwrap().0).collect()
    }

    #[test]
    fn build_puts_min_in_prefix() {
        let l = LazySortedList::new(vec![(5, 0), (2, 1), (9, 2)]);
        assert_eq!(l.first(), Some((2, 1)));
        assert_eq!(l.prefix_len(), 1);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn rank_returns_global_order() {
        let mut l = LazySortedList::new(vec![(5, 0), (2, 1), (9, 2), (3, 3), (7, 4)]);
        assert_eq!(keys(&mut l), vec![2, 3, 5, 7, 9]);
        assert_eq!(l.rank(6), None);
    }

    #[test]
    fn built_lists_break_key_ties_by_payload() {
        // Whatever the input order: `Topk`'s native canonical order
        // rests on rank-1 being the smallest payload of the cheapest.
        let mut l = LazySortedList::new(vec![(5, 9), (2, 7), (5, 1), (2, 3), (5, 4)]);
        assert_eq!(l.first(), Some((2, 3)));
        let all: Vec<_> = (1..=5).map(|r| l.rank(r).unwrap()).collect();
        assert_eq!(all, vec![(2, 3), (2, 7), (5, 1), (5, 4), (5, 9)]);
        // A later insert ranks among equal keys by payload too.
        l.insert(5, 0);
        assert_eq!(l.rank(3), Some((5, 0)));
        assert_eq!(l.rank(6), Some((5, 9)));
    }

    #[test]
    fn rank_two_peeks_without_popping() {
        let mut l = LazySortedList::new(vec![(5, 0), (2, 1), (9, 2)]);
        assert_eq!(l.rank(2), Some((5, 0)));
        assert_eq!(l.prefix_len(), 1, "rank |H|+1 must not pop");
        assert_eq!(l.rank(3), Some((9, 2)));
        assert_eq!(l.prefix_len(), 2, "rank |H|+2 pops exactly once");
    }

    #[test]
    fn empty_list() {
        let mut l = LazySortedList::new(vec![]);
        assert!(l.is_empty());
        assert_eq!(l.first(), None);
        assert_eq!(l.rank(1), None);
    }

    #[test]
    fn single_element() {
        let mut l = LazySortedList::new(vec![(4, 7)]);
        assert_eq!(l.rank(1), Some((4, 7)));
        assert_eq!(l.rank(2), None);
    }

    #[test]
    fn insert_into_heap_region() {
        let mut l = LazySortedList::new(vec![(2, 0), (8, 1)]);
        l.insert(5, 2);
        assert_eq!(keys(&mut l), vec![2, 5, 8]);
    }

    #[test]
    fn insert_into_materialized_prefix() {
        let mut l = LazySortedList::new(vec![(2, 0), (8, 1), (9, 2)]);
        assert_eq!(l.rank(3), Some((9, 2))); // materialize prefix [2,8]
        l.insert(5, 3);
        assert_eq!(keys(&mut l), vec![2, 5, 8, 9]);
    }

    #[test]
    fn equal_key_inserts_rank_by_payload() {
        let mut l = LazySortedList::new(vec![(2, 0), (5, 4), (9, 2)]);
        assert_eq!(l.rank(3), Some((9, 2))); // prefix [2,5]
                                             // Past the prefix maximum (5, 4): into the heap tail.
        l.insert(5, 9);
        l.insert(9, 0);
        // Below it: into the materialized prefix, ahead of the equal key.
        l.insert(5, 1);
        let all: Vec<_> = (1..=l.len()).map(|r| l.rank(r).unwrap()).collect();
        assert_eq!(all, vec![(2, 0), (5, 1), (5, 4), (5, 9), (9, 0), (9, 2)]);
    }

    #[test]
    fn insert_into_empty_then_rank() {
        let mut l = LazySortedList::new(vec![]);
        l.insert(7, 0);
        l.insert(3, 1);
        assert_eq!(l.first().map(|(k, _)| k), Some(3));
        assert_eq!(keys(&mut l), vec![3, 7]);
    }

    #[test]
    fn interleaved_inserts_and_ranks_stay_sorted() {
        let mut l = LazySortedList::new(vec![(10, 0), (20, 1)]);
        assert_eq!(l.rank(1), Some((10, 0)));
        l.insert(15, 2);
        l.insert(25, 3);
        assert_eq!(l.rank(2), Some((15, 2)));
        l.insert(12, 4);
        assert_eq!(keys(&mut l), vec![10, 12, 15, 20, 25]);
    }

    #[test]
    fn large_randomized_consistency() {
        let mut state = 0xABCDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let items: Vec<(Score, u32)> = (0..200).map(|i| ((next() % 50) as Score, i)).collect();
        let mut reference: Vec<Score> = items.iter().map(|&(k, _)| k).collect();
        let mut l = LazySortedList::new(items);
        // Interleave inserts with rank queries.
        for i in 0..100 {
            let k = (next() % 50) as Score;
            let r = (next() % 20 + 1) as usize;
            let _ = l.rank(r);
            l.insert(k, 1000 + i);
            reference.push(k);
        }
        reference.sort_unstable();
        assert_eq!(keys(&mut l), reference);
    }
}
