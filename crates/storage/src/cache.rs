//! A byte-budgeted LRU cache of verified on-disk blocks, keyed by
//! `(file id, file offset)` — the resident set behind
//! [`crate::PagedStore`]. A standalone store uses file id 0 throughout;
//! [`crate::ShardedStore`] / [`crate::RemoteStore`] share **one** cache
//! across all shard files, with each file's blocks namespaced by its
//! manifest position, so the byte budget bounds the whole snapshot and
//! a hot shard can evict a cold one's blocks.
//!
//! The cache itself is a plain (non-thread-safe) structure; the store
//! wraps it in a `Mutex` and forwards hit/miss/eviction/residency
//! deltas into [`crate::IoStats`]. Recency is tracked with a lazy
//! queue: every touch pushes a freshly stamped `(key, stamp)` entry
//! and eviction skips entries whose stamp is stale, so a hit is O(1)
//! amortized with no linked-list surgery.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cache key: `(file id, block offset within that file)`.
pub(crate) type BlockKey = (u32, u64);

struct Slot {
    data: Arc<Vec<u8>>,
    /// Stamp of this slot's *newest* queue entry; older queue entries
    /// for the same key are stale and skipped during eviction.
    stamp: u64,
}

/// LRU over verified block payloads. `budget` is in payload bytes;
/// `0` means unlimited (nothing is ever evicted).
pub(crate) struct BlockCache {
    map: HashMap<BlockKey, Slot>,
    lru: VecDeque<(BlockKey, u64)>,
    next_stamp: u64,
    resident: u64,
    budget: u64,
}

impl BlockCache {
    pub(crate) fn new(budget: u64) -> Self {
        BlockCache {
            map: HashMap::new(),
            lru: VecDeque::new(),
            next_stamp: 0,
            resident: 0,
            budget,
        }
    }

    fn touch(&mut self, key: BlockKey) -> u64 {
        self.next_stamp += 1;
        self.lru.push_back((key, self.next_stamp));
        self.next_stamp
    }

    /// Looks up the block at `key`, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: BlockKey) -> Option<Arc<Vec<u8>>> {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        let slot = self.map.get_mut(&key)?;
        slot.stamp = stamp;
        let data = Arc::clone(&slot.data);
        self.lru.push_back((key, stamp));
        self.compact();
        Some(data)
    }

    /// Inserts (or replaces) the block at `key`, then evicts
    /// least-recently-used blocks until the budget holds again. The
    /// block just inserted is never evicted, even when it alone
    /// exceeds the budget — a fetched block must survive long enough
    /// to be returned. Returns `(evicted_blocks, resident_bytes)`.
    pub(crate) fn insert(&mut self, key: BlockKey, data: Arc<Vec<u8>>) -> (u64, u64) {
        let bytes = data.len() as u64;
        let stamp = self.touch(key);
        if let Some(old) = self.map.insert(key, Slot { data, stamp }) {
            self.resident -= old.data.len() as u64;
        }
        self.resident += bytes;
        let mut evicted = 0u64;
        if self.budget > 0 {
            while self.resident > self.budget {
                let Some((victim, victim_stamp)) = self.lru.pop_front() else {
                    break;
                };
                if victim == key {
                    // The entry being inserted reached the front: it is
                    // the only live block left. Keep it.
                    self.lru.push_front((victim, victim_stamp));
                    break;
                }
                match self.map.get(&victim) {
                    Some(slot) if slot.stamp == victim_stamp => {
                        let slot = self.map.remove(&victim).expect("checked above");
                        self.resident -= slot.data.len() as u64;
                        evicted += 1;
                    }
                    _ => {} // stale queue entry (re-touched or replaced)
                }
            }
        }
        self.compact();
        (evicted, self.resident)
    }

    /// Prunes stale queue entries once they dominate, keeping the queue
    /// O(live blocks).
    fn compact(&mut self) {
        if self.lru.len() <= 2 * self.map.len() + 16 {
            return;
        }
        let map = &self.map;
        self.lru
            .retain(|&(key, stamp)| map.get(&key).is_some_and(|s| s.stamp == stamp));
    }

    /// Whether `key` is cached, without refreshing its recency.
    pub(crate) fn contains(&self, key: BlockKey) -> bool {
        self.map.contains_key(&key)
    }

    /// The byte budget; `0` means unlimited.
    pub(crate) fn budget(&self) -> u64 {
        self.budget
    }

    /// Live blocks currently cached.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Payload bytes currently resident.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![0u8; n])
    }

    fn k(off: u64) -> BlockKey {
        (0, off)
    }

    #[test]
    fn unlimited_budget_never_evicts() {
        let mut c = BlockCache::new(0);
        for off in 0..100u64 {
            let (ev, _) = c.insert(k(off), block(100));
            assert_eq!(ev, 0);
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.resident_bytes(), 10_000);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c = BlockCache::new(250);
        c.insert(k(0), block(100));
        c.insert(k(1), block(100));
        assert!(c.get(k(0)).is_some(), "refresh 0 so 1 is the LRU victim");
        let (ev, resident) = c.insert(k(2), block(100));
        assert_eq!(ev, 1);
        assert_eq!(resident, 200);
        assert!(c.get(k(1)).is_none(), "1 was evicted");
        assert!(c.get(k(0)).is_some() && c.get(k(2)).is_some());
    }

    #[test]
    fn oversized_block_survives_its_own_insert() {
        let mut c = BlockCache::new(50);
        let (ev, resident) = c.insert(k(7), block(200));
        assert_eq!(ev, 0);
        assert_eq!(resident, 200, "the just-inserted block is kept");
        assert!(c.get(k(7)).is_some());
        // The next insert evicts it.
        let (ev, resident) = c.insert(k(8), block(40));
        assert_eq!(ev, 1);
        assert_eq!(resident, 40);
        assert!(c.get(k(7)).is_none());
    }

    #[test]
    fn replacing_a_key_adjusts_residency() {
        let mut c = BlockCache::new(0);
        c.insert(k(3), block(100));
        c.insert(k(3), block(60));
        assert_eq!(c.len(), 1);
        assert_eq!(c.resident_bytes(), 60);
    }

    #[test]
    fn same_offset_in_different_files_are_distinct_blocks() {
        let mut c = BlockCache::new(0);
        c.insert((0, 64), block(10));
        c.insert((1, 64), block(20));
        assert_eq!(c.len(), 2);
        assert_eq!(c.resident_bytes(), 30);
        assert_eq!(c.get((0, 64)).unwrap().len(), 10);
        assert_eq!(c.get((1, 64)).unwrap().len(), 20);
    }

    #[test]
    fn budget_holds_under_churn() {
        let mut c = BlockCache::new(1000);
        let mut evicted = 0;
        for round in 0..10u64 {
            for off in 0..40u64 {
                let (ev, resident) = c.insert(k(off * 1000 + round % 3), block(100));
                evicted += ev;
                assert!(resident <= 1000, "budget violated: {resident}");
            }
        }
        assert!(evicted > 0);
        assert!(c.resident_bytes() <= 1000);
        // The lazy queue stays bounded relative to live blocks.
        assert!(c.lru.len() <= 2 * c.map.len() + 16);
    }
}
