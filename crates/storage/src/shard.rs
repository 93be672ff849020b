//! Data-node sharding for partitioned execution.
//!
//! A [`ShardSpec`] names one of `of` disjoint, exhaustive slices of the
//! data graph's node-id space (residue classes `id ≡ index (mod of)`).
//! The parallel enumerator (`ParTopk` in `ktpm-core`) restricts each
//! shard's *root* candidate set through such a spec: every match has
//! exactly one root node, so the specs of [`ShardSpec::split`]
//! partition the match universe — no match is lost and none is
//! produced twice, which is what lets shard streams be re-merged into
//! the exact global stream.
//!
//! The residue-class (strided) layout is chosen over contiguous ranges
//! because node ids in both generated and real graphs correlate with
//! age/community structure: striding spreads every community across
//! all shards, balancing per-shard match counts.
//!
//! The spec lives in the storage crate because it slices the stored
//! node space: shard-restricted views of one [`crate::SharedSource`]
//! (all shards share the same store handle) are taken per query by the
//! layers above, not by copying tables.
//!
//! The format-v5 paged layout is shard-aligned with these specs: every
//! destination node's `L` group starts on a fresh fixed-size block, so
//! no block holds entries of two nodes and the block sets touched by
//! different shards' root partitions are disjoint
//! ([`crate::PagedStore::group_block_ranges`] exposes the ranges).
//! Parallel shard workers therefore never re-fetch or re-verify each
//! other's blocks, and each warms the shared block cache only with its
//! own partition.

use ktpm_graph::NodeId;
use std::fmt;

/// One of `of` disjoint node-id slices; see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    index: u32,
    of: u32,
}

impl ShardSpec {
    /// The shard `index` of `of` total. Panics unless `index < of`.
    pub fn new(index: u32, of: u32) -> Self {
        assert!(of >= 1, "shard count must be at least 1");
        assert!(index < of, "shard index {index} out of range (of {of})");
        ShardSpec { index, of }
    }

    /// The trivial single-shard spec containing every node.
    pub fn full() -> Self {
        ShardSpec { index: 0, of: 1 }
    }

    /// All `n` shards of an `n`-way split (at least one), in order.
    pub fn split(n: usize) -> Vec<ShardSpec> {
        let of = n.max(1) as u32;
        (0..of).map(|index| ShardSpec { index, of }).collect()
    }

    /// Whether data node `v` belongs to this shard.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        v.0 % self.of == self.index
    }

    /// This shard's index within the split.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total shards in the split this spec belongs to.
    pub fn of(&self) -> u32 {
        self.of
    }

    /// Whether this spec admits every node (a 1-way split).
    pub fn is_full(&self) -> bool {
        self.of == 1
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_every_node() {
        for n in 1..8usize {
            let shards = ShardSpec::split(n);
            assert_eq!(shards.len(), n);
            for id in 0..100u32 {
                let owners = shards.iter().filter(|s| s.contains(NodeId(id))).count();
                assert_eq!(owners, 1, "node {id} must live in exactly one of {n}");
            }
        }
    }

    #[test]
    fn split_zero_clamps_to_one_full_shard() {
        let shards = ShardSpec::split(0);
        assert_eq!(shards, vec![ShardSpec::full()]);
        assert!(shards[0].is_full());
        assert!((0..50).all(|i| shards[0].contains(NodeId(i))));
    }

    #[test]
    fn strided_layout_balances_counts() {
        let shards = ShardSpec::split(4);
        for s in &shards {
            let owned = (0..1000u32).filter(|&i| s.contains(NodeId(i))).count();
            assert_eq!(owned, 250);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        ShardSpec::new(3, 3);
    }

    #[test]
    fn display_is_index_slash_of() {
        assert_eq!(ShardSpec::new(2, 4).to_string(), "2/4");
    }
}
