//! The table-backed read path, written once: the four bulk reads of
//! [`crate::ClosureSource`] answered from an in-memory [`PairTable`].
//!
//! [`crate::MemStore`], [`crate::LiveStore`] and
//! [`crate::OnDemandStore`] differ only in how they *find* the table of
//! a label pair (a map probe, the same under a read lock, a lazy SSSP
//! sweep); each fetches its own `Option<&PairTable>` and calls in here.
//! What lives here, and nowhere else:
//!
//! * **the logical I/O accounting** — an in-memory read counts the
//!   blocks, bytes and entries the same read would cost against the
//!   on-disk layout (a counted `D`/`E` section is one block of
//!   `count * entry + 4` bytes, an `L` run is `8` bytes an entry), so
//!   "edges loaded" comparisons work identically on every tier. An
//!   absent pair (`None`) reads nothing and counts nothing;
//! * **the cursor rule** — [`TableCursor`] shares its entry run with
//!   the table (an `Arc` and a range) and copies nothing, on open or on
//!   a pull. It holds no borrow and no lock, and a table is never
//!   changed in place: a [`crate::LiveStore`] delta that rebuilds the
//!   pair mid-stream replaces the table, so the cursor keeps streaming
//!   the graph version it was opened against (whether that stream is
//!   still wanted is the serving layer's version fence to decide).

use crate::format::L_ENTRY_BYTES;
use crate::iostats::IoStats;
use crate::source::EdgeCursor;
use ktpm_closure::{PairTable, SharedRuns};
use ktpm_graph::{Dist, NodeId};

/// `Dᵅᵦ` of `table`: per destination node its minimum incoming
/// distance, ascending node order.
pub(crate) fn load_d(table: Option<&PairTable>, io: &IoStats) -> Vec<(NodeId, Dist)> {
    let Some(t) = table else {
        return Vec::new();
    };
    let out: Vec<(NodeId, Dist)> = t
        .dst_nodes()
        .iter()
        .map(|&v| (v, t.min_incoming_dist(v).expect("non-empty group")))
        .collect();
    io.add_block((out.len() * 8 + 4) as u64);
    io.add_d_entries(out.len() as u64);
    out
}

/// `Eᵅᵦ` of `table`: per source node its minimum outgoing closure edge.
pub(crate) fn load_e(table: Option<&PairTable>, io: &IoStats) -> Vec<(NodeId, NodeId, Dist)> {
    let Some(t) = table else {
        return Vec::new();
    };
    let out = t.min_out().to_vec();
    io.add_block((out.len() * 12 + 4) as u64);
    io.add_e_entries(out.len() as u64);
    out
}

/// The whole `Lᵅᵦ` of `table` as `(src, dst, dist)` triples.
pub(crate) fn load_pair(table: Option<&PairTable>, io: &IoStats) -> Vec<(NodeId, NodeId, Dist)> {
    let Some(t) = table else {
        return Vec::new();
    };
    let out: Vec<_> = t.iter_edges().collect();
    io.add_block((out.len() * L_ENTRY_BYTES) as u64);
    io.add_edges(out.len() as u64);
    out
}

/// A cursor over `v`'s incoming run in `table` (ascending distance),
/// sharing the run — see the module docs — and serving `block_edges`
/// entries a pull. `table` must be the pair `(α, label(v))`; `None` is
/// the empty cursor.
pub(crate) fn incoming_cursor(
    table: Option<&PairTable>,
    v: NodeId,
    io: &IoStats,
    block_edges: usize,
) -> Box<dyn EdgeCursor + Send> {
    let (run, range) =
        table.map_or_else(|| (SharedRuns::default(), 0..0), |t| t.incoming_shared(v));
    Box::new(TableCursor {
        io: io.clone(),
        run,
        pos: range.start,
        end: range.end,
        block_edges,
    })
}

struct TableCursor {
    io: IoStats,
    /// The table's runs; this cursor streams `run[pos..end]`.
    run: SharedRuns,
    pos: usize,
    end: usize,
    block_edges: usize,
}

impl EdgeCursor for TableCursor {
    fn fill_block(&mut self, out: &mut Vec<(NodeId, Dist)>) -> usize {
        let take = (self.end - self.pos).min(self.block_edges);
        if take == 0 {
            return 0;
        }
        out.extend_from_slice(&self.run[self.pos..self.pos + take]);
        self.pos += take;
        self.io.add_block((take * L_ENTRY_BYTES) as u64);
        self.io.add_edges(take as u64);
        take
    }

    fn remaining(&self) -> usize {
        self.end - self.pos
    }
}

#[cfg(test)]
mod tests {
    use crate::{ClosureSource, IoSnapshot, LiveStore, MemStore, OnDemandStore};
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::paper_graph;
    use ktpm_graph::{Dist, LabelId, NodeId};

    /// Everything one fixed read sequence returns, plus what it cost.
    type Transcript = (
        Vec<Vec<(NodeId, Dist)>>,
        Vec<Vec<(NodeId, NodeId, Dist)>>,
        IoSnapshot,
    );

    /// Drives every read of the table path over every label pair —
    /// present or absent — and every `(source label, node)` cursor,
    /// pulling blocks with `next_block`, or with `fill_block` into one
    /// buffer the whole transcript reuses (`fill`).
    fn transcript(s: &dyn ClosureSource, labels: &[LabelId], fill: bool) -> Transcript {
        let (mut pairs, mut triples) = (Vec::new(), Vec::new());
        let sentinel = (NodeId(u32::MAX), Dist::MAX);
        let mut buf = vec![sentinel];
        let mut filled = vec![sentinel];
        for &a in labels {
            for &b in labels {
                pairs.push(s.load_d(a, b));
                triples.push(s.load_e(a, b));
                let mut l = s.load_pair(a, b);
                l.sort_unstable();
                triples.push(l);
            }
            for v in (0..s.num_nodes()).map(|i| NodeId(i as u32)) {
                let mut cur = s.incoming_cursor(a, v);
                pairs.push(vec![(v, cur.remaining() as Dist)]);
                loop {
                    let block = if fill {
                        let before = buf.len();
                        let n = cur.fill_block(&mut buf);
                        assert_eq!(buf.len(), before + n, "{a:?} -> {v:?}: count");
                        buf[before..].to_vec()
                    } else {
                        cur.next_block()
                    };
                    if block.is_empty() {
                        break;
                    }
                    filled.extend_from_slice(&block);
                    pairs.push(block);
                }
            }
        }
        if fill {
            assert_eq!(buf, filled, "fill_block appends and never clears");
        }
        (pairs, triples, s.io())
    }

    #[test]
    fn the_three_table_backed_stores_read_and_count_identically() {
        // One read path, three ways to find a table: the same sequence
        // must return the same contents in the same cursor blocks AND
        // cost the same logical I/O, counter for counter, whether the
        // cursors are drained by `next_block` or by `fill_block`.
        let g = paper_graph();
        let mut labels: Vec<LabelId> = g.nodes().map(|v| g.label(v)).collect();
        labels.sort_unstable();
        labels.dedup();
        labels.push(LabelId(labels.len() as u32 + 7)); // labels nothing
        let tables = ClosureTables::compute(&g);
        let mem = || MemStore::with_block_edges(tables.clone(), 2);
        let want = transcript(&mem(), &labels, false);
        assert!(want.2.edges_read > 0 && want.2.d_entries > 0 && want.2.e_entries > 0);
        for fill in [false, true] {
            let stores: [(&str, Box<dyn ClosureSource>); 3] = [
                ("MemStore", Box::new(mem())),
                (
                    "LiveStore",
                    Box::new(LiveStore::new(g.clone()).with_block_edges(2)),
                ),
                (
                    "OnDemandStore",
                    Box::new(OnDemandStore::with_block_edges(g.clone(), 2)),
                ),
            ];
            for (name, s) in stores {
                assert_eq!(transcript(&*s, &labels, fill), want, "{name}, fill {fill}");
            }
        }
    }
}
