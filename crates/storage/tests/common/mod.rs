//! The cursor contract, checked the same way on every file-backed
//! store: draining through `fill_block` into one reused buffer reads
//! exactly what draining through `next_block` reads, block for block,
//! and costs exactly the same I/O.

use ktpm_graph::{Dist, NodeId};
use ktpm_storage::{ClosureSource, IoSnapshot};
use std::collections::BTreeSet;

/// Which read drains a cursor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pull {
    /// `next_block`: a fresh vector a block.
    Next,
    /// `fill_block`: into one buffer reused for the whole drain.
    Fill,
}

/// Drains the cursor of every `(source label, node)` of `s` with
/// `pull`, source labels ascending, and returns each non-empty block
/// in order and the I/O the drain cost. A `Pull::Fill` drain also
/// checks that each pull reports what it appended and that no pull
/// clears the buffer.
pub fn drain_every_cursor(
    s: &dyn ClosureSource,
    pull: Pull,
) -> (Vec<Vec<(NodeId, Dist)>>, IoSnapshot) {
    let sources: BTreeSet<_> = s.pair_keys().into_iter().map(|(a, _)| a).collect();
    let sentinel = (NodeId(u32::MAX), Dist::MAX);
    let mut buf = vec![sentinel];
    let mut blocks = Vec::new();
    for a in sources {
        for v in (0..s.num_nodes()).map(|i| NodeId(i as u32)) {
            let mut cur = s.incoming_cursor(a, v);
            loop {
                let block = match pull {
                    Pull::Next => cur.next_block(),
                    Pull::Fill => {
                        let before = buf.len();
                        let n = cur.fill_block(&mut buf);
                        assert_eq!(buf.len(), before + n, "{a:?} -> {v:?}: count");
                        buf[before..].to_vec()
                    }
                };
                if block.is_empty() {
                    break;
                }
                blocks.push(block);
            }
        }
    }
    if pull == Pull::Fill {
        let appended: Vec<_> = std::iter::once(sentinel)
            .chain(blocks.iter().flatten().copied())
            .collect();
        assert_eq!(buf, appended, "fill_block appends and never clears");
    }
    (blocks, s.io())
}

/// Both drains over two fresh opens of one store agree, and read
/// something.
pub fn assert_pulls_agree<S: ClosureSource>(open: impl Fn() -> S) {
    let want = drain_every_cursor(&open(), Pull::Next);
    assert!(want.1.edges_read > 0, "the drain read nothing");
    assert_eq!(drain_every_cursor(&open(), Pull::Fill), want);
}
