//! Store file round-trip: everything readable from a [`MemStore`] must
//! read back identically from the file [`write_store`] produces, and a
//! damaged file must fail cleanly — at open, at the scrub, or through
//! `take_error()` — never by panicking and never silently.
//!
//! One on-disk format (v5) and one reader ([`PagedStore`]); what is
//! specific to paging — the block cache, budgets, block placement — is
//! in `paged.rs`.

use ktpm_closure::ClosureTables;
use ktpm_graph::fixtures::paper_graph;
use ktpm_graph::{GraphBuilder, NodeId};
use ktpm_storage::{
    open_store_auto, write_store, write_store_v3, ClosureSource, MemStore, PagedStore, StorageError,
};

fn tempfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ktpm-store-test-{}-{}", std::process::id(), name));
    p
}

/// `file` was written with the block capacity `mem` uses as its cursor
/// block size, so the cursors must agree block for block, not only in
/// content.
fn check_equivalent(mem: &MemStore, file: &PagedStore) {
    assert_eq!(mem.num_nodes(), file.num_nodes());
    for i in 0..mem.num_nodes() {
        let v = NodeId(i as u32);
        assert_eq!(mem.node_label(v), file.node_label(v));
    }
    assert_eq!(mem.pair_keys(), file.pair_keys());
    for (a, b) in mem.pair_keys() {
        assert_eq!(mem.load_d(a, b), file.load_d(a, b), "D table {a:?}->{b:?}");
        assert_eq!(mem.load_e(a, b), file.load_e(a, b), "E table {a:?}->{b:?}");
        let mut pm = mem.load_pair(a, b);
        let mut pf = file.load_pair(a, b);
        pm.sort_unstable();
        pf.sort_unstable();
        assert_eq!(pm, pf, "L table {a:?}->{b:?}");
    }
    for (a, _) in mem.pair_keys() {
        for i in 0..mem.num_nodes() {
            let v = NodeId(i as u32);
            let mut cm = mem.incoming_cursor(a, v);
            let mut cf = file.incoming_cursor(a, v);
            assert_eq!(cm.remaining(), cf.remaining());
            loop {
                let bm = cm.next_block();
                let bf = cf.next_block();
                assert_eq!(bm, bf);
                if bm.is_empty() {
                    break;
                }
            }
        }
    }
    assert!(file.take_error().is_none(), "a clean file swallows nothing");
}

#[test]
fn paper_graph_roundtrip() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let path = tempfile("paper");
    write_store_v3(&tables, &path, 1).unwrap();
    let file = PagedStore::open(&path).unwrap();
    let mem = MemStore::with_block_edges(tables, 1);
    check_equivalent(&mem, &file);
    std::fs::remove_file(&path).ok();
}

#[test]
fn random_graph_roundtrip() {
    // Deterministic pseudo-random graph, several labels, weighted edges.
    let mut state = 0xC0FFEE123456789u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = 60;
    let mut b = GraphBuilder::new();
    let nodes: Vec<_> = (0..n).map(|i| b.add_node(&format!("L{}", i % 7))).collect();
    for u in 0..n {
        for _ in 0..3 {
            let v = (next() % n as u64) as usize;
            if v != u {
                b.add_edge(nodes[u], nodes[v], (next() % 4 + 1) as u32);
            }
        }
    }
    let g = b.build().unwrap();
    let tables = ClosureTables::compute(&g);
    let path = tempfile("random");
    write_store_v3(&tables, &path, 7).unwrap();
    let file = PagedStore::open(&path).unwrap();
    let mem = MemStore::with_block_edges(tables, 7);
    check_equivalent(&mem, &file);
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_store_counts_real_io() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let path = tempfile("iocount");
    write_store(&tables, &path).unwrap();
    let file = PagedStore::open(&path).unwrap();
    file.reset_io();
    let a = g.interner().get("a").unwrap();
    let c = g.interner().get("c").unwrap();
    let d = file.load_d(a, c);
    assert!(!d.is_empty());
    let io = file.io();
    assert!(io.block_reads >= 1);
    assert!(io.bytes_read > 0);
    assert_eq!(io.d_entries, d.len() as u64);
    std::fs::remove_file(&path).ok();
}

#[test]
fn lookup_dist_matches_mem() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let path = tempfile("dist");
    write_store(&tables, &path).unwrap();
    let file = PagedStore::open(&path).unwrap();
    let mem = MemStore::new(tables);
    for u in 0..g.num_nodes() {
        for v in 0..g.num_nodes() {
            let (u, v) = (NodeId(u as u32), NodeId(v as u32));
            assert_eq!(mem.lookup_dist(u, v), file.lookup_dist(u, v));
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_rejects_garbage() {
    let path = tempfile("garbage");
    std::fs::write(&path, b"this is not a closure store, not at all....").unwrap();
    for res in [
        PagedStore::open(&path).map(|_| ()),
        open_store_auto(&path, None).map(|_| ()),
    ] {
        assert!(
            matches!(&res, Err(StorageError::BadFormat(m)) if m.contains("magic")),
            "garbage is not a store: {res:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A valid store's bytes (2-entry blocks, so groups span blocks and the
/// last block of a group is padded), for the corruption tests below.
/// `name` must be unique per test: tests run concurrently in one
/// process, so a shared scratch path would race write/read/delete.
fn store_bytes(name: &str) -> Vec<u8> {
    let tables = ClosureTables::compute(&paper_graph());
    let path = tempfile(name);
    write_store_v3(&tables, &path, 2).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Offset of the first pair's `D` section: header (magic, two counts,
/// block capacity), label table, header CRC.
fn first_d_offset() -> usize {
    20 + paper_graph().num_nodes() * 4 + 4
}

#[test]
fn open_truncated_at_every_byte_returns_err_never_panics() {
    // Truncate the snapshot at EVERY byte boundary — through the magic,
    // the header counts, the label table, every section and the footer
    // — and open it the way `--store` does (`open_store_auto`, which
    // sniffs the magic before handing the file to the reader). Open
    // must return Err (Corrupt once the magic and the minimum length
    // survive) and never panic or abort.
    let bytes = store_bytes("bytes-truncated-src");
    let path = tempfile("truncated");
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let res = open_store_auto(&path, None).map(|_| ());
        assert!(
            res.is_err(),
            "truncation at {cut}/{} must fail",
            bytes.len()
        );
        if cut >= 36 {
            assert!(
                matches!(res, Err(StorageError::Corrupt { .. })),
                "truncation at {cut} should be Corrupt, got {res:?}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_index_offset_is_rejected_not_followed() {
    // Point the footer's index offset past EOF: open must fail with
    // Corrupt instead of seeking into the void or allocating by a
    // garbage count.
    let mut bytes = store_bytes("bytes-badindex-src");
    let n = bytes.len();
    let path = tempfile("badindex");
    for index_off in [u64::MAX - 7, n as u64, n as u64 - 16] {
        bytes[n - 16..n - 8].copy_from_slice(&index_off.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(PagedStore::open(&path), Err(StorageError::Corrupt { .. })),
            "index offset {index_off} of a {n}-byte file"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_section_counts_degrade_to_empty_tables_without_panic() {
    // Blow up the first pair's D-section count. Open succeeds — the
    // header/index are intact — and the poisoned read returns empty
    // instead of allocating count * 8 bytes or panicking; the swallowed
    // error is not lost: `take_error()` hands it to the caller.
    let mut bytes = store_bytes("bytes-badcount-src");
    let d_off = first_d_offset();
    bytes[d_off..d_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let path = tempfile("badcount");
    std::fs::write(&path, &bytes).unwrap();
    let store = PagedStore::open(&path).unwrap();
    let (a, b) = store.pair_keys()[0];
    assert!(store.load_d(a, b).is_empty());
    assert!(
        matches!(store.take_error(), Some(StorageError::Corrupt { .. })),
        "the degraded read must leave its error behind"
    );
    for (a, b) in store.pair_keys() {
        let _ = store.load_d(a, b);
        let _ = store.load_e(a, b);
        let _ = store.load_pair(a, b);
    }
    // The scrub pinpoints the damaged section.
    assert!(matches!(store.verify(), Err(StorageError::Corrupt { .. })));
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_rot_in_any_data_byte_is_caught_by_the_scrub() {
    // Flip bits in EVERY byte of the file in turn — magic, counts,
    // labels, every D/E/directory section, every block and its padding,
    // the index, the footer: either open fails or verify() — the eager
    // whole-store scrub — does. No byte of a snapshot can rot unnoticed,
    // and nothing panics on the way.
    let bytes = store_bytes("bytes-bitrot-src");
    let path = tempfile("bitrot");
    for pos in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        std::fs::write(&path, &corrupt).unwrap();
        if let Ok(store) = PagedStore::open(&path) {
            assert!(
                store.verify().is_err(),
                "bit flip at {pos}/{} must be caught by open or verify",
                bytes.len()
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn crc_mismatch_degrades_infallible_reads_to_empty() {
    // Corrupt a byte inside the first pair's D payload (past its
    // count): open succeeds, the poisoned D read returns empty rather
    // than garbage — leaving its error for `take_error()` — and the
    // other sections still read.
    let tables = ClosureTables::compute(&paper_graph());
    let mut bytes = store_bytes("bytes-crc-degrade-src");
    bytes[first_d_offset() + 4] ^= 0xFF;
    let path = tempfile("crc-degrade");
    std::fs::write(&path, &bytes).unwrap();
    let store = PagedStore::open(&path).unwrap();
    let (a, b) = store.pair_keys()[0];
    assert!(
        store.load_d(a, b).is_empty(),
        "a checksum-failed D section must read as empty, not as garbage"
    );
    assert!(matches!(
        store.take_error(),
        Some(StorageError::Corrupt { .. })
    ));
    let mem = MemStore::new(tables);
    assert_eq!(store.load_e(a, b), mem.load_e(a, b));
    assert!(store.take_error().is_none(), "the E section is intact");
    assert!(matches!(store.verify(), Err(StorageError::Corrupt { .. })));
    std::fs::remove_file(&path).ok();
}
