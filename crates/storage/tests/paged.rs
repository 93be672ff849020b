//! Paged (format v5) store suite: lazy verified block fetch, the LRU
//! block cache, shard-aligned placement, the paged pair index, and
//! corruption handling.

use ktpm_closure::ClosureTables;
use ktpm_graph::fixtures::{label_star, paper_graph};
use ktpm_graph::{GraphBuilder, LabeledGraph, NodeId};
use ktpm_storage::{
    blockproto::crc32, load_snapshot_manifest, open_store_auto, write_store, write_store_v3,
    ClosureSource, MemStore, PagedStore, ShardSpec, StorageError, INDEX_PAGE_ENTRIES,
};

mod common;

fn tempfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ktpm-paged-test-{}-{}", std::process::id(), name));
    p
}

/// A deterministic multi-label weighted graph big enough for multi-block
/// groups and cache churn.
fn dense_graph(n: usize, labels: usize) -> LabeledGraph {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = GraphBuilder::new();
    let nodes: Vec<_> = (0..n)
        .map(|i| b.add_node(&format!("L{}", i % labels)))
        .collect();
    for u in 0..n {
        for _ in 0..4 {
            let v = (next() % n as u64) as usize;
            if v != u {
                b.add_edge(nodes[u], nodes[v], (next() % 5 + 1) as u32);
            }
        }
    }
    b.build().unwrap()
}

fn check_equivalent(mem: &MemStore, paged: &PagedStore) {
    assert_eq!(mem.num_nodes(), paged.num_nodes());
    for i in 0..mem.num_nodes() {
        let v = NodeId(i as u32);
        assert_eq!(mem.node_label(v), paged.node_label(v));
    }
    assert_eq!(mem.pair_keys(), paged.pair_keys());
    // The existence probe agrees with the key list on both backends,
    // for present and absent pairs alike.
    let keys = mem.pair_keys();
    let labels: std::collections::BTreeSet<_> = keys.iter().flat_map(|&(a, b)| [a, b]).collect();
    for &a in &labels {
        for &b in &labels {
            let want = keys.contains(&(a, b));
            assert_eq!(mem.has_pair(a, b), want, "mem has_pair {a:?}->{b:?}");
            assert_eq!(paged.has_pair(a, b), want, "paged has_pair {a:?}->{b:?}");
        }
    }
    for (a, b) in mem.pair_keys() {
        assert_eq!(mem.load_d(a, b), paged.load_d(a, b), "D table {a:?}->{b:?}");
        assert_eq!(mem.load_e(a, b), paged.load_e(a, b), "E table {a:?}->{b:?}");
        let mut pm = mem.load_pair(a, b);
        let mut pp = paged.load_pair(a, b);
        pm.sort_unstable();
        pp.sort_unstable();
        assert_eq!(pm, pp, "L table {a:?}->{b:?}");
    }
    // Cursors stream identical *content* (block sizes may differ — the
    // paged cursor is aligned to on-disk blocks), and point lookups
    // agree everywhere.
    for (a, _) in mem.pair_keys() {
        for i in 0..mem.num_nodes() {
            let v = NodeId(i as u32);
            let mut cm = mem.incoming_cursor(a, v);
            let mut cp = paged.incoming_cursor(a, v);
            assert_eq!(cm.remaining(), cp.remaining());
            let drain = |c: &mut Box<dyn ktpm_storage::EdgeCursor + Send>| {
                let mut all = Vec::new();
                loop {
                    let blk = c.next_block();
                    if blk.is_empty() {
                        break;
                    }
                    all.extend(blk);
                }
                all
            };
            assert_eq!(drain(&mut cm), drain(&mut cp), "cursor {a:?} -> {v:?}");
        }
    }
    for u in 0..mem.num_nodes() {
        for v in 0..mem.num_nodes() {
            let (u, v) = (NodeId(u as u32), NodeId(v as u32));
            assert_eq!(mem.lookup_dist(u, v), paged.lookup_dist(u, v));
        }
    }
}

#[test]
fn v5_is_the_default_and_roundtrips_against_mem() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let path = tempfile("default-roundtrip");
    write_store(&tables, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..8], b"KTPMCLO5");
    assert_eq!(&bytes[bytes.len() - 8..], b"KTPMCLO5");
    let paged = PagedStore::open(&path).unwrap();
    paged.verify().unwrap();
    let mem = MemStore::new(tables);
    check_equivalent(&mem, &paged);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tiny_blocks_roundtrip_across_block_boundaries() {
    // block_entries=1..3 force every group across many blocks; content
    // must still be identical to memory, including resumed cursors,
    // whichever read drains them.
    let g = dense_graph(48, 5);
    let tables = ClosureTables::compute(&g);
    for be in 1..=3usize {
        let path = tempfile(&format!("tiny-{be}"));
        write_store_v3(&tables, &path, be).unwrap();
        let paged = PagedStore::open(&path).unwrap();
        assert_eq!(paged.block_entries(), be);
        paged.verify().unwrap();
        let mem = MemStore::new(tables.clone());
        check_equivalent(&mem, &paged);
        common::assert_pulls_agree(|| PagedStore::open(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn writer_rejects_zero_block_capacity() {
    let tables = ClosureTables::compute(&paper_graph());
    let path = tempfile("zero-capacity");
    assert!(matches!(
        write_store_v3(&tables, &path, 0),
        Err(StorageError::InvalidConfig(_))
    ));
    assert!(!path.exists(), "no file may be created for a bad config");
}

#[test]
fn cache_counters_flow_and_warm_reads_skip_disk() {
    let g = dense_graph(40, 4);
    let tables = ClosureTables::compute(&g);
    let path = tempfile("warm");
    write_store_v3(&tables, &path, 4).unwrap();
    // Unlimited budget: after one cold pass every block is resident.
    let paged = PagedStore::open_with_cache_bytes(&path, 0).unwrap();
    let keys = paged.pair_keys();
    // Lazy: a cold read of one pair fetches that pair, not the file.
    let probe = PagedStore::open(&path).unwrap();
    let _ = probe.load_pair(keys[0].0, keys[0].1);
    let one_pair = probe.io().bytes_read;
    let file_bytes = std::fs::metadata(&path).unwrap().len();
    assert!(
        0 < one_pair && one_pair < file_bytes,
        "{one_pair} of {file_bytes}"
    );
    for &(a, b) in &keys {
        let _ = paged.load_pair(a, b);
    }
    let cold = paged.io();
    assert!(cold.cache_misses > 0, "cold pass must miss");
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_evictions, 0, "unlimited budget never evicts");
    assert!(cold.cache_bytes_resident > 0);
    paged.reset_io();
    for &(a, b) in &keys {
        let _ = paged.load_pair(a, b);
    }
    let warm = paged.io();
    assert_eq!(warm.cache_misses, 0, "warm pass must be all hits");
    assert!(warm.cache_hits >= cold.cache_misses);
    assert_eq!(
        warm.block_reads, 0,
        "a warm cache serves group reads with zero disk fetches"
    );
    assert_eq!(warm.bytes_read, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tight_budget_bounds_resident_bytes_but_stays_correct() {
    let g = dense_graph(60, 4);
    let tables = ClosureTables::compute(&g);
    let path = tempfile("budget");
    write_store_v3(&tables, &path, 2).unwrap();
    // Budget of 4 blocks' payload (2 entries * 8B each): far below the
    // closure size, forcing constant eviction.
    let budget = 4 * 2 * 8;
    let paged = PagedStore::open_with_cache_bytes(&path, budget).unwrap();
    let mem = MemStore::new(tables);
    check_equivalent(&mem, &paged);
    let io = paged.io();
    assert!(io.cache_evictions > 0, "a tight budget must evict");
    assert!(
        io.cache_bytes_resident <= budget,
        "resident {res} exceeds budget {budget}",
        res = io.cache_bytes_resident
    );
    assert!(paged.cache_resident_bytes() <= budget);
    assert!(paged.cache_blocks() <= 4);
    std::fs::remove_file(&path).ok();
}

#[test]
fn groups_never_share_blocks_so_shards_touch_disjoint_ranges() {
    let g = dense_graph(50, 3);
    let tables = ClosureTables::compute(&g);
    let path = tempfile("shard-disjoint");
    write_store_v3(&tables, &path, 3).unwrap();
    let paged = PagedStore::open(&path).unwrap();
    let shards = ShardSpec::split(4);
    for (a, b) in paged.pair_keys() {
        let ranges = paged.group_block_ranges(a, b).unwrap();
        // Each group occupies whole blocks, non-overlapping with every
        // other group (of any pair table — offsets are absolute).
        let bb = 3 * 8 + 4;
        let mut per_shard: Vec<Vec<std::ops::Range<u64>>> = vec![Vec::new(); shards.len()];
        for (v, r) in &ranges {
            assert_eq!((r.end - r.start) % bb, 0, "group of {v:?} is whole blocks");
            let owner = shards.iter().position(|s| s.contains(*v)).unwrap();
            per_shard[owner].push(r.clone());
        }
        // Root partitions by shard touch disjoint block ranges.
        for i in 0..per_shard.len() {
            for j in i + 1..per_shard.len() {
                for x in &per_shard[i] {
                    for y in &per_shard[j] {
                        assert!(
                            x.end <= y.start || y.end <= x.start,
                            "shard {i} range {x:?} overlaps shard {j} range {y:?}"
                        );
                    }
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_rot_in_every_block_is_surfaced_never_panics() {
    // Flip a byte in EVERY group block (payload and CRC positions):
    // the scrub must report Corrupt each time, and all read paths must
    // degrade (empty/partial/exhausted cursor) without panicking.
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let src = tempfile("bitrot-src");
    write_store_v3(&tables, &src, 2).unwrap();
    let bytes = std::fs::read(&src).unwrap();
    std::fs::remove_file(&src).ok();

    // Collect every block's byte range up front from a clean open.
    let clean = tempfile("bitrot-clean");
    std::fs::write(&clean, &bytes).unwrap();
    let paged = PagedStore::open(&clean).unwrap();
    let bb = 2 * 8 + 4;
    let mut block_offsets = Vec::new();
    for (a, b) in paged.pair_keys() {
        for (_, range) in paged.group_block_ranges(a, b).unwrap() {
            let mut off = range.start;
            while off < range.end {
                block_offsets.push(off);
                off += bb;
            }
        }
    }
    drop(paged);
    std::fs::remove_file(&clean).ok();
    assert!(block_offsets.len() > 10, "fixture too small to mean much");

    let path = tempfile("bitrot");
    for &off in &block_offsets {
        // One flip in the payload, one in the block's CRC.
        for delta in [1u64, bb - 2] {
            let mut corrupt = bytes.clone();
            corrupt[(off + delta) as usize] ^= 0x40;
            std::fs::write(&path, &corrupt).unwrap();
            let store = PagedStore::open(&path).expect("block rot never breaks open");
            assert!(
                matches!(store.verify(), Err(StorageError::Corrupt { .. })),
                "flip at block {off}+{delta} must fail the scrub"
            );
            for (a, b) in store.pair_keys() {
                let _ = store.load_d(a, b);
                let _ = store.load_e(a, b);
                let _ = store.load_pair(a, b);
            }
            for v in 0..store.num_nodes() {
                let v = NodeId(v as u32);
                let mut cur = store.incoming_cursor(store.node_label(v), v);
                while !cur.next_block().is_empty() {}
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_at_every_byte_errors_never_panics() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let src = tempfile("trunc-src");
    write_store(&tables, &src).unwrap();
    let bytes = std::fs::read(&src).unwrap();
    std::fs::remove_file(&src).ok();
    let path = tempfile("trunc");
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let res = PagedStore::open(&path);
        assert!(
            res.is_err(),
            "truncation at {cut}/{} must fail",
            bytes.len()
        );
        if cut >= 36 {
            assert!(
                matches!(res, Err(StorageError::Corrupt { .. })),
                "truncation at {cut} should be Corrupt, got {res:?}",
                res = res.err()
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The byte geometry of a v5 file's paged index, read off its footer
/// and head, with the two ways to re-seal a hand-edited region.
struct IndexLayout {
    head_off: usize,
    footer: usize,
    pages_off: usize,
    num_pages: usize,
}

const ENTRY: usize = 28;
const PAGE: usize = INDEX_PAGE_ENTRIES * ENTRY + 4;

impl IndexLayout {
    fn of(bytes: &[u8]) -> Self {
        let footer = bytes.len() - 16;
        let head_off = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap()) as usize;
        let num_pages = (footer - head_off - 12) / 8;
        IndexLayout {
            head_off,
            footer,
            pages_off: head_off - num_pages * PAGE,
            num_pages,
        }
    }

    /// Byte offset of global entry `i`.
    fn entry(&self, i: usize) -> usize {
        let (p, j) = (i / INDEX_PAGE_ENTRIES, i % INDEX_PAGE_ENTRIES);
        self.pages_off + p * PAGE + j * ENTRY
    }

    /// Byte offset of fence key `p` in the head.
    fn fence(&self, p: usize) -> usize {
        self.head_off + 8 + p * 8
    }

    fn reseal_page(&self, file: &mut [u8], p: usize) {
        let at = self.pages_off + p * PAGE;
        let sum = crc32(&file[at..at + PAGE - 4]);
        file[at + PAGE - 4..at + PAGE].copy_from_slice(&sum.to_le_bytes());
    }

    fn reseal_head(&self, file: &mut [u8]) {
        let sum = crc32(&file[self.head_off..self.footer - 4]);
        file[self.footer - 4..self.footer].copy_from_slice(&sum.to_le_bytes());
    }
}

#[test]
fn misordered_or_duplicate_index_entries_are_refused_at_open_or_first_touch() {
    // The v5 index must be strictly ascending by label pair, across
    // pages (the reader binary-searches the fence, then a page, as
    // stored). Hand-build files that break the order but carry VALID
    // checksums — a writer that ignores the format, not bit rot — and
    // expect a pointed BadFormat, never a store that misses lookups:
    // at open for the head (fence, counts), and for a page's entries
    // from the first lookup that lands on the page and from verify().
    // Three pages: label_star(2P + 1) has exactly 2P + 1 pairs.
    let p = INDEX_PAGE_ENTRIES;
    let tables = ClosureTables::compute(&label_star(2 * p + 1));
    let src = tempfile("index-order-src");
    write_store(&tables, &src).unwrap();
    let bytes = std::fs::read(&src).unwrap();
    std::fs::remove_file(&src).ok();
    let ix = IndexLayout::of(&bytes);
    assert_eq!(ix.num_pages, 3, "the fixture spans three index pages");
    let key = |file: &[u8], i: usize| {
        let at = ix.entry(i);
        let u = |o: usize| u32::from_le_bytes(file[o..o + 4].try_into().unwrap());
        (ktpm_graph::LabelId(u(at)), ktpm_graph::LabelId(u(at + 4)))
    };
    let swap = |file: &mut [u8], i: usize, j: usize| {
        let first = file[ix.entry(i)..ix.entry(i) + ENTRY].to_vec();
        file.copy_within(ix.entry(j)..ix.entry(j) + ENTRY, ix.entry(i));
        file[ix.entry(j)..ix.entry(j) + ENTRY].copy_from_slice(&first);
    };
    let path = tempfile("index-order");

    // Page cases: (what, edited file before its page is resealed, the
    // page edited, the message the reader must give, a key on that
    // page to look up).
    let mut swapped = bytes.clone();
    swap(&mut swapped, 1, 2); // inside page 0, first key kept
    let mut duplicate = bytes.clone();
    duplicate.copy_within(ix.entry(p + 4)..ix.entry(p + 4) + 8, ix.entry(p + 5));
    let mut past_next_fence = bytes.clone();
    let next = ix.entry(2 * p);
    past_next_fence.copy_within(next..next + 8, ix.entry(2 * p - 1));
    let mut off_fence = bytes.clone();
    let (fence1, second) = (ix.fence(1), ix.entry(p + 1));
    off_fence.copy_within(second..second + 8, fence1);
    ix.reseal_head(&mut off_fence);
    let page_cases = [
        ("swapped", swapped, 0, "index entry 2", key(&bytes, 5)),
        (
            "duplicate",
            duplicate,
            1,
            "index entry 133",
            key(&bytes, p + 9),
        ),
        (
            "past the next fence",
            past_next_fence,
            1,
            "index entry 256",
            key(&bytes, p + 1),
        ),
        (
            "off its fence key",
            off_fence,
            1,
            "fence key",
            key(&bytes, p + 9),
        ),
    ];
    for (what, file, page, says, probe) in page_cases {
        // Without the page's reseal it is plain corruption, caught by
        // the page's CRC — on first touch, not at open.
        if what != "off its fence key" {
            std::fs::write(&path, &file).unwrap();
            let store = PagedStore::open(&path).expect("a page's bytes are not read at open");
            assert!(!store.has_pair(probe.0, probe.1), "{what}: stale CRC");
            assert!(
                matches!(store.take_error(), Some(StorageError::Corrupt { .. })),
                "{what}: a stale page checksum is Corrupt on first touch"
            );
            assert!(
                matches!(store.verify(), Err(StorageError::Corrupt { .. })),
                "{what}: and in the scrub"
            );
        }
        let mut file = file;
        ix.reseal_page(&mut file, page);
        std::fs::write(&path, &file).unwrap();
        let pointed = |res: Option<StorageError>| {
            let msg = match &res {
                Some(StorageError::BadFormat(m)) => m.clone(),
                _ => String::new(),
            };
            let order = says.starts_with("index entry");
            assert!(
                msg.contains(says) && (!order || msg.contains("ascending")),
                "{what}: expected a pointed BadFormat naming {says:?}, got {res:?}"
            );
        };
        for store in [
            PagedStore::open(&path).expect("a sealed page opens"),
            PagedStore::open_with_cache_bytes(&path, 0).unwrap(),
        ] {
            assert!(!store.has_pair(probe.0, probe.1), "{what}");
            pointed(store.take_error());
            pointed(store.verify().err());
        }
        let auto = open_store_auto(&path, None).unwrap();
        let _ = auto.load_d(probe.0, probe.1);
        pointed(auto.take_error());
        // The other pages still serve: page 2 was never edited.
        let store = PagedStore::open(&path).unwrap();
        let far = key(&bytes, 2 * p);
        assert!(store.has_pair(far.0, far.1), "{what}: page 2 is intact");
        assert!(store.take_error().is_none(), "{what}: page 2 reads clean");
    }

    // Head cases: refused at open, by every open path.
    let mut fence_swapped = bytes.clone();
    let (f0, f1) = (ix.fence(0), ix.fence(1));
    let first = fence_swapped[f0..f0 + 8].to_vec();
    fence_swapped.copy_within(f1..f1 + 8, f0);
    fence_swapped[f1..f1 + 8].copy_from_slice(&first);
    let mut more_pairs = bytes.clone();
    more_pairs[ix.head_off..ix.head_off + 4].copy_from_slice(&(3 * p as u32 + 1).to_le_bytes());
    let mut no_pairs = bytes.clone();
    no_pairs[ix.head_off..ix.head_off + 4].copy_from_slice(&0u32.to_le_bytes());
    let head_cases = [
        ("fence out of order", fence_swapped, "ascending"),
        ("num_pairs past the fence", more_pairs, "fence key"),
        ("num_pairs short of the fence", no_pairs, "fence key"),
    ];
    for (what, file, says) in head_cases {
        std::fs::write(&path, &file).unwrap();
        assert!(
            matches!(PagedStore::open(&path), Err(StorageError::Corrupt { .. })),
            "{what}: a stale head checksum is Corrupt at open"
        );
        let mut file = file;
        ix.reseal_head(&mut file);
        std::fs::write(&path, &file).unwrap();
        for res in [
            PagedStore::open(&path).map(|_| ()),
            open_store_auto(&path, None).map(|_| ()),
        ] {
            assert!(
                matches!(&res, Err(StorageError::BadFormat(m)) if m.contains(says)),
                "{what}: expected a pointed BadFormat at open, got {res:?}"
            );
        }
    }

    // The untouched bytes, resealed, still open: the harness is sound.
    let mut clean = bytes.clone();
    for page in 0..ix.num_pages {
        ix.reseal_page(&mut clean, page);
    }
    ix.reseal_head(&mut clean);
    assert_eq!(clean, bytes, "resealing untouched regions changes nothing");
    std::fs::write(&path, &clean).unwrap();
    PagedStore::open(&path).unwrap().verify().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_synthesized_manifest_seals_the_file_it_describes() {
    // `load_snapshot_manifest` streams the file's checksum instead of
    // reading it whole; what it announces must be the file's own length
    // and CRC-32. The store spans several 64 KiB read buffers.
    let tables = ClosureTables::compute(&dense_graph(200, 6));
    let path = tempfile("synth-manifest");
    write_store_v3(&tables, &path, 2).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.len() > 3 * 64 * 1024, "{} bytes", bytes.len());
    let (manifest, _) = load_snapshot_manifest(&path).unwrap();
    let meta = &manifest.shards[0];
    assert_eq!(meta.file_len, bytes.len() as u64);
    assert_eq!(meta.content_crc, crc32(&bytes));
    // One file, one fence: the file's first key and its pair count, so
    // every pair falls in its range.
    let keys = MemStore::new(tables).pair_keys();
    assert_eq!(manifest.shards.len(), 1);
    assert_eq!(meta.pair_count as usize, keys.len());
    assert_eq!(meta.first_key, keys[0]);
    assert_eq!(manifest.range_of(0), (keys[0], None));
    assert_eq!(
        manifest.encode().len(),
        8 + 16 + 4 * manifest.labels.len() + 4 + meta.name.len() + 8 + 4 + 12 + 4,
        "O(labels), not O(pairs)"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn paged_store_rejects_v1_v2_and_v3_files() {
    // The retired layouts are recognised by their magic only to be
    // refused: every open path gives the same pointed BadFormat, however
    // much (or little) file follows the magic — v3 included, whose
    // body v5 kept: it is refused by name, never half-read.
    for magic in [b"KTPMCLO1", b"KTPMCLO2", b"KTPMCLO3"] {
        for filler in [0usize, 12, 4096] {
            let path = tempfile(&format!("reject-{}-{filler}", magic[7] as char));
            let mut bytes = magic.to_vec();
            bytes.resize(8 + filler, 0xA5);
            std::fs::write(&path, &bytes).unwrap();
            for (via, res) in [
                ("PagedStore::open", PagedStore::open(&path).map(|_| ())),
                ("open_store_auto", open_store_auto(&path, None).map(|_| ())),
                (
                    "load_snapshot_manifest",
                    load_snapshot_manifest(&path).map(|_| ()),
                ),
            ] {
                assert!(
                    matches!(&res, Err(StorageError::BadFormat(m))
                        if m.contains("v1/v2") && m.contains("ktpm closure")),
                    "{via} on a legacy magic + {filler} byte(s): {res:?}"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn open_store_auto_dispatches_on_version() {
    // A v5 file opens behind the paged reader and reads like memory
    // (the v6 MANIFEST arm is `sharded.rs`'s; the refused v1/v2 magics
    // are the test above).
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let path = tempfile("auto-v5");
    write_store(&tables, &path).unwrap();
    let store = open_store_auto(&path, Some(0)).unwrap();
    let mem = MemStore::new(tables.clone());
    assert_eq!(store.num_nodes(), mem.num_nodes());
    for (a, b) in mem.pair_keys() {
        let mut pm = mem.load_pair(a, b);
        let mut ps = store.load_pair(a, b);
        pm.sort_unstable();
        ps.sort_unstable();
        assert_eq!(pm, ps, "{a:?}->{b:?}");
    }
    assert!(store.io().cache_misses > 0, "served by the paged reader");
    std::fs::remove_file(&path).ok();
    // Garbage is still rejected.
    let path = tempfile("auto-garbage");
    std::fs::write(&path, b"clearly not a store file at all........").unwrap();
    assert!(open_store_auto(&path, None).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn verify_bypasses_and_does_not_pollute_the_cache() {
    let g = dense_graph(30, 3);
    let tables = ClosureTables::compute(&g);
    let path = tempfile("scrub-cache");
    write_store_v3(&tables, &path, 2).unwrap();
    let paged = PagedStore::open_with_cache_bytes(&path, 0).unwrap();
    paged.verify().unwrap();
    let io = paged.io();
    assert!(io.block_reads > 0, "the scrub reads from disk");
    assert_eq!(io.cache_hits, 0);
    assert_eq!(io.cache_misses, 0, "the scrub is not cache traffic");
    assert_eq!(paged.cache_blocks(), 0, "the scrub must not pollute");
    std::fs::remove_file(&path).ok();
}
