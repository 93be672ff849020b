//! Sharded (format v4) snapshot suite: multi-file writes routed by the
//! CRC'd MANIFEST, lazy per-shard file opens sharing one block cache,
//! `open_store_auto` dispatch, and whole-snapshot scrubbing.

use ktpm_closure::ClosureTables;
use ktpm_graph::fixtures::paper_graph;
use ktpm_graph::{GraphBuilder, LabeledGraph, NodeId};
use ktpm_storage::{
    load_snapshot_manifest, open_store_auto, write_store_sharded, ClosureSource, EdgeCursor,
    MemStore, ShardSpec, ShardedStore, StorageError,
};
use std::path::PathBuf;

fn tempdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ktpm-sharded-test-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// A deterministic multi-label weighted graph big enough for several
/// label pairs, multi-block groups, and cache churn.
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

fn drain(c: &mut Box<dyn EdgeCursor + Send>) -> Vec<(NodeId, u32)> {
    let mut all = Vec::new();
    loop {
        let blk = c.next_block();
        if blk.is_empty() {
            break;
        }
        all.extend(blk);
    }
    all
}

/// Element-for-element equivalence of `other` against the in-memory
/// oracle: labels, tables, cursors (content, not block geometry), and
/// point lookups.
fn check_equivalent(mem: &MemStore, other: &dyn ClosureSource) {
    assert_eq!(mem.num_nodes(), other.num_nodes());
    for i in 0..mem.num_nodes() {
        let v = NodeId(i as u32);
        assert_eq!(mem.node_label(v), other.node_label(v));
    }
    assert_eq!(mem.pair_keys(), other.pair_keys());
    for (a, b) in mem.pair_keys() {
        assert_eq!(mem.load_d(a, b), other.load_d(a, b), "D table {a:?}->{b:?}");
        assert_eq!(mem.load_e(a, b), other.load_e(a, b), "E table {a:?}->{b:?}");
        let mut pm = mem.load_pair(a, b);
        let mut po = other.load_pair(a, b);
        pm.sort_unstable();
        po.sort_unstable();
        assert_eq!(pm, po, "L table {a:?}->{b:?}");
    }
    for (a, _) in mem.pair_keys() {
        for i in 0..mem.num_nodes() {
            let v = NodeId(i as u32);
            let mut cm = mem.incoming_cursor(a, v);
            let mut co = other.incoming_cursor(a, v);
            assert_eq!(cm.remaining(), co.remaining());
            assert_eq!(drain(&mut cm), drain(&mut co), "cursor {a:?} -> {v:?}");
        }
    }
    for u in 0..mem.num_nodes() {
        for v in 0..mem.num_nodes() {
            let (u, v) = (NodeId(u as u32), NodeId(v as u32));
            assert_eq!(mem.lookup_dist(u, v), other.lookup_dist(u, v));
        }
    }
}

#[test]
fn sharded_roundtrips_against_mem_across_shard_counts_and_block_sizes() {
    let g = dense_graph(40, 5);
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone());
    for shards in [1u32, 2, 3, 7] {
        for be in [1usize, 4, 256] {
            let dir = tempdir(&format!("rt-{shards}-{be}"));
            let manifest =
                write_store_sharded(&tables, &dir, &ShardSpec::new(0, shards), be).unwrap();
            assert_eq!(manifest.shards.len(), shards as usize);
            let store = ShardedStore::open(&dir.join("MANIFEST")).unwrap();
            store.verify().unwrap();
            check_equivalent(&mem, &store);
            assert!(store.take_error().is_none(), "no swallowed errors");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn tight_cache_budget_spans_all_shard_files() {
    // One shared budget across files: with room for a single block,
    // residency never exceeds it no matter how many files are touched.
    let g = dense_graph(40, 5);
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone());
    let dir = tempdir("budget");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 4), 2).unwrap();
    let store = ShardedStore::open_with_cache_bytes(&dir.join("MANIFEST"), 1).unwrap();
    check_equivalent(&mem, &store);
    let io = store.io();
    assert!(io.cache_evictions > 0, "a 1-byte budget must churn");
    assert!(
        io.cache_bytes_resident <= io.bytes_read,
        "residency is bounded"
    );
    assert_eq!(store.files_open(), 4, "a full scan touches every file");
    assert_eq!(io.files_opened, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queries_open_only_the_files_their_pairs_route_to() {
    let g = dense_graph(40, 5);
    let tables = ClosureTables::compute(&g);
    let dir = tempdir("lazy");
    let manifest = write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 64).unwrap();
    let store = ShardedStore::open(&dir.join("MANIFEST")).unwrap();
    assert_eq!(store.files_open(), 0, "opening the manifest opens no shard");

    // Touch exactly the pairs routed to shard 0: only that file opens.
    let owned: Vec<_> = manifest
        .routing
        .iter()
        .filter(|&&(_, s)| s == 0)
        .map(|&(k, _)| k)
        .collect();
    assert!(!owned.is_empty());
    for (a, b) in owned {
        store.load_d(a, b);
        store.load_e(a, b);
    }
    assert_eq!(store.files_open(), 1, "only the owning shard file opened");
    assert_eq!(store.io().files_opened, 1);

    // An unrouted pair degrades to empty without opening anything.
    let absent = ktpm_graph::LabelId(manifest.num_labels);
    assert!(store.load_d(absent, absent).is_empty());
    assert_eq!(store.files_open(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_store_auto_dispatches_on_manifest_file_and_directory() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone());
    let dir = tempdir("auto");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 2), 64).unwrap();
    // Both the MANIFEST path and the directory itself open the same
    // sharded snapshot.
    for p in [dir.join("MANIFEST"), dir.clone()] {
        let store = open_store_auto(&p, None).unwrap();
        check_equivalent(&mem, store.as_ref());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn directory_without_manifest_is_a_pointed_error() {
    let dir = tempdir("empty-dir");
    std::fs::create_dir_all(&dir).unwrap();
    assert!(ShardedStore::open(&dir.join("nope")).is_err());
    // One resolver behind every path-taking entry point: the same
    // pointed sentence from each.
    for res in [
        open_store_auto(&dir, None).map(|_| ()),
        load_snapshot_manifest(&dir).map(|_| ()),
    ] {
        let Err(err) = res else {
            panic!("a directory without a MANIFEST must not open");
        };
        let msg = err.to_string();
        assert!(
            msg.contains("MANIFEST") && msg.contains("did you mean"),
            "the error must point at the manifest path: {msg}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scrub_names_the_corrupt_shard_file() {
    let g = dense_graph(30, 4);
    let tables = ClosureTables::compute(&g);
    let dir = tempdir("scrub");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 4).unwrap();
    let store = ShardedStore::open(&dir.join("MANIFEST")).unwrap();
    store.verify().unwrap();

    // Flip one payload byte in the middle of shard 1: the scrub must
    // fail and name that file, not merely "something is corrupt".
    let victim = dir.join("shard-0001.tc");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();
    let err = store.verify().unwrap_err();
    match &err {
        StorageError::CorruptShard { file, .. } => {
            assert_eq!(file, "shard-0001.tc", "{err}")
        }
        other => panic!("expected CorruptShard, got {other}"),
    }

    // Truncation is caught too (length check before any CRC pass).
    std::fs::write(&victim, &bytes[..bytes.len() - 1]).unwrap();
    assert!(matches!(
        store.verify(),
        Err(StorageError::CorruptShard { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_manifest_never_opens_and_never_panics() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let dir = tempdir("trunc");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 2), 64).unwrap();
    let manifest_path = dir.join("MANIFEST");
    let full = std::fs::read(&manifest_path).unwrap();
    for cut in 0..full.len() {
        std::fs::write(&manifest_path, &full[..cut]).unwrap();
        assert!(
            ShardedStore::open(&manifest_path).is_err(),
            "a manifest truncated to {cut} byte(s) must not open"
        );
    }
    // Restored, it opens again.
    std::fs::write(&manifest_path, &full).unwrap();
    ShardedStore::open(&manifest_path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_shard_file_degrades_to_empty_with_a_sticky_error() {
    // Reads are infallible by contract: a vanished shard file yields
    // empty tables, and the first swallowed error is retrievable once.
    let g = dense_graph(30, 4);
    let tables = ClosureTables::compute(&g);
    let dir = tempdir("missing");
    let manifest = write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 64).unwrap();
    std::fs::remove_file(dir.join("shard-0002.tc")).unwrap();
    let store = ShardedStore::open(&dir.join("MANIFEST")).unwrap();
    let lost: Vec<_> = manifest
        .routing
        .iter()
        .filter(|&&(_, s)| s == 2)
        .map(|&(k, _)| k)
        .collect();
    assert!(!lost.is_empty());
    for (a, b) in lost {
        assert!(store.load_d(a, b).is_empty());
        assert!(store.load_pair(a, b).is_empty());
    }
    let err = store.take_error().expect("first failure is retrievable");
    assert!(err.to_string().contains("shard"), "{err}");
    assert!(store.take_error().is_none(), "take_error drains the slot");
    // Pairs on healthy shards still answer.
    let ok: Vec<_> = manifest
        .routing
        .iter()
        .filter(|&&(_, s)| s == 0)
        .map(|&(k, _)| k)
        .collect();
    let mem = MemStore::new(tables);
    for (a, b) in ok {
        assert_eq!(store.load_d(a, b), mem.load_d(a, b));
    }
    std::fs::remove_dir_all(&dir).ok();
}
