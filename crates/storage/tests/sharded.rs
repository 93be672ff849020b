//! Sharded snapshot suite: multi-file writes routed by the key ranges
//! of a CRC'd v6 MANIFEST, lazy per-shard file opens sharing one block
//! cache, `open_store_auto` dispatch, and whole-snapshot scrubbing.

use ktpm_closure::ClosureTables;
use ktpm_graph::fixtures::{label_star, paper_graph};
use ktpm_graph::{GraphBuilder, LabelId, LabeledGraph, NodeId};
use ktpm_storage::{
    load_snapshot_manifest, open_store_auto, write_store_sharded, ClosureSource, EdgeCursor,
    Manifest, MemStore, ShardSpec, ShardedStore, StorageError,
};
use std::path::PathBuf;

mod common;

/// The keys of `keys` inside file `shard`'s fence range, read off the
/// manifest's fences directly.
fn in_range(
    manifest: &Manifest,
    shard: usize,
    keys: &[(LabelId, LabelId)],
) -> Vec<(LabelId, LabelId)> {
    let from = manifest.shards[shard].first_key;
    let to = manifest.shards.get(shard + 1).map(|s| s.first_key);
    keys.iter()
        .copied()
        .filter(|&k| k >= from && to.is_none_or(|to| k < to))
        .collect()
}

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
            // Contiguous runs of the ascending keys, their sizes at
            // most one apart, each inside its own fence range.
            let keys = mem.pair_keys();
            let runs: Vec<_> = (0..shards as usize)
                .map(|f| in_range(&manifest, f, &keys))
                .collect();
            assert_eq!(runs.concat(), keys, "{shards} files");
            for (f, run) in runs.iter().enumerate() {
                assert_eq!(manifest.shards[f].pair_count as usize, run.len());
                let spread = run.len().abs_diff(keys.len() / shards as usize);
                assert!(spread <= 1, "file {f} of {shards}: {} pairs", run.len());
            }
            let store = ShardedStore::open(&dir.join("MANIFEST")).unwrap();
            store.verify().unwrap();
            check_equivalent(&mem, &store);
            assert!(store.take_error().is_none(), "no swallowed errors");
            common::assert_pulls_agree(|| ShardedStore::open(&dir.join("MANIFEST")).unwrap());
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
    let keys = MemStore::new(tables).pair_keys();
    let store = ShardedStore::open(&dir.join("MANIFEST")).unwrap();
    assert_eq!(store.files_open(), 0, "opening the manifest opens no shard");

    // Touch exactly the pairs in shard 0's range: only that file opens.
    let owned = in_range(&manifest, 0, &keys);
    assert!(!owned.is_empty());
    for (a, b) in owned {
        assert!(store.has_pair(a, b));
        store.load_d(a, b);
        store.load_e(a, b);
    }
    assert_eq!(store.files_open(), 1, "only the owning shard file opened");
    assert_eq!(store.io().files_opened, 1);

    // An absent pair past the last key lies in the last file's range:
    // that file's own index answers it, so that file — and only it —
    // opens.
    let absent = LabelId(manifest.num_labels);
    assert!(!store.has_pair(absent, absent));
    assert!(store.load_d(absent, absent).is_empty());
    assert_eq!(store.files_open(), 2);
    assert!(store.take_error().is_none());
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
    let mem = MemStore::new(tables);
    let lost = in_range(&manifest, 2, &mem.pair_keys());
    assert!(!lost.is_empty());
    for (a, b) in lost {
        assert!(store.load_d(a, b).is_empty());
        assert!(store.load_pair(a, b).is_empty());
    }
    let err = store.take_error().expect("first failure is retrievable");
    assert!(err.to_string().contains("shard"), "{err}");
    assert!(store.take_error().is_none(), "take_error drains the slot");
    // Pairs on healthy shards still answer.
    let ok = in_range(&manifest, 0, &mem.pair_keys());
    assert!(!ok.is_empty());
    for (a, b) in ok {
        assert_eq!(store.load_d(a, b), mem.load_d(a, b));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fewer_pairs_than_files_leaves_files_that_never_open() {
    // `label_star(2)` has the two pairs (0, 1) and (0, 3); over five
    // files, three hold none. Every pair is still found, a file holding
    // no pair is never opened, and a pair before the first fence opens
    // nothing at all.
    let tables = ClosureTables::compute(&label_star(2));
    let mem = MemStore::new(tables.clone());
    let dir = tempdir("sparse");
    let manifest = write_store_sharded(&tables, &dir, &ShardSpec::new(0, 5), 4).unwrap();
    let counts: Vec<u32> = manifest.shards.iter().map(|s| s.pair_count).collect();
    assert_eq!(counts, [0, 0, 1, 0, 1]);
    let store = ShardedStore::open(&dir.join("MANIFEST")).unwrap();
    assert!(
        !store.has_pair(LabelId(0), LabelId(0)),
        "below the first fence"
    );
    assert!(store.load_d(LabelId(0), LabelId(0)).is_empty());
    assert_eq!(
        store.files_open(),
        0,
        "a pair before the first fence opens nothing"
    );
    check_equivalent(&mem, &store);
    assert_eq!(store.pair_keys(), mem.pair_keys());
    assert_eq!(
        store.files_open(),
        2,
        "only the files holding a pair opened"
    );
    assert_eq!(store.io().files_opened, 2);
    store.verify().unwrap();
    assert!(store.take_error().is_none());
    std::fs::remove_dir_all(&dir).ok();

    // No pair at all: every file is empty, and nothing ever opens.
    let tables = ClosureTables::compute(&label_star(0));
    let dir = tempdir("no-pairs");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 4).unwrap();
    let store = ShardedStore::open(&dir.join("MANIFEST")).unwrap();
    assert!(store.pair_keys().is_empty());
    assert!(!store.has_pair(LabelId(0), LabelId(0)));
    assert!(!store.has_pair(LabelId(7), LabelId(7)));
    assert_eq!(store.files_open(), 0);
    store.verify().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_refuses_fences_that_disagree_with_a_member_s_keys() {
    let g = dense_graph(30, 4);
    let tables = ClosureTables::compute(&g);
    let keys = MemStore::new(tables.clone()).pair_keys();
    let dir = tempdir("fences");
    let manifest = write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 4).unwrap();
    let file1 = in_range(&manifest, 1, &keys);
    assert!(file1.len() >= 2);
    // Hand-built manifests: still sealed and ordered, so they decode;
    // only the scrub, which reads the members, can tell.
    let raised = {
        // File 1's fence above its own first key: that key falls in
        // file 0's range instead.
        let mut m = manifest.clone();
        m.shards[1].first_key = file1[1];
        m
    };
    let lowered = {
        // File 2's fence at file 1's last key: that key falls outside
        // file 1's range.
        let mut m = manifest.clone();
        m.shards[2].first_key = file1[file1.len() - 1];
        m
    };
    let recounted = {
        let mut m = manifest.clone();
        m.shards[1].pair_count += 1;
        m
    };
    for (what, m, says) in [
        ("raised", raised, "fence range"),
        ("lowered", lowered, "fence range"),
        ("recounted", recounted, "pair(s)"),
    ] {
        std::fs::write(dir.join("MANIFEST"), m.encode()).unwrap();
        let store = ShardedStore::open(&dir.join("MANIFEST")).unwrap();
        match store.verify() {
            Err(StorageError::CorruptShard { file, error }) => {
                assert_eq!(file, "shard-0001.tc", "{what}");
                assert!(
                    matches!(&*error, StorageError::BadFormat(m) if m.contains(says)),
                    "{what}: {error}"
                );
            }
            other => panic!("{what}: expected CorruptShard, got {other:?}"),
        }
    }
    std::fs::write(dir.join("MANIFEST"), manifest.encode()).unwrap();
    ShardedStore::open(&dir.join("MANIFEST"))
        .unwrap()
        .verify()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_v4_manifest_is_refused_on_every_open_path() {
    let tables = ClosureTables::compute(&paper_graph());
    let dir = tempdir("v4");
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 2), 64).unwrap();
    let path = dir.join("MANIFEST");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..8].copy_from_slice(b"KTPMCLO4");
    std::fs::write(&path, &bytes).unwrap();
    for (via, res) in [
        ("ShardedStore::open", ShardedStore::open(&path).map(|_| ())),
        (
            "open_store_auto(MANIFEST)",
            open_store_auto(&path, None).map(|_| ()),
        ),
        (
            "open_store_auto(dir)",
            open_store_auto(&dir, None).map(|_| ()),
        ),
        (
            "load_snapshot_manifest",
            load_snapshot_manifest(&dir).map(|_| ()),
        ),
    ] {
        assert!(
            matches!(&res, Err(StorageError::BadFormat(m)) if m.contains("ktpm closure --shards")),
            "{via}: {res:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
