//! Serializes a [`ClosureTables`] into the on-disk store format —
//! single-file v5 snapshots and sharded multi-file v5 snapshots with a
//! v6 `MANIFEST` ([`write_store_sharded`]).

use crate::format::*;
use crate::manifest::{Manifest, ShardFileMeta};
use crate::shard::ShardSpec;
use crate::source::StorageError;
use ktpm_closure::ClosureTables;
use ktpm_graph::{LabelId, NodeId};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Writes the closure store file for `tables` at `path` (format v5:
/// paged group blocks, CRC-32 per block, block capacity
/// `DEFAULT_BLOCK_EDGES` (64) entries, a paged index of
/// `INDEX_PAGE_ENTRIES` (128) entries a page; see the `format` module
/// docs).
/// Use [`write_store_v3`] to choose the block capacity.
///
/// Pairs are written in sorted key order so the output is deterministic.
pub fn write_store(tables: &ClosureTables, path: &Path) -> Result<(), StorageError> {
    write_store_inner(tables, path, DEFAULT_BLOCK_EDGES, None)
}

/// Writes a v5 store with an explicit on-disk block capacity (in `L`
/// entries per block). Small capacities force multi-block groups and
/// cache churn — useful in tests; `DEFAULT_BLOCK_EDGES` (64) is the
/// production default. `block_entries == 0` is
/// [`StorageError::InvalidConfig`].
pub fn write_store_v3(
    tables: &ClosureTables,
    path: &Path,
    block_entries: usize,
) -> Result<(), StorageError> {
    if block_entries == 0 {
        return Err(StorageError::InvalidConfig(
            "v3 block capacity must be at least 1 entry".into(),
        ));
    }
    write_store_inner(tables, path, block_entries, None)
}

/// Writes a sharded snapshot: one v5 shard file per partition of
/// `spec`'s split (so `spec.of()` files — any member of the split
/// names the same layout) plus a CRC'd v6 `MANIFEST` in `dir`, all
/// sharing the block capacity `block_entries`. File `i` of `n` holds
/// the ascending pair keys `[i·P/n, (i+1)·P/n)` of all `P`: one
/// contiguous run each, their sizes at most one apart, so shards stay
/// balanced and the layout is deterministic. The manifest records each
/// file's first key (its fence) and pair count; a file left without a
/// pair (fewer pairs than files) takes the next file's fence, or
/// `(0, 0)` when there are no pairs at all.
///
/// `dir` is created if missing. Open the snapshot via
/// [`crate::open_store_auto`] on `dir/MANIFEST` (or on `dir` itself).
/// Returns the manifest that was written.
pub fn write_store_sharded(
    tables: &ClosureTables,
    dir: &Path,
    spec: &ShardSpec,
    block_entries: usize,
) -> Result<Manifest, StorageError> {
    if block_entries == 0 {
        return Err(StorageError::InvalidConfig(
            "v3 block capacity must be at least 1 entry".into(),
        ));
    }
    let shard_count = spec.of();
    std::fs::create_dir_all(dir)?;

    // Ascending: `iter_pairs` walks the keys in order.
    let keys: Vec<_> = tables.iter_pairs().map(|(k, _)| k).collect();
    let files = shard_count as usize;
    // Where file `i`'s run starts; the last file's run is never empty
    // while there is a pair, so an empty run's fence is a later file's.
    let start = |i: usize| i * keys.len() / files;
    let mut shards = Vec::with_capacity(files);
    for shard in 0..files {
        let run = &keys[start(shard)..start(shard + 1)];
        let first_key = keys
            .get(start(shard))
            .copied()
            .unwrap_or((LabelId(0), LabelId(0)));
        let name = format!("shard-{shard:04}.tc");
        let path = dir.join(&name);
        write_store_inner(tables, &path, block_entries, Some(run))?;
        // Seal the exact bytes just written: length + whole-file CRC.
        let (file_len, content_crc) = file_crc32(&path)?;
        shards.push(ShardFileMeta {
            name,
            file_len,
            content_crc,
            pair_count: run.len() as u32,
            first_key,
        });
    }

    let n = tables.num_nodes();
    let labels: Vec<LabelId> = (0..n).map(|i| tables.label(NodeId(i as u32))).collect();
    let num_labels = labels.iter().map(|l| l.0 + 1).max().unwrap_or(0);
    let manifest = Manifest {
        block_entries: block_entries as u32,
        num_labels,
        labels,
        shards,
    };
    std::fs::write(dir.join("MANIFEST"), manifest.encode())?;
    Ok(manifest)
}

fn write_store_inner(
    tables: &ClosureTables,
    path: &Path,
    block_entries: usize,
    // When set, emit only this ascending run of label pairs (a shard
    // file); `None` emits every pair.
    only_pairs: Option<&[(LabelId, LabelId)]>,
) -> Result<(), StorageError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    let mut offset: u64 = 0;
    let emit = |w: &mut BufWriter<std::fs::File>, buf: &[u8], offset: &mut u64| {
        w.write_all(buf).map(|()| *offset += buf.len() as u64)
    };
    /// Appends the CRC-32 of everything in `buf` past `from`.
    fn seal(buf: &mut Vec<u8>, from: usize) {
        let sum = crc32(&buf[from..]);
        put_u32(buf, sum);
    }

    // Header: magic, counts, block capacity, labels, crc over
    // everything past the magic.
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC_V5);
    let n = tables.num_nodes();
    let num_labels = (0..n)
        .map(|i| tables.label(NodeId(i as u32)).0 + 1)
        .max()
        .unwrap_or(0);
    put_u32(&mut buf, n as u32);
    put_u32(&mut buf, num_labels);
    put_u32(&mut buf, block_entries as u32);
    for i in 0..n {
        put_u32(&mut buf, tables.label(NodeId(i as u32)).0);
    }
    seal(&mut buf, 8);
    emit(&mut w, &buf, &mut offset)?;

    // Ascending either way, as the index needs: `iter_pairs` walks the
    // keys in order, and a shard's run is a slice of them.
    let keys: Vec<_> = match only_pairs {
        Some(run) => run.to_vec(),
        None => tables.iter_pairs().map(|(k, _)| k).collect(),
    };

    // Per-pair sections: D, E and the directory back to back, so an
    // index entry needs only D's offset and the three counts.
    let mut index_entries: Vec<(u32, u32, u64, u32, u32, u32)> = Vec::with_capacity(keys.len());
    for &(a, b) in &keys {
        let table = tables.pair(a, b).expect("key from iter_pairs");
        let d_off = offset;
        let groups = table.dst_nodes().len() as u32;
        let e_count = table.min_out().len() as u32;
        let mut buf = Vec::new();
        // D section: min incoming distance per destination node.
        put_u32(&mut buf, groups);
        for &v in table.dst_nodes() {
            put_u32(&mut buf, v.0);
            put_u32(
                &mut buf,
                table.min_incoming_dist(v).expect("non-empty group"),
            );
        }
        seal(&mut buf, 0);
        emit(&mut w, &buf, &mut offset)?;

        // E section.
        let mut buf = Vec::new();
        put_u32(&mut buf, e_count);
        for &(s, d, dist) in table.min_out() {
            put_u32(&mut buf, s.0);
            put_u32(&mut buf, d.0);
            put_u32(&mut buf, dist);
        }
        seal(&mut buf, 0);
        emit(&mut w, &buf, &mut offset)?;

        // L directory + blocks. Directory entries carry the absolute
        // offset of a group's first block, so compute the blocks' base
        // first (past the directory and its trailing CRC).
        let mut groups_base = offset + section_bytes(groups, DIR_ENTRY_BYTES);
        let mut buf = Vec::new();
        put_u32(&mut buf, groups);
        for &v in table.dst_nodes() {
            let len = table.incoming(v).len();
            put_u32(&mut buf, v.0);
            put_u64(&mut buf, groups_base);
            put_u32(&mut buf, len as u32);
            // Every group starts on a fresh block boundary and occupies
            // whole (padded, individually sealed) blocks.
            groups_base +=
                (v3_group_blocks(len, block_entries) * v3_block_bytes(block_entries)) as u64;
        }
        seal(&mut buf, 0);
        // Blocks: fixed payload (zero-padded tail) + CRC each.
        for &v in table.dst_nodes() {
            for chunk in table.incoming(v).chunks(block_entries) {
                let from = buf.len();
                for &(s, dist) in chunk {
                    put_u32(&mut buf, s.0);
                    put_u32(&mut buf, dist);
                }
                buf.resize(from + block_entries * L_ENTRY_BYTES, 0);
                seal(&mut buf, from);
            }
        }
        emit(&mut w, &buf, &mut offset)?;
        index_entries.push((a.0, b.0, d_off, groups, e_count, groups));
    }

    // Index pages (each zero-padded and sealed like a group block),
    // then the head with one fence key per page, then the footer.
    let mut buf = Vec::new();
    let mut fence = Vec::new();
    for page in index_entries.chunks(INDEX_PAGE_ENTRIES) {
        fence.push((page[0].0, page[0].1));
        let from = buf.len();
        for &(a, b, d_off, d_count, e_count, dir_count) in page {
            put_u32(&mut buf, a);
            put_u32(&mut buf, b);
            put_u64(&mut buf, d_off);
            put_u32(&mut buf, d_count);
            put_u32(&mut buf, e_count);
            put_u32(&mut buf, dir_count);
        }
        buf.resize(from + INDEX_PAGE_ENTRIES * INDEX_ENTRY_BYTES, 0);
        seal(&mut buf, from);
    }
    let head_off = offset + buf.len() as u64;
    let from = buf.len();
    put_u32(&mut buf, index_entries.len() as u32);
    put_u32(&mut buf, INDEX_PAGE_ENTRIES as u32);
    for (a, b) in fence {
        put_u32(&mut buf, a);
        put_u32(&mut buf, b);
    }
    seal(&mut buf, from);
    put_u64(&mut buf, head_off);
    buf.extend_from_slice(MAGIC_V5);
    emit(&mut w, &buf, &mut offset)?;
    w.flush()?;
    Ok(())
}
