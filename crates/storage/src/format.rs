//! Binary layout of the closure store files.
//!
//! One closure-file layout is written and read — **version 5** — plus
//! the **version 6** `MANIFEST` that routes a sharded snapshot over a
//! set of v5 files by key range. All integers are little-endian; every
//! checksum is CRC-32 (IEEE).
//!
//! ## Version 5: the closure file
//!
//! ```text
//! magic "KTPMCLO5"
//! u32 num_nodes, u32 num_labels, u32 block_entries
//! labels: num_nodes * u32
//! u32 crc32 over [num_nodes .. labels]
//! per pair (in index order), its three sections back to back:
//!   D section:    u32 count, count * (u32 node, u32 dist), u32 crc32
//!   E section:    u32 count, count * (u32 src, u32 dst, u32 dist), u32 crc32
//!   L directory:  u32 group_count,
//!                 group_count * (u32 dst, u64 abs_off, u32 len), u32 crc32
//!                 (abs_off = absolute offset of the group's FIRST block)
//!   L blocks:     per group: ceil(len / block_entries) blocks; each
//!                 block = block_entries * (u32 src, u32 dist) payload
//!                 bytes, ascending dist (the final block zero-padded),
//!                 + u32 crc32 over the full padded payload. Every
//!                 group starts on a fresh block — no block ever mixes
//!                 two destination nodes.
//! index pages: ceil(num_pairs / page_entries) pages; each page =
//!         page_entries * (u32 a, u32 b, u64 d_off, u32 d_count,
//!         u32 e_count, u32 dir_count) payload bytes (the final page
//!         zero-padded) + u32 crc32 over the full padded payload —
//!         entries strictly ascending by (a, b) across all pages
//! index head: u32 num_pairs, u32 page_entries,
//!         fence: one (u32 a, u32 b) per page, that page's first key,
//!         u32 crc32 over the head — the pages ending exactly at the
//!         head, the head running exactly up to the footer
//! footer: u64 index_head_off, magic "KTPMCLO5"
//! ```
//!
//! Version 5 is version 3's body with a paged index: sections and
//! blocks are byte-for-byte v3's, which is why the block helpers
//! ([`v3_block_bytes`], [`v3_group_blocks`]) and
//! [`crate::write_store_v3`] keep their names. An index entry records
//! only where its `D` section starts and the entry counts of its three
//! sections: `E` starts where `D` ends and the directory where `E`
//! ends ([`section_bytes`]), so every section is read in one piece, its
//! length known before the read. `page_entries` is a writer constant
//! ([`INDEX_PAGE_ENTRIES`]) recorded in the file, like `block_entries`.
//!
//! A section's checksum covers its count prefix and its payload. The
//! `L` layout mirrors §4.1: incoming edges of each node, grouped
//! exclusively per (source label, node), sorted by distance,
//! addressable without scanning the table.
//!
//! **Blocks.** Group regions are fixed-size, individually checksummed
//! blocks, so a block cursor verifies each fragment as it is fetched
//! without reading the whole group. Because a block holds entries of
//! exactly one destination node, any [`crate::ShardSpec`] partition of
//! the root candidates touches *disjoint* block sets — parallel shards
//! never contend for (or falsely share) a cached block. The
//! `block_entries` header field makes files self-describing; writers
//! choose it at serialization time ([`crate::write_store_v3`]).
//!
//! **Verification.** [`crate::PagedStore`] checks the header and the
//! index head (its checksum, its fence, its counts) **eagerly at
//! open** — and reads nothing else there, so an open costs
//! O(labels + pages), not O(pairs). Everything else is checked on the
//! read that first touches it: an index page when a lookup first lands
//! on it (then kept, verified, for the store's lifetime), a
//! `D`/`E`/directory section when it is first read (its count prefix
//! must also equal the index entry's), a group block on its first
//! fetch — so bit rot is detected the moment damaged bytes are read,
//! as [`StorageError::Corrupt`], not merely bounds-checked. The
//! `get_*` readers are **fallible**: a buffer too short for the
//! requested integer yields [`StorageError::Corrupt`] instead of a
//! panic, so a truncated snapshot surfaces as an `Err` from
//! [`crate::PagedStore::open`] rather than aborting the process.
//!
//! **Index order.** The per-pair sections and the index entries are
//! written in ascending `(a, b)` key order, and that order is part of
//! the format: [`crate::PagedStore`] binary-searches the fence, then
//! the one page it lands on, as stored. The fence must be strictly
//! ascending (checked at open); a page must start at its fence key,
//! ascend strictly, end below the next page's fence key and hold
//! nothing but zeros past `num_pairs` (checked on its first touch).
//! An index whose checksums are valid but whose order is not is
//! refused with a pointed [`StorageError::BadFormat`] (a writer that
//! ignores the format, not bit rot — damaged bytes fail their CRC
//! first): at open for the fence, by the lookup that touches a bad
//! page otherwise — never served as a store that would miss lookups.
//! The same decision holds for the v6 manifest's fences below:
//! [`crate::Manifest::shard_of`] binary-searches them as stored, so
//! [`crate::Manifest::decode`] refuses checksum-valid fences that are
//! not non-decreasing.
//!
//! ## Version 6: the sharded-snapshot `MANIFEST`
//!
//! Version 6 (magic `KTPMCLO6`) is not a new closure-file layout — it
//! is the **manifest** of a sharded snapshot written by
//! [`crate::write_store_sharded`]: one small file (`MANIFEST`) next to
//! a set of plain v5 shard files. The writer gives each file a
//! contiguous, equal-count run of the ascending pair keys, so a file is
//! described by its **fence** — its first key — and owns every key from
//! its fence up to the next file's. Readers ([`crate::ShardedStore`],
//! [`crate::RemoteStore`]) open the manifest, answer
//! `num_nodes`/`node_label` from it directly, and route a label pair by
//! a binary search of the fences to the one file whose range holds it,
//! which they open on first touch; that file's own paged index says
//! whether the pair is present. A key before the first fence, or in
//! the range of a file holding no pair, opens nothing.
//!
//! ```text
//! magic "KTPMCLO6"
//! u32 shard_count, u32 block_entries, u32 num_nodes, u32 num_labels
//! labels: num_nodes * u32
//! per shard (shard_count times, in file-id order):
//!   u32 name_len, name_len bytes (UTF-8 file name, no path),
//!   u64 file_len, u32 content_crc32 (over the whole shard file),
//!   u32 pair_count, u32 first_a, u32 first_b (the fence: its first key)
//!   — fences non-decreasing; a file holding no pair carries the next
//!   file's fence ((0, 0) when no file holds a pair)
//! u32 crc32 over everything past the magic
//! ```
//!
//! The manifest is O(labels + files), whatever the pair count. The
//! trailing CRC-32 covers every byte after the magic, so any truncation
//! or bit flip in the manifest is detected at open; every count is
//! checked against the bytes left before anything is allocated for it.
//! Shard file names are stored without directory components and
//! resolved relative to the manifest's parent directory. The per-file
//! `content_crc32` lets `ktpm store verify` prove a shard file is the
//! exact one the writer sealed before scrubbing its sections, and the
//! scrub checks that the file holds `pair_count` keys inside its fence
//! range. A shard's **file id** is its position in the manifest's shard
//! list — the id the remote `FETCH` protocol and the shared block-cache
//! key use.
//!
//! ## Versions 1–4: recognised, refused
//!
//! The magics `KTPMCLO1` (no checksums), `KTPMCLO2` (per-section
//! checksums, packed group regions) and `KTPMCLO3` (v5's body behind
//! one whole index, read and checked in full at every open) belong to
//! layouts this crate wrote before v5 and no longer reads or writes;
//! `KTPMCLO4` is the manifest before v6, which routed each label pair
//! through a table of its own (12 bytes a pair, a second copy of the
//! shard files' indexes). Every open path recognises them only to
//! refuse them with one pointed [`StorageError::BadFormat`]
//! ([`refuse_legacy_magic`]): a closure file is derived data, so the
//! upgrade is to re-run `ktpm closure` (with `--shards` for a
//! snapshot).

use crate::source::StorageError;
use ktpm_graph::LabelId;

/// Version-5 magic: the closure file ([`crate::write_store`] writes
/// it, [`crate::PagedStore`] reads it).
pub const MAGIC_V5: &[u8; 8] = b"KTPMCLO5";
/// Version-6 magic: the `MANIFEST` of a sharded snapshot (key ranges +
/// integrity metadata over a set of v5 shard files; see the module
/// docs). Read by [`crate::ShardedStore`] / [`crate::RemoteStore`].
pub const MAGIC_V6: &[u8; 8] = b"KTPMCLO6";
pub const FOOTER_LEN: u64 = 8 + 8;

/// Refuses the retired layouts by their magic — the v1/v2/v3 closure
/// files (`KTPMCLO1`, `KTPMCLO2`, `KTPMCLO3`) and the v4 manifest
/// (`KTPMCLO4`) — with the one error every open path gives them; any
/// other magic is the caller's to judge.
pub fn refuse_legacy_magic(magic: &[u8]) -> Result<(), StorageError> {
    match magic {
        b"KTPMCLO1" | b"KTPMCLO2" | b"KTPMCLO3" => Err(StorageError::BadFormat(
            "format v1/v2/v3 store: no longer readable — re-run `ktpm closure`".into(),
        )),
        b"KTPMCLO4" => Err(StorageError::BadFormat(
            "format v4 MANIFEST (a per-pair routing table): no longer readable — rewrite \
             the snapshot with `ktpm closure --shards`"
                .into(),
        )),
        _ => Ok(()),
    }
}

/// The refusal every on-disk pair array shares — the v5 index and its
/// fence (see "Index order" in the module docs): entry `i`'s `key` does not sort strictly above its
/// predecessor's. The comparison stays in each parser's loop; only the
/// error is built here.
#[cold]
pub fn pair_order_error(
    array: &str,
    i: usize,
    prev: (LabelId, LabelId),
    key: (LabelId, LabelId),
) -> StorageError {
    StorageError::BadFormat(format!(
        "{array} entry {i} is pair ({}, {}) after ({}, {}): entries must be strictly \
         ascending by label pair (out-of-order or duplicate key)",
        key.0 .0, key.1 .0, prev.0 .0, prev.1 .0
    ))
}

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial:
/// `CRC_TABLES[0]` is the classic byte table, and `CRC_TABLES[k][i]`
/// is the CRC state after byte `i` followed by `k` zero bytes — so
/// eight input bytes fold into the state with eight independent
/// lookups instead of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Streaming CRC-32 (IEEE 802.3) update; start from
/// [`CRC_INIT`], finish with [`crc32_finish`]. Slicing-by-8: eight
/// bytes per step, the sub-word tail one byte at a time — the values
/// are those of the textbook bytewise loop, so every stored checksum
/// keeps verifying.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Initial CRC-32 state.
pub const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Finalizes a streaming CRC-32 state.
pub fn crc32_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

/// One-shot CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC_INIT, bytes))
}

/// Size of one `L` entry on disk: `(u32 src, u32 dist)`.
pub const L_ENTRY_BYTES: usize = 8;

/// Default cursor block size in `L` entries (512 bytes per block).
/// Doubles as the default on-disk block capacity.
pub const DEFAULT_BLOCK_EDGES: usize = 64;

/// On-disk size of one v3 group block holding `entries` `L` entries:
/// the fixed (zero-padded) payload plus its trailing CRC-32.
pub const fn v3_block_bytes(entries: usize) -> usize {
    entries * L_ENTRY_BYTES + 4
}

/// Number of v3 blocks a group of `len` entries occupies.
pub const fn v3_group_blocks(len: usize, block_entries: usize) -> usize {
    len.div_ceil(block_entries)
}

/// Entries per index page written by [`crate::write_store`] (a page
/// is 3 588 bytes). Recorded in each file's index head, so a reader
/// takes whatever the file declares.
pub const INDEX_PAGE_ENTRIES: usize = 128;

/// Size of one index entry on disk: `(u32 a, u32 b, u64 d_off,
/// u32 d_count, u32 e_count, u32 dir_count)`.
pub const INDEX_ENTRY_BYTES: usize = 4 + 4 + 8 + 4 + 4 + 4;

/// On-disk size of one index page of `entries` entries: the fixed
/// (zero-padded) payload plus its trailing CRC-32.
pub const fn index_page_bytes(entries: usize) -> usize {
    entries * INDEX_ENTRY_BYTES + 4
}

/// Entry widths of the three counted per-pair sections: `D`
/// `(node, dist)`, `E` `(src, dst, dist)`, directory
/// `(dst, abs_off, len)`.
pub const D_ENTRY_BYTES: usize = 8;
pub const E_ENTRY_BYTES: usize = 12;
pub const DIR_ENTRY_BYTES: usize = 16;

/// On-disk size of a counted section of `count` entries of `width`
/// bytes: count prefix, payload, CRC-32.
pub const fn section_bytes(count: u32, width: usize) -> u64 {
    4 + count as u64 * width as u64 + 4
}

/// Whether `buf`'s trailing CRC-32 matches every byte before it — the
/// seal of every region of the format except the footer. A buffer too
/// short to hold a checksum is not sealed.
pub fn seal_holds(buf: &[u8]) -> bool {
    let Some(at) = buf.len().checked_sub(4) else {
        return false;
    };
    crc32(&buf[..at]) == u32::from_le_bytes(buf[at..].try_into().expect("sliced 4 bytes"))
}

/// The length and CRC-32 of a whole file, streamed through a fixed
/// 64 KiB buffer — a store larger than RAM is sealed and checked
/// without ever being held.
pub fn file_crc32(path: &std::path::Path) -> Result<(u64, u32), StorageError> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 64 * 1024];
    let (mut len, mut state) = (0u64, CRC_INIT);
    loop {
        let got = match file.read(&mut buf) {
            Ok(0) => return Ok((len, crc32_finish(state))),
            Ok(got) => got,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        state = crc32_update(state, &buf[..got]);
        len += got as u64;
    }
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32` at `*pos`, advancing the position.
/// Errors with [`StorageError::Corrupt`] when fewer than 4 bytes
/// remain — the offset reported is the read position within `buf`.
pub fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, StorageError> {
    match buf.get(*pos..).and_then(|b| b.get(..4)) {
        Some(bytes) => {
            let v = u32::from_le_bytes(bytes.try_into().expect("sliced to 4 bytes"));
            *pos += 4;
            Ok(v)
        }
        None => Err(StorageError::Corrupt {
            offset: *pos as u64,
            needed: 4,
        }),
    }
}

/// Reads a little-endian `u64` at `*pos`, advancing the position;
/// fallible exactly like [`get_u32`].
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, StorageError> {
    match buf.get(*pos..).and_then(|b| b.get(..8)) {
        Some(bytes) => {
            let v = u64::from_le_bytes(bytes.try_into().expect("sliced to 8 bytes"));
            *pos += 8;
            Ok(v)
        }
        None => Err(StorageError::Corrupt {
            offset: *pos as u64,
            needed: 8,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u32(&mut buf, 7);
        let mut pos = 0;
        assert_eq!(get_u32(&buf, &mut pos).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u32(&buf, &mut pos).unwrap(), 7);
        assert_eq!(pos, 8);
    }

    #[test]
    fn u64_roundtrip() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX - 3);
        let mut pos = 0;
        assert_eq!(get_u64(&buf, &mut pos).unwrap(), u64::MAX - 3);
    }

    #[test]
    fn short_buffers_error_instead_of_panicking() {
        // Every truncation point of a u32/u64 read must yield Corrupt
        // with the exact position and need — and leave `pos` untouched.
        let buf = [1u8, 2, 3];
        for start in 0..=buf.len() {
            let mut pos = start;
            match get_u32(&buf, &mut pos) {
                Err(StorageError::Corrupt { offset, needed }) => {
                    assert_eq!(offset, start as u64);
                    assert_eq!(needed, 4);
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
            assert_eq!(pos, start, "failed reads must not advance");
            let mut pos = start;
            assert!(matches!(
                get_u64(&buf, &mut pos),
                Err(StorageError::Corrupt { needed: 8, .. })
            ));
        }
    }

    #[test]
    fn reads_past_usize_boundary_do_not_overflow() {
        let buf = [0u8; 4];
        let mut pos = usize::MAX - 1;
        assert!(get_u32(&buf, &mut pos).is_err());
        assert!(get_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming equals one-shot.
        let s = crc32_update(CRC_INIT, b"1234");
        let s = crc32_update(s, b"56789");
        assert_eq!(crc32_finish(s), 0xCBF4_3926);
    }

    /// The retained reference: the polynomial applied a bit at a time,
    /// sharing nothing with [`CRC_TABLES`].
    fn crc32_bitwise(state: u32, bytes: &[u8]) -> u32 {
        let mut c = state;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c
    }

    #[test]
    fn sliced_crc32_equals_the_bitwise_oracle() {
        // SplitMix64: deterministic bytes, lengths and split points.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Every length through eight words, then random ones to 8 KiB.
        let mut lens: Vec<usize> = (0..=64).collect();
        lens.extend((0..200).map(|_| (next() % 8193) as usize));
        for len in lens {
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let want = crc32_finish(crc32_bitwise(CRC_INIT, &buf));
            assert_eq!(crc32(&buf), want, "one-shot, {len} bytes");
            // Streaming over random split points (empty pieces included)
            // lands every alignment of the 8-byte step.
            let mut cuts: Vec<usize> = (0..3).map(|_| (next() as usize) % (len + 1)).collect();
            cuts.sort_unstable();
            let mut s = CRC_INIT;
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                s = crc32_update(s, &buf[from..cut]);
                from = cut;
            }
            assert_eq!(crc32_finish(s), want, "streamed, {len} bytes");
        }
    }

    #[test]
    fn legacy_magics_are_refused_and_only_those() {
        for legacy in [b"KTPMCLO1", b"KTPMCLO2", b"KTPMCLO3", b"KTPMCLO4"] {
            let err = refuse_legacy_magic(legacy).unwrap_err();
            assert!(
                matches!(&err, StorageError::BadFormat(m) if m.contains("ktpm closure")),
                "{err}"
            );
        }
        for other in [&MAGIC_V5[..], &MAGIC_V6[..], b"KTPMXXX9", b"KTPM", b""] {
            refuse_legacy_magic(other).unwrap();
        }
    }

    #[test]
    fn seals_hold_only_over_their_own_bytes() {
        let mut buf = b"payload".to_vec();
        put_u32(&mut buf, crc32(b"payload"));
        assert!(seal_holds(&buf));
        buf[0] ^= 1;
        assert!(!seal_holds(&buf));
        assert!(
            seal_holds(&crc32(b"").to_le_bytes()),
            "an empty payload seals"
        );
        assert!(!seal_holds(&[0u8; 3]), "too short to carry a checksum");
    }

    #[test]
    fn streamed_file_crc_equals_the_one_shot_crc() {
        // Lengths around the 64 KiB read buffer: empty, short, exactly
        // one buffer, and several buffers plus a tail.
        for len in [0usize, 5, 64 * 1024, 3 * 64 * 1024 + 17] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut path = std::env::temp_dir();
            path.push(format!("ktpm-file-crc-{}-{len}", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(file_crc32(&path).unwrap(), (len as u64, crc32(&bytes)));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v5_index_geometry() {
        assert_eq!(INDEX_ENTRY_BYTES, 28);
        assert_eq!(index_page_bytes(INDEX_PAGE_ENTRIES), 128 * 28 + 4);
        assert_eq!(section_bytes(0, D_ENTRY_BYTES), 8);
        assert_eq!(section_bytes(3, E_ENTRY_BYTES), 4 + 36 + 4);
        assert_eq!(
            section_bytes(u32::MAX, DIR_ENTRY_BYTES),
            8 + u32::MAX as u64 * 16,
            "no overflow at the largest count"
        );
    }

    #[test]
    fn v3_block_geometry() {
        assert_eq!(v3_block_bytes(64), 64 * 8 + 4);
        assert_eq!(v3_group_blocks(0, 64), 0);
        assert_eq!(v3_group_blocks(1, 64), 1);
        assert_eq!(v3_group_blocks(64, 64), 1);
        assert_eq!(v3_group_blocks(65, 64), 2);
        assert_eq!(v3_group_blocks(129, 64), 3);
    }
}
