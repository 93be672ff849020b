//! The v6 `MANIFEST` of a sharded snapshot: one key range per shard
//! file, plus enough header material (labels, block capacity, per-file
//! content hashes) that a reader can answer label queries and verify
//! shard files without opening any of them. Per-pair membership lives
//! in each shard file's own paged pair index, never here. See the
//! `format` module docs for the byte layout.

use crate::format::{crc32, get_u32, get_u64, put_u32, put_u64, refuse_legacy_magic, MAGIC_V6};
use crate::source::StorageError;
use ktpm_graph::{LabelId, NodeId};

/// The smallest shard record on disk: an empty name, `file_len`,
/// `content_crc`, `pair_count` and the two fence labels.
const MIN_SHARD_RECORD_BYTES: usize = 4 + 8 + 4 + 4 + 8;

/// One shard file as recorded in the manifest, in file-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFileMeta {
    /// File name (no directory components); resolved relative to the
    /// manifest's parent directory.
    pub name: String,
    /// Expected byte length of the shard file.
    pub file_len: u64,
    /// CRC-32 over the whole shard file, sealed at write time.
    pub content_crc: u32,
    /// Label pairs the file holds; a file that holds none is never
    /// opened.
    pub pair_count: u32,
    /// The file's fence: its first label pair. The file owns every key
    /// from here up to the next file's fence ([`Manifest::range_of`]).
    pub first_key: (LabelId, LabelId),
}

/// Decoded v6 manifest: the routing and integrity metadata of a
/// sharded snapshot ([`crate::write_store_sharded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// On-disk block capacity (in `L` entries) shared by every shard
    /// file.
    pub block_entries: u32,
    /// Number of distinct labels (v5 header parity).
    pub num_labels: u32,
    /// Per-node labels of the underlying data graph, indexed by node id.
    pub labels: Vec<LabelId>,
    /// The shard files, indexed by file id, their fences non-decreasing
    /// (checked by [`Manifest::decode`]; [`Manifest::encode`] writes
    /// them as is, so a hand-built manifest must keep the order or its
    /// own `decode` refuses it).
    pub shards: Vec<ShardFileMeta>,
}

impl Manifest {
    /// Number of nodes of the underlying data graph.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// The label of a data node (panics on out-of-range ids, exactly
    /// like the in-memory backends).
    pub fn node_label(&self, v: NodeId) -> LabelId {
        self.labels[v.0 as usize]
    }

    /// The file id whose key range holds `(a, b)`: the last file whose
    /// fence is at most the key, by binary search of the fences. `None`
    /// before the first fence, or when that file holds no pair. Whether
    /// the pair is present is the file's own index's to say.
    pub fn shard_of(&self, a: LabelId, b: LabelId) -> Option<u32> {
        let i = self
            .shards
            .partition_point(|s| s.first_key <= (a, b))
            .checked_sub(1)?;
        (self.shards[i].pair_count > 0).then_some(i as u32)
    }

    /// File `shard`'s key range: from its fence up to, not including,
    /// the next file's (`None`: no end).
    pub fn range_of(&self, shard: usize) -> ((LabelId, LabelId), Option<(LabelId, LabelId)>) {
        let end = self.shards.get(shard + 1).map(|s| s.first_key);
        (self.shards[shard].first_key, end)
    }

    /// Label pairs in the whole snapshot.
    pub fn pair_count(&self) -> u64 {
        self.shards.iter().map(|s| s.pair_count as u64).sum()
    }

    /// Serializes to the on-disk v6 layout, trailing CRC included.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V6);
        put_u32(&mut buf, self.shards.len() as u32);
        put_u32(&mut buf, self.block_entries);
        put_u32(&mut buf, self.labels.len() as u32);
        put_u32(&mut buf, self.num_labels);
        for &l in &self.labels {
            put_u32(&mut buf, l.0);
        }
        for s in &self.shards {
            put_u32(&mut buf, s.name.len() as u32);
            buf.extend_from_slice(s.name.as_bytes());
            put_u64(&mut buf, s.file_len);
            put_u32(&mut buf, s.content_crc);
            put_u32(&mut buf, s.pair_count);
            put_u32(&mut buf, s.first_key.0 .0);
            put_u32(&mut buf, s.first_key.1 .0);
        }
        let sum = crc32(&buf[MAGIC_V6.len()..]);
        put_u32(&mut buf, sum);
        buf
    }

    /// Parses and validates a v6 manifest. Any truncation, bit flip,
    /// or inconsistency (CRC mismatch, a count larger than the bytes
    /// left can hold, fences out of order, non-UTF-8 file name) is an
    /// error — never a panic, never an allocation the bytes cannot
    /// back. A retired v4 manifest is refused by its magic.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, StorageError> {
        refuse_legacy_magic(&bytes[..bytes.len().min(MAGIC_V6.len())])?;
        if bytes.len() < MAGIC_V6.len() || &bytes[..MAGIC_V6.len()] != MAGIC_V6 {
            return Err(StorageError::BadFormat(
                "not a sharded-snapshot MANIFEST (bad magic)".into(),
            ));
        }
        // Verify the trailing CRC before trusting any field.
        if bytes.len() < MAGIC_V6.len() + 4 {
            return Err(StorageError::Corrupt {
                offset: bytes.len() as u64,
                needed: MAGIC_V6.len() + 4 - bytes.len(),
            });
        }
        let end = bytes.len() - 4;
        let mut tail = end;
        let stored = get_u32(bytes, &mut tail).expect("4 bytes checked above");
        if crc32(&bytes[MAGIC_V6.len()..end]) != stored {
            return Err(StorageError::BadFormat(
                "MANIFEST checksum mismatch (truncated or damaged manifest)".into(),
            ));
        }
        let body = &bytes[..end];
        let mut pos = MAGIC_V6.len();
        let shard_count = get_u32(body, &mut pos)?;
        let block_entries = get_u32(body, &mut pos)?;
        let num_nodes = get_u32(body, &mut pos)?;
        let num_labels = get_u32(body, &mut pos)?;
        if block_entries == 0 {
            return Err(StorageError::BadFormat(
                "MANIFEST block capacity must be at least 1 entry".into(),
            ));
        }
        let mut labels = Vec::with_capacity(fits(num_nodes, 4, pos, end)?);
        for _ in 0..num_nodes {
            labels.push(LabelId(get_u32(body, &mut pos)?));
        }
        let mut shards: Vec<ShardFileMeta> =
            Vec::with_capacity(fits(shard_count, MIN_SHARD_RECORD_BYTES, pos, end)?);
        for i in 0..shard_count {
            let name_len = get_u32(body, &mut pos)? as usize;
            let name_bytes =
                body.get(pos..)
                    .and_then(|b| b.get(..name_len))
                    .ok_or(StorageError::Corrupt {
                        offset: pos as u64,
                        needed: name_len,
                    })?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| {
                    StorageError::BadFormat("MANIFEST shard file name is not UTF-8".into())
                })?
                .to_owned();
            pos += name_len;
            let file_len = get_u64(body, &mut pos)?;
            let content_crc = get_u32(body, &mut pos)?;
            let pair_count = get_u32(body, &mut pos)?;
            let first_key = (
                LabelId(get_u32(body, &mut pos)?),
                LabelId(get_u32(body, &mut pos)?),
            );
            // `shard_of` binary-searches the fences as stored: refuse an
            // order it would misroute.
            if let Some(prev) = shards.last().filter(|p| p.first_key > first_key) {
                let (p, k) = (prev.first_key, first_key);
                return Err(StorageError::BadFormat(format!(
                    "MANIFEST file {i}'s fence ({}, {}) is below file {}'s ({}, {}): fences \
                     must be non-decreasing",
                    k.0 .0,
                    k.1 .0,
                    i - 1,
                    p.0 .0,
                    p.1 .0
                )));
            }
            shards.push(ShardFileMeta {
                name,
                file_len,
                content_crc,
                pair_count,
                first_key,
            });
        }
        if pos != end {
            return Err(StorageError::BadFormat(format!(
                "MANIFEST holds {} byte(s) past its last shard record",
                end - pos
            )));
        }
        Ok(Manifest {
            block_entries,
            num_labels,
            labels,
            shards,
        })
    }
}

/// `count` records of at least `each` bytes, if the bytes from `pos` to
/// `end` can hold them — checked before anything is allocated for them.
fn fits(count: u32, each: usize, pos: usize, end: usize) -> Result<usize, StorageError> {
    let count = count as usize;
    if count > end.saturating_sub(pos) / each {
        return Err(StorageError::Corrupt {
            offset: pos as u64,
            needed: count.saturating_mul(each),
        });
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u32, b: u32) -> (LabelId, LabelId) {
        (LabelId(a), LabelId(b))
    }

    fn shard(name: &str, pair_count: u32, first_key: (LabelId, LabelId)) -> ShardFileMeta {
        ShardFileMeta {
            name: name.into(),
            file_len: 1234 + pair_count as u64,
            content_crc: 0xDEAD_BEEF ^ pair_count,
            pair_count,
            first_key,
        }
    }

    fn sample() -> Manifest {
        Manifest {
            block_entries: 64,
            num_labels: 3,
            labels: vec![LabelId(0), LabelId(1), LabelId(2), LabelId(1)],
            shards: vec![
                shard("shard-0000.tc", 2, key(0, 1)),
                shard("shard-0001.tc", 3, key(1, 2)),
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.num_nodes(), 4);
        assert_eq!(decoded.node_label(NodeId(3)), LabelId(1));
        assert_eq!(decoded.pair_count(), 5);
        assert_eq!(decoded.range_of(0), (key(0, 1), Some(key(1, 2))));
        assert_eq!(decoded.range_of(1), (key(1, 2), None));
    }

    #[test]
    fn a_key_routes_to_the_file_whose_range_holds_it() {
        let m = sample();
        assert_eq!(
            m.shard_of(LabelId(0), LabelId(0)),
            None,
            "before the first fence"
        );
        assert_eq!(m.shard_of(LabelId(0), LabelId(1)), Some(0), "at a fence");
        assert_eq!(m.shard_of(LabelId(1), LabelId(0)), Some(0));
        assert_eq!(
            m.shard_of(LabelId(1), LabelId(2)),
            Some(1),
            "at the next fence"
        );
        assert_eq!(m.shard_of(LabelId(9), LabelId(9)), Some(1), "past the last");
    }

    #[test]
    fn files_that_hold_no_pair_are_never_routed_to() {
        // Fewer pairs than files: the writer gives an empty file the
        // next file's fence, so the non-empty file wins the tie.
        let m = Manifest {
            shards: vec![
                shard("a", 0, key(1, 1)),
                shard("b", 1, key(1, 1)),
                shard("c", 0, key(2, 2)),
                shard("d", 1, key(2, 2)),
            ],
            ..sample()
        };
        let m = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(m.shard_of(LabelId(1), LabelId(1)), Some(1));
        assert_eq!(m.shard_of(LabelId(2), LabelId(2)), Some(3));
        assert_eq!(m.shard_of(LabelId(0), LabelId(5)), None);
        // No pair at all: nothing routes anywhere.
        let none = Manifest {
            shards: vec![shard("a", 0, key(0, 0)), shard("b", 0, key(0, 0))],
            ..sample()
        };
        for k in [key(0, 0), key(3, 3), key(u32::MAX, u32::MAX)] {
            assert_eq!(none.shard_of(k.0, k.1), None);
        }
    }

    #[test]
    fn truncation_at_every_byte_errors_cleanly() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                Manifest::decode(&bytes[..len]).is_err(),
                "truncation at byte {len} must not decode"
            );
        }
        assert!(Manifest::decode(&bytes).is_ok());
    }

    #[test]
    fn bit_flips_are_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Manifest::decode(&bad).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    /// A sealed manifest of the four header counts and nothing else.
    fn header_only(shard_count: u32, num_nodes: u32) -> Vec<u8> {
        let mut buf = MAGIC_V6.to_vec();
        for v in [shard_count, 64, num_nodes, 3] {
            put_u32(&mut buf, v);
        }
        let sum = crc32(&buf[MAGIC_V6.len()..]);
        put_u32(&mut buf, sum);
        buf
    }

    #[test]
    fn a_count_the_bytes_cannot_hold_is_refused_before_any_allocation() {
        // 28 bytes that claim u32::MAX files (or nodes): sized blindly,
        // either count asks for a hundred-odd gigabytes and aborts.
        for (shards, nodes) in [(u32::MAX, 0), (0, u32::MAX), (u32::MAX, u32::MAX)] {
            let bytes = header_only(shards, nodes);
            assert_eq!(bytes.len(), 28);
            let err = Manifest::decode(&bytes).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        }
        Manifest::decode(&header_only(0, 0)).unwrap();
    }

    #[test]
    fn descending_fences_are_refused_with_a_valid_checksum() {
        // `encode` seals whatever order it is handed, so this carries a
        // VALID trailing CRC: a writer that ignores the format, not bit
        // rot. `shard_of` binary-searches the fences as stored, so
        // `decode` must refuse them, pointedly. Equal fences are fine.
        let mut swapped = sample();
        swapped.shards.swap(0, 1);
        let err = Manifest::decode(&swapped.encode()).unwrap_err();
        assert!(
            matches!(&err, StorageError::BadFormat(msg) if msg.contains("non-decreasing")),
            "expected a pointed BadFormat, got {err}"
        );
        let mut tied = sample();
        tied.shards[1].first_key = tied.shards[0].first_key;
        Manifest::decode(&tied.encode()).unwrap();
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 4);
        bytes.extend_from_slice(&[0; 4]);
        let sum = crc32(&bytes[MAGIC_V6.len()..]);
        put_u32(&mut bytes, sum);
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(StorageError::BadFormat(_))
        ));
    }

    #[test]
    fn wrong_magic_is_a_pointed_error() {
        let err = Manifest::decode(b"KTPMCLO5rest").unwrap_err();
        assert!(err.to_string().contains("MANIFEST"), "{err}");
    }

    #[test]
    fn a_v4_manifest_is_refused_with_the_way_to_rewrite_it() {
        let mut v4 = sample().encode();
        v4[..8].copy_from_slice(b"KTPMCLO4");
        let err = Manifest::decode(&v4).unwrap_err();
        assert!(
            matches!(&err, StorageError::BadFormat(m) if m.contains("ktpm closure --shards")),
            "{err}"
        );
    }
}
