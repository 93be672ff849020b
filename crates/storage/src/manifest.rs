//! The v4 `MANIFEST` of a sharded snapshot: which shard file owns each
//! label pair, plus enough header material (labels, block capacity,
//! per-file content hashes) that a reader can answer metadata queries
//! and verify shard files without opening any of them. See the
//! `format` module docs for the byte layout.

use crate::format::{crc32, get_u32, get_u64, pair_order_error, put_u32, put_u64, MAGIC_V4};
use crate::source::StorageError;
use ktpm_graph::{LabelId, NodeId};

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
}

/// Decoded v4 manifest: the routing and integrity metadata of a
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
    /// The shard files, indexed by file id.
    pub shards: Vec<ShardFileMeta>,
    /// Label pair → owning file id, strictly ascending by `(a, b)` —
    /// the on-disk array as decoded (and order-checked) by
    /// [`Manifest::decode`], binary-searched by [`Manifest::shard_of`].
    /// [`Manifest::encode`] writes it as is, so a hand-built manifest
    /// must keep the order or its own `decode` refuses it.
    pub routing: Vec<((LabelId, LabelId), u32)>,
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

    /// The file id owning `(a, b)`, or `None` when the pair is empty.
    pub fn shard_of(&self, a: LabelId, b: LabelId) -> Option<u32> {
        self.routing
            .binary_search_by_key(&(a, b), |&(key, _)| key)
            .ok()
            .map(|i| self.routing[i].1)
    }

    /// All non-empty label pairs, ascending.
    pub fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        self.routing.iter().map(|&(key, _)| key).collect()
    }

    /// Serializes to the on-disk v4 layout, trailing CRC included.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V4);
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
        }
        put_u32(&mut buf, self.routing.len() as u32);
        for &((a, b), shard) in &self.routing {
            put_u32(&mut buf, a.0);
            put_u32(&mut buf, b.0);
            put_u32(&mut buf, shard);
        }
        let sum = crc32(&buf[MAGIC_V4.len()..]);
        put_u32(&mut buf, sum);
        buf
    }

    /// Parses and validates a v4 manifest. Any truncation, bit flip,
    /// or inconsistency (CRC mismatch, routing to a nonexistent shard,
    /// routing entries out of order or repeating a pair, non-UTF-8 file
    /// name) is an error — never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, StorageError> {
        if bytes.len() < MAGIC_V4.len() || &bytes[..MAGIC_V4.len()] != MAGIC_V4 {
            return Err(StorageError::BadFormat(
                "not a sharded-snapshot MANIFEST (bad magic)".into(),
            ));
        }
        // Verify the trailing CRC before trusting any field.
        if bytes.len() < MAGIC_V4.len() + 4 {
            return Err(StorageError::Corrupt {
                offset: bytes.len() as u64,
                needed: MAGIC_V4.len() + 4 - bytes.len(),
            });
        }
        let body = &bytes[MAGIC_V4.len()..bytes.len() - 4];
        let mut tail = bytes.len() - 4;
        let stored = get_u32(bytes, &mut tail).expect("4 bytes checked above");
        if crc32(body) != stored {
            return Err(StorageError::BadFormat(
                "MANIFEST checksum mismatch (truncated or damaged manifest)".into(),
            ));
        }
        let mut pos = MAGIC_V4.len();
        let shard_count = get_u32(bytes, &mut pos)?;
        let block_entries = get_u32(bytes, &mut pos)?;
        let num_nodes = get_u32(bytes, &mut pos)?;
        let num_labels = get_u32(bytes, &mut pos)?;
        if block_entries == 0 {
            return Err(StorageError::BadFormat(
                "MANIFEST block capacity must be at least 1 entry".into(),
            ));
        }
        let mut labels = Vec::with_capacity(num_nodes as usize);
        for _ in 0..num_nodes {
            labels.push(LabelId(get_u32(bytes, &mut pos)?));
        }
        let mut shards = Vec::with_capacity(shard_count as usize);
        for _ in 0..shard_count {
            let name_len = get_u32(bytes, &mut pos)? as usize;
            let name_bytes =
                bytes
                    .get(pos..)
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
            let file_len = get_u64(bytes, &mut pos)?;
            let content_crc = get_u32(bytes, &mut pos)?;
            shards.push(ShardFileMeta {
                name,
                file_len,
                content_crc,
            });
        }
        let pair_count = get_u32(bytes, &mut pos)? as usize;
        // Bound the count by the bytes left before allocating for it.
        if pair_count > (bytes.len() - 4).saturating_sub(pos) / 12 {
            return Err(StorageError::Corrupt {
                offset: pos as u64,
                needed: pair_count.saturating_mul(12),
            });
        }
        // The writer emits pairs in ascending key order and the format
        // requires it (see the `format` docs): check it while parsing,
        // and the array is its own lookup structure.
        let mut routing: Vec<((LabelId, LabelId), u32)> = Vec::with_capacity(pair_count);
        for i in 0..pair_count {
            let a = LabelId(get_u32(bytes, &mut pos)?);
            let b = LabelId(get_u32(bytes, &mut pos)?);
            let shard = get_u32(bytes, &mut pos)?;
            if let Some(&(prev, _)) = routing.last().filter(|&&(prev, _)| prev >= (a, b)) {
                return Err(pair_order_error("MANIFEST routing", i, prev, (a, b)));
            }
            if shard >= shard_count {
                return Err(StorageError::BadFormat(format!(
                    "MANIFEST routes pair ({}, {}) to shard {shard} of {shard_count}",
                    a.0, b.0
                )));
            }
            routing.push(((a, b), shard));
        }
        Ok(Manifest {
            block_entries,
            num_labels,
            labels,
            shards,
            routing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let routing = vec![
            ((LabelId(0), LabelId(1)), 0),
            ((LabelId(1), LabelId(0)), 1),
            ((LabelId(1), LabelId(2)), 0),
        ];
        Manifest {
            block_entries: 64,
            num_labels: 3,
            labels: vec![LabelId(0), LabelId(1), LabelId(2), LabelId(1)],
            shards: vec![
                ShardFileMeta {
                    name: "shard-0000.tc".into(),
                    file_len: 1234,
                    content_crc: 0xDEAD_BEEF,
                },
                ShardFileMeta {
                    name: "shard-0001.tc".into(),
                    file_len: 999,
                    content_crc: 7,
                },
            ],
            routing,
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.num_nodes(), 4);
        assert_eq!(decoded.node_label(NodeId(3)), LabelId(1));
        assert_eq!(decoded.shard_of(LabelId(1), LabelId(0)), Some(1));
        assert_eq!(decoded.shard_of(LabelId(2), LabelId(2)), None);
        assert_eq!(decoded.pair_keys().len(), 3);
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

    #[test]
    fn routing_to_missing_shard_is_rejected() {
        let mut m = sample();
        m.routing.push(((LabelId(2), LabelId(2)), 9));
        let err = Manifest::decode(&m.encode()).unwrap_err();
        assert!(matches!(err, StorageError::BadFormat(_)), "{err}");
    }

    #[test]
    fn misordered_or_duplicate_routing_is_refused_with_a_valid_checksum() {
        // `encode` seals whatever order it is handed, so these carry a
        // VALID trailing CRC: a writer that ignores the format, not bit
        // rot. `shard_of` binary-searches the array as stored — decoding
        // it would miss lookups — so `decode` must refuse it, pointedly.
        let mut swapped = sample();
        swapped.routing.swap(0, 2);
        let mut duplicate = sample();
        duplicate.routing[1].0 = duplicate.routing[0].0;
        for (what, m) in [("swapped", swapped), ("duplicate", duplicate)] {
            let err = Manifest::decode(&m.encode()).unwrap_err();
            assert!(
                matches!(&err, StorageError::BadFormat(msg) if msg.contains("ascending")),
                "{what}: expected a pointed BadFormat, got {err}"
            );
        }
    }

    #[test]
    fn wrong_magic_is_a_pointed_error() {
        let err = Manifest::decode(b"KTPMCLO3rest").unwrap_err();
        assert!(err.to_string().contains("MANIFEST"), "{err}");
    }
}
