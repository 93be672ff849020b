//! [`ShardedStore`]: one [`ClosureSource`] over a sharded multi-file
//! snapshot ([`crate::write_store_sharded`]).
//!
//! The store opens only the `MANIFEST` eagerly — node count, labels,
//! and pair keys are all answered from it — and opens a shard file
//! lazily the first time a query touches a label pair routed to it
//! (counted as `files_opened` in [`IoStats`]). All member files share
//! **one** byte-budgeted [`BlockCache`] (namespaced by file id) and
//! one set of I/O counters, so the cache budget bounds the whole
//! snapshot, not each file.
//!
//! The shared [`ShardSet`] core also powers [`crate::RemoteStore`]:
//! the only difference between the two tiers is the
//! [`BlockSource`](crate::paged) each member [`PagedStore`] reads
//! through.

use crate::cache::BlockCache;
use crate::format::crc32;
use crate::iostats::{IoSnapshot, IoStats};
use crate::manifest::{Manifest, ShardFileMeta};
use crate::paged::{ErrorSlot, LocalFile, PagedStore, DEFAULT_BLOCK_CACHE_BYTES};
use crate::source::{ClosureSource, EdgeCursor, StorageError};
use ktpm_graph::{Dist, LabelId, NodeId};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Opens the member store for one file id, on first touch.
pub(crate) type Opener = Box<dyn Fn(u32) -> Result<PagedStore, StorageError> + Send + Sync>;

/// The manifest-routed set of lazily opened member [`PagedStore`]s —
/// the shared core of [`ShardedStore`] and [`crate::RemoteStore`].
pub(crate) struct ShardSet {
    pub(crate) manifest: Manifest,
    slots: Vec<OnceLock<Option<Arc<PagedStore>>>>,
    opener: Opener,
    pub(crate) io: IoStats,
    pub(crate) errors: ErrorSlot,
}

impl ShardSet {
    pub(crate) fn new(manifest: Manifest, opener: Opener, io: IoStats, errors: ErrorSlot) -> Self {
        let slots = (0..manifest.shards.len())
            .map(|_| OnceLock::new())
            .collect();
        ShardSet {
            manifest,
            slots,
            opener,
            io,
            errors,
        }
    }

    /// The member store for file id `shard`, opened lazily on first
    /// touch (counted as `files_opened`). An open failure is recorded
    /// in the error slot and the shard degrades to empty, like every
    /// infallible read path.
    fn store(&self, shard: u32) -> Option<&Arc<PagedStore>> {
        let slot = self.slots.get(shard as usize)?;
        slot.get_or_init(|| match (self.opener)(shard) {
            Ok(s) => {
                self.io.add_file_opened();
                Some(Arc::new(s))
            }
            Err(e) => {
                self.errors.record(e);
                None
            }
        })
        .as_ref()
    }

    fn store_for_pair(&self, a: LabelId, b: LabelId) -> Option<&Arc<PagedStore>> {
        self.store(self.manifest.shard_of(a, b)?)
    }

    /// Member files opened so far (the laziness observable).
    pub(crate) fn files_open(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.get(), Some(Some(_))))
            .count()
    }

    pub(crate) fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        self.store_for_pair(a, b)
            .map(|s| s.load_d(a, b))
            .unwrap_or_default()
    }

    pub(crate) fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        self.store_for_pair(a, b)
            .map(|s| s.load_e(a, b))
            .unwrap_or_default()
    }

    pub(crate) fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        self.store_for_pair(a, b)
            .map(|s| s.load_pair(a, b))
            .unwrap_or_default()
    }

    pub(crate) fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        let b = self.manifest.node_label(v);
        match self.store_for_pair(a, b) {
            Some(s) => s.incoming_cursor(a, v),
            None => Box::new(EmptyCursor),
        }
    }

    pub(crate) fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        let a = self.manifest.node_label(u);
        let b = self.manifest.node_label(v);
        self.store_for_pair(a, b)?.lookup_dist(u, v)
    }
}

/// The zero-entry cursor returned for label pairs absent from the
/// snapshot.
struct EmptyCursor;

impl EdgeCursor for EmptyCursor {
    fn next_block(&mut self) -> Vec<(NodeId, Dist)> {
        Vec::new()
    }

    fn remaining(&self) -> usize {
        0
    }
}

/// A sharded multi-file snapshot opened from its `MANIFEST`; see the
/// module docs. Constructed by [`ShardedStore::open`] or dispatched by
/// [`crate::open_store_auto`] (on the manifest path, a file with the
/// v4 magic, or the snapshot directory).
pub struct ShardedStore {
    inner: ShardSet,
    dir: PathBuf,
}

impl ShardedStore {
    /// Opens a sharded snapshot from its `MANIFEST` path, with the
    /// default cache budget
    /// ([`DEFAULT_BLOCK_CACHE_BYTES`](crate::DEFAULT_BLOCK_CACHE_BYTES)).
    pub fn open(manifest_path: &Path) -> Result<Self, StorageError> {
        Self::open_with_cache_bytes(manifest_path, DEFAULT_BLOCK_CACHE_BYTES)
    }

    /// Opens with an explicit shared block-cache byte budget (`0` =
    /// unlimited). Only the manifest is read here; shard files are
    /// opened lazily as queries touch their label pairs.
    pub fn open_with_cache_bytes(
        manifest_path: &Path,
        cache_bytes: u64,
    ) -> Result<Self, StorageError> {
        let bytes = std::fs::read(manifest_path)?;
        let manifest = Manifest::decode(&bytes)?;
        let dir = manifest_path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."));
        let cache = Arc::new(Mutex::new(BlockCache::new(cache_bytes)));
        let io = IoStats::new();
        let errors = ErrorSlot::default();
        let opener: Opener = {
            let dir = dir.clone();
            let names: Vec<String> = manifest.shards.iter().map(|s| s.name.clone()).collect();
            let cache = Arc::clone(&cache);
            let io = io.clone();
            let errors = errors.clone();
            Box::new(move |shard| {
                let name = &names[shard as usize];
                // Name the shard file in any open failure: a swallowed
                // "No such file" without the file is undebuggable.
                let wrap = |e: StorageError| StorageError::CorruptShard {
                    file: name.clone(),
                    error: Box::new(e),
                };
                PagedStore::from_source(
                    Box::new(LocalFile::open(&dir.join(name)).map_err(wrap)?),
                    Arc::clone(&cache),
                    io.clone(),
                    shard,
                    errors.clone(),
                )
                .map_err(wrap)
            })
        };
        Ok(ShardedStore {
            inner: ShardSet::new(manifest, opener, io, errors),
            dir,
        })
    }

    /// Wraps the store in a [`crate::SharedSource`] for concurrent use.
    pub fn into_shared(self) -> crate::SharedSource {
        Arc::new(self)
    }

    /// The decoded manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.inner.manifest
    }

    /// Number of shard files in the snapshot.
    pub fn shard_count(&self) -> usize {
        self.inner.manifest.shards.len()
    }

    /// Member files opened so far — stays below
    /// [`Self::shard_count`] while queries touch only some pairs.
    pub fn files_open(&self) -> usize {
        self.inner.files_open()
    }

    /// Scrubs the whole snapshot: for every shard file, checks its
    /// length and whole-file content hash against the manifest, then
    /// re-verifies every section and group block
    /// ([`PagedStore::verify`]). The first failure is returned as
    /// [`StorageError::CorruptShard`], naming the file and carrying
    /// the inner offset. Scrub reads bypass (and never pollute) the
    /// shared block cache.
    pub fn verify(&self) -> Result<(), StorageError> {
        for meta in &self.inner.manifest.shards {
            self.verify_shard(meta)
                .map_err(|e| StorageError::CorruptShard {
                    file: meta.name.clone(),
                    error: Box::new(e),
                })?;
        }
        Ok(())
    }

    fn verify_shard(&self, meta: &ShardFileMeta) -> Result<(), StorageError> {
        let path = self.dir.join(&meta.name);
        let bytes = std::fs::read(&path)?;
        if bytes.len() as u64 != meta.file_len {
            return Err(StorageError::BadFormat(format!(
                "file is {} byte(s), manifest sealed {}",
                bytes.len(),
                meta.file_len
            )));
        }
        if crc32(&bytes) != meta.content_crc {
            return Err(StorageError::BadFormat(
                "whole-file content hash does not match the manifest".into(),
            ));
        }
        // A scrub-private store: verify() bypasses the cache, and this
        // keeps scrub failures out of the serving error slot.
        let store = PagedStore::open_with_cache_bytes(&path, 1)?;
        store.verify()
    }
}

impl ClosureSource for ShardedStore {
    fn num_nodes(&self) -> usize {
        self.inner.manifest.num_nodes()
    }

    fn node_label(&self, v: NodeId) -> LabelId {
        self.inner.manifest.node_label(v)
    }

    fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        self.inner.manifest.pair_keys()
    }

    fn has_pair(&self, a: LabelId, b: LabelId) -> bool {
        self.inner.manifest.shard_of(a, b).is_some()
    }

    fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        self.inner.load_d(a, b)
    }

    fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        self.inner.load_e(a, b)
    }

    fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        self.inner.load_pair(a, b)
    }

    fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        self.inner.incoming_cursor(a, v)
    }

    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        self.inner.lookup_dist(u, v)
    }

    fn io(&self) -> IoSnapshot {
        self.inner.io.snapshot()
    }

    fn reset_io(&self) {
        self.inner.io.reset();
    }

    fn take_error(&self) -> Option<StorageError> {
        self.inner.errors.take()
    }
}

/// Loads (or synthesizes) the manifest a block server should announce
/// for `store_path`, returning it with the directory its shard files
/// live in. Accepts a snapshot directory, a `MANIFEST` path, or a
/// plain single v3 file — the latter gets a synthesized one-file
/// manifest, so `ktpm blockd` can serve any snapshot.
pub fn load_snapshot_manifest(store_path: &Path) -> Result<(Manifest, PathBuf), StorageError> {
    let manifest_path = if store_path.is_dir() {
        let p = store_path.join("MANIFEST");
        if !p.is_file() {
            return Err(StorageError::BadFormat(format!(
                "{} is a directory without a MANIFEST — did you mean the manifest path \
                 of a sharded snapshot (<dir>/MANIFEST, written by write_store_sharded)?",
                store_path.display()
            )));
        }
        p
    } else {
        store_path.to_path_buf()
    };
    let dir = manifest_path
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let bytes = std::fs::read(&manifest_path)?;
    if bytes.starts_with(crate::format::MAGIC_V4) {
        return Ok((Manifest::decode(&bytes)?, dir));
    }
    // A single v3 file: synthesize the one-file manifest.
    let store = PagedStore::open_with_cache_bytes(&manifest_path, 1)?;
    let labels: Vec<LabelId> = (0..store.num_nodes())
        .map(|i| store.node_label(NodeId(i as u32)))
        .collect();
    let num_labels = labels.iter().map(|l| l.0 + 1).max().unwrap_or(0);
    let name = manifest_path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| StorageError::BadFormat("store file name is not UTF-8".into()))?
        .to_owned();
    let routing = store.pair_keys().into_iter().map(|k| (k, 0)).collect();
    Ok((
        Manifest {
            block_entries: store.block_entries() as u32,
            num_labels,
            labels,
            shards: vec![ShardFileMeta {
                name,
                file_len: bytes.len() as u64,
                content_crc: crc32(&bytes),
            }],
            routing,
        },
        dir,
    ))
}
