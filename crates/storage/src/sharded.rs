//! The manifest-routed store: one [`ClosureSource`] over a snapshot of
//! v5 shard files described by a v6 `MANIFEST`
//! ([`crate::write_store_sharded`]), wherever the files' bytes live.
//!
//! A [`RoutedStore`] opens only the manifest eagerly — node count and
//! labels are answered from it — and routes a label pair by a binary
//! search of the files' fences (first keys) to the one file whose key
//! range holds it. That file is opened lazily the first time a query
//! touches a pair in its range (counted as `files_opened` in
//! [`IoStats`]), and its own paged index answers whether the pair is
//! there: the snapshot keeps one copy of its pair set, in the shard
//! files. A pair before the first fence, or in the range of a file
//! holding no pair, opens nothing. [`ClosureSource::pair_keys`] is the
//! members' keys end to end — already ascending, since the ranges are —
//! and reads each member's missing index pages in one batch. All member
//! files share **one** byte-budgeted [`BlockCache`] (namespaced by file
//! id), one set of I/O counters and one error slot, so the cache budget
//! bounds the whole snapshot, not each file.
//!
//! Routing, lazy opening and the whole [`ClosureSource`] surface are
//! written once, here. The two public tiers are aliases that add only
//! what differs — how a member file's bytes are reached and what can be
//! asked of that place:
//!
//! * [`ShardedStore`] `= RoutedStore<SnapshotDir>`: shard files in a
//!   local directory (`open`, `verify`, `shard_count`);
//! * [`crate::RemoteStore`] `= RoutedStore<BlockdLink>`: shard files
//!   behind a `ktpm blockd` server (`connect`, `addr`, `server_stats`).

use crate::cache::BlockCache;
use crate::format::file_crc32;
use crate::iostats::{IoSnapshot, IoStats};
use crate::manifest::{Manifest, ShardFileMeta};
use crate::paged::{
    open_local_store, ErrorSlot, LocalFile, LocalStore, PagedStore, DEFAULT_BLOCK_CACHE_BYTES,
};
use crate::source::{ClosureSource, EdgeCursor, IncomingRun, Sections, StorageError};
use crate::table;
use ktpm_graph::{Dist, LabelId, NodeId};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Opens the member store for one file id (and its manifest entry), on
/// first touch.
pub(crate) type Opener =
    Box<dyn Fn(u32, &ShardFileMeta) -> Result<PagedStore, StorageError> + Send + Sync>;

/// A snapshot's manifest plus its lazily opened member [`PagedStore`]s,
/// generic over `O`, the place the shard files live; see the module
/// docs. Used through its aliases [`ShardedStore`] and
/// [`crate::RemoteStore`].
pub struct RoutedStore<O> {
    manifest: Manifest,
    slots: Vec<OnceLock<Option<PagedStore>>>,
    opener: Opener,
    io: IoStats,
    errors: ErrorSlot,
    pub(crate) origin: O,
}

impl<O> RoutedStore<O> {
    /// `opener` must hand every member the same `io` and `errors` (and
    /// one shared block cache), so the snapshot reads as one store.
    pub(crate) fn new(
        manifest: Manifest,
        opener: Opener,
        io: IoStats,
        errors: ErrorSlot,
        origin: O,
    ) -> Self {
        let slots = (0..manifest.shards.len())
            .map(|_| OnceLock::new())
            .collect();
        RoutedStore {
            manifest,
            slots,
            opener,
            io,
            errors,
            origin,
        }
    }

    /// The member store whose key range holds `(a, b)`
    /// ([`Manifest::shard_of`]); see [`Self::member_at`].
    fn member(&self, a: LabelId, b: LabelId) -> Option<&PagedStore> {
        self.member_at(self.manifest.shard_of(a, b)?)
    }

    /// Member file `shard`, opened lazily on first touch (counted as
    /// `files_opened`). An open failure is recorded in the error slot
    /// and the shard degrades to empty, like every infallible read
    /// path.
    fn member_at(&self, shard: u32) -> Option<&PagedStore> {
        let meta = self.manifest.shards.get(shard as usize)?;
        self.slots[shard as usize]
            .get_or_init(|| match (self.opener)(shard, meta) {
                Ok(s) => {
                    self.io.add_file_opened();
                    Some(s)
                }
                Err(e) => {
                    self.errors.record(e);
                    None
                }
            })
            .as_ref()
    }

    /// The decoded manifest (read from disk, or announced by the
    /// server).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Member files opened (i.e. header-parsed) so far — stays below
    /// the snapshot's shard count while queries touch only some pairs.
    pub fn files_open(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.get(), Some(Some(_))))
            .count()
    }

    /// Calls `each` once per member file `items` route to, in the order
    /// they first do (a file `member` yields no store for is skipped),
    /// with a test of whether an item routes there and the room left of
    /// one prefetch budget: the files share one cache.
    fn per_member<'a, T: Copy>(
        &'a self,
        items: impl Iterator<Item = T>,
        shard_of: impl Fn(T) -> Option<u32>,
        member: impl Fn(u32) -> Option<&'a PagedStore>,
        mut each: impl FnMut(&PagedStore, &dyn Fn(T) -> bool, &mut u64),
    ) {
        let mut done: Vec<u32> = Vec::new();
        let mut room = None;
        for shard in items.filter_map(&shard_of) {
            if done.contains(&shard) {
                continue;
            }
            done.push(shard);
            if let Some(member) = member(shard) {
                let room = room.get_or_insert_with(|| member.prefetch_room());
                each(member, &|item| shard_of(item) == Some(shard), room);
            }
        }
    }
}

impl<O: Send + Sync + 'static> RoutedStore<O> {
    /// Wraps the store in a [`crate::SharedSource`] for concurrent use.
    pub fn into_shared(self) -> crate::SharedSource {
        Arc::new(self)
    }
}

impl<O: Send + Sync> ClosureSource for RoutedStore<O> {
    fn num_nodes(&self) -> usize {
        self.manifest.num_nodes()
    }

    fn node_label(&self, v: NodeId) -> LabelId {
        self.manifest.node_label(v)
    }

    /// Every member's keys, in file order: the ranges ascend, so the
    /// concatenation does. Opens every file that holds a pair.
    fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        let mut keys = Vec::with_capacity(self.manifest.pair_count() as usize);
        for (shard, meta) in self.manifest.shards.iter().enumerate() {
            if meta.pair_count == 0 {
                continue;
            }
            let Some(member) = self.member_at(shard as u32) else {
                continue;
            };
            match member.try_pair_keys() {
                Ok(member_keys) => keys.extend(member_keys),
                Err(e) => self.errors.record(e),
            }
        }
        keys
    }

    fn has_pair(&self, a: LabelId, b: LabelId) -> bool {
        self.member(a, b).is_some_and(|s| s.has_pair(a, b))
    }

    fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        self.member(a, b)
            .map(|s| s.load_d(a, b))
            .unwrap_or_default()
    }

    fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        self.member(a, b)
            .map(|s| s.load_e(a, b))
            .unwrap_or_default()
    }

    fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        self.member(a, b)
            .map(|s| s.load_pair(a, b))
            .unwrap_or_default()
    }

    fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        match self.member(a, self.manifest.node_label(v)) {
            Some(s) => s.incoming_cursor(a, v),
            // Unrouted pair or unopenable shard: the empty cursor.
            None => table::incoming_cursor(None, v, &self.io, 1),
        }
    }

    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        let a = self.manifest.node_label(u);
        let b = self.manifest.node_label(v);
        self.member(a, b)?.lookup_dist(u, v)
    }

    fn io(&self) -> IoSnapshot {
        self.io.snapshot()
    }

    fn reset_io(&self) {
        self.io.reset();
    }

    /// Split by member file: each file the pairs route to is opened
    /// (as the half's first read of it would) and prefetches only its
    /// own pairs, so a round is one batch per touched file.
    fn prefetch(&self, pairs: &[Vec<(LabelId, LabelId)>], sections: &dyn Fn(usize) -> Sections) {
        self.per_member(
            pairs.iter().flatten().copied(),
            |(a, b)| self.manifest.shard_of(a, b),
            |shard| self.member_at(shard),
            |member, routed, room| member.prefetch_where(pairs, sections, routed, room),
        );
    }

    /// Split by member file: the runs go to the files their pairs route
    /// to, one batch per file, the file of `run` first. Only files
    /// already open take part: a run's directory, which the batch
    /// needs, is resident only in a file a plan half has read.
    fn prefetch_incoming(&self, run: IncomingRun, more: &mut dyn FnMut(&mut Vec<IncomingRun>)) {
        let shard_of = |(a, v): IncomingRun| self.manifest.shard_of(a, self.manifest.node_label(v));
        let open = |shard: u32| self.slots[shard as usize].get()?.as_ref();
        let miss = shard_of(run).and_then(open);
        if !miss.is_some_and(|member| member.incoming_is_remote_miss(run)) {
            return;
        }
        let mut runs = vec![run];
        more(&mut runs);
        self.per_member(
            runs.iter().copied(),
            shard_of,
            open,
            |member, routed, room| member.prefetch_first_blocks(&runs, routed, room),
        );
    }

    fn take_error(&self) -> Option<StorageError> {
        self.errors.take()
    }
}

/// Where a [`ShardedStore`]'s shard files live: the directory holding
/// the `MANIFEST`.
pub struct SnapshotDir(PathBuf);

/// A sharded multi-file snapshot opened from its `MANIFEST` — the
/// local tier of [`RoutedStore`]; see the module docs. Constructed by
/// [`ShardedStore::open`] or dispatched by [`crate::open_store_auto`]
/// (on the manifest path, a file with the v6 magic, or the snapshot
/// directory).
pub type ShardedStore = RoutedStore<SnapshotDir>;

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
            let io = io.clone();
            let errors = errors.clone();
            Box::new(move |shard, meta| {
                // Name the shard file in any open failure: a swallowed
                // "No such file" without the file is undebuggable.
                let wrap = |e: StorageError| StorageError::CorruptShard {
                    file: meta.name.clone(),
                    error: Box::new(e),
                };
                PagedStore::from_source(
                    Box::new(LocalFile::open(&dir.join(&meta.name)).map_err(wrap)?),
                    Arc::clone(&cache),
                    io.clone(),
                    shard,
                    errors.clone(),
                )
                .map_err(wrap)
            })
        };
        Ok(RoutedStore::new(
            manifest,
            opener,
            io,
            errors,
            SnapshotDir(dir),
        ))
    }

    /// Number of shard files in the snapshot.
    pub fn shard_count(&self) -> usize {
        self.manifest.shards.len()
    }

    /// Scrubs the whole snapshot: for every shard file, checks its
    /// length and whole-file content hash against the manifest, then
    /// re-verifies every section and group block
    /// ([`PagedStore::verify`]), then that it holds the manifest's
    /// pair count, every key inside its fence range. The first failure
    /// is returned as [`StorageError::CorruptShard`], naming the file
    /// and carrying the inner offset. Scrub reads bypass (and never
    /// pollute) the shared block cache.
    pub fn verify(&self) -> Result<(), StorageError> {
        for (shard, meta) in self.manifest.shards.iter().enumerate() {
            self.verify_shard(shard, meta)
                .map_err(|e| StorageError::CorruptShard {
                    file: meta.name.clone(),
                    error: Box::new(e),
                })?;
        }
        Ok(())
    }

    fn verify_shard(&self, shard: usize, meta: &ShardFileMeta) -> Result<(), StorageError> {
        let path = self.origin.0.join(&meta.name);
        let (file_len, content_crc) = file_crc32(&path)?;
        if file_len != meta.file_len {
            return Err(StorageError::BadFormat(format!(
                "file is {file_len} byte(s), manifest sealed {}",
                meta.file_len
            )));
        }
        if content_crc != meta.content_crc {
            return Err(StorageError::BadFormat(
                "whole-file content hash does not match the manifest".into(),
            ));
        }
        // A scrub-private store: verify() bypasses the cache, and this
        // keeps scrub failures out of the serving error slot.
        let store = PagedStore::open_with_cache_bytes(&path, 1)?;
        store.verify()?;
        if store.pair_count() != meta.pair_count as usize {
            return Err(StorageError::BadFormat(format!(
                "file holds {} pair(s), manifest sealed {}",
                store.pair_count(),
                meta.pair_count
            )));
        }
        let (from, to) = self.manifest.range_of(shard);
        if let (Some(first), Some(last)) = (store.first_key(), store.last_key()?) {
            if first < from || to.is_some_and(|to| last >= to) {
                let show = |k: (LabelId, LabelId)| format!("({}, {})", k.0 .0, k.1 .0);
                return Err(StorageError::BadFormat(format!(
                    "file holds pairs {} to {}, outside its fence range from {}{}",
                    show(first),
                    show(last),
                    show(from),
                    to.map_or(String::new(), |to| format!(" up to {}", show(to)))
                )));
            }
        }
        Ok(())
    }
}

/// Loads (or synthesizes) the manifest a block server should announce
/// for `store_path`, returning it with the directory its shard files
/// live in. Accepts whatever [`open_local_store`] does: a snapshot
/// directory, a `MANIFEST` path, or a plain single v5 file — the latter
/// gets a synthesized one-file manifest, so `ktpm blockd` can serve any
/// snapshot. The file's checksum is streamed, so a store larger than
/// RAM can be served; its one fence and pair count come from the index
/// head the open verified, so no index page is read.
pub fn load_snapshot_manifest(store_path: &Path) -> Result<(Manifest, PathBuf), StorageError> {
    let store = match open_local_store(store_path, 1)? {
        LocalStore::Sharded(snapshot) => return Ok((snapshot.manifest, snapshot.origin.0)),
        LocalStore::Paged(store) => store,
    };
    // A single v5 file: synthesize the one-file manifest.
    let (file_len, content_crc) = file_crc32(store_path)?;
    let labels: Vec<LabelId> = (0..store.num_nodes())
        .map(|i| store.node_label(NodeId(i as u32)))
        .collect();
    let num_labels = labels.iter().map(|l| l.0 + 1).max().unwrap_or(0);
    let name = store_path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| StorageError::BadFormat("store file name is not UTF-8".into()))?
        .to_owned();
    let dir = store_path
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    Ok((
        Manifest {
            block_entries: store.block_entries() as u32,
            num_labels,
            labels,
            shards: vec![ShardFileMeta {
                name,
                file_len,
                content_crc,
                pair_count: store.pair_count() as u32,
                first_key: store.first_key().unwrap_or((LabelId(0), LabelId(0))),
            }],
        },
        dir,
    ))
}
