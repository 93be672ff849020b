//! The paged [`ClosureSource`] over format-v5 stores: lazy verified
//! block fetch behind a byte-budgeted LRU block cache, over a paged
//! pair index read page by page.
//!
//! A [`PagedStore`] never materializes a group region: every `L` read
//! — block cursors, whole-pair loads, point lookups — takes its group
//! block from the cache, or reads it, verifies its CRC-32 *before*
//! anything consumes it, and inserts it under the byte budget. This is
//! the backend for closures that exceed RAM: resident bytes are
//! bounded by `--block-cache-bytes` while enumeration streams the
//! paper's §5 block-at-a-time I/O model.
//!
//! The pair index is read the same way. An open reads four things in
//! two batches — header and footer, then labels and index head — and
//! checks them, so it costs O(labels + pages), not O(pairs), and two
//! round trips on a remote source. A lookup binary-searches the
//! head's fence of page first-keys, then the one page it lands on; that
//! page is read (one counted read), CRC-checked and order-checked on
//! its first touch and kept for the store's lifetime, so a warm lookup
//! takes no lock and allocates nothing. An index entry carries its
//! sections' counts, so every `D`/`E`/directory section is one read.
//!
//! Because the writer starts every destination node's group on a
//! fresh block, [`crate::ShardSpec`]-partitioned root candidates touch
//! disjoint block sets — parallel shards warm the cache for their own
//! partition without false sharing.
//!
//! The store reads its bytes through a [`BlockSource`] — a positioned
//! `read_at` over one sealed v5 file. [`LocalFile`] is the plain
//! on-disk implementation; the remote tier plugs a network-backed
//! source into the *same* `PagedStore` (`crate::RemoteStore`), so
//! parsing, verification, caching, and accounting are written once.
//! Multi-file snapshots (the manifest-routed store behind
//! [`crate::ShardedStore`] and [`crate::RemoteStore`]) give each member
//! file a distinct `file_id` and one shared cache, so the byte budget
//! bounds the whole snapshot.
//!
//! **One read path.** Every read is a batch through
//! [`PagedShared::fetch`]: each range is bounds-checked, read, checked
//! by what it is read for ([`Want`]) and kept where the reads that
//! follow look — the page's `OnceLock`, the block cache or the
//! directory cache; on a remote source a range that fails its check,
//! or that the batch left out, is read once more. A demand read is a
//! cache probe plus a batch of one, and returns its range's error. A
//! prefetch drops its errors: [`ClosureSource::prefetch`] takes the
//! label pairs a plan half names before its first read and reads them
//! in rounds of one batch — the index pages they land on, their
//! `D`/`E` sections and directories, then (for a half that loads pairs
//! whole) their group blocks — so the reads that follow are cache
//! hits. On a local file a batch is a loop of reads; over the network
//! it is one round trip.
//!
//! A cursor open reads its run's first block. Over the network
//! ([`BlockSource::is_remote`]) an open whose block is not cached asks
//! the loader for the runs it expects to open next
//! ([`ClosureSource::prefetch_incoming`]) and reads all their first
//! blocks in one batch; a local file reads none ahead, since there is
//! no round trip to save.
//!
//! Cache traffic is accounted in [`IoStats`]: `cache_hits` /
//! `cache_misses` / `cache_evictions` plus the `cache_bytes_resident`
//! gauge, alongside the usual block/byte/edge counters (which, here,
//! count *disk* traffic only — a warm cache serves reads with zero
//! `block_reads`).
//!
//! The [`ClosureSource`] read API is infallible: a corrupt or
//! unreadable block degrades to an empty result or an exhausted
//! cursor. Every such silent degradation also records the swallowed
//! error into a sticky [`ErrorSlot`] surfaced via
//! [`ClosureSource::take_error`], so the serving tier can refuse to
//! ship a truncated batch (essential once the "disk" is a remote
//! server that can die mid-stream).

use crate::cache::BlockCache;
use crate::format::*;
use crate::iostats::{IoSnapshot, IoStats};
use crate::source::{ClosureSource, EdgeCursor, IncomingRun, Sections, StorageError};
use ktpm_graph::{Dist, LabelId, NodeId};
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// Default block-cache byte budget (8 MiB) used by [`PagedStore::open`].
pub const DEFAULT_BLOCK_CACHE_BYTES: u64 = 8 * 1024 * 1024;

/// One `L` directory entry: `(dst, absolute offset of the group's
/// first block, entry count)`.
type DirEntry = (NodeId, u64, u32);

type DirCache = HashMap<(LabelId, LabelId), Arc<Vec<DirEntry>>>;

/// `v`'s group in a pair's directory, by binary search.
fn group_of(dir: &[DirEntry], v: NodeId) -> Option<DirEntry> {
    let i = dir.binary_search_by_key(&v, |&(n, _, _)| n).ok()?;
    Some(dir[i])
}

/// The little-endian `u32` at byte `o` of a checked buffer.
fn le32(bytes: &[u8], o: usize) -> u32 {
    u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"))
}

/// The `(u32 a, u32 b)` label pair at byte `o` of a checked buffer.
fn pair_at(bytes: &[u8], o: usize) -> (LabelId, LabelId) {
    (LabelId(le32(bytes, o)), LabelId(le32(bytes, o + 4)))
}

/// The `(u32 src, u32 dist)` `L` entry of a checked block.
fn edge(entry: &[u8]) -> (NodeId, Dist) {
    (NodeId(le32(entry, 0)), le32(entry, 4))
}

/// The label pair of index record `i` of a verified page.
fn key_at(page: &[u8], i: usize) -> (LabelId, LabelId) {
    pair_at(page, i * INDEX_ENTRY_BYTES)
}

/// The entry of `key` in a verified page, by binary search.
fn find_entry(page: &[u8], key: (LabelId, LabelId)) -> Option<IndexEntry> {
    let (mut lo, mut hi) = (0, page.len() / INDEX_ENTRY_BYTES);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match key_at(page, mid).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some(IndexEntry::at(page, mid)),
        }
    }
    None
}

/// One index entry: where a pair's `D` section starts and how many
/// entries each of its three sections holds. `E` and the directory
/// follow `D` back to back, so their offsets are derived.
#[derive(Clone, Copy)]
struct IndexEntry {
    d_off: u64,
    d_count: u32,
    e_count: u32,
    dir_count: u32,
}

impl IndexEntry {
    /// Decodes record `i` of a verified page (its key is [`key_at`]).
    fn at(page: &[u8], i: usize) -> Self {
        let rec = &page[i * INDEX_ENTRY_BYTES + 8..(i + 1) * INDEX_ENTRY_BYTES];
        IndexEntry {
            d_off: u64::from_le_bytes(rec[..8].try_into().expect("8 bytes")),
            d_count: le32(rec, 8),
            e_count: le32(rec, 12),
            dir_count: le32(rec, 16),
        }
    }

    fn d(&self) -> Section {
        Section {
            off: self.d_off,
            count: self.d_count,
            width: D_ENTRY_BYTES,
        }
    }

    fn e(&self) -> Section {
        Section {
            off: self.d().end(),
            count: self.e_count,
            width: E_ENTRY_BYTES,
        }
    }

    fn dir(&self) -> Section {
        Section {
            off: self.e().end(),
            count: self.dir_count,
            width: DIR_ENTRY_BYTES,
        }
    }
}

/// Where one counted section lies: its offset, the entry count the
/// index promises for it, and its entry width.
#[derive(Clone, Copy)]
struct Section {
    off: u64,
    count: u32,
    width: usize,
}

impl Section {
    /// The section's `(offset, length)`, count prefix and CRC included.
    fn range(&self) -> Result<(u64, usize), StorageError> {
        let (offset, needed) = (self.off, usize::MAX);
        let bytes = usize::try_from(section_bytes(self.count, self.width));
        Ok((
            offset,
            bytes.map_err(|_| StorageError::Corrupt { offset, needed })?,
        ))
    }

    /// The offset past the section. Saturates: a garbage offset then
    /// fails the read's bounds check instead of wrapping.
    fn end(&self) -> u64 {
        self.off
            .saturating_add(section_bytes(self.count, self.width))
    }
}

/// The paged pair index, its head verified at open; see the `format`
/// docs.
#[derive(Default)]
struct PagedIndex {
    num_pairs: usize,
    page_entries: usize,
    /// File offset of the index head (what the footer points at).
    head_off: u64,
    /// File offset of page 0.
    pages_off: u64,
    /// Each page's first key, strictly ascending.
    fence: Vec<(LabelId, LabelId)>,
    /// Each page's entries (padding and checksum dropped), filled by
    /// the lookup that first lands on it, once verified.
    pages: Vec<OnceLock<Vec<u8>>>,
}

impl PagedIndex {
    /// Parses and checks the index head — `head` is every byte from
    /// `head_off` up to the footer: its checksum, then that the fence
    /// ascends strictly and that `num_pairs`, `page_entries` and the
    /// fence length agree with each other and place the pages between
    /// the file header (ending at `body_start`) and the head.
    fn parse_head(head: &[u8], head_off: u64, body_start: u64) -> Result<Self, StorageError> {
        if head.len() < 12 || !seal_holds(head) {
            return Err(StorageError::Corrupt {
                offset: head_off,
                needed: head.len().max(12),
            });
        }
        let mut pos = 0;
        let num_pairs = get_u32(head, &mut pos)? as usize;
        let page_entries = get_u32(head, &mut pos)? as usize;
        if page_entries == 0 {
            return Err(StorageError::BadFormat(
                "index head declares zero entries per page".into(),
            ));
        }
        let num_pages = num_pairs.div_ceil(page_entries);
        let fence_bytes = head.len() - 12;
        if fence_bytes != num_pages * 8 {
            return Err(StorageError::BadFormat(format!(
                "index head: {num_pairs} pair(s) in pages of {page_entries} need {num_pages} \
                 fence key(s), the head holds {fence_bytes} byte(s) of fence"
            )));
        }
        let fence: Vec<(LabelId, LabelId)> =
            (0..num_pages).map(|i| pair_at(head, 8 + i * 8)).collect();
        if let Some(i) = (1..fence.len()).find(|&i| fence[i - 1] >= fence[i]) {
            return Err(pair_order_error("index fence", i, fence[i - 1], fence[i]));
        }
        let pages_bytes = (num_pages as u64).saturating_mul(index_page_bytes(page_entries) as u64);
        let pages_off = head_off
            .checked_sub(pages_bytes)
            .filter(|&off| off >= body_start)
            .ok_or_else(|| {
                StorageError::BadFormat(format!(
                    "index head: {num_pages} page(s) of {page_entries} entries do not fit \
                     between the header and the head at offset {head_off}"
                ))
            })?;
        Ok(PagedIndex {
            num_pairs,
            page_entries,
            head_off,
            pages_off,
            fence,
            pages: (0..num_pages).map(|_| OnceLock::new()).collect(),
        })
    }

    /// Where page `p` lies: its offset and its sealed length.
    fn page_range(&self, p: usize) -> (u64, usize) {
        let bytes = index_page_bytes(self.page_entries);
        (self.pages_off + (p * bytes) as u64, bytes)
    }

    /// Bytes of page `p`'s live entries.
    fn page_live_bytes(&self, p: usize) -> usize {
        self.page_entries
            .min(self.num_pairs - p * self.page_entries)
            * INDEX_ENTRY_BYTES
    }

    /// The index-page check, on the whole sealed page: its CRC, then
    /// its order — it starts at its fence key, ascends strictly, ends
    /// below the next page's fence key, and holds only zeros past
    /// `num_pairs`.
    fn check_page(&self, p: usize, page: &[u8]) -> Result<(), StorageError> {
        check_sealed(self.page_range(p).0, page)?;
        let live = self.page_live_bytes(p);
        if page[live..page.len() - 4].iter().any(|&b| b != 0) {
            return Err(StorageError::BadFormat(format!(
                "index page {p} holds entries past the head's {} pair(s)",
                self.num_pairs
            )));
        }
        let (key, fence) = (key_at(page, 0), self.fence[p]);
        if key != fence {
            return Err(StorageError::BadFormat(format!(
                "index page {p} starts at pair ({}, {}), but its fence key is ({}, {})",
                key.0 .0, key.1 .0, fence.0 .0, fence.1 .0
            )));
        }
        // Key i of the page, the next page's fence key after the last.
        let (n, next) = (live / INDEX_ENTRY_BYTES, self.fence.get(p + 1).copied());
        let key = |i: usize| (i < n).then(|| key_at(page, i)).or(next);
        let first = p * self.page_entries;
        for i in 1..=n {
            let prev = key_at(page, i - 1);
            if let Some(key) = key(i).filter(|&key| prev >= key) {
                return Err(pair_order_error("index", first + i, prev, key));
            }
        }
        Ok(())
    }

    /// The page a lookup of `key` lands on: the last whose fence key is
    /// at most `key`; `None` before the first.
    fn page_of(&self, key: (LabelId, LabelId)) -> Option<usize> {
        self.fence.partition_point(|&k| k <= key).checked_sub(1)
    }

    /// The index entry of `key`, but only if its page is already read:
    /// a lookup that reads nothing.
    fn loaded_entry(&self, key: (LabelId, LabelId)) -> Option<IndexEntry> {
        find_entry(self.pages[self.page_of(key)?].get()?, key)
    }
}

/// A positioned byte source over one sealed v5 store file — the seam
/// between [`PagedStore`]'s parsing/caching logic and where the bytes
/// actually live (local disk, or a remote block server).
pub(crate) trait BlockSource: Send + Sync {
    /// Reads exactly `bytes` at `off`. Short reads are errors
    /// ([`StorageError::Corrupt`] for a truncated file,
    /// [`StorageError::Remote`] for a failed remote fetch).
    fn read_at(&self, off: u64, bytes: usize) -> Result<Vec<u8>, StorageError>;

    /// Reads every `(offset, bytes)` range of `ranges` — a batch — and
    /// hands each one that arrives intact to `got`, with its position
    /// in `ranges`. A range left out failed a transport check (a
    /// remote frame CRC), and the store reads it again. An error ends
    /// the batch. Default: one [`Self::read_at`] per range, in order —
    /// what a local file does; a remote source carries the whole batch
    /// in as few round trips as its protocol allows.
    fn read_many(
        &self,
        ranges: &[(u64, usize)],
        got: &mut dyn FnMut(usize, Vec<u8>),
    ) -> Result<(), StorageError> {
        for (i, &(off, bytes)) in ranges.iter().enumerate() {
            got(i, self.read_at(off, bytes)?);
        }
        Ok(())
    }

    /// Total length of the file, fixed at open.
    fn len(&self) -> u64;

    /// Whether every read is a round trip to another machine — true
    /// for the remote source, false for a local file. It answers two
    /// questions:
    /// - is a range that failed its CRC check, or that a batch left
    ///   out, worth one re-read, on demand or in a prefetch? Over the
    ///   network the wire, not the medium, may have flipped a bit; a
    ///   local re-read returns the same rotten bytes;
    /// - is reading ahead worth it? On the remote source a batch of
    ///   first blocks costs one round trip where each demand read costs
    ///   one; a local read has no round trip to save, and blocks read
    ///   ahead of the first match only delay it
    ///   ([`ClosureSource::prefetch_incoming`]).
    fn is_remote(&self) -> bool {
        false
    }
}

/// [`BlockSource`] over a local file.
pub(crate) struct LocalFile {
    file: Mutex<std::fs::File>,
    len: u64,
}

impl LocalFile {
    pub(crate) fn open(path: &Path) -> Result<Self, StorageError> {
        Self::from_file(std::fs::File::open(path)?)
    }

    /// Wraps an already-open handle (wherever its cursor stands — every
    /// read seeks first).
    pub(crate) fn from_file(file: std::fs::File) -> Result<Self, StorageError> {
        let len = file.metadata()?.len();
        Ok(LocalFile {
            file: Mutex::new(file),
            len,
        })
    }
}

impl BlockSource for LocalFile {
    fn read_at(&self, off: u64, bytes: usize) -> Result<Vec<u8>, StorageError> {
        // `take` + `read_to_end` fills the reserved capacity directly:
        // no zero-fill of a buffer that is about to be overwritten.
        let mut buf = Vec::with_capacity(bytes);
        let mut f = self.file.lock().expect("store file lock");
        f.seek(SeekFrom::Start(off))?;
        let got = f.by_ref().take(bytes as u64).read_to_end(&mut buf)?;
        if got < bytes {
            return Err(StorageError::Corrupt {
                offset: off,
                needed: bytes,
            });
        }
        Ok(buf)
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// The group-block and index-page check: the region's trailing CRC-32
/// seals it.
fn check_sealed(off: u64, buf: &[u8]) -> Result<(), StorageError> {
    if seal_holds(buf) {
        Ok(())
    } else {
        Err(StorageError::Corrupt {
            offset: off,
            needed: buf.len(),
        })
    }
}

/// The section check: the count prefix is the one the index promised,
/// and the trailing CRC-32 seals the section.
fn check_section(s: Section, buf: &[u8]) -> Result<(), StorageError> {
    if le32(buf, 0) != s.count {
        return Err(StorageError::Corrupt {
            offset: s.off,
            needed: 4,
        });
    }
    check_sealed(s.off, buf)
}

/// A checked section's entry bytes: its count prefix and CRC dropped,
/// in place.
fn section_entries(mut buf: Vec<u8>) -> Vec<u8> {
    buf.truncate(buf.len() - 4);
    buf.drain(..4);
    buf
}

/// Takes `bytes` from `room`, what is left of a prefetch's block-cache
/// budget; `false` once they do not fit, and then nothing more does.
fn take_room(room: &mut u64, bytes: u64) -> bool {
    let left = room.checked_sub(bytes);
    *room = left.unwrap_or(0);
    left.is_some()
}

/// A sticky first-error slot shared by a store, its cursors, and (for
/// multi-file snapshots) all member files. The infallible read paths
/// record the first error they swallow; [`ErrorSlot::take`] hands it
/// to the serving layer and re-arms the slot. First-wins: the root
/// cause, not the last symptom.
#[derive(Clone, Default)]
pub(crate) struct ErrorSlot(Arc<Mutex<Option<StorageError>>>);

impl ErrorSlot {
    pub(crate) fn record(&self, e: StorageError) {
        let mut slot = self.0.lock().expect("error slot");
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    pub(crate) fn take(&self) -> Option<StorageError> {
        self.0.lock().expect("error slot").take()
    }
}

/// What a range is read for: the check it must pass and where it is
/// kept.
#[derive(Clone, Copy)]
enum Want {
    /// The open's header reads and `verify`'s index head: checked by
    /// the caller, kept nowhere, not a block read.
    Head,
    /// Index page `p`, into its `OnceLock`.
    Page(usize),
    /// A `D` or `E` section, into the block cache.
    Table(Section),
    /// A pair's directory, decoded into the directory cache.
    Directory((LabelId, LabelId), IndexEntry),
    /// A group block, into the block cache.
    Block,
    /// `verify`'s scrub of a section (`Some`) or a group block, checked
    /// as above and kept nowhere.
    Scrub(Option<Section>),
}

/// What a range that passed its check yields.
enum Got {
    /// Nothing: it is kept where its demand read looks, or scrubbed.
    Kept,
    /// A `Head` read, or a scrubbed section's entries.
    Bytes(Vec<u8>),
    /// A section's entries or a block's payload, in the block cache.
    Cached(Arc<Vec<u8>>),
}

impl Got {
    /// The bytes of a `Head` read or a scrubbed section.
    fn bytes(self) -> Vec<u8> {
        match self {
            Got::Bytes(buf) => buf,
            _ => unreachable!("only head reads and scrubbed sections yield bytes"),
        }
    }
}

/// One range of a batch: what it is read for and its outcome (`None`:
/// never delivered).
struct Slot {
    want: Want,
    got: Option<Result<Got, StorageError>>,
}

/// One prefetch round: the ranges to read and, for each, its slot.
#[derive(Default)]
struct Batch {
    ranges: Vec<(u64, usize)>,
    slots: Vec<Slot>,
}

impl Batch {
    fn reserve(&mut self, n: usize) {
        self.ranges.reserve(n);
        self.slots.reserve(n);
    }

    fn push(&mut self, range: (u64, usize), want: Want) {
        self.ranges.push(range);
        self.slots.push(Slot { want, got: None });
    }

    /// Whether a range at `off` is already asked for (two query edges
    /// may share a label pair).
    fn has(&self, off: u64) -> bool {
        self.ranges.iter().any(|&(o, _)| o == off)
    }

    /// Reads the round, drops its outcomes — a prefetch records no
    /// error — and empties the batch for the next round.
    fn fetch(&mut self, shared: &PagedShared) {
        shared.fetch(&self.ranges, &mut self.slots);
        self.ranges.clear();
        self.slots.clear();
    }
}

/// What a read of one store file needs, shared by the store and its
/// cursors.
struct PagedShared {
    source: Box<dyn BlockSource>,
    io: IoStats,
    /// Shared with every sibling file of a sharded snapshot; keys are
    /// namespaced by `file_id`.
    cache: Arc<Mutex<BlockCache>>,
    block_entries: usize,
    /// This file's id within its snapshot (0 for standalone stores).
    file_id: u32,
    errors: ErrorSlot,
    /// The paged pair index: head checked at open, each page on the
    /// lookup that first lands on it.
    index: PagedIndex,
    dirs: Mutex<DirCache>,
}

impl PagedShared {
    fn block_bytes(&self) -> usize {
        v3_block_bytes(self.block_entries)
    }

    /// Blocks of a group of `len` entries.
    fn group_blocks(&self, len: u32) -> u64 {
        v3_group_blocks(len as usize, self.block_entries) as u64
    }

    /// The one read path: reads `ranges` as one batch, checks and keeps
    /// each by its slot's [`Want`] ([`Self::keep`]), and leaves each
    /// outcome in its slot. A range past the end of the file is never
    /// read: a corrupt count must neither size an allocation nor read
    /// past EOF. On a remote source the ranges that failed their check
    /// with [`StorageError::Corrupt`], or that the batch left out, are
    /// read once more, as one batch. An error of the source itself
    /// ends the batch.
    fn fetch(&self, ranges: &[(u64, usize)], slots: &mut [Slot]) {
        let len = self.source.len();
        let fits = |&(off, bytes): &(u64, usize)| off <= len && bytes as u64 <= len - off;
        let read = if ranges.iter().all(fits) {
            self.read(ranges, slots, &|i| i)
        } else {
            self.read_where(ranges, slots, |_, range| fits(range))
        };
        if read && self.source.is_remote() {
            self.read_where(ranges, slots, |slot, range| {
                let again = fits(range)
                    && matches!(slot.got, None | Some(Err(StorageError::Corrupt { .. })));
                if again {
                    self.io.add_remote_retry();
                }
                again
            });
        }
    }

    /// Reads, as one batch, the ranges whose slot `pick` selects.
    fn read_where(
        &self,
        ranges: &[(u64, usize)],
        slots: &mut [Slot],
        mut pick: impl FnMut(&Slot, &(u64, usize)) -> bool,
    ) -> bool {
        let at: Vec<usize> = (0..ranges.len())
            .filter(|&i| pick(&slots[i], &ranges[i]))
            .collect();
        let picked: Vec<(u64, usize)> = at.iter().map(|&i| ranges[i]).collect();
        for &i in &at {
            slots[i].got = None;
        }
        self.read(&picked, slots, &|j| at[j])
    }

    /// Reads `ranges` — range `j` for `slots[at(j)]` — and keeps each
    /// as it arrives. A lone range is one [`BlockSource::read_at`], a
    /// batch one [`BlockSource::read_many`]. An error of the source
    /// goes to the first range not delivered; `false` then.
    fn read(
        &self,
        ranges: &[(u64, usize)],
        slots: &mut [Slot],
        at: &dyn Fn(usize) -> usize,
    ) -> bool {
        let mut got = |j: usize, buf: Vec<u8>| {
            let slot = &mut slots[at(j)];
            slot.got = Some(self.keep(ranges[j].0, slot.want, buf));
        };
        let read = match *ranges {
            [] => Ok(()),
            [(off, bytes)] => self.source.read_at(off, bytes).map(|buf| got(0, buf)),
            _ => self.source.read_many(ranges, &mut got),
        };
        let Err(e) = read else {
            return true;
        };
        if let Some(j) = (0..ranges.len()).find(|&j| slots[at(j)].got.is_none()) {
            slots[at(j)].got = Some(Err(e));
        }
        false
    }

    /// Checks the bytes read at `off` by `want` and keeps them there.
    /// All but a `Head` read count as block reads.
    fn keep(&self, off: u64, want: Want, mut buf: Vec<u8>) -> Result<Got, StorageError> {
        if !matches!(want, Want::Head) {
            self.io.add_block(buf.len() as u64);
        }
        match want {
            Want::Head => Ok(Got::Bytes(buf)),
            Want::Page(p) => {
                self.index.check_page(p, &buf)?;
                buf.truncate(self.index.page_live_bytes(p));
                // A concurrent lookup may have kept it first.
                let _ = self.index.pages[p].set(buf);
                Ok(Got::Kept)
            }
            Want::Table(s) => {
                check_section(s, &buf)?;
                Ok(Got::Cached(self.insert(off, section_entries(buf))))
            }
            Want::Directory(key, entry) => {
                check_section(entry.dir(), &buf)?;
                let dir = self.decode_directory(entry.dir().off, &section_entries(buf))?;
                let mut dirs = self.dirs.lock().expect("dir cache");
                dirs.entry(key).or_insert_with(|| Arc::new(dir));
                Ok(Got::Kept)
            }
            Want::Block => {
                check_sealed(off, &buf)?;
                buf.truncate(self.block_entries * L_ENTRY_BYTES);
                Ok(Got::Cached(self.insert(off, buf)))
            }
            Want::Scrub(Some(s)) => {
                check_section(s, &buf)?;
                Ok(Got::Bytes(section_entries(buf)))
            }
            Want::Scrub(None) => check_sealed(off, &buf).map(|()| Got::Kept),
        }
    }

    /// Reads `ranges`, each for `want`, as one batch built on the stack;
    /// each range's outcome, one never delivered being corrupt.
    fn read_n<const N: usize>(
        &self,
        ranges: [(u64, usize); N],
        want: Want,
    ) -> [Result<Got, StorageError>; N] {
        let mut slots = ranges.map(|_| Slot { want, got: None });
        self.fetch(&ranges, &mut slots);
        std::array::from_fn(|i| {
            let (offset, needed) = ranges[i];
            let got = slots[i].got.take();
            got.unwrap_or(Err(StorageError::Corrupt { offset, needed }))
        })
    }

    /// A demand read: `range` for `want`, a batch of one.
    fn read_one(&self, range: (u64, usize), want: Want) -> Result<Got, StorageError> {
        let [got] = self.read_n([range], want);
        got
    }

    /// Inserts verified bytes at `off` into the block cache, under its
    /// budget: a cache miss.
    fn insert(&self, off: u64, data: Vec<u8>) -> Arc<Vec<u8>> {
        self.io.add_cache_miss();
        let data = Arc::new(data);
        let mut cache = self.cache.lock().expect("block cache");
        let (evicted, resident) = cache.insert((self.file_id, off), Arc::clone(&data));
        if evicted > 0 {
            self.io.add_cache_evictions(evicted);
        }
        self.io.set_cache_resident(resident);
        data
    }

    /// A section's entries or a group block's payload through the block
    /// cache: a hit, or a demand read that puts it there — so bytes are
    /// verified exactly once per residency.
    fn cached(&self, range: (u64, usize), want: Want) -> Result<Arc<Vec<u8>>, StorageError> {
        let key = (self.file_id, range.0);
        let hit = self.cache.lock().expect("block cache").get(key);
        if let Some(data) = hit {
            self.io.add_cache_hit();
            return Ok(data);
        }
        match self.read_one(range, want)? {
            Got::Cached(data) => Ok(data),
            _ => unreachable!("tables and blocks are kept in the block cache"),
        }
    }

    /// The group block at `off`, through the cache.
    fn fetch_block(&self, off: u64) -> Result<Arc<Vec<u8>>, StorageError> {
        self.cached((off, self.block_bytes()), Want::Block)
    }

    /// Page `p`'s verified entries: read and checked by the first
    /// lookup that lands on the page, then kept — a warm lookup takes
    /// no lock and allocates nothing. A page that fails its checks is
    /// not kept; the next lookup re-reads it and fails again.
    fn page(&self, p: usize) -> Result<&[u8], StorageError> {
        let slot = &self.index.pages[p];
        if slot.get().is_none() {
            self.read_one(self.index.page_range(p), Want::Page(p))?;
        }
        Ok(slot.get().expect("a page that passed its checks is kept"))
    }

    /// Decodes the checked entries of the directory at `dir_off`. A
    /// group whose blocks would end past the index pages, where the
    /// writer puts every group, is corrupt: its `len` must size nothing.
    fn decode_directory(&self, dir_off: u64, buf: &[u8]) -> Result<Vec<DirEntry>, StorageError> {
        let bb = self.block_bytes() as u64;
        let mut dir = Vec::with_capacity(buf.len() / DIR_ENTRY_BYTES);
        for (i, e) in buf.chunks_exact(DIR_ENTRY_BYTES).enumerate() {
            let off = u64::from_le_bytes(e[4..12].try_into().expect("8 bytes"));
            let len = le32(e, 12);
            let blocks = self.group_blocks(len).checked_mul(bb);
            let end = blocks.and_then(|bytes| off.checked_add(bytes));
            if end.is_none_or(|end| end > self.index.pages_off) {
                let offset = dir_off + 4 + (i * DIR_ENTRY_BYTES) as u64;
                let needed = DIR_ENTRY_BYTES;
                return Err(StorageError::Corrupt { offset, needed });
            }
            dir.push((NodeId(le32(e, 0)), off, len));
        }
        Ok(dir)
    }

    /// Pushes the group block at `off` onto `batch` unless it is cached;
    /// `false`, pushing nothing, once its payload would exceed `room`.
    fn push_block(&self, cache: &BlockCache, batch: &mut Batch, off: u64, room: &mut u64) -> bool {
        if cache.contains((self.file_id, off)) {
            return true;
        }
        if !take_room(room, (self.block_entries * L_ENTRY_BYTES) as u64) {
            return false;
        }
        batch.push((off, self.block_bytes()), Want::Block);
        true
    }
}

/// A format-v5 closure store opened from disk: group regions are
/// fixed-size CRC-checked blocks, fetched lazily through an LRU block
/// cache, behind a paged pair index. See the module docs.
pub struct PagedStore {
    shared: Arc<PagedShared>,
    labels: Vec<LabelId>,
}

impl PagedStore {
    /// Opens a v5 store with the default cache budget
    /// ([`DEFAULT_BLOCK_CACHE_BYTES`]).
    ///
    /// Errors: [`StorageError::BadFormat`] when the file is not a
    /// closure store, is a retired v1/v2/v3 store (no longer readable:
    /// re-run `ktpm closure`), or carries a checksum-valid index head
    /// whose fence is not strictly ascending or whose counts disagree
    /// (see the `format` docs); [`StorageError::Corrupt`] when it is a
    /// v5 store but truncated or damaged. Only the header and the
    /// index head are read and verified here: index pages, sections
    /// and group blocks verify on first touch.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        Self::open_with_cache_bytes(path, DEFAULT_BLOCK_CACHE_BYTES)
    }

    /// Opens with an explicit block-cache byte budget. `0` means
    /// unlimited (no block is ever evicted).
    pub fn open_with_cache_bytes(path: &Path, cache_bytes: u64) -> Result<Self, StorageError> {
        Self::from_file(std::fs::File::open(path)?, cache_bytes)
    }

    /// A standalone store over an already-open file: its own cache,
    /// counters and error slot.
    fn from_file(file: std::fs::File, cache_bytes: u64) -> Result<Self, StorageError> {
        Self::from_source(
            Box::new(LocalFile::from_file(file)?),
            Arc::new(Mutex::new(BlockCache::new(cache_bytes))),
            IoStats::new(),
            0,
            ErrorSlot::default(),
        )
    }

    /// Opens a v5 store over any [`BlockSource`] — the shared
    /// constructor behind standalone opens, [`crate::ShardedStore`]
    /// member files (shared `cache`/`io`/`errors`, distinct
    /// `file_id`s), and [`crate::RemoteStore`] (network-backed
    /// source). Two batches — header and footer, then labels and index
    /// head — all verified here: O(labels + pages), whatever the pair
    /// count, and two round trips on a remote source.
    pub(crate) fn from_source(
        source: Box<dyn BlockSource>,
        cache: Arc<Mutex<BlockCache>>,
        io: IoStats,
        file_id: u32,
        errors: ErrorSlot,
    ) -> Result<Self, StorageError> {
        const HEAD_LEN: usize = 20; // magic + nodes + labels + block_entries

        // The reader, before the header names its block capacity and
        // the index head its pages.
        let mut shared = PagedShared {
            source,
            io,
            cache,
            block_entries: 0,
            file_id,
            errors,
            index: PagedIndex::default(),
            dirs: Mutex::default(),
        };
        let len = shared.source.len();
        let foot_off = len.saturating_sub(FOOTER_LEN);
        let head_range = (0, len.min(HEAD_LEN as u64) as usize);
        let foot_range = (foot_off, (len - foot_off) as usize);
        let [head, foot] = shared.read_n([head_range, foot_range], Want::Head);
        let (head, foot) = (head?.bytes(), foot?.bytes());
        // A file too short to hold header + footer needs at least half
        // the magic to be diagnosed as a damaged store rather than "not
        // our file at all".
        let magic = &head[..head.len().min(8)];
        refuse_legacy_magic(magic)?;
        if magic.len() < 4 || magic != &MAGIC_V5[..magic.len()] {
            return Err(StorageError::BadFormat("bad magic".into()));
        }
        if len < FOOTER_LEN + HEAD_LEN as u64 {
            return Err(StorageError::Corrupt {
                offset: len,
                needed: (FOOTER_LEN + HEAD_LEN as u64 - len) as usize,
            });
        }
        let mut pos = 8;
        let num_nodes = get_u32(&head, &mut pos)? as usize;
        let _num_labels = get_u32(&head, &mut pos)?;
        let block_entries = get_u32(&head, &mut pos)? as usize;
        if block_entries == 0 {
            return Err(StorageError::BadFormat(
                "v5 header declares a zero block capacity".into(),
            ));
        }
        let label_bytes = num_nodes
            .checked_mul(4)
            .filter(|&b| HEAD_LEN as u64 + b as u64 + 4 + FOOTER_LEN <= len)
            .ok_or(StorageError::Corrupt {
                offset: HEAD_LEN as u64,
                needed: num_nodes.saturating_mul(4),
            })?;
        // The index head is everything between the offset the footer
        // names and the footer itself; a damaged footer names nothing,
        // and is reported after the labels' checksum, as a footer read
        // after them would be.
        let index_head = if &foot[8..] == MAGIC_V5 {
            let head_off = u64::from_le_bytes(foot[..8].try_into().expect("sliced 8"));
            (len - FOOTER_LEN)
                .checked_sub(head_off)
                .filter(|&n| n >= 12)
                .map(|n| (head_off, n as usize))
                .ok_or(StorageError::Corrupt {
                    offset: head_off,
                    needed: 12,
                })
        } else {
            Err(StorageError::Corrupt {
                offset: len - 8,
                needed: 8,
            })
        };
        // Labels + their trailing header CRC, and the index head.
        let labels_range = (HEAD_LEN as u64, label_bytes + 4);
        let (tail, index_bytes) = match index_head {
            Ok(range) => {
                let [tail, index_bytes] = shared.read_n([labels_range, range], Want::Head);
                (tail?.bytes(), Ok((range.0, index_bytes?.bytes())))
            }
            Err(e) => (shared.read_one(labels_range, Want::Head)?.bytes(), Err(e)),
        };
        let label_buf = &tail[..label_bytes];
        // Eager header verification: counts + block capacity + labels.
        let state = crc32_update(CRC_INIT, &head[8..HEAD_LEN]);
        let state = crc32_update(state, label_buf);
        let stored = u32::from_le_bytes(tail[label_bytes..].try_into().expect("4-byte tail"));
        if crc32_finish(state) != stored {
            return Err(StorageError::Corrupt {
                offset: 8,
                needed: HEAD_LEN - 8 + label_bytes,
            });
        }
        let labels: Vec<LabelId> = label_buf
            .chunks_exact(4)
            .map(|c| LabelId(u32::from_le_bytes(c.try_into().expect("chunked to 4"))))
            .collect();
        let (head_off, index_bytes) = index_bytes?;
        let body_start = (HEAD_LEN + label_bytes + 4) as u64;
        shared.index = PagedIndex::parse_head(&index_bytes, head_off, body_start)?;
        shared.block_entries = block_entries;
        Ok(PagedStore {
            shared: Arc::new(shared),
            labels,
        })
    }

    /// Wraps the store in a [`crate::SharedSource`] for concurrent use.
    pub fn into_shared(self) -> crate::SharedSource {
        Arc::new(self)
    }

    /// The on-disk block capacity declared by the header, in `L`
    /// entries per block.
    pub fn block_entries(&self) -> usize {
        self.shared.block_entries
    }

    /// Live blocks currently held by the block cache. For a snapshot
    /// member file this counts the whole *shared* cache.
    pub fn cache_blocks(&self) -> usize {
        self.shared.cache.lock().expect("block cache").len()
    }

    /// Payload bytes currently resident in the block cache (the same
    /// value the `cache_bytes_resident` gauge tracks).
    pub fn cache_resident_bytes(&self) -> u64 {
        self.shared
            .cache
            .lock()
            .expect("block cache")
            .resident_bytes()
    }

    /// The byte ranges of every destination node's group blocks for one
    /// label pair, as `(dst, file byte range)`. Groups never share a
    /// block, so the ranges of distinct nodes are always disjoint —
    /// the placement property [`crate::ShardSpec`] partitions rely on.
    pub fn group_block_ranges(
        &self,
        a: LabelId,
        b: LabelId,
    ) -> Result<Vec<(NodeId, Range<u64>)>, StorageError> {
        let Some(dir) = self.directory(a, b)? else {
            return Ok(Vec::new());
        };
        let bb = self.shared.block_bytes() as u64;
        Ok(dir
            .iter()
            .map(|&(v, off, len)| (v, off..off + self.shared.group_blocks(len) * bb))
            .collect())
    }

    /// Number of pages in the pair index.
    pub fn index_pages(&self) -> usize {
        self.shared.index.pages.len()
    }

    /// Scrubs the whole snapshot: re-reads and re-checks the index
    /// head, walks every index page (through the same first-touch
    /// verification lookups use), and re-verifies every
    /// `D`/`E`/directory section and **every group block**, through the
    /// checks every read makes but keeping nothing: the block cache is
    /// neither consulted nor polluted. The header was verified at open.
    /// Returns the first failure: [`StorageError::Corrupt`] for damaged
    /// bytes, [`StorageError::BadFormat`] for a checksum-valid page out
    /// of order.
    pub fn verify(&self) -> Result<(), StorageError> {
        let s = &self.shared;
        let ix = &s.index;
        let head_len = s.source.len() - FOOTER_LEN - ix.head_off;
        let head = s.read_one((ix.head_off, head_len as usize), Want::Head)?;
        PagedIndex::parse_head(&head.bytes(), ix.head_off, ix.pages_off)?;
        let bb = s.block_bytes() as u64;
        for p in 0..ix.pages.len() {
            let page = s.page(p)?;
            for i in 0..page.len() / INDEX_ENTRY_BYTES {
                let entry = IndexEntry::at(page, i);
                for table in [entry.d(), entry.e()] {
                    s.read_one(table.range()?, Want::Scrub(Some(table)))?;
                }
                let dir = entry.dir();
                let dir_bytes = s.read_one(dir.range()?, Want::Scrub(Some(dir)))?.bytes();
                for (_, off, len) in s.decode_directory(dir.off, &dir_bytes)? {
                    for k in 0..s.group_blocks(len) {
                        s.read_one((off + k * bb, bb as usize), Want::Scrub(None))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The index entry of `(a, b)`, if the pair is non-empty: a binary
    /// search of the fence, then of the one page it names.
    fn entry(&self, a: LabelId, b: LabelId) -> Result<Option<IndexEntry>, StorageError> {
        let Some(p) = self.shared.index.page_of((a, b)) else {
            return Ok(None);
        };
        Ok(find_entry(self.shared.page(p)?, (a, b)))
    }

    /// Label pairs in the store, from the index head.
    pub(crate) fn pair_count(&self) -> usize {
        self.shared.index.num_pairs
    }

    /// The store's first label pair, from the index head's fence;
    /// `None` when it holds none.
    pub(crate) fn first_key(&self) -> Option<(LabelId, LabelId)> {
        self.shared.index.fence.first().copied()
    }

    /// The store's last label pair (the last page read on first
    /// touch); `None` when it holds none.
    pub(crate) fn last_key(&self) -> Result<Option<(LabelId, LabelId)>, StorageError> {
        let Some(p) = self.shared.index.pages.len().checked_sub(1) else {
            return Ok(None);
        };
        let page = self.shared.page(p)?;
        Ok(Some(key_at(page, page.len() / INDEX_ENTRY_BYTES - 1)))
    }

    /// Every label pair in index order, walking every page. The pages
    /// not yet read arrive in one batch — a prefetch's page round — and
    /// any the batch dropped is read again on demand.
    pub(crate) fn try_pair_keys(&self) -> Result<Vec<(LabelId, LabelId)>, StorageError> {
        let ix = &self.shared.index;
        let missing = || (0..ix.pages.len()).filter(|&p| ix.pages[p].get().is_none());
        let mut batch = Batch::default();
        batch.reserve(missing().count());
        for p in missing() {
            batch.push(ix.page_range(p), Want::Page(p));
        }
        batch.fetch(&self.shared);
        let mut keys = Vec::with_capacity(ix.num_pairs);
        for p in 0..ix.pages.len() {
            let page = self.shared.page(p)?;
            keys.extend((0..page.len() / INDEX_ENTRY_BYTES).map(|i| key_at(page, i)));
        }
        Ok(keys)
    }

    /// Pair `(a, b)`'s directory: from the directory cache, or a demand
    /// read that puts it there; `None` when the pair is empty.
    fn directory(
        &self,
        a: LabelId,
        b: LabelId,
    ) -> Result<Option<Arc<Vec<DirEntry>>>, StorageError> {
        let dirs = &self.shared.dirs;
        let resident = || dirs.lock().expect("dir cache").get(&(a, b)).cloned();
        if let Some(dir) = resident() {
            return Ok(Some(dir));
        }
        let Some(entry) = self.entry(a, b)? else {
            return Ok(None);
        };
        self.shared
            .read_one(entry.dir().range()?, Want::Directory((a, b), entry))?;
        // Directories are never evicted.
        Ok(resident())
    }

    /// What a read on the infallible paths yields: its value, or — its
    /// error recorded in the error slot — the empty one.
    fn noted<T: Default>(&self, read: Result<T, StorageError>) -> T {
        read.unwrap_or_else(|e| {
            self.shared.errors.record(e);
            T::default()
        })
    }

    /// Pair `(a, b)`'s `D` or `E` section (`which`), keyed by its offset
    /// in the block cache, so a warm load reads nothing; `None` when the
    /// pair is empty or the read failed.
    fn table(
        &self,
        a: LabelId,
        b: LabelId,
        which: fn(&IndexEntry) -> Section,
    ) -> Option<Arc<Vec<u8>>> {
        let s = which(&self.noted(self.entry(a, b))?);
        let read = s
            .range()
            .and_then(|r| self.shared.cached(r, Want::Table(s)));
        self.noted(read.map(Some))
    }

    /// [`ClosureSource::prefetch`] over the pairs `mine` keeps (a member
    /// file of a snapshot sees only the pairs routed to it), in rounds
    /// of one batch each: the index pages the pairs land on, then their
    /// `D`/`E` sections and directories, then — for pairs read whole —
    /// their group blocks. Cached regions are skipped; block-cache
    /// bytes stop when they would exceed `room`, which is what is left
    /// of the prefetch's budget ([`Self::prefetch_room`], shared by the
    /// member files of a snapshot).
    pub(crate) fn prefetch_where(
        &self,
        pairs: &[Vec<(LabelId, LabelId)>],
        sections: &dyn Fn(usize) -> Sections,
        mine: &dyn Fn((LabelId, LabelId)) -> bool,
        room: &mut u64,
    ) {
        let s = &self.shared;
        let wants = || {
            pairs.iter().enumerate().flat_map(move |(u, keys)| {
                let s = sections(u);
                keys.iter().filter(move |&&k| mine(k)).map(move |&k| (k, s))
            })
        };
        // The rounds before the block round ask at most three ranges a
        // pair: two tables and a directory.
        let mut batch = Batch::default();
        batch.reserve(3 * pairs.iter().map(Vec::len).sum::<usize>());
        for (key, _) in wants() {
            let Some(p) = s.index.page_of(key) else {
                continue;
            };
            let range = s.index.page_range(p);
            if s.index.pages[p].get().is_none() && !batch.has(range.0) {
                batch.push(range, Want::Page(p));
            }
        }
        batch.fetch(s);

        {
            let cache = s.cache.lock().expect("block cache");
            let dirs = s.dirs.lock().expect("dir cache");
            for (key, sec) in wants() {
                let Some(entry) = s.index.loaded_entry(key) else {
                    continue;
                };
                for table in [sec.d.then(|| entry.d()), sec.e.then(|| entry.e())]
                    .into_iter()
                    .flatten()
                {
                    let Ok(range) = table.range() else { continue };
                    if !cache.contains((s.file_id, table.off))
                        && !batch.has(table.off)
                        && take_room(room, range.1 as u64 - 8)
                    {
                        batch.push(range, Want::Table(table));
                    }
                }
                let dir = entry.dir();
                if (sec.directory || sec.blocks) && !dirs.contains_key(&key) && !batch.has(dir.off)
                {
                    if let Ok(range) = dir.range() {
                        batch.push(range, Want::Directory(key, entry));
                    }
                }
            }
        }
        batch.fetch(s);

        {
            let cache = s.cache.lock().expect("block cache");
            let dirs = s.dirs.lock().expect("dir cache");
            // Every group of every pair read whole, as `(offset,
            // blocks)`: once however many edges share the pair. Groups
            // never share a block, so no block is asked for twice.
            let groups = || {
                wants()
                    .enumerate()
                    .filter(|&(i, (key, sec))| {
                        sec.blocks && !wants().take(i).any(|(k, _)| k == key)
                    })
                    .filter_map(|(_, (key, _))| dirs.get(&key))
                    .flat_map(|dir| dir.iter())
                    .map(|&(_, off, len)| (off, s.group_blocks(len)))
            };
            batch.reserve(groups().map(|(_, n)| n as usize).sum());
            let bb = s.block_bytes() as u64;
            'pairs: for (group_off, blocks) in groups() {
                for k in 0..blocks {
                    if !s.push_block(&cache, &mut batch, group_off + k * bb, room) {
                        break 'pairs;
                    }
                }
            }
        }
        batch.fetch(s);
    }

    /// The block-cache bytes one prefetch may fill: the cache's byte
    /// budget, so that nothing it fetched evicts anything else it
    /// fetched (unbounded for an unbounded cache).
    pub(crate) fn prefetch_room(&self) -> u64 {
        match self.shared.cache.lock().expect("block cache").budget() {
            0 => u64::MAX,
            budget => budget,
        }
    }

    /// Where the first group block of `run` — the incoming edges of `v`
    /// from `a`-labeled sources — lies, found in its pair's resident
    /// directory; `None` when that directory is not resident or the run
    /// is empty. Reads nothing.
    fn first_block(&self, dirs: &DirCache, (a, v): IncomingRun) -> Option<u64> {
        let (_, off, len) = group_of(dirs.get(&(a, self.node_label(v)))?, v)?;
        (len > 0).then_some(off)
    }

    /// Whether a cursor opened on `run` now would make a round trip for
    /// its first block: the source is remote, and the block, found
    /// through its resident directory, is not cached.
    pub(crate) fn incoming_is_remote_miss(&self, run: IncomingRun) -> bool {
        let s = &self.shared;
        if !s.source.is_remote() {
            return false;
        }
        let off = self.first_block(&s.dirs.lock().expect("dir cache"), run);
        let cache = s.cache.lock().expect("block cache");
        off.is_some_and(|off| !cache.contains((s.file_id, off)))
    }

    /// [`ClosureSource::prefetch_incoming`]'s batch over the runs `mine`
    /// keeps (a member file of a snapshot sees only the runs routed to
    /// it): the first group block of each, in list order, in one
    /// batch. A run is skipped when its directory is not resident or
    /// its block is already in the batch or cached; the batch stops
    /// once a block would exceed `room`.
    pub(crate) fn prefetch_first_blocks(
        &self,
        runs: &[IncomingRun],
        mine: &dyn Fn(IncomingRun) -> bool,
        room: &mut u64,
    ) {
        let s = &self.shared;
        let mut batch = Batch::default();
        batch.reserve(runs.len());
        {
            let cache = s.cache.lock().expect("block cache");
            let dirs = s.dirs.lock().expect("dir cache");
            for &run in runs.iter().filter(|&&run| mine(run)) {
                let Some(off) = self.first_block(&dirs, run) else {
                    continue;
                };
                if !batch.has(off) && !s.push_block(&cache, &mut batch, off, room) {
                    break;
                }
            }
        }
        batch.fetch(s);
    }

    /// Reads the `len` entries of the group at `group_off` through the
    /// block cache. Every touched block is verified on (first) fetch.
    fn read_group(
        &self,
        group_off: u64,
        len: usize,
        out: &mut Vec<(NodeId, Dist)>,
    ) -> Result<(), StorageError> {
        let (be, bb) = (self.shared.block_entries, self.shared.block_bytes());
        for k in 0..len.div_ceil(be) {
            let block = self.shared.fetch_block(group_off + (k * bb) as u64)?;
            let entries = &block[..be.min(len - k * be) * L_ENTRY_BYTES];
            out.extend(entries.chunks_exact(L_ENTRY_BYTES).map(edge));
        }
        Ok(())
    }
}

impl ClosureSource for PagedStore {
    fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    fn node_label(&self, v: NodeId) -> LabelId {
        self.labels[v.index()]
    }

    fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        self.noted(self.try_pair_keys())
    }

    fn has_pair(&self, a: LabelId, b: LabelId) -> bool {
        self.noted(self.entry(a, b)).is_some()
    }

    fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        let Some(buf) = self.table(a, b, IndexEntry::d) else {
            return Vec::new();
        };
        self.shared
            .io
            .add_d_entries((buf.len() / D_ENTRY_BYTES) as u64);
        buf.chunks_exact(D_ENTRY_BYTES).map(edge).collect()
    }

    fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        let Some(buf) = self.table(a, b, IndexEntry::e) else {
            return Vec::new();
        };
        self.shared
            .io
            .add_e_entries((buf.len() / E_ENTRY_BYTES) as u64);
        buf.chunks_exact(E_ENTRY_BYTES)
            .map(|c| (NodeId(le32(c, 0)), NodeId(le32(c, 4)), le32(c, 8)))
            .collect()
    }

    fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        let Some(dir) = self.noted(self.directory(a, b)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut group = Vec::new();
        let mut total = 0u64;
        for &(v, off, len) in dir.iter() {
            group.clear();
            // A corrupt block degrades to a partial result, like every
            // corrupt read on the infallible trait methods — recorded
            // in the error slot.
            if let Err(e) = self.read_group(off, len as usize, &mut group) {
                self.shared.errors.record(e);
                break;
            }
            out.extend(group.iter().map(|&(s, d)| (s, v, d)));
            total += len as u64;
        }
        self.shared.io.add_edges(total);
        out
    }

    fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        let dir = self.noted(self.directory(a, self.node_label(v)));
        let (_, group_off, len) = dir.and_then(|dir| group_of(&dir, v)).unwrap_or((v, 0, 0));
        Box::new(PagedCursor {
            shared: self.shared.clone(),
            group_off,
            len: len as usize,
            pos: 0,
        })
    }

    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        let a = self.node_label(u);
        let dir = self.noted(self.directory(a, self.node_label(v)))?;
        let (_, off, len) = group_of(&dir, v)?;
        let mut group = Vec::with_capacity(len as usize);
        if let Err(e) = self.read_group(off, len as usize, &mut group) {
            self.shared.errors.record(e);
            return None;
        }
        self.shared.io.add_edges(len as u64);
        group.into_iter().find(|&(s, _)| s == u).map(|(_, d)| d)
    }

    fn io(&self) -> IoSnapshot {
        self.shared.io.snapshot()
    }

    fn reset_io(&self) {
        self.shared.io.reset();
    }

    fn prefetch(&self, pairs: &[Vec<(LabelId, LabelId)>], sections: &dyn Fn(usize) -> Sections) {
        self.prefetch_where(pairs, sections, &|_| true, &mut self.prefetch_room());
    }

    fn prefetch_incoming(&self, run: IncomingRun, more: &mut dyn FnMut(&mut Vec<IncomingRun>)) {
        if self.incoming_is_remote_miss(run) {
            let mut runs = vec![run];
            more(&mut runs);
            self.prefetch_first_blocks(&runs, &|_| true, &mut self.prefetch_room());
        }
    }

    fn take_error(&self) -> Option<StorageError> {
        self.shared.errors.take()
    }
}

/// A block cursor over one group: each `fill_block` call yields the
/// rest of the current on-disk block (so reads stay block-aligned and
/// every fragment comes off a CRC-verified, cache-resident block).
struct PagedCursor {
    shared: Arc<PagedShared>,
    group_off: u64,
    len: usize,
    pos: usize,
}

impl EdgeCursor for PagedCursor {
    fn fill_block(&mut self, out: &mut Vec<(NodeId, Dist)>) -> usize {
        if self.pos >= self.len {
            return 0;
        }
        let be = self.shared.block_entries;
        let block_idx = self.pos / be;
        let block_off = self.group_off + (block_idx * self.shared.block_bytes()) as u64;
        let block = match self.shared.fetch_block(block_off) {
            Ok(block) => block,
            Err(e) => {
                // A corrupt or unreadable block degrades to exhaustion
                // — recorded in the error slot so the serving layer can
                // refuse the truncated stream.
                self.shared.errors.record(e);
                self.pos = self.len;
                return 0;
            }
        };
        let upto = self.len.min((block_idx + 1) * be);
        let take = upto - self.pos;
        let from = (self.pos % be) * L_ENTRY_BYTES;
        out.extend(
            block[from..from + take * L_ENTRY_BYTES]
                .chunks_exact(L_ENTRY_BYTES)
                .map(edge),
        );
        self.pos = upto;
        self.shared.io.add_edges(take as u64);
        take
    }

    fn remaining(&self) -> usize {
        self.len - self.pos
    }
}

/// A store opened from a local path — what [`open_local_store`] found
/// there.
// Every caller matches and unwraps it at once, so the variants' size
// gap wastes nothing; boxing would cost an allocation per open.
#[allow(clippy::large_enum_variant)]
pub enum LocalStore {
    /// A single v5 closure file.
    Paged(PagedStore),
    /// A sharded snapshot: a v6 `MANIFEST` routing over v5 shard files.
    Sharded(crate::ShardedStore),
}

/// Resolves what a local store path names, once, and opens it with
/// `cache_bytes` as the block-cache budget (`0` = unlimited):
///
/// * a directory is a sharded snapshot and must contain a `MANIFEST`
///   (otherwise a pointed [`StorageError::BadFormat`] naming the path
///   to pass, not a raw io error);
/// * a file starting with the v6 magic is such a `MANIFEST` itself;
/// * any other file is opened as a single v5 closure file — where a
///   retired v1/v2/v3 magic (or a v4 manifest's) is refused with the
///   pointer to `ktpm closure` and anything else unknown is "bad
///   magic".
///
/// [`open_store_auto`], [`crate::load_snapshot_manifest`] (`ktpm
/// blockd`) and `ktpm store verify` all resolve their path here.
pub fn open_local_store(path: &Path, cache_bytes: u64) -> Result<LocalStore, StorageError> {
    if path.is_dir() {
        let manifest = path.join("MANIFEST");
        if !manifest.is_file() {
            return Err(StorageError::BadFormat(format!(
                "{} is a directory without a MANIFEST — did you mean the manifest path \
                 of a sharded snapshot (<dir>/MANIFEST, written by write_store_sharded)?",
                path.display()
            )));
        }
        return crate::ShardedStore::open_with_cache_bytes(&manifest, cache_bytes)
            .map(LocalStore::Sharded);
    }
    // Sniff the magic on the handle the v5 reader then keeps.
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; 8];
    if file.read_exact(&mut head).is_ok() && &head == MAGIC_V6 {
        return crate::ShardedStore::open_with_cache_bytes(path, cache_bytes)
            .map(LocalStore::Sharded);
    }
    PagedStore::from_file(file, cache_bytes).map(LocalStore::Paged)
}

/// Opens a local store path of any kind ([`open_local_store`]: a v5
/// file, a sharded snapshot's `MANIFEST`, or the snapshot directory)
/// as a [`crate::SharedSource`], with `block_cache_bytes` as the cache
/// budget when given (`Some(0)` means unlimited). This is what the CLI
/// and the bench harness use. For `tcp://` remote stores, see
/// [`crate::open_store_uri`].
pub fn open_store_auto(
    path: &Path,
    block_cache_bytes: Option<u64>,
) -> Result<crate::SharedSource, StorageError> {
    let budget = block_cache_bytes.unwrap_or(DEFAULT_BLOCK_CACHE_BYTES);
    Ok(match open_local_store(path, budget)? {
        LocalStore::Paged(store) => store.into_shared(),
        LocalStore::Sharded(store) => store.into_shared(),
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::label_star;
    use ktpm_graph::LabeledGraph;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    const P: usize = INDEX_PAGE_ENTRIES;

    /// A [`LocalFile`] that counts every read and every batch reaching
    /// it — one round trip each, were the file remote — and their
    /// bytes, and the batches alone. With `remote` set it answers
    /// [`BlockSource::is_remote`] as the network source does. `rot`
    /// holds a byte offset and a count of flips: while the count lasts
    /// (`u64::MAX`: for good), every read covering that byte delivers
    /// it with its low bit flipped, and uses up one flip.
    struct Counting {
        file: LocalFile,
        reads: Arc<AtomicU64>,
        bytes: Arc<AtomicU64>,
        batches: Arc<AtomicU64>,
        remote: bool,
        rot: Arc<Mutex<(u64, u64)>>,
    }

    impl Counting {
        fn open(path: &Path, reads: &Arc<AtomicU64>, bytes: &Arc<AtomicU64>) -> Self {
            Counting {
                file: LocalFile::open(path).unwrap(),
                reads: Arc::clone(reads),
                bytes: Arc::clone(bytes),
                batches: Arc::default(),
                remote: false,
                rot: Arc::default(),
            }
        }

        /// Applies `rot` to `buf`, read at `off`.
        fn rot(&self, off: u64, buf: &mut [u8]) {
            let mut rot = self.rot.lock().unwrap();
            let (at, left) = *rot;
            if left > 0 && (off..off + buf.len() as u64).contains(&at) {
                buf[(at - off) as usize] ^= 1;
                if left != u64::MAX {
                    rot.1 -= 1;
                }
            }
        }
    }

    impl BlockSource for Counting {
        fn read_at(&self, off: u64, bytes: usize) -> Result<Vec<u8>, StorageError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            let mut buf = self.file.read_at(off, bytes)?;
            self.rot(off, &mut buf);
            Ok(buf)
        }

        fn read_many(
            &self,
            ranges: &[(u64, usize)],
            got: &mut dyn FnMut(usize, Vec<u8>),
        ) -> Result<(), StorageError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.batches.fetch_add(1, Ordering::Relaxed);
            let bytes: usize = ranges.iter().map(|&(_, b)| b).sum();
            self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            self.file.read_many(ranges, &mut |i, mut buf| {
                self.rot(ranges[i].0, &mut buf);
                got(i, buf)
            })
        }

        fn len(&self) -> u64 {
            self.file.len()
        }

        fn is_remote(&self) -> bool {
            self.remote
        }
    }

    /// A store over `label_star(m)` (exactly `m` pairs) behind a
    /// counting source, with its read and byte counters. `name` keeps
    /// the file of each test its own: tests run concurrently.
    struct Counted {
        store: PagedStore,
        reads: Arc<AtomicU64>,
        bytes: Arc<AtomicU64>,
        batches: Arc<AtomicU64>,
        rot: Arc<Mutex<(u64, u64)>>,
        path: PathBuf,
    }

    impl Counted {
        fn open(name: &str, m: usize) -> Self {
            let mut path = std::env::temp_dir();
            path.push(format!("ktpm-paged-unit-{}-{name}-{m}", std::process::id()));
            let tables = ClosureTables::compute(&label_star(m));
            crate::write_store(&tables, &path).unwrap();
            Self::over(path, 0, false)
        }

        /// A store over `web()` in blocks of 4 entries, with a block
        /// cache of `budget` bytes.
        fn web(name: &str, budget: u64) -> Self {
            Self::web_as(name, budget, false)
        }

        /// As [`Self::web`], over a source that is `remote` or not.
        fn web_as(name: &str, budget: u64, remote: bool) -> Self {
            let mut path = std::env::temp_dir();
            path.push(format!("ktpm-paged-unit-{}-web-{name}", std::process::id()));
            crate::write_store_v3(&ClosureTables::compute(&web()), &path, 4).unwrap();
            Self::over(path, budget, remote)
        }

        fn over(path: PathBuf, budget: u64, remote: bool) -> Self {
            let (reads, bytes) = (Arc::default(), Arc::default());
            let source = Counting {
                remote,
                ..Counting::open(&path, &reads, &bytes)
            };
            let (batches, rot) = (Arc::clone(&source.batches), Arc::clone(&source.rot));
            let store = PagedStore::from_source(
                Box::new(source),
                Arc::new(Mutex::new(BlockCache::new(budget))),
                IoStats::new(),
                0,
                ErrorSlot::default(),
            )
            .unwrap();
            Counted {
                store,
                reads,
                bytes,
                batches,
                rot,
                path,
            }
        }

        fn reads(&self) -> u64 {
            self.reads.load(Ordering::Relaxed)
        }

        fn bytes(&self) -> u64 {
            self.bytes.load(Ordering::Relaxed)
        }

        fn batches(&self) -> u64 {
            self.batches.load(Ordering::Relaxed)
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            std::fs::remove_file(&self.path).ok();
        }
    }

    /// The pair of leaf `i` in `label_star`.
    fn leaf(i: usize) -> (LabelId, LabelId) {
        (LabelId(0), LabelId(2 * i as u32 + 1))
    }

    #[test]
    fn open_reads_the_header_and_fence_never_the_entries() {
        let one = Counted::open("open", P + 1);
        let two = Counted::open("open", 2 * P + 1);
        for c in [&one, &two] {
            assert!(c.reads() <= 4, "open made {} reads", c.reads());
            assert_eq!(
                c.store.io().block_reads,
                0,
                "open reads are not block reads"
            );
        }
        assert_eq!((one.store.index_pages(), two.store.index_pages()), (2, 3));
        // 2P more pairs is 2P more leaves and 2P more isolated nodes —
        // 4P label bytes each — and one more fence key; not one of the
        // P · 28 bytes of entries those pairs added to the index.
        let labels = 2 * P as u64 * 4;
        assert_eq!(two.bytes() - one.bytes(), labels + 8);
    }

    #[test]
    fn a_lookup_reads_its_page_once_and_a_section_is_one_read() {
        let c = Counted::open("lookup", 2 * P + 1);
        let (opened, opened_bytes) = (c.reads(), c.bytes());
        // Leaf P + 3 lives on page 1.
        let (a, b) = leaf(P + 3);
        assert!(c.store.has_pair(a, b));
        assert_eq!(c.reads(), opened + 1, "the first lookup reads one page");
        assert_eq!(
            c.bytes() - opened_bytes,
            index_page_bytes(P) as u64,
            "and only that page"
        );
        assert_eq!(c.store.io().block_reads, 1, "counted as a block read");
        // The page is kept: more lookups on it, present and absent,
        // read nothing.
        let (a2, b2) = leaf(P + 9);
        assert!(c.store.has_pair(a2, b2));
        assert!(!c
            .store
            .has_pair(LabelId(0), LabelId(2 * (P as u32 + 3) + 2)));
        assert_eq!(c.reads(), opened + 1);
        // A section of a fresh pair on the warm page: one read each.
        assert_eq!(c.store.load_d(a2, b2).len(), 1);
        assert_eq!(c.reads(), opened + 2, "load_d is one section read");
        assert_eq!(c.store.load_e(a2, b2).len(), 1);
        assert_eq!(c.reads(), opened + 3, "load_e is one section read");
        // A lookup before the first fence key reads nothing at all.
        assert!(!c.store.has_pair(LabelId(0), LabelId(0)));
        assert_eq!(c.reads(), opened + 3);
        assert!(c.store.take_error().is_none());
    }

    /// A deterministic 90-node graph over 24 labels, three weighted
    /// out-edges a node: ≈ 400 label pairs (four index pages) and
    /// groups of several 4-entry blocks.
    fn web() -> LabeledGraph {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = ktpm_graph::GraphBuilder::new();
        let nodes: Vec<_> = (0..90)
            .map(|i| b.add_node(&format!("L{}", i % 24)))
            .collect();
        for &u in &nodes {
            for _ in 0..3 {
                let v = nodes[(next() % 90) as usize];
                if v != u {
                    b.add_edge(u, v, (next() % 5 + 1) as u32);
                }
            }
        }
        b.build().unwrap()
    }

    /// A 9-edge plan's `edge_label_pairs`: entry 0 (the root) empty,
    /// then one pair each, spread across the whole pair index.
    fn nine_edges(keys: &[(LabelId, LabelId)]) -> Vec<Vec<(LabelId, LabelId)>> {
        let step = keys.len() / 9;
        std::iter::once(Vec::new())
            .chain((0..9).map(|i| vec![keys[i * step + i % 3]]))
            .collect()
    }

    /// What a lazy half reads: every `D`, the odd edges' `E` (standing
    /// in for the seeded ones), every directory.
    fn lazy(u: usize) -> Sections {
        Sections {
            d: true,
            e: u % 2 == 1,
            directory: true,
            blocks: false,
        }
    }

    /// What a full half reads: every pair whole.
    fn full(_: usize) -> Sections {
        Sections {
            blocks: true,
            ..Sections::default()
        }
    }

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort_unstable();
        v
    }

    /// The reads a lazy half makes after its prefetch — every `D`, the
    /// seeded `E`s, a cursor on every `D` node — checked against
    /// memory. Returns how many were table loads.
    fn lazy_reads(
        store: &dyn ClosureSource,
        mem: &crate::MemStore,
        pairs: &[Vec<(LabelId, LabelId)>],
    ) -> u64 {
        let mut tables = 0;
        for (u, keys) in pairs.iter().enumerate() {
            for &(a, b) in keys {
                let d = store.load_d(a, b);
                assert_eq!(d, mem.load_d(a, b), "D ({a:?}, {b:?})");
                tables += 1;
                if lazy(u).e {
                    assert_eq!(store.load_e(a, b), mem.load_e(a, b), "E ({a:?}, {b:?})");
                    tables += 1;
                }
                for &(v, _) in &d {
                    let _ = store.incoming_cursor(a, v);
                }
            }
        }
        tables
    }

    /// The reads a full half makes after its prefetch: every pair
    /// whole, checked against memory.
    fn full_reads(
        store: &dyn ClosureSource,
        mem: &crate::MemStore,
        pairs: &[Vec<(LabelId, LabelId)>],
    ) {
        for &(a, b) in pairs.iter().flatten() {
            let want = sorted(mem.load_pair(a, b));
            assert_eq!(sorted(store.load_pair(a, b)), want, "L ({a:?}, {b:?})");
        }
    }

    #[test]
    fn a_cold_plan_half_is_one_batch_a_round_and_then_all_hits() {
        let tables = ClosureTables::compute(&web());
        let mem = crate::MemStore::new(tables);
        let keys = mem.pair_keys();
        assert!(
            keys.len() > 3 * P,
            "{} pairs: the index spans pages",
            keys.len()
        );
        let pairs = nine_edges(&keys);

        // The lazy half: index pages, then sections and directories.
        let c = Counted::web("lazy", 0);
        assert_eq!(c.reads(), 2, "an open is two batches");
        c.store.prefetch(&pairs, &lazy);
        assert_eq!(c.reads(), 2 + 2, "a cold lazy half is two batches");
        assert_eq!(c.store.io().edges_read, 0, "and reads no group block");
        let (fetched, hits) = (c.reads(), c.store.io().cache_hits);
        let tables = lazy_reads(&c.store, &mem, &pairs);
        assert_eq!(c.reads(), fetched, "every later read is a hit");
        assert_eq!(c.store.io().cache_hits - hits, tables);
        assert_eq!(c.store.cache_blocks() as u64, tables, "sections only");
        // Warm: nothing left to fetch.
        c.store.prefetch(&pairs, &lazy);
        assert_eq!(c.reads(), fetched, "a warm lazy prefetch reads nothing");

        // The full half: index pages, directories, group blocks.
        let c = Counted::web("full", 0);
        c.store.prefetch(&pairs, &full);
        assert_eq!(c.reads(), 2 + 3, "a cold full half is three batches");
        let fetched = c.reads();
        full_reads(&c.store, &mem, &pairs);
        assert_eq!(c.reads(), fetched, "every later read is a hit");
        let io = c.store.io();
        assert_eq!(
            io.cache_hits, io.cache_misses,
            "each block read once, found once"
        );
        c.store.prefetch(&pairs, &full);
        c.store.prefetch(&pairs, &lazy);
        assert_eq!(
            c.reads(),
            fetched + 1,
            "warm blocks; only the E/D sections are new"
        );
        assert!(c.store.take_error().is_none());
    }

    /// Every run of `pairs` — `(a, v)` for each `D` node `v` of each
    /// pair `(a, b)` — in plan order: the cursors a lazy half's loader
    /// may open.
    fn runs_of(mem: &crate::MemStore, pairs: &[Vec<(LabelId, LabelId)>]) -> Vec<IncomingRun> {
        let runs = pairs.iter().flatten();
        runs.flat_map(|&(a, b)| mem.load_d(a, b).into_iter().map(move |(v, _)| (a, v)))
            .collect()
    }

    /// The first block a cursor on `run` yields, checked against the
    /// run's prefix in memory.
    fn first_block(store: &dyn ClosureSource, mem: &crate::MemStore, (a, v): IncomingRun) {
        let block = store.incoming_cursor(a, v).next_block();
        let whole = mem.tables().pair(a, mem.node_label(v)).unwrap().incoming(v);
        assert!(!block.is_empty());
        assert_eq!(block, whole[..block.len()], "run ({a:?}, {v:?})");
    }

    #[test]
    fn a_local_file_never_reads_ahead() {
        // Over a local file, an offered cursor open never asks for more
        // runs and sends no batch after the plan half's prefetch: every
        // first block is a demand read, exactly as without the offer.
        let mem = crate::MemStore::new(ClosureTables::compute(&web()));
        let pairs = nine_edges(&mem.pair_keys());
        let runs = runs_of(&mem, &pairs);
        let open_all = |c: &Counted, offer: bool| {
            c.store.prefetch(&pairs, &lazy);
            let (reads, batches) = (c.reads(), c.batches());
            for (k, &run) in runs.iter().enumerate() {
                if offer {
                    c.store.prefetch_incoming(run, &mut |_| {
                        panic!("a local file asked for runs to read ahead at run {k}")
                    });
                }
                first_block(&c.store, &mem, run);
            }
            assert_eq!(c.batches(), batches, "a batch after the plan half's");
            assert!(c.store.take_error().is_none());
            (c.reads() - reads, c.store.io())
        };
        let (offered, offered_io) = open_all(&Counted::web("offered", 0), true);
        let (demand, demand_io) = open_all(&Counted::web("demand", 0), false);
        assert_eq!(offered, demand, "reads after the prefetch");
        assert_eq!(offered_io.block_reads, demand_io.block_reads);
        assert_eq!(offered_io.cache_misses, demand_io.cache_misses);
    }

    #[test]
    fn a_remote_open_reads_the_runs_announced_behind_it_in_one_batch() {
        // Over a remote source, a cold open asks for the runs to read
        // ahead once and fetches the first block of its own run and of
        // each announced one in one batch; their opens are then cache
        // hits. An open whose block is cached asks for nothing.
        let mem = crate::MemStore::new(ClosureTables::compute(&web()));
        let pairs = nine_edges(&mem.pair_keys());
        let runs = runs_of(&mem, &pairs);
        assert!(runs.len() > 18, "{} runs", runs.len());
        let c = Counted::web_as("ahead", 0, true);
        c.store.prefetch(&pairs, &lazy);
        let (reads, misses) = (c.reads(), c.store.io().cache_misses);
        let mut asked = 0;
        c.store.prefetch_incoming(runs[0], &mut |list| {
            asked += 1;
            assert_eq!(list, &runs[..1], "the offered run comes first");
            list.extend(&runs[1..17]);
        });
        assert_eq!((asked, c.reads()), (1, reads + 1), "one ask, one batch");
        assert_eq!(c.batches(), 2 + 2 + 1);
        assert_eq!(c.store.io().cache_misses - misses, 17, "17 first blocks");
        for &run in &runs[..17] {
            c.store.prefetch_incoming(run, &mut |_| asked += 1);
            first_block(&c.store, &mem, run);
        }
        assert_eq!((asked, c.reads()), (1, reads + 1), "cached: all hits");
        // A run left out of the list is the next round trip.
        c.store.prefetch_incoming(runs[17], &mut |_| asked += 1);
        assert_eq!((asked, c.reads()), (2, reads + 2));
        first_block(&c.store, &mem, runs[17]);
        assert_eq!(c.reads(), reads + 2);
        assert!(c.store.take_error().is_none());
    }

    #[test]
    fn a_prefetch_stops_at_the_cache_budget_and_evicts_nothing_it_fetched() {
        let mem = crate::MemStore::new(ClosureTables::compute(&web()));
        let pairs = nine_edges(&mem.pair_keys());
        let budget = 5 * (4 * L_ENTRY_BYTES) as u64;
        let c = Counted::web("budget", budget);
        c.store.prefetch(&pairs, &full);
        let io = c.store.io();
        assert_eq!(io.cache_evictions, 0);
        assert!(
            io.cache_bytes_resident <= budget,
            "{} bytes",
            io.cache_bytes_resident
        );
        assert_eq!(c.store.cache_blocks(), 5, "the budget's worth, no more");
        // The rest is read on demand, and every answer is right.
        full_reads(&c.store, &mem, &pairs);
        assert!(c.store.take_error().is_none());
    }

    #[test]
    fn a_sharded_prefetch_is_one_batch_a_round_per_touched_file() {
        let tables = ClosureTables::compute(&web());
        let mem = crate::MemStore::new(tables.clone());
        let pairs = nine_edges(&mem.pair_keys());
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "ktpm-paged-unit-{}-web-sharded",
            std::process::id()
        ));
        let manifest =
            crate::write_store_sharded(&tables, &dir, &crate::ShardSpec::new(0, 3), 4).unwrap();
        // The files whose fence ranges hold an edge's pair.
        let touched: Vec<usize> = (0..3)
            .filter(|&f| {
                let (from, to) = manifest.range_of(f);
                pairs
                    .iter()
                    .flatten()
                    .any(|&k| k >= from && to.is_none_or(|to| k < to))
            })
            .collect();
        assert_eq!(touched.len(), 3, "the edges touch every file");
        // One routed store over counting member files sharing a cache
        // of `budget` bytes; `reads[f]` counts file f's reads and
        // batches.
        let routed = |sections: &dyn Fn(usize) -> Sections, budget: u64| {
            let reads: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::default()).collect();
            let (io, errors) = (IoStats::new(), ErrorSlot::default());
            let opener: crate::sharded::Opener = {
                let (dir, reads, io, errors) =
                    (dir.clone(), reads.clone(), io.clone(), errors.clone());
                let cache = Arc::new(Mutex::new(BlockCache::new(budget)));
                Box::new(move |shard, meta| {
                    let source = Counting::open(
                        &dir.join(&meta.name),
                        &reads[shard as usize],
                        &Arc::default(),
                    );
                    PagedStore::from_source(
                        Box::new(source),
                        Arc::clone(&cache),
                        io.clone(),
                        shard,
                        errors.clone(),
                    )
                })
            };
            let store = crate::RoutedStore::new(manifest.clone(), opener, io, errors, ());
            store.prefetch(&pairs, sections);
            let counts = |reads: &[Arc<AtomicU64>]| -> Vec<u64> {
                reads.iter().map(|r| r.load(Ordering::Relaxed)).collect()
            };
            let after = counts(&reads);
            (store, reads, after, counts)
        };

        let (store, reads, after, counts) = routed(&lazy, 0);
        // Per file: its open (two batches), then a round each for its
        // index pages and its sections.
        assert_eq!(after, vec![2 + 2; 3]);
        lazy_reads(&store, &mem, &pairs);
        assert_eq!(counts(&reads), after, "every later read is a hit");

        let (store, reads, after, counts) = routed(&full, 0);
        assert_eq!(after, vec![2 + 3; 3]);
        full_reads(&store, &mem, &pairs);
        assert_eq!(counts(&reads), after, "every later read is a hit");
        assert!(store.take_error().is_none());

        // The files share one cache, so they share one budget.
        let budget = 5 * (4 * L_ENTRY_BYTES) as u64;
        let (store, ..) = routed(&full, budget);
        let io = store.io();
        assert_eq!(io.cache_evictions, 0);
        assert_eq!(io.cache_misses, 5, "the budget's worth, no more");
        assert_eq!(io.cache_bytes_resident, budget);
        full_reads(&store, &mem, &pairs);
        assert!(store.take_error().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_range_kind_reads_pristine_or_fails_on_both_paths_and_tiers() {
        // One bit of one range of each kind rots, for one read or for
        // good, and the range is read on demand or through a prefetch,
        // from a local or a remote source. A read yields memory's data
        // or an error, never other data; a remote source reads a
        // range that failed its check once more, a local one never; a
        // prefetch records nothing; a demand read records its error.
        let mem = crate::MemStore::new(ClosureTables::compute(&web()));
        let keys = mem.pair_keys();
        // A pair on page 1 or later, with `D` entries and groups.
        let i = (P..keys.len())
            .find(|&i| !mem.load_pair(keys[i].0, keys[i].1).is_empty())
            .expect("a pair with groups");
        let (a, b) = keys[i];
        let probe = Counted::web("rot-probe", 0);
        let entry = probe.store.entry(a, b).unwrap().expect("stored");
        let group = probe.store.directory(a, b).unwrap().expect("stored")[0].1;
        let record = (i % P * INDEX_ENTRY_BYTES) as u64;
        let key_byte = probe.store.shared.index.page_range(i / P).0 + record + 4;
        let only = |f: fn(&mut Sections)| {
            let mut s = Sections::default();
            f(&mut s);
            s
        };
        // Each kind: the byte that rots (the key's `b`, the first `D`
        // node, the first directory node, the first group's first
        // source) and what a prefetch of the pair reads.
        let kinds = [
            ("page", key_byte, only(|s| s.d = true)),
            ("table", entry.d_off + 4, only(|s| s.d = true)),
            (
                "directory",
                entry.dir().off + 4,
                only(|s| s.directory = true),
            ),
            ("block", group, only(|s| s.blocks = true)),
        ];
        // The page and the table are read through `D`, the rest
        // through the whole pair.
        let read = |store: &dyn ClosureSource, kind: &str| -> Vec<(NodeId, NodeId, Dist)> {
            match kind {
                "page" | "table" => store
                    .load_d(a, b)
                    .into_iter()
                    .map(|(v, d)| (v, v, d))
                    .collect(),
                _ => sorted(store.load_pair(a, b)),
            }
        };
        let mut row = 0;
        for (kind, at, sections) in kinds {
            let want = read(&mem, kind);
            assert!(!want.is_empty());
            for remote in [false, true] {
                for prefetch in [false, true] {
                    for persistent in [false, true] {
                        let name = format!(
                            "{kind}: remote {remote}, prefetch {prefetch}, persistent {persistent}"
                        );
                        let c = Counted::web_as(&format!("rot-{row}"), 0, remote);
                        row += 1;
                        *c.rot.lock().unwrap() = (at, if persistent { u64::MAX } else { 1 });
                        let retries = || c.store.io().remote_retries;
                        if prefetch {
                            c.store.prefetch(&[vec![(a, b)]], &|_| sections);
                            assert!(c.store.take_error().is_none(), "{name}: recorded");
                            assert_eq!(retries(), remote as u64, "{name}: prefetch re-reads");
                        }
                        let before = retries();
                        let got = read(&c.store, kind);
                        let error = c.store.take_error();
                        let clean = !persistent && (remote || prefetch);
                        assert_eq!(got == want, clean, "{name}: {got:?}");
                        assert_eq!(error.is_some(), !clean, "{name}: {error:?}");
                        let again = remote && (persistent || !prefetch);
                        assert_eq!(retries() - before, again as u64, "{name}: demand re-reads");
                    }
                }
            }
        }
    }

    #[test]
    fn a_directory_group_past_the_blocks_is_refused_before_it_sizes_anything() {
        // The first group of one pair's directory claims u32::MAX
        // entries, the section's CRC resealed. The open accepts the
        // file (directories are read on first touch); every read
        // through the directory degrades with a recorded error instead
        // of sizing an allocation by that count; the scrub refuses it.
        let mem = crate::MemStore::new(ClosureTables::compute(&web()));
        let (a, b) = mem
            .pair_keys()
            .into_iter()
            .find(|&(a, b)| !mem.load_pair(a, b).is_empty())
            .expect("a pair with groups");
        let c = Counted::web("overrun", 0);
        let entry = c.store.entry(a, b).unwrap().expect("stored");
        let v = c.store.directory(a, b).unwrap().expect("stored")[0].0;
        let (off, bytes) = entry.dir().range().unwrap();
        let mut file = std::fs::read(&c.path).unwrap();
        let section = &mut file[off as usize..off as usize + bytes];
        section[4 + 12..4 + 16].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&section[..bytes - 4]);
        section[bytes - 4..].copy_from_slice(&crc.to_le_bytes());
        let path = c.path.with_extension("overrun");
        std::fs::write(&path, &file).unwrap();
        let store = PagedStore::open(&path).unwrap();
        let corrupt = |store: &PagedStore| {
            let error = store.take_error();
            assert!(
                matches!(error, Some(StorageError::Corrupt { .. })),
                "{error:?}"
            );
        };
        let (u, _, _) = mem.load_pair(a, b).into_iter().find(|t| t.1 == v).unwrap();
        assert_eq!(store.lookup_dist(u, v), None);
        corrupt(&store);
        assert!(store.load_pair(a, b).is_empty());
        corrupt(&store);
        assert!(store.incoming_cursor(a, v).next_block().is_empty());
        corrupt(&store);
        assert!(matches!(store.verify(), Err(StorageError::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }
}
