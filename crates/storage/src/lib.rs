//! # ktpm-storage
//!
//! The storage layer of §4.1: the transitive closure serialized as
//! label-pair tables (`Dᵅᵦ`, `Eᵅᵦ`, and `Lᵅᵦ` grouped per destination
//! node sorted by distance), read back block by block with I/O
//! accounting.
//!
//! Five types implement [`ClosureSource`] (six public store names), in
//! three families of read path — variation is a small layer under a
//! shared path, not a parallel implementation:
//!
//! **Table-backed** — an in-memory `PairTable` per label pair, read
//! through one private module (`table.rs`: the four bulk reads, the
//! logical I/O accounting, the one cursor, which shares its run with
//! the table and copies nothing). The
//! three stores differ only in where a pair's table comes from:
//!
//! * [`MemStore`] — precomputed tables, for tests and pure-CPU
//!   benchmarks;
//! * [`LiveStore`] — the mutable backend: graph + closure behind one
//!   lock, accepting [`ktpm_graph::GraphDelta`]s with incremental
//!   closure repair and a monotonic [`ClosureSource::graph_version`];
//! * [`OnDemandStore`] — no precomputation at all: pair tables are
//!   materialized lazily from the data graph, one SSSP sweep per source
//!   label, and cached (§5 "Managing Closure Size").
//!
//! **Paged** — the one on-disk format (v5; [`write_store`] emits it):
//!
//! * [`PagedStore`] — group regions split into fixed-size CRC-verified
//!   blocks, fetched lazily through a byte-budgeted LRU block cache, so
//!   enumeration over a closure larger than RAM keeps a bounded
//!   resident set. Its pair index is paged as well: an open reads the
//!   header and a fence of page first-keys, and each index page is
//!   verified on the lookup that first lands on it. It reads its bytes
//!   through a positioned byte source, which is the seam the next
//!   family plugs into.
//!
//! **Manifest-routed** — one store ([`RoutedStore`], a single `impl
//! ClosureSource`) over a multi-file v5 snapshot
//! ([`write_store_sharded`]) and its CRC'd v6 `MANIFEST`: each shard
//! file owns one contiguous range of label pairs, and a pair is routed
//! by a binary search of the files' first keys to the one file whose
//! range holds it. Files are opened lazily as member [`PagedStore`]s,
//! whose own paged indexes answer pair membership, all sharing one
//! byte-budgeted block cache. Two public aliases name where the shard
//! files live:
//!
//! * [`ShardedStore`] — in a local directory (adds `open`, `verify`);
//! * [`RemoteStore`] — behind `ktpm blockd` over TCP
//!   ([`open_store_uri`] with `tcp://host:port`): blocks are fetched on
//!   demand with client-side CRC re-verification, bounded connection
//!   pooling, timeouts, and capped-backoff retries that surface
//!   [`StorageError::Remote`] instead of hanging.
//!
//! [`open_store_auto`] / [`open_store_uri`] open whatever a `--store`
//! argument names. The retired v1/v2/v3 file layouts and the v4
//! manifest are recognised by their magic only to be refused (re-run
//! `ktpm closure`).
//!
//! All counters live in [`IoStats`] snapshots so experiments can report
//! edges/blocks/bytes read per phase (Figures 6(c)–6(f)), including the
//! paged backend's block-cache hit/miss/eviction/residency traffic.

mod cache;
mod format;
mod iostats;
mod live;
mod manifest;
mod mem;
mod ondemand;
mod paged;
mod remote;
mod shard;
mod sharded;
mod source;
mod table;
mod writer;

pub use format::{DEFAULT_BLOCK_EDGES, INDEX_PAGE_ENTRIES, MAGIC_V6};
pub use iostats::{IoSnapshot, IoStats};
pub use live::LiveStore;
pub use manifest::{Manifest, ShardFileMeta};
pub use mem::MemStore;
pub use ondemand::OnDemandStore;
pub use paged::{
    open_local_store, open_store_auto, LocalStore, PagedStore, DEFAULT_BLOCK_CACHE_BYTES,
};
pub use remote::{blockproto, open_store_uri, RemoteOptions, RemoteStore};
pub use shard::ShardSpec;
pub use sharded::{load_snapshot_manifest, RoutedStore, ShardedStore};
pub use source::{
    ClosureSource, DeltaReport, EdgeCursor, IncomingRun, Sections, SharedSource, StorageError,
};
pub use writer::{write_store, write_store_sharded, write_store_v3};
