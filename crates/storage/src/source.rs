//! The [`ClosureSource`] trait — the storage interface every matching
//! algorithm consumes — plus cursor utilities.

use crate::iostats::IoSnapshot;
use ktpm_graph::{DeltaError, Dist, GraphDelta, LabelId, NodeId};
use std::fmt;
use std::sync::Arc;

/// Errors raised by storage backends.
#[derive(Debug)]
#[non_exhaustive]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a closure store or has an unsupported version.
    BadFormat(String),
    /// The file *is* a closure store but its bytes are inconsistent —
    /// truncated, bit-rotted, or carrying out-of-bounds offsets or
    /// counts. `offset` is where the reader needed `needed` more valid
    /// bytes than the snapshot provides. Every read path returns this
    /// instead of panicking, so a corrupt snapshot can never abort the
    /// process that opens it.
    Corrupt {
        /// File (or section-relative) offset of the failed read.
        offset: u64,
        /// Bytes the reader needed at `offset`.
        needed: usize,
    },
    /// The backend is an immutable snapshot and cannot apply graph
    /// deltas. Carries the backend name for diagnostics.
    UpdatesUnsupported(&'static str),
    /// A caller-supplied configuration value is unusable (e.g. a zero
    /// cursor block size or on-disk block capacity). Raised before any
    /// state is touched, instead of silently clamping.
    InvalidConfig(String),
    /// A delta was rejected before any state changed (unknown node,
    /// zero weight, missing/duplicate edge, ...).
    DeltaRejected(DeltaError),
    /// A remote block server could not be reached or kept failing after
    /// the client exhausted its capped-backoff retries (connect/request
    /// timeout, connection reset, server-reported failure, or repeated
    /// CRC mismatches on re-fetch). Surfaced instead of hanging so a
    /// dead `ktpm blockd` turns into a clean error at the serving tier.
    Remote {
        /// The `host:port` the client was talking to.
        addr: String,
        /// What failed, after how many attempts.
        detail: String,
    },
    /// One shard file of a sharded snapshot failed verification; wraps
    /// the per-file error so scrub reports can name the file *and* the
    /// offset.
    CorruptShard {
        /// Manifest-listed file name of the corrupt shard.
        file: String,
        /// The failure inside that file.
        error: Box<StorageError>,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::BadFormat(m) => write!(f, "bad store format: {m}"),
            StorageError::Corrupt { offset, needed } => write!(
                f,
                "corrupt store: needed {needed} byte(s) at offset {offset} \
                 (truncated or damaged snapshot)"
            ),
            StorageError::UpdatesUnsupported(backend) => write!(
                f,
                "graph updates unsupported: {backend} store is an immutable snapshot"
            ),
            StorageError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            StorageError::DeltaRejected(e) => write!(f, "delta rejected: {e}"),
            StorageError::Remote { addr, detail } => {
                write!(f, "remote store {addr} unavailable: {detail}")
            }
            StorageError::CorruptShard { file, error } => {
                write!(f, "corrupt shard file {file}: {error}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<DeltaError> for StorageError {
    fn from(e: DeltaError) -> Self {
        StorageError::DeltaRejected(e)
    }
}

/// What one applied delta did to a live store — the invalidation signal
/// the serving layer consumes.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Store version after the delta (monotonic, starts at 0).
    pub version: u64,
    /// Label pairs whose closure tables changed, ascending. A cached
    /// plan is stale iff one of its query-tree label pairs is listed
    /// here (wildcards match any label).
    pub touched_pairs: Vec<(LabelId, LabelId)>,
    /// Label pairs whose **undirected** closure tables changed — the
    /// invalidation signal for graph-pattern (kGPM) state, which reads
    /// the bidirectional mirror instead of the directed closure. Empty
    /// when the backend has no materialized mirror (then no pattern
    /// plans exist either: building one forces the mirror via
    /// [`ClosureSource::undirected`]) or when the delta was masked by
    /// the opposite direction and changed nothing undirected.
    pub undirected_touched_pairs: Vec<(LabelId, LabelId)>,
    /// Repair work counters.
    pub stats: ktpm_closure::RepairStats,
}

/// A block-at-a-time cursor over `Lᵅᵥ`: the incoming closure edges of one
/// node from one source label, in ascending distance order (§4.1).
///
/// [`EdgeCursor::fill_block`] is the one read to implement: it appends
/// into a buffer the caller owns, so a caller that pulls many blocks
/// reuses one buffer. [`EdgeCursor::next_block`] is a wrapper that
/// returns each block in a fresh `Vec`.
pub trait EdgeCursor {
    /// Loads the next block of `(source, dist)` entries and appends it
    /// to `out`, which it never clears. Returns how many entries it
    /// appended; 0 means the list is exhausted.
    fn fill_block(&mut self, out: &mut Vec<(NodeId, Dist)>) -> usize;

    /// The next block in a new vector; an empty vector means the list
    /// is exhausted.
    fn next_block(&mut self) -> Vec<(NodeId, Dist)> {
        let mut out = Vec::new();
        self.fill_block(&mut out);
        out
    }

    /// Entries not yet returned.
    fn remaining(&self) -> usize;

    /// Whether all entries have been returned.
    fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

/// One run of `Lᵅᵥ`: `(α, v)`, the incoming closure edges of `v` from
/// `α`-labeled sources — what one [`ClosureSource::incoming_cursor`]
/// reads.
pub type IncomingRun = (LabelId, NodeId);

/// A thread-safe, shared handle to a closure store — what the serving
/// layer passes around (one store, many concurrent queries).
pub type SharedSource = Arc<dyn ClosureSource>;

/// Which of a label pair's stored regions a plan half is about to
/// read — the second argument of [`ClosureSource::prefetch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sections {
    /// The `D` section ([`ClosureSource::load_d`]).
    pub d: bool,
    /// The `E` section ([`ClosureSource::load_e`]).
    pub e: bool,
    /// The `L` directory, which the first cursor on the pair
    /// ([`ClosureSource::incoming_cursor`]) reads.
    pub directory: bool,
    /// The directory and every group block
    /// ([`ClosureSource::load_pair`]).
    pub blocks: bool,
}

/// The storage interface of §3.1/§4.1: label-pair tables over the
/// transitive closure. Implemented by [`crate::PagedStore`] (real block
/// I/O), [`crate::MemStore`] and the other backends the crate docs
/// list.
///
/// `Send + Sync` is a supertrait: every backend must be safely sharable
/// across threads (`Arc<dyn ClosureSource>`), which the serving layer
/// relies on. All backends use atomic I/O counters and internal locks,
/// so queries never need external synchronization.
pub trait ClosureSource: Send + Sync {
    /// Number of nodes of the underlying data graph.
    fn num_nodes(&self) -> usize;

    /// The label of a data node.
    fn node_label(&self, v: NodeId) -> LabelId;

    /// All non-empty label pairs `(src label, dst label)`.
    fn pair_keys(&self) -> Vec<(LabelId, LabelId)>;

    /// Whether the `(src label, dst label)` table is non-empty — an
    /// existence probe against the backend's own pair index.
    ///
    /// Contract: `has_pair(a, b) == pair_keys().contains(&(a, b))`, at
    /// every graph version. A query edge with two concrete labels
    /// resolves its closure table through this probe
    /// (`ktpm_core::runtime::label_pairs`), so plan building costs what the
    /// query touches, not the size of the store's pair index; only
    /// wildcard edges enumerate [`Self::pair_keys`].
    ///
    /// Default: that very scan of `pair_keys()` — correct on every
    /// backend, O(P) a call. [`crate::OnDemandStore`] (whose keys are an
    /// over-approximation it cannot index without computing) keeps it.
    /// The backends with an index override it with a lookup:
    /// [`crate::MemStore`] and [`crate::LiveStore`] probe their table
    /// map (the latter under its read lock), [`crate::PagedStore`]
    /// binary-searches its index fence, then the one index page it
    /// lands on (read and verified on first touch),
    /// [`crate::ShardedStore`] and [`crate::RemoteStore`] binary-search
    /// the manifest's fences for the one member file whose key range
    /// holds the pair and ask that file's paged index — so on a cold
    /// store a probe may open the file and read an index page, a round
    /// trip each on the remote tier. A plan half therefore announces
    /// its candidate pairs to [`Self::prefetch`] before it probes them
    /// (`ktpm-core`'s `prefetch_edge_label_pairs`), and the probes find
    /// their pages read.
    fn has_pair(&self, src_label: LabelId, dst_label: LabelId) -> bool {
        self.pair_keys().contains(&(src_label, dst_label))
    }

    /// `Dᵅᵦ`: per β-labeled destination node, the minimum incoming
    /// distance from any α-labeled node. Ascending node order.
    fn load_d(&self, src_label: LabelId, dst_label: LabelId) -> Vec<(NodeId, Dist)>;

    /// `Eᵅᵦ`: per α-labeled source node with at least one β-labeled
    /// descendant, its minimum outgoing closure edge. Ascending source.
    fn load_e(&self, src_label: LabelId, dst_label: LabelId) -> Vec<(NodeId, NodeId, Dist)>;

    /// The whole `Lᵅᵦ` table as `(src, dst, dist)` triples (used by the
    /// full-loading algorithms `Topk` and `DP-B`).
    fn load_pair(&self, src_label: LabelId, dst_label: LabelId) -> Vec<(NodeId, NodeId, Dist)>;

    /// Opens a block cursor over `Lᵅᵥ` (incoming edges of `v` from
    /// α-labeled sources, ascending distance). Cursors own their state
    /// (`Send + 'static`) so enumerators holding them can migrate
    /// between worker threads and outlive the opening stack frame.
    fn incoming_cursor(&self, src_label: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send>;

    /// Point lookup `δ_min(u, v)` (used by kGPM verification).
    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist>;

    /// Current I/O counters.
    fn io(&self) -> IoSnapshot;

    /// Zeroes the I/O counters.
    fn reset_io(&self);

    /// Monotonic version of the underlying graph, bumped once per
    /// applied delta. Immutable snapshot backends always report 0 —
    /// their graph can never change, so every plan stamped against them
    /// stays current forever.
    fn graph_version(&self) -> u64 {
        0
    }

    /// Applies a batch of graph mutations, repairing the closure tables
    /// in place and returning what changed. Default: this backend is an
    /// immutable snapshot ([`StorageError::UpdatesUnsupported`]); only
    /// live backends ([`crate::LiveStore`]) override it.
    fn apply_delta(&self, _delta: &GraphDelta) -> Result<DeltaReport, StorageError> {
        Err(StorageError::UpdatesUnsupported("snapshot"))
    }

    /// The closure of the **bidirectional** data graph (§5: "for each
    /// edge in the data graph, we make it bidirectional"), behind the
    /// same [`ClosureSource`] surface — what kGPM graph-pattern queries
    /// enumerate and verify against. Built lazily on first request and
    /// cached; on live backends it is kept consistent under
    /// [`ClosureSource::apply_delta`] (see
    /// [`DeltaReport::undirected_touched_pairs`]).
    ///
    /// Default: `None` — the backend has no data graph to mirror
    /// (e.g. a persisted closure snapshot), so graph patterns are
    /// unsupported on it.
    fn undirected(&self) -> Option<SharedSource> {
        None
    }

    /// A hint that a plan half is about to read `sections(u)` of every
    /// label pair in `pairs[u]` — the shape
    /// `ktpm_core::runtime::edge_label_pairs` returns, one entry per query
    /// node. A backend whose reads are round trips may fetch those
    /// regions now, together, so that the reads that follow are cache
    /// hits.
    ///
    /// Contract:
    /// - it is a hint: every read answers the same with or without it;
    /// - it reads exactly what `sections` names of `pairs` (and the
    ///   index it takes to find them), nothing else, skips what is
    ///   already cached, and puts no more into a byte-budgeted cache
    ///   than its budget, so nothing it fetched evicts anything else
    ///   it fetched;
    /// - it never records an error of its own: a region that fails to
    ///   arrive or fails a check is dropped, and the read that needs it
    ///   fetches it again under the usual retry and error policy.
    ///
    /// Cost: one call per plan half, before its first read; rounds of
    /// one batch each, a round trip each on the remote tier.
    ///
    /// Default: a no-op — in-memory backends have nothing to fetch.
    /// [`crate::PagedStore`] fetches in rounds, one batch each
    /// (index pages, then sections, then group blocks), and
    /// [`crate::ShardedStore`] / [`crate::RemoteStore`] split the
    /// hint by member file.
    fn prefetch(&self, _pairs: &[Vec<(LabelId, LabelId)>], _sections: &dyn Fn(usize) -> Sections) {}

    /// A hint that a loader is about to open
    /// [`Self::incoming_cursor`] on `run` — `(src label, v)`, the
    /// incoming edges of `v` from that label. When that open would cost
    /// a round trip, a backend may call `more` once; `more` appends to
    /// the list the runs the loader expects to open next, `run` itself
    /// already first. The backend then fetches the first block of every
    /// run on the list together, so that each of those opens is a cache
    /// hit. A run that `more` lists is not offered again.
    ///
    /// Contract: that of [`Self::prefetch`] — a hint that changes no
    /// answer, reads only the listed runs' first blocks, skips what is
    /// cached, stays within the cache budget and records no error. It
    /// reads no index page and no directory: a run whose pair directory
    /// is not resident is skipped.
    ///
    /// Cost: a call that reads nothing costs a cache probe and never
    /// calls `more`, whose scan of the loader's queue is
    /// O(|Q_g| log B) for B read-ahead runs. So only a backend whose
    /// reads are round trips calls it. Default: a no-op — in-memory
    /// backends have nothing to fetch, and a local file has no round
    /// trip to save. [`crate::PagedStore`] over the remote source reads
    /// the list in one batch, and [`crate::RemoteStore`] splits it by
    /// member file, one batch per file.
    fn prefetch_incoming(&self, _run: IncomingRun, _more: &mut dyn FnMut(&mut Vec<IncomingRun>)) {}

    /// Takes (and clears) the first storage error this source silently
    /// degraded over since the last call. The read API is infallible by
    /// design — a corrupt block becomes an empty group, an exhausted
    /// cursor — which is the right call for local bit-rot but would let
    /// a dead remote serve *silently truncated* match streams. Backends
    /// that can fail mid-read ([`crate::PagedStore`] and everything
    /// built on it) record the first swallowed error here; the serving
    /// layer checks after each batch and turns a set slot into a
    /// protocol error instead of shipping the partial batch. Default:
    /// `None` (in-memory backends cannot fail mid-read).
    fn take_error(&self) -> Option<StorageError> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_are_thread_safe() {
        // Compile-time: every backend (and shared handles to them) can
        // cross threads. A failure here is a regression in the serving
        // layer's foundation.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::MemStore>();
        assert_send_sync::<crate::LiveStore>();
        assert_send_sync::<crate::OnDemandStore>();
        assert_send_sync::<crate::PagedStore>();
        assert_send_sync::<crate::ShardedStore>();
        assert_send_sync::<crate::RemoteStore>();
        assert_send_sync::<SharedSource>();
    }
}
