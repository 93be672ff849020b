//! [`RemoteStore`]: the manifest-routed store ([`RoutedStore`]) whose
//! shard files live behind a `ktpm blockd` block server, fetched over
//! TCP on demand. This module adds only what the remote tier has that the
//! local one does not: the wire protocol, the connection pool, the
//! network [`BlockSource`], and `connect` / `addr` / `server_stats`.
//!
//! The store connects and pulls the snapshot's v6 `MANIFEST`: the node
//! labels and one key range per shard file, O(labels + files) bytes
//! whatever the pair count, so labels are answered locally. Pair
//! membership and `pair_keys` come from each member file's own paged
//! index, read like any other region of the file. The store then reads
//! shard-file bytes through [`RemoteBlockSource`]s — one per shard file, all
//! feeding the same byte-budgeted [`BlockCache`], so a warm cache
//! answers repeat queries with **zero** remote reads. Every fetched
//! payload is CRC-checked client-side twice over: the response carries
//! a CRC-32 of each range, and each range is a sealed region of the
//! store file — a group block, an index page or a counted section —
//! with its own trailing CRC (re-verified by [`PagedStore`]'s reader,
//! which re-fetches once from a remote source before giving up).
//!
//! A round trip costs far more than the bytes it carries, so reads
//! that are known together travel together: one `FETCH` carries up to
//! [`MAX_FETCH_RANGES`](blockproto::MAX_FETCH_RANGES) ranges. A member
//! file's open is two such batches, and a plan half's
//! [`crate::ClosureSource::prefetch`] is one batch per round (index
//! pages, sections, group blocks) per member file it touches. A
//! `Topk-EN` session then opens its cursors one at a time; an open
//! whose first block is not cached offers the store the runs the
//! loader expects to open next
//! ([`crate::ClosureSource::prefetch_incoming`]), and their first
//! blocks travel with its own, one `FETCH` per member file. A demand
//! miss after that — a cursor's later block, a run that entered the
//! loader's queue after the last read-ahead — is a single-range
//! `FETCH`.
//!
//! Each pooled connection gets its read and write timeouts
//! ([`RemoteOptions::request_timeout`]) once, when it connects, and
//! carries one request at a time. Failure policy: transport errors
//! (connect, timeout, short frame) are retried with capped exponential
//! backoff up to [`RemoteOptions::attempts`]; server-reported errors
//! are not (they're deterministic). Exhausted retries surface
//! [`StorageError::Remote`] — recorded in the store's error slot and
//! counted in `remote_errors` — instead of hanging or panicking, and
//! the infallible [`crate::ClosureSource`] reads degrade to empty
//! results.

use crate::cache::BlockCache;
use crate::format::crc32;
use crate::iostats::IoStats;
use crate::manifest::Manifest;
use crate::paged::{BlockSource, ErrorSlot, PagedStore, DEFAULT_BLOCK_CACHE_BYTES};
use crate::sharded::{Opener, RoutedStore};
use crate::source::{SharedSource, StorageError};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The length-prefixed binary protocol between [`RemoteStore`] and
/// `ktpm blockd`.
///
/// Every message (both directions) is one **frame**: a `u32` LE byte
/// length followed by that many payload bytes, capped at
/// [`MAX_FRAME_BYTES`](blockproto::MAX_FRAME_BYTES). Request payloads start with an opcode byte:
///
/// * [`OP_FETCH`](blockproto::OP_FETCH) — n ≥ 1 **range records** of
///   `u32 file_id`, `u64 offset`, `u32 len`
///   ([`FETCH_RANGE_BYTES`](blockproto::FETCH_RANGE_BYTES) each): read
///   n byte ranges of the snapshot's shard files (file ids index the
///   manifest's shard list) in one round trip. At most
///   [`MAX_FETCH_RANGES`](blockproto::MAX_FETCH_RANGES) records, so a
///   request is at most [`MAX_REQUEST_BYTES`](blockproto::MAX_REQUEST_BYTES)
///   long; the single-range request is 17 bytes;
/// * [`OP_MANIFEST`](blockproto::OP_MANIFEST) — no operands: the snapshot's encoded v6
///   `MANIFEST` (synthesized for single-file stores);
/// * [`OP_STATS`](blockproto::OP_STATS) — no operands: server counters as `key=value` text,
///   one per line.
///
/// Response payloads start with a status byte — [`STATUS_OK`](blockproto::STATUS_OK) or
/// [`STATUS_ERR`](blockproto::STATUS_ERR) (body = UTF-8 error text). A `FETCH` OK body is
/// one `u32 crc32(data)` followed by the data per range, in request
/// order, so clients detect on-wire corruption of each range without
/// trusting the transport; the lengths are the request's. A `FETCH`
/// one of whose ranges is past its file's end, or whose response would
/// exceed the frame cap, is answered `STATUS_ERR` as a whole. The
/// single-range request and its response are the n = 1 case, byte for
/// byte.
pub mod blockproto {
    use std::io::{self, Read, Write};

    /// The CRC-32 (IEEE) that seals each range of a `FETCH` OK body —
    /// the store format's own, so server and client share one
    /// implementation. The streaming form (`CRC_INIT`, `crc32_update`,
    /// `crc32_finish`) lets a server seal a range it never holds whole.
    pub use crate::format::{crc32, crc32_finish, crc32_update, CRC_INIT};

    /// Opcode: read byte ranges of the shard files.
    pub const OP_FETCH: u8 = 1;
    /// Opcode: fetch the snapshot's encoded v6 `MANIFEST`.
    pub const OP_MANIFEST: u8 = 2;
    /// Opcode: fetch server counters as `key=value` text.
    pub const OP_STATS: u8 = 3;
    /// Response status: success; body follows.
    pub const STATUS_OK: u8 = 0;
    /// Response status: failure; body is UTF-8 error text.
    pub const STATUS_ERR: u8 = 1;
    /// Upper bound on any frame's payload — a desynced or hostile peer
    /// cannot make us allocate unboundedly. `ktpm blockd` holds
    /// requests to the tighter [`MAX_REQUEST_BYTES`], the longest
    /// request there is.
    pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;
    /// Byte length of one `FETCH` range record.
    pub const FETCH_RANGE_BYTES: usize = 16;
    /// Most range records one `FETCH` may carry; a client splits a
    /// longer batch into several requests.
    pub const MAX_FETCH_RANGES: usize = 256;
    /// Byte length of an encoded single-range `FETCH` request payload.
    pub const FETCH_REQUEST_BYTES: usize = 1 + FETCH_RANGE_BYTES;
    /// Byte length of the longest request payload: a `FETCH` of
    /// [`MAX_FETCH_RANGES`] ranges.
    pub const MAX_REQUEST_BYTES: usize = 1 + FETCH_RANGE_BYTES * MAX_FETCH_RANGES;

    /// Writes one length-prefixed frame. A request-sized payload goes
    /// out with its length prefix in one `write` from a stack buffer:
    /// one syscall and one TCP segment, no allocation.
    pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
        let len = (payload.len() as u32).to_le_bytes();
        if payload.len() <= MAX_REQUEST_BYTES {
            let mut buf = [0u8; 4 + MAX_REQUEST_BYTES];
            buf[..4].copy_from_slice(&len);
            buf[4..4 + payload.len()].copy_from_slice(payload);
            w.write_all(&buf[..4 + payload.len()])?;
        } else {
            w.write_all(&len)?;
            w.write_all(payload)?;
        }
        w.flush()
    }

    /// Reads one length-prefixed frame, rejecting oversized lengths.
    pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
            ));
        }
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Encodes a single-range `FETCH` request payload.
    pub fn encode_fetch(file_id: u32, offset: u64, len: u32) -> Vec<u8> {
        encode_fetch_ranges([(file_id, offset, len)])
    }

    /// Encodes a `FETCH` request payload of `(file_id, offset, len)`
    /// range records, in the order given. The caller keeps to
    /// [`MAX_FETCH_RANGES`]; a longer request is dropped by the server.
    pub fn encode_fetch_ranges(
        ranges: impl IntoIterator<Item = (u32, u64, u32), IntoIter: ExactSizeIterator>,
    ) -> Vec<u8> {
        let ranges = ranges.into_iter();
        let mut b = Vec::with_capacity(1 + FETCH_RANGE_BYTES * ranges.len());
        b.push(OP_FETCH);
        for (file_id, offset, len) in ranges {
            b.extend_from_slice(&file_id.to_le_bytes());
            b.extend_from_slice(&offset.to_le_bytes());
            b.extend_from_slice(&len.to_le_bytes());
        }
        b
    }

    /// Decodes a `FETCH` request payload (opcode byte included) into
    /// its `(file_id, offset, len)` range records; `None` if malformed
    /// — no record, a partial record, or more than
    /// [`MAX_FETCH_RANGES`].
    pub fn decode_fetch_ranges(
        payload: &[u8],
    ) -> Option<impl ExactSizeIterator<Item = (u32, u64, u32)> + Clone + '_> {
        let (&op, records) = payload.split_first()?;
        let n = records.len() / FETCH_RANGE_BYTES;
        if op != OP_FETCH
            || records.len() % FETCH_RANGE_BYTES != 0
            || !(1..=MAX_FETCH_RANGES).contains(&n)
        {
            return None;
        }
        Some(records.chunks_exact(FETCH_RANGE_BYTES).map(|r| {
            let u32_at = |o: usize| u32::from_le_bytes(r[o..o + 4].try_into().expect("4 bytes"));
            let offset = u64::from_le_bytes(r[4..12].try_into().expect("8 bytes"));
            (u32_at(0), offset, u32_at(12))
        }))
    }
}

/// Tunables of the remote tier. The defaults favor failing fast and
/// loudly over hanging: a dead server costs at most
/// `attempts × request_timeout` plus backoff before the read degrades
/// with a recorded [`StorageError::Remote`].
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// TCP connect timeout per address (default 2 s).
    pub connect_timeout: Duration,
    /// Read and write timeout of each pooled connection, set once when
    /// it connects: every blocking read or write of a request gives up
    /// after this long (default 2 s).
    pub request_timeout: Duration,
    /// Total request attempts, first try included (default 3).
    pub attempts: u32,
    /// First retry backoff; doubles per retry (default 10 ms).
    pub backoff_base: Duration,
    /// Backoff ceiling (default 250 ms).
    pub backoff_cap: Duration,
    /// Idle connections kept for reuse (default 4).
    pub pool_size: usize,
    /// Shared block-cache budget in bytes, `0` = unlimited (default
    /// [`DEFAULT_BLOCK_CACHE_BYTES`](crate::DEFAULT_BLOCK_CACHE_BYTES)).
    pub cache_bytes: u64,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(2),
            attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(250),
            pool_size: 4,
            cache_bytes: DEFAULT_BLOCK_CACHE_BYTES,
        }
    }
}

/// A bounded pool of blockd connections. Requests check a connection
/// out (reusing an idle one when available), run one frame round trip
/// under the request timeout, and check it back in on success; failed
/// connections are dropped, not reused.
struct ConnPool {
    addr: String,
    idle: Mutex<Vec<TcpStream>>,
    opts: RemoteOptions,
    io: IoStats,
}

impl ConnPool {
    fn connect(&self) -> io::Result<TcpStream> {
        let mut last = None;
        for sa in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, self.opts.connect_timeout) {
                Ok(s) => {
                    s.set_nodelay(true).ok();
                    s.set_read_timeout(Some(self.opts.request_timeout))?;
                    s.set_write_timeout(Some(self.opts.request_timeout))?;
                    return Ok(s);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )
        }))
    }

    fn checkout(&self) -> io::Result<TcpStream> {
        if let Some(s) = self.idle.lock().expect("conn pool lock").pop() {
            return Ok(s);
        }
        self.connect()
    }

    fn checkin(&self, s: TcpStream) {
        let mut idle = self.idle.lock().expect("conn pool lock");
        if idle.len() < self.opts.pool_size {
            idle.push(s);
        }
    }

    fn round_trip(&self, req: &[u8]) -> io::Result<(TcpStream, Vec<u8>)> {
        let mut s = self.checkout()?;
        blockproto::write_frame(&mut s, req)?;
        let resp = blockproto::read_frame(&mut s)?;
        Ok((s, resp))
    }

    /// One request with capped exponential-backoff retries on
    /// transport failures. Returns the OK body (the response frame with
    /// its status byte stripped in place); a server-reported
    /// error or exhausted retries is [`StorageError::Remote`] (counted
    /// in `remote_errors`; each re-attempt counts a `remote_retry`).
    fn request(&self, req: &[u8]) -> Result<Vec<u8>, StorageError> {
        let attempts = self.opts.attempts.max(1);
        let mut backoff = self.opts.backoff_base;
        let mut last = String::from("request failed");
        for attempt in 0..attempts {
            if attempt > 0 {
                self.io.add_remote_retry();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(self.opts.backoff_cap);
            }
            match self.round_trip(req) {
                Ok((s, mut resp)) => match resp.first() {
                    Some(&blockproto::STATUS_OK) => {
                        self.checkin(s);
                        resp.drain(..1);
                        return Ok(resp);
                    }
                    Some(&blockproto::STATUS_ERR) => {
                        // Deterministic server-side failure: reusing the
                        // connection is fine, burning retries is not.
                        self.checkin(s);
                        self.io.add_remote_error();
                        return Err(StorageError::Remote {
                            addr: self.addr.clone(),
                            detail: format!(
                                "server error: {}",
                                String::from_utf8_lossy(&resp[1..])
                            ),
                        });
                    }
                    // Unknown status byte or empty frame: drop the
                    // (possibly desynced) connection and retry.
                    _ => last = "malformed response frame".into(),
                },
                Err(e) => last = e.to_string(),
            }
        }
        self.io.add_remote_error();
        Err(StorageError::Remote {
            addr: self.addr.clone(),
            detail: format!("{last} (after {attempts} attempt(s))"),
        })
    }
}

/// One shard file's bytes, fetched over the pool. Frame-level CRC
/// mismatches on a single read get one immediate re-request. A batch
/// ([`BlockSource::read_many`]) is one `FETCH` of many ranges per round
/// trip; a range whose frame CRC fails is left out of it. `is_remote`
/// lets the paged reader read once more — on demand and in a prefetch
/// alike — every range a batch left out or whose sealed region's own
/// CRC fails (an on-wire flip the frame CRC missed, or a stale cache
/// of a rewritten file), and read cursor blocks ahead of the loader.
struct RemoteBlockSource {
    pool: Arc<ConnPool>,
    file_id: u32,
    len: u64,
    io: IoStats,
}

impl RemoteBlockSource {
    /// One `FETCH` of every range in `ranges` (at least two, within the
    /// protocol's caps): one round trip, counted as one remote fetch.
    /// Hands `got` each range whose frame CRC holds, numbered from
    /// `base`.
    fn fetch_batch(
        &self,
        ranges: &[(u64, usize)],
        base: usize,
        got: &mut dyn FnMut(usize, Vec<u8>),
    ) -> Result<(), StorageError> {
        let req = blockproto::encode_fetch_ranges(
            ranges
                .iter()
                .map(|&(off, bytes)| (self.file_id, off, bytes as u32)),
        );
        let mut body = self.pool.request(&req)?;
        let data: usize = ranges.iter().map(|&(_, bytes)| bytes).sum();
        if body.len() != data + 4 * ranges.len() {
            self.io.add_remote_error();
            return Err(StorageError::Remote {
                addr: self.pool.addr.clone(),
                detail: format!(
                    "fetch of {} range(s) from file {}: a {}-byte response, not {}",
                    ranges.len(),
                    self.file_id,
                    body.len(),
                    data + 4 * ranges.len()
                ),
            });
        }
        self.io.add_remote_fetch(data as u64);
        // Every range but the first is copied out of the frame; the
        // first keeps the frame's own buffer, stripped in place.
        let mut pos = 4 + ranges[0].1;
        for (i, &(_, bytes)) in ranges.iter().enumerate().skip(1) {
            let range = &body[pos..pos + 4 + bytes];
            if crc_sealed(range) {
                got(base + i, range[4..].to_vec());
            }
            pos += 4 + bytes;
        }
        body.truncate(4 + ranges[0].1);
        if crc_sealed(&body) {
            body.drain(..4);
            got(base, body);
        }
        Ok(())
    }
}

/// Whether a `(u32 crc, data)` response range holds its frame CRC.
fn crc_sealed(range: &[u8]) -> bool {
    let (crc, data) = range.split_at(4);
    crc32(data) == u32::from_le_bytes(crc.try_into().expect("4 bytes"))
}

impl BlockSource for RemoteBlockSource {
    fn read_at(&self, off: u64, bytes: usize) -> Result<Vec<u8>, StorageError> {
        let req = blockproto::encode_fetch(self.file_id, off, bytes as u32);
        for attempt in 0..2 {
            let mut body = self.pool.request(&req)?;
            if body.len() == bytes + 4 && crc_sealed(&body) {
                self.io.add_remote_fetch(bytes as u64);
                // Strip the frame checksum in place: the payload is
                // the buffer the frame was read into, not a copy.
                body.drain(..4);
                return Ok(body);
            }
            if attempt == 0 {
                self.io.add_remote_retry();
            }
        }
        self.io.add_remote_error();
        Err(StorageError::Remote {
            addr: self.pool.addr.clone(),
            detail: format!(
                "fetch {}@{off}+{bytes}: response failed the frame checksum twice",
                self.file_id
            ),
        })
    }

    /// One `FETCH` per [`MAX_FETCH_RANGES`](blockproto::MAX_FETCH_RANGES)
    /// ranges or [`MAX_FRAME_BYTES`](blockproto::MAX_FRAME_BYTES) of
    /// response, whichever comes first; a lone range is [`Self::read_at`].
    /// A failed request ends the batch.
    fn read_many(
        &self,
        ranges: &[(u64, usize)],
        got: &mut dyn FnMut(usize, Vec<u8>),
    ) -> Result<(), StorageError> {
        let mut first = 0;
        while first < ranges.len() {
            let mut end = first + 1;
            let mut frame = 1 + 4 + ranges[first].1;
            while end < ranges.len()
                && end - first < blockproto::MAX_FETCH_RANGES
                && frame + 4 + ranges[end].1 <= blockproto::MAX_FRAME_BYTES
            {
                frame += 4 + ranges[end].1;
                end += 1;
            }
            match &ranges[first..end] {
                &[(off, bytes)] => got(first, self.read_at(off, bytes)?),
                batch => self.fetch_batch(batch, first, got)?,
            }
            first = end;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn is_remote(&self) -> bool {
        true
    }
}

/// Where a [`RemoteStore`]'s shard files live: behind the `ktpm
/// blockd` server this connection pool talks to.
pub struct BlockdLink(Arc<ConnPool>);

/// A sharded (or single-file) snapshot served by `ktpm blockd`,
/// opened from a `tcp://host:port` address — the remote tier of
/// [`RoutedStore`]; see the module docs. Everything downstream of
/// [`crate::ClosureSource`] — engines, serving tier, CLI — runs
/// unchanged over it.
pub type RemoteStore = RoutedStore<BlockdLink>;

impl RemoteStore {
    /// Connects with default [`RemoteOptions`]. `addr` is
    /// `host:port`, with or without the `tcp://` scheme prefix. The
    /// only eager request is the `MANIFEST` pull.
    pub fn connect(addr: &str) -> Result<Self, StorageError> {
        Self::connect_with(addr, RemoteOptions::default())
    }

    /// Connects with explicit options.
    pub fn connect_with(addr: &str, opts: RemoteOptions) -> Result<Self, StorageError> {
        let addr = addr.strip_prefix("tcp://").unwrap_or(addr).to_owned();
        let io = IoStats::new();
        let cache = Arc::new(Mutex::new(BlockCache::new(opts.cache_bytes)));
        let pool = Arc::new(ConnPool {
            addr,
            idle: Mutex::new(Vec::new()),
            opts,
            io: io.clone(),
        });
        let manifest_bytes = pool.request(&[blockproto::OP_MANIFEST])?;
        io.add_remote_fetch(manifest_bytes.len() as u64);
        let manifest = Manifest::decode(&manifest_bytes)?;
        let errors = ErrorSlot::default();
        let opener: Opener = {
            let pool = Arc::clone(&pool);
            let io = io.clone();
            let errors = errors.clone();
            Box::new(move |shard, meta| {
                PagedStore::from_source(
                    Box::new(RemoteBlockSource {
                        pool: Arc::clone(&pool),
                        file_id: shard,
                        len: meta.file_len,
                        io: io.clone(),
                    }),
                    Arc::clone(&cache),
                    io.clone(),
                    shard,
                    errors.clone(),
                )
            })
        };
        Ok(RoutedStore::new(
            manifest,
            opener,
            io,
            errors,
            BlockdLink(pool),
        ))
    }

    /// The server address (no scheme prefix).
    pub fn addr(&self) -> &str {
        &self.origin.0.addr
    }

    /// The server's own counters (`key=value` text, one per line) —
    /// the `STATS` op, for diagnostics and tests.
    pub fn server_stats(&self) -> Result<String, StorageError> {
        let body = self.origin.0.request(&[blockproto::OP_STATS])?;
        String::from_utf8(body)
            .map_err(|_| StorageError::BadFormat("STATS response is not UTF-8".into()))
    }
}

/// [`crate::open_store_auto`] plus the remote scheme: a
/// `tcp://host:port` URI connects a [`RemoteStore`] (with
/// `block_cache_bytes` as its cache budget when given); anything else
/// is a local path dispatched on its format. This is what `--store`
/// arguments should flow through.
pub fn open_store_uri(
    uri: &str,
    block_cache_bytes: Option<u64>,
) -> Result<SharedSource, StorageError> {
    if uri.starts_with("tcp://") {
        let mut opts = RemoteOptions::default();
        if let Some(b) = block_cache_bytes {
            opts.cache_bytes = b;
        }
        return Ok(RemoteStore::connect_with(uri, opts)?.into_shared());
    }
    crate::open_store_auto(Path::new(uri), block_cache_bytes)
}
