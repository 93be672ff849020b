//! `ktpm blockd` — the block server behind [`ktpm_storage::RemoteStore`].
//!
//! [`BlockServer`] serves the raw bytes of a snapshot's shard files
//! over the length-prefixed binary protocol in
//! [`ktpm_storage::blockproto`]: `FETCH (file-id offset len)…`,
//! `MANIFEST`, and `STATS`. It is deliberately dumb — no closure
//! parsing, no query engine, just ranged reads with a CRC-32 over each
//! served payload — so one server scales to any number of query-side
//! [`ktpm_storage::RemoteStore`]s, each doing its own caching and
//! verification.
//!
//! The transport is a blocking accept loop and one thread per
//! connection, each running `read request → answer → write response`
//! until EOF. That fits the traffic: a `RemoteStore`'s connection pool
//! keeps one request in flight per connection and at most
//! `pool_size` idle ones, so a thread per connection is a thread per
//! in-flight request, and a request is answered the moment its bytes
//! arrive. A request is at most [`blockproto::MAX_REQUEST_BYTES`] long
//! (a `FETCH` of [`blockproto::MAX_FETCH_RANGES`] ranges) and is read
//! into a stack buffer of that size; a peer announcing a longer one is
//! dropped instead of buffered. A `FETCH` checks every range before it
//! answers, then seals each range with its own CRC and streams the
//! ranges from their files through one fixed stack buffer, so a
//! connection holds no heap in proportion to what it serves, however
//! large the batch or the range. Shard files are opened lazily, per
//! connection, on the first `FETCH` that names them and held open
//! after that. `STATS` reports `fetches` (requests, one per round trip
//! however many ranges it carries), `fetch_ranges` and `fetch_bytes`.
//!
//! For fault-injection tests, [`BlockServer::inject_bit_flips`] makes
//! the next *n* ranges served carry a single flipped payload bit (with
//! the range's CRC computed over the flipped bytes, so only the
//! client's block verification can catch it).

use ktpm_storage::{blockproto, load_snapshot_manifest, Manifest, StorageError};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server-side counters, reported by the `STATS` op.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    fetches: AtomicU64,
    fetch_ranges: AtomicU64,
    fetch_bytes: AtomicU64,
    manifests: AtomicU64,
    stats: AtomicU64,
    errors: AtomicU64,
}

/// The live connections, so shutdown can close them. Each connection
/// thread removes its own entry on exit.
#[derive(Default)]
struct Registry {
    /// Set once by shutdown; the accept loop admits nothing after it.
    stop: bool,
    next_id: u64,
    open: HashMap<u64, Arc<TcpStream>>,
}

/// What the accept loop and every connection thread share.
struct Served {
    manifest: Manifest,
    manifest_bytes: Vec<u8>,
    dir: PathBuf,
    counters: Counters,
    /// Pending injected bit flips (see [`BlockServer::inject_bit_flips`]).
    flip: AtomicU32,
    conns: Mutex<Registry>,
}

impl Served {
    /// Nothing panics while holding the registry lock, so a poisoned
    /// lock still guards a consistent map.
    fn conns(&self) -> MutexGuard<'_, Registry> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats_text(&self) -> String {
        let c = &self.counters;
        format!(
            "connections={}\nfetches={}\nfetch_ranges={}\nfetch_bytes={}\nmanifests={}\nstats={}\nerrors={}\nopen_connections={}\n",
            c.connections.load(Ordering::Relaxed),
            c.fetches.load(Ordering::Relaxed),
            c.fetch_ranges.load(Ordering::Relaxed),
            c.fetch_bytes.load(Ordering::Relaxed),
            c.manifests.load(Ordering::Relaxed),
            c.stats.load(Ordering::Relaxed),
            c.errors.load(Ordering::Relaxed),
            self.conns().open.len(),
        )
    }
}

/// A running block server; see the module docs. Dropping it (or
/// calling [`BlockServer::shutdown`]) closes the listener and every
/// connection — clients observe EOF, which
/// [`ktpm_storage::RemoteStore`] surfaces as a clean
/// [`StorageError::Remote`] after its retries, never a hang.
pub struct BlockServer {
    addr: SocketAddr,
    served: Arc<Served>,
    accept: Option<JoinHandle<()>>,
}

impl BlockServer {
    /// Loads the snapshot at `store_path` (a sharded snapshot
    /// directory, its `MANIFEST` path, or a plain single v5 file — the
    /// latter gets a synthesized one-file manifest), binds `addr`
    /// (port 0 for ephemeral), and serves it until shutdown.
    pub fn spawn(
        store_path: &std::path::Path,
        addr: impl ToSocketAddrs,
    ) -> Result<BlockServer, StorageError> {
        let (manifest, dir) = load_snapshot_manifest(store_path)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let served = Arc::new(Served {
            manifest_bytes: manifest.encode(),
            manifest,
            dir,
            counters: Counters::default(),
            flip: AtomicU32::new(0),
            conns: Mutex::default(),
        });
        let accept = {
            let served = Arc::clone(&served);
            std::thread::Builder::new()
                .name("ktpm-blockd".into())
                .spawn(move || accept_loop(&listener, &served))?
        };
        Ok(BlockServer {
            addr,
            served,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fault injection for tests: corrupt one payload bit in each of
    /// the next `n` ranges served, in request order.
    pub fn inject_bit_flips(&self, n: u32) {
        self.served.flip.fetch_add(n, Ordering::Relaxed);
    }

    /// Closes the listener and every connection, and joins the accept
    /// thread. Connection threads are not joined: with its socket shut
    /// down, each one exits at its next read or write.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        {
            let mut conns = self.served.conns();
            conns.stop = true;
            // Unblocks every connection thread's read; its client sees EOF.
            for stream in conns.open.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // Wake the blocking accept so the loop sees `stop` and drops the
        // listener.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = accept.join();
    }
}

impl Drop for BlockServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, served: &Arc<Served>) {
    loop {
        let accepted = listener.accept();
        let mut conns = served.conns();
        if conns.stop {
            return;
        }
        let Ok((stream, _)) = accepted else {
            drop(conns);
            served.counters.errors.fetch_add(1, Ordering::Relaxed);
            // Persistent accept errors (fd exhaustion) would otherwise
            // busy-spin; back off and let connections close.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        let _ = stream.set_nodelay(true);
        served.counters.connections.fetch_add(1, Ordering::Relaxed);
        let stream = Arc::new(stream);
        let id = conns.next_id;
        conns.next_id += 1;
        // Registered before the thread starts, so its removal on exit
        // always finds the entry; that removal drops the last handle
        // and closes the socket.
        conns.open.insert(id, Arc::clone(&stream));
        drop(conns);
        let spawned = {
            let served = Arc::clone(served);
            std::thread::Builder::new()
                .name("ktpm-blockd-conn".into())
                .spawn(move || {
                    serve_connection(&stream, &served);
                    served.conns().open.remove(&id);
                })
        };
        if spawned.is_err() {
            served.conns().open.remove(&id);
            served.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Answers one connection's requests in order until EOF, an I/O error,
/// or a request longer than any valid one (a desynced or hostile peer).
fn serve_connection(mut stream: &TcpStream, served: &Served) {
    let mut files: Vec<Option<File>> = (0..served.manifest.shards.len()).map(|_| None).collect();
    let mut req = [0u8; blockproto::MAX_REQUEST_BYTES];
    loop {
        let mut len = [0u8; 4];
        if stream.read_exact(&mut len).is_err() {
            return;
        }
        let len = u32::from_le_bytes(len) as usize;
        if len > req.len() {
            served.counters.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if stream.read_exact(&mut req[..len]).is_err()
            || answer(&mut stream, &req[..len], served, &mut files).is_err()
        {
            return;
        }
    }
}

/// A response frame `[u32 len | status | body]`.
fn frame(status: u8, body: &[u8]) -> Vec<u8> {
    let len = (1 + body.len() as u32).to_le_bytes();
    [&len[..], &[status], body].concat()
}

fn err_response(served: &Served, detail: &str) -> Vec<u8> {
    served.counters.errors.fetch_add(1, Ordering::Relaxed);
    frame(blockproto::STATUS_ERR, detail.as_bytes())
}

/// Answers one request payload on `out`.
fn answer(
    out: &mut impl Write,
    payload: &[u8],
    served: &Served,
    files: &mut [Option<File>],
) -> io::Result<()> {
    let resp = match payload.first() {
        Some(&blockproto::OP_FETCH) => match fetch(out, payload, served, files) {
            Ok(sent) => return sent,
            Err(detail) => err_response(served, &detail),
        },
        Some(&blockproto::OP_MANIFEST) if payload.len() == 1 => {
            served.counters.manifests.fetch_add(1, Ordering::Relaxed);
            frame(blockproto::STATUS_OK, &served.manifest_bytes)
        }
        Some(&blockproto::OP_STATS) if payload.len() == 1 => {
            served.counters.stats.fetch_add(1, Ordering::Relaxed);
            frame(blockproto::STATUS_OK, served.stats_text().as_bytes())
        }
        Some(op) => err_response(served, &format!("unknown op {op}")),
        None => err_response(served, "empty request"),
    };
    out.write_all(&resp)
}

/// Payload bytes a `FETCH` reads from its file at a time.
const CHUNK_BYTES: usize = 64 * 1024;

/// Answers a `FETCH` of n ranges with `[len | STATUS_OK | (crc | data)
/// × n]`, or returns the error text to answer with. Every range is
/// checked against its file before a byte goes out, so a bad range
/// costs the request, not the connection. The response is built in one
/// stack buffer and written whenever the next range does not fit, so a
/// batch of small ranges is one write. Each range is sealed with its
/// own CRC, which precedes its data: a range longer than the buffer is
/// read twice, to seal the CRC, then to send. A read error after part
/// of the response went out drops the connection.
fn fetch(
    out: &mut impl Write,
    payload: &[u8],
    served: &Served,
    files: &mut [Option<File>],
) -> Result<io::Result<()>, String> {
    let ranges = blockproto::decode_fetch_ranges(payload).ok_or("malformed FETCH request")?;
    let n = ranges.len() as u64;
    let mut frame = 1usize;
    let mut bytes = 0u64;
    for (id, offset, len) in ranges.clone() {
        let meta = served.manifest.shards.get(id as usize);
        let meta = meta.ok_or_else(|| format!("no shard file with id {id}"))?;
        let name = meta.name.as_str();
        if offset.saturating_add(u64::from(len)) > meta.file_len {
            return Err(format!("range {offset}+{len} is past the end of {name}"));
        }
        frame = frame
            .checked_add(4 + len as usize)
            .filter(|&f| f <= blockproto::MAX_FRAME_BYTES)
            .ok_or("FETCH response exceeds the frame cap")?;
        bytes += u64::from(len);
        let slot = &mut files[id as usize];
        if slot.is_none() {
            *slot =
                Some(File::open(served.dir.join(name)).map_err(|e| format!("open {name}: {e}"))?);
        }
    }
    let c = &served.counters;
    c.fetches.fetch_add(1, Ordering::Relaxed);
    c.fetch_ranges.fetch_add(n, Ordering::Relaxed);
    c.fetch_bytes.fetch_add(bytes, Ordering::Relaxed);
    let mut buf = [0u8; 9 + CHUNK_BYTES];
    buf[..4].copy_from_slice(&(frame as u32).to_le_bytes());
    buf[4] = blockproto::STATUS_OK;
    let mut fill = 5;
    let mut sent = false;
    for (id, offset, len) in ranges {
        let (file, len) = (
            files[id as usize].as_mut().expect("opened above"),
            len as usize,
        );
        // Injected fault: flip one payload bit *before* sealing the
        // range's CRC, so only client-side block verification can
        // catch it.
        let flip = &served.flip;
        let flip = flip.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        let flip_at = flip.is_ok().then_some(len / 2);
        if fill + 4 + len > buf.len() && fill > 0 {
            if let Err(e) = out.write_all(&buf[..fill]) {
                return Ok(Err(e));
            }
            (fill, sent) = (0, true);
        }
        let at = fill + 4;
        let mut crc = blockproto::CRC_INIT;
        let mut seal = |chunk: &[u8], _| {
            crc = blockproto::crc32_update(crc, &chunk[at..]);
            Ok(())
        };
        let read = read_range(file, offset, len, flip_at, &mut buf, at, &mut seal);
        match read {
            Err(e) if sent => return Ok(Err(e)),
            Err(e) => {
                let name = &served.manifest.shards[id as usize].name;
                return Err(format!("read {name}@{offset}+{len}: {e}"));
            }
            Ok(()) => {}
        }
        buf[fill..at].copy_from_slice(&blockproto::crc32_finish(crc).to_le_bytes());
        if at + len <= buf.len() {
            // The seal pass left the whole range in the buffer.
            fill = at + len;
            continue;
        }
        // A range longer than the buffer (which was flushed for it)
        // goes out chunk by chunk, its CRC with the first.
        let mut send =
            |chunk: &[u8], pos| out.write_all(if pos == 0 { chunk } else { &chunk[at..] });
        let read = read_range(file, offset, len, flip_at, &mut buf, at, &mut send);
        (fill, sent) = (0, true);
        if let Err(e) = read {
            return Ok(Err(e));
        }
    }
    Ok(out.write_all(&buf[..fill]))
}

/// Reads `len` bytes at `offset` of `file` into `buf[at..]`, at most
/// `buf.len() - at` at a time, flipping payload byte `flip_at`, and
/// hands `each` the buffer up to each chunk's end and the chunk's
/// position in the range.
fn read_range(
    file: &mut File,
    offset: u64,
    len: usize,
    flip_at: Option<usize>,
    buf: &mut [u8],
    at: usize,
    each: &mut dyn FnMut(&[u8], usize) -> io::Result<()>,
) -> io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    let mut pos = 0;
    while pos < len {
        let n = (buf.len() - at).min(len - pos);
        file.read_exact(&mut buf[at..at + n])?;
        if let Some(i) = flip_at.filter(|i| (pos..pos + n).contains(i)) {
            buf[at + i - pos] ^= 0x01;
        }
        each(&buf[..at + n], pos)?;
        pos += n;
    }
    Ok(())
}
