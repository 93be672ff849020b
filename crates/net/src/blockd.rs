//! `ktpm blockd` — the block server behind [`ktpm_storage::RemoteStore`].
//!
//! [`BlockServer`] serves the raw bytes of a snapshot's shard files
//! over the length-prefixed binary protocol in
//! [`ktpm_storage::blockproto`]: `FETCH file-id offset len`,
//! `MANIFEST`, and `STATS`. It is deliberately dumb — no closure
//! parsing, no query engine, just ranged reads with a CRC-32 over each
//! served payload — so one server scales to any number of query-side
//! [`ktpm_storage::RemoteStore`]s, each doing its own caching and
//! verification.
//!
//! The transport reuses the crate's reactor style: one thread owns the
//! non-blocking listener and every connection, buffering partial
//! frames, answering complete ones, and flushing responses — parking
//! briefly when nothing is ready. Shard files are opened lazily on
//! first `FETCH` and held open after that.
//!
//! For fault-injection tests, [`BlockServer::inject_bit_flips`] makes
//! the next *n* `FETCH` responses carry a single flipped payload bit
//! (with the frame CRC computed over the flipped bytes, so only the
//! client's v3 block verification can catch it).

use ktpm_storage::{blockproto, load_snapshot_manifest, Manifest, StorageError};
use std::fs::File;
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server-side counters, reported by the `STATS` op.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    fetches: AtomicU64,
    fetch_bytes: AtomicU64,
    manifests: AtomicU64,
    stats: AtomicU64,
    errors: AtomicU64,
}

impl Counters {
    fn to_wire(&self) -> String {
        format!(
            "connections={}\nfetches={}\nfetch_bytes={}\nmanifests={}\nstats={}\nerrors={}\n",
            self.connections.load(Ordering::Relaxed),
            self.fetches.load(Ordering::Relaxed),
            self.fetch_bytes.load(Ordering::Relaxed),
            self.manifests.load(Ordering::Relaxed),
            self.stats.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }
}

/// A running block server; see the module docs. Dropping it (or
/// calling [`BlockServer::shutdown`]) stops the reactor thread and
/// drops every connection — clients observe EOF, which
/// [`ktpm_storage::RemoteStore`] surfaces as a clean
/// [`StorageError::Remote`] after its retries, never a hang.
pub struct BlockServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    flip: Arc<AtomicU32>,
    thread: Option<JoinHandle<()>>,
}

impl BlockServer {
    /// Loads the snapshot at `store_path` (a sharded snapshot
    /// directory, its `MANIFEST` path, or a plain single v3 file — the
    /// latter gets a synthesized one-file manifest), binds `addr`
    /// (port 0 for ephemeral), and serves it until shutdown.
    pub fn spawn(
        store_path: &std::path::Path,
        addr: impl ToSocketAddrs,
    ) -> Result<BlockServer, StorageError> {
        let (manifest, dir) = load_snapshot_manifest(store_path)?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flip = Arc::new(AtomicU32::new(0));
        let thread = {
            let stop = Arc::clone(&stop);
            let flip = Arc::clone(&flip);
            std::thread::Builder::new()
                .name("ktpm-blockd".into())
                .spawn(move || serve_loop(listener, manifest, dir, &stop, &flip))?
        };
        Ok(BlockServer {
            addr,
            stop,
            flip,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fault injection for tests: corrupt one payload bit in each of
    /// the next `n` `FETCH` responses.
    pub fn inject_bit_flips(&self, n: u32) {
        self.flip.fetch_add(n, Ordering::Relaxed);
    }

    /// Stops the reactor and joins it; every connection drops.
    pub fn shutdown(mut self) {
        self.stop_thread();
    }

    fn stop_thread(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for BlockServer {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

/// One connection: the socket plus partial-frame read and unflushed
/// write buffers.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    eof: bool,
}

impl Conn {
    fn drained(&self) -> bool {
        self.written == self.write_buf.len()
    }
}

/// Everything the request handler needs: the manifest, the shard-file
/// directory, lazily opened file handles, counters, and the
/// fault-injection counter.
struct Served {
    manifest: Manifest,
    manifest_bytes: Vec<u8>,
    dir: PathBuf,
    files: Vec<Option<File>>,
    counters: Counters,
}

fn serve_loop(
    listener: TcpListener,
    manifest: Manifest,
    dir: PathBuf,
    stop: &AtomicBool,
    flip: &AtomicU32,
) {
    let mut served = Served {
        manifest_bytes: manifest.encode(),
        files: (0..manifest.shards.len()).map(|_| None).collect(),
        manifest,
        dir,
        counters: Counters::default(),
    };
    let mut conns: Vec<Conn> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    served.counters.connections.fetch_add(1, Ordering::Relaxed);
                    conns.push(Conn {
                        stream,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        written: 0,
                        eof: false,
                    });
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        let mut i = 0;
        while i < conns.len() {
            let (alive, progressed) = tick(&mut conns[i], &mut served, flip);
            progress |= progressed;
            if alive {
                i += 1;
            } else {
                drop(conns.swap_remove(i));
                progress = true;
            }
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// One readiness pass over one connection. Returns `(alive, progressed)`.
fn tick(conn: &mut Conn, served: &mut Served, flip: &AtomicU32) -> (bool, bool) {
    let mut progressed = false;
    if !conn.eof {
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    progressed = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    if !drain_frames(conn, served, flip) {
                        return (false, true);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (false, true),
            }
        }
    }
    while conn.written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.written..]) {
            Ok(0) => return (false, true),
            Ok(n) => {
                conn.written += n;
                progressed = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return (false, true),
        }
    }
    if conn.drained() {
        conn.write_buf.clear();
        conn.written = 0;
        if conn.eof {
            return (false, true);
        }
    }
    (true, progressed)
}

/// Splits complete frames out of the read buffer and appends each
/// response frame to the write buffer. Returns `false` when the client
/// must be dropped (oversized frame — a desynced or hostile peer).
fn drain_frames(conn: &mut Conn, served: &mut Served, flip: &AtomicU32) -> bool {
    loop {
        if conn.read_buf.len() < 4 {
            return true;
        }
        let len = u32::from_le_bytes(conn.read_buf[..4].try_into().expect("4 bytes")) as usize;
        if len > blockproto::MAX_FRAME_BYTES {
            return false;
        }
        if conn.read_buf.len() < 4 + len {
            return true;
        }
        let payload: Vec<u8> = conn.read_buf[4..4 + len].to_vec();
        conn.read_buf.drain(..4 + len);
        let resp = handle_request(&payload, served, flip);
        conn.write_buf
            .extend_from_slice(&(resp.len() as u32).to_le_bytes());
        conn.write_buf.extend_from_slice(&resp);
    }
}

fn err_response(served: &Served, detail: &str) -> Vec<u8> {
    served.counters.errors.fetch_add(1, Ordering::Relaxed);
    let mut resp = vec![blockproto::STATUS_ERR];
    resp.extend_from_slice(detail.as_bytes());
    resp
}

/// Executes one request payload, returning the response payload
/// (status byte first).
fn handle_request(payload: &[u8], served: &mut Served, flip: &AtomicU32) -> Vec<u8> {
    match payload.first() {
        Some(&blockproto::OP_FETCH) => {
            let Some((file_id, offset, len)) = blockproto::decode_fetch(payload) else {
                return err_response(served, "malformed FETCH request");
            };
            if len as usize > blockproto::MAX_FRAME_BYTES - 5 {
                return err_response(served, "FETCH length exceeds the frame cap");
            }
            let Some(meta) = served.manifest.shards.get(file_id as usize) else {
                return err_response(served, &format!("no shard file with id {file_id}"));
            };
            if offset.saturating_add(u64::from(len)) > meta.file_len {
                return err_response(
                    served,
                    &format!("range {offset}+{len} is past the end of {}", meta.name),
                );
            }
            let name = meta.name.clone();
            let slot = &mut served.files[file_id as usize];
            if slot.is_none() {
                match File::open(served.dir.join(&name)) {
                    Ok(f) => *slot = Some(f),
                    Err(e) => return err_response(served, &format!("open {name}: {e}")),
                }
            }
            let file = slot.as_mut().expect("opened above");
            let mut data = vec![0u8; len as usize];
            let read = file
                .seek(SeekFrom::Start(offset))
                .and_then(|_| file.read_exact(&mut data));
            if let Err(e) = read {
                return err_response(served, &format!("read {name}@{offset}+{len}: {e}"));
            }
            if flip
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
                && !data.is_empty()
            {
                // Injected fault: flip one payload bit *before* sealing
                // the frame CRC, so only client-side v3 block
                // verification can catch it.
                let mid = data.len() / 2;
                data[mid] ^= 0x01;
            }
            served.counters.fetches.fetch_add(1, Ordering::Relaxed);
            served
                .counters
                .fetch_bytes
                .fetch_add(u64::from(len), Ordering::Relaxed);
            let mut resp = Vec::with_capacity(5 + data.len());
            resp.push(blockproto::STATUS_OK);
            resp.extend_from_slice(&blockproto::crc32(&data).to_le_bytes());
            resp.extend_from_slice(&data);
            resp
        }
        Some(&blockproto::OP_MANIFEST) if payload.len() == 1 => {
            served.counters.manifests.fetch_add(1, Ordering::Relaxed);
            let mut resp = Vec::with_capacity(1 + served.manifest_bytes.len());
            resp.push(blockproto::STATUS_OK);
            resp.extend_from_slice(&served.manifest_bytes);
            resp
        }
        Some(&blockproto::OP_STATS) if payload.len() == 1 => {
            served.counters.stats.fetch_add(1, Ordering::Relaxed);
            let mut resp = vec![blockproto::STATUS_OK];
            resp.extend_from_slice(served.counters.to_wire().as_bytes());
            resp
        }
        Some(op) => err_response(served, &format!("unknown op {op}")),
        None => err_response(served, "empty request"),
    }
}
