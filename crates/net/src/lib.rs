//! # ktpm-net
//!
//! The event-driven serving tier: a readiness-loop TCP front end for a
//! [`ktpm_service::ServiceHandle`] that replaces thread-per-connection
//! with a small fixed thread set.
//!
//! The paper's enumeration model already decouples *sessions* from
//! *connections*: a parked session is a `Box<dyn MatchStream>` in the
//! engine's session table, costing memory but no thread. The legacy
//! [`ktpm_service::Server`] squanders that — every connected client
//! pins an OS thread even while idle between `NEXT` calls, so
//! thousands of open-but-quiet dashboards exhaust threads long before
//! they exhaust sessions. This crate finishes the decoupling on the
//! transport side:
//!
//! * **One reactor thread** owns every socket. The listener and all
//!   connections are non-blocking; the reactor sweeps them in a
//!   readiness loop (accept → read/parse → flush) and, when a sweep
//!   finds nothing to do, blocks in `poll(2)` until a socket is ready
//!   or a worker writes to a waker socket (it appended a response or
//!   released a connection). No request waits on a timer. No external
//!   async runtime and no crate — `std::net` non-blocking I/O plus one
//!   foreign call, in keeping with the workspace's no-external-deps
//!   rule. That call, in the reactor's private `sys` module, is the
//!   crate's only `unsafe`: `std` exposes no readiness wait, and
//!   `#![deny(unsafe_code)]` keeps it the only one.
//! * **A fixed executor pool** ([`NetConfig::workers`]) runs requests.
//!   A connection is handed to at most one worker at a time, which
//!   answers its next queued request and, if more are queued, sends it
//!   to the back of the line — that exclusivity is the whole
//!   pipelining-order guarantee. Across connections workers go
//!   round-robin, one request at a time, so a pipelined burst on one
//!   connection delays another's request by at most the requests in
//!   execution, not by the whole burst.
//! * **Pipelining**: request parsing is incremental, so a client can
//!   write `OPEN` + several `NEXT` lines back-to-back and read the
//!   responses — complete, in request order, byte-identical to the
//!   legacy front end (both render via [`ktpm_service::respond`]) —
//!   without a round-trip between them.
//! * **Explicit backpressure**: each connection has a bounded request
//!   queue ([`NetConfig::max_pipeline`]) and write buffer
//!   ([`NetConfig::max_write_buffer`]). Requests beyond either bound
//!   are shed with an in-order `ERR overloaded` (counted in the
//!   `shed_total` STATS field) instead of queueing without limit; past
//!   a hard pending cap the reactor stops reading the socket entirely
//!   and TCP flow control holds the client.
//! * **Idle timeouts**: connections silent for
//!   [`ktpm_service::ServiceConfig::idle_timeout`] are closed. Their
//!   sessions survive (session TTL is separate) and can be resumed
//!   from a new connection.
//!
//! The crate also hosts the storage tier's block server
//! ([`BlockServer`], the `ktpm blockd` subcommand), serving raw
//! snapshot blocks to [`ktpm_storage::RemoteStore`] clients over a
//! binary protocol. It runs one blocking thread per connection, not a
//! reactor: its clients are bounded connection pools with one request
//! in flight per connection, so a thread per connection is a thread
//! per in-flight request, and each request is answered as soon as it
//! arrives.
//!
//! ```no_run
//! use ktpm_net::{EventServer, NetConfig};
//! # fn handle() -> ktpm_service::ServiceHandle { unimplemented!() }
//! let server = EventServer::spawn(handle(), ("127.0.0.1", 0), NetConfig::default()).unwrap();
//! println!("serving on {}", server.local_addr());
//! # server.shutdown();
//! ```

#![deny(unsafe_code)]

mod blockd;
mod conn;
mod reactor;

pub use blockd::BlockServer;
pub use reactor::EventServer;

use std::time::Duration;

/// Tuning knobs for the event-loop front end. Engine-shared behavior
/// (idle timeout, sweep interval, session TTL) lives in
/// [`ktpm_service::ServiceConfig`] instead — both front ends read it
/// from the handle.
///
/// `#[non_exhaustive]`: construct via [`NetConfig::default`] (or
/// [`NetConfig::new`]) and refine with the builder-style `with_*`
/// methods, so future knobs land without breaking embedders.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct NetConfig {
    /// Executor worker threads running requests. This bounds engine
    /// concurrency from this front end regardless of connection count —
    /// the point of the event loop.
    pub workers: usize,
    /// Per-connection bound on queued (pipelined) engine requests;
    /// requests past it are shed with `ERR overloaded`.
    pub max_pipeline: usize,
    /// Per-connection bound on unflushed response bytes; while a
    /// slow-reading client is over it, further requests are shed.
    pub max_write_buffer: usize,
    /// The longest the reactor blocks in `poll(2)` without an event,
    /// which bounds how late an idle-timeout hang-up is noticed. No
    /// request waits on it: sockets and workers wake the reactor.
    /// Rounded **up** to whole milliseconds (at least 1), since `poll`
    /// counts in milliseconds; elsewhere than Unix the reactor sleeps it
    /// whenever a sweep finds nothing to do.
    pub poll_interval: Duration,
    /// Maximum bytes of a single request line; beyond it the connection
    /// gets `ERR line-too-long` and is closed (a newline-less flood
    /// must not grow the read buffer forever).
    pub max_line_len: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 8)),
            max_pipeline: 64,
            max_write_buffer: 256 * 1024,
            poll_interval: Duration::from_micros(500),
            max_line_len: 64 * 1024,
        }
    }
}

impl NetConfig {
    /// The default configuration (alias of [`NetConfig::default`],
    /// reads better at the head of a builder chain).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets [`NetConfig::workers`].
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets [`NetConfig::max_pipeline`].
    pub fn with_max_pipeline(mut self, max: usize) -> Self {
        self.max_pipeline = max;
        self
    }

    /// Sets [`NetConfig::max_write_buffer`].
    pub fn with_max_write_buffer(mut self, bytes: usize) -> Self {
        self.max_write_buffer = bytes;
        self
    }

    /// Sets [`NetConfig::poll_interval`].
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// Sets [`NetConfig::max_line_len`].
    pub fn with_max_line_len(mut self, bytes: usize) -> Self {
        self.max_line_len = bytes;
        self
    }
}
