//! The readiness loop ([`EventServer`]) and its executor workers.
//!
//! One reactor thread owns every socket: it accepts, reads, parses
//! request lines incrementally, and flushes response bytes — all
//! non-blocking. A fixed worker set executes queued requests against
//! the [`ServiceHandle`] and appends responses to the owning
//! connection's write buffer. Parked connections are just entries in
//! the reactor's vector: no thread, no stack, no kernel object beyond
//! the socket itself.
//!
//! When a sweep finds nothing to do, the reactor blocks in `poll(2)`
//! over the listener, a waker socket and every connection that can make
//! progress on its own (readable unless paused, writable while bytes
//! are owed). Whatever else it waits on is a worker's doing, and a
//! worker says so by writing a byte to the waker: after appending a
//! response, and after releasing a connection (which may now be closed
//! or read again). The reactor drains the waker *before* it sweeps, so
//! a byte written after a sweep makes the next `poll` return at once and
//! no wakeup is lost. The poll timeout ([`NetConfig::poll_interval`])
//! is on no request's path; it only bounds how late an idle connection
//! is noticed.

use crate::conn::{drain_lines, ConnState, Req, SharedConn};
use crate::NetConfig;
use ktpm_service::{respond, ServiceHandle, ServiceMetrics};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The executor job queue: a connection appears here at most once at a
/// time (guarded by its `in_flight` flag). The worker that takes it
/// answers one request, then pushes it to the back if more are pending,
/// so connections take turns one request at a time, each in request
/// order.
#[derive(Default)]
struct ExecQueue {
    jobs: Mutex<VecDeque<SharedConn>>,
    ready: Condvar,
}

impl ExecQueue {
    fn push(&self, conn: SharedConn) {
        self.jobs.lock().expect("exec queue lock").push_back(conn);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` once `stop` is raised and the
    /// queue is empty.
    fn pop(&self, stop: &AtomicBool) -> Option<SharedConn> {
        let mut jobs = self.jobs.lock().expect("exec queue lock");
        loop {
            if let Some(conn) = jobs.pop_front() {
                return Some(conn);
            }
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            jobs = self.ready.wait(jobs).expect("exec queue lock");
        }
    }

    /// Raises `stop` and wakes every waiting worker. `stop` goes up
    /// under the `jobs` lock, so a worker either sees it before it
    /// waits or is already waiting when the notification comes.
    fn stop(&self, stop: &AtomicBool) {
        // Called from `Drop`: never panic, and the queue holds no
        // invariant a panicking holder could have broken.
        let _jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        stop.store(true, Ordering::Relaxed);
        self.ready.notify_all();
    }
}

/// The reactor-owned half of a connection: the socket, the raw read
/// buffer awaiting a newline, and the idle clock.
struct Connection {
    stream: TcpStream,
    read_buf: Vec<u8>,
    shared: SharedConn,
    last_activity: Instant,
}

/// An event-driven TCP server over a [`ServiceHandle`]: one reactor
/// thread multiplexes all connections (a readiness loop blocking in
/// `poll(2)`), a fixed worker set executes requests, and a janitor
/// drives session-TTL eviction. Dropping it stops all three.
///
/// Compared to [`ktpm_service::Server`] (thread-per-connection, strict
/// request/response turns), parked sessions here hold **no thread**,
/// clients may pipeline requests (responses stream back in request
/// order), and overload is explicit: bounded per-connection request
/// queues and write buffers shed with `ERR overloaded`, counted in
/// `shed_total`. Responses are byte-identical to the legacy server —
/// both render through [`ktpm_service::respond`]. A request that panics
/// costs its connection (the client sees EOF, `errors` counts it), not
/// a worker.
pub struct EventServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ExecQueue>,
    waker: Arc<sys::Waker>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    janitor: Option<JoinHandle<()>>,
}

impl EventServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `handle` on the
    /// reactor + `config.workers` executor threads. Idle-connection and
    /// session-sweep behavior come from the engine's
    /// [`ktpm_service::ServiceConfig`] (`idle_timeout`,
    /// `sweep_interval`).
    pub fn spawn(
        handle: ServiceHandle,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<EventServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ExecQueue::default());
        let waker = Arc::new(sys::Waker::new()?);

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let handle = handle.clone();
                let stop = Arc::clone(&stop);
                let waker = Arc::clone(&waker);
                std::thread::Builder::new()
                    .name(format!("ktpm-net-exec-{i}"))
                    .spawn(move || {
                        let respond = |line: &str| respond(&handle, line);
                        worker_loop(&queue, &stop, &waker, handle.metrics(), &respond);
                    })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let reactor = {
            let queue = Arc::clone(&queue);
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            std::thread::Builder::new()
                .name("ktpm-net-reactor".into())
                .spawn(move || reactor_loop(listener, &handle, &queue, &config, &stop, &waker))?
        };
        let janitor = {
            let stop = Arc::clone(&stop);
            let interval = handle.config().sweep_interval;
            std::thread::Builder::new()
                .name("ktpm-net-janitor".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        handle.sweep_expired();
                        sleep_interruptible(&stop, interval);
                    }
                })?
        };
        Ok(EventServer {
            addr,
            stop,
            queue,
            waker,
            reactor: Some(reactor),
            workers,
            janitor: Some(janitor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins every thread. Established connections
    /// are dropped (clients observe EOF); in-flight requests finish.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.queue.stop(&self.stop);
        // The reactor may be blocked in `poll` for a whole poll interval.
        self.waker.wake();
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.janitor.take() {
            let _ = t.join();
        }
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Sleeps `total`, returning early once `stop` is raised (checked every
/// 50 ms) — so large sweep intervals never delay shutdown.
fn sleep_interruptible(stop: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Relaxed) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(50)));
    }
}

/// Whether the reactor leaves a connection's socket unread: it is
/// closing, the client half-closed, or its pending queue (engine
/// requests + shed markers) reached the hard bound — past which a
/// flooding client is held by TCP flow control while its markers drain.
fn paused(s: &ConnState, cfg: &NetConfig) -> bool {
    s.closing || s.eof || s.pending.len() >= cfg.max_pipeline * 2 + 16
}

fn reactor_loop(
    listener: TcpListener,
    handle: &ServiceHandle,
    queue: &Arc<ExecQueue>,
    cfg: &NetConfig,
    stop: &AtomicBool,
    waker: &sys::Waker,
) {
    let idle_timeout = handle.config().idle_timeout;
    let mut conns: Vec<Connection> = Vec::new();
    // Reused across waits, so an idle wakeup allocates nothing.
    let mut fds: Vec<sys::PollFd> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        let mut accepting = true;
        // Accept everything ready (the listener is non-blocking).
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are latency-sensitive single lines;
                    // never let Nagle hold them back.
                    let _ = stream.set_nodelay(true);
                    handle.metrics().connection_opened();
                    conns.push(Connection {
                        stream,
                        read_buf: Vec::new(),
                        shared: Arc::new(Mutex::new(ConnState::default())),
                        last_activity: Instant::now(),
                    });
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept failures (EMFILE, ...): the listener
                // stays readable, so leave it out of the next wait and
                // retry after it — the poll timeout is the backoff.
                Err(_) => {
                    accepting = false;
                    break;
                }
            }
        }
        // One readiness sweep over every connection.
        let mut i = 0;
        while i < conns.len() {
            let (alive, progressed) = tick(&mut conns[i], handle, queue, cfg, idle_timeout);
            progress |= progressed;
            if alive {
                i += 1;
            } else {
                drop(conns.swap_remove(i));
                handle.metrics().connection_closed();
                progress = true;
            }
        }
        if progress {
            continue;
        }
        // Nothing moved: block until a socket is ready or a worker
        // wakes us. A connection with neither interest (paused, nothing
        // owed) waits on its worker alone, so it is left out.
        fds.clear();
        fds.push(sys::PollFd::new(waker.fd(), sys::POLLIN));
        if accepting {
            fds.push(sys::PollFd::new(sys::fd(&listener), sys::POLLIN));
        }
        for conn in &conns {
            let s = conn.shared.lock().expect("conn lock");
            let mut events = 0;
            if !paused(&s, cfg) {
                events |= sys::POLLIN;
            }
            if s.unsent() > 0 {
                events |= sys::POLLOUT;
            }
            if events != 0 {
                fds.push(sys::PollFd::new(sys::fd(&conn.stream), events));
            }
        }
        sys::wait(&mut fds, cfg.poll_interval);
        waker.drain();
    }
    for _ in conns.drain(..) {
        handle.metrics().connection_closed();
    }
}

/// One readiness pass over one connection: read + parse, flush, decide
/// liveness. Returns `(alive, progressed)`.
fn tick(
    conn: &mut Connection,
    handle: &ServiceHandle,
    queue: &Arc<ExecQueue>,
    cfg: &NetConfig,
    idle_timeout: Option<Duration>,
) -> (bool, bool) {
    let mut progressed = false;
    if !paused(&conn.shared.lock().expect("conn lock"), cfg) {
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Client half-closed: serve what was pipelined,
                    // then close once drained.
                    conn.shared.lock().expect("conn lock").eof = true;
                    progressed = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    conn.last_activity = Instant::now();
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    parse_available(conn, handle, queue, cfg);
                    if conn.read_buf.len() > cfg.max_line_len {
                        let mut s = conn.shared.lock().expect("conn lock");
                        s.push_response(b"ERR line-too-long\n");
                        s.pending.clear();
                        s.closing = true;
                        break;
                    }
                    if paused(&conn.shared.lock().expect("conn lock"), cfg) {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (false, true),
            }
        }
    }
    // Flush whatever the workers owe this client.
    {
        let mut s = conn.shared.lock().expect("conn lock");
        while s.unsent() > 0 {
            match conn.stream.write(&s.write_buf[s.written..]) {
                Ok(0) => return (false, true),
                Ok(n) => {
                    s.written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (false, true),
            }
        }
        if s.written > 0 && s.written == s.write_buf.len() {
            s.write_buf.clear();
            s.written = 0;
        }
        if (s.closing || s.eof) && s.drained() {
            return (false, true);
        }
    }
    // Idle connections (no request for the whole window, nothing owed)
    // are hung up on — they cost a sweep iteration, not a thread, but
    // sockets are still finite.
    if let Some(t) = idle_timeout {
        if conn.last_activity.elapsed() > t && conn.shared.lock().expect("conn lock").drained() {
            return (false, true);
        }
    }
    (true, progressed)
}

/// Splits complete request lines out of the connection's read buffer
/// and queues them — or sheds them, in order — applying the pipeline
/// and write-buffer bounds.
fn parse_available(
    conn: &mut Connection,
    handle: &ServiceHandle,
    queue: &Arc<ExecQueue>,
    cfg: &NetConfig,
) {
    let shared = &conn.shared;
    drain_lines(&mut conn.read_buf, |line| {
        if line.trim().is_empty() {
            return;
        }
        let mut s = shared.lock().expect("conn lock");
        // Shed-on-full: the request queue bound caps engine work in
        // flight per connection; the write-buffer bound caps memory a
        // slow-reading client can pin. Either way the client gets an
        // in-order `ERR overloaded` for this request.
        if s.depth() >= cfg.max_pipeline || s.unsent() > cfg.max_write_buffer {
            handle.metrics().shed();
            s.pending.push_back(Req::Shed);
        } else {
            s.pending.push_back(Req::Line(line.to_string()));
            handle.metrics().queue_depth_observed(s.depth() as u64);
        }
        if !s.in_flight {
            s.in_flight = true;
            drop(s);
            queue.push(Arc::clone(shared));
        }
    });
}

/// Executor worker: takes a connection off the queue, answers its next
/// request and appends the response to the write buffer. A connection
/// with requests left goes to the back of the queue, still in flight, so
/// workers serve connections round-robin, one request per dispatch, and
/// a pipelined burst delays another connection's request by at most the
/// requests in execution. `in_flight` exclusivity is what makes each
/// connection's responses come back in request order. `respond` renders
/// one request line (the engine's [`respond`] outside tests).
fn worker_loop(
    queue: &ExecQueue,
    stop: &AtomicBool,
    waker: &sys::Waker,
    metrics: &ServiceMetrics,
    respond: &dyn Fn(&str) -> String,
) {
    while let Some(conn) = queue.pop(stop) {
        let req = conn.lock().expect("conn lock").pending.pop_front();
        let resp = req.map(|req| match req {
            Req::Line(line) => catch_unwind(AssertUnwindSafe(|| respond(&line))),
            Req::Shed => Ok("ERR overloaded\n".to_string()),
        });
        let mut s = conn.lock().expect("conn lock");
        match resp {
            Some(Ok(resp)) => s.push_response(resp.as_bytes()),
            // A panicking request costs its connection, not this
            // worker: the rest of its queue is dropped, the client
            // sees EOF once what it is owed is flushed.
            Some(Err(_)) => {
                metrics.error();
                s.closing = true;
                s.pending.clear();
            }
            // The reactor hung up on it (oversized line) while queued.
            None => {}
        }
        s.in_flight = !s.pending.is_empty();
        let requeue = s.in_flight;
        drop(s);
        // For the response, or for the release: the reactor may now
        // close a drained connection or read a paused one again.
        waker.wake();
        if requeue {
            queue.push(conn);
        }
    }
}

/// Platform access for the reactor's wait, and the crate's only
/// `unsafe`: the one foreign call to `poll(2)`, which `std` does not
/// expose. `std` links the C library already, so no crate is needed.
/// Elsewhere than Unix there is no `poll`, no waker and no descriptors:
/// `wait` sleeps the timeout.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_short};
    use std::time::Duration;

    pub(super) const POLLIN: c_short = 0x1;
    pub(super) const POLLOUT: c_short = 0x4;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: c_int,
        events: c_short,
        pub(super) revents: c_short,
    }

    impl PollFd {
        pub(super) fn new(fd: c_int, events: c_short) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    /// Blocks until a descriptor in `fds` is ready or `timeout` passes,
    /// rounded up to whole milliseconds (at least 1: `poll` counts in
    /// milliseconds, and 0 would make every wait a busy spin). A failed
    /// call (`EINTR` or otherwise) returns like a wakeup; the caller
    /// sweeps and waits again.
    #[cfg(unix)]
    pub(super) fn wait(fds: &mut [PollFd], timeout: Duration) {
        #[cfg(target_os = "linux")]
        type Nfds = std::ffi::c_ulong;
        #[cfg(not(target_os = "linux"))]
        type Nfds = std::ffi::c_uint;
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
        }
        let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `pollfd`s and `nfds` is its length, so the kernel reads and
        // writes only inside it, and `poll` keeps no pointer past the
        // call. Negative descriptors are skipped by `poll`; any other
        // invalid one is reported in `revents`, never dereferenced.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms.max(1)) };
    }

    #[cfg(not(unix))]
    pub(super) fn wait(_fds: &mut [PollFd], timeout: Duration) {
        std::thread::sleep(timeout);
    }

    #[cfg(unix)]
    pub(super) fn fd(socket: &impl std::os::fd::AsRawFd) -> c_int {
        socket.as_raw_fd()
    }

    #[cfg(not(unix))]
    pub(super) fn fd<T>(_socket: &T) -> c_int {
        -1
    }

    /// A socket pair the reactor polls: any thread's [`Waker::wake`]
    /// makes the reactor's current or next `wait` return.
    #[cfg(unix)]
    pub(super) struct Waker {
        tx: std::os::unix::net::UnixStream,
        rx: std::os::unix::net::UnixStream,
    }

    #[cfg(unix)]
    impl Waker {
        pub(super) fn new() -> std::io::Result<Waker> {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Waker { tx, rx })
        }

        /// Writes one byte. A full socket already holds a wakeup the
        /// reactor has not drained, so `WouldBlock` is ignored.
        pub(super) fn wake(&self) {
            let _ = std::io::Write::write(&mut &self.tx, &[1]);
        }

        /// Empties the socket into a stack buffer.
        pub(super) fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!(std::io::Read::read(&mut &self.rx, &mut buf), Ok(n) if n > 0) {}
        }

        pub(super) fn fd(&self) -> c_int {
            fd(&self.rx)
        }
    }

    #[cfg(not(unix))]
    pub(super) struct Waker;

    #[cfg(not(unix))]
    impl Waker {
        pub(super) fn new() -> std::io::Result<Waker> {
            Ok(Waker)
        }
        pub(super) fn wake(&self) {}
        pub(super) fn drain(&self) {}
        pub(super) fn fd(&self) -> c_int {
            -1
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    /// Whether the waker holds a byte; drains it.
    fn woken(waker: &sys::Waker) -> bool {
        let mut fds = [sys::PollFd::new(waker.fd(), sys::POLLIN)];
        sys::wait(&mut fds, Duration::ZERO);
        waker.drain();
        fds[0].revents & sys::POLLIN != 0
    }

    #[test]
    fn a_panicking_request_costs_its_connection_not_the_worker() {
        let queue = ExecQueue::default();
        let stop = AtomicBool::new(false);
        let waker = sys::Waker::new().unwrap();
        let metrics = ServiceMetrics::default();
        let conn = SharedConn::default();
        {
            let mut s = conn.lock().unwrap();
            s.pending
                .extend(["A", "BOOM", "B"].map(|l| Req::Line(l.into())));
            s.in_flight = true;
        }
        queue.push(Arc::clone(&conn));
        // The worker finishes the queued job, then sees `stop` and returns.
        queue.stop(&stop);
        let answered_woke = AtomicBool::new(false);
        let respond = |line: &str| {
            if line == "BOOM" {
                // Only A has been answered so far: any wakeup is its.
                answered_woke.store(woken(&waker), Ordering::Relaxed);
                panic!("injected request panic");
            }
            format!("{line}\n")
        };
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| worker_loop(&queue, &stop, &waker, &metrics, &respond));
            assert!(worker.join().is_ok(), "the worker survives the panic");
        });
        let s = conn.lock().unwrap();
        assert_eq!(
            s.write_buf, b"A\n",
            "A answered; B dropped with the connection"
        );
        assert!(s.closing, "the connection is hung up on");
        assert!(!s.in_flight, "released, so the reactor can close it");
        assert!(s.pending.is_empty());
        assert_eq!(metrics.snapshot().errors, 1);
        assert!(
            answered_woke.load(Ordering::Relaxed),
            "a response wakes the reactor"
        );
        assert!(woken(&waker), "the release wakes the reactor");
    }

    /// Queues connections with `requests[i]` pipelined requests each
    /// (`A1`, `A2`, … for the first, `B1`, … for the second), in that
    /// order, and serves them with one worker that echoes each line.
    /// Returns the order requests were served in and each connection's
    /// write buffer.
    fn serve_one_worker(requests: &[usize]) -> (Vec<String>, Vec<String>) {
        let queue = ExecQueue::default();
        let stop = AtomicBool::new(false);
        let waker = sys::Waker::new().unwrap();
        let conns: Vec<SharedConn> = requests
            .iter()
            .zip('A'..)
            .map(|(&n, name)| {
                let conn = SharedConn::default();
                {
                    let mut s = conn.lock().unwrap();
                    s.pending
                        .extend((1..=n).map(|i| Req::Line(format!("{name}{i}"))));
                    s.in_flight = true;
                }
                queue.push(Arc::clone(&conn));
                conn
            })
            .collect();
        // The worker serves what is queued, then sees `stop` and returns.
        queue.stop(&stop);
        let served = Mutex::new(Vec::new());
        let respond = |line: &str| {
            served.lock().unwrap().push(line.to_string());
            format!("{line}\n")
        };
        worker_loop(&queue, &stop, &waker, &ServiceMetrics::default(), &respond);
        let bufs = conns
            .iter()
            .map(|conn| {
                let s = conn.lock().unwrap();
                assert!(!s.in_flight && s.pending.is_empty(), "served and released");
                String::from_utf8(s.write_buf.clone()).unwrap()
            })
            .collect();
        (served.into_inner().unwrap(), bufs)
    }

    #[test]
    fn a_pipelined_burst_delays_another_connection_by_one_request() {
        let (served, bufs) = serve_one_worker(&[8, 1]);
        assert_eq!(
            served,
            ["A1", "B1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"],
            "B's request is served after one of A's, not after A's whole burst"
        );
        assert_eq!(bufs, ["A1\nA2\nA3\nA4\nA5\nA6\nA7\nA8\n", "B1\n"]);
    }

    #[test]
    fn workers_serve_connections_round_robin_in_request_order() {
        let (served, bufs) = serve_one_worker(&[3, 2, 3]);
        assert_eq!(served, ["A1", "B1", "C1", "A2", "B2", "C2", "A3", "C3"]);
        assert_eq!(bufs, ["A1\nA2\nA3\n", "B1\nB2\n", "C1\nC2\nC3\n"]);
    }
}
