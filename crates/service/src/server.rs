//! The TCP front end: an accept loop, one thread per connection, plus a
//! janitor thread driving session-TTL eviction.

use crate::engine::{ServiceError, ServiceHandle};
use crate::protocol::{parse_request, render_next, Request};
use ktpm_core::Algo;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running TCP server; dropping it stops the accept loop and janitor
/// (established connections finish on their own).
pub struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    janitor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `handle` in background threads.
    pub fn spawn(handle: ServiceHandle, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let accept = {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("ktpm-accept".into())
                .spawn(move || accept_loop(listener, handle, stop))?
        };
        let janitor = {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let interval = handle.config().sweep_interval;
            std::thread::Builder::new()
                .name("ktpm-janitor".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        handle.sweep_expired();
                        // Time-sliced so a long configured interval
                        // never delays shutdown by a full period.
                        let deadline = std::time::Instant::now() + interval;
                        while !stop.load(Ordering::Relaxed) {
                            let left =
                                deadline.saturating_duration_since(std::time::Instant::now());
                            if left.is_zero() {
                                break;
                            }
                            std::thread::sleep(left.min(Duration::from_millis(50)));
                        }
                    }
                })?
        };
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
            janitor: Some(janitor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the background threads.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Poke the accept loop awake so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.janitor.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn accept_loop(listener: TcpListener, handle: ServiceHandle, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else {
            // Persistent accept errors (fd exhaustion, EMFILE) would
            // otherwise busy-spin; back off and let connections close.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        // Keep a second handle to the socket: if the spawn fails (thread
        // or fd exhaustion) the closure — and the stream it captured —
        // are gone, but the connection must still be refused audibly
        // (`ERR overloaded` + a shed count) instead of silently dropped
        // as the old `let _ = spawn(..)` did.
        let conn = handle.clone();
        match stream.try_clone() {
            Ok(thread_stream) => {
                let spawned =
                    std::thread::Builder::new()
                        .name("ktpm-conn".into())
                        .spawn(move || {
                            let _ = serve_connection(thread_stream, &conn);
                        });
                if spawned.is_err() {
                    refuse_overloaded(stream, &handle);
                }
            }
            Err(_) => refuse_overloaded(stream, &handle),
        }
    }
}

/// Declines `stream` because the server cannot serve it right now:
/// best-effort `ERR overloaded` so the client sees backpressure rather
/// than a silent hangup, counted in `shed_total`.
fn refuse_overloaded(mut stream: TcpStream, handle: &ServiceHandle) {
    handle.metrics().shed();
    let _ = stream.write_all(b"ERR overloaded\n");
    let _ = stream.flush();
}

/// Drives one client connection until EOF or idle timeout
/// ([`crate::ServiceConfig::idle_timeout`], applied as a socket read
/// timeout so an idle client cannot pin this thread forever). Public so
/// alternative transports (unix sockets, in-process pipes, tests) can
/// reuse the request loop with any bidirectional byte stream.
///
/// Requests pipeline naturally here too: the reader consumes one line
/// at a time from the socket buffer, so a client may write several
/// requests back-to-back and read the responses — always complete and
/// in request order — afterwards.
pub fn serve_connection(stream: TcpStream, handle: &ServiceHandle) -> std::io::Result<()> {
    handle.metrics().connection_opened();
    // Count the close on every exit path, including errors.
    struct Gauge<'a>(&'a ServiceHandle);
    impl Drop for Gauge<'_> {
        fn drop(&mut self) {
            self.0.metrics().connection_closed();
        }
    }
    let _gauge = Gauge(handle);
    stream.set_read_timeout(handle.config().idle_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {}
            // Read timeout: the client sent nothing (not even a partial
            // line we could wait out) for the whole idle window — hang
            // up and release the thread.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        if line.trim().is_empty() {
            continue;
        }
        let response = respond(handle, &line);
        writer.write_all(response.as_bytes())?;
        writer.flush()?;
    }
}

/// Computes the full response text (always newline-terminated) for one
/// request line.
pub fn respond(handle: &ServiceHandle, line: &str) -> String {
    match parse_request(line) {
        // Parser-level failures are all one taxonomy code: the request
        // line itself was malformed (see the protocol module docs).
        Err(msg) => format!("ERR bad-request {msg}\n"),
        Ok(Request::Open { algo, query }) => match Algo::parse(&algo) {
            None => format!("ERR {}\n", ServiceError::UnknownAlgo(algo)),
            Some(algo) => match handle.open(&query, algo) {
                Ok(id) => format!("OK {id}\n"),
                Err(e) => format!("ERR {e}\n"),
            },
        },
        Ok(Request::Next { id, n }) => match handle.next(id, n) {
            Ok(batch) => render_next(&batch),
            Err(e) => format!("ERR {e}\n"),
        },
        Ok(Request::Close { id }) => match handle.close(id) {
            Ok(()) => "OK closed\n".to_string(),
            Err(e) => format!("ERR {e}\n"),
        },
        Ok(Request::Stats) => {
            let s = handle.stats();
            let mut out = format!(
                "OK sessions_active={} cache_entries={} plan_entries={} plan_bytes={} \
                 plan_largest_bytes={} plan_cache_bytes_limit={} workers={} graph_version={} ",
                s.sessions_active,
                s.cache_entries,
                s.plan_entries,
                s.plan_bytes,
                s.plan_largest_bytes,
                s.plan_bytes_limit,
                s.workers,
                s.graph_version,
            );
            for (name, n) in s.io.fields() {
                let _ = write!(out, "io_{name}={n} ");
            }
            out + &s.metrics.to_wire() + "\n"
        }
        Ok(Request::Update { delta }) => match handle.apply_delta(&delta) {
            Ok(r) => format!(
                "OK version={} touched_pairs={} plans_invalidated={} \
                 prefix_entries_invalidated={} sessions_fenced={}\n",
                r.version,
                r.touched_pairs,
                r.plans_invalidated,
                r.prefix_entries_invalidated,
                r.sessions_fenced
            ),
            Err(e) => format!("ERR {e}\n"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryEngine, ServiceConfig};
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::citation_graph;
    use ktpm_storage::MemStore;

    fn test_handle() -> ServiceHandle {
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        QueryEngine::new(
            g.interner().clone(),
            store,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn stats_reports_store_io_including_block_cache_counters() {
        // A paged-store-backed engine: running a query moves the io_*
        // fields, and the block-cache counters show real hit traffic.
        let g = citation_graph();
        let tables = ClosureTables::compute(&g);
        let mut path = std::env::temp_dir();
        path.push(format!("ktpm-stats-io-{}.bin", std::process::id()));
        ktpm_storage::write_store_v3(&tables, &path, 2).unwrap();
        let store = ktpm_storage::PagedStore::open(&path).unwrap().into_shared();
        let h = QueryEngine::new(
            g.interner().clone(),
            store,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let open = respond(&h, "OPEN topk-en C -> E; C -> S");
        let id = open.trim().strip_prefix("OK ").expect("open succeeds");
        let _ = respond(&h, &format!("NEXT {id} 10"));
        let stats = respond(&h, "STATS");
        let field = |name: &str| -> u64 {
            stats
                .split(&format!(" {name}="))
                .nth(1)
                .and_then(|r| r.split_whitespace().next())
                .unwrap_or_else(|| panic!("{name} missing from {stats}"))
                .parse()
                .expect("numeric field")
        };
        assert!(field("io_block_reads") > 0, "{stats}");
        assert!(field("io_bytes_read") > 0);
        assert!(field("io_d_entries") > 0, "discovery loaded D tables");
        assert!(
            field("io_cache_misses") > 0,
            "edge streaming fetched blocks"
        );
        assert_eq!(field("io_cache_evictions"), 0, "default budget is ample");
        assert!(field("io_cache_bytes_resident") > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_io_keys_are_the_snapshot_fields_in_order() {
        let stats = respond(&test_handle(), "STATS");
        let keys: Vec<&str> = stats
            .split_whitespace()
            .filter_map(|kv| kv.split_once('=')?.0.strip_prefix("io_"))
            .collect();
        let names = ktpm_storage::IoSnapshot::default()
            .fields()
            .map(|(name, _)| name);
        assert_eq!(keys, names, "{stats}");
    }

    #[test]
    fn respond_covers_the_whole_protocol() {
        let h = test_handle();
        let open = respond(&h, "OPEN topk-en C -> E; C -> S");
        let id = open.trim().strip_prefix("OK ").expect("open succeeds");
        let next = respond(&h, &format!("NEXT {id} 2"));
        assert!(next.starts_with("OK 2 MORE\n"), "{next:?}");
        assert_eq!(next.lines().count(), 3);
        let rest = respond(&h, &format!("NEXT {id} 100"));
        assert!(rest.starts_with("OK 3 DONE\n"), "{rest:?}");
        assert_eq!(respond(&h, &format!("CLOSE {id}")), "OK closed\n");
        assert!(respond(&h, &format!("NEXT {id} 1")).starts_with("ERR unknown-session"));
        assert!(respond(&h, "STATS").contains("sessions_opened=1"));
        assert!(respond(&h, "STATS").contains("plan_entries=1"));
        // Per-plan memory: the topk-en session above materialized the
        // plan's lazy half, so the cache reports a non-zero footprint
        // and (with one plan) total == largest.
        let stats = respond(&h, "STATS");
        let field = |name: &str| -> u64 {
            stats
                .split(&format!("{name}="))
                .nth(1)
                .and_then(|r| r.split_whitespace().next())
                .expect("field present")
                .parse()
                .expect("numeric field")
        };
        assert!(field("plan_bytes") > 0, "{stats}");
        assert_eq!(field("plan_bytes"), field("plan_largest_bytes"), "{stats}");
        assert!(respond(&h, "OPEN warp C -> E").starts_with("ERR unknown-algo"));
        assert!(respond(&h, "OPEN topk a b c").starts_with("ERR bad-query"));
        assert!(respond(&h, "HELLO").starts_with("ERR bad-request unknown command"));
    }

    #[test]
    fn open_algo_names_are_case_insensitive_like_verbs() {
        // `open topk` works, so `OPEN TOPK` must too — one canonical
        // normalization in the relocated `Algo::parse`.
        let h = test_handle();
        for line in [
            "OPEN TOPK C -> E; C -> S",
            "open Topk-EN C -> E; C -> S",
            "OPEN PAR C -> E; C -> S",
            "OPEN tOpK-eN C -> E; C -> S",
        ] {
            let resp = respond(&h, line);
            assert!(resp.starts_with("OK "), "{line:?} -> {resp:?}");
            let id = resp.trim().strip_prefix("OK ").unwrap().to_string();
            let next = respond(&h, &format!("NEXT {id} 100"));
            assert!(next.starts_with("OK 5 DONE"), "{line:?} -> {next:?}");
            respond(&h, &format!("CLOSE {id}"));
        }
    }

    #[test]
    fn unknown_algo_error_lists_every_algorithm_name() {
        // The rendered ERR must advertise the full Algo::ALL list —
        // this is the wire-visible guard against the name list going
        // stale (as the old "topk | topk-en | brute" doc comment did).
        let h = test_handle();
        let err = respond(&h, "OPEN warp C -> E");
        assert!(err.starts_with("ERR unknown-algo"), "{err:?}");
        for algo in Algo::ALL {
            assert!(
                err.contains(algo.name()),
                "ERR message {err:?} must list {:?}",
                algo.name()
            );
        }
        assert!(err.contains(&Algo::valid_names()), "{err:?}");
        // The exhaustive test oracle and the paper's DP baselines are
        // not served, under any spelling.
        for line in [
            "OPEN brute C -> E; C -> S",
            "OPEN dp-b C -> E; C -> S",
            "OPEN DPP C -> E; C -> S",
        ] {
            let err = respond(&h, line);
            assert!(err.starts_with("ERR unknown-algo"), "{line:?} -> {err:?}");
            assert!(err.contains("topk | topk-en | par | kgpm"), "{err:?}");
        }
    }

    #[test]
    fn next_zero_returns_ok_zero_more_without_touching_the_enumerator() {
        let h = test_handle();
        // Fresh session: NEXT 0 probes without starting enumeration.
        let open = respond(&h, "OPEN topk-en C -> E; C -> S");
        let id = open.trim().strip_prefix("OK ").expect("open succeeds");
        assert_eq!(respond(&h, &format!("NEXT {id} 0")), "OK 0 MORE\n");
        // Drained session: still MORE, never DONE, per the protocol
        // module docs (termination is only reported with n >= 1).
        let done = respond(&h, &format!("NEXT {id} 100"));
        assert!(done.starts_with("OK 5 DONE"), "{done:?}");
        assert_eq!(respond(&h, &format!("NEXT {id} 0")), "OK 0 MORE\n");
        // A session opened on an empty *complete* cached stream must
        // also answer MORE to a zero probe instead of DONE (this was
        // the case that used to report DONE).
        let no_match = respond(&h, "OPEN topk-en S -> C");
        let id2 = no_match.trim().strip_prefix("OK ").expect("open succeeds");
        let drained = respond(&h, &format!("NEXT {id2} 10"));
        assert!(drained.starts_with("OK 0 DONE"), "{drained:?}");
        respond(&h, &format!("CLOSE {id2}"));
        let id3 = respond(&h, "OPEN topk-en S -> C");
        let id3 = id3.trim().strip_prefix("OK ").expect("open succeeds");
        assert_eq!(respond(&h, &format!("NEXT {id3} 0")), "OK 0 MORE\n");
    }

    #[test]
    fn all_semicolon_queries_error_before_reaching_the_engine() {
        let h = test_handle();
        let err = respond(&h, "OPEN topk ;;;");
        assert!(
            err.starts_with("ERR bad-request empty query after ';' rewrite"),
            "{err:?}"
        );
        // `;` inside label text: rewritten into two lines -> bad query.
        let err = respond(&h, "OPEN topk C;E -> S");
        assert!(err.starts_with("ERR bad-query"), "{err:?}");
        assert_eq!(
            h.stats().metrics.errors,
            1,
            "parser ERRs are not engine errors"
        );
    }

    #[test]
    fn every_err_reply_starts_with_a_documented_code_word() {
        use crate::protocol::ERROR_CODES;
        // Drive every in-engine failure path over the respond() wire
        // surface; each reply's first token after ERR must be one of
        // the documented taxonomy codes. (The two front-end-only codes,
        // `overloaded` and `line-too-long`, are asserted by the server
        // shed path and the ktpm-net reactor tests respectively.)
        let g = citation_graph();
        let live = ktpm_storage::LiveStore::new(g.clone()).into_shared();
        let h = QueryEngine::new(
            g.interner().clone(),
            live,
            ServiceConfig::new().with_workers(2),
        );
        let open = respond(&h, "OPEN topk C -> E; C -> S");
        let sid = open.trim().strip_prefix("OK ").expect("open succeeds");
        respond(&h, &format!("NEXT {sid} 1"));
        let failures = [
            "HELLO",            // bad-request (unknown command)
            "OPEN topk",        // bad-request (usage)
            "OPEN topk ;;;",    // bad-request (empty rewrite)
            "NEXT x 1",         // bad-request (bad id)
            "UPDATE frob 1 2",  // bad-request (bad op)
            "UPDATE",           // bad-request (empty delta)
            "OPEN warp C -> E", // unknown-algo
            "OPEN topk a b c",  // bad-query
            "NEXT 999999 1",    // unknown-session
            "CLOSE 999999",     // unknown-session
            "UPDATE del 0 6",   // update-rejected (no such edge)
            "UPDATE set 0 3 0", // update-rejected (zero weight)
        ];
        for line in failures {
            let reply = respond(&h, line);
            let mut toks = reply.split_whitespace();
            assert_eq!(toks.next(), Some("ERR"), "{line:?} -> {reply:?}");
            let code = toks.next().expect("code word present");
            assert!(
                ERROR_CODES.contains(&code),
                "{line:?} produced undocumented code {code:?} ({reply:?})"
            );
        }
        // stale-version: fence the open session with an affecting delta.
        let update = respond(&h, "UPDATE set 0 3 5");
        assert!(update.starts_with("OK version=1 "), "{update:?}");
        let stale = respond(&h, &format!("NEXT {sid} 1"));
        assert!(stale.starts_with("ERR stale-version"), "{stale:?}");
        assert!(ERROR_CODES.contains(&"stale-version"));
        // update-unsupported: a snapshot-backed engine.
        let snap = test_handle();
        let reply = respond(&snap, "UPDATE set 0 3 5");
        assert!(reply.starts_with("ERR update-unsupported"), "{reply:?}");
        // pattern-unsupported: OPEN kgpm against a store with no data
        // graph attached (so no undirected mirror).
        let reply = respond(&snap, "OPEN kgpm C -> E; E -> S; S -> C");
        assert!(reply.starts_with("ERR pattern-unsupported"), "{reply:?}");
    }

    #[test]
    fn kgpm_speaks_the_same_wire_protocol() {
        // OPEN KGPM / NEXT / CLOSE over the respond() surface, with an
        // UPDATE fencing the live kgpm session mid-stream and the plan
        // cache invalidating only the touched pattern plan.
        let g = citation_graph();
        let live = ktpm_storage::LiveStore::new(g.clone()).into_shared();
        let h = QueryEngine::new(
            g.interner().clone(),
            live,
            ServiceConfig::new().with_workers(2),
        );
        // The cyclic C–E–S triangle (kgpm-only: tree algorithms reject
        // it) plus the single-edge C–E pattern, case-insensitive algo.
        let open = respond(&h, "OPEN KGPM C -> E; E -> S; S -> C");
        let tri = open.trim().strip_prefix("OK ").expect("kgpm open succeeds");
        assert!(respond(&h, "OPEN topk C -> E; E -> S; S -> C").starts_with("ERR bad-query"));
        let next = respond(&h, &format!("NEXT {tri} 3"));
        assert!(next.starts_with("OK 3 MORE"), "{next:?}");
        let open = respond(&h, "OPEN kgpm C -> E");
        let ce = open.trim().strip_prefix("OK ").expect("open succeeds");
        respond(&h, &format!("NEXT {ce} 1"));
        // Re-weight the E -> S edge v5 -> v7: only the triangle's plan
        // reads a touched undirected table.
        let update = respond(&h, "UPDATE set 4 6 5");
        assert!(update.starts_with("OK version=1 "), "{update:?}");
        assert!(update.contains("plans_invalidated=1"), "{update:?}");
        assert!(update.contains("sessions_fenced=1"), "{update:?}");
        let stale = respond(&h, &format!("NEXT {tri} 1"));
        assert!(stale.starts_with("ERR stale-version"), "{stale:?}");
        let live_next = respond(&h, &format!("NEXT {ce} 1"));
        assert!(live_next.starts_with("OK 1 "), "{live_next:?}");
        // The fenced session still closes; the unaffected pattern
        // re-opens as a plan hit.
        assert_eq!(respond(&h, &format!("CLOSE {tri}")), "OK closed\n");
        assert_eq!(respond(&h, &format!("CLOSE {ce}")), "OK closed\n");
        let reopen = respond(&h, "OPEN kgpm C -> E");
        assert!(reopen.starts_with("OK "), "{reopen:?}");
        assert!(respond(&h, "STATS").contains("plan_hits=1"));
    }

    #[test]
    fn update_over_the_wire_invalidates_and_reports() {
        let g = citation_graph();
        let live = ktpm_storage::LiveStore::new(g.clone()).into_shared();
        let h = QueryEngine::new(
            g.interner().clone(),
            live,
            ServiceConfig::new().with_workers(2),
        );
        // Warm two queries: one reads (C, S), one does not.
        for q in ["OPEN topk C -> E; C -> S", "OPEN topk C -> E"] {
            let id = respond(&h, q);
            let id = id.trim().strip_prefix("OK ").expect("open succeeds");
            respond(&h, &format!("NEXT {id} 100"));
            respond(&h, &format!("CLOSE {id}"));
        }
        assert!(respond(&h, "STATS").contains("graph_version=0"));
        let reply = respond(&h, "UPDATE set 0 3 5");
        assert_eq!(
            reply,
            "OK version=1 touched_pairs=1 plans_invalidated=1 \
             prefix_entries_invalidated=1 sessions_fenced=0\n"
        );
        let stats = respond(&h, "STATS");
        assert!(stats.contains("graph_version=1"), "{stats}");
        assert!(
            stats.contains("graph_updates=1 plans_invalidated=1 prefix_entries_invalidated=1"),
            "{stats}"
        );
        // The unaffected query re-opens as a plan hit.
        let id = respond(&h, "OPEN topk C -> E");
        assert!(id.starts_with("OK "), "{id:?}");
        assert!(respond(&h, "STATS").contains("plan_hits=1"));
    }

    #[test]
    fn server_spawns_and_shuts_down() {
        let h = test_handle();
        let server = Server::spawn(h, ("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr();
        // A raw connect/disconnect must not wedge anything.
        drop(TcpStream::connect(addr).unwrap());
        server.shutdown();
        // Port is released: a new bind to the same address succeeds.
        let _ = TcpListener::bind(addr).unwrap();
    }
}
