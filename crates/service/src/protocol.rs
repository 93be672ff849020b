//! The line-based wire protocol spoken by `ktpm serve`.
//!
//! Requests are single lines, UTF-8, `\n`-terminated:
//!
//! ```text
//! OPEN <algo> <query>      algo: topk | topk-en | par | kgpm
//!                          (one const list,
//!                          [`ktpm_core::Algo::ALL`] — the canonical
//!                          registry in `ktpm_core`, shared with the
//!                          CLI and the `ktpm::api` facade; names are
//!                          case-insensitive like the verbs, so
//!                          `OPEN TOPK …` works). The query is the
//!                          twig text format with `;` standing in for
//!                          newlines, e.g. `OPEN topk-en C -> E; C -> S`.
//!                          Every tree algorithm streams the identical
//!                          canonical order; `par` just runs it
//!                          root-sharded on the engine's shard pool.
//!                          The paper's DP-B / DP-P baselines are
//!                          test references, not served: `OPEN dp-b`
//!                          answers `ERR unknown-algo`, as
//!                          `OPEN brute` does.
//!                          `kgpm` reads the same edge-list text as an
//!                          **undirected graph pattern** (cycles
//!                          allowed; `=>`, `*` and `#` are not),
//!                          planned over the store's undirected
//!                          mirror — stores without a data graph
//!                          attached answer `ERR pattern-unsupported`.
//! NEXT <session> <n>       next n matches of the session. Sessions
//!                          run `Box<dyn MatchStream>` cursors with
//!                          batched pull: the n matches arrive from
//!                          ONE `next_batch` call on the parked
//!                          stream, not n single-item pulls.
//! CLOSE <session>          end the session
//! STATS                    engine counters
//! UPDATE <op>[; <op>...]   apply a graph delta to a live store. Ops:
//!                          `set <u> <v> <w>` (re-weight an existing
//!                          edge), `ins <u> <v> <w>` (insert an edge),
//!                          `del <u> <v>` (delete an edge); node ids
//!                          and weights are numeric, ops apply in
//!                          order as ONE atomic batch (a rejected op
//!                          rejects the whole delta, nothing changes).
//!                          Snapshot-backed servers answer
//!                          `ERR update-unsupported …`.
//! ```
//!
//! ## Pipelining
//!
//! Requests on one connection are answered **in request order**, and a
//! client does not have to wait for a response before sending the next
//! request: writing several lines back-to-back (e.g. an `OPEN` followed
//! immediately by `NEXT`s against the session id it *will* return —
//! ids are assigned sequentially per engine) is valid on both front
//! ends. The legacy thread-per-connection server interleaves
//! read/respond per line; the `ktpm-net` event-loop server parses
//! requests incrementally off the socket, queues them per connection
//! (bounded), and streams the responses back in order — several `NEXT`
//! batches can be in the pipe at once, so consecutive answers arrive
//! without a full client round-trip between them. Its workers take
//! connections round-robin, one request at a time: a pipelined burst on
//! one connection delays another connection's request by at most the
//! requests in execution, one per worker, not by the whole burst.
//! Responses are byte-identical between the two front ends: both render
//! through the same [`crate::Server`]-level `respond` path.
//!
//! ## Backpressure: `ERR overloaded`
//!
//! The event-loop front end bounds each connection's pending-request
//! queue and write buffer. A request that arrives while either bound
//! is exceeded is **shed**: it is answered `ERR overloaded` (in order,
//! like any response) without reaching the engine, and counted in the
//! `shed_total` STATS field. The legacy front end sheds whole
//! connections instead: if it cannot spawn a handler thread (fd/thread
//! exhaustion), the new connection receives `ERR overloaded` and is
//! closed. Clients should treat `ERR overloaded` as retryable after
//! draining in-flight responses.
//!
//! ## Idle timeouts
//!
//! Connections with no client request for
//! [`crate::ServiceConfig::idle_timeout`] (default 300 s, `--idle-timeout`
//! on `ktpm serve`, `None` = never) are closed by the server: the
//! legacy path via a socket read timeout, the event loop via its
//! readiness sweep. Idle *sessions* are independent — they live until
//! the session TTL and survive their connection, so a client may
//! reconnect and resume a session by id.
//!
//! ## The `;` → newline rewrite
//!
//! Requests are single lines, but the twig text format is
//! newline-separated — so the parser rewrites **every** `;` in the
//! `OPEN` query text to a newline, unconditionally. `;` is therefore
//! *not* valid inside label text: a label containing one is split into
//! separate query lines and (in general) fails to parse as a rooted
//! tree, which the engine reports as `ERR bad query ...`. A query that
//! is empty after the rewrite (e.g. `OPEN topk ;;;`) never reaches the
//! engine: the parser answers `ERR empty query after ';' rewrite ...`
//! directly.
//!
//! ## `NEXT <session> 0`
//!
//! A zero-sized batch is a liveness probe, pinned to answer
//! `OK 0 MORE` — never `DONE`, even on a drained or known-empty
//! stream — and to never touch (or lazily create) the session's
//! enumerator. Stream termination is only ever reported by a `NEXT`
//! with `n >= 1`.
//!
//! ## Graph versions and sessions
//!
//! Every applied `UPDATE` bumps the store's monotonic graph version
//! (`graph_version` in `STATS`). Query plans and cached result
//! prefixes are invalidated **delta-aware**: only state whose query
//! reads a closure table the delta actually changed is dropped (and a
//! cached prefix whose plan has since been evicted, as nothing is left
//! to judge it by); everything else survives with a version re-stamp,
//! so an `OPEN` of an unaffected hot query after an update is still a
//! plan hit with zero candidate-discovery work. Open *sessions* follow the same
//! rule: a session whose plan survives keeps streaming across the
//! update (its answers were bit-for-bit unaffected); a session whose
//! plan was invalidated is **fenced** — every further `NEXT` answers
//! `ERR stale-version …` (its parked stream describes the pre-update
//! graph and cannot be extended consistently), while `CLOSE` still
//! works. Clients should re-`OPEN` fenced queries to stream against
//! the current graph.
//!
//! Responses:
//!
//! ```text
//! OK <session>                          for OPEN
//! OK <j> MORE|DONE                      for NEXT, followed by j lines:
//! M <score> <node> <node> ...             one per match, nodes in query
//!                                         BFS order
//! OK closed                             for CLOSE
//! OK <key>=<value> ...                  for STATS (one line)
//! OK version=<v> touched_pairs=<t> plans_invalidated=<p>
//!    prefix_entries_invalidated=<q> sessions_fenced=<s>
//!                                       for UPDATE (one line)
//! ERR <code> <detail>                   any failure; the connection
//!                                       stays usable
//! ```
//!
//! ## Error-code taxonomy
//!
//! Every `ERR` reply starts with exactly one stable, machine-readable
//! code word from [`ERROR_CODES`] (locked by a wire test so codes
//! cannot drift), followed by free-form human detail:
//!
//! ```text
//! bad-request          malformed request line (unknown verb, bad
//!                      usage, unparseable id/count/op, empty query
//!                      after the ';' rewrite)
//! bad-query            well-formed OPEN whose query text failed to
//!                      parse or resolve as a rooted tree
//! unknown-algo         OPEN with an algorithm not in the registry
//! unknown-session      NEXT/CLOSE on a missing/closed/evicted session
//! session-limit        session table full even after TTL eviction
//! stale-version        NEXT on a session fenced by a graph update;
//!                      re-OPEN the query
//! pattern-unsupported  OPEN kgpm against a store with no data graph
//!                      attached (no undirected mirror to plan the
//!                      pattern over)
//! update-unsupported   UPDATE against an immutable snapshot store
//! update-rejected      UPDATE refused by validation (unknown node,
//!                      zero weight, missing/duplicate edge, ...);
//!                      nothing changed
//! update-failed        UPDATE failed in the storage layer
//! remote-unavailable   the remote block store behind the engine
//!                      degraded mid-read (blockd unreachable, retries
//!                      exhausted, corrupt responses); the observing
//!                      session is poisoned — re-OPEN once it recovers
//! storage-failed       a local storage failure degraded a read
//!                      (corrupt block, lost shard file, ...); the
//!                      observing session is poisoned — re-OPEN
//! overloaded           request or connection shed by backpressure;
//!                      retry after draining in-flight responses
//! line-too-long        request line exceeded the front end's limit
//! ```
//!
//! `STATS` includes the serving-tier fields `connections_active` (a
//! gauge across both front ends), `queue_depth_max` (the deepest
//! pending-request queue any pipelined connection reached on the event
//! loop) and `shed_total` (requests or connections refused with
//! `ERR overloaded`), alongside the engine counters.
//!
//! It also reports the store's cumulative I/O as `io_*` fields:
//! `io_block_reads`, `io_bytes_read`, `io_edges_read`, `io_d_entries`,
//! `io_e_entries`, and — live only on the paged (format-v5) backend —
//! the block-cache counters `io_cache_hits`, `io_cache_misses`,
//! `io_cache_evictions` and the `io_cache_bytes_resident` gauge. The
//! sharded and remote tiers add `io_files_opened` (shard files opened
//! lazily) and the remote-fetch counters `io_remote_fetches`,
//! `io_remote_bytes`, `io_remote_retries`, `io_remote_errors`.
//!
//! Verbs are case-insensitive; everything else is verbatim.

use crate::engine::NextBatch;
use crate::session::SessionId;
use ktpm_graph::{Dist, GraphDelta, NodeId};
use std::fmt::Write;

/// Every error-code word an `ERR` reply may start with — the wire
/// contract of the taxonomy table in the module docs. A test drives
/// each failure path and asserts its first token is listed here, so a
/// new or renamed code that skips the documentation fails the build.
pub const ERROR_CODES: &[&str] = &[
    "bad-request",
    "bad-query",
    "unknown-algo",
    "unknown-session",
    "session-limit",
    "stale-version",
    "pattern-unsupported",
    "update-unsupported",
    "update-rejected",
    "update-failed",
    "remote-unavailable",
    "storage-failed",
    "overloaded",
    "line-too-long",
];

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `OPEN <algo> <query>` (query `;`-separated).
    Open {
        /// Algorithm name (validated by the engine).
        algo: String,
        /// Query text with `;` already translated to newlines.
        query: String,
    },
    /// `NEXT <session> <n>`.
    Next {
        /// Target session.
        id: SessionId,
        /// Batch size.
        n: usize,
    },
    /// `CLOSE <session>`.
    Close {
        /// Target session.
        id: SessionId,
    },
    /// `STATS`.
    Stats,
    /// `UPDATE <op>[; <op>...]` — a graph delta for the live store.
    Update {
        /// The parsed mutation batch, ops in request order.
        delta: GraphDelta,
    },
}

const UPDATE_USAGE: &str =
    "usage: UPDATE <set <u> <v> <w> | ins <u> <v> <w> | del <u> <v>>[; <op> ...]";

/// Parses one `;`-separated op list into a [`GraphDelta`].
fn parse_delta(rest: &str) -> Result<GraphDelta, String> {
    let node = |t: &str| -> Result<NodeId, String> {
        t.parse::<u32>()
            .map(NodeId)
            .map_err(|e| format!("bad node id {t:?}: {e}"))
    };
    let weight = |t: &str| -> Result<Dist, String> {
        t.parse::<Dist>()
            .map_err(|e| format!("bad weight {t:?}: {e}"))
    };
    let mut delta = GraphDelta::new();
    for op in rest.split(';') {
        let toks: Vec<&str> = op.split_whitespace().collect();
        let Some((&kind, args)) = toks.split_first() else {
            continue; // tolerate empty segments (trailing `;`)
        };
        match (kind.to_ascii_lowercase().as_str(), args) {
            ("set", [u, v, w]) => delta = delta.set_weight(node(u)?, node(v)?, weight(w)?),
            ("ins", [u, v, w]) => delta = delta.insert_edge(node(u)?, node(v)?, weight(w)?),
            ("del", [u, v]) => delta = delta.delete_edge(node(u)?, node(v)?),
            _ => return Err(format!("bad update op {:?} ({UPDATE_USAGE})", op.trim())),
        }
    }
    if delta.is_empty() {
        return Err(format!("empty update ({UPDATE_USAGE})"));
    }
    Ok(delta)
}

/// Parses one request line (without trailing newline).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "OPEN" => {
            let (algo, query) = rest
                .split_once(char::is_whitespace)
                .ok_or("usage: OPEN <algo> <query>")?;
            // Unconditional rewrite; see the module docs — `;` cannot
            // appear inside label text.
            let query = query.replace(';', "\n");
            if query.trim().is_empty() {
                return Err("empty query after ';' rewrite (usage: OPEN <algo> <query>)".into());
            }
            Ok(Request::Open {
                algo: algo.to_string(),
                query,
            })
        }
        "NEXT" => {
            let mut it = rest.split_whitespace();
            let id: SessionId = it
                .next()
                .ok_or("usage: NEXT <session> <n>")?
                .parse()
                .map_err(|e| format!("bad session id: {e}"))?;
            let n: usize = it
                .next()
                .ok_or("usage: NEXT <session> <n>")?
                .parse()
                .map_err(|e| format!("bad count: {e}"))?;
            if it.next().is_some() {
                return Err("usage: NEXT <session> <n>".into());
            }
            Ok(Request::Next { id, n })
        }
        "CLOSE" => {
            let id: SessionId = rest
                .split_whitespace()
                .next()
                .ok_or("usage: CLOSE <session>")?
                .parse()
                .map_err(|e| format!("bad session id: {e}"))?;
            Ok(Request::Close { id })
        }
        "STATS" => Ok(Request::Stats),
        "UPDATE" => Ok(Request::Update {
            delta: parse_delta(rest)?,
        }),
        other => Err(format!(
            "unknown command {other:?} (expected OPEN | NEXT | CLOSE | STATS | UPDATE)"
        )),
    }
}

/// Renders a `NEXT` response (header + match lines).
pub fn render_next(batch: &NextBatch) -> String {
    // Room for the page at full width (`M`, a 20-digit score, 10-digit
    // node ids, separators), so every number is written in place and
    // the page costs one allocation.
    let room = 32
        + batch
            .matches
            .iter()
            .map(|m| 24 + 11 * m.assignment.len())
            .sum::<usize>();
    let mut out = String::with_capacity(room);
    let flag = if batch.exhausted { "DONE" } else { "MORE" };
    // Writing to a `String` cannot fail.
    let _ = writeln!(out, "OK {} {flag}", batch.matches.len());
    for m in &batch.matches {
        let _ = write!(out, "M {}", m.score);
        for v in &m.assignment {
            let _ = write!(out, " {}", v.0);
        }
        out.push('\n');
    }
    out
}

/// Parses the body of a `NEXT` response (the client side; used by tests
/// and example clients). Input is the header line followed by match
/// lines, as produced by [`render_next`].
pub fn parse_next_response(text: &str) -> Result<NextBatch, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty response")?;
    let mut hp = header.split_whitespace();
    match hp.next() {
        Some("OK") => {}
        Some("ERR") => return Err(header[4.min(header.len())..].to_string()),
        _ => return Err(format!("bad header {header:?}")),
    }
    let count: usize = hp
        .next()
        .ok_or("missing count")?
        .parse()
        .map_err(|e| format!("bad count: {e}"))?;
    let exhausted = match hp.next() {
        Some("DONE") => true,
        Some("MORE") => false,
        other => return Err(format!("bad stream flag {other:?}")),
    };
    let mut matches = Vec::with_capacity(count);
    for _ in 0..count {
        let line = lines.next().ok_or("truncated response")?;
        let mut p = line.split_whitespace();
        if p.next() != Some("M") {
            return Err(format!("bad match line {line:?}"));
        }
        let score = p
            .next()
            .ok_or("missing score")?
            .parse()
            .map_err(|e| format!("bad score: {e}"))?;
        let assignment = p
            .map(|t| t.parse().map(ktpm_graph::NodeId))
            .collect::<Result<ktpm_graph::NodeRow, _>>()
            .map_err(|e| format!("bad node id: {e}"))?;
        matches.push(ktpm_core::ScoredMatch { score, assignment });
    }
    Ok(NextBatch { matches, exhausted })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_core::ScoredMatch;
    use ktpm_graph::NodeId;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request("OPEN topk-en C -> E; C -> S").unwrap(),
            Request::Open {
                algo: "topk-en".into(),
                query: "C -> E\n C -> S".into(),
            }
        );
        assert_eq!(
            parse_request("next 42 10").unwrap(),
            Request::Next {
                id: SessionId(42),
                n: 10
            }
        );
        assert_eq!(
            parse_request("CLOSE 7").unwrap(),
            Request::Close { id: SessionId(7) }
        );
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("OPEN topk").is_err());
        assert!(parse_request("NEXT x 10").is_err());
        assert!(parse_request("NEXT 1").is_err());
        assert!(parse_request("NEXT 1 2 3").is_err());
        assert!(parse_request("CLOSE").is_err());
        assert!(parse_request("FETCH 1 2").is_err());
    }

    #[test]
    fn queries_empty_after_semicolon_rewrite_are_rejected() {
        // Semicolons become newlines unconditionally; a query that is
        // all separators parses to nothing and must ERR in the parser.
        for line in ["OPEN topk ;", "OPEN topk ;;;", "OPEN topk ; ; ;"] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains("rewrite"), "{line:?} -> {err:?}");
        }
    }

    #[test]
    fn semicolons_inside_label_text_split_into_lines() {
        // The rewrite is blind to context: a `;` inside what the client
        // meant as one label yields two query lines. (Here they form a
        // two-root forest, which the engine rejects as a bad query.)
        assert_eq!(
            parse_request("OPEN topk A;B -> C").unwrap(),
            Request::Open {
                algo: "topk".into(),
                query: "A\nB -> C".into(),
            }
        );
    }

    #[test]
    fn parses_update_deltas() {
        assert_eq!(
            parse_request("UPDATE set 0 3 5; ins 1 4 2 ; del 2 3;").unwrap(),
            Request::Update {
                delta: GraphDelta::new()
                    .set_weight(NodeId(0), NodeId(3), 5)
                    .insert_edge(NodeId(1), NodeId(4), 2)
                    .delete_edge(NodeId(2), NodeId(3)),
            }
        );
        // Verbs and op names are case-insensitive alike.
        assert_eq!(
            parse_request("update DEL 1 2").unwrap(),
            Request::Update {
                delta: GraphDelta::new().delete_edge(NodeId(1), NodeId(2)),
            }
        );
    }

    #[test]
    fn rejects_malformed_updates() {
        for line in [
            "UPDATE",
            "UPDATE ;",
            "UPDATE set 1 2",
            "UPDATE ins 1 2 3 4",
            "UPDATE del x 2",
            "UPDATE set 1 2 -3",
            "UPDATE frob 1 2",
        ] {
            assert!(parse_request(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn error_code_list_is_sorted_unique_and_hyphenated() {
        // The taxonomy is a wire contract: no duplicates, no spaces
        // (codes must be single tokens), and every code is lowercase.
        let mut seen = std::collections::HashSet::new();
        for code in ERROR_CODES {
            assert!(seen.insert(code), "duplicate code {code:?}");
            assert!(
                code.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "code {code:?} must be a lowercase hyphenated token"
            );
        }
    }

    #[test]
    fn next_zero_is_a_valid_request() {
        assert_eq!(
            parse_request("NEXT 3 0").unwrap(),
            Request::Next {
                id: SessionId(3),
                n: 0
            }
        );
    }

    #[test]
    fn next_response_roundtrips() {
        let m = |score, nodes: &[u32]| ScoredMatch {
            score,
            assignment: nodes.iter().map(|&v| NodeId(v)).collect(),
        };
        let cases = [
            (vec![], true, "OK 0 DONE\n"),
            (vec![], false, "OK 0 MORE\n"),
            (
                vec![m(2, &[0, 4, 3]), m(3, &[1, 4, 3])],
                true,
                "OK 2 DONE\nM 2 0 4 3\nM 3 1 4 3\n",
            ),
            // One node; then more nodes than `NodeRow` keeps inline.
            (
                vec![
                    m(0, &[7]),
                    m(u64::MAX, &[9, 1, 2, 3, 4, 5, 6, 7, 8, u32::MAX]),
                ],
                false,
                "OK 2 MORE\nM 0 7\nM 18446744073709551615 9 1 2 3 4 5 6 7 8 4294967295\n",
            ),
        ];
        for (matches, exhausted, want) in cases {
            let batch = NextBatch { matches, exhausted };
            let text = render_next(&batch);
            assert_eq!(text, want);
            assert_eq!(parse_next_response(&text).unwrap(), batch);
        }
    }

    #[test]
    fn err_responses_surface_as_errors() {
        assert!(parse_next_response("ERR unknown session 9\n").is_err());
    }
}
