//! Per-connection state shared between the reactor (which owns the
//! socket and does all I/O) and the executor workers (which run
//! requests and append responses).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One queued unit of per-connection work, in client request order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Req {
    /// A parsed request line, headed for the engine.
    Line(String),
    /// A request shed at parse time (queue or write buffer full). The
    /// worker renders it as `ERR overloaded` *in sequence*, so shed
    /// responses occupy their request's position in the pipeline
    /// instead of jumping the queue.
    Shed,
}

/// The mutex-guarded half of a connection. The reactor appends parsed
/// requests and flushes `write_buf` to the socket; exactly one worker
/// at a time (guarded by `in_flight`) pops requests and appends
/// responses — which is what keeps pipelined responses in request
/// order.
#[derive(Debug, Default)]
pub(crate) struct ConnState {
    /// Queued requests (bounded by the reactor; see `Reactor::on_line`).
    pub pending: VecDeque<Req>,
    /// Bytes owed to the client; `written` of them are already flushed.
    pub write_buf: Vec<u8>,
    pub written: usize,
    /// Queued for or held by a worker, which owns this connection's
    /// request sequence; the reactor queues it only while this is clear.
    pub in_flight: bool,
    /// Fatal protocol state (oversized line): close once drained.
    pub closing: bool,
    /// Client half-closed its write side: stop reading, serve what was
    /// pipelined, then close.
    pub eof: bool,
}

pub(crate) type SharedConn = Arc<Mutex<ConnState>>;

impl ConnState {
    /// Unflushed response bytes.
    pub fn unsent(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Queued *engine* requests (shed markers are O(1) placeholders and
    /// do not count against the pipeline bound).
    pub fn depth(&self) -> usize {
        self.pending
            .iter()
            .filter(|r| matches!(r, Req::Line(_)))
            .count()
    }

    /// Appends a response, reclaiming the flushed prefix first so the
    /// buffer never grows unboundedly from long-lived traffic.
    pub fn push_response(&mut self, bytes: &[u8]) {
        if self.written > 0 {
            self.write_buf.drain(..self.written);
            self.written = 0;
        }
        self.write_buf.extend_from_slice(bytes);
    }

    /// Nothing queued, nothing owed, nothing running.
    pub fn drained(&self) -> bool {
        self.pending.is_empty() && !self.in_flight && self.unsent() == 0
    }
}

/// Splits complete `\n`-terminated lines off the front of `buf`
/// (lossy UTF-8, `\r` trimmed), leaving any partial tail in place.
pub(crate) fn drain_lines(buf: &mut Vec<u8>, mut on_line: impl FnMut(&str)) {
    let mut consumed = 0;
    while let Some(nl) = buf[consumed..].iter().position(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(&buf[consumed..consumed + nl]);
        on_line(line.trim_end_matches('\r'));
        consumed += nl + 1;
    }
    if consumed > 0 {
        buf.drain(..consumed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_incrementally_across_reads() {
        let mut buf = Vec::new();
        let mut got: Vec<String> = Vec::new();
        buf.extend_from_slice(b"OPEN topk C -");
        drain_lines(&mut buf, |l| got.push(l.to_string()));
        assert!(got.is_empty(), "partial line must wait for its newline");
        buf.extend_from_slice(b"> E\r\nNEXT 1 2\nCLO");
        drain_lines(&mut buf, |l| got.push(l.to_string()));
        assert_eq!(got, ["OPEN topk C -> E", "NEXT 1 2"]);
        assert_eq!(buf, b"CLO", "tail stays buffered");
        buf.extend_from_slice(b"SE 1\n");
        drain_lines(&mut buf, |l| got.push(l.to_string()));
        assert_eq!(got.last().unwrap(), "CLOSE 1");
        assert!(buf.is_empty());
    }

    #[test]
    fn push_response_reclaims_flushed_prefix() {
        let mut s = ConnState::default();
        s.push_response(b"OK 1\n");
        s.written = 5;
        s.push_response(b"OK 2\n");
        assert_eq!(s.write_buf, b"OK 2\n");
        assert_eq!(s.written, 0);
        assert_eq!(s.unsent(), 5);
    }

    #[test]
    fn depth_counts_engine_requests_not_shed_markers() {
        let mut s = ConnState::default();
        s.pending.push_back(Req::Line("NEXT 1 1".into()));
        s.pending.push_back(Req::Shed);
        s.pending.push_back(Req::Line("NEXT 1 1".into()));
        assert_eq!(s.depth(), 2);
        assert_eq!(s.pending.len(), 3);
    }
}
