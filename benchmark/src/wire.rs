//! `wire-mixed`: the TCP front end with fewer workers than connections.
//!
//! One client thread drives two connections with a scripted interleave
//! (two free-running client threads against one worker were bistable on
//! this sandbox). Connection B runs *light* sessions — `OPEN topk-en`,
//! 5 × `NEXT id 10`, `CLOSE` — that are result-cache hits after the
//! warm-up round: the hot-dashboard case, which keeps `core` out of the
//! light path. Four in five are *quiet*. Every fifth is *behind-burst*:
//! connection A opens a *heavy* session on a wildcard star and, before
//! each of the light session's six requests, pipelines 8 × `NEXT h
//! 250`; the client then sends the light request on B, reads B
//! (timed), and drains A. With one session in five behind a burst the
//! round's p50 sits inside the quiet mode (reactor parking) and its p90
//! in the middle of the burst mode (the one worker drains A's whole
//! queue first). Before every light request the client thinks for a
//! seed-derived 0–500 µs (see [`WireMixed::think`]); `ttf` / `ttk` are
//! the time spent waiting for B, think time excluded.

use crate::cold::pick_queries;
use crate::dataset::Dataset;
use crate::enum_deep::stars;
use crate::harness::{Checksum, Ctx, Rng, Round, SessionSample, Workload};

use crate::stats;
use crate::trace::Tracer;
use ktpm::net::{EventServer, NetConfig};
use ktpm::service::{MetricsSnapshot, QueryEngine, ServiceConfig, ServiceHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Matches per light session: `NEXTS` pages of `LIGHT_PAGE`.
pub const K: usize = NEXTS * LIGHT_PAGE;
pub const NEXTS: usize = 5;
pub const LIGHT_PAGE: usize = 10;
pub const LIGHT_QUERIES: usize = 40;
pub const LIGHT_QUERY_NODES: usize = 4;
/// Every `BURST_EVERY`-th light session runs behind bursts.
pub const BURST_EVERY: usize = 5;
/// Heavy requests pipelined before each light request of such a session.
pub const BURST_REQUESTS: usize = 8;
pub const HEAVY_PAGE: usize = 250;
/// What one heavy session delivers: a burst before `OPEN` and each `NEXT`.
pub const HEAVY_K: usize = (1 + NEXTS) * BURST_REQUESTS * HEAVY_PAGE;
/// Heavy sessions rotate over this many stars, so a star comes round
/// again only after its cached prefix has been evicted (see `setup`).
pub const HEAVY_STARS: usize = 20;
/// Cached heavy prefixes the result cache has room for beside the
/// light queries' prefixes.
const HEAVY_CACHE_SLOTS: usize = 10;

/// One parsed response line.
enum Line {
    /// `OK <id>` (OPEN), `OK closed`, or a `NEXT` header `OK <n> MORE|DONE`.
    Ok(u64),
    Err,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A lost response must fail the session, not hang the run.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: String::new(),
        })
    }

    fn send(&mut self, text: &str) -> std::io::Result<()> {
        self.writer.write_all(text.as_bytes())
    }

    /// Reads one status line: the first number after `OK`, or `Err`.
    fn status(&mut self) -> std::io::Result<Line> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let mut f = self.line.split_whitespace();
        Ok(match (f.next(), f.next()) {
            (Some("OK"), Some(n)) => Line::Ok(n.parse().unwrap_or(0)),
            _ => Line::Err,
        })
    }

    /// Reads `n` lines `M <score> <node>…` into `sum`; `false` on a
    /// malformed line. `first` is called once the first line is parsed.
    fn matches(
        &mut self,
        n: u64,
        sum: &mut Checksum,
        mut first: impl FnMut(),
    ) -> std::io::Result<bool> {
        let mut well_formed = true;
        for i in 0..n {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let mut f = self.line.split_whitespace();
            let (tag, score) = (f.next(), f.next().and_then(|s| s.parse::<u64>().ok()));
            let mut nodes = [0u32; 16];
            let mut len = 0;
            for tok in f {
                match tok.parse::<u32>() {
                    Ok(v) if len < nodes.len() => {
                        nodes[len] = v;
                        len += 1;
                    }
                    _ => well_formed = false,
                }
            }
            match (tag, score) {
                (Some("M"), Some(score)) => sum.add(score, nodes[..len].iter().copied()),
                _ => well_formed = false,
            }
            if i == 0 {
                first();
            }
        }
        Ok(well_formed)
    }
}

pub struct WireMixed {
    handle: ServiceHandle,
    server: EventServer,
    /// The reactor's park interval, µs: the range of a think time.
    park_us: u64,

    a: Conn,
    b: Conn,
    /// `(wire text, oracle checksum of the first K)` per light query.
    lights: Vec<(String, Checksum)>,
    /// `(wire text, oracle checksum of the first HEAVY_K)` per star.
    heavies: Vec<(String, Checksum)>,
    /// Light query per session, in round order.
    sessions: Vec<usize>,
    heavy_opened: usize,
    /// Think times (seed-derived).
    rng: Rng,
    protocol_errors: u64,
    /// Engine counters when the measured phase began.
    base: MetricsSnapshot,
}

/// A light session's waiting clock: the milliseconds its earlier
/// requests spent waiting for B, and when the current one was sent.
struct Waited {
    before_ms: f64,
    start: Instant,
}

impl Waited {
    /// Waiting time so far, the current request included.
    fn ms(&self) -> f64 {
        self.before_ms + self.start.elapsed().as_secs_f64() * 1e3
    }
}

/// What one round accumulates beside its sessions.
#[derive(Default)]
struct Tally {
    matches: u64,
    errors: u64,
}

/// The light queries as `(wire text, oracle checksum of the first K)`.
pub fn light_queries(ds: &Dataset) -> Result<Vec<(String, Checksum)>, String> {
    Ok(
        pick_queries(ds, LIGHT_QUERY_NODES, LIGHT_QUERIES, K, 0x11_6E7)?
            .into_iter()
            .map(|(text, sum)| (text.replace('\n', "; "), sum))
            .collect(),
    )
}

impl WireMixed {
    pub fn setup(ds: &Dataset, seed: u64) -> Result<WireMixed, String> {
        let lights = light_queries(ds)?;
        // Heavy stars and the oracle for everything a heavy session
        // will deliver.
        let heavies = stars(ds, HEAVY_K, HEAVY_STARS)?
            .into_iter()
            .map(|star| (star.text.replace('\n', "; "), star.oracle))
            .collect();
        // The result cache is LRU by entry count. Light prefixes are
        // touched once per round (every LIGHT_QUERIES sessions); a heavy
        // prefix is inserted every BURST_EVERY sessions. With room for
        // HEAVY_CACHE_SLOTS heavy prefixes the eviction victim is always
        // a heavy prefix older than any light one (10 × 5 > 40), light
        // sessions stay cache hits, and a star is evicted long before it
        // comes round again (20 > 10): heavy work stays in `core`, and
        // the cache — hence the heap — stays bounded however long the
        // run is.
        let config = ServiceConfig::new()
            .with_workers(1)
            .with_cache_capacity(LIGHT_QUERIES + HEAVY_CACHE_SLOTS);
        let handle = QueryEngine::new(ds.graph.interner().clone(), Arc::clone(&ds.mem), config);
        let server = EventServer::spawn(
            handle.clone(),
            ("127.0.0.1", 0),
            NetConfig::new().with_workers(1),
        )
        .map_err(|e| format!("spawn event server: {e}"))?;
        let connect =
            || Conn::connect(server.local_addr()).map_err(|e| format!("connect to server: {e}"));
        let (a, b) = (connect()?, connect()?);
        let mut sessions: Vec<usize> = (0..LIGHT_QUERIES).collect();
        Rng::new(seed ^ 0x5E55_1075).shuffle(&mut sessions);
        Ok(WireMixed {
            handle,
            server,
            park_us: NetConfig::new().poll_interval.as_micros().max(1) as u64,
            a,
            b,
            lights,
            heavies,
            sessions,
            heavy_opened: 0,
            rng: Rng::new(seed ^ 0x7A14),
            protocol_errors: 0,
            base: MetricsSnapshot::default(),
        })
    }

    /// Client think time before a request: a seed-derived spin of up to
    /// one reactor park interval. Without it the closed loop phase-locks
    /// with the reactor's 500 µs park cycle and a round trip is either
    /// ≈ 0.5 ms or ≈ 1.1 ms for whole rounds at a time, flipped by a few
    /// microseconds of client-side work (enabling the tracer was
    /// enough); with it every round trip samples the cycle uniformly.
    /// Think time is not part of `ttf` / `ttk`.
    fn think(&mut self) {
        let until = Instant::now() + Duration::from_micros(self.rng.next_u64() % self.park_us);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    /// One request on B and its response, after a think time. Behind a
    /// burst, A's pipelined heavy requests go out first and are drained
    /// afterwards. `on_reply` reads whatever follows B's status line;
    /// `clock` accumulates the time spent waiting for B.
    #[allow(clippy::too_many_arguments)]
    fn request<T>(
        &mut self,
        tr: &mut Tracer,
        clock: &mut Waited,
        spans: (&'static str, &'static str),
        heavy: Option<(u64, &mut Checksum)>,
        tally: &mut Tally,
        text: &str,
        on_reply: impl FnOnce(&mut Conn, &Line, &Waited) -> std::io::Result<T>,
    ) -> std::io::Result<(Line, T)> {
        self.think();
        let (quiet_span, burst_span) = spans;
        let exchange = |b: &mut Conn, clock: &mut Waited| {
            clock.start = Instant::now();
            b.send(text)?;
            let status = b.status()?;
            let rest = on_reply(b, &status, clock)?;
            clock.before_ms = clock.ms();
            Ok::<_, std::io::Error>((status, rest))
        };
        let Some((heavy_id, heavy_sum)) = heavy else {
            return tr.span(quiet_span, |_| exchange(&mut self.b, clock));
        };
        let burst = format!("NEXT {heavy_id} {HEAVY_PAGE}\n").repeat(BURST_REQUESTS);
        tr.span("net.heavy_burst", |tr| {
            self.a.send(&burst)?;
            let reply = tr.span(burst_span, |_| exchange(&mut self.b, clock))?;
            for _ in 0..BURST_REQUESTS {
                match self.a.status()? {
                    Line::Ok(n) => {
                        if !self.a.matches(n, heavy_sum, || ())? {
                            tally.errors += 1;
                        }
                        tally.matches += n;
                    }
                    Line::Err => tally.errors += 1,
                }
            }
            Ok(reply)
        })
    }

    fn light_session(
        &mut self,
        tr: &mut Tracer,
        query: usize,
        behind_burst: bool,
        tally: &mut Tally,
    ) -> std::io::Result<SessionSample> {
        let (text, want) = self.lights[query].clone();
        let mut heavy_sum = Checksum::new();
        let mut heavy = None;
        if behind_burst {
            let star = self.heavy_opened % HEAVY_STARS;
            self.heavy_opened += 1;
            self.a
                .send(&format!("OPEN topk {}\n", self.heavies[star].0))?;
            match self.a.status()? {
                Line::Ok(id) => heavy = Some((id, star)),
                Line::Err => tally.errors += 1,
            }
        }
        let errors_before = tally.errors;
        let mut sum = Checksum::new();
        let mut delivered = 0;
        let mut clock = Waited {
            before_ms: 0.0,
            start: Instant::now(),
        };
        let (status, ()) = self.request(
            tr,
            &mut clock,
            ("net.rtt.quiet.open", "net.rtt.burst.open"),
            heavy.map(|(id, _)| (id, &mut heavy_sum)),
            tally,
            &format!("OPEN topk-en {text}\n"),
            |_, _, _| Ok(()),
        )?;
        let mut ttf_ms = f64::INFINITY;
        if let Line::Ok(id) = status {
            let next = format!("NEXT {id} {LIGHT_PAGE}\n");
            for _ in 0..NEXTS {
                let (_, (n, well_formed)) = self.request(
                    tr,
                    &mut clock,
                    ("net.rtt.quiet.next", "net.rtt.burst.next"),
                    heavy.map(|(id, _)| (id, &mut heavy_sum)),
                    tally,
                    &next,
                    |b, status, clock| match status {
                        Line::Ok(n) => {
                            let ok = b.matches(*n, &mut sum, || {
                                if ttf_ms.is_infinite() {
                                    ttf_ms = clock.ms();
                                }
                            })?;
                            Ok((*n, ok))
                        }
                        Line::Err => Ok((0, false)),
                    },
                )?;
                if !well_formed {
                    tally.errors += 1;
                }
                delivered += n;
            }
        } else {
            tally.errors += 1;
        }
        let ttk_ms = clock.before_ms;
        tally.matches += delivered;
        if let Line::Ok(id) = status {
            let (closed, ()) = self.request(
                tr,
                &mut clock,
                ("net.rtt.quiet.close", "net.rtt.quiet.close"),
                None,
                tally,
                &format!("CLOSE {id}\n"),
                |_, _, _| Ok(()),
            )?;
            if matches!(closed, Line::Err) {
                tally.errors += 1;
            }
        }
        let mut ok = tally.errors == errors_before && delivered == K as u64 && sum == want;
        if let Some((id, star)) = heavy {
            self.a.send(&format!("CLOSE {id}\n"))?;
            if matches!(self.a.status()?, Line::Err) {
                tally.errors += 1;
            }
            // A wrong heavy stream fails the session that rode behind it.
            ok &= heavy_sum == self.heavies[star].1;
        }
        Ok(SessionSample { ttf_ms, ttk_ms, ok })
    }
}

impl Workload for WireMixed {
    fn k(&self) -> usize {
        K
    }

    fn sessions_per_round(&self) -> usize {
        self.sessions.len()
    }

    fn at_reference_speed(&self) -> bool {
        false
    }

    fn warmed_up(&mut self) {
        self.base = self.handle.stats().metrics;
    }

    fn round(&mut self, cx: &mut Ctx) -> Round {
        let io0 = self.handle.stats().io;
        let mut tally = Tally::default();
        let mut round = Round::default();
        let t0 = Instant::now();
        for i in 0..self.sessions.len() {
            let behind_burst = i % BURST_EVERY == BURST_EVERY - 1;
            let query = self.sessions[i];
            match cx
                .tr
                .session(|tr| self.light_session(tr, query, behind_burst, &mut tally))
            {
                Ok(sample) => {
                    round.sessions.push(sample);
                    cx.after_session();
                }
                Err(_) => {
                    // A dead or desynchronised connection: nothing
                    // after it in this round can be trusted.
                    tally.errors += 1;
                    round
                        .sessions
                        .resize(self.sessions.len(), SessionSample::failed());
                    break;
                }
            }
        }
        round.wall_s = t0.elapsed().as_secs_f64();
        round.matches = tally.matches;
        round.io = self.handle.stats().io.since(&io0);
        self.protocol_errors += tally.errors;
        round
    }

    fn layer_metrics(
        &self,
        tr: &Tracer,
        plain: &[Round],
        traced: &[Round],
        probes: &BTreeMap<&'static str, f64>,
    ) -> Vec<(&'static str, f64)> {
        let quiet_ns = stats::median(&tr.durations("net.rtt.quiet.next"));
        let burst_ns = stats::median(&tr.durations("net.rtt.burst.next"));
        let mut ttk: Vec<f64> = plain
            .iter()
            .chain(traced)
            .flat_map(|r| r.sessions.iter())
            .map(|s| if s.ok { s.ttk_ms } else { f64::INFINITY })
            .collect();
        stats::sort(&mut ttk);
        let heavy_matches = (traced.len() * (self.sessions.len() / BURST_EVERY) * HEAVY_K) as f64;
        let heavy_s = tr.durations("net.heavy_burst").iter().sum::<f64>() / 1e9;
        let now = self.handle.stats().metrics;
        let base = self.base;

        let share = |hits: u64, misses: u64| stats::share(hits, hits + misses);
        vec![
            ("net.quiet_rtt_us_p50", quiet_ns / 1e3),
            (
                "net.quiet_overhead_us_p50",
                quiet_ns / 1e3 - probes.get("service.respond_us_p50").copied().unwrap_or(0.0),
            ),
            ("net.burst_wait_ms_p50", (burst_ns - quiet_ns) / 1e6),
            (
                "net.light_ttk_ms_p99",
                stats::percentile_checked(&ttk, 99.0).unwrap_or(0.0),
            ),
            (
                "net.heavy_matches_per_s",
                if heavy_s > 0.0 {
                    heavy_matches / heavy_s
                } else {
                    0.0
                },
            ),
            ("net.sheds", now.shed_total as f64),
            ("net.protocol_errors", self.protocol_errors as f64),
            (
                "service.plan_hit_share",
                share(
                    now.plan_hits - base.plan_hits,
                    now.plan_misses - base.plan_misses,
                ),
            ),
            (
                "service.result_cache_hit_share",
                share(
                    now.cache_hits - base.cache_hits,
                    now.cache_misses - base.cache_misses,
                ),
            ),
        ]
    }

    fn shutdown(self: Box<Self>) {
        self.server.shutdown();
    }
}
