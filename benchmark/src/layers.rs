//! Per-layer probes: one number per layer a match crosses, taken by
//! timing calls into the layers' public functions on the run's own
//! dataset. A traced run executes the whole suite once, whatever the
//! workload, so these figures mean the same thing in every row; the
//! figures that depend on the workload (I/O per session, hit shares,
//! the `net.*` round trips) come from the traced rounds instead.
//!
//! Where the public API does not let a span be cut — storage time
//! inside plan build — a replay stands in: `storage.fetch_*` replays
//! the reads a query's plan makes (`runtime::label_pairs` through
//! `load_d` / `load_e` / `load_pair`) on a fresh store, then again.

use crate::cold::{self, Cold};
use crate::dataset::Dataset;
use crate::enum_deep::EnumDeep;
use crate::harness::{Checksum, Ctx, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use crate::wire;
use ktpm::core::{build_stream, Algo, ParallelPolicy, QueryPlan, ScoredMatch};
use ktpm::exec::WorkerPool;
use ktpm::net::BlockServer;
use ktpm::query::{ResolvedQuery, TreeQuery};
use ktpm::runtime::{label_pairs, RuntimeGraph};
use ktpm::service::protocol::{parse_request, render_next};
use ktpm::service::{respond, NextBatch, QueryEngine, ServiceConfig};
use ktpm::storage::{blockproto, open_store_uri, ClosureSource};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Probe figures by per-layer metric name.
type Figures = BTreeMap<&'static str, f64>;

/// Seconds `f` took.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

fn untraced() -> Ctx {
    Ctx {
        tr: Tracer::new(),
        speed: None,
    }
}

/// Replays the table reads `query`'s plan makes against `store`: one
/// sample (µs) per label pair, covering its `D`, `E` and `L` reads.
fn replay_reads(query: &ResolvedQuery, store: &dyn ClosureSource) -> Vec<f64> {
    let mut samples = Vec::new();
    for (p, u, _) in query.tree().edges() {
        for (a, b) in label_pairs(query, store, p, u) {
            let (s, _) = timed(|| {
                black_box(store.load_d(a, b));
                black_box(store.load_e(a, b));
                black_box(store.load_pair(a, b));
            });
            samples.push(s * 1e6);
        }
    }
    samples
}

/// `query` (parse + resolve) and local `storage`: open; the plan's
/// reads on a fresh store (misses) and again (hits); a cursor's first
/// block.
fn local_storage(
    m: &mut Figures,
    ds: &Dataset,
    queries: &[(String, Checksum)],
    resolved: &[ResolvedQuery],
    reps: usize,
) -> Result<(), String> {
    let interner = ds.graph.interner();
    let mut parse = Vec::new();
    for _ in 0..reps * 16 {
        for (text, _) in queries {
            let (s, q) = timed(|| TreeQuery::parse(text).map(|q| q.resolve(interner)));
            black_box(q).map_err(|e| format!("cold query: {e}"))?;
            parse.push(s * 1e6);
        }
    }
    m.insert("query.parse_us_p50", median(&parse));

    let path = ds.store_path.to_string_lossy().into_owned();
    let open_local = || open_store_uri(&path, None).map_err(|e| format!("open {path}: {e}"));
    let mut open = Vec::new();
    for _ in 0..reps * 32 {
        let (s, store) = timed(open_local);
        black_box(store?);
        open.push(s * 1e6);
    }
    m.insert("storage.open_us_p50", median(&open));

    let (mut miss, mut hit, mut pull) = (Vec::new(), Vec::new(), Vec::new());
    for q in resolved {
        let store = open_local()?;
        miss.extend(replay_reads(q, store.as_ref()));
        hit.extend(replay_reads(q, store.as_ref()));
        for (p, u, _) in q.tree().edges() {
            let (Some(src), Some(dst)) = (
                q.tree().label_name(p).and_then(|l| interner.get(l)),
                q.tree().label_name(u).and_then(|l| interner.get(l)),
            ) else {
                continue;
            };
            for &v in ds.graph.nodes_with_label(dst).iter().take(4) {
                let mut cursor = store.incoming_cursor(src, v);
                let (s, block) = timed(|| cursor.next_block());
                black_box(block);
                pull.push(s * 1e6);
            }
        }
    }
    m.insert("storage.fetch_miss_us_p50", median(&miss));
    m.insert("storage.fetch_hit_us_p50", median(&hit));
    m.insert("storage.cursor_pull_us_p50", median(&pull));
    Ok(())
}

/// Remote `storage`: the same first-pass reads through a block server,
/// one raw FETCH frame as the floor under them, and the remote tier's
/// distance from the local one on the cold workloads' own `topk-en`
/// sessions (ROADMAP item 3's gap).
fn remote_storage(
    m: &mut Figures,
    ds: &Dataset,
    seed: u64,
    queries: &[(String, Checksum)],
    resolved: &[ResolvedQuery],
    reps: usize,
) -> Result<(), String> {
    let server = BlockServer::spawn(&ds.store_path, ("127.0.0.1", 0))
        .map_err(|e| format!("spawn block server: {e}"))?;
    let uri = format!("tcp://{}", server.local_addr());
    let mut remote = Vec::new();
    for q in resolved.iter().take(6) {
        let store = open_store_uri(&uri, None).map_err(|e| format!("open {uri}: {e}"))?;
        remote.extend(replay_reads(q, store.as_ref()));
    }
    m.insert("storage.remote_fetch_us_p50", median(&remote));

    let mut raw = std::net::TcpStream::connect(server.local_addr())
        .map_err(|e| format!("connect block server: {e}"))?;
    raw.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut rtt = Vec::new();
    for _ in 0..reps * 64 {
        let (s, frame) = timed(|| {
            blockproto::write_frame(&mut raw, &blockproto::encode_fetch(0, 0, 4096))?;
            blockproto::read_frame(&mut raw)
        });
        let frame = frame.map_err(|e| format!("raw FETCH: {e}"))?;
        if frame.first() != Some(&blockproto::STATUS_OK) {
            return Err("raw FETCH was refused".into());
        }
        rtt.push(s * 1e6);
    }
    m.insert("net.blockd_rtt_us_p50", median(&rtt));
    server.shutdown();

    let mut cx = untraced();
    let mut ttf = |remote| -> Result<f64, String> {
        let mut w = Cold::new(ds, seed, queries.to_vec(), remote)?.only_lazy();
        let round = w.round(&mut cx);
        Box::new(w).shutdown();
        if round.failed() > 0 {
            return Err("a cold probe session failed".into());
        }
        Ok(round.stats().ttf_ms_p50)
    };
    let (local, remote) = (ttf(false)?, ttf(true)?);
    m.insert("storage.remote_over_local_ttf", remote / local);
    Ok(())
}

/// `runtime` and `core`'s plan halves, over the in-memory store so that
/// no storage time is in them.
fn cold_plans(m: &mut Figures, ds: &Dataset, resolved: &[ResolvedQuery], reps: usize) {
    let pool = Arc::new(WorkerPool::new(1));
    let policy = ParallelPolicy::with_shards(1);
    let (mut rgraph, mut edges, mut full, mut lazy) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        for q in resolved {
            let (s, rg) = timed(|| RuntimeGraph::load(q, ds.mem.as_ref()));
            rgraph.push(s * 1e3);
            edges.push(rg.num_edges() as f64);
            let plan = QueryPlan::new(q.clone(), Arc::clone(&ds.mem));
            let (s, _) = timed(|| black_box(plan.runtime_graph().num_edges()));
            full.push(s * 1e3);
            let plan = QueryPlan::new(q.clone(), Arc::clone(&ds.mem));
            let (s, stream) =
                timed(|| build_stream(Algo::TopkEn, &plan, &policy, Arc::clone(&pool)));
            drop(stream);
            lazy.push(s * 1e3);
        }
    }
    m.insert("runtime.rgraph_load_ms_p50", median(&rgraph));
    m.insert(
        "runtime.rgraph_edges_per_query",
        edges.iter().sum::<f64>() / edges.len().max(1) as f64,
    );
    m.insert("core.plan_full_ms_p50", median(&full));
    m.insert("core.plan_lazy_ms_p50", median(&lazy));
}

/// `core`'s warm path: a small `enum-deep` (3 stars), traced. Returns
/// the first page of its first star for the render probe.
fn warm_core(
    m: &mut Figures,
    ds: &Dataset,
    seed: u64,
    reps: usize,
) -> Result<Vec<ScoredMatch>, String> {
    let mut small = EnumDeep::setup(ds, seed, 3)?;
    let mut cx = untraced();
    small.round(&mut cx);
    cx.tr.set_enabled(true);
    for _ in 0..reps {
        if small.round(&mut cx).failed() > 0 {
            return Err("a core probe session failed".into());
        }
    }
    for (name, span) in [
        ("core.stream_build_us_p50.topk", "core.stream_build.topk"),
        (
            "core.stream_build_us_p50.topk-en",
            "core.stream_build.topk-en",
        ),
        ("core.first_match_us_p50.topk", "core.first_match.topk"),
        (
            "core.first_match_us_p50.topk-en",
            "core.first_match.topk-en",
        ),
    ] {
        m.insert(name, median(&cx.tr.durations(span)) / 1e3);
    }
    m.insert(
        "core.page_ms_p50",
        median(&cx.tr.durations("core.next_batch")) / 1e6,
    );
    Ok(small.first_page())
}

/// `exec`: one hand-off to a worker and back. `service`: request
/// parsing, then open / next / respond on a twin of the wire workload's
/// engine with its light queries already cached, and `render_next`.
fn exec_and_service(
    m: &mut Figures,
    ds: &Dataset,
    page: Vec<ScoredMatch>,
    reps: usize,
) -> Result<(), String> {
    let pool = WorkerPool::new(1);
    let samples: Vec<f64> = (0..reps * 1000)
        .map(|_| timed(|| pool.run(|| ())).0 * 1e6)
        .collect();
    m.insert("exec.run_roundtrip_us_p50", median(&samples));

    // One call is below the clock's resolution: time them by the
    // hundred.
    let samples: Vec<f64> = (0..reps * 100)
        .map(|_| {
            let (s, ()) = timed(|| {
                for _ in 0..100 {
                    black_box(parse_request(black_box("NEXT 12 10")).is_ok());
                }
            });
            s * 1e9 / 100.0
        })
        .collect();
    m.insert("service.parse_ns_p50", median(&samples));

    let lights = wire::light_queries(ds)?;
    let handle = QueryEngine::new(
        ds.graph.interner().clone(),
        Arc::clone(&ds.mem),
        ServiceConfig::new().with_workers(1),
    );
    let (mut open, mut next, mut resp) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..=reps {
        for (text, _) in &lights {
            let query = text.replace(';', "\n");
            let (s, id) = timed(|| handle.open(&query, Algo::TopkEn));
            let id = id.map_err(|e| format!("probe OPEN: {e}"))?;
            open.push(s * 1e6);
            for i in 0..wire::NEXTS {
                // Alternate the two entry points over the same work.
                if i % 2 == 0 {
                    let (s, batch) = timed(|| handle.next(id, wire::LIGHT_PAGE));
                    batch.map_err(|e| format!("probe NEXT: {e}"))?;
                    next.push(s * 1e6);
                } else {
                    let line = format!("NEXT {id} {}", wire::LIGHT_PAGE);
                    let (s, reply) = timed(|| respond(&handle, &line));
                    if !reply.starts_with("OK") {
                        return Err(format!("probe respond: {reply}"));
                    }
                    resp.push(s * 1e6);
                }
            }
            handle.close(id).map_err(|e| format!("probe CLOSE: {e}"))?;
        }
        if rep == 0 {
            // That pass filled the result cache; the timed passes hit it.
            open.clear();
            next.clear();
            resp.clear();
        }
    }
    m.insert("service.open_us_p50", median(&open));
    m.insert("service.next_us_p50", median(&next));
    m.insert("service.respond_us_p50", median(&resp));

    let batch = NextBatch {
        matches: page,
        exhausted: false,
    };
    let samples: Vec<f64> = (0..reps * 50)
        .map(|_| {
            let (s, text) = timed(|| render_next(&batch));
            black_box(text);
            s * 1e9 / batch.matches.len().max(1) as f64
        })
        .collect();
    m.insert("service.render_ns_per_match", median(&samples));
    Ok(())
}

pub fn probe(ds: &Dataset, seed: u64, smoke: bool) -> Result<Figures, String> {
    let reps = if smoke { 1 } else { 2 };
    let mut m = Figures::new();
    m.insert("closure.compute_s", ds.closure_compute_s);
    m.insert("storage.write_store_s", ds.write_store_s);
    let queries = cold::queries(ds)?;
    let resolved: Vec<ResolvedQuery> = queries
        .iter()
        .map(|(text, _)| TreeQuery::parse(text).map(|q| q.resolve(ds.graph.interner())))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cold query: {e}"))?;
    local_storage(&mut m, ds, &queries, &resolved, reps)?;
    remote_storage(&mut m, ds, seed, &queries, &resolved, reps)?;
    cold_plans(&mut m, ds, &resolved, reps);
    let page = warm_core(&mut m, ds, seed, reps)?;
    exec_and_service(&mut m, ds, page, reps)?;
    Ok(m)
}
