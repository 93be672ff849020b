//! Regenerates every table and figure of the paper's §6 evaluation.
//!
//! ```text
//! cargo run --release -p ktpm-bench --bin experiments -- all
//! cargo run --release -p ktpm-bench --bin experiments -- table2 fig6
//! cargo run --release -p ktpm-bench --bin experiments -- --quick all
//! cargo run --release -p ktpm-bench --bin experiments -- --smoke
//! ```
//!
//! Sections: `table2` (closure costs), `table3` (run-time graph sizes),
//! `fig6` (four-system comparison), `fig7` (Topk/Topk-EN scalability),
//! `fig8` (general twigs / Topk-GT), `fig9` (kGPM mtree vs mtree+),
//! `par` (ParTopk shard scalability over the GS family).
//! Absolute numbers are machine- and scale-dependent; EXPERIMENTS.md
//! records the shape comparison against the paper.
//!
//! `--smoke` runs the short deterministic perf harness CI wires into
//! its `bench-smoke` job: per-algorithm wall times (Topk, Topk-EN and
//! 1/2/4-shard ParTopk) on the default GS3 workload, plus a
//! `plan_open` section measuring cold-open vs warm-open latency over a
//! shared `QueryPlan` (warm opens do zero candidate discovery —
//! asserted via `iostats`), the service plan-cache hit rate, an
//! `api_batched_pull` section comparing per-item vs batched pull delay
//! through the `MatchStream` surface (CI asserts batched ≤ per-item),
//! a `graph_update` section comparing the live-update warm path
//! (incremental closure repair + delta-aware invalidation + warm
//! re-open) against a cold rebuild of the mutated graph (CI asserts
//! the warm path wins and the re-open is a plan hit), a `kgpm` section
//! (cold vs warm pattern-plan opens, mtree vs mtree+ drivers, and a
//! service re-open that CI asserts is a plan hit), a `paged_store`
//! section over the on-disk v3 store (cold open + verified lazy block
//! streaming vs a warm re-open served from the LRU block cache; CI
//! asserts warm hit rate ≥ 0.9 and zero checksum-scrub failures), and
//! the `deviation_encoding` allocations/op gate. Written to
//! `BENCH_parallel.json` at the workspace root and uploaded as a
//! workflow artifact — the repo's perf trajectory, one point per CI
//! run.

use ktpm_bench::*;
use ktpm_core::{KgpmStream, MatchStream, ParallelPolicy, QueryPlan, ShardEngine};
use ktpm_exec::WorkerPool;
use ktpm_storage::ClosureSource;
use ktpm_workload::{gd_family, gs_family, query_sizes, GraphSpec, DEFAULT_GD, DEFAULT_GS};
use std::sync::Arc;
use std::time::Instant;

/// Figure 9's two kGPM configurations: mtree drives enumeration with
/// the DP-B matcher (full-loading engine), mtree+ with this paper's
/// Topk-EN (lazy engine). Same registry engine (`Algo::Kgpm`), same
/// plan — only the tree driver differs.
const KGPM_DRIVERS: [(&str, ShardEngine); 2] =
    [("mtree", ShardEngine::Full), ("mtree+", ShardEngine::Lazy)];

fn kgpm_policy(engine: ShardEngine) -> ParallelPolicy {
    ParallelPolicy {
        shards: 1,
        engine,
        ..ParallelPolicy::default()
    }
}

struct Config {
    queries_per_set: usize,
    ks: Vec<usize>,
    kgpm_nodes: usize,
    /// `k` for the ParTopk scalability section (large enough that
    /// enumeration, the part sharding parallelizes, dominates).
    par_k: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cfg = if quick {
        Config {
            queries_per_set: 3,
            ks: vec![10, 20, 100],
            kgpm_nodes: 600,
            par_k: 1000,
        }
    } else {
        Config {
            queries_per_set: 10,
            ks: vec![10, 20, 100],
            kgpm_nodes: 1200,
            par_k: 4000,
        }
    };
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let mut sections: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if sections.is_empty() || sections.contains(&"all") {
        sections = vec!["table2", "table3", "fig6", "fig7", "fig8", "fig9", "par"];
    }
    let t0 = Instant::now();
    for s in sections {
        match s {
            "table2" => table2(),
            "table3" => table3(&cfg),
            "fig6" => fig6(&cfg),
            "fig7" => fig7(&cfg),
            "fig8" => fig8(&cfg),
            "fig9" => fig9(&cfg),
            "par" => par(&cfg),
            other => eprintln!("unknown section {other:?}"),
        }
    }
    println!("\n[experiments completed in {:?}]", t0.elapsed());
}

/// Table 2: computational costs of transitive closures.
fn table2() {
    println!("== Table 2: transitive closure pre-computation (scaled families) ==");
    println!(
        "{:<6} {:>8} {:>10} {:>12} {:>12} {:>8}",
        "Graph", "nodes", "TC time", "TC edges", "TC size", "theta"
    );
    for (name, spec) in gd_family().iter().chain(gs_family().iter()) {
        let (secs, stats) = closure_cost(spec);
        println!(
            "{:<6} {:>8} {:>10} {:>12} {:>12} {:>8.0}",
            name,
            spec.nodes,
            fmt_secs(secs),
            stats.edges,
            fmt_bytes(stats.approx_bytes),
            stats.theta
        );
    }
    println!();
}

/// Table 3: average run-time graph sizes on the default datasets.
fn table3(cfg: &Config) {
    println!("== Table 3: average run-time graph sizes (GR) ==");
    println!(
        "{:<8} {:<6} {:>12} {:>12}",
        "Dataset", "T", "#nodes(GR)", "#edges(GR)"
    );
    for (synthetic, (name, spec)) in [
        (false, gd_family()[DEFAULT_GD].clone()),
        (true, gs_family()[DEFAULT_GS].clone()),
    ] {
        let ds = prepare_dataset(name, &spec);
        for size in query_sizes(synthetic) {
            let queries = queries_for(&ds, size, cfg.queries_per_set, true);
            if queries.is_empty() {
                println!("{:<8} T{:<5} {:>12} {:>12}", ds.name, size, "-", "-");
                continue;
            }
            let (n, e) = runtime_graph_sizes(&ds, &queries);
            println!("{:<8} T{:<5} {:>12.0} {:>12.0}", ds.name, size, n, e);
        }
    }
    println!();
}

/// Figure 6: DP-B / DP-P / Topk / Topk-EN on the default datasets, T20.
fn fig6(cfg: &Config) {
    println!("== Figure 6: comparison with DP-B and DP-P (T = T20, vary k) ==");
    for (name, spec) in [
        gd_family()[DEFAULT_GD].clone(),
        gs_family()[DEFAULT_GS].clone(),
    ] {
        let ds = prepare_dataset(name, &spec);
        let queries = queries_for(&ds, 20, cfg.queries_per_set, true);
        println!("-- {} ({} queries of 20 nodes) --", ds.name, queries.len());
        println!(
            "{:<4} {:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "k", "algo", "total", "top-1", "enum", "edges", "bytes"
        );
        for &k in &cfg.ks {
            for algo in FIG6 {
                let m = run_algo_avg(&ds, &queries, k, algo);
                println!(
                    "{:<4} {:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                    k,
                    paper_name(algo),
                    fmt_secs(m.total_secs()),
                    fmt_secs(m.top1_secs),
                    fmt_secs(m.enum_secs),
                    m.edges_loaded,
                    m.bytes_read
                );
            }
        }
    }
    println!();
}

/// Figure 7: scalability of Topk / Topk-EN.
fn fig7(cfg: &Config) {
    println!("== Figure 7: scalability of Topk and Topk-EN ==");
    // (a)/(b): vary k with T50.
    for (name, spec) in [
        gd_family()[DEFAULT_GD].clone(),
        gs_family()[DEFAULT_GS].clone(),
    ] {
        let ds = prepare_dataset(name, &spec);
        let queries = queries_for(&ds, 50, cfg.queries_per_set, true);
        println!(
            "-- vary k on {} (T50, {} queries) --",
            ds.name,
            queries.len()
        );
        println!("{:<4} {:>12} {:>12}", "k", "Topk", "Topk-EN");
        for &k in &cfg.ks {
            let a = run_algo_avg(&ds, &queries, k, Algo::Topk);
            let b = run_algo_avg(&ds, &queries, k, Algo::TopkEn);
            println!(
                "{:<4} {:>12} {:>12}",
                k,
                fmt_secs(a.total_secs()),
                fmt_secs(b.total_secs())
            );
        }
    }
    // (c)/(d): vary query size.
    for (synthetic, (name, spec)) in [
        (false, gd_family()[DEFAULT_GD].clone()),
        (true, gs_family()[DEFAULT_GS].clone()),
    ] {
        let ds = prepare_dataset(name, &spec);
        println!("-- vary |T| on {} (k = 20) --", ds.name);
        println!("{:<6} {:>12} {:>12}", "T", "Topk", "Topk-EN");
        for size in query_sizes(synthetic) {
            let queries = queries_for(&ds, size, cfg.queries_per_set, true);
            if queries.is_empty() {
                println!("T{:<5} {:>12} {:>12}", size, "-", "-");
                continue;
            }
            let a = run_algo_avg(&ds, &queries, 20, Algo::Topk);
            let b = run_algo_avg(&ds, &queries, 20, Algo::TopkEn);
            println!(
                "T{:<5} {:>12} {:>12}",
                size,
                fmt_secs(a.total_secs()),
                fmt_secs(b.total_secs())
            );
        }
    }
    // (e)/(f): vary graph size.
    for family in [gd_family(), gs_family()] {
        println!("-- vary graph ({}) (T50, k = 20) --", family[0].0);
        println!("{:<6} {:>12} {:>12}", "graph", "Topk", "Topk-EN");
        for (name, spec) in family {
            let ds = prepare_dataset(name, &spec);
            let queries = queries_for(&ds, 50, cfg.queries_per_set, true);
            if queries.is_empty() {
                println!("{:<6} {:>12} {:>12}", name, "-", "-");
                continue;
            }
            let a = run_algo_avg(&ds, &queries, 20, Algo::Topk);
            let b = run_algo_avg(&ds, &queries, 20, Algo::TopkEn);
            println!(
                "{:<6} {:>12} {:>12}",
                name,
                fmt_secs(a.total_secs()),
                fmt_secs(b.total_secs())
            );
        }
    }
    println!();
}

/// Figure 8: general twig-pattern matching (duplicate labels, Topk-GT).
fn fig8(cfg: &Config) {
    println!("== Figure 8: general twigs (duplicate labels, Topk-GT = Topk-EN) ==");
    for (synthetic, (name, spec)) in [
        (false, gd_family()[DEFAULT_GD].clone()),
        (true, gs_family()[DEFAULT_GS].clone()),
    ] {
        let ds = prepare_dataset(name, &spec);
        // (a) vary k with T50 duplicate-label queries.
        let queries = queries_for(&ds, 50, cfg.queries_per_set, false);
        let dup_ratio = |qs: &[ktpm_query::ResolvedQuery]| -> f64 {
            if qs.is_empty() {
                return 0.0;
            }
            let r: f64 = qs
                .iter()
                .map(|q| {
                    let names: std::collections::HashSet<_> = q
                        .tree()
                        .node_ids()
                        .filter_map(|u| q.tree().label_name(u))
                        .collect();
                    1.0 - names.len() as f64 / q.len() as f64
                })
                .sum();
            r / qs.len() as f64
        };
        println!(
            "-- {} (T50 dup-label queries, avg duplication {:.1}%) --",
            ds.name,
            dup_ratio(&queries) * 100.0
        );
        println!("{:<6} {:>12}", "k", "Topk-GT");
        for &k in &cfg.ks {
            let m = run_algo_avg(&ds, &queries, k, Algo::TopkEn);
            println!("{:<6} {:>12}", k, fmt_secs(m.total_secs()));
        }
        // (b) vary query size.
        println!("{:<6} {:>12}", "T", "Topk-GT");
        for size in query_sizes(synthetic) {
            let queries = queries_for(&ds, size, cfg.queries_per_set, false);
            if queries.is_empty() {
                println!("T{:<5} {:>12}", size, "-");
                continue;
            }
            let m = run_algo_avg(&ds, &queries, 20, Algo::TopkEn);
            println!("T{:<5} {:>12}", size, fmt_secs(m.total_secs()));
        }
    }
    // (c)/(d) vary graph size.
    for family in [gd_family(), gs_family()] {
        println!("-- vary graph ({}) (T50 dup, k = 20) --", family[0].0);
        println!("{:<6} {:>12}", "graph", "Topk-GT");
        for (name, spec) in family {
            let ds = prepare_dataset(name, &spec);
            let queries = queries_for(&ds, 50, cfg.queries_per_set, false);
            if queries.is_empty() {
                println!("{:<6} {:>12}", name, "-");
                continue;
            }
            let m = run_algo_avg(&ds, &queries, 20, Algo::TopkEn);
            println!("{:<6} {:>12}", name, fmt_secs(m.total_secs()));
        }
    }
    println!();
}

/// Figure 9: kGPM — mtree vs mtree+.
fn fig9(cfg: &Config) {
    println!("== Figure 9: kGPM (mtree = DP-B driver, mtree+ = Topk-EN driver) ==");
    let g = ktpm_workload::generate(&GraphSpec::power_law(cfg.kgpm_nodes, 17));
    let ug = ktpm_graph::undirect(&g);
    let t = Instant::now();
    let store = ktpm_storage::MemStore::new(ktpm_closure::ClosureTables::compute(&g))
        .with_graph(g.clone())
        .into_shared();
    println!(
        "data graph {} nodes (closure in {:?})",
        g.num_nodes(),
        t.elapsed()
    );
    // Q1..Q4: the growing cyclic-pattern family, planned once each.
    // Both drivers share the plan half (spanning-tree decomposition,
    // verification edges, lower bounds) — exactly what warm opens of a
    // serving session reuse.
    let pool = ktpm_exec::default_pool();
    let plans: Vec<_> = ktpm_workload::pattern_family()
        .into_iter()
        .filter_map(|(name, spec)| {
            ktpm_workload::pattern_set(&ug, spec, 1, 100)
                .into_iter()
                .next()
                .map(|q| {
                    let plan = QueryPlan::new_pattern(q, g.interner(), &store)
                        .expect("graph-attached store supports pattern plans");
                    (name, plan)
                })
        })
        .collect();
    let run = |plan: &QueryPlan, k: usize, engine: ShardEngine| {
        let t = Instant::now();
        let mut stream = KgpmStream::from_plan(plan, &kgpm_policy(engine), Arc::clone(&pool));
        let mut out = Vec::new();
        stream.next_batch(k, &mut out);
        (t.elapsed(), out, stream.stats())
    };
    // (a) vary k with Q2.
    if plans.len() >= 2 {
        let (qname, plan) = &plans[1];
        println!("-- vary k (query {qname}) --");
        println!(
            "{:<6} {:>12} {:>12} {:>14} {:>14}",
            "k", "mtree", "mtree+", "enum(mtree)", "enum(mtree+)"
        );
        for &k in &cfg.ks {
            let (d0, _, s0) = run(plan, k, ShardEngine::Full);
            let (d1, _, s1) = run(plan, k, ShardEngine::Lazy);
            println!(
                "{:<6} {:>12} {:>12} {:>14} {:>14}",
                k,
                fmt_secs(d0.as_secs_f64()),
                fmt_secs(d1.as_secs_f64()),
                s0.tree_matches_enumerated,
                s1.tree_matches_enumerated
            );
        }
    }
    // (b) vary query, k = 20.
    println!("-- vary query (k = 20) --");
    println!("{:<6} {:>12} {:>12}", "query", "mtree", "mtree+");
    for (qname, plan) in &plans {
        let (d0, m0, _) = run(plan, 20, ShardEngine::Full);
        let (d1, m1, _) = run(plan, 20, ShardEngine::Lazy);
        assert_eq!(
            m0.iter().map(|m| m.score).collect::<Vec<_>>(),
            m1.iter().map(|m| m.score).collect::<Vec<_>>(),
            "drivers disagree on {qname}"
        );
        println!(
            "{:<6} {:>12} {:>12}",
            qname,
            fmt_secs(d0.as_secs_f64()),
            fmt_secs(d1.as_secs_f64())
        );
    }
    println!();
}

/// The match-dense wildcard-star query set driving the parallel
/// figures: branching under every root makes enumeration (the part
/// sharding splits) dominate loading; random-walk `T*` sets on the GS
/// family are the opposite regime (dozens of matches, all setup) and
/// would only measure the serial run-time-graph load.
fn star_queries(ds: &Dataset) -> Vec<ktpm_query::ResolvedQuery> {
    [("L0", 2), ("L7", 2), ("L0", 3)]
        .into_iter()
        .filter_map(|(root, fanout)| wildcard_star(ds, root, fanout))
        .collect()
}

/// ParTopk shard scalability over the GS family (fig7-style layout:
/// vary shards at fixed k per graph size).
fn par(cfg: &Config) {
    println!("== ParTopk: shard scalability over the GS family (wildcard stars) ==");
    let shard_counts = [1usize, 2, 4, 8];
    let pool = Arc::new(WorkerPool::new(
        shard_counts.iter().copied().max().expect("non-empty"),
    ));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("(pool width {}, {} cores)", pool.width(), cores);
    for (name, spec) in gs_family() {
        let ds = prepare_dataset(name, &spec);
        let queries = star_queries(&ds);
        if queries.is_empty() {
            println!("{:<6} (no queries)", name);
            continue;
        }
        print!("{:<6} k={:<6}", ds.name, cfg.par_k);
        let mut base = 0.0;
        for &s in &shard_counts {
            let m = run_par_avg(&ds, &queries, cfg.par_k, s, &pool);
            if s == 1 {
                base = m.total_secs();
            }
            print!(
                " P{s}: {:>9} ({:>4.2}x)",
                fmt_secs(m.total_secs()),
                base / m.total_secs().max(1e-12)
            );
        }
        println!();
    }
    println!();
}

/// Drains up to `k` matches off `it`, diffing the bench allocator's
/// counter around the loop: `(allocations, wall seconds, matches)`.
/// Enumerator construction happens before the call, so setup cost is
/// excluded — this isolates the enumeration hot path the deviation
/// encoding targets.
fn drain_counting<I: Iterator<Item = ktpm_core::ScoredMatch>>(
    it: I,
    k: usize,
) -> (u64, f64, usize) {
    let a0 = ktpm_bench::alloc_count();
    let t = Instant::now();
    let n = it.take(k).count();
    (ktpm_bench::alloc_count() - a0, t.elapsed().as_secs_f64(), n)
}

/// Clone-baseline allocations/op for the `deviation_encoding` gate,
/// measured on this workload (GS3 wildcard stars, k = 50 000) at the
/// last clone-based tree (PR 3): every popped match stored a full
/// `Vec<u32>` assignment and `divide`/`materialize`/`reevaluate` cloned
/// it again per call. Allocation *counts* are deterministic for a
/// deterministic workload, so these travel across machines (unlike
/// wall times, which are recorded for context only).
const CLONE_BASELINE_ALLOCS_PER_OP: [(&str, f64); 3] =
    [("Topk", 4.403), ("Topk-EN", 4.592), ("ParTopk/1", 6.336)];

/// The CI `bench-smoke` harness: short, deterministic workload; JSON out.
fn smoke() {
    let t0 = Instant::now();
    let (name, spec) = gs_family()[DEFAULT_GS].clone();
    let ds = prepare_dataset(name, &spec);
    let queries = star_queries(&ds);
    assert!(!queries.is_empty(), "smoke workload generated no queries");
    let k = 50_000;
    let shard_counts = [1usize, 2, 4];
    let pool = Arc::new(WorkerPool::new(4));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== bench-smoke: {} ({} nodes), {} wildcard-star queries, k={k}, {cores} cores ==",
        ds.name,
        ds.graph.num_nodes(),
        queries.len()
    );

    // NOTE on trajectory continuity: as of the facade redesign (PR 5),
    // these wall times measure the canonical facade stream
    // (`build_stream` → plan + canonical order) — the path every
    // consumer actually runs — not the raw-tie-order enumerators the
    // pre-PR-5 points timed. Sequential rows (Topk, Topk-EN) stepped
    // up ~2x at that boundary from the canonical wrapper + plan
    // pipeline; the ParTopk rows were canonical all along and are
    // continuous. Raw hot-path cost is still tracked below in
    // `deviation_encoding` (unchanged measurement).
    let mut entries: Vec<(String, f64)> = Vec::new();
    for algo in [Algo::Topk, Algo::TopkEn] {
        let m = run_algo_avg(&ds, &queries, k, algo);
        println!("{:<10} {:>10}", paper_name(algo), fmt_secs(m.total_secs()));
        entries.push((paper_name(algo).to_string(), m.total_secs()));
    }
    let mut par_secs = std::collections::BTreeMap::new();
    for &s in &shard_counts {
        let m = run_par_avg(&ds, &queries, k, s, &pool);
        println!("ParTopk/{s}  {:>10}", fmt_secs(m.total_secs()));
        entries.push((format!("ParTopk/{s}"), m.total_secs()));
        par_secs.insert(s, m.total_secs());
    }
    let speedup = par_secs[&1] / par_secs[&4].max(1e-12);
    println!("speedup 4 shards over 1: {speedup:.2}x");

    // Cold-open vs warm-open latency over one shared QueryPlan: the
    // cold open pays candidate discovery + run-time-graph load + bs;
    // warm opens reuse all of it (verified: zero further storage I/O).
    let q = &queries[0];
    let open_k = 100usize;
    ds.store.reset_io();
    let t = Instant::now();
    let plan = Arc::new(ktpm_core::QueryPlan::new(q.clone(), Arc::clone(&ds.store)));
    let cold_n = ktpm_core::canonical(ktpm_core::TopkEnumerator::from_plan(&plan))
        .take(open_k)
        .count();
    let cold_secs = t.elapsed().as_secs_f64();
    let after_cold = ds.store.io();
    let warm_runs = 5;
    let t = Instant::now();
    for _ in 0..warm_runs {
        let n = ktpm_core::canonical(ktpm_core::TopkEnumerator::from_plan(&plan))
            .take(open_k)
            .count();
        assert_eq!(n, cold_n, "warm opens must reproduce the stream");
    }
    let warm_secs = t.elapsed().as_secs_f64() / warm_runs as f64;
    let warm_io = ds.store.io().since(&after_cold);
    assert_eq!(
        warm_io.d_entries + warm_io.e_entries + warm_io.edges_read,
        0,
        "warm opens must do zero candidate discovery / loading"
    );
    let open_speedup = cold_secs / warm_secs.max(1e-12);
    println!(
        "plan open (top-{open_k}): cold {} warm {} ({open_speedup:.1}x, warm sweeps: 0)",
        fmt_secs(cold_secs),
        fmt_secs(warm_secs)
    );

    // Plan-cache hit rate through the service engine: every query
    // opened twice per algorithm -> first open per query text misses,
    // all others hit.
    let handle = ktpm_service::QueryEngine::new(
        ds.graph.interner().clone(),
        Arc::clone(&ds.store),
        ktpm_service::ServiceConfig::default(),
    );
    let query_texts: Vec<String> = [("L0", 2usize), ("L7", 2), ("L0", 3)]
        .into_iter()
        .map(|(root, fanout)| {
            (1..=fanout)
                .map(|i| format!("{root} -> *#{i}\n"))
                .collect::<String>()
        })
        .collect();
    for text in &query_texts {
        for algo in [ktpm_service::Algo::Topk, ktpm_service::Algo::Par] {
            let id = handle.open(text, algo).expect("open");
            handle.next(id, 10).expect("next");
            handle.close(id).expect("close");
        }
    }
    let m = handle.stats().metrics;
    let hit_rate = m.plan_hits as f64 / (m.plan_hits + m.plan_misses).max(1) as f64;
    println!(
        "plan cache: {} hits / {} misses (hit rate {hit_rate:.2})",
        m.plan_hits, m.plan_misses
    );

    // Many-connection soak over the event-loop front end: hundreds of
    // concurrent pipelined sessions, per-NEXT latency percentiles, and
    // the invariant that nominal load sheds nothing (CI gates on the
    // emitted sheds / protocol_errors).
    let soak = serve_soak(&ds);
    println!(
        "serve soak (event loop): {} conns / {} sessions, {} NEXTs, p50 {:.2}ms p99 {:.2}ms, \
         {} protocol errors, {} sheds",
        soak.connections,
        soak.sessions,
        soak.next_requests,
        soak.p50_ms,
        soak.p99_ms,
        soak.protocol_errors,
        soak.sheds
    );

    // Live graph update: weight-only delta through the service engine.
    // Delta-aware invalidation keeps unaffected plans warm, so the
    // re-open after the update must beat serving the same query off a
    // cold rebuild (full closure recompute on the mutated graph + cold
    // open) — the CI gate for the mutation API.
    let gu = graph_update_bench(&ds);
    println!(
        "graph update: re-open after update {} vs cold rebuild {} ({:.0}x, plan hit: {}); \
         apply took {}, {} pairs touched, {} plans / {} prefixes invalidated",
        fmt_secs(gu.warm_reopen_secs),
        fmt_secs(gu.cold_rebuild_secs),
        gu.speedup,
        gu.warm_plan_hit,
        fmt_secs(gu.update_secs),
        gu.touched_pairs,
        gu.plans_invalidated,
        gu.prefix_entries_invalidated,
    );

    // kGPM through the one-surface machinery: cold vs warm pattern-plan
    // opens, Figure 9's mtree vs mtree+ drivers over one shared plan,
    // and a service warm re-open that must be a plan hit (CI gate).
    let kg = kgpm_smoke();
    println!(
        "kgpm: cold open {} warm {} ({:.1}x); mtree {} mtree+ {} \
         ({} matches, warm plan hit: {})",
        fmt_secs(kg.cold_open_secs),
        fmt_secs(kg.warm_open_secs),
        kg.open_speedup,
        fmt_secs(kg.mtree_secs),
        fmt_secs(kg.mtree_plus_secs),
        kg.matches,
        kg.warm_plan_hit,
    );

    // Paged block storage: cold open off disk vs warm re-open out of
    // the LRU block cache, lazy bytes read vs a full load, and a full
    // checksum scrub. CI gates warm_hit_rate >= 0.9 and
    // verify_failures == 0.
    let ps = paged_store_smoke(&ds, q);
    println!(
        "paged store: cold {} ({} of {} file bytes read), warm re-open {} \
         (hit rate {:.2}, {} hits / {} misses), cached-plan disk reads {}, \
         verify failures {}",
        fmt_secs(ps.cold_secs),
        ps.bytes_read_cold,
        ps.file_bytes,
        fmt_secs(ps.warm_secs),
        ps.warm_hit_rate,
        ps.warm_hits,
        ps.warm_misses,
        ps.cached_plan_disk_block_reads,
        ps.verify_failures,
    );

    // Distributed storage: the same snapshot sharded across files and
    // served over TCP by an in-process blockd. CI gates
    // warm_remote_fetches == 0 and scrub_failures == 0.
    let ss = sharded_store_smoke(&ds, q);
    println!(
        "sharded store: {} shards (single-pair probe opened {} file), cold query {} \
         ({} files), fetch p50/p99 local {:.3}/{:.3}ms remote {:.3}/{:.3}ms, \
         warm remote fetches {}, scrub failures {}",
        ss.shard_count,
        ss.probe_files_opened,
        fmt_secs(ss.cold_secs),
        ss.cold_files_opened,
        ss.local_fetch_p50_ms,
        ss.local_fetch_p99_ms,
        ss.remote_fetch_p50_ms,
        ss.remote_fetch_p99_ms,
        ss.warm_remote_fetches,
        ss.scrub_failures,
    );

    // One MatchStream surface: per-item vs batched pull
    // (`api_batched_pull`). The *replay* rows isolate the pull overhead
    // itself — a pre-materialized stream whose per-match production
    // cost is ~0, so the numbers are dominated by what the consumer
    // pays per pull: one virtual call + `Option` move per match on the
    // per-item path (what sessions paid before batched pull) versus a
    // single `next_batch` per request. The *live* rows run the same
    // two consumption modes over a warm Topk engine for end-to-end
    // context (there, enumeration work dominates both). CI gates
    // batched ≤ per-item on the replay delay.
    fn drain_item(mut it: ktpm_core::BoxedMatchStream, cap: usize) -> (usize, f64) {
        let mut out: Vec<ktpm_core::ScoredMatch> = Vec::with_capacity(cap);
        let t = Instant::now();
        while out.len() < cap {
            match ktpm_core::MatchStream::next(&mut *it) {
                Some(m) => out.push(m),
                None => break,
            }
        }
        (out.len(), t.elapsed().as_secs_f64())
    }
    fn drain_batched(mut it: ktpm_core::BoxedMatchStream, cap: usize) -> (usize, f64) {
        let mut out: Vec<ktpm_core::ScoredMatch> = Vec::with_capacity(cap);
        let t = Instant::now();
        it.next_batch(cap, &mut out);
        (out.len(), t.elapsed().as_secs_f64())
    }
    let ab_policy = ktpm_core::ParallelPolicy::default();
    let ab_plan = ktpm_core::QueryPlan::new(queries[0].clone(), Arc::clone(&ds.store));
    let mut replay: Vec<ktpm_core::ScoredMatch> = Vec::with_capacity(k);
    ktpm_core::build_stream(
        ktpm_core::Algo::Topk,
        &ab_plan,
        &ab_policy,
        Arc::clone(&pool),
    )
    .next_batch(k, &mut replay);
    let ab_n = replay.len();
    assert!(ab_n > 0, "api_batched_pull needs a non-empty stream");
    // Min-of-N with the two modes interleaved, so drift (frequency,
    // page cache) hits both sides equally.
    let (mut item_spm, mut batched_spm) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        let (n_i, t_i) = drain_item(Box::new(replay.clone().into_iter()), ab_n);
        let (n_b, t_b) = drain_batched(Box::new(replay.clone().into_iter()), ab_n);
        assert_eq!((n_i, n_b), (ab_n, ab_n));
        item_spm = item_spm.min(t_i / ab_n as f64);
        batched_spm = batched_spm.min(t_b / ab_n as f64);
    }
    let (mut live_item_spm, mut live_batched_spm) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (n_i, t_i) = drain_item(
            ktpm_core::build_stream(
                ktpm_core::Algo::Topk,
                &ab_plan,
                &ab_policy,
                Arc::clone(&pool),
            ),
            k,
        );
        let (n_b, t_b) = drain_batched(
            ktpm_core::build_stream(
                ktpm_core::Algo::Topk,
                &ab_plan,
                &ab_policy,
                Arc::clone(&pool),
            ),
            k,
        );
        assert_eq!(n_i, n_b);
        live_item_spm = live_item_spm.min(t_i / n_i.max(1) as f64);
        live_batched_spm = live_batched_spm.min(t_b / n_b.max(1) as f64);
    }
    println!(
        "api batched pull (replay, {ab_n} matches): per-item {:.1}ns/match, batched \
         {:.1}ns/match ({:.1}x); live Topk: per-item {:.1}ns, batched {:.1}ns",
        item_spm * 1e9,
        batched_spm * 1e9,
        item_spm / batched_spm.max(1e-15),
        live_item_spm * 1e9,
        live_batched_spm * 1e9,
    );

    // Allocations/op on the enumeration hot path, per engine, against
    // the recorded clone baseline (the metric the arena-backed
    // deviation encoding is gated on in CI).
    let mut de_rows: Vec<(&str, f64, f64)> = Vec::new();
    {
        let (mut allocs, mut wall, mut ops) = (0u64, 0.0f64, 0usize);
        for q in &queries {
            let rg = ktpm_runtime::RuntimeGraph::load(q, ds.store.as_ref());
            let (a, w, n) = drain_counting(ktpm_core::TopkEnumerator::new(&rg), k);
            allocs += a;
            wall += w;
            ops += n;
        }
        de_rows.push(("Topk", allocs as f64 / ops.max(1) as f64, wall));
    }
    {
        let (mut allocs, mut wall, mut ops) = (0u64, 0.0f64, 0usize);
        for q in &queries {
            let (a, w, n) =
                drain_counting(ktpm_core::TopkEnEnumerator::new(q, ds.store.as_ref()), k);
            allocs += a;
            wall += w;
            ops += n;
        }
        de_rows.push(("Topk-EN", allocs as f64 / ops.max(1) as f64, wall));
    }
    {
        let (mut allocs, mut wall, mut ops) = (0u64, 0.0f64, 0usize);
        let policy = ktpm_core::ParallelPolicy {
            shards: 1,
            batch: 64,
            engine: ktpm_core::ShardEngine::Full,
        };
        for q in &queries {
            let it = ktpm_core::ParTopk::new(q, Arc::clone(&ds.store), &policy, Arc::clone(&pool));
            let (a, w, n) = drain_counting(it, k);
            allocs += a;
            wall += w;
            ops += n;
        }
        de_rows.push(("ParTopk/1", allocs as f64 / ops.max(1) as f64, wall));
    }
    let mut min_reduction = f64::INFINITY;
    for &(name, apo, wall) in &de_rows {
        let base = CLONE_BASELINE_ALLOCS_PER_OP
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0.0, |&(_, b)| b);
        let red = if apo > 0.0 { base / apo } else { f64::INFINITY };
        min_reduction = min_reduction.min(red);
        println!(
            "deviation encoding {name:<10} {apo:>7.3} allocs/op (clone baseline {base:.3}, \
             {red:.1}x) in {}",
            fmt_secs(wall)
        );
    }

    let algos_json: Vec<String> = entries
        .iter()
        .map(|(n, secs)| format!("    \"{n}\": {secs:.6}"))
        .collect();
    let de_allocs_json: Vec<String> = de_rows
        .iter()
        .map(|(n, apo, _)| format!("      \"{n}\": {apo:.4}"))
        .collect();
    let de_base_json: Vec<String> = CLONE_BASELINE_ALLOCS_PER_OP
        .iter()
        .map(|(n, b)| format!("      \"{n}\": {b:.4}"))
        .collect();
    let de_wall_json: Vec<String> = de_rows
        .iter()
        .map(|(n, _, w)| format!("      \"{n}\": {w:.6}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"parallel\",\n  \"workload\": \"{} wildcard stars\",\n  \
         \"nodes\": {},\n  \"queries\": {},\n  \"k\": {k},\n  \"cores\": {cores},\n  \
         \"pool_width\": {},\n  \"wall_secs\": {{\n{}\n  }},\n  \
         \"speedup_4_shards_over_1\": {speedup:.4},\n  \
         \"plan_open\": {{\n    \"k\": {open_k},\n    \"cold_secs\": {cold_secs:.6},\n    \
         \"warm_secs\": {warm_secs:.6},\n    \"speedup\": {open_speedup:.4},\n    \
         \"warm_discovery_sweeps\": 0,\n    \"cache_hits\": {},\n    \
         \"cache_misses\": {},\n    \"cache_hit_rate\": {hit_rate:.4}\n  }},\n  \
         \"api_batched_pull\": {{\n    \"k\": {ab_n},\n    \
         \"item_secs_per_match\": {item_spm:.12},\n    \
         \"batched_secs_per_match\": {batched_spm:.12},\n    \
         \"speedup\": {:.4},\n    \
         \"live_item_secs_per_match\": {live_item_spm:.12},\n    \
         \"live_batched_secs_per_match\": {live_batched_spm:.12}\n  }},\n  \
         \"deviation_encoding\": {{\n    \"k\": {k},\n    \
         \"allocs_per_op\": {{\n{}\n    }},\n    \
         \"clone_baseline_allocs_per_op\": {{\n{}\n    }},\n    \
         \"wall_secs\": {{\n{}\n    }},\n    \
         \"min_alloc_reduction\": {}\n  }},\n  \
         \"serve_soak\": {{\n    \"connections\": {},\n    \
         \"sessions\": {},\n    \"next_requests\": {},\n    \
         \"next_p50_ms\": {:.4},\n    \"next_p99_ms\": {:.4},\n    \
         \"protocol_errors\": {},\n    \"sheds\": {}\n  }},\n  \
         \"graph_update\": {{\n    \"update_secs\": {:.6},\n    \
         \"warm_reopen_secs\": {:.6},\n    \
         \"cold_rebuild_secs\": {:.6},\n    \"speedup\": {:.4},\n    \
         \"warm_plan_hit\": {},\n    \"touched_pairs\": {},\n    \
         \"plans_invalidated\": {},\n    \
         \"prefix_entries_invalidated\": {}\n  }},\n  \
         \"kgpm\": {{\n    \"k\": {},\n    \"matches\": {},\n    \
         \"cold_open_secs\": {:.6},\n    \"warm_open_secs\": {:.6},\n    \
         \"open_speedup\": {:.4},\n    \"mtree_secs\": {:.6},\n    \
         \"mtree_plus_secs\": {:.6},\n    \"warm_plan_hit\": {}\n  }},\n  \
         \"paged_store\": {{\n    \"cache_budget_bytes\": {},\n    \
         \"file_bytes\": {},\n    \"cold_secs\": {:.6},\n    \
         \"bytes_read_cold\": {},\n    \"warm_secs\": {:.6},\n    \
         \"warm_hits\": {},\n    \"warm_misses\": {},\n    \
         \"warm_hit_rate\": {:.4},\n    \
         \"cached_plan_disk_block_reads\": {},\n    \
         \"verify_failures\": {}\n  }},\n  \
         \"sharded_store\": {{\n    \"shard_count\": {},\n    \
         \"probe_files_opened\": {},\n    \"cold_files_opened\": {},\n    \
         \"cold_secs\": {:.6},\n    \
         \"local_fetch_p50_ms\": {:.4},\n    \"local_fetch_p99_ms\": {:.4},\n    \
         \"remote_fetch_p50_ms\": {:.4},\n    \"remote_fetch_p99_ms\": {:.4},\n    \
         \"warm_remote_fetches\": {},\n    \
         \"scrub_failures\": {}\n  }}\n}}\n",
        ds.name,
        ds.graph.num_nodes(),
        queries.len(),
        pool.width(),
        algos_json.join(",\n"),
        m.plan_hits,
        m.plan_misses,
        item_spm / batched_spm.max(1e-15),
        de_allocs_json.join(",\n"),
        de_base_json.join(",\n"),
        de_wall_json.join(",\n"),
        if min_reduction.is_finite() {
            format!("{min_reduction:.2}")
        } else {
            "null".to_string()
        },
        soak.connections,
        soak.sessions,
        soak.next_requests,
        soak.p50_ms,
        soak.p99_ms,
        soak.protocol_errors,
        soak.sheds,
        gu.update_secs,
        gu.warm_reopen_secs,
        gu.cold_rebuild_secs,
        gu.speedup,
        gu.warm_plan_hit,
        gu.touched_pairs,
        gu.plans_invalidated,
        gu.prefix_entries_invalidated,
        kg.k,
        kg.matches,
        kg.cold_open_secs,
        kg.warm_open_secs,
        kg.open_speedup,
        kg.mtree_secs,
        kg.mtree_plus_secs,
        kg.warm_plan_hit,
        ps.cache_budget_bytes,
        ps.file_bytes,
        ps.cold_secs,
        ps.bytes_read_cold,
        ps.warm_secs,
        ps.warm_hits,
        ps.warm_misses,
        ps.warm_hit_rate,
        ps.cached_plan_disk_block_reads,
        ps.verify_failures,
        ss.shard_count,
        ss.probe_files_opened,
        ss.cold_files_opened,
        ss.cold_secs,
        ss.local_fetch_p50_ms,
        ss.local_fetch_p99_ms,
        ss.remote_fetch_p50_ms,
        ss.remote_fetch_p99_ms,
        ss.warm_remote_fetches,
        ss.scrub_failures,
    );
    let path = workspace_root().join("BENCH_parallel.json");
    std::fs::write(&path, json).expect("write BENCH_parallel.json");
    println!("wrote {} in {:?}", path.display(), t0.elapsed());
}

struct PagedStoreSmoke {
    cache_budget_bytes: u64,
    file_bytes: u64,
    cold_secs: f64,
    bytes_read_cold: u64,
    warm_secs: f64,
    warm_hits: u64,
    warm_misses: u64,
    warm_hit_rate: f64,
    cached_plan_disk_block_reads: u64,
    verify_failures: u64,
}

/// Cold vs warm service over the on-disk paged (v3) store. The cold
/// pass opens a fresh [`ktpm_storage::PagedStore`] and streams a
/// top-`k`: every table section and group block it touches comes off
/// disk, CRC-verified on first fetch, and `bytes_read_cold` records
/// how little of the file a lazy run actually reads. The warm passes
/// build a *fresh* plan over the same store — candidate discovery
/// re-reads the `D`/`E` tables, but every group block must come from
/// the LRU cache (the CI gate: `warm_hit_rate >= 0.9`). Re-running an
/// already-built plan must touch no storage at all (zero disk block
/// reads — asserted here, reported for the record). Finally a full
/// scrub re-checks every checksum in the file; CI gates
/// `verify_failures == 0`.
fn paged_store_smoke(ds: &Dataset, q: &ktpm_query::ResolvedQuery) -> PagedStoreSmoke {
    let budget = ktpm_storage::DEFAULT_BLOCK_CACHE_BYTES;
    let store: ktpm_storage::SharedSource =
        match ktpm_storage::PagedStore::open_with_cache_bytes(&ds.path, budget) {
            Ok(s) => s.into_shared(),
            Err(e) => panic!("open paged store {}: {e}", ds.path.display()),
        };
    let open_k = 100usize;
    let run = |plan: &Arc<ktpm_core::QueryPlan>| {
        ktpm_core::canonical(ktpm_core::TopkEnumerator::from_plan(plan))
            .take(open_k)
            .count()
    };
    let t = Instant::now();
    let cold_plan = Arc::new(ktpm_core::QueryPlan::new(q.clone(), Arc::clone(&store)));
    let cold_n = run(&cold_plan);
    let cold_secs = t.elapsed().as_secs_f64();
    let cold_io = store.io();
    assert!(cold_n > 0, "paged smoke query must match");
    assert!(
        cold_io.cache_misses > 0,
        "a cold paged run must fetch group blocks from disk"
    );
    let warm_runs = 5;
    let t = Instant::now();
    for _ in 0..warm_runs {
        let plan = Arc::new(ktpm_core::QueryPlan::new(q.clone(), Arc::clone(&store)));
        assert_eq!(
            run(&plan),
            cold_n,
            "warm re-opens must reproduce the stream"
        );
    }
    let warm_secs = t.elapsed().as_secs_f64() / warm_runs as f64;
    let warm_io = store.io().since(&cold_io);
    let warm_hit_rate =
        warm_io.cache_hits as f64 / (warm_io.cache_hits + warm_io.cache_misses).max(1) as f64;
    let before_cached = store.io();
    assert_eq!(
        run(&cold_plan),
        cold_n,
        "a cached plan must reproduce the stream"
    );
    let cached_io = store.io().since(&before_cached);
    assert_eq!(
        cached_io.block_reads, 0,
        "re-running a cached plan must read zero blocks from disk"
    );
    // Scrub through a second handle: verification bypasses the cache
    // by contract, so the serving store's counters stay untouched.
    let scrub = ktpm_storage::PagedStore::open(&ds.path).expect("re-open paged store for scrub");
    let verify_failures = u64::from(scrub.verify().is_err());
    PagedStoreSmoke {
        cache_budget_bytes: budget,
        file_bytes: ds.file_bytes,
        cold_secs,
        bytes_read_cold: cold_io.bytes_read,
        warm_secs,
        warm_hits: warm_io.cache_hits,
        warm_misses: warm_io.cache_misses,
        warm_hit_rate,
        cached_plan_disk_block_reads: cached_io.block_reads,
        verify_failures,
    }
}

struct ShardedStoreSmoke {
    shard_count: usize,
    probe_files_opened: u64,
    cold_files_opened: u64,
    cold_secs: f64,
    local_fetch_p50_ms: f64,
    local_fetch_p99_ms: f64,
    remote_fetch_p50_ms: f64,
    remote_fetch_p99_ms: f64,
    warm_remote_fetches: u64,
    scrub_failures: u64,
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[i] * 1e3
}

/// The distributed storage tiers over the same snapshot, sharded
/// 4-way. A single-pair probe on a cold [`ktpm_storage::ShardedStore`]
/// must open exactly the one file that pair routes to (laziness), and
/// the cold query records how many of the shard files it really
/// touched. Per-table fetch latency is sampled with a 1-byte cache on
/// both a local paged handle and a [`ktpm_storage::RemoteStore`]
/// talking to an in-process `blockd`, so the p50/p99 rows compare the
/// disk hop against the network hop for the *same* reads. A warm
/// remote pass — a fresh plan over an already-hot remote store — must
/// answer entirely out of the shared block cache (the CI gate:
/// `warm_remote_fetches == 0`), and a full manifest + shard scrub must
/// be clean (`scrub_failures == 0`).
fn sharded_store_smoke(ds: &Dataset, q: &ktpm_query::ResolvedQuery) -> ShardedStoreSmoke {
    let shards = 4u32;
    let dir = ds.path.with_extension("sharded");
    if !dir.join("MANIFEST").exists() {
        let tables = ktpm_closure::ClosureTables::compute(&ds.graph);
        ktpm_storage::write_store_sharded(
            &tables,
            &dir,
            &ktpm_storage::ShardSpec::new(0, shards),
            ktpm_storage::DEFAULT_BLOCK_EDGES,
        )
        .expect("write sharded snapshot");
    }
    let manifest_path = dir.join("MANIFEST");
    let open_k = 100usize;

    // Laziness: one routed pair opens exactly one shard file.
    let probe = ktpm_storage::ShardedStore::open(&manifest_path).expect("open sharded store");
    let &((a, b), _) = probe.manifest().routing.first().expect("a routed pair");
    probe.load_d(a, b);
    let probe_files_opened = probe.io().files_opened;
    assert_eq!(
        probe_files_opened, 1,
        "a single-pair read must open exactly its owning shard file"
    );

    // Cold query over the sharded tier.
    let sharded: ktpm_storage::SharedSource = ktpm_storage::ShardedStore::open(&manifest_path)
        .expect("open sharded store")
        .into_shared();
    let t = Instant::now();
    let plan = Arc::new(ktpm_core::QueryPlan::new(q.clone(), Arc::clone(&sharded)));
    let cold_n = ktpm_core::canonical(ktpm_core::TopkEnumerator::from_plan(&plan))
        .take(open_k)
        .count();
    let cold_secs = t.elapsed().as_secs_f64();
    let cold_files_opened = sharded.io().files_opened;
    assert!(cold_n > 0, "sharded smoke query must match");
    assert!(cold_files_opened <= shards as u64);

    // Fetch-latency comparison, local disk vs network hop, with a
    // 1-byte budget so every sampled read really fetches.
    let local = ktpm_storage::PagedStore::open_with_cache_bytes(&ds.path, 1)
        .expect("open paged store for latency sampling");
    let server =
        ktpm_net::BlockServer::spawn(&dir, ("127.0.0.1", 0)).expect("spawn in-process blockd");
    let remote = ktpm_storage::RemoteStore::connect_with(
        &server.local_addr().to_string(),
        ktpm_storage::RemoteOptions {
            cache_bytes: 1,
            ..ktpm_storage::RemoteOptions::default()
        },
    )
    .expect("connect to in-process blockd");
    let sample = |store: &dyn ktpm_storage::ClosureSource| -> Vec<f64> {
        let mut lat = Vec::new();
        for (a, b) in store.pair_keys().into_iter().take(100) {
            let t = Instant::now();
            store.load_d(a, b);
            store.load_e(a, b);
            lat.push(t.elapsed().as_secs_f64());
        }
        lat.sort_by(|x, y| x.partial_cmp(y).expect("finite latencies"));
        lat
    };
    let local_lat = sample(&local);
    let remote_lat = sample(&remote);
    assert!(remote.io().remote_fetches > 0);

    // Warm remote serving: a fresh plan over a hot remote store must
    // answer entirely out of the shared block cache.
    let hot: ktpm_storage::SharedSource =
        ktpm_storage::RemoteStore::connect(&server.local_addr().to_string())
            .expect("connect to in-process blockd")
            .into_shared();
    let cold_plan = Arc::new(ktpm_core::QueryPlan::new(q.clone(), Arc::clone(&hot)));
    let hot_n = ktpm_core::canonical(ktpm_core::TopkEnumerator::from_plan(&cold_plan))
        .take(open_k)
        .count();
    assert_eq!(hot_n, cold_n, "remote stream must equal the local one");
    let before = hot.io();
    let warm_plan = Arc::new(ktpm_core::QueryPlan::new(q.clone(), Arc::clone(&hot)));
    let warm_n = ktpm_core::canonical(ktpm_core::TopkEnumerator::from_plan(&warm_plan))
        .take(open_k)
        .count();
    assert_eq!(
        warm_n, cold_n,
        "warm remote re-opens must reproduce the stream"
    );
    let warm_remote_fetches = hot.io().since(&before).remote_fetches;

    // Full scrub: manifest CRC + every shard file's content hash and
    // per-block checksums.
    let scrub = ktpm_storage::ShardedStore::open(&manifest_path).expect("re-open for scrub");
    let scrub_failures = u64::from(scrub.verify().is_err());
    server.shutdown();

    ShardedStoreSmoke {
        shard_count: shards as usize,
        probe_files_opened,
        cold_files_opened,
        cold_secs,
        local_fetch_p50_ms: percentile_ms(&local_lat, 0.50),
        local_fetch_p99_ms: percentile_ms(&local_lat, 0.99),
        remote_fetch_p50_ms: percentile_ms(&remote_lat, 0.50),
        remote_fetch_p99_ms: percentile_ms(&remote_lat, 0.99),
        warm_remote_fetches,
        scrub_failures,
    }
}

struct KgpmSmoke {
    k: usize,
    matches: usize,
    cold_open_secs: f64,
    warm_open_secs: f64,
    open_speedup: f64,
    mtree_secs: f64,
    mtree_plus_secs: f64,
    warm_plan_hit: bool,
}

/// kGPM through the same one-surface machinery the tree engines use.
/// A cold open pays the pattern plan (spanning-tree decomposition,
/// verification edges, lower bounds over the undirected mirror) plus
/// streaming; warm opens share the `Arc`'d plan half and only stream.
/// The mtree vs mtree+ rows reproduce Figure 9's two drivers over one
/// shared plan. Finally the same pattern text is opened twice through
/// the service engine — the second open must be a plan-cache hit (the
/// CI gate: pattern plans are cached and delta-invalidated exactly
/// like tree plans).
fn kgpm_smoke() -> KgpmSmoke {
    let g = ktpm_workload::generate(&GraphSpec::power_law(600, 17));
    let ug = ktpm_graph::undirect(&g);
    let store = ktpm_storage::MemStore::new(ktpm_closure::ClosureTables::compute(&g))
        .with_graph(g.clone())
        .into_shared();
    // Q2 of the pattern family: 4 nodes, one non-tree edge.
    let q = ktpm_workload::pattern_set(&ug, ktpm_workload::pattern_family()[1].1, 1, 100)
        .into_iter()
        .next()
        .expect("pattern extraction on a 600-node power-law graph");
    let k = 20usize;
    let pool = ktpm_exec::default_pool();

    let lazy = kgpm_policy(ShardEngine::Lazy);
    let t = Instant::now();
    let plan = QueryPlan::new_pattern(q.clone(), g.interner(), &store)
        .expect("graph-attached store supports pattern plans");
    let cold = run_plan_stream(&store, &plan, k, Algo::Kgpm, &lazy, &pool);
    let cold_open_secs = t.elapsed().as_secs_f64();
    let matches = cold.produced;
    assert!(matches > 0, "kgpm smoke pattern must match");
    let warm_runs = 5;
    let t = Instant::now();
    for _ in 0..warm_runs {
        let m = run_plan_stream(&store, &plan, k, Algo::Kgpm, &lazy, &pool);
        assert_eq!(m.produced, matches, "warm opens must reproduce the stream");
    }
    let warm_open_secs = t.elapsed().as_secs_f64() / warm_runs as f64;

    let mut driver_secs = [0.0f64; 2];
    for (i, &(_, engine)) in KGPM_DRIVERS.iter().enumerate() {
        let m = run_plan_stream(&store, &plan, k, Algo::Kgpm, &kgpm_policy(engine), &pool);
        assert_eq!(m.produced, matches, "drivers must agree");
        driver_secs[i] = m.total_secs();
    }

    let handle = ktpm_service::QueryEngine::new(
        g.interner().clone(),
        store,
        ktpm_service::ServiceConfig::default(),
    );
    let text: String = q
        .edges()
        .iter()
        .map(|&(a, b)| format!("{} -> {}\n", q.label(a), q.label(b)))
        .collect();
    let before = handle.stats().metrics.plan_hits;
    for _ in 0..2 {
        let id = handle
            .open(&text, ktpm_service::Algo::Kgpm)
            .expect("kgpm open");
        handle.next(id, k).expect("next");
        handle.close(id).expect("close");
    }
    let warm_plan_hit = handle.stats().metrics.plan_hits > before;

    KgpmSmoke {
        k,
        matches,
        cold_open_secs,
        warm_open_secs,
        open_speedup: cold_open_secs / warm_open_secs.max(1e-12),
        mtree_secs: driver_secs[0],
        mtree_plus_secs: driver_secs[1],
        warm_plan_hit,
    }
}

struct GraphUpdateBench {
    update_secs: f64,
    warm_reopen_secs: f64,
    cold_rebuild_secs: f64,
    speedup: f64,
    warm_plan_hit: bool,
    touched_pairs: usize,
    plans_invalidated: usize,
    prefix_entries_invalidated: usize,
}

/// Re-open-after-update latency vs a cold rebuild. A weight-only delta
/// is applied through `QueryEngine::apply_delta` over a `LiveStore`
/// (incremental closure repair + delta-aware cache invalidation), then
/// a previously warmed query whose closure table the delta did *not*
/// touch is re-opened — delta-aware invalidation kept its plan cached,
/// so that open must be a plan hit with zero candidate discovery. The
/// baseline pays what a restart (or `FlushAll`) pays to serve the same
/// query after the update: full `ClosureTables::compute` on the
/// mutated graph plus a cold open. Both paths must stream identical
/// matches. `update_secs` (the repair + invalidation itself) is
/// reported for context; the gate compares the re-open latencies.
fn graph_update_bench(ds: &Dataset) -> GraphUpdateBench {
    use ktpm_graph::GraphDelta;
    use ktpm_service::Algo;
    let open_k = 100usize;
    let tables = ktpm_closure::ClosureTables::compute(&ds.graph);

    // Weight-bump one tail edge (low-degree end of this generator, so
    // the update stays local and most label pairs survive). A bump
    // masked by an equal-length alternative path touches nothing —
    // walk back until the dry-run repair reports real dirty tables.
    let all_edges: Vec<_> = ds.graph.edges().collect();
    let (delta, mutated, outcome) = all_edges
        .iter()
        .rev()
        .find_map(|e| {
            let delta = GraphDelta::new().set_weight(e.from, e.to, e.weight + 1);
            let (mutated, effects) = ds.graph.apply_delta(&delta).expect("delta applies");
            let mut probe = tables.clone();
            let outcome = probe.repair(&mutated, &effects);
            (!outcome.touched_pairs.is_empty()).then_some((delta, mutated, outcome))
        })
        .expect("some weight bump changes the closure");
    let touched: std::collections::BTreeSet<_> = outcome.touched_pairs.into_iter().collect();

    // Concrete-label one-edge queries (wildcards would match every
    // touched pair): one reading a table the delta leaves intact, one
    // reading a dirty table (so the report shows a real invalidation).
    let interner = ds.graph.interner();
    let pair_query = |key: &ktpm_closure::PairKey| {
        format!("{} -> {}\n", interner.name(key.0), interner.name(key.1))
    };
    let unaffected = tables
        .iter_pairs()
        .map(|(key, _)| key)
        .find(|key| !touched.contains(key))
        .map(|key| pair_query(&key))
        .expect("a label pair the delta does not touch");
    let affected = pair_query(touched.iter().next().expect("touched pairs"));

    let live = ktpm_storage::LiveStore::with_tables(ds.graph.clone(), tables).into_shared();
    let handle = ktpm_service::QueryEngine::new(
        interner.clone(),
        live,
        ktpm_service::ServiceConfig::default(),
    );
    for text in [&unaffected, &affected] {
        let id = handle.open(text, Algo::Topk).expect("warm open");
        handle.next(id, open_k).expect("warm next");
        handle.close(id).expect("warm close");
    }

    let t = Instant::now();
    let report = handle.apply_delta(&delta).expect("apply delta");
    let update_secs = t.elapsed().as_secs_f64();

    let before = handle.stats().metrics;
    let t = Instant::now();
    let id = handle.open(&unaffected, Algo::Topk).expect("warm re-open");
    let warm_batch = handle.next(id, open_k).expect("warm re-open next");
    handle.close(id).expect("warm re-open close");
    let warm_reopen_secs = t.elapsed().as_secs_f64();
    let warm_plan_hit = handle.stats().metrics.plan_hits == before.plan_hits + 1;

    let t = Instant::now();
    let cold_store =
        ktpm_storage::MemStore::new(ktpm_closure::ClosureTables::compute(&mutated)).into_shared();
    let cold = ktpm_service::QueryEngine::new(
        interner.clone(),
        cold_store,
        ktpm_service::ServiceConfig::default(),
    );
    let id = cold.open(&unaffected, Algo::Topk).expect("cold open");
    let cold_batch = cold.next(id, open_k).expect("cold next");
    cold.close(id).expect("cold close");
    let cold_rebuild_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        warm_batch.matches, cold_batch.matches,
        "warm re-open must stream identical to a cold rebuild"
    );

    GraphUpdateBench {
        update_secs,
        warm_reopen_secs,
        cold_rebuild_secs,
        speedup: cold_rebuild_secs / warm_reopen_secs.max(1e-12),
        warm_plan_hit,
        touched_pairs: report.touched_pairs,
        plans_invalidated: report.plans_invalidated,
        prefix_entries_invalidated: report.prefix_entries_invalidated,
    }
}

struct ServeSoak {
    connections: usize,
    sessions: usize,
    next_requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    protocol_errors: usize,
    sheds: u64,
}

/// Many-connection soak over the `ktpm-net` event-loop front end: every
/// connection pipelines its session OPENs, then rounds of `NEXT` across
/// all of them — hundreds of sessions concurrently open on one reactor
/// thread. Latency is per pipelined request, measured from the batch
/// write to that response's arrival (so it includes queueing behind
/// earlier requests on the same connection, which is what a pipelining
/// client experiences).
fn serve_soak(ds: &Dataset) -> ServeSoak {
    const CONNS: usize = 120;
    const SESSIONS_PER_CONN: usize = 5; // 600 concurrently open sessions
    const ROUNDS: usize = 3;
    const BATCH: usize = 5;
    let handle = ktpm_service::QueryEngine::new(
        ds.graph.interner().clone(),
        Arc::clone(&ds.store),
        ktpm_service::ServiceConfig::default(),
    );
    let server = ktpm_net::EventServer::spawn(
        handle.clone(),
        ("127.0.0.1", 0),
        ktpm_net::NetConfig::default(),
    )
    .expect("soak server");
    let addr = server.local_addr();
    let clients: Vec<_> = (0..CONNS)
        .map(|_| {
            std::thread::spawn(move || {
                use std::io::{BufRead, BufReader, Write};
                let stream = std::net::TcpStream::connect(addr).expect("soak connect");
                let _ = stream.set_nodelay(true);
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(120)))
                    .expect("read timeout");
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader = BufReader::new(stream);
                let mut errors = 0usize;
                let mut lat_ms: Vec<f64> = Vec::with_capacity(SESSIONS_PER_CONN * ROUNDS);
                // Pipeline every OPEN, then read the session ids.
                let batch = "OPEN topk-en L0 -> *#1; L0 -> *#2\n".repeat(SESSIONS_PER_CONN);
                writer.write_all(batch.as_bytes()).expect("write opens");
                let mut ids = Vec::new();
                for _ in 0..SESSIONS_PER_CONN {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read open response");
                    match line.trim().strip_prefix("OK ") {
                        Some(id) => ids.push(id.to_string()),
                        None => errors += 1,
                    }
                }
                for _ in 0..ROUNDS {
                    let mut batch = String::new();
                    for id in &ids {
                        batch.push_str(&format!("NEXT {id} {BATCH}\n"));
                    }
                    let t = Instant::now();
                    writer.write_all(batch.as_bytes()).expect("write nexts");
                    for _ in 0..ids.len() {
                        let mut header = String::new();
                        reader.read_line(&mut header).expect("read next response");
                        let mut fields = header.split_whitespace();
                        if fields.next() != Some("OK") {
                            errors += 1;
                            continue;
                        }
                        let count: usize = fields.next().and_then(|c| c.parse().ok()).unwrap_or(0);
                        for _ in 0..count {
                            let mut m = String::new();
                            reader.read_line(&mut m).expect("read match line");
                        }
                        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                }
                (lat_ms, errors)
            })
        })
        .collect();
    let mut lat: Vec<f64> = Vec::new();
    let mut protocol_errors = 0usize;
    for c in clients {
        let (l, e) = c.join().expect("soak client thread");
        lat.extend(l);
        protocol_errors += e;
    }
    lat.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| {
        if lat.is_empty() {
            return 0.0; // protocol_errors will be non-zero; CI fails on that
        }
        lat[((p / 100.0) * (lat.len() - 1) as f64).round() as usize]
    };
    let soak = ServeSoak {
        connections: CONNS,
        sessions: CONNS * SESSIONS_PER_CONN,
        next_requests: lat.len(),
        p50_ms: pct(50.0),
        p99_ms: pct(99.0),
        protocol_errors,
        sheds: handle.stats().metrics.shed_total,
    };
    server.shutdown();
    soak
}

/// The workspace root, resolved from this crate's manifest directory
/// (stable under any invocation cwd): `crates/bench` → two levels up.
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.0}KiB", b as f64 / 1024.0)
    }
}
