//! Regenerates every table and figure of the paper's §6 evaluation.
//!
//! ```text
//! cargo run --release -p ktpm-bench --bin experiments -- all
//! cargo run --release -p ktpm-bench --bin experiments -- table2 fig6
//! cargo run --release -p ktpm-bench --bin experiments -- --quick all
//! ```
//!
//! Sections: `table2` (closure costs), `table3` (run-time graph sizes),
//! `fig6` (four-system comparison), `fig7` (Topk/Topk-EN scalability),
//! `fig8` (general twigs / Topk-GT), `fig9` (kGPM mtree vs mtree+),
//! `par` (ParTopk shard scalability over the GS family), `ablation`
//! (side queues, bound mode, block size — design choices the figures
//! do not isolate). Absolute numbers are machine- and scale-dependent.
//! Performance claims are made with `benchmark/`, not here.

use ktpm_bench::*;
use ktpm_core::{
    BoundMode, KgpmStream, MatchStream, ParallelPolicy, QueryPlan, ShardEngine, TopkEnEnumerator,
    TopkEnumerator,
};
use ktpm_exec::WorkerPool;
use ktpm_runtime::RuntimeGraph;
use ktpm_workload::{gd_family, gs_family, query_sizes, GraphSpec, DEFAULT_GD, DEFAULT_GS};
use std::sync::Arc;
use std::time::Instant;

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
    let mut sections: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if sections.is_empty() || sections.contains(&"all") {
        sections = vec![
            "table2", "table3", "fig6", "fig7", "fig8", "fig9", "par", "ablation",
        ];
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
            "ablation" => ablation(),
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

/// Ablations of three design choices the §6 figures do not isolate:
/// §3.3's `Q_l` side queues on and off (Topk, k = 100), §4.2's tight
/// loader bound against DP-P's loose one (Topk-EN, k = 20), and the
/// store's cursor block granularity (Topk-EN, k = 20). Each cell is the
/// best of five runs after one warm-up.
fn ablation() {
    fn best(mut run: impl FnMut() -> usize) -> f64 {
        run();
        (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(run());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
    let row = |choice: &str, variant: &str, time: &str| {
        println!("{:<20} {:<14} {:>12}", choice, variant, time);
    };
    println!("== Ablation: side queues (3.3), loader bound (4.2), cursor block size ==");
    row("choice", "variant", "time");
    let ds = prepare_dataset("ABL", &GraphSpec::citation(2000, 0xAB1));
    let queries = queries_for(&ds, 20, 3, true);
    let rgs: Vec<_> = queries
        .iter()
        .map(|q| RuntimeGraph::load(q, ds.store.as_ref()))
        .collect();
    for (variant, on) in [("with Q_l", true), ("without Q_l", false)] {
        let secs = best(|| {
            rgs.iter()
                .map(|rg| TopkEnumerator::with_side_queues(rg, on).take(100).count())
                .sum()
        });
        row("Topk k=100", variant, &fmt_secs(secs));
    }
    for (variant, mode) in [
        ("tight", BoundMode::Tight),
        ("loose (DP-P)", BoundMode::Loose),
    ] {
        let secs = best(|| {
            queries
                .iter()
                .map(|q| {
                    TopkEnEnumerator::with_bound(q, ds.store.as_ref(), mode)
                        .take(20)
                        .count()
                })
                .sum()
        });
        row("Topk-EN k=20 bound", variant, &fmt_secs(secs));
    }
    let g = ktpm_workload::generate(&GraphSpec::citation(1500, 0xAB2));
    let tables = ktpm_closure::ClosureTables::compute(&g);
    let spec = ktpm_workload::QuerySpec {
        size: 15,
        distinct_labels: true,
        seed: 3,
    };
    let query = ktpm_workload::random_tree_query(&g, spec)
        .expect("a 15-node query on a 1500-node citation graph")
        .resolve(g.interner());
    for block in [8usize, 64, 512] {
        let store = ktpm_storage::MemStore::with_block_edges(tables.clone(), block);
        let secs = best(|| TopkEnEnumerator::new(&query, &store).take(20).count());
        row("Topk-EN k=20 block", &block.to_string(), &fmt_secs(secs));
    }
    println!();
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
