//! Top-k **graph** pattern matching (kGPM, §5): the query is a cyclic
//! undirected pattern, answered by spanning-tree decomposition with a
//! pluggable tree driver. The Figure 9 comparison — `mtree` (the DP-B
//! baseline inside) vs `mtree+` (Topk-EN inside) — builds each
//! `KgpmStream` over its driver directly; the served stream (the
//! `ktpm::api` facade, whose driver is `ParTopk`) is byte-identical
//! to both, for every shard count.
//!
//! Run with: `cargo run --release --example kgpm_demo`

use ktpm::api::Executor;
use ktpm::core::baselines::DpBEnumerator;
use ktpm::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// A kGPM tree driver, built from the pattern plan.
type Driver = fn(&QueryPlan) -> BoxedMatchStream;

fn main() {
    // A mid-sized power-law graph (between the scaled GS1 and GS2).
    let g = generate(&GraphSpec::power_law(1200, 11));
    println!(
        "data graph: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );

    // One executor over a graph-attached store: the attached graph is
    // what lets pattern plans derive the undirected mirror kGPM
    // matches against.
    let t0 = Instant::now();
    let store = MemStore::new(ClosureTables::compute(&g))
        .with_graph(g.clone())
        .into_shared();
    let exec = Executor::new(g.interner().clone(), Arc::clone(&store));
    println!("closure prepared in {:?}\n", t0.elapsed());

    // Extract a cyclic 5-node pattern with 2 extra edges (like Q2/Q3)
    // from the undirected view — the graph kGPM semantics see.
    let undirected = ktpm::graph::undirect(&g);
    let pattern =
        ktpm::workload::random_graph_query(&undirected, 5, 2, 3).expect("pattern extraction");
    println!(
        "pattern: {} nodes, {} edges ({} beyond a spanning tree)",
        pattern.len(),
        pattern.num_edges(),
        pattern.excess_edges()
    );
    for &(a, b) in pattern.edges() {
        println!("  {} -- {}", pattern.label(a), pattern.label(b));
    }

    // All three runs below share ONE pattern plan, the way `ktpm serve`
    // sessions share plans across `OPEN`s: the decomposition (driver
    // spanning tree, residual lower bound, mirror hookup) is paid here
    // once.
    let t = Instant::now();
    let plan = Arc::new(
        QueryPlan::new_pattern(pattern.clone(), g.interner(), &store)
            .expect("graph-attached store has a mirror"),
    );
    println!("\npattern plan built in {:?}", t.elapsed());

    // Figure 9: the same pattern under both tree drivers, each run
    // sequentially on this thread.
    let mut reference = Vec::new();
    let drivers: [(&str, Driver); 2] = [
        ("mtree  (DP-B driver)", |plan| {
            Box::new(DpBEnumerator::from_plan(plan))
        }),
        ("mtree+ (Topk-EN driver)", |plan| {
            Box::new(TopkEnEnumerator::from_plan(plan))
        }),
    ];
    for (name, driver) in drivers {
        let t = Instant::now();
        let stream = KgpmStream::new(&plan, driver(&plan));
        let matches: Vec<ScoredMatch> = limit(Box::new(stream), 10).collect();
        println!("{name}: {} matches in {:?}", matches.len(), t.elapsed());
        for (rank, m) in matches.iter().take(5).enumerate() {
            println!(
                "  #{:<2} score {:>3}  {:?}",
                rank + 1,
                m.score,
                m.assignment
            );
        }
        if reference.is_empty() {
            reference = matches;
        } else {
            assert_eq!(matches, reference, "drivers agree element-for-element");
        }
    }

    // The served stream: the facade drives with ParTopk, root-sharded
    // and byte-identical for every shard count, exactly like
    // `--algo par` on tree queries.
    let t = Instant::now();
    let sharded = exec
        .query_pattern(pattern)
        .plan(plan)
        .shards(4)
        .k(10)
        .topk()
        .expect("sharded kgpm stream");
    assert_eq!(sharded, reference);
    println!(
        "\nsharded (4 root shards): byte-identical in {:?}",
        t.elapsed()
    );
}
