//! Patent/paper citation impact analysis — the paper's Figure 1
//! motivation at realistic scale.
//!
//! Generates a DBLP-like citation graph (venue-labeled papers, citation
//! edges), persists its closure to a real on-disk store, and asks: "find
//! the k highest-impact triples (x, y, z) where a paper in venue A is
//! cited — directly or transitively — by papers in venues B and C"; the
//! closer the citations, the higher the impact (lower penalty score).
//!
//! Run with: `cargo run --release --example citation_analysis`

use ktpm::api::Executor;
use ktpm::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A 5000-node citation graph (GD3's size; `tests/paper_claims.rs`
    // asserts the paper's claims on GD3 itself).
    let spec = GraphSpec::citation(5000, 42);
    let g = generate(&spec);
    println!(
        "citation graph: {} papers, {} citations, {} venues",
        g.num_nodes(),
        g.num_edges(),
        g.stats().labels
    );

    // Offline: closure -> on-disk store (real block I/O from here on).
    let t0 = Instant::now();
    let tables = ClosureTables::compute(&g);
    println!(
        "closure computed in {:?}: {} edges (θ = {:.0})",
        t0.elapsed(),
        tables.num_edges(),
        tables.stats().theta
    );
    let mut path = std::env::temp_dir();
    path.push("ktpm-citation-demo.bin");
    write_store(&tables, &path).expect("write closure store");
    // v5 paged store: group regions are fixed-size CRC-checked blocks,
    // fetched lazily through a byte-budgeted LRU cache.
    let store: SharedSource = PagedStore::open(&path)
        .expect("open closure store")
        .into_shared();
    let exec = Executor::new(g.interner().clone(), Arc::clone(&store));

    // Extract a realistic 8-venue twig query from the graph itself, so it
    // is guaranteed to have matches (the paper's §6 methodology).
    let query = random_tree_query(
        &g,
        QuerySpec {
            size: 8,
            distinct_labels: true,
            seed: 7,
        },
    )
    .expect("query extraction");
    let resolved = query.resolve(g.interner());
    println!("\nquery (venue twig, {} nodes):", query.len());
    for (p, c, _) in query.edges() {
        println!(
            "  {} // {}",
            query.label_name(p).unwrap(),
            query.label_name(c).unwrap()
        );
    }

    // Online: top-10 highest-impact combinations, streamed through the
    // facade (Topk-EN: lazy loading — only the closure blocks the top
    // ranks actually need are read off disk).
    let t1 = Instant::now();
    let matches: Vec<ScoredMatch> = exec
        .query_resolved(resolved.clone())
        .algo(Algo::TopkEn)
        .k(10)
        .topk()
        .expect("stream");
    let dt = t1.elapsed();
    println!(
        "\ntop-{} impact combinations (Topk-EN, {dt:?}):",
        matches.len()
    );
    for (rank, m) in matches.iter().enumerate() {
        println!(
            "  #{:<2} total citation distance {:>3}: papers {:?}",
            rank + 1,
            m.score,
            m.assignment
        );
    }
    let io = store.io();
    println!(
        "\nI/O: {} block reads, {} bytes, {} closure edges loaded (of {})",
        io.block_reads,
        io.bytes_read,
        io.edges_read,
        tables.num_edges()
    );
    println!(
        "block cache: {} hits / {} misses, {} evictions, {} bytes resident",
        io.cache_hits, io.cache_misses, io.cache_evictions, io.cache_bytes_resident
    );
    std::fs::remove_file(&path).ok();
}
