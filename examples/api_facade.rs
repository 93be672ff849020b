//! The `ktpm::api` facade in its smallest form: one `Executor`, one
//! `QueryBuilder`, every algorithm behind `Box<dyn MatchStream + Send>`.
//!
//! Three things to notice:
//!
//! 1. the builder is the ONLY dispatch — no per-algorithm
//!    constructors, and `Algo::ALL` streams are byte-identical;
//! 2. the pull primitive is **batched** (`next_batch`): one virtual
//!    call per batch, which is how `ktpm serve` answers `NEXT <s> n`;
//! 3. repeated runs share setup through a plan handle (`plan_for`,
//!    then `.plan(…)` on each run) — warm runs do zero candidate
//!    discovery.
//!
//! Run with: `cargo run --example api_facade`

use ktpm::api::Executor;
use ktpm::prelude::*;
use std::sync::Arc;

fn main() {
    let g = ktpm::graph::fixtures::citation_graph();
    // The attached graph gives pattern plans (Algo::Kgpm) their
    // undirected mirror; tree algorithms never look at it.
    let exec = Executor::new(
        g.interner().clone(),
        MemStore::new(ClosureTables::compute(&g))
            .with_graph(g.clone())
            .into_shared(),
    );
    let query = "C -> E\nC -> S";

    // (1) One builder, every engine in the registry, one stream. The
    // tree engines are byte-identical; `kgpm` answers the *pattern*
    // reading of the same text (undirected semantics), so its match
    // set legitimately differs — but is itself identical across shard
    // counts.
    let reference: Vec<ScoredMatch> = exec
        .query(query)
        .expect("valid query")
        .algo(Algo::Topk)
        .topk()
        .expect("stream");
    println!("{} matches for {query:?}", reference.len());
    for algo in Algo::ALL {
        let mut b = exec.query(query).expect("valid query").algo(algo);
        if algo.sharded() {
            b = b.shards(2); // capability-gated: rejected on other engines
        }
        let got = b.topk().expect("stream");
        if algo == Algo::Kgpm {
            let sequential = exec
                .query(query)
                .expect("valid query")
                .algo(algo)
                .topk()
                .expect("stream");
            assert_eq!(got, sequential, "kgpm sharding must not change bytes");
            println!(
                "  {:<8} ok ({} pattern matches, undirected semantics)",
                algo.name(),
                got.len()
            );
        } else {
            assert_eq!(got, reference, "{algo:?} must stream identically");
            println!(
                "  {:<8} ok ({} matches, byte-identical)",
                algo.name(),
                got.len()
            );
        }
    }

    // (2) Batched pull: drain the stream two matches per virtual call.
    let mut stream = exec
        .query(query)
        .expect("valid query")
        .algo(Algo::Par)
        .shards(2)
        .stream()
        .expect("stream");
    let mut page = Vec::new();
    let mut pages = 0;
    while !stream.next_batch(2, &mut page).is_done() {
        pages += 1;
    }
    assert_eq!(page, reference);
    println!("drained {} matches in {pages}+1 batched pulls", page.len());

    // (3) Shared plans: run 1 builds, run 2 reuses (zero discovery).
    // `plan_for` reads the text the way the algorithm does: a tree plan
    // for the tree engines, a pattern plan for kgpm.
    for algo in [Algo::TopkEn, Algo::Kgpm] {
        let plan = exec.plan_for(query, algo).expect("valid query");
        for run in 1..=2 {
            let t = std::time::Instant::now();
            let top = exec
                .query(query)
                .expect("valid query")
                .algo(algo)
                .plan(Arc::clone(&plan))
                .k(3)
                .topk()
                .expect("stream");
            println!(
                "{} run {run}: top-{} in {:?} ({})",
                algo.name(),
                top.len(),
                t.elapsed(),
                if run == 1 {
                    "cold: builds the plan"
                } else {
                    "warm: shared plan"
                }
            );
        }
    }
}
