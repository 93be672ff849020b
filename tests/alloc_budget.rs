//! Allocations per emitted match on the enumeration hot path: the
//! budget one flat row pool per enumerator buys (`Topk` and `Topk-EN`
//! both keep a queue entrant's row there and nothing else per match;
//! the clone encoding of earlier versions paid 4.4–6.3 per match on
//! this workload). Each engine has its own bound, about 1.5× what it
//! reads on this workload, so a regression in one is not hidden by the
//! headroom of another. Rendering a `NEXT` page is bounded the same
//! way: one buffer sized up front, not a string per number. A
//! `Topk-EN` session on a warm plan starts from the plan's lazy half
//! instead of replaying its `E`-seeds, so its construction is bounded
//! by a count independent of the candidate and seed counts.
//! Its own test binary because it installs a counting global allocator;
//! one `#[test]`, so nothing else allocates while it counts.

use ktpm::prelude::*;
use ktpm::service::protocol::render_next;
use ktpm::workload::{gs_family, DEFAULT_GS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, matches)` while draining up to 50 000 matches off
/// `it`; the enumerator is built before the call, so setup is excluded.
fn drain(it: impl Iterator<Item = ScoredMatch>) -> (u64, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let matches = it.take(50_000).count() as u64;
    (ALLOCS.load(Ordering::Relaxed) - before, matches)
}

#[test]
fn enumeration_allocates_less_than_once_per_match() {
    let g = generate(&gs_family()[DEFAULT_GS].1);
    let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
    let pool = Arc::new(WorkerPool::new(1));
    let one_shard = ParallelPolicy::with_shards(1);
    // (engine, allocations, matches, budget per match)
    let mut totals = [
        ("Topk", 0, 0, 0.01),
        ("Topk-EN", 0, 0, 0.06),
        ("ParTopk/1", 0, 0, 0.03),
    ];
    for (root, fanout) in [("L0", 2), ("L7", 2), ("L0", 3)] {
        let text: String = (1..=fanout).map(|i| format!("{root} -> *#{i}\n")).collect();
        let q = TreeQuery::parse(&text)
            .expect("wildcard star parses")
            .resolve(g.interner());
        let plan = QueryPlan::new(q.clone(), Arc::clone(&store));
        drop(TopkEnEnumerator::from_plan(&plan)); // builds the lazy half
        let before = ALLOCS.load(Ordering::Relaxed);
        let session = TopkEnEnumerator::from_plan(&plan);
        let start = ALLOCS.load(Ordering::Relaxed) - before;
        drop(session);
        assert!(
            start <= 64,
            "a warm-plan Topk-EN session on {text:?} took {start} allocations to start (bound 64)"
        );
        let rg = RuntimeGraph::load(&q, store.as_ref());
        let runs = [
            drain(TopkEnumerator::new(Arc::new(rg))),
            drain(TopkEnEnumerator::new(&q, Arc::clone(&store))),
            drain(ParTopk::new(
                &q,
                Arc::clone(&store),
                &one_shard,
                Arc::clone(&pool),
            )),
        ];
        for (total, (allocs, matches)) in totals.iter_mut().zip(runs) {
            total.1 += allocs;
            total.2 += matches;
        }
    }
    let report: Vec<String> = totals
        .iter()
        .map(|&(engine, allocs, matches, budget)| {
            format!(
                "{engine} {:.4} (< {budget}: {allocs} for {matches} matches)",
                allocs as f64 / matches as f64
            )
        })
        .collect();
    for (engine, allocs, matches, budget) in totals {
        assert!(
            matches >= 50_000 && (allocs as f64) < budget * matches as f64,
            "{engine} over its allocation budget; allocations per match: {}",
            report.join(", ")
        );
    }

    let page = NextBatch {
        matches: (0..250u32)
            .map(|i| ScoredMatch {
                score: u64::from(i) * 1_000_003,
                assignment: [i, i + 1, 1_000_000 + i].map(NodeId).into_iter().collect(),
            })
            .collect(),
        exhausted: false,
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let text = render_next(&page);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        allocs <= 2,
        "rendering a 250-match, 3-node page took {allocs} allocations (bound 2)"
    );
    assert_eq!(text.lines().count(), 251);
}
