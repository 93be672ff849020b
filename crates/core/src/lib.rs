//! # ktpm-core
//!
//! The paper's primary contribution:
//!
//! * [`TopkEnumerator`] — **Algorithm 1** (`Topk`): optimal Lawler-based
//!   enumeration over a fully-loaded run-time graph,
//!   `O(m_R + k(n_T + log k))` total;
//! * [`PriorityLoader`] — **Algorithm 2** (`ComputeFirst`): the A*-style
//!   priority loader over the disk-resident closure, with the tight
//!   bound of §4.2 or the loose bound used by the DP-P baseline;
//! * [`TopkEnEnumerator`] — **Algorithm 3** (`Topk-EN`): Lawler
//!   enumeration over the lazily-loaded run-time graph with delayed
//!   candidate insertion;
//! * [`brute`] — an exhaustive reference enumerator used as a test
//!   oracle by the whole workspace;
//! * [`baselines`] — the ICDE'13 **DP-B/DP-P** baselines the paper
//!   compares against (§6), test references beside [`brute`] that no
//!   [`Algo`] serves;
//! * [`KgpmStream`] — the **kGPM** extension (§5): ranked enumeration
//!   of graph-pattern matches by [`decompose`]-ing the pattern into
//!   spanning trees, streaming the primary tree and lazily verifying
//!   non-tree edges under the residual lower bound (pattern plans:
//!   [`QueryPlan::new_pattern`]).
//!
//! `Topk-GT` (§5, general twigs) is not a separate algorithm: the
//! run-time graph is per-query-node (see [`runtime`]), so duplicate
//! labels, wildcards and `/` edges flow through the same enumerators.
//!
//! ## One enumeration surface
//!
//! Consumers do not touch the enumerators above directly: every engine
//! runs behind the object-safe [`MatchStream`] trait (primitive:
//! **batched pull**, [`MatchStream::next_batch`]), selected through the
//! canonical [`Algo`] registry and constructed by the single
//! [`build_stream`] dispatch from a shared [`QueryPlan`]. All tree
//! engines are byte-identical for a query (canonical order), and the
//! kGPM stream is byte-identical across shard counts and tree
//! matchers, so the algorithm choice is purely a performance decision.
//! [`Executor`] / [`QueryBuilder`] wrap this — text to plan to stream
//! — for one store; the root crate re-exports them as `ktpm::api`, the
//! serving layer's engine runs over one `Executor`, and `benchmark/`
//! calls the same dispatch.
//!
//! ## Parallel partitioned execution
//!
//! [`ParTopk`] splits the root candidate set into [`ShardSpec`] shards,
//! runs an independent enumerator per shard on a shared worker pool
//! ([`exec::WorkerPool`]) and lazily k-way-merges the streams. The
//! merged stream equals [`topk_full`] *exactly* (order, scores,
//! witnesses) because both emit the workspace's **canonical order** —
//! ascending `(score, assignment)`, the deterministic tie-break defined
//! in [`partition`]. Every enumerator pops in that order natively (its
//! heap compares `(score, assignment row)`), so `k` matches cost `k`
//! pops and a shard's stream is the full stream filtered to its roots.
//!
//! ## Shared query plans
//!
//! [`QueryPlan`] factors the per-query setup pipeline — candidate
//! discovery, run-time-graph load, `bs` pass, slot-list templates —
//! out of the enumerators into an immutable, `Arc`-shared object built
//! lazily and at most once per half (full-loading vs lazy-loading).
//! `TopkEnumerator::from_plan`, `TopkEnEnumerator::from_plan` and
//! `ParTopk::from_plan` construct enumerators that do **zero**
//! candidate discovery on a warm plan; the serving layer keeps a
//! cross-session cache of plans keyed by canonical query text.
//!
//! Every engine owns its inputs. `Topk` and DP-B hold an
//! `Arc<RuntimeGraph>`; `Topk-EN`, DP-P and their [`PriorityLoader`]
//! hold a [`ktpm_storage::SharedSource`]. So a one-off query
//! ([`topk_full`], [`topk_en`]) and a session parked between `NEXT`s
//! build the same engine, and any engine can move across threads.
//!
//! ## Hot path memory layout
//!
//! The paper's optimality argument is about enumeration *delay*, so
//! the pop → divide → emit cycle is engineered to allocate nothing per
//! match:
//!
//! * **One row per queue entrant.** Candidates stay the O(1)
//!   `CandidateSpec` links of §3.3 until they enter the global queue
//!   `Q`; an entrant gets its full assignment row — its parent's with
//!   the replaced subtree re-derived, O(n_T) — appended to one flat
//!   `Vec<u32>` pool. That row is the match's only representation: `Q`
//!   orders ties by it, the match is emitted from it, divided from it,
//!   and its children are later copied from it. In `Topk`, with the
//!   §3.3 side queues, at most two candidates enter `Q` per pop (the
//!   round's best child and one promotion), so a pop writes ≤ 2·n_T
//!   words. `Topk-EN` has no side queues: a pop's ≤ n_T children each
//!   enter `Q` when certified — at once, or later out of the parked
//!   set — so at most n_T entrants and n_T² words per pop. Parked
//!   candidates read their parent's row and entrant record by index.
//! * **Heap order = canonical order.** `Q` is a binary heap of
//!   `(score, entrant id)` comparing `(score, row)`; rows are read only
//!   when two scores tie. Worst case a tie compare is O(n_T), i.e.
//!   O(n_T · log k) per pop on a fully tied stream against the paper's
//!   O(n_T + log k). `Topk-EN` shares the structure: it certifies a
//!   candidate only strictly below the loader's bound, so no later
//!   insert can reorder a row it queued.
//! * **Compact side queues.** The §3.3 side queues `Q_l` are one pooled
//!   vector of per-round runs, pre-sorted in the canonical order with
//!   an O(1) sibling comparison — a round's non-best children are all
//!   known at divide time, so "promote the next best" is a cursor
//!   bump, not a heap operation.
//! * **No hashing in `Topk-EN`'s bookkeeping.** The plan resolves the
//!   §4.1 `E`-seeds once, in candidate-index space, both ways round:
//!   one row per parent candidate, in the list's rank order, and one
//!   parent list per child candidate. A session does not replay them:
//!   a seeded slot list is filled from its row on first touch, and the
//!   loader derives its start state (`b̄s`, activation, `Q_g`) from the
//!   rows' first entries in one pass. A cursor load tests "already
//!   seeded?" by binary search in one candidate's parent list, and
//!   candidate lookups binary-search the ascending candidate list
//!   instead of hashing. Per-candidate loader state is one flat array
//!   per field. Parked candidates chain per flat list id through an
//!   index in their own record. One expansion batch sweeps each
//!   dirtied list once (an epoch stamp per list), and the loader
//!   reuses one insert buffer.
//! * **Lifetime.** Pool and queues belong to one enumerator and
//!   live as long as it does: a parked service session keeps them (the
//!   resume state), and each `ParTopk` shard owns its own, so the
//!   k-way merge stays lock-free. Emitted [`ScoredMatch`]es store
//!   their row in a [`ktpm_graph::NodeRow`] — inline (no heap) for
//!   queries up to 8 nodes.
//!
//! Net effect (GS3 wildcard stars, k = 50 000): well under one
//! allocation per emitted match for every engine (the clone encoding
//! this replaced paid 4.4–6.3) — reported per run as `benchmark/`'s
//! `core.allocs_per_match` and held per engine by
//! `tests/alloc_budget.rs` (`Topk` < 0.01, `ParTopk/1` < 0.03,
//! `Topk-EN` < 0.10). The delay itself is held by count, not
//! stopwatch: `lawler.rs`'s `k_matches_cost_k_pops_and_two_rows_each`
//! and `enhanced.rs`'s `k_matches_cost_k_pops_and_n_t_rows_each`.

mod algo;
pub mod baselines;
pub mod brute;
mod bs;
mod candidates;
mod decompose;
mod dpb;
mod dpp;
mod enhanced;
pub mod exec;
mod executor;
mod kgpm;
mod lawler;
mod lazylist;
mod loader;
mod matches;
#[cfg(test)]
mod mtree;
pub mod parallel;
pub mod partition;
mod plan;
mod rgraph;
pub mod runtime;
pub mod stream;

pub use algo::Algo;
pub use bs::BsData;
pub use decompose::{decompose, SpanningTree};
#[doc(hidden)]
pub use enhanced::TopkEnCounters;
pub use enhanced::TopkEnEnumerator;
pub use executor::{tree_then_pattern, ApiError, Executor, QueryBuilder};
pub use kgpm::{GraphMatch, KgpmStats, KgpmStream};
#[doc(hidden)]
pub use lawler::TopkCounters;
pub use lawler::{SlotLists, SlotTemplates, TopkEnumerator};
pub use lazylist::LazySortedList;
pub use loader::{BoundMode, PriorityLoader};
pub use matches::ScoredMatch;
pub use parallel::{par_topk, ParTopk, ParallelPolicy};
pub use plan::{canonical_query_text, PatternUnsupported, PlanError, QueryForm, QueryPlan};
pub use stream::{build_stream, limit, BoxedMatchStream, MatchStream, StreamState};
// Re-exported so callers configuring shards need not depend on storage.
pub use ktpm_storage::ShardSpec;

use ktpm_query::ResolvedQuery;
use ktpm_storage::{ClosureSource, SharedSource};
use std::sync::Arc;

/// Convenience: top-k via Algorithm 1 (full run-time graph load), in
/// the canonical `(score, assignment)` order — the reference stream
/// every other execution mode (including [`ParTopk`]) reproduces
/// exactly.
pub fn topk_full(query: &ResolvedQuery, source: &dyn ClosureSource, k: usize) -> Vec<ScoredMatch> {
    let rg = runtime::RuntimeGraph::load(query, source);
    TopkEnumerator::new(Arc::new(rg)).take(k).collect()
}

/// Convenience: top-k via Algorithm 3 (priority-based lazy load), in
/// the canonical `(score, assignment)` order.
pub fn topk_en(query: &ResolvedQuery, source: SharedSource, k: usize) -> Vec<ScoredMatch> {
    TopkEnEnumerator::new(query, source).take(k).collect()
}

// Tests of the `exec` worker pool. They sit at the crate root so that
// their test paths stay `tests::…`, the names the suite lists them by.
#[cfg(test)]
mod tests {
    use crate::exec::{default_pool, WorkerPool};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs_across_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.width(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // join
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn run_returns_job_result() {
        let pool = WorkerPool::new(2);
        let results: Vec<usize> = (0..10).map(|i| pool.run(move || i * i)).collect();
        assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_preserves_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| {
                Box::new(move || {
                    // Stagger so completion order scrambles.
                    std::thread::sleep(std::time::Duration::from_micros(((32 - i) * 50) as u64));
                    i * 10
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = pool.scatter(jobs);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_of_nothing_is_empty() {
        let pool = WorkerPool::new(1);
        let out: Vec<u8> = pool.scatter(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn scatter_panics_if_any_job_panics() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("bad shard")),
            Box::new(|| 3),
        ];
        let observed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.scatter(jobs)));
        assert!(observed.is_err(), "caller must observe the panic");
        // The pool survives.
        assert_eq!(pool.run(|| 41 + 1), 42);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(1);
        // The panic surfaces on the caller thread...
        let observed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|| -> usize { panic!("bad query") })
        }));
        assert!(observed.is_err(), "caller must observe the panic");
        // ...but the single worker survives and serves the next job.
        assert_eq!(pool.run(|| 41 + 1), 42);
    }

    #[test]
    fn zero_width_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.width(), 1);
        assert_eq!(pool.run(|| 7), 7);
    }

    #[test]
    fn default_pool_is_shared_and_alive() {
        let a = default_pool();
        let b = default_pool();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.width() >= 2);
        assert_eq!(a.run(|| 5), 5);
    }
}
