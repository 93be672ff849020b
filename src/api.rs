//! The one-stop query API: [`Executor`] + [`QueryBuilder`] over the
//! single [`MatchStream`] enumeration surface (defined in `ktpm-core`,
//! beside the plan and stream constructors they wrap, and re-exported
//! here).
//!
//! Every served engine in this workspace — `Topk`, `Topk-EN`,
//! `ParTopk` and the kGPM graph-pattern engine — emits
//! a canonical ranked match stream; this module is the one place
//! callers select and run them, replacing the per-algorithm
//! constructor special-casing the CLI, bench drivers and examples used
//! to carry. Ranked-enumeration systems present exactly one any-k
//! iterator over many internal algorithms (Tziavelis et al., VLDB
//! 2020); this is that interface here:
//!
//! ```
//! use ktpm::api::Executor;
//! use ktpm::prelude::*;
//!
//! let g = ktpm::graph::fixtures::citation_graph();
//! let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
//! let exec = Executor::new(g.interner().clone(), store);
//!
//! // Every tree algorithm behind one builder; streams are byte-identical.
//! let top: Vec<ScoredMatch> = exec
//!     .query("C -> E\nC -> S")?
//!     .algo(Algo::Par)
//!     .shards(2)
//!     .k(3)
//!     .stream()?
//!     .collect();
//! assert_eq!(top.len(), 3);
//!
//! // Batched pull: one virtual call per batch, not per match.
//! let mut stream = exec.query("C -> E\nC -> S")?.algo(Algo::Topk).stream()?;
//! let mut batch = Vec::new();
//! while !stream.next_batch(2, &mut batch).is_done() {}
//! assert_eq!(batch[..3], top[..]);
//! # Ok::<(), ktpm::api::ApiError>(())
//! ```
//!
//! The builder resolves to a
//! [`BoxedMatchStream`](ktpm_core::BoxedMatchStream) via the canonical
//! [`ktpm_core::build_stream`] dispatch, so anything expressible here
//! behaves identically inside the serving layer: `ktpm serve`'s engine
//! runs over one [`Executor`], so its sessions stream the very same
//! bytes. Repeated queries should share setup: build a plan handle
//! once ([`Executor::plan_for`]), pass it to each run
//! ([`QueryBuilder::plan`]), and warm runs skip candidate discovery
//! entirely. The store itself — I/O counters, graph version, graph
//! deltas on live stores — is [`Executor::source`].
//!
//! ## Graph patterns
//!
//! [`Executor::query`] accepts both query forms of the paper: twig
//! text and the undirected edge-list pattern form (for `Algo::Kgpm`).
//! The selected algorithm decides which form the text is read in
//! ([`Algo::form`](ktpm_core::Algo::form)): `Algo::Kgpm` builds a
//! *pattern plan* (decomposition + undirected mirror), every other
//! algorithm a tree plan — both through the one text → plan
//! constructor, [`QueryPlan::from_text`](ktpm_core::QueryPlan::from_text).
//! The store must expose an undirected mirror for pattern queries
//! (graph-attached stores do: `MemStore::with_graph`, `LiveStore`,
//! `OnDemandStore`).

pub use ktpm_core::{ApiError, Executor, QueryBuilder};
// Re-exported so `use ktpm::api::*` is self-contained.
pub use ktpm_core::{MatchStream, StreamState};

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_core::{limit, Algo, KgpmStream, QueryPlan, ScoredMatch, TopkEnEnumerator};
    use ktpm_graph::fixtures::citation_graph;
    use ktpm_graph::GraphDelta;
    use ktpm_query::GraphQuery;
    use ktpm_storage::{MemStore, StorageError};
    use std::sync::Arc;

    fn exec() -> Executor {
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        Executor::new(g.interner().clone(), store)
    }

    #[test]
    fn all_algorithms_stream_identically_through_the_builder() {
        let e = exec();
        let want = e
            .query("C -> E\nC -> S")
            .unwrap()
            .algo(Algo::Topk)
            .topk()
            .unwrap();
        assert_eq!(want.len(), 5);
        // Kgpm answers the *pattern* reading of the text (undirected
        // semantics — a different match set); it gets its own tests.
        for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Kgpm) {
            let mut b = e.query("C -> E\nC -> S").unwrap().algo(algo);
            if algo.sharded() {
                b = b.shards(3);
            }
            assert_eq!(b.topk().unwrap(), want, "{algo:?}");
        }
    }

    /// An executor whose store carries the graph, so pattern plans can
    /// derive the undirected mirror.
    fn pattern_exec() -> Executor {
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g))
            .with_graph(g.clone())
            .into_shared();
        Executor::new(g.interner().clone(), store)
    }

    #[test]
    fn kgpm_streams_through_the_facade() {
        let e = pattern_exec();
        // Cyclic pattern: only parses as a graph pattern.
        let got = e
            .query("C -> E\nE -> S\nS -> C")
            .unwrap()
            .algo(Algo::Kgpm)
            .k(10)
            .topk()
            .unwrap();
        // Reference: a sequential mtree+ stream over a pattern plan of
        // the same graph, built without the facade.
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g))
            .with_graph(g.clone())
            .into_shared();
        let q = GraphQuery::parse("C -> E\nE -> S\nS -> C").unwrap();
        let plan = QueryPlan::new_pattern(q, g.interner(), &store).unwrap();
        let mtree_plus = KgpmStream::new(&plan, Box::new(TopkEnEnumerator::from_plan(&plan)));
        let want: Vec<ScoredMatch> = limit(Box::new(mtree_plus), 10).collect();
        assert!(!want.is_empty());
        assert_eq!(got, want);
        // Sharded kgpm is byte-identical (Kgpm is a sharded algorithm).
        let sharded = e
            .query("C -> E\nE -> S\nS -> C")
            .unwrap()
            .algo(Algo::Kgpm)
            .shards(4)
            .k(10)
            .topk()
            .unwrap();
        assert_eq!(sharded, got);
    }

    #[test]
    fn pattern_only_text_needs_kgpm_and_tree_algos_say_so() {
        let e = pattern_exec();
        let err = e
            .query("C -> E\nE -> S\nS -> C")
            .unwrap()
            .algo(Algo::Topk)
            .stream()
            .err()
            .unwrap();
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
    }

    #[test]
    fn kgpm_on_tree_only_text_is_a_bad_query() {
        let e = pattern_exec();
        // `=>` child edges exist only in tree queries.
        let err = e
            .query("C => E")
            .unwrap()
            .algo(Algo::Kgpm)
            .stream()
            .err()
            .unwrap();
        assert!(matches!(err, ApiError::BadQuery(_)), "{err}");
    }

    #[test]
    fn kgpm_without_mirror_is_an_explicit_error() {
        // A plain MemStore (no attached graph) has no undirected mirror.
        let e = exec();
        let err = e
            .query("C -> E\nE -> S\nS -> C")
            .unwrap()
            .algo(Algo::Kgpm)
            .stream()
            .err()
            .unwrap();
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
    }

    #[test]
    fn plan_algo_mismatch_is_an_explicit_error() {
        let e = pattern_exec();
        let plan = e.plan_for("C -> E", Algo::Topk).unwrap();
        let err = e
            .query("C -> E")
            .unwrap()
            .algo(Algo::Kgpm)
            .plan(plan)
            .stream()
            .err()
            .unwrap();
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
    }

    #[test]
    fn plan_for_builds_the_form_the_algorithm_reads() {
        let e = pattern_exec();
        let tri = "C -> E\nE -> S\nS -> C";
        let plan = e.plan_for(tri, Algo::Kgpm).unwrap();
        assert!(plan.is_pattern());
        let run = |plan: &Arc<QueryPlan>| {
            e.query(tri)
                .unwrap()
                .algo(Algo::Kgpm)
                .plan(Arc::clone(plan))
                .topk()
                .unwrap()
        };
        let cold = run(&plan);
        assert_eq!(cold.len(), 12);
        assert_eq!(run(&plan), cold, "a warm pattern handle streams the same");
        // The handle errs as the builder would: a cycle is no tree.
        let err = e.plan_for(tri, Algo::Topk).err().unwrap();
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
        assert!(matches!(
            e.plan_for("C -> ", Algo::Kgpm),
            Err(ApiError::BadQuery(_))
        ));
    }

    #[test]
    fn k_caps_the_stream() {
        let e = exec();
        let top2 = e.query("C -> E\nC -> S").unwrap().k(2).topk().unwrap();
        assert_eq!(top2.len(), 2);
    }

    #[test]
    fn shards_on_sequential_algo_is_an_explicit_error() {
        let e = exec();
        let Err(err) = e
            .query("C -> E")
            .unwrap()
            .algo(Algo::Topk)
            .shards(4)
            .stream()
        else {
            panic!("sharded Topk must be rejected");
        };
        assert!(matches!(err, ApiError::Unsupported(_)), "{err}");
        // One shard is sequential anyway: allowed on any algorithm.
        assert!(e
            .query("C -> E")
            .unwrap()
            .algo(Algo::Topk)
            .shards(1)
            .stream()
            .is_ok());
    }

    #[test]
    fn bad_query_errors() {
        let e = exec();
        assert!(matches!(e.query("C -> "), Err(ApiError::BadQuery(_))));
    }

    #[test]
    fn apply_delta_updates_live_stores_and_errors_on_snapshots() {
        use ktpm_graph::NodeId;
        use ktpm_storage::LiveStore;
        let delta = GraphDelta::new().set_weight(NodeId(0), NodeId(3), 5);

        // Snapshot store: an explicit, typed refusal.
        let e = exec();
        assert!(matches!(
            e.source().apply_delta(&delta),
            Err(StorageError::UpdatesUnsupported(_))
        ));
        assert_eq!(e.source().graph_version(), 0);

        // Live store: the version bumps, the plan built before the
        // delta says it is affected, and a fresh plan streams exactly
        // what a cold build of the mutated graph does.
        let g = citation_graph();
        let e = Executor::new(
            g.interner().clone(),
            LiveStore::new(g.clone()).into_shared(),
        );
        let stale = e.plan_for("C -> S", Algo::TopkEn).unwrap();
        let before = e
            .query("C -> S")
            .unwrap()
            .plan(Arc::clone(&stale))
            .topk()
            .unwrap();
        let report = e.source().apply_delta(&delta).unwrap();
        assert_eq!(report.version, 1);
        assert_eq!(e.source().graph_version(), 1);
        assert!(stale.is_affected_by(&report));
        let after = e.query("C -> S").unwrap().topk().unwrap();
        let (mutated, _) = g.apply_delta(&delta).unwrap();
        let cold = Executor::new(
            mutated.interner().clone(),
            MemStore::new(ClosureTables::compute(&mutated)).into_shared(),
        )
        .query("C -> S")
        .unwrap()
        .topk()
        .unwrap();
        assert_eq!(after, cold, "post-delta stream equals cold rebuild");
        assert_ne!(after, before, "the delta moved a match's score");
    }

    #[test]
    fn resolved_queries_run_without_text() {
        let g = citation_graph();
        let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
        let e = Executor::new(g.interner().clone(), store);
        let rq = ktpm_query::TreeQuery::parse("C -> E\nC -> S")
            .unwrap()
            .resolve(g.interner());
        let got = e.query_resolved(rq).algo(Algo::Par).topk().unwrap();
        assert_eq!(got.len(), 5);
    }
}
