//! One enumeration surface: the object-safe [`MatchStream`] trait and
//! the [`build_stream`] dispatch behind every execution layer.
//!
//! The paper's contribution is a family of interchangeable enumerators
//! that all emit the same ranked match stream; any-k systems in the
//! ranked-enumeration literature (Tziavelis et al., VLDB 2020) present
//! exactly one iterator interface over many internal algorithms. This
//! module is that interface for this workspace: every engine —
//! `Topk`, `Topk-EN`, `ParTopk`, the `kGPM` pattern engine — is
//! consumed as a
//! `Box<dyn MatchStream + Send>` in the **canonical**
//! `(score, assignment)` order, so sessions, the CLI, the bench
//! drivers and embedders stop dispatching on the algorithm themselves.
//! Every enumerator pops in that order natively (see
//! [`crate::partition`]): a batch of `n` is `n` pops, with no
//! look-ahead into a tie class.
//!
//! ## Batched pull
//!
//! The primitive is [`MatchStream::next_batch`], not a single-item
//! `next`: a parked service session answering `NEXT <s> n` used to pay
//! one virtual call (plus an `Option` move of the inline assignment
//! row, up to ~70 bytes) *per match*; with batched pull it pays one
//! virtual call per request and the engine's own monomorphized loop
//! pushes matches straight into the caller's buffer. [`MatchStream::next`]
//! is a provided method for callers that genuinely want one match.
//!
//! ### Contract
//!
//! `next_batch(n, out)` appends **up to** `n` matches to `out` and
//! returns [`StreamState::Done`] iff the stream is known exhausted.
//! Appending fewer than `n` implies `Done`; `More` promises exactly
//! `n` were appended (the stream may still turn out to be exhausted on
//! the next call, which then appends nothing and returns `Done`).
//! After `Done`, every later call appends nothing and returns `Done`.

use crate::algo::Algo;
use crate::exec::WorkerPool;
use crate::matches::ScoredMatch;
use crate::parallel::{ParTopk, ParallelPolicy};
use crate::plan::QueryPlan;
use std::sync::Arc;

/// Whether a [`MatchStream`] may produce more matches; see the module
/// docs for the exact `next_batch` contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamState {
    /// The batch was filled completely; the stream is not known to be
    /// exhausted.
    More,
    /// The stream is exhausted: this and every later call append
    /// nothing further.
    Done,
}

impl StreamState {
    /// `true` for [`StreamState::Done`].
    pub fn is_done(self) -> bool {
        matches!(self, StreamState::Done)
    }
}

/// An object-safe ranked match stream in the canonical
/// `(score, assignment)` order; implemented by every engine. See the
/// module docs for the batched-pull contract.
pub trait MatchStream {
    /// Appends up to `n` matches to `out`; `Done` iff exhausted.
    fn next_batch(&mut self, n: usize, out: &mut Vec<ScoredMatch>) -> StreamState;

    /// Pulls a single match. Provided in terms of [`Self::next_batch`];
    /// engines override it with their native single pull.
    fn next(&mut self) -> Option<ScoredMatch> {
        let mut one = Vec::with_capacity(1);
        self.next_batch(1, &mut one);
        one.pop()
    }
}

/// The boxed form every execution layer passes around.
pub type BoxedMatchStream = Box<dyn MatchStream + Send>;

/// `Box<dyn MatchStream + Send>` is itself an iterator, so stream
/// consumers keep the whole iterator vocabulary (`take`, `collect`,
/// `by_ref`, …). Per-item iteration costs one virtual call per match —
/// batch-sized consumers should call [`MatchStream::next_batch`].
impl<'a> Iterator for Box<dyn MatchStream + Send + 'a> {
    type Item = ScoredMatch;

    fn next(&mut self) -> Option<ScoredMatch> {
        MatchStream::next(&mut **self)
    }
}

/// Batches through an engine's own monomorphized `next` loop.
pub(crate) fn pull_batch(
    it: &mut impl Iterator<Item = ScoredMatch>,
    n: usize,
    out: &mut Vec<ScoredMatch>,
) -> StreamState {
    out.reserve(n.min(1024));
    for _ in 0..n {
        match it.next() {
            Some(m) => out.push(m),
            None => return StreamState::Done,
        }
    }
    StreamState::More
}

/// The enumerators pop in the canonical order natively, so a batch of
/// `n` is `n` pops through the engine's own monomorphized `next` loop,
/// with no look-ahead past the last match delivered. For `ParTopk` that
/// loop is the k-way merge: one virtual call per batch, not per match.
macro_rules! native_match_stream {
    ($($engine:ty),* $(,)?) => {$(
        impl $crate::MatchStream for $engine {
            fn next_batch(
                &mut self,
                n: usize,
                out: &mut Vec<$crate::ScoredMatch>,
            ) -> $crate::StreamState {
                $crate::stream::pull_batch(self, n, out)
            }

            fn next(&mut self) -> Option<$crate::ScoredMatch> {
                Iterator::next(self)
            }
        }
    )*};
}
pub(crate) use native_match_stream;

native_match_stream!(crate::TopkEnumerator, crate::TopkEnEnumerator, ParTopk);

/// A stream truncated after `k` matches (the builder's `.k(…)`).
struct Limited {
    inner: BoxedMatchStream,
    left: usize,
}

impl MatchStream for Limited {
    fn next_batch(&mut self, n: usize, out: &mut Vec<ScoredMatch>) -> StreamState {
        if self.left == 0 {
            return StreamState::Done;
        }
        if n == 0 {
            // Matches remain: an empty batch must report `More` (the
            // contract reserves `Done` for exhaustion, and `Done` is
            // sticky), like every engine impl does.
            return StreamState::More;
        }
        let take = n.min(self.left);
        let before = out.len();
        let state = self.inner.next_batch(take, out);
        self.left -= out.len() - before; // appended ≤ take ≤ left
        if self.left == 0 {
            StreamState::Done
        } else {
            state
        }
    }

    fn next(&mut self) -> Option<ScoredMatch> {
        if self.left == 0 {
            return None;
        }
        let m = MatchStream::next(&mut *self.inner);
        if m.is_some() {
            self.left -= 1;
        }
        m
    }
}

/// Caps `stream` at `k` total matches.
pub fn limit(stream: BoxedMatchStream, k: usize) -> BoxedMatchStream {
    Box::new(Limited {
        inner: stream,
        left: k,
    })
}

/// **The** algorithm dispatch: builds `algo`'s stream from a shared
/// [`QueryPlan`]. Every arm emits the canonical `(score, assignment)`
/// order, so the choice of engine changes performance characteristics
/// only — never the stream. The tree arms box a raw enumerator, whose
/// heap order *is* the canonical order: `n` matches
/// cost `n` pops. On a warm plan, no arm repeats candidate discovery
/// (see [`QueryPlan`]).
///
/// `policy`/`pool` drive [`Algo::Par`] (root sharding + the worker
/// pool its shard jobs run on) and [`Algo::Kgpm`], whose tree driver is
/// that same `ParTopk` stream over the pattern plan's spanning tree;
/// the sequential engines ignore both.
/// This is the single place algorithm names meet constructors — the
/// serving layer, CLI, bench drivers and the `ktpm::api` facade all
/// call it instead of matching on the algorithm themselves.
pub fn build_stream(
    algo: Algo,
    plan: &QueryPlan,
    policy: &ParallelPolicy,
    pool: Arc<WorkerPool>,
) -> BoxedMatchStream {
    match algo {
        Algo::Topk => Box::new(crate::TopkEnumerator::from_plan(plan)),
        Algo::TopkEn => Box::new(crate::TopkEnEnumerator::from_plan(plan)),
        Algo::Par => Box::new(ParTopk::from_plan(plan, policy, pool)),
        // The one engine over *pattern* plans; panics on a tree plan
        // (upstream surfaces validate the plan kind before dispatch).
        Algo::Kgpm => {
            let driver = Box::new(ParTopk::from_plan(plan, policy, pool));
            Box::new(crate::KgpmStream::new(plan, driver))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{DpBEnumerator, DpPEnumerator};
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::LabeledGraph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    fn plan_for(g: &LabeledGraph, query: &str) -> QueryPlan {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(g), 2).into_shared();
        QueryPlan::new(q, store)
    }

    fn pool() -> Arc<WorkerPool> {
        crate::exec::default_pool()
    }

    #[test]
    fn every_algo_streams_the_same_matches() {
        let g = citation_graph();
        let plan = plan_for(&g, "C -> E\nC -> S");
        let want: Vec<ScoredMatch> =
            build_stream(Algo::Topk, &plan, &ParallelPolicy::default(), pool()).collect();
        assert_eq!(want.len(), 5);
        // Kgpm is the one engine over pattern plans, not tree plans —
        // it has its own byte-identity tests in `crate::kgpm`.
        for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Kgpm) {
            let got: Vec<ScoredMatch> =
                build_stream(algo, &plan, &ParallelPolicy::with_shards(3), pool()).collect();
            assert_eq!(got, want, "{algo:?}");
        }
    }

    /// Wildcard twigs over a unit-weight graph: hop-count scores, so
    /// nearly every match is tied with hundreds of others and the
    /// stream's order is decided by the tie-break alone. The 10-node
    /// twig's rows are past `NodeRow::INLINE`.
    #[test]
    fn tie_heavy_wildcard_twigs_stream_identically_from_every_engine() {
        use ktpm_workload::{generate, GraphSpec};
        let g = generate(&GraphSpec {
            nodes: 40,
            labels: 3,
            label_skew: 0.3,
            avg_out_degree: 1.3,
            community: 20,
            cross_fraction: 0.2,
            weight_range: (1, 1),
            seed: 0x7135,
        });
        let star = "L0 -> *#1\nL0 -> *#2";
        let twig5 = "L1 -> *#1\nL1 -> *#2\n*#1 -> *#3\n*#1 -> *#4";
        let twig10 = "L0 -> *#1\nL0 -> *#2\n*#1 -> *#3\n*#1 -> *#4\n*#2 -> *#5\n\
                      *#2 -> *#6\n*#3 -> *#7\n*#3 -> *#8\n*#4 -> *#9";
        for (query, brute_feasible) in [(star, true), (twig5, true), (twig10, false)] {
            let plan = plan_for(&g, query);
            let n_t = plan.query().len();
            let want: Vec<ScoredMatch> =
                build_stream(Algo::Topk, &plan, &ParallelPolicy::default(), pool())
                    .take(5_000)
                    .collect();
            let distinct_scores = want.windows(2).filter(|w| w[0].score != w[1].score).count() + 1;
            assert!(
                want.len() >= 200 && distinct_scores * 20 <= want.len(),
                "{n_t}-node twig is not tie-heavy: {} matches, {distinct_scores} scores",
                want.len()
            );
            assert!(want
                .windows(2)
                .all(|w| { (w[0].score, &w[0].assignment) < (w[1].score, &w[1].assignment) }));
            let en: Vec<ScoredMatch> = crate::TopkEnEnumerator::from_plan(&plan)
                .take(want.len())
                .collect();
            assert_eq!(en, want, "Topk-EN, {n_t}-node twig");
            let dpb: Vec<ScoredMatch> = DpBEnumerator::from_plan(&plan).take(want.len()).collect();
            assert_eq!(dpb, want, "DP-B, {n_t}-node twig");
            let dpp: Vec<ScoredMatch> = DpPEnumerator::new(plan.query(), Arc::clone(plan.source()))
                .take(want.len())
                .collect();
            assert_eq!(dpp, want, "DP-P, {n_t}-node twig");
            for shards in [1usize, 2, 3] {
                let policy = ParallelPolicy::with_shards(shards);
                let par: Vec<ScoredMatch> = ParTopk::from_plan(&plan, &policy, pool())
                    .take(want.len())
                    .collect();
                assert_eq!(par, want, "ParTopk/{shards}, {n_t}-node twig");
            }
            if brute_feasible {
                let mut all = crate::brute::all_matches(plan.runtime_graph());
                all.truncate(want.len());
                assert_eq!(all, want, "brute, {n_t}-node twig");
            }
        }
    }

    #[test]
    fn batched_pull_equals_item_pull_under_any_interleaving() {
        let g = paper_graph();
        let plan = plan_for(&g, "a -> b\na -> c\nc -> d\nc -> e");
        for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Kgpm) {
            let want: Vec<ScoredMatch> =
                build_stream(algo, &plan, &ParallelPolicy::with_shards(2), pool()).collect();
            // Interleave next() and next_batch() pulls of varying size.
            let mut it = build_stream(algo, &plan, &ParallelPolicy::with_shards(2), pool());
            let mut got = Vec::new();
            let mut step = 0usize;
            loop {
                let state = if step.is_multiple_of(2) {
                    match MatchStream::next(&mut *it) {
                        Some(m) => {
                            got.push(m);
                            StreamState::More
                        }
                        None => StreamState::Done,
                    }
                } else {
                    it.next_batch(1 + step % 3, &mut got)
                };
                if state.is_done() {
                    // Done must be sticky: nothing more comes out.
                    let len = got.len();
                    assert_eq!(it.next_batch(8, &mut got), StreamState::Done);
                    assert_eq!(got.len(), len, "{algo:?}: Done stream produced more");
                    break;
                }
                step += 1;
            }
            assert_eq!(got, want, "{algo:?}");
        }
    }

    #[test]
    fn next_batch_appends_without_clobbering() {
        let g = citation_graph();
        let plan = plan_for(&g, "C -> E\nC -> S");
        let mut it = build_stream(Algo::TopkEn, &plan, &ParallelPolicy::default(), pool());
        let mut out = Vec::new();
        assert_eq!(it.next_batch(2, &mut out), StreamState::More);
        assert_eq!(out.len(), 2);
        let state = it.next_batch(100, &mut out);
        assert_eq!(state, StreamState::Done);
        assert_eq!(out.len(), 5, "later batches append after the first two");
    }

    #[test]
    fn limit_caps_the_stream_and_reports_done() {
        let g = citation_graph();
        let plan = plan_for(&g, "C -> E\nC -> S");
        let full: Vec<ScoredMatch> =
            build_stream(Algo::Topk, &plan, &ParallelPolicy::default(), pool()).collect();
        let mut it = limit(
            build_stream(Algo::Topk, &plan, &ParallelPolicy::default(), pool()),
            3,
        );
        let mut out = Vec::new();
        let state = it.next_batch(10, &mut out);
        assert_eq!(out, full[..3].to_vec());
        assert_eq!(state, StreamState::Done);
        assert_eq!(MatchStream::next(&mut *it), None);
        // And item-wise.
        let it = limit(
            build_stream(Algo::Topk, &plan, &ParallelPolicy::default(), pool()),
            2,
        );
        assert_eq!(it.collect::<Vec<_>>(), full[..2].to_vec());
    }

    #[test]
    fn limited_zero_sized_batch_is_not_done() {
        // `Done` means exhausted and is sticky; an n == 0 probe on a
        // live capped stream must say `More` and leave the stream
        // intact (this used to report a spurious `Done`).
        let g = citation_graph();
        let plan = plan_for(&g, "C -> E\nC -> S");
        let mut it = limit(
            build_stream(Algo::Topk, &plan, &ParallelPolicy::default(), pool()),
            3,
        );
        let mut out = Vec::new();
        assert_eq!(it.next_batch(0, &mut out), StreamState::More);
        assert!(out.is_empty());
        assert_eq!(it.next_batch(10, &mut out), StreamState::Done);
        assert_eq!(out.len(), 3);
        // Exhausted now: Done is sticky, even for n == 0.
        assert_eq!(it.next_batch(0, &mut out), StreamState::Done);
        assert_eq!(it.next_batch(4, &mut out), StreamState::Done);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn boxed_streams_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BoxedMatchStream>();
    }
}
