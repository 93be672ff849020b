//! kGPM as a first-class streaming engine: [`KgpmStream`] enumerates
//! top graph-pattern matches (§5 of the paper / Cheng, Zeng & Yu,
//! ICDE'13) behind the same [`MatchStream`](crate::MatchStream)
//! surface as every tree engine.
//!
//! The pattern's decomposition lives in the **pattern plan**
//! ([`QueryPlan::new_pattern`]): the primary spanning tree is the
//! plan's resolved query, the source is the store's undirected mirror,
//! and the non-tree edges plus the §5 residual lower bound ride along
//! as pattern metadata. The stream then composes:
//!
//! * a **driver** — any tree-match stream over the spanning tree, in
//!   non-decreasing tree score, handed to [`KgpmStream::new`] boxed.
//!   [`crate::build_stream`] drives with [`crate::ParTopk`] over the
//!   plan, as it runs `Algo::Par` (with one shard, the
//!   `TopkEnumerator::from_plan` stream inline). Figure 9's pair are the
//!   same constructor over other drivers: *mtree*, the ICDE'13 matcher,
//!   over the DP-B baseline ([`crate::baselines::DpBEnumerator`]), and
//!   *mtree+* over `Topk-EN`;
//! * **lazy verification** — each tree match's non-tree edges are
//!   checked by `lookup_dist` point probes against the mirror
//!   (disconnected ⇒ rejected), the verified distances added to the
//!   tree score, and the assignment reordered into pattern-node order;
//! * a **threshold-driven reorder heap** — verified matches wait in a
//!   `(score, assignment)` min-heap and are emitted only once
//!   `tree frontier + residual lower bound` is strictly above their
//!   score, which proves no later tree match can beat (or tie into)
//!   them. So the output is the canonical ascending
//!   `(score, assignment)` order without knowing `k`, whatever order the
//!   driver breaks its ties in — byte-identical for every driver and
//!   every shard count. Consumers cap with [`crate::limit`]; the heap
//!   never holds more than the matches of one unresolved score window.

use crate::matches::ScoredMatch;
use crate::plan::{PatternMeta, QueryPlan};
use crate::stream::{BoxedMatchStream, MatchStream, StreamState};
use ktpm_graph::{NodeId, NodeRow, Score};
use ktpm_storage::SharedSource;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A fully-verified graph-pattern match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphMatch {
    /// Sum of shortest distances over all pattern edges.
    pub score: Score,
    /// Mapped data node per pattern node (pattern node order).
    pub assignment: Vec<NodeId>,
}

/// Work counters for one kGPM stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KgpmStats {
    /// Tree matches pulled from the driver so far.
    pub tree_matches_enumerated: u64,
    /// Candidates discarded because a non-tree edge had no path.
    pub rejected_disconnected: u64,
}

/// The streaming kGPM engine; see module docs. Built by
/// [`crate::build_stream`] for [`crate::Algo::Kgpm`], or directly when
/// the caller wants [`Self::stats`] or another driver.
pub struct KgpmStream {
    driver: BoxedMatchStream,
    meta: Arc<PatternMeta>,
    /// The undirected mirror (the plan's source) for verification probes.
    source: SharedSource,
    residual_lb: Score,
    /// Verified matches not yet proven safe to emit, min-first.
    pending: BinaryHeap<Reverse<(Score, NodeRow)>>,
    /// Tree score of the last driver match; later ones score ≥ this.
    frontier: Score,
    driver_done: bool,
    stats: KgpmStats,
}

impl KgpmStream {
    /// The stream over pattern plan `plan`, pulling tree matches from
    /// `driver`: a canonical tree-match stream built from the same
    /// plan (the plan's resolved query is the spanning tree). The output
    /// is byte-identical whichever driver runs.
    ///
    /// # Panics
    ///
    /// If `plan` is not a pattern plan ([`QueryPlan::new_pattern`]);
    /// upstream surfaces validate before dispatching.
    pub fn new(plan: &QueryPlan, driver: BoxedMatchStream) -> Self {
        let meta = Arc::clone(
            plan.pattern_meta()
                .expect("Algo::Kgpm requires a pattern plan (QueryPlan::new_pattern)"),
        );
        let residual_lb = plan.residual_lb();
        KgpmStream {
            driver,
            meta,
            source: Arc::clone(plan.source()),
            residual_lb,
            pending: BinaryHeap::new(),
            frontier: 0,
            driver_done: false,
            stats: KgpmStats::default(),
        }
    }

    /// Work counters so far.
    pub fn stats(&self) -> KgpmStats {
        self.stats
    }

    /// Pulls one driver match: verify its non-tree edges, reorder into
    /// pattern order and park it in the emit heap (or reject it).
    fn pull_driver(&mut self) {
        let Some(tm) = MatchStream::next(&mut *self.driver) else {
            self.driver_done = true;
            return;
        };
        self.frontier = tm.score;
        self.stats.tree_matches_enumerated += 1;
        let mut full = tm.score;
        for &(ta, tb) in &self.meta.non_tree {
            match self
                .source
                .lookup_dist(tm.assignment[ta], tm.assignment[tb])
            {
                Some(d) => full += d as Score,
                None => {
                    self.stats.rejected_disconnected += 1;
                    return;
                }
            }
        }
        let mut row = vec![NodeId(u32::MAX); self.meta.pattern.len()];
        for (t, &p) in self.meta.pattern_node.iter().enumerate() {
            row[p] = tm.assignment[t];
        }
        self.pending.push(Reverse((full, NodeRow::from(row))));
    }

    fn next_match(&mut self) -> Option<ScoredMatch> {
        loop {
            if let Some(Reverse((score, _))) = self.pending.peek() {
                // Strict `<`: a later tree match may still tie this
                // score with a smaller assignment, so equal-bound
                // entries wait until the frontier passes them.
                if self.driver_done || *score < self.frontier + self.residual_lb {
                    let Reverse((score, assignment)) =
                        self.pending.pop().expect("peeked non-empty");
                    return Some(ScoredMatch { score, assignment });
                }
            } else if self.driver_done {
                return None;
            }
            self.pull_driver();
        }
    }
}

impl MatchStream for KgpmStream {
    fn next_batch(&mut self, n: usize, out: &mut Vec<ScoredMatch>) -> StreamState {
        out.reserve(n.min(1024));
        for _ in 0..n {
            match self.next_match() {
                Some(m) => out.push(m),
                None => return StreamState::Done,
            }
        }
        StreamState::More
    }

    fn next(&mut self) -> Option<ScoredMatch> {
        self.next_match()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::baselines::DpBEnumerator;
    use crate::{build_stream, limit, Algo, ParallelPolicy, TopkEnEnumerator};
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::{undirect, LabeledGraph};
    use ktpm_query::GraphQuery;
    use ktpm_storage::MemStore;

    pub(crate) fn labels(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    pub(crate) fn shared_for(g: &LabeledGraph) -> SharedSource {
        MemStore::new(ClosureTables::compute(g))
            .with_graph(g.clone())
            .into_shared()
    }

    pub(crate) fn pattern_plan(g: &LabeledGraph, q: GraphQuery) -> QueryPlan {
        QueryPlan::new_pattern(q, g.interner(), &shared_for(g)).unwrap()
    }

    /// Brute-force kGPM oracle over the undirected closure.
    pub(crate) fn oracle(g: &LabeledGraph, q: &GraphQuery) -> Vec<(Score, Vec<NodeId>)> {
        let ug = undirect(g);
        let tc = ClosureTables::compute(&ug);
        let mut candidates: Vec<Vec<NodeId>> = Vec::new();
        for u in 0..q.len() {
            let Some(l) = ug.interner().get(q.label(u)) else {
                return Vec::new();
            };
            candidates.push(ug.nodes_with_label(l).to_vec());
        }
        let mut out = Vec::new();
        let mut pick = vec![0usize; q.len()];
        'outer: loop {
            let assignment: Vec<NodeId> = pick
                .iter()
                .enumerate()
                .map(|(u, &i)| candidates[u][i])
                .collect();
            let mut total: Score = 0;
            let mut ok = true;
            for &(a, b) in q.edges() {
                match tc.dist(assignment[a], assignment[b]) {
                    Some(d) => total += d as Score,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                out.push((total, assignment));
            }
            for u in 0..q.len() {
                pick[u] += 1;
                if pick[u] < candidates[u].len() {
                    continue 'outer;
                }
                pick[u] = 0;
            }
            break;
        }
        out.sort();
        out
    }

    /// The served stream: [`build_stream`]'s `ParTopk` driver.
    fn served(plan: &QueryPlan, policy: &ParallelPolicy) -> BoxedMatchStream {
        build_stream(Algo::Kgpm, plan, policy, crate::exec::default_pool())
    }

    /// Every driver of one pattern plan: the served one with one shard,
    /// then Figure 9's mtree (DP-B) and mtree+ (`Topk-EN`).
    fn streams(plan: &QueryPlan) -> [(&'static str, BoxedMatchStream); 3] {
        [
            ("served", served(plan, &ParallelPolicy::with_shards(1))),
            (
                "mtree",
                Box::new(KgpmStream::new(
                    plan,
                    Box::new(DpBEnumerator::from_plan(plan)),
                )),
            ),
            (
                "mtree+",
                Box::new(KgpmStream::new(
                    plan,
                    Box::new(TopkEnEnumerator::from_plan(plan)),
                )),
            ),
        ]
    }

    fn collect(stream: BoxedMatchStream) -> Vec<(Score, Vec<NodeId>)> {
        stream
            .map(|m: ScoredMatch| (m.score, m.assignment.to_vec()))
            .collect()
    }

    #[test]
    fn stream_matches_oracle_exhaustively_for_both_engines() {
        let (paper, citation) = (paper_graph(), citation_graph());
        let cases = vec![
            (
                &paper,
                GraphQuery::new(labels(&["a", "c", "d"]), vec![(0, 1), (1, 2), (0, 2)]).unwrap(),
            ),
            (
                &paper,
                GraphQuery::new(labels(&["c", "d", "e"]), vec![(0, 1), (1, 2), (2, 0)]).unwrap(),
            ),
            (
                &paper,
                GraphQuery::new(
                    labels(&["a", "b", "c", "d"]),
                    vec![(0, 1), (0, 2), (2, 3), (1, 3)],
                )
                .unwrap(),
            ),
            (&paper, GraphQuery::new(labels(&["a"]), vec![]).unwrap()),
            // A tree-shaped pattern: no non-tree edge to verify, so kGPM
            // reduces to tree matching over the undirected closure.
            (
                &citation,
                GraphQuery::new(labels(&["C", "E", "S"]), vec![(0, 1), (0, 2)]).unwrap(),
            ),
        ];
        for (g, q) in cases {
            let want = oracle(g, &q);
            for (driver, stream) in streams(&pattern_plan(g, q.clone())) {
                assert_eq!(collect(stream), want, "{driver} on {q:?}");
            }
        }
    }

    #[test]
    fn sharded_stream_is_byte_identical_for_every_shard_count() {
        let g = paper_graph();
        let q = GraphQuery::new(labels(&["a", "c", "d"]), vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let plan = pattern_plan(&g, q);
        let want = collect(served(&plan, &ParallelPolicy::with_shards(1)));
        assert!(!want.is_empty());
        for shards in [2, 3, 5, 16] {
            assert_eq!(
                collect(served(&plan, &ParallelPolicy::with_shards(shards))),
                want,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn build_stream_dispatches_kgpm_and_limit_caps_it() {
        let g = citation_graph();
        let q = GraphQuery::new(labels(&["C", "E", "S"]), vec![(0, 1), (0, 2), (1, 2)]).unwrap();
        let plan = pattern_plan(&g, q.clone());
        let full: Vec<ScoredMatch> = build_stream(
            Algo::Kgpm,
            &plan,
            &ParallelPolicy::default(),
            crate::exec::default_pool(),
        )
        .collect();
        let want = oracle(&g, &q);
        let got: Vec<_> = full
            .iter()
            .map(|m| (m.score, m.assignment.to_vec()))
            .collect();
        assert_eq!(got, want);
        for k in [0, 2] {
            let capped: Vec<ScoredMatch> = limit(
                build_stream(
                    Algo::Kgpm,
                    &plan,
                    &ParallelPolicy::default(),
                    crate::exec::default_pool(),
                ),
                k,
            )
            .collect();
            assert_eq!(capped, full[..k.min(full.len())].to_vec(), "k = {k}");
        }
    }

    #[test]
    fn stats_count_enumeration_and_rejections() {
        let g = paper_graph();
        let q = GraphQuery::new(labels(&["a", "c", "d"]), vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let plan = pattern_plan(&g, q);
        let mut stream = KgpmStream::new(&plan, Box::new(DpBEnumerator::from_plan(&plan)));
        let mut out = Vec::new();
        while !stream.next_batch(16, &mut out).is_done() {}
        let stats = stream.stats();
        assert!(stats.tree_matches_enumerated >= out.len() as u64);
    }

    #[test]
    fn warm_pattern_plan_skips_decomposition_state() {
        // Two streams from one plan: the second must not redo the
        // residual-bound probes (plan caches them) and must agree.
        let g = paper_graph();
        let q = GraphQuery::new(labels(&["a", "c", "d"]), vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let plan = pattern_plan(&g, q);
        let cold = collect(served(&plan, &ParallelPolicy::with_shards(1)));
        plan.source().reset_io();
        let warm = collect(served(&plan, &ParallelPolicy::with_shards(1)));
        assert_eq!(cold, warm);
        // Warm: no D/E discovery; only the lookup_dist verification
        // probes (which do not count block I/O on MemStore) and the
        // driver's slot lists remain — built from the plan's cached
        // templates.
        assert_eq!(plan.source().io().d_entries, 0);
    }

    #[test]
    fn unmatchable_label_streams_empty() {
        let g = paper_graph();
        let q = GraphQuery::new(labels(&["a", "zz"]), vec![(0, 1)]).unwrap();
        let plan = pattern_plan(&g, q);
        assert!(collect(served(&plan, &ParallelPolicy::default())).is_empty());
        for (driver, stream) in streams(&plan) {
            assert!(collect(stream).is_empty(), "{driver}");
        }
    }

    #[test]
    fn snapshot_sources_reject_pattern_plans() {
        // A MemStore without an attached graph has no mirror.
        let g = paper_graph();
        let source = MemStore::new(ClosureTables::compute(&g)).into_shared();
        let q = GraphQuery::new(labels(&["a", "b"]), vec![(0, 1)]).unwrap();
        assert_eq!(
            QueryPlan::new_pattern(q, g.interner(), &source).err(),
            Some(crate::PatternUnsupported)
        );
    }
}
