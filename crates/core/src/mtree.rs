//! Figure 9's two kGPM systems at a fixed `k`: *mtree*, the ICDE'13
//! enumerate-and-verify framework driven by the DP-B baseline
//! ([`crate::baselines::DpBEnumerator`]), and *mtree+*, the same
//! framework driven by `Topk-EN`. Each is the first `k` pulls of one
//! [`KgpmStream`](crate::KgpmStream) over a pattern plan, built with
//! that driver; the tests hold both to the brute-force kGPM oracle.

mod tests {
    use crate::baselines::DpBEnumerator;
    use crate::kgpm::tests::{labels, oracle, pattern_plan};
    use crate::{
        BoxedMatchStream, KgpmStats, KgpmStream, MatchStream, QueryPlan, ScoredMatch,
        TopkEnEnumerator,
    };
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::{LabeledGraph, Score};
    use ktpm_query::GraphQuery;
    use std::collections::HashSet;

    /// A tree-match driver built from a pattern plan.
    type Matcher = fn(&QueryPlan) -> BoxedMatchStream;

    fn mtree(plan: &QueryPlan) -> BoxedMatchStream {
        Box::new(DpBEnumerator::from_plan(plan))
    }

    fn mtree_plus(plan: &QueryPlan) -> BoxedMatchStream {
        Box::new(TopkEnEnumerator::from_plan(plan))
    }

    const MATCHERS: [(&str, Matcher); 2] = [("mtree", mtree), ("mtree+", mtree_plus)];

    /// The first `k` matches of `plan` under `matcher`, with the
    /// stream's work counters after them.
    fn topk_with_stats(
        plan: &QueryPlan,
        k: usize,
        matcher: Matcher,
    ) -> (Vec<ScoredMatch>, KgpmStats) {
        let mut stream = KgpmStream::new(plan, matcher(plan));
        let mut out = Vec::new();
        while out.len() < k {
            let Some(m) = MatchStream::next(&mut stream) else {
                break;
            };
            out.push(m);
        }
        (out, stream.stats())
    }

    fn topk_scores(plan: &QueryPlan, k: usize, matcher: Matcher) -> Vec<Score> {
        topk_with_stats(plan, k, matcher)
            .0
            .into_iter()
            .map(|m| m.score)
            .collect()
    }

    fn oracle_scores(g: &LabeledGraph, q: &GraphQuery, k: usize) -> Vec<Score> {
        oracle(g, q).into_iter().take(k).map(|(s, _)| s).collect()
    }

    #[test]
    fn both_matchers_agree_with_brute_force() {
        let g = paper_graph();
        let queries = vec![
            GraphQuery::new(labels(&["a", "c", "d"]), vec![(0, 1), (1, 2), (0, 2)]).unwrap(),
            GraphQuery::new(labels(&["c", "d", "e"]), vec![(0, 1), (1, 2), (2, 0)]).unwrap(),
            GraphQuery::new(
                labels(&["a", "b", "c", "d"]),
                vec![(0, 1), (0, 2), (2, 3), (1, 3)],
            )
            .unwrap(),
        ];
        for q in &queries {
            let expect = oracle_scores(&g, q, 10);
            let plan = pattern_plan(&g, q.clone());
            for (name, matcher) in MATCHERS {
                assert_eq!(
                    topk_scores(&plan, 10, matcher),
                    expect,
                    "matcher {name} on {q:?}"
                );
            }
        }
    }

    #[test]
    fn tree_pattern_reduces_to_tree_matching() {
        let g = citation_graph();
        let q = GraphQuery::new(labels(&["C", "E", "S"]), vec![(0, 1), (0, 2)]).unwrap();
        let expect = oracle_scores(&g, &q, 20);
        let plan = pattern_plan(&g, q);
        assert_eq!(topk_scores(&plan, 20, mtree_plus), expect);
    }

    #[test]
    fn matches_are_distinct_and_valid() {
        let g = paper_graph();
        let q = GraphQuery::new(labels(&["a", "c", "d"]), vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let plan = pattern_plan(&g, q.clone());
        let (matches, stats) = topk_with_stats(&plan, 50, mtree_plus);
        // A pattern plan's source is the undirected mirror.
        let mirror = plan.source();
        let mut seen = HashSet::new();
        for m in &matches {
            assert!(seen.insert(m.assignment.to_vec()));
            let mut total: Score = 0;
            for &(a, b) in q.edges() {
                total += mirror
                    .lookup_dist(m.assignment[a], m.assignment[b])
                    .expect("verified edge") as Score;
            }
            assert_eq!(total, m.score);
        }
        assert!(stats.tree_matches_enumerated >= matches.len() as u64);
    }

    #[test]
    fn unmatchable_label_yields_empty() {
        let g = paper_graph();
        let q = GraphQuery::new(labels(&["a", "zz"]), vec![(0, 1)]).unwrap();
        let plan = pattern_plan(&g, q);
        assert!(topk_scores(&plan, 5, mtree_plus).is_empty());
        assert!(topk_scores(&plan, 5, mtree).is_empty());
    }

    #[test]
    fn k_zero_is_empty() {
        let g = paper_graph();
        let q = GraphQuery::new(labels(&["a", "b"]), vec![(0, 1)]).unwrap();
        let plan = pattern_plan(&g, q);
        assert!(topk_scores(&plan, 0, mtree_plus).is_empty());
    }
}
