//! Exhaustive reference enumeration — the test oracle.
//!
//! Enumerates *every* tree pattern match of a query by cartesian product
//! over the run-time graph, sorted by score. Exponential; only for small
//! inputs inside tests and cross-algorithm validation.

use crate::matches::ScoredMatch;
use crate::runtime::RuntimeGraph;
use ktpm_graph::Score;
use ktpm_query::QNodeId;

/// All matches of the query, sorted by `(score, assignment)`.
pub fn all_matches(rg: &RuntimeGraph) -> Vec<ScoredMatch> {
    let tree = rg.query().tree();
    let n_t = tree.len();
    let mut out = Vec::new();
    let mut assignment = vec![u32::MAX; n_t];
    for root_idx in 0..rg.candidates().len(tree.root()) as u32 {
        assignment[0] = root_idx;
        extend(rg, 1, 0, &mut assignment, &mut out);
    }
    let mut result: Vec<ScoredMatch> = out
        .into_iter()
        .map(|(score, assignment)| ScoredMatch {
            score,
            assignment: tree
                .node_ids()
                .map(|u| rg.node(u, assignment[u.index()]))
                .collect(),
        })
        .collect();
    result.sort_by(|a, b| (a.score, &a.assignment).cmp(&(b.score, &b.assignment)));
    result
}

/// The top-k scores of the query (the multiset the algorithms must agree
/// on; assignments with tied scores may legally differ between them).
pub fn topk_scores(rg: &RuntimeGraph, k: usize) -> Vec<Score> {
    all_matches(rg)
        .into_iter()
        .take(k)
        .map(|m| m.score)
        .collect()
}

fn extend(
    rg: &RuntimeGraph,
    pos: usize,
    score: Score,
    assignment: &mut Vec<u32>,
    out: &mut Vec<(Score, Vec<u32>)>,
) {
    let tree = rg.query().tree();
    if pos == tree.len() {
        out.push((score, assignment.clone()));
        return;
    }
    let u = QNodeId(pos as u32);
    let p = tree.parent(u).expect("non-root in BFS order");
    let pi = assignment[p.index()];
    // Iterate this position's possible children under the parent's pick.
    let edges: Vec<(u32, u32)> = rg.edges(u, pi).to_vec();
    for (j, d) in edges {
        assignment[pos] = j;
        extend(rg, pos + 1, score + d as Score, assignment, out);
    }
    assignment[pos] = u32::MAX;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::citation_graph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    #[test]
    fn figure1_has_five_matches() {
        let g = citation_graph();
        let q = TreeQuery::parse("C -> E\nC -> S")
            .unwrap()
            .resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        let rg = RuntimeGraph::load(&q, &store);
        let all = all_matches(&rg);
        assert_eq!(all.len(), 5);
        assert_eq!(
            all.iter().map(|m| m.score).collect::<Vec<_>>(),
            vec![2, 2, 3, 3, 3]
        );
        assert_eq!(topk_scores(&rg, 2), vec![2, 2]);
    }
}
