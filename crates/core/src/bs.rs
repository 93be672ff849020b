//! Bottom-up `bs` computation over a fully-loaded run-time graph.
//!
//! `bs(v)` is "the lowest score of a match of `T_q(v)` containing `v`"
//! (Equation 2): for every child slot, the minimum of
//! `bs(child) + δ_min(v, child)`, summed over slots. Candidates with an
//! empty slot can never appear in a match and are removed, together with
//! edges pointing at them — the paper's "safely remove `v` from `G_R`"
//! step in §3.3.

use crate::runtime::RuntimeGraph;
use ktpm_graph::Score;
use ktpm_query::QNodeId;

/// `bs` values and validity flags per `(query node, candidate index)`.
#[derive(Debug, Clone)]
pub struct BsData {
    /// `bs[u][i]` — best subtree score; meaningful only when valid.
    bs: Vec<Vec<Score>>,
    /// Whether candidate `i` of `u` roots at least one subtree match.
    valid: Vec<Vec<bool>>,
}

impl BsData {
    /// Computes `bs` for every candidate, children before parents
    /// (reverse BFS order; children always have larger indices).
    pub fn compute(rg: &RuntimeGraph) -> Self {
        let tree = rg.query().tree();
        let n_t = tree.len();
        let mut bs: Vec<Vec<Score>> = (0..n_t)
            .map(|u| vec![0; rg.candidates().len(QNodeId(u as u32))])
            .collect();
        let mut valid: Vec<Vec<bool>> = (0..n_t)
            .map(|u| vec![true; rg.candidates().len(QNodeId(u as u32))])
            .collect();
        for ui in (0..n_t).rev() {
            let u = QNodeId(ui as u32);
            if tree.is_leaf(u) {
                continue; // bs = 0, valid = true
            }
            for i in 0..rg.candidates().len(u) {
                let mut total: Score = 0;
                let mut ok = true;
                for &c in tree.children(u) {
                    let mut best: Option<Score> = None;
                    for &(j, dist) in rg.edges(c, i as u32) {
                        if valid[c.index()][j as usize] {
                            let cand = bs[c.index()][j as usize] + dist as Score;
                            best = Some(best.map_or(cand, |b: Score| b.min(cand)));
                        }
                    }
                    match best {
                        Some(b) => total += b,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                valid[ui][i] = ok;
                bs[ui][i] = if ok { total } else { Score::MAX };
            }
        }
        BsData { bs, valid }
    }

    /// `bs` of candidate `i` of query node `u`.
    #[inline]
    pub fn bs(&self, u: QNodeId, i: u32) -> Score {
        self.bs[u.index()][i as usize]
    }

    /// Whether candidate `i` of `u` roots at least one subtree match.
    #[inline]
    pub fn is_valid(&self, u: QNodeId, i: u32) -> bool {
        self.valid[u.index()][i as usize]
    }

    /// The best (lowest) root `bs` — the top-1 match score, if any match
    /// exists.
    pub fn best_root_score(&self) -> Option<Score> {
        self.bs[0]
            .iter()
            .zip(&self.valid[0])
            .filter(|&(_, &ok)| ok)
            .map(|(&b, _)| b)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::paper_graph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    fn rg(query: &str) -> RuntimeGraph {
        let g = paper_graph();
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        RuntimeGraph::load(&q, &store)
    }

    #[test]
    fn fig2_query_bs_values() {
        // Query a -> b, a -> c, c -> d, c -> e over the fixture graph.
        let rg = rg("a -> b\na -> c\nc -> d\nc -> e");
        let data = BsData::compute(&rg);
        // Candidate v1 of root a: b slot min = δ(v1,v3)=1; c slot min =
        // 1 + bs(v5) where bs(v5) = δ(v5,v7) + δ(v5,v9) = 2 -> 3.
        // Total = 1 + 3 = 4.
        assert_eq!(data.best_root_score(), Some(4));
        // v2 (root cand 1) reaches everything through v1 at +1 per edge
        // except b: δ(v2,v3)? v2->v1->v3 = 2. c slot: δ(v2,v5)=2 + bs(v5)=2.
        assert!(data.is_valid(QNodeId(0), 1));
        assert_eq!(data.bs(QNodeId(0), 1), 2 + 2 + 2);
    }

    #[test]
    fn leaves_have_zero_bs() {
        let rg = rg("a -> b");
        let data = BsData::compute(&rg);
        let b = QNodeId(1);
        for i in 0..rg.candidates().len(b) as u32 {
            assert_eq!(data.bs(b, i), 0);
            assert!(data.is_valid(b, i));
        }
    }

    #[test]
    fn candidates_without_slot_edges_are_invalid() {
        // Query c -> s: both c nodes reach an s node, valid. Query s -> a
        // has no edges at all: every s candidate invalid.
        let rg = rg("s -> a");
        let data = BsData::compute(&rg);
        assert_eq!(data.best_root_score(), None);
        for i in 0..rg.candidates().len(QNodeId(0)) as u32 {
            assert!(!data.is_valid(QNodeId(0), i));
        }
    }

    #[test]
    fn invalidity_propagates_upward() {
        // d reaches e (v7->v9) but e reaches nothing labeled b; so in
        // query a -> d, d -> e, e -> b every candidate chain dies at e.
        let rg = rg("a -> d\nd -> e\ne -> b");
        let data = BsData::compute(&rg);
        assert_eq!(data.best_root_score(), None);
    }

    #[test]
    fn single_node_query_scores_zero() {
        let rg = rg("a");
        let data = BsData::compute(&rg);
        assert_eq!(data.best_root_score(), Some(0));
    }
}
