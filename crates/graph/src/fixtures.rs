//! Shared example graphs reconstructed from the paper's figures.
//!
//! The figures are only partially legible in the source text, so these
//! reconstructions are pinned to the paper's *explicit* claims instead:
//! [`paper_graph`] satisfies every closure fact stated in Example 4.1
//! (`Lᵃᵥ₅ = {(v1,1),(v2,2)}`, `Eᵥ₅`, `Eᵥ₆`, `Dᶜd = {(v8,2)}`, ...), and
//! [`citation_graph`] reproduces Figure 1's patent-citation example.
//! [`label_star`] is synthetic: a graph whose closure has exactly as
//! many label pairs as asked, for storage layouts that page by pair.

use crate::digraph::{GraphBuilder, LabeledGraph};
use crate::types::NodeId;

/// A reconstruction of the Figure 2(b) data graph (13 nodes, labels
/// `a a b b c c d d e e s s s`), consistent with Example 4.1.
///
/// Node `vᵢ` of the paper is `NodeId(i-1)` here.
pub fn paper_graph() -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let labels = [
        "a", "a", "b", "b", "c", "c", "d", "d", "e", "e", "s", "s", "s",
    ];
    let nodes: Vec<NodeId> = labels.iter().map(|l| b.add_node(l)).collect();
    let edges = [
        (1, 0),  // v2 -> v1  (so δ(v2, v5) = δ(v2, v6) = 2)
        (0, 2),  // v1 -> v3
        (0, 4),  // v1 -> v5
        (0, 5),  // v1 -> v6
        (2, 3),  // v3 -> v4  (so δ(v1, v4) = 2 > δ(v1, v3))
        (4, 6),  // v5 -> v7
        (4, 8),  // v5 -> v9
        (4, 10), // v5 -> v11
        (5, 6),  // v6 -> v7
        (5, 11), // v6 -> v12
        (6, 7),  // v7 -> v8  (so d^c_{v8} = 2, the one stored D^c_d entry)
        (6, 8),  // v7 -> v9  (so δ(v6, v9) = 2, Example 4.1's E^c_e entry)
        (6, 12), // v7 -> v13
        (8, 9),  // v9 -> v10
    ];
    for (u, v) in edges {
        b.add_edge(nodes[u], nodes[v], 1);
    }
    b.build().expect("fixture graph is valid")
}

/// The Figure 1(b) patent-citation graph: 7 patents labeled with
/// disciplines C (computer science), E (economy), S (social science).
///
/// Figure 1 states: the top-1 match of the twig `C -> E, C -> S` is
/// `(v1, v5, v4)` with score 2, the top-2 has score 2, there are 5
/// matches in total, and the worst score is 3 (e.g. `(v2, ..., v4)` with
/// `δ(v2, v4) = 2`).
pub fn citation_graph() -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let labels = ["C", "C", "C", "S", "E", "E", "S"];
    let nodes: Vec<NodeId> = labels.iter().map(|l| b.add_node(l)).collect();
    // v1 cites an S and two E patents directly; v2 reaches v4 at distance
    // 2; v3 reaches no E patent at all. This yields exactly 5 matches
    // with scores {2, 2, 3, 3, 3} as Figure 1 describes.
    let edges = [
        (0, 3), // v1 -> v4 (S)
        (0, 4), // v1 -> v5 (E)
        (0, 5), // v1 -> v6 (E)
        (1, 5), // v2 -> v6 (E)
        (1, 2), // v2 -> v3
        (2, 3), // v3 -> v4 (so δ(v2, v4) = 2, the Figure 1(e) match)
        (4, 6), // v5 -> v7 (S)
    ];
    for (u, v) in edges {
        b.add_edge(nodes[u], nodes[v], 1);
    }
    b.build().expect("fixture graph is valid")
}

/// A star whose closure holds exactly `m` label pairs: one centre
/// labelled `c` with an edge (weight `1 + i % 3`) to each of `m`
/// leaves, leaf `i` labelled `l{i}`. Every leaf is followed by an
/// isolated node labelled `x{i}`, so label ids interleave — `c` is 0,
/// `l{i}` is `2i + 1`, `x{i}` is `2i + 2` — and the pairs are
/// `(0, 2i + 1)`: `(0, 0)` sorts before them all, `(0, 2i + 2)` between
/// two of them and `(0, 2m + 1)` after the last, none of them present.
pub fn label_star(m: usize) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let centre = b.add_node("c");
    for i in 0..m {
        let leaf = b.add_node(&format!("l{i}"));
        b.add_node(&format!("x{i}"));
        b.add_edge(centre, leaf, 1 + (i % 3) as u32);
    }
    b.build().expect("fixture graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_graph_shape() {
        let g = paper_graph();
        assert_eq!(g.num_nodes(), 13);
        assert_eq!(g.num_edges(), 14);
        assert!(g.is_unit_weighted());
        assert_eq!(g.stats().labels, 6);
    }

    #[test]
    fn citation_graph_shape() {
        let g = citation_graph();
        assert_eq!(g.num_nodes(), 7);
        let c = g.interner().get("C").unwrap();
        assert_eq!(g.nodes_with_label(c).len(), 3);
    }

    #[test]
    fn label_star_interleaves_present_and_absent_labels() {
        let g = label_star(3);
        assert_eq!(g.num_nodes(), 7);
        let id = |name: &str| g.interner().get(name).unwrap().0;
        assert_eq!(
            (id("c"), id("l0"), id("x0"), id("l2"), id("x2")),
            (0, 1, 2, 5, 6)
        );
        assert_eq!(label_star(0).num_nodes(), 1);
    }
}
