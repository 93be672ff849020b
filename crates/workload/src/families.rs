//! The experiment families of §6, scaled to laptop size.
//!
//! The paper's `GD1..GD5` are DBLP subgraphs of 10⁴..10⁶ nodes and
//! `GS1..GS6` synthetic graphs of 10⁴..2×10⁶; their transitive closures
//! reach 98–247 GB (Table 2). We keep the same *relative* progression at
//! roughly 1/10th..1/50th scale so every closure fits comfortably in
//! memory; `tests/paper_claims.rs` asserts the paper's claims on GD3 and
//! GS3 and lists the ones this scale cannot reproduce.

use crate::graphs::GraphSpec;

/// The default (third) member of each family, mirroring the paper's
/// "default real dataset GD3" / "default synthetic dataset GS3".
pub const DEFAULT_GD: usize = 2;
/// See [`DEFAULT_GD`].
pub const DEFAULT_GS: usize = 2;

/// The scaled `GD*` (citation) family: `(name, spec)` pairs.
pub fn gd_family() -> Vec<(&'static str, GraphSpec)> {
    let sizes = [1_000, 2_500, 5_000, 10_000, 20_000];
    let names = ["GD1", "GD2", "GD3", "GD4", "GD5"];
    names
        .iter()
        .zip(sizes)
        .map(|(&n, s)| (n, GraphSpec::citation(s, 0xD0 + s as u64)))
        .collect()
}

/// The scaled `GS*` (power-law) family.
pub fn gs_family() -> Vec<(&'static str, GraphSpec)> {
    let sizes = [1_000, 2_500, 5_000, 10_000, 20_000, 40_000];
    let names = ["GS1", "GS2", "GS3", "GS4", "GS5", "GS6"];
    names
        .iter()
        .zip(sizes)
        .map(|(&n, s)| (n, GraphSpec::power_law(s, 0x50 + s as u64)))
        .collect()
}

/// One member of the cyclic-pattern family (Figure 9's `Q1..Q4`):
/// pattern size and how many edges it carries beyond a spanning tree.
/// Feed it to [`crate::random_graph_query`] (over the *undirected*
/// view of the data graph) to extract a concrete [`GraphQuery`].
///
/// [`GraphQuery`]: ktpm_query::GraphQuery
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternSpec {
    /// Pattern nodes (distinct labels).
    pub nodes: usize,
    /// Non-tree edges beyond the spanning tree — `0` is a tree-shaped
    /// pattern (pure driver, no verification), larger values stress
    /// the lazy non-tree verification.
    pub extra_edges: usize,
}

/// The scaled kGPM pattern family `Q1..Q4` (§6.2, Figure 9): growing
/// pattern size and cyclicity. `Q1` is tree-shaped (the degenerate
/// case where kGPM reduces to its tree driver); `Q2..Q4` add non-tree
/// edges that only lazy verification can reject.
pub fn pattern_family() -> Vec<(&'static str, PatternSpec)> {
    vec![
        (
            "Q1",
            PatternSpec {
                nodes: 3,
                extra_edges: 0,
            },
        ),
        (
            "Q2",
            PatternSpec {
                nodes: 4,
                extra_edges: 1,
            },
        ),
        (
            "Q3",
            PatternSpec {
                nodes: 5,
                extra_edges: 2,
            },
        ),
        (
            "Q4",
            PatternSpec {
                nodes: 6,
                extra_edges: 3,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_increasing() {
        let gd = gd_family();
        assert_eq!(gd.len(), 5);
        assert!(gd.windows(2).all(|w| w[0].1.nodes < w[1].1.nodes));
        let gs = gs_family();
        assert_eq!(gs.len(), 6);
        assert!(gs.windows(2).all(|w| w[0].1.nodes < w[1].1.nodes));
    }

    #[test]
    fn defaults_point_at_third_member() {
        assert_eq!(gd_family()[DEFAULT_GD].0, "GD3");
        assert_eq!(gs_family()[DEFAULT_GS].0, "GS3");
    }

    #[test]
    fn pattern_family_grows_in_size_and_cyclicity() {
        let fam = pattern_family();
        assert_eq!(fam.len(), 4);
        assert_eq!(
            fam[0],
            (
                "Q1",
                PatternSpec {
                    nodes: 3,
                    extra_edges: 0
                }
            )
        );
        assert!(fam
            .windows(2)
            .all(|w| { w[0].1.nodes < w[1].1.nodes && w[0].1.extra_edges < w[1].1.extra_edges }));
    }

    #[test]
    fn pattern_sets_extract_concrete_cyclic_patterns() {
        let g = ktpm_graph::undirect(&crate::generate(&GraphSpec::power_law(600, 17)));
        for (name, spec) in pattern_family() {
            let set = crate::pattern_set(&g, spec, 3, 0xF1C);
            assert!(!set.is_empty(), "{name} extracts on a power-law graph");
            for q in &set {
                assert_eq!(q.len(), spec.nodes, "{name}");
                // Extraction adds *up to* extra_edges beyond the tree.
                assert!(q.excess_edges() <= spec.extra_edges, "{name}");
                assert_eq!(q.num_edges(), spec.nodes - 1 + q.excess_edges(), "{name}");
            }
        }
    }
}
