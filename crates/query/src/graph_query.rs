//! Undirected labeled graph patterns for top-k graph pattern matching
//! (kGPM, §5 of the paper / Cheng, Zeng & Yu ICDE'13).
//!
//! A [`GraphQuery`] is a small connected undirected graph whose nodes
//! carry label names. `ktpm-core`'s kGPM engine decomposes it into
//! rooted spanning trees and plugs in a top-k tree matcher.

use std::collections::{HashMap, HashSet};
use std::fmt;

/// Errors raised while parsing the graph-pattern text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphParseError {
    /// A line did not have the form `<node> -> <node>` or `<node>`.
    BadLine(usize, String),
    /// `=>` (child) edges are a tree-query concept; pattern edges map to
    /// shortest paths and are always written `->`.
    ChildEdge(usize),
    /// Wildcard nodes (`*`) are not supported in graph patterns — the
    /// kGPM decomposition needs concrete, distinct labels.
    Wildcard(usize),
    /// `label#disc` discriminators are not supported in graph patterns —
    /// pattern nodes are identified by (distinct) label alone.
    Discriminator(usize, String),
    /// The parsed nodes/edges do not form a valid pattern.
    Structure(GraphQueryError),
}

impl fmt::Display for GraphParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphParseError::BadLine(n, l) => write!(f, "line {n}: cannot parse {l:?}"),
            GraphParseError::ChildEdge(n) => write!(
                f,
                "line {n}: '=>' child edges are not valid in graph patterns (use '->')"
            ),
            GraphParseError::Wildcard(n) => {
                write!(
                    f,
                    "line {n}: wildcard '*' nodes are not valid in graph patterns"
                )
            }
            GraphParseError::Discriminator(n, t) => write!(
                f,
                "line {n}: discriminator {t:?} is not valid in graph patterns \
                 (labels must be distinct)"
            ),
            GraphParseError::Structure(e) => write!(f, "invalid graph pattern: {e}"),
        }
    }
}

impl std::error::Error for GraphParseError {}

impl From<GraphQueryError> for GraphParseError {
    fn from(e: GraphQueryError) -> Self {
        GraphParseError::Structure(e)
    }
}

/// Errors raised while building a graph query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphQueryError {
    /// Empty pattern.
    Empty,
    /// Self loop.
    SelfLoop(usize),
    /// Edge endpoint out of range.
    UnknownNode(usize),
    /// The pattern is not connected.
    Disconnected,
    /// Duplicate labels are not supported by the kGPM decomposition here
    /// (the paper's kGPM section also assumes distinct labels).
    DuplicateLabel(String),
}

impl fmt::Display for GraphQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphQueryError::Empty => write!(f, "graph query has no nodes"),
            GraphQueryError::SelfLoop(u) => write!(f, "self loop on node {u}"),
            GraphQueryError::UnknownNode(u) => write!(f, "edge references unknown node {u}"),
            GraphQueryError::Disconnected => write!(f, "graph query must be connected"),
            GraphQueryError::DuplicateLabel(l) => write!(f, "duplicate label {l:?} in graph query"),
        }
    }
}

impl std::error::Error for GraphQueryError {}

/// A connected undirected labeled graph pattern with distinct labels.
#[derive(Clone, Debug)]
pub struct GraphQuery {
    labels: Vec<String>,
    /// Undirected edges as ordered pairs `(min, max)`, deduplicated.
    edges: Vec<(usize, usize)>,
    adj: Vec<Vec<usize>>,
}

impl GraphQuery {
    /// Builds a graph query from labels and undirected edges.
    pub fn new(
        labels: Vec<String>,
        raw_edges: Vec<(usize, usize)>,
    ) -> Result<Self, GraphQueryError> {
        let n = labels.len();
        if n == 0 {
            return Err(GraphQueryError::Empty);
        }
        {
            let mut seen = HashSet::new();
            for l in &labels {
                if !seen.insert(l.as_str()) {
                    return Err(GraphQueryError::DuplicateLabel(l.clone()));
                }
            }
        }
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(raw_edges.len());
        let mut seen = HashSet::new();
        for (a, b) in raw_edges {
            if a >= n {
                return Err(GraphQueryError::UnknownNode(a));
            }
            if b >= n {
                return Err(GraphQueryError::UnknownNode(b));
            }
            if a == b {
                return Err(GraphQueryError::SelfLoop(a));
            }
            let e = (a.min(b), a.max(b));
            if seen.insert(e) {
                edges.push(e);
            }
        }
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        // Connectivity check.
        let mut visited = vec![false; n];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut count = 1;
        while let Some(x) = stack.pop() {
            for &y in &adj[x] {
                if !visited[y] {
                    visited[y] = true;
                    count += 1;
                    stack.push(y);
                }
            }
        }
        if count != n {
            return Err(GraphQueryError::Disconnected);
        }
        Ok(GraphQuery { labels, edges, adj })
    }

    /// Parses the same edge-list text format as
    /// [`TreeQuery::parse`](crate::TreeQuery::parse), read as an
    /// *undirected* pattern:
    ///
    /// ```text
    /// # comment lines start with '#'
    /// A -> B
    /// B -> C
    /// C -> A
    /// ```
    ///
    /// Each `->` line is one undirected pattern edge; a token names the
    /// same pattern node every time it appears (node identity *is* the
    /// label — graph patterns require distinct labels); a bare token
    /// declares a single-node pattern. Tree-only syntax is rejected with
    /// a pointed error: `=>` child edges ([`GraphParseError::ChildEdge`]),
    /// `*` wildcards ([`GraphParseError::Wildcard`]) and `label#disc`
    /// discriminators ([`GraphParseError::Discriminator`]).
    pub fn parse(text: &str) -> Result<GraphQuery, GraphParseError> {
        let mut labels: Vec<String> = Vec::new();
        let mut ids: HashMap<String, usize> = HashMap::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut node = |token: &str| -> Result<usize, GraphParseError> {
                if token.contains('*') {
                    return Err(GraphParseError::Wildcard(lineno));
                }
                if token.contains('#') {
                    return Err(GraphParseError::Discriminator(lineno, token.to_owned()));
                }
                Ok(*ids.entry(token.to_owned()).or_insert_with(|| {
                    labels.push(token.to_owned());
                    labels.len() - 1
                }))
            };
            if line.contains("=>") {
                return Err(GraphParseError::ChildEdge(lineno));
            }
            if line.contains("->") {
                let mut sides = line.splitn(2, "->");
                let lhs = sides.next().map(str::trim).unwrap_or("");
                let rhs = sides.next().map(str::trim).unwrap_or("");
                if lhs.is_empty()
                    || rhs.is_empty()
                    || lhs.contains(char::is_whitespace)
                    || rhs.contains(char::is_whitespace)
                {
                    return Err(GraphParseError::BadLine(lineno, raw.to_owned()));
                }
                let a = node(lhs)?;
                let b = node(rhs)?;
                edges.push((a, b));
            } else {
                // A bare token declares a single pattern node.
                let mut parts = line.split_whitespace();
                match (parts.next(), parts.next()) {
                    (Some(tok), None) => {
                        node(tok)?;
                    }
                    _ => return Err(GraphParseError::BadLine(lineno, raw.to_owned())),
                }
            }
        }
        // Self loops (`A -> A`) and everything structural fall through to
        // the builder; duplicate labels cannot arise (identity is label).
        Ok(GraphQuery::new(labels, edges)?)
    }

    /// Number of pattern nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the pattern is empty (never true for built patterns).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of undirected pattern edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The label of node `u`.
    pub fn label(&self, u: usize) -> &str {
        &self.labels[u]
    }

    /// All labels in node order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Deduplicated undirected edges as `(min, max)` pairs.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbors of `u`.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Number of edges beyond a spanning tree (`m - (n-1)`), i.e. how many
    /// edges any single spanning tree must leave unverified.
    pub fn excess_edges(&self) -> usize {
        self.edges.len() + 1 - self.labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn triangle_builds() {
        let q = GraphQuery::new(labels(&["a", "b", "c"]), vec![(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.num_edges(), 3);
        assert_eq!(q.excess_edges(), 1);
        assert_eq!(q.neighbors(0).len(), 2);
    }

    #[test]
    fn duplicate_undirected_edges_collapse() {
        let q = GraphQuery::new(labels(&["a", "b"]), vec![(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(q.num_edges(), 1);
        assert_eq!(q.excess_edges(), 0);
    }

    #[test]
    fn disconnected_rejected() {
        let err = GraphQuery::new(labels(&["a", "b", "c"]), vec![(0, 1)]).unwrap_err();
        assert_eq!(err, GraphQueryError::Disconnected);
    }

    #[test]
    fn self_loop_rejected() {
        let err = GraphQuery::new(labels(&["a"]), vec![(0, 0)]).unwrap_err();
        assert_eq!(err, GraphQueryError::SelfLoop(0));
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = GraphQuery::new(labels(&["a", "a"]), vec![(0, 1)]).unwrap_err();
        assert!(matches!(err, GraphQueryError::DuplicateLabel(_)));
    }

    #[test]
    fn unknown_node_rejected() {
        let err = GraphQuery::new(labels(&["a", "b"]), vec![(0, 5)]).unwrap_err();
        assert_eq!(err, GraphQueryError::UnknownNode(5));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            GraphQuery::new(vec![], vec![]).unwrap_err(),
            GraphQueryError::Empty
        );
    }

    #[test]
    fn parse_triangle() {
        let q = GraphQuery::parse("# a cyclic pattern\nA -> B\nB -> C\nC -> A\n").unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.num_edges(), 3);
        assert_eq!(q.excess_edges(), 1);
        assert_eq!(q.labels(), &["A", "B", "C"]);
    }

    #[test]
    fn parse_dedups_both_orientations() {
        let q = GraphQuery::parse("A -> B\nB -> A").unwrap();
        assert_eq!(q.num_edges(), 1);
    }

    #[test]
    fn parse_single_node() {
        let q = GraphQuery::parse("  A \n").unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.num_edges(), 0);
    }

    #[test]
    fn parse_rejects_child_edges() {
        assert_eq!(
            GraphQuery::parse("A -> B\nB => C").unwrap_err(),
            GraphParseError::ChildEdge(2)
        );
    }

    #[test]
    fn parse_rejects_wildcards() {
        assert_eq!(
            GraphQuery::parse("A -> *").unwrap_err(),
            GraphParseError::Wildcard(1)
        );
    }

    #[test]
    fn parse_rejects_discriminators() {
        assert!(matches!(
            GraphQuery::parse("A#1 -> A#2").unwrap_err(),
            GraphParseError::Discriminator(1, _)
        ));
    }

    #[test]
    fn parse_bad_line() {
        assert!(matches!(
            GraphQuery::parse("A -> ").unwrap_err(),
            GraphParseError::BadLine(1, _)
        ));
        assert!(matches!(
            GraphQuery::parse("A B C").unwrap_err(),
            GraphParseError::BadLine(1, _)
        ));
    }

    #[test]
    fn parse_structural_errors_propagate() {
        assert_eq!(
            GraphQuery::parse("A -> B\nC -> D").unwrap_err(),
            GraphParseError::Structure(GraphQueryError::Disconnected)
        );
        assert_eq!(
            GraphQuery::parse("A -> A").unwrap_err(),
            GraphParseError::Structure(GraphQueryError::SelfLoop(0))
        );
        assert_eq!(
            GraphQuery::parse("").unwrap_err(),
            GraphParseError::Structure(GraphQueryError::Empty)
        );
    }
}
