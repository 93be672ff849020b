//! # ktpm-query
//!
//! Query structures for the kTPM system:
//!
//! * [`TreeQuery`] — a rooted tree (twig) query. Nodes carry a label or a
//!   wildcard (`*`); edges are either `//` (ancestor–descendant, mapped to
//!   any directed path) or `/` (parent–child, mapped to a direct edge),
//!   following the XPath semantics referenced in §2/§5 of the paper.
//!   Nodes are guaranteed to be stored in top-down breadth-first order
//!   (Lemma 3.1), which the Lawler enumeration relies on.
//! * [`GraphQuery`] — an undirected labeled graph pattern for the kGPM
//!   extension (§5), consumed by `ktpm-core`'s `KgpmStream`.
//! * A tiny text format ([`TreeQuery::parse`], [`GraphQuery::parse`])
//!   for tests, examples and the wire protocol.
//!
//! ## Example
//!
//! ```
//! use ktpm_query::{TreeQueryBuilder, EdgeKind};
//!
//! // The query of the paper's Figure 2(a): a -> b, a -> c, c -> d, c -> e.
//! let mut b = TreeQueryBuilder::new();
//! let u1 = b.node("a");
//! let u2 = b.node("b");
//! let u3 = b.node("c");
//! let u4 = b.node("d");
//! let u5 = b.node("e");
//! b.edge(u1, u2, EdgeKind::Descendant);
//! b.edge(u1, u3, EdgeKind::Descendant);
//! b.edge(u3, u4, EdgeKind::Descendant);
//! b.edge(u3, u5, EdgeKind::Descendant);
//! let q = b.build().unwrap();
//! assert_eq!(q.len(), 5);
//! assert!(q.has_distinct_labels());
//! ```

mod graph_query;
mod parse;
mod tree;

pub use graph_query::{GraphParseError, GraphQuery, GraphQueryError};
pub use parse::ParseError;
pub use tree::{
    EdgeKind, QNodeId, QueryError, QueryLabel, ResolvedQuery, TreeQuery, TreeQueryBuilder,
};
