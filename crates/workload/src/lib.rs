//! # ktpm-workload
//!
//! Dataset and query generators reproducing the paper's experimental
//! setup (§6) at laptop scale:
//!
//! * [`generate`] — a seeded labeled-graph generator with two presets:
//!   [`GraphSpec::citation`] (DBLP-like: skewed venue labels, sparse
//!   citation DAG, the `GD*` family) and [`GraphSpec::power_law`]
//!   (Boost-PLOD-like: 200 uniform labels, average out-degree 3, the
//!   `GS*` family). Reachability is bounded through a community
//!   structure so the transitive closure stays laptop-sized — the
//!   substitution DESIGN.md documents (the paper's full-size closures
//!   reach 247 GB).
//! * [`random_tree_query`] / [`query_set`] — random-walk tree queries
//!   guaranteed to have at least one match (the paper extracts query
//!   trees from the run-time graph the same way), with distinct or
//!   duplicated labels (Eval-IV).
//! * [`random_graph_query`] / [`pattern_set`] — cyclic graph patterns
//!   for the kGPM evaluation (Figure 9).
//! * [`gd_family`] / [`gs_family`] / [`pattern_family`] — the scaled
//!   `GD1..`, `GS1..` and `Q1..Q4` experiment families.

mod families;
mod graphs;
mod queries;

pub use families::{gd_family, gs_family, pattern_family, PatternSpec, DEFAULT_GD, DEFAULT_GS};
pub use graphs::{generate, GraphSpec};
pub use queries::{pattern_set, query_set, random_graph_query, random_tree_query, QuerySpec};
