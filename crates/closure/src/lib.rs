//! # ktpm-closure
//!
//! The shortest-distance transitive closure substrate (§3.1 of the paper):
//!
//! * [`sssp`] — single-source shortest *non-empty-path* distances
//!   (BFS for unit-weighted graphs, Dijkstra otherwise);
//! * [`ClosureTables`] — the full closure organized as label-pair tables
//!   `Lᵅᵦ` (the layout of §3.1/§4.1: per destination node, incoming
//!   closure edges sorted by distance), with derived `Dᵅᵦ` and `Eᵅᵦ`
//!   views and the `θ` statistic used in the complexity discussion;
//! * `reference` — a Floyd–Warshall oracle for tests.
//!
//! Distances follow the paper's path semantics: a closure edge `(v, v')`
//! exists iff a *non-empty* directed path runs from `v` to `v'`; in
//! particular `(v, v)` exists only if `v` lies on a cycle.

mod dijkstra;
pub mod reference;
mod repair;
mod tables;

pub use dijkstra::sssp;
pub use repair::{RepairOutcome, RepairStats};
pub use tables::{ClosureStats, ClosureTables, PairKey, PairTable, SharedRuns};
