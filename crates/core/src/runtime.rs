//! Run-time graph construction (§3.1 of the paper).
//!
//! The run-time graph `G_R` is the subgraph of the transitive closure
//! induced by the query's label pairs: a closure edge `(v, v')` belongs to
//! `G_R` iff some query edge `(u, u')` has `l(u) = l(v)` and
//! `l(u') = l(v')`.
//!
//! This module generalizes the paper's per-label formulation to a
//! **per-query-node** one: each query node `u` owns a candidate set
//! `V_u` (§3.2's `V_i`), and edges are grouped per `(parent candidate,
//! child query node)` — identical to the paper's `v.childrenᵅ` when node
//! labels are distinct, and exactly the "node copies per query level"
//! construction §5 prescribes for duplicate labels and wildcards. `/`
//! edges keep only closure entries of distance 1.
//!
//! [`RuntimeGraph`] is the fully-loaded form consumed by `Topk` and
//! `DP-B`; the priority-based algorithms assemble the same structures
//! lazily (see [`crate::PriorityLoader`]) and reuse its candidate sets.

pub use crate::candidates::{edge_label_pairs, label_pairs};
pub use crate::rgraph::{RuntimeGraph, RuntimeStats};
