//! The canonical output order, and why root partitioning preserves it.
//!
//! ## Why a canonical order exists
//!
//! Every enumerator in this workspace yields matches in non-decreasing
//! score order, but the paper leaves the order *within* an equal-score
//! group unspecified — and left alone it falls out of heap insertion
//! sequences, which differ between algorithms and (crucially) between
//! shard layouts of the same query. Partitioned execution re-merges
//! per-shard streams, so "same order as the sequential run" is only
//! meaningful once ties are broken deterministically.
//!
//! This module defines the workspace-wide **canonical order**:
//!
//! > ascending `(score, assignment)`, assignments compared
//! > lexicographically in query-BFS node order.
//!
//! Assignments are unique per match, so this is a total order. It is
//! independent of algorithm, shard count and thread schedule, which is
//! what makes the order-preservation argument for `ParTopk`
//! compositional:
//!
//! 1. each shard owns the matches rooted at its slice of the root
//!    candidate set ([`ktpm_storage::ShardSpec`] splits are disjoint
//!    and exhaustive, and a match has exactly one root);
//! 2. each shard's stream is in the canonical order — see below;
//! 3. a k-way merge keyed on `(score, assignment)` of canonically
//!    ordered disjoint streams is itself canonically ordered.
//!
//! Hence `ParTopk` with *any* shard count emits exactly the sequence of
//! [`crate::topk_full`] — order, scores and witnesses.
//!
//! ## Every engine emits it natively
//!
//! The canonical order *is* the heap order of every enumerator: `Topk`
//! ([`crate::TopkEnumerator`]), `Topk-EN` ([`crate::TopkEnEnumerator`],
//! whose lists grow while it enumerates but never below a rank a
//! certified match uses), and the test-reference baselines `DP-B`
//! ([`crate::baselines::DpBEnumerator`], whose per-node frontiers pop
//! in `(score, row)` order) and `DP-P`
//! ([`crate::baselines::DpPEnumerator`], which certifies strictly below
//! its loader's bound, so a rebuild replays exactly what it emitted).
//! Ties compare assignment rows, O(n_T) worst case; `k` matches cost
//! `k` pops, with no look-ahead. So every `ParTopk` shard (a `Topk`
//! enumerator) and every kGPM tree driver — the served `ParTopk`, and
//! Fig. 9's mtree over DP-B and mtree+ over `Topk-EN` — is canonical
//! too, and the brute oracle sorts its own output.
