//! The canonical algorithm registry.
//!
//! Every execution surface — the `ktpm::api` facade, `ktpm query`,
//! the wire protocol's `OPEN <algo> …`, the bench drivers — selects an
//! engine through this one enum, so the set of names, their parsing and
//! their per-algorithm capabilities cannot drift between layers. It
//! lives in core because core owns the engines and the
//! [`crate::build_stream`] dispatch that constructs them.

use crate::exec::WorkerPool;
use crate::plan::{QueryForm, QueryPlan};
use crate::stream::{build_stream, BoxedMatchStream};
use crate::ParallelPolicy;
use std::sync::Arc;

/// The algorithms behind the single [`crate::MatchStream`] surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Algorithm 1 (`Topk`): full run-time graph load, optimal
    /// per-result delay.
    Topk,
    /// Algorithm 3 (`Topk-EN`): lazy loading with delayed insertion —
    /// the default; cheapest for small `k`.
    TopkEn,
    /// `ParTopk`: root-partitioned parallel execution per a
    /// [`crate::ParallelPolicy`]. Emits exactly the `topk_full` stream.
    Par,
    /// DP-B (ICDE'13 baseline): bottom-up dynamic programming over the
    /// full run-time graph, whose per-node frontiers pop in the
    /// canonical order.
    DpB,
    /// DP-P: DP-B over priority-order lazy loading (re-runs §4.1
    /// initialization per stream, hence no plan reuse).
    DpP,
    /// kGPM (§5): ranked graph-pattern enumeration — spanning-tree
    /// matches verified lazily against non-tree edges. Requires a
    /// *pattern* plan ([`QueryPlan::new_pattern`]); the other engines
    /// require tree plans.
    Kgpm,
}

/// What an algorithm supports; see [`Algo::caps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoCaps {
    /// The engine honors [`crate::ParallelPolicy::shards`] > 1 (root
    /// partitioning). Builders reject explicit shard counts on engines
    /// without it instead of silently running sequentially.
    pub sharded: bool,
    /// A warm [`QueryPlan`] removes *all* per-stream setup: building a
    /// stream does no work proportional to the match count.
    pub plan_reuse: bool,
}

impl Algo {
    /// Every algorithm, in documentation order.
    ///
    /// This is the **single source of truth** for algorithm names: the
    /// `OPEN` protocol parser validates against it (via
    /// [`Algo::parse`]), `ktpm query --algo` and the `ktpm::api`
    /// builder route through it, and all render errors with
    /// [`Algo::valid_names`] — the lists cannot drift.
    pub const ALL: [Algo; 6] = [
        Algo::Topk,
        Algo::TopkEn,
        Algo::Par,
        Algo::DpB,
        Algo::DpP,
        Algo::Kgpm,
    ];

    /// The wire/CLI name (lowercase).
    pub fn name(self) -> &'static str {
        match self {
            Algo::Topk => "topk",
            Algo::TopkEn => "topk-en",
            Algo::Par => "par",
            Algo::DpB => "dp-b",
            Algo::DpP => "dp-p",
            Algo::Kgpm => "kgpm",
        }
    }

    /// Parses a wire/CLI name, **case-insensitively** — protocol verbs
    /// are case-insensitive, so `OPEN TOPK …` must select the same
    /// engine as `OPEN topk …` (it used to err). The paper's unhyphened
    /// spellings `dpb`/`dpp` are accepted as aliases.
    pub fn parse(s: &str) -> Option<Algo> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "dpb" => return Some(Algo::DpB),
            "dpp" => return Some(Algo::DpP),
            _ => {}
        }
        Algo::ALL.into_iter().find(|a| a.name() == lower)
    }

    /// `"topk | topk-en | par | dp-b | dp-p | kgpm"` — every
    /// [`Algo::ALL`] name,
    /// for error messages (rendered from the const, so it can never go
    /// stale against the algorithm list).
    pub fn valid_names() -> String {
        Algo::ALL
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// The query form this algorithm runs: [`QueryForm::Pattern`] for
    /// [`Algo::Kgpm`], [`QueryForm::Tree`] for every other engine.
    pub const fn form(self) -> QueryForm {
        match self {
            Algo::Kgpm => QueryForm::Pattern,
            _ => QueryForm::Tree,
        }
    }

    /// Per-algorithm capability flags.
    pub const fn caps(self) -> AlgoCaps {
        match self {
            Algo::Topk | Algo::TopkEn => AlgoCaps {
                sharded: false,
                plan_reuse: true,
            },
            Algo::Par => AlgoCaps {
                sharded: true,
                plan_reuse: true,
            },
            // DP-B builds its slot lists from the plan's cached full
            // setup; DP-P's priority loading *is* per-stream work.
            Algo::DpB => AlgoCaps {
                sharded: false,
                plan_reuse: true,
            },
            Algo::DpP => AlgoCaps {
                sharded: false,
                plan_reuse: false,
            },
            // kGPM shards through its ParTopk driver; the pattern
            // plan caches decomposition, setup and the residual bound.
            Algo::Kgpm => AlgoCaps {
                sharded: true,
                plan_reuse: true,
            },
        }
    }

    /// Builds this algorithm's canonical-order match stream from a
    /// shared plan; shorthand for [`crate::build_stream`].
    pub fn stream(
        self,
        plan: &QueryPlan,
        policy: &ParallelPolicy,
        pool: Arc<WorkerPool>,
    ) -> BoxedMatchStream {
        build_stream(self, plan, policy, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_names_roundtrip() {
        for a in Algo::ALL {
            assert_eq!(Algo::parse(a.name()), Some(a));
        }
        assert_eq!(Algo::parse("nope"), None);
        // The exhaustive oracle is for tests (`crate::brute`), not a
        // dispatchable engine.
        assert_eq!(Algo::parse("brute"), None);
        assert_eq!(
            Algo::valid_names(),
            "topk | topk-en | par | dp-b | dp-p | kgpm"
        );
    }

    #[test]
    fn parse_is_case_insensitive() {
        // Like the protocol verbs: `OPEN TOPK ...` must work.
        assert_eq!(Algo::parse("TOPK"), Some(Algo::Topk));
        assert_eq!(Algo::parse("Topk-EN"), Some(Algo::TopkEn));
        assert_eq!(Algo::parse("PAR"), Some(Algo::Par));
        assert_eq!(Algo::parse("DpP"), Some(Algo::DpP));
        assert_eq!(Algo::parse("KGPM"), Some(Algo::Kgpm));
        assert_eq!(Algo::parse("DP-B"), Some(Algo::DpB));
    }

    #[test]
    fn unhyphened_dp_aliases_parse() {
        assert_eq!(Algo::parse("dpb"), Some(Algo::DpB));
        assert_eq!(Algo::parse("DPP"), Some(Algo::DpP));
    }

    #[test]
    fn capability_flags() {
        for a in [Algo::Par, Algo::Kgpm] {
            assert!(a.caps().sharded, "{a:?}");
        }
        for a in [Algo::Topk, Algo::TopkEn, Algo::DpB, Algo::DpP] {
            assert!(!a.caps().sharded, "{a:?}");
        }
        for a in [Algo::Topk, Algo::TopkEn, Algo::Par, Algo::DpB, Algo::Kgpm] {
            assert!(a.caps().plan_reuse, "{a:?}");
        }
        assert!(!Algo::DpP.caps().plan_reuse);
        for a in Algo::ALL {
            let want = if a == Algo::Kgpm {
                QueryForm::Pattern
            } else {
                QueryForm::Tree
            };
            assert_eq!(a.form(), want, "{a:?}");
        }
    }
}
