//! The canonical algorithm registry.
//!
//! Every execution surface — the `ktpm::api` facade, `ktpm query`,
//! the wire protocol's `OPEN <algo> …`, the bench drivers — selects an
//! engine through this one enum, so the set of names, their parsing and
//! their per-algorithm capabilities cannot drift between layers. It
//! lives in core because core owns the engines and the
//! [`crate::build_stream`] dispatch that constructs them. It names only
//! engines a server runs: the paper's DP-B / DP-P baselines and the
//! brute-force oracle are test references ([`crate::baselines`],
//! [`crate::brute`]), not algorithms.

use crate::plan::QueryForm;

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
    /// kGPM (§5): ranked graph-pattern enumeration — spanning-tree
    /// matches verified lazily against non-tree edges. Requires a
    /// *pattern* plan ([`crate::QueryPlan::new_pattern`]); the other engines
    /// require tree plans.
    Kgpm,
}

impl Algo {
    /// Every algorithm, in documentation order.
    ///
    /// This is the **single source of truth** for algorithm names: the
    /// `OPEN` protocol parser validates against it (via
    /// [`Algo::parse`]), `ktpm query --algo` and the `ktpm::api`
    /// builder route through it, and all render errors with
    /// [`Algo::valid_names`] — the lists cannot drift.
    pub const ALL: [Algo; 4] = [Algo::Topk, Algo::TopkEn, Algo::Par, Algo::Kgpm];

    /// The wire/CLI name (lowercase).
    pub fn name(self) -> &'static str {
        match self {
            Algo::Topk => "topk",
            Algo::TopkEn => "topk-en",
            Algo::Par => "par",
            Algo::Kgpm => "kgpm",
        }
    }

    /// Parses a wire/CLI name, **case-insensitively** — protocol verbs
    /// are case-insensitive, so `OPEN TOPK …` must select the same
    /// engine as `OPEN topk …`.
    pub fn parse(s: &str) -> Option<Algo> {
        Algo::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(s))
    }

    /// `"topk | topk-en | par | kgpm"` — every [`Algo::ALL`] name,
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

    /// Whether the engine honors [`crate::ParallelPolicy::shards`] > 1
    /// (root partitioning): [`Algo::Par`], and [`Algo::Kgpm`] through
    /// its `ParTopk` driver. Builders reject explicit shard counts on
    /// the others instead of silently running sequentially.
    pub const fn sharded(self) -> bool {
        matches!(self, Algo::Par | Algo::Kgpm)
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
        // The exhaustive oracle and the paper's DP baselines are test
        // references (`crate::brute`, `crate::baselines`), not
        // dispatchable engines — under any spelling.
        for name in ["brute", "dp-b", "dp-p", "dpb", "dpp", "DP-B"] {
            assert_eq!(Algo::parse(name), None, "{name}");
        }
        assert_eq!(Algo::valid_names(), "topk | topk-en | par | kgpm");
    }

    #[test]
    fn parse_is_case_insensitive() {
        // Like the protocol verbs: `OPEN TOPK ...` must work.
        assert_eq!(Algo::parse("TOPK"), Some(Algo::Topk));
        assert_eq!(Algo::parse("Topk-EN"), Some(Algo::TopkEn));
        assert_eq!(Algo::parse("PAR"), Some(Algo::Par));
        assert_eq!(Algo::parse("KGPM"), Some(Algo::Kgpm));
    }

    #[test]
    fn capability_flags() {
        for a in Algo::ALL {
            assert_eq!(a.sharded(), matches!(a, Algo::Par | Algo::Kgpm), "{a:?}");
            let want = if a == Algo::Kgpm {
                QueryForm::Pattern
            } else {
                QueryForm::Tree
            };
            assert_eq!(a.form(), want, "{a:?}");
        }
    }
}
