//! The LRU result cache and the cross-session query-plan cache.
//!
//! Keyed by `(algorithm, canonical query text)`; the value is the
//! longest *prefix* of the score-ordered match stream any session has
//! produced for that key, plus whether the stream was exhausted. A
//! session opening a hot query starts on the cached prefix and only
//! falls back to a live enumerator if the client outruns it — so
//! repeated `top-k` requests with the same (or smaller) `k` never touch
//! the enumeration machinery at all.
//!
//! Two subtleties:
//!
//! * Only *prefixes* are cacheable: enumeration yields matches in
//!   non-decreasing score order, so the first `n` matches of one run
//!   are a valid answer for any request of `k <= n` (ties may order
//!   differently between algorithms, which is why the algorithm is part
//!   of the key).
//! * Prefixes only ever grow: `insert` keeps the longer of the stored
//!   and offered prefix, so concurrent sessions racing to publish
//!   cannot shrink the cache.
//!
//! Each prefix also remembers the plan it was enumerated from, weakly,
//! so a graph delta classifies it by asking that plan
//! ([`QueryPlan::is_affected_by`]) instead of re-reading its text.

use ktpm_core::{QueryForm, QueryPlan, ScoredMatch};
use ktpm_storage::DeltaReport;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Cache key: algorithm name + canonicalized query text.
pub type CacheKey = (&'static str, String);

/// A cached score-ordered match prefix.
#[derive(Debug, Clone)]
pub struct CachedPrefix {
    /// The first `matches.len()` matches of the stream.
    pub matches: Arc<Vec<ScoredMatch>>,
    /// Whether the stream ends at `matches.len()` (the whole answer).
    pub complete: bool,
}

/// Stamp-based LRU bookkeeping shared by [`ResultCache`] and
/// [`PlanCache`]: a monotone recency stamp per entry, refreshed on
/// every touch, and an O(capacity) min-stamp victim scan when a *new*
/// key arrives at a full cache (fine at the configured sizes — the
/// scan never runs on hits).
struct Lru<K, V> {
    capacity: usize,
    stamp: u64,
    entries: HashMap<K, (V, u64)>,
}

impl<K: std::hash::Hash + Eq + Clone, V> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.max(1),
            stamp: 0,
            entries: HashMap::new(),
        }
    }

    /// The entry for `key`, with its recency refreshed.
    fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ?Sized,
    {
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(key).map(|(v, s)| {
            *s = stamp;
            v
        })
    }

    /// Inserts a *new* key (callers check presence via [`Self::get_mut`]
    /// first), evicting the least recently used entry when full.
    fn insert(&mut self, key: K, value: V) {
        self.stamp += 1;
        if self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (value, self.stamp));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|(v, _)| v)
    }

    /// Entries with their recency stamps (for budget-driven eviction).
    fn iter_stamped(&self) -> impl Iterator<Item = (&K, &V, u64)> {
        self.entries.iter().map(|(k, (v, s))| (k, v, *s))
    }

    fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ?Sized,
    {
        self.entries.remove(key).map(|(v, _)| v)
    }

    /// Drops every entry `keep` rejects, returning how many were
    /// removed. Recency stamps of survivors are left untouched.
    fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, (v, _)| keep(v));
        before - self.entries.len()
    }
}

/// An LRU map from query fingerprints to match prefixes.
pub struct ResultCache {
    /// Each prefix with the plan that produced it. The plan is held
    /// weakly: result entries outnumber plan-cache entries, and a
    /// strong handle would keep evicted O(m_R) plans alive.
    lru: Lru<CacheKey, (CachedPrefix, Weak<QueryPlan>)>,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            lru: Lru::new(capacity),
        }
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: &CacheKey) -> Option<CachedPrefix> {
        self.lru.get_mut(key).map(|(p, _)| p.clone())
    }

    /// Publishes a prefix for `key`, enumerated from `plan`, keeping the
    /// longest one seen. A complete prefix always wins over an
    /// incomplete one of equal length. The entry's plan becomes `plan`
    /// either way: it is the plan the key's sessions run on now.
    pub fn insert(&mut self, key: CacheKey, prefix: CachedPrefix, plan: &Arc<QueryPlan>) {
        if let Some((existing, weak)) = self.lru.get_mut(&key) {
            let better = prefix.matches.len() > existing.matches.len()
                || (prefix.matches.len() == existing.matches.len() && prefix.complete);
            if better {
                *existing = prefix;
            }
            *weak = Arc::downgrade(plan);
            return;
        }
        self.lru.insert(key, (prefix, Arc::downgrade(plan)));
    }

    /// The delta-aware invalidation pass: drops every prefix whose plan
    /// [`QueryPlan::is_affected_by`] the delta, and every prefix whose
    /// plan is gone (evicted and unused, so nothing is left to classify
    /// it by — dropping is the conservative choice). Returns how many
    /// entries were removed.
    pub fn invalidate_affected(&mut self, report: &DeltaReport) -> usize {
        self.lru.retain(|(_, plan)| {
            plan.upgrade()
                .is_some_and(|plan| !plan.is_affected_by(report))
        })
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The cross-session query-plan cache: `(`[`QueryForm`]`, canonical
/// query text)` → `Arc<`[`QueryPlan`]`>`.
///
/// Unlike the result cache, the key carries **no algorithm**, only the
/// form it reads the text in ([`ktpm_core::Algo::form`]): one tree plan
/// feeds `topk`, `topk-en`, `par` and the DP sessions alike
/// (each algorithm materializes the plan half it needs, at most once),
/// and `kgpm` sessions of the same text share one pattern plan. The
/// cached value is the plan handle — registering a plan is cheap; the
/// expensive setup happens lazily inside the plan on first enumerator
/// construction, guarded by `OnceLock` so concurrent sessions racing on
/// a cold plan produce exactly one build.
///
/// Eviction is LRU by **entry count** (the same stamp bookkeeping as
/// [`ResultCache`], shared through one private helper) and, when a
/// byte budget is configured, additionally by **approximate bytes**:
/// after every lookup the cache walks [`QueryPlan::approx_bytes`] and
/// evicts least-recently-used entries until the total fits the budget.
/// Both caps apply independently. Plans grow *after* insertion (their
/// setup halves materialize on first enumerator use), which is why the
/// byte check runs on every `get_or_insert` rather than only on
/// insertion — and why it is off (`None`) by default: the walk is
/// O(entries × slot cells) under the engine's plan-cache lock.
/// Memory per warm entry is dominated by the plan's run-time graph
/// (O(m_R)); sessions holding an evicted plan's `Arc` keep it alive
/// until they close, so eviction never invalidates live sessions.
pub struct PlanCache {
    lru: Lru<(QueryForm, String), Arc<QueryPlan>>,
    max_bytes: Option<u64>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans, no byte budget.
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, None)
    }

    /// As [`PlanCache::new`] with an optional byte budget over the sum
    /// of cached plans' [`QueryPlan::approx_bytes`].
    pub fn with_byte_budget(capacity: usize, max_bytes: Option<u64>) -> Self {
        PlanCache {
            lru: Lru::new(capacity),
            max_bytes,
        }
    }

    /// The configured byte budget, if any.
    pub fn byte_budget(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The plan for `key`, registering `build()`'s plan on a miss; a
    /// failed build is returned as is and caches nothing. The flag is
    /// `true` on a hit, which neither builds nor allocates. Recency is
    /// refreshed either way; the byte budget (if any) is enforced
    /// afterwards, never evicting the entry just returned.
    pub fn get_or_insert<E>(
        &mut self,
        key: &(QueryForm, String),
        build: impl FnOnce() -> Result<QueryPlan, E>,
    ) -> Result<(Arc<QueryPlan>, bool), E> {
        if let Some(plan) = self.lru.get_mut(key) {
            let plan = Arc::clone(plan);
            self.enforce_bytes(key);
            return Ok((plan, true));
        }
        let plan = Arc::new(build()?);
        self.lru.insert(key.clone(), Arc::clone(&plan));
        self.enforce_bytes(key);
        Ok((plan, false))
    }

    /// Evicts least-recently-used plans until the total approximate
    /// bytes fit the budget. `keep` (the plan the caller is about to
    /// use) is exempt, so the cache always serves the current request
    /// even when that one plan alone exceeds the budget.
    fn enforce_bytes(&mut self, keep: &(QueryForm, String)) {
        let Some(budget) = self.max_bytes else {
            return;
        };
        // Common case — under budget — allocates nothing: one sizing
        // sweep, no key clones. Only an actual overflow pays for the
        // keyed, stamp-sorted eviction list.
        let total: u64 = self
            .lru
            .iter_stamped()
            .map(|(_, v, _)| v.approx_bytes())
            .sum();
        if total <= budget {
            return;
        }
        let mut sized: Vec<((QueryForm, String), u64, u64)> = self
            .lru
            .iter_stamped()
            .map(|(k, v, stamp)| (k.clone(), stamp, v.approx_bytes()))
            .collect();
        sized.sort_unstable_by_key(|&(_, stamp, _)| stamp); // oldest first
        let mut total = total;
        for (key, _, bytes) in sized {
            if total <= budget {
                break;
            }
            if key == *keep {
                continue;
            }
            self.lru.remove(&key);
            total -= bytes;
        }
    }

    /// The delta-aware invalidation pass: drops every plan that
    /// [`QueryPlan::is_affected_by`] the delta and re-stamps every
    /// survivor as current for the delta's version
    /// ([`QueryPlan::stamp_version`] — a delta that cannot change any
    /// table a plan reads leaves the plan bit-for-bit valid). Returns
    /// how many plans were dropped.
    pub fn invalidate_affected(&mut self, report: &DeltaReport) -> usize {
        self.lru.retain(|plan| {
            let affected = plan.is_affected_by(report);
            if !affected {
                plan.stamp_version(report.version);
            }
            !affected
        })
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the cached plan handles (cheap `Arc` clones).
    /// `STATS` walks each plan's [`QueryPlan::approx_bytes`] — an
    /// O(slot cells) scan — *outside* the cache lock, so a polling
    /// stats endpoint never stalls concurrent `OPEN`s on this mutex.
    pub fn plans(&self) -> Vec<Arc<QueryPlan>> {
        self.lru.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_core::PlanError;
    use ktpm_graph::{LabelId, NodeId};

    fn prefix(n: usize, complete: bool) -> CachedPrefix {
        CachedPrefix {
            matches: Arc::new(
                (0..n)
                    .map(|i| ScoredMatch {
                        score: i as u64,
                        assignment: vec![NodeId(i as u32)].into(),
                    })
                    .collect(),
            ),
            complete,
        }
    }

    fn key(s: &str) -> CacheKey {
        ("topk", s.to_string())
    }

    fn tree(s: &str) -> (QueryForm, String) {
        (QueryForm::Tree, s.to_string())
    }

    fn pattern(s: &str) -> (QueryForm, String) {
        (QueryForm::Pattern, s.to_string())
    }

    /// A delta report touching `directed` pairs of the directed closure
    /// and `undirected` pairs of the mirror, at `version`.
    fn report(
        directed: &[(LabelId, LabelId)],
        undirected: &[(LabelId, LabelId)],
        version: u64,
    ) -> DeltaReport {
        DeltaReport {
            version,
            touched_pairs: directed.to_vec(),
            undirected_touched_pairs: undirected.to_vec(),
            ..Default::default()
        }
    }

    /// Publishes `prefix` under `key` from a plan nobody else holds
    /// (the LRU tests never classify entries by their plan).
    fn put(c: &mut ResultCache, key: CacheKey, prefix: CachedPrefix) {
        c.insert(key, prefix, &Arc::new(plan()));
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = ResultCache::new(4);
        assert!(c.get(&key("q1")).is_none());
        put(&mut c, key("q1"), prefix(3, false));
        let got = c.get(&key("q1")).unwrap();
        assert_eq!(got.matches.len(), 3);
        assert!(!got.complete);
    }

    #[test]
    fn longer_prefix_wins_shorter_is_ignored() {
        let mut c = ResultCache::new(4);
        put(&mut c, key("q"), prefix(5, false));
        put(&mut c, key("q"), prefix(2, false)); // shorter: ignored
        assert_eq!(c.get(&key("q")).unwrap().matches.len(), 5);
        put(&mut c, key("q"), prefix(8, true));
        let got = c.get(&key("q")).unwrap();
        assert_eq!(got.matches.len(), 8);
        assert!(got.complete);
    }

    #[test]
    fn complete_beats_incomplete_at_equal_length() {
        let mut c = ResultCache::new(4);
        put(&mut c, key("q"), prefix(4, false));
        put(&mut c, key("q"), prefix(4, true));
        assert!(c.get(&key("q")).unwrap().complete);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        put(&mut c, key("a"), prefix(1, true));
        put(&mut c, key("b"), prefix(1, true));
        c.get(&key("a")); // refresh a; b is now LRU
        put(&mut c, key("c"), prefix(1, true));
        assert!(c.get(&key("a")).is_some());
        assert!(c.get(&key("b")).is_none());
        assert!(c.get(&key("c")).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn distinct_algos_are_distinct_keys() {
        let mut c = ResultCache::new(4);
        put(&mut c, ("topk", "q".into()), prefix(1, true));
        assert!(c.get(&("topk-en", "q".into())).is_none());
    }

    fn plan() -> QueryPlan {
        plan_for("C -> E")().unwrap()
    }

    /// `get_or_insert` with a build that cannot fail.
    fn get(
        c: &mut PlanCache,
        key: &(QueryForm, String),
        build: impl FnOnce() -> QueryPlan,
    ) -> (Arc<QueryPlan>, bool) {
        c.get_or_insert(key, || Ok::<_, PlanError>(build()))
            .unwrap()
    }

    #[test]
    fn plan_cache_hits_share_one_arc() {
        let mut c = PlanCache::new(4);
        let (p1, hit) = get(&mut c, &tree("q1"), plan);
        assert!(!hit);
        let (p2, hit) = get(&mut c, &tree("q1"), plan);
        assert!(hit);
        assert!(Arc::ptr_eq(&p1, &p2), "hits must share the plan");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        get(&mut c, &tree("a"), plan);
        get(&mut c, &tree("b"), plan);
        get(&mut c, &tree("a"), plan); // refresh a; b is now LRU
        get(&mut c, &tree("c"), plan);
        assert_eq!(c.len(), 2);
        let (_, hit) = get(&mut c, &tree("a"), plan);
        assert!(hit);
        let (_, hit) = get(&mut c, &tree("b"), plan);
        assert!(!hit, "b must have been evicted");
    }

    #[test]
    fn plan_cache_caches_no_failed_build() {
        let mut c = PlanCache::new(4);
        let err = c
            .get_or_insert(&tree("C -> "), plan_for("C -> "))
            .err()
            .expect("a bad query builds no plan");
        assert!(matches!(err, PlanError::BadQuery(_)), "{err}");
        assert!(c.is_empty(), "nothing was cached");
        let (_, hit) = c
            .get_or_insert(&tree("C -> E"), plan_for("C -> E"))
            .unwrap();
        assert!(!hit);
        assert_eq!(c.len(), 1);
    }

    /// A plan forced warm (its full half built) so `approx_bytes` is
    /// non-zero — the state byte eviction keys on.
    fn warm_plan() -> QueryPlan {
        let p = plan();
        let _ = p.runtime_graph();
        assert!(p.approx_bytes() > 0);
        p
    }

    #[test]
    fn byte_budget_evicts_lru_plans_until_total_fits() {
        let one = warm_plan().approx_bytes();
        // Budget fits two warm plans but not three.
        let mut c = PlanCache::with_byte_budget(16, Some(one * 2));
        assert_eq!(c.byte_budget(), Some(one * 2));
        get(&mut c, &tree("a"), warm_plan);
        get(&mut c, &tree("b"), warm_plan);
        assert_eq!(c.len(), 2, "within budget: nothing evicted");
        get(&mut c, &tree("a"), warm_plan); // refresh a; b is now LRU
        get(&mut c, &tree("c"), warm_plan);
        assert_eq!(c.len(), 2, "over budget: LRU entry evicted");
        let (_, hit) = get(&mut c, &tree("a"), warm_plan);
        assert!(hit, "recently-used entry survives");
        let (_, hit) = get(&mut c, &tree("b"), warm_plan);
        assert!(!hit, "LRU entry was the byte-eviction victim");
    }

    #[test]
    fn byte_budget_never_evicts_the_requested_plan() {
        let one = warm_plan().approx_bytes();
        // Budget smaller than a single warm plan: the cache must still
        // hand the plan out (and hit on it while it stays the only /
        // most recent entry).
        let mut c = PlanCache::with_byte_budget(16, Some(one / 2));
        let (p1, hit) = get(&mut c, &tree("a"), warm_plan);
        assert!(!hit);
        assert_eq!(c.len(), 1);
        let (p2, hit) = get(&mut c, &tree("a"), warm_plan);
        assert!(hit, "the just-returned plan is exempt from eviction");
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn entry_count_cap_still_applies_with_byte_budget() {
        let mut c = PlanCache::with_byte_budget(2, Some(u64::MAX));
        get(&mut c, &tree("a"), warm_plan);
        get(&mut c, &tree("b"), warm_plan);
        get(&mut c, &tree("c"), warm_plan);
        assert_eq!(c.len(), 2, "count cap is independent of the budget");
    }

    #[test]
    fn no_budget_means_no_byte_eviction() {
        let mut c = PlanCache::new(16);
        assert_eq!(c.byte_budget(), None);
        for key in ["a", "b", "c", "d"] {
            get(&mut c, &tree(key), warm_plan);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn result_cache_invalidation_is_selective() {
        let g = ktpm_graph::fixtures::citation_graph();
        let lbl = |n: &str| g.interner().get(n).unwrap();
        let hot = Arc::new(plan_for("C -> E")().unwrap());
        let cold = Arc::new(plan_for("C -> S")().unwrap());
        let mut c = ResultCache::new(8);
        c.insert(("topk", "C -> E".into()), prefix(2, true), &hot);
        c.insert(("topk-en", "C -> E".into()), prefix(3, true), &hot);
        c.insert(("topk", "C -> S".into()), prefix(1, true), &cold);
        let dropped = c.invalidate_affected(&report(&[(lbl("C"), lbl("E"))], &[], 1));
        assert_eq!(dropped, 2, "both algorithms of the hot query go");
        assert_eq!(c.len(), 1);
        assert!(c.get(&key("C -> S")).is_some());
        // An entry whose plan is gone cannot be classified: any delta,
        // even one touching nothing, drops it.
        drop(cold);
        assert_eq!(c.invalidate_affected(&report(&[], &[], 2)), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn result_cache_invalidation_sees_the_algorithm() {
        // The same text under a tree algorithm and under kgpm reads
        // different tables: each entry is judged by its own plan.
        let g = ktpm_graph::fixtures::citation_graph();
        let lbl = |n: &str| g.interner().get(n).unwrap();
        let tree_plan = Arc::new(plan_for("C -> E")().unwrap());
        let pattern_plan = Arc::new(pattern_plan_for("C -> E")().unwrap());
        let mut c = ResultCache::new(8);
        c.insert(("topk", "C -> E".into()), prefix(2, true), &tree_plan);
        c.insert(("kgpm", "C -> E".into()), prefix(2, true), &pattern_plan);
        let dropped = c.invalidate_affected(&report(&[], &[(lbl("C"), lbl("E"))], 1));
        assert_eq!(dropped, 1);
        assert!(c.get(&("topk", "C -> E".into())).is_some());
        assert!(c.get(&("kgpm", "C -> E".into())).is_none());
    }

    fn plan_for(text: &str) -> impl Fn() -> Result<QueryPlan, PlanError> + '_ {
        move || {
            let g = ktpm_graph::fixtures::citation_graph();
            let store =
                ktpm_storage::MemStore::new(ktpm_closure::ClosureTables::compute(&g)).into_shared();
            QueryPlan::from_text(QueryForm::Tree, text, g.interner(), &store)
        }
    }

    #[test]
    fn plan_cache_invalidation_drops_affected_and_stamps_survivors() {
        let g = ktpm_graph::fixtures::citation_graph();
        let lbl = |n: &str| g.interner().get(n).unwrap();
        let mut c = PlanCache::new(8);
        let (affected, _) = c
            .get_or_insert(&tree("C -> E"), plan_for("C -> E"))
            .unwrap();
        let (survivor, _) = c
            .get_or_insert(&tree("C -> S"), plan_for("C -> S"))
            .unwrap();
        let delta = report(&[(lbl("C"), lbl("E"))], &[], 5);
        let dropped = c.invalidate_affected(&delta);
        assert_eq!(dropped, 1);
        assert_eq!(c.len(), 1);
        assert!(affected.is_affected_by(&delta));
        assert_eq!(survivor.graph_version(), 5, "survivors are re-stamped");
        let (again, hit) = c
            .get_or_insert(&tree("C -> S"), plan_for("C -> S"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&survivor, &again));
        let (_, hit) = c
            .get_or_insert(&tree("C -> E"), plan_for("C -> E"))
            .unwrap();
        assert!(!hit, "the affected plan was dropped");
    }

    fn pattern_plan_for(text: &str) -> impl Fn() -> Result<QueryPlan, PlanError> + '_ {
        move || {
            let g = ktpm_graph::fixtures::citation_graph();
            let store = ktpm_storage::MemStore::new(ktpm_closure::ClosureTables::compute(&g))
                .with_graph(g.clone())
                .into_shared();
            QueryPlan::from_text(QueryForm::Pattern, text, g.interner(), &store)
        }
    }

    #[test]
    fn split_invalidation_checks_each_plan_against_its_own_list() {
        let g = ktpm_graph::fixtures::citation_graph();
        let lbl = |n: &str| g.interner().get(n).unwrap();
        let mut c = PlanCache::new(8);
        // Same text, both forms: the tree plan reads the directed
        // (C, E) table, the pattern plan the undirected mirror's.
        let (tree_plan, _) = c
            .get_or_insert(&tree("C -> E"), plan_for("C -> E"))
            .unwrap();
        let (pattern_plan, hit) = c
            .get_or_insert(&pattern("C -> E"), pattern_plan_for("C -> E"))
            .unwrap();
        assert!(!hit, "the forms are distinct keys");
        assert!(pattern_plan.is_pattern());
        // Delta touched (C, E) only in the undirected mirror (e.g. the
        // directed change was masked): the tree plan must survive with
        // a re-stamp, the pattern plan must go.
        let dropped = c.invalidate_affected(&report(&[], &[(lbl("C"), lbl("E"))], 7));
        assert_eq!(dropped, 1);
        assert_eq!(
            tree_plan.graph_version(),
            7,
            "tree plan survives re-stamped"
        );
        let (_, hit) = c
            .get_or_insert(&tree("C -> E"), plan_for("C -> E"))
            .unwrap();
        assert!(hit);
        let (pattern_plan, hit) = c
            .get_or_insert(&pattern("C -> E"), pattern_plan_for("C -> E"))
            .unwrap();
        assert!(!hit, "the pattern plan was the split-invalidation victim");
        // And the mirror case: only the directed list touched.
        let dropped = c.invalidate_affected(&report(&[(lbl("C"), lbl("E"))], &[], 8));
        assert_eq!(dropped, 1);
        assert_eq!(
            pattern_plan.graph_version(),
            8,
            "pattern plan survives re-stamped"
        );
        let (_, hit) = c
            .get_or_insert(&pattern("C -> E"), pattern_plan_for("C -> E"))
            .unwrap();
        assert!(hit);
    }
}
