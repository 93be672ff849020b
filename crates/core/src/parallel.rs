//! `ParTopk` — parallel partitioned top-k enumeration.
//!
//! The paper's enumerators are strictly sequential per query. Ranked-
//! enumeration theory (Tziavelis et al., *Optimal Join Algorithms Meet
//! Top-k*) observes that any-k enumeration decomposes by disjoint
//! subproblem and re-merges through a heap without losing the score-
//! order guarantee. Here the decomposition is by **root candidate**:
//! a [`ktpm_storage::ShardSpec`] split slices the root candidate set
//! into `P` disjoint, exhaustive shards; each shard runs an independent
//! sequential [`TopkEnumerator`] over the plan's *shared* run-time graph
//! and slot templates (the O(m_R) load and `bs` pass happen once per
//! plan; shards build their slot lists on demand), and the shard
//! streams are lazily k-way merged on `(score, assignment)`. Any-k
//! enumeration splits into disjoint subproblems merged by one heap, so
//! one sequential engine per shard is all the split needs. Because each
//! shard's enumerator pops in the canonical order ([`crate::partition`])
//! natively — so a shard's stream is exactly the full stream filtered
//! to the shard's roots — the merged stream equals [`crate::topk_full`]
//! exactly — order, scores and witnesses — for every shard count.
//!
//! ## Scheduling
//!
//! Shard work runs as **finite jobs** on a shared [`WorkerPool`]
//! ([`crate::exec`]): setup plus one batch of matches per job, enumerator
//! state handed back to the caller between batches. Jobs never block on
//! other jobs, so any number of concurrent `ParTopk` runs share one
//! pool without deadlock, and a `ParTopk` parked inside a service
//! session holds no pool thread. The merge refills every near-empty
//! shard in one scatter, so balanced streams keep all workers busy
//! while skewed streams only pay for what the merge actually consumes
//! (at most one batch of lookahead per shard).

use crate::exec::WorkerPool;
use crate::lawler::TopkEnumerator;
use crate::matches::ScoredMatch;
use crate::plan::QueryPlan;
use ktpm_graph::{NodeRow, Score};
use ktpm_query::ResolvedQuery;
use ktpm_storage::{ShardSpec, SharedSource};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// How a query is split across shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelPolicy {
    /// Number of root shards (1 = sequential execution on the pool).
    pub shards: usize,
    /// Matches pulled from a shard per job: the scheduling grain. It
    /// also bounds per-shard lookahead: a shard pops exactly what it
    /// hands over.
    pub batch: usize,
}

impl Default for ParallelPolicy {
    fn default() -> Self {
        ParallelPolicy {
            shards: std::thread::available_parallelism().map_or(4, |n| n.get().clamp(1, 8)),
            batch: 64,
        }
    }
}

impl ParallelPolicy {
    /// A policy with `shards` shards and the default batch.
    pub fn with_shards(shards: usize) -> Self {
        ParallelPolicy {
            shards,
            ..ParallelPolicy::default()
        }
    }
}

/// Pulls up to `n` matches; the flag is false once the stream ended.
fn pull(it: &mut TopkEnumerator, n: usize) -> (VecDeque<ScoredMatch>, bool) {
    let mut out = VecDeque::with_capacity(n);
    for _ in 0..n {
        match it.next() {
            Some(m) => out.push_back(m),
            None => return (out, false),
        }
    }
    (out, true)
}

/// A shard's parked enumerator (`None` once exhausted) plus the batch
/// buffer the merge drains between refills. Boxed: the enumerator is
/// hundreds of bytes and hops between the caller and pool workers
/// every batch.
struct ShardStream {
    iter: Option<Box<TopkEnumerator>>,
    buf: VecDeque<ScoredMatch>,
}

type ShardJobResult = (Option<Box<TopkEnumerator>>, VecDeque<ScoredMatch>);

/// The parallel enumerator's execution mode.
enum ParInner {
    /// One shard covers the whole root set: scatter, batching and the
    /// k-way merge all collapse — the run *is* its single canonical
    /// shard stream, driven inline on the calling thread with zero
    /// pool round-trips (`ParTopk/1` used to cost ~2x plain `Topk`
    /// purely in scheduling and buffering overhead).
    Single(Box<TopkEnumerator>),
    /// The genuinely partitioned form: per-shard batch jobs on the
    /// pool, lazily k-way merged.
    Multi {
        shards: Vec<ShardStream>,
        /// Merge heap: the current head of every live shard, keyed by
        /// the canonical `(score, assignment)` order (shard index only
        /// breaks the tie between — impossible — identical
        /// assignments). Rows are memoized [`NodeRow`]s moved through
        /// the heap, so the tiebreak never re-materializes a match.
        heap: BinaryHeap<Reverse<(Score, NodeRow, usize)>>,
        pool: Arc<WorkerPool>,
        batch: usize,
    },
}

/// The lazily merged parallel enumerator; see module docs. Yields the
/// exact [`crate::topk_full`] stream; `take(k)` gives the top-k.
pub struct ParTopk {
    inner: ParInner,
    shards: usize,
}

impl ParTopk {
    /// Splits `query` per `policy` and runs shard setup (plus each
    /// shard's first batch) concurrently on `pool`, over a transient
    /// one-run [`QueryPlan`]. Callers that serve the same query
    /// repeatedly should hold a plan and use [`Self::from_plan`], which
    /// skips every per-query setup cost on warm runs.
    pub fn new(
        query: &ResolvedQuery,
        source: SharedSource,
        policy: &ParallelPolicy,
        pool: Arc<WorkerPool>,
    ) -> ParTopk {
        Self::from_plan(&QueryPlan::new(query.clone(), source), policy, pool)
    }

    /// As [`Self::new`] over a shared [`QueryPlan`]: shard setup (the
    /// run-time graph, `bs` and slot templates) comes from the plan,
    /// built on its first use and shared by every later run *and* by
    /// the `P` shards of this run. With one shard the pool is bypassed
    /// entirely: the run drives its single canonical shard stream — the
    /// [`TopkEnumerator::from_plan`] stream — inline.
    pub fn from_plan(plan: &QueryPlan, policy: &ParallelPolicy, pool: Arc<WorkerPool>) -> ParTopk {
        let batch = policy.batch.max(1);
        let specs = ShardSpec::split(policy.shards);
        let templates = Arc::clone(plan.slot_templates());
        if specs.len() == 1 {
            return ParTopk {
                inner: ParInner::Single(Box::new(TopkEnumerator::from_templates(
                    templates, specs[0],
                ))),
                shards: 1,
            };
        }
        let jobs: Vec<Box<dyn FnOnce() -> ShardJobResult + Send>> = specs
            .into_iter()
            .map(|spec| {
                let templates = Arc::clone(&templates);
                Box::new(move || {
                    let mut it = Box::new(TopkEnumerator::from_templates(templates, spec));
                    let (buf, alive) = pull(&mut it, batch);
                    (alive.then_some(it), buf)
                }) as Box<dyn FnOnce() -> ShardJobResult + Send>
            })
            .collect();
        let results = pool.scatter(jobs);
        let mut shards = Vec::with_capacity(results.len());
        for (iter, buf) in results {
            shards.push(ShardStream { iter, buf });
        }
        let n = shards.len();
        let mut par = ParTopk {
            inner: ParInner::Multi {
                shards,
                heap: BinaryHeap::new(),
                pool,
                batch,
            },
            shards: n,
        };
        for i in 0..n {
            par.push_head(i);
        }
        par
    }

    /// Number of shards this run was split into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Moves shard `s`'s next buffered match into the merge heap.
    fn push_head(&mut self, s: usize) {
        let ParInner::Multi { shards, heap, .. } = &mut self.inner else {
            unreachable!("push_head is a merge-path helper");
        };
        if let Some(m) = shards[s].buf.pop_front() {
            heap.push(Reverse((m.score, m.assignment, s)));
        }
    }

    /// One scatter refilling every live shard whose buffer ran dry.
    /// Balanced shards drain in lockstep, so this usually refills all of
    /// them in parallel rather than one at a time.
    fn refill_dry(&mut self) {
        let ParInner::Multi {
            shards,
            pool,
            batch,
            ..
        } = &mut self.inner
        else {
            unreachable!("refill_dry is a merge-path helper");
        };
        let batch = *batch;
        let mut idx = Vec::new();
        let mut jobs: Vec<Box<dyn FnOnce() -> ShardJobResult + Send>> = Vec::new();
        for (i, sh) in shards.iter_mut().enumerate() {
            if sh.buf.is_empty() {
                if let Some(mut it) = sh.iter.take() {
                    idx.push(i);
                    jobs.push(Box::new(move || {
                        let (buf, alive) = pull(&mut it, batch);
                        (alive.then_some(it), buf)
                    }));
                }
            }
        }
        let results = match jobs.len() {
            0 => return,
            // One dry shard: the pool round-trip buys nothing.
            1 => vec![jobs.pop().expect("len checked")()],
            _ => pool.scatter(jobs),
        };
        for (i, (iter, buf)) in idx.into_iter().zip(results) {
            shards[i].iter = iter;
            shards[i].buf = buf;
        }
    }
}

impl Iterator for ParTopk {
    type Item = ScoredMatch;

    fn next(&mut self) -> Option<ScoredMatch> {
        // 1-shard fast path: delegate to the underlying canonical
        // enumerator — no batching, no merge, no pool.
        let (score, assignment, s) = match &mut self.inner {
            ParInner::Single(it) => return it.next(),
            ParInner::Multi { heap, .. } => {
                let Reverse(head) = heap.pop()?;
                head
            }
        };
        let needs_refill = {
            let ParInner::Multi { shards, .. } = &self.inner else {
                unreachable!("Single returned above");
            };
            shards[s].buf.is_empty() && shards[s].iter.is_some()
        };
        if needs_refill {
            self.refill_dry();
        }
        self.push_head(s);
        Some(ScoredMatch { score, assignment })
    }
}

/// Convenience: the exact [`crate::topk_full`] top-k, computed by
/// `policy.shards`-way partitioned execution on `pool`.
pub fn par_topk(
    query: &ResolvedQuery,
    source: SharedSource,
    k: usize,
    policy: &ParallelPolicy,
    pool: Arc<WorkerPool>,
) -> Vec<ScoredMatch> {
    ParTopk::new(query, source, policy, pool).take(k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk_full;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::{citation_graph, paper_graph};
    use ktpm_graph::LabeledGraph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;

    fn pool() -> Arc<WorkerPool> {
        crate::exec::default_pool()
    }

    fn check(g: &LabeledGraph, query: &str) {
        let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
        let tables = ClosureTables::compute(g);
        let store = MemStore::new(tables.clone());
        let shared = MemStore::with_block_edges(tables, 2).into_shared();
        let want = topk_full(&q, &store, usize::MAX);
        for shards in [1usize, 2, 3, 4, 7] {
            for batch in [1usize, 3, 64] {
                let policy = ParallelPolicy { shards, batch };
                let got = par_topk(&q, Arc::clone(&shared), usize::MAX, &policy, pool());
                assert_eq!(got, want, "query {query:?} shards {shards} batch {batch}");
            }
        }
    }

    #[test]
    fn exactly_reproduces_topk_full_on_fixtures() {
        let g = paper_graph();
        check(&g, "a -> b\na -> c\nc -> d\nc -> e");
        check(&g, "a -> c\nc -> d");
        check(&g, "a");
        let g = citation_graph();
        check(&g, "C -> E\nC -> S");
    }

    #[test]
    fn duplicate_labels_and_wildcards_partition_cleanly() {
        let g = paper_graph();
        check(&g, "a#1 -> a#2");
        check(&g, "c -> *#1");
        check(&g, "a => b");
    }

    #[test]
    fn no_match_queries_yield_nothing() {
        let g = paper_graph();
        let q = TreeQuery::parse("s -> a").unwrap().resolve(g.interner());
        let shared = MemStore::new(ClosureTables::compute(&g)).into_shared();
        let policy = ParallelPolicy::with_shards(4);
        assert_eq!(par_topk(&q, shared, 10, &policy, pool()), Vec::new());
    }

    #[test]
    fn take_k_prefixes_agree_across_shard_counts() {
        let g = paper_graph();
        let q = TreeQuery::parse("a -> b\na -> c\nc -> d\nc -> e")
            .unwrap()
            .resolve(g.interner());
        let shared = MemStore::new(ClosureTables::compute(&g)).into_shared();
        let all = par_topk(
            &q,
            Arc::clone(&shared),
            usize::MAX,
            &ParallelPolicy::with_shards(1),
            pool(),
        );
        for k in [1usize, 2, 5, 17] {
            for shards in [2usize, 4] {
                let got = par_topk(
                    &q,
                    Arc::clone(&shared),
                    k,
                    &ParallelPolicy::with_shards(shards),
                    pool(),
                );
                assert_eq!(
                    got,
                    all[..k.min(all.len())].to_vec(),
                    "k {k} shards {shards}"
                );
            }
        }
    }

    #[test]
    fn partopk_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ParTopk>();
    }
}
