//! The paper's quantitative claims, one `#[test]` per claim, each
//! asserted on a count.
//!
//! Every entry cites the section it reproduces, names the dataset,
//! query size and `k` it reads, and asserts on counters the engines
//! already expose (`TopkCounters`, `TopkEnCounters`, `KgpmStats`,
//! `RuntimeStats`, `ClosureStats`, `IoSnapshot`), never on wall time.
//! The data are the seeded `ktpm-workload` generators at laptop scale:
//! the default datasets GD3 (citation, 5 000 nodes) and GS3 (power-law,
//! 5 000 nodes), with three distinct-label random-walk queries each of
//! T10, T20 and T50. Each dataset is built once per test binary over a
//! `MemStore`.
//!
//! | entry | paper | reads |
//! |---|---|---|
//! | `topk_en_loads_a_fraction_of_the_run_time_graph` | §4, Fig. 6 | m'_R against m_R |
//! | `tight_loader_bound_loads_no_more_than_the_loose_one` | §4 intro, §4.2 | m'_R, tight against loose trigger |
//! | `k_matches_cost_k_pops` | §3 | pops against matches |
//! | `side_queues_bound_queue_entrants_per_pop` | §3.3 | `Q` pushes per pop, with and without `Q_l` |
//! | `run_time_graph_is_a_sliver_of_the_closure` | Table 3 | m_R against closure edges |
//! | `lazy_engines_read_fewer_closure_edges` | Fig. 6 | closure edges read per engine |
//! | `mtree_and_mtree_plus_agree` | §6.2, Fig. 9 | kGPM scores and tree matches per driver |
//!
//! ## Claims not reproduced
//!
//! - Every timing figure (Figs. 6–10): a count cannot show a duration.
//!   `benchmark/` measures time.
//! - Table 2's absolute closure sizes (98–247 GB): the families are
//!   scaled so every closure fits in memory.
//! - Fig. 9's "mtree+ verifies fewer matches than mtree": on Q1–Q4 both
//!   drivers enumerate exactly as many tree matches and read as many
//!   mirror edges, so the entry asserts they are equal.

use ktpm::core::baselines::{DpBEnumerator, DpPEnumerator};
use ktpm::core::{TopkCounters, TopkEnCounters};
use ktpm::graph::undirect;
use ktpm::prelude::*;
use ktpm::workload::{gd_family, gs_family, pattern_family, pattern_set, DEFAULT_GD, DEFAULT_GS};
use std::sync::{Arc, OnceLock};

/// The `k` values every enumeration entry reads (Fig. 6 and 7 vary k).
const KS: [usize; 4] = [1, 10, 100, 1000];
/// Query sizes (the paper's T10, T20, T50 sets).
const SIZES: [usize; 3] = [10, 20, 50];
/// Queries per size.
const PER_SIZE: usize = 3;

/// A generated data graph's closure and its query sets.
struct Dataset {
    name: &'static str,
    store: Arc<MemStore>,
    /// `(size, queries)` per entry of [`SIZES`].
    queries: Vec<(usize, Vec<ResolvedQuery>)>,
}

impl Dataset {
    fn build((name, spec): (&'static str, GraphSpec)) -> Dataset {
        let graph = generate(&spec);
        let store = Arc::new(MemStore::new(ClosureTables::compute(&graph)));
        let queries = SIZES
            .iter()
            .map(|&size| {
                let set = query_set(&graph, size, PER_SIZE, true, 0xBEEF + size as u64)
                    .into_iter()
                    .map(|q| q.resolve(graph.interner()))
                    .collect::<Vec<_>>();
                assert_eq!(set.len(), PER_SIZE, "{name} T{size}");
                (size, set)
            })
            .collect();
        Dataset {
            name,
            store,
            queries,
        }
    }

    fn shared(&self) -> SharedSource {
        Arc::clone(&self.store) as SharedSource
    }

    /// Every query, labelled with its size.
    fn all_queries(&self) -> impl Iterator<Item = (usize, &ResolvedQuery)> {
        self.queries
            .iter()
            .flat_map(|(size, qs)| qs.iter().map(move |q| (*size, q)))
    }

    fn of_size(&self, size: usize) -> &[ResolvedQuery] {
        &self
            .queries
            .iter()
            .find(|(s, _)| *s == size)
            .expect("a ledger size")
            .1
    }
}

/// GD3 and GS3, each built once per test binary.
fn datasets() -> [&'static Dataset; 2] {
    static GD3: OnceLock<Dataset> = OnceLock::new();
    static GS3: OnceLock<Dataset> = OnceLock::new();
    [
        GD3.get_or_init(|| Dataset::build(gd_family().swap_remove(DEFAULT_GD))),
        GS3.get_or_init(|| Dataset::build(gs_family().swap_remove(DEFAULT_GS))),
    ]
}

/// Pulls `it` up to each `k` of [`KS`] in turn and reads `counters`
/// there: `(k, matches so far, counters)`.
fn at_each_k<I: Iterator, C>(mut it: I, counters: impl Fn(&I) -> C) -> Vec<(usize, usize, C)> {
    let mut matches = 0;
    KS.iter()
        .map(|&k| {
            while matches < k && it.next().is_some() {
                matches += 1;
            }
            (k, matches, counters(&it))
        })
        .collect()
}

fn topk_counters(rg: &Arc<RuntimeGraph>, side_queues: bool) -> Vec<(usize, usize, TopkCounters)> {
    let it = TopkEnumerator::with_side_queues(Arc::clone(rg), side_queues);
    at_each_k(it, TopkEnumerator::counters)
}

fn topk_en_counters(
    q: &ResolvedQuery,
    store: SharedSource,
    tight: bool,
) -> Vec<(usize, usize, TopkEnCounters)> {
    let bound = if tight {
        BoundMode::Tight
    } else {
        BoundMode::Loose
    };
    let it = TopkEnEnumerator::with_bound(q, store, bound);
    at_each_k(it, TopkEnEnumerator::counters)
}

/// §4 and Fig. 6 (`edges`): `Topk-EN` loads m'_R ≪ m_R edges of the
/// run-time graph, and more only as k grows. GD3 and GS3, T10/T20/T50,
/// k ∈ {1, 10, 100, 1000}: m'_R ≤ m_R / 5 at k = 1 and ≤ m_R / 3 at
/// every k, non-decreasing in k.
#[test]
fn topk_en_loads_a_fraction_of_the_run_time_graph() {
    for ds in datasets() {
        for (size, q) in ds.all_queries() {
            let m_r = RuntimeGraph::load(q, ds.store.as_ref()).stats().edges as u64;
            let loaded: Vec<u64> = topk_en_counters(q, ds.shared(), true)
                .iter()
                .map(|(_, _, c)| c.edges_loaded)
                .collect();
            let at = format!(
                "{} T{size}: m_R {m_r}, m'_R at k = {KS:?}: {loaded:?}",
                ds.name
            );
            assert!(loaded[0] * 5 <= m_r, "k = 1 over m_R / 5: {at}");
            assert!(loaded.iter().all(|&e| e * 3 <= m_r), "over m_R / 3: {at}");
            assert!(loaded.windows(2).all(|w| w[0] <= w[1]), "shrank: {at}");
        }
    }
}

/// §4 (introduction) and §4.2: `Topk-EN`'s tight loading trigger never
/// loads more than DP-P's loose one, and at k = 1 it loads strictly
/// less on most queries. GD3 and GS3, T10/T20/T50,
/// k ∈ {1, 10, 100, 1000}.
#[test]
fn tight_loader_bound_loads_no_more_than_the_loose_one() {
    let (mut strict_at_1, mut queries) = (0, 0);
    for ds in datasets() {
        for (size, q) in ds.all_queries() {
            let tight = topk_en_counters(q, ds.shared(), true);
            let loose = topk_en_counters(q, ds.shared(), false);
            for ((k, _, t), (_, _, l)) in tight.iter().zip(&loose) {
                assert!(
                    t.edges_loaded <= l.edges_loaded,
                    "{} T{size} k = {k}: tight {} > loose {}",
                    ds.name,
                    t.edges_loaded,
                    l.edges_loaded
                );
            }
            queries += 1;
            strict_at_1 += usize::from(tight[0].2.edges_loaded < loose[0].2.edges_loaded);
        }
    }
    assert!(
        strict_at_1 * 4 >= queries * 3,
        "tight < loose at k = 1 on only {strict_at_1} of {queries} queries"
    );
}

/// §3 (Lawler's procedure): the i-th match costs one pop, so k matches
/// cost exactly k pops in both `Topk` and `Topk-EN`. GD3 and GS3,
/// T10/T20/T50, k ∈ {1, 10, 100, 1000}.
#[test]
fn k_matches_cost_k_pops() {
    for ds in datasets() {
        for (size, q) in ds.all_queries() {
            let rg = Arc::new(RuntimeGraph::load(q, ds.store.as_ref()));
            for (k, matches, c) in topk_counters(&rg, true) {
                assert_eq!(c.pops, matches as u64, "Topk {} T{size} k = {k}", ds.name);
            }
            for (k, matches, c) in topk_en_counters(q, ds.shared(), true) {
                assert_eq!(
                    c.pops, matches as u64,
                    "Topk-EN {} T{size} k = {k}",
                    ds.name
                );
            }
        }
    }
}

/// §3.3: the side queues `Q_l` hold a round's non-best children, so at
/// most two candidates (the round's best child and one promotion) enter
/// `Q` per pop; without them every child does. GD3 and GS3,
/// T10/T20/T50, k ∈ {1, 10, 100, 1000}: with `Q_l` ≤ 2 pushes per pop
/// everywhere and never more than without; without, over 2 somewhere.
#[test]
fn side_queues_bound_queue_entrants_per_pop() {
    let mut worst_without: f64 = 0.0;
    for ds in datasets() {
        for (size, q) in ds.all_queries() {
            let rg = Arc::new(RuntimeGraph::load(q, ds.store.as_ref()));
            let with = topk_counters(&rg, true);
            let without = topk_counters(&rg, false);
            for ((k, _, w), (_, _, wo)) in with.iter().zip(&without) {
                let at = format!(
                    "{} T{size} k = {k}: {} pushes over {} pops with Q_l, {} without",
                    ds.name, w.q_pushes, w.pops, wo.q_pushes
                );
                assert!(w.q_pushes <= 2 * w.pops, "over 2 per pop: {at}");
                assert!(w.q_pushes <= wo.q_pushes, "more than without: {at}");
                worst_without = worst_without.max(wo.q_pushes as f64 / wo.pops as f64);
            }
        }
    }
    assert!(
        worst_without > 2.0,
        "without Q_l at most {worst_without} pushes per pop"
    );
}

/// Table 3: the run-time graph a query loads is a sliver of the whole
/// closure. GD3 and GS3, T10/T20/T50: m_R ≤ closure edges / 20 on
/// every query.
#[test]
fn run_time_graph_is_a_sliver_of_the_closure() {
    for ds in datasets() {
        let closure = ds.store.tables().stats().edges;
        for (size, q) in ds.all_queries() {
            let s = RuntimeGraph::load(q, ds.store.as_ref()).stats();
            assert!(s.nodes > 0 && s.edges > 0, "{} T{size}: empty", ds.name);
            assert!(
                s.edges * 20 <= closure,
                "{} T{size}: m_R {} over closure {closure} / 20",
                ds.name,
                s.edges
            );
        }
    }
}

/// An engine of the Fig. 6 comparison: a served [`Algo`] or one of the
/// paper's baselines.
#[derive(Clone, Copy)]
enum Engine {
    Served(Algo),
    DpB,
    DpP,
}

/// Fig. 6 (`edges`): DP-B and `Topk` read the whole run-time graph,
/// DP-P's loose trigger reads less and `Topk-EN` the least. GD3 and
/// GS3, T20, k = 10, closure edges read per engine off a private
/// store's [`IoSnapshot`].
#[test]
fn lazy_engines_read_fewer_closure_edges() {
    let pool = Arc::new(WorkerPool::new(1));
    let policy = ParallelPolicy::with_shards(1);
    for ds in datasets() {
        // A store of its own: other entries read `ds.store` concurrently.
        let store: SharedSource = MemStore::new(ds.store.tables().clone()).into_shared();
        let mut totals = [0u64; 4];
        for q in ds.of_size(20) {
            // The baselines are no `Algo`: they are built directly, on
            // the same fresh plan a served engine would get.
            let read = |engine: Engine| {
                store.reset_io();
                let plan = QueryPlan::new(q.clone(), Arc::clone(&store));
                let mut stream: BoxedMatchStream = match engine {
                    Engine::Served(algo) => build_stream(algo, &plan, &policy, Arc::clone(&pool)),
                    Engine::DpB => Box::new(DpBEnumerator::from_plan(&plan)),
                    Engine::DpP => Box::new(DpPEnumerator::new(q, Arc::clone(&store))),
                };
                let mut out = Vec::new();
                stream.next_batch(10, &mut out);
                store.io().edges_read
            };
            let [dpb, topk, dpp, en] = [
                Engine::DpB,
                Engine::Served(Algo::Topk),
                Engine::DpP,
                Engine::Served(Algo::TopkEn),
            ]
            .map(read);
            let m_r = RuntimeGraph::load(q, store.as_ref()).stats().edges as u64;
            let at = format!(
                "{} T20 k = 10: DP-B {dpb}, Topk {topk}, DP-P {dpp}, Topk-EN {en}, m_R {m_r}",
                ds.name
            );
            assert!(
                dpb == m_r && topk == m_r,
                "an eager engine missed m_R: {at}"
            );
            assert!(en <= dpp && dpp <= dpb, "lazy engines out of order: {at}");
            for (t, e) in totals.iter_mut().zip([dpb, topk, dpp, en]) {
                *t += e;
            }
        }
        assert!(
            totals[3] < totals[2] && totals[2] < totals[0],
            "{} T20 k = 10: no strict saving over the set: {totals:?}",
            ds.name
        );
    }
}

/// §6.2 and Fig. 9: kGPM's two drivers — mtree (DP-B) and mtree+
/// (`Topk-EN`) — return the same matches, and on this data enumerate
/// exactly as many tree matches. Power-law graph of 600 nodes, one
/// pattern each of Q1–Q4, k ∈ {10, 20, 100}.
#[test]
fn mtree_and_mtree_plus_agree() {
    let g = generate(&GraphSpec::power_law(600, 17));
    let ug = undirect(&g);
    let store = MemStore::new(ClosureTables::compute(&g))
        .with_graph(g.clone())
        .into_shared();
    let mut patterns = 0;
    for (name, spec) in pattern_family() {
        let Some(q) = pattern_set(&ug, spec, 1, 100).pop() else {
            continue;
        };
        patterns += 1;
        let plan = QueryPlan::new_pattern(q, g.interner(), &store).expect("a pattern plan");
        for k in [10, 20, 100] {
            let run = |driver: BoxedMatchStream| {
                let mut stream = KgpmStream::new(&plan, driver);
                let mut out = Vec::new();
                stream.next_batch(k, &mut out);
                let scores: Vec<Score> = out.iter().map(|m| m.score).collect();
                (scores, stream.stats())
            };
            let mtree = run(Box::new(DpBEnumerator::from_plan(&plan)));
            let mtree_plus = run(Box::new(TopkEnEnumerator::from_plan(&plan)));
            assert_eq!(mtree.0.len(), k, "{name} k = {k}: short stream");
            assert_eq!(mtree, mtree_plus, "{name} k = {k}: scores or work differ");
        }
    }
    assert_eq!(patterns, 4, "Q1–Q4 all extract");
}

/// Every tree engine of [`Algo::ALL`] (kGPM needs a pattern plan)
/// produces matches through the one [`build_stream`] dispatch, and so
/// do the DP-B / DP-P baselines, built directly. GD3 and GS3, T10,
/// k = 5.
#[test]
fn prepare_and_measure_smoke() {
    let pool = ktpm::exec::default_pool();
    for ds in datasets() {
        for q in ds.of_size(10) {
            let plan = QueryPlan::new(q.clone(), ds.shared());
            for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Kgpm) {
                let mut stream =
                    build_stream(algo, &plan, &ParallelPolicy::default(), Arc::clone(&pool));
                let mut out = Vec::new();
                stream.next_batch(5, &mut out);
                assert!(!out.is_empty(), "{algo:?} produced nothing on {}", ds.name);
            }
            let baselines: [(&str, BoxedMatchStream); 2] = [
                ("DP-B", Box::new(DpBEnumerator::from_plan(&plan))),
                ("DP-P", Box::new(DpPEnumerator::new(q, ds.shared()))),
            ];
            for (name, mut stream) in baselines {
                let mut out = Vec::new();
                stream.next_batch(5, &mut out);
                assert!(!out.is_empty(), "{name} produced nothing on {}", ds.name);
            }
        }
    }
}

/// `Topk` and `Topk-EN` stream the same scores. GD3 and GS3, T20,
/// k = 10.
#[test]
fn algorithms_agree_on_prepared_dataset() {
    for ds in datasets() {
        for q in ds.of_size(20) {
            let rg = RuntimeGraph::load(q, ds.store.as_ref());
            let a: Vec<_> = TopkEnumerator::new(Arc::new(rg))
                .take(10)
                .map(|m| m.score)
                .collect();
            let b: Vec<_> = TopkEnEnumerator::new(q, ds.shared())
                .take(10)
                .map(|m| m.score)
                .collect();
            assert_eq!(a, b, "{}", ds.name);
        }
    }
}

/// `ParTopk` at 1, 2 and 4 shards returns exactly `topk_full`'s
/// matches. GD3 and GS3, T10, k = 25.
#[test]
fn par_topk_agrees_with_sequential_on_prepared_dataset() {
    let pool = ktpm::exec::default_pool();
    for ds in datasets() {
        for q in ds.of_size(10) {
            let want = topk_full(q, ds.store.as_ref(), 25);
            for shards in [1usize, 2, 4] {
                let got = par_topk(
                    q,
                    ds.shared(),
                    25,
                    &ParallelPolicy::with_shards(shards),
                    Arc::clone(&pool),
                );
                assert_eq!(got, want, "{} shards {shards}", ds.name);
            }
        }
    }
}
