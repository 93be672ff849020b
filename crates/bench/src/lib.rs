//! # ktpm-bench
//!
//! The experiment harness behind `cargo run --release -p ktpm-bench --bin
//! experiments`: dataset preparation (with an on-disk closure cache
//! under `target/ktpm-data/`), query-set generation, and one
//! measurement routine per algorithm. Every table and figure of the
//! paper's §6 maps to a function here; the `experiments` binary prints
//! them in the paper's layout.

use ktpm_closure::ClosureTables;
use ktpm_core::{build_stream, MatchStream, ParallelPolicy, QueryPlan};
use ktpm_exec::WorkerPool;
use ktpm_graph::LabeledGraph;
use ktpm_query::ResolvedQuery;
use ktpm_runtime::RuntimeGraph;
use ktpm_storage::{open_store_auto, write_store, SharedSource};
use ktpm_workload::{generate, query_set, GraphSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The engine registry the harness measures — the same [`Algo`] the
/// facade, the CLI and the serving tier dispatch on. The bench crate
/// adds nothing on top: every measurement routes through the one
/// [`build_stream`] entry point.
pub use ktpm_core::Algo;

/// The four systems of Figure 6, in the paper's legend order.
pub const FIG6: [Algo; 4] = [Algo::DpB, Algo::DpP, Algo::Topk, Algo::TopkEn];

/// Display name as used in the paper's figures (the registry's
/// [`Algo::name`] is the wire/CLI spelling).
pub fn paper_name(algo: Algo) -> &'static str {
    match algo {
        Algo::DpB => "DP-B",
        Algo::DpP => "DP-P",
        Algo::Topk => "Topk",
        Algo::TopkEn => "Topk-EN",
        Algo::Par => "Par-Topk",
        Algo::Brute => "Brute",
        Algo::Kgpm => "kGPM",
    }
}

/// A prepared dataset: graph + on-disk closure store.
pub struct Dataset {
    /// Family name (`GD3`, `GS1`, ...).
    pub name: String,
    /// The data graph.
    pub graph: LabeledGraph,
    /// The opened on-disk closure store, behind a shared handle so
    /// parallel runs can clone it per shard.
    pub store: SharedSource,
}

/// The workspace root, resolved from this crate's manifest directory
/// (stable under any invocation cwd): `crates/bench` → two levels up.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

fn cache_dir() -> PathBuf {
    let p = workspace_root().join("target").join("ktpm-data");
    std::fs::create_dir_all(&p).expect("create cache dir");
    p
}

/// Prepares (or re-opens from cache) the dataset for `spec`. The cache
/// key fingerprints every generator parameter so preset changes
/// invalidate stale closures.
pub fn prepare_dataset(name: &str, spec: &GraphSpec) -> Dataset {
    let graph = generate(spec);
    let fingerprint = format!(
        "{}-{}-{}-{}-{}-{}-{}-{}-{}",
        spec.nodes,
        spec.seed,
        spec.labels,
        (spec.label_skew * 100.0) as u32,
        (spec.avg_out_degree * 100.0) as u32,
        spec.community,
        (spec.cross_fraction * 1000.0) as u32,
        spec.weight_range.0,
        spec.weight_range.1,
    );
    let mut path = cache_dir();
    // The filename carries the store format version so a checkout that
    // changes the default output format never re-opens a stale cache
    // file written in the old one.
    path.push(format!("{name}-{fingerprint}-v3.tc"));
    if !path.exists() {
        write_store(&ClosureTables::compute(&graph), &path).expect("write closure store");
    }
    // Version-sniffing open (v3 paged with the default cache budget
    // here; the helper keeps working if the default format moves).
    let store = open_store_auto(&path, None).expect("open closure store");
    Dataset {
        name: name.to_string(),
        graph,
        store,
    }
}

/// Forces a fresh closure computation (Table 2 timing), without cache.
pub fn closure_cost(spec: &GraphSpec) -> (f64, ktpm_closure::ClosureStats) {
    let graph = generate(spec);
    let t = Instant::now();
    let tables = ClosureTables::compute(&graph);
    (t.elapsed().as_secs_f64(), tables.stats())
}

/// Resolved query set of `count` trees with `size` nodes.
pub fn queries_for(ds: &Dataset, size: usize, count: usize, distinct: bool) -> Vec<ResolvedQuery> {
    query_set(&ds.graph, size, count, distinct, 0xBEEF + size as u64)
        .into_iter()
        .map(|q| q.resolve(ds.graph.interner()))
        .collect()
}

/// A match-dense `root -> *#1, ..., *#fanout` wildcard star (the §5
/// general-twig workload). Wildcard children multiply the branching
/// under every root candidate, so total matches grow combinatorially
/// while the run-time graph stays linear in the root label's tables —
/// the large-k regime where enumeration dominates loading, which is
/// exactly what partitioned execution parallelizes. Returns `None` if
/// the label does not occur in the dataset.
pub fn wildcard_star(ds: &Dataset, root_label: &str, fanout: usize) -> Option<ResolvedQuery> {
    ds.graph.interner().get(root_label)?;
    let text: String = (1..=fanout)
        .map(|i| format!("{root_label} -> *#{i}\n"))
        .collect();
    ktpm_query::TreeQuery::parse(&text)
        .ok()
        .map(|q| q.resolve(ds.graph.interner()))
}

/// One algorithm measurement over a single query.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measurement {
    /// Wall time to produce the top-1 match (including loading), seconds.
    pub top1_secs: f64,
    /// Wall time for the remaining k-1 matches, seconds.
    pub enum_secs: f64,
    /// Closure edges read from storage.
    pub edges_loaded: u64,
    /// Bytes read from storage.
    pub bytes_read: u64,
    /// Matches actually produced (may be < k).
    pub produced: usize,
}

impl Measurement {
    /// Total wall time.
    pub fn total_secs(&self) -> f64 {
        self.top1_secs + self.enum_secs
    }
}

/// Measures one facade stream — the same execution path `ktpm::api`,
/// `ktpm query` and serving sessions run: the engine is selected by
/// [`Algo`] through the single [`build_stream`] dispatch, top-1 is one
/// pull, and the remaining `k-1` matches arrive in ONE batched
/// `next_batch` call (the shape a `NEXT <s> k` serves).
pub fn run_stream(
    ds: &Dataset,
    query: &ResolvedQuery,
    k: usize,
    algo: Algo,
    policy: &ParallelPolicy,
    pool: &Arc<WorkerPool>,
) -> Measurement {
    ds.store.reset_io();
    let mut m = Measurement::default();
    let t0 = Instant::now();
    let plan = QueryPlan::new(query.clone(), Arc::clone(&ds.store));
    let mut it = build_stream(algo, &plan, policy, Arc::clone(pool));
    let first = MatchStream::next(&mut *it);
    m.top1_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut rest = Vec::new();
    if first.is_some() {
        it.next_batch(k.saturating_sub(1), &mut rest);
    }
    m.produced = usize::from(first.is_some()) + rest.len();
    m.enum_secs = t1.elapsed().as_secs_f64();
    let io = ds.store.io();
    m.edges_loaded = io.edges_read;
    m.bytes_read = io.bytes_read;
    m
}

/// Runs `algo` for the top-`k` matches of `query`, measuring phases
/// and I/O against the dataset's disk store. Every engine — the DP
/// baselines included — goes through the facade stream
/// ([`run_stream`]); there is no per-algorithm constructor dispatch
/// left in the harness.
pub fn run_algo(ds: &Dataset, query: &ResolvedQuery, k: usize, algo: Algo) -> Measurement {
    run_stream(
        ds,
        query,
        k,
        algo,
        &ParallelPolicy::default(),
        &ktpm_exec::default_pool(),
    )
}

/// Runs `ParTopk` with `shards` shards for the top-`k` matches of
/// `query` on `pool` — [`run_stream`] with [`ktpm_core::Algo::Par`].
/// With `shards == 1` this is the sequential canonical-order baseline
/// the speedup figures compare against.
pub fn run_par(
    ds: &Dataset,
    query: &ResolvedQuery,
    k: usize,
    shards: usize,
    pool: &Arc<WorkerPool>,
) -> Measurement {
    run_stream(
        ds,
        query,
        k,
        ktpm_core::Algo::Par,
        &ParallelPolicy::with_shards(shards),
        pool,
    )
}

/// Averages [`run_par`] over a query set (same shape as
/// [`run_algo_avg`], including the warm-up run).
pub fn run_par_avg(
    ds: &Dataset,
    queries: &[ResolvedQuery],
    k: usize,
    shards: usize,
    pool: &Arc<WorkerPool>,
) -> Measurement {
    run_avg(queries, k, |q, k| run_par(ds, q, k, shards, pool))
}

/// Averages `run_algo` over a query set.
pub fn run_algo_avg(ds: &Dataset, queries: &[ResolvedQuery], k: usize, algo: Algo) -> Measurement {
    run_avg(queries, k, |q, k| run_algo(ds, q, k, algo))
}

/// Averages a per-query measurement over a query set, after one k=1
/// warm-up run (page cache / allocator, so the first k doesn't pay
/// setup).
fn run_avg(
    queries: &[ResolvedQuery],
    k: usize,
    mut run: impl FnMut(&ResolvedQuery, usize) -> Measurement,
) -> Measurement {
    let mut acc = Measurement::default();
    if queries.is_empty() {
        return acc;
    }
    let _ = run(&queries[0], 1);
    for q in queries {
        let m = run(q, k);
        acc.top1_secs += m.top1_secs;
        acc.enum_secs += m.enum_secs;
        acc.edges_loaded += m.edges_loaded;
        acc.bytes_read += m.bytes_read;
        acc.produced += m.produced;
    }
    let n = queries.len() as f64;
    acc.top1_secs /= n;
    acc.enum_secs /= n;
    acc.edges_loaded = (acc.edges_loaded as f64 / n) as u64;
    acc.bytes_read = (acc.bytes_read as f64 / n) as u64;
    acc.produced /= queries.len();
    acc
}

/// Average run-time graph sizes over a query set (Table 3).
pub fn runtime_graph_sizes(ds: &Dataset, queries: &[ResolvedQuery]) -> (f64, f64) {
    if queries.is_empty() {
        return (0.0, 0.0);
    }
    let (mut nodes, mut edges) = (0usize, 0usize);
    for q in queries {
        let rg = RuntimeGraph::load(q, ds.store.as_ref());
        let s = rg.stats();
        nodes += s.nodes;
        edges += s.edges;
    }
    (
        nodes as f64 / queries.len() as f64,
        edges as f64 / queries.len() as f64,
    )
}

/// Pretty-prints seconds with a stable unit.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_core::{TopkEnEnumerator, TopkEnumerator};

    #[test]
    fn prepare_and_measure_smoke() {
        let ds = prepare_dataset("SMOKE", &GraphSpec::citation(400, 123));
        let queries = queries_for(&ds, 6, 3, true);
        assert!(!queries.is_empty());
        // Every tree-capable registry engine runs through the one
        // facade path; kGPM needs a pattern plan, which this harness
        // does not build (`experiments fig9` drives `KgpmStream` itself).
        for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Kgpm) {
            let m = run_algo_avg(&ds, &queries, 5, algo);
            assert!(m.produced >= 1, "{algo:?} produced nothing");
        }
        let (n, e) = runtime_graph_sizes(&ds, &queries);
        assert!(n > 0.0 && e > 0.0);
    }

    #[test]
    fn algorithms_agree_on_prepared_dataset() {
        let ds = prepare_dataset("SMOKE2", &GraphSpec::power_law(400, 5));
        let queries = queries_for(&ds, 5, 3, true);
        for q in &queries {
            let rg = RuntimeGraph::load(q, ds.store.as_ref());
            let a: Vec<_> = TopkEnumerator::new(&rg).take(10).map(|m| m.score).collect();
            let b: Vec<_> = TopkEnEnumerator::new(q, ds.store.as_ref())
                .take(10)
                .map(|m| m.score)
                .collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn par_topk_agrees_with_sequential_on_prepared_dataset() {
        let ds = prepare_dataset("SMOKE2", &GraphSpec::power_law(400, 5));
        let queries = queries_for(&ds, 5, 2, true);
        let pool = ktpm_exec::default_pool();
        for q in &queries {
            let want = ktpm_core::topk_full(q, ds.store.as_ref(), 25);
            for shards in [1usize, 2, 4] {
                let m = run_par(&ds, q, 25, shards, &pool);
                assert_eq!(m.produced, want.len().min(25), "shards {shards}");
                let got = ktpm_core::par_topk(
                    q,
                    Arc::clone(&ds.store),
                    25,
                    &ParallelPolicy::with_shards(shards),
                    Arc::clone(&pool),
                );
                assert_eq!(got, want, "shards {shards}");
            }
        }
    }

    #[test]
    fn cache_lives_under_the_workspace_target_dir() {
        // `cargo test` runs with cwd = crates/bench; the cache must not
        // follow it.
        let root = workspace_root();
        assert!(root.join("Cargo.lock").exists(), "{}", root.display());
        assert_eq!(cache_dir(), root.join("target").join("ktpm-data"));
    }

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(0.0000025), "2.5µs");
    }
}
