//! Property-based tests (proptest) for the core invariants:
//!
//! * closure distances satisfy the triangle inequality and match the
//!   Floyd–Warshall oracle;
//! * the Lawler enumerator emits a non-decreasing, duplicate-free match
//!   stream whose scores re-verify against closure distances;
//! * `Topk` and `Topk-EN` agree on arbitrary graph/query combinations;
//! * `ParTopk` with arbitrary shard counts is byte-identical to
//!   `topk_full` on random `workload::graphs` instances;
//! * facade-built streams (`ktpm::api`, `Box<dyn MatchStream>`) are
//!   element-for-element identical to directly-constructed engines for
//!   every `Algo` × random k/shards, under mid-stream `next`/
//!   `next_batch` interleaving with a resume split;
//! * the closure store round-trips through the on-disk format;
//! * truncated / bit-flipped snapshots of random workload graphs open
//!   as `Err`, never a panic, and corrupted reads degrade gracefully;
//! * random graph-delta sequences applied to a `LiveStore` leave every
//!   algorithm's stream element-for-element identical to a cold rebuild
//!   of the mutated graph, after every single delta;
//! * a query edge's label pairs, resolved by `has_pair` lookup, equal
//!   the reference definition (`pair_keys()` filtered by the endpoint
//!   labels) on every backend, wildcards and unmatchable labels
//!   included, and on a `LiveStore` across deltas that empty and
//!   create pair tables.

use ktpm::core::baselines::{DpBEnumerator, DpPEnumerator};
use ktpm::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a labeled digraph as (labels per node, edges).
fn graph_strategy(
    max_nodes: usize,
    labels: usize,
    max_w: u32,
) -> impl Strategy<Value = LabeledGraph> {
    (2..max_nodes).prop_flat_map(move |n| {
        let node_labels = proptest::collection::vec(0..labels, n);
        let edges = proptest::collection::vec((0..n, 0..n, 1..=max_w), 0..n * 3);
        (node_labels, edges).prop_map(|(ls, es)| {
            let mut b = GraphBuilder::new();
            let ids: Vec<NodeId> = ls.iter().map(|l| b.add_node(&format!("L{l}"))).collect();
            for (u, v, w) in es {
                if u != v {
                    b.add_edge(ids[u], ids[v], w);
                }
            }
            b.build().unwrap()
        })
    })
}

/// Strategy: a rooted tree query over the same alphabet; `parents[i] < i`
/// makes an arbitrary tree shape.
fn query_strategy(labels: usize) -> impl Strategy<Value = TreeQuery> {
    query_strategy_with(labels, 0)
}

/// As [`query_strategy`] with `specials` extra node kinds past the
/// alphabet: the first is a wildcard, the second a label no generated
/// graph carries (it resolves to `QueryLabel::Unmatchable`).
fn query_strategy_with(labels: usize, specials: usize) -> impl Strategy<Value = TreeQuery> {
    (1..5usize).prop_flat_map(move |n| {
        let node_labels = proptest::collection::vec(0..labels + specials, n);
        let parents: Vec<BoxedStrategy<usize>> = (0..n)
            .map(|i| {
                if i == 0 {
                    Just(0).boxed()
                } else {
                    (0..i).boxed()
                }
            })
            .collect();
        (node_labels, parents).prop_map(move |(ls, ps)| {
            let mut b = TreeQueryBuilder::new();
            let nodes: Vec<_> = ls
                .iter()
                .map(|&l| match l.checked_sub(labels) {
                    None => b.node(&format!("L{l}")),
                    Some(0) => b.wildcard(),
                    Some(_) => b.node("absent"),
                })
                .collect();
            for i in 1..nodes.len() {
                b.edge(nodes[ps[i]], nodes[i], EdgeKind::Descendant);
            }
            b.build().unwrap()
        })
    })
}

/// Checks `source`'s label-pair resolution against the reference
/// definition — the store's pair keys filtered by the edge's endpoint
/// labels — for every edge of `q`, and `has_pair` against the key list
/// for every pair of the first `num_labels` labels.
fn assert_label_pairs_match_reference(
    what: &str,
    q: &ResolvedQuery,
    source: &dyn ClosureSource,
    num_labels: usize,
) {
    use ktpm::query::QueryLabel;
    let keys = source.pair_keys();
    for a in (0..num_labels as u32).map(LabelId) {
        for b in (0..num_labels as u32).map(LabelId) {
            assert_eq!(
                source.has_pair(a, b),
                keys.contains(&(a, b)),
                "{what}: has_pair({a:?}, {b:?})"
            );
        }
    }
    let admits = |ql: QueryLabel, l: LabelId| match ql {
        QueryLabel::Label(have) => have == l,
        QueryLabel::Wildcard => true,
        QueryLabel::Unmatchable => false,
    };
    let all_edges = ktpm::runtime::edge_label_pairs(q, source);
    assert_eq!(all_edges.len(), q.len());
    assert!(all_edges[0].is_empty(), "{what}: the root has no edge");
    for (p, u, _) in q.tree().edges() {
        let want: Vec<(LabelId, LabelId)> = keys
            .iter()
            .copied()
            .filter(|&(a, b)| admits(q.label(p), a) && admits(q.label(u), b))
            .collect();
        assert_eq!(
            ktpm::runtime::label_pairs(q, source, p, u),
            want,
            "{what}: label_pairs of edge {p:?} -> {u:?}"
        );
        assert_eq!(
            all_edges[u.index()],
            want,
            "{what}: edge_label_pairs of edge {p:?} -> {u:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn label_pair_resolution_equals_filtered_pair_keys_on_every_backend(
        g in graph_strategy(12, 4, 3),
        q in query_strategy_with(4, 2),
        store_shards in 1..4u32,
        block_entries in 1..5usize,
        case in 0..u64::MAX,
    ) {
        let q = q.resolve(g.interner());
        let n_labels = g.num_labels();
        let tables = ClosureTables::compute(&g);
        let mut dir = std::env::temp_dir();
        dir.push(format!("ktpm-prop-pairs-{}-{case:x}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        write_store_sharded(&tables, &dir, &ShardSpec::new(0, store_shards), block_entries)
            .unwrap();
        let file = dir.join("single.tc");
        write_store_v3(&tables, &file, block_entries).unwrap();
        let sharded = ShardedStore::open(&dir.join("MANIFEST")).unwrap();
        assert_label_pairs_match_reference("sharded", &q, &sharded, n_labels);
        let paged = PagedStore::open(&file).unwrap();
        assert_label_pairs_match_reference("paged", &q, &paged, n_labels);
        // OnDemandStore keeps the default probe over its (deliberately
        // over-approximate) key list.
        let on_demand = OnDemandStore::new(g.clone());
        assert_label_pairs_match_reference("on-demand", &q, &on_demand, n_labels);
        let mem = MemStore::new(tables);
        assert_label_pairs_match_reference("mem", &q, &mem, n_labels);
        std::fs::remove_dir_all(&dir).ok();

        // LiveStore: at version 0, after a delta that empties every
        // pair table, and after one that creates a table again.
        let live = LiveStore::new(g.clone());
        assert_label_pairs_match_reference("live v0", &q, &live, n_labels);
        prop_assert_eq!(live.pair_keys(), mem.pair_keys());
        let delete_all = g
            .edges()
            .fold(GraphDelta::new(), |d, e| d.delete_edge(e.from, e.to));
        if !delete_all.ops().is_empty() {
            live.apply_delta(&delete_all).unwrap();
            prop_assert!(live.pair_keys().is_empty(), "every table emptied");
            assert_label_pairs_match_reference("live emptied", &q, &live, n_labels);
        }
        let (u, v) = (NodeId(0), NodeId(1));
        live.apply_delta(&GraphDelta::new().insert_edge(u, v, 2)).unwrap();
        prop_assert_eq!(live.pair_keys(), vec![(g.label(u), g.label(v))]);
        assert_label_pairs_match_reference("live re-created", &q, &live, n_labels);
    }

    #[test]
    fn closure_satisfies_triangle_inequality(g in graph_strategy(12, 4, 4)) {
        let tc = ClosureTables::compute(&g);
        let n = g.num_nodes();
        for i in 0..n {
            for j in 0..n {
                for l in 0..n {
                    let (i, j, l) = (NodeId(i as u32), NodeId(j as u32), NodeId(l as u32));
                    if let (Some(a), Some(b)) = (tc.dist(i, j), tc.dist(j, l)) {
                        let via = a as Score + b as Score;
                        let direct = tc.dist(i, l).expect("paths compose") as Score;
                        prop_assert!(direct <= via, "d({i},{l})={direct} > {via}");
                    }
                }
            }
        }
    }

    #[test]
    fn closure_matches_floyd_warshall(g in graph_strategy(10, 3, 3)) {
        let tc = ClosureTables::compute(&g);
        let fw = ktpm::closure::reference::floyd_warshall(&g);
        for (i, row) in fw.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                let expect = (d != INF_DIST).then_some(d);
                prop_assert_eq!(tc.dist(NodeId(i as u32), NodeId(j as u32)), expect);
            }
        }
    }

    #[test]
    fn lawler_stream_is_sorted_unique_and_valid(
        g in graph_strategy(10, 4, 3),
        q in query_strategy(4),
    ) {
        let resolved = q.resolve(g.interner());
        let store = MemStore::new(ClosureTables::compute(&g));
        let rg = RuntimeGraph::load(&resolved, &store);
        let matches: Vec<_> = TopkEnumerator::new(Arc::new(rg)).take(50).collect();
        prop_assert!(matches.windows(2).all(|w| w[0].score <= w[1].score));
        let mut seen = std::collections::HashSet::new();
        for m in &matches {
            prop_assert!(seen.insert(m.assignment.clone()));
            let mut total: Score = 0;
            for u in resolved.tree().node_ids().skip(1) {
                let p = resolved.tree().parent(u).unwrap();
                let d = store.tables().dist(m.assignment[p.index()], m.assignment[u.index()]);
                prop_assert!(d.is_some());
                total += d.unwrap() as Score;
            }
            prop_assert_eq!(total, m.score);
        }
    }

    #[test]
    fn en_agrees_with_full(
        g in graph_strategy(10, 4, 3),
        q in query_strategy(4),
        k in 1..20usize,
    ) {
        let resolved = q.resolve(g.interner());
        let store = MemStore::with_block_edges(ClosureTables::compute(&g), 2);
        let rg = RuntimeGraph::load(&resolved, &store);
        let full: Vec<Score> = TopkEnumerator::new(Arc::new(rg)).take(k).map(|m| m.score).collect();
        let en: Vec<Score> = TopkEnEnumerator::new(&resolved, store.into_shared())
            .take(k).map(|m| m.score).collect();
        prop_assert_eq!(full, en);
    }

    #[test]
    fn par_topk_is_byte_identical_to_topk_full_on_workload_graphs(
        nodes in 20..140usize,
        seed in 0..10_000u64,
        weighted in 0..2u32,
        size in 2..5usize,
        shards in 1..9usize,
        batch in 1..5usize,
        k in 1..60usize,
    ) {
        // A generated `workload::graphs` instance (community-structured
        // DAG), not the uniform random graphs above: this is the data
        // the parallel layer actually serves.
        let mut spec = GraphSpec {
            nodes,
            labels: 5,
            label_skew: 0.5,
            avg_out_degree: 2.5,
            community: 30,
            cross_fraction: 0.1,
            weight_range: (1, 1),
            seed,
        };
        if weighted == 1 {
            spec = spec.weighted(1, 4);
        }
        let g = generate(&spec);
        // Queries are extracted from the graph itself; a graph too
        // sparse to yield one skips the case.
        let query = random_tree_query(&g, QuerySpec {
            size,
            distinct_labels: false,
            seed: seed ^ 0xA5A5,
        });
        if let Some(q) = query {
            let resolved = q.resolve(g.interner());
            let tables = ClosureTables::compute(&g);
            let store = MemStore::with_block_edges(tables.clone(), 2);
            let want = topk_full(&resolved, &store, k);
            let shared: SharedSource = MemStore::with_block_edges(tables, 2).into_shared();
            let policy = ParallelPolicy { shards, batch };
            let got = par_topk(
                &resolved,
                Arc::clone(&shared),
                k,
                &policy,
                ktpm::exec::default_pool(),
            );
            prop_assert_eq!(&got, &want, "x{} batch {}", shards, batch);
        }
    }

    #[test]
    fn arena_encoded_engines_match_clone_based_reference_with_resume(
        nodes in 20..120usize,
        seed in 0..10_000u64,
        size in 2..5usize,
        shards in 1..7usize,
        k in 1..60usize,
        pause in 0..60usize,
    ) {
        // The row-pool match encoding must leave every engine's
        // canonical stream element-for-element identical — score,
        // assignment and order — to the retained clone-based reference
        // (`brute::all_matches` fully materializes every match), for
        // random k, shard counts and resume points; `Topk` and
        // `Topk-EN` raw, as they pop. Consumption is split at `pause`
        // so the parked enumerator state (row pools, heaps, parked
        // candidates, shard buffers) crosses a resume boundary
        // mid-stream.
        let spec = GraphSpec {
            nodes,
            labels: 5,
            label_skew: 0.5,
            avg_out_degree: 2.5,
            community: 30,
            cross_fraction: 0.1,
            weight_range: (1, 3),
            seed,
        };
        let g = generate(&spec);
        let query = random_tree_query(&g, QuerySpec {
            size,
            distinct_labels: false,
            seed: seed ^ 0x5A5A,
        });
        if let Some(q) = query {
            let resolved = q.resolve(g.interner());
            let tables = ClosureTables::compute(&g);
            let store = MemStore::with_block_edges(tables.clone(), 2);
            let rg = RuntimeGraph::load(&resolved, &store);
            let reference = ktpm::core::brute::all_matches(&rg);
            let want: Vec<ScoredMatch> = reference.into_iter().take(k).collect();
            let j = pause.min(k);
            let split = |mut it: Box<dyn Iterator<Item = ScoredMatch>>| -> Vec<ScoredMatch> {
                let mut out: Vec<ScoredMatch> = it.by_ref().take(j).collect();
                out.extend(it.take(k - j));
                out
            };
            let topk = split(Box::new(TopkEnumerator::new(Arc::new(rg))));
            prop_assert_eq!(&topk, &want, "Topk, k {} pause {}", k, j);
            let en = split(Box::new(TopkEnEnumerator::new(&resolved, store.into_shared())));
            prop_assert_eq!(&en, &want, "Topk-EN, k {} pause {}", k, j);
            let shared: SharedSource = MemStore::with_block_edges(tables, 2).into_shared();
            let policy = ParallelPolicy { shards, batch: 3 };
            let par = split(Box::new(ParTopk::new(
                &resolved,
                Arc::clone(&shared),
                &policy,
                ktpm::exec::default_pool(),
            )));
            prop_assert_eq!(&par, &want, "x{} k {} pause {}", shards, k, j);
        }
    }

    #[test]
    fn facade_streams_equal_direct_engines_for_every_algo(
        nodes in 20..100usize,
        seed in 0..10_000u64,
        size in 2..5usize,
        shards in 1..7usize,
        k in 1..60usize,
        pause in 0..60usize,
        chunk in 1..7usize,
    ) {
        // The `ktpm::api` facade is a pure re-plumbing: a stream built
        // by `Executor::query(..).algo(a).k(k).stream()` must be
        // element-for-element identical — score, assignment, order —
        // to the directly-constructed engine it dispatches to, for
        // every algorithm, shard count and k. Consumption mixes the
        // two pull primitives: item pulls (`next`) up to the resume
        // split at `pause`, then batched pulls of `chunk` — so parked
        // mid-stream state crosses both a primitive switch and a
        // resume boundary.
        let spec = GraphSpec {
            nodes,
            labels: 5,
            label_skew: 0.5,
            avg_out_degree: 2.5,
            community: 30,
            cross_fraction: 0.1,
            weight_range: (1, 3),
            seed,
        };
        let g = generate(&spec);
        let query = random_tree_query(&g, QuerySpec {
            size,
            distinct_labels: false,
            seed: seed ^ 0x3C3C,
        });
        if let Some(q) = query {
            let resolved = q.resolve(g.interner());
            let tables = ClosureTables::compute(&g);
            let shared: SharedSource = MemStore::with_block_edges(tables, 2).into_shared();
            let exec = Executor::new(g.interner().clone(), Arc::clone(&shared));
            let pool = ktpm::exec::default_pool();
            let policy = ParallelPolicy { shards, batch: 3 };
            // Kgpm runs over pattern plans, not tree queries; it has
            // its own facade cross-validation below.
            for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Kgpm) {
                // The reference: directly-constructed engines, on
                // purpose NOT the facade.
                let plan = QueryPlan::new(resolved.clone(), Arc::clone(&shared));
                let want: Vec<ScoredMatch> = match algo {
                    Algo::Topk => TopkEnumerator::from_plan(&plan).take(k).collect(),
                    Algo::TopkEn => TopkEnEnumerator::from_plan(&plan).take(k).collect(),
                    Algo::Par => ParTopk::from_plan(&plan, &policy, Arc::clone(&pool))
                        .take(k)
                        .collect(),
                    Algo::Kgpm => unreachable!("filtered out"),
                };
                let mut b = exec
                    .query_resolved(resolved.clone())
                    .algo(algo)
                    .k(k)
                    .batch(3);
                if algo.sharded() {
                    b = b.shards(shards);
                }
                let mut it = b.stream().unwrap();
                let j = pause.min(k);
                let mut got: Vec<ScoredMatch> = Vec::new();
                while got.len() < j {
                    // Item pulls (one virtual call per match).
                    match it.next() {
                        Some(m) => got.push(m),
                        None => break,
                    }
                }
                // Resume split: switch primitives mid-stream.
                loop {
                    let before = got.len();
                    if it.next_batch(chunk, &mut got).is_done() {
                        break;
                    }
                    // `More` promises a full batch was appended.
                    prop_assert_eq!(got.len(), before + chunk, "{:?}", algo);
                }
                prop_assert_eq!(
                    &got, &want,
                    "{:?} shards {} k {} pause {} chunk {}",
                    algo, shards, k, j, chunk
                );
            }
        }
    }

    /// The kGPM facade cross-validation: on random graphs and random
    /// cyclic patterns, the `Algo::Kgpm` stream — for every shard
    /// count × both tree drivers, pulled through a `next`/`next_batch`
    /// resume split — is element-for-element identical to a
    /// brute-force oracle that scores every label-consistent
    /// assignment over the undirected closure and sorts canonically.
    #[test]
    fn kgpm_stream_equals_the_brute_pattern_oracle(
        nodes in 5..13usize,
        seed in 0..10_000u64,
        k in 1..15usize,
        shards in 1..5usize,
        psize in 2..5usize,
        extra in 0..3usize,
        pause in 0..8usize,
        chunk in 1..4usize,
    ) {
        let spec = GraphSpec {
            nodes,
            labels: 4,
            label_skew: 0.5,
            avg_out_degree: 2.0,
            community: 10,
            cross_fraction: 0.2,
            weight_range: (1, 3),
            seed,
        };
        let g = generate(&spec);
        let ug = ktpm::graph::undirect(&g);
        let pattern = ktpm::workload::random_graph_query(&ug, psize, extra, seed ^ 0x7A7A);
        if let Some(q) = pattern {
            // Brute oracle: every label-consistent assignment whose
            // pattern edges all have finite undirected distances,
            // in the canonical (score, assignment) order.
            let tc = ClosureTables::compute(&ug);
            let candidates: Vec<&[NodeId]> = (0..q.len())
                .map(|u| {
                    ug.interner()
                        .get(q.label(u))
                        .map(|l| ug.nodes_with_label(l))
                        .unwrap_or(&[])
                })
                .collect();
            let mut want: Vec<(Score, Vec<NodeId>)> = Vec::new();
            if candidates.iter().all(|c| !c.is_empty()) {
                let mut pick = vec![0usize; q.len()];
                'outer: loop {
                    let assignment: Vec<NodeId> =
                        pick.iter().enumerate().map(|(u, &i)| candidates[u][i]).collect();
                    let mut total: Score = 0;
                    let mut ok = true;
                    for &(a, b) in q.edges() {
                        match tc.dist(assignment[a], assignment[b]) {
                            Some(d) => total += d as Score,
                            None => { ok = false; break; }
                        }
                    }
                    if ok {
                        want.push((total, assignment));
                    }
                    for u in 0..q.len() {
                        pick[u] += 1;
                        if pick[u] < candidates[u].len() {
                            continue 'outer;
                        }
                        pick[u] = 0;
                    }
                    break;
                }
            }
            want.sort();
            want.truncate(k);

            let store = MemStore::new(ClosureTables::compute(&g))
                .with_graph(g.clone())
                .into_shared();
            let exec = Executor::new(g.interner().clone(), store);
            // The served stream (the facade's `ParTopk` driver),
            // sequential and sharded, then Fig. 9's mtree (DP-B) and
            // mtree+ (`Topk-EN`) drivers built directly.
            let plan = QueryPlan::new_pattern(q.clone(), g.interner(), exec.source()).unwrap();
            let served = |s| exec.query_pattern(q.clone()).shards(s).k(k).stream().unwrap();
            let direct = |driver| limit(Box::new(KgpmStream::new(&plan, driver)), k);
            let streams: [(&str, usize, BoxedMatchStream); 4] = [
                ("served", 1, served(1)),
                ("served", shards, served(shards)),
                ("mtree", 1, direct(Box::new(DpBEnumerator::from_plan(&plan)))),
                ("mtree+", 1, direct(Box::new(TopkEnEnumerator::from_plan(&plan)))),
            ];
            for (driver, s, mut it) in streams {
                // Resume split: item pulls up to `pause`, then
                // batched pulls of `chunk`.
                let j = pause.min(k);
                let mut got: Vec<ScoredMatch> = Vec::new();
                while got.len() < j {
                    match it.next() {
                        Some(m) => got.push(m),
                        None => break,
                    }
                }
                loop {
                    let before = got.len();
                    if it.next_batch(chunk, &mut got).is_done() {
                        break;
                    }
                    prop_assert_eq!(got.len(), before + chunk, "{}", driver);
                }
                let got: Vec<(Score, Vec<NodeId>)> = got
                    .into_iter()
                    .map(|m| (m.score, m.assignment.to_vec()))
                    .collect();
                prop_assert_eq!(
                    &got, &want,
                    "{} shards {} k {} pause {} chunk {} q {:?}",
                    driver, s, k, j, chunk, q
                );
            }
        }
    }

    #[test]
    fn corrupt_or_truncated_stores_error_never_panic(
        nodes in 20..100usize,
        seed in 0..10_000u64,
        cut_permille in 0..1000usize,
        flip_seed in 0..u64::MAX,
        flip_bit in 0..8u32,
    ) {
        // A random *workload* graph (the data the storage layer really
        // persists), written through the real writer.
        let g = generate(&GraphSpec {
            nodes,
            labels: 5,
            label_skew: 0.5,
            avg_out_degree: 2.0,
            community: 25,
            cross_fraction: 0.1,
            weight_range: (1, 3),
            seed,
        });
        let tables = ClosureTables::compute(&g);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "ktpm-corrupt-{}-{nodes}-{seed}-{cut_permille}.bin",
            std::process::id()
        ));
        write_store(&tables, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        prop_assert!(!bytes.is_empty());

        // Truncation (strictly shorter) must surface as Err from open —
        // never a panic, never a bogus allocation, never an abort.
        let cut = bytes.len() * cut_permille / 1000;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(
            PagedStore::open(&path).is_err(),
            "truncation at {cut}/{} must fail to open",
            bytes.len()
        );

        // A single flipped bit anywhere: open may legitimately succeed
        // (flips in data regions don't touch the header/index), but
        // neither open nor any subsequent read may panic.
        let pos = (flip_seed % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << flip_bit;
        std::fs::write(&path, &corrupt).unwrap();
        if let Ok(store) = PagedStore::open(&path) {
            for (a, b) in store.pair_keys() {
                let _ = store.load_d(a, b);
                let _ = store.load_e(a, b);
                let _ = store.load_pair(a, b);
            }
            for v in 0..store.num_nodes().min(8) {
                let v = NodeId(v as u32);
                let label = store.node_label(v);
                let mut cur = store.incoming_cursor(label, v);
                while !cur.next_block().is_empty() {}
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn live_delta_sequences_stream_identical_to_cold_rebuild(
        nodes in 10..40usize,
        seed in 0..10_000u64,
        size in 2..4usize,
        k in 1..40usize,
        raw_ops in proptest::collection::vec(
            (0..3u32, 0..10_000u32, 0..10_000u32, 1..5u32),
            1..8,
        ),
    ) {
        // The live-update invariant: after EVERY delta in a random
        // sequence (weight changes, inserts, deletes), a stream built
        // over the incrementally-repaired LiveStore must be
        // element-for-element identical — score, assignment, order —
        // to one built over a cold closure recompute of the mutated
        // graph, for all four algorithms. Raw ops are projected onto
        // the current graph (set/del need an existing edge, ins a
        // missing one); impossible ops are skipped.
        let spec = GraphSpec {
            nodes,
            labels: 4,
            label_skew: 0.5,
            avg_out_degree: 2.0,
            community: 20,
            cross_fraction: 0.1,
            weight_range: (1, 3),
            seed,
        };
        let mut g = generate(&spec);
        let query = random_tree_query(&g, QuerySpec {
            size,
            distinct_labels: false,
            seed: seed ^ 0x1D17,
        });
        if let Some(q) = query {
            let resolved = q.resolve(g.interner());
            let live = Executor::new(
                g.interner().clone(),
                LiveStore::new(g.clone()).into_shared(),
            );
            let mut version = 0u64;
            for (kind, a, b, w) in raw_ops {
                let n = g.num_nodes() as u32;
                let (u, v) = (NodeId(a % n), NodeId(b % n));
                if u == v {
                    continue;
                }
                let delta = match (kind, g.edge_weight(u, v)) {
                    (0, Some(_)) => GraphDelta::new().set_weight(u, v, w),
                    (1, None) => GraphDelta::new().insert_edge(u, v, w),
                    (2, Some(_)) => GraphDelta::new().delete_edge(u, v),
                    _ => continue,
                };
                let report = live.source().apply_delta(&delta).unwrap();
                version += 1;
                prop_assert_eq!(report.version, version);
                let (g2, _) = g.apply_delta(&delta).unwrap();
                g = g2;
                let cold = Executor::new(
                    g.interner().clone(),
                    MemStore::new(ClosureTables::compute(&g)).into_shared(),
                );
                // Kgpm answers the pattern reading (undirected
                // semantics) and has its own delta-free oracle test;
                // this one cross-checks the tree algorithms.
                for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Kgpm) {
                    let want = cold
                        .query_resolved(resolved.clone())
                        .algo(algo)
                        .k(k)
                        .topk()
                        .unwrap();
                    let got = live
                        .query_resolved(resolved.clone())
                        .algo(algo)
                        .k(k)
                        .topk()
                        .unwrap();
                    prop_assert_eq!(
                        got, want,
                        "{:?} diverged from cold rebuild after delta {}",
                        algo, version
                    );
                }
            }
        }
    }

    #[test]
    fn store_roundtrip(g in graph_strategy(12, 4, 4)) {
        let tables = ClosureTables::compute(&g);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "ktpm-prop-{}-{:x}.bin",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos() as u64
        ));
        write_store(&tables, &path).unwrap();
        let file = PagedStore::open(&path).unwrap();
        let mem = MemStore::new(tables);
        prop_assert_eq!(mem.pair_keys(), file.pair_keys());
        for (a, b) in mem.pair_keys() {
            prop_assert_eq!(mem.load_d(a, b), file.load_d(a, b));
            prop_assert_eq!(mem.load_e(a, b), file.load_e(a, b));
            let mut pm = mem.load_pair(a, b);
            let mut pf = file.load_pair(a, b);
            pm.sort_unstable();
            pf.sort_unstable();
            prop_assert_eq!(pm, pf);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_engine_over_a_paged_store_equals_mem_store(
        nodes in 15..60usize,
        seed in 0..10_000u64,
        size in 2..5usize,
        shards in 1..5usize,
        k in 1..40usize,
        pause in 0..40usize,
        chunk in 1..5usize,
        block_entries in 1..6usize,
        budget_blocks in 0..8u64,
    ) {
        // The paged tier must be observationally invisible: every
        // tree algorithm (`Algo::ALL` but kGPM, whose plans read the
        // graph's undirected mirror, never the persisted closure) and
        // the DP-B / DP-P baselines —
        // streaming over a v5 PagedStore (tiny on-disk blocks, a cache
        // budget from "a handful of blocks" to unlimited, arbitrary
        // shard counts, a next/next_batch resume split) must be
        // element-for-element identical to the same stream over a
        // MemStore of the same closure.
        let spec = GraphSpec {
            nodes,
            labels: 4,
            label_skew: 0.5,
            avg_out_degree: 2.0,
            community: 20,
            cross_fraction: 0.15,
            weight_range: (1, 3),
            seed,
        };
        let g = generate(&spec);
        let tables = ClosureTables::compute(&g);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "ktpm-prop-paged-{}-{nodes}-{seed}-{block_entries}-{budget_blocks}.bin",
            std::process::id()
        ));
        write_store_v3(&tables, &path, block_entries).unwrap();
        // 0 = unlimited; otherwise a budget of `budget_blocks` payloads,
        // usually far below the closure size, forcing eviction churn.
        let budget = budget_blocks * (block_entries * 8) as u64;
        let paged = PagedStore::open_with_cache_bytes(&path, budget)
            .unwrap()
            .into_shared();
        let mem: SharedSource = MemStore::with_block_edges(tables, 2).into_shared();
        let exec_mem = Executor::new(g.interner().clone(), Arc::clone(&mem));
        let exec_paged = Executor::new(g.interner().clone(), Arc::clone(&paged));
        let drain = |mut it: BoxedMatchStream| {
            let j = pause.min(k);
            let mut got: Vec<ScoredMatch> = Vec::new();
            while got.len() < j {
                match it.next() {
                    Some(m) => got.push(m),
                    None => return got,
                }
            }
            // Resume split: switch pull primitives mid-stream.
            while !it.next_batch(chunk, &mut got).is_done() {}
            got
        };
        if let Some(q) = random_tree_query(&g, QuerySpec {
            size,
            distinct_labels: false,
            seed: seed ^ 0x5A5A,
        }) {
            let resolved = q.resolve(g.interner());
            for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Kgpm) {
                let build = |exec: &Executor| {
                    let mut b = exec.query_resolved(resolved.clone()).algo(algo).k(k);
                    if algo.sharded() {
                        b = b.shards(shards);
                    }
                    b.stream().unwrap()
                };
                let want = drain(build(&exec_mem));
                let got = drain(build(&exec_paged));
                prop_assert_eq!(
                    &got, &want,
                    "{:?} be {} budget {} shards {} k {}",
                    algo, block_entries, budget, shards, k
                );
            }
            // The paper's baselines are no `Algo`: built directly over
            // each store, through the same resume split.
            let baselines = |store: &SharedSource| -> [(&str, BoxedMatchStream); 2] {
                let plan = QueryPlan::new(resolved.clone(), Arc::clone(store));
                let dpp = DpPEnumerator::new(&resolved, Arc::clone(store));
                [
                    ("DP-B", limit(Box::new(DpBEnumerator::from_plan(&plan)), k)),
                    ("DP-P", limit(Box::new(dpp), k)),
                ]
            };
            for ((name, want), (_, got)) in baselines(&mem).into_iter().zip(baselines(&paged)) {
                prop_assert_eq!(
                    &drain(got), &drain(want),
                    "{} be {} budget {} k {}",
                    name, block_entries, budget, k
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_and_remote_stores_equal_mem_store(
        nodes in 15..40usize,
        seed in 0..10_000u64,
        size in 2..4usize,
        store_shards in 1..5u32,
        k in 1..30usize,
        pause in 0..30usize,
        chunk in 1..5usize,
        block_entries in 1..6usize,
        budget_blocks in 0..8u64,
    ) {
        // The distributed tiers must be observationally invisible too:
        // the same snapshot split across `store_shards` files (opened
        // from its MANIFEST) and served over TCP by an in-process
        // blockd (fetched by a RemoteStore) must stream
        // element-for-element identically to a MemStore, across random
        // shard counts, block capacities, cache budgets, and a
        // next/next_batch resume split.
        let spec = GraphSpec {
            nodes,
            labels: 4,
            label_skew: 0.5,
            avg_out_degree: 2.0,
            community: 20,
            cross_fraction: 0.15,
            weight_range: (1, 3),
            seed,
        };
        let g = generate(&spec);
        let tables = ClosureTables::compute(&g);
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "ktpm-prop-sharded-{}-{nodes}-{seed}-{store_shards}-{block_entries}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        write_store_sharded(&tables, &dir, &ShardSpec::new(0, store_shards), block_entries)
            .unwrap();
        let budget = budget_blocks * (block_entries * 8) as u64;
        let sharded: SharedSource = ShardedStore::open_with_cache_bytes(
            &dir.join("MANIFEST"),
            budget,
        )
        .unwrap()
        .into_shared();
        let server = BlockServer::spawn(&dir, ("127.0.0.1", 0)).unwrap();
        let remote: SharedSource = RemoteStore::connect_with(
            &server.local_addr().to_string(),
            ktpm::storage::RemoteOptions {
                cache_bytes: budget,
                ..ktpm::storage::RemoteOptions::default()
            },
        )
        .unwrap()
        .into_shared();
        let mem: SharedSource = MemStore::with_block_edges(tables, 2).into_shared();
        let drain = |mut it: BoxedMatchStream| {
            let j = pause.min(k);
            let mut got: Vec<ScoredMatch> = Vec::new();
            while got.len() < j {
                match it.next() {
                    Some(m) => got.push(m),
                    None => return got,
                }
            }
            // Resume split: switch pull primitives mid-stream.
            while !it.next_batch(chunk, &mut got).is_done() {}
            got
        };
        if let Some(q) = random_tree_query(&g, QuerySpec {
            size,
            distinct_labels: false,
            seed: seed ^ 0x5A5A,
        }) {
            let resolved = q.resolve(g.interner());
            for algo in [Algo::Topk, Algo::TopkEn] {
                let build = |store: &SharedSource| {
                    Executor::new(g.interner().clone(), Arc::clone(store))
                        .query_resolved(resolved.clone())
                        .algo(algo)
                        .k(k)
                        .stream()
                        .unwrap()
                };
                let want = drain(build(&mem));
                let got_sharded = drain(build(&sharded));
                prop_assert_eq!(
                    &got_sharded, &want,
                    "sharded {:?} shards {} be {} budget {} k {}",
                    algo, store_shards, block_entries, budget, k
                );
                let got_remote = drain(build(&remote));
                prop_assert_eq!(
                    &got_remote, &want,
                    "remote {:?} shards {} be {} budget {} k {}",
                    algo, store_shards, block_entries, budget, k
                );
            }
        }
        prop_assert!(sharded.take_error().is_none());
        prop_assert!(remote.take_error().is_none());
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
