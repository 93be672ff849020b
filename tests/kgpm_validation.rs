//! Randomized kGPM validation: on random graphs and random cyclic
//! patterns, the served stream (through the `ktpm::api` facade, whose
//! tree driver is `ParTopk`, sequential and sharded) and Fig. 9's two
//! drivers — mtree (the DP-B baseline inside) and mtree+ (`Topk-EN`
//! inside), built directly — must agree with exhaustive enumeration
//! over the undirected closure.

use ktpm::api::Executor;
use ktpm::core::baselines::DpBEnumerator;
use ktpm::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_graph(rng: &mut StdRng, nodes: usize, labels: usize) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|_| b.add_node(&format!("L{}", rng.random_range(0..labels))))
        .collect();
    for u in 0..nodes {
        for _ in 0..rng.random_range(1..4) {
            let v = rng.random_range(0..nodes);
            if v != u {
                b.add_edge(ids[u], ids[v], rng.random_range(1..4));
            }
        }
    }
    b.build().unwrap()
}

/// A facade executor whose store carries the data graph, so pattern
/// plans can derive the undirected mirror.
fn pattern_exec(g: &LabeledGraph) -> Executor {
    let store = MemStore::new(ClosureTables::compute(g))
        .with_graph(g.clone())
        .into_shared();
    Executor::new(g.interner().clone(), store)
}

/// Exhaustive kGPM oracle: all label-consistent assignments whose every
/// pattern edge has a finite undirected distance, scored and sorted.
fn oracle(ug: &LabeledGraph, q: &GraphQuery, k: usize) -> Vec<Score> {
    let tc = ktpm::closure::ClosureTables::compute(ug);
    let mut candidates: Vec<Vec<NodeId>> = Vec::new();
    for u in 0..q.len() {
        match ug.interner().get(q.label(u)) {
            Some(l) if !ug.nodes_with_label(l).is_empty() => {
                candidates.push(ug.nodes_with_label(l).to_vec())
            }
            _ => return Vec::new(),
        }
    }
    let mut scores = Vec::new();
    let mut pick = vec![0usize; q.len()];
    'outer: loop {
        let assignment: Vec<NodeId> = pick
            .iter()
            .enumerate()
            .map(|(u, &i)| candidates[u][i])
            .collect();
        let mut total: Score = 0;
        let mut ok = true;
        for &(a, b) in q.edges() {
            match tc.dist(assignment[a], assignment[b]) {
                Some(d) => total += d as Score,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            scores.push(total);
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
    scores.sort_unstable();
    scores.truncate(k);
    scores
}

/// A random connected pattern with distinct labels and possible cycles.
fn random_pattern(rng: &mut StdRng, labels: usize) -> Option<GraphQuery> {
    let n = rng.random_range(2..5usize);
    if n > labels {
        return None;
    }
    // Distinct labels via partial shuffle.
    let mut pool: Vec<usize> = (0..labels).collect();
    for i in 0..n {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    let names: Vec<String> = pool[..n].iter().map(|l| format!("L{l}")).collect();
    // Random spanning tree + up to 2 extra edges.
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (rng.random_range(0..i), i)).collect();
    for _ in 0..rng.random_range(0..3usize) {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    GraphQuery::new(names, edges).ok()
}

#[test]
fn kgpm_matchers_agree_with_oracle_on_random_workloads() {
    for t in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(9000 + t);
        let nodes = rng.random_range(5..12);
        let g = random_graph(&mut rng, nodes, 4);
        let exec = pattern_exec(&g);
        let ug = ktpm::graph::undirect(&g);
        let Some(q) = random_pattern(&mut rng, 4) else {
            continue;
        };
        let k = rng.random_range(1..12);
        let expect = oracle(&ug, &q, k);
        for shards in [1, 3] {
            let got: Vec<Score> = exec
                .query_pattern(q.clone())
                .shards(shards)
                .k(k)
                .topk()
                .unwrap()
                .into_iter()
                .map(|m| m.score)
                .collect();
            assert_eq!(got, expect, "trial {t}, {shards} shards, q {q:?}");
        }
        let plan = QueryPlan::new_pattern(q.clone(), g.interner(), exec.source()).unwrap();
        let drivers: [(&str, BoxedMatchStream); 2] = [
            ("mtree", Box::new(DpBEnumerator::from_plan(&plan))),
            ("mtree+", Box::new(TopkEnEnumerator::from_plan(&plan))),
        ];
        for (name, driver) in drivers {
            let got: Vec<Score> = limit(Box::new(KgpmStream::new(&plan, driver)), k)
                .map(|m| m.score)
                .collect();
            assert_eq!(got, expect, "trial {t}, {name}, q {q:?}");
        }
    }
}

#[test]
fn kgpm_matches_verify_against_closure() {
    let mut rng = StdRng::seed_from_u64(9999);
    let g = random_graph(&mut rng, 20, 5);
    let exec = pattern_exec(&g);
    let ug = ktpm::graph::undirect(&g);
    let tc = ktpm::closure::ClosureTables::compute(&ug);
    for t in 0..5u64 {
        let mut prng = StdRng::seed_from_u64(7000 + t);
        let Some(q) = random_pattern(&mut prng, 5) else {
            continue;
        };
        for m in exec.query_pattern(q.clone()).k(15).topk().unwrap() {
            let mut total: Score = 0;
            for &(a, b) in q.edges() {
                let d = tc
                    .dist(m.assignment[a], m.assignment[b])
                    .expect("edge must map to a path");
                total += d as Score;
            }
            assert_eq!(total, m.score);
            for (u, &v) in m.assignment.iter().enumerate() {
                assert_eq!(ug.label_name(ug.label(v)), q.label(u), "label preserved");
            }
        }
    }
}
