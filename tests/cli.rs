//! The `ktpm` binary, end to end: `ktpm closure` persists the paper
//! graph's closure, `ktpm query --store … --iostats` answers over it.
//! The printed match rows must be the library's own stream, and the
//! `# timing:` line must carry its four named fields — their presence
//! and names are the contract, never their values.

use ktpm::graph::fixtures::paper_graph;
use ktpm::prelude::*;
use std::process::Command;

/// Runs the built `ktpm` binary; returns stdout, panicking (with
/// stderr) on a nonzero exit.
fn ktpm(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ktpm"))
        .args(args)
        .output()
        .expect("spawn ktpm");
    assert!(
        out.status.success(),
        "ktpm {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn query_over_a_persisted_store_prints_library_matches_and_the_timing_split() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("ktpm-cli-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (graph, query, store) = (path("graph.txt"), path("query.txt"), path("store.tc"));

    let g = paper_graph();
    let query_text = "a -> b\na -> c\nc -> d\nc -> e";
    ktpm::graph::io::write_graph(&g, std::fs::File::create(&graph).unwrap()).unwrap();
    std::fs::write(&query, query_text).unwrap();
    let wrote = ktpm(&["closure", &graph, &store]);
    assert!(
        wrote.contains(&store),
        "closure reports its output: {wrote}"
    );

    let exec = Executor::new(
        g.interner().clone(),
        MemStore::new(ClosureTables::compute(&g)).into_shared(),
    );
    for algo in ["topk-en", "topk"] {
        let k = 5;
        let want: Vec<(Score, Vec<u32>)> = exec
            .query(query_text)
            .unwrap()
            .algo(Algo::parse(algo).unwrap())
            .k(k)
            .topk()
            .unwrap()
            .into_iter()
            .map(|m| (m.score, m.assignment.iter().map(|v| v.0).collect()))
            .collect();
        assert_eq!(want.len(), k, "the fixture query has at least {k} matches");

        let out = ktpm(&[
            "query",
            &graph,
            &query,
            "--store",
            &store,
            "--algo",
            algo,
            "-k",
            "5",
            "--iostats",
        ]);
        // Match rows: `<rank> score=<s> <label>=<node> ...`.
        let got: Vec<(Score, Vec<u32>)> = out
            .lines()
            .filter(|l| !l.starts_with('#'))
            .enumerate()
            .map(|(i, row)| {
                let mut cols = row.split_whitespace();
                assert_eq!(
                    cols.next(),
                    Some((i + 1).to_string().as_str()),
                    "rank: {row}"
                );
                let score = cols.next().and_then(|c| c.strip_prefix("score="));
                let score = score.unwrap_or_else(|| panic!("no score column: {row}"));
                let nodes = cols
                    .map(|c| c.split_once('=').expect("label=node").1.parse().unwrap())
                    .collect();
                (score.parse().unwrap(), nodes)
            })
            .collect();
        assert_eq!(
            got, want,
            "--algo {algo}: CLI rows vs library stream\n{out}"
        );

        assert!(
            out.lines().any(|l| l.starts_with("# iostats: ")),
            "--iostats keeps its counters line:\n{out}"
        );
        let timing: Vec<&str> = out
            .lines()
            .filter_map(|l| l.strip_prefix("# timing: "))
            .collect();
        let [timing] = timing.as_slice() else {
            panic!("expected exactly one `# timing:` line:\n{out}");
        };
        let fields: Vec<(&str, &str)> = timing
            .split_whitespace()
            .map(|f| f.split_once('=').expect("name=value"))
            .collect();
        let names: Vec<&str> = fields.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["open", "plan+stream", "first", "rest"], "{timing}");
        assert!(fields.iter().all(|(_, v)| !v.is_empty()), "{timing}");
    }
    // Without --iostats neither line is printed.
    let quiet = ktpm(&["query", &graph, &query, "--store", &store]);
    assert!(!quiet.contains("# timing:") && !quiet.contains("# iostats:"));
    std::fs::remove_dir_all(&dir).ok();
}
