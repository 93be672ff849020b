//! The `ktpm` binary, end to end: `ktpm closure` persists the paper
//! graph's closure, `ktpm query --store … --iostats` answers over it.
//! The printed match rows must be the library's own stream, and the
//! `# timing:` line must carry its four named fields — their presence
//! and names are the contract, never their values. `ktpm store verify`
//! must pass a clean file and, for one it cannot read, say what is
//! wrong with *that file*. `ktpm blockd` must serve that file so that
//! `--store tcp://…` prints the same rows as `--store <file>`.

use ktpm::graph::fixtures::paper_graph;
use ktpm::prelude::*;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ktpm"))
        .args(args)
        .output()
        .expect("spawn ktpm")
}

/// Runs the built `ktpm` binary; returns stdout, panicking (with
/// stderr) on a nonzero exit.
fn ktpm(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "ktpm {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Runs `ktpm` expecting a nonzero exit; returns stderr.
fn ktpm_fails(args: &[&str]) -> String {
    let out = run(args);
    assert!(!out.status.success(), "ktpm {args:?} must exit nonzero");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn store_verify_passes_a_clean_file_and_names_what_is_wrong_with_a_bad_one() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("ktpm-cli-verify-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (graph, store, bad) = (path("graph.txt"), path("store.tc"), path("bad.tc"));
    ktpm::graph::io::write_graph(&paper_graph(), std::fs::File::create(&graph).unwrap()).unwrap();
    ktpm(&["closure", &graph, &store]);

    let ok = ktpm(&["store", "verify", &store]);
    assert!(ok.contains("OK (v5 paged, 1 index pages"), "{ok}");

    // A retired layout: refused with the way forward, not "bad magic".
    std::fs::write(&bad, [&b"KTPMCLO2"[..], &[0u8; 64]].concat()).unwrap();
    let err = ktpm_fails(&["store", "verify", &bad]);
    assert!(
        err.contains("v1/v2") && err.contains("ktpm closure"),
        "{err}"
    );
    // v3 too — refused by its magic, whatever follows it.
    let mut v3 = std::fs::read(&store).unwrap();
    v3[..8].copy_from_slice(b"KTPMCLO3");
    std::fs::write(&bad, &v3).unwrap();
    let err = ktpm_fails(&["store", "verify", &bad]);
    assert!(err.contains("v3") && err.contains("ktpm closure"), "{err}");

    // A v5 file whose index page is checksum-valid but out of order
    // (entries 1 and 2 of page 0 swapped, its first key kept, the
    // page's CRC re-sealed): the operator must read which index entry
    // is wrong — not be told to use a different reader.
    let mut bytes = std::fs::read(&store).unwrap();
    let footer = bytes.len() - 16;
    let head_off = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap()) as usize;
    let page = ktpm::storage::INDEX_PAGE_ENTRIES * 28;
    let page0 = head_off - (page + 4); // the fixture's index is one page
    let (e1, e2) = (page0 + 28, page0 + 56);
    let first = bytes[e1..e2].to_vec();
    bytes.copy_within(e2..e2 + 28, e1);
    bytes[e2..e2 + 28].copy_from_slice(&first);
    let sum = ktpm::storage::blockproto::crc32(&bytes[page0..page0 + page]);
    bytes[page0 + page..page0 + page + 4].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&bad, &bytes).unwrap();
    let err = ktpm_fails(&["store", "verify", &bad]);
    assert!(
        err.contains("index entry 2") && err.contains("ascending"),
        "{err}"
    );
    assert!(!err.contains("open it with"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
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
    // One reference stream for every engine: the `topk` library stream.
    let k = 5;
    let want: Vec<(Score, Vec<u32>)> = exec
        .query(query_text)
        .unwrap()
        .algo(Algo::Topk)
        .k(k)
        .topk()
        .unwrap()
        .into_iter()
        .map(|m| (m.score, m.assignment.iter().map(|v| v.0).collect()))
        .collect();
    assert_eq!(want.len(), k, "the fixture query has at least {k} matches");
    for algo in ["topk-en", "topk"] {
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

#[test]
fn bare_ktpm_and_each_subcommand_print_the_same_synopsis() {
    let overview = ktpm_fails(&[]);
    for (cmd, mentions) in [
        ("serve", "tcp://"),
        ("query", "tcp://"),
        ("closure", "--shards"),
    ] {
        let from = |text: &str| -> String {
            let at = text.find(&format!("ktpm {cmd} "));
            let at = at.unwrap_or_else(|| panic!("no `ktpm {cmd}` line in:\n{text}"));
            text[at..].lines().next().unwrap_or_default().to_string()
        };
        let own = from(&ktpm_fails(&[cmd]));
        assert_eq!(own, from(&overview), "`ktpm` vs `ktpm {cmd}`");
        assert!(own.contains(mentions), "{own}");
    }
}

/// Kills the child on every exit path, so a failed assertion does not
/// leave a server running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn query_over_ktpm_blockd_prints_the_local_store_rows() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("ktpm-cli-blockd-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (graph, query, store) = (path("graph.txt"), path("query.txt"), path("store.tc"));
    ktpm::graph::io::write_graph(&paper_graph(), std::fs::File::create(&graph).unwrap()).unwrap();
    std::fs::write(&query, "a -> b\na -> c\nc -> d\nc -> e").unwrap();
    ktpm(&["closure", &graph, &store]);

    let mut blockd = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_ktpm"))
            .args(["blockd", "--store", &store, "--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn ktpm blockd"),
    );
    // `blockd serving <store> on <addr>`. The pipe stays open while the
    // server runs: a closed stdout would fail its next print.
    let mut stdout = std::io::BufReader::new(blockd.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim_end()
        .rsplit_once(" on ")
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .1;
    let remote = format!("tcp://{addr}");

    let rows = |text: String| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .map(str::to_owned)
            .collect()
    };
    for algo in ["topk-en", "topk"] {
        let local = rows(ktpm(&[
            "query", &graph, &query, "--store", &store, "--algo", algo, "-k", "5",
        ]));
        assert_eq!(local.len(), 5, "--algo {algo}: {local:?}");
        let served = rows(ktpm(&[
            "query", &graph, &query, "--store", &remote, "--algo", algo, "-k", "5",
        ]));
        assert_eq!(served, local, "--algo {algo}: tcp:// rows vs file rows");
    }
    drop(blockd);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_front_end_that_cannot_bind_names_its_address_option() {
    // The port is taken, so the bind fails only after the files are
    // read; the error still names the option that gave the address.
    let (dir, graph) = citation_fixture("bind", &[]);
    let store = dir.join("store.tc").to_string_lossy().into_owned();
    ktpm(&["closure", &graph, &store]);
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    for (args, flag) in [
        (&["serve", &graph, "--addr", &addr][..], "--addr"),
        (
            &["blockd", "--store", &store, "--listen", &addr][..],
            "--listen",
        ),
    ] {
        // A bind that wrongly succeeds serves forever: kill it.
        let mut child = KillOnDrop(
            Command::new(env!("CARGO_BIN_EXE_ktpm"))
                .args(args)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn ktpm"),
        );
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.0.try_wait().unwrap() {
                break status;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "ktpm {args:?} bound {addr}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.0.stderr.take().unwrap(), &mut stderr).unwrap();
        assert_eq!(status.code(), Some(1), "ktpm {args:?}: {stderr}");
        let want = format!("error: {flag} \"{addr}\": ");
        assert!(stderr.starts_with(&want), "ktpm {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes the citation fixture graph and the given query files into a
/// fresh temp directory; returns the directory and the graph's path.
fn citation_fixture(tag: &str, queries: &[(&str, &str)]) -> (std::path::PathBuf, String) {
    let mut dir = std::env::temp_dir();
    dir.push(format!("ktpm-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("graph.txt");
    let g = ktpm::graph::fixtures::citation_graph();
    ktpm::graph::io::write_graph(&g, std::fs::File::create(&graph).unwrap()).unwrap();
    for (name, text) in queries {
        std::fs::write(dir.join(name), text).unwrap();
    }
    (dir, graph.to_string_lossy().into_owned())
}

#[test]
fn kgpm_query_prints_pattern_rows_labelled_by_pattern_node() {
    let (dir, graph) = citation_fixture("kgpm", &[("tri.txt", "C -> E\nE -> S\nS -> C\n")]);
    let tri = dir.join("tri.txt").to_string_lossy().into_owned();
    let out = ktpm(&["query", &graph, &tri, "--algo", "kgpm", "-k", "100"]);
    let rows: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(
        rows,
        [
            "1   score=4      C=0 E=4 S=3",
            "2   score=4      C=0 E=4 S=6",
            "3   score=4      C=0 E=5 S=3",
            "4   score=5      C=1 E=5 S=3",
            "5   score=5      C=2 E=5 S=3",
            "6   score=6      C=0 E=5 S=6",
            "7   score=6      C=2 E=4 S=3",
            "8   score=7      C=1 E=4 S=3",
            "9   score=8      C=1 E=4 S=6",
            "10  score=8      C=1 E=5 S=6",
            "11  score=8      C=2 E=4 S=6",
            "12  score=9      C=2 E=5 S=6",
        ],
        "{out}"
    );
    assert!(
        out.lines().any(
            |l| l.starts_with("# 12 matches in ") && l.ends_with("(algo kgpm, 0 edges loaded)")
        ),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeat_runs_share_one_plan_and_say_which_run_was_cold() {
    let (dir, graph) = citation_fixture("repeat", &[("q.txt", "C -> E\nC -> S\n")]);
    let q = dir.join("q.txt").to_string_lossy().into_owned();
    let out = ktpm(&[
        "query", &graph, &q, "--algo", "topk", "--repeat", "2", "-k", "100",
    ]);
    let lines: Vec<&str> = out.lines().collect();
    let [run1, run2, total, rows @ ..] = lines.as_slice() else {
        panic!("expected two run lines, a total and the rows:\n{out}");
    };
    assert!(
        run1.starts_with("# run 1/2: 5 matches in ") && run1.ends_with(" (cold: builds the plan)"),
        "{out}"
    );
    assert!(
        run2.starts_with("# run 2/2: 5 matches in ") && run2.ends_with(" (warm: shared plan)"),
        "{out}"
    );
    assert!(
        total.starts_with("# 5 matches in ")
            && total.ends_with("(algo topk, 7 edges loaded across all runs)"),
        "{out}"
    );
    assert_eq!(
        rows,
        [
            "1   score=2      C=0 E=4 S=3",
            "2   score=2      C=0 E=5 S=3",
            "3   score=3      C=0 E=4 S=6",
            "4   score=3      C=0 E=5 S=6",
            "5   score=3      C=1 E=5 S=3",
        ],
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_errors_name_the_form_the_algorithm_needs() {
    let (dir, graph) = citation_fixture(
        "query-errors",
        &[
            ("bad.txt", "C -> \n"),
            ("child.txt", "C => E\n"),
            ("tri.txt", "C -> E\nE -> S\nS -> C\n"),
        ],
    );
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let store = file("store.tc");
    ktpm(&["closure", &graph, &store]);
    for (query, extra, want) in [
        (
            "bad.txt",
            &[][..],
            "error: bad query: neither a tree query (line 1: cannot parse \"C ->\") \
             nor a graph pattern (line 1: cannot parse \"C ->\")\n",
        ),
        (
            "child.txt",
            &["--algo", "kgpm"][..],
            "error: bad query: Algo::Kgpm needs a graph pattern, but the query is not one: \
             line 1: '=>' child edges are not valid in graph patterns (use '->')\n",
        ),
        (
            "tri.txt",
            &["--algo", "topk"][..],
            "error: unsupported option: the query only parsed as a graph pattern, which \
             algorithm \"topk\" cannot run; use .algo(Algo::Kgpm)\n",
        ),
        (
            "tri.txt",
            &["--algo", "kgpm", "--store", &store][..],
            "error: unsupported option: graph patterns need a store with an undirected \
             mirror — attach the graph (MemStore::with_graph, LiveStore, OnDemandStore)\n",
        ),
        // The exhaustive oracle and the paper's DP baselines are test
        // references, not engines.
        (
            "child.txt",
            &["--algo", "brute"][..],
            "error: unknown algorithm \"brute\" (expected topk | topk-en | par | kgpm)\n",
        ),
        (
            "child.txt",
            &["--algo", "dp-b"][..],
            "error: unknown algorithm \"dp-b\" (expected topk | topk-en | par | kgpm)\n",
        ),
    ] {
        let q = file(query);
        let args: Vec<&str> = ["query", graph.as_str(), q.as_str()]
            .into_iter()
            .chain(extra.iter().copied())
            .collect();
        assert_eq!(ktpm_fails(&args), want, "ktpm {args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_subcommand_names_the_flag_of_a_bad_value_and_refuses_an_unknown_option() {
    // Arguments are checked before any file is read, so the paths
    // need not exist.
    for (args, want) in [
        (
            &["closure", "g.txt", "out.tc", "--shards", "x"][..],
            "error: --shards: invalid digit found in string\n",
        ),
        (
            &["closure", "g.txt", "out.tc", "--shard", "2"][..],
            "error: unknown closure option \"--shard\"\n",
        ),
        (
            &["query", "g.txt", "q.txt", "-k", "abc"][..],
            "error: -k: invalid digit found in string\n",
        ),
        (
            &["query", "g.txt", "q.txt", "--algoo", "topk"][..],
            "error: unknown query option \"--algoo\"\n",
        ),
        (
            &["query", "g.txt", "q.txt", "--k", "3"][..],
            "error: unknown query option \"--k\"\n",
        ),
        (
            &["serve", "g.txt", "--workers", "x"][..],
            "error: --workers: invalid digit found in string\n",
        ),
        (
            &["serve", "g.txt", "--worker", "2"][..],
            "error: unknown serve option \"--worker\"\n",
        ),
        (
            &["blockd", "--store", "s.tc", "--listen"][..],
            "error: --listen needs a value\n",
        ),
        (
            &["blockd", "--store", "s.tc", "--port", "1"][..],
            "error: unknown blockd option \"--port\"\n",
        ),
        (
            &["store", "verify", "--deep"][..],
            "error: unknown store verify option \"--deep\"\n",
        ),
        (
            &["serve", "g.txt", "--addr", "nonsense"][..],
            "error: --addr \"nonsense\": invalid socket address\n",
        ),
        (
            &["blockd", "--store", "s.tc", "--listen", "nonsense"][..],
            "error: --listen \"nonsense\": invalid socket address\n",
        ),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "ktpm {args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), want, "ktpm {args:?}");
    }
}
