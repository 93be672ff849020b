//! The `ktpm` command-line tool: top-k tree matching from the shell.
//!
//! ```text
//! ktpm closure <graph.txt> <store.tc>          precompute + persist the closure
//! ktpm closure <graph.txt> <dir> --shards <n>  ... as a sharded snapshot: n v5
//!                                              shard files + a v6 MANIFEST
//! ktpm query   <graph.txt> <query.txt> [opts]  run a top-k twig query
//! ktpm serve   <graph.txt> [opts]              run the TCP query service
//! ktpm blockd  --store <path> [--listen a]     serve a snapshot's raw blocks
//!                                              over TCP for remote stores
//!                                              (--store tcp://host:port)
//! ktpm store verify <store>                    re-check every checksum in a
//!                                              persisted store (single file,
//!                                              or a sharded snapshot given its
//!                                              MANIFEST/directory: manifest
//!                                              CRC, per-file content hashes,
//!                                              then a full per-shard scrub);
//!                                              nonzero exit on corruption,
//!                                              naming the corrupt file
//!
//! options for `query`:
//!   -k <n>            number of matches (default 10)
//!   --store <path>    use a persisted closure store instead of computing.
//!                     A store file is read through the paged backend
//!                     (lazy CRC-verified block fetch behind an LRU block
//!                     cache). A sharded snapshot's MANIFEST (or
//!                     directory) opens the sharded backend — only shard
//!                     files the query's label pairs touch are opened.
//!                     `tcp://host:port` connects to `ktpm blockd` and
//!                     fetches blocks remotely on demand. Files in the
//!                     retired v1/v2/v3 layouts are refused: re-run
//!                     `ktpm closure`
//!   --block-cache-bytes <n>
//!                     byte budget for the block cache (default 8 MiB;
//!                     0 = unlimited)
//!   --iostats         print the store's I/O counters after the run:
//!                     blocks/bytes/edges read, D/E entries, the
//!                     block-cache hit/miss/eviction/resident-bytes set,
//!                     files opened (sharded backend) and the remote
//!                     fetch/bytes/retry/error counters (remote backend);
//!                     then one `# timing:` line splitting the wall time:
//!                     open= the store open (or the in-memory closure
//!                     build), plan+stream= plan and stream construction,
//!                     first= the first match, rest= the remaining k-1
//!                     (of the last run under --repeat)
//!   --algo <name>     any name in the shared `Algo` registry:
//!                     topk | topk-en | par | kgpm
//!                     (default topk-en). `kgpm` reads the query as an
//!                     undirected graph pattern — cycles allowed, `=>`
//!                     child edges not
//!   --parallel <n>    shard count for sharded algorithms (implies
//!                     --algo par when --algo is absent; default: CPU
//!                     count, capped at 8)
//!   --repeat <n>      run the query n times over ONE shared QueryPlan:
//!                     run 1 is cold (pays setup), runs 2..n are warm
//!                     (zero candidate discovery) — per-run timings show
//!                     the amortization the plan cache buys a server
//!   --on-demand       skip closure precomputation (lazy per-label SSSP)
//!
//! options for `serve`:
//!   --addr <host:port>  listen address (default 127.0.0.1:7878)
//!   --store <path>      use a persisted closure store instead of computing.
//!                       Persisted and on-demand stores are snapshots:
//!                       the `UPDATE` verb answers ERR update-unsupported
//!                       on them. The default (compute in memory) serves
//!                       a live store that accepts updates. Path
//!                       resolution and --block-cache-bytes work as in
//!                       `query`; STATS reports the store's io_* counters
//!                       including the block-cache set.
//!   --on-demand         skip closure precomputation (lazy per-label SSSP)
//!   --workers <n>       worker threads (default: CPU count, capped at 16)
//!   --event-loop        serve with the `ktpm-net` readiness loop instead
//!                       of a thread per connection: one reactor thread
//!                       multiplexes every socket, a fixed executor pool
//!                       runs requests, parked connections hold no
//!                       thread, and clients may pipeline requests
//!                       (responses stream back in request order,
//!                       byte-identical to the legacy path; workers take
//!                       connections round-robin, one request at a
//!                       time, so one client's burst does not hold up
//!                       another's request). Overload is shed per
//!                       request with `ERR overloaded`.
//!   --net-workers <n>   event-loop executor threads (default: CPU
//!                       count, clamped to 2..8; implies --event-loop)
//!   --pipeline <n>      per-connection bound on queued pipelined
//!                       requests before shedding (default 64; implies
//!                       --event-loop)
//!   --write-buf <bytes> per-connection bound on unflushed response
//!                       bytes before shedding (default 262144; implies
//!                       --event-loop)
//!   --idle-timeout <secs>
//!                       close connections silent for this long, on both
//!                       front ends (default 300; 0 = never). Sessions
//!                       survive their connection and can be resumed.
//!   --sweep-interval-ms <n>
//!                       janitor cadence for session-TTL eviction
//!                       (default 200)
//!   --parallel <n>      shard count for `par` sessions (default as above)
//!   --ttl <secs>        idle-session eviction timeout (default 300)
//!   --plan-cache <n>    cached query plans (default 256). Plans hold a
//!                       query's whole setup — candidate discovery,
//!                       run-time graph, bs pass, slot templates — keyed
//!                       by canonical query text and the form it is read
//!                       in (kgpm: pattern, every other algorithm: tree)
//!                       and shared by all sessions of that query, so a
//!                       warm OPEN repeats none of it. LRU-evicted; each warm
//!                       entry costs O(m_R) memory, so size this to the
//!                       hot-query working set.
//!   --plan-cache-bytes <n>
//!                       byte budget over the plan cache (default: off;
//!                       n = 0 also means off): LRU plans are evicted
//!                       once the summed plan footprint exceeds it; the
//!                       entry-count cap above still applies. STATS
//!                       reports the budget as plan_cache_bytes_limit
//!                       (0 = off).
//!   --warm <file>       pre-build plans for a query list before
//!                       accepting connections: one query per line, `;`
//!                       for newlines (the wire form). The first OPEN of
//!                       a warmed query does zero candidate discovery.
//! ```
//!
//! Every subcommand checks its arguments before it reads a file: an
//! option's missing or unparsable value is an error that names the
//! option (`error: -k: invalid digit found in string`), and an
//! argument starting with `-` that the subcommand does not know is
//! refused by name (`error: unknown query option "--algoo"`).
//!
//! `ktpm query` runs every algorithm through the `ktpm::api` facade
//! (`Executor`/`QueryBuilder` → one `MatchStream`): algorithm names
//! come from the shared `Algo` registry (case-insensitive) — there is
//! no CLI-only algorithm list and no per-algorithm construction here —
//! and the tree-query stream is byte-identical whichever engine runs
//! it. `--algo kgpm` answers the *pattern* reading of the same query
//! text (undirected semantics, non-tree edges verified lazily), so its
//! match set legitimately differs from the tree algorithms'.
//!
//! ## Parallel execution (`--algo par`, `--parallel N`)
//!
//! `par` runs `ParTopk`: the query's root-candidate set is split into
//! `N` disjoint shards (node-id stride — every match belongs to exactly
//! one shard, the one owning its root), each shard runs an independent
//! sequential enumerator on a shared worker pool, and the shard streams
//! are lazily k-way merged. **Order preservation:** each shard stream
//! is put into the workspace's canonical order (ascending
//! `(score, assignment)`), and a merge of disjoint canonically-ordered
//! streams keyed the same way is itself canonical — so `par` output is
//! byte-identical to `--algo topk` for every shard count. The same
//! policy drives `OPEN par ...` sessions in `ktpm serve` (configured by
//! `--parallel`).
//!
//! ## The `serve` wire protocol
//!
//! `ktpm serve` speaks a line-based TCP protocol; one request per line,
//! one response (possibly multi-line) per request:
//!
//! ```text
//! -> OPEN <algo> <query>      query in twig text with `;` for newlines,
//!                             e.g. OPEN topk-en C -> E; C -> S.
//!                             `OPEN kgpm ...` reads the query as an
//!                             undirected graph pattern (cycles allowed)
//!                             and streams ranked pattern matches
//! <- OK <session>
//! -> NEXT <session> <n>
//! <- OK <j> MORE|DONE         then j lines `M <score> <node> <node> ...`
//! -> CLOSE <session>
//! <- OK closed
//! -> STATS
//! <- OK key=value ...
//! -> UPDATE <op>[; <op> ...]  live graph mutation, ops: set <u> <v> <w>
//!                             | ins <u> <v> <w> | del <u> <v>
//! <- OK version=<v> ...       the new graph version + invalidation counts
//! <- ERR <code> <detail>      on any failure; the connection stays open.
//!                             Codes are a stable taxonomy (bad-request,
//!                             bad-query, stale-version, overloaded, ...);
//!                             see `ktpm::service::protocol`.
//! ```
//!
//! Sessions are resumable cursors: `NEXT` continues exactly where the
//! previous batch stopped without re-running query setup, and repeated
//! queries are served from the engine's result cache. Try it:
//!
//! ```text
//! $ ktpm serve graph.txt --addr 127.0.0.1:7878 &
//! $ printf 'OPEN topk-en C -> E; C -> S\nNEXT 1 2\nNEXT 1 2\nCLOSE 1\n' | nc 127.0.0.1 7878
//! ```
//!
//! Graph files use the `n <id> <label>` / `e <src> <dst> [w]` format of
//! [`ktpm::graph::io`]; query files use the `A -> B` / `A => B` twig
//! format of [`ktpm::query::TreeQuery::parse`].

use ktpm::api::Executor;
use ktpm::net::{EventServer, NetConfig};
use ktpm::prelude::*;
use ktpm::service::{QueryEngine, Server, ServiceConfig};
use std::io::{BufReader, ErrorKind};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::Arc;

// One synopsis per subcommand: bare `ktpm` and the subcommand's own
// argument error print the same line.
const CLOSURE_USAGE: &str =
    "ktpm closure <graph.txt> <store.tc|dir> [--shards n] [--block-entries n]";
const QUERY_USAGE: &str = "ktpm query <graph.txt> <query.txt> [-k n] [--store p|tcp://host:port] [--algo a] [--parallel n] [--repeat n] [--on-demand] [--block-cache-bytes n] [--iostats]";
const SERVE_USAGE: &str = "ktpm serve <graph.txt> [--addr host:port] [--store p|tcp://host:port] [--on-demand] [--block-cache-bytes n] [--workers n] [--parallel n] [--ttl secs] [--plan-cache n] [--plan-cache-bytes n] [--warm file] [--event-loop] [--net-workers n] [--pipeline n] [--write-buf bytes] [--idle-timeout secs] [--sweep-interval-ms n]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("closure") => cmd_closure(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("blockd") => cmd_blockd(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        _ => {
            eprintln!("usage: {CLOSURE_USAGE}");
            eprintln!("       {QUERY_USAGE}");
            eprintln!("         (--iostats prints the store's I/O counters and a `# timing: open= plan+stream= first= rest=` line)");
            eprintln!("       {SERVE_USAGE}");
            eprintln!("       ktpm blockd --store <path> [--listen host:port]");
            eprintln!("       ktpm store verify <store.tc|MANIFEST|dir>");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The arguments a subcommand walks, flag by flag.
type Args<'a> = std::slice::Iter<'a, String>;

/// The value after `flag`, parsed; a missing or unparsable value is an
/// error that names the flag.
fn value<T: std::str::FromStr>(it: &mut Args, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

/// `addr`, the value of the address option `flag`, resolved. An
/// address that does not resolve is refused by its option before any
/// file is read.
fn socket_addrs(flag: &str, addr: &str) -> Result<Vec<SocketAddr>, String> {
    addr.to_socket_addrs()
        .map(Iterator::collect)
        .map_err(|e| format!("{flag} {addr:?}: {e}"))
}

/// A front end's start-up error, where a failure to bind names the
/// address option `flag`.
fn bind_error(flag: &str, addr: &str, e: std::io::Error) -> Box<dyn std::error::Error> {
    match e.kind() {
        ErrorKind::AddrInUse | ErrorKind::AddrNotAvailable => {
            format!("{flag} {addr:?}: {e}").into()
        }
        _ => e.into(),
    }
}

/// `arg` as a positional argument of `cmd`; an argument that looks like
/// an option `cmd` does not have is refused by name.
fn operand(cmd: &str, arg: &str) -> Result<String, String> {
    if arg.starts_with('-') {
        return Err(format!("unknown {cmd} option {arg:?}"));
    }
    Ok(arg.to_string())
}

fn load_graph(path: &str) -> Result<LabeledGraph, Box<dyn std::error::Error>> {
    let f = std::fs::File::open(path)?;
    Ok(ktpm::graph::io::read_graph(BufReader::new(f))?)
}

/// Picks the storage backend shared by `query` and `serve`. What
/// `--store` names is resolved in one place (`open_store_uri`): a
/// `tcp://` address connects to `ktpm blockd`, a sharded snapshot's
/// MANIFEST (or directory) opens the sharded backend, and a store file
/// goes through the paged reader (lazy verified block fetch behind the
/// `--block-cache-bytes` LRU budget; 0 = unlimited).
fn open_store(
    g: &LabeledGraph,
    store_path: &Option<String>,
    on_demand: bool,
    block_cache_bytes: Option<u64>,
) -> Result<SharedSource, Box<dyn std::error::Error>> {
    Ok(match (store_path, on_demand) {
        (Some(p), _) => open_store_uri(p, block_cache_bytes)?,
        (None, true) => OnDemandStore::new(g.clone()).into_shared(),
        // Attach the graph so `--algo kgpm` / `OPEN kgpm` can derive
        // the undirected mirror; tree algorithms never look at it.
        // Persisted stores stay graph-less: kgpm over `--store` is an
        // explicit pattern-unsupported error.
        (None, false) => MemStore::new(ClosureTables::compute(g))
            .with_graph(g.clone())
            .into_shared(),
    })
}

fn cmd_closure(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut shards: Option<u32> = None;
    let mut block_entries: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => shards = Some(value(&mut it, a)?),
            "--block-entries" => block_entries = Some(value(&mut it, a)?),
            other => positional.push(operand("closure", other)?),
        }
    }
    let [graph_path, out_path] = positional.as_slice() else {
        return Err(format!("usage: {CLOSURE_USAGE}").into());
    };
    let g = load_graph(graph_path)?;
    let t = std::time::Instant::now();
    let tables = ClosureTables::compute(&g);
    let stats = tables.stats();
    let wrote = match shards {
        // Sharded snapshot: one v5 file per contiguous run of pairs + a
        // v6 MANIFEST of their key ranges in the output directory; open
        // it via the MANIFEST path.
        Some(n) if n > 0 => {
            let spec = ShardSpec::new(0, n);
            let manifest = write_store_sharded(
                &tables,
                std::path::Path::new(out_path),
                &spec,
                block_entries.unwrap_or(DEFAULT_BLOCK_EDGES),
            )?;
            let show = |k: (LabelId, LabelId)| format!("({}, {})", k.0 .0, k.1 .0);
            let ranges: Vec<String> = (0..manifest.shards.len())
                .map(|i| match manifest.range_of(i) {
                    (from, Some(to)) => format!("[{}, {})", show(from), show(to)),
                    (from, None) => format!("[{}, end)", show(from)),
                })
                .collect();
            format!(
                "{out_path}/MANIFEST ({} shard files, {} pairs; key ranges {})",
                manifest.shards.len(),
                manifest.pair_count(),
                ranges.join(" ")
            )
        }
        Some(_) => return Err("--shards needs a nonzero count".into()),
        None => match block_entries {
            Some(be) => {
                write_store_v3(&tables, std::path::Path::new(out_path), be)?;
                out_path.to_string()
            }
            None => {
                write_store(&tables, std::path::Path::new(out_path))?;
                out_path.to_string()
            }
        },
    };
    println!(
        "closure of {} nodes / {} edges: {} closure edges (θ = {:.1}) in {:?} -> {}",
        g.num_nodes(),
        g.num_edges(),
        stats.edges,
        stats.theta,
        t.elapsed(),
        wrote
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut k = 10usize;
    let mut store_path: Option<String> = None;
    let mut algo: Option<String> = None;
    let mut parallel: Option<usize> = None;
    let mut repeat = 1usize;
    let mut on_demand = false;
    let mut block_cache_bytes: Option<u64> = None;
    let mut iostats = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-k" => k = value(&mut it, a)?,
            "--store" => store_path = Some(value(&mut it, a)?),
            "--algo" => algo = Some(value(&mut it, a)?),
            "--parallel" => parallel = Some(value(&mut it, a)?),
            "--repeat" => repeat = value(&mut it, a)?,
            "--on-demand" => on_demand = true,
            "--block-cache-bytes" => block_cache_bytes = Some(value(&mut it, a)?),
            "--iostats" => iostats = true,
            other => positional.push(operand("query", other)?),
        }
    }
    let repeat = repeat.max(1);
    let [graph_path, query_path] = positional.as_slice() else {
        return Err(format!("usage: {QUERY_USAGE}").into());
    };
    // --parallel alone selects parallel execution; pairing it with a
    // non-sharded --algo would silently ignore one of the two.
    let algo_name = match (&algo, parallel) {
        (None, Some(_)) => "par",
        (None, None) => "topk-en",
        (Some(a), _) => a.as_str(),
    };
    // One name registry for every front end: the CLI accepts exactly
    // the algorithms `build_stream` dispatches — no CLI-only list.
    let Some(algo) = Algo::parse(algo_name) else {
        return Err(format!(
            "unknown algorithm {algo_name:?} (expected {})",
            Algo::valid_names()
        )
        .into());
    };
    if parallel.is_some() && !algo.sharded() {
        return Err(format!(
            "--parallel needs a sharded algorithm (got --algo {algo_name}); use par or kgpm"
        )
        .into());
    }
    let g = load_graph(graph_path)?;
    let query_text = std::fs::read_to_string(query_path)?;

    let t = std::time::Instant::now();
    let store: SharedSource = open_store(&g, &store_path, on_demand, block_cache_bytes)?;
    let open = t.elapsed();

    // Every algorithm runs behind the facade's single `MatchStream`
    // surface — no per-algorithm construction here. With `--repeat n`
    // every run shares one plan handle, as `ktpm serve` sessions of one
    // query do: the setup pipeline (candidate discovery, run-time
    // graph, bs pass, slot templates — or, for kgpm, the pattern
    // decomposition) is paid by run 1; runs 2..n are warm. Run 1's
    // clock starts before the plan is built, so it counts it.
    let exec = Executor::new(g.interner().clone(), Arc::clone(&store));
    let run_one = std::time::Instant::now();
    let plan = exec.plan_for(&query_text, algo)?;
    let mut matches: Vec<ScoredMatch> = Vec::new();
    let mut dt = std::time::Duration::ZERO;
    // The last run's split for `--iostats`: stream built, first match out.
    let (mut built, mut first) = (dt, dt);
    for run in 1..=repeat {
        let t = if run == 1 {
            run_one
        } else {
            std::time::Instant::now()
        };
        // Facade streams emit the canonical `(score, assignment)`
        // order (ties deterministic, sharded engines byte-identical to
        // their sequential runs for every shard count).
        let mut b = exec
            .query(&query_text)?
            .algo(algo)
            .k(k)
            .plan(Arc::clone(&plan));
        if let Some(n) = parallel {
            b = b.shards(n);
        }
        let mut stream = b.stream()?;
        built = t.elapsed();
        matches = stream.next().into_iter().collect();
        first = t.elapsed();
        while !stream.next_batch(k.max(1), &mut matches).is_done() {}
        dt = t.elapsed();
        if repeat > 1 {
            println!(
                "# run {run}/{repeat}: {} matches in {dt:?} ({})",
                matches.len(),
                if run == 1 {
                    "cold: builds the plan"
                } else {
                    "warm: shared plan"
                }
            );
        }
    }
    println!(
        "# {} matches in {dt:?} (algo {}, {} edges loaded{})",
        matches.len(),
        algo.name(),
        store.io().edges_read,
        if repeat > 1 { " across all runs" } else { "" }
    );
    if iostats {
        let io = exec.source().io();
        println!(
            "# iostats: block_reads={} bytes_read={} edges_read={} d_entries={} e_entries={} \
             cache_hits={} cache_misses={} cache_evictions={} cache_bytes_resident={} \
             files_opened={} remote_fetches={} remote_bytes={} remote_retries={} remote_errors={}",
            io.block_reads,
            io.bytes_read,
            io.edges_read,
            io.d_entries,
            io.e_entries,
            io.cache_hits,
            io.cache_misses,
            io.cache_evictions,
            io.cache_bytes_resident,
            io.files_opened,
            io.remote_fetches,
            io.remote_bytes,
            io.remote_retries,
            io.remote_errors
        );
        println!(
            "# timing: open={open:?} plan+stream={built:?} first={:?} rest={:?}",
            first - built,
            dt - first
        );
    }
    // Column labels per assignment slot: pattern nodes for kgpm rows,
    // query-tree nodes otherwise (both orders match the emitted rows).
    let labels: Vec<String> = match plan.pattern_query() {
        Some(pattern) => pattern.labels().to_vec(),
        None => {
            let tree = plan.query().tree();
            tree.node_ids()
                .map(|u| tree.label_name(u).unwrap_or("*").to_string())
                .collect()
        }
    };
    for (rank, m) in matches.iter().enumerate() {
        let binding: Vec<String> = labels
            .iter()
            .zip(m.assignment.iter())
            .map(|(name, node)| format!("{name}={}", node.0))
            .collect();
        println!("{:<3} score={:<6} {}", rank + 1, m.score, binding.join(" "));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut store_path: Option<String> = None;
    let mut warm_path: Option<String> = None;
    let mut on_demand = false;
    let mut event_loop = false;
    let mut block_cache_bytes: Option<u64> = None;
    let mut config = ServiceConfig::default();
    let mut net_config = NetConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = value(&mut it, a)?,
            "--store" => store_path = Some(value(&mut it, a)?),
            "--block-cache-bytes" => block_cache_bytes = Some(value(&mut it, a)?),
            "--warm" => warm_path = Some(value(&mut it, a)?),
            "--on-demand" => on_demand = true,
            "--event-loop" => event_loop = true,
            "--net-workers" => {
                event_loop = true;
                net_config.workers = value(&mut it, a)?;
            }
            "--pipeline" => {
                event_loop = true;
                net_config.max_pipeline = value(&mut it, a)?;
            }
            "--write-buf" => {
                event_loop = true;
                net_config.max_write_buffer = value(&mut it, a)?;
            }
            "--idle-timeout" => {
                let secs: u64 = value(&mut it, a)?;
                config.idle_timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
            }
            "--sweep-interval-ms" => {
                config.sweep_interval = std::time::Duration::from_millis(value(&mut it, a)?)
            }
            "--workers" => config.workers = value(&mut it, a)?,
            "--parallel" => config.parallel.shards = value(&mut it, a)?,
            "--ttl" => config.session_ttl = std::time::Duration::from_secs(value(&mut it, a)?),
            "--plan-cache" => config.plan_cache_capacity = value(&mut it, a)?,
            "--plan-cache-bytes" => {
                // 0 means "off" here exactly as in STATS
                // (plan_cache_bytes_limit=0): Some(0) would instead
                // evict every plan but the one in use.
                let bytes: u64 = value(&mut it, a)?;
                config.plan_cache_max_bytes = (bytes > 0).then_some(bytes);
            }
            other => positional.push(operand("serve", other)?),
        }
    }
    let [graph_path] = positional.as_slice() else {
        return Err(format!("usage: {SERVE_USAGE}").into());
    };
    let addrs = socket_addrs("--addr", &addr)?;
    let g = load_graph(graph_path)?;
    let t = std::time::Instant::now();
    // Unlike `query`, the default in-memory store here is a LiveStore:
    // same closure computation, but the UPDATE verb works. Persisted
    // and on-demand stores stay snapshots (UPDATE answers
    // ERR update-unsupported).
    let source: ktpm::storage::SharedSource = match (&store_path, on_demand) {
        (None, false) => LiveStore::new(g.clone()).into_shared(),
        _ => open_store(&g, &store_path, on_demand, block_cache_bytes)?,
    };
    let workers = config.workers;
    let handle = QueryEngine::new(g.interner().clone(), source, config);
    // Plan warm-up happens BEFORE the listener binds: the first client
    // request of a warmed query is a plan hit with zero discovery work.
    if let Some(path) = warm_path {
        let list = std::fs::read_to_string(&path)?;
        let t = std::time::Instant::now();
        // One query per line, `;` standing in for newlines exactly as
        // on the wire (`OPEN <algo> <query>`).
        let queries: Vec<String> = list
            .lines()
            .map(|l| l.replace(';', "\n"))
            .filter(|l| !l.trim().is_empty())
            .collect();
        let report = handle.warm_plans(queries.iter().map(String::as_str));
        println!(
            "warmed {} plans from {path} ({} plan bytes, {} skipped) in {:?}",
            report.warmed,
            report.plan_bytes,
            report.skipped,
            t.elapsed()
        );
    }
    // Either front end serves the same protocol over the same handle;
    // the boxed server is held only to keep its threads alive.
    let named = |e| bind_error("--addr", &addr, e);
    let (local_addr, front_end, _server): (_, _, Box<dyn std::any::Any>) = if event_loop {
        let s = EventServer::spawn(handle, &addrs[..], net_config).map_err(named)?;
        (s.local_addr(), "event loop", Box::new(s))
    } else {
        let s = Server::spawn(handle, &addrs[..]).map_err(named)?;
        (s.local_addr(), "thread per connection", Box::new(s))
    };
    println!(
        "serving {} nodes / {} edges on {} ({} workers, {front_end}, setup {:?})",
        g.num_nodes(),
        g.num_edges(),
        local_addr,
        workers,
        t.elapsed()
    );
    println!(
        "protocol: OPEN <algo> <query> | NEXT <session> <n> | CLOSE <session> | STATS | UPDATE <ops>"
    );
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `ktpm blockd --store <path> [--listen host:port]`: serve a
/// snapshot's raw blocks over TCP for `--store tcp://host:port`
/// consumers. `--store` takes a sharded snapshot directory, its
/// MANIFEST path, or a plain single-file store (announced as a
/// synthesized one-file manifest).
fn cmd_blockd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut store: Option<String> = None;
    let mut listen = "127.0.0.1:7979".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => store = Some(value(&mut it, a)?),
            "--listen" => listen = value(&mut it, a)?,
            other => return Err(format!("unknown blockd option {other:?}").into()),
        }
    }
    let store = store.ok_or("usage: ktpm blockd --store <path> [--listen host:port]")?;
    let addrs = socket_addrs("--listen", &listen)?;
    let server =
        BlockServer::spawn(std::path::Path::new(&store), &addrs[..]).map_err(|e| match e {
            StorageError::Io(e) => bind_error("--listen", &listen, e),
            e => e.into(),
        })?;
    println!("blockd serving {} on {}", store, server.local_addr());
    println!(
        "point query-side stores at --store tcp://{}",
        server.local_addr()
    );
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `ktpm store verify <store>`: re-checks every checksum in a
/// persisted snapshot. A store file is opened (header and index head
/// checksums) and scrubbed index page by page, section by section and
/// block by block. A
/// sharded snapshot (MANIFEST path or directory) checks the manifest
/// CRC, then every shard file's length and whole-file content hash
/// against it, then scrubs each shard; the first corrupt file is named
/// in the error. What the path names is resolved by the same
/// `open_local_store` that `--store` goes through, so the error for a
/// file this tool cannot read is the reader's own. Exits nonzero (via
/// the `Err` path in `main`) on the first corruption.
fn cmd_store(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let [sub, store_arg] = args else {
        return Err("usage: ktpm store verify <store.tc|MANIFEST|dir>".into());
    };
    if sub != "verify" {
        return Err(format!("unknown store subcommand {sub:?} (expected verify)").into());
    }
    let store_arg = operand("store verify", store_arg)?;
    let named = |e: StorageError| format!("{store_arg}: {e}");
    let t = std::time::Instant::now();
    match open_local_store(std::path::Path::new(&store_arg), DEFAULT_BLOCK_CACHE_BYTES)
        .map_err(named)?
    {
        LocalStore::Sharded(store) => {
            store.verify().map_err(named)?;
            println!(
                "{store_arg}: OK (v6 sharded, manifest + {} shard file(s) scrubbed, {:?})",
                store.shard_count(),
                t.elapsed()
            );
        }
        LocalStore::Paged(store) => {
            store.verify().map_err(named)?;
            let io = store.io();
            println!(
                "{store_arg}: OK (v5 paged, {} index pages, {} blocks / {} bytes scrubbed, {:?})",
                store.index_pages(),
                io.block_reads,
                io.bytes_read,
                t.elapsed()
            );
        }
    }
    Ok(())
}
