//! The `ktpm` command-line tool: top-k tree matching from the shell.
//! `ktpm closure` precomputes and persists the closure tables (one
//! store file, or a sharded snapshot), `ktpm query` runs a top-k twig
//! query, `ktpm serve` runs the TCP query service (protocol below),
//! `ktpm blockd` serves a snapshot's raw blocks to stores opened as
//! `--store tcp://host:port`, and `ktpm store verify` re-checks every
//! checksum in a persisted store, naming the first corrupt file.
//!
//! Bare `ktpm` prints every synopsis, then every option with its
//! default. Both are generated from the table below (an `Opt` per
//! option, a `Cmd` per subcommand), which the one parser also reads.
//! Every subcommand checks its arguments before it reads a file: an
//! option's missing or unparsable value is an error that names the
//! option (`error: -k: invalid digit found in string`), and an
//! argument starting with `-` that the subcommand does not know is
//! refused by name (`error: unknown query option "--algoo"`). So is
//! an option that another would override: `--on-demand` beside
//! `--store`, and `--block-cache-bytes` without `--store`.
//!
//! `ktpm query` runs every algorithm through the `ktpm::api` facade
//! (`Executor`/`QueryBuilder` → one `MatchStream`): algorithm names
//! come from the shared `Algo` registry (case-insensitive) — there is
//! no per-algorithm construction here — and the tree-query stream is
//! byte-identical whichever engine runs it. `--algo kgpm` answers the
//! *pattern* reading of the same query text (undirected semantics,
//! non-tree edges verified lazily), so its match set legitimately
//! differs from the tree algorithms'.
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
use std::fmt::Write as _;
use std::io::{BufReader, ErrorKind};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One option: its flag, its value's metavar (`None` for a switch) and
/// one line of help that states the default. Code names an option by
/// its `Opt`, so a flag is spelt once, where it is declared. What a
/// `serve` option sets is documented on its `ServiceConfig` /
/// `NetConfig` / `ParallelPolicy` field.
struct Opt {
    flag: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

/// Declares one `Opt` const per line: `NAME "flag" ["metavar"] "help";`,
/// with no metavar for a switch.
macro_rules! opts {
    ($($name:ident $flag:literal $([$value:literal])? $help:literal;)*) => {
        $(const $name: Opt = Opt { flag: $flag, value: opts!(@ $($value)?), help: $help };)*
    };
    (@) => { None };
    (@ $value:literal) => { Some($value) };
}

opts! {
    SHARDS "--shards" ["n"] "write n shard files and a MANIFEST (default: one store file)";
    BLOCK_ENTRIES "--block-entries" ["n"] "closure edges per stored block (default 64)";
    K "-k" ["n"] "number of matches (default 10)";
    STORE "--store" ["p|tcp://host:port"] "read the closure from a store file, a snapshot's \
        MANIFEST or directory, or a `ktpm blockd` (default: compute it in memory)";
    ON_DEMAND "--on-demand" "compute each closure table when first read (default: all first)";
    BLOCK_CACHE_BYTES "--block-cache-bytes" ["n"] "block-cache budget of a --store \
        (default 8 MiB; 0 = unlimited)";
    PARALLEL "--parallel" ["n"] "shards of a par or kgpm run; alone, `query` runs par \
        (default: CPUs, at most 8)";
    ALGO "--algo" ["a"] "topk | topk-en | par | kgpm, where kgpm reads the query as a graph \
        pattern (default topk-en)";
    REPEAT "--repeat" ["n"] "run n times over one plan: run 1 builds it (default 1)";
    IOSTATS "--iostats" "print the store's I/O counters and a \
        `# timing: open= plan+stream= first= rest=` line";
    ADDR "--addr" ["host:port"] "listen address (default 127.0.0.1:7878)";
    WORKERS "--workers" ["n"] "worker threads (default: CPUs, at most 16)";
    TTL "--ttl" ["secs"] "idle-session eviction timeout (default 300)";
    PLAN_CACHE "--plan-cache" ["n"] "cached query plans, LRU-evicted (default 256)";
    PLAN_CACHE_BYTES "--plan-cache-bytes" ["n"] "byte budget of the cached plans (default 0 = off)";
    WARM "--warm" ["file"] "build plans for these queries (one a line, `;` for newlines) \
        before listening (default: none)";
    EVENT_LOOP "--event-loop" "serve from one readiness loop, not a thread per connection \
        (default: off)";
    NET_WORKERS "--net-workers" ["n"] "event-loop executor threads (default: CPUs, 2..8; \
        implies --event-loop)";
    PIPELINE "--pipeline" ["n"] "queued requests per connection before shedding (default 64; \
        implies --event-loop)";
    WRITE_BUF "--write-buf" ["bytes"] "unflushed bytes per connection before shedding \
        (default 262144; implies --event-loop)";
    IDLE_TIMEOUT "--idle-timeout" ["secs"] "close connections silent this long \
        (default 300; 0 = never)";
    SWEEP_INTERVAL_MS "--sweep-interval-ms" ["n"] "janitor cadence of session-TTL eviction \
        (default 200)";
    // `blockd` serves local files only, so its `--store` is a path.
    BLOCKD_STORE "--store" ["path"] "the snapshot to serve: a store file, or a snapshot's \
        MANIFEST or directory";
    LISTEN "--listen" ["host:port"] "listen address (default 127.0.0.1:7979)";
}

/// A subcommand: its operands, the options it must be given, and the
/// options it may be given, each in synopsis order.
struct Cmd {
    name: &'static str,
    operands: &'static [&'static str],
    required: &'static [&'static Opt],
    opts: &'static [&'static Opt],
}

/// Declares one `Cmd` const per entry:
/// `NAME "name" <"operand" ...> [REQUIRED ...] [OPTIONAL ...];`.
macro_rules! cmds {
    ($($name:ident $cmd:literal <$($arg:literal)*> [$($req:ident)*] [$($opt:ident)*];)*) => {$(
        const $name: Cmd = Cmd {
            name: $cmd,
            operands: &[$($arg),*],
            required: &[$(&$req),*],
            opts: &[$(&$opt),*],
        };
    )*};
}

cmds! {
    CLOSURE "closure" <"graph.txt" "store.tc|dir"> [] [SHARDS BLOCK_ENTRIES];
    QUERY "query" <"graph.txt" "query.txt"> []
        [K STORE ALGO PARALLEL REPEAT ON_DEMAND BLOCK_CACHE_BYTES IOSTATS];
    SERVE "serve" <"graph.txt"> [] [ADDR STORE ON_DEMAND BLOCK_CACHE_BYTES WORKERS PARALLEL TTL
        PLAN_CACHE PLAN_CACHE_BYTES WARM EVENT_LOOP NET_WORKERS PIPELINE WRITE_BUF IDLE_TIMEOUT
        SWEEP_INTERVAL_MS];
    BLOCKD "blockd" <> [BLOCKD_STORE] [LISTEN];
    STORE_VERIFY "store verify" <"store.tc|MANIFEST|dir"> [] [];
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("closure") => cmd_closure(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("blockd") => cmd_blockd(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        _ => {
            let all = [&CLOSURE, &QUERY, &SERVE, &BLOCKD, &STORE_VERIFY];
            eprintln!("{}", usage(&all, true));
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

/// `usage:` and each command's synopsis, a line each; with
/// `reference`, then each command's options with their help.
fn usage(cmds: &[&Cmd], reference: bool) -> String {
    let spec = |o: &Opt| match o.value {
        Some(v) => format!("{} {v}", o.flag),
        None => o.flag.to_string(),
    };
    let mut out = String::new();
    for (i, cmd) in cmds.iter().enumerate() {
        out += if i == 0 {
            "usage: ktpm "
        } else {
            "\n       ktpm "
        };
        out += cmd.name;
        for operand in cmd.operands {
            let _ = write!(out, " <{operand}>");
        }
        for o in cmd.required {
            let _ = write!(out, " {} <{}>", o.flag, o.value.unwrap_or_default());
        }
        for &o in cmd.opts {
            let _ = write!(out, " [{}]", spec(o));
        }
    }
    for cmd in cmds
        .iter()
        .filter(|c| reference && c.required.len() + c.opts.len() > 0)
    {
        let _ = write!(out, "\n\n{} options:", cmd.name);
        for &o in cmd.required.iter().chain(cmd.opts) {
            let _ = write!(out, "\n  {:<25}  {}", spec(o), o.help);
        }
    }
    out
}

/// A subcommand's arguments as its table entry reads them: operands in
/// order, and every option given with its value (`None` for a switch).
struct Parsed<'a> {
    cmd: &'static Cmd,
    operands: Vec<&'a str>,
    given: Vec<(&'static str, Option<&'a str>)>,
}

/// Sorts `args` into `cmd`'s operands and options. An argument starting
/// with `-` that `cmd` does not list is refused by name, and so is a
/// valued option at the end of the line.
fn parse<'a>(cmd: &'static Cmd, args: &'a [String]) -> Result<Parsed<'a>, String> {
    let (mut operands, mut given) = (Vec::new(), Vec::new());
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            operands.push(arg);
            continue;
        }
        let Some(opt) = cmd.required.iter().chain(cmd.opts).find(|o| o.flag == arg) else {
            return Err(format!("unknown {} option {arg:?}", cmd.name));
        };
        let value = match opt.value {
            Some(_) => Some(
                it.next()
                    .ok_or_else(|| format!("{} needs a value", opt.flag))?,
            ),
            None => None,
        };
        given.push((opt.flag, value));
    }
    Ok(Parsed {
        cmd,
        operands,
        given,
    })
}

impl Parsed<'_> {
    /// Whether `opt` was given.
    fn has(&self, opt: &Opt) -> bool {
        self.given.iter().any(|&(flag, _)| flag == opt.flag)
    }

    /// The last value given for `opt`, parsed; an unparsable value is an
    /// error that names the flag.
    fn value<T: std::str::FromStr>(&self, opt: &Opt) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let given = self.given.iter().rev().find(|&&(flag, _)| flag == opt.flag);
        given
            .and_then(|&(_, v)| v)
            .map(|v| v.parse().map_err(|e| format!("{}: {e}", opt.flag)))
            .transpose()
    }

    /// Exactly `N` operands, or the usage line.
    fn operands<const N: usize>(&self) -> Result<[&str; N], String> {
        self.operands
            .as_slice()
            .try_into()
            .map_err(|_| self.usage())
    }

    fn usage(&self) -> String {
        usage(&[self.cmd], false)
    }
}

/// `addr`, the value of the address option `opt`, resolved. An
/// address that does not resolve is refused by its option before any
/// file is read.
fn socket_addrs(opt: &Opt, addr: &str) -> Result<Vec<SocketAddr>, String> {
    let named = |e| format!("{} {addr:?}: {e}", opt.flag);
    addr.to_socket_addrs().map(Iterator::collect).map_err(named)
}

/// A front end's start-up error, where a failure to bind names the
/// address option `opt`.
fn bind_error(opt: &Opt, addr: &str, e: std::io::Error) -> Box<dyn std::error::Error> {
    match e.kind() {
        ErrorKind::AddrInUse | ErrorKind::AddrNotAvailable => {
            format!("{} {addr:?}: {e}", opt.flag).into()
        }
        _ => e.into(),
    }
}

fn load_graph(path: &str) -> Result<LabeledGraph, Box<dyn std::error::Error>> {
    let f = std::fs::File::open(path)?;
    Ok(ktpm::graph::io::read_graph(BufReader::new(f))?)
}

/// Where `query` and `serve` get their closure from.
enum Backend {
    /// Computed in memory from the graph.
    Memory,
    /// Computed per label pair on first use (`--on-demand`).
    OnDemand,
    /// A persisted store (`--store`) and its block-cache budget.
    Store(String, Option<u64>),
}

/// `--store`, `--on-demand` and `--block-cache-bytes`, checked against
/// each other: an option the chosen backend would ignore is refused.
fn backend(p: &Parsed) -> Result<Backend, String> {
    let cache_bytes = p.value(&BLOCK_CACHE_BYTES)?;
    match (p.value(&STORE)?, p.has(&ON_DEMAND)) {
        (Some(_), true) => Err(format!(
            "{} cannot be combined with {}",
            ON_DEMAND.flag, STORE.flag
        )),
        (Some(uri), false) => Ok(Backend::Store(uri, cache_bytes)),
        (None, _) if cache_bytes.is_some() => {
            Err(format!("{} needs {}", BLOCK_CACHE_BYTES.flag, STORE.flag))
        }
        (None, true) => Ok(Backend::OnDemand),
        (None, false) => Ok(Backend::Memory),
    }
}

/// Opens `backend` as `query` does (`serve` opens `Memory` as a live
/// store). `open_store_uri` resolves what `--store` names.
fn open_store(
    g: &LabeledGraph,
    backend: Backend,
) -> Result<SharedSource, Box<dyn std::error::Error>> {
    Ok(match backend {
        Backend::Store(uri, cache_bytes) => open_store_uri(&uri, cache_bytes)?,
        Backend::OnDemand => OnDemandStore::new(g.clone()).into_shared(),
        // Attach the graph so `--algo kgpm` / `OPEN kgpm` can derive
        // the undirected mirror; tree algorithms never look at it.
        // Persisted stores stay graph-less: kgpm over `--store` is an
        // explicit pattern-unsupported error.
        Backend::Memory => MemStore::new(ClosureTables::compute(g))
            .with_graph(g.clone())
            .into_shared(),
    })
}

fn cmd_closure(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = parse(&CLOSURE, args)?;
    let shards: Option<u32> = p.value(&SHARDS)?;
    let block_entries = p.value(&BLOCK_ENTRIES)?.unwrap_or(DEFAULT_BLOCK_EDGES);
    let [graph_path, out_path] = p.operands()?;
    let out = std::path::Path::new(out_path);
    let g = load_graph(graph_path)?;
    let t = Instant::now();
    let tables = ClosureTables::compute(&g);
    let stats = tables.stats();
    let wrote = match shards {
        // Sharded snapshot: one v5 file per contiguous run of pairs + a
        // v6 MANIFEST of their key ranges in the output directory; open
        // it via the MANIFEST path.
        Some(n) if n > 0 => {
            let spec = ShardSpec::new(0, n);
            let manifest = write_store_sharded(&tables, out, &spec, block_entries)?;
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
        Some(_) => return Err(format!("{} needs a nonzero count", SHARDS.flag).into()),
        None => {
            write_store_v3(&tables, out, block_entries)?;
            out_path.to_string()
        }
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
    let p = parse(&QUERY, args)?;
    let k = p.value(&K)?.unwrap_or(10usize);
    let algo: Option<String> = p.value(&ALGO)?;
    let parallel: Option<usize> = p.value(&PARALLEL)?;
    let repeat = p.value(&REPEAT)?.unwrap_or(1usize).max(1);
    let backend = backend(&p)?;
    let [graph_path, query_path] = p.operands()?;
    // --parallel alone selects parallel execution; pairing it with a
    // non-sharded --algo would silently ignore one of the two.
    let algo_name = match (&algo, parallel) {
        (None, Some(_)) => "par",
        (None, None) => "topk-en",
        (Some(a), _) => a.as_str(),
    };
    let Some(algo) = Algo::parse(algo_name) else {
        return Err(format!(
            "unknown algorithm {algo_name:?} (expected {})",
            Algo::valid_names()
        )
        .into());
    };
    if parallel.is_some() && !algo.sharded() {
        return Err(format!(
            "{} needs a sharded algorithm (got {} {algo_name}); use par or kgpm",
            PARALLEL.flag, ALGO.flag
        )
        .into());
    }
    let g = load_graph(graph_path)?;
    let query_text = std::fs::read_to_string(query_path)?;

    let t = Instant::now();
    let store: SharedSource = open_store(&g, backend)?;
    let open = t.elapsed();

    // With `--repeat n` every run shares one plan handle, as `ktpm serve` sessions of one
    // query do: the setup pipeline (candidate discovery, run-time
    // graph, bs pass, slot templates — or, for kgpm, the pattern
    // decomposition) is paid by run 1; runs 2..n are warm. Run 1's
    // clock starts before the plan is built, so it counts it.
    let exec = Executor::new(g.interner().clone(), Arc::clone(&store));
    let run_one = Instant::now();
    let plan = exec.plan_for(&query_text, algo)?;
    let mut matches: Vec<ScoredMatch> = Vec::new();
    let mut dt = Duration::ZERO;
    // The last run's split for `--iostats`: stream built, first match out.
    let (mut built, mut first) = (dt, dt);
    for run in 1..=repeat {
        let t = if run == 1 { run_one } else { Instant::now() };
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
    if p.has(&IOSTATS) {
        let io = exec
            .source()
            .io()
            .fields()
            .map(|(name, n)| format!("{name}={n}"));
        println!("# iostats: {}", io.join(" "));
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
    let p = parse(&SERVE, args)?;
    let addr: String = p.value(&ADDR)?.unwrap_or("127.0.0.1:7878".into());
    let warm_path: Option<String> = p.value(&WARM)?;
    let (mut config, mut net_config) = (ServiceConfig::default(), NetConfig::default());
    let c = &mut config;
    c.workers = p.value(&WORKERS)?.unwrap_or(c.workers);
    c.parallel.shards = p.value(&PARALLEL)?.unwrap_or(c.parallel.shards);
    c.session_ttl = p.value(&TTL)?.map_or(c.session_ttl, Duration::from_secs);
    c.sweep_interval = p
        .value(&SWEEP_INTERVAL_MS)?
        .map_or(c.sweep_interval, Duration::from_millis);
    if let Some(secs) = p.value(&IDLE_TIMEOUT)? {
        c.idle_timeout = (secs > 0).then(|| Duration::from_secs(secs));
    }
    c.plan_cache_capacity = p.value(&PLAN_CACHE)?.unwrap_or(c.plan_cache_capacity);
    // 0 means "off" here exactly as in STATS (plan_cache_bytes_limit=0):
    // Some(0) would instead evict every plan but the one in use.
    if let Some(bytes) = p.value(&PLAN_CACHE_BYTES)? {
        c.plan_cache_max_bytes = (bytes > 0).then_some(bytes);
    }
    let n = &mut net_config;
    n.workers = p.value(&NET_WORKERS)?.unwrap_or(n.workers);
    n.max_pipeline = p.value(&PIPELINE)?.unwrap_or(n.max_pipeline);
    n.max_write_buffer = p.value(&WRITE_BUF)?.unwrap_or(n.max_write_buffer);
    let event_loop = [&EVENT_LOOP, &NET_WORKERS, &PIPELINE, &WRITE_BUF]
        .iter()
        .any(|o| p.has(o));
    let backend = backend(&p)?;
    let [graph_path] = p.operands()?;
    let addrs = socket_addrs(&ADDR, &addr)?;
    let g = load_graph(graph_path)?;
    let t = Instant::now();
    // Unlike `query`, the default in-memory store here is a LiveStore:
    // same closure computation, but the UPDATE verb works. Persisted
    // and on-demand stores stay snapshots (UPDATE answers
    // ERR update-unsupported).
    let source = match backend {
        Backend::Memory => LiveStore::new(g.clone()).into_shared(),
        backend => open_store(&g, backend)?,
    };
    let workers = config.workers;
    let handle = QueryEngine::new(g.interner().clone(), source, config);
    // Plan warm-up happens BEFORE the listener binds: the first client
    // request of a warmed query is a plan hit with zero discovery work.
    if let Some(path) = warm_path {
        let list = std::fs::read_to_string(&path)?;
        let t = Instant::now();
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
    let named = |e| bind_error(&ADDR, &addr, e);
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
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn cmd_blockd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = parse(&BLOCKD, args)?;
    let listen: String = p.value(&LISTEN)?.unwrap_or("127.0.0.1:7979".into());
    let store: String = p.value(&BLOCKD_STORE)?.ok_or_else(|| p.usage())?;
    p.operands::<0>()?;
    let addrs = socket_addrs(&LISTEN, &listen)?;
    let server =
        BlockServer::spawn(std::path::Path::new(&store), &addrs[..]).map_err(|e| match e {
            StorageError::Io(e) => bind_error(&LISTEN, &listen, e),
            e => e.into(),
        })?;
    println!("blockd serving {} on {}", store, server.local_addr());
    println!(
        "point query-side stores at --store tcp://{}",
        server.local_addr()
    );
    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `ktpm store verify`. What the path names is resolved by the same
/// `open_local_store` that `--store` goes through, so the error for a
/// file this tool cannot read is the reader's own.
fn cmd_store(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let p = match args {
        [sub, rest @ ..] if sub == "verify" => parse(&STORE_VERIFY, rest)?,
        [sub, _] => {
            return Err(format!("unknown store subcommand {sub:?} (expected verify)").into())
        }
        _ => return Err(usage(&[&STORE_VERIFY], false).into()),
    };
    let [store_arg] = p.operands()?;
    let named = |e: StorageError| format!("{store_arg}: {e}");
    let t = Instant::now();
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
