//! The repo's benchmark: time-to-first, time-to-k-th and throughput end
//! to end on four workloads, and — in a separate traced run — one
//! number per layer a match crosses, measured from outside by timing
//! calls into the layers' public functions. See `README.md`.

mod aa;
mod alloc;
mod cold;
mod dataset;
mod enum_deep;
mod harness;
mod layers;
mod metrics;
mod speedref;

mod stats;
mod trace;
mod wire;

use alloc::{AllocSnapshot, GLOBAL};
use dataset::Dataset;
use harness::{Ctx, Round, RoundStats, Workload};
use speedref::SpeedRef;
use stats::RoundSummary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Where the store and the trace files go, relative to the repo root
/// (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";
/// Rounds a measured phase has at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 8;
/// Traced and untraced rounds the traced run alternates at least.
const MIN_TRACED_ROUNDS: usize = 3;
const SMOKE_ROUNDS: usize = 2;
/// Timed repetitions of dataset preparation (`setup_s` takes the median).
const PREP_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Also write `workload<TAB>metric<TAB>value<TAB>unit` lines here.
    tsv: Option<PathBuf>,
    /// `--aa-compare f1 f2 …`: compare `--tsv` files by run parity.
    aa_compare: Option<Vec<PathBuf>>,
}

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--aa]
  workloads: enum-deep | open-cold | remote-cold | wire-mixed (default: all four)";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 22.0,
        trace: false,
        smoke: false,
        tsv: None,
        aa_compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !metrics::WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload {w:?}\n{USAGE}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--tsv" => a.tsv = Some(PathBuf::from(value("a file")?)),
            "--aa-compare" => a.aa_compare = Some(it.by_ref().map(PathBuf::from).collect()),
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

/// One reported figure.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Shown beside the value in the human-readable listing only.
    note: String,
}

/// What one workload's run produced.
struct Outcome {
    workload: &'static str,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Further lines for the human-readable listing (the span table).
    extra: Vec<String>,
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinity; a phase whose median session failed
        // reports the largest finite value instead.
        format!("{}", f64::MAX)
    }
}

impl Outcome {
    fn json(&self, with_workload: bool) -> String {
        let mut s = String::from("{");
        if with_workload {
            let _ = write!(s, "\"workload\": \"{}\", ", self.workload);
        }
        let _ = write!(
            s,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    fn print_human(&self) {
        for m in &self.metrics {
            println!(
                "{:<12} {:<40} {:>16} {:<6} {}",
                self.workload,
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.note
            );
        }
        for line in &self.extra {
            println!("{:<12} {line}", self.workload);
        }
        println!(
            "{:<12} ops_attempted {}  ops_failed {}",
            self.workload, self.attempted, self.failed
        );
    }

    fn tsv(&self) -> String {
        self.metrics.iter().fold(String::new(), |mut s, m| {
            let _ = writeln!(
                s,
                "{}\t{}\t{}\t{}",
                self.workload,
                m.name,
                fmt_value(m.value),
                m.unit
            );
            s
        })
    }
}

fn setup_workload(name: &str, ds: &Dataset, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "enum-deep" => Box::new(enum_deep::EnumDeep::setup(ds, seed, enum_deep::STARS)?),
        "open-cold" => Box::new(cold::Cold::setup(ds, seed, false)?),
        "remote-cold" => Box::new(cold::Cold::setup(ds, seed, true)?),
        "wire-mixed" => Box::new(wire::WireMixed::setup(ds, seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn note(s: &RoundSummary) -> String {
    format!(
        "median of {} rounds (min {:.4} q1 {:.4} q3 {:.4} max {:.4})",
        s.rounds, s.min, s.q1, s.q3, s.max
    )
}

/// Cumulative `(steal, total)` jiffies from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// `some avg10` of `/proc/pressure/cpu`, in percent.
fn cpu_pressure_some() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/pressure/cpu").ok()?;
    let line = text.lines().find(|l| l.starts_with("some"))?;
    line.split_whitespace()
        .find_map(|f| f.strip_prefix("avg10="))?
        .parse()
        .ok()
}

/// One workload's rounds and what was read off the machine around them.
struct Phase {
    /// Preparation median + everything single-shot up to the first
    /// timed session.
    setup_s: f64,
    warm_up: Option<Round>,
    /// Untraced rounds: the end-to-end figures come from these alone.
    plain: Vec<Round>,
    traced: Vec<Round>,
    phase_s: f64,
    heap: (AllocSnapshot, AllocSnapshot),
    /// Share of the phase's CPU time the hypervisor took (`/proc/stat`).
    steal_share: f64,
}

impl Phase {
    fn rounds(&self) -> impl Iterator<Item = &Round> {
        self.plain.iter().chain(&self.traced)
    }

    fn summarise(rounds: &[Round], f: fn(&RoundStats) -> f64) -> RoundSummary {
        stats::median_of_rounds(&rounds.iter().map(|r| f(&r.stats())).collect::<Vec<_>>())
    }
}

/// Sets the workload up, runs the discarded warm-up round and then the
/// measured phase: rounds of the identical session list until `seconds`
/// have passed (at least `min_rounds`). A traced run alternates
/// untraced and traced rounds, so the two sets see the same machine.
fn measure(
    w: &mut dyn Workload,
    cx: &mut Ctx,
    ds: &Dataset,
    args: &Args,
    t_setup: Instant,
    seconds: f64,
) -> Phase {
    // Runs one round and stamps it with what the speed reference saw.
    let run_round = |w: &mut dyn Workload, cx: &mut Ctx| {
        let mut round = w.round(cx);
        round.slowdown = cx.speed.as_mut().map_or(0.0, SpeedRef::take_slowdown);
        round
    };
    // The smoke run goes without a warm-up: it is not comparable
    // anyway and has 20 s for all four workloads.
    let warm_up = (!args.smoke).then(|| run_round(w, cx));
    w.warmed_up();

    let setup_s = ds.prep_s + t_setup.elapsed().as_secs_f64();
    let min_rounds = match (args.smoke, args.trace) {
        (true, _) => SMOKE_ROUNDS,
        (false, false) => MIN_ROUNDS,
        (false, true) => 2 * MIN_TRACED_ROUNDS,
    };
    GLOBAL.reset_peak();
    let heap0 = GLOBAL.snapshot();
    let cpu0 = cpu_jiffies();
    let t_phase = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() + traced.len() < min_rounds || t_phase.elapsed().as_secs_f64() < seconds {
        let tracing = args.trace && (plain.len() + traced.len()) % 2 == 1;
        cx.tr.set_enabled(tracing);
        let round = run_round(w, cx);
        if tracing {
            traced.push(round);
        } else {
            plain.push(round);
        }
    }
    cx.tr.set_enabled(false);
    Phase {
        setup_s,
        warm_up,
        plain,
        traced,
        phase_s: t_phase.elapsed().as_secs_f64(),
        heap: (heap0, GLOBAL.snapshot()),
        steal_share: match (cpu0, cpu_jiffies()) {
            (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
                (steal1 - steal0) as f64 / (total1 - total0) as f64
            }
            _ => 0.0,
        },
    }
}

/// The seven end-to-end metrics, from the untraced rounds.
fn end_to_end(p: &Phase, w: &dyn Workload, cx: &Ctx, ds: &Dataset) -> Vec<Metric> {
    let sessions = p.plain.len() * w.sessions_per_round();
    let ttf_p50 = Phase::summarise(&p.plain, |s| s.ttf_ms_p50);
    let ttk_p50 = Phase::summarise(&p.plain, |s| s.ttk_ms_p50);
    let ttk_p90 = Phase::summarise(&p.plain, |s| s.ttk_ms_p90);
    let rate = Phase::summarise(&p.plain, |s| s.matches_per_s);
    let p90_note = if stats::supported(90.0, sessions) {
        note(&ttk_p90)
    } else {
        format!("{} (fewer than 10 samples beyond it)", note(&ttk_p90))
    };
    let allocs = p.heap.1.allocs - p.heap.0.allocs;
    // The speed reference's table is the benchmark's, not the program's.
    let peak = p.heap.1.peak - cx.speed.as_ref().map_or(0, SpeedRef::bytes);
    let values = [
        (
            p.setup_s,
            format!(
                "median of {} preparations {:.3} (generate {:.3} closure {:.3} write {:.3}) + rest {:.3}",
                ds.prep_reps,
                ds.prep_s,
                ds.generate_s,
                ds.closure_compute_s,
                ds.write_store_s,
                p.setup_s - ds.prep_s
            ),
        ),
        (ttf_p50.median, note(&ttf_p50)),
        (ttk_p50.median, format!("k={} {}", w.k(), note(&ttk_p50))),
        (ttk_p90.median, p90_note),
        (rate.median, note(&rate)),
        (
            peak as f64 / 1e6,
            format!("measured phase {:.2} s, {sessions} sessions", p.phase_s),
        ),
        (
            allocs as f64 / sessions as f64,
            format!("{allocs} allocations"),
        ),
    ];
    // In the order of `metrics::END_TO_END`.
    metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, note))| Metric {
            name: m.name,
            value,
            unit: m.unit,
            note,
        })
        .collect()
}

/// The per-layer metrics of a traced run: the probes' figures, then
/// what the traced rounds' counters and spans add, then the
/// environment.
fn per_layer(
    p: &Phase,
    w: &dyn Workload,
    cx: &Ctx,
    probes: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    let mut layer = probes.clone();
    // Store I/O per session, from the traced rounds' own counters.
    let sessions = ((p.traced.len() * w.sessions_per_round()) as f64).max(1.0);
    let mut io = ktpm::storage::IoSnapshot::default();
    p.traced
        .iter()
        .for_each(|r| harness::add_io(&mut io, &r.io));
    let lookups = io.cache_hits + io.cache_misses;

    layer.extend([
        (
            "storage.block_reads_per_session",
            io.block_reads as f64 / sessions,
        ),
        (
            "storage.kb_read_per_session",
            io.bytes_read as f64 / 1e3 / sessions,
        ),
        (
            "storage.cache_hit_share",
            stats::share(io.cache_hits, lookups),
        ),
        (
            "storage.cache_evictions_per_session",
            io.cache_evictions as f64 / sessions,
        ),
        (
            "storage.remote_fetches_per_session",
            io.remote_fetches as f64 / sessions,
        ),
        (
            "storage.remote_kb_per_session",
            io.remote_bytes as f64 / 1e3 / sessions,
        ),
        ("storage.remote_retries", io.remote_retries as f64),
        ("storage.remote_errors", io.remote_errors as f64),
        (
            "core.edges_loaded_per_session",
            io.edges_read as f64 / sessions,
        ),
    ]);
    layer.extend(w.layer_metrics(&cx.tr, &p.plain, &p.traced, &layer));
    // Whether this set of runs was taken on a quiet machine.
    let per_round_ttk: Vec<f64> = p.rounds().map(|r| r.stats().ttk_ms_p50).collect();
    let slowdowns: Vec<f64> = p.rounds().map(|r| r.slowdown).collect();
    layer.extend([
        (
            "env.nproc",
            std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
        ),
        ("env.steal_share", p.steal_share),
        ("env.cpu_pressure_some", cpu_pressure_some().unwrap_or(0.0)),
        ("env.ref_slowdown", stats::median(&slowdowns)),
        ("env.round_spread", stats::rel_spread(&per_round_ttk)),
        (
            "trace.overhead_share",
            stats::rel_diff(
                Phase::summarise(&p.plain, |s| s.ttk_ms_p50).median,
                Phase::summarise(&p.traced, |s| s.ttk_ms_p50).median,
            ),
        ),
    ]);

    metrics::PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: layer.get(m.name).copied().unwrap_or(0.0),
            unit: m.unit,
            note: String::new(),
        })
        .collect()
}

/// Runs one workload. `probes` holds the per-layer probe figures of a
/// traced run (empty otherwise) and `probes_s` this workload's share of
/// the time they took, which comes out of its `--seconds`.
fn run_workload(
    name: &'static str,
    ds: &Dataset,
    args: &Args,
    probes: &BTreeMap<&'static str, f64>,
    probes_s: f64,
) -> Result<Outcome, String> {
    let t_setup = Instant::now();
    let mut w = setup_workload(name, ds, args.seed)?;
    let mut cx = Ctx {
        tr: Tracer::new(),
        speed: w.at_reference_speed().then(SpeedRef::new),
    };
    let seconds = if args.smoke {
        0.0
    } else {
        args.seconds - probes_s
    };
    let p = measure(w.as_mut(), &mut cx, ds, args, t_setup, seconds);

    let per_round = w.sessions_per_round();
    let counted = || p.rounds().chain(&p.warm_up);
    let mut out = Outcome {
        workload: name,
        attempted: counted().count() * per_round,
        failed: counted().map(Round::failed).sum(),
        metrics: Vec::new(),
        extra: Vec::new(),
    };
    out.extra.push(if cx.speed.is_some() {
        let slowdown =
            stats::median_of_rounds(&p.rounds().map(|r| r.slowdown).collect::<Vec<_>>());
        let raw: Vec<f64> = p.plain.iter().map(|r| r.raw_stats().ttk_ms_p50).collect();
        format!(
            "timings at reference speed: the speed reference ran at {:.3}x its nominal time (min {:.3} max {:.3}); raw ttk_ms_p50 {:.4}",
            slowdown.median,
            slowdown.min,
            slowdown.max,
            stats::median(&raw)
        )
    } else {
        "timings raw (this workload does not follow the speed reference)".to_string()
    });
    if args.trace {
        out.metrics = per_layer(&p, w.as_ref(), &cx, probes);
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        std::fs::write(&path, cx.tr.to_json(name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.extra.push(format!(
            "probes {probes_s:.2} s (this workload's share), then {} plain and {} traced rounds in {:.2} s",
            p.plain.len(),
            p.traced.len(),
            p.phase_s
        ));
        out.extra.extend(self_times(&cx.tr, &p.traced, w.k()));
    } else {
        out.metrics = end_to_end(&p, w.as_ref(), &cx, ds);
    }
    w.shutdown();
    Ok(out)
}

/// The traced rounds' spans as a table: calls, total and self time, and
/// each name's share of the sessions' summed time-to-k-th.
fn self_times(tr: &Tracer, traced: &[Round], k: usize) -> Vec<String> {
    let ttk_ns: f64 = traced
        .iter()
        .flat_map(|r| r.sessions.iter())
        .filter(|s| s.ok)
        .map(|s| s.ttk_ms * 1e6)
        .sum();
    let mut lines = vec![format!(
        "spans of the traced rounds (k={k}); share = total ÷ summed ttk"
    )];
    for (name, (calls, total, own)) in tr.self_times() {
        lines.push(format!(
            "  {name:<28} calls {calls:>7}  total {:>10.3} ms  self {:>10.3} ms  share {:>6.3}",
            total as f64 / 1e6,
            own as f64 / 1e6,
            total as f64 / ttk_ns.max(1.0)
        ));
    }
    lines
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(files) = &args.aa_compare {
        return aa::compare(files);
    }
    let names: Vec<&'static str> = metrics::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    // Everything this process writes lives under one directory of its
    // own, removed again below.
    let data_dir = Path::new(OUT_DIR).join(format!("data-{}", std::process::id()));
    let reps = if args.smoke { 1 } else { PREP_REPS };
    let ds = dataset::prepare(&data_dir, reps).map_err(|e| format!("dataset: {e}"))?;
    println!(
        "# seed {} graph power_law({}, {:#x}) closure {} edges store {:.1} MB{}{}",
        args.seed,
        dataset::GRAPH_NODES,
        ds.spec.seed,
        ds.closure_edges,
        ds.store_bytes as f64 / 1e6,
        if args.trace { " TRACED" } else { "" },
        if args.smoke {
            " SMOKE: not comparable with full runs"
        } else {
            ""
        },
    );
    let outcomes = (|| {
        // The probes do not depend on the workload: once per process.
        let t_probes = Instant::now();
        let probes = if args.trace {
            layers::probe(&ds, args.seed, args.smoke)?
        } else {
            BTreeMap::new()
        };
        let probes_s = t_probes.elapsed().as_secs_f64() / names.len() as f64;
        names
            .iter()
            .map(|name| {
                run_workload(name, &ds, args, &probes, probes_s).map_err(|e| format!("{name}: {e}"))
            })
            .collect::<Result<Vec<Outcome>, String>>()
    })();
    drop(ds);
    let _ = std::fs::remove_dir_all(&data_dir);
    let outcomes = outcomes?;
    for o in &outcomes {
        o.print_human();
    }
    if let Some(path) = &args.tsv {
        let text: String = outcomes.iter().map(Outcome::tsv).collect();
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The result line(s) come last: one JSON object per workload.
    for o in &outcomes {
        println!("{}", o.json(args.workload.is_none()));
    }
    Ok(outcomes.iter().all(|o| o.failed == 0))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is printed and says `"correct": false`.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(3)
        }
    }
}
