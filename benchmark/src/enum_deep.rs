//! `enum-deep`: deep enumeration off warm plans over the in-memory
//! store. Nearly all of a session is `core`'s pop → divide → emit and
//! the canonical-order wrapper; there is no file or network I/O and the
//! serving layers do nothing.

use crate::dataset::Dataset;
use crate::harness::{Checksum, Ctx, Rng, Round, SessionSample, Workload};

use crate::stats;
use crate::trace::Tracer;
use ktpm::core::{build_stream, Algo, MatchStream, ParallelPolicy, QueryPlan, ScoredMatch};
use ktpm::exec::WorkerPool;
use ktpm::query::TreeQuery;
use ktpm::storage::SharedSource;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Matches per session, pulled as one first match plus pages of `PAGE`.
pub const K: usize = 20_000;
pub const PAGE: usize = 1_000;
/// Wildcard stars; every round runs each of them once per entry of
/// [`ENGINES`].
pub const STARS: usize = 20;
/// `topk` twice and `topk-en` once per star. The two engines' timings
/// form two modes (`ttf` ≈ 0.3 ms against ≈ 3.5 ms); with an even mix
/// the round's p50 is the slowest `topk` session — the edge of a mode,
/// which jumped between runs. Two to one puts the p50 inside the `topk`
/// mode and the p90 inside the `topk-en` mode.
pub const ENGINES: [Algo; 3] = [Algo::Topk, Algo::Topk, Algo::TopkEn];

pub struct EnumDeep {
    mem: SharedSource,
    plans: Vec<Arc<QueryPlan>>,
    oracle: Vec<Checksum>,
    sessions: Vec<(usize, Algo)>,
    policy: ParallelPolicy,
    pool: Arc<WorkerPool>,
}

/// `L -> *#1; L -> *#2`: two wildcard children multiply the branching
/// under every root candidate, so the stream is long while the run-time
/// graph stays linear in the root label's tables.
pub fn star_text(label: &str) -> String {
    format!("{label} -> *#1\n{label} -> *#2")
}

/// One wildcard star with a stream of at least `k` matches.
pub struct Star {
    /// The query in `TreeQuery::parse`'s text format.
    pub text: String,
    /// Its plan over the in-memory store, full half warm.
    pub plan: Arc<QueryPlan>,
    /// Checksum of the first `k` matches (`Algo::Topk`).
    pub oracle: Checksum,
}

/// The stars over the first `count` labels (interner order) whose
/// stream has at least `k` matches.
pub fn stars(ds: &Dataset, k: usize, count: usize) -> Result<Vec<Star>, String> {
    let policy = ParallelPolicy::with_shards(1);
    let pool = Arc::new(WorkerPool::new(1));
    let mut stars = Vec::new();
    for (_, label) in ds.graph.interner().iter() {
        let text = star_text(label);
        let q = TreeQuery::parse(&text)
            .map_err(|e| format!("star over {label}: {e}"))?
            .resolve(ds.graph.interner());
        let plan = Arc::new(QueryPlan::new(q, Arc::clone(&ds.mem)));
        let mut want: Vec<ScoredMatch> = Vec::with_capacity(k);
        build_stream(Algo::Topk, &plan, &policy, Arc::clone(&pool)).next_batch(k, &mut want);
        if want.len() == k {
            stars.push(Star {
                text,
                plan,
                oracle: Checksum::of(&want),
            });
            if stars.len() == count {
                return Ok(stars);
            }
        }
    }
    Err(format!(
        "only {} labels have a star stream of {k} matches",
        stars.len()
    ))
}

fn span_names(algo: Algo) -> (&'static str, &'static str) {
    match algo {
        Algo::TopkEn => ("core.stream_build.topk-en", "core.first_match.topk-en"),
        _ => ("core.stream_build.topk", "core.first_match.topk"),
    }
}

impl EnumDeep {
    /// Picks the first `stars` labels whose star streams at least
    /// [`K`] matches, keeps each stream's oracle checksum and leaves
    /// both halves of every plan warm. The workload runs [`STARS`].
    pub fn setup(ds: &Dataset, seed: u64, stars: usize) -> Result<EnumDeep, String> {
        let policy = ParallelPolicy::with_shards(1);
        let pool = Arc::new(WorkerPool::new(1));
        let (mut plans, mut oracle) = (Vec::new(), Vec::new());
        for star in self::stars(ds, K, stars)? {
            // The lazy half, so a `topk-en` session starts warm too.
            let _ = build_stream(Algo::TopkEn, &star.plan, &policy, Arc::clone(&pool)).next();
            plans.push(star.plan);
            oracle.push(star.oracle);
        }

        let mut sessions: Vec<(usize, Algo)> =
            (0..stars).flat_map(|i| ENGINES.map(|a| (i, a))).collect();
        Rng::new(seed ^ 0xE0_DEE9).shuffle(&mut sessions);
        Ok(EnumDeep {
            mem: Arc::clone(&ds.mem),
            plans,
            oracle,
            sessions,
            policy,
            pool,
        })
    }

    /// The first page of the first star's stream (the `render_next`
    /// probe's input).
    pub fn first_page(&self) -> Vec<ScoredMatch> {
        let mut page = Vec::with_capacity(PAGE);
        build_stream(
            Algo::Topk,
            &self.plans[0],
            &self.policy,
            Arc::clone(&self.pool),
        )
        .next_batch(PAGE, &mut page);
        page
    }

    fn session(&self, star: usize, algo: Algo, tr: &mut Tracer) -> SessionSample {
        let (build_span, first_span) = span_names(algo);
        let plan = &self.plans[star];
        let t0 = Instant::now();
        let mut stream = tr.span(build_span, |_| {
            build_stream(algo, plan, &self.policy, Arc::clone(&self.pool))
        });
        let mut out: Vec<ScoredMatch> = Vec::with_capacity(K);
        let first = tr.span(first_span, |_| MatchStream::next(&mut *stream));
        let ttf_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.extend(first);
        while out.len() < K {
            let want = (PAGE - out.len() % PAGE).min(K - out.len());
            let state = tr.span("core.next_batch", |_| stream.next_batch(want, &mut out));
            if state.is_done() {
                break;
            }
        }
        let ttk_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = out.len() == K && Checksum::of(&out) == self.oracle[star];
        SessionSample { ttf_ms, ttk_ms, ok }
    }
}

impl Workload for EnumDeep {
    fn k(&self) -> usize {
        K
    }

    fn sessions_per_round(&self) -> usize {
        self.sessions.len()
    }

    fn at_reference_speed(&self) -> bool {
        true
    }

    fn round(&mut self, cx: &mut Ctx) -> Round {
        let io0 = self.mem.io();
        let t0 = Instant::now();
        let sessions: Vec<SessionSample> = self
            .sessions
            .iter()
            .map(|&(star, algo)| {
                let sample = cx.tr.session(|tr| self.session(star, algo, tr));
                cx.after_session();
                sample
            })
            .collect();
        let wall_s = t0.elapsed().as_secs_f64();
        Round {
            matches: (sessions.iter().filter(|s| s.ok).count() * K) as u64,
            sessions,
            wall_s,
            io: self.mem.io().since(&io0),
            slowdown: 0.0,
        }
    }

    fn layer_metrics(
        &self,
        tr: &Tracer,
        _plain: &[Round],
        traced: &[Round],
        _probes: &BTreeMap<&'static str, f64>,
    ) -> Vec<(&'static str, f64)> {
        let delays: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.sessions.iter())
            .filter(|s| s.ok)
            .map(|s| (s.ttk_ms - s.ttf_ms) * 1e6 / (K - 1) as f64)
            .collect();
        let paged = (traced.iter().map(|r| r.matches).sum::<u64>() as f64).max(1.0);
        vec![
            ("core.delay_ns_per_match", stats::median(&delays)),
            (
                "core.allocs_per_match",
                tr.count_sum("core.next_batch", "allocs") as f64 / paged,
            ),
        ]
    }

    fn shutdown(self: Box<Self>) {}
}
