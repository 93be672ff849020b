//! What the four workloads share: the seed-derived random source, the
//! oracle checksum, per-session and per-round samples, and the
//! [`Workload`] interface the measurement loop in `main` drives.

use crate::speedref::SpeedRef;
use crate::stats;
use crate::trace::Tracer;

use ktpm::core::ScoredMatch;
use ktpm::storage::IoSnapshot;
use std::collections::BTreeMap;

/// SplitMix64: the benchmark's own deterministic random source (graph,
/// query and session order all derive from `--seed` through it).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Order-sensitive FNV-1a checksum over `(score, assignment)` — what
/// the oracle keeps per query and every delivered stream must repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(u64);

impl Checksum {
    pub fn new() -> Self {
        Checksum(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one match in: its score, its width, then its nodes.
    pub fn add(&mut self, score: u64, nodes: impl ExactSizeIterator<Item = u32>) {
        self.word(score);
        self.word(nodes.len() as u64);
        for n in nodes {
            self.word(u64::from(n));
        }
    }

    pub fn add_match(&mut self, m: &ScoredMatch) {
        self.add(m.score, m.assignment.iter().map(|v| v.0));
    }

    pub fn of(matches: &[ScoredMatch]) -> Checksum {
        let mut c = Checksum::new();
        for m in matches {
            c.add_match(m);
        }
        c
    }
}

/// One timed session. A failed session (error reply, short stream,
/// shed, checksum mismatch) keeps `ok == false` and counts as missing
/// every latency: its timings enter the percentiles as `INFINITY`.
#[derive(Debug, Clone, Copy)]
pub struct SessionSample {
    pub ttf_ms: f64,
    pub ttk_ms: f64,
    pub ok: bool,
}

impl SessionSample {
    pub fn failed() -> Self {
        SessionSample {
            ttf_ms: f64::INFINITY,
            ttk_ms: f64::INFINITY,
            ok: false,
        }
    }
}

/// What a round runs with: the tracer, and — on the workloads that
/// report at reference speed — the speed reference, sampled after every
/// session so that it sees the machine the sessions saw.
pub struct Ctx {
    pub tr: Tracer,
    pub speed: Option<SpeedRef>,
}

impl Ctx {
    pub fn after_session(&mut self) {
        if let Some(speed) = &mut self.speed {
            speed.sample();
        }
    }
}

/// One round: the identical, seed-determined session list run once.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub sessions: Vec<SessionSample>,
    /// Matches delivered to the client in the round (all connections).
    pub matches: u64,
    pub wall_s: f64,
    /// Store I/O the round's sessions caused.
    pub io: IoSnapshot,
    /// How much slower than nominal the speed reference ran during the
    /// round (1.0 = nominal); 0 on workloads that report raw time.
    pub slowdown: f64,
}

/// The per-round end-to-end figures.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    pub ttf_ms_p50: f64,
    pub ttk_ms_p50: f64,
    pub ttk_ms_p90: f64,
    pub matches_per_s: f64,
}

impl Round {
    /// The round's figures — at reference speed when the round carries
    /// a speed-reference reading.
    pub fn stats(&self) -> RoundStats {
        let raw = self.raw_stats();
        if self.slowdown <= 0.0 {
            return raw;
        }
        RoundStats {
            ttf_ms_p50: raw.ttf_ms_p50 / self.slowdown,
            ttk_ms_p50: raw.ttk_ms_p50 / self.slowdown,
            ttk_ms_p90: raw.ttk_ms_p90 / self.slowdown,
            matches_per_s: raw.matches_per_s * self.slowdown,
        }
    }

    /// The round's figures as the clock read them.
    pub fn raw_stats(&self) -> RoundStats {
        let mut ttf: Vec<f64> = self
            .sessions
            .iter()
            .map(|s| if s.ok { s.ttf_ms } else { f64::INFINITY })
            .collect();
        let mut ttk: Vec<f64> = self
            .sessions
            .iter()
            .map(|s| if s.ok { s.ttk_ms } else { f64::INFINITY })
            .collect();
        stats::sort(&mut ttf);
        stats::sort(&mut ttk);
        RoundStats {
            ttf_ms_p50: stats::percentile(&ttf, 50.0),
            ttk_ms_p50: stats::percentile(&ttk, 50.0),
            ttk_ms_p90: stats::percentile(&ttk, 90.0),
            matches_per_s: self.matches as f64 / self.wall_s.max(1e-9),
        }
    }

    pub fn failed(&self) -> usize {
        self.sessions.iter().filter(|s| !s.ok).count()
    }
}

/// Adds `b`'s counters onto `a` (per-session stores report their own
/// snapshot; a round sums them).
pub fn add_io(a: &mut IoSnapshot, b: &IoSnapshot) {
    a.block_reads += b.block_reads;
    a.bytes_read += b.bytes_read;
    a.edges_read += b.edges_read;
    a.d_entries += b.d_entries;
    a.e_entries += b.e_entries;
    a.cache_hits += b.cache_hits;
    a.cache_misses += b.cache_misses;
    a.cache_evictions += b.cache_evictions;
    a.files_opened += b.files_opened;
    a.remote_fetches += b.remote_fetches;
    a.remote_bytes += b.remote_bytes;
    a.remote_retries += b.remote_retries;
    a.remote_errors += b.remote_errors;
}

/// A workload, set up and ready: `round` runs the session list once.
pub trait Workload {
    /// Matches a session must deliver (the `k` of `ttk`).
    fn k(&self) -> usize;
    /// Timed sessions in one round.
    fn sessions_per_round(&self) -> usize;
    /// Whether the workload runs entirely on the client thread, so that
    /// its timings follow the speed reference and are reported at
    /// reference speed (`speedref`); otherwise they are raw.
    fn at_reference_speed(&self) -> bool;
    /// Called once between the warm-up round and the measured phase.
    fn warmed_up(&mut self) {}
    /// Runs the session list once, cutting spans when `cx.tr` is
    /// enabled and calling `cx.after_session()` after every session.
    fn round(&mut self, cx: &mut Ctx) -> Round;
    /// Workload-specific per-layer figures (`name`, value) from the
    /// traced run's spans and rounds; `probes` holds what `layers`
    /// measured on its own. Merged over both by `main`. Default: none
    /// beyond the I/O counters every round carries.
    fn layer_metrics(
        &self,
        _tr: &Tracer,
        _plain: &[Round],
        _traced: &[Round],
        _probes: &BTreeMap<&'static str, f64>,
    ) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Stops servers and joins their threads.
    fn shutdown(self: Box<Self>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_shuffle_permutes() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..40).collect();
        let mut w = v.clone();
        Rng::new(1).shuffle(&mut v);
        Rng::new(1).shuffle(&mut w);
        assert_eq!(v, w);
        assert_ne!(v, (0..40).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn checksum_depends_on_order_and_content() {
        let mut a = Checksum::new();
        a.add(3, [1u32, 2].into_iter());
        a.add(4, [5u32].into_iter());
        let mut b = Checksum::new();
        b.add(4, [5u32].into_iter());
        b.add(3, [1u32, 2].into_iter());
        assert_ne!(a, b);
        let mut c = Checksum::new();
        c.add(3, [1u32, 2].into_iter());
        c.add(4, [5u32].into_iter());
        assert_eq!(a, c);
        // Width is folded in: (3;1,2)(4;5) differs from (3;1)(2;4,5).
        let mut d = Checksum::new();
        d.add(3, [1u32].into_iter());
        d.add(2, [4u32, 5].into_iter());
        assert_ne!(a, d);
    }

    #[test]
    fn a_failed_session_misses_every_latency() {
        let mut r = Round {
            wall_s: 1.0,
            matches: 30,
            ..Round::default()
        };
        for i in 0..19 {
            r.sessions.push(SessionSample {
                ttf_ms: 1.0 + f64::from(i),
                ttk_ms: 10.0 + f64::from(i),
                ok: true,
            });
        }
        r.sessions.push(SessionSample::failed());
        let s = r.stats();
        assert_eq!(s.ttf_ms_p50, 10.0);
        assert_eq!(s.ttk_ms_p90, 27.0);
        assert_eq!(s.matches_per_s, 30.0);
        assert_eq!(r.failed(), 1);
        r.sessions.iter_mut().take(12).for_each(|s| s.ok = false);
        assert_eq!(r.stats().ttk_ms_p50, f64::INFINITY);
    }
}
