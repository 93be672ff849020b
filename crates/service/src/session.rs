//! Resumable enumeration sessions and the TTL-evicting session table.
//!
//! A [`Session`] is the server-side half of a client's cursor over one
//! query's match stream. It owns:
//!
//! * an `Arc` to the query's shared [`QueryPlan`] (from the engine's
//!   plan cache) and, once the client outruns the result cache, a live
//!   [`ktpm_core::MatchStream`] built *from* that plan by the engine's
//!   [`Executor`] (the single [`ktpm_core::build_stream`] dispatch, on
//!   the engine's shard pool and [`ParallelPolicy`]) — so a session of
//!   a hot query never repeats candidate discovery, run-time-graph
//!   construction or the `bs` pass, and the stream (`'static + Send`)
//!   can hop between worker threads between requests. Each `NEXT` is
//!   served by **one** batched `next_batch` pull, not a per-match
//!   virtual call;
//! * a `buffer` of every match produced so far for this query, and a
//!   client cursor `pos` into it. The buffer exists so a session opened
//!   on a cached prefix can serve from it immediately and only start
//!   the (lazily created) enumerator when the client outruns the
//!   cache — in which case the enumerator fast-forwards past the
//!   already-served prefix to stay aligned.
//!
//! [`SessionTable`] maps ids to sessions behind one mutex; each session
//! has its own lock, so concurrent requests to *different* sessions
//! only contend for the map lookup. Idle sessions are reclaimed by
//! [`SessionTable::sweep`].

use crate::cache::{CacheKey, CachedPrefix};
use ktpm_core::{Algo, BoxedMatchStream, Executor, ParallelPolicy, QueryPlan, ScoredMatch};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A client-visible session identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::str::FromStr for SessionId {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse().map(SessionId)
    }
}

/// One resumable enumeration cursor; see module docs.
pub struct Session {
    algo: Algo,
    /// Canonicalized query text (the session's cache-key half).
    canonical: String,
    /// The shared per-query setup plan; holding the `Arc` keeps the
    /// plan alive even if the engine's plan cache evicts it.
    plan: Arc<QueryPlan>,
    /// The parked live stream ([`Executor::build_stream`] — the one
    /// canonical algorithm dispatch), created on first demand the
    /// buffer cannot satisfy. Every algorithm streams the canonical
    /// `(score, assignment)` order, so `par` sessions, cached prefixes
    /// and resumed cursors mix freely.
    iter: Option<BoxedMatchStream>,
    /// All matches produced for this query so far (cached prefix +
    /// live); grows monotonically.
    buffer: Vec<ScoredMatch>,
    /// How many of `buffer` the client has consumed.
    pos: usize,
    /// Whether `buffer` is the entire match stream.
    complete: bool,
    /// Buffer length at the last cache publish (starts at the cached
    /// prefix length: what the cache gave us needs no republishing).
    published_len: usize,
    /// Set when a graph delta invalidated this session's plan: the
    /// store version the session fell behind at. A fenced session
    /// answers every further `next` with `stale-version` (its parked
    /// stream and buffer describe the pre-delta graph) and never
    /// publishes to the result cache again.
    fenced_at: Option<u64>,
    /// Set when the store degraded mid-read under this session (a
    /// swallowed storage failure recovered via
    /// `ClosureSource::take_error`): the stable error-code word plus
    /// detail text. A poisoned session answers every further `next`
    /// with that error (its buffer may silently miss matches) and
    /// never publishes to the result cache.
    failed: Option<(&'static str, String)>,
}

/// One batch of session progress, as reported to the engine.
pub(crate) struct Advance {
    pub matches: Vec<ScoredMatch>,
    pub exhausted: bool,
    /// The buffer grew (or completed): the engine should republish the
    /// prefix to the result cache.
    pub publish: Option<CachedPrefix>,
}

impl Session {
    /// A fresh session, optionally starting on a cached prefix.
    pub(crate) fn new(
        algo: Algo,
        canonical: String,
        plan: Arc<QueryPlan>,
        cached: Option<&CachedPrefix>,
    ) -> Self {
        let (buffer, complete) = match cached {
            Some(p) => (p.matches.as_ref().clone(), p.complete),
            None => (Vec::new(), false),
        };
        Session {
            algo,
            canonical,
            plan,
            iter: None,
            published_len: buffer.len(),
            buffer,
            pos: 0,
            complete,
            fenced_at: None,
            failed: None,
        }
    }

    /// The result-cache key this session reads and publishes.
    pub(crate) fn cache_key(&self) -> CacheKey {
        (self.algo.name(), self.canonical.clone())
    }

    /// The shared plan this session enumerates from (the invalidation
    /// walk checks its affectedness).
    pub(crate) fn plan(&self) -> &Arc<QueryPlan> {
        &self.plan
    }

    /// Fences the session at store version `version`: its plan was
    /// invalidated by a graph delta, so its stream can no longer be
    /// extended consistently. Fencing is sticky and idempotent (the
    /// first fencing version is kept — that is when the session's view
    /// diverged).
    pub(crate) fn fence(&mut self, version: u64) {
        self.fenced_at.get_or_insert(version);
    }

    /// The store version this session fell behind at, if fenced.
    pub(crate) fn fenced_at(&self) -> Option<u64> {
        self.fenced_at
    }

    /// Poisons the session after a storage failure surfaced under it.
    /// Sticky and idempotent like fencing — the first failure is kept
    /// (that is where the stream's completeness guarantee broke).
    pub(crate) fn poison(&mut self, code: &'static str, detail: String) {
        if self.failed.is_none() {
            self.failed = Some((code, detail));
        }
    }

    /// The storage failure this session was poisoned with, if any.
    pub(crate) fn failure(&self) -> Option<(&'static str, &str)> {
        self.failed.as_ref().map(|(c, d)| (*c, d.as_str()))
    }

    /// The graph version the session's plan was stamped against.
    pub(crate) fn plan_version(&self) -> u64 {
        self.plan.graph_version()
    }

    /// Produces the next `n` matches (fewer at stream end), advancing
    /// the cursor. Resuming is O(new work): earlier batches are never
    /// recomputed. The first live pull builds the stream through
    /// `exec` under the engine-wide shard `parallel` policy.
    pub(crate) fn advance(
        &mut self,
        n: usize,
        exec: &Executor,
        parallel: &ParallelPolicy,
    ) -> Advance {
        // `n == 0` is pinned by the wire protocol: report "0 more,
        // stream not finished" without touching (or even creating) the
        // enumerator — a zero-sized probe must never trigger setup.
        if n == 0 {
            return Advance {
                matches: Vec::new(),
                exhausted: false,
                publish: None,
            };
        }
        let want = self.pos.saturating_add(n);
        let was_complete = self.complete;
        if self.buffer.len() < want && !self.complete {
            let (algo, plan) = (self.algo, &self.plan);
            let prefix = self.buffer.len();
            let it = self.iter.get_or_insert_with(|| {
                // First live pull: fast-forward past the prefix the
                // buffer already covers so the streams stay aligned.
                // Skipped matches are discarded in bounded chunks —
                // a cached prefix can be arbitrarily long, and holding
                // it all in one throwaway Vec would spike memory.
                const SKIP_CHUNK: usize = 1024;
                let mut it = exec.build_stream(algo, plan, parallel);
                let mut skip = Vec::with_capacity(prefix.min(SKIP_CHUNK));
                let mut remaining = prefix;
                while remaining > 0 {
                    skip.clear();
                    if it
                        .next_batch(remaining.min(SKIP_CHUNK), &mut skip)
                        .is_done()
                    {
                        break;
                    }
                    remaining -= remaining.min(SKIP_CHUNK);
                }
                it
            });
            // One batched pull per request: `NEXT <s> n` is a single
            // `next_batch` call end to end (the loop re-enters only if
            // a stream under-fills a non-final batch, which the
            // `MatchStream` contract rules out).
            while self.buffer.len() < want && !self.complete {
                let need = want - self.buffer.len();
                let before = self.buffer.len();
                if it.next_batch(need, &mut self.buffer).is_done() {
                    self.complete = true;
                } else {
                    debug_assert_eq!(
                        self.buffer.len() - before,
                        need,
                        "MatchStream contract: More implies a full batch"
                    );
                }
            }
        }
        let end = want.min(self.buffer.len());
        let matches = self.buffer[self.pos..end].to_vec();
        self.pos = end;
        let exhausted = self.complete && self.pos == self.buffer.len();
        // Publish on completion, else only once the buffer has doubled
        // since the last publish: each publish deep-clones the whole
        // buffer, so publishing every batch would make paginated
        // streaming quadratic. Geometric spacing keeps the total copy
        // cost O(n); close/eviction publishes whatever is left.
        let publish_now = (self.complete && !was_complete)
            || (self.buffer.len() > self.published_len
                && self.buffer.len() >= self.published_len.max(1) * 2);
        if publish_now {
            self.published_len = self.buffer.len();
        }
        Advance {
            matches,
            exhausted,
            publish: publish_now.then(|| CachedPrefix {
                matches: Arc::new(self.buffer.clone()),
                complete: self.complete,
            }),
        }
    }

    /// The final prefix to publish when the session ends. `None` when
    /// the session produced nothing: an empty *incomplete* prefix
    /// carries no information, and caching it would turn later opens
    /// into spurious cache hits. (Empty + complete — a query with no
    /// matches at all — is real information and is kept.)
    pub(crate) fn final_prefix(&self) -> Option<CachedPrefix> {
        // A fenced session's buffer describes the pre-delta graph;
        // publishing it would resurrect exactly the entries the
        // invalidation pass just dropped. A poisoned session's buffer
        // may silently miss matches (the store degraded mid-read) —
        // caching it would serve a wrong prefix as truth.
        if self.fenced_at.is_some() || self.failed.is_some() {
            return None;
        }
        if self.buffer.is_empty() && !self.complete {
            return None;
        }
        Some(CachedPrefix {
            matches: Arc::new(self.buffer.clone()),
            complete: self.complete,
        })
    }
}

/// One table slot: the session plus its idle clock. Separate locks so
/// the TTL sweep never blocks behind a long-running query batch.
pub struct SessionSlot {
    /// The session, locked for the duration of each batch.
    pub(crate) session: Mutex<Session>,
    last_touch: Mutex<Instant>,
}

impl SessionSlot {
    fn new(session: Session) -> Self {
        SessionSlot {
            session: Mutex::new(session),
            last_touch: Mutex::new(Instant::now()),
        }
    }

    fn touch(&self) {
        *self.last_touch.lock().expect("touch lock") = Instant::now();
    }

    fn idle_for(&self) -> Duration {
        self.last_touch.lock().expect("touch lock").elapsed()
    }
}

/// The concurrent id → session map with TTL eviction.
#[derive(Default)]
pub struct SessionTable {
    slots: Mutex<HashMap<SessionId, Arc<SessionSlot>>>,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a session under `id` unless the table already holds
    /// `max` sessions, in which case the session is handed back. Check
    /// and insert happen under one lock, so concurrent opens cannot
    /// overshoot the cap.
    ///
    /// The `Err` payload *is* the rejected session (for the caller's
    /// retry after a sweep); boxing it would buy nothing on the
    /// overwhelmingly common `Ok` path.
    #[allow(clippy::result_large_err)]
    pub(crate) fn insert_capped(
        &self,
        id: SessionId,
        session: Session,
        max: usize,
    ) -> Result<(), Session> {
        let mut slots = self.slots.lock().expect("session table lock");
        if slots.len() >= max {
            return Err(session);
        }
        slots.insert(id, Arc::new(SessionSlot::new(session)));
        Ok(())
    }

    /// Fetches a session slot, refreshing its TTL clock.
    pub(crate) fn get(&self, id: SessionId) -> Option<Arc<SessionSlot>> {
        let slot = self
            .slots
            .lock()
            .expect("session table lock")
            .get(&id)
            .cloned();
        if let Some(s) = &slot {
            s.touch();
        }
        slot
    }

    /// Removes and returns a session slot.
    pub(crate) fn remove(&self, id: SessionId) -> Option<Arc<SessionSlot>> {
        self.slots.lock().expect("session table lock").remove(&id)
    }

    /// A snapshot of every live slot (the delta-invalidation walk;
    /// TTL clocks are not touched).
    pub(crate) fn all_slots(&self) -> Vec<Arc<SessionSlot>> {
        self.slots
            .lock()
            .expect("session table lock")
            .values()
            .cloned()
            .collect()
    }

    /// Evicts sessions idle longer than `ttl`, returning the evicted
    /// slots (the engine publishes their prefixes before dropping).
    pub(crate) fn sweep(&self, ttl: Duration) -> Vec<Arc<SessionSlot>> {
        let mut slots = self.slots.lock().expect("session table lock");
        let dead: Vec<SessionId> = slots
            .iter()
            .filter(|(_, s)| s.idle_for() > ttl)
            .map(|(&id, _)| id)
            .collect();
        dead.into_iter()
            .filter_map(|id| slots.remove(&id))
            .collect()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("session table lock").len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_closure::ClosureTables;
    use ktpm_graph::fixtures::citation_graph;
    use ktpm_query::TreeQuery;
    use ktpm_storage::MemStore;
    use std::sync::OnceLock;

    /// One batch through the executor an engine would pass (only its
    /// pool is used: a session streams from its own plan).
    fn pull(s: &mut Session, n: usize) -> Advance {
        static EXEC: OnceLock<Executor> = OnceLock::new();
        let exec = EXEC.get_or_init(|| {
            let g = citation_graph();
            let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
            Executor::new(g.interner().clone(), store)
        });
        s.advance(n, exec, &ParallelPolicy::default())
    }

    fn plan() -> Arc<QueryPlan> {
        let g = citation_graph();
        let q = TreeQuery::parse("C -> E\nC -> S")
            .unwrap()
            .resolve(g.interner());
        Arc::new(QueryPlan::new(
            q,
            MemStore::new(ClosureTables::compute(&g)).into_shared(),
        ))
    }

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<SessionTable>();
    }

    #[test]
    fn batched_advance_equals_one_shot() {
        let p = plan();
        let mut a = Session::new(Algo::TopkEn, "C -> E\nC -> S".into(), Arc::clone(&p), None);
        let mut b = Session::new(Algo::TopkEn, "C -> E\nC -> S".into(), p, None);
        let mut batched = Vec::new();
        loop {
            let adv = pull(&mut a, 2);
            batched.extend(adv.matches);
            if adv.exhausted {
                break;
            }
        }
        let oneshot = pull(&mut b, 100);
        assert!(oneshot.exhausted);
        assert_eq!(batched, oneshot.matches);
        assert_eq!(batched.len(), 5); // Figure 1: five matches total
    }

    #[test]
    fn cached_prefix_serves_then_falls_back_to_live() {
        let p = plan();
        // Produce the full stream once.
        let mut warm = Session::new(Algo::TopkEn, "C -> E\nC -> S".into(), Arc::clone(&p), None);
        let all = pull(&mut warm, 100).matches;
        // New session with only the first two matches cached.
        let cached = CachedPrefix {
            matches: Arc::new(all[..2].to_vec()),
            complete: false,
        };
        let mut s = Session::new(Algo::TopkEn, "C -> E\nC -> S".into(), p, Some(&cached));
        let first = pull(&mut s, 2);
        assert_eq!(first.matches, all[..2].to_vec());
        assert!(s.iter.is_none(), "cache must satisfy the first batch");
        let rest = pull(&mut s, 100);
        assert!(rest.exhausted);
        assert_eq!(rest.matches, all[2..].to_vec());
    }

    #[test]
    fn advance_publishes_growing_prefixes() {
        let mut s = Session::new(Algo::TopkEn, "C -> E\nC -> S".into(), plan(), None);
        let a = pull(&mut s, 2);
        let p = a.publish.expect("new matches must be published");
        assert_eq!(p.matches.len(), 2);
        assert!(!p.complete);
        let b = pull(&mut s, 100);
        let p = b.publish.expect("completion must be published");
        assert_eq!(p.matches.len(), 5);
        assert!(p.complete);
    }

    #[test]
    fn parked_arena_survives_ttl_eviction_of_unrelated_sessions() {
        // A session's live enumerator owns its row pool. Park it
        // mid-stream, let the TTL sweep reclaim a *different* idle
        // session, and the survivor must resume off its parked pool —
        // no re-enumeration, stream identical to an uninterrupted run.
        let p = plan();
        let mut oneshot = Session::new(Algo::Topk, "C -> E\nC -> S".into(), Arc::clone(&p), None);
        let want = pull(&mut oneshot, 100).matches;
        assert_eq!(want.len(), 5);

        let table = SessionTable::new();
        table
            .insert_capped(
                SessionId(1),
                Session::new(Algo::Topk, "C -> E\nC -> S".into(), Arc::clone(&p), None),
                10,
            )
            .unwrap_or_else(|_| panic!("table has room"));
        table
            .insert_capped(
                SessionId(2),
                Session::new(Algo::Topk, "C -> E\nC -> S".into(), p, None),
                10,
            )
            .unwrap_or_else(|_| panic!("table has room"));
        // Session 1 produces a prefix (its enumerator + pool go live),
        // then parks.
        let slot = table.get(SessionId(1)).expect("live");
        let first = pull(&mut slot.session.lock().unwrap(), 2).matches;
        assert_eq!(first, want[..2].to_vec());
        assert!(slot.session.lock().unwrap().iter.is_some());
        // Session 2 idles past the TTL; session 1 stays fresh.
        std::thread::sleep(Duration::from_millis(30));
        table.get(SessionId(1));
        let evicted = table.sweep(Duration::from_millis(20));
        assert_eq!(evicted.len(), 1);
        assert!(table.get(SessionId(2)).is_none());
        // The survivor resumes exactly where its pool left off.
        let slot = table.get(SessionId(1)).expect("survived the sweep");
        let mut s = slot.session.lock().unwrap();
        let rest = pull(&mut s, 100);
        assert!(rest.exhausted);
        assert_eq!(rest.matches, want[2..].to_vec());
    }

    #[test]
    fn table_sweep_evicts_only_idle_sessions() {
        let p = plan();
        let table = SessionTable::new();
        table
            .insert_capped(
                SessionId(1),
                Session::new(Algo::TopkEn, "C -> E\nC -> S".into(), Arc::clone(&p), None),
                10,
            )
            .unwrap_or_else(|_| panic!("table has room"));
        table
            .insert_capped(
                SessionId(2),
                Session::new(Algo::TopkEn, "C -> E\nC -> S".into(), p, None),
                10,
            )
            .unwrap_or_else(|_| panic!("table has room"));
        std::thread::sleep(Duration::from_millis(30));
        table.get(SessionId(2)); // refresh
        let evicted = table.sweep(Duration::from_millis(20));
        assert_eq!(evicted.len(), 1);
        assert!(table.get(SessionId(1)).is_none());
        assert!(table.get(SessionId(2)).is_some());
    }
}
