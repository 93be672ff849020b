//! A fixed-size worker pool for query execution, shared by every layer
//! that schedules CPU-bound jobs: the service engine runs request
//! batches on one, and the parallel partitioned enumerator
//! ([`crate::ParTopk`]) scatters per-shard jobs on another — both from
//! the batch CLI and from `ktpm serve`.
//!
//! Deliberately minimal (std-only, no external executor): one shared
//! MPMC-by-mutex job queue drained by N threads. Jobs are short and
//! CPU-bound, so a simple queue is enough; the pool's function is to
//! cap concurrent work at a configured width no matter how many
//! callers pile in.
//!
//! Jobs must run to completion without blocking on other jobs of the
//! same pool — that discipline is what makes it safe for a request
//! worker (on the service's request pool) to block in
//! [`WorkerPool::scatter`] on a *different* pool: shard jobs never
//! wait on anything, so there is no circular wait.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads executing submitted closures.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("ktpm-worker-{i}"))
                    .spawn(move || worker_loop(rx))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Enqueues a job; some worker will run it.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool is alive while tx is Some")
            .send(Box::new(job))
            .expect("workers outlive the pool handle");
    }

    /// Runs `job` on a worker and blocks for its result. If the job
    /// panics, the panic is re-raised *here* (on the caller's thread);
    /// the worker itself survives and keeps serving the queue.
    pub fn run<T: Send + 'static>(&self, job: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx): (Sender<T>, Receiver<T>) = channel();
        self.execute(move || {
            // A dropped tx (client gone) is fine; result is discarded.
            let _ = tx.send(job());
        });
        rx.recv()
            .expect("job panicked on a worker thread (see worker's panic output)")
    }

    /// Runs every job concurrently on the pool and blocks until all
    /// finish, returning results in submission order. Panics on the
    /// caller's thread if any job panicked.
    pub fn scatter<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let n = jobs.len();
        let (tx, rx) = channel::<(usize, T)>();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            self.execute(move || {
                let _ = tx.send((i, job()));
            });
        }
        drop(tx); // receivers below terminate once every job-held clone is gone
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut received = 0;
        while let Ok((i, v)) = rx.recv() {
            out[i] = Some(v);
            received += 1;
        }
        assert_eq!(
            received, n,
            "a scatter job panicked on a worker thread (see worker's panic output)"
        );
        out.into_iter().map(|v| v.expect("all received")).collect()
    }

    /// Number of worker threads.
    pub fn width(&self) -> usize {
        self.workers.len()
    }
}

/// A lazily-created process-wide pool sized to the machine (at least 2,
/// at most 16 workers), for callers without their own pool — the batch
/// CLI and the test suites. Long-lived services size their own.
pub fn default_pool() -> Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(|| {
        let width = std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 16));
        Arc::new(WorkerPool::new(width))
    }))
}

fn worker_loop(rx: Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = match rx.lock() {
            Ok(guard) => match guard.recv() {
                Ok(job) => job,
                Err(_) => return, // pool dropped: drain and exit
            },
            // A sibling worker panicked while holding the queue lock
            // (only possible between recv and job; harmless): continue.
            Err(poisoned) => match poisoned.into_inner().recv() {
                Ok(job) => job,
                Err(_) => return,
            },
        };
        // Contain panics to the failing job: the worker (and therefore
        // the pool) must survive a pathological query. The caller
        // blocked in `run` observes the panic through its dropped
        // channel sender.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // disconnect: workers exit after current job
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}
