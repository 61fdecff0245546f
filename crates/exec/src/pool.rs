//! A shared worker pool and per-query execution context.
//!
//! Every parallel entry point — [`Pipeline::run`](crate::pipeline::Pipeline::run),
//! [`parallel_for`](crate::pipeline::parallel_for) and the operators built
//! on them — takes an [`ExecContext`] and schedules its work units through
//! [`ExecContext::run_units`]. A context without a pool spawns scoped
//! threads per call, which suits a single test or benchmark query; a
//! concurrent query service attaches one shared pool so that `Q` queries ×
//! `T` pipeline threads do not burst-spawn `Q×T` OS threads and
//! oversubscribe the machine precisely when it is busiest.
//!
//! [`WorkerPool`] fixes the thread count once. Work is submitted as a *job*
//! of `units` identical work units (one unit = one pipeline worker streaming
//! morsels, or one `parallel_for` claim loop). The submitting thread always
//! participates in its own job: it claims units from the same atomic counter
//! the pool workers use, so a job makes progress even when every pool worker
//! is busy with other queries — saturation degrades to inline execution
//! instead of deadlock.
//!
//! [`ExecContext`] bundles the pool handle with a [`CancelToken`] so that
//! operators deep in the engine can both schedule work and observe
//! cancellation without threading two extra parameters everywhere.

use crate::error::{Error, Result};
use crate::pipeline::CancelToken;
use parking_lot::{Condvar, Mutex};
use rexa_obs::{ProfileCollector, SpanBuffer, SpanCollector};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A fixed-size pool of OS worker threads shared by all running queries.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

struct PoolShared {
    /// Jobs with unclaimed units. A job appears once per helper ticket; a
    /// popped ticket drains the job's unit counter until it is exhausted.
    queue: Mutex<VecDeque<Arc<JobCore>>>,
    /// Signalled when tickets are enqueued or shutdown is requested.
    work_ready: Condvar,
    shutdown: AtomicBool,
}

/// Shared state of one `run` call.
///
/// # Safety
///
/// `work` is a raw pointer to a closure on the submitting thread's stack. It
/// is only dereferenced between a successful unit claim (`next_unit` below
/// `units`) and that unit's completion decrement of `remaining`; `run`
/// blocks until `remaining` reaches zero, so the referent outlives every
/// dereference. A ticket popped after the counter is exhausted returns
/// without touching `work`, which is why it is stored as a raw pointer (a
/// dangling reference would be invalid even if never dereferenced).
struct JobCore {
    work: *const (dyn Fn() -> Result<()> + Sync),
    units: usize,
    next_unit: AtomicUsize,
    /// Units not yet completed; guarded so `done` can be waited on.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First error, preferring real errors over `Cancelled` (a worker that
    /// observes failure-induced cancellation must not mask the root cause).
    first_err: Mutex<Option<Error>>,
}

// SAFETY: the only non-thread-safe field is the raw `work` pointer. Its
// referent is `Sync` (shared calls from any thread are sound), and the
// type-level invariant above keeps it alive for every dereference, on
// whichever thread claims the unit. All other fields are atomics or locks.
unsafe impl Send for JobCore {}
// SAFETY: as for `Send`: concurrent claimants only call the `Sync` closure
// through `&`, and every mutable field is an atomic or behind a lock.
unsafe impl Sync for JobCore {}

impl JobCore {
    /// Claim and execute units until the counter is exhausted.
    ///
    /// A panicking unit is converted to [`Error::Internal`], matching the
    /// scoped-thread fallback ([`run_scoped`](crate::pipeline)): the panic
    /// must not unwind out of here, because the completion decrement below
    /// is what lets `run` release the closure — skipping it would leave
    /// `run` deadlocked and other claimants dereferencing a freed closure.
    fn run_units(&self) {
        loop {
            let unit = self.next_unit.fetch_add(1, Ordering::Relaxed);
            if unit >= self.units {
                return;
            }
            // SAFETY: the claim above succeeded, so `run` is still blocked
            // waiting for this unit and the closure is alive (see JobCore).
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (*self.work)()
            }))
            .unwrap_or_else(|_| Err(Error::Internal("worker thread panicked".into())));
            if let Err(e) = result {
                let mut slot = self.first_err.lock();
                match &*slot {
                    None => *slot = Some(e),
                    Some(Error::Cancelled) if !matches!(e, Error::Cancelled) => *slot = Some(e),
                    Some(_) => {}
                }
            }
            let mut remaining = self.remaining.lock();
            *remaining -= 1;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Block until every unit has completed.
    fn wait_done(&self) {
        let mut remaining = self.remaining.lock();
        while *remaining > 0 {
            self.done.wait(&mut remaining);
        }
    }
}

/// Blocks in `Drop` until the job's units are all complete. `run` holds one
/// of these across everything it does after publishing helper tickets, so
/// even if it unwinds (nothing in `run` should panic, but the closure
/// dereferences make the cost of being wrong a use-after-free), the stack
/// frame holding the work closure cannot be popped while a helper might
/// still dereference it.
struct WaitDoneGuard<'a>(&'a JobCore);

impl Drop for WaitDoneGuard<'_> {
    fn drop(&mut self) {
        self.0.wait_done();
    }
}

impl WorkerPool {
    /// Spawn a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{POOL_THREAD_PREFIX}{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
            threads,
        }
    }

    /// Number of pool workers (not counting participating submitters).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `units` invocations of `work`, spread across the pool workers
    /// and the calling thread. Blocks until every unit has finished; returns
    /// the first error, preferring real errors over [`Error::Cancelled`].
    pub fn run(&self, units: usize, work: &(dyn Fn() -> Result<()> + Sync)) -> Result<()> {
        if units == 0 {
            return Ok(());
        }
        // SAFETY: lifetime erasure only; the pointer is stored raw and the
        // JobCore invariant (dereference only between claim and completion,
        // `run` blocks until all units complete) keeps every use in-bounds.
        let work: &'static (dyn Fn() -> Result<()> + Sync) = unsafe { std::mem::transmute(work) };
        let job = Arc::new(JobCore {
            work: work as *const _,
            units,
            next_unit: AtomicUsize::new(0),
            remaining: Mutex::new(units),
            done: Condvar::new(),
            first_err: Mutex::new(None),
        });
        // One helper ticket per unit the caller will not run itself, capped
        // at the pool size: each ticket drains the counter, so more tickets
        // than workers buys nothing.
        let helpers = (units - 1).min(self.threads);
        // Once a ticket is published the closure may be dereferenced by
        // helpers; the guard keeps this frame alive until every unit
        // completes even if an unexpected unwind tries to pop it early.
        let guard = WaitDoneGuard(&job);
        {
            let mut queue = self.shared.queue.lock();
            for _ in 0..helpers {
                queue.push_back(Arc::clone(&job));
            }
        }
        for _ in 0..helpers {
            self.shared.work_ready.notify_one();
        }
        // The caller works on its own job: progress is guaranteed even when
        // every pool worker is busy elsewhere. Panicking units are caught
        // inside `run_units` and surfaced as `Error::Internal`.
        job.run_units();
        drop(guard); // blocks until all units (including helpers') are done
        let first_err = job.first_err.lock().take();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Prefix of the pool threads' names; pool thread `i` is `rexa-worker-{i}`.
const POOL_THREAD_PREFIX: &str = "rexa-worker-";

/// The timeline lane of the calling thread: `worker {i}` on pool thread
/// `rexa-worker-{i}`, and `worker t{n}` on any other thread — a submitting
/// thread joining its own job, or a scoped worker of a pool-less context —
/// with `n` unique in the process.
pub fn worker_lane() -> String {
    static NEXT_OTHER: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static LANE: String = match std::thread::current()
            .name()
            .and_then(|n| n.strip_prefix(POOL_THREAD_PREFIX))
        {
            Some(i) => format!("worker {i}"),
            None => format!("worker t{}", NEXT_OTHER.fetch_add(1, Ordering::Relaxed)),
        };
    }
    LANE.with(String::clone)
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                shared.work_ready.wait(&mut queue);
            }
        };
        job.run_units();
    }
}

/// A pre-admitted memory grant that a query's unspillable allocations draw
/// from instead of charging the global accounting a second time.
///
/// The query service reserves a query's estimated footprint *before* launch;
/// the reservation is the grant. As the operator materialises the memory the
/// estimate promised (hash-table entry arrays), it carves matching bytes out
/// of the grant, so the global gauge sees each byte once: first as grant,
/// then as allocation. The returned token owns the carved bytes — dropping
/// it releases them to the underlying accounting, not back to the grant.
pub trait MemoryGrant: Send + Sync {
    /// Take `bytes` from the grant, or `None` when less than that remains.
    fn take(&self, bytes: usize) -> Option<Box<dyn std::any::Any + Send + Sync>>;

    /// Release up to `bytes` from the grant back to the underlying
    /// accounting, returning how many were released. Used to offset charges
    /// that cannot route through a token — e.g. pages about to be pinned:
    /// the grant gives the headroom back just as the pins consume it.
    fn spend(&self, bytes: usize) -> usize;
}

/// Per-query execution context: where to run parallel work and how to notice
/// cancellation. Cheap to clone; all clones share the same token and pool.
#[derive(Clone, Default)]
pub struct ExecContext {
    pool: Option<Arc<WorkerPool>>,
    cancel: CancelToken,
    grant: Option<Arc<dyn MemoryGrant>>,
    profile: Option<Arc<ProfileCollector>>,
    spans: Option<Arc<SpanCollector>>,
}

impl ExecContext {
    /// A context with no pool (parallel work falls back to scoped threads)
    /// and a fresh token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context that schedules parallel work on `pool`.
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        ExecContext {
            pool: Some(pool),
            cancel: CancelToken::new(),
            grant: None,
            profile: None,
            spans: None,
        }
    }

    /// Replace the cancellation token (builder style).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attach a memory grant (builder style).
    pub fn with_grant(mut self, grant: Arc<dyn MemoryGrant>) -> Self {
        self.grant = Some(grant);
        self
    }

    /// Attach a per-query profile collector (builder style). Pipeline and
    /// `parallel_for` workers credit their busy time and executed work
    /// units to the collector's current phase.
    pub fn with_profile(mut self, profile: Arc<ProfileCollector>) -> Self {
        self.profile = Some(profile);
        self
    }

    /// The attached profile collector, if any.
    pub fn profile(&self) -> Option<&Arc<ProfileCollector>> {
        self.profile.as_ref()
    }

    /// Attach a per-query span collector (builder style). Workers record
    /// timeline spans (pipeline with its morsels and combine, partition
    /// tasks, per-partition merge) into lock-free per-worker buffers; the
    /// operator merges them into `QueryProfile::timeline` at query end.
    /// When absent — the default —
    /// every instrumentation site is a skipped `Option` check and no
    /// timestamps are taken.
    pub fn with_spans(mut self, spans: Arc<SpanCollector>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// The attached span collector, if any.
    pub fn spans(&self) -> Option<&Arc<SpanCollector>> {
        self.spans.as_ref()
    }

    /// A span buffer on the calling thread's lane ([`worker_lane`]), when
    /// the context traces: every operator a thread works for records onto
    /// that thread's one lane.
    pub fn worker_track(&self) -> Option<Arc<SpanBuffer>> {
        self.spans.as_ref().map(|sc| sc.track(worker_lane()))
    }

    /// Carve `bytes` out of the attached grant. `None` when no grant is
    /// attached or it has fewer than `bytes` left — the caller then charges
    /// the regular accounting instead.
    pub fn carve(&self, bytes: usize) -> Option<Box<dyn std::any::Any + Send + Sync>> {
        self.grant.as_ref()?.take(bytes)
    }

    /// Release up to `bytes` from the attached grant to the underlying
    /// accounting (see [`MemoryGrant::spend`]); 0 when no grant is attached.
    pub fn spend_grant(&self, bytes: usize) -> usize {
        self.grant.as_ref().map_or(0, |g| g.spend(bytes))
    }

    /// The query's cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Err([`Error::Cancelled`]) if cancellation was requested.
    pub fn check_cancelled(&self) -> Result<()> {
        self.cancel.check()
    }

    /// The shared pool, if this context has one.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Run `units` invocations of `work` on the pool (caller participating),
    /// or on scoped threads when no pool is attached. A single unit runs
    /// inline on the calling thread on either path; a panic in it surfaces
    /// as [`Error::Internal`], as it would from a pool or scoped worker.
    pub fn run_units(&self, units: usize, work: &(dyn Fn() -> Result<()> + Sync)) -> Result<()> {
        if units == 1 {
            return std::panic::catch_unwind(std::panic::AssertUnwindSafe(work))
                .unwrap_or_else(|_| Err(Error::Internal("worker thread panicked".into())));
        }
        match &self.pool {
            Some(pool) => pool.run(units, work),
            None => crate::pipeline::run_scoped(units, work),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;
    use std::time::Duration;

    #[test]
    fn worker_lanes_name_the_executing_thread() {
        let pool = WorkerPool::new(2);
        // Three units meeting at a barrier run on three threads: both pool
        // workers and the submitting thread.
        let barrier = std::sync::Barrier::new(3);
        let lanes = Mutex::new(std::collections::BTreeSet::new());
        pool.run(3, &|| {
            lanes.lock().insert(worker_lane());
            barrier.wait();
            Ok(())
        })
        .unwrap();
        let caller = worker_lane();
        assert_eq!(caller, worker_lane(), "a thread keeps its lane");
        assert!(caller.starts_with("worker t"), "{caller}");
        let expected: std::collections::BTreeSet<String> = [
            "worker 0".to_string(),
            "worker 1".to_string(),
            caller.clone(),
        ]
        .into();
        assert_eq!(lanes.into_inner(), expected);
        let other = std::thread::spawn(worker_lane).join().unwrap();
        assert!(other.starts_with("worker t") && other != caller, "{other}");
    }

    #[test]
    fn pool_runs_all_units() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.run(16, &|| {
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn pool_zero_and_one_units() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|| panic!("no units expected")).unwrap();
        let ran = AtomicBool::new(false);
        pool.run(1, &|| {
            ran.store(true, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn pool_prefers_real_error_over_cancelled() {
        let pool = WorkerPool::new(2);
        let n = AtomicUsize::new(0);
        let err = pool
            .run(2, &|| match n.fetch_add(1, Ordering::Relaxed) {
                0 => Err(Error::Cancelled),
                _ => Err(Error::Unsupported("specific".into())),
            })
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn panicking_units_surface_as_error_and_pool_survives() {
        let pool = WorkerPool::new(2);
        // Multi-unit job: panics on helper workers and on the submitting
        // thread must all be caught, every unit accounted for (no deadlock,
        // no use-after-free), and the pool must stay usable afterwards.
        let n = AtomicUsize::new(0);
        let err = pool
            .run(8, &|| {
                if n.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                    panic!("unit panic");
                }
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, Error::Internal(_)));
        // A single-unit job panicking on the submitting thread is
        // converted the same way.
        let err = pool.run(1, &|| panic!("single unit panic")).unwrap_err();
        assert!(matches!(err, Error::Internal(_)));
        // All workers are still alive and serving jobs.
        let counter = AtomicUsize::new(0);
        pool.run(8, &|| {
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn saturated_pool_still_makes_progress() {
        // Two concurrent jobs on a single-worker pool: even if the worker is
        // stuck on one job, the other job's submitter drives its own units.
        let pool = Arc::new(WorkerPool::new(1));
        let total = Arc::new(AtomicI64::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    pool.run(8, &|| {
                        std::thread::sleep(Duration::from_millis(2));
                        total.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn sequential_jobs_reuse_workers() {
        let pool = WorkerPool::new(3);
        for round in 0..10 {
            let counter = AtomicUsize::new(0);
            pool.run(4, &|| {
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
            assert_eq!(counter.load(Ordering::Relaxed), 4, "round {round}");
        }
    }

    #[test]
    fn context_without_pool_falls_back_to_scoped_threads() {
        let ctx = ExecContext::new();
        let counter = AtomicUsize::new(0);
        ctx.run_units(4, &|| {
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn context_cancellation_is_shared_between_clones() {
        let ctx = ExecContext::with_pool(Arc::new(WorkerPool::new(2)));
        let clone = ctx.clone();
        assert!(ctx.check_cancelled().is_ok());
        clone.cancel_token().cancel();
        assert!(matches!(ctx.check_cancelled(), Err(Error::Cancelled)));
    }
}
