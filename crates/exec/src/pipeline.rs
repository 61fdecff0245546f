//! A small morsel-driven parallelism framework (paper Section V,
//! "Parallelism").
//!
//! Data moves through a *pipeline*: a thread-safe [`ChunkSource`] hands out
//! morsels (small fragments of the input) to worker threads, each of which
//! streams the morsel's chunks into a thread-local [`LocalSink`]. When the
//! source is exhausted every local sink is *combined* into the shared sink
//! state. Blocking operators then run their second phase with
//! [`parallel_for`], which schedules fine-grained tasks (e.g. one per radix
//! partition) over the same worker threads.
//!
//! Operators are parallelism-aware (they manage local/shared state), exactly
//! the trade-off morsel-driven parallelism makes: no exchange operators, no
//! tuple re-routing, and work-stealing granularity of one morsel.

use crate::chunk::{ChunkCollection, DataChunk};
use crate::error::{Error, Result};
use crate::pool::ExecContext;
use rexa_obs::span::{self, cat as span_cat};
use rexa_obs::SpanBuffer;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of chunks per morsel: 60 × 2048 ≈ 123k rows, DuckDB's morsel size.
pub const MORSEL_CHUNKS: usize = 60;

/// A thread-safe producer of input chunks. Each worker thread obtains its own
/// [`ChunkReader`]; morsel claiming happens inside the reader so that threads
/// contend only once per morsel, not once per chunk.
pub trait ChunkSource: Send + Sync {
    /// A reader for one worker thread.
    fn reader(&self) -> Box<dyn ChunkReader + '_>;
    /// Total rows, if known (used to size hash tables and pick radix bits).
    fn total_rows(&self) -> Option<usize> {
        None
    }
}

/// A per-thread cursor over a [`ChunkSource`].
pub trait ChunkReader: Send {
    /// The next chunk assigned to this thread, or `None` when the source is
    /// exhausted. The reference is valid until the next call: in-memory
    /// sources hand out borrows of their stored chunks, so a scan never
    /// deep-copies vectors (readers that materialize chunks park the
    /// current one internally and lend it out).
    fn next(&mut self) -> Result<Option<&DataChunk>>;

    /// Morsels this reader has claimed from the shared cursor so far. Used
    /// for per-worker profile attribution; readers without morsel-granular
    /// claiming report 0.
    fn morsels_claimed(&self) -> u64 {
        0
    }
}

/// The shared side of a pipeline-breaking operator.
pub trait ParallelSink: Send + Sync {
    /// Create the thread-local state for one worker. `worker` is the
    /// worker's dense id in the context's profile collector (0 without
    /// one), so a sink can credit its own counters to the same per-worker
    /// record [`Pipeline::run`] fills.
    fn local(&self, worker: usize) -> Result<Box<dyn LocalSink + '_>>;
}

/// The per-thread side of a pipeline-breaking operator.
pub trait LocalSink: Send {
    /// Consume one chunk.
    fn sink(&mut self, chunk: &DataChunk) -> Result<()>;
    /// Merge this thread's state into the shared state. Called exactly once,
    /// after the source is exhausted.
    fn combine(self: Box<Self>) -> Result<()>;
}

/// Cooperative cancellation, used by the benchmark harness to impose the
/// paper's query timeout.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation; readers observe it on their next chunk.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True if cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Err(Cancelled) if cancellation was requested.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(Error::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// A [`ChunkSource`] over an in-memory [`ChunkCollection`].
pub struct CollectionSource<'a> {
    collection: &'a ChunkCollection,
    cursor: AtomicUsize,
    cancel: Option<CancelToken>,
}

impl<'a> CollectionSource<'a> {
    /// Serve morsels from `collection`.
    pub fn new(collection: &'a ChunkCollection) -> Self {
        CollectionSource {
            collection,
            cursor: AtomicUsize::new(0),
            cancel: None,
        }
    }

    /// Serve morsels from `collection`, aborting when `cancel` fires.
    pub fn with_cancel(collection: &'a ChunkCollection, cancel: CancelToken) -> Self {
        CollectionSource {
            collection,
            cursor: AtomicUsize::new(0),
            cancel: Some(cancel),
        }
    }
}

struct CollectionReader<'a> {
    source: &'a CollectionSource<'a>,
    /// Next chunk index within the currently claimed morsel.
    pos: usize,
    /// One past the last chunk of the current morsel.
    end: usize,
    /// Morsels this reader claimed (per-worker attribution).
    morsels: u64,
}

impl ChunkReader for CollectionReader<'_> {
    fn next(&mut self) -> Result<Option<&DataChunk>> {
        if let Some(cancel) = &self.source.cancel {
            cancel.check()?;
        }
        let n = self.source.collection.chunk_count();
        if self.pos == self.end {
            // Claim the next morsel.
            let start = self
                .source
                .cursor
                .fetch_add(MORSEL_CHUNKS, Ordering::Relaxed);
            if start >= n {
                return Ok(None);
            }
            self.pos = start;
            self.end = (start + MORSEL_CHUNKS).min(n);
            self.morsels += 1;
        }
        let chunk = &self.source.collection.chunks()[self.pos];
        self.pos += 1;
        Ok(Some(chunk))
    }

    fn morsels_claimed(&self) -> u64 {
        self.morsels
    }
}

impl ChunkSource for CollectionSource<'_> {
    fn reader(&self) -> Box<dyn ChunkReader + '_> {
        Box::new(CollectionReader {
            source: self,
            pos: 0,
            end: 0,
            morsels: 0,
        })
    }

    fn total_rows(&self) -> Option<usize> {
        Some(self.collection.rows())
    }
}

/// Drain `reader` into `sink` on the calling worker: check `ctx`'s
/// cancellation token after every chunk and, when `spans` is attached,
/// record one `morsel` span per claimed morsel (one timestamp per chunk).
/// Returns the number of chunks sunk. Generic over the sink so the
/// per-chunk call inlines.
pub fn drain_morsels(
    reader: &mut dyn ChunkReader,
    ctx: &ExecContext,
    spans: Option<&SpanBuffer>,
    mut sink: impl FnMut(&DataChunk) -> Result<()>,
) -> Result<u64> {
    let mut chunks = 0u64;
    // Morsel-batch segmentation: a span per claimed morsel, closed when
    // the reader moves on to the next claim.
    let mut m_seen = 0u64;
    let mut m_start = 0u64;
    while let Some(chunk) = reader.next()? {
        ctx.check_cancelled()?;
        let t_chunk = spans.map(|b| b.now_ns());
        sink(chunk)?;
        chunks += 1;
        if let (Some(b), Some(t)) = (spans, t_chunk) {
            let claimed = reader.morsels_claimed();
            if claimed != m_seen {
                if m_seen > 0 {
                    b.complete_between(
                        "morsel",
                        span_cat::COMPUTE,
                        m_start,
                        t,
                        span::arg1("morsel", m_seen - 1),
                    );
                }
                m_seen = claimed;
                m_start = t;
            }
        }
    }
    if let Some(b) = spans {
        if m_seen > 0 {
            b.complete(
                "morsel",
                span_cat::COMPUTE,
                m_start,
                span::arg1("morsel", m_seen - 1),
            );
        }
    }
    Ok(chunks)
}

/// The pipeline executor.
pub struct Pipeline;

impl Pipeline {
    /// Run `source → sink` on `threads` workers scheduled through `ctx`:
    /// every worker streams morsels into its own local sink, then combines
    /// into the shared state. Workers run on the context's shared
    /// [`WorkerPool`](crate::pool::WorkerPool) when it has one (the
    /// submitting thread participates, so a saturated pool degrades to
    /// inline execution rather than deadlock), and the context's
    /// cancellation token is checked between chunks. Returns the first
    /// error raised by any worker.
    pub fn run(
        source: &dyn ChunkSource,
        sink: &dyn ParallelSink,
        threads: usize,
        ctx: &ExecContext,
    ) -> Result<()> {
        let work = || {
            // Busy time and chunk counts are accumulated locally and
            // flushed to the profile collector once per worker, so the
            // streaming loop itself carries no profiling cost. Span
            // tracing adds one timestamp per chunk and one record per
            // morsel — and only when a collector is attached.
            let started = std::time::Instant::now();
            let worker = ctx.profile().map_or(0, |p| p.begin_worker());
            let sbuf = ctx.worker_track();
            let t_worker = sbuf.as_ref().map(|b| b.now_ns());
            let mut reader = source.reader();
            let result = sink.local(worker).and_then(|mut local| {
                let chunks = drain_morsels(&mut *reader, ctx, sbuf.as_deref(), |c| local.sink(c))?;
                let t_combine = sbuf.as_ref().map(|b| b.now_ns());
                local.combine()?;
                if let (Some(b), Some(t)) = (&sbuf, t_combine) {
                    b.complete("combine", span_cat::COMPUTE, t, span::NO_ARGS);
                }
                Ok(chunks)
            });
            let chunks = *result.as_ref().unwrap_or(&0);
            let morsels = reader.morsels_claimed();
            if let (Some(b), Some(t)) = (&sbuf, t_worker) {
                b.complete(
                    "pipeline",
                    span_cat::COMPUTE,
                    t,
                    span::arg2("chunks", chunks, "morsels", morsels),
                );
            }
            if let Some(p) = ctx.profile() {
                p.add_busy(started.elapsed());
                p.add_units(chunks);
                p.record_worker(worker, started.elapsed(), morsels, chunks);
            }
            result.map(drop)
        };
        ctx.run_units(threads.max(1), &work)
    }
}

/// Run `tasks` independent tasks on `threads` workers scheduled through
/// `ctx`, pulling task ids from a shared atomic counter in ascending order
/// (the second-phase scheduling pattern: tasks are radix partitions, and
/// the caller maps ids to partitions in the order it wants them run). Each
/// call of `f` gets the task id and the worker's span lane, when the
/// context traces. The context's cancellation token is checked before each
/// task. Returns the first error.
pub fn parallel_for(
    tasks: usize,
    threads: usize,
    ctx: &ExecContext,
    f: &(dyn Fn(usize, Option<&SpanBuffer>) -> Result<()> + Sync),
) -> Result<()> {
    let threads = threads.max(1).min(tasks.max(1));
    let next = AtomicUsize::new(0);
    let work = || {
        let started = std::time::Instant::now();
        let mut executed = 0u64;
        let sbuf = ctx.worker_track();
        let result = (|| {
            while let Some(task) = claim(&next, tasks) {
                ctx.check_cancelled()?;
                let t_task = sbuf.as_ref().map(|b| b.now_ns());
                f(task, sbuf.as_deref())?;
                executed += 1;
                if let (Some(b), Some(t)) = (&sbuf, t_task) {
                    b.complete(
                        "task",
                        span_cat::COMPUTE,
                        t,
                        span::arg1("task", task as u64),
                    );
                }
            }
            Ok(())
        })();
        if let Some(p) = ctx.profile() {
            p.add_busy(started.elapsed());
            p.add_units(executed);
        }
        result
    };
    ctx.run_units(threads, &work)
}

fn claim(next: &AtomicUsize, tasks: usize) -> Option<usize> {
    let t = next.fetch_add(1, Ordering::Relaxed);
    (t < tasks).then_some(t)
}

/// Spawn `threads` scoped workers running `work`; propagate the first error,
/// preferring "real" errors over `Cancelled` (a worker that observes another
/// worker's failure-induced cancellation should not mask the root cause).
/// This is the pool-less path of [`ExecContext::run_units`].
pub(crate) fn run_scoped(threads: usize, work: &(dyn Fn() -> Result<()> + Sync)) -> Result<()> {
    let results: Vec<Result<()>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(Error::Internal("worker thread panicked".into())),
            })
            .collect()
    });
    let mut first_cancel = None;
    for r in results {
        match r {
            Ok(()) => {}
            Err(Error::Cancelled) => first_cancel = Some(Error::Cancelled),
            Err(e) => return Err(e),
        }
    }
    first_cancel.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LogicalType;
    use crate::vector::Vector;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicI64;

    fn make_collection(chunks: usize, rows_per_chunk: usize) -> ChunkCollection {
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64]);
        let mut next = 0i64;
        for _ in 0..chunks {
            let vals: Vec<i64> = (0..rows_per_chunk as i64).map(|i| next + i).collect();
            next += rows_per_chunk as i64;
            coll.push(DataChunk::new(vec![Vector::from_i64(vals)]))
                .unwrap();
        }
        coll
    }

    /// A sink that sums the single int64 column; local partial sums are
    /// folded into a shared atomic at combine time.
    struct SumSink {
        total: AtomicI64,
        combines: AtomicUsize,
    }

    struct LocalSum<'a> {
        parent: &'a SumSink,
        sum: i64,
    }

    impl ParallelSink for SumSink {
        fn local(&self, _worker: usize) -> Result<Box<dyn LocalSink + '_>> {
            Ok(Box::new(LocalSum {
                parent: self,
                sum: 0,
            }))
        }
    }

    impl LocalSink for LocalSum<'_> {
        fn sink(&mut self, chunk: &DataChunk) -> Result<()> {
            self.sum += chunk.column(0).i64s().iter().sum::<i64>();
            Ok(())
        }
        fn combine(self: Box<Self>) -> Result<()> {
            self.parent.total.fetch_add(self.sum, Ordering::Relaxed);
            self.parent.combines.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let coll = make_collection(200, 100);
        let expected: i64 = (0..200 * 100).sum();
        for threads in [1, 2, 4, 8] {
            let sink = SumSink {
                total: AtomicI64::new(0),
                combines: AtomicUsize::new(0),
            };
            let source = CollectionSource::new(&coll);
            Pipeline::run(&source, &sink, threads, &ExecContext::new()).unwrap();
            assert_eq!(
                sink.total.load(Ordering::Relaxed),
                expected,
                "threads={threads}"
            );
            assert_eq!(sink.combines.load(Ordering::Relaxed), threads);
        }
    }

    #[test]
    fn every_chunk_is_delivered_exactly_once() {
        let coll = make_collection(137, 3); // not a multiple of MORSEL_CHUNKS
        let seen = Mutex::new(vec![0u32; 137 * 3]);

        struct Recorder<'a> {
            seen: &'a Mutex<Vec<u32>>,
        }
        struct LocalRec<'a> {
            seen: &'a Mutex<Vec<u32>>,
        }
        impl ParallelSink for Recorder<'_> {
            fn local(&self, _worker: usize) -> Result<Box<dyn LocalSink + '_>> {
                Ok(Box::new(LocalRec { seen: self.seen }))
            }
        }
        impl LocalSink for LocalRec<'_> {
            fn sink(&mut self, chunk: &DataChunk) -> Result<()> {
                let mut seen = self.seen.lock();
                for &v in chunk.column(0).i64s() {
                    seen[v as usize] += 1;
                }
                Ok(())
            }
            fn combine(self: Box<Self>) -> Result<()> {
                Ok(())
            }
        }

        let source = CollectionSource::new(&coll);
        Pipeline::run(&source, &Recorder { seen: &seen }, 4, &ExecContext::new()).unwrap();
        assert!(seen.lock().iter().all(|&c| c == 1));
    }

    #[test]
    fn sink_error_propagates() {
        struct FailSink;
        struct FailLocal;
        impl ParallelSink for FailSink {
            fn local(&self, _worker: usize) -> Result<Box<dyn LocalSink + '_>> {
                Ok(Box::new(FailLocal))
            }
        }
        impl LocalSink for FailLocal {
            fn sink(&mut self, _chunk: &DataChunk) -> Result<()> {
                Err(Error::Unsupported("boom".into()))
            }
            fn combine(self: Box<Self>) -> Result<()> {
                Ok(())
            }
        }
        let coll = make_collection(10, 10);
        let source = CollectionSource::new(&coll);
        let err = Pipeline::run(&source, &FailSink, 4, &ExecContext::new()).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn cancellation_stops_pipeline() {
        let coll = make_collection(500, 100);
        let token = CancelToken::new();
        token.cancel();
        let source = CollectionSource::with_cancel(&coll, token);
        let sink = SumSink {
            total: AtomicI64::new(0),
            combines: AtomicUsize::new(0),
        };
        let err = Pipeline::run(&source, &sink, 4, &ExecContext::new()).unwrap_err();
        assert!(matches!(err, Error::Cancelled));
    }

    #[test]
    fn parallel_for_covers_all_tasks() {
        let done: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(97, 8, &ExecContext::new(), &|t, _| {
            done[t].fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_zero_tasks() {
        parallel_for(0, 4, &ExecContext::new(), &|_, _| {
            panic!("no tasks expected")
        })
        .unwrap();
    }

    #[test]
    fn parallel_for_error_wins_over_cancel() {
        // Two tasks, two workers: each worker claims exactly one task (a
        // worker stops after its first failure), so one observes Cancelled
        // and the other the real error; the real error must win.
        let err = parallel_for(2, 2, &ExecContext::new(), &|t, _| {
            if t == 0 {
                Err(Error::Cancelled)
            } else {
                Err(Error::Unsupported("specific".into()))
            }
        })
        .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn pooled_context_matches_scoped_execution() {
        use crate::pool::WorkerPool;
        let coll = make_collection(200, 100);
        let expected: i64 = (0..200 * 100).sum();
        let pool = Arc::new(WorkerPool::new(3));
        let ctx = ExecContext::with_pool(Arc::clone(&pool));
        let sink = SumSink {
            total: AtomicI64::new(0),
            combines: AtomicUsize::new(0),
        };
        let source = CollectionSource::new(&coll);
        Pipeline::run(&source, &sink, 4, &ctx).unwrap();
        assert_eq!(sink.total.load(Ordering::Relaxed), expected);
        assert_eq!(sink.combines.load(Ordering::Relaxed), 4);

        let done: Vec<AtomicUsize> = (0..31).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(31, 4, &ctx, &|t, _| {
            done[t].fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn profile_collector_records_busy_time_and_units() {
        use rexa_obs::{Phase, ProfileCollector};
        let coll = make_collection(150, 100);
        let profile = Arc::new(ProfileCollector::new());
        let ctx = ExecContext::new().with_profile(Arc::clone(&profile));

        profile.set_phase(Phase::Probe);
        let sink = SumSink {
            total: AtomicI64::new(0),
            combines: AtomicUsize::new(0),
        };
        let source = CollectionSource::new(&coll);
        Pipeline::run(&source, &sink, 4, &ctx).unwrap();

        profile.set_phase(Phase::Merge);
        parallel_for(31, 4, &ctx, &|_, _| Ok(())).unwrap();

        let p = profile.finish("x", std::time::Duration::ZERO);
        // Every chunk is credited to the probe phase, every task to merge.
        assert_eq!(p.phases[Phase::Probe.index()].units, 150);
        assert_eq!(p.phases[Phase::Merge.index()].units, 31);
        assert!(p.phases[Phase::Probe.index()].busy > std::time::Duration::ZERO);
    }

    #[test]
    fn per_worker_attribution_covers_all_morsels_and_chunks() {
        use rexa_obs::{Phase, ProfileCollector};
        let coll = make_collection(150, 100); // 150 chunks = 3 morsels
        let profile = Arc::new(ProfileCollector::new());
        let ctx = ExecContext::new().with_profile(Arc::clone(&profile));
        profile.set_phase(Phase::Probe);
        let sink = SumSink {
            total: AtomicI64::new(0),
            combines: AtomicUsize::new(0),
        };
        let source = CollectionSource::new(&coll);
        Pipeline::run(&source, &sink, 4, &ctx).unwrap();
        let p = profile.finish("x", std::time::Duration::ZERO);
        assert_eq!(p.workers.len(), 4, "one record per worker: {:?}", p.workers);
        assert_eq!(p.workers.iter().map(|w| w.chunks).sum::<u64>(), 150);
        assert_eq!(
            p.workers.iter().map(|w| w.morsels).sum::<u64>(),
            3,
            "every morsel claimed exactly once: {:?}",
            p.workers
        );
        // Ids are dense and sorted.
        for (i, w) in p.workers.iter().enumerate() {
            assert_eq!(w.worker, i);
        }
    }

    #[test]
    fn parallel_for_panic_surfaces_internal_error_without_hanging() {
        // A panicking task at threads > 1 must not strand the other claim
        // loops at the completion barrier: the panic is caught, converted
        // to Error::Internal, and the call returns.
        let err = parallel_for(8, 4, &ExecContext::new(), &|t, _| {
            if t == 3 {
                panic!("injected worker panic");
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, Error::Internal(_)), "got {err}");

        // Same through a pooled context: the pool worker catches the panic,
        // completes the unit, and the pool survives for the next job.
        use crate::pool::WorkerPool;
        let pool = Arc::new(WorkerPool::new(4));
        let ctx = ExecContext::with_pool(Arc::clone(&pool));
        let err = parallel_for(8, 4, &ctx, &|t, _| {
            if t == 0 {
                panic!("injected worker panic");
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, Error::Internal(_)), "got {err}");
        let done: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(8, 4, &ctx, &|t, _| {
            done[t].fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn cancelled_context_stops_parallel_for() {
        let ctx = ExecContext::new();
        ctx.cancel_token().cancel();
        let err = parallel_for(8, 4, &ctx, &|_, _| Ok(())).unwrap_err();
        assert!(matches!(err, Error::Cancelled));
    }

    #[test]
    fn total_rows_is_reported() {
        let coll = make_collection(3, 7);
        let source = CollectionSource::new(&coll);
        assert_eq!(source.total_rows(), Some(21));
    }
}
