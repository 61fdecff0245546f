//! `rexa-service`: a concurrent query service over the rexa engine.
//!
//! The benchmark harness runs one query at a time (or hand-rolls worker
//! threads); a real system faces a *stream* of concurrent queries against
//! one shared buffer manager. This crate adds the missing layer:
//!
//! * **Admission control** — submitted queries enter a bounded FIFO queue.
//!   A query is launched only when a concurrency slot is free *and* a
//!   [`BufferManager::reserve`]-backed [`MemoryReservation`] for its
//!   estimated footprint succeeds. When headroom is low, queries wait in
//!   FIFO order; when the queue itself is full, [`QueryService::submit`]
//!   sheds the request with the typed [`Error::Overloaded`] instead of
//!   letting requests pile up until memory runs out.
//! * **Per-query memory reservations** — the footprint estimate
//!   ([`estimate_footprint`]) covers the *unspillable* part of a run: the
//!   phase-1 entry arrays (non-paged) plus the pinned-page floor of the
//!   radix partitions. The reservation is held for the whole run, so
//!   concurrent queries can collectively overcommit only what the spill
//!   machinery can reclaim — the service never admits more unspillable
//!   demand than the limit.
//! * **Cancellation and deadlines** — every submission returns a
//!   [`QueryHandle`] with [`cancel`](QueryHandle::cancel) and an awaitable
//!   result. Deadlines are enforced by the scheduler for queued *and*
//!   running queries; a timed-out query fails with
//!   [`Error::DeadlineExceeded`], releasing its pins, reservations, and
//!   spill files promptly.
//! * **Shared worker pool** — all queries execute on one
//!   [`WorkerPool`](rexa_exec::WorkerPool) instead of spawning
//!   `queries × threads` OS threads. The per-query driver thread
//!   participates in its own pipeline work, so a saturated pool degrades to
//!   inline execution rather than deadlock.
//! * **SQL submission** — tables registered with
//!   [`QueryService::register_table`] become visible to
//!   [`QueryService::submit_sql`], which parses, binds, and plans a SQL
//!   `SELECT` through `rexa-sql` and runs it under the same admission
//!   control, reservations, deadlines, and cancellation as hand-wired
//!   plans. Parse and bind failures return a typed
//!   [`SqlError`](rexa_sql::SqlError) carrying the byte-offset span of the
//!   offending text, before anything is queued.

use parking_lot::{Condvar, Mutex};
use rexa_buffer::{BufferManager, BufferStats, MemoryReservation, ReservationGrant, Table};
use rexa_core::{
    hash_aggregate_streaming, output_schema, plan_row_width, AggregateConfig, HashAggregatePlan,
    RunStats,
};
use rexa_exec::pipeline::{CancelToken, ChunkSource, CollectionSource};
use rexa_exec::pool::{ExecContext, WorkerPool};
use rexa_exec::{ChunkCollection, DataChunk, Error, Result};
use rexa_obs::span::{arg1, cat as span_cat, NO_ARGS};
use rexa_obs::{Counter, Gauge, Histogram, MetricsRegistry, SpanCollector};
use rexa_sql::{Catalog, PhysicalPlan, SqlError, TableData};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the shared execution pool.
    pub pool_threads: usize,
    /// Maximum queries executing at once; further admitted queries wait.
    pub max_concurrent: usize,
    /// Maximum queries *waiting* for admission; submissions past this bound
    /// are shed with [`Error::Overloaded`].
    pub queue_bound: usize,
    /// Slow-query log: queries whose execution exceeds the configured
    /// threshold emit a structured one-line record through the sink.
    /// `None` (the default) disables the log entirely.
    pub slow_query: Option<SlowQueryConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        ServiceConfig {
            pool_threads: cores.min(16),
            max_concurrent: 4,
            queue_bound: 64,
            slow_query: None,
        }
    }
}

/// Pluggable destination for slow-query records. Called on the query's
/// driver thread after completion; keep it cheap (format-and-log).
pub type SlowQuerySink = Arc<dyn Fn(&SlowQueryRecord) + Send + Sync>;

/// Slow-query log configuration: the duration threshold and where records
/// go.
#[derive(Clone)]
pub struct SlowQueryConfig {
    /// Queries whose execution (launch to completion, queue time excluded)
    /// takes at least this long are logged.
    pub threshold: Duration,
    /// Receives one record per slow query.
    pub sink: SlowQuerySink,
}

impl SlowQueryConfig {
    pub fn new(
        threshold: Duration,
        sink: impl Fn(&SlowQueryRecord) + Send + Sync + 'static,
    ) -> Self {
        SlowQueryConfig {
            threshold,
            sink: Arc::new(sink),
        }
    }
}

impl std::fmt::Debug for SlowQueryConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryConfig")
            .field("threshold", &self.threshold)
            .finish_non_exhaustive()
    }
}

/// One slow query, summarized for the log. [`SlowQueryRecord::render`]
/// produces the canonical one-line text form.
#[derive(Clone, Debug)]
pub struct SlowQueryRecord {
    /// Service-assigned query id.
    pub id: u64,
    /// `"aggregate"` for hand-wired plans, `"sql"` for SQL submissions.
    pub kind: &'static str,
    /// The SQL text (truncated) or a plan summary.
    pub summary: String,
    /// Execution wall time, launch to completion.
    pub duration: Duration,
    /// Time spent queued before launch.
    pub queued: Duration,
    /// Spill bytes written during the run (0 when the query failed before
    /// producing stats).
    pub spill_bytes: u64,
    /// Thread-local hash-table resets during phase 1.
    pub ht_resets: u64,
    /// Phase-1 strategy the operator settled on (empty on failure).
    pub strategy: String,
    /// `"ok"` or `"error"`.
    pub outcome: &'static str,
}

impl SlowQueryRecord {
    /// The structured one-line form, `key=value` separated by spaces with
    /// the free-text summary quoted last.
    pub fn render(&self) -> String {
        format!(
            "slow_query id={} kind={} duration_ms={} queued_ms={} spill_bytes={} \
             ht_resets={} strategy={} outcome={} summary={:?}",
            self.id,
            self.kind,
            self.duration.as_millis(),
            self.queued.as_millis(),
            self.spill_bytes,
            self.ht_resets,
            if self.strategy.is_empty() {
                "-"
            } else {
                &self.strategy
            },
            self.outcome,
            self.summary,
        )
    }
}

/// The input a query aggregates over.
#[derive(Clone)]
pub enum QueryInput {
    /// An in-memory chunk collection.
    Collection(Arc<ChunkCollection>),
    /// A persistent paged table, scanned through the buffer manager.
    Table(Arc<Table>),
}

impl QueryInput {
    fn schema(&self) -> Vec<rexa_exec::LogicalType> {
        match self {
            QueryInput::Collection(c) => c.types().to_vec(),
            QueryInput::Table(t) => t.schema().to_vec(),
        }
    }

    fn rows(&self) -> usize {
        match self {
            QueryInput::Collection(c) => c.rows(),
            QueryInput::Table(t) => t.rows(),
        }
    }
}

/// Per-query options.
#[derive(Clone, Default)]
pub struct QueryOptions {
    /// Operator configuration (threads, radix bits, table capacity, …).
    pub config: AggregateConfig,
    /// Wall-clock budget measured from submission; `None` means unbounded.
    /// Expiry cancels the query — queued or running — with
    /// [`Error::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Override the admission footprint estimate (bytes). `None` derives it
    /// with [`estimate_footprint`].
    pub footprint: Option<usize>,
    /// Stream output chunks to this consumer instead of collecting them.
    /// Collected output is the default ([`QueryOutput::output`]).
    pub consumer: Option<Arc<dyn Fn(DataChunk) -> Result<()> + Send + Sync>>,
    /// Trace this query's timeline into the given collector: the service
    /// records admission spans (queue wait, memory reservation) and SQL
    /// front-end spans, and the operator records per-worker
    /// pipeline/task/merge spans. Export the merged timeline from
    /// `QueryOutput::stats.profile.chrome_trace_json()`. `None` (the
    /// default) disables tracing at zero cost.
    pub spans: Option<Arc<SpanCollector>>,
}

/// One query: a plan over an input, with options.
#[derive(Clone)]
pub struct QueryRequest {
    /// The aggregation plan.
    pub plan: HashAggregatePlan,
    /// The input to aggregate.
    pub input: QueryInput,
    /// Execution options.
    pub options: QueryOptions,
}

/// What a completed query returns.
#[derive(Debug)]
pub struct QueryOutput {
    /// The collected result rows (`None` when a streaming consumer was set).
    pub output: Option<ChunkCollection>,
    /// Operator statistics for the run.
    pub stats: RunStats,
    /// Buffer-manager activity across the query's execution (counters are
    /// deltas from launch to completion).
    pub buffer: BufferStats,
    /// Time spent queued before launch.
    pub queued_for: Duration,
}

/// Estimate the unspillable memory footprint of one aggregation run — the
/// peak across its two phases:
///
/// * **Phase 1**: per worker thread, the entry array (8 bytes per slot,
///   non-paged and never evictable) plus the pinned-page floor of the radix
///   partitions (one partially-filled page per partition between resets).
/// * **Phase 2**: up to `threads` partitions are finalized concurrently;
///   each is fully pinned (`rows_per_partition × row_width`, with a 2×
///   margin for partition skew) next to a 2-rows-per-slot entry array.
///
/// Everything else the operator touches is unpinned between resets and
/// therefore spillable under pressure. `rows` is the worst case when the
/// group count is unknown (all rows distinct); callers with a cardinality
/// estimate can pass that instead.
pub fn estimate_footprint(
    config: &AggregateConfig,
    page_size: usize,
    rows: usize,
    row_width: usize,
) -> usize {
    let partitions = 1usize << config.effective_radix_bits();
    let threads = config.threads.max(1);
    let phase1 = threads * (8 * config.ht_capacity + (partitions + 2) * page_size);
    let rows_per_part = rows.div_ceil(partitions).saturating_mul(2);
    let entry_array = (2 * rows_per_part).next_power_of_two().max(1024) * 8;
    let pinned = rows_per_part.saturating_mul(row_width) + 2 * page_size;
    let phase2 = threads.min(partitions) * (pinned + entry_array);
    phase1.max(phase2)
}

/// Which phase of its life a query is in.
enum QueryState {
    Queued,
    Running,
    Done(Option<Box<Result<QueryOutput>>>),
}

/// State shared between a [`QueryHandle`], the scheduler, and the driver.
struct QueryShared {
    id: u64,
    state: Mutex<QueryState>,
    done: Condvar,
    cancel: CancelToken,
    /// Set by the scheduler when it cancels this query for deadline expiry,
    /// so `Cancelled` can be mapped to `DeadlineExceeded`.
    deadline_fired: AtomicBool,
    deadline: Option<Instant>,
    submitted_at: Instant,
}

impl QueryShared {
    fn finish(&self, result: Result<QueryOutput>) {
        let mut state = self.state.lock();
        *state = QueryState::Done(Some(Box::new(result)));
        self.done.notify_all();
    }

    /// Map a raw run error to the query's externally visible error.
    fn map_error(&self, e: Error) -> Error {
        match e {
            Error::Cancelled if self.deadline_fired.load(Ordering::Relaxed) => {
                Error::DeadlineExceeded
            }
            other => other,
        }
    }
}

/// A submitted query: cancel it, or wait for its result.
pub struct QueryHandle {
    shared: Arc<QueryShared>,
}

impl QueryHandle {
    /// The service-assigned query id.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Request cancellation. Queued queries fail without launching; running
    /// queries stop at the next cancellation point, releasing pins,
    /// reservations, and spill files. Safe to call more than once.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }

    /// True once the query has finished (any way).
    pub fn is_done(&self) -> bool {
        matches!(&*self.shared.state.lock(), QueryState::Done(_))
    }

    /// Block until the query finishes and take its result. Calling `wait`
    /// a second time returns [`Error::Internal`] (the output moves out).
    pub fn wait(&self) -> Result<QueryOutput> {
        let mut state = self.shared.state.lock();
        loop {
            match &mut *state {
                QueryState::Done(result) => {
                    return result.take().map(|b| *b).unwrap_or_else(|| {
                        Err(Error::Internal("query result already taken".into()))
                    })
                }
                _ => self.shared.done.wait(&mut state),
            }
        }
    }

    /// Like [`wait`](QueryHandle::wait) with a timeout; `None` if the query
    /// is still in flight when it elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryOutput>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        loop {
            match &mut *state {
                QueryState::Done(result) => {
                    return Some(result.take().map(|b| *b).unwrap_or_else(|| {
                        Err(Error::Internal("query result already taken".into()))
                    }))
                }
                _ => {
                    if self
                        .shared
                        .done
                        .wait_until(&mut state, deadline)
                        .timed_out()
                    {
                        return None;
                    }
                }
            }
        }
    }
}

/// What a queued entry will execute: a hand-wired aggregation request or a
/// bound SQL plan. Both run under the same admission machinery.
enum RequestKind {
    Aggregate(QueryRequest),
    Sql {
        plan: Arc<PhysicalPlan>,
        /// The original statement text, kept for the slow-query log.
        sql: String,
        options: QueryOptions,
    },
}

impl RequestKind {
    fn options(&self) -> &QueryOptions {
        match self {
            RequestKind::Aggregate(r) => &r.options,
            RequestKind::Sql { options, .. } => options,
        }
    }

    /// The admission footprint estimate (bytes) when none was given.
    fn estimate(&self, page_size: usize) -> usize {
        match self {
            RequestKind::Aggregate(r) => {
                // The plan validated at submission, so row-width derivation
                // cannot fail here; 32 bytes is a safe floor regardless.
                let row_width = plan_row_width(&r.plan, &r.input.schema()).unwrap_or(32);
                estimate_footprint(&r.options.config, page_size, r.input.rows(), row_width)
            }
            RequestKind::Sql { plan, options, .. } => match &plan.aggregate {
                Some(agg) if !agg.group_cols.is_empty() => {
                    let row_width = plan_row_width(agg, &plan.input_schema).unwrap_or(32);
                    estimate_footprint(&options.config, page_size, plan.input_rows(), row_width)
                }
                // Ungrouped aggregates and plain scans pin only a handful of
                // pages at a time.
                _ => 4 * page_size * options.config.threads.max(1),
            },
        }
    }
}

struct QueuedQuery {
    shared: Arc<QueryShared>,
    request: RequestKind,
}

struct SchedulerState {
    queue: VecDeque<QueuedQuery>,
    running: usize,
    shutdown: bool,
    /// Deadlines of queued and running queries, swept by the scheduler.
    timers: Vec<(Instant, Weak<QueryShared>)>,
    /// Every query not yet observed finished, deadline or not, so shutdown
    /// can cancel all of them (not just the deadline-bearing ones).
    live: Vec<Weak<QueryShared>>,
    /// Finished or running driver threads awaiting a join.
    drivers: Vec<JoinHandle<()>>,
}

/// Service-level metrics, registered on the buffer manager's registry so a
/// single Prometheus scrape sees the whole stack (service admission, buffer
/// pool, temp-file I/O, fault injection).
struct ServiceMetrics {
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    shed: Counter,
    deadline_exceeded: Counter,
    queued: Gauge,
    running: Gauge,
    query_duration: Histogram,
    queue_wait: Histogram,
}

impl ServiceMetrics {
    fn register(reg: &MetricsRegistry) -> Self {
        ServiceMetrics {
            submitted: reg.counter(
                "rexa_queries_submitted_total",
                "Queries accepted into the admission queue.",
            ),
            completed: reg.counter(
                "rexa_queries_completed_total",
                "Queries that finished successfully.",
            ),
            failed: reg.counter(
                "rexa_queries_failed_total",
                "Queries that finished with an error (including cancellation).",
            ),
            shed: reg.counter(
                "rexa_queries_shed_total",
                "Submissions rejected because the admission queue was full.",
            ),
            deadline_exceeded: reg.counter(
                "rexa_queries_deadline_exceeded_total",
                "Queries cancelled by their deadline, queued or running.",
            ),
            queued: reg.gauge(
                "rexa_queries_queued",
                "Queries currently waiting for admission.",
            ),
            running: reg.gauge("rexa_queries_running", "Queries currently executing."),
            query_duration: reg.histogram(
                "rexa_query_duration_seconds",
                "Wall time from launch to completion of a query.",
                Histogram::duration_bounds(),
            ),
            queue_wait: reg.histogram(
                "rexa_query_queue_wait_seconds",
                "Time a query spent waiting for admission before launch.",
                Histogram::duration_bounds(),
            ),
        }
    }
}

struct ServiceShared {
    state: Mutex<SchedulerState>,
    /// Wakes the scheduler: new submission, query completion, shutdown.
    work: Condvar,
    mgr: Arc<BufferManager>,
    pool: Arc<WorkerPool>,
    config: ServiceConfig,
    metrics: ServiceMetrics,
}

/// The concurrent query service. See the crate docs for the model.
pub struct QueryService {
    shared: Arc<ServiceShared>,
    scheduler: Option<JoinHandle<()>>,
    next_id: AtomicU64,
    /// Tables visible to [`submit_sql`](QueryService::submit_sql).
    catalog: Mutex<Catalog>,
}

impl QueryService {
    /// Start a service over `mgr` with the given configuration.
    pub fn new(mgr: Arc<BufferManager>, config: ServiceConfig) -> Self {
        let shared = Arc::new(ServiceShared {
            state: Mutex::new(SchedulerState {
                queue: VecDeque::new(),
                running: 0,
                shutdown: false,
                timers: Vec::new(),
                live: Vec::new(),
                drivers: Vec::new(),
            }),
            work: Condvar::new(),
            metrics: ServiceMetrics::register(mgr.metrics()),
            mgr,
            pool: Arc::new(WorkerPool::new(config.pool_threads)),
            config,
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rexa-scheduler".into())
                .spawn(move || scheduler_loop(&shared))
                .expect("spawn scheduler")
        };
        QueryService {
            shared,
            scheduler: Some(scheduler),
            next_id: AtomicU64::new(1),
            catalog: Mutex::new(Catalog::new()),
        }
    }

    /// Start a service with default configuration.
    pub fn with_defaults(mgr: Arc<BufferManager>) -> Self {
        Self::new(mgr, ServiceConfig::default())
    }

    /// The buffer manager the service runs against.
    pub fn buffer_manager(&self) -> &Arc<BufferManager> {
        &self.shared.mgr
    }

    /// Submit a query. Returns a handle immediately; the query launches once
    /// a concurrency slot and a memory reservation for its footprint are
    /// available. Fails with [`Error::Overloaded`] when the admission queue
    /// is full, without enqueueing.
    pub fn submit(&self, request: QueryRequest) -> Result<QueryHandle> {
        // Validate the plan up front so an unrunnable query is rejected at
        // submission, not after queueing.
        output_schema(&request.plan, &request.input.schema())?;
        self.enqueue(RequestKind::Aggregate(request))
    }

    /// Register a table for SQL queries under `name` with the given column
    /// names. Re-registering a name replaces the previous entry; queries
    /// already submitted keep the catalog snapshot they bound against.
    pub fn register_table(
        &self,
        name: impl Into<String>,
        columns: Vec<String>,
        input: QueryInput,
    ) -> Result<()> {
        let data = match input {
            QueryInput::Collection(c) => TableData::Collection(c),
            QueryInput::Table(t) => TableData::Paged(t),
        };
        self.catalog.lock().register(name, columns, data)
    }

    /// A snapshot of the SQL catalog (for direct use of `rexa-sql`, e.g.
    /// planning the same statement a submission would run).
    pub fn catalog(&self) -> Catalog {
        self.catalog.lock().clone()
    }

    /// Submit a SQL `SELECT` with default options. Parse and bind errors
    /// are returned immediately as a typed [`SqlError`] with the byte span
    /// of the offending text; nothing is queued for an invalid statement.
    pub fn submit_sql(&self, sql: &str) -> std::result::Result<QueryHandle, SqlError> {
        self.submit_sql_with(sql, QueryOptions::default())
    }

    /// [`submit_sql`](QueryService::submit_sql) with explicit options.
    pub fn submit_sql_with(
        &self,
        sql: &str,
        options: QueryOptions,
    ) -> std::result::Result<QueryHandle, SqlError> {
        let catalog = self.catalog.lock().clone();
        // Parse/bind/plan happen on the submitting thread, before anything
        // queues — tracing them here puts the front-end spans on the same
        // timeline as admission and execution.
        let plan = rexa_sql::plan_traced(sql, &catalog, options.spans.as_ref())?;
        self.enqueue(RequestKind::Sql {
            plan: Arc::new(plan),
            sql: sql.to_string(),
            options,
        })
        .map_err(SqlError::Engine)
    }

    fn enqueue(&self, request: RequestKind) -> Result<QueryHandle> {
        let now = Instant::now();
        let shared = Arc::new(QueryShared {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(QueryState::Queued),
            done: Condvar::new(),
            cancel: CancelToken::new(),
            deadline_fired: AtomicBool::new(false),
            deadline: request.options().deadline.map(|d| now + d),
            submitted_at: now,
        });
        let mut state = self.shared.state.lock();
        if state.shutdown {
            return Err(Error::Internal("query service is shut down".into()));
        }
        if state.queue.len() >= self.shared.config.queue_bound {
            self.shared.metrics.shed.incr();
            return Err(Error::Overloaded {
                queued: state.queue.len(),
                bound: self.shared.config.queue_bound,
            });
        }
        if let Some(deadline) = shared.deadline {
            state.timers.push((deadline, Arc::downgrade(&shared)));
        }
        state.live.push(Arc::downgrade(&shared));
        state.queue.push_back(QueuedQuery {
            shared: Arc::clone(&shared),
            request,
        });
        self.shared.metrics.submitted.incr();
        self.shared.metrics.queued.set(state.queue.len() as i64);
        drop(state);
        self.shared.work.notify_all();
        Ok(QueryHandle { shared })
    }

    /// All metrics of the service's stack — admission counters and gauges,
    /// buffer-pool activity, temp-file I/O, injected faults — rendered in
    /// the Prometheus text exposition format (version 0.0.4), ready to serve
    /// from a `/metrics` endpoint.
    pub fn metrics_text(&self) -> String {
        self.shared.mgr.metrics().render_prometheus()
    }

    /// The metrics registry everything is registered on (the buffer
    /// manager's), for tests and embedders that want typed access.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.shared.mgr.metrics()
    }

    /// Queries currently waiting for admission.
    pub fn queued(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// Queries currently executing.
    pub fn running(&self) -> usize {
        self.shared.state.lock().running
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            // Fail everything still queued; running queries — with or
            // without a deadline — are cancelled, and the scheduler joins
            // their drivers before exiting.
            for q in state.queue.drain(..) {
                q.shared.finish(Err(Error::Cancelled));
            }
            state.timers.clear();
            for weak in state.live.drain(..) {
                if let Some(q) = weak.upgrade() {
                    q.cancel.cancel();
                }
            }
        }
        self.shared.work.notify_all();
        if let Some(scheduler) = self.scheduler.take() {
            let _ = scheduler.join();
        }
    }
}

/// How long the scheduler sleeps when blocked with no deadline to watch.
/// Completions and submissions notify it, so this is only a backstop.
const IDLE_WAIT: Duration = Duration::from_millis(200);

fn scheduler_loop(shared: &Arc<ServiceShared>) {
    loop {
        let mut state = shared.state.lock();

        // Sweep deadlines: cancel every expired query, queued or running.
        let now = Instant::now();
        let mut next_deadline: Option<Instant> = None;
        state.timers.retain(|(deadline, weak)| {
            let Some(q) = weak.upgrade() else {
                return false;
            };
            if matches!(&*q.state.lock(), QueryState::Done(_)) {
                return false;
            }
            if *deadline <= now {
                q.deadline_fired.store(true, Ordering::Relaxed);
                q.cancel.cancel();
                return false;
            }
            next_deadline = Some(next_deadline.map_or(*deadline, |d| d.min(*deadline)));
            true
        });
        state.live.retain(|weak| {
            weak.upgrade()
                .is_some_and(|q| !matches!(&*q.state.lock(), QueryState::Done(_)))
        });

        // Drop queued queries that were cancelled (or deadline-expired)
        // before launch.
        let mut i = 0;
        while i < state.queue.len() {
            if state.queue[i].shared.cancel.is_cancelled() {
                let q = state.queue.remove(i).unwrap();
                let err = q.shared.map_error(Error::Cancelled);
                shared.metrics.failed.incr();
                if matches!(err, Error::DeadlineExceeded) {
                    shared.metrics.deadline_exceeded.incr();
                }
                q.shared.finish(Err(err));
            } else {
                i += 1;
            }
        }
        shared.metrics.queued.set(state.queue.len() as i64);

        // Reap drivers that have finished, so the handle list stays small
        // on a long-running service.
        let mut i = 0;
        while i < state.drivers.len() {
            if state.drivers[i].is_finished() {
                let _ = state.drivers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }

        if state.shutdown {
            if state.running == 0 {
                let drivers: Vec<_> = state.drivers.drain(..).collect();
                drop(state);
                for handle in drivers {
                    let _ = handle.join();
                }
                return;
            }
            // Wait for running drivers to observe cancellation and finish.
            shared.work.wait_for(&mut state, IDLE_WAIT);
            continue;
        }

        // Admission: FIFO head, when a slot is free and the reservation
        // succeeds. The reservation is attempted without holding the lock
        // (it may evict, which does I/O).
        let admitted = if state.running < shared.config.max_concurrent {
            let q = state.queue.pop_front();
            shared.metrics.queued.set(state.queue.len() as i64);
            q
        } else {
            None
        };
        let Some(q) = admitted else {
            // Nothing admissible: sleep until notified or the next deadline.
            wait_for_work(shared, &mut state, next_deadline, now);
            continue;
        };
        drop(state);

        let footprint = q
            .request
            .options()
            .footprint
            .unwrap_or_else(|| q.request.estimate(shared.mgr.page_size()));
        match reserve_traced(shared, &q, footprint) {
            Ok(reservation) => launch(shared, q, reservation),
            Err(_) => {
                let mut state = shared.state.lock();
                if state.running == 0 {
                    // A query that completed between the failed reserve and
                    // this lock released its reservation without us seeing
                    // it; drivers drop their grant *before* decrementing
                    // `running`, so with the count at zero a retry observes
                    // every release. Only if it fails again is the
                    // footprint genuinely unsatisfiable.
                    drop(state);
                    match reserve_traced(shared, &q, footprint) {
                        Ok(reservation) => launch(shared, q, reservation),
                        Err(e) => {
                            shared.metrics.failed.incr();
                            q.shared.finish(Err(e));
                        }
                    }
                } else {
                    // Headroom is low: put the query back at the front (it
                    // keeps its FIFO position) and wait for a completion.
                    state.queue.push_front(q);
                    shared.metrics.queued.set(state.queue.len() as i64);
                    wait_for_work(shared, &mut state, next_deadline, now);
                }
            }
        }
    }
}

/// Reserve the admission footprint, recording a `reserve` span on the
/// query's `service` track when it is traced — reservation may evict (and
/// so do I/O), which is exactly the admission latency worth seeing on a
/// timeline.
fn reserve_traced(
    shared: &ServiceShared,
    q: &QueuedQuery,
    footprint: usize,
) -> Result<MemoryReservation> {
    let sbuf = q
        .request
        .options()
        .spans
        .as_ref()
        .map(|sc| sc.track("service"));
    let t = sbuf.as_ref().map(|b| b.now_ns());
    let result = shared.mgr.reserve(footprint);
    if let (Some(b), Some(t)) = (&sbuf, t) {
        b.complete(
            "reserve",
            span_cat::SERVICE,
            t,
            arg1("bytes", footprint as u64),
        );
    }
    result
}

/// Count a reserved query as running and hand it to a fresh driver thread.
fn launch(shared: &Arc<ServiceShared>, q: QueuedQuery, reservation: MemoryReservation) {
    // Count the query as running before its driver exists, so a driver that
    // finishes instantly cannot underflow the count.
    {
        let mut state = shared.state.lock();
        state.running += 1;
        shared.metrics.running.set(state.running as i64);
    }
    let driver = spawn_driver(shared, q, reservation);
    shared.state.lock().drivers.push(driver);
}

fn wait_for_work(
    shared: &ServiceShared,
    state: &mut parking_lot::MutexGuard<'_, SchedulerState>,
    next_deadline: Option<Instant>,
    now: Instant,
) {
    match next_deadline {
        Some(d) => {
            shared.work.wait_until(state, d.min(now + IDLE_WAIT));
        }
        None => {
            shared.work.wait_for(state, IDLE_WAIT);
        }
    }
}

fn spawn_driver(
    shared: &Arc<ServiceShared>,
    q: QueuedQuery,
    reservation: MemoryReservation,
) -> JoinHandle<()> {
    let service = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("rexa-query-{}", q.shared.id))
        .spawn(move || {
            let QueuedQuery {
                shared: query,
                request,
            } = q;
            let queued_for = query.submitted_at.elapsed();
            *query.state.lock() = QueryState::Running;
            let stats_before = service.mgr.stats();
            let launched_at = Instant::now();
            service.metrics.queue_wait.observe(queued_for.as_secs_f64());
            if let Some(sc) = request.options().spans.as_ref() {
                // The queue-wait span runs from submission to launch. The
                // collector existed before submission (the caller made it),
                // so `now - queued_for` lands inside its epoch.
                let b = sc.track("service");
                let now = b.now_ns();
                b.complete_between(
                    "queue_wait",
                    span_cat::SERVICE,
                    now.saturating_sub(queued_for.as_nanos() as u64),
                    now,
                    NO_ARGS,
                );
            }

            // The reservation becomes the query's memory *grant*: the
            // operator carves its unspillable allocations (hash-table entry
            // arrays) out of it instead of charging the manager twice.
            let grant = Arc::new(ReservationGrant::new(reservation));
            let result = run_query(&service, &query, &request, Arc::clone(&grant))
                .map(|(output, stats)| QueryOutput {
                    output,
                    stats,
                    buffer: service.mgr.stats().delta_since(&stats_before),
                    queued_for,
                })
                .map_err(|e| query.map_error(e));

            service
                .metrics
                .query_duration
                .observe(launched_at.elapsed().as_secs_f64());
            match &result {
                Ok(_) => service.metrics.completed.incr(),
                Err(e) => {
                    service.metrics.failed.incr();
                    if matches!(e, Error::DeadlineExceeded) {
                        service.metrics.deadline_exceeded.incr();
                    }
                }
            }
            if let Some(slow) = &service.config.slow_query {
                let duration = launched_at.elapsed();
                if duration >= slow.threshold {
                    (slow.sink)(&slow_query_record(
                        &query, &request, duration, queued_for, &result,
                    ));
                }
            }
            // Release what is left of the grant before completing, so a
            // waiting query observes the headroom as soon as it is notified.
            drop(grant);
            // Free the run slot before delivering the result: a caller that
            // returns from `wait` must already see this query gone from the
            // running count and gauge.
            {
                let mut state = service.state.lock();
                state.running -= 1;
                service.metrics.running.set(state.running as i64);
            }
            service.work.notify_all();
            query.finish(result);
        })
        .expect("spawn query driver")
}

/// Build the slow-query log record for a completed (or failed) query.
fn slow_query_record(
    query: &QueryShared,
    request: &RequestKind,
    duration: Duration,
    queued: Duration,
    result: &Result<QueryOutput>,
) -> SlowQueryRecord {
    const SUMMARY_MAX: usize = 200;
    let (kind, summary) = match request {
        RequestKind::Aggregate(r) => (
            "aggregate",
            format!(
                "HASH_AGGREGATE groups={} aggregates={}",
                r.plan.group_cols.len(),
                r.plan.aggregates.len()
            ),
        ),
        RequestKind::Sql { sql, .. } => {
            let mut s = sql.trim().to_string();
            if s.len() > SUMMARY_MAX {
                let cut = (0..=SUMMARY_MAX).rev().find(|&i| s.is_char_boundary(i));
                s.truncate(cut.unwrap_or(0));
                s.push('…');
            }
            ("sql", s)
        }
    };
    let (spill_bytes, ht_resets, strategy, outcome) = match result {
        Ok(out) => (
            out.stats.profile.spill_bytes_written,
            out.stats.profile.ht_resets,
            out.stats.profile.strategy.clone(),
            "ok",
        ),
        Err(_) => (0, 0, String::new(), "error"),
    };
    SlowQueryRecord {
        id: query.id,
        kind,
        summary,
        duration,
        queued,
        spill_bytes,
        ht_resets,
        strategy,
        outcome,
    }
}

fn run_query(
    service: &ServiceShared,
    query: &QueryShared,
    request: &RequestKind,
    grant: Arc<ReservationGrant>,
) -> Result<(Option<ChunkCollection>, RunStats)> {
    query.cancel.check()?;
    let mut ctx = ExecContext::with_pool(Arc::clone(&service.pool))
        .with_cancel(query.cancel.clone())
        .with_grant(grant);
    if let Some(sc) = request.options().spans.as_ref() {
        ctx = ctx.with_spans(Arc::clone(sc));
    }
    let output_types = match request {
        RequestKind::Aggregate(r) => output_schema(&r.plan, &r.input.schema())?,
        RequestKind::Sql { plan, .. } => plan.output_types.clone(),
    };
    let options = request.options();
    let collected: Mutex<Option<ChunkCollection>> = Mutex::new(match &options.consumer {
        Some(_) => None,
        None => Some(ChunkCollection::new(output_types)),
    });
    let consumer = |chunk: DataChunk| -> Result<()> {
        match &options.consumer {
            Some(f) => f(chunk),
            None => collected
                .lock()
                .as_mut()
                .expect("collection present when no consumer is set")
                .push(chunk),
        }
    };
    let stats = match request {
        RequestKind::Aggregate(r) => {
            let schema = r.input.schema();
            let run = |source: &dyn ChunkSource| {
                hash_aggregate_streaming(
                    &service.mgr,
                    source,
                    &schema,
                    &r.plan,
                    &r.options.config,
                    &ctx,
                    &consumer,
                )
            };
            match &r.input {
                QueryInput::Collection(coll) => {
                    let source = CollectionSource::with_cancel(coll, query.cancel.clone());
                    run(&source)?
                }
                QueryInput::Table(table) => {
                    let source = table.scan_with_cancel(&service.mgr, query.cancel.clone());
                    run(&source)?
                }
            }
        }
        RequestKind::Sql { plan, options, .. } => {
            rexa_sql::execute_streaming(&service.mgr, plan, &options.config, &ctx, &consumer)?.run
        }
    };
    Ok((collected.into_inner(), stats))
}
