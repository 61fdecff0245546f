//! The unified buffer manager.

use crate::eviction::{EvictionQueues, QueueEntry};
use crate::handle::{BlockHandle, BufferTag, DiskLocation, PinGuard, Residency};
use crate::raw::RawBuffer;
use crate::stats::BufferStats;
use parking_lot::Mutex;
use rexa_exec::{Error, Result};
use rexa_obs::{Counter, EventTrace, MetricsRegistry, TraceEventKind};
use rexa_storage::{BlockId, DatabaseFile, IoBackend, StdIo, TempFileManager, DEFAULT_PAGE_SIZE};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Configuration of a [`BufferManager`].
#[derive(Debug, Clone)]
pub struct BufferManagerConfig {
    /// Total memory limit in bytes for resident pages plus non-paged
    /// reservations.
    pub memory_limit: usize,
    /// Page size for persistent and fixed-size temporary pages
    /// (default: 256 KiB, DuckDB's OLAP page size).
    pub page_size: usize,
    /// Directory for temporary spill files.
    pub temp_dir: PathBuf,
    /// The I/O backend temp spill files are written through (default:
    /// [`StdIo`]). Chaos tests install a
    /// [`FaultInjector`](rexa_storage::FaultInjector) here.
    pub io_backend: Arc<dyn IoBackend>,
    /// How many times a *transient* spill-write error (interrupted /
    /// would-block / timed-out) is retried with exponential backoff before
    /// the spill is abandoned with
    /// [`Error::SpillFailed`](rexa_exec::Error::SpillFailed). Fatal errors
    /// (`ENOSPC`, device errors) are never retried. Default: 3.
    pub spill_retries: u32,
    /// Backoff before the first spill retry; doubles per retry (capped at
    /// 8×). Default: 1 ms.
    pub spill_backoff: Duration,
    /// Metrics registry the manager's counters are registered on. `None`
    /// (the default) creates a fresh private registry; a query service
    /// shares one registry across managers and its own counters so a
    /// single Prometheus scrape sees everything.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Event trace for slow-path forensics (spills, evictions,
    /// retry/backoff, degradation decisions). `None` disables tracing.
    pub trace: Option<EventTrace>,
    /// Open the slotted temp spill file with direct I/O (`O_DIRECT` on
    /// Linux; buffered fallback elsewhere and on filesystems that reject
    /// it): spill writes and reloads go straight to the device instead of
    /// through the page cache. Spilled pages are re-read at most once, so
    /// double-buffering them (pool + page cache) wastes memory the limit
    /// is supposed to cap; direct I/O also exposes the device's real
    /// latency, which every spill write and reload pays inline on the
    /// evicting or pinning thread. Requires a page size that is a multiple
    /// of 4 KiB. Default: off.
    pub temp_direct_io: bool,
}

impl BufferManagerConfig {
    /// A config with the given limit and default page size, spilling
    /// into a fresh process-unique scratch directory.
    pub fn with_limit(memory_limit: usize) -> Self {
        BufferManagerConfig {
            memory_limit,
            page_size: DEFAULT_PAGE_SIZE,
            temp_dir: rexa_storage::scratch_dir("spill").expect("cannot create temp dir"),
            io_backend: Arc::new(StdIo),
            spill_retries: 3,
            spill_backoff: Duration::from_millis(1),
            metrics: None,
            trace: None,
            temp_direct_io: false,
        }
    }

    /// Builder-style override of the page size.
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Builder-style override of the temp directory.
    pub fn temp_dir(mut self, dir: PathBuf) -> Self {
        self.temp_dir = dir;
        self
    }

    /// Builder-style override of the I/O backend.
    pub fn io_backend(mut self, backend: Arc<dyn IoBackend>) -> Self {
        self.io_backend = backend;
        self
    }

    /// Builder-style override of the transient-spill retry budget.
    pub fn spill_retries(mut self, retries: u32) -> Self {
        self.spill_retries = retries;
        self
    }

    /// Builder-style override of the initial spill-retry backoff.
    pub fn spill_backoff(mut self, backoff: Duration) -> Self {
        self.spill_backoff = backoff;
        self
    }

    /// Builder-style: register the manager's counters on a shared registry.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Builder-style: record slow-path events (spill, eviction, retry,
    /// degradation) into `trace`.
    pub fn trace(mut self, trace: EventTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Builder-style: open the temp spill file with direct I/O (`O_DIRECT`).
    pub fn temp_direct_io(mut self, on: bool) -> Self {
        self.temp_direct_io = on;
        self
    }
}

/// The manager's monotone event counters, registry-backed: the registry is
/// the single source of truth, and [`BufferStats`] is a façade over it.
#[derive(Debug)]
struct Counters {
    evictions_persistent: Counter,
    evictions_temporary: Counter,
    persistent_bytes_loaded: Counter,
    buffer_reuses: Counter,
    allocations: Counter,
    spill_retries: Counter,
    spill_failures: Counter,
}

impl Counters {
    fn register(reg: &MetricsRegistry) -> Self {
        Counters {
            evictions_persistent: reg.counter(
                "rexa_evictions_persistent_total",
                "Persistent pages evicted (free: the database file has them).",
            ),
            evictions_temporary: reg.counter(
                "rexa_evictions_temporary_total",
                "Temporary pages evicted (each one is a spill write).",
            ),
            persistent_bytes_loaded: reg.counter(
                "rexa_persistent_bytes_loaded_total",
                "Bytes of persistent pages read from the database file on pin.",
            ),
            buffer_reuses: reg.counter(
                "rexa_buffer_reuses_total",
                "Evicted buffers handed directly to a same-size allocation.",
            ),
            allocations: reg.counter(
                "rexa_allocations_total",
                "Temporary buffer allocations (fixed and variable size).",
            ),
            spill_retries: reg.counter(
                "rexa_spill_retries_total",
                "Transient spill-write errors retried with backoff.",
            ),
            spill_failures: reg.counter(
                "rexa_spill_failures_total",
                "Spills abandoned with a typed SpillFailed error.",
            ),
        }
    }
}

/// Which part of the pool a byte is attributed to. The three categories
/// partition `used`: `used == persistent + temporary + non_paged` holds
/// whenever the accounting lock is free, which is what makes
/// [`BufferManager::stats`] internally consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemCat {
    Persistent,
    Temporary,
    NonPaged,
}

fn cat_of(tag: BufferTag) -> MemCat {
    if tag.is_temporary() {
        MemCat::Temporary
    } else {
        MemCat::Persistent
    }
}

/// All memory gauges behind one lock: admission, release, and
/// category-to-category transfer each happen in a single critical section,
/// so every observer sees `used` equal to the sum of the categories. The
/// lock is taken once per page-granular operation (allocate, pin-load,
/// evict, reservation resize) — never per row — so it is not a hot-path
/// cost.
#[derive(Debug, Default)]
struct Accounting {
    limit: usize,
    used: usize,
    persistent: usize,
    temporary: usize,
    non_paged: usize,
}

impl Accounting {
    fn slot(&mut self, cat: MemCat) -> &mut usize {
        match cat {
            MemCat::Persistent => &mut self.persistent,
            MemCat::Temporary => &mut self.temporary,
            MemCat::NonPaged => &mut self.non_paged,
        }
    }

    /// Admit `size` bytes into `cat` if they fit under the limit.
    /// `checked_add`: a pathological `size` must not wrap around and "fit"
    /// (release builds do not trap on overflow).
    fn admit(&mut self, size: usize, cat: MemCat) -> bool {
        if self.used.checked_add(size).is_some_and(|t| t <= self.limit) {
            self.used += size;
            *self.slot(cat) += size;
            true
        } else {
            false
        }
    }

    /// Release `size` bytes attributed to `cat`.
    fn release(&mut self, size: usize, cat: MemCat) {
        debug_assert!(self.used >= size, "memory accounting underflow");
        debug_assert!(*self.slot(cat) >= size, "category accounting underflow");
        self.used -= size;
        *self.slot(cat) -= size;
    }

    /// Move `size` bytes from one category to another; `used` is untouched
    /// (this is the buffer-reuse handoff: the evicted buffer's bytes become
    /// the new owner's bytes in one step).
    fn transfer(&mut self, size: usize, from: MemCat, to: MemCat) {
        debug_assert!(*self.slot(from) >= size, "transfer source underflow");
        *self.slot(from) -= size;
        *self.slot(to) += size;
    }
}

/// The unified buffer manager (paper Section III): a single memory pool and
/// eviction structure for persistent pages, temporary pages, and non-paged
/// reservations.
pub struct BufferManager {
    page_size: usize,
    accounting: Mutex<Accounting>,
    temp: TempFileManager,
    queues: EvictionQueues,
    counters: Counters,
    metrics: Arc<MetricsRegistry>,
    trace: Option<EventTrace>,
    spill_retries: u32,
    spill_backoff: Duration,
    /// Serializes eviction scans so concurrent reservations do not race each
    /// other through the queue and over-evict.
    evict_lock: Mutex<()>,
    weak_self: Weak<BufferManager>,
}

impl std::fmt::Debug for BufferManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferManager")
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferManager {
    /// Create a buffer manager.
    pub fn new(config: BufferManagerConfig) -> Result<Arc<Self>> {
        assert!(config.page_size >= 64, "page size too small");
        let metrics = config.metrics.unwrap_or_default();
        let temp = TempFileManager::with_backend_and_metrics(
            config.temp_dir,
            config.page_size,
            config.io_backend,
            &metrics,
        )?
        .with_direct_io(config.temp_direct_io);
        let counters = Counters::register(&metrics);
        Ok(Arc::new_cyclic(|weak| BufferManager {
            page_size: config.page_size,
            accounting: Mutex::new(Accounting {
                limit: config.memory_limit,
                ..Accounting::default()
            }),
            temp,
            queues: EvictionQueues::new(),
            counters,
            metrics,
            trace: config.trace,
            spill_retries: config.spill_retries,
            spill_backoff: config.spill_backoff,
            evict_lock: Mutex::new(()),
            weak_self: weak.clone(),
        }))
    }

    /// The registry holding this manager's counters (and the temp-file
    /// I/O counters). Share it with a [`FaultInjector`](rexa_storage::FaultInjector)
    /// or a query service to get one scrapeable source of truth.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The attached event trace, if any.
    pub fn trace(&self) -> Option<&EventTrace> {
        self.trace.as_ref()
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The current memory limit.
    pub fn memory_limit(&self) -> usize {
        self.accounting.lock().limit
    }

    /// Change the memory limit at runtime.
    ///
    /// Lowering the limit below current usage is safe: unpinned pages are
    /// evicted best-effort right away, while pinned pages and outstanding
    /// [`MemoryReservation`]s keep their bytes (they were admitted under the
    /// old limit and cannot be reclaimed without corrupting their owners).
    /// Usage may therefore stay above the new limit until those are
    /// released; every *new* reservation is checked against the new limit
    /// and fails rather than succeeding spuriously.
    pub fn set_memory_limit(&self, limit: usize) {
        self.accounting.lock().limit = limit;
        let _guard = self.evict_lock.lock();
        while self.memory_used() > self.memory_limit() {
            match self.evict_one() {
                Ok(Some((buf, tag))) => {
                    let freed = buf.len();
                    drop(buf);
                    self.accounting.lock().release(freed, cat_of(tag));
                }
                // Nothing evictable, or a spill I/O error: stop. This path
                // is best-effort; the next reservation retries eviction and
                // is where failures are reported.
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Bytes currently counted against the limit.
    pub fn memory_used(&self) -> usize {
        self.accounting.lock().used
    }

    /// A snapshot of all counters and gauges. The memory gauges are read in
    /// one critical section of the accounting lock, so
    /// `memory_used == persistent_resident + temporary_resident + non_paged`
    /// holds in every snapshot, even under concurrent load (the counters
    /// are monotone registry metrics read individually — façade over the
    /// single source of truth).
    pub fn stats(&self) -> BufferStats {
        let (memory_used, memory_limit, persistent_resident, temporary_resident, non_paged) = {
            let a = self.accounting.lock();
            (a.used, a.limit, a.persistent, a.temporary, a.non_paged)
        };
        BufferStats {
            memory_used,
            memory_limit,
            persistent_resident,
            temporary_resident,
            non_paged,
            temp_bytes_on_disk: self.temp.bytes_on_disk(),
            temp_bytes_written: self.temp.bytes_written(),
            temp_bytes_read: self.temp.bytes_read(),
            evictions_persistent: self.counters.evictions_persistent.get(),
            evictions_temporary: self.counters.evictions_temporary.get(),
            persistent_bytes_loaded: self.counters.persistent_bytes_loaded.get(),
            buffer_reuses: self.counters.buffer_reuses.get(),
            allocations: self.counters.allocations.get(),
            spill_retries: self.counters.spill_retries.get(),
            spill_failures: self.counters.spill_failures.get(),
            readahead_hits: 0,
            readahead_misses: 0,
        }
    }

    /// Temp-file slots currently holding live spilled pages. Zero when
    /// nothing is spilled; the chaos tests assert this returns to its
    /// pre-query baseline after every fault-failed query.
    pub fn temp_slots_in_use(&self) -> u64 {
        self.temp.slots_in_use()
    }

    // ---- reservation & eviction ------------------------------------------

    /// Reserve `size` bytes against the limit, attributed to `cat`, evicting
    /// as needed. Returns a reusable evicted buffer of exactly `size` bytes
    /// if eviction produced one and `allow_reuse` is set; the returned
    /// buffer's bytes remain accounted, already re-attributed to `cat`
    /// (ownership of the reservation transfers with it).
    fn reserve_bytes(
        &self,
        size: usize,
        cat: MemCat,
        allow_reuse: bool,
    ) -> Result<Option<RawBuffer>> {
        loop {
            if self.accounting.lock().admit(size, cat) {
                return Ok(None);
            }
            // Over the limit: evict. Serialize evictors so two threads do
            // not both drain the queue for one reservation's worth of space.
            let _guard = self.evict_lock.lock();
            match self.evict_one()? {
                Some((buf, tag)) => {
                    if allow_reuse && buf.len() == size {
                        self.counters.buffer_reuses.incr();
                        // The victim's bytes become the caller's bytes in one
                        // critical section; `used` never dips or double-counts.
                        self.accounting.lock().transfer(size, cat_of(tag), cat);
                        return Ok(Some(buf));
                    }
                    let freed = buf.len();
                    drop(buf);
                    self.accounting.lock().release(freed, cat_of(tag));
                }
                None => {
                    // Nothing evictable — but concurrent releases may have
                    // freed room while we drained the queue (e.g. another
                    // query's partitions being destroyed). Only report OOM
                    // if the request still does not fit *now*.
                    let (limit, used_now) = {
                        let mut a = self.accounting.lock();
                        if a.admit(size, cat) {
                            return Ok(None);
                        }
                        (a.limit, a.used)
                    };
                    return Err(Error::OutOfMemory {
                        requested: size,
                        limit,
                        used: used_now,
                    });
                }
            }
        }
    }

    /// Release `size` reserved bytes attributed to `cat`.
    fn release_bytes(&self, size: usize, cat: MemCat) {
        self.accounting.lock().release(size, cat);
    }

    /// True for I/O errors worth retrying: the operation may succeed if
    /// simply re-issued (signal interruption, saturated device queue).
    /// `ENOSPC` and real device errors are fatal — retrying cannot help.
    fn is_transient(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        )
    }

    /// Run a spill write, retrying transient I/O errors up to the configured
    /// budget with exponential backoff. A fatal error — or a transient one
    /// that outlives the budget — is wrapped in the typed
    /// [`Error::SpillFailed`] so callers can tell "the disk rejected the
    /// spill" apart from plain read I/O failures.
    fn spill_with_retry<T>(&self, bytes: usize, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut retries = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(Error::Io(e)) if retries < self.spill_retries && Self::is_transient(&e) => {
                    self.counters.spill_retries.incr();
                    let backoff = self.spill_backoff * (1u32 << retries.min(3));
                    if let Some(trace) = &self.trace {
                        trace.record(TraceEventKind::Retry {
                            attempt: retries + 1,
                        });
                        trace.record(TraceEventKind::Backoff {
                            micros: backoff.as_micros() as u64,
                        });
                    }
                    std::thread::sleep(backoff);
                    retries += 1;
                }
                Err(Error::Io(e)) => {
                    self.counters.spill_failures.incr();
                    if let Some(trace) = &self.trace {
                        trace.record(TraceEventKind::Degradation {
                            detail: format!(
                                "spill of {bytes} bytes abandoned after {retries} retries: {e}"
                            ),
                        });
                    }
                    return Err(Error::SpillFailed {
                        source: e,
                        bytes,
                        retries,
                    });
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Evict one block: pop queue entries until a valid, unpinned, loaded
    /// candidate is found; spill it if temporary; return its buffer and tag
    /// with the bytes still accounted to the victim's category — the caller
    /// must `transfer` (reuse) or `release` (free) them.
    /// `Ok(None)` means nothing is evictable.
    ///
    /// A failed spill degrades gracefully: the candidate stays loaded, is
    /// re-enqueued (so it becomes evictable again once the fault clears or
    /// disk space frees up), and the error propagates to whichever
    /// reservation needed the memory — that query fails; the manager and
    /// every other block stay consistent.
    fn evict_one(&self) -> Result<Option<(RawBuffer, BufferTag)>> {
        while let Some(handle) = self.queues.pop() {
            if handle.pins.load(Ordering::Acquire) != 0 {
                continue; // pinned; its next unpin re-enqueues it
            }
            let mut state = handle.state.lock();
            if handle.pins.load(Ordering::Acquire) != 0 {
                continue; // raced with a pin
            }
            let Residency::Loaded(buf) = &*state else {
                continue; // already evicted
            };
            // SAFETY: unpinned and state-locked: no concurrent writer.
            let bytes = unsafe { buf.slice() };
            // Spill temporaries before releasing the buffer.
            let spilled = match handle.tag {
                BufferTag::Persistent => {
                    // Free: the page is already in the database file.
                    handle
                        .persistent_id()
                        .ok_or_else(|| Error::Internal("persistent block without id".into()))
                        .map(DiskLocation::Database)
                }
                BufferTag::TempFixed => self
                    .spill_with_retry(bytes.len(), || self.temp.write_slot(bytes))
                    .map(DiskLocation::TempSlot),
                BufferTag::TempVariable => self
                    .spill_with_retry(bytes.len(), || self.temp.write_var(bytes))
                    .map(DiskLocation::TempVar),
            };
            let loc = match spilled {
                Ok(loc) => {
                    let temporary = handle.tag.is_temporary();
                    let counter = if temporary {
                        &self.counters.evictions_temporary
                    } else {
                        &self.counters.evictions_persistent
                    };
                    counter.incr();
                    if let Some(trace) = &self.trace {
                        if temporary {
                            trace.record(TraceEventKind::Spill {
                                bytes: handle.size as u64,
                            });
                        }
                        trace.record(TraceEventKind::Eviction {
                            bytes: handle.size as u64,
                            temporary,
                        });
                    }
                    loc
                }
                Err(e) => {
                    // The block keeps its buffer; make it evictable again
                    // and report the failure to the starved reservation.
                    drop(state);
                    self.queue_for_eviction(&handle);
                    return Err(e);
                }
            };
            let old = std::mem::replace(&mut *state, Residency::OnDisk(loc));
            drop(state);
            let Residency::Loaded(buf) = old else {
                unreachable!()
            };
            return Ok(Some((buf, handle.tag)));
        }
        Ok(None)
    }

    /// Called from `BlockHandle::drop` for a still-resident block.
    pub(crate) fn on_destroy_loaded(&self, tag: BufferTag, size: usize) {
        self.release_bytes(size, cat_of(tag));
    }

    /// Called from `BlockHandle::drop` for a spilled block: free disk space.
    pub(crate) fn on_destroy_spilled(&self, loc: &DiskLocation, size: usize) {
        match loc {
            DiskLocation::Database(_) => {} // persistent data stays
            DiskLocation::TempSlot(slot) => self.temp.free_slot(*slot),
            DiskLocation::TempVar(var) => {
                let _ = self.temp.free_var(*var, size);
            }
        }
    }

    /// Make an unpinned block evictable.
    pub(crate) fn queue_for_eviction(&self, handle: &Arc<BlockHandle>) {
        let seq = handle.seq.fetch_add(1, Ordering::AcqRel) + 1;
        self.queues.push(
            QueueEntry {
                block: Arc::downgrade(handle),
                seq,
            },
            handle.tag.is_temporary(),
        );
    }

    // ---- allocation -------------------------------------------------------

    fn self_arc(&self) -> Arc<BufferManager> {
        self.weak_self.upgrade().expect("manager alive")
    }

    fn allocate_temp(&self, size: usize, tag: BufferTag) -> Result<(Arc<BlockHandle>, PinGuard)> {
        let reused = self.reserve_bytes(size, cat_of(tag), true)?;
        let buf = reused.unwrap_or_else(|| RawBuffer::alloc(size));
        let ptr = buf.as_ptr();
        self.counters.allocations.incr();
        let handle = Arc::new(BlockHandle {
            tag,
            size,
            db: None,
            state: Mutex::new(Residency::Loaded(buf)),
            pins: AtomicUsize::new(1),
            seq: AtomicU64::new(0),
            mgr: self.weak_self.clone(),
        });
        let guard = PinGuard {
            handle: Arc::clone(&handle),
            ptr,
            len: size,
        };
        Ok((handle, guard))
    }

    /// Allocate a pinned, zeroed, page-size temporary buffer (the paper's
    /// "paged fixed-size allocation" — the workhorse for intermediates).
    pub fn allocate_page(&self) -> Result<(Arc<BlockHandle>, PinGuard)> {
        self.allocate_temp(self.page_size, BufferTag::TempFixed)
    }

    /// Allocate a pinned, zeroed temporary buffer of arbitrary size (the
    /// paper's "paged variable-size allocation" — used sparingly, e.g. for
    /// strings larger than a page).
    pub fn allocate_variable(&self, size: usize) -> Result<(Arc<BlockHandle>, PinGuard)> {
        self.allocate_temp(size, BufferTag::TempVariable)
    }

    /// Register a page of the database file with the pool. The page is not
    /// loaded until pinned.
    pub fn register_persistent(&self, db: &Arc<DatabaseFile>, id: BlockId) -> Arc<BlockHandle> {
        Arc::new(BlockHandle {
            tag: BufferTag::Persistent,
            size: db.page_size(),
            db: Some((Arc::clone(db), id)),
            state: Mutex::new(Residency::OnDisk(DiskLocation::Database(id))),
            pins: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            mgr: self.weak_self.clone(),
        })
    }

    /// Pin a block, loading it from the database file or temp storage if it
    /// is not resident. The returned guard keeps it resident.
    pub fn pin(&self, handle: &Arc<BlockHandle>) -> Result<PinGuard> {
        handle.pins.fetch_add(1, Ordering::AcqRel);
        // Invalidate any queued eviction entry.
        handle.seq.fetch_add(1, Ordering::AcqRel);
        match self.pin_inner(handle) {
            Ok(guard) => Ok(guard),
            Err(e) => {
                if handle.pins.fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.queue_for_eviction(handle);
                }
                Err(e)
            }
        }
    }

    fn pin_inner(&self, handle: &Arc<BlockHandle>) -> Result<PinGuard> {
        // Fast path: already resident.
        {
            let state = handle.state.lock();
            if let Residency::Loaded(buf) = &*state {
                return Ok(PinGuard {
                    handle: Arc::clone(handle),
                    ptr: buf.as_ptr(),
                    len: handle.size,
                });
            }
        }
        // Slow path: reserve memory *without* holding the state lock (the
        // reservation may need to evict other blocks), then load.
        let cat = cat_of(handle.tag);
        let reused = self.reserve_bytes(handle.size, cat, true)?;
        let mut state = handle.state.lock();
        match &*state {
            Residency::Loaded(buf) => {
                // Another thread loaded it while we reserved: give back.
                let ptr = buf.as_ptr();
                match reused {
                    Some(buf) => {
                        let len = buf.len();
                        drop(buf);
                        self.release_bytes(len, cat);
                    }
                    None => self.release_bytes(handle.size, cat),
                }
                Ok(PinGuard {
                    handle: Arc::clone(handle),
                    ptr,
                    len: handle.size,
                })
            }
            Residency::OnDisk(loc) => {
                let buf = reused.unwrap_or_else(|| RawBuffer::alloc(handle.size));
                // SAFETY: buffer not yet shared; exclusive during load.
                let dst = unsafe { buf.slice_mut() };
                let load = match loc {
                    DiskLocation::Database(id) => {
                        let (db, _) = handle
                            .db
                            .as_ref()
                            .expect("persistent block without database file");
                        db.read_block(*id, dst).map(|()| {
                            self.counters
                                .persistent_bytes_loaded
                                .add(handle.size as u64)
                        })
                    }
                    DiskLocation::TempSlot(slot) => self.temp.read_slot(*slot, dst),
                    DiskLocation::TempVar(var) => self.temp.read_var(*var, dst),
                };
                if let Err(e) = load {
                    // Leave the block on disk; release the reservation.
                    drop(buf);
                    self.release_bytes(handle.size, cat);
                    return Err(e);
                }
                let ptr = buf.as_ptr();
                *state = Residency::Loaded(buf);
                Ok(PinGuard {
                    handle: Arc::clone(handle),
                    ptr,
                    len: handle.size,
                })
            }
        }
    }

    /// A non-paged reservation: memory the caller allocates itself (e.g. a
    /// hash table's entry array) but that must count against the limit and
    /// may push pages out (Cooperative Memory Management's behaviour).
    pub fn reserve(&self, size: usize) -> Result<MemoryReservation> {
        self.reserve_bytes(size, MemCat::NonPaged, false)?;
        Ok(MemoryReservation {
            mgr: self.self_arc(),
            size,
        })
    }
}

/// A non-paged memory reservation; dropping releases the bytes. Supports
/// resizing for growable structures.
#[derive(Debug)]
pub struct MemoryReservation {
    mgr: Arc<BufferManager>,
    size: usize,
}

impl MemoryReservation {
    /// Currently reserved bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Grow or shrink the reservation. Growing may evict pages and can fail
    /// with [`Error::OutOfMemory`]; on failure the reservation is unchanged.
    pub fn resize(&mut self, new_size: usize) -> Result<()> {
        if new_size > self.size {
            self.mgr
                .reserve_bytes(new_size - self.size, MemCat::NonPaged, false)?;
        } else {
            self.mgr
                .release_bytes(self.size - new_size, MemCat::NonPaged);
        }
        self.size = new_size;
        Ok(())
    }

    /// Move `bytes` out of this reservation into a new one. This is a local
    /// transfer — global accounting is untouched, so it cannot fail for lack
    /// of memory and cannot race other reservations. Returns `None` when the
    /// reservation holds fewer than `bytes`.
    ///
    /// This is how an admission grant is *spent*: the query service reserves
    /// a query's footprint up front, and the operator carves its unspillable
    /// allocations out of the grant instead of charging the manager twice.
    pub fn split(&mut self, bytes: usize) -> Option<MemoryReservation> {
        if bytes > self.size {
            return None;
        }
        self.size -= bytes;
        Some(MemoryReservation {
            mgr: Arc::clone(&self.mgr),
            size: bytes,
        })
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.mgr.release_bytes(self.size, MemCat::NonPaged);
    }
}

/// A shareable admission grant over a [`MemoryReservation`].
///
/// Implements [`rexa_exec::MemoryGrant`], so an operator running with an
/// [`ExecContext`](rexa_exec::ExecContext) that carries the grant spends it
/// as it materialises the memory the footprint estimate promised, instead of
/// charging the manager twice (once for the reservation, once for the
/// allocation).
///
/// `spend` is the per-fragment hot path of a many-worker aggregation, and
/// each call used to lock the reservation and walk the manager's global
/// `Accounting` mutex. Spends are now *batched*: the slow path releases a
/// whole [`SPEND_BATCH`] chunk from the reservation in one accounting
/// transaction and parks the surplus in an atomic `prepaid` credit, so the
/// common spend is a single CAS that touches neither lock.
pub struct ReservationGrant {
    inner: Mutex<MemoryReservation>,
    /// Bytes already released to the global accounting but not yet consumed
    /// by `spend` calls. Invariant: a grant's promised bytes are
    /// `inner.size() + prepaid`; prepaid bytes need no release on drop
    /// because the accounting already saw them go.
    prepaid: AtomicUsize,
}

/// Granularity of batched grant spends: one accounting transaction buys this
/// many bytes of lock-free spending headroom.
const SPEND_BATCH: usize = 256 << 10;

impl ReservationGrant {
    /// Wrap a reservation for sharing across the query's worker threads.
    pub fn new(reservation: MemoryReservation) -> Self {
        ReservationGrant {
            inner: Mutex::new(reservation),
            prepaid: AtomicUsize::new(0),
        }
    }

    /// Bytes not yet carved out of the grant (including batched spend
    /// credit that has not been consumed yet).
    pub fn remaining(&self) -> usize {
        self.inner.lock().size() + self.prepaid.load(Ordering::Relaxed)
    }

    /// CAS-subtract up to `want` bytes from the prepaid credit; returns how
    /// many were actually taken.
    fn take_prepaid(&self, want: usize) -> usize {
        let mut cur = self.prepaid.load(Ordering::Relaxed);
        loop {
            let take = want.min(cur);
            if take == 0 {
                return 0;
            }
            match self.prepaid.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => cur = now,
            }
        }
    }
}

impl rexa_exec::MemoryGrant for ReservationGrant {
    fn take(&self, bytes: usize) -> Option<Box<dyn std::any::Any + Send + Sync>> {
        let mut r = self.inner.lock();
        if r.size() < bytes {
            // The reservation alone cannot cover the carve, but batched
            // spend credit might. Reclaiming it means re-reserving from the
            // accounting (the credit was already released), which can fail
            // under pressure — on failure the credit goes back untouched.
            let deficit = bytes - r.size();
            let reclaim = self.take_prepaid(deficit);
            let grown = r.size() + reclaim;
            if reclaim < deficit || r.resize(grown).is_err() {
                self.prepaid.fetch_add(reclaim, Ordering::Relaxed);
                return None;
            }
        }
        r.split(bytes)
            .map(|res| Box::new(res) as Box<dyn std::any::Any + Send + Sync>)
    }

    fn spend(&self, bytes: usize) -> usize {
        // Fast path: consume prepaid credit without touching any lock.
        let mut cur = self.prepaid.load(Ordering::Relaxed);
        while cur >= bytes {
            match self.prepaid.compare_exchange_weak(
                cur,
                cur - bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return bytes,
                Err(now) => cur = now,
            }
        }
        // Slow path: drain what credit there is, release the rest from the
        // reservation, and prepay a batch so the next spends stay lock-free.
        let from_prepaid = self.take_prepaid(bytes);
        let mut r = self.inner.lock();
        let need = bytes - from_prepaid;
        let direct = need.min(r.size());
        let batch = SPEND_BATCH.min(r.size() - direct);
        let shrunk = r.size() - direct - batch;
        // Shrinking cannot fail.
        let _ = r.resize(shrunk);
        if batch > 0 {
            self.prepaid.fetch_add(batch, Ordering::Relaxed);
        }
        from_prepaid + direct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexa_storage::scratch_dir;

    const PAGE: usize = 1024;

    fn mgr_with(limit_pages: usize) -> Arc<BufferManager> {
        BufferManager::new(
            BufferManagerConfig::with_limit(limit_pages * PAGE)
                .page_size(PAGE)
                .temp_dir(scratch_dir("mgr").unwrap()),
        )
        .unwrap()
    }

    fn fill(pin: &PinGuard, byte: u8) {
        pin.write_at(0, &vec![byte; pin.len()]);
    }

    fn check(pin: &PinGuard, byte: u8) {
        let mut buf = vec![0u8; pin.len()];
        pin.read_at(0, &mut buf);
        assert!(buf.iter().all(|&b| b == byte), "page content mismatch");
    }

    #[test]
    fn allocate_within_limit() {
        let mgr = mgr_with(4);
        let (_h1, p1) = mgr.allocate_page().unwrap();
        let (_h2, p2) = mgr.allocate_page().unwrap();
        fill(&p1, 0xAA);
        fill(&p2, 0xBB);
        assert_eq!(mgr.memory_used(), 2 * PAGE);
        assert_eq!(mgr.stats().temporary_resident, 2 * PAGE);
        check(&p1, 0xAA);
        check(&p2, 0xBB);
    }

    #[test]
    fn pinned_pages_cannot_be_evicted_oom() {
        let mgr = mgr_with(2);
        let (_h1, _p1) = mgr.allocate_page().unwrap();
        let (_h2, _p2) = mgr.allocate_page().unwrap();
        // Both pages pinned: a third allocation must fail.
        let err = mgr.allocate_page().unwrap_err();
        assert!(err.is_oom(), "expected OOM, got {err}");
    }

    #[test]
    fn unpinned_temp_page_spills_and_reloads() {
        let mgr = mgr_with(2);
        let (h1, p1) = mgr.allocate_page().unwrap();
        fill(&p1, 0x11);
        drop(p1); // unpin -> evictable
        let (_h2, _p2) = mgr.allocate_page().unwrap();
        let (_h3, _p3) = mgr.allocate_page().unwrap(); // forces eviction of h1
        assert!(!h1.is_loaded(), "h1 should have been spilled");
        let stats = mgr.stats();
        assert_eq!(stats.evictions_temporary, 1);
        assert_eq!(stats.temp_bytes_written, PAGE as u64);
        assert_eq!(stats.temp_bytes_on_disk, PAGE as u64);

        drop(_p2); // make room (h2 becomes the eviction candidate)
        let p1b = mgr.pin(&h1).unwrap();
        check(&p1b, 0x11);
        let stats = mgr.stats();
        assert_eq!(stats.temp_bytes_read, PAGE as u64);
        // h1's slot was freed on load; h2 was evicted to make room.
        assert_eq!(stats.evictions_temporary, 2);
        assert_eq!(stats.temp_bytes_on_disk, PAGE as u64);
    }

    #[test]
    fn eviction_reuses_buffer_for_same_size_request() {
        let mgr = mgr_with(1);
        let (_h1, p1) = mgr.allocate_page().unwrap();
        drop(p1);
        let (_h2, _p2) = mgr.allocate_page().unwrap();
        assert_eq!(mgr.stats().buffer_reuses, 1);
        assert_eq!(mgr.memory_used(), PAGE);
    }

    #[test]
    fn variable_size_allocation_spills_to_own_file() {
        let mgr = mgr_with(8);
        let (hv, pv) = mgr.allocate_variable(3 * PAGE).unwrap();
        fill(&pv, 0x42);
        drop(pv);
        // Fill memory with pages to force the variable buffer out.
        let mut pins = Vec::new();
        for _ in 0..8 {
            pins.push(mgr.allocate_page().unwrap());
        }
        assert!(!hv.is_loaded());
        assert_eq!(mgr.stats().temp_bytes_written, 3 * PAGE as u64);
        pins.truncate(4);
        let pv2 = mgr.pin(&hv).unwrap();
        check(&pv2, 0x42);
    }

    #[test]
    fn destroy_loaded_releases_memory() {
        let mgr = mgr_with(4);
        let (h, p) = mgr.allocate_page().unwrap();
        drop(p);
        drop(h);
        assert_eq!(mgr.memory_used(), 0);
        assert_eq!(mgr.stats().temporary_resident, 0);
    }

    #[test]
    fn destroy_spilled_frees_disk() {
        let mgr = mgr_with(1);
        let (h1, p1) = mgr.allocate_page().unwrap();
        drop(p1);
        let (_h2, _p2) = mgr.allocate_page().unwrap(); // spill h1
        assert_eq!(mgr.stats().temp_bytes_on_disk, PAGE as u64);
        drop(h1); // destroy while spilled
        assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
    }

    #[test]
    fn nonpaged_reservation_accounts_and_releases() {
        let mgr = mgr_with(4);
        let r = mgr.reserve(3 * PAGE).unwrap();
        assert_eq!(mgr.memory_used(), 3 * PAGE);
        assert_eq!(mgr.stats().non_paged, 3 * PAGE);
        // Only one page left; a second page allocation is fine,
        // a third must fail (nothing evictable).
        let (_h, _p) = mgr.allocate_page().unwrap();
        assert!(mgr.allocate_page().unwrap_err().is_oom());
        drop(r);
        assert_eq!(mgr.memory_used(), PAGE);
        assert_eq!(mgr.stats().non_paged, 0);
    }

    #[test]
    fn nonpaged_reservation_evicts_pages() {
        let mgr = mgr_with(2);
        let (h, p) = mgr.allocate_page().unwrap();
        fill(&p, 0x77);
        drop(p);
        // Reserving 2 pages' worth evicts the unpinned page.
        let _r = mgr.reserve(2 * PAGE).unwrap();
        assert!(!h.is_loaded());
        {
            // Pinning it back now fails: limit fully reserved.
            assert!(mgr.pin(&h).unwrap_err().is_oom());
        };
    }

    #[test]
    fn reservation_resize() {
        let mgr = mgr_with(4);
        let mut r = mgr.reserve(PAGE).unwrap();
        r.resize(3 * PAGE).unwrap();
        assert_eq!(mgr.memory_used(), 3 * PAGE);
        r.resize(PAGE).unwrap();
        assert_eq!(mgr.memory_used(), PAGE);
        assert!(r.resize(100 * PAGE).is_err());
        assert_eq!(r.size(), PAGE, "failed resize leaves size unchanged");
        assert_eq!(mgr.memory_used(), PAGE);
    }

    #[test]
    fn oversized_request_errors_after_full_eviction() {
        let mgr = mgr_with(2);
        let (_h, p) = mgr.allocate_page().unwrap();
        drop(p);
        let err = mgr.reserve(10 * PAGE).unwrap_err();
        assert!(err.is_oom());
        // The unpinned page was evicted in the attempt; memory accounting
        // must still be consistent.
        assert!(mgr.memory_used() <= PAGE);
    }

    #[test]
    fn repin_prevents_eviction() {
        let mgr = mgr_with(2);
        let (h1, p1) = mgr.allocate_page().unwrap();
        fill(&p1, 0x01);
        drop(p1);
        let p1 = mgr.pin(&h1).unwrap(); // re-pin: queued entry now stale
        let (_h2, _p2) = mgr.allocate_page().unwrap();
        // Third allocation: only candidate is pinned -> OOM.
        assert!(mgr.allocate_page().unwrap_err().is_oom());
        check(&p1, 0x01);
        assert!(h1.is_loaded());
    }

    #[test]
    fn set_memory_limit_takes_effect_on_next_reserve() {
        let mgr = mgr_with(2);
        let (_h1, p1) = mgr.allocate_page().unwrap();
        drop(p1);
        mgr.set_memory_limit(4 * PAGE);
        let (_h2, _p2) = mgr.allocate_page().unwrap();
        let (_h3, _p3) = mgr.allocate_page().unwrap();
        assert_eq!(mgr.stats().evictions_temporary, 0, "limit was raised");
    }

    #[test]
    fn concurrent_alloc_pin_unpin_stress() {
        let mgr = mgr_with(8);
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let mgr = Arc::clone(&mgr);
                s.spawn(move || {
                    let mut handles = Vec::new();
                    for i in 0..40u8 {
                        let (h, p) = mgr.allocate_page().unwrap();
                        fill(&p, t.wrapping_mul(40).wrapping_add(i));
                        drop(p);
                        handles.push((h, t.wrapping_mul(40).wrapping_add(i)));
                        // Occasionally re-pin an old page and verify.
                        if i % 5 == 4 {
                            let (h, b) = &handles[handles.len() / 2];
                            let p = mgr.pin(h).unwrap();
                            check(&p, *b);
                        }
                        // Drop some handles to exercise destroy paths.
                        if handles.len() > 16 {
                            handles.drain(0..4);
                        }
                    }
                    // Final verification pass.
                    for (h, b) in &handles {
                        let p = mgr.pin(h).unwrap();
                        check(&p, *b);
                    }
                });
            }
        });
        // After everything is dropped, all memory is released.
        assert_eq!(mgr.memory_used(), 0);
        assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
    }

    #[test]
    fn usage_never_exceeds_limit_under_stress() {
        let mgr = mgr_with(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mgr = Arc::clone(&mgr);
                s.spawn(move || {
                    for _ in 0..100 {
                        if let Ok((_h, p)) = mgr.allocate_page() {
                            assert!(mgr.memory_used() <= mgr.memory_limit());
                            drop(p);
                        }
                    }
                });
            }
        });
        assert!(mgr.memory_used() <= mgr.memory_limit());
    }

    #[test]
    fn clean_first_protects_temporary_and_counts_reload() {
        use rexa_storage::DatabaseFile;
        let dir = scratch_dir("cleanfirst").unwrap();
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(4 * PAGE)
                .page_size(PAGE)
                .temp_dir(dir.join("tmp")),
        )
        .unwrap();
        let db = Arc::new(DatabaseFile::create(&dir.join("p.db"), PAGE).unwrap());
        let id = db.append_block(&vec![0xEE; PAGE]).unwrap();
        let ph = mgr.register_persistent(&db, id);
        // The temporary page is older than the persistent one.
        let (th, tp) = mgr.allocate_page().unwrap();
        drop(tp);
        drop(mgr.pin(&ph).unwrap());
        assert_eq!(mgr.stats().persistent_bytes_loaded, PAGE as u64);

        let (_h2, _p2) = mgr.allocate_page().unwrap();
        let (_h3, _p3) = mgr.allocate_page().unwrap();
        let (h4, p4) = mgr.allocate_page().unwrap();
        assert!(!ph.is_loaded(), "persistent should be evicted first");
        assert!(th.is_loaded(), "temporary should stay");
        // No temp I/O happened.
        assert_eq!(mgr.stats().temp_bytes_written, 0);

        // The eviction was free, but re-reading the page is not.
        drop(p4);
        drop(h4);
        let before = mgr.stats();
        check(&mgr.pin(&ph).unwrap(), 0xEE);
        let d = mgr.stats().delta_since(&before);
        assert_eq!(d.persistent_bytes_loaded, PAGE as u64);
        assert_eq!(d.temp_bytes_written + d.temp_bytes_read, 0);
    }

    fn faulty_mgr(
        limit_pages: usize,
        injector: &Arc<rexa_storage::FaultInjector>,
    ) -> Arc<BufferManager> {
        BufferManager::new(
            BufferManagerConfig::with_limit(limit_pages * PAGE)
                .page_size(PAGE)
                .temp_dir(scratch_dir("mgrfault").unwrap())
                .io_backend(Arc::clone(injector) as Arc<dyn IoBackend>)
                .spill_backoff(Duration::from_micros(100)),
        )
        .unwrap()
    }

    #[test]
    fn fatal_spill_error_is_typed_and_block_survives() {
        use rexa_storage::{FaultInjector, FaultKind, FaultRule, IoOp, Schedule};
        let inj = Arc::new(FaultInjector::new(1).rule(FaultRule::on(
            IoOp::Write,
            Schedule::Always,
            FaultKind::Enospc,
        )));
        inj.set_enabled(false);
        let mgr = faulty_mgr(1, &inj);
        let (h1, p1) = mgr.allocate_page().unwrap();
        fill(&p1, 0x5A);
        drop(p1);
        inj.set_enabled(true);
        // The second allocation needs to evict h1, whose spill hits ENOSPC.
        let err = mgr.allocate_page().unwrap_err();
        match &err {
            Error::SpillFailed {
                source,
                bytes,
                retries,
            } => {
                assert_eq!(source.raw_os_error(), Some(28));
                assert_eq!(*bytes, PAGE);
                assert_eq!(*retries, 0, "ENOSPC is fatal, never retried");
            }
            other => panic!("expected SpillFailed, got {other}"),
        }
        let stats = mgr.stats();
        assert_eq!(stats.spill_failures, 1);
        assert_eq!(stats.spill_retries, 0);
        // The victim kept its buffer and its contents; accounting intact.
        assert!(h1.is_loaded());
        assert_eq!(mgr.memory_used(), PAGE);
        assert_eq!(mgr.temp_slots_in_use(), 0, "failed spill leaks no slot");
        // Once the "disk" recovers, the same block spills fine (it was
        // re-enqueued on failure).
        inj.set_enabled(false);
        let (_h2, p2) = mgr.allocate_page().unwrap();
        assert!(!h1.is_loaded(), "h1 evicted after recovery");
        drop(p2);
        check(&mgr.pin(&h1).unwrap(), 0x5A);
    }

    #[test]
    fn transient_spill_error_is_retried_and_succeeds() {
        use rexa_storage::{FaultInjector, FaultKind, FaultRule, IoOp, Schedule};
        // Write op 0 fails transiently; the retry (op 1) goes through.
        let inj = Arc::new(FaultInjector::new(2).rule(FaultRule::on(
            IoOp::Write,
            Schedule::Nth(0),
            FaultKind::Transient,
        )));
        let mgr = faulty_mgr(1, &inj);
        let (h1, p1) = mgr.allocate_page().unwrap();
        fill(&p1, 0x3C);
        drop(p1);
        let (_h2, _p2) = mgr.allocate_page().unwrap(); // evicts h1, with retry
        assert!(!h1.is_loaded());
        let stats = mgr.stats();
        assert_eq!(stats.spill_retries, 1);
        assert_eq!(stats.spill_failures, 0);
        assert_eq!(stats.evictions_temporary, 1);
        drop(_p2);
        check(&mgr.pin(&h1).unwrap(), 0x3C);
    }

    #[test]
    fn transient_errors_past_budget_become_spill_failed() {
        use rexa_storage::{FaultInjector, FaultKind, FaultRule, IoOp, Schedule};
        let inj = Arc::new(FaultInjector::new(3).rule(FaultRule::on(
            IoOp::Write,
            Schedule::Always,
            FaultKind::Transient,
        )));
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(PAGE)
                .page_size(PAGE)
                .temp_dir(scratch_dir("mgrfault").unwrap())
                .io_backend(inj as Arc<dyn IoBackend>)
                .spill_retries(2)
                .spill_backoff(Duration::from_micros(100)),
        )
        .unwrap();
        let (_h1, p1) = mgr.allocate_page().unwrap();
        drop(p1);
        let err = mgr.allocate_page().unwrap_err();
        match err {
            Error::SpillFailed { retries, .. } => assert_eq!(retries, 2),
            other => panic!("expected SpillFailed, got {other}"),
        }
        let stats = mgr.stats();
        assert_eq!(stats.spill_retries, 2);
        assert_eq!(stats.spill_failures, 1);
    }

    #[test]
    fn persistent_reload_after_eviction() {
        use rexa_storage::DatabaseFile;
        let dir = scratch_dir("preload").unwrap();
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(PAGE)
                .page_size(PAGE)
                .temp_dir(dir.join("tmp")),
        )
        .unwrap();
        let db = Arc::new(DatabaseFile::create(&dir.join("p.db"), PAGE).unwrap());
        let id = db.append_block(&vec![0xCD; PAGE]).unwrap();
        let ph = mgr.register_persistent(&db, id);
        {
            let p = mgr.pin(&ph).unwrap();
            check(&p, 0xCD);
        }
        // Force it out.
        let (_h, p2) = mgr.allocate_page().unwrap();
        assert!(!ph.is_loaded());
        drop(p2);
        // And back in.
        let p = mgr.pin(&ph).unwrap();
        check(&p, 0xCD);
        assert_eq!(mgr.stats().evictions_persistent, 1);
    }

    #[test]
    fn grant_spend_batches_accounting_releases() {
        use rexa_exec::MemoryGrant;
        let mgr = mgr_with(4096); // 4 MiB
        let grant = ReservationGrant::new(mgr.reserve(1 << 20).unwrap());
        assert_eq!(mgr.stats().non_paged, 1 << 20);
        assert_eq!(grant.remaining(), 1 << 20);
        // The first spend releases a whole batch from the accounting and
        // parks the surplus as credit; follow-up spends within the batch
        // must not move the global gauge at all.
        assert_eq!(grant.spend(4 << 10), 4 << 10);
        let after_first = mgr.stats().non_paged;
        assert_eq!(after_first, (1 << 20) - (4 << 10) - SPEND_BATCH);
        for _ in 0..8 {
            assert_eq!(grant.spend(4 << 10), 4 << 10);
            assert_eq!(mgr.stats().non_paged, after_first);
        }
        // Promised bytes are conserved across the batching.
        assert_eq!(grant.remaining(), (1 << 20) - 9 * (4 << 10));
    }

    #[test]
    fn grant_spend_exhausts_exactly_once() {
        use rexa_exec::MemoryGrant;
        let mgr = mgr_with(4096);
        let grant = ReservationGrant::new(mgr.reserve(100 * 1024).unwrap());
        let mut spent = 0usize;
        loop {
            let got = grant.spend(16 << 10);
            spent += got;
            if got < 16 << 10 {
                break;
            }
        }
        assert_eq!(spent, 100 * 1024, "every promised byte spendable once");
        assert_eq!(grant.remaining(), 0);
        assert_eq!(grant.spend(1), 0, "an exhausted grant spends nothing");
        drop(grant);
        assert_eq!(mgr.stats().non_paged, 0, "no bytes leaked or double-freed");
    }

    #[test]
    fn grant_take_reclaims_prepaid_credit() {
        use rexa_exec::MemoryGrant;
        let mgr = mgr_with(4096);
        let grant = ReservationGrant::new(mgr.reserve(512 << 10).unwrap());
        // Spend a little: the batch leaves the inner reservation short.
        assert_eq!(grant.spend(8 << 10), 8 << 10);
        // A carve larger than the shrunken reservation must pull the
        // batched credit back in rather than fail.
        let carved = grant.take(400 << 10).expect("credit reclaimable");
        assert_eq!(grant.remaining(), (512 << 10) - (8 << 10) - (400 << 10));
        drop(carved);
        drop(grant);
        assert_eq!(mgr.stats().non_paged, 0);
    }

    #[test]
    fn grant_concurrent_spends_account_exactly() {
        use rexa_exec::MemoryGrant;
        let mgr = mgr_with(8192);
        let total = 4 << 20;
        let grant = Arc::new(ReservationGrant::new(mgr.reserve(total).unwrap()));
        let spent: AtomicUsize = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let grant = Arc::clone(&grant);
                let spent = &spent;
                s.spawn(move || loop {
                    let got = grant.spend(3 << 10);
                    spent.fetch_add(got, Ordering::Relaxed);
                    if got == 0 {
                        break;
                    }
                });
            }
        });
        assert_eq!(spent.load(Ordering::Relaxed), total);
        assert_eq!(grant.remaining(), 0);
        drop(grant);
        assert_eq!(mgr.stats().non_paged, 0);
    }
}
