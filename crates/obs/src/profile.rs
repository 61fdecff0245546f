//! Per-query execution profiles.
//!
//! The aggregation operator runs in phases (paper Section III): a
//! thread-local pre-aggregation probe over the input, partitioning/spilling
//! of overflow state, a partition-wise merge, and final result emission.
//! [`ProfileCollector`] is the thread-safe accumulator those phases write
//! into — workers batch their timings locally and flush at sink-combine
//! time, so the hot probe loop pays only a few relaxed atomics per chunk —
//! and [`QueryProfile`] is the immutable result, rendered as an
//! `EXPLAIN ANALYZE`-style tree by [`QueryProfile::render`].

use crate::span::{self, SpanTimeline};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Duration;

/// Execution phases of the aggregation operator, in pipeline order.
///
/// [`Phase::ALL`] is the canonical render order (probe → partition → merge →
/// finalize); [`QueryProfile::render`] iterates it so phase rows never depend
/// on which worker touched which phase first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1: thread-local salted-table pre-aggregation over the input.
    Probe,
    /// Materializing overflow state into radix partitions and spilling.
    Partition,
    /// Phase 2: partition-wise merge of pre-aggregated state.
    Merge,
    /// Gather/emit of final group rows.
    Finalize,
}

pub const PHASE_COUNT: usize = 4;

impl Phase {
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Probe,
        Phase::Partition,
        Phase::Merge,
        Phase::Finalize,
    ];

    pub fn index(self) -> usize {
        match self {
            Phase::Probe => 0,
            Phase::Partition => 1,
            Phase::Merge => 2,
            Phase::Finalize => 3,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Phase::Probe => "phase 1 · probe",
            Phase::Partition => "partition/spill",
            Phase::Merge => "phase 2 · merge",
            Phase::Finalize => "finalize/emit",
        }
    }

    fn from_index(i: usize) -> Phase {
        Phase::ALL[i]
    }
}

/// Timing of one phase: coordinator wall time plus the summed busy time of
/// every worker that executed units in the phase. `busy` is the CPU-time
/// proxy — with N workers saturated, `busy ≈ N × wall`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseProfile {
    pub wall: Duration,
    pub busy: Duration,
    /// Work units (input chunks in phase 1, partitions in phase 2)
    /// executed.
    pub units: u64,
    /// Background I/O time that ran concurrently with this phase's
    /// computation (spill writes during the probe, spill writes plus
    /// read-ahead loads during the merge) — latency hidden by the I/O
    /// scheduler instead of stalling a worker.
    pub overlap: Duration,
}

/// Per-worker phase-1 attribution: how much of the probe each worker
/// actually executed. Skew here (one worker with all the morsels, the rest
/// idle) is the first thing to look at when a thread sweep stops scaling.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerProfile {
    /// Worker index within the query (0-based, dense).
    pub worker: usize,
    /// Busy wall time this worker spent executing probe work.
    pub busy: Duration,
    /// Morsels this worker claimed from the shared source cursor.
    pub morsels: u64,
    /// Input chunks this worker processed.
    pub chunks: u64,
    /// Thread-local hash-table resets this worker performed.
    pub ht_resets: u64,
}

/// One non-empty partition merged in phase 2.
#[derive(Clone, Debug, Default)]
pub struct PartitionMergeProfile {
    /// Radix partition index.
    pub partition: usize,
    /// How the partition was merged: always `"hash"` (the per-partition hash
    /// merge is the only phase 2).
    pub strategy: String,
}

/// Immutable per-query execution profile. All counters are totals for the
/// query; see [`ProfileCollector`] for how they are gathered.
#[derive(Clone, Debug, Default)]
pub struct QueryProfile {
    /// Operator headline, e.g. `HASH_AGGREGATE (vectorized)`.
    pub operator: String,
    pub threads: usize,
    /// Phase-1 path the operator ran: `thread_local`, or `instream` once
    /// any worker switched to the in-stream path. Empty for operators
    /// without one.
    pub strategy: String,
    /// Per-worker phase-1 attribution, sorted by worker index. Empty when
    /// the operator did not record it.
    pub workers: Vec<WorkerProfile>,
    /// End-to-end operator wall time.
    pub wall: Duration,
    /// Indexed by [`Phase::index`].
    pub phases: [PhaseProfile; PHASE_COUNT],
    pub rows_in: u64,
    pub rows_out: u64,
    pub groups: u64,
    /// Thread-local table resets (the table never resizes; at the fill
    /// threshold it flushes to partitions and restarts — paper Fig. 2).
    pub ht_resets: u64,
    pub partitions: u64,
    /// Partitions whose state had been evicted to disk and was read back
    /// during the merge ("gone external").
    pub partitions_external: u64,
    /// The partitions phase 2 merged, sorted by partition index. Empty when
    /// the operator recorded none (e.g. empty input).
    pub partition_merges: Vec<PartitionMergeProfile>,
    pub spill_bytes_written: u64,
    pub spill_bytes_read: u64,
    pub spill_retries: u64,
    pub evictions: u64,
    /// Pins that found their page already resident thanks to a background
    /// read-ahead load.
    pub readahead_hits: u64,
    /// Read-ahead attempts that did not help (no headroom, read failed, or
    /// the page was evicted again before use).
    pub readahead_misses: u64,
    /// Span timeline merged from the per-worker buffers when a
    /// [`crate::span::SpanCollector`] was attached to the run; empty
    /// otherwise. Export with [`QueryProfile::chrome_trace_json`].
    pub timeline: SpanTimeline,
}

/// Render a byte count in the most readable binary unit.
fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

fn fmt_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

impl QueryProfile {
    /// Human-readable `EXPLAIN ANALYZE`-style tree:
    ///
    /// ```text
    /// HASH_AGGREGATE (vectorized)  threads=4  wall 0.412s
    /// ├─ phase 1 · probe    wall 0.201s  busy 0.780s  chunks 977  rows_in 2000000  ht_resets 3
    /// ├─ partition/spill    busy 0.040s  partitions 64 (12 external)
    /// ├─ phase 2 · merge    wall 0.150s  busy 0.520s  partitions 64  groups 65536
    /// ├─ finalize/emit      busy 0.021s  rows_out 65536
    /// └─ buffer             spill_bytes_written 13107200 (12.50 MiB)  spill_bytes_read 13107200  spill_retries 0  evictions 42  readahead_hits 12  readahead_misses 0
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}  threads={}", self.operator, self.threads);
        if !self.strategy.is_empty() {
            let _ = write!(out, "  strategy={}", self.strategy);
        }
        let _ = writeln!(out, "  wall {}", fmt_secs(self.wall));
        for phase in Phase::ALL {
            let p = &self.phases[phase.index()];
            let _ = write!(out, "├─ {:<17}", phase.label());
            if !p.wall.is_zero() {
                let _ = write!(out, "  wall {}", fmt_secs(p.wall));
            }
            let _ = write!(out, "  busy {}", fmt_secs(p.busy));
            if !p.overlap.is_zero() {
                let _ = write!(out, "  io_overlap {}", fmt_secs(p.overlap));
            }
            match phase {
                Phase::Probe => {
                    let _ = write!(
                        out,
                        "  chunks {}  rows_in {}  ht_resets {}",
                        p.units, self.rows_in, self.ht_resets
                    );
                }
                Phase::Partition => {
                    let _ = write!(
                        out,
                        "  partitions {} ({} external)",
                        self.partitions, self.partitions_external
                    );
                }
                Phase::Merge => {
                    let _ = write!(out, "  partitions {}  groups {}", p.units, self.groups);
                }
                Phase::Finalize => {
                    let _ = write!(out, "  rows_out {}", self.rows_out);
                }
            }
            out.push('\n');
            if phase == Phase::Probe {
                for w in &self.workers {
                    let _ = writeln!(
                        out,
                        "│    worker {}  busy {}  morsels {}  chunks {}  ht_resets {}",
                        w.worker,
                        fmt_secs(w.busy),
                        w.morsels,
                        w.chunks,
                        w.ht_resets,
                    );
                }
            }
        }
        let buffer_glyph = if self.timeline.is_empty() {
            "└─"
        } else {
            "├─"
        };
        let _ = writeln!(
            out,
            "{buffer_glyph} buffer             spill_bytes_written {} ({})  spill_bytes_read {} ({})  \
             spill_retries {}  evictions {}  readahead_hits {}  readahead_misses {}",
            self.spill_bytes_written,
            fmt_bytes(self.spill_bytes_written),
            self.spill_bytes_read,
            fmt_bytes(self.spill_bytes_read),
            self.spill_retries,
            self.evictions,
            self.readahead_hits,
            self.readahead_misses,
        );
        if !self.timeline.is_empty() {
            let _ = writeln!(
                out,
                "└─ spans              {}",
                span::summarize(&self.timeline, 8)
            );
        }
        out
    }

    /// Serialize the attached span timeline as Chrome trace-event JSON,
    /// loadable in Perfetto or `about://tracing`. Returns an empty trace
    /// (no events beyond metadata) when the run was not traced.
    pub fn chrome_trace_json(&self) -> String {
        span::chrome_trace_json(&self.timeline)
    }
}

/// Thread-safe accumulator a query's workers write into.
///
/// Workers never take a lock: coordinator-set fields (`set_phase`, phase
/// wall times) are plain atomic stores, and worker contributions
/// (`add_busy`, `add_units`, row/reset counts) are relaxed `fetch_add`s
/// performed once per morsel or once per sink-combine — never per row.
#[derive(Default)]
pub struct ProfileCollector {
    current_phase: AtomicU8,
    phase_wall_nanos: [AtomicU64; PHASE_COUNT],
    phase_busy_nanos: [AtomicU64; PHASE_COUNT],
    phase_overlap_nanos: [AtomicU64; PHASE_COUNT],
    phase_units: [AtomicU64; PHASE_COUNT],
    threads: AtomicUsize,
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    groups: AtomicU64,
    ht_resets: AtomicU64,
    partitions: AtomicU64,
    partitions_external: AtomicU64,
    spill_bytes_written: AtomicU64,
    spill_bytes_read: AtomicU64,
    spill_retries: AtomicU64,
    evictions: AtomicU64,
    readahead_hits: AtomicU64,
    readahead_misses: AtomicU64,
    partition_merges: Mutex<Vec<PartitionMergeProfile>>,
    strategy: Mutex<String>,
    /// Dense worker-id allocator; ids are per-query, assigned at first use.
    next_worker: AtomicUsize,
    /// Per-worker records, merged by worker id (a worker may flush busy
    /// time from the pipeline and resets from the operator separately).
    workers: Mutex<Vec<WorkerProfile>>,
}

impl ProfileCollector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker: claim a dense per-query worker id for attribution.
    pub fn begin_worker(&self) -> usize {
        self.next_worker.fetch_add(1, Ordering::Relaxed)
    }

    /// Worker: merge phase-1 attribution into the record for `worker`.
    /// Called at most a few times per worker (end of probe, end of flush),
    /// never per morsel.
    pub fn record_worker(&self, worker: usize, busy: Duration, morsels: u64, chunks: u64) {
        let mut ws = self.workers.lock();
        let w = Self::worker_slot(&mut ws, worker);
        w.busy += busy;
        w.morsels += morsels;
        w.chunks += chunks;
    }

    /// Worker: credit thread-local hash-table resets to `worker`.
    pub fn record_worker_resets(&self, worker: usize, resets: u64) {
        let mut ws = self.workers.lock();
        Self::worker_slot(&mut ws, worker).ht_resets += resets;
    }

    fn worker_slot(ws: &mut Vec<WorkerProfile>, worker: usize) -> &mut WorkerProfile {
        match ws.iter().position(|w| w.worker == worker) {
            Some(i) => &mut ws[i],
            None => {
                ws.push(WorkerProfile {
                    worker,
                    ..Default::default()
                });
                ws.last_mut().expect("just pushed")
            }
        }
    }

    /// Record the phase-1 path the operator ran.
    pub fn set_strategy(&self, strategy: &str) {
        *self.strategy.lock() = strategy.to_string();
    }

    /// Coordinator: declare the phase subsequent worker busy time belongs
    /// to. Workers attribute via [`ProfileCollector::add_busy`].
    pub fn set_phase(&self, phase: Phase) {
        self.current_phase
            .store(phase.index() as u8, Ordering::Relaxed);
    }

    pub fn current_phase(&self) -> Phase {
        Phase::from_index(self.current_phase.load(Ordering::Relaxed) as usize)
    }

    /// Worker: credit busy wall time to the current phase (the CPU-time
    /// proxy; the platform offers no portable per-thread CPU clock).
    pub fn add_busy(&self, d: Duration) {
        self.phase_busy_nanos[self.current_phase.load(Ordering::Relaxed) as usize]
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn add_busy_to(&self, phase: Phase, d: Duration) {
        self.phase_busy_nanos[phase.index()].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Worker: count executed work units (morsels, partitions) in the
    /// current phase.
    pub fn add_units(&self, n: u64) {
        self.phase_units[self.current_phase.load(Ordering::Relaxed) as usize]
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Worker: count work units in an explicit phase — used when phases
    /// overlap across workers and the coordinator-set current phase would
    /// misattribute.
    pub fn add_units_to(&self, phase: Phase, n: u64) {
        self.phase_units[phase.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Coordinator: record a phase's end-to-end wall time.
    pub fn set_phase_wall(&self, phase: Phase, d: Duration) {
        self.phase_wall_nanos[phase.index()].store(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Coordinator: record background I/O time that overlapped a phase's
    /// computation (delta of the buffer manager's background write/read
    /// nanosecond counters over the phase).
    pub fn set_phase_overlap(&self, phase: Phase, d: Duration) {
        self.phase_overlap_nanos[phase.index()].store(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn set_threads(&self, n: usize) {
        self.threads.store(n, Ordering::Relaxed);
    }

    pub fn add_rows_in(&self, n: u64) {
        self.rows_in.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_rows_out(&self, n: u64) {
        self.rows_out.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_groups(&self, n: u64) {
        self.groups.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_ht_resets(&self, n: u64) {
        self.ht_resets.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_partitions(&self, n: u64) {
        self.partitions.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_partitions_external(&self, n: u64) {
        self.partitions_external.fetch_add(n, Ordering::Relaxed);
    }

    /// Worker: record that phase 2 hash-merged one non-empty partition.
    pub fn record_partition_merge(&self, partition: usize) {
        self.partition_merges.lock().push(PartitionMergeProfile {
            partition,
            strategy: "hash".to_string(),
        });
    }

    /// Coordinator: record the buffer-layer ground truth for the query
    /// (deltas of the manager's spill/eviction counters over the run).
    pub fn set_spill_io(&self, written: u64, read: u64, retries: u64, evictions: u64) {
        self.spill_bytes_written.store(written, Ordering::Relaxed);
        self.spill_bytes_read.store(read, Ordering::Relaxed);
        self.spill_retries.store(retries, Ordering::Relaxed);
        self.evictions.store(evictions, Ordering::Relaxed);
    }

    /// Coordinator: record the read-ahead outcome for the query (deltas of
    /// the manager's hit/miss counters over the run).
    pub fn set_readahead(&self, hits: u64, misses: u64) {
        self.readahead_hits.store(hits, Ordering::Relaxed);
        self.readahead_misses.store(misses, Ordering::Relaxed);
    }

    /// Freeze the collected values into an immutable [`QueryProfile`].
    pub fn finish(&self, operator: impl Into<String>, wall: Duration) -> QueryProfile {
        let mut phases = [PhaseProfile::default(); PHASE_COUNT];
        for (i, p) in phases.iter_mut().enumerate() {
            p.wall = Duration::from_nanos(self.phase_wall_nanos[i].load(Ordering::Relaxed));
            p.busy = Duration::from_nanos(self.phase_busy_nanos[i].load(Ordering::Relaxed));
            p.overlap = Duration::from_nanos(self.phase_overlap_nanos[i].load(Ordering::Relaxed));
            p.units = self.phase_units[i].load(Ordering::Relaxed);
        }
        let mut workers = self.workers.lock().clone();
        workers.sort_by_key(|w| w.worker);
        let mut partition_merges = self.partition_merges.lock().clone();
        partition_merges.sort_by_key(|m| m.partition);
        QueryProfile {
            operator: operator.into(),
            threads: self.threads.load(Ordering::Relaxed),
            strategy: self.strategy.lock().clone(),
            workers,
            wall,
            phases,
            rows_in: self.rows_in.load(Ordering::Relaxed),
            rows_out: self.rows_out.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            ht_resets: self.ht_resets.load(Ordering::Relaxed),
            partitions: self.partitions.load(Ordering::Relaxed),
            partitions_external: self.partitions_external.load(Ordering::Relaxed),
            partition_merges,
            spill_bytes_written: self.spill_bytes_written.load(Ordering::Relaxed),
            spill_bytes_read: self.spill_bytes_read.load(Ordering::Relaxed),
            spill_retries: self.spill_retries.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            readahead_hits: self.readahead_hits.load(Ordering::Relaxed),
            readahead_misses: self.readahead_misses.load(Ordering::Relaxed),
            timeline: SpanTimeline::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates_per_phase() {
        let c = ProfileCollector::new();
        c.set_threads(4);
        c.set_phase(Phase::Probe);
        c.add_busy(Duration::from_millis(10));
        c.add_busy(Duration::from_millis(5));
        c.add_units(3);
        c.add_rows_in(100);
        c.add_ht_resets(2);
        c.set_phase_wall(Phase::Probe, Duration::from_millis(8));
        c.set_phase(Phase::Merge);
        c.add_busy(Duration::from_millis(7));
        c.add_units(2);
        c.add_groups(42);
        c.set_spill_io(4096, 2048, 1, 6);

        let p = c.finish("HASH_AGGREGATE (test)", Duration::from_millis(20));
        assert_eq!(p.threads, 4);
        assert_eq!(
            p.phases[Phase::Probe.index()].busy,
            Duration::from_millis(15)
        );
        assert_eq!(
            p.phases[Phase::Probe.index()].wall,
            Duration::from_millis(8)
        );
        assert_eq!(p.phases[Phase::Probe.index()].units, 3);
        assert_eq!(
            p.phases[Phase::Merge.index()].busy,
            Duration::from_millis(7)
        );
        assert_eq!(p.phases[Phase::Merge.index()].units, 2);
        assert_eq!(p.rows_in, 100);
        assert_eq!(p.groups, 42);
        assert_eq!(p.ht_resets, 2);
        assert_eq!(p.spill_bytes_written, 4096);
        assert_eq!(p.spill_bytes_read, 2048);
        assert_eq!(p.spill_retries, 1);
        assert_eq!(p.evictions, 6);
    }

    #[test]
    fn collector_concurrent_busy_attribution() {
        let c = std::sync::Arc::new(ProfileCollector::new());
        c.set_phase(Phase::Probe);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add_busy(Duration::from_nanos(100));
                        c.add_units(1);
                    }
                });
            }
        });
        let p = c.finish("x", Duration::ZERO);
        assert_eq!(p.phases[0].busy, Duration::from_nanos(800_000));
        assert_eq!(p.phases[0].units, 8000);
    }

    #[test]
    fn render_contains_key_fields() {
        let c = ProfileCollector::new();
        c.set_threads(2);
        c.set_phase_wall(Phase::Probe, Duration::from_millis(120));
        c.add_busy_to(Phase::Probe, Duration::from_millis(200));
        c.add_rows_in(2_000_000);
        c.add_rows_out(65_536);
        c.add_groups(65_536);
        c.add_partitions(64);
        c.add_partitions_external(12);
        c.set_spill_io(13_107_200, 13_107_200, 0, 42);
        c.set_readahead(11, 1);
        c.set_phase_overlap(Phase::Merge, Duration::from_millis(90));
        let report = c
            .finish("HASH_AGGREGATE (vectorized)", Duration::from_millis(400))
            .render();
        for needle in [
            "HASH_AGGREGATE (vectorized)",
            "threads=2",
            "phase 1 · probe",
            "partition/spill",
            "phase 2 · merge",
            "finalize/emit",
            "rows_in 2000000",
            "rows_out 65536",
            "partitions 64 (12 external)",
            "spill_bytes_written 13107200 (12.50 MiB)",
            "evictions 42",
            "readahead_hits 11",
            "readahead_misses 1",
            "io_overlap 0.090s",
            "wall 0.120s",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn worker_attribution_merges_by_id_and_sorts() {
        let c = ProfileCollector::new();
        let w0 = c.begin_worker();
        let w1 = c.begin_worker();
        assert_eq!((w0, w1), (0, 1));
        // Records for one worker arrive in pieces (pipeline flushes busy
        // time, the operator flushes resets) and out of order.
        c.record_worker(w1, Duration::from_millis(5), 2, 30);
        c.record_worker(w0, Duration::from_millis(10), 3, 40);
        c.record_worker_resets(w0, 4);
        c.record_worker(w0, Duration::from_millis(1), 1, 2);
        c.set_strategy("instream");
        let p = c.finish("x", Duration::ZERO);
        assert_eq!(p.strategy, "instream");
        assert_eq!(p.workers.len(), 2);
        assert_eq!(p.workers[0].worker, 0);
        assert_eq!(p.workers[0].busy, Duration::from_millis(11));
        assert_eq!(p.workers[0].morsels, 4);
        assert_eq!(p.workers[0].chunks, 42);
        assert_eq!(p.workers[0].ht_resets, 4);
        assert_eq!(p.workers[1].worker, 1);
        assert_eq!(p.workers[1].ht_resets, 0);
        let report = p.render();
        assert!(report.contains("strategy=instream"), "{report}");
        assert!(
            report.contains("worker 0  busy 0.011s  morsels 4  chunks 42  ht_resets 4"),
            "{report}"
        );
    }

    #[test]
    fn render_orders_phases_and_shows_partition_strategies() {
        let c = ProfileCollector::new();
        // Touch phases out of pipeline order: render must still print them
        // probe → partition → merge → finalize.
        c.add_busy_to(Phase::Merge, Duration::from_millis(3));
        c.add_busy_to(Phase::Probe, Duration::from_millis(2));
        c.record_partition_merge(3);
        c.record_partition_merge(1);
        let p = c.finish("x", Duration::ZERO);
        let merged: Vec<(usize, &str)> = p
            .partition_merges
            .iter()
            .map(|m| (m.partition, m.strategy.as_str()))
            .collect();
        assert_eq!(merged, [(1, "hash"), (3, "hash")], "sorted by partition");
        let r = p.render();
        let positions: Vec<usize> = [
            "phase 1 · probe",
            "partition/spill",
            "phase 2 · merge",
            "finalize/emit",
        ]
        .iter()
        .map(|n| {
            r.find(n)
                .unwrap_or_else(|| panic!("missing {n:?} in:\n{r}"))
        })
        .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "phase rows out of order:\n{r}"
        );
    }

    #[test]
    fn render_includes_span_summary_when_traced() {
        let c = ProfileCollector::new();
        let untraced = c.finish("x", Duration::ZERO);
        assert!(!untraced.render().contains("└─ spans"));

        let sc = crate::span::SpanCollector::new();
        let b = sc.track("worker 0");
        b.complete(
            "probe",
            crate::span::cat::COMPUTE,
            b.now_ns(),
            crate::span::NO_ARGS,
        );
        let mut p = c.finish("x", Duration::ZERO);
        p.timeline = sc.merge();
        let r = p.render();
        assert!(r.contains("└─ spans"), "{r}");
        assert!(r.contains("probe 1x"), "{r}");
        assert!(r.contains("├─ buffer"), "{r}");
        let json = p.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"name\":\"worker 0\""), "{json}");
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(13_107_200), "12.50 MiB");
    }
}
