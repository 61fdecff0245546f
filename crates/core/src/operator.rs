//! The robust external hash aggregation operator (paper Section V).
//!
//! Phase 1 — **thread-local pre-aggregation**: each worker pulls morsels and
//! probes a small fixed-size salted linear-probing table. Found groups get
//! their aggregate states updated in place; new groups are materialized
//! *directly into radix partitions* using the spillable page layout (the
//! column-major → row-major conversion happens while partitioning, so tuples
//! are copied exactly once). When the table is two-thirds full it is
//! *reset*: only the entry array is cleared — tuples stay where they are —
//! and the partition pages are unpinned, making them evictable. The
//! operator never writes to storage itself; if memory runs short the buffer
//! manager spills individual unpinned pages. Phase 1 is therefore
//! **RAM-oblivious**: its behaviour does not depend on the memory limit
//! (only the small entry array must fit).
//!
//! Phase 2 — **partition-wise aggregation**: partitions are distributed over
//! threads. Each task pins one partition (over-partitioning keeps a
//! partition per thread within memory), triggers any pending pointer
//! recomputation, builds a resizably-sized salted table *by pointer
//! insertion over the already-materialized rows* (no copying), combines the
//! states of duplicate groups in place, and streams the surviving groups to
//! the consumer — after which the partition's pages are destroyed eagerly.

use crate::function::{
    bind_aggregate, combine_state, finalize_state, update_state, AggKind, AggregateSpec,
    BoundAggregate,
};
use crate::ht::{
    entry_ptr, is_pending, make_entry, make_pending, pending_ord, prefetch_read, salt_bits,
    SaltedHashTable,
};
use crate::instream::InStreamAgg;
use parking_lot::{Condvar, Mutex};
use rexa_buffer::{BufferManager, BufferStats};
use rexa_exec::pipeline::ChunkSource;
use rexa_exec::pool::ExecContext;
use rexa_exec::vector::VectorData;
use rexa_exec::{hashing, DataChunk, Error, LogicalType, Result, Vector, VECTOR_SIZE};
use rexa_layout::matcher::{
    adjacent_runs, row_row_match, row_row_match_sel, rows_match, rows_match_sel,
};
use rexa_layout::{PartitionedTupleData, TupleDataCollection, TupleDataLayout};
use rexa_obs::span::{self, cat as span_cat};
use rexa_obs::{Phase, ProfileCollector, QueryProfile, SpanBuffer};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The query: which input columns to group by, and which aggregates to
/// compute over each group.
#[derive(Debug, Clone)]
pub struct HashAggregatePlan {
    /// Indices of the grouping columns in the input schema.
    pub group_cols: Vec<usize>,
    /// The aggregates, in output order.
    pub aggregates: Vec<AggregateSpec>,
}

/// Which implementation of the aggregation hot path to run.
///
/// Both modes produce bit-identical results at `threads: 1` (the vectorized
/// path preserves the scalar path's probe, update, and combine orders
/// exactly); with more threads, floating-point results may differ across
/// runs in *either* mode because partition combine order is scheduling-
/// dependent. `Scalar` is retained as the reference oracle for differential
/// tests and the baseline for `BENCH_agg.json` (see DESIGN.md S16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Selection-vector probing + monomorphized kernels (the default).
    #[default]
    Vectorized,
    /// The original row-at-a-time interpreted path.
    Scalar,
}

/// Whether the grouping keys arrive (mostly) sorted, which routes phase 1
/// through the in-stream aggregator (`crate::instream`): compare to the
/// previous key, accumulate, open a new group on key change — no hash
/// table and no per-row probe.
///
/// The in-stream path is correct on *any* input (keys that regress just
/// open another partial group for phase 2 to merge by key), so the hint is
/// about performance, never correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortedInput {
    /// Sample key runs in each worker's first chunks and switch to the
    /// in-stream path when the input looks clustered (average run length
    /// of at least [`IN_STREAM_RUN_MIN`]).
    #[default]
    Detect,
    /// Assert sorted/clustered keys: in-stream from the first row. Plumbed
    /// from SQL scans over tables that declare a compatible sort order.
    Sorted,
    /// Never take the in-stream path.
    Unsorted,
}

/// Tuning knobs of the operator.
#[derive(Debug, Clone)]
pub struct AggregateConfig {
    /// Worker threads for both phases.
    pub threads: usize,
    /// Radix partition bits; `None` derives them from the thread count
    /// (over-partitioning: ≥ 4 partitions per thread).
    pub radix_bits: Option<u32>,
    /// Entries in the phase-1 thread-local table. The paper's value is
    /// 2^17 = 131,072; must be at least 4 × the vector size so a whole chunk
    /// fits below the reset threshold.
    pub ht_capacity: usize,
    /// Rows per output chunk.
    pub output_chunk_size: usize,
    /// Reset the phase-1 table when it is this full, in percent. The paper's
    /// experimentally determined value is two-thirds (66); exposed for the
    /// reset-threshold ablation benchmark.
    pub reset_fill_percent: u32,
    /// Hot-path implementation (vectorized by default; scalar oracle for
    /// differential testing and benchmarking).
    pub kernel_mode: KernelMode,
    /// Partitions beyond the merge frontier whose spilled pages phase 2
    /// prefetches in the background (0 disables read-ahead). Only effective
    /// when the buffer manager runs background I/O workers
    /// (`BufferManagerConfig::io_writers`); a synchronous manager ignores
    /// prefetch requests.
    pub readahead_depth: usize,
    /// Sorted-input handling for the in-stream fast path (see
    /// [`SortedInput`]). Whether any worker took it is recorded in the
    /// profile's `strategy` field.
    pub sorted_input: SortedInput,
}

impl Default for AggregateConfig {
    fn default() -> Self {
        AggregateConfig {
            threads: std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(16),
            radix_bits: None,
            ht_capacity: 1 << 17,
            output_chunk_size: VECTOR_SIZE,
            reset_fill_percent: 66,
            kernel_mode: KernelMode::Vectorized,
            readahead_depth: 2,
            sorted_input: SortedInput::Detect,
        }
    }
}

impl AggregateConfig {
    /// A config with the given thread count, defaults elsewhere.
    pub fn with_threads(threads: usize) -> Self {
        AggregateConfig {
            threads,
            ..Default::default()
        }
    }

    /// The radix bits this config resolves to (explicit, or derived from the
    /// thread count). Public so footprint estimators (the query service) can
    /// see the same partition count the operator will use.
    pub fn effective_radix_bits(&self) -> u32 {
        self.radix_bits
            .unwrap_or_else(|| crate::default_radix_bits(self.threads))
    }
}

/// What one run did — phase timings, spill activity, reset counts. The
/// observability the paper's Figures 4–6 are built from.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Input rows consumed.
    pub rows_in: usize,
    /// Groups produced.
    pub groups: usize,
    /// Radix partitions used.
    pub partitions: usize,
    /// Hash-table resets across all threads (phase 1).
    pub resets: u64,
    /// Wall time of phase 1 (thread-local pre-aggregation).
    pub phase1: Duration,
    /// Wall time of phase 2 (partition-wise aggregation).
    pub phase2: Duration,
    /// Buffer-manager activity during the run (counters are deltas).
    pub buffer: BufferStats,
    /// The full execution profile — per-phase wall/busy/units, spill I/O,
    /// partitions gone external. [`QueryProfile::render`] turns it into an
    /// EXPLAIN-ANALYZE-style report.
    pub profile: QueryProfile,
}

/// Where each output aggregate comes from.
#[derive(Debug, Clone, Copy)]
enum OutSlot {
    /// A write-once payload column (ANY_VALUE), by payload index.
    Payload(usize),
    /// A real aggregate state, by state index.
    State(usize),
}

/// The validated, layout-resolved plan.
struct BoundPlan {
    group_cols: Vec<usize>,
    key_cols: usize,
    /// Input column index for each payload (ANY_VALUE) column.
    payload_args: Vec<usize>,
    /// Real aggregates, in state order.
    state_aggs: Vec<BoundAggregate>,
    out_slots: Vec<OutSlot>,
    layout: Arc<TupleDataLayout>,
    output_types: Vec<LogicalType>,
}

fn bind_plan(plan: &HashAggregatePlan, schema: &[LogicalType]) -> Result<BoundPlan> {
    if plan.group_cols.is_empty() {
        return Err(Error::Unsupported(
            "no GROUP BY columns: use ungrouped_aggregate for global aggregates".into(),
        ));
    }
    for &c in &plan.group_cols {
        if c >= schema.len() {
            return Err(Error::InvalidInput(format!(
                "group column {c} out of range ({} input columns)",
                schema.len()
            )));
        }
    }
    let group_types: Vec<LogicalType> = plan.group_cols.iter().map(|&c| schema[c]).collect();
    let mut payload_args = Vec::new();
    let mut payload_types = Vec::new();
    let mut state_aggs = Vec::new();
    let mut out_slots = Vec::new();
    let mut output_types: Vec<LogicalType> = group_types.clone();
    for spec in &plan.aggregates {
        let bound = bind_aggregate(*spec, schema)?;
        output_types.push(bound.output_type);
        if bound.spec.kind == AggKind::AnyValue {
            out_slots.push(OutSlot::Payload(payload_args.len()));
            payload_args.push(bound.spec.arg.unwrap());
            payload_types.push(bound.output_type);
        } else {
            out_slots.push(OutSlot::State(state_aggs.len()));
            state_aggs.push(bound);
        }
    }
    let mut layout_types = group_types;
    layout_types.extend(payload_types);
    let layout = Arc::new(TupleDataLayout::new(
        layout_types,
        state_aggs.iter().map(|a| a.state_size).collect(),
    ));
    Ok(BoundPlan {
        key_cols: plan.group_cols.len(),
        group_cols: plan.group_cols.clone(),
        payload_args,
        state_aggs,
        out_slots,
        layout,
        output_types,
    })
}

/// Are input rows `a` and `b` equal on `cols` (NULL == NULL)? Used to detect
/// duplicate new groups within one chunk.
fn input_rows_equal(cols: &[&Vector], a: usize, b: usize) -> bool {
    for col in cols {
        let va = col.validity().is_valid(a);
        let vb = col.validity().is_valid(b);
        if va != vb {
            return false;
        }
        if !va {
            continue;
        }
        let eq = match col.data() {
            VectorData::I32(v) => v[a] == v[b],
            VectorData::I64(v) => v[a] == v[b],
            VectorData::F64(v) => {
                // Bitwise (NaN groups with NaN), after key normalization so
                // -0.0 and 0.0 land in one group like they do in the hash.
                hashing::normalize_f64_key(v[a]).to_bits()
                    == hashing::normalize_f64_key(v[b]).to_bits()
            }
            VectorData::Str(v) => v.get(a) == v.get(b),
        };
        if !eq {
            return false;
        }
    }
    true
}

/// [`SortedInput::Detect`]: minimum average run length (sampled rows per
/// adjacent-equal-key run) for a worker to switch to the in-stream path.
/// Below this, per-run materialization appends too many partial groups —
/// phase 2 then combines several partials per group, and the per-run
/// bookkeeping eats the probe savings. Measured break-even on thin integer
/// keys sits near run length 13 (`agg_hotpath`'s `clustered` workload), so
/// the detector demands clear headroom before abandoning the hash table.
pub const IN_STREAM_RUN_MIN: usize = 16;
/// [`SortedInput::Detect`]: rows a worker samples for adjacent-key runs
/// before deciding (a few chunks: enough to see the run length).
const SORTEDNESS_SAMPLE_ROWS: usize = 4096;

/// Shared sink state for phase 1.
struct AggSink<'a> {
    plan: &'a BoundPlan,
    mgr: &'a Arc<BufferManager>,
    config: &'a AggregateConfig,
    ctx: &'a ExecContext,
    radix_bits: u32,
    rows_in: AtomicUsize,
    resets: AtomicU64,
    /// Set by any worker that took the in-stream path (profile label only).
    instream_used: AtomicBool,
}

impl AggSink<'_> {
    /// Create the thread-local state for one worker.
    fn local(&self) -> Result<LocalAgg<'_>> {
        Ok(LocalAgg {
            sink: self,
            ht: SaltedHashTable::with_capacity_ctx(self.mgr, self.config.ht_capacity, self.ctx)?,
            data: PartitionedTupleData::new(self.mgr, &self.plan.layout, self.radix_bits),
            targets: Vec::new(),
            hashes: Vec::new(),
            new_sel: Vec::new(),
            pending_slots: Vec::new(),
            scratch: ProbeScratch::default(),
            instream: (self.config.sorted_input == SortedInput::Sorted).then(InStreamAgg::new),
            detect_rows: 0,
            detect_runs: 0,
            rows_in: 0,
            resets: 0,
        })
    }
}

/// Reusable per-chunk scratch of a thread-local sink. Everything in here is
/// dead between `sink` calls — the raw pointers are only meaningful while
/// the chunk that produced them is being processed.
#[derive(Default)]
struct ProbeScratch {
    /// Row pointers of the groups materialized from the current chunk.
    new_ptrs: Vec<*mut u8>,
    /// Current probe slot of each input row.
    slots: Vec<usize>,
    /// Rows still unresolved, ascending; shrinks every probe round.
    remaining: Vec<u32>,
    /// Next round's `remaining` (built by an ordered merge).
    next_remaining: Vec<u32>,
    /// Rows that advanced in stage 1 (empty/salt/pending handling).
    stage1_fail: Vec<u32>,
    /// Salt-matched candidates of the current round, parallel arrays.
    cand_rows: Vec<u32>,
    cand_ptrs: Vec<*const u8>,
    /// `rows_match_sel` outputs (positions into the candidate arrays).
    matched: Vec<u32>,
    no_match: Vec<u32>,
    /// Resolved row pointer per input row — written directly by the probe
    /// (rows of new groups hold a [`PENDING_PTR_TAG`]ged ordinal until the
    /// chunk materializes); the update kernels consume it as-is.
    row_ptrs: Vec<*mut u8>,
    /// Rows whose `row_ptrs` entry is a tagged ordinal to patch.
    pending_rows: Vec<u32>,
    /// Sortedness-detector scratch: run starts of the sampled chunk.
    run_starts: Vec<u32>,
    /// Reused `&Vector` buffers (lifetimes are per-chunk; the vectors are
    /// stored erased and only ever transmuted while *empty*).
    group_views: Vec<&'static Vector>,
    layout_views: Vec<&'static Vector>,
}

// SAFETY: the raw pointers never outlive one `sink` call and are never
// shared across threads — the scratch exists purely so a thread-local sink
// (which must be `Send` to move onto its worker) can reuse allocations.
unsafe impl Send for ProbeScratch {}

/// High-bit tag marking a `row_ptrs` slot that still holds a new-group
/// ordinal instead of a row pointer (real pointers fit in 48 bits).
const PENDING_PTR_TAG: u64 = 1 << 63;

impl ProbeScratch {
    /// Borrow the erased view buffer for this chunk's lifetime. Only sound
    /// because the buffer is empty at hand-out and cleared at hand-back.
    fn take_views<'v>(views: &mut Vec<&'static Vector>) -> Vec<&'v Vector> {
        debug_assert!(views.is_empty());
        // SAFETY: an empty Vec owns no references, only an allocation;
        // shortening the reference lifetime of its element type is sound.
        unsafe {
            std::mem::transmute::<Vec<&'static Vector>, Vec<&'v Vector>>(std::mem::take(views))
        }
    }

    /// Return a view buffer taken with [`Self::take_views`].
    fn put_views(views: &mut Vec<&'static Vector>, mut buf: Vec<&Vector>) {
        buf.clear();
        // SAFETY: as above — the Vec is empty.
        *views = unsafe { std::mem::transmute::<Vec<&Vector>, Vec<&'static Vector>>(buf) };
    }
}

/// Thread-local phase-1 state.
struct LocalAgg<'a> {
    sink: &'a AggSink<'a>,
    ht: SaltedHashTable,
    data: PartitionedTupleData,
    /// Per-row resolution of the current chunk (scalar probe only): an
    /// entry-encoded value — pending flag + ordinal, or a row pointer.
    targets: Vec<u64>,
    hashes: Vec<u64>,
    new_sel: Vec<u32>,
    pending_slots: Vec<usize>,
    scratch: ProbeScratch,
    /// `Some` once this worker switched to the in-stream fast path (forced
    /// by [`SortedInput::Sorted`] or chosen by the sortedness detector).
    instream: Option<InStreamAgg>,
    /// Sortedness detector sample ([`SortedInput::Detect`]).
    detect_rows: usize,
    detect_runs: usize,
    rows_in: usize,
    resets: u64,
}

impl LocalAgg<'_> {
    /// The reset threshold: two-thirds full by default (experimentally
    /// determined in the paper; configurable for the ablation bench).
    fn should_reset(&self) -> bool {
        self.ht.count() * 100 >= self.ht.capacity() * self.sink.config.reset_fill_percent as usize
    }

    /// Row-at-a-time probe (the reference oracle, `KernelMode::Scalar`):
    /// resolve each input row fully before moving to the next.
    fn probe_scalar(&mut self, group_views: &[&Vector], n: usize) {
        let plan = self.sink.plan;
        for i in 0..n {
            let h = self.hashes[i];
            let mut slot = self.ht.slot(h);
            loop {
                let e = self.ht.entry(slot);
                if e == 0 {
                    let ord = self.new_sel.len();
                    self.ht.set_entry(slot, make_pending(h, ord), true);
                    self.pending_slots.push(slot);
                    self.new_sel.push(i as u32);
                    self.targets.push(make_pending(h, ord));
                    break;
                }
                if salt_bits(e) == salt_bits(h) {
                    if is_pending(e) {
                        // A group discovered earlier in this same chunk.
                        let ord = pending_ord(e);
                        let j = self.new_sel[ord] as usize;
                        if input_rows_equal(group_views, i, j) {
                            self.targets.push(e);
                            break;
                        }
                    } else {
                        let row = entry_ptr(e);
                        // SAFETY: rows referenced by live entries are on
                        // pages pinned since the last reset.
                        if unsafe { rows_match(&plan.layout, group_views, i, row) } {
                            self.targets.push(e);
                            break;
                        }
                    }
                }
                slot = self.ht.next_slot(slot);
            }
        }
    }

    /// Selection-vector probe: all rows advance through the table in
    /// lockstep rounds, and the expensive full-key comparison of the
    /// salt-matched candidates is batched by column ([`rows_match_sel`]).
    /// Resolves every row directly into `scratch.row_ptrs` — rows claiming
    /// a new group hold a [`PENDING_PTR_TAG`]ged ordinal (recorded in
    /// `scratch.pending_rows`) until the chunk's new groups materialize.
    ///
    /// The `remaining` selection is kept in ascending row order across
    /// rounds (ordered merge of the stage-1 advances and the key-compare
    /// failures), which makes the claim order of new groups — and therefore
    /// every downstream combine order — identical to [`Self::probe_scalar`]:
    /// rows probing the same slot sequence stay sorted, so the earliest
    /// occurrence of a key always claims its entry first, exactly like the
    /// scalar loop that resolves row `i` before ever looking at row `i + 1`.
    fn probe_vectorized(&mut self, group_views: &[&Vector], n: usize) {
        let plan = self.sink.plan;
        let s = &mut self.scratch;
        s.slots.clear();
        s.slots
            .extend(self.hashes[..n].iter().map(|&h| self.ht.slot(h)));
        // Every row's slot is overwritten exactly once by the probe below,
        // so steady-state chunks reuse the buffer without re-zeroing it;
        // only growth writes fresh nulls.
        if s.row_ptrs.len() < n {
            s.row_ptrs.resize(n, std::ptr::null_mut());
        }
        s.pending_rows.clear();
        s.remaining.clear();
        s.remaining.extend(0..n as u32);
        // The dominant probe shape — a single NULL-free integer key — gets a
        // fused loop that folds the key comparison into stage 1 and skips
        // the candidate buffering entirely.
        if let [col] = group_views {
            if let VectorData::I64(keys) = col.data() {
                if col.validity().no_nulls() {
                    return self.probe_rounds_i64(keys);
                }
            }
        }
        while !s.remaining.is_empty() {
            s.stage1_fail.clear();
            s.cand_rows.clear();
            s.cand_ptrs.clear();
            // Stage 1: classify each unresolved row by its current entry.
            // Cheap outcomes (empty claim, salt reject, in-chunk pending)
            // are handled inline; salt-matched real entries become
            // candidates for the batched key comparison. Entry loads are
            // prefetched a fixed distance ahead: the table exceeds L1, and
            // overlapping the random loads of a whole round is exactly the
            // memory-level parallelism the row-at-a-time loop cannot get.
            const PREFETCH_DIST: usize = 16;
            for (idx, &r) in s.remaining.iter().enumerate() {
                if let Some(&ahead) = s.remaining.get(idx + PREFETCH_DIST) {
                    self.ht.prefetch(s.slots[ahead as usize]);
                }
                let i = r as usize;
                let h = self.hashes[i];
                let slot = s.slots[i];
                let e = self.ht.entry(slot);
                if e == 0 {
                    let ord = self.new_sel.len();
                    self.ht.set_entry(slot, make_pending(h, ord), true);
                    self.pending_slots.push(slot);
                    self.new_sel.push(r);
                    s.row_ptrs[i] = (PENDING_PTR_TAG | ord as u64) as *mut u8;
                    s.pending_rows.push(r);
                    continue;
                }
                if salt_bits(e) == salt_bits(h) {
                    if is_pending(e) {
                        // Pending entries are rare (one per new group per
                        // chunk) and need an input-vs-input comparison the
                        // batched matcher cannot do — compare inline.
                        let ord = pending_ord(e);
                        let j = self.new_sel[ord] as usize;
                        if input_rows_equal(group_views, i, j) {
                            s.row_ptrs[i] = (PENDING_PTR_TAG | ord as u64) as *mut u8;
                            s.pending_rows.push(r);
                            continue;
                        }
                    } else {
                        let row = entry_ptr(e);
                        // Warm the row's key bytes for the stage-2 compare
                        // (and the in-line aggregate states it shares a
                        // cache line with on thin layouts).
                        prefetch_read(row);
                        s.cand_rows.push(r);
                        s.cand_ptrs.push(row);
                        continue;
                    }
                }
                s.slots[i] = self.ht.next_slot(slot);
                s.stage1_fail.push(r);
            }
            // Stage 2: one type dispatch per key column for all candidates.
            // SAFETY: candidate pointers come from live entries, whose rows
            // are on pages pinned since the last reset.
            unsafe {
                rows_match_sel(
                    &plan.layout,
                    group_views,
                    &s.cand_rows,
                    &s.cand_ptrs,
                    &mut s.matched,
                    &mut s.no_match,
                );
            }
            for &p in &s.matched {
                let i = s.cand_rows[p as usize] as usize;
                s.row_ptrs[i] = s.cand_ptrs[p as usize] as *mut u8;
            }
            for &p in &s.no_match {
                let i = s.cand_rows[p as usize] as usize;
                s.slots[i] = self.ht.next_slot(s.slots[i]);
            }
            // Merge the two (each ascending) failure lists back into one
            // ascending selection for the next round.
            s.next_remaining.clear();
            let (a, b) = (&s.stage1_fail, &s.no_match);
            let (mut ai, mut bi) = (0, 0);
            while ai < a.len() && bi < b.len() {
                let br = s.cand_rows[b[bi] as usize];
                if a[ai] < br {
                    s.next_remaining.push(a[ai]);
                    ai += 1;
                } else {
                    s.next_remaining.push(br);
                    bi += 1;
                }
            }
            s.next_remaining.extend_from_slice(&a[ai..]);
            s.next_remaining
                .extend(b[bi..].iter().map(|&p| s.cand_rows[p as usize]));
            std::mem::swap(&mut s.remaining, &mut s.next_remaining);
        }
    }

    /// [`Self::probe_vectorized`]'s round loop, fused for a single NULL-free
    /// `i64` key column: the key comparison is one unaligned load, so it
    /// runs inline in stage 1 instead of going through the candidate
    /// buffers and the by-column matcher — no per-round compare pass, no
    /// merge (the single failure list is already ascending, preserving the
    /// claim-order equivalence with the scalar oracle).
    ///
    /// Expects the common probe state (`slots`, `row_ptrs`, `pending_rows`,
    /// `remaining`) initialized by the caller. A materialized row can still
    /// hold a NULL key (created from an earlier chunk *with* NULLs), so the
    /// row side checks validity; the input side is NULL-free by contract.
    fn probe_rounds_i64(&mut self, keys: &[i64]) {
        let layout = &self.sink.plan.layout;
        let key_off = layout.offset(0);
        let s = &mut self.scratch;
        while !s.remaining.is_empty() {
            s.stage1_fail.clear();
            const PREFETCH_DIST: usize = 16;
            for (idx, &r) in s.remaining.iter().enumerate() {
                if let Some(&ahead) = s.remaining.get(idx + PREFETCH_DIST) {
                    self.ht.prefetch(s.slots[ahead as usize]);
                }
                let i = r as usize;
                let h = self.hashes[i];
                let slot = s.slots[i];
                let e = self.ht.entry(slot);
                if e == 0 {
                    let ord = self.new_sel.len();
                    self.ht.set_entry(slot, make_pending(h, ord), true);
                    self.pending_slots.push(slot);
                    self.new_sel.push(r);
                    s.row_ptrs[i] = (PENDING_PTR_TAG | ord as u64) as *mut u8;
                    s.pending_rows.push(r);
                    continue;
                }
                if salt_bits(e) == salt_bits(h) {
                    if is_pending(e) {
                        let ord = pending_ord(e);
                        let j = self.new_sel[ord] as usize;
                        if keys[i] == keys[j] {
                            s.row_ptrs[i] = (PENDING_PTR_TAG | ord as u64) as *mut u8;
                            s.pending_rows.push(r);
                            continue;
                        }
                    } else {
                        let row = entry_ptr(e);
                        // SAFETY: live entry → its row is on a page pinned
                        // since the last reset; `key_off` is in-row.
                        let hit = unsafe {
                            layout.is_valid(row, 0)
                                && std::ptr::read_unaligned(row.add(key_off) as *const i64)
                                    == keys[i]
                        };
                        if hit {
                            s.row_ptrs[i] = row;
                            continue;
                        }
                    }
                }
                s.slots[i] = self.ht.next_slot(slot);
                s.stage1_fail.push(r);
            }
            std::mem::swap(&mut s.remaining, &mut s.stage1_fail);
        }
    }
}

impl LocalAgg<'_> {
    /// Consume one chunk: in-stream once this worker switched, else the
    /// thread-local probe.
    fn sink(&mut self, chunk: &DataChunk) -> Result<()> {
        let plan = self.sink.plan;
        let n = chunk.len();
        if n == 0 {
            return Ok(());
        }
        let mut group_views = ProbeScratch::take_views(&mut self.scratch.group_views);
        group_views.extend(plan.group_cols.iter().map(|&c| chunk.column(c)));

        // Sortedness detector ([`SortedInput::Detect`]): sample the
        // adjacent-run density of the first chunks; when runs average
        // [`IN_STREAM_RUN_MIN`] rows or longer, switch this worker to the
        // in-stream path (the current chunk included). Rows already probed
        // into the local table stay in its fragments — phase 2 merges them
        // by key.
        if self.instream.is_none()
            && self.sink.config.sorted_input == SortedInput::Detect
            && self.detect_rows < SORTEDNESS_SAMPLE_ROWS
        {
            adjacent_runs(&group_views, n, &mut self.scratch.run_starts);
            self.detect_rows += n;
            self.detect_runs += self.scratch.run_starts.len();
            if self.detect_rows >= SORTEDNESS_SAMPLE_ROWS
                && self.detect_runs * IN_STREAM_RUN_MIN <= self.detect_rows
            {
                self.instream = Some(InStreamAgg::new());
            }
        }

        let res = if self.instream.is_some() {
            self.sink_instream(chunk, &group_views)
        } else {
            // Hash the group columns once; the hash is materialized in the
            // row and reused by phase 2. (The in-stream path hashes inside
            // `sink_chunk` — only run starts on the common key shape.)
            self.hashes.clear();
            self.hashes.resize(n, 0);
            for (ci, col) in group_views.iter().enumerate() {
                hashing::hash_vector(col, &mut self.hashes, ci > 0);
            }
            self.sink_local(chunk, &group_views, n)
        };
        ProbeScratch::put_views(&mut self.scratch.group_views, group_views);
        res?;
        self.rows_in += n;
        Ok(())
    }

    /// In-stream (sorted-input) chunk path — see [`crate::instream`].
    fn sink_instream(&mut self, chunk: &DataChunk, group_views: &[&Vector]) -> Result<()> {
        let plan = self.sink.plan;
        let mut layout_views = ProbeScratch::take_views(&mut self.scratch.layout_views);
        layout_views.extend_from_slice(group_views);
        for &c in &plan.payload_args {
            layout_views.push(chunk.column(c));
        }
        let is = self.instream.as_mut().expect("instream checked");
        let res = is.sink_chunk(
            &plan.layout,
            &plan.state_aggs,
            self.sink.config.kernel_mode,
            chunk,
            group_views,
            &layout_views,
            &mut self.hashes,
            &mut self.data,
        );
        ProbeScratch::put_views(&mut self.scratch.layout_views, layout_views);
        res?;
        // Same memory-epoch budget as the hash path's reset threshold: once
        // this epoch has materialized as many group rows as a reset-full
        // hash table would hold, seal the epoch so its pages become
        // spillable. (The hash table itself is idle on this path.)
        let appended = self.instream.as_ref().expect("instream checked").appended();
        if appended * 100 >= self.ht.capacity() * self.sink.config.reset_fill_percent as usize {
            self.seal_epoch();
        }
        Ok(())
    }

    /// End one memory epoch: release the append pins (pages become
    /// spillable) and clear the probe table.
    fn seal_epoch(&mut self) {
        if let Some(is) = &mut self.instream {
            is.on_release();
        }
        self.ht.reset();
        self.data.release_pins();
        self.resets += 1;
    }

    /// Thread-local chunk path (the paper's design).
    fn sink_local(&mut self, chunk: &DataChunk, group_views: &[&Vector], n: usize) -> Result<()> {
        let plan = self.sink.plan;
        let mode = self.sink.config.kernel_mode;
        // Probe: resolve every input row to an existing row pointer or a
        // pending new-group ordinal.
        self.targets.clear();
        self.new_sel.clear();
        self.pending_slots.clear();
        match mode {
            KernelMode::Scalar => self.probe_scalar(group_views, n),
            KernelMode::Vectorized => self.probe_vectorized(group_views, n),
        }

        // Materialize the new groups directly into radix partitions
        // (column-major -> row-major conversion happens here, once).
        self.scratch.new_ptrs.clear();
        if !self.new_sel.is_empty() {
            let mut layout_views = ProbeScratch::take_views(&mut self.scratch.layout_views);
            layout_views.extend_from_slice(group_views);
            for &c in &plan.payload_args {
                layout_views.push(chunk.column(c));
            }
            self.data.append(
                &layout_views,
                &self.hashes,
                &self.new_sel,
                Some(&mut self.scratch.new_ptrs),
            )?;
            ProbeScratch::put_views(&mut self.scratch.layout_views, layout_views);
            // Patch pending entries to real row pointers.
            for (ord, &slot) in self.pending_slots.iter().enumerate() {
                let h = self.hashes[self.new_sel[ord] as usize];
                self.ht
                    .set_entry(slot, make_entry(h, self.scratch.new_ptrs[ord]), false);
            }
        }
        // Update aggregate states for every input row.
        let s = &mut self.scratch;
        match mode {
            KernelMode::Scalar => {
                for (sidx, agg) in plan.state_aggs.iter().enumerate() {
                    let arg = agg.spec.arg.map(|c| chunk.column(c));
                    let off = plan.layout.aggr_offset(sidx);
                    for i in 0..n {
                        let t = self.targets[i];
                        let row = if is_pending(t) {
                            s.new_ptrs[pending_ord(t)]
                        } else {
                            entry_ptr(t)
                        };
                        // SAFETY: row points into a pinned page; states are
                        // in-row.
                        unsafe { update_state(agg, row.add(off), arg, i) };
                    }
                }
            }
            KernelMode::Vectorized => {
                // Patch the tagged new-group rows to their materialized
                // pointers (O(new groups' occurrences), not O(n)), then one
                // monomorphized kernel call per aggregate over the chunk.
                for &r in &s.pending_rows {
                    let i = r as usize;
                    let ord = (s.row_ptrs[i] as u64 & !PENDING_PTR_TAG) as usize;
                    s.row_ptrs[i] = s.new_ptrs[ord];
                }
                for (sidx, agg) in plan.state_aggs.iter().enumerate() {
                    let arg = agg.spec.arg.map(|c| chunk.column(c));
                    let off = plan.layout.aggr_offset(sidx);
                    // SAFETY: every row pointer targets a row on a pinned
                    // page with the aggregate's state at `off`.
                    unsafe { (agg.kernels.update)(&s.row_ptrs[..n], off, arg) };
                }
            }
        }

        // Reset when two-thirds full: clear the entry array (cheap), unpin
        // the partition pages (they become spillable).
        if self.should_reset() {
            self.seal_epoch();
        }
        Ok(())
    }
}

/// Aggregate one partition: pin, recompute pointers, merge duplicate groups
/// by pointer insertion, stream outputs, destroy pages.
#[allow(clippy::too_many_arguments)]
fn finalize_partition(
    plan: &BoundPlan,
    mgr: &Arc<BufferManager>,
    config: &AggregateConfig,
    ctx: &ExecContext,
    partition_idx: usize,
    mut part: TupleDataCollection,
    consumer: &(dyn Fn(DataChunk) -> Result<()> + Sync),
    groups_out: &AtomicUsize,
    sbuf: Option<&SpanBuffer>,
) -> Result<()> {
    if part.rows() == 0 {
        return Ok(());
    }
    // A partition with evicted pages "went external": pinning it back below
    // reads those bytes from the spill files. Recorded before the pins so
    // the profile reflects where the partition *was*, not where it ends up.
    let external = part.unloaded_bytes() > 0;
    if let Some(profile) = ctx.profile() {
        if external {
            profile.add_partitions_external(1);
        }
        profile.record_partition_merge(partition_idx);
    }
    // Spend grant headroom for the pages this partition is about to pin:
    // the admission footprint promised them, and releasing the bytes here
    // means the pins consume the promised headroom instead of charging the
    // limit a second time.
    ctx.spend_grant(part.data_bytes());
    let pins = part.pin_all()?;
    let layout = &plan.layout;

    let mut live: Vec<*mut u8> = Vec::new();
    let mut ptrs: Vec<*mut u8> = Vec::new();
    finalize_hash_dedup(plan, mgr, config, ctx, &part, &pins, &mut live, &mut ptrs)?;

    // Emit the surviving groups ("fully aggregated partitions are
    // immediately scanned" — pushed to the consumer, then freed).
    let t_emit = Instant::now();
    let t_emit_ns = sbuf.map(|b| b.now_ns());
    for batch in live.chunks(config.output_chunk_size.max(1)) {
        ctx.check_cancelled()?;
        // SAFETY: batch pointers come from this collection under `pins`.
        let gathered = unsafe { part.gather(batch) };
        let mut columns: Vec<Vector> = gathered.columns()[..plan.key_cols].to_vec();
        for slot in &plan.out_slots {
            match slot {
                OutSlot::Payload(p) => columns.push(gathered.column(plan.key_cols + p).clone()),
                OutSlot::State(s) => {
                    let agg = &plan.state_aggs[*s];
                    let off = layout.aggr_offset(*s);
                    match config.kernel_mode {
                        KernelMode::Scalar => {
                            let mut col = Vector::empty(agg.output_type);
                            for &row in batch {
                                // SAFETY: as above.
                                let v = unsafe { finalize_state(agg, row.add(off)) };
                                col.push_value(&v)?;
                            }
                            columns.push(col);
                        }
                        KernelMode::Vectorized => {
                            let states: Vec<*const u8> = batch
                                .iter()
                                .map(|&row| unsafe { row.add(off) as *const u8 })
                                .collect();
                            // SAFETY: as above; the kernel writes the output
                            // vector directly, skipping boxed Values.
                            columns.push(unsafe { (agg.kernels.finalize)(&states) });
                        }
                    }
                }
            }
        }
        consumer(DataChunk::new(columns))?;
    }
    if let (Some(b), Some(t)) = (sbuf, t_emit_ns) {
        b.complete(
            "finalize",
            span_cat::COMPUTE,
            t,
            span::arg1("groups", live.len() as u64),
        );
    }
    if let Some(profile) = ctx.profile() {
        // The emit share of this task's time: phase-2 busy (credited to the
        // merge phase by `parallel_for`) includes it; this split shows how
        // much of it was spent gathering and streaming output.
        profile.add_busy_to(Phase::Finalize, t_emit.elapsed());
        profile.add_rows_out(live.len() as u64);
    }
    groups_out.fetch_add(live.len(), Ordering::Relaxed);
    drop(pins);
    drop(part); // eager destroy: memory or spill space released now
    Ok(())
}

/// Phase-2 hash dedup: rebuild a partition-local probe table over the
/// pinned rows, combining duplicate groups by key.
#[allow(clippy::too_many_arguments)]
fn finalize_hash_dedup(
    plan: &BoundPlan,
    mgr: &Arc<BufferManager>,
    config: &AggregateConfig,
    ctx: &ExecContext,
    part: &TupleDataCollection,
    pins: &rexa_layout::CollectionPins,
    live: &mut Vec<*mut u8>,
    ptrs: &mut Vec<*mut u8>,
) -> Result<()> {
    let layout = &plan.layout;
    let cap = (part.rows() * 2).next_power_of_two().max(1024);
    let mut ht = SaltedHashTable::with_capacity_ctx(mgr, cap, ctx)?;
    match config.kernel_mode {
        KernelMode::Scalar => {
            for c in 0..part.chunk_count() {
                ctx.check_cancelled()?;
                ptrs.clear();
                part.chunk_row_ptrs(pins, c, ptrs);
                for &row in ptrs.iter() {
                    // SAFETY: the partition is pinned and pointer-recomputed.
                    let h = unsafe { layout.read_hash(row) };
                    let mut slot = ht.slot(h);
                    loop {
                        let e = ht.entry(slot);
                        if e == 0 {
                            ht.set_entry(slot, make_entry(h, row), true);
                            live.push(row);
                            break;
                        }
                        if salt_bits(e) == salt_bits(h) {
                            let existing = entry_ptr(e);
                            // SAFETY: both rows live on pinned pages.
                            if unsafe { row_row_match(layout, plan.key_cols, existing, row) } {
                                for (sidx, agg) in plan.state_aggs.iter().enumerate() {
                                    let off = layout.aggr_offset(sidx);
                                    // SAFETY: states are inside the rows.
                                    unsafe { combine_state(agg, row.add(off), existing.add(off)) };
                                }
                                break;
                            }
                        }
                        slot = ht.next_slot(slot);
                    }
                }
            }
        }
        KernelMode::Vectorized => {
            // Selection-vector insertion: resolve every row of a chunk to
            // its surviving group row first (claiming new entries along the
            // way), then run one combine kernel per aggregate over the
            // duplicates. Combines stay in chunk-row order, so per-group
            // float results are bit-identical to the scalar loop.
            let mut hashes: Vec<u64> = Vec::new();
            let mut slots: Vec<usize> = Vec::new();
            let mut targets: Vec<*mut u8> = Vec::new();
            let mut remaining: Vec<u32> = Vec::new();
            let mut next_remaining: Vec<u32> = Vec::new();
            let mut stage1_fail: Vec<u32> = Vec::new();
            let mut cand_rows: Vec<u32> = Vec::new();
            let mut cand_existing: Vec<*const u8> = Vec::new();
            let mut cand_new: Vec<*const u8> = Vec::new();
            let mut matched: Vec<u32> = Vec::new();
            let mut no_match: Vec<u32> = Vec::new();
            let mut pairs: Vec<(*const u8, *mut u8)> = Vec::new();
            let mut state_pairs: Vec<(*const u8, *mut u8)> = Vec::new();
            for c in 0..part.chunk_count() {
                ctx.check_cancelled()?;
                ptrs.clear();
                part.chunk_row_ptrs(pins, c, ptrs);
                let m = ptrs.len();
                // SAFETY: the partition is pinned and pointer-recomputed.
                hashes.clear();
                hashes.extend(ptrs.iter().map(|&row| unsafe { layout.read_hash(row) }));
                slots.clear();
                slots.extend(hashes.iter().map(|&h| ht.slot(h)));
                targets.clear();
                targets.resize(m, std::ptr::null_mut());
                remaining.clear();
                remaining.extend(0..m as u32);
                while !remaining.is_empty() {
                    stage1_fail.clear();
                    cand_rows.clear();
                    cand_existing.clear();
                    cand_new.clear();
                    for &r in &remaining {
                        let i = r as usize;
                        let row = ptrs[i];
                        let h = hashes[i];
                        let slot = slots[i];
                        let e = ht.entry(slot);
                        if e == 0 {
                            ht.set_entry(slot, make_entry(h, row), true);
                            live.push(row);
                            targets[i] = row; // survives as its own group
                            continue;
                        }
                        if salt_bits(e) == salt_bits(h) {
                            cand_rows.push(r);
                            cand_existing.push(entry_ptr(e));
                            cand_new.push(row);
                            continue;
                        }
                        slots[i] = ht.next_slot(slot);
                        stage1_fail.push(r);
                    }
                    // SAFETY: all candidate rows live on pinned pages.
                    unsafe {
                        row_row_match_sel(
                            layout,
                            plan.key_cols,
                            &cand_existing,
                            &cand_new,
                            &mut matched,
                            &mut no_match,
                        );
                    }
                    for &p in &matched {
                        targets[cand_rows[p as usize] as usize] =
                            cand_existing[p as usize] as *mut u8;
                    }
                    for &p in &no_match {
                        let i = cand_rows[p as usize] as usize;
                        slots[i] = ht.next_slot(slots[i]);
                    }
                    // Ordered merge keeps `remaining` ascending, mirroring
                    // the phase-1 probe.
                    next_remaining.clear();
                    let (mut ai, mut bi) = (0, 0);
                    while ai < stage1_fail.len() && bi < no_match.len() {
                        let br = cand_rows[no_match[bi] as usize];
                        if stage1_fail[ai] < br {
                            next_remaining.push(stage1_fail[ai]);
                            ai += 1;
                        } else {
                            next_remaining.push(br);
                            bi += 1;
                        }
                    }
                    next_remaining.extend_from_slice(&stage1_fail[ai..]);
                    next_remaining.extend(no_match[bi..].iter().map(|&p| cand_rows[p as usize]));
                    std::mem::swap(&mut remaining, &mut next_remaining);
                }
                // Combine duplicates into their surviving rows, in chunk-row
                // order, one columnar kernel call per aggregate.
                pairs.clear();
                pairs.extend(
                    ptrs.iter()
                        .zip(&targets)
                        .filter(|&(&row, &dst)| !std::ptr::eq(row, dst))
                        .map(|(&row, &dst)| (row as *const u8, dst)),
                );
                if !pairs.is_empty() {
                    for (sidx, agg) in plan.state_aggs.iter().enumerate() {
                        let off = layout.aggr_offset(sidx);
                        state_pairs.clear();
                        state_pairs.extend(pairs.iter().map(|&(src, dst)| {
                            // SAFETY: states are inside the rows.
                            unsafe { (src.add(off), dst.add(off)) }
                        }));
                        // SAFETY: src/dst are distinct rows' states.
                        unsafe { (agg.kernels.combine)(&state_pairs) };
                    }
                }
            }
        }
    }
    Ok(())
}

/// Phase-2 merge schedule: partition indices ordered by payload size,
/// largest first (longest-processing-time-first). Radix partitioning over
/// skewed keys produces wildly uneven partitions; claiming the giants first
/// keeps them off the tail of the schedule, where a straggler would run
/// alone while every other worker idles. Ties break on the lower index so
/// the schedule is deterministic.
fn lpt_order(sizes: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));
    order
}

/// Pick the next partition to merge from the ready list: the same policy as
/// [`lpt_order`], applied incrementally as partitions become mergeable.
/// Returns the *position* within `ready` of the largest entry (ties to the
/// lower partition index, keeping the schedule deterministic).
fn lpt_claim(ready: &[(usize, usize)]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (k, &(bytes, p)) in ready.iter().enumerate() {
        best = match best {
            None => Some(k),
            Some(b) => {
                let (bb, bp) = ready[b];
                if bytes > bb || (bytes == bb && p < bp) {
                    Some(k)
                } else {
                    Some(b)
                }
            }
        };
    }
    best
}

/// Phase-1 → phase-2 handoff: instead of a hard barrier between the phases,
/// every worker flushes its thread-local fragments partition by partition,
/// and a partition whose *last* fragment lands becomes mergeable immediately
/// — feeding the LPT/read-ahead merge schedule while slower workers are
/// still probing or flushing the rest.
///
/// Built to survive the pool's saturation mode: [`ExecContext::run_units`]
/// may execute worker bodies *sequentially* on one runner, so a merge loop
/// must never block on fragments unless every worker body has provably
/// started (`started == threads`). When that does not hold, a worker simply
/// exits after draining what is already mergeable — the final body observes
/// `flushers == 0` and drains every remaining partition itself.
struct PartitionHandoff {
    /// Merged fragments per partition (flushers append under the lock).
    slots: Vec<Mutex<TupleDataCollection>>,
    /// Fragments still outstanding per partition; the flush that takes a
    /// partition's count to zero publishes it to `ready`.
    pending: Vec<AtomicUsize>,
    /// Mergeable partitions as `(payload bytes, partition index)`.
    ready: Mutex<Vec<(usize, usize)>>,
    ready_cv: Condvar,
    /// Read-ahead marker per partition (first claimant warms it).
    prefetched: Vec<AtomicBool>,
    /// A worker failed (error or panic): abandon all waiting.
    failed: AtomicBool,
    /// Worker bodies that have begun executing (see the type docs).
    started: AtomicUsize,
    /// Workers still probing: merge claims hold off until this is zero.
    probers: AtomicUsize,
    /// Workers that have not finished flushing. Zero means `ready` is
    /// complete; the worker that takes it there stamps the phase-1 wall
    /// and the mid-run buffer stats.
    flushers: AtomicUsize,
    phase1_nanos: AtomicU64,
    stats_mid: Mutex<Option<BufferStats>>,
}

impl PartitionHandoff {
    fn new(
        mgr: &Arc<BufferManager>,
        layout: &Arc<TupleDataLayout>,
        partitions: usize,
        threads: usize,
    ) -> Self {
        PartitionHandoff {
            slots: (0..partitions)
                .map(|_| {
                    Mutex::new(TupleDataCollection::new(
                        Arc::clone(mgr),
                        Arc::clone(layout),
                    ))
                })
                .collect(),
            pending: (0..partitions).map(|_| AtomicUsize::new(threads)).collect(),
            ready: Mutex::new(Vec::new()),
            ready_cv: Condvar::new(),
            prefetched: (0..partitions).map(|_| AtomicBool::new(false)).collect(),
            failed: AtomicBool::new(false),
            started: AtomicUsize::new(0),
            probers: AtomicUsize::new(threads),
            flushers: AtomicUsize::new(threads),
            phase1_nanos: AtomicU64::new(0),
            stats_mid: Mutex::new(None),
        }
    }

    /// Mark the run failed and wake every waiter (idempotent).
    fn fail(&self) {
        self.failed.store(true, Ordering::Release);
        let _guard = self.ready.lock();
        self.ready_cv.notify_all();
    }
}

/// Arms [`PartitionHandoff::fail`] until a worker body completes cleanly —
/// error returns *and* panics unwind through here, so waiting peers always
/// wake instead of deadlocking on fragments that will never arrive.
struct FailGuard<'a> {
    handoff: &'a PartitionHandoff,
    armed: bool,
}

impl Drop for FailGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.handoff.fail();
        }
    }
}

/// Run the full aggregation, streaming output chunks to `consumer` (which is
/// called concurrently from the phase-2 tasks).
pub fn hash_aggregate_streaming(
    mgr: &Arc<BufferManager>,
    source: &dyn ChunkSource,
    input_schema: &[LogicalType],
    plan: &HashAggregatePlan,
    config: &AggregateConfig,
    consumer: &(dyn Fn(DataChunk) -> Result<()> + Sync),
) -> Result<RunStats> {
    hash_aggregate_streaming_ctx(
        mgr,
        source,
        input_schema,
        plan,
        config,
        &ExecContext::new(),
        consumer,
    )
}

/// Like [`hash_aggregate_streaming`], but scheduled through `ctx`: both
/// phases run on the context's shared worker pool (when it has one), and the
/// context's cancellation token is checked between chunks in phase 1 and
/// between chunk batches in phase 2. On cancellation every thread-local and
/// partitioned intermediate is dropped before this returns, so pinned pages
/// are unpinned and spill files deleted promptly.
pub fn hash_aggregate_streaming_ctx(
    mgr: &Arc<BufferManager>,
    source: &dyn ChunkSource,
    input_schema: &[LogicalType],
    plan: &HashAggregatePlan,
    config: &AggregateConfig,
    ctx: &ExecContext,
    consumer: &(dyn Fn(DataChunk) -> Result<()> + Sync),
) -> Result<RunStats> {
    assert!(
        config.ht_capacity >= 4 * VECTOR_SIZE,
        "phase-1 table must be at least 4x the vector size"
    );
    let bound = bind_plan(plan, input_schema)?;
    // A source that knows its sort columns lets the operator assert the
    // sorted-input fast path up front: when the grouping keys cover a
    // prefix of the sort columns (any permutation of a sorted prefix
    // arrives grouped), `Detect` is promoted to `Sorted` and the sampling
    // phase is skipped.
    let promoted;
    let config = if config.sorted_input == SortedInput::Detect
        && source.sorted_by().is_some_and(|sorted| {
            !plan.group_cols.is_empty()
                && plan.group_cols.len() <= sorted.len()
                && plan
                    .group_cols
                    .iter()
                    .all(|c| sorted[..plan.group_cols.len()].contains(c))
        }) {
        promoted = AggregateConfig {
            sorted_input: SortedInput::Sorted,
            ..config.clone()
        };
        &promoted
    } else {
        config
    };
    let radix_bits = config.effective_radix_bits();
    let stats_before = mgr.stats();

    // Every run collects a full profile: workers credit busy time and work
    // units to the collector's current phase, and the orchestration below
    // stamps the phase walls. A service-attached collector (via the
    // context) is reused so its scrape sees the same numbers; otherwise a
    // private one backs the RunStats profile.
    let collector = ctx
        .profile()
        .cloned()
        .unwrap_or_else(|| Arc::new(ProfileCollector::new()));
    let ctx_prof = ctx.clone().with_profile(Arc::clone(&collector));
    let ctx = &ctx_prof;
    collector.set_threads(config.threads);
    // Timeline tracing is strictly opt-in: with no collector on the
    // context, every span site below is a skipped `Option` check. With
    // one, the buffer manager's background I/O workers record into the
    // same collector (via a weak sink), so spill/read-ahead overlap shows
    // up on `io` tracks next to the compute tracks.
    let spans = ctx.spans().cloned();
    if let Some(sc) = &spans {
        mgr.attach_spans(sc);
    }
    let cbuf = spans.as_ref().map(|sc| sc.track("coordinator"));
    let t_run = Instant::now();

    let sink = AggSink {
        plan: &bound,
        mgr,
        config,
        ctx,
        radix_bits,
        rows_in: AtomicUsize::new(0),
        resets: AtomicU64::new(0),
        instream_used: AtomicBool::new(false),
    };
    let threads_n = config.threads.max(1);
    let partitions = 1usize << radix_bits;
    let groups_out = AtomicUsize::new(0);
    // Buffer stats at the probe/merge boundary, for attributing background
    // I/O overlap to the right phase.
    let mut stats_mid: Option<BufferStats> = None;
    // Phases 1 and 2 run inside this immediately-invoked closure so that
    // `drain_io` below executes on success *and* error paths: any deferred
    // background-write error must surface to this query, and accounting must
    // be back at baseline before the final stats delta is taken.
    let run: Result<(Duration, Duration, usize, u64)> = (|| {
        collector.set_phase(Phase::Probe);
        collector.add_partitions(partitions as u64);
        let handoff = PartitionHandoff::new(mgr, &bound.layout, partitions, threads_n);
        let depth = config.readahead_depth;
        let t0 = Instant::now();
        let t0_ns = cbuf.as_ref().map(|b| b.now_ns());
        // The unified worker body: probe morsels into thread-local state,
        // flush fragments through the per-partition handoff,
        // then merge whatever partitions are (or become) ready. There is no
        // barrier: the first complete partition is merged while other
        // workers still probe.
        let worker = || -> Result<()> {
            let wid = collector.begin_worker();
            let sbuf = spans.as_ref().map(|sc| sc.track(format!("worker {wid}")));
            let mut guard = FailGuard {
                handoff: &handoff,
                armed: true,
            };
            handoff.started.fetch_add(1, Ordering::AcqRel);
            let t_worker = Instant::now();
            let t_probe_ns = sbuf.as_ref().map(|b| b.now_ns());
            let mut local = sink.local()?;
            let mut reader = source.reader();
            let mut chunks = 0u64;
            let probe_res: Result<()> = (|| {
                // Tracing-only morsel segmentation: one span per claimed
                // morsel, one timestamp per chunk — skipped entirely when
                // no collector is attached.
                let mut m_seen = 0u64;
                let mut m_start = 0u64;
                while let Some(chunk) = reader.next()? {
                    ctx.check_cancelled()?;
                    let t_chunk = sbuf.as_ref().map(|b| b.now_ns());
                    local.sink(chunk)?;
                    chunks += 1;
                    if let (Some(b), Some(t)) = (&sbuf, t_chunk) {
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
                if let Some(b) = &sbuf {
                    if m_seen > 0 {
                        b.complete(
                            "morsel",
                            span_cat::COMPUTE,
                            m_start,
                            span::arg1("morsel", m_seen - 1),
                        );
                    }
                }
                Ok(())
            })();
            let morsels = reader.morsels_claimed();
            drop(reader);
            sink.rows_in.fetch_add(local.rows_in, Ordering::Relaxed);
            sink.resets.fetch_add(local.resets, Ordering::Relaxed);
            collector.record_worker_resets(wid, local.resets);
            probe_res?;
            if local.instream.is_some() {
                sink.instream_used.store(true, Ordering::Relaxed);
            }
            local.data.release_pins();
            if handoff.probers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Probe pins are gone everywhere: wake merge waiters.
                let _g = handoff.ready.lock();
                handoff.ready_cv.notify_all();
            }
            if let (Some(b), Some(t)) = (&sbuf, t_probe_ns) {
                b.complete(
                    "probe",
                    span_cat::COMPUTE,
                    t,
                    span::arg2("chunks", chunks, "morsels", morsels),
                );
            }
            let t_flush_ns = sbuf.as_ref().map(|b| b.now_ns());
            // Flush fragments partition by partition, staggered by worker
            // id so concurrent flushes mostly touch different slot locks.
            // The flush that completes a partition publishes it.
            for k in 0..partitions {
                let p = (k + wid) % partitions;
                let frag = local.data.take_partition(p);
                handoff.slots[p].lock().merge_from(frag);
                if handoff.pending[p].fetch_sub(1, Ordering::AcqRel) == 1 {
                    let bytes = handoff.slots[p].lock().data_bytes();
                    let mut ready = handoff.ready.lock();
                    ready.push((bytes, p));
                    handoff.ready_cv.notify_one();
                    if let Some(b) = &sbuf {
                        b.instant(
                            "publish",
                            span_cat::COMPUTE,
                            span::arg1("partition", p as u64),
                        );
                    }
                }
            }
            if let (Some(b), Some(t)) = (&sbuf, t_flush_ns) {
                b.complete(
                    "flush",
                    span_cat::COMPUTE,
                    t,
                    span::arg1("partitions", partitions as u64),
                );
            }
            drop(local); // frees the probe table before merging starts
            let probe_busy = t_worker.elapsed();
            collector.add_busy_to(Phase::Probe, probe_busy);
            collector.add_units_to(Phase::Probe, chunks);
            collector.record_worker(wid, probe_busy, morsels, chunks);
            if handoff.flushers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Every fragment is flushed: phase 1 is over. Stamp its
                // wall and the buffer stats snapshot that attributes
                // background I/O overlap to the right phase.
                handoff
                    .phase1_nanos
                    .store(t0.elapsed().as_nanos() as u64, Ordering::Release);
                *handoff.stats_mid.lock() = Some(mgr.stats());
                let _g = handoff.ready.lock();
                handoff.ready_cv.notify_all();
            }
            // Merge loop: claim ready partitions (largest first) until the
            // run drains — or until waiting would be unsound because not
            // every worker body has started (saturated pool runs bodies
            // sequentially; the final body drains the leftovers). Claims
            // hold off while any worker is still *probing*: probe pages are
            // pinned, and pinning phase-2 partitions on top of them would
            // raise the peak pinned footprint past what admission promised.
            // Flushed fragments are unpinned, so merging overlaps the
            // remaining flush work freely.
            let mut merge_busy = Duration::ZERO;
            loop {
                let claim = loop {
                    if handoff.failed.load(Ordering::Acquire) {
                        return Err(Error::Cancelled);
                    }
                    // Loaded *before* the ready lock: observing zero means
                    // every flush (and its ready-publish) happens-before
                    // this lock acquisition, so an empty list is final.
                    let flushers_left = handoff.flushers.load(Ordering::Acquire);
                    let probing = handoff.probers.load(Ordering::Acquire) > 0;
                    let all_started = handoff.started.load(Ordering::Acquire) >= threads_n;
                    let mut ready = handoff.ready.lock();
                    if !probing {
                        if let Some(k) = lpt_claim(&ready) {
                            break Some(ready.swap_remove(k));
                        }
                    }
                    if flushers_left == 0 || !all_started {
                        break None;
                    }
                    let _timeout = handoff
                        .ready_cv
                        .wait_for(&mut ready, Duration::from_millis(5));
                };
                let Some((_, p)) = claim else { break };
                let t_merge = Instant::now();
                let t_merge_ns = sbuf.as_ref().map(|b| {
                    b.instant(
                        "claim",
                        span_cat::COMPUTE,
                        span::arg1("partition", p as u64),
                    );
                    b.now_ns()
                });
                // Read-ahead: warm the largest still-queued partitions so
                // their spilled pages are resident by the time a worker
                // claims them.
                if depth > 0 {
                    let snapshot: Vec<(usize, usize)> = handoff.ready.lock().clone();
                    let sizes: Vec<usize> = snapshot.iter().map(|&(b, _)| b).collect();
                    let mut warmed = 0usize;
                    for pos in lpt_order(&sizes) {
                        if warmed >= depth {
                            break;
                        }
                        let pi = snapshot[pos].1;
                        if !handoff.prefetched[pi].swap(true, Ordering::Relaxed) {
                            handoff.slots[pi].lock().prefetch_all();
                            warmed += 1;
                        }
                    }
                }
                let part = {
                    let mut slot = handoff.slots[p].lock();
                    std::mem::replace(
                        &mut *slot,
                        TupleDataCollection::new(Arc::clone(mgr), Arc::clone(&bound.layout)),
                    )
                };
                collector.add_units_to(Phase::Merge, 1);
                finalize_partition(
                    &bound,
                    mgr,
                    config,
                    ctx,
                    p,
                    part,
                    consumer,
                    &groups_out,
                    sbuf.as_deref(),
                )?;
                if let (Some(b), Some(t)) = (&sbuf, t_merge_ns) {
                    b.complete(
                        "merge",
                        span_cat::COMPUTE,
                        t,
                        span::arg1("partition", p as u64),
                    );
                }
                merge_busy += t_merge.elapsed();
            }
            collector.add_busy_to(Phase::Merge, merge_busy);
            guard.armed = false;
            Ok(())
        };
        if threads_n == 1 {
            worker()?;
        } else {
            ctx.run_units(threads_n, &worker)?;
        }
        // Phase walls under overlap: phase 1 ends when the last fragment
        // flushes; everything after is merge. The old partition step is a
        // per-partition handoff now — it has no wall of its own.
        stats_mid = handoff.stats_mid.lock().take();
        let phase1 = Duration::from_nanos(handoff.phase1_nanos.load(Ordering::Acquire));
        let phase2 = t0.elapsed().saturating_sub(phase1);
        collector.set_phase_wall(Phase::Probe, phase1);
        collector.set_phase_wall(Phase::Partition, Duration::ZERO);
        collector.set_phase_wall(Phase::Merge, phase2);
        if let (Some(b), Some(t0n)) = (&cbuf, t0_ns) {
            // Phase lanes on the coordinator track: the wall-clock extent
            // of phase 1 (until the last fragment flushed) and phase 2,
            // for orientation above the per-worker tracks.
            let p1 = phase1.as_nanos() as u64;
            let p2 = phase2.as_nanos() as u64;
            b.complete_between("phase 1", span_cat::COMPUTE, t0n, t0n + p1, span::NO_ARGS);
            b.complete_between(
                "phase 2",
                span_cat::COMPUTE,
                t0n + p1,
                t0n + p1 + p2,
                span::NO_ARGS,
            );
        }
        collector.set_strategy(if sink.instream_used.load(Ordering::Relaxed) {
            "instream"
        } else {
            "thread_local"
        });
        let rows_in = sink.rows_in.load(Ordering::Relaxed);
        let resets = sink.resets.load(Ordering::Relaxed);
        Ok((phase1, phase2, rows_in, resets))
    })();

    // Wait out any in-flight background writes/reads: a deferred spill error
    // belongs to this query, and the stats delta below must not race active
    // I/O. The run's own error (if any) takes precedence.
    let t_drain_ns = cbuf.as_ref().map(|b| b.now_ns());
    let drained = mgr.drain_io();
    if let (Some(b), Some(t)) = (&cbuf, t_drain_ns) {
        b.complete("drain_io", span_cat::IO, t, span::NO_ARGS);
    }
    let (phase1, phase2, rows_in, resets) = run?;
    drained?;

    let groups = groups_out.load(Ordering::Relaxed);
    let stats_after = mgr.stats();
    let buffer = stats_after.delta_since(&stats_before);
    if let Some(mid) = &stats_mid {
        // Background I/O that overlapped each phase: spill writes issued
        // while the probe ran; writes plus read-ahead loads during the
        // merge.
        let d1 = mid.delta_since(&stats_before);
        collector.set_phase_overlap(Phase::Probe, Duration::from_nanos(d1.bg_write_nanos));
        let d2 = stats_after.delta_since(mid);
        collector.set_phase_overlap(
            Phase::Merge,
            Duration::from_nanos(d2.bg_write_nanos + d2.readahead_nanos),
        );
    }
    collector.set_readahead(buffer.readahead_hits, buffer.readahead_misses);
    collector.set_phase(Phase::Finalize);
    collector.add_rows_in(rows_in as u64);
    collector.add_groups(groups as u64);
    collector.add_ht_resets(resets);
    collector.set_spill_io(
        buffer.temp_bytes_written,
        buffer.temp_bytes_read,
        buffer.spill_retries,
        buffer.evictions_persistent + buffer.evictions_temporary,
    );
    let operator = match config.kernel_mode {
        KernelMode::Vectorized => "HASH_AGGREGATE (vectorized)",
        KernelMode::Scalar => "HASH_AGGREGATE (scalar)",
    };
    let mut profile = collector.finish(operator, t_run.elapsed());
    if let Some(sc) = &spans {
        // The workers have joined and `drain_io` waited out the background
        // jobs, so every buffer for this query is quiescent: merge them
        // into the profile. Non-destructive — a service collector carrying
        // admission spans keeps them for its own export.
        profile.timeline = sc.merge();
    }

    Ok(RunStats {
        rows_in,
        groups,
        partitions,
        resets,
        phase1,
        phase2,
        buffer,
        profile,
    })
}

/// Run the aggregation and collect the output in memory (convenient for
/// tests and small results; large results should stream).
pub fn hash_aggregate_collect(
    mgr: &Arc<BufferManager>,
    source: &dyn ChunkSource,
    input_schema: &[LogicalType],
    plan: &HashAggregatePlan,
    config: &AggregateConfig,
) -> Result<(rexa_exec::ChunkCollection, RunStats)> {
    let bound = bind_plan(plan, input_schema)?;
    let out = Mutex::new(rexa_exec::ChunkCollection::new(bound.output_types.clone()));
    let stats = hash_aggregate_streaming(mgr, source, input_schema, plan, config, &|chunk| {
        out.lock().push(chunk)
    })?;
    Ok((out.into_inner(), stats))
}

/// The output schema (group columns then aggregates) of a plan against an
/// input schema.
pub fn output_schema(
    plan: &HashAggregatePlan,
    input_schema: &[LogicalType],
) -> Result<Vec<LogicalType>> {
    Ok(bind_plan(plan, input_schema)?.output_types)
}

/// Bytes per materialized row (hash, group keys, aggregate states) for a
/// plan against an input schema. Footprint estimators use this to size the
/// pinned-partition part of a query's memory demand.
pub fn plan_row_width(plan: &HashAggregatePlan, input_schema: &[LogicalType]) -> Result<usize> {
    Ok(bind_plan(plan, input_schema)?.layout.row_width())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::{reference_aggregate, sorted_rows};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rexa_buffer::{BufferManagerConfig, EvictionPolicy};
    use rexa_exec::pipeline::CollectionSource;
    use rexa_exec::{ChunkCollection, Value};
    use rexa_storage::scratch_dir;

    fn mgr_with(limit: usize, page_size: usize) -> Arc<BufferManager> {
        BufferManager::new(
            BufferManagerConfig::with_limit(limit)
                .page_size(page_size)
                .policy(EvictionPolicy::Mixed)
                .temp_dir(scratch_dir("agg").unwrap()),
        )
        .unwrap()
    }

    /// rows of (key % groups, value, string derived from key)
    fn make_input(rows: usize, groups: usize, seed: u64) -> ChunkCollection {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coll = ChunkCollection::new(vec![
            LogicalType::Int64,
            LogicalType::Int64,
            LogicalType::Varchar,
        ]);
        let mut remaining = rows;
        while remaining > 0 {
            let n = remaining.min(VECTOR_SIZE);
            remaining -= n;
            let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..groups) as i64).collect();
            let vals: Vec<i64> = keys.iter().map(|k| k * 10).collect();
            let strs: Vec<String> = keys
                .iter()
                .map(|k| {
                    if k % 2 == 0 {
                        format!("k{k}")
                    } else {
                        format!("group number {k} with a long string payload")
                    }
                })
                .collect();
            coll.push(DataChunk::new(vec![
                Vector::from_i64(keys),
                Vector::from_i64(vals),
                Vector::from_strs(strs),
            ]))
            .unwrap();
        }
        coll
    }

    fn check_against_reference(
        coll: &ChunkCollection,
        plan: &HashAggregatePlan,
        config: &AggregateConfig,
        mgr: &Arc<BufferManager>,
    ) -> RunStats {
        let source = CollectionSource::new(coll);
        let (out, stats) =
            hash_aggregate_collect(mgr, &source, coll.types(), plan, config).unwrap();
        let got = sorted_rows(out.chunks());
        let source = CollectionSource::new(coll);
        let want =
            reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
        assert_eq!(got.len(), want.len(), "group count mismatch");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w);
        }
        assert_eq!(stats.groups, want.len());
        stats
    }

    fn small_config(threads: usize) -> AggregateConfig {
        AggregateConfig {
            threads,
            radix_bits: Some(3),
            ht_capacity: 4 * VECTOR_SIZE, // small: force frequent resets
            output_chunk_size: 512,
            reset_fill_percent: 66,
            ..Default::default()
        }
    }

    #[test]
    fn lpt_order_sorts_skewed_partitions_largest_first() {
        // Zipf-ish partition payloads: one giant, a few mid-size, a long
        // tail of near-empty partitions (what radix partitioning produces
        // over skewed keys).
        let sizes = [4096, 0, 786_432, 64, 8_388_608, 4096, 0, 131_072];
        let order = lpt_order(&sizes);
        assert_eq!(order, vec![4, 2, 7, 0, 5, 3, 1, 6]);
        // The schedule is a permutation, monotonically non-increasing in
        // size, with ties broken on the lower index (0 before 5, 1 before 6).
        for w in order.windows(2) {
            assert!(sizes[w[0]] >= sizes[w[1]]);
            if sizes[w[0]] == sizes[w[1]] {
                assert!(w[0] < w[1]);
            }
        }
        assert!(lpt_order(&[]).is_empty());
        assert_eq!(lpt_order(&[7]), vec![0]);
    }

    #[test]
    fn matches_reference_single_thread() {
        let coll = make_input(20_000, 500, 1);
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![
                AggregateSpec::count_star(),
                AggregateSpec::sum(1),
                AggregateSpec::min(1),
                AggregateSpec::max(1),
                AggregateSpec::avg(1),
            ],
        };
        let stats = check_against_reference(&coll, &plan, &small_config(1), &mgr);
        assert_eq!(stats.rows_in, 20_000);
    }

    #[test]
    fn matches_reference_multi_thread() {
        let coll = make_input(50_000, 2_000, 2);
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        for threads in [2, 4, 8] {
            check_against_reference(&coll, &plan, &small_config(threads), &mgr);
        }
    }

    #[test]
    fn spill_failure_aborts_cleanly_and_releases_everything() {
        use rexa_storage::{FaultInjector, FaultKind, FaultRule, IoBackend, IoOp, Schedule};
        // Same geometry as `spills_under_tight_memory_and_stays_correct`,
        // but every spill write hits ENOSPC: the run must abort with the
        // typed error, release every pin / reservation / temp slot, and
        // leave the manager fit for an immediate fault-free rerun.
        let coll = make_input(60_000, 60_000, 5);
        let injector = Arc::new(FaultInjector::new(9).rule(FaultRule::on(
            IoOp::Write,
            Schedule::Always,
            FaultKind::Enospc,
        )));
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(coll.approx_bytes() / 2)
                .page_size(4 << 10)
                .policy(EvictionPolicy::Mixed)
                .temp_dir(scratch_dir("aggfault").unwrap())
                .io_backend(Arc::clone(&injector) as Arc<dyn IoBackend>),
        )
        .unwrap();
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        let config = AggregateConfig {
            threads: 4,
            radix_bits: Some(5),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: VECTOR_SIZE,
            reset_fill_percent: 66,
            ..Default::default()
        };
        let source = CollectionSource::new(&coll);
        let err = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config)
            .expect_err("a spilling run cannot succeed with all spill writes failing");
        assert!(
            matches!(err, rexa_exec::Error::SpillFailed { .. }),
            "expected SpillFailed, got {err}"
        );
        let s = mgr.stats();
        assert_eq!(s.temporary_resident, 0, "leaked pages: {s:?}");
        assert_eq!(s.non_paged, 0, "leaked reservation: {s:?}");
        assert_eq!(s.temp_bytes_on_disk, 0, "leaked spill bytes: {s:?}");
        assert_eq!(mgr.temp_slots_in_use(), 0, "leaked temp slot");
        assert!(s.spill_failures > 0, "{s:?}");
        // Disk recovers; the identical run on the same manager is correct.
        injector.set_enabled(false);
        let stats = check_against_reference(&coll, &plan, &config, &mgr);
        assert!(stats.buffer.evictions_temporary > 0, "{:?}", stats.buffer);
    }

    #[test]
    fn string_group_keys() {
        let coll = make_input(30_000, 300, 3);
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![2], // varchar column, mix of inline + heap strings
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        check_against_reference(&coll, &plan, &small_config(4), &mgr);
    }

    #[test]
    fn multi_column_keys_with_any_value() {
        let coll = make_input(25_000, 100, 4);
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0, 2],
            aggregates: vec![
                AggregateSpec::any_value(2),
                AggregateSpec::any_value(1),
                AggregateSpec::count_star(),
            ],
        };
        check_against_reference(&coll, &plan, &small_config(4), &mgr);
    }

    #[test]
    fn all_unique_groups() {
        // Worst case for pre-aggregation: no reduction at all.
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64]);
        let mut k = 0i64;
        for _ in 0..10 {
            let keys: Vec<i64> = (0..VECTOR_SIZE as i64).map(|i| k + i).collect();
            k += VECTOR_SIZE as i64;
            coll.push(DataChunk::new(vec![Vector::from_i64(keys)]))
                .unwrap();
        }
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star()],
        };
        let stats = check_against_reference(&coll, &plan, &small_config(4), &mgr);
        assert_eq!(stats.groups, 10 * VECTOR_SIZE);
    }

    #[test]
    fn all_same_group() {
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
        for _ in 0..5 {
            coll.push(DataChunk::new(vec![
                Vector::from_i64(vec![7; 1000]),
                Vector::from_i64((0..1000).collect()),
            ]))
            .unwrap();
        }
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        let stats = check_against_reference(&coll, &plan, &small_config(4), &mgr);
        assert_eq!(stats.groups, 1);
    }

    #[test]
    fn null_group_keys_form_one_group() {
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
        let mut chunk = DataChunk::empty(coll.types());
        for i in 0..100i64 {
            let key = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int64(i % 5)
            };
            chunk.push_row(&[key, Value::Int64(i)]).unwrap();
        }
        coll.push(chunk).unwrap();
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        check_against_reference(&coll, &plan, &small_config(2), &mgr);
    }

    #[test]
    fn empty_input_produces_no_groups() {
        let coll = ChunkCollection::new(vec![LogicalType::Int64]);
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star()],
        };
        let source = CollectionSource::new(&coll);
        let (out, stats) =
            hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &small_config(4)).unwrap();
        assert_eq!(out.rows(), 0);
        assert_eq!(stats.groups, 0);
    }

    #[test]
    fn spills_under_tight_memory_and_stays_correct() {
        // High-cardinality aggregation with a limit far below the
        // intermediate size: the buffer manager must spill, and the result
        // must still be exact. This is the paper's headline behaviour.
        let coll = make_input(60_000, 60_000, 5);
        let approx = coll.approx_bytes();
        // Phase 1 needs threads x partitions x 2 pinned pages; with 4 KiB
        // pages, 4 threads and 32 partitions that is 1 MiB, below the
        // ~1.7 MiB limit — while the ~6 MiB of intermediates exceed it.
        let mgr = mgr_with(approx / 2, 4 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0, 2],
            aggregates: vec![
                AggregateSpec::count_star(),
                AggregateSpec::sum(1),
                AggregateSpec::any_value(2),
            ],
        };
        let config = AggregateConfig {
            threads: 4,
            radix_bits: Some(5), // over-partitioning keeps phase 2 in memory
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: VECTOR_SIZE,
            reset_fill_percent: 66,
            ..Default::default()
        };
        let stats = check_against_reference(&coll, &plan, &config, &mgr);
        assert!(
            stats.buffer.evictions_temporary > 0,
            "expected spilling, got {:?}",
            stats.buffer
        );
        assert!(stats.buffer.temp_bytes_written > 0);
        assert!(stats.resets > 0, "small table must have reset");
        // Eager destroy: after the run, no temp data is left on disk.
        assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
        assert_eq!(mgr.stats().temporary_resident, 0);
    }

    #[test]
    fn graceful_error_when_phase2_partition_cannot_fit() {
        // Pathological: 1 partition, tiny limit -> phase 2 must pin more
        // than fits. The operator reports OOM instead of corrupting.
        let coll = make_input(40_000, 40_000, 6);
        let mgr = mgr_with(320 << 10, 16 << 10); // 20 pages
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star()],
        };
        let config = AggregateConfig {
            threads: 2,
            radix_bits: Some(0), // no over-partitioning: provoke the failure
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: VECTOR_SIZE,
            reset_fill_percent: 66,
            ..Default::default()
        };
        let source = CollectionSource::new(&coll);
        let err = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap_err();
        assert!(err.is_oom(), "expected OOM, got {err}");
    }

    #[test]
    fn output_schema_matches_plan() {
        let schema = vec![
            LogicalType::Int64,
            LogicalType::Varchar,
            LogicalType::Float64,
        ];
        let plan = HashAggregatePlan {
            group_cols: vec![1],
            aggregates: vec![
                AggregateSpec::count_star(),
                AggregateSpec::sum(2),
                AggregateSpec::any_value(0),
            ],
        };
        assert_eq!(
            output_schema(&plan, &schema).unwrap(),
            vec![
                LogicalType::Varchar,
                LogicalType::Int64,
                LogicalType::Float64,
                LogicalType::Int64
            ]
        );
    }

    #[test]
    fn rejects_string_min() {
        let schema = vec![LogicalType::Varchar];
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::min(0)],
        };
        assert!(matches!(
            output_schema(&plan, &schema),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_empty_group_by() {
        let schema = vec![LogicalType::Int64];
        let plan = HashAggregatePlan {
            group_cols: vec![],
            aggregates: vec![AggregateSpec::count_star()],
        };
        assert!(output_schema(&plan, &schema).is_err());
    }

    #[test]
    fn pooled_context_matches_reference() {
        use rexa_exec::pool::WorkerPool;
        let coll = make_input(30_000, 800, 11);
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        let ctx = ExecContext::with_pool(Arc::new(WorkerPool::new(4)));
        let source = CollectionSource::new(&coll);
        let out = Mutex::new(ChunkCollection::new(
            output_schema(&plan, coll.types()).unwrap(),
        ));
        let stats = hash_aggregate_streaming_ctx(
            &mgr,
            &source,
            coll.types(),
            &plan,
            &small_config(4),
            &ctx,
            &|chunk| out.lock().push(chunk),
        )
        .unwrap();
        let got = sorted_rows(out.into_inner().chunks());
        let source = CollectionSource::new(&coll);
        let want =
            reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.rows_in, 30_000);
    }

    #[test]
    fn cancelled_context_aborts_and_releases_everything() {
        let coll = make_input(40_000, 40_000, 12);
        let mgr = mgr_with(64 << 20, 4 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star()],
        };
        let ctx = ExecContext::new();
        ctx.cancel_token().cancel();
        let source = CollectionSource::new(&coll);
        let err = hash_aggregate_streaming_ctx(
            &mgr,
            &source,
            coll.types(),
            &plan,
            &small_config(4),
            &ctx,
            &|_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Cancelled));
        // Everything the run pinned or spilled must be gone.
        assert_eq!(mgr.stats().temporary_resident, 0);
        assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
    }

    #[test]
    fn deterministic_results_across_runs() {
        let coll = make_input(30_000, 1_000, 7);
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::sum(1), AggregateSpec::count_star()],
        };
        let run = |threads| {
            let source = CollectionSource::new(&coll);
            let (out, _) =
                hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &small_config(threads))
                    .unwrap();
            sorted_rows(out.chunks())
        };
        let a = run(1);
        let b = run(4);
        let c = run(8);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    /// Exact (bitwise for floats) row equality. `Value`'s derived
    /// `PartialEq` rejects `NaN == NaN`, so NaN-bearing results compare via
    /// `total_cmp`, which is `Equal` iff the bits are.
    fn assert_rows_bits_equal(got: &[Vec<Value>], want: &[Vec<Value>]) {
        assert_eq!(got.len(), want.len(), "row count mismatch");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.len(), w.len());
            for (a, b) in g.iter().zip(w) {
                assert!(
                    a.total_cmp(b) == std::cmp::Ordering::Equal,
                    "value mismatch: {a:?} vs {b:?}\n got row {g:?}\nwant row {w:?}"
                );
            }
        }
    }

    #[test]
    fn negative_zero_float_key_joins_zero_group() {
        // -0.0 and 0.0 must form one group end to end — hashing, probe
        // compares, pending-entry compares, and the materialized key bytes
        // all normalize — and the surfaced key must be +0.0. NaN keys group
        // bitwise (both rows use the same NAN constant here).
        let mut coll = ChunkCollection::new(vec![LogicalType::Float64, LogicalType::Int64]);
        coll.push(DataChunk::new(vec![
            Vector::from_f64(vec![0.0, -0.0, 1.5, -0.0, 0.0, f64::NAN, f64::NAN]),
            Vector::from_i64(vec![0, 1, 2, 3, 4, 5, 6]),
        ]))
        .unwrap();
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        for mode in [KernelMode::Vectorized, KernelMode::Scalar] {
            let config = AggregateConfig {
                kernel_mode: mode,
                ..small_config(1)
            };
            let source = CollectionSource::new(&coll);
            let (out, stats) =
                hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
            assert_eq!(stats.groups, 3, "{mode:?}: zeros one group, NaNs one group");
            let got = sorted_rows(out.chunks());
            let source = CollectionSource::new(&coll);
            let want =
                reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates)
                    .unwrap();
            assert_rows_bits_equal(&got, &want);
            let zero = got
                .iter()
                .find(|r| matches!(r[0], Value::Float64(f) if f == 0.0))
                .unwrap();
            assert!(
                matches!(zero[0], Value::Float64(f) if f.to_bits() == 0),
                "{mode:?}: key must materialize as +0.0, got {:?}",
                zero[0]
            );
            assert_eq!(
                zero[1],
                Value::Int64(4),
                "{mode:?}: count of the zero group"
            );
            assert_eq!(zero[2], Value::Int64(8), "{mode:?}: sum of the zero group");
        }
    }

    #[test]
    fn adversarial_shared_salt_keys() {
        // 256 distinct i64 keys whose hashes all share one 16-bit salt:
        // every probe collision among them survives the salt filter, so
        // correctness rests entirely on the full key compares
        // (`rows_match_sel` in phase 1, `row_row_match_sel` in phase 2).
        // Filler keys keep the table filling up so probe chains are long.
        let target = hashing::salt(hashing::hash_u64(0));
        let mut colliders: Vec<i64> = vec![];
        let mut k = 0i64;
        while colliders.len() < 256 {
            if hashing::salt(hashing::hash_u64(k as u64)) == target {
                colliders.push(k);
            }
            k += 1;
        }
        let mut rng = StdRng::seed_from_u64(31);
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
        let mut filler = 1_000_000_000i64;
        for _ in 0..4 {
            // Half collider occurrences (duplicates within the chunk hit
            // the pending path), half fresh filler groups; shuffled so the
            // two interleave inside every selection vector.
            let mut keys: Vec<i64> = vec![];
            for _ in 0..4 {
                keys.extend_from_slice(&colliders);
            }
            while keys.len() < VECTOR_SIZE {
                keys.push(filler);
                filler += 1;
            }
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.gen_range(0..=i));
            }
            let vals: Vec<i64> = keys.iter().map(|v| v.wrapping_mul(7)).collect();
            coll.push(DataChunk::new(vec![
                Vector::from_i64(keys),
                Vector::from_i64(vals),
            ]))
            .unwrap();
        }
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![
                AggregateSpec::count_star(),
                AggregateSpec::sum(1),
                AggregateSpec::min(1),
            ],
        };
        for mode in [KernelMode::Vectorized, KernelMode::Scalar] {
            for threads in [1, 4] {
                let config = AggregateConfig {
                    kernel_mode: mode,
                    ..small_config(threads)
                };
                check_against_reference(&coll, &plan, &config, &mgr);
            }
        }
    }

    #[test]
    fn probe_wraps_past_table_end() {
        // 64 distinct keys whose initial slot lands in the last 4 entries
        // of the phase-1 table: their probe chains collide at the end of
        // the entry array and must wrap around to slot 0. Duplicates within
        // a chunk make pending entries wrap too.
        let cap = 4 * VECTOR_SIZE; // small_config's ht_capacity
        let mask = cap as u64 - 1;
        let mut keys: Vec<i64> = vec![];
        let mut k = 0i64;
        while keys.len() < 64 {
            if hashing::hash_u64(k as u64) & mask >= mask - 3 {
                keys.push(k);
            }
            k += 1;
        }
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
        for _ in 0..3 {
            let mut ks: Vec<i64> = vec![];
            while ks.len() + keys.len() <= VECTOR_SIZE {
                ks.extend_from_slice(&keys);
            }
            let vals: Vec<i64> = ks.iter().map(|v| v.wrapping_mul(13)).collect();
            coll.push(DataChunk::new(vec![
                Vector::from_i64(ks),
                Vector::from_i64(vals),
            ]))
            .unwrap();
        }
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![
                AggregateSpec::count_star(),
                AggregateSpec::sum(1),
                AggregateSpec::max(1),
            ],
        };
        for mode in [KernelMode::Vectorized, KernelMode::Scalar] {
            let config = AggregateConfig {
                kernel_mode: mode,
                ..small_config(1)
            };
            let stats = check_against_reference(&coll, &plan, &config, &mgr);
            assert_eq!(stats.groups, 64, "{mode:?}");
        }
    }

    #[test]
    fn chunk_lands_exactly_on_reset_boundary() {
        // reset_fill_percent: 50 with capacity 8192 puts the reset
        // threshold at exactly 4096 occupied slots — two full chunks of
        // unique keys. Every second chunk triggers a reset precisely at the
        // boundary; a final chunk repeating earlier keys must rediscover
        // them as fresh groups in the cleared table without double counting.
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
        let mut k = 0i64;
        for _ in 0..6 {
            let keys: Vec<i64> = (k..k + VECTOR_SIZE as i64).collect();
            k += VECTOR_SIZE as i64;
            let vals: Vec<i64> = keys.iter().map(|v| v * 3).collect();
            coll.push(DataChunk::new(vec![
                Vector::from_i64(keys),
                Vector::from_i64(vals),
            ]))
            .unwrap();
        }
        let keys: Vec<i64> = (0..VECTOR_SIZE as i64).collect();
        let vals: Vec<i64> = keys.iter().map(|v| v * 3).collect();
        coll.push(DataChunk::new(vec![
            Vector::from_i64(keys),
            Vector::from_i64(vals),
        ]))
        .unwrap();
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        for mode in [KernelMode::Vectorized, KernelMode::Scalar] {
            let config = AggregateConfig {
                threads: 1,
                radix_bits: Some(3),
                ht_capacity: 4 * VECTOR_SIZE,
                output_chunk_size: 512,
                reset_fill_percent: 50,
                kernel_mode: mode,
                ..Default::default()
            };
            let stats = check_against_reference(&coll, &plan, &config, &mgr);
            assert!(
                stats.resets >= 2,
                "{mode:?}: expected resets, got {stats:?}"
            );
        }
    }

    #[test]
    fn profile_matches_ground_truth_under_memory_pressure() {
        // Same geometry as `spills_under_tight_memory_and_stays_correct`:
        // the QueryProfile in RunStats must agree with the independently
        // tracked RunStats fields and the buffer-manager deltas, and the
        // rendered report must carry the numbers through.
        let coll = make_input(60_000, 60_000, 5);
        let mgr = mgr_with(coll.approx_bytes() / 2, 4 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0, 2],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        let config = AggregateConfig {
            threads: 4,
            radix_bits: Some(5),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: VECTOR_SIZE,
            reset_fill_percent: 66,
            ..Default::default()
        };
        let source = CollectionSource::new(&coll);
        let (out, stats) =
            hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
        let p = &stats.profile;
        assert_eq!(p.operator, "HASH_AGGREGATE (vectorized)");
        assert_eq!(p.threads, 4);
        assert_eq!(p.rows_in, stats.rows_in as u64);
        assert_eq!(p.rows_out, out.rows() as u64, "every group emitted once");
        assert_eq!(p.groups, stats.groups as u64);
        assert_eq!(p.ht_resets, stats.resets);
        assert_eq!(p.partitions, 32);
        assert!(
            p.partitions_external > 0,
            "tight memory must push partitions external: {p:?}"
        );
        assert!(p.partitions_external <= p.partitions);
        assert_eq!(p.spill_bytes_written, stats.buffer.temp_bytes_written);
        assert_eq!(p.spill_bytes_read, stats.buffer.temp_bytes_read);
        assert_eq!(
            p.evictions,
            stats.buffer.evictions_temporary + stats.buffer.evictions_persistent
        );
        assert!(p.spill_bytes_written > 0, "the run must have spilled");
        // Phase walls track the independently measured RunStats timings.
        let probe = &p.phases[Phase::Probe.index()];
        let merge = &p.phases[Phase::Merge.index()];
        assert_eq!(probe.wall, stats.phase1);
        assert_eq!(merge.wall, stats.phase2);
        assert!(probe.busy > Duration::ZERO, "workers recorded probe time");
        assert!(merge.busy > Duration::ZERO);
        assert!(
            probe.units > 0 && probe.units <= stats.rows_in as u64,
            "probe units are chunks: {}",
            probe.units
        );
        assert_eq!(merge.units, 32, "merge units are partition tasks");
        assert!(p.wall >= stats.phase1 + stats.phase2);
        // The rendered report carries the ground-truth numbers.
        let report = p.render();
        assert!(report.contains("HASH_AGGREGATE (vectorized)"), "{report}");
        assert!(
            report.contains(&format!("rows_in {}", stats.rows_in)),
            "{report}"
        );
        assert!(
            report.contains(&format!("groups {}", stats.groups)),
            "{report}"
        );
        assert!(
            report.contains(&format!(
                "spill_bytes_written {}",
                stats.buffer.temp_bytes_written
            )),
            "{report}"
        );
        assert!(
            report.contains(&format!("({} external)", p.partitions_external)),
            "{report}"
        );
    }

    #[test]
    fn async_io_with_readahead_is_correct_and_registers_hits() {
        // The spill-heavy geometry, but through a manager with background
        // I/O workers: eviction writes happen off the worker threads and
        // phase 2 prefetches upcoming partitions. Results must still match
        // the reference oracle exactly, read-ahead must convert at least one
        // synchronous reload into a background hit, and the overlap the
        // profile reports must be real (nonzero merge-phase overlap).
        let coll = make_input(60_000, 60_000, 9);
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(coll.approx_bytes() / 2)
                .page_size(4 << 10)
                .policy(EvictionPolicy::Mixed)
                .temp_dir(scratch_dir("agg_async").unwrap())
                .io_writers(2),
        )
        .unwrap();
        let plan = HashAggregatePlan {
            group_cols: vec![0, 2],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        let config = AggregateConfig {
            threads: 4,
            radix_bits: Some(5),
            ht_capacity: 4 * VECTOR_SIZE,
            readahead_depth: 2,
            ..Default::default()
        };
        let stats = check_against_reference(&coll, &plan, &config, &mgr);
        let p = &stats.profile;
        assert!(
            stats.buffer.temp_bytes_written > 0,
            "the run must have spilled: {:?}",
            stats.buffer
        );
        assert!(
            p.readahead_hits > 0,
            "phase-2 read-ahead produced no hits: {p:?}"
        );
        assert!(
            !p.phases[Phase::Merge.index()].overlap.is_zero(),
            "background reads during the merge must register as overlap"
        );
        // Everything the query touched is released again.
        let s = mgr.stats();
        assert_eq!(s.memory_used, 0, "accounting must return to zero: {s:?}");
        assert_eq!(s.temp_bytes_on_disk, 0);
    }

    #[test]
    fn profile_without_spilling_reports_zero_spill_io() {
        let coll = make_input(20_000, 500, 1);
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        let stats = check_against_reference(&coll, &plan, &small_config(2), &mgr);
        let p = &stats.profile;
        assert_eq!(p.spill_bytes_written, 0);
        assert_eq!(p.partitions_external, 0);
        assert_eq!(p.rows_in, 20_000);
        assert_eq!(p.threads, 2);
    }

    #[test]
    fn scalar_and_vectorized_bit_identical_single_thread() {
        // Float aggregates are order-sensitive; at threads: 1 the
        // vectorized path must reproduce the scalar oracle bit for bit
        // (same probe order, same update order, same phase-2 combine
        // order), including NaN propagation and signed zeros.
        let mut rng = StdRng::seed_from_u64(99);
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Float64]);
        for _ in 0..8 {
            let keys: Vec<i64> = (0..VECTOR_SIZE).map(|_| rng.gen_range(0..200i64)).collect();
            let vals: Vec<f64> = keys
                .iter()
                .map(|&k| match k % 7 {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => k as f64 * 1e-3,
                    3 => -(k as f64) * 1e15,
                    _ => rng.gen::<f64>() * 100.0 - 50.0,
                })
                .collect();
            let mut validity = rexa_exec::Validity::all_valid(VECTOR_SIZE);
            for i in 0..VECTOR_SIZE {
                if rng.gen_bool(0.2) {
                    validity.set_invalid(i);
                }
            }
            coll.push(DataChunk::new(vec![
                Vector::from_i64(keys),
                Vector::from_f64_validity(vals, validity),
            ]))
            .unwrap();
        }
        let mgr = mgr_with(64 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![
                AggregateSpec::count_star(),
                AggregateSpec::sum(1),
                AggregateSpec::avg(1),
                AggregateSpec::min(1),
                AggregateSpec::max(1),
                AggregateSpec::var_samp(1),
                AggregateSpec::stddev_samp(1),
            ],
        };
        let run = |mode| {
            let config = AggregateConfig {
                kernel_mode: mode,
                ..small_config(1)
            };
            let source = CollectionSource::new(&coll);
            let (out, _) =
                hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
            sorted_rows(out.chunks())
        };
        let scalar = run(KernelMode::Scalar);
        let vectorized = run(KernelMode::Vectorized);
        assert_rows_bits_equal(&vectorized, &scalar);
    }

    #[test]
    fn adaptive_stays_thread_local_on_high_cardinality() {
        // ~50k random groups: the sortedness detector sees runs of length
        // one, so the run must stay on the paper's thread-local path.
        let coll = make_input(60_000, 50_000, 7);
        let mgr = mgr_with(256 << 20, 64 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::sum(1), AggregateSpec::count_star()],
        };
        let stats = check_against_reference(&coll, &plan, &small_config(4), &mgr);
        assert_eq!(stats.profile.strategy, "thread_local");
    }

    #[test]
    fn string_and_multi_column_keys_match_reference_at_2_4_8_threads() {
        // Strings (heap payloads) and multi-column keys are the risky
        // shapes for the key compares, at every thread count.
        let coll = make_input(50_000, 300, 3);
        let mgr = mgr_with(64 << 20, 64 << 10);
        for threads in [2, 4, 8] {
            for group_cols in [vec![2], vec![0, 2]] {
                let plan = HashAggregatePlan {
                    group_cols,
                    aggregates: vec![
                        AggregateSpec::sum(1),
                        AggregateSpec::count_star(),
                        AggregateSpec::min(1),
                    ],
                };
                let config = AggregateConfig {
                    threads,
                    radix_bits: Some(3),
                    ..Default::default()
                };
                let stats = check_against_reference(&coll, &plan, &config, &mgr);
                assert_eq!(stats.profile.strategy, "thread_local");
            }
        }
    }

    #[test]
    fn low_cardinality_under_spilling_config_stays_correct() {
        // Few groups under a tight limit with tiny pages: spills and the
        // per-partition handoff must stay correct.
        let coll = make_input(80_000, 512, 21);
        let mgr = mgr_with(1 << 20, 4 << 10);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::sum(1), AggregateSpec::count_star()],
        };
        let stats = check_against_reference(&coll, &plan, &small_config(4), &mgr);
        assert_eq!(stats.profile.strategy, "thread_local");
    }
}
