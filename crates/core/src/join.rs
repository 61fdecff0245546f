//! An external, partitioned **hash join** — the first item on the paper's
//! future-work list ("other blocking operators can benefit from the
//! techniques proposed in this paper, such as the join ...").
//!
//! The operator reuses the aggregation's entire substrate: both inputs are
//! materialized into radix-partitioned spillable collections (keys first,
//! hash column included) with pins released periodically, so the buffer
//! manager can spill either side when memory runs short — the operator never
//! writes to storage itself. Phase 2 processes one radix partition at a
//! time: pin the build partition, insert its rows into a salted pointer
//! table (duplicates occupy their own slots; a probe walks its cluster and
//! collects every match), then stream the probe partition against it,
//! gathering matched row pairs into output chunks. Pages are destroyed
//! eagerly as each partition finishes.
//!
//! Semantics: inner equi-join; rows with a NULL key are dropped on both
//! sides (SQL inner-join semantics). Output columns are the probe columns
//! followed by the build columns, in their original input order.

use crate::ht::{entry_ptr, make_entry, salt_bits, SaltedHashTable};
use parking_lot::Mutex;
use rexa_buffer::{BufferManager, BufferStats};
use rexa_exec::pipeline::{parallel_for, ChunkSource, LocalSink, ParallelSink, Pipeline};
use rexa_exec::{hashing, DataChunk, Error, LogicalType, Result, Vector, VECTOR_SIZE};
use rexa_layout::matcher::row_row_match_cross;
use rexa_layout::{gather_rows, PartitionedTupleData, TupleDataLayout};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The join: which columns to match on. Key lists must have equal length and
/// pairwise equal types.
#[derive(Debug, Clone)]
pub struct HashJoinPlan {
    /// Key columns of the build (usually smaller) input.
    pub build_keys: Vec<usize>,
    /// Key columns of the probe input.
    pub probe_keys: Vec<usize>,
}

/// Tuning knobs of the join.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Worker threads for all phases.
    pub threads: usize,
    /// Radix partition bits; `None` derives from the thread count.
    pub radix_bits: Option<u32>,
    /// Rows per output chunk.
    pub output_chunk_size: usize,
    /// Release materialization pins every N chunks per thread, bounding the
    /// pinned working set (the aggregation gets this for free from its
    /// hash-table resets).
    pub release_every: usize,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            threads: std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(16),
            radix_bits: None,
            output_chunk_size: VECTOR_SIZE,
            release_every: 32,
        }
    }
}

impl JoinConfig {
    fn effective_radix_bits(&self) -> u32 {
        self.radix_bits
            .unwrap_or_else(|| crate::default_radix_bits(self.threads))
    }
}

/// What one join run did.
#[derive(Debug, Clone)]
pub struct JoinStats {
    /// Build rows materialized (after NULL-key filtering).
    pub build_rows: usize,
    /// Probe rows materialized (after NULL-key filtering).
    pub probe_rows: usize,
    /// Output rows produced.
    pub output_rows: usize,
    /// Radix partitions.
    pub partitions: usize,
    /// Wall time of the two materialization pipelines.
    pub materialize: Duration,
    /// Wall time of the partition-wise probe phase.
    pub probe_phase: Duration,
    /// Buffer-manager activity during the run (counters are deltas).
    pub buffer: BufferStats,
}

/// One side's resolved shape: layout (keys first) and the permutations
/// between input order and layout order.
struct Side {
    layout: Arc<TupleDataLayout>,
    /// `perm[j]` = input column index stored at layout column `j`.
    perm: Vec<usize>,
    /// `inv[i]` = layout column index holding input column `i`.
    inv: Vec<usize>,
    key_cols: usize,
}

fn bind_side(schema: &[LogicalType], keys: &[usize]) -> Result<Side> {
    if keys.is_empty() {
        return Err(Error::InvalidInput("join needs at least one key".into()));
    }
    for &k in keys {
        if k >= schema.len() {
            return Err(Error::InvalidInput(format!(
                "join key column {k} out of range ({} columns)",
                schema.len()
            )));
        }
    }
    let mut perm: Vec<usize> = keys.to_vec();
    perm.extend((0..schema.len()).filter(|c| !keys.contains(c)));
    let mut inv = vec![0usize; schema.len()];
    for (j, &i) in perm.iter().enumerate() {
        inv[i] = j;
    }
    let types: Vec<LogicalType> = perm.iter().map(|&c| schema[c]).collect();
    Ok(Side {
        layout: Arc::new(TupleDataLayout::new(types, vec![])),
        perm,
        inv,
        key_cols: keys.len(),
    })
}

/// Materialization sink: radix-partition one input into spillable pages.
struct MaterializeSink<'a> {
    side: &'a Side,
    mgr: &'a Arc<BufferManager>,
    radix_bits: u32,
    release_every: usize,
    shared: Mutex<PartitionedTupleData>,
    rows: AtomicUsize,
}

struct LocalMaterialize<'a> {
    sink: &'a MaterializeSink<'a>,
    data: PartitionedTupleData,
    chunks_since_release: usize,
    rows: usize,
    sel: Vec<u32>,
    hashes: Vec<u64>,
}

impl ParallelSink for MaterializeSink<'_> {
    fn local(&self) -> Result<Box<dyn LocalSink + '_>> {
        Ok(Box::new(LocalMaterialize {
            sink: self,
            data: PartitionedTupleData::new(self.mgr, &self.side.layout, self.radix_bits),
            chunks_since_release: 0,
            rows: 0,
            sel: Vec::new(),
            hashes: Vec::new(),
        }))
    }
}

impl LocalSink for LocalMaterialize<'_> {
    fn sink(&mut self, chunk: &DataChunk) -> Result<()> {
        let side = self.sink.side;
        let n = chunk.len();
        if n == 0 {
            return Ok(());
        }
        let views: Vec<&Vector> = side.perm.iter().map(|&c| chunk.column(c)).collect();
        // Hash the keys; drop rows with any NULL key (inner-join semantics).
        self.hashes.clear();
        self.hashes.resize(n, 0);
        for (ci, view) in views.iter().enumerate().take(side.key_cols) {
            hashing::hash_vector(view, &mut self.hashes, ci > 0);
        }
        self.sel.clear();
        'rows: for i in 0..n {
            for key_view in views.iter().take(side.key_cols) {
                if !key_view.validity().is_valid(i) {
                    continue 'rows;
                }
            }
            self.sel.push(i as u32);
        }
        self.rows += self.sel.len();
        self.data.append(&views, &self.hashes, &self.sel, None)?;
        self.chunks_since_release += 1;
        if self.chunks_since_release >= self.sink.release_every {
            // Bound the pinned working set; everything becomes spillable.
            self.data.release_pins();
            self.chunks_since_release = 0;
        }
        Ok(())
    }

    fn combine(self: Box<Self>) -> Result<()> {
        let mut data = self.data;
        data.release_pins();
        self.sink.shared.lock().combine(data);
        self.sink.rows.fetch_add(self.rows, Ordering::Relaxed);
        Ok(())
    }
}

/// Run the join, streaming output chunks (probe columns then build columns)
/// to `consumer`, which is called concurrently from partition tasks.
#[allow(clippy::too_many_arguments)]
pub fn hash_join_streaming(
    mgr: &Arc<BufferManager>,
    build: &dyn ChunkSource,
    build_schema: &[LogicalType],
    probe: &dyn ChunkSource,
    probe_schema: &[LogicalType],
    plan: &HashJoinPlan,
    config: &JoinConfig,
    consumer: &(dyn Fn(DataChunk) -> Result<()> + Sync),
) -> Result<JoinStats> {
    if plan.build_keys.len() != plan.probe_keys.len() {
        return Err(Error::InvalidInput("key count mismatch".into()));
    }
    let build_side = bind_side(build_schema, &plan.build_keys)?;
    let probe_side = bind_side(probe_schema, &plan.probe_keys)?;
    for (b, p) in plan.build_keys.iter().zip(&plan.probe_keys) {
        if build_schema[*b] != probe_schema[*p] {
            return Err(Error::InvalidInput(format!(
                "key type mismatch: build col {b} is {}, probe col {p} is {}",
                build_schema[*b], probe_schema[*p]
            )));
        }
    }
    let radix_bits = config.effective_radix_bits();
    let stats_before = mgr.stats();

    // Materialize both sides into radix partitions.
    let t0 = Instant::now();
    let build_sink = MaterializeSink {
        side: &build_side,
        mgr,
        radix_bits,
        release_every: config.release_every,
        shared: Mutex::new(PartitionedTupleData::new(
            mgr,
            &build_side.layout,
            radix_bits,
        )),
        rows: AtomicUsize::new(0),
    };
    Pipeline::run(build, &build_sink, config.threads)?;
    let probe_sink = MaterializeSink {
        side: &probe_side,
        mgr,
        radix_bits,
        release_every: config.release_every,
        shared: Mutex::new(PartitionedTupleData::new(
            mgr,
            &probe_side.layout,
            radix_bits,
        )),
        rows: AtomicUsize::new(0),
    };
    Pipeline::run(probe, &probe_sink, config.threads)?;
    let materialize = t0.elapsed();

    // Partition-wise probe.
    let t1 = Instant::now();
    let build_shared = Mutex::new(build_sink.shared.into_inner());
    let probe_shared = Mutex::new(probe_sink.shared.into_inner());
    let output_rows = AtomicUsize::new(0);
    let partitions = 1usize << radix_bits;
    parallel_for(partitions, config.threads, &|p| {
        let build_part = build_shared.lock().take_partition(p);
        let probe_part = probe_shared.lock().take_partition(p);
        if build_part.rows() == 0 || probe_part.rows() == 0 {
            return Ok(()); // inner join: nothing can match
        }
        join_partition(
            mgr,
            config,
            &build_side,
            &probe_side,
            build_part,
            probe_part,
            consumer,
            &output_rows,
        )
    })?;
    let probe_phase = t1.elapsed();

    Ok(JoinStats {
        build_rows: build_sink.rows.load(Ordering::Relaxed),
        probe_rows: probe_sink.rows.load(Ordering::Relaxed),
        output_rows: output_rows.load(Ordering::Relaxed),
        partitions,
        materialize,
        probe_phase,
        buffer: mgr.stats().delta_since(&stats_before),
    })
}

#[allow(clippy::too_many_arguments)]
fn join_partition(
    mgr: &Arc<BufferManager>,
    config: &JoinConfig,
    build_side: &Side,
    probe_side: &Side,
    mut build_part: rexa_layout::TupleDataCollection,
    mut probe_part: rexa_layout::TupleDataCollection,
    consumer: &(dyn Fn(DataChunk) -> Result<()> + Sync),
    output_rows: &AtomicUsize,
) -> Result<()> {
    let build_pins = build_part.pin_all()?;
    let cap = (build_part.rows() * 2).next_power_of_two().max(1024);
    let mut ht = SaltedHashTable::with_capacity(mgr, cap)?;
    let mut ptrs = Vec::new();
    for c in 0..build_part.chunk_count() {
        ptrs.clear();
        build_part.chunk_row_ptrs(&build_pins, c, &mut ptrs);
        for &row in &ptrs {
            // SAFETY: the partition is pinned and recomputed.
            let h = unsafe { build_side.layout.read_hash(row) };
            let mut slot = ht.slot(h);
            // Duplicates keep their own slots: walk to the first empty one.
            while ht.entry(slot) != 0 {
                slot = ht.next_slot(slot);
            }
            ht.set_entry(slot, make_entry(h, row), true);
        }
    }

    let probe_pins = probe_part.pin_all()?;
    let mut out_probe: Vec<*mut u8> = Vec::with_capacity(config.output_chunk_size);
    let mut out_build: Vec<*mut u8> = Vec::with_capacity(config.output_chunk_size);
    let flush = |out_probe: &mut Vec<*mut u8>, out_build: &mut Vec<*mut u8>| -> Result<()> {
        if out_probe.is_empty() {
            return Ok(());
        }
        // SAFETY: all pointers live under the pins held by this function.
        let probe_chunk = unsafe { gather_rows(&probe_side.layout, out_probe) };
        let build_chunk = unsafe { gather_rows(&build_side.layout, out_build) };
        // Restore original column order: probe columns then build columns.
        let mut columns = Vec::with_capacity(probe_side.inv.len() + build_side.inv.len());
        for &j in &probe_side.inv {
            columns.push(probe_chunk.column(j).clone());
        }
        for &j in &build_side.inv {
            columns.push(build_chunk.column(j).clone());
        }
        output_rows.fetch_add(out_probe.len(), Ordering::Relaxed);
        out_probe.clear();
        out_build.clear();
        consumer(DataChunk::new(columns))
    };

    for c in 0..probe_part.chunk_count() {
        ptrs.clear();
        probe_part.chunk_row_ptrs(&probe_pins, c, &mut ptrs);
        for &row in &ptrs {
            // SAFETY: pinned and recomputed.
            let h = unsafe { probe_side.layout.read_hash(row) };
            let mut slot = ht.slot(h);
            loop {
                let e = ht.entry(slot);
                if e == 0 {
                    break;
                }
                if salt_bits(e) == salt_bits(h) {
                    let build_row = entry_ptr(e);
                    // SAFETY: both rows pinned; key types validated at bind.
                    let matches = unsafe {
                        row_row_match_cross(
                            &build_side.layout,
                            &probe_side.layout,
                            build_side.key_cols,
                            build_row,
                            row,
                        )
                    };
                    if matches {
                        out_probe.push(row);
                        out_build.push(build_row);
                        if out_probe.len() == config.output_chunk_size {
                            flush(&mut out_probe, &mut out_build)?;
                        }
                    }
                }
                slot = ht.next_slot(slot);
            }
        }
    }
    flush(&mut out_probe, &mut out_build)?;
    // Eager destroy: both partitions' pages are released now.
    drop(probe_pins);
    drop(build_pins);
    Ok(())
}

/// Run the join and collect the output in memory (tests, small results).
pub fn hash_join_collect(
    mgr: &Arc<BufferManager>,
    build: &dyn ChunkSource,
    build_schema: &[LogicalType],
    probe: &dyn ChunkSource,
    probe_schema: &[LogicalType],
    plan: &HashJoinPlan,
    config: &JoinConfig,
) -> Result<(rexa_exec::ChunkCollection, JoinStats)> {
    let mut output_types: Vec<LogicalType> = probe_schema.to_vec();
    output_types.extend_from_slice(build_schema);
    let out = Mutex::new(rexa_exec::ChunkCollection::new(output_types));
    let stats = hash_join_streaming(
        mgr,
        build,
        build_schema,
        probe,
        probe_schema,
        plan,
        config,
        &|chunk| out.lock().push(chunk),
    )?;
    Ok((out.into_inner(), stats))
}
