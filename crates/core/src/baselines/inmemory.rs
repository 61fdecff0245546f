//! Baseline 1: pure in-memory hash aggregation that **aborts** when the
//! memory limit is exceeded.
//!
//! This is the behaviour the paper's evaluation observes from Umbra on the
//! wide groupings at SF ≥ 32 ('A' cells in Tables II/III) and from
//! ClickHouse at SF 128: excellent while everything fits, a hard error the
//! moment it does not. Memory is accounted against the shared buffer
//! manager via non-paged reservations, so running this baseline also
//! pressures cached pages — but its own state cannot spill.
//!
//! Aggregate states are updated, combined and finalized through the bound
//! kernels (`crate::kernel`), one call per aggregate per chunk.

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::baselines::keyser::{decode_row, serialize_row, ByteHashBuilder};
use crate::function::{bind_aggregate, AggKind, AggregateSpec, BoundAggregate};
use parking_lot::Mutex;
use rexa_buffer::BufferManager;
use rexa_exec::pipeline::{CancelToken, ChunkSource, LocalSink, ParallelSink, Pipeline};
use rexa_exec::{DataChunk, Error, ExecContext, LogicalType, Result, Value, Vector};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-group state: fixed aggregate states plus owned ANY_VALUE slots. The
/// state buffer never moves while the entry lives, even when the map
/// rehashes, and `Vec::as_mut_ptr` takes no reference to it, so pointers
/// to it stay valid across inserts.
struct GroupEntry {
    states: Vec<u8>,
    any: Box<[Option<Value>]>,
}

/// Approximate bytes one map entry costs (key + entry + map overhead).
fn entry_cost(key_len: usize, states: usize, any: &[Option<Value>]) -> usize {
    let any_bytes: usize = any
        .iter()
        .map(|v| match v {
            Some(Value::Varchar(s)) => 32 + s.len(),
            _ => 24,
        })
        .sum();
    key_len + states + any_bytes + 64
}

struct Bound {
    group_cols: Vec<usize>,
    aggs: Vec<BoundAggregate>,
    state_offsets: Vec<usize>,
    states_size: usize,
    any_count: usize,
    output_types: Vec<LogicalType>,
    group_types: Vec<LogicalType>,
}

fn bind(
    schema: &[LogicalType],
    group_cols: &[usize],
    aggregates: &[AggregateSpec],
) -> Result<Bound> {
    if group_cols.is_empty() {
        return Err(Error::Unsupported("ungrouped aggregation".into()));
    }
    let mut aggs = Vec::new();
    let mut state_offsets = Vec::new();
    let mut states_size = 0usize;
    let mut any_count = 0usize;
    let group_types: Vec<LogicalType> = group_cols.iter().map(|&c| schema[c]).collect();
    let mut output_types = group_types.clone();
    for spec in aggregates {
        let b = bind_aggregate(*spec, schema)?;
        output_types.push(b.output_type);
        if b.spec.kind == AggKind::AnyValue {
            any_count += 1;
        }
        state_offsets.push(states_size);
        states_size += b.state_size;
        aggs.push(b);
    }
    Ok(Bound {
        group_cols: group_cols.to_vec(),
        aggs,
        state_offsets,
        states_size,
        any_count,
        output_types,
        group_types,
    })
}

impl Bound {
    /// The aggregates with a state (all but `ANY_VALUE`), with their
    /// positions in `aggs`.
    fn stateful(&self) -> impl Iterator<Item = (usize, &BoundAggregate)> {
        self.aggs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.spec.kind != AggKind::AnyValue)
    }
}

type GroupMap = HashMap<Box<[u8]>, GroupEntry, ByteHashBuilder>;

struct MergedState {
    map: GroupMap,
    /// Reservation covering the merged map's bytes; released when the sink
    /// (and with it the map) is dropped after emitting.
    reservation: Option<rexa_buffer::MemoryReservation>,
    bytes: usize,
}

struct InMemSink<'a> {
    bound: &'a Bound,
    mgr: &'a Arc<BufferManager>,
    cancel: &'a CancelToken,
    merged: Mutex<MergedState>,
}

struct InMemLocal<'a> {
    sink: &'a InMemSink<'a>,
    map: GroupMap,
    reservation: rexa_buffer::MemoryReservation,
    bytes: usize,
    key_scratch: Vec<u8>,
}

/// Reservation is re-synced to actual usage every this many new bytes.
const RESERVE_STEP: usize = 1 << 20;

impl ParallelSink for InMemSink<'_> {
    fn local(&self, _worker: usize) -> Result<Box<dyn LocalSink + '_>> {
        Ok(Box::new(InMemLocal {
            sink: self,
            map: GroupMap::default(),
            reservation: self.mgr.reserve(0)?,
            bytes: 0,
            key_scratch: Vec::new(),
        }))
    }
}

impl InMemLocal<'_> {
    fn grow(&mut self, added: usize) -> Result<()> {
        self.bytes += added;
        if self.bytes > self.reservation.size() {
            // Reserve in steps; failure here is the abort the paper's 'A'
            // cells correspond to.
            self.reservation
                .resize(self.bytes.next_multiple_of(RESERVE_STEP))?;
        }
        Ok(())
    }
}

impl LocalSink for InMemLocal<'_> {
    fn sink(&mut self, chunk: &DataChunk) -> Result<()> {
        self.sink.cancel.check()?;
        let bound = self.sink.bound;
        let group_views: Vec<&Vector> = bound.group_cols.iter().map(|&c| chunk.column(c)).collect();
        // Each row's group states, for one kernel call per aggregate below.
        let mut rows: Vec<*mut u8> = Vec::with_capacity(chunk.len());
        for i in 0..chunk.len() {
            self.key_scratch.clear();
            serialize_row(&group_views, i, &mut self.key_scratch);
            let mut added = 0usize;
            let entry = match self.map.get_mut(self.key_scratch.as_slice()) {
                Some(e) => e,
                None => {
                    let key: Box<[u8]> = self.key_scratch.as_slice().into();
                    let e = GroupEntry {
                        states: vec![0u8; bound.states_size],
                        any: vec![None; bound.any_count].into_boxed_slice(),
                    };
                    added = entry_cost(key.len(), bound.states_size, &e.any);
                    self.map.entry(key).or_insert(e)
                }
            };
            rows.push(entry.states.as_mut_ptr());
            let any_aggs = bound
                .aggs
                .iter()
                .filter(|a| a.spec.kind == AggKind::AnyValue);
            for (slot, agg) in entry.any.iter_mut().zip(any_aggs) {
                if slot.is_none() {
                    let v = chunk.column(agg.spec.arg.unwrap()).value(i);
                    if let Value::Varchar(s) = &v {
                        added += 32 + s.len();
                    }
                    *slot = Some(v);
                }
            }
            if added > 0 {
                self.grow(added)?;
            }
        }
        for (k, agg) in bound.stateful() {
            let arg = agg.spec.arg.map(|c| chunk.column(c));
            // SAFETY: one target per input row, each the state buffer of a
            // live map entry (stable across rehashes), which holds this
            // aggregate's state at `state_offsets[k]`.
            unsafe { (agg.kernels.update)(&rows, bound.state_offsets[k], arg) };
        }
        Ok(())
    }

    fn combine(self: Box<Self>) -> Result<()> {
        // Merge the thread-local map into the shared one. The merged map
        // needs its own reservation; local reservations release on drop.
        let bound = self.sink.bound;
        let mut merged = self.sink.merged.lock();
        if merged.reservation.is_none() {
            merged.reservation = Some(self.sink.mgr.reserve(0)?);
        }
        // Groups already in the merged map: (local states, merged states).
        // ANY_VALUE keeps the merged map's value.
        let mut dups: Vec<(Vec<u8>, *mut u8)> = Vec::new();
        for (key, entry) in self.map {
            match merged.map.get_mut(&key) {
                None => {
                    merged.bytes += entry_cost(key.len(), bound.states_size, &entry.any);
                    if merged.bytes > merged.reservation.as_ref().unwrap().size() {
                        let target = merged.bytes.next_multiple_of(RESERVE_STEP);
                        merged.reservation.as_mut().unwrap().resize(target)?;
                    }
                    merged.map.insert(key, entry);
                }
                Some(existing) => dups.push((entry.states, existing.states.as_mut_ptr())),
            }
        }
        for (k, agg) in bound.stateful() {
            let off = bound.state_offsets[k];
            let pairs: Vec<(*const u8, *mut u8)> = dups
                .iter()
                .map(|(src, dst)| (src[off..].as_ptr(), dst.wrapping_add(off)))
                .collect();
            // SAFETY: each pair is a local group's states and a distinct
            // live merged entry's states (stable across the inserts above),
            // both holding this aggregate's state at `off`.
            unsafe { (agg.kernels.combine)(&pairs) };
        }
        Ok(())
    }
}

/// Run the in-memory baseline. Fails with [`Error::OutOfMemory`] if the
/// groups do not fit in the memory limit — this baseline cannot spill.
#[allow(clippy::too_many_arguments)] // mirrors switch_aggregate's signature
pub fn in_memory_aggregate(
    mgr: &Arc<BufferManager>,
    source: &dyn ChunkSource,
    input_schema: &[LogicalType],
    group_cols: &[usize],
    aggregates: &[AggregateSpec],
    threads: usize,
    cancel: &CancelToken,
    consumer: &(dyn Fn(DataChunk) -> Result<()> + Sync),
) -> Result<usize> {
    let bound = bind(input_schema, group_cols, aggregates)?;
    let sink = InMemSink {
        bound: &bound,
        mgr,
        cancel,
        merged: Mutex::new(MergedState {
            map: GroupMap::default(),
            reservation: None,
            bytes: 0,
        }),
    };
    Pipeline::run(source, &sink, threads, &ExecContext::new())?;

    // Emit, one output chunk per batch of groups.
    let merged = sink.merged.into_inner();
    let groups = merged.map.len();
    let entries: Vec<_> = merged.map.iter().collect();
    for batch in entries.chunks(rexa_exec::VECTOR_SIZE) {
        cancel.check()?;
        let mut columns: Vec<Vector> = bound
            .output_types
            .iter()
            .map(|&t| Vector::empty(t))
            .collect();
        for &(key, entry) in batch {
            let mut pos = 0usize;
            let keys = decode_row(key, &mut pos, &bound.group_types)?;
            for (col, v) in columns.iter_mut().zip(&keys) {
                col.push_value(v)?;
            }
            let mut any = entry.any.iter();
            for (k, agg) in bound.aggs.iter().enumerate() {
                if agg.spec.kind == AggKind::AnyValue {
                    let v = any.next().unwrap().clone().unwrap_or(Value::Null);
                    columns[bound.group_cols.len() + k].push_value(&v)?;
                }
            }
        }
        for (k, agg) in bound.stateful() {
            let off = bound.state_offsets[k];
            let states: Vec<*const u8> = batch
                .iter()
                .map(|(_, e)| e.states[off..].as_ptr())
                .collect();
            // SAFETY: every pointer is this aggregate's state inside a live
            // entry, updated and combined only through its kernels.
            columns[bound.group_cols.len() + k] = unsafe { (agg.kernels.finalize)(&states) };
        }
        consumer(DataChunk::new(columns))?;
    }
    Ok(groups)
}
