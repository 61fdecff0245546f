//! Ungrouped (and by extension low-cardinality) aggregation — the easy case
//! the paper describes first (Section V, "Low Cardinality Aggregation"):
//! thread-local pre-aggregation reduces each worker's input to a single
//! state vector; combining one row per thread afterwards costs nothing, so
//! a single thread does it. Memory use is constant: this path never spills.
//!
//! The states go through the same bound kernels as the grouped operator
//! (`crate::kernel`): every input row of a chunk targets the one state.

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::function::{bind_aggregate, AggKind, AggregateSpec, BoundAggregate};
use parking_lot::Mutex;
use rexa_exec::pipeline::{ChunkSource, LocalSink, ParallelSink, Pipeline};
use rexa_exec::{DataChunk, Error, ExecContext, LogicalType, Result, Value};

struct Bound {
    aggs: Vec<BoundAggregate>,
    offsets: Vec<usize>,
    states_size: usize,
    any_count: usize,
}

/// One thread's accumulated state.
struct ThreadState {
    states: Box<[u8]>,
    any: Box<[Option<Value>]>,
    saw_rows: bool,
}

impl ThreadState {
    fn new(bound: &Bound) -> Self {
        ThreadState {
            states: vec![0u8; bound.states_size.max(1)].into_boxed_slice(),
            any: vec![None; bound.any_count].into_boxed_slice(),
            saw_rows: false,
        }
    }
}

struct UngroupedSink<'a> {
    bound: &'a Bound,
    merged: Mutex<ThreadState>,
}

struct LocalUngrouped<'a> {
    sink: &'a UngroupedSink<'a>,
    state: ThreadState,
    /// One pointer per input row of the current chunk, all to `state`'s
    /// state bytes: the update kernels' row-target vector.
    rows: Vec<*mut u8>,
}

// SAFETY: `sink` is a shared reference to a `Sync` type and `state` holds
// only owned, `Send` data. `rows` only ever points into this sink's own
// `state`, is rebuilt for every chunk, and is dereferenced only by the
// worker that owns the sink; the sink moves onto that worker once.
unsafe impl Send for LocalUngrouped<'_> {}

impl ParallelSink for UngroupedSink<'_> {
    fn local(&self, _worker: usize) -> Result<Box<dyn LocalSink + '_>> {
        Ok(Box::new(LocalUngrouped {
            sink: self,
            state: ThreadState::new(self.bound),
            rows: Vec::new(),
        }))
    }
}

impl LocalSink for LocalUngrouped<'_> {
    fn sink(&mut self, chunk: &DataChunk) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        self.state.saw_rows = true;
        let base = self.state.states.as_mut_ptr();
        self.rows.clear();
        self.rows.resize(chunk.len(), base);
        let mut any_idx = 0usize;
        for (k, agg) in self.sink.bound.aggs.iter().enumerate() {
            if agg.spec.kind == AggKind::AnyValue {
                let slot = &mut self.state.any[any_idx];
                any_idx += 1;
                if slot.is_none() {
                    *slot = Some(chunk.column(agg.spec.arg.unwrap()).value(0));
                }
                continue;
            }
            let arg = agg.spec.arg.map(|c| chunk.column(c));
            // SAFETY: one target per input row, every one the base of this
            // thread's state bytes, which hold this aggregate's state at
            // `offsets[k]` (sized at bind time).
            unsafe { (agg.kernels.update)(&self.rows, self.sink.bound.offsets[k], arg) };
        }
        Ok(())
    }

    fn combine(self: Box<Self>) -> Result<()> {
        let mut merged = self.sink.merged.lock();
        if !self.state.saw_rows {
            return Ok(());
        }
        merged.saw_rows = true;
        let mut any_idx = 0usize;
        for (k, agg) in self.sink.bound.aggs.iter().enumerate() {
            if agg.spec.kind == AggKind::AnyValue {
                if merged.any[any_idx].is_none() {
                    merged.any[any_idx] = self.state.any[any_idx].clone();
                }
                any_idx += 1;
                continue;
            }
            let off = self.sink.bound.offsets[k];
            let pair = (
                self.state.states[off..].as_ptr(),
                merged.states[off..].as_mut_ptr(),
            );
            // SAFETY: two distinct state vectors of the same bound layout,
            // each holding this aggregate's state at `off`.
            unsafe { (agg.kernels.combine)(&[pair]) };
        }
        Ok(())
    }
}

/// Compute aggregates over the whole input with no GROUP BY; returns exactly
/// one row of values, in aggregate order (on an empty input `COUNT` and
/// `SUM` are 0, as for an all-NULL group, and the others NULL). The
/// pipeline's workers are scheduled through `ctx`.
pub fn ungrouped_aggregate(
    source: &dyn ChunkSource,
    input_schema: &[LogicalType],
    aggregates: &[AggregateSpec],
    threads: usize,
    ctx: &ExecContext,
) -> Result<Vec<Value>> {
    if aggregates.is_empty() {
        return Err(Error::InvalidInput(
            "ungrouped aggregation needs at least one aggregate".into(),
        ));
    }
    let mut aggs = Vec::new();
    let mut offsets = Vec::new();
    let mut states_size = 0usize;
    let mut any_count = 0usize;
    for spec in aggregates {
        let b = bind_aggregate(*spec, input_schema)?;
        if b.spec.kind == AggKind::AnyValue {
            any_count += 1;
        }
        offsets.push(states_size);
        states_size += b.state_size;
        aggs.push(b);
    }
    let bound = Bound {
        aggs,
        offsets,
        states_size,
        any_count,
    };
    let sink = UngroupedSink {
        bound: &bound,
        merged: Mutex::new(ThreadState::new(&bound)),
    };
    Pipeline::run(source, &sink, threads, ctx)?;

    let merged = sink.merged.into_inner();
    let mut row = Vec::with_capacity(bound.aggs.len());
    let mut any_idx = 0usize;
    for (k, agg) in bound.aggs.iter().enumerate() {
        let v = match agg.spec.kind {
            AggKind::AnyValue => {
                let v = merged.any[any_idx].clone().unwrap_or(Value::Null);
                any_idx += 1;
                v
            }
            _ => {
                let state = merged.states[bound.offsets[k]..].as_ptr();
                // SAFETY: this aggregate's state inside the merged state
                // bytes, zero-initialized and then updated and combined
                // only through its kernels.
                unsafe { (agg.kernels.finalize)(&[state]) }.value(0)
            }
        };
        row.push(v);
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexa_exec::pipeline::CollectionSource;
    use rexa_exec::{ChunkCollection, Vector, VECTOR_SIZE};

    fn input(rows: i64) -> ChunkCollection {
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Varchar]);
        let mut k = 0i64;
        while k < rows {
            let n = (rows - k).min(VECTOR_SIZE as i64);
            coll.push(DataChunk::new(vec![
                Vector::from_i64((k..k + n).collect()),
                Vector::from_strs((k..k + n).map(|i| format!("s{i}"))),
            ]))
            .unwrap();
            k += n;
        }
        coll
    }

    #[test]
    fn sums_counts_min_max_avg() {
        let coll = input(10_000);
        for threads in [1, 4] {
            let source = CollectionSource::new(&coll);
            let row = ungrouped_aggregate(
                &source,
                coll.types(),
                &[
                    AggregateSpec::count_star(),
                    AggregateSpec::sum(0),
                    AggregateSpec::min(0),
                    AggregateSpec::max(0),
                    AggregateSpec::avg(0),
                    AggregateSpec::any_value(1),
                ],
                threads,
                &ExecContext::new(),
            )
            .unwrap();
            assert_eq!(row[0], Value::Int64(10_000));
            assert_eq!(row[1], Value::Int64((0..10_000).sum()));
            assert_eq!(row[2], Value::Int64(0));
            assert_eq!(row[3], Value::Int64(9_999));
            assert_eq!(row[4], Value::Float64(9_999.0 / 2.0));
            assert!(matches!(row[5], Value::Varchar(_)), "threads={threads}");
        }
    }

    #[test]
    fn empty_input_gives_sql_semantics() {
        let coll = input(0);
        let source = CollectionSource::new(&coll);
        let row = ungrouped_aggregate(
            &source,
            coll.types(),
            &[
                AggregateSpec::count_star(),
                AggregateSpec::min(0),
                AggregateSpec::any_value(1),
            ],
            4,
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(row[0], Value::Int64(0));
        assert_eq!(row[1], Value::Null);
        assert_eq!(row[2], Value::Null);
    }

    #[test]
    fn no_aggregates_is_an_error() {
        let coll = input(5);
        let source = CollectionSource::new(&coll);
        assert!(ungrouped_aggregate(&source, coll.types(), &[], 2, &ExecContext::new()).is_err());
    }

    #[test]
    fn sum_is_thread_count_invariant() {
        let coll = input(50_000);
        let get = |threads| {
            let source = CollectionSource::new(&coll);
            ungrouped_aggregate(
                &source,
                coll.types(),
                &[AggregateSpec::sum(0)],
                threads,
                &ExecContext::new(),
            )
            .unwrap()
        };
        assert_eq!(get(1), get(2));
        assert_eq!(get(2), get(8));
    }
}
