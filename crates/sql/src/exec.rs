//! Execute a bound [`PhysicalPlan`] on the existing operators.
//!
//! The lowering is deliberately thin: scans go through the same
//! [`ChunkSource`]s the hand-wired plans use, joins through
//! [`hash_join_streaming`], grouped aggregation through
//! [`hash_aggregate_streaming`] and global aggregates through
//! [`ungrouped_aggregate`], every one of them on the caller's
//! [`ExecContext`] — so one worker pool, one cancellation token, one memory
//! grant, and one profile and span collector serve the whole query, and a
//! SQL query produces bit-identical output to the equivalent hand-wired
//! plan.
//!
//! `WHERE` is applied by a filtering [`ChunkSource`] wrapper in front of
//! the aggregate: the predicate narrows a selection vector a chunk at a
//! time ([`Predicate::select`](crate::plan::Predicate::select)), and the
//! survivors of only the columns read above the filter
//! ([`FilterNode::keep`]) are gathered, column by column, into a chunk the
//! reader reuses. `HAVING` (the same selection kernels) and the select-list
//! projection run inside the output consumer, and `ORDER BY` / `LIMIT`
//! buffer the (small, post-aggregation) result for a final sort.

use crate::plan::{FilterNode, PhysicalPlan};
use rexa_buffer::{BufferManager, BufferStats};
use rexa_core::{
    hash_aggregate_streaming, hash_join_streaming, ungrouped_aggregate, AggregateConfig,
    JoinConfig, JoinStats, RunStats, SortedInput,
};
use rexa_exec::pipeline::{CancelToken, ChunkReader, ChunkSource, CollectionSource};
use rexa_exec::pool::ExecContext;
use rexa_exec::{ChunkCollection, DataChunk, Result, Value, VECTOR_SIZE};
use rexa_obs::ProfileCollector;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

use crate::catalog::TableData;
use parking_lot::Mutex;

/// Execution statistics for one SQL query.
#[derive(Clone, Debug)]
pub struct SqlStats {
    /// Aggregation statistics. For queries without aggregation this is a
    /// synthesized record (rows in/out and scan wall time; no partitions).
    pub run: RunStats,
    /// Join statistics, when the query had a `JOIN`.
    pub join: Option<JoinStats>,
    /// Rows delivered to the consumer after `HAVING`/`LIMIT`.
    pub rows_out: usize,
}

/// Run `plan`, streaming output chunks to `consumer`.
///
/// The consumer may be called concurrently (from the aggregation's phase-2
/// workers) unless the plan has `ORDER BY`/`LIMIT`, in which case output is
/// buffered, sorted, and delivered sequentially at the end.
pub fn execute_streaming(
    mgr: &Arc<BufferManager>,
    plan: &PhysicalPlan,
    config: &AggregateConfig,
    ctx: &ExecContext,
    consumer: &(dyn Fn(DataChunk) -> Result<()> + Sync),
) -> Result<SqlStats> {
    let cancel = ctx.cancel_token().clone();

    // JOIN first: materialize the joined rows (probe columns then build
    // columns — exactly `plan.input_schema`) into an in-memory collection
    // that the aggregation then scans.
    let mut join_stats = None;
    let joined: Option<ChunkCollection> = match &plan.join {
        None => None,
        Some(j) => {
            let probe = make_source(&plan.left.data, mgr, cancel.clone());
            let build = make_source(&j.right.data, mgr, cancel.clone());
            let out = Mutex::new(ChunkCollection::new(plan.input_schema.clone()));
            let jconfig = JoinConfig {
                threads: config.threads,
                radix_bits: config.radix_bits,
                output_chunk_size: config.output_chunk_size.min(VECTOR_SIZE),
                ..JoinConfig::default()
            };
            let stats = hash_join_streaming(
                mgr,
                build.as_src(),
                &j.right.schema,
                probe.as_src(),
                &plan.left.schema,
                &j.plan,
                &jconfig,
                ctx,
                &|chunk| out.lock().push(chunk),
            )?;
            join_stats = Some(stats);
            Some(out.into_inner())
        }
    };

    let joined_storage;
    let left_storage;
    let base_src: &dyn ChunkSource = match &joined {
        Some(coll) => {
            joined_storage = CollectionSource::with_cancel(coll, cancel.clone());
            &joined_storage
        }
        None => {
            left_storage = make_source(&plan.left.data, mgr, cancel.clone());
            left_storage.as_src()
        }
    };

    let filter_storage;
    let input_src: &dyn ChunkSource = match &plan.filter {
        Some(filter) => {
            filter_storage = FilterSource {
                inner: base_src,
                filter,
            };
            &filter_storage
        }
        None => base_src,
    };

    // Output path: HAVING → projection → (sort buffer | consumer).
    let sort_buffer: Option<Mutex<Vec<Vec<Value>>>> =
        if plan.order_by.is_empty() && plan.limit.is_none() {
            None
        } else {
            Some(Mutex::new(Vec::new()))
        };
    let rows_out = AtomicUsize::new(0);
    let deliver = |chunk: &DataChunk| -> Result<()> {
        match &sort_buffer {
            Some(buf) => {
                let mut rows = buf.lock();
                for r in 0..chunk.len() {
                    rows.push(chunk.row(r));
                }
                Ok(())
            }
            None => {
                rows_out.fetch_add(chunk.len(), AtomicOrdering::Relaxed);
                consumer(chunk.project(&plan.projection))
            }
        }
    };
    let postprocess = |chunk: DataChunk| -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        match &plan.having {
            None => deliver(&chunk),
            Some(h) => {
                let mut sel: Vec<u32> = (0..chunk.len() as u32).collect();
                h.select(&chunk, &mut sel);
                if sel.is_empty() {
                    Ok(())
                } else if sel.len() == chunk.len() {
                    deliver(&chunk)
                } else {
                    deliver(&chunk.gather(&sel))
                }
            }
        }
    };
    let run = match &plan.agg_input_plan {
        Some(agg) if !agg.group_cols.is_empty() => {
            // Promote the planner's sorted-input verdict into the config:
            // a declared-sorted scan skips the sortedness sampling and
            // starts on the in-stream fast path immediately. An explicit
            // `Unsorted` (or `Sorted`) in the caller's config wins.
            let mut agg_config = config.clone();
            if plan.input_sorted && agg_config.sorted_input == SortedInput::Detect {
                agg_config.sorted_input = SortedInput::Sorted;
            }
            hash_aggregate_streaming(
                mgr,
                input_src,
                &plan.agg_input_schema,
                agg,
                &agg_config,
                ctx,
                &postprocess,
            )?
        }
        Some(agg) => {
            // Global aggregate (no GROUP BY): one output row.
            let t0 = Instant::now();
            let values = ungrouped_aggregate(
                input_src,
                &plan.agg_input_schema,
                &agg.aggregates,
                config.threads,
                ctx,
            )?;
            let mut chunk = DataChunk::empty(&plan.agg_output_schema);
            chunk.push_row(&values)?;
            postprocess(chunk)?;
            synthesized_stats(ctx, "UNGROUPED_AGGREGATE", config.threads, 0, 1, t0)
        }
        None => {
            // Plain scan (+ filter): sequential drain of the source.
            let t0 = Instant::now();
            let mut rows_in = 0usize;
            let mut reader = input_src.reader();
            while let Some(chunk) = reader.next()? {
                ctx.check_cancelled()?;
                rows_in += chunk.len();
                let owned = chunk.clone();
                postprocess(owned)?;
            }
            synthesized_stats(ctx, "SCAN", 1, rows_in, rows_in, t0)
        }
    };

    // Final sort/limit, delivered sequentially.
    if let Some(buf) = sort_buffer {
        let mut rows = buf.into_inner();
        rows.sort_unstable_by(|a, b| {
            for key in &plan.order_by {
                let col = plan.projection[key.col];
                let ord = a[col].total_cmp(&b[col]);
                let ord = if key.desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            // Full-row tiebreak: phase-2 workers deliver groups in a
            // nondeterministic order, so equal sort keys need a total order
            // for reproducible output.
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x.total_cmp(y);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        if let Some(n) = plan.limit {
            rows.truncate(n);
        }
        let chunk_rows = config.output_chunk_size.clamp(1, VECTOR_SIZE);
        let mut chunk = DataChunk::empty(&plan.output_types);
        for row in &rows {
            let projected: Vec<Value> = plan.projection.iter().map(|&i| row[i].clone()).collect();
            chunk.push_row(&projected)?;
            if chunk.len() == chunk_rows {
                let full = std::mem::replace(&mut chunk, DataChunk::empty(&plan.output_types));
                consumer(full)?;
            }
        }
        if !chunk.is_empty() {
            consumer(chunk)?;
        }
        rows_out.store(rows.len(), AtomicOrdering::Relaxed);
    }

    Ok(SqlStats {
        run,
        join: join_stats,
        rows_out: rows_out.load(AtomicOrdering::Relaxed),
    })
}

/// A [`RunStats`] for plans that bypass the hash-aggregation operator, so
/// callers (the service, EXPLAIN ANALYZE) see a uniform stats shape —
/// including the query's timeline when `ctx` traces spans.
fn synthesized_stats(
    ctx: &ExecContext,
    operator: &str,
    threads: usize,
    rows_in: usize,
    groups: usize,
    t0: Instant,
) -> RunStats {
    let wall = t0.elapsed();
    let collector = ctx
        .profile()
        .cloned()
        .unwrap_or_else(|| Arc::new(ProfileCollector::new()));
    collector.set_threads(threads);
    let mut profile = collector.finish(operator, wall);
    if let Some(sc) = ctx.spans() {
        // Every worker has joined: merge the query's buffers, as the
        // grouped operator does.
        profile.timeline = sc.merge();
    }
    RunStats {
        rows_in,
        groups,
        partitions: 0,
        resets: 0,
        phase1: wall,
        phase2: std::time::Duration::ZERO,
        buffer: BufferStats::default(),
        profile,
    }
}

/// Owns whichever scan source a [`TableData`] needs.
enum SourceHolder<'a> {
    Coll(CollectionSource<'a>),
    Paged(rexa_buffer::TableSource<'a>),
}

impl SourceHolder<'_> {
    fn as_src(&self) -> &dyn ChunkSource {
        match self {
            SourceHolder::Coll(s) => s,
            SourceHolder::Paged(s) => s,
        }
    }
}

fn make_source<'a>(
    data: &'a TableData,
    mgr: &Arc<BufferManager>,
    cancel: CancelToken,
) -> SourceHolder<'a> {
    match data {
        TableData::Collection(c) => SourceHolder::Coll(CollectionSource::with_cancel(c, cancel)),
        TableData::Paged(t) => SourceHolder::Paged(t.scan_with_cancel(mgr, cancel)),
    }
}

/// A [`ChunkSource`] that applies `WHERE`: each chunk's predicate narrows
/// a selection vector, and the selected rows of the kept columns are
/// gathered into the reader's chunk.
struct FilterSource<'a> {
    inner: &'a dyn ChunkSource,
    filter: &'a FilterNode,
}

impl ChunkSource for FilterSource<'_> {
    fn reader(&self) -> Box<dyn ChunkReader + '_> {
        Box::new(FilterReader {
            inner: self.inner.reader(),
            filter: self.filter,
            sel: Vec::with_capacity(VECTOR_SIZE),
            buf: DataChunk::empty(&[]),
        })
    }

    fn total_rows(&self) -> Option<usize> {
        // Upper bound (pre-filter); used only for sizing hints.
        self.inner.total_rows()
    }
}

struct FilterReader<'a> {
    inner: Box<dyn ChunkReader + 'a>,
    filter: &'a FilterNode,
    /// The selection vector, reused across chunks.
    sel: Vec<u32>,
    /// The chunk lent out by the last `next()` call; its buffers are
    /// reused by the next gather.
    buf: DataChunk,
}

impl ChunkReader for FilterReader<'_> {
    fn next(&mut self) -> Result<Option<&DataChunk>> {
        loop {
            let Some(chunk) = self.inner.next()? else {
                return Ok(None);
            };
            self.sel.clear();
            self.sel.extend(0..chunk.len() as u32);
            self.filter.predicate.select(chunk, &mut self.sel);
            if self.sel.is_empty() {
                continue;
            }
            chunk.gather_into(&self.filter.keep, &self.sel, &mut self.buf);
            return Ok(Some(&self.buf));
        }
    }

    fn morsels_claimed(&self) -> u64 {
        self.inner.morsels_claimed()
    }
}
