//! External hash join (future-work extension): differential tests against a
//! naive nested-loop reference, including duplicates on both sides, string
//! keys, NULL keys, spilling under tight memory, and empty inputs; plus the
//! scheduling contract the join shares with the global aggregate — every
//! worker runs on the context's pool or the submitting thread, and the
//! context's cancellation stops the partition loop.

use parking_lot::Mutex;
use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::{
    hash_join_collect, hash_join_streaming, ungrouped_aggregate, AggregateSpec, HashJoinPlan,
    JoinConfig,
};
use rexa_exec::pipeline::{CancelToken, ChunkReader, ChunkSource, CollectionSource};
use rexa_exec::{
    ChunkCollection, DataChunk, Error, ExecContext, LogicalType, Result, Value, Vector, WorkerPool,
    VECTOR_SIZE,
};
use rexa_storage::scratch_dir;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

fn mgr(limit: usize, page: usize) -> Arc<BufferManager> {
    BufferManager::new(
        BufferManagerConfig::with_limit(limit)
            .page_size(page)
            .temp_dir(scratch_dir("join").unwrap()),
    )
    .unwrap()
}

fn config(threads: usize, bits: u32) -> JoinConfig {
    JoinConfig {
        threads,
        radix_bits: Some(bits),
        output_chunk_size: 777, // deliberately odd
        release_every: 4,
    }
}

/// Naive nested-loop inner join; NULL keys never match. Output: probe row
/// then build row, sorted for comparison.
fn reference_join(
    build: &ChunkCollection,
    probe: &ChunkCollection,
    build_keys: &[usize],
    probe_keys: &[usize],
) -> Vec<Vec<Value>> {
    let build_rows: Vec<Vec<Value>> = build
        .chunks()
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
        .collect();
    let probe_rows: Vec<Vec<Value>> = probe
        .chunks()
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
        .collect();
    let mut out = Vec::new();
    for p in &probe_rows {
        for b in &build_rows {
            let matches = build_keys.iter().zip(probe_keys).all(|(&bk, &pk)| {
                let (bv, pv) = (&b[bk], &p[pk]);
                !bv.is_null() && !pv.is_null() && bv.total_cmp(pv).is_eq()
            });
            if matches {
                let mut row = p.clone();
                row.extend(b.iter().cloned());
                out.push(row);
            }
        }
    }
    out.sort_by(|a, b| {
        rexa_core::simple::KeyRow(a.clone()).cmp(&rexa_core::simple::KeyRow(b.clone()))
    });
    out
}

fn sorted_output(coll: &ChunkCollection) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = coll
        .chunks()
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
        .collect();
    rows.sort_by(|a, b| {
        rexa_core::simple::KeyRow(a.clone()).cmp(&rexa_core::simple::KeyRow(b.clone()))
    });
    rows
}

fn i64_table(rows: &[(i64, i64)]) -> ChunkCollection {
    let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
    for chunk_rows in rows.chunks(VECTOR_SIZE) {
        coll.push(DataChunk::new(vec![
            Vector::from_i64(chunk_rows.iter().map(|r| r.0).collect()),
            Vector::from_i64(chunk_rows.iter().map(|r| r.1).collect()),
        ]))
        .unwrap();
    }
    coll
}

#[test]
fn basic_join_with_duplicates_both_sides() {
    let build = i64_table(&[(1, 10), (2, 20), (2, 21), (3, 30)]);
    let probe = i64_table(&[(2, 200), (2, 201), (4, 400), (1, 100)]);
    let m = mgr(64 << 20, 8 << 10);
    let plan = HashJoinPlan {
        build_keys: vec![0],
        probe_keys: vec![0],
    };
    let (out, stats) = hash_join_collect(
        &m,
        &CollectionSource::new(&build),
        build.types(),
        &CollectionSource::new(&probe),
        probe.types(),
        &plan,
        &config(2, 2),
    )
    .unwrap();
    // probe key 2 matches two build rows, twice => 4; key 1 matches once.
    assert_eq!(stats.output_rows, 5);
    assert_eq!(
        sorted_output(&out),
        reference_join(&build, &probe, &[0], &[0])
    );
}

#[test]
fn large_random_join_matches_reference() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(77);
    let build: Vec<(i64, i64)> = (0..800).map(|i| (rng.gen_range(0..300), i)).collect();
    let probe: Vec<(i64, i64)> = (0..1200)
        .map(|i| (rng.gen_range(0..300), i + 10_000))
        .collect();
    let build = i64_table(&build);
    let probe = i64_table(&probe);
    let m = mgr(64 << 20, 8 << 10);
    let plan = HashJoinPlan {
        build_keys: vec![0],
        probe_keys: vec![0],
    };
    for threads in [1, 4] {
        let (out, _) = hash_join_collect(
            &m,
            &CollectionSource::new(&build),
            build.types(),
            &CollectionSource::new(&probe),
            probe.types(),
            &plan,
            &config(threads, 3),
        )
        .unwrap();
        assert_eq!(
            sorted_output(&out),
            reference_join(&build, &probe, &[0], &[0]),
            "threads={threads}"
        );
    }
}

#[test]
fn string_keys_and_multi_key() {
    let mut build = ChunkCollection::new(vec![LogicalType::Varchar, LogicalType::Int64]);
    let mut probe = ChunkCollection::new(vec![
        LogicalType::Int64,
        LogicalType::Varchar,
        LogicalType::Int64,
    ]);
    let mut bchunk = DataChunk::empty(build.types());
    let mut pchunk = DataChunk::empty(probe.types());
    for i in 0..200i64 {
        let key = if i % 3 == 0 {
            format!("k{}", i % 17)
        } else {
            format!("a very long string key number {:06}", i % 17)
        };
        bchunk
            .push_row(&[Value::Varchar(key.clone()), Value::Int64(i % 5)])
            .unwrap();
        pchunk
            .push_row(&[Value::Int64(i % 5), Value::Varchar(key), Value::Int64(i)])
            .unwrap();
    }
    build.push(bchunk).unwrap();
    probe.push(pchunk).unwrap();

    let m = mgr(64 << 20, 8 << 10);
    // Join on (string key, small int), in different column positions.
    let plan = HashJoinPlan {
        build_keys: vec![0, 1],
        probe_keys: vec![1, 0],
    };
    let (out, _) = hash_join_collect(
        &m,
        &CollectionSource::new(&build),
        build.types(),
        &CollectionSource::new(&probe),
        probe.types(),
        &plan,
        &config(4, 3),
    )
    .unwrap();
    assert_eq!(
        sorted_output(&out),
        reference_join(&build, &probe, &[0, 1], &[1, 0])
    );
}

#[test]
fn null_keys_never_match() {
    let mut build = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
    let mut probe = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
    let mut bc = DataChunk::empty(build.types());
    let mut pc = DataChunk::empty(probe.types());
    bc.push_row(&[Value::Null, Value::Int64(1)]).unwrap();
    bc.push_row(&[Value::Int64(5), Value::Int64(2)]).unwrap();
    pc.push_row(&[Value::Null, Value::Int64(3)]).unwrap();
    pc.push_row(&[Value::Int64(5), Value::Int64(4)]).unwrap();
    build.push(bc).unwrap();
    probe.push(pc).unwrap();

    let m = mgr(64 << 20, 8 << 10);
    let plan = HashJoinPlan {
        build_keys: vec![0],
        probe_keys: vec![0],
    };
    let (out, stats) = hash_join_collect(
        &m,
        &CollectionSource::new(&build),
        build.types(),
        &CollectionSource::new(&probe),
        probe.types(),
        &plan,
        &config(2, 2),
    )
    .unwrap();
    assert_eq!(stats.output_rows, 1, "only 5=5 matches; NULLs never join");
    assert_eq!(out.rows(), 1);
    assert_eq!(
        out.chunks()[0].row(0),
        vec![
            Value::Int64(5),
            Value::Int64(4),
            Value::Int64(5),
            Value::Int64(2)
        ]
    );
}

#[test]
fn empty_sides_produce_empty_output() {
    let empty = i64_table(&[]);
    let some = i64_table(&[(1, 1)]);
    let m = mgr(64 << 20, 8 << 10);
    let plan = HashJoinPlan {
        build_keys: vec![0],
        probe_keys: vec![0],
    };
    for (b, p) in [(&empty, &some), (&some, &empty), (&empty, &empty)] {
        let (out, stats) = hash_join_collect(
            &m,
            &CollectionSource::new(b),
            b.types(),
            &CollectionSource::new(p),
            p.types(),
            &plan,
            &config(2, 2),
        )
        .unwrap();
        assert_eq!(out.rows(), 0);
        assert_eq!(stats.output_rows, 0);
    }
}

#[test]
fn join_spills_under_tight_memory_and_stays_exact() {
    // Both sides larger than the limit together: materialization must spill
    // and the per-partition probe must still produce the exact result.
    let build: Vec<(i64, i64)> = (0..40_000).map(|i| (i % 10_000, i)).collect();
    let probe: Vec<(i64, i64)> = (0..60_000).map(|i| (i % 10_000, i + 1_000_000)).collect();
    let build = i64_table(&build);
    let probe = i64_table(&probe);
    let m = mgr(3 << 20, 4 << 10);
    let plan = HashJoinPlan {
        build_keys: vec![0],
        probe_keys: vec![0],
    };
    let cfg = JoinConfig {
        threads: 4,
        radix_bits: Some(5),
        output_chunk_size: VECTOR_SIZE,
        release_every: 4,
    };
    let (out, stats) = hash_join_collect(
        &m,
        &CollectionSource::new(&build),
        build.types(),
        &CollectionSource::new(&probe),
        probe.types(),
        &plan,
        &cfg,
    )
    .unwrap();
    assert!(
        stats.buffer.temp_bytes_written > 0,
        "expected spilling: {:?}",
        stats.buffer
    );
    // Each probe key k in [0, 10k) matches exactly 4 build rows; 6 probe
    // occurrences x 4 = 24 outputs per key value... verify by count:
    // 60000 probe rows x 4 matches each = 240000.
    assert_eq!(stats.output_rows, 240_000);
    assert_eq!(out.rows(), 240_000);
    // Everything cleaned up.
    assert_eq!(m.stats().temp_bytes_on_disk, 0);
    assert_eq!(m.stats().temporary_resident, 0);
}

/// Phase 2 runs the partition with the most build + probe bytes first, as
/// the aggregation does. At one thread the tasks run in schedule order, so
/// the consumer's first chunk comes from the hot key's partition — which is
/// deliberately not partition 0, the one index order would start with.
#[test]
fn join_runs_the_largest_partition_first() {
    const BITS: u32 = 3;
    let partition_of = |k: i64| {
        let keys = Vector::from_i64(vec![k]);
        rexa_exec::hashing::radix(rexa_exec::hashing::hash_columns(&[&keys], 1)[0], BITS)
    };
    let hot = (1_000..).find(|&k| partition_of(k) != 0).unwrap();
    // 256 cold keys, one build row each, spread over every partition; the
    // hot key has 4,000 build rows.
    let mut build_rows: Vec<(i64, i64)> = (0..256).map(|k| (k, k)).collect();
    build_rows.extend((0..4_000).map(|i| (hot, i)));
    let mut probe_rows: Vec<(i64, i64)> = (0..256).map(|k| (k, -k)).collect();
    probe_rows.push((hot, -1));
    assert!((0..256).any(|k| partition_of(k) == 0), "partition 0 joins");
    let build = i64_table(&build_rows);
    let probe = i64_table(&probe_rows);
    let first = Mutex::new(None::<DataChunk>);
    hash_join_streaming(
        &mgr(64 << 20, 16 << 10),
        &CollectionSource::new(&build),
        build.types(),
        &CollectionSource::new(&probe),
        probe.types(),
        &HashJoinPlan {
            build_keys: vec![0],
            probe_keys: vec![0],
        },
        &config(1, BITS),
        &ExecContext::new(),
        &|chunk| {
            first.lock().get_or_insert(chunk);
            Ok(())
        },
    )
    .unwrap();
    let first = first.into_inner().expect("the join produced output");
    assert!(
        (0..first.len()).any(|i| first.row(i)[0] == Value::Int64(hot)),
        "the first chunk must come from the hot key's partition {}",
        partition_of(hot)
    );
}

#[test]
fn key_type_mismatch_is_rejected() {
    let build = i64_table(&[(1, 1)]);
    let mut probe = ChunkCollection::new(vec![LogicalType::Varchar]);
    probe
        .push(DataChunk::new(vec![Vector::from_strs(["x"])]))
        .unwrap();
    let m = mgr(64 << 20, 8 << 10);
    let plan = HashJoinPlan {
        build_keys: vec![0],
        probe_keys: vec![0],
    };
    assert!(hash_join_collect(
        &m,
        &CollectionSource::new(&build),
        build.types(),
        &CollectionSource::new(&probe),
        probe.types(),
        &plan,
        &config(1, 2),
    )
    .is_err());
}

/// The calling thread's id and name.
fn this_thread() -> (ThreadId, Option<String>) {
    let me = std::thread::current();
    (me.id(), me.name().map(str::to_string))
}

/// A [`CollectionSource`] whose readers note the thread of every `next()`
/// call and, once the collection is drained, optionally fire a token.
struct RecordingSource<'a> {
    inner: CollectionSource<'a>,
    threads: Mutex<Vec<(ThreadId, Option<String>)>>,
    cancel_when_drained: Option<CancelToken>,
}

impl<'a> RecordingSource<'a> {
    fn new(coll: &'a ChunkCollection) -> Self {
        RecordingSource {
            inner: CollectionSource::new(coll),
            threads: Mutex::new(Vec::new()),
            cancel_when_drained: None,
        }
    }
}

struct RecordingReader<'a> {
    inner: Box<dyn ChunkReader + 'a>,
    source: &'a RecordingSource<'a>,
}

impl ChunkReader for RecordingReader<'_> {
    fn next(&mut self) -> Result<Option<&DataChunk>> {
        self.source.threads.lock().push(this_thread());
        let chunk = self.inner.next()?;
        if chunk.is_none() {
            if let Some(token) = &self.source.cancel_when_drained {
                token.cancel();
            }
        }
        Ok(chunk)
    }

    fn morsels_claimed(&self) -> u64 {
        self.inner.morsels_claimed()
    }
}

impl ChunkSource for RecordingSource<'_> {
    fn reader(&self) -> Box<dyn ChunkReader + '_> {
        Box::new(RecordingReader {
            inner: self.inner.reader(),
            source: self,
        })
    }

    fn total_rows(&self) -> Option<usize> {
        self.inner.total_rows()
    }
}

/// Assert that every recorded thread is a pool worker or the submitting
/// thread `me`.
fn assert_pool_or_submitter(
    threads: &Mutex<Vec<(ThreadId, Option<String>)>>,
    me: ThreadId,
    what: &str,
) {
    let threads = threads.lock();
    assert!(!threads.is_empty(), "{what}: nothing recorded");
    for (id, name) in threads.iter() {
        assert!(
            *id == me
                || name
                    .as_deref()
                    .is_some_and(|n| n.starts_with("rexa-worker-")),
            "{what}: ran on thread {name:?}, neither a pool worker nor the submitter"
        );
    }
}

/// The join's two materialize pipelines and the global aggregate's
/// pipeline run on the context's pool: at `threads: 4` on a 2-worker pool,
/// no scoped thread is spawned, so every read happens on `rexa-worker-*`
/// or on the calling thread.
#[test]
fn join_and_global_aggregate_read_only_on_pool_or_submitter() {
    let me = std::thread::current().id();
    let build = i64_table(&(0..20_000).map(|i| (i % 5_000, i)).collect::<Vec<_>>());
    let probe = i64_table(&(0..60_000).map(|i| (i % 7_000, -i)).collect::<Vec<_>>());
    let ctx = ExecContext::with_pool(Arc::new(WorkerPool::new(2)));
    let m = mgr(64 << 20, 16 << 10);

    let build_src = RecordingSource::new(&build);
    let probe_src = RecordingSource::new(&probe);
    let consumers = Mutex::new(Vec::new());
    let output_rows = AtomicUsize::new(0);
    let stats = hash_join_streaming(
        &m,
        &build_src,
        build.types(),
        &probe_src,
        probe.types(),
        &HashJoinPlan {
            build_keys: vec![0],
            probe_keys: vec![0],
        },
        &config(4, 3),
        &ctx,
        &|chunk| {
            consumers.lock().push(this_thread());
            output_rows.fetch_add(chunk.len(), Ordering::Relaxed);
            Ok(())
        },
    )
    .unwrap();
    // Keys 0..5000 each occur 4x in build; probe keys < 5000 match.
    let matched_probe = (0..60_000).filter(|i| i % 7_000 < 5_000).count();
    assert_eq!(stats.output_rows, matched_probe * 4);
    assert_eq!(output_rows.load(Ordering::Relaxed), matched_probe * 4);
    assert_pool_or_submitter(&build_src.threads, me, "join build");
    assert_pool_or_submitter(&probe_src.threads, me, "join probe");
    assert_pool_or_submitter(&consumers, me, "join partition tasks");

    let agg_src = RecordingSource::new(&probe);
    let row = ungrouped_aggregate(
        &agg_src,
        probe.types(),
        &[AggregateSpec::count_star(), AggregateSpec::sum(1)],
        4,
        &ctx,
    )
    .unwrap();
    assert_eq!(row[0], Value::Int64(60_000));
    assert_eq!(row[1], Value::Int64(-(0..60_000).sum::<i64>()));
    assert_pool_or_submitter(&agg_src.threads, me, "global aggregate");
}

/// The context's token is checked before each partition task: a
/// cancellation that arrives once both sides are materialized stops the
/// join with `Cancelled` before any task emits a row, and every page is
/// released.
#[test]
fn cancelled_context_stops_join_before_partition_tasks() {
    let build = i64_table(&(0..10_000).map(|i| (i % 1_000, i)).collect::<Vec<_>>());
    let probe = i64_table(&(0..10_000).map(|i| (i % 1_000, i)).collect::<Vec<_>>());
    let ctx = ExecContext::with_pool(Arc::new(WorkerPool::new(2)));
    let m = mgr(64 << 20, 16 << 10);
    let build_src = CollectionSource::new(&build);
    let mut probe_src = RecordingSource::new(&probe);
    probe_src.cancel_when_drained = Some(ctx.cancel_token().clone());
    let emitted = AtomicUsize::new(0);
    let err = hash_join_streaming(
        &m,
        &build_src,
        build.types(),
        &probe_src,
        probe.types(),
        &HashJoinPlan {
            build_keys: vec![0],
            probe_keys: vec![0],
        },
        &config(1, 3),
        &ctx,
        &|_| {
            emitted.fetch_add(1, Ordering::Relaxed);
            Ok(())
        },
    )
    .unwrap_err();
    assert!(matches!(err, Error::Cancelled), "got {err}");
    assert_eq!(emitted.load(Ordering::Relaxed), 0, "a partition task ran");
    assert_eq!(m.stats().temporary_resident, 0);
    assert_eq!(m.stats().temp_bytes_on_disk, 0);
}
