//! Stress and failure-injection tests for the spilling machinery: tight
//! memory, repeated spill/reload cycles, concurrent queries on one pool, and
//! I/O errors surfacing as query errors rather than corruption.

use parking_lot::Mutex;
use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::simple::{reference_aggregate, sorted_rows};
use rexa_core::{hash_aggregate_collect, AggregateConfig, AggregateSpec, HashAggregatePlan};
use rexa_exec::pipeline::CollectionSource;
use rexa_exec::{ChunkCollection, DataChunk, ExecContext, LogicalType, Vector, VECTOR_SIZE};
use rexa_storage::scratch_dir;
use std::sync::Arc;

fn high_cardinality_input(rows: i64, salt: i64) -> ChunkCollection {
    let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Varchar]);
    let mut k = 0i64;
    while k < rows {
        let n = (rows - k).min(VECTOR_SIZE as i64);
        let keys: Vec<i64> = (k..k + n).map(|i| i * 2654435761 % rows + salt).collect();
        let strs: Vec<String> = keys
            .iter()
            .map(|i| format!("string payload for key {i:012} going to the heap"))
            .collect();
        coll.push(DataChunk::new(vec![
            Vector::from_i64(keys),
            Vector::from_strs(strs),
        ]))
        .unwrap();
        k += n;
    }
    coll
}

fn mgr_with(limit: usize, page: usize) -> Arc<BufferManager> {
    BufferManager::new(
        BufferManagerConfig::with_limit(limit)
            .page_size(page)
            .temp_dir(scratch_dir("stress").unwrap()),
    )
    .unwrap()
}

#[test]
fn repeated_tight_memory_runs_stay_exact() {
    let coll = high_cardinality_input(50_000, 0);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star(), AggregateSpec::any_value(1)],
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
    let want =
        reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();

    let mgr = mgr_with(4 << 20, 4 << 10);
    for run in 0..5 {
        let source = CollectionSource::new(&coll);
        let (out, stats) =
            hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
        assert!(
            stats.buffer.temp_bytes_written > 0,
            "run {run}: expected spilling"
        );
        assert_eq!(sorted_rows(out.chunks()), want, "run {run}");
        assert_eq!(mgr.stats().temp_bytes_on_disk, 0, "run {run}");
    }
}

#[test]
fn concurrent_queries_share_one_pool() {
    // Four concurrent aggregations on one buffer manager, all under
    // pressure; results must be independent and exact.
    let inputs: Vec<ChunkCollection> = (0..4)
        .map(|i| high_cardinality_input(20_000, i * 1_000_000))
        .collect();
    let mgr = mgr_with(16 << 20, 4 << 10);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star()],
    };
    let config = AggregateConfig {
        threads: 2,
        radix_bits: Some(4),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    };
    let results: Vec<Vec<Vec<rexa_exec::Value>>> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|coll| {
                let mgr = Arc::clone(&mgr);
                let plan = plan.clone();
                let config = config.clone();
                s.spawn(move || {
                    let source = CollectionSource::new(coll);
                    let (out, _) =
                        hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config)
                            .unwrap();
                    sorted_rows(out.chunks())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (coll, got)) in inputs.iter().zip(&results).enumerate() {
        let source = CollectionSource::new(coll);
        let want =
            reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
        assert_eq!(got, &want, "query {i}");
    }
    assert_eq!(mgr.stats().temporary_resident, 0);
    assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
}

#[test]
fn spill_io_failure_surfaces_as_error_not_corruption() {
    // Point the temp directory at a path that exists but is then removed:
    // the first spill attempt fails with an I/O error, which must propagate
    // as a query error.
    let dir = scratch_dir("io-fail").unwrap();
    let temp_dir = dir.join("tmp");
    let mgr = BufferManager::new(
        BufferManagerConfig::with_limit(2 << 20)
            .page_size(4 << 10)
            .temp_dir(temp_dir.clone()),
    )
    .unwrap();
    // Sabotage: replace the temp dir with a read-only file so creating the
    // spill file fails.
    std::fs::remove_dir_all(&temp_dir).unwrap();
    std::fs::write(&temp_dir, b"not a directory").unwrap();

    let coll = high_cardinality_input(30_000, 0);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::any_value(1)],
    };
    let config = AggregateConfig {
        threads: 2,
        radix_bits: Some(4),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    };
    let source = CollectionSource::new(&coll);
    let err = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap_err();
    // The eviction path wraps the failed write as the typed spill error
    // (ENOTDIR is fatal, so no retries are attempted first).
    assert!(err.is_io(), "expected a storage error, got {err}");
    assert!(
        matches!(&err, rexa_exec::Error::SpillFailed { retries: 0, .. }),
        "expected SpillFailed without retries, got {err}"
    );
}

#[test]
fn many_small_queries_do_not_fragment_accounting() {
    let mgr = mgr_with(8 << 20, 4 << 10);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::sum(0)],
    };
    let config = AggregateConfig {
        threads: 2,
        radix_bits: Some(2),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    };
    for i in 0..50 {
        let mut coll = ChunkCollection::new(vec![LogicalType::Int64]);
        coll.push(DataChunk::new(vec![Vector::from_i64(
            (0..500).map(|k| k % (i + 1)).collect(),
        )]))
        .unwrap();
        let source = CollectionSource::new(&coll);
        let (out, _) = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
        assert_eq!(out.rows() as i64, i + 1);
    }
    assert_eq!(mgr.memory_used(), 0, "all memory returned");
}

#[test]
fn oversized_strings_spill_to_variable_pages() {
    // Group keys larger than a whole page exercise the variable-size
    // temporary allocation path end to end.
    let page = 4 << 10;
    let mut coll = ChunkCollection::new(vec![LogicalType::Varchar]);
    let mut chunk = DataChunk::empty(coll.types());
    for i in 0..40 {
        let s = format!("{i:04}-").repeat(2000); // ~10 KiB each, > page
        chunk.push_row(&[rexa_exec::Value::Varchar(s)]).unwrap();
    }
    coll.push(chunk).unwrap();

    let mgr = mgr_with(1 << 20, page);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star()],
    };
    let config = AggregateConfig {
        threads: 1,
        radix_bits: Some(0),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    };
    let results = Mutex::new(Vec::<DataChunk>::new());
    let source = CollectionSource::new(&coll);
    let stats = rexa_core::hash_aggregate_streaming(
        &mgr,
        &source,
        coll.types(),
        &plan,
        &config,
        &ExecContext::new(),
        &|c| {
            results.lock().push(c);
            Ok(())
        },
    )
    .unwrap();
    assert_eq!(stats.groups, 40);
    let out = results.into_inner();
    let total: usize = out.iter().map(|c| c.len()).sum();
    assert_eq!(total, 40);
    // Verify one oversized key round-tripped intact.
    let first = out[0].column(0).str_at(0);
    assert_eq!(first.len(), 5 * 2000);
}
