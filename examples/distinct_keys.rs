//! Duplicate elimination / primary-key checking: one of the paper's
//! motivating high-cardinality aggregations ("checking whether a column is a
//! primary key, if this is not enforced by the data format").
//!
//! Uses `GROUP BY key` + `COUNT(*)` and reports keys that appear more than
//! once — streamed, so the check works even when the distinct-key set is
//! larger than memory.
//!
//! ```sh
//! cargo run --release -p rexa-core --example distinct_keys
//! ```

use parking_lot::Mutex;
use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::{hash_aggregate_streaming, AggregateConfig, AggregateSpec, HashAggregatePlan};
use rexa_exec::pipeline::CollectionSource;
use rexa_exec::{ChunkCollection, DataChunk, ExecContext, LogicalType, Value, Vector, VECTOR_SIZE};
use std::sync::atomic::{AtomicUsize, Ordering};

fn main() -> rexa_exec::Result<()> {
    // A "key" column that is *almost* unique: a few planted duplicates.
    let rows = 500_000i64;
    let dup_every = 99_991; // plant a duplicate every ~100k rows
    let mut input = ChunkCollection::new(vec![LogicalType::Int64]);
    let mut k = 0i64;
    while k < rows {
        let n = (rows - k).min(VECTOR_SIZE as i64);
        let keys: Vec<i64> = (k..k + n)
            .map(|i| {
                if i % dup_every == 0 && i > 0 {
                    i - 1
                } else {
                    i
                }
            })
            .collect();
        input.push(DataChunk::new(vec![Vector::from_i64(keys)]))?;
        k += n;
    }

    let mgr = BufferManager::new(BufferManagerConfig::with_limit(8 << 20).page_size(32 << 10))?;
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star()],
    };

    let distinct = AtomicUsize::new(0);
    let duplicates = Mutex::new(Vec::new());
    let source = CollectionSource::new(&input);
    let stats = hash_aggregate_streaming(
        &mgr,
        &source,
        input.types(),
        &plan,
        &AggregateConfig {
            threads: 4,
            radix_bits: Some(4),
            // The paper-size 2^17 table costs 1 MiB per thread; at an 8 MiB
            // limit a smaller per-thread table leaves room for the data.
            ht_capacity: 1 << 14,
            output_chunk_size: VECTOR_SIZE,
            reset_fill_percent: 66,
            ..Default::default()
        },
        &ExecContext::new(),
        &|chunk| {
            distinct.fetch_add(chunk.len(), Ordering::Relaxed);
            for i in 0..chunk.len() {
                if let (Value::Int64(key), Value::Int64(count)) =
                    (chunk.column(0).value(i), chunk.column(1).value(i))
                {
                    if count > 1 {
                        duplicates.lock().push((key, count));
                    }
                }
            }
            Ok(())
        },
    )?;

    let mut dups = duplicates.into_inner();
    dups.sort_unstable();
    println!(
        "{} rows scanned, {} distinct keys ({} MiB spilled under an 8 MiB limit)",
        stats.rows_in,
        distinct.load(Ordering::Relaxed),
        stats.buffer.temp_bytes_written >> 20,
    );
    if dups.is_empty() {
        println!("column is a primary key");
    } else {
        println!("NOT a primary key; duplicated values:");
        for (key, count) in &dups {
            println!("  key {key} appears {count} times");
        }
    }
    assert!(!dups.is_empty(), "this demo plants duplicates");
    Ok(())
}
