//! Submit, await, and cancel queries through the concurrent query service.
//!
//! Four high-cardinality grouping queries are submitted at once against a
//! buffer manager sized for roughly one of them. Admission control launches
//! what fits and queues the rest; every query completes without the engine
//! ever exceeding the memory limit. A fifth query demonstrates cancellation.
//!
//! ```sh
//! cargo run --release -p rexa-service --example concurrent_service
//! ```

use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::{plan_row_width, AggregateConfig, AggregateSpec, HashAggregatePlan};
use rexa_exec::{ChunkCollection, DataChunk, LogicalType, Vector, VECTOR_SIZE};
use rexa_service::{
    estimate_footprint, QueryInput, QueryOptions, QueryRequest, QueryService, ServiceConfig,
};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let page_size = 16 << 10;
    let config = AggregateConfig {
        threads: 4,
        ht_capacity: 1 << 14,
        ..Default::default()
    };

    // Size the limit for about one query's unspillable footprint (plus
    // working room), then run four queries concurrently against it.
    let rows = 400_000;
    let schema = [LogicalType::Int64, LogicalType::Int64];
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
    };
    let row_width = plan_row_width(&plan, &schema).unwrap();
    let footprint = estimate_footprint(&config, page_size, rows, row_width);
    let limit = footprint + footprint / 2;
    println!(
        "footprint estimate {:.1} MiB, memory limit {:.1} MiB",
        footprint as f64 / (1 << 20) as f64,
        limit as f64 / (1 << 20) as f64
    );

    let mgr = BufferManager::new(BufferManagerConfig::with_limit(limit).page_size(page_size))
        .expect("buffer manager");
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 4,
            max_concurrent: 4,
            queue_bound: 16,
            slow_query: None,
        },
    );

    // One shared input: 400k rows, all keys distinct — far larger than the
    // limit once materialised into hash-table pages, so every query spills.
    let input = Arc::new(make_input(rows));
    let request = || QueryRequest {
        plan: plan.clone(),
        input: QueryInput::Collection(Arc::clone(&input)),
        options: QueryOptions {
            config: config.clone(),
            ..Default::default()
        },
    };

    // Submit four at once; await them all.
    let started = Instant::now();
    let handles: Vec<_> = (0..4).map(|_| service.submit(request()).unwrap()).collect();
    for handle in handles {
        let id = handle.id();
        let out = handle.wait().expect("query failed");
        println!(
            "query {id}: {} groups in {:?} (queued {:?}, spilled {:.1} MiB)",
            out.stats.groups,
            started.elapsed(),
            out.queued_for,
            out.buffer.temp_bytes_written as f64 / (1 << 20) as f64,
        );
    }

    // Cancel a fifth query shortly after submission.
    let handle = service.submit(request()).unwrap();
    handle.cancel();
    match handle.wait() {
        Err(e) => println!("query {}: cancelled ({e})", handle.id()),
        Ok(out) => println!(
            "query {}: finished before the cancel ({} groups)",
            handle.id(),
            out.stats.groups
        ),
    }

    let stats = service.buffer_manager().stats();
    println!(
        "after shutdown: {} bytes reserved, {} temp bytes on disk",
        stats.non_paged, stats.temp_bytes_on_disk
    );
}

fn make_input(rows: usize) -> ChunkCollection {
    let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
    let mut produced = 0usize;
    while produced < rows {
        let n = (rows - produced).min(VECTOR_SIZE);
        let keys: Vec<i64> = (0..n).map(|i| (produced + i) as i64).collect();
        let vals: Vec<i64> = keys.iter().map(|k| k % 97).collect();
        coll.push(DataChunk::new(vec![
            Vector::from_i64(keys),
            Vector::from_i64(vals),
        ]))
        .expect("uniform chunk schema");
        produced += n;
    }
    coll
}
