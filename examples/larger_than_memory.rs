//! Larger-than-memory aggregation: the paper's headline behaviour.
//!
//! Aggregates a high-cardinality input whose intermediates are several times
//! the memory limit. The operator never notices: unpinned partition pages
//! are spilled by the buffer manager and reloaded partition-by-partition in
//! phase 2. Compare with the in-memory baseline, which aborts.
//!
//! ```sh
//! cargo run --release -p rexa-core --example larger_than_memory
//! ```
//!
//! With `--trace-out PATH` the run records a span timeline and writes it as
//! Chrome trace-event JSON — open it in Perfetto (<https://ui.perfetto.dev>)
//! or `about://tracing` to see each worker's phase-1 pipeline (morsels and
//! combine), then its phase-2 partition tasks, largest partition first.

use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::baselines::in_memory_aggregate;
use rexa_core::{hash_aggregate_streaming, AggregateConfig, AggregateSpec, HashAggregatePlan};
use rexa_exec::pipeline::{CancelToken, CollectionSource};
use rexa_exec::pool::ExecContext;
use rexa_exec::{ChunkCollection, DataChunk, LogicalType, Vector, VECTOR_SIZE};
use rexa_obs::SpanCollector;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn main() -> rexa_exec::Result<()> {
    let mut trace_out: Option<String> = None;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--trace-out" => {
                i += 1;
                trace_out = Some(argv.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("missing value for --trace-out");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument {other} (options: --trace-out PATH)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // ~2M rows, every key unique (no reduction possible): the worst case for
    // aggregation memory.
    let rows: i64 = 2_000_000;
    let mut input = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Varchar]);
    let mut k = 0i64;
    while k < rows {
        let n = (rows - k).min(VECTOR_SIZE as i64);
        let keys: Vec<i64> = (k..k + n).collect();
        let tags: Vec<String> = (k..k + n).map(|i| format!("customer-{i:09}")).collect();
        input.push(DataChunk::new(vec![
            Vector::from_i64(keys),
            Vector::from_strs(tags),
        ]))?;
        k += n;
    }
    let data_bytes = input.approx_bytes();

    // A limit of ~1/4 of the intermediate size.
    let limit = data_bytes / 4;
    println!(
        "input: {} rows (~{} MiB of intermediates), memory limit {} MiB",
        input.rows(),
        data_bytes >> 20,
        limit >> 20
    );
    // Geometry note: phase 1 keeps threads x partitions x 2 pages pinned
    // (the partition write heads), so pages and partitions are sized to
    // leave most of the limit for data. Spill writes and reloads run
    // synchronously on the evicting or pinning worker.
    let mgr = BufferManager::new(BufferManagerConfig::with_limit(limit).page_size(16 << 10))?;

    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star(), AggregateSpec::any_value(1)],
    };
    let config = AggregateConfig {
        threads: 4,
        radix_bits: Some(6), // over-partition: each partition ~1/64 of data
        ht_capacity: 1 << 14,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    };

    // Robust engine: streams all groups, spilling as needed. With
    // `--trace-out` a span collector rides along on the ExecContext; the
    // operator and the workers record onto it, and the merged timeline lands in `stats.profile.timeline`.
    let spans = trace_out.as_ref().map(|_| SpanCollector::new());
    let mut ctx = ExecContext::new();
    if let Some(sc) = &spans {
        ctx = ctx.with_spans(Arc::clone(sc));
    }
    let groups = AtomicUsize::new(0);
    let source = CollectionSource::new(&input);
    let start = std::time::Instant::now();
    let stats =
        hash_aggregate_streaming(&mgr, &source, input.types(), &plan, &config, &ctx, &|c| {
            groups.fetch_add(c.len(), Ordering::Relaxed);
            Ok(())
        })?;
    println!(
        "robust engine: {} groups in {:.2?}; spilled {} MiB to temp storage, \
         {} temporary-page evictions, {} hash-table resets",
        groups.load(Ordering::Relaxed),
        start.elapsed(),
        stats.buffer.temp_bytes_written >> 20,
        stats.buffer.evictions_temporary,
        stats.resets,
    );
    assert_eq!(groups.load(Ordering::Relaxed), rows as usize);

    // The per-query execution profile, EXPLAIN ANALYZE style. CI greps this
    // report for nonzero spill_bytes_written to pin the spill path down.
    println!("\n{}", stats.profile.render());

    if let Some(path) = &trace_out {
        std::fs::write(path, stats.profile.chrome_trace_json())?;
        println!("\nwrote span timeline to {path} (open in https://ui.perfetto.dev)");
    }

    // The in-memory baseline under the same limit: aborts.
    let source = CollectionSource::new(&input);
    match in_memory_aggregate(
        &mgr,
        &source,
        input.types(),
        &plan.group_cols,
        &plan.aggregates,
        4,
        &CancelToken::new(),
        &|_| Ok(()),
    ) {
        Err(e) if e.is_oom() => println!("in-memory baseline: aborted as expected ({e})"),
        other => println!("in-memory baseline: unexpected outcome {other:?}"),
    }
    Ok(())
}
