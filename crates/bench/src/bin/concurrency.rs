//! **Concurrency**: grouping 4 under 1/2/4/8 concurrent connections,
//! with admission control on and off, against a memory limit sized for a
//! single query.
//!
//! With admission on, the [`QueryService`] reserves each query's estimated
//! footprint before launch, so excess queries wait in the admission queue
//! and every query completes. With admission off (a zero footprint, so
//! every reservation trivially succeeds), all queries launch at once and
//! compete for the same limit — the unspillable parts of their working sets
//! collide and queries can fail with out-of-memory.
//!
//! Reported per cell: completed/failed counts, p50/p95 end-to-end latency
//! (submission to completion, so admission wait is included), and the peak
//! resident memory the sampler observed.
//!
//! ```sh
//! cargo run --release -p rexa-bench --bin concurrency -- --scale 0.05
//! ```

use rexa_bench::*;
use rexa_core::{plan_row_width, AggregateConfig};
use rexa_service::{
    estimate_footprint, QueryInput, QueryOptions, QueryRequest, QueryService, ServiceConfig,
};
use rexa_tpch::{lineitem_schema, Grouping};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let args = HarnessArgs::parse();
    let grouping = Grouping::by_id(4).unwrap();
    let ds = dataset(32.0, &args);

    let config = AggregateConfig {
        threads: args.threads,
        radix_bits: None,
        ht_capacity: 1 << 14,
        output_chunk_size: rexa_exec::VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    };
    let plan = grouping_plan(grouping, false);
    let row_width = plan_row_width(&plan, &lineitem_schema()).unwrap();
    let footprint = estimate_footprint(&config, args.page_size, ds.coll.rows(), row_width);
    // A limit sized for one query: its full footprint plus working slack.
    let limit = args.mem_limit.unwrap_or(footprint + footprint / 2);

    println!(
        "Concurrency: grouping 4 thin | rows={}, footprint={:.1} MiB, mem limit={:.1} MiB",
        ds.coll.rows(),
        footprint as f64 / 1048576.0,
        limit as f64 / 1048576.0,
    );
    println!("csv:concurrent,admission,completed,failed,p50_ms,p95_ms,peak_mib");

    let header: Vec<String> = [
        "concurrent",
        "admission",
        "ok/fail",
        "p50_ms",
        "p95_ms",
        "peak_mib",
    ]
    .map(String::from)
    .to_vec();
    let mut rows = Vec::new();

    for concurrent in [1usize, 2, 4, 8] {
        for admission in [true, false] {
            let mut run_args = args.clone();
            run_args.mem_limit = Some(limit);
            let env = build_env(&ds, &run_args);
            let Env {
                mgr,
                db: _db,
                table,
            } = env;
            let table = Arc::new(table);

            let service = QueryService::new(
                Arc::clone(&mgr),
                ServiceConfig {
                    pool_threads: args.threads,
                    max_concurrent: concurrent,
                    queue_bound: concurrent * 2,
                    slow_query: None,
                },
            );
            let request = || QueryRequest {
                plan: plan.clone(),
                input: QueryInput::Table(Arc::clone(&table)),
                options: QueryOptions {
                    config: config.clone(),
                    deadline: Some(args.timeout),
                    // Admission off = a zero footprint: reservations always
                    // succeed, every query launches immediately.
                    footprint: (!admission).then_some(0),
                    consumer: Some(Arc::new(|_| Ok(()))),
                    spans: None,
                },
            };

            // Peak-memory sampler.
            let stop = Arc::new(AtomicBool::new(false));
            let peak = Arc::new(AtomicUsize::new(0));
            let sampler = {
                let (stop, peak, mgr) = (Arc::clone(&stop), Arc::clone(&peak), Arc::clone(&mgr));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        peak.fetch_max(mgr.memory_used(), Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
            };

            let submitted = Instant::now();
            let handles: Vec<_> = (0..concurrent)
                .map(|_| {
                    service
                        .submit(request())
                        .expect("submit within queue bound")
                })
                .collect();
            let mut latencies_ms = Vec::new();
            let mut failed = 0usize;
            for h in handles {
                match h.wait() {
                    Ok(_) => latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3),
                    Err(_) => failed += 1,
                }
            }
            stop.store(true, Ordering::Relaxed);
            sampler.join().unwrap();

            latencies_ms.sort_by(|a, b| a.total_cmp(b));
            let p50 = percentile(&latencies_ms, 0.50);
            let p95 = percentile(&latencies_ms, 0.95);
            let peak_mib = peak.load(Ordering::Relaxed) as f64 / 1048576.0;
            let completed = latencies_ms.len();
            let label = if admission { "on" } else { "off" };
            println!(
                "csv:{concurrent},{label},{completed},{failed},{p50:.0},{p95:.0},{peak_mib:.1}"
            );
            rows.push(vec![
                concurrent.to_string(),
                label.into(),
                format!("{completed}/{failed}"),
                format!("{p50:.0}"),
                format!("{p95:.0}"),
                format!("{peak_mib:.1}"),
            ]);
            eprintln!(
                "  {concurrent} concurrent, admission {label}: {completed} ok, {failed} failed, \
                 p50 {p50:.0} ms, p95 {p95:.0} ms, peak {peak_mib:.1} MiB"
            );
        }
    }
    print_table(&header, &rows);
    println!(
        "\nExpected shape: with admission on, excess queries queue, so p50/p95\n\
         grow roughly linearly with concurrency while peak memory stays at\n\
         the limit. With admission off, all queries launch at once and fight\n\
         for the same limit: robust spilling usually keeps them alive, but\n\
         latency degrades super-linearly (thrashing), and with tight limits\n\
         the colliding unspillable working sets can fail with out-of-memory."
    );
}
