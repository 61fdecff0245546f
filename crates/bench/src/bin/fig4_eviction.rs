//! **Figure 4**: how the buffer manager loads and spills under its
//! clean-first eviction order, repeating grouping 4 (thin) in a
//! single-connection and a multi-connection scenario.
//!
//! The paper's setup: memory limit ≈ the grouping's intermediate size, 10
//! repetitions; single connection with 4 threads, or 4 connections with
//! 4 threads each and 4x the memory. Connections are modelled as concurrent
//! submissions to a [`QueryService`] with `max_concurrent = connections` —
//! the service replaces the hand-rolled worker threads this benchmark used
//! to carry. The admission footprint is overridden with the phase-1 floor:
//! the figure studies eviction behaviour *under* concurrent pressure, so
//! queries must genuinely overlap rather than serialize on their phase-2
//! peak. The harness reproduces both scenarios at laptop scale, prints
//! per-scenario total runtimes (the numbers quoted in Section VII), and
//! emits a CSV time series of resident persistent bytes, resident temporary
//! bytes, and temp-file size — the curves of the figure.
//!
//! Exits 1 if the single-connection run's temp file ever grows above zero:
//! with persistent pages evicted first, the intermediates fit beside the
//! table and nothing spills (the paper's headline Figure 4 observation).

use parking_lot::Mutex;
use rexa_bench::*;
use rexa_core::AggregateConfig;
use rexa_service::{
    estimate_footprint, QueryInput, QueryOptions, QueryRequest, QueryService, ServiceConfig,
};
use rexa_tpch::Grouping;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sets the flag when dropped — on unwind too.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn main() {
    let mut args = HarnessArgs::parse();
    if args.reps == 1 {
        args.reps = 4; // repetitions per connection (paper: 10)
    }
    let grouping = Grouping::by_id(4).unwrap();
    let ds = dataset(128.0, &args); // the paper runs SF 128 for this figure

    // Memory limit ~= the intermediate size of grouping 4 (one 24-byte row
    // per order, padded), as in the paper ("approximately the total size of
    // the intermediates").
    let orders = ds.coll.rows() / 4;
    let base_limit = (orders * 40).max(64 * args.page_size);

    println!(
        "Figure 4: clean-first eviction | grouping 4 thin, rows={}, base mem limit={} MiB, reps={}",
        ds.coll.rows(),
        base_limit >> 20,
        args.reps
    );
    println!("csv:scenario,ms,persistent_mib,temporary_mib,tempfile_mib");

    let header: Vec<String> = ["scenario", "total_s", "max_tempfile_mib", "evictions_p/t"]
        .map(String::from)
        .to_vec();
    let mut rows = Vec::new();
    let mut single_conn_temp = 0u64;

    for connections in [1usize, 4] {
        let mut run_args = args.clone();
        run_args.mem_limit = Some(base_limit * connections);
        let env = build_env(&ds, &run_args);
        let Env {
            mgr,
            db: _db,
            table,
        } = env;
        let table = Arc::new(table);
        let stats_before = mgr.stats();

        let config = AggregateConfig {
            threads: run_args.threads,
            radix_bits: None,
            ht_capacity: 1 << 14,
            output_chunk_size: rexa_exec::VECTOR_SIZE,
            reset_fill_percent: 66,
            ..Default::default()
        };
        // Phase-1 floor only (rows = 0): connections must overlap.
        let floor = estimate_footprint(&config, run_args.page_size, 0, 0);
        let service = QueryService::new(
            Arc::clone(&mgr),
            ServiceConfig {
                pool_threads: run_args.threads * connections,
                max_concurrent: connections,
                queue_bound: connections * run_args.reps,
                slow_query: None,
            },
        );
        let request = || QueryRequest {
            plan: grouping_plan(grouping, false),
            input: QueryInput::Table(Arc::clone(&table)),
            options: QueryOptions {
                config: config.clone(),
                deadline: Some(run_args.timeout),
                footprint: Some(floor),
                consumer: Some(Arc::new(|_| Ok(()))),
                spans: None,
            },
        };

        // Sampler thread: the memory time series of the figure.
        let stop = AtomicBool::new(false);
        let series: Mutex<Vec<(u128, usize, usize, u64)>> = Mutex::new(Vec::new());
        let max_temp = Mutex::new(0u64);
        let start = Instant::now();
        let total = std::thread::scope(|s| {
            // A failed submit or query panics below; the guard still
            // stops the sampler, so the scope's join cannot hang.
            let _stop_sampler = StopOnDrop(&stop);
            let sampler = s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let st = mgr.stats();
                    series.lock().push((
                        start.elapsed().as_millis(),
                        st.persistent_resident,
                        st.temporary_resident,
                        st.temp_bytes_on_disk,
                    ));
                    let mut mt = max_temp.lock();
                    *mt = (*mt).max(st.temp_bytes_on_disk);
                    std::thread::sleep(Duration::from_millis(25));
                }
            });
            // `connections x reps` queries, `connections` running at
            // once — the service's admission queue carries the backlog
            // the per-connection loops used to.
            let handles: Vec<_> = (0..connections * run_args.reps)
                .map(|_| {
                    service
                        .submit(request())
                        .expect("submit within queue bound")
                })
                .collect();
            for h in handles {
                let out = h.wait();
                assert!(out.is_ok(), "robust run failed: {:?}", out.err());
            }
            stop.store(true, Ordering::Relaxed);
            sampler.join().unwrap();
            start.elapsed().as_secs_f64()
        });

        let delta = mgr.stats().delta_since(&stats_before);
        if connections == 1 {
            // Sampling can miss a short-lived spill; the write counter cannot.
            single_conn_temp = delta.temp_bytes_written;
        }
        for (ms, p, t, f) in series.lock().iter() {
            println!(
                "csv:{connections}conn,{ms},{:.2},{:.2},{:.2}",
                *p as f64 / 1048576.0,
                *t as f64 / 1048576.0,
                *f as f64 / 1048576.0
            );
        }
        rows.push(vec![
            format!("{connections} connection(s)"),
            format!("{total:.2}"),
            format!("{:.1}", *max_temp.lock() as f64 / 1048576.0),
            format!(
                "{}/{}",
                delta.evictions_persistent, delta.evictions_temporary
            ),
        ]);
        eprintln!(
            "  {connections}conn: {total:.2}s (max temp file {:.1} MiB)",
            *max_temp.lock() as f64 / 1048576.0
        );
    }
    print_table(&header, &rows);
    if single_conn_temp > 0 {
        eprintln!(
            "FAIL: the single-connection run wrote {single_conn_temp} temp bytes; \
             clean-first eviction should fit the intermediates beside the table"
        );
        std::process::exit(1);
    }
}
