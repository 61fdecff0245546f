//! Per-layer probes: each calls one crate's public functions directly, on
//! the workload's own data, outside the service. None is gated; they say
//! what a layer can do alone, to set beside what the query paid.

use crate::stats::median;
use crate::workload::Env;
use crate::MIB;
use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_exec::hashing::hash_columns;
use rexa_exec::pipeline::{ChunkSource, CollectionSource};
use rexa_exec::{ChunkCollection, DataChunk, ExecContext, LogicalType, Vector, WorkerPool};
use rexa_layout::{PartitionedTupleData, TupleDataLayout};
use rexa_storage::{DatabaseFile, TempFileManager};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `sql.plan_us`: parse + bind + plan of the client's text against the
/// service's catalog — what `submit_sql` does before anything queues.
pub fn sql_plan_us(env: &Env) -> f64 {
    let catalog = env.service.catalog();
    let sql = &env.clients[0].sql;
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(rexa_sql::plan(sql, &catalog).expect("workload SQL plans"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// `exec.pool_dispatch_us`: how long a worker pool of the engine's size
/// takes to have one unit running on every thread — what each parallel
/// phase pays before work starts. Every unit waits for the others to
/// arrive, so the calling thread cannot drain the units alone.
pub fn pool_dispatch_us(threads: usize) -> f64 {
    let pool = WorkerPool::new(threads);
    let times: Vec<f64> = (0..300)
        .map(|_| {
            let arrived = AtomicUsize::new(0);
            let t = Instant::now();
            pool.run(threads, &|| {
                arrived.fetch_add(1, Ordering::AcqRel);
                while arrived.load(Ordering::Acquire) < threads {
                    std::hint::spin_loop();
                }
                Ok(())
            })
            .expect("rendezvous units");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// `exec.scan_rows_per_s`: drain the first client's source through the
/// morsel readers on the engine's thread count, with no operator behind.
pub fn scan_rows_per_s(env: &Env) -> f64 {
    let collection;
    let paged;
    let source: &dyn ChunkSource = match (&env.table, env.clients[0].paged) {
        (Some(table), true) => {
            paged = table.scan(&env.mgr);
            &paged
        }
        _ => {
            collection = CollectionSource::new(&env.data);
            &collection
        }
    };
    let rows = AtomicUsize::new(0);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..env.threads {
            scope.spawn(|| {
                let mut reader = source.reader();
                let mut seen = 0;
                while let Some(chunk) = reader.next().expect("scan") {
                    seen += std::hint::black_box(chunk).len();
                }
                rows.fetch_add(seen, Ordering::Relaxed);
            });
        }
    });
    rows.load(Ordering::Relaxed) as f64 / t.elapsed().as_secs_f64()
}

/// `core.direct_ms`: the planned query run straight through
/// `rexa_sql::execute_streaming` (which lowers onto
/// `hash_aggregate_streaming_ctx`) on the workload's manager — no parse,
/// no admission queue, no reservation, no driver thread.
pub fn core_direct_ms(env: &Env) -> f64 {
    let plan = rexa_sql::plan(&env.clients[0].sql, &env.service.catalog()).expect("plans");
    let config = crate::workload::query_options(env.threads).config;
    let ctx = ExecContext::with_pool(Arc::new(WorkerPool::new(env.threads)));
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let out = std::sync::Mutex::new(ChunkCollection::new(plan.output_types.clone()));
            let t = Instant::now();
            rexa_sql::execute_streaming(&env.mgr, &plan, &config, &ctx, &|chunk| {
                out.lock().expect("collector lock").push(chunk)
            })
            .expect("direct run");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(out);
            ms
        })
        .collect();
    median(&times)
}

/// Rows per second `(scatter, gather)` of the spillable row layout on the
/// first client's row shape: partitioned append of the group and payload
/// columns, then a pinned read back into chunks. A private manager with an
/// ample limit, so nothing is evicted.
pub fn layout_rows_per_s(env: &Env, dir: &Path) -> (f64, f64) {
    let plan = rexa_sql::plan(&env.clients[0].sql, &env.service.catalog()).expect("plans");
    let agg = plan.aggregate.as_ref().expect("workloads aggregate");
    // The operator's row: group columns, write-once payload columns, then
    // one 8-byte state per remaining aggregate.
    let mut cols = agg.group_cols.clone();
    let mut states = 0;
    for a in &agg.aggregates {
        match (a.kind, a.arg) {
            (rexa_core::AggKind::AnyValue, Some(c)) => cols.push(c),
            _ => states += 1,
        }
    }
    let types: Vec<LogicalType> = cols.iter().map(|&c| plan.input_schema[c]).collect();
    let layout = Arc::new(TupleDataLayout::new(types, vec![8; states]));
    let mgr: Arc<BufferManager> =
        BufferManager::new(BufferManagerConfig::with_limit(4 << 30).temp_dir(dir.join("layout")))
            .expect("layout manager");
    let radix_bits = crate::workload::query_options(env.threads)
        .config
        .effective_radix_bits();
    let mut data = PartitionedTupleData::new(&mgr, &layout, radix_bits);

    let sel: Vec<u32> = (0..rexa_exec::VECTOR_SIZE as u32).collect();
    let t = Instant::now();
    for chunk in env.data.chunks() {
        let views: Vec<&Vector> = cols.iter().map(|&c| chunk.column(c)).collect();
        let hashes = hash_columns(&views[..agg.group_cols.len()], chunk.len());
        data.append(&views, &hashes, &sel[..chunk.len()], None)
            .expect("append");
    }
    data.release_pins();
    let rows = data.rows() as f64;
    let scatter = rows / t.elapsed().as_secs_f64();

    let t = Instant::now();
    for p in 0..data.partition_count() {
        let part = data.partition_mut(p);
        let pins = part.pin_all().expect("pin partition");
        let ptrs = part.all_row_ptrs(&pins);
        for batch in ptrs.chunks(rexa_exec::VECTOR_SIZE) {
            // SAFETY: `ptrs` came from `all_row_ptrs` under `pins`, which
            // is alive until the end of this loop body, so every row and
            // heap page is pinned and pointer-recomputed.
            let chunk: DataChunk = unsafe { part.gather(batch) };
            std::hint::black_box(chunk);
        }
    }
    let gather = rows / t.elapsed().as_secs_f64();
    (scatter, gather)
}

/// The device under the scratch directory, as the engine uses it.
pub struct StorageCeiling {
    pub temp_write_mib_s: f64,
    pub temp_read_mib_s: f64,
    pub db_read_mib_s: f64,
    /// Bytes the probe held on disk at once; it removes its files itself.
    pub disk_bytes: u64,
}

/// Sequential page-sized slot writes and reads through `TempFileManager`,
/// and block reads through `DatabaseFile`, of `bytes` each. Buffered I/O,
/// as the defaults run it: on a sandbox this is the page cache's speed.
pub fn storage_ceiling(dir: &Path, bytes: usize) -> StorageCeiling {
    let page_size = rexa_storage::DEFAULT_PAGE_SIZE;
    let pages = (bytes / page_size).max(1);
    let mib = (pages * page_size) as f64 / MIB;
    let page: Vec<u8> = (0..page_size).map(|i| (i * 31) as u8).collect();
    let mut buf = vec![0u8; page_size];

    let temp = TempFileManager::new(dir.join("storage-temp"), page_size).expect("temp manager");
    let t = Instant::now();
    let slots: Vec<_> = (0..pages)
        .map(|_| temp.write_slot(&page).expect("write slot"))
        .collect();
    let temp_write_mib_s = mib / t.elapsed().as_secs_f64();
    let t = Instant::now();
    for slot in slots {
        temp.read_slot(slot, &mut buf).expect("read slot");
    }
    let temp_read_mib_s = mib / t.elapsed().as_secs_f64();
    drop(temp);
    let _ = std::fs::remove_dir_all(dir.join("storage-temp"));

    let db_path = dir.join("storage-probe.db");
    let db = DatabaseFile::create(&db_path, page_size).expect("probe database");
    for _ in 0..pages {
        db.append_block(&page).expect("append block");
    }
    let t = Instant::now();
    for id in 0..pages as u64 {
        db.read_block(id, &mut buf).expect("read block");
    }
    let db_read_mib_s = mib / t.elapsed().as_secs_f64();
    std::hint::black_box(&buf);
    drop(db);
    let _ = std::fs::remove_file(&db_path);

    StorageCeiling {
        temp_write_mib_s,
        temp_read_mib_s,
        db_read_mib_s,
        disk_bytes: (pages * page_size) as u64,
    }
}
