//! **Aggregation hot-path baseline**: rows/sec of phase 1 (thread-local
//! pre-aggregation) and phase 2 (partition-wise aggregation) of the
//! vectorized kernels across the three grouping shapes they were built for
//! (thin integer key, wide multi-column key, string key), plus the
//! sorted-input and external (spilling) shapes.
//!
//! Emits a machine-readable `BENCH_agg.json` (see README "Benchmarks") so
//! regressions in the aggregation hot path are visible diff-to-diff; the
//! CI `bench-smoke` job runs this binary on a tiny row count and validates
//! the schema.
//!
//! ```text
//! agg_hotpath [--rows N] [--reps N] [--threads N] [--threads-sweep 1,2,4,8]
//!             [--out PATH] [--sql] [--trace-out PATH]
//! ```
//!
//! `--sql` additionally routes every workload through the SQL front end
//! (`rexa-sql`) before measuring, asserting that the lowered plan equals
//! the hand-wired one and that single-threaded results are bit-identical.
//! The benchmark numbers and the JSON schema are unchanged by the flag.
//!
//! `--threads-sweep T1,T2,…` additionally measures thread scaling: the
//! `thin_int` workload at every listed thread count (phase-1 scaling of the
//! morsel-driven probe). The per-thread measurements, including per-worker
//! attribution (busy secs, morsels claimed, ht_resets), land under a
//! `threads_sweep` key in the JSON.
//!
//! `--trace-out PATH` runs the external workload once more with span
//! tracing attached (separate from the measurements, so tracing cost never
//! touches the numbers) and writes the timeline as Chrome trace-event JSON
//! for Perfetto.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rexa_bench::print_table;
use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::simple::sorted_rows;
use rexa_core::{
    hash_aggregate_collect, hash_aggregate_streaming, AggregateConfig, AggregateSpec,
    HashAggregatePlan, RunStats, SortedInput,
};
use rexa_exec::pipeline::CollectionSource;
use rexa_exec::pool::ExecContext;
use rexa_exec::{ChunkCollection, DataChunk, LogicalType, Vector, VECTOR_SIZE};
use rexa_sql::Catalog;
use rexa_storage::scratch_dir;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    rows: usize,
    reps: usize,
    threads: usize,
    /// `--threads-sweep 1,2,4,8`: also measure thread scaling at these
    /// worker counts.
    threads_sweep: Option<Vec<usize>>,
    out: String,
    sql: bool,
    /// `--trace-out PATH`: after the measurements, run the external
    /// workload once more with span tracing attached and write the
    /// timeline as Chrome trace-event JSON (Perfetto-loadable). The traced
    /// run is separate from the measurements so tracing cost never touches
    /// the recorded numbers.
    trace_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        rows: 2_000_000,
        reps: 3,
        threads: 1,
        threads_sweep: None,
        out: "BENCH_agg.json".to_string(),
        sql: false,
        trace_out: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("missing value for {}", argv[*i - 1]);
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--rows" => args.rows = value(&mut i).parse().expect("--rows"),
            "--reps" => args.reps = value(&mut i).parse::<usize>().expect("--reps").max(1),
            "--threads" => args.threads = value(&mut i).parse().expect("--threads"),
            "--threads-sweep" => {
                let list: Vec<usize> = value(&mut i)
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads-sweep"))
                    .collect();
                assert!(!list.is_empty(), "--threads-sweep needs at least one count");
                args.threads_sweep = Some(list);
            }
            "--out" => args.out = value(&mut i),
            "--sql" => args.sql = true,
            "--trace-out" => args.trace_out = Some(value(&mut i)),
            "--help" | "-h" => {
                eprintln!(
                    "options: --rows N --reps N --threads N \
                     --threads-sweep T1,T2,… --out PATH --sql --trace-out PATH"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// One benchmark workload: a generated input plus its plan.
struct Workload {
    name: &'static str,
    coll: Arc<ChunkCollection>,
    plan: HashAggregatePlan,
}

/// Single i64 group key, two cheap aggregates: the pure probe/update race.
fn thin_int(rows: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(0xA661);
    let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
    let mut remaining = rows;
    while remaining > 0 {
        let n = remaining.min(VECTOR_SIZE);
        remaining -= n;
        let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..65_536)).collect();
        let vals: Vec<i64> = keys.iter().map(|k| k.wrapping_mul(3)).collect();
        coll.push(DataChunk::new(vec![
            Vector::from_i64(keys),
            Vector::from_i64(vals),
        ]))
        .unwrap();
    }
    Workload {
        coll: Arc::new(coll),
        name: "thin_int",
        plan: HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        },
    }
}

/// Three-column key (i64, date, f64) and a full aggregate mix over a float
/// payload: exercises the per-column batched compare and every kernel class.
fn wide_multi_key(rows: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(0xA662);
    let mut coll = ChunkCollection::new(vec![
        LogicalType::Int64,
        LogicalType::Date,
        LogicalType::Float64,
        LogicalType::Float64,
    ]);
    let mut remaining = rows;
    while remaining > 0 {
        let n = remaining.min(VECTOR_SIZE);
        remaining -= n;
        let k1: Vec<i64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
        let k2: Vec<i32> = (0..n).map(|_| rng.gen_range(0..32)).collect();
        let k3: Vec<f64> = (0..n).map(|_| rng.gen_range(0..32) as f64 * 0.25).collect();
        let vals: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 100.0).collect();
        coll.push(DataChunk::new(vec![
            Vector::from_i64(k1),
            Vector::from_dates(k2),
            Vector::from_f64(k3),
            Vector::from_f64(vals),
        ]))
        .unwrap();
    }
    Workload {
        coll: Arc::new(coll),
        name: "wide_multi_key",
        plan: HashAggregatePlan {
            group_cols: vec![0, 1, 2],
            aggregates: vec![
                AggregateSpec::count_star(),
                AggregateSpec::sum(3),
                AggregateSpec::min(3),
                AggregateSpec::max(3),
                AggregateSpec::avg(3),
            ],
        },
    }
}

/// All-distinct i64 keys carrying a wide string payload: the aggregation
/// state is larger than the input, so with a memory limit below the
/// intermediate size phase 1 must spill partitions and phase 2 must reload
/// them. The payload makes the shape I/O-bound (most of the wall time is
/// moving partition bytes, not hashing). Spill I/O is synchronous.
fn external(rows: usize) -> Workload {
    let mut coll = ChunkCollection::new(vec![
        LogicalType::Int64,
        LogicalType::Int64,
        LogicalType::Varchar,
    ]);
    let mut base = 0i64;
    let mut remaining = rows;
    while remaining > 0 {
        let n = remaining.min(VECTOR_SIZE);
        remaining -= n;
        let keys: Vec<i64> = (base..base + n as i64).collect();
        let vals: Vec<i64> = keys.iter().map(|k| k.wrapping_mul(3)).collect();
        let tags: Vec<String> = keys
            .iter()
            .map(|k| format!("row-payload-{k:012}-abcdefghijklmnopqrstuvwxyz0123456789"))
            .collect();
        base += n as i64;
        coll.push(DataChunk::new(vec![
            Vector::from_i64(keys),
            Vector::from_i64(vals),
            Vector::from_strs(tags),
        ]))
        .unwrap();
    }
    Workload {
        coll: Arc::new(coll),
        name: "external",
        plan: HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![
                AggregateSpec::count_star(),
                AggregateSpec::sum(1),
                AggregateSpec::any_value(2),
            ],
        },
    }
}

/// Fully sorted i64 key (ascending, ~64 rows per group, runs continuing
/// across chunk boundaries): the in-stream fast path's home turf, measured
/// as forced hash phase 1 vs forced in-stream.
fn sorted(rows: usize) -> Workload {
    let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
    let mut i = 0i64;
    let mut remaining = rows;
    while remaining > 0 {
        let n = remaining.min(VECTOR_SIZE);
        remaining -= n;
        let keys: Vec<i64> = (i..i + n as i64).map(|r| r / 64).collect();
        let vals: Vec<i64> = keys.iter().map(|k| k.wrapping_mul(3)).collect();
        i += n as i64;
        coll.push(DataChunk::new(vec![
            Vector::from_i64(keys),
            Vector::from_i64(vals),
        ]))
        .unwrap();
    }
    Workload {
        coll: Arc::new(coll),
        name: "sorted",
        plan: HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        },
    }
}

/// Nearly sorted i64 key: ascending ~256-row groups with ~2% random
/// stragglers from earlier groups. Clustered-but-not-sorted input — the
/// shape the sortedness detector has to recognize on its own (average run
/// length ~23, above [`IN_STREAM_RUN_MIN`]) — measured as forced hash vs
/// `Detect`.
fn clustered(rows: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(0xA665);
    let keys: Vec<i64> = (0..rows as i64)
        .map(|r| {
            let k = r / 256;
            if rng.gen_range(0..50) == 0 {
                rng.gen_range(0..=k)
            } else {
                k
            }
        })
        .collect();
    let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
    for ch in keys.chunks(VECTOR_SIZE) {
        let vals: Vec<i64> = ch.iter().map(|k| k.wrapping_mul(5)).collect();
        coll.push(DataChunk::new(vec![
            Vector::from_i64(ch.to_vec()),
            Vector::from_i64(vals),
        ]))
        .unwrap();
    }
    Workload {
        coll: Arc::new(coll),
        name: "clustered",
        plan: HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        },
    }
}

/// Varchar group key mixing inline and heap strings: the byte-compare path.
fn string_key(rows: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(0xA663);
    let mut coll = ChunkCollection::new(vec![LogicalType::Varchar, LogicalType::Int64]);
    let mut remaining = rows;
    while remaining > 0 {
        let n = remaining.min(VECTOR_SIZE);
        remaining -= n;
        let keys: Vec<String> = (0..n)
            .map(|_| {
                let k: u32 = rng.gen_range(0..8_192);
                if k.is_multiple_of(2) {
                    format!("k{k}")
                } else {
                    format!("group key number {k:06} with a heap-allocated payload")
                }
            })
            .collect();
        let vals: Vec<i64> = (0..n as i64).collect();
        coll.push(DataChunk::new(vec![
            Vector::from_strs(keys),
            Vector::from_i64(vals),
        ]))
        .unwrap();
    }
    Workload {
        coll: Arc::new(coll),
        name: "string_key",
        plan: HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        },
    }
}

/// `--sql`: route the workload through the SQL front end and check that it
/// agrees with the hand-wired plan — first structurally (the lowered
/// aggregate must match the plan the measurements run), then by value
/// (single-threaded results must be bit-identical; one thread so the
/// float-payload workloads have a deterministic combine order).
fn sql_parity_check(w: &Workload) {
    let (columns, sql): (&[&str], &str) = match w.name {
        "thin_int" => (
            &["k", "v"],
            "SELECT k, COUNT(*), SUM(v) FROM thin_int GROUP BY k",
        ),
        "wide_multi_key" => (
            &["k1", "k2", "k3", "v"],
            "SELECT k1, k2, k3, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) \
             FROM wide_multi_key GROUP BY k1, k2, k3",
        ),
        "string_key" => (
            &["k", "v"],
            "SELECT k, COUNT(*), SUM(v) FROM string_key GROUP BY k",
        ),
        "external" => (
            &["k", "v", "tag"],
            "SELECT k, COUNT(*), SUM(v), ANY_VALUE(tag) FROM external GROUP BY k",
        ),
        "sorted" => (
            &["k", "v"],
            "SELECT k, COUNT(*), SUM(v) FROM sorted GROUP BY k",
        ),
        "clustered" => (
            &["k", "v"],
            "SELECT k, COUNT(*), SUM(v) FROM clustered GROUP BY k",
        ),
        other => panic!("no SQL mapping for workload {other}"),
    };
    let mut catalog = Catalog::new();
    catalog
        .register_collection(
            w.name,
            columns.iter().map(|s| s.to_string()).collect(),
            Arc::clone(&w.coll),
        )
        .unwrap();
    if w.name == "sorted" {
        // Exercise the declared-sort-order plumbing: the planner must mark
        // the aggregate's input sorted (group key covers the sort prefix)
        // and surface it in EXPLAIN, and execution must promote the config
        // hint (asserted again by the result comparison below, which then
        // runs through the in-stream phase 1).
        catalog.declare_sorted("sorted", &["k"]).unwrap();
    }
    let physical = rexa_sql::plan(sql, &catalog).unwrap();
    if w.name == "sorted" {
        assert!(physical.input_sorted, "sorted: planner missed sort order");
        assert!(
            physical.explain().contains("input=sorted"),
            "sorted: EXPLAIN missing input=sorted"
        );
    }
    let lowered = physical.aggregate.as_ref().expect("grouped plan");
    assert_eq!(
        lowered.group_cols, w.plan.group_cols,
        "{}: SQL lowered different group columns",
        w.name
    );
    assert_eq!(
        format!("{:?}", lowered.aggregates),
        format!("{:?}", w.plan.aggregates),
        "{}: SQL lowered different aggregates",
        w.name
    );

    let config = AggregateConfig {
        threads: 1,
        ..Default::default()
    };
    let mgr = BufferManager::new(
        BufferManagerConfig::with_limit(1 << 30)
            .page_size(64 << 10)
            .temp_dir(scratch_dir("agghot").unwrap()),
    )
    .unwrap();
    let chunks = std::sync::Mutex::new(Vec::<DataChunk>::new());
    rexa_sql::execute_streaming(&mgr, &physical, &config, &ExecContext::new(), &|c| {
        chunks.lock().unwrap().push(c);
        Ok(())
    })
    .unwrap();
    let got = sorted_rows(&chunks.into_inner().unwrap());

    let source = CollectionSource::new(&w.coll);
    let (out, _) = hash_aggregate_collect(&mgr, &source, w.coll.types(), &w.plan, &config).unwrap();
    let want = sorted_rows(out.chunks());
    assert_eq!(
        got, want,
        "{}: SQL path and hand-wired plan disagree",
        w.name
    );
    println!("  sql parity: {} ok ({} groups)", w.name, want.len());
}

/// One mode's best-of-`reps` timings (minimum wall time per phase; the
/// minimum is the standard noise-robust estimator for throughput
/// micro-benchmarks — everything above it is scheduling interference).
/// Carries the last rep's [`QueryProfile`] so the JSON exposes the
/// execution profile (busy time, resets, spill I/O) behind the headline
/// rates.
struct Measurement {
    phase1_secs: f64,
    phase2_secs: f64,
    total_secs: f64,
    groups: usize,
    rows_in: usize,
    profile: rexa_obs::QueryProfile,
}

/// Buffer-pool geometry for one measurement: the in-memory workloads use a
/// huge limit (nothing spills); the external workload caps memory below the
/// intermediate size.
struct PoolSetup {
    mem_limit: usize,
    page_size: usize,
    radix_bits: Option<u32>,
    /// O_DIRECT spill file: expose the device's real I/O latency instead
    /// of measuring page-cache memcpy speed. Set for the external workload.
    direct_io: bool,
    /// Phase-1 routing: hash (`Unsorted`), in-stream (`Sorted`), or let the
    /// run-length sampler decide (`Detect`, the default).
    sorted_input: SortedInput,
}

impl PoolSetup {
    fn in_memory() -> Self {
        PoolSetup {
            mem_limit: 1 << 30,
            page_size: 64 << 10,
            radix_bits: None,
            direct_io: false,
            sorted_input: SortedInput::Detect,
        }
    }
}

fn measure(w: &Workload, threads: usize, reps: usize, setup: &PoolSetup) -> Measurement {
    let mgr = BufferManager::new(
        BufferManagerConfig::with_limit(setup.mem_limit)
            .page_size(setup.page_size)
            .temp_dir(scratch_dir("agghot").unwrap())
            .temp_direct_io(setup.direct_io),
    )
    .unwrap();
    let config = AggregateConfig {
        threads,
        radix_bits: setup.radix_bits,
        sorted_input: setup.sorted_input,
        ..Default::default()
    };
    let mut p1 = Vec::with_capacity(reps);
    let mut p2 = Vec::with_capacity(reps);
    let mut total = Vec::with_capacity(reps);
    let mut last: Option<RunStats> = None;
    for _ in 0..reps {
        let source = CollectionSource::new(&w.coll);
        let start = Instant::now();
        let stats = hash_aggregate_streaming(
            &mgr,
            &source,
            w.coll.types(),
            &w.plan,
            &config,
            &ExecContext::new(),
            &|_chunk| Ok(()),
        )
        .unwrap();
        total.push(start.elapsed().as_secs_f64());
        p1.push(stats.phase1.as_secs_f64());
        p2.push(stats.phase2.as_secs_f64());
        last = Some(stats);
    }
    let best = |v: &Vec<f64>| v.iter().copied().fold(f64::INFINITY, f64::min);
    let last = last.unwrap();
    Measurement {
        phase1_secs: best(&p1),
        phase2_secs: best(&p2),
        total_secs: best(&total),
        groups: last.groups,
        rows_in: last.rows_in,
        profile: last.profile,
    }
}

/// `--trace-out`: one extra traced run of the external workload, so the
/// exported timeline shows both phases and the barrier between them under
/// spilling. The
/// run needs real spill traffic to be worth looking at, so it uses its own input floor (500k rows — the
/// group state then exceeds the 16 MiB limit floor) rather than the smoke
/// row count; small pages keep the probe's pinned write heads (threads x 64
/// partitions x 2 pages) well under the limit.
fn trace_external_run(ext: &Workload, threads: usize, path: &str) {
    let owned;
    let ext = if ext.coll.rows() < 500_000 {
        owned = external(500_000);
        &owned
    } else {
        ext
    };
    let limit = (ext.coll.approx_bytes() / 2).max(16 << 20);
    let mgr = BufferManager::new(
        BufferManagerConfig::with_limit(limit)
            .page_size(16 << 10)
            .temp_dir(scratch_dir("agghot").unwrap()),
    )
    .unwrap();
    let config = AggregateConfig {
        threads,
        radix_bits: Some(6),
        // Small phase-1 tables: their live rows are pinned, and the traced
        // run's limit is tight by construction.
        ht_capacity: 1 << 14,
        ..Default::default()
    };
    let spans = rexa_obs::SpanCollector::new();
    let ctx = ExecContext::new().with_spans(Arc::clone(&spans));
    let source = CollectionSource::new(&ext.coll);
    let stats = hash_aggregate_streaming(
        &mgr,
        &source,
        ext.coll.types(),
        &ext.plan,
        &config,
        &ctx,
        &|_chunk| Ok(()),
    )
    .unwrap();
    std::fs::write(path, stats.profile.chrome_trace_json()).expect("write trace JSON");
    println!(
        "traced external run: {} groups, spilled {} MiB; wrote {path} \
         (open in https://ui.perfetto.dev)",
        stats.groups,
        stats.profile.spill_bytes_written >> 20,
    );
}

/// Input rows per second over a phase duration (0 when the phase was too
/// fast to time — tiny CI smoke runs).
fn rate(rows: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        rows as f64 / secs
    } else {
        0.0
    }
}

fn json_measurement(m: &Measurement) -> String {
    let p = &m.profile;
    let phase = |ph: rexa_obs::Phase| &p.phases[ph.index()];
    // The partitions phase 2 merged.
    let partition_strategies = p
        .partition_merges
        .iter()
        .map(|pm| {
            format!(
                "{{\"partition\": {}, \"strategy\": \"{}\"}}",
                pm.partition, pm.strategy,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    // Per-worker phase-1 attribution: where the probe time actually went.
    let workers = p
        .workers
        .iter()
        .map(|w| {
            format!(
                "{{\"worker\": {}, \"busy_secs\": {:.6}, \"morsels\": {}, \
                 \"chunks\": {}, \"ht_resets\": {}}}",
                w.worker,
                w.busy.as_secs_f64(),
                w.morsels,
                w.chunks,
                w.ht_resets,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"phase1_secs\": {:.6}, \"phase2_secs\": {:.6}, \"total_secs\": {:.6}, \
         \"phase1_rows_per_sec\": {:.1}, \"phase2_rows_per_sec\": {:.1}, \
         \"rows_per_sec\": {:.1}, \"groups\": {}, \
         \"profile\": {{\"probe_busy_secs\": {:.6}, \"merge_busy_secs\": {:.6}, \
         \"finalize_busy_secs\": {:.6}, \"ht_resets\": {}, \"partitions\": {}, \
         \"partitions_external\": {}, \"spill_bytes_written\": {}, \
         \"spill_bytes_read\": {}, \"evictions\": {}, \
         \"strategy\": \"{}\", \"partition_strategies\": [{}], \
         \"workers\": [{}]}}}}",
        m.phase1_secs,
        m.phase2_secs,
        m.total_secs,
        rate(m.rows_in, m.phase1_secs),
        rate(m.rows_in, m.phase2_secs),
        rate(m.rows_in, m.total_secs),
        m.groups,
        phase(rexa_obs::Phase::Probe).busy.as_secs_f64(),
        phase(rexa_obs::Phase::Merge).busy.as_secs_f64(),
        phase(rexa_obs::Phase::Finalize).busy.as_secs_f64(),
        p.ht_resets,
        p.partitions,
        p.partitions_external,
        p.spill_bytes_written,
        p.spill_bytes_read,
        p.evictions,
        p.strategy,
        partition_strategies,
        workers,
    )
}

fn main() {
    let args = parse_args();
    println!(
        "agg_hotpath: {} rows, {} reps, {} threads",
        args.rows, args.reps, args.threads
    );
    let workloads = [
        thin_int(args.rows),
        wide_multi_key(args.rows),
        string_key(args.rows),
    ];
    let srt = sorted(args.rows);
    let clu = clustered(args.rows);
    let ext = external(args.rows);
    if args.sql {
        println!("checking SQL front end against hand-wired plans …");
        for w in workloads.iter().chain([&srt, &clu, &ext]) {
            sql_parity_check(w);
        }
    }
    let mut entries = Vec::new();
    let header: Vec<String> = [
        "workload",
        "mode",
        "phase1 Mrows/s",
        "phase2 Mrows/s",
        "speedup",
    ]
    .map(String::from)
    .to_vec();
    let mut table = Vec::new();
    for w in &workloads {
        let m = measure(w, args.threads, args.reps, &PoolSetup::in_memory());
        table.push(vec![
            w.name.to_string(),
            "vectorized".to_string(),
            format!("{:.1}", rate(m.rows_in, m.phase1_secs) / 1e6),
            format!("{:.1}", rate(m.rows_in, m.phase2_secs) / 1e6),
            "-".to_string(),
        ]);
        entries.push(format!(
            "    {{\"workload\": \"{}\", \"rows\": {}, \"groups\": {}, \"vectorized\": {}}}",
            w.name,
            m.rows_in,
            m.groups,
            json_measurement(&m),
        ));
    }
    // The sorted-input frontier, in memory: `sorted` compares a forced hash
    // phase 1 against the forced in-stream fast path on fully ordered keys;
    // `clustered` compares forced hash against `Detect`, so the number also
    // prices the detector's sampling (it must recognize the clustered shape
    // itself before the switch pays off).
    let hash_setup = PoolSetup {
        sorted_input: SortedInput::Unsorted,
        ..PoolSetup::in_memory()
    };
    let instream_setup = PoolSetup {
        sorted_input: SortedInput::Sorted,
        ..PoolSetup::in_memory()
    };
    for (w, fast_setup, fast_label, speedup_key) in [
        (&srt, &instream_setup, "instream", "instream_speedup"),
        (&clu, &PoolSetup::in_memory(), "detect", "detect_speedup"),
    ] {
        let hash_m = measure(w, args.threads, args.reps, &hash_setup);
        let fast_m = measure(w, args.threads, args.reps, fast_setup);
        assert_eq!(
            hash_m.groups, fast_m.groups,
            "{}: hash and {fast_label} disagree on group count",
            w.name
        );
        let speedup = if fast_m.phase1_secs > 0.0 {
            hash_m.phase1_secs / fast_m.phase1_secs
        } else {
            0.0
        };
        for (mode, m) in [("hash", &hash_m), (fast_label, &fast_m)] {
            table.push(vec![
                w.name.to_string(),
                mode.to_string(),
                format!("{:.1}", rate(m.rows_in, m.phase1_secs) / 1e6),
                format!("{:.1}", rate(m.rows_in, m.phase2_secs) / 1e6),
                if mode == "hash" {
                    "1.00x".to_string()
                } else {
                    format!("{speedup:.2}x")
                },
            ]);
        }
        entries.push(format!(
            "    {{\"workload\": \"{}\", \"rows\": {}, \"groups\": {}, \
             \"hash\": {}, \"{}\": {}, \"{}\": {:.3}}}",
            w.name,
            hash_m.rows_in,
            hash_m.groups,
            json_measurement(&hash_m),
            fast_label,
            json_measurement(&fast_m),
            speedup_key,
            speedup,
        ));
    }
    // The external shape. The limit sits below the intermediate size (half
    // the input bytes) but above the operator's pinned floor, so spilling is
    // mandatory on real row counts while tiny CI smoke runs still complete.
    // Over-partition (64 partitions) so each partition is a small fraction
    // of the limit.
    let ext_setup = PoolSetup {
        mem_limit: (ext.coll.approx_bytes() / 2).max(16 << 20),
        page_size: 64 << 10,
        radix_bits: Some(6),
        direct_io: true,
        sorted_input: SortedInput::Detect,
    };
    let m = measure(&ext, args.threads, args.reps, &ext_setup);
    table.push(vec![
        ext.name.to_string(),
        "sync".to_string(),
        format!("{:.1}", rate(m.rows_in, m.phase1_secs) / 1e6),
        format!("{:.1}", rate(m.rows_in, m.phase2_secs) / 1e6),
        "-".to_string(),
    ]);
    entries.push(format!(
        "    {{\"workload\": \"external\", \"rows\": {}, \"groups\": {}, \"sync\": {}}}",
        m.rows_in,
        m.groups,
        json_measurement(&m),
    ));

    print_table(&header, &table);

    // `--threads-sweep`: thread scaling of the morsel-driven probe
    // (thin_int) at every requested thread count.
    let mut sweep_json = String::new();
    if let Some(counts) = &args.threads_sweep {
        println!("\nthreads sweep: {counts:?}");
        let sweep_header: Vec<String> = [
            "workload",
            "threads",
            "strategy",
            "phase1 Mrows/s",
            "total s",
        ]
        .map(String::from)
        .to_vec();
        let mut sweep_table = Vec::new();
        let mut thin_points = Vec::new();
        let mut thin_info = (0usize, 0usize); // (rows, groups)
        let thin = &workloads[0];
        assert_eq!(thin.name, "thin_int");
        for &t in counts {
            let m = measure(thin, t, args.reps, &PoolSetup::in_memory());
            sweep_table.push(vec![
                thin.name.to_string(),
                t.to_string(),
                m.profile.strategy.clone(),
                format!("{:.1}", rate(m.rows_in, m.phase1_secs) / 1e6),
                format!("{:.3}", m.total_secs),
            ]);
            thin_info = (m.rows_in, m.groups);
            thin_points.push(format!(
                "        {{\"threads\": {}, \"vectorized\": {}}}",
                t,
                json_measurement(&m)
            ));
        }
        print_table(&sweep_header, &sweep_table);
        let counts_json = counts
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        sweep_json = format!(
            ",\n  \"threads_sweep\": {{\n    \"threads\": [{}],\n    \"workloads\": [\n      \
             {{\"workload\": \"thin_int\", \"rows\": {}, \"groups\": {}, \"points\": [\n{}\n      ]}}\n    ]\n  }}",
            counts_json,
            thin_info.0,
            thin_info.1,
            thin_points.join(",\n"),
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"agg_hotpath\",\n  \"rows\": {},\n  \"reps\": {},\n  \
         \"threads\": {},\n  \"workloads\": [\n{}\n  ]{}\n}}\n",
        args.rows,
        args.reps,
        args.threads,
        entries.join(",\n"),
        sweep_json,
    );
    std::fs::write(&args.out, &json).expect("write BENCH_agg.json");
    println!("wrote {}", args.out);

    if let Some(path) = &args.trace_out {
        trace_external_run(&ext, args.threads.max(2), path);
    }
}
