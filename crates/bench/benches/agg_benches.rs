//! Scaled-down Criterion versions of the evaluation's macro experiments:
//!
//! * `groupings_thin` / `groupings_wide` — Tables II/III shape: grouping 4
//!   on generated lineitem, robust engine vs. baselines;
//! * `fig1_regimes` — the cliff: the robust engine below and above the
//!   memory limit (graceful degradation is "above ≈ 2-4x below", not 100x);
//! * ablations: `reset_threshold` (the 2/3-full reset) and `radix_bits`
//!   (over-partitioning degree).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rexa_bench::{build_env, dataset, grouping_plan, HarnessArgs, OffsetConsumer};
use rexa_core::baselines::{in_memory_aggregate, sort_aggregate};
use rexa_core::{hash_aggregate_streaming, AggregateConfig};
use rexa_exec::pipeline::CancelToken;
use rexa_exec::{ExecContext, VECTOR_SIZE};
use rexa_tpch::{lineitem_schema, Grouping};
use std::time::Duration;

fn args() -> HarnessArgs {
    HarnessArgs {
        scale: 0.002, // ~12k rows per paper SF unit
        timeout: Duration::from_secs(60),
        threads: 4,
        reps: 1,
        page_size: 16 << 10,
        mem_limit: Some(48 << 20),
        csv: false,
        threads_list: Vec::new(),
        smoke: false,
    }
}

fn agg_config(threads: usize, radix_bits: u32, reset: u32) -> AggregateConfig {
    AggregateConfig {
        threads,
        radix_bits: Some(radix_bits),
        ht_capacity: 1 << 14,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: reset,
        ..Default::default()
    }
}

fn bench_groupings(c: &mut Criterion) {
    let a = args();
    let ds = dataset(4.0, &a); // ~48k rows
    let env = build_env(&ds, &a);
    let schema = lineitem_schema();
    let grouping = Grouping::by_id(4).unwrap();

    for wide in [false, true] {
        let plan = grouping_plan(grouping, wide);
        let label = if wide {
            "groupings_wide"
        } else {
            "groupings_thin"
        };
        let mut g = c.benchmark_group(label);
        g.sample_size(10);
        g.throughput(criterion::Throughput::Elements(ds.coll.rows() as u64));
        g.bench_function("rexa", |b| {
            b.iter(|| {
                let token = CancelToken::new();
                let consumer = OffsetConsumer::new(token.clone());
                let source = env.table.scan(&env.mgr);
                hash_aggregate_streaming(
                    &env.mgr,
                    &source,
                    &schema,
                    &plan,
                    &agg_config(4, 4, 66),
                    &ExecContext::new(),
                    &|c| consumer.consume(c),
                )
                .unwrap();
            })
        });
        g.bench_function("inmem", |b| {
            b.iter(|| {
                let token = CancelToken::new();
                let consumer = OffsetConsumer::new(token.clone());
                let source = env.table.scan(&env.mgr);
                in_memory_aggregate(
                    &env.mgr,
                    &source,
                    &schema,
                    &plan.group_cols,
                    &plan.aggregates,
                    4,
                    &token,
                    &|c| consumer.consume(c),
                )
                .unwrap();
            })
        });
        g.bench_function("extsort", |b| {
            b.iter(|| {
                let token = CancelToken::new();
                let consumer = OffsetConsumer::new(token.clone());
                let source = env.table.scan(&env.mgr);
                sort_aggregate(
                    &env.mgr,
                    &source,
                    &schema,
                    &plan.group_cols,
                    &plan.aggregates,
                    &token,
                    &|c| consumer.consume(c),
                )
                .unwrap();
            })
        });
        g.finish();
    }
}

fn bench_cliff_regimes(c: &mut Criterion) {
    let a = args();
    let ds = dataset(16.0, &a); // ~190k rows
    let schema = lineitem_schema();
    let plan = grouping_plan(Grouping::by_id(4).unwrap(), false);

    let mut g = c.benchmark_group("fig1_regimes");
    g.sample_size(10);
    for (label, limit) in [("in_memory", 256usize << 20), ("beyond_limit", 3 << 20)] {
        let mut a2 = a.clone();
        a2.mem_limit = Some(limit);
        a2.page_size = 8 << 10;
        let env = build_env(&ds, &a2);
        g.bench_function(label, |b| {
            b.iter(|| {
                let token = CancelToken::new();
                let consumer = OffsetConsumer::new(token.clone());
                let source = env.table.scan(&env.mgr);
                let stats = hash_aggregate_streaming(
                    &env.mgr,
                    &source,
                    &schema,
                    &plan,
                    &agg_config(4, 4, 66),
                    &ExecContext::new(),
                    &|c| consumer.consume(c),
                )
                .unwrap();
                assert!(stats.groups > 0);
            })
        });
    }
    g.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let a = args();
    let ds = dataset(8.0, &a);
    let env = build_env(&ds, &a);
    let schema = lineitem_schema();
    let plan = grouping_plan(Grouping::by_id(4).unwrap(), false);

    let mut g = c.benchmark_group("reset_threshold");
    g.sample_size(10);
    for reset in [33u32, 50, 66, 90] {
        g.bench_with_input(BenchmarkId::from_parameter(reset), &reset, |b, &reset| {
            b.iter(|| {
                let token = CancelToken::new();
                let consumer = OffsetConsumer::new(token.clone());
                let source = env.table.scan(&env.mgr);
                hash_aggregate_streaming(
                    &env.mgr,
                    &source,
                    &schema,
                    &plan,
                    &agg_config(4, 4, reset),
                    &ExecContext::new(),
                    &|c| consumer.consume(c),
                )
                .unwrap();
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("radix_bits");
    g.sample_size(10);
    for bits in [2u32, 4, 6, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            b.iter(|| {
                let token = CancelToken::new();
                let consumer = OffsetConsumer::new(token.clone());
                let source = env.table.scan(&env.mgr);
                hash_aggregate_streaming(
                    &env.mgr,
                    &source,
                    &schema,
                    &plan,
                    &agg_config(4, bits, 66),
                    &ExecContext::new(),
                    &|c| consumer.consume(c),
                )
                .unwrap();
            })
        });
    }
    g.finish();
}

/// Skew robustness (paper Section V, "Data Distributions"): same row count
/// and key domain, increasing Zipf exponent. Pre-aggregation should make the
/// skewed cases *cheaper*, not pathological (heavy hitters collapse in the
/// thread-local table; partitions stay balanced because they are formed
/// after reduction).
fn bench_skew(c: &mut Criterion) {
    use rexa_core::hash_aggregate_collect;
    use rexa_exec::pipeline::CollectionSource;

    let rows = 200_000;
    let keys = 50_000;
    let mut g = c.benchmark_group("skew_robustness");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(rows as u64));
    for s in [0.0f64, 0.8, 1.2] {
        let coll = rexa_tpch::zipf_table(rows, keys, s, 99);
        let plan = rexa_core::HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![
                rexa_core::AggregateSpec::count_star(),
                rexa_core::AggregateSpec::sum(1),
            ],
        };
        let mgr = rexa_buffer::BufferManager::new(
            rexa_buffer::BufferManagerConfig::with_limit(256 << 20).page_size(16 << 10),
        )
        .unwrap();
        g.bench_function(format!("zipf_s{s}"), |b| {
            b.iter(|| {
                let source = CollectionSource::new(&coll);
                let (out, _) = hash_aggregate_collect(
                    &mgr,
                    &source,
                    coll.types(),
                    &plan,
                    &agg_config(4, 4, 66),
                )
                .unwrap();
                assert!(out.rows() > 0);
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_groupings,
    bench_cliff_regimes,
    bench_ablations,
    bench_skew
);
criterion_main!(benches);
