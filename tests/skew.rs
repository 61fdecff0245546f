//! Skew robustness (paper Section V, "Data Distributions"): because tuples
//! are partitioned *after* thread-local pre-aggregation, heavy hitters are
//! reduced before any data is exchanged and partitions stay balanced. These
//! tests check correctness and balance under Zipf and clustered inputs, and
//! under a key set built to leave radix partitions empty or with one row.

use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::simple::{reference_aggregate, sorted_rows};
use rexa_core::{hash_aggregate_collect, AggregateConfig, AggregateSpec, HashAggregatePlan};
use rexa_exec::hashing::{hash_u64, radix};
use rexa_exec::pipeline::CollectionSource;
use rexa_exec::{ChunkCollection, DataChunk, LogicalType, Vector, VECTOR_SIZE};
use rexa_storage::scratch_dir;
use std::sync::Arc;

fn mgr(limit: usize) -> Arc<BufferManager> {
    BufferManager::new(
        BufferManagerConfig::with_limit(limit)
            .page_size(8 << 10)
            .temp_dir(scratch_dir("skew").unwrap()),
    )
    .unwrap()
}

fn config() -> AggregateConfig {
    AggregateConfig {
        threads: 4,
        radix_bits: Some(4),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    }
}

#[test]
fn zipf_heavy_hitters_are_exact() {
    for s in [0.8, 1.0, 1.5] {
        let coll = rexa_tpch::zipf_table(60_000, 5_000, s, 42);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        let m = mgr(64 << 20);
        let source = CollectionSource::new(&coll);
        let (out, stats) =
            hash_aggregate_collect(&m, &source, coll.types(), &plan, &config()).unwrap();
        let source = CollectionSource::new(&coll);
        let want =
            reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
        assert_eq!(sorted_rows(out.chunks()), want, "s={s}");
        assert_eq!(stats.groups, want.len());
    }
}

#[test]
fn pre_aggregation_reduces_heavy_hitters_before_partitioning() {
    // With Zipf(1.5) over 5k keys, 60k rows collapse to ~5k groups inside
    // the thread-local tables; the materialized intermediate volume must be
    // close to the number of *groups* per thread, not the number of rows.
    let coll = rexa_tpch::zipf_table(60_000, 5_000, 1.5, 7);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star()],
    };
    let m = mgr(256 << 20);
    let source = CollectionSource::new(&coll);
    let (_, stats) = hash_aggregate_collect(&m, &source, coll.types(), &plan, &config()).unwrap();
    // Intermediate pages allocated (pages x 8 KiB) should hold far fewer
    // than 60k rows' worth (~2 MiB raw); heavy hitters got reduced in place.
    let intermediate_bytes = stats.buffer.allocations as usize * (8 << 10);
    assert!(
        intermediate_bytes < 60_000 * 32 / 2,
        "pre-aggregation did not reduce: {intermediate_bytes} bytes allocated"
    );
}

#[test]
fn clustered_keys_are_exact_and_cheap() {
    // Runs of equal keys (the paper's "interesting orderings") hit the same
    // hash-table entry repeatedly: exact results, few materialized rows.
    let coll = rexa_tpch::clustered_table(80_000, 256, 3);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![
            AggregateSpec::count_star(),
            AggregateSpec::min(1),
            AggregateSpec::max(1),
        ],
    };
    let m = mgr(64 << 20);
    let source = CollectionSource::new(&coll);
    let (out, stats) = hash_aggregate_collect(&m, &source, coll.types(), &plan, &config()).unwrap();
    let source = CollectionSource::new(&coll);
    let want =
        reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
    assert_eq!(sorted_rows(out.chunks()), want);
    // ~80k/256 = ~313 groups (+ chunk-boundary splits).
    assert!(stats.groups < 600, "{}", stats.groups);
}

#[test]
fn skewed_partitions_stay_balanced() {
    // Partition sizes reflect *groups* (hashes are uniform over groups),
    // not raw row counts — the property that makes phase 2 balanced even
    // under heavy skew.
    let coll = rexa_tpch::zipf_table(100_000, 20_000, 1.2, 11);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star()],
    };
    let m = mgr(256 << 20);
    let source = CollectionSource::new(&coll);
    let (out, stats) = hash_aggregate_collect(&m, &source, coll.types(), &plan, &config()).unwrap();
    // Count output rows per radix partition by recomputing each group's
    // radix from its key hash.
    let mut per_partition = vec![0usize; stats.partitions];
    for chunk in out.chunks() {
        for &k in chunk.column(0).i64s() {
            let h = rexa_exec::hashing::hash_u64(k as u64);
            per_partition[rexa_exec::hashing::radix(h, 4)] += 1;
        }
    }
    let max = *per_partition.iter().max().unwrap() as f64;
    let avg = per_partition.iter().sum::<usize>() as f64 / per_partition.len() as f64;
    assert!(
        max / avg < 1.25,
        "partition imbalance {max}/{avg}: {per_partition:?}"
    );
}

#[test]
fn zipf_under_memory_pressure_spills_and_stays_exact() {
    let coll = rexa_tpch::zipf_table(120_000, 100_000, 0.4, 5); // mild skew, many groups
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::sum(1), AggregateSpec::avg(1)],
    };
    let m = mgr(3 << 20);
    let source = CollectionSource::new(&coll);
    let (out, stats) = hash_aggregate_collect(&m, &source, coll.types(), &plan, &config()).unwrap();
    assert!(stats.buffer.temp_bytes_written > 0, "{:?}", stats.buffer);
    let source = CollectionSource::new(&coll);
    let want =
        reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
    assert_eq!(sorted_rows(out.chunks()).len(), want.len());
    assert_eq!(sorted_rows(out.chunks()), want);
}

#[test]
fn empty_and_single_row_partitions_match_reference() {
    // 16 radix partitions, keys picked by the radix of their hash:
    // partitions 0..4 receive no row at all, partitions 4..8 exactly one row
    // (one key, seen once), and the other eight share 60k keys seen twice —
    // the second occurrences in a later pass, so they meet their first in
    // phase 2 — which is enough state to spill under the tight limit.
    let partition = |k: i64| radix(hash_u64(k as u64), 4);
    let mut single_taken = [false; 16];
    let mut singles: Vec<i64> = Vec::new();
    let mut heavy: Vec<i64> = Vec::new();
    let mut k = 0i64;
    while heavy.len() < 60_000 {
        match partition(k) {
            0..=3 => {}
            p @ 4..=7 => {
                if !std::mem::replace(&mut single_taken[p], true) {
                    singles.push(k);
                }
            }
            _ => heavy.push(k),
        }
        k += 1;
    }
    assert_eq!(singles.len(), 4);
    let keys: Vec<i64> = singles
        .iter()
        .chain(&heavy)
        .chain(&heavy)
        .copied()
        .collect();
    let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
    for ch in keys.chunks(VECTOR_SIZE) {
        let vals: Vec<i64> = ch.iter().map(|k| k * 3).collect();
        coll.push(DataChunk::new(vec![
            Vector::from_i64(ch.to_vec()),
            Vector::from_i64(vals),
        ]))
        .unwrap();
    }
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
    };
    let source = CollectionSource::new(&coll);
    let want =
        reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();

    for threads in [1usize, 2, 4] {
        for (limit, must_spill) in [(64 << 20, false), (3 << 20, true)] {
            let m = mgr(limit);
            let cfg = AggregateConfig {
                threads,
                ..config()
            };
            let source = CollectionSource::new(&coll);
            let (out, stats) =
                hash_aggregate_collect(&m, &source, coll.types(), &plan, &cfg).unwrap();
            let what = format!("threads={threads} limit={limit}");
            assert_eq!(sorted_rows(out.chunks()), want, "{what}");
            assert_eq!(
                stats.buffer.temp_bytes_written > 0,
                must_spill,
                "{what}: {:?}",
                stats.buffer
            );
            // Phase 2 saw the shape the keys were built for: the four empty
            // partitions were skipped, the four singletons emitted one
            // group each.
            let merged: Vec<usize> = stats
                .profile
                .partition_merges
                .iter()
                .map(|m| m.partition)
                .collect();
            assert_eq!(merged, (4..16).collect::<Vec<_>>(), "{what}");
            let mut groups = [0usize; 16];
            for chunk in out.chunks() {
                for &k in chunk.column(0).i64s() {
                    groups[partition(k)] += 1;
                }
            }
            assert_eq!(groups[..8], [0, 0, 0, 0, 1, 1, 1, 1], "{what}");
        }
    }
}
