//! Property-based differential testing: for arbitrary schemas, data
//! distributions, memory limits, thread counts, and aggregate mixes, the
//! robust operator, the ungrouped aggregate, and the external sort baseline
//! must all produce exactly the multiset of groups and aggregate values the
//! naive reference model produces.

use parking_lot::Mutex;
use proptest::prelude::*;
use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::baselines::sort_aggregate;
use rexa_core::simple::{reference_aggregate, sorted_rows};
use rexa_core::{
    hash_aggregate_collect, ungrouped_aggregate, AggKind, AggregateConfig, AggregateSpec,
    HashAggregatePlan, SortedInput,
};
use rexa_exec::pipeline::{CancelToken, CollectionSource};
use rexa_exec::{ChunkCollection, DataChunk, ExecContext, LogicalType, Value, VECTOR_SIZE};
use rexa_storage::scratch_dir;
use rexa_storage::{FaultInjector, FaultKind, FaultRule, IoBackend, IoOp, Schedule};
use std::sync::Arc;

/// A value generator for one column type with a bounded key domain (small
/// domains create heavy duplication; large ones all-unique groups).
fn value_strategy(ty: LogicalType, domain: i64) -> BoxedStrategy<Value> {
    let null = Just(Value::Null).boxed();
    let non_null = match ty {
        LogicalType::Int32 => (0..domain).prop_map(|v| Value::Int32(v as i32)).boxed(),
        LogicalType::Int64 => (-domain..domain).prop_map(Value::Int64).boxed(),
        LogicalType::Float64 => (0..domain)
            .prop_map(|v| Value::Float64(v as f64 * 0.5))
            .boxed(),
        LogicalType::Date => (0..domain).prop_map(|v| Value::Date(v as i32)).boxed(),
        LogicalType::Varchar => (0..domain)
            .prop_map(|v| {
                if v % 3 == 0 {
                    Value::Varchar(format!("k{v}"))
                } else {
                    Value::Varchar(format!("a much longer group key string number {v:010}"))
                }
            })
            .boxed(),
    };
    prop_oneof![9 => non_null, 1 => null].boxed()
}

#[derive(Debug, Clone)]
struct Case {
    types: Vec<LogicalType>,
    rows: Vec<Vec<Value>>,
    group_cols: Vec<usize>,
    threads: usize,
    radix_bits: u32,
    limit_kib: usize,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let type_pool = prop::sample::select(vec![
        LogicalType::Int32,
        LogicalType::Int64,
        LogicalType::Float64,
        LogicalType::Date,
        LogicalType::Varchar,
    ]);
    (
        prop::collection::vec(type_pool, 1..4),
        1usize..3,     // number of group columns
        1i64..200,     // key domain size
        0usize..3000,  // row count
        1usize..5,     // threads
        0u32..5,       // radix bits
        64usize..4096, // memory limit KiB
    )
        .prop_flat_map(
            |(types, n_group, domain, n_rows, threads, radix_bits, limit_kib)| {
                let group_cols: Vec<usize> = (0..n_group.min(types.len())).collect();
                let row_strategy: Vec<BoxedStrategy<Value>> =
                    types.iter().map(|&t| value_strategy(t, domain)).collect();
                (
                    prop::collection::vec(row_strategy, n_rows),
                    Just(types),
                    Just(group_cols),
                    Just(threads),
                    Just(radix_bits),
                    Just(limit_kib),
                )
                    .prop_map(
                        |(rows, types, group_cols, threads, radix_bits, limit_kib)| Case {
                            types,
                            rows,
                            group_cols,
                            threads,
                            radix_bits,
                            limit_kib,
                        },
                    )
            },
        )
}

fn build_collection(case: &Case) -> ChunkCollection {
    let mut coll = ChunkCollection::new(case.types.clone());
    for rows in case.rows.chunks(VECTOR_SIZE) {
        let mut chunk = DataChunk::empty(&case.types);
        for row in rows {
            chunk.push_row(row).unwrap();
        }
        coll.push(chunk).unwrap();
    }
    coll
}

/// Aggregates applicable to the first non-group column (or COUNT(*) only).
///
/// `ANY_VALUE` is only taken over a *group* column: over arbitrary payload
/// columns its result is legitimately nondeterministic (any value of the
/// group is correct), so differential comparison would be invalid.
fn aggregates_for(case: &Case) -> Vec<AggregateSpec> {
    let mut aggs = vec![
        AggregateSpec::count_star(),
        AggregateSpec::any_value(case.group_cols[0]),
    ];
    if let Some(&arg) = (0..case.types.len())
        .filter(|c| !case.group_cols.contains(c))
        .collect::<Vec<_>>()
        .first()
    {
        aggs.push(AggregateSpec::count(arg));
        match case.types[arg] {
            LogicalType::Int32 | LogicalType::Int64 | LogicalType::Float64 => {
                aggs.push(AggregateSpec::sum(arg));
                aggs.push(AggregateSpec::min(arg));
                aggs.push(AggregateSpec::max(arg));
                aggs.push(AggregateSpec::avg(arg));
            }
            LogicalType::Date => {
                aggs.push(AggregateSpec::min(arg));
                aggs.push(AggregateSpec::max(arg));
            }
            LogicalType::Varchar => {}
        }
    }
    aggs
}

/// Floats make exact comparison across summation orders impossible; compare
/// with tolerance.
fn rows_approx_eq(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(ra, rb)| {
        ra.len() == rb.len()
            && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                (Value::Float64(x), Value::Float64(y)) => {
                    (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
                }
                _ => va == vb,
            })
    })
}

/// Exact equality including float bits (`total_cmp` is `Equal` iff the bit
/// patterns are), unlike the tolerance-based [`rows_approx_eq`].
fn rows_bits_eq(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra
                    .iter()
                    .zip(rb)
                    .all(|(va, vb)| va.total_cmp(vb) == std::cmp::Ordering::Equal)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn robust_operator_matches_reference_model(case in case_strategy()) {
        let coll = build_collection(&case);
        let aggregates = aggregates_for(&case);
        let plan = HashAggregatePlan {
            group_cols: case.group_cols.clone(),
            aggregates: aggregates.clone(),
        };
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(case.limit_kib << 10)
                .page_size(4 << 10)
                .temp_dir(scratch_dir("prop").unwrap()),
        )
        .unwrap();
        let config = AggregateConfig {
            threads: case.threads,
            radix_bits: Some(case.radix_bits),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: 777, // deliberately odd
            reset_fill_percent: 66,
        ..Default::default()
        };
        let source = CollectionSource::new(&coll);
        let result = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config);
        let source = CollectionSource::new(&coll);
        let want = reference_aggregate(&source, coll.types(), &plan.group_cols, &aggregates).unwrap();
        match result {
            Ok((out, stats)) => {
                let got = sorted_rows(out.chunks());
                prop_assert!(rows_approx_eq(&got, &want), "groups differ: got {} want {}", got.len(), want.len());
                prop_assert_eq!(stats.groups, want.len());
                // No residue.
                prop_assert_eq!(mgr.stats().temporary_resident, 0);
                prop_assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
            }
            Err(e) if e.is_oom() => {
                // Legal when the limit is below the operator's pinned
                // working set (threads x partitions x 2 pages). Nothing must
                // leak even on failure.
                prop_assert_eq!(mgr.stats().temporary_resident, 0);
                prop_assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// The monomorphized kernels + selection-vector probe at `threads: 1`
    /// against the reference model, across every aggregate kind (including
    /// the Welford variance kernels), NULL-heavy inputs, and chunks full of
    /// within-chunk duplicates: integer results exact, floats within
    /// tolerance.
    #[test]
    fn vectorized_kernels_match_reference_model(case in case_strategy()) {
        let coll = build_collection(&case);
        let mut aggregates = aggregates_for(&case);
        if let Some(arg) = (0..case.types.len()).find(|c| {
            !case.group_cols.contains(c)
                && matches!(
                    case.types[*c],
                    LogicalType::Int32 | LogicalType::Int64 | LogicalType::Float64
                )
        }) {
            aggregates.push(AggregateSpec::var_samp(arg));
            aggregates.push(AggregateSpec::stddev_samp(arg));
        }
        let plan = HashAggregatePlan {
            group_cols: case.group_cols.clone(),
            aggregates,
        };
        // Generous limit: OOM aborts would make the comparison vacuous.
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(64 << 20)
                .page_size(4 << 10)
                .temp_dir(scratch_dir("propk").unwrap()),
        )
        .unwrap();
        let config = AggregateConfig {
            threads: 1,
            radix_bits: Some(case.radix_bits),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: 777,
            reset_fill_percent: 66,
            ..Default::default()
        };
        let source = CollectionSource::new(&coll);
        let (out, stats) =
            hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
        let got = sorted_rows(out.chunks());
        let source = CollectionSource::new(&coll);
        let want =
            reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
        prop_assert_eq!(stats.groups, want.len());
        prop_assert!(
            rows_approx_eq(&got, &want),
            "result diverges from the reference model: {} vs {} rows",
            got.len(),
            want.len()
        );
    }

    #[test]
    fn sort_baseline_matches_reference_model(case in case_strategy()) {
        let coll = build_collection(&case);
        let aggregates = aggregates_for(&case);
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(usize::MAX)
                .page_size(4 << 10)
                .temp_dir(scratch_dir("prop2").unwrap()),
        )
        .unwrap();
        // Force external runs for larger inputs by lowering the limit after
        // construction (sortagg snapshots the limit for its run budget).
        mgr.set_memory_limit((case.limit_kib << 10).max(1 << 20) * 4);
        let out = Mutex::new(Vec::<DataChunk>::new());
        let source = CollectionSource::new(&coll);
        let stats = sort_aggregate(
            &mgr,
            &source,
            coll.types(),
            &case.group_cols,
            &aggregates,
            &CancelToken::new(),
            &|c| { out.lock().push(c); Ok(()) },
        ).unwrap();
        let source = CollectionSource::new(&coll);
        let want = reference_aggregate(&source, coll.types(), &case.group_cols, &aggregates).unwrap();
        let got = sorted_rows(&out.lock());
        prop_assert!(rows_approx_eq(&got, &want), "groups differ: got {} want {}", got.len(), want.len());
        prop_assert_eq!(stats.groups, want.len());
    }
}

/// Order the case's rows by their group-key columns (`total_cmp`, NULLs
/// grouped), turning an arbitrary case into a sorted-input case for the
/// in-stream differential tests.
fn sort_rows_by_group(case: &mut Case) {
    let cols = case.group_cols.clone();
    case.rows.sort_by(|a, b| {
        for &c in &cols {
            let o = a[c].total_cmp(&b[c]);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The forced in-stream fast path (`SortedInput::Sorted`) on sorted
    /// input must be *bit-identical* to the hash phase 1
    /// (`SortedInput::Unsorted`) at `threads: 1`: with one worker and no
    /// epoch seals each group is one contiguous run, so the accumulation
    /// sequence — including float summation order — is exactly the hash
    /// path's.
    #[test]
    fn forced_instream_bit_identical_to_hash_phase1(case in case_strategy()) {
        let mut case = case;
        sort_rows_by_group(&mut case);
        let coll = build_collection(&case);
        let aggregates = aggregates_for(&case);
        let plan = HashAggregatePlan {
            group_cols: case.group_cols.clone(),
            aggregates,
        };
        // Generous limit: the comparison must not be cut short by OOM, and
        // spilling behaviour has its own test below.
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(64 << 20)
                .page_size(4 << 10)
                .temp_dir(scratch_dir("instream-bits").unwrap()),
        )
        .unwrap();
        let run = |sorted: SortedInput| {
            let config = AggregateConfig {
                threads: 1,
                radix_bits: Some(case.radix_bits),
                ht_capacity: 4 * VECTOR_SIZE,
                output_chunk_size: 777,
                reset_fill_percent: 66,
                sorted_input: sorted,
            };
            let source = CollectionSource::new(&coll);
            let (out, stats) =
                hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
            (sorted_rows(out.chunks()), stats.groups, stats.profile.strategy)
        };
        let (hash, hash_groups, hash_strategy) = run(SortedInput::Unsorted);
        prop_assert_eq!(hash_strategy, "thread_local");
        let (got, groups, strategy) = run(SortedInput::Sorted);
        prop_assert_eq!(groups, hash_groups);
        prop_assert!(
            rows_bits_eq(&got, &hash),
            "in-stream diverges from the hash phase 1: {} vs {} rows",
            got.len(),
            hash.len()
        );
        // The run actually took the in-stream path, not the hash path.
        prop_assert_eq!(strategy, "instream");
    }

    /// Sorted input through the forced in-stream phase 1 and the hash
    /// phase 2, across thread counts and under the case's (possibly
    /// spilling) memory limit: same groups as the reference model,
    /// float-tolerant (multi-thread combine order is scheduling-dependent),
    /// and never any residue — including when the layout has var-length
    /// columns.
    #[test]
    fn sorted_input_instream_matches_reference_model(case in case_strategy()) {
        let mut case = case;
        sort_rows_by_group(&mut case);
        let coll = build_collection(&case);
        let aggregates = aggregates_for(&case);
        let plan = HashAggregatePlan {
            group_cols: case.group_cols.clone(),
            aggregates: aggregates.clone(),
        };
        let source = CollectionSource::new(&coll);
        let want = reference_aggregate(&source, coll.types(), &plan.group_cols, &aggregates).unwrap();
        for threads in [1usize, 2, 4] {
            let mgr = BufferManager::new(
                BufferManagerConfig::with_limit(case.limit_kib << 10)
                    .page_size(4 << 10)
                    .temp_dir(scratch_dir("sorted-instream").unwrap()),
            )
            .unwrap();
            let config = AggregateConfig {
                threads,
                radix_bits: Some(case.radix_bits),
                ht_capacity: 4 * VECTOR_SIZE,
                output_chunk_size: 777,
                reset_fill_percent: 66,
                sorted_input: SortedInput::Sorted,
            };
            let source = CollectionSource::new(&coll);
            let result = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config);
            match result {
                Ok((out, stats)) => {
                    prop_assert_eq!(&stats.profile.strategy, "instream");
                    let got = sorted_rows(out.chunks());
                    prop_assert!(
                        rows_approx_eq(&got, &want),
                        "threads={threads}: got {} want {}",
                        got.len(),
                        want.len()
                    );
                    prop_assert_eq!(stats.groups, want.len());
                }
                Err(e) if e.is_oom() => {}
                Err(e) => prop_assert!(false, "threads={threads}: unexpected error: {e}"),
            }
            prop_assert_eq!(mgr.stats().temporary_resident, 0);
            prop_assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
        }
    }
}

/// Chaos: an in-stream run whose very first spill write hits an injected
/// transient fault. The write is retried and succeeds; the query still
/// succeeds with correct results and no residue, and the fault does not
/// poison the manager: a second, fault-free run of the same query on the
/// same manager is just as correct.
#[test]
fn instream_spill_write_fault_is_retried_without_poisoning() {
    let injector = Arc::new(FaultInjector::new(0x50F7).rule(FaultRule::on(
        IoOp::Write,
        Schedule::Nth(0),
        FaultKind::Transient,
    )));
    let mgr = BufferManager::new(
        BufferManagerConfig::with_limit(1536 << 10)
            .page_size(4 << 10)
            .temp_dir(scratch_dir("run-fault").unwrap())
            .io_backend(Arc::clone(&injector) as Arc<dyn IoBackend>)
            .spill_backoff(std::time::Duration::from_micros(200)),
    )
    .unwrap();
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![
            AggregateSpec::count_star(),
            AggregateSpec::sum(1),
            AggregateSpec::min(1),
            AggregateSpec::max(1),
        ],
    };
    let config = AggregateConfig {
        threads: 2,
        radix_bits: Some(5),
        ht_capacity: 4 * VECTOR_SIZE,
        sorted_input: SortedInput::Sorted,
        ..Default::default()
    };
    // Sorted keys, ~4 rows per group, heapless layout: ~100k groups of
    // intermediate state against a 1.5 MiB limit, so spilling is mandatory
    // and the first spilled page hits the fault.
    let types = vec![LogicalType::Int64, LogicalType::Int64];
    let mut coll = ChunkCollection::new(types.clone());
    let rows: Vec<Vec<Value>> = (0..400_000i64)
        .map(|i| vec![Value::Int64(i / 4), Value::Int64(i * 3)])
        .collect();
    for chunk_rows in rows.chunks(VECTOR_SIZE) {
        let mut chunk = DataChunk::empty(&types);
        for row in chunk_rows {
            chunk.push_row(row).unwrap();
        }
        coll.push(chunk).unwrap();
    }
    let source = CollectionSource::new(&coll);
    let want =
        reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();

    let source = CollectionSource::new(&coll);
    let (out, stats) = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config)
        .expect("a retried transient spill-write fault must not fail the query");
    assert!(injector.injected() > 0, "fault never fired");
    assert!(
        mgr.stats().spill_retries > 0,
        "expected the transient fault to cost a spill retry"
    );
    assert_eq!(stats.profile.strategy, "instream");
    assert_eq!(stats.groups, want.len());
    assert_eq!(sorted_rows(out.chunks()), want);
    assert!(
        stats.profile.partitions_external > 0,
        "the limit must push partitions external: {:?}",
        stats.profile
    );
    assert_eq!(mgr.stats().temporary_resident, 0);
    assert_eq!(mgr.stats().temp_bytes_on_disk, 0);

    // Non-poisoning: the one-shot fault is spent.
    let source = CollectionSource::new(&coll);
    let (out2, _) = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
    assert_eq!(sorted_rows(out2.chunks()), want);
    assert_eq!(mgr.stats().temporary_resident, 0);
    assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
}

/// Number of proptest cases for the (more expensive) multi-thread sweep:
/// every case runs at three thread counts, so CI trims it via
/// `PROPTEST_CASES` while local runs get a fuller sweep.
fn sweep_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(sweep_cases()))]

    /// Many-core correctness: every generated workload also runs at
    /// threads ∈ {2, 4, 8} under its (possibly spilling) memory limit and
    /// must reproduce the single-thread oracle: exact equality for integer/string aggregates,
    /// `total_cmp`-sorted order with float tolerance for the rest.
    #[test]
    fn multi_thread_matches_single_thread_oracle(case in case_strategy()) {
        let coll = build_collection(&case);
        let aggregates = aggregates_for(&case);
        let plan = HashAggregatePlan {
            group_cols: case.group_cols.clone(),
            aggregates: aggregates.clone(),
        };
        let base = AggregateConfig {
            threads: 1,
            radix_bits: Some(case.radix_bits),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: 777,
            reset_fill_percent: 66,
            ..Default::default()
        };
        // The oracle runs single-threaded with a generous limit so it
        // always succeeds; the multi-thread runs face the case's limit.
        let oracle_mgr = BufferManager::new(
            BufferManagerConfig::with_limit(64 << 20)
                .page_size(4 << 10)
                .temp_dir(scratch_dir("mt-oracle").unwrap()),
        )
        .unwrap();
        let source = CollectionSource::new(&coll);
        let (out, oracle_stats) =
            hash_aggregate_collect(&oracle_mgr, &source, coll.types(), &plan, &base).unwrap();
        let oracle = sorted_rows(out.chunks());

        for threads in [2usize, 4, 8] {
            let mgr = BufferManager::new(
                BufferManagerConfig::with_limit(case.limit_kib << 10)
                    .page_size(4 << 10)
                    .temp_dir(scratch_dir("mt-sweep").unwrap()),
            )
            .unwrap();
            let config = AggregateConfig {
                threads,
                ..base.clone()
            };
            let source = CollectionSource::new(&coll);
            let result = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config);
            match result {
                Ok((out, stats)) => {
                    let got = sorted_rows(out.chunks());
                    prop_assert!(
                        rows_approx_eq(&got, &oracle),
                        "threads={threads}: got {} want {}",
                        got.len(),
                        oracle.len()
                    );
                    prop_assert_eq!(stats.groups, oracle_stats.groups);
                }
                // A tight limit may legally reject the run (the pinned
                // working set cannot fit) — but never with residue.
                Err(e) if e.is_oom() => {}
                Err(e) => prop_assert!(false, "threads={threads}: unexpected error: {e}"),
            }
            prop_assert_eq!(mgr.stats().temporary_resident, 0);
            prop_assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
        }
    }
}

/// Non-proptest determinism check kept here because it shares the helpers.
#[test]
fn operator_is_deterministic_under_odd_geometry() {
    let case = Case {
        types: vec![LogicalType::Varchar, LogicalType::Int64],
        rows: (0..5000)
            .map(|i| {
                vec![
                    Value::Varchar(format!("group key with some length {:03}", i % 321)),
                    Value::Int64(i),
                ]
            })
            .collect(),
        group_cols: vec![0],
        threads: 3,
        radix_bits: 3,
        limit_kib: 512,
    };
    let coll = build_collection(&case);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::sum(1), AggregateSpec::count_star()],
    };
    let run = || {
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(case.limit_kib << 10)
                .page_size(4 << 10)
                .temp_dir(scratch_dir("det").unwrap()),
        )
        .unwrap();
        let config = AggregateConfig {
            threads: case.threads,
            radix_bits: Some(case.radix_bits),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: 1000,
            reset_fill_percent: 66,
            ..Default::default()
        };
        let source = CollectionSource::new(&coll);
        let (out, _) = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
        sorted_rows(out.chunks())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert_eq!(a.len(), 321);
    let _ = Arc::new(()); // silence unused-import lints in some cfgs
}

/// Same input + same thread count, run twice, must produce identical
/// finalized results (integer aggregates: exact, so scheduling-dependent
/// merge orders cannot hide behind float tolerance) and identical group
/// counts — at every thread count, with the order in which workers combine
/// their fragments into each partition left to the scheduler.
#[test]
fn same_seed_same_threads_is_deterministic_at_every_thread_count() {
    let case = Case {
        types: vec![LogicalType::Int64, LogicalType::Int64, LogicalType::Varchar],
        rows: (0..6000)
            .map(|i| {
                vec![
                    Value::Int64(i * 37 % 400),
                    Value::Int64(i),
                    Value::Varchar(format!("payload string {}", i % 113)),
                ]
            })
            .collect(),
        group_cols: vec![0],
        threads: 0, // per-iteration below
        radix_bits: 4,
        limit_kib: 768,
    };
    let coll = build_collection(&case);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![
            AggregateSpec::sum(1),
            AggregateSpec::count_star(),
            AggregateSpec::min(1),
            AggregateSpec::max(1),
        ],
    };
    for threads in [1usize, 2, 4, 8] {
        let run = || {
            let mgr = BufferManager::new(
                BufferManagerConfig::with_limit(case.limit_kib << 10)
                    .page_size(4 << 10)
                    .temp_dir(scratch_dir("det-threads").unwrap()),
            )
            .unwrap();
            let config = AggregateConfig {
                threads,
                radix_bits: Some(case.radix_bits),
                ht_capacity: 4 * VECTOR_SIZE,
                output_chunk_size: 901,
                reset_fill_percent: 66,
                ..Default::default()
            };
            let source = CollectionSource::new(&coll);
            let (out, stats) =
                hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
            (sorted_rows(out.chunks()), stats.groups)
        };
        let (rows_a, groups_a) = run();
        let (rows_b, groups_b) = run();
        assert_eq!(
            rows_a, rows_b,
            "nondeterministic results at threads={threads}"
        );
        assert_eq!(groups_a, groups_b);
        assert_eq!(groups_a, 400);
    }
}

/// A Float64 value for the float bit-identity tests: NULLs, NaN, signed
/// zeros, and magnitudes far enough apart that summation order shows.
fn float_value() -> BoxedStrategy<Value> {
    prop_oneof![
        2 => Just(Value::Null),
        1 => Just(Value::Float64(f64::NAN)),
        1 => Just(Value::Float64(-0.0)),
        1 => Just(Value::Float64(0.0)),
        6 => (-1e6f64..1e6).prop_map(Value::Float64),
        1 => (-1e18f64..1e18).prop_map(Value::Float64),
    ]
    .boxed()
}

/// One Int64 key column plus one Float64 value column, in chunks.
fn key_float_collection(rows: &[(i64, Value)]) -> ChunkCollection {
    let types = vec![LogicalType::Int64, LogicalType::Float64];
    let mut coll = ChunkCollection::new(types.clone());
    for chunk_rows in rows.chunks(VECTOR_SIZE) {
        let mut chunk = DataChunk::empty(&types);
        for (k, v) in chunk_rows {
            chunk.push_row(&[Value::Int64(*k), v.clone()]).unwrap();
        }
        coll.push(chunk).unwrap();
    }
    coll
}

/// A column of the ungrouped proptest: mostly NULL, sometimes entirely.
fn null_heavy_column() -> impl Strategy<Value = (LogicalType, Vec<Value>)> {
    (
        prop::sample::select(vec![
            LogicalType::Int32,
            LogicalType::Int64,
            LogicalType::Float64,
            LogicalType::Date,
        ]),
        // Some inputs are empty or tiny, and some entirely NULL.
        prop_oneof![1 => 0usize..8, 3 => 0usize..3000],
        prop_oneof![1 => Just(0.0f64), 3 => 0.0f64..0.5],
    )
        .prop_flat_map(|(ty, rows, valid)| {
            let value = (0.0f64..1.0, -1000i64..1000).prop_map(move |(u, v)| match ty {
                _ if u >= valid => Value::Null,
                LogicalType::Int32 => Value::Int32(v as i32),
                LogicalType::Int64 => Value::Int64(v),
                LogicalType::Float64 => Value::Float64(v as f64 * 0.5),
                LogicalType::Date => Value::Date(v as i32),
                LogicalType::Varchar => unreachable!(),
            });
            (Just(ty), prop::collection::vec(value, rows))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ungrouped (no GROUP BY) aggregate against the reference model's
    /// one-row global aggregate, at threads {1, 2, 4}, for every aggregate
    /// kind over NULL-heavy (possibly all-NULL, possibly empty) columns.
    /// Integer results exact, floats within tolerance (threads combine in
    /// scheduling order); `ANY_VALUE` must be some value of its column.
    #[test]
    fn ungrouped_matches_reference_model(column in null_heavy_column()) {
        let (ty, values) = column;
        let mut coll = ChunkCollection::new(vec![ty]);
        for chunk_values in values.chunks(VECTOR_SIZE) {
            let mut chunk = DataChunk::empty(&[ty]);
            for v in chunk_values {
                chunk.push_row(std::slice::from_ref(v)).unwrap();
            }
            coll.push(chunk).unwrap();
        }
        let mut aggregates = vec![
            AggregateSpec::count_star(),
            AggregateSpec::count(0),
            AggregateSpec::min(0),
            AggregateSpec::max(0),
            AggregateSpec::any_value(0),
        ];
        if ty != LogicalType::Date {
            aggregates.extend([
                AggregateSpec::sum(0),
                AggregateSpec::avg(0),
                AggregateSpec::var_samp(0),
                AggregateSpec::stddev_samp(0),
            ]);
        }
        let source = CollectionSource::new(&coll);
        let want = reference_aggregate(&source, coll.types(), &[], &aggregates).unwrap();
        prop_assert_eq!(want.len(), 1);
        let is_any = |k: usize| aggregates[k].kind == AggKind::AnyValue;
        let without_any = |row: &[Value]| -> Vec<Value> {
            row.iter()
                .enumerate()
                .filter(|&(k, _)| !is_any(k))
                .map(|(_, v)| v.clone())
                .collect()
        };
        for threads in [1usize, 2, 4] {
            let source = CollectionSource::new(&coll);
            let got = ungrouped_aggregate(
                &source,
                coll.types(),
                &aggregates,
                threads,
                &ExecContext::new(),
            )
            .unwrap();
            prop_assert!(
                rows_approx_eq(&[without_any(&got)], &[without_any(&want[0])]),
                "threads={}: got {:?} want {:?}",
                threads,
                got,
                want[0]
            );
            for (k, v) in got.iter().enumerate().filter(|&(k, _)| is_any(k)) {
                let in_column = if values.is_empty() {
                    v.is_null()
                } else {
                    values.iter().any(|x| x.total_cmp(v).is_eq())
                };
                prop_assert!(in_column, "threads={}: ANY_VALUE #{} = {:?}", threads, k, v);
            }
        }
    }

    /// At `threads: 1` with a phase-1 table that never resets, every group
    /// is one materialized row folding its inputs in input order — the
    /// reference model's order — and phase 2 has no duplicate to combine.
    /// Float SUM, AVG, MIN and MAX must then equal the reference bit for
    /// bit, NaN and signed zeros included.
    #[test]
    fn float_aggregates_bit_identical_to_reference_without_reset(
        rows in prop::collection::vec((0i64..300, float_value()), 0..6000),
        radix_bits in 0u32..5,
    ) {
        let coll = key_float_collection(&rows);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![
                AggregateSpec::sum(1),
                AggregateSpec::avg(1),
                AggregateSpec::min(1),
                AggregateSpec::max(1),
            ],
        };
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(64 << 20)
                .page_size(4 << 10)
                .temp_dir(scratch_dir("float-bits").unwrap()),
        )
        .unwrap();
        let config = AggregateConfig {
            threads: 1,
            radix_bits: Some(radix_bits),
            // At most 300 groups: far below the reset threshold.
            ht_capacity: 4 * VECTOR_SIZE,
            sorted_input: SortedInput::Unsorted,
            ..Default::default()
        };
        let source = CollectionSource::new(&coll);
        let (out, stats) =
            hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
        prop_assert_eq!(stats.resets, 0);
        let got = sorted_rows(out.chunks());
        let source = CollectionSource::new(&coll);
        let want =
            reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
        prop_assert!(
            rows_bits_eq(&got, &want),
            "float aggregates diverge from the reference: {} vs {} rows",
            got.len(),
            want.len()
        );
    }
}

/// Float aggregates under a geometry that resets the phase-1 table many
/// times, so phase 2 combines partial states: run twice at `threads: 1`,
/// the results must be bit-identical (the combine order is a function of
/// the input alone).
#[test]
fn float_aggregates_run_twice_bit_identical_under_resets() {
    let rows: Vec<(i64, Value)> = (0..60_000i64)
        .map(|i| {
            let v = match i % 11 {
                0 => Value::Null,
                1 => Value::Float64(-0.0),
                k => Value::Float64((i as f64).sin() * 10f64.powi(k as i32)),
            };
            (i * 7919 % 20_000, v)
        })
        .collect();
    let coll = key_float_collection(&rows);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![
            AggregateSpec::sum(1),
            AggregateSpec::avg(1),
            AggregateSpec::min(1),
            AggregateSpec::max(1),
            AggregateSpec::var_samp(1),
            AggregateSpec::stddev_samp(1),
        ],
    };
    let run = || {
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(64 << 20)
                .page_size(4 << 10)
                .temp_dir(scratch_dir("float-det").unwrap()),
        )
        .unwrap();
        let config = AggregateConfig {
            threads: 1,
            radix_bits: Some(3),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: 777,
            ..Default::default()
        };
        let source = CollectionSource::new(&coll);
        let (out, stats) =
            hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
        (sorted_rows(out.chunks()), stats)
    };
    let (a, stats) = run();
    let (b, _) = run();
    assert!(stats.resets > 0, "the geometry must reset: {stats:?}");
    assert_eq!(stats.groups, 20_000);
    assert!(rows_bits_eq(&a, &b), "float results differ between runs");
    let source = CollectionSource::new(&coll);
    let want =
        reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
    assert!(
        rows_approx_eq(&a, &want),
        "results diverge from the reference"
    );
}
