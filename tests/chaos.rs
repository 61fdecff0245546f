//! Chaos suite: differential testing under deterministic fault injection.
//!
//! Every case draws an input relation, an operator geometry, a memory
//! limit, *and a fault plan* (which I/O operations fail, when, and how).
//! The robust operator then runs against a buffer manager whose spill I/O
//! goes through a seeded [`FaultInjector`]. Exactly two outcomes are legal:
//!
//! * the query succeeds and its groups match the naive reference model, or
//! * the query fails with a typed storage error (`SpillFailed` / `Io`) or
//!   OOM.
//!
//! In *both* cases the shared buffer manager must return to its pre-query
//! baseline: no resident temporary pages, no reservations, no spill bytes
//! on disk, no leaked temp-file slots. Wrong answers, panics, and hangs are
//! never legal.
//!
//! Failing cases persist their 64-bit seed to `tests/chaos.proptest-regressions`
//! (replayed before fresh cases on every run); `PROPTEST_CASES` bounds the
//! number of fresh cases per property.

use proptest::prelude::*;
use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::simple::{reference_aggregate, sorted_rows};
use rexa_core::{hash_aggregate_collect, AggregateConfig, AggregateSpec, HashAggregatePlan};
use rexa_exec::pipeline::CollectionSource;
use rexa_exec::{ChunkCollection, DataChunk, Error, LogicalType, Value, VECTOR_SIZE};
use rexa_obs::{EventTrace, MetricsRegistry, TraceEventKind};
use rexa_storage::{scratch_dir, FaultInjector, FaultKind, FaultRule, IoBackend, IoOp, Schedule};
use std::sync::Arc;
use std::time::Duration;

/// One injected fault, in plain generatable data (built into a
/// [`FaultRule`] by [`build_injector`]).
#[derive(Debug, Clone)]
struct RuleSpec {
    /// `None` = any operation.
    op: Option<IoOp>,
    schedule: Schedule,
    fault: FaultKind,
}

#[derive(Debug, Clone)]
struct ChaosCase {
    key_type: LogicalType,
    /// (key index, payload) pairs; the key index is mapped through the key
    /// type's formatter.
    rows: Vec<(i64, i64)>,
    threads: usize,
    radix_bits: u32,
    limit_kib: usize,
    /// Background I/O writer threads (0 = the fully synchronous path).
    io_writers: usize,
    injector_seed: u64,
    rules: Vec<RuleSpec>,
}

fn rule_strategy() -> impl Strategy<Value = RuleSpec> {
    let op = prop_oneof![
        3 => Just(Some(IoOp::Write)),
        1 => Just(Some(IoOp::Read)),
        1 => Just(Some(IoOp::Open)),
        1 => Just(None),
    ];
    let schedule = prop_oneof![
        (0u64..40).prop_map(Schedule::Nth),
        (0u64..40).prop_map(Schedule::After),
        (1u64..6).prop_map(Schedule::EveryNth),
        (1u32..90).prop_map(|p| Schedule::Probability(p as f64 / 100.0)),
        Just(Schedule::Always),
    ];
    let fault = prop_oneof![
        2 => Just(FaultKind::Enospc),
        2 => Just(FaultKind::Generic),
        2 => Just(FaultKind::Transient),
        2 => Just(FaultKind::TornWrite),
        1 => Just(FaultKind::Latency(Duration::from_micros(500))),
    ];
    (op, schedule, fault).prop_map(|(op, schedule, fault)| RuleSpec {
        op,
        schedule,
        fault,
    })
}

fn case_strategy() -> impl Strategy<Value = ChaosCase> {
    let key_type = prop::sample::select(vec![
        LogicalType::Int64,
        LogicalType::Varchar,
        LogicalType::Int32,
    ]);
    (
        key_type,
        1i64..400,    // key domain
        0usize..3000, // rows
        1usize..6,    // threads
        0u32..4,      // radix bits
        // memory limit KiB (tight enough to spill often) and background I/O
        // writers (0 = synchronous)
        (48usize..768, 0usize..3),
        any::<u64>(), // injector seed
        prop::collection::vec(rule_strategy(), 1..4),
    )
        .prop_flat_map(
            |(key_type, domain, n_rows, threads, radix_bits, (limit_kib, writers), seed, rules)| {
                (
                    prop::collection::vec((0..domain, -1000i64..1000), n_rows),
                    Just((
                        key_type, threads, radix_bits, limit_kib, writers, seed, rules,
                    )),
                )
                    .prop_map(
                        |(
                            rows,
                            (key_type, threads, radix_bits, limit_kib, writers, seed, rules),
                        )| {
                            ChaosCase {
                                key_type,
                                rows,
                                threads,
                                radix_bits,
                                limit_kib,
                                io_writers: writers,
                                injector_seed: seed,
                                rules,
                            }
                        },
                    )
            },
        )
}

fn collection_from_rows(types: &[LogicalType], rows: &[Vec<Value>]) -> ChunkCollection {
    let mut coll = ChunkCollection::new(types.to_vec());
    for rows in rows.chunks(VECTOR_SIZE) {
        let mut chunk = DataChunk::empty(types);
        for row in rows {
            chunk.push_row(row).unwrap();
        }
        coll.push(chunk).unwrap();
    }
    coll
}

fn key_value(ty: LogicalType, k: i64) -> Value {
    match ty {
        LogicalType::Int64 => Value::Int64(k),
        LogicalType::Int32 => Value::Int32(k as i32),
        LogicalType::Varchar => Value::Varchar(format!("group key number {k:06}")),
        other => unreachable!("key type {other:?} not generated"),
    }
}

fn build_collection(case: &ChaosCase) -> ChunkCollection {
    let types = vec![case.key_type, LogicalType::Int64];
    let mut coll = ChunkCollection::new(types.clone());
    for rows in case.rows.chunks(VECTOR_SIZE) {
        let mut chunk = DataChunk::empty(&types);
        for &(k, v) in rows {
            chunk
                .push_row(&[key_value(case.key_type, k), Value::Int64(v)])
                .unwrap();
        }
        coll.push(chunk).unwrap();
    }
    coll
}

/// Registry + trace shared between the injector and the buffer manager, so
/// one scrape (and one trace dump) covers faults, spills, and evictions.
fn build_injector(
    case: &ChaosCase,
    registry: &Arc<MetricsRegistry>,
    trace: &EventTrace,
) -> Arc<FaultInjector> {
    let mut inj = FaultInjector::new(case.injector_seed)
        .with_metrics(registry)
        .with_trace(trace.clone());
    for spec in &case.rules {
        inj = inj.rule(match spec.op {
            Some(op) => FaultRule::on(op, spec.schedule, spec.fault),
            None => FaultRule::on_any(spec.schedule, spec.fault),
        });
    }
    Arc::new(inj)
}

fn plan() -> HashAggregatePlan {
    HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![
            AggregateSpec::count_star(),
            AggregateSpec::sum(1),
            AggregateSpec::min(1),
            AggregateSpec::max(1),
        ],
    }
}

fn chaos_mgr(
    limit_kib: usize,
    io_writers: usize,
    injector: &Arc<FaultInjector>,
    registry: &Arc<MetricsRegistry>,
    trace: &EventTrace,
) -> Arc<BufferManager> {
    BufferManager::new(
        BufferManagerConfig::with_limit(limit_kib << 10)
            .page_size(4 << 10)
            .temp_dir(scratch_dir("chaos").unwrap())
            .io_backend(Arc::clone(injector) as Arc<dyn IoBackend>)
            .metrics(Arc::clone(registry))
            .trace(trace.clone())
            .io_writers(io_writers)
            // Keep retries fast: transient faults may fire on every attempt.
            .spill_backoff(Duration::from_micros(200)),
    )
    .unwrap()
}

/// `true` if `e` is legal under fault injection. Everything else — wrong
/// answers, panics, internal errors — fails the property.
fn legal_failure(e: &Error) -> bool {
    e.is_io() || e.is_oom()
}

/// Compare with float tolerance (AVG/SUM summation order varies).
fn rows_approx_eq(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                (Value::Float64(x), Value::Float64(y)) => {
                    (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
                }
                _ => va == vb,
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core chaos property: under an arbitrary seeded fault plan the
    /// robust operator either matches the oracle or fails typed, and the
    /// buffer manager always returns to baseline.
    #[test]
    fn faulted_runs_match_oracle_or_fail_typed(case in case_strategy()) {
        let coll = build_collection(&case);
        let registry = MetricsRegistry::new();
        let trace = EventTrace::with_default_capacity();
        let injector = build_injector(&case, &registry, &trace);
        let mgr = chaos_mgr(case.limit_kib, case.io_writers, &injector, &registry, &trace);
        let baseline = mgr.stats();
        let config = AggregateConfig {
            threads: case.threads,
            radix_bits: Some(case.radix_bits),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: VECTOR_SIZE,
            reset_fill_percent: 66,
        ..Default::default()
        };
        let plan = plan();
        let source = CollectionSource::new(&coll);
        let result = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config);

        // Oracle computed fault-free, outside the injected manager.
        let source = CollectionSource::new(&coll);
        let want = reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates)
            .unwrap();

        match result {
            Ok((out, stats)) => {
                let got = sorted_rows(out.chunks());
                prop_assert!(
                    rows_approx_eq(&got, &want),
                    "faulted run returned WRONG ANSWER: got {} groups, want {} \
                     (injected={} delayed={})\nevent trace:\n{}",
                    got.len(), want.len(), injector.injected(), injector.delayed(),
                    trace.render()
                );
                prop_assert_eq!(stats.groups, want.len());
            }
            Err(e) => prop_assert!(
                legal_failure(&e),
                "illegal error under fault injection: {e} (injected={})\nevent trace:\n{}",
                injector.injected(), trace.render()
            ),
        }

        // Every fault the injector fired is visible on the shared registry,
        // and faults that fired left a FaultInjected trace event (the trace
        // is a bounded ring, so only demand events when nothing rotated out).
        let injected = injector.injected();
        prop_assert_eq!(
            registry.snapshot().get_counter("io_faults_injected"),
            injected,
            "io_faults_injected metric out of step with the injector"
        );
        if injected > 0 && trace.dropped() == 0 {
            prop_assert!(
                trace.count_matching(|k| matches!(k, TraceEventKind::FaultInjected { .. })) > 0,
                "faults fired but none were traced:\n{}",
                trace.render()
            );
        }

        // Success or failure, the manager is back at its baseline: the
        // query leaked nothing and poisoned nothing.
        let after = mgr.stats();
        prop_assert_eq!(
            after.temporary_resident, 0,
            "leaked temporary pages\nevent trace:\n{}", trace.render()
        );
        prop_assert_eq!(
            after.non_paged, 0,
            "leaked reservation\nevent trace:\n{}", trace.render()
        );
        prop_assert_eq!(
            after.temp_bytes_on_disk, 0,
            "leaked spill bytes\nevent trace:\n{}", trace.render()
        );
        prop_assert_eq!(
            mgr.temp_slots_in_use(), 0,
            "leaked temp-file slot\nevent trace:\n{}", trace.render()
        );
        prop_assert_eq!(
            after.memory_used, baseline.memory_used,
            "memory not back at baseline\nevent trace:\n{}", trace.render()
        );

        // And the manager is still usable: a small fault-free follow-up
        // query over the same manager succeeds. (Lift the case's limit
        // first — a drawn limit below the follow-up's own reservation floor
        // would OOM legitimately, which is not what this probes.)
        injector.set_enabled(false);
        mgr.set_memory_limit(8 << 20);
        let followup = collection_from_rows(
            &[LogicalType::Int64, LogicalType::Int64],
            &(0..100).map(|i| vec![Value::Int64(i % 7), Value::Int64(i)]).collect::<Vec<_>>(),
        );
        let source = CollectionSource::new(&followup);
        let (out, _) = hash_aggregate_collect(
            &mgr, &source, followup.types(), &plan, &config,
        ).expect("manager poisoned: fault-free follow-up failed");
        prop_assert_eq!(sorted_rows(out.chunks()).len(), 7);
    }
}

/// The acceptance scenario from the issue: with **100% ENOSPC injection on
/// spill writes**, every spilling query fails with `Error::SpillFailed` —
/// never a panic, hang, or wrong answer — and leaks nothing; once the
/// "disk" recovers the same manager serves the same query correctly.
#[test]
fn total_enospc_on_spill_writes_fails_spilling_queries_typed() {
    let registry = MetricsRegistry::new();
    let trace = EventTrace::with_default_capacity();
    let injector = Arc::new(
        FaultInjector::new(0xC0FFEE)
            .with_metrics(&registry)
            .with_trace(trace.clone())
            .rule(FaultRule::on(
                IoOp::Write,
                Schedule::Always,
                FaultKind::Enospc,
            )),
    );
    // 1.5 MiB: above the operator's pinned floor (threads x partitions x 2
    // pages + hash-table reservations) but far below the ~4 MiB of
    // intermediates, so spilling is mandatory.
    let mgr = chaos_mgr(1536, 0, &injector, &registry, &trace);
    let baseline = mgr.stats();
    let plan = plan();
    let config = AggregateConfig {
        threads: 2,
        radix_bits: Some(5), // over-partitioning keeps phase 2 in memory
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    };
    // All-distinct keys: the working set is several MiB, so the query MUST
    // spill, and the very first spill write hits ENOSPC.
    let rows: Vec<Vec<Value>> = (0..100_000)
        .map(|i| vec![Value::Int64(i), Value::Int64(i * 3)])
        .collect();
    let coll = collection_from_rows(&[LogicalType::Int64, LogicalType::Int64], &rows);

    for round in 0..3 {
        let source = CollectionSource::new(&coll);
        let err = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config)
            .expect_err("a spilling query cannot succeed with every spill write failing");
        match &err {
            Error::SpillFailed {
                source, retries, ..
            } => {
                assert_eq!(source.raw_os_error(), Some(28), "round {round}: {err}");
                assert_eq!(*retries, 0, "ENOSPC must not be retried");
            }
            other => panic!("round {round}: expected SpillFailed, got {other}"),
        }
        let s = mgr.stats();
        assert_eq!(s.temporary_resident, 0, "round {round}: leaked pages {s:?}");
        assert_eq!(s.non_paged, 0, "round {round}: leaked reservation {s:?}");
        assert_eq!(s.temp_bytes_on_disk, 0, "round {round}: leaked spill {s:?}");
        assert_eq!(mgr.temp_slots_in_use(), 0, "round {round}: leaked slot");
        assert_eq!(s.memory_used, baseline.memory_used, "round {round}");
    }
    assert!(mgr.stats().spill_failures >= 3, "{:?}", mgr.stats());

    // Every injected ENOSPC is counted on the shared registry, and the
    // failure left FaultInjected + Degradation events in the trace.
    let snap = registry.snapshot();
    assert_eq!(snap.get_counter("io_faults_injected"), injector.injected());
    assert!(snap.get_counter("io_faults_injected") >= 3, "{snap:?}");
    assert!(
        trace.count_matching(|k| matches!(k, TraceEventKind::FaultInjected { .. })) > 0,
        "no FaultInjected events traced:\n{}",
        trace.render()
    );
    assert!(
        trace.count_matching(|k| matches!(k, TraceEventKind::Degradation { .. })) >= 3,
        "abandoned spills must leave Degradation events:\n{}",
        trace.render()
    );

    // Disk "recovers": the same query over the same manager now succeeds
    // and matches the oracle. A little more headroom for phase 2's pinned
    // partitions — still far below the intermediate size, so the recovery
    // run exercises the (now healthy) spill path.
    injector.set_enabled(false);
    mgr.set_memory_limit(5 << 19); // 2.5 MiB
    let before_recovery = mgr.stats();
    let source = CollectionSource::new(&coll);
    let (out, stats) = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
    assert!(
        mgr.stats()
            .delta_since(&before_recovery)
            .evictions_temporary
            > 0,
        "recovery run must actually exercise the spill path"
    );
    assert_eq!(stats.groups, 100_000);
    assert_eq!(out.chunks().iter().map(|c| c.len()).sum::<usize>(), 100_000);
    let s = mgr.stats();
    assert_eq!(s.temporary_resident, 0);
    assert_eq!(s.temp_bytes_on_disk, 0);
}

/// Background spill writers with injected write faults: the failure happens
/// on an I/O worker thread, far from any query code, so it is *deferred* —
/// parked in the scheduler and surfaced as a typed `SpillFailed` on the next
/// foreground allocation of the query that needed the memory. The failure
/// must leave accounting at baseline, leave a Degradation trace event
/// recording the deferral, and must never poison later queries on the same
/// manager.
#[test]
fn background_write_faults_surface_deferred_and_typed() {
    let registry = MetricsRegistry::new();
    let trace = EventTrace::with_default_capacity();
    let injector = Arc::new(
        FaultInjector::new(0xBADD15C)
            .with_metrics(&registry)
            .with_trace(trace.clone())
            .rule(FaultRule::on(
                IoOp::Write,
                Schedule::Always,
                FaultKind::Enospc,
            )),
    );
    let mgr = chaos_mgr(1536, 2, &injector, &registry, &trace);
    let baseline = mgr.stats();
    let plan = plan();
    let config = AggregateConfig {
        threads: 2,
        radix_bits: Some(5),
        ht_capacity: 4 * VECTOR_SIZE,
        ..Default::default()
    };
    let rows: Vec<Vec<Value>> = (0..100_000)
        .map(|i| vec![Value::Int64(i), Value::Int64(i * 3)])
        .collect();
    let coll = collection_from_rows(&[LogicalType::Int64, LogicalType::Int64], &rows);

    for round in 0..3 {
        let source = CollectionSource::new(&coll);
        let err = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config)
            .expect_err("a spilling query cannot succeed with every spill write failing");
        match &err {
            Error::SpillFailed { source, .. } => {
                assert_eq!(source.raw_os_error(), Some(28), "round {round}: {err}");
            }
            other => panic!("round {round}: expected SpillFailed, got {other}"),
        }
        let s = mgr.stats();
        assert_eq!(s.temporary_resident, 0, "round {round}: leaked pages {s:?}");
        assert_eq!(s.non_paged, 0, "round {round}: leaked reservation {s:?}");
        assert_eq!(s.temp_bytes_on_disk, 0, "round {round}: leaked spill {s:?}");
        assert_eq!(mgr.temp_slots_in_use(), 0, "round {round}: leaked slot");
        assert_eq!(s.memory_used, baseline.memory_used, "round {round}");
    }

    // The deferral itself is observable: each abandoned background spill
    // left a Degradation event saying the error was parked for the next
    // foreground operation.
    assert!(
        trace.count_matching(|k| matches!(
            k,
            TraceEventKind::Degradation { detail } if detail.contains("deferred")
        )) >= 3,
        "background failures must trace their deferral:\n{}",
        trace.render()
    );
    assert_eq!(
        registry.snapshot().get_counter("io_faults_injected"),
        injector.injected()
    );

    // The same manager — writers, scheduler, and all — serves the same
    // query once the disk recovers, exercising the now-healthy background
    // spill path.
    injector.set_enabled(false);
    mgr.set_memory_limit(5 << 19);
    let before_recovery = mgr.stats();
    let source = CollectionSource::new(&coll);
    let (out, stats) = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
    assert_eq!(stats.groups, 100_000);
    assert_eq!(out.chunks().iter().map(|c| c.len()).sum::<usize>(), 100_000);
    assert!(
        mgr.stats()
            .delta_since(&before_recovery)
            .evictions_temporary
            > 0,
        "recovery run must exercise the background spill path"
    );
    let s = mgr.stats();
    assert_eq!(s.temporary_resident, 0);
    assert_eq!(s.temp_bytes_on_disk, 0);
}

/// Torn writes must never surface as silent corruption: a spill write that
/// persists only half its payload fails the write, the slot is recycled,
/// and the query either errors typed or — if the retry path re-spills
/// elsewhere — still produces exactly the oracle's groups.
#[test]
fn torn_spill_writes_never_corrupt_results() {
    for seed in 0..8u64 {
        let registry = MetricsRegistry::new();
        let trace = EventTrace::with_default_capacity();
        let injector = Arc::new(
            FaultInjector::new(seed)
                .with_metrics(&registry)
                .with_trace(trace.clone())
                .rule(FaultRule::on(
                    IoOp::Write,
                    Schedule::Probability(0.3),
                    FaultKind::TornWrite,
                )),
        );
        let mgr = chaos_mgr(256, seed as usize % 3, &injector, &registry, &trace);
        let plan = plan();
        let config = AggregateConfig {
            threads: 2,
            radix_bits: Some(2),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: VECTOR_SIZE,
            reset_fill_percent: 66,
            ..Default::default()
        };
        let rows: Vec<Vec<Value>> = (0..20_000)
            .map(|i| vec![Value::Int64(i % 5000), Value::Int64(i)])
            .collect();
        let coll = collection_from_rows(&[LogicalType::Int64, LogicalType::Int64], &rows);
        let source = CollectionSource::new(&coll);
        match hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config) {
            Ok((out, stats)) => {
                assert_eq!(stats.groups, 5000, "seed {seed}: wrong group count");
                assert_eq!(
                    out.chunks().iter().map(|c| c.len()).sum::<usize>(),
                    5000,
                    "seed {seed}"
                );
            }
            Err(e) => assert!(legal_failure(&e), "seed {seed}: illegal error {e}"),
        }
        let s = mgr.stats();
        assert_eq!(s.temporary_resident, 0, "seed {seed}: {s:?}");
        assert_eq!(s.temp_bytes_on_disk, 0, "seed {seed}: {s:?}");
        assert_eq!(mgr.temp_slots_in_use(), 0, "seed {seed}");
        assert_eq!(
            registry.snapshot().get_counter("io_faults_injected"),
            injector.injected(),
            "seed {seed}: metric out of step with the injector"
        );
    }
}

/// The disk fills up mid-phase-1 at four threads (every spill write from the
/// `nth` one onward hits ENOSPC): the triggering query fails with `Error::SpillFailed` (never a panic, a hang in the
/// per-partition handoff, or a masking `Cancelled`), the buffer manager's
/// accounting returns to its pre-query baseline, and the very same manager
/// then serves a fault-free run of the same spilling workload — the fault
/// aborted only the query that hit it.
#[test]
fn mid_phase1_enospc_at_four_threads_aborts_only_that_query() {
    for nth in [0u64, 5, 17] {
        let registry = MetricsRegistry::new();
        let trace = EventTrace::with_default_capacity();
        let injector = Arc::new(
            FaultInjector::new(0xFA11 ^ nth)
                .with_metrics(&registry)
                .with_trace(trace.clone())
                .rule(FaultRule::on(
                    IoOp::Write,
                    Schedule::After(nth),
                    FaultKind::Enospc,
                )),
        );
        // 2.25 MiB: above the 4-thread pinned floor, so the first
        // overflow finds an evictable page and the injected ENOSPC
        // surfaces as SpillFailed rather than a pinned-everything OOM.
        let mgr = chaos_mgr(2304, 0, &injector, &registry, &trace);
        let baseline = mgr.stats();
        let plan = plan();
        let config = AggregateConfig {
            threads: 4,
            radix_bits: Some(5),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: VECTOR_SIZE,
            reset_fill_percent: 66,
            ..Default::default()
        };
        // All-distinct keys: several MiB of intermediates under a 1.5 MiB
        // limit, so phase 1 must spill early and often — the Nth write is
        // well inside phase 1's flush traffic.
        let rows: Vec<Vec<Value>> = (0..100_000)
            .map(|i| vec![Value::Int64(i), Value::Int64(i * 3)])
            .collect();
        let coll = collection_from_rows(&[LogicalType::Int64, LogicalType::Int64], &rows);
        let source = CollectionSource::new(&coll);
        let err = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config)
            .expect_err("one spill write fails mid-phase-1; the query must abort");
        match &err {
            Error::SpillFailed {
                source, retries, ..
            } => {
                assert_eq!(source.raw_os_error(), Some(28), "nth={nth}: {err}");
                assert_eq!(*retries, 0, "ENOSPC must not be retried");
            }
            other => panic!("nth={nth}: expected SpillFailed, got {other}"),
        }
        // One worker hit the fault; the other three unwound through the
        // handoff (fail flag + notified ready queue) and everything was
        // rolled back.
        let s = mgr.stats();
        assert_eq!(s.temporary_resident, 0, "nth={nth}: leaked pages {s:?}");
        assert_eq!(s.non_paged, 0, "nth={nth}: leaked reservation {s:?}");
        assert_eq!(s.temp_bytes_on_disk, 0, "nth={nth}: leaked spill {s:?}");
        assert_eq!(mgr.temp_slots_in_use(), 0, "nth={nth}");
        assert_eq!(s.memory_used, baseline.memory_used, "nth={nth}");

        // "Aborts only the triggering query": the same manager runs the
        // same spilling workload to completion once the disk recovers.
        injector.set_enabled(false);
        mgr.set_memory_limit(5 << 19); // 2.5 MiB: still spills
        let source = CollectionSource::new(&coll);
        let (out, stats) = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config)
            .unwrap_or_else(|e| panic!("nth={nth}: follow-up failed: {e}"));
        assert_eq!(stats.groups, 100_000, "nth={nth}");
        assert_eq!(
            out.chunks().iter().map(|c| c.len()).sum::<usize>(),
            100_000,
            "nth={nth}"
        );
    }
}

/// Slow and flaky spill I/O at four threads: latency on a third of the
/// writes plus retried transient failures lean on the per-partition
/// handoff's wait loop (workers finishing phase 1 at very different times).
/// The query must terminate inside the watchdog window — a hung condvar is
/// a test failure here, not a CI timeout — and, when it succeeds, match the
/// oracle's group count with nothing leaked.
#[test]
fn phase_handoff_terminates_under_latency_and_transient_faults() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let registry = MetricsRegistry::new();
        let trace = EventTrace::with_default_capacity();
        let injector = Arc::new(
            FaultInjector::new(0x51EE9)
                .with_metrics(&registry)
                .with_trace(trace.clone())
                .rule(FaultRule::on(
                    IoOp::Write,
                    Schedule::EveryNth(3),
                    FaultKind::Latency(Duration::from_micros(800)),
                ))
                .rule(FaultRule::on(
                    IoOp::Write,
                    Schedule::EveryNth(7),
                    FaultKind::Transient,
                )),
        );
        let mgr = chaos_mgr(1536, 1, &injector, &registry, &trace);
        let plan = plan();
        let config = AggregateConfig {
            threads: 4,
            radix_bits: Some(4),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: VECTOR_SIZE,
            reset_fill_percent: 66,
            ..Default::default()
        };
        let rows: Vec<Vec<Value>> = (0..100_000)
            .map(|i| vec![Value::Int64(i % 30_000), Value::Int64(i)])
            .collect();
        let coll = collection_from_rows(&[LogicalType::Int64, LogicalType::Int64], &rows);
        let source = CollectionSource::new(&coll);
        let res = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).map(
            |(out, stats)| {
                (
                    out.chunks().iter().map(|c| c.len()).sum::<usize>(),
                    stats.groups,
                )
            },
        );
        let s = mgr.stats();
        let leftover = (
            s.temporary_resident,
            s.temp_bytes_on_disk,
            mgr.temp_slots_in_use(),
        );
        tx.send((res, leftover)).ok();
    });
    let (res, leftover) = rx
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("phase-handoff path hung"));
    match res {
        Ok((rows_out, groups)) => {
            assert_eq!(groups, 30_000);
            assert_eq!(rows_out, 30_000);
        }
        Err(e) => assert!(legal_failure(&e), "illegal error {e}"),
    }
    assert_eq!(leftover, (0, 0, 0), "leaked state");
}
