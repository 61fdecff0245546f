//! End-to-end tests of the concurrent query service: admission waiting
//! under a memory limit sized for a single query, load shedding past the
//! queue bound, cancellation mid-spill (temp files cleaned, no poisoned
//! state), and deadline expiry.

use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::{plan_row_width, AggregateConfig, AggregateSpec, HashAggregatePlan};
use rexa_exec::{ChunkCollection, DataChunk, Error, LogicalType, Vector, VECTOR_SIZE};
use rexa_service::{
    estimate_footprint, QueryInput, QueryOptions, QueryRequest, QueryService, ServiceConfig,
};
use rexa_storage::{scratch_dir, FaultInjector, FaultKind, FaultRule, IoBackend, IoOp, Schedule};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PAGE: usize = 4 << 10;

fn mgr_with(limit: usize) -> Arc<BufferManager> {
    BufferManager::new(
        BufferManagerConfig::with_limit(limit)
            .page_size(PAGE)
            .temp_dir(scratch_dir("svc").unwrap()),
    )
    .unwrap()
}

/// Like [`mgr_with`], spilling through a fault injector.
fn faulty_mgr_with(limit: usize, injector: &Arc<FaultInjector>) -> Arc<BufferManager> {
    BufferManager::new(
        BufferManagerConfig::with_limit(limit)
            .page_size(PAGE)
            .temp_dir(scratch_dir("svcfault").unwrap())
            .io_backend(Arc::clone(injector) as Arc<dyn IoBackend>)
            .spill_backoff(Duration::from_micros(200)),
    )
    .unwrap()
}

/// High-cardinality input: `groups` distinct keys over `rows` rows.
fn make_input(rows: usize, groups: usize) -> Arc<ChunkCollection> {
    let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Int64]);
    let mut produced = 0usize;
    while produced < rows {
        let n = (rows - produced).min(VECTOR_SIZE);
        let keys: Vec<i64> = (0..n).map(|i| ((produced + i) % groups) as i64).collect();
        let vals: Vec<i64> = keys.iter().map(|k| k * 3).collect();
        coll.push(DataChunk::new(vec![
            Vector::from_i64(keys),
            Vector::from_i64(vals),
        ]))
        .unwrap();
        produced += n;
    }
    Arc::new(coll)
}

fn grouping_config() -> AggregateConfig {
    AggregateConfig {
        threads: 2,
        radix_bits: Some(3),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    }
}

fn grouping_plan() -> HashAggregatePlan {
    HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
    }
}

/// The same footprint the scheduler derives for [`grouping_request`].
fn grouping_footprint(rows: usize) -> usize {
    let width =
        plan_row_width(&grouping_plan(), &[LogicalType::Int64, LogicalType::Int64]).unwrap();
    estimate_footprint(&grouping_config(), PAGE, rows, width)
}

fn grouping_request(input: &Arc<ChunkCollection>) -> QueryRequest {
    QueryRequest {
        plan: grouping_plan(),
        input: QueryInput::Collection(Arc::clone(input)),
        options: QueryOptions {
            config: grouping_config(),
            ..Default::default()
        },
    }
}

/// The acceptance scenario: a memory limit sized for ONE query's footprint,
/// four concurrently submitted high-cardinality grouping queries. All four
/// must complete with correct results — no OOM abort, no deadlock — because
/// admission makes the excess queries wait for reservations.
#[test]
fn four_concurrent_queries_under_single_query_limit() {
    let rows = 80_000;
    let footprint = grouping_footprint(rows);
    // Room for one admitted query plus working slack, but not for two
    // reservations — admission must serialize the queries.
    let mgr = mgr_with(footprint + footprint / 2);
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 4,
            max_concurrent: 4,
            queue_bound: 16,
            slow_query: None,
        },
    );
    let input = make_input(rows, rows); // all-distinct: heavy spilling

    let handles: Vec<_> = (0..4)
        .map(|_| service.submit(grouping_request(&input)).unwrap())
        .collect();
    let mut waited = 0usize;
    for h in handles {
        let out = h.wait().expect("query must complete");
        let coll = out.output.expect("collected output");
        assert_eq!(out.stats.groups, rows);
        assert_eq!(coll.rows(), rows);
        if out.queued_for > Duration::from_millis(1) {
            waited += 1;
        }
    }
    // With the limit sized for one query, at least one of the four had to
    // wait for admission.
    assert!(waited >= 1, "expected some queries to wait for admission");
    // Nothing leaks after all queries complete.
    let s = service.buffer_manager().stats();
    assert_eq!(s.non_paged, 0, "reservations must be released: {s:?}");
    assert_eq!(
        s.temp_bytes_on_disk, 0,
        "spill files must be cleaned: {s:?}"
    );
}

/// Submissions past the admission-queue bound are shed with the typed
/// [`Error::Overloaded`] — they never enqueue, and queries already accepted
/// still finish.
#[test]
fn submit_past_bound_is_shed_with_typed_error() {
    let mgr = mgr_with(64 << 20);
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 2,
            max_concurrent: 1,
            queue_bound: 2,
            slow_query: None,
        },
    );
    let input = make_input(60_000, 60_000);

    // Fill the single run slot and the two queue slots. The queue check
    // races with the scheduler draining it, so submit until the queue
    // reports full, then expect the shed.
    let mut accepted = Vec::new();
    let mut shed = None;
    for _ in 0..32 {
        match service.submit(grouping_request(&input)) {
            Ok(h) => accepted.push(h),
            Err(e) => {
                shed = Some(e);
                break;
            }
        }
    }
    let err = shed.expect("some submission must be shed");
    match err {
        Error::Overloaded { queued, bound } => {
            assert_eq!(bound, 2);
            assert!(queued >= 2, "shed while {queued} queued");
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    for h in accepted {
        h.wait().expect("accepted queries still complete");
    }
}

/// Cancelling a query mid-spill releases its temp files and leaves the
/// service healthy: a subsequent query over the same manager succeeds.
#[test]
fn cancel_mid_spill_cleans_up_and_service_survives() {
    let footprint = grouping_footprint(200_000);
    let mgr = mgr_with(footprint + footprint / 4); // tight: the query must spill
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 2,
            max_concurrent: 2,
            queue_bound: 8,
            slow_query: None,
        },
    );
    let input = make_input(200_000, 200_000);

    // Stream through a consumer that cancels once output starts flowing —
    // by then phase 1 has spilled and phase 2 is mid-flight.
    let seen = Arc::new(AtomicUsize::new(0));
    let handle = {
        let seen = Arc::clone(&seen);
        let mut request = grouping_request(&input);
        request.options.consumer = Some(Arc::new(move |c: DataChunk| {
            seen.fetch_add(c.len(), Ordering::Relaxed);
            Ok(())
        }));
        service.submit(request).unwrap()
    };
    while seen.load(Ordering::Relaxed) == 0 && !handle.is_done() {
        std::thread::yield_now();
    }
    handle.cancel();
    match handle.wait() {
        Err(Error::Cancelled) => {}
        Ok(out) => {
            // The cancel can race query completion; a finished query is fine
            // as long as it is correct.
            assert_eq!(out.stats.groups, 200_000);
        }
        Err(other) => panic!("unexpected error: {other}"),
    }

    // No pins, reservations, or spill files may survive the cancellation.
    let s = service.buffer_manager().stats();
    assert_eq!(s.non_paged, 0, "leaked reservation: {s:?}");
    assert_eq!(s.temp_bytes_on_disk, 0, "leaked spill file: {s:?}");

    // The service is not poisoned: the same query, uncancelled, completes.
    let out = service
        .submit(grouping_request(&make_input(30_000, 30_000)))
        .unwrap()
        .wait()
        .expect("follow-up query must succeed");
    assert_eq!(out.stats.groups, 30_000);
}

/// A query whose deadline expires fails with `DeadlineExceeded` (distinct
/// from plain `Cancelled`) whether it was queued or already running.
#[test]
fn deadline_expiry_is_typed() {
    let mgr = mgr_with(64 << 20);
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 2,
            max_concurrent: 1,
            queue_bound: 8,
            slow_query: None,
        },
    );
    let input = make_input(400_000, 400_000);

    // An effectively-instant deadline: whether it fires while queued or
    // running, the error must be typed.
    let mut request = grouping_request(&input);
    request.options.deadline = Some(Duration::from_millis(1));
    let handle = service.submit(request).unwrap();
    match handle.wait() {
        Err(Error::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // A generous deadline does not fire.
    let mut request = grouping_request(&make_input(10_000, 100));
    request.options.deadline = Some(Duration::from_secs(300));
    let out = service.submit(request).unwrap().wait().unwrap();
    assert_eq!(out.stats.groups, 100);
}

/// User cancellation of a queued query fails it without launching.
#[test]
fn cancel_while_queued_never_launches() {
    let mgr = mgr_with(64 << 20);
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 2,
            max_concurrent: 1,
            queue_bound: 8,
            slow_query: None,
        },
    );
    // Occupy the only slot with a long query.
    let blocker = service
        .submit(grouping_request(&make_input(400_000, 400_000)))
        .unwrap();
    // Queue a second and cancel it before it can launch.
    let queued = service
        .submit(grouping_request(&make_input(10_000, 100)))
        .unwrap();
    queued.cancel();
    match queued.wait() {
        Err(Error::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    blocker.cancel();
    let _ = blocker.wait();
}

/// An invalid plan is rejected at submission, before queueing.
#[test]
fn invalid_plan_rejected_at_submit() {
    let mgr = mgr_with(16 << 20);
    let service = QueryService::with_defaults(mgr);
    let input = make_input(100, 10);
    let request = QueryRequest {
        plan: HashAggregatePlan {
            group_cols: vec![9], // out of range
            aggregates: vec![AggregateSpec::count_star()],
        },
        input: QueryInput::Collection(input),
        options: QueryOptions::default(),
    };
    assert!(matches!(
        service.submit(request),
        Err(Error::InvalidInput(_))
    ));
}

/// A footprint larger than the whole memory limit fails typed (OOM), not by
/// waiting forever.
#[test]
fn impossible_footprint_fails_typed() {
    let mgr = mgr_with(8 << 20);
    let service = QueryService::with_defaults(mgr);
    let mut request = grouping_request(&make_input(1_000, 100));
    request.options.footprint = Some(1 << 30); // 1 GiB against an 8 MiB limit
    let handle = service.submit(request).unwrap();
    match handle.wait() {
        Err(e) if e.is_oom() => {}
        other => panic!("expected OOM, got {other:?}"),
    }
}

/// Back-to-back queries whose footprints each claim nearly the whole limit
/// must all complete: every admission races the previous completion's
/// release, and a reserve that fails in that window must be retried once
/// the completion is observed — never failed as a spurious OOM.
#[test]
fn full_limit_footprints_never_spuriously_oom() {
    let mgr = mgr_with(32 << 20);
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 2,
            max_concurrent: 4,
            queue_bound: 64,
            slow_query: None,
        },
    );
    let input = make_input(5_000, 500);
    let handles: Vec<_> = (0..16)
        .map(|_| {
            let mut request = grouping_request(&input);
            request.options.footprint = Some(30 << 20); // ~whole limit each
            service.submit(request).unwrap()
        })
        .collect();
    for h in handles {
        h.wait().expect("satisfiable footprint must not OOM");
    }
}

/// Dropping the service cancels running queries even when they carry no
/// deadline; shutdown must not block until a long query completes
/// naturally.
#[test]
fn drop_cancels_running_queries_without_deadlines() {
    let mgr = mgr_with(64 << 20);
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 2,
            max_concurrent: 1,
            queue_bound: 8,
            slow_query: None,
        },
    );
    // A long all-distinct query, deliberately without a deadline.
    let handle = service
        .submit(grouping_request(&make_input(2_000_000, 2_000_000)))
        .unwrap();
    while service.running() == 0 && !handle.is_done() {
        std::thread::yield_now();
    }
    drop(service); // must cancel the running query, not wait it out
    match handle.wait() {
        Err(Error::Cancelled) => {}
        other => panic!("expected Cancelled on shutdown, got {other:?}"),
    }
}

/// Fault isolation on a shared buffer manager: a query killed by ENOSPC on
/// its spill writes must not take down a concurrent fault-free query, a
/// queued successor must still launch, and — once the "disk" recovers —
/// the same spilling query succeeds over the same service. Spill-failure
/// errors must never poison shared state.
#[test]
fn enospc_killed_query_is_isolated_from_concurrent_queries() {
    let injector = Arc::new(FaultInjector::new(41).rule(FaultRule::on(
        IoOp::Write,
        Schedule::Always,
        FaultKind::Enospc,
    )));
    let big_rows = 200_000;
    let footprint = grouping_footprint(big_rows);
    // Tight enough that the big all-distinct query must spill (cf. the
    // cancellation test above), with slack for the small queries.
    let mgr = faulty_mgr_with(footprint + footprint / 4, &injector);
    let service = QueryService::new(
        Arc::clone(&mgr),
        ServiceConfig {
            pool_threads: 4,
            max_concurrent: 2,
            queue_bound: 8,
            slow_query: None,
        },
    );

    // A small in-memory query that is mid-output (sleeping in its
    // consumer) while the doomed query runs: it performs no spill writes,
    // so it must be untouched by the injector.
    let seen = Arc::new(AtomicUsize::new(0));
    let small = {
        let seen = Arc::clone(&seen);
        let mut request = grouping_request(&make_input(4_000, 50));
        request.options.consumer = Some(Arc::new(move |c: DataChunk| {
            if seen.fetch_add(c.len(), Ordering::Relaxed) == 0 {
                std::thread::sleep(Duration::from_millis(300));
            }
            Ok(())
        }));
        service.submit(request).unwrap()
    };
    while seen.load(Ordering::Relaxed) == 0 && !small.is_done() {
        std::thread::yield_now();
    }

    // The doomed query: all-distinct, must spill, every spill write fails.
    let doomed = service
        .submit(grouping_request(&make_input(big_rows, big_rows)))
        .unwrap();
    // A successor queued behind the doomed query's slot.
    let successor = service
        .submit(grouping_request(&make_input(10_000, 100)))
        .unwrap();

    match doomed.wait() {
        Err(Error::SpillFailed { source, .. }) => {
            assert_eq!(source.raw_os_error(), Some(28), "expected ENOSPC");
        }
        other => panic!("expected SpillFailed, got {other:?}"),
    }
    assert!(injector.injected() > 0, "the fault never fired");

    // The concurrent query and the queued successor are unaffected.
    let out = small
        .wait()
        .expect("fault-free concurrent query must survive");
    assert_eq!(out.stats.groups, 50);
    let out = successor
        .wait()
        .expect("queued successor must still launch");
    assert_eq!(out.stats.groups, 100);

    // The shared manager is back at baseline: nothing pinned, reserved,
    // resident, or on disk.
    let s = mgr.stats();
    assert_eq!(s.non_paged, 0, "leaked reservation: {s:?}");
    assert_eq!(s.temporary_resident, 0, "leaked pages: {s:?}");
    assert_eq!(s.temp_bytes_on_disk, 0, "leaked spill bytes: {s:?}");
    assert_eq!(mgr.temp_slots_in_use(), 0, "leaked temp slot");
    assert!(s.spill_failures > 0, "failure must be counted: {s:?}");

    // Disk "recovers": the very query that died now completes correctly —
    // the failure poisoned nothing.
    injector.set_enabled(false);
    let out = service
        .submit(grouping_request(&make_input(big_rows, big_rows)))
        .unwrap()
        .wait()
        .expect("recovered query must succeed");
    assert_eq!(out.stats.groups, big_rows);
    assert!(
        out.buffer.evictions_temporary > 0,
        "recovery must exercise the spill path: {:?}",
        out.buffer
    );
}

/// Latency injection: a query whose every spill write is slowed (and
/// transiently failed every few ops) blows its deadline and is cancelled
/// cleanly, and the injected delays/retries are visible in the new
/// `BufferStats` spill counters.
#[test]
fn injected_spill_latency_trips_deadline_and_counts_retries() {
    let injector = Arc::new(
        FaultInjector::new(43)
            .rule(FaultRule::on(
                IoOp::Write,
                Schedule::Always,
                FaultKind::Latency(Duration::from_millis(3)),
            ))
            .rule(FaultRule::on(
                IoOp::Write,
                Schedule::EveryNth(2),
                FaultKind::Transient,
            )),
    );
    let rows = 200_000;
    let footprint = grouping_footprint(rows);
    let mgr = faulty_mgr_with(footprint + footprint / 4, &injector);
    let service = QueryService::new(
        Arc::clone(&mgr),
        ServiceConfig {
            pool_threads: 2,
            max_concurrent: 1,
            queue_bound: 4,
            slow_query: None,
        },
    );

    // Hundreds of spill writes at >=3 ms each: a 150 ms deadline fires
    // mid-spill, long before the query could finish.
    let mut request = grouping_request(&make_input(rows, rows));
    request.options.deadline = Some(Duration::from_millis(150));
    let handle = service.submit(request).unwrap();
    match handle.wait() {
        Err(Error::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The injected behaviour is observable: writes were delayed, transient
    // faults were retried (and none was allowed to become a failure).
    assert!(injector.delayed() > 0, "latency rule never fired");
    let s = mgr.stats();
    assert!(s.spill_retries > 0, "retries must be counted: {s:?}");
    assert_eq!(s.spill_failures, 0, "transients must be absorbed: {s:?}");

    // Cancellation mid-slow-spill leaked nothing.
    assert_eq!(s.non_paged, 0, "leaked reservation: {s:?}");
    assert_eq!(s.temporary_resident, 0, "leaked pages: {s:?}");
    assert_eq!(s.temp_bytes_on_disk, 0, "leaked spill bytes: {s:?}");
    assert_eq!(mgr.temp_slots_in_use(), 0, "leaked temp slot");

    // And the service still runs fault-free queries to completion.
    injector.set_enabled(false);
    let out = service
        .submit(grouping_request(&make_input(20_000, 200)))
        .unwrap()
        .wait()
        .expect("follow-up query must succeed");
    assert_eq!(out.stats.groups, 200);
}

/// Service counters and gauges track the query lifecycle: submissions and
/// completions are counted, the queue/running gauges return to zero, and the
/// duration histogram records one observation per finished query.
#[test]
fn service_metrics_track_query_lifecycle() {
    let mgr = mgr_with(64 << 20);
    let service = QueryService::with_defaults(mgr);
    let input = make_input(20_000, 500);
    let handles: Vec<_> = (0..3)
        .map(|_| service.submit(grouping_request(&input)).unwrap())
        .collect();
    for h in handles {
        h.wait().expect("query must complete");
    }

    let snap = service.metrics().snapshot();
    assert_eq!(snap.get_counter("rexa_queries_submitted_total"), 3);
    assert_eq!(snap.get_counter("rexa_queries_completed_total"), 3);
    assert_eq!(snap.get_counter("rexa_queries_failed_total"), 0);
    assert_eq!(snap.get_counter("rexa_queries_shed_total"), 0);
    assert_eq!(snap.get_gauge("rexa_queries_queued"), 0);
    assert_eq!(snap.get_gauge("rexa_queries_running"), 0);

    // One duration and one queue-wait observation per completed query.
    let text = service.metrics_text();
    assert!(
        text.contains("rexa_query_duration_seconds_count 3"),
        "missing duration observations:\n{text}"
    );
    assert!(
        text.contains("rexa_query_queue_wait_seconds_count 3"),
        "missing queue-wait observations:\n{text}"
    );
}

/// Shed submissions and expired deadlines increment their dedicated
/// counters; a deadline expiry also counts as a failure.
#[test]
fn shed_and_deadline_metrics_are_counted() {
    let mgr = mgr_with(64 << 20);
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 2,
            max_concurrent: 1,
            queue_bound: 2,
            slow_query: None,
        },
    );
    let input = make_input(60_000, 60_000);

    let mut accepted = Vec::new();
    for _ in 0..32 {
        match service.submit(grouping_request(&input)) {
            Ok(h) => accepted.push(h),
            Err(Error::Overloaded { .. }) => break,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    let snap = service.metrics().snapshot();
    assert_eq!(snap.get_counter("rexa_queries_shed_total"), 1);
    assert_eq!(
        snap.get_counter("rexa_queries_submitted_total"),
        accepted.len() as u64,
        "shed submissions must not count as submitted"
    );
    for h in accepted {
        h.wait().expect("accepted queries still complete");
    }

    // A 1 ms deadline against a long all-distinct query must expire.
    let mut request = grouping_request(&make_input(400_000, 400_000));
    request.options.deadline = Some(Duration::from_millis(1));
    let handle = service.submit(request).unwrap();
    match handle.wait() {
        Err(Error::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let snap = service.metrics().snapshot();
    assert_eq!(snap.get_counter("rexa_queries_deadline_exceeded_total"), 1);
    assert_eq!(snap.get_counter("rexa_queries_failed_total"), 1);
}

/// `metrics_text` renders one unified, well-formed Prometheus exposition:
/// service metrics and buffer-manager metrics share the scrape, every
/// sample line parses, and every sample is preceded by HELP/TYPE headers.
#[test]
fn metrics_text_is_one_valid_prometheus_scrape() {
    let footprint = grouping_footprint(80_000);
    let mgr = mgr_with(footprint + footprint / 2); // tight: force spilling
    let service = QueryService::with_defaults(mgr);
    let out = service
        .submit(grouping_request(&make_input(80_000, 80_000)))
        .unwrap()
        .wait()
        .expect("query must complete");
    assert!(
        out.buffer.evictions_temporary > 0,
        "scenario must spill: {:?}",
        out.buffer
    );

    let text = service.metrics_text();
    // One scrape carries both layers.
    for name in [
        "rexa_queries_submitted_total",
        "rexa_query_duration_seconds",
        "rexa_allocations_total",
        "rexa_evictions_temporary_total",
        "rexa_temp_bytes_written_total",
    ] {
        assert!(text.contains(name), "missing {name} in scrape:\n{text}");
    }

    // Exposition validity: every non-comment line is `name[{labels}] value`
    // with a parseable finite value, and is covered by HELP and TYPE.
    let mut described = std::collections::HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kw = parts.next().unwrap();
            let name = parts.next().expect("header names a metric");
            assert!(kw == "HELP" || kw == "TYPE", "bad comment: {line}");
            if kw == "TYPE" {
                let ty = parts.next().expect("TYPE has a kind");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&ty),
                    "bad TYPE: {line}"
                );
            }
            described.insert(name.to_string());
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
        let base = name_part.split('{').next().unwrap();
        let base = base
            .trim_end_matches("_bucket")
            .trim_end_matches("_count")
            .trim_end_matches("_sum");
        assert!(
            described.contains(base),
            "sample {line} not covered by HELP/TYPE"
        );
        let v: f64 = value.parse().expect("sample value parses");
        assert!(v.is_finite(), "non-finite sample: {line}");
    }
}

/// Service results match a direct single-query run.
#[test]
fn service_results_are_correct() {
    let mgr = mgr_with(64 << 20);
    let service = QueryService::with_defaults(mgr);
    let input = make_input(50_000, 1_000);
    let out = service
        .submit(grouping_request(&input))
        .unwrap()
        .wait()
        .unwrap();
    let coll = out.output.unwrap();
    assert_eq!(out.stats.groups, 1_000);
    assert_eq!(coll.rows(), 1_000);
    assert_eq!(out.stats.rows_in, 50_000);

    // Spot-check one group: key 0 appears rows/groups times, sum = 0.
    let mut count0 = None;
    for chunk in coll.chunks() {
        for i in 0..chunk.len() {
            if chunk.column(0).i64s()[i] == 0 {
                count0 = Some(chunk.column(1).i64s()[i]);
            }
        }
    }
    assert_eq!(count0, Some(50)); // 50_000 / 1_000
}

/// The slow-query log: with a zero threshold every query is "slow", and
/// the sink receives a structured record carrying the query summary,
/// durations, and the execution profile's spill/reset/strategy facts.
#[test]
fn slow_query_log_emits_structured_records() {
    let records: Arc<std::sync::Mutex<Vec<rexa_service::SlowQueryRecord>>> = Arc::default();
    let sink_records = Arc::clone(&records);
    let rows = 40_000;
    let footprint = grouping_footprint(rows);
    // Tight limit: the query spills, so the record carries real traffic.
    let mgr = mgr_with(footprint + footprint / 2);
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 2,
            max_concurrent: 2,
            queue_bound: 8,
            slow_query: Some(rexa_service::SlowQueryConfig::new(
                Duration::ZERO,
                move |r| sink_records.lock().unwrap().push(r.clone()),
            )),
        },
    );
    let input = make_input(rows, rows); // all-distinct: spills under the limit
    let out = service
        .submit(grouping_request(&input))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(out.stats.groups, rows);

    let records = records.lock().unwrap();
    assert_eq!(records.len(), 1, "exactly one query ran");
    let r = &records[0];
    assert_eq!(r.kind, "aggregate");
    assert_eq!(r.summary, "HASH_AGGREGATE groups=1 aggregates=2");
    assert_eq!(r.outcome, "ok");
    assert!(r.duration > Duration::ZERO);
    assert_eq!(r.spill_bytes, out.stats.profile.spill_bytes_written);
    assert!(r.spill_bytes > 0, "tight limit must spill");
    assert!(!r.strategy.is_empty());
    let line = r.render();
    for needle in [
        "slow_query id=",
        "kind=aggregate",
        "outcome=ok",
        "spill_bytes=",
    ] {
        assert!(line.contains(needle), "missing {needle:?} in {line:?}");
    }
}

/// Off by default: no slow_query config, no sink calls — and a threshold
/// above the query's duration stays silent too.
#[test]
fn slow_query_log_respects_threshold() {
    let records: Arc<std::sync::Mutex<Vec<rexa_service::SlowQueryRecord>>> = Arc::default();
    let sink_records = Arc::clone(&records);
    let mgr = mgr_with(64 << 20);
    let service = QueryService::new(
        mgr,
        ServiceConfig {
            pool_threads: 2,
            max_concurrent: 2,
            queue_bound: 8,
            slow_query: Some(rexa_service::SlowQueryConfig::new(
                Duration::from_secs(3600),
                move |r| sink_records.lock().unwrap().push(r.clone()),
            )),
        },
    );
    let input = make_input(10_000, 100);
    service
        .submit(grouping_request(&input))
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        records.lock().unwrap().is_empty(),
        "sub-threshold query must not be logged"
    );
}

/// Span tracing rides through the service: a traced spilling query comes
/// back with a populated timeline whose tracks include the service, the
/// coordinator and the workers, and the Chrome export is non-trivial.
#[test]
fn traced_query_through_service_captures_io_spans() {
    let rows = 40_000;
    let footprint = grouping_footprint(rows);
    let mgr = mgr_with(footprint + footprint / 2);
    let service = QueryService::with_defaults(mgr);
    let input = make_input(rows, rows);
    let spans = rexa_obs::SpanCollector::new();
    let mut request = grouping_request(&input);
    request.options.spans = Some(Arc::clone(&spans));
    let out = service.submit(request).unwrap().wait().unwrap();
    assert_eq!(out.stats.groups, rows);

    let timeline = &out.stats.profile.timeline;
    assert!(!timeline.is_empty(), "traced run produced no spans");
    let has = |needle: &str| timeline.tracks.iter().any(|t| t.contains(needle));
    assert!(has("service"), "tracks: {:?}", timeline.tracks);
    assert!(has("coordinator"), "tracks: {:?}", timeline.tracks);
    assert!(has("worker"), "tracks: {:?}", timeline.tracks);
    let names: Vec<&str> = timeline.spans.iter().map(|s| s.name).collect();
    for needle in ["queue_wait", "pipeline", "merge", "finalize", "phase 1"] {
        assert!(names.contains(&needle), "missing span {needle:?}");
    }
    // The export must be loadable Chrome trace JSON with named tracks.
    let json = out.stats.profile.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"thread_name\""));
}

/// A SQL `JOIN … GROUP BY` and a global aggregate submitted to the service
/// run on the query's context: their pipeline and partition-task workers
/// record spans into the query's collector, and the global aggregate's
/// profile carries the merged timeline like a grouped query's does.
#[test]
fn traced_sql_join_and_global_aggregate_run_on_the_query_context() {
    let service = QueryService::new(
        mgr_with(64 << 20),
        ServiceConfig {
            pool_threads: 2,
            ..Default::default()
        },
    );
    let fact = make_input(40_000, 500);
    let dim = make_input(500, 500);
    let columns = || vec!["k".to_string(), "v".to_string()];
    service
        .register_table("f", columns(), QueryInput::Collection(fact))
        .unwrap();
    service
        .register_table("d", columns(), QueryInput::Collection(dim))
        .unwrap();
    let traced = |sql: &str| {
        let spans = rexa_obs::SpanCollector::new();
        let options = QueryOptions {
            config: AggregateConfig {
                threads: 2,
                ..Default::default()
            },
            spans: Some(Arc::clone(&spans)),
            ..Default::default()
        };
        let out = service
            .submit_sql_with(sql, options)
            .unwrap()
            .wait()
            .unwrap();
        let count = |name: &str| {
            out.stats
                .profile
                .timeline
                .spans
                .iter()
                .filter(|s| s.name == name)
                .count()
        };
        (count("pipeline"), count("task"), count("queue_wait"), out)
    };

    let (pipelines, tasks, queue_waits, out) =
        traced("SELECT d.v, COUNT(*), SUM(f.v) FROM f JOIN d ON f.k = d.k GROUP BY d.v");
    assert_eq!(out.stats.groups, 500);
    // Build and probe each run one pipeline span per worker; every radix
    // partition is one task.
    assert!(pipelines >= 2, "join pipeline spans: {pipelines}");
    assert!(tasks >= 1, "join partition task spans: {tasks}");
    assert_eq!(queue_waits, 1);
    // Lanes name threads, not operator invocations: the join's build,
    // probe and partition tasks and the aggregate's workers share at most
    // the pool's two lanes plus the submitting thread's.
    let timeline = &out.stats.profile.timeline;
    let lanes: Vec<&String> = timeline
        .tracks
        .iter()
        .filter(|t| t.starts_with("worker"))
        .collect();
    assert!(
        !lanes.is_empty() && lanes.len() <= 3,
        "worker lanes: {lanes:?}"
    );

    let (pipelines, _, queue_waits, out) = traced("SELECT SUM(v), COUNT(*) FROM f");
    let rows = out.output.as_ref().unwrap();
    assert_eq!(rows.rows(), 1);
    let sum: i64 = (0..40_000).map(|i| (i % 500) * 3).sum();
    assert_eq!(
        rows.chunks()[0].row(0),
        vec![
            rexa_exec::Value::Int64(sum),
            rexa_exec::Value::Int64(40_000)
        ]
    );
    assert!(
        pipelines >= 1,
        "global aggregate pipeline spans: {pipelines}"
    );
    assert_eq!(queue_waits, 1, "service spans missing from the timeline");
}
