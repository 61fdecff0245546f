//! End-to-end integration tests spanning all crates: persistent tables,
//! the unified buffer manager, the spillable layout, the robust operator,
//! and the baselines — everything a real embedding would touch.

use parking_lot::Mutex;
use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::baselines::switch::{Scannable, TableScan};
use rexa_core::baselines::{sort_aggregate, switch_aggregate};
use rexa_core::simple::{reference_aggregate, sorted_rows};
use rexa_core::{
    hash_aggregate_collect, hash_aggregate_streaming, AggregateConfig, AggregateSpec,
    HashAggregatePlan,
};
use rexa_exec::pipeline::CancelToken;
use rexa_exec::{DataChunk, ExecContext, Value, VECTOR_SIZE};
use rexa_storage::{scratch_dir, DatabaseFile};
use rexa_tpch::{lineitem_schema, load_lineitem_table, Grouping, LineitemColumn, GROUPINGS};
use std::sync::Arc;

const PAGE: usize = 16 << 10;

fn env(limit: usize, sf: f64) -> (Arc<BufferManager>, rexa_buffer::Table) {
    let dir = scratch_dir("itest").unwrap();
    let mgr = BufferManager::new(
        BufferManagerConfig::with_limit(usize::MAX)
            .page_size(PAGE)
            .temp_dir(dir.join("tmp")),
    )
    .unwrap();
    let db = Arc::new(DatabaseFile::create(&dir.join("li.db"), PAGE).unwrap());
    let table = load_lineitem_table(&mgr, &db, sf, 1234).unwrap();
    mgr.set_memory_limit(limit);
    (mgr, table)
}

fn config(threads: usize, radix_bits: u32) -> AggregateConfig {
    AggregateConfig {
        threads,
        radix_bits: Some(radix_bits),
        ht_capacity: 1 << 13,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    }
}

#[test]
fn lineitem_grouping_from_persistent_table_matches_reference() {
    let (mgr, table) = env(256 << 20, 0.002);
    let schema = lineitem_schema();
    let grouping = Grouping::by_id(5).unwrap(); // shipdate, shipmode
    let plan = HashAggregatePlan {
        group_cols: grouping.group_col_indices(),
        aggregates: vec![
            AggregateSpec::count_star(),
            AggregateSpec::sum(LineitemColumn::Quantity.index()),
            // ANY_VALUE over a group column: functionally dependent, so the
            // differential comparison is deterministic.
            AggregateSpec::any_value(LineitemColumn::ShipDate.index()),
        ],
    };
    let source = table.scan(&mgr);
    let (out, stats) =
        hash_aggregate_collect(&mgr, &source, &schema, &plan, &config(4, 4)).unwrap();
    assert_eq!(stats.rows_in, table.rows());

    let source = table.scan(&mgr);
    let want = reference_aggregate(&source, &schema, &plan.group_cols, &plan.aggregates).unwrap();
    assert_eq!(sorted_rows(out.chunks()), want);
}

#[test]
fn every_grouping_thin_group_counts_are_consistent_across_systems() {
    let (mgr, table) = env(256 << 20, 0.001);
    let schema = lineitem_schema();
    for grouping in GROUPINGS {
        let plan = HashAggregatePlan {
            group_cols: grouping.group_col_indices(),
            aggregates: vec![],
        };
        let source = table.scan(&mgr);
        let (out, stats) =
            hash_aggregate_collect(&mgr, &source, &schema, &plan, &config(4, 3)).unwrap();
        assert_eq!(out.rows(), stats.groups, "{}", grouping.describe());

        // Cross-check against the external sort baseline.
        let sorted = Mutex::new(Vec::<DataChunk>::new());
        let source = table.scan(&mgr);
        let s = sort_aggregate(
            &mgr,
            &source,
            &schema,
            &plan.group_cols,
            &plan.aggregates,
            &CancelToken::new(),
            &|c| {
                sorted.lock().push(c);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(s.groups, stats.groups, "{}", grouping.describe());
        assert_eq!(
            sorted_rows(out.chunks()),
            sorted_rows(&sorted.lock()),
            "{}",
            grouping.describe()
        );
    }
}

#[test]
fn wide_grouping_under_pressure_spills_and_is_exact() {
    // Grouping 13 wide at a limit well below the intermediates: the full
    // paper scenario on a persistent table, with ANY_VALUE strings.
    let (mgr, table) = env(7 << 20, 0.005);
    let schema = lineitem_schema();
    let grouping = Grouping::by_id(13).unwrap();
    let mut aggregates: Vec<AggregateSpec> = grouping
        .other_col_indices()
        .into_iter()
        .map(AggregateSpec::any_value)
        .collect();
    aggregates.push(AggregateSpec::count_star());
    let plan = HashAggregatePlan {
        group_cols: grouping.group_col_indices(),
        aggregates,
    };
    let source = table.scan(&mgr);
    let (out, stats) =
        hash_aggregate_collect(&mgr, &source, &schema, &plan, &config(4, 5)).unwrap();
    // (suppkey, partkey, orderkey) is *almost* a key: two lineitems of one
    // order can collide on part+supplier, so allow a handful of doubles.
    assert!(stats.groups <= table.rows());
    assert!(
        stats.groups > table.rows() - 50,
        "groups {} vs rows {}",
        stats.groups,
        table.rows()
    );
    assert!(
        stats.buffer.temp_bytes_written > 0,
        "expected spilling: {:?}",
        stats.buffer
    );

    // The COUNT(*) column must sum back to the input row count.
    let count_col = out.types().len() - 1;
    let mut total = 0i64;
    for chunk in out.chunks() {
        for i in 0..chunk.len() {
            match chunk.column(count_col).value(i) {
                Value::Int64(c) => total += c,
                other => panic!("bad count {other:?}"),
            }
        }
    }
    assert_eq!(total as usize, table.rows());
    // Eager cleanup happened.
    assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
}

#[test]
fn switch_baseline_on_persistent_table_restarts_cleanly() {
    let (mgr, table) = env(2 << 20, 0.003);
    let schema = lineitem_schema();
    let grouping = Grouping::by_id(11).unwrap();
    let plan = HashAggregatePlan {
        group_cols: grouping.group_col_indices(),
        aggregates: vec![AggregateSpec::count_star()],
    };
    let token = CancelToken::new();
    let scannable = TableScan {
        table: &table,
        mgr: Arc::clone(&mgr),
    };
    let _ = scannable.scan_source(); // trait is usable directly
    let out = Mutex::new(Vec::<DataChunk>::new());
    let outcome = switch_aggregate(
        &mgr,
        &scannable,
        &schema,
        &plan.group_cols,
        &plan.aggregates,
        4,
        &token,
        &|c| {
            out.lock().push(c);
            Ok(())
        },
    )
    .unwrap();
    assert!(outcome.switched(), "~18k groups cannot fit a 2 MiB limit");
    // Cross-check the group count against the robust engine (orderkey +
    // suppkey is far from unique at this scale: few suppliers).
    mgr.set_memory_limit(usize::MAX);
    let source = table.scan(&mgr);
    let (_, robust) = hash_aggregate_collect(&mgr, &source, &schema, &plan, &config(4, 4)).unwrap();
    assert_eq!(outcome.groups(), robust.groups);
    let emitted: usize = out.lock().iter().map(|c| c.len()).sum();
    assert_eq!(
        emitted, robust.groups,
        "no partial output from the aborted attempt"
    );
}

#[test]
fn table_pages_are_evicted_before_any_spill_page() {
    // A paged table larger than the limit, with intermediates that fit
    // beside the operator's working set: dropping clean table pages (free:
    // the database file has them) makes all the room the query needs, so
    // clean-first eviction never writes a spill page.
    let limit = 4 << 20;
    let (mgr, table) = env(limit, 0.01);
    assert!(table.block_count() * PAGE > limit, "the table must not fit");
    let schema = lineitem_schema();
    let plan = HashAggregatePlan {
        // (orderkey, linenumber) is the lineitem key: one group per row, so
        // phase 1 resets its hash tables and unpins partition pages while
        // the scan is still pinning table pages.
        group_cols: vec![
            LineitemColumn::OrderKey.index(),
            LineitemColumn::LineNumber.index(),
        ],
        aggregates: vec![AggregateSpec::sum(LineitemColumn::Quantity.index())],
    };
    let source = table.scan(&mgr);
    let (out, stats) =
        hash_aggregate_collect(&mgr, &source, &schema, &plan, &config(4, 4)).unwrap();
    assert_eq!(stats.buffer.temp_bytes_written, 0, "{:?}", stats.buffer);
    assert!(stats.buffer.evictions_persistent > 0, "{:?}", stats.buffer);

    let source = table.scan(&mgr);
    let want = reference_aggregate(&source, &schema, &plan.group_cols, &plan.aggregates).unwrap();
    assert_eq!(sorted_rows(out.chunks()), want);
}

#[test]
fn repeated_queries_on_one_manager_leave_no_residue() {
    let (mgr, table) = env(16 << 20, 0.002);
    let schema = lineitem_schema();
    let plan = HashAggregatePlan {
        group_cols: vec![LineitemColumn::PartKey.index()],
        aggregates: vec![AggregateSpec::avg(LineitemColumn::ExtendedPrice.index())],
    };
    let mut first = None;
    for run in 0..5 {
        let source = table.scan(&mgr);
        let (out, _) =
            hash_aggregate_collect(&mgr, &source, &schema, &plan, &config(4, 3)).unwrap();
        let rows = sorted_rows(out.chunks());
        match &first {
            None => first = Some(rows),
            Some(f) => assert_eq!(&rows, f, "run {run} differs"),
        }
        // Temporary state is fully released between queries.
        assert_eq!(mgr.stats().temporary_resident, 0, "run {run}");
        assert_eq!(mgr.stats().temp_bytes_on_disk, 0, "run {run}");
        assert_eq!(mgr.stats().non_paged, 0, "run {run}");
    }
}

#[test]
fn streaming_consumer_error_propagates_and_cleans_up() {
    let (mgr, table) = env(64 << 20, 0.001);
    let schema = lineitem_schema();
    let plan = HashAggregatePlan {
        group_cols: vec![LineitemColumn::OrderKey.index()],
        aggregates: vec![],
    };
    let source = table.scan(&mgr);
    let err = hash_aggregate_streaming(
        &mgr,
        &source,
        &schema,
        &plan,
        &config(4, 3),
        &ExecContext::new(),
        &|_| Err(rexa_exec::Error::Unsupported("consumer says no".into())),
    )
    .unwrap_err();
    assert!(matches!(err, rexa_exec::Error::Unsupported(_)));
    assert_eq!(mgr.stats().temporary_resident, 0);
    assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
}
