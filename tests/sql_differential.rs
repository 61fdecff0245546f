//! Differential testing of the SQL front end: every SQL query must produce
//! **bit-identical** results to the equivalent hand-wired plan.
//!
//! Aggregates over integer columns are order-independent at any thread
//! count (integer arithmetic is exact, and `AVG` over integers stays exact
//! in an f64 accumulator while partial sums are below 2^53), so the
//! comparison can demand exact equality — including float bit patterns —
//! rather than tolerance.
//!
//! Also here: the acceptance query (TPC-H Q1 shape) through
//! [`QueryService::submit_sql`] with and without memory pressure, a JOIN +
//! GROUP BY differential, the declared-sort-order path, span-carrying error
//! checks at the service boundary, and a parser fuzz smoke (malformed
//! inputs must error with spans, never panic).

use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::simple::{reference_aggregate, sorted_rows};
use rexa_core::{
    hash_aggregate_collect, hash_join_streaming, AggregateConfig, AggregateSpec, HashAggregatePlan,
    HashJoinPlan, JoinConfig,
};
use rexa_exec::pipeline::CollectionSource;
use rexa_exec::pool::ExecContext;
use rexa_exec::{ChunkCollection, DataChunk, LogicalType, Value, VECTOR_SIZE};
use rexa_service::{QueryInput, QueryOptions, QueryService, ServiceConfig};
use rexa_sql::{Catalog, SqlError};
use rexa_storage::scratch_dir;
use rexa_tpch::{generate_lineitem, LineitemColumn};
use std::sync::Arc;

fn build_collection(types: &[LogicalType], rows: &[Vec<Value>]) -> ChunkCollection {
    let mut coll = ChunkCollection::new(types.to_vec());
    for batch in rows.chunks(VECTOR_SIZE) {
        let mut chunk = DataChunk::empty(types);
        for row in batch {
            chunk.push_row(row).unwrap();
        }
        coll.push(chunk).unwrap();
    }
    coll
}

fn test_manager(limit: usize) -> Arc<BufferManager> {
    BufferManager::new(
        BufferManagerConfig::with_limit(limit)
            .page_size(4 << 10)
            .temp_dir(scratch_dir("sqldiff").unwrap()),
    )
    .unwrap()
}

/// Run `sql` against a single registered table and return the output rows in
/// delivery order.
fn run_sql(
    coll: &Arc<ChunkCollection>,
    columns: &[&str],
    sql: &str,
    config: &AggregateConfig,
    mgr: &Arc<BufferManager>,
) -> Vec<Vec<Value>> {
    let mut catalog = Catalog::new();
    catalog
        .register_collection(
            "t",
            columns.iter().map(|s| s.to_string()).collect(),
            Arc::clone(coll),
        )
        .unwrap();
    let plan = rexa_sql::plan(sql, &catalog).unwrap();
    let out = Mutex::new(Vec::<DataChunk>::new());
    rexa_sql::execute_streaming(mgr, &plan, config, &ExecContext::new(), &|c| {
        out.lock().push(c);
        Ok(())
    })
    .unwrap();
    let chunks = out.into_inner();
    chunks
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
        .collect()
}

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

/// One generated differential case over the fixed test table
/// `t(k1 BIGINT, k2 VARCHAR, v1 BIGINT, d1 DATE)`.
#[derive(Debug, Clone)]
struct SqlCase {
    rows: Vec<Vec<Value>>,
    /// Which columns to group by (0 => `k1`, 1 => `k1, k2`, 2 => `k2`).
    group_choice: usize,
    /// `WHERE v1 >= t` when set.
    where_v1: Option<i64>,
    /// `WHERE d1 <= '<date>'` when set: (literal, epoch days).
    where_d1: Option<(String, i32)>,
    /// `HAVING COUNT(*) > h` when set.
    having_count: Option<i64>,
    limit: Option<usize>,
    threads: usize,
    radix_bits: u32,
}

const COLUMNS: [&str; 4] = ["k1", "k2", "v1", "d1"];

fn table_types() -> Vec<LogicalType> {
    vec![
        LogicalType::Int64,
        LogicalType::Varchar,
        LogicalType::Int64,
        LogicalType::Date,
    ]
}

/// Known date literals and their epoch-day encodings (all in 1970, matching
/// the `d1` domain below).
const DATES: [(&str, i32); 3] = [("1970-01-31", 30), ("1970-03-01", 59), ("1970-06-30", 180)];

/// `Option<T>` strategy (the vendored proptest has no `prop::option`):
/// `None` one time in four, `Some` from `s` otherwise.
fn opt<T, S>(s: S) -> BoxedStrategy<Option<T>>
where
    T: Clone + std::fmt::Debug + 'static,
    S: Strategy<Value = T> + 'static,
{
    prop_oneof![1 => Just(None), 3 => s.prop_map(Some)].boxed()
}

fn sql_case_strategy() -> impl Strategy<Value = SqlCase> {
    let row = (
        prop_oneof![9 => (0i64..40).prop_map(Value::Int64), 1 => Just(Value::Null)],
        prop_oneof![
            9 => (0i64..25).prop_map(|v| Value::Varchar(format!("group key {v:04}"))),
            1 => Just(Value::Null)
        ],
        prop_oneof![9 => (-1000i64..1000).prop_map(Value::Int64), 1 => Just(Value::Null)],
        prop_oneof![9 => (0i32..200).prop_map(Value::Date), 1 => Just(Value::Null)],
    )
        .prop_map(|(a, b, c, d)| vec![a, b, c, d]);
    (
        prop::collection::vec(row, 0..2500),
        0usize..3,
        opt(-500i64..500),
        opt(0usize..3),
        opt(1i64..40),
        opt(1usize..50),
        1usize..4,
        0u32..5,
    )
        .prop_map(
            |(rows, group_choice, where_v1, where_d1, having_count, limit, threads, radix_bits)| {
                SqlCase {
                    rows,
                    group_choice,
                    where_v1,
                    where_d1: where_d1.map(|i| (DATES[i].0.to_string(), DATES[i].1)),
                    having_count,
                    limit,
                    threads,
                    radix_bits,
                }
            },
        )
}

impl SqlCase {
    fn group_cols(&self) -> Vec<usize> {
        match self.group_choice {
            0 => vec![0],
            1 => vec![0, 1],
            _ => vec![1],
        }
    }

    fn sql(&self) -> String {
        let groups: Vec<&str> = self.group_cols().iter().map(|&c| COLUMNS[c]).collect();
        let group_list = groups.join(", ");
        let mut sql = format!(
            "SELECT {group_list}, COUNT(*), COUNT(v1), SUM(v1), MIN(v1), MAX(v1), AVG(v1) FROM t"
        );
        let mut wheres = Vec::new();
        if let Some(t) = self.where_v1 {
            wheres.push(format!("v1 >= {t}"));
        }
        if let Some((lit, _)) = &self.where_d1 {
            wheres.push(format!("d1 <= '{lit}'"));
        }
        if !wheres.is_empty() {
            sql.push_str(&format!(" WHERE {}", wheres.join(" AND ")));
        }
        sql.push_str(&format!(" GROUP BY {group_list}"));
        if let Some(h) = self.having_count {
            sql.push_str(&format!(" HAVING COUNT(*) > {h}"));
        }
        sql.push_str(&format!(" ORDER BY {group_list}"));
        if let Some(n) = self.limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        sql
    }

    /// The rows that pass the WHERE clause (NULL comparisons are false).
    fn filtered_rows(&self) -> Vec<Vec<Value>> {
        self.rows
            .iter()
            .filter(|r| {
                let v1_ok = match (self.where_v1, &r[2]) {
                    (None, _) => true,
                    (Some(t), Value::Int64(v)) => *v >= t,
                    (Some(_), _) => false,
                };
                let d1_ok = match (&self.where_d1, &r[3]) {
                    (None, _) => true,
                    (Some((_, days)), Value::Date(d)) => *d <= *days,
                    (Some(_), _) => false,
                };
                v1_ok && d1_ok
            })
            .cloned()
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SQL plan vs. directly-constructed plan: same config, same thread
    /// count, bit-identical results (integer aggregates are exact in any
    /// order; `AVG` partial sums stay far below 2^53 here).
    #[test]
    fn sql_matches_hand_wired_plan(case in sql_case_strategy()) {
        let config = AggregateConfig {
            threads: case.threads,
            radix_bits: Some(case.radix_bits),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: 777,
            reset_fill_percent: 66,
            ..Default::default()
        };
        let coll = Arc::new(build_collection(&table_types(), &case.rows));

        let mgr = test_manager(64 << 20);
        let got = run_sql(&coll, &COLUMNS, &case.sql(), &config, &mgr);

        // Hand-wired equivalent: pre-filter, aggregate, post-filter
        // (HAVING), sort, truncate.
        let group_cols = case.group_cols();
        let plan = HashAggregatePlan {
            group_cols: group_cols.clone(),
            aggregates: vec![
                AggregateSpec::count_star(),
                AggregateSpec::count(2),
                AggregateSpec::sum(2),
                AggregateSpec::min(2),
                AggregateSpec::max(2),
                AggregateSpec::avg(2),
            ],
        };
        let filtered = build_collection(&table_types(), &case.filtered_rows());
        let mgr2 = test_manager(64 << 20);
        let source = CollectionSource::new(&filtered);
        let (out, _) =
            hash_aggregate_collect(&mgr2, &source, filtered.types(), &plan, &config).unwrap();
        let mut want = sorted_rows(out.chunks());
        if let Some(h) = case.having_count {
            // COUNT(*) sits right after the group columns.
            let count_col = group_cols.len();
            want.retain(|r| matches!(&r[count_col], Value::Int64(c) if *c > h));
        }
        if let Some(n) = case.limit {
            want.truncate(n);
        }
        prop_assert!(
            rows_bits_eq(&got, &want),
            "SQL and hand-wired plans diverge: {} vs {} rows\nsql: {}",
            got.len(),
            want.len(),
            case.sql()
        );
    }
}

/// The acceptance query: TPC-H Q1 shape through the service's SQL door,
/// bit-identical to the hand-wired plan (`AVG` over scaled-integer cents is
/// exact: partial sums stay below 2^53 at these scale factors).
const Q1_SQL: &str = "SELECT l_returnflag, l_linestatus, SUM(l_quantity), \
     AVG(l_extendedprice), COUNT(*) FROM lineitem \
     WHERE l_shipdate <= '1998-09-02' \
     GROUP BY l_returnflag, l_linestatus \
     ORDER BY l_returnflag, l_linestatus";

/// Q1 cutoff 1998-09-02 in epoch days (validated against the parser's date
/// handling in `q1_cutoff_encoding_is_consistent`).
const Q1_CUTOFF_DAYS: i32 = 10471;

fn q1_hand_wired(coll: &ChunkCollection, config: &AggregateConfig) -> Vec<Vec<Value>> {
    let ship = LineitemColumn::ShipDate.index();
    let filtered_rows: Vec<Vec<Value>> = coll
        .chunks()
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
        .filter(|r| matches!(&r[ship], Value::Date(d) if *d <= Q1_CUTOFF_DAYS))
        .collect();
    let filtered = build_collection(coll.types(), &filtered_rows);
    let plan = HashAggregatePlan {
        group_cols: vec![
            LineitemColumn::ReturnFlag.index(),
            LineitemColumn::LineStatus.index(),
        ],
        aggregates: vec![
            AggregateSpec::sum(LineitemColumn::Quantity.index()),
            AggregateSpec::avg(LineitemColumn::ExtendedPrice.index()),
            AggregateSpec::count_star(),
        ],
    };
    let mgr = test_manager(256 << 20);
    let source = CollectionSource::new(&filtered);
    let (out, _) = hash_aggregate_collect(&mgr, &source, filtered.types(), &plan, config).unwrap();
    let full = sorted_rows(out.chunks());
    // Project to the SELECT list: groups lead the operator's output already.
    full
}

fn q1_through_service(
    coll: &Arc<ChunkCollection>,
    limit: usize,
    options: QueryOptions,
) -> (Vec<Vec<Value>>, u64) {
    let mgr = test_manager(limit);
    let service = QueryService::new(Arc::clone(&mgr), ServiceConfig::default());
    service
        .register_table(
            "lineitem",
            LineitemColumn::ALL
                .iter()
                .map(|c| c.name().to_string())
                .collect(),
            QueryInput::Collection(Arc::clone(coll)),
        )
        .unwrap();
    let handle = service.submit_sql_with(Q1_SQL, options).unwrap();
    let output = handle.wait().unwrap();
    let rows: Vec<Vec<Value>> = output
        .output
        .as_ref()
        .unwrap()
        .chunks()
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
        .collect();
    (rows, output.buffer.temp_bytes_written)
}

#[test]
fn acceptance_q1_matches_hand_wired_plan() {
    let coll = Arc::new(generate_lineitem(0.01, 42));
    let config = AggregateConfig {
        threads: 3,
        radix_bits: Some(4),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: 777,
        reset_fill_percent: 66,
        ..Default::default()
    };
    let want = q1_hand_wired(&coll, &config);
    assert!(!want.is_empty());

    let options = QueryOptions {
        config: config.clone(),
        ..Default::default()
    };
    let (got, _) = q1_through_service(&coll, 256 << 20, options);
    assert!(
        rows_bits_eq(&got, &want),
        "service SQL result diverges from hand-wired plan: {} vs {} rows",
        got.len(),
        want.len()
    );
}

/// The same acceptance query under memory pressure: a limit two orders of
/// magnitude below the comfortable case must not change a single output
/// bit. (Q1 itself cannot spill — phase 1 materializes only *new groups*
/// into partitions, and Q1 has four — so the genuinely spilling SQL run is
/// `sql_high_cardinality_group_by_spills_and_matches` below.)
#[test]
fn acceptance_q1_is_bit_identical_under_memory_pressure() {
    let coll = Arc::new(generate_lineitem(0.02, 7));
    let config = AggregateConfig {
        threads: 3,
        radix_bits: Some(4),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: 777,
        reset_fill_percent: 66,
        ..Default::default()
    };
    let want = q1_hand_wired(&coll, &config);

    // Override the admission footprint so the service admits the query into
    // the tight pool instead of rejecting the reservation.
    let options = QueryOptions {
        config: config.clone(),
        footprint: Some(1 << 20),
        ..Default::default()
    };
    let (got, _) = q1_through_service(&coll, 2 << 20, options);
    assert!(
        rows_bits_eq(&got, &want),
        "memory-pressure run diverges from in-memory hand-wired plan: {} vs {} rows",
        got.len(),
        want.len()
    );
}

/// A SQL run that actually spills: high-cardinality GROUP BY (one group per
/// order) against a tight buffer pool. Integer aggregates make the
/// spilled/in-memory comparison exact.
#[test]
fn sql_high_cardinality_group_by_spills_and_matches() {
    let coll = Arc::new(generate_lineitem(0.02, 11));
    let config = AggregateConfig {
        threads: 4,
        radix_bits: Some(5),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    };
    let sql = "SELECT l_orderkey, COUNT(*), SUM(l_quantity) FROM lineitem \
               GROUP BY l_orderkey ORDER BY l_orderkey";

    // Hand-wired reference with ample memory.
    let plan = HashAggregatePlan {
        group_cols: vec![LineitemColumn::OrderKey.index()],
        aggregates: vec![
            AggregateSpec::count_star(),
            AggregateSpec::sum(LineitemColumn::Quantity.index()),
        ],
    };
    let mgr = test_manager(256 << 20);
    let source = CollectionSource::new(&coll);
    let (out, _) = hash_aggregate_collect(&mgr, &source, coll.types(), &plan, &config).unwrap();
    let want = sorted_rows(out.chunks());

    // SQL through the service against a pool far smaller than the group
    // state; the run must spill.
    let mgr = test_manager(1 << 20);
    let service = QueryService::new(Arc::clone(&mgr), ServiceConfig::default());
    service
        .register_table(
            "lineitem",
            LineitemColumn::ALL
                .iter()
                .map(|c| c.name().to_string())
                .collect(),
            QueryInput::Collection(Arc::clone(&coll)),
        )
        .unwrap();
    let options = QueryOptions {
        config,
        footprint: Some(512 << 10),
        ..Default::default()
    };
    let handle = service.submit_sql_with(sql, options).unwrap();
    let output = handle.wait().unwrap();
    assert!(
        output.buffer.temp_bytes_written > 0,
        "tight pool did not force a spill; the test is vacuous"
    );
    let got: Vec<Vec<Value>> = output
        .output
        .as_ref()
        .unwrap()
        .chunks()
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
        .collect();
    assert!(
        rows_bits_eq(&got, &want),
        "spilling SQL run diverges from in-memory hand-wired plan: {} vs {} rows",
        got.len(),
        want.len()
    );
}

/// A table declared sorted by its grouping key runs phase 1 in-stream from
/// the first row: the planner marks the input sorted and execution promotes
/// the config. The keys are all distinct, so sampling alone (run length 1)
/// would never pick the in-stream path — only the declaration does.
#[test]
fn declared_sorted_table_groups_in_stream_and_matches_reference() {
    let rows: Vec<Vec<Value>> = (0..30_000i64)
        .map(|i| vec![Value::Int64(i), Value::Int64(i % 97 - 48)])
        .collect();
    let two_ints = vec![LogicalType::Int64, LogicalType::Int64];
    let coll = Arc::new(build_collection(&two_ints, &rows));
    let mut catalog = Catalog::new();
    catalog
        .register_collection("t", vec!["k".into(), "v".into()], Arc::clone(&coll))
        .unwrap();
    catalog.declare_sorted("t", &["k"]).unwrap();
    let plan = rexa_sql::plan("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k", &catalog).unwrap();
    assert!(plan.input_sorted, "planner missed the declared sort order");

    let config = AggregateConfig {
        threads: 2,
        ..Default::default()
    };
    let mgr = test_manager(64 << 20);
    let out = Mutex::new(Vec::<DataChunk>::new());
    let stats = rexa_sql::execute_streaming(&mgr, &plan, &config, &ExecContext::new(), &|c| {
        out.lock().push(c);
        Ok(())
    })
    .unwrap();
    assert_eq!(stats.run.profile.strategy, "instream");
    let want = reference_aggregate(
        &CollectionSource::new(&coll),
        coll.types(),
        &[0],
        &[AggregateSpec::count_star(), AggregateSpec::sum(1)],
    )
    .unwrap();
    assert!(rows_bits_eq(&sorted_rows(&out.into_inner()), &want));
}

/// JOIN + GROUP BY through SQL vs. hand-wired `hash_join_streaming` feeding
/// `hash_aggregate_collect`.
#[test]
fn join_group_by_matches_hand_wired_plan() {
    // Fact table: f(k BIGINT, v BIGINT); dimension: d(k BIGINT, w BIGINT).
    let mut rng = StdRng::seed_from_u64(99);
    let fact_rows: Vec<Vec<Value>> = (0..10_000)
        .map(|_| {
            vec![
                Value::Int64(rng.gen_range(0..64)),
                Value::Int64(rng.gen_range(-100..100)),
            ]
        })
        .collect();
    let dim_rows: Vec<Vec<Value>> = (0..48)
        .map(|k| vec![Value::Int64(k), Value::Int64(k * 10)])
        .collect();
    let two_ints = vec![LogicalType::Int64, LogicalType::Int64];
    let fact = Arc::new(build_collection(&two_ints, &fact_rows));
    let dim = Arc::new(build_collection(&two_ints, &dim_rows));

    let config = AggregateConfig {
        threads: 2,
        radix_bits: Some(3),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: 512,
        reset_fill_percent: 66,
        ..Default::default()
    };

    // SQL side.
    let mut catalog = Catalog::new();
    catalog
        .register_collection("f", vec!["k".into(), "v".into()], Arc::clone(&fact))
        .unwrap();
    catalog
        .register_collection("d", vec!["k".into(), "w".into()], Arc::clone(&dim))
        .unwrap();
    let plan = rexa_sql::plan(
        "SELECT d.w, COUNT(*), SUM(f.v) FROM f JOIN d ON f.k = d.k GROUP BY d.w ORDER BY d.w",
        &catalog,
    )
    .unwrap();
    let mgr = test_manager(64 << 20);
    let out = Mutex::new(Vec::<DataChunk>::new());
    rexa_sql::execute_streaming(&mgr, &plan, &config, &ExecContext::new(), &|c| {
        out.lock().push(c);
        Ok(())
    })
    .unwrap();
    let got: Vec<Vec<Value>> = out
        .into_inner()
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
        .collect();

    // Hand-wired side: join (probe = fact, build = dim; output = probe
    // columns then build columns), then aggregate the joined relation.
    let joined_types = vec![
        LogicalType::Int64, // f.k
        LogicalType::Int64, // f.v
        LogicalType::Int64, // d.k
        LogicalType::Int64, // d.w
    ];
    let joined = Mutex::new(ChunkCollection::new(joined_types.clone()));
    let mgr2 = test_manager(64 << 20);
    let build_src = CollectionSource::new(&dim);
    let probe_src = CollectionSource::new(&fact);
    hash_join_streaming(
        &mgr2,
        &build_src,
        &two_ints,
        &probe_src,
        &two_ints,
        &HashJoinPlan {
            build_keys: vec![0],
            probe_keys: vec![0],
        },
        &JoinConfig::default(),
        &ExecContext::new(),
        &|c| joined.lock().push(c),
    )
    .unwrap();
    let joined = joined.into_inner();
    let agg_plan = HashAggregatePlan {
        group_cols: vec![3], // d.w
        aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
    };
    let source = CollectionSource::new(&joined);
    let (out, _) =
        hash_aggregate_collect(&mgr2, &source, &joined_types, &agg_plan, &config).unwrap();
    let want = sorted_rows(out.chunks());

    assert!(
        rows_bits_eq(&got, &want),
        "JOIN + GROUP BY diverges: {} vs {} rows",
        got.len(),
        want.len()
    );
}

/// Malformed SQL at the service boundary: typed errors with byte spans, no
/// queueing, no panics.
#[test]
fn service_sql_errors_are_typed_and_spanned() {
    let mgr = test_manager(16 << 20);
    let service = QueryService::new(Arc::clone(&mgr), ServiceConfig::default());
    let coll = Arc::new(build_collection(
        &[LogicalType::Int64],
        &[vec![Value::Int64(1)]],
    ));
    service
        .register_table("t", vec!["x".into()], QueryInput::Collection(coll))
        .unwrap();

    // Parse error: span points at the offending position.
    let sql = "SELECT x FROM t WHERE";
    match service.submit_sql(sql) {
        Err(SqlError::Parse { span, .. }) => {
            assert_eq!(span.start, sql.len(), "span should point at end of input")
        }
        Err(other) => panic!("expected parse error, got {other:?}"),
        Ok(_) => panic!("expected parse error, got a query handle"),
    }

    // Bind error: unknown table, span covers the table name.
    let sql = "SELECT x FROM nope";
    match service.submit_sql(sql) {
        Err(e @ SqlError::Bind { .. }) => {
            let span = e.span().unwrap();
            assert_eq!(&sql[span.start..span.end], "nope");
            // The rendered diagnostic names the registered tables.
            assert!(e.render(sql).contains('t'));
        }
        Err(other) => panic!("expected bind error, got {other:?}"),
        Ok(_) => panic!("expected bind error, got a query handle"),
    }

    // Bind error: unknown column.
    let sql = "SELECT y FROM t";
    match service.submit_sql(sql) {
        Err(SqlError::Bind { span, .. }) => assert_eq!(&sql[span.start..span.end], "y"),
        Err(other) => panic!("expected bind error, got {other:?}"),
        Ok(_) => panic!("expected bind error, got a query handle"),
    }

    // A valid query still runs (the service is not poisoned by errors).
    let handle = service.submit_sql("SELECT COUNT(*) FROM t").unwrap();
    let output = handle.wait().unwrap();
    assert_eq!(
        output.output.unwrap().chunks()[0].row(0),
        vec![Value::Int64(1)]
    );
}

/// Fuzz smoke: the parser must never panic — every input either parses or
/// returns a spanned error within the source text's bounds.
#[test]
fn parser_fuzz_smoke_never_panics() {
    let seeds = [
        "SELECT a, SUM(b) FROM t WHERE c >= 1 GROUP BY a HAVING COUNT(*) > 2 ORDER BY a LIMIT 5",
        "SELECT * FROM t JOIN u ON t.a = u.b",
        "SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= '1998-09-02'",
    ];
    let mut rng = StdRng::seed_from_u64(0xF0221);
    let charset: Vec<char> =
        "SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT JOIN ON ab*(),.;'=<>!0129 \n\t_"
            .chars()
            .collect();
    let check = |input: &str| {
        if let Err(e) = rexa_sql::parse(input) {
            let span = e.span().expect("parse errors always carry a span");
            assert!(
                span.start <= span.end && span.end <= input.len(),
                "span {span:?} out of bounds for input of {} bytes",
                input.len()
            );
        }
    };
    for seed in seeds {
        check(seed);
        for _ in 0..400 {
            // Mutate: truncate, splice random characters, duplicate slices.
            let mut s: Vec<char> = seed.chars().collect();
            for _ in 0..rng.gen_range(1..8) {
                match rng.gen_range(0..3) {
                    0 if !s.is_empty() => {
                        let cut = rng.gen_range(0..s.len());
                        s.remove(cut);
                    }
                    1 => {
                        let pos = rng.gen_range(0..=s.len());
                        let ch = charset[rng.gen_range(0..charset.len())];
                        s.insert(pos, ch);
                    }
                    _ if s.len() > 2 => {
                        let a = rng.gen_range(0..s.len());
                        let b = rng.gen_range(a..s.len());
                        let slice: Vec<char> = s[a..b].to_vec();
                        s.extend(slice);
                    }
                    _ => {}
                }
            }
            let input: String = s.into_iter().collect();
            check(&input);
        }
        // Pure noise, too.
        for _ in 0..100 {
            let len = rng.gen_range(0..60);
            let input: String = (0..len)
                .map(|_| charset[rng.gen_range(0..charset.len())])
                .collect();
            check(&input);
        }
    }
}

/// The date literal used by the acceptance query encodes to the day number
/// the hand-wired filter uses.
#[test]
fn q1_cutoff_encoding_is_consistent() {
    assert_eq!(
        rexa_sql::plan::parse_date("1998-09-02"),
        Some(Q1_CUTOFF_DAYS)
    );
}
