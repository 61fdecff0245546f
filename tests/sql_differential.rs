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
use std::cmp::Ordering;
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
/// `t(k1 BIGINT, k2 VARCHAR, v1 BIGINT, d1 DATE, i1 INT, f1 DOUBLE,
/// s1 VARCHAR)`.
#[derive(Debug, Clone)]
struct SqlCase {
    rows: Vec<Vec<Value>>,
    /// Which columns to group by (0 => `k1`, 1 => `k1, k2`, 2 => `k2`).
    group_choice: usize,
    /// `WHERE`, when set.
    filter: Option<Where>,
    /// `HAVING COUNT(*) > h` when set.
    having_count: Option<i64>,
    limit: Option<usize>,
    threads: usize,
    radix_bits: u32,
}

const COLUMNS: [&str; 7] = ["k1", "k2", "v1", "d1", "i1", "f1", "s1"];

fn table_types() -> Vec<LogicalType> {
    vec![
        LogicalType::Int64,
        LogicalType::Varchar,
        LogicalType::Int64,
        LogicalType::Date,
        LogicalType::Int32,
        LogicalType::Float64,
        LogicalType::Varchar,
    ]
}

/// Known date literals and their epoch-day encodings (all in 1970, matching
/// the `d1` domain below).
const DATES: [(&str, i32); 3] = [("1970-01-31", 30), ("1970-03-01", 59), ("1970-06-30", 180)];

/// The six comparison operators, as written in SQL.
const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// Column pairs of one type compared with each other (`CmpCols`),
/// including a column against itself, which holds exactly on its non-NULL
/// rows under `=`.
const COLUMN_PAIRS: [(usize, usize); 6] = [(0, 2), (2, 0), (1, 6), (4, 4), (5, 5), (3, 3)];

/// One `WHERE` comparison.
#[derive(Debug, Clone)]
enum Atom {
    /// `COLUMNS[col] <OPS[op]> lit`; `lit` has the column's type.
    Lit { col: usize, op: usize, lit: Value },
    /// `COLUMNS[a] <OPS[op]> COLUMNS[b]`.
    Cols { a: usize, op: usize, b: usize },
}

/// A left-deep `WHERE`: `((a0 c1 a1) c2 a2) …`, `cN` OR when `ors[N-1]`.
#[derive(Debug, Clone)]
struct Where {
    atoms: Vec<Atom>,
    ors: Vec<bool>,
}

fn op_holds(op: usize, ord: Ordering) -> bool {
    match OPS[op] {
        "=" => ord.is_eq(),
        "<>" => ord.is_ne(),
        "<" => ord.is_lt(),
        "<=" => ord.is_le(),
        ">" => ord.is_gt(),
        _ => ord.is_ge(),
    }
}

/// A comparison of two cells: never satisfied when either is NULL.
fn cmp_holds(op: usize, a: &Value, b: &Value) -> bool {
    !matches!(a, Value::Null) && !matches!(b, Value::Null) && op_holds(op, a.total_cmp(b))
}

fn group_key(v: i64) -> String {
    format!("group key {v:04}")
}

impl Atom {
    /// A literal of column `col`'s type drawn from `raw`.
    fn literal(col: usize, raw: i64) -> Value {
        match col {
            0 => Value::Int64(raw % 40),
            1 | 6 => Value::Varchar(group_key(raw % 25)),
            2 => Value::Int64(raw % 1000 - 500),
            3 => Value::Date(DATES[raw as usize % DATES.len()].1),
            4 => Value::Int32((raw % 100 - 50) as i32),
            _ => Value::Float64((raw % 80 - 40) as f64 / 4.0),
        }
    }

    fn sql(&self) -> String {
        match self {
            Atom::Lit { col, op, lit } => {
                let lit = match lit {
                    Value::Varchar(s) => format!("'{s}'"),
                    Value::Date(d) => {
                        let (text, _) = DATES.iter().find(|(_, days)| days == d).unwrap();
                        format!("'{text}'")
                    }
                    Value::Float64(f) => format!("{f:?}"),
                    other => other.to_string(),
                };
                format!("{} {} {lit}", COLUMNS[*col], OPS[*op])
            }
            Atom::Cols { a, op, b } => format!("{} {} {}", COLUMNS[*a], OPS[*op], COLUMNS[*b]),
        }
    }

    fn holds(&self, row: &[Value]) -> bool {
        match self {
            Atom::Lit { col, op, lit } => cmp_holds(*op, &row[*col], lit),
            Atom::Cols { a, op, b } => cmp_holds(*op, &row[*a], &row[*b]),
        }
    }
}

impl Where {
    fn sql(&self) -> String {
        let mut sql = self.atoms[0].sql();
        for (atom, &or) in self.atoms[1..].iter().zip(&self.ors) {
            sql = format!("({sql}) {} {}", if or { "OR" } else { "AND" }, atom.sql());
        }
        sql
    }

    fn holds(&self, row: &[Value]) -> bool {
        let mut holds = self.atoms[0].holds(row);
        for (atom, &or) in self.atoms[1..].iter().zip(&self.ors) {
            holds = if or {
                holds || atom.holds(row)
            } else {
                holds && atom.holds(row)
            };
        }
        holds
    }
}

/// `Option<T>` strategy (the vendored proptest has no `prop::option`):
/// `None` one time in four, `Some` from `s` otherwise.
fn opt<T, S>(s: S) -> BoxedStrategy<Option<T>>
where
    T: Clone + std::fmt::Debug + 'static,
    S: Strategy<Value = T> + 'static,
{
    prop_oneof![1 => Just(None), 3 => s.prop_map(Some)].boxed()
}

/// Table rows whose cells are NULL `null_pct` percent of the time.
fn rows_strategy(null_pct: u32) -> impl Strategy<Value = Vec<Vec<Value>>> {
    let row = (
        (0i64..40, 0i64..25, -1000i64..1000, 0i32..200),
        (-50i32..50, -40i64..40, 0i64..25),
        prop::collection::vec(0u32..100, 7),
    )
        .prop_map(move |((k1, k2, v1, d1), (i1, f1, s1), nulls)| {
            let cells = [
                Value::Int64(k1),
                Value::Varchar(group_key(k2)),
                Value::Int64(v1),
                Value::Date(d1),
                Value::Int32(i1),
                Value::Float64(f1 as f64 / 4.0),
                Value::Varchar(group_key(s1)),
            ];
            cells
                .into_iter()
                .zip(nulls)
                .map(|(v, p)| if p < null_pct { Value::Null } else { v })
                .collect::<Vec<Value>>()
        });
    prop::collection::vec(row, 0..2500)
}

fn atom_strategy() -> impl Strategy<Value = Atom> {
    (
        0u32..4,
        0usize..COLUMNS.len(),
        0usize..COLUMN_PAIRS.len(),
        0usize..OPS.len(),
        0i64..1_000_000,
    )
        .prop_map(|(kind, col, pair, op, raw)| {
            if kind == 0 {
                let (a, b) = COLUMN_PAIRS[pair];
                Atom::Cols { a, op, b }
            } else {
                Atom::Lit {
                    col,
                    op,
                    lit: Atom::literal(col, raw),
                }
            }
        })
}

fn where_strategy() -> BoxedStrategy<Option<Where>> {
    opt((
        prop::collection::vec(atom_strategy(), 1..5),
        prop::collection::vec(any::<bool>(), 4),
    )
        .prop_map(|(atoms, mut ors)| {
            ors.truncate(atoms.len() - 1);
            Where { atoms, ors }
        }))
}

fn sql_case_strategy() -> impl Strategy<Value = SqlCase> {
    (
        // One case in three is NULL-heavy.
        prop_oneof![2 => Just(10u32), 1 => Just(60u32)].prop_flat_map(rows_strategy),
        0usize..3,
        where_strategy(),
        opt(1i64..40),
        opt(1usize..50),
        1usize..4,
        0u32..5,
    )
        .prop_map(
            |(rows, group_choice, filter, having_count, limit, threads, radix_bits)| SqlCase {
                rows,
                group_choice,
                filter,
                having_count,
                limit,
                threads,
                radix_bits,
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

    fn where_sql(&self) -> String {
        self.filter
            .as_ref()
            .map_or(String::new(), |w| format!(" WHERE {}", w.sql()))
    }

    fn sql(&self) -> String {
        let groups: Vec<&str> = self.group_cols().iter().map(|&c| COLUMNS[c]).collect();
        let group_list = groups.join(", ");
        let mut sql = format!(
            "SELECT {group_list}, COUNT(*), COUNT(v1), SUM(v1), MIN(v1), MAX(v1), AVG(v1), \
             SUM(i1), MAX(f1) FROM t{}",
            self.where_sql()
        );
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
            .filter(|r| self.filter.as_ref().is_none_or(|w| w.holds(r)))
            .cloned()
            .collect()
    }

    fn config(&self) -> AggregateConfig {
        AggregateConfig {
            threads: self.threads,
            radix_bits: Some(self.radix_bits),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: 777,
            reset_fill_percent: 66,
            ..Default::default()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SQL plan vs. directly-constructed plan: same config, same thread
    /// count, bit-identical results (integer aggregates are exact in any
    /// order; `AVG` partial sums stay far below 2^53 here).
    #[test]
    fn sql_matches_hand_wired_plan(case in sql_case_strategy()) {
        let config = case.config();
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
                AggregateSpec::sum(4),
                AggregateSpec::max(5),
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

    /// Without aggregation the filter gathers only the projected columns:
    /// a plain scan with `WHERE`, projection and `ORDER BY`, and
    /// `COUNT(*)` alone — a filter that passes up no column at all — match
    /// a row-at-a-time reference.
    #[test]
    fn sql_plain_scan_and_count_star_match_reference(case in sql_case_strategy()) {
        let config = case.config();
        let coll = Arc::new(build_collection(&table_types(), &case.rows));
        let mgr = test_manager(64 << 20);
        let filtered = case.filtered_rows();

        let sql = format!("SELECT f1, k2, v1 FROM t{} ORDER BY v1, k2 DESC, f1", case.where_sql());
        let got = run_sql(&coll, &COLUMNS, &sql, &config, &mgr);
        let mut want: Vec<Vec<Value>> = filtered
            .iter()
            .map(|r| vec![r[5].clone(), r[1].clone(), r[2].clone()])
            .collect();
        want.sort_by(|a, b| {
            a[2].total_cmp(&b[2])
                .then(b[1].total_cmp(&a[1]))
                .then(a[0].total_cmp(&b[0]))
        });
        prop_assert!(rows_bits_eq(&got, &want), "plain scan diverges\nsql: {}", sql);

        let sql = format!("SELECT COUNT(*) FROM t{}", case.where_sql());
        let got = run_sql(&coll, &COLUMNS, &sql, &config, &mgr);
        prop_assert!(
            rows_bits_eq(&got, &[vec![Value::Int64(filtered.len() as i64)]]),
            "COUNT(*) {:?} vs {} rows\nsql: {}",
            got,
            filtered.len(),
            sql
        );

        // Grouped, with COUNT(*) the only output: per-`k1` counts.
        let sql = format!("SELECT COUNT(*) FROM t{} GROUP BY k1 ORDER BY 1", case.where_sql());
        let got = run_sql(&coll, &COLUMNS, &sql, &config, &mgr);
        let mut counts = std::collections::BTreeMap::<String, i64>::new();
        for r in &filtered {
            *counts.entry(r[0].to_string()).or_default() += 1;
        }
        let mut want: Vec<Vec<Value>> = counts.into_values().map(|c| vec![Value::Int64(c)]).collect();
        want.sort_by(|a, b| a[0].total_cmp(&b[0]));
        prop_assert!(rows_bits_eq(&got, &want), "grouped COUNT(*) diverges\nsql: {}", sql);
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

/// The JOIN fixture: fact `f(k BIGINT, v BIGINT)`, dimension
/// `d(k BIGINT, w BIGINT)`, both registered in a catalog, and their join
/// on `k` built by hand — probe (fact) columns then build (dimension)
/// columns, the schema SQL's join produces.
struct JoinFixture {
    catalog: Catalog,
    joined: ChunkCollection,
    config: AggregateConfig,
}

fn join_fixture() -> JoinFixture {
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

    let mut catalog = Catalog::new();
    catalog
        .register_collection("f", vec!["k".into(), "v".into()], Arc::clone(&fact))
        .unwrap();
    catalog
        .register_collection("d", vec!["k".into(), "w".into()], Arc::clone(&dim))
        .unwrap();

    let joined = Mutex::new(ChunkCollection::new(vec![LogicalType::Int64; 4]));
    hash_join_streaming(
        &test_manager(64 << 20),
        &CollectionSource::new(&dim),
        &two_ints,
        &CollectionSource::new(&fact),
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
    JoinFixture {
        catalog,
        joined: joined.into_inner(),
        config: AggregateConfig {
            threads: 2,
            radix_bits: Some(3),
            ht_capacity: 4 * VECTOR_SIZE,
            output_chunk_size: 512,
            reset_fill_percent: 66,
            ..Default::default()
        },
    }
}

impl JoinFixture {
    /// Run `sql` and collect its rows in delivery order.
    fn run(&self, sql: &str) -> Vec<Vec<Value>> {
        let plan = rexa_sql::plan(sql, &self.catalog).unwrap();
        let out = Mutex::new(Vec::<DataChunk>::new());
        rexa_sql::execute_streaming(
            &test_manager(64 << 20),
            &plan,
            &self.config,
            &ExecContext::new(),
            &|c| {
                out.lock().push(c);
                Ok(())
            },
        )
        .unwrap();
        let chunks = out.into_inner();
        chunks
            .iter()
            .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
            .collect()
    }

    /// `COUNT(*), SUM(f.v)` grouped by `d.w` over the joined rows that pass
    /// `keep`, in key order.
    fn count_sum_by_w(&self, keep: impl Fn(&[Value]) -> bool) -> Vec<Vec<Value>> {
        let rows: Vec<Vec<Value>> = self
            .joined
            .chunks()
            .iter()
            .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
            .filter(|r| keep(r))
            .collect();
        let input = build_collection(self.joined.types(), &rows);
        let plan = HashAggregatePlan {
            group_cols: vec![3], // d.w
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        let (out, _) = hash_aggregate_collect(
            &test_manager(64 << 20),
            &CollectionSource::new(&input),
            input.types(),
            &plan,
            &self.config,
        )
        .unwrap();
        sorted_rows(out.chunks())
    }
}

/// A WHERE in front of a declared-sorted scan keeps row order, so the plan
/// still claims sorted input, phase 1 still runs in-stream, and the result
/// matches the reference over the filtered rows.
#[test]
fn declared_sorted_table_with_where_still_groups_in_stream() {
    let rows: Vec<Vec<Value>> = (0..30_000i64)
        .map(|i| vec![Value::Int64(i / 3), Value::Int64(i % 97 - 48)])
        .collect();
    let two_ints = vec![LogicalType::Int64, LogicalType::Int64];
    let coll = Arc::new(build_collection(&two_ints, &rows));
    let mut catalog = Catalog::new();
    catalog
        .register_collection("t", vec!["k".into(), "v".into()], Arc::clone(&coll))
        .unwrap();
    catalog.declare_sorted("t", &["k"]).unwrap();
    let plan = rexa_sql::plan(
        "SELECT k, COUNT(*), SUM(v) FROM t WHERE v >= 0 AND k <> 77 GROUP BY k",
        &catalog,
    )
    .unwrap();
    assert!(
        plan.input_sorted,
        "a WHERE must not hide the declared order"
    );
    assert!(
        plan.explain().contains("input=sorted"),
        "{}",
        plan.explain()
    );

    let config = AggregateConfig {
        threads: 2,
        ..Default::default()
    };
    let out = Mutex::new(Vec::<DataChunk>::new());
    let stats = rexa_sql::execute_streaming(
        &test_manager(64 << 20),
        &plan,
        &config,
        &ExecContext::new(),
        &|c| {
            out.lock().push(c);
            Ok(())
        },
    )
    .unwrap();
    assert_eq!(stats.run.profile.strategy, "instream");
    let kept: Vec<Vec<Value>> = rows
        .into_iter()
        .filter(
            |r| matches!((&r[0], &r[1]), (Value::Int64(k), Value::Int64(v)) if *v >= 0 && *k != 77),
        )
        .collect();
    let filtered = build_collection(&two_ints, &kept);
    let want = reference_aggregate(
        &CollectionSource::new(&filtered),
        filtered.types(),
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
    let fx = join_fixture();
    let got = fx
        .run("SELECT d.w, COUNT(*), SUM(f.v) FROM f JOIN d ON f.k = d.k GROUP BY d.w ORDER BY d.w");
    let want = fx.count_sum_by_w(|_| true);
    assert!(
        rows_bits_eq(&got, &want),
        "JOIN + GROUP BY diverges: {} vs {} rows",
        got.len(),
        want.len()
    );
}

/// JOIN … WHERE … GROUP BY: the filter runs over the joined schema —
/// predicates on both sides, one comparing a probe column with a build
/// column — and passes up only the grouping and argument columns.
#[test]
fn join_where_group_by_matches_hand_wired_plan() {
    let fx = join_fixture();
    let sql = "SELECT d.w, COUNT(*), SUM(f.v) FROM f JOIN d ON f.k = d.k \
               WHERE (f.v > 0 OR d.w = 100) AND f.v <> d.k \
               GROUP BY d.w ORDER BY d.w";
    let explain = rexa_sql::plan(sql, &fx.catalog).unwrap().explain();
    assert!(explain.contains("FILTER (where) keep=[v, w]"), "{explain}");
    let got = fx.run(sql);
    let int = |v: &Value| match v {
        Value::Int64(x) => *x,
        other => panic!("unexpected {other:?}"),
    };
    let want = fx.count_sum_by_w(|r| {
        let (fv, dk, dw) = (int(&r[1]), int(&r[2]), int(&r[3]));
        (fv > 0 || dw == 100) && fv != dk
    });
    assert!(!want.is_empty());
    assert!(
        rows_bits_eq(&got, &want),
        "JOIN + WHERE + GROUP BY diverges: {} vs {} rows",
        got.len(),
        want.len()
    );
}

/// A plain scan of lineitem with a WHERE over strings, dates compared
/// column to column, and an OR; projection; ORDER BY with LIMIT.
#[test]
fn plain_scan_where_projection_order_by_matches_reference() {
    let coll = Arc::new(generate_lineitem(0.01, 5));
    let names: Vec<&str> = LineitemColumn::ALL.iter().map(|c| c.name()).collect();
    let sql = "SELECT l_shipmode, l_orderkey, l_quantity FROM t \
               WHERE l_shipmode <> 'AIR' AND (l_quantity < 5 OR l_receiptdate > l_commitdate) \
               ORDER BY l_orderkey DESC, l_quantity, l_shipmode LIMIT 500";
    let config = AggregateConfig::default();
    let got = run_sql(&coll, &names, sql, &config, &test_manager(64 << 20));

    let col = |c: LineitemColumn| c.index();
    let mut want: Vec<Vec<Value>> = coll
        .chunks()
        .iter()
        .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
        .filter(|r| {
            r[col(LineitemColumn::ShipMode)] != Value::Varchar("AIR".into())
                && (r[col(LineitemColumn::Quantity)]
                    .total_cmp(&Value::Int64(5))
                    .is_lt()
                    || r[col(LineitemColumn::ReceiptDate)]
                        .total_cmp(&r[col(LineitemColumn::CommitDate)])
                        .is_gt())
        })
        .map(|r| {
            vec![
                r[col(LineitemColumn::ShipMode)].clone(),
                r[col(LineitemColumn::OrderKey)].clone(),
                r[col(LineitemColumn::Quantity)].clone(),
            ]
        })
        .collect();
    want.sort_by(|a, b| {
        b[1].total_cmp(&a[1])
            .then(a[2].total_cmp(&b[2]))
            .then(a[0].total_cmp(&b[0]))
    });
    want.truncate(500);
    assert_eq!(want.len(), 500);
    assert!(
        rows_bits_eq(&got, &want),
        "{} vs {} rows",
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
