//! The six workloads: their data, SQL, memory limit and reference results,
//! and the set-up that turns one into a running service.
//!
//! Every workload runs with `ServiceConfig`, `QueryOptions` and
//! `BufferManagerConfig::with_limit` defaults; only the thread count, the
//! memory limit and the spill directory are set.

use crate::check::Checksum;
use rexa_buffer::{BufferManager, BufferManagerConfig, Table, TableBuilder};
use rexa_core::simple::reference_aggregate;
use rexa_core::{plan_row_width, AggregateConfig, AggregateSpec, HashAggregatePlan};
use rexa_exec::pipeline::CollectionSource;
use rexa_exec::vector::VectorData;
use rexa_exec::{ChunkCollection, DataChunk, LogicalType, Value, Vector};
use rexa_layout::string::INLINE_LEN;
use rexa_service::{estimate_footprint, QueryInput, QueryOptions, QueryService, ServiceConfig};
use rexa_storage::DatabaseFile;
use rexa_tpch::{clustered_table, generate_lineitem, LineitemColumn as L};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What a workload's tables are generated from.
#[derive(Clone, Copy)]
enum Data {
    /// TPC-H `lineitem` at this scale factor (about 6 M rows per unit).
    Lineitem { sf: f64 },
    /// `rexa_tpch::clustered_table`: `(k, v)` with keys in runs of `run_len`.
    Clustered { rows: usize, run_len: usize },
}

/// How the buffer manager's memory limit follows from the data.
#[derive(Clone, Copy)]
enum Limit {
    /// Far above anything the workload touches.
    Ample,
    /// This many times the heavy query's intermediates (see [`Sizes`]).
    Intermediates { times: f64 },
}

#[derive(Clone, Copy)]
enum QueryKind {
    LowCard,
    Sorted,
    Wide,
    Thin,
}

pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the report.
    pub why: &'static str,
    data: Data,
    limit: Limit,
    /// One closed-loop client per entry; the first one's latencies are the
    /// workload's `query_p50_ms` / `query_tail_ms`.
    clients: &'static [QueryKind],
}

// Data sizes put 100–200 timed queries (500 on `sorted_mem`) into a 10 s
// window on two cores, well inside one band of the tail-percentile rule
// (`stats::tail`), so the percentile reported does not flip between runs.
//
// Limits of the spilling workloads are multiples of the intermediates. The
// service reserves its footprint estimate (about half the intermediates at
// the default eight partitions) as unspillable for the whole query and
// phase 2 pins whole partitions on top, so limits below the intermediates
// cannot run. First limit without out-of-memory, measured at these sizes:
// wide 1.3x, thin 1.0x, mixed 2.0x; the limits used sit 15–25% above.

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "lowcard_mem",
        why: "4 groups, filtered scan, all in memory: scan, filter, phase-1 probe and the shared-index chooser do the work; buffer, storage and phase 2 do none",
        data: Data::Lineitem { sf: 0.05 },
        limit: Limit::Ample,
        clients: &[QueryKind::LowCard],
    },
    Spec {
        name: "sorted_mem",
        why: "keys clustered in runs of 32, in memory: the sorted-input detector must route to the in-stream path, so hash-probe changes should not move it",
        data: Data::Clustered { rows: 3_000_000, run_len: 32 },
        limit: Limit::Ample,
        clients: &[QueryKind::Sorted],
    },
    Spec {
        name: "wide_mem",
        why: "all-distinct groups with string payloads from a paged table, limit 6x intermediates: ht resets, scatter, phase-2 merge and a result as large as the input, with zero spill I/O",
        data: Data::Lineitem { sf: 0.04 },
        limit: Limit::Intermediates { times: 6.0 },
        clients: &[QueryKind::Wide],
    },
    Spec {
        name: "wide_spill4x",
        why: "wide_mem's data and SQL under a quarter of its limit (1.5x intermediates): eviction, spill write, reload with pointer recomputation, table and spill pages competing in one pool",
        data: Data::Lineitem { sf: 0.04 },
        limit: Limit::Intermediates { times: 1.5 },
        clients: &[QueryKind::Wide],
    },
    Spec {
        name: "thin_spill2x",
        why: "all-distinct integer-only groups in key order from memory, limit 1.2x intermediates so about half of them spill: fixed-width rows only, without the string heap wide_spill4x stresses",
        data: Data::Lineitem { sf: 0.15 },
        limit: Limit::Intermediates { times: 1.2 },
        clients: &[QueryKind::Thin],
    },
    Spec {
        name: "mixed_2c",
        why: "two clients in one pool of 2.5x intermediates, the least both fit in: the lowcard query's latency beside a spilling neighbour shows queue wait, reservation and eviction of another's pages",
        data: Data::Lineitem { sf: 0.04 },
        limit: Limit::Intermediates { times: 2.5 },
        clients: &[QueryKind::LowCard, QueryKind::Wide],
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A query as SQL text plus the same query written down independently of
/// the SQL front end, for the reference run.
struct QueryDef {
    sql: String,
    paged: bool,
    plan: HashAggregatePlan,
    /// `WHERE <date column> <= <days since 1970>`.
    filter: Option<(usize, i32)>,
}

/// Cut-off of the lowcard filter; about nine tenths of the rows pass.
const SHIPDATE_CUTOFF: &str = "1997-12-01";

impl QueryKind {
    // Aggregates are integer SUM/COUNT/MIN/MAX, whose result does not depend
    // on the order rows arrive in; ANY_VALUE is used only where every group
    // has exactly one row (MIN over strings is not supported by the engine).
    fn def(self) -> QueryDef {
        let c = |col: L| col.index();
        match self {
            QueryKind::LowCard => QueryDef {
                sql: format!(
                    "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), \
                     SUM(l_discount), MIN(l_tax), MAX(l_extendedprice), COUNT(*) \
                     FROM lineitem_mem WHERE l_shipdate <= '{SHIPDATE_CUTOFF}' \
                     GROUP BY l_returnflag, l_linestatus"
                ),
                paged: false,
                plan: HashAggregatePlan {
                    group_cols: vec![c(L::ReturnFlag), c(L::LineStatus)],
                    aggregates: vec![
                        AggregateSpec::sum(c(L::Quantity)),
                        AggregateSpec::sum(c(L::ExtendedPrice)),
                        AggregateSpec::sum(c(L::Discount)),
                        AggregateSpec::min(c(L::Tax)),
                        AggregateSpec::max(c(L::ExtendedPrice)),
                        AggregateSpec::count_star(),
                    ],
                },
                filter: Some((
                    c(L::ShipDate),
                    rexa_sql::plan::parse_date(SHIPDATE_CUTOFF).expect("valid date"),
                )),
            },
            QueryKind::Sorted => QueryDef {
                sql: "SELECT k, SUM(v), MIN(v), MAX(v), COUNT(*) FROM clustered GROUP BY k".into(),
                paged: false,
                plan: HashAggregatePlan {
                    group_cols: vec![0],
                    aggregates: vec![
                        AggregateSpec::sum(1),
                        AggregateSpec::min(1),
                        AggregateSpec::max(1),
                        AggregateSpec::count_star(),
                    ],
                },
                filter: None,
            },
            QueryKind::Wide => QueryDef {
                sql: "SELECT l_orderkey, l_linenumber, ANY_VALUE(l_comment), \
                      ANY_VALUE(l_shipinstruct), SUM(l_quantity), SUM(l_extendedprice), \
                      MAX(l_discount), COUNT(*) FROM lineitem GROUP BY l_orderkey, l_linenumber"
                    .into(),
                paged: true,
                plan: HashAggregatePlan {
                    group_cols: vec![c(L::OrderKey), c(L::LineNumber)],
                    aggregates: vec![
                        AggregateSpec::any_value(c(L::Comment)),
                        AggregateSpec::any_value(c(L::ShipInstruct)),
                        AggregateSpec::sum(c(L::Quantity)),
                        AggregateSpec::sum(c(L::ExtendedPrice)),
                        AggregateSpec::max(c(L::Discount)),
                        AggregateSpec::count_star(),
                    ],
                },
                filter: None,
            },
            QueryKind::Thin => QueryDef {
                sql: "SELECT l_orderkey, l_linenumber, SUM(l_quantity), SUM(l_extendedprice), \
                      MAX(l_discount), MIN(l_tax), COUNT(*) FROM lineitem_mem \
                      GROUP BY l_orderkey, l_linenumber"
                    .into(),
                paged: false,
                plan: HashAggregatePlan {
                    group_cols: vec![c(L::OrderKey), c(L::LineNumber)],
                    aggregates: vec![
                        AggregateSpec::sum(c(L::Quantity)),
                        AggregateSpec::sum(c(L::ExtendedPrice)),
                        AggregateSpec::max(c(L::Discount)),
                        AggregateSpec::min(c(L::Tax)),
                        AggregateSpec::count_star(),
                    ],
                },
                filter: None,
            },
        }
    }
}

/// One closed-loop client of a set-up workload.
pub struct Client {
    pub sql: String,
    pub reference: Checksum,
    /// Whether the query scans the paged table (else the in-memory one).
    pub paged: bool,
}

/// The sizes a result file records per workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sizes {
    pub rows: usize,
    /// In-memory size of the generated table: the bytes one query scans.
    pub input_bytes: usize,
    /// Bytes of the heaviest client's fully aggregated state: groups ×
    /// fixed row width, plus the strings too long to sit inside the row.
    pub intermediate_bytes: usize,
    pub limit_bytes: usize,
    /// The service's admission estimate for the heaviest client, reserved
    /// as unspillable while the query runs.
    pub footprint_bytes: usize,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
}

/// A workload ready to take queries.
pub struct Env {
    pub spec: &'static Spec,
    pub threads: usize,
    pub mgr: Arc<BufferManager>,
    pub service: QueryService,
    pub data: Arc<ChunkCollection>,
    pub table: Option<Arc<Table>>,
    pub clients: Vec<Client>,
    pub sizes: Sizes,
    pub setup: SetupTimes,
    // Keeps the database file open for as long as the table's pages may be
    // read back.
    _db: Option<Arc<DatabaseFile>>,
}

/// Engine and pool threads: two where there are two cores. Not more: the
/// spilling workloads' limits sit just above what the engine needs at two
/// threads (eight partitions), and at four threads phase 1's pinned pages
/// (threads × partitions × a row and a heap page) no longer fit under them
/// — every query then ends in out-of-memory.
pub fn engine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The options every query is submitted with: defaults, at `threads`.
pub fn query_options(threads: usize) -> QueryOptions {
    QueryOptions {
        config: AggregateConfig::with_threads(threads),
        ..Default::default()
    }
}

impl Spec {
    /// Generate the data from `seed`, load it, start the service and compute
    /// the reference results.
    pub fn setup(&'static self, seed: u64, dir: &Path) -> Env {
        let t_setup = Instant::now();
        let threads = engine_threads();

        let (data, columns): (ChunkCollection, Vec<String>) = match self.data {
            Data::Lineitem { sf } => (
                generate_lineitem(sf, seed),
                L::ALL.iter().map(|c| c.name().to_string()).collect(),
            ),
            Data::Clustered { rows, run_len } => (
                clustered_table(rows, run_len, seed),
                vec!["k".into(), "v".into()],
            ),
        };
        let generate_s = t_setup.elapsed().as_secs_f64();
        let data = Arc::new(data);
        let schema = data.types().to_vec();

        let defs: Vec<QueryDef> = self.clients.iter().map(|k| k.def()).collect();
        let references: Vec<Vec<Vec<Value>>> =
            defs.iter().map(|d| reference_rows(d, &data)).collect();

        // Size the pool from the heaviest client.
        let config = query_options(threads).config;
        let page_size = rexa_storage::DEFAULT_PAGE_SIZE;
        let mut sizes = Sizes {
            rows: data.rows(),
            input_bytes: data.approx_bytes(),
            ..Default::default()
        };
        for (def, rows) in defs.iter().zip(&references) {
            let row_width = plan_row_width(&def.plan, &schema).expect("plan binds");
            let heap: usize = rows
                .iter()
                .flatten()
                .filter_map(|v| match v {
                    Value::Varchar(s) if s.len() > INLINE_LEN => Some(s.len()),
                    _ => None,
                })
                .sum();
            sizes.intermediate_bytes = sizes.intermediate_bytes.max(rows.len() * row_width + heap);
            sizes.footprint_bytes = sizes.footprint_bytes.max(estimate_footprint(
                &config,
                page_size,
                data.rows(),
                row_width,
            ));
        }
        sizes.limit_bytes = match self.limit {
            Limit::Ample => 1 << 30,
            Limit::Intermediates { times } => {
                let pages = (sizes.intermediate_bytes as f64 * times / page_size as f64).ceil();
                pages as usize * page_size
            }
        };

        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(sizes.limit_bytes).temp_dir(dir.join("spill")),
        )
        .expect("buffer manager");
        let service = QueryService::new(
            Arc::clone(&mgr),
            ServiceConfig {
                pool_threads: threads,
                ..Default::default()
            },
        );

        let mem_name = match self.data {
            Data::Lineitem { .. } => "lineitem_mem",
            Data::Clustered { .. } => "clustered",
        };
        service
            .register_table(
                mem_name,
                columns.clone(),
                QueryInput::Collection(Arc::clone(&data)),
            )
            .expect("register in-memory table");
        let (mut table, mut db) = (None, None);
        if defs.iter().any(|d| d.paged) {
            let file = Arc::new(
                DatabaseFile::create(&dir.join("lineitem.db"), page_size).expect("database file"),
            );
            let mut builder = TableBuilder::new(Arc::clone(&mgr), Arc::clone(&file), schema);
            for chunk in data.chunks() {
                builder.append(chunk).expect("append to table");
            }
            let loaded = Arc::new(builder.finish().expect("finish table"));
            service
                .register_table("lineitem", columns, QueryInput::Table(Arc::clone(&loaded)))
                .expect("register paged table");
            (table, db) = (Some(loaded), Some(file));
        }

        let clients = defs
            .into_iter()
            .zip(&references)
            .map(|(def, rows)| Client {
                sql: def.sql,
                reference: Checksum::of_rows(rows),
                paged: def.paged,
            })
            .collect();
        Env {
            spec: self,
            threads,
            mgr,
            service,
            data,
            table,
            clients,
            sizes,
            setup: SetupTimes {
                total_s: t_setup.elapsed().as_secs_f64(),
                generate_s,
            },
            _db: db,
        }
    }
}

/// The query's result from `rexa_core::simple`, the engine's independent
/// reference aggregator, over the rows the filter keeps.
fn reference_rows(def: &QueryDef, data: &ChunkCollection) -> Vec<Vec<Value>> {
    let filtered;
    let input = match def.filter {
        None => data,
        Some((col, cutoff)) => {
            let mut kept = ChunkCollection::new(data.types().to_vec());
            for chunk in data.chunks() {
                let keep: Vec<usize> = (0..chunk.len())
                    .filter(|&i| chunk.column(col).i32s()[i] <= cutoff)
                    .collect();
                if !keep.is_empty() {
                    kept.push(select_rows(chunk, &keep)).expect("same schema");
                }
            }
            filtered = kept;
            &filtered
        }
    };
    reference_aggregate(
        &CollectionSource::new(input),
        input.types(),
        &def.plan.group_cols,
        &def.plan.aggregates,
    )
    .expect("reference aggregation")
}

/// The rows `keep` of a chunk without NULLs (generated data has none).
fn select_rows(chunk: &DataChunk, keep: &[usize]) -> DataChunk {
    let columns = chunk
        .columns()
        .iter()
        .map(|col| {
            assert!(col.validity().no_nulls(), "generated data has no NULLs");
            match col.data() {
                VectorData::I32(v) if col.logical_type() == LogicalType::Date => {
                    Vector::from_dates(keep.iter().map(|&i| v[i]).collect())
                }
                VectorData::I32(v) => Vector::from_i32(keep.iter().map(|&i| v[i]).collect()),
                VectorData::I64(v) => Vector::from_i64(keep.iter().map(|&i| v[i]).collect()),
                VectorData::F64(v) => Vector::from_f64(keep.iter().map(|&i| v[i]).collect()),
                VectorData::Str(v) => Vector::from_strs(keep.iter().map(|&i| v.get(i))),
            }
        })
        .collect();
    DataChunk::new(columns)
}
