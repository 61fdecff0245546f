//! `rexa-bench`: the benchmark harness.
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index) plus Criterion micro-benches. This library holds the
//! shared machinery: laptop-scale parameter mapping, environment setup,
//! the four "systems" (robust rexa, in-memory/abort, switch-on-overflow,
//! external sort), per-query timeouts, and result formatting.
//!
//! Scaling: the paper runs SF 1–128 (0.7–97 GB) against 32 GB of RAM on an
//! AWS c6id.4xlarge. The harness maps paper scale factors with a single
//! `--scale` knob (default 1/512): data *and* memory limit shrink together,
//! preserving the governing intermediate-size/memory-limit ratio. Pages
//! shrink from 256 KiB to 64 KiB so the page count stays realistic.

pub mod tables;

use parking_lot::Mutex;
use rexa_buffer::{BufferManager, BufferManagerConfig, Table};
use rexa_core::baselines::switch::Scannable;
use rexa_core::baselines::{in_memory_aggregate, sort_aggregate, switch_aggregate};
use rexa_core::{
    hash_aggregate_streaming, AggregateConfig, AggregateSpec, HashAggregatePlan, RunStats,
};
use rexa_exec::pipeline::{CancelToken, ChunkSource};
use rexa_exec::{ChunkCollection, DataChunk, Error, ExecContext, Result, Value};
use rexa_storage::DatabaseFile;
use rexa_tpch::{generate_lineitem, lineitem_schema, Grouping};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Paper hardware constants (c6id.4xlarge): 32 GB RAM.
pub const PAPER_MEM_BYTES: f64 = 32.0 * 1024.0 * 1024.0 * 1024.0;

/// Harness parameters, parsed from the command line.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Scale-down factor applied to paper scale factors and to the paper's
    /// 32 GB memory limit.
    pub scale: f64,
    /// Per-query timeout (the paper uses 600 s at full scale).
    pub timeout: Duration,
    /// Worker threads.
    pub threads: usize,
    /// Repetitions per measurement (paper: median of 5).
    pub reps: usize,
    /// Buffer page size.
    pub page_size: usize,
    /// Memory-limit override in bytes (default: 32 GB × scale).
    pub mem_limit: Option<usize>,
    /// Emit CSV rows in addition to the text table.
    pub csv: bool,
    /// Extra thread counts to run the robust engine at (the threads axis of
    /// the scaling figures); the four-system comparison stays at `threads`.
    pub threads_list: Vec<usize>,
    /// CI smoke mode: tiny scale, short timeout, truncated SF list — checks
    /// the driver end to end, measures nothing meaningful.
    pub smoke: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 1.0 / 512.0,
            timeout: Duration::from_secs(60),
            threads: std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(8),
            reps: 1,
            page_size: 64 << 10,
            mem_limit: None,
            csv: false,
            threads_list: Vec::new(),
            smoke: false,
        }
    }
}

impl HarnessArgs {
    /// Parse `--scale X --timeout-secs N --threads N --threads-list T1,T2,…
    /// --reps N --page-kib N --mem-mib N --csv --smoke` from the process
    /// arguments.
    pub fn parse() -> Self {
        let mut args = HarnessArgs::default();
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
                "--scale" => args.scale = value(&mut i).parse().expect("--scale"),
                "--timeout-secs" => {
                    args.timeout = Duration::from_secs(value(&mut i).parse().expect("--timeout"))
                }
                "--threads" => args.threads = value(&mut i).parse().expect("--threads"),
                "--threads-list" => {
                    args.threads_list = value(&mut i)
                        .split(',')
                        .map(|t| t.trim().parse().expect("--threads-list"))
                        .collect()
                }
                "--reps" => args.reps = value(&mut i).parse().expect("--reps"),
                "--page-kib" => {
                    args.page_size = value(&mut i).parse::<usize>().expect("--page-kib") << 10
                }
                "--mem-mib" => {
                    args.mem_limit = Some(value(&mut i).parse::<usize>().expect("--mem-mib") << 20)
                }
                "--csv" => args.csv = true,
                "--smoke" => {
                    args.smoke = true;
                    args.scale = 0.002;
                    args.reps = 1;
                    args.timeout = Duration::from_secs(60);
                    args.mem_limit = Some(64 << 20);
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --scale F --timeout-secs N --threads N \
                         --threads-list T1,T2,… --reps N --page-kib N --mem-mib N \
                         --csv --smoke"
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

    /// The effective (generated) scale factor for a paper scale factor.
    pub fn effective_sf(&self, paper_sf: f64) -> f64 {
        paper_sf * self.scale
    }

    /// The scaled memory limit in bytes.
    pub fn memory_limit(&self) -> usize {
        self.mem_limit
            .unwrap_or((PAPER_MEM_BYTES * self.scale) as usize)
    }
}

/// One generated dataset (kept in RAM; the persistent table is rebuilt per
/// environment from it).
pub struct Dataset {
    /// The paper-scale factor this stands in for.
    pub paper_sf: f64,
    /// The generated rows.
    pub coll: ChunkCollection,
}

/// Generate the lineitem dataset for a paper scale factor.
pub fn dataset(paper_sf: f64, args: &HarnessArgs) -> Dataset {
    Dataset {
        paper_sf,
        coll: generate_lineitem(args.effective_sf(paper_sf), 0xDB),
    }
}

/// A benchmark environment: one buffer manager plus the dataset bulk-loaded
/// as a persistent paged table (fresh scratch files).
pub struct Env {
    /// The unified buffer manager.
    pub mgr: Arc<BufferManager>,
    /// The database file backing the table.
    pub db: Arc<DatabaseFile>,
    /// The lineitem table.
    pub table: Table,
}

/// Build a fresh environment for `ds`.
pub fn build_env(ds: &Dataset, args: &HarnessArgs) -> Env {
    let dir = rexa_storage::scratch_dir("bench").expect("scratch dir");
    let mgr = BufferManager::new(
        BufferManagerConfig::with_limit(args.memory_limit())
            .page_size(args.page_size)
            .temp_dir(dir.join("tmp")),
    )
    .expect("buffer manager");
    let db = Arc::new(DatabaseFile::create(&dir.join("lineitem.db"), args.page_size).unwrap());
    let mut builder =
        rexa_buffer::TableBuilder::new(Arc::clone(&mgr), Arc::clone(&db), lineitem_schema());
    for chunk in ds.coll.chunks() {
        builder.append(chunk).unwrap();
    }
    let table = builder.finish().unwrap();
    Env { mgr, db, table }
}

/// The four aggregation strategies the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// The robust external hash aggregation (the paper's contribution;
    /// DuckDB's role in the evaluation).
    Robust,
    /// In-memory hash aggregation that aborts on OOM (Umbra's observed role).
    InMemory,
    /// In-memory first, restart with external sort on OOM (HyPer-like).
    Switch,
    /// Always the external merge-sort aggregation (the traditional
    /// disk-based algorithm).
    External,
}

impl SystemKind {
    /// All four, in reporting order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::Robust,
        SystemKind::InMemory,
        SystemKind::Switch,
        SystemKind::External,
    ];

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Robust => "rexa",
            SystemKind::InMemory => "inmem",
            SystemKind::Switch => "switch",
            SystemKind::External => "extsort",
        }
    }
}

/// The result of one measured query.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Completed: seconds, group count, operator stats if the robust engine
    /// ran.
    Done {
        /// Median wall seconds.
        secs: f64,
        /// Groups produced.
        groups: usize,
        /// Robust-engine stats (last rep), boxed: [`RunStats`] carries a
        /// full [`rexa_obs::QueryProfile`] and would dominate the enum size.
        stats: Option<Box<RunStats>>,
    },
    /// Aborted with out-of-memory (the paper's 'A').
    Aborted,
    /// Hit the timeout (the paper's 'T').
    TimedOut,
}

impl Outcome {
    /// Seconds if completed.
    pub fn secs(&self) -> Option<f64> {
        match self {
            Outcome::Done { secs, .. } => Some(*secs),
            _ => None,
        }
    }

    /// The paper-style cell: seconds, 'A', or 'T'.
    pub fn cell(&self) -> String {
        match self {
            Outcome::Done { secs, .. } => format!("{secs:.2}"),
            Outcome::Aborted => "A".to_string(),
            Outcome::TimedOut => "T".to_string(),
        }
    }
}

/// The benchmark query plan for a grouping: thin selects only the group
/// columns; wide adds `ANY_VALUE` over every other column (paper Sec. VI).
pub fn grouping_plan(grouping: Grouping, wide: bool) -> HashAggregatePlan {
    let aggregates = if wide {
        grouping
            .other_col_indices()
            .into_iter()
            .map(AggregateSpec::any_value)
            .collect()
    } else {
        Vec::new()
    };
    HashAggregatePlan {
        group_cols: grouping.group_col_indices(),
        aggregates,
    }
}

struct TableScannable<'a> {
    table: &'a Table,
    mgr: Arc<BufferManager>,
    token: CancelToken,
}

impl Scannable for TableScannable<'_> {
    fn scan_source(&self) -> Box<dyn ChunkSource + '_> {
        Box::new(self.table.scan_with_cancel(&self.mgr, self.token.clone()))
    }
}

/// The benchmark consumer, reproducing the paper's `OFFSET N-1` trick: every
/// group must be materialized and streamed, but only the last row is kept.
pub struct OffsetConsumer {
    groups: AtomicUsize,
    last_row: Mutex<Option<Vec<Value>>>,
    token: CancelToken,
}

impl OffsetConsumer {
    /// A consumer bound to a cancellation token.
    pub fn new(token: CancelToken) -> Self {
        OffsetConsumer {
            groups: AtomicUsize::new(0),
            last_row: Mutex::new(None),
            token,
        }
    }

    /// Consume one output chunk.
    pub fn consume(&self, chunk: DataChunk) -> Result<()> {
        self.token.check()?;
        if !chunk.is_empty() {
            self.groups.fetch_add(chunk.len(), Ordering::Relaxed);
            *self.last_row.lock() = Some(chunk.row(chunk.len() - 1));
        }
        Ok(())
    }

    /// Groups seen.
    pub fn groups(&self) -> usize {
        self.groups.load(Ordering::Relaxed)
    }
}

/// Run `f` with a watchdog that fires `token` after `timeout`.
pub fn with_timeout<T>(
    timeout: Duration,
    token: &CancelToken,
    f: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let watchdog_token = token.clone();
    let watchdog = std::thread::spawn(move || {
        if done_rx.recv_timeout(timeout).is_err() {
            watchdog_token.cancel();
        }
    });
    let result = f();
    let _ = done_tx.send(());
    let _ = watchdog.join();
    result
}

/// Run one (system, grouping, variant) measurement: `reps` repetitions,
/// median seconds, with timeout and abort handling.
pub fn run_grouping(
    kind: SystemKind,
    env: &Env,
    grouping: Grouping,
    wide: bool,
    args: &HarnessArgs,
) -> Outcome {
    let plan = grouping_plan(grouping, wide);
    let schema = lineitem_schema();
    let mut secs = Vec::with_capacity(args.reps);
    let mut groups = 0usize;
    let mut stats = None;
    for _ in 0..args.reps.max(1) {
        let token = CancelToken::new();
        let consumer = OffsetConsumer::new(token.clone());
        let start = Instant::now();
        let result: Result<usize> = with_timeout(args.timeout, &token, || match kind {
            SystemKind::Robust => {
                let source = env.table.scan_with_cancel(&env.mgr, token.clone());
                let config = AggregateConfig {
                    threads: args.threads,
                    radix_bits: None,
                    ht_capacity: 1 << 14,
                    output_chunk_size: rexa_exec::VECTOR_SIZE,
                    reset_fill_percent: 66,
                    ..Default::default()
                };
                let run = hash_aggregate_streaming(
                    &env.mgr,
                    &source,
                    &schema,
                    &plan,
                    &config,
                    &ExecContext::new(),
                    &|c| consumer.consume(c),
                )?;
                stats = Some(Box::new(run.clone()));
                Ok(run.groups)
            }
            SystemKind::InMemory => {
                let source = env.table.scan_with_cancel(&env.mgr, token.clone());
                in_memory_aggregate(
                    &env.mgr,
                    &source,
                    &schema,
                    &plan.group_cols,
                    &plan.aggregates,
                    args.threads,
                    &token,
                    &|c| consumer.consume(c),
                )
            }
            SystemKind::Switch => {
                let scannable = TableScannable {
                    table: &env.table,
                    mgr: Arc::clone(&env.mgr),
                    token: token.clone(),
                };
                let outcome = switch_aggregate(
                    &env.mgr,
                    &scannable,
                    &schema,
                    &plan.group_cols,
                    &plan.aggregates,
                    args.threads,
                    &token,
                    &|c| consumer.consume(c),
                )?;
                Ok(outcome.groups())
            }
            SystemKind::External => {
                let source = env.table.scan_with_cancel(&env.mgr, token.clone());
                let s = sort_aggregate(
                    &env.mgr,
                    &source,
                    &schema,
                    &plan.group_cols,
                    &plan.aggregates,
                    &token,
                    &|c| consumer.consume(c),
                )?;
                Ok(s.groups)
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        match result {
            Ok(g) => {
                groups = g;
                secs.push(elapsed);
            }
            Err(Error::Cancelled) => return Outcome::TimedOut,
            Err(e) if e.is_oom() => return Outcome::Aborted,
            Err(e) => panic!("benchmark query failed: {e}"),
        }
    }
    secs.sort_by(f64::total_cmp);
    Outcome::Done {
        secs: secs[secs.len() / 2],
        groups,
        stats,
    }
}

/// Geometric mean of `others / robust` over queries where both completed
/// (the paper's per-scale-factor summary row).
pub fn geo_mean_normalized(robust: &[Outcome], other: &[Outcome]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for (r, o) in robust.iter().zip(other) {
        match (r.secs(), o.secs()) {
            (Some(r), Some(o)) if r > 0.0 => {
                log_sum += (o / r).ln();
                n += 1;
            }
            _ => return None, // an A or T poisons the mean, as in the paper
        }
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// Print an aligned table: header then rows.
pub fn print_table(header: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |row: &[String]| {
        row.iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexa_tpch::GROUPINGS;

    fn tiny_args() -> HarnessArgs {
        HarnessArgs {
            scale: 0.002,
            timeout: Duration::from_secs(30),
            threads: 2,
            reps: 1,
            page_size: 8 << 10,
            mem_limit: Some(64 << 20),
            csv: false,
            threads_list: Vec::new(),
            smoke: false,
        }
    }

    #[test]
    fn all_systems_agree_on_group_counts() {
        let args = tiny_args();
        let ds = dataset(1.0, &args); // effective SF 0.002 (~12k rows)
        let g = GROUPINGS[3]; // l_orderkey
        let mut counts = Vec::new();
        for kind in SystemKind::ALL {
            let env = build_env(&ds, &args);
            match run_grouping(kind, &env, g, false, &args) {
                Outcome::Done { groups, .. } => counts.push(groups),
                other => panic!("{kind:?} did not finish: {other:?}"),
            }
        }
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
        assert!(counts[0] > 1000);
    }

    #[test]
    fn wide_variant_runs_and_matches_thin_group_count() {
        let args = tiny_args();
        let ds = dataset(1.0, &args);
        let g = GROUPINGS[0]; // returnflag, linestatus
        let env = build_env(&ds, &args);
        let thin = run_grouping(SystemKind::Robust, &env, g, false, &args);
        let wide = run_grouping(SystemKind::Robust, &env, g, true, &args);
        match (&thin, &wide) {
            (Outcome::Done { groups: a, .. }, Outcome::Done { groups: b, .. }) => {
                assert_eq!(a, b);
                assert_eq!(*a, 4, "returnflag x linestatus has 4 groups");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn inmemory_aborts_under_tiny_limit_and_robust_survives() {
        let mut args = tiny_args();
        args.scale = 0.005;
        args.mem_limit = Some(6 << 20); // 6 MiB
        let ds = dataset(1.0, &args); // ~30k rows
        let g = GROUPINGS[12]; // all-distinct grouping
        let env = build_env(&ds, &args);
        let robust = run_grouping(SystemKind::Robust, &env, g, true, &args);
        assert!(
            matches!(robust, Outcome::Done { .. }),
            "robust must survive: {robust:?}"
        );
        let env = build_env(&ds, &args);
        let inmem = run_grouping(SystemKind::InMemory, &env, g, true, &args);
        assert!(matches!(inmem, Outcome::Aborted), "inmem: {inmem:?}");
    }

    #[test]
    fn timeout_produces_t() {
        let mut args = tiny_args();
        args.scale = 0.01;
        args.timeout = Duration::from_millis(1);
        let ds = dataset(1.0, &args);
        let env = build_env(&ds, &args);
        let out = run_grouping(SystemKind::External, &env, GROUPINGS[12], true, &args);
        assert!(matches!(out, Outcome::TimedOut), "{out:?}");
    }

    #[test]
    fn geo_mean_handles_aborts() {
        let done = |s| Outcome::Done {
            secs: s,
            groups: 1,
            stats: None,
        };
        let r = vec![done(1.0), done(2.0)];
        let o = vec![done(2.0), done(4.0)];
        let g = geo_mean_normalized(&r, &o).unwrap();
        assert!((g - 2.0).abs() < 1e-9);
        let with_abort = vec![done(2.0), Outcome::Aborted];
        assert!(geo_mean_normalized(&r, &with_abort).is_none());
    }
}
