//! The metrics by name, and everything that prints or stores them: the
//! table, the result file, and the one-line result the driver reads.

use crate::json::Json;
use crate::stats::{iqr_spread, median};
use crate::workload::Sizes;
use crate::MIB;
use std::path::Path;
use std::process::Command;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a person submitting SQL to the service under a memory limit pays.
/// Failures are not a metric here: they are the `attempted` / `failed`
/// counts of every result, and any failure fails the run.
pub const END_TO_END: [MetricDef; 5] = [
    gated("query_p50_ms", "ms", "lower", 0.10),
    gated("query_tail_ms", "ms", "lower", 0.20),
    gated("rows_per_s", "rows/s", "higher", 0.10),
    gated("io_bytes_per_input_byte", "ratio", "lower", 0.02),
    gated("setup_s", "s", "lower", 0.25),
];

/// One crate each, measured from outside. See the README for which
/// end-to-end metric each should move, and on which workload.
pub const PER_LAYER: [MetricDef; 36] = [
    layer("sql.plan_us", "us", "lower"),
    layer("sql.self_ms", "ms", "lower"),
    layer("service.queue_wait_ms", "ms", "lower"),
    layer("service.overhead_ms", "ms", "lower"),
    layer("service.shed", "count", "lower"),
    layer("service.heavy_p50_ms", "ms", "lower"),
    layer("service.self_ms", "ms", "lower"),
    layer("exec.scan_rows_per_s", "rows/s", "higher"),
    layer("exec.pool_dispatch_us", "us", "lower"),
    layer("core.direct_ms", "ms", "lower"),
    layer("core.phase1_ms", "ms", "lower"),
    layer("core.phase2_ms", "ms", "lower"),
    layer("core.unattributed_ms", "ms", "lower"),
    layer("core.ht_resets", "count", "lower"),
    layer("core.partitions_external", "count", "lower"),
    layer("core.p1_shared_frac", "ratio", "higher"),
    layer("core.p1_instream_frac", "ratio", "higher"),
    layer("core.p2_sorted_merge_frac", "ratio", "higher"),
    layer("core.self_ms", "ms", "lower"),
    layer("layout.scatter_rows_per_s", "rows/s", "higher"),
    layer("layout.gather_rows_per_s", "rows/s", "higher"),
    layer("buffer.evictions", "count", "lower"),
    layer("buffer.temp_mib_written", "MiB", "lower"),
    layer("buffer.temp_mib_read", "MiB", "lower"),
    layer("buffer.readahead_hit_ratio", "ratio", "higher"),
    layer("buffer.spill_retries", "count", "lower"),
    layer("buffer.peak_mem_frac", "ratio", "lower"),
    layer("buffer.spill_vs_model", "ratio", "lower"),
    layer("buffer.self_ms", "ms", "lower"),
    layer("storage.temp_write_mib_s", "MiB/s", "higher"),
    layer("storage.temp_read_mib_s", "MiB/s", "higher"),
    layer("storage.db_read_mib_s", "MiB/s", "higher"),
    layer("storage.spill_floor_ms", "ms", "lower"),
    layer("tpch.gen_rows_per_s", "rows/s", "higher"),
    layer("obs.trace_overhead_frac", "ratio", "lower"),
    // Wall time of a traced query during which no span of the program was
    // open on any track.
    layer("unattributed_ms", "ms", "lower"),
];

/// Named values in definition order.
pub type Values = Vec<(&'static str, f64)>;

/// One run of one workload at one seed.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Timed queries of the first client: the latency sample count.
    pub samples: usize,
    /// Which percentile `query_tail_ms` is.
    pub tail_label: &'static str,
    pub end_to_end: Values,
    pub per_layer: Option<Values>,
    pub sizes: Sizes,
    pub disk_peak_bytes: u64,
    /// Flags and first failures, printed under the table and stored.
    pub notes: Vec<String>,
}

/// All repetitions of one workload.
pub struct WorkloadReport {
    pub name: &'static str,
    pub why: &'static str,
    pub runs: Vec<RunResult>,
}

impl WorkloadReport {
    pub fn attempted(&self) -> u64 {
        self.runs.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.runs.iter().map(|r| r.failed).sum()
    }

    fn series(&self, name: &str, per_layer: bool) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| {
                let values = if per_layer {
                    r.per_layer.as_ref()?
                } else {
                    &r.end_to_end
                };
                values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
            })
            .collect()
    }

    /// Median over the repetitions.
    pub fn value(&self, name: &str, per_layer: bool) -> Option<f64> {
        let series = self.series(name, per_layer);
        (!series.is_empty()).then(|| median(&series))
    }

    fn metric_json(&self, def: &MetricDef, per_layer: bool) -> Option<(String, Json)> {
        let series = self.series(def.name, per_layer);
        if series.is_empty() {
            return None;
        }
        let mut fields = vec![
            ("value", Json::Num(median(&series))),
            ("unit", Json::str(def.unit)),
        ];
        if series.len() > 1 {
            fields.push(("spread", iqr_spread(&series).map_or(Json::Null, Json::Num)));
            fields.push((
                "runs",
                Json::Arr(series.into_iter().map(Json::Num).collect()),
            ));
        }
        Some((def.name.to_string(), Json::obj(fields)))
    }

    fn to_json(&self) -> Json {
        let last = self.runs.last().expect("at least one run");
        let s = &last.sizes;
        let count = |v: usize| Json::Num(v as f64);
        let mut fields = vec![
            ("name", Json::str(self.name)),
            ("why", Json::str(self.why)),
            (
                "sizes",
                Json::obj([
                    ("rows", count(s.rows)),
                    ("input_bytes", count(s.input_bytes)),
                    ("intermediate_bytes", count(s.intermediate_bytes)),
                    ("limit_bytes", count(s.limit_bytes)),
                    ("footprint_bytes", count(s.footprint_bytes)),
                ]),
            ),
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("samples", count(last.samples)),
            ("tail_percentile", Json::str(last.tail_label)),
            (
                "end_to_end",
                Json::Obj(
                    END_TO_END
                        .iter()
                        .filter_map(|d| self.metric_json(d, false))
                        .collect(),
                ),
            ),
        ];
        let per_layer: Vec<(String, Json)> = PER_LAYER
            .iter()
            .filter_map(|d| self.metric_json(d, true))
            .collect();
        if !per_layer.is_empty() {
            fields.push(("per_layer", Json::Obj(per_layer)));
        }
        let notes: Vec<Json> = self
            .runs
            .iter()
            .flat_map(|r| r.notes.iter().map(Json::str))
            .collect();
        if !notes.is_empty() {
            fields.push(("notes", Json::Arr(notes)));
        }
        Json::obj(fields)
    }

    /// The driver's line: the metrics of one kind by name, each with only
    /// its value and unit.
    pub fn contract_line(&self, per_layer: bool) -> String {
        let defs: &[MetricDef] = if per_layer { &PER_LAYER } else { &END_TO_END };
        let metrics = defs
            .iter()
            .filter_map(|def| {
                let value = self.value(def.name, per_layer)?;
                let fields = [("value", Json::Num(value)), ("unit", Json::str(def.unit))];
                Some((def.name.to_string(), Json::obj(fields)))
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed() == 0)),
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    pub fn print(&self) {
        let last = self.runs.last().expect("at least one run");
        let s = &last.sizes;
        let mib = |b: usize| b as f64 / MIB;
        println!("\n== {} — {}", self.name, self.why);
        println!(
            "   rows {}  input {:.1} MiB  intermediates {:.1} MiB  limit {:.1} MiB  \
             admission footprint {:.1} MiB",
            s.rows,
            mib(s.input_bytes),
            mib(s.intermediate_bytes),
            mib(s.limit_bytes),
            mib(s.footprint_bytes),
        );
        println!(
            "   attempted {}  failed {}  latency samples {}  tail = {}  runs {}",
            self.attempted(),
            self.failed(),
            last.samples,
            last.tail_label,
            self.runs.len(),
        );
        let row = |def: &MetricDef, per_layer: bool| {
            let series = self.series(def.name, per_layer);
            if series.is_empty() {
                return;
            }
            let bound = def
                .bound
                .map_or(String::new(), |b| format!("bound {:.0}%", b * 100.0));
            let spread =
                iqr_spread(&series).map_or(String::new(), |s| format!("spread {:.2}%", s * 100.0));
            println!(
                "   {:<28} {:>16.4} {:<7} {:<6} {:<10} {}",
                def.name,
                median(&series),
                def.unit,
                def.better,
                bound,
                spread
            );
        };
        for def in &END_TO_END {
            row(def, false);
        }
        if last.per_layer.is_some() {
            println!("   -- per layer (not gated)");
            for def in &PER_LAYER {
                row(def, true);
            }
        }
        for note in self.runs.iter().flat_map(|r| &r.notes) {
            println!("   note: {note}");
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers depend on besides the code: compared files must agree
/// on all of it before absolute values are set side by side.
pub fn fingerprint(scratch: &Path) -> Json {
    let ram_mib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            let line = m.lines().find(|l| l.starts_with("MemTotal:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(Json::Null, |kib| Json::Num((kib / 1024.0).round()));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("cores", Json::Num(cores as f64)),
        ("ram_mib", ram_mib),
        ("scratch_fs", Json::str(crate::scratch::fs_type(scratch))),
        (
            "o_direct",
            Json::Bool(crate::scratch::o_direct_honoured(scratch)),
        ),
        ("kernel", Json::str(command_line("uname", &["-sr"]))),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

pub struct RunSettings {
    pub seed: u64,
    pub seconds: f64,
    pub reps: usize,
    pub threads: usize,
    pub trace: bool,
    pub smoke: bool,
}

/// `wide_spill4x.query_p50_ms ÷ wide_mem.query_p50_ms`: what a quarter of
/// the memory costs, the paper's Figure 1 in one number.
pub fn slowdown_vs_mem(reports: &[WorkloadReport]) -> Option<f64> {
    let p50 = |name: &str| {
        reports
            .iter()
            .find(|r| r.name == name)?
            .value("query_p50_ms", false)
    };
    Some(p50("wide_spill4x")? / p50("wide_mem")?)
}

pub fn result_file(
    settings: &RunSettings,
    fingerprint: Json,
    reports: &[WorkloadReport],
    disk_peak_bytes: u64,
) -> Json {
    Json::obj([
        ("schema", Json::str("rexa-e2e/1")),
        ("fingerprint", fingerprint),
        ("seed", Json::Num(settings.seed as f64)),
        ("seconds", Json::Num(settings.seconds)),
        ("reps", Json::Num(settings.reps as f64)),
        ("threads", Json::Num(settings.threads as f64)),
        ("trace", Json::Bool(settings.trace)),
        ("smoke", Json::Bool(settings.smoke)),
        ("disk_peak_mib", Json::Num(disk_peak_bytes as f64 / MIB)),
        (
            "slowdown_vs_mem",
            slowdown_vs_mem(reports).map_or(Json::Null, Json::Num),
        ),
        (
            "workloads",
            Json::Arr(reports.iter().map(WorkloadReport::to_json).collect()),
        ),
    ])
}

/// Check a result file against `BENCHMARK.json`: every workload and metric
/// it names is present, with the same unit. Returns what is wrong.
pub fn validate_against_contract(result: &Json, contract: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let name_of = |j: &Json| {
        j.get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    for wanted in contract.get("workloads").map_or(&[][..], Json::as_array) {
        let name = name_of(wanted);
        let Some(found) = crate::compare::workload(result, &name) else {
            problems.push(format!("workload {name} missing from the result"));
            continue;
        };
        for section in ["end_to_end", "per_layer"] {
            for metric in contract.get(section).map_or(&[][..], Json::as_array) {
                let metric_name = name_of(metric);
                let unit = metric.get("unit").and_then(Json::as_str);
                match found.get(section).and_then(|m| m.get(&metric_name)) {
                    None => {
                        problems.push(format!("{name}: {section} metric {metric_name} missing"))
                    }
                    Some(m) if m.get("unit").and_then(Json::as_str) != unit => {
                        problems.push(format!(
                            "{name}: {metric_name} has unit {:?}, contract says {unit:?}",
                            m.get("unit")
                        ))
                    }
                    Some(m) if m.get("value").and_then(Json::as_f64).is_none() => {
                        problems.push(format!("{name}: {metric_name} has no numeric value"))
                    }
                    Some(_) => {}
                }
            }
        }
    }
    problems
}
