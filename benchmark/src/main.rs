//! `rexa-e2e`: SQL text → `QueryService::submit_sql` → `QueryHandle::wait`
//! under a memory limit, every result verified, every number named.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--reps N] [--out PATH] [--scratch DIR] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```

mod check;
mod compare;
mod json;
mod layers;
mod report;
mod run;
mod scratch;
mod stats;
mod trace;
mod workload;

use json::Json;
use report::{RunResult, RunSettings, Values, WorkloadReport};
use rexa_obs::span::NO_ARGS;
use rexa_obs::{SpanBuffer, SpanCollector};
use run::{measure, Sample, Window, WARMUP_QUERIES};
use scratch::ScratchDir;
use stats::{median, tail};
use std::path::PathBuf;
use workload::{Env, Spec, WORKLOADS};

pub(crate) const MIB: f64 = 1048576.0;

/// Set-ups per run; `setup_s` is their median. The last one is measured.
const SETUPS_PER_RUN: usize = 3;
/// Bytes the storage probe moves per direction.
const STORAGE_PROBE_BYTES: usize = 256 << 20;
/// Measured spill above this multiple of the model's is flagged.
const SPILL_MODEL_FLAG: f64 = 1.25;

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    out: Option<PathBuf>,
    scratch: Option<PathBuf>,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rexa-e2e run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--reps N] [--out PATH] [--scratch DIR] [--smoke]\n       \
         rexa-e2e compare A.json B.json\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_run_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        reps: 1,
        out: None,
        scratch: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> T {
            text.parse().unwrap_or_else(|_| {
                eprintln!("bad value {text:?} for {flag}");
                usage()
            })
        }
        match flag.as_str() {
            "--workload" => {
                let name = value();
                args.workload = Some(workload::find(name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name:?}");
                    usage()
                }));
            }
            "--seed" => args.seed = number(flag, value()),
            "--seconds" => args.seconds = number(flag, value()),
            "--trace" => args.trace = number::<u8>(flag, value()) != 0,
            "--reps" => args.reps = number::<usize>(flag, value()).max(1),
            "--out" => args.out = Some(value().into()),
            "--scratch" => args.scratch = Some(value().into()),
            "--smoke" => args.smoke = true,
            _ => {
                eprintln!("unknown argument {flag:?}");
                usage()
            }
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        eprintln!("--seconds must be positive");
        usage();
    }
    args
}

/// The benchmark's own directory: where `cargo run` found the manifest, or
/// where the binary was built when it is started directly.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => {
            let failed = run_command(&parse_run_args(&argv[1..]));
            std::process::exit(if failed { 1 } else { 0 });
        }
        Some("compare") if argv.len() == 3 => {
            let load = |path: &String| {
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                });
                Json::parse(&text).unwrap_or_else(|e| {
                    eprintln!("{path} is not JSON: {e}");
                    std::process::exit(2);
                })
            };
            match compare::compare(&load(&argv[1]), &load(&argv[2])) {
                Ok(regressed) => std::process::exit(if regressed { 1 } else { 0 }),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
        _ => usage(),
    }
}

/// Run the selected workloads; true if anything failed.
fn run_command(args: &Args) -> bool {
    let root = args
        .scratch
        .clone()
        .unwrap_or_else(|| benchmark_dir().join("scratch"));
    // Dropped at the end of this function and while a panic unwinds, which
    // removes every file the run made.
    let scratch = ScratchDir::create(&root).expect("create scratch directory");

    let settings = RunSettings {
        seed: args.seed,
        seconds: if args.smoke {
            args.seconds.min(0.5)
        } else {
            args.seconds
        },
        reps: args.reps,
        threads: workload::engine_threads(),
        trace: args.trace || args.smoke,
        smoke: args.smoke,
    };
    let specs: Vec<&'static Spec> = match args.workload {
        Some(spec) => vec![spec],
        None => WORKLOADS.iter().collect(),
    };

    let mut disk_peak = 0;
    let mut reports = Vec::new();
    for spec in specs {
        let runs: Vec<RunResult> = (0..settings.reps as u64)
            .map(|rep| run_workload(spec, settings.seed + rep, &settings, &scratch))
            .collect();
        disk_peak = runs
            .iter()
            .map(|r| r.disk_peak_bytes)
            .fold(disk_peak, u64::max);
        let report = WorkloadReport {
            name: spec.name,
            why: spec.why,
            runs,
        };
        report.print();
        reports.push(report);
    }
    if let Some(ratio) = report::slowdown_vs_mem(&reports) {
        println!("\nslowdown_vs_mem (wide_spill4x p50 ÷ wide_mem p50): {ratio:.3}");
    }
    println!("disk_peak_mib: {:.1}", disk_peak as f64 / MIB);

    let mut failed = reports.iter().any(|r| r.failed() > 0);
    let file = report::result_file(
        &settings,
        report::fingerprint(scratch.path()),
        &reports,
        disk_peak,
    );
    if settings.smoke {
        let contract_path = benchmark_dir().join("../BENCHMARK.json");
        let problems = match std::fs::read_to_string(&contract_path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(contract) => report::validate_against_contract(&file, &contract),
            Err(e) => vec![format!("cannot read {}: {e}", contract_path.display())],
        };
        for p in &problems {
            eprintln!("smoke: {p}");
        }
        failed |= !problems.is_empty();
        if problems.is_empty() {
            println!("smoke: result matches BENCHMARK.json");
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, file.pretty()).expect("write result file");
        println!("wrote {}", path.display());
    }
    if let [report] = &reports[..] {
        println!("{}", report.contract_line(args.trace));
    }
    failed
}

fn run_workload(
    spec: &'static Spec,
    seed: u64,
    settings: &RunSettings,
    scratch: &ScratchDir,
) -> RunResult {
    let setups = if settings.smoke { 1 } else { SETUPS_PER_RUN };
    let mut setup_times = Vec::new();
    let mut env = None;
    for _ in 0..setups {
        // Close the previous set-up before its files are removed.
        drop(env.take());
        let dir = scratch.subdir("workload").expect("workload directory");
        let e = spec.setup(seed, &dir);
        setup_times.push(e.setup.total_s);
        env = Some(e);
    }
    let env = env.expect("at least one set-up");
    let setup_s = median(&setup_times);

    let warmup = if settings.smoke { 1 } else { WARMUP_QUERIES };
    let timed_s = if settings.trace {
        settings.seconds / 2.0
    } else {
        settings.seconds
    };
    let window = measure(&env, timed_s, warmup, None, scratch.path());

    let mut notes = Vec::new();
    for (i, c) in window.clients.iter().enumerate() {
        if let Some(e) = &c.first_failure {
            notes.push(format!("client {i} failed: {e}"));
        }
    }
    if window.overshoots > 0 {
        notes.push(format!(
            "memory_used read above the limit {} times (peak {:.3} of the limit)",
            window.overshoots, window.peak_mem_frac
        ));
    }
    if window.disk_budget_exceeded {
        notes.push(format!(
            "scratch directory outgrew the {} MiB disk budget; run stopped",
            scratch::DISK_BUDGET_BYTES >> 20
        ));
    }

    let mut latencies: Vec<f64> = window.clients[0]
        .samples
        .iter()
        .map(|s| s.latency_ms)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let (tail_label, tail_ms) = if latencies.is_empty() {
        ("none", 0.0)
    } else {
        tail(&latencies)
    };
    let completed = window.completed() as f64;
    let input_bytes = completed * env.sizes.input_bytes as f64;
    let end_to_end: Values = vec![
        ("query_p50_ms", median(&latencies)),
        ("query_tail_ms", tail_ms),
        (
            "rows_per_s",
            completed * env.sizes.rows as f64 / window.wall_s,
        ),
        (
            "io_bytes_per_input_byte",
            if input_bytes > 0.0 {
                (input_bytes + window.buffer.temp_bytes_written as f64) / input_bytes
            } else {
                1.0
            },
        ),
        ("setup_s", setup_s),
    ];

    let mut disk_peak_bytes = window.disk_peak_bytes;
    let mut failed = window.failed() + window.disk_budget_exceeded as u64;
    let mut attempted = window.attempted();
    let per_layer = settings.trace.then(|| {
        let traced = per_layer(&env, &window, settings, scratch, &mut notes);
        disk_peak_bytes = disk_peak_bytes.max(traced.disk_peak_bytes);
        failed += traced.failed;
        attempted += traced.attempted;
        traced.values
    });

    RunResult {
        attempted,
        failed,
        samples: latencies.len(),
        tail_label,
        end_to_end,
        per_layer,
        sizes: env.sizes,
        disk_peak_bytes,
        notes,
    }
}

struct Traced {
    values: Values,
    attempted: u64,
    failed: u64,
    disk_peak_bytes: u64,
}

/// Run one layer probe inside a span of the benchmark's track.
fn probed<T>(bench: &SpanBuffer, name: &'static str, probe: impl FnOnce() -> T) -> T {
    let t = bench.now_ns();
    let out = probe();
    bench.complete(name, trace::BENCH_CAT, t, NO_ARGS);
    out
}

fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<f64>>())
}

/// The traced window, the layer probes, and every per-layer metric.
/// `untraced` is the window just measured with tracing off: the counters
/// every `QueryOutput` returns are read from it.
fn per_layer(
    env: &Env,
    untraced: &Window,
    settings: &RunSettings,
    scratch: &ScratchDir,
    notes: &mut Vec<String>,
) -> Traced {
    let collector = SpanCollector::with_capacity(512);
    let traced = measure(
        env,
        settings.seconds / 4.0,
        0,
        Some(&collector),
        scratch.path(),
    );

    // Layer probes, each inside a span on the benchmark's own track.
    let bench = collector.track("bench");
    let dir = scratch.subdir("probes").expect("probe directory");
    let plan_us = probed(&bench, "probe:sql", || layers::sql_plan_us(env));
    let (dispatch_us, scan_rows_s) = probed(&bench, "probe:exec", || {
        (
            layers::pool_dispatch_us(env.threads),
            layers::scan_rows_per_s(env),
        )
    });
    let direct_ms = probed(&bench, "probe:core", || layers::core_direct_ms(env));
    let layout_rows_s = probed(&bench, "probe:layout", || {
        layers::layout_rows_per_s(env, &dir)
    });
    let ceiling = probed(&bench, "probe:storage", || {
        let shrink = if settings.smoke { 16 } else { 1 };
        layers::storage_ceiling(&dir, STORAGE_PROBE_BYTES / shrink)
    });
    let disk_peak_bytes = traced
        .disk_peak_bytes
        .max(scratch::disk_usage(scratch.path()) + ceiling.disk_bytes);

    let timeline = collector.merge();
    if timeline.dropped > 0 {
        notes.push(format!("{} spans dropped (buffer full)", timeline.dropped));
    }
    let attribution = trace::attribute(&timeline);
    let out_dir = benchmark_dir().join("out");
    let trace_path = out_dir.join(format!("trace_{}.json", env.spec.name));
    std::fs::create_dir_all(&out_dir)
        .and_then(|_| std::fs::write(&trace_path, rexa_obs::span::chrome_trace_json(&timeline)))
        .expect("write Chrome trace");

    let light = &untraced.clients[0].samples;
    let heavy = untraced.clients.get(1);
    let n = light.len().max(1) as f64;
    let frac = |pred: &dyn Fn(&Sample) -> bool| light.iter().filter(|s| pred(s)).count() as f64 / n;
    let merged: u64 = light.iter().map(|s| s.partitions_merged).sum();
    let sorted: u64 = light.iter().map(|s| s.partitions_sorted_merge).sum();

    // Buffer counters are the manager's over the window, per completed
    // query of any client: exact with one client, shared with two.
    let completed = untraced.completed().max(1) as f64;
    let b = &untraced.buffer;
    let written = b.temp_bytes_written as f64 / completed;
    let read = b.temp_bytes_read as f64 / completed;
    let readahead = b.readahead_hits + b.readahead_misses;
    // One-level hybrid hash (Wen et al.): what cannot stay resident is
    // written once. Resident room is the limit less the admission
    // reservation, which stays unspillable while the query runs. Where the
    // model predicts no spill the ratio is taken against one page.
    let room = env
        .sizes
        .limit_bytes
        .saturating_sub(env.sizes.footprint_bytes);
    let model = env.sizes.intermediate_bytes.saturating_sub(room) as f64;
    let spill_vs_model = written / model.max(env.mgr.page_size() as f64);
    if spill_vs_model > SPILL_MODEL_FLAG {
        notes.push(format!(
            "spills {:.1} MiB per query where the one-level model predicts {:.1} MiB",
            written / MIB,
            model / MIB
        ));
    }
    let spill_floor_ms =
        (written / MIB / ceiling.temp_write_mib_s + read / MIB / ceiling.temp_read_mib_s) * 1e3;

    let untraced_p50 = med(light, |s| s.latency_ms);
    let traced_p50 = med(&traced.clients[0].samples, |s| s.latency_ms);
    let [sql_self, service_self, core_self, buffer_self] = attribution.layer_self_ms;

    let values: Values = vec![
        ("sql.plan_us", plan_us),
        ("sql.self_ms", sql_self),
        ("service.queue_wait_ms", med(light, |s| s.queue_wait_ms)),
        (
            "service.overhead_ms",
            med(light, |s| s.latency_ms - s.queue_wait_ms - s.exec_wall_ms),
        ),
        (
            "service.shed",
            untraced.clients.iter().map(|c| c.shed).sum::<u64>() as f64,
        ),
        (
            "service.heavy_p50_ms",
            heavy.map_or(0.0, |c| med(&c.samples, |s| s.latency_ms)),
        ),
        ("service.self_ms", service_self),
        ("exec.scan_rows_per_s", scan_rows_s),
        ("exec.pool_dispatch_us", dispatch_us),
        ("core.direct_ms", direct_ms),
        ("core.phase1_ms", med(light, |s| s.phase1_ms)),
        ("core.phase2_ms", med(light, |s| s.phase2_ms)),
        (
            "core.unattributed_ms",
            med(light, |s| s.exec_wall_ms - s.phase1_ms - s.phase2_ms),
        ),
        ("core.ht_resets", med(light, |s| s.ht_resets as f64)),
        (
            "core.partitions_external",
            med(heavy.map_or(light, |c| &c.samples), |s| {
                s.partitions_external as f64
            }),
        ),
        (
            "core.p1_shared_frac",
            frac(&|s| s.strategy.contains("shared")),
        ),
        (
            "core.p1_instream_frac",
            frac(&|s| s.strategy.contains("instream")),
        ),
        (
            "core.p2_sorted_merge_frac",
            if merged > 0 {
                sorted as f64 / merged as f64
            } else {
                0.0
            },
        ),
        ("core.self_ms", core_self),
        ("layout.scatter_rows_per_s", layout_rows_s.0),
        ("layout.gather_rows_per_s", layout_rows_s.1),
        (
            "buffer.evictions",
            (b.evictions_persistent + b.evictions_temporary) as f64 / completed,
        ),
        ("buffer.temp_mib_written", written / MIB),
        ("buffer.temp_mib_read", read / MIB),
        (
            "buffer.readahead_hit_ratio",
            if readahead > 0 {
                b.readahead_hits as f64 / readahead as f64
            } else {
                0.0
            },
        ),
        ("buffer.spill_retries", b.spill_retries as f64),
        (
            "buffer.peak_mem_frac",
            untraced.peak_mem_frac.max(traced.peak_mem_frac),
        ),
        ("buffer.spill_vs_model", spill_vs_model),
        ("buffer.self_ms", buffer_self),
        ("storage.temp_write_mib_s", ceiling.temp_write_mib_s),
        ("storage.temp_read_mib_s", ceiling.temp_read_mib_s),
        ("storage.db_read_mib_s", ceiling.db_read_mib_s),
        ("storage.spill_floor_ms", spill_floor_ms),
        (
            "tpch.gen_rows_per_s",
            env.sizes.rows as f64 / env.setup.generate_s,
        ),
        (
            "obs.trace_overhead_frac",
            if untraced_p50 > 0.0 {
                traced_p50 / untraced_p50 - 1.0
            } else {
                0.0
            },
        ),
        ("unattributed_ms", attribution.unattributed_ms),
    ];
    println!(
        "   trace: {} queries, {} spans -> {}",
        attribution.queries,
        timeline.spans.len(),
        trace_path.display()
    );
    Traced {
        values,
        attempted: traced.attempted(),
        failed: traced.failed(),
        disk_peak_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};
    use std::path::Path;

    /// `BENCHMARK.json` is written by hand; the names, units, directions,
    /// bounds and workloads in it must be the ones the code reports.
    #[test]
    fn benchmark_json_names_what_the_code_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let contract = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = contract.get("workloads").unwrap().as_array();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), spec.name);
            assert_eq!(field(j, "why"), spec.why);
            assert!(
                spec.why.len() <= 200,
                "{}: why is {} chars",
                spec.name,
                spec.why.len()
            );
        }
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = contract.get(section).unwrap().as_array();
            assert_eq!(listed.len(), defs.len(), "{section}");
            for (j, def) in listed.iter().zip(defs) {
                assert_eq!(field(j, "name"), def.name);
                assert_eq!(field(j, "unit"), def.unit, "{}", def.name);
                assert_eq!(field(j, "better"), def.better, "{}", def.name);
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }
}
