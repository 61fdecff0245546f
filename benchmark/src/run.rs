//! The closed loop: each client sends its next query when the previous one
//! has returned and been verified, until the window's time is up.

use crate::check::Checksum;
use crate::scratch::{disk_usage, DISK_BUDGET_BYTES};
use crate::trace::{BENCH_CAT, QUERY_SPAN};
use crate::workload::{query_options, Env};
use rexa_buffer::BufferStats;
use rexa_obs::span::NO_ARGS;
use rexa_obs::SpanCollector;
use rexa_service::QueryOutput;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Queries each client runs before the window opens; their latencies are
/// dropped (first-touch page faults, allocator growth), their failures not.
pub const WARMUP_QUERIES: usize = 3;

/// What one completed, verified query reported.
pub struct Sample {
    pub latency_ms: f64,
    pub queue_wait_ms: f64,
    /// `stats.profile.wall`: the operator's own wall time.
    pub exec_wall_ms: f64,
    pub phase1_ms: f64,
    pub phase2_ms: f64,
    pub ht_resets: u64,
    pub partitions_external: u64,
    pub partitions_sorted_merge: u64,
    pub partitions_merged: u64,
    pub strategy: String,
}

impl Sample {
    fn new(latency: Duration, out: &QueryOutput) -> Sample {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let profile = &out.stats.profile;
        let sorted = profile
            .partition_merges
            .iter()
            .filter(|m| m.strategy == "sorted_merge")
            .count();
        Sample {
            latency_ms: ms(latency),
            queue_wait_ms: ms(out.queued_for),
            exec_wall_ms: ms(profile.wall),
            phase1_ms: ms(out.stats.phase1),
            phase2_ms: ms(out.stats.phase2),
            ht_resets: profile.ht_resets,
            partitions_external: profile.partitions_external,
            partitions_sorted_merge: sorted as u64,
            partitions_merged: profile.partition_merges.len() as u64,
            strategy: profile.strategy.clone(),
        }
    }
}

#[derive(Default)]
pub struct ClientWindow {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Submissions shed by the admission queue.
    pub shed: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Results whose row count or checksum differ from the reference.
    pub wrong: u64,
    pub first_failure: Option<String>,
}

/// One measured window over a set-up workload.
pub struct Window {
    pub clients: Vec<ClientWindow>,
    /// From the window opening to the last client's last query returning.
    pub wall_s: f64,
    /// Buffer-manager counters over the timed part of the window.
    pub buffer: BufferStats,
    /// Highest sampled `memory_used` ÷ limit.
    pub peak_mem_frac: f64,
    /// Samples that read `memory_used` above the limit.
    pub overshoots: u64,
    pub disk_peak_bytes: u64,
    /// The scratch directory outgrew [`DISK_BUDGET_BYTES`]; clients stopped.
    pub disk_budget_exceeded: bool,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    /// Errors, refusals, wrong results and memory-limit overshoots.
    pub fn failed(&self) -> u64 {
        let per_client: u64 = self
            .clients
            .iter()
            .map(|c| c.shed + c.errors + c.wrong)
            .sum();
        per_client + self.overshoots
    }

    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.samples.len() as u64).sum()
    }
}

fn verify(out: &QueryOutput, reference: &Checksum) -> Result<(), String> {
    let Some(result) = &out.output else {
        return Err("query returned no collected output".into());
    };
    let mut sum = Checksum::default();
    for chunk in result.chunks() {
        sum.add_chunk(chunk);
    }
    if sum == *reference {
        Ok(())
    } else {
        Err(format!(
            "result {sum:?} differs from reference {reference:?}"
        ))
    }
}

/// Run every client of `env` for `seconds` (after `warmup` untimed queries
/// each). With `spans`, the first client's queries are traced into the
/// collector and bracketed by the benchmark's own spans.
pub fn measure(
    env: &Env,
    seconds: f64,
    warmup: usize,
    spans: Option<&Arc<SpanCollector>>,
    scratch: &Path,
) -> Window {
    let stop_sampler = AtomicBool::new(false);
    let over_budget = AtomicBool::new(false);
    let peak_mem = AtomicU64::new(0);
    let overshoots = AtomicU64::new(0);
    let disk_peak = AtomicU64::new(0);
    let limit = env.mgr.memory_limit() as u64;
    // Clients plus this thread meet here once warm-up is done.
    let warmed = Barrier::new(env.clients.len() + 1);
    let window = Duration::from_secs_f64(seconds);

    let (clients, wall_s, buffer) = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut tick = 0u32;
            while !stop_sampler.load(Ordering::Relaxed) {
                let used = env.mgr.memory_used() as u64;
                peak_mem.fetch_max(used, Ordering::Relaxed);
                if used > limit {
                    overshoots.fetch_add(1, Ordering::Relaxed);
                }
                // Walking the directory costs more than reading a counter.
                if tick.is_multiple_of(40) {
                    let disk = disk_usage(scratch);
                    disk_peak.fetch_max(disk, Ordering::Relaxed);
                    if disk > DISK_BUDGET_BYTES {
                        over_budget.store(true, Ordering::Relaxed);
                    }
                }
                tick = tick.wrapping_add(1);
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        let handles: Vec<_> = env
            .clients
            .iter()
            .enumerate()
            .map(|(i, client)| {
                let spans = if i == 0 { spans.cloned() } else { None };
                let (warmed, over_budget) = (&warmed, &over_budget);
                scope.spawn(move || {
                    let mut options = query_options(env.threads);
                    options.spans = spans.clone();
                    // The benchmark's own spans, when this client is traced.
                    let bench = spans.as_ref().map(|sc| sc.track("bench"));
                    let now_ns = || bench.as_ref().map_or(0, |b| b.now_ns());
                    let span = |name: &'static str, start_ns: u64| {
                        if let Some(b) = &bench {
                            b.complete(name, BENCH_CAT, start_ns, NO_ARGS);
                        }
                    };
                    let mut out = ClientWindow::default();
                    let mut run_one = |timed: bool| {
                        out.attempted += 1;
                        let t_query = now_ns();
                        let t0 = Instant::now();
                        let submitted = env.service.submit_sql_with(&client.sql, options.clone());
                        span("submit_sql", t_query);
                        let t_wait = now_ns();
                        let result = match submitted {
                            Ok(handle) => handle.wait().map_err(|e| e.to_string()),
                            Err(rexa_sql::SqlError::Engine(rexa_exec::Error::Overloaded {
                                ..
                            })) => {
                                out.shed += 1;
                                return;
                            }
                            Err(e) => Err(e.to_string()),
                        };
                        let latency = t0.elapsed();
                        span("wait", t_wait);
                        span(QUERY_SPAN, t_query);
                        let t_verify = now_ns();
                        let checked = match result {
                            Ok(output) => match verify(&output, &client.reference) {
                                Ok(()) => Ok(output),
                                Err(e) => {
                                    out.wrong += 1;
                                    Err(e)
                                }
                            },
                            Err(e) => {
                                out.errors += 1;
                                Err(e)
                            }
                        };
                        span("verify", t_verify);
                        match checked {
                            Ok(output) if timed => {
                                out.samples.push(Sample::new(latency, &output));
                            }
                            Ok(_) => {}
                            Err(e) => {
                                out.first_failure.get_or_insert(e);
                            }
                        }
                    };
                    for _ in 0..warmup {
                        run_one(false);
                    }
                    warmed.wait();
                    let start = Instant::now();
                    while start.elapsed() < window && !over_budget.load(Ordering::Relaxed) {
                        run_one(true);
                    }
                    out
                })
            })
            .collect();

        warmed.wait();
        let before = env.mgr.stats();
        let start = Instant::now();
        let clients: Vec<ClientWindow> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let wall_s = start.elapsed().as_secs_f64();
        let buffer = env.mgr.stats().delta_since(&before);
        stop_sampler.store(true, Ordering::Relaxed);
        (clients, wall_s, buffer)
    });

    Window {
        clients,
        wall_s,
        buffer,
        peak_mem_frac: peak_mem.load(Ordering::Relaxed) as f64 / limit as f64,
        overshoots: overshoots.load(Ordering::Relaxed),
        disk_peak_bytes: disk_peak.load(Ordering::Relaxed),
        disk_budget_exceeded: over_budget.load(Ordering::Relaxed),
    }
}
