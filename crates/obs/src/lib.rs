//! # rexa-obs — observability core
//!
//! The quantities the paper plots — spilled bytes, partition fan-out, phase
//! timings, eviction traffic — are the quantities every layer of the engine
//! needs to emit to explain its own behaviour at the memory cliff. This
//! crate provides the three primitives the rest of the workspace threads
//! through:
//!
//! * [`metrics`] — a lock-free metrics core: sharded atomic [`Counter`],
//!   [`Gauge`], fixed-bucket [`Histogram`], and a [`MetricsRegistry`] with
//!   snapshot/merge and Prometheus text-format exposition.
//! * [`profile`] — a per-query [`QueryProfile`] assembled by a thread-safe
//!   [`ProfileCollector`]: wall/CPU time per phase, rows in/out, groups,
//!   partitions gone external, spill traffic, rendered as a human-readable
//!   `EXPLAIN ANALYZE`-style tree by [`QueryProfile::render`].
//! * [`trace`] — a bounded ring-buffer [`EventTrace`] of slow-path events
//!   (spill, eviction, retry/backoff, fault injection, degradation
//!   decisions) with monotonic timestamps, so chaos-test failures come with
//!   a causal event log.
//! * [`span`] — a per-query timeline: lock-free per-worker [`SpanBuffer`]s
//!   collected by a [`SpanCollector`] and exported as Chrome trace-event
//!   JSON for Perfetto, so the phase-1/phase-2 barrier and straggler
//!   workers are visible on a real timeline instead of inferred from
//!   counters.
//!
//! The crate depends only on `parking_lot` so every layer — exec, storage,
//! buffer, layout, core, service — can depend on it without cycles.

pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, MetricKind, MetricNameError, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};
pub use profile::{Phase, PhaseProfile, ProfileCollector, QueryProfile};
pub use span::{SpanBuffer, SpanCollector, SpanEvent, SpanKind, SpanRecord, SpanTimeline};
pub use trace::{EventTrace, TraceEvent, TraceEventKind};
