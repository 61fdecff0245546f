//! Timeline span tracing: per-worker start/stop spans with monotonic
//! nanosecond timestamps, exported as Chrome trace-event JSON for
//! Perfetto / `about://tracing`.
//!
//! The profile counters ([`crate::profile`]) say *how much* time each phase
//! took; spans say *when* — which is the only way to see which worker held
//! up the barrier between the phases, which partition ran last in phase 2,
//! and where a straggler worker sat idle. The design constraints:
//!
//! * **Zero cost when detached.** Every instrumentation site is guarded by
//!   an `Option` check on the context; no collector means no
//!   timestamps are taken and no records are written.
//! * **Lock-free per-worker buffers.** Each worker records into its own fixed-capacity [`SpanBuffer`]: a slot is claimed
//!   with one `fetch_add`, written, and published with one
//!   compare-exchange — no mutex on the record path, no contention between
//!   workers. Buffers are merged once, at query end.
//! * **Static names.** [`SpanRecord`] is `Copy` (`&'static str` names plus
//!   two numeric args), so recording is a handful of word writes and the
//!   buffer needs no drop glue.
//!
//! Timestamps are nanosecond offsets from the collector's creation
//! ([`Instant`]-based, monotonic), so spans recorded by different threads
//! order correctly on one timeline.

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::fmt::Write as _;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default per-buffer span capacity. A worker records a few spans per
/// morsel and per partition — hundreds per query — so this leaves an order
/// of magnitude of headroom before spans are dropped (and counted).
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// How a span is rendered in the Chrome trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration on its thread's track (`ph: "X"`).
    Complete,
    /// A zero-duration marker (`ph: "i"`).
    Instant,
}

/// Span categories (the Chrome `cat` field, used for filtering in the UI).
pub mod cat {
    pub const COMPUTE: &str = "compute";
    pub const IO: &str = "io";
    pub const SERVICE: &str = "service";
    pub const SQL: &str = "sql";
}

/// One recorded span. `Copy` by construction: static name/category/arg
/// keys and numeric values only, so the lock-free buffer below never needs
/// to drop a slot.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub name: &'static str,
    pub cat: &'static str,
    pub kind: SpanKind,
    /// Nanoseconds from the collector epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Up to two numeric args; a key of `""` means the slot is unused.
    pub args: [(&'static str, u64); 2],
}

pub const NO_ARGS: [(&str, u64); 2] = [("", 0), ("", 0)];

/// One numeric arg (second slot unused).
pub fn arg1(key: &'static str, value: u64) -> [(&'static str, u64); 2] {
    [(key, value), ("", 0)]
}

/// Two numeric args.
pub fn arg2(k1: &'static str, v1: u64, k2: &'static str, v2: u64) -> [(&'static str, u64); 2] {
    [(k1, v1), (k2, v2)]
}

/// A fixed-capacity, lock-free span buffer owned by one track (worker,
/// coordinator, service, SQL). The designed use is single-writer:
/// the owning thread records, and the collector reads only at merge time.
/// The publish protocol (`reserved` claim → slot write → `committed` bump)
/// stays sound even if two threads share a buffer by mistake — a reader
/// can never observe an unwritten slot.
pub struct SpanBuffer {
    track: String,
    epoch: Instant,
    slots: Box<[UnsafeCell<MaybeUninit<SpanRecord>>]>,
    /// Slots claimed by writers (may exceed capacity; the excess is the
    /// drop count).
    reserved: AtomicUsize,
    /// Slots whose record is fully written and visible to readers.
    committed: AtomicUsize,
}

// SAFETY: slot `i` is written exactly once, by the thread whose `reserved`
// fetch_add returned `i`, and becomes readable only after `committed` is
// advanced past `i` with Release ordering; readers load `committed` with
// Acquire and touch only slots below it. No slot is ever written twice or
// read while being written.
unsafe impl Sync for SpanBuffer {}
unsafe impl Send for SpanBuffer {}

impl SpanBuffer {
    fn new(track: String, epoch: Instant, capacity: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpanBuffer {
            track,
            epoch,
            slots,
            reserved: AtomicUsize::new(0),
            committed: AtomicUsize::new(0),
        }
    }

    /// The track label this buffer records under.
    pub fn track(&self) -> &str {
        &self.track
    }

    /// Nanoseconds since the collector epoch (for stamping span starts).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Append a record. Lock-free; drops (and counts) when full.
    pub fn record(&self, rec: SpanRecord) {
        let idx = self.reserved.fetch_add(1, Ordering::Relaxed);
        if idx >= self.slots.len() {
            return; // full: the merge reports reserved - capacity as dropped
        }
        // SAFETY: the claim above makes this thread the unique writer of
        // slot `idx`; see the Sync impl note.
        unsafe { (*self.slots[idx].get()).write(rec) };
        // Publish in claim order. For the designed single-writer use this
        // succeeds on the first iteration; under accidental sharing it
        // spins briefly until earlier slots are published.
        while self
            .committed
            .compare_exchange(idx, idx + 1, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
    }

    /// Record a completed span that started at `start_ns` and ends now.
    pub fn complete(
        &self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        args: [(&'static str, u64); 2],
    ) {
        let end = self.now_ns();
        self.record(SpanRecord {
            name,
            cat,
            kind: SpanKind::Complete,
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            args,
        });
    }

    /// Record a completed span with an explicit end timestamp (for batch
    /// segmentation, where the end of one batch was stamped before the
    /// next began).
    pub fn complete_between(
        &self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: [(&'static str, u64); 2],
    ) {
        self.record(SpanRecord {
            name,
            cat,
            kind: SpanKind::Complete,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            args,
        });
    }

    /// Record a zero-duration marker at the current time.
    pub fn instant(&self, name: &'static str, cat: &'static str, args: [(&'static str, u64); 2]) {
        self.record(SpanRecord {
            name,
            cat,
            kind: SpanKind::Instant,
            start_ns: self.now_ns(),
            dur_ns: 0,
            args,
        });
    }

    fn dropped(&self) -> u64 {
        self.reserved
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots.len()) as u64
    }

    fn snapshot_into(&self, track_idx: u32, out: &mut Vec<SpanEvent>) {
        let n = self.committed.load(Ordering::Acquire).min(self.slots.len());
        for slot in &self.slots[..n] {
            // SAFETY: slots below `committed` are fully written and never
            // mutated again (records are Copy; no drop).
            let rec = unsafe { (*slot.get()).assume_init() };
            out.push(SpanEvent {
                track: track_idx,
                name: rec.name,
                cat: rec.cat,
                kind: rec.kind,
                start_ns: rec.start_ns,
                dur_ns: rec.dur_ns,
                args: rec.args,
            });
        }
    }
}

/// An owned span after the per-worker buffers are merged: a [`SpanRecord`]
/// plus the index of its track in [`SpanTimeline::tracks`].
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    pub track: u32,
    pub name: &'static str,
    pub cat: &'static str,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub args: [(&'static str, u64); 2],
}

/// The merged result of a traced query: every span from every track,
/// sorted by start time, plus the track labels.
#[derive(Clone, Debug, Default)]
pub struct SpanTimeline {
    /// Track labels; [`SpanEvent::track`] indexes into this.
    pub tracks: Vec<String>,
    /// All spans, sorted by `start_ns`.
    pub spans: Vec<SpanEvent>,
    /// Spans dropped because a buffer filled up.
    pub dropped: u64,
}

impl SpanTimeline {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

/// The per-query span collector: hands out per-track [`SpanBuffer`]s and
/// merges them at query end. Attach one to an `ExecContext` (and, through
/// the operator, to the buffer manager) to trace a run; leave it off for
/// zero tracing cost.
pub struct SpanCollector {
    /// Process-unique id, so long-lived threads (I/O workers) can cache
    /// their buffer per collector without holding the registry lock.
    id: u64,
    epoch: Instant,
    capacity: usize,
    buffers: Mutex<Vec<Arc<SpanBuffer>>>,
}

impl SpanCollector {
    pub fn new() -> Arc<Self> {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A collector whose buffers hold `capacity` spans each.
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(SpanCollector {
            id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            capacity: capacity.max(16),
            buffers: Mutex::new(Vec::new()),
        })
    }

    /// Process-unique collector id (for per-thread buffer caching).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Nanoseconds since this collector was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Register a new buffer recording under `track`. Registration takes a
    /// short lock (once per worker per query, never per span); recording
    /// through the returned buffer is lock-free. Multiple buffers may use
    /// the same track label — they merge onto one track.
    pub fn track(&self, track: impl Into<String>) -> Arc<SpanBuffer> {
        let buf = Arc::new(SpanBuffer::new(track.into(), self.epoch, self.capacity));
        self.buffers.lock().push(Arc::clone(&buf));
        buf
    }

    /// Merge every buffer into one timeline: tracks deduplicated by label
    /// (registration order), spans sorted by start time. Non-destructive —
    /// buffers keep recording and a later merge sees the union.
    ///
    /// Callers must quiesce the writers they care about first (join the
    /// workers, drain the I/O scheduler); spans recorded concurrently with
    /// the merge land in a later merge.
    pub fn merge(&self) -> SpanTimeline {
        let buffers = self.buffers.lock().clone();
        let mut tracks: Vec<String> = Vec::new();
        let mut spans: Vec<SpanEvent> = Vec::new();
        let mut dropped = 0u64;
        for buf in &buffers {
            let idx = match tracks.iter().position(|t| t == buf.track()) {
                Some(i) => i as u32,
                None => {
                    tracks.push(buf.track().to_string());
                    (tracks.len() - 1) as u32
                }
            };
            buf.snapshot_into(idx, &mut spans);
            dropped += buf.dropped();
        }
        spans.sort_by_key(|s| s.start_ns);
        SpanTimeline {
            tracks,
            spans,
            dropped,
        }
    }
}

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_args(out: &mut String, args: &[(&'static str, u64); 2]) {
    out.push_str(",\"args\":{");
    let mut first = true;
    for (k, v) in args {
        if k.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{v}", json_escape(k));
    }
    out.push('}');
}

/// Serialize a timeline as Chrome trace-event JSON (the object form, with
/// a `traceEvents` array), loadable in Perfetto and `about://tracing`.
///
/// Track mapping: every track becomes a thread (`tid` = track index) of
/// one process, named via `thread_name` metadata events. `Complete` spans
/// are `ph:"X"` duration events; `Instant` spans are `ph:"i"`. Timestamps are microseconds (Chrome's unit) from the
/// collector epoch.
pub fn chrome_trace_json(timeline: &SpanTimeline) -> String {
    let mut out = String::with_capacity(256 + timeline.spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
    };
    push(&mut out, &mut first);
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"rexa\"}}",
    );
    for (i, track) in timeline.tracks.iter().enumerate() {
        push(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(track)
        );
        // Keep tracks in registration order in the UI.
        push(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{i}}}}}"
        );
    }
    for s in &timeline.spans {
        let ts = s.start_ns as f64 / 1000.0;
        let dur = s.dur_ns as f64 / 1000.0;
        let name = json_escape(s.name);
        let cat = json_escape(s.cat);
        match s.kind {
            SpanKind::Complete => {
                push(&mut out, &mut first);
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{name}\",\
                     \"cat\":\"{cat}\",\"ts\":{ts:.3},\"dur\":{dur:.3}",
                    s.track
                );
                write_args(&mut out, &s.args);
                out.push('}');
            }
            SpanKind::Instant => {
                push(&mut out, &mut first);
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"name\":\"{name}\",\
                     \"cat\":\"{cat}\",\"s\":\"t\",\"ts\":{ts:.3}",
                    s.track
                );
                write_args(&mut out, &s.args);
                out.push('}');
            }
        }
    }
    out.push_str("\n]}");
    out
}

/// One line per span name — count and total duration, largest first — for
/// the `render()` summary tree.
pub fn summarize(timeline: &SpanTimeline, max_names: usize) -> String {
    let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
    for s in &timeline.spans {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += s.dur_ns;
            }
            None => by_name.push((s.name, 1, s.dur_ns)),
        }
    }
    by_name.sort_by_key(|e| std::cmp::Reverse(e.2));
    let mut out = String::new();
    let _ = write!(
        out,
        "{} spans on {} tracks",
        timeline.spans.len(),
        timeline.tracks.len()
    );
    if timeline.dropped > 0 {
        let _ = write!(out, " ({} dropped)", timeline.dropped);
    }
    out.push_str(": ");
    for (i, (name, count, total)) in by_name.iter().take(max_names).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{name} {count}x {:.3}s",
            *total as f64 / 1_000_000_000.0
        );
    }
    if by_name.len() > max_names {
        out.push_str(", …");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_merges_per_track() {
        let c = SpanCollector::new();
        let w0 = c.track("worker 0");
        let w1 = c.track("worker 1");
        let t = w0.now_ns();
        w0.complete("probe", cat::COMPUTE, t, arg1("chunks", 7));
        w1.complete("probe", cat::COMPUTE, w1.now_ns(), NO_ARGS);
        w1.instant("publish", cat::COMPUTE, arg1("partition", 3));
        let tl = c.merge();
        assert_eq!(tl.tracks, vec!["worker 0", "worker 1"]);
        assert_eq!(tl.spans.len(), 3);
        assert_eq!(tl.dropped, 0);
        // Sorted by start.
        for w in tl.spans.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    }

    #[test]
    fn same_label_merges_onto_one_track() {
        let c = SpanCollector::new();
        let a = c.track("io 0");
        let b = c.track("io 0");
        a.instant("x", cat::IO, NO_ARGS);
        b.instant("y", cat::IO, NO_ARGS);
        let tl = c.merge();
        assert_eq!(tl.tracks, vec!["io 0"]);
        assert_eq!(tl.spans.len(), 2);
        assert!(tl.spans.iter().all(|s| s.track == 0));
    }

    #[test]
    fn buffer_bounds_and_counts_drops() {
        let c = SpanCollector::with_capacity(16);
        let b = c.track("w");
        for _ in 0..40 {
            b.instant("e", cat::COMPUTE, NO_ARGS);
        }
        let tl = c.merge();
        assert_eq!(tl.spans.len(), 16);
        assert_eq!(tl.dropped, 24);
    }

    #[test]
    fn concurrent_tracks_record_without_loss() {
        let c = SpanCollector::with_capacity(4096);
        std::thread::scope(|s| {
            for w in 0..8 {
                let buf = c.track(format!("worker {w}"));
                s.spawn(move || {
                    for i in 0..1000 {
                        let t = buf.now_ns();
                        buf.complete("unit", cat::COMPUTE, t, arg1("i", i));
                    }
                });
            }
        });
        let tl = c.merge();
        assert_eq!(tl.spans.len(), 8000);
        assert_eq!(tl.dropped, 0);
        assert_eq!(tl.tracks.len(), 8);
    }

    #[test]
    fn merge_is_nondestructive() {
        let c = SpanCollector::new();
        let b = c.track("w");
        b.instant("a", cat::COMPUTE, NO_ARGS);
        assert_eq!(c.merge().spans.len(), 1);
        b.instant("b", cat::COMPUTE, NO_ARGS);
        assert_eq!(c.merge().spans.len(), 2);
    }

    #[test]
    fn chrome_trace_shape() {
        let c = SpanCollector::new();
        let w = c.track("worker 0");
        let io = c.track("io 0");
        let t = w.now_ns();
        w.complete("probe", cat::COMPUTE, t, arg2("chunks", 3, "morsels", 1));
        io.instant("spill", cat::IO, arg1("bytes", 4096));
        w.instant("publish", cat::COMPUTE, arg1("partition", 5));
        let json = chrome_trace_json(&c.merge());
        // Well-formed enough for a JSON parser and for the CI validator.
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        for needle in [
            "\"thread_name\"",
            "\"name\":\"worker 0\"",
            "\"name\":\"io 0\"",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"chunks\":3",
            "\"bytes\":4096",
            "\"cat\":\"io\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn summary_names_totals() {
        let c = SpanCollector::new();
        let w = c.track("w");
        let t = w.now_ns();
        w.complete("probe", cat::COMPUTE, t, NO_ARGS);
        w.complete("merge", cat::COMPUTE, w.now_ns(), NO_ARGS);
        w.complete("merge", cat::COMPUTE, w.now_ns(), NO_ARGS);
        let s = summarize(&c.merge(), 8);
        assert!(s.contains("3 spans on 1 tracks"), "{s}");
        assert!(s.contains("merge 2x"), "{s}");
        assert!(s.contains("probe 1x"), "{s}");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let c = SpanCollector::new();
        c.track("weird \"track\"\n");
        let json = chrome_trace_json(&c.merge());
        assert!(json.contains("weird \\\"track\\\"\\n"), "{json}");
    }
}
