//! Per-request span tracing and the flight recorder behind
//! `GET /debug/traces`.
//!
//! Every parsed HTTP request (and every chunk of an asynchronous
//! `/jobs` batch) is assigned a trace ID from one process-wide atomic
//! counter. The request's life is measured as a sequence of spans —
//! accept → parse → cache-lookup → queue-wait → run → serialize →
//! write — each recorded as a microsecond duration, so the cumulative
//! prefix sums form the monotonic span timeline and their total is
//! bounded by the request's wall-clock time.
//!
//! The pieces:
//!
//! * [`Trace`] — a fixed-size, `Copy`, heap-free record of one
//!   completed request (or batch chunk): IDs, route, algorithm name in
//!   an inline buffer, status, and the span breakdown;
//! * [`SpanRecorder`] — a small block of atomics shared between the
//!   HTTP thread and the worker executing the job, so engine-side
//!   spans (cache lookup, queue wait, run) flow back to the
//!   synchronous caller without locks or allocation;
//! * [`FlightRecorder`] — two bounded tracks: a ring of the most
//!   recent N traces (slot claim is one `fetch_add`; each slot has its
//!   own lock so writers never contend with each other, only with a
//!   concurrent `/debug/traces` reader of that same slot) and the
//!   slowest N traces at or above a `--trace-slow-us` threshold
//!   (a single small lock taken only by requests that slow).
//!
//! Recording a warm-path trace performs no heap allocation — the
//! slots are preallocated at construction and [`Trace`] is `Copy` —
//! which `crates/engine/tests/alloc_audit.rs` pins.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Capacity of the inline algorithm-name buffer in a [`Trace`].
/// Longer names are truncated (on a UTF-8 boundary) — every name in
/// the standard registry fits with room to spare.
const TRACE_NAME_CAP: usize = 32;

/// A fixed-capacity inline string: the algorithm name of a [`Trace`]
/// without a heap allocation on the warm path.
#[derive(Clone, Copy)]
pub struct TraceStr {
    len: u8,
    bytes: [u8; TRACE_NAME_CAP],
}

impl TraceStr {
    /// Store `s`, truncating to `TRACE_NAME_CAP` bytes on a UTF-8
    /// character boundary.
    pub fn new(s: &str) -> Self {
        let mut end = s.len().min(TRACE_NAME_CAP);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0u8; TRACE_NAME_CAP];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        TraceStr {
            len: end as u8,
            bytes,
        }
    }

    /// The stored string.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("")
    }
}

impl Default for TraceStr {
    fn default() -> Self {
        TraceStr::new("")
    }
}

impl std::fmt::Debug for TraceStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// One completed request (or batch chunk), spans in microseconds.
///
/// `Copy` and fixed-size by design: recording into the flight
/// recorder is a plain struct copy into a preallocated slot.
#[derive(Clone, Copy, Default, Debug)]
pub struct Trace {
    /// Trace ID (unique per process run; 0 means "empty slot").
    pub id: u64,
    /// For batch chunks: the trace ID of the `POST /jobs` request
    /// that created the parent job (0 for synchronous requests).
    pub parent: u64,
    /// For batch chunks: the parent batch-job ID (0 otherwise).
    pub job: u64,
    /// For batch chunks: the chunk index within the parent job.
    pub chunk: u32,
    /// Connection number (matches the access log's `conn`; 0 for
    /// batch chunks, which run off-connection).
    pub conn: u64,
    /// Request sequence number on that connection.
    pub seq: u64,
    /// HTTP status (for chunks: 200 on success, 500 on failure).
    pub status: u16,
    /// True when the result came from the cache (or coalesced onto an
    /// identical in-flight execution).
    pub cache_hit: bool,
    /// Route label (`rank`, `jobs_submit`, …; `jobs_chunk` for batch
    /// chunks).
    pub route: &'static str,
    /// Algorithm name for submit routes and chunks; empty otherwise.
    pub algorithm: TraceStr,
    /// Request head + body parse time.
    pub parse_us: u64,
    /// Digest + result-cache lookup time.
    pub cache_us: u64,
    /// Time the chunk sat in the bounded worker-pool queue.
    pub queue_us: u64,
    /// `Algorithm::run` execution time.
    pub run_us: u64,
    /// Result-JSON serialization time.
    pub serialize_us: u64,
    /// Response write time (socket `write_all`).
    pub write_us: u64,
    /// End-to-end wall-clock time (accept of this request to response
    /// written); spans above sum to at most this.
    pub total_us: u64,
    /// Completion timestamp: microseconds since the recorder started.
    pub end_us: u64,
}

impl Trace {
    /// Append this trace as a JSON object. Batch-lineage fields
    /// (`parent`, `job`, `chunk`) appear only for chunk traces.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"id\":{},\"route\":\"", self.id);
        escape_into(self.route, out);
        out.push_str("\",\"algorithm\":\"");
        escape_into(self.algorithm.as_str(), out);
        let _ = write!(
            out,
            "\",\"status\":{},\"cache_hit\":{},\"conn\":{},\"seq\":{}",
            self.status, self.cache_hit, self.conn, self.seq
        );
        if self.job != 0 {
            let _ = write!(
                out,
                ",\"parent\":{},\"job\":{},\"chunk\":{}",
                self.parent, self.job, self.chunk
            );
        }
        let _ = write!(
            out,
            ",\"spans\":{{\"parse_us\":{},\"cache_us\":{},\"queue_us\":{},\"run_us\":{},\
             \"serialize_us\":{},\"write_us\":{}}},\"total_us\":{},\"end_us\":{}}}",
            self.parse_us,
            self.cache_us,
            self.queue_us,
            self.run_us,
            self.serialize_us,
            self.write_us,
            self.total_us,
            self.end_us
        );
    }
}

fn escape_into(s: &str, out: &mut String) {
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
}

/// Engine-side span cells for one submission, shared between the
/// submitting thread and the worker that executes the chunk. The
/// worker stores `queue_us`/`run_us` before it publishes the result,
/// so the submitter reads settled values after `submit` returns.
///
/// The HTTP layer keeps one of these per connection scratch and
/// resets it per request, so the warm path clones an existing `Arc`
/// instead of allocating.
#[derive(Default)]
pub struct SpanRecorder {
    /// Digest + result-cache lookup (written by the submitting
    /// thread).
    pub cache_us: AtomicU64,
    /// Bounded-queue wait, measured where the pool dequeues.
    pub queue_us: AtomicU64,
    /// `Algorithm::run` wall-clock.
    pub run_us: AtomicU64,
    /// Result served from cache or coalesced onto an in-flight twin.
    pub cache_hit: AtomicBool,
}

impl SpanRecorder {
    /// Zero every cell for reuse by the next request.
    pub fn reset(&self) {
        self.cache_us.store(0, Ordering::Relaxed);
        self.queue_us.store(0, Ordering::Relaxed);
        self.run_us.store(0, Ordering::Relaxed);
        self.cache_hit.store(false, Ordering::Relaxed);
    }
}

/// A trace ID plus the span cells to fill — everything the engine
/// needs to attribute one submission to a trace.
#[derive(Clone)]
pub struct TraceHandle {
    /// The trace ID, also threaded into
    /// [`ExecContext`](crate::tables::ExecContext) for the algorithm.
    pub id: u64,
    /// Where the engine records cache/queue/run spans.
    pub spans: Arc<SpanRecorder>,
}

/// Bounded in-memory store of recent and slow traces, served as JSON
/// at `GET /debug/traces`.
pub struct FlightRecorder {
    started: Instant,
    next_id: AtomicU64,
    recorded: AtomicU64,
    /// Total slot claims; `head % recent.len()` is the next slot.
    head: AtomicU64,
    recent: Vec<Mutex<Trace>>,
    slow_threshold_us: u64,
    slow_capacity: usize,
    /// The slowest traces at/above the threshold. Locked only by
    /// requests that slow and by the debug endpoint; preallocated to
    /// `slow_capacity` so inserts never allocate.
    slow: Mutex<Vec<Trace>>,
}

impl FlightRecorder {
    /// A recorder keeping the `recent` most recent traces (minimum 1)
    /// and the `slow` slowest traces with `total_us >=
    /// slow_threshold_us`.
    pub fn new(recent: usize, slow: usize, slow_threshold_us: u64) -> Self {
        let recent = recent.max(1);
        FlightRecorder {
            started: Instant::now(),
            next_id: AtomicU64::new(1),
            recorded: AtomicU64::new(0),
            head: AtomicU64::new(0),
            recent: (0..recent).map(|_| Mutex::new(Trace::default())).collect(),
            slow_threshold_us,
            slow_capacity: slow,
            slow: Mutex::new(Vec::with_capacity(slow)),
        }
    }

    /// Allocate the next trace ID (one atomic add).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds since the recorder was constructed — the
    /// timestamp domain of [`Trace::end_us`].
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Total traces recorded since start.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Record one completed trace: copy it into the next recent-ring
    /// slot and, when at/above the slow threshold, into the slow
    /// track. Never allocates.
    pub fn record(&self, trace: &Trace) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (claim % self.recent.len() as u64) as usize;
        *self.recent[slot].lock().expect("recent slot lock") = *trace;
        if self.slow_capacity > 0 && trace.total_us >= self.slow_threshold_us {
            let mut slow = self.slow.lock().expect("slow track lock");
            if slow.len() < self.slow_capacity {
                slow.push(*trace);
            } else if let Some((min_idx, min)) = slow
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.total_us)
                .map(|(i, t)| (i, t.total_us))
            {
                if trace.total_us > min {
                    slow[min_idx] = *trace;
                }
            }
        }
    }

    /// Append the `GET /debug/traces` JSON body: the recent ring
    /// (oldest first) and the slow track (slowest first), each
    /// optionally filtered by exact route and/or algorithm label.
    pub fn write_json(&self, out: &mut String, route: Option<&str>, algorithm: Option<&str>) {
        let keep = |t: &Trace| {
            t.id != 0
                && route.is_none_or(|r| t.route == r)
                && algorithm.is_none_or(|a| t.algorithm.as_str() == a)
        };
        let _ = write!(
            out,
            "{{\"slow_threshold_us\":{},\"recorded\":{},\"recent\":[",
            self.slow_threshold_us,
            self.recorded()
        );
        let head = self.head.load(Ordering::Relaxed);
        let len = self.recent.len() as u64;
        let (start, count) = if head <= len {
            (0, head)
        } else {
            (head % len, len)
        };
        let mut first = true;
        for i in 0..count {
            let slot = ((start + i) % len) as usize;
            let trace = *self.recent[slot].lock().expect("recent slot lock");
            if !keep(&trace) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            trace.write_json(out);
        }
        out.push_str("],\"slow\":[");
        let mut slow: Vec<Trace> = self
            .slow
            .lock()
            .expect("slow track lock")
            .iter()
            .copied()
            .filter(keep)
            .collect();
        slow.sort_by_key(|t| std::cmp::Reverse(t.total_us));
        let mut first = true;
        for trace in &slow {
            if !first {
                out.push(',');
            }
            first = false;
            trace.write_json(out);
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn trace(id: u64, total_us: u64) -> Trace {
        Trace {
            id,
            route: "rank",
            algorithm: TraceStr::new("mallows"),
            status: 200,
            total_us,
            run_us: total_us / 2,
            queue_us: total_us / 4,
            ..Trace::default()
        }
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let rec = FlightRecorder::new(4, 2, 100);
        let a = rec.next_id();
        let b = rec.next_id();
        assert!(b > a);
    }

    #[test]
    fn recent_ring_keeps_last_n_in_order() {
        let rec = FlightRecorder::new(4, 0, u64::MAX);
        for id in 1..=10u64 {
            rec.record(&trace(id, 10));
        }
        let mut out = String::new();
        rec.write_json(&mut out, None, None);
        let parsed = Json::parse(&out).expect(&out);
        let recent = parsed.get("recent").unwrap().as_array().unwrap();
        let ids: Vec<u64> = recent
            .iter()
            .map(|t| t.get("id").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "{out}");
        assert_eq!(rec.recorded(), 10);
    }

    #[test]
    fn slow_track_keeps_slowest_above_threshold() {
        let rec = FlightRecorder::new(2, 3, 100);
        for (id, total) in [(1, 50), (2, 150), (3, 400), (4, 100), (5, 300), (6, 200)] {
            rec.record(&trace(id, total));
        }
        let mut out = String::new();
        rec.write_json(&mut out, None, None);
        let parsed = Json::parse(&out).expect(&out);
        let slow = parsed.get("slow").unwrap().as_array().unwrap();
        let totals: Vec<u64> = slow
            .iter()
            .map(|t| t.get("total_us").unwrap().as_u64().unwrap())
            .collect();
        // 50 is below the threshold; 100 was evicted by 200
        assert_eq!(totals, vec![400, 300, 200], "{out}");
    }

    #[test]
    fn filters_match_route_and_algorithm() {
        let rec = FlightRecorder::new(8, 0, u64::MAX);
        rec.record(&trace(1, 10));
        let mut other = trace(2, 10);
        other.route = "healthz";
        other.algorithm = TraceStr::new("");
        rec.record(&other);

        let mut out = String::new();
        rec.write_json(&mut out, Some("rank"), None);
        assert!(
            out.contains("\"id\":1") && !out.contains("\"id\":2"),
            "{out}"
        );

        out.clear();
        rec.write_json(&mut out, None, Some("mallows"));
        assert!(
            out.contains("\"id\":1") && !out.contains("\"id\":2"),
            "{out}"
        );

        out.clear();
        rec.write_json(&mut out, Some("nope"), None);
        let parsed = Json::parse(&out).expect(&out);
        assert!(parsed.get("recent").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn chunk_lineage_fields_appear_only_for_chunks() {
        let mut t = trace(1, 10);
        let mut out = String::new();
        t.write_json(&mut out);
        assert!(!out.contains("\"job\""), "{out}");
        t.job = 7;
        t.parent = 3;
        t.chunk = 2;
        out.clear();
        t.write_json(&mut out);
        let parsed = Json::parse(&out).expect(&out);
        assert_eq!(parsed.get("job").unwrap().as_u64(), Some(7));
        assert_eq!(parsed.get("parent").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("chunk").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn trace_json_escapes_hostile_algorithm_names() {
        let mut t = trace(1, 10);
        t.algorithm = TraceStr::new("a\"b\\c\nd");
        let mut out = String::new();
        t.write_json(&mut out);
        let parsed = Json::parse(&out).expect(&out);
        assert_eq!(
            parsed.get("algorithm").unwrap().as_str(),
            Some("a\"b\\c\nd")
        );
    }

    #[test]
    fn trace_str_truncates_on_char_boundary() {
        let long = "é".repeat(TRACE_NAME_CAP); // 2 bytes each
        let t = TraceStr::new(&long);
        assert!(t.as_str().len() <= TRACE_NAME_CAP);
        assert!(t.as_str().chars().all(|c| c == 'é'));
        assert_eq!(TraceStr::new("mallows").as_str(), "mallows");
    }

    #[test]
    fn span_recorder_resets() {
        let spans = SpanRecorder::default();
        spans.queue_us.store(5, Ordering::Relaxed);
        spans.run_us.store(9, Ordering::Relaxed);
        spans.cache_hit.store(true, Ordering::Relaxed);
        spans.reset();
        assert_eq!(spans.queue_us.load(Ordering::Relaxed), 0);
        assert_eq!(spans.run_us.load(Ordering::Relaxed), 0);
        assert!(!spans.cache_hit.load(Ordering::Relaxed));
    }
}
