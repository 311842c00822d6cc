//! Allocation audit for the HTTP layer's warm path.
//!
//! The keep-alive reactor promises that a warm request performs zero
//! heap allocations in the HTTP parse/serialize layer: JSON parsing
//! into a reused [`JsonArena`], response-body serialization via
//! [`RankResult::write_json`] into a reused `String`, and response
//! framing via [`write_response`] into a reused `Vec<u8>` — and,
//! since the tracing subsystem landed, span recording plus flight-
//! recorder insertion (preallocated slots, `Copy` traces, a pooled
//! span-recorder `Arc`) and the `x-trace-id` framing variant. This
//! test pins that with a counting global allocator: warm each buffer
//! once, then run the same operations again — the request itself read
//! off a loopback socket by `http::RequestReader` — and assert the
//! allocation counter did not move.
//!
//! (The *job* layer — building the owned `RankJob` handed to the
//! engine — allocates by design and is outside the audited boundary;
//! so is the error path, which formats messages.)
//!
//! Single test on purpose: the tracking flag is process-global, so a
//! concurrently running test would pollute the count.

use fairrank_engine::http::{write_response, Frame, Incoming, RequestReader};
use fairrank_engine::job::RankResult;
use fairrank_engine::json::JsonArena;
use fairrank_engine::trace::{FlightRecorder, SpanRecorder, Trace, TraceHandle, TraceStr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static TRACKING: AtomicBool = AtomicBool::new(false);

// SAFETY: delegates every operation to `System` unchanged; the counter
// update has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` with allocation tracking on; return how many allocations it
/// performed.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn warm_http_parse_and_serialize_layer_does_not_allocate() {
    let request_body = r#"{"algorithm":"mallows","scores":[0.9,0.8,0.7,0.6,0.5,0.4],"groups":[0,0,0,1,1,1],"theta":0.8,"samples":25,"seed":42}"#;
    let result = RankResult {
        algorithm: "mallows".to_string(),
        ranking: vec![0, 1, 2, 4, 3, 5],
        consensus: None,
        metrics: vec![
            ("expected_kt".to_string(), 3.25),
            ("ndcg".to_string(), 0.98712),
            ("infeasible_index".to_string(), 0.0),
        ],
    };

    let mut arena = JsonArena::new();
    let mut body_out = String::new();
    let mut response = Vec::new();

    // one keep-alive request per round, read by the server-side codec
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding loopback");
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connecting");
    let (mut server, _) = listener.accept().expect("accepting");
    let request = format!(
        "POST /rank HTTP/1.1\r\nhost: audit\r\ncontent-length: {}\r\n\r\n{request_body}",
        request_body.len()
    );
    let mut reader = RequestReader::default();
    reader
        .begin(&server, Duration::from_secs(5))
        .expect("socket options");

    // the tracing warm path: a pooled span recorder, a preallocated
    // flight recorder whose slow track (threshold 0 admits everything)
    // is already full, so a new record exercises the min-replace path
    let flight = FlightRecorder::new(16, 4, 0);
    let spans = Arc::new(SpanRecorder::default());
    let record_trace = |flight: &FlightRecorder, spans: &Arc<SpanRecorder>| {
        spans.reset();
        let handle = TraceHandle {
            id: flight.next_id(),
            spans: Arc::clone(spans),
        };
        handle.spans.cache_us.store(3, Ordering::Relaxed);
        handle.spans.queue_us.store(12, Ordering::Relaxed);
        handle.spans.run_us.store(150, Ordering::Relaxed);
        flight.record(&Trace {
            id: handle.id,
            route: "rank",
            algorithm: TraceStr::new("mallows"),
            status: 200,
            cache_us: handle.spans.cache_us.load(Ordering::Relaxed),
            queue_us: handle.spans.queue_us.load(Ordering::Relaxed),
            run_us: handle.spans.run_us.load(Ordering::Relaxed),
            total_us: 200,
            end_us: flight.now_us(),
            ..Trace::default()
        });
        handle.id
    };

    // warm every buffer once (capacities stick) and fill the slow track
    client.write_all(request.as_bytes()).unwrap();
    assert_eq!(
        reader.next_request(&mut server, Duration::from_secs(5)),
        Incoming::Request
    );
    let doc = arena.parse(request_body).expect("valid request body");
    assert_eq!(doc.get("algorithm").unwrap().as_str(), Some("mallows"));
    result.write_json(&mut body_out);
    let mut warm_id = 0;
    for _ in 0..8 {
        warm_id = record_trace(&flight, &spans);
    }
    let frame = |trace_id| Frame {
        trace_id: Some(trace_id),
        ..Frame::json(200, true)
    };
    write_response(&mut response, &frame(warm_id), body_out.as_bytes());
    let framed_len = response.len();

    // ... then the same request again must not touch the allocator
    body_out.clear();
    client.write_all(request.as_bytes()).unwrap();
    let allocations = allocations_during(|| {
        assert_eq!(
            reader.next_request(&mut server, Duration::from_secs(5)),
            Incoming::Request
        );
        assert_eq!(
            (reader.method.as_str(), reader.path.as_str()),
            ("POST", "/rank")
        );
        let text = std::str::from_utf8(&reader.body).expect("utf-8 body");
        let doc = arena.parse(text).expect("valid request body");
        // drive the accessors the routing layer uses
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(doc.get("scores").unwrap().as_array().unwrap().count(), 6);
        result.write_json(&mut body_out);
        let id = record_trace(&flight, &spans);
        write_response(&mut response, &frame(id), body_out.as_bytes());
    });
    assert_eq!(
        allocations, 0,
        "warm HTTP parse/serialize/trace layer must not allocate"
    );
    assert_eq!(response.len(), framed_len, "output must be reproduced");
}
