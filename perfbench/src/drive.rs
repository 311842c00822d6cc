//! Load generation over at most two keep-alive connections, one per
//! client thread: an open loop that sends on a pre-generated schedule
//! and times each request from when it was due, and a closed loop that
//! sends the next request as soon as the previous answer arrives.

use crate::gen::Catalogue;
use crate::http::Client;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Client threads, and therefore connections, of every phase.
pub const CLIENT_THREADS: usize = 2;

/// How long before a due time the open loop stops sleeping and polls.
/// Polling keeps the CPUs awake between closely spaced requests: on a
/// virtual machine, waking an idle CPU adds a hypervisor delay that
/// varies with the host's load and otherwise dominates tail latency.
const SPIN: Duration = Duration::from_millis(5);

/// One request sent.
pub struct Shot {
    /// Position in the phase's request list (the open-loop schedule).
    pub seq: usize,
    pub entry: usize,
    /// Due time (open loop) or send time (closed loop) to the end of
    /// the response, in ms.
    pub latency_ms: f64,
    /// How late the generator sent a request it was idle for, in ms;
    /// `None` when the request was already overdue because both
    /// connections were busy (that wait is in `latency_ms`).
    pub late_ms: Option<f64>,
    /// When the response ended, in s since the phase started.
    pub done_s: f64,
    pub answer: Answer,
}

/// What came back for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// 2xx, and the body equals the first body received for the same
    /// entry. Whether that first body is right is decided afterwards
    /// by [`crate::check`].
    Matched,
    /// 2xx, but the body differs from an earlier body for the same
    /// entry: one of the two is wrong.
    Mismatched,
    /// A non-2xx status, a refused or broken connection, or a timeout.
    Failed,
}

/// The first response body received per catalogue entry. Every later
/// response for the entry must match it byte for byte; the first one is
/// compared with the in-process result after the run.
pub struct FirstBodies {
    bodies: Vec<OnceLock<Vec<u8>>>,
}

impl FirstBodies {
    pub fn new(entries: usize) -> FirstBodies {
        FirstBodies {
            bodies: (0..entries).map(|_| OnceLock::new()).collect(),
        }
    }

    pub fn get(&self, entry: usize) -> Option<&[u8]> {
        self.bodies[entry].get().map(Vec::as_slice)
    }

    /// Record `body` for `entry` if it is the first; true when it is
    /// the first or equals the first.
    pub fn admit(&self, entry: usize, body: &[u8]) -> bool {
        self.bodies[entry].get_or_init(|| body.to_vec()) == body
    }
}

fn send_one(
    client: &mut Client,
    cat: &Catalogue,
    entry: usize,
    body: &mut Vec<u8>,
    first: &FirstBodies,
) -> Answer {
    cat.body_into(entry, body);
    match client.send("POST", cat.head(entry).path, body) {
        Ok(status) if (200..300).contains(&status) => {
            if first.admit(entry, client.body()) {
                Answer::Matched
            } else {
                Answer::Mismatched
            }
        }
        _ => Answer::Failed,
    }
}

/// Send `schedule` (`(due offset in s, entry)`, sorted by offset)
/// open-loop to `addr`.
pub fn open_loop(
    addr: SocketAddr,
    cat: &Catalogue,
    schedule: &[(f64, usize)],
    first: &FirstBodies,
) -> Vec<Shot> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut body = Vec::new();
                    let mut shots = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(offset, entry)) = schedule.get(i) else {
                            return shots;
                        };
                        let due = start + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        let late_ms = if now < due {
                            // sleep until just before the due time, then
                            // poll, yielding to any runnable thread
                            if due - now > SPIN {
                                std::thread::sleep(due - now - SPIN);
                            }
                            while Instant::now() < due {
                                std::thread::yield_now();
                            }
                            Some(due.elapsed().as_secs_f64() * 1e3)
                        } else {
                            None
                        };
                        let answer = send_one(&mut client, cat, entry, &mut body, first);
                        shots.push(Shot {
                            seq: i,
                            entry,
                            latency_ms: due.elapsed().as_secs_f64() * 1e3,
                            late_ms,
                            done_s: start.elapsed().as_secs_f64(),
                            answer,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    })
}

/// Send `entries` in order, closed-loop, until `duration` has passed or
/// the list runs out. Returns the shots and the elapsed seconds.
pub fn closed_loop(
    addr: SocketAddr,
    cat: &Catalogue,
    entries: &[usize],
    duration: Duration,
    first: &FirstBodies,
) -> (Vec<Shot>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + duration;
    let shots = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut body = Vec::new();
                    let mut shots = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&entry) = entries.get(i) else {
                            break;
                        };
                        let sent = Instant::now();
                        let answer = send_one(&mut client, cat, entry, &mut body, first);
                        shots.push(Shot {
                            seq: i,
                            entry,
                            latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                            late_ms: None,
                            done_s: start.elapsed().as_secs_f64(),
                            answer,
                        });
                    }
                    shots
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    (shots, start.elapsed().as_secs_f64())
}
