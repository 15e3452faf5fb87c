//! Open-loop load generator: one process, two threads (a sender that
//! writes each frame when it is due, a reader that collects replies from
//! every connection), and at most `nproc` connections. Latency is measured
//! from the due time, so a stall that delays later sends is charged to
//! them; how late the sender ran is reported separately.

use crate::trace::Span;
use crate::wire::{self, EdgeOp, FrameReader};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long replies may trail the last send before the phase fails.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone)]
pub enum Op {
    Mul { engine: u32, seed: u64 },
    Update { engine: u32, ops: Vec<EdgeOp> },
}

/// One request of a phase: when it is due, which connection carries it,
/// and whether its reply body is kept for the correctness check.
#[derive(Debug, Clone)]
pub struct Planned {
    pub due: Duration,
    pub conn: usize,
    pub op: Op,
    pub keep: bool,
}

#[derive(Debug)]
pub struct Outcome {
    pub sent_at: Instant,
    pub recv_at: Instant,
    /// Reply arrival minus due time.
    pub latency: Duration,
    /// Send start minus due time.
    pub late: Duration,
    /// The reply body (empty unless the request was `keep`), or the
    /// server's error text.
    pub reply: Result<Vec<u8>, String>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Wait until one of `streams` is readable (or `timeout_ms` passes); returns
/// which are.
fn readable(streams: &[TcpStream], timeout_ms: i32) -> Result<Vec<bool>, String> {
    let mut fds: Vec<PollFd> =
        streams.iter().map(|s| PollFd { fd: s.as_raw_fd(), events: POLLIN, revents: 0 }).collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout records whose descriptors stay open for the
    // call (the streams are borrowed); poll only writes `revents`.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if n < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(vec![false; streams.len()]);
        }
        return Err(format!("poll: {err}"));
    }
    Ok(fds.iter().map(|f| f.revents != 0).collect())
}

/// Run one phase: send every planned request at its due time over
/// `streams`, and return one outcome per request (in plan order) plus the
/// spans recorded when `traced`.
pub fn run(
    streams: &[TcpStream],
    plan: &[Planned],
    traced: bool,
) -> Result<(Vec<Outcome>, Vec<Span>), String> {
    assert!(plan.iter().all(|p| p.conn < streams.len()), "request on a missing connection");
    let readers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().map_err(|e| format!("clone stream: {e}")))
        .collect::<Result<_, _>>()?;
    let fifos: Vec<Mutex<VecDeque<usize>>> =
        streams.iter().map(|_| Mutex::new(VecDeque::new())).collect();
    let frames: Vec<Vec<u8>> = plan
        .iter()
        .map(|p| match &p.op {
            Op::Mul { engine, seed } => wire::mul(*engine, *seed),
            Op::Update { engine, ops } => wire::update(*engine, ops),
        })
        .collect();
    let sent_all = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(20);
    let mut sent_at = Vec::with_capacity(plan.len());
    let mut spans = Vec::new();

    let (received, reader_spans) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| collect(&readers, plan, &fifos, &sent_all, traced, start));
        let mut writers: Vec<&TcpStream> = streams.iter().collect();
        let mut send_error = None;
        for (i, (p, frame)) in plan.iter().zip(&frames).enumerate() {
            let due = start + p.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            fifos[p.conn].lock().expect("fifo lock").push_back(i);
            if let Err(e) = writers[p.conn].write_all(frame) {
                send_error = Some(format!("send request {i}: {e}"));
                break;
            }
            if traced {
                spans.push(Span { name: "client.send", start: at, end: Instant::now() });
            }
            sent_at.push(at);
        }
        sent_all.store(true, Ordering::SeqCst);
        if let Some(e) = send_error {
            // Unblock the reader: nothing more will arrive for unsent work.
            for s in streams {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            let _ = reader.join();
            return Err(e);
        }
        reader.join().map_err(|_| "reader thread panicked".to_string())?
    })?;
    spans.extend(reader_spans);

    let outcomes = plan
        .iter()
        .zip(sent_at)
        .zip(received)
        .map(|((p, sent), (recv_at, reply))| {
            let due = start + p.due;
            Outcome {
                sent_at: sent,
                recv_at,
                latency: recv_at.saturating_duration_since(due),
                late: sent.saturating_duration_since(due),
                reply,
            }
        })
        .collect();
    Ok((outcomes, spans))
}

type Received = (Instant, Result<Vec<u8>, String>);

/// The reader thread: replies arrive per connection in request order, so
/// each frame answers the oldest outstanding request of its connection.
fn collect(
    streams: &[TcpStream],
    plan: &[Planned],
    fifos: &[Mutex<VecDeque<usize>>],
    sent_all: &AtomicBool,
    traced: bool,
    start: Instant,
) -> Result<(Vec<Received>, Vec<Span>), String> {
    let mut got: Vec<Option<Received>> = (0..plan.len()).map(|_| None).collect();
    let mut spans = Vec::new();
    let mut readers: Vec<FrameReader> = streams.iter().map(|_| FrameReader::default()).collect();
    let mut buf = vec![0u8; 256 * 1024];
    let mut remaining = plan.len();
    let mut drain_deadline = None;
    while remaining > 0 {
        if drain_deadline.is_none() && sent_all.load(Ordering::SeqCst) {
            drain_deadline = Some(Instant::now() + DRAIN_TIMEOUT);
        }
        if drain_deadline.is_some_and(|d| Instant::now() > d) {
            return Err(format!("{remaining} replies missing after the drain timeout"));
        }
        for (c, ready) in readable(streams, 50)?.into_iter().enumerate() {
            if !ready {
                continue;
            }
            let n = (&streams[c]).read(&mut buf).map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("server closed a connection with replies outstanding".to_string());
            }
            let now = Instant::now();
            readers[c].push(&buf[..n]);
            while let Some(payload) = readers[c].next_frame()? {
                let i = fifos[c]
                    .lock()
                    .expect("fifo lock")
                    .pop_front()
                    .ok_or("reply without an outstanding request")?;
                let reply = wire::reply_body(&payload).map(|body| {
                    if plan[i].keep || matches!(plan[i].op, Op::Update { .. }) {
                        body.to_vec()
                    } else {
                        Vec::new()
                    }
                });
                if traced {
                    let due = start + plan[i].due;
                    spans.push(Span { name: "client.reply", start: due, end: now });
                }
                got[i] = Some((now, reply));
                remaining -= 1;
            }
        }
    }
    Ok((got.into_iter().map(|r| r.expect("every request answered")).collect(), spans))
}
