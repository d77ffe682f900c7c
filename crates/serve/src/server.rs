//! The serving daemon: TCP accept loop, request routing, and the batch
//! execution path that streams telemetry while jobs run.
//!
//! One [`Server`] owns one listening socket and a set of long-lived
//! shared resources:
//!
//! * a warm [`DesignCache`] — designs parsed or synthesized for one
//!   request are reused by every later request (the process-wide DCT
//!   plan cache warms the same way),
//! * an [`Admission`] controller — bounded queue, round-robin client
//!   fairness, per-client quotas, load shedding,
//! * a draining flag — `POST /shutdown` flips it; in-flight jobs finish
//!   (never interrupted), not-yet-started jobs of admitted batches are
//!   reported as cancelled, and new requests are shed with 503.
//!
//! Endpoints:
//!
//! * `POST /batch` — body is a batch-manifest JSON; the response is a
//!   chunked stream of [`Frame`]s (see [`crate::wire`]).
//! * `GET /stats` — queue/shed/cache counters as one JSON object.
//! * `POST /shutdown` — begin graceful drain; `run` returns once every
//!   admitted batch has streamed its final frame.
//!
//! # Determinism contract
//!
//! A manifest submitted over the wire produces per-job traces and a
//! batch report **byte-identical** (traces) and comparator-equivalent
//! (report) to `xplace batch` on the same manifest with the same
//! `--threads` — for any thread count. The raw interleaving of frames
//! across jobs is scheduling-dependent, but per-job frame order is not,
//! and the client reassembles per-job artifacts exactly.

use crate::admission::{Admission, Reject};
use crate::http::{
    write_response, write_response_head, ChunkedWriter, HttpError, Request, RequestParser,
};
use crate::wire::Frame;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use xplace_db::DesignCache;
use xplace_sched::{run_batch, BatchEvent, BatchManifest, BatchSession};
use xplace_telemetry::{Json, ToJson};

/// How a [`Server`] behaves: where it listens and how it bounds load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Kernel thread width every job runs with (config echo; never
    /// changes metrics).
    pub threads: usize,
    /// Maximum *waiting* batches before requests are shed with 503.
    pub queue_depth: usize,
    /// Maximum queued + running batches per client identity (429
    /// beyond it).
    pub max_inflight_per_client: usize,
    /// Batches executing simultaneously. The default of 1 runs batches
    /// strictly in admission order; higher values trade that for
    /// throughput (per-job artifacts stay deterministic either way).
    pub concurrency: usize,
    /// Request-body cap in bytes (413 beyond it).
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            queue_depth: 16,
            max_inflight_per_client: 4,
            concurrency: 1,
            max_body_bytes: crate::http::DEFAULT_MAX_BODY_BYTES,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    batches_completed: usize,
    jobs_completed: usize,
    jobs_failed: usize,
}

#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    local_addr: SocketAddr,
    cache: DesignCache,
    admission: Arc<Admission>,
    /// Set by `POST /shutdown`: batches stop starting new jobs, new
    /// requests are shed. The daemon keeps answering while it drains.
    draining: AtomicBool,
    /// Set once the drain is complete: the accept loop exits.
    terminate: AtomicBool,
    counters: Mutex<Counters>,
}

/// The serving daemon. [`Server::bind`] then [`Server::run`] (or
/// [`Server::spawn`] from tests).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listening socket; the daemon is not accepting until
    /// [`Server::run`].
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let admission = Arc::new(Admission::new(
            config.queue_depth,
            config.max_inflight_per_client,
            config.concurrency,
        ));
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                local_addr,
                cache: DesignCache::new(),
                admission,
                draining: AtomicBool::new(false),
                terminate: AtomicBool::new(false),
                counters: Mutex::new(Counters::default()),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Accepts and serves connections until a `POST /shutdown` drains
    /// the daemon: admitted batches stream to completion, then this
    /// returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket errors (per-connection I/O errors
    /// only drop that connection).
    pub fn run(self) -> io::Result<()> {
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let (stream, peer) = self.listener.accept()?;
            if self.shared.terminate.load(Ordering::Acquire) {
                // The post-drain wake-up (or a raced-in client): stop
                // accepting. While *draining* the loop keeps serving —
                // new batches are shed with 503 by admission, `/stats`
                // stays live — so this only fires once the drain is
                // complete and the daemon is going away.
                drop(stream);
                break;
            }
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || {
                // Errors are per-connection: the peer vanished or spoke
                // garbage. Nothing to do but drop the stream.
                let _ = handle_connection(stream, peer, &shared);
            }));
            handles.retain(|h| !h.is_finished());
        }
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.admission.wait_idle();
        Ok(())
    }

    /// Runs the daemon on a background thread; returns the bound
    /// address and the join handle (which resolves after graceful
    /// shutdown).
    pub fn spawn(self) -> (SocketAddr, JoinHandle<io::Result<()>>) {
        let addr = self.local_addr();
        (addr, std::thread::spawn(move || self.run()))
    }
}

fn handle_connection(stream: TcpStream, peer: SocketAddr, shared: &Shared) -> io::Result<()> {
    // A connected-but-silent peer must not pin the drain join forever.
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let request = match read_request(&stream, shared.config.max_body_bytes) {
        Ok(Some(request)) => request,
        Ok(None) => return Ok(()), // peer closed before a full request
        Err(error) => return reject_http(&stream, &error),
    };
    match (request.method.as_str(), request.target.as_str()) {
        ("POST", "/batch") => handle_batch(&stream, peer, shared, &request),
        ("GET", "/stats") => handle_stats(&stream, shared),
        ("GET", "/health") => handle_health(&stream, shared),
        ("POST", "/shutdown") => handle_shutdown(&stream, shared),
        (_, target) => write_response(
            &mut &stream,
            404,
            "Not Found",
            &[],
            "text/plain",
            format!("no route for {} {target}\n", request.method).as_bytes(),
        ),
    }
}

/// Reads one full request, feeding the parser whatever the socket
/// delivers (arbitrary fragmentation).
fn read_request(mut stream: &TcpStream, max_body: usize) -> Result<Option<Request>, HttpError> {
    let mut parser = RequestParser::new(max_body);
    let mut buf = [0u8; 8192];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return Ok(None),
            Ok(n) => n,
            Err(e) => return Err(HttpError::Malformed(format!("read error: {e}"))),
        };
        if let Some(request) = parser.feed(&buf[..n])? {
            return Ok(Some(request));
        }
    }
}

fn reject_http(stream: &TcpStream, error: &HttpError) -> io::Result<()> {
    let (status, reason) = match error {
        HttpError::Malformed(_) => (400, "Bad Request"),
        HttpError::BodyTooLarge { .. } => (413, "Content Too Large"),
        HttpError::HeadTooLarge => (431, "Request Header Fields Too Large"),
    };
    write_response(
        &mut &*stream,
        status,
        reason,
        &[],
        "text/plain",
        format!("{error}\n").as_bytes(),
    )?;
    // The request may be partly unread (an oversized body is rejected at
    // the head, before its bytes arrive). Closing a socket with unread
    // bytes queued sends RST, which can destroy the response before the
    // peer reads it — so drain, bounded, until the peer closes. The
    // connection's read timeout still caps a peer that never does.
    let mut scratch = [0u8; 8192];
    let mut drained = 0usize;
    let mut reader = stream;
    while drained < 4 * 1024 * 1024 {
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
    Ok(())
}

/// The client identity quotas and fairness key on: the `X-Client`
/// header when present, else the peer IP (not the port — every
/// connection has a fresh port).
fn client_identity(request: &Request, peer: SocketAddr) -> String {
    request
        .header("x-client")
        .map(str::to_string)
        .unwrap_or_else(|| peer.ip().to_string())
}

fn handle_batch(
    stream: &TcpStream,
    peer: SocketAddr,
    shared: &Shared,
    request: &Request,
) -> io::Result<()> {
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            return write_response(
                &mut &*stream,
                400,
                "Bad Request",
                &[],
                "text/plain",
                b"manifest body is not valid UTF-8\n",
            )
        }
    };
    let mut manifest = match BatchManifest::parse(body) {
        Ok(manifest) => manifest,
        Err(error) => {
            return write_response(
                &mut &*stream,
                400,
                "Bad Request",
                &[],
                "text/plain",
                format!("manifest rejected: {error}\n").as_bytes(),
            )
        }
    };
    // A per-request modeled-time deadline caps every job of the batch
    // (manifest- or job-level deadlines still win where tighter, since
    // job-level overrides beat the manifest default in sched).
    if let Some(raw) = request.header("x-deadline-ns") {
        match raw.trim().parse::<u64>() {
            Ok(ns) => {
                manifest.deadline_ns = Some(match manifest.deadline_ns {
                    Some(existing) => existing.min(ns),
                    None => ns,
                });
            }
            Err(_) => {
                return write_response(
                    &mut &*stream,
                    400,
                    "Bad Request",
                    &[],
                    "text/plain",
                    format!("X-Deadline-Ns must be a non-negative integer, got {raw:?}\n")
                        .as_bytes(),
                )
            }
        }
    }
    let client = client_identity(request, peer);
    let ticket = match shared.admission.try_enqueue(&client) {
        Ok(ticket) => ticket,
        Err(reject) => {
            let (status, reason, retry_after) = match &reject {
                Reject::QueueFull { .. } => (503, "Service Unavailable", Some(1u64)),
                Reject::ShuttingDown => (503, "Service Unavailable", Some(5u64)),
                Reject::QuotaExceeded { .. } => (429, "Too Many Requests", Some(1u64)),
            };
            let extra: Vec<(&str, String)> = retry_after
                .map(|s| vec![("Retry-After", s.to_string())])
                .unwrap_or_default();
            return write_response(
                &mut &*stream,
                status,
                reason,
                &extra,
                "text/plain",
                format!("{reject}\n").as_bytes(),
            );
        }
    };

    // Block until the round-robin scheduler grants a run slot, then
    // hold it for the whole batch (dropped at the end of this scope).
    let _permit = ticket.acquire();

    write_response_head(
        &mut &*stream,
        200,
        "OK",
        &[
            ("Content-Type", "application/json".to_string()),
            ("Transfer-Encoding", "chunked".to_string()),
            ("Connection", "close".to_string()),
        ],
    )?;

    // Frames go out under one lock so chunks never interleave
    // mid-frame. A peer that vanished mid-stream flips `dead`: in-flight
    // jobs drain bit-identically (their results still count server-side
    // and keep warming the caches), but this request's not-yet-started
    // jobs are skipped — nobody is listening for them. Sibling requests
    // have their own flag and are unaffected.
    let writer = Mutex::new(ChunkedWriter::new(stream));
    let dead = AtomicBool::new(false);
    // A `drop_connection` fault targeting this client identity severs the
    // stream after the scheduled frame count — the deterministic stand-in
    // for a peer vanishing mid-stream (real RST timing is racy), driving
    // the exact same skip/drain path below. The counter only arms on the
    // first `JobStart` ack: counting from hello would race jobs that
    // finish (or fail a deadline) before any work frame goes out, making
    // which frame the sever lands on depend on pool timing.
    let drop_after = manifest.faults.drop_after_frames(&client, 0);
    let armed = AtomicBool::new(false);
    let sent = AtomicUsize::new(0);
    let send = |frame: &Frame| {
        if dead.load(Ordering::Relaxed) {
            return;
        }
        if let Some(limit) = drop_after {
            if armed.load(Ordering::Relaxed) && sent.fetch_add(1, Ordering::Relaxed) >= limit {
                dead.store(true, Ordering::Relaxed);
                return;
            }
        }
        let mut line = frame.to_json_string();
        line.push('\n');
        let mut writer = writer.lock().unwrap_or_else(|e| e.into_inner());
        if writer.chunk(line.as_bytes()).is_err() {
            dead.store(true, Ordering::Relaxed);
        }
    };

    send(&Frame::Hello {
        jobs: manifest.jobs.iter().map(|j| j.name.clone()).collect(),
        threads: shared.config.threads,
    });

    let observer = |event: BatchEvent<'_>| match event {
        BatchEvent::JobStart { job } => {
            // Positive ack that this job's stream is live; arms the
            // scheduled drop above (the ack itself is the first counted
            // frame, so `after_frames: 0` severs right here).
            armed.store(true, Ordering::Relaxed);
            send(&Frame::Start { job });
        }
        BatchEvent::TraceLine { job, line } => send(&Frame::Trace {
            job,
            line: line.to_string(),
        }),
        BatchEvent::JobDone { job, record } => send(&Frame::Job {
            job,
            record: record.clone(),
        }),
    };
    let session = BatchSession::new(shared.config.threads, &shared.cache)
        .with_cancel(&shared.draining)
        .with_client_gone(&dead)
        .with_observer(&observer);
    let outcome = run_batch(&manifest, &session);

    {
        let mut counters = shared.counters.lock().unwrap_or_else(|e| e.into_inner());
        counters.batches_completed += 1;
        counters.jobs_completed += outcome.report.completed();
        counters.jobs_failed += outcome.report.failed();
    }

    send(&Frame::Batch {
        report: outcome.report,
        cache: outcome.cache_stats,
    });
    if !dead.load(Ordering::Relaxed) {
        writer
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .finish()?;
    }
    Ok(())
}

fn handle_stats(stream: &TcpStream, shared: &Shared) -> io::Result<()> {
    let admission = shared.admission.stats();
    let (design_hits, design_misses) = shared.cache.stats();
    let (plan_hits, plan_misses) = xplace_fft::plan_cache_stats();
    let counters = {
        let c = shared.counters.lock().unwrap_or_else(|e| e.into_inner());
        (c.batches_completed, c.jobs_completed, c.jobs_failed)
    };
    let body = Json::obj([
        ("queued", admission.queued.to_json()),
        ("running", admission.running.to_json()),
        ("admitted", admission.admitted.to_json()),
        (
            "shed",
            Json::obj([
                ("queue_full", admission.shed_queue_full.to_json()),
                ("quota", admission.shed_quota.to_json()),
                ("shutdown", admission.shed_shutdown.to_json()),
            ]),
        ),
        ("shutting_down", admission.shutting_down.to_json()),
        ("batches_completed", counters.0.to_json()),
        ("jobs_completed", counters.1.to_json()),
        ("jobs_failed", counters.2.to_json()),
        (
            "design_cache",
            Json::obj([
                ("hits", design_hits.to_json()),
                ("misses", design_misses.to_json()),
                ("entries", shared.cache.len().to_json()),
                ("capacity", shared.cache.capacity().to_json()),
                ("evictions", shared.cache.evictions().to_json()),
            ]),
        ),
        (
            "plan_cache",
            Json::obj([
                ("hits", plan_hits.to_json()),
                ("misses", plan_misses.to_json()),
                ("evictions", xplace_fft::plan_cache_evictions().to_json()),
            ]),
        ),
        ("threads", shared.config.threads.to_json()),
    ]);
    write_response(
        &mut &*stream,
        200,
        "OK",
        &[],
        "application/json",
        format!("{}\n", body.render()).as_bytes(),
    )
}

/// `GET /health`: one of three states, always HTTP 200 so probes can
/// distinguish "unhealthy" from "unreachable":
///
/// * `draining` — `POST /shutdown` was received; new batches are shed.
/// * `degraded` — at least one job has failed since process start (the
///   daemon still serves, but something needs attention).
/// * `ok` — neither.
fn handle_health(stream: &TcpStream, shared: &Shared) -> io::Result<()> {
    let jobs_failed = {
        let c = shared.counters.lock().unwrap_or_else(|e| e.into_inner());
        c.jobs_failed
    };
    let status = if shared.draining.load(Ordering::Acquire) {
        "draining"
    } else if jobs_failed > 0 {
        "degraded"
    } else {
        "ok"
    };
    let body = Json::obj([
        ("status", Json::Str(status.to_string())),
        ("jobs_failed", jobs_failed.to_json()),
    ]);
    write_response(
        &mut &*stream,
        200,
        "OK",
        &[],
        "application/json",
        format!("{}\n", body.render()).as_bytes(),
    )
}

fn handle_shutdown(stream: &TcpStream, shared: &Shared) -> io::Result<()> {
    shared.draining.store(true, Ordering::Release);
    shared.admission.shutdown();
    write_response(
        &mut &*stream,
        200,
        "OK",
        &[],
        "text/plain",
        b"draining: in-flight jobs will finish, new requests are shed\n",
    )?;
    // Drain, then wake the accept loop so `run` can return. The daemon
    // keeps answering (503 for batches, live /stats) until every
    // admitted batch has streamed its final frame. A failed self-connect
    // just means the loop is already past accept.
    shared.admission.wait_idle();
    shared.terminate.store(true, Ordering::Release);
    let _ = TcpStream::connect(shared.local_addr);
    Ok(())
}
