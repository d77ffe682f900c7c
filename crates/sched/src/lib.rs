//! Batch placement scheduling for the xplace workspace.
//!
//! The paper's workflow evaluates a placer across a *suite* of designs;
//! this crate runs such a suite as one batch over the persistent
//! [`xplace_parallel`] worker pool. The contract:
//!
//! * **Deterministic ordering** — results are keyed by job index (manifest
//!   order), never by completion order. Job `i`'s slot in the
//!   [`BatchReport`] and its trace are the same for every thread count.
//! * **Bit-identical to serial** — each job runs the same [`run_flow`]
//!   pipeline (GP → LG → DP → legality → congestion) a serial
//!   `xplace place` run does, and every kernel decomposition is
//!   thread-count-invariant, so a job's metrics and its JSON-lines trace
//!   are byte-identical to the serial run's.
//! * **Failure isolation** — each job is fenced by its own `catch_unwind`
//!   ([`WorkerPool::run_isolated`](xplace_parallel::WorkerPool::run_isolated)):
//!   a panicking or erroring design is reported as a failed [`JobRecord`]
//!   while its siblings complete normally.
//! * **Retry & recovery** — crashes (panics, injected sink write
//!   failures) are *retryable* up to the manifest's `retries` budget,
//!   with deterministic exponential backoff charged in modeled time;
//!   structured errors (load failures, divergence, poisoned manifest
//!   entries) are *fatal*. With `checkpoint_every > 0` each attempt
//!   snapshots GP state in memory, and a retry resumes from the latest
//!   snapshot — the resumed run's metrics are bit-identical to an
//!   uninterrupted run's by the core resume contract.
//! * **Deadlines** — a job whose modeled cost (GP modeled-ns + injected
//!   stalls + retry backoff) exceeds its modeled-ns deadline fails with
//!   [`DEADLINE_MSG`] and `deadline_exceeded` set in its record.
//! * **Shared caches** — jobs share one read-only [`DesignCache`], so a
//!   design placed under several configs is parsed or synthesized once,
//!   and spectral solver plans are reused across jobs of the same grid
//!   size through the process-wide DCT plan cache.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod flow;
mod manifest;
mod population;

pub use flow::{finish_flow, run_flow};
pub use manifest::{BatchManifest, DesignSource, JobSpec};
pub use population::{run_population, PopulationOptions, PopulationOutcome};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use xplace_core::{Checkpoint, CheckpointOptions, GlobalPlacer, MemoryCheckpointStore};
use xplace_db::DesignCache;
use xplace_fault::{FaultPlan, GpFault};
use xplace_telemetry::{BatchReport, CallbackSink, JobRecord, RunReport, TelemetrySink, VecSink};

/// The failure message of a job skipped because its batch was cancelled
/// before the job started. In-flight jobs are never interrupted — only
/// not-yet-started jobs observe the cancel flag.
pub const CANCELLED_MSG: &str = "cancelled before start";

/// The failure message of a job skipped because its requesting client
/// disconnected before the job started.
pub const DISCONNECTED_MSG: &str = "client disconnected before start";

/// The failure message of a job whose manifest entry is poisoned by the
/// fault plan: it fails fatally before any work starts and is never
/// retried.
pub const POISONED_MSG: &str = "poisoned manifest entry";

/// The failure-message prefix of a job that blew its modeled-ns deadline
/// (its record also sets [`JobRecord::deadline_exceeded`]).
pub const DEADLINE_MSG: &str = "deadline exceeded";

/// Deterministic retry backoff charged in modeled time: 1 ms doubling
/// per retry, capped at 64 ms. Pure arithmetic — no clocks — so retry
/// accounting is bit-identical on every run.
pub fn backoff_ns(retry: usize) -> u64 {
    (1_000_000u64 << retry.min(6)).min(64_000_000)
}

/// One completed job: its run summary plus the trace text a serial
/// `--trace` run would have written.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The run summary (same shape as `xplace place --report`).
    pub report: RunReport,
    /// JSON-lines telemetry trace (byte-identical to the serial run's).
    pub trace: String,
}

/// The result of a whole batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-job records in manifest order.
    pub report: BatchReport,
    /// Per-job traces in manifest order; `None` for failed jobs.
    pub traces: Vec<Option<String>>,
    /// The session cache's cumulative `(hits, misses)` — not this
    /// batch's delta when the cache outlives the batch.
    pub cache_stats: (usize, usize),
}

/// Runs one job of a manifest: load (through `cache`), then [`run_flow`].
///
/// `threads` is the kernel launch width; it never changes metrics, only
/// wall-clock time. When the job runs on a pool worker (a concurrent
/// batch), nested kernel launches degrade to inline serial execution —
/// bit-identical by the workspace determinism contract.
///
/// # Errors
///
/// Returns the failure message that becomes the job's
/// [`JobRecord::error`]: design load errors, placement errors, and
/// legality-check failures. Panics (including injected GP faults) are
/// *not* caught here — [`run_batch`] fences them per job.
pub fn run_job(job: &JobSpec, threads: usize, cache: &DesignCache) -> Result<JobOutcome, String> {
    let mut sink = VecSink::new();
    let report = run_job_attempt(
        job,
        threads,
        cache,
        &mut sink,
        GpFault::NONE,
        CheckpointOptions::none(),
    )?;
    Ok(JobOutcome {
        report,
        trace: sink.to_jsonl(),
    })
}

/// One attempt of a job under the scheduler's fault machinery: `fault`
/// is the GP fault resolved from the batch plan for this attempt, and
/// `ckpt` carries the checkpoint cadence/store plus an optional snapshot
/// to resume from.
fn run_job_attempt(
    job: &JobSpec,
    threads: usize,
    cache: &DesignCache,
    sink: &mut dyn TelemetrySink,
    fault: GpFault,
    ckpt: CheckpointOptions<'_>,
) -> Result<RunReport, String> {
    let mut design = match &job.source {
        DesignSource::Aux { path, density } => cache
            .get_or_read_aux(path, *density)
            .map_err(|e| format!("loading {}: {e}", path.display()))?,
        DesignSource::Synth { .. } => {
            let spec = job.source.synth_spec().expect("synth source has a spec");
            cache
                .get_or_synthesize(&spec)
                .map_err(|e| format!("synthesizing {}: {e}", spec.name))?
        }
    };
    let mut config = job.config(threads);
    config.fault = fault;
    run_flow(&mut design, GlobalPlacer::new(config), sink, ckpt)
}

/// One incremental progress notification of a running batch, delivered
/// to a [`BatchSession`] observer from whichever pool thread produced
/// it, the moment it is produced.
#[derive(Debug)]
pub enum BatchEvent<'a> {
    /// Job `job` is about to start executing on a pool thread. Skipped
    /// jobs (cancelled, disconnected) never emit this — a `JobStart` is
    /// the positive ack that the job's trace stream is live, which is
    /// what downstream fault injectors must arm on (a job can finish so
    /// fast that waiting for its *first trace line* races its
    /// completion).
    JobStart {
        /// Manifest index of the starting job.
        job: usize,
    },
    /// One rendered JSON trace line of job `job` (no trailing newline).
    /// Lines of a single job arrive in trace order; lines of different
    /// jobs interleave with pool scheduling.
    TraceLine {
        /// Manifest index of the job the line belongs to.
        job: usize,
        /// The rendered JSON-lines event text.
        line: &'a str,
    },
    /// Job `job` reached a terminal state.
    JobDone {
        /// Manifest index of the finished job.
        job: usize,
        /// The job's record (completed or failed), exactly as it will
        /// appear in the final [`BatchReport`].
        record: &'a JobRecord,
    },
}

/// How a batch executes: thread width, which design cache to warm, an
/// optional cancel flag, and an optional progress observer.
///
/// This is the manifest-source-agnostic submission path a long-running
/// service uses: manifests arrive as in-memory values (parsed from a
/// network request, built programmatically), the cache outlives any one
/// batch, and progress streams out while jobs run.
pub struct BatchSession<'a> {
    /// Kernel launch width shared by every job (never changes metrics).
    pub threads: usize,
    /// The design cache jobs load through. Passing the same cache to
    /// consecutive sessions keeps designs warm across batches; hit/miss
    /// accounting is exact (see [`DesignCache::stats`]).
    pub cache: &'a DesignCache,
    /// When set before a job starts, that job fails with
    /// [`CANCELLED_MSG`] instead of running. Jobs already in flight
    /// finish normally — cancellation drains, it never corrupts.
    pub cancel: Option<&'a AtomicBool>,
    /// Request-scoped cancel: set when the requesting client
    /// disconnects mid-stream. Unstarted jobs of *this* session fail
    /// with [`DISCONNECTED_MSG`]; in-flight jobs still drain to their
    /// bit-identical completion, and sessions sharing the pool or cache
    /// are untouched.
    pub client_gone: Option<&'a AtomicBool>,
    /// Progress callback; called from pool threads, so it must be
    /// `Sync`. `None` runs silently.
    pub observer: Option<&'a (dyn Fn(BatchEvent<'_>) + Sync)>,
}

impl<'a> std::fmt::Debug for BatchSession<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSession")
            .field("threads", &self.threads)
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field(
                "client_gone",
                &self.client_gone.map(|c| c.load(Ordering::Relaxed)),
            )
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl<'a> BatchSession<'a> {
    /// A session over `cache` with neither cancellation nor observer.
    pub fn new(threads: usize, cache: &'a DesignCache) -> Self {
        BatchSession {
            threads,
            cache,
            cancel: None,
            client_gone: None,
            observer: None,
        }
    }

    /// Adds a cancel flag.
    pub fn with_cancel(mut self, cancel: &'a AtomicBool) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Adds a request-scoped client-disconnect flag.
    pub fn with_client_gone(mut self, client_gone: &'a AtomicBool) -> Self {
        self.client_gone = Some(client_gone);
        self
    }

    /// Adds a progress observer.
    pub fn with_observer(mut self, observer: &'a (dyn Fn(BatchEvent<'_>) + Sync)) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The skip message an unstarted job should fail with, if either
    /// cancel flag is set (batch-wide cancel wins).
    fn skip_reason(&self) -> Option<&'static str> {
        let raised =
            |flag: Option<&AtomicBool>| flag.map(|c| c.load(Ordering::Acquire)).unwrap_or(false);
        if raised(self.cancel) {
            Some(CANCELLED_MSG)
        } else if raised(self.client_gone) {
            Some(DISCONNECTED_MSG)
        } else {
            None
        }
    }
}

/// Runs every job of `manifest` under `session`: concurrently on up to
/// `session.threads` threads of the process-wide worker pool, loading
/// designs through the session's cache, honouring its cancel flags, and
/// reporting progress to its observer.
///
/// Jobs are dispatched with the pool's fixed task→executor mapping and
/// collected by job index, so the [`BatchOutcome`] is deterministic for
/// any thread count. A job that panics or errors becomes a failed
/// [`JobRecord`] (with the panic payload or error text) without
/// affecting its siblings — the batch itself always returns.
///
/// Per job, the observer sees every trace line as it is emitted and one
/// terminal [`BatchEvent::JobDone`]; observation never perturbs
/// execution (byte-identical traces, same report).
pub fn run_batch(manifest: &BatchManifest, session: &BatchSession<'_>) -> BatchOutcome {
    let pool = xplace_parallel::global();
    let results = pool.run_isolated(manifest.jobs.len(), session.threads.max(1), |i| {
        let job = &manifest.jobs[i];
        let policy = JobPolicy {
            plan: &manifest.faults,
            retries: manifest.retries,
            deadline_ns: job.deadline_ns.or(manifest.deadline_ns),
            checkpoint_every: job.checkpoint_every.unwrap_or(manifest.checkpoint_every),
        };
        let (record, trace) = if let Some(reason) = session.skip_reason() {
            (JobRecord::failed(&job.name, reason), None)
        } else {
            if let Some(observer) = session.observer {
                observer(BatchEvent::JobStart { job: i });
            }
            run_job_fenced(job, i, session, &policy)
        };
        if let Some(observer) = session.observer {
            observer(BatchEvent::JobDone {
                job: i,
                record: &record,
            });
        }
        (record, trace)
    });
    let mut jobs = Vec::with_capacity(manifest.jobs.len());
    let mut traces = Vec::with_capacity(manifest.jobs.len());
    for (job, result) in manifest.jobs.iter().zip(results) {
        match result {
            Ok((record, trace)) => {
                jobs.push(record);
                traces.push(trace);
            }
            // Unreachable in practice (job panics are fenced inside the
            // task), but an observer panic still fails only its own job.
            Err(error) => {
                jobs.push(JobRecord::failed(&job.name, error));
                traces.push(None);
            }
        }
    }
    BatchOutcome {
        report: BatchReport::new(jobs),
        traces,
        cache_stats: session.cache.stats(),
    }
}

/// Per-job robustness policy, resolved from the manifest.
struct JobPolicy<'a> {
    plan: &'a FaultPlan,
    retries: usize,
    deadline_ns: Option<u64>,
    checkpoint_every: usize,
}

/// How one attempt of a job ended.
enum AttemptEnd {
    /// The full flow finished and produced a report.
    Completed(RunReport),
    /// The attempt crashed (panic — including injected sink write
    /// failures). Retryable.
    Crashed(String),
    /// The attempt returned a structured error (load failure,
    /// divergence, legality failure). Fatal.
    Errored(String),
}

/// Runs one job with its own panic fence, retry loop, and deadline
/// accounting, streaming trace lines to the session observer while
/// accumulating the trace text of the current attempt.
///
/// Classification: *crashes* (panics, which is how injected GP faults
/// and sink write faults surface) are retried up to `policy.retries`
/// times with deterministic modeled-time backoff; *structured errors*
/// are fatal on first sight. With a checkpoint cadence, retries resume
/// from the latest in-memory snapshot of the crashed attempt, so a
/// recovered job's metrics are bit-identical to an uninterrupted run's;
/// its stored trace is the successful attempt's trace (a resume suffix
/// when a snapshot was available).
fn run_job_fenced(
    job: &JobSpec,
    index: usize,
    session: &BatchSession<'_>,
    policy: &JobPolicy<'_>,
) -> (JobRecord, Option<String>) {
    if policy.plan.poisoned(&job.name) {
        return (JobRecord::failed(&job.name, POISONED_MSG), None);
    }
    let store = MemoryCheckpointStore::new();
    // Modeled-time cost of the job beyond placement itself: injected
    // stalls plus retry backoff. Charged against the deadline.
    let mut overhead_ns: u64 = 0;
    let mut attempt = 0;
    loop {
        overhead_ns += policy.plan.stall_ns(&job.name, attempt);
        let resumed: Option<(usize, Checkpoint)> = if attempt > 0 && policy.checkpoint_every > 0 {
            store.latest().ok().flatten()
        } else {
            None
        };
        let (end, trace) = run_one_attempt(job, index, session, policy, attempt, &store, &resumed);
        match end {
            AttemptEnd::Completed(report) => {
                let total_ns = overhead_ns.saturating_add(report.gp.modeled_ns);
                if let Some(deadline) = policy.deadline_ns {
                    if total_ns > deadline {
                        let record = JobRecord::failed(
                            &job.name,
                            format!("{DEADLINE_MSG}: {total_ns} modeled ns > {deadline} ns"),
                        )
                        .with_fault_stats(attempt, store.saves(), true);
                        return (record, None);
                    }
                }
                let record = JobRecord::completed(&job.name, report).with_fault_stats(
                    attempt,
                    store.saves(),
                    false,
                );
                return (record, Some(trace));
            }
            AttemptEnd::Errored(error) => {
                let record = JobRecord::failed(&job.name, error).with_fault_stats(
                    attempt,
                    store.saves(),
                    false,
                );
                return (record, None);
            }
            AttemptEnd::Crashed(error) => {
                if attempt >= policy.retries {
                    let record = JobRecord::failed(&job.name, error).with_fault_stats(
                        attempt,
                        store.saves(),
                        false,
                    );
                    return (record, None);
                }
                overhead_ns += backoff_ns(attempt);
                if let Some(deadline) = policy.deadline_ns {
                    if overhead_ns > deadline {
                        let record = JobRecord::failed(
                            &job.name,
                            format!(
                                "{DEADLINE_MSG} during retry backoff: \
                                 {overhead_ns} modeled ns > {deadline} ns ({error})"
                            ),
                        )
                        .with_fault_stats(attempt, store.saves(), true);
                        return (record, None);
                    }
                }
                attempt += 1;
            }
        }
    }
}

/// One fenced attempt: resolves the attempt's faults from the plan,
/// wires the checkpoint store (and any resume snapshot) into the run,
/// and injects the sink byte budget into the trace callback.
fn run_one_attempt(
    job: &JobSpec,
    index: usize,
    session: &BatchSession<'_>,
    policy: &JobPolicy<'_>,
    attempt: usize,
    store: &MemoryCheckpointStore,
    resumed: &Option<(usize, Checkpoint)>,
) -> (AttemptEnd, String) {
    let gp_fault = policy.plan.gp_fault(&job.name, attempt);
    let sink_budget = policy.plan.sink_error_after(&job.name, attempt);
    let ckpt = if policy.checkpoint_every > 0 {
        CheckpointOptions {
            every: policy.checkpoint_every,
            store: Some(store),
            resume: resumed.as_ref().map(|(_, cp)| cp),
            stop_at: None,
        }
    } else {
        CheckpointOptions::none()
    };
    let mut trace = String::new();
    let result = {
        let trace = &mut trace;
        let mut budget = sink_budget;
        let mut sink = CallbackSink::new(|line: &str| {
            // The injected sink fault: once the byte budget is spent,
            // the next line "fails to write" — surfaced as a crash so
            // the retry loop classifies it as retryable.
            if let Some(remaining) = budget.as_mut() {
                let bytes = line.len() + 1;
                if bytes > *remaining {
                    panic!("{}", xplace_fault::INJECTED_WRITE_ERROR);
                }
                *remaining -= bytes;
            }
            trace.push_str(line);
            trace.push('\n');
            if let Some(observer) = session.observer {
                observer(BatchEvent::TraceLine { job: index, line });
            }
        });
        catch_unwind(AssertUnwindSafe(|| {
            run_job_attempt(
                job,
                session.threads,
                session.cache,
                &mut sink,
                gp_fault,
                ckpt,
            )
        }))
    };
    let end = match result {
        Ok(Ok(report)) => AttemptEnd::Completed(report),
        Ok(Err(error)) => AttemptEnd::Errored(error),
        Err(payload) => AttemptEnd::Crashed(xplace_parallel::panic_message(payload.as_ref())),
    };
    (end, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_telemetry::{JobStatus, ToJson};

    /// A batch over a fresh, private design cache.
    fn fresh_batch(manifest: &BatchManifest, threads: usize) -> BatchOutcome {
        run_batch(manifest, &BatchSession::new(threads, &DesignCache::new()))
    }

    fn manifest(jobs: &str) -> BatchManifest {
        BatchManifest::parse(&format!("{{\"jobs\": [{jobs}]}}")).expect("test manifest parses")
    }

    const TINY_A: &str =
        r#"{"name": "a", "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60}"#;
    const TINY_B: &str =
        r#"{"name": "b", "synth": {"cells": 220, "nets": 230, "seed": 4}, "max_iters": 60}"#;

    #[test]
    fn batch_matches_serial_for_any_thread_count() {
        let m = manifest(&format!("{TINY_A}, {TINY_B}"));
        let serial_cache = DesignCache::new();
        let serial: Vec<JobOutcome> = m
            .jobs
            .iter()
            .map(|j| run_job(j, 1, &serial_cache).unwrap())
            .collect();
        for threads in [1, 4] {
            let batch = fresh_batch(&m, threads);
            assert!(batch.report.all_completed());
            for (i, job) in batch.report.jobs.iter().enumerate() {
                let got = job.report.as_ref().unwrap();
                let want = &serial[i].report;
                assert_eq!(
                    got.final_hpwl().to_bits(),
                    want.final_hpwl().to_bits(),
                    "job {i} HPWL diverged at {threads} threads"
                );
                assert_eq!(
                    got.gp.final_overflow.to_bits(),
                    want.gp.final_overflow.to_bits()
                );
                assert_eq!(
                    batch.traces[i].as_deref(),
                    Some(serial[i].trace.as_str()),
                    "job {i} trace diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn failing_job_is_isolated_from_siblings() {
        let broken = r#"{"name": "broken", "synth": {"cells": 200, "nets": 210, "seed": 3},
                "max_iters": 60}"#;
        let m = BatchManifest::parse(&format!(
            r#"{{"jobs": [{TINY_A}, {broken}, {TINY_B}],
                 "faults": [{{"target": "broken", "kind": "gp_panic", "iteration": 5}}]}}"#
        ))
        .unwrap();
        let batch = fresh_batch(&m, 4);
        assert_eq!(batch.report.total(), 3);
        assert_eq!(batch.report.failed(), 1);
        let record = batch.report.job("broken").unwrap();
        assert_eq!(record.status, JobStatus::Failed);
        assert!(
            record
                .error
                .as_deref()
                .unwrap()
                .contains("injected failure at GP iteration 5"),
            "{:?}",
            record.error
        );
        assert!(record.report.is_none());
        assert_eq!(record.retries, 0, "no retry budget was configured");
        assert!(batch.traces[1].is_none());
        for name in ["a", "b"] {
            let sibling = batch.report.job(name).unwrap();
            assert_eq!(sibling.status, JobStatus::Completed, "{name} must finish");
            assert!(sibling.report.as_ref().unwrap().final_hpwl() > 0.0);
        }
    }

    #[test]
    fn transient_crash_is_retried_to_a_bit_identical_completion() {
        // The fault fires on attempt 0 only; with one retry and a
        // checkpoint cadence, the job recovers by resuming the crashed
        // attempt's latest snapshot. The recovered report must be
        // bit-identical to a fault-free run's.
        let flaky = r#"{"name": "flaky", "synth": {"cells": 200, "nets": 210, "seed": 3},
                "max_iters": 60}"#;
        let faulted = BatchManifest::parse(&format!(
            r#"{{"jobs": [{flaky}],
                 "faults": [{{"target": "flaky", "kind": "gp_panic",
                              "iteration": 40, "times": 1}}],
                 "retries": 1, "checkpoint_every": 10}}"#
        ))
        .unwrap();
        let clean = BatchManifest::parse(&format!(r#"{{"jobs": [{flaky}]}}"#)).unwrap();
        let recovered = fresh_batch(&faulted, 2);
        let reference = fresh_batch(&clean, 2);
        assert!(recovered.report.all_completed(), "{:?}", recovered.report);
        let got = recovered.report.jobs[0].report.as_ref().unwrap();
        let want = reference.report.jobs[0].report.as_ref().unwrap();
        assert_eq!(got.final_hpwl().to_bits(), want.final_hpwl().to_bits());
        assert_eq!(got.gp.modeled_ns, want.gp.modeled_ns);
        assert_eq!(got.gp.iterations, want.gp.iterations);
        let record = &recovered.report.jobs[0];
        assert_eq!(record.retries, 1);
        assert!(record.checkpoints > 0, "snapshots must have been saved");
        assert!(!record.deadline_exceeded);
        // The recovered trace is the resumed suffix: its tail must be a
        // byte-exact suffix of the fault-free trace.
        let full = reference.traces[0].as_deref().unwrap();
        let resumed = recovered.traces[0].as_deref().unwrap();
        let tail: Vec<&str> = resumed.lines().skip(1).collect();
        let full_lines: Vec<&str> = full.lines().collect();
        assert!(!tail.is_empty() && tail.len() < full_lines.len());
        assert_eq!(&full_lines[full_lines.len() - tail.len()..], &tail[..]);
    }

    #[test]
    fn sink_write_fault_is_retryable() {
        // Attempt 0 hits the injected write fault after 2 KiB of trace;
        // attempt 1 is fault-free and completes.
        let torn = r#"{"name": "torn", "synth": {"cells": 200, "nets": 210, "seed": 3},
                "max_iters": 60}"#;
        let m = BatchManifest::parse(&format!(
            r#"{{"jobs": [{torn}],
                 "faults": [{{"target": "torn", "kind": "sink_error",
                              "after_bytes": 2048, "times": 1}}],
                 "retries": 1}}"#
        ))
        .unwrap();
        let batch = fresh_batch(&m, 2);
        assert!(batch.report.all_completed(), "{:?}", batch.report);
        assert_eq!(batch.report.jobs[0].retries, 1);
        // Without a retry budget the same fault is terminal.
        let mut exhausted = m.clone();
        exhausted.retries = 0;
        let batch = fresh_batch(&exhausted, 2);
        assert_eq!(batch.report.failed(), 1);
        assert!(
            batch.report.jobs[0]
                .error
                .as_deref()
                .unwrap()
                .contains(xplace_fault::INJECTED_WRITE_ERROR),
            "{:?}",
            batch.report.jobs[0].error
        );
    }

    #[test]
    fn poisoned_manifest_entry_fails_fatally_without_retries() {
        let m = BatchManifest::parse(&format!(
            r#"{{"jobs": [{TINY_A}],
                 "faults": [{{"target": "a", "kind": "poison_manifest"}}],
                 "retries": 3}}"#
        ))
        .unwrap();
        let batch = fresh_batch(&m, 2);
        assert_eq!(batch.report.failed(), 1);
        let record = &batch.report.jobs[0];
        assert_eq!(record.error.as_deref(), Some(POISONED_MSG));
        assert_eq!(record.retries, 0, "poisoned jobs are never attempted");
        assert_eq!(batch.cache_stats, (0, 0), "no design was ever loaded");
    }

    #[test]
    fn stall_fault_blows_a_modeled_deadline() {
        // The job itself would finish well under the deadline; the
        // injected stall pushes the modeled cost past it.
        let slow = r#"{"name": "slow", "synth": {"cells": 200, "nets": 210, "seed": 3},
                "max_iters": 60}"#;
        let m = BatchManifest::parse(&format!(
            r#"{{"jobs": [{slow}],
                 "faults": [{{"target": "slow", "kind": "stall",
                              "modeled_ns": 1000000000000}}],
                 "deadline_ns": 1000000000}}"#
        ))
        .unwrap();
        let batch = fresh_batch(&m, 2);
        assert_eq!(batch.report.failed(), 1);
        let record = &batch.report.jobs[0];
        assert!(record.deadline_exceeded);
        assert!(
            record.error.as_deref().unwrap().starts_with(DEADLINE_MSG),
            "{:?}",
            record.error
        );
        assert!(batch
            .report
            .to_json_string()
            .contains("\"deadline_exceeded\":1"));
        // Without the stall the same deadline is comfortably met.
        let mut clean = m.clone();
        clean.faults = xplace_fault::FaultPlan::none();
        let batch = fresh_batch(&clean, 2);
        assert!(batch.report.all_completed(), "{:?}", batch.report);
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        assert_eq!(backoff_ns(0), 1_000_000);
        assert_eq!(backoff_ns(1), 2_000_000);
        assert_eq!(backoff_ns(5), 32_000_000);
        assert_eq!(backoff_ns(6), 64_000_000);
        assert_eq!(backoff_ns(60), 64_000_000);
    }

    #[test]
    fn load_errors_fail_the_job_not_the_batch() {
        let missing = r#"{"name": "missing", "aux": "/nonexistent/never.aux"}"#;
        let m = manifest(&format!("{TINY_A}, {missing}"));
        let batch = fresh_batch(&m, 2);
        assert_eq!(batch.report.completed(), 1);
        let record = batch.report.job("missing").unwrap();
        assert_eq!(record.status, JobStatus::Failed);
        assert!(
            record.error.as_deref().unwrap().contains("never.aux"),
            "{:?}",
            record.error
        );
    }

    #[test]
    fn same_design_is_loaded_once_across_jobs() {
        // Two jobs, same synth spec, different placer seeds: one cache
        // miss, one hit, and the runs still differ (seed is a placer
        // parameter, not a design parameter).
        let m = manifest(
            r#"{"name": "s1", "synth": {"cells": 200, "nets": 210, "seed": 3},
                "max_iters": 60, "seed": 1},
               {"name": "s2", "synth": {"cells": 200, "nets": 210, "seed": 3},
                "max_iters": 60, "seed": 2}"#,
        );
        let batch = fresh_batch(&m, 2);
        assert!(batch.report.all_completed());
        assert_eq!(batch.cache_stats, (1, 1));
        let h1 = batch.report.jobs[0].report.as_ref().unwrap().final_hpwl();
        let h2 = batch.report.jobs[1].report.as_ref().unwrap().final_hpwl();
        assert_ne!(h1.to_bits(), h2.to_bits());
    }

    #[test]
    fn in_memory_manifest_runs_without_touching_disk() {
        // The submission path a network service uses: a manifest built
        // programmatically (no file, no JSON text) runs identically to
        // the same manifest parsed from disk-shaped text.
        let built = BatchManifest::plain(vec![JobSpec {
            name: "a".into(),
            source: DesignSource::Synth {
                cells: 200,
                nets: 210,
                seed: 3,
                macros: 0,
            },
            max_iters: Some(60),
            seed: None,
            baseline: false,
            grid: None,
            deadline_ns: None,
            checkpoint_every: None,
        }]);
        let parsed = manifest(TINY_A);
        assert_eq!(built, parsed, "programmatic and parsed manifests agree");
        let from_built = fresh_batch(&built, 2);
        let from_parsed = fresh_batch(&parsed, 2);
        assert!(from_built.report.all_completed());
        assert_eq!(from_built.traces, from_parsed.traces);
    }

    #[test]
    fn warm_cache_hit_counts_are_exact_across_consecutive_batches() {
        // Two consecutive batches over one shared cache — the serving
        // pattern. Batch 1 (two jobs, same design): 1 miss + 1 hit.
        // Batch 2 (same design again, twice): 2 more hits, 0 misses.
        let m = manifest(
            r#"{"name": "s1", "synth": {"cells": 200, "nets": 210, "seed": 3},
                "max_iters": 60, "seed": 1},
               {"name": "s2", "synth": {"cells": 200, "nets": 210, "seed": 3},
                "max_iters": 60, "seed": 2}"#,
        );
        let cache = DesignCache::new();
        let first = run_batch(&m, &BatchSession::new(2, &cache));
        assert!(first.report.all_completed());
        assert_eq!(first.cache_stats, (1, 1), "cold batch: one miss, one hit");
        let second = run_batch(&m, &BatchSession::new(2, &cache));
        assert!(second.report.all_completed());
        assert_eq!(
            second.cache_stats,
            (3, 1),
            "warm batch: both jobs hit, no new misses"
        );
        // Warm-cache runs are byte-identical to cold-cache runs.
        assert_eq!(first.traces, second.traces);
    }

    #[test]
    fn cancelled_batch_skips_unstarted_jobs() {
        let m = manifest(&format!("{TINY_A}, {TINY_B}"));
        let cancel = AtomicBool::new(true);
        let cache = DesignCache::new();
        let session = BatchSession::new(1, &cache).with_cancel(&cancel);
        let outcome = run_batch(&m, &session);
        assert_eq!(outcome.report.failed(), 2);
        for record in &outcome.report.jobs {
            assert_eq!(record.error.as_deref(), Some(CANCELLED_MSG));
        }
        assert_eq!(outcome.cache_stats, (0, 0), "no design was ever loaded");
    }

    #[test]
    fn departed_client_skips_unstarted_jobs_and_drains_the_in_flight_one() {
        // Width 1 makes execution sequential: the client "disconnects"
        // after job 0 completes, so job 0 must drain bit-identically and
        // job 1 must be skipped with the disconnect message (distinct
        // from CANCELLED_MSG — a sibling's drain is not a shutdown).
        let m = manifest(&format!("{TINY_A}, {TINY_B}"));
        let gone = AtomicBool::new(false);
        let cache = DesignCache::new();
        let observer = |event: BatchEvent<'_>| {
            if let BatchEvent::JobDone { job: 0, .. } = event {
                gone.store(true, Ordering::Release);
            }
        };
        let session = BatchSession::new(1, &cache)
            .with_client_gone(&gone)
            .with_observer(&observer);
        let outcome = run_batch(&m, &session);
        assert_eq!(outcome.report.jobs[0].status, JobStatus::Completed);
        assert_eq!(
            outcome.report.jobs[1].error.as_deref(),
            Some(DISCONNECTED_MSG),
            "jobs after the disconnect must be skipped, not run for nobody"
        );
        let reference = fresh_batch(&m, 1);
        assert_eq!(outcome.traces[0], reference.traces[0]);

        // When both a drain and a disconnect are pending, the batch-wide
        // cancel wins the skip message.
        let cancel = AtomicBool::new(true);
        let gone = AtomicBool::new(true);
        let session = BatchSession::new(1, &cache)
            .with_cancel(&cancel)
            .with_client_gone(&gone);
        let outcome = run_batch(&m, &session);
        for record in &outcome.report.jobs {
            assert_eq!(record.error.as_deref(), Some(CANCELLED_MSG));
        }
    }

    #[test]
    fn cancel_mid_batch_drains_in_flight_job_and_skips_the_rest() {
        // Width 1 makes execution sequential: the observer cancels after
        // job 0 completes, so job 0 must finish cleanly (drained, trace
        // intact) and job 1 must be skipped.
        let m = manifest(&format!("{TINY_A}, {TINY_B}"));
        let cancel = AtomicBool::new(false);
        let cache = DesignCache::new();
        let observer = |event: BatchEvent<'_>| {
            if let BatchEvent::JobDone { job: 0, .. } = event {
                cancel.store(true, Ordering::Release);
            }
        };
        let session = BatchSession::new(1, &cache)
            .with_cancel(&cancel)
            .with_observer(&observer);
        let outcome = run_batch(&m, &session);
        assert_eq!(outcome.report.jobs[0].status, JobStatus::Completed);
        assert_eq!(
            outcome.report.jobs[1].error.as_deref(),
            Some(CANCELLED_MSG),
            "job after the cancel point must be skipped"
        );
        // The drained job is bit-identical to an uncancelled run's.
        let reference = fresh_batch(&m, 1);
        assert_eq!(outcome.traces[0], reference.traces[0]);
    }

    #[test]
    fn observer_streams_the_exact_trace_bytes() {
        use std::sync::Mutex;
        let m = manifest(&format!("{TINY_A}, {TINY_B}"));
        let streamed: Mutex<Vec<String>> = Mutex::new(vec![String::new(), String::new()]);
        let started: Mutex<Vec<bool>> = Mutex::new(vec![false, false]);
        let done: Mutex<Vec<bool>> = Mutex::new(vec![false, false]);
        let observer = |event: BatchEvent<'_>| match event {
            BatchEvent::JobStart { job } => {
                started.lock().unwrap()[job] = true;
            }
            BatchEvent::TraceLine { job, line } => {
                assert!(
                    started.lock().unwrap()[job],
                    "job {job}: trace lines must follow the start ack"
                );
                let mut s = streamed.lock().unwrap();
                s[job].push_str(line);
                s[job].push('\n');
            }
            BatchEvent::JobDone { job, record } => {
                assert_eq!(record.status, JobStatus::Completed);
                done.lock().unwrap()[job] = true;
            }
        };
        let cache = DesignCache::new();
        let session = BatchSession::new(4, &cache).with_observer(&observer);
        let outcome = run_batch(&m, &session);
        assert!(outcome.report.all_completed());
        assert_eq!(*started.lock().unwrap(), vec![true, true]);
        assert_eq!(*done.lock().unwrap(), vec![true, true]);
        let streamed = streamed.lock().unwrap();
        for (i, trace) in outcome.traces.iter().enumerate() {
            assert_eq!(
                Some(streamed[i].as_str()),
                trace.as_deref(),
                "job {i}: streamed lines must reassemble the stored trace"
            );
        }
        // And observation never perturbs the run.
        let silent = fresh_batch(&m, 4);
        assert_eq!(silent.traces, outcome.traces);
    }

    #[test]
    fn batch_is_reproducible_run_to_run() {
        let m = manifest(&format!("{TINY_A}, {TINY_B}"));
        let first = fresh_batch(&m, 4);
        let second = fresh_batch(&m, 2);
        assert_eq!(first.traces, second.traces);
        let cmp = xplace_telemetry::compare_batch_reports(
            &first.report,
            &second.report,
            &xplace_telemetry::Tolerances::default(),
        );
        assert!(cmp.passed(), "{:?}", cmp.failures);
    }
}
