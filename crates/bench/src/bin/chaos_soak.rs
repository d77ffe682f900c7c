//! Chaos-soaks the fault-hardened placement stack: random job kills and
//! random client drops from a seeded plan, with conservation and
//! determinism invariants checked after the dust settles.
//!
//! ```text
//! chaos_soak [--smoke] [--seed N] [--jobs N] [--kills N] [--cells N]
//!            [--iters N] [--clients N] [--batches N] [--drops N]
//! ```
//!
//! Three legs, all driven by one seeded pseudo-random schedule so a
//! failure reproduces from the printed seed:
//!
//! 1. **Kill random jobs** — a batch of `--jobs` jobs where `--kills`
//!    randomly chosen jobs crash (injected GP panic, once) under a
//!    retry budget and a checkpoint cadence. Invariants: every job
//!    completes exactly once (zero lost, zero duplicated), killed jobs
//!    record their retry and at least one snapshot, and every final
//!    metric is **bit-identical** to a fault-free run of the same
//!    manifest — at 1 and 4 threads.
//! 2. **Checkpoint-resume bit-equality** — each recovered job's trace is
//!    the resumed suffix; its tail must be a byte-exact suffix of the
//!    fault-free trace.
//! 3. **Drop random clients** — `--clients` concurrent clients submit
//!    `--batches` manifests each to an in-process daemon; `--drops`
//!    randomly chosen submissions sever their connection mid-stream.
//!    Invariants: the daemon finishes every admitted batch (completed +
//!    failed job counts conserve the total exactly — nothing lost,
//!    nothing run twice), and surviving clients' artifacts are
//!    byte-identical to an undisturbed `run_batch`.
//!
//! `--smoke` shrinks every knob to a seconds-scale variant for CI.

use std::time::{Duration, Instant};
use xplace_bench::argv_parse;
use xplace_db::DesignCache;
use xplace_sched::{run_batch, BatchManifest, BatchOutcome, BatchSession};
use xplace_serve::{Client, ServeConfig, Server};
use xplace_telemetry::Json;

/// A batch over a fresh, private design cache.
fn fresh_batch(manifest: &BatchManifest, threads: usize) -> BatchOutcome {
    run_batch(manifest, &BatchSession::new(threads, &DesignCache::new()))
}

/// A tiny deterministic PRNG (splitmix64) so the chaos schedule is a
/// pure function of `--seed` — no external dependency, no wall clock.
struct Chaos(u64);

impl Chaos {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform pick in `0..n` (`n > 0`).
    fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices out of `0..n`, in ascending order.
    fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < k.min(n) {
            let candidate = self.pick(n);
            if !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
        chosen.sort_unstable();
        chosen
    }
}

struct ChaosConfig {
    seed: u64,
    jobs: usize,
    kills: usize,
    cells: usize,
    iters: usize,
    clients: usize,
    batches: usize,
    drops: usize,
}

fn chaos_config(smoke: bool) -> ChaosConfig {
    let (jobs, kills, cells, iters, clients, batches, drops) = if smoke {
        (6, 2, 60, 50, 3, 2, 2)
    } else {
        (12, 4, 80, 80, 4, 3, 4)
    };
    ChaosConfig {
        seed: argv_parse("--seed", 0xc4a05),
        jobs: argv_parse("--jobs", jobs),
        kills: argv_parse("--kills", kills),
        cells: argv_parse("--cells", cells),
        iters: argv_parse("--iters", iters),
        clients: argv_parse("--clients", clients),
        batches: argv_parse("--batches", batches),
        drops: argv_parse("--drops", drops),
    }
}

fn job_entries(cfg: &ChaosConfig) -> Vec<String> {
    (0..cfg.jobs)
        .map(|j| {
            format!(
                r#"{{"name": "job{j}", "synth": {{"cells": {}, "nets": {}, "seed": {}}}, "max_iters": {}}}"#,
                cfg.cells,
                cfg.cells + cfg.cells / 20,
                j + 1,
                cfg.iters
            )
        })
        .collect()
}

fn usize_at(stats: &Json, path: &[&str]) -> usize {
    let mut node = stats;
    for key in path {
        node = node
            .field(key)
            .unwrap_or_else(|e| panic!("/stats field {key}: {e}"));
    }
    node.as_usize()
        .unwrap_or_else(|e| panic!("/stats field {}: {e}", path.join(".")))
}

/// Leg 1 + 2: kill `cfg.kills` random jobs once each under a retry
/// budget; every metric must recover bit-identically and every
/// recovered trace must resume as a byte-exact suffix.
fn kill_random_jobs(cfg: &ChaosConfig, chaos: &mut Chaos) {
    let entries = job_entries(cfg);
    let killed = chaos.sample(cfg.jobs, cfg.kills);
    let checkpoint_every = (cfg.iters / 5).max(1);
    // Crash strictly after the first snapshot and before the end, so
    // resume (not restart-from-scratch) is what recovery exercises.
    let faults: Vec<String> = killed
        .iter()
        .map(|&j| {
            let lo = checkpoint_every + 1;
            let iteration = lo + chaos.pick(cfg.iters.saturating_sub(lo + 5).max(1));
            format!(
                r#"{{"target": "job{j}", "kind": "gp_panic", "iteration": {iteration}, "times": 1}}"#
            )
        })
        .collect();
    let chaotic = BatchManifest::parse(&format!(
        r#"{{"jobs": [{}], "faults": [{}], "retries": 1, "checkpoint_every": {checkpoint_every}}}"#,
        entries.join(", "),
        faults.join(", ")
    ))
    .expect("chaotic manifest parses");
    let clean = BatchManifest::parse(&format!(r#"{{"jobs": [{}]}}"#, entries.join(", "))).unwrap();

    for threads in [1usize, 4] {
        let reference = fresh_batch(&clean, threads);
        let recovered = fresh_batch(&chaotic, threads);

        // Zero lost, zero duplicated: exactly the manifest's jobs, each
        // reported once, all completed.
        assert_eq!(recovered.report.total(), cfg.jobs);
        assert!(
            recovered.report.all_completed(),
            "a killed job failed to recover at {threads} thread(s): {:?}",
            recovered
                .report
                .jobs
                .iter()
                .filter(|j| j.error.is_some())
                .map(|j| (&j.name, &j.error))
                .collect::<Vec<_>>()
        );
        let mut names: Vec<&str> = recovered
            .report
            .jobs
            .iter()
            .map(|j| j.name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cfg.jobs, "duplicated job records");

        for (i, record) in recovered.report.jobs.iter().enumerate() {
            let got = record.report.as_ref().expect("completed job has a report");
            let want = reference.report.jobs[i].report.as_ref().unwrap();
            assert_eq!(
                got.final_hpwl().to_bits(),
                want.final_hpwl().to_bits(),
                "job {i} HPWL diverged after recovery at {threads} thread(s)"
            );
            assert_eq!(got.gp.modeled_ns, want.gp.modeled_ns);
            assert_eq!(got.gp.iterations, want.gp.iterations);
            if killed.contains(&i) {
                assert_eq!(record.retries, 1, "job {i} must record its retry");
                assert!(record.checkpoints > 0, "job {i} must have snapshotted");
                // Checkpoint-resume bit-equality: the recovered trace is
                // the resumed suffix of the fault-free trace.
                let full: Vec<&str> = reference.traces[i].as_deref().unwrap().lines().collect();
                let resumed: Vec<&str> = recovered.traces[i]
                    .as_deref()
                    .unwrap()
                    .lines()
                    .skip(1)
                    .collect();
                assert!(!resumed.is_empty() && resumed.len() < full.len());
                assert_eq!(
                    &full[full.len() - resumed.len()..],
                    &resumed[..],
                    "job {i} resume suffix diverged at {threads} thread(s)"
                );
            } else {
                assert_eq!(record.retries, 0);
                assert_eq!(
                    recovered.traces[i], reference.traces[i],
                    "undisturbed job {i} trace diverged at {threads} thread(s)"
                );
            }
        }
    }
    println!(
        "kill-random-jobs: {}/{} jobs killed and recovered bit-identically at 1 and 4 threads",
        killed.len(),
        cfg.jobs
    );
}

/// Leg 3: drop random client connections mid-stream; the daemon must
/// conserve every admitted job exactly once and keep surviving clients
/// byte-identical to undisturbed runs.
fn drop_random_clients(cfg: &ChaosConfig, chaos: &mut Chaos) {
    // Width 1 serializes each batch's jobs, so exactly one job is in
    // flight when a connection drops and the next has not started.
    let threads = 1usize;
    let server = Server::bind(ServeConfig {
        threads,
        // Deep enough that chaos never sheds: conservation is exact.
        queue_depth: cfg.clients * cfg.batches,
        max_inflight_per_client: cfg.batches.max(1),
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let (addr, server_handle) = server.spawn();
    let probe = Client::new(addr.to_string());
    let before = probe.stats().expect("daemon answers /stats");

    // Each submission is two jobs (one to be in flight at the drop, one
    // to be skipped); the seeded plan picks which submissions drop and
    // after how many streamed frames. Drops are injected *server-side*
    // via `drop_connection` faults in the victim manifests: the fault
    // counter arms on the first job's start ack, so the sever always
    // lands while job 0 is streaming — no client-side read/close races.
    let total = cfg.clients * cfg.batches;
    let dropped = chaos.sample(total, cfg.drops.min(total.saturating_sub(1)));
    let drop_after: Vec<usize> = dropped.iter().map(|_| 1 + chaos.pick(8)).collect();
    let manifest_for = |c: usize, b: usize, drop_frames: Option<usize>| {
        let faults = match drop_frames {
            Some(frames) => format!(
                r#", "faults": [{{"target": "chaos{c}", "kind": "drop_connection", "after_frames": {frames}}}]"#
            ),
            None => String::new(),
        };
        format!(
            r#"{{"jobs": [
                {{"name": "c{c}b{b}-first", "synth": {{"cells": {}, "nets": {}, "seed": {}}}, "max_iters": {}}},
                {{"name": "c{c}b{b}-second", "synth": {{"cells": {}, "nets": {}, "seed": {}}}, "max_iters": {}}}
            ]{faults}}}"#,
            cfg.cells,
            cfg.cells + 3,
            c + 1,
            // Many more trace frames than any scheduled `after_frames`,
            // so the sever always lands while job 0 is mid-stream.
            cfg.iters * 10,
            cfg.cells,
            cfg.cells + 3,
            b + 1,
            cfg.iters
        )
    };

    let survivors: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let addr = addr.to_string();
                let (dropped, drop_after) = (&dropped, &drop_after);
                scope.spawn(move || {
                    let client = Client::new(addr.clone()).with_identity(format!("chaos{c}"));
                    let mut survived = Vec::new();
                    for b in 0..cfg.batches {
                        let submission = c * cfg.batches + b;
                        match dropped.iter().position(|&d| d == submission) {
                            Some(slot) => {
                                // The manifest schedules its own sever:
                                // the server drops the stream after the
                                // planned frame count, arming on job 0's
                                // start ack. The client just reads to
                                // EOF and checks the sever landed
                                // mid-stream (start ack delivered, no
                                // terminal chunk).
                                let manifest = manifest_for(c, b, Some(drop_after[slot]));
                                let mut socket =
                                    std::net::TcpStream::connect(&addr).expect("connect");
                                let raw = format!(
                                    "POST /batch HTTP/1.1\r\nHost: x\r\nX-Client: chaos{c}\r\nContent-Length: {}\r\n\r\n{manifest}",
                                    manifest.len()
                                );
                                std::io::Write::write_all(&mut socket, raw.as_bytes())
                                    .expect("submit");
                                let mut wire = Vec::new();
                                std::io::Read::read_to_end(&mut socket, &mut wire)
                                    .expect("severed stream still reads to EOF");
                                let text = String::from_utf8_lossy(&wire);
                                assert!(
                                    text.contains(r#""frame":"start""#),
                                    "dropped batch c{c}b{b} never saw job 0's start ack"
                                );
                                assert!(
                                    !text.contains(r#""frame":"batch""#)
                                        && !text.ends_with("0\r\n\r\n"),
                                    "dropped batch c{c}b{b} was not severed mid-stream"
                                );
                            }
                            None => {
                                let manifest = manifest_for(c, b, None);
                                let batch = client
                                    .submit(&manifest)
                                    .expect("surviving submission flows")
                                    .expect_completed();
                                assert!(
                                    batch.report.all_completed(),
                                    "surviving batch c{c}b{b} had failures"
                                );
                                let reference =
                                    fresh_batch(&BatchManifest::parse(&manifest).unwrap(), threads);
                                assert_eq!(
                                    batch.traces, reference.traces,
                                    "surviving batch c{c}b{b} diverged from an undisturbed run"
                                );
                                survived.push((c, b));
                            }
                        }
                    }
                    survived
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    // The daemon drains abandoned batches in the background; wait for
    // the completion counter to conserve every submission.
    let deadline = Instant::now() + Duration::from_secs(120);
    let after = loop {
        let stats = probe.stats().expect("daemon still answers /stats");
        let done =
            usize_at(&stats, &["batches_completed"]) - usize_at(&before, &["batches_completed"]);
        if done == total {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "daemon finished only {done}/{total} batches; stats: {}",
            stats.render()
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // Conservation: every job of every admitted batch is accounted for
    // exactly once — completed or (for a dropped client's unstarted
    // work) failed-as-skipped. Nothing lost, nothing run twice.
    let completed = usize_at(&after, &["jobs_completed"]) - usize_at(&before, &["jobs_completed"]);
    let failed = usize_at(&after, &["jobs_failed"]) - usize_at(&before, &["jobs_failed"]);
    assert_eq!(
        completed + failed,
        total * 2,
        "job conservation violated: {completed} completed + {failed} failed != {} jobs",
        total * 2
    );
    assert_eq!(
        completed,
        survivors.len() * 2 + dropped.len(),
        "each dropped batch must drain exactly its in-flight job"
    );
    assert_eq!(failed, dropped.len(), "each drop skips exactly one job");

    probe.shutdown().expect("graceful shutdown");
    server_handle
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
    println!(
        "drop-random-clients: {}/{total} submissions dropped mid-stream; {completed} completed + {failed} skipped = {} jobs conserved",
        dropped.len(),
        total * 2
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = chaos_config(smoke);
    println!(
        "chaos_soak: seed {:#x}, {} jobs ({} killed), {} clients x {} batches ({} dropped){}",
        cfg.seed,
        cfg.jobs,
        cfg.kills,
        cfg.clients,
        cfg.batches,
        cfg.drops,
        if smoke { " (smoke)" } else { "" }
    );
    // Injected GP panics are the point of the exercise; keep their
    // backtraces out of the log while real failures still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("injected failure at GP iteration"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
    let start = Instant::now();
    let mut chaos = Chaos(cfg.seed);
    kill_random_jobs(&cfg, &mut chaos);
    drop_random_clients(&cfg, &mut chaos);
    println!(
        "chaos_soak: all invariants held in {:.2} s",
        start.elapsed().as_secs_f64()
    );
}
