//! Persistent, deterministic worker pool for xplace's data-parallel kernels.
//!
//! The rest of the workspace used to spawn fresh `std::thread::scope` workers
//! on every kernel launch — once per wirelength gradient, once per density
//! accumulation, every iteration. This crate replaces that with a single
//! process-wide pool of long-lived workers ([`global`]) plus an explicit
//! fork/join primitive ([`WorkerPool::run`]).
//!
//! # Determinism contract
//!
//! The pool never decides *what* the work units are — callers decompose their
//! domain into a fixed task list that depends only on problem size, and the
//! pool guarantees:
//!
//! 1. every task index `0..tasks` runs exactly once;
//! 2. results come back as a `Vec` indexed by task, independent of which
//!    worker executed what or in which wall-clock order;
//! 3. tasks never share mutable state through the pool (each writes only its
//!    own result slot / its own `&mut` state in [`WorkerPool::run_mut`]).
//!
//! Because floating-point reduction order is fixed by the *task* order (the
//! caller merges slot 0, then slot 1, …), a fixed decomposition yields
//! bit-identical results for **any** thread count — `threads` only changes
//! scheduling, never arithmetic.
//!
//! # Hermetic policy
//!
//! Zero registry dependencies: the queueing, latching and lifetime management
//! are built from `std` primitives only (`Mutex`, `Condvar`, `VecDeque`).

pub mod simd;

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Set inside pool workers so nested `run` calls degrade to inline serial
    /// execution instead of deadlocking on the (already busy) pool.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Completion latch for one fork/join launch: counts outstanding remote tasks
/// and records whether any of them panicked.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(remote_tasks: usize) -> Self {
        Self {
            remaining: Mutex::new(remote_tasks),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn complete(&self, panicked: bool) {
        if panicked {
            self.panicked.store(true, Ordering::Release);
        }
        let mut remaining = self.remaining.lock().expect("latch mutex poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch mutex poisoned");
        while *remaining != 0 {
            remaining = self
                .done
                .wait(remaining)
                .expect("latch condvar wait poisoned");
        }
    }
}

/// A borrowed task closure with its lifetime erased so it can sit in the
/// long-lived worker queues. Soundness: `execute` blocks on the [`Latch`]
/// until every queued copy has finished, so the referent strictly outlives
/// all uses; the erased reference never escapes a launch.
#[derive(Clone, Copy)]
struct RawJob(&'static (dyn Fn(usize) + Sync));

// SAFETY: the underlying closure is `Sync` (shared by reference across
// workers) and never mutated; sending the reference itself is safe.
unsafe impl Send for RawJob {}

struct Task {
    job: RawJob,
    index: usize,
    latch: Arc<Latch>,
}

/// One worker's inbox: a queue plus a `closed` flag for shutdown.
struct Queue {
    state: Mutex<(VecDeque<Task>, bool)>,
    ready: Condvar,
}

impl Queue {
    fn new() -> Self {
        Self {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, task: Task) {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        state.0.push_back(task);
        self.ready.notify_one();
    }

    fn close(&self) {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        state.1 = true;
        self.ready.notify_all();
    }

    /// Blocks until a task is available or the queue is closed and drained.
    fn pop(&self) -> Option<Task> {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        loop {
            if let Some(task) = state.0.pop_front() {
                return Some(task);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).expect("queue condvar wait poisoned");
        }
    }
}

struct Worker {
    queue: Arc<Queue>,
    handle: Option<JoinHandle<()>>,
}

/// A persistent pool of worker threads with deterministic fork/join launches.
///
/// A pool constructed with `threads = N` uses the calling thread as executor
/// 0 and spawns `N - 1` background workers, so a launch of width `N` runs on
/// exactly `N` OS threads. Workers are parked on their queues between
/// launches; per-launch cost is a handful of mutex operations, not a thread
/// spawn/join cycle.
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Creates a pool that can run launches up to `threads` wide
    /// (`threads.max(1)`; the calling thread always participates).
    pub fn new(threads: usize) -> Self {
        let spawned = threads.max(1) - 1;
        let workers = (0..spawned)
            .map(|i| {
                let queue = Arc::new(Queue::new());
                let worker_queue = Arc::clone(&queue);
                let handle = std::thread::Builder::new()
                    .name(format!("xplace-worker-{i}"))
                    .spawn(move || {
                        IS_POOL_WORKER.with(|flag| flag.set(true));
                        while let Some(task) = worker_queue.pop() {
                            let result =
                                catch_unwind(AssertUnwindSafe(|| (task.job.0)(task.index)));
                            task.latch.complete(result.is_err());
                        }
                    })
                    .expect("failed to spawn pool worker");
                Worker {
                    queue,
                    handle: Some(handle),
                }
            })
            .collect();
        Self { workers }
    }

    /// Maximum launch width this pool supports (background workers + caller).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Core fork/join: runs `job(i)` once for every `i in 0..tasks`, using at
    /// most `width` threads (caller included). Task `i` is assigned to
    /// executor `i % effective_width` — a fixed, thread-count-independent
    /// mapping of tasks, where only the *schedule* varies with `width`.
    fn execute(&self, tasks: usize, width: usize, job: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        let width = width.max(1).min(tasks);
        let executors = width.min(self.workers.len() + 1);
        let nested = IS_POOL_WORKER.with(|flag| flag.get());
        if executors <= 1 || nested {
            for index in 0..tasks {
                job(index);
            }
            return;
        }

        let remote_tasks = tasks - tasks.div_ceil(executors);
        let latch = Arc::new(Latch::new(remote_tasks));
        // SAFETY: see `RawJob` — we wait on the latch before returning, so
        // the erased borrow cannot outlive the closure.
        let raw = RawJob(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        });
        for index in 0..tasks {
            let executor = index % executors;
            if executor == 0 {
                continue; // caller's stride, run below
            }
            self.workers[executor - 1].queue.push(Task {
                job: raw,
                index,
                latch: Arc::clone(&latch),
            });
        }

        let mut caller_panic = None;
        let mut index = 0;
        while index < tasks {
            if caller_panic.is_none() {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(index))) {
                    caller_panic = Some(payload);
                }
            }
            index += executors;
        }
        latch.wait();

        if let Some(payload) = caller_panic {
            resume_unwind(payload);
        }
        if latch.panicked.load(Ordering::Acquire) {
            panic!("xplace-parallel: a pool task panicked");
        }
    }

    /// Runs `f(i)` for each task `i in 0..tasks` across at most `width`
    /// threads and returns the results **in task order**, regardless of
    /// scheduling. This is the primitive every deterministic kernel builds
    /// on: reduce the returned `Vec` front to back and the reduction order
    /// is fixed for any thread count.
    pub fn run<R, F>(&self, tasks: usize, width: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = Vec::with_capacity(tasks);
        slots.resize_with(tasks, || None);
        {
            let shared = SharedSlots(slots.as_mut_ptr());
            self.execute(tasks, width, &|index| {
                let value = f(index);
                // SAFETY: each task index is executed exactly once and only
                // touches its own slot, so writes never alias.
                unsafe { shared.write(index, value) };
            });
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("pool task did not produce a result"))
            .collect()
    }

    /// Like [`run`](Self::run), but each task's panic is caught
    /// *individually* and returned as `Err` in that task's result slot
    /// instead of aborting the launch: the job-level scheduling primitive.
    ///
    /// [`run`](Self::run) is the right shape for data-parallel kernel
    /// bodies, where one panicked block means the whole kernel is wrong.
    /// A batch scheduler needs the opposite contract — one failing *job*
    /// must not take its siblings down — so here every task is fenced by
    /// its own `catch_unwind` and the launch always returns `tasks`
    /// results in task order, `Ok` or `Err` per task.
    pub fn run_isolated<R, F>(&self, tasks: usize, width: usize, f: F) -> Vec<Result<R, String>>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run(tasks, width, |index| {
            catch_unwind(AssertUnwindSafe(|| f(index))).map_err(|p| panic_message(p.as_ref()))
        })
    }

    /// Like [`run`](Self::run), but each task also gets exclusive access to
    /// one element of `states` (task `i` → `states[i]`): per-task scratch
    /// such as transform plans lives across launches without reallocation.
    /// `tasks` is `states.len()`.
    pub fn run_mut<S, R, F>(&self, states: &mut [S], width: usize, f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        let tasks = states.len();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(tasks);
        slots.resize_with(tasks, || None);
        {
            let shared = SharedSlots(slots.as_mut_ptr());
            let shared_states = SharedStates(states.as_mut_ptr());
            self.execute(tasks, width, &|index| {
                // SAFETY: each task index runs exactly once and dereferences
                // only `states[index]` / `slots[index]`; no aliasing.
                let state = unsafe { shared_states.get(index) };
                let value = f(index, state);
                unsafe { shared.write(index, value) };
            });
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("pool task did not produce a result"))
            .collect()
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &self.workers {
            worker.queue.close();
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Raw pointer into the result slots; each task writes only its own index.
struct SharedSlots<R>(*mut Option<R>);

impl<R> SharedSlots<R> {
    unsafe fn write(&self, index: usize, value: R) {
        unsafe { *self.0.add(index) = Some(value) };
    }
}

// SAFETY: disjoint per-task writes, results are `Send`.
unsafe impl<R: Send> Send for SharedSlots<R> {}
unsafe impl<R: Send> Sync for SharedSlots<R> {}

/// Raw pointer into the per-task states; each task borrows only its own index.
struct SharedStates<S>(*mut S);

impl<S> SharedStates<S> {
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, index: usize) -> &mut S {
        unsafe { &mut *self.0.add(index) }
    }
}

// SAFETY: disjoint per-task borrows, states are `Send`.
unsafe impl<S: Send> Send for SharedStates<S> {}
unsafe impl<S: Send> Sync for SharedStates<S> {}

/// Extracts the human-readable message from a panic payload (`&str` and
/// `String` payloads; anything else gets a fixed placeholder). Used by
/// [`WorkerPool::run_isolated`] and by job schedulers that fence work with
/// `catch_unwind` themselves.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Number of hardware threads available to this process (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide pool. Sized `max(available_threads(), 8)` so that kernels
/// requesting more width than the hardware offers still exercise real worker
/// threads (time-shared) rather than silently degrading to serial — launches
/// are capped by their `width` argument, so oversizing costs only parked
/// threads.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(available_threads().max(8)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_returns_results_in_task_order() {
        let pool = WorkerPool::new(4);
        let results = pool.run(64, 4, |i| i * 3);
        assert_eq!(results, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_identical_across_widths() {
        let pool = WorkerPool::new(8);
        let reference = pool.run(37, 1, |i| (i as f64).sqrt().sin());
        for width in 2..=8 {
            let got = pool.run(37, width, |i| (i as f64).sqrt().sin());
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "width {width} diverged");
            }
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, 4, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} ran a wrong count");
        }
    }

    #[test]
    fn run_mut_gives_each_task_its_own_state() {
        let pool = WorkerPool::new(4);
        let mut states: Vec<Vec<usize>> = (0..6).map(|_| Vec::new()).collect();
        let results = pool.run_mut(&mut states, 4, |i, state| {
            state.push(i);
            i + 10
        });
        assert_eq!(results, vec![10, 11, 12, 13, 14, 15]);
        for (i, state) in states.iter().enumerate() {
            assert_eq!(state.as_slice(), &[i]);
        }
    }

    #[test]
    fn zero_and_single_task_launches_work() {
        let pool = WorkerPool::new(4);
        let empty: Vec<usize> = pool.run(0, 4, |i| i);
        assert!(empty.is_empty());
        let one = pool.run(1, 4, |i| i + 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn pool_of_one_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let results = pool.run(10, 4, |i| i * i);
        assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_launches_fall_back_to_inline() {
        let pool = global();
        let results = pool.run(4, 4, |outer| {
            // Nested launch from inside a pool worker must not deadlock.
            let inner = pool.run(3, 4, move |i| outer * 10 + i);
            inner.iter().sum::<usize>()
        });
        assert_eq!(results, vec![3, 33, 63, 93]);
    }

    #[test]
    fn worker_panics_propagate_to_caller() {
        let pool = WorkerPool::new(4);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, 4, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(outcome.is_err(), "panic in a pool task must propagate");
        // Pool must stay usable after a panicked launch.
        let results = pool.run(4, 4, |i| i);
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_isolated_reports_failures_without_aborting_siblings() {
        let pool = WorkerPool::new(4);
        let results = pool.run_isolated(8, 4, |i| {
            if i == 3 {
                panic!("job {i} exploded");
            }
            i * 2
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let err = r.as_ref().unwrap_err();
                assert!(err.contains("job 3 exploded"), "{err}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2, "sibling {i} must complete");
            }
        }
        // Pool stays usable afterwards.
        assert_eq!(pool.run(3, 4, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn run_isolated_is_ordered_and_width_invariant() {
        let pool = WorkerPool::new(4);
        let run = |width: usize| {
            pool.run_isolated(10, width, |i| {
                if i % 4 == 1 {
                    panic!("boom {i}");
                }
                i
            })
        };
        let a = run(1);
        for width in 2..=4 {
            assert_eq!(a, run(width), "width {width} changed outcomes");
        }
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let p = catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "literal");
        let p = catch_unwind(|| panic!("{}", String::from("formatted"))).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn width_larger_than_pool_is_capped() {
        let pool = WorkerPool::new(2);
        let results = pool.run(16, 64, |i| i);
        assert_eq!(results, (0..16).collect::<Vec<_>>());
    }
}
