//! The resident execution substrate: a persistent work-stealing pool.
//!
//! Fresh threads per map phase, partition group-sort, reduce range, DAG
//! level or sweep point would make spawn + join dominate the small rounds
//! the planner emits. [`WorkerPool`] is a **resident** pool instead:
//!
//! * **One spawn, ever.** [`WorkerPool::global`] lazily spawns
//!   `available_parallelism` workers on first use; every subsequent batch
//!   reuses them. A resident process (the future `mr-serve` daemon) pays
//!   thread creation once per lifetime, not once per request phase.
//! * **Injector + stealing.** A batch of tasks enters a shared injector
//!   queue. Idle workers pull (steal) tasks one at a time from the oldest
//!   batch, so load balances dynamically — the sweep's
//!   orders-of-magnitude point-cost spread and the engine's skewed
//!   partitions need exactly that. The *submitting* thread participates
//!   too: it drains its own batch alongside the workers, which both adds
//!   a lane and guarantees progress when batches nest (a DAG level's node
//!   task submits its round's map batch from inside a worker) or when the
//!   pool has zero threads.
//! * **Parked-idle protocol.** A worker that finds the injector empty
//!   parks on a condvar. Parked workers consume no CPU, so a resident
//!   pool costs nothing between requests; [`WorkerPool::parked`] exposes
//!   the count for the battery that pins this.
//! * **Determinism.** Results land in per-task slots indexed by
//!   submission order, so a batch's result vector is byte-identical no
//!   matter which worker ran what or in what order. Its twin is the
//!   inline run: [`fan_out`] at width 1 maps the items in order on the
//!   calling thread, and every pooled run must equal it.
//! * **Panic transparency.** A panicking task does not kill its worker:
//!   the payload is caught, the batch completes, and the payload of the
//!   **lowest-index** failing task is re-thrown on the submitting thread.
//!   That is the panic the inline run over the same items raises first,
//!   so the message a caller sees does not depend on the schedule or the
//!   worker count.
//! * **One dispatch.** [`fan_out`] is the only place the workspace
//!   chooses between running inline and submitting a pool batch; every
//!   parallel site calls it.
//!
//! # Safety story
//!
//! Tasks borrow from the submitting stack frame (`'env`), and so do the
//! per-task `Mutex<Option<R>>` result slots they fill, but resident
//! workers are `'static`; [`WorkerPool::run`] erases the lifetime with a
//! `transmute` exactly the way scoped threads do under the hood. That is
//! the pool's one `unsafe` site. The erasure is sound for the same reason
//! `std::thread::scope` is: `run` does not return until every task of the
//! batch has completed (the completion latch), so no borrow outlives its
//! frame.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Cached handles for the pool's always-on metrics counters.
struct PoolCounters {
    batches: mr_obs::Counter,
    tasks: mr_obs::Counter,
}

fn pool_counters() -> &'static PoolCounters {
    static COUNTERS: OnceLock<PoolCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| PoolCounters {
        batches: mr_obs::global().counter("pool.batches"),
        tasks: mr_obs::global().counter("pool.tasks"),
    })
}

/// A one-valued name, kept only because the perf ledger's
/// `plan_and_sweep` workload still spells out `mr_bench::SweepConfig`'s
/// `executor` field. Nothing reads it: every fan-out runs through
/// [`fan_out`]. The follow-up to ROADMAP item 1(e) deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// The resident work-stealing pool, the only substrate.
    Pool,
}

/// Runs `f` over every item and returns the results **in item order** —
/// the one fan-out under the map, group and reduce phases, the dirty
/// re-reduce, a DAG level and the frontier sweep.
///
/// With `width <= 1` or fewer than two items everything runs inline on
/// the calling thread: no queue, no latch, no thread. Otherwise the items
/// go down as one [`WorkerPool::global`] batch, whose width is the pool's
/// own. Item order in, item order out makes a pooled run bit-identical
/// to the inline one.
///
/// # Panics
/// If `f` panics, the payload of the lowest-index failing item is
/// re-thrown here (after every other item has run on the pool) — the
/// panic the inline run raises.
pub fn fan_out<T: Send, R: Send>(width: usize, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    // One compiled copy of `f` per call site, shared by both ways of
    // running it below; an indirect call per item is nothing next to an
    // item's work.
    let f: &(dyn Fn(T) -> R + Sync) = &f;
    if width <= 1 || items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    WorkerPool::global().run(
        items
            .into_iter()
            .map(|t| Box::new(move || f(t)) as Box<dyn FnOnce() -> R + Send + '_>)
            .collect(),
    )
}

/// A lifetime-erased batch task.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One submitted batch: its queue of pending tasks, the completion latch,
/// and the caught panic payload of the lowest-index failing task.
struct Batch {
    /// Tasks not yet claimed, each with its submission index. Workers and
    /// the submitting thread pop from the front; emptiness here does
    /// *not* mean completion (claimed tasks may still be running) — that
    /// is what `remaining` tracks.
    queue: Mutex<VecDeque<(usize, Task)>>,
    /// Tasks not yet *finished*. Guarded by a mutex (not an atomic) so
    /// the completion wait is a standard condvar latch.
    remaining: Mutex<usize>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
    /// Panic payload caught from the lowest-index failing task, with that
    /// index; re-thrown at the caller.
    panic: Mutex<Option<(usize, Box<dyn Any + Send + 'static>)>>,
    /// Submission timestamp, stamped only while the trace recorder is
    /// enabled; every claim records a `pool.queue_wait` interval from it.
    enqueued: Option<Instant>,
}

impl Batch {
    fn new(tasks: VecDeque<(usize, Task)>) -> Self {
        let n = tasks.len();
        Batch {
            queue: Mutex::new(tasks),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
            enqueued: mr_obs::now_if_enabled(),
        }
    }

    /// Claims the next unclaimed task, if any.
    fn pop(&self) -> Option<(usize, Task)> {
        self.queue
            .lock()
            // Cannot fire: a queue lock is held only across `pop_front` and `is_empty`.
            .expect("pool batch queue poisoned")
            .pop_front()
    }

    /// Records the queue-wait interval for a freshly claimed task and
    /// runs it under a `pool.task` span.
    fn run_claimed(&self, (index, task): (usize, Task)) {
        if let Some(enqueued) = self.enqueued {
            mr_obs::complete("pool.queue_wait", enqueued);
        }
        let _span = mr_obs::span("pool.task");
        self.run_task(index, task);
    }

    /// Runs one claimed task, capturing a panic instead of unwinding into
    /// the worker loop, and counts it finished. Of several panics the one
    /// with the smallest task index is kept, whichever happened first.
    /// The payload not kept is dropped after the slot is released, and a
    /// `Drop` of it that panics is caught there too; that panic's own
    /// payload is dropped under one more `catch_unwind`, and leaked only
    /// if its drop panics as well (a third drop could panic again).
    fn run_task(&self, index: usize, task: Task) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            let discarded = {
                // Cannot fire: only a compare and a move run under the slot.
                let mut slot = self.panic.lock().expect("pool panic slot poisoned");
                if slot.as_ref().is_none_or(|(kept, _)| index < *kept) {
                    slot.replace((index, payload)).map(|(_, old)| old)
                } else {
                    Some(payload)
                }
            };
            if let Err(second) = catch_unwind(AssertUnwindSafe(move || drop(discarded))) {
                if let Err(third) = catch_unwind(AssertUnwindSafe(move || drop(second))) {
                    std::mem::forget(third);
                }
            }
        }
        // Cannot fire: the latch is held only to count down, notify or wait, none of which unwinds.
        let mut remaining = self.remaining.lock().expect("pool batch latch poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every task of the batch has finished.
    fn wait(&self) {
        // Cannot fire: as in `run_task`, nothing that holds the latch unwinds.
        let mut remaining = self.remaining.lock().expect("pool batch latch poisoned");
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                // Cannot fire: `wait` fails only on a poisoned latch, which it never is.
                .expect("pool batch latch poisoned");
        }
    }
}

/// State shared between the pool handle and its worker threads.
struct Inner {
    /// The injector: batches with unclaimed tasks, oldest first.
    injector: Mutex<VecDeque<Arc<Batch>>>,
    /// Wakes parked workers when a batch arrives (or shutdown begins).
    work: Condvar,
    /// Number of workers currently parked on `work`.
    parked: AtomicUsize,
    /// Set once, by `Drop`; parked workers observe it and exit.
    shutdown: AtomicBool,
    /// Resident worker count, for the occupancy trace events.
    workers: usize,
}

/// A persistent pool of worker threads executing batches of tasks from a
/// shared injector queue. See the [module docs](self) for the protocol
/// and determinism contract; most callers want [`WorkerPool::global`].
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with its own `workers.max(1)` resident threads. Intended
    /// for lifecycle tests; production fan-outs share
    /// [`global`](WorkerPool::global).
    pub fn with_workers(workers: usize) -> Self {
        let inner = Arc::new(Inner {
            injector: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            parked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            workers: workers.max(1),
        });
        let handles = (0..workers.max(1))
            .filter_map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mr-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    // A refused spawn leaves one worker fewer: callers drain their own batches.
                    .ok()
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// The process-wide resident pool, spawned on first use with
    /// `available_parallelism` workers and never torn down — the
    /// substrate every [`fan_out`] wider than one item shares.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            WorkerPool::with_workers(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        })
    }

    /// Number of resident worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Number of workers currently parked idle (the between-requests
    /// steady state of a resident pool is `parked() == workers()`).
    pub fn parked(&self) -> usize {
        self.inner.parked.load(Ordering::SeqCst)
    }

    /// Executes a batch of tasks and returns their results **in task
    /// order**, independent of which thread ran what. Blocks until every
    /// task has finished; the submitting thread drains the batch
    /// alongside the workers (see the module docs). If tasks panicked,
    /// the payload of the lowest-index one is re-thrown here after the
    /// batch completes.
    #[allow(unsafe_code)]
    pub fn run<'env, R: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> R + Send + 'env>>,
    ) -> Vec<R> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        pool_counters().batches.incr();
        pool_counters().tasks.add(n as u64);
        if n == 1 {
            // Cannot fire: `n == 1` was just checked.
            let task = tasks.into_iter().next().expect("len checked");
            let _span = mr_obs::span("pool.task");
            return vec![task()];
        }
        // One slot per task, written once by its task under the slot's own
        // lock and read only after the batch latch has fired.
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let erased: VecDeque<(usize, Task)> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| {
                let slot = &slots[i];
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    // Cannot fire: `task()` runs before the lock; only a store happens under it.
                    *slot.lock().expect("pool result slot poisoned") = Some(task());
                });
                // SAFETY: the lifetime erasure scoped threads perform
                // internally — sound because `batch.wait()` below blocks
                // this frame until every erased task has finished, so no
                // borrow of the frame (`'env` or `slots`) survives it.
                // Price: no safe form keeps the pool resident; the safe
                // twin, fresh scoped threads per fan-out, cost
                // `steady_churn` `iter_ms_p50` +29 % (0/5 pairs better) —
                // medians of 5 alternated 25 s `mr-perf --trace 0` pairs
                // on a 2-core host, 2026-10-17.
                let job = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + '_>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(job)
                };
                (i, job)
            })
            .collect();
        let batch = Arc::new(Batch::new(erased));
        {
            // Cannot fire: no user code runs under the injector lock; tasks run after it.
            let mut injector = self.inner.injector.lock().expect("pool injector poisoned");
            injector.push_back(Arc::clone(&batch));
            self.inner.work.notify_all();
        }
        // Participate: drain our own batch so nested submissions (a pool
        // task submitting a sub-batch) and zero-spare-worker situations
        // always make progress, then wait out whatever was stolen.
        let caller_span = mr_obs::span("pool.caller");
        while let Some(task) = batch.pop() {
            batch.run_claimed(task);
        }
        drop(caller_span);
        batch.wait();
        // Cannot fire: see `run_task`, the only other holder of the panic slot.
        if let Some((_, payload)) = batch.panic.lock().expect("pool panic slot poisoned").take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    // Cannot fire: the task closure above holds a slot only for a store.
                    .expect("pool result slot poisoned")
                    // Cannot fire: no panic was caught, so every task returned and wrote its slot.
                    .expect("batch latch guarantees every slot is written")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    /// Tears the pool down (dedicated pools only — the global pool lives
    /// for the process). `run` borrows the pool, so no batch can be in
    /// flight while `Drop` runs.
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            // Cannot fire: as in `run`, no user code runs under the injector lock.
            let _guard = self.inner.injector.lock().expect("pool injector poisoned");
            self.inner.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The resident worker: claim one task from the oldest batch with work,
/// run it, repeat; park on the condvar when the injector is empty.
fn worker_loop(inner: &Inner) {
    loop {
        let claimed: (Arc<Batch>, (usize, Task)) = {
            // Cannot fire: this loop runs no user code under the injector lock.
            let mut injector = inner.injector.lock().expect("pool injector poisoned");
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let mut found = None;
                // Scan from the oldest batch; drop batches whose queues
                // have drained (their claimed tasks finish elsewhere).
                while let Some(front) = injector.front().cloned() {
                    // Cannot fire: as in `Batch::pop`.
                    let mut queue = front.queue.lock().expect("pool batch queue poisoned");
                    if let Some(task) = queue.pop_front() {
                        let drained = queue.is_empty();
                        drop(queue);
                        if drained {
                            injector.pop_front();
                        }
                        found = Some((front, task));
                        break;
                    }
                    drop(queue);
                    injector.pop_front();
                }
                if let Some(claimed) = found {
                    break claimed;
                }
                // Parked-idle protocol: no work anywhere — sleep until a
                // submission (or shutdown) signals the condvar.
                inner.parked.fetch_add(1, Ordering::SeqCst);
                // Cannot fire: `wait` fails only on a poisoned injector, which it never is.
                injector = inner.work.wait(injector).expect("pool injector poisoned");
                inner.parked.fetch_sub(1, Ordering::SeqCst);
            }
        };
        let (batch, task) = claimed;
        mr_obs::instant_value(
            "pool.occupancy",
            inner
                .workers
                .saturating_sub(inner.parked.load(Ordering::SeqCst)) as u64,
        );
        batch.run_claimed(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Boxes a results-producing closure for [`WorkerPool::run`].
    fn job<'env, R: Send>(
        f: impl FnOnce() -> R + Send + 'env,
    ) -> Box<dyn FnOnce() -> R + Send + 'env> {
        Box::new(f)
    }

    #[test]
    fn results_come_back_in_task_order() {
        let pool = WorkerPool::with_workers(4);
        let results = pool.run((0..64).map(|i| job(move || i * i)).collect());
        assert_eq!(results, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_may_borrow_the_submitting_frame() {
        let pool = WorkerPool::with_workers(2);
        let data: Vec<u64> = (0..1000).collect();
        let chunks: Vec<&[u64]> = data.chunks(100).collect();
        let sums = pool.run(
            chunks
                .iter()
                .map(|c| job(move || c.iter().sum::<u64>()))
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = WorkerPool::with_workers(2);
        assert_eq!(pool.run(Vec::<Box<dyn FnOnce() -> u8 + Send>>::new()), []);
        assert_eq!(pool.run(vec![job(|| 7u8)]), vec![7]);
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        // A pool task that itself submits a batch — the DAG-level shape
        // (node task → round phases). Caller participation guarantees
        // progress even on a single-worker pool.
        let pool = Arc::new(WorkerPool::with_workers(1));
        let outer: Vec<_> = (0..4u64)
            .map(|i| {
                let pool = Arc::clone(&pool);
                job(move || {
                    pool.run((0..4u64).map(|j| job(move || i * 10 + j)).collect())
                        .iter()
                        .sum::<u64>()
                })
            })
            .collect();
        let sums = pool.run(outer);
        assert_eq!(sums, vec![6, 46, 86, 126]);
    }

    #[test]
    fn a_panicking_task_resumes_at_the_caller_and_spares_the_pool() {
        let pool = WorkerPool::with_workers(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                (0..8)
                    .map(|i| job(move || if i == 5 { panic!("task 5 exploded") } else { i }))
                    .collect(),
            )
        }));
        assert!(caught.is_err(), "panic must propagate to the caller");
        // The pool survives and still executes fresh batches.
        assert_eq!(pool.run(vec![job(|| 1), job(|| 2)]), vec![1, 2]);
    }

    #[test]
    fn every_produced_result_drops_exactly_once() {
        struct Tracked<'a>(&'a AtomicUsize);
        impl Drop for Tracked<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let pool = WorkerPool::with_workers(2);
        let drops: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        let count = |i: usize| drops[i].load(Ordering::SeqCst);
        // A clean batch hands every result over without dropping one.
        let results = pool.run(drops.iter().map(|d| job(move || Tracked(d))).collect());
        assert!((0..32).all(|i| count(i) == 0));
        drop(results);
        assert!((0..32).all(|i| count(i) == 1));
        // With one task panicking, the results the others produced are
        // dropped by the unwind out of `run`, each exactly once.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                drops
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        job(move || {
                            assert_ne!(i, 11, "task 11 exploded");
                            Tracked(d)
                        })
                    })
                    .collect(),
            )
        }));
        assert!(caught.is_err(), "panic must propagate to the caller");
        for i in 0..32 {
            assert_eq!(count(i), if i == 11 { 1 } else { 2 }, "task {i}");
        }
    }

    #[test]
    fn idle_workers_park() {
        let pool = WorkerPool::with_workers(3);
        pool.run((0..16).map(|i| job(move || i)).collect());
        // After the batch, workers drift back to the condvar. Poll with a
        // deadline — parking is prompt but asynchronous.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.parked() < pool.workers() {
            assert!(
                Instant::now() < deadline,
                "workers failed to park: {}/{}",
                pool.parked(),
                pool.workers()
            );
            std::thread::yield_now();
        }
        assert_eq!(pool.parked(), 3);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(WorkerPool::global().workers() >= 1);
    }
}
