//! Work-stealing scheduler primitives for parallel typing and the server
//! request executor (DESIGN.md §5g).
//!
//! Three pieces, all deliberately small and `std`-only:
//!
//! * [`BatchQueue`] — a per-worker, Chase-Lev-style two-ended queue over
//!   *batches* of `(node, shape)` query indices. The owner pops from the
//!   front (preserving the sequential visit order, which the memo tables
//!   like), thieves take from the back (the work the owner would reach
//!   last). Batches are fixed at construction — a run never pushes — so
//!   both ends can be implemented as a single packed-`u64` CAS with no
//!   `unsafe` and no owner/thief double-take race on the last element.
//! * [`PubLog`] — the publication log: workers append verdicts
//!   continuously as they reach them, and every worker drains the
//!   entries it has not yet seen at each batch boundary. It is the only
//!   channel through which answers circulate during a run; the *commit*
//!   of verdicts into the typing stays with the coordinator's
//!   query-order sequencer, so publication order never affects output.
//! * [`Executor`] — a shared thread pool with one bounded request queue
//!   plus scoped fan-out ([`Executor::run_tasks`]) for intra-request
//!   parallelism, in which the calling thread runs tasks too. Its threads
//!   keep the default stack: typing nests shape references on the heap.
//!   Scope tasks are always preferred over queued requests:
//!   work that has already been admitted (and is burning a request budget)
//!   outranks work that has not — the server's budget-aware priority rule.
//!
//! Determinism: victim selection uses a [`splitmix64`] sequence seeded
//! from `(worker, tasks-executed, attempt)` — no clocks, no global RNG —
//! so a given interleaving opportunity set always probes victims in the
//! same order. The *outcome* never depends on scheduling anyway (each
//! `(node, shape)` verdict is a property of the graph alone); the
//! deterministic probe order just keeps runs reproducible enough to
//! debug.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Locks a mutex, tolerating poison: a panicking scope task must not turn
/// every subsequent lock into a second panic (the server's quarantine
/// path depends on the first panic propagating cleanly).
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `splitmix64` — the classic 64-bit finalizer; a pure function of its
/// seed, used for deterministic victim selection.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One contiguous batch of pending-query indices: `start .. start + len`
/// into the run's pending vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// First pending index in the batch.
    pub start: u32,
    /// Number of queries in the batch.
    pub len: u32,
}

/// A per-worker two-ended batch queue (see the module docs). All batches
/// are present at construction; `pop_front` serves the owner in order,
/// `steal_back` serves thieves from the far end. Both ends race through
/// one compare-exchange on a packed `(front, back)` word, so the
/// single-remaining-batch case is settled by the CAS itself.
#[derive(Debug)]
pub struct BatchQueue {
    slots: Box<[u64]>,
    /// `front << 32 | back`: live range is `front .. back`.
    bounds: AtomicU64,
}

#[inline]
fn pack_batch(b: Batch) -> u64 {
    (b.start as u64) << 32 | b.len as u64
}

#[inline]
fn unpack_batch(v: u64) -> Batch {
    Batch {
        start: (v >> 32) as u32,
        len: v as u32,
    }
}

impl BatchQueue {
    /// Builds the queue over a fixed batch list.
    pub fn new(batches: &[Batch]) -> BatchQueue {
        assert!(batches.len() <= u32::MAX as usize);
        BatchQueue {
            slots: batches.iter().map(|&b| pack_batch(b)).collect(),
            bounds: AtomicU64::new(batches.len() as u64),
        }
    }

    /// Remaining batches (racy snapshot).
    pub fn remaining(&self) -> usize {
        let bounds = self.bounds.load(Ordering::Acquire);
        ((bounds as u32) - (bounds >> 32) as u32) as usize
    }

    #[inline]
    fn take(&self, from_front: bool) -> Option<Batch> {
        let mut bounds = self.bounds.load(Ordering::Acquire);
        loop {
            let (front, back) = ((bounds >> 32) as u32, bounds as u32);
            if front >= back {
                return None;
            }
            let (slot, next) = if from_front {
                (front, ((front as u64 + 1) << 32) | back as u64)
            } else {
                ((back - 1), ((front as u64) << 32) | (back as u64 - 1))
            };
            match self.bounds.compare_exchange_weak(
                bounds,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                // The slot array is immutable, so winning the CAS is the
                // whole ownership transfer.
                Ok(_) => return Some(unpack_batch(self.slots[slot as usize])),
                Err(actual) => bounds = actual,
            }
        }
    }

    /// Owner end: the next batch in sequential order.
    pub fn pop_front(&self) -> Option<Batch> {
        self.take(true)
    }

    /// Thief end: the batch the owner would reach last.
    pub fn steal_back(&self) -> Option<Batch> {
        self.take(false)
    }
}

/// The publication log of a parallel run. `T` is the verdict record (the engine uses
/// `((ShapeId, TermId), Option<Failure>, bool)`); workers append with
/// [`PubLog::publish`] and read everything since their private mark with
/// [`PubLog::drain_from`]. The atomic length is a cheap "anything new?"
/// probe so the drain path takes the lock only when there is.
#[derive(Debug, Default)]
pub struct PubLog<T> {
    len: AtomicUsize,
    entries: Mutex<Vec<T>>,
}

impl<T: Clone> PubLog<T> {
    /// An empty log.
    pub fn new() -> PubLog<T> {
        PubLog {
            len: AtomicUsize::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Entries published so far (racy snapshot).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a block of entries.
    pub fn publish(&self, items: impl IntoIterator<Item = T>) -> usize {
        let mut entries = lock_ignore_poison(&self.entries);
        let before = entries.len();
        entries.extend(items);
        let published = entries.len() - before;
        self.len.store(entries.len(), Ordering::Release);
        published
    }

    /// Feeds every entry published since `*mark` to `f` and advances the
    /// mark. Returns how many entries were drained.
    pub fn drain_from(&self, mark: &mut usize, mut f: impl FnMut(&T)) -> usize {
        if self.len() <= *mark {
            return 0;
        }
        let entries = lock_ignore_poison(&self.entries);
        let drained = entries.len() - *mark;
        for entry in &entries[*mark..] {
            f(entry);
        }
        *mark = entries.len();
        drained
    }
}

/// Per-worker scheduler counters for one parallel run, folded into
/// [`ShardMetrics`](crate::metrics::ShardMetrics) and
/// [`WaveMetrics`](crate::metrics::WaveMetrics) when the run ends.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerCounters {
    /// Queries this worker executed.
    pub executed: u64,
    /// Of those, queries from batches stolen off a peer's queue.
    pub stolen: u64,
    /// Of those, queries answered from a verdict reached earlier in the
    /// run — by this worker or drained from a peer's publication.
    pub merged: u64,
    /// Batches stolen.
    pub steals: u64,
    /// Steal probes issued (successful or not).
    pub steal_attempts: u64,
    /// Verdicts this worker appended to the publication log.
    pub published: u64,
    /// Publication-log entries this worker drained from peers.
    pub drained: u64,
    /// Wall-clock spent executing queries, µs.
    pub busy_us: u64,
    /// Wall-clock spent looking for work without finding any, µs.
    pub idle_us: u64,
}

/// Picks a steal victim for `worker` (of `jobs` workers, `jobs >= 2`):
/// a deterministic pseudo-random peer, seeded from the worker's task
/// count and the attempt number. Never returns `worker` itself.
#[inline]
pub fn steal_victim(worker: usize, jobs: usize, executed: u64, attempt: u64) -> usize {
    let seed = splitmix64(
        (worker as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(executed)
            .wrapping_add(attempt << 17),
    );
    // Map into the other `jobs - 1` workers, skipping self.
    let pick = (seed % (jobs as u64 - 1)) as usize;
    if pick >= worker {
        pick + 1
    } else {
        pick
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A scoped fan-out registered with the executor: the caller's tasks plus
/// the bookkeeping to wait for (and propagate panics from) all of them.
#[derive(Default)]
struct ScopeInner {
    tasks: VecDeque<Job>,
    /// Tasks not yet *finished* (queued or running).
    remaining: usize,
    /// The first panic payload any task produced.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

#[derive(Default)]
struct Scope {
    inner: Mutex<ScopeInner>,
    done: Condvar,
}

impl Scope {
    /// Runs one task under the scope's completion protocol.
    fn run_one(&self, task: Job) {
        let result = panic::catch_unwind(AssertUnwindSafe(task));
        let mut inner = lock_ignore_poison(&self.inner);
        if let Err(payload) = result {
            inner.panic.get_or_insert(payload);
        }
        inner.remaining -= 1;
        if inner.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Pops a queued task, if any.
    fn next_task(&self) -> Option<Job> {
        lock_ignore_poison(&self.inner).tasks.pop_front()
    }
}

struct ExecState {
    requests: VecDeque<Job>,
    /// Active scoped fan-outs; drained before the request queue.
    scopes: Vec<Arc<Scope>>,
}

struct ExecInner {
    state: Mutex<ExecState>,
    work: Condvar,
    shutdown: AtomicBool,
    /// Jobs completed off the request queues.
    pub jobs_executed: AtomicU64,
    /// Scope tasks completed by pool threads (caller-run tasks are not
    /// counted here — they never occupied a pool thread).
    pub scope_tasks_executed: AtomicU64,
}

/// Snapshot of the executor's lifetime counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecutorCounters {
    /// Request jobs completed.
    pub jobs_executed: u64,
    /// Scope (intra-request) tasks completed on pool threads.
    pub scope_tasks_executed: u64,
    /// Request jobs currently queued.
    pub queued: u64,
}

/// A shared thread pool serving two kinds of work (see the module docs):
/// fire-and-forget request jobs (bounded admission via
/// [`Executor::try_submit`]) and scoped fan-outs
/// ([`Executor::run_tasks`]) that block the caller until every task has
/// finished. Scope tasks always win over queued request jobs.
pub struct Executor {
    inner: Arc<ExecInner>,
    threads: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Executor {
    /// Spawns a pool of `threads` workers with the platform's default
    /// thread stack: typing keeps its shape-reference nesting on the
    /// heap, so no task needs a deep stack.
    pub fn new(threads: usize, name: &str) -> Executor {
        let threads = threads.max(1);
        let inner = Arc::new(ExecInner {
            state: Mutex::new(ExecState {
                requests: VecDeque::new(),
                scopes: Vec::new(),
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_executed: AtomicU64::new(0),
            scope_tasks_executed: AtomicU64::new(0),
        });
        let handles = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || pool_thread(inner))
                    .expect("spawn executor thread")
            })
            .collect();
        Executor {
            inner,
            threads,
            handles: Mutex::new(handles),
        }
    }

    /// Pool size.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Bounded admission: enqueues a fire-and-forget job unless `cap`
    /// jobs are already queued, returning the job to the caller on
    /// refusal (the server turns that into `503` + `Retry-After`).
    pub fn try_submit(&self, cap: usize, job: Job) -> Result<(), Job> {
        {
            let mut state = lock_ignore_poison(&self.inner.state);
            if state.requests.len() >= cap {
                return Err(job);
            }
            state.requests.push_back(job);
        }
        self.inner.work.notify_one();
        Ok(())
    }

    /// Request jobs currently queued.
    pub fn queued(&self) -> usize {
        lock_ignore_poison(&self.inner.state).requests.len()
    }

    /// Lifetime counters.
    pub fn counters(&self) -> ExecutorCounters {
        ExecutorCounters {
            jobs_executed: self.inner.jobs_executed.load(Ordering::Relaxed),
            scope_tasks_executed: self.inner.scope_tasks_executed.load(Ordering::Relaxed),
            queued: self.queued() as u64,
        }
    }

    /// Runs a batch of borrowed tasks to completion on the pool,
    /// returning only when every task has finished. If any task panicked,
    /// the first payload is re-raised on the caller *after* all tasks are
    /// done — the borrow of caller state never outlives the call, which
    /// is what makes the lifetime erasure below sound.
    ///
    /// The calling thread executes tasks from its own scope while it
    /// waits: parking a pool-thread caller could starve the pool, and a
    /// shut-down pool (whose threads are gone) then still finishes the
    /// scope, inline.
    pub fn run_tasks<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        let scope = Arc::new(Scope::default());
        {
            let mut inner = lock_ignore_poison(&scope.inner);
            inner.remaining = tasks.len();
            // SAFETY: each task borrows for `'scope`, which outlives this
            // call; the function does not return until `remaining == 0`,
            // i.e. every task (including panicked ones) has fully
            // finished, and `Scope::next_task` can hand out no task after
            // that point because the queue is drained before `remaining`
            // reaches zero. So no task, and no borrow inside one, is ever
            // used after `'scope` ends.
            inner.tasks = tasks
                .into_iter()
                .map(|t| unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'scope>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(t)
                })
                .collect();
        }
        {
            let mut state = lock_ignore_poison(&self.inner.state);
            state.scopes.push(Arc::clone(&scope));
        }
        self.inner.work.notify_all();

        while let Some(task) = scope.next_task() {
            scope.run_one(task);
        }
        // Wait for the tasks pool threads are still running. The timeout
        // guards against missed wakeups; `remaining` is the ground truth.
        let mut inner = lock_ignore_poison(&scope.inner);
        while inner.remaining > 0 {
            let (next, _) = scope
                .done
                .wait_timeout(inner, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            inner = next;
        }
        let payload = inner.panic.take();
        drop(inner);
        {
            let mut state = lock_ignore_poison(&self.inner.state);
            state.scopes.retain(|s| !Arc::ptr_eq(s, &scope));
        }
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Signals shutdown and joins the pool. Already-queued jobs and
    /// active scopes are drained first — pool threads only exit once both
    /// request queues and every scope are empty. Idempotent.
    pub fn shutdown_and_join(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        let mut handles = lock_ignore_poison(&self.handles);
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn pool_thread(inner: Arc<ExecInner>) {
    loop {
        // Pick work: scope tasks first, then the request queue.
        let mut picked_scope: Option<(Arc<Scope>, Job)> = None;
        let mut picked_job: Option<Job> = None;
        {
            let mut state = lock_ignore_poison(&inner.state);
            'pick: loop {
                for scope in &state.scopes {
                    if let Some(task) = scope.next_task() {
                        picked_scope = Some((Arc::clone(scope), task));
                        break 'pick;
                    }
                }
                if let Some(job) = state.requests.pop_front() {
                    picked_job = Some(job);
                    break 'pick;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (next, _) = inner
                    .work
                    .wait_timeout(state, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                state = next;
            }
        }
        if let Some((scope, task)) = picked_scope {
            scope.run_one(task);
            inner.scope_tasks_executed.fetch_add(1, Ordering::Relaxed);
        } else if let Some(job) = picked_job {
            let _ = panic::catch_unwind(AssertUnwindSafe(job));
            inner.jobs_executed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_queue_two_ended_order() {
        let batches: Vec<Batch> = (0..5)
            .map(|i| Batch {
                start: i * 10,
                len: 10,
            })
            .collect();
        let q = BatchQueue::new(&batches);
        assert_eq!(q.remaining(), 5);
        assert_eq!(q.pop_front().unwrap().start, 0);
        assert_eq!(q.steal_back().unwrap().start, 40);
        assert_eq!(q.pop_front().unwrap().start, 10);
        assert_eq!(q.steal_back().unwrap().start, 30);
        // Last batch: whoever wins the CAS gets it, exactly once.
        assert_eq!(q.pop_front().unwrap().start, 20);
        assert!(q.pop_front().is_none());
        assert!(q.steal_back().is_none());
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn batch_queue_concurrent_takes_each_batch_once() {
        let batches: Vec<Batch> = (0..997).map(|i| Batch { start: i, len: 1 }).collect();
        let q = BatchQueue::new(&batches);
        let seen: Vec<AtomicUsize> = (0..997).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = &q;
                let seen = &seen;
                s.spawn(move || loop {
                    let b = if t == 0 {
                        q.pop_front()
                    } else {
                        q.steal_back()
                    };
                    match b {
                        Some(b) => {
                            seen[b.start as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        None => break,
                    }
                });
            }
        });
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "batch {i} taken != once");
        }
    }

    #[test]
    fn publog_drains_only_new_entries() {
        let log: PubLog<u32> = PubLog::new();
        let mut mark = 0;
        assert_eq!(log.drain_from(&mut mark, |_| unreachable!()), 0);
        log.publish([1, 2, 3]);
        let mut seen = Vec::new();
        assert_eq!(log.drain_from(&mut mark, |&e| seen.push(e)), 3);
        assert_eq!(seen, [1, 2, 3]);
        log.publish([4]);
        assert_eq!(log.drain_from(&mut mark, |&e| seen.push(e)), 1);
        assert_eq!(seen, [1, 2, 3, 4]);
        assert_eq!(log.drain_from(&mut mark, |_| unreachable!()), 0);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn steal_victim_is_deterministic_and_never_self() {
        for jobs in 2..6 {
            for worker in 0..jobs {
                for attempt in 0..32u64 {
                    let v = steal_victim(worker, jobs, 7, attempt);
                    assert_ne!(v, worker);
                    assert!(v < jobs);
                    assert_eq!(v, steal_victim(worker, jobs, 7, attempt));
                }
            }
        }
    }

    #[test]
    fn run_tasks_executes_borrowed_tasks() {
        let exec = Executor::new(3, "sched-test");
        let mut out = vec![0u64; 8];
        let tasks: Vec<Box<dyn FnOnce() + Send>> = out
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let task: Box<dyn FnOnce() + Send> = Box::new(move || *slot = i as u64 + 1);
                task
            })
            .collect();
        exec.run_tasks(tasks);
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
        assert!(exec.counters().scope_tasks_executed <= 8);
    }

    #[test]
    fn run_tasks_propagates_first_panic_after_all_tasks_finish() {
        let exec = Executor::new(2, "sched-panic");
        let done = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..6)
                .map(|i| {
                    let done = &done;
                    let task: Box<dyn FnOnce() + Send> = Box::new(move || {
                        if i == 2 {
                            panic!("boom");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                    task
                })
                .collect();
            exec.run_tasks(tasks);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(
            done.load(Ordering::Relaxed),
            5,
            "non-panicking tasks all ran"
        );
        // The pool survives a panicking scope task.
        let mut flag = false;
        exec.run_tasks(vec![Box::new(|| flag = true)]);
        assert!(flag);
    }

    #[test]
    fn submit_and_bounded_admission() {
        let exec = Executor::new(1, "sched-admit");
        // Saturate the single thread so queue depth is observable.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let blocker = exec.try_submit(
            1,
            Box::new(move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }),
        );
        assert!(blocker.is_ok());
        // Wait for the blocker to be picked up off the queue.
        for _ in 0..200 {
            if exec.queued() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(exec.try_submit(1, Box::new(|| {})).is_ok());
        let refused = exec.try_submit(1, Box::new(|| {}));
        assert!(refused.is_err(), "cap reached: admission must refuse");
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        exec.shutdown_and_join();
        assert_eq!(exec.counters().jobs_executed, 2);
        assert_eq!(exec.queued(), 0);
    }

    #[test]
    fn run_tasks_on_shut_down_pool_degrades_to_inline() {
        let exec = Executor::new(1, "sched-down");
        exec.shutdown_and_join();
        let mut ran = false;
        exec.run_tasks(vec![Box::new(|| ran = true)]);
        assert!(ran, "inline fallback must still run the task");
    }
}
