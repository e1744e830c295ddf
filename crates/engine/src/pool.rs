//! The worker pool behind every batch fan-out in the workspace (the
//! serving layer shards a request batch across it).
//!
//! [`run_tasks`] is the generic batch shape: N independent work items, K
//! workers, one result slot per item. Failure isolation composes from
//! three pieces:
//!
//! * every queue lock recovers from poisoning, so a panic elsewhere never
//!   cascades into the queue;
//! * each task runs under `catch_unwind` inside the worker's pop loop: a
//!   panicked item yields `None` and the worker keeps draining, so the
//!   collector always receives one result per item and never hangs;
//! * every worker handle is joined before `run_tasks` returns, so the
//!   workers' `eo-obs` records have reached the recording sink.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A minimal MPMC queue (`Mutex<VecDeque>` + `Condvar`), built on std
/// because the workspace builds offline.
struct Queue<T> {
    state: Mutex<(VecDeque<T>, bool)>,
    ready: Condvar,
    /// Deepest backlog observed (only maintained while a recording run is
    /// active; surfaced as `pool.max_queue_depth`).
    max_depth: AtomicUsize,
}

impl<T> Queue<T> {
    fn new() -> Self {
        Queue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            max_depth: AtomicUsize::new(0),
        }
    }

    /// Locks the queue, shrugging off poisoning: the guarded state is a
    /// plain `VecDeque` + closed flag whose invariants hold after any
    /// partial mutation, so a panic elsewhere never makes it unsafe to
    /// keep using — and ignoring the poison is what lets the pool drain
    /// cleanly after a worker panic instead of cascading aborts.
    fn lock(&self) -> MutexGuard<'_, (VecDeque<T>, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, item: T) {
        let mut guard = self.lock();
        guard.0.push_back(item);
        if eo_obs::recording() {
            self.max_depth.fetch_max(guard.0.len(), Ordering::Relaxed);
        }
        self.ready.notify_one();
    }

    /// Blocks for the next item; `None` once closed and drained.
    fn pop(&self) -> Option<T> {
        let mut guard = self.lock();
        loop {
            if let Some(item) = guard.0.pop_front() {
                return Some(item);
            }
            if guard.1 {
                return None;
            }
            // Each condvar wait is one park: a consumer found the queue
            // empty and blocked.
            eo_obs::counter!("pool.parks", 1);
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wakes all blocked consumers; subsequent `pop`s drain then end.
    fn close(&self) {
        let mut guard = self.lock();
        guard.1 = true;
        self.ready.notify_all();
    }
}

/// Runs `work` over every item on a pool of `threads` workers (`0` = the
/// available parallelism), returning one result slot per item in input
/// order. A panicked item yields `None` in its slot and the pool keeps
/// draining — no thread dies, no slot is abandoned. With one thread the
/// items run inline on the caller (same isolation contract), so small
/// batches pay no spawn cost.
pub fn run_tasks<T, R, F>(threads: usize, items: Vec<T>, work: F) -> Vec<Option<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    if threads == 1 || items.len() <= 1 {
        return items
            .into_iter()
            .map(|item| catch_unwind(AssertUnwindSafe(|| work(item))).ok())
            .collect();
    }
    eo_obs::gauge!("pool.workers", threads as i64);
    let n = items.len();
    let tasks: Queue<(usize, T)> = Queue::new();
    let results: Queue<(usize, Option<R>)> = Queue::new();
    let out = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut tasks_done: u64 = 0;
                    while let Some((slot, item)) = tasks.pop() {
                        tasks_done += 1;
                        // Isolate each task: a panic yields an empty slot
                        // and the worker lives on to drain the queue — the
                        // collector below is always owed exactly one
                        // result per item.
                        let out = catch_unwind(AssertUnwindSafe(|| work(item))).ok();
                        results.push((slot, out));
                    }
                    eo_obs::counter!("pool.tasks", tasks_done);
                })
            })
            .collect();
        for pair in items.into_iter().enumerate() {
            tasks.push(pair);
        }
        tasks.close(); // hang up so workers exit once the queue drains
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            if let Some((slot, r)) = results.pop() {
                out[slot] = r;
            }
        }
        // Join explicitly: the scope's implicit wait ends when each worker
        // closure returns, before the thread's `eo-obs` buffer is flushed
        // by its destructor. A joined handle has run the destructor, so
        // the worker's records reach the sink before this returns.
        for worker in workers {
            worker.join().expect("pool workers catch every task panic");
        }
        out
    });
    if eo_obs::recording() {
        eo_obs::gauge!(
            "pool.max_queue_depth",
            tasks.max_depth.load(Ordering::Relaxed) as i64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        for threads in [1, 2, 4, 0] {
            let items: Vec<usize> = (0..37).collect();
            let out = run_tasks(threads, items, |i| i * i);
            assert_eq!(out.len(), 37);
            for (i, r) in out.iter().enumerate() {
                assert_eq!(*r, Some(i * i), "slot {i} with {threads} threads");
            }
        }
    }

    #[test]
    fn a_panicking_item_only_loses_its_own_slot() {
        let items: Vec<usize> = (0..8).collect();
        let out = run_tasks(3, items, |i| {
            assert!(i != 5, "task 5 panics");
            i + 1
        });
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                assert_eq!(*r, None);
            } else {
                assert_eq!(*r, Some(i + 1));
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<Option<u32>> = run_tasks(4, Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
