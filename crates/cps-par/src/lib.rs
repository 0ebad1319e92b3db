//! # cps-par
//!
//! A small deterministic work-stealing scheduler for the offline
//! construction paths (forest leaves, forest roll-ups, cube cuboids).
//!
//! ## Contract
//!
//! [`Pool::map`] applies a function to every item of a vector on
//! `threads` worker threads and returns the results **in input order**,
//! no matter how the OS schedules the workers or how work-stealing
//! shuffles execution. Parallelism here is therefore a pure throughput
//! knob: callers that need bit-identical output across thread counts
//! (the whole point of the forest/cube engine — see
//! `atypical::par`) get it as long as the per-item function itself is
//! deterministic, because
//!
//! * every item is executed exactly once,
//! * each result is written back to the slot of its input index, and
//! * `threads <= 1` never spawns: it runs the plain sequential loop on
//!   the caller's thread — the exact pre-parallelism code path.
//!
//! ## Scheduling
//!
//! Items are seeded round-robin into per-worker FIFO deques
//! ([`crossbeam::deque::Worker`]). A worker drains its own deque first
//! and then steals from its peers (in ring order starting at its right
//! neighbour), so an adversarially skewed workload — one huge item at
//! index 0, say — keeps every worker busy: the owner is stuck on the
//! big item while its remaining queue is emptied by thieves.
//! [`Pool::map_with_stats`] exposes the steal counter so tests can
//! force and observe that behavior.
//!
//! A worker panic is propagated to the caller after all workers have
//! been joined (no detached threads, no lost panics).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use crossbeam::deque::{Steal, Stealer, Worker};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counters from one [`Pool::map_with_stats`] run.
///
/// `tasks` is deterministic (one per input item). `local_pops` and
/// `steals` describe how the run was scheduled and vary with OS timing;
/// they always sum to `tasks`. They exist for observability and for the
/// forced-stealing tests — never gate output on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Items executed (== input length).
    pub tasks: u64,
    /// Items a worker popped from its own deque.
    pub local_pops: u64,
    /// Items a worker stole from a peer's deque.
    pub steals: u64,
    /// Worker threads that participated (1 for the sequential path).
    pub workers: usize,
}

/// A fixed-width scheduler. Threads are scoped per call — the pool holds
/// no OS resources between calls, so it is cheap to construct ad hoc.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool that runs `threads` workers per call; `0` and `1` both mean
    /// the sequential path.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, returning results in input order.
    ///
    /// `f` receives `(input index, item)`. With `threads <= 1` this is
    /// exactly `items.into_iter().enumerate().map(..).collect()` on the
    /// calling thread.
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        self.map_with_stats(items, f).0
    }

    /// [`map`](Self::map), also returning the scheduling counters.
    pub fn map_with_stats<T, U, F>(&self, items: Vec<T>, f: F) -> (Vec<U>, RunStats)
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n <= 1 {
            let out: Vec<U> = items
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
            let stats = RunStats {
                tasks: n as u64,
                local_pops: n as u64,
                steals: 0,
                workers: 1,
            };
            return (out, stats);
        }

        let workers = self.threads.min(n);
        // Seed round-robin: worker w owns items w, w + workers, ...
        let deques: Vec<Worker<(usize, T)>> = (0..workers).map(|_| Worker::new_fifo()).collect();
        for (i, item) in items.into_iter().enumerate() {
            deques[i % workers].push((i, item));
        }
        let stealers: Vec<Stealer<(usize, T)>> = deques.iter().map(Worker::stealer).collect();

        let local_pops = AtomicU64::new(0);
        let steals = AtomicU64::new(0);
        // Each completed task lands in its input slot; distinct indices,
        // so a plain mutex-guarded slot vector keeps this simple and
        // contention stays on the (cheap) result store, not the work.
        let slots: Mutex<Vec<Option<U>>> = Mutex::new((0..n).map(|_| None).collect());

        let scope_result = crossbeam::thread::scope(|scope| {
            for (w, deque) in deques.into_iter().enumerate() {
                let (f, stealers, slots) = (&f, &stealers, &slots);
                let (local_pops, steals) = (&local_pops, &steals);
                scope.spawn(move |_| {
                    loop {
                        // Own deque first; then sweep peers ring-wise.
                        let task = deque.pop().map(|t| (t, false)).or_else(|| {
                            (1..workers).find_map(|d| {
                                let victim = &stealers[(w + d) % workers];
                                loop {
                                    match victim.steal() {
                                        Steal::Success(t) => return Some((t, true)),
                                        Steal::Empty => return None,
                                        Steal::Retry => continue,
                                    }
                                }
                            })
                        });
                        match task {
                            Some(((i, item), stolen)) => {
                                if stolen {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    local_pops.fetch_add(1, Ordering::Relaxed);
                                }
                                let out = f(i, item);
                                slots.lock().unwrap()[i] = Some(out);
                            }
                            None => break,
                        }
                    }
                });
            }
        });
        if let Err(payload) = scope_result {
            resume_unwind(payload);
        }

        let out: Vec<U> = slots
            .into_inner()
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("task {i} produced no result")))
            .collect();
        let stats = RunStats {
            tasks: n as u64,
            local_pops: local_pops.into_inner(),
            steals: steals.into_inner(),
            workers,
        };
        (out, stats)
    }
}

/// Resolves a parallelism knob to a worker count: `0` means "all
/// available cores", anything else is taken literally.
pub fn resolve_threads(parallelism: usize) -> usize {
    if parallelism == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        parallelism
    }
}

/// Runs `body` so that a panic inside it is returned as the panic
/// payload instead of unwinding — used by callers that must join other
/// work before re-raising.
pub fn trap_panic<R>(body: impl FnOnce() -> R) -> Result<R, Box<dyn std::any::Any + Send>> {
    catch_unwind(AssertUnwindSafe(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let items: Vec<u64> = (0..100).collect();
            let out = pool.map(items, |i, x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_threads_behaves_like_one() {
        let out = Pool::new(0).map(vec![1, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn sequential_path_runs_on_caller_thread() {
        let caller = std::thread::current().id();
        let (out, stats) = Pool::new(1).map_with_stats(vec![(); 4], |i, ()| {
            assert_eq!(std::thread::current().id(), caller);
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.local_pops, 4);
    }

    #[test]
    fn singleton_input_never_spawns() {
        let caller = std::thread::current().id();
        let out = Pool::new(8).map(vec![7u32], |_, x| {
            assert_eq!(std::thread::current().id(), caller);
            x
        });
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, stats) = Pool::new(4).map_with_stats(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
        assert_eq!(stats.tasks, 0);
    }

    #[test]
    fn pops_and_steals_account_for_every_task() {
        let (out, stats) = Pool::new(3).map_with_stats((0..50u64).collect(), |_, x| x);
        assert_eq!(out.len(), 50);
        assert_eq!(stats.tasks, 50);
        assert_eq!(stats.local_pops + stats.steals, 50);
        assert_eq!(stats.workers, 3);
    }

    /// Adversarial skew forces stealing: item 0 blocks worker 0 until
    /// every other item has been executed, so worker 0's remaining
    /// round-robin share (items 3, 6, 9, ...) must be finished by
    /// thieves.
    #[test]
    fn skewed_workload_forces_steals() {
        let done = AtomicUsize::new(0);
        let n = 30usize;
        let (out, stats) = Pool::new(3).map_with_stats((0..n).collect(), |i, x: usize| {
            if i == 0 {
                // Busy-wait until all other items completed (they can:
                // workers 1 and 2 drain their own deques, then steal the
                // rest of worker 0's).
                while done.load(Ordering::SeqCst) < n - 1 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                done.fetch_add(1, Ordering::SeqCst);
            }
            x * x
        });
        assert_eq!(out, (0..n).map(|x| x * x).collect::<Vec<_>>());
        assert!(
            stats.steals > 0,
            "worker 0 was pinned on item 0; its queue must have been stolen: {stats:?}"
        );
    }

    #[test]
    fn worker_panic_propagates() {
        let result = trap_panic(|| {
            Pool::new(2).map((0..8).collect::<Vec<u32>>(), |_, x| {
                if x == 5 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(result.is_err());
    }
}
