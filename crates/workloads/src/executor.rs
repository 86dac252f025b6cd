//! A list-scheduling pool for simulation sweeps.
//!
//! Sweep cells (one machine, one mechanism, one size) are independent
//! but wildly uneven in cost: a 256-processor lock costs orders of
//! magnitude more than a 4-processor one. Workers take tasks from one
//! shared cursor over an order the caller gives, so a caller listing
//! its costliest tasks first gets a greedy schedule — the big cells
//! start at once and the small ones fill the tail. Each result lands in
//! its task's index slot, so the output is in index order whichever
//! worker ran what, and bit-identical to a serial run.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::Result as TaskResult;

/// Worker-pool size: the `AMO_SWEEP_THREADS` environment variable if
/// set (≥1; useful for benchmarking serial vs parallel and for CI
/// determinism checks), otherwise the machine's available parallelism.
pub fn sweep_workers() -> usize {
    match std::env::var("AMO_SWEEP_THREADS").map(|v| v.trim().parse::<usize>()) {
        Ok(Ok(n)) => n.max(1),
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Run the tasks `f(index)` for every index in `order` (a permutation
/// of `0..order.len()`) on `workers` threads, started in that order,
/// and return their results in index order.
///
/// `done(index, &result)` runs on the calling thread as each task
/// returns, while the others are still running. A panicking task does
/// not stop the others and is not passed to `done`; once all have run,
/// the panic of the lowest-indexed failed task resumes on the caller
/// with its original payload, whatever the worker count and the order.
pub fn par_run<O: Send>(
    workers: usize,
    order: &[usize],
    f: impl Fn(usize) -> O + Sync,
    mut done: impl FnMut(usize, &O),
) -> Vec<O> {
    let mut results: Vec<Option<TaskResult<O>>> = order.iter().map(|_| None).collect();
    let mut finish = |i: usize, out: TaskResult<O>| {
        if let Ok(o) = &out {
            done(i, o);
        }
        results[i] = Some(out);
    };
    // A panic is re-raised below, so no state it left behind is observed.
    let run = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i)));
    if workers.min(order.len()) <= 1 {
        order.iter().for_each(|&i| finish(i, run(i)));
    } else {
        // Relaxed: the cursor publishes nothing; results cross the channel.
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for _ in 0..workers.min(order.len()) {
                let (tx, cursor, run) = (tx.clone(), &cursor, &run);
                s.spawn(move || {
                    while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        if tx.send((i, run(i))).is_err() {
                            break; // the caller is unwinding
                        }
                    }
                });
            }
            drop(tx);
            rx.iter().for_each(|(i, out)| finish(i, out));
        });
    }
    results
        .into_iter()
        .map(|slot| {
            slot.expect("every task ran exactly once")
                .unwrap_or_else(|payload| resume_unwind(payload))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Pool sizes every test runs at, so no verdict depends on the
    /// host's core count or the environment.
    const WORKERS: [usize; 3] = [1, 2, 4];

    /// Index order, its reverse, and an interleaving of both ends.
    fn orders(n: usize) -> Vec<Vec<usize>> {
        let mixed = (0..n).map(|k| if k % 2 == 0 { k / 2 } else { n - 1 - k / 2 });
        vec![(0..n).collect(), (0..n).rev().collect(), mixed.collect()]
    }

    #[test]
    fn results_come_back_in_index_order() {
        for w in WORKERS {
            for order in orders(100) {
                let out = par_run(w, &order, |i| i * i, |_, _| {});
                assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn empty_and_single_task_sets() {
        for w in WORKERS {
            assert_eq!(par_run(w, &[], |i| i, |_, _| {}), Vec::<usize>::new());
            assert_eq!(par_run(w, &[0], |i| i + 41, |_, _| {}), vec![41]);
        }
    }

    #[test]
    fn uneven_task_costs_all_complete() {
        // Heavy tasks at the front of the index order; correctness is
        // that every slot is filled, in order, whatever the start order.
        for w in WORKERS {
            for order in orders(40) {
                let out = par_run(
                    w,
                    &order,
                    |i| {
                        let spins = if i < 4 { 200_000 } else { 100 };
                        let mut acc = i as u64;
                        for k in 0..spins {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                        }
                        (i, acc != 0)
                    },
                    |_, _| {},
                );
                assert!(out.iter().enumerate().all(|(idx, &(i, _))| idx == i));
            }
        }
    }

    #[test]
    fn every_task_runs_once_and_done_sees_each_index_once_on_the_caller() {
        let caller = std::thread::current().id();
        for w in WORKERS {
            for order in orders(40) {
                let runs = Mutex::new(vec![0u32; 40]);
                let mut seen = vec![0u32; 40];
                par_run(
                    w,
                    &order,
                    |i| {
                        runs.lock().unwrap()[i] += 1;
                        i
                    },
                    |i, &out| {
                        assert_eq!(std::thread::current().id(), caller, "{w} workers");
                        assert_eq!(i, out, "done gets the task's own result");
                        seen[i] += 1;
                    },
                );
                assert_eq!(runs.into_inner().unwrap(), vec![1; 40], "{w} workers");
                assert_eq!(seen, vec![1; 40], "{w} workers");
            }
        }
    }

    #[test]
    fn lowest_indexed_panic_propagates_with_its_payload() {
        // Index 7 starts last, after index 12 has failed.
        let order: Vec<usize> = (0..16).filter(|&i| i != 7).chain([7]).collect();
        for w in WORKERS {
            let payload = catch_unwind(|| {
                par_run(
                    w,
                    &order,
                    |i| {
                        if i == 7 || i == 12 {
                            panic!("task {i} exploded");
                        }
                        i
                    },
                    |i, _| assert!(i != 7 && i != 12, "a panicked task is not done"),
                )
            })
            .expect_err("a failed task must fail the run");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("task 7 exploded"),
                "{w} workers"
            );
        }
    }
}
