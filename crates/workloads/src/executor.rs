//! A small work-stealing executor for simulation sweeps.
//!
//! Every table row decomposes into independent simulator runs ("cells":
//! one machine, one mechanism, one size), so sweeps are embarrassingly
//! parallel — but cell costs are wildly uneven (a 256-processor barrier
//! costs orders of magnitude more than a 4-processor one). A fixed pool
//! of workers with per-worker deques and stealing keeps every core busy
//! through the tail of big cells, unlike the old one-OS-thread-per-row
//! scheme where the largest row serialized its cells behind one thread.
//!
//! Determinism: each task writes its result into its own index slot, so
//! the output order is the input order no matter which worker ran what
//! when. Task bodies build their own machines from fixed seeds, so
//! results are bit-identical to a serial run.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Worker-pool size: the `AMO_SWEEP_THREADS` environment variable if
/// set (≥1; useful for benchmarking serial vs parallel and for CI
/// determinism checks), otherwise the machine's available parallelism.
pub fn sweep_workers() -> usize {
    if let Ok(v) = std::env::var("AMO_SWEEP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `tasks` independent jobs (`f(index)`) on the worker pool and
/// return their results in index order.
///
/// Tasks are dealt round-robin onto per-worker queues; a worker drains
/// its own queue from the front and steals from the back of the busiest
/// other queue when starved. A panicking task does not stop the others;
/// once all have run, the panic of the lowest-indexed failed task
/// resumes on the caller with its original payload, so which failure is
/// reported does not depend on the worker count.
pub fn par_run<O, F>(tasks: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    par_run_on(sweep_workers(), tasks, f)
}

/// [`par_run`] on an explicit pool size.
fn par_run_on<O, F>(workers: usize, tasks: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    let workers = workers.min(tasks);
    if workers <= 1 {
        return (0..tasks).map(f).collect();
    }

    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..tasks).step_by(workers).collect()))
        .collect();
    let results: Vec<Mutex<Option<std::thread::Result<O>>>> =
        (0..tasks).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            let f = &f;
            s.spawn(move || loop {
                let task = {
                    let own = queues[w].lock().expect("queue poisoned").pop_front();
                    match own {
                        Some(t) => Some(t),
                        None => steal(queues, w),
                    }
                };
                match task {
                    Some(t) => {
                        // The payload is re-raised below, so no state a
                        // panicking task left behind is ever observed.
                        let out = catch_unwind(AssertUnwindSafe(|| f(t)));
                        *results[t].lock().expect("result poisoned") = Some(out);
                    }
                    None => break,
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result poisoned")
                .expect("every task ran exactly once")
                .unwrap_or_else(|payload| resume_unwind(payload))
        })
        .collect()
}

/// Take one task from the back of the fullest other queue.
fn steal(queues: &[Mutex<VecDeque<usize>>], thief: usize) -> Option<usize> {
    let victim = (0..queues.len())
        .filter(|&v| v != thief)
        .max_by_key(|&v| queues[v].lock().expect("queue poisoned").len())?;
    queues[victim].lock().expect("queue poisoned").pop_back()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Pool sizes every test runs at, so no verdict depends on the
    /// host's core count or the environment.
    const WORKERS: [usize; 3] = [1, 2, 4];

    #[test]
    fn results_come_back_in_index_order() {
        for w in WORKERS {
            let out = par_run_on(w, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_task_sets() {
        for w in WORKERS {
            assert_eq!(par_run_on(w, 0, |i| i), Vec::<usize>::new());
            assert_eq!(par_run_on(w, 1, |i| i + 41), vec![41]);
        }
        assert_eq!(par_run(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn uneven_task_costs_all_complete() {
        // Front-loaded heavy tasks force stealing to finish in bounded
        // time; correctness is that every slot is filled, in order.
        for w in WORKERS {
            let ran = AtomicUsize::new(0);
            let out = par_run_on(w, 40, |i| {
                let spins = if i < 4 { 200_000 } else { 100 };
                let mut acc = i as u64;
                for k in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                ran.fetch_add(1, Ordering::Relaxed);
                (i, acc != 0)
            });
            assert_eq!(ran.load(Ordering::Relaxed), 40);
            assert_eq!(out.len(), 40);
            for (idx, &(i, _)) in out.iter().enumerate() {
                assert_eq!(idx, i);
            }
        }
    }

    #[test]
    fn lowest_indexed_panic_propagates_with_its_payload() {
        for w in WORKERS {
            let payload = catch_unwind(|| {
                par_run_on(w, 16, |i| {
                    if i == 7 || i == 12 {
                        panic!("task {i} exploded");
                    }
                    i
                })
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
