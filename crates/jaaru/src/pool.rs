//! Scoped fan-out of independent jobs over at most `workers` threads.
//!
//! Every crash point the engine explores is an independent simulated run
//! with its own memory image and sink, so fanning runs out needs only a
//! split and an ordered merge. [`run_batch`] makes the calling thread
//! executor 0 and spawns one scoped thread per further executor, at most
//! one executor per item; with one executor nothing is spawned. Each
//! executor takes the next item from one shared queue until none is left;
//! the caller then puts the results back in item order. The threads live
//! only for the batch, so the `workers` bound holds exactly: a batch never
//! runs on more executors than its own run asked for.
//!
//! **Determinism.** Which executor runs an item, and when, depends on
//! thread timing; what a job computes and the order results are returned in
//! do not, and the engine merges results in crash-target order. Only the
//! busy/idle split per executor is timing-dependent, and it lives strictly
//! in the wall-clock telemetry plane.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use obs::telemetry::{Count, Telemetry, WorkerStat};

/// The per-item stall of [`set_stall_ms`], initialised from
/// `YASHME_SCHED_STALL_MS` on first use.
fn stall() -> &'static AtomicU64 {
    static STALL_MS: OnceLock<AtomicU64> = OnceLock::new();
    STALL_MS.get_or_init(|| {
        let ms = std::env::var("YASHME_SCHED_STALL_MS")
            .ok()
            .and_then(|ms| ms.trim().parse().ok())
            .unwrap_or(0);
        AtomicU64::new(ms)
    })
}

/// Makes every executor sleep `ms` after taking each item and before
/// running it, so tests (and the CI stall smoke) deterministically spread
/// items over all executors and complete them out of item order. `0`
/// disables the stall. Also settable at process start via
/// `YASHME_SCHED_STALL_MS`.
pub fn set_stall_ms(ms: u64) {
    stall().store(ms, Ordering::Relaxed);
}

/// What one executor did: the indexes of the items it ran, their results
/// in the same order, and its telemetry.
struct Executed<R> {
    items: Vec<usize>,
    results: Vec<R>,
    busy: Duration,
    finished: Instant,
}

/// Runs `job` over every item on up to `workers` executors, returning the
/// results in item order. The calling thread is executor 0; executors
/// `1..min(workers, items)` are scoped threads that end with the batch.
///
/// When `tel` is enabled it receives the batch (one per call) and its job
/// count, and each executor's busy time, idle time (finished while others
/// still ran) and item count, accumulated into that executor's slot.
///
/// A panicking job is re-raised on the calling thread once every executor
/// has stopped.
pub fn run_batch<T, R, F>(items: Vec<T>, workers: usize, tel: &Telemetry, job: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let executors = workers.min(n).max(1);
    tel.add(Count::SchedJobs, n as u64);
    tel.add(Count::SchedBatches, 1);

    // The queue hands out each item once, with its index for the merge.
    let queue = Mutex::new(items.into_iter().enumerate());
    let stall_ms = stall().load(Ordering::Relaxed);
    let execute = || {
        let start = Instant::now();
        let mut items = Vec::with_capacity(n.div_ceil(executors));
        let mut results = Vec::with_capacity(n.div_ceil(executors));
        loop {
            let next = queue.lock().expect("item queue").next();
            let Some((k, item)) = next else { break };
            if stall_ms > 0 {
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
            items.push(k);
            results.push(job(item));
        }
        Executed {
            items,
            results,
            busy: start.elapsed(),
            finished: Instant::now(),
        }
    };
    let mut executed: Vec<Executed<R>> = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..executors).map(|_| s.spawn(execute)).collect();
        let mut executed = vec![execute()];
        executed.extend(
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload))),
        );
        executed
    });

    if tel.enabled() {
        let end = Instant::now();
        for (slot, e) in executed.iter().enumerate() {
            tel.record_worker(
                slot,
                WorkerStat {
                    busy: e.busy,
                    idle: end.duration_since(e.finished),
                    jobs: e.results.len() as u64,
                },
            );
        }
    }
    // A lone executor took the items in order, so its results need no
    // merge (nor a second results-sized allocation).
    if executed.len() == 1 {
        return executed.pop().expect("executor 0").results;
    }
    let mut results: Vec<(usize, R)> = executed
        .into_iter()
        .flat_map(|e| e.items.into_iter().zip(e.results))
        .collect();
    results.sort_unstable_by_key(|&(k, _)| k);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::Barrier;

    #[test]
    fn run_batch_returns_results_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = run_batch(items, 4, Telemetry::off(), |x| x * 3);
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_batch_records_sched_counters() {
        let tel = Telemetry::new();
        let out = run_batch((0..64u64).collect(), 4, &tel, |x| x + 1);
        assert_eq!(out.len(), 64);
        let sched = tel.sched_counters();
        assert_eq!(sched.jobs, 64);
        assert_eq!(sched.batches, 1, "one fan-out is one batch");
        assert_eq!(sched.steals, 0, "nothing is stolen");
        assert!(
            !tel.worker_stats().is_empty(),
            "per-executor busy stats recorded"
        );
    }

    #[test]
    fn one_worker_runs_every_item_on_the_calling_thread() {
        let tel = Telemetry::new();
        let caller = std::thread::current().id();
        let out = run_batch((0..20u64).collect(), 1, &tel, |x| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "item {x} ran elsewhere"
            );
            x * 7
        });
        assert_eq!(out, (0..20u64).map(|x| x * 7).collect::<Vec<_>>());
        let sched = tel.sched_counters();
        assert_eq!((sched.jobs, sched.batches), (20, 1));
        let workers = tel.worker_stats();
        assert_eq!(workers.len(), 1, "one executor slot: {workers:?}");
        assert_eq!(workers[0].jobs, 20);
    }

    #[test]
    fn worker_slots_are_executors_and_jobs_are_items() {
        // Two fan-outs on one handle: the slots are the two executors, not
        // one entry per fan-out, and `jobs` counts items, not batches.
        let tel = Telemetry::new();
        run_batch((0..64u64).collect(), 2, &tel, |x| x);
        run_batch((0..40u64).collect(), 2, &tel, |x| x);
        let workers = tel.worker_stats();
        assert_eq!(workers.len(), 2, "{workers:?}");
        assert_eq!(workers.iter().map(|w| w.jobs).sum::<u64>(), 104);
        assert_eq!(tel.sched_counters().jobs, 104);
    }

    /// Runs a two-item batch on two executors, one item each (a barrier
    /// keeps either from taking both), where the item on the calling
    /// thread or on the spawned thread panics; returns the panic message.
    fn panic_message_from(on_caller: bool) -> String {
        let caller = std::thread::current().id();
        let meet = Barrier::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_batch(vec![0u64, 1], 2, Telemetry::off(), |x| {
                meet.wait();
                let here = std::thread::current().id() == caller;
                assert!(here != on_caller, "boom in item {x}");
                x
            })
        }));
        let payload = result.expect_err("panic must reach the caller");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn run_batch_propagates_job_panics() {
        let result = std::panic::catch_unwind(|| {
            run_batch((0..16u64).collect(), 4, Telemetry::off(), |x| {
                assert!(x != 11, "boom at {x}");
                x
            })
        });
        let payload = result.expect_err("panic must cross the fan-out");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 11"), "got: {msg}");
        // Both places an item can run: a spawned thread and the caller.
        assert!(panic_message_from(false).contains("boom in item"));
        assert!(panic_message_from(true).contains("boom in item"));
    }

    #[test]
    fn forced_stall_spreads_chunks_over_executors() {
        let tel = Telemetry::new();
        set_stall_ms(2);
        let out = run_batch((0..96u64).collect(), 4, &tel, |x| x ^ 1);
        set_stall_ms(0);
        assert_eq!(out, (0..96u64).map(|x| x ^ 1).collect::<Vec<_>>());
        let busy = tel.worker_stats().iter().filter(|w| w.jobs > 0).count();
        assert!(busy >= 2, "stalled executors must share the items: {busy}");
    }

    #[test]
    fn overlapping_batches_each_get_ordered_results() {
        // Two submitters concurrently: both must get their own results back
        // in order.
        std::thread::scope(|s| {
            let a = s.spawn(|| run_batch((0..64u64).collect(), 4, Telemetry::off(), |x| x * 2));
            let b = s.spawn(|| run_batch((0..64u64).collect(), 4, Telemetry::off(), |x| x * 5));
            assert_eq!(
                a.join().unwrap(),
                (0..64u64).map(|x| x * 2).collect::<Vec<_>>()
            );
            assert_eq!(
                b.join().unwrap(),
                (0..64u64).map(|x| x * 5).collect::<Vec<_>>()
            );
        });
    }
}
