//! Scoped fan-out of independent jobs over at most `workers` threads.
//!
//! Every crash point the engine explores is an independent simulated run
//! with its own memory image and sink, so fanning runs out needs only a
//! split and an ordered merge. [`run_batch`] groups the items into
//! consecutive chunks of roughly equal estimated cost ([`chunk_ranges`]),
//! spawns `executors - 1` scoped threads and makes the calling thread the
//! last executor. Each executor claims the next chunk through one shared
//! atomic cursor until none is left; the caller then puts the chunk
//! results back in item order. The threads live only for the batch, so the
//! `workers` bound holds exactly: a batch never runs on more executors than
//! its own run asked for.
//!
//! **Determinism.** Which executor runs a chunk, and when, depends on
//! thread timing; what a job computes and the order results are returned in
//! do not. Chunk boundaries are a pure function of the cost estimates, and
//! the engine merges results in crash-target order exactly as a sequential
//! run does. Only the busy/idle split per executor is timing-dependent, and
//! it lives strictly in the wall-clock telemetry plane.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use obs::telemetry::{Count, Telemetry, WorkerStat};

/// The per-chunk stall of [`set_stall_ms`], initialised from
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

/// Makes every executor sleep `ms` after claiming each chunk and before
/// running it, so tests (and the CI stall smoke) deterministically spread
/// chunks over all executors and complete them out of item order. `0`
/// disables the stall. Also settable at process start via
/// `YASHME_SCHED_STALL_MS`.
pub fn set_stall_ms(ms: u64) {
    stall().store(ms, Ordering::Relaxed);
}

/// Splits `n` items into chunks of roughly equal estimated cost.
///
/// `costs` (when present) holds one non-negative estimate per item — the
/// engine passes suffix-length estimates derived from the profiling run —
/// and items are grouped *consecutively*, so chunk boundaries are a
/// deterministic function of the estimates and the executor count. Aiming
/// for several chunks per executor lets executors that draw short chunks
/// take more, so long suffixes don't leave the others waiting.
fn chunk_ranges(costs: Option<&[u64]>, n: usize, executors: usize) -> Vec<(usize, usize)> {
    const CHUNKS_PER_EXECUTOR: u64 = 4;
    let total: u64 = match costs {
        Some(c) => c.iter().map(|&x| x.max(1)).sum(),
        None => n as u64,
    };
    let target = (total / (executors as u64 * CHUNKS_PER_EXECUTOR).max(1)).max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for i in 0..n {
        acc += costs.map_or(1, |c| c[i].max(1));
        if acc >= target {
            ranges.push((start, i + 1 - start));
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push((start, n - start));
    }
    ranges
}

/// What one executor did: its `(chunk index, results)` pairs plus its
/// telemetry.
struct Executed<R> {
    chunks: Vec<(usize, Vec<R>)>,
    jobs: u64,
    busy: Duration,
    finished: Instant,
}

/// Runs `job` over every item on up to `workers` executors, returning the
/// results in item order. The calling thread is executor 0; executors
/// `1..` are scoped threads that end with the batch. `costs` (one estimate
/// per item, uniform when `None`) only shapes the chunks, never the
/// results.
///
/// When `tel` is enabled it receives the batch's job and chunk counts and
/// each executor's busy time, idle time (finished while others still ran)
/// and item count, accumulated into that executor's slot.
///
/// A panicking job is re-raised on the calling thread once every executor
/// has stopped.
pub fn run_batch<T, R, F>(
    items: Vec<T>,
    costs: Option<&[u64]>,
    workers: usize,
    tel: &Telemetry,
    job: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    debug_assert!(costs.is_none_or(|c| c.len() == n));
    let ranges = chunk_ranges(costs, n, workers.min(n).max(1));
    let executors = workers.min(ranges.len()).max(1);
    tel.add(Count::SchedJobs, n as u64);
    tel.add(Count::SchedBatches, ranges.len() as u64);

    // The cursor hands out each chunk index once; its chunk is then taken
    // out of its (uncontended) slot. The cursor publishes no data (the
    // mutex does), so it is `Relaxed`.
    let mut items = items.into_iter();
    let chunks: Vec<Mutex<Vec<T>>> = ranges
        .iter()
        .map(|&(_, len)| Mutex::new(items.by_ref().take(len).collect()))
        .collect();
    let cursor = AtomicUsize::new(0);
    let stall_ms = stall().load(Ordering::Relaxed);
    let execute = || {
        let start = Instant::now();
        let mut done = Vec::new();
        let mut jobs = 0u64;
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = chunks.get(k) else { break };
            let chunk = std::mem::take(&mut *slot.lock().expect("chunk slot"));
            if stall_ms > 0 {
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
            jobs += chunk.len() as u64;
            done.push((k, chunk.into_iter().map(&job).collect::<Vec<R>>()));
        }
        Executed {
            chunks: done,
            jobs,
            busy: start.elapsed(),
            finished: Instant::now(),
        }
    };
    let executed: Vec<Executed<R>> = std::thread::scope(|s| {
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
                    jobs: e.jobs,
                },
            );
        }
    }
    let mut chunks: Vec<(usize, Vec<R>)> = executed.into_iter().flat_map(|e| e.chunks).collect();
    chunks.sort_unstable_by_key(|&(k, _)| k);
    chunks
        .into_iter()
        .flat_map(|(_, results)| results)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::Barrier;

    #[test]
    fn chunk_ranges_partition_all_items() {
        for (costs, n, execs) in [
            (None, 0usize, 4usize),
            (None, 1, 4),
            (None, 100, 4),
            (Some(vec![1u64; 7]), 7, 2),
            (Some(vec![1000, 1, 1, 1, 1, 1000, 3]), 7, 3),
            (Some(vec![0, 0, 0]), 3, 8),
        ] {
            let ranges = chunk_ranges(costs.as_deref(), n, execs);
            let mut next = 0usize;
            for &(start, len) in &ranges {
                assert_eq!(start, next, "ranges must be consecutive");
                assert!(len > 0, "no empty chunks");
                next = start + len;
            }
            assert_eq!(next, n, "every item covered exactly once");
        }
    }

    #[test]
    fn chunking_is_a_pure_function_of_costs() {
        let costs = vec![5u64, 9, 2, 2, 2, 40, 1, 1];
        let a = chunk_ranges(Some(&costs), costs.len(), 3);
        let b = chunk_ranges(Some(&costs), costs.len(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_items_get_their_own_chunks() {
        // One dominant item must not drag its neighbours into one chunk.
        let costs = vec![1u64, 1, 1_000_000, 1, 1];
        let ranges = chunk_ranges(Some(&costs), costs.len(), 2);
        assert!(
            ranges.len() >= 2,
            "cost bucketing should split around the heavy item: {ranges:?}"
        );
    }

    #[test]
    fn run_batch_returns_results_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = run_batch(items, None, 4, Telemetry::off(), |x| x * 3);
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_batch_records_sched_counters() {
        let tel = Telemetry::new();
        let costs: Vec<u64> = (0..64).map(|i| 1 + i % 5).collect();
        let out = run_batch((0..64u64).collect(), Some(&costs), 4, &tel, |x| x + 1);
        assert_eq!(out.len(), 64);
        let sched = tel.sched_counters();
        assert_eq!(sched.jobs, 64);
        assert!(sched.batches > 1, "64 jobs should make multiple chunks");
        assert!(sched.batches <= 64);
        assert_eq!(sched.steals, 0, "nothing is stolen");
        assert!(
            !tel.worker_stats().is_empty(),
            "per-executor busy stats recorded"
        );
    }

    #[test]
    fn worker_slots_are_executors_and_jobs_are_items() {
        // Two fan-outs on one handle: the slots are the two executors, not
        // one entry per fan-out, and `jobs` counts items, not chunks.
        let tel = Telemetry::new();
        run_batch((0..64u64).collect(), None, 2, &tel, |x| x);
        run_batch((0..40u64).collect(), None, 2, &tel, |x| x);
        let workers = tel.worker_stats();
        assert_eq!(workers.len(), 2, "{workers:?}");
        assert_eq!(workers.iter().map(|w| w.jobs).sum::<u64>(), 104);
        assert_eq!(tel.sched_counters().jobs, 104);
    }

    /// Runs a two-chunk batch on two executors, one chunk each (a barrier
    /// keeps either from taking both), where the chunk on the calling
    /// thread or on the spawned thread panics; returns the panic message.
    fn panic_message_from(on_caller: bool) -> String {
        let caller = std::thread::current().id();
        let meet = Barrier::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_batch(vec![0u64, 1], None, 2, Telemetry::off(), |x| {
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
            run_batch((0..16u64).collect(), None, 4, Telemetry::off(), |x| {
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
        // Both places a chunk can run: a spawned thread and the caller.
        assert!(panic_message_from(false).contains("boom in item"));
        assert!(panic_message_from(true).contains("boom in item"));
    }

    #[test]
    fn forced_stall_spreads_chunks_over_executors() {
        let tel = Telemetry::new();
        set_stall_ms(2);
        let out = run_batch((0..96u64).collect(), None, 4, &tel, |x| x ^ 1);
        set_stall_ms(0);
        assert_eq!(out, (0..96u64).map(|x| x ^ 1).collect::<Vec<_>>());
        let busy = tel.worker_stats().iter().filter(|w| w.jobs > 0).count();
        assert!(busy >= 2, "stalled executors must share the chunks: {busy}");
    }

    #[test]
    fn overlapping_batches_each_get_ordered_results() {
        // Two submitters concurrently: both must get their own results back
        // in order.
        std::thread::scope(|s| {
            let a =
                s.spawn(|| run_batch((0..64u64).collect(), None, 4, Telemetry::off(), |x| x * 2));
            let b =
                s.spawn(|| run_batch((0..64u64).collect(), None, 4, Telemetry::off(), |x| x * 5));
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
