//! The suite-global work-stealing scheduler.
//!
//! Before this module, every benchmark's every fan-out spawned its own
//! scoped worker threads, fanned tiny per-suffix jobs over an MPMC channel,
//! and barriered before the next benchmark could start. On short suite runs
//! the spawn/teardown overhead outweighed the parallelism — three RECIPE
//! benchmarks were *slower* in parallel than sequential. This module
//! replaces that with one persistent, process-wide pool:
//!
//! * **Per-lane deques + stealing** (`crossbeam::deque`). Each pool thread
//!   owns a lane; submitted chunks are distributed round-robin across the
//!   lanes, with the shared [`Injector`] acting as the submitting thread's
//!   own lane. A lane out of local work steals from siblings; executing a
//!   chunk away from its home lane counts as a steal
//!   (`yashme_sched_steals_total`).
//! * **Cost-bucketed chunking.** Suffix-resumption jobs are batched into
//!   chunks of roughly equal estimated cost (from the profiling run's
//!   per-crash-point event counts in `SnapshotLog`), so queue traffic is
//!   per-chunk, not per-suffix, and long suffixes don't hide behind a
//!   convoy of short ones.
//! * **Help-first submission.** The submitting thread does not block on the
//!   pool: it executes chunks itself — its own batch's first, then anything
//!   stealable — until its batch completes. On a single-CPU host this makes
//!   a parallel run degenerate to (almost exactly) the sequential run, and
//!   it lets overlapping benchmarks' batches make progress through each
//!   other's submitters instead of barriering per benchmark.
//!
//! **Determinism.** The scheduler moves *where and when* jobs run, never
//! what they compute or how results are merged: every job writes its result
//! into its submission-indexed slot, [`Pool::run_batch`] returns results in
//! item order, and the engine's merge absorbs them in crash-target order
//! exactly as before. Chunk boundaries derive from deterministic cost
//! estimates; only `steals`, busy/idle splits, and queue high-water marks
//! are timing-dependent, and those live strictly in the wall-clock
//! telemetry plane.
//!
//! **Safety.** Jobs borrow from the submitting frame (`&Program`, the
//! result slots, the job closure itself), but pool threads are `'static`,
//! so each chunk is lifetime-erased before entering the deques. This is
//! sound because a batch's borrows outlive every use: `run_batch` does not
//! return until its completion latch counts every chunk as executed *and
//! dropped*, and a chunk leaves a deque only to be executed immediately —
//! no chunk survives its batch.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use obs::telemetry::{Telemetry, WorkerStat};
use pmem::FastMap;

/// Lane index reported for chunks executed by a submitting thread (the
/// injector is the submitters' shared home lane).
const SUBMITTER_LANE: usize = usize::MAX;

/// A lifetime-erased chunk of work plus its batch bookkeeping.
struct Unit {
    /// Runs the chunk. The argument is the executing lane (for stats).
    run: Box<dyn FnOnce(usize) + Send>,
    batch: Arc<BatchState>,
}

/// Shared state of one submitted batch: the completion latch, panic
/// payload, and per-lane execution stats attributed to the submitting
/// run's telemetry handle.
struct BatchState {
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    tel: Arc<Telemetry>,
    lane_busy: Mutex<FastMap<usize, (Duration, u64)>>,
}

impl BatchState {
    fn new(chunks: usize, tel: Arc<Telemetry>) -> Self {
        BatchState {
            remaining: AtomicUsize::new(chunks),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            tel,
            lane_busy: Mutex::new(FastMap::default()),
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// One pool thread's deque and its steal handle.
struct Lane {
    worker: Worker<Unit>,
    stealer: Stealer<Unit>,
}

/// The persistent work-stealing pool. One per process ([`global`]); grows
/// its thread count on demand and never shrinks (parked threads cost a few
/// kilobytes of stack each).
pub struct Pool {
    lanes: Mutex<Vec<Arc<Lane>>>,
    injector: Injector<Unit>,
    /// Wakes parked pool threads when work arrives.
    park: Mutex<u64>,
    park_cv: Condvar,
    /// Artificial per-chunk delay on pool threads (test hook; see
    /// [`set_stall_ms`]).
    stall_ms: AtomicU64,
}

/// The process-wide pool instance.
pub fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool = Pool {
            lanes: Mutex::new(Vec::new()),
            injector: Injector::new(),
            park: Mutex::new(0),
            park_cv: Condvar::new(),
            stall_ms: AtomicU64::new(0),
        };
        if let Ok(ms) = std::env::var("YASHME_SCHED_STALL_MS") {
            if let Ok(ms) = ms.trim().parse::<u64>() {
                pool.stall_ms.store(ms, Ordering::Relaxed);
            }
        }
        pool
    })
}

/// Forces every pool thread to sleep `ms` before executing each chunk, so
/// tests (and the CI stealing-stress step) deterministically drive chunks
/// off their home lanes: the stalled owners lose their local work to the
/// submitter and to whichever lanes wake first, exercising the steal path
/// end to end. `0` disables the stall. Also settable at process start via
/// `YASHME_SCHED_STALL_MS`.
pub fn set_stall_ms(ms: u64) {
    global().stall_ms.store(ms, Ordering::Relaxed);
}

impl Pool {
    /// Ensures at least `n` pool threads exist, spawning any missing ones.
    fn ensure_lanes(&'static self, n: usize) {
        let mut lanes = self.lanes.lock().expect("pool lanes");
        while lanes.len() < n {
            let idx = lanes.len();
            let worker = Worker::new_fifo();
            let stealer = worker.stealer();
            lanes.push(Arc::new(Lane { worker, stealer }));
            std::thread::Builder::new()
                .name(format!("yashme-pool-{idx}"))
                .spawn(move || self.lane_main(idx))
                .expect("spawn pool thread");
        }
    }

    fn lanes_snapshot(&self) -> Vec<Arc<Lane>> {
        self.lanes.lock().expect("pool lanes").clone()
    }

    /// Body of pool thread `idx`: pop the home lane, drain the injector,
    /// steal from siblings, park when everything is empty.
    fn lane_main(&'static self, idx: usize) {
        loop {
            let lanes = self.lanes_snapshot();
            match self.find_unit(&lanes, idx) {
                Some((unit, stolen)) => {
                    let stall = self.stall_ms.load(Ordering::Relaxed);
                    if stall > 0 {
                        std::thread::sleep(Duration::from_millis(stall));
                    }
                    Self::exec_unit(unit, idx, stolen);
                }
                None => {
                    let gen = self.park.lock().expect("pool park");
                    // Re-check under the lock so a submit between the scan
                    // and the park cannot be missed.
                    if self.has_visible_work(&lanes) {
                        continue;
                    }
                    drop(self.park_cv.wait(gen).expect("pool park"));
                }
            }
        }
    }

    fn has_visible_work(&self, lanes: &[Arc<Lane>]) -> bool {
        !self.injector.is_empty() || lanes.iter().any(|l| !l.worker.is_empty())
    }

    /// Takes the next unit for lane `me` (`SUBMITTER_LANE` for submitting
    /// threads): own deque first, then the shared injector, then steals
    /// from sibling lanes. Returns the unit and whether taking it was a
    /// steal (executed away from its home lane).
    fn find_unit(&self, lanes: &[Arc<Lane>], me: usize) -> Option<(Unit, bool)> {
        if let Some(lane) = lanes.get(me) {
            if let Some(unit) = lane.worker.pop() {
                return Some((unit, false));
            }
        }
        if let Steal::Success(unit) = self.injector.steal() {
            // The injector is the submitters' shared lane: pool threads
            // draining it count as stealing, submitters don't.
            return Some((unit, me != SUBMITTER_LANE));
        }
        let n = lanes.len();
        if n == 0 {
            return None;
        }
        let start = if me < n { me + 1 } else { 0 };
        for off in 0..n {
            let j = (start + off) % n;
            if j == me {
                continue;
            }
            if let Steal::Success(unit) = lanes[j].stealer.steal() {
                return Some((unit, true));
            }
        }
        None
    }

    /// Executes one unit, records its busy time and steal against its
    /// batch, and releases the batch latch. Panics are caught and parked
    /// in the batch for the submitter to rethrow; by the time `remaining`
    /// hits zero the chunk closure (and every borrow it carried) is gone.
    fn exec_unit(unit: Unit, lane: usize, stolen: bool) {
        let Unit { run, batch } = unit;
        if stolen {
            batch.tel.add_sched_steals(1);
        }
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(move || run(lane)));
        let busy = t0.elapsed();
        if batch.tel.enabled() {
            let mut stats = batch.lane_busy.lock().expect("lane stats");
            let slot = stats.entry(lane).or_insert((Duration::ZERO, 0));
            slot.0 += busy;
            slot.1 += 1;
        }
        if let Err(payload) = outcome {
            *batch.panic.lock().expect("batch panic slot") = Some(payload);
        }
        if batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = batch.done.lock().expect("batch latch");
            *done = true;
            batch.done_cv.notify_all();
        }
    }

    /// Wakes every parked pool thread.
    fn notify_workers(&self) {
        let mut gen = self.park.lock().expect("pool park");
        *gen = gen.wrapping_add(1);
        self.park_cv.notify_all();
    }

    /// Splits `n` items into chunks of roughly equal estimated cost.
    ///
    /// `costs` (when present) holds one non-negative estimate per item —
    /// the engine passes suffix-length estimates derived from the profiling
    /// run — and items are grouped *consecutively*, so chunk boundaries are
    /// a deterministic function of the estimates and the worker bound.
    /// Aiming for several chunks per executor keeps the stealing pool fed
    /// without per-item queue traffic.
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

    /// Runs `job` over every item on the pool, returning results in item
    /// order. `workers` is the submitting run's parallelism bound: the pool
    /// grows to `workers - 1` threads (the submitter is the final
    /// executor). A pool already grown larger by another run may lend the
    /// batch more lanes — harmless, because scheduling never affects
    /// results, only timing.
    ///
    /// Panics from jobs are re-raised on the submitting thread after the
    /// whole batch has drained (so no job is left holding borrows).
    pub fn run_batch<T, R, F>(
        &'static self,
        items: Vec<T>,
        costs: Option<&[u64]>,
        workers: usize,
        tel: &Arc<Telemetry>,
        job: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        debug_assert!(costs.is_none_or(|c| c.len() == n));
        let executors = workers.min(n).max(2);
        self.ensure_lanes(executors - 1);
        let ranges = Self::chunk_ranges(costs, n, executors);

        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(n, || None);
        let batch = Arc::new(BatchState::new(ranges.len(), Arc::clone(tel)));
        tel.add_sched_batch(n as u64, ranges.len() as u64, ranges.len() as u64);

        struct SlotsPtr<R>(*mut Option<R>);
        unsafe impl<R: Send> Send for SlotsPtr<R> {}
        impl<R> Clone for SlotsPtr<R> {
            fn clone(&self) -> Self {
                SlotsPtr(self.0)
            }
        }
        let slots_ptr = SlotsPtr(slots.as_mut_ptr());
        let job = &job;

        let lanes = self.lanes_snapshot();
        let mut items = items.into_iter();
        for (k, &(start, len)) in ranges.iter().enumerate() {
            let chunk: Vec<(usize, T)> = (start..start + len)
                .map(|i| (i, items.next().expect("item per range slot")))
                .collect();
            let slots_ptr = slots_ptr.clone();
            let run = move |_lane: usize| {
                // Capture the Send wrapper itself, not its raw-pointer field
                // (2021-edition closures capture precise paths).
                let slots_ptr = slots_ptr;
                for (i, item) in chunk {
                    let result = job(item);
                    // SAFETY: each index is covered by exactly one chunk,
                    // so writes are disjoint; the submitter keeps `slots`
                    // alive (and unread) until the batch latch closes.
                    unsafe {
                        *slots_ptr.0.add(i) = Some(result);
                    }
                }
            };
            let erased: Box<dyn FnOnce(usize) + Send> = {
                let boxed: Box<dyn FnOnce(usize) + Send + '_> = Box::new(run);
                // SAFETY: lifetime erasure only. The completion latch below
                // guarantees every chunk closure is consumed (executed or
                // leaked into the panic path — still before the latch
                // closes) while `items`' borrows, `job`, and `slots` are
                // alive in this frame.
                unsafe { std::mem::transmute(boxed) }
            };
            // Round-robin home assignment over the pool lanes, with the
            // injector as the submitter's own lane for the remainder.
            let home = k % (lanes.len() + 1);
            let unit = Unit {
                run: erased,
                batch: Arc::clone(&batch),
            };
            match lanes.get(home) {
                Some(lane) => lane.worker.push(unit),
                None => self.injector.push(unit),
            }
        }
        self.notify_workers();

        // Help-first: execute our own batch's chunks (and, while waiting on
        // stragglers, anybody else's) instead of blocking.
        let mut idle = Duration::ZERO;
        while !batch.is_done() {
            let lanes = self.lanes_snapshot();
            match self.find_unit(&lanes, SUBMITTER_LANE) {
                Some((unit, stolen)) => Self::exec_unit(unit, SUBMITTER_LANE, stolen),
                None => {
                    let t0 = Instant::now();
                    let done = batch.done.lock().expect("batch latch");
                    if !*done {
                        // Timeout so freshly injected foreign work gets
                        // picked up even if our stragglers run long.
                        let _ = batch
                            .done_cv
                            .wait_timeout(done, Duration::from_millis(2))
                            .expect("batch latch");
                    }
                    idle += t0.elapsed();
                }
            }
        }

        if tel.enabled() {
            let mut lane_stats: Vec<(usize, (Duration, u64))> = batch
                .lane_busy
                .lock()
                .expect("lane stats")
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect();
            lane_stats.sort_unstable_by_key(|&(lane, _)| lane);
            for (lane, (busy, jobs)) in lane_stats {
                tel.record_worker(WorkerStat {
                    busy,
                    idle: if lane == SUBMITTER_LANE {
                        idle
                    } else {
                        Duration::ZERO
                    },
                    jobs,
                });
            }
        }
        if let Some(payload) = batch.panic.lock().expect("batch panic slot").take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("pool filled every slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let ranges = Pool::chunk_ranges(costs.as_deref(), n, execs);
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
        let a = Pool::chunk_ranges(Some(&costs), costs.len(), 3);
        let b = Pool::chunk_ranges(Some(&costs), costs.len(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_items_get_their_own_chunks() {
        // One dominant item must not drag its neighbours into one chunk.
        let costs = vec![1u64, 1, 1_000_000, 1, 1];
        let ranges = Pool::chunk_ranges(Some(&costs), costs.len(), 2);
        assert!(
            ranges.len() >= 2,
            "cost bucketing should split around the heavy item: {ranges:?}"
        );
    }

    #[test]
    fn run_batch_returns_results_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = global().run_batch(items, None, 4, Telemetry::off(), |x| x * 3);
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_batch_records_sched_counters() {
        let tel = Arc::new(Telemetry::new());
        let costs: Vec<u64> = (0..64).map(|i| 1 + i % 5).collect();
        let out = global().run_batch((0..64u64).collect(), Some(&costs), 4, &tel, |x| x + 1);
        assert_eq!(out.len(), 64);
        let sched = tel.sched_counters();
        assert_eq!(sched.jobs, 64);
        assert!(sched.batches > 1, "64 jobs should make multiple chunks");
        assert!(sched.batches <= 64);
        assert_eq!(sched.queue_depth, sched.batches);
        assert!(
            !tel.worker_stats().is_empty(),
            "per-lane busy stats recorded"
        );
    }

    #[test]
    fn run_batch_propagates_job_panics() {
        let result = std::panic::catch_unwind(|| {
            global().run_batch((0..16u64).collect(), None, 4, Telemetry::off(), |x| {
                assert!(x != 11, "boom at {x}");
                x
            })
        });
        let payload = result.expect_err("panic must cross the pool");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 11"), "got: {msg}");
    }

    #[test]
    fn forced_stall_migrates_chunks_off_their_home_lanes() {
        let tel = Arc::new(Telemetry::new());
        set_stall_ms(2);
        let out = global().run_batch((0..96u64).collect(), None, 4, &tel, |x| x ^ 1);
        set_stall_ms(0);
        assert_eq!(out, (0..96u64).map(|x| x ^ 1).collect::<Vec<_>>());
        assert!(
            tel.sched_counters().steals > 0,
            "stalled lanes must lose chunks to stealing: {:?}",
            tel.sched_counters()
        );
    }

    #[test]
    fn overlapping_batches_share_the_pool() {
        // Two submitters concurrently — the suite-overlap shape. Both must
        // get their own results back in order.
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                global().run_batch((0..64u64).collect(), None, 4, Telemetry::off(), |x| x * 2)
            });
            let b = s.spawn(|| {
                global().run_batch((0..64u64).collect(), None, 4, Telemetry::off(), |x| x * 5)
            });
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
