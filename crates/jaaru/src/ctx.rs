//! The programming API benchmarks run against.
//!
//! A [`Ctx`] is handed to every simulated thread. Its methods are the
//! "instrumented instructions" of the paper's LLVM pass: loads, stores,
//! `clflush`/`clwb`, fences, and CAS, each a scheduling point for the
//! engine. Flush and fence operations are also crash points — the engine
//! injects crashes "before every clflush or fence operation" (§6).

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};

use pmem::Addr;
use px86::Atomicity;
use vclock::ThreadId;

use crate::event::Label;
use crate::sched::{Core, CrashUnwind, Shared};

/// Handle to a simulated thread's execution context.
///
/// Created by the engine for each phase's main thread and by
/// [`Ctx::spawn`] for additional threads. All memory operations go through
/// this handle; see the crate docs for an end-to-end example.
pub struct Ctx {
    shared: Arc<Shared>,
    tid: ThreadId,
    checksum_scope: bool,
}

/// Handle to a spawned simulated thread, used with [`Ctx::join`].
#[derive(Debug)]
pub struct JoinHandle {
    tid: ThreadId,
}

impl Ctx {
    pub(crate) fn new(shared: Arc<Shared>, tid: ThreadId) -> Self {
        Ctx {
            shared,
            tid,
            checksum_scope: false,
        }
    }

    /// This simulated thread's id.
    pub fn thread(&self) -> ThreadId {
        self.tid
    }

    /// Allocates `size` bytes of simulated persistent memory.
    ///
    /// # Panics
    ///
    /// Panics if the persistent arena is exhausted (fatal for a benchmark).
    pub fn alloc(&mut self, size: u64, align: u64) -> Addr {
        self.shared
            .with_core(|core| core.mem.alloc(size, align))
            .expect("persistent arena exhausted")
    }

    /// Allocates cache-line-aligned memory.
    pub fn alloc_line_aligned(&mut self, size: u64) -> Addr {
        self.alloc(size, pmem::CACHE_LINE_SIZE)
    }

    /// The base of the root region: [`ROOT_REGION_BYTES`] bytes at a fixed,
    /// well-known address where a program stores its structure roots so
    /// recovery code can find them after a crash (the analogue of a PM
    /// pool's root object).
    ///
    /// [`ROOT_REGION_BYTES`]: crate::mem::ROOT_REGION_BYTES
    pub fn root(&self) -> Addr {
        Addr::BASE
    }

    /// The address of the `index`-th 8-byte slot in the root region.
    pub fn root_slot(&self, index: u64) -> Addr {
        Addr::BASE + index * 8
    }

    // ------------------------------------------------------------------
    // Stores.
    // ------------------------------------------------------------------

    /// Stores raw bytes with the given atomicity, labelled with the
    /// source-level field name used in race reports.
    pub fn store_bytes(&mut self, addr: Addr, bytes: &[u8], atomicity: Atomicity, label: Label) {
        self.shared.with_core(|core| {
            let Core { mem, sink, .. } = core;
            mem.exec_store(sink.as_mut(), self.tid, addr, bytes, atomicity, label);
        });
        self.shared.yield_now(self.tid);
    }

    /// Stores a `u64`.
    pub fn store_u64(&mut self, addr: Addr, value: u64, atomicity: Atomicity, label: Label) {
        self.store_bytes(addr, &value.to_le_bytes(), atomicity, label);
    }

    /// Stores a `u32`.
    pub fn store_u32(&mut self, addr: Addr, value: u32, atomicity: Atomicity, label: Label) {
        self.store_bytes(addr, &value.to_le_bytes(), atomicity, label);
    }

    /// Stores a `u16`.
    pub fn store_u16(&mut self, addr: Addr, value: u16, atomicity: Atomicity, label: Label) {
        self.store_bytes(addr, &value.to_le_bytes(), atomicity, label);
    }

    /// Stores a `u8`.
    pub fn store_u8(&mut self, addr: Addr, value: u8, atomicity: Atomicity, label: Label) {
        self.store_bytes(addr, &[value], atomicity, label);
    }

    /// Stores a `u64` with release ordering (an atomic release store — the
    /// fix the paper prescribes for racy fields, §7.2).
    pub fn store_release_u64(&mut self, addr: Addr, value: u64, label: Label) {
        self.store_u64(addr, value, Atomicity::ReleaseAcquire, label);
    }

    /// `memset(addr, value, len)` — lowered to non-atomic chunks.
    pub fn memset(&mut self, addr: Addr, value: u8, len: u64, label: Label) {
        self.shared.with_core(|core| {
            let Core { mem, sink, .. } = core;
            mem.exec_memset(sink.as_mut(), self.tid, addr, value, len, label);
        });
        self.shared.yield_now(self.tid);
    }

    /// `memcpy(addr, data)` — lowered to non-atomic chunks.
    pub fn memcpy(&mut self, addr: Addr, data: &[u8], label: Label) {
        self.shared.with_core(|core| {
            let Core { mem, sink, .. } = core;
            mem.exec_memcpy(sink.as_mut(), self.tid, addr, data, label);
        });
        self.shared.yield_now(self.tid);
    }

    // ------------------------------------------------------------------
    // Loads.
    // ------------------------------------------------------------------

    /// Loads `len` bytes, reporting any cross-execution (pre-crash) reads to
    /// the detector.
    pub fn load_bytes(&mut self, addr: Addr, len: u64, atomicity: Atomicity) -> Vec<u8> {
        self.load_bytes_labeled(addr, len, atomicity, "")
    }

    /// [`Ctx::load_bytes`] with an explicit site label.
    pub fn load_bytes_labeled(
        &mut self,
        addr: Addr,
        len: u64,
        atomicity: Atomicity,
        label: Label,
    ) -> Vec<u8> {
        self.load_with(addr, len, atomicity, label, <[u8]>::to_vec)
    }

    /// Performs a load, reports its pre-crash reads, and hands the bytes to
    /// `read` while they still sit in the memory system's reused load
    /// storage, so a fixed-width load builds no `Vec`.
    fn load_with<R>(
        &mut self,
        addr: Addr,
        len: u64,
        atomicity: Atomicity,
        label: Label,
        read: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let checksum = self.checksum_scope;
        let tid = self.tid;
        let value = self.shared.with_core(|core| {
            core.mem.exec_load(tid, addr, len, atomicity, label);
            core.mem.report_pre_exec_read(core.sink.as_mut(), |mem| {
                mem.load_info(tid, addr, len, atomicity, label, checksum)
            });
            read(core.mem.last_load().bytes)
        });
        self.shared.yield_now(self.tid);
        value
    }

    /// Loads a `u64`.
    pub fn load_u64(&mut self, addr: Addr, atomicity: Atomicity) -> u64 {
        self.load_with(addr, 8, atomicity, "", |b| {
            u64::from_le_bytes(b.try_into().expect("8"))
        })
    }

    /// Loads a `u32`.
    pub fn load_u32(&mut self, addr: Addr, atomicity: Atomicity) -> u32 {
        self.load_with(addr, 4, atomicity, "", |b| {
            u32::from_le_bytes(b.try_into().expect("4"))
        })
    }

    /// Loads a `u16`.
    pub fn load_u16(&mut self, addr: Addr, atomicity: Atomicity) -> u16 {
        self.load_with(addr, 2, atomicity, "", |b| {
            u16::from_le_bytes(b.try_into().expect("2"))
        })
    }

    /// Loads a `u8`.
    pub fn load_u8(&mut self, addr: Addr, atomicity: Atomicity) -> u8 {
        self.load_with(addr, 1, atomicity, "", |b| b[0])
    }

    /// Loads a `u64` with acquire ordering.
    pub fn load_acquire_u64(&mut self, addr: Addr) -> u64 {
        self.load_u64(addr, Atomicity::ReleaseAcquire)
    }

    /// Marks subsequent loads as (not) checksum-validation reads. Races
    /// observed by validated loads are reported as benign (§7.5).
    pub fn set_checksum_scope(&mut self, on: bool) {
        self.checksum_scope = on;
    }

    // ------------------------------------------------------------------
    // Flushes, fences, RMW.
    // ------------------------------------------------------------------

    /// `clflush` of the line containing `addr`. A crash point.
    pub fn clflush(&mut self, addr: Addr) {
        self.clflush_labeled(addr, "");
    }

    /// [`Ctx::clflush`] with an explicit site label for the coverage plane.
    pub fn clflush_labeled(&mut self, addr: Addr, label: Label) {
        self.shared.crash_point(self.tid);
        self.shared
            .with_core(|core| core.mem.exec_clflush(self.tid, addr, label));
        self.shared.yield_now(self.tid);
    }

    /// `clwb` of the line containing `addr`. A crash point.
    pub fn clwb(&mut self, addr: Addr) {
        self.clwb_labeled(addr, "");
    }

    /// [`Ctx::clwb`] with an explicit site label for the coverage plane.
    pub fn clwb_labeled(&mut self, addr: Addr, label: Label) {
        self.shared.crash_point(self.tid);
        self.shared
            .with_core(|core| core.mem.exec_clwb(self.tid, addr, label));
        self.shared.yield_now(self.tid);
    }

    /// `clflushopt`: semantically identical to [`Ctx::clwb`] (§2).
    pub fn clflushopt(&mut self, addr: Addr) {
        self.clwb_labeled(addr, "");
    }

    /// `sfence`. A crash point.
    pub fn sfence(&mut self) {
        self.sfence_labeled("");
    }

    /// [`Ctx::sfence`] with an explicit site label for the coverage plane.
    pub fn sfence_labeled(&mut self, label: Label) {
        self.shared.crash_point(self.tid);
        self.shared
            .with_core(|core| core.mem.exec_sfence(self.tid, label));
        self.shared.yield_now(self.tid);
    }

    /// `mfence`. A crash point.
    pub fn mfence(&mut self) {
        self.mfence_labeled("");
    }

    /// [`Ctx::mfence`] with an explicit site label for the coverage plane.
    pub fn mfence_labeled(&mut self, label: Label) {
        self.shared.crash_point(self.tid);
        self.shared.with_core(|core| {
            let Core { mem, sink, .. } = core;
            mem.exec_mfence(sink.as_mut(), self.tid, label);
        });
        self.shared.yield_now(self.tid);
    }

    /// Locked 64-bit compare-and-swap (a crash point, with `mfence`
    /// semantics). Returns `(old_value, swapped)`.
    pub fn cas_u64(&mut self, addr: Addr, expected: u64, new: u64, label: Label) -> (u64, bool) {
        self.shared.crash_point(self.tid);
        let checksum = self.checksum_scope;
        let tid = self.tid;
        let result = self.shared.with_core(|core| {
            let (old, swapped, _) =
                core.mem
                    .exec_cas(core.sink.as_mut(), tid, addr, expected, new, label);
            core.mem.report_pre_exec_read(core.sink.as_mut(), |mem| {
                mem.load_info(tid, addr, 8, Atomicity::ReleaseAcquire, label, checksum)
            });
            (old, swapped)
        });
        self.shared.yield_now(self.tid);
        result
    }

    /// Locked 64-bit fetch-and-add (a crash point, with `mfence` semantics
    /// like [`Ctx::cas_u64`]). Returns the previous value.
    pub fn fetch_add_u64(&mut self, addr: Addr, delta: u64, label: Label) -> u64 {
        loop {
            let (old, swapped) = {
                // Peek with an acquire load, then attempt the swap.
                let old = self.load_acquire_u64(addr);
                let (seen, ok) = self.cas_u64(addr, old, old.wrapping_add(delta), label);
                (if ok { old } else { seen }, ok)
            };
            if swapped {
                return old;
            }
        }
    }

    /// An explicit crash point, for directed tests that want a crash at a
    /// particular program location (e.g. between a store and its flush).
    pub fn crash_point(&mut self) {
        self.shared.crash_point(self.tid);
    }

    /// A pure scheduling point: lets other simulated threads run without
    /// performing a memory operation (polling loops in client/server
    /// drivers).
    pub fn sched_yield(&mut self) {
        self.shared.yield_now(self.tid);
    }

    // ------------------------------------------------------------------
    // Threads.
    // ------------------------------------------------------------------

    /// Spawns a simulated thread running `f`.
    pub fn spawn(&mut self, f: impl FnOnce(&mut Ctx) + Send + 'static) -> JoinHandle {
        let parent = self.tid;
        let tid = self.shared.with_core(|core| {
            let t = core.mem.register_thread(Some(parent));
            core.sched.register(t);
            t
        });
        spawn_task(self.shared.clone(), tid, f);
        JoinHandle { tid }
    }

    /// Waits for a spawned thread to finish (a synchronization edge).
    pub fn join(&mut self, handle: JoinHandle) {
        loop {
            let done = self
                .shared
                .with_core(|core| core.sched.is_finished(handle.tid));
            if done {
                self.shared
                    .with_core(|core| core.mem.join_thread(self.tid, handle.tid));
                return;
            }
            self.shared.yield_now(self.tid);
        }
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("thread", &self.tid).finish()
    }
}

thread_local! {
    /// Set while this thread runs simulated-task code (inside [`run_task`]).
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Runs simulated task `tid` on the calling thread: waits for the token,
/// runs `f`, records a non-crash panic as a post-crash symptom, and hands
/// the token on. The engine calls it inline for each phase's main task;
/// [`spawn_task`] hosts it on a new OS thread for [`Ctx::spawn`].
pub(crate) fn run_task(shared: &Arc<Shared>, tid: ThreadId, f: impl FnOnce(&mut Ctx)) {
    IN_TASK.set(true);
    let result = catch_unwind(AssertUnwindSafe(|| {
        shared.enter_task(tid);
        let mut ctx = Ctx::new(shared.clone(), tid);
        f(&mut ctx);
    }));
    IN_TASK.set(false);
    if let Err(payload) = result {
        if payload.downcast_ref::<CrashUnwind>().is_none() {
            let msg = panic_message(&*payload);
            shared.with_core(|core| core.panics.push(msg));
        }
    }
    shared.finish_task(tid);
}

/// Spawns the OS thread hosting a [`Ctx::spawn`] child, which runs
/// [`run_task`].
fn spawn_task(shared: Arc<Shared>, tid: ThreadId, f: impl FnOnce(&mut Ctx) + Send + 'static) {
    std::thread::Builder::new()
        .name(format!("jaaru-task-{}", tid.index()))
        .spawn(move || run_task(&shared, tid, f))
        .expect("spawn simulated task");
}

/// Installs (once) a panic hook that silences panics raised inside
/// simulated tasks — crash unwinds and injected-fault symptoms are expected
/// there and would otherwise flood stderr. Any other panic, on any thread,
/// reaches the previously installed hook.
pub(crate) fn install_quiet_panic_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_TASK.try_with(Cell::get).unwrap_or(false) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
