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

use parking_lot::MutexGuard;
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
///
/// While its thread holds the scheduling token, the handle also holds the
/// engine's state locked, so an operation takes no lock of its own; it
/// releases the lock only when a scheduling point hands the token to
/// another thread.
pub struct Ctx<'a> {
    shared: &'a Arc<Shared>,
    /// The locked core; `None` only while a handoff waits for the token.
    core: Option<MutexGuard<'a, Core>>,
    tid: ThreadId,
    checksum_scope: bool,
}

/// Handle to a spawned simulated thread, used with [`Ctx::join`].
#[derive(Debug)]
pub struct JoinHandle {
    tid: ThreadId,
}

impl Ctx<'_> {
    /// The core, which the running task holds locked.
    fn core(&mut self) -> &mut Core {
        self.core.as_mut().expect("the running task holds the core")
    }

    /// A scheduling point: keeps the core locked unless the token moves.
    fn yield_now(&mut self) {
        let core = self.core.take().expect("the running task holds the core");
        self.core = Some(self.shared.yield_now(self.tid, core));
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
        self.core()
            .mem
            .alloc(size, align)
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
        let tid = self.tid;
        let Core { mem, sink, .. } = self.core();
        mem.exec_store(sink.as_mut(), tid, addr, bytes, atomicity, label);
        self.yield_now();
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
        let tid = self.tid;
        let Core { mem, sink, .. } = self.core();
        mem.exec_memset(sink.as_mut(), tid, addr, value, len, label);
        self.yield_now();
    }

    /// `memcpy(addr, data)` — lowered to non-atomic chunks.
    pub fn memcpy(&mut self, addr: Addr, data: &[u8], label: Label) {
        let tid = self.tid;
        let Core { mem, sink, .. } = self.core();
        mem.exec_memcpy(sink.as_mut(), tid, addr, data, label);
        self.yield_now();
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
        let Core { mem, sink, .. } = self.core();
        mem.exec_load(tid, addr, len, atomicity, label);
        mem.report_pre_exec_read(sink.as_mut(), |mem| {
            mem.load_info(tid, addr, len, atomicity, label, checksum)
        });
        let value = read(mem.last_load().bytes);
        self.yield_now();
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
        let tid = self.tid;
        let core = self.core();
        core.crash_point(tid);
        core.mem.exec_clflush(tid, addr, label);
        self.yield_now();
    }

    /// `clwb` of the line containing `addr`. A crash point.
    pub fn clwb(&mut self, addr: Addr) {
        self.clwb_labeled(addr, "");
    }

    /// [`Ctx::clwb`] with an explicit site label for the coverage plane.
    pub fn clwb_labeled(&mut self, addr: Addr, label: Label) {
        let tid = self.tid;
        let core = self.core();
        core.crash_point(tid);
        core.mem.exec_clwb(tid, addr, label);
        self.yield_now();
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
        let tid = self.tid;
        let core = self.core();
        core.crash_point(tid);
        core.mem.exec_sfence(tid, label);
        self.yield_now();
    }

    /// `mfence`. A crash point.
    pub fn mfence(&mut self) {
        self.mfence_labeled("");
    }

    /// [`Ctx::mfence`] with an explicit site label for the coverage plane.
    pub fn mfence_labeled(&mut self, label: Label) {
        let tid = self.tid;
        let core = self.core();
        core.crash_point(tid);
        core.mem.exec_mfence(core.sink.as_mut(), tid, label);
        self.yield_now();
    }

    /// Locked 64-bit compare-and-swap (a crash point, with `mfence`
    /// semantics). Returns `(old_value, swapped)`.
    pub fn cas_u64(&mut self, addr: Addr, expected: u64, new: u64, label: Label) -> (u64, bool) {
        let checksum = self.checksum_scope;
        let tid = self.tid;
        let core = self.core();
        core.crash_point(tid);
        let Core { mem, sink, .. } = core;
        let (old, swapped, _) = mem.exec_cas(sink.as_mut(), tid, addr, expected, new, label);
        mem.report_pre_exec_read(sink.as_mut(), |mem| {
            mem.load_info(tid, addr, 8, Atomicity::ReleaseAcquire, label, checksum)
        });
        self.yield_now();
        (old, swapped)
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
        let tid = self.tid;
        self.core().crash_point(tid);
    }

    /// A pure scheduling point: lets other simulated threads run without
    /// performing a memory operation (polling loops in client/server
    /// drivers).
    pub fn sched_yield(&mut self) {
        self.yield_now();
    }

    // ------------------------------------------------------------------
    // Threads.
    // ------------------------------------------------------------------

    /// Spawns a simulated thread running `f`.
    pub fn spawn(&mut self, f: impl FnOnce(&mut Ctx) + Send + 'static) -> JoinHandle {
        let parent = self.tid;
        let shared = Arc::clone(self.shared);
        let core = self.core();
        let tid = core.mem.register_thread(Some(parent));
        core.sched.register(tid, spawn_task(shared, tid, f));
        JoinHandle { tid }
    }

    /// Waits for a spawned thread to finish (a synchronization edge).
    pub fn join(&mut self, handle: JoinHandle) {
        while !self.core().sched.is_finished(handle.tid) {
            self.yield_now();
        }
        let tid = self.tid;
        self.core().mem.join_thread(tid, handle.tid);
    }
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("thread", &self.tid).finish()
    }
}

thread_local! {
    /// Set while this thread runs simulated-task code (inside [`run_task`]).
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Runs simulated task `tid` on the calling thread: waits for the token
/// through `enter`, runs `f`, records a non-crash panic as a post-crash
/// symptom, and hands the token on. The engine calls it inline for each
/// phase's main task, entering with [`Shared::enter_task`]; [`spawn_task`]
/// hosts it on a new OS thread for [`Ctx::spawn`], entering with
/// [`Shared::enter_spawned`].
pub(crate) fn run_task(
    shared: &Arc<Shared>,
    tid: ThreadId,
    enter: fn(&Shared, ThreadId) -> MutexGuard<'_, Core>,
    f: impl FnOnce(&mut Ctx),
) {
    IN_TASK.set(true);
    // The task's `Ctx` holds the core locked from here on; it releases the
    // lock when dropped, also when a crash or a real panic unwinds it (the
    // lock does not poison).
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = Ctx {
            shared,
            core: Some(enter(shared, tid)),
            tid,
            checksum_scope: false,
        };
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
/// [`run_task`]; returns the thread, the child's wait slot.
fn spawn_task(
    shared: Arc<Shared>,
    tid: ThreadId,
    f: impl FnOnce(&mut Ctx) + Send + 'static,
) -> std::thread::Thread {
    std::thread::Builder::new()
        .name(format!("jaaru-task-{}", tid.index()))
        .spawn(move || run_task(&shared, tid, Shared::enter_spawned, f))
        .expect("spawn simulated task")
        .thread()
        .clone()
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
