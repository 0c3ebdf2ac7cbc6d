//! The simulated memory system's execution layer: store and flush
//! buffers, clocks and load resolution.
//!
//! This module implements the instruction side of §6: instruction
//! execution inserts entries into per-thread store buffers (Fig. 7), and
//! buffer eviction hands each committed store and each persistence-floor
//! raise to the persistence layer ([`crate::persist`]), which keeps each
//! line's committed-store log (Fig. 8) and the persistent image. A crash
//! discards the buffers and the volatile cache, and the persistence layer
//! materializes a per-line *prefix* of the committed stores.

use std::sync::Arc;
use std::time::Instant;

use compiler_model::{CompilerConfig, SourceWrite};
use obs::telemetry::{Count, Telemetry, WallPhase};
use pmem::{Addr, CacheLineId, CowCount, FastSet, Forkable, PmAllocator};
use px86::{Atomicity, FbEntry, FlushBuffer, SbEntry, SbStore, StoreBuffer};
use rand::rngs::StdRng;
use vclock::{ThreadId, VectorClock};

use obs::coverage::{SiteKind, SiteTable};

use crate::event::{EventId, ExecId, FlushEvent, FlushKind, Label, LoadInfo, StoreEvent};
use crate::id_table::IdTable;
use crate::persist::{LineLog, Persist, PersistencePolicy};
use crate::sink::EventSink;

/// Size of the root region at [`Addr::BASE`], reserved for well-known
/// pointers and metadata. The allocator arena starts after it, so a program
/// can stash its structure roots at fixed addresses that recovery code finds
/// again without re-allocating (the analogue of a PM pool's root object).
pub const ROOT_REGION_BYTES: u64 = 4096;

/// A flush or fence that has executed but not yet taken its persistent
/// effect, in [`MemState::pending`] under its event id. A crash drops every
/// one of them with the buffers that held them.
#[derive(Debug, Clone)]
enum Pending {
    /// A `clflush` until it commits, or a `clwb` until a fence drains it.
    /// A `clwb`'s `mark` is set when it leaves the store buffer: the line's
    /// committed-store count at that moment, its guaranteed write-back
    /// point.
    Flush {
        event: FlushEvent,
        mark: Option<usize>,
    },
    /// A buffered `sfence`: its execution-time clock vector (Fig. 8's
    /// `Evict_FB` takes the *fence's* CV, which must be captured when the
    /// sfence executes, not when it drains) and its static site label, so
    /// the coverage plane can classify the fence (draining vs empty) when
    /// it commits. Kept outside `px86::SbEntry`, which stays label-free.
    Fence { cv: VectorClock, label: Label },
}

/// The complete simulated memory system for one engine run.
pub struct MemState {
    /// Compiler model used to lower source-level stores.
    pub compiler: CompilerConfig,
    /// What persists: store events, line records, the image and GC.
    persist: Persist,
    /// Flushes and fences still in flight, by event id.
    pending: IdTable<Pending>,
    next_event: EventId,
    // Per-thread machine state (indexed by ThreadId).
    sbs: Vec<StoreBuffer>,
    fbs: Vec<FlushBuffer>,
    cvs: Vec<VectorClock>,
    /// Current execution's id.
    exec: ExecId,
    /// Load resolution's storage, reused across loads; holds the last
    /// load's outcome. Made by the first load: every crash-point snapshot
    /// is a `MemState` that never loads, and must not carry it.
    load: Option<Box<LoadScratch>>,
    /// Scratch for [`MemState::evictable`]: the positions it returns and
    /// the lines `StoreBuffer::evictable_into` tracks.
    evict_scratch: (Vec<usize>, Vec<CacheLineId>),
    /// Scratch for a fence's flush-buffer drain, reused across fences.
    fb_scratch: Vec<FbEntry>,
    /// The persistent-heap allocator (survives crashes; see crate docs).
    pub alloc: PmAllocator,
    /// Operation counters.
    pub stats: ExecStats,
    /// Coverage plane: per-site counters and the persisted-line heatmap.
    /// Accumulates alongside `stats` and follows the same fork / absorb /
    /// prune-attribution flow; never feeds back into `fp` or the detector.
    pub cov: SiteTable,
    /// Rolling crash-state fingerprint: a hash over every event so far that
    /// changes what a crash at this instant would leave behind (committed
    /// stores, persistence-floor raises, thread registrations, allocations,
    /// crashes). Events that cannot affect the materialized crash state —
    /// loads, redundant re-flushes of already-persisted lines, `clwb`s whose
    /// marks die with the buffers — deliberately leave it unchanged, which
    /// is what makes adjacent crash points with identical persisted images
    /// fingerprint-equal (the engine's equivalence pruning).
    fp: pmem::Fp64,
    /// Wall-clock telemetry plane handle (`None` = off, the default).
    /// Strictly write-only: the memory system publishes event counts and
    /// GC pass timings into it but never reads anything back, so telemetry
    /// cannot influence any simulated outcome.
    tel: Option<Arc<Telemetry>>,
    /// Events already published to `tel` (publishing is batched so the hot
    /// path pays one branch, not an atomic per event).
    tel_published: u64,
}

impl Forkable for MemState {
    /// Captures this memory system for later resumption.
    ///
    /// The persistence layer's line records, the buffer queues and the id
    /// index of the pending flush and fence table are shared copy-on-write:
    /// this memory system's owned storage becomes shared, so its next
    /// write to a captured record copies it instead of changing the
    /// snapshot. Per-event records and vector clocks are cloned outright
    /// (they grow with the live events, not with the bytes of simulated
    /// PM); the scratch buffers start empty. Copy counts and GC work
    /// counters start at zero: the prefix's work is the capturing run's.
    fn fork(&mut self) -> Self {
        MemState {
            compiler: self.compiler,
            persist: self.persist.fork(),
            pending: self.pending.fork(),
            next_event: self.next_event,
            sbs: self.sbs.iter_mut().map(Forkable::fork).collect(),
            fbs: self.fbs.iter_mut().map(Forkable::fork).collect(),
            cvs: self.cvs.clone(),
            exec: self.exec,
            load: None,
            evict_scratch: Default::default(),
            fb_scratch: Vec::new(),
            alloc: self.alloc.clone(),
            stats: self.stats,
            cov: self.cov.clone(),
            fp: self.fp,
            tel: self.tel.clone(),
            // The fork starts its publish watermark at the prefix's event
            // count: a resumed suffix publishes only the events it actually
            // executes, never the inherited prefix (which the profiling run
            // publishes exactly once).
            tel_published: self.stats.events(),
        }
    }
}

impl std::fmt::Debug for MemState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemState")
            .field("exec", &self.exec)
            .field("events", &self.persist.gc_stats().live_events)
            .field("threads", &self.cvs.len())
            .finish()
    }
}

obs::counter_block! {
    /// Counters of simulated operations, for observability and tests. The
    /// `ops.*` counters are the simulated events ([`ExecStats::events`]);
    /// the `load.*` counters break down load resolution.
    pub struct ExecStats {
        /// Instruction-level store events created (post-lowering chunks).
        stores_executed: sum "ops.stores_executed",
        /// Store events that took effect on the cache.
        stores_committed: sum "ops.stores_committed",
        /// Loads performed.
        loads: sum "ops.loads",
        /// `clflush`/`clwb` instructions executed.
        flushes: sum "ops.flushes",
        /// `sfence`/`mfence` instructions executed.
        fences: sum "ops.fences",
        /// Locked CAS operations executed.
        cas_ops: sum "ops.cas",
        /// Crashes (each starts a new execution).
        crashes: sum "ops.crashes",
        /// Load bytes served by store-buffer bypass.
        bytes_from_bypass: sum "load.bytes_from_bypass",
        /// Load bytes served by the current execution's cache.
        bytes_from_cache: sum "load.bytes_from_cache",
        /// Load bytes served by the persistent image.
        bytes_from_image: sum "load.bytes_from_image",
        /// Prior-execution candidate stores scanned during load resolution.
        candidate_stores_scanned: sum "load.candidate_stores_scanned",
    }
}

impl ExecStats {
    /// Total simulated events (instructions plus commits): the sum of the
    /// `ops.*` counters — the work measure used to compare fork mode
    /// against full replay.
    #[inline]
    pub fn events(&self) -> u64 {
        self.counters()
            .into_iter()
            .filter(|(_, metric, _)| metric.starts_with("ops."))
            .map(|(_, _, n)| n)
            .sum()
    }
}

/// The outcome of a load: the bytes read plus the cross-execution reads that
/// must be reported to the sink. It borrows the memory system's reused load
/// storage, so it lasts until the next load.
#[derive(Debug, Clone, Copy)]
pub struct LoadOutcome<'a> {
    /// The bytes observed.
    pub bytes: &'a [u8],
    /// Distinct prior-execution stores whose bytes were observed.
    pub chosen: &'a [EventId],
    /// All candidate prior-execution stores the load could have observed.
    pub candidates: &'a [EventId],
}

/// Load resolution's storage: every load clears and refills it, so a load
/// allocates only when one of its lists outgrows every earlier load's.
#[derive(Debug, Default)]
struct LoadScratch {
    /// The buffered store serving each loaded byte, if any.
    bypass: Vec<Option<EventId>>,
    /// The bytes read.
    bytes: Vec<u8>,
    /// Same-execution stores read (bypass and cache). Only acquire loads
    /// collect them: the acquire join is their only reader.
    sources: OrderedIdSet,
    /// Prior-execution stores read through the persistent image.
    chosen: OrderedIdSet,
    /// `chosen` plus every unpersisted store of the most recent crashed
    /// execution that overlaps the load.
    candidates: OrderedIdSet,
    /// Lines with at least one byte served by the image.
    image_lines: Vec<CacheLineId>,
}

impl MemState {
    /// Creates a fresh memory system with `heap_bytes` of persistent arena.
    pub fn new(compiler: CompilerConfig, heap_bytes: u64) -> Self {
        MemState {
            compiler,
            persist: Persist::default(),
            pending: IdTable::default(),
            next_event: 1,
            sbs: Vec::new(),
            fbs: Vec::new(),
            cvs: Vec::new(),
            exec: 0,
            load: None,
            evict_scratch: Default::default(),
            fb_scratch: Vec::new(),
            alloc: PmAllocator::new(Addr::BASE + ROOT_REGION_BYTES, heap_bytes),
            stats: ExecStats::default(),
            cov: SiteTable::default(),
            fp: pmem::Fp64::new(),
            tel: None,
            tel_published: 0,
        }
    }

    /// Attaches the wall-clock telemetry plane. The memory system publishes
    /// batched event counts, the live-slot gauge, and GC pass wall timings
    /// into it; see the field docs for why this cannot perturb the run.
    pub fn set_telemetry(&mut self, tel: Arc<Telemetry>) {
        self.tel_published = self.stats.events();
        self.tel = Some(tel);
    }

    /// The attached telemetry handle, if any (the scheduler uses this to
    /// time snapshot capture).
    pub(crate) fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.tel.clone()
    }

    /// Publishes accumulated events to the telemetry plane once enough have
    /// built up since the last publish. One branch when telemetry is off.
    fn tel_tick(&mut self) {
        const BATCH: u64 = 4096;
        if self.tel.is_some() && self.stats.events().wrapping_sub(self.tel_published) >= BATCH {
            self.tel_flush();
        }
    }

    /// Publishes any remaining unpublished events (run end, crash
    /// boundaries) so the telemetry totals match the executed work exactly.
    pub(crate) fn tel_flush(&mut self) {
        if let Some(tel) = &self.tel {
            let now = self.stats.events();
            tel.add(Count::Events, now - self.tel_published);
            tel.set(Count::LiveSlots, self.persist.gc_stats().live_events);
            self.tel_published = now;
        }
    }

    /// Switches this memory system into streaming mode: store events whose
    /// persistence is fully decided are retired by a mark-sweep pass every
    /// `every` committed stores, and the already-persisted prefix of each
    /// line's committed-store log is drained into the persistent image as
    /// the persistence floor rises. Observable behavior — load values,
    /// reported races, crash-state fingerprints, RNG consumption — is
    /// byte-identical with GC on or off; only memory residency changes.
    ///
    /// # Panics
    ///
    /// Panics if any event has already executed: streaming mode covers a
    /// whole run.
    pub fn enable_gc(&mut self, every: u64) {
        assert!(self.next_event == 1, "enable_gc before any events");
        self.persist.enable_gc(every);
    }

    /// Whether streaming GC is on.
    pub fn gc_enabled(&self) -> bool {
        self.persist.gc_enabled()
    }

    /// Retirement counters plus current live/peak event-table gauges.
    pub fn gc_stats(&self) -> crate::report::GcStats {
        self.persist.gc_stats()
    }

    /// The current rolling crash-state fingerprint (see the field docs).
    pub fn fingerprint(&self) -> u64 {
        self.fp.value()
    }

    /// The current execution's id: the number of crashes so far.
    pub fn exec_id(&self) -> ExecId {
        self.exec
    }

    /// Number of threads ever registered (across executions).
    pub fn thread_count(&self) -> usize {
        self.cvs.len()
    }

    /// Total copy-on-write clone traffic across every COW container held by
    /// this memory system: `(clones, bytes copied)`.
    pub fn cow_stats(&self) -> (u64, u64) {
        let total: CowCount = std::iter::once(self.persist.cow())
            .chain(self.sbs.iter().map(StoreBuffer::cow))
            .chain(self.fbs.iter().map(FlushBuffer::cow))
            .sum();
        (total.clones, total.bytes)
    }

    /// Allocates from the persistent arena, folding the allocation into the
    /// crash-state fingerprint: allocator state survives crashes, so an
    /// allocation between two crash points makes their suffixes diverge.
    pub fn alloc(&mut self, size: u64, align: u64) -> Result<Addr, pmem::AllocError> {
        self.fp.absorb(6);
        self.fp.absorb(size);
        self.fp.absorb(align);
        self.alloc.alloc(size, align)
    }

    /// Registers a new thread; `parent` (if any) synchronizes-with the child.
    pub fn register_thread(&mut self, parent: Option<ThreadId>) -> ThreadId {
        let tid = ThreadId::new(self.cvs.len() as u32);
        // Registration allocates machine state (buffers, clock slot) whose
        // *count* post-crash phases observe via fresh thread-id assignment.
        self.fp.absorb(4);
        self.fp.absorb(tid.as_usize() as u64);
        let mut cv = match parent {
            Some(p) => {
                self.cvs[p.as_usize()].tick(p);
                self.cvs[p.as_usize()].clone()
            }
            None => VectorClock::new(),
        };
        cv.tick(tid);
        self.cvs.push(cv);
        self.sbs.push(StoreBuffer::new());
        self.fbs.push(FlushBuffer::new());
        tid
    }

    /// Join edge: `parent` acquires everything `child` did.
    pub fn join_thread(&mut self, parent: ThreadId, child: ThreadId) {
        let child_cv = self.cvs[child.as_usize()].clone();
        let pcv = &mut self.cvs[parent.as_usize()];
        pcv.join(&child_cv);
        pcv.tick(parent);
    }

    /// The current vector clock of `thread`.
    pub fn cv(&self, thread: ThreadId) -> &VectorClock {
        &self.cvs[thread.as_usize()]
    }

    /// Looks up a store event.
    pub fn store_event(&self, id: EventId) -> &StoreEvent {
        self.persist.event(id)
    }

    fn fresh_event_id(&mut self) -> EventId {
        let id = self.next_event;
        self.next_event += 1;
        id
    }

    // ------------------------------------------------------------------
    // Instruction execution (Fig. 7): insert into the store buffer.
    // ------------------------------------------------------------------

    /// Executes a source-level store: lowers it through the compiler model
    /// and inserts the resulting instruction-level chunks into the thread's
    /// store buffer.
    pub fn exec_store(
        &mut self,
        sink: &mut dyn EventSink,
        thread: ThreadId,
        addr: Addr,
        bytes: &[u8],
        atomicity: Atomicity,
        label: Label,
    ) {
        self.push_lowered(
            sink,
            thread,
            addr,
            SourceWrite::Store(bytes, atomicity),
            label,
        );
    }

    /// Executes a `memset`: lowered to non-atomic word chunks.
    pub fn exec_memset(
        &mut self,
        sink: &mut dyn EventSink,
        thread: ThreadId,
        addr: Addr,
        value: u8,
        len: u64,
        label: Label,
    ) {
        self.push_lowered(sink, thread, addr, SourceWrite::Memset(value, len), label);
    }

    /// Executes a `memcpy`: lowered to non-atomic word chunks.
    pub fn exec_memcpy(
        &mut self,
        sink: &mut dyn EventSink,
        thread: ThreadId,
        addr: Addr,
        data: &[u8],
        label: Label,
    ) {
        self.push_lowered(sink, thread, addr, SourceWrite::Memcpy(data), label);
    }

    /// Pushes every chunk the compiler lowers `write` into, as the lowering
    /// yields them: no chunk list is built.
    fn push_lowered(
        &mut self,
        sink: &mut dyn EventSink,
        thread: ThreadId,
        addr: Addr,
        write: SourceWrite<'_>,
        label: Label,
    ) {
        let atomicity = write.atomicity();
        for c in self.compiler.lower(addr, write) {
            self.push_store_chunks(sink, thread, c.addr, &c.bytes, atomicity, c.invented, label);
        }
    }

    /// Pushes one lowered chunk, splitting it at cache-line boundaries so
    /// each store event lies on a single line.
    #[allow(clippy::too_many_arguments)]
    fn push_store_chunks(
        &mut self,
        sink: &mut dyn EventSink,
        thread: ThreadId,
        addr: Addr,
        bytes: &[u8],
        atomicity: Atomicity,
        invented: bool,
        label: Label,
    ) {
        let mut off = 0usize;
        while off < bytes.len() {
            let at = addr + off as u64;
            let line_end = (at.cache_line().base() + pmem::CACHE_LINE_SIZE) - at;
            let take = (bytes.len() - off).min(line_end as usize);
            let clock = self.cvs[thread.as_usize()].tick(thread);
            let id = self.fresh_event_id();
            let event = StoreEvent {
                id,
                exec: self.exec,
                thread,
                cv: self.cvs[thread.as_usize()].clone(),
                clock,
                atomicity,
                addr: at,
                bytes: bytes[off..off + take].into(),
                invented,
                label,
            };
            self.stats.stores_executed += 1;
            self.cov.record(SiteKind::Store, label).executed += 1;
            sink.on_store_executed(&event);
            self.persist.insert(event);
            self.sbs[thread.as_usize()].push(SbEntry::Store(SbStore {
                addr: at,
                len: take as u64,
                id,
            }));
            off += take;
        }
    }

    /// Executes a `clflush` (enters the store buffer).
    pub fn exec_clflush(&mut self, thread: ThreadId, addr: Addr, label: Label) {
        self.push_flush(thread, addr, FlushKind::Clflush, label);
    }

    /// Executes a `clwb`/`clflushopt` (enters the store buffer).
    pub fn exec_clwb(&mut self, thread: ThreadId, addr: Addr, label: Label) {
        self.push_flush(thread, addr, FlushKind::Clwb, label);
    }

    fn push_flush(&mut self, thread: ThreadId, addr: Addr, kind: FlushKind, label: Label) {
        self.stats.flushes += 1;
        self.cov.record(SiteKind::Flush, label).executed += 1;
        let clock = self.cvs[thread.as_usize()].tick(thread);
        let id = self.fresh_event_id();
        let (exec, cvs) = (self.exec, &self.cvs);
        self.pending.insert_with(id, || Pending::Flush {
            event: FlushEvent {
                id,
                exec,
                thread,
                cv: cvs[thread.as_usize()].clone(),
                clock,
                kind,
                addr,
                label,
            },
            mark: None,
        });
        self.sbs[thread.as_usize()].push(match kind {
            FlushKind::Clflush => SbEntry::Clflush { addr, id },
            FlushKind::Clwb => SbEntry::Clwb { addr, id },
        });
    }

    /// Executes an `sfence` (enters the store buffer).
    pub fn exec_sfence(&mut self, thread: ThreadId, label: Label) {
        self.stats.fences += 1;
        self.cov.record(SiteKind::Fence, label).executed += 1;
        self.cvs[thread.as_usize()].tick(thread);
        let id = self.fresh_event_id();
        let cvs = &self.cvs;
        self.pending.insert_with(id, || Pending::Fence {
            cv: cvs[thread.as_usize()].clone(),
            label,
        });
        self.sbs[thread.as_usize()].push(SbEntry::Sfence { id });
    }

    /// Executes an `mfence`: drains the thread's store buffer in order, then
    /// makes the flush buffer persistent (Fig. 7's `Exec_MFENCE`).
    pub fn exec_mfence(&mut self, sink: &mut dyn EventSink, thread: ThreadId, label: Label) {
        self.stats.fences += 1;
        self.cov.record(SiteKind::Fence, label).executed += 1;
        self.cvs[thread.as_usize()].tick(thread);
        self.drain_sb(sink, thread);
        let fence_cv = self.cvs[thread.as_usize()].clone();
        let drained = self.fence_fb(sink, thread, &fence_cv);
        self.count_fence(label, drained);
    }

    /// Coverage: a fence drains if it retired at least one flush-buffer
    /// entry, and is empty otherwise.
    fn count_fence(&mut self, label: Label, drained: usize) {
        let s = self.cov.record(SiteKind::Fence, label);
        if drained > 0 {
            s.draining += 1;
        } else {
            s.empty += 1;
        }
    }

    // ------------------------------------------------------------------
    // Buffer eviction (Fig. 8): take effect on the cache.
    // ------------------------------------------------------------------

    /// Positions in `thread`'s store buffer that may legally evict next, in
    /// ascending order; valid until the next call.
    pub fn evictable(&mut self, thread: ThreadId) -> &[usize] {
        let (positions, lines) = &mut self.evict_scratch;
        self.sbs[thread.as_usize()].evictable_into(positions, lines);
        positions
    }

    /// Number of entries buffered by `thread`.
    pub fn sb_len(&self, thread: ThreadId) -> usize {
        self.sbs[thread.as_usize()].len()
    }

    /// Evicts the entry at `position` of `thread`'s store buffer and applies
    /// its effect on the cache.
    pub fn evict_one(&mut self, sink: &mut dyn EventSink, thread: ThreadId, position: usize) {
        let entry = self.sbs[thread.as_usize()].evict(position);
        self.commit_entry(sink, thread, entry);
    }

    /// Drains `thread`'s store buffer in program order.
    pub fn drain_sb(&mut self, sink: &mut dyn EventSink, thread: ThreadId) {
        while let Some(entry) = self.sbs[thread.as_usize()].evict_head() {
            self.commit_entry(sink, thread, entry);
        }
    }

    /// Drains every thread's store buffer (used before deterministic crash
    /// injection so recently executed stores are committed-but-unflushed).
    pub fn drain_all_sbs(&mut self, sink: &mut dyn EventSink) {
        for i in 0..self.sbs.len() {
            self.drain_sb(sink, ThreadId::new(i as u32));
        }
    }

    fn commit_entry(&mut self, sink: &mut dyn EventSink, thread: ThreadId, entry: SbEntry) {
        match entry {
            SbEntry::Store(s) => {
                let event = self.persist.commit(s.id);
                debug_assert_eq!(event.len(), s.len);
                self.stats.stores_committed += 1;
                self.cov.record(SiteKind::Store, event.label).committed += 1;
                // A committed store always changes the crash state (it joins
                // the line's persistable prefix).
                self.fp.absorb(1);
                self.fp.absorb(s.addr.cache_line().0);
                self.fp.absorb(s.id);
                sink.on_store_committed(event);
                if self.persist.gc_due() {
                    self.run_gc(sink);
                }
                self.tel_tick();
            }
            SbEntry::Clflush { addr, id } => {
                let line = addr.cache_line();
                // The flush event is read exactly once (here), so its
                // record can be dropped regardless of GC mode.
                let Some(Pending::Flush { event: flush, .. }) = self.pending.remove(id) else {
                    panic!("a committed clflush has its flush record");
                };
                let committed = self.committed_len(line);
                self.persist_floor(line, committed, 2, flush.label);
                self.persist
                    .with_line_stores(line, |stores| sink.on_clflush_committed(&flush, stores));
            }
            SbEntry::Clwb { addr, id } => {
                let committed = self.committed_len(addr.cache_line());
                let Some(Pending::Flush { mark, .. }) = self.pending.get_mut(id) else {
                    panic!("an evicted clwb has its flush record");
                };
                *mark = Some(committed);
                self.fbs[thread.as_usize()].push(FbEntry { addr, id });
            }
            SbEntry::Sfence { id } => {
                let Some(Pending::Fence {
                    cv: fence_cv,
                    label,
                }) = self.pending.remove(id)
                else {
                    panic!("a committed sfence has its fence record");
                };
                let drained = self.fence_fb(sink, thread, &fence_cv);
                self.count_fence(label, drained);
            }
        }
    }

    /// Makes every pending `clwb` of `thread` persistent: `Evict_FB`.
    /// Returns the number of flush-buffer entries retired, so the fence
    /// that triggered the drain can be classified draining vs empty.
    fn fence_fb(
        &mut self,
        sink: &mut dyn EventSink,
        thread: ThreadId,
        fence_cv: &VectorClock,
    ) -> usize {
        let mut entries = std::mem::take(&mut self.fb_scratch);
        self.fbs[thread.as_usize()].drain_into(&mut entries);
        for fb in &entries {
            let line = fb.addr.cache_line();
            // A clwb fences exactly once; its record dies here.
            let Some(Pending::Flush {
                event: clwb,
                mark: Some(mark),
            }) = self.pending.remove(fb.id)
            else {
                panic!("buffered clwb has a mark");
            };
            self.persist_floor(line, mark, 3, clwb.label);
            self.persist
                .with_line_stores(line, |stores| sink.on_clwb_fenced(&clwb, fence_cv, stores));
        }
        let drained = entries.len();
        entries.clear();
        self.fb_scratch = entries;
        drained
    }

    /// Persists `line`'s committed-store log up to `upto` for a committed
    /// `clflush` (fingerprint `tag` 2) or a fenced `clwb` (tag 3), flushed
    /// at site `label`.
    ///
    /// Only a flush that actually raises the persistence floor changes the
    /// crash state; re-flushing an already-persisted line is a no-op for
    /// every persistence policy (and the detector's `record_flush`
    /// suppresses the duplicate record on its side), so it must not split
    /// equivalence classes. Coverage credits each store the raise
    /// persisted, classifies the flush site as effective (the floor rose)
    /// or redundant, and heats the line.
    #[inline]
    fn persist_floor(&mut self, line: CacheLineId, upto: usize, tag: u64, label: Label) {
        let prev = self.persist.raise_floor(line, upto, |store| {
            self.cov.record(SiteKind::Store, store.label).persisted += 1;
        });
        if upto > prev {
            self.fp.absorb(tag);
            self.fp.absorb(line.0);
            self.fp.absorb(upto as u64);
            self.cov.record(SiteKind::Flush, label).effective += 1;
            self.cov.touch_line(line.base().0);
        } else {
            self.cov.record(SiteKind::Flush, label).redundant += 1;
        }
    }

    /// Logical length of `line`'s committed-store log (0 if never written).
    fn committed_len(&self, line: CacheLineId) -> usize {
        self.persist.log(line).map_or(0, LineLog::logical_len)
    }

    /// Runs a mark-sweep retirement pass with every store still in a store
    /// buffer as an extra root, timed on the telemetry plane (write-only;
    /// the pass itself is oblivious to whether it is being timed).
    fn run_gc(&mut self, sink: &mut dyn EventSink) {
        let t0 = self.tel.is_some().then(Instant::now);
        let buffered = self
            .sbs
            .iter()
            .flat_map(StoreBuffer::iter)
            .filter_map(|e| match e {
                SbEntry::Store(s) => Some(s.id),
                _ => None,
            });
        self.persist.collect(sink, buffered);
        if let (Some(tel), Some(t0)) = (&self.tel, t0) {
            tel.add_phase(WallPhase::GcPass, t0.elapsed());
            tel.set(Count::LiveSlots, self.persist.gc_stats().live_events);
        }
    }

    // ------------------------------------------------------------------
    // Loads.
    // ------------------------------------------------------------------

    /// Performs a load of `len` bytes at `addr`, resolving the range as
    /// maximal byte *segments* served by the same source: (1) the thread's
    /// store buffer (TSO bypassing), (2) the current execution's cache, and
    /// (3) the persistent image left by earlier executions. Each touched
    /// cache line is looked up once in the current execution's lines and
    /// once in the image; segment bytes are copied with
    /// `extend_from_slice` rather than per-byte map probes. Cross-execution
    /// reads are collected into the outcome for the caller to report to the
    /// sink; acquire synchronization is applied here. The outcome lives in
    /// storage reused by the next load (see [`MemState::last_load`]).
    pub fn exec_load(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        len: u64,
        atomicity: Atomicity,
        label: Label,
    ) -> LoadOutcome<'_> {
        self.stats.loads += 1;
        self.cov.record(SiteKind::Load, label).executed += 1;
        self.cvs[thread.as_usize()].tick(thread);
        let acquire = atomicity.is_acquire();
        let mut s = self.load.take().unwrap_or_default();
        s.bytes.clear();
        s.sources.clear();
        s.chosen.clear();
        s.image_lines.clear();
        self.sbs[thread.as_usize()].bypass_bytes_into(addr, len, &mut s.bypass);
        let mut off = 0u64;
        while off < len {
            // One line-sized chunk: every per-line structure is resolved
            // with a single lookup here, and the byte walk below touches
            // only dense slabs.
            let at = addr + off;
            let line = at.cache_line();
            let base = at.line_offset() as usize;
            let take = ((pmem::CACHE_LINE_SIZE - at.line_offset()).min(len - off)) as usize;
            let cache = self.persist.line(line);
            let cache_prov = cache.map(|l| &l.prov);
            let cache_data = cache.map(|l| &l.bytes);
            let img = self.persist.image_line(line);
            let img_data = img.map(|l| &l.bytes);
            let img_prov = img.map(|l| &l.prov);
            let chunk_bypass = &s.bypass[off as usize..off as usize + take];
            let cached = |k: usize| cache_prov.is_some_and(|p| p[base + k] != 0);
            let mut touched_image = false;
            let mut i = 0usize;
            while i < take {
                let mut j = i + 1;
                if let Some(id) = chunk_bypass[i] {
                    // Bypass segment: consecutive bytes from one buffered
                    // store, copied straight out of its event bytes.
                    while j < take && chunk_bypass[j] == Some(id) {
                        j += 1;
                    }
                    let ev = self.persist.event(id);
                    let start = ((at + i as u64) - ev.addr) as usize;
                    s.bytes.extend_from_slice(&ev.bytes[start..start + (j - i)]);
                    if acquire {
                        s.sources.insert(id);
                    }
                    self.stats.bytes_from_bypass += (j - i) as u64;
                } else if cached(i) {
                    // Cache segment: committed bytes of the current
                    // execution, possibly from several distinct stores.
                    while j < take && chunk_bypass[j].is_none() && cached(j) {
                        j += 1;
                    }
                    let data = cache_data.expect("committed line has cache bytes");
                    s.bytes.extend_from_slice(&data[base + i..base + j]);
                    if acquire {
                        let prov = cache_prov.expect("cached() checked the slab");
                        // Consecutive bytes usually come from one store;
                        // only id transitions need the dedup structure.
                        let mut last = 0;
                        for &id in &prov[base + i..base + j] {
                            if id != last {
                                s.sources.insert(id);
                                last = id;
                            }
                        }
                    }
                    self.stats.bytes_from_cache += (j - i) as u64;
                } else {
                    // Image segment: bytes persisted by earlier executions
                    // (zero where never written).
                    while j < take && chunk_bypass[j].is_none() && !cached(j) {
                        j += 1;
                    }
                    match img_data {
                        Some(data) => s.bytes.extend_from_slice(&data[base + i..base + j]),
                        None => s.bytes.resize(s.bytes.len() + (j - i), 0),
                    }
                    if let Some(prov) = img_prov {
                        let mut last = 0;
                        for &id in &prov[base + i..base + j] {
                            if id != 0 && id != last {
                                s.chosen.insert(id);
                                last = id;
                            }
                        }
                    }
                    touched_image = true;
                    self.stats.bytes_from_image += (j - i) as u64;
                }
                i = j;
            }
            if touched_image {
                s.image_lines.push(line);
            }
            off += take as u64;
        }
        // Acquire synchronization from release stores actually read. The
        // event table and the clock vectors are disjoint fields, so the
        // joins need no clock clones.
        if acquire {
            let cv = &mut self.cvs[thread.as_usize()];
            for &id in s.sources.items.iter().chain(&s.chosen.items) {
                let ev = self.persist.event(id);
                if ev.atomicity.is_release() {
                    cv.join(&ev.cv);
                }
            }
        }
        // Candidate stores: everything in the most recent crashed
        // execution's not-definitely-persisted suffix of each touched line
        // that covers a loaded byte, plus the stores actually observed.
        s.candidates.copy_from(&s.chosen);
        for line in &s.image_lines {
            for &id in self.persist.prev_unpersisted(*line) {
                self.stats.candidate_stores_scanned += 1;
                let ev = self.persist.event(id);
                if ranges_overlap(ev.addr, ev.len(), addr, len) {
                    s.candidates.insert(id);
                }
            }
        }
        // Coverage: a load site that resolved at least one byte through a
        // recovered image store observed pre-crash state — the scenario
        // class persistency races live in.
        if !s.chosen.items.is_empty() {
            self.cov.record(SiteKind::Load, label).pre_crash += 1;
        }
        self.load = Some(s);
        self.last_load()
    }

    /// The outcome of the most recent load (or CAS), still held in the
    /// load storage.
    pub fn last_load(&self) -> LoadOutcome<'_> {
        match &self.load {
            Some(s) => LoadOutcome {
                bytes: &s.bytes,
                chosen: &s.chosen.items,
                candidates: &s.candidates.items,
            },
            None => LoadOutcome {
                bytes: &[],
                chosen: &[],
                candidates: &[],
            },
        }
    }

    /// Reports the pre-crash stores the last load read (`chosen`) and could
    /// have read (`candidates`) to `sink`; `info` describes the load and is
    /// built only when there is something to report.
    pub(crate) fn report_pre_exec_read(
        &self,
        sink: &mut dyn EventSink,
        info: impl FnOnce(&Self) -> LoadInfo,
    ) {
        let out = self.last_load();
        if out.chosen.is_empty() && out.candidates.is_empty() {
            return;
        }
        let info = info(self);
        self.persist.with_store_refs(out.chosen, |chosen| {
            self.persist.with_store_refs(out.candidates, |candidates| {
                sink.on_pre_exec_read(&info, chosen, candidates)
            })
        });
    }

    /// Builds the [`LoadInfo`] describing a load for sink reporting.
    pub fn load_info(
        &self,
        thread: ThreadId,
        addr: Addr,
        len: u64,
        atomicity: Atomicity,
        label: Label,
        validated: bool,
    ) -> LoadInfo {
        LoadInfo {
            exec: self.exec,
            thread,
            addr,
            len,
            atomicity,
            label,
            validated,
        }
    }

    /// Executes a locked compare-and-swap on a 64-bit location.
    ///
    /// Locked RMW instructions have `mfence` semantics (§2): the thread's
    /// store buffer is drained and its flush buffer fenced before the
    /// operation, and the conditional store takes effect on the cache
    /// immediately. Returns the observed old value, whether the swap
    /// happened, and the load outcome for sink reporting.
    pub fn exec_cas(
        &mut self,
        sink: &mut dyn EventSink,
        thread: ThreadId,
        addr: Addr,
        expected: u64,
        new: u64,
        label: Label,
    ) -> (u64, bool, LoadOutcome<'_>) {
        self.stats.cas_ops += 1;
        self.cvs[thread.as_usize()].tick(thread);
        self.drain_sb(sink, thread);
        let fence_cv = self.cvs[thread.as_usize()].clone();
        self.fence_fb(sink, thread, &fence_cv);
        let loaded = self.exec_load(thread, addr, 8, Atomicity::ReleaseAcquire, label);
        let old = u64::from_le_bytes(loaded.bytes.try_into().expect("8 bytes"));
        let swapped = old == expected;
        if swapped {
            self.push_store_chunks(
                sink,
                thread,
                addr,
                &new.to_le_bytes(),
                Atomicity::ReleaseAcquire,
                false,
                label,
            );
            self.drain_sb(sink, thread);
        }
        (old, swapped, self.last_load())
    }

    // ------------------------------------------------------------------
    // Crash.
    // ------------------------------------------------------------------

    /// Crashes the current execution: store and flush buffers are lost, and
    /// for each cache line a prefix of its committed stores (at least the
    /// definitely-persisted floor, at most everything) is written to the
    /// persistent image per `policy`. Starts a fresh execution.
    pub fn crash(&mut self, policy: PersistencePolicy, rng: &mut StdRng) {
        self.stats.crashes += 1;
        for sb in &mut self.sbs {
            sb.clear();
        }
        for fb in &mut self.fbs {
            fb.clear();
        }
        // Flush events never outlive the buffers that referenced them.
        let flushes = self.pending.values();
        let flushes = flushes
            .filter(|p| matches!(p, Pending::Flush { .. }))
            .count();
        self.pending.clear();
        self.persist.crash(policy, rng, flushes as u64);
        self.exec += 1;
        self.fp.absorb(5);
        self.fp.absorb(self.exec as u64);
        // Crash boundaries are natural publish points: the heartbeat sees
        // progress even when the next phase is load-heavy (loads don't pass
        // through `commit_entry`).
        self.tel_flush();
    }

    /// Full content fingerprint of everything a crash at this instant can
    /// materialize or a post-crash suffix can observe: the persistent image
    /// and its provenance, the current execution's lines (cache bytes,
    /// storemap, store logs and persistence floors), and the per-thread
    /// buffers. No engine path calls it: it is the subject of yashbench's
    /// `--layers` fingerprint microbenchmark, which prices a full content
    /// hash against the rolling event-delta fingerprint pruning keeps.
    /// O(touched lines), amortized by the [`pmem::ArcMemo`] address fast
    /// path across snapshots that share line records.
    pub fn crash_state_fingerprint(&self, memo: &mut pmem::ArcMemo) -> u64 {
        let mut fp = pmem::Fp64::new();
        self.persist.absorb_content(&mut fp, memo);
        fp.absorb(self.exec as u64);
        fp.absorb(self.cvs.len() as u64);
        for sb in &self.sbs {
            fp.absorb(sb.fingerprint());
        }
        for fb in &self.fbs {
            fp.absorb(fb.fingerprint());
        }
        fp.value()
    }

    /// One byte of the persistent image (zero where never persisted; for
    /// differential tests).
    pub fn image_byte(&self, addr: Addr) -> u8 {
        self.persist
            .image_line(addr.cache_line())
            .map_or(0, |l| l.bytes[addr.line_offset() as usize])
    }

    /// The store event that produced the persisted byte at `addr`, if any
    /// (for differential tests).
    pub fn image_prov_at(&self, addr: Addr) -> Option<EventId> {
        self.persist
            .image_line(addr.cache_line())?
            .prov_at(addr.line_offset())
    }

    /// The most recent committed store covering `addr` in the current
    /// execution's cache, if any.
    pub fn store_map_at(&self, addr: Addr) -> Option<EventId> {
        self.persist
            .line(addr.cache_line())?
            .prov_at(addr.line_offset())
    }
}

/// Above this size, membership checks spill from a linear scan into a hash
/// set. Most loads see a handful of source stores, so the common case stays
/// allocation-free beyond the inline vector.
const LINEAR_DEDUP_MAX: usize = 16;

/// An insertion-ordered set of event ids.
///
/// Replaces the old `push_unique` linear probes (O(k²) across k insertions):
/// small sets dedup by scanning the vector, larger ones through a spilled
/// [`FastSet`] index, while the vector preserves first-insertion order so
/// sink reporting stays byte-identical to the byte-at-a-time implementation.
/// Clearing keeps both allocations for the next load.
#[derive(Debug, Default)]
struct OrderedIdSet {
    items: Vec<EventId>,
    /// Every item once the set holds more than [`LINEAR_DEDUP_MAX`];
    /// empty before.
    index: FastSet<EventId>,
}

impl OrderedIdSet {
    /// Inserts `id`, returning `true` if it was new.
    fn insert(&mut self, id: EventId) -> bool {
        if self.items.len() > LINEAR_DEDUP_MAX {
            if !self.index.insert(id) {
                return false;
            }
        } else {
            if self.items.contains(&id) {
                return false;
            }
            if self.items.len() == LINEAR_DEDUP_MAX {
                self.index.extend(self.items.iter().copied());
                self.index.insert(id);
            }
        }
        self.items.push(id);
        true
    }

    fn clear(&mut self) {
        self.items.clear();
        self.index.clear();
    }

    /// Makes `self` equal to `other`, reusing `self`'s storage.
    fn copy_from(&mut self, other: &OrderedIdSet) {
        self.items.clone_from(&other.items);
        self.index.clone_from(&other.index);
    }
}

fn ranges_overlap(a: Addr, a_len: u64, b: Addr, b_len: u64) -> bool {
    a < b + b_len && b < a + a_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::LINE_COW_BYTES;
    use crate::sink::NullSink;
    use rand::{RngCore, SeedableRng};

    fn mem() -> MemState {
        MemState::new(CompilerConfig::default(), 1 << 20)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn store_load_roundtrip_via_bypass_and_cache() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        m.exec_store(&mut sink, t, a, &7u64.to_le_bytes(), Atomicity::Plain, "x");
        // Still buffered: bypass serves the value.
        assert_eq!(m.sb_len(t), 1);
        let out = m.exec_load(t, a, 8, Atomicity::Plain, "r");
        assert_eq!(u64::from_le_bytes(out.bytes.try_into().unwrap()), 7);
        // Commit and read from cache.
        m.drain_sb(&mut sink, t);
        assert_eq!(m.sb_len(t), 0);
        let out = m.exec_load(t, a, 8, Atomicity::Plain, "r");
        assert_eq!(u64::from_le_bytes(out.bytes.try_into().unwrap()), 7);
        assert!(out.chosen.is_empty(), "same-execution read");
    }

    #[test]
    fn buffered_stores_lost_at_crash() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        m.exec_store(&mut sink, t, a, &7u64.to_le_bytes(), Atomicity::Plain, "x");
        // No drain: the store dies in the buffer.
        m.crash(PersistencePolicy::FullCache, &mut rng());
        let t2 = m.register_thread(None);
        let out = m.exec_load(t2, a, 8, Atomicity::Plain, "r");
        assert_eq!(u64::from_le_bytes(out.bytes.try_into().unwrap()), 0);
        assert!(out.chosen.is_empty());
        assert!(out.candidates.is_empty());
    }

    #[test]
    fn committed_store_survives_full_cache_crash() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        m.exec_store(&mut sink, t, a, &7u64.to_le_bytes(), Atomicity::Plain, "x");
        m.drain_sb(&mut sink, t);
        m.crash(PersistencePolicy::FullCache, &mut rng());
        let t2 = m.register_thread(None);
        let out = m.exec_load(t2, a, 8, Atomicity::Plain, "r");
        assert_eq!(u64::from_le_bytes(out.bytes.try_into().unwrap()), 7);
        assert_eq!(out.chosen.len(), 1);
        assert_eq!(out.candidates.len(), 1);
    }

    #[test]
    fn unflushed_store_lost_under_floor_only_policy() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        m.exec_store(&mut sink, t, a, &7u64.to_le_bytes(), Atomicity::Plain, "x");
        m.drain_sb(&mut sink, t);
        m.crash(PersistencePolicy::FloorOnly, &mut rng());
        let t2 = m.register_thread(None);
        let out = m.exec_load(t2, a, 8, Atomicity::Plain, "r");
        assert_eq!(u64::from_le_bytes(out.bytes.try_into().unwrap()), 0);
        // The committed-but-unpersisted store is still a read candidate.
        assert_eq!(out.candidates.len(), 1);
        assert!(out.chosen.is_empty());
    }

    #[test]
    fn clflush_makes_store_survive_floor_policy() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        m.exec_store(&mut sink, t, a, &7u64.to_le_bytes(), Atomicity::Plain, "x");
        m.exec_clflush(t, a, "f");
        m.drain_sb(&mut sink, t);
        m.crash(PersistencePolicy::FloorOnly, &mut rng());
        let t2 = m.register_thread(None);
        let out = m.exec_load(t2, a, 8, Atomicity::Plain, "r");
        assert_eq!(u64::from_le_bytes(out.bytes.try_into().unwrap()), 7);
    }

    #[test]
    fn clwb_needs_fence_to_persist() {
        // clwb alone: floor not raised.
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        m.exec_store(&mut sink, t, a, &7u64.to_le_bytes(), Atomicity::Plain, "x");
        m.exec_clwb(t, a, "f");
        m.drain_sb(&mut sink, t);
        m.crash(PersistencePolicy::FloorOnly, &mut rng());
        let t2 = m.register_thread(None);
        let out = m.exec_load(t2, a, 8, Atomicity::Plain, "r");
        assert_eq!(u64::from_le_bytes(out.bytes.try_into().unwrap()), 0);

        // clwb + sfence: persisted.
        let mut m = mem();
        let t = m.register_thread(None);
        m.exec_store(&mut sink, t, a, &7u64.to_le_bytes(), Atomicity::Plain, "x");
        m.exec_clwb(t, a, "f");
        m.exec_sfence(t, "sf");
        m.drain_sb(&mut sink, t);
        m.crash(PersistencePolicy::FloorOnly, &mut rng());
        let t2 = m.register_thread(None);
        let out = m.exec_load(t2, a, 8, Atomicity::Plain, "r");
        assert_eq!(u64::from_le_bytes(out.bytes.try_into().unwrap()), 7);
    }

    #[test]
    fn torn_store_observable_under_random_policy() {
        // gcc/ARM64 tears the 64-bit store into two 4-byte chunks; a random
        // cut can persist only the first — Figure 1's 0x12345678.
        let mut hits = 0;
        for seed in 0..32 {
            let mut m = MemState::new(CompilerConfig::gcc_o1_arm64(), 1 << 20);
            let mut sink = NullSink;
            let t = m.register_thread(None);
            let a = Addr(0x1000);
            m.exec_store(
                &mut sink,
                t,
                a,
                &0x1234_5678_1234_5678u64.to_le_bytes(),
                Atomicity::Plain,
                "pmobj->val",
            );
            m.drain_sb(&mut sink, t);
            let mut r = StdRng::seed_from_u64(seed);
            m.crash(PersistencePolicy::Random, &mut r);
            let t2 = m.register_thread(None);
            let out = m.exec_load(t2, a, 8, Atomicity::Plain, "r");
            let v = u64::from_le_bytes(out.bytes.try_into().unwrap());
            if v == 0x1234_5678 {
                hits += 1;
            } else {
                assert!(v == 0 || v == 0x1234_5678_1234_5678, "unexpected {v:#x}");
            }
        }
        assert!(hits > 0, "some seed should persist exactly one chunk");
    }

    #[test]
    fn cas_swaps_and_reports_old_value() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        let (old, ok, _) = m.exec_cas(&mut sink, t, a, 0, 5, "lock");
        assert!(ok);
        assert_eq!(old, 0);
        let (old, ok, _) = m.exec_cas(&mut sink, t, a, 0, 9, "lock");
        assert!(!ok);
        assert_eq!(old, 5);
        // CAS stores commit immediately (no buffering).
        assert_eq!(m.sb_len(t), 0);
    }

    #[test]
    fn spawn_join_synchronize_clocks() {
        let mut m = mem();
        let t0 = m.register_thread(None);
        let t1 = m.register_thread(Some(t0));
        assert!(m.cv(t1).get(t0) > 0, "child sees parent prefix");
        let before = m.cv(t0).get(t1);
        m.join_thread(t0, t1);
        assert!(m.cv(t0).get(t1) >= before);
        assert!(m.cv(t0).get(t1) > 0);
    }

    #[test]
    fn memset_and_memcpy_round_trip() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        m.exec_memset(&mut sink, t, a, 0xab, 20, "init");
        m.drain_sb(&mut sink, t);
        let out = m.exec_load(t, a, 20, Atomicity::Plain, "r");
        assert!(out.bytes.iter().all(|&b| b == 0xab));
        let data: Vec<u8> = (0..20).collect();
        m.exec_memcpy(&mut sink, t, a, &data, "copy");
        m.drain_sb(&mut sink, t);
        let out = m.exec_load(t, a, 20, Atomicity::Plain, "r");
        assert_eq!(out.bytes, data);
    }

    #[test]
    fn line_straddling_store_splits_into_per_line_events() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        // 8-byte store 4 bytes before a line boundary.
        let a = Addr(0x1000 + 60);
        m.exec_store(
            &mut sink,
            t,
            a,
            &0xffff_ffff_ffff_ffffu64.to_le_bytes(),
            Atomicity::Plain,
            "x",
        );
        assert_eq!(m.sb_len(t), 2, "split at the line boundary");
    }

    #[test]
    fn candidates_include_all_unflushed_line_stores() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        m.exec_store(&mut sink, t, a, &1u64.to_le_bytes(), Atomicity::Plain, "s1");
        m.exec_store(&mut sink, t, a, &2u64.to_le_bytes(), Atomicity::Plain, "s2");
        m.drain_sb(&mut sink, t);
        m.crash(PersistencePolicy::FullCache, &mut rng());
        let t2 = m.register_thread(None);
        let out = m.exec_load(t2, a, 8, Atomicity::Plain, "r");
        assert_eq!(u64::from_le_bytes(out.bytes.try_into().unwrap()), 2);
        assert_eq!(out.chosen.len(), 1);
        assert_eq!(out.candidates.len(), 2, "both stores are candidates");
    }

    #[test]
    fn gc_never_retires_an_unpersisted_store() {
        let mut m = mem();
        m.enable_gc(1);
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        // Two committed stores to one line, neither flushed: even with a GC
        // pass per commit both must stay live — they are still crash-cut
        // material and post-crash read candidates.
        m.exec_store(&mut sink, t, a, &1u64.to_le_bytes(), Atomicity::Plain, "s1");
        m.exec_store(&mut sink, t, a, &2u64.to_le_bytes(), Atomicity::Plain, "s2");
        m.drain_sb(&mut sink, t);
        let gc = m.gc_stats();
        assert_eq!(
            gc.events_retired, 0,
            "not-yet-persisted stores never retire"
        );
        assert_eq!(gc.live_events, 2);
        // Flush persists both; a third store then supersedes them in the
        // storemap and image provenance, so the fully-decided first store
        // retires on a later pass while the still-provenant second stays.
        m.exec_clflush(t, a, "f");
        m.exec_store(&mut sink, t, a, &3u64.to_le_bytes(), Atomicity::Plain, "s3");
        m.drain_sb(&mut sink, t);
        let gc = m.gc_stats();
        assert!(gc.events_retired >= 1, "persisted+superseded store retires");
        assert!(gc.line_entries_retired >= 2, "persisted prefix drained");
    }

    #[test]
    fn gc_preserves_crash_materialization_and_fingerprint() {
        let run = |gc: bool| {
            let mut m = mem();
            if gc {
                m.enable_gc(1);
            }
            let mut sink = NullSink;
            let t = m.register_thread(None);
            for i in 0..100u64 {
                let a = Addr(0x1000 + (i % 4) * 64);
                m.exec_store(&mut sink, t, a, &i.to_le_bytes(), Atomicity::Plain, "x");
                if i % 3 == 0 {
                    m.exec_clflush(t, a, "f");
                }
                if i % 7 == 0 {
                    m.exec_sfence(t, "sf");
                }
                m.drain_sb(&mut sink, t);
            }
            let mut r = rng();
            m.crash(PersistencePolicy::Random, &mut r);
            let t2 = m.register_thread(None);
            let out = m.exec_load(t2, Addr(0x1000), 16, Atomicity::Plain, "r");
            let out = (
                out.bytes.to_vec(),
                out.chosen.to_vec(),
                out.candidates.to_vec(),
            );
            (m.fingerprint(), out)
        };
        assert_eq!(run(false), run(true), "GC must be observably invisible");
    }

    #[test]
    fn gc_bounds_live_events_on_a_flushed_stream() {
        let mut m = mem();
        m.enable_gc(8);
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        for i in 0..1000u64 {
            m.exec_store(&mut sink, t, a, &i.to_le_bytes(), Atomicity::Plain, "x");
            m.exec_clflush(t, a, "f");
            m.drain_sb(&mut sink, t);
        }
        let gc = m.gc_stats();
        assert_eq!(m.stats.stores_committed, 1000);
        assert!(
            gc.peak_live_events < 32,
            "live set must plateau, saw peak {}",
            gc.peak_live_events
        );
        assert!(
            gc.slots_reused > 900,
            "slots recycle behind the id indirection"
        );
        // The stream is still readable and correct.
        let out = m.exec_load(t, a, 8, Atomicity::Plain, "r");
        assert_eq!(u64::from_le_bytes(out.bytes.try_into().unwrap()), 999);
    }

    #[test]
    fn flushing_a_never_written_line_draws_nothing_at_a_crash() {
        let next_draw = |flush: bool| {
            let mut m = mem();
            let mut sink = NullSink;
            let t = m.register_thread(None);
            let a = Addr(0x1000);
            m.exec_store(&mut sink, t, a, &1u64.to_le_bytes(), Atomicity::Plain, "x");
            if flush {
                m.exec_clflush(t, a + 64, "f");
                m.exec_clwb(t, a + 128, "f");
                m.exec_sfence(t, "sf");
            }
            m.drain_sb(&mut sink, t);
            let mut r = rng();
            m.crash(PersistencePolicy::Random, &mut r);
            r.next_u64()
        };
        assert_eq!(next_draw(true), next_draw(false));
    }

    #[test]
    fn line_record_copies_stay_counted_after_gc_drops_their_execution() {
        let mut m = mem();
        m.enable_gc(1 << 20);
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let a = Addr(0x1000);
        m.exec_store(&mut sink, t, a, &1u64.to_le_bytes(), Atomicity::Plain, "x");
        m.drain_sb(&mut sink, t);
        let mut f = m.fork();
        // The fork's first write to the shared line copies its record.
        f.exec_store(&mut sink, t, a, &2u64.to_le_bytes(), Atomicity::Plain, "x");
        f.drain_sb(&mut sink, t);
        let copied = f.cow_stats();
        assert_eq!(copied.1, LINE_COW_BYTES, "one line record copied");
        // The second crash drops the execution that made the copy.
        f.crash(PersistencePolicy::FullCache, &mut rng());
        f.crash(PersistencePolicy::FullCache, &mut rng());
        assert_eq!(f.cow_stats(), copied);
    }

    #[test]
    fn a_crash_drops_buffered_sfences() {
        let mut m = mem();
        let t = m.register_thread(None);
        m.exec_sfence(t, "sf");
        assert_eq!(m.pending.len(), 1);
        m.crash(PersistencePolicy::FullCache, &mut rng());
        assert_eq!(m.pending.len(), 0, "forks after the crash would clone it");
    }

    /// Records the line-store ids each flush callback receives, in order.
    #[derive(Default)]
    struct LineStoresSink {
        clflush: Vec<Vec<EventId>>,
        clwb: Vec<Vec<EventId>>,
    }

    impl EventSink for LineStoresSink {
        fn on_clflush_committed(&mut self, _: &FlushEvent, line_stores: &[&StoreEvent]) {
            self.clflush
                .push(line_stores.iter().map(|s| s.id).collect());
        }

        fn on_clwb_fenced(&mut self, _: &FlushEvent, _: &VectorClock, line_stores: &[&StoreEvent]) {
            self.clwb.push(line_stores.iter().map(|s| s.id).collect());
        }
    }

    #[test]
    fn flushes_hand_the_sink_line_stores_in_byte_order_not_id_order() {
        let mut m = mem();
        let mut sink = LineStoresSink::default();
        let t = m.register_thread(None);
        let base = Addr(0x1000);
        // Eight stores written back to front: ids descend with the offset.
        for slot in (0..8u64).rev() {
            let bytes = (slot + 1).to_le_bytes();
            m.exec_store(&mut sink, t, base + slot * 8, &bytes, Atomicity::Plain, "s");
        }
        m.drain_sb(&mut sink, t);
        let by_offset = |m: &MemState| -> Vec<EventId> {
            (0..8u64)
                .map(|slot| m.store_map_at(base + slot * 8).expect("committed"))
                .collect()
        };
        let descending = by_offset(&m);
        assert!(descending.windows(2).all(|w| w[0] > w[1]), "{descending:?}");
        m.exec_clflush(t, base, "f");
        m.drain_sb(&mut sink, t);
        m.exec_clwb(t, base, "w");
        m.exec_mfence(&mut sink, t, "m");
        // Overwriting one middle slot puts the newest id at offset 24: the
        // order is now neither ascending nor descending.
        m.exec_store(
            &mut sink,
            t,
            base + 24,
            &9u64.to_le_bytes(),
            Atomicity::Plain,
            "s",
        );
        m.exec_clwb(t, base, "w");
        m.exec_mfence(&mut sink, t, "m");
        let mixed = by_offset(&m);
        assert_eq!(mixed[3], *mixed.iter().max().unwrap());
        assert_eq!(sink.clflush, vec![descending.clone()]);
        assert_eq!(sink.clwb, vec![descending, mixed]);
    }

    #[test]
    fn a_clwb_that_overtakes_an_older_one_keeps_its_own_mark() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        let (a, b) = (Addr(0x1000), Addr(0x1040));
        for (at, v) in [(a, 1u64), (a, 2), (b, 3)] {
            m.exec_store(&mut sink, t, at, &v.to_le_bytes(), Atomicity::Plain, "s");
        }
        m.drain_sb(&mut sink, t);
        m.exec_clwb(t, a, "wa");
        m.exec_clwb(t, b, "wb");
        // Both lead the buffer, so either may leave first: the younger
        // clwb (line b, one committed store) goes first, then the older
        // (line a, two).
        assert_eq!(m.evictable(t), [0, 1]);
        m.evict_one(&mut sink, t, 1);
        m.evict_one(&mut sink, t, 0);
        // Stores committed after the clwbs left are past both marks.
        for (at, v) in [(a, 4u64), (b, 5)] {
            m.exec_store(&mut sink, t, at, &v.to_le_bytes(), Atomicity::Plain, "s");
        }
        m.drain_sb(&mut sink, t);
        m.exec_sfence(t, "sf");
        m.drain_sb(&mut sink, t);
        let floor = |m: &MemState, at: Addr| m.persist.log(at.cache_line()).expect("written").floor;
        assert_eq!((floor(&m, a), floor(&m, b)), (2, 1));
        assert_eq!(m.pending.len(), 0, "every flush and fence record retired");
    }

    #[test]
    #[should_panic(expected = "buffered clwb has a mark")]
    fn a_fenced_clwb_without_a_mark_panics_instead_of_under_persisting() {
        let mut m = mem();
        let mut sink = NullSink;
        let t = m.register_thread(None);
        m.fbs[t.as_usize()].push(FbEntry {
            addr: Addr(0x1000),
            id: 99,
        });
        m.exec_mfence(&mut sink, t, "m");
    }
}
