//! The simulated memory system: store buffers, cache, persistent image, and
//! the execution stack.
//!
//! This module implements the storage-system side of §6: instruction
//! execution inserts entries into per-thread store buffers (Fig. 7), buffer
//! eviction takes effect on the cache and assigns global sequence numbers
//! (Fig. 8), and a crash discards the buffers and the volatile cache,
//! materializing into the persistent image a per-line *prefix* of the
//! committed stores (cache coherence guarantees persistence is prefix-closed
//! per line, §4.1).

use std::sync::Arc;
use std::time::Instant;

use compiler_model::{CompilerConfig, StoreChunk};
use obs::telemetry::{Count, Telemetry, WallPhase};
use pmem::{
    Addr, CacheLineId, FastMap, FastSet, Forkable, PmAllocator, PmImage, ProvLine, ProvenanceMap,
};
use px86::{Atomicity, FbEntry, FlushBuffer, SbEntry, SbStore, StoreBuffer};
use rand::rngs::StdRng;
use rand::Rng;
use vclock::{ThreadId, VectorClock};

use obs::coverage::{SiteKind, SiteTable};

use crate::event::{EventId, ExecId, FlushEvent, FlushKind, Label, LoadInfo, StoreEvent};
use crate::sink::EventSink;

/// Size of the root region at [`Addr::BASE`], reserved for well-known
/// pointers and metadata. The allocator arena starts after it, so a program
/// can stash its structure roots at fixed addresses that recovery code finds
/// again without re-allocating (the analogue of a PM pool's root object).
pub const ROOT_REGION_BYTES: u64 = 4096;

/// How the engine chooses, per cache line, how much of the committed store
/// sequence persisted at a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PersistencePolicy {
    /// Every committed store persisted (the cache was fully written back at
    /// the instant of the crash). Maximizes the data recovery code can see.
    #[default]
    FullCache,
    /// Only explicitly flushed data persisted (the adversarial floor).
    FloorOnly,
    /// A uniformly random per-line cut between the floor and the full cache.
    /// This is what makes torn values observable: a cut between the chunks
    /// of a torn store persists some chunks and not others.
    Random,
}

/// One cache line's committed-store log, with its persistence floor and a
/// retired prefix.
///
/// Logical indexes run `0..logical_len()`, and the floor is logical too. A
/// log exists only once its line has a committed store, so a flush of a
/// never-written line leaves no entry (its floor is 0 either way). Streaming
/// GC drains the already-persisted prefix into the persistent image as the
/// floor rises (`retired` counts the drained entries, and is therefore
/// always ≤ `floor`), so only entries a future crash cut or candidate scan
/// can still distinguish stay resident. With GC off `retired` stays 0.
#[derive(Debug, Clone, Default)]
struct LineLog {
    /// Length of the logical prefix already materialized into the image.
    retired: usize,
    /// Length of the logical prefix definitely persisted (forced by
    /// committed `clflush` / fenced `clwb`).
    floor: usize,
    /// Retained committed stores, in cache (seq) order: these sit at logical
    /// indexes `retired..retired + order.len()`.
    order: Vec<EventId>,
}

impl LineLog {
    fn logical_len(&self) -> usize {
        self.retired + self.order.len()
    }

    /// Retained entries at logical index `from` and above.
    fn suffix_from(&self, from: usize) -> &[EventId] {
        &self.order[(from.max(self.retired) - self.retired).min(self.order.len())..]
    }
}

/// Per-execution storage state: the volatile cache and its bookkeeping.
#[derive(Debug, Default)]
pub struct ExecState {
    /// This execution's id.
    pub id: ExecId,
    /// Committed (cache) bytes.
    cache: PmImage,
    /// `storemap`: the most recent committed store covering each byte, kept
    /// as per-line slabs so a whole line resolves with one lookup.
    store_map: ProvenanceMap,
    /// Committed stores per line, in cache (seq) order, with their floors.
    line_order: FastMap<CacheLineId, LineLog>,
}

impl ExecState {
    fn new(id: ExecId) -> Self {
        ExecState {
            id,
            ..ExecState::default()
        }
    }
}

impl Forkable for ExecState {
    fn fork(&self) -> Self {
        ExecState {
            id: self.id,
            cache: self.cache.fork(),
            store_map: self.store_map.fork(),
            line_order: self.line_order.clone(),
        }
    }
}

/// Store-event table indexed by [`EventId`].
///
/// An id → slot map plus a free list: ids come from the shared per-run
/// counter (which also numbers flushes and fences) and are never reused,
/// while retired events give their slots back, so resident slots track the
/// *live* set rather than the run's history. With GC off nothing retires
/// and the table simply grows.
#[derive(Default, Clone)]
struct EventTable {
    slots: Vec<Option<StoreEvent>>,
    /// Where each live id's event lives.
    index: FastMap<EventId, u32>,
    /// Retired slots awaiting reuse.
    free: Vec<u32>,
    /// High-water mark of live entries.
    peak: usize,
    /// Slots handed out again after retirement.
    reused: u64,
}

impl EventTable {
    fn insert(&mut self, id: EventId, event: StoreEvent) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.reused += 1;
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        let prev = self.index.insert(id, slot);
        debug_assert!(prev.is_none(), "event ids are never reused");
        self.peak = self.peak.max(self.index.len());
    }

    fn slot_of(&self, id: EventId) -> usize {
        self.index[&id] as usize
    }

    fn get(&self, id: EventId) -> &StoreEvent {
        self.slots[self.slot_of(id)]
            .as_ref()
            .expect("store event exists")
    }

    fn get_mut(&mut self, id: EventId) -> &mut StoreEvent {
        let slot = self.slot_of(id);
        self.slots[slot].as_mut().expect("store event exists")
    }

    /// Frees `id`'s slot for reuse (unknown ids are ignored so sweeps may
    /// be re-applied idempotently).
    fn retire(&mut self, id: EventId) {
        if let Some(slot) = self.index.remove(&id) {
            debug_assert!(self.slots[slot as usize].is_some());
            self.slots[slot as usize] = None;
            self.free.push(slot);
        }
    }

    /// Every live id, in unspecified order (callers sort).
    fn live_ids(&self) -> Vec<EventId> {
        self.index.keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn peak_live(&self) -> usize {
        self.peak
    }

    fn reused(&self) -> u64 {
        self.reused
    }
}

/// The complete simulated memory system for one engine run.
pub struct MemState {
    /// Compiler model used to lower source-level stores.
    pub compiler: CompilerConfig,
    /// Event table: all store events, across executions.
    events: EventTable,
    /// Flush events (clflush/clwb), across executions.
    flushes: FastMap<EventId, FlushEvent>,
    next_event: EventId,
    next_seq: u64,
    // Per-thread machine state (indexed by ThreadId).
    sbs: Vec<StoreBuffer>,
    fbs: Vec<FlushBuffer>,
    cvs: Vec<VectorClock>,
    /// For each clwb sitting in a flush buffer: the line-order length at the
    /// moment it exited the store buffer (its guaranteed write-back point).
    clwb_marks: FastMap<EventId, usize>,
    /// For each sfence still buffered: its execution-time clock vector
    /// (Fig. 8's `Evict_FB` takes the *fence's* CV, which must be captured
    /// when the sfence executes, not when it drains) and its static site
    /// label, so the coverage plane can classify the fence (draining vs
    /// empty) when it commits. Kept outside `px86::SbEntry`, which stays
    /// label-free; a crash clears it with the buffers.
    fences: FastMap<EventId, (VectorClock, Label)>,
    /// Current execution.
    pub cur: ExecState,
    /// Crashed executions, oldest first.
    pub past: Vec<ExecState>,
    /// Persistent storage contents.
    image: PmImage,
    /// Provenance: which store event produced each persisted byte, kept as
    /// per-line slabs like [`ExecState::store_map`].
    image_prov: ProvenanceMap,
    /// Scratch buffer for store-buffer bypass queries, reused across loads.
    bypass_scratch: Vec<Option<EventId>>,
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
    /// Streaming GC: run a mark-sweep pass every this many committed stores
    /// (`None` = GC off, the default for directly constructed states).
    gc_every: Option<u64>,
    /// Committed stores since the last GC pass.
    commits_since_gc: u64,
    /// Retirement counters (live/peak gauges are filled in by
    /// [`MemState::gc_stats`] from the event table).
    gc: crate::report::GcStats,
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
    /// Line slabs and buffer queues are shared copy-on-write; per-event
    /// bookkeeping (the event table, flush map, vector clocks, line orders)
    /// is cloned outright — it is proportional to the events executed so
    /// far, not to the bytes of simulated PM. The bypass, eviction
    /// and fence scratch buffers are transient and start empty in the fork.
    /// GC work counters (passes, retirements, reused slots) start at zero:
    /// the prefix's GC work is the capturing run's, and counting it again
    /// in every resumed suffix would double-count it.
    fn fork(&self) -> Self {
        MemState {
            compiler: self.compiler,
            events: EventTable {
                reused: 0,
                ..self.events.clone()
            },
            flushes: self.flushes.clone(),
            next_event: self.next_event,
            next_seq: self.next_seq,
            sbs: self.sbs.iter().map(Forkable::fork).collect(),
            fbs: self.fbs.iter().map(Forkable::fork).collect(),
            cvs: self.cvs.clone(),
            clwb_marks: self.clwb_marks.clone(),
            fences: self.fences.clone(),
            cur: self.cur.fork(),
            past: self.past.iter().map(Forkable::fork).collect(),
            image: self.image.fork(),
            image_prov: self.image_prov.fork(),
            bypass_scratch: Vec::new(),
            evict_scratch: Default::default(),
            fb_scratch: Vec::new(),
            alloc: self.alloc.clone(),
            stats: self.stats,
            cov: self.cov.clone(),
            gc_every: self.gc_every,
            commits_since_gc: self.commits_since_gc,
            gc: crate::report::GcStats::default(),
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
            .field("exec", &self.cur.id)
            .field("events", &self.events.len())
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
        /// Crashes (executions pushed on the stack).
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
/// must be reported to the sink.
pub struct LoadOutcome {
    /// The bytes observed.
    pub bytes: Vec<u8>,
    /// Distinct prior-execution stores whose bytes were observed.
    pub chosen: Vec<EventId>,
    /// All candidate prior-execution stores the load could have observed.
    pub candidates: Vec<EventId>,
}

impl MemState {
    /// Creates a fresh memory system with `heap_bytes` of persistent arena.
    pub fn new(compiler: CompilerConfig, heap_bytes: u64) -> Self {
        MemState {
            compiler,
            events: EventTable::default(),
            flushes: FastMap::default(),
            next_event: 1,
            next_seq: 1,
            sbs: Vec::new(),
            fbs: Vec::new(),
            cvs: Vec::new(),
            clwb_marks: FastMap::default(),
            fences: FastMap::default(),
            cur: ExecState::new(0),
            past: Vec::new(),
            image: PmImage::new(),
            image_prov: ProvenanceMap::new(),
            bypass_scratch: Vec::new(),
            evict_scratch: Default::default(),
            fb_scratch: Vec::new(),
            alloc: PmAllocator::new(Addr::BASE + ROOT_REGION_BYTES, heap_bytes),
            stats: ExecStats::default(),
            cov: SiteTable::default(),
            gc_every: None,
            commits_since_gc: 0,
            gc: crate::report::GcStats::default(),
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
        if let Some(tel) = &self.tel {
            let now = self.stats.events();
            if now.wrapping_sub(self.tel_published) >= BATCH {
                tel.add(Count::Events, now - self.tel_published);
                tel.set(Count::LiveSlots, self.events.len() as u64);
                self.tel_published = now;
            }
        }
    }

    /// Publishes any remaining unpublished events (run end, crash
    /// boundaries) so the telemetry totals match the executed work exactly.
    pub(crate) fn tel_flush(&mut self) {
        if let Some(tel) = &self.tel {
            let now = self.stats.events();
            tel.add(Count::Events, now - self.tel_published);
            tel.set(Count::LiveSlots, self.events.len() as u64);
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
        self.gc_every = Some(every.max(1));
    }

    /// Whether streaming GC is on.
    pub fn gc_enabled(&self) -> bool {
        self.gc_every.is_some()
    }

    /// Retirement counters plus current live/peak event-table gauges.
    pub fn gc_stats(&self) -> crate::report::GcStats {
        let mut gc = self.gc;
        gc.live_events = self.events.len() as u64;
        gc.peak_live_events = self.events.peak_live() as u64;
        gc.slots_reused = self.events.reused();
        gc
    }

    /// The current rolling crash-state fingerprint (see the field docs).
    pub fn fingerprint(&self) -> u64 {
        self.fp.value()
    }

    /// Number of threads ever registered (across executions).
    pub fn thread_count(&self) -> usize {
        self.cvs.len()
    }

    /// Total copy-on-write clone traffic across every COW container held by
    /// this memory system: `(clones, bytes copied)`.
    pub fn cow_stats(&self) -> (u64, u64) {
        let mut clones = 0u64;
        let mut bytes = 0u64;
        let images = [&self.image, &self.cur.cache]
            .into_iter()
            .chain(self.past.iter().map(|e| &e.cache));
        for img in images {
            clones += img.cow_clones();
            bytes += img.cow_bytes();
        }
        let provs = [&self.image_prov, &self.cur.store_map]
            .into_iter()
            .chain(self.past.iter().map(|e| &e.store_map));
        for prov in provs {
            clones += prov.cow_clones();
            bytes += prov.cow_bytes();
        }
        for sb in &self.sbs {
            clones += sb.cow_clones();
            bytes += sb.cow_bytes();
        }
        for fb in &self.fbs {
            clones += fb.cow_clones();
            bytes += fb.cow_bytes();
        }
        (clones, bytes)
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
        self.events.get(id)
    }

    fn fresh_event_id(&mut self) -> EventId {
        let id = self.next_event;
        self.next_event += 1;
        id
    }

    fn fresh_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
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
        // A store the compiler leaves whole skips the lowered `Vec`.
        if self.compiler.keeps_whole(bytes.len(), atomicity) {
            self.push_store_chunks(sink, thread, addr, bytes, atomicity, false, label);
            return;
        }
        let chunks = self.compiler.lower_store(addr, bytes, atomicity);
        self.push_lowered(sink, thread, chunks, atomicity, label);
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
        let chunks = self.compiler.lower_memset(addr, value, len);
        self.push_lowered(sink, thread, chunks, Atomicity::Plain, label);
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
        let chunks = self.compiler.lower_memcpy(addr, data);
        self.push_lowered(sink, thread, chunks, Atomicity::Plain, label);
    }

    /// Pushes every chunk a compiler lowering produced.
    fn push_lowered(
        &mut self,
        sink: &mut dyn EventSink,
        thread: ThreadId,
        chunks: Vec<StoreChunk>,
        atomicity: Atomicity,
        label: Label,
    ) {
        for c in chunks {
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
                exec: self.cur.id,
                thread,
                cv: self.cvs[thread.as_usize()].clone(),
                clock,
                atomicity,
                addr: at,
                bytes: bytes[off..off + take].into(),
                invented,
                label,
                seq: None,
            };
            self.stats.stores_executed += 1;
            self.cov.record(SiteKind::Store, label).executed += 1;
            sink.on_store_executed(&event);
            self.events.insert(id, event);
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
        self.stats.flushes += 1;
        self.cov.record(SiteKind::Flush, label).executed += 1;
        let id = self.push_flush(thread, addr, FlushKind::Clflush, label);
        self.sbs[thread.as_usize()].push(SbEntry::Clflush { addr, id });
    }

    /// Executes a `clwb`/`clflushopt` (enters the store buffer).
    pub fn exec_clwb(&mut self, thread: ThreadId, addr: Addr, label: Label) {
        self.stats.flushes += 1;
        self.cov.record(SiteKind::Flush, label).executed += 1;
        let id = self.push_flush(thread, addr, FlushKind::Clwb, label);
        self.sbs[thread.as_usize()].push(SbEntry::Clwb { addr, id });
    }

    fn push_flush(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        kind: FlushKind,
        label: Label,
    ) -> EventId {
        let clock = self.cvs[thread.as_usize()].tick(thread);
        let id = self.fresh_event_id();
        let event = FlushEvent {
            id,
            exec: self.cur.id,
            thread,
            cv: self.cvs[thread.as_usize()].clone(),
            clock,
            kind,
            addr,
            seq: None,
            label,
        };
        self.flushes.insert(id, event);
        id
    }

    /// Executes an `sfence` (enters the store buffer).
    pub fn exec_sfence(&mut self, thread: ThreadId, label: Label) {
        self.stats.fences += 1;
        self.cov.record(SiteKind::Fence, label).executed += 1;
        self.cvs[thread.as_usize()].tick(thread);
        let id = self.fresh_event_id();
        let cv = self.cvs[thread.as_usize()].clone();
        self.fences.insert(id, (cv, label));
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
                let seq = self.fresh_seq();
                self.events.get_mut(s.id).seq = Some(seq);
                let line = s.addr.cache_line();
                // Write into the cache and update storemap / line order.
                // Disjoint field borrows let the cache copy straight out of
                // the event table without cloning the bytes.
                let MemState {
                    events,
                    cur,
                    stats,
                    fp,
                    cov,
                    ..
                } = self;
                let event = events.get(s.id);
                cur.cache.write(s.addr, &event.bytes);
                cur.store_map.set_range(s.addr, s.len, s.id);
                cur.line_order.entry(line).or_default().order.push(s.id);
                stats.stores_committed += 1;
                cov.record(SiteKind::Store, event.label).committed += 1;
                // A committed store always changes the crash state (it joins
                // the line's persistable prefix).
                fp.absorb(1);
                fp.absorb(line.0);
                fp.absorb(s.id);
                fp.absorb(seq);
                sink.on_store_committed(event);
                self.commits_since_gc += 1;
                self.maybe_gc(sink);
                self.tel_tick();
            }
            SbEntry::Clflush { addr, id } => {
                let seq = self.fresh_seq();
                let line = addr.cache_line();
                let committed = self.committed_len(line);
                let prev = self.raise_floor(line, committed);
                // Only a flush that actually raises the persistence floor
                // changes the crash state; re-flushing an already-persisted
                // line is a no-op for every persistence policy (and the
                // detector's `record_flush` suppresses the duplicate record
                // on its side), so it must not split equivalence classes.
                if committed > prev {
                    self.fp.absorb(2);
                    self.fp.absorb(line.0);
                    self.fp.absorb(committed as u64);
                }
                // The flush event is read exactly once (here), so its map
                // entry can be dropped regardless of GC mode.
                let mut flush = self.flushes.remove(&id).expect("flush event exists");
                flush.seq = Some(seq);
                // Coverage: classify the flush and credit the stores whose
                // line prefix it just persisted — before `materialize_floor`
                // can retire those entries from the log.
                self.cov_floor_raise(flush.label, line, prev, committed);
                self.materialize_floor(line);
                if self.gc_every.is_some() {
                    self.gc.flushes_retired += 1;
                }
                let line_stores = line_store_refs(&self.events, &self.cur.store_map, line);
                sink.on_clflush_committed(&flush, &line_stores);
            }
            SbEntry::Clwb { addr, id } => {
                let committed = self.committed_len(addr.cache_line());
                self.clwb_marks.insert(id, committed);
                self.fbs[thread.as_usize()].push(FbEntry { addr, id });
            }
            SbEntry::Sfence { id } => {
                let _seq = self.fresh_seq();
                let (fence_cv, label) = self.fences.remove(&id).expect("sfence exec CV recorded");
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
        let mut pending = std::mem::take(&mut self.fb_scratch);
        self.fbs[thread.as_usize()].drain_into(&mut pending);
        for fb in &pending {
            let line = fb.addr.cache_line();
            let mark = self
                .clwb_marks
                .remove(&fb.id)
                .expect("buffered clwb has a mark");
            let prev = self.raise_floor(line, mark);
            // Same rule as clflush commit: only an actual floor raise
            // changes the crash state.
            if mark > prev {
                self.fp.absorb(3);
                self.fp.absorb(line.0);
                self.fp.absorb(mark as u64);
            }
            // A clwb fences exactly once; its event entry dies here.
            let clwb = self.flushes.remove(&fb.id).expect("clwb event exists");
            self.cov_floor_raise(clwb.label, line, prev, mark);
            self.materialize_floor(line);
            if self.gc_every.is_some() {
                self.gc.flushes_retired += 1;
            }
            let line_stores = line_store_refs(&self.events, &self.cur.store_map, line);
            sink.on_clwb_fenced(&clwb, fence_cv, &line_stores);
        }
        let drained = pending.len();
        pending.clear();
        self.fb_scratch = pending;
        drained
    }

    /// Logical length of `line`'s committed-store log (0 if never written).
    fn committed_len(&self, line: CacheLineId) -> usize {
        self.cur
            .line_order
            .get(&line)
            .map_or(0, LineLog::logical_len)
    }

    /// Raises `line`'s persistence floor to at least `to`, returning the old
    /// floor. A line with no log has floor 0, and `to` is then 0 too (it was
    /// measured on this execution's log), so there is nothing to record.
    fn raise_floor(&mut self, line: CacheLineId, to: usize) -> usize {
        let Some(log) = self.cur.line_order.get_mut(&line) else {
            debug_assert_eq!(to, 0, "a floor above 0 needs a committed store");
            return 0;
        };
        let prev = log.floor;
        log.floor = prev.max(to);
        prev
    }

    /// Coverage bookkeeping for one flush commit: classifies the flush site
    /// as effective (`new > prev`, the persisted floor rose) or redundant,
    /// credits a `persisted` count to every store site in the newly
    /// persisted prefix slice, and heats the touched line. Must run before
    /// `materialize_floor`, which may retire the slice from the line log.
    fn cov_floor_raise(&mut self, label: Label, line: CacheLineId, prev: usize, new: usize) {
        if new <= prev {
            self.cov.record(SiteKind::Flush, label).redundant += 1;
            return;
        }
        self.cov.record(SiteKind::Flush, label).effective += 1;
        self.cov.touch_line(line.base().0);
        let MemState {
            events, cur, cov, ..
        } = self;
        if let Some(log) = cur.line_order.get(&line) {
            let newly = &log.suffix_from(prev)[..new - prev.max(log.retired)];
            for &id in newly {
                cov.record(SiteKind::Store, events.get(id).label).persisted += 1;
            }
        }
    }

    /// Streaming GC: drains the definitely-persisted prefix of `line`'s
    /// committed-store log into the persistent image.
    ///
    /// Safe mid-execution because every byte a retained-or-retired committed
    /// store covers is shadowed by the current execution's storemap, so
    /// loads keep resolving from the cache and never observe the early image
    /// write; and a crash cut is always ≥ the floor ≥ the retired count, so
    /// materializing the slice `[retired..cut)` later commutes with having
    /// materialized `[0..retired)` now (same per-line store order either
    /// way).
    fn materialize_floor(&mut self, line: CacheLineId) {
        if self.gc_every.is_none() {
            return;
        }
        let MemState {
            events,
            cur,
            image,
            image_prov,
            gc,
            ..
        } = self;
        let Some(log) = cur.line_order.get_mut(&line) else {
            return;
        };
        if log.floor <= log.retired || log.order.is_empty() {
            return;
        }
        let n = (log.floor - log.retired).min(log.order.len());
        let img_line = image.line_mut(line);
        let prov_line = image_prov.line_mut(line);
        for &id in &log.order[..n] {
            let ev = events.get(id);
            let lo = ev.addr.line_offset() as usize;
            let hi = lo + ev.bytes.len();
            img_line[lo..hi].copy_from_slice(&ev.bytes);
            prov_line[lo..hi].fill(id);
        }
        log.order.drain(..n);
        log.retired += n;
        gc.line_entries_retired += n as u64;
    }

    /// Runs a mark-sweep retirement pass when the commit budget is due.
    fn maybe_gc(&mut self, sink: &mut dyn EventSink) {
        let Some(every) = self.gc_every else {
            return;
        };
        if self.commits_since_gc < every {
            return;
        }
        self.commits_since_gc = 0;
        self.run_gc(sink);
    }

    /// Mark-sweep over store events: everything unreachable from the live
    /// roots can never again be read, re-committed, scanned as a candidate,
    /// or materialized, so its table slot is freed. Roots are: the current
    /// storemap (cache reads, line-store reporting), the image provenance
    /// (acquire joins and chosen-store reporting on image reads), the
    /// retained line logs of the current and most recent crashed execution
    /// (crash cuts and candidate scans), and store-buffer entries (bypass
    /// reads, pending commits). Retired ids are reported to the sink in
    /// ascending order so detectors can drop per-store state
    /// deterministically.
    fn run_gc(&mut self, sink: &mut dyn EventSink) {
        // Time the pass on the telemetry plane (write-only; the pass itself
        // is oblivious to whether it is being timed).
        if let Some(tel) = self.tel.clone() {
            let t0 = Instant::now();
            self.run_gc_inner(sink);
            tel.add_phase(WallPhase::GcPass, t0.elapsed());
            tel.set(Count::LiveSlots, self.events.len() as u64);
        } else {
            self.run_gc_inner(sink);
        }
    }

    fn run_gc_inner(&mut self, sink: &mut dyn EventSink) {
        self.gc.passes += 1;
        let mut roots: FastSet<EventId> = FastSet::default();
        self.cur.store_map.for_each_id(|id| {
            roots.insert(id);
        });
        self.image_prov.for_each_id(|id| {
            roots.insert(id);
        });
        for log in self.cur.line_order.values() {
            roots.extend(log.order.iter().copied());
        }
        if let Some(prev) = self.past.last() {
            for log in prev.line_order.values() {
                roots.extend(log.order.iter().copied());
            }
        }
        for sb in &self.sbs {
            for entry in sb.iter() {
                if let SbEntry::Store(s) = entry {
                    roots.insert(s.id);
                }
            }
        }
        let mut retired: Vec<EventId> = self
            .events
            .live_ids()
            .into_iter()
            .filter(|id| !roots.contains(id))
            .collect();
        if retired.is_empty() {
            return;
        }
        retired.sort_unstable();
        for &id in &retired {
            self.events.retire(id);
        }
        self.gc.events_retired += retired.len() as u64;
        sink.on_stores_retired(&retired);
    }

    // ------------------------------------------------------------------
    // Loads.
    // ------------------------------------------------------------------

    /// Performs a load of `len` bytes at `addr`, resolving the range as
    /// maximal byte *segments* served by the same source: (1) the thread's
    /// store buffer (TSO bypassing), (2) the current execution's cache, and
    /// (3) the persistent image left by earlier executions. Each touched
    /// cache line is looked up once in the cache, the storemap, the image,
    /// and the image provenance; segment bytes are copied with
    /// `extend_from_slice` rather than per-byte map probes. Cross-execution
    /// reads are collected into the outcome for the caller to report to the
    /// sink; acquire synchronization is applied here.
    pub fn exec_load(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        len: u64,
        atomicity: Atomicity,
        label: Label,
    ) -> LoadOutcome {
        self.stats.loads += 1;
        self.cov.record(SiteKind::Load, label).executed += 1;
        self.cvs[thread.as_usize()].tick(thread);
        let mut bypass = std::mem::take(&mut self.bypass_scratch);
        self.sbs[thread.as_usize()].bypass_bytes_into(addr, len, &mut bypass);
        let mut bytes = Vec::with_capacity(len as usize);
        let mut chosen = OrderedIdSet::default();
        let mut same_exec_sources = OrderedIdSet::default();
        let mut image_lines: Vec<CacheLineId> = Vec::new();
        let mut off = 0u64;
        while off < len {
            // One line-sized chunk: every per-line structure is resolved
            // with a single lookup here, and the byte walk below touches
            // only dense slabs.
            let at = addr + off;
            let line = at.cache_line();
            let base = at.line_offset() as usize;
            let take = ((pmem::CACHE_LINE_SIZE - at.line_offset()).min(len - off)) as usize;
            let cache_prov = self.cur.store_map.line(line);
            let cache_data = self.cur.cache.line(line);
            let img_data = self.image.line(line);
            let img_prov = self.image_prov.line(line);
            let chunk_bypass = &bypass[off as usize..off as usize + take];
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
                    let ev = self.events.get(id);
                    let start = ((at + i as u64) - ev.addr) as usize;
                    bytes.extend_from_slice(&ev.bytes[start..start + (j - i)]);
                    same_exec_sources.insert(id);
                    self.stats.bytes_from_bypass += (j - i) as u64;
                } else if cached(i) {
                    // Cache segment: committed bytes of the current
                    // execution, possibly from several distinct stores.
                    while j < take && chunk_bypass[j].is_none() && cached(j) {
                        j += 1;
                    }
                    let data = cache_data.expect("committed line has cache bytes");
                    bytes.extend_from_slice(&data[base + i..base + j]);
                    let prov = cache_prov.expect("cached() checked the slab");
                    // Consecutive bytes usually come from one store; only
                    // id transitions need the dedup structure.
                    let mut last = 0;
                    for &id in &prov[base + i..base + j] {
                        if id != last {
                            same_exec_sources.insert(id);
                            last = id;
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
                        Some(data) => bytes.extend_from_slice(&data[base + i..base + j]),
                        None => bytes.resize(bytes.len() + (j - i), 0),
                    }
                    if let Some(prov) = img_prov {
                        let mut last = 0;
                        for &id in &prov[base + i..base + j] {
                            if id != 0 && id != last {
                                chosen.insert(id);
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
                image_lines.push(line);
            }
            off += take as u64;
        }
        self.bypass_scratch = bypass;
        // Acquire synchronization from release stores actually read. The
        // event table and the clock vectors are disjoint fields, so the
        // joins need no clock clones.
        if atomicity.is_acquire() {
            let MemState { events, cvs, .. } = &mut *self;
            let cv = &mut cvs[thread.as_usize()];
            for id in same_exec_sources.iter().chain(chosen.iter()) {
                let ev = events.get(*id);
                if ev.atomicity.is_release() {
                    cv.join(&ev.cv);
                }
            }
        }
        // Candidate stores: everything in the most recent crashed
        // execution's not-definitely-persisted suffix of each touched line
        // that covers a loaded byte, plus the stores actually observed.
        let mut candidates = chosen.clone();
        if let Some(prev) = self.past.last() {
            for line in image_lines {
                let log = match prev.line_order.get(&line) {
                    Some(o) => o,
                    None => continue,
                };
                for &id in log.suffix_from(log.floor) {
                    self.stats.candidate_stores_scanned += 1;
                    let ev = self.events.get(id);
                    if ranges_overlap(ev.addr, ev.len(), addr, len) {
                        candidates.insert(id);
                    }
                }
            }
        }
        // Coverage: a load site that resolved at least one byte through a
        // recovered image store observed pre-crash state — the scenario
        // class persistency races live in.
        if !chosen.items.is_empty() {
            self.cov.record(SiteKind::Load, label).pre_crash += 1;
        }
        LoadOutcome {
            bytes,
            chosen: chosen.into_vec(),
            candidates: candidates.into_vec(),
        }
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
            exec: self.cur.id,
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
    ) -> (u64, bool, LoadOutcome) {
        self.stats.cas_ops += 1;
        self.cvs[thread.as_usize()].tick(thread);
        self.drain_sb(sink, thread);
        let fence_cv = self.cvs[thread.as_usize()].clone();
        self.fence_fb(sink, thread, &fence_cv);
        let outcome = self.exec_load(thread, addr, 8, Atomicity::ReleaseAcquire, label);
        let old = u64::from_le_bytes(outcome.bytes[..].try_into().expect("8 bytes"));
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
        (old, swapped, outcome)
    }

    // ------------------------------------------------------------------
    // Crash.
    // ------------------------------------------------------------------

    /// Crashes the current execution: store and flush buffers are lost, and
    /// for each cache line a prefix of its committed stores (at least the
    /// definitely-persisted floor, at most everything) is written to the
    /// persistent image per `policy`. Pushes a fresh execution.
    pub fn crash(&mut self, policy: PersistencePolicy, rng: &mut StdRng) {
        self.stats.crashes += 1;
        for sb in &mut self.sbs {
            sb.clear();
        }
        for fb in &mut self.fbs {
            fb.clear();
        }
        self.clwb_marks.clear();
        self.fences.clear();
        let mut lines: Vec<_> = self.cur.line_order.keys().copied().collect();
        lines.sort(); // determinism of rng consumption
        for line in lines {
            let log = &self.cur.line_order[&line];
            let floor = log.floor;
            // Cuts are logical indexes, so the RNG draws (and the persisted
            // prefix they denote) are identical whether or not streaming GC
            // already drained `log.retired` entries into the image.
            let cut = match policy {
                PersistencePolicy::FullCache => log.logical_len(),
                PersistencePolicy::FloorOnly => floor,
                PersistencePolicy::Random => rng.gen_range(floor..=log.logical_len()),
            };
            if cut == 0 {
                continue;
            }
            // Entries below `log.retired` were materialized eagerly when the
            // floor rose (cut ≥ floor ≥ retired, same per-line order), so
            // only the retained slice below the cut lands here.
            let keep = &log.order[..cut - log.retired];
            if keep.is_empty() {
                continue;
            }
            // Materialize the persisted prefix with per-line bulk copies:
            // the image line and its provenance slab are fetched once, and
            // each store (single-line by construction) lands with a
            // `copy_from_slice`/`fill` pair.
            let img_line = self.image.line_mut(line);
            let prov_line = self.image_prov.line_mut(line);
            for &id in keep {
                let ev = self.events.get(id);
                let lo = ev.addr.line_offset() as usize;
                let hi = lo + ev.bytes.len();
                img_line[lo..hi].copy_from_slice(&ev.bytes);
                prov_line[lo..hi].fill(id);
            }
        }
        // Flush events never outlive the buffers that referenced them.
        if self.gc_every.is_some() {
            self.gc.flushes_retired += self.flushes.len() as u64;
        }
        self.flushes.clear();
        let next_id = self.cur.id + 1;
        let old = std::mem::replace(&mut self.cur, ExecState::new(next_id));
        self.past.push(old);
        // Candidate scans only ever consult the *most recent* crashed
        // execution, so in streaming mode the one before it can drop its
        // cache, storemap, and line logs (its id stays for accounting).
        if self.gc_every.is_some() && self.past.len() >= 2 {
            let idx = self.past.len() - 2;
            let id = self.past[idx].id;
            self.past[idx] = ExecState::new(id);
        }
        self.fp.absorb(5);
        self.fp.absorb(next_id as u64);
        // Crash boundaries are natural publish points: the heartbeat sees
        // progress even when the next phase is load-heavy (loads don't pass
        // through `commit_entry`).
        self.tel_flush();
    }

    /// Full content fingerprint of everything a crash at this instant can
    /// materialize or a post-crash suffix can observe: the persistent image
    /// and its provenance, the current execution's cache/storemap/line
    /// logs (orders and persistence floors), and the per-thread buffers.
    /// No engine path calls it: it is the subject of yashbench's
    /// `--layers` fingerprint microbenchmark, which prices a full content
    /// hash against the rolling event-delta fingerprint pruning keeps.
    /// O(touched lines),
    /// amortized by the [`pmem::ArcMemo`] pointer fast path across
    /// snapshots.
    pub fn crash_state_fingerprint(&self, memo: &mut pmem::ArcMemo) -> u64 {
        let mut fp = pmem::Fp64::new();
        fp.absorb(self.image.fingerprint(memo));
        fp.absorb(self.image_prov.fingerprint(memo));
        fp.absorb(self.cur.cache.fingerprint(memo));
        fp.absorb(self.cur.store_map.fingerprint(memo));
        fp.absorb(self.cur.id as u64);
        // Per-line logs: XOR-combined so map iteration order cannot leak
        // into the value.
        let mut logs = 0u64;
        for (line, log) in &self.cur.line_order {
            let mut inner = pmem::Fp64::new();
            inner.absorb(log.retired as u64);
            inner.absorb(log.floor as u64);
            for &id in &log.order {
                inner.absorb(id);
            }
            logs ^= pmem::mix64(line.0 ^ pmem::mix64(inner.value()));
        }
        fp.absorb(logs);
        fp.absorb(self.cvs.len() as u64);
        for sb in &self.sbs {
            fp.absorb(sb.fingerprint());
        }
        for fb in &self.fbs {
            fp.absorb(fb.fingerprint());
        }
        fp.value()
    }

    /// Direct read of the persistent image (for assertions in tests).
    pub fn image(&self) -> &PmImage {
        &self.image
    }

    /// The store event that produced the persisted byte at `addr`, if any
    /// (for differential tests).
    pub fn image_prov_at(&self, addr: Addr) -> Option<EventId> {
        self.image_prov.get(addr)
    }

    /// The most recent committed store covering `addr` in the current
    /// execution's cache, if any.
    pub fn store_map_at(&self, addr: Addr) -> Option<EventId> {
        self.cur.store_map.get(addr)
    }

    /// Number of executions so far (current one included).
    pub fn exec_count(&self) -> usize {
        self.past.len() + 1
    }
}

/// The most recent committed store for each byte of `line`, de-duplicated in
/// first-appearance byte order (not id order: a later store may sit at a
/// lower offset). One slab lookup, then a dense scan that checks membership
/// only where the id changes between adjacent bytes.
fn line_store_refs<'a>(
    events: &'a EventTable,
    store_map: &ProvenanceMap,
    line: CacheLineId,
) -> Vec<&'a StoreEvent> {
    let Some(slab) = store_map.line(line) else {
        return Vec::new();
    };
    let (ids, n) = distinct_slab_ids(slab);
    ids[..n].iter().map(|&id| events.get(id)).collect()
}

/// The distinct nonzero ids of `slab` in first-appearance order, as a stack
/// array and its used length.
fn distinct_slab_ids(slab: &ProvLine) -> (ProvLine, usize) {
    let mut ids: ProvLine = [0; pmem::CACHE_LINE_SIZE as usize];
    let mut n = 0;
    let mut last = 0;
    for &id in slab {
        if id != last {
            last = id;
            if id != 0 && !ids[..n].contains(&id) {
                ids[n] = id;
                n += 1;
            }
        }
    }
    (ids, n)
}

/// Above this size, membership checks spill from a linear scan into a hash
/// set. Most loads see a handful of source stores, so the common case stays
/// allocation-free beyond the inline vector.
const LINEAR_DEDUP_MAX: usize = 16;

/// An insertion-ordered set of event ids.
///
/// Replaces the old `push_unique` linear probes (O(k²) across k insertions):
/// small sets dedup by scanning the vector, larger ones by a spilled
/// [`FastSet`] index, while the vector preserves first-insertion order so
/// sink reporting stays byte-identical to the byte-at-a-time implementation.
#[derive(Debug, Clone, Default)]
struct OrderedIdSet {
    items: Vec<EventId>,
    index: Option<FastSet<EventId>>,
}

impl OrderedIdSet {
    /// Inserts `id`, returning `true` if it was new.
    fn insert(&mut self, id: EventId) -> bool {
        match &mut self.index {
            Some(index) => {
                if !index.insert(id) {
                    return false;
                }
                self.items.push(id);
            }
            None => {
                if self.items.contains(&id) {
                    return false;
                }
                self.items.push(id);
                if self.items.len() > LINEAR_DEDUP_MAX {
                    self.index = Some(self.items.iter().copied().collect());
                }
            }
        }
        true
    }

    /// Iterates in insertion order.
    fn iter(&self) -> std::slice::Iter<'_, EventId> {
        self.items.iter()
    }

    /// The ids in insertion order.
    fn into_vec(self) -> Vec<EventId> {
        self.items
    }
}

fn ranges_overlap(a: Addr, a_len: u64, b: Addr, b_len: u64) -> bool {
    a < b + b_len && b < a + a_len
}

#[cfg(test)]
mod tests {
    use super::*;
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
            (m.fingerprint(), out.bytes, out.chosen, out.candidates)
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
    fn a_crash_drops_buffered_sfences() {
        let mut m = mem();
        let t = m.register_thread(None);
        m.exec_sfence(t, "sf");
        assert_eq!(m.fences.len(), 1);
        m.crash(PersistencePolicy::FullCache, &mut rng());
        assert!(m.fences.is_empty(), "forks after the crash would clone it");
    }

    /// The per-byte walk `line_store_refs` replaced: every nonzero byte
    /// goes through `OrderedIdSet::insert`. Kept as the order reference.
    fn per_byte_line_ids(slab: &ProvLine) -> Vec<EventId> {
        let mut seen = OrderedIdSet::default();
        for &id in slab {
            if id != 0 {
                seen.insert(id);
            }
        }
        seen.into_vec()
    }

    /// The ids `line_store_refs` returns for a line holding `slab`.
    fn line_store_ids(slab: &ProvLine) -> Vec<EventId> {
        let line = Addr(0x1000).cache_line();
        let mut prov = ProvenanceMap::new();
        *prov.line_mut(line) = *slab;
        let mut ids: Vec<EventId> = slab.iter().copied().filter(|&id| id != 0).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut events = EventTable::default();
        for id in ids {
            events.insert(
                id,
                StoreEvent {
                    id,
                    exec: 0,
                    thread: ThreadId::MAIN,
                    cv: VectorClock::new(),
                    clock: 0,
                    atomicity: Atomicity::Plain,
                    addr: line.base(),
                    bytes: [0u8][..].into(),
                    invented: false,
                    label: "",
                    seq: None,
                },
            );
        }
        let refs = line_store_refs(&events, &prov, line);
        refs.iter().map(|s| s.id).collect()
    }

    /// A slab built the way commits build one: byte ranges overwritten by
    /// stores whose ids arrive in no particular order.
    fn slab_from_writes(writes: &[(u64, u64, EventId)]) -> ProvLine {
        let mut slab = [0; pmem::CACHE_LINE_SIZE as usize];
        for &(off, len, id) in writes {
            let end = (off + len).min(pmem::CACHE_LINE_SIZE) as usize;
            slab[off as usize..end].fill(id);
        }
        slab
    }

    #[test]
    fn line_store_refs_keeps_first_appearance_order_past_the_spill_threshold() {
        // 64 distinct ids, descending with the offset: four times the
        // linear-dedup threshold, and the reverse of id order.
        let mut slab = [0; pmem::CACHE_LINE_SIZE as usize];
        for (off, id) in slab.iter_mut().enumerate() {
            *id = 100 - off as EventId;
        }
        assert_eq!(line_store_ids(&slab), per_byte_line_ids(&slab));
        assert_eq!(line_store_ids(&slab)[..3], [100, 99, 98]);
        assert!(line_store_ids(&[0; pmem::CACHE_LINE_SIZE as usize]).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn line_store_refs_matches_the_per_byte_walk_on_random_slabs(
            bytes in proptest::collection::vec(
                proptest::prop_oneof![1 => 0u64..1, 3 => 1u64..48],
                64,
            ),
        ) {
            let slab: ProvLine = bytes.try_into().expect("64 bytes");
            proptest::prop_assert_eq!(line_store_ids(&slab), per_byte_line_ids(&slab));
        }

        #[test]
        fn line_store_refs_matches_the_per_byte_walk_on_committed_runs(
            writes in proptest::collection::vec((0u64..64, 1u64..=16, 1u64..200), 0..28),
        ) {
            let slab = slab_from_writes(&writes);
            proptest::prop_assert_eq!(line_store_ids(&slab), per_byte_line_ids(&slab));
        }
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

    #[test]
    fn exec_count_tracks_crashes() {
        let mut m = mem();
        assert_eq!(m.exec_count(), 1);
        m.crash(PersistencePolicy::FullCache, &mut rng());
        assert_eq!(m.exec_count(), 2);
        assert_eq!(m.cur.id, 1);
    }
}
