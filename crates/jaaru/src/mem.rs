//! The simulated memory system: store buffers, cache, persistent image, and
//! the execution stack.
//!
//! This module implements the storage-system side of §6: instruction
//! execution inserts entries into per-thread store buffers (Fig. 7), buffer
//! eviction takes effect on the cache, appending each committed store to
//! its line's store log (Fig. 8), and a crash discards the buffers and the volatile cache,
//! materializing into the persistent image a per-line *prefix* of the
//! committed stores (cache coherence guarantees persistence is prefix-closed
//! per line, §4.1).

use std::sync::Arc;
use std::time::Instant;

use compiler_model::{CompilerConfig, SourceWrite};
use obs::telemetry::{Count, Telemetry, WallPhase};
use pmem::{Addr, CacheLineId, CowBox, CowCount, FastMap, FastSet, Forkable, PmAllocator};
use px86::{Atomicity, FbEntry, FlushBuffer, SbEntry, SbStore, StoreBuffer};
use rand::rngs::StdRng;
use rand::Rng;
use vclock::{ThreadId, VectorClock};

use obs::coverage::{SiteKind, SiteTable};

use crate::event::{EventId, ExecId, FlushEvent, FlushKind, Label, LoadInfo, StoreEvent};
use crate::id_table::IdTable;
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

/// 8-byte words per cache line.
const WORDS_PER_LINE: usize = (pmem::CACHE_LINE_SIZE / 8) as usize;

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
    /// Retained committed stores, in cache commit order: these sit at logical
    /// indexes `retired..retired + order.len()`.
    order: Vec<EventId>,
}

impl LineLog {
    /// A new line's log, with room for one store per 8-byte word: a
    /// `memset` or `memcpy` of the whole line fills it with one allocation.
    fn presized() -> Self {
        LineLog {
            order: Vec::with_capacity(WORDS_PER_LINE),
            ..LineLog::default()
        }
    }

    fn logical_len(&self) -> usize {
        self.retired + self.order.len()
    }

    /// Retained entries at logical index `from` and above.
    fn suffix_from(&self, from: usize) -> &[EventId] {
        &self.order[(from.max(self.retired) - self.retired).min(self.order.len())..]
    }
}

/// One cache line's worth of per-byte provenance: the store event that
/// produced each byte, `0` where none did (event ids start at 1).
type ProvLine = [EventId; pmem::CACHE_LINE_SIZE as usize];

/// The bytes copied when a shared line record is copied, counted as the
/// two slabs a record holds: 64 data bytes and 64 provenance ids.
const LINE_COW_BYTES: u64 = pmem::CACHE_LINE_SIZE + std::mem::size_of::<ProvLine>() as u64;

/// One cache line of memory contents: its bytes, and for each byte the
/// store event that produced it. A persistent-image line holds just this;
/// an execution's cache line adds its store log ([`ExecLine`]).
#[derive(Debug, Clone)]
struct LineSlabs {
    bytes: [u8; pmem::CACHE_LINE_SIZE as usize],
    prov: ProvLine,
}

impl Default for LineSlabs {
    fn default() -> Self {
        LineSlabs {
            bytes: [0; pmem::CACHE_LINE_SIZE as usize],
            prov: [0; pmem::CACHE_LINE_SIZE as usize],
        }
    }
}

impl LineSlabs {
    /// Writes `ev`'s bytes (single-line by construction) and marks them as
    /// produced by it.
    fn write(&mut self, ev: &StoreEvent) {
        let lo = ev.addr.line_offset() as usize;
        let hi = lo + ev.bytes.len();
        self.bytes[lo..hi].copy_from_slice(&ev.bytes);
        self.prov[lo..hi].fill(ev.id);
    }

    /// The store that produced the byte at `offset`, if any.
    fn prov_at(&self, offset: u64) -> Option<EventId> {
        let id = self.prov[offset as usize];
        (id != 0).then_some(id)
    }

    /// Visits every recorded id, deduplicating consecutive runs (an id
    /// recorded in disjoint runs is visited more than once).
    fn for_each_id(&self, mut f: impl FnMut(EventId)) {
        let mut last = 0;
        for &id in &self.prov {
            if id != 0 && id != last {
                f(id);
                last = id;
            }
        }
    }

    /// Content hash of the bytes and their provenance.
    fn content_hash(&self) -> u64 {
        let mut fp = pmem::Fp64::new();
        fp.absorb(pmem::fingerprint::hash_bytes(&self.bytes));
        fp.absorb(pmem::fingerprint::hash_words(&self.prov));
        fp.value()
    }
}

/// One cache line of an execution: its committed bytes, their storemap
/// provenance, and the line's committed-store log, in one copy-on-write
/// record so a commit finds all three with one lookup and copies at most
/// once after a snapshot.
#[derive(Debug, Clone, Default)]
struct ExecLine {
    slabs: LineSlabs,
    log: LineLog,
}

/// Lines keyed by id, each a copy-on-write record.
type LineMap<T> = FastMap<CacheLineId, CowBox<T>>;

/// Shares every record of `lines` with the returned copy: the first write
/// to a record on either side copies that one record.
fn fork_lines<T: Clone + Default>(lines: &mut LineMap<T>) -> LineMap<T> {
    for record in lines.values_mut() {
        record.make_shared();
    }
    lines.clone()
}

/// Writable access to one line record. A record shared with a snapshot is
/// copied first, and the copy counted in `cow` as the two slabs it
/// replaces.
fn write_line<'a, T: Clone>(record: &'a mut CowBox<T>, cow: &mut CowCount) -> &'a mut T {
    let (record, copied) = record.make_mut();
    cow.add_if(copied, 2, LINE_COW_BYTES);
    record
}

/// [`write_line`] on `line`'s record, created by `new` on first touch.
fn line_mut<'a, T: Clone>(
    lines: &'a mut LineMap<T>,
    cow: &mut CowCount,
    line: CacheLineId,
    new: impl FnOnce() -> T,
) -> &'a mut T {
    write_line(lines.entry(line).or_insert_with(|| CowBox::new(new())), cow)
}

/// Per-execution storage state: the volatile cache and its bookkeeping.
#[derive(Debug, Default)]
pub struct ExecState {
    /// This execution's id.
    pub id: ExecId,
    /// Every line with a committed store: its cache bytes, its `storemap`
    /// (the most recent committed store covering each byte) and its
    /// committed-store log, in one record.
    lines: LineMap<ExecLine>,
    /// Copy-on-write copies of `lines` records made by this execution.
    cow: CowCount,
}

impl ExecState {
    fn new(id: ExecId) -> Self {
        ExecState {
            id,
            ..ExecState::default()
        }
    }

    /// Writable access to `line`'s record, created with a presized log.
    fn line_mut(&mut self, line: CacheLineId) -> &mut ExecLine {
        line_mut(&mut self.lines, &mut self.cow, line, || ExecLine {
            slabs: LineSlabs::default(),
            log: LineLog::presized(),
        })
    }

    /// `line`'s committed-store log, if it has a committed store.
    fn log(&self, line: CacheLineId) -> Option<&LineLog> {
        self.lines.get(&line).map(|l| &l.log)
    }
}

impl Forkable for ExecState {
    fn fork(&mut self) -> Self {
        ExecState {
            id: self.id,
            lines: fork_lines(&mut self.lines),
            cow: CowCount::default(),
        }
    }
}

/// Store events by id: every store event still live, across executions.
/// With GC off nothing retires and the table simply grows.
type EventTable = IdTable<StoreEvent>;

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
    /// Event table: all store events, across executions.
    events: EventTable,
    /// Flushes and fences still in flight, by event id.
    pending: IdTable<Pending>,
    next_event: EventId,
    // Per-thread machine state (indexed by ThreadId).
    sbs: Vec<StoreBuffer>,
    fbs: Vec<FlushBuffer>,
    cvs: Vec<VectorClock>,
    /// Current execution.
    pub cur: ExecState,
    /// Crashed executions, oldest first.
    pub past: Vec<ExecState>,
    /// Persistent storage contents: each persisted line's bytes and the
    /// store event that produced each byte, in one record per line.
    image: LineMap<LineSlabs>,
    /// Copy-on-write copies of `image` records made by this memory system.
    image_cow: CowCount,
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
    /// Line records (bytes, provenance and store log of each line) and
    /// buffer queues are shared copy-on-write: this memory system's owned
    /// storage becomes shared, so its next write to a captured record
    /// copies it instead of changing the snapshot. The id indexes of the
    /// event table and of the pending flush and fence table are shared the
    /// same way, chunk by chunk. The rest of the per-event bookkeeping (the
    /// tables' records, vector clocks) is cloned outright — it is
    /// proportional to the live events, not to the bytes of simulated PM.
    /// The load, eviction and fence scratch buffers are transient and start
    /// empty in the fork.
    /// GC work counters (passes, retirements, reused slots) start at zero:
    /// the prefix's GC work is the capturing run's, and counting it again
    /// in every resumed suffix would double-count it.
    fn fork(&mut self) -> Self {
        MemState {
            compiler: self.compiler,
            events: self.events.fork(),
            pending: self.pending.fork(),
            next_event: self.next_event,
            sbs: self.sbs.iter_mut().map(Forkable::fork).collect(),
            fbs: self.fbs.iter_mut().map(Forkable::fork).collect(),
            cvs: self.cvs.clone(),
            cur: self.cur.fork(),
            past: self.past.iter_mut().map(Forkable::fork).collect(),
            image: fork_lines(&mut self.image),
            image_cow: CowCount::default(),
            load: None,
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
            events: EventTable::default(),
            pending: IdTable::default(),
            next_event: 1,
            sbs: Vec::new(),
            fbs: Vec::new(),
            cvs: Vec::new(),
            cur: ExecState::new(0),
            past: Vec::new(),
            image: LineMap::default(),
            image_cow: CowCount::default(),
            load: None,
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
        gc.peak_live_events = self.events.peak() as u64;
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
        let total: CowCount = std::iter::once(&self.cur)
            .chain(&self.past)
            .map(|e| e.cow)
            .chain([self.image_cow])
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
        &self.events[id]
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
                exec: self.cur.id,
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
        let (exec, cvs) = (self.cur.id, &self.cvs);
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
        id
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
                let line = s.addr.cache_line();
                // Write the line's cache bytes, storemap and log in one
                // record. Disjoint field borrows let the record copy
                // straight out of the event table without cloning the bytes.
                let MemState {
                    events,
                    cur,
                    stats,
                    fp,
                    cov,
                    ..
                } = self;
                let event = &events[s.id];
                debug_assert_eq!(event.len(), s.len);
                let record = cur.line_mut(line);
                record.slabs.write(event);
                record.log.order.push(s.id);
                stats.stores_committed += 1;
                cov.record(SiteKind::Store, event.label).committed += 1;
                // A committed store always changes the crash state (it joins
                // the line's persistable prefix).
                fp.absorb(1);
                fp.absorb(line.0);
                fp.absorb(s.id);
                sink.on_store_committed(event);
                self.commits_since_gc += 1;
                self.maybe_gc(sink);
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
                with_line_stores(&self.events, self.cur.lines.get(&line), |stores| {
                    sink.on_clflush_committed(&flush, stores)
                });
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
            with_line_stores(&self.events, self.cur.lines.get(&line), |stores| {
                sink.on_clwb_fenced(&clwb, fence_cv, stores)
            });
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
    /// equivalence classes. Coverage classifies the flush and credits the
    /// stores whose prefix it just persisted before `materialize_floor` can
    /// retire those entries from the log.
    #[inline]
    fn persist_floor(&mut self, line: CacheLineId, upto: usize, tag: u64, label: Label) {
        let prev = self.raise_floor(line, upto);
        if upto > prev {
            self.fp.absorb(tag);
            self.fp.absorb(line.0);
            self.fp.absorb(upto as u64);
        }
        self.cov_floor_raise(label, line, prev, upto);
        self.materialize_floor(line);
        if self.gc_every.is_some() {
            self.gc.flushes_retired += 1;
        }
    }

    /// Logical length of `line`'s committed-store log (0 if never written).
    fn committed_len(&self, line: CacheLineId) -> usize {
        self.cur.log(line).map_or(0, LineLog::logical_len)
    }

    /// Raises `line`'s persistence floor to at least `to`, returning the old
    /// floor. A line with no log has floor 0, and `to` is then 0 too (it was
    /// measured on this execution's log), so there is nothing to record. A
    /// flush that does not raise the floor writes nothing, so it never
    /// copies a record shared with a snapshot.
    fn raise_floor(&mut self, line: CacheLineId, to: usize) -> usize {
        let Some(record) = self.cur.lines.get_mut(&line) else {
            debug_assert_eq!(to, 0, "a floor above 0 needs a committed store");
            return 0;
        };
        let prev = record.log.floor;
        if to > prev {
            write_line(record, &mut self.cur.cow).log.floor = to;
        }
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
        if let Some(log) = cur.log(line) {
            let newly = &log.suffix_from(prev)[..new - prev.max(log.retired)];
            for &id in newly {
                cov.record(SiteKind::Store, events[id].label).persisted += 1;
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
            image_cow,
            gc,
            ..
        } = self;
        let Some(record) = cur.lines.get_mut(&line) else {
            return;
        };
        let log = &record.log;
        if log.floor <= log.retired || log.order.is_empty() {
            return;
        }
        let n = (log.floor - log.retired).min(log.order.len());
        let img_line = line_mut(image, image_cow, line, LineSlabs::default);
        for &id in &log.order[..n] {
            img_line.write(&events[id]);
        }
        let log = &mut write_line(record, &mut cur.cow).log;
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
        for record in self.cur.lines.values() {
            record.slabs.for_each_id(|id| {
                roots.insert(id);
            });
            roots.extend(record.log.order.iter().copied());
        }
        for record in self.image.values() {
            record.for_each_id(|id| {
                roots.insert(id);
            });
        }
        if let Some(prev) = self.past.last() {
            for record in prev.lines.values() {
                roots.extend(record.log.order.iter().copied());
            }
        }
        for sb in &self.sbs {
            for entry in sb.iter() {
                if let SbEntry::Store(s) = entry {
                    roots.insert(s.id);
                }
            }
        }
        let retired: Vec<EventId> = self.events.ids().filter(|id| !roots.contains(id)).collect();
        if retired.is_empty() {
            return;
        }
        for &id in &retired {
            self.events.remove(id);
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
            let cache = self.cur.lines.get(&line).map(|l| &l.slabs);
            let cache_prov = cache.map(|l| &l.prov);
            let cache_data = cache.map(|l| &l.bytes);
            let img = self.image.get(&line);
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
                    let ev = &self.events[id];
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
                let ev = &self.events[id];
                if ev.atomicity.is_release() {
                    cv.join(&ev.cv);
                }
            }
        }
        // Candidate stores: everything in the most recent crashed
        // execution's not-definitely-persisted suffix of each touched line
        // that covers a loaded byte, plus the stores actually observed.
        s.candidates.copy_from(&s.chosen);
        if let Some(prev) = self.past.last() {
            for line in &s.image_lines {
                let Some(log) = prev.log(*line) else {
                    continue;
                };
                for &id in log.suffix_from(log.floor) {
                    self.stats.candidate_stores_scanned += 1;
                    let ev = &self.events[id];
                    if ranges_overlap(ev.addr, ev.len(), addr, len) {
                        s.candidates.insert(id);
                    }
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

    /// Calls `f` with the store events of `ids`, in order (see
    /// [`with_event_refs`]).
    pub(crate) fn with_store_refs<R>(
        &self,
        ids: &[EventId],
        f: impl FnOnce(&[&StoreEvent]) -> R,
    ) -> R {
        with_event_refs(&self.events, ids, f)
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
    /// persistent image per `policy`. Pushes a fresh execution.
    pub fn crash(&mut self, policy: PersistencePolicy, rng: &mut StdRng) {
        self.stats.crashes += 1;
        for sb in &mut self.sbs {
            sb.clear();
        }
        for fb in &mut self.fbs {
            fb.clear();
        }
        // Flush events never outlive the buffers that referenced them.
        if self.gc_every.is_some() {
            self.gc.flushes_retired += self
                .pending
                .values()
                .filter(|p| matches!(p, Pending::Flush { .. }))
                .count() as u64;
        }
        self.pending.clear();
        let mut lines: Vec<_> = self.cur.lines.keys().copied().collect();
        lines.sort(); // determinism of rng consumption
        for line in lines {
            let log = &self.cur.lines[&line].log;
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
            // the image record is fetched once, and each store
            // (single-line by construction) lands with a
            // `copy_from_slice`/`fill` pair.
            let img_line = line_mut(
                &mut self.image,
                &mut self.image_cow,
                line,
                LineSlabs::default,
            );
            for &id in keep {
                img_line.write(&self.events[id]);
            }
        }
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
    /// and its provenance, the current execution's lines (cache bytes,
    /// storemap, store logs and persistence floors), and the per-thread
    /// buffers. No engine path calls it: it is the subject of yashbench's
    /// `--layers` fingerprint microbenchmark, which prices a full content
    /// hash against the rolling event-delta fingerprint pruning keeps.
    /// O(touched lines), amortized by the [`pmem::ArcMemo`] address fast
    /// path across snapshots that share line records.
    pub fn crash_state_fingerprint(&self, memo: &mut pmem::ArcMemo) -> u64 {
        // Per-line hashes are XOR-combined so map iteration order cannot
        // leak into the value.
        let mut image = 0u64;
        for (line, record) in &self.image {
            let content = memo.memoize(&**record, LineSlabs::content_hash);
            image ^= pmem::mix64(line.0 ^ pmem::mix64(content));
        }
        let mut lines = 0u64;
        for (line, record) in &self.cur.lines {
            let content = memo.memoize(&**record, |r| {
                let mut inner = pmem::Fp64::new();
                inner.absorb(r.slabs.content_hash());
                inner.absorb(r.log.retired as u64);
                inner.absorb(r.log.floor as u64);
                for &id in &r.log.order {
                    inner.absorb(id);
                }
                inner.value()
            });
            lines ^= pmem::mix64(line.0 ^ pmem::mix64(content));
        }
        let mut fp = pmem::Fp64::new();
        fp.absorb(image);
        fp.absorb(lines);
        fp.absorb(self.cur.id as u64);
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
        self.image
            .get(&addr.cache_line())
            .map_or(0, |l| l.bytes[addr.line_offset() as usize])
    }

    /// The store event that produced the persisted byte at `addr`, if any
    /// (for differential tests).
    pub fn image_prov_at(&self, addr: Addr) -> Option<EventId> {
        let record = self.image.get(&addr.cache_line())?;
        record.prov_at(addr.line_offset())
    }

    /// The most recent committed store covering `addr` in the current
    /// execution's cache, if any.
    pub fn store_map_at(&self, addr: Addr) -> Option<EventId> {
        let record = self.cur.lines.get(&addr.cache_line())?;
        record.slabs.prov_at(addr.line_offset())
    }
}

/// Calls `f` with the most recent committed store for each byte of `line`,
/// de-duplicated in first-appearance byte order (not id order: a later store
/// may sit at a lower offset). One slab lookup, then a dense scan that
/// checks membership only where the id changes between adjacent bytes.
fn with_line_stores<R>(
    events: &EventTable,
    line: Option<&CowBox<ExecLine>>,
    f: impl FnOnce(&[&StoreEvent]) -> R,
) -> R {
    let Some(line) = line else {
        return f(&[]);
    };
    let (ids, n) = distinct_slab_ids(&line.slabs.prov);
    with_event_refs(events, &ids[..n], f)
}

/// Calls `f` with the events of `ids`, in order. Up to one line's worth of
/// distinct stores (64) are gathered in a stack array, so flush commits,
/// fence drains and most pre-crash reads allocate nothing; the array starts
/// out filled with the first event, which keeps it free of uninitialized
/// slots.
fn with_event_refs<R>(
    events: &EventTable,
    ids: &[EventId],
    f: impl FnOnce(&[&StoreEvent]) -> R,
) -> R {
    const STACK_REFS: usize = pmem::CACHE_LINE_SIZE as usize;
    let Some(&first) = ids.first() else {
        return f(&[]);
    };
    if ids.len() > STACK_REFS {
        let refs: Vec<&StoreEvent> = ids.iter().map(|&id| &events[id]).collect();
        return f(&refs);
    }
    let mut refs = [&events[first]; STACK_REFS];
    for (slot, &id) in refs.iter_mut().zip(ids).skip(1) {
        *slot = &events[id];
    }
    f(&refs[..ids.len()])
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
    fn a_crash_drops_buffered_sfences() {
        let mut m = mem();
        let t = m.register_thread(None);
        m.exec_sfence(t, "sf");
        assert_eq!(m.pending.len(), 1);
        m.crash(PersistencePolicy::FullCache, &mut rng());
        assert_eq!(m.pending.len(), 0, "forks after the crash would clone it");
    }

    /// The per-byte walk `with_line_stores` replaced: every nonzero byte
    /// goes through `OrderedIdSet::insert`. Kept as the order reference.
    fn per_byte_line_ids(slab: &ProvLine) -> Vec<EventId> {
        let mut seen = OrderedIdSet::default();
        for &id in slab {
            if id != 0 {
                seen.insert(id);
            }
        }
        seen.items
    }

    /// The ids `with_line_stores` passes on for a line holding `slab`.
    fn line_store_ids(slab: &ProvLine) -> Vec<EventId> {
        let line = Addr(0x1000).cache_line();
        let mut record = ExecLine::default();
        record.slabs.prov = *slab;
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
                },
            );
        }
        with_line_stores(&events, Some(&CowBox::new(record)), |refs| {
            refs.iter().map(|s| s.id).collect()
        })
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
        let floor = |m: &MemState, at: Addr| m.cur.log(at.cache_line()).expect("written").floor;
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
