//! A byte-at-a-time reference model of the memory system.
//!
//! This is the pre-line-slab implementation of [`MemState`](jaaru::MemState)
//! retained verbatim in spirit: the storemap and image provenance are
//! `HashMap<Addr, EventId>` with one entry per byte, the persistent image is
//! probed one `read_u8`/`write_u8` at a time, loads resolve byte by byte,
//! and source-set de-duplication uses linear `push_unique` scans.
//!
//! It exists for the differential property test (`mem_ref_model.rs`),
//! which drives random operation sequences through this model and the
//! line-granular [`MemState`](jaaru::MemState) and asserts identical bytes,
//! provenance, and candidate sets — pinning the optimized representation to
//! the simple semantics. It lives on the test side: no library code uses it.
//!
//! The model deliberately performs the same clock ticks, event-id draws, and
//! rng draws as `MemState`, so event ids and crash cuts are directly
//! comparable between the two.

use std::collections::HashMap;

use compiler_model::{CompilerConfig, SourceWrite};
use pmem::{Addr, CacheLineId, PmImage};
use px86::{ordering_constraint, Atomicity, FbEntry, FlushBuffer, SbEntry, SbStore, StoreBuffer};
use rand::rngs::StdRng;
use rand::Rng;
use vclock::{ThreadId, VectorClock};

use jaaru::{EventId, ExecId, Label, PersistencePolicy, StoreEvent};

/// An owned load outcome (the model's counterpart of
/// [`jaaru::LoadOutcome`], which borrows `MemState`'s reused storage).
#[derive(Debug, Clone)]
pub struct RefLoad {
    /// The bytes observed.
    pub bytes: Vec<u8>,
    /// Distinct prior-execution stores whose bytes were observed.
    pub chosen: Vec<EventId>,
    /// All candidate prior-execution stores the load could have observed.
    pub candidates: Vec<EventId>,
}

/// Per-execution storage state of the reference model.
#[derive(Debug, Default)]
struct RefExecState {
    id: ExecId,
    cache: PmImage,
    /// The byte-granular storemap: one map entry per committed byte.
    store_map: HashMap<Addr, EventId>,
    line_order: HashMap<CacheLineId, Vec<EventId>>,
    persisted_upto: HashMap<CacheLineId, usize>,
}

impl RefExecState {
    fn new(id: ExecId) -> Self {
        RefExecState {
            id,
            ..RefExecState::default()
        }
    }
}

/// The byte-at-a-time memory system. See the module docs.
pub struct RefMemState {
    compiler: CompilerConfig,
    events: HashMap<EventId, StoreEvent>,
    next_event: EventId,
    next_seq: u64,
    sbs: Vec<StoreBuffer>,
    fbs: Vec<FlushBuffer>,
    cvs: Vec<VectorClock>,
    clwb_marks: HashMap<EventId, usize>,
    fence_cvs: HashMap<EventId, VectorClock>,
    cur: RefExecState,
    past: Vec<RefExecState>,
    image: PmImage,
    /// Byte-granular image provenance: one map entry per persisted byte.
    image_prov: HashMap<Addr, EventId>,
}

impl std::fmt::Debug for RefMemState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefMemState")
            .field("exec", &self.cur.id)
            .field("events", &self.events.len())
            .finish()
    }
}

impl RefMemState {
    /// Creates a fresh reference memory system.
    pub fn new(compiler: CompilerConfig) -> Self {
        RefMemState {
            compiler,
            events: HashMap::new(),
            next_event: 1,
            next_seq: 1,
            sbs: Vec::new(),
            fbs: Vec::new(),
            cvs: Vec::new(),
            clwb_marks: HashMap::new(),
            fence_cvs: HashMap::new(),
            cur: RefExecState::new(0),
            past: Vec::new(),
            image: PmImage::new(),
            image_prov: HashMap::new(),
        }
    }

    /// Registers a new thread (mirrors `MemState::register_thread`).
    pub fn register_thread(&mut self, parent: Option<ThreadId>) -> ThreadId {
        let tid = ThreadId::new(self.cvs.len() as u32);
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

    /// Executes a source-level store (mirrors `MemState::exec_store`, sans
    /// sink).
    pub fn exec_store(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        bytes: &[u8],
        atomicity: Atomicity,
        label: Label,
    ) {
        for chunk in self
            .compiler
            .lower(addr, SourceWrite::Store(bytes, atomicity))
        {
            self.push_store_chunks(thread, chunk.addr, &chunk.bytes, atomicity, label);
        }
    }

    fn push_store_chunks(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        bytes: &[u8],
        atomicity: Atomicity,
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
                invented: false,
                label,
                seq: None,
            };
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
    pub fn exec_clflush(&mut self, thread: ThreadId, addr: Addr) {
        self.cvs[thread.as_usize()].tick(thread);
        let id = self.fresh_event_id();
        self.sbs[thread.as_usize()].push(SbEntry::Clflush { addr, id });
    }

    /// Executes a `clwb` (enters the store buffer).
    pub fn exec_clwb(&mut self, thread: ThreadId, addr: Addr) {
        self.cvs[thread.as_usize()].tick(thread);
        let id = self.fresh_event_id();
        self.sbs[thread.as_usize()].push(SbEntry::Clwb { addr, id });
    }

    /// Executes an `sfence` (enters the store buffer).
    pub fn exec_sfence(&mut self, thread: ThreadId) {
        self.cvs[thread.as_usize()].tick(thread);
        let id = self.fresh_event_id();
        self.fence_cvs
            .insert(id, self.cvs[thread.as_usize()].clone());
        self.sbs[thread.as_usize()].push(SbEntry::Sfence { id });
    }

    /// Executes an `mfence` (drains the store buffer, fences the flush
    /// buffer).
    pub fn exec_mfence(&mut self, thread: ThreadId) {
        self.cvs[thread.as_usize()].tick(thread);
        self.drain_sb(thread);
        self.fence_fb(thread);
    }

    /// Positions in `thread`'s store buffer that may legally evict next,
    /// straight from Table 1: an entry may exit iff it may overtake every
    /// entry ahead of it.
    pub fn evictable(&self, thread: ThreadId) -> Vec<usize> {
        let entries: Vec<&SbEntry> = self.sbs[thread.as_usize()].iter().collect();
        (0..entries.len())
            .filter(|&i| {
                entries[..i].iter().all(|earlier| {
                    // No CL cell involves sfence, the one entry without a line.
                    let same_line = earlier.line() == entries[i].line();
                    ordering_constraint(earlier.kind(), entries[i].kind()).allows_reorder(same_line)
                })
            })
            .collect()
    }

    /// Evicts the entry at `position` of `thread`'s store buffer.
    pub fn evict_one(&mut self, thread: ThreadId, position: usize) {
        let entry = self.sbs[thread.as_usize()].evict(position);
        self.commit_entry(thread, entry);
    }

    /// Drains `thread`'s store buffer in program order.
    pub fn drain_sb(&mut self, thread: ThreadId) {
        while let Some(entry) = self.sbs[thread.as_usize()].evict_head() {
            self.commit_entry(thread, entry);
        }
    }

    fn commit_entry(&mut self, thread: ThreadId, entry: SbEntry) {
        match entry {
            SbEntry::Store(s) => {
                let seq = self.fresh_seq();
                let event = self.events.get_mut(&s.id).expect("store event exists");
                event.seq = Some(seq);
                let line = s.addr.cache_line();
                // The historic byte loop: clone the bytes, write each one,
                // insert one storemap entry per byte.
                let bytes = event.bytes.clone();
                for (i, &b) in bytes.iter().enumerate() {
                    self.cur.cache.write_u8(s.addr + i as u64, b);
                }
                for i in 0..s.len {
                    self.cur.store_map.insert(s.addr + i, s.id);
                }
                self.cur.line_order.entry(line).or_default().push(s.id);
            }
            SbEntry::Clflush { addr, .. } => {
                let _seq = self.fresh_seq();
                let line = addr.cache_line();
                let committed = self.cur.line_order.get(&line).map(Vec::len).unwrap_or(0);
                let floor = self.cur.persisted_upto.entry(line).or_insert(0);
                *floor = (*floor).max(committed);
            }
            SbEntry::Clwb { addr, id } => {
                let line = addr.cache_line();
                let committed = self.cur.line_order.get(&line).map(Vec::len).unwrap_or(0);
                self.clwb_marks.insert(id, committed);
                self.fbs[thread.as_usize()].push(FbEntry { addr, id });
            }
            SbEntry::Sfence { id } => {
                let _seq = self.fresh_seq();
                self.fence_cvs.remove(&id).expect("sfence exec CV recorded");
                self.fence_fb(thread);
            }
        }
    }

    fn fence_fb(&mut self, thread: ThreadId) {
        let mut pending = Vec::new();
        self.fbs[thread.as_usize()].drain_into(&mut pending);
        for fb in pending {
            let line = fb.addr.cache_line();
            let mark = self.clwb_marks.remove(&fb.id).unwrap_or(0);
            let floor = self.cur.persisted_upto.entry(line).or_insert(0);
            *floor = (*floor).max(mark);
        }
    }

    /// Performs a load of `len` bytes at `addr`, byte by byte: every byte
    /// costs a bypass probe, a storemap hash lookup, and (missing both) an
    /// image hash lookup plus a provenance hash lookup.
    pub fn exec_load(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        len: u64,
        atomicity: Atomicity,
    ) -> RefLoad {
        self.cvs[thread.as_usize()].tick(thread);
        let bypass = self.sbs[thread.as_usize()].bypass_bytes(addr, len);
        let mut bytes = Vec::with_capacity(len as usize);
        let mut chosen: Vec<EventId> = Vec::new();
        let mut same_exec_sources: Vec<EventId> = Vec::new();
        let mut image_lines: Vec<CacheLineId> = Vec::new();
        for i in 0..len {
            let at = addr + i;
            if let Some(id) = bypass[i as usize] {
                let ev = &self.events[&id];
                bytes.push(ev.bytes[(at - ev.addr) as usize]);
                push_unique(&mut same_exec_sources, id);
            } else if let Some(&id) = self.cur.store_map.get(&at) {
                bytes.push(self.cur.cache.read_u8(at));
                push_unique(&mut same_exec_sources, id);
            } else {
                bytes.push(self.image.read_u8(at));
                if let Some(&id) = self.image_prov.get(&at) {
                    push_unique(&mut chosen, id);
                }
                push_unique(&mut image_lines, at.cache_line());
            }
        }
        // Acquire synchronization, with the historic per-source clock clone.
        if atomicity.is_acquire() {
            let source_cvs: Vec<VectorClock> = same_exec_sources
                .iter()
                .chain(chosen.iter())
                .map(|id| &self.events[id])
                .filter(|ev| ev.atomicity.is_release())
                .map(|ev| ev.cv.clone())
                .collect();
            for cv in source_cvs {
                self.cvs[thread.as_usize()].join(&cv);
            }
        }
        let mut candidates = chosen.clone();
        if let Some(prev) = self.past.last() {
            for line in image_lines {
                let order = match prev.line_order.get(&line) {
                    Some(o) => o,
                    None => continue,
                };
                let floor = prev.persisted_upto.get(&line).copied().unwrap_or(0);
                for &id in &order[floor.min(order.len())..] {
                    let ev = &self.events[&id];
                    if ev.addr < addr + len && addr < ev.addr + ev.len() {
                        push_unique(&mut candidates, id);
                    }
                }
            }
        }
        RefLoad {
            bytes,
            chosen,
            candidates,
        }
    }

    /// Executes a locked compare-and-swap (mirrors `MemState::exec_cas`).
    pub fn exec_cas(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        expected: u64,
        new: u64,
        label: Label,
    ) -> (u64, bool, RefLoad) {
        self.cvs[thread.as_usize()].tick(thread);
        self.drain_sb(thread);
        self.fence_fb(thread);
        let outcome = self.exec_load(thread, addr, 8, Atomicity::ReleaseAcquire);
        let old = u64::from_le_bytes(outcome.bytes.clone().try_into().expect("8 bytes"));
        let swapped = old == expected;
        if swapped {
            self.push_store_chunks(
                thread,
                addr,
                &new.to_le_bytes(),
                Atomicity::ReleaseAcquire,
                label,
            );
            self.drain_sb(thread);
        }
        (old, swapped, outcome)
    }

    /// Crashes the current execution, materializing the persisted image one
    /// byte-write and one provenance insert per byte.
    pub fn crash(&mut self, policy: PersistencePolicy, rng: &mut StdRng) {
        for sb in &mut self.sbs {
            sb.clear();
        }
        for fb in &mut self.fbs {
            fb.clear();
        }
        self.clwb_marks.clear();
        self.fence_cvs.clear();
        let mut lines: Vec<_> = self.cur.line_order.keys().copied().collect();
        lines.sort(); // determinism of rng consumption
        for line in lines {
            let order = &self.cur.line_order[&line];
            let floor = self.cur.persisted_upto.get(&line).copied().unwrap_or(0);
            let cut = match policy {
                PersistencePolicy::FullCache => order.len(),
                PersistencePolicy::FloorOnly => floor,
                PersistencePolicy::Random => rng.gen_range(floor..=order.len()),
            };
            for &id in &order[..cut] {
                let ev = &self.events[&id];
                for (i, &b) in ev.bytes.iter().enumerate() {
                    self.image.write_u8(ev.addr + i as u64, b);
                }
                for i in 0..ev.len() {
                    self.image_prov.insert(ev.addr + i, id);
                }
            }
        }
        let next_id = self.cur.id + 1;
        let old = std::mem::replace(&mut self.cur, RefExecState::new(next_id));
        self.past.push(old);
    }

    /// The current vector clock of `thread`.
    pub fn cv(&self, thread: ThreadId) -> &VectorClock {
        &self.cvs[thread.as_usize()]
    }

    /// One persisted byte (for differential comparison).
    pub fn image_byte(&self, addr: Addr) -> u8 {
        self.image.read_u8(addr)
    }

    /// The store event that produced the persisted byte at `addr`, if any.
    pub fn image_prov_at(&self, addr: Addr) -> Option<EventId> {
        self.image_prov.get(&addr).copied()
    }

    /// The most recent committed store covering `addr`, if any.
    pub fn store_map_at(&self, addr: Addr) -> Option<EventId> {
        self.cur.store_map.get(&addr).copied()
    }
}

fn push_unique<T: PartialEq + Copy>(v: &mut Vec<T>, item: T) {
    if !v.contains(&item) {
        v.push(item);
    }
}
