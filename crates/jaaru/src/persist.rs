//! What persists (Fig. 8): store events, each line's committed bytes and
//! committed-store log with its persistence floor, the most recent crashed
//! execution's logs, and the persistent image. A crash writes a per-line
//! *prefix* of the committed stores into the image (persistence is
//! prefix-closed per line, §4.1); streaming GC drains persisted prefixes
//! early and retires the store events nothing can read any more.

use pmem::{CacheLineId, CowBox, CowCount, FastMap, FastSet, Forkable};
use rand::rngs::StdRng;
use rand::Rng;

use crate::event::{EventId, StoreEvent};
use crate::id_table::IdTable;
use crate::report::GcStats;
use crate::sink::EventSink;

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
pub(crate) struct LineLog {
    /// Length of the logical prefix already materialized into the image.
    retired: usize,
    /// Length of the logical prefix definitely persisted (forced by
    /// committed `clflush` / fenced `clwb`).
    pub(crate) floor: usize,
    /// Retained committed stores, in cache commit order: these sit at logical
    /// indexes `retired..retired + order.len()`.
    order: Vec<EventId>,
}

impl LineLog {
    pub(crate) fn logical_len(&self) -> usize {
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
pub(crate) const LINE_COW_BYTES: u64 =
    pmem::CACHE_LINE_SIZE + std::mem::size_of::<ProvLine>() as u64;

/// One cache line of memory contents: its bytes, and for each byte the
/// store event that produced it. A persistent-image line holds just this;
/// an execution's cache line adds its store log ([`ExecLine`]).
#[derive(Debug, Clone)]
pub(crate) struct LineSlabs {
    pub(crate) bytes: [u8; pmem::CACHE_LINE_SIZE as usize],
    pub(crate) prov: ProvLine,
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
    pub(crate) fn prov_at(&self, offset: u64) -> Option<EventId> {
        let id = self.prov[offset as usize];
        (id != 0).then_some(id)
    }

    /// Adds every recorded id to `ids`, skipping repeats within a run.
    fn add_ids(&self, ids: &mut FastSet<EventId>) {
        let mut last = 0;
        for &id in &self.prov {
            if id != 0 && id != last {
                ids.insert(id);
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

/// Store events by id: every store event still live, across executions.
/// With GC off nothing retires and the table simply grows.
type EventTable = IdTable<StoreEvent>;

/// Writes `stores`, in order, into `line`'s image record (created on first
/// touch); writes nothing when `stores` is empty. Both the floor drain and
/// the crash cut persist through here.
fn write_image(
    image: &mut LineMap<LineSlabs>,
    cow: &mut CowCount,
    events: &EventTable,
    line: CacheLineId,
    stores: &[EventId],
) {
    if stores.is_empty() {
        return;
    }
    let record = image.entry(line).or_default();
    let img_line = write_line(record, cow);
    for &id in stores {
        img_line.write(&events[id]);
    }
}

/// The persistence layer: store events, committed line records, the most
/// recent crashed execution's logs, the persistent image and streaming GC.
#[derive(Default)]
pub(crate) struct Persist {
    /// Event table: all store events, across executions.
    events: EventTable,
    /// The current execution's lines with a committed store: cache bytes,
    /// `storemap` (latest store per byte) and committed-store log.
    cur: LineMap<ExecLine>,
    /// The most recent crashed execution's lines, read only for the
    /// candidate stores of post-crash loads.
    prev: LineMap<ExecLine>,
    /// Each persisted line's bytes and the store that produced each byte.
    image: LineMap<LineSlabs>,
    /// Copy-on-write copies of line records made by this layer.
    cow: CowCount,
    /// A mark-sweep pass every this many committed stores (`None`: GC off).
    gc_every: Option<u64>,
    /// Committed stores since the last GC pass.
    commits_since_gc: u64,
    /// Retirement counters ([`Persist::gc_stats`] adds the gauges).
    gc: GcStats,
}

impl Forkable for Persist {
    /// Shares every line record and the event index copy-on-write; copy
    /// and GC work counts start at zero (the prefix's are the capturer's).
    fn fork(&mut self) -> Self {
        Persist {
            events: self.events.fork(),
            cur: fork_lines(&mut self.cur),
            prev: fork_lines(&mut self.prev),
            image: fork_lines(&mut self.image),
            cow: CowCount::default(),
            gc_every: self.gc_every,
            commits_since_gc: self.commits_since_gc,
            gc: GcStats::default(),
        }
    }
}

impl Persist {
    /// Turns streaming GC on, with a pass every `every` committed stores.
    pub(crate) fn enable_gc(&mut self, every: u64) {
        self.gc_every = Some(every.max(1));
    }

    pub(crate) fn gc_enabled(&self) -> bool {
        self.gc_every.is_some()
    }

    /// Retirement counters plus current live/peak event-table gauges.
    pub(crate) fn gc_stats(&self) -> GcStats {
        let mut gc = self.gc;
        gc.live_events = self.events.len() as u64;
        gc.peak_live_events = self.events.peak() as u64;
        gc.slots_reused = self.events.reused();
        gc
    }

    /// Line-record copies made since this layer was created or forked.
    pub(crate) fn cow(&self) -> CowCount {
        self.cow
    }

    /// Records an executed store event.
    #[inline]
    pub(crate) fn insert(&mut self, event: StoreEvent) {
        self.events.insert(event.id, event);
    }

    /// Looks up a live store event.
    #[inline]
    pub(crate) fn event(&self, id: EventId) -> &StoreEvent {
        &self.events[id]
    }

    /// Calls `f` with the store events of `ids`, in order.
    pub(crate) fn with_store_refs<R>(
        &self,
        ids: &[EventId],
        f: impl FnOnce(&[&StoreEvent]) -> R,
    ) -> R {
        with_event_refs(&self.events, ids, f)
    }

    /// Commits store `id` to the current execution's cache: writes its
    /// bytes and provenance into its line's record and appends it to the
    /// line's log, in one lookup. Returns the committed event.
    #[inline]
    pub(crate) fn commit(&mut self, id: EventId) -> &StoreEvent {
        self.commits_since_gc += 1;
        let event = &self.events[id];
        let record = self.cur.entry(event.addr.cache_line()).or_insert_with(|| {
            // Room for one store per 8-byte word: a `memset` or `memcpy` of
            // the whole line fills the log with one allocation.
            let mut record = ExecLine::default();
            record.log.order.reserve_exact(WORDS_PER_LINE);
            CowBox::new(record)
        });
        let record = write_line(record, &mut self.cow);
        record.slabs.write(event);
        record.log.order.push(id);
        event
    }

    /// The current execution's cache bytes and storemap of `line`.
    #[inline]
    pub(crate) fn line(&self, line: CacheLineId) -> Option<&LineSlabs> {
        self.cur.get(&line).map(|l| &l.slabs)
    }

    /// The current execution's committed-store log of `line`.
    #[inline]
    pub(crate) fn log(&self, line: CacheLineId) -> Option<&LineLog> {
        self.cur.get(&line).map(|l| &l.log)
    }

    /// The persistent image's record of `line`, if it ever persisted.
    #[inline]
    pub(crate) fn image_line(&self, line: CacheLineId) -> Option<&LineSlabs> {
        self.image.get(&line).map(|l| &**l)
    }

    /// The not-definitely-persisted stores of `line` in the most recent
    /// crashed execution: the candidates a post-crash read may observe.
    #[inline]
    pub(crate) fn prev_unpersisted(&self, line: CacheLineId) -> &[EventId] {
        self.prev
            .get(&line)
            .map_or(&[], |l| l.log.suffix_from(l.log.floor))
    }

    /// Calls `f` with the most recent committed store for each byte of
    /// `line`, de-duplicated in first-appearance byte order (not id order:
    /// a later store may sit at a lower offset). One slab lookup, then a
    /// dense scan that checks membership only where the id changes between
    /// adjacent bytes.
    pub(crate) fn with_line_stores<R>(
        &self,
        line: CacheLineId,
        f: impl FnOnce(&[&StoreEvent]) -> R,
    ) -> R {
        let Some(record) = self.cur.get(&line) else {
            return f(&[]);
        };
        let (ids, n) = distinct_slab_ids(&record.slabs.prov);
        with_event_refs(&self.events, &ids[..n], f)
    }

    /// Raises `line`'s persistence floor to at least `to` for one committed
    /// flush, calls `newly` with each store the raise persisted, and
    /// returns the old floor. A line with no log has floor 0, and `to` is
    /// then 0 too (it was measured on this execution's log). A flush that
    /// does not raise the floor writes nothing, so it never copies a record
    /// shared with a snapshot.
    ///
    /// With streaming GC on, the flush counts as retired, and the raise
    /// drains the definitely-persisted prefix of the log into the image.
    /// That is safe mid-execution because
    /// every byte a retained-or-retired committed store covers is shadowed
    /// by the current execution's storemap, so loads keep resolving from
    /// the cache and never observe the early image write; and a crash cut
    /// is always ≥ the floor ≥ the retired count, so materializing the
    /// slice `[retired..cut)` later commutes with having materialized
    /// `[0..retired)` now (same per-line store order either way).
    pub(crate) fn raise_floor(
        &mut self,
        line: CacheLineId,
        to: usize,
        mut newly: impl FnMut(&StoreEvent),
    ) -> usize {
        if self.gc_every.is_some() {
            self.gc.flushes_retired += 1;
        }
        let Some(record) = self.cur.get_mut(&line) else {
            debug_assert_eq!(to, 0, "a floor above 0 needs a committed store");
            return 0;
        };
        let prev = record.log.floor;
        if to <= prev {
            return prev;
        }
        let log = &mut write_line(record, &mut self.cow).log;
        log.floor = to;
        let retired = log.retired;
        for &id in &log.suffix_from(prev)[..to - prev.max(retired)] {
            newly(&self.events[id]);
        }
        if self.gc_every.is_none() || log.order.is_empty() {
            return prev;
        }
        let n = (to - retired).min(log.order.len());
        let drained = &log.order[..n];
        write_image(&mut self.image, &mut self.cow, &self.events, line, drained);
        log.order.drain(..n);
        log.retired += n;
        self.gc.line_entries_retired += n as u64;
        prev
    }

    /// Whether a GC pass is due; restarts the commit budget when it is.
    #[inline]
    pub(crate) fn gc_due(&mut self) -> bool {
        let due = self
            .gc_every
            .is_some_and(|every| self.commits_since_gc >= every);
        if due {
            self.commits_since_gc = 0;
        }
        due
    }

    /// Mark-sweep over store events: everything unreachable from the live
    /// roots can never again be read, re-committed, scanned as a candidate,
    /// or materialized, so its table slot is freed. Roots are: the current
    /// storemap (cache reads, line-store reporting), the image provenance
    /// (acquire joins and chosen-store reporting on image reads), the
    /// retained line logs of the current and most recent crashed execution
    /// (crash cuts and candidate scans), and `buffered`, the store ids still
    /// in store buffers (bypass reads, pending commits). Retired ids are
    /// reported to the sink in ascending order so detectors can drop
    /// per-store state deterministically.
    pub(crate) fn collect(
        &mut self,
        sink: &mut dyn EventSink,
        buffered: impl IntoIterator<Item = EventId>,
    ) {
        self.gc.passes += 1;
        let mut roots: FastSet<EventId> = FastSet::default();
        for record in self.cur.values() {
            record.slabs.add_ids(&mut roots);
            roots.extend(record.log.order.iter().copied());
        }
        for record in self.image.values() {
            record.add_ids(&mut roots);
        }
        for record in self.prev.values() {
            roots.extend(record.log.order.iter().copied());
        }
        roots.extend(buffered);
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

    /// Crashes the current execution: for each cache line a prefix of its
    /// committed stores (at least the definitely-persisted floor, at most
    /// everything) is written to the persistent image per `policy`, and the
    /// current execution's lines become the previous execution's. The
    /// execution before that is dropped: candidate scans only ever consult
    /// the most recent crashed execution. `flushes` counts the flush
    /// records the crash dropped with their buffers, retired with GC on.
    pub(crate) fn crash(&mut self, policy: PersistencePolicy, rng: &mut StdRng, flushes: u64) {
        if self.gc_every.is_some() {
            self.gc.flushes_retired += flushes;
        }
        let mut lines: Vec<_> = self.cur.keys().copied().collect();
        lines.sort(); // determinism of rng consumption
        for line in lines {
            let log = &self.cur[&line].log;
            // Cuts are logical indexes, so the RNG draws (and the persisted
            // prefix they denote) are identical whether or not streaming GC
            // already drained `log.retired` entries into the image.
            let cut = match policy {
                PersistencePolicy::FullCache => log.logical_len(),
                PersistencePolicy::FloorOnly => log.floor,
                PersistencePolicy::Random => rng.gen_range(log.floor..=log.logical_len()),
            };
            // Entries below `log.retired` were materialized eagerly when the
            // floor rose (cut ≥ floor ≥ retired, same per-line order), so
            // only the retained slice below the cut lands here.
            let keep = &log.order[..cut - log.retired];
            write_image(&mut self.image, &mut self.cow, &self.events, line, keep);
        }
        self.prev = std::mem::take(&mut self.cur);
    }

    /// Absorbs the content of everything a crash at this instant can
    /// materialize into `fp`: the image and its provenance, then the
    /// current execution's lines (cache bytes, storemap, store logs and
    /// floors). Per-line hashes are XOR-combined so map iteration order
    /// cannot leak into the value; `memo` skips records shared with an
    /// earlier call's snapshot.
    pub(crate) fn absorb_content(&self, fp: &mut pmem::Fp64, memo: &mut pmem::ArcMemo) {
        let mut image = 0u64;
        for (line, record) in &self.image {
            let content = memo.memoize(&**record, LineSlabs::content_hash);
            image ^= pmem::mix64(line.0 ^ pmem::mix64(content));
        }
        let mut lines = 0u64;
        for (line, record) in &self.cur {
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
        fp.absorb(image);
        fp.absorb(lines);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::Addr;
    use px86::Atomicity;
    use vclock::ThreadId;

    /// The per-byte walk `with_line_stores` replaced: each nonzero id is
    /// kept once, in first-appearance order. Kept as the order reference.
    fn per_byte_line_ids(slab: &ProvLine) -> Vec<EventId> {
        let mut seen = Vec::new();
        for &id in slab {
            if id != 0 && !seen.contains(&id) {
                seen.push(id);
            }
        }
        seen
    }

    /// The ids `with_line_stores` passes on for a line holding `slab`.
    fn line_store_ids(slab: &ProvLine) -> Vec<EventId> {
        let line = Addr(0x1000).cache_line();
        let mut persist = Persist::default();
        let mut record = ExecLine::default();
        record.slabs.prov = *slab;
        persist.cur.insert(line, CowBox::new(record));
        let mut ids: Vec<EventId> = slab.iter().copied().filter(|&id| id != 0).collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            persist.insert(StoreEvent {
                id,
                exec: 0,
                thread: ThreadId::MAIN,
                cv: Default::default(),
                clock: 0,
                atomicity: Atomicity::Plain,
                addr: line.base(),
                bytes: [0u8][..].into(),
                invented: false,
                label: "",
            });
        }
        persist.with_line_stores(line, |refs| refs.iter().map(|s| s.id).collect())
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
}
