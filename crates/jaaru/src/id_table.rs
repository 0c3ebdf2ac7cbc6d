//! [`IdTable`]: records keyed by [`EventId`], found by id offset.

use std::collections::VecDeque;
use std::ops::Index;

use pmem::{CowBox, Forkable};

use crate::event::EventId;

/// An index entry that holds no record.
const ABSENT: u32 = u32::MAX;

/// Ids per index chunk (a power of two).
const CHUNK: usize = 256;

/// Record slots per slot chunk (a power of two).
const SLOT_CHUNK: usize = 16;

/// The slot numbers of `CHUNK` consecutive ids.
#[derive(Clone)]
struct Chunk([u32; CHUNK]);

impl Default for Chunk {
    fn default() -> Self {
        Chunk([ABSENT; CHUNK])
    }
}

/// `SLOT_CHUNK` consecutive record slots.
#[derive(Clone)]
struct Slots<T>([Option<T>; SLOT_CHUNK]);

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots(std::array::from_fn(|_| None))
    }
}

/// Records keyed by [`EventId`], found by offset rather than by hash.
///
/// Event ids come from one counter per memory system and are never reused,
/// so an id's offset from the start of the live range is a direct index.
/// The index is a dense window of slot numbers, one `u32` per id from the
/// oldest live id to the newest, with [`ABSENT`] for ids that hold no
/// record here (retired ones, and the ids the shared counter gave to other
/// kinds of events). The window is cut into [`CHUNK`]-id chunks that a
/// fork shares copy-on-write: new ids land in the last chunk, so a snapshot
/// costs a reference per chunk and the live side copies about one chunk
/// after it. The records themselves sit in numbered slots with a free list,
/// so retired records give their slots back and resident slots track the
/// *live* set, not the run's history. The slots too are cut into
/// [`SLOT_CHUNK`]-slot chunks shared copy-on-write with a fork, so a
/// snapshot copies no record: each side copies a slot chunk when it first
/// writes one the other still holds. Removing the oldest live id moves the
/// window's start up to the chunk of the next live one.
pub(crate) struct IdTable<T> {
    /// Record slots, [`SLOT_CHUNK`] per chunk.
    slots: Vec<CowBox<Slots<T>>>,
    /// Slots handed out so far: the free list holds every lower slot that
    /// holds no record.
    next_slot: u32,
    /// Slot numbers of ids `base..`, [`CHUNK`] per chunk.
    chunks: VecDeque<CowBox<Chunk>>,
    /// The first id of `chunks[0]`, a multiple of [`CHUNK`].
    base: EventId,
    /// The oldest live id, while any record is live.
    first: EventId,
    /// Live records.
    len: usize,
    /// Freed slots awaiting reuse.
    free: Vec<u32>,
    /// High-water mark of live records.
    peak: usize,
    /// Slots handed out again after a removal.
    reused: u64,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            next_slot: 0,
            chunks: VecDeque::new(),
            base: 0,
            first: 0,
            len: 0,
            free: Vec::new(),
            peak: 0,
            reused: 0,
        }
    }
}

/// The first id of `id`'s chunk.
fn chunk_start(id: EventId) -> EventId {
    id - id % CHUNK as EventId
}

impl<T: Clone> IdTable<T> {
    /// Stores `value` under `id`, which must hold no record. Ids normally
    /// arrive in ascending order; an id below the window's start widens it.
    #[inline(always)]
    pub(crate) fn insert(&mut self, id: EventId, value: T) {
        self.insert_with(id, || value)
    }

    /// [`IdTable::insert`] of the record `make` builds. Inlined, the record
    /// is built in its slot: moved in through an out-of-line call, a
    /// 128-byte pending flush record stalled on store forwarding, and a
    /// `clflush` + `sfence` pair cost ~10% more than with the hash maps
    /// this table replaced.
    #[inline(always)]
    pub(crate) fn insert_with(&mut self, id: EventId, make: impl FnOnce() -> T) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.reused += 1;
                s
            }
            None => {
                let s = self.next_slot;
                self.next_slot = s.checked_add(1).expect("live records fit u32 slots");
                if s as usize == self.slots.len() * SLOT_CHUNK {
                    self.slots.push(CowBox::default());
                }
                s
            }
        };
        let dst = self.slot_mut(slot as usize);
        assert!(dst.is_none(), "a free slot holds no record");
        *dst = Some(make());
        if self.len == 0 {
            // Every entry is absent, so the chunk left serves any range.
            self.base = chunk_start(id);
            self.first = id;
        } else if id < self.first {
            while id < self.base {
                self.chunks.push_front(CowBox::default());
                self.base -= CHUNK as EventId;
            }
            self.first = id;
        }
        let off = (id - self.base) as usize;
        while self.chunks.len() <= off / CHUNK {
            self.chunks.push_back(CowBox::default());
        }
        let entry = self.entry_mut(off);
        debug_assert_eq!(*entry, ABSENT, "id {id} already holds a record");
        *entry = slot;
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// The index entry at offset `off` from `base`, writable (copying a
    /// chunk shared with a fork).
    #[inline(always)]
    fn entry_mut(&mut self, off: usize) -> &mut u32 {
        let chunk = match &mut self.chunks[off / CHUNK] {
            CowBox::Owned(c) => c,
            shared => shared.make_mut().0,
        };
        &mut chunk.0[off % CHUNK]
    }

    /// Slot `s`, writable (copying a slot chunk shared with a fork).
    #[inline(always)]
    fn slot_mut(&mut self, s: usize) -> &mut Option<T> {
        let chunk = match &mut self.slots[s / SLOT_CHUNK] {
            CowBox::Owned(c) => c,
            shared => shared.make_mut().0,
        };
        &mut chunk.0[s % SLOT_CHUNK]
    }

    /// The slot holding `id`'s record, if it has one.
    #[inline(always)]
    fn slot(&self, id: EventId) -> Option<usize> {
        let off = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let slot = self.chunks.get(off / CHUNK)?.0[off % CHUNK];
        (slot != ABSENT).then_some(slot as usize)
    }

    pub(crate) fn get(&self, id: EventId) -> Option<&T> {
        let s = self.slot(id)?;
        self.slots[s / SLOT_CHUNK].0[s % SLOT_CHUNK].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: EventId) -> Option<&mut T> {
        let s = self.slot(id)?;
        self.slot_mut(s).as_mut()
    }

    /// Removes and returns `id`'s record, freeing its slot for reuse (an id
    /// without a record returns `None`, so sweeps may be re-applied).
    #[inline(always)]
    pub(crate) fn remove(&mut self, id: EventId) -> Option<T> {
        let slot = self.slot(id)?;
        let off = (id - self.base) as usize;
        *self.entry_mut(off) = ABSENT;
        self.free.push(slot as u32);
        self.len -= 1;
        if self.len == 0 {
            // Every entry is absent again: keep one chunk for the next id.
            if self.chunks.len() > 1 {
                self.chunks.truncate(1);
            }
        } else if id == self.first {
            // Advance to the next live id, dropping the chunks passed.
            let mut off = off + 1;
            while self.chunks[off / CHUNK].0[off % CHUNK] == ABSENT {
                off += 1;
            }
            for _ in 0..off / CHUNK {
                self.chunks.pop_front();
                self.base += CHUNK as EventId;
            }
            self.first = self.base + (off % CHUNK) as EventId;
        }
        self.slot_mut(slot).take()
    }

    /// Drops every record. The high-water mark and reuse count stay.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.next_slot = 0;
        self.chunks.clear();
        self.free.clear();
        self.len = 0;
    }

    /// Every live id, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = EventId> + '_ {
        (self.base..)
            .zip(self.chunks.iter().flat_map(|c| c.0.iter()))
            .filter(|&(_, &slot)| slot != ABSENT)
            .map(|(id, _)| id)
    }

    /// Every live record, in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flat_map(|c| c.0.iter().flatten())
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    pub(crate) fn reused(&self) -> u64 {
        self.reused
    }
}

impl<T: Clone> Index<EventId> for IdTable<T> {
    type Output = T;

    fn index(&self, id: EventId) -> &T {
        self.get(id)
            .unwrap_or_else(|| panic!("event {id} has no record"))
    }
}

impl<T: Clone> Forkable for IdTable<T> {
    /// A copy that shares the index and slot chunks copy-on-write, so it
    /// copies no record. Chunk copies are not counted in `fork.cow_*`:
    /// those count the persistence layer's line records. The slot-reuse
    /// count starts at zero: reuse before the fork is the capturing run's
    /// work, not the fork's.
    fn fork(&mut self) -> Self {
        IdTable {
            slots: self.slots.iter_mut().map(Forkable::fork).collect(),
            next_slot: self.next_slot,
            chunks: self.chunks.iter_mut().map(Forkable::fork).collect(),
            base: self.base,
            first: self.first,
            len: self.len,
            free: self.free.clone(),
            peak: self.peak,
            reused: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::FastMap;

    /// Kinds of operation [`Pair::apply`] draws from.
    const OPS: u8 = 200;

    /// One table and its `FastMap` oracle, compared after every operation.
    #[derive(Default)]
    struct Pair {
        table: IdTable<u64>,
        oracle: FastMap<EventId, u64>,
    }

    impl Pair {
        /// Applies one generated operation: `op` (below [`OPS`]) picks
        /// insert or overwrite, get, remove (of `id`, of the live id
        /// ranked `id` modulo the live count, which frees a slot in the
        /// middle, or of the oldest live id, which moves the window) or,
        /// rarely, clear; `id` is an absolute event id. Inserts outweigh
        /// removals, so the live records span several slot chunks.
        fn apply(&mut self, op: u8, id: EventId, value: u64) {
            match op {
                0..=111 => {
                    if self.oracle.insert(id, value).is_none() {
                        self.table.insert(id, value);
                    } else {
                        *self.table.get_mut(id).expect("present in the oracle") = value;
                    }
                }
                112..=139 => assert_eq!(self.table.get(id), self.oracle.get(&id)),
                140..=149 => assert_eq!(self.table.remove(id), self.oracle.remove(&id)),
                150..=173 => {
                    let mut live: Vec<EventId> = self.oracle.keys().copied().collect();
                    if !live.is_empty() {
                        live.sort_unstable();
                        let victim = live[id as usize % live.len()];
                        assert_eq!(self.table.remove(victim), self.oracle.remove(&victim));
                    }
                }
                174..=198 => {
                    if let Some(&oldest) = self.oracle.keys().min() {
                        assert_eq!(self.table.remove(oldest), self.oracle.remove(&oldest));
                    }
                }
                _ => {
                    self.table.clear();
                    self.oracle.clear();
                }
            }
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.table.len(), self.oracle.len());
            let mut expect: Vec<EventId> = self.oracle.keys().copied().collect();
            expect.sort_unstable();
            assert_eq!(self.table.ids().collect::<Vec<_>>(), expect);
            for &id in &expect {
                assert_eq!(self.table[id], self.oracle[&id]);
            }
            let mut values: Vec<u64> = self.table.values().copied().collect();
            let mut oracle_values: Vec<u64> = self.oracle.values().copied().collect();
            values.sort_unstable();
            oracle_values.sort_unstable();
            assert_eq!(values, oracle_values);
            // The window starts at the oldest live id's chunk and reaches
            // the newest.
            if let (Some(&lo), Some(&hi)) = (expect.first(), expect.last()) {
                assert_eq!((self.table.base, self.table.first), (chunk_start(lo), lo));
                assert!(self.table.base + (self.table.chunks.len() * CHUNK) as u64 > hi);
            }
        }
    }

    #[test]
    fn inserts_below_the_window_widen_it() {
        let c = CHUNK as EventId;
        let mut t = IdTable::default();
        t.insert(3 * c + 20, 'a');
        t.insert(c + 15, 'b');
        t.insert(3 * c + 30, 'c');
        assert_eq!(
            t.ids().collect::<Vec<_>>(),
            [c + 15, 3 * c + 20, 3 * c + 30]
        );
        assert_eq!((t.base, t.chunks.len()), (c, 3));
        assert_eq!(t.remove(c + 15), Some('b'));
        assert_eq!(
            (t.base, t.first, t.chunks.len()),
            (3 * c, 3 * c + 20, 1),
            "the window starts at the oldest live id's chunk"
        );
        assert_eq!(t.remove(c + 15), None);
        assert_eq!(t.get(c), None);
        assert_eq!(t.get(5 * c), None);
        assert_eq!((t[3 * c + 20], t[3 * c + 30]), ('a', 'c'));
        t.remove(3 * c + 20);
        t.remove(3 * c + 30);
        t.insert(3, 'd');
        assert_eq!((t.base, t.len(), t.peak(), t.reused()), (0, 1, 3, 1));
    }

    #[test]
    fn a_fork_shares_the_index_until_either_side_writes() {
        let mut live = IdTable::default();
        for id in 1..600 {
            live.insert(id, id);
        }
        let mut snapshot = live.fork();
        let shared = |t: &IdTable<u64>| {
            t.chunks
                .iter()
                .filter(|c| matches!(c, CowBox::Shared(_)))
                .count()
        };
        assert_eq!((shared(&live), shared(&snapshot)), (3, 3));
        live.insert(600, 600);
        assert_eq!(shared(&live), 2, "only the written chunk was copied");
        assert_eq!(snapshot.remove(1), Some(1));
        assert_eq!((live[1], snapshot.get(1)), (1, None));
        assert_eq!((live.get(600), snapshot.get(600)), (Some(&600), None));
    }

    #[test]
    fn appending_after_a_fork_copies_at_most_one_slot_chunk() {
        let n = 3 * SLOT_CHUNK as u64 + 5;
        let mut live = IdTable::default();
        for id in 0..n {
            live.insert(id, id);
        }
        let snapshot = live.fork();
        let shared = |t: &IdTable<u64>| {
            t.slots
                .iter()
                .filter(|c| matches!(c, CowBox::Shared(_)))
                .count()
        };
        assert_eq!((shared(&live), shared(&snapshot)), (4, 4));
        live.insert(n, n);
        assert_eq!(shared(&live), 3, "only the written slot chunk was copied");
        // Filling that chunk and starting new ones copies nothing more.
        for id in n + 1..n + 2 * SLOT_CHUNK as u64 {
            live.insert(id, id);
        }
        assert_eq!((shared(&live), live.slots.len()), (3, 6));
        assert_eq!(snapshot.len(), n as usize);
        for id in 0..n {
            assert_eq!(snapshot[id], id, "the fork's record {id} is intact");
        }
        assert_eq!(snapshot.get(n), None);
        assert_eq!(live[n], n);
    }

    #[test]
    #[should_panic(expected = "event 7 has no record")]
    fn indexing_a_missing_id_panics() {
        let t: IdTable<u8> = IdTable::default();
        let _ = t[7];
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn matches_a_fast_map_oracle_and_forks_independently(
            // Ids drift upward as the shared counter hands them out, over
            // a range many chunks wide: inserts land below the window's
            // start and past its end, and removals drop whole chunks.
            ops in proptest::collection::vec((0u8..OPS, 0u64..600, 0u64..1000), 0..400),
            fork_at in 0usize..200,
        ) {
            let mut pair = Pair::default();
            let mut forked: Option<Pair> = None;
            for (step, &(op, delta, value)) in ops.iter().enumerate() {
                let id = 16 * step as u64 + delta;
                pair.apply(op, id, value);
                if step == fork_at {
                    forked = Some(Pair {
                        table: pair.table.fork(),
                        oracle: pair.oracle.clone(),
                    });
                }
                // Mutating the fork with other draws (inserts, removals and
                // free-slot reuse alike) never touches the original, and
                // the other way round.
                if let Some(f) = &mut forked {
                    f.apply((op + 37) % OPS, id + delta % 5, value + 1);
                    pair.check();
                }
            }
        }
    }
}
