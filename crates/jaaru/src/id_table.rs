//! [`IdTable`]: records keyed by [`EventId`], found by id offset.

use std::collections::VecDeque;
use std::ops::Index;

use pmem::{CowBox, Forkable};

use crate::event::EventId;

/// An index entry that holds no record.
const ABSENT: u32 = u32::MAX;

/// Ids per index chunk (a power of two).
const CHUNK: usize = 256;

/// The slot numbers of `CHUNK` consecutive ids.
#[derive(Clone)]
struct Chunk([u32; CHUNK]);

impl Default for Chunk {
    fn default() -> Self {
        Chunk([ABSENT; CHUNK])
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
/// after it. The records themselves sit in a slot vector with a free list,
/// so retired records give their slots back and resident slots track the
/// *live* set, not the run's history. Removing the oldest live id moves the
/// window's start up to the chunk of the next live one.
pub(crate) struct IdTable<T> {
    slots: Vec<Option<T>>,
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

impl<T> IdTable<T> {
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
                let dst = &mut self.slots[s as usize];
                assert!(dst.is_none(), "a freed slot holds no record");
                *dst = Some(make());
                s
            }
            None => {
                self.slots.push(Some(make()));
                u32::try_from(self.slots.len() - 1).expect("live records fit u32 slots")
            }
        };
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

    /// The slot holding `id`'s record, if it has one.
    #[inline(always)]
    fn slot(&self, id: EventId) -> Option<usize> {
        let off = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let slot = self.chunks.get(off / CHUNK)?.0[off % CHUNK];
        (slot != ABSENT).then_some(slot as usize)
    }

    pub(crate) fn get(&self, id: EventId) -> Option<&T> {
        self.slots[self.slot(id)?].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: EventId) -> Option<&mut T> {
        let slot = self.slot(id)?;
        self.slots[slot].as_mut()
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
        self.slots[slot].take()
    }

    /// Drops every record. The high-water mark and reuse count stay.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
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
        self.slots.iter().flatten()
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

impl<T> Index<EventId> for IdTable<T> {
    type Output = T;

    fn index(&self, id: EventId) -> &T {
        self.get(id)
            .unwrap_or_else(|| panic!("event {id} has no record"))
    }
}

impl<T: Clone> Forkable for IdTable<T> {
    /// A copy that shares the index chunks copy-on-write and copies the
    /// records. Its slot-reuse count starts at zero: reuse before the fork
    /// is the capturing run's work, not the fork's.
    fn fork(&mut self) -> Self {
        IdTable {
            slots: self.slots.clone(),
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

    /// One table and its `FastMap` oracle, compared after every operation.
    #[derive(Default)]
    struct Pair {
        table: IdTable<u64>,
        oracle: FastMap<EventId, u64>,
    }

    impl Pair {
        /// Applies one generated operation: `op` picks insert, get, remove
        /// (of `id`, or of the oldest live id, which moves the window) or
        /// clear; `id` is an absolute event id.
        fn apply(&mut self, op: u8, id: EventId, value: u64) {
            match op {
                0..=3 => {
                    if self.oracle.insert(id, value).is_none() {
                        self.table.insert(id, value);
                    } else {
                        *self.table.get_mut(id).expect("present in the oracle") = value;
                    }
                }
                4..=5 => assert_eq!(self.table.get(id), self.oracle.get(&id)),
                6..=7 => assert_eq!(self.table.remove(id), self.oracle.remove(&id)),
                8 => {
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
            ops in proptest::collection::vec((0u8..10, 0u64..600, 0u64..1000), 0..200),
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
                // Mutating the fork with other draws never touches the
                // original, and the other way round.
                if let Some(f) = &mut forked {
                    f.apply((op + 3) % 10, id + delta % 5, value + 1);
                    pair.check();
                }
            }
        }
    }
}
