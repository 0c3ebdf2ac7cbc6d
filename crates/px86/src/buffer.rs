//! Per-thread store buffers and flush buffers.
//!
//! Both buffer types keep their entry queues in a [`CowBox`]: a queue is
//! owned, and pushed to and evicted from in place with no atomic operation,
//! until [`Forkable::fork`] shares it with a snapshot. The first mutation
//! of a shared queue copies it (copy-on-write) and counts the copy; a
//! buffer that was never forked never copies and never touches a
//! reference count.

use std::collections::VecDeque;
use std::mem::size_of;

use pmem::{Addr, CacheLineId, CowBox, CowCount, Forkable};

use crate::ordering::InsnKind;

/// A buffered store: the byte range it writes plus the engine's event id.
///
/// Values, clock vectors, atomicity, and source labels live in the engine's
/// event table, keyed by `id`; the buffer only needs geometry to answer
/// bypass queries and reordering legality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbStore {
    /// First byte written.
    pub addr: Addr,
    /// Number of bytes written.
    pub len: u64,
    /// Engine event id for this store.
    pub id: u64,
}

/// An entry in a [`StoreBuffer`].
///
/// Per §2, stores, `clflush`, `clflushopt`/`clwb`, and `sfence` are all
/// inserted into the store buffer; `mfence` and locked RMW instructions drain
/// it instead of entering it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbEntry {
    /// A buffered store.
    Store(SbStore),
    /// A buffered `clflush` of the line containing `addr`.
    Clflush {
        /// Address whose cache line is flushed.
        addr: Addr,
        /// Engine event id.
        id: u64,
    },
    /// A buffered `clflushopt` or `clwb` of the line containing `addr`.
    ///
    /// The two are semantically identical in Px86sim (§2), so the buffer does
    /// not distinguish them.
    Clwb {
        /// Address whose cache line is written back.
        addr: Addr,
        /// Engine event id.
        id: u64,
    },
    /// A buffered `sfence`.
    Sfence {
        /// Engine event id.
        id: u64,
    },
}

impl SbEntry {
    /// Folds this entry's identity (tag, geometry, event id) into `fp`.
    fn absorb_into(&self, fp: &mut pmem::Fp64) {
        match self {
            SbEntry::Store(s) => {
                fp.absorb(1);
                fp.absorb(s.addr.raw());
                fp.absorb(s.len);
                fp.absorb(s.id);
            }
            SbEntry::Clflush { addr, id } => {
                fp.absorb(2);
                fp.absorb(addr.raw());
                fp.absorb(*id);
            }
            SbEntry::Clwb { addr, id } => {
                fp.absorb(3);
                fp.absorb(addr.raw());
                fp.absorb(*id);
            }
            SbEntry::Sfence { id } => {
                fp.absorb(4);
                fp.absorb(*id);
            }
        }
    }

    /// The Table 1 instruction class of this entry.
    pub fn kind(&self) -> InsnKind {
        match self {
            SbEntry::Store(_) => InsnKind::Write,
            SbEntry::Clflush { .. } => InsnKind::Clflush,
            SbEntry::Clwb { .. } => InsnKind::Clflushopt,
            SbEntry::Sfence { .. } => InsnKind::Sfence,
        }
    }

    /// The cache line this entry operates on, if any (`sfence` has none).
    pub fn line(&self) -> Option<CacheLineId> {
        match self {
            SbEntry::Store(s) => Some(s.addr.cache_line()),
            SbEntry::Clflush { addr, .. } | SbEntry::Clwb { addr, .. } => Some(addr.cache_line()),
            SbEntry::Sfence { .. } => None,
        }
    }

    /// The engine event id of this entry.
    pub fn id(&self) -> u64 {
        match self {
            SbEntry::Store(s) => s.id,
            SbEntry::Clflush { id, .. } | SbEntry::Clwb { id, .. } | SbEntry::Sfence { id } => *id,
        }
    }
}

/// A per-thread store buffer.
///
/// Entries join at the tail in program order. An entry may *exit* (take
/// effect on the cache) when every entry still ahead of it permits being
/// overtaken per Table 1; [`evictable_into`] lists the legal choices and
/// the execution engine (scheduler) picks among them, which is how the
/// simulation explores `clflushopt`/`clwb` overtaking stores to other cache
/// lines.
///
/// [`evictable_into`]: StoreBuffer::evictable_into
///
/// # Examples
///
/// ```
/// use pmem::Addr;
/// use px86::{SbEntry, SbStore, StoreBuffer};
///
/// let mut sb = StoreBuffer::new();
/// sb.push(SbEntry::Store(SbStore { addr: Addr(0), len: 8, id: 1 }));
/// sb.push(SbEntry::Clwb { addr: Addr(128), id: 2 }); // different line
/// // Both the head store and the clwb (which may overtake a store to a
/// // different line) are legal eviction choices.
/// let (mut positions, mut lines) = (Vec::new(), Vec::new());
/// sb.evictable_into(&mut positions, &mut lines);
/// assert_eq!(positions, vec![0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StoreBuffer {
    entries: CowBox<VecDeque<SbEntry>>,
    /// How many of `entries` are `clwb`s: where [`StoreBuffer::evictable_into`]
    /// may stop.
    clwbs: usize,
    cow: CowCount,
}

impl StoreBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        StoreBuffer::default()
    }

    /// Mutable access to the queue, copying it first if shared with a fork.
    fn entries_mut(&mut self) -> &mut VecDeque<SbEntry> {
        let bytes = (self.entries.len() * size_of::<SbEntry>()) as u64;
        let (entries, copied) = self.entries.make_mut();
        self.cow.add_if(copied, 1, bytes);
        entries
    }

    /// Appends an entry at the program-order tail.
    pub fn push(&mut self, entry: SbEntry) {
        self.clwbs += usize::from(matches!(entry, SbEntry::Clwb { .. }));
        self.entries_mut().push_back(entry);
    }

    /// Returns `true` if the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Fills `out` with the positions of the entries that may legally exit
    /// the buffer next, in ascending order, in one pass. An entry may exit
    /// iff it may overtake every entry ahead of it; rather than testing
    /// every pair, the pass follows the shape Table 1 gives a buffer of
    /// stores, `clflush`, `clwb` and `sfence`:
    ///
    /// * each entry of the leading run of `clwb`s may exit (clfopt → clfopt
    ///   is ✗);
    /// * the first other entry may exit if it is a store (clfopt → Wr is
    ///   ✗), a `clflush` of a line no leading `clwb` writes back
    ///   (clfopt → clf is CL), or an `sfence` at the head;
    /// * past it, only a `clwb` may exit, and only if no store or `clflush`
    ///   ahead of it is on its line (Wr → clfopt and clf → clfopt are CL).
    ///   Nothing overtakes an `sfence`, so the pass ends at the first one,
    ///   or after the last buffered `clwb`, whichever comes first: a buffer
    ///   of plain stores costs O(1).
    ///
    /// `blocked` is scratch for the lines of the stores and `clflush`es
    /// past the leading run; like `out`, it is cleared first, so both can
    /// be reused across calls.
    pub fn evictable_into(&self, out: &mut Vec<usize>, blocked: &mut Vec<CacheLineId>) {
        out.clear();
        blocked.clear();
        let mut clwbs_left = self.clwbs;
        let mut entries = self.entries.iter().enumerate();
        // Every clwb of the leading run exits; the first other entry ends it.
        for (i, entry) in entries.by_ref() {
            match entry {
                SbEntry::Clwb { .. } => {
                    clwbs_left -= 1;
                    out.push(i);
                    continue;
                }
                SbEntry::Store(s) => {
                    out.push(i);
                    blocked.push(s.addr.cache_line());
                }
                SbEntry::Clflush { addr, .. } => {
                    let line = addr.cache_line();
                    // Only clwbs are ahead of it.
                    if self.entries.iter().take(i).all(|e| e.line() != Some(line)) {
                        out.push(i);
                    }
                    blocked.push(line);
                }
                SbEntry::Sfence { .. } => {
                    if i == 0 {
                        out.push(i);
                    }
                    return;
                }
            }
            break;
        }
        // Past the first non-clwb entry only clwbs may exit.
        for (i, entry) in entries {
            if clwbs_left == 0 {
                return;
            }
            match entry {
                SbEntry::Clwb { addr, .. } => {
                    clwbs_left -= 1;
                    if !blocked.contains(&addr.cache_line()) {
                        out.push(i);
                    }
                }
                SbEntry::Store(SbStore { addr, .. }) | SbEntry::Clflush { addr, .. } => {
                    let line = addr.cache_line();
                    if blocked.last() != Some(&line) {
                        blocked.push(line);
                    }
                }
                SbEntry::Sfence { .. } => return,
            }
        }
    }

    /// Removes and returns the entry at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range. Callers should pass a position
    /// from [`evictable_into`](StoreBuffer::evictable_into); the buffer does
    /// not re-check legality.
    pub fn evict(&mut self, position: usize) -> SbEntry {
        let entry = self
            .entries_mut()
            .remove(position)
            .expect("eviction position out of range");
        self.clwbs -= usize::from(matches!(entry, SbEntry::Clwb { .. }));
        entry
    }

    /// Removes and returns the head entry, or `None` if empty.
    ///
    /// Draining head-first is always a legal schedule; `mfence` and RMW use
    /// this to empty the buffer in program order.
    pub fn evict_head(&mut self) -> Option<SbEntry> {
        if self.entries.is_empty() {
            return None;
        }
        let entry = self.entries_mut().pop_front();
        self.clwbs -= usize::from(matches!(entry, Some(SbEntry::Clwb { .. })));
        entry
    }

    /// Iterates over buffered entries in program order.
    pub fn iter(&self) -> impl Iterator<Item = &SbEntry> {
        self.entries.iter()
    }

    /// Store-to-load bypassing: sets `out` to, for each byte of
    /// `[addr, addr+len)`, the id of the most recent buffered store covering
    /// that byte, if any. The caller provides `out`, so a hot load path can
    /// reuse one scratch allocation across loads.
    ///
    /// Per §2, a core's loads check its own store buffer first and return the
    /// value written by the most recent matching store.
    pub fn bypass_bytes_into(&self, addr: Addr, len: u64, out: &mut Vec<Option<u64>>) {
        out.clear();
        out.resize(len as usize, None);
        for entry in self.entries.iter() {
            if let SbEntry::Store(s) = entry {
                // Intersect [addr, addr+len) with the store's byte range.
                let start = s.addr.raw().max(addr.raw());
                let end = (s.addr.raw() + s.len).min(addr.raw() + len);
                if start < end {
                    let lo = (start - addr.raw()) as usize;
                    let hi = (end - addr.raw()) as usize;
                    out[lo..hi].fill(Some(s.id));
                }
            }
        }
    }

    /// Discards all entries (crash: buffered entries never took effect).
    pub fn clear(&mut self) {
        self.clwbs = 0;
        match self.entries.owned_mut() {
            Some(q) => q.clear(),
            // Shared with a fork: detach without copying the old contents.
            None => self.entries = CowBox::default(),
        }
    }

    /// Copy-on-write copies of the entry queue since construction (or since
    /// this copy was forked).
    pub fn cow(&self) -> CowCount {
        self.cow
    }

    /// Order-sensitive content fingerprint of the buffered entries, one
    /// input of the engine's full crash-state fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = pmem::Fp64::new();
        for entry in self.entries.iter() {
            entry.absorb_into(&mut fp);
        }
        fp.value()
    }
}

impl Forkable for StoreBuffer {
    fn fork(&mut self) -> Self {
        StoreBuffer {
            entries: self.entries.fork(),
            clwbs: self.clwbs,
            cow: CowCount::default(),
        }
    }
}

/// A pending `clwb` whose persist effect awaits a fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FbEntry {
    /// Address whose cache line is written back.
    pub addr: Addr,
    /// Engine event id of the originating `clwb`.
    pub id: u64,
}

/// A per-thread flush buffer: the paper's `F_τ` set (§6).
///
/// When a `clwb` exits the store buffer it lands here; when the thread
/// executes an instruction with fence semantics (`sfence` eviction, `mfence`,
/// locked RMW), the engine takes all pending entries and records their
/// persist effect (`Evict_FB` in Fig. 8). A crash discards the buffer.
#[derive(Debug, Clone, Default)]
pub struct FlushBuffer {
    pending: CowBox<Vec<FbEntry>>,
    cow: CowCount,
}

impl FlushBuffer {
    /// Creates an empty flush buffer.
    pub fn new() -> Self {
        FlushBuffer::default()
    }

    /// Adds a `clwb` that exited the store buffer.
    pub fn push(&mut self, entry: FbEntry) {
        let bytes = (self.pending.len() * size_of::<FbEntry>()) as u64;
        let (pending, copied) = self.pending.make_mut();
        self.cow.add_if(copied, 1, bytes);
        pending.push(entry);
    }

    /// Moves every pending entry, in order, onto the end of `out` (fence
    /// executed). An unshared queue keeps its capacity, so the next `clwb`
    /// does not reallocate; `out` can be a caller's reused scratch vector.
    pub fn drain_into(&mut self, out: &mut Vec<FbEntry>) {
        match self.pending.owned_mut() {
            Some(v) => out.append(v),
            // Shared with a fork: the fork keeps the old queue; this side
            // copies it out and detaches.
            None => {
                let bytes = (self.pending.len() * size_of::<FbEntry>()) as u64;
                self.cow.add_if(true, 1, bytes);
                out.extend_from_slice(&self.pending);
                self.pending = CowBox::default();
            }
        }
    }

    /// Returns `true` if no `clwb` is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Discards all entries (crash).
    pub fn clear(&mut self) {
        match self.pending.owned_mut() {
            Some(v) => v.clear(),
            // Shared with a fork: detach without copying the old contents.
            None => self.pending = CowBox::default(),
        }
    }

    /// Copy-on-write copies of the queue since construction (or since this
    /// copy was forked).
    pub fn cow(&self) -> CowCount {
        self.cow
    }

    /// Order-sensitive content fingerprint of the pending `clwb`s, one
    /// input of the engine's full crash-state fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = pmem::Fp64::new();
        for entry in self.pending.iter() {
            fp.absorb(entry.addr.raw());
            fp.absorb(entry.id);
        }
        fp.value()
    }
}

impl Forkable for FlushBuffer {
    fn fork(&mut self) -> Self {
        FlushBuffer {
            pending: self.pending.fork(),
            cow: CowCount::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evictable(sb: &StoreBuffer) -> Vec<usize> {
        let mut out = Vec::new();
        sb.evictable_into(&mut out, &mut Vec::new());
        out
    }

    fn store(addr: u64, len: u64, id: u64) -> SbEntry {
        SbEntry::Store(SbStore {
            addr: Addr(addr),
            len,
            id,
        })
    }

    #[test]
    fn fifo_head_always_evictable() {
        let mut sb = StoreBuffer::new();
        sb.push(store(0, 8, 1));
        sb.push(store(8, 8, 2));
        assert_eq!(evictable(&sb), vec![0]);
        assert_eq!(sb.evict_head().unwrap().id(), 1);
        assert_eq!(evictable(&sb), vec![0]);
    }

    #[test]
    fn clwb_overtakes_store_to_other_line_only() {
        let mut sb = StoreBuffer::new();
        sb.push(store(0, 8, 1));
        sb.push(SbEntry::Clwb {
            addr: Addr(128),
            id: 2,
        });
        assert_eq!(evictable(&sb), vec![0, 1]);

        let mut sb = StoreBuffer::new();
        sb.push(store(0, 8, 1));
        sb.push(SbEntry::Clwb {
            addr: Addr(8), // same line as the store
            id: 2,
        });
        assert_eq!(evictable(&sb), vec![0]);
    }

    #[test]
    fn clflush_never_overtakes_stores() {
        let mut sb = StoreBuffer::new();
        sb.push(store(0, 8, 1));
        sb.push(SbEntry::Clflush {
            addr: Addr(512),
            id: 2,
        });
        assert_eq!(evictable(&sb), vec![0]);
    }

    #[test]
    fn sfence_blocks_clwb() {
        let mut sb = StoreBuffer::new();
        sb.push(SbEntry::Sfence { id: 1 });
        sb.push(SbEntry::Clwb {
            addr: Addr(512),
            id: 2,
        });
        // sfence → clfopt is preserved, so the clwb may not exit first.
        assert_eq!(evictable(&sb), vec![0]);
    }

    #[test]
    fn clwb_does_not_overtake_sfence_ahead_but_stores_do_not_overtake_it() {
        // Write after clflushopt: clfopt → Wr is reorderable, so the store
        // may exit before the clwb.
        let mut sb = StoreBuffer::new();
        sb.push(SbEntry::Clwb {
            addr: Addr(0),
            id: 1,
        });
        sb.push(store(512, 8, 2));
        assert_eq!(evictable(&sb), vec![0, 1]);
    }

    #[test]
    fn two_clwbs_may_reorder() {
        let mut sb = StoreBuffer::new();
        sb.push(SbEntry::Clwb {
            addr: Addr(0),
            id: 1,
        });
        sb.push(SbEntry::Clwb {
            addr: Addr(512),
            id: 2,
        });
        assert_eq!(evictable(&sb), vec![0, 1]);
    }

    #[test]
    fn clflush_and_clflushopt_same_line_ordered() {
        let mut sb = StoreBuffer::new();
        sb.push(SbEntry::Clflush {
            addr: Addr(0),
            id: 1,
        });
        sb.push(SbEntry::Clwb {
            addr: Addr(8),
            id: 2,
        });
        // clf → clfopt same line: preserved.
        assert_eq!(evictable(&sb), vec![0]);
        let mut sb = StoreBuffer::new();
        sb.push(SbEntry::Clflush {
            addr: Addr(0),
            id: 1,
        });
        sb.push(SbEntry::Clwb {
            addr: Addr(512),
            id: 2,
        });
        assert_eq!(evictable(&sb), vec![0, 1]);
    }

    #[test]
    fn bypass_finds_most_recent_covering_store() {
        let mut sb = StoreBuffer::new();
        sb.push(store(0, 8, 1));
        sb.push(store(4, 4, 2));
        let mut ids = Vec::new();
        sb.bypass_bytes_into(Addr(0), 8, &mut ids);
        assert_eq!(
            ids,
            vec![
                Some(1),
                Some(1),
                Some(1),
                Some(1),
                Some(2),
                Some(2),
                Some(2),
                Some(2)
            ]
        );
        // The buffer is reset, not appended to.
        sb.bypass_bytes_into(Addr(8), 4, &mut ids);
        assert_eq!(ids, vec![None; 4]);
    }

    #[test]
    fn clear_models_crash() {
        let mut sb = StoreBuffer::new();
        sb.push(store(0, 8, 1));
        sb.clear();
        assert!(sb.is_empty());
        let mut fb = FlushBuffer::new();
        fb.push(FbEntry {
            addr: Addr(0),
            id: 1,
        });
        assert_eq!(fb.len(), 1);
        fb.clear();
        assert!(fb.is_empty());
    }

    #[test]
    fn flush_buffer_drain_into_empties_in_order_and_keeps_capacity() {
        let mut fb = FlushBuffer::new();
        fb.push(FbEntry {
            addr: Addr(0),
            id: 1,
        });
        fb.push(FbEntry {
            addr: Addr(64),
            id: 2,
        });
        let capacity = fb.pending.capacity();
        let mut taken = Vec::new();
        fb.drain_into(&mut taken);
        assert_eq!(taken.iter().map(|e| e.id).collect::<Vec<_>>(), [1, 2]);
        assert!(fb.is_empty());
        assert_eq!(fb.pending.capacity(), capacity, "queue keeps its storage");
        fb.drain_into(&mut taken);
        assert_eq!(taken.len(), 2, "an empty drain appends nothing");
    }

    #[test]
    fn fork_shares_queues_copy_on_write() {
        let mut sb = StoreBuffer::new();
        sb.push(store(0, 8, 1));
        sb.push(store(8, 8, 2));
        let mut child = sb.fork();
        assert_eq!(child.cow(), CowCount::default());
        // The fork sees the parent's entries; popping copies the queue once.
        assert_eq!(child.evict_head().unwrap().id(), 1);
        assert_eq!(child.cow().clones, 1);
        assert_eq!(child.cow().bytes, (2 * size_of::<SbEntry>()) as u64);
        assert_eq!(sb.len(), 2, "parent unaffected");
        assert_eq!(sb.cow(), CowCount::default(), "only the writer counts");
        // Further mutation of the now-owned queue is free, and so is the
        // parent's: the child no longer references its queue.
        child.push(store(16, 8, 3));
        assert_eq!(child.cow().clones, 1);
        sb.push(store(24, 8, 4));
        assert_eq!(sb.cow(), CowCount::default());
        assert_eq!(sb.len(), 3);

        // The capturing side copies too when it writes first.
        let mut snapshot = sb.fork();
        sb.evict_head();
        assert_eq!(sb.cow().clones, 1);
        assert_eq!(snapshot.len(), 3, "the snapshot keeps what it captured");
        snapshot.push(store(32, 8, 5));
        assert_eq!(snapshot.cow(), CowCount::default());

        let mut fb = FlushBuffer::new();
        fb.push(FbEntry {
            addr: Addr(0),
            id: 1,
        });
        let mut fchild = fb.fork();
        let mut taken = Vec::new();
        fchild.drain_into(&mut taken);
        assert_eq!(taken.len(), 1);
        assert_eq!(fchild.cow().clones, 1);
        assert_eq!(fb.len(), 1, "parent keeps its pending clwb");
    }

    #[test]
    fn clearing_a_shared_queue_detaches_without_copying() {
        let mut sb = StoreBuffer::new();
        sb.push(store(0, 8, 1));
        sb.push(SbEntry::Clwb {
            addr: Addr(64),
            id: 2,
        });
        let mut child = sb.fork();
        child.clear();
        assert!(child.is_empty());
        assert_eq!(child.cow(), CowCount::default());
        assert_eq!(evictable(&child), Vec::<usize>::new());
        assert_eq!(sb.len(), 2, "the other holder keeps its entries");
        assert_eq!(evictable(&sb), vec![0, 1]);

        let mut fb = FlushBuffer::new();
        fb.push(FbEntry {
            addr: Addr(0),
            id: 1,
        });
        let mut fchild = fb.fork();
        fchild.clear();
        assert_eq!(fchild.cow(), CowCount::default());
        assert!(fchild.is_empty());
        assert_eq!(fb.len(), 1);
        fb.clear();
        assert_eq!(fb.cow(), CowCount::default());
        assert!(fb.is_empty());
    }

    #[test]
    fn unforked_buffers_never_cow() {
        let mut sb = StoreBuffer::new();
        sb.push(store(0, 8, 1));
        sb.evict_head();
        sb.push(store(8, 8, 2));
        sb.clear();
        assert_eq!(sb.cow(), CowCount::default());
        let mut fb = FlushBuffer::new();
        fb.push(FbEntry {
            addr: Addr(0),
            id: 1,
        });
        fb.drain_into(&mut Vec::new());
        assert_eq!(fb.cow(), CowCount::default());
    }

    #[test]
    fn eviction_by_position_removes_correct_entry() {
        let mut sb = StoreBuffer::new();
        sb.push(store(0, 8, 1));
        sb.push(SbEntry::Clwb {
            addr: Addr(512),
            id: 2,
        });
        let e = sb.evict(1);
        assert_eq!(e.id(), 2);
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.iter().next().unwrap().id(), 1);
    }
}
