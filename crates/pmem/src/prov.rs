//! Per-byte provenance tracking at cache-line granularity.
//!
//! The execution engine records, for every byte of the cache and of the
//! persistent image, which store event produced it. Keying that map by
//! individual [`Addr`] costs one hash lookup per byte on every load, store
//! commit, and crash materialization — the hottest paths in the whole
//! simulation. A [`ProvenanceMap`] instead keeps one slab of 64 event-id
//! slots per cache line, so resolving a whole line is a single hash lookup
//! followed by plain array indexing, mirroring the line-granular storemap of
//! the paper's Jaaru infrastructure (§6).

use crate::hash::FastMap;
use std::mem::size_of;
use std::sync::Arc;

use crate::addr::{Addr, CacheLineId, CACHE_LINE_SIZE};
use crate::forkable::Forkable;

/// An event identifier as stored by the provenance map.
///
/// `0` is reserved to mean "no event" (engine event ids start at 1), which
/// lets a line slab be a dense array with no per-slot `Option`.
pub type ProvId = u64;

/// One cache line's worth of per-byte provenance.
pub type ProvLine = [ProvId; CACHE_LINE_SIZE as usize];

/// A sparse map from bytes to originating event ids, stored as per-line
/// slabs.
///
/// Like [`crate::PmImage`], slabs sit behind [`Arc`] so forking a map is a
/// refcount bump per line and mutation of a shared slab is copy-on-write.
///
/// # Examples
///
/// ```
/// use pmem::{Addr, ProvenanceMap};
/// let mut prov = ProvenanceMap::new();
/// prov.set_range(Addr(0x1000), 8, 7);
/// assert_eq!(prov.get(Addr(0x1004)), Some(7));
/// assert_eq!(prov.get(Addr(0x1008)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProvenanceMap {
    lines: FastMap<CacheLineId, Arc<ProvLine>>,
    cow_clones: u64,
    cow_bytes: u64,
}

impl ProvenanceMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        ProvenanceMap::default()
    }

    /// The event id covering `addr`, if any.
    pub fn get(&self, addr: Addr) -> Option<ProvId> {
        let id = self.lines.get(&addr.cache_line())?[addr.line_offset() as usize];
        (id != 0).then_some(id)
    }

    /// Marks the byte range `[addr, addr + len)` as produced by `id`.
    ///
    /// Touches each covered cache line once and fills its slots with a
    /// slice `fill`, not per-byte map inserts.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `id` is 0, the reserved "no event" value.
    pub fn set_range(&mut self, addr: Addr, len: u64, id: ProvId) {
        debug_assert!(id != 0, "provenance id 0 is reserved for 'none'");
        let mut off = 0u64;
        while off < len {
            let at = addr + off;
            let line_off = at.line_offset() as usize;
            let take = (CACHE_LINE_SIZE - at.line_offset()).min(len - off) as usize;
            let line = self.line_mut(at.cache_line());
            line[line_off..line_off + take].fill(id);
            off += take as u64;
        }
    }

    /// Direct read access to one line's slab, if any byte of it was set.
    pub fn line(&self, line: CacheLineId) -> Option<&ProvLine> {
        self.lines.get(&line).map(|b| &**b)
    }

    /// Direct write access to one line's slab, created all-"none" on first
    /// touch. A slab shared with a fork is cloned first (COW).
    pub fn line_mut(&mut self, line: CacheLineId) -> &mut ProvLine {
        let slab = self
            .lines
            .entry(line)
            .or_insert_with(|| Arc::new([0; CACHE_LINE_SIZE as usize]));
        if Arc::strong_count(slab) > 1 {
            self.cow_clones += 1;
            self.cow_bytes += size_of::<ProvLine>() as u64;
        }
        Arc::make_mut(slab)
    }

    /// Number of distinct cache lines with recorded provenance.
    pub fn touched_lines(&self) -> usize {
        self.lines.len()
    }

    /// Visits every recorded (nonzero) id, deduplicating consecutive runs
    /// within a slab. Ids recorded on several lines (or in disjoint runs of
    /// one line) are visited more than once; callers collecting into a set
    /// are unaffected. Used by the engine's streaming GC to mark provenance
    /// roots without exposing the slab map itself.
    pub fn for_each_id(&self, mut f: impl FnMut(ProvId)) {
        for slab in self.lines.values() {
            let mut last = 0;
            for &id in slab.iter() {
                if id != 0 && id != last {
                    f(id);
                    last = id;
                }
            }
        }
    }

    /// Removes all recorded provenance.
    pub fn clear(&mut self) {
        self.lines.clear();
    }

    /// Number of slabs cloned by copy-on-write since construction (or since
    /// this copy was forked).
    pub fn cow_clones(&self) -> u64 {
        self.cow_clones
    }

    /// Bytes copied by copy-on-write clones.
    pub fn cow_bytes(&self) -> u64 {
        self.cow_bytes
    }

    /// Order-independent content fingerprint of all recorded provenance,
    /// memoized per slab like [`crate::PmImage::fingerprint`].
    pub fn fingerprint(&self, memo: &mut crate::fingerprint::ArcMemo) -> u64 {
        let mut acc = 0u64;
        for (line, slab) in &self.lines {
            let content = memo.memoize(slab, |s| crate::fingerprint::hash_words(&s[..]));
            acc ^= crate::fingerprint::mix64(line.0 ^ crate::fingerprint::mix64(content));
        }
        acc
    }
}

impl Forkable for ProvenanceMap {
    fn fork(&self) -> Self {
        ProvenanceMap {
            lines: self.lines.clone(),
            cow_clones: 0,
            cow_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_bytes_have_no_provenance() {
        let prov = ProvenanceMap::new();
        assert_eq!(prov.get(Addr(0x40)), None);
        assert!(prov.line(CacheLineId(1)).is_none());
        assert_eq!(prov.touched_lines(), 0);
    }

    #[test]
    fn set_range_covers_exact_bytes() {
        let mut prov = ProvenanceMap::new();
        prov.set_range(Addr(4), 8, 3);
        assert_eq!(prov.get(Addr(3)), None);
        assert_eq!(prov.get(Addr(4)), Some(3));
        assert_eq!(prov.get(Addr(11)), Some(3));
        assert_eq!(prov.get(Addr(12)), None);
    }

    #[test]
    fn set_range_straddles_lines() {
        let mut prov = ProvenanceMap::new();
        prov.set_range(Addr(60), 8, 9);
        assert_eq!(prov.get(Addr(63)), Some(9));
        assert_eq!(prov.get(Addr(64)), Some(9));
        assert_eq!(prov.touched_lines(), 2);
    }

    #[test]
    fn later_ranges_overwrite_earlier() {
        let mut prov = ProvenanceMap::new();
        prov.set_range(Addr(0), 8, 1);
        prov.set_range(Addr(4), 8, 2);
        assert_eq!(prov.get(Addr(3)), Some(1));
        assert_eq!(prov.get(Addr(4)), Some(2));
        prov.clear();
        assert_eq!(prov.get(Addr(0)), None);
    }

    #[test]
    fn line_mut_exposes_dense_slab() {
        let mut prov = ProvenanceMap::new();
        prov.line_mut(CacheLineId(2))[5] = 8;
        assert_eq!(prov.get(CacheLineId(2).base() + 5), Some(8));
        let line = prov.line(CacheLineId(2)).unwrap();
        assert_eq!(line.iter().filter(|&&id| id != 0).count(), 1);
    }

    #[test]
    fn fork_is_cow() {
        let mut prov = ProvenanceMap::new();
        prov.set_range(Addr(0), 8, 1);
        let mut child = prov.fork();
        assert_eq!(child.cow_clones(), 0);
        child.set_range(Addr(8), 8, 2);
        assert_eq!(child.cow_clones(), 1);
        assert_eq!(child.cow_bytes(), size_of::<ProvLine>() as u64);
        assert_eq!(prov.get(Addr(8)), None, "parent unaffected");
        assert_eq!(child.get(Addr(0)), Some(1), "shared prefix visible");
        // Untouched parents pay nothing.
        assert_eq!(prov.cow_clones(), 0);
    }
}
