//! Vector clocks over dense thread ids.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::clock::{Clock, ThreadId};

/// Components stored in-struct before spilling to the heap.
///
/// The shipped suite is dominated by programs with at most a handful of
/// simulated threads, so almost every clock on the detector hot paths fits
/// inline and clones are plain copies with no allocation.
const INLINE: usize = 4;

/// Physical storage behind a [`VectorClock`].
///
/// `Inline` holds up to [`INLINE`] components in the struct itself; `Heap`
/// is the spill representation, shared copy-on-write through an [`Arc`] so
/// clone-heavy paths (flushmap records, store provenance, snapshot capture)
/// pay one reference-count bump instead of a `Vec` allocation. Mutation of
/// a shared heap clock goes through [`Arc::make_mut`], which copies only
/// when the allocation is actually aliased.
#[derive(Clone)]
enum Repr {
    Inline([Clock; INLINE]),
    Heap(Arc<Vec<Clock>>),
}

/// A vector clock: one [`Clock`] component per thread.
///
/// Vector clocks are the workhorse of the detector. They implement:
///
/// * the happens-before relation between events ([`happens_before`]),
/// * the consistent-prefix clock vector `CVpre` (§5.1), built as the join of
///   the clock vectors of every pre-crash store the post-crash execution has
///   read from ([`join`]),
/// * the `lastflush` lower bounds on cache-line write-back (§4.1).
///
/// Components default to 0 ("nothing observed from that thread"). The vector
/// grows on demand, so clocks for programs with few threads stay tiny.
///
/// # Representation
///
/// Clocks with at most `INLINE` (4) components live entirely in the struct (no
/// heap allocation; `clone` is a copy). Wider clocks spill to a shared
/// copy-on-write heap vector. Physical storage only ever covers a *prefix*
/// of the logical components — everything past it is implicitly zero — and a
/// cached exact maximum component lets [`leq`] and [`join`] skip their
/// component loops when one side trivially dominates (`self.max == 0`, or
/// `self.max > other.max`). The legacy `Vec`-backed layout survives on the
/// test side (`tests/legacy/`), the differential oracle these semantics are
/// tested against.
///
/// [`happens_before`]: VectorClock::happens_before
/// [`join`]: VectorClock::join
/// [`leq`]: VectorClock::leq
#[derive(Clone)]
pub struct VectorClock {
    /// Logical component count — exactly the `Vec` length the legacy layout
    /// would have. Observable through [`len`](VectorClock::len) and
    /// equality (trailing explicit zeros are part of a clock's identity,
    /// as they were for the derived `Vec` equality).
    len: u32,
    /// Exact maximum over all components (0 for an empty clock).
    max: Clock,
    repr: Repr,
}

impl Default for VectorClock {
    fn default() -> Self {
        VectorClock {
            len: 0,
            max: 0,
            repr: Repr::Inline([0; INLINE]),
        }
    }
}

impl VectorClock {
    /// Creates an empty clock (all components 0).
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// Creates a clock with a single nonzero component.
    ///
    /// # Examples
    ///
    /// ```
    /// use vclock::{ThreadId, VectorClock};
    /// let cv = VectorClock::singleton(ThreadId::new(2), 5);
    /// assert_eq!(cv.get(ThreadId::new(2)), 5);
    /// assert_eq!(cv.get(ThreadId::new(0)), 0);
    /// ```
    pub fn singleton(thread: ThreadId, clock: Clock) -> Self {
        let mut cv = VectorClock::new();
        cv.set(thread, clock);
        cv
    }

    /// The physically stored component prefix; logical components past its
    /// end are zero.
    #[inline]
    fn phys(&self) -> &[Clock] {
        match &self.repr {
            Repr::Inline(buf) => &buf[..(self.len as usize).min(INLINE)],
            Repr::Heap(v) => v.as_slice(),
        }
    }

    /// Mutable physical storage covering at least `need` components,
    /// spilling inline storage to the heap (or un-sharing an aliased heap
    /// allocation) as required.
    fn phys_mut(&mut self, need: usize) -> &mut [Clock] {
        if need > INLINE {
            if let Repr::Inline(buf) = self.repr {
                let mut v = buf.to_vec();
                v.resize(need, 0);
                self.repr = Repr::Heap(Arc::new(v));
            }
        }
        match &mut self.repr {
            Repr::Inline(buf) => &mut buf[..],
            Repr::Heap(v) => {
                let v = Arc::make_mut(v);
                if v.len() < need {
                    v.resize(need, 0);
                }
                v.as_mut_slice()
            }
        }
    }

    /// Returns the clock component for `thread` (0 if never set).
    #[inline]
    pub fn get(&self, thread: ThreadId) -> Clock {
        self.phys().get(thread.as_usize()).copied().unwrap_or(0)
    }

    /// The largest component value (0 for an empty clock). Cached, so this
    /// is O(1); it backs the dominance fast paths of [`leq`] and [`join`].
    ///
    /// [`leq`]: VectorClock::leq
    /// [`join`]: VectorClock::join
    #[inline]
    pub fn max_component(&self) -> Clock {
        self.max
    }

    /// Sets the clock component for `thread`.
    #[inline]
    pub fn set(&mut self, thread: ThreadId, clock: Clock) {
        let idx = thread.as_usize();
        if idx as u64 >= self.len as u64 {
            self.len = (idx + 1) as u32;
        }
        if clock == 0 && idx >= self.phys().len() {
            // Writing zero past the physical prefix only extends the
            // logical length; storage stays implicit.
            return;
        }
        let slots = self.phys_mut(idx + 1);
        let old = slots[idx];
        slots[idx] = clock;
        if clock >= self.max {
            self.max = clock;
        } else if old == self.max {
            // The overwritten slot may have held the unique maximum.
            self.max = self.phys().iter().copied().max().unwrap_or(0);
        }
    }

    /// Increments `thread`'s component and returns the new value.
    ///
    /// This is how a thread stamps a new event: its own component advances.
    #[inline]
    pub fn tick(&mut self, thread: ThreadId) -> Clock {
        let next = self.get(thread) + 1;
        self.set(thread, next);
        next
    }

    /// Joins `other` into `self` (component-wise maximum).
    ///
    /// Used for acquire synchronization and for accumulating `CVpre`.
    /// Fast paths: joining an all-zero clock only extends the logical
    /// length; joining *into* an all-zero clock shares `other`'s storage
    /// (one `Arc` bump for heap clocks); joining a clock with itself (same
    /// allocation) is a no-op.
    #[inline]
    pub fn join(&mut self, other: &VectorClock) {
        self.len = self.len.max(other.len);
        match (&mut self.repr, &other.repr) {
            (Repr::Inline(mine), Repr::Inline(theirs)) => {
                // Both inline — the overwhelmingly common case (suite
                // programs run at most a handful of threads). Lane maxes
                // over `other`'s physical prefix are exact and
                // unconditional: inline slots at or past a clock's `len`
                // are invariantly zero (`len` never shrinks and
                // zero-writes past the prefix stay implicit), so the
                // skipped tail lanes could only lower `mine`, and the
                // loop body is a straight branch-free max instruction.
                let n = (other.len as usize).min(INLINE);
                for (m, &t) in mine[..n].iter_mut().zip(&theirs[..n]) {
                    *m = (*m).max(t);
                }
                self.max = self.max.max(other.max);
            }
            _ => self.join_spilled(other),
        }
    }

    /// [`join`](VectorClock::join) continuation when either side has
    /// spilled to the heap. Fast paths: joining an all-zero clock is a
    /// no-op (the length was already extended); joining *into* an all-zero
    /// clock shares `other`'s storage (one `Arc` bump); joining a clock
    /// with itself (same allocation) is a no-op.
    fn join_spilled(&mut self, other: &VectorClock) {
        if other.max == 0 {
            return;
        }
        if self.max == 0 {
            self.repr = other.repr.clone();
            self.max = other.max;
            return;
        }
        if let (Repr::Heap(a), Repr::Heap(b)) = (&self.repr, &other.repr) {
            if Arc::ptr_eq(a, b) {
                return;
            }
        }
        let theirs = other.phys();
        let mine = self.phys_mut(theirs.len());
        for (m, &t) in mine.iter_mut().zip(theirs) {
            if t > *m {
                *m = t;
            }
        }
        self.max = self.max.max(other.max);
    }

    /// Returns the component-wise maximum of two clocks.
    pub fn joined(&self, other: &VectorClock) -> VectorClock {
        let mut out = self.clone();
        out.join(other);
        out
    }

    /// Returns `true` if every component of `self` is `<=` the corresponding
    /// component of `other`.
    ///
    /// For event clock vectors this is the happens-before-or-equal test: the
    /// event stamped `self` happens before (or is) every event whose clock
    /// vector dominates it.
    ///
    /// Fast paths: an all-zero `self` is below everything; a `self` whose
    /// maximum component exceeds `other`'s maximum cannot be below it; two
    /// clocks sharing one heap allocation are equal.
    #[inline]
    pub fn leq(&self, other: &VectorClock) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Inline(mine), Repr::Inline(theirs)) => {
                // Both inline: the cached-max reject answers half the
                // concurrent pairs in one compare, and the remaining
                // full-width lane comparison is exact — slots past either
                // `len` are zero, so `0 <= x` holds while `x <= 0` fails
                // precisely when a real component sticks out past
                // `other`'s prefix. `&` keeps the chain branch-free.
                self.max <= other.max
                    && (mine[0] <= theirs[0])
                        & (mine[1] <= theirs[1])
                        & (mine[2] <= theirs[2])
                        & (mine[3] <= theirs[3])
            }
            _ => self.leq_spilled(other),
        }
    }

    /// [`leq`](VectorClock::leq) continuation when either side has spilled
    /// to the heap. Fast paths: an all-zero `self` is below everything; a
    /// `self` whose maximum component exceeds `other`'s maximum cannot be
    /// below it; two clocks sharing one heap allocation are equal.
    fn leq_spilled(&self, other: &VectorClock) -> bool {
        if self.max == 0 {
            return true;
        }
        if self.max > other.max {
            return false;
        }
        if let (Repr::Heap(a), Repr::Heap(b)) = (&self.repr, &other.repr) {
            if Arc::ptr_eq(a, b) {
                return true;
            }
        }
        let (mine, theirs) = (self.phys(), other.phys());
        let shared = mine.len().min(theirs.len());
        mine[..shared]
            .iter()
            .zip(&theirs[..shared])
            .all(|(&m, &t)| m <= t)
            && mine[shared..].iter().all(|&c| c == 0)
    }

    /// Strict happens-before: `self <= other` and `self != other`.
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        self.leq(other) && !other.leq(self)
    }

    /// Returns `true` if neither clock happens before the other.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Tests whether the single event `(thread, clock)` is contained in the
    /// prefix described by this clock vector.
    ///
    /// This is the test Yashme uses to decide whether a flush (labelled by
    /// the flushing thread and its clock) lies inside the consistent prefix
    /// `CVpre`: the flush is included iff `clock <= CVpre[thread]`.
    pub fn contains(&self, thread: ThreadId, clock: Clock) -> bool {
        clock <= self.get(thread)
    }

    /// Returns `true` if all components are zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.max == 0
    }

    /// Number of allocated components (threads seen so far).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Iterates over `(thread, clock)` pairs with nonzero clocks.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, Clock)> + '_ {
        self.phys()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (ThreadId::new(i as u32), c))
    }

    /// Resets every component to zero, releasing any shared storage.
    pub fn clear(&mut self) {
        *self = VectorClock::default();
    }

    /// The logical components, zero-extended to [`len`](VectorClock::len) —
    /// exactly the `Vec` the legacy layout would hold.
    fn logical(&self) -> impl Iterator<Item = Clock> + '_ {
        let phys = self.phys();
        (0..self.len as usize).map(move |i| phys.get(i).copied().unwrap_or(0))
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        // Legacy equality was derived `Vec` equality: lengths must match
        // (trailing explicit zeros are significant) and so must every
        // component.
        self.len == other.len && self.logical().eq(other.logical())
    }
}

impl Eq for VectorClock {}

impl Hash for VectorClock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Mirror the derived `Hash` of the legacy `Vec` layout: length
        // prefix, then each logical component. Physical representation
        // (inline vs heap, shared vs owned) must not leak into the hash.
        state.write_usize(self.len as usize);
        for c in self.logical() {
            c.hash(state);
        }
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render exactly like the legacy derived Debug so fingerprints and
        // goldens are representation-independent.
        f.debug_struct("VectorClock")
            .field("components", &DebugComponents(self))
            .finish()
    }
}

struct DebugComponents<'a>(&'a VectorClock);

impl fmt::Debug for DebugComponents<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.logical()).finish()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        for (t, c) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{t}:{c}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<(ThreadId, Clock)> for VectorClock {
    fn from_iter<I: IntoIterator<Item = (ThreadId, Clock)>>(iter: I) -> Self {
        let mut cv = VectorClock::new();
        for (t, c) in iter {
            cv.set(t, c);
        }
        cv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn empty_clock_is_leq_everything() {
        let a = VectorClock::new();
        let b = VectorClock::singleton(t(0), 3);
        assert!(a.leq(&b));
        assert!(a.leq(&a));
        assert!(a.is_empty());
        assert!(!b.is_empty());
    }

    #[test]
    fn tick_advances_own_component() {
        let mut cv = VectorClock::new();
        assert_eq!(cv.tick(t(1)), 1);
        assert_eq!(cv.tick(t(1)), 2);
        assert_eq!(cv.get(t(1)), 2);
        assert_eq!(cv.get(t(0)), 0);
    }

    #[test]
    fn join_is_componentwise_max() {
        let a = VectorClock::from_iter([(t(0), 5), (t(1), 1)]);
        let b = VectorClock::from_iter([(t(0), 2), (t(2), 7)]);
        let j = a.joined(&b);
        assert_eq!(j.get(t(0)), 5);
        assert_eq!(j.get(t(1)), 1);
        assert_eq!(j.get(t(2)), 7);
    }

    #[test]
    fn happens_before_is_strict() {
        let a = VectorClock::singleton(t(0), 1);
        let mut b = a.clone();
        b.tick(t(1));
        assert!(a.happens_before(&b));
        assert!(!b.happens_before(&a));
        assert!(!a.happens_before(&a));
    }

    #[test]
    fn concurrent_clocks() {
        let a = VectorClock::singleton(t(0), 1);
        let b = VectorClock::singleton(t(1), 1);
        assert!(a.concurrent_with(&b));
        assert!(b.concurrent_with(&a));
        assert!(!a.concurrent_with(&a));
    }

    #[test]
    fn contains_tests_prefix_membership() {
        let cv = VectorClock::from_iter([(t(0), 4), (t(1), 2)]);
        assert!(cv.contains(t(0), 4));
        assert!(cv.contains(t(0), 1));
        assert!(!cv.contains(t(0), 5));
        assert!(!cv.contains(t(2), 1));
    }

    #[test]
    fn display_formats_nonzero_components() {
        let cv = VectorClock::from_iter([(t(0), 1), (t(2), 3)]);
        assert_eq!(format!("{cv}"), "[T0:1, T2:3]");
    }

    #[test]
    fn ragged_lengths_compare_correctly() {
        // A longer vector with a nonzero tail must not be leq a shorter one.
        let long = VectorClock::from_iter([(t(3), 1)]);
        let short = VectorClock::singleton(t(0), 9);
        assert!(!long.leq(&short));
        assert!(!short.leq(&long));
    }

    #[test]
    fn spills_past_inline_capacity() {
        let mut cv = VectorClock::new();
        for i in 0..12u32 {
            cv.set(t(i), u64::from(i) + 1);
        }
        for i in 0..12u32 {
            assert_eq!(cv.get(t(i)), u64::from(i) + 1);
        }
        assert_eq!(cv.len(), 12);
        assert_eq!(cv.max_component(), 12);
    }

    #[test]
    fn shared_heap_clone_diverges_on_write() {
        let mut a = VectorClock::new();
        for i in 0..8u32 {
            a.set(t(i), 5);
        }
        let b = a.clone(); // Arc bump, shared storage
        a.tick(t(0));
        assert_eq!(a.get(t(0)), 6, "writer sees its own mutation");
        assert_eq!(b.get(t(0)), 5, "clone is unaffected (copy-on-write)");
        assert!(b.happens_before(&a));
    }

    #[test]
    fn trailing_zero_length_is_part_of_identity() {
        // Legacy derived Vec equality distinguished [1] from [1, 0].
        let a = VectorClock::singleton(t(0), 1);
        let mut b = VectorClock::singleton(t(0), 1);
        b.set(t(1), 0);
        assert_ne!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        // But they are mutually leq: trailing zeros don't order clocks.
        assert!(a.leq(&b) && b.leq(&a));
    }

    #[test]
    fn max_stays_exact_when_maximum_is_overwritten() {
        let mut cv = VectorClock::from_iter([(t(0), 9), (t(1), 4)]);
        assert_eq!(cv.max_component(), 9);
        cv.set(t(0), 1);
        assert_eq!(cv.max_component(), 4);
        cv.set(t(1), 0);
        assert_eq!(cv.max_component(), 1);
    }

    #[test]
    fn debug_matches_legacy_derived_format() {
        let mut cv = VectorClock::new();
        cv.set(t(2), 3);
        assert_eq!(format!("{cv:?}"), "VectorClock { components: [0, 0, 3] }");
    }

    #[test]
    fn join_into_empty_shares_heap_storage() {
        let mut wide = VectorClock::new();
        for i in 0..10u32 {
            wide.set(t(i), 2);
        }
        let mut acc = VectorClock::new();
        acc.join(&wide);
        assert_eq!(acc, wide);
        // Self-join through the shared allocation is a no-op.
        let snapshot = acc.clone();
        acc.join(&wide);
        assert_eq!(acc, snapshot);
    }
}
