//! Copy-on-write forking of simulator state.
//!
//! Checkpoint/fork crash-point exploration runs the deterministic pre-crash
//! schedule once and resumes each post-crash continuation from a snapshot
//! taken at the crash point. Snapshots must therefore be cheap, and the
//! writes between them must cost no more than they would without forking.
//!
//! [`CowBox`] gives both. Storage starts *owned* (`Box`): a write goes
//! straight to it, with no reference count to check. Capturing a snapshot
//! ([`Forkable::fork`], which takes `&mut self`) turns the live state's
//! owned storage into *shared* storage (`Arc`) and hands the snapshot a
//! second reference, so a fork costs one refcount bump per piece of storage.
//! The first write to shared storage copies it back into an owned box
//! (copy-on-write) and reports the copy; storage that no fork ever shared
//! never touches an atomic. Random-mode exploration, which never forks,
//! therefore pays nothing for the mechanism.

use std::ops::Deref;
use std::sync::Arc;

/// A piece of simulator state that can be captured as a cheap, independent
/// copy for later resumption.
///
/// `fork` differs from `Clone` in three ways:
///
/// * it takes `&mut self`: capturing marks the captured storage shared in
///   the original as well, so the original's next write to it copies
///   instead of changing the snapshot;
/// * backing storage stays shared — mutation after the fork is
///   copy-on-write, so forking is O(pieces of storage) refcount bumps rather
///   than O(bytes) copies;
/// * bookkeeping that describes the *forking process itself* (COW copy
///   counters, scratch buffers) starts fresh in the child, so each resumed
///   run reports only its own copy traffic.
pub trait Forkable {
    /// Returns an independent copy sharing backing storage copy-on-write.
    fn fork(&mut self) -> Self;
}

/// Copy-on-write storage that stays owned until a snapshot shares it.
///
/// `Owned` storage is written in place with no atomic operation at all.
/// [`CowBox::make_shared`] (called by [`Forkable::fork`]) moves it behind
/// an [`Arc`]; the first [`CowBox::make_mut`] on storage another holder
/// still references copies it into a fresh `Owned` box and says so, which
/// is what the engine's `fork.cow_*` counters count.
///
/// # Examples
///
/// ```
/// use pmem::{CowBox, Forkable};
///
/// let mut live = CowBox::new([0u8; 4]);
/// assert!(!live.make_mut().1, "owned storage never copies");
/// let snapshot = live.fork();
/// let (bytes, copied) = live.make_mut();
/// bytes[0] = 7;
/// assert!(copied, "the first write after a fork copies once");
/// assert_eq!(snapshot[0], 0, "the snapshot keeps what it captured");
/// assert!(!live.make_mut().1, "the copy is owned again");
/// ```
#[derive(Debug)]
pub enum CowBox<T> {
    /// Storage no other holder references.
    Owned(Box<T>),
    /// Storage shared with snapshots (possibly no longer: a holder whose
    /// co-holders were all dropped writes it in place).
    Shared(Arc<T>),
}

impl<T> CowBox<T> {
    /// Owned storage holding `value`.
    pub fn new(value: T) -> Self {
        CowBox::Owned(Box::new(value))
    }
}

impl<T: Default> CowBox<T> {
    /// Makes the storage shareable: owned storage moves behind an `Arc`
    /// (into a new allocation; the box is freed), shared storage stays as
    /// it is.
    pub fn make_shared(&mut self) {
        if let CowBox::Owned(b) = self {
            let value = std::mem::take(&mut **b);
            *self = CowBox::Shared(Arc::new(value));
        }
    }
}

#[allow(
    clippy::disallowed_methods,
    reason = "the one place copy-on-write checks an Arc's uniqueness"
)]
impl<T: Clone> CowBox<T> {
    /// The storage, writable in place, if no other holder references it:
    /// owned storage, or shared storage whose co-holders were all dropped.
    /// Lets a holder that is about to discard the contents (a crash
    /// clearing a buffer) detach from a snapshot without copying.
    pub fn owned_mut(&mut self) -> Option<&mut T> {
        match self {
            CowBox::Owned(b) => Some(b),
            CowBox::Shared(arc) => Arc::get_mut(arc),
        }
    }

    /// Mutable access to the storage, and whether getting it copied the
    /// storage. Owned storage is returned as it is; shared storage that
    /// another holder still references is copied into a fresh owned box
    /// first (copy-on-write), and only this holder sees the copy.
    pub fn make_mut(&mut self) -> (&mut T, bool) {
        let copied = match self {
            CowBox::Owned(_) => false,
            CowBox::Shared(arc) => {
                if Arc::get_mut(arc).is_some() {
                    false
                } else {
                    let copy = T::clone(arc);
                    *self = CowBox::Owned(Box::new(copy));
                    true
                }
            }
        };
        let value = match self {
            CowBox::Owned(b) => &mut **b,
            CowBox::Shared(arc) => Arc::get_mut(arc).expect("checked unique above"),
        };
        (value, copied)
    }
}

impl<T> Deref for CowBox<T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            CowBox::Owned(b) => b,
            CowBox::Shared(arc) => arc,
        }
    }
}

impl<T: Default> Default for CowBox<T> {
    fn default() -> Self {
        CowBox::new(T::default())
    }
}

/// A deep copy of owned storage, a second reference to shared storage.
impl<T: Clone> Clone for CowBox<T> {
    fn clone(&self) -> Self {
        match self {
            CowBox::Owned(b) => CowBox::Owned(b.clone()),
            CowBox::Shared(arc) => CowBox::Shared(Arc::clone(arc)),
        }
    }
}

impl<T: Clone + Default> Forkable for CowBox<T> {
    /// Shares the storage with the returned copy: the first write on either
    /// side copies.
    fn fork(&mut self) -> Self {
        self.make_shared();
        self.clone()
    }
}

/// Copy-on-write traffic: storage copies made by [`CowBox::make_mut`] and
/// the bytes they copied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowCount {
    /// Copies made.
    pub clones: u64,
    /// Bytes copied.
    pub bytes: u64,
}

impl CowCount {
    /// Counts `clones` copies of `bytes` bytes in total when `copied`.
    #[inline]
    pub fn add_if(&mut self, copied: bool, clones: u64, bytes: u64) {
        if copied {
            self.clones += clones;
            self.bytes += bytes;
        }
    }
}

impl std::iter::Sum for CowCount {
    fn sum<I: Iterator<Item = CowCount>>(iter: I) -> Self {
        iter.fold(CowCount::default(), |acc, c| CowCount {
            clones: acc.clones + c.clones,
            bytes: acc.bytes + c.bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_writes_never_copy() {
        let mut cow = CowBox::new(vec![1u8, 2]);
        for i in 0..4 {
            let (v, copied) = cow.make_mut();
            v.push(i);
            assert!(!copied);
        }
        assert!(matches!(cow, CowBox::Owned(_)));
        assert_eq!(*cow, [1, 2, 0, 1, 2, 3]);
    }

    #[test]
    fn first_write_after_sharing_copies_once_on_the_writing_side() {
        let mut a = CowBox::new([0u64; 8]);
        a.make_shared();
        let mut b = a.clone();
        let (mut count_a, mut count_b) = (CowCount::default(), CowCount::default());

        let (va, copied) = a.make_mut();
        va[0] = 1;
        count_a.add_if(copied, 1, 64);
        assert!(copied, "b still references the storage");
        assert_eq!(count_b, CowCount::default(), "only the writer reports");
        assert_eq!(b[0], 0, "b keeps what was shared");

        let (va, copied) = a.make_mut();
        va[1] = 2;
        count_a.add_if(copied, 1, 64);
        assert!(!copied, "the copy is owned");
        assert_eq!(
            count_a,
            CowCount {
                clones: 1,
                bytes: 64
            }
        );

        // Sharing again: each holder's first write copies once.
        a.make_shared();
        let c = a.clone();
        let (vb, copied) = b.make_mut();
        vb[0] = 9;
        count_b.add_if(copied, 1, 64);
        assert!(!copied, "b's storage lost its other holder when a copied");
        let (va, copied) = a.make_mut();
        va[2] = 3;
        assert!(copied, "c references a's storage");
        assert_eq!((a[0], a[1], a[2]), (1, 2, 3));
        assert_eq!((b[0], c[0], c[2]), (9, 1, 0));
        assert_eq!(count_b, CowCount::default());
    }

    #[test]
    fn a_write_after_the_other_holder_drops_does_not_copy() {
        let mut a = CowBox::new(7u32);
        let b = a.fork();
        drop(b);
        let (v, copied) = a.make_mut();
        *v = 8;
        assert!(!copied);
        assert_eq!(*a, 8);
    }

    #[test]
    fn owned_mut_detaches_nothing_and_sees_only_unreferenced_storage() {
        let mut a = CowBox::new(vec![1u8]);
        assert!(a.owned_mut().is_some());
        let b = a.fork();
        assert!(a.owned_mut().is_none(), "b references it");
        drop(b);
        a.owned_mut().expect("sole holder").clear();
        assert!(a.is_empty());
    }

    #[test]
    fn fork_shares_without_copying() {
        let mut a = CowBox::new(vec![1u8, 2, 3]);
        let b = a.fork();
        assert!(matches!((&a, &b), (CowBox::Shared(x), CowBox::Shared(y)) if Arc::ptr_eq(x, y)));
        assert_eq!(*b, [1, 2, 3]);
    }
}
