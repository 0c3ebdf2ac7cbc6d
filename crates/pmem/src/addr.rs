//! Simulated physical addresses and cache-line geometry.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// Size of a cache line in bytes (x86).
pub const CACHE_LINE_SIZE: u64 = 64;

/// An address in the simulated persistent-memory address space.
///
/// Addresses are plain 64-bit offsets; the simulation never dereferences
/// them as host pointers. Benchmarks obtain addresses from a
/// [`PmAllocator`](crate::PmAllocator) and pass them to the execution
/// engine's load/store API.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Addr(pub u64);

impl Addr {
    /// The conventional base of the simulated persistent heap.
    ///
    /// Nonzero so that a zero address can play the role of a null pointer in
    /// persistent data structures.
    pub const BASE: Addr = Addr(0x1000);

    /// The null address (used as a persistent null pointer).
    pub const NULL: Addr = Addr(0);

    /// Returns `true` if this is the null address.
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns the raw numeric address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the identifier of the cache line containing this address.
    ///
    /// This is the paper's `CacheID(addr)` function (Fig. 8).
    pub const fn cache_line(self) -> CacheLineId {
        CacheLineId(self.0 / CACHE_LINE_SIZE)
    }

    /// Returns the byte offset of this address within its cache line.
    pub const fn line_offset(self) -> u64 {
        self.0 % CACHE_LINE_SIZE
    }

    /// Returns this address advanced by `bytes`.
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }

    /// Returns `true` if `self` is aligned to `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn is_aligned(self, align: u64) -> bool {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.0 & (align - 1) == 0
    }

    /// Rounds this address up to the next multiple of `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align_up(self, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        Addr((self.0 + align - 1) & !(align - 1))
    }

    /// Iterates over the cache lines touched by the byte range
    /// `[self, self + len)`.
    pub fn lines_in_range(self, len: u64) -> impl Iterator<Item = CacheLineId> {
        let first = self.0 / CACHE_LINE_SIZE;
        let last = if len == 0 {
            first
        } else {
            (self.0 + len - 1) / CACHE_LINE_SIZE
        };
        (first..=last).map(CacheLineId)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl AddAssign<u64> for Addr {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Addr> for Addr {
    type Output = u64;
    fn sub(self, rhs: Addr) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// The identifier of a 64-byte cache line.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CacheLineId(pub u64);

impl CacheLineId {
    /// Returns the first address on this line.
    pub const fn base(self) -> Addr {
        Addr(self.0 * CACHE_LINE_SIZE)
    }

    /// Returns `true` if `addr` lies on this line.
    pub const fn contains(self, addr: Addr) -> bool {
        addr.0 / CACHE_LINE_SIZE == self.0
    }
}

impl fmt::Display for CacheLineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CL{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_line_of_addr() {
        assert_eq!(Addr(0).cache_line(), CacheLineId(0));
        assert_eq!(Addr(63).cache_line(), CacheLineId(0));
        assert_eq!(Addr(64).cache_line(), CacheLineId(1));
        assert_eq!(Addr(130).cache_line(), CacheLineId(2));
    }

    #[test]
    fn line_offset_and_base() {
        let a = Addr(70);
        assert_eq!(a.line_offset(), 6);
        assert_eq!(a.cache_line().base(), Addr(64));
        assert!(a.cache_line().contains(Addr(127)));
        assert!(!a.cache_line().contains(Addr(128)));
    }

    #[test]
    fn align_up_rounds() {
        assert_eq!(Addr(0).align_up(8), Addr(0));
        assert_eq!(Addr(1).align_up(8), Addr(8));
        assert_eq!(Addr(8).align_up(8), Addr(8));
        assert_eq!(Addr(9).align_up(16), Addr(16));
        assert!(Addr(16).is_aligned(16));
        assert!(!Addr(17).is_aligned(2));
    }

    #[test]
    fn lines_in_range_spans() {
        let lines: Vec<_> = Addr(60).lines_in_range(8).collect();
        assert_eq!(lines, vec![CacheLineId(0), CacheLineId(1)]);
        let lines: Vec<_> = Addr(0).lines_in_range(64).collect();
        assert_eq!(lines, vec![CacheLineId(0)]);
        // Zero-length range still names its line.
        let lines: Vec<_> = Addr(65).lines_in_range(0).collect();
        assert_eq!(lines, vec![CacheLineId(1)]);
    }

    #[test]
    fn arithmetic() {
        let a = Addr(100);
        assert_eq!(a + 4, Addr(104));
        assert_eq!(Addr(104) - a, 4);
        let mut b = a;
        b += 8;
        assert_eq!(b, Addr(108));
        assert_eq!(a.offset(2), Addr(102));
    }

    #[test]
    fn null_address() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr::BASE.is_null());
        assert_eq!(format!("{}", Addr(255)), "0xff");
    }
}
