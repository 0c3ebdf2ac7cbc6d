//! A simple persistent-heap allocator for benchmark data structures.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::addr::Addr;

/// Error returned when a [`PmAllocator`] cannot satisfy a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    requested: u64,
    remaining: u64,
}

impl AllocError {
    /// Bytes requested by the failing allocation.
    pub fn requested(&self) -> u64 {
        self.requested
    }

    /// Bytes that remained in the arena.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "persistent arena exhausted: requested {} bytes, {} remaining",
            self.requested, self.remaining
        )
    }
}

impl Error for AllocError {}

/// A bump allocator with a size-bucketed free list over a fixed arena.
///
/// This stands in for the persistent allocators the benchmarks use
/// (`libvmemmalloc` for RECIPE, PMDK's heap for the PMDK examples). It is
/// deliberately deterministic: identical allocation sequences produce
/// identical addresses, which keeps executions replayable.
///
/// The allocator state itself is *volatile* (rebuilt by post-crash code);
/// only the allocated object contents live in simulated PM. This mirrors the
/// RECIPE benchmarks, whose allocator is known not to be crash consistent
/// (§7.4).
///
/// # Examples
///
/// ```
/// use pmem::{Addr, PmAllocator};
/// let mut a = PmAllocator::new(Addr::BASE, 4096);
/// let x = a.alloc(64, 64)?;
/// assert!(x.is_aligned(64));
/// a.free(x, 64);
/// let y = a.alloc(64, 64)?; // reuses the freed block
/// assert_eq!(x, y);
/// # Ok::<(), pmem::AllocError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PmAllocator {
    base: Addr,
    limit: Addr,
    cursor: Addr,
    /// Free blocks bucketed by (size, addresses), reused LIFO.
    free: BTreeMap<u64, Vec<Addr>>,
    allocated: u64,
}

impl PmAllocator {
    /// Creates an allocator over the arena `[base, base + capacity)`.
    pub fn new(base: Addr, capacity: u64) -> Self {
        PmAllocator {
            base,
            limit: base + capacity,
            cursor: base,
            free: BTreeMap::new(),
            allocated: 0,
        }
    }

    /// Allocates `size` bytes aligned to `align`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the arena cannot satisfy the request.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or `size` is zero.
    pub fn alloc(&mut self, size: u64, align: u64) -> Result<Addr, AllocError> {
        assert!(size > 0, "zero-size allocation");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        if let Some(list) = self.free.get_mut(&size) {
            // Reuse an aligned block if one exists.
            if let Some(pos) = list.iter().rposition(|a| a.is_aligned(align)) {
                let addr = list.remove(pos);
                if list.is_empty() {
                    self.free.remove(&size);
                }
                self.allocated += size;
                return Ok(addr);
            }
        }
        let start = self.cursor.align_up(align);
        let end = start + size;
        if end > self.limit {
            return Err(AllocError {
                requested: size,
                remaining: self.limit.raw().saturating_sub(self.cursor.raw()),
            });
        }
        self.cursor = end;
        self.allocated += size;
        Ok(start)
    }

    /// Allocates `size` bytes aligned to a cache line (64 bytes).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the arena cannot satisfy the request.
    pub fn alloc_line_aligned(&mut self, size: u64) -> Result<Addr, AllocError> {
        self.alloc(size, crate::CACHE_LINE_SIZE)
    }

    /// Returns a block to the allocator for reuse by same-size allocations.
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside the arena.
    pub fn free(&mut self, addr: Addr, size: u64) {
        assert!(
            addr >= self.base && addr + size <= self.limit,
            "free of block outside arena: {addr} + {size}"
        );
        self.allocated = self.allocated.saturating_sub(size);
        self.free.entry(size).or_default().push(addr);
    }

    /// Bytes currently allocated (alloc minus free).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    /// The base address of the arena.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Resets the allocator to an empty arena (post-crash rebuild).
    pub fn reset(&mut self) {
        self.cursor = self.base;
        self.free.clear();
        self.allocated = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_monotone_and_aligned() {
        let mut a = PmAllocator::new(Addr::BASE, 1 << 16);
        let x = a.alloc(10, 8).unwrap();
        let y = a.alloc(10, 8).unwrap();
        assert!(y > x);
        assert!(x.is_aligned(8) && y.is_aligned(8));
        assert_eq!(a.allocated_bytes(), 20);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut a = PmAllocator::new(Addr::BASE, 64);
        a.alloc(48, 8).unwrap();
        let err = a.alloc(32, 8).unwrap_err();
        assert_eq!(err.requested(), 32);
        assert!(err.remaining() < 32);
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn free_list_reuses_blocks() {
        let mut a = PmAllocator::new(Addr::BASE, 4096);
        let x = a.alloc(32, 8).unwrap();
        a.free(x, 32);
        let y = a.alloc(32, 8).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn free_list_respects_alignment() {
        let mut a = PmAllocator::new(Addr(0x1008), 4096);
        let x = a.alloc(8, 8).unwrap(); // 0x1008, not 64-aligned
        a.free(x, 8);
        let y = a.alloc(8, 64).unwrap();
        assert_ne!(x, y);
        assert!(y.is_aligned(64));
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut a = PmAllocator::new(Addr::BASE, 1 << 20);
            let mut out = Vec::new();
            for i in 1..20u64 {
                out.push(a.alloc(i * 8, 8).unwrap());
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_restores_empty_arena() {
        let mut a = PmAllocator::new(Addr::BASE, 1024);
        let x = a.alloc(100, 8).unwrap();
        a.reset();
        let y = a.alloc(100, 8).unwrap();
        assert_eq!(x, y);
        assert_eq!(a.allocated_bytes(), 100);
    }

    #[test]
    #[should_panic(expected = "outside arena")]
    fn free_outside_arena_panics() {
        let mut a = PmAllocator::new(Addr::BASE, 64);
        a.free(Addr(0x10), 8);
    }
}
