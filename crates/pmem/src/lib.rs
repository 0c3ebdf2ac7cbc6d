//! Simulated persistent-memory substrate.
//!
//! The paper's tooling simulates an x86 persistent storage system rather than
//! running on Optane hardware; this crate provides the storage-side pieces of
//! that simulation:
//!
//! * [`Addr`] and [`CacheLineId`] — the simulated physical address space and
//!   its 64-byte cache-line geometry,
//! * [`PmAllocator`] — a simple persistent-heap allocator the benchmark data
//!   structures allocate their nodes from,
//! * [`CowBox`] / [`Forkable`] — copy-on-write storage that stays owned
//!   until a snapshot shares it, and the forking it serves: the engine's
//!   checkpoint/fork crash-point exploration,
//! * [`Fp64`] / [`ArcMemo`] — rolling and memoized content fingerprints
//!   over the persisted state, used by the engine's crash-state
//!   equivalence pruning,
//! * [`FastMap`] / [`FastSet`] — the simulator's one unseeded fast hasher,
//!   used by every map and set on the per-event path (its source lives in
//!   `obs`, which the coverage plane's maps hash with too).
//!
//! # Examples
//!
//! ```
//! use pmem::{Addr, PmAllocator, CACHE_LINE_SIZE};
//!
//! let mut alloc = PmAllocator::new(Addr::BASE, 1 << 20);
//! let a = alloc.alloc(16, 16).expect("in bounds");
//! // A 16-byte pair at a 16-aligned address never straddles a line.
//! assert_eq!(a.cache_line(), (a + 8).cache_line());
//! assert_eq!(CACHE_LINE_SIZE, 64);
//! ```

mod addr;
mod alloc;
pub mod fingerprint;
mod forkable;
#[path = "../../obs/src/hash.rs"]
pub mod hash;

pub use addr::{Addr, CacheLineId, CACHE_LINE_SIZE};
pub use alloc::{AllocError, PmAllocator};
pub use fingerprint::{mix64, ArcMemo, Fp64};
pub use forkable::{CowBox, CowCount, Forkable};
pub use hash::{FastHasher, FastMap, FastSet};
