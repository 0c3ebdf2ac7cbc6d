//! Simulated persistent-memory substrate.
//!
//! The paper's tooling simulates an x86 persistent storage system rather than
//! running on Optane hardware; this crate provides the storage-side pieces of
//! that simulation:
//!
//! * [`Addr`] and [`CacheLineId`] — the simulated physical address space and
//!   its 64-byte cache-line geometry,
//! * [`PmImage`] — a byte image representing the contents of persistent
//!   storage (what survives a crash),
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
//!   `obs`, which the coverage plane's maps hash with too),
//! * [`StructLayout`] — a helper for laying out C-style structs in simulated
//!   PM with natural field alignment, so benchmark ports can mirror the
//!   field-level layout (and cache-line co-residency) of the original C++
//!   code.
//!
//! # Examples
//!
//! ```
//! use pmem::{Addr, PmAllocator, PmImage, CACHE_LINE_SIZE};
//!
//! let mut alloc = PmAllocator::new(Addr::BASE, 1 << 20);
//! let a = alloc.alloc(16, 8).expect("in bounds");
//! let mut image = PmImage::new();
//! image.write_u64(a, 0xdead_beef);
//! assert_eq!(image.read_u64(a), 0xdead_beef);
//! assert_eq!(CACHE_LINE_SIZE, 64);
//! ```

mod addr;
mod alloc;
pub mod fingerprint;
mod forkable;
#[path = "../../obs/src/hash.rs"]
pub mod hash;
mod image;
mod layout;

pub use addr::{Addr, CacheLineId, CACHE_LINE_SIZE};
pub use alloc::{AllocError, PmAllocator};
pub use fingerprint::{mix64, ArcMemo, Fp64};
pub use forkable::{CowBox, CowCount, Forkable};
pub use hash::{FastHasher, FastMap, FastSet};
pub use image::PmImage;
pub use layout::{Field, StructLayout};
