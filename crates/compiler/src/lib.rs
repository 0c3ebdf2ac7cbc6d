//! A model of the compiler store optimizations that cause persistency races.
//!
//! Persistency races exist because language standards let compilers assume a
//! non-atomic store is unobserved until the next synchronization operation,
//! which licenses **store tearing** (one source store → several store
//! instructions), **mem-op introduction** (runs of stores → `memset` /
//! `memcpy` / `memmove` calls, which give no 64-bit atomicity guarantee), and
//! **store inventing** (temporarily stashing intermediate values in the
//! destination). §3.2 of the paper studies gcc 10.3 and clang 11.0 and finds
//! these optimizations on both x86-64 and ARM64 (Table 2a), and counts the
//! mem-ops that appear in the benchmarks' assembly versus their source
//! (Table 2b).
//!
//! This crate substitutes for those real compilers:
//!
//! * [`CompilerConfig::lower`] performs the *runtime* lowering used by the
//!   execution engine — splitting plain stores, `memset`s and `memcpy`s into
//!   the instruction-level chunks the configured compiler/architecture could
//!   emit, so torn values are observable post-crash (the Figure 1 demo);
//! * [`compile_unit`] performs the *static* coalescing pass over a
//!   benchmark's source profile, regenerating the Table 2b counts;
//! * [`observed_optimizations`] records the Table 2a rule matrix.
//!
//! # Examples
//!
//! ```
//! use compiler_model::{Arch, CompilerConfig, CompilerId, OptLevel, SourceWrite};
//! use pmem::Addr;
//! use px86::Atomicity;
//!
//! // gcc -O1 on ARM64 tears an aligned 64-bit store into two 32-bit stores.
//! let cfg = CompilerConfig::new(CompilerId::Gcc, Arch::Arm64, OptLevel::O1);
//! let value = 0x1234_5678_1234_5678u64.to_le_bytes();
//! let chunks = cfg.lower(Addr(0x1000), SourceWrite::Store(&value, Atomicity::Plain));
//! assert_eq!(chunks.len(), 2);
//!
//! // An atomic store is never torn.
//! let one = 1u64.to_le_bytes();
//! let chunks = cfg.lower(Addr(0x1000), SourceWrite::Store(&one, Atomicity::ReleaseAcquire));
//! assert_eq!(chunks.len(), 1);
//!
//! // A 2 KiB memset is 256 word chunks, produced one at a time.
//! assert_eq!(cfg.lower(Addr(0x1000), SourceWrite::Memset(0, 2048)).len(), 256);
//! ```

mod config;
mod lower;
mod profile;
mod rules;

pub use config::{Arch, CompilerConfig, CompilerId, OptLevel};
pub use lower::{Lowering, SourceWrite, StoreBytes, StoreChunk};
pub use profile::{
    compile_unit, MemOpCounts, SourceProfile, SourceUnit, MEMCPY_THRESHOLD_WORDS,
    MEMSET_THRESHOLD_WORDS,
};
pub use rules::{observed_optimizations, render_table2a, StoreOptimization};
