//! Runtime lowering of source-level stores into instruction-level chunks.

use pmem::Addr;
use px86::Atomicity;
use serde::{Deserialize, Serialize};

use crate::config::CompilerConfig;

/// One instruction-level store produced by lowering a source-level store.
///
/// A source-level store lowers to one chunk in the common case; a torn store
/// lowers to several, and store inventing may prepend a chunk carrying a
/// stashed temporary value. Each chunk becomes a separate store event in the
/// simulation, so a crash can persist some chunks and not others — exactly
/// the partial-persistence behaviour persistency races are about.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreChunk {
    /// First byte written by this chunk.
    pub addr: Addr,
    /// The bytes written.
    pub bytes: Vec<u8>,
    /// `true` if this chunk is a compiler-invented temporary stash rather
    /// than (part of) the source-level value.
    pub invented: bool,
}

impl StoreChunk {
    /// Length of the chunk in bytes.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Whether the chunk writes no bytes (never produced by lowering).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl CompilerConfig {
    /// Lowers a source-level store of `bytes` at `addr` into instruction
    /// chunks.
    ///
    /// * Atomic stores ([`Atomicity::Relaxed`] or
    ///   [`Atomicity::ReleaseAcquire`]) are never split and never get
    ///   invented companions.
    /// * Plain stores wider than 8 bytes always split into word-size chunks
    ///   (no ISA has a general single store that wide).
    /// * Plain 8-byte stores split into two 4-byte stores when
    ///   [`tear_wide_stores`](CompilerConfig::tear_wide_stores) is set — the
    ///   gcc/ARM64 behaviour of Figure 1.
    /// * With [`invent_stores`](CompilerConfig::invent_stores), a plain
    ///   store is preceded by a chunk stashing a scrambled temporary.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty.
    pub fn lower_store(&self, addr: Addr, bytes: &[u8], atomicity: Atomicity) -> Vec<StoreChunk> {
        assert!(!bytes.is_empty(), "zero-length store");
        if self.keeps_whole(bytes.len(), atomicity) {
            return vec![StoreChunk {
                addr,
                bytes: bytes.to_vec(),
                invented: false,
            }];
        }
        let mut chunks = Vec::new();
        if self.invent_stores {
            // Model register-pressure stashing: the destination briefly
            // holds a derived temporary (here, the bitwise complement).
            chunks.push(StoreChunk {
                addr,
                bytes: bytes.iter().map(|b| !b).collect(),
                invented: true,
            });
        }
        let piece = if bytes.len() > 8 {
            8
        } else if bytes.len() == 8 && self.tear_wide_stores {
            4
        } else {
            bytes.len()
        };
        let mut off = 0usize;
        while off < bytes.len() {
            let end = (off + piece).min(bytes.len());
            chunks.push(StoreChunk {
                addr: addr + off as u64,
                bytes: bytes[off..end].to_vec(),
                invented: false,
            });
            off = end;
        }
        chunks
    }

    /// Whether [`lower_store`](Self::lower_store) emits a `len`-byte store
    /// as one chunk holding exactly its bytes: always for a non-tearable
    /// store, and for a tearable one that gets no invented stash and is not
    /// wide enough to be split.
    pub fn keeps_whole(&self, len: usize, atomicity: Atomicity) -> bool {
        !atomicity.is_tearable()
            || (!self.invent_stores && (len < 8 || (len == 8 && !self.tear_wide_stores)))
    }

    /// Lowers a `memset(addr, value, len)` into instruction chunks.
    ///
    /// libc `memset` implementations write in word-size (or wider) pieces
    /// with no cross-word atomicity guarantee; we model 8-byte chunks plus a
    /// tail. The result is always non-atomic.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn lower_memset(&self, addr: Addr, value: u8, len: u64) -> Vec<StoreChunk> {
        assert!(len > 0, "zero-length memset");
        let mut chunks = Vec::new();
        let mut off = 0u64;
        while off < len {
            let n = (len - off).min(8);
            chunks.push(StoreChunk {
                addr: addr + off,
                bytes: vec![value; n as usize],
                invented: false,
            });
            off += n;
        }
        chunks
    }

    /// Lowers a `memcpy`/`memmove` of `data` to `addr` into chunks, like
    /// [`lower_memset`](CompilerConfig::lower_memset).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn lower_memcpy(&self, addr: Addr, data: &[u8]) -> Vec<StoreChunk> {
        assert!(!data.is_empty(), "zero-length memcpy");
        let mut chunks = Vec::new();
        let mut off = 0usize;
        while off < data.len() {
            let end = (off + 8).min(data.len());
            chunks.push(StoreChunk {
                addr: addr + off as u64,
                bytes: data[off..end].to_vec(),
                invented: false,
            });
            off = end;
        }
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Arch, CompilerId, OptLevel};

    fn tearing() -> CompilerConfig {
        CompilerConfig::gcc_o1_arm64()
    }

    fn non_tearing() -> CompilerConfig {
        CompilerConfig::clang_o3_x86()
    }

    #[test]
    fn plain_u64_torn_into_two_halves() {
        let v = 0x1234_5678_1234_5678u64.to_le_bytes();
        let chunks = tearing().lower_store(Addr(0x100), &v, Atomicity::Plain);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].addr, Addr(0x100));
        assert_eq!(chunks[0].bytes, v[..4]);
        assert_eq!(chunks[1].addr, Addr(0x104));
        assert_eq!(chunks[1].bytes, v[4..]);
        assert!(chunks.iter().all(|c| !c.invented));
    }

    #[test]
    fn atomic_u64_never_torn() {
        let v = 7u64.to_le_bytes();
        for atom in [Atomicity::Relaxed, Atomicity::ReleaseAcquire] {
            let chunks = tearing()
                .with_invented_stores()
                .lower_store(Addr(0), &v, atom);
            assert_eq!(chunks.len(), 1);
            assert!(!chunks[0].invented);
        }
    }

    #[test]
    fn non_tearing_config_keeps_u64_whole() {
        let v = 7u64.to_le_bytes();
        let chunks = non_tearing().lower_store(Addr(0), &v, Atomicity::Plain);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len(), 8);
    }

    #[test]
    fn wide_stores_always_split() {
        let data = [0xabu8; 24];
        let chunks = non_tearing().lower_store(Addr(0), &data, Atomicity::Plain);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.len() == 8));
    }

    #[test]
    fn invented_store_precedes_real_value() {
        let cfg = non_tearing().with_invented_stores();
        let v = 0x00ff_00ffu32.to_le_bytes();
        let chunks = cfg.lower_store(Addr(0), &v, Atomicity::Plain);
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].invented);
        assert_eq!(chunks[0].bytes, vec![!v[0], !v[1], !v[2], !v[3]]);
        assert!(!chunks[1].invented);
        assert_eq!(chunks[1].bytes, v.to_vec());
    }

    #[test]
    fn memset_chunks_cover_range_exactly() {
        let chunks = non_tearing().lower_memset(Addr(3), 0, 21);
        let total: u64 = chunks.iter().map(StoreChunk::len).sum();
        assert_eq!(total, 21);
        assert_eq!(chunks[0].addr, Addr(3));
        assert_eq!(chunks.last().unwrap().len(), 5);
        assert!(chunks.iter().all(|c| c.bytes.iter().all(|&b| b == 0)));
    }

    #[test]
    fn memcpy_preserves_data() {
        let data: Vec<u8> = (0..19).collect();
        let chunks = non_tearing().lower_memcpy(Addr(0x40), &data);
        let mut rebuilt = Vec::new();
        for c in &chunks {
            assert_eq!(c.addr, Addr(0x40 + rebuilt.len() as u64));
            rebuilt.extend_from_slice(&c.bytes);
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn small_plain_stores_stay_whole() {
        for len in [1usize, 2, 4] {
            let data = vec![0x5au8; len];
            let chunks = tearing().lower_store(Addr(0), &data, Atomicity::Plain);
            assert_eq!(chunks.len(), 1, "len {len}");
        }
    }

    #[test]
    fn o0_gcc_arm64_does_not_tear() {
        let cfg = CompilerConfig::new(CompilerId::Gcc, Arch::Arm64, OptLevel::O0);
        let chunks = cfg.lower_store(Addr(0), &1u64.to_le_bytes(), Atomicity::Plain);
        assert_eq!(chunks.len(), 1);
    }
}
