//! Runtime lowering of source-level writes into instruction-level chunks.

use pmem::Addr;
use px86::Atomicity;

use crate::config::CompilerConfig;

/// A source-level write, as the program issued it, before lowering.
#[derive(Debug, Clone, Copy)]
pub enum SourceWrite<'a> {
    /// A store of these bytes with this atomicity.
    Store(&'a [u8], Atomicity),
    /// `memset(addr, value, len)` with this value and length.
    Memset(u8, u64),
    /// `memcpy`/`memmove` of these bytes.
    Memcpy(&'a [u8]),
}

impl SourceWrite<'_> {
    /// The language-level atomicity every chunk of the write carries:
    /// `memset` and `memcpy` are always non-atomic.
    #[inline]
    pub fn atomicity(&self) -> Atomicity {
        match *self {
            SourceWrite::Store(_, atomicity) => atomicity,
            SourceWrite::Memset(..) | SourceWrite::Memcpy(_) => Atomicity::Plain,
        }
    }
}

/// One instruction-level store produced by lowering a source-level write.
///
/// A source-level store lowers to one chunk in the common case; a torn store
/// lowers to several, and store inventing may prepend a chunk carrying a
/// stashed temporary value. Each chunk becomes a separate store event in the
/// simulation, so a crash can persist some chunks and not others — exactly
/// the partial-persistence behaviour persistency races are about.
#[derive(Debug, Clone)]
pub struct StoreChunk {
    /// First byte written by this chunk.
    pub addr: Addr,
    /// The bytes written: inline for every word-size piece.
    pub bytes: StoreBytes,
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

/// The payload of a lowered chunk (and of the store event made from it):
/// up to 8 bytes — every split word, `memset` and `memcpy` chunk — live
/// inline, so lowering, creating or cloning one allocates nothing. Longer
/// payloads, from wide non-tearable stores and the invented stash of a wide
/// store, go to the heap. Derefs to `[u8]`.
#[derive(Clone)]
pub struct StoreBytes(Payload);

#[derive(Clone)]
enum Payload {
    Inline { len: u8, buf: [u8; 8] },
    Heap(Box<[u8]>),
}

impl StoreBytes {
    /// `len` copies of `value`.
    #[inline]
    pub fn filled(value: u8, len: usize) -> Self {
        if len <= 8 {
            StoreBytes(Payload::Inline {
                len: len as u8,
                buf: [value; 8],
            })
        } else {
            StoreBytes(Payload::Heap(vec![value; len].into()))
        }
    }
}

impl From<&[u8]> for StoreBytes {
    #[inline]
    fn from(bytes: &[u8]) -> Self {
        StoreBytes(if bytes.len() <= 8 {
            // A whole word, the common case, copies as one fixed-size move.
            let buf = match <[u8; 8]>::try_from(bytes) {
                Ok(word) => word,
                Err(_) => {
                    let mut buf = [0u8; 8];
                    buf[..bytes.len()].copy_from_slice(bytes);
                    buf
                }
            };
            Payload::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            Payload::Heap(bytes.into())
        })
    }
}

impl std::ops::Deref for StoreBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Payload::Inline { len, buf } => &buf[..usize::from(*len)],
            Payload::Heap(bytes) => bytes,
        }
    }
}

impl std::ops::DerefMut for StoreBytes {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Payload::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Payload::Heap(bytes) => bytes,
        }
    }
}

impl std::fmt::Debug for StoreBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl CompilerConfig {
    /// Lowers a source-level write of `write` at `addr` into instruction
    /// chunks, yielded in emission order.
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
    /// * libc `memset`/`memcpy` implementations write in word-size (or
    ///   wider) pieces with no cross-word atomicity guarantee; they lower to
    ///   8-byte chunks in ascending address order plus a tail, never
    ///   invented.
    ///
    /// The chunks borrow nothing from `self`, and only a payload wider than
    /// 8 bytes allocates.
    ///
    /// # Panics
    ///
    /// Panics if the write is empty.
    #[inline]
    pub fn lower<'a>(&self, addr: Addr, write: SourceWrite<'a>) -> Lowering<'a> {
        let (src, len, piece, invent) = match write {
            SourceWrite::Store(bytes, atomicity) => {
                let len = bytes.len();
                let piece = if !atomicity.is_tearable() {
                    len
                } else if len > 8 {
                    8
                } else if len == 8 && self.tear_wide_stores {
                    4
                } else {
                    len
                };
                let invent = atomicity.is_tearable() && self.invent_stores;
                (Source::Bytes(bytes), len as u64, piece as u64, invent)
            }
            SourceWrite::Memset(value, len) => (Source::Fill(value), len, 8, false),
            SourceWrite::Memcpy(data) => (Source::Bytes(data), data.len() as u64, 8, false),
        };
        assert!(len > 0, "zero-length write");
        Lowering {
            addr,
            src,
            len,
            piece,
            off: 0,
            invent,
        }
    }
}

/// Where a lowering takes its chunk payloads from.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// Sub-slices of the source bytes (stores and `memcpy`).
    Bytes(&'a [u8]),
    /// Runs of one value (`memset`).
    Fill(u8),
}

/// The chunks of one lowered write, in emission order: see
/// [`CompilerConfig::lower`].
#[derive(Debug, Clone)]
pub struct Lowering<'a> {
    addr: Addr,
    src: Source<'a>,
    len: u64,
    /// Width of every split piece (the last may be shorter).
    piece: u64,
    /// Bytes of the source already emitted.
    off: u64,
    /// An invented stash is still to come (it precedes the real pieces).
    invent: bool,
}

impl Iterator for Lowering<'_> {
    type Item = StoreChunk;

    #[inline]
    fn next(&mut self) -> Option<StoreChunk> {
        if self.invent {
            // Model register-pressure stashing: the destination briefly
            // holds a derived temporary (here, the bitwise complement).
            self.invent = false;
            let Source::Bytes(bytes) = self.src else {
                unreachable!("only stores get invented stashes");
            };
            let mut stash = StoreBytes::from(bytes);
            stash.iter_mut().for_each(|b| *b = !*b);
            return Some(StoreChunk {
                addr: self.addr,
                bytes: stash,
                invented: true,
            });
        }
        if self.off == self.len {
            return None;
        }
        let start = self.off;
        let end = (start + self.piece).min(self.len);
        self.off = end;
        let bytes = match self.src {
            Source::Bytes(bytes) => StoreBytes::from(&bytes[start as usize..end as usize]),
            Source::Fill(value) => StoreBytes::filled(value, (end - start) as usize),
        };
        Some(StoreChunk {
            addr: self.addr + start,
            bytes,
            invented: false,
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.len - self.off).div_ceil(self.piece) as usize + usize::from(self.invent);
        (n, Some(n))
    }
}

impl ExactSizeIterator for Lowering<'_> {}

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

    fn lower(cfg: CompilerConfig, addr: Addr, write: SourceWrite<'_>) -> Vec<StoreChunk> {
        let lowering = cfg.lower(addr, write);
        let hinted = lowering.len();
        let chunks: Vec<StoreChunk> = lowering.collect();
        assert_eq!(chunks.len(), hinted, "size hint is exact");
        chunks
    }

    fn store(
        cfg: CompilerConfig,
        addr: Addr,
        bytes: &[u8],
        atomicity: Atomicity,
    ) -> Vec<StoreChunk> {
        lower(cfg, addr, SourceWrite::Store(bytes, atomicity))
    }

    #[test]
    fn plain_u64_torn_into_two_halves() {
        let v = 0x1234_5678_1234_5678u64.to_le_bytes();
        let chunks = store(tearing(), Addr(0x100), &v, Atomicity::Plain);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].addr, Addr(0x100));
        assert_eq!(chunks[0].bytes[..], v[..4]);
        assert_eq!(chunks[1].addr, Addr(0x104));
        assert_eq!(chunks[1].bytes[..], v[4..]);
        assert!(chunks.iter().all(|c| !c.invented));
    }

    #[test]
    fn atomic_u64_never_torn() {
        let v = 7u64.to_le_bytes();
        for atom in [Atomicity::Relaxed, Atomicity::ReleaseAcquire] {
            let chunks = store(tearing().with_invented_stores(), Addr(0), &v, atom);
            assert_eq!(chunks.len(), 1);
            assert!(!chunks[0].invented);
        }
    }

    #[test]
    fn wide_atomic_store_stays_one_chunk() {
        let data: Vec<u8> = (0..24).collect();
        let chunks = store(tearing(), Addr(0), &data, Atomicity::ReleaseAcquire);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].bytes[..], data[..]);
    }

    #[test]
    fn non_tearing_config_keeps_u64_whole() {
        let v = 7u64.to_le_bytes();
        let chunks = store(non_tearing(), Addr(0), &v, Atomicity::Plain);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len(), 8);
    }

    #[test]
    fn wide_stores_always_split() {
        let data = [0xabu8; 24];
        let chunks = store(non_tearing(), Addr(0), &data, Atomicity::Plain);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.len() == 8));
    }

    #[test]
    fn invented_store_precedes_real_value() {
        let cfg = non_tearing().with_invented_stores();
        let v = 0x00ff_00ffu32.to_le_bytes();
        let chunks = store(cfg, Addr(0), &v, Atomicity::Plain);
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].invented);
        assert_eq!(chunks[0].bytes[..], [!v[0], !v[1], !v[2], !v[3]]);
        assert!(!chunks[1].invented);
        assert_eq!(chunks[1].bytes[..], v);
    }

    #[test]
    fn invented_stash_of_a_wide_store_covers_it_whole() {
        let cfg = non_tearing().with_invented_stores();
        let data: Vec<u8> = (0..20).collect();
        let chunks = store(cfg, Addr(0x40), &data, Atomicity::Plain);
        assert_eq!(chunks.len(), 4);
        assert!(chunks[0].invented);
        assert_eq!(chunks[0].addr, Addr(0x40));
        let complement: Vec<u8> = data.iter().map(|b| !b).collect();
        assert_eq!(chunks[0].bytes[..], complement[..]);
        assert!(chunks[1..].iter().all(|c| !c.invented));
    }

    #[test]
    fn memset_chunks_cover_range_exactly() {
        let chunks = lower(non_tearing(), Addr(3), SourceWrite::Memset(0, 21));
        let total: u64 = chunks.iter().map(StoreChunk::len).sum();
        assert_eq!(total, 21);
        assert_eq!(chunks[0].addr, Addr(3));
        assert_eq!(chunks.last().unwrap().len(), 5);
        assert!(chunks.iter().all(|c| c.bytes.iter().all(|&b| b == 0)));
    }

    #[test]
    fn memcpy_preserves_data() {
        let data: Vec<u8> = (0..19).collect();
        let chunks = lower(non_tearing(), Addr(0x40), SourceWrite::Memcpy(&data));
        let mut rebuilt = Vec::new();
        for c in &chunks {
            assert_eq!(c.addr, Addr(0x40 + rebuilt.len() as u64));
            rebuilt.extend_from_slice(&c.bytes);
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn mem_ops_are_plain_and_stores_keep_their_atomicity() {
        assert_eq!(SourceWrite::Memset(1, 8).atomicity(), Atomicity::Plain);
        assert_eq!(SourceWrite::Memcpy(&[1]).atomicity(), Atomicity::Plain);
        let w = SourceWrite::Store(&[1], Atomicity::Relaxed);
        assert_eq!(w.atomicity(), Atomicity::Relaxed);
    }

    #[test]
    fn small_plain_stores_stay_whole() {
        for len in [1usize, 2, 4] {
            let data = vec![0x5au8; len];
            let chunks = store(tearing(), Addr(0), &data, Atomicity::Plain);
            assert_eq!(chunks.len(), 1, "len {len}");
        }
    }

    #[test]
    fn o0_gcc_arm64_does_not_tear() {
        let cfg = CompilerConfig::new(CompilerId::Gcc, Arch::Arm64, OptLevel::O0);
        let chunks = store(cfg, Addr(0), &1u64.to_le_bytes(), Atomicity::Plain);
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-length write")]
    fn empty_writes_panic() {
        let _ = non_tearing().lower(Addr(0), SourceWrite::Memset(0, 0));
    }

    #[test]
    fn store_bytes_round_trip_inline_and_on_the_heap() {
        for len in [1usize, 4, 8, 9, 64] {
            let data: Vec<u8> = (0..len as u8).collect();
            let bytes = StoreBytes::from(&data[..]);
            assert_eq!(&bytes[..], &data[..]);
            assert_eq!(&bytes.clone()[..], &data[..]);
            assert_eq!(format!("{bytes:?}"), format!("{data:?}"));
            assert_eq!(StoreBytes::filled(7, len)[..], vec![7u8; len][..]);
        }
    }
}
