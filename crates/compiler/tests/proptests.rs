//! Property-based tests for the lowering model: lowered chunks must always
//! reconstruct the source-level effect exactly.

use compiler_model::{Arch, CompilerConfig, CompilerId, OptLevel, SourceWrite, StoreChunk};
use pmem::Addr;
use proptest::prelude::*;
use px86::Atomicity;

fn arb_config() -> impl Strategy<Value = CompilerConfig> {
    (
        prop_oneof![Just(CompilerId::Gcc), Just(CompilerId::Clang)],
        prop_oneof![Just(Arch::X86_64), Just(Arch::Arm64)],
        prop_oneof![
            Just(OptLevel::O0),
            Just(OptLevel::O1),
            Just(OptLevel::O2),
            Just(OptLevel::O3)
        ],
        any::<bool>(),
    )
        .prop_map(|(c, a, o, invent)| {
            let cfg = CompilerConfig::new(c, a, o);
            if invent {
                cfg.with_invented_stores()
            } else {
                cfg
            }
        })
}

fn arb_atomicity() -> impl Strategy<Value = Atomicity> {
    prop_oneof![
        Just(Atomicity::Plain),
        Just(Atomicity::Relaxed),
        Just(Atomicity::ReleaseAcquire)
    ]
}

/// Lowers `write` at `addr`, checking the iterator's exact length against
/// the chunks it yields.
fn lower(cfg: &CompilerConfig, addr: u64, write: SourceWrite<'_>) -> Vec<StoreChunk> {
    let lowering = cfg.lower(Addr(addr), write);
    let hinted = lowering.len();
    let chunks: Vec<StoreChunk> = lowering.collect();
    assert_eq!(chunks.len(), hinted, "exact size hint");
    chunks
}

/// Applies chunks to a byte map and returns the reconstructed range.
fn replay(chunks: &[StoreChunk], base: Addr, len: usize) -> Vec<Option<u8>> {
    let mut mem = vec![None; len];
    for c in chunks {
        for (i, &b) in c.bytes.iter().enumerate() {
            let at = c.addr.raw() + i as u64;
            assert!(
                at >= base.raw() && at < base.raw() + len as u64,
                "chunk outside range"
            );
            mem[(at - base.raw()) as usize] = Some(b);
        }
    }
    mem
}

proptest! {
    #[test]
    fn lowered_store_reconstructs_the_value(
        cfg in arb_config(),
        atomicity in arb_atomicity(),
        bytes in proptest::collection::vec(any::<u8>(), 1..40),
        addr in 0x1000u64..0x2000,
    ) {
        let chunks = lower(&cfg, addr, SourceWrite::Store(&bytes, atomicity));
        // Non-invented chunks, applied in order, must equal the source bytes.
        let real: Vec<_> = chunks.iter().filter(|c| !c.invented).cloned().collect();
        let mem = replay(&real, Addr(addr), bytes.len());
        for (i, &b) in bytes.iter().enumerate() {
            prop_assert_eq!(mem[i], Some(b), "byte {} wrong", i);
        }
        // And applying ALL chunks in order also ends at the source bytes
        // (invented stashes are overwritten).
        let mem = replay(&chunks, Addr(addr), bytes.len());
        for (i, &b) in bytes.iter().enumerate() {
            prop_assert_eq!(mem[i], Some(b));
        }
    }

    #[test]
    fn atomic_stores_are_never_split_or_invented(
        cfg in arb_config(),
        bytes in proptest::collection::vec(any::<u8>(), 1..9),
        addr in 0x1000u64..0x2000,
    ) {
        for atom in [Atomicity::Relaxed, Atomicity::ReleaseAcquire] {
            let chunks = lower(&cfg, addr, SourceWrite::Store(&bytes, atom));
            prop_assert_eq!(chunks.len(), 1);
            prop_assert!(!chunks[0].invented);
            prop_assert_eq!(&chunks[0].bytes[..], &bytes[..]);
        }
    }

    #[test]
    fn chunks_never_overlap_except_invented(
        cfg in arb_config(),
        bytes in proptest::collection::vec(any::<u8>(), 1..40),
        addr in 0x1000u64..0x2000,
    ) {
        let chunks = lower(&cfg, addr, SourceWrite::Store(&bytes, Atomicity::Plain));
        let real: Vec<_> = chunks.iter().filter(|c| !c.invented).collect();
        let mut covered = vec![false; bytes.len()];
        for c in &real {
            for i in 0..c.bytes.len() {
                let off = (c.addr.raw() + i as u64 - addr) as usize;
                prop_assert!(!covered[off], "real chunks overlap at offset {}", off);
                covered[off] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "every byte covered");
    }

    #[test]
    fn memset_covers_exactly_the_range(
        cfg in arb_config(),
        value in any::<u8>(),
        len in 1u64..100,
        addr in 0x1000u64..0x2000,
    ) {
        let chunks = lower(&cfg, addr, SourceWrite::Memset(value, len));
        let mem = replay(&chunks, Addr(addr), len as usize);
        prop_assert!(mem.iter().all(|&b| b == Some(value)));
        let total: u64 = chunks.iter().map(|c| c.bytes.len() as u64).sum();
        prop_assert_eq!(total, len, "no byte written twice");
        // Word-size pieces, never invented, in ascending address order.
        prop_assert!(chunks.iter().all(|c| c.len() <= 8 && !c.invented));
        for w in chunks.windows(2) {
            prop_assert_eq!(w[0].addr + w[0].len(), w[1].addr);
        }
    }

    #[test]
    fn memcpy_preserves_data_in_order(
        cfg in arb_config(),
        data in proptest::collection::vec(any::<u8>(), 1..100),
        addr in 0x1000u64..0x2000,
    ) {
        let chunks = lower(&cfg, addr, SourceWrite::Memcpy(&data));
        prop_assert!(chunks.iter().all(|c| c.len() <= 8 && !c.invented));
        // Chunks must be in ascending address order (libc copies forward).
        for w in chunks.windows(2) {
            prop_assert!(w[0].addr < w[1].addr);
        }
        let mem = replay(&chunks, Addr(addr), data.len());
        for (i, &b) in data.iter().enumerate() {
            prop_assert_eq!(mem[i], Some(b));
        }
    }

    #[test]
    fn no_chunk_exceeds_word_size_for_multiword_stores(
        cfg in arb_config(),
        bytes in proptest::collection::vec(any::<u8>(), 9..64),
        addr in 0x1000u64..0x2000,
    ) {
        let chunks = lower(&cfg, addr, SourceWrite::Store(&bytes, Atomicity::Plain));
        for c in chunks.iter().filter(|c| !c.invented) {
            prop_assert!(c.bytes.len() <= 8, "chunk wider than a word");
        }
    }
}
