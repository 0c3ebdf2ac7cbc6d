//! Property-based tests for the allocator and the persistent image.

#![allow(
    clippy::disallowed_types,
    reason = "the reference model keeps a std map, independent of the fast hasher"
)]

use pmem::{Addr, PmAllocator};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum AllocOp {
    Alloc { size: u64, align_pow: u32 },
    FreeNth(usize),
}

fn arb_alloc_op() -> impl Strategy<Value = AllocOp> {
    prop_oneof![
        3 => (1u64..200, 0u32..7).prop_map(|(size, align_pow)| AllocOp::Alloc { size, align_pow }),
        1 => (0usize..32).prop_map(AllocOp::FreeNth),
    ]
}

proptest! {
    #[test]
    fn live_allocations_never_overlap(ops in proptest::collection::vec(arb_alloc_op(), 1..40)) {
        let mut alloc = PmAllocator::new(Addr::BASE, 1 << 20);
        let mut live: Vec<(Addr, u64)> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc { size, align_pow } => {
                    let align = 1u64 << align_pow;
                    if let Ok(addr) = alloc.alloc(size, align) {
                        prop_assert!(addr.is_aligned(align));
                        for &(other, olen) in &live {
                            let disjoint =
                                addr + size <= other || other + olen <= addr;
                            prop_assert!(
                                disjoint,
                                "{addr}+{size} overlaps {other}+{olen}"
                            );
                        }
                        live.push((addr, size));
                    }
                }
                AllocOp::FreeNth(n) => {
                    if !live.is_empty() {
                        let (addr, size) = live.remove(n % live.len());
                        alloc.free(addr, size);
                    }
                }
            }
        }
    }

    #[test]
    fn allocator_accounting_is_exact(sizes in proptest::collection::vec(1u64..100, 1..20)) {
        let mut alloc = PmAllocator::new(Addr::BASE, 1 << 20);
        let mut blocks = Vec::new();
        let mut total = 0;
        for &s in &sizes {
            blocks.push((alloc.alloc(s, 8).unwrap(), s));
            total += s;
            prop_assert_eq!(alloc.allocated_bytes(), total);
        }
        for (a, s) in blocks {
            alloc.free(a, s);
            total -= s;
            prop_assert_eq!(alloc.allocated_bytes(), total);
        }
    }
}
