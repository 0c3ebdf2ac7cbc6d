//! Property-based tests for store-buffer legality and bypassing.

use pmem::Addr;
use proptest::prelude::*;
use px86::{ordering_constraint, InsnKind, OrderConstraint, SbEntry, SbStore, StoreBuffer};

#[derive(Debug, Clone, Copy)]
enum GenEntry {
    Store { addr: u64, len: u64 },
    Clflush { addr: u64 },
    Clwb { addr: u64 },
    Sfence,
}

fn arb_entry() -> impl Strategy<Value = GenEntry> {
    prop_oneof![
        (0u64..256, 1u64..9).prop_map(|(addr, len)| GenEntry::Store { addr, len }),
        (0u64..256).prop_map(|addr| GenEntry::Clflush { addr }),
        (0u64..256).prop_map(|addr| GenEntry::Clwb { addr }),
        Just(GenEntry::Sfence),
    ]
}

fn build(entries: &[GenEntry]) -> StoreBuffer {
    let mut sb = StoreBuffer::new();
    for (i, e) in entries.iter().enumerate() {
        let id = i as u64 + 1;
        sb.push(match *e {
            GenEntry::Store { addr, len } => SbEntry::Store(SbStore {
                addr: Addr(addr),
                len,
                id,
            }),
            GenEntry::Clflush { addr } => SbEntry::Clflush {
                addr: Addr(addr),
                id,
            },
            GenEntry::Clwb { addr } => SbEntry::Clwb {
                addr: Addr(addr),
                id,
            },
            GenEntry::Sfence => SbEntry::Sfence { id },
        });
    }
    sb
}

proptest! {
    #[test]
    fn head_is_always_evictable(entries in proptest::collection::vec(arb_entry(), 1..12)) {
        let sb = build(&entries);
        let positions = sb.evictable_positions();
        prop_assert!(positions.contains(&0));
    }

    #[test]
    fn evictable_positions_are_sorted_and_unique(entries in proptest::collection::vec(arb_entry(), 0..12)) {
        let sb = build(&entries);
        let positions = sb.evictable_positions();
        for w in positions.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &p in &positions {
            prop_assert!(p < sb.len());
        }
    }

    #[test]
    fn stores_never_evict_out_of_order_with_each_other(
        entries in proptest::collection::vec(arb_entry(), 1..12)
    ) {
        // TSO: Write → Write is preserved, so a store may only be evictable
        // if no store precedes it.
        let sb = build(&entries);
        let first_store = sb.iter().position(|e| matches!(e, SbEntry::Store(_)));
        for &p in &sb.evictable_positions() {
            let entry: Vec<_> = sb.iter().collect();
            if matches!(entry[p], SbEntry::Store(_)) {
                prop_assert_eq!(Some(p), first_store, "store {} overtook an earlier store", p);
            }
        }
    }

    #[test]
    fn draining_head_first_empties_buffer(entries in proptest::collection::vec(arb_entry(), 0..12)) {
        let mut sb = build(&entries);
        let mut drained = 0;
        while sb.evict_head().is_some() {
            drained += 1;
        }
        prop_assert_eq!(drained, entries.len());
        prop_assert!(sb.is_empty());
    }

    #[test]
    fn bypass_matches_naive_model(
        entries in proptest::collection::vec(arb_entry(), 0..12),
        query_addr in 0u64..256,
        query_len in 1u64..9,
    ) {
        let sb = build(&entries);
        let got = sb.bypass_bytes(Addr(query_addr), query_len);
        // Naive per-byte model: last store covering each byte wins.
        for i in 0..query_len {
            let byte = query_addr + i;
            let mut expect = None;
            for (j, e) in entries.iter().enumerate() {
                if let GenEntry::Store { addr, len } = *e {
                    if byte >= addr && byte < addr + len {
                        expect = Some(j as u64 + 1);
                    }
                }
            }
            prop_assert_eq!(got[i as usize], expect);
        }
    }

    #[test]
    fn ordering_constraint_is_total(earlier in 0usize..7, later in 0usize..7) {
        // Every pair has exactly one classification and the function is
        // deterministic.
        let a = InsnKind::ALL[earlier];
        let b = InsnKind::ALL[later];
        let c1 = ordering_constraint(a, b);
        let c2 = ordering_constraint(a, b);
        prop_assert_eq!(c1, c2);
        prop_assert!(matches!(
            c1,
            OrderConstraint::Preserved | OrderConstraint::Reorderable | OrderConstraint::SameLine
        ));
    }

    #[test]
    fn evicting_legal_position_keeps_remaining_entries(
        entries in proptest::collection::vec(arb_entry(), 1..12),
        pick in 0usize..12,
    ) {
        let mut sb = build(&entries);
        let positions = sb.evictable_positions();
        let p = positions[pick % positions.len()];
        let before: Vec<u64> = sb.iter().map(SbEntry::id).collect();
        let evicted = sb.evict(p);
        let after: Vec<u64> = sb.iter().map(SbEntry::id).collect();
        let mut expect = before.clone();
        expect.remove(p);
        prop_assert_eq!(after, expect);
        prop_assert_eq!(evicted.id(), before[p]);
    }

    #[test]
    fn count_and_nth_helpers_agree_with_evictable_positions(
        entries in proptest::collection::vec(arb_entry(), 0..12),
    ) {
        let sb = build(&entries);
        let positions = sb.evictable_positions();
        prop_assert_eq!(sb.evictable_count(), positions.len());
        for (n, &p) in positions.iter().enumerate() {
            prop_assert_eq!(sb.nth_evictable(n), Some(p));
        }
        prop_assert_eq!(sb.nth_evictable(positions.len()), None);
    }
}
