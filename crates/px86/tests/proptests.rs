//! Property-based tests for store-buffer legality and bypassing.
//!
//! `evictable_positions` below is the definitional eviction oracle, written
//! straight from Table 1: an entry may exit iff it may overtake every entry
//! ahead of it. It is quadratic on purpose; `StoreBuffer::evictable_into`
//! is the one-pass version the engine uses, and must agree with it.

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

fn evictable_positions(sb: &StoreBuffer) -> Vec<usize> {
    let entries: Vec<&SbEntry> = sb.iter().collect();
    (0..entries.len())
        .filter(|&i| {
            entries[..i].iter().all(|earlier| {
                // Table 1 has no CL cell involving sfence, the one entry
                // without a line, so its `same_line` value is irrelevant.
                let same_line = earlier.line() == entries[i].line();
                ordering_constraint(earlier.kind(), entries[i].kind()).allows_reorder(same_line)
            })
        })
        .collect()
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
        let positions = evictable_positions(&sb);
        prop_assert!(positions.contains(&0));
    }

    #[test]
    fn evictable_positions_are_sorted_and_unique(entries in proptest::collection::vec(arb_entry(), 0..12)) {
        let sb = build(&entries);
        let positions = evictable_positions(&sb);
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
        for &p in &evictable_positions(&sb) {
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
        // A reused buffer holding stale ids: the call must replace them.
        let mut got = vec![Some(u64::MAX); 16];
        sb.bypass_bytes_into(Addr(query_addr), query_len, &mut got);
        prop_assert_eq!(got.len(), query_len as usize);
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
        let positions = evictable_positions(&sb);
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
    fn one_pass_pick_agrees_with_evictable_positions(
        entries in proptest::collection::vec(arb_entry(), 0..64),
        picks in proptest::collection::vec(0usize..64, 0..64),
    ) {
        // Compare after each eviction too, so the clwb count the pass
        // stops on is checked as the buffer changes, and reuse the scratch
        // across calls the way the engine does.
        let mut sb = build(&entries);
        let (mut out, mut blocked) = (Vec::new(), Vec::new());
        let mut picks = picks.into_iter();
        loop {
            sb.evictable_into(&mut out, &mut blocked);
            let oracle = evictable_positions(&sb);
            prop_assert_eq!(&out, &oracle);
            match picks.next() {
                Some(pick) if !oracle.is_empty() => sb.evict(oracle[pick % oracle.len()]),
                _ => break,
            };
        }
    }
}

/// Pool formatting in miniature: a `memset` of 256 eight-byte stores over
/// 32 lines, one `clwb` per line, then an `sfence`. Evicting it to empty
/// with seeded picks must choose the same position the oracle's list
/// gives at every step.
#[test]
fn pool_format_buffer_drains_like_the_oracle() {
    for seed in 0..8u64 {
        let mut sb = StoreBuffer::new();
        let mut id = 0;
        let mut next_id = || {
            id += 1;
            id
        };
        for i in 0..256u64 {
            sb.push(SbEntry::Store(SbStore {
                addr: Addr(i * 8),
                len: 8,
                id: next_id(),
            }));
        }
        for line in 0..32u64 {
            sb.push(SbEntry::Clwb {
                addr: Addr(line * 64),
                id: next_id(),
            });
        }
        sb.push(SbEntry::Sfence { id: next_id() });
        let (mut out, mut blocked) = (Vec::new(), Vec::new());
        let mut step = 0u64;
        while !sb.is_empty() {
            sb.evictable_into(&mut out, &mut blocked);
            let oracle = evictable_positions(&sb);
            assert_eq!(out, oracle, "seed {seed}, step {step}");
            let draw = pmem::mix64(seed << 32 | step) as usize;
            sb.evict(out[draw % out.len()]);
            step += 1;
        }
        assert_eq!(step, 256 + 32 + 1);
    }
}
