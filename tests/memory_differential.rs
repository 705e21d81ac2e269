//! Differential test of the paged [`Memory`] against [`ReferenceMemory`]
//! (the seed's word-granular `HashMap` store, retained as the executable
//! specification).
//!
//! Proptest drives both implementations with the same random operation
//! sequence — region maps, reads, writes, bulk loads, mapped-ness
//! queries, and full resets — and asserts observational equivalence
//! after every step. Addresses are biased toward a few pages so page
//! boundary straddles and implicit word-mapping get exercised, with
//! sparse far pages — a region 1 TiB up, whose page numbers match the
//! near pages' in their low bits, and the top of the address space — so
//! page translation sees distant and colliding page numbers too.

use proptest::prelude::*;
use vanguard_isa::{Memory, ReferenceMemory};

/// One memory operation. Most addresses stay below `ADDR_SPAN` so
/// sequences collide across pages often enough to hit every interaction.
#[derive(Clone, Debug)]
enum Op {
    MapRegion { start: u64, len: u64 },
    Read { addr: u64 },
    Write { addr: u64, value: u64 },
    LoadWords { start: u64, count: usize },
    IsMapped { addr: u64 },
    Reset,
}

const ADDR_SPAN: u64 = 0x2_0000; // 32 pages

/// A far region, at least 1 GiB above the span: page numbers a multiple
/// of 2^28 apart from the near pages'.
const FAR_BASE: u64 = 1 << 40;

/// Start of the last two pages of the address space. Generated addresses
/// stop short of the last word: [`ReferenceMemory`] maps a written word as
/// the range `[w, w + 8)`, which cannot end past `u64::MAX`.
const TOP_BASE: u64 = u64::MAX - 0x1fff;

fn arb_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Page-local spread (the common case).
        4 => 0u64..0x4000,
        // Anywhere in the span, unaligned bytes included.
        2 => 0u64..ADDR_SPAN,
        // Page-boundary straddles.
        1 => (0u64..32).prop_map(|p| (p << 12).wrapping_sub(4) & (ADDR_SPAN - 1)),
        // The far region's two pages.
        1 => FAR_BASE..FAR_BASE + 0x2000,
        // The last two pages, the top one ending at `u64::MAX`.
        1 => TOP_BASE..u64::MAX - 7,
    ]
}

/// The windows the final sweep compares byte-for-byte: the whole near
/// span and the far pages with a page of margin on each side.
fn sweep_addrs() -> impl Iterator<Item = u64> {
    (0..ADDR_SPAN)
        .step_by(8)
        .chain((FAR_BASE - 0x1000..FAR_BASE + 0x3000).step_by(8))
        .chain((TOP_BASE - 0x1000..=u64::MAX).step_by(8))
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Lengths are clamped so no range runs past `u64::MAX`.
    prop_oneof![
        2 => (arb_addr(), 0u64..0x3000).prop_map(|(start, len)| Op::MapRegion {
            start,
            len: len.min(u64::MAX - start),
        }),
        4 => arb_addr().prop_map(|addr| Op::Read { addr }),
        3 => (arb_addr(), any::<u64>()).prop_map(|(addr, value)| Op::Write { addr, value }),
        1 => (arb_addr(), 0usize..600).prop_map(|(start, count)| Op::LoadWords {
            start,
            count: count.min(((u64::MAX - start) / 8) as usize),
        }),
        2 => arb_addr().prop_map(|addr| Op::IsMapped { addr }),
        1 => Just(Op::Reset),
    ]
}

/// Applies one op to both stores, asserting any observable output agrees.
fn apply(paged: &mut Memory, reference: &mut ReferenceMemory, op: &Op) {
    match *op {
        Op::MapRegion { start, len } => {
            paged.map_region(start, len);
            reference.map_region(start, len);
        }
        Op::Read { addr } => {
            assert_eq!(paged.read(addr), reference.read(addr), "read {addr:#x}");
        }
        Op::Write { addr, value } => {
            paged.write(addr, value);
            reference.write(addr, value);
        }
        Op::LoadWords { start, count } => {
            let words: Vec<u64> = (0..count as u64)
                .map(|i| i.wrapping_mul(0x9e37) ^ start)
                .collect();
            paged.load_words(start, &words);
            reference.load_words(start, &words);
        }
        Op::IsMapped { addr } => {
            assert_eq!(
                paged.is_mapped(addr),
                reference.is_mapped(addr),
                "is_mapped {addr:#x}"
            );
        }
        Op::Reset => {
            *paged = Memory::new();
            *reference = ReferenceMemory::new();
        }
    }
}

/// Full-state comparison: residency count and the exact written set.
fn assert_equivalent(paged: &Memory, reference: &ReferenceMemory) {
    assert_eq!(paged.resident_words(), reference.resident_words());
    assert_eq!(paged.written_words(), reference.written_words());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn paged_memory_matches_reference(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut paged = Memory::new();
        let mut reference = ReferenceMemory::new();
        for op in &ops {
            apply(&mut paged, &mut reference, op);
        }
        assert_equivalent(&paged, &reference);
        // Sweep the whole span once more: every address agrees on
        // mapped-ness and value, not just the addresses the ops touched.
        for addr in sweep_addrs() {
            prop_assert_eq!(paged.read(addr), reference.read(addr));
            prop_assert_eq!(paged.is_mapped(addr), reference.is_mapped(addr));
        }
    }

    #[test]
    fn pages_inserted_in_descending_order_match_reference(
        addrs in proptest::collection::vec(arb_addr(), 1..40),
        value in any::<u64>(),
    ) {
        // Touch each page once, highest page first, so insertion order
        // is the reverse of address order; every other page is mapped
        // rather than written.
        let mut pages: Vec<u64> = addrs.iter().map(|a| a >> 12).collect();
        pages.sort_unstable_by(|a, b| b.cmp(a));
        pages.dedup();
        let mut paged = Memory::new();
        let mut reference = ReferenceMemory::new();
        for (i, (&pn, addr)) in pages.iter().zip(&addrs).enumerate() {
            // Below the page's last word (see `TOP_BASE`).
            let addr = (pn << 12) | (addr & 0xff0);
            let op = if i % 2 == 0 {
                Op::Write { addr, value: value ^ addr }
            } else {
                Op::MapRegion { start: addr, len: 0x40.min(u64::MAX - addr) }
            };
            apply(&mut paged, &mut reference, &op);
        }
        assert_equivalent(&paged, &reference);
        for addr in sweep_addrs() {
            prop_assert_eq!(paged.read(addr), reference.read(addr));
            prop_assert_eq!(paged.is_mapped(addr), reference.is_mapped(addr));
        }
    }

    #[test]
    fn clones_are_independent(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let mut paged = Memory::new();
        let mut reference = ReferenceMemory::new();
        for op in &ops {
            apply(&mut paged, &mut reference, op);
        }
        // A clone sees the same state; mutating it leaves the original
        // untouched (the engine clones one REF image per job).
        let mut cloned = paged.clone();
        assert_equivalent(&cloned, &reference);
        cloned.write(0x123458, 99);
        prop_assert_eq!(paged.read(0x123458), None);
        assert_equivalent(&paged, &reference);
    }
}
