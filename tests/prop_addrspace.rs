//! The p2m map is stored as a shared base plus a sparse delta plus a dense
//! tail, but must behave as the one dense table it replaced. Here a plain
//! `Vec<Pte>` is that table: under arbitrary `write`/`remap`/`lookup`/`iter`
//! sequences the two agree on every result and every counter, and
//! `release_all` hands the rows back in the same order — the frame table's
//! free list is LIFO, so that order decides every `FrameId` allocated
//! afterwards, and with it every digest downstream.
//!
//! The oracle also keeps the reference rule by hand, in a frame table of its
//! own where every one of its entries is stored and so owns what it holds —
//! a count on the row it shares, one private page, or nothing for a page of
//! the image, which has no row; the space under test keeps it itself, and
//! where it sits over the image its pristine pages own nothing. The two
//! tables must agree on which rows are free, in which order, on the count
//! of every row, and on the pages without one.

use proptest::prelude::*;

use potemkin::snapshot::Snap;
use potemkin::vmm::addrspace::{AddressSpace, Pte};
use potemkin::vmm::guest::GuestProfile;
use potemkin::vmm::{FrameTable, Host, VmmError};

// Ten words of the delta's bitmap (the last one partial) in two rank blocks.
const BASE_PAGES: u64 = 600;
const TAIL_PAGES: u64 = 6;

#[derive(Clone, Debug)]
enum Op {
    /// CoW-style: a private page.
    Diverge {
        pfn: u64,
    },
    /// Merge/snapshot-style: a private page moves into a fresh row.
    Freeze {
        pfn: u64,
    },
    /// Rollback/merge-style: back to the image page, read-only.
    Revert {
        pfn: u64,
    },
    /// Merge-style: another page of the image, read-only.
    MapImage {
        pfn: u64,
        page: u64,
    },
    Lookup {
        pfn: u64,
    },
    /// Compare the whole table, the counters and the stored entries.
    Audit,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Past-the-end pfns are in range on purpose: both sides must refuse them.
    let pfn = 0..BASE_PAGES + TAIL_PAGES + 3;
    prop_oneof![
        5 => pfn.clone().prop_map(|pfn| Op::Diverge { pfn }),
        2 => pfn.clone().prop_map(|pfn| Op::Freeze { pfn }),
        3 => pfn.clone().prop_map(|pfn| Op::Revert { pfn }),
        2 => (pfn.clone(), 0..BASE_PAGES).prop_map(|(pfn, page)| Op::MapImage { pfn, page }),
        3 => pfn.prop_map(|pfn| Op::Lookup { pfn }),
        1 => Just(Op::Audit),
    ]
}

/// A host's frame table holding an image and a flash clone of it, the
/// clone's space (over the image when `shared`, else flattened into
/// explicit entries, each owning what it holds), and the dense oracle of
/// the same mapping.
fn build(shared: bool) -> (FrameTable, AddressSpace, Vec<Pte>) {
    let mut host = Host::new(4_096).with_overhead_pages(TAIL_PAGES);
    let profile = GuestProfile { memory_pages: BASE_PAGES, ..GuestProfile::small() };
    let image = host.create_reference_image("base", profile).unwrap();
    let (vm, _) = host.flash_clone(image).unwrap();
    let tail = vec![Pte::Private(0); TAIL_PAGES as usize];
    let oracle: Vec<Pte> = (0..BASE_PAGES).map(Pte::Image).chain(tail).collect();
    let space = if shared {
        host.domain(vm).unwrap().space().clone()
    } else {
        AddressSpace::from_entries(oracle.clone())
    };
    (host.frames().clone(), space, oracle)
}

/// What the space under test does to make `pfn` read as `new`: a guest
/// write for a private page, a read-only remap for a shared one.
fn apply(
    space: &mut AddressSpace,
    pfn: u64,
    new: Pte,
    frames: &mut FrameTable,
) -> Result<(), VmmError> {
    match new {
        Pte::Private(value) => space.write(pfn, value, frames).map(drop),
        read_only => space.remap(pfn, read_only, frames),
    }
}

/// Takes the reference a stored entry owns.
fn hold(frames: &mut FrameTable, pte: Pte) {
    match pte {
        Pte::Private(_) => frames.alloc_private(1).unwrap(),
        Pte::Shared(frame) => frames.share(frame),
        Pte::Image(_) => {}
    }
}

/// Gives it back.
fn let_go(frames: &mut FrameTable, pte: Pte) {
    match pte {
        Pte::Private(_) => frames.release_private(1),
        Pte::Shared(frame) => frames.release(frame),
        Pte::Image(_) => {}
    }
}

fn audit(space: &AddressSpace, oracle: &[Pte]) -> Result<(), TestCaseError> {
    prop_assert_eq!(space.size(), oracle.len() as u64);
    let dense: Vec<(u64, Pte)> = space.iter().collect();
    let expect: Vec<(u64, Pte)> = (0u64..).zip(oracle.iter().copied()).collect();
    prop_assert_eq!(&dense, &expect);
    let private = oracle.iter().filter(|pte| matches!(pte, Pte::Private(_))).count() as u64;
    prop_assert_eq!(space.private_pages(), private);
    prop_assert_eq!(space.shared_pages(), oracle.len() as u64 - private);
    // The stored entries come in pfn order, tell the truth about what they
    // hold, and leave out nothing that is a private page.
    let stored: Vec<(u64, Pte)> = space.stored().collect();
    prop_assert!(stored.windows(2).all(|w| w[0].0 < w[1].0));
    for &(pfn, pte) in &stored {
        prop_assert_eq!(pte, oracle[pfn as usize]);
    }
    for (pfn, pte) in expect {
        let listed = stored.binary_search_by_key(&pfn, |s| s.0).is_ok();
        prop_assert!(!matches!(pte, Pte::Private(_)) || listed, "private pfn {} not stored", pfn);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn address_space_matches_a_dense_table(
        shared in any::<bool>(),
        ops in proptest::collection::vec(arb_op(), 1..160),
    ) {
        let (mut frames, mut space, mut oracle) = build(shared);
        // A second, untouched dense copy of the same clone in its own frame
        // table tells what the free list must look like at the end.
        let (mut dense_frames, _, _) = build(false);

        for (step, op) in (0u64..).zip(ops) {
            // `fresh` is a row allocated for the op, with a reference of its own.
            let (pfn, new, fresh) = match op {
                Op::Diverge { pfn } => (pfn, Pte::Private(step), None),
                Op::Freeze { pfn } => match oracle.get(pfn as usize) {
                    Some(&Pte::Private(content)) => {
                        // Same allocation on both tables keeps their ids aligned.
                        let row = frames.alloc(content).unwrap();
                        prop_assert_eq!(dense_frames.alloc(content).unwrap(), row);
                        (pfn, Pte::Shared(row), Some(row))
                    }
                    Some(&shared) => (pfn, shared, None),
                    None => continue,
                },
                Op::Revert { pfn } if pfn < BASE_PAGES => (pfn, Pte::Image(pfn), None),
                Op::MapImage { pfn, page } => (pfn, Pte::Image(page), None),
                Op::Revert { .. } => continue,
                Op::Lookup { pfn } => {
                    prop_assert_eq!(space.lookup(pfn).ok(), oracle.get(pfn as usize).copied());
                    continue;
                }
                Op::Audit => {
                    audit(&space, &oracle)?;
                    continue;
                }
            };
            match oracle.get_mut(pfn as usize) {
                Some(slot) => {
                    apply(&mut space, pfn, new, &mut frames).unwrap();
                    // The oracle's entry is stored whatever it holds: its
                    // reference moves from the old entry to the new one.
                    hold(&mut dense_frames, new);
                    let_go(&mut dense_frames, std::mem::replace(slot, new));
                }
                None => prop_assert!(apply(&mut space, pfn, new, &mut frames).is_err()),
            }
            // The entry holds the fresh row now; the allocation lets go.
            if let Some(row) = fresh {
                frames.release(row);
                dense_frames.release(row);
            }
        }
        audit(&space, &oracle)?;
        prop_assert_eq!(frames.used_frames(), dense_frames.used_frames());
        // What each row is owed: one reference for each stored entry naming
        // it; the image's pages have no row.
        prop_assert_eq!(frames.live_rows(), dense_frames.live_rows());
        for (_, pte) in space.stored() {
            if let Pte::Shared(frame) = pte {
                prop_assert_eq!(frames.refcount(frame), dense_frames.refcount(frame));
            }
        }

        // Release the space one way and the oracle the plain way: pfn order.
        space.release_all(&mut frames);
        for &pte in &oracle {
            let_go(&mut dense_frames, pte);
        }
        prop_assert_eq!(space.size(), 0);
        prop_assert_eq!(space.private_pages(), 0);
        prop_assert_eq!(frames.to_bytes(), dense_frames.to_bytes());
    }
}
