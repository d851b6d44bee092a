//! The p2m map is stored as a shared base plus a sparse delta plus a dense
//! tail, but must behave as the one dense table it replaced. Here a plain
//! `Vec<Pte>` is that table: under arbitrary `remap`/`lookup`/`iter`
//! sequences the two agree on every result and every counter, and
//! `release_all` hands the frames back in the same order — the frame table's
//! free list is LIFO, so that order decides every `FrameId` allocated
//! afterwards, and with it every digest downstream.
//!
//! The oracle also keeps the reference rule by hand, in a frame table of its
//! own where every one of its entries is stored and so owns a reference; the
//! space under test keeps it itself, and where it sits over the image's list
//! its pristine pages own none. The two tables must agree on which frames
//! are free, in which order, and on the count of every frame no pristine
//! page maps.

use std::sync::Arc;

use proptest::prelude::*;

use potemkin::snapshot::Snap;
use potemkin::vmm::addrspace::{AddressSpace, Pte};
use potemkin::vmm::{FrameId, FrameTable};

// Ten words of the delta's bitmap (the last one partial) in two rank blocks.
const BASE_PAGES: u64 = 600;
const TAIL_PAGES: u64 = 6;

#[derive(Clone, Debug)]
enum Op {
    /// CoW-style: a fresh private frame, writable.
    Diverge {
        pfn: u64,
    },
    /// Merge/snapshot-style: keep the frame, flip the writable bit.
    SetWritable {
        pfn: u64,
        writable: bool,
    },
    /// Rollback/reshare-style: back to the image frame, read-only.
    Revert {
        pfn: u64,
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
        2 => (pfn.clone(), any::<bool>())
            .prop_map(|(pfn, writable)| Op::SetWritable { pfn, writable }),
        3 => pfn.clone().prop_map(|pfn| Op::Revert { pfn }),
        3 => pfn.prop_map(|pfn| Op::Lookup { pfn }),
        1 => Just(Op::Audit),
    ]
}

/// One frame table holding an image and a clone of it: the image's frame
/// list, the clone's space (over that list when `shared`, else flattened
/// into explicit entries, each owning a reference), and the dense oracle of
/// the same mapping.
fn build(shared: bool) -> (FrameTable, Arc<[FrameId]>, AddressSpace, Vec<Pte>) {
    let mut frames = FrameTable::new(4_096);
    let image: Arc<[FrameId]> = (0..BASE_PAGES).map(|i| frames.alloc(i).unwrap()).collect();
    if !shared {
        image.iter().for_each(|&f| frames.share(f));
    }
    let tail: Vec<Pte> =
        (0..TAIL_PAGES).map(|_| Pte { frame: frames.alloc(0).unwrap(), writable: true }).collect();
    let oracle: Vec<Pte> =
        image.iter().map(|&frame| Pte { frame, writable: false }).chain(tail.clone()).collect();
    let space = if shared {
        AddressSpace::over_base(Arc::clone(&image), tail)
    } else {
        AddressSpace::from_entries(oracle.clone())
    };
    (frames, image, space, oracle)
}

fn audit(space: &AddressSpace, oracle: &[Pte]) -> Result<(), TestCaseError> {
    prop_assert_eq!(space.size(), oracle.len() as u64);
    let dense: Vec<(u64, Pte)> = space.iter().collect();
    let expect: Vec<(u64, Pte)> = (0u64..).zip(oracle.iter().copied()).collect();
    prop_assert_eq!(&dense, &expect);
    let private = oracle.iter().filter(|pte| pte.writable).count() as u64;
    prop_assert_eq!(space.private_pages(), private);
    prop_assert_eq!(space.shared_pages(), oracle.len() as u64 - private);
    // The stored entries come in pfn order, tell the truth about what they
    // hold, and leave out nothing that is not a read-only page.
    let stored: Vec<(u64, Pte)> = space.stored().collect();
    prop_assert!(stored.windows(2).all(|w| w[0].0 < w[1].0));
    for &(pfn, pte) in &stored {
        prop_assert_eq!(pte, oracle[pfn as usize]);
    }
    for (pfn, pte) in expect {
        let listed = stored.binary_search_by_key(&pfn, |s| s.0).is_ok();
        prop_assert!(!pte.writable || listed, "writable pfn {} not stored", pfn);
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
        let (mut frames, image, mut space, mut oracle) = build(shared);
        // A second, untouched dense copy of the same clone in its own frame
        // table tells what the free list must look like at the end.
        let (mut dense_frames, _, _, _) = build(false);

        for op in ops {
            let (pfn, new) = match op {
                Op::Diverge { pfn } => {
                    // Same allocation on both tables keeps their ids aligned.
                    let frame = frames.alloc(pfn).unwrap();
                    prop_assert_eq!(dense_frames.alloc(pfn).unwrap(), frame);
                    (pfn, Pte { frame, writable: true })
                }
                Op::SetWritable { pfn, writable } => match oracle.get(pfn as usize) {
                    Some(old) => (pfn, Pte { frame: old.frame, writable }),
                    None => continue,
                },
                Op::Revert { pfn } => match image.get(pfn as usize) {
                    Some(&frame) => (pfn, Pte { frame, writable: false }),
                    None => continue,
                },
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
                    space.remap(pfn, new, &mut frames).unwrap();
                    // The oracle's entry is stored whatever it holds: its
                    // reference moves from the old frame to the new one.
                    dense_frames.share(new.frame);
                    dense_frames.release(std::mem::replace(slot, new).frame);
                }
                None => prop_assert!(space.remap(pfn, new, &mut frames).is_err()),
            }
            // A fresh frame came with the allocation's own reference; the
            // entry, if there is one now, holds another.
            if let Op::Diverge { .. } = op {
                frames.release(new.frame);
                dense_frames.release(new.frame);
            }
        }
        audit(&space, &oracle)?;
        // What each frame is owed: one reference for the image's list, one
        // for each stored entry naming it.
        for (pfn, &frame) in (0u64..).zip(image.iter()) {
            let stored = space.stored().filter(|s| s.1.frame == frame).count() as u32;
            prop_assert_eq!(frames.refcount(frame), 1 + stored, "image frame of pfn {}", pfn);
        }
        for (_, pte) in space.stored().filter(|s| !image.contains(&s.1.frame)) {
            prop_assert_eq!(frames.refcount(pte.frame), dense_frames.refcount(pte.frame));
        }

        // Release the space one way and the oracle the plain way: pfn order.
        space.release_all(&mut frames);
        for pte in &oracle {
            dense_frames.release(pte.frame);
        }
        prop_assert_eq!(space.size(), 0);
        prop_assert_eq!(space.private_pages(), 0);
        prop_assert_eq!(frames.to_bytes(), dense_frames.to_bytes());
    }
}
