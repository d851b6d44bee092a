//! Property-based tests on the VMM's core invariants: under arbitrary
//! interleavings of clone / write / destroy operations,
//!
//! 1. frames are conserved exactly (no leak, no double-free),
//! 2. copy-on-write isolation holds (a domain's reads see exactly its own
//!    writes overlaid on the immutable image),
//! 3. the memory report stays internally consistent.

use proptest::prelude::*;
use std::collections::HashMap;

use potemkin::vmm::guest::GuestProfile;
use potemkin::vmm::{DomainId, Host};

#[derive(Clone, Debug)]
enum Op {
    Clone,
    Write { vm_pick: usize, pfn: u64, value: u64 },
    Read { vm_pick: usize, pfn: u64 },
    Destroy { vm_pick: usize },
    Rollback { vm_pick: usize },
    Merge,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Clone),
        6 => (any::<usize>(), 0u64..2048, any::<u64>())
            .prop_map(|(vm_pick, pfn, value)| Op::Write { vm_pick, pfn, value }),
        4 => (any::<usize>(), 0u64..2048).prop_map(|(vm_pick, pfn)| Op::Read { vm_pick, pfn }),
        1 => any::<usize>().prop_map(|vm_pick| Op::Destroy { vm_pick }),
        1 => any::<usize>().prop_map(|vm_pick| Op::Rollback { vm_pick }),
        1 => Just(Op::Merge),
    ]
}

fn tiny_profile() -> GuestProfile {
    let mut p = GuestProfile::small();
    p.memory_pages = 2_048;
    p.disk_blocks = 64;
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vmm_invariants_under_random_ops(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut host = Host::new(200_000).with_overhead_pages(8);
        let image = host.create_reference_image("prop", tiny_profile()).unwrap();
        let baseline = host.memory_report().used_frames;

        // The model: per live domain, the set of (pfn -> value) writes.
        let mut live: Vec<DomainId> = Vec::new();
        let mut model: HashMap<DomainId, HashMap<u64, u64>> = HashMap::new();

        for op in ops {
            match op {
                Op::Clone => {
                    let (dom, _) = host.flash_clone(image).unwrap();
                    live.push(dom);
                    model.insert(dom, HashMap::new());
                }
                Op::Write { vm_pick, pfn, value } => {
                    if live.is_empty() { continue; }
                    let dom = live[vm_pick % live.len()];
                    host.write_page(dom, pfn, value).unwrap();
                    model.get_mut(&dom).unwrap().insert(pfn, value);
                }
                Op::Read { vm_pick, pfn } => {
                    if live.is_empty() { continue; }
                    let dom = live[vm_pick % live.len()];
                    let got = host.read_page(dom, pfn).unwrap();
                    let expect = model[&dom]
                        .get(&pfn)
                        .copied()
                        .unwrap_or_else(|| GuestProfile::boot_content(image.0, pfn));
                    prop_assert_eq!(got, expect, "CoW isolation violated for {} pfn {}", dom, pfn);
                }
                Op::Destroy { vm_pick } => {
                    if live.is_empty() { continue; }
                    let dom = live.remove(vm_pick % live.len());
                    host.destroy(dom).unwrap();
                    model.remove(&dom);
                }
                Op::Rollback { vm_pick } => {
                    if live.is_empty() { continue; }
                    let dom = live[vm_pick % live.len()];
                    host.rollback(dom).unwrap();
                    // Rollback discards the delta: the model resets too.
                    model.get_mut(&dom).unwrap().clear();
                }
                Op::Merge => {
                    // Merging never changes guest-visible contents, so the
                    // model is untouched.
                    host.scan_and_merge().unwrap();
                }
            }

            // Report consistency after every step: a frame in use is an
            // image page, a private page or a row a merge shares.
            let r = host.memory_report();
            prop_assert_eq!(r.used_frames + r.free_frames, r.total_frames);
            let rows = host.frames().live_rows();
            prop_assert_eq!(r.used_frames, r.image_frames + r.private_frames + rows);
            prop_assert_eq!(r.live_domains as usize, live.len());
        }

        // Full verification of every surviving domain against the model.
        for dom in &live {
            for (&pfn, &value) in &model[dom] {
                prop_assert_eq!(host.read_page(*dom, pfn).unwrap(), value);
            }
            // Spot-check untouched pages still read image content.
            for pfn in [0u64, 1_000, 2_047] {
                if !model[dom].contains_key(&pfn) {
                    prop_assert_eq!(
                        host.read_page(*dom, pfn).unwrap(),
                        GuestProfile::boot_content(image.0, pfn)
                    );
                }
            }
        }

        // Exact frame conservation after tearing everything down.
        for dom in live {
            host.destroy(dom).unwrap();
        }
        prop_assert_eq!(host.memory_report().used_frames, baseline);
    }

    #[test]
    fn private_pages_equal_distinct_written_pfns(
        writes in proptest::collection::vec((0u64..2048, any::<u64>()), 1..300),
    ) {
        let mut host = Host::new(100_000).with_overhead_pages(0);
        let image = host.create_reference_image("prop", tiny_profile()).unwrap();
        let (dom, _) = host.flash_clone(image).unwrap();
        let mut distinct = std::collections::HashSet::new();
        for (pfn, value) in writes {
            host.write_page(dom, pfn, value).unwrap();
            distinct.insert(pfn);
        }
        let d = host.domain(dom).unwrap();
        prop_assert_eq!(d.private_pages(), distinct.len() as u64);
        prop_assert_eq!(d.cow_faults(), distinct.len() as u64);
        prop_assert_eq!(d.shared_pages(), 2_048 - distinct.len() as u64);
    }

    #[test]
    fn sibling_clones_never_observe_each_other(
        writes_a in proptest::collection::vec((0u64..256, any::<u64>()), 1..50),
        writes_b in proptest::collection::vec((0u64..256, any::<u64>()), 1..50),
    ) {
        let mut host = Host::new(100_000).with_overhead_pages(0);
        let image = host.create_reference_image("prop", tiny_profile()).unwrap();
        let (a, _) = host.flash_clone(image).unwrap();
        let (b, _) = host.flash_clone(image).unwrap();
        let mut model_a = HashMap::new();
        let mut model_b = HashMap::new();
        // Interleave the two domains' writes.
        let max = writes_a.len().max(writes_b.len());
        for i in 0..max {
            if let Some(&(pfn, v)) = writes_a.get(i) {
                host.write_page(a, pfn, v).unwrap();
                model_a.insert(pfn, v);
            }
            if let Some(&(pfn, v)) = writes_b.get(i) {
                host.write_page(b, pfn, v).unwrap();
                model_b.insert(pfn, v);
            }
        }
        for pfn in 0..256u64 {
            let expect_a =
                model_a.get(&pfn).copied().unwrap_or_else(|| GuestProfile::boot_content(image.0, pfn));
            let expect_b =
                model_b.get(&pfn).copied().unwrap_or_else(|| GuestProfile::boot_content(image.0, pfn));
            prop_assert_eq!(host.read_page(a, pfn).unwrap(), expect_a);
            prop_assert_eq!(host.read_page(b, pfn).unwrap(), expect_b);
        }
    }
}
