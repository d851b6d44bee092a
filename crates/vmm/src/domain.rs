//! VM domains: identity, address space, devices.
//!
//! Memory operations that need the host's frame table (reads, CoW writes)
//! live on [`crate::host::Host`]; everything domain-local (disk, address
//! binding, infection flag, fault count) lives here. A domain in a host's map
//! is running: a host starts it as it provisions it and drops it as it
//! destroys it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use core::fmt;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::addrspace::AddressSpace;
use crate::block::CowDisk;
use crate::snapshot::{ImageId, ReferenceImage};

/// Identifier of a domain on a host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u64);

snap_struct!(DomainId { 0 });

impl fmt::Debug for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// A virtual machine domain.
#[derive(Clone, Debug)]
pub struct Domain {
    id: DomainId,
    image: ImageId,
    space: AddressSpace,
    disk: CowDisk,
    /// The telescope IP address the gateway late-bound to this VM.
    bound_addr: Option<Ipv4Addr>,
    /// CoW write faults taken so far.
    cow_faults: u64,
    /// Whether an exploit payload has executed in this guest.
    infected: bool,
}

impl Domain {
    /// Assembles a domain (called by [`crate::host::Host`]).
    #[must_use]
    pub(crate) fn new(id: DomainId, image: ImageId, space: AddressSpace, disk: CowDisk) -> Self {
        Domain { id, image, space, disk, bound_addr: None, cow_faults: 0, infected: false }
    }

    /// Checkpoint support: every field verbatim, the address space as what
    /// it stores (see [`AddressSpace::encode`]) and the disk as its overlay.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        self.id.snap(w);
        self.image.snap(w);
        self.bound_addr.snap(w);
        w.u64(self.cow_faults);
        w.bool(self.infected);
        self.space.encode(w);
        self.disk.encode_overlay(w);
    }

    /// Reads a domain written by [`Domain::encode`]. It needs the
    /// already-restored `images` — the one thing that keeps this from being
    /// a [`Snap`] impl: a domain's base disk always aliases its image's
    /// disk (every provisioning path clones it), and a flash clone's space
    /// sits over its image again.
    pub(crate) fn decode(
        r: &mut SnapReader<'_>,
        images: &BTreeMap<ImageId, Arc<ReferenceImage>>,
    ) -> Result<Self, SnapshotError> {
        let id = Snap::unsnap(r)?;
        let image = Snap::unsnap(r)?;
        let img = images.get(&image).ok_or_else(|| r.bad())?;
        let bound_addr = Snap::unsnap(r)?;
        let cow_faults = r.u64()?;
        let infected = r.bool()?;
        let space = AddressSpace::decode(r, img)?;
        let disk = CowDisk::decode_overlay(img.disk().clone(), r)?;
        Ok(Domain { id, image, space, disk, bound_addr, cow_faults, infected })
    }

    /// The domain identifier.
    #[must_use]
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The reference image this domain was provisioned from.
    #[must_use]
    pub fn image(&self) -> ImageId {
        self.image
    }

    /// Memory size in pages.
    #[must_use]
    pub(crate) fn memory_pages(&self) -> u64 {
        self.space.size()
    }

    /// Pages this domain owns exclusively.
    #[must_use]
    pub fn private_pages(&self) -> u64 {
        self.space.private_pages()
    }

    /// Pages shared read-only with the image or siblings.
    #[must_use]
    pub fn shared_pages(&self) -> u64 {
        self.space.shared_pages()
    }

    /// CoW write faults taken so far.
    #[must_use]
    pub fn cow_faults(&self) -> u64 {
        self.cow_faults
    }

    /// The late-bound external IP address, if the gateway bound one.
    #[must_use]
    pub fn bound_addr(&self) -> Option<Ipv4Addr> {
        self.bound_addr
    }

    /// Binds the external IP address this VM impersonates.
    pub fn bind_addr(&mut self, addr: Ipv4Addr) {
        self.bound_addr = Some(addr);
    }

    /// Whether an exploit payload has executed.
    #[must_use]
    pub fn is_infected(&self) -> bool {
        self.infected
    }

    /// Marks the guest infected.
    pub(crate) fn mark_infected(&mut self) {
        self.infected = true;
    }

    /// Clears the guest-visible state after a rollback to the reference
    /// image: infection flag, address binding, and the disk overlay. Memory
    /// remapping is the host's job (it owns the frame table).
    pub(crate) fn reset_guest_state(&mut self) {
        self.infected = false;
        self.bound_addr = None;
        self.disk.clear_overlay();
    }

    /// The CoW disk.
    #[must_use]
    pub(crate) fn disk(&self) -> &CowDisk {
        &self.disk
    }

    /// Mutable access to the CoW disk.
    pub fn disk_mut(&mut self) -> &mut CowDisk {
        &mut self.disk
    }

    /// The p2m map: what the domain maps, and which entries it stores.
    #[must_use]
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Internal: mutable address space.
    pub(crate) fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// Counts a CoW fault of the host's memory path.
    pub(crate) fn note_fault(&mut self) {
        self.cow_faults += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrspace::Pte;
    use crate::block::BaseDisk;
    use crate::frame::FrameTable;

    fn make_domain(ft: &mut FrameTable) -> Domain {
        let entries = (0..4).map(|i| Pte::Shared(ft.alloc(i).unwrap())).collect();
        Domain::new(
            DomainId(1),
            ImageId(0),
            AddressSpace::from_entries(entries),
            CowDisk::new(BaseDisk::generate(10, 1)),
        )
    }

    #[test]
    fn binding_and_infection_flags() {
        let mut ft = FrameTable::new(10);
        let mut d = make_domain(&mut ft);
        assert_eq!(d.bound_addr(), None);
        d.bind_addr(Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(d.bound_addr(), Some(Ipv4Addr::new(10, 1, 2, 3)));
        assert!(!d.is_infected());
        d.mark_infected();
        assert!(d.is_infected());
    }

    #[test]
    fn page_accounting_starts_all_shared() {
        let mut ft = FrameTable::new(10);
        let d = make_domain(&mut ft);
        assert_eq!(d.memory_pages(), 4);
        assert_eq!(d.private_pages(), 0);
        assert_eq!(d.shared_pages(), 4);
        assert_eq!(d.cow_faults(), 0);
    }
}
