//! A physical honeyfarm server: frame table, reference images, domains.
//!
//! [`Host`] is the API surface the honeyfarm controller drives: create a
//! reference image once, flash-clone it per attacked address, route guest
//! memory activity through [`Host::write_page`] (which takes CoW faults),
//! and destroy domains when the gateway recycles them. Memory accounting
//! ([`Host::memory_report`]) is the ground truth behind the reproduction of
//! the paper's delta-virtualization figure.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use potemkin_sim::SimTime;
use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::addrspace::{AddressSpace, Pte};
use crate::block::{BaseDisk, CowDisk};
use crate::clone::CloneTiming;
use crate::cost::CostModel;
use crate::domain::{Domain, DomainId};
use crate::error::VmmError;
use crate::frame::FrameTable;
use crate::guest::GuestProfile;
use crate::snapshot::{ImageId, ReferenceImage};
use crate::storage::{SharedChunkStore, DEFAULT_CHUNK_BLOCKS};

/// Fixed per-domain memory overhead in pages (hypervisor structures, shadow
/// tables, device rings). The paper observed that a clone's marginal
/// footprint is dominated by this fixed overhead, not by dirtied pages.
pub const DOMAIN_OVERHEAD_PAGES: u64 = 1_024; // 4 MiB at 4 KiB pages

/// Outcome of a guest memory write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Whether the write took a CoW fault (first write to a shared page).
    pub(crate) faulted: bool,
    /// Virtual-time cost of the write (zero for non-faulting writes).
    pub(crate) cost: SimTime,
}

/// Aggregate outcome of touching a batch of pages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TouchStats {
    /// Pages written.
    pub(crate) pages: u64,
    /// CoW faults taken.
    pub(crate) faults: u64,
    /// Total virtual-time cost.
    pub cost: SimTime,
}

/// A snapshot of the host's memory accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryReport {
    /// Frames the host manages.
    pub total_frames: u64,
    /// Frames currently free.
    pub free_frames: u64,
    /// Frames currently in use (images + domain-private).
    pub used_frames: u64,
    /// Frames owned by reference images.
    pub image_frames: u64,
    /// Frames owned exclusively by live domains (their deltas + overhead).
    pub private_frames: u64,
    /// Live (not destroyed) domains.
    pub live_domains: u64,
}

impl MemoryReport {
    /// Mean private frames per live domain (zero with no domains) — the
    /// paper's "marginal memory per clone".
    #[must_use]
    pub fn marginal_frames_per_domain(&self) -> f64 {
        if self.live_domains == 0 {
            0.0
        } else {
            self.private_frames as f64 / self.live_domains as f64
        }
    }
}

/// A physical server in the honeyfarm.
pub struct Host {
    frames: FrameTable,
    /// Held by `Arc`: a flash clone's address space holds its image too.
    images: BTreeMap<ImageId, Arc<ReferenceImage>>,
    domains: BTreeMap<DomainId, Domain>,
    next_image: u64,
    next_domain: u64,
    max_domains: usize,
    /// Per-domain fixed overhead, in pages (see [`DOMAIN_OVERHEAD_PAGES`]).
    overhead_pages: u64,
    /// Whether the physical server is up. A crashed host rejects every VMM
    /// operation with [`VmmError::HostDown`] until [`Host::revive`].
    alive: bool,
    /// Remaining injected clone failures: each flash-clone attempt consumes
    /// one and fails with [`VmmError::InjectedFault`].
    pending_clone_faults: u32,
    /// The content-addressed chunk store backing every reference image's
    /// base disk. Farm-managed hosts share one store
    /// ([`Host::with_chunk_store`]) so identical chunks dedupe farm-wide;
    /// a standalone host gets a private in-memory store.
    store: SharedChunkStore,
    /// Chunk size (in blocks) for reference images created on this host.
    chunk_blocks: u64,
}

impl Host {
    /// Creates a host managing `total_frames` machine frames.
    #[must_use]
    pub fn new(total_frames: u64) -> Self {
        Host {
            frames: FrameTable::new(total_frames),
            images: BTreeMap::new(),
            domains: BTreeMap::new(),
            next_image: 0,
            next_domain: 0,
            max_domains: usize::MAX,
            overhead_pages: DOMAIN_OVERHEAD_PAGES,
            alive: true,
            pending_clone_faults: 0,
            store: SharedChunkStore::new_memory(),
            chunk_blocks: DEFAULT_CHUNK_BLOCKS,
        }
    }

    /// Caps the number of simultaneously live domains (Xen-era limits).
    #[must_use]
    pub fn with_max_domains(mut self, max: usize) -> Self {
        self.max_domains = max;
        self
    }

    /// Overrides the fixed per-domain page overhead (ablation hook).
    #[must_use]
    pub fn with_overhead_pages(mut self, pages: u64) -> Self {
        self.overhead_pages = pages;
        self
    }

    /// Backs this host's reference images with a (typically farm-shared)
    /// chunk store instead of the private default.
    #[must_use]
    pub fn with_chunk_store(mut self, store: SharedChunkStore) -> Self {
        self.store = store;
        self
    }

    /// Overrides the chunk size (in blocks) for reference images created
    /// on this host; 1 reproduces the flat pre-chunking layout.
    #[must_use]
    pub fn with_disk_chunk_blocks(mut self, blocks: u64) -> Self {
        self.chunk_blocks = blocks.max(1);
        self
    }

    /// Whether the server is up.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Arms `count` additional injected clone failures: the next `count`
    /// flash-clone attempts fail with [`VmmError::InjectedFault`].
    pub fn fail_next_clones(&mut self, count: u32) {
        self.pending_clone_faults = self.pending_clone_faults.saturating_add(count);
    }

    /// Crashes the server: every live domain is torn down (its frames
    /// released, matching a power loss that clears RAM) and all subsequent
    /// VMM operations fail with [`VmmError::HostDown`] until
    /// [`Host::revive`]. Reference images survive — they are re-provisioned
    /// from stable storage on reboot, which the model represents by keeping
    /// their pages counted.
    ///
    /// Returns the number of domains lost. Idempotent on a dead host.
    pub fn crash(&mut self) -> u64 {
        if !self.alive {
            return 0;
        }
        let lost = self.domains.len() as u64;
        for mut dom in std::mem::take(&mut self.domains).into_values() {
            dom.space_mut().release_all(&mut self.frames);
        }
        self.alive = false;
        self.pending_clone_faults = 0;
        lost
    }

    /// Brings a crashed server back online with no resident domains.
    /// Idempotent on a live host.
    pub fn revive(&mut self) {
        self.alive = true;
    }

    fn ensure_alive(&self) -> Result<(), VmmError> {
        if self.alive {
            Ok(())
        } else {
            Err(VmmError::HostDown)
        }
    }

    /// One lookup each of a live host's domain and the image it came from,
    /// with the frame table a memory operation needs beside.
    fn resolve(
        &mut self,
        id: DomainId,
    ) -> Result<(&mut Domain, &ReferenceImage, &mut FrameTable), VmmError> {
        self.ensure_alive()?;
        let dom = self.domains.get_mut(&id).ok_or(VmmError::NoSuchDomain(id))?;
        let image = self.images.get(&dom.image()).ok_or(VmmError::NoSuchImage(dom.image()))?;
        Ok((dom, image, &mut self.frames))
    }

    /// Boots a guest profile once and freezes it as a reference image: its
    /// pages are counted, and their content is computed from the profile.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfMemory`] if the image does not fit.
    pub fn create_reference_image(
        &mut self,
        name: &str,
        profile: GuestProfile,
    ) -> Result<ImageId, VmmError> {
        self.ensure_alive()?;
        self.frames.alloc_private(profile.memory_pages)?;
        let id = ImageId(self.next_image);
        self.next_image += 1;
        let disk =
            BaseDisk::open(&self.store, profile.disk_blocks, self.chunk_blocks, profile.disk_seed);
        self.images.insert(id, Arc::new(ReferenceImage::boot(id, name, disk, profile)));
        Ok(id)
    }

    /// Looks up a reference image, as a clone of it holds it.
    pub fn image(&self, id: ImageId) -> Result<&Arc<ReferenceImage>, VmmError> {
        self.images.get(&id).ok_or(VmmError::NoSuchImage(id))
    }

    /// Looks up a domain.
    pub fn domain(&self, id: DomainId) -> Result<&Domain, VmmError> {
        self.domains.get(&id).ok_or(VmmError::NoSuchDomain(id))
    }

    /// Looks up a domain mutably.
    pub fn domain_mut(&mut self, id: DomainId) -> Result<&mut Domain, VmmError> {
        self.domains.get_mut(&id).ok_or(VmmError::NoSuchDomain(id))
    }

    /// Iterates live domains in id order.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.values()
    }

    /// The number of live domains.
    #[must_use]
    pub fn live_domains(&self) -> usize {
        self.domains.len()
    }

    /// Admits a domain of `pages` private pages, under the domain cap.
    fn admit(&mut self, pages: u64) -> Result<(), VmmError> {
        if self.domains.len() >= self.max_domains {
            return Err(VmmError::TooManyDomains { limit: self.max_domains });
        }
        self.frames.alloc_private(pages)
    }

    /// Starts a domain of `image` over `space`, with a fresh overlay on the
    /// image's disk, under the next domain id.
    fn start(&mut self, image: &ReferenceImage, space: AddressSpace) -> DomainId {
        let disk = CowDisk::new(image.disk().clone());
        let id = DomainId(self.next_domain);
        self.next_domain += 1;
        self.domains.insert(id, Domain::new(id, image.id(), space, disk));
        id
    }

    /// Flash-clones a domain from a reference image: every image page is
    /// mapped copy-on-write by holding the image itself (no frame's count
    /// moves); only the fixed overhead is allocated.
    ///
    /// The returned [`CloneTiming`] is the reproduction of the paper's
    /// clone-latency breakdown. The domain comes back *running*.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::NoSuchImage`], [`VmmError::TooManyDomains`], or
    /// [`VmmError::OutOfMemory`] (for the overhead pages).
    pub fn flash_clone(&mut self, image: ImageId) -> Result<(DomainId, CloneTiming), VmmError> {
        self.ensure_alive()?;
        if self.pending_clone_faults > 0 {
            self.pending_clone_faults -= 1;
            return Err(VmmError::InjectedFault { op: "flash_clone" });
        }
        let base = Arc::clone(self.image(image)?);
        self.admit(self.overhead_pages)?;
        let timing = CloneTiming::new(CostModel::CALIBRATED.flash_clone_stages(base.pages()));
        let overhead = vec![Pte::Private(0); self.overhead_pages as usize];
        let space = AddressSpace::over(Some(Arc::clone(&base)), overhead);
        Ok((self.start(&base, space), timing))
    }

    /// Starts a domain holding a private copy of every image page — a full
    /// copy or a cold boot, which differ only in cost; returns it with the
    /// image's page count.
    fn copy_clone(&mut self, image: ImageId) -> Result<(DomainId, u64), VmmError> {
        self.ensure_alive()?;
        let image = Arc::clone(self.image(image)?);
        let pages = image.pages();
        self.admit(pages + self.overhead_pages)?;
        let content = |pfn| image.pristine(pfn).content(&self.frames, &image);
        let mut entries: Vec<Pte> = (0..pages).map(|pfn| Pte::Private(content(pfn))).collect();
        entries.resize(entries.len() + self.overhead_pages as usize, Pte::Private(0));
        Ok((self.start(&image, AddressSpace::from_entries(entries)), pages))
    }

    /// Eagerly copies every image page into private frames (the no-delta
    /// baseline).
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Host::flash_clone`]; the frame demand is
    /// the whole image plus overhead.
    pub fn full_copy_clone(&mut self, image: ImageId) -> Result<(DomainId, CloneTiming), VmmError> {
        let (id, pages) = self.copy_clone(image)?;
        Ok((id, CloneTiming::new(CostModel::CALIBRATED.full_copy_stages(pages))))
    }

    /// Boots a fresh domain from scratch (the no-cloning baseline: tens of
    /// seconds of virtual time). Same memory shape as a full copy, different
    /// provenance and timing.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Host::full_copy_clone`].
    pub fn cold_boot(&mut self, image: ImageId) -> Result<(DomainId, CloneTiming), VmmError> {
        let (id, pages) = self.copy_clone(image)?;
        Ok((id, CloneTiming::new(CostModel::CALIBRATED.cold_boot_stages(pages))))
    }

    /// Destroys a domain, releasing all of its frames. Returns the
    /// virtual-time cost (scales with the domain's private pages).
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::NoSuchDomain`] for unknown or already-destroyed
    /// domains.
    pub fn destroy(&mut self, id: DomainId) -> Result<SimTime, VmmError> {
        self.ensure_alive()?;
        let mut dom = self.domains.remove(&id).ok_or(VmmError::NoSuchDomain(id))?;
        let cost = CostModel::CALIBRATED.destroy_cost(dom.private_pages());
        dom.space_mut().release_all(&mut self.frames);
        Ok(cost)
    }

    /// Freezes a *running* domain's current memory as a new reference
    /// image — the forensic-snapshot primitive: an infected honeypot can be
    /// captured for offline analysis, or used as the clone source for a
    /// whole farm of already-infected honeypots.
    ///
    /// The new image is the domain's boot image plus each page the domain
    /// maps differently, shared copy-on-write in both directions: a private
    /// one moves into a row the two share, so it costs what the domain has
    /// dirtied and no frame. The image's disk is the domain's *base* disk
    /// (block overlays are per-domain state and are not captured).
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::NoSuchDomain`] for unknown domains.
    pub fn snapshot_domain(&mut self, id: DomainId, name: &str) -> Result<ImageId, VmmError> {
        self.ensure_alive()?;
        let source = Arc::clone(self.image(self.domain(id)?.image())?);
        let boot = Arc::clone(self.image(source.boot_image())?);
        let new_id = ImageId(self.next_image);
        let (dom, _, table) = self.resolve(id)?;
        let pages = source.pages();
        // The domain's view over its image's: its private pages become rows,
        // so its future writes CoW away from the snapshot.
        let space = dom.space_mut();
        let mut view: BTreeMap<u64, Pte> = source.frozen().stored().collect();
        let stored: Vec<u64> =
            space.stored().map(|(pfn, _)| pfn).take_while(|&pfn| pfn < pages).collect();
        for pfn in stored {
            view.insert(pfn, space.freeze(pfn, table)?);
        }
        let mut frozen = AddressSpace::over(Some(boot), Vec::new());
        for (pfn, pte) in view {
            frozen.remap(pfn, pte, table)?;
        }
        let image = ReferenceImage::snapshot(new_id, name, &source, frozen);
        self.images.insert(new_id, Arc::new(image));
        self.next_image += 1;
        Ok(new_id)
    }

    /// Rolls a domain back to its pristine reference-image state: every
    /// image page it stores is given back and remapped copy-on-write as the
    /// image maps it, the disk overlay and infection flag are cleared, and
    /// the address binding is dropped. Much cheaper than destroy +
    /// flash-clone (the paper's recycling optimization: the domain's fixed
    /// structures survive).
    ///
    /// Returns the virtual-time cost.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::NoSuchDomain`] for unknown domains.
    pub fn rollback(&mut self, id: DomainId) -> Result<SimTime, VmmError> {
        let (dom, image, frames) = self.resolve(id)?;
        let image_pages = image.pages();
        assert!(dom.memory_pages() >= image_pages, "image pfns are mapped");
        let mut released = 0u64;
        // Only stored entries are visited: a page the space leaves to its
        // base is already the pristine read-only image mapping. Anything
        // else — a private CoW copy, a row frozen into a later snapshot — goes.
        dom.space_mut().remap_stored_below(image_pages, frames, |pfn, pte| {
            let pristine = image.pristine(pfn);
            released += u64::from(pte != pristine);
            Some(pristine)
        });
        // Overhead pages beyond the image stay allocated and private; scrub
        // them.
        for pfn in image_pages..dom.memory_pages() {
            dom.space_mut().write(pfn, 0, frames)?;
        }
        dom.reset_guest_state();
        Ok(CostModel::CALIBRATED.rollback_cost(released))
    }

    /// One content-index pass over every domain's guest region: divergent
    /// pages whose contents match an already-resident page (an image page,
    /// a previously merged frame, or another domain's divergent page) are
    /// released and remapped to that page copy-on-write.
    ///
    /// This is the KSM-style content-based sharing the paper leaves as
    /// future work. Worm payloads write the same bytes into every victim, so
    /// post-infection clones re-converge. When the merge target is another
    /// domain's private page, that page first moves into a shared row that
    /// both then map read-only, so a future write by either side faults a
    /// private copy (guest-visible contents never change). A boot image's
    /// page takes no row, so only its own image's domains map it; a domain
    /// of another image merges that content with its peers through a row.
    ///
    /// Only the image-backed guest region is scanned: the fixed overhead
    /// pages model per-domain hypervisor structures (shadow tables, device
    /// rings), which are never content-shareable on real hardware.
    ///
    /// Scan order is domain-id then pfn order — deterministic, so merged
    /// frame topology (and every report derived from it) is identical
    /// across runs and shard worker counts.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::HostDown`] on a crashed host.
    pub fn scan_and_merge(&mut self) -> Result<crate::memctl::MergeReport, VmmError> {
        self.ensure_alive()?;
        let free_before = self.frames.free_frames();
        // Where a content word already lives: a row, or the one private page
        // that holds it so far.
        #[derive(Clone, Copy)]
        enum Holder {
            Row(Pte),
            Page(DomainId, u64),
        }
        // A boot image's pages, by content, first pfn first: only that
        // image's domains can map one (it has no row), and where one holds
        // the content it wins over any row.
        let mut image_pages: HashMap<(ImageId, u64), u64> = HashMap::new();
        let mut canonical: HashMap<u64, Holder> = HashMap::new();
        for img in self.images.values() {
            if img.is_boot() {
                for pfn in 0..img.pages() {
                    image_pages.entry((img.id(), img.boot_content(pfn))).or_insert(pfn);
                }
            }
            for (_, pte) in img.frozen().stored() {
                if let Pte::Shared(frame) = pte {
                    canonical.entry(self.frames.read(frame)).or_insert(Holder::Row(pte));
                }
            }
        }
        let mut report = crate::memctl::MergeReport::default();
        // Per domain, its boot image and its image-backed guest region.
        let scan: Vec<(DomainId, ImageId, u64)> = self
            .domains
            .values()
            .filter_map(|d| Some((d.id(), self.images.get(&d.image())?)))
            .map(|(id, img)| (id, img.boot_image(), img.pages()))
            .collect();
        for (id, boot, guest_pages) in scan {
            // A page the space leaves to its base maps an image page
            // read-only, and every image page is indexed above: the pass
            // has nothing to do there and takes the stored entries only.
            // Taken up front: merging remaps this domain's entries (and
            // earlier domains') only behind the one being looked at.
            let dom = self.domains.get(&id).ok_or(VmmError::NoSuchDomain(id))?;
            let stored: Vec<(u64, Pte)> =
                dom.space().stored().take_while(|s| s.0 < guest_pages).collect();
            for (pfn, pte) in stored {
                let content = match pte {
                    Pte::Shared(frame) => {
                        // Already shared; index it so later duplicates can join.
                        canonical.entry(self.frames.read(frame)).or_insert(Holder::Row(pte));
                        continue;
                    }
                    Pte::Image(_) => continue,
                    Pte::Private(content) => content,
                };
                let to = match (image_pages.get(&(boot, content)), canonical.get(&content)) {
                    (Some(&page), _) => Pte::Image(page),
                    (None, None) => {
                        canonical.insert(content, Holder::Page(id, pfn));
                        continue;
                    }
                    (None, Some(&Holder::Row(to))) => to,
                    (None, Some(&Holder::Page(owner, opfn))) => {
                        // The first holder's page becomes the shared row, so
                        // neither side can mutate it in place.
                        let odom =
                            self.domains.get_mut(&owner).ok_or(VmmError::NoSuchDomain(owner))?;
                        let row = odom.space_mut().freeze(opfn, &mut self.frames)?;
                        canonical.insert(content, Holder::Row(row));
                        row
                    }
                };
                let dom = self.domains.get_mut(&id).ok_or(VmmError::NoSuchDomain(id))?;
                dom.space_mut().remap(pfn, to, &mut self.frames)?;
                report.merged_pages += 1;
            }
        }
        report.frames_reclaimed = self.frames.free_frames().saturating_sub(free_before);
        Ok(report)
    }

    /// The host's logical-vs-physical occupancy (sharing ratio input).
    #[must_use]
    pub fn sharing_report(&self) -> crate::memctl::SharingReport {
        crate::memctl::SharingReport {
            logical_pages: self.domains.values().map(Domain::memory_pages).sum(),
            resident_frames: self.frames.used_frames(),
        }
    }

    /// Reads a guest page through the domain's p2m map.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::NoSuchDomain`] or [`VmmError::BadPfn`].
    pub fn read_page(&mut self, id: DomainId, pfn: u64) -> Result<u64, VmmError> {
        let (dom, image, frames) = self.resolve(id)?;
        Ok(dom.space().lookup(pfn)?.content(frames, image))
    }

    /// Reads a guest disk block through the domain's CoW view, lazily
    /// materializing the underlying chunk from the golden image on first
    /// touch. Returns the content word and the virtual-time cost of the
    /// read — `CostModel::chunk_materialize` per chunk faulted in, zero
    /// for reads served from already-resident chunks or the overlay.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::NoSuchDomain`] or [`VmmError::BadBlock`].
    pub fn read_block(&self, id: DomainId, block: u64) -> Result<(u64, SimTime), VmmError> {
        self.ensure_alive()?;
        let dom = self.domains.get(&id).ok_or(VmmError::NoSuchDomain(id))?;
        let before = dom.disk().base().materialized_chunks();
        let content = dom.disk().read(block)?;
        let after = dom.disk().base().materialized_chunks();
        Ok((content, CostModel::CALIBRATED.chunk_materialize * (after - before)))
    }

    /// Writes a guest page, taking a CoW fault on the first write to a
    /// shared page.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfMemory`] when a fault cannot allocate a
    /// private frame (the guest write is lost, matching a real host that
    /// would stall the domain), plus the errors of [`Host::read_page`].
    pub fn write_page(
        &mut self,
        id: DomainId,
        pfn: u64,
        value: u64,
    ) -> Result<WriteOutcome, VmmError> {
        let stats = self.touch_pages(id, &[pfn], value)?;
        Ok(WriteOutcome { faulted: stats.faults == 1, cost: stats.cost })
    }

    /// Writes a batch of pages — page `i` gets `value_seed + i` — summing
    /// faults and costs. The domain is resolved once for the batch.
    ///
    /// # Errors
    ///
    /// As [`Host::write_page`]; pages before the failing one stay written.
    pub fn touch_pages(
        &mut self,
        id: DomainId,
        pfns: &[u64],
        value_seed: u64,
    ) -> Result<TouchStats, VmmError> {
        self.ensure_alive()?;
        let dom = self.domains.get_mut(&id).ok_or(VmmError::NoSuchDomain(id))?;
        Self::touch(dom, &mut self.frames, pfns, value_seed)
    }

    /// The body of every guest write batch, over a domain already resolved.
    fn touch(
        dom: &mut Domain,
        frames: &mut FrameTable,
        pfns: &[u64],
        value_seed: u64,
    ) -> Result<TouchStats, VmmError> {
        let mut stats = TouchStats::default();
        for (i, &pfn) in pfns.iter().enumerate() {
            let faulted = dom.space_mut().write(pfn, value_seed.wrapping_add(i as u64), frames)?;
            stats.pages += 1;
            if faulted {
                dom.note_fault();
                stats.faults += 1;
                stats.cost += CostModel::CALIBRATED.cow_fault;
            }
        }
        Ok(stats)
    }

    /// Applies the guest's page/disk activity for handling one inbound
    /// service request.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn apply_request(
        &mut self,
        id: DomainId,
        request_idx: u64,
    ) -> Result<TouchStats, VmmError> {
        let (dom, image, frames) = self.resolve(id)?;
        let pages = image.profile().pages_for_request(request_idx);
        Self::touch(dom, frames, &pages, request_idx)
    }

    /// Applies the guest's page/disk activity for a successful infection
    /// and marks the domain infected.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn apply_infection(&mut self, id: DomainId, seed: u64) -> Result<TouchStats, VmmError> {
        let (dom, image, frames) = self.resolve(id)?;
        let profile = image.profile();
        let stats = Self::touch(dom, frames, &profile.pages_for_infection(seed), seed)?;
        for b in 0..profile.infection_disk_blocks.min(profile.disk_blocks) {
            dom.disk_mut().write(b, seed.wrapping_add(b))?;
        }
        dom.mark_infected();
        Ok(stats)
    }

    /// Produces the current memory accounting snapshot.
    #[must_use]
    pub fn memory_report(&self) -> MemoryReport {
        let image_frames: u64 = self.images.values().map(|image| image.pages()).sum();
        let private_frames: u64 = self.domains.values().map(Domain::private_pages).sum();
        MemoryReport {
            total_frames: self.frames.total_frames(),
            free_frames: self.frames.free_frames(),
            used_frames: self.frames.used_frames(),
            image_frames,
            private_frames,
            live_domains: self.domains.len() as u64,
        }
    }

    /// Direct access to the frame table (tests and invariant checks).
    #[must_use]
    pub fn frames(&self) -> &FrameTable {
        &self.frames
    }
}

/// Whole-host checkpoint support: serializes every piece of mutable VMM
/// state (frame table, reference images, domains) into a flat byte
/// payload, and restores it into a host carrying the same
/// *configuration* (domain cap, overhead pages — which are not
/// serialized; they come from the scenario at reconstruction time).
impl Host {
    /// Encodes the host's mutable state for a checkpoint section.
    #[must_use]
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.frames.snap(&mut w);
        // Id allocators and liveness.
        w.u64(self.next_image);
        w.u64(self.next_domain);
        w.bool(self.alive);
        w.u32(self.pending_clone_faults);
        // Both maps are ordered by id.
        w.seq(self.images.values(), |image, w| image.encode(w));
        w.seq(self.domains.values(), Domain::encode);
        w.into_bytes()
    }

    /// Restores mutable state encoded by [`Host::encode_state`] into this
    /// host, replacing whatever it held. Configuration (domain cap,
    /// overhead pages) is kept from `self`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] when the payload is truncated or
    /// structurally inconsistent — including a frame table of another size
    /// than this host's, images or domains out of id order or past their
    /// id allocator, and a frame table that disagrees with what names its
    /// frames (the reference rule of [`crate::addrspace`]); the host itself
    /// is left untouched in that case, though chunks of the images decoded
    /// so far may already have been put into the shared store.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader::new(bytes, "vmm.host");
        let frames: FrameTable = Snap::unsnap(&mut r)?;
        if frames.total_frames() != self.frames.total_frames() {
            return Err(r.bad());
        }
        let next_image = r.u64()?;
        let next_domain = r.u64()?;
        let alive = r.bool()?;
        let pending_clone_faults = r.u32()?;
        let (mut images, mut boot_pages) = (BTreeMap::new(), 0u64);
        let ids = r.seq(|r| {
            let image = ReferenceImage::decode(r, &self.store, self.chunk_blocks, &images)?;
            // A boot image's pages size every space over it: bounded by the
            // host before a snapshot or a domain is read over it.
            if image.is_boot() {
                boot_pages = boot_pages.saturating_add(image.pages());
            }
            if boot_pages > frames.total_frames() {
                return Err(r.bad());
            }
            let id = image.id();
            images.insert(id, Arc::new(image));
            Ok(id.0)
        })?;
        if !ids_in_order(ids.into_iter(), next_image) {
            return Err(r.bad());
        }
        let domains = r.seq(|r| Domain::decode(r, &images))?;
        if !ids_in_order(domains.iter().map(|d| d.id().0), next_domain) {
            return Err(r.bad());
        }
        let domains: BTreeMap<DomainId, Domain> =
            domains.into_iter().map(|d| (d.id(), d)).collect();
        r.finish()?;
        let frozen = images.values().map(|img| img.frozen());
        let spaces = frozen.chain(domains.values().map(Domain::space));
        let rows = spaces.flat_map(AddressSpace::stored).filter_map(|(_, pte)| match pte {
            Pte::Shared(frame) => Some(frame),
            Pte::Private(_) | Pte::Image(_) => None,
        });
        let private = domains.values().map(Domain::private_pages).sum::<u64>() + boot_pages;
        if !frames.is_held_by(rows, private) {
            return Err(r.bad());
        }
        self.frames = frames;
        self.images = images;
        self.domains = domains;
        self.next_image = next_image;
        self.next_domain = next_domain;
        self.alive = alive;
        self.pending_clone_faults = pending_clone_faults;
        Ok(())
    }
}

/// Whether `ids` ascend strictly and stay below `next`, as a map kept in
/// id order and filled from a counting allocator writes them.
fn ids_in_order(mut ids: impl Iterator<Item = u64>, next: u64) -> bool {
    let mut floor = 0;
    ids.all(|id| {
        let fits = (floor..next).contains(&id);
        floor = id.saturating_add(1);
        fits
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `encode_state` of [`diverged_host`] as of snapshot version 12 (an
    /// image is its profile: no rows, no frame list, no manifest geometry;
    /// no read or write tally a domain).
    const DIVERGED_HOST_BYTES: usize = 85_444;
    const DIVERGED_HOST_DIGEST: u64 = 0xf04f_56ce_3d48_9691;

    fn small_host() -> (Host, ImageId) {
        let mut host = Host::new(100_000).with_overhead_pages(16);
        let image = host.create_reference_image("test", GuestProfile::small()).unwrap();
        (host, image)
    }

    #[test]
    fn encode_restore_round_trips_bit_exactly() {
        let (mut host, image) = small_host();
        let (vm1, _) = host.flash_clone(image).unwrap();
        let (vm2, _) = host.flash_clone(image).unwrap();
        host.write_page(vm1, 3, 0xBEEF).unwrap();
        host.write_page(vm1, 4, 0xF00D).unwrap();
        host.domain_mut(vm1).unwrap().mark_infected();
        host.domain_mut(vm1).unwrap().bind_addr(std::net::Ipv4Addr::new(10, 0, 0, 7));
        host.domain_mut(vm1).unwrap().disk_mut().write(2, 999).unwrap();
        host.snapshot_domain(vm1, "forensic").unwrap();
        host.destroy(vm2).unwrap();
        host.fail_next_clones(2);

        let bytes = host.encode_state();
        let mut restored = Host::new(100_000).with_overhead_pages(16);
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.encode_state(), bytes, "re-encode must be bit-identical");

        // Behavioral equivalence: the next operations land identically
        // (both carry the pending injected clone faults, same id allocator,
        // same frame free-list order).
        for _ in 0..2 {
            assert!(matches!(host.flash_clone(image), Err(VmmError::InjectedFault { .. })));
            assert!(matches!(restored.flash_clone(image), Err(VmmError::InjectedFault { .. })));
        }
        let (a, _) = host.flash_clone(image).unwrap();
        let (b, _) = restored.flash_clone(image).unwrap();
        assert_eq!(a, b);
        assert_eq!(host.encode_state(), restored.encode_state());
    }

    /// Every way a p2m entry diverges from its image or comes back: CoW
    /// writes, a forensic snapshot freezing them, a merge pass sharing them
    /// across clones and mapping a page onto an image page at another pfn,
    /// a rollback and a second pass undoing them, next to a full-copy
    /// domain that shares nothing.
    fn diverged_host() -> Host {
        let (mut host, image) = small_host();
        let vms: Vec<DomainId> = (0..5).map(|_| host.flash_clone(image).unwrap().0).collect();
        host.apply_infection(vms[0], 7).unwrap();
        host.apply_infection(vms[2], 7).unwrap();
        host.touch_pages(vms[1], &[9, 3, 8_000, 3], 5).unwrap();
        host.apply_request(vms[3], 1).unwrap();
        let forensic = host.snapshot_domain(vms[0], "forensic").unwrap();
        host.write_page(vms[0], 3, 0xAB).unwrap();
        host.scan_and_merge().unwrap();
        host.rollback(vms[1]).unwrap();
        host.write_page(vms[1], 12, 0xCD).unwrap();
        host.write_page(vms[3], 40, GuestProfile::boot_content(image.0, 40)).unwrap();
        host.write_page(vms[3], 41, GuestProfile::boot_content(image.0, 7)).unwrap();
        host.scan_and_merge().unwrap();
        host.full_copy_clone(image).unwrap();
        let (of_forensic, _) = host.flash_clone(forensic).unwrap();
        host.write_page(of_forensic, 3, 0xEF).unwrap();
        host
    }

    #[test]
    fn encode_state_writes_each_space_as_what_it_stores() {
        let host = diverged_host();
        let bytes = host.encode_state();
        assert_eq!(bytes.len(), DIVERGED_HOST_BYTES);
        assert_eq!(potemkin_snapshot::fnv1a64(&bytes), DIVERGED_HOST_DIGEST);

        // A resumed host holds what the uninterrupted one held: each flash
        // clone back over its image with the same few stored entries, and
        // every domain mapping what it mapped, pfn by pfn.
        let mut restored = Host::new(100_000).with_overhead_pages(16);
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.encode_state(), bytes);
        let over_image =
            |host: &Host, dom: &Domain| dom.space().is_over(&host.images[&dom.image()]);
        for (was, now) in host.domains().zip(restored.domains()) {
            assert_eq!(now.id(), was.id());
            assert_eq!(over_image(&restored, now), over_image(&host, was), "{}", now.id());
            assert_eq!(now.space().delta_len(), was.space().delta_len(), "{}", now.id());
            assert_eq!(now.private_pages(), was.private_pages());
            assert!(now.space().iter().eq(was.space().iter()), "{}", now.id());
        }
        let deltas: Vec<usize> = restored.domains().map(|d| d.space().delta_len()).collect();
        assert!(deltas.iter().all(|&n| n < 200), "sparse: {deltas:?}");
        assert!(deltas.iter().any(|&n| n > 0));
        let flash = restored.domains().filter(|d| over_image(&restored, d)).count();
        assert_eq!((flash, restored.live_domains()), (6, 7), "the full copy alone is dense");
    }

    #[test]
    fn a_fresh_clone_encodes_what_it_stores_not_its_image() {
        let mut host = Host::new(100_000).with_overhead_pages(16);
        let encoded = |host: &mut Host, memory_pages: u64| {
            let profile = GuestProfile { memory_pages, ..GuestProfile::small() };
            let image = host.create_reference_image("sized", profile).unwrap();
            let (vm, _) = host.flash_clone(image).unwrap();
            let mut w = SnapWriter::new();
            host.domain(vm).unwrap().encode(&mut w);
            w.into_bytes().len()
        };
        let small = encoded(&mut host, 8_192);
        assert_eq!(encoded(&mut host, 32_768), small);
        assert!(small < 16 * 10 + 100, "its 16 overhead pages and a header: {small} B");
    }

    #[test]
    fn flash_clone_footprint_is_overhead_plus_dirtied_pages() {
        let (mut host, image) = small_host();
        let holders = |host: &Host| Arc::strong_count(&host.images[&image]);
        assert_eq!(holders(&host), 1, "the host alone");
        let vms: Vec<DomainId> = (0..3).map(|_| host.flash_clone(image).unwrap().0).collect();
        assert_eq!(holders(&host), 4, "one reference per clone, no copy");
        for &vm in &vms {
            let space = host.domain(vm).unwrap().space();
            assert!(space.is_over(&host.images[&image]));
            assert_eq!(space.delta_len(), 0, "a fresh clone stores nothing but its overhead");
        }
        host.touch_pages(vms[0], &[5, 900, 5, 8_191, 8_192], 1).unwrap();
        assert_eq!(host.domain(vms[0]).unwrap().space().delta_len(), 3, "distinct image pfns");
        host.rollback(vms[0]).unwrap();
        assert_eq!(host.domain(vms[0]).unwrap().space().delta_len(), 0);
        host.destroy(vms[1]).unwrap();
        assert_eq!(holders(&host), 3);
        // A full copy shares nothing, so it holds nothing of the image's.
        let (full, _) = host.full_copy_clone(image).unwrap();
        assert_eq!(holders(&host), 3);
        assert_eq!(host.domain(full).unwrap().space().delta_len(), 0);
    }

    #[test]
    fn restore_rejects_truncated_and_garbage_payloads() {
        let (mut host, image) = small_host();
        host.flash_clone(image).unwrap();
        let bytes = host.encode_state();
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut h = Host::new(100_000).with_overhead_pages(16);
            assert!(h.restore_state(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut h = Host::new(100_000).with_overhead_pages(16);
        let mut tail = bytes.clone();
        tail.extend_from_slice(&[0u8; 4]);
        assert!(h.restore_state(&tail).is_err(), "trailing garbage must fail");
    }

    #[test]
    fn a_host_over_an_image_of_no_pages_restores() {
        let mut host = Host::new(100).with_overhead_pages(2);
        let profile = GuestProfile { memory_pages: 0, ..GuestProfile::small() };
        let image = host.create_reference_image("empty", profile).unwrap();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.write_page(vm, 1, 7).unwrap();
        host.snapshot_domain(vm, "frozen").unwrap();
        let bytes = host.encode_state();
        let mut restored = Host::new(100).with_overhead_pages(2);
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.encode_state(), bytes);
    }

    #[test]
    fn a_boot_image_larger_than_the_host_is_refused_before_a_space_is_sized() {
        // A snapshot and a clone over a 777-page image: both size their
        // delta by the boot image's page count, which the payload states.
        let mut host = Host::new(100_000).with_overhead_pages(16);
        let profile = GuestProfile { memory_pages: 777, ..GuestProfile::small() };
        let image = host.create_reference_image("sized", profile).unwrap();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.write_page(vm, 3, 1).unwrap();
        host.snapshot_domain(vm, "frozen").unwrap();
        host.flash_clone(image).and_then(|(vm, _)| host.write_page(vm, 4, 2)).unwrap();
        let bytes = host.encode_state();
        let pages = 777u64.to_le_bytes();
        let at = bytes.windows(8).position(|w| w == pages).unwrap();
        for huge in [100_001u64, 1 << 40, u64::MAX] {
            let mut payload = bytes.clone();
            payload[at..at + 8].copy_from_slice(&huge.to_le_bytes());
            let mut fresh = Host::new(100_000).with_overhead_pages(16);
            assert!(fresh.restore_state(&payload).is_err(), "{huge} pages");
        }
    }

    #[test]
    fn image_creation_accounts_frames() {
        let (host, image) = small_host();
        let report = host.memory_report();
        assert_eq!(report.image_frames, 8_192);
        assert_eq!(report.used_frames, 8_192);
        assert_eq!(host.image(image).unwrap().pages(), 8_192);
        assert_eq!(host.frames().live_rows(), 0, "counted, and nothing else");
    }

    #[test]
    fn image_oom() {
        let mut host = Host::new(100);
        assert!(matches!(
            host.create_reference_image("big", GuestProfile::small()),
            Err(VmmError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn flash_clone_allocates_only_overhead() {
        let (mut host, image) = small_host();
        let before = host.memory_report().used_frames;
        let (vm, timing) = host.flash_clone(image).unwrap();
        let after = host.memory_report().used_frames;
        assert_eq!(after - before, 16, "only overhead pages allocated");
        assert!(timing.total() < SimTime::from_secs(1));
        let dom = host.domain(vm).unwrap();
        assert_eq!(dom.shared_pages(), 8_192);
        assert_eq!(dom.private_pages(), 16);
    }

    #[test]
    fn clone_sees_image_contents() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        for pfn in [0u64, 1, 100, 8_191] {
            assert_eq!(host.read_page(vm, pfn).unwrap(), GuestProfile::boot_content(image.0, pfn));
        }
    }

    #[test]
    fn cow_write_isolates_from_image_and_siblings() {
        let (mut host, image) = small_host();
        let (a, _) = host.flash_clone(image).unwrap();
        let (b, _) = host.flash_clone(image).unwrap();
        let orig = host.read_page(a, 5).unwrap();

        let out = host.write_page(a, 5, 0xAAAA).unwrap();
        assert!(out.faulted);
        assert!(out.cost > SimTime::ZERO);
        assert_eq!(host.read_page(a, 5).unwrap(), 0xAAAA);
        assert_eq!(host.read_page(b, 5).unwrap(), orig, "sibling unaffected");

        let out2 = host.write_page(b, 5, 0xBBBB).unwrap();
        assert!(out2.faulted);
        assert_eq!(host.read_page(a, 5).unwrap(), 0xAAAA);
        assert_eq!(host.read_page(b, 5).unwrap(), 0xBBBB);
    }

    #[test]
    fn cow_faults_take_no_row() {
        let mut host = Host::new(100_000).with_overhead_pages(16);
        let profile = GuestProfile { memory_pages: 10_000, ..GuestProfile::small() };
        let image = host.create_reference_image("big", profile).unwrap();
        let (vm, _) = host.flash_clone(image).unwrap();
        let before = host.memory_report().used_frames;
        let stats = host.touch_pages(vm, &(0..10_000).collect::<Vec<_>>(), 1).unwrap();
        assert_eq!(stats.faults, 10_000);
        assert_eq!(host.frames().live_rows(), 0, "neither the image nor a fault takes a row");
        assert_eq!(host.memory_report().used_frames, before + 10_000);
        assert_eq!(host.read_page(vm, 9_999).unwrap(), 10_000);
    }

    #[test]
    fn second_write_does_not_fault() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        assert!(host.write_page(vm, 7, 1).unwrap().faulted);
        let out = host.write_page(vm, 7, 2).unwrap();
        assert!(!out.faulted);
        assert_eq!(out.cost, SimTime::ZERO);
        assert_eq!(host.domain(vm).unwrap().cow_faults(), 1);
    }

    #[test]
    fn private_pages_grow_with_writes() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        let base = host.domain(vm).unwrap().private_pages();
        let stats = host.touch_pages(vm, &[1, 2, 3, 4, 5], 9).unwrap();
        assert_eq!(stats.faults, 5);
        assert_eq!(host.domain(vm).unwrap().private_pages(), base + 5);
    }

    #[test]
    fn destroy_returns_all_private_frames() {
        let (mut host, image) = small_host();
        let before = host.memory_report();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.touch_pages(vm, &(0..100).collect::<Vec<_>>(), 1).unwrap();
        let cost = host.destroy(vm).unwrap();
        assert!(cost > SimTime::ZERO);
        let after = host.memory_report();
        assert_eq!(after.used_frames, before.used_frames, "no frame leak");
        assert_eq!(after.live_domains, 0);
        assert!(matches!(host.domain(vm), Err(VmmError::NoSuchDomain(_))));
        assert!(matches!(host.destroy(vm), Err(VmmError::NoSuchDomain(_))));
    }

    #[test]
    fn destroy_never_frees_image_frames() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.destroy(vm).unwrap();
        // Image still fully readable through a fresh clone.
        let (vm2, _) = host.flash_clone(image).unwrap();
        assert_eq!(host.read_page(vm2, 0).unwrap(), GuestProfile::boot_content(image.0, 0));
    }

    #[test]
    fn full_copy_clone_allocates_whole_image() {
        let (mut host, image) = small_host();
        let before = host.memory_report().used_frames;
        let (vm, timing) = host.full_copy_clone(image).unwrap();
        let after = host.memory_report().used_frames;
        assert_eq!(after - before, 8_192 + 16);
        let dom = host.domain(vm).unwrap();
        assert_eq!(dom.private_pages(), 8_192 + 16);
        assert_eq!(dom.shared_pages(), 0);
        // Contents match the image but writes never fault.
        assert_eq!(host.read_page(vm, 3).unwrap(), GuestProfile::boot_content(image.0, 3));
        assert!(!host.write_page(vm, 3, 9).unwrap().faulted);
        assert!(timing.total() > SimTime::from_millis(400));
    }

    #[test]
    fn cold_boot_is_slowest_and_private() {
        let (mut host, image) = small_host();
        let (_, flash_t) = host.flash_clone(image).unwrap();
        let (vm, boot_t) = host.cold_boot(image).unwrap();
        assert!(boot_t.total() > SimTime::from_secs(20));
        assert!(boot_t.total() > flash_t.total() * 10);
        let dom = host.domain(vm).unwrap();
        assert!(!dom.space().is_over(&host.images[&image]));
        assert_eq!(dom.shared_pages(), 0);
        assert_eq!(host.memory_report().live_domains, 2);
    }

    #[test]
    fn max_domains_enforced() {
        let (host, image) = small_host();
        let mut host = host.with_max_domains(2);
        host.flash_clone(image).unwrap();
        host.flash_clone(image).unwrap();
        assert!(matches!(host.flash_clone(image), Err(VmmError::TooManyDomains { limit: 2 })));
    }

    #[test]
    fn clone_oom_when_overhead_does_not_fit() {
        let mut host = Host::new(8_192 + 10).with_overhead_pages(16);
        let image = host.create_reference_image("t", GuestProfile::small()).unwrap();
        assert!(matches!(host.flash_clone(image), Err(VmmError::OutOfMemory { .. })));
        assert_eq!(host.live_domains(), 0);
    }

    #[test]
    fn write_fault_oom_surfaces() {
        let mut host = Host::new(8_192 + 4).with_overhead_pages(4);
        let image = host.create_reference_image("t", GuestProfile::small()).unwrap();
        let (vm, _) = host.flash_clone(image).unwrap();
        // No free frames remain: the first CoW fault must OOM.
        assert!(matches!(host.write_page(vm, 0, 1), Err(VmmError::OutOfMemory { .. })));
        // The shared mapping is still intact and readable.
        assert_eq!(host.read_page(vm, 0).unwrap(), GuestProfile::boot_content(image.0, 0));
    }

    #[test]
    fn ops_on_destroyed_or_missing_domains_fail() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.destroy(vm).unwrap();
        assert!(host.read_page(vm, 0).is_err());
        assert!(host.write_page(vm, 0, 1).is_err());
        assert!(host.read_page(DomainId(999), 0).is_err());
    }

    #[test]
    fn bad_pfn_rejected() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        let size = host.domain(vm).unwrap().memory_pages();
        assert!(matches!(host.read_page(vm, size), Err(VmmError::BadPfn { .. })));
        assert!(matches!(host.write_page(vm, size + 10, 0), Err(VmmError::BadPfn { .. })));
    }

    #[test]
    fn apply_request_and_infection() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        let s1 = host.apply_request(vm, 0).unwrap();
        assert_eq!(s1.pages, 16);
        assert!(s1.faults > 0);
        assert!(!host.domain(vm).unwrap().is_infected());
        let s2 = host.apply_infection(vm, 42).unwrap();
        assert_eq!(s2.pages, 128);
        let dom = host.domain(vm).unwrap();
        assert!(dom.is_infected());
        assert!(dom.disk().dirty_blocks() > 0);
    }

    #[test]
    fn marginal_memory_much_smaller_than_image() {
        let (mut host, image) = small_host();
        let mut vms = Vec::new();
        for i in 0..20 {
            let (vm, _) = host.flash_clone(image).unwrap();
            host.apply_request(vm, i).unwrap();
            vms.push(vm);
        }
        let report = host.memory_report();
        assert_eq!(report.live_domains, 20);
        let marginal = report.marginal_frames_per_domain();
        let image_pages = host.image(image).unwrap().pages() as f64;
        assert!(
            marginal < image_pages / 50.0,
            "marginal {marginal} frames should be ≪ image {image_pages}"
        );
    }

    #[test]
    fn rollback_restores_pristine_state_and_frees_delta() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        let clean = host.memory_report();
        host.apply_infection(vm, 7).unwrap();
        host.write_page(vm, 3, 0xBAD).unwrap();
        {
            let d = host.domain(vm).unwrap();
            assert!(d.is_infected());
            assert!(d.private_pages() > 16);
            assert!(d.disk().dirty_blocks() > 0);
        }
        let cost = host.rollback(vm).unwrap();
        assert!(cost > SimTime::ZERO);
        let after = host.memory_report();
        assert_eq!(after.used_frames, clean.used_frames, "delta frames returned");
        let d = host.domain(vm).unwrap();
        assert!(!d.is_infected());
        assert_eq!(d.bound_addr(), None);
        assert_eq!(d.private_pages(), 16, "only overhead remains private");
        assert_eq!(d.disk().dirty_blocks(), 0);
        // Memory reads pristine image content again.
        assert_eq!(host.read_page(vm, 3).unwrap(), GuestProfile::boot_content(image.0, 3));
    }

    #[test]
    fn rollback_is_cheaper_than_destroy_plus_clone() {
        let (mut host, image) = small_host();
        let (vm, clone_timing) = host.flash_clone(image).unwrap();
        host.touch_pages(vm, &(0..200).collect::<Vec<_>>(), 1).unwrap();
        let private = host.domain(vm).unwrap().private_pages();
        let rollback_cost = host.rollback(vm).unwrap();
        let destroy_cost = CostModel::CALIBRATED.destroy_cost(private);
        assert!(rollback_cost < destroy_cost + clone_timing.total());
    }

    #[test]
    fn rollback_isolates_from_siblings() {
        let (mut host, image) = small_host();
        let (a, _) = host.flash_clone(image).unwrap();
        let (b, _) = host.flash_clone(image).unwrap();
        host.write_page(a, 5, 0xA).unwrap();
        host.write_page(b, 5, 0xB).unwrap();
        host.rollback(a).unwrap();
        // B's private copy is untouched; A reads the image again.
        assert_eq!(host.read_page(b, 5).unwrap(), 0xB);
        assert_eq!(host.read_page(a, 5).unwrap(), GuestProfile::boot_content(image.0, 5));
        // A rolled-back domain can be dirtied and rolled back again.
        host.write_page(a, 5, 0xAA).unwrap();
        host.rollback(a).unwrap();
        assert_eq!(host.read_page(a, 5).unwrap(), GuestProfile::boot_content(image.0, 5));
    }

    #[test]
    fn snapshot_captures_live_state_without_allocating() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.apply_infection(vm, 3).unwrap();
        host.write_page(vm, 10, 0xFEED).unwrap();
        let used_before = host.memory_report().used_frames;

        let dirtied = host.domain(vm).unwrap().space().delta_len();
        let forensic = host.snapshot_domain(vm, "infected-capture").unwrap();
        assert_eq!(host.memory_report().used_frames, used_before, "snapshot allocates nothing");
        let frozen = host.image(forensic).unwrap().frozen();
        assert_eq!(frozen.delta_len(), dirtied, "it holds what the domain dirtied, no more");

        // A clone of the forensic image sees the infected state...
        let (clone, _) = host.flash_clone(forensic).unwrap();
        assert_eq!(host.read_page(clone, 10).unwrap(), 0xFEED);
        // ...while a clone of the original image does not.
        let (fresh, _) = host.flash_clone(image).unwrap();
        assert_eq!(host.read_page(fresh, 10).unwrap(), GuestProfile::boot_content(image.0, 10));
    }

    #[test]
    fn snapshot_source_writes_do_not_leak_into_snapshot() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.write_page(vm, 10, 0xAAAA).unwrap();
        let snap = host.snapshot_domain(vm, "snap").unwrap();
        // The source keeps running and dirties the same page again — the
        // write must CoW away from the snapshot.
        let out = host.write_page(vm, 10, 0xBBBB).unwrap();
        assert!(out.faulted, "frozen page must fault");
        let (clone, _) = host.flash_clone(snap).unwrap();
        assert_eq!(host.read_page(clone, 10).unwrap(), 0xAAAA, "snapshot frozen at capture");
        assert_eq!(host.read_page(vm, 10).unwrap(), 0xBBBB);
    }

    #[test]
    fn snapshot_chains_preserve_generational_state() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.write_page(vm, 0, 0xAAA).unwrap();
        let gen1 = host.snapshot_domain(vm, "gen1").unwrap();
        host.write_page(vm, 0, 0xBBB).unwrap();
        let gen2 = host.snapshot_domain(vm, "gen2").unwrap();
        host.write_page(vm, 0, 0xCCC).unwrap();

        let (c1, _) = host.flash_clone(gen1).unwrap();
        let (c2, _) = host.flash_clone(gen2).unwrap();
        assert_eq!(host.read_page(c1, 0).unwrap(), 0xAAA, "gen1 frozen");
        assert_eq!(host.read_page(c2, 0).unwrap(), 0xBBB, "gen2 frozen");
        assert_eq!(host.read_page(vm, 0).unwrap(), 0xCCC, "source keeps evolving");
        // Untouched pages still read the original boot content everywhere.
        for d in [vm, c1, c2] {
            assert_eq!(host.read_page(d, 9).unwrap(), GuestProfile::boot_content(image.0, 9));
        }
    }

    #[test]
    fn rollback_after_snapshot_restores_original_image() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.write_page(vm, 10, 0x1).unwrap();
        host.snapshot_domain(vm, "mid").unwrap();
        host.rollback(vm).unwrap();
        assert_eq!(
            host.read_page(vm, 10).unwrap(),
            GuestProfile::boot_content(image.0, 10),
            "rollback targets the original image, not the snapshot"
        );
        assert_eq!(host.domain(vm).unwrap().private_pages(), 16, "only overhead");
    }

    #[test]
    fn rollback_unknown_domain_fails() {
        let (mut host, _) = small_host();
        assert!(matches!(host.rollback(DomainId(9)), Err(VmmError::NoSuchDomain(_))));
    }

    #[test]
    fn crash_tears_down_domains_and_releases_their_frames() {
        let (mut host, image) = small_host();
        let pristine = host.memory_report();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.touch_pages(vm, &(0..50).collect::<Vec<_>>(), 1).unwrap();
        assert!(host.is_alive());

        let lost = host.crash();
        assert_eq!(lost, 1);
        assert!(!host.is_alive());
        let after = host.memory_report();
        assert_eq!(after.live_domains, 0);
        assert_eq!(after.used_frames, pristine.used_frames, "domain frames released");
        assert_eq!(after.image_frames, pristine.image_frames, "images survive the crash");
        // Crash is idempotent: a dead host stays dead and loses nothing more.
        assert_eq!(host.crash(), 0);
        assert!(!host.is_alive());
        assert_eq!(host.memory_report().used_frames, after.used_frames);
    }

    #[test]
    fn dead_host_rejects_all_operations() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        host.crash();
        assert_eq!(host.flash_clone(image), Err(VmmError::HostDown));
        assert_eq!(host.full_copy_clone(image).unwrap_err(), VmmError::HostDown);
        assert_eq!(host.cold_boot(image).unwrap_err(), VmmError::HostDown);
        assert_eq!(host.destroy(vm), Err(VmmError::HostDown));
        assert_eq!(host.rollback(vm), Err(VmmError::HostDown));
        assert_eq!(host.read_page(vm, 0), Err(VmmError::HostDown));
        assert_eq!(host.write_page(vm, 0, 1).unwrap_err(), VmmError::HostDown);
        assert_eq!(host.snapshot_domain(vm, "s").unwrap_err(), VmmError::HostDown);
        assert!(matches!(
            host.create_reference_image("x", GuestProfile::small()),
            Err(VmmError::HostDown)
        ));
    }

    #[test]
    fn revived_host_serves_fresh_clones() {
        let (mut host, image) = small_host();
        host.flash_clone(image).unwrap();
        host.crash();
        host.revive();
        assert!(host.is_alive());
        assert_eq!(host.live_domains(), 0);
        let (vm, _) = host.flash_clone(image).unwrap();
        assert_eq!(host.read_page(vm, 0).unwrap(), GuestProfile::boot_content(image.0, 0));
    }

    #[test]
    fn injected_clone_faults_are_consumed_per_attempt() {
        let (mut host, image) = small_host();
        host.fail_next_clones(2);
        assert_eq!(host.pending_clone_faults, 2);
        assert_eq!(host.flash_clone(image), Err(VmmError::InjectedFault { op: "flash_clone" }));
        assert_eq!(host.flash_clone(image), Err(VmmError::InjectedFault { op: "flash_clone" }));
        assert_eq!(host.pending_clone_faults, 0);
        assert!(host.flash_clone(image).is_ok(), "budget exhausted, clone succeeds");
        // A failed attempt allocates nothing and mints no domain id.
        assert_eq!(host.live_domains(), 1);
        // Crashing clears any armed faults.
        host.fail_next_clones(5);
        host.crash();
        host.revive();
        assert_eq!(host.pending_clone_faults, 0);
    }

    #[test]
    fn memory_report_internally_consistent() {
        let (mut host, image) = small_host();
        for i in 0..5 {
            let (vm, _) = host.flash_clone(image).unwrap();
            host.apply_request(vm, i).unwrap();
        }
        let r = host.memory_report();
        assert_eq!(r.used_frames + r.free_frames, r.total_frames);
        assert_eq!(r.used_frames, r.image_frames + r.private_frames);
    }

    #[test]
    fn merge_collapses_identical_divergent_pages() {
        let (mut host, image) = small_host();
        let (a, _) = host.flash_clone(image).unwrap();
        let (b, _) = host.flash_clone(image).unwrap();
        // Both clones write the same "payload" into the same pfns — the
        // worm-infection pattern.
        for pfn in 0..50u64 {
            host.write_page(a, pfn, 0x1000 + pfn).unwrap();
            host.write_page(b, pfn, 0x1000 + pfn).unwrap();
        }
        let diverged = host.memory_report().used_frames;
        let report = host.scan_and_merge().unwrap();
        assert_eq!(report.merged_pages, 50, "one side of each pair remaps");
        assert_eq!(report.frames_reclaimed, 50);
        assert_eq!(host.memory_report().used_frames, diverged - 50);
        // Guest-visible contents unchanged.
        for pfn in 0..50u64 {
            assert_eq!(host.read_page(a, pfn).unwrap(), 0x1000 + pfn);
            assert_eq!(host.read_page(b, pfn).unwrap(), 0x1000 + pfn);
        }
    }

    #[test]
    fn merge_reshares_image_identical_pages() {
        let (mut host, image) = small_host();
        let (vm, _) = host.flash_clone(image).unwrap();
        // Dirty three pages, then write the image content back into two of
        // them (a freed buffer reverting to its pristine state).
        for pfn in [1u64, 2, 3] {
            host.write_page(vm, pfn, 0xD1147).unwrap();
        }
        for pfn in [1u64, 2] {
            host.write_page(vm, pfn, GuestProfile::boot_content(image.0, pfn)).unwrap();
        }
        let before = host.memory_report().used_frames;
        let report = host.scan_and_merge().unwrap();
        assert_eq!((report.merged_pages, report.frames_reclaimed), (2, 2));
        assert_eq!(host.memory_report().used_frames, before - 2);
        // Contents unchanged from the guest's point of view, and the two
        // are the image's pristine pages again.
        for pfn in [1u64, 2] {
            assert_eq!(host.read_page(vm, pfn).unwrap(), GuestProfile::boot_content(image.0, pfn));
        }
        assert_eq!(host.read_page(vm, 3).unwrap(), 0xD1147);
        assert_eq!(host.domain(vm).unwrap().space().delta_len(), 1);
        // A re-shared page faults again on the next write.
        assert!(host.write_page(vm, 1, 0x1).unwrap().faulted);
        // Idempotent when nothing reverted.
        assert_eq!(host.scan_and_merge().unwrap().merged_pages, 0);
    }

    #[test]
    fn merge_maps_an_image_page_at_another_pfn_without_a_row() {
        // Request 0 writes the word 0 to its first page, which is the boot
        // content of the first image's pfn 0.
        let (mut host, image) = small_host();
        assert_eq!(GuestProfile::boot_content(image.0, 0), 0);
        let (vm, _) = host.flash_clone(image).unwrap();
        let first = host.image(image).unwrap().profile().pages_for_request(0)[0];
        host.apply_request(vm, 0).unwrap();
        assert_eq!(host.read_page(vm, first).unwrap(), 0);
        let before = host.memory_report().used_frames;
        let report = host.scan_and_merge().unwrap();
        assert_eq!((report.merged_pages, report.frames_reclaimed), (1, 1));
        assert_eq!(host.memory_report().used_frames, before - 1);
        assert_eq!(host.frames().live_rows(), 0, "no row for an image page");
        let space = host.domain(vm).unwrap().space();
        assert_eq!(space.lookup(first), Ok(Pte::Image(0)));
        assert_eq!(host.read_page(vm, first).unwrap(), 0);
        assert!(
            host.write_page(vm, first, 0xABCD).unwrap().faulted,
            "read-only, like any image page"
        );
        // Domains of another boot image do not map this one's pages: theirs
        // merge with each other, through a row.
        let other = host.create_reference_image("other", GuestProfile::small()).unwrap();
        let strangers = [host.flash_clone(other).unwrap().0, host.flash_clone(other).unwrap().0];
        for stranger in strangers {
            host.write_page(stranger, 3, 0).unwrap();
        }
        assert_eq!(host.scan_and_merge().unwrap().merged_pages, 1);
        assert!(matches!(host.domain(strangers[1]).unwrap().space().lookup(3), Ok(Pte::Shared(_))));
        assert_eq!(host.frames().live_rows(), 1);
        assert_eq!(host.read_page(strangers[0], 3).unwrap(), 0);
    }

    #[test]
    fn writes_after_merge_fault_private_copies_again() {
        let (mut host, image) = small_host();
        let (a, _) = host.flash_clone(image).unwrap();
        let (b, _) = host.flash_clone(image).unwrap();
        host.write_page(a, 9, 0xC0DE).unwrap();
        host.write_page(b, 9, 0xC0DE).unwrap();
        assert_eq!(host.scan_and_merge().unwrap().merged_pages, 1);
        // The canonical owner's mapping was frozen too: its next write must
        // fault a private copy, not mutate the shared frame.
        let out = host.write_page(a, 9, 0xAAAA).unwrap();
        assert!(out.faulted, "merged page is read-only for both domains");
        assert_eq!(host.read_page(a, 9).unwrap(), 0xAAAA);
        assert_eq!(host.read_page(b, 9).unwrap(), 0xC0DE, "sibling keeps merged content");
    }

    #[test]
    fn merge_is_idempotent_and_skips_overhead_pages() {
        let (mut host, image) = small_host();
        let (a, _) = host.flash_clone(image).unwrap();
        let (b, _) = host.flash_clone(image).unwrap();
        // Overhead pages (pfn >= image pages) start identical (zero) across
        // domains but model per-domain hypervisor state: never merged.
        host.write_page(a, 4, 7).unwrap();
        host.write_page(b, 4, 7).unwrap();
        let first = host.scan_and_merge().unwrap();
        assert_eq!(first.merged_pages, 1, "only the guest-region duplicate merges");
        let second = host.scan_and_merge().unwrap();
        assert_eq!(second.merged_pages, 0, "second pass finds nothing");
        assert_eq!(second.frames_reclaimed, 0);
        let r = host.memory_report();
        // The merged frame is shared between the two domains (private in
        // neither map), so only the per-domain overhead stays private.
        assert_eq!(r.private_frames, 2 * 16, "overhead stays private per domain");
        assert_eq!(r.used_frames, r.image_frames + r.private_frames + 1, "one merged frame");
    }

    #[test]
    fn sharing_ratio_grows_with_clones_and_merging() {
        let (mut host, image) = small_host();
        let mut vms = Vec::new();
        for _ in 0..4 {
            let (vm, _) = host.flash_clone(image).unwrap();
            vms.push(vm);
        }
        let fresh = host.sharing_report();
        assert_eq!(fresh.logical_pages, 4 * (8_192 + 16));
        assert!(fresh.ratio() > 1.0, "CoW sharing alone beats 1x");
        for &vm in &vms {
            for pfn in 0..64u64 {
                host.write_page(vm, pfn, 0xBEEF + pfn).unwrap();
            }
        }
        let diverged = host.sharing_report();
        assert!(diverged.ratio() < fresh.ratio(), "divergence costs sharing");
        host.scan_and_merge().unwrap();
        let merged = host.sharing_report();
        assert!(merged.ratio() > diverged.ratio(), "merging recovers sharing");
        assert!(merged.ratio() > 1.0);
    }

    #[test]
    fn merge_on_dead_host_is_rejected() {
        let (mut host, _) = small_host();
        host.crash();
        assert!(matches!(host.scan_and_merge(), Err(VmmError::HostDown)));
    }
}
