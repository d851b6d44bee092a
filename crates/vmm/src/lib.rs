//! A simulated virtual machine monitor implementing Potemkin's two core
//! mechanisms: **flash cloning** and **delta virtualization**.
//!
//! The paper (Vrable et al., SOSP 2005) modified Xen so that a honeypot VM
//! is not booted but *forked* from a live reference-image snapshot in
//! hundreds of milliseconds (flash cloning), and so that clone memory is
//! copy-on-write against that snapshot, making the marginal footprint of a
//! clone just the pages it dirties (delta virtualization). Those two
//! mechanisms are *bookkeeping* mechanisms — which machine frames exist,
//! which are shared, which faults copy what — and this crate performs the
//! identical bookkeeping over simulated frames, so memory-scaling and
//! clone-latency experiments reproduce the paper's curves without Xen or
//! physical x86 hardware (see DESIGN.md §5 for the substitution argument).
//!
//! # Architecture
//!
//! * `frame` — the machine frame table: allocation, reference counts,
//!   per-frame content words standing in for page contents.
//! * [`addrspace`] — per-domain pseudo-physical → machine maps with
//!   writable bits (the p2m table).
//! * `snapshot` — frozen reference images created by booting a guest
//!   profile once.
//! * `domain` — VM domains: lifecycle, memory reads/writes with CoW
//!   write faults, devices.
//! * `storage` — the content-addressed chunk store and the chunk
//!   manifests that are the only disk representation: delta
//!   virtualization for disks, as the frame table is for memory.
//! * `block` — copy-on-write virtual block devices as thin views over
//!   `storage` chunk manifests: base disks dedupe farm-wide through the
//!   shared store and materialize lazily on first guest read.
//! * `clone` — the flash-clone procedure and its per-stage timing, plus
//!   the boot-from-scratch and eager-full-copy baselines.
//! * [`cost`] — the latency cost model (calibrated to the paper's
//!   era; every constant is documented and overridable).
//! * [`guest`] — parameterized guest behaviour models (working sets,
//!   dirty rates, service dialogues, infection behaviour).
//! * [`host`] — a physical server: frame table + domains + images +
//!   memory accounting.
//!
//! # Examples
//!
//! ```
//! use potemkin_vmm::guest::GuestProfile;
//! use potemkin_vmm::host::Host;
//!
//! // A server with 65,536 frames (256 MiB at 4 KiB/page).
//! let mut host = Host::new(65_536);
//! let image = host.create_reference_image("winxp", GuestProfile::small()).unwrap();
//! let (vm, timing) = host.flash_clone(image).unwrap();
//! assert!(timing.total() < potemkin_sim::SimTime::from_secs(1));
//!
//! // The clone shares every page with the image until it writes.
//! let before = host.memory_report().private_frames;
//! host.write_page(vm, 0, 0xdead_beef).unwrap();
//! let after = host.memory_report().private_frames;
//! assert_eq!(after, before + 1, "first write to a shared page takes a CoW fault");
//! ```

#![warn(unreachable_pub)]

pub mod addrspace;
mod block;
mod clone;
pub mod cost;
mod domain;
mod error;
mod frame;
pub mod guest;
pub mod host;
mod memctl;
mod snapshot;
mod storage;

pub use block::{BaseDisk, CowDisk};
pub use clone::{CloneTiming, RetryPolicy};
pub use domain::DomainId;
pub use error::VmmError;
pub use frame::{FrameId, FrameTable};
pub use guest::GuestProfile;
pub use host::{Host, MemoryReport};
pub use memctl::{MemoryBudget, MergeReport, PressureEvent, SharingReport};
pub use snapshot::ImageId;
pub use storage::{
    ChunkHash, ChunkRef, Manifest, OverlayManifest, SharedChunkStore, StoreStats,
    DEFAULT_CHUNK_BLOCKS,
};
