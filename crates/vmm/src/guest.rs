//! Parameterized guest behaviour models.
//!
//! The real Potemkin ran stock OS images. What the experiments actually
//! depend on is *which pages a guest dirties when* (for the delta-
//! virtualization memory curves) and *how deep a service dialogue the guest
//! can sustain* (for the fidelity comparison against scripted low-
//! interaction responders). [`GuestProfile`] captures exactly those
//! decision-relevant behaviours; see DESIGN.md §5 for the substitution
//! argument.

use potemkin_snapshot::{snap_enum, snap_struct};

/// Transport of a listening service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServiceProto {
    /// TCP service.
    Tcp,
    /// UDP service.
    Udp,
}

snap_enum!(ServiceProto { Tcp = 0, Udp = 1 });

/// A network service the guest runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Service {
    /// Listening port.
    pub port: u16,
    /// Transport protocol.
    pub proto: ServiceProto,
    /// Number of request/response rounds an exploit of this service needs
    /// before its payload executes. A real guest sustains any depth; this
    /// field parameterizes the *attack*, and scripted low-interaction
    /// baselines fail when their scripted depth is smaller.
    pub exploit_depth: u8,
}

snap_struct!(Service { port, proto, exploit_depth });

/// Behavioural profile of a guest OS image.
///
/// # Examples
///
/// ```
/// use potemkin_vmm::guest::GuestProfile;
///
/// let p = GuestProfile::windows_server();
/// assert!(p.listens_on_tcp(445));
/// assert!(!p.listens_on_tcp(22));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GuestProfile {
    /// Total pseudo-physical memory in pages.
    pub memory_pages: u64,
    /// Virtual disk size in blocks.
    pub disk_blocks: u64,
    /// Content seed of the golden disk image. Images built from profiles
    /// with the same seed (and chunk geometry) share every base chunk in
    /// the farm-wide store — the disk-side sharing the paper's delta
    /// virtualization implies.
    pub disk_seed: u64,
    /// Pages dirtied while handling one inbound service request.
    pub request_touch_pages: u64,
    /// Pages dirtied when an exploit payload executes (infection).
    pub infection_touch_pages: u64,
    /// Background page-dirty rate once infected (pages/second) — an
    /// infected guest scans, logs, and allocates.
    pub infected_dirty_rate: f64,
    /// Disk blocks written when an exploit payload executes.
    pub infection_disk_blocks: u64,
    /// Listening services.
    pub services: Vec<Service>,
}

snap_struct!(GuestProfile {
    memory_pages,
    disk_blocks,
    disk_seed,
    request_touch_pages,
    infection_touch_pages,
    infected_dirty_rate,
    infection_disk_blocks,
    services,
});

impl GuestProfile {
    /// A tiny profile for unit tests (32 MiB of memory).
    #[must_use]
    pub fn small() -> Self {
        GuestProfile {
            memory_pages: 8_192,
            disk_blocks: 4_096,
            disk_seed: 0xD15C,
            request_touch_pages: 16,
            infection_touch_pages: 128,
            infected_dirty_rate: 64.0,
            infection_disk_blocks: 32,
            services: vec![
                Service { port: 80, proto: ServiceProto::Tcp, exploit_depth: 2 },
                Service { port: 445, proto: ServiceProto::Tcp, exploit_depth: 3 },
            ],
        }
    }

    /// A Windows-server-like profile (128 MiB, the paper's clone size).
    #[must_use]
    pub fn windows_server() -> Self {
        GuestProfile {
            memory_pages: 32_768,
            disk_blocks: 262_144,
            disk_seed: 0xD15C,
            request_touch_pages: 96,
            infection_touch_pages: 1_024,
            infected_dirty_rate: 256.0,
            infection_disk_blocks: 256,
            services: vec![
                Service { port: 135, proto: ServiceProto::Tcp, exploit_depth: 2 },
                Service { port: 139, proto: ServiceProto::Tcp, exploit_depth: 3 },
                Service { port: 445, proto: ServiceProto::Tcp, exploit_depth: 3 },
                Service { port: 80, proto: ServiceProto::Tcp, exploit_depth: 2 },
                Service { port: 1434, proto: ServiceProto::Udp, exploit_depth: 1 },
            ],
        }
    }

    /// A Linux-server-like profile (128 MiB).
    #[must_use]
    pub fn linux_server() -> Self {
        GuestProfile {
            memory_pages: 32_768,
            disk_blocks: 262_144,
            disk_seed: 0x11F5,
            request_touch_pages: 48,
            infection_touch_pages: 512,
            infected_dirty_rate: 128.0,
            infection_disk_blocks: 128,
            services: vec![
                Service { port: 22, proto: ServiceProto::Tcp, exploit_depth: 4 },
                Service { port: 25, proto: ServiceProto::Tcp, exploit_depth: 3 },
                Service { port: 80, proto: ServiceProto::Tcp, exploit_depth: 2 },
            ],
        }
    }

    /// Whether the guest listens on the given TCP port.
    #[must_use]
    pub fn listens_on_tcp(&self, port: u16) -> bool {
        self.services.iter().any(|s| s.port == port && s.proto == ServiceProto::Tcp)
    }

    /// Whether the guest listens on the given UDP port.
    #[must_use]
    pub fn listens_on_udp(&self, port: u16) -> bool {
        self.services.iter().any(|s| s.port == port && s.proto == ServiceProto::Udp)
    }

    fn spread(&self, seed: u64, count: u64) -> Vec<u64> {
        // Deterministic pseudo-random page selection (SplitMix64 stream).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
        let mut pages = Vec::with_capacity(count as usize);
        for _ in 0..count.min(self.memory_pages) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            pages.push(z % self.memory_pages);
        }
        pages
    }

    /// The (deterministic) set of pages dirtied while handling request
    /// number `request_idx`.
    #[must_use]
    pub(crate) fn pages_for_request(&self, request_idx: u64) -> Vec<u64> {
        self.spread(request_idx.wrapping_add(1), self.request_touch_pages)
    }

    /// The (deterministic) set of pages dirtied by an infection with the
    /// given seed.
    #[must_use]
    pub fn pages_for_infection(&self, seed: u64) -> Vec<u64> {
        self.spread(seed ^ 0xFEED_FACE_CAFE_BEEF, self.infection_touch_pages)
    }

    /// The image boot content word for a pseudo-physical page — every clone
    /// of the same image sees identical initial contents.
    #[must_use]
    pub fn boot_content(image_seed: u64, pfn: u64) -> u64 {
        image_seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(pfn.wrapping_mul(0xE703_7ED1_A0B4_28DB))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        for p in
            [GuestProfile::small(), GuestProfile::windows_server(), GuestProfile::linux_server()]
        {
            assert!(p.memory_pages > 0);
            assert!(p.request_touch_pages <= p.memory_pages);
            assert!(p.infection_touch_pages <= p.memory_pages);
            assert!(!p.services.is_empty());
        }
    }

    #[test]
    fn service_lookup() {
        let p = GuestProfile::windows_server();
        assert!(p.listens_on_tcp(445));
        assert!(p.listens_on_udp(1434));
        assert!(!p.listens_on_udp(445));
        assert!(!p.listens_on_tcp(1434));
    }

    #[test]
    fn request_pages_deterministic_and_bounded() {
        let p = GuestProfile::small();
        let a = p.pages_for_request(5);
        let b = p.pages_for_request(5);
        assert_eq!(a, b);
        assert_eq!(a.len() as u64, p.request_touch_pages);
        assert!(a.iter().all(|&pfn| pfn < p.memory_pages));
        let c = p.pages_for_request(6);
        assert_ne!(a, c, "different requests touch different pages");
    }

    #[test]
    fn infection_pages_differ_from_request_pages() {
        let p = GuestProfile::small();
        let inf = p.pages_for_infection(1);
        assert_eq!(inf.len() as u64, p.infection_touch_pages);
        assert_ne!(inf[..16], p.pages_for_request(1)[..]);
    }

    #[test]
    fn boot_content_varies_by_image_and_pfn() {
        let a = GuestProfile::boot_content(1, 0);
        let b = GuestProfile::boot_content(1, 1);
        let c = GuestProfile::boot_content(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, GuestProfile::boot_content(1, 0));
    }

    #[test]
    fn touch_counts_clamped_to_memory() {
        let mut p = GuestProfile::small();
        p.memory_pages = 4;
        p.request_touch_pages = 100;
        let pages = p.pages_for_request(0);
        assert_eq!(pages.len(), 4, "clamped to memory size");
    }
}
