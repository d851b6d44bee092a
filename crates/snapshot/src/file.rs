//! The snapshot container: header, named CRC-protected sections, sealed
//! trailer, and crash-consistent persistence.
//!
//! ## On-disk layout (all integers little-endian)
//!
//! ```text
//! header   magic "PTMKSNAP" (8) | version u32 | config_fingerprint u64 |
//!          section_count u32
//! section  name_len u32 | name bytes | payload_len u64 | crc32 u32 | payload
//! trailer  body_digest u64 (FNV-1a over everything above) | end magic "PSNAPEND"
//! ```
//!
//! Validation order on load: magic → version → structural bounds (any
//! shortfall is a [`SnapshotError::TornWrite`]) → trailer magic + digest →
//! per-section CRC. The digest check runs before section CRCs so a spliced
//! file with internally-consistent sections is still rejected.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::codec::{SnapReader, SnapWriter};
use crate::crc::{crc32, Fnv64};
use crate::error::SnapshotError;

/// Current snapshot format version. Version 2 switched disk sections from
/// raw block walks to chunk-manifest references (geometry + materialized
/// bits + overlay deltas); version 3 dropped the flow table's deferred
/// refresh list and counter; version 4 writes the gateway's flows and
/// bindings least recently active first, each with its due tick, and no
/// timer-wheel section; version 5 moves no byte of the layout but counts
/// explicit references only in the frame table (an image's frame list and
/// each stored p2m entry hold one, a clone's pristine page none), so a
/// version-4 table would free image frames under its clones; version 6
/// gives a private page no frame-table row — the table carries a count of
/// them, rows for shared frames only and no lifetime counters, and each p2m
/// entry is a kind and a word: the page's content, or the frame it shares;
/// version 7 writes each p2m as what it stores — whether it sits over its
/// image's frame list, the `(pfn, entry)` pairs that differ from that list,
/// then the entries past it — instead of one entry per pfn, and a domain
/// carries no lifecycle state and no provisioning tag; version 8 drops
/// the tallies nothing reads: the fault ledger (its rebind histogram stays,
/// as a farm field), the sharing and resident series, the pressure log,
/// the gateway's rate estimator, tunnel and route-table statistics, per-disk
/// read/write counts, a host's crash tallies and a tunnel fault's latency;
/// version 9 writes a flow as its key, its initiator and its expiry stamp,
/// without first/last-seen times or packet and byte counts; version 10
/// drops the tallies that repeat a counter or that only tests read (the
/// flow table's, binder's, DNS proxy's and host's lifetime counts, the DNS
/// TTL, the farm's merge totals and its copy of the fault plan's
/// clone-failure probability, each shard's last event time and horizon
/// flag) and the `meta` section, whose facts the config fingerprint holds;
/// version 11 writes a histogram without its precision, which every
/// histogram shares; version 12 writes an image as its profile — no
/// frame-table row per page and no frame list, a boot image's disk as the
/// indexes of its materialized chunk slots without the geometry its profile
/// and the host give, a forensic snapshot as its boot image and the pages
/// it froze — and a p2m entry's kind as private, shared or image page, with
/// the total page count (private pages and boot images' pages) beside the
/// rows, and drops a domain's read and write tallies, which nothing read.
/// Older files are rejected rather than misparsed.
pub(crate) const SNAPSHOT_VERSION: u32 = 12;

const MAGIC: &[u8; 8] = b"PTMKSNAP";
const END_MAGIC: &[u8; 8] = b"PSNAPEND";

/// One named, CRC-protected section.
#[derive(Clone, Debug)]
pub struct Section {
    /// Section name (e.g. `"sim.rng"`, `"gateway.bindings"`).
    pub name: String,
    /// Encoded payload bytes.
    pub payload: Vec<u8>,
}

/// An in-memory snapshot: a config fingerprint plus ordered named sections.
#[derive(Clone, Debug, Default)]
pub struct SnapshotFile {
    /// Fingerprint of the configuration the snapshot was taken under;
    /// restore refuses to resume under a different fingerprint.
    pub config_fingerprint: u64,
    /// Ordered sections.
    pub sections: Vec<Section>,
}

impl SnapshotFile {
    /// Starts an empty snapshot bound to a config fingerprint.
    #[must_use]
    pub fn new(config_fingerprint: u64) -> Self {
        SnapshotFile { config_fingerprint, sections: Vec::new() }
    }

    /// Appends a section.
    pub fn push(&mut self, name: &str, payload: Vec<u8>) {
        self.sections.push(Section { name: name.to_string(), payload });
    }

    /// Looks up a section payload by name.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::MissingSection`] when absent.
    pub fn section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.payload.as_slice())
            .ok_or_else(|| SnapshotError::MissingSection { section: name.to_string() })
    }

    /// Names of all sections, in file order.
    #[must_use]
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.name.as_str()).collect()
    }

    /// Serializes the snapshot to its on-disk byte form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u32(SNAPSHOT_VERSION);
        w.u64(self.config_fingerprint);
        w.u32(self.sections.len() as u32);
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&w.into_bytes());
        for section in &self.sections {
            let mut s = SnapWriter::new();
            s.u32(section.name.len() as u32);
            body.extend_from_slice(&s.into_bytes());
            body.extend_from_slice(section.name.as_bytes());
            let mut meta = SnapWriter::new();
            meta.u64(section.payload.len() as u64);
            meta.u32(crc32(&section.payload));
            body.extend_from_slice(&meta.into_bytes());
            body.extend_from_slice(&section.payload);
        }
        let mut digest = Fnv64::new();
        digest.update(&body);
        let mut out = body;
        out.extend_from_slice(&digest.finish().to_le_bytes());
        out.extend_from_slice(END_MAGIC);
        out
    }

    /// Parses and fully validates an on-disk byte form.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`]; every integrity defect maps to a distinct
    /// variant, and no partially-validated snapshot is ever returned.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotFile, SnapshotError> {
        // Magic.
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::TornWrite {
                len: bytes.len(),
                needed: MAGIC.len() + 16 + END_MAGIC.len(),
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&bytes[..8]);
            return Err(SnapshotError::BadMagic { found });
        }

        // Fixed header.
        let header_end = MAGIC.len() + 4 + 8 + 4;
        if bytes.len() < header_end {
            return Err(SnapshotError::TornWrite { len: bytes.len(), needed: header_end });
        }
        let mut r = SnapReader::new(&bytes[MAGIC.len()..header_end], "snapshot header");
        let version = r.u32().map_err(|_| torn(bytes.len(), header_end))?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let config_fingerprint = r.u64().map_err(|_| torn(bytes.len(), header_end))?;
        let section_count = r.u32().map_err(|_| torn(bytes.len(), header_end))? as usize;

        // Walk the section table structurally first, recording extents.
        let mut pos = header_end;
        let mut extents = Vec::with_capacity(section_count);
        for _ in 0..section_count {
            let need = pos.saturating_add(4);
            if bytes.len() < need {
                return Err(torn(bytes.len(), need));
            }
            let name_len = u32::from_le_bytes(array_at(bytes, pos)?) as usize;
            pos += 4;
            let need = pos.saturating_add(name_len).saturating_add(12);
            if bytes.len() < need {
                return Err(torn(bytes.len(), need));
            }
            let name = String::from_utf8(bytes[pos..pos + name_len].to_vec())
                .map_err(|_| SnapshotError::Decode { context: "section name" })?;
            pos += name_len;
            let payload_len = u64::from_le_bytes(array_at(bytes, pos)?) as usize;
            pos += 8;
            let stored_crc = u32::from_le_bytes(array_at(bytes, pos)?);
            pos += 4;
            let need = pos.saturating_add(payload_len);
            if bytes.len() < need {
                return Err(torn(bytes.len(), need));
            }
            extents.push((name, pos, payload_len, stored_crc));
            pos += payload_len;
        }

        // Trailer: digest + end magic. A file cut anywhere before the end
        // magic is a torn write.
        let trailer_need = pos + 8 + END_MAGIC.len();
        if bytes.len() < trailer_need {
            return Err(torn(bytes.len(), trailer_need));
        }
        if &bytes[pos + 8..trailer_need] != END_MAGIC {
            return Err(torn(bytes.len(), trailer_need));
        }
        let stored_digest = u64::from_le_bytes(array_at(bytes, pos)?);
        let mut digest = Fnv64::new();
        digest.update(&bytes[..pos]);
        let computed = digest.finish();
        if stored_digest != computed {
            return Err(SnapshotError::DigestMismatch { stored: stored_digest, computed });
        }

        // Per-section CRCs.
        let mut sections = Vec::with_capacity(extents.len());
        for (name, start, len, stored_crc) in extents {
            let payload = &bytes[start..start + len];
            let computed = crc32(payload);
            if computed != stored_crc {
                return Err(SnapshotError::SectionCorrupt {
                    section: name,
                    stored: stored_crc,
                    computed,
                });
            }
            sections.push(Section { name, payload: payload.to_vec() });
        }

        Ok(SnapshotFile { config_fingerprint, sections })
    }

    /// Whole-file digest of the encoded form (stable identity of a snapshot).
    #[must_use]
    pub fn digest(&self) -> u64 {
        crate::crc::fnv1a64(&self.encode())
    }
}

fn torn(len: usize, needed: usize) -> SnapshotError {
    SnapshotError::TornWrite { len, needed }
}

/// The `N` bytes at `pos`; a file too short to hold them is torn.
fn array_at<const N: usize>(bytes: &[u8], pos: usize) -> Result<[u8; N], SnapshotError> {
    SnapReader::new(bytes.get(pos..).unwrap_or_default(), "snapshot container")
        .array()
        .map_err(|_| torn(bytes.len(), pos.saturating_add(N)))
}

/// Writes `bytes` to `path` crash-consistently: temp file in the same
/// directory, flush + fsync, atomic rename, then fsync of the directory so
/// the rename itself survives a crash. Readers observe either the previous
/// snapshot or the complete new one — never a torn intermediate.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] naming the failing operation.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot");
    let tmp = dir.join(format!(".{file_name}.tmp"));
    let mut f = fs::File::create(&tmp)
        .map_err(|e| SnapshotError::Io { op: "create temp", kind: e.kind() })?;
    f.write_all(bytes).map_err(|e| SnapshotError::Io { op: "write temp", kind: e.kind() })?;
    f.sync_all().map_err(|e| SnapshotError::Io { op: "fsync temp", kind: e.kind() })?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| SnapshotError::Io { op: "rename", kind: e.kind() })?;
    fs::File::open(&dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| SnapshotError::Io { op: "fsync dir", kind: e.kind() })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotFile {
        let mut snap = SnapshotFile::new(0xABCD_EF01_2345_6789);
        snap.push("alpha", vec![1, 2, 3, 4]);
        snap.push("beta", b"hello world".to_vec());
        snap.push("empty", Vec::new());
        snap
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample();
        let bytes = snap.encode();
        let back = SnapshotFile::decode(&bytes).unwrap();
        assert_eq!(back.config_fingerprint, snap.config_fingerprint);
        assert_eq!(back.section_names(), vec!["alpha", "beta", "empty"]);
        assert_eq!(back.section("beta").unwrap(), b"hello world");
        assert!(matches!(back.section("missing"), Err(SnapshotError::MissingSection { .. })));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = SnapshotFile::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::TornWrite { .. } | SnapshotError::BadMagic { .. }),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x01;
            assert!(SnapshotFile::decode(&evil).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn payload_flip_is_section_corrupt_when_digest_fixed() {
        // Flip a payload byte AND recompute the trailer digest: the
        // per-section CRC must still catch it.
        let snap = sample();
        let mut bytes = snap.encode();
        // Find the beta payload ("hello world") and flip one byte.
        let idx = bytes.windows(11).position(|w| w == b"hello world").unwrap();
        bytes[idx] ^= 0xFF;
        let body_len = bytes.len() - 8 - 8;
        let digest = crate::crc::fnv1a64(&bytes[..body_len]);
        bytes[body_len..body_len + 8].copy_from_slice(&digest.to_le_bytes());
        assert!(matches!(SnapshotFile::decode(&bytes), Err(SnapshotError::SectionCorrupt { .. })));
    }

    #[test]
    fn wrong_version_rejected() {
        // The previous format version and a future one: the version field
        // follows the 8-byte magic. The digest now mismatches too, but the
        // version is checked first, so an old file is never decoded.
        for found in [SNAPSHOT_VERSION - 1, 99] {
            let mut bytes = sample().encode();
            bytes[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                SnapshotFile::decode(&bytes).err(),
                Some(SnapshotError::VersionMismatch { found, expected: SNAPSHOT_VERSION })
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(SnapshotFile::decode(&bytes), Err(SnapshotError::BadMagic { .. })));
    }

    #[test]
    fn atomic_write_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("potemkin-snapshot-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("farm.snap");
        let snap = sample();
        write_atomic(&path, &snap.encode()).unwrap();
        let back = SnapshotFile::decode(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.section("alpha").unwrap(), &[1, 2, 3, 4]);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.digest(), b.digest());
        b.sections[0].payload[0] ^= 1;
        assert_ne!(a.digest(), b.digest());
    }
}
