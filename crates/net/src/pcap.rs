//! Libpcap-format trace export/import.
//!
//! Farm traffic is written as standard `.pcap` files (LINKTYPE_RAW: each
//! record is a bare IPv4 packet) with nanosecond stamps, opened in
//! Wireshark or tcpdump and read back by a replay — the lingua franca for
//! the analysis workflows a honeyfarm feeds. The reader also takes the
//! older microsecond format, which tcpdump writes on a raw-IP interface.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::NetError;
use crate::packet::Packet;

/// Libpcap magic, nanosecond stamps, little-endian: what [`write_pcap`]
/// writes.
const MAGIC_NANOS: u32 = 0xA1B2_3C4D;
/// Libpcap magic, microsecond stamps, little-endian.
const MAGIC_MICROS: u32 = 0xA1B2_C3D4;
/// LINKTYPE_RAW: packets start at the IP header.
const LINKTYPE_RAW: u32 = 101;
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// One captured record: a nanosecond timestamp and a packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapRecord {
    /// Nanoseconds since the epoch (virtual time in our use).
    pub nanos: u64,
    /// The packet.
    pub packet: Packet,
}

/// Writes a nanosecond pcap file containing `records`.
///
/// # Errors
///
/// Propagates I/O errors from `w`; a stamp past the format's 32-bit
/// seconds field is `InvalidInput`.
pub fn write_pcap<W: std::io::Write>(w: &mut W, records: &[PcapRecord]) -> std::io::Result<()> {
    w.write_all(&MAGIC_NANOS.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&65_535u32.to_le_bytes())?; // snaplen
    w.write_all(&LINKTYPE_RAW.to_le_bytes())?;
    for r in records {
        let secs = u32::try_from(r.nanos / NANOS_PER_SEC).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "pcap: stamp past 2^32 s")
        })?;
        let wire = r.packet.wire();
        w.write_all(&secs.to_le_bytes())?;
        w.write_all(&((r.nanos % NANOS_PER_SEC) as u32).to_le_bytes())?;
        w.write_all(&(wire.len() as u32).to_le_bytes())?; // incl_len
        w.write_all(&(wire.len() as u32).to_le_bytes())?; // orig_len
        w.write_all(wire)?;
    }
    Ok(())
}

fn read_u32(buf: &[u8], at: usize) -> Result<u32, NetError> {
    let end = at.saturating_add(4);
    let bytes = buf.get(at..end).and_then(|b| b.try_into().ok());
    bytes.map(u32::from_le_bytes).ok_or(NetError::Truncated {
        layer: "pcap",
        need: end,
        have: buf.len(),
    })
}

/// Parses a little-endian LINKTYPE_RAW pcap byte buffer with nanosecond
/// stamps (what [`write_pcap`] writes) or microsecond ones, keeping the
/// records in file order. The header's zone, accuracy and snap-length
/// fields are not read.
///
/// # Errors
///
/// Returns [`NetError`] for bad magic, an unsupported version or link type,
/// a sub-second field of a whole second or more, a record cut short of its
/// original length or longer than its packet, truncated records, or
/// unparseable packets.
pub fn parse_pcap(buf: &[u8]) -> Result<Vec<PcapRecord>, NetError> {
    let nanos_per_unit = match read_u32(buf, 0)? {
        MAGIC_NANOS => 1,
        MAGIC_MICROS => 1_000,
        magic => {
            return Err(NetError::Unsupported {
                layer: "pcap",
                what: "magic (need LE nanosecond or microsecond pcap)",
                value: magic,
            })
        }
    };
    let version = read_u32(buf, 4)?; // major 2, minor 4
    if version != 2 | 4 << 16 {
        return Err(NetError::Unsupported { layer: "pcap", what: "version", value: version });
    }
    let linktype = read_u32(buf, 20)?;
    if linktype != LINKTYPE_RAW {
        return Err(NetError::Unsupported { layer: "pcap", what: "link type", value: linktype });
    }
    let mut records = Vec::new();
    let mut at = 24;
    while at < buf.len() {
        let (record, next) = parse_record(buf, at, nanos_per_unit)?;
        records.push(record);
        at = next;
    }
    Ok(records)
}

/// Parses the record starting at `at`, returning it and the offset of the
/// next record. All offset arithmetic saturates: a record header claiming
/// an absurd `incl_len` produces [`NetError::Truncated`], never a
/// wrap-around read.
fn parse_record(
    buf: &[u8],
    at: usize,
    nanos_per_unit: u64,
) -> Result<(PcapRecord, usize), NetError> {
    let secs = u64::from(read_u32(buf, at)?);
    let frac = u64::from(read_u32(buf, at + 4)?);
    if frac * nanos_per_unit >= NANOS_PER_SEC {
        return Err(NetError::Unsupported {
            layer: "pcap",
            what: "sub-second stamp of a second or more",
            value: frac as u32,
        });
    }
    let incl_len = read_u32(buf, at + 8)? as usize;
    let orig_len = read_u32(buf, at + 12)? as usize;
    let data_at = at + 16; // `read_u32(buf, at + 12)` proved at + 16 is in-bounds.
    let end = data_at.saturating_add(incl_len);
    let data = buf.get(data_at..end).ok_or(NetError::Truncated {
        layer: "pcap",
        need: end,
        have: buf.len(),
    })?;
    let packet = Packet::parse(data)?;
    // A LINKTYPE_RAW record is one whole packet: no link padding after its
    // IPv4 total length, no snap-length cut before it.
    if packet.len() != incl_len || orig_len != incl_len {
        return Err(NetError::BadLength { layer: "pcap", claimed: orig_len, actual: packet.len() });
    }
    Ok((PcapRecord { nanos: secs * NANOS_PER_SEC + frac * nanos_per_unit, packet }, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn records() -> Vec<PcapRecord> {
        let a = Ipv4Addr::new(6, 6, 6, 6);
        let b = Ipv4Addr::new(10, 1, 0, 5);
        vec![
            PcapRecord {
                nanos: 1_500_000_017,
                packet: PacketBuilder::new(a, b).tcp_syn(4444, 445),
            },
            PcapRecord {
                nanos: 2_000_000_000,
                packet: PacketBuilder::new(a, b).udp(53, 53, b"query"),
            },
            PcapRecord {
                nanos: 2_999_999_999,
                packet: PacketBuilder::new(b, a).icmp_echo(7, 1, b"pong"),
            },
        ]
    }

    fn written(records: &[PcapRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_pcap(&mut buf, records).unwrap();
        buf
    }

    #[test]
    fn roundtrip() {
        let recs = records();
        let buf = written(&recs);
        assert_eq!(&buf[..4], &MAGIC_NANOS.to_le_bytes());
        assert_eq!(parse_pcap(&buf).unwrap(), recs);
    }

    #[test]
    fn a_microsecond_file_loads_at_whole_microseconds() {
        let recs: Vec<PcapRecord> = records()
            .into_iter()
            .map(|r| PcapRecord { nanos: r.nanos / 1_000 * 1_000, ..r })
            .collect();
        let mut buf = written(&recs);
        buf[..4].copy_from_slice(&MAGIC_MICROS.to_le_bytes());
        let mut at = 24;
        for r in &recs {
            let micros = (r.nanos % NANOS_PER_SEC / 1_000) as u32;
            buf[at + 4..at + 8].copy_from_slice(&micros.to_le_bytes());
            at += 16 + r.packet.wire().len();
        }
        assert_eq!(parse_pcap(&buf).unwrap(), recs);
    }

    #[test]
    fn a_sub_second_field_of_a_whole_second_is_refused_under_either_magic() {
        for (magic, second) in [(MAGIC_NANOS, 1_000_000_000u32), (MAGIC_MICROS, 1_000_000)] {
            let mut buf = written(&records()[..1]);
            buf[..4].copy_from_slice(&magic.to_le_bytes());
            buf[28..32].copy_from_slice(&(second - 1).to_le_bytes());
            assert!(parse_pcap(&buf).is_ok());
            buf[28..32].copy_from_slice(&second.to_le_bytes());
            assert!(matches!(
                parse_pcap(&buf).unwrap_err(),
                NetError::Unsupported { what, value, .. } if what.contains("sub-second") && value == second
            ));
        }
    }

    #[test]
    fn a_record_cut_short_of_its_original_length_is_refused() {
        let mut buf = written(&records()[..1]);
        buf[36..40].copy_from_slice(&4_000u32.to_le_bytes());
        assert!(matches!(
            parse_pcap(&buf).unwrap_err(),
            NetError::BadLength { claimed: 4_000, .. }
        ));
    }

    #[test]
    fn a_record_longer_than_its_packet_is_refused() {
        // Grow the first record by the whole second one: its packet parses
        // with the second as trailing bytes, which must not be skipped.
        let recs = records();
        let mut buf = written(&recs[..2]);
        let len = (recs[0].packet.len() + 16 + recs[1].packet.len()) as u32;
        buf[32..36].copy_from_slice(&len.to_le_bytes());
        buf[36..40].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(parse_pcap(&buf).unwrap_err(), NetError::BadLength { layer: "pcap", .. }));
    }

    #[test]
    fn a_stamp_past_the_seconds_field_is_a_write_error() {
        let mut recs = records();
        recs[0].nanos = (u64::from(u32::MAX) + 1) * NANOS_PER_SEC;
        let err = write_pcap(&mut Vec::new(), &recs).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn header_fields_are_standard() {
        let buf = written(&[]);
        assert_eq!(buf.len(), 24, "global header only");
        assert_eq!(u16::from_le_bytes([buf[4], buf[5]]), 2);
        assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), 4);
        assert_eq!(u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]), 101);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(parse_pcap(&[]).is_err());
        let buf = written(&records());
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(
            matches!(parse_pcap(&bad).unwrap_err(), NetError::Unsupported { what, .. } if what.contains("magic"))
        );
        // Wrong link type.
        let mut badlink = buf.clone();
        badlink[20] = 1; // LINKTYPE_ETHERNET
        assert!(matches!(
            parse_pcap(&badlink).unwrap_err(),
            NetError::Unsupported { what: "link type", .. }
        ));
        // Truncated record.
        assert!(parse_pcap(&buf[..buf.len() - 3]).is_err());
    }

    #[test]
    fn truncation_at_every_boundary_is_an_error_not_a_panic() {
        let recs = records();
        let buf = written(&recs);
        // Cuts at the header edge and at record edges are complete files;
        // every other prefix must fail cleanly (no panic, no wrap-around).
        let mut boundaries = vec![24];
        for r in &recs {
            boundaries.push(boundaries.last().unwrap() + 16 + r.packet.wire().len());
        }
        for cut in 0..buf.len() {
            let result = parse_pcap(&buf[..cut]);
            if boundaries.contains(&cut) {
                assert_eq!(
                    result.unwrap().len(),
                    boundaries.iter().filter(|&&b| b <= cut).count() - 1
                );
            } else {
                assert!(result.is_err(), "cut at {cut} parsed");
            }
        }
    }

    #[test]
    fn absurd_incl_len_is_truncation_not_overflow() {
        let mut buf = written(&records()[..1]);
        // Claim a record length that would overflow `data_at + incl_len`.
        buf[24 + 8..24 + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        buf[24 + 12..24 + 16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(parse_pcap(&buf).unwrap_err(), NetError::Truncated { .. }));
    }
}
