//! Libpcap-format trace export/import.
//!
//! Farm traffic can be written as standard `.pcap` files (LINKTYPE_RAW:
//! each record is a bare IPv4 packet) and opened in Wireshark or tcpdump —
//! the lingua franca for the analysis workflows a honeyfarm feeds.

use crate::error::NetError;
use crate::packet::Packet;

/// Libpcap magic (microsecond timestamps, little-endian).
const MAGIC: u32 = 0xA1B2_C3D4;
/// LINKTYPE_RAW: packets start at the IP header.
const LINKTYPE_RAW: u32 = 101;

/// One captured record: a microsecond timestamp and a packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapRecord {
    /// Seconds since the epoch (virtual time in our use).
    pub ts_sec: u32,
    /// Microseconds within the second.
    pub ts_usec: u32,
    /// The packet.
    pub packet: Packet,
}

/// Writes a pcap file containing `records`.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_pcap<W: std::io::Write>(w: &mut W, records: &[PcapRecord]) -> std::io::Result<()> {
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&65_535u32.to_le_bytes())?; // snaplen
    w.write_all(&LINKTYPE_RAW.to_le_bytes())?;
    for r in records {
        let wire = r.packet.wire();
        w.write_all(&r.ts_sec.to_le_bytes())?;
        w.write_all(&r.ts_usec.to_le_bytes())?;
        w.write_all(&(wire.len() as u32).to_le_bytes())?; // incl_len
        w.write_all(&(wire.len() as u32).to_le_bytes())?; // orig_len
        w.write_all(wire)?;
    }
    Ok(())
}

fn read_u16(buf: &[u8], at: usize) -> Result<u16, NetError> {
    let end = at.checked_add(2).ok_or(NetError::Truncated {
        layer: "pcap",
        need: usize::MAX,
        have: buf.len(),
    })?;
    buf.get(at..end).map(|b| u16::from_le_bytes([b[0], b[1]])).ok_or(NetError::Truncated {
        layer: "pcap",
        need: end,
        have: buf.len(),
    })
}

fn read_u32(buf: &[u8], at: usize) -> Result<u32, NetError> {
    let end = at.checked_add(4).ok_or(NetError::Truncated {
        layer: "pcap",
        need: usize::MAX,
        have: buf.len(),
    })?;
    buf.get(at..end)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or(NetError::Truncated { layer: "pcap", need: end, have: buf.len() })
}

/// Parses a pcap byte buffer written by [`write_pcap`] (LINKTYPE_RAW,
/// little-endian, microsecond resolution).
///
/// # Errors
///
/// Returns [`NetError`] for bad magic, unsupported link types, truncated
/// records, or unparseable packets.
pub fn parse_pcap(buf: &[u8]) -> Result<Vec<PcapRecord>, NetError> {
    if read_u32(buf, 0)? != MAGIC {
        return Err(NetError::Unsupported {
            layer: "pcap",
            what: "magic (need LE microsecond pcap)",
            value: read_u32(buf, 0)?,
        });
    }
    let (major, minor) = (read_u16(buf, 4)?, read_u16(buf, 6)?);
    if (major, minor) != (2, 4) {
        return Err(NetError::Unsupported {
            layer: "pcap",
            what: "version",
            value: u32::from(major) << 16 | u32::from(minor),
        });
    }
    let linktype = read_u32(buf, 20)?;
    if linktype != LINKTYPE_RAW {
        return Err(NetError::Unsupported { layer: "pcap", what: "link type", value: linktype });
    }
    let mut records = Vec::new();
    let mut at = 24;
    while at < buf.len() {
        let (record, next) = parse_record(buf, at)?;
        records.push(record);
        at = next;
    }
    Ok(records)
}

/// Parses the record starting at `at`, returning it and the offset of the
/// next record. All offset arithmetic is overflow-checked: a record header
/// claiming an absurd `incl_len` produces [`NetError::Truncated`], never a
/// wrap-around read.
fn parse_record(buf: &[u8], at: usize) -> Result<(PcapRecord, usize), NetError> {
    let ts_sec = read_u32(buf, at)?;
    let ts_usec = read_u32(buf, at + 4)?;
    let incl_len = read_u32(buf, at + 8)? as usize;
    let data_at = at + 16; // `read_u32(buf, at + 8)` proved at + 12 is in-bounds.
    let end =
        data_at.checked_add(incl_len).filter(|&e| e <= buf.len()).ok_or(NetError::Truncated {
            layer: "pcap",
            need: data_at.saturating_add(incl_len),
            have: buf.len(),
        })?;
    let packet = Packet::parse(&buf[data_at..end])?;
    Ok((PcapRecord { ts_sec, ts_usec, packet }, end))
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
                ts_sec: 1,
                ts_usec: 500_000,
                packet: PacketBuilder::new(a, b).tcp_syn(4444, 445),
            },
            PcapRecord {
                ts_sec: 2,
                ts_usec: 0,
                packet: PacketBuilder::new(a, b).udp(53, 53, b"query"),
            },
            PcapRecord {
                ts_sec: 2,
                ts_usec: 999_999,
                packet: PacketBuilder::new(b, a).icmp_echo(7, 1, b"pong"),
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let recs = records();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &recs).unwrap();
        assert_eq!(&buf[..4], &MAGIC.to_le_bytes());
        let parsed = parse_pcap(&buf).unwrap();
        assert_eq!(parsed, recs);
    }

    #[test]
    fn header_fields_are_standard() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[]).unwrap();
        assert_eq!(buf.len(), 24, "global header only");
        assert_eq!(u16::from_le_bytes([buf[4], buf[5]]), 2);
        assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), 4);
        assert_eq!(u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]), 101);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(parse_pcap(&[]).is_err());
        let mut buf = Vec::new();
        write_pcap(&mut buf, &records()).unwrap();
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
        let mut buf = Vec::new();
        write_pcap(&mut buf, &recs).unwrap();
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
        let mut buf = Vec::new();
        write_pcap(&mut buf, &records()[..1]).unwrap();
        // Claim a record length that would overflow `data_at + incl_len`.
        buf[24 + 8..24 + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(parse_pcap(&buf).unwrap_err(), NetError::Truncated { .. }));
    }
}
