//! Timestamped packet traces.

use potemkin_net::Packet;
use potemkin_sim::SimTime;

/// One packet at one virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival time.
    pub at: SimTime,
    /// The packet.
    pub packet: Packet,
}

/// A time-ordered sequence of packet events.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

/// Traffic-mix summary of a trace (see [`Trace::traffic_mix`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficMix {
    /// Total packets.
    pub(crate) packets: u64,
    /// Total bytes.
    pub(crate) bytes: u64,
    /// TCP connection-opening SYNs.
    pub tcp_syns: u64,
    /// Other TCP segments (incl. backscatter SYN-ACK/RST).
    pub tcp_other: u64,
    /// UDP datagrams.
    pub udp: u64,
    /// ICMP messages.
    pub icmp: u64,
    /// Unparsed transports.
    pub(crate) other: u64,
    /// Packets per destination port (TCP + UDP).
    pub(crate) port_counts: std::collections::BTreeMap<u16, u64>,
}

impl TrafficMix {
    /// The `n` most-probed destination ports, most popular first.
    #[must_use]
    pub fn top_ports(&self, n: usize) -> Vec<(u16, u64)> {
        let mut v: Vec<(u16, u64)> = self.port_counts.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
        v.truncate(n);
        v
    }
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event (kept unsorted until [`Trace::sort`] or a merge).
    pub fn push(&mut self, at: SimTime, packet: Packet) {
        self.events.push(TraceEvent { at, packet });
    }

    /// Sorts events by time (stable, so equal-time events keep generation
    /// order).
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }

    /// The events.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the trace, yielding events.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last event (`ZERO` when empty).
    #[cfg(test)]
    pub(crate) fn horizon(&self) -> SimTime {
        self.events.iter().map(|e| e.at).max().unwrap_or(SimTime::ZERO)
    }

    /// Packets per second over `[0, horizon]`: the measurement the
    /// generator tests check a trace against.
    #[cfg(test)]
    pub(crate) fn mean_rate(&self) -> f64 {
        let span = self.horizon().as_secs_f64();
        if span > 0.0 {
            self.len() as f64 / span
        } else {
            0.0
        }
    }

    /// Counts distinct source addresses.
    #[must_use]
    pub fn distinct_sources(&self) -> usize {
        let mut set: Vec<u32> = self.events.iter().map(|e| u32::from(e.packet.src())).collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }

    /// Counts distinct destination addresses.
    #[must_use]
    pub fn distinct_destinations(&self) -> usize {
        let mut set: Vec<u32> = self.events.iter().map(|e| u32::from(e.packet.dst())).collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }

    /// Summarizes the trace's traffic mix (protocol counts, top
    /// destination ports) — the deployment-report breakdown.
    #[must_use]
    pub fn traffic_mix(&self) -> TrafficMix {
        let mut mix = TrafficMix::default();
        for e in &self.events {
            mix.packets += 1;
            mix.bytes += e.packet.len() as u64;
            match e.packet.payload() {
                potemkin_net::PacketPayload::Tcp { header, .. } => {
                    if header.flags.syn && !header.flags.ack {
                        mix.tcp_syns += 1;
                    } else {
                        mix.tcp_other += 1;
                    }
                    *mix.port_counts.entry(header.dst_port).or_insert(0) += 1;
                }
                potemkin_net::PacketPayload::Udp { header, .. } => {
                    mix.udp += 1;
                    *mix.port_counts.entry(header.dst_port).or_insert(0) += 1;
                }
                potemkin_net::PacketPayload::Icmp(_) => mix.icmp += 1,
                potemkin_net::PacketPayload::Raw { .. } => mix.other += 1,
            }
        }
        mix
    }

    /// Writes the trace as a standard libpcap file (LINKTYPE_RAW), openable
    /// in Wireshark/tcpdump. Virtual time maps to the pcap timestamp.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_pcap<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let records: Vec<potemkin_net::pcap::PcapRecord> = self
            .events
            .iter()
            .map(|e| potemkin_net::pcap::PcapRecord {
                ts_sec: e.at.as_secs() as u32,
                ts_usec: (e.at.as_micros() % 1_000_000) as u32,
                packet: e.packet.clone(),
            })
            .collect();
        potemkin_net::pcap::write_pcap(w, &records)
    }

    /// Writes the trace in the line-oriented text format
    /// (`<nanoseconds> <hex wire bytes>` per event), so runs can be
    /// replayed across processes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        for e in &self.events {
            write!(w, "{} ", e.at.as_nanos())?;
            for b in e.packet.wire() {
                write!(w, "{b:02x}")?;
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Reads a trace previously written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed lines or unparseable packets,
    /// and propagates I/O errors from `r`.
    pub fn read_from<R: std::io::BufRead>(r: &mut R) -> std::io::Result<Trace> {
        use std::io::{Error, ErrorKind};
        let bad = |what: &str| Error::new(ErrorKind::InvalidData, what.to_string());
        let mut trace = Trace::new();
        let mut line = String::new();
        loop {
            line.clear();
            if r.read_line(&mut line)? == 0 {
                break;
            }
            if line.trim().is_empty() {
                continue;
            }
            let (nanos, hex) = line.split_once(' ').ok_or_else(|| bad("missing separator"))?;
            let hex = hex.trim_end();
            let nanos: u64 = nanos.parse().map_err(|_| bad("bad timestamp"))?;
            if !hex.len().is_multiple_of(2) {
                return Err(bad("odd hex length"));
            }
            let mut bytes = Vec::with_capacity(hex.len() / 2);
            for i in (0..hex.len()).step_by(2) {
                let byte =
                    u8::from_str_radix(&hex[i..i + 2], 16).map_err(|_| bad("bad hex digit"))?;
                bytes.push(byte);
            }
            let packet = Packet::parse(&bytes)
                .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
            trace.push(SimTime::from_nanos(nanos), packet);
        }
        trace.sort();
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use potemkin_net::PacketBuilder;
    use std::net::Ipv4Addr;

    fn pkt(src: u8, dst: u8) -> Packet {
        PacketBuilder::new(Ipv4Addr::new(1, 1, 1, src), Ipv4Addr::new(10, 0, 0, dst))
            .tcp_syn(1000, 80)
    }

    #[test]
    fn sort_orders_by_time() {
        let mut t = Trace::new();
        t.push(SimTime::from_secs(3), pkt(1, 1));
        t.push(SimTime::from_secs(1), pkt(2, 2));
        t.push(SimTime::from_secs(2), pkt(3, 3));
        t.sort();
        let times: Vec<u64> = t.events().iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn traffic_mix_classifies_packets() {
        let mut t = Trace::new();
        let a = Ipv4Addr::new(1, 1, 1, 1);
        let b = Ipv4Addr::new(10, 0, 0, 1);
        t.push(SimTime::ZERO, PacketBuilder::new(a, b).tcp_syn(1, 445));
        t.push(SimTime::ZERO, PacketBuilder::new(a, b).tcp_syn(2, 445));
        t.push(
            SimTime::ZERO,
            PacketBuilder::new(a, b).tcp_segment(
                3,
                80,
                potemkin_net::tcp::TcpFlags::RST,
                0,
                0,
                &[],
            ),
        );
        t.push(SimTime::ZERO, PacketBuilder::new(a, b).udp(4, 1434, b"x"));
        t.push(SimTime::ZERO, PacketBuilder::new(a, b).icmp_echo(1, 1, b"p"));
        let mix = t.traffic_mix();
        assert_eq!(mix.packets, 5);
        assert_eq!(mix.tcp_syns, 2);
        assert_eq!(mix.tcp_other, 1);
        assert_eq!(mix.udp, 1);
        assert_eq!(mix.icmp, 1);
        assert_eq!(mix.top_ports(1), vec![(445, 2)]);
        assert_eq!(mix.top_ports(10).len(), 3);
        assert!(mix.bytes > 0);
    }

    #[test]
    fn pcap_export_roundtrips_through_parser() {
        let mut t = Trace::new();
        t.push(SimTime::from_millis(1_500), pkt(1, 1));
        t.push(SimTime::from_secs(3), pkt(2, 2));
        let mut buf = Vec::new();
        t.write_pcap(&mut buf).unwrap();
        let records = potemkin_net::pcap::parse_pcap(&buf).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ts_sec, 1);
        assert_eq!(records[0].ts_usec, 500_000);
        assert_eq!(records[0].packet, t.events()[0].packet);
        assert_eq!(records[1].ts_sec, 3);
    }

    #[test]
    fn file_format_roundtrips() {
        let mut t = Trace::new();
        t.push(SimTime::from_millis(5), pkt(1, 1));
        t.push(SimTime::from_secs(2), pkt(2, 3));
        t.push(
            SimTime::from_nanos(17),
            PacketBuilder::new(Ipv4Addr::new(9, 9, 9, 9), Ipv4Addr::new(10, 0, 0, 1))
                .udp(53, 53, b"payload"),
        );
        t.sort();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let parsed = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(parsed.len(), t.len());
        for (a, b) in parsed.events().iter().zip(t.events()) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.packet, b.packet);
        }
    }

    #[test]
    fn file_format_rejects_garbage() {
        for bad in ["nonsense", "123 zz", "123 abc", "123 dead"] {
            let r = Trace::read_from(&mut bad.as_bytes());
            assert!(r.is_err(), "{bad:?} should fail");
        }
        // Empty input and blank lines are fine.
        assert_eq!(Trace::read_from(&mut "".as_bytes()).unwrap().len(), 0);
        assert_eq!(Trace::read_from(&mut "\n\n".as_bytes()).unwrap().len(), 0);
    }

    #[test]
    fn stats() {
        let mut t = Trace::new();
        assert_eq!(t.mean_rate(), 0.0);
        t.push(SimTime::from_secs(0), pkt(1, 1));
        t.push(SimTime::from_secs(5), pkt(1, 2));
        t.push(SimTime::from_secs(10), pkt(2, 1));
        assert_eq!(t.horizon(), SimTime::from_secs(10));
        assert!((t.mean_rate() - 0.3).abs() < 1e-9);
        assert_eq!(t.distinct_sources(), 2);
        assert_eq!(t.distinct_destinations(), 2);
    }
}
