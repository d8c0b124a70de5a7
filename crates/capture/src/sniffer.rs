//! The sniffer: a tap that dissects and buffers every packet at a node.

use crate::filter::Filter;
use crate::record::PacketRecord;
use turb_netsim::{NodeId, Simulation, Tap, TapEvent, TapId};

/// A capture buffer. As a [`Tap`] it dissects and keeps every packet
/// crossing its node.
#[derive(Debug, Default, Clone)]
pub struct Capture {
    records: Vec<PacketRecord>,
    /// Packets offered to the tap, including ones a capture filter
    /// rejected; `records.len()` is what was kept.
    sniffed: u64,
}

impl Capture {
    /// All records in capture order.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Append a record directly — used when rebuilding a capture from
    /// a pcap file or a synthetic trace rather than a live tap.
    pub fn push_record(&mut self, record: PacketRecord) {
        self.records.push(record);
        self.sniffed += 1;
    }

    /// Packets the tap observed, whether or not they were kept.
    pub fn sniffed(&self) -> u64 {
        self.sniffed
    }

    /// Packets observed but rejected by the capture filter.
    pub fn filtered_out(&self) -> u64 {
        self.sniffed - self.records.len() as u64
    }

    /// Harvest capture counters into `registry` under `component`.
    pub fn collect_metrics(&self, component: &str, registry: &mut turb_obs::MetricsRegistry) {
        registry.counter_add("capture_sniffed_total", component, self.sniffed);
        registry.counter_add(
            "capture_records_total",
            component,
            self.records.len() as u64,
        );
        registry.counter_add("capture_filtered_out_total", component, self.filtered_out());
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records matching a display filter, in capture order.
    pub fn filtered(&self, filter: &Filter) -> Vec<&PacketRecord> {
        self.records.iter().filter(|r| filter.matches(r)).collect()
    }

    /// Capture timestamps (seconds) of matching records.
    pub fn times(&self, filter: &Filter) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| filter.matches(r))
            .map(PacketRecord::time_secs)
            .collect()
    }

    /// Wire lengths (bytes, Ethernet framing included — the sizes the
    /// paper reports) of matching records.
    pub fn wire_lengths(&self, filter: &Filter) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| filter.matches(r))
            .map(|r| r.wire_len as f64)
            .collect()
    }

    /// Interarrival gaps (seconds) between consecutive matching records.
    pub fn interarrivals(&self, filter: &Filter) -> Vec<f64> {
        // Stream directly off the records instead of materialising the
        // timestamp vector first; this runs once per filter per figure.
        let mut gaps = Vec::new();
        let mut prev: Option<f64> = None;
        for r in self.records.iter().filter(|r| filter.matches(r)) {
            let t = r.time_secs();
            if let Some(p) = prev {
                gaps.push(t - p);
            }
            prev = Some(t);
        }
        gaps
    }
}

impl Tap for Capture {
    fn observe(&mut self, ev: &TapEvent<'_>) {
        self.sniffed += 1;
        self.records
            .push(PacketRecord::dissect(ev.time, ev.direction, ev.packet));
    }
}

/// Attaches capture taps to simulated nodes.
pub struct Sniffer;

impl Sniffer {
    /// Start capturing at `node` (both directions, like Ethereal on the
    /// paper's client machine). The simulation owns the capture while
    /// it runs; after the run, `sim.take_tap::<Capture>(id)` hands it
    /// back.
    pub fn attach(sim: &mut Simulation, node: NodeId) -> TapId {
        // Pre-sized for a typical streaming run, so the record vector
        // doesn't regrow a dozen times while the clip plays.
        let capture = Capture {
            records: Vec::with_capacity(4096),
            sniffed: 0,
        };
        sim.add_tap(node, Box::new(capture))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::Ipv4Addr;
    use turb_netsim::prelude::*;
    use turb_netsim::sim::{Application, Ctx};

    struct Talker {
        peer: Ipv4Addr,
        sizes: Vec<usize>,
    }

    impl Application for Talker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(SimDuration::from_millis(10), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if let Some(size) = self.sizes.pop() {
                ctx.send_udp(5000, self.peer, 6000, Bytes::from(vec![0u8; size]));
                ctx.set_timer_after(SimDuration::from_millis(10), 0);
            }
        }
    }

    fn run_capture() -> Capture {
        let mut sim = Simulation::new(1);
        let a = sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("b", Ipv4Addr::new(10, 0, 0, 2));
        let (ab, ba) = sim.add_duplex(a, b, LinkConfig::ethernet_10m(SimDuration::from_millis(1)));
        sim.core_mut().node_mut(a).default_route = Some(ab);
        sim.core_mut().node_mut(b).default_route = Some(ba);
        let capture = Sniffer::attach(&mut sim, b);
        sim.add_app(
            a,
            Box::new(Talker {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                sizes: vec![100, 2000, 300],
            }),
            None,
            false,
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        sim.take_tap(capture)
    }

    #[test]
    fn captures_arrivals_including_fragments() {
        let capture = run_capture();
        // 300 and 100 bytes unfragmented; 2000 bytes = 2 fragments;
        // plus the ICMP port-unreachables b sends back (Tx direction).
        let rx_udp = capture.filtered(&Filter::Udp.and(Filter::direction_rx()));
        assert_eq!(rx_udp.len(), 4);
        let frags: Vec<_> = rx_udp.iter().filter(|r| r.is_fragment()).collect();
        assert_eq!(frags.len(), 2);
        // Tx records exist too (the sniffer sees both directions).
        assert!(!capture.filtered(&Filter::direction_tx()).is_empty());
    }

    #[test]
    fn interarrivals_reflect_the_send_pacing() {
        let capture = run_capture();
        // First packet of each datagram arrives ≈10 ms apart.
        let filter = Filter::Udp
            .and(Filter::direction_rx())
            .and(Filter::Not(Box::new(Filter::ContinuationFragments)));
        let gaps = capture.interarrivals(&filter);
        assert_eq!(gaps.len(), 2);
        for gap in gaps {
            assert!((gap - 0.010).abs() < 0.005, "gap = {gap}");
        }
    }

    #[test]
    fn wire_lengths_include_ethernet_header() {
        let capture = run_capture();
        let lens = capture.wire_lengths(&Filter::Udp.and(Filter::direction_rx()));
        // 100B payload → 100+8+20+14 = 142 on the wire.
        assert!(lens.contains(&142.0), "lens = {lens:?}");
    }
}
