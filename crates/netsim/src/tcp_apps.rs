//! Ready-made TCP applications: a greedy bulk sender and its sink.
//!
//! The bulk sender is the classic "FTP flow" used as the reference
//! traffic in TCP-friendliness studies — exactly the comparator §VI's
//! proposed follow-up needs against the streaming players. Each side
//! keeps its own results; take it back after the run with
//! [`Simulation::take_app`].

use crate::link::NodeId;
use crate::node::AppId;
use crate::sim::{Application, Ctx, Simulation};
use crate::tcp::{TcpConfig, TcpDriver, TcpStats};
use crate::time::SimTime;
use std::net::Ipv4Addr;
use turb_wire::tcp::TcpSegment;

/// A greedy TCP sender: connects and pushes `total_bytes` as fast as
/// the window allows, then closes.
pub struct BulkSender {
    server: Ipv4Addr,
    server_port: u16,
    local_port: u16,
    total_bytes: u64,
    written: u64,
    driver: Option<TcpDriver>,
    config: TcpConfig,
    /// Connection stats as of the last segment or timer
    /// (`bytes_acked` is what arrived end to end).
    pub stats: TcpStats,
    /// When the transfer started (SYN sent).
    pub started_at: Option<SimTime>,
    /// When the transfer finished (all data acked), if it did.
    pub finished_at: Option<SimTime>,
}

impl BulkSender {
    fn fill(&mut self, ctx: &mut Ctx<'_>) {
        let Some(driver) = self.driver.as_mut() else {
            return;
        };
        // Keep the send buffer topped up with zero-filled chunks.
        while self.written < self.total_bytes && driver.conn.send_capacity() > 0 {
            let chunk = (self.total_bytes - self.written).min(16 * 1024) as usize;
            let chunk = chunk.min(driver.conn.send_capacity());
            let accepted = driver.write(ctx, &vec![0u8; chunk]);
            self.written += accepted as u64;
            if accepted == 0 {
                break;
            }
        }
        if self.written >= self.total_bytes {
            driver.close(ctx);
        }
        self.stats = driver.conn.stats();
        if self.stats.bytes_acked >= self.total_bytes && self.finished_at.is_none() {
            self.finished_at = Some(ctx.now());
        }
    }
}

impl Application for BulkSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.started_at = Some(ctx.now());
        self.driver = Some(TcpDriver::connect(
            ctx,
            self.local_port,
            self.server,
            self.server_port,
            self.config,
        ));
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, from: Ipv4Addr, segment: TcpSegment) {
        if let Some(driver) = self.driver.as_mut() {
            driver.on_segment(ctx, from, segment);
        }
        self.fill(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(driver) = self.driver.as_mut() {
            driver.on_timer(ctx, token);
        }
        self.fill(ctx);
    }
}

/// The matching sink: accepts one connection and drains it.
pub struct BulkReceiver {
    local_port: u16,
    config: TcpConfig,
    driver: Option<TcpDriver>,
    /// Bytes this side consumed.
    pub bytes_received: u64,
}

impl Application for BulkReceiver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.driver = Some(TcpDriver::listen(ctx, self.local_port, self.config));
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, from: Ipv4Addr, segment: TcpSegment) {
        if let Some(driver) = self.driver.as_mut() {
            driver.on_segment(ctx, from, segment);
            self.bytes_received += driver.conn.take_received().len() as u64;
            // Mirror the peer's close.
            if driver.conn.state() == crate::tcp::State::CloseWait {
                driver.close(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(driver) = self.driver.as_mut() {
            driver.on_timer(ctx, token);
        }
    }
}

/// Install a bulk TCP transfer of `total_bytes` from `sender_node` to
/// `receiver_node`. Returns the ids of the [`BulkSender`] and the
/// [`BulkReceiver`], in that order.
pub fn spawn_bulk_transfer(
    sim: &mut Simulation,
    sender_node: NodeId,
    receiver_node: NodeId,
    receiver_addr: Ipv4Addr,
    ports: (u16, u16),
    total_bytes: u64,
    config: TcpConfig,
) -> (AppId, AppId) {
    let (local_port, server_port) = ports;
    let receiver = BulkReceiver {
        local_port: server_port,
        config,
        driver: None,
        bytes_received: 0,
    };
    let receiver_app = sim.add_app(receiver_node, Box::new(receiver), None, false);
    sim.bind_tcp_port(receiver_node, server_port, receiver_app);
    let sender = BulkSender {
        server: receiver_addr,
        server_port,
        local_port,
        total_bytes,
        written: 0,
        driver: None,
        config,
        stats: TcpStats::default(),
        started_at: None,
        finished_at: None,
    };
    let sender_app = sim.add_app(sender_node, Box::new(sender), None, false);
    sim.bind_tcp_port(sender_node, local_port, sender_app);
    (sender_app, receiver_app)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;
    use crate::link::LinkConfig;
    use crate::prelude::*;

    /// Average goodput over the transfer in bit/s, if it finished.
    fn goodput_bps(sender: &BulkSender) -> Option<f64> {
        match (sender.started_at, sender.finished_at) {
            (Some(a), Some(b)) if b > a => {
                Some(sender.stats.bytes_acked as f64 * 8.0 / b.since(a).as_secs_f64())
            }
            _ => None,
        }
    }

    fn two_hosts(seed: u64, link: LinkConfig) -> (Simulation, NodeId, NodeId) {
        let mut sim = Simulation::new(seed);
        let a = sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("b", Ipv4Addr::new(10, 0, 0, 2));
        let (ab, ba) = sim.add_duplex(a, b, link);
        sim.core_mut().node_mut(a).default_route = Some(ab);
        sim.core_mut().node_mut(b).default_route = Some(ba);
        (sim, a, b)
    }

    #[test]
    fn bulk_transfer_completes_on_a_clean_link() {
        let (mut sim, a, b) = two_hosts(1, LinkConfig::ethernet_10m(SimDuration::from_millis(10)));
        let (tx, rx) = spawn_bulk_transfer(
            &mut sim,
            a,
            b,
            Ipv4Addr::new(10, 0, 0, 2),
            (40000, 8080),
            1_000_000,
            TcpConfig::default(),
        );
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(120));
        let sender = sim.take_app::<BulkSender>(tx);
        assert_eq!(sim.take_app::<BulkReceiver>(rx).bytes_received, 1_000_000);
        assert_eq!(sender.stats.bytes_acked, 1_000_000);
        let goodput = goodput_bps(&sender).expect("finished");
        // 10 Mbit/s link, 20 ms RTT: should get well above 1 Mbit/s
        // and below the line rate.
        assert!(goodput > 1_000_000.0, "goodput = {goodput}");
        assert!(goodput < 10_000_000.0, "goodput = {goodput}");
    }

    #[test]
    fn bulk_transfer_survives_loss() {
        let (mut sim, a, b) = two_hosts(2, LinkConfig::ethernet_10m(SimDuration::from_millis(10)));
        // 2 % loss in the data direction.
        let ab = turb_wire::ipv4::Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            turb_wire::ipv4::IpProtocol::Tcp,
            0,
            bytes::Bytes::new(),
        );
        let _ = ab;
        sim.core_mut().link_mut(crate::link::LinkId(0)).fault = FaultInjector::bernoulli(0.02);
        let (tx, rx) = spawn_bulk_transfer(
            &mut sim,
            a,
            b,
            Ipv4Addr::new(10, 0, 0, 2),
            (40000, 8080),
            500_000,
            TcpConfig::default(),
        );
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(600));
        let received = sim.take_app::<BulkReceiver>(rx).bytes_received;
        assert_eq!(received, 500_000, "reliable despite loss");
        let stats = sim.take_app::<BulkSender>(tx).stats;
        assert!(
            stats.fast_retransmits + stats.timeouts > 0,
            "losses must have triggered recovery: {stats:?}"
        );
    }

    #[test]
    fn two_flows_share_a_bottleneck_roughly_fairly() {
        // A slow shared link; two simultaneous transfers of equal size.
        let link = LinkConfig {
            rate_bps: 2_000_000,
            propagation: SimDuration::from_millis(15),
            queue_capacity: 32 * 1024,
            mtu: 1500,
        };
        let (mut sim, a, b) = two_hosts(3, link);
        let size = 2_000_000u64;
        let (tx1, _) = spawn_bulk_transfer(
            &mut sim,
            a,
            b,
            Ipv4Addr::new(10, 0, 0, 2),
            (40000, 8080),
            size,
            TcpConfig::default(),
        );
        let (tx2, _) = spawn_bulk_transfer(
            &mut sim,
            a,
            b,
            Ipv4Addr::new(10, 0, 0, 2),
            (40001, 8081),
            size,
            TcpConfig::default(),
        );
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(600));
        let mut goodput = |tx| goodput_bps(&sim.take_app::<BulkSender>(tx));
        let g1 = goodput(tx1).expect("flow 1 finished");
        let g2 = goodput(tx2).expect("flow 2 finished");
        let ratio = g1.max(g2) / g1.min(g2);
        assert!(ratio < 2.5, "unfair split: {g1} vs {g2}");
        // Combined they use most of the link.
        assert!(g1 + g2 > 1_000_000.0, "{g1} + {g2}");
    }

    #[test]
    fn transfer_is_deterministic() {
        let run = |seed: u64| -> (u64, Option<SimTime>) {
            let (mut sim, a, b) =
                two_hosts(seed, LinkConfig::ethernet_10m(SimDuration::from_millis(5)));
            let (tx, rx) = spawn_bulk_transfer(
                &mut sim,
                a,
                b,
                Ipv4Addr::new(10, 0, 0, 2),
                (40000, 8080),
                300_000,
                TcpConfig::default(),
            );
            sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(60));
            let received = sim.take_app::<BulkReceiver>(rx).bytes_received;
            (received, sim.take_app::<BulkSender>(tx).finished_at)
        };
        assert_eq!(run(7), run(7));
    }
}
