//! Ablations of the design choices DESIGN.md calls out: access loss vs.
//! fragmentation goodput (§3.C, [FF99]), the bottleneck cap on the
//! RealServer burst and jitter vs. arrival spread (§3.F), RED vs.
//! drop-tail (§I), interleaving vs. app-layer burstiness (§3.G) and
//! independent vs. bursty loss. Each sweeps one knob at its own fixed
//! seed, independent of the corpus, and returns the table that
//! `turbulence figures` prints after §IV.

use bytes::Bytes;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use turb_media::{corpus, ClipPair, RateClass};
use turb_netsim::prelude::*;
use turbulence::{run_pair, PairRunConfig};

/// The high-rate pair of the Table 1 set at `index` (0-based).
fn high_pair(index: usize) -> ClipPair {
    corpus::table1()[index]
        .pair(RateClass::High)
        .expect("every Table 1 set has a high pair")
        .clone()
}

fn delivered_fraction(log: &turb_players::AppStatsLog, overhead: f64) -> f64 {
    let expected = log.clip.media_bytes() as f64 * overhead;
    log.bytes_total as f64 / expected
}

pub fn loss_vs_goodput() -> String {
    // Set 2 high: 307.2 Kbit/s WMP = 3-fragment datagrams; short clip.
    let pair = high_pair(1);

    let mut out = format!(
        "{:>6}  {:>12}  {:>12}  {:>22}\n",
        "loss", "Real frac", "WMP frac", "WMP amplification"
    );
    for loss in [0.0, 0.01, 0.03, 0.06, 0.10] {
        let mut config = PairRunConfig::new(31337, 2, pair.clone());
        config.access_loss = loss;
        let result = run_pair(&config);
        let real = delivered_fraction(&result.real, 1.08);
        let wmp = delivered_fraction(&result.wmp, 1.0);
        let amplification = if loss > 0.0 { (1.0 - wmp) / loss } else { 0.0 };
        let _ = writeln!(
            out,
            "{loss:>6.2}  {real:>12.3}  {wmp:>12.3}  {amplification:>22.2}"
        );
    }
    out
}

pub fn bottleneck_vs_beta() -> String {
    use turb_players::calibration::real_effective_ratio;
    let mut out = format!("{:>14}  {:>8}\n", "bottleneck", "beta");
    for bottleneck in [
        256_000u64, 512_000, 1_000_000, 1_544_000, 3_000_000, 10_000_000,
    ] {
        let beta = real_effective_ratio(636.9, bottleneck);
        let _ = writeln!(out, "{bottleneck:>14}  {beta:>8.2}");
    }
    out
}

pub fn jitter_vs_interarrival_spread() -> String {
    let mut out = format!("{:>12}  {:>16}\n", "jitter std", "arrival gap std");
    for jitter in [0u64, 2, 5, 10, 20] {
        let _ = writeln!(
            out,
            "{:>10}ms  {:>14.1}ms",
            jitter,
            arrival_gap_std(jitter) * 1000.0
        );
    }
    out
}

/// Sends a `size`-byte UDP datagram to `peer`:6000 every `every`,
/// `remaining` times.
struct Periodic {
    peer: Ipv4Addr,
    size: usize,
    every: SimDuration,
    remaining: u32,
}

impl Application for Periodic {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer_after(self.every, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            // An all-zero payload: the datagram's buffer starts zeroed.
            ctx.send_udp_with(5000, self.peer, 6000, self.size, |_| {});
            ctx.set_timer_after(self.every, 0);
        }
    }
}

/// Records the arrival time, in seconds, of every datagram it receives.
#[derive(Default)]
struct Sink(Vec<f64>);

impl Application for Sink {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, _from: (Ipv4Addr, u16), _port: u16, _data: Bytes) {
        self.0.push(ctx.now().as_secs_f64());
    }
}

/// Two hosts joined by one duplex `link`, each routing over it: the
/// nodes and the first-to-second direction.
fn two_hosts(
    sim: &mut Simulation,
    hosts: [(&str, Ipv4Addr); 2],
    link: LinkConfig,
) -> (NodeId, NodeId, LinkId) {
    let a = sim.add_host(hosts[0].0, hosts[0].1);
    let b = sim.add_host(hosts[1].0, hosts[1].1);
    let (ab, ba) = sim.add_duplex(a, b, link);
    sim.core_mut().node_mut(a).default_route = Some(ab);
    sim.core_mut().node_mut(b).default_route = Some(ba);
    (a, b, ab)
}

/// A CBR source over a link with `jitter_std_ms` of half-normal jitter:
/// the standard deviation of the arrival gaps, the spread the client
/// delay buffer must absorb.
fn arrival_gap_std(jitter_std_ms: u64) -> f64 {
    let mut sim = Simulation::new(5);
    let peer = Ipv4Addr::new(10, 0, 0, 2);
    let (a, z, az) = two_hosts(
        &mut sim,
        [("a", Ipv4Addr::new(10, 0, 0, 1)), ("z", peer)],
        LinkConfig::ethernet_10m(SimDuration::from_millis(5)),
    );
    if jitter_std_ms > 0 {
        sim.core_mut().link_mut(az).fault.jitter = JitterModel::HalfNormal {
            std: SimDuration::from_millis(jitter_std_ms),
            cap: SimDuration::from_millis(jitter_std_ms * 5),
        };
    }
    let cbr = Periodic {
        peer,
        size: 900,
        every: SimDuration::from_millis(100),
        remaining: 500,
    };
    sim.add_app(a, Box::new(cbr), None, false);
    let sink = sim.add_app(z, Box::new(Sink::default()), Some(6000), false);
    sim.run_to_idle(SimTime(u64::MAX));
    let times = sim.take_app::<Sink>(sink).0;
    let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt()
}

pub fn red_vs_droptail() -> String {
    use turb_netsim::tcp::TcpConfig;
    use turb_netsim::tcp_apps::{spawn_bulk_transfer, BulkSender};
    use turb_netsim::RedQueue;

    // A greedy TCP flow against an unresponsive 600 Kbit/s firehose on
    // a 1 Mbit/s bottleneck, with and without RED — §I's queue
    // management motivation.
    let run = |use_red: bool| -> (f64, u64, u64) {
        let mut sim = Simulation::new(4242);
        let peer = Ipv4Addr::new(10, 0, 0, 2);
        let link = LinkConfig {
            rate_bps: 1_000_000,
            propagation: SimDuration::from_millis(20),
            queue_capacity: 30_000,
            mtu: 1500,
        };
        let (a, b, ab) = two_hosts(
            &mut sim,
            [("a", Ipv4Addr::new(10, 0, 0, 1)), ("b", peer)],
            link,
        );
        if use_red {
            sim.core_mut().link_mut(ab).red = Some(RedQueue::for_capacity(30_000));
        }
        let firehose = Periodic {
            peer,
            size: 375,
            every: SimDuration::from_millis(5),
            remaining: u32::MAX,
        };
        sim.add_app(a, Box::new(firehose), None, false);
        sim.add_app(b, Box::new(Sink::default()), Some(6000), false);
        let (tcp, _) = spawn_bulk_transfer(
            &mut sim,
            a,
            b,
            peer,
            (40000, 8080),
            100_000_000,
            TcpConfig::default(),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        let acked = sim.take_app::<BulkSender>(tcp).stats.bytes_acked;
        let goodput = acked as f64 * 8.0 / 60.0 / 1000.0;
        let link = sim.core().link(ab);
        (goodput, link.stats.dropped_queue, link.stats.dropped_red)
    };
    let mut out = format!(
        "{:>10}  {:>14}  {:>12}  {:>10}\n",
        "queue", "tcp goodput", "tail drops", "red drops"
    );
    for use_red in [false, true] {
        let (goodput, tail, red) = run(use_red);
        let _ = writeln!(
            out,
            "{:>10}  {:>12.1}K  {:>12}  {:>10}",
            if use_red { "RED" } else { "drop-tail" },
            goodput,
            tail,
            red
        );
    }
    out
}

pub fn interleaving_burstiness() -> String {
    // §3.G: the WMP client releases packets to the application layer
    // in once-per-second batches (interleaving, [PHH98]). Compare the
    // index of dispersion of the *network* arrival process with the
    // *application* release process: interleaving trades smooth
    // arrivals for a maximally bursty app-layer process (the paper's
    // Figure 12 staircase).
    let pair = high_pair(4);
    let result = run_pair(&PairRunConfig::new(808, 5, pair));
    let net_times: Vec<f64> = result
        .wmp
        .net_events
        .iter()
        .map(|e| e.time_ns as f64 / 1e9)
        .collect();
    let app_times: Vec<f64> = result
        .wmp
        .app_batches
        .iter()
        .flat_map(|b| b.seqs.iter().map(move |_| b.time_ns as f64 / 1e9))
        .collect();
    let net_iod = turb_stats::index_of_dispersion(&net_times, 0.2).unwrap_or(f64::NAN);
    let app_iod = turb_stats::index_of_dispersion(&app_times, 0.2).unwrap_or(f64::NAN);
    format!(
        "{:>22}  {:>10}\n{:>22}  {:>10.2}\n{:>22}  {:>10.2}\n{}\n",
        "process",
        "IoD@200ms",
        "network arrivals",
        net_iod,
        "app-layer releases",
        app_iod,
        "(the wire is CBR-smooth; interleaving releases land in once-per-second bursts)"
    )
}

pub fn burst_loss_vs_fragmentation() -> String {
    // Independent vs bursty loss at the same average rate: correlated
    // drops tend to land inside one MediaPlayer fragment train, so the
    // *datagram* casualty count falls — Gilbert-Elliott loss is kinder
    // to fragmented traffic than Bernoulli at equal packet-loss rate
    // (the flip side of §3.C's amplification).
    use turb_players::{spawn_stream, StreamConfig};
    let pair = high_pair(1);

    // One WMP stream over a single 10 Mbit/s link carrying `fault`.
    let run_with = |fault: FaultInjector| -> (f64, f64) {
        let server_addr = Ipv4Addr::new(204, 71, 0, 33);
        let client_addr = Ipv4Addr::new(130, 215, 36, 10);
        let mut sim = Simulation::new(616);
        let mut rng = SimRng::new(616);
        let (server, client, sc) = two_hosts(
            &mut sim,
            [("server", server_addr), ("client", client_addr)],
            LinkConfig::ethernet_10m(SimDuration::from_millis(20)),
        );
        sim.core_mut().link_mut(sc).fault = fault;
        let wmp = spawn_stream(
            &mut sim,
            server,
            client,
            StreamConfig {
                clip: pair.wmp.clone(),
                server_addr,
                server_port: 1755,
                client_addr,
                client_port: 7000,
                bottleneck_bps: 10_000_000,
            },
            &mut rng,
        );
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(200));
        let datagram_loss = wmp.take_log(&mut sim).loss_rate();
        let link_stats = sim.core().link(sc).fault.stats();
        let packet_loss = link_stats.dropped as f64 / link_stats.offered.max(1) as f64;
        (packet_loss, datagram_loss)
    };

    let mut out = format!(
        "{:>16}  {:>12}  {:>14}  {:>14}\n",
        "loss model", "pkt loss", "datagram loss", "amplification"
    );
    for (label, fault) in [
        ("Bernoulli 5%", FaultInjector::bernoulli(0.05)),
        (
            "Gilbert-Elliott",
            FaultInjector::gilbert_elliott(0.013, 0.25, 0.0, 1.0),
        ),
    ] {
        let (pkt, dgram) = run_with(fault);
        let _ = writeln!(
            out,
            "{:>16}  {:>11.1}%  {:>13.1}%  {:>14.2}",
            label,
            pkt * 100.0,
            dgram * 100.0,
            dgram / pkt.max(1e-9)
        );
    }
    out.push_str("(equal-ish packet loss; bursty drops cluster within fragment trains)\n");
    out
}
