//! Cross-crate methodology tests: determinism, capture export,
//! model-fit round trips, route-check behaviour, and the Figure 5
//! fragmentation sweep against its analytic prediction.

use turb_media::{corpus, PlayerId, RateClass};
use turbulence::{run_pair, PairRunConfig};

fn short_config(seed: u64) -> PairRunConfig {
    let sets = corpus::table1();
    PairRunConfig::new(seed, 2, sets[1].pair(RateClass::Low).unwrap().clone())
}

#[test]
fn runs_are_bit_reproducible() {
    let a = run_pair(&short_config(11));
    let b = run_pair(&short_config(11));
    assert_eq!(a.capture.len(), b.capture.len());
    for (x, y) in a.capture.records().iter().zip(b.capture.records()) {
        assert_eq!(x.time, y.time);
        assert_eq!(x.wire_len, y.wire_len);
        assert_eq!(x.packet, y.packet);
    }
    assert_eq!(a.real.per_second.len(), b.real.per_second.len());
    assert_eq!(a.real.net_events, b.real.net_events);
}

#[test]
fn different_seeds_change_the_network_but_not_the_conclusions() {
    let a = run_pair(&short_config(1));
    let b = run_pair(&short_config(2));
    // Different paths...
    assert_ne!(
        a.ping_before.median_rtt(),
        b.ping_before.median_rtt(),
        "different seeds should draw different paths"
    );
    // ...same qualitative behaviour.
    for r in [&a, &b] {
        assert!(r.real.avg_playback_kbps() > r.real.clip.encoded_kbps);
        assert!(
            (r.wmp.avg_playback_kbps() - r.wmp.clip.encoded_kbps).abs() / r.wmp.clip.encoded_kbps
                < 0.05
        );
    }
}

#[test]
fn capture_exports_to_pcap_and_back() {
    let result = run_pair(&short_config(33));
    let mut buf = Vec::new();
    turb_capture::pcap::write_pcap(&mut buf, result.capture.records()).unwrap();
    let packets = turb_capture::pcap::read_pcap(&mut buf.as_slice()).unwrap();
    assert_eq!(packets.len(), result.capture.len());
    // Every packet decodes and matches the original at µs resolution.
    for (pcap_packet, record) in packets.iter().zip(result.capture.records()) {
        let (t, ip) = turb_capture::pcap::decode_packet(pcap_packet).expect("decodes");
        assert_eq!(t.as_nanos() / 1000, record.time.as_nanos() / 1000);
        assert_eq!(ip, record.packet);
    }
}

#[test]
fn capture_rebuilt_from_pcap_yields_the_same_analysis() {
    use turb_capture::record::PacketRecord;
    use turb_capture::{Capture, Filter, FragmentGroups};
    let result = run_pair(&short_config(44));
    let mut buf = Vec::new();
    turb_capture::pcap::write_pcap(&mut buf, result.capture.records()).unwrap();

    // Rebuild a capture from the pcap alone (direction is lost in the
    // file; reconstruct it from the client address).
    let mut rebuilt = Capture::default();
    for p in turb_capture::pcap::read_pcap(&mut buf.as_slice()).unwrap() {
        let (t, ip) = turb_capture::pcap::decode_packet(&p).expect("decodes");
        let direction = if ip.dst == std::net::Ipv4Addr::new(130, 215, 36, 10) {
            turb_netsim::Direction::Rx
        } else {
            turb_netsim::Direction::Tx
        };
        rebuilt.push_record(PacketRecord::dissect(t, direction, &ip));
    }
    let stream = Filter::stream_from(result.server_addr);
    let original = FragmentGroups::build(result.capture.filtered(&stream)).stats();
    let roundtrip = FragmentGroups::build(rebuilt.filtered(&stream)).stats();
    assert_eq!(original, roundtrip);
}

#[test]
fn fitted_models_survive_the_pcap_round_trip() {
    let result = run_pair(&short_config(55));
    let direct = turb_flowgen::TurbulenceModel::fit(
        &result.capture,
        result.server_addr,
        PlayerId::MediaPlayer,
        result.wmp.clip.encoded_kbps,
    )
    .expect("fit");
    // The WMP low-rate clip: constant sizes, no fragments, and a
    // measured buffering ratio of ≈1 ("MediaPlayer always buffers at
    // the same rate as it plays back").
    assert_eq!(direct.fragment_fraction, 0.0);
    assert!(
        (direct.buffering_ratio - 1.0).abs() < 0.05,
        "ratio = {}",
        direct.buffering_ratio
    );
    // Set 2 low = 102.3 Kbit/s: 100 ms units of ≈1279 B + 42 B of
    // headers ⇒ ≈1321 B on the wire, constant.
    let median = direct.datagram_sizes.sample(0.5);
    assert!(
        (1300.0..=1340.0).contains(&median),
        "median size = {median}"
    );
}

#[test]
fn trackers_agree_with_the_sniffer_on_byte_counts() {
    use turb_capture::Filter;
    let result = run_pair(&short_config(66));
    // Bytes the tracker logged = UDP payload bytes the sniffer saw for
    // that stream (per-datagram, so reassemble via groups).
    for (log, port) in [(&result.real, 7002u16), (&result.wmp, 7000u16)] {
        let filter = Filter::stream_from(result.server_addr).and(Filter::PortIs(port));
        let sniffed_payload: usize = result
            .capture
            .filtered(&filter)
            .iter()
            // Unfragmented datagrams only in this low-rate pair, so
            // wire length − 42 B of headers = UDP payload.
            .map(|r| r.wire_len - 42)
            .sum();
        // The sniffer also saw the END markers (20 B each × 3).
        let expected = log.bytes_total as usize + 3 * 20;
        assert_eq!(sniffed_payload, expected, "port {port}");
    }
}

#[test]
fn route_check_detects_a_changed_path() {
    // Sanity for PairRunResult::route_stable: same run is stable; a
    // synthetic report with different hop counts is not.
    let result = run_pair(&short_config(77));
    assert!(result.route_stable());
    let mut tampered = result;
    tampered.tracert_after.hops.push(None);
    assert!(!tampered.route_stable());
}

/// Analytic fragment fraction: a 100 ms application frame of
/// `rate × 0.1 / 8` bytes (minimum 880) plus the 8-byte UDP header
/// splits into `ceil(len / 1480)` wire packets, of which all but one
/// display as fragments.
fn predicted_fragment_fraction(kbps: f64) -> f64 {
    let unit = (kbps * 1000.0 * 0.1 / 8.0).max(880.0);
    let frames = ((unit + 8.0) / 1480.0).ceil();
    (frames - 1.0) / frames
}

/// The fragment fraction of a 30 s MediaPlayer stream at `kbps`, as the
/// client-side sniffer sees it over one 10 Mbit/s link.
fn measured_fragment_fraction(kbps: f64) -> f64 {
    use std::net::Ipv4Addr;
    use turb_capture::{Capture, Filter, FragmentGroups, Sniffer};
    use turb_netsim::prelude::*;
    use turb_players::{spawn_stream, StreamConfig};

    let server_addr = Ipv4Addr::new(204, 71, 0, 33);
    let client_addr = Ipv4Addr::new(130, 215, 36, 10);
    let mut clip = corpus::table1()[0]
        .pair(RateClass::High)
        .unwrap()
        .wmp
        .clone();
    clip.encoded_kbps = kbps;
    clip.advertised_kbps = kbps;
    clip.duration_secs = 30.0;
    let mut sim = Simulation::new(kbps as u64);
    let server = sim.add_host("server", server_addr);
    let client = sim.add_host("client", client_addr);
    let (sc, cs) = sim.add_duplex(
        server,
        client,
        LinkConfig::ethernet_10m(SimDuration::from_millis(20)),
    );
    sim.core_mut().node_mut(server).default_route = Some(sc);
    sim.core_mut().node_mut(client).default_route = Some(cs);
    let capture = Sniffer::attach(&mut sim, client);
    let config = StreamConfig {
        clip,
        server_addr,
        server_port: 1755,
        client_addr,
        client_port: 7000,
        bottleneck_bps: 10_000_000,
    };
    spawn_stream(&mut sim, server, client, config, &mut SimRng::new(0));
    sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(120));

    let capture = sim.take_tap::<Capture>(capture);
    let records = capture.filtered(&Filter::stream_from(server_addr));
    FragmentGroups::build(records).stats().fragment_fraction()
}

/// Figure 5 beyond the corpus: simulated end to end at rates the paper
/// did not stream, MediaPlayer's fragment fraction stays within 0.5
/// percentage points of the MTU arithmetic, and nothing fragments at or
/// below 117 Kbit/s (the first frame past 1472 B is at 117.8 Kbit/s).
#[test]
fn wmp_fragmentation_follows_the_mtu_arithmetic_off_corpus() {
    for kbps in [
        28.0, 49.8, 102.3, 117.0, 118.0, 150.0, 200.0, 250.4, 307.2, 400.0, 500.0, 636.9, 731.3,
        900.0, 1200.0,
    ] {
        let measured = measured_fragment_fraction(kbps);
        let predicted = predicted_fragment_fraction(kbps);
        assert!(
            (measured - predicted).abs() <= 0.005,
            "{kbps} Kbit/s: measured {:.1}%, predicted {:.1}%",
            measured * 100.0,
            predicted * 100.0
        );
        if kbps <= 117.0 {
            assert_eq!(measured, 0.0, "{kbps} Kbit/s fragments");
        }
    }
}
