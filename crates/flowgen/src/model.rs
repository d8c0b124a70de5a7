//! Fitting a turbulence model from a capture.

use std::net::Ipv4Addr;
use turb_capture::{Capture, Filter, FragmentGroups};
use turb_stats::EmpiricalSampler;
use turb_wire::media::PlayerId;

/// Everything Section IV says a simulated video flow needs, fitted
/// from one captured stream.
#[derive(Debug, Clone)]
pub struct TurbulenceModel {
    /// Which player the flow imitates.
    pub player: PlayerId,
    /// The clip's encoding rate, Kbit/s (Table 1 input).
    pub encoded_kbps: f64,
    /// Wire packet sizes, bytes (Figures 6–7 input). For MediaPlayer
    /// these are per-*datagram* sizes; fragmentation is re-applied by
    /// the generator so the MTU stays an explicit parameter.
    pub datagram_sizes: EmpiricalSampler,
    /// Steady-phase datagram interarrival gaps, seconds (Figures 8–9
    /// input, group leaders only, as §3.E prescribes).
    pub interarrivals: EmpiricalSampler,
    /// Fraction of wire packets that are fragments (Figure 5).
    pub fragment_fraction: f64,
    /// Buffering-phase rate / steady rate (Figure 11).
    pub buffering_ratio: f64,
    /// How long the buffering burst lasts, seconds (§IV: 20 s low-rate
    /// to 40 s high-rate for RealPlayer; 0 for MediaPlayer).
    pub burst_secs: f64,
}

impl TurbulenceModel {
    /// Fit from a client-side capture of one stream.
    ///
    /// `server` selects the stream; the capture may contain both
    /// players' traffic (the paper's simultaneous methodology) plus
    /// ping/tracert noise — everything else is filtered out.
    ///
    /// Returns `None` when the capture holds fewer than 16 datagrams
    /// for the stream (not enough to estimate distributions).
    pub fn fit(
        capture: &Capture,
        server: Ipv4Addr,
        player: PlayerId,
        encoded_kbps: f64,
    ) -> Option<TurbulenceModel> {
        let stream = Filter::stream_from(server);
        let records = capture.filtered(&stream);
        if records.is_empty() {
            return None;
        }
        // The paper's methodology streams both players from one server
        // simultaneously: separate this player's datagrams by the media
        // headers on first fragments.
        let [real, wmp] = FragmentGroups::build(records).into_players();
        let groups = match player {
            PlayerId::RealPlayer => real,
            PlayerId::MediaPlayer => wmp,
        };
        if groups.groups().len() < 16 {
            return None;
        }
        let stats = groups.stats();

        // Split at the buffering/steady boundary using the per-group
        // buffering flags.
        let burst_end = groups
            .groups()
            .iter()
            .filter(|g| g.buffering)
            .map(|g| g.first_time)
            .fold(f64::NAN, f64::max);
        let start = groups.groups()[0].first_time;
        let burst_secs = if burst_end.is_nan() {
            0.0
        } else {
            burst_end - start
        };

        // Datagram sizes: total wire bytes per group (the generator
        // re-fragments, so sizes describe application datagrams).
        let sizes: Vec<f64> = groups
            .groups()
            .iter()
            .map(|g| g.wire_bytes as f64)
            .collect();

        // Steady-phase interarrivals between group leaders.
        let leaders = groups.group_leader_times();
        let steady_gaps: Vec<f64> = leaders
            .windows(2)
            .filter(|w| burst_end.is_nan() || w[0] > burst_end)
            .map(|w| w[1] - w[0])
            .filter(|g| *g > 0.0)
            .collect();
        if steady_gaps.len() < 8 {
            return None;
        }

        // Buffering ratio: burst-window rate over steady-window rate.
        let buffering_ratio = if burst_secs > 1.0 {
            let rate_in = |from: f64, to: f64| -> f64 {
                let bytes: usize = groups
                    .groups()
                    .iter()
                    .filter(|g| (from..to).contains(&g.first_time))
                    .map(|g| g.wire_bytes)
                    .sum();
                bytes as f64 * 8.0 / (to - from).max(1e-9)
            };
            let end = groups.groups().last().expect("non-empty").first_time;
            let burst_rate = rate_in(start, burst_end);
            let steady_rate = rate_in(burst_end, end);
            if steady_rate > 0.0 {
                burst_rate / steady_rate
            } else {
                1.0
            }
        } else {
            1.0
        };

        Some(TurbulenceModel {
            player,
            encoded_kbps,
            datagram_sizes: EmpiricalSampler::from_samples(&sizes),
            interarrivals: EmpiricalSampler::from_samples(&steady_gaps),
            fragment_fraction: stats.fragment_fraction(),
            buffering_ratio,
            burst_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use turb_capture::record::PacketRecord;
    use turb_netsim::{Direction, SimTime};
    use turb_wire::frag::fragment;
    use turb_wire::ipv4::{IpProtocol, Ipv4Packet};
    use turb_wire::media::MediaHeader;
    use turb_wire::udp::UdpDatagram;

    const SERVER: Ipv4Addr = Ipv4Addr::new(204, 71, 0, 33);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(130, 215, 36, 10);

    /// Build a synthetic capture: `n` datagrams of `payload` bytes,
    /// `gap_ms` apart, the first `burst` of them flagged as buffering
    /// and sent at half the gap.
    fn capture_of(n: u32, payload: usize, gap_ms: f64, burst: u32) -> Capture {
        let mut records = Vec::new();
        let mut t = 0.0f64;
        for seq in 0..n {
            let buffering = seq < burst;
            let header = MediaHeader {
                player: PlayerId::MediaPlayer,
                sequence: seq,
                frame_number: seq,
                media_time_ms: (t * 1000.0) as u32,
                buffering,
            };
            let udp = UdpDatagram::new(1755, 7000, header.encode_with_padding(payload))
                .encode(SERVER, CLIENT)
                .unwrap();
            let packet = Ipv4Packet::new(SERVER, CLIENT, IpProtocol::Udp, seq as u16, udp);
            for f in fragment(packet, 1500).unwrap() {
                records.push(PacketRecord::dissect(
                    SimTime((t * 1e9) as u64),
                    Direction::Rx,
                    &f,
                ));
                t += 0.001;
            }
            t += if buffering { gap_ms / 2.0 } else { gap_ms } / 1000.0;
        }
        let mut capture = Capture::default();
        for r in records {
            capture_push(&mut capture, r);
        }
        capture
    }

    /// Capture has no public push; round-trip through the sniffer
    /// internals by rebuilding from records via pcap would be heavy, so
    /// this helper uses the fact that Capture is constructible in-crate
    /// only. Instead we re-dissect through a private-like accessor —
    /// provided by Capture::default + extend below.
    fn capture_push(capture: &mut Capture, r: PacketRecord) {
        capture.push_record(r);
    }

    #[test]
    fn fit_recovers_the_configured_flow_shape() {
        // 200 datagrams of ~3 KB, 100 ms apart, first 40 at double rate.
        let capture = capture_of(200, 3000, 100.0, 40);
        let model = TurbulenceModel::fit(&capture, SERVER, PlayerId::MediaPlayer, 250.0).unwrap();
        // Every datagram is ~3 KB + headers on the wire.
        let mid_size = model.datagram_sizes.sample(0.5);
        assert!((3000.0..3200.0).contains(&mid_size), "size = {mid_size}");
        // Steady gaps ≈ 100 ms (+ 2 fragment-ms).
        let mid_gap = model.interarrivals.sample(0.5);
        assert!((0.09..0.12).contains(&mid_gap), "gap = {mid_gap}");
        // 3 fragments per datagram → 2/3 fragment share.
        assert!((model.fragment_fraction - 2.0 / 3.0).abs() < 0.01);
        // The burst phase doubles the rate.
        assert!(model.burst_secs > 1.0);
        assert!(
            (1.5..2.5).contains(&model.buffering_ratio),
            "{}",
            model.buffering_ratio
        );
    }

    #[test]
    fn fit_reports_no_burst_when_none_was_flagged() {
        let capture = capture_of(100, 800, 120.0, 0);
        let model = TurbulenceModel::fit(&capture, SERVER, PlayerId::MediaPlayer, 50.0).unwrap();
        assert_eq!(model.buffering_ratio, 1.0);
        assert_eq!(model.fragment_fraction, 0.0);
    }

    #[test]
    fn fit_needs_enough_data() {
        let capture = capture_of(5, 800, 100.0, 0);
        assert!(TurbulenceModel::fit(&capture, SERVER, PlayerId::MediaPlayer, 50.0).is_none());
        let empty = Capture::default();
        assert!(TurbulenceModel::fit(&empty, SERVER, PlayerId::MediaPlayer, 50.0).is_none());
    }

    #[test]
    fn fit_filters_by_server_address() {
        let capture = capture_of(100, 800, 100.0, 0);
        let other = Ipv4Addr::new(1, 2, 3, 4);
        assert!(TurbulenceModel::fit(&capture, other, PlayerId::MediaPlayer, 50.0).is_none());
    }
}
