//! The paper's proposed follow-up study (§VI), executable:
//! [`run_tcp_friendliness`] — "Studies similar to this one under
//! bandwidth constrained conditions might help explore the feasibility
//! of TCP-Friendliness (or, more likely the lack of TCP-Friendliness)
//! in commercial media players": share a bottleneck between a player's
//! UDP stream and a greedy TCP flow and measure who yields.

use std::net::Ipv4Addr;
use turb_media::{Clip, PlayerId};
use turb_netsim::tcp::TcpConfig;
use turb_netsim::tcp_apps::{spawn_bulk_transfer, BulkSender};
use turb_netsim::{LinkConfig, SimDuration, SimRng, SimTime, Simulation};
use turb_players::{spawn_stream, AppStatsLog, StreamConfig};

/// Configuration of one TCP-friendliness trial.
#[derive(Debug, Clone)]
pub struct FriendlinessConfig {
    /// Deterministic seed.
    pub seed: u64,
    /// The clip the player streams.
    pub clip: Clip,
    /// Bottleneck link rate, bit/s.
    pub bottleneck_bps: u64,
    /// One-way propagation on the bottleneck.
    pub propagation: SimDuration,
    /// How long to observe, seconds.
    pub observe_secs: f64,
}

/// Outcome of one trial.
#[derive(Debug, Clone)]
pub struct FriendlinessResult {
    /// The player's *delivered* throughput while sharing, Kbit/s.
    pub stream_kbps: f64,
    /// The player's *offered* (send) rate while sharing, Kbit/s —
    /// delivered rate corrected for loss. An unresponsive flow keeps
    /// this at the encoding rate no matter the congestion.
    pub stream_send_kbps: f64,
    /// TCP goodput with the link to itself, Kbit/s.
    pub tcp_alone_kbps: f64,
    /// TCP goodput while sharing with the stream, Kbit/s.
    pub tcp_shared_kbps: f64,
    /// The fair per-flow share of the bottleneck, Kbit/s.
    pub fair_share_kbps: f64,
    /// The stream's loss rate while sharing.
    pub stream_loss: f64,
    /// The player's tracker log from the shared phase.
    pub stream_log: AppStatsLog,
}

impl FriendlinessResult {
    /// TCP-friendliness index: the stream's *offered* rate relative to
    /// a fair share. 1.0 = perfectly fair; > 1 = the stream keeps
    /// pushing more than its share into the bottleneck (unresponsive).
    pub fn stream_share_index(&self) -> f64 {
        if self.fair_share_kbps <= 0.0 {
            return f64::NAN;
        }
        self.stream_send_kbps / self.fair_share_kbps
    }

    /// How much of its solo goodput TCP retains when sharing.
    pub fn tcp_retention(&self) -> f64 {
        if self.tcp_alone_kbps <= 0.0 {
            return f64::NAN;
        }
        self.tcp_shared_kbps / self.tcp_alone_kbps
    }
}

/// Build the dumbbell used by the trials: server — bottleneck — client.
fn dumbbell(
    seed: u64,
    bottleneck_bps: u64,
    propagation: SimDuration,
) -> (Simulation, turb_netsim::NodeId, turb_netsim::NodeId) {
    let mut sim = Simulation::new(seed);
    let server = sim.add_host("server", Ipv4Addr::new(204, 71, 0, 33));
    let client = sim.add_host("client", Ipv4Addr::new(130, 215, 36, 10));
    let link = LinkConfig {
        rate_bps: bottleneck_bps,
        propagation,
        // A 2002-ish router buffer: ~120 ms at the line rate.
        queue_capacity: ((bottleneck_bps as f64 * 0.12 / 8.0) as usize).max(8 * 1500),
        mtu: turb_wire::DEFAULT_MTU,
    };
    let (sc, cs) = sim.add_duplex(server, client, link);
    sim.core_mut().node_mut(server).default_route = Some(sc);
    sim.core_mut().node_mut(client).default_route = Some(cs);
    (sim, server, client)
}

/// Measure TCP goodput over `observe_secs` with `n_streams` competing
/// player streams.
fn tcp_goodput(config: &FriendlinessConfig, with_stream: bool) -> (f64, Option<AppStatsLog>) {
    let (mut sim, server, client) = dumbbell(
        config.seed ^ u64::from(with_stream),
        config.bottleneck_bps,
        config.propagation,
    );
    let mut rng = SimRng::new(config.seed ^ 0xf41e);

    let stream = with_stream.then(|| {
        let stream_config = StreamConfig {
            clip: config.clip.clone(),
            server_addr: Ipv4Addr::new(204, 71, 0, 33),
            server_port: match config.clip.player {
                PlayerId::RealPlayer => 554,
                PlayerId::MediaPlayer => 1755,
            },
            client_addr: Ipv4Addr::new(130, 215, 36, 10),
            client_port: 7000,
            bottleneck_bps: config.bottleneck_bps,
        };
        spawn_stream(&mut sim, server, client, stream_config, &mut rng)
    });

    // A TCP transfer big enough to stay busy for the whole window.
    let total = (config.bottleneck_bps as f64 / 8.0 * config.observe_secs * 2.0) as u64;
    let (tcp, _) = spawn_bulk_transfer(
        &mut sim,
        server,
        client,
        Ipv4Addr::new(130, 215, 36, 10),
        (40000, 8080),
        total,
        TcpConfig::default(),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs_f64(config.observe_secs));
    let acked = sim.take_app::<BulkSender>(tcp).stats.bytes_acked;
    let goodput_kbps = acked as f64 * 8.0 / config.observe_secs / 1000.0;
    (goodput_kbps, stream.map(|s| s.take_log(&mut sim)))
}

/// Run one TCP-friendliness trial: TCP alone, then TCP sharing the
/// bottleneck with the player's stream.
pub fn run_tcp_friendliness(config: &FriendlinessConfig) -> FriendlinessResult {
    let (tcp_alone_kbps, _) = tcp_goodput(config, false);
    let (tcp_shared_kbps, stream_log) = tcp_goodput(config, true);
    let stream_log = stream_log.expect("stream ran");
    let observe = config.observe_secs.min(stream_log.clip.duration_secs);
    let stream_kbps = stream_log.bytes_total as f64 * 8.0 / observe / 1000.0;
    let loss = stream_log.loss_rate();
    let stream_send_kbps = if loss < 1.0 {
        stream_kbps / (1.0 - loss)
    } else {
        0.0
    };
    FriendlinessResult {
        stream_kbps,
        stream_send_kbps,
        tcp_alone_kbps,
        tcp_shared_kbps,
        fair_share_kbps: config.bottleneck_bps as f64 / 2.0 / 1000.0,
        stream_loss: stream_log.loss_rate(),
        stream_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turb_media::{corpus, RateClass};

    fn clip(player: PlayerId, class: RateClass) -> Clip {
        let sets = corpus::table1();
        let pair = sets[4].pair(class).unwrap().clone(); // set 5, 107 s
        match player {
            PlayerId::RealPlayer => pair.real,
            PlayerId::MediaPlayer => pair.wmp,
        }
    }

    #[test]
    fn udp_stream_is_not_tcp_friendly_under_constraint() {
        // A 400 Kbit/s bottleneck shared by a 250.4 Kbit/s WMP stream
        // and a greedy TCP flow: fair share is 200 each, but the
        // unresponsive stream keeps its full rate and TCP yields.
        let config = FriendlinessConfig {
            seed: 42,
            clip: clip(PlayerId::MediaPlayer, RateClass::High),
            bottleneck_bps: 400_000,
            propagation: SimDuration::from_millis(20),
            observe_secs: 60.0,
        };
        let result = run_tcp_friendliness(&config);
        // The stream keeps *offering* its encoding rate regardless of
        // sustained loss — the unresponsive signature…
        assert!(
            result.stream_send_kbps > 0.9 * result.stream_log.clip.encoded_kbps,
            "stream offered {} of {}",
            result.stream_send_kbps,
            result.stream_log.clip.encoded_kbps
        );
        assert!(
            result.stream_loss > 0.03,
            "it should be ploughing through loss: {}",
            result.stream_loss
        );
        // …which exceeds the fair share…
        assert!(
            result.stream_share_index() > 1.1,
            "share index = {}",
            result.stream_share_index()
        );
        // …and TCP pays for it.
        assert!(
            result.tcp_shared_kbps < 0.7 * result.tcp_alone_kbps,
            "tcp kept {} of {}",
            result.tcp_shared_kbps,
            result.tcp_alone_kbps
        );
    }

    #[test]
    fn ample_bandwidth_leaves_tcp_unharmed() {
        // At 10 Mbit/s nobody is constrained: TCP keeps most of its
        // solo goodput (it only yields the stream's small slice).
        let config = FriendlinessConfig {
            seed: 43,
            clip: clip(PlayerId::RealPlayer, RateClass::Low),
            bottleneck_bps: 10_000_000,
            propagation: SimDuration::from_millis(20),
            observe_secs: 40.0,
        };
        let result = run_tcp_friendliness(&config);
        assert!(
            result.tcp_retention() > 0.85,
            "retention = {}",
            result.tcp_retention()
        );
        assert!(result.stream_loss < 0.01);
    }
}
