//! Helpers that wire a server/client pair into a simulation.

use crate::config::StreamConfig;
use crate::real_client::RealClient;
use crate::real_server::RealServer;
use crate::stats::AppStatsLog;
use crate::wmp_client::WmpClient;
use crate::wmp_server::WmpServer;
use turb_media::PlayerId;
use turb_netsim::rng::SimRng;
use turb_netsim::{AppId, Application, NodeId, Simulation};

/// Handles returned when a streaming session is installed.
#[derive(Debug, Clone, Copy)]
pub struct StreamHandles {
    /// Which player streams: the client app's type.
    pub player: PlayerId,
    /// The client application id.
    pub client_app: AppId,
}

impl StreamHandles {
    /// Take the client back from the finished simulation and return
    /// the tracker log it filled in.
    pub fn take_log(&self, sim: &mut Simulation) -> AppStatsLog {
        match self.player {
            PlayerId::MediaPlayer => sim.take_app::<WmpClient>(self.client_app).core.log,
            PlayerId::RealPlayer => sim.take_app::<RealClient>(self.client_app).core.log,
        }
    }
}

/// Install a server + tracked client for `config.clip` on the given
/// nodes. Dispatches on the clip's player. `rng` seeds the RealServer's
/// packet-size/pacing stream (unused for WMP, which is deterministic).
pub fn spawn_stream(
    sim: &mut Simulation,
    server_node: NodeId,
    client_node: NodeId,
    config: StreamConfig,
    rng: &mut SimRng,
) -> StreamHandles {
    let player = config.clip.player;
    let (server, client): (Box<dyn Application>, Box<dyn Application>) = match player {
        PlayerId::MediaPlayer => (
            Box::new(WmpServer::new(config.clone())),
            Box::new(WmpClient::new(config.clone())),
        ),
        PlayerId::RealPlayer => {
            let server_rng = rng.fork(config.client_port as u64 | 0x5ea1_0000);
            (
                Box::new(RealServer::new(config.clone(), server_rng)),
                Box::new(RealClient::new(config.clone())),
            )
        }
    };
    sim.add_app(server_node, server, Some(config.server_port), false);
    StreamHandles {
        player,
        client_app: sim.add_app(client_node, client, Some(config.client_port), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{REAL_SERVER_PORT, WMP_SERVER_PORT};
    use turb_media::{corpus, RateClass};
    use turb_netsim::prelude::*;

    /// The paper's key methodology step: stream the Real and WMP clips
    /// of one pair *simultaneously* from the same server node to the
    /// same client (§2.A: "we streamed identical MediaPlayer and
    /// RealPlayer clips simultaneously from the servers to one client").
    #[test]
    fn simultaneous_pair_streams_cleanly() {
        let sets = corpus::table1();
        let pair = sets[1].pair(RateClass::Low).unwrap(); // 39 s clip
        let server_addr = std::net::Ipv4Addr::new(204, 71, 0, 33);
        let client_addr = std::net::Ipv4Addr::new(130, 215, 36, 10);
        let mut sim = Simulation::new(99);
        let mut rng = SimRng::new(99);
        let server = sim.add_host("server", server_addr);
        let client = sim.add_host("client", client_addr);
        let (sc, cs) = sim.add_duplex(
            server,
            client,
            LinkConfig::ethernet_10m(SimDuration::from_millis(15)),
        );
        sim.core_mut().node_mut(server).default_route = Some(sc);
        sim.core_mut().node_mut(client).default_route = Some(cs);

        let real_cfg = StreamConfig {
            clip: pair.real.clone(),
            server_addr,
            server_port: REAL_SERVER_PORT,
            client_addr,
            client_port: 7002,
            bottleneck_bps: 10_000_000,
        };
        let wmp_cfg = StreamConfig {
            clip: pair.wmp.clone(),
            server_addr,
            server_port: WMP_SERVER_PORT,
            client_addr,
            client_port: 7000,
            bottleneck_bps: 10_000_000,
        };
        let real = spawn_stream(&mut sim, server, client, real_cfg, &mut rng);
        let wmp = spawn_stream(&mut sim, server, client, wmp_cfg, &mut rng);
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(200));

        let real_log = real.take_log(&mut sim);
        let wmp_log = wmp.take_log(&mut sim);
        assert!(real_log.stream_end.is_some());
        assert!(wmp_log.stream_end.is_some());
        assert_eq!(real_log.packets_lost + wmp_log.packets_lost, 0);
        // The two trackers saw their own streams only: byte totals
        // match their own clips.
        assert!(real_log.bytes_total > 0);
        assert!(wmp_log.bytes_total > 0);
        let real_expected = real_log.clip.media_bytes() as f64 * 1.08;
        assert!((real_log.bytes_total as f64 - real_expected).abs() / real_expected < 0.05);
    }
}
