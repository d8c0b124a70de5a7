//! MediaTracker: the instrumented MediaPlayer client.
//!
//! Adds the §3.G interleave batcher to the common client core: the OS
//! delivers datagrams as they arrive (every ~100 ms), but "the
//! MediaPlayer application receives packets in groups of 10, once per
//! second" — received sequence numbers are held and released to the
//! application layer on a 1 s timer, and each release is logged as an
//! [`crate::stats::AppBatch`] (Figure 12's upper series).

use crate::client_core::{ClientCore, TOKEN_BATCH, TOKEN_RETRY, TOKEN_SECOND};
use crate::config::StreamConfig;
use crate::stats::AppBatch;
use bytes::Bytes;
use std::net::Ipv4Addr;
use turb_netsim::sim::{Application, Ctx};
use turb_netsim::SimDuration;

/// The MediaPlayer client + MediaTracker instrumentation.
pub struct WmpClient {
    pub(crate) core: ClientCore,
    pending_batch: Vec<u32>,
}

impl WmpClient {
    /// Build the client with an empty log.
    pub fn new(config: StreamConfig) -> WmpClient {
        WmpClient {
            core: ClientCore::new(config),
            pending_batch: Vec::new(),
        }
    }
}

impl Application for WmpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.start(ctx);
        ctx.set_timer_after(
            SimDuration::from_millis(crate::calibration::WMP_INTERLEAVE_MS),
            TOKEN_BATCH,
        );
    }

    fn on_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        _from: (Ipv4Addr, u16),
        _dst_port: u16,
        payload: Bytes,
    ) {
        if let Some(header) = self.core.on_datagram(ctx, &payload) {
            self.pending_batch.push(header.sequence);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_SECOND => {
                self.core.on_second(ctx);
            }
            TOKEN_RETRY => self.core.on_retry(ctx),
            TOKEN_BATCH => {
                if !self.pending_batch.is_empty() {
                    let seqs = std::mem::take(&mut self.pending_batch);
                    self.core.log.app_batches.push(AppBatch {
                        time_ns: ctx.now().as_nanos(),
                        seqs,
                    });
                }
                // Keep batching until the client is done: either the
                // clip ended and drained, or the core's hard cap fired
                // (a dead stream must not keep the timer alive forever).
                let done = self.core.finished() && self.pending_batch.is_empty();
                if !done {
                    ctx.set_timer_after(
                        SimDuration::from_millis(crate::calibration::WMP_INTERLEAVE_MS),
                        TOKEN_BATCH,
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AppStatsLog;
    use crate::wmp_server::WmpServer;
    use turb_media::{corpus, RateClass};
    use turb_netsim::prelude::*;

    /// End-to-end: WMP server + client over a simple duplex link.
    fn run_session(class: RateClass, set: usize) -> AppStatsLog {
        let sets = corpus::table1();
        let pair = sets[set].pair(class).unwrap();
        let server_addr = std::net::Ipv4Addr::new(204, 71, 0, 33);
        let client_addr = std::net::Ipv4Addr::new(130, 215, 36, 10);
        let config = StreamConfig {
            clip: pair.wmp.clone(),
            server_addr,
            server_port: 1755,
            client_addr,
            client_port: 7000,
            bottleneck_bps: 10_000_000,
        };
        let mut sim = Simulation::new(42);
        let server = sim.add_host("server", server_addr);
        let client = sim.add_host("client", client_addr);
        let (sc, cs) = sim.add_duplex(
            server,
            client,
            LinkConfig::ethernet_10m(SimDuration::from_millis(20)),
        );
        sim.core_mut().node_mut(server).default_route = Some(sc);
        sim.core_mut().node_mut(client).default_route = Some(cs);
        sim.add_app(
            server,
            Box::new(WmpServer::new(config.clone())),
            Some(1755),
            false,
        );
        let app = sim.add_app(
            client,
            Box::new(WmpClient::new(config.clone())),
            Some(7000),
            false,
        );
        let limit =
            SimTime::ZERO + SimDuration::from_secs_f64(config.clip.duration_secs * 2.0 + 60.0);
        sim.run_to_idle(limit);
        sim.take_app::<WmpClient>(app).core.log
    }

    #[test]
    fn full_session_delivers_the_whole_clip() {
        let log = run_session(RateClass::Low, 4); // set 5 low: 39 Kbit/s
        assert!(log.first_packet.is_some());
        assert!(log.stream_end.is_some(), "END marker seen");
        assert_eq!(log.packets_lost, 0);
        // Delivered ≈ the clip's media bytes (unit rounding aside).
        let expected = log.clip.media_bytes() as f64;
        let got = log.bytes_total as f64;
        assert!(
            (got - expected).abs() / expected < 0.02,
            "{got} vs {expected}"
        );
    }

    #[test]
    fn playback_rate_matches_encoding_rate() {
        // Figure 3: "MediaPlayer tends to playback at the encoding rate".
        let log = run_session(RateClass::High, 4); // 250.4 Kbit/s
        let avg = log.avg_playback_kbps();
        let encoded = log.clip.encoded_kbps;
        assert!((avg - encoded).abs() / encoded < 0.05, "{avg} vs {encoded}");
    }

    #[test]
    fn streaming_lasts_the_whole_clip() {
        // §3.F: MediaPlayer buffers at the playout rate, so streaming
        // spans ≈ the clip duration.
        let log = run_session(RateClass::High, 1); // set 2: 39 s clip
        let streamed = log.streaming_duration_secs().unwrap();
        let clip = log.clip.duration_secs;
        assert!((streamed - clip).abs() < 3.0, "{streamed} vs {clip}");
    }

    #[test]
    fn buffering_ratio_is_one() {
        // Figure 11: "the ratio of buffering rate to playout rate for
        // MediaPlayer clips is 1".
        let log = run_session(RateClass::High, 0);
        let ratio = log.buffering_ratio().unwrap();
        assert!((ratio - 1.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn interleave_batches_arrive_once_per_second_in_groups() {
        // Figure 12: app-layer batches ≈1 s apart; for a high-rate clip
        // ≈10 datagrams per batch.
        let log = run_session(RateClass::High, 4); // 250.4 Kbit/s, 100 ms ticks
        assert!(log.app_batches.len() > 10);
        let mid = &log.app_batches[2..log.app_batches.len() - 2];
        for pair in mid.windows(2) {
            let gap = (pair[1].time_ns - pair[0].time_ns) as f64 / 1e9;
            assert!((gap - 1.0).abs() < 0.05, "gap = {gap}");
        }
        let sizes: Vec<usize> = mid.iter().map(|b| b.seqs.len()).collect();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((9.0..=11.0).contains(&avg), "avg batch = {avg}");
    }

    #[test]
    fn frame_rate_reaches_full_motion_on_high_rate_clips() {
        let log = run_session(RateClass::High, 4);
        let avg = log.avg_frame_rate();
        assert!((24.0..=26.0).contains(&avg), "fps = {avg}");
    }

    #[test]
    fn low_rate_clip_plays_near_13_fps() {
        // Figure 13: the 39 Kbit/s MediaPlayer clip plays at 13 fps.
        let log = run_session(RateClass::Low, 4); // set 5 low: 39 Kbit/s... set index 4
        let avg = log.avg_frame_rate();
        assert!((12.0..=14.5).contains(&avg), "fps = {avg}");
    }
}
