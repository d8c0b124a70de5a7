//! The paper's methodology (§2), executable.
//!
//! One *pair run* streams the RealPlayer and MediaPlayer encodings of
//! a clip pair simultaneously from a co-located server site to the WPI
//! client, with Ethereal capturing at the client NIC, and `ping` /
//! `tracert` before and after to verify the path did not change.

use crate::telemetry::{harvest, RunTelemetry};
use std::net::Ipv4Addr;
use std::sync::OnceLock;
use turb_capture::{Capture, FragmentGroups, Sniffer};
use turb_media::{ClipPair, RateClass};
use turb_netsim::tools::{self, PingApp, PingReport, TracertApp, TracertReport};
use turb_netsim::{
    EngineKind, InternetScenario, ScenarioConfig, SchedulerKind, ShardKind, SimDuration, SimRng,
    SimTime, Simulation,
};
use turb_obs::ScopeTimer;
use turb_players::calibration::{REAL_SERVER_PORT, WMP_SERVER_PORT};
use turb_players::{spawn_stream, AppStatsLog, StreamConfig};

/// Client UDP port the RealPlayer stream is delivered to.
pub const REAL_CLIENT_PORT: u16 = 7002;
/// Client UDP port the MediaPlayer stream is delivered to.
pub const WMP_CLIENT_PORT: u16 = 7000;
/// Client UDP port packet-engine background cross-traffic is absorbed
/// on (kept off the player ports so foreground logs stay clean).
pub const BACKGROUND_CLIENT_PORT: u16 = 7100;

/// Configuration of one pair run.
#[derive(Debug, Clone)]
pub struct PairRunConfig {
    /// Deterministic seed for this run.
    pub seed: u64,
    /// Which data set (1-6) the pair belongs to; selects the server
    /// site so each set keeps its own network path, like the paper's
    /// six distinct servers.
    pub set_id: u8,
    /// The clip pair to stream.
    pub pair: ClipPair,
    /// Ping probes per check.
    pub ping_count: u32,
    /// Optional per-link loss probability on the client access link
    /// (0 for the paper's uncongested conditions; used by ablations).
    pub access_loss: f64,
    /// Collect telemetry (metrics, run report) for this run.
    /// Harvesting reads counters the simulator keeps anyway and never
    /// draws randomness, so results are bit-identical either way.
    pub telemetry: bool,
    /// Event-queue engine. The timing wheel is the default; the heap
    /// is kept as the reference that `tests/scheduler_equivalence.rs`
    /// proves byte-identical to it.
    pub scheduler: SchedulerKind,
    /// Record per-packet lineage spans (stage-transition events from
    /// packetisation to playout). Like telemetry, recording reads the
    /// simulation without perturbing it, so results are bit-identical
    /// either way; the dump lands in [`RunTelemetry::lineage`].
    pub lineage: bool,
    /// Record per-session QoE rollups (one session per player stream).
    /// Same non-perturbation discipline as `lineage`; the dump lands
    /// in [`RunTelemetry::sessions`].
    pub sessions: bool,
    /// Record windowed time-series (per-window bandwidth, loss by
    /// cause, queue depth, buffer occupancy). Same non-perturbation
    /// discipline as `lineage`; the dump lands in
    /// [`RunTelemetry::series`].
    pub timeseries: bool,
    /// Window width for time-series recording, nanoseconds; 0 selects
    /// the 1 s default.
    pub ts_window_ns: u64,
    /// How to execute the event loop: sequentially (the default, and
    /// the only mode the CLI runs) or partitioned into shard domains
    /// with one worker thread each ([`PairRunConfig::with_shards`], for
    /// the benchmark harness and the equivalence suites). Sharding is
    /// an execution strategy, not a model change —
    /// `tests/shard_equivalence.rs` proves every shard count produces
    /// byte-identical reports, metrics, traces, lineage, and series.
    pub shards: ShardKind,
    /// How background cross-traffic is simulated. Irrelevant (and
    /// byte-identical by construction) when `background_flows` is
    /// zero; with flows present, [`EngineKind::Packet`] replays each
    /// as real datagrams while [`EngineKind::Hybrid`] lowers them onto
    /// the fluid solver.
    pub engine: EngineKind,
    /// Number of streaming background flows sharing the pair's path
    /// (server access + client access links). Zero — the default, the
    /// paper's uncongested conditions — adds nothing at all.
    pub background_flows: u32,
    /// Emit a periodic heartbeat line on stderr while the simulation
    /// runs (sim time, event rate, RSS, ETA). Stderr only — never part
    /// of any byte-identity surface.
    pub progress: bool,
}

impl PairRunConfig {
    /// Standard config for a pair under the paper's conditions.
    pub fn new(seed: u64, set_id: u8, pair: ClipPair) -> PairRunConfig {
        PairRunConfig {
            seed,
            set_id,
            pair,
            ping_count: 4,
            access_loss: 0.0,
            telemetry: false,
            scheduler: SchedulerKind::default(),
            lineage: false,
            sessions: false,
            timeseries: false,
            ts_window_ns: 0,
            shards: ShardKind::Sequential,
            engine: EngineKind::Packet,
            background_flows: 0,
            progress: false,
        }
    }

    /// Same config with telemetry collection switched on.
    pub fn with_telemetry(mut self) -> PairRunConfig {
        self.telemetry = true;
        self
    }

    /// Same config with packet-lineage recording switched on (implies
    /// telemetry, which carries the dump).
    pub fn with_lineage(mut self) -> PairRunConfig {
        self.lineage = true;
        self.telemetry = true;
        self
    }

    /// Same config with per-session QoE rollups switched on (implies
    /// telemetry, which carries the dump).
    pub fn with_sessions(mut self) -> PairRunConfig {
        self.sessions = true;
        self.telemetry = true;
        self
    }

    /// Same config with an explicit event-queue engine.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> PairRunConfig {
        self.scheduler = scheduler;
        self
    }

    /// Same config with windowed time-series recording switched on
    /// (implies telemetry, which carries the dump). `window_ns` = 0
    /// selects the 1 s default window.
    pub fn with_timeseries(mut self, window_ns: u64) -> PairRunConfig {
        self.timeseries = true;
        self.ts_window_ns = window_ns;
        self.telemetry = true;
        self
    }

    /// Same config with the simulation partitioned into `n` shard
    /// domains, one worker thread per domain.
    pub fn with_shards(mut self, n: u16) -> PairRunConfig {
        self.shards = ShardKind::Sharded(n);
        self
    }

    /// Same config with `background_flows` cross-traffic flows run
    /// under `engine`.
    pub fn with_engine(mut self, engine: EngineKind, background_flows: u32) -> PairRunConfig {
        self.engine = engine;
        self.background_flows = background_flows;
        self
    }
}

/// Everything measured during one pair run.
#[derive(Debug)]
pub struct PairRunResult {
    /// The run's configuration echo.
    pub set_id: u8,
    /// Rate class of the pair.
    pub class: RateClass,
    /// Seed used.
    pub seed: u64,
    /// RealTracker's log.
    pub real: AppStatsLog,
    /// MediaTracker's log.
    pub wmp: AppStatsLog,
    /// The full client-side packet capture.
    pub capture: Capture,
    /// Ping before streaming.
    pub ping_before: PingReport,
    /// Ping after streaming.
    pub ping_after: PingReport,
    /// Traceroute before streaming.
    pub tracert_before: TracertReport,
    /// Traceroute after streaming.
    pub tracert_after: TracertReport,
    /// Server address the pair streamed from.
    pub server_addr: Ipv4Addr,
    /// Configured hop count of the path.
    pub configured_hops: usize,
    /// When (sim time) the streams were started — analysis windows are
    /// usually relative to this.
    pub stream_start: SimTime,
    /// Telemetry harvested from the run, when
    /// [`PairRunConfig::telemetry`] was set.
    pub telemetry: Option<RunTelemetry>,
    /// The fragment-group view of the two streams, `[RealPlayer,
    /// MediaPlayer]`, built from `capture` and `server_addr` on the
    /// first [`crate::analysis::stream_groups`] call and shared by
    /// every figure after it.
    pub(crate) stream_groups: OnceLock<[FragmentGroups; 2]>,
}

impl PairRunResult {
    /// §2.D's check: did the route stay stable across the run?
    /// True when hop counts match and median RTT moved by less than
    /// 50 %.
    pub fn route_stable(&self) -> bool {
        let hops_ok = self.tracert_before.hop_count() == self.tracert_after.hop_count();
        let rtt_ok = match (self.ping_before.median_rtt(), self.ping_after.median_rtt()) {
            (Some(a), Some(b)) => {
                let (a, b) = (a.as_secs_f64(), b.as_secs_f64());
                (a - b).abs() <= 0.5 * a.max(b)
            }
            _ => false,
        };
        hops_ok && rtt_ok
    }
}

/// The canned model background cross-traffic streams at: a
/// RealPlayer-like ~109 kbps steady flow with a 2× buffering burst for
/// its first five seconds, matching the paper's fitted shape.
pub fn background_model() -> turb_flowgen::TurbulenceModel {
    turb_flowgen::TurbulenceModel {
        player: turb_wire::media::PlayerId::RealPlayer,
        encoded_kbps: 100.0,
        datagram_sizes: turb_stats::EmpiricalSampler::from_samples(&[600.0, 700.0, 800.0, 900.0]),
        interarrivals: turb_stats::EmpiricalSampler::from_samples(&[0.04, 0.05, 0.06, 0.07]),
        fragment_fraction: 0.0,
        buffering_ratio: 2.0,
        burst_secs: 5.0,
    }
}

/// Execute one pair run.
pub fn run_pair(config: &PairRunConfig) -> PairRunResult {
    let label = format!(
        "set{}/{:?}/seed{}",
        config.set_id,
        config.pair.class(),
        config.seed
    );
    let timer = ScopeTimer::start("pair_run_wall_ns", &label);
    let mut sim = Simulation::with_scheduler(config.seed, config.scheduler);
    if config.lineage {
        sim.enable_lineage();
    }
    if config.sessions {
        let mut rec = turb_obs::SessionRecorder::new();
        let real_class = rec.add_class("real");
        let wmp_class = rec.add_class("wmp");
        // Stall thresholds derive from each clip's nominal packet
        // cadence: the time a typical payload (≈700 B Real, ≈1400 B
        // MediaPlayer) takes at the encoded rate.
        let real_interval_us = (700.0 * 8e6 / config.pair.real.encoded_bps().max(1) as f64) as u32;
        let wmp_interval_us = (1400.0 * 8e6 / config.pair.wmp.encoded_bps().max(1) as f64) as u32;
        let real_id = rec.add_session(real_class, real_interval_us);
        let wmp_id = rec.add_session(wmp_class, wmp_interval_us);
        debug_assert_eq!(real_id, turb_players::REAL_SESSION_ID);
        debug_assert_eq!(wmp_id, turb_players::WMP_SESSION_ID);
        sim.enable_sessions(rec, None);
    }
    if config.timeseries {
        sim.enable_timeseries(config.ts_window_ns);
    }
    if config.progress {
        // Horizon: the 8 s pre-check + double-duration stream window
        // (+90 s margin) + 10 s post-check the phases below run to.
        let horizon_ns = ((config.pair.real.duration_secs * 2.0 + 108.0) * 1e9) as u64;
        sim.set_progress(turb_obs::ProgressMeter::new(&label, horizon_ns));
    }
    sim.set_shards(config.shards);
    let mut rng = SimRng::new(config.seed ^ 0x7075_6c73_6172);

    let scenario = InternetScenario::build(&mut sim, &mut rng, &ScenarioConfig::default());
    let site = scenario.sites[usize::from(config.set_id - 1) % scenario.sites.len()].clone();

    if config.access_loss > 0.0 {
        let link = scenario.client_access_down;
        sim.core_mut().link_mut(link).fault =
            turb_netsim::FaultInjector::bernoulli(config.access_loss);
    }

    let capture = Sniffer::attach(&mut sim, scenario.client);

    // Background cross-traffic sharing the pair's path (the server and
    // client access links). Under the hybrid engine the population is
    // lowered onto the fluid solver — zero events per flow, the packet
    // path just sees reduced residual capacity; under the packet
    // engine every flow replays a synthetic schedule datagram by
    // datagram. Zero flows adds nothing at all, keeping the default
    // run byte-identical under either engine.
    if config.background_flows > 0 {
        let background_secs = config.pair.real.duration_secs * 2.0 + 110.0;
        match config.engine {
            EngineKind::Hybrid => {
                for _ in 0..config.background_flows {
                    sim.add_fluid_flow(turb_flowgen::fluid_flow_from_model(
                        &background_model(),
                        vec![site.server_access_down, scenario.client_access_down],
                        SimTime::ZERO,
                        background_secs,
                    ));
                }
            }
            EngineKind::Packet => {
                struct BackgroundSink;
                impl turb_netsim::sim::Application for BackgroundSink {}
                sim.add_app(
                    scenario.client,
                    Box::new(BackgroundSink),
                    Some(BACKGROUND_CLIENT_PORT),
                    false,
                );
                for i in 0..config.background_flows {
                    let mut generator = turb_flowgen::FlowGenerator::new(
                        background_model(),
                        SimRng::new(config.seed ^ 0xbac6_f10f ^ (u64::from(i) << 20)),
                    );
                    let schedule = generator.generate(background_secs);
                    sim.add_app(
                        site.server,
                        Box::new(turb_flowgen::SyntheticFlowApp::new(
                            schedule,
                            scenario.client_addr,
                            BACKGROUND_CLIENT_PORT,
                            7200 + (i % 400) as u16,
                            turb_wire::media::PlayerId::RealPlayer,
                        )),
                        None,
                        false,
                    );
                }
            }
        }
    }

    // Phase 1: pre-run network check.
    let ping_before = tools::spawn_ping(
        &mut sim,
        scenario.client,
        site.server_addr,
        config.ping_count,
        SimDuration::from_millis(500),
        SimDuration::ZERO,
        &mut rng,
    );
    let tracert_before = tools::spawn_tracert(
        &mut sim,
        scenario.client,
        site.server_addr,
        40001,
        48,
        SimDuration::from_secs(2),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(8));

    // Phase 2: stream the pair simultaneously.
    let stream_start = sim.now();
    let real_cfg = StreamConfig {
        clip: config.pair.real.clone(),
        server_addr: site.server_addr,
        server_port: REAL_SERVER_PORT,
        client_addr: scenario.client_addr,
        client_port: REAL_CLIENT_PORT,
        bottleneck_bps: site.bottleneck_bps,
    };
    let wmp_cfg = StreamConfig {
        clip: config.pair.wmp.clone(),
        server_addr: site.server_addr,
        server_port: WMP_SERVER_PORT,
        client_addr: scenario.client_addr,
        client_port: WMP_CLIENT_PORT,
        bottleneck_bps: site.bottleneck_bps,
    };
    let real = spawn_stream(&mut sim, site.server, scenario.client, real_cfg, &mut rng);
    let wmp = spawn_stream(&mut sim, site.server, scenario.client, wmp_cfg, &mut rng);

    let stream_window = SimDuration::from_secs_f64(config.pair.real.duration_secs * 2.0 + 90.0);
    sim.run_to_idle(stream_start + stream_window);

    // Phase 3: post-run network check.
    let check_start = sim.now().max(stream_start + stream_window);
    let ping_after = tools::spawn_ping(
        &mut sim,
        scenario.client,
        site.server_addr,
        config.ping_count,
        SimDuration::from_millis(500),
        SimDuration::ZERO,
        &mut rng,
    );
    let tracert_after = tools::spawn_tracert(
        &mut sim,
        scenario.client,
        site.server_addr,
        40002,
        48,
        SimDuration::from_secs(2),
    );
    sim.run_until(check_start + SimDuration::from_secs(10));

    let capture = sim.take_tap::<Capture>(capture);
    let real_log = real.take_log(&mut sim);
    let wmp_log = wmp.take_log(&mut sim);
    let mut telemetry = config.telemetry.then(|| {
        harvest(
            &label,
            &sim,
            &capture,
            &real_log,
            &wmp_log,
            timer.elapsed_ns(),
        )
    });
    if let Some(t) = telemetry.as_mut() {
        let dumps = sim.finish_observers();
        (t.lineage, t.series, t.sessions) = (dumps.lineage, dumps.series, dumps.sessions);
    }
    PairRunResult {
        set_id: config.set_id,
        class: config.pair.class(),
        seed: config.seed,
        real: real_log,
        wmp: wmp_log,
        capture,
        ping_before: sim.take_app::<PingApp>(ping_before).report,
        ping_after: sim.take_app::<PingApp>(ping_after).report,
        tracert_before: sim.take_app::<TracertApp>(tracert_before).report,
        tracert_after: sim.take_app::<TracertApp>(tracert_after).report,
        server_addr: site.server_addr,
        configured_hops: site.hop_count,
        stream_start,
        telemetry,
        stream_groups: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turb_media::corpus;

    fn short_pair() -> (u8, ClipPair) {
        // Set 2: the 39-second commercial — the fastest full run.
        let sets = corpus::table1();
        (2, sets[1].pair(RateClass::Low).unwrap().clone())
    }

    #[test]
    fn pair_run_produces_complete_measurements() {
        let (set_id, pair) = short_pair();
        let result = run_pair(&PairRunConfig::new(1234, set_id, pair));

        // Both trackers saw their full streams.
        assert!(result.real.stream_end.is_some());
        assert!(result.wmp.stream_end.is_some());
        assert_eq!(result.real.packets_lost, 0);
        assert_eq!(result.wmp.packets_lost, 0);

        // Path checks completed and agree with the configured topology.
        assert_eq!(result.ping_before.received, 4);
        assert_eq!(result.ping_after.received, 4);
        assert_eq!(
            result.tracert_before.hop_count(),
            Some(result.configured_hops)
        );
        assert!(result.route_stable());

        // The capture saw both streams (distinguished by client port).
        use turb_capture::Filter;
        let real_packets = result.capture.filtered(
            &Filter::stream_from(result.server_addr).and(Filter::PortIs(REAL_CLIENT_PORT)),
        );
        let wmp_packets = result.capture.filtered(
            &Filter::stream_from(result.server_addr).and(Filter::PortIs(WMP_CLIENT_PORT)),
        );
        assert!(real_packets.len() > 100, "{}", real_packets.len());
        assert!(wmp_packets.len() > 100, "{}", wmp_packets.len());
    }

    #[test]
    fn runs_are_reproducible_for_a_seed() {
        let (set_id, pair) = short_pair();
        let a = run_pair(&PairRunConfig::new(77, set_id, pair.clone()));
        let b = run_pair(&PairRunConfig::new(77, set_id, pair));
        assert_eq!(a.capture.len(), b.capture.len());
        assert_eq!(a.real.bytes_total, b.real.bytes_total);
        assert_eq!(a.wmp.bytes_total, b.wmp.bytes_total);
        assert_eq!(a.ping_before.median_rtt(), b.ping_before.median_rtt());
    }

    #[test]
    fn hybrid_engine_with_zero_background_is_byte_identical() {
        let (set_id, pair) = short_pair();
        let packet = run_pair(&PairRunConfig::new(31, set_id, pair.clone()).with_telemetry());
        let hybrid = run_pair(
            &PairRunConfig::new(31, set_id, pair)
                .with_telemetry()
                .with_engine(EngineKind::Hybrid, 0),
        );
        let (p, h) = (packet.telemetry.unwrap(), hybrid.telemetry.unwrap());
        // Counters (never wall-clock histograms) match byte for byte,
        // same discipline as the shard/scheduler identity tests.
        let counters = |t: &RunTelemetry| {
            t.metrics
                .counters()
                .map(|(n, c, v)| (n.to_string(), c.to_string(), v))
                .collect::<Vec<_>>()
        };
        assert_eq!(counters(&p), counters(&h));
        assert!(h.fluid.is_none(), "no flows, no solver");
    }

    #[test]
    fn hybrid_background_squeezes_the_foreground() {
        let (set_id, pair) = short_pair();
        let clean = run_pair(&PairRunConfig::new(31, set_id, pair.clone()));
        let contended = run_pair(
            &PairRunConfig::new(31, set_id, pair)
                .with_telemetry()
                .with_engine(EngineKind::Hybrid, 16),
        );
        let fluid = contended
            .telemetry
            .as_ref()
            .unwrap()
            .fluid
            .expect("hybrid background run carries fluid diag");
        assert_eq!(fluid.flows, 16);
        assert!(fluid.updates_applied > 0);
        // 16 × ~109 kbps against the ≤10 Mbit access path must slow
        // the streams relative to the clean run.
        let slower = contended.real.stream_end.unwrap() > clean.real.stream_end.unwrap()
            || contended.wmp.stream_end.unwrap() > clean.wmp.stream_end.unwrap()
            || contended.ping_after.median_rtt() > clean.ping_after.median_rtt();
        assert!(slower, "background pressure should be observable");
    }

    #[test]
    fn packet_background_replays_real_datagrams() {
        let (set_id, pair) = short_pair();
        let result = run_pair(
            &PairRunConfig::new(31, set_id, pair)
                .with_telemetry()
                .with_engine(EngineKind::Packet, 4),
        );
        assert!(result.telemetry.as_ref().unwrap().fluid.is_none());
        // The capture sees the background datagrams on their own port.
        use turb_capture::Filter;
        let background = result
            .capture
            .filtered(&Filter::PortIs(BACKGROUND_CLIENT_PORT));
        assert!(background.len() > 100, "{}", background.len());
    }

    #[test]
    fn access_loss_is_injected_when_asked() {
        let (set_id, pair) = short_pair();
        let mut config = PairRunConfig::new(55, set_id, pair);
        config.access_loss = 0.05;
        let result = run_pair(&config);
        let lost = result.real.packets_lost + result.wmp.packets_lost;
        assert!(lost > 0, "5 % loss should hit some of thousands of packets");
    }
}
