//! The scale harness: one large replicated-client simulation, run
//! sequentially or sharded, digested into a few comparable numbers.
//!
//! This is the workload the shard engine exists for — tens of
//! thousands of pending events spread across loosely-coupled site
//! groups — and the digest is how `turbulence scale` and the
//! equivalence tests assert that sharding changed the wall clock and
//! nothing else.

use turb_netsim::topology::{ScaleConfig, ScaleScenario};
use turb_netsim::{FluidDiag, ShardDiag, ShardKind, SimDuration, SimTime, Simulation};
use turb_obs::MetricsRegistry;

/// Configuration of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleRunConfig {
    /// Deterministic seed (topology construction draws per-entity
    /// streams from it; the traffic matrix itself is seed-free).
    pub seed: u64,
    /// The scenario shape.
    pub scenario: ScaleConfig,
    /// Execution strategy: sequential or sharded.
    pub shards: ShardKind,
    /// Emit a periodic heartbeat line on stderr while the run is in
    /// flight (sim time, event rate, RSS, ETA). Stderr only — never
    /// part of the digest.
    pub progress: bool,
}

/// What one scale run produced.
#[derive(Debug, Clone)]
pub struct ScaleRunResult {
    /// Wall-clock time of the simulation loop, nanoseconds.
    pub wall_ns: u64,
    /// Events the engine processed.
    pub events_processed: u64,
    /// Datagrams the sinks absorbed.
    pub datagrams: u64,
    /// Payload bytes the sinks absorbed.
    pub bytes: u64,
    /// FNV-1a digest over the run's externally visible results
    /// (metrics text, sink totals, event counters). Identical digests
    /// at different shard counts mean the runs were byte-identical.
    pub digest: u64,
    /// Shard-engine diagnostics; `None` for sequential runs.
    pub diag: Option<ShardDiag>,
    /// Fluid-solver diagnostics; `None` unless the run carried
    /// hybrid-engine background flows.
    pub fluid: Option<FluidDiag>,
    /// Datagrams absorbed by the packet-engine background sinks
    /// (always zero under the hybrid engine).
    pub background_datagrams: u64,
}

/// FNV-1a 64 over a byte slice — dependency-free content digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Execute one scale run.
pub fn run_scale(config: &ScaleRunConfig) -> ScaleRunResult {
    let mut sim = Simulation::new(config.seed);
    sim.set_shards(config.shards);
    let scenario = ScaleScenario::build(&mut sim, &config.scenario);

    // Generous ceiling: every client finishes sending well before
    // sends + drain time, and `run_to_idle` exits as soon as the last
    // event drains.
    let send_phase_ns = config.scenario.send_interval.as_nanos()
        * u64::from(config.scenario.packets_per_client.max(1));
    let limit = SimTime::ZERO + SimDuration::from_nanos(send_phase_ns) + SimDuration::from_secs(10);
    if config.progress {
        sim.set_progress(turb_obs::ProgressMeter::new("scale", limit.as_nanos()));
    }

    let start = std::time::Instant::now();
    sim.run_to_idle(limit);
    let wall_ns = start.elapsed().as_nanos() as u64;

    let mut registry = MetricsRegistry::new();
    sim.collect_metrics(&mut registry);
    let stats = sim.sim_stats();
    let (total, background) = scenario.take_totals(&mut sim);

    let mut blob = registry.render_text().into_bytes();
    blob.extend_from_slice(&stats.events_processed.to_le_bytes());
    blob.extend_from_slice(&stats.events_scheduled.to_le_bytes());
    blob.extend_from_slice(&total.datagrams.to_le_bytes());
    blob.extend_from_slice(&total.bytes.to_le_bytes());

    ScaleRunResult {
        wall_ns,
        events_processed: stats.events_processed,
        datagrams: total.datagrams,
        bytes: total.bytes,
        digest: fnv1a(&blob),
        diag: sim.shard_diag(),
        fluid: sim.fluid_diag(),
        background_datagrams: background.datagrams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use turb_netsim::EngineKind;

    fn small() -> ScaleConfig {
        ScaleConfig {
            groups: 4,
            clients_per_group: 8,
            packets_per_client: 4,
            send_interval: SimDuration::from_millis(20),
            payload_bytes: 200,
            ..ScaleConfig::default()
        }
    }

    #[test]
    fn digest_is_shard_invariant() {
        let mut digests = Vec::new();
        for shards in [
            ShardKind::Sequential,
            ShardKind::Sharded(2),
            ShardKind::Sharded(4),
        ] {
            let result = run_scale(&ScaleRunConfig {
                seed: 9,
                scenario: small(),
                shards,
                progress: false,
            });
            assert_eq!(result.datagrams, 4 * 8 * 4);
            digests.push(result.digest);
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn sharded_run_reports_diagnostics() {
        let result = run_scale(&ScaleRunConfig {
            seed: 9,
            scenario: small(),
            shards: ShardKind::Sharded(4),
            progress: false,
        });
        let diag = result.diag.expect("sharded run exposes diagnostics");
        assert_eq!(diag.shards, 4);
        // The ring cuts are the 5 ms inter-group links.
        assert_eq!(diag.lookahead_ns, 5_000_000);
        assert!(diag.transits > 0, "cross-group traffic crosses the cut");
        let seq = run_scale(&ScaleRunConfig {
            seed: 9,
            scenario: small(),
            shards: ShardKind::Sequential,
            progress: false,
        });
        assert!(seq.diag.is_none());
        assert_eq!(seq.events_processed, result.events_processed);
    }

    #[test]
    fn hybrid_background_digest_is_shard_invariant() {
        let scenario = ScaleConfig {
            background_flows: 24,
            engine: EngineKind::Hybrid,
            ..small()
        };
        let mut digests = Vec::new();
        for shards in [
            ShardKind::Sequential,
            ShardKind::Sharded(2),
            ShardKind::Sharded(4),
        ] {
            let result = run_scale(&ScaleRunConfig {
                seed: 9,
                scenario: scenario.clone(),
                shards,
                progress: false,
            });
            let fluid = result.fluid.expect("hybrid run exposes fluid diag");
            assert_eq!(fluid.flows, 24);
            assert!(fluid.updates_applied > 0);
            assert_eq!(result.background_datagrams, 0);
            digests.push(result.digest);
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn zero_background_hybrid_digest_matches_packet() {
        let run = |engine: EngineKind| {
            run_scale(&ScaleRunConfig {
                seed: 9,
                scenario: ScaleConfig { engine, ..small() },
                shards: ShardKind::Sequential,
                progress: false,
            })
        };
        let packet = run(EngineKind::Packet);
        let hybrid = run(EngineKind::Hybrid);
        assert_eq!(packet.digest, hybrid.digest);
        assert!(hybrid.fluid.is_none());
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
