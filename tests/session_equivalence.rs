//! Session-observability determinism: rollups and sampled lineage are
//! *views* of the run, never participants in it. Three claims are
//! enforced here (DESIGN.md §5):
//!
//! 1. The rollup dump — every per-session QoE record, serialized
//!    through its fixed JSONL schema — is byte-identical across shard
//!    counts and (at zero background) engine choice, because rollup mutations commute and the dump is keyed
//!    by session id, not arrival order.
//! 2. Sampled lineage is governed by a pure hash of (seed, session
//!    id), so the sampled span set and every event in it are identical
//!    across the same matrix — the drill-down a laptop shows is the
//!    drill-down a 32-core CI box shows.
//! 3. Rollups reconcile 1:1 with the always-on counters: summed sends
//!    equal the offered load, summed deliveries equal the ledger, and
//!    the recorder's memory stays within the ≤128 B/session budget
//!    (plus a small fixed overhead for class tables and sketches).

use turb_netsim::{EngineKind, ShardKind};
use turbulence::population::{run_fleet, FleetRunConfig, FleetRunResult};

const SEEDS: [u64; 3] = [11, 42, 1003];

/// A small fleet with rollups on and a sampling rate high enough that
/// every run traces a meaningful span population.
fn fleet(seed: u64) -> FleetRunConfig {
    FleetRunConfig {
        sessions: 240,
        groups: 4,
        rollups: true,
        sample_permille: 100,
        ..FleetRunConfig::new(seed)
    }
}

fn run(config: FleetRunConfig) -> FleetRunResult {
    let result = run_fleet(&config);
    assert!(result.fg_delivered > 0, "a silent fleet proves nothing");
    assert!(
        result.rollups.is_some(),
        "rollups were requested for this run"
    );
    result
}

#[test]
fn rollups_and_sampled_lineage_are_identical_across_shards() {
    for seed in SEEDS {
        let base = run(fleet(seed));
        let base_jsonl = base.rollups.as_ref().unwrap().to_jsonl();
        let base_lineage = base.lineage.as_ref().expect("sampling was on");
        assert!(
            !base_lineage.origins.is_empty(),
            "no sessions sampled at 100 permille (seed {seed})"
        );
        for shards in [
            ShardKind::Sequential,
            ShardKind::Sharded(2),
            ShardKind::Sharded(4),
        ] {
            let other = run(FleetRunConfig {
                shards,
                ..fleet(seed)
            });
            assert_eq!(
                base.digest, other.digest,
                "run digest diverged (seed {seed}, {shards:?})"
            );
            assert_eq!(
                base_jsonl,
                other.rollups.as_ref().unwrap().to_jsonl(),
                "rollup JSONL diverged (seed {seed}, {shards:?})"
            );
            assert_eq!(
                base_lineage,
                other.lineage.as_ref().unwrap(),
                "sampled lineage diverged (seed {seed}, {shards:?})"
            );
        }
    }
}

#[test]
fn rollups_and_sampled_lineage_are_engine_invariant_at_zero_background() {
    for seed in SEEDS {
        let configure = |engine: EngineKind| FleetRunConfig {
            engine,
            background_permille: 0,
            ..fleet(seed)
        };
        let packet = run(configure(EngineKind::Packet));
        let hybrid = run(configure(EngineKind::Hybrid));
        assert_eq!(packet.digest, hybrid.digest, "seed {seed}");
        assert_eq!(
            packet.rollups.as_ref().unwrap().to_jsonl(),
            hybrid.rollups.as_ref().unwrap().to_jsonl(),
            "rollup JSONL diverged across engines (seed {seed})"
        );
        assert_eq!(
            packet.lineage.as_ref().unwrap(),
            hybrid.lineage.as_ref().unwrap(),
            "sampled lineage diverged across engines (seed {seed})"
        );
    }
}

#[test]
fn rollups_reconcile_with_counters_and_stay_in_budget() {
    for seed in SEEDS {
        let result = run(fleet(seed));
        let dump = result.rollups.as_ref().unwrap();
        let totals = dump.totals();
        // Every fleet datagram is tagged at packetize time, so the
        // rollup sums must equal the always-on load accounting exactly
        // — not approximately.
        assert_eq!(
            totals.datagrams_sent,
            result.fg_offered + result.bg_offered,
            "rollup sends != offered load (seed {seed})"
        );
        assert_eq!(
            totals.datagrams_delivered,
            result.fg_delivered + result.bg_delivered,
            "rollup deliveries != ledger (seed {seed})"
        );
        assert_eq!(
            dump.unknown_session_events, 0,
            "events carried unregistered session ids (seed {seed})"
        );
        // ≤128 B per rollup (the marginal cost of one more session)
        // plus a bounded fixed term for the class tables and per-class
        // sketches, which do not grow with the population.
        assert!(
            dump.memory_bytes <= dump.rollups.len() as u64 * 129 + 16_384,
            "session memory {} B over budget for {} sessions (seed {seed})",
            dump.memory_bytes,
            dump.rollups.len(),
        );
        // At the default rates the 4M-event recorder must never evict.
        let lineage = result.lineage.as_ref().unwrap();
        assert_eq!(
            lineage.dropped, 0,
            "lineage recorder evicted events (seed {seed})"
        );
        // Sampling is a strict subset keyed on session id: every traced
        // media span belongs to an admitted session.
        let sampler = turb_obs::SessionSampler::new(seed, fleet(seed).sample_permille);
        for origin in &lineage.origins {
            if let Some(meta) = origin.meta {
                assert!(
                    sampler.admits(meta.sequence),
                    "span traced for unsampled session {} (seed {seed})",
                    meta.sequence,
                );
            }
        }
    }
}

#[test]
fn observability_never_perturbs_the_run() {
    for seed in SEEDS {
        let plain = run_fleet(&FleetRunConfig {
            rollups: false,
            ..fleet(seed)
        });
        let observed = run(fleet(seed));
        assert_eq!(
            plain.digest, observed.digest,
            "rollups+sampling changed the run (seed {seed})"
        );
        assert_eq!(plain.figures, observed.figures, "seed {seed}");
        assert_eq!(plain.events_processed, observed.events_processed);
    }
}
