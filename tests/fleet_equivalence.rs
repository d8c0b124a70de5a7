//! Fleet determinism: a session population is a deterministic replay.
//! The population table is drawn up front from the seed, the fleet
//! drivers walk it through the ordinary `(time, seq)` event order, and
//! the figure pipeline aggregates with commutative sums — so the
//! rendered figures and the run digest must be byte-identical across
//! shard counts, lineage on/off, and (at zero background) engine
//! choice. Proven here the same way
//! `shard_equivalence` and `fluid_equivalence` prove it for the pair
//! and scale harnesses.

use turb_netsim::{EngineKind, ShardKind};
use turbulence::population::{run_fleet, ArrivalProcess, FleetRunConfig, FleetRunResult};

const SEEDS: [u64; 2] = [42, 1003];

fn fleet(seed: u64) -> FleetRunConfig {
    FleetRunConfig {
        sessions: 1000,
        groups: 8,
        ..FleetRunConfig::new(seed)
    }
}

fn run(config: FleetRunConfig) -> FleetRunResult {
    let result = run_fleet(&config);
    assert!(result.fg_delivered > 0, "a silent fleet proves nothing");
    result
}

#[test]
fn figures_are_identical_across_shards() {
    for seed in SEEDS {
        let base = run(fleet(seed));
        for shards in [ShardKind::Sequential, ShardKind::Sharded(4)] {
            let other = run(FleetRunConfig {
                shards,
                ..fleet(seed)
            });
            assert_eq!(
                base.figures, other.figures,
                "figures diverged (seed {seed}, {shards:?})"
            );
            assert_eq!(
                base.digest, other.digest,
                "digest diverged (seed {seed}, {shards:?})"
            );
            assert_eq!(base.events_processed, other.events_processed);
        }
    }
}

#[test]
fn zero_background_fleet_is_engine_identical() {
    for seed in SEEDS {
        let configure = |engine: EngineKind, shards: ShardKind| FleetRunConfig {
            engine,
            shards,
            background_permille: 0,
            ..fleet(seed)
        };
        let packet = run(configure(EngineKind::Packet, ShardKind::Sequential));
        for shards in [ShardKind::Sequential, ShardKind::Sharded(4)] {
            let hybrid = run(configure(EngineKind::Hybrid, shards));
            assert_eq!(
                packet.figures, hybrid.figures,
                "engines diverged at zero background (seed {seed}, {shards:?})"
            );
            assert_eq!(packet.digest, hybrid.digest, "seed {seed}, {shards:?}");
            assert!(
                hybrid.fluid.is_none(),
                "idle fluid path grew a solver (seed {seed})"
            );
        }
    }
}

#[test]
fn hybrid_fleet_digest_is_stable_across_shard_counts() {
    // Poisson arrivals, and the bursty MMPP process thinned by the
    // diurnal curve. On a host with fewer than 8 cores, every barrier
    // wait at 8 domains parks instead of spinning.
    let bursty = |seed| FleetRunConfig {
        arrival: ArrivalProcess::Mmpp {
            fast_per_sec: 400.0,
            slow_per_sec: 50.0,
            mean_dwell_secs: 10.0,
        },
        diurnal: true,
        ..fleet(seed)
    };
    for seed in SEEDS {
        for base in [fleet(seed), bursty(seed)] {
            let configure = |shards: ShardKind| FleetRunConfig {
                engine: EngineKind::Hybrid,
                shards,
                ..base.clone()
            };
            let seq = run(configure(ShardKind::Sequential));
            let diag = seq.fluid.expect("background sessions ride the solver");
            assert!(diag.flows > 0);
            for n in [1u16, 4, 8] {
                let shd = run(configure(ShardKind::Sharded(n)));
                let at = format!("seed {seed}, {:?}, {n} shards", base.arrival);
                assert_eq!(seq.figures, shd.figures, "{at}");
                assert_eq!(seq.digest, shd.digest, "{at}");
            }
        }
    }
}

#[test]
fn lineage_recording_does_not_change_the_figures() {
    for seed in SEEDS {
        let plain = run(fleet(seed));
        let traced = run(FleetRunConfig {
            lineage: true,
            ..fleet(seed)
        });
        assert_eq!(
            plain.figures, traced.figures,
            "lineage recording perturbed the figures (seed {seed})"
        );
        assert_eq!(plain.digest, traced.digest, "seed {seed}");
    }
}

#[test]
fn background_class_actually_pressures_the_ring() {
    // Not an identity test: the hybrid background must leave a trace
    // on the shared links, or the fleet's two classes never met.
    let calm = run(FleetRunConfig {
        background_permille: 0,
        ..fleet(42)
    });
    let squeezed = run(FleetRunConfig {
        engine: EngineKind::Hybrid,
        background_permille: 600,
        ..fleet(42)
    });
    assert_ne!(
        calm.digest, squeezed.digest,
        "the background class left no trace on the foreground"
    );
}
