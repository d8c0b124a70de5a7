//! Pins the windowed-series, session-rollup and metrics exports to
//! committed FNV-1a values, as `tests/lineage_golden.rs` does for
//! lineage.
//!
//! - `SeriesDump::to_jsonl`/`to_csv`: what `turbulence watch` writes,
//!   for set 2's low-rate pair at 5% access loss and 1 s windows.
//! - `MetricsRegistry::render_text`: what `turbulence pair --metrics`
//!   prints for the same run, minus the wall-clock sketch
//!   (`pair_run_wall_ns`), the one metric that is not a function of
//!   the seed.
//! - `SessionDump::to_jsonl`/`to_csv`: what `turbulence sessions`
//!   writes, for a 10k-session fleet with rollups.
//!
//! Every pin is checked at seeds 7 and 42, on the sequential engine
//! and on two shard domains, which must agree.

use turb_media::{corpus, RateClass};
use turb_netsim::ShardKind;
use turbulence::population::{run_fleet, FleetRunConfig};
use turbulence::scale::fnv1a;
use turbulence::{run_pair, PairRunConfig};

/// FNV-1a of one lossy pair run's series and metrics exports.
#[derive(Debug, PartialEq, Eq)]
struct PairPins {
    series_jsonl: u64,
    series_csv: u64,
    metrics_text: u64,
}

/// FNV-1a of one fleet's rollup exports.
#[derive(Debug, PartialEq, Eq)]
struct FleetPins {
    sessions_jsonl: u64,
    sessions_csv: u64,
}

/// Set 2's low-rate pair with 5% Bernoulli loss on the access link and
/// 1 s windowed series.
fn lossy_config(seed: u64) -> PairRunConfig {
    let sets = corpus::table1();
    let mut config = PairRunConfig::new(seed, 2, sets[1].pair(RateClass::Low).unwrap().clone())
        .with_timeseries(0);
    config.access_loss = 0.05;
    config
}

fn assert_pair_pinned(seed: u64, expected: PairPins) {
    let config = lossy_config(seed);
    for config in [config.clone(), config.with_shards(2)] {
        let shards = config.shards;
        let result = run_pair(&config);
        let telemetry = result.telemetry.as_ref().expect("series imply telemetry");
        let series = telemetry.series.as_ref().expect("series were requested");
        let metrics: String = telemetry
            .metrics
            .render_text()
            .lines()
            .filter(|line| !line.starts_with("pair_run_wall_ns"))
            .flat_map(|line| [line, "\n"])
            .collect();
        let got = PairPins {
            series_jsonl: fnv1a(series.to_jsonl().as_bytes()),
            series_csv: fnv1a(series.to_csv().as_bytes()),
            metrics_text: fnv1a(metrics.as_bytes()),
        };
        assert!(
            got == expected,
            "series/metrics exports changed at seed {seed} ({shards:?}): {got:#x?}"
        );
    }
}

fn assert_fleet_pinned(seed: u64, expected: FleetPins) {
    for shards in [ShardKind::Sequential, ShardKind::Sharded(2)] {
        let result = run_fleet(&FleetRunConfig {
            sessions: 10_000,
            rollups: true,
            shards,
            ..FleetRunConfig::new(seed)
        });
        let dump = result.rollups.as_ref().expect("rollups were requested");
        let got = FleetPins {
            sessions_jsonl: fnv1a(dump.to_jsonl().as_bytes()),
            sessions_csv: fnv1a(dump.to_csv().as_bytes()),
        };
        assert!(
            got == expected,
            "session exports changed at seed {seed} ({shards:?}): {got:#x?}"
        );
    }
}

#[test]
fn lossy_pair_series_and_metrics_are_pinned_at_seed_7() {
    assert_pair_pinned(
        7,
        PairPins {
            series_jsonl: 0xdfe4_8fd6_8d56_6d69,
            series_csv: 0xb3cb_564f_a073_937a,
            metrics_text: 0x64ea_3364_80ea_e183,
        },
    );
}

#[test]
fn lossy_pair_series_and_metrics_are_pinned_at_seed_42() {
    assert_pair_pinned(
        42,
        PairPins {
            series_jsonl: 0x4ee6_5d7e_c425_e90f,
            series_csv: 0x6730_8fcc_6e89_630e,
            metrics_text: 0x8485_4f47_8016_2917,
        },
    );
}

#[test]
fn fleet_session_exports_are_pinned_at_seed_7() {
    assert_fleet_pinned(
        7,
        FleetPins {
            sessions_jsonl: 0xc9b1_a8d4_fa42_c2d6,
            sessions_csv: 0x36c8_e747_f01c_5394,
        },
    );
}

#[test]
fn fleet_session_exports_are_pinned_at_seed_42() {
    assert_fleet_pinned(
        42,
        FleetPins {
            sessions_jsonl: 0x1fa7_8e2c_7bc1_8d2f,
            sessions_csv: 0x6c9c_650f_9743_3925,
        },
    );
}
