//! Pins every lineage export to committed FNV-1a values.
//!
//! `tests/lineage.rs` and the shard/session equivalence suites compare
//! one run's dump against another run's, so a change that alters every
//! run the same way passes them all. This file pins the exports
//! themselves: the Perfetto (Chrome trace-event) JSON, the drop
//! post-mortem entries, the outcome counts and the four stage-latency
//! sample vectors of set 2's pairs at 5% access loss, plus the
//! Perfetto export of a 10k-session fleet's sampled lineage. The
//! low-rate pair is the `timeline` command's example run; the
//! high-rate pair fragments, so it is the one that pins reassembly.
//! Every pin is checked at seeds 7 and 42, on the sequential engine
//! and on two shard domains, which must agree.

use turb_media::{corpus, RateClass};
use turb_netsim::ShardKind;
use turb_obs::lineage::{self, LineageDump};
use turbulence::population::{run_fleet, FleetRunConfig};
use turbulence::scale::fnv1a;
use turbulence::{run_pair, PairRunConfig};

/// FNV-1a of one pair run's lineage exports.
#[derive(Debug, PartialEq, Eq)]
struct PairPins {
    chrome_trace: u64,
    post_mortem: u64,
    outcome_counts: u64,
    hop_ns: u64,
    reasm_ns: u64,
    residency_ns: u64,
    e2e_ns: u64,
}

/// FNV-1a of no bytes: the hash of an empty sample vector.
const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of a sample vector's f64 bit patterns, little-endian.
fn samples_hash(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn pair_pins(dump: &LineageDump) -> PairPins {
    let samples = lineage::stage_samples(dump);
    PairPins {
        chrome_trace: fnv1a(lineage::to_chrome_trace(dump).as_bytes()),
        post_mortem: fnv1a(format!("{:?}", lineage::post_mortem(dump).entries).as_bytes()),
        outcome_counts: fnv1a(format!("{:?}", dump.outcome_counts()).as_bytes()),
        hop_ns: samples_hash(&samples.hop_ns),
        reasm_ns: samples_hash(&samples.reasm_ns),
        residency_ns: samples_hash(&samples.residency_ns),
        e2e_ns: samples_hash(&samples.e2e_ns),
    }
}

/// One of set 2's pairs with 5% Bernoulli loss on the access link.
fn lossy_config(seed: u64, class: RateClass) -> PairRunConfig {
    let sets = corpus::table1();
    let mut config =
        PairRunConfig::new(seed, 2, sets[1].pair(class).unwrap().clone()).with_lineage();
    config.access_loss = 0.05;
    config
}

fn assert_pair_pinned(seed: u64, class: RateClass, expected: PairPins) {
    let config = lossy_config(seed, class);
    for config in [config.clone(), config.with_shards(2)] {
        let shards = config.shards;
        let result = run_pair(&config);
        let dump = result
            .telemetry
            .as_ref()
            .and_then(|t| t.lineage.as_ref())
            .expect("lineage was requested for this run");
        assert_eq!(dump.dropped, 0, "the pinned run must fit the recorder cap");
        let got = pair_pins(dump);
        assert!(
            got == expected,
            "lineage exports changed at seed {seed}, {class:?} ({shards:?}): {got:#x?}"
        );
    }
}

/// FNV-1a of the Perfetto export of a 10k-session fleet's sampled
/// lineage, sequential and on two shard domains.
fn assert_fleet_pinned(seed: u64, expected: u64) {
    for shards in [ShardKind::Sequential, ShardKind::Sharded(2)] {
        let result = run_fleet(&FleetRunConfig {
            sessions: 10_000,
            rollups: true,
            shards,
            ..FleetRunConfig::new(seed)
        });
        let dump = result.lineage.as_ref().expect("sampling is on by default");
        assert_eq!(
            dump.dropped, 0,
            "the pinned fleet must fit the recorder cap"
        );
        let got = fnv1a(lineage::to_chrome_trace(dump).as_bytes());
        assert_eq!(
            got, expected,
            "fleet lineage export changed at seed {seed} ({shards:?}): {got:#018x}"
        );
    }
}

#[test]
fn low_rate_pair_lineage_is_pinned_at_seed_7() {
    assert_pair_pinned(
        7,
        RateClass::Low,
        PairPins {
            chrome_trace: 0x4c0c_4535_fce3_0d38,
            post_mortem: 0xa9a7_1a2b_7f29_7ff5,
            outcome_counts: 0x6ada_d668_711d_2f5c,
            hop_ns: 0x5bf4_ed77_7d46_d9ef,
            reasm_ns: EMPTY,
            residency_ns: 0x017f_7029_37eb_4ffe,
            e2e_ns: 0xdcb9_4a31_5d42_8e00,
        },
    );
}

#[test]
fn low_rate_pair_lineage_is_pinned_at_seed_42() {
    assert_pair_pinned(
        42,
        RateClass::Low,
        PairPins {
            chrome_trace: 0x98fd_3d58_2145_c1a3,
            post_mortem: 0x6975_19de_329e_0051,
            outcome_counts: 0xd418_a58f_7025_a38a,
            hop_ns: 0x2553_d5db_3109_104a,
            reasm_ns: EMPTY,
            residency_ns: 0x347e_20a7_e8a6_9076,
            e2e_ns: 0x1702_b4b5_7a34_de4a,
        },
    );
}

#[test]
fn high_rate_pair_lineage_is_pinned_at_seed_7() {
    assert_pair_pinned(
        7,
        RateClass::High,
        PairPins {
            chrome_trace: 0x291d_bcc0_6f00_637c,
            post_mortem: 0xb220_b02a_db59_d453,
            outcome_counts: 0xa88a_8080_ad29_d076,
            hop_ns: 0xbee8_a8cb_76f7_bf16,
            reasm_ns: 0x1023_24cc_a646_bee1,
            residency_ns: 0xe5dd_9adc_ab39_a859,
            e2e_ns: 0x333d_7e8a_1d6b_19bc,
        },
    );
}

#[test]
fn high_rate_pair_lineage_is_pinned_at_seed_42() {
    assert_pair_pinned(
        42,
        RateClass::High,
        PairPins {
            chrome_trace: 0x7273_7aeb_3338_1372,
            post_mortem: 0x17b9_c2c0_eaf2_fb82,
            outcome_counts: 0x5058_3588_84d3_c3c5,
            hop_ns: 0x7101_c197_cc74_a9c2,
            reasm_ns: 0x72ce_6fa7_518b_9cea,
            residency_ns: 0x5e65_74e6_86a1_5988,
            e2e_ns: 0x0961_3d56_1d2d_ab41,
        },
    );
}

#[test]
fn fleet_lineage_export_is_pinned_at_seed_7() {
    assert_fleet_pinned(7, 0x55fa_7750_1c0c_d224);
}

#[test]
fn fleet_lineage_export_is_pinned_at_seed_42() {
    assert_fleet_pinned(42, 0x457b_6dbc_1272_4a30);
}
