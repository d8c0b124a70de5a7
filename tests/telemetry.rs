//! Observability integration tests.
//!
//! Two properties are load-bearing:
//!
//! 1. **No perturbation** — enabling telemetry must not change a run.
//!    Telemetry never draws randomness and never schedules events, so a
//!    seed must produce byte-identical results with it on or off.
//! 2. **Cross-layer consistency** — the counters the simulator keeps
//!    must agree with what an independent observer (the sniffer) sees
//!    on the wire.

use std::net::Ipv4Addr;
use turb_capture::{Capture, Filter, FragmentGroups, Sniffer};
use turb_media::{corpus, RateClass};
use turb_netsim::prelude::*;
use turbulence::runner::CorpusResult;
use turbulence::{figures, run_pair, PairRunConfig};

fn short_config(seed: u64, class: RateClass) -> PairRunConfig {
    // Set 2: the 39-second commercial — the fastest full run.
    let sets = corpus::table1();
    PairRunConfig::new(seed, 2, sets[1].pair(class).unwrap().clone())
}

#[test]
fn telemetry_does_not_perturb_figure_data() {
    // Same seed, telemetry off vs on: the figure rows must be
    // byte-identical, not merely close.
    let off = run_pair(&short_config(4242, RateClass::High));
    let on = run_pair(&short_config(4242, RateClass::High).with_telemetry());

    assert!(off.telemetry.is_none());
    assert!(on.telemetry.is_some());

    assert_eq!(off.capture.len(), on.capture.len());
    assert_eq!(off.real.bytes_total, on.real.bytes_total);
    assert_eq!(off.wmp.bytes_total, on.wmp.bytes_total);
    assert_eq!(off.ping_before.median_rtt(), on.ping_before.median_rtt());

    let fig_off = figures::fig05_fragmentation(&CorpusResult {
        runs: vec![off],
        threads: 1,
    });
    let fig_on = figures::fig05_fragmentation(&CorpusResult {
        runs: vec![on],
        threads: 1,
    });
    assert_eq!(
        format!("{fig_off:?}"),
        format!("{fig_on:?}"),
        "fig05 rows must be byte-identical with telemetry on or off"
    );
}

#[test]
fn counters_are_identical_across_same_seed_runs() {
    let a = run_pair(&short_config(97, RateClass::Low).with_telemetry());
    let b = run_pair(&short_config(97, RateClass::Low).with_telemetry());
    let ta = a.telemetry.unwrap();
    let tb = b.telemetry.unwrap();

    // Counters (unlike the wall-clock histogram) are functions of the
    // seed alone.
    let ca: Vec<(&str, String, u64)> = ta
        .metrics
        .counters()
        .map(|(n, c, v)| (n, c.to_string(), v))
        .collect();
    let cb: Vec<(&str, String, u64)> = tb
        .metrics
        .counters()
        .map(|(n, c, v)| (n, c.to_string(), v))
        .collect();
    assert_eq!(ca, cb);
    assert!(!ca.is_empty());

    // And the reports agree everywhere except wall clock.
    let mut ra = ta.report.clone();
    let mut rb = tb.report.clone();
    ra.wall_ns = 0;
    rb.wall_ns = 0;
    assert_eq!(ra, rb);
}

#[test]
fn lineage_does_not_perturb_reports_counters_or_trace() {
    // Same seed, lineage off vs on, sequentially: the report and the
    // counters must be byte-identical — only the dump (outside the
    // identity set) may differ.
    let off = run_pair(&short_config(515, RateClass::Low).with_telemetry());
    let on = run_pair(&short_config(515, RateClass::Low).with_lineage());
    let toff = off.telemetry.unwrap();
    let ton = on.telemetry.unwrap();

    assert!(toff.lineage.is_none());
    let dump = ton.lineage.as_ref().expect("lineage dump present");
    dump.validate().unwrap();
    assert!(dump.origins.len() > 100, "{} spans", dump.origins.len());

    let mut ra = toff.report.clone();
    let mut rb = ton.report.clone();
    ra.wall_ns = 0;
    rb.wall_ns = 0;
    assert_eq!(ra, rb);

    let ca: Vec<(&str, String, u64)> = toff
        .metrics
        .counters()
        .map(|(n, c, v)| (n, c.to_string(), v))
        .collect();
    let cb: Vec<(&str, String, u64)> = ton
        .metrics
        .counters()
        .map(|(n, c, v)| (n, c.to_string(), v))
        .collect();
    assert_eq!(ca, cb);
}

#[test]
fn lineage_identity_holds_under_the_parallel_runner() {
    // Lineage off run sequentially vs lineage on across 4 worker
    // threads: figures, per-run reports and counters must all be
    // byte-identical, and every dump must still validate.
    use turbulence::runner;
    let mk = |lineage: bool| {
        let sets = corpus::table1();
        let mut configs = vec![
            PairRunConfig::new(901, 2, sets[1].pair(RateClass::Low).unwrap().clone()),
            PairRunConfig::new(902, 2, sets[1].pair(RateClass::High).unwrap().clone()),
            PairRunConfig::new(903, 2, sets[1].pair(RateClass::Low).unwrap().clone()),
            PairRunConfig::new(904, 2, sets[1].pair(RateClass::High).unwrap().clone()),
        ];
        for config in &mut configs {
            config.telemetry = true;
            config.lineage = lineage;
        }
        configs
    };
    let seq_off = runner::run_configs(&mk(false));
    let par_on = runner::run_configs_parallel(&mk(true), 4);

    assert_eq!(seq_off.runs.len(), par_on.runs.len());
    assert_eq!(figures::digest(&seq_off), figures::digest(&par_on));
    for (off, on) in seq_off.runs.iter().zip(&par_on.runs) {
        let toff = off.telemetry.as_ref().unwrap();
        let ton = on.telemetry.as_ref().unwrap();
        let mut ra = toff.report.clone();
        let mut rb = ton.report.clone();
        ra.wall_ns = 0;
        rb.wall_ns = 0;
        assert_eq!(ra, rb);
        let ca: Vec<(&str, String, u64)> = toff
            .metrics
            .counters()
            .map(|(n, c, v)| (n, c.to_string(), v))
            .collect();
        let cb: Vec<(&str, String, u64)> = ton
            .metrics
            .counters()
            .map(|(n, c, v)| (n, c.to_string(), v))
            .collect();
        assert_eq!(ca, cb);
        assert!(toff.lineage.is_none());
        ton.lineage
            .as_ref()
            .expect("lineage dump present")
            .validate()
            .unwrap();
    }
}

/// Sends `count` payloads of `size` bytes, `gap` apart, then one small
/// flush datagram `flush_after` later (its arrival forces the
/// receiver's reassembler to expire stale partial groups).
struct Blaster {
    peer: Ipv4Addr,
    count: u32,
    size: usize,
    gap: SimDuration,
    flush_after: SimDuration,
    sent: u32,
    flushes: u32,
}

impl Application for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer_after(SimDuration::ZERO, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == 1 {
            // Several flushes so loss on the link cannot swallow them
            // all and leave stale partial groups unexpired.
            ctx.send_udp(5000, self.peer, 6000, bytes::Bytes::from_static(b"flush"));
            self.flushes += 1;
            if self.flushes < 5 {
                ctx.set_timer_after(SimDuration::from_millis(10), 1);
            }
            return;
        }
        if self.sent < self.count {
            self.sent += 1;
            ctx.send_udp(
                5000,
                self.peer,
                6000,
                bytes::Bytes::from(vec![0u8; self.size]),
            );
            ctx.set_timer_after(self.gap, 0);
        } else {
            ctx.set_timer_after(self.flush_after, 1);
        }
    }
}

struct Sink;
impl Application for Sink {}

/// One lossy duplex link between two hosts, a blaster on `a`, a sink
/// bound on `b`, and a sniffer at `b`.
fn lossy_link_sim(
    seed: u64,
    loss: f64,
    queue_capacity: usize,
    blaster: Blaster,
) -> (Simulation, NodeId, NodeId, TapId) {
    let mut sim = Simulation::new(seed);
    let a = sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
    let b = sim.add_host("b", Ipv4Addr::new(10, 0, 0, 2));
    let config = LinkConfig {
        rate_bps: 10_000_000,
        propagation: SimDuration::from_millis(1),
        queue_capacity,
        mtu: 1500,
    };
    let (ab, ba) = sim.add_duplex(a, b, config);
    sim.core_mut().node_mut(a).default_route = Some(ab);
    sim.core_mut().node_mut(b).default_route = Some(ba);
    if loss > 0.0 {
        sim.core_mut().link_mut(ab).fault = FaultInjector::bernoulli(loss);
    }
    let capture = Sniffer::attach(&mut sim, b);
    sim.add_app(a, Box::new(blaster), Some(5000), false);
    sim.add_app(b, Box::new(Sink), Some(6000), false);
    (sim, a, b, capture)
}

#[test]
fn link_drops_equal_sent_minus_sniffed() {
    // Sub-MTU payloads (no fragmentation), Bernoulli loss plus a tight
    // queue: every packet the sender offered either reached the
    // sniffer at the client or was dropped at the link, and the
    // telemetry counters account for every drop.
    let blaster = Blaster {
        peer: Ipv4Addr::new(10, 0, 0, 2),
        count: 2000,
        size: 1000,
        gap: SimDuration::from_micros(500),
        flush_after: SimDuration::from_secs(1),
        sent: 0,
        flushes: 0,
    };
    let (mut sim, a, _b, capture) = lossy_link_sim(7, 0.05, 4000, blaster);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(40));

    let mut registry = turb_obs::MetricsRegistry::new();
    sim.collect_metrics(&mut registry);

    let sent = sim.node_stats(a).tx_packets;
    let sniffed = sim
        .take_tap::<Capture>(capture)
        .filtered(&Filter::direction_rx())
        .len() as u64;
    let dropped = registry.counter_total("link_dropped_queue_total")
        + registry.counter_total("link_dropped_red_total")
        + registry.counter_total("link_dropped_fault_total");

    assert!(dropped > 0, "5% loss over 2001 packets should drop some");
    assert_eq!(
        dropped,
        sent - sniffed,
        "drops counted by telemetry must equal sent minus sniffed"
    );
    // The loss came from the fault injector, and the injector's own
    // ledger agrees with the link's.
    assert_eq!(
        registry.counter_total("fault_dropped_total"),
        registry.counter_total("link_dropped_fault_total")
    );
}

#[test]
fn reassembly_timeouts_match_sniffer_incomplete_groups() {
    // 4 KiB payloads fragment into 3 frames each; 8% fragment loss
    // leaves some groups holed. The flush datagram arrives after the
    // 30 s reassembly timeout, forcing every stale partial group to be
    // discarded — at which point the host's timeout counter and the
    // sniffer's own view of incomplete fragment groups must agree
    // exactly.
    let blaster = Blaster {
        peer: Ipv4Addr::new(10, 0, 0, 2),
        count: 120,
        size: 4096,
        gap: SimDuration::from_millis(20),
        flush_after: SimDuration::from_secs(35),
        sent: 0,
        flushes: 0,
    };
    let (mut sim, _a, _b, capture) = lossy_link_sim(11, 0.08, 1_000_000, blaster);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));

    let mut registry = turb_obs::MetricsRegistry::new();
    sim.collect_metrics(&mut registry);
    let timed_out = registry.counter_total("reassembly_timed_out_total");

    let capture = sim.take_tap::<Capture>(capture);
    let rx = capture.filtered(&Filter::Udp.and(Filter::direction_rx()));
    let groups = FragmentGroups::build(rx);
    let incomplete = groups.incomplete_groups() as u64;

    assert!(timed_out > 0, "8% fragment loss should hole some groups");
    assert_eq!(
        timed_out, incomplete,
        "host reassembly timeouts must equal the sniffer's incomplete groups"
    );
    // Sanity: the sniffer did see holed groups, not merely zero of
    // everything.
    assert!(groups.groups().iter().any(|g| !g.is_complete()));
}

#[test]
fn timeseries_does_not_perturb_reports_counters_or_trace() {
    // Same seed, windowed time-series off vs on, sequentially: the
    // report and the counters must be byte-identical — only the series dump (outside the identity set,
    // like lineage) may differ.
    let off = run_pair(&short_config(616, RateClass::Low).with_telemetry());
    let on = run_pair(&short_config(616, RateClass::Low).with_timeseries(0));
    let toff = off.telemetry.unwrap();
    let ton = on.telemetry.unwrap();

    assert!(toff.series.is_none());
    let dump = ton.series.as_ref().expect("series dump present");
    assert!(!dump.is_empty());
    assert!(dump.window_count() > 30, "{} windows", dump.window_count());

    let mut ra = toff.report.clone();
    let mut rb = ton.report.clone();
    ra.wall_ns = 0;
    rb.wall_ns = 0;
    assert_eq!(ra, rb);

    let ca: Vec<(&str, String, u64)> = toff
        .metrics
        .counters()
        .map(|(n, c, v)| (n, c.to_string(), v))
        .collect();
    let cb: Vec<(&str, String, u64)> = ton
        .metrics
        .counters()
        .map(|(n, c, v)| (n, c.to_string(), v))
        .collect();
    assert_eq!(ca, cb);
}

#[test]
fn series_dumps_and_exports_are_deterministic() {
    // Two same-seed runs: the dumps compare equal and both exports are
    // byte-for-byte identical.
    let a = run_pair(&short_config(313, RateClass::High).with_timeseries(0));
    let b = run_pair(&short_config(313, RateClass::High).with_timeseries(0));
    let da = a.telemetry.unwrap().series.unwrap();
    let db = b.telemetry.unwrap().series.unwrap();
    assert_eq!(da, db);
    assert_eq!(da.to_jsonl(), db.to_jsonl());
    assert_eq!(da.to_csv(), db.to_csv());

    // The windowed totals survive whatever the ring evicted, so the
    // per-cause loss series must reconcile 1:1 with the always-on drop
    // counters — and the bandwidth series with theirs.
    let metrics = run_pair(&short_config(313, RateClass::High).with_timeseries(0))
        .telemetry
        .unwrap()
        .metrics;
    for cause in turb_obs::lineage::DropCause::ALL {
        assert_eq!(
            da.total_of(cause.counter()),
            metrics.counter_total(cause.counter()),
            "{} must reconcile",
            cause.counter(),
        );
    }
    for metric in ["link_tx_bytes_total", "node_rx_bytes_total"] {
        assert_eq!(da.total_of(metric), metrics.counter_total(metric));
    }
}

#[test]
fn windowed_loss_reconciles_on_a_lossy_link() {
    // The targeted version of the reconciliation property: a lossy
    // link with a tight queue drops real packets, and every per-window
    // loss series must sum to exactly the always-on counter, cause by
    // cause.
    let blaster = Blaster {
        peer: Ipv4Addr::new(10, 0, 0, 2),
        count: 2000,
        size: 1000,
        gap: SimDuration::from_micros(500),
        flush_after: SimDuration::from_secs(1),
        sent: 0,
        flushes: 0,
    };
    let (mut sim, _a, _b, _capture) = lossy_link_sim(7, 0.05, 4000, blaster);
    sim.enable_timeseries(0);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(40));

    let mut registry = turb_obs::MetricsRegistry::new();
    sim.collect_metrics(&mut registry);
    let dump = sim.finish_observers().series.expect("series dump present");

    let mut dropped = 0u64;
    for cause in turb_obs::lineage::DropCause::ALL {
        let windowed = dump.total_of(cause.counter());
        assert_eq!(
            windowed,
            registry.counter_total(cause.counter()),
            "{} must reconcile",
            cause.counter(),
        );
        dropped += windowed;
    }
    assert!(dropped > 0, "5% loss over 2001 packets should drop some");

    // The loss curve is not flat: drops land in more than one window.
    let lossy: Vec<_> = dump
        .series
        .iter()
        .filter(|s| s.metric == "link_dropped_fault_total")
        .collect();
    assert!(!lossy.is_empty());
    assert!(
        lossy[0].values.iter().filter(|v| **v > 0).count() > 1,
        "fault drops should spread across windows"
    );
}
