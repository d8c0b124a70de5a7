//! Property-based tests for the simulator's scheduling and link
//! invariants.

use proptest::prelude::*;
use turb_netsim::link::{Link, LinkConfig, LinkId, NodeId, TxOutcome};
use turb_netsim::rng::SimRng;
use turb_netsim::time::{SimDuration, SimTime};

proptest! {
    /// FIFO links never reorder: arrival times are non-decreasing in
    /// transmission order, whatever the offered load pattern.
    #[test]
    fn fifo_link_never_reorders(
        sizes in proptest::collection::vec(40usize..1500, 1..100),
        gaps in proptest::collection::vec(0u64..5_000_000, 1..100),
        rate in 56_000u64..100_000_000,
    ) {
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), LinkConfig {
            rate_bps: rate,
            propagation: SimDuration::from_millis(5),
            queue_capacity: usize::MAX,
            mtu: 1500,
        });
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for (size, gap) in sizes.iter().zip(gaps.iter().cycle()) {
            now += SimDuration::from_nanos(*gap);
            match link.transmit(now, *size) {
                TxOutcome::Deliver { arrival } => {
                    prop_assert!(arrival >= last_arrival, "reordered");
                    // Arrival is never before tx time + propagation.
                    let min = now + link.config.tx_time(*size) + link.config.propagation;
                    prop_assert!(arrival >= min);
                    last_arrival = arrival;
                }
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }

    /// Backlog accounting: the backlog never exceeds the configured
    /// queue capacity after admission control.
    #[test]
    fn drop_tail_bounds_backlog(
        sizes in proptest::collection::vec(40usize..1500, 1..200),
        capacity in 1500usize..20_000,
    ) {
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), LinkConfig {
            rate_bps: 56_000, // slow, so the queue actually builds
            propagation: SimDuration::ZERO,
            queue_capacity: capacity,
            mtu: 1500,
        });
        for size in &sizes {
            let _ = link.transmit(SimTime::ZERO, *size);
            prop_assert!(link.backlog_bytes(SimTime::ZERO) <= capacity);
        }
        let accepted = link.stats.tx_packets;
        let dropped = link.stats.dropped_queue;
        prop_assert_eq!(accepted + dropped, sizes.len() as u64);
    }

    /// The engine RNG's fork streams are reproducible.
    #[test]
    fn rng_fork_reproducible(seed: u64, stream: u64) {
        let parent = SimRng::new(seed);
        let mut a = parent.fork(stream);
        let mut b = parent.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// transmission() is monotone in size and antitone in rate.
    #[test]
    fn transmission_monotonicity(bytes in 1usize..10_000, rate in 1_000u64..1_000_000_000) {
        let t = SimDuration::transmission(bytes, rate);
        prop_assert!(SimDuration::transmission(bytes + 1, rate) >= t);
        prop_assert!(SimDuration::transmission(bytes, rate * 2) <= t);
    }
}

mod end_to_end {
    use super::*;
    use turb_netsim::prelude::*;
    use turb_netsim::tools;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Whatever the seed, the calibrated scenario is fully
        /// connected: ping reaches every site with zero loss on an
        /// unloaded network, and RTTs respect the Figure 1 clamp.
        #[test]
        fn every_site_reachable(seed in 0u64..1_000) {
            let mut sim = Simulation::new(seed);
            let mut rng = SimRng::new(seed);
            let scenario =
                InternetScenario::build(&mut sim, &mut rng, &ScenarioConfig::default());
            let pings: Vec<_> = scenario
                .sites
                .iter()
                .map(|site| {
                    tools::spawn_ping(
                        &mut sim,
                        scenario.client,
                        site.server_addr,
                        3,
                        SimDuration::from_millis(100),
                        SimDuration::ZERO,
                        &mut rng,
                    )
                })
                .collect();
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
            for ping in pings {
                let report = sim.take_app::<tools::PingApp>(ping).report;
                prop_assert_eq!(report.received, 3);
                let max = report.max_rtt().unwrap();
                prop_assert!(max < SimDuration::from_millis(200), "rtt {max}");
            }
        }
    }
}
