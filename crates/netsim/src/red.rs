//! Random Early Detection (Floyd & Jacobson 1993) — the active queue
//! management family the paper's motivation cites when discussing how
//! routers might handle unresponsive streaming flows (\[FKSS01\],
//! \[MFW01\], \[SSZ98\] in §I).
//!
//! Classic gentle-less RED over the link's analytic backlog: an EWMA
//! of the queue size; no drops below `min_thresh`, probabilistic early
//! drops between the thresholds (scaled by the count since the last
//! drop, per the original paper), everything dropped above
//! `max_thresh`.

use crate::rng::SimRng;

/// RED parameters and state for one link.
#[derive(Debug, Clone)]
pub struct RedQueue {
    /// No early drops while the average queue is below this, bytes.
    pub min_thresh: usize,
    /// Everything is dropped when the average queue exceeds this, bytes.
    pub max_thresh: usize,
    /// Drop probability as the average reaches `max_thresh`.
    pub max_p: f64,
    /// EWMA weight for the average queue estimate.
    pub weight: f64,
    avg: f64,
    /// Packets since the last drop (spreads drops uniformly).
    count: u64,
    drops: u64,
}

impl RedQueue {
    /// Classic parameterisation for a queue of `capacity` bytes:
    /// thresholds at 25 % / 75 %, max_p = 0.1, weight = 0.002.
    pub fn for_capacity(capacity: usize) -> RedQueue {
        RedQueue::new(capacity / 4, capacity * 3 / 4, 0.1, 0.002)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    /// If thresholds are inverted or probabilities out of range.
    pub fn new(min_thresh: usize, max_thresh: usize, max_p: f64, weight: f64) -> RedQueue {
        assert!(min_thresh < max_thresh, "thresholds inverted");
        assert!((0.0..=1.0).contains(&max_p));
        assert!((0.0..=1.0).contains(&weight) && weight > 0.0);
        RedQueue {
            min_thresh,
            max_thresh,
            max_p,
            weight,
            avg: 0.0,
            count: 0,
            drops: 0,
        }
    }

    /// Current average queue estimate, bytes.
    pub fn avg(&self) -> f64 {
        self.avg
    }

    /// Early drops so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Update the average with the instantaneous `backlog` and decide
    /// whether to early-drop the arriving packet.
    pub fn should_drop(&mut self, backlog: usize, rng: &mut SimRng) -> bool {
        self.avg += self.weight * (backlog as f64 - self.avg);
        if self.avg < self.min_thresh as f64 {
            self.count = 0;
            return false;
        }
        if self.avg >= self.max_thresh as f64 {
            self.count = 0;
            self.drops += 1;
            return true;
        }
        // Linear ramp between the thresholds, spread by the count
        // since the last drop (Floyd & Jacobson's p_a).
        let p_b = self.max_p * (self.avg - self.min_thresh as f64)
            / (self.max_thresh - self.min_thresh) as f64;
        let p_a = if self.count as f64 * p_b >= 1.0 {
            1.0
        } else {
            p_b / (1.0 - self.count as f64 * p_b)
        };
        self.count += 1;
        if rng.chance(p_a) {
            self.count = 0;
            self.drops += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue_never_drops() {
        let mut red = RedQueue::for_capacity(64 * 1024);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            assert!(!red.should_drop(0, &mut rng));
        }
        assert_eq!(red.drops(), 0);
    }

    #[test]
    fn saturated_queue_always_drops_once_avg_catches_up() {
        let mut red = RedQueue::new(1000, 2000, 0.1, 0.5); // fast EWMA
        let mut rng = SimRng::new(2);
        // Drive the average above max_thresh.
        for _ in 0..50 {
            red.should_drop(10_000, &mut rng);
        }
        assert!(red.avg() > 2000.0);
        assert!(red.should_drop(10_000, &mut rng));
    }

    #[test]
    fn drop_rate_ramps_between_thresholds() {
        let mut rng = SimRng::new(3);
        let rate_at = |backlog: usize, rng: &mut SimRng| -> f64 {
            let mut red = RedQueue::new(1000, 9000, 0.2, 1.0); // avg = instant
            let n = 20_000;
            let drops = (0..n).filter(|_| red.should_drop(backlog, rng)).count();
            drops as f64 / n as f64
        };
        let low = rate_at(1500, &mut rng);
        let mid = rate_at(5000, &mut rng);
        let high = rate_at(8500, &mut rng);
        assert!(low < mid && mid < high, "{low} {mid} {high}");
        assert!(low > 0.0);
        assert!(high < 1.0);
    }

    #[test]
    fn ewma_smooths_bursts() {
        let mut red = RedQueue::new(1000, 2000, 0.1, 0.002);
        let mut rng = SimRng::new(4);
        // A single instantaneous spike barely moves the average.
        red.should_drop(100_000, &mut rng);
        assert!(red.avg() < 1000.0, "avg = {}", red.avg());
    }

    #[test]
    #[should_panic(expected = "thresholds inverted")]
    fn inverted_thresholds_rejected() {
        RedQueue::new(2000, 1000, 0.1, 0.002);
    }

    /// End to end: RED on the bottleneck spreads drops so TCP keeps
    /// more goodput against an unresponsive flow than with drop-tail.
    #[test]
    fn red_vs_droptail_with_unresponsive_cross_traffic() {
        use crate::prelude::*;
        use crate::tcp::TcpConfig;
        use crate::tcp_apps::spawn_bulk_transfer;
        use bytes::Bytes;
        use std::net::Ipv4Addr;

        struct Firehose {
            peer: Ipv4Addr,
            rate_bps: f64,
        }
        impl Application for Firehose {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer_after(SimDuration::from_millis(5), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                let bytes = (self.rate_bps * 0.005 / 8.0) as usize;
                ctx.send_udp(5000, self.peer, 6000, Bytes::from(vec![0u8; bytes]));
                ctx.set_timer_after(SimDuration::from_millis(5), 0);
            }
        }
        struct Sink;
        impl Application for Sink {}

        let run = |use_red: bool| -> u64 {
            let mut sim = Simulation::new(77);
            let a = sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
            let b = sim.add_host("b", Ipv4Addr::new(10, 0, 0, 2));
            let link = LinkConfig {
                rate_bps: 1_000_000,
                propagation: SimDuration::from_millis(20),
                queue_capacity: 30_000,
                mtu: 1500,
            };
            let (ab, ba) = sim.add_duplex(a, b, link);
            sim.core_mut().node_mut(a).default_route = Some(ab);
            sim.core_mut().node_mut(b).default_route = Some(ba);
            if use_red {
                sim.core_mut().link_mut(ab).red = Some(crate::red::RedQueue::for_capacity(30_000));
            }
            // An unresponsive 600 Kbit/s firehose.
            sim.add_app(
                a,
                Box::new(Firehose {
                    peer: Ipv4Addr::new(10, 0, 0, 2),
                    rate_bps: 600_000.0,
                }),
                None,
                false,
            );
            sim.add_app(b, Box::new(Sink), Some(6000), false);
            let (tx, _) = spawn_bulk_transfer(
                &mut sim,
                a,
                b,
                Ipv4Addr::new(10, 0, 0, 2),
                (40000, 8080),
                10_000_000,
                TcpConfig::default(),
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
            sim.take_app::<crate::tcp_apps::BulkSender>(tx)
                .stats
                .bytes_acked
        };
        let droptail = run(false);
        let red = run(true);
        // Both make progress; the comparison itself is the ablation
        // bench's job — here we assert RED is active and functional.
        assert!(droptail > 0 && red > 0);
    }
}
