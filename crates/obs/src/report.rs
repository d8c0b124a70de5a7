//! Per-run telemetry summaries: plain-data structs a simulation fills
//! in at the end of a run, plus a fixed-width textual rendering for
//! the CLI.

use std::fmt::Write as _;

/// Telemetry for one simulated link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkReport {
    /// Link identifier, e.g. `"link:0"`.
    pub component: String,
    /// Packets transmitted onto the wire.
    pub tx_packets: u64,
    /// Bytes transmitted onto the wire.
    pub tx_bytes: u64,
    /// Drop-tail queue drops.
    pub dropped_queue: u64,
    /// RED early drops.
    pub dropped_red: u64,
    /// Drops induced by the fault injector at this link.
    pub dropped_fault: u64,
    /// Fraction of run time the link spent transmitting (0..=1).
    pub utilization: f64,
}

impl LinkReport {
    /// All drops at this link, regardless of cause.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_queue + self.dropped_red + self.dropped_fault
    }
}

/// Fragmentation and reassembly telemetry, both directions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragReport {
    /// Datagrams the sender had to fragment.
    pub fragmented_datagrams: u64,
    /// Fragments produced by the sender.
    pub fragments_sent: u64,
    /// Fragments received by reassemblers.
    pub fragments_received: u64,
    /// Datagrams successfully reassembled.
    pub reassembled: u64,
    /// Unfragmented datagrams passed through reassembly untouched.
    pub passthrough: u64,
    /// Partial fragment groups discarded on timeout.
    pub timed_out: u64,
    /// Duplicate or overlapping fragments discarded.
    pub duplicates: u64,
    /// Fragments rejected as malformed (extending past the declared
    /// datagram length or contradicting the final fragment).
    pub invalid: u64,
}

/// Player-side telemetry for one application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlayerReport {
    /// Player identifier, e.g. `"player:mediaplayer"`.
    pub component: String,
    /// Playout buffer underruns.
    pub buffer_underruns: u64,
    /// Interleave batches flushed to the network.
    pub batch_flushes: u64,
    /// Packets delivered to the player.
    pub packets_received: u64,
}

/// Telemetry for one pair run, assembled after the simulation ends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Run label, e.g. `"set1/high"`.
    pub label: String,
    /// Wall-clock duration of the run in nanoseconds.
    pub wall_ns: u64,
    /// Worker threads used to produce this report (1 for a sequential
    /// run; 0 when the producer predates thread accounting). Purely
    /// descriptive — results never depend on it.
    pub threads: u64,
    /// Events popped off the simulator queue.
    pub sim_events_processed: u64,
    /// Events pushed onto the simulator queue.
    pub sim_events_scheduled: u64,
    /// Packets forwarded through the engine's zero-copy fast path
    /// (fit the link MTU, shared buffer, no fragmentation `Vec`).
    pub transit_fastpath: u64,
    /// Packets that went through the allocate-and-fragment path.
    pub transit_slowpath: u64,
    /// Packets the fault injector deliberately dropped.
    pub fault_induced_losses: u64,
    /// Packets the fault injector delayed (reorder jitter).
    pub fault_delayed: u64,
    /// Records the sniffer captured.
    pub capture_records: u64,
    /// Per-link telemetry.
    pub links: Vec<LinkReport>,
    /// Fragmentation/reassembly telemetry.
    pub frag: FragReport,
    /// Per-player telemetry.
    pub players: Vec<PlayerReport>,
}

impl RunReport {
    /// Simulator throughput in events per wall-clock second (0 when
    /// the wall clock recorded nothing).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.sim_events_processed as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// Fold another report into this one (used to aggregate a corpus).
    /// Labels are joined with `+`; per-component vectors concatenate.
    pub fn absorb(&mut self, other: &RunReport) {
        if self.label.is_empty() {
            self.label = other.label.clone();
        } else if !other.label.is_empty() {
            self.label.push('+');
            self.label.push_str(&other.label);
        }
        self.wall_ns += other.wall_ns;
        self.threads = self.threads.max(other.threads);
        self.sim_events_processed += other.sim_events_processed;
        self.sim_events_scheduled += other.sim_events_scheduled;
        self.transit_fastpath += other.transit_fastpath;
        self.transit_slowpath += other.transit_slowpath;
        self.fault_induced_losses += other.fault_induced_losses;
        self.fault_delayed += other.fault_delayed;
        self.capture_records += other.capture_records;
        self.links.extend(other.links.iter().cloned());
        self.frag.fragmented_datagrams += other.frag.fragmented_datagrams;
        self.frag.fragments_sent += other.frag.fragments_sent;
        self.frag.fragments_received += other.frag.fragments_received;
        self.frag.reassembled += other.frag.reassembled;
        self.frag.passthrough += other.frag.passthrough;
        self.frag.timed_out += other.frag.timed_out;
        self.frag.duplicates += other.frag.duplicates;
        self.frag.invalid += other.frag.invalid;
        self.players.extend(other.players.iter().cloned());
    }

    /// Fixed-width human-readable rendering for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run {}", self.label);
        let _ = writeln!(
            out,
            "  wall clock      {:>12.3} ms   ({:.0} events/sec)",
            self.wall_ns as f64 / 1e6,
            self.events_per_sec()
        );
        if self.threads > 0 {
            let _ = writeln!(out, "  threads         {:>12}", self.threads);
        }
        let _ = writeln!(
            out,
            "  sim events      {:>12} processed / {} scheduled",
            self.sim_events_processed, self.sim_events_scheduled
        );
        let _ = writeln!(
            out,
            "  packet transit  {:>12} fast-path / {} slow-path",
            self.transit_fastpath, self.transit_slowpath
        );
        let _ = writeln!(
            out,
            "  fault injector  {:>12} losses / {} delayed",
            self.fault_induced_losses, self.fault_delayed
        );
        let _ = writeln!(out, "  capture records {:>12}", self.capture_records);
        let f = &self.frag;
        let _ = writeln!(
            out,
            "  fragmentation   {:>12} datagrams split into {} fragments",
            f.fragmented_datagrams, f.fragments_sent
        );
        let _ = writeln!(
            out,
            "  reassembly      {:>12} ok / {} timeout-discard / {} duplicate / {} invalid ({} frags seen, {} passthrough)",
            f.reassembled, f.timed_out, f.duplicates, f.invalid, f.fragments_received, f.passthrough
        );
        let mut idle = 0usize;
        for link in &self.links {
            // Scenario topologies carry many links the run never uses;
            // listing them would drown the active ones.
            if link.tx_packets == 0 && link.dropped_total() == 0 {
                idle += 1;
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<15} {:>12} tx pkts / {} drop-tail / {} red / {} fault  (util {:.1}%)",
                link.component,
                link.tx_packets,
                link.dropped_queue,
                link.dropped_red,
                link.dropped_fault,
                link.utilization * 100.0
            );
        }
        if idle > 0 {
            let _ = writeln!(out, "  ({idle} idle links omitted)");
        }
        for p in &self.players {
            let _ = writeln!(
                out,
                "  {:<15} {:>12} rx pkts / {} underruns / {} batch flushes",
                p.component, p.packets_received, p.buffer_underruns, p.batch_flushes
            );
        }
        out
    }
}

/// Outcome of one property in a `turbulence check` campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropCheckReport {
    /// Property name, e.g. `"decode_differential"`.
    pub property: String,
    /// One-line description of what the property asserts.
    pub about: String,
    /// Cases executed.
    pub cases: u64,
    /// Cases that failed (counterexamples or panics).
    pub failures: u64,
}

/// Summary of one fuzz/differential-check campaign
/// (`turbulence check`), assembled by the `turb-check` runner.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Root seed the campaign derived its case seeds from.
    pub seed: u64,
    /// Iterations requested per property.
    pub iterations: u64,
    /// Wall-clock duration of the campaign in nanoseconds.
    pub wall_ns: u64,
    /// Per-property outcomes, in execution order.
    pub props: Vec<PropCheckReport>,
}

impl CheckReport {
    /// Total cases executed across every property.
    pub fn total_cases(&self) -> u64 {
        self.props.iter().map(|p| p.cases).sum()
    }

    /// Total failing cases across every property.
    pub fn total_failures(&self) -> u64 {
        self.props.iter().map(|p| p.failures).sum()
    }

    /// Fixed-width human-readable rendering for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "check seed {} / {} iterations per property ({:.3} ms)",
            self.seed,
            self.iterations,
            self.wall_ns as f64 / 1e6
        );
        for p in &self.props {
            let _ = writeln!(
                out,
                "  {:<24} {:>8} cases / {:>3} failures   {}",
                p.property, p.cases, p.failures, p.about
            );
        }
        let _ = writeln!(
            out,
            "  total           {:>8} cases / {:>3} failures",
            self.total_cases(),
            self.total_failures()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            label: "set1/high".to_string(),
            wall_ns: 2_000_000_000,
            threads: 1,
            sim_events_processed: 1_000_000,
            sim_events_scheduled: 1_000_100,
            transit_fastpath: 950,
            transit_slowpath: 30,
            fault_induced_losses: 17,
            fault_delayed: 3,
            capture_records: 998,
            links: vec![LinkReport {
                component: "link:0".to_string(),
                tx_packets: 1000,
                tx_bytes: 500_000,
                dropped_queue: 5,
                dropped_red: 0,
                dropped_fault: 17,
                utilization: 0.5,
            }],
            frag: FragReport {
                fragmented_datagrams: 10,
                fragments_sent: 30,
                fragments_received: 28,
                reassembled: 9,
                passthrough: 900,
                timed_out: 1,
                duplicates: 0,
                invalid: 0,
            },
            players: vec![PlayerReport {
                component: "player:mediaplayer".to_string(),
                buffer_underruns: 2,
                batch_flushes: 50,
                packets_received: 990,
            }],
        }
    }

    #[test]
    fn events_per_sec_uses_wall_clock() {
        let r = sample();
        assert!((r.events_per_sec() - 500_000.0).abs() < 1.0);
        let zero = RunReport::default();
        assert_eq!(zero.events_per_sec(), 0.0);
    }

    #[test]
    fn absorb_aggregates() {
        let mut total = RunReport::default();
        total.absorb(&sample());
        total.absorb(&sample());
        assert_eq!(total.threads, 1);
        assert_eq!(total.sim_events_processed, 2_000_000);
        assert_eq!(total.transit_fastpath, 1900);
        assert_eq!(total.transit_slowpath, 60);
        assert_eq!(total.links.len(), 2);
        assert_eq!(total.frag.timed_out, 2);
        assert_eq!(total.label, "set1/high+set1/high");
    }

    #[test]
    fn table_mentions_the_headline_numbers() {
        let text = sample().render_table();
        assert!(text.contains("set1/high"));
        assert!(text.contains("threads"));
        assert!(text.contains("1000000 processed"));
        assert!(text.contains("fast-path"));
        assert!(text.contains("timeout-discard"));
        assert!(text.contains("link:0"));
    }
}
