//! The population layer: fleet-scale session arrival/departure
//! processes over the shared scale topology.
//!
//! Where [`crate::experiment`] measures one client against one server
//! (the paper's §2 methodology) and [`crate::scale`] replays a fixed
//! client matrix, this module models the regime the paper never
//! reached: thousands-to-hundreds-of-thousands of player sessions
//! arriving by a Poisson or Markov-modulated Poisson process, living
//! for heavy-tailed (Pareto) durations, and departing — multiplexed
//! over the ring topology by the netsim fleet layer
//! ([`turb_netsim::fleet`]).
//!
//! The population table is generated up front as a pure function of
//! `(seed, config)` — never of simulator state — so a fleet run stays
//! a deterministic replay: byte-identical across shard counts, lineage
//! on/off, and (at zero background) engine choice.
//! Sessions carry no strings at all — a session is an integer id into
//! the spec table and the ledger — and the only per-group labels are
//! interned once through [`turb_obs::intern::Interner`], so the
//! steady-state cost of a session is the ~56 bytes documented in
//! [`turb_netsim::fleet`].

use crate::scale::fnv1a;
use std::sync::Arc;
use turb_flowgen::lower::aggregate_session_schedule;
use turb_netsim::fleet::{slot_heap_bytes, FleetScenario, SessionSpec, FLEET_WINDOW_NS};
use turb_netsim::topology::{ScaleConfig, ScaleScenario};
use turb_netsim::{
    EngineKind, FluidDiag, FluidFlow, LineageDump, ObserverDumps, ShardDiag, ShardKind,
    SimDuration, SimRng, SimTime, Simulation,
};
use turb_obs::intern::Interner;
use turb_obs::{MetricsRegistry, ProgressMeter, SessionDump, SessionRecorder, SessionSampler};
use turb_players::calibration::{REAL_SESSION_TIERS_KBPS, WMP_SESSION_TIERS_KBPS};

/// How sessions arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `per_sec`.
    Poisson { per_sec: f64 },
    /// Markov-modulated Poisson: the rate flips between a fast and a
    /// slow state, dwelling in each for an exponential time — the
    /// classic bursty-arrival model for flash crowds.
    Mmpp {
        fast_per_sec: f64,
        slow_per_sec: f64,
        mean_dwell_secs: f64,
    },
}

impl ArrivalProcess {
    /// Parse a CLI spec: `poisson:RATE` or `mmpp:FAST,SLOW,DWELL`.
    pub fn parse(spec: &str) -> Result<ArrivalProcess, String> {
        let bad = || format!("bad --arrival '{spec}': want poisson:RATE or mmpp:FAST,SLOW,DWELL");
        let (kind, args) = spec.split_once(':').ok_or_else(bad)?;
        let nums: Vec<f64> = args
            .split(',')
            .map(|a| a.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad())?;
        match (kind, nums.as_slice()) {
            ("poisson", [r]) if *r > 0.0 => Ok(ArrivalProcess::Poisson { per_sec: *r }),
            ("mmpp", [f, s, d]) if *f > 0.0 && *s > 0.0 && *d > 0.0 => Ok(ArrivalProcess::Mmpp {
                fast_per_sec: *f,
                slow_per_sec: *s,
                mean_dwell_secs: *d,
            }),
            _ => Err(bad()),
        }
    }
}

/// How long a session lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurationDist {
    /// Pareto(xm, α): the heavy tail that makes population statistics
    /// interesting — a few marathon sessions dominate the byte count.
    /// Samples are clamped to [xm, 3600 s] so one draw cannot pin the
    /// horizon arbitrarily far out.
    Pareto { xm_secs: f64, alpha: f64 },
    /// Every session lives exactly `secs`.
    Fixed { secs: f64 },
}

impl DurationDist {
    /// Parse a CLI spec: `pareto:XM,ALPHA` or `fixed:SECS`.
    pub fn parse(spec: &str) -> Result<DurationDist, String> {
        let bad = || format!("bad --duration-dist '{spec}': want pareto:XM,ALPHA or fixed:SECS");
        let (kind, args) = spec.split_once(':').ok_or_else(bad)?;
        let nums: Vec<f64> = args
            .split(',')
            .map(|a| a.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad())?;
        match (kind, nums.as_slice()) {
            ("pareto", [xm, a]) if *xm > 0.0 && *a > 0.0 => Ok(DurationDist::Pareto {
                xm_secs: *xm,
                alpha: *a,
            }),
            ("fixed", [s]) if *s > 0.0 => Ok(DurationDist::Fixed { secs: *s }),
            _ => Err(bad()),
        }
    }

    fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            DurationDist::Pareto { xm_secs, alpha } => {
                let u = rng.f64().min(1.0 - 1e-12);
                (xm_secs * (1.0 - u).powf(-1.0 / alpha)).clamp(xm_secs, 3600.0)
            }
            DurationDist::Fixed { secs } => secs,
        }
    }
}

/// Compressed diurnal period: one "day" of load modulation per ten
/// simulated minutes, so a bench-sized run still sweeps trough → peak.
const DIURNAL_PERIOD_SECS: f64 = 600.0;

/// Load factor in (0, 1]: a raised cosine with its trough at t = 0.
fn diurnal_factor(t_secs: f64) -> f64 {
    let phase = (t_secs / DIURNAL_PERIOD_SECS) * std::f64::consts::TAU;
    0.35 + 0.65 * 0.5 * (1.0 - phase.cos())
}

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetRunConfig {
    /// Deterministic seed for the population draw and the simulation.
    pub seed: u64,
    /// Sessions in the population.
    pub sessions: usize,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Session-length distribution.
    pub duration: DurationDist,
    /// Thin arrivals by the compressed diurnal load curve.
    pub diurnal: bool,
    /// Ring groups of the underlying scale topology (2..=64).
    pub groups: usize,
    /// Sessions per 1000 that are MediaPlayer-like (rest RealPlayer).
    pub wmp_permille: u32,
    /// Sessions per 1000 in the background class (fluid-eligible).
    pub background_permille: u32,
    /// Datagram payload bytes (≥ 4; carries the session id).
    pub payload_bytes: u32,
    /// Cap on datagrams per session: the nominal media rate is thinned
    /// to at most this many sends so a 10⁵-session fleet stays within
    /// an event budget while offered-load figures keep the true rate.
    pub max_packets_per_session: u32,
    /// Execution strategy: sequential or sharded.
    pub shards: ShardKind,
    /// Background class on the packet path or the fluid solver.
    pub engine: EngineKind,
    /// Record packet lineage during the run (memory-heavy; figures
    /// must not change either way).
    pub lineage: bool,
    /// Accumulate one fixed-size QoE rollup per session (≤ 128 bytes
    /// each; figures must not change either way).
    pub rollups: bool,
    /// Sessions per 1000 whose packets additionally get full lineage
    /// spans, selected by a deterministic hash of `(seed, session id)`
    /// — shard- and engine-invariant. Only meaningful with
    /// `rollups`; ignored when `lineage` already records everything.
    pub sample_permille: u32,
    /// Emit a periodic heartbeat line on stderr (sim time, event rate,
    /// live/done sessions, RSS, ETA). Stderr only — never part of any
    /// byte-identity surface.
    pub progress: bool,
}

impl FleetRunConfig {
    /// The default 1k-session fleet under `seed`.
    pub fn new(seed: u64) -> FleetRunConfig {
        FleetRunConfig {
            seed,
            sessions: 1000,
            arrival: ArrivalProcess::Poisson { per_sec: 200.0 },
            duration: DurationDist::Pareto {
                xm_secs: 2.0,
                alpha: 1.5,
            },
            diurnal: false,
            groups: 8,
            wmp_permille: 500,
            background_permille: 250,
            payload_bytes: 600,
            max_packets_per_session: 12,
            shards: ShardKind::Sequential,
            engine: EngineKind::Packet,
            lineage: false,
            rollups: false,
            sample_permille: turb_obs::DEFAULT_SESSION_SAMPLE_PERMILLE,
            progress: false,
        }
    }
}

/// What one fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetRunResult {
    /// Wall-clock time of the simulation loop, nanoseconds.
    pub wall_ns: u64,
    /// Events the engine processed.
    pub events_processed: u64,
    /// Sessions in the population.
    pub sessions: usize,
    /// Foreground datagrams offered / delivered.
    pub fg_offered: u64,
    pub fg_delivered: u64,
    /// Background datagrams offered / delivered (delivered is zero
    /// under the hybrid engine: fluid moves rate, not datagrams).
    pub bg_offered: u64,
    pub bg_delivered: u64,
    /// The heavy-traffic figures, rendered as deterministic text.
    pub figures: String,
    /// Prometheus-style metrics exposition from the run's telemetry.
    pub metrics: String,
    /// Steady-state heap bytes per session, measured from the actual
    /// population containers every session costs for the whole run:
    /// the shared spec row, the ledger's delivered counter and window
    /// slots, and the driver membership tables. What a session holds
    /// only while live is counted with the live sessions: its send
    /// slot in [`FleetRunResult::slot_memory_bytes`], its pending
    /// timer in [`FleetRunResult::queue_memory_bytes`].
    pub heap_bytes_per_session: u64,
    /// Send slots the drivers allocated, summed over groups: each
    /// holds one live session's encoded datagram, so this is the sum
    /// of the drivers' high waters of live sessions.
    pub send_slots: u64,
    /// Heap bytes of those slots with their datagrams. Outside the
    /// digest.
    pub slot_memory_bytes: u64,
    /// FNV-1a digest over metrics text + figures + event counters.
    /// Identical digests across shard counts, lineage settings (and
    /// engines at zero background) mean byte-identical runs.
    pub digest: u64,
    /// Shard-engine diagnostics; `None` for sequential runs.
    pub diag: Option<ShardDiag>,
    /// Fluid-solver diagnostics; `None` unless background rode fluid.
    pub fluid: Option<FluidDiag>,
    /// Per-session QoE rollups; `None` unless `rollups` was set.
    /// Outside the digest — identity is asserted on the dump's own
    /// serialization instead.
    pub rollups: Option<SessionDump>,
    /// Packet lineage: the sampled subset under `sample_permille`, or
    /// everything under `lineage`; `None` when neither recorded.
    pub lineage: Option<LineageDump>,
    /// Bytes the session recorder held at harvest (rollup table +
    /// class names); zero when rollups were off.
    pub session_memory_bytes: u64,
    /// Bytes the event queue reserved over the run: payload slabs,
    /// free lists and the wheel's node arena and slot heads, summed
    /// over shard domains (see
    /// `Simulation::queue_memory_bytes`). Outside the digest.
    pub queue_memory_bytes: u64,
}

/// Draw the population table: a pure function of the config, never of
/// simulator state. Sub-streams are forked per concern so adding a
/// draw to one never perturbs another.
pub fn generate_sessions(config: &FleetRunConfig) -> Vec<SessionSpec> {
    assert!(config.sessions >= 1, "fleet needs at least one session");
    assert!(
        config.payload_bytes >= 4,
        "payload must hold the session id"
    );
    assert!(
        (2..=64).contains(&config.groups),
        "groups must be in 2..=64"
    );
    let root = SimRng::new(config.seed);
    let mut arrivals = root.fork(0xF1EE0);
    let mut durations = root.fork(0xF1EE1);
    let mut mix = root.fork(0xF1EE2);

    // MMPP state: (in fast state?, time the state flips).
    let (mut fast, mut flip_at) = (true, 0.0f64);
    let mut t = 0.0f64;
    let mut specs = Vec::with_capacity(config.sessions);
    for i in 0..config.sessions {
        // Advance the arrival clock. Diurnal modulation is thinning
        // against the process's own peak rate, so the thinned stream
        // is still the exact inhomogeneous process.
        loop {
            let rate = match config.arrival {
                ArrivalProcess::Poisson { per_sec } => per_sec,
                ArrivalProcess::Mmpp {
                    fast_per_sec,
                    slow_per_sec,
                    mean_dwell_secs,
                } => {
                    while t >= flip_at {
                        fast = !fast;
                        flip_at += arrivals.exponential(mean_dwell_secs);
                    }
                    if fast {
                        fast_per_sec
                    } else {
                        slow_per_sec
                    }
                }
            };
            t += arrivals.exponential(1.0 / rate);
            if !config.diurnal || arrivals.chance(diurnal_factor(t)) {
                break;
            }
        }

        let life = durations.sample_from(&config.duration);
        let wmp = mix.chance(config.wmp_permille as f64 / 1000.0);
        let background = mix.chance(config.background_permille as f64 / 1000.0);
        let tiers = if wmp {
            &WMP_SESSION_TIERS_KBPS
        } else {
            &REAL_SESSION_TIERS_KBPS
        };
        let rate_bps = (tiers[mix.index(tiers.len())] * 1000.0) as u64;

        // Thin the nominal media rate to a bounded send schedule; the
        // true rate stays on the spec for offered-load figures and for
        // fluid lowering.
        let nominal = rate_bps as f64 * life / (8.0 * config.payload_bytes as f64);
        let packets =
            (nominal.round() as u64).clamp(1, config.max_packets_per_session as u64) as u32;
        let start_ns = (t * 1e9) as u64;
        let life_ns = ((life * 1e9) as u64).max(1);
        specs.push(SessionSpec {
            start_ns,
            end_ns: start_ns + life_ns,
            interval_ns: (life_ns / packets as u64).max(1),
            packets,
            payload: config.payload_bytes,
            rate_bps,
            group: (i % config.groups) as u16,
            wmp,
            background,
        });
    }
    specs
}

/// `DurationDist::sample` through a trait-free helper so the borrow on
/// the duration stream stays local to `generate_sessions`.
trait SampleDuration {
    fn sample_from(&mut self, dist: &DurationDist) -> f64;
}

impl SampleDuration for SimRng {
    fn sample_from(&mut self, dist: &DurationDist) -> f64 {
        dist.sample(self)
    }
}

/// Percentile of an ascending-sorted slice (nearest-rank on the
/// (n−1)·q index, matching the figure helpers elsewhere).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Execute one fleet run: build the scale ring, attach the population,
/// run to idle, and render the heavy-traffic figures.
pub fn run_fleet(config: &FleetRunConfig) -> FleetRunResult {
    let specs = Arc::new(generate_sessions(config));
    let horizon_ns = specs.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let windows = (horizon_ns / FLEET_WINDOW_NS + 2) as usize;

    let mut sim = Simulation::new(config.seed);
    if config.lineage {
        sim.enable_lineage();
    }
    // Session rollups: one dense recorder shared by every shard domain,
    // with session ids equal to spec-table indices (the fleet driver
    // stamps the same id on each outgoing datagram). The sampler keeps
    // the lineage recorder bounded: only a hash-selected permille of
    // sessions get full per-packet spans. An explicit `lineage` flag
    // wins — it means "record everything", so no sampler is installed.
    if config.rollups {
        let mut rec = SessionRecorder::new();
        let classes = [
            rec.add_class("real"),
            rec.add_class("wmp"),
            rec.add_class("real-bg"),
            rec.add_class("wmp-bg"),
        ];
        rec.reserve(specs.len());
        for s in specs.iter() {
            let class = classes[usize::from(s.wmp) | (usize::from(s.background) << 1)];
            rec.add_session(
                class,
                (s.interval_ns / 1000).clamp(1, u64::from(u32::MAX)) as u32,
            );
        }
        let sampler = (config.sample_permille > 0 && !config.lineage)
            .then(|| SessionSampler::new(config.seed, config.sample_permille));
        if sampler.is_some() {
            sim.enable_lineage();
        }
        sim.enable_sessions(rec, sampler);
    }
    sim.set_shards(config.shards);
    let base = ScaleScenario::build(
        &mut sim,
        &ScaleConfig {
            groups: config.groups,
            clients_per_group: 1,
            packets_per_client: 0,
            background_flows: 0,
            ..ScaleConfig::default()
        },
    );

    // Under the hybrid engine the background class rides the fluid
    // solver: each group's background sessions collapse into one
    // piecewise-constant flow over its ring link.
    let hybrid = config.engine == EngineKind::Hybrid;
    let mut fluid_flows = 0usize;
    if hybrid {
        for g in 0..config.groups {
            let rows: Vec<(SimTime, SimTime, u64)> = specs
                .iter()
                .filter(|s| s.background && s.group as usize == g)
                .map(|s| (SimTime(s.start_ns), SimTime(s.end_ns), s.rate_bps))
                .collect();
            if rows.is_empty() {
                continue;
            }
            let schedule = aggregate_session_schedule(&rows, SimDuration::from_secs(1));
            sim.add_fluid_flow(FluidFlow {
                route: vec![base.ring[g]],
                schedule,
            });
            fluid_flows += 1;
        }
    }

    let scenario = FleetScenario::attach(&mut sim, &base, specs.clone(), horizon_ns, !hybrid);

    let limit = SimTime::ZERO + SimDuration::from_nanos(horizon_ns) + SimDuration::from_secs(10);
    if config.progress {
        let mut starts: Vec<u64> = specs.iter().map(|s| s.start_ns).collect();
        let mut ends: Vec<u64> = specs.iter().map(|s| s.end_ns).collect();
        starts.sort_unstable();
        ends.sort_unstable();
        sim.set_progress(ProgressMeter::new("fleet", limit.as_nanos()).with_sessions(starts, ends));
    }
    let start = std::time::Instant::now();
    sim.run_to_idle(limit);
    let wall_ns = start.elapsed().as_nanos() as u64;

    // Detach observability products before the figures are rendered;
    // the lineage dump is whatever the sampler admitted.
    let ObserverDumps {
        lineage: lineage_dump,
        sessions: session_dump,
        ..
    } = sim.finish_observers();
    let session_memory_bytes = session_dump.as_ref().map_or(0, |d| d.memory_bytes);
    let queue_memory_bytes = sim.queue_memory_bytes();

    let mut registry = MetricsRegistry::new();
    sim.collect_metrics(&mut registry);
    let stats = sim.sim_stats();

    // Offered load, computed analytically from the spec table: each
    // session sends `packets` datagrams at start + k·interval.
    let mut offered_fg = vec![0u64; windows];
    let mut offered_bg = vec![0u64; windows];
    let (mut fg_offered, mut bg_offered) = (0u64, 0u64);
    for s in specs.iter() {
        let (buf, dg) = if s.background {
            (&mut offered_bg, &mut bg_offered)
        } else {
            (&mut offered_fg, &mut fg_offered)
        };
        *dg += s.packets as u64;
        for k in 0..s.packets as u64 {
            let at = s.start_ns + k * s.interval_ns;
            let w = ((at / FLEET_WINDOW_NS) as usize).min(windows - 1);
            buf[w] += s.payload as u64;
        }
    }

    let ledger = scenario.ledger.lock().unwrap();
    let fg_delivered: u64 = specs
        .iter()
        .zip(&ledger.delivered)
        .filter(|(s, _)| !s.background)
        .map(|(_, &d)| d as u64)
        .sum();
    let bg_delivered: u64 = specs
        .iter()
        .zip(&ledger.delivered)
        .filter(|(s, _)| s.background)
        .map(|(_, &d)| d as u64)
        .sum();

    // Fairness: delivered fraction per foreground session, ascending.
    let mut fractions: Vec<f64> = specs
        .iter()
        .zip(&ledger.delivered)
        .filter(|(s, _)| !s.background)
        .map(|(s, &d)| d as f64 / s.packets as f64)
        .collect();
    fractions.sort_by(|a, b| a.total_cmp(b));
    let jain = if fractions.is_empty() {
        1.0
    } else {
        let sum: f64 = fractions.iter().sum();
        let sq: f64 = fractions.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            1.0
        } else {
            sum * sum / (fractions.len() as f64 * sq)
        }
    };

    // Interned per-group labels: one allocation each for the whole
    // figure block, reused by every row that names a group.
    let mut interner = Interner::new();
    let ring_syms: Vec<_> = (0..config.groups)
        .map(|g| interner.intern(&format!("ring/g{g}")))
        .collect();

    let mut fig = String::new();
    fig.push_str("# fleet figures\n");
    fig.push_str(&format!(
        "sessions={} groups={} seed={}\n",
        specs.len(),
        config.groups,
        config.seed
    ));
    fig.push_str("## aggregate bandwidth per 1 s window (bytes)\n");
    fig.push_str("win offered_fg delivered_fg offered_bg delivered_bg\n");
    for w in 0..windows {
        let row = (
            offered_fg[w],
            ledger.fg_window_bytes.get(w).copied().unwrap_or(0),
            offered_bg[w],
            ledger.bg_window_bytes.get(w).copied().unwrap_or(0),
        );
        if row != (0, 0, 0, 0) {
            fig.push_str(&format!("{w} {} {} {} {}\n", row.0, row.1, row.2, row.3));
        }
    }
    fig.push_str("## per-class loss (datagrams)\n");
    let loss = |offered: u64, delivered: u64| {
        if offered == 0 {
            0.0
        } else {
            1.0 - delivered as f64 / offered as f64
        }
    };
    fig.push_str(&format!(
        "fg offered={} delivered={} loss={:.6}\n",
        fg_offered,
        fg_delivered,
        loss(fg_offered, fg_delivered)
    ));
    fig.push_str(&format!(
        "bg offered={} delivered={} loss={:.6}{}\n",
        bg_offered,
        bg_delivered,
        loss(bg_offered, bg_delivered),
        if fluid_flows > 0 {
            " carried=fluid"
        } else {
            ""
        }
    ));
    fig.push_str("## fairness CDF (delivered fraction, foreground sessions)\n");
    fig.push_str(&format!(
        "p10={:.6} p50={:.6} p90={:.6} p99={:.6} min={:.6} max={:.6} jain={:.6}\n",
        percentile(&fractions, 10.0),
        percentile(&fractions, 50.0),
        percentile(&fractions, 90.0),
        percentile(&fractions, 99.0),
        fractions.first().copied().unwrap_or(0.0),
        fractions.last().copied().unwrap_or(0.0),
        jain
    ));
    fig.push_str("## queue occupancy (ring links, peak backlog bytes)\n");
    for (g, link) in base.ring.iter().enumerate() {
        fig.push_str(&format!(
            "{} peak_backlog={}\n",
            interner.resolve(ring_syms[g]),
            sim.link(*link).stats.peak_backlog_bytes
        ));
    }

    // Steady-state population footprint, from the real containers.
    let member_count = specs.iter().filter(|s| !(s.background && hybrid)).count() as u64;
    let steady_heap = specs.len() as u64 * std::mem::size_of::<SessionSpec>() as u64
        + ledger.delivered.len() as u64 * std::mem::size_of::<u32>() as u64
        + 2 * windows as u64 * std::mem::size_of::<u64>() as u64
        + member_count * std::mem::size_of::<u32>() as u64;
    let heap_bytes_per_session = steady_heap / specs.len().max(1) as u64;
    let send_slots: u64 = scenario
        .take_send_slots(&mut sim)
        .iter()
        .map(|&(slots, _)| slots as u64)
        .sum();
    let slot_memory_bytes = send_slots * slot_heap_bytes(config.payload_bytes);

    let metrics = registry.render_text();
    let mut blob = metrics.clone().into_bytes();
    blob.extend_from_slice(fig.as_bytes());
    blob.extend_from_slice(&stats.events_processed.to_le_bytes());
    blob.extend_from_slice(&stats.events_scheduled.to_le_bytes());

    FleetRunResult {
        wall_ns,
        events_processed: stats.events_processed,
        sessions: specs.len(),
        fg_offered,
        fg_delivered,
        bg_offered,
        bg_delivered,
        figures: fig,
        metrics,
        heap_bytes_per_session,
        send_slots,
        slot_memory_bytes,
        digest: fnv1a(&blob),
        diag: sim.shard_diag(),
        fluid: sim.fluid_diag(),
        rollups: session_dump,
        lineage: lineage_dump,
        session_memory_bytes,
        queue_memory_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> FleetRunConfig {
        FleetRunConfig {
            sessions: 120,
            groups: 4,
            ..FleetRunConfig::new(seed)
        }
    }

    #[test]
    fn arrival_specs_parse() {
        assert_eq!(
            ArrivalProcess::parse("poisson:50").unwrap(),
            ArrivalProcess::Poisson { per_sec: 50.0 }
        );
        assert_eq!(
            ArrivalProcess::parse("mmpp:80,5,30").unwrap(),
            ArrivalProcess::Mmpp {
                fast_per_sec: 80.0,
                slow_per_sec: 5.0,
                mean_dwell_secs: 30.0
            }
        );
        assert!(ArrivalProcess::parse("poisson:-1").is_err());
        assert!(ArrivalProcess::parse("mmpp:1,2").is_err());
        assert!(ArrivalProcess::parse("uniform:3").is_err());
    }

    #[test]
    fn duration_specs_parse() {
        assert_eq!(
            DurationDist::parse("pareto:5,1.5").unwrap(),
            DurationDist::Pareto {
                xm_secs: 5.0,
                alpha: 1.5
            }
        );
        assert_eq!(
            DurationDist::parse("fixed:10").unwrap(),
            DurationDist::Fixed { secs: 10.0 }
        );
        assert!(DurationDist::parse("pareto:0,1").is_err());
        assert!(DurationDist::parse("gauss:1").is_err());
    }

    #[test]
    fn population_is_a_pure_function_of_the_config() {
        let a = generate_sessions(&small(7));
        let b = generate_sessions(&small(7));
        assert_eq!(a, b);
        let c = generate_sessions(&small(8));
        assert_ne!(a, c, "a different seed draws a different population");
        assert_eq!(a.len(), 120);
        // Arrivals are time-ordered and durations respect the Pareto
        // floor (2 s) and ceiling (3600 s).
        for pair in a.windows(2) {
            assert!(pair[0].start_ns <= pair[1].start_ns);
        }
        for s in &a {
            let life = s.end_ns - s.start_ns;
            assert!((2_000_000_000..=3_600_000_000_000).contains(&life));
            assert!(s.packets >= 1 && s.packets <= 12);
        }
    }

    #[test]
    fn heavy_tail_actually_spreads_durations() {
        let mut config = small(11);
        config.sessions = 2000;
        let specs = generate_sessions(&config);
        let max = specs.iter().map(|s| s.end_ns - s.start_ns).max().unwrap();
        let min = specs.iter().map(|s| s.end_ns - s.start_ns).min().unwrap();
        assert!(
            max > min * 10,
            "Pareto(2, 1.5) over 2000 draws must spread an order of magnitude"
        );
    }

    #[test]
    fn diurnal_thinning_stretches_the_arrival_span() {
        let plain = generate_sessions(&small(5));
        let mut cfg = small(5);
        cfg.diurnal = true;
        let thinned = generate_sessions(&cfg);
        let span = |v: &[SessionSpec]| v.last().unwrap().start_ns - v[0].start_ns;
        assert!(
            span(&thinned) > span(&plain),
            "thinning against the load trough must stretch arrivals"
        );
    }

    #[test]
    fn fleet_run_completes_and_accounts_for_every_datagram_class() {
        let result = run_fleet(&small(7));
        assert_eq!(result.sessions, 120);
        assert!(result.fg_offered > 0 && result.bg_offered > 0);
        assert!(result.fg_delivered > 0);
        assert!(result.fg_delivered <= result.fg_offered);
        assert!(result.figures.contains("## fairness CDF"));
        assert!(result.figures.contains("jain="));
        // The per-session budget: spec row (48) + counters + windows,
        // well under the 100-byte ceiling the fleet layer documents.
        assert!(
            (48..100).contains(&result.heap_bytes_per_session),
            "per-session heap {} outside the documented budget",
            result.heap_bytes_per_session
        );
        // Every session here overlaps every other, so each driver
        // holds a send slot per member at its high water.
        assert_eq!(result.send_slots, 120);
        assert_eq!(result.slot_memory_bytes, 120 * slot_heap_bytes(600));
    }

    #[test]
    fn digest_is_shard_invariant() {
        let base = run_fleet(&small(7));
        for shards in [ShardKind::Sharded(2), ShardKind::Sharded(4)] {
            let r = run_fleet(&FleetRunConfig { shards, ..small(7) });
            assert_eq!(base.digest, r.digest, "{shards:?}");
            assert_eq!(base.figures, r.figures, "{shards:?}");
        }
    }

    #[test]
    fn zero_background_fleet_is_engine_invariant() {
        let run = |engine: EngineKind| {
            run_fleet(&FleetRunConfig {
                engine,
                background_permille: 0,
                ..small(9)
            })
        };
        let packet = run(EngineKind::Packet);
        let hybrid = run(EngineKind::Hybrid);
        assert_eq!(packet.digest, hybrid.digest);
        assert_eq!(packet.figures, hybrid.figures);
        assert!(hybrid.fluid.is_none());
    }

    #[test]
    fn rollups_and_sampled_lineage_do_not_perturb_the_run() {
        let base = run_fleet(&small(7));
        assert!(base.rollups.is_none() && base.lineage.is_none());
        let mut cfg = small(7);
        cfg.rollups = true;
        let r = run_fleet(&cfg);
        assert_eq!(base.digest, r.digest, "rollups must not perturb the run");
        assert_eq!(base.figures, r.figures);
        assert!(r.session_memory_bytes > 0);

        // The rollup totals reconcile 1:1 with the run's own counters:
        // every datagram the driver offered was recorded as sent, every
        // datagram the ledger saw delivered was recorded as delivered.
        let dump = r.rollups.expect("rollups recorded");
        let totals = dump.totals();
        assert_eq!(totals.datagrams_sent, r.fg_offered + r.bg_offered);
        assert_eq!(totals.datagrams_delivered, r.fg_delivered + r.bg_delivered);

        // Default sampling keeps the lineage recorder bounded: spans
        // exist, and nothing was discarded past capacity.
        let lin = r.lineage.expect("sampled lineage recorded");
        assert_eq!(lin.dropped, 0, "sampled lineage must never evict");
    }

    #[test]
    fn hybrid_background_rides_the_fluid_solver() {
        let result = run_fleet(&FleetRunConfig {
            engine: EngineKind::Hybrid,
            ..small(7)
        });
        let fluid = result.fluid.expect("hybrid run exposes fluid diag");
        assert!(fluid.flows > 0);
        assert_eq!(result.bg_delivered, 0, "fluid moves rate, not datagrams");
        assert!(result.figures.contains("carried=fluid"));
    }
}
