//! Fleet-scale per-session QoE rollups and deterministic lineage
//! sampling.
//!
//! Per-packet lineage is bounded (4M events) and cannot stay on for
//! 10⁵–10⁶ concurrent sessions, yet the questions the fleet arc exists
//! to answer are per-session: which sessions stalled, which lost
//! packets, and why. This module keeps a fixed-size [`SessionRollup`]
//! — exactly 128 bytes, asserted by test — per session, accumulated at
//! event time by the same simulator calls that bump the always-on
//! counters, so rollup sums reconcile 1:1 with them, plus a hash-based
//! [`SessionSampler`] that turns full lineage on for a deterministic
//! subset of sessions regardless of thread, shard, or engine choice.
//!
//! The same no-perturbation discipline as the rest of the crate
//! applies: recording draws no randomness, schedules nothing, and
//! never feeds back into the simulation, so a run with rollups on is
//! byte-identical to the same seed with them off.

use crate::lineage::DropCause;
use crate::loghist::LogHistogram;

/// Exact size of one [`SessionRollup`], asserted by unit test. The
/// fleet layer budgets ≤128 bytes of observability memory per session.
pub const SESSION_ROLLUP_BYTES: usize = 128;

/// Number of drop-cause slots in a rollup: the 11 [`DropCause`]
/// variants plus one spare so the record stays exactly 128 bytes.
pub const ROLLUP_DROP_SLOTS: usize = 12;

/// Per-session end-to-end latency buckets: log₄ (double-octave)
/// buckets starting at 16.4 µs, overflow in the last slot.
pub const ROLLUP_E2E_SLOTS: usize = 12;

/// Lower bound of the second e2e bucket in nanoseconds (the first
/// bucket is everything below it).
const E2E_BASE_NS: u64 = 16_384;

/// Sentinel for "no timestamp recorded yet".
const NEVER: u64 = u64::MAX;

/// Width of a delivered-rate accounting window in nanoseconds (1 s, so
/// window byte counts read directly as bytes/second).
const RATE_WINDOW_NS: u64 = 1_000_000_000;

/// Index of the log₄ bucket holding an e2e latency.
fn e2e_bucket(v_ns: u64) -> usize {
    let mut idx = 0usize;
    let mut bound = E2E_BASE_NS;
    while idx + 1 < ROLLUP_E2E_SLOTS && v_ns >= bound {
        bound <<= 2;
        idx += 1;
    }
    idx
}

/// Inclusive upper bound of an e2e bucket in nanoseconds (`u64::MAX`
/// for the overflow bucket).
pub fn e2e_bucket_upper_ns(idx: usize) -> u64 {
    if idx + 1 >= ROLLUP_E2E_SLOTS {
        u64::MAX
    } else {
        (E2E_BASE_NS << (2 * idx)) - 1
    }
}

fn cause_slot(cause: DropCause) -> usize {
    DropCause::ALL
        .iter()
        .position(|&c| c == cause)
        .expect("every DropCause is in ALL")
}

/// One session's compact QoE record: exactly 128 bytes, fixed layout,
/// all integer fields. Everything derived (startup delay, loss
/// fraction, delivered rates) is computed at render time from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct SessionRollup {
    /// Application payload bytes handed to the stack.
    pub bytes_sent: u64,
    /// Application payload bytes delivered to the receiving app.
    pub bytes_delivered: u64,
    /// Sim time of the first send (`u64::MAX` = never sent).
    pub first_send_ns: u64,
    /// Sim time of the first delivery (`u64::MAX` = never delivered).
    pub first_delivery_ns: u64,
    /// Sim time of the most recent delivery.
    pub last_delivery_ns: u64,
    /// Total stalled time: for every inter-delivery gap exceeding the
    /// stall threshold, the excess over the threshold accumulates here.
    pub rebuffer_ns: u64,
    /// Datagrams handed to the stack.
    pub datagrams_sent: u32,
    /// Datagrams delivered to the receiving app.
    pub datagrams_delivered: u32,
    /// Inter-delivery gaps that exceeded the stall threshold.
    pub rebuffer_count: u32,
    /// Nominal inter-datagram interval in microseconds; the stall
    /// threshold is twice this, or 1 s when 0 (interval unknown).
    pub interval_us: u32,
    /// Fewest bytes delivered in any *closed, non-empty* 1 s window
    /// (`u32::MAX` = no window closed yet).
    pub rate_min: u32,
    /// Most bytes delivered in any closed 1 s window.
    pub rate_max: u32,
    /// Bytes delivered in the currently open window.
    pub win_bytes: u32,
    /// Index (sim seconds) of the open window (`u32::MAX` = none).
    pub win_index: u32,
    /// Saturating per-cause drop counts, [`DropCause::ALL`] order
    /// (last slot spare).
    pub drops: [u16; ROLLUP_DROP_SLOTS],
    /// Saturating log₄ e2e latency bucket counts (see
    /// [`e2e_bucket_upper_ns`]).
    pub e2e: [u16; ROLLUP_E2E_SLOTS],
}

impl Default for SessionRollup {
    fn default() -> SessionRollup {
        SessionRollup {
            bytes_sent: 0,
            bytes_delivered: 0,
            first_send_ns: NEVER,
            first_delivery_ns: NEVER,
            last_delivery_ns: 0,
            rebuffer_ns: 0,
            datagrams_sent: 0,
            datagrams_delivered: 0,
            rebuffer_count: 0,
            interval_us: 0,
            rate_min: u32::MAX,
            rate_max: 0,
            win_bytes: 0,
            win_index: u32::MAX,
            drops: [0; ROLLUP_DROP_SLOTS],
            e2e: [0; ROLLUP_E2E_SLOTS],
        }
    }
}

impl SessionRollup {
    /// Stall threshold for this session's rebuffer accounting.
    fn stall_ns(&self) -> u64 {
        if self.interval_us == 0 {
            1_000_000_000
        } else {
            2 * u64::from(self.interval_us) * 1_000
        }
    }

    /// Startup delay (first send → first delivery), `None` when the
    /// session never saw a delivery.
    pub fn startup_ns(&self) -> Option<u64> {
        (self.first_send_ns != NEVER && self.first_delivery_ns != NEVER)
            .then(|| self.first_delivery_ns.saturating_sub(self.first_send_ns))
    }

    /// Fraction of sent datagrams never delivered (0 when nothing was
    /// sent).
    pub fn loss_fraction(&self) -> f64 {
        if self.datagrams_sent == 0 {
            0.0
        } else {
            let lost = self.datagrams_sent.saturating_sub(self.datagrams_delivered);
            f64::from(lost) / f64::from(self.datagrams_sent)
        }
    }

    /// Fraction of sent bytes never delivered (0 when nothing was
    /// sent).
    pub fn byte_deficit(&self) -> f64 {
        if self.bytes_sent == 0 {
            0.0
        } else {
            let lost = self.bytes_sent.saturating_sub(self.bytes_delivered);
            lost as f64 / self.bytes_sent as f64
        }
    }

    /// Mean delivered rate in bits/second over first send → last
    /// delivery, `None` when that span is empty.
    pub fn mean_rate_bps(&self) -> Option<u64> {
        let start = self.first_send_ns;
        if start == NEVER || self.first_delivery_ns == NEVER || self.last_delivery_ns <= start {
            return None;
        }
        let span_ns = self.last_delivery_ns - start;
        Some((self.bytes_delivered.saturating_mul(8)).saturating_mul(1_000_000_000) / span_ns)
    }

    /// Slowest closed 1 s window in bits/second, `None` before any
    /// window closed.
    pub fn rate_min_bps(&self) -> Option<u64> {
        (self.rate_min != u32::MAX).then(|| u64::from(self.rate_min) * 8)
    }

    /// Fastest closed 1 s window in bits/second.
    pub fn rate_max_bps(&self) -> Option<u64> {
        (self.rate_min != u32::MAX).then(|| u64::from(self.rate_max) * 8)
    }

    /// Total drops across all causes.
    pub fn drops_total(&self) -> u64 {
        self.drops.iter().map(|&d| u64::from(d)).sum()
    }

    /// Upper bound (ns) of the e2e bucket holding the `q`-quantile,
    /// `None` when the session saw no deliveries. Resolution is the
    /// coarse per-session log₄ grid — the per-class
    /// [`LogHistogram`]s carry the fine-grained picture.
    pub fn e2e_quantile_ns(&self, q: f64) -> Option<u64> {
        let total: u64 = self.e2e.iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.e2e.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(e2e_bucket_upper_ns(idx));
            }
        }
        Some(e2e_bucket_upper_ns(ROLLUP_E2E_SLOTS - 1))
    }

    /// Fold the open rate window into min/max. Called once at finish.
    fn close_window(&mut self) {
        if self.win_index != u32::MAX {
            self.rate_min = self.rate_min.min(self.win_bytes);
            self.rate_max = self.rate_max.max(self.win_bytes);
            self.win_index = u32::MAX;
            self.win_bytes = 0;
        }
    }
}

/// Deterministic session-sampling filter: a pure function of
/// `(seed, session id, rate)` decides which sessions record full
/// per-packet lineage, so the selection is invariant under thread
/// count, shard count, scheduler, and engine by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSampler {
    seed: u64,
    permille: u32,
}

/// Default lineage sampling rate: 10‰ (1 %), which keeps the 4M-event
/// lineage recorder within bounds at 10⁶ sessions of ~100 packets.
pub const DEFAULT_SESSION_SAMPLE_PERMILLE: u32 = 10;

impl SessionSampler {
    /// A sampler admitting ~`permille`/1000 of sessions (clamped to
    /// 1000).
    pub fn new(seed: u64, permille: u32) -> SessionSampler {
        SessionSampler {
            seed,
            permille: permille.min(1000),
        }
    }

    /// The configured rate in permille.
    pub fn permille(&self) -> u32 {
        self.permille
    }

    /// Does `session_id` record full lineage? FNV-1a over the seed and
    /// id bytes with an avalanche finisher; no randomness is drawn.
    pub fn admits(&self, session_id: u32) -> bool {
        if self.permille >= 1000 {
            return true;
        }
        if self.permille == 0 {
            return false;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self
            .seed
            .to_le_bytes()
            .into_iter()
            .chain(session_id.to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // splitmix64 finisher: FNV alone is weak in the low bits.
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h % 1000) < u64::from(self.permille)
    }
}

/// Accumulates one [`SessionRollup`] per session at event time.
///
/// A sharded simulation keeps one recorder for all of its domains:
/// every mutation is either commutative across sessions or ordered
/// within a session by the simulation itself (a session's sends
/// happen at one driver node, its deliveries at one sink node, both in
/// sim-time order), so the finished dump is identical under any shard
/// interleaving. Memory stays at exactly one
/// record per session regardless of shard count.
#[derive(Debug, Default)]
pub struct SessionRecorder {
    rollups: Vec<SessionRollup>,
    class_of: Vec<u8>,
    class_names: Vec<String>,
    /// Exact per-class e2e latency sketches, accumulated at event time
    /// (the per-session log₄ buckets are too coarse for class tables).
    class_e2e: Vec<LogHistogram>,
    /// Tags seen for sessions never registered (a wiring bug, surfaced
    /// in the dump instead of panicking mid-run).
    unknown_session_events: u64,
}

impl SessionRecorder {
    /// An empty recorder.
    pub fn new() -> SessionRecorder {
        SessionRecorder::default()
    }

    /// Register a session class (e.g. `"real/fg"`), returning its id.
    pub fn add_class(&mut self, name: &str) -> u8 {
        if let Some(pos) = self.class_names.iter().position(|n| n == name) {
            return pos as u8;
        }
        assert!(self.class_names.len() < 256, "at most 256 session classes");
        self.class_names.push(name.to_string());
        self.class_e2e.push(LogHistogram::new());
        (self.class_names.len() - 1) as u8
    }

    /// Register the next session (ids are dense, in registration
    /// order) with its class and nominal send interval.
    pub fn add_session(&mut self, class: u8, interval_us: u32) -> u32 {
        assert!((class as usize) < self.class_names.len(), "unknown class");
        let id = self.rollups.len() as u32;
        self.rollups.push(SessionRollup {
            interval_us,
            ..SessionRollup::default()
        });
        self.class_of.push(class);
        id
    }

    /// Pre-size the session table.
    pub fn reserve(&mut self, sessions: usize) {
        self.rollups.reserve(sessions);
        self.class_of.reserve(sessions);
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.rollups.len()
    }

    /// True when no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.rollups.is_empty()
    }

    fn rollup_mut(&mut self, id: u32) -> Option<&mut SessionRollup> {
        match self.rollups.get_mut(id as usize) {
            Some(r) => Some(r),
            None => {
                self.unknown_session_events += 1;
                None
            }
        }
    }

    /// A datagram of `bytes` application payload left session `id`.
    pub fn record_send(&mut self, id: u32, bytes: u32, now_ns: u64) {
        if let Some(r) = self.rollup_mut(id) {
            r.datagrams_sent = r.datagrams_sent.saturating_add(1);
            r.bytes_sent = r.bytes_sent.saturating_add(u64::from(bytes));
            if r.first_send_ns == NEVER {
                r.first_send_ns = now_ns;
            }
        }
    }

    /// A datagram of `bytes` payload reached session `id`'s receiver;
    /// `born_ns` is when it left the sender (e2e = `now_ns - born_ns`).
    pub fn record_delivery(&mut self, id: u32, bytes: u32, now_ns: u64, born_ns: u64) {
        let class = self.class_of.get(id as usize).copied();
        let Some(r) = self.rollup_mut(id) else {
            return;
        };
        r.datagrams_delivered = r.datagrams_delivered.saturating_add(1);
        r.bytes_delivered = r.bytes_delivered.saturating_add(u64::from(bytes));
        if r.first_delivery_ns == NEVER {
            r.first_delivery_ns = now_ns;
        } else {
            let gap = now_ns.saturating_sub(r.last_delivery_ns);
            let stall = r.stall_ns();
            if gap > stall {
                r.rebuffer_count = r.rebuffer_count.saturating_add(1);
                r.rebuffer_ns = r.rebuffer_ns.saturating_add(gap - stall);
            }
        }
        r.last_delivery_ns = now_ns;

        let e2e_ns = now_ns.saturating_sub(born_ns);
        let slot = e2e_bucket(e2e_ns);
        r.e2e[slot] = r.e2e[slot].saturating_add(1);

        // Delivered-rate windows: 1 s of sim time each; empty windows
        // are skipped (min is over non-empty windows).
        let w = (now_ns / RATE_WINDOW_NS) as u32;
        if r.win_index == w {
            r.win_bytes = r.win_bytes.saturating_add(bytes);
        } else {
            if r.win_index != u32::MAX {
                r.rate_min = r.rate_min.min(r.win_bytes);
                r.rate_max = r.rate_max.max(r.win_bytes);
            }
            r.win_index = w;
            r.win_bytes = bytes;
        }

        if let Some(c) = class {
            self.class_e2e[c as usize].observe(e2e_ns);
        }
    }

    /// A wire packet of session `id` was dropped.
    pub fn record_drop(&mut self, id: u32, cause: DropCause) {
        let slot = cause_slot(cause);
        if let Some(r) = self.rollup_mut(id) {
            r.drops[slot] = r.drops[slot].saturating_add(1);
        }
    }

    /// Observability memory currently held per the ≤128 B/session
    /// budget: the rollup table plus class tables and sketches.
    pub fn memory_bytes(&self) -> u64 {
        let rollups = self.rollups.capacity() * SESSION_ROLLUP_BYTES;
        let classes = self.class_of.capacity();
        let hists: usize = self
            .class_e2e
            .iter()
            .map(|h| h.buckets().count() * 16 + 48)
            .sum();
        (rollups + classes + hists) as u64
    }

    /// Close open windows and freeze into a [`SessionDump`].
    pub fn finish(mut self) -> SessionDump {
        let memory_bytes = self.memory_bytes();
        for r in &mut self.rollups {
            r.close_window();
        }
        let n_classes = self.class_names.len();
        let mut class_startup = vec![LogHistogram::new(); n_classes];
        let mut class_rebuffer = vec![LogHistogram::new(); n_classes];
        for (r, &c) in self.rollups.iter().zip(&self.class_of) {
            if let Some(s) = r.startup_ns() {
                class_startup[c as usize].observe(s);
            }
            class_rebuffer[c as usize].observe(r.rebuffer_ns);
        }
        SessionDump {
            rollups: self.rollups,
            class_of: self.class_of,
            class_names: self.class_names,
            class_e2e: self.class_e2e,
            class_startup,
            class_rebuffer,
            unknown_session_events: self.unknown_session_events,
            memory_bytes,
        }
    }
}

/// Sums over every rollup, for 1:1 reconciliation against the
/// simulator's always-on counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTotals {
    /// Σ datagrams_sent.
    pub datagrams_sent: u64,
    /// Σ datagrams_delivered — must equal the sinks' summed
    /// `node_udp_delivered_total` when every datagram is tagged.
    pub datagrams_delivered: u64,
    /// Σ bytes_sent.
    pub bytes_sent: u64,
    /// Σ bytes_delivered.
    pub bytes_delivered: u64,
    /// Σ rebuffer_count.
    pub rebuffer_count: u64,
    /// Per-cause drop sums, [`DropCause::ALL`] order — each must equal
    /// its cause's always-on counter total when every packet is
    /// tagged.
    pub drops: [u64; 11],
}

/// A finished, immutable session observability dump.
#[derive(Debug, Clone, Default)]
pub struct SessionDump {
    /// One rollup per session, dense in session-id order.
    pub rollups: Vec<SessionRollup>,
    /// Class id per session, parallel to `rollups`.
    pub class_of: Vec<u8>,
    /// Class names, indexed by class id.
    pub class_names: Vec<String>,
    /// Exact per-class e2e latency sketches.
    pub class_e2e: Vec<LogHistogram>,
    /// Per-class startup-delay sketches (sessions that delivered).
    pub class_startup: Vec<LogHistogram>,
    /// Per-class total-rebuffer-time sketches (every session, zeros
    /// included).
    pub class_rebuffer: Vec<LogHistogram>,
    /// Events carrying a session id that was never registered (wiring
    /// bug indicator; 0 in a healthy run).
    pub unknown_session_events: u64,
    /// Observability memory held at finish (≤128 B/session budget).
    pub memory_bytes: u64,
}

impl SessionDump {
    /// Totals for counter reconciliation.
    pub fn totals(&self) -> SessionTotals {
        let mut t = SessionTotals::default();
        for r in &self.rollups {
            t.datagrams_sent += u64::from(r.datagrams_sent);
            t.datagrams_delivered += u64::from(r.datagrams_delivered);
            t.bytes_sent += r.bytes_sent;
            t.bytes_delivered += r.bytes_delivered;
            t.rebuffer_count += u64::from(r.rebuffer_count);
            for (slot, d) in t.drops.iter_mut().enumerate() {
                *d += u64::from(r.drops[slot]);
            }
        }
        t
    }

    fn class_name(&self, id: u32) -> &str {
        self.class_of
            .get(id as usize)
            .and_then(|&c| self.class_names.get(c as usize))
            .map_or("?", |n| n.as_str())
    }

    /// One JSON object per session, fixed field order and schema
    /// (integer-only values, `null` for "never"), deterministic byte
    /// for byte across threads, shards, schedulers, and engines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.rollups.len() * 192);
        for (id, r) in self.rollups.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                concat!(
                    "{{\"id\":{},\"class\":\"{}\",",
                    "\"datagrams_sent\":{},\"datagrams_delivered\":{},",
                    "\"bytes_sent\":{},\"bytes_delivered\":{},",
                    "\"startup_us\":{},\"rebuffer_count\":{},\"rebuffer_us\":{},",
                    "\"mean_rate_bps\":{},\"rate_min_bps\":{},\"rate_max_bps\":{},",
                    "\"e2e_p50_us\":{},\"e2e_p99_us\":{},\"drops\":[{}]}}\n",
                ),
                id,
                self.class_name(id as u32),
                r.datagrams_sent,
                r.datagrams_delivered,
                r.bytes_sent,
                r.bytes_delivered,
                opt(r.startup_ns().map(|v| v / 1_000)),
                r.rebuffer_count,
                r.rebuffer_ns / 1_000,
                opt(r.mean_rate_bps()),
                opt(r.rate_min_bps()),
                opt(r.rate_max_bps()),
                opt(r.e2e_quantile_ns(0.50).map(saturating_us)),
                opt(r.e2e_quantile_ns(0.99).map(saturating_us)),
                r.drops[..11]
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ));
        }
        out
    }

    /// The same schema as [`SessionDump::to_jsonl`] as CSV (header
    /// row; empty cells for `null`; drop causes as one column each).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.rollups.len() * 128);
        out.push_str(
            "id,class,datagrams_sent,datagrams_delivered,bytes_sent,bytes_delivered,\
             startup_us,rebuffer_count,rebuffer_us,mean_rate_bps,rate_min_bps,rate_max_bps,\
             e2e_p50_us,e2e_p99_us",
        );
        for cause in DropCause::ALL {
            out.push(',');
            out.push_str("drop_");
            out.push_str(cause.label());
        }
        out.push('\n');
        for (id, r) in self.rollups.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                id,
                self.class_name(id as u32),
                r.datagrams_sent,
                r.datagrams_delivered,
                r.bytes_sent,
                r.bytes_delivered,
                opt(r.startup_ns().map(|v| v / 1_000)),
                r.rebuffer_count,
                r.rebuffer_ns / 1_000,
                opt(r.mean_rate_bps()),
                opt(r.rate_min_bps()),
                opt(r.rate_max_bps()),
                opt(r.e2e_quantile_ns(0.50).map(saturating_us)),
                opt(r.e2e_quantile_ns(0.99).map(saturating_us)),
            ));
            for slot in 0..11 {
                out.push(',');
                out.push_str(&r.drops[slot].to_string());
            }
            out.push('\n');
        }
        out
    }

    /// Per-class summary: session count, delivered count, p50/p95/p99
    /// startup and rebuffer (via [`LogHistogram::quantile`]), mean
    /// loss. Rendered by `turbulence pair` / `fleet` / `sessions`.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>9} {:>9}  {:>24}  {:>24} {:>8}\n",
            "class",
            "sessions",
            "delivered",
            "startup p50/p95/p99 ms",
            "rebuffer p50/p95/p99 ms",
            "loss"
        ));
        for (c, name) in self.class_names.iter().enumerate() {
            let mut sessions = 0u64;
            let mut delivered = 0u64;
            let mut sent_dg = 0u64;
            let mut lost_dg = 0u64;
            for (r, &rc) in self.rollups.iter().zip(&self.class_of) {
                if usize::from(rc) != c {
                    continue;
                }
                sessions += 1;
                if r.first_delivery_ns != NEVER {
                    delivered += 1;
                }
                sent_dg += u64::from(r.datagrams_sent);
                lost_dg += u64::from(r.datagrams_sent.saturating_sub(r.datagrams_delivered));
            }
            let q3 = |h: &LogHistogram| {
                let ms = |q: f64| {
                    h.quantile(q)
                        .map_or("-".to_string(), |v| format!("{:.1}", v as f64 / 1e6))
                };
                format!("{}/{}/{}", ms(0.50), ms(0.95), ms(0.99))
            };
            let loss = if sent_dg == 0 {
                0.0
            } else {
                lost_dg as f64 / sent_dg as f64
            };
            out.push_str(&format!(
                "{:<12} {:>9} {:>9}  {:>24}  {:>24} {:>7.3}%\n",
                name,
                sessions,
                delivered,
                q3(&self.class_startup[c]),
                q3(&self.class_rebuffer[c]),
                loss * 100.0,
            ));
        }
        out
    }

    /// The `k` worst sessions by `key`, descending score, ties broken
    /// by session id. Deterministic: scores are pure functions of the
    /// rollups.
    pub fn worst(&self, k: usize, key: &BadnessKey) -> Vec<(u32, f64)> {
        let mut scored: Vec<(u32, f64)> = self
            .rollups
            .iter()
            .enumerate()
            .map(|(id, r)| (id as u32, key.score(r)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

fn saturating_us(ns: u64) -> u64 {
    if ns == u64::MAX {
        u64::MAX
    } else {
        ns / 1_000
    }
}

/// Sessions that never delivered a byte get this many seconds as their
/// startup term — a large finite penalty so they sort ahead of every
/// slow-but-alive session without collapsing the rest of the key into
/// NaN/∞ ties.
const NEVER_STARTED_SECS: f64 = 1e6;

/// A composable "badness" ranking key: a weighted sum of per-session
/// QoE terms. Parse from a spec like `"loss,rebuffer"` or
/// `"loss=2,startup=0.5"`; unnamed terms get weight 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BadnessKey {
    /// Weight on the datagram loss fraction (0..=1).
    pub loss: f64,
    /// Weight on total rebuffer time in seconds.
    pub rebuffer: f64,
    /// Weight on startup delay in seconds
    /// ([`NEVER_STARTED_SECS`] for sessions that never delivered).
    pub startup: f64,
    /// Weight on the byte deficit fraction (0..=1) — goodput shortfall.
    pub goodput: f64,
}

impl Default for BadnessKey {
    /// The default key weighs loss, rebuffer, and startup equally.
    fn default() -> BadnessKey {
        BadnessKey {
            loss: 1.0,
            rebuffer: 1.0,
            startup: 1.0,
            goodput: 0.0,
        }
    }
}

impl BadnessKey {
    /// Parse a comma-separated spec: each term is `name` (weight 1) or
    /// `name=weight`, names in {`loss`, `rebuffer`, `startup`,
    /// `goodput`}.
    pub fn parse(spec: &str) -> Result<BadnessKey, String> {
        let mut key = BadnessKey {
            loss: 0.0,
            rebuffer: 0.0,
            startup: 0.0,
            goodput: 0.0,
        };
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (name, weight) = match term.split_once('=') {
                Some((n, w)) => (
                    n.trim(),
                    w.trim()
                        .parse::<f64>()
                        .map_err(|_| format!("bad weight in badness term '{term}'"))?,
                ),
                None => (term, 1.0),
            };
            match name {
                "loss" => key.loss = weight,
                "rebuffer" => key.rebuffer = weight,
                "startup" => key.startup = weight,
                "goodput" => key.goodput = weight,
                _ => {
                    return Err(format!(
                        "unknown badness term '{name}' (expected loss|rebuffer|startup|goodput)"
                    ))
                }
            }
        }
        if key
            == (BadnessKey {
                loss: 0.0,
                rebuffer: 0.0,
                startup: 0.0,
                goodput: 0.0,
            })
        {
            return Err("empty badness key".to_string());
        }
        Ok(key)
    }

    /// The canonical spec string this key round-trips through
    /// [`BadnessKey::parse`] — what `turbulence sessions` prints as
    /// the ranking's title.
    pub fn spec(&self) -> String {
        let mut terms = Vec::new();
        for (name, weight) in [
            ("loss", self.loss),
            ("rebuffer", self.rebuffer),
            ("startup", self.startup),
            ("goodput", self.goodput),
        ] {
            if weight == 0.0 {
                continue;
            }
            if weight == 1.0 {
                terms.push(name.to_string());
            } else {
                terms.push(format!("{name}={weight}"));
            }
        }
        terms.join(",")
    }

    /// Score a rollup (higher = worse).
    pub fn score(&self, r: &SessionRollup) -> f64 {
        let startup_secs = match r.startup_ns() {
            Some(ns) => ns as f64 / 1e9,
            None if r.datagrams_sent > 0 => NEVER_STARTED_SECS,
            None => 0.0,
        };
        self.loss * r.loss_fraction()
            + self.rebuffer * (r.rebuffer_ns as f64 / 1e9)
            + self.startup * startup_secs
            + self.goodput * r.byte_deficit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_is_exactly_128_bytes() {
        assert_eq!(std::mem::size_of::<SessionRollup>(), SESSION_ROLLUP_BYTES);
    }

    fn recorder_with(n: usize) -> SessionRecorder {
        let mut rec = SessionRecorder::new();
        let c = rec.add_class("test");
        for _ in 0..n {
            rec.add_session(c, 0);
        }
        rec
    }

    #[test]
    fn send_deliver_drop_accumulate() {
        let mut rec = recorder_with(2);
        rec.record_send(0, 1000, 10);
        rec.record_send(0, 1000, 20);
        rec.record_delivery(0, 1000, 1_000_000, 10);
        rec.record_drop(0, DropCause::QueueFull);
        rec.record_send(1, 500, 15);
        let dump = rec.finish();
        let r = &dump.rollups[0];
        assert_eq!(r.datagrams_sent, 2);
        assert_eq!(r.datagrams_delivered, 1);
        assert_eq!(r.bytes_sent, 2000);
        assert_eq!(r.bytes_delivered, 1000);
        assert_eq!(r.startup_ns(), Some(1_000_000 - 10));
        assert_eq!(r.drops[0], 1);
        assert_eq!(r.drops_total(), 1);
        let t = dump.totals();
        assert_eq!(t.datagrams_sent, 3);
        assert_eq!(t.datagrams_delivered, 1);
        assert_eq!(t.drops[0], 1);
        assert_eq!(dump.unknown_session_events, 0);
    }

    #[test]
    fn rebuffer_counts_gaps_beyond_the_stall_threshold() {
        let mut rec = SessionRecorder::new();
        let c = rec.add_class("x");
        // 10 ms nominal interval → 20 ms stall threshold.
        rec.add_session(c, 10_000);
        rec.record_send(0, 100, 0);
        let ms = 1_000_000u64;
        rec.record_delivery(0, 100, 5 * ms, 0);
        rec.record_delivery(0, 100, 15 * ms, 0); // 10 ms gap: fine
        rec.record_delivery(0, 100, 65 * ms, 0); // 50 ms gap: stall
        let r = rec.finish().rollups[0];
        assert_eq!(r.rebuffer_count, 1);
        assert_eq!(r.rebuffer_ns, 30 * ms); // 50 ms gap − 20 ms allowed
    }

    #[test]
    fn rate_windows_track_min_and_max() {
        let mut rec = recorder_with(1);
        let s = 1_000_000_000u64;
        rec.record_send(0, 1, 0);
        for (t, b) in [(0, 300u32), (s / 2, 200), (s + 1, 100), (3 * s, 700)] {
            rec.record_delivery(0, b, t, 0);
        }
        let r = rec.finish().rollups[0];
        // Windows: [0,1s)=500, [1s,2s)=100, [3s,4s)=700 (2s empty,
        // skipped; the last window is folded at finish).
        assert_eq!(r.rate_min_bps(), Some(100 * 8));
        assert_eq!(r.rate_max_bps(), Some(700 * 8));
    }

    #[test]
    fn e2e_buckets_are_monotone_and_quantiles_walk() {
        let mut rec = recorder_with(1);
        rec.record_send(0, 1, 0);
        for e2e in [10_000u64, 100_000, 1_000_000, 10_000_000] {
            rec.record_delivery(0, 1, e2e, 0);
        }
        let dump = rec.finish();
        let r = &dump.rollups[0];
        assert_eq!(r.e2e.iter().map(|&c| u64::from(c)).sum::<u64>(), 4);
        let p50 = r.e2e_quantile_ns(0.5).unwrap();
        let p99 = r.e2e_quantile_ns(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(p50 >= 100_000, "p50 bucket covers the 2nd value: {p50}");
        // The exact class sketch saw the same observations.
        assert_eq!(dump.class_e2e[0].count(), 4);
    }

    #[test]
    fn sampler_is_a_pure_function_with_roughly_the_right_rate() {
        let s = SessionSampler::new(42, 100); // 10%
        let hits: u32 = (0..100_000).map(|id| u32::from(s.admits(id))).sum();
        assert!((8_000..12_000).contains(&hits), "{hits}");
        // Pure: same inputs, same answer; different seed, different set.
        let t = SessionSampler::new(42, 100);
        let u = SessionSampler::new(43, 100);
        let same = (0..1000).all(|id| s.admits(id) == t.admits(id));
        let differs = (0..1000).any(|id| s.admits(id) != u.admits(id));
        assert!(same && differs);
        assert!(SessionSampler::new(1, 1000).admits(7));
        assert!(!SessionSampler::new(1, 0).admits(7));
    }

    #[test]
    fn jsonl_and_csv_are_deterministic_and_fixed_schema() {
        let build = || {
            let mut rec = recorder_with(3);
            rec.record_send(0, 100, 5);
            rec.record_delivery(0, 100, 2_000_005, 5);
            rec.record_drop(1, DropCause::Fault);
            rec.finish()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.to_csv(), b.to_csv());
        // Every line carries the full schema, including nulls.
        for line in a.to_jsonl().lines() {
            assert!(line.contains("\"mean_rate_bps\":"), "{line}");
            assert!(line.contains("\"drops\":["), "{line}");
        }
        assert_eq!(a.to_jsonl().lines().count(), 3);
        assert_eq!(a.to_csv().lines().count(), 4); // header + 3
        assert!(a.to_csv().starts_with("id,class,"));
    }

    #[test]
    fn worst_ranks_by_the_composed_key() {
        let mut rec = recorder_with(3);
        // Session 0: clean. Session 1: lossy. Session 2: never starts.
        for id in 0..3u32 {
            rec.record_send(id, 100, 0);
            rec.record_send(id, 100, 10);
        }
        rec.record_delivery(0, 100, 1000, 0);
        rec.record_delivery(0, 100, 1010, 10);
        rec.record_delivery(1, 100, 1000, 0);
        rec.record_drop(1, DropCause::QueueFull);
        let dump = rec.finish();
        let key = BadnessKey::parse("loss,startup").unwrap();
        let worst = dump.worst(2, &key);
        assert_eq!(worst[0].0, 2, "never-started session is worst");
        assert_eq!(worst[1].0, 1, "lossy session is next");
        assert!(worst[0].1 > worst[1].1);
        assert!(BadnessKey::parse("nope").is_err());
        assert!(BadnessKey::parse("").is_err());
        let weighted = BadnessKey::parse("rebuffer=2.5").unwrap();
        assert_eq!(weighted.rebuffer, 2.5);
        assert_eq!(weighted.loss, 0.0);
    }

    #[test]
    fn summary_table_names_every_class() {
        let mut rec = SessionRecorder::new();
        let a = rec.add_class("real/fg");
        let b = rec.add_class("wmp/fg");
        rec.add_session(a, 0);
        rec.add_session(b, 0);
        rec.record_send(0, 10, 0);
        rec.record_delivery(0, 10, 1_000_000, 0);
        let table = rec.finish().summary_table();
        assert!(table.contains("real/fg"), "{table}");
        assert!(table.contains("wmp/fg"), "{table}");
    }

    #[test]
    fn memory_budget_is_within_128_bytes_per_session() {
        let mut rec = SessionRecorder::new();
        let c = rec.add_class("x");
        let n = 10_000usize;
        rec.reserve(n);
        for _ in 0..n {
            rec.add_session(c, 1000);
        }
        for id in 0..n as u32 {
            rec.record_send(id, 100, u64::from(id));
            rec.record_delivery(id, 100, u64::from(id) + 1000, u64::from(id));
        }
        let bytes = rec.memory_bytes();
        // Rollups + class byte + amortised sketch overhead.
        assert!(bytes <= (n as u64) * 132, "{bytes} bytes for {n} sessions");
        assert_eq!(rec.finish().memory_bytes, bytes);
    }

    #[test]
    fn unknown_sessions_are_counted_not_fatal() {
        let mut rec = recorder_with(1);
        rec.record_send(99, 1, 0);
        rec.record_delivery(99, 1, 1, 0);
        rec.record_drop(99, DropCause::Fault);
        assert_eq!(rec.finish().unknown_session_events, 3);
    }
}
