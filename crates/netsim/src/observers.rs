//! The observer set a simulation carries: the symbol table plus the
//! three optional recorders (lineage, windowed series, session
//! rollups).
//!
//! Every recorder sits behind its own boxed `Option`, so a hook on the
//! packet path costs one `is_some` check when its observer is off.
//! Hooks never draw randomness, never schedule events and never alter
//! control flow, so a run with every observer on is byte-identical to
//! the same seed with all of them off.
//!
//! The set has two operations. [`Observers::fork`] gives each extra
//! shard domain an empty set of the same shape, and
//! [`Observers::merge`] turns 1..n domain parts into one
//! [`ObserverDumps`]. A sequential run is a merge of one part, so both
//! engines finish their observers through the same code.

use std::sync::{Arc, Mutex};
use turb_obs::lineage::{DropCause, LineageDump, LineagePart, LineageRecorder, PacketizeMeta};
use turb_obs::timeseries::{SeriesId, SeriesKind, TimeSeriesRecorder};
use turb_obs::{
    Interner, SeriesDump, SessionDump, SessionRecorder, SessionSampler, SymbolId, SPAN_DOMAIN_SHIFT,
};

/// Causal lineage tracing state, present only when
/// [`crate::Simulation::enable_lineage`] was called.
pub(crate) struct LineageState {
    pub(crate) rec: LineageRecorder,
    /// Packetisation metadata staged by [`crate::Ctx::lineage_packetize`],
    /// consumed when the next originated packet's span is born.
    pub(crate) pending_meta: Option<PacketizeMeta>,
    /// Span of the packet whose deliveries are currently dispatching,
    /// readable by applications via [`crate::Ctx::lineage_current_span`].
    pub(crate) current_span: Option<u64>,
}

/// Session-rollup state, present only when
/// [`crate::Simulation::enable_sessions`] was called. The recorder is one
/// table shared by every shard domain: per-session events are totally
/// ordered by sim time at a single driver/sink pair and every update
/// commutes across sessions, so the dump is deterministic under any
/// shard interleaving, and memory stays at one ≤128 B record per
/// session whatever the shard count.
pub(crate) struct SessionState {
    /// The shared rollup table.
    pub(crate) shared: Arc<Mutex<SessionRecorder>>,
    /// `(session id, payload bytes)` staged by
    /// [`crate::Ctx::session_packetize`], consumed (and stamped onto the
    /// packet as a [`turb_wire::ipv4::SessionTag`]) by the next
    /// originated datagram.
    pub(crate) pending: Option<(u32, u32)>,
    /// When set, per-packet lineage spans are only born for sessions
    /// this sampler admits — the deterministic hash-selected subset
    /// that keeps the lineage recorder within bounds at fleet scale.
    /// `None` preserves the full always-trace lineage behaviour.
    pub(crate) sampler: Option<SessionSampler>,
}

/// A windowed series the engine records itself, one per link or node
/// that sees the event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EngineSeries {
    /// Bytes a link put on the wire, faulted packets included.
    LinkTxBytes,
    /// A link's transmit backlog, sampled at each transmit.
    LinkQueueDepth,
    /// A link's fluid background share.
    LinkFluidBps,
    /// Bytes a node received, per fragment.
    NodeRxBytes,
    /// Packets a node's capture taps saw.
    Sniffed,
    /// Datagrams a node's reassembler holds, sampled at each local
    /// arrival.
    ReasmBacklog,
    /// Drops of one cause at a link or node.
    Dropped(DropCause),
}

impl EngineSeries {
    /// Handle slots per component: one per variant, one per cause.
    const SLOTS: usize = 6 + DropCause::ALL.len();

    fn slot(self) -> usize {
        match self {
            EngineSeries::LinkTxBytes => 0,
            EngineSeries::LinkQueueDepth => 1,
            EngineSeries::LinkFluidBps => 2,
            EngineSeries::NodeRxBytes => 3,
            EngineSeries::Sniffed => 4,
            EngineSeries::ReasmBacklog => 5,
            EngineSeries::Dropped(cause) => 6 + cause as usize,
        }
    }

    fn name(self) -> &'static str {
        match self {
            EngineSeries::LinkTxBytes => "link_tx_bytes_total",
            EngineSeries::LinkQueueDepth => "link_queue_depth_bytes",
            EngineSeries::LinkFluidBps => "link_fluid_bps",
            EngineSeries::NodeRxBytes => "node_rx_bytes_total",
            EngineSeries::Sniffed => "capture_sniffed_total",
            EngineSeries::ReasmBacklog => "reassembly_backlog_groups",
            EngineSeries::Dropped(cause) => cause.counter(),
        }
    }

    fn kind(self) -> SeriesKind {
        match self {
            EngineSeries::LinkQueueDepth
            | EngineSeries::LinkFluidBps
            | EngineSeries::ReasmBacklog => SeriesKind::Gauge,
            _ => SeriesKind::Counter,
        }
    }
}

/// Windowed time-series state, present only when
/// [`crate::Simulation::enable_timeseries`] was called: the recorder
/// plus the handle of every engine series it holds.
pub(crate) struct SeriesState {
    pub(crate) rec: TimeSeriesRecorder,
    /// Indexed by [`EngineSeries::slot`], then by component symbol, so
    /// a hot metric's handles sit together. A handle is resolved by
    /// the series' first sample, so a series exists only once
    /// something was recorded to it.
    handles: [Vec<Option<SeriesId>>; EngineSeries::SLOTS],
}

impl SeriesState {
    pub(crate) fn new(rec: TimeSeriesRecorder) -> SeriesState {
        SeriesState {
            rec,
            handles: Default::default(),
        }
    }

    /// Record `value` at `time_ns` into `comp`'s `series`.
    #[inline]
    pub(crate) fn record(
        &mut self,
        series: EngineSeries,
        comp: SymbolId,
        time_ns: u64,
        value: u64,
    ) {
        match self.handles[series.slot()]
            .get(comp.index())
            .copied()
            .flatten()
        {
            Some(id) => self.rec.record(id, time_ns, value),
            None => self.first_sample(series, comp, time_ns, value),
        }
    }

    #[cold]
    fn first_sample(&mut self, series: EngineSeries, comp: SymbolId, time_ns: u64, value: u64) {
        let id = match series.kind() {
            SeriesKind::Counter => self.rec.counter_add(time_ns, series.name(), comp, value),
            SeriesKind::Gauge => self.rec.gauge_max(time_ns, series.name(), comp, value),
        };
        let column = &mut self.handles[series.slot()];
        if comp.index() >= column.len() {
            column.resize(comp.index() + 1, None);
        }
        column[comp.index()] = Some(id);
    }
}

/// One simulation's (or one shard domain's) observers.
#[derive(Default)]
pub(crate) struct Observers {
    /// The symbol table every observer labels with. Component labels
    /// are interned at construction time whichever observers are on,
    /// so the table is a pure function of topology construction order.
    pub(crate) interner: Interner,
    /// Packet-lineage recorder; `None` unless lineage tracing is on.
    pub(crate) lineage: Option<Box<LineageState>>,
    /// Session-rollup state; `None` unless session observability is on.
    pub(crate) sessions: Option<Box<SessionState>>,
    /// Windowed time-series state; `None` unless
    /// [`crate::Simulation::enable_timeseries`] was called.
    pub(crate) timeseries: Option<Box<SeriesState>>,
}

/// What a simulation's observers recorded, finished by
/// [`crate::Simulation::finish_observers`]. Each field is `None` when its
/// observer was never enabled.
#[derive(Debug, Default)]
pub struct ObserverDumps {
    /// Packet lineage, canonicalized through
    /// [`LineageDump::merge_domains`].
    pub lineage: Option<LineageDump>,
    /// Windowed time series.
    pub series: Option<SeriesDump>,
    /// Per-session rollups.
    pub sessions: Option<SessionDump>,
}

impl Observers {
    /// The observer set shard domain `domain` (≥ 1) starts from: the
    /// same symbol table, so every construction-time id stays valid,
    /// and an empty recorder for each one that is on. Lineage span ids
    /// are namespaced by domain (see `SPAN_DOMAIN_SHIFT`); the session
    /// table is shared, not copied.
    pub(crate) fn fork(&self, domain: u16) -> Observers {
        Observers {
            interner: self.interner.clone(),
            lineage: self.lineage.as_deref().map(|orig| {
                let mut rec = LineageRecorder::with_capacity(orig.rec.capacity());
                rec.set_span_base(u64::from(domain) << SPAN_DOMAIN_SHIFT);
                Box::new(LineageState {
                    rec,
                    pending_meta: None,
                    current_span: None,
                })
            }),
            sessions: self.sessions.as_deref().map(|orig| {
                Box::new(SessionState {
                    shared: Arc::clone(&orig.shared),
                    pending: None,
                    sampler: orig.sampler,
                })
            }),
            timeseries: self.timeseries.as_deref().map(|orig| {
                Box::new(SeriesState::new(TimeSeriesRecorder::with_capacity(
                    orig.rec.window_ns(),
                    orig.rec.capacity(),
                )))
            }),
        }
    }

    /// Detach and finish every recorder of `parts`, given in domain
    /// order (span ids carry their origin domain in the high bits),
    /// leaving each part's observers off. Components are owned by
    /// exactly one domain, so the merged series equal a sequential
    /// recorder's; the session table is unwrapped once every part has
    /// let go of it.
    pub(crate) fn merge<'a>(parts: impl IntoIterator<Item = &'a mut Observers>) -> ObserverDumps {
        let mut parts: Vec<&mut Observers> = parts.into_iter().collect();
        // Every domain holds a handle to the one table: take them all,
        // keeping only the last, which then owns it alone.
        let mut shared = None;
        for part in &mut parts {
            if let Some(sess) = part.sessions.take() {
                shared = Some(sess.shared);
            }
        }
        let sessions = shared.map(|shared| {
            Arc::try_unwrap(shared)
                .expect("every domain released the session table")
                .into_inner()
                .expect("no domain panics holding the recorder")
                .finish()
        });
        let mut series: Option<SeriesDump> = None;
        for part in &mut parts {
            if let Some(ts) = part.timeseries.take() {
                let dump = ts.rec.finish(&part.interner);
                match series.as_mut() {
                    None => series = Some(dump),
                    Some(merged) => merged.merge(&dump),
                }
            }
        }
        let lineage_parts: Vec<LineagePart> = parts
            .iter_mut()
            .filter_map(|part| {
                let lin = part.lineage.take()?;
                Some(lin.rec.finish(&part.interner))
            })
            .collect();
        let lineage =
            (!lineage_parts.is_empty()).then(|| LineageDump::merge_domains(lineage_parts));
        ObserverDumps {
            lineage,
            series,
            sessions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set with every recorder on and one registered session.
    fn all_on() -> Observers {
        let mut rec = SessionRecorder::new();
        let class = rec.add_class("probe");
        rec.add_session(class, 1);
        let mut obs = Observers::default();
        obs.interner.intern("node:a");
        obs.lineage = Some(Box::new(LineageState {
            rec: LineageRecorder::default(),
            pending_meta: None,
            current_span: None,
        }));
        obs.sessions = Some(Box::new(SessionState {
            shared: Arc::new(Mutex::new(rec)),
            pending: None,
            sampler: None,
        }));
        obs.timeseries = Some(Box::new(SeriesState::new(TimeSeriesRecorder::new(0))));
        obs
    }

    #[test]
    fn forks_share_the_session_table_and_namespace_spans() {
        let mut d0 = all_on();
        let mut d1 = d0.fork(1);
        let comp = d1
            .interner
            .get("node:a")
            .expect("the fork keeps the symbols");
        for (domain, part) in [&mut d0, &mut d1].into_iter().enumerate() {
            let now_ns = 10 * domain as u64;
            let sess = part.sessions.as_deref().expect("sessions forked");
            sess.shared.lock().unwrap().record_send(0, 100, now_ns);
            let lin = part.lineage.as_deref_mut().expect("lineage forked");
            let span = lin.rec.begin_span(now_ns, comp, None, 100);
            assert_eq!(span >> SPAN_DOMAIN_SHIFT, domain as u64);
        }
        let dumps = Observers::merge([&mut d0, &mut d1]);
        assert_eq!(dumps.sessions.unwrap().totals().datagrams_sent, 2);
        assert_eq!(dumps.lineage.unwrap().origins.len(), 2);
        assert!(dumps.series.is_some());
        assert!(d0.sessions.is_none() && d1.lineage.is_none() && d1.timeseries.is_none());
    }

    #[test]
    fn a_set_with_nothing_on_merges_to_no_dumps() {
        let mut obs = Observers::default();
        let dumps = Observers::merge([&mut obs]);
        assert!(dumps.lineage.is_none() && dumps.series.is_none() && dumps.sessions.is_none());
    }
}
