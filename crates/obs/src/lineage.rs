//! Causal packet lineage: follow one datagram across every layer.
//!
//! A *span* is born when a packet enters the IP layer at its origin
//! node (for media packets the player stamps packetisation metadata on
//! it first), and every later stage transition — fragmentation, link
//! transmission, scheduler dequeue/arrival, capture taps, reassembly,
//! application delivery, playback buffering and playout — appends a
//! [`LineageEvent`] carrying the sim timestamp. Fragments of one
//! datagram share the parent's span and are told apart by their
//! fragment offset (the event's `aux` field), so a lost fragment is
//! attributed to the datagram it doomed.
//!
//! The recorder obeys the workspace no-perturbation invariant: it
//! never draws randomness, never schedules events, and is only ever
//! touched behind an `Option` that is `None` unless lineage tracing
//! was explicitly enabled, so a run with lineage on is bit-identical
//! to the same seed with lineage off.
//!
//! On top of the raw dump this module derives *explanations*:
//! per-span timelines with a terminal [`SpanOutcome`], per-stage
//! latency samples, a drop post-mortem attributing
//! every lost wire packet to the exact component and cause (each
//! cause reconciles 1:1 against an always-on simulator counter), and
//! a deterministic Chrome-trace-event JSON export loadable in
//! Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.

use crate::intern::{Interner, SymbolId};
use std::fmt::Write as _;

/// Default cap on recorded stage events; past it events are counted in
/// [`LineageRecorder::dropped`] instead of recorded. A full recorder
/// stages 64 MB (16-B records in fixed-size chunks); its frozen
/// [`EventLog`] holds about 32 MB (8-B rows, plus a 16-B spill row for
/// each event that does not pack).
pub const DEFAULT_EVENT_CAPACITY: usize = 4_000_000;

/// Low bits of a packed tag that hold the [`Stage`] code; the
/// component id sits above them.
const STAGE_BITS: u32 = 5;
const STAGE_MASK: u32 = (1 << STAGE_BITS) - 1;
/// Component ids must fit a tag's upper 27 bits.
const MAX_COMPONENTS: u32 = 1 << (32 - STAGE_BITS);
/// Codes 0..10 are the lifecycle stages; one more per drop cause.
const DROP_CODE_BASE: u32 = 10;
/// Stage code marking an 8-B row whose event sits in the spill table.
const SPILL_CODE: u32 = STAGE_MASK;
const _: () = assert!(DROP_CODE_BASE + (DropCause::ALL.len() as u32) <= SPILL_CODE);
/// Records per staging chunk: 2 Mi records, 32 MiB. A chunk this size
/// is at the largest threshold glibc's malloc ever serves from its
/// heap (32 MiB), so each chunk is its own mapping: pages not yet
/// written cost no RSS, and a freed chunk goes straight back to the OS
/// instead of leaving a hole that fragments the heap across runs.
const STAGE_CHUNK: usize = 1 << 21;
/// Spill-table entries reserved at a recorder's first spill: 128 Ki
/// entries, 2 MiB, of which only what is written costs RSS. Growing the
/// table by doubling instead churns the heap once per run and left the
/// lossy corpus' peak RSS higher than with no table at all.
const SPILL_CHUNK: usize = STAGE_CHUNK / 16;
/// A staged record's `span` when its span and time sit in the spill
/// table.
const SPILLED: u32 = u32::MAX;

/// What killed a wire packet. Every variant reconciles against exactly
/// one always-on simulator counter (see [`DropCause::counter`]), which
/// is how the drop post-mortem proves it accounted for 100% of losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// Link drop-tail queue was full.
    QueueFull,
    /// RED early drop on an (otherwise non-full) link queue.
    RedEarly,
    /// Link fault injector consumed the packet.
    Fault,
    /// TTL reached zero at a router.
    TtlExpired,
    /// No route to the destination (includes DF-refused fragmentation).
    NoRoute,
    /// Payload failed protocol decode at the destination.
    DecodeError,
    /// UDP datagram arrived for a port nobody listens on.
    UdpUnreachable,
    /// TCP segment arrived for a port nobody listens on.
    TcpUnreachable,
    /// Reassembly abandoned the datagram: timer expired with holes.
    ReasmTimeout,
    /// Fragment rejected as malformed by the reassembler.
    ReasmInvalid,
    /// Fragment carried only bytes that had already arrived.
    ReasmDuplicate,
}

impl DropCause {
    /// Every cause, in stable report order.
    pub const ALL: [DropCause; 11] = [
        DropCause::QueueFull,
        DropCause::RedEarly,
        DropCause::Fault,
        DropCause::TtlExpired,
        DropCause::NoRoute,
        DropCause::DecodeError,
        DropCause::UdpUnreachable,
        DropCause::TcpUnreachable,
        DropCause::ReasmTimeout,
        DropCause::ReasmInvalid,
        DropCause::ReasmDuplicate,
    ];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            DropCause::QueueFull => "queue_full",
            DropCause::RedEarly => "red_early",
            DropCause::Fault => "fault",
            DropCause::TtlExpired => "ttl_expired",
            DropCause::NoRoute => "no_route",
            DropCause::DecodeError => "decode_error",
            DropCause::UdpUnreachable => "udp_unreachable",
            DropCause::TcpUnreachable => "tcp_unreachable",
            DropCause::ReasmTimeout => "reassembly_timeout",
            DropCause::ReasmInvalid => "reassembly_invalid",
            DropCause::ReasmDuplicate => "reassembly_duplicate",
        }
    }

    /// The always-on metrics counter this cause must sum to.
    pub fn counter(self) -> &'static str {
        match self {
            DropCause::QueueFull => "link_dropped_queue_total",
            DropCause::RedEarly => "link_dropped_red_total",
            DropCause::Fault => "link_dropped_fault_total",
            DropCause::TtlExpired => "node_ttl_expired_total",
            DropCause::NoRoute => "node_no_route_total",
            DropCause::DecodeError => "node_decode_errors_total",
            DropCause::UdpUnreachable => "node_udp_unreachable_total",
            DropCause::TcpUnreachable => "node_tcp_unreachable_total",
            DropCause::ReasmTimeout => "reassembly_timed_out_total",
            DropCause::ReasmInvalid => "reassembly_invalid_total",
            DropCause::ReasmDuplicate => "reassembly_duplicates_total",
        }
    }

    /// Whether this cause dooms the whole datagram's span. Duplicate
    /// and invalid fragments waste a wire packet without preventing
    /// the datagram from completing.
    pub fn fatal(self) -> bool {
        !matches!(self, DropCause::ReasmInvalid | DropCause::ReasmDuplicate)
    }
}

/// A lifecycle stage transition. The meaning of an event's `aux` field
/// depends on the stage, as documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Span born: packet entered the IP layer at its origin node.
    /// `aux` = payload length in bytes.
    Sent,
    /// Datagram split for the path MTU. `aux` = fragment count.
    Fragmented,
    /// Offered to a link transmitter. `aux` = fragment offset (8-byte
    /// units), distinguishing the fragments of one span.
    LinkTx,
    /// Popped from the event queue (heap or wheel — identically) and
    /// arrived at a node. `aux` = fragment offset.
    Arrived,
    /// Seen by a capture tap. `aux` = fragment offset.
    Sniffed,
    /// Fragment accepted by the reassembler, datagram still has holes.
    /// `aux` = fragment offset.
    ReasmHeld,
    /// Datagram fully reassembled at the destination. `aux` = 0.
    Reassembled,
    /// Handed to an application (or consumed by the protocol layer,
    /// e.g. an echo responder). `aux` = destination port where known.
    Delivered,
    /// Media payload admitted to the client playback buffer.
    /// `aux` = media time in ms.
    Buffered,
    /// Playout clock passed the payload's deadline: counted as played.
    /// `aux` = media time in ms.
    Played,
    /// A wire packet of this span was killed. `aux` = fragment offset
    /// where known.
    Dropped(DropCause),
}

impl Stage {
    /// Stable lowercase label (drop causes share `"dropped"`; use
    /// [`DropCause::label`] for the detail).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Sent => "sent",
            Stage::Fragmented => "fragmented",
            Stage::LinkTx => "link_tx",
            Stage::Arrived => "arrived",
            Stage::Sniffed => "sniffed",
            Stage::ReasmHeld => "reasm_held",
            Stage::Reassembled => "reassembled",
            Stage::Delivered => "delivered",
            Stage::Buffered => "buffered",
            Stage::Played => "played",
            Stage::Dropped(_) => "dropped",
        }
    }

    /// Dense code below `2^STAGE_BITS`, as packed into a row's tag.
    fn code(self) -> u32 {
        match self {
            Stage::Sent => 0,
            Stage::Fragmented => 1,
            Stage::LinkTx => 2,
            Stage::Arrived => 3,
            Stage::Sniffed => 4,
            Stage::ReasmHeld => 5,
            Stage::Reassembled => 6,
            Stage::Delivered => 7,
            Stage::Buffered => 8,
            Stage::Played => 9,
            Stage::Dropped(cause) => DROP_CODE_BASE + cause as u32,
        }
    }

    /// Inverse of [`Stage::code`].
    fn from_code(code: u32) -> Option<Stage> {
        Some(match code {
            0 => Stage::Sent,
            1 => Stage::Fragmented,
            2 => Stage::LinkTx,
            3 => Stage::Arrived,
            4 => Stage::Sniffed,
            5 => Stage::ReasmHeld,
            6 => Stage::Reassembled,
            7 => Stage::Delivered,
            8 => Stage::Buffered,
            9 => Stage::Played,
            c => Stage::Dropped(*DropCause::ALL.get((c - DROP_CODE_BASE) as usize)?),
        })
    }
}

/// Application-layer context stamped on a span at packetisation time
/// by the media players.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketizeMeta {
    /// Player code — see `turb_media::player_code` (0 = unknown).
    pub player: u8,
    /// Media sequence number.
    pub sequence: u32,
    /// Media timestamp of the payload, milliseconds.
    pub media_time_ms: u32,
}

/// Where and when a span was born.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanOrigin {
    /// Sim time of birth, nanoseconds.
    pub time_ns: u64,
    /// Interned origin component (a node), against the run's shared
    /// [`Interner`].
    pub comp: SymbolId,
    /// Packetisation metadata, for media spans.
    pub meta: Option<PacketizeMeta>,
}

/// One stage transition of one span. Recorders stage events as 16-B
/// records and a [`LineageDump`] packs them into 8-B rows; both decode
/// back to this form on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageEvent {
    /// The span this event belongs to. In a [`LineagePart`] this is the
    /// domain-tagged id its recorder saw (see [`SPAN_DOMAIN_SHIFT`]);
    /// decoded from a dump it is the canonical index into the dump's
    /// origin table.
    pub span: u64,
    /// Sim time, nanoseconds.
    pub time_ns: u64,
    /// Interned component the transition happened at, against the
    /// run's shared [`Interner`].
    pub comp: SymbolId,
    /// The stage reached.
    pub stage: Stage,
    /// Stage-dependent detail — see [`Stage`].
    pub aux: u32,
}

/// Append-only span/event recorder. Span ids are indices into the
/// origin table, so same-seed runs allocate identical ids. Component
/// names live in the run's shared [`Interner`] — events carry
/// [`SymbolId`]s, so recording never allocates or scans a string
/// table; the dump snapshots the resolved names at
/// [`LineageRecorder::finish`] time.
#[derive(Debug)]
pub struct LineageRecorder {
    origins: Vec<SpanOrigin>,
    events: StagedEvents,
    capacity: usize,
    dropped: u64,
}

/// Bit position of the domain tag inside a span id. The low 48 bits
/// index the owning recorder's origin table.
pub const SPAN_DOMAIN_SHIFT: u32 = 48;
/// Mask selecting the local origin index of a span id.
pub const SPAN_LOCAL_MASK: u64 = (1 << SPAN_DOMAIN_SHIFT) - 1;

impl Default for LineageRecorder {
    fn default() -> Self {
        LineageRecorder::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl LineageRecorder {
    /// A recorder keeping at most `capacity` stage events.
    pub fn with_capacity(capacity: usize) -> LineageRecorder {
        LineageRecorder {
            origins: Vec::new(),
            events: StagedEvents::default(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// The configured event capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tag every span id this recorder allocates with `base` (see
    /// [`SPAN_DOMAIN_SHIFT`]). Must be called before any span is born.
    pub fn set_span_base(&mut self, base: u64) {
        debug_assert!(self.origins.is_empty(), "span base set after spans born");
        debug_assert_eq!(
            base & SPAN_LOCAL_MASK,
            0,
            "base must be above the local bits"
        );
        self.events.span_base = base;
    }

    /// Allocate a span born now at `comp`, recording its `Sent` event.
    /// `payload_len` lands in the Sent event's `aux`.
    pub fn begin_span(
        &mut self,
        time_ns: u64,
        comp: SymbolId,
        meta: Option<PacketizeMeta>,
        payload_len: u32,
    ) -> u64 {
        let span = self.events.span_base | self.origins.len() as u64;
        self.origins.push(SpanOrigin {
            time_ns,
            comp,
            meta,
        });
        self.record(span, time_ns, comp, Stage::Sent, payload_len);
        span
    }

    /// Record one stage transition (counted, not stored, past the
    /// capacity cap).
    pub fn record(&mut self, span: u64, time_ns: u64, comp: SymbolId, stage: Stage, aux: u32) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(
            &self.origins,
            span,
            WideRow::pack(time_ns, comp.0, stage, aux),
        );
    }

    /// Spans allocated so far.
    pub fn spans(&self) -> usize {
        self.origins.len()
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.len() == 0 && self.origins.is_empty()
    }

    /// Events discarded past the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Freeze into one domain's part, snapshotting the shared symbol
    /// table so the part stays self-contained. Pass every domain's part
    /// to [`LineageDump::merge_domains`] for the analysable dump.
    pub fn finish(self, interner: &Interner) -> LineagePart {
        LineagePart {
            origins: self.origins,
            events: self.events,
            components: interner.snapshot(),
            dropped: self.dropped,
        }
    }
}

/// One recorder's frozen output: the spans it allocated and the events
/// it saw, in recording order. A packet that crossed domains has some
/// of its events in another domain's part.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LineagePart {
    /// Spans this recorder allocated; the local span id is the index.
    pub origins: Vec<SpanOrigin>,
    /// Every stage transition this recorder saw, in recording order.
    events: StagedEvents,
    /// Component names in [`SymbolId`] order — a snapshot of the
    /// recorder's interner.
    pub components: Vec<String>,
    /// Events discarded past the recorder capacity.
    pub dropped: u64,
}

impl LineagePart {
    /// The events in recording order, decoded, under domain-tagged span
    /// ids.
    pub fn events(&self) -> impl Iterator<Item = LineageEvent> + '_ {
        self.events.iter(&self.origins)
    }
}

/// A recorder's events in recording order, staged as 16-B records in
/// fixed-size chunks: growing never copies what is already staged, and
/// [`LineageDump::merge_domains`] frees each chunk as soon as its
/// events are laid out.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct StagedEvents {
    chunks: Vec<Vec<Staged>>,
    /// Span and time of each event whose span was born in another
    /// domain, or whose time is not within `u32` ns after its birth.
    spill: Vec<StagedSpill>,
    len: usize,
    /// OR-ed into every span id the recorder allocates. Zero for a
    /// sequential run; a sharded run gives domain `d` the base
    /// `d << SPAN_DOMAIN_SHIFT` so span ids allocated concurrently by
    /// different domains never collide and
    /// [`LineageDump::merge_domains`] can decode which per-domain
    /// origin table an id indexes.
    span_base: u64,
}

/// One staged event. A span this recorder allocated is its index in the
/// origin table and the time is counted from the span's birth — the
/// offset an [`EventLog`] row keeps as is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Staged {
    /// Local index of the span, or [`SPILLED`].
    span: u32,
    /// Nanoseconds after the span's birth; for a spilled event, its
    /// index in the spill table.
    offset: u32,
    /// `comp << STAGE_BITS | stage code`, in the recording part's
    /// symbol table.
    tag: u32,
    aux: u32,
}

/// The span and time of a spilled staged event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StagedSpill {
    /// Domain-tagged span id.
    span: u64,
    time_ns: u64,
}

impl StagedEvents {
    /// Stage `ev` of `span`, `origins` being the recorder's origin
    /// table.
    fn push(&mut self, origins: &[SpanOrigin], span: u64, ev: WideRow) {
        // A span of this domain has only its local bits left.
        let local = span ^ self.span_base;
        let offset = (local < u64::from(SPILLED))
            .then(|| origins.get(local as usize))
            .flatten()
            .and_then(|origin| u32::try_from(ev.time_ns.checked_sub(origin.time_ns)?).ok());
        let (span, offset) = match offset {
            Some(offset) => (local as u32, offset),
            None => {
                if self.spill.capacity() == 0 {
                    self.spill.reserve_exact(SPILL_CHUNK);
                }
                self.spill.push(StagedSpill {
                    span,
                    time_ns: ev.time_ns,
                });
                let index = u32::try_from(self.spill.len() - 1).expect("spill index fits u32");
                (SPILLED, index)
            }
        };
        let staged = Staged {
            span,
            offset,
            tag: ev.tag,
            aux: ev.aux,
        };
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < STAGE_CHUNK => chunk.push(staged),
            _ => {
                let mut chunk = Vec::with_capacity(STAGE_CHUNK);
                chunk.push(staged);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    /// Events staged.
    fn len(&self) -> usize {
        self.len
    }

    /// The domain-tagged span and the time of `ev`.
    fn span_and_time(&self, origins: &[SpanOrigin], ev: Staged) -> (u64, u64) {
        if ev.span == SPILLED {
            let far = self.spill[ev.offset as usize];
            (far.span, far.time_ns)
        } else {
            let born = origins[ev.span as usize].time_ns;
            (
                self.span_base | u64::from(ev.span),
                born + u64::from(ev.offset),
            )
        }
    }

    /// The events in recording order, decoded.
    fn iter<'a>(&'a self, origins: &'a [SpanOrigin]) -> impl Iterator<Item = LineageEvent> + 'a {
        self.chunks.iter().flatten().map(move |&ev| {
            let (span, time_ns) = self.span_and_time(origins, ev);
            WideRow {
                time_ns,
                tag: ev.tag,
                aux: ev.aux,
            }
            .decode(span)
        })
    }
}

/// The frozen output of a traced run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LineageDump {
    /// Per-span origin records; the span id is the index.
    pub origins: Vec<SpanOrigin>,
    /// Every stage transition, span-major: span 0's events, then span
    /// 1's, each span's in sim-time order (ties in part order, then
    /// recording order).
    pub events: EventLog,
    /// Component names in [`SymbolId`] order — a snapshot of the
    /// run's shared interner.
    pub components: Vec<String>,
    /// Events discarded past the recorder capacity.
    pub dropped: u64,
}

/// An event with its full time: an [`EventLog`] spill row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WideRow {
    time_ns: u64,
    /// `comp << STAGE_BITS | stage code`.
    tag: u32,
    aux: u32,
}

impl WideRow {
    /// Panics when `comp` does not fit the tag.
    fn pack(time_ns: u64, comp: u32, stage: Stage, aux: u32) -> WideRow {
        assert!(
            comp < MAX_COMPONENTS,
            "lineage component id {comp} does not fit the packed event tag (limit {MAX_COMPONENTS})"
        );
        WideRow {
            time_ns,
            tag: comp << STAGE_BITS | stage.code(),
            aux,
        }
    }

    fn comp(self) -> u32 {
        self.tag >> STAGE_BITS
    }

    fn decode(self, span: u64) -> LineageEvent {
        LineageEvent {
            span,
            time_ns: self.time_ns,
            comp: SymbolId(self.comp()),
            stage: decode_stage(self.tag & STAGE_MASK),
            aux: self.aux,
        }
    }
}

fn decode_stage(code: u32) -> Stage {
    Stage::from_code(code).expect("rows hold only packed stage codes")
}

/// One 8-B event of an [`EventLog`]. The span is the row's position in
/// the log, so it is not stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Row {
    /// Nanoseconds after the span's birth; for a spilled row, the index
    /// of its event in the spill table.
    offset: u32,
    /// `aux << (STAGE_BITS + comp_bits) | comp << STAGE_BITS | stage
    /// code`, or [`SPILL_CODE`] alone for a spilled row.
    packed: u32,
}

impl Row {
    /// The event's time, for a row of a span born at `base`.
    fn time_ns(self, base: u64, spill: &[WideRow]) -> u64 {
        if self.packed & STAGE_MASK == SPILL_CODE {
            spill[self.offset as usize].time_ns
        } else {
            base + u64::from(self.offset)
        }
    }
}

/// The widths of a packed row's fields, fixed per log by its component
/// count: the component field is as narrow as the ids allow and `aux`
/// gets the rest.
#[derive(Debug, Clone, Copy, Default)]
struct Layout {
    comp_bits: u32,
}

impl Layout {
    /// Panics when `components` ids do not fit a tag.
    fn for_components(components: usize) -> Layout {
        assert!(
            components <= MAX_COMPONENTS as usize,
            "{components} lineage components do not fit the packed event tag (limit {MAX_COMPONENTS})"
        );
        Layout {
            comp_bits: usize::BITS - components.saturating_sub(1).leading_zeros(),
        }
    }

    fn aux_shift(self) -> u32 {
        STAGE_BITS + self.comp_bits
    }

    /// `ev` as an 8-B row of a span born at `base`, or `None` when its
    /// time is not within `u32` ns after birth or its aux is too wide.
    fn pack(self, ev: WideRow, base: u64) -> Option<Row> {
        let offset = u32::try_from(ev.time_ns.checked_sub(base)?).ok()?;
        self.pack_offset(offset, ev.tag, ev.aux)
    }

    /// The row of an event `offset` ns after its span's birth, or
    /// `None` when `aux` is too wide.
    fn pack_offset(self, offset: u32, tag: u32, aux: u32) -> Option<Row> {
        let packed = u64::from(aux) << self.aux_shift() | u64::from(tag);
        Some(Row {
            offset,
            packed: u32::try_from(packed).ok()?,
        })
    }

    /// The event `row` holds, as span `span` born at `base`.
    fn decode(self, row: Row, span: u64, base: u64, spill: &[WideRow]) -> LineageEvent {
        let code = row.packed & STAGE_MASK;
        if code == SPILL_CODE {
            return spill[row.offset as usize].decode(span);
        }
        let comp_mask = (1u64 << self.comp_bits) - 1;
        LineageEvent {
            span,
            time_ns: base + u64::from(row.offset),
            comp: SymbolId((u64::from(row.packed >> STAGE_BITS) & comp_mask) as u32),
            stage: decode_stage(code),
            aux: (u64::from(row.packed) >> self.aux_shift()) as u32,
        }
    }
}

/// A dump's events, span-major: each span's events sit together, in
/// time order, as 8-B rows timed from the span's birth. Events that do
/// not pack sit whole in a spill table their row points into.
/// Iterating yields decoded [`LineageEvent`]s, span by span.
#[derive(Debug, Clone)]
pub struct EventLog {
    /// Span `s` owns `rows[starts[s]..starts[s + 1]]`: one entry per
    /// span, plus one.
    starts: Vec<u32>,
    /// Span `s`'s birth time; its rows' offsets count from here.
    bases: Vec<u64>,
    rows: Vec<Row>,
    /// Events more than `u32::MAX` ns after (or before) their span's
    /// birth, or with an aux too wide for the layout.
    spill: Vec<WideRow>,
    layout: Layout,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog {
            starts: vec![0],
            bases: Vec::new(),
            rows: Vec::new(),
            spill: Vec::new(),
            layout: Layout::default(),
        }
    }
}

/// Two logs are equal when they hold the same events in the same
/// spans, however they packed them.
impl PartialEq for EventLog {
    fn eq(&self, other: &EventLog) -> bool {
        self.starts == other.starts && self.iter().eq(other.iter())
    }
}

impl Eq for EventLog {}

impl EventLog {
    /// Lay the parts' events out span-major. `bases` holds each span's
    /// birth time, `components` the size of the canonical symbol table,
    /// and `parts` pairs each part's events with its component remap;
    /// `span_maps[d][i]` is the index below `bases.len()` of domain
    /// `d`'s local span `i`. A counting sort by span keeps each span's
    /// events in part order, then recording order; a stable sort by
    /// time runs only on the spans whose events are out of order. That
    /// is the order a global stable sort by `(time, span)` gives each
    /// span. A staged event of a span its own domain allocated already
    /// holds the row's offset. Each staging chunk is freed once its
    /// events are packed.
    ///
    /// Panics on an event whose span or component is unknown.
    fn build(
        bases: Vec<u64>,
        components: usize,
        parts: Vec<(StagedEvents, Vec<u32>)>,
        span_maps: &[Vec<usize>],
    ) -> EventLog {
        let spans = bases.len();
        let span_of = |span: u64| {
            span_maps
                .get((span >> SPAN_DOMAIN_SHIFT) as usize)
                .and_then(|map| map.get((span & SPAN_LOCAL_MASK) as usize))
                .copied()
                .unwrap_or_else(|| {
                    panic!("lineage event references span {span:#x}, outside the origin table")
                })
        };
        // The canonical span of each staged event of `events`.
        let canonical = |events: &StagedEvents, ev: &Staged| {
            if ev.span == SPILLED {
                span_of(events.spill[ev.offset as usize].span)
            } else {
                span_of(events.span_base | u64::from(ev.span))
            }
        };
        let total: usize = parts.iter().map(|(events, _)| events.len()).sum();
        assert!(
            total <= u32::MAX as usize,
            "{total} lineage events overflow the log's u32 offsets"
        );
        let mut starts = vec![0u32; spans + 1];
        for (events, _) in &parts {
            for ev in events.chunks.iter().flatten() {
                starts[canonical(events, ev) + 1] += 1;
            }
        }
        for s in 0..spans {
            starts[s + 1] += starts[s];
        }
        let layout = Layout::for_components(components);
        let mut cursor = starts[..spans].to_vec();
        let mut rows = vec![Row::default(); total];
        let mut spill = Vec::new();
        for (mut events, comp_map) in parts {
            for chunk in std::mem::take(&mut events.chunks) {
                for ev in chunk {
                    let comp = *comp_map.get((ev.tag >> STAGE_BITS) as usize).unwrap_or_else(|| {
                        panic!(
                            "lineage event references component {}, outside its part's symbol table",
                            ev.tag >> STAGE_BITS
                        )
                    });
                    let span = canonical(&events, &ev);
                    let tag = comp << STAGE_BITS | ev.tag & STAGE_MASK;
                    let time_ns = || match ev.span {
                        SPILLED => events.spill[ev.offset as usize].time_ns,
                        _ => bases[span] + u64::from(ev.offset),
                    };
                    // A local event's staged offset is already its
                    // row's; only a spilled one is timed from the birth.
                    let row = match ev.span {
                        SPILLED => layout.pack(
                            WideRow {
                                time_ns: time_ns(),
                                tag,
                                aux: ev.aux,
                            },
                            bases[span],
                        ),
                        _ => layout.pack_offset(ev.offset, tag, ev.aux),
                    };
                    let row = row.unwrap_or_else(|| {
                        spill.push(WideRow {
                            time_ns: time_ns(),
                            tag,
                            aux: ev.aux,
                        });
                        Row {
                            offset: (spill.len() - 1) as u32,
                            packed: SPILL_CODE,
                        }
                    });
                    rows[cursor[span] as usize] = row;
                    cursor[span] += 1;
                }
            }
        }
        for s in 0..spans {
            let span = &mut rows[starts[s] as usize..starts[s + 1] as usize];
            let time = |r: &Row| r.time_ns(bases[s], &spill);
            if !span.is_sorted_by_key(time) {
                span.sort_by_key(time);
            }
        }
        EventLog {
            starts,
            bases,
            rows,
            spill,
            layout,
        }
    }

    /// Events held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no event is held.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Spans the log is laid out over (the dump's origin count).
    pub fn spans(&self) -> usize {
        self.starts.len() - 1
    }

    /// One span's events, in time order. Panics past [`EventLog::spans`].
    pub fn span(&self, span: usize) -> SpanEvents<'_> {
        SpanEvents {
            log: self,
            span: span as u64,
            rows: &self.rows[self.starts[span] as usize..self.starts[span + 1] as usize],
        }
    }

    /// Every event, span by span.
    pub fn iter(&self) -> Events<'_> {
        Events {
            log: self,
            span: 0,
            next: 0,
        }
    }

    fn decode(&self, row: Row, span: usize) -> LineageEvent {
        self.layout
            .decode(row, span as u64, self.bases[span], &self.spill)
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = LineageEvent;
    type IntoIter = Events<'a>;

    fn into_iter(self) -> Events<'a> {
        self.iter()
    }
}

/// Iterator over a whole [`EventLog`], span by span.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    log: &'a EventLog,
    /// The span owning row `next`.
    span: usize,
    next: usize,
}

impl Iterator for Events<'_> {
    type Item = LineageEvent;

    fn next(&mut self) -> Option<LineageEvent> {
        let row = *self.log.rows.get(self.next)?;
        while self.log.starts[self.span + 1] as usize <= self.next {
            self.span += 1;
        }
        self.next += 1;
        Some(self.log.decode(row, self.span))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.log.rows.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Events<'_> {}

/// One span's events in an [`EventLog`], in time order.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvents<'a> {
    log: &'a EventLog,
    span: u64,
    rows: &'a [Row],
}

impl<'a> SpanEvents<'a> {
    /// Events of this span.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the span has no events (its `Sent` was evicted).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th event.
    pub fn get(&self, i: usize) -> Option<LineageEvent> {
        let row = *self.rows.get(i)?;
        Some(self.log.decode(row, self.span as usize))
    }

    /// The first event.
    pub fn first(&self) -> Option<LineageEvent> {
        self.get(0)
    }

    /// The events, decoded.
    pub fn iter(&self) -> SpanIter<'a> {
        SpanIter {
            log: self.log,
            span: self.span as usize,
            rows: self.rows.iter(),
        }
    }
}

impl<'a> IntoIterator for &SpanEvents<'a> {
    type Item = LineageEvent;
    type IntoIter = SpanIter<'a>;

    fn into_iter(self) -> SpanIter<'a> {
        self.iter()
    }
}

/// Iterator over one span's decoded events.
#[derive(Debug, Clone)]
pub struct SpanIter<'a> {
    log: &'a EventLog,
    span: usize,
    rows: std::slice::Iter<'a, Row>,
}

impl Iterator for SpanIter<'_> {
    type Item = LineageEvent;

    fn next(&mut self) -> Option<LineageEvent> {
        self.rows.next().map(|r| self.log.decode(*r, self.span))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for SpanIter<'_> {}

/// How a span's life ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Media payload reached the playout clock.
    Played,
    /// Delivered to its destination (non-media traffic, or media that
    /// arrived but whose playout never came due inside the run).
    Completed,
    /// Killed by the recorded cause (the first fatal drop).
    Dropped(DropCause),
    /// Still in flight when the run ended.
    Truncated,
}

impl SpanOutcome {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Played => "played",
            SpanOutcome::Completed => "completed",
            SpanOutcome::Dropped(_) => "dropped",
            SpanOutcome::Truncated => "truncated",
        }
    }
}

/// One span's reconstructed life: its events in time order plus the
/// derived terminal outcome. Borrows the dump's rows.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimeline<'a> {
    /// The span id.
    pub span: u64,
    /// This span's events, in sim-time order.
    pub events: SpanEvents<'a>,
    /// Terminal classification.
    pub outcome: SpanOutcome,
}

impl SpanTimeline<'_> {
    /// Time of the first event matching `pred`, if any.
    pub fn first_time(&self, pred: impl Fn(Stage) -> bool) -> Option<u64> {
        self.events
            .iter()
            .find(|e| pred(e.stage))
            .map(|e| e.time_ns)
    }

    /// Hops taken: the number of link arrivals recorded.
    pub fn hops(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.stage == Stage::Arrived)
            .count()
    }
}

fn classify(events: &SpanEvents<'_>) -> SpanOutcome {
    let mut first_fatal = None;
    for ev in events {
        match ev.stage {
            Stage::Played => return SpanOutcome::Played,
            Stage::Dropped(cause) if cause.fatal() && first_fatal.is_none() => {
                first_fatal = Some(cause);
            }
            _ => {}
        }
    }
    if events.iter().any(|e| e.stage == Stage::Delivered) {
        return SpanOutcome::Completed;
    }
    match first_fatal {
        Some(cause) => SpanOutcome::Dropped(cause),
        None => SpanOutcome::Truncated,
    }
}

impl LineageDump {
    /// Component name for an interned id.
    pub fn component(&self, id: SymbolId) -> &str {
        self.components
            .get(id.index())
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Fold per-domain parts into one canonical dump.
    ///
    /// `parts[d]` must come from the recorder whose span base was
    /// `d << SPAN_DOMAIN_SHIFT` (a sequential run is the single part
    /// `d = 0`). Component tables are unioned by name and re-sorted;
    /// origins are renumbered in `(birth time, component name)` order
    /// (ties keep each component's own birth order — a component's
    /// spans are all born in one domain, so this is well defined);
    /// events are remapped onto the new span and component ids and
    /// laid out span-major, each span's in time order with ties in
    /// part order, then recording order (see [`EventLog`]). The result
    /// is a pure function of the simulated behaviour, independent of
    /// how the topology was partitioned — which is exactly what lets a
    /// sharded run's dump compare byte-identical against a sequential
    /// run's.
    ///
    /// Panics on an event whose span is outside every origin table.
    pub fn merge_domains(parts: Vec<LineagePart>) -> LineageDump {
        // Union the component names, sorted.
        let mut components: Vec<String> = parts
            .iter()
            .flat_map(|p| p.components.iter().cloned())
            .collect();
        components.sort();
        components.dedup();
        let comp_maps: Vec<Vec<u32>> = parts
            .iter()
            .map(|p| {
                p.components
                    .iter()
                    .map(|c| {
                        components
                            .binary_search(c)
                            .expect("component in sorted union") as u32
                    })
                    .collect()
            })
            .collect();

        // Renumber origins canonically. Comparing remapped component
        // ids is comparing names, because `components` is sorted.
        let mut order: Vec<(u64, u32, usize, usize)> = Vec::new();
        for (part, p) in parts.iter().enumerate() {
            for (local, origin) in p.origins.iter().enumerate() {
                order.push((
                    origin.time_ns,
                    comp_maps[part][origin.comp.index()],
                    part,
                    local,
                ));
            }
        }
        order.sort_by_key(|&(t, c, part, _)| (t, c, part));
        let mut span_maps: Vec<Vec<usize>> =
            parts.iter().map(|p| vec![0; p.origins.len()]).collect();
        let mut origins = Vec::with_capacity(order.len());
        for (new_id, &(_, new_comp, part, local)) in order.iter().enumerate() {
            span_maps[part][local] = new_id;
            let mut origin = parts[part].origins[local];
            origin.comp = SymbolId(new_comp);
            origins.push(origin);
        }

        // Lay the events out under the new ids. A packet that crossed
        // domains has its later stages recorded by a *different*
        // recorder than the one that allocated its span, so the origin
        // part is decoded from the span id, while the component id is
        // resolved against the recording part's own symbol table.
        let dropped = parts.iter().map(|p| p.dropped).sum();
        let events = EventLog::build(
            origins.iter().map(|o| o.time_ns).collect(),
            components.len(),
            parts.into_iter().map(|p| p.events).zip(comp_maps).collect(),
            &span_maps,
        );

        LineageDump {
            origins,
            events,
            components,
            dropped,
        }
    }

    /// Bytes the dump holds for its events and spans: the event log
    /// (rows, spill rows, per-span offsets and bases) plus the origin
    /// table. Component names are not counted.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let log = &self.events;
        (log.rows.capacity() * size_of::<Row>()
            + log.spill.capacity() * size_of::<WideRow>()
            + log.starts.capacity() * size_of::<u32>()
            + log.bases.capacity() * size_of::<u64>()
            + self.origins.capacity() * size_of::<SpanOrigin>()) as u64
    }

    /// One span's timeline. Panics past the origin table.
    pub fn timeline(&self, span: usize) -> SpanTimeline<'_> {
        let events = self.events.span(span);
        SpanTimeline {
            span: span as u64,
            events,
            outcome: classify(&events),
        }
    }

    /// Every span's timeline, in span-id order.
    pub fn reconstruct(&self) -> impl ExactSizeIterator<Item = SpanTimeline<'_>> + '_ {
        (0..self.events.spans()).map(|span| self.timeline(span))
    }

    /// Check the lifecycle invariants the `turb-check` property relies
    /// on: the event log covers exactly the origin table, every event
    /// and origin references a real component, per-span event times
    /// are monotone (and never precede the span's birth), playout
    /// follows buffering, and each span classifies into exactly one
    /// terminal outcome.
    pub fn validate(&self) -> Result<(), String> {
        if self.events.spans() != self.origins.len() {
            return Err(format!(
                "event log covers {} spans but the origin table holds {}",
                self.events.spans(),
                self.origins.len()
            ));
        }
        for ev in &self.events {
            if ev.comp.index() >= self.components.len() {
                return Err(format!("event references unknown component {}", ev.comp.0));
            }
        }
        for origin in &self.origins {
            if origin.comp.index() >= self.components.len() {
                return Err(format!(
                    "origin references unknown component {}",
                    origin.comp.0
                ));
            }
        }
        for tl in self.reconstruct() {
            let origin = &self.origins[tl.span as usize];
            let mut prev = origin.time_ns;
            let mut buffered = 0u64;
            let mut played = 0u64;
            for ev in &tl.events {
                if ev.time_ns < prev {
                    return Err(format!(
                        "span {} time went backwards at {:?}: {} < {}",
                        tl.span, ev.stage, ev.time_ns, prev
                    ));
                }
                prev = ev.time_ns;
                match ev.stage {
                    Stage::Buffered => buffered += 1,
                    Stage::Played => played += 1,
                    _ => {}
                }
            }
            if buffered > 1 || played > 1 {
                return Err(format!(
                    "span {} buffered {buffered}x / played {played}x (at most once each)",
                    tl.span
                ));
            }
            if played > buffered {
                return Err(format!("span {} played without buffering", tl.span));
            }
            match (tl.events.first().map(|e| e.stage), tl.outcome) {
                (Some(Stage::Sent), _) => {}
                (first, _) => {
                    return Err(format!(
                        "span {} does not begin with Sent (first: {first:?})",
                        tl.span
                    ));
                }
            }
        }
        Ok(())
    }

    /// Count spans per terminal outcome:
    /// `(played, completed, dropped, truncated)`.
    pub fn outcome_counts(&self) -> (u64, u64, u64, u64) {
        let (mut p, mut c, mut d, mut t) = (0, 0, 0, 0);
        for tl in self.reconstruct() {
            match tl.outcome {
                SpanOutcome::Played => p += 1,
                SpanOutcome::Completed => c += 1,
                SpanOutcome::Dropped(_) => d += 1,
                SpanOutcome::Truncated => t += 1,
            }
        }
        (p, c, d, t)
    }
}

/// Raw latency samples per derived stage metric, nanoseconds, in
/// deterministic (span, event) order — ready for CDF rendering.
#[derive(Debug, Clone, Default)]
pub struct StageSamples {
    /// Link transmit offer → arrival, one sample per hop per fragment.
    pub hop_ns: Vec<f64>,
    /// Datagram fragmentation → successful reassembly.
    pub reasm_ns: Vec<f64>,
    /// Playback buffer admission → playout deadline.
    pub residency_ns: Vec<f64>,
    /// Span birth → buffer admission (media) or delivery (other).
    pub e2e_ns: Vec<f64>,
}

/// Extract per-stage latency samples from a dump. Hops are paired
/// FIFO per (span, fragment offset), so interleaved fragments of one
/// datagram measure their own link traversals.
pub fn stage_samples(dump: &LineageDump) -> StageSamples {
    let mut samples = StageSamples::default();
    for tl in dump.reconstruct() {
        // (offset, pending link_tx times) — a handful per span.
        let mut pending: Vec<(u32, Vec<u64>)> = Vec::new();
        let mut fragged: Option<u64> = None;
        let mut buffered: Option<u64> = None;
        for ev in &tl.events {
            match ev.stage {
                Stage::LinkTx => match pending.iter_mut().find(|(off, _)| *off == ev.aux) {
                    Some((_, q)) => q.push(ev.time_ns),
                    None => pending.push((ev.aux, vec![ev.time_ns])),
                },
                Stage::Arrived => {
                    if let Some((_, q)) = pending.iter_mut().find(|(off, _)| *off == ev.aux) {
                        if !q.is_empty() {
                            samples.hop_ns.push((ev.time_ns - q.remove(0)) as f64);
                        }
                    }
                }
                Stage::Fragmented => {
                    fragged.get_or_insert(ev.time_ns);
                }
                Stage::Reassembled => {
                    if let Some(t0) = fragged {
                        samples.reasm_ns.push((ev.time_ns - t0) as f64);
                    }
                }
                Stage::Buffered => {
                    buffered.get_or_insert(ev.time_ns);
                }
                Stage::Played => {
                    if let Some(t0) = buffered {
                        samples.residency_ns.push((ev.time_ns - t0) as f64);
                    }
                }
                _ => {}
            }
        }
        let born = dump
            .origins
            .get(tl.span as usize)
            .map(|o| o.time_ns)
            .unwrap_or(0);
        let end = buffered.or_else(|| tl.first_time(|s| s == Stage::Delivered));
        if let Some(end) = end {
            samples.e2e_ns.push((end - born) as f64);
        }
    }
    samples
}

/// The drop post-mortem: every `Dropped` event attributed to its
/// cause and component.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostMortem {
    /// `(cause, component id, count)`, sorted by cause order then
    /// component id.
    pub entries: Vec<(DropCause, SymbolId, u64)>,
}

impl PostMortem {
    /// Total dropped wire packets across all causes.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, _, n)| n).sum()
    }

    /// Total for one cause across components.
    pub fn cause_total(&self, cause: DropCause) -> u64 {
        self.entries
            .iter()
            .filter(|(c, _, _)| *c == cause)
            .map(|(_, _, n)| n)
            .sum()
    }

    /// Fold another post-mortem into this one (corpus aggregation by
    /// cause; component attribution is per-run, so components fold by
    /// id only when the topologies agree — the corpus topology does).
    pub fn absorb(&mut self, other: &PostMortem) {
        for (cause, comp, n) in &other.entries {
            match self
                .entries
                .iter_mut()
                .find(|(c, k, _)| c == cause && k == comp)
            {
                Some((_, _, total)) => *total += n,
                None => self.entries.push((*cause, *comp, *n)),
            }
        }
        self.entries.sort_by_key(|(c, k, _)| (*c, *k));
    }
}

/// Attribute every `Dropped` event in the dump.
pub fn post_mortem(dump: &LineageDump) -> PostMortem {
    let mut entries: Vec<(DropCause, SymbolId, u64)> = Vec::new();
    for ev in &dump.events {
        if let Stage::Dropped(cause) = ev.stage {
            match entries
                .iter_mut()
                .find(|(c, comp, _)| *c == cause && *comp == ev.comp)
            {
                Some((_, _, n)) => *n += 1,
                None => entries.push((cause, ev.comp, 1)),
            }
        }
    }
    entries.sort_by_key(|(c, k, _)| (*c, *k));
    PostMortem { entries }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds rendered as microseconds with fixed three decimals —
/// pure integer arithmetic, so output is deterministic.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Export the dump in Chrome trace-event JSON ("X" complete events
/// per stage segment on one track per span, instants for terminal
/// events), loadable in Perfetto. Output ordering is a pure function
/// of the dump, so same-seed runs export byte-identical traces.
pub fn to_chrome_trace(dump: &LineageDump) -> String {
    let mut out = String::with_capacity(dump.events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"turbulence packet lineage\"}}",
    );
    for tl in dump.reconstruct() {
        let meta = dump
            .origins
            .get(tl.span as usize)
            .and_then(|o| o.meta)
            .map(|m| {
                format!(
                    ",\"player\":{},\"seq\":{},\"media_ms\":{}",
                    m.player, m.sequence, m.media_time_ms
                )
            })
            .unwrap_or_default();
        for (i, ev) in tl.events.iter().enumerate() {
            let comp = json_escape(dump.component(ev.comp));
            let args = format!(
                "{{\"comp\":\"{}\",\"aux\":{}{}}}",
                comp,
                ev.aux,
                if i == 0 { meta.as_str() } else { "" }
            );
            let name = match ev.stage {
                Stage::Dropped(cause) => format!("dropped:{}", cause.label()),
                stage => stage.label().to_string(),
            };
            match tl.events.get(i + 1) {
                Some(next) => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"{}\",\"args\":{}}}",
                        tl.span + 1,
                        ts_us(ev.time_ns),
                        ts_us(next.time_ns - ev.time_ns),
                        name,
                        tl.outcome.label(),
                        args,
                    );
                }
                None => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\"cat\":\"{}\",\"args\":{}}}",
                        tl.span + 1,
                        ts_us(ev.time_ns),
                        name,
                        tl.outcome.label(),
                        args,
                    );
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn media_meta(seq: u32) -> PacketizeMeta {
        PacketizeMeta {
            player: 1,
            sequence: seq,
            media_time_ms: seq * 100,
        }
    }

    /// One recorder's dump, as a sequential run takes it.
    fn freeze(rec: LineageRecorder, interner: &Interner) -> LineageDump {
        LineageDump::merge_domains(vec![rec.finish(interner)])
    }

    /// A dump's events back as a single part (domain 0).
    fn part_of(dump: &LineageDump) -> LineagePart {
        staged_part(
            dump.origins.clone(),
            dump.events.iter(),
            dump.components.clone(),
            dump.dropped,
        )
    }

    /// A domain-0 part holding `events`, staged as a recorder would.
    fn staged_part(
        origins: Vec<SpanOrigin>,
        events: impl IntoIterator<Item = LineageEvent>,
        components: Vec<String>,
        dropped: u64,
    ) -> LineagePart {
        let mut staged = StagedEvents::default();
        for ev in events {
            let wide = WideRow::pack(ev.time_ns, ev.comp.0, ev.stage, ev.aux);
            staged.push(&origins, ev.span, wide);
        }
        LineagePart {
            origins,
            events: staged,
            components,
            dropped,
        }
    }

    /// One played media span, one span dropped in a queue, one span
    /// truncated mid-flight.
    fn sample_dump() -> LineageDump {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::default();
        let node = interner.intern("node:server");
        let link = interner.intern("link:0");
        let client = interner.intern("node:client");

        let played = rec.begin_span(1_000, node, Some(media_meta(0)), 1400);
        rec.record(played, 1_000, link, Stage::LinkTx, 0);
        rec.record(played, 2_500, client, Stage::Arrived, 0);
        rec.record(played, 2_500, client, Stage::Sniffed, 0);
        rec.record(played, 2_500, client, Stage::Delivered, 7000);
        rec.record(played, 2_500, client, Stage::Buffered, 0);
        rec.record(played, 9_000, client, Stage::Played, 0);

        let dropped = rec.begin_span(2_000, node, Some(media_meta(1)), 1400);
        rec.record(dropped, 2_000, link, Stage::LinkTx, 0);
        rec.record(
            dropped,
            2_000,
            link,
            Stage::Dropped(DropCause::QueueFull),
            0,
        );

        let truncated = rec.begin_span(3_000, node, None, 64);
        rec.record(truncated, 3_000, link, Stage::LinkTx, 0);
        freeze(rec, &interner)
    }

    #[test]
    fn reconstruction_classifies_outcomes() {
        let dump = sample_dump();
        let timelines: Vec<_> = dump.reconstruct().collect();
        assert_eq!(timelines.len(), 3);
        assert_eq!(timelines[0].outcome, SpanOutcome::Played);
        assert_eq!(
            timelines[1].outcome,
            SpanOutcome::Dropped(DropCause::QueueFull)
        );
        assert_eq!(timelines[2].outcome, SpanOutcome::Truncated);
        assert_eq!(timelines[0].hops(), 1);
        assert_eq!(dump.outcome_counts(), (1, 0, 1, 1));
        dump.validate().expect("sample dump is well-formed");
    }

    #[test]
    fn delivery_without_playout_is_completed() {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::default();
        let node = interner.intern("node:a");
        let span = rec.begin_span(0, node, None, 8);
        rec.record(span, 10, node, Stage::Delivered, 554);
        let dump = freeze(rec, &interner);
        assert_eq!(dump.timeline(0).outcome, SpanOutcome::Completed);
    }

    #[test]
    fn non_fatal_drops_do_not_doom_a_span() {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::default();
        let node = interner.intern("node:a");
        let span = rec.begin_span(0, node, None, 8);
        rec.record(span, 5, node, Stage::Dropped(DropCause::ReasmDuplicate), 0);
        rec.record(span, 9, node, Stage::Delivered, 7000);
        let dump = freeze(rec, &interner);
        assert_eq!(dump.timeline(0).outcome, SpanOutcome::Completed);
        // The duplicate still shows up in the post-mortem.
        assert_eq!(post_mortem(&dump).cause_total(DropCause::ReasmDuplicate), 1);
    }

    #[test]
    fn validate_catches_time_regression() {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::default();
        let node = interner.intern("node:a");
        let span = rec.begin_span(100, node, None, 8);
        rec.record(span, 50, node, Stage::Delivered, 0);
        assert!(freeze(rec, &interner).validate().is_err());
    }

    #[test]
    fn validate_requires_sent_first() {
        let dump = LineageDump::merge_domains(vec![staged_part(
            vec![SpanOrigin {
                time_ns: 0,
                comp: SymbolId(0),
                meta: None,
            }],
            [LineageEvent {
                span: 0,
                time_ns: 1,
                comp: SymbolId(0),
                stage: Stage::Delivered,
                aux: 0,
            }],
            vec!["node:a".to_string()],
            0,
        )]);
        assert!(dump.validate().unwrap_err().contains("Sent"));
    }

    #[test]
    fn capacity_counts_overflow_instead_of_recording() {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::with_capacity(2);
        let node = interner.intern("node:a");
        let span = rec.begin_span(0, node, None, 8); // 1 event (Sent)
        rec.record(span, 1, node, Stage::LinkTx, 0); // 2nd
        rec.record(span, 2, node, Stage::Arrived, 0); // over
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn stage_samples_measure_hops_and_residency() {
        let samples = stage_samples(&sample_dump());
        assert_eq!(samples.hop_ns, vec![1_500.0]);
        assert_eq!(samples.residency_ns, vec![6_500.0]);
        assert_eq!(samples.e2e_ns, vec![1_500.0]);
        assert!(samples.reasm_ns.is_empty());
    }

    #[test]
    fn interleaved_fragments_pair_by_offset() {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::default();
        let node = interner.intern("node:a");
        let link = interner.intern("link:0");
        let span = rec.begin_span(0, node, None, 3000);
        rec.record(span, 0, node, Stage::Fragmented, 2);
        rec.record(span, 0, link, Stage::LinkTx, 0);
        rec.record(span, 0, link, Stage::LinkTx, 185);
        rec.record(span, 10, node, Stage::Arrived, 0);
        rec.record(span, 25, node, Stage::Arrived, 185);
        rec.record(span, 25, node, Stage::Reassembled, 0);
        let samples = stage_samples(&freeze(rec, &interner));
        assert_eq!(samples.hop_ns, vec![10.0, 25.0]);
        assert_eq!(samples.reasm_ns, vec![25.0]);
    }

    #[test]
    fn post_mortem_attributes_causes_to_components() {
        let dump = sample_dump();
        let pm = post_mortem(&dump);
        assert_eq!(pm.total(), 1);
        let link = dump.components.iter().position(|c| c == "link:0").unwrap();
        assert_eq!(
            pm.entries,
            vec![(DropCause::QueueFull, SymbolId(link as u32), 1)]
        );
        let mut agg = PostMortem::default();
        agg.absorb(&pm);
        agg.absorb(&pm);
        assert_eq!(agg.cause_total(DropCause::QueueFull), 2);
    }

    #[test]
    fn chrome_trace_is_deterministic_and_structured() {
        let dump = sample_dump();
        let a = to_chrome_trace(&dump);
        let b = to_chrome_trace(&dump);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(a.trim_end().ends_with("]}"));
        assert!(a.contains("\"name\":\"dropped:queue_full\""));
        assert!(a.contains("\"ts\":1.000"));
        assert!(a.contains("\"media_ms\":0"));
        // One line per event plus the header, metadata, and closer.
        assert_eq!(a.lines().count(), 3 + dump.events.len());
    }

    #[test]
    fn merge_domains_canonicalizes_a_single_part_idempotently() {
        let dump = sample_dump();
        let canon = LineageDump::merge_domains(vec![part_of(&dump)]);
        canon.validate().expect("canonical dump is well-formed");
        // Same behaviour, canonical ids.
        assert_eq!(canon.outcome_counts(), dump.outcome_counts());
        assert_eq!(canon.events.len(), dump.events.len());
        let mut names = canon.components.clone();
        names.sort();
        assert_eq!(names, canon.components, "components come out sorted");
        // Canonicalizing a canonical dump changes nothing.
        assert_eq!(LineageDump::merge_domains(vec![part_of(&canon)]), canon);
    }

    #[test]
    fn merge_domains_matches_the_sequential_recorder() {
        // A two-domain run: span 0 is born at node:a (domain 0) and
        // crosses the cut link to node:b (domain 1); span 1 is born at
        // node:b. The per-domain dumps merged must equal the
        // canonicalized dump of one sequential recorder that saw the
        // same history.
        let mut gi = Interner::new();
        let (ga, gl, gb) = (
            gi.intern("node:a"),
            gi.intern("link:01"),
            gi.intern("node:b"),
        );
        let mut seq = LineageRecorder::default();
        let s0 = seq.begin_span(0, ga, None, 100);
        seq.record(s0, 0, gl, Stage::LinkTx, 0);
        let s1 = seq.begin_span(5, gb, None, 8);
        seq.record(s0, 10, gb, Stage::Arrived, 0);
        seq.record(s0, 10, gb, Stage::Delivered, 554);
        let _ = s1;
        let sequential = LineageDump::merge_domains(vec![seq.finish(&gi)]);

        // Domain 0 owns node:a and the cut link's transmit side.
        let mut i0 = Interner::new();
        let (l0, a0) = (i0.intern("link:01"), i0.intern("node:a"));
        let mut d0 = LineageRecorder::default();
        d0.set_span_base(0);
        let d0s0 = d0.begin_span(0, a0, None, 100);
        d0.record(d0s0, 0, l0, Stage::LinkTx, 0);

        // Domain 1 owns node:b and records span 0's later stages
        // under the foreign span id it arrived with.
        let mut i1 = Interner::new();
        let b1 = i1.intern("node:b");
        let mut d1 = LineageRecorder::default();
        d1.set_span_base(1u64 << SPAN_DOMAIN_SHIFT);
        let _d1s0 = d1.begin_span(5, b1, None, 8);
        d1.record(d0s0, 10, b1, Stage::Arrived, 0);
        d1.record(d0s0, 10, b1, Stage::Delivered, 554);

        let merged = LineageDump::merge_domains(vec![d0.finish(&i0), d1.finish(&i1)]);
        assert_eq!(merged, sequential);
        merged.validate().expect("merged dump is well-formed");
    }

    #[test]
    fn stage_codes_are_dense_and_round_trip() {
        let mut stages = vec![
            Stage::Sent,
            Stage::Fragmented,
            Stage::LinkTx,
            Stage::Arrived,
            Stage::Sniffed,
            Stage::ReasmHeld,
            Stage::Reassembled,
            Stage::Delivered,
            Stage::Buffered,
            Stage::Played,
        ];
        stages.extend(DropCause::ALL.map(Stage::Dropped));
        for (code, stage) in stages.into_iter().enumerate() {
            assert_eq!(stage.code(), code as u32);
            assert_eq!(Stage::from_code(code as u32), Some(stage));
        }
        assert_eq!(Stage::from_code(21), None);
    }

    /// An event naming a span no recorder allocated is a corrupt part:
    /// the merge refuses it rather than skipping the event.
    #[test]
    #[should_panic(expected = "outside the origin table")]
    fn merge_rejects_an_event_for_an_unknown_span() {
        let mut interner = Interner::new();
        let node = interner.intern("node:a");
        let mut rec = LineageRecorder::default();
        rec.begin_span(0, node, None, 8);
        rec.record(1, 5, node, Stage::Delivered, 0);
        LineageDump::merge_domains(vec![rec.finish(&interner)]);
    }

    #[test]
    #[should_panic(expected = "outside the origin table")]
    fn merge_rejects_an_event_from_an_unknown_domain() {
        let mut interner = Interner::new();
        let node = interner.intern("node:a");
        let mut rec = LineageRecorder::default();
        rec.begin_span(0, node, None, 8);
        rec.record(1 << SPAN_DOMAIN_SHIFT, 5, node, Stage::Delivered, 0);
        LineageDump::merge_domains(vec![rec.finish(&interner)]);
    }

    #[test]
    #[should_panic(expected = "does not fit the packed event tag")]
    fn packing_rejects_a_component_id_past_27_bits() {
        let last = MAX_COMPONENTS - 1;
        let wide = WideRow::pack(7, last, Stage::Played, 0);
        let layout = Layout::for_components(MAX_COMPONENTS as usize);
        let row = layout.pack(wide, 0).expect("a 27-bit id packs with aux 0");
        assert_eq!(layout.decode(row, 0, 0, &[]), wide.decode(0));
        assert_eq!(wide.decode(0).comp.0, (1 << 27) - 1);
        WideRow::pack(0, MAX_COMPONENTS, Stage::Sent, 0);
    }

    #[test]
    #[should_panic(expected = "do not fit the packed event tag")]
    fn layout_rejects_a_component_table_past_27_bits() {
        Layout::for_components(MAX_COMPONENTS as usize + 1);
    }

    /// The component field is as wide as the table needs and aux takes
    /// the rest; an aux one past its field, or a time a `u32` past
    /// birth (or before it), does not pack.
    #[test]
    fn layout_widths_follow_the_component_count() {
        for (components, comp_bits) in [(0, 0), (1, 0), (2, 1), (3, 2), (318, 9), (512, 9)] {
            assert_eq!(Layout::for_components(components).comp_bits, comp_bits);
        }
        let layout = Layout::for_components(318);
        let aux_max = (1 << 18) - 1;
        let at = |time_ns, aux| WideRow::pack(time_ns, 317, Stage::Buffered, aux);
        for (time_ns, aux) in [(100, aux_max), (100 + u64::from(u32::MAX), 0), (100, 0)] {
            let row = layout.pack(at(time_ns, aux), 100).expect("fits");
            assert_eq!(layout.decode(row, 3, 100, &[]), at(time_ns, aux).decode(3));
        }
        assert_eq!(layout.pack(at(100, aux_max + 1), 100), None);
        assert_eq!(layout.pack(at(101 + u64::from(u32::MAX), 0), 100), None);
        assert_eq!(layout.pack(at(99, 0), 100), None);
    }

    /// A corpus-shaped dump: 318 components, ten events a span, one
    /// span in 60 played more than 4.29 s after birth.
    #[test]
    fn a_corpus_shaped_dump_holds_at_most_9_bytes_an_event() {
        let mut interner = Interner::new();
        let comps: Vec<SymbolId> = (0..318)
            .map(|i| interner.intern(&format!("comp:{i:03}")))
            .collect();
        let mut rec = LineageRecorder::default();
        for s in 0..6_000u64 {
            let born = s * 20_000_000;
            let comp = |k: u64| comps[((s * 7 + k) % 318) as usize];
            let span = rec.begin_span(born, comp(0), Some(media_meta(s as u32)), 1_400);
            for k in 1..8 {
                rec.record(span, born + k * 1_000_000, comp(k), Stage::LinkTx, 0);
            }
            rec.record(span, born + 9_000_000, comp(8), Stage::Buffered, 60_000);
            let played = if s % 60 == 0 {
                5_000_000_000
            } else {
                900_000_000
            };
            rec.record(span, born + played, comp(9), Stage::Played, 60_000);
        }
        let dump = freeze(rec, &interner);
        assert_eq!(dump.events.len(), 60_000);
        assert_eq!(dump.events.spill.len(), 100);
        let log = &dump.events;
        let held = log.rows.capacity() * std::mem::size_of::<Row>()
            + log.spill.capacity() * std::mem::size_of::<WideRow>();
        assert!(
            held as f64 / log.len() as f64 <= 9.0,
            "{held} B of rows and spill for {} events",
            log.len()
        );
        let per_span = 4 + 8 + std::mem::size_of::<SpanOrigin>();
        assert!(dump.memory_bytes() >= (held + 6_000 * per_span) as u64);
        dump.validate().expect("corpus-shaped dump is well-formed");
    }

    #[test]
    fn validate_catches_an_unknown_component() {
        let mut dump = sample_dump();
        dump.components.pop();
        assert!(dump
            .validate()
            .unwrap_err()
            .contains("references unknown component"));
    }

    #[test]
    fn events_are_span_major_and_8_bytes_a_row() {
        assert_eq!(std::mem::size_of::<Row>(), 8);
        assert_eq!(std::mem::size_of::<Staged>(), 16);
        let dump = sample_dump();
        let spans: Vec<u64> = dump.events.iter().map(|e| e.span).collect();
        assert!(spans.is_sorted(), "span-major order: {spans:?}");
        assert_eq!(dump.events.iter().len(), dump.events.len());
        assert_eq!(dump.events.spans(), dump.origins.len());
    }

    #[test]
    fn every_cause_has_a_distinct_counter() {
        let mut counters: Vec<_> = DropCause::ALL.iter().map(|c| c.counter()).collect();
        counters.sort_unstable();
        counters.dedup();
        assert_eq!(counters.len(), DropCause::ALL.len());
    }
}
