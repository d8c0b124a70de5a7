//! The differential properties the fuzzer drives.
//!
//! Each property is a pure function of its input (a byte buffer or a
//! seed) returning `Ok(())` or a human-readable counterexample
//! description. Panics are caught one level up, in the runner, so a
//! property body is free to index and unwrap — a panic *is* a failure
//! report, with the input preserved for replay.

use crate::gen::{self, DIFF_DST, DIFF_SRC};
use crate::rng::CheckRng;
use bytes::Bytes;
use turb_capture::pcap::{decode_packet, frame_for, read_pcap, write_pcap};
use turb_capture::PacketRecord;
use turb_netsim::{Direction, SimTime};
use turb_wire::checksum::{checksum, Checksum};
use turb_wire::ethernet::EthernetFrame;
use turb_wire::frag::{fragment, Reassembler};
use turb_wire::icmp::IcmpMessage;
use turb_wire::ipv4::Ipv4Packet;
use turb_wire::media::MediaHeader;
use turb_wire::udp::UdpDatagram;
use turb_wire::view::PacketView;

/// How a property consumes its input.
pub enum PropKind {
    /// Driven by a generated byte buffer; failures minimise and replay
    /// from the raw bytes.
    Bytes {
        /// Generate one input from a case seed.
        gen: fn(&mut CheckRng) -> Vec<u8>,
        /// Check the property on an input.
        run: fn(&[u8]) -> Result<(), String>,
    },
    /// Driven directly by a case seed (the input is structured state,
    /// not a flat buffer); failures replay from the seed.
    Seeded {
        /// Check the property for one seed's worth of generated state.
        run: fn(&mut CheckRng) -> Result<(), String>,
    },
}

/// One named property.
pub struct Property {
    /// Stable name, stored in regression-case files.
    pub name: &'static str,
    /// One-line description for reports.
    pub about: &'static str,
    /// Input plumbing.
    pub kind: PropKind,
}

/// Every property, in the order reports list them.
pub fn all() -> &'static [Property] {
    &PROPERTIES
}

/// Look a property up by its stable name.
pub fn by_name(name: &str) -> Option<&'static Property> {
    PROPERTIES.iter().find(|p| p.name == name)
}

static PROPERTIES: [Property; 7] = [
    Property {
        name: "decode_differential",
        about: "decode == decode_shared == PacketView on arbitrary bytes",
        kind: PropKind::Bytes {
            gen: gen::wire_bytes,
            run: decode_differential,
        },
    },
    Property {
        name: "checksum_splits",
        about: "one-shot and incremental Checksum equal a naive RFC 1071 sum under every split",
        kind: PropKind::Bytes {
            gen: checksum_input,
            run: checksum_splits,
        },
    },
    Property {
        name: "reassembly_roundtrip",
        about: "fragment -> shuffle/drop/dup -> reassemble round-trips or fails closed",
        kind: PropKind::Seeded {
            run: reassembly_roundtrip,
        },
    },
    Property {
        name: "reassembly_adversarial",
        about: "overlapping / beyond-total / conflicting-final fragments are rejected deterministically",
        kind: PropKind::Seeded {
            run: reassembly_adversarial,
        },
    },
    Property {
        name: "pcap_identity",
        about: "pcap write -> read -> decode reproduces every captured packet",
        kind: PropKind::Seeded { run: pcap_identity },
    },
    Property {
        name: "lineage_lifecycle",
        about: "lineage spans stay time-monotone, classify once, and reconcile drops with counters",
        kind: PropKind::Seeded {
            run: lineage_lifecycle,
        },
    },
    Property {
        name: "fluid_fairness",
        about: "max-min solver conserves capacity, is fair, order-independent, and plan deltas match from-scratch recomputes",
        kind: PropKind::Seeded {
            run: fluid_fairness,
        },
    },
];

fn fail(detail: String) -> Result<(), String> {
    Err(detail)
}

/// Property: the three IPv4 decode paths (copying decode, zero-copy
/// `decode_shared`, lazy `PacketView`) accept and reject identical
/// inputs with identical results, and the other decoders on the frame
/// path never panic and agree with their own shared variants.
fn decode_differential(data: &[u8]) -> Result<(), String> {
    let shared = Bytes::copy_from_slice(data);

    // IPv4: owned vs zero-copy.
    let owned = Ipv4Packet::decode(data);
    let zero = Ipv4Packet::decode_shared(&shared);
    if owned != zero {
        return fail(format!(
            "ipv4 decode/decode_shared diverge: {owned:?} vs {zero:?}"
        ));
    }
    // IPv4: eager vs lazy view.
    match (&owned, PacketView::new(shared.clone())) {
        (Ok(p), Ok(view)) => {
            if view.total_len() != p.total_len()
                || view.tos() != p.tos
                || view.identification() != p.identification
                || view.dont_fragment() != p.dont_fragment
                || view.more_fragments() != p.more_fragments
                || view.fragment_offset() != p.fragment_offset
                || view.ttl() != p.ttl
                || view.protocol() != p.protocol
                || view.src() != p.src
                || view.dst() != p.dst
                || view.payload() != p.payload
            {
                return fail(format!("PacketView accessors disagree with decode: {p:?}"));
            }
            let materialised = view.to_packet();
            if materialised != *p {
                return fail(format!(
                    "PacketView::to_packet diverges: {materialised:?} vs {p:?}"
                ));
            }
            // Accepted packets must re-encode to the accepted prefix
            // (the bytes beyond total_length are link padding). The
            // checksum field is excluded: one's complement has two
            // zeros, so 0x0000 and 0xffff stored checksums can both
            // verify for the same header without being byte-equal.
            let encoded = p.encode().map_err(|e| format!("re-encode failed: {e}"))?;
            if encoded[..10] != data[..10] || encoded[12..] != data[12..p.total_len()] {
                return fail("re-encode differs from accepted wire bytes".to_string());
            }
        }
        (Err(e), Err(ve)) => {
            if *e != ve {
                return fail(format!("decode error {e:?} but view error {ve:?}"));
            }
        }
        (Ok(_), Err(ve)) => return fail(format!("decode accepts, view rejects: {ve:?}")),
        (Err(e), Ok(_)) => return fail(format!("view accepts, decode rejects: {e:?}")),
    }

    // UDP under the pinned pseudo-header addresses.
    let udp_owned = UdpDatagram::decode(data, DIFF_SRC, DIFF_DST);
    let udp_zero = UdpDatagram::decode_shared(&shared, DIFF_SRC, DIFF_DST);
    if udp_owned != udp_zero {
        return fail(format!(
            "udp decode/decode_shared diverge: {udp_owned:?} vs {udp_zero:?}"
        ));
    }
    if let Ok(udp) = &udp_owned {
        let re = udp
            .encode(DIFF_SRC, DIFF_DST)
            .map_err(|e| format!("udp re-encode failed: {e}"))?;
        let back = UdpDatagram::decode(&re, DIFF_SRC, DIFF_DST)
            .map_err(|e| format!("udp re-decode failed: {e}"))?;
        if back != *udp {
            return fail("udp encode/decode round-trip diverges".to_string());
        }
    }

    // ICMP.
    let icmp_owned = IcmpMessage::decode(data);
    let icmp_zero = IcmpMessage::decode_shared(&shared);
    if icmp_owned != icmp_zero {
        return fail(format!(
            "icmp decode/decode_shared diverge: {icmp_owned:?} vs {icmp_zero:?}"
        ));
    }
    if let Ok(msg) = &icmp_owned {
        let back =
            IcmpMessage::decode(&msg.encode()).map_err(|e| format!("icmp re-decode: {e}"))?;
        if back != *msg {
            return fail("icmp encode/decode round-trip diverges".to_string());
        }
    }

    // Ethernet: decode is header-split only, so accepted frames must
    // re-encode byte-identically.
    if let Ok(frame) = EthernetFrame::decode(data) {
        if frame.encode() != data {
            return fail("ethernet decode/encode not byte-identical".to_string());
        }
    }

    // These must never panic on arbitrary input; any result is fine.
    let _ = MediaHeader::decode(data);
    let _ = turb_wire::checksum::verify(data);
    Ok(())
}

/// Input generator for [`checksum_splits`]: usually short (so the
/// exhaustive split loop stays cheap), sometimes a few hundred bytes,
/// and now and then up to a jumbo 9,000-byte datagram, odd lengths
/// included.
fn checksum_input(rng: &mut CheckRng) -> Vec<u8> {
    let len = if rng.chance(75) {
        rng.below(49)
    } else if rng.chance(60) {
        rng.range(49, 300)
    } else {
        rng.range(300, 9_001)
    };
    let mut data = vec![0u8; len];
    rng.fill(&mut data);
    data
}

/// RFC 1071 by the book: 16-bit big-endian words, an odd tail padded
/// with a zero byte, end-around carry, complement. It shares no code
/// with [`Checksum`], whose word-wide native-endian kernel it checks.
fn reference_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u64;
    for word in data.chunks(2) {
        sum += u64::from(u16::from_be_bytes([word[0], *word.get(1).unwrap_or(&0)]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Property: the one-shot [`checksum`] equals a naive RFC 1071 sum,
/// and the incremental [`Checksum`] equals both no matter where the
/// pushes are cut, including pushes mixed with `push_u16`.
fn checksum_splits(data: &[u8]) -> Result<(), String> {
    let expected = reference_checksum(data);
    let one_shot = checksum(data);
    if one_shot != expected {
        return fail(format!(
            "one-shot gives {one_shot:#06x}, RFC 1071 reference {expected:#06x}"
        ));
    }

    // Every two-piece split for short inputs, a sampled set for long
    // ones (the sample positions derive from the data so a stored case
    // replays identically).
    let cuts: Vec<usize> = if data.len() <= 48 {
        (0..=data.len()).collect()
    } else {
        let mut h = 0x9e37u64;
        for &b in data.iter().take(16) {
            h = h.wrapping_mul(131).wrapping_add(u64::from(b));
        }
        (0..16)
            .map(|i| {
                h = h.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i);
                (h % (data.len() as u64 + 1)) as usize
            })
            .collect()
    };
    for cut in cuts {
        let mut c = Checksum::new();
        c.push(&data[..cut]);
        c.push(&data[cut..]);
        if c.value() != expected {
            return fail(format!(
                "two-piece split at {cut} gives {:#06x}, reference {expected:#06x}",
                c.value()
            ));
        }
    }

    // A many-piece split with data-derived piece lengths: 1..=9, and
    // one piece in four up to 100 so the word-wide blocks run too.
    let mut c = Checksum::new();
    let mut rest = data;
    let mut state = 0x85eb_ca6bu64 ^ data.len() as u64;
    while !rest.is_empty() {
        state = state.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let span = if state >> 62 == 0 { 100 } else { 9 };
        let take = usize::min(1 + ((state >> 8) % span) as usize, rest.len());
        c.push(&rest[..take]);
        rest = &rest[take..];
    }
    if c.value() != expected {
        return fail(format!(
            "many-piece split gives {:#06x}, reference {expected:#06x}",
            c.value()
        ));
    }

    // push_u16 after an odd prefix must keep byte-stream semantics.
    if data.len() >= 3 {
        let mut c = Checksum::new();
        c.push(&data[..1]);
        c.push_u16(u16::from_be_bytes([data[1], data[2]]));
        c.push(&data[3..]);
        if c.value() != expected {
            return fail(format!(
                "push_u16 after odd prefix gives {:#06x}, reference {expected:#06x}",
                c.value()
            ));
        }
    }
    Ok(())
}

/// Byte ranges `[start, end)` covered by a fragment stream.
fn coverage_of(stream: &[Ipv4Packet]) -> (Vec<(usize, usize)>, Option<usize>) {
    let mut spans: Vec<(usize, usize)> = stream
        .iter()
        .map(|f| {
            let start = f.fragment_offset_bytes();
            (start, start + f.payload.len())
        })
        .collect();
    spans.sort_unstable();
    let total = stream
        .iter()
        .find(|f| !f.more_fragments)
        .map(|f| f.fragment_offset_bytes() + f.payload.len());
    (spans, total)
}

/// Whether sorted `spans` cover `[0, total)` without a hole.
fn covers(spans: &[(usize, usize)], total: usize) -> bool {
    let mut reached = 0usize;
    for &(start, end) in spans {
        if start > reached {
            return false;
        }
        reached = reached.max(end);
    }
    reached >= total
}

/// Property: encode → fragment → shuffle/drop/dup/re-fragment →
/// reassemble either reproduces the original payload exactly or fails
/// closed (no emission, stats coherent). All injected fragments carry
/// *consistent* bytes (duplicates and re-fragmentations of the same
/// datagram), so any completed reassembly must equal the original no
/// matter which copy of each byte arrived first.
fn reassembly_roundtrip(rng: &mut CheckRng) -> Result<(), String> {
    let payload_len = rng.range(1, 6000);
    let packet = gen::sized_packet(rng, payload_len);
    let mtu = *rng.pick(&[576, 700, 1000, 1500]);
    let frags =
        fragment(packet.clone(), mtu).map_err(|e| format!("fragmenting valid packet: {e}"))?;

    let mut r = Reassembler::new(u64::MAX);
    if frags.len() == 1 {
        // Fits the MTU: the passthrough path must hand it straight back.
        let out = r
            .push(packet.clone(), 0)
            .ok_or("unfragmented packet not passed through")?;
        if out != packet {
            return fail("passthrough altered the packet".to_string());
        }
        if r.stats().passthrough != 1 {
            return fail(format!("passthrough stat {:?}", r.stats()));
        }
        return Ok(());
    }

    let mut stream = frags;
    // Consistent overlap: the same datagram re-fragmented at another
    // MTU, as a retransmission through a different path would be.
    if rng.chance(40) {
        let mtu2 = *rng.pick(&[576, 700, 1000, 1500]);
        let alt = fragment(packet.clone(), mtu2).map_err(|e| e.to_string())?;
        // Only inject when the second MTU actually fragments: a whole
        // unfragmented copy would (correctly) take the passthrough
        // path and is not part of the reassembly contract under test.
        if alt.len() > 1 {
            stream.extend(alt);
        }
    }
    if rng.chance(30) {
        let dup = stream[rng.below(stream.len())].clone();
        stream.push(dup);
    }
    if rng.chance(30) {
        stream.remove(rng.below(stream.len()));
    }
    rng.shuffle(&mut stream);

    // Predict completion from what actually remains in the stream: it
    // completes iff the surviving fragments cover every byte and one of
    // them is final. (All sets are consistent, so the final's end *is*
    // the payload length.)
    let (spans, declared_total) = coverage_of(&stream);
    let expect_complete = declared_total == Some(payload_len) && covers(&spans, payload_len);

    let mut completions = Vec::new();
    for f in &stream {
        if let Some(whole) = r.push(f.clone(), 0) {
            completions.push(whole);
        }
    }

    if completions.is_empty() == expect_complete {
        return fail(format!(
            "expected complete={expect_complete}, got {} completions \
             ({} fragments, payload {payload_len}, mtu {mtu})",
            completions.len(),
            stream.len()
        ));
    }
    for whole in &completions {
        if whole.payload != packet.payload {
            return fail("reassembled payload differs from original".to_string());
        }
        if whole.is_fragment() {
            return fail("reassembled datagram still flagged as fragment".to_string());
        }
        if whole.datagram_key() != packet.datagram_key() {
            return fail("reassembled datagram changed its key".to_string());
        }
    }

    let stats = r.stats();
    if stats.fragments_received != stream.len() as u64 {
        return fail(format!(
            "{} fragments pushed but stats counted {}",
            stream.len(),
            stats.fragments_received
        ));
    }
    if stats.reassembled != completions.len() as u64 {
        return fail(format!(
            "stats {stats:?} vs {} completions",
            completions.len()
        ));
    }
    if stats.invalid != 0 {
        // Every injected fragment belongs to a consistent set; none may
        // be classified as malformed.
        return fail(format!("consistent stream flagged invalid: {stats:?}"));
    }
    if r.pending() > 1 {
        return fail(format!(
            "{} partials left for one datagram key",
            r.pending()
        ));
    }
    Ok(())
}

/// Build a raw fragment by hand (offset in bytes, must be 8-aligned).
fn raw_frag(template: &Ipv4Packet, offset: usize, len: usize, fill: u8, more: bool) -> Ipv4Packet {
    let mut f = template.clone();
    f.payload = Bytes::from(vec![fill; len]);
    f.fragment_offset = (offset / 8) as u16;
    f.more_fragments = more;
    f
}

/// Property: the three satellite reassembly hazards, with randomised
/// geometry. (a) a final fragment contradicting already-received data
/// is rejected — the pre-fix code panicked in `assemble` on this;
/// (b) fragments beyond the declared total are rejected and counted;
/// (c) inconsistent overlap resolves first-arrival-wins in both orders.
fn reassembly_adversarial(rng: &mut CheckRng) -> Result<(), String> {
    let template = gen::sized_packet(rng, 0);
    let unit = 8 * rng.range(2, 120); // fragment granularity, 16..=960 bytes

    // (a) Conflicting final: two pieces [0, unit) and [unit, 2*unit),
    // then a final fragment ending strictly inside the covered range.
    {
        let mut r = Reassembler::new(u64::MAX);
        if r.push(raw_frag(&template, 0, unit, 0x11, true), 0)
            .is_some()
            || r.push(raw_frag(&template, unit, unit, 0x22, true), 0)
                .is_some()
        {
            return fail("incomplete datagram emitted early".to_string());
        }
        // A nonzero offset (offset 0 with MF clear is simply an
        // unfragmented packet) ending strictly inside the covered
        // range (a final ending exactly at the covered edge is a
        // legitimate completion, not a conflict).
        let bad_off = 8 * rng.range(1, 2 * unit / 8 - 2);
        if r.push(raw_frag(&template, bad_off, 8, 0x33, false), 0)
            .is_some()
        {
            return fail("contradictory final fragment completed a datagram".to_string());
        }
        if r.stats().invalid != 1 {
            return fail(format!(
                "contradictory final not counted invalid: {:?}",
                r.stats()
            ));
        }
        // A consistent final still completes, unpolluted by the bad one.
        let tail = rng.range(1, 64);
        let whole = r
            .push(raw_frag(&template, 2 * unit, tail, 0x44, false), 0)
            .ok_or("consistent final did not complete")?;
        if whole.payload.len() != 2 * unit + tail {
            return fail(format!("assembled length {}", whole.payload.len()));
        }
        if whole.payload[..unit].iter().any(|&b| b != 0x11)
            || whole.payload[unit..2 * unit].iter().any(|&b| b != 0x22)
            || whole.payload[2 * unit..].iter().any(|&b| b != 0x44)
        {
            return fail("rejected fragment's bytes leaked into the datagram".to_string());
        }
    }

    // (b) Beyond-total: once the final fragment fixes the length, any
    // fragment extending past it is malformed.
    {
        let mut r = Reassembler::new(u64::MAX);
        let total = 2 * unit;
        if r.push(raw_frag(&template, unit, unit, 0x22, false), 0)
            .is_some()
        {
            return fail("half a datagram completed".to_string());
        }
        // Entirely beyond, and straddling, the declared end.
        r.push(raw_frag(&template, total, 8, 0x99, true), 0);
        r.push(raw_frag(&template, total - 8, 16, 0x99, true), 0);
        if r.stats().invalid != 2 {
            return fail(format!(
                "beyond-total fragments not counted: {:?}",
                r.stats()
            ));
        }
        let whole = r
            .push(raw_frag(&template, 0, unit, 0x11, true), 0)
            .ok_or("valid fragments no longer complete after junk")?;
        if whole.payload.len() != total || whole.payload.contains(&0x99) {
            return fail("beyond-total bytes leaked into the datagram".to_string());
        }
    }

    // (c) Inconsistent overlap: whichever fragment arrives first owns
    // the overlapped bytes, in both arrival orders.
    {
        let a_len = 2 * unit;
        let overlap_off = unit; // b starts halfway into a
        let b_len = 2 * unit;
        let a = raw_frag(&template, 0, a_len, 0xaa, true);
        let b = raw_frag(&template, overlap_off, b_len, 0xbb, false);
        for (first, second, overlap_fill) in [(&a, &b, 0xaau8), (&b, &a, 0xbbu8)] {
            let mut r = Reassembler::new(u64::MAX);
            if r.push(first.clone(), 0).is_some() {
                // b alone covers [unit, 3*unit) with a hole at the
                // front, a alone has no final — neither completes.
                return fail("overlap scenario completed from one fragment".to_string());
            }
            let whole = r
                .push(second.clone(), 0)
                .ok_or("overlapping pair did not complete")?;
            let payload = &whole.payload;
            if payload.len() != overlap_off + b_len {
                return fail(format!("overlap assembly length {}", payload.len()));
            }
            if payload[overlap_off..a_len]
                .iter()
                .any(|&x| x != overlap_fill)
            {
                return fail(format!(
                    "overlap region not first-arrival-wins (expected {overlap_fill:#04x})"
                ));
            }
            if r.stats().duplicates != 1 {
                return fail(format!("overlap not counted duplicate: {:?}", r.stats()));
            }
            if r.stats().invalid != 0 {
                return fail(format!("overlap misclassified invalid: {:?}", r.stats()));
            }
        }
    }
    Ok(())
}

/// Property: writing a capture to pcap and reading it back reproduces
/// every record — frame bytes, microsecond timestamp, and the decoded
/// packet — through the zero-copy read path.
fn pcap_identity(rng: &mut CheckRng) -> Result<(), String> {
    let n = rng.range(1, 8);
    let mut records = Vec::with_capacity(n);
    let mut t_micros = 0u64;
    for _ in 0..n {
        t_micros += rng.next_u64() % 2_000_000;
        let packet = if rng.chance(30) {
            // A mid-datagram fragment, as the sniffer often sees.
            let len = rng.range(1600, 4000);
            let big = gen::sized_packet(rng, len);
            let frags = fragment(big, 1500).map_err(|e| e.to_string())?;
            frags[rng.below(frags.len())].clone()
        } else {
            gen::valid_packet(rng)
        };
        let direction = if rng.chance(50) {
            Direction::Rx
        } else {
            Direction::Tx
        };
        // Timestamps are whole microseconds: that is pcap's native
        // resolution, so identity is exact.
        records.push(PacketRecord::dissect(
            SimTime(t_micros * 1_000),
            direction,
            &packet,
        ));
    }

    let mut file = Vec::new();
    write_pcap(&mut file, &records).map_err(|e| format!("write_pcap: {e}"))?;
    let read = read_pcap(&mut file.as_slice()).map_err(|e| format!("read_pcap: {e}"))?;
    if read.len() != records.len() {
        return fail(format!(
            "wrote {} packets, read back {}",
            records.len(),
            read.len()
        ));
    }
    for (record, stored) in records.iter().zip(&read) {
        if stored.frame != frame_for(record) {
            return fail("stored frame bytes differ from the written frame".to_string());
        }
        let (time, packet) = decode_packet(stored).ok_or("stored packet no longer decodes")?;
        if time != record.time {
            return fail(format!("timestamp {time:?} read back as {:?}", record.time));
        }
        if packet != record.packet {
            return fail("packet read back differs from the captured packet".to_string());
        }
    }
    Ok(())
}

/// Property: a randomised lossy two-host run with fragmenting
/// datagrams yields a lineage dump whose per-span stage sequences are
/// monotone in sim time (checked by `LineageDump::validate`), whose
/// spans each classify into exactly one terminal outcome — played,
/// completed, dropped(cause), or truncated by run end — and whose drop
/// attributions reconcile 1:1 with the always-on simulator counters.
fn lineage_lifecycle(rng: &mut CheckRng) -> Result<(), String> {
    use std::net::Ipv4Addr;
    use turb_netsim::sim::{Application, Ctx};
    use turb_netsim::{DropCause, FaultInjector, LinkConfig, SimDuration, Simulation};

    /// Sends its datagram sizes one timer tick apart.
    struct Burst {
        peer: Ipv4Addr,
        sizes: Vec<usize>,
        gap_us: u64,
        next: usize,
    }
    impl Application for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(SimDuration::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if let Some(&size) = self.sizes.get(self.next) {
                self.next += 1;
                ctx.send_udp(5000, self.peer, 6000, Bytes::from(vec![0xab; size]));
                ctx.set_timer_after(SimDuration::from_micros(self.gap_us), 0);
            }
        }
    }
    struct Sink;
    impl Application for Sink {}

    // Sub-MTU and fragmenting sizes, a lossy forward link, and a queue
    // tight enough that bursts can also overflow it.
    let count = rng.range(5, 60);
    let sizes: Vec<usize> = (0..count).map(|_| rng.range(16, 5000)).collect();
    let loss = rng.below(30) as f64 / 100.0;
    let queue = rng.range(4, 64);

    let mut sim = Simulation::new(rng.next_u64());
    sim.enable_lineage();
    let a = sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
    let b = sim.add_host("b", Ipv4Addr::new(10, 0, 0, 2));
    let (ab, ba) = sim.add_duplex(
        a,
        b,
        LinkConfig {
            rate_bps: 2_000_000,
            propagation: SimDuration::from_millis(2),
            queue_capacity: queue,
            mtu: 1500,
        },
    );
    sim.core_mut().node_mut(a).default_route = Some(ab);
    sim.core_mut().node_mut(b).default_route = Some(ba);
    if loss > 0.0 {
        sim.core_mut().link_mut(ab).fault = FaultInjector::bernoulli(loss);
    }
    sim.add_app(
        a,
        Box::new(Burst {
            peer: Ipv4Addr::new(10, 0, 0, 2),
            sizes,
            gap_us: rng.range(200, 5000) as u64,
            next: 0,
        }),
        Some(5000),
        false,
    );
    sim.add_app(b, Box::new(Sink), Some(6000), false);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));

    let dump = sim
        .finish_observers()
        .lineage
        .ok_or("lineage dump missing")?;
    dump.validate()?;
    if dump.dropped != 0 {
        return fail(format!("recorder evicted {} events", dump.dropped));
    }
    if dump.origins.is_empty() {
        return fail("no spans recorded for a sending run".to_string());
    }
    let (played, completed, dropped, truncated) = dump.outcome_counts();
    if played + completed + dropped + truncated != dump.origins.len() as u64 {
        return fail(format!(
            "outcomes {played}+{completed}+{dropped}+{truncated} do not cover {} spans",
            dump.origins.len()
        ));
    }

    let mut metrics = turb_obs::MetricsRegistry::new();
    sim.collect_metrics(&mut metrics);
    let pm = turb_obs::lineage::post_mortem(&dump);
    for cause in DropCause::ALL {
        let attributed = pm.cause_total(cause);
        let counted = metrics.counter_total(cause.counter());
        if attributed != counted {
            return fail(format!(
                "{}: {attributed} lineage drops vs counter {counted}",
                cause.label()
            ));
        }
    }
    Ok(())
}

/// Property: the fluid max-min solver on a randomised topology and
/// flow set (a) never allocates more than any link's capacity,
/// (b) never exceeds a flow's demand, (c) gives every unsatisfied flow
/// a bottleneck link — one without room for +1 bps per flow, on which
/// that flow's rate is maximal (the max-min condition: it cannot gain
/// without a flow of equal-or-smaller rate losing), (d) is a function
/// of the flow multiset, independent of insertion order, and (e) the
/// event plan's cumulative per-link shares at any probe time equal a
/// from-scratch solve of the flows active at that time — arrivals and
/// departures leave no stale state behind.
fn fluid_fairness(rng: &mut CheckRng) -> Result<(), String> {
    use turb_netsim::fluid::{max_min_rates, plan_updates, FluidDemand, FluidFlow, RateSchedule};
    use turb_netsim::LinkId;

    let link_count = rng.range(1, 12);
    let capacities: Vec<u64> = (0..link_count)
        .map(|_| rng.range(1, 1000) as u64 * 1000)
        .collect();
    let flow_count = rng.range(1, 40);
    let flows: Vec<FluidDemand> = (0..flow_count)
        .map(|_| {
            // Random route without duplicate links (a flow crosses a
            // link once).
            let mut idx: Vec<usize> = (0..link_count).collect();
            rng.shuffle(&mut idx);
            idx.truncate(rng.range(1, link_count.min(4)));
            FluidDemand {
                route: idx,
                demand_bps: rng.range(1, 2000) as u64 * 500,
            }
        })
        .collect();

    let rates = max_min_rates(&capacities, &flows);
    let mut per_link = vec![0u64; link_count];
    let mut flows_on = vec![0u64; link_count];
    for (f, &r) in flows.iter().zip(&rates) {
        if r > f.demand_bps {
            return fail(format!(
                "flow got {r} bps, over its demand {}",
                f.demand_bps
            ));
        }
        for &l in &f.route {
            per_link[l] += r;
            flows_on[l] += 1;
        }
    }
    for (l, (&used, &cap)) in per_link.iter().zip(&capacities).enumerate() {
        if used > cap {
            return fail(format!("link {l}: {used} allocated over capacity {cap}"));
        }
    }
    for (f, &r) in flows.iter().zip(&rates) {
        if r >= f.demand_bps {
            continue;
        }
        let bottleneck = f.route.iter().any(|&l| {
            let slack = capacities[l] - per_link[l];
            let max_on_l = flows
                .iter()
                .zip(&rates)
                .filter(|(g, _)| g.route.contains(&l))
                .map(|(_, &rg)| rg)
                .max()
                .unwrap_or(0);
            slack < flows_on[l] && r == max_on_l
        });
        if !bottleneck {
            return fail(format!(
                "unsatisfied flow (rate {r}, demand {}) has no bottleneck link",
                f.demand_bps
            ));
        }
    }

    // (d) Insertion order must not matter.
    let mut perm: Vec<usize> = (0..flows.len()).collect();
    rng.shuffle(&mut perm);
    let shuffled: Vec<FluidDemand> = perm.iter().map(|&i| flows[i].clone()).collect();
    let shuffled_rates = max_min_rates(&capacities, &shuffled);
    for (k, &i) in perm.iter().enumerate() {
        if shuffled_rates[k] != rates[i] {
            return fail(format!(
                "insertion order changed a rate: {} vs {}",
                shuffled_rates[k], rates[i]
            ));
        }
    }

    // (e) Plan replay equals from-scratch recompute at a probe time.
    // Give each flow a random active window on a 100 ns grid and probe
    // off-grid so the boundary order is unambiguous.
    let windows: Vec<(u64, u64)> = flows
        .iter()
        .map(|_| {
            let start = rng.below(10) as u64 * 100;
            (start, start + 100 + rng.below(10) as u64 * 100)
        })
        .collect();
    let fluid_flows: Vec<FluidFlow> = flows
        .iter()
        .zip(&windows)
        .map(|(f, &(start, end))| FluidFlow {
            route: f.route.iter().map(|&l| LinkId(l)).collect(),
            schedule: RateSchedule::constant(SimTime(start), SimTime(end), f.demand_bps),
        })
        .collect();
    let plan = plan_updates(&fluid_flows, |id| capacities[id.0]);
    let probe = SimTime(rng.below(25) as u64 * 100 + 50);
    let mut replayed = vec![0u64; link_count];
    for &(t, link, bps) in &plan.updates {
        if t <= probe {
            replayed[link.0] = bps;
        }
    }
    let active: Vec<FluidDemand> = flows
        .iter()
        .zip(&windows)
        .filter(|&(_, &(start, end))| start <= probe.0 && probe.0 < end)
        .map(|(f, _)| f.clone())
        .collect();
    let active_rates = max_min_rates(&capacities, &active);
    let mut expected = vec![0u64; link_count];
    for (f, &r) in active.iter().zip(&active_rates) {
        for &l in &f.route {
            expected[l] += r;
        }
    }
    if replayed != expected {
        return fail(format!(
            "plan replay at {probe:?} gives {replayed:?}, from-scratch solve gives {expected:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::case_seed;

    /// Every property holds across a spread of seeds. (The runner's
    /// campaign covers far more; this keeps `cargo test` meaningful
    /// without the CLI.)
    #[test]
    fn all_properties_hold_on_a_seed_spread() {
        for prop in all() {
            for i in 0..60u64 {
                let seed = case_seed(0xc0ffee, prop.name, i);
                let result = match &prop.kind {
                    PropKind::Bytes { gen, run } => run(&gen(&mut CheckRng::new(seed))),
                    PropKind::Seeded { run } => run(&mut CheckRng::new(seed)),
                };
                assert!(
                    result.is_ok(),
                    "{} failed at seed {seed:#x}: {}",
                    prop.name,
                    result.unwrap_err()
                );
            }
        }
    }

    #[test]
    fn property_names_are_unique_and_resolvable() {
        for (i, p) in all().iter().enumerate() {
            assert!(by_name(p.name).is_some());
            assert!(
                !all().iter().skip(i + 1).any(|q| q.name == p.name),
                "duplicate property name {}",
                p.name
            );
        }
        assert!(by_name("no_such_property").is_none());
    }

    #[test]
    fn decode_differential_accepts_valid_and_rejects_noise() {
        let packet = gen::valid_packet(&mut CheckRng::new(8));
        let encoded = packet.encode().unwrap();
        assert!(decode_differential(&encoded).is_ok());
        assert!(decode_differential(&[0xff; 7]).is_ok()); // rejection is fine, divergence is not
        assert!(decode_differential(&[]).is_ok());
    }
}
