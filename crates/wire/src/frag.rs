//! IPv4 fragmentation and reassembly (RFC 791 semantics).
//!
//! This is the mechanism behind the paper's Figures 4 and 5: the
//! MediaPlayer server hands the OS application-layer frames larger than
//! the path MTU, the sending stack fragments them, and the capture sees
//! "groups of packets … one UDP packet and the remaining packets are IP
//! fragments", every non-final fragment occupying a full 1514-byte
//! Ethernet frame. Loss of any one fragment discards the whole datagram
//! on reassembly — the goodput hazard §3.C discusses via \[FF99\].

use crate::error::WireError;
use crate::ipv4::{Ipv4Packet, IPV4_HEADER_LEN};
use bytes::{Bytes, BytesMut};
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

/// Split `packet` into MTU-sized fragments.
///
/// Returns the packet unchanged (as a single element) when it already
/// fits. Respects the DF flag. Fragment payload sizes are the largest
/// multiple of 8 that fits in `mtu - 20` bytes, except for the final
/// fragment — reproducing the "all 1514 bytes except the last" pattern.
///
/// Fragmenting an existing fragment is supported (offsets accumulate and
/// the final piece inherits the original's MF flag), as a real router
/// would.
pub fn fragment(packet: Ipv4Packet, mtu: usize) -> Result<Vec<Ipv4Packet>, WireError> {
    if mtu < IPV4_HEADER_LEN + 8 {
        return Err(WireError::Malformed {
            what: "fragment",
            field: "mtu",
        });
    }
    if packet.total_len() <= mtu {
        return Ok(vec![packet]);
    }
    if packet.dont_fragment {
        return Err(WireError::Malformed {
            what: "fragment",
            field: "dont_fragment",
        });
    }
    let chunk = ((mtu - IPV4_HEADER_LEN) / 8) * 8;
    let payload = packet.payload.clone();
    let mut fragments = Vec::with_capacity(payload.len().div_ceil(chunk));
    let mut offset = 0usize;
    while offset < payload.len() {
        let end = usize::min(offset + chunk, payload.len());
        let last = end == payload.len();
        let mut frag = packet.clone();
        frag.payload = payload.slice(offset..end);
        // 32-bit sum: a hand-built packet can carry an offset the
        // 13-bit field could never encode, and the add must not wrap.
        let frag_offset = u32::from(packet.fragment_offset) + (offset / 8) as u32;
        if frag_offset > 0x1fff {
            return Err(WireError::Malformed {
                what: "fragment",
                field: "fragment_offset",
            });
        }
        frag.fragment_offset = frag_offset as u16;
        frag.more_fragments = if last { packet.more_fragments } else { true };
        fragments.push(frag);
        offset = end;
    }
    Ok(fragments)
}

/// A partially reassembled datagram.
///
/// Pieces are kept sorted by offset and pairwise disjoint: overlap is
/// resolved at insertion (first arrival wins per byte, BSD-style), so
/// assembly is independent of arrival order by construction.
#[derive(Debug)]
struct Partial {
    /// Accepted (offset_bytes, payload) pieces, sorted and disjoint.
    pieces: Vec<(usize, Bytes)>,
    /// Total payload length, known once the final fragment arrives.
    total_len: Option<usize>,
    /// Header template from the first fragment seen.
    template: Ipv4Packet,
    /// Timestamp (caller's clock) of the first fragment.
    first_seen: u64,
}

impl Partial {
    /// Insert the sub-ranges of `[offset, offset + payload.len())` not
    /// already covered by an earlier fragment. Returns true when any
    /// byte of the new fragment overlapped existing coverage.
    fn insert_first_arrival_wins(&mut self, offset: usize, payload: Bytes) -> bool {
        let end = offset + payload.len();
        if end == offset {
            return false; // empty fragment carries no bytes
        }
        // Walk existing pieces (sorted, disjoint) across the new range,
        // collecting the uncovered gaps.
        let mut fresh: Vec<(usize, Bytes)> = Vec::new();
        let mut overlapped = false;
        let mut cursor = offset;
        for (off, piece) in &self.pieces {
            let (off, piece_end) = (*off, off + piece.len());
            if piece_end <= offset {
                continue;
            }
            if off >= end {
                break;
            }
            overlapped = true; // the piece intersects [offset, end)
            if off > cursor {
                fresh.push((cursor, payload.slice(cursor - offset..off - offset)));
            }
            cursor = cursor.max(piece_end);
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            fresh.push((cursor, payload.slice(cursor - offset..end - offset)));
        }
        self.pieces.extend(fresh);
        self.pieces.sort_unstable_by_key(|(off, _)| *off);
        overlapped
    }

    fn is_complete(&self) -> bool {
        let Some(total) = self.total_len else {
            return false;
        };
        // Pieces are sorted and disjoint, so a single sweep suffices.
        let mut covered = 0usize;
        for (start, piece) in &self.pieces {
            if *start > covered {
                return false; // hole
            }
            covered = start + piece.len();
        }
        covered >= total
    }

    /// The datagram's payload in one buffer, each byte copied once.
    /// Called only once complete: the pieces are sorted, disjoint and
    /// gap-free, and none extends past `total_len` (fragments that
    /// would are rejected as invalid on push), so appending them in
    /// order tiles `[0, total_len)` exactly.
    fn assemble(&self) -> Bytes {
        let total = self.total_len.expect("assemble called before complete");
        let mut buf = BytesMut::with_capacity(total);
        for (off, piece) in &self.pieces {
            debug_assert_eq!(*off, buf.len(), "pieces tile the datagram");
            buf.extend_from_slice(piece);
        }
        assert_eq!(buf.len(), total, "pieces tile the datagram");
        buf.freeze()
    }

    /// Highest byte covered by any accepted piece.
    fn covered_end(&self) -> usize {
        self.pieces
            .iter()
            .map(|(off, b)| off + b.len())
            .max()
            .unwrap_or(0)
    }
}

/// Counters describing a [`Reassembler`]'s life so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblyStats {
    /// Fragments accepted.
    pub fragments_received: u64,
    /// Whole (unfragmented) packets passed straight through.
    pub passthrough: u64,
    /// Datagrams successfully reassembled.
    pub reassembled: u64,
    /// Datagrams abandoned because their timer expired with holes —
    /// the wasted-bandwidth case behind fragmentation-based congestion
    /// collapse.
    pub timed_out: u64,
    /// Duplicate or overlapping fragments: any accepted fragment whose
    /// byte range intersected data that had already arrived. Overlap is
    /// resolved first-arrival-wins per byte (BSD-style), so reassembly
    /// never depends on arrival order.
    pub duplicates: u64,
    /// Fragments rejected as malformed: extending past the datagram's
    /// declared total length, or a final fragment that contradicts an
    /// earlier final / already-received data beyond its end.
    pub invalid: u64,
}

/// The key a datagram's fragments share: (src, dst, protocol,
/// identification).
type DatagramKey = (Ipv4Addr, Ipv4Addr, u8, u16);

/// Reassembles fragmented IPv4 datagrams keyed by
/// (src, dst, protocol, identification), with a per-datagram timeout.
#[derive(Debug)]
pub struct Reassembler {
    partials: HashMap<DatagramKey, Partial>,
    /// `(first_seen, key)` of every partial, oldest first, so expiry
    /// looks only at the front. An entry can outlive its partial when
    /// the datagram completes; it is skipped when it reaches the front.
    by_age: VecDeque<(u64, DatagramKey)>,
    timeout: u64,
    stats: ReassemblyStats,
}

impl Reassembler {
    /// Create a reassembler whose partial datagrams expire `timeout`
    /// clock units after their first fragment (classic stacks use
    /// 15–60 s; the simulator passes nanoseconds).
    pub fn new(timeout: u64) -> Self {
        Reassembler {
            partials: HashMap::new(),
            by_age: VecDeque::new(),
            timeout,
            stats: ReassemblyStats::default(),
        }
    }

    /// Offer a packet at time `now`. Returns a complete datagram when
    /// `packet` is unfragmented or completes a pending reassembly.
    pub fn push(&mut self, packet: Ipv4Packet, now: u64) -> Option<Ipv4Packet> {
        if !packet.is_fragment() {
            self.stats.passthrough += 1;
            return Some(packet);
        }
        self.stats.fragments_received += 1;
        let key = packet.datagram_key();
        let offset = packet.fragment_offset_bytes();
        let end = offset + packet.payload.len();
        let by_age = &mut self.by_age;
        let partial = self.partials.entry(key).or_insert_with(|| {
            // Callers' clocks are monotone, so this is an append; an
            // earlier `now` still lands in order.
            let at = by_age.partition_point(|&(seen, _)| seen <= now);
            by_age.insert(at, (now, key));
            Partial {
                pieces: Vec::new(),
                total_len: None,
                template: packet.clone(),
                first_seen: now,
            }
        });
        // Fail closed on fragments that contradict the datagram's
        // declared length instead of silently clamping at assembly.
        match partial.total_len {
            // Beyond the end set by the final fragment, or a second
            // final fragment declaring a different end.
            Some(total) if end > total || (!packet.more_fragments && end != total) => {
                self.stats.invalid += 1;
                return None;
            }
            Some(_) => {}
            None if !packet.more_fragments => {
                // A final fragment whose end already-received data
                // extends past is equally contradictory.
                if partial.covered_end() > end {
                    self.stats.invalid += 1;
                    return None;
                }
                partial.total_len = Some(end);
            }
            None => {}
        }
        if offset == 0 {
            // Prefer the first fragment's header as the template so the
            // reassembled datagram carries its TTL/TOS.
            partial.template = packet.clone();
        }
        if partial.insert_first_arrival_wins(offset, packet.payload) {
            self.stats.duplicates += 1;
        }
        if partial.is_complete() {
            let partial = self.partials.remove(&key).expect("present");
            // A datagram that completes before a later one begins is
            // the newest entry: drop it now, not when it ages out.
            if self.by_age.back() == Some(&(partial.first_seen, key)) {
                self.by_age.pop_back();
            }
            let payload = partial.assemble();
            let mut whole = partial.template;
            whole.payload = payload;
            whole.more_fragments = false;
            whole.fragment_offset = 0;
            self.stats.reassembled += 1;
            return Some(whole);
        }
        None
    }

    /// Drop partial datagrams older than the timeout. Returns how many
    /// were abandoned.
    pub fn expire(&mut self, now: u64) -> usize {
        self.expire_with(now, |_| {})
    }

    /// [`Reassembler::expire`], invoking `on_expired` with each
    /// abandoned datagram's header template. Expired partials are
    /// visited in a deterministic order (first-seen time, then the
    /// datagram key) regardless of `HashMap` iteration order, so
    /// same-seed runs observe identical callback sequences. When
    /// nothing has expired this is one compare against the oldest
    /// partial.
    pub fn expire_with(&mut self, now: u64, mut on_expired: impl FnMut(&Ipv4Packet)) -> usize {
        let timeout = self.timeout;
        let mut expired = Vec::new();
        while let Some(&(seen, key)) = self.by_age.front() {
            if now.saturating_sub(seen) < timeout {
                break;
            }
            self.by_age.pop_front();
            // Skip entries whose datagram completed (or whose key was
            // reused by a later datagram).
            if self
                .partials
                .get(&key)
                .is_some_and(|p| p.first_seen == seen)
            {
                let partial = self.partials.remove(&key).expect("present");
                expired.push((seen, key, partial.template));
            }
        }
        expired.sort_unstable_by_key(|&(seen, key, _)| (seen, key));
        for (_, _, template) in &expired {
            on_expired(template);
        }
        self.stats.timed_out += expired.len() as u64;
        expired.len()
    }

    /// Number of datagrams currently awaiting more fragments.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::IpProtocol;

    fn packet(payload_len: usize) -> Ipv4Packet {
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            42,
            Bytes::from(payload),
        )
    }

    #[test]
    fn small_packet_passes_through() {
        let p = packet(100);
        let frags = fragment(p.clone(), 1500).unwrap();
        assert_eq!(frags, vec![p]);
    }

    #[test]
    fn fragment_sizes_match_the_paper() {
        // A ~3840-byte application frame at ≈300 Kbps over 100 ms
        // (paper §3.C): 3 packets, the first two full-MTU.
        let p = packet(3840 + 8);
        let frags = fragment(p, 1500).unwrap();
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].total_len(), 1500); // 1514 on Ethernet
        assert_eq!(frags[1].total_len(), 1500);
        assert!(frags[2].total_len() < 1500);
        assert!(frags[0].is_first_fragment());
        assert!(frags[1].is_fragment() && !frags[1].is_first_fragment());
        assert!(!frags[2].more_fragments);
        // Offsets are contiguous in 8-byte units.
        assert_eq!(frags[0].fragment_offset, 0);
        assert_eq!(frags[1].fragment_offset_bytes(), 1480);
        assert_eq!(frags[2].fragment_offset_bytes(), 2960);
    }

    #[test]
    fn df_flag_refuses_fragmentation() {
        let mut p = packet(3000);
        p.dont_fragment = true;
        assert!(matches!(
            fragment(p, 1500).unwrap_err(),
            WireError::Malformed {
                field: "dont_fragment",
                ..
            }
        ));
    }

    #[test]
    fn tiny_mtu_is_rejected() {
        assert!(fragment(packet(100), 20).is_err());
    }

    #[test]
    fn reassembly_roundtrip_in_order() {
        let p = packet(5000);
        let frags = fragment(p.clone(), 1500).unwrap();
        let mut r = Reassembler::new(u64::MAX);
        let mut out = None;
        for f in frags {
            out = r.push(f, 0);
        }
        let whole = out.expect("reassembly completes on last fragment");
        assert_eq!(whole.payload, p.payload);
        assert!(!whole.is_fragment());
        assert_eq!(r.stats().reassembled, 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembly_roundtrip_out_of_order() {
        let p = packet(6000);
        let mut frags = fragment(p.clone(), 1500).unwrap();
        frags.reverse();
        let mut r = Reassembler::new(u64::MAX);
        let mut out = None;
        for f in frags {
            out = out.or(r.push(f, 0));
        }
        assert_eq!(out.unwrap().payload, p.payload);
    }

    #[test]
    fn missing_fragment_never_completes_and_times_out() {
        let p = packet(5000);
        let mut frags = fragment(p, 1500).unwrap();
        frags.remove(1); // lose a middle fragment
        let mut r = Reassembler::new(1000);
        for f in frags {
            assert!(r.push(f, 0).is_none());
        }
        assert_eq!(r.pending(), 1);
        assert_eq!(r.expire(999), 0); // not yet
        assert_eq!(r.expire(1000), 1);
        assert_eq!(r.stats().timed_out, 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn expire_with_reports_templates_in_deterministic_order() {
        let mut r = Reassembler::new(1000);
        // Three incomplete datagrams, first seen at 30 / 10 / 20.
        for (ident, seen) in [(1u16, 30u64), (2, 10), (3, 20)] {
            let mut p = packet(2000);
            p.identification = ident;
            p.lineage = Some(u64::from(ident));
            let frags = fragment(p, 1500).unwrap();
            assert!(r.push(frags[0].clone(), seen).is_none());
        }
        let mut seen: Vec<(u64, u16)> = Vec::new();
        let n = r.expire_with(2000, |template| {
            seen.push((template.lineage.unwrap(), template.identification));
        });
        assert_eq!(n, 3);
        // Ordered by first-seen time, not hash order.
        assert_eq!(seen, vec![(2, 2), (3, 3), (1, 1)]);
        assert_eq!(r.stats().timed_out, 3);
        assert_eq!(r.pending(), 0);
    }

    /// Equal first-seen times leave in key order, however they arrived;
    /// a completed datagram whose ident is reused does not expire the
    /// new one early; each call expires only what is due.
    #[test]
    fn expiry_batches_follow_first_seen_then_key() {
        let first = |ident: u16| {
            let mut p = packet(2000);
            p.identification = ident;
            fragment(p, 1500).unwrap()
        };
        let mut r = Reassembler::new(1000);
        for (ident, seen) in [(9u16, 10u64), (4, 10), (7, 10), (5, 500)] {
            assert!(r.push(first(ident)[0].clone(), seen).is_none());
        }
        // Ident 6 completes at 20, then a new datagram reuses it at 600.
        for f in first(6) {
            r.push(f, 20);
        }
        assert!(r.push(first(6)[0].clone(), 600).is_none());
        let expire = |r: &mut Reassembler, now| {
            let mut idents = Vec::new();
            r.expire_with(now, |t| idents.push(t.identification));
            idents
        };
        assert_eq!(expire(&mut r, 1009), Vec::<u16>::new());
        assert_eq!(expire(&mut r, 1010), vec![4, 7, 9]);
        assert_eq!(expire(&mut r, 1599), vec![5]);
        assert_eq!(r.pending(), 1);
        assert_eq!(expire(&mut r, 1600), vec![6]);
        assert_eq!(r.stats().timed_out, 5);
        assert_eq!(r.stats().reassembled, 1);
    }

    #[test]
    fn reassembled_datagram_inherits_lineage() {
        let mut p = packet(3000);
        p.lineage = Some(77);
        let frags = fragment(p, 1500).unwrap();
        assert!(frags.iter().all(|f| f.lineage == Some(77)));
        let mut r = Reassembler::new(u64::MAX);
        let mut out = None;
        for f in frags {
            out = out.or(r.push(f, 0));
        }
        assert_eq!(out.unwrap().lineage, Some(77));
    }

    #[test]
    fn duplicate_fragments_are_ignored() {
        let p = packet(2000);
        let frags = fragment(p.clone(), 1500).unwrap();
        let mut r = Reassembler::new(u64::MAX);
        assert!(r.push(frags[0].clone(), 0).is_none());
        assert!(r.push(frags[0].clone(), 0).is_none());
        let whole = r.push(frags[1].clone(), 0).unwrap();
        assert_eq!(whole.payload, p.payload);
        assert_eq!(r.stats().duplicates, 1);
    }

    /// Build a raw fragment by hand: payload bytes at a byte offset.
    fn raw_frag(offset_bytes: usize, payload: Vec<u8>, more: bool) -> Ipv4Packet {
        let mut p = packet(0);
        p.payload = Bytes::from(payload);
        p.fragment_offset = (offset_bytes / 8) as u16;
        p.more_fragments = more;
        p
    }

    #[test]
    fn overlapping_fragments_resolve_first_arrival_wins() {
        // Regression: overlap used to be accepted and copied in arrival
        // order, so the reassembled payload depended on which fragment
        // came first. First arrival must win per byte, both orders.
        let a = raw_frag(0, vec![0xaa; 16], true); // [0, 16) of 0xaa
        let b = raw_frag(8, vec![0xbb; 16], false); // [8, 24) of 0xbb
        let mut expected = vec![0xaa; 16];
        expected.extend_from_slice(&[0xbb; 8]); // a's bytes win on [8, 16)
        let mut r = Reassembler::new(u64::MAX);
        assert!(r.push(a.clone(), 0).is_none());
        let whole = r.push(b.clone(), 0).expect("complete");
        assert_eq!(whole.payload.as_ref(), &expected[..]);
        assert_eq!(r.stats().duplicates, 1);

        // Reversed arrival: b's bytes win on the overlap instead.
        let mut expected_rev = vec![0xaa; 8];
        expected_rev.extend_from_slice(&[0xbb; 16]);
        let mut r = Reassembler::new(u64::MAX);
        assert!(r.push(b, 0).is_none());
        let whole = r.push(a, 0).expect("complete");
        assert_eq!(whole.payload.as_ref(), &expected_rev[..]);
        assert_eq!(r.stats().duplicates, 1);
    }

    #[test]
    fn fragment_beyond_declared_total_is_rejected() {
        // Regression: a fragment arriving after the final fragment and
        // extending past the declared total length used to be silently
        // clamped (and could wedge the partial forever). It must be
        // rejected and counted.
        let mut r = Reassembler::new(u64::MAX);
        assert!(r.push(raw_frag(16, vec![2; 8], false), 0).is_none()); // total 24
                                                                       // Entirely beyond the declared end.
        assert!(r.push(raw_frag(32, vec![9; 8], true), 0).is_none());
        // Straddling the declared end.
        assert!(r.push(raw_frag(16, vec![9; 16], true), 0).is_none());
        assert_eq!(r.stats().invalid, 2);
        // The datagram still completes from the valid fragments alone.
        let whole = r
            .push(raw_frag(0, vec![1; 16], true), 0)
            .expect("completes");
        assert_eq!(whole.payload.len(), 24);
        assert_eq!(&whole.payload[..16], &[1; 16][..]);
        assert_eq!(&whole.payload[16..], &[2; 8][..]);
        assert_eq!(r.stats().duplicates, 0);
    }

    #[test]
    fn conflicting_final_fragment_does_not_panic_or_corrupt() {
        // Regression: pieces [0,1000) + [1000,2000) followed by a final
        // fragment declaring total 600 used to panic in assemble
        // (buf[1000..600]). The contradictory final must be rejected.
        let mut r = Reassembler::new(u64::MAX);
        assert!(r.push(raw_frag(0, vec![1; 1000], true), 0).is_none());
        assert!(r.push(raw_frag(1000, vec![2; 1000], true), 0).is_none());
        assert!(r.push(raw_frag(592, vec![3; 8], false), 0).is_none());
        assert_eq!(r.stats().invalid, 1);
        // The datagram can still complete with a consistent final.
        let whole = r
            .push(raw_frag(2000, vec![4; 8], false), 0)
            .expect("consistent final completes");
        assert_eq!(whole.payload.len(), 2008);
        assert_eq!(r.stats().reassembled, 1);
    }

    #[test]
    fn second_final_with_different_length_is_rejected() {
        let mut r = Reassembler::new(u64::MAX);
        assert!(r.push(raw_frag(8, vec![2; 8], false), 0).is_none()); // total 16
        assert!(r.push(raw_frag(8, vec![2; 16], false), 0).is_none()); // claims 24
        assert_eq!(r.stats().invalid, 1);
        let whole = r.push(raw_frag(0, vec![1; 8], true), 0).expect("completes");
        assert_eq!(whole.payload.len(), 16);
    }

    #[test]
    fn interleaved_datagrams_reassemble_independently() {
        let a = packet(2000);
        let mut b = packet(2000);
        b.identification = 43;
        let fa = fragment(a.clone(), 1500).unwrap();
        let fb = fragment(b.clone(), 1500).unwrap();
        let mut r = Reassembler::new(u64::MAX);
        assert!(r.push(fa[0].clone(), 0).is_none());
        assert!(r.push(fb[0].clone(), 0).is_none());
        let wa = r.push(fa[1].clone(), 0).unwrap();
        let wb = r.push(fb[1].clone(), 0).unwrap();
        assert_eq!(wa.identification, 42);
        assert_eq!(wb.identification, 43);
        assert_eq!(wa.payload, a.payload);
        assert_eq!(wb.payload, b.payload);
    }

    #[test]
    fn refragmenting_a_fragment_accumulates_offsets() {
        let p = packet(4000);
        let frags = fragment(p, 1500).unwrap();
        // Push the middle fragment through a smaller-MTU hop.
        let sub = fragment(frags[1].clone(), 700).unwrap();
        assert!(sub.len() > 1);
        assert_eq!(sub[0].fragment_offset, frags[1].fragment_offset);
        // All sub-fragments of a non-final fragment keep MF set.
        assert!(sub.iter().all(|f| f.more_fragments));
    }

    #[test]
    fn encode_decode_of_fragments_roundtrips() {
        let p = packet(4000);
        for f in fragment(p, 1500).unwrap() {
            let decoded = Ipv4Packet::decode(&f.encode().unwrap()).unwrap();
            assert_eq!(decoded, f);
        }
    }
}
