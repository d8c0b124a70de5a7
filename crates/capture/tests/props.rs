//! Property tests for the fragment-group view: the flat
//! [`FragmentGroups::build`] against a naive reference grouping, over
//! interleaved, reordered, dropped, duplicated and overlapping
//! fragments of several datagrams.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use std::net::Ipv4Addr;
use turb_capture::{FragmentGroups, FragmentationStats, Frame, PacketRecord};
use turb_netsim::{Direction, SimTime};
use turb_wire::frag::fragment;
use turb_wire::ipv4::{IpProtocol, Ipv4Packet};
use turb_wire::media::{MediaHeader, PlayerId};
use turb_wire::udp::UdpDatagram;

const SERVERS: [Ipv4Addr; 2] = [Ipv4Addr::new(204, 71, 0, 33), Ipv4Addr::new(204, 71, 0, 34)];
const CLIENT: Ipv4Addr = Ipv4Addr::new(130, 215, 36, 10);

/// One frame as the reference keeps it: everything `build` reads.
struct RefFrame {
    time: f64,
    len: usize,
    extent: (usize, usize, bool),
}

/// A group as the pre-flat implementation built it: a vector of frames
/// per datagram key, in order of first appearance.
struct RefGroup {
    key: (Ipv4Addr, Ipv4Addr, u8, u16),
    frames: Vec<RefFrame>,
    player: Option<PlayerId>,
    buffering: bool,
}

impl RefGroup {
    /// The sort-and-cover reassembly rule, written out independently.
    fn is_complete(&self) -> bool {
        let Some(end) = self
            .frames
            .iter()
            .find(|f| !f.extent.2)
            .map(|f| f.extent.0 + f.extent.1)
        else {
            return false;
        };
        let mut extents: Vec<(usize, usize)> = self
            .frames
            .iter()
            .map(|f| (f.extent.0, f.extent.1))
            .collect();
        extents.sort();
        let mut covered = 0;
        for (off, len) in extents {
            if off > covered {
                return false;
            }
            covered = covered.max(off + len);
        }
        covered >= end
    }
}

fn reference(records: &[PacketRecord]) -> Vec<RefGroup> {
    let mut groups: Vec<RefGroup> = Vec::new();
    for r in records {
        let key = r.packet.datagram_key();
        let i = match groups.iter().position(|g| g.key == key) {
            Some(i) => i,
            None => {
                groups.push(RefGroup {
                    key,
                    frames: Vec::new(),
                    player: None,
                    buffering: false,
                });
                groups.len() - 1
            }
        };
        let g = &mut groups[i];
        g.frames.push(RefFrame {
            time: r.time_secs(),
            len: r.wire_len,
            extent: (
                r.packet.fragment_offset_bytes(),
                r.packet.payload.len(),
                r.packet.more_fragments,
            ),
        });
        if g.player.is_none() {
            g.player = r.media.map(|m| m.player);
        }
        g.buffering |= r.media.is_some_and(|m| m.buffering);
    }
    groups
}

/// Everything observable about one group, frames included.
type View = (
    (Ipv4Addr, Ipv4Addr, u8, u16),
    f64,
    f64,
    usize,
    usize,
    Option<PlayerId>,
    bool,
    bool,
    Vec<Frame>,
);

fn view(groups: &FragmentGroups) -> Vec<View> {
    groups
        .groups()
        .iter()
        .map(|g| {
            (
                g.key,
                g.first_time,
                g.last_time,
                g.packets,
                g.wire_bytes,
                g.player,
                g.buffering,
                g.is_complete(),
                groups.frames(g).to_vec(),
            )
        })
        .collect()
}

fn reference_view(groups: &[RefGroup]) -> Vec<View> {
    groups
        .iter()
        .map(|g| {
            let t0 = g.frames[0].time;
            (
                g.key,
                g.frames.iter().fold(t0, |a, f| a.min(f.time)),
                g.frames.iter().fold(t0, |a, f| a.max(f.time)),
                g.frames.len(),
                g.frames.iter().map(|f| f.len).sum(),
                g.player,
                g.buffering,
                g.is_complete(),
                g.frames
                    .iter()
                    .map(|f| Frame {
                        time: f.time,
                        len: f.len,
                    })
                    .collect(),
            )
        })
        .collect()
}

fn reference_stats(groups: &[RefGroup]) -> FragmentationStats {
    let mut s = FragmentationStats {
        groups: groups.len(),
        ..Default::default()
    };
    for g in groups {
        s.total_packets += g.frames.len();
        if g.frames.len() > 1 {
            s.fragment_packets += g.frames.len() - 1;
            s.fragmented_groups += 1;
        }
    }
    s
}

/// One UDP datagram: no media header (`player` 0), or a RealPlayer (1)
/// or MediaPlayer (2) header. A small identification range makes
/// distinct datagrams share a key now and then.
fn datagram(
    seq: u32,
    (player, buffering, padding, ident, server): (u8, bool, usize, u16, usize),
) -> Ipv4Packet {
    let app = match player {
        0 => Bytes::from(vec![0u8; padding]),
        p => MediaHeader {
            player: if p == 1 {
                PlayerId::RealPlayer
            } else {
                PlayerId::MediaPlayer
            },
            sequence: seq,
            frame_number: seq,
            media_time_ms: seq * 100,
            buffering,
        }
        .encode_with_padding(padding),
    };
    let udp = UdpDatagram::new(1755, 7000, app)
        .encode(SERVERS[server], CLIENT)
        .unwrap();
    Ipv4Packet::new(SERVERS[server], CLIENT, IpProtocol::Udp, ident, udp)
}

/// Fragment every datagram, then per fragment: drop it (op 0),
/// duplicate it (op 1), add an overlapping copy shifted down and cut
/// in half (op 2), or keep it. Each record gets its own arrival time,
/// unrelated to its position, and the records are shuffled by `order`.
fn capture(
    datagrams: &[(u8, bool, usize, u16, usize)],
    mtu: usize,
    ops: &[(u8, u64, u64, u16)],
) -> Vec<PacketRecord> {
    let fragments: Vec<Ipv4Packet> = datagrams
        .iter()
        .enumerate()
        .flat_map(|(i, &d)| fragment(datagram(i as u32, d), mtu).unwrap())
        .collect();
    let mut out: Vec<(u64, PacketRecord)> = Vec::new();
    let mut push = |order: u64, ns: u64, p: &Ipv4Packet| {
        out.push((order, PacketRecord::dissect(SimTime(ns), Direction::Rx, p)));
    };
    for (i, f) in fragments.iter().enumerate() {
        let (op, ns, order, shift) = ops[i % ops.len()];
        match op {
            0 => {}
            1 => {
                push(order, ns, f);
                push(order.rotate_left(17), ns + 1_000, f);
            }
            2 => {
                push(order, ns, f);
                let mut overlap = f.clone();
                overlap.fragment_offset = f.fragment_offset.saturating_sub(shift);
                overlap.payload = f.payload.slice(..f.payload.len() / 2);
                push(order.rotate_left(31), ns + 500, &overlap);
            }
            _ => push(order, ns, f),
        }
    }
    out.sort_by_key(|(order, _)| *order);
    out.into_iter().map(|(_, r)| r).collect()
}

fn arb_datagrams() -> impl Strategy<Value = Vec<(u8, bool, usize, u16, usize)>> {
    proptest::collection::vec(
        (0u8..3, any::<bool>(), 0usize..4000, 0u16..6, 0usize..2),
        0..10,
    )
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u64, u16)>> {
    proptest::collection::vec((0u8..8, 0u64..5_000_000_000, any::<u64>(), 0u16..4), 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Groups, their order, each group's frames in arrival order,
    /// completeness, statistics and leader gaps all equal the naive
    /// reference grouping's.
    #[test]
    fn flat_build_matches_the_reference(
        datagrams in arb_datagrams(),
        mtu_choice: bool,
        ops in arb_ops(),
    ) {
        let mtu = if mtu_choice { 1500 } else { 576 };
        let records = capture(&datagrams, mtu, &ops);
        let built = FragmentGroups::build(records.iter());
        let expected = reference(&records);

        prop_assert_eq!(view(&built), reference_view(&expected));
        prop_assert_eq!(built.stats(), reference_stats(&expected));
        prop_assert_eq!(
            built.incomplete_groups(),
            expected.iter().filter(|g| !g.is_complete()).count()
        );
        let leaders: Vec<f64> = expected
            .iter()
            .map(|g| g.frames.iter().fold(g.frames[0].time, |a, f| a.min(f.time)))
            .collect();
        prop_assert_eq!(built.group_leader_times(), leaders.clone());
        let gaps: Vec<f64> = leaders.windows(2).map(|w| w[1] - w[0]).collect();
        prop_assert_eq!(built.group_interarrivals(), gaps);
    }

    /// `into_players` hands each player exactly the groups whose media
    /// header names it, in order, with their own frames.
    #[test]
    fn into_players_equals_filtering_on_player(
        datagrams in arb_datagrams(),
        mtu_choice: bool,
        ops in arb_ops(),
    ) {
        let mtu = if mtu_choice { 1500 } else { 576 };
        let records = capture(&datagrams, mtu, &ops);
        let all = view(&FragmentGroups::build(records.iter()));
        let [real, wmp] = FragmentGroups::build(records.iter()).into_players();
        for (split, player) in [(real, PlayerId::RealPlayer), (wmp, PlayerId::MediaPlayer)] {
            let filtered: Vec<View> =
                all.iter().filter(|v| v.5 == Some(player)).cloned().collect();
            prop_assert_eq!(view(&split), filtered);
        }
    }
}
