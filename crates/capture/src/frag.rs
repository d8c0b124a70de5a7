//! Ethereal-style fragment-group analysis (§3.C, Figures 4, 5 and 9).
//!
//! "Further investigation of the packet types using Ethereal reveals
//! that each packet group is composed of one UDP packet and the
//! remaining packets are IP fragments." In Ethereal's display, the
//! frame that completes reassembly is shown as UDP and all other
//! frames of the datagram show as `Fragmented IP protocol` — so a
//! datagram split into *n* frames contributes *n − 1* "IP fragment"
//! packets. That convention is what makes a 3-fragment MediaPlayer
//! group read as "66 % of packets are IP fragments".

use crate::record::PacketRecord;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use turb_wire::media::PlayerId;

/// One captured frame of a datagram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Arrival time, seconds.
    pub time: f64,
    /// Wire length, bytes (Ethernet framing included).
    pub len: usize,
}

/// One datagram's worth of captured frames (usually one MediaPlayer
/// application frame). The frames themselves live in the owning
/// [`FragmentGroups`]; see [`FragmentGroups::frames`].
#[derive(Debug, Clone)]
pub struct Group {
    /// The datagram key: (src, dst, protocol, identification).
    pub key: (Ipv4Addr, Ipv4Addr, u8, u16),
    /// Arrival time of the group's first frame, seconds.
    pub first_time: f64,
    /// Arrival time of the group's last frame, seconds.
    pub last_time: f64,
    /// Number of frames in the group (1 = unfragmented).
    pub packets: usize,
    /// Total wire bytes across the group.
    pub wire_bytes: usize,
    /// The player that produced the datagram, when a media header was
    /// visible on any of its frames (separates the two simultaneous
    /// streams of the paper's methodology).
    pub player: Option<PlayerId>,
    /// Whether the datagram was flagged as buffering-phase traffic.
    pub buffering: bool,
    /// Index of the group's first frame in its owner's frame table.
    start: usize,
    /// Whether the fragments seen reassemble (see [`Group::is_complete`]).
    complete: bool,
}

impl Group {
    /// Would this group reassemble? True iff a final fragment arrived
    /// and the payload bytes cover `[0, end)` without holes — the same
    /// test a host's reassembler applies, so incomplete groups here
    /// correspond one-to-one with reassembly timeout discards.
    /// Computed once, when the groups are built.
    pub fn is_complete(&self) -> bool {
        self.complete
    }
}

/// Aggregate fragmentation statistics for a capture slice — the data
/// behind Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FragmentationStats {
    /// Total frames observed.
    pub total_packets: usize,
    /// Frames Ethereal would display as IP fragments
    /// (group size − 1 per multi-frame group).
    pub fragment_packets: usize,
    /// Number of datagram groups.
    pub groups: usize,
    /// Groups with more than one frame.
    pub fragmented_groups: usize,
}

impl FragmentationStats {
    /// Fragment share of all frames: Figure 5's y-axis.
    pub fn fragment_fraction(&self) -> f64 {
        if self.total_packets == 0 {
            0.0
        } else {
            self.fragment_packets as f64 / self.total_packets as f64
        }
    }
}

/// Groups a capture slice into datagrams.
///
/// Flat layout: one table of groups in order of first appearance and
/// one table of frames, where each group's frames sit contiguously in
/// arrival order. Building allocates those two tables, not a vector
/// per datagram.
#[derive(Debug, Clone, Default)]
pub struct FragmentGroups {
    groups: Vec<Group>,
    frames: Vec<Frame>,
}

impl FragmentGroups {
    /// Group records (already filtered to the stream of interest) by
    /// datagram. Records of the same datagram need not be adjacent.
    pub fn build<'a>(records: impl IntoIterator<Item = &'a PacketRecord>) -> FragmentGroups {
        let records = records.into_iter();
        let hint = records.size_hint().0;
        // Pass 1: give each record its group index (groups numbered in
        // order of first appearance) and fold the per-group scalars.
        // Each record's frame and fragment extent (payload offset,
        // payload length, more-fragments flag) wait in arrival order.
        let mut index: HashMap<(Ipv4Addr, Ipv4Addr, u8, u16), u32> = HashMap::with_capacity(hint);
        let mut groups: Vec<Group> = Vec::new();
        let mut arrivals: Vec<(u32, Frame, (usize, usize, bool))> = Vec::with_capacity(hint);
        for r in records {
            let key = r.packet.datagram_key();
            let t = r.time_secs();
            let gi = *index.entry(key).or_insert_with(|| {
                groups.push(Group {
                    key,
                    first_time: t,
                    last_time: t,
                    packets: 0,
                    wire_bytes: 0,
                    player: None,
                    buffering: false,
                    start: 0,
                    complete: false,
                });
                u32::try_from(groups.len() - 1).expect("fewer than 2^32 datagrams")
            });
            let g = &mut groups[gi as usize];
            g.packets += 1;
            g.wire_bytes += r.wire_len;
            g.first_time = g.first_time.min(t);
            g.last_time = g.last_time.max(t);
            if g.player.is_none() {
                g.player = r.media.map(|m| m.player);
            }
            g.buffering |= r.media.is_some_and(|m| m.buffering);
            arrivals.push((
                gi,
                Frame {
                    time: t,
                    len: r.wire_len,
                },
                (
                    r.packet.fragment_offset_bytes(),
                    r.packet.payload.len(),
                    r.packet.more_fragments,
                ),
            ));
        }

        // Pass 2: counting sort. Point each group's `start` one past its
        // slot range, then place arrivals back to front, decrementing:
        // frames keep arrival order within a group, and every `start`
        // ends on the group's first slot.
        let mut end = 0;
        for g in &mut groups {
            end += g.packets;
            g.start = end;
        }
        let mut frames = vec![Frame { time: 0.0, len: 0 }; arrivals.len()];
        let mut extents = vec![(0, 0, false); arrivals.len()];
        for (gi, frame, extent) in arrivals.into_iter().rev() {
            let g = &mut groups[gi as usize];
            g.start -= 1;
            frames[g.start] = frame;
            extents[g.start] = extent;
        }
        for g in &mut groups {
            g.complete = covers(&mut extents[g.start..g.start + g.packets]);
        }
        FragmentGroups { groups, frames }
    }

    /// The groups, in order of first appearance.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The frames of `group` (one of [`FragmentGroups::groups`]), in
    /// arrival order.
    pub fn frames(&self, group: &Group) -> &[Frame] {
        &self.frames[group.start..group.start + group.packets]
    }

    /// Aggregate statistics (Figure 5).
    pub fn stats(&self) -> FragmentationStats {
        let mut s = FragmentationStats {
            groups: self.groups.len(),
            ..Default::default()
        };
        for g in &self.groups {
            s.total_packets += g.packets;
            if g.packets > 1 {
                s.fragment_packets += g.packets - 1;
                s.fragmented_groups += 1;
            }
        }
        s
    }

    /// Groups that would NOT reassemble (missing or holed fragments) —
    /// the sniffer-side mirror of the hosts' reassembly timeout
    /// discards.
    pub fn incomplete_groups(&self) -> usize {
        self.groups.iter().filter(|g| !g.is_complete()).count()
    }

    /// First-frame arrival times per group, for interarrival analysis
    /// with fragment noise removed: "we consider only the first UDP
    /// packet in each packet group" (§3.E, Figure 9).
    pub fn group_leader_times(&self) -> Vec<f64> {
        self.groups.iter().map(|g| g.first_time).collect()
    }

    /// Interarrival gaps between group leaders.
    pub fn group_interarrivals(&self) -> Vec<f64> {
        // Stream over the groups directly; no intermediate times vector.
        self.groups
            .windows(2)
            .map(|w| w[1].first_time - w[0].first_time)
            .collect()
    }

    /// Split into the groups attributable to each player by visible
    /// media headers, `[RealPlayer, MediaPlayer]`; groups with no
    /// media header on any frame belong to neither. Moves the groups
    /// and copies each frame once.
    pub fn into_players(self) -> [FragmentGroups; 2] {
        let slot = |p: PlayerId| match p {
            PlayerId::RealPlayer => 0,
            PlayerId::MediaPlayer => 1,
        };
        // Size both outputs exactly up front: a run's memo keeps them
        // for as long as the run, so growth slack would be held too.
        let mut sizes = [(0, 0); 2];
        for g in &self.groups {
            if let Some(p) = g.player {
                sizes[slot(p)].0 += 1;
                sizes[slot(p)].1 += g.packets;
            }
        }
        let mut out = sizes.map(|(groups, frames)| FragmentGroups {
            groups: Vec::with_capacity(groups),
            frames: Vec::with_capacity(frames),
        });
        let FragmentGroups { groups, frames } = self;
        for mut g in groups {
            let Some(p) = g.player else { continue };
            let dst = &mut out[slot(p)];
            let own = &frames[g.start..g.start + g.packets];
            g.start = dst.frames.len();
            dst.frames.extend_from_slice(own);
            dst.groups.push(g);
        }
        out
    }
}

/// The reassembly test behind [`Group::is_complete`], over one group's
/// fragment extents (payload offset, payload length, more-fragments
/// flag) in arrival order. Sorts `extents` in place.
fn covers(extents: &mut [(usize, usize, bool)]) -> bool {
    let Some(end) = extents
        .iter()
        .find(|(_, _, more)| !more)
        .map(|(off, len, _)| off + len)
    else {
        return false;
    };
    extents.sort_unstable();
    let mut covered = 0usize;
    for &(off, len, _) in extents.iter() {
        if off > covered {
            return false; // hole
        }
        covered = covered.max(off + len);
    }
    covered >= end
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use turb_netsim::{Direction, SimTime};
    use turb_wire::frag::fragment;
    use turb_wire::ipv4::{IpProtocol, Ipv4Packet};

    const SRC: Ipv4Addr = Ipv4Addr::new(204, 71, 0, 33);
    const DST: Ipv4Addr = Ipv4Addr::new(130, 215, 36, 10);

    fn records_for(payloads: &[usize], spacing_ms: u64) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        let mut t = 0u64;
        for (i, &len) in payloads.iter().enumerate() {
            let p = Ipv4Packet::new(
                SRC,
                DST,
                IpProtocol::Udp,
                i as u16,
                Bytes::from(vec![0u8; len]),
            );
            for f in fragment(p, 1500).unwrap() {
                out.push(PacketRecord::dissect(
                    SimTime(t * 1_000_000),
                    Direction::Rx,
                    &f,
                ));
                t += 1; // fragments 1 ms apart
            }
            t += spacing_ms;
        }
        out
    }

    #[test]
    fn three_fragment_groups_give_the_papers_66_percent() {
        // ~3.8 KB application frames, like a 300 Kbit/s MediaPlayer clip.
        let records = records_for(&[3848, 3848, 3848, 3848], 100);
        let groups = FragmentGroups::build(records.iter());
        let stats = groups.stats();
        assert_eq!(stats.groups, 4);
        assert_eq!(stats.fragmented_groups, 4);
        assert_eq!(stats.total_packets, 12);
        assert_eq!(stats.fragment_packets, 8);
        assert!((stats.fragment_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unfragmented_traffic_reports_zero() {
        let records = records_for(&[800, 900, 1000], 100);
        let stats = FragmentGroups::build(records.iter()).stats();
        assert_eq!(stats.fragment_packets, 0);
        assert_eq!(stats.fragment_fraction(), 0.0);
        assert_eq!(stats.groups, 3);
    }

    #[test]
    fn group_leaders_strip_fragment_noise_from_interarrivals() {
        let records = records_for(&[3848, 3848, 3848], 100);
        let groups = FragmentGroups::build(records.iter());
        let gaps = groups.group_interarrivals();
        assert_eq!(gaps.len(), 2);
        for gap in &gaps {
            // Group leaders ≈103 ms apart (100 ms spacing + 3 fragment ms).
            assert!((gap - 0.103).abs() < 0.002, "gap = {gap}");
        }
        // Raw interarrivals, by contrast, mix 1 ms and ~100 ms gaps.
        let raw: Vec<f64> = records
            .windows(2)
            .map(|w| w[1].time_secs() - w[0].time_secs())
            .collect();
        assert!(raw.iter().any(|g| *g < 0.002));
    }

    #[test]
    fn frame_lengths_match_the_papers_pattern() {
        let records = records_for(&[3848], 0);
        let groups = FragmentGroups::build(records.iter());
        let g = &groups.groups()[0];
        let lens: Vec<usize> = groups.frames(g).iter().map(|f| f.len).collect();
        assert_eq!(lens[0], 1514);
        assert_eq!(lens[1], 1514);
        assert!(lens[2] < 1514);
        assert_eq!(g.wire_bytes, lens.iter().sum::<usize>());
    }

    #[test]
    fn out_of_order_fragments_still_group_correctly() {
        let mut records = records_for(&[3848, 3848], 50);
        records.swap(1, 2); // interleave fragments of the two datagrams
        let groups = FragmentGroups::build(records.iter());
        assert_eq!(groups.groups().len(), 2);
        assert!(groups.groups().iter().all(|g| g.packets == 3));
    }

    #[test]
    fn empty_capture() {
        let groups = FragmentGroups::build(std::iter::empty());
        assert_eq!(groups.stats(), FragmentationStats::default());
        assert!(groups.group_leader_times().is_empty());
    }
}
