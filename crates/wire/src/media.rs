//! The application-layer media header carried inside every streaming
//! UDP payload in the simulation.
//!
//! The real players use proprietary framing (MMS/WMS for MediaPlayer,
//! RDT for RealPlayer); the trackers in the paper read sequence and
//! frame statistics out of the player SDKs instead of the wire. Our
//! substitute puts the minimum fields the trackers need — player id,
//! packet sequence number, media frame number, media timestamp — into a
//! fixed 20-byte header at the start of each datagram, padded out to
//! the desired packet size with deterministic filler.

use crate::error::WireError;
use bytes::{Bytes, BytesMut};

/// Length of the media header.
pub const MEDIA_HEADER_LEN: usize = 20;

/// Magic tag so stray traffic is never misparsed as media.
const MAGIC: u16 = 0x7541; // "uA" for turbulence Analysis

/// Which player model produced a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlayerId {
    /// Windows MediaPlayer model.
    MediaPlayer,
    /// RealPlayer model.
    RealPlayer,
}

impl PlayerId {
    fn as_u8(self) -> u8 {
        match self {
            PlayerId::MediaPlayer => 0,
            PlayerId::RealPlayer => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(PlayerId::MediaPlayer),
            1 => Ok(PlayerId::RealPlayer),
            _ => Err(WireError::Malformed {
                what: "media",
                field: "player",
            }),
        }
    }

    /// Short label used in reports ("WMP" / "Real").
    pub fn label(self) -> &'static str {
        match self {
            PlayerId::MediaPlayer => "WMP",
            PlayerId::RealPlayer => "Real",
        }
    }
}

/// The media header prepended to every streaming payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaHeader {
    /// Producing player model.
    pub player: PlayerId,
    /// Monotone per-stream packet sequence number.
    pub sequence: u32,
    /// Media frame this packet carries (several packets may share one
    /// frame; one MediaPlayer application frame may span many packets).
    pub frame_number: u32,
    /// Media timestamp in milliseconds from the start of the clip.
    pub media_time_ms: u32,
    /// True while the server is in its initial-buffering phase —
    /// lets the analysis separate buffering from steady playout
    /// (Figures 10 and 11) exactly as the paper inferred it from
    /// bandwidth-over-time.
    pub buffering: bool,
}

impl MediaHeader {
    /// Serialise header followed by `padding` bytes of filler so the
    /// total application payload is `MEDIA_HEADER_LEN + padding`.
    pub fn encode_with_padding(&self, padding: usize) -> Bytes {
        let mut buf = BytesMut::zeroed(MEDIA_HEADER_LEN + padding);
        self.write_with_padding(&mut buf);
        buf.freeze()
    }

    /// Write the header into the front of `buf` and filler into the
    /// rest, so `buf` is the whole application payload. Senders call
    /// this on the payload of the datagram they are encoding, so each
    /// byte is written once, in its final place.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than [`MEDIA_HEADER_LEN`].
    pub fn write_with_padding(&self, buf: &mut [u8]) {
        let (header, fill) = buf.split_at_mut(MEDIA_HEADER_LEN);
        header[0..2].copy_from_slice(&MAGIC.to_be_bytes());
        header[2] = self.player.as_u8();
        header[3] = u8::from(self.buffering);
        header[4..8].copy_from_slice(&self.sequence.to_be_bytes());
        header[8..12].copy_from_slice(&self.frame_number.to_be_bytes());
        header[12..16].copy_from_slice(&self.media_time_ms.to_be_bytes());
        header[16..20].copy_from_slice(&(fill.len() as u32).to_be_bytes());
        // Deterministic filler derived from the sequence number, so
        // payload bytes differ across packets (checksums exercise real
        // data) without any RNG. Byte `i` is
        // `(seed + i) >> (i % 4 * 8)`; this is the hottest loop in a
        // streaming run (every payload byte of every datagram passes
        // through it), so each four-byte group at `i` is one
        // little-endian word whose byte `k` is byte `k` of
        // `seed + i + k`.
        let seed = self.sequence.wrapping_mul(0x9e37_79b9);
        let mut groups = fill.chunks_exact_mut(4);
        let mut i = 0u32;
        for group in &mut groups {
            let s = seed.wrapping_add(i);
            let word = (s & 0xff)
                | (s.wrapping_add(1) & 0xff00)
                | (s.wrapping_add(2) & 0xff_0000)
                | (s.wrapping_add(3) & 0xff00_0000);
            group.copy_from_slice(&word.to_le_bytes());
            i = i.wrapping_add(4);
        }
        for (j, byte) in groups.into_remainder().iter_mut().enumerate() {
            let i = i as usize + j;
            *byte = (seed.wrapping_add(i as u32) >> (i % 4 * 8)) as u8;
        }
    }

    /// Parse the header from the front of a payload.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        if data.len() < MEDIA_HEADER_LEN {
            return Err(WireError::Truncated {
                what: "media",
                need: MEDIA_HEADER_LEN,
                got: data.len(),
            });
        }
        if u16::from_be_bytes([data[0], data[1]]) != MAGIC {
            return Err(WireError::Malformed {
                what: "media",
                field: "magic",
            });
        }
        let declared_padding =
            u32::from_be_bytes([data[16], data[17], data[18], data[19]]) as usize;
        if MEDIA_HEADER_LEN + declared_padding != data.len() {
            return Err(WireError::Malformed {
                what: "media",
                field: "padding_len",
            });
        }
        Ok(MediaHeader {
            player: PlayerId::from_u8(data[2])?,
            buffering: data[3] != 0,
            sequence: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            frame_number: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            media_time_ms: u32::from_be_bytes([data[12], data[13], data[14], data[15]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> MediaHeader {
        MediaHeader {
            player: PlayerId::RealPlayer,
            sequence: 1234,
            frame_number: 56,
            media_time_ms: 7890,
            buffering: true,
        }
    }

    #[test]
    fn roundtrip_with_padding() {
        let h = header();
        for padding in [0usize, 1, 100, 1452] {
            let bytes = h.encode_with_padding(padding);
            assert_eq!(bytes.len(), MEDIA_HEADER_LEN + padding);
            assert_eq!(MediaHeader::decode(&bytes).unwrap(), h);
        }
    }

    #[test]
    fn padding_filler_matches_the_per_byte_definition() {
        // The word-wide fill must reproduce `(seed + i) >> (i % 4 * 8)`
        // exactly, including the non-multiple-of-four tails and the
        // carries out of every byte, which many sequences reach.
        for sequence in (0..2000).chain([u32::MAX - 1, u32::MAX]) {
            let h = MediaHeader {
                sequence,
                ..header()
            };
            let seed = sequence.wrapping_mul(0x9e37_79b9);
            let paddings: &[usize] = if sequence == 1234 {
                &[0, 1, 2, 3, 4, 5, 63, 64, 65, 1452]
            } else {
                &[67]
            };
            for &padding in paddings {
                let bytes = h.encode_with_padding(padding);
                for i in 0..padding {
                    assert_eq!(
                        bytes[MEDIA_HEADER_LEN + i],
                        (seed.wrapping_add(i as u32) >> (i % 4 * 8)) as u8,
                        "sequence {sequence} padding {padding} byte {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn write_with_padding_fills_a_buffer_like_encode() {
        let h = header();
        for padding in [0usize, 3, 700] {
            let mut buf = vec![0xaau8; MEDIA_HEADER_LEN + padding];
            h.write_with_padding(&mut buf);
            assert_eq!(buf[..], h.encode_with_padding(padding)[..]);
        }
    }

    #[test]
    fn players_roundtrip() {
        for p in [PlayerId::MediaPlayer, PlayerId::RealPlayer] {
            let mut h = header();
            h.player = p;
            let bytes = h.encode_with_padding(4);
            assert_eq!(MediaHeader::decode(&bytes).unwrap().player, p);
        }
        assert_eq!(PlayerId::MediaPlayer.label(), "WMP");
        assert_eq!(PlayerId::RealPlayer.label(), "Real");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = header().encode_with_padding(4).to_vec();
        bytes[0] = 0;
        assert!(matches!(
            MediaHeader::decode(&bytes).unwrap_err(),
            WireError::Malformed { field: "magic", .. }
        ));
    }

    #[test]
    fn rejects_truncated() {
        let bytes = header().encode_with_padding(0);
        assert!(MediaHeader::decode(&bytes[..MEDIA_HEADER_LEN - 1]).is_err());
    }

    #[test]
    fn rejects_inconsistent_padding_length() {
        let mut bytes = header().encode_with_padding(8).to_vec();
        bytes.truncate(MEDIA_HEADER_LEN + 4);
        assert!(matches!(
            MediaHeader::decode(&bytes).unwrap_err(),
            WireError::Malformed {
                field: "padding_len",
                ..
            }
        ));
    }

    #[test]
    fn filler_differs_across_sequences() {
        let mut a = header();
        a.sequence = 1;
        let mut b = header();
        b.sequence = 2;
        assert_ne!(
            a.encode_with_padding(64)[MEDIA_HEADER_LEN..],
            b.encode_with_padding(64)[MEDIA_HEADER_LEN..]
        );
    }
}
