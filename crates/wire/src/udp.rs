//! UDP datagrams with the IPv4 pseudo-header checksum.

use crate::checksum::Checksum;
use crate::error::WireError;
use crate::ipv4::IpProtocol;
use bytes::{Bytes, BytesMut};
use std::net::Ipv4Addr;

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram. The checksum is computed over the IPv4 pseudo-header,
/// so encoding and decoding take the enclosing addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Construct a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Total UDP length (header + payload).
    pub fn len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// True when the payload is empty (header-only datagram).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Serialise with a pseudo-header checksum for `src`/`dst`.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Result<Bytes, WireError> {
        Self::encode_with(
            self.src_port,
            self.dst_port,
            self.payload.len(),
            src,
            dst,
            |payload| payload.copy_from_slice(&self.payload),
        )
    }

    /// Serialise a datagram whose payload the caller writes in place:
    /// the header goes into a zeroed buffer of the datagram's final
    /// size, `fill` writes the `payload_len` payload bytes after it,
    /// and the pseudo-header checksum over the result is patched into
    /// the header. One allocation, and each byte written once, so a
    /// sender builds its payload straight into the shared buffer the
    /// network carries.
    pub fn encode_with(
        src_port: u16,
        dst_port: u16,
        payload_len: usize,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<Bytes, WireError> {
        let total = UDP_HEADER_LEN + payload_len;
        if total > usize::from(u16::MAX) {
            return Err(WireError::Oversize {
                what: "udp",
                limit: usize::from(u16::MAX),
                got: total,
            });
        }
        let len = total as u16;
        let mut buf = BytesMut::zeroed(total);
        let (header, payload) = buf.split_at_mut(UDP_HEADER_LEN);
        header[0..2].copy_from_slice(&src_port.to_be_bytes());
        header[2..4].copy_from_slice(&dst_port.to_be_bytes());
        header[4..6].copy_from_slice(&len.to_be_bytes());
        fill(payload);
        let mut csum = Checksum::new();
        csum.push_addr(src);
        csum.push_addr(dst);
        csum.push_u16(u16::from(IpProtocol::Udp.as_u8()));
        csum.push_u16(len);
        csum.push(&buf);
        let mut value = csum.value();
        if value == 0 {
            // RFC 768: an all-zero computed checksum is transmitted as
            // all ones; zero on the wire means "no checksum".
            value = 0xffff;
        }
        buf[6..8].copy_from_slice(&value.to_be_bytes());
        Ok(buf.freeze())
    }

    /// Parse and verify a datagram transmitted between `src` and `dst`.
    pub fn decode(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, WireError> {
        let (src_port, dst_port, len) = Self::parse_header(data, src, dst)?;
        Ok(UdpDatagram {
            src_port,
            dst_port,
            payload: Bytes::copy_from_slice(&data[UDP_HEADER_LEN..len]),
        })
    }

    /// Zero-copy [`UdpDatagram::decode`]: the payload is a refcounted
    /// slice of `data`, not a fresh allocation. Used on the delivery
    /// hot path, where the datagram bytes already live in a shared
    /// buffer.
    pub fn decode_shared(data: &Bytes, src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, WireError> {
        let (src_port, dst_port, len) = Self::parse_header(data, src, dst)?;
        Ok(UdpDatagram {
            src_port,
            dst_port,
            payload: data.slice(UDP_HEADER_LEN..len),
        })
    }

    /// Shared validation: header bounds, stored length, pseudo-header
    /// checksum. Returns `(src_port, dst_port, datagram_len)`.
    fn parse_header(
        data: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<(u16, u16, usize), WireError> {
        if data.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated {
                what: "udp",
                need: UDP_HEADER_LEN,
                got: data.len(),
            });
        }
        let len = usize::from(u16::from_be_bytes([data[4], data[5]]));
        if len < UDP_HEADER_LEN || len > data.len() {
            return Err(WireError::Malformed {
                what: "udp",
                field: "length",
            });
        }
        let stored = u16::from_be_bytes([data[6], data[7]]);
        if stored != 0 {
            let mut csum = Checksum::new();
            csum.push_addr(src);
            csum.push_addr(dst);
            csum.push_u16(u16::from(IpProtocol::Udp.as_u8()));
            csum.push_u16(len as u16);
            csum.push(&data[..len]);
            if csum.value() != 0 {
                return Err(WireError::BadChecksum { what: "udp" });
            }
        }
        let src_port = u16::from_be_bytes([data[0], data[1]]);
        let dst_port = u16::from_be_bytes([data[2], data[3]]);
        Ok((src_port, dst_port, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(130, 215, 36, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(204, 71, 200, 33);

    #[test]
    fn roundtrip() {
        let d = UdpDatagram::new(7070, 1755, Bytes::from_static(b"media data"));
        let encoded = d.encode(SRC, DST).unwrap();
        assert_eq!(encoded.len(), d.len());
        let e = UdpDatagram::decode(&encoded, SRC, DST).unwrap();
        assert_eq!(d, e);
    }

    #[test]
    fn decode_shared_borrows_the_encoded_buffer() {
        let d = UdpDatagram::new(7070, 1755, Bytes::from_static(b"media data"));
        let encoded = d.encode(SRC, DST).unwrap();
        let e = UdpDatagram::decode_shared(&encoded, SRC, DST).unwrap();
        assert_eq!(d, e);
        // The payload aliases the encoded buffer instead of copying.
        let base = encoded.as_ref().as_ptr() as usize;
        let payload = e.payload.as_ref().as_ptr() as usize;
        assert_eq!(payload, base + UDP_HEADER_LEN);
    }

    /// A datagram built by hand with a naive 16-bit big-endian RFC 1071
    /// sum, sharing no code with the encoder.
    fn reference(src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        let len = (UDP_HEADER_LEN + payload.len()) as u16;
        let mut out = Vec::new();
        for word in [src_port, dst_port, len, 0] {
            out.extend_from_slice(&word.to_be_bytes());
        }
        out.extend_from_slice(payload);
        let mut pseudo = Vec::new();
        pseudo.extend_from_slice(&SRC.octets());
        pseudo.extend_from_slice(&DST.octets());
        pseudo.extend_from_slice(&[0, 17]);
        pseudo.extend_from_slice(&len.to_be_bytes());
        pseudo.extend_from_slice(&out);
        if pseudo.len() % 2 == 1 {
            pseudo.push(0);
        }
        let mut sum: u32 = pseudo
            .chunks_exact(2)
            .map(|w| u32::from(u16::from_be_bytes([w[0], w[1]])))
            .sum();
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        let value = match !(sum as u16) {
            0 => 0xffff,
            v => v,
        };
        out[6..8].copy_from_slice(&value.to_be_bytes());
        out
    }

    #[test]
    fn in_place_encode_equals_encode_and_the_reference() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut zero_sums = 0;
        for round in 0..400 {
            let (src_port, dst_port) = (next() as u16, next() as u16);
            let mut payload: Vec<u8> = (0..next() % 1500).map(|_| next() as u8).collect();
            if round % 4 == 0 {
                // Make the computed checksum zero: an even-length
                // payload whose last word cancels the rest of the sum.
                payload.extend_from_slice(&[0, 0]);
                if payload.len() % 2 == 1 {
                    payload.insert(0, 0);
                }
                let sent = reference(src_port, dst_port, &payload);
                let n = payload.len();
                payload[n - 2..].copy_from_slice(&sent[6..8]);
            }
            let want = reference(src_port, dst_port, &payload);
            zero_sums += usize::from(round % 4 == 0 && want[6..8] == [0xff, 0xff]);
            let encoded = UdpDatagram::new(src_port, dst_port, Bytes::from(payload.clone()))
                .encode(SRC, DST)
                .unwrap();
            let in_place =
                UdpDatagram::encode_with(src_port, dst_port, payload.len(), SRC, DST, |buf| {
                    for (b, p) in buf.iter_mut().zip(&payload) {
                        *b = *p;
                    }
                })
                .unwrap();
            assert_eq!(in_place[..], want[..], "round {round}");
            assert_eq!(encoded, in_place, "round {round}");
            assert!(UdpDatagram::decode(&in_place, SRC, DST).is_ok());
        }
        assert_eq!(zero_sums, 100, "every fourth datagram sums to zero");
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"xyz"));
        let mut encoded = d.encode(SRC, DST).unwrap().to_vec();
        *encoded.last_mut().unwrap() ^= 0x01;
        assert_eq!(
            UdpDatagram::decode(&encoded, SRC, DST).unwrap_err(),
            WireError::BadChecksum { what: "udp" }
        );
    }

    #[test]
    fn wrong_pseudo_header_fails_checksum() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"xyz"));
        let encoded = d.encode(SRC, DST).unwrap();
        let other = Ipv4Addr::new(10, 0, 0, 1);
        assert_eq!(
            UdpDatagram::decode(&encoded, SRC, other).unwrap_err(),
            WireError::BadChecksum { what: "udp" }
        );
    }

    #[test]
    fn zero_checksum_means_unchecked() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"xyz"));
        let mut encoded = d.encode(SRC, DST).unwrap().to_vec();
        encoded[6] = 0;
        encoded[7] = 0;
        // Decodes fine even against the wrong pseudo-header.
        let other = Ipv4Addr::new(10, 0, 0, 1);
        let e = UdpDatagram::decode(&encoded, SRC, other).unwrap();
        assert_eq!(e.payload, d.payload);
    }

    #[test]
    fn empty_payload() {
        let d = UdpDatagram::new(9, 9, Bytes::new());
        assert!(d.is_empty());
        let e = UdpDatagram::decode(&d.encode(SRC, DST).unwrap(), SRC, DST).unwrap();
        assert!(e.is_empty());
    }

    #[test]
    fn rejects_truncated() {
        assert!(matches!(
            UdpDatagram::decode(&[0u8; 7], SRC, DST).unwrap_err(),
            WireError::Truncated { what: "udp", .. }
        ));
    }

    #[test]
    fn rejects_bad_length_field() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"abcdef"));
        let mut encoded = d.encode(SRC, DST).unwrap().to_vec();
        encoded[4] = 0xff;
        encoded[5] = 0xff; // declared length far beyond the buffer
        assert!(matches!(
            UdpDatagram::decode(&encoded, SRC, DST).unwrap_err(),
            WireError::Malformed {
                field: "length",
                ..
            }
        ));
    }

    #[test]
    fn rejects_oversize_payload() {
        let d = UdpDatagram::new(1, 2, Bytes::from(vec![0u8; 65536]));
        assert!(matches!(
            d.encode(SRC, DST).unwrap_err(),
            WireError::Oversize { what: "udp", .. }
        ));
    }
}
