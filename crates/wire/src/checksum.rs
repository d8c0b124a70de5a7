//! The Internet checksum (RFC 1071) used by IPv4, UDP and ICMP.

use std::net::Ipv4Addr;

/// Incremental one's-complement sum accumulator.
///
/// Feed it byte slices in any split — a dangling odd byte is carried
/// to the next [`Checksum::push`], so pushing a buffer in pieces gives
/// the same result as pushing it whole regardless of where the cuts
/// fall. Only at [`Checksum::value`] is a still-pending odd byte
/// zero-padded on the right, per RFC 1071.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u64,
    /// High half of a 16-bit word whose low half has not arrived yet:
    /// set when the total bytes pushed so far is odd.
    pending: Option<u8>,
}

impl Checksum {
    /// Start a fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a slice of bytes to the running sum.
    ///
    /// Hot path: this runs over every UDP payload once at encode and
    /// once at delivery. RFC 1071 §2 allows summing in any word width
    /// (every 2^16k positional weight is ≡ 1 mod 2^16−1) and in the
    /// host's byte order (§2(B): the folded sum of byte-swapped words
    /// is the byte-swapped sum). So the loop takes native-endian
    /// 32-bit words into eight independent `u64` lanes, free of a
    /// serial dependency chain, then folds them to 16 bits and swaps
    /// into big-endian order once per push. The result is exact, not
    /// just congruent: folding a nonzero sum never yields zero, so
    /// the 0x0000/0xffff distinction survives.
    pub fn push(&mut self, mut data: &[u8]) {
        if let Some(high) = self.pending.take() {
            let Some((&low, rest)) = data.split_first() else {
                self.pending = Some(high);
                return;
            };
            self.sum += u64::from(u16::from_be_bytes([high, low]));
            data = rest;
        }
        let mut lanes = [0u64; 8];
        let mut wide = data.chunks_exact(32);
        for block in &mut wide {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
                *lane += u64::from(u32::from_ne_bytes([word[0], word[1], word[2], word[3]]));
            }
        }
        let mut native: u64 = lanes.iter().sum();
        let mut words = wide.remainder().chunks_exact(2);
        for word in &mut words {
            native += u64::from(u16::from_ne_bytes([word[0], word[1]]));
        }
        if let [last] = words.remainder() {
            self.pending = Some(*last);
        }
        self.sum += u64::from(fold(native).to_be());
    }

    /// Add a single big-endian `u16` word.
    pub fn push_u16(&mut self, word: u16) {
        match self.pending {
            None => self.sum += u64::from(word),
            Some(_) => self.push(&word.to_be_bytes()),
        }
    }

    /// Add an IPv4 address (two 16-bit words).
    pub fn push_addr(&mut self, addr: Ipv4Addr) {
        self.push(&addr.octets());
    }

    /// Fold and complement the running sum into the final checksum word.
    /// A still-pending odd byte is zero-padded on the right (RFC 1071).
    pub fn value(self) -> u16 {
        let mut sum = self.sum;
        if let Some(high) = self.pending {
            sum += u64::from(u16::from_be_bytes([high, 0]));
        }
        !fold(sum)
    }
}

/// Fold a sum of 16-bit words to 16 bits with end-around carry. Zero
/// stays zero and any other sum lands in `1..=0xffff`.
fn fold(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.push(data);
    c.value()
}

/// Verify that `data`, which embeds its own checksum field, sums to a
/// valid value (the total including the stored checksum folds to zero,
/// i.e. the recomputed checksum is 0).
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // RFC gives the one's complement sum as ddf2, checksum is its complement.
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_is_zero_padded() {
        assert_eq!(checksum(&[0xab]), !0xab00);
        assert_eq!(checksum(&[0xab, 0x00]), !0xab00);
    }

    #[test]
    fn empty_slice_checksums_to_ffff() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn verify_accepts_data_with_embedded_checksum() {
        // Build a 6-byte "header" whose word 2 is the checksum.
        let mut data = [0x45, 0x00, 0x00, 0x00, 0x12, 0x34];
        let c = checksum(&data);
        data[2..4].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        // Flip a bit: must fail.
        data[5] ^= 1;
        assert!(!verify(&data));
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).collect();
        // Odd chunk size: every push but the last leaves a pending
        // byte, so this exercises the carry on every boundary.
        let mut c = Checksum::new();
        for chunk in data.chunks(7) {
            c.push(chunk);
        }
        assert_eq!(c.value(), checksum(&data));
        // Even pieces still agree.
        let mut c = Checksum::new();
        c.push(&data[..128]);
        c.push(&data[128..]);
        assert_eq!(c.value(), checksum(&data));
    }

    #[test]
    fn every_two_piece_split_matches_one_shot() {
        // Regression for the mid-stream zero-padding bug: splitting at
        // an odd boundary used to pad the first piece and shift the
        // second, yielding a different sum than the one-shot checksum.
        let data: Vec<u8> = (0..67u8).map(|i| i.wrapping_mul(151)).collect();
        let expected = checksum(&data);
        for cut in 0..=data.len() {
            let mut c = Checksum::new();
            c.push(&data[..cut]);
            c.push(&data[cut..]);
            assert_eq!(c.value(), expected, "split at {cut}");
        }
    }

    #[test]
    fn pending_byte_survives_empty_and_odd_pushes() {
        // Three odd pushes with an empty push interleaved: the carry
        // must hop across all of them.
        let data = [0xab, 0xcd, 0xef, 0x01, 0x23];
        let mut c = Checksum::new();
        c.push(&data[..1]);
        c.push(&[]);
        c.push(&data[1..2]);
        c.push(&data[2..]);
        assert_eq!(c.value(), checksum(&data));
    }

    #[test]
    fn push_u16_after_odd_push_keeps_byte_stream_semantics() {
        // push_u16 mid-stream must behave like pushing its two bytes.
        let mut a = Checksum::new();
        a.push(&[0x99]);
        a.push_u16(0x1234);
        let mut b = Checksum::new();
        b.push(&[0x99, 0x12, 0x34]);
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn wide_word_path_matches_the_16_bit_definition() {
        // Cross-check every length 0..=200 (both sides of several
        // 32-byte blocks, odd tails included) against a naive 16-bit
        // loop, as one push and as two pushes cut at an odd offset.
        for len in 0..=200usize {
            let data: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
                .collect();
            let mut naive: u32 = 0;
            let mut words = data.chunks_exact(2);
            for w in &mut words {
                naive += u32::from(u16::from_be_bytes([w[0], w[1]]));
            }
            if let [last] = words.remainder() {
                naive += u32::from(u16::from_be_bytes([*last, 0]));
            }
            let mut folded = naive;
            while folded >> 16 != 0 {
                folded = (folded & 0xffff) + (folded >> 16);
            }
            assert_eq!(checksum(&data), !(folded as u16), "len {len}");
            let cut = (len / 3) | 1;
            if cut <= len {
                let mut c = Checksum::new();
                c.push(&data[..cut]);
                c.push(&data[cut..]);
                assert_eq!(c.value(), !(folded as u16), "len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn folding_keeps_the_two_zeros_apart() {
        // A nonzero sum that is a multiple of 0xffff folds to 0xffff,
        // so its checksum is 0x0000; only all-zero data gives 0xffff.
        assert_eq!(checksum(&[0xff, 0xff]), 0x0000);
        assert_eq!(checksum(&[0xff; 64]), 0x0000);
        assert_eq!(checksum(&[0u8; 64]), 0xffff);
        let mut ones = vec![0u8; 64];
        ones[63] = 1;
        assert_eq!(checksum(&ones), !0x0001);
    }

    #[test]
    fn push_u16_equivalent_to_two_bytes() {
        let mut a = Checksum::new();
        a.push_u16(0x1234);
        let mut b = Checksum::new();
        b.push(&[0x12, 0x34]);
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn push_addr_equivalent_to_octets() {
        let addr = Ipv4Addr::new(130, 215, 36, 1);
        let mut a = Checksum::new();
        a.push_addr(addr);
        let mut b = Checksum::new();
        b.push(&addr.octets());
        assert_eq!(a.value(), b.value());
    }
}
