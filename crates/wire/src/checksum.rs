//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8.
//!
//! Protects stable-log records against torn writes and transport frames
//! against corruption. Eight 256-entry tables, computed at first use,
//! let the loop fold eight input bytes per step: `TABLES[k][b]` is the
//! CRC of byte `b` followed by `k` zero bytes.

use std::sync::OnceLock;

fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        // One more zero byte per table: advance each entry a byte.
        let t0 = t[0];
        for (i, &first) in t0.iter().enumerate() {
            let mut c = first;
            for row in t.iter_mut().skip(1) {
                c = t0[(c & 0xFF) as usize] ^ (c >> 8);
                row[i] = c;
            }
        }
        t
    })
}

/// Computes the CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// // Standard check value for the ASCII string "123456789".
/// assert_eq!(rover_wire::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in chunks.by_ref() {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][ch[4] as usize]
            ^ t[2][ch[5] as usize]
            ^ t[1][ch[6] as usize]
            ^ t[0][ch[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference: one byte per step, each folded bit by bit, so it
    /// shares no table with the code under test.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"rover stable log record".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    proptest! {
        // Every start alignment: the eight-byte steps must not care
        // where in a buffer the data begins.
        #[test]
        fn slicing_matches_bytewise(buf in proptest::collection::vec(any::<u8>(), 0..4104)) {
            for start in 0..8 {
                let data = buf.get(start..).unwrap_or(&[]);
                prop_assert_eq!(crc32(data), crc32_bytewise(data));
            }
        }
    }
}
