//! CRC-64/XZ — the single content checksum used by every byte format in
//! the workspace.
//!
//! The engine's cache entries, the binary container trailer, and the
//! linter's artifact re-verification all stamp and check this exact
//! function, so a checksum mismatch means the *content* drifted, never
//! the checksum implementation.

/// CRC-64/XZ (reflected ECMA polynomial) over `bytes`. The check value
/// for `b"123456789"` is `0x995dc9bbdf1939fa`.
pub fn crc64(bytes: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut crc = !0u64;
    for &b in bytes {
        crc ^= u64::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_the_xz_check_value() {
        assert_eq!(crc64(b"123456789"), 0x995d_c9bb_df19_39fa);
        assert_eq!(crc64(b""), 0);
        assert_ne!(crc64(b"a"), crc64(b"b"));
    }

    #[test]
    fn crc64_detects_any_single_bit_flip() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc64(&data);
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc64(&flipped), clean, "bit {bit} undetected");
        }
    }
}
