//! CRC-64/XZ — the single content checksum used by every byte format in
//! the workspace.
//!
//! The engine's cache entries, the binary container trailer, and the
//! linter's artifact re-verification all stamp and check this exact
//! function, so a checksum mismatch means the *content* drifted, never
//! the checksum implementation.
//!
//! `crc64` is slicing-by-8: eight 256-entry `u64` tables (16 KiB of
//! read-only data, built by a `const fn` at compile time) fold one
//! little-endian 8-byte word per step, and a byte-at-a-time loop over
//! the first table takes the last `len % 8` bytes. A warm `fleet-warm`
//! round checks its 77 tiny-scale entries (about 112 KiB) twice, once in
//! the worker and once in the coordinator. On a shared 2-thread x86-64
//! host one pass over 77 such payloads takes 0.34–0.35 ms with the
//! bit-at-a-time loop and 0.09 ms with the tables (median of 30, five
//! rounds). The bitwise loop stays in the tests as the oracle the tables
//! are checked against.

/// The reflected ECMA-182 polynomial of CRC-64/XZ.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight lookups advance
/// the register a whole word.
static TABLES: [[u64; 256]; 8] = build_tables();

const fn build_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// The table entry for byte `n` (counting from the least significant)
/// of `crc`.
#[inline(always)]
fn lookup(table: &[u64; 256], crc: u64, n: u32) -> u64 {
    table[usize::from((crc >> (8 * n)) as u8)]
}

/// CRC-64/XZ (reflected ECMA polynomial) over `bytes`. The check value
/// for `b"123456789"` is `0x995dc9bbdf1939fa`.
pub fn crc64(bytes: &[u8]) -> u64 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = !0u64;
    let mut rest = bytes;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        crc ^= u64::from_le_bytes(*word);
        crc = lookup(t7, crc, 0)
            ^ lookup(t6, crc, 1)
            ^ lookup(t5, crc, 2)
            ^ lookup(t4, crc, 3)
            ^ lookup(t3, crc, 4)
            ^ lookup(t2, crc, 5)
            ^ lookup(t1, crc, 6)
            ^ lookup(t0, crc, 7);
        rest = tail;
    }
    for &b in rest {
        crc = lookup(t0, crc ^ u64::from(b), 0) ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition of CRC-64/XZ: the oracle `crc64`'s
    /// tables must agree with.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
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

    /// SplitMix64 — a seeded byte and length source for the property.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

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

    #[test]
    fn crc64_tables_match_the_bitwise_oracle() {
        let mut rng = SplitMix(0xC64_5EED);
        let buf: Vec<u8> = (0..4096 + 8).map(|_| rng.next() as u8).collect();
        // Every length up to eight whole words, so each tail length
        // meets each word count from none to seven.
        for len in 0..=64 {
            let bytes = &buf[..len];
            assert_eq!(crc64(bytes), crc64_bitwise(bytes), "len {len}");
        }
        // Random lengths at every start offset within a word, so the
        // word loop also runs over unaligned slices.
        for case in 0..256 {
            let start = case % 8;
            let len = (rng.next() % 4097) as usize;
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc64(bytes),
                crc64_bitwise(bytes),
                "start {start}, len {len}"
            );
        }
    }
}
