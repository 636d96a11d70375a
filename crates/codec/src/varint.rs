//! LEB128 varints — the integer primitive of the binary record format.
//!
//! Encoding is canonical: the encoder never emits an overlong form, and
//! the decoder rejects one, so `encode(decode(bytes)) == bytes` holds at
//! the primitive layer too (the byte-stability contract the golden
//! fixtures pin).

use crate::CodecError;

/// Appends `value` as an LEB128 varint (1–10 bytes).
pub fn write_varint(value: u64, out: &mut Vec<u8>) {
    let mut v = value;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `bytes[*pos..]`, advancing `pos`.
///
/// Rejects truncation, >10-byte forms, bits beyond the 64th, and
/// non-canonical (overlong) encodings.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(CodecError::Truncated { at: *pos })?;
        *pos += 1;
        let chunk = u64::from(byte & 0x7f);
        if shift == 63 && chunk > 1 {
            return Err(CodecError::Malformed(format!(
                "varint overflows u64 at byte {}",
                *pos - 1
            )));
        }
        value |= chunk << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift != 0 {
                return Err(CodecError::Malformed(format!(
                    "non-canonical varint at byte {}",
                    *pos - 1
                )));
            }
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Malformed(format!(
                "varint longer than 10 bytes at byte {}",
                *pos - 1
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_and_stays_canonical() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len(), "no trailing bytes for {v}");
        }
    }

    #[test]
    fn varint_rejects_truncation_overlong_and_overflow() {
        let mut pos = 0;
        assert!(read_varint(&[0x80], &mut pos).is_err(), "truncated");
        pos = 0;
        assert!(read_varint(&[0x80, 0x00], &mut pos).is_err(), "overlong 0");
        pos = 0;
        assert!(
            read_varint(&[0xff; 10], &mut pos).is_err(),
            "bits beyond the 64th"
        );
        pos = 0;
        assert!(read_varint(&[0xff; 11], &mut pos).is_err(), ">10 bytes");
    }
}
