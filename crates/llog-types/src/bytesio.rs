//! Plain-`std` byte cursor helpers for the WAL's binary codecs.
//!
//! These replace the `bytes` crate's `Buf`/`BufMut` with the same call
//! surface over `Vec<u8>` (writer) and `&[u8]` (advancing reader), so the
//! workspace builds hermetically with zero external dependencies.
//!
//! Fixed-width reader methods **panic** on underflow, exactly like
//! `bytes::Buf`; codecs must bounds-check with [`ByteReader::remaining`]
//! first. [`ByteReader::get_varint`] is checked instead: it returns a
//! `Codec` error on truncation, so a varint codec needs no pre-check.
//!
//! ```
//! use llog_types::{ByteReader, ByteWriter};
//!
//! let mut out = Vec::new();
//! out.put_u8(7);
//! out.put_u32_le(0xDEAD_BEEF);
//! out.put_slice(b"ok");
//!
//! let mut buf: &[u8] = &out;
//! assert_eq!(buf.get_u8(), 7);
//! assert_eq!(buf.get_u32_le(), 0xDEAD_BEEF);
//! assert_eq!(buf.remaining(), 2);
//! assert_eq!(buf, b"ok");
//! ```

use crate::{LlogError, Result};

/// Little-endian appending writes over a growable byte buffer.
pub trait ByteWriter {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a `u16`, little endian.
    fn put_u16_le(&mut self, v: u16);
    /// Append a `u32`, little endian.
    fn put_u32_le(&mut self, v: u32);
    /// Append a `u64`, little endian.
    fn put_u64_le(&mut self, v: u64);
    /// Append an unsigned LEB128 varint: 7 bits per byte, low group
    /// first, high bit set on every byte but the last (1–10 bytes).
    fn put_varint(&mut self, v: u64);
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);
}

impl ByteWriter for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.push(v as u8);
    }
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Little-endian consuming reads over an advancing byte slice.
///
/// Each `get_*` consumes from the front of the slice; `remaining` is the
/// unconsumed length. Reads past the end panic (bounds-check first).
pub trait ByteReader {
    /// Bytes not yet consumed.
    fn remaining(&self) -> usize;
    /// Consume one byte.
    fn get_u8(&mut self) -> u8;
    /// Consume a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16;
    /// Consume a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Consume a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
    /// Consume an unsigned LEB128 varint. A `Codec` error if the bytes end
    /// inside it, it runs past 10 bytes, or its value overflows `u64`.
    fn get_varint(&mut self) -> Result<u64>;
    /// Consume a varint count of items at least `width` bytes each. A
    /// `Codec` error unless the bytes left could hold them all, so a
    /// count read from outside the program never sizes an allocation the
    /// input cannot back.
    fn get_count(&mut self, width: usize) -> Result<usize> {
        let n = self.get_varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / width => Ok(n),
            _ => Err(LlogError::Codec {
                reason: format!("count {n} larger than the {} bytes left", self.remaining()),
            }),
        }
    }
}

macro_rules! take_le {
    ($buf:expr, $t:ty) => {{
        const N: usize = std::mem::size_of::<$t>();
        let (head, rest) = $buf.split_at(N);
        let v = <$t>::from_le_bytes(head.try_into().expect("split_at returned N bytes"));
        *$buf = rest;
        v
    }};
}

impl ByteReader for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn get_u8(&mut self) -> u8 {
        take_le!(self, u8)
    }
    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        take_le!(self, u16)
    }
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        take_le!(self, u32)
    }
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        take_le!(self, u64)
    }
    #[inline]
    fn get_varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for (i, &b) in self.iter().take(10).enumerate() {
            v |= u64::from(b & 0x7F) << (7 * i);
            if b < 0x80 {
                // The tenth byte holds bit 63 alone.
                if i == 9 && b > 1 {
                    return Err(varint_error("varint overflows u64"));
                }
                *self = &self[i + 1..];
                return Ok(v);
            }
        }
        Err(varint_error(if self.len() >= 10 {
            "varint longer than 10 bytes"
        } else {
            "varint truncated"
        }))
    }
}

#[cold]
fn varint_error(reason: &str) -> LlogError {
    LlogError::Codec {
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut out = Vec::new();
        out.put_u8(0xAB);
        out.put_u16_le(0x1234);
        out.put_u32_le(0xDEAD_BEEF);
        out.put_u64_le(0x0123_4567_89AB_CDEF);
        out.put_slice(&[1, 2, 3]);
        assert_eq!(out.len(), 1 + 2 + 4 + 8 + 3);

        let mut buf: &[u8] = &out;
        assert_eq!(buf.remaining(), out.len());
        assert_eq!(buf.get_u8(), 0xAB);
        assert_eq!(buf.get_u16_le(), 0x1234);
        assert_eq!(buf.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(buf.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(buf.remaining(), 3);
        assert_eq!(buf, &[1, 2, 3]);
    }

    #[test]
    fn varints_roundtrip_at_every_width_boundary() {
        for (v, width) in [
            (0u64, 1),
            (0x7F, 1),
            (0x80, 2),
            (0x3FFF, 2),
            (0x4000, 3),
            (u64::from(u32::MAX), 5),
            (1 << 63, 10),
            (u64::MAX, 10),
        ] {
            let mut out = Vec::new();
            out.put_varint(v);
            assert_eq!(out.len(), width, "{v:#x}");
            let mut buf: &[u8] = &out;
            assert_eq!(buf.get_varint().unwrap(), v);
            assert_eq!(buf.remaining(), 0);
            for cut in 0..out.len() {
                assert!((&out[..cut]).get_varint().is_err(), "{v:#x} cut at {cut}");
            }
        }
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut out = Vec::new();
        out.put_u32_le(1);
        assert_eq!(out, [1, 0, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn underflow_panics_like_bytes_buf() {
        let mut buf: &[u8] = &[1, 2];
        let _ = buf.get_u32_le();
    }

    #[test]
    fn reads_through_a_mut_reference_advance_the_caller() {
        // The WAL codec passes `&mut &[u8]` into helpers; consumption must
        // be visible to the caller.
        fn eat(buf: &mut &[u8]) -> u16 {
            buf.get_u16_le()
        }
        let data = [5u8, 0, 9];
        let mut buf: &[u8] = &data;
        assert_eq!(eat(&mut buf), 5);
        assert_eq!(buf.remaining(), 1);
    }
}
