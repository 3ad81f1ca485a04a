//! CRC-32C (Castagnoli), the checksum guarding log-record frames, store
//! deltas and every device manifest.
//!
//! Hand-rolled, with no external codec dependency: torn-tail detection must
//! not depend on a third-party crate's framing behaviour. Two kernels
//! compute the same function, so every checksum is bit-identical whichever
//! one ran:
//!
//! - **SSE4.2** (x86-64, detected at run time): the `crc32` instruction
//!   folds eight input bytes per step, then one byte at a time for the
//!   tail. It is the one `unsafe` call in the workspace: a safe
//!   `#[target_feature(enable = "sse4.2")]` kernel may only be entered once
//!   `is_x86_feature_detected!` has vouched for the CPU, and
//!   `sse42_update` is the only place that does it.
//! - **Slice-by-8** (every other CPU, and the tests' oracle): eight
//!   256-entry tables fold eight bytes per step (Kounavis & Berry, "Novel
//!   Table Lookup-Based Algorithms for High-Performance CRC Generation"),
//!   falling back to the classic byte-at-a-time loop for the unaligned
//!   tail. Table `k` maps a byte to its CRC contribution `k` positions
//!   further from the end of the 8-byte block, so the eight lookups
//!   combine with plain XOR.
//!
//! A boot checksums the whole store image and log, so the kernel sets a
//! floor under restart: over a 5.4 MB store image, slice-by-8 takes about
//! 900 ns/KiB and SSE4.2 about 190 (2-vCPU x86-64 VM).

const POLY: u32 = 0x82F6_3B78; // reflected 0x1EDC6F41

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    // Table 0 is the classic byte-at-a-time table.
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    // Table k advances table k-1 by one more zero byte: processing byte b
    // followed by k zero bytes equals t[k][b].
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Compute the CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    !crc32c_update(!0u32, data)
}

/// Continue a finished CRC-32C over more bytes: `crc32c_extend(crc32c(a),
/// b) == crc32c(a ++ b)`. Lets a blob whose body CRC is already known
/// (e.g. its trailer was just verified) get its whole-blob CRC without a
/// second pass over the body.
pub fn crc32c_extend(crc: u32, data: &[u8]) -> u32 {
    !crc32c_update(!crc, data)
}

/// Bytes in a log frame's header, `[len: u32][crc: u32]`, which precedes
/// the payload that [`frame_crc`] checksums.
pub const FRAME_HEADER: usize = 8;

/// Compute the CRC-32C of a log frame's payload bound to the frame's
/// address: the checksum covers `lsn` (little-endian) followed by the
/// payload bytes.
///
/// Binding the address into the checksum is what lets preallocated and
/// recycled segments reject both zero padding (`crc32c("") == 0`, so an
/// all-zero frame header would otherwise parse as a valid empty frame) and
/// stale frames from a segment's previous life: a frame is only valid at
/// the exact LSN it was appended at.
pub fn frame_crc(lsn: u64, payload: &[u8]) -> u32 {
    !crc32c_update(crc32c_update(!0u32, &lsn.to_le_bytes()), payload)
}

/// Advance a raw (non-finalized) CRC-32C state over `data`: the SSE4.2
/// kernel where the CPU has it, slice-by-8 otherwise.
fn crc32c_update(state: u32, data: &[u8]) -> u32 {
    sse42_update(state, data).unwrap_or_else(|| slice8_update(state, data))
}

/// The SSE4.2 kernel over `data`, or `None` when the CPU lacks SSE4.2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn sse42_update(state: u32, data: &[u8]) -> Option<u32> {
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `sse42_kernel` needs only SSE4.2, and the check above just
    // found it on this CPU. The kernel itself is safe code.
    Some(unsafe { sse42_kernel(state, data) })
}

/// No SSE4.2 off x86-64: always the slice-by-8 kernel.
#[cfg(not(target_arch = "x86_64"))]
fn sse42_update(_state: u32, _data: &[u8]) -> Option<u32> {
    None
}

/// Advance `state` over `data` with the `crc32` instruction, eight bytes
/// per step. The instruction computes exactly the reflected CRC-32C step
/// the tables encode, so no finalisation differs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42_kernel(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(state);
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(c.try_into().unwrap()));
    }
    // The instruction zero-extends its 32-bit result into the u64.
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Advance `state` over `data` with the slice-by-8 tables.
fn slice8_update(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-slice-by-8 implementation, kept as the differential oracle.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// A finished CRC-32C of `data` through one raw-state kernel.
    fn finished(kernel: impl Fn(u32, &[u8]) -> u32, data: &[u8]) -> u32 {
        !kernel(!0u32, data)
    }

    /// A deterministic pseudo-random buffer of `len` bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 test vectors for CRC-32C, through the dispatch and
        // through each kernel by name, so the software kernel stays tested
        // on a CPU where the dispatch always takes the hardware one.
        let vectors: [(&[u8], u32); 4] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
        ];
        let hardware = sse42_update(!0, b"").is_some();
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want, "dispatch");
            assert_eq!(finished(slice8_update, data), want, "slice-by-8");
            assert_eq!(crc32c_bytewise(data), want, "bytewise");
            if hardware {
                let sse42 = |s, d: &[u8]| sse42_update(s, d).unwrap();
                assert_eq!(finished(sse42, data), want, "sse4.2");
            }
        }
    }

    #[test]
    fn sse42_kernel_matches_slice_by_8_at_every_length_and_offset() {
        if sse42_update(!0, b"").is_none() {
            return; // no SSE4.2 here: the dispatch is slice-by-8 alone
        }
        // Every length 0..=257 from every start offset 0..8, so each split
        // into 8-byte steps and a byte tail is met at every alignment; a
        // mid-stream state too, as `frame_crc` continues one.
        let data = noise(8 + 257);
        for start in 0..8 {
            for len in 0..=257 {
                let d = &data[start..start + len];
                for state in [!0u32, 0x1234_5678] {
                    assert_eq!(
                        sse42_update(state, d),
                        Some(slice8_update(state, d)),
                        "start {start} len {len} state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = b"the quick brown fox".to_vec();
        let base = crc32c(&data);
        for i in 0..data.len() {
            data[i] ^= 1;
            assert_ne!(crc32c(&data), base, "flip at byte {i} undetected");
            data[i] ^= 1;
        }
    }

    #[test]
    fn frame_crc_is_address_bound() {
        // Same payload at different LSNs must checksum differently, and a
        // frame's CRC must equal the plain CRC of `lsn bytes ++ payload`.
        let payload = b"record body";
        for lsn in [0u64, 1, 7, 1 << 20, u64::MAX] {
            let mut joined = lsn.to_le_bytes().to_vec();
            joined.extend_from_slice(payload);
            assert_eq!(frame_crc(lsn, payload), crc32c(&joined));
        }
        assert_ne!(frame_crc(1, payload), frame_crc(2, payload));
        // The trap preallocation must dodge: an all-zero header region would
        // parse as a valid empty frame under the unbound CRC (crc32c("")==0)
        // but never under the address-bound one.
        for lsn in 1..64u64 {
            assert_ne!(frame_crc(lsn, b""), 0, "zero padding valid at lsn {lsn}");
        }
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length() {
        // Checked at every prefix length 0..=257 so all chunk/remainder
        // splits are exercised.
        let data = noise(257);
        for len in 0..=data.len() {
            assert_eq!(
                finished(slice8_update, &data[..len]),
                crc32c_bytewise(&data[..len]),
                "mismatch at length {len}"
            );
        }
        // Unaligned starts too: the kernel must not assume 8-byte alignment.
        for start in 1..9 {
            assert_eq!(
                finished(slice8_update, &data[start..]),
                crc32c_bytewise(&data[start..])
            );
        }
    }

    #[test]
    fn extend_over_every_split_equals_one_shot() {
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let data: Vec<u8> = (0..300)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let whole = crc32c(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32c_extend(crc32c(a), b), whole, "split at {split}");
        }
        assert_eq!(crc32c_extend(crc32c(b""), b""), 0);
    }
}
