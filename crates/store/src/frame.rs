//! CRC-checked record framing.
//!
//! Every record in a log segment or checkpoint file is one *frame*:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. Reading distinguishes the two
//! failure modes recovery cares about: a frame whose bytes simply end early
//! ([`FrameError::Truncated`] — the classic torn tail of a crashed writer)
//! and a frame whose checksum does not match ([`FrameError::Corrupt`] —
//! bit rot or a torn *overwrite*). Recovery treats either at the tail of
//! the last segment as "the log ends here"; anywhere else it is an error.

/// Frame header size: length + checksum.
pub const FRAME_HEADER: usize = 8;

/// Maximum accepted payload length (a corrupt length field must not turn
/// into a gigabyte allocation).
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Why a frame could not be read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The input ends before the frame does (torn tail).
    Truncated,
    /// The checksum does not match the payload, or the length is absurd.
    Corrupt,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Corrupt => write!(f, "corrupt frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial
/// `0xEDB88320`: `TABLES[0]` is the classic byte-at-a-time table, and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`), slicing-by-8: eight
/// table lookups fold eight input bytes per step, the tail goes byte at a
/// time. Same values as the byte-at-a-time form on every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Appends one frame wrapping `payload` to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one frame whose payload is whatever `payload` appends to `out`:
/// the header's room is reserved first and its length and checksum patched
/// in afterwards, so an encoder writes a frame's payload in place, once.
pub fn write_frame_with(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    payload(out);
    let body = header + FRAME_HEADER;
    let len = out.len() - body;
    assert!(len <= MAX_FRAME_LEN, "frame payload too large");
    let crc = crc32(&out[body..]);
    out[header..header + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[header + 4..body].copy_from_slice(&crc.to_le_bytes());
}

/// Reads the frame starting at `*pos`, advancing `*pos` past it on success.
/// On failure `*pos` is left unchanged.
pub fn read_frame<'a>(input: &'a [u8], pos: &mut usize) -> Result<&'a [u8], FrameError> {
    let start = *pos;
    let header = input
        .get(start..start + FRAME_HEADER)
        .ok_or(FrameError::Truncated)?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let want_crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Corrupt);
    }
    let payload = input
        .get(start + FRAME_HEADER..start + FRAME_HEADER + len)
        .ok_or(FrameError::Truncated)?;
    if crc32(payload) != want_crc {
        return Err(FrameError::Corrupt);
    }
    *pos = start + FRAME_HEADER + len;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC-32 the store shipped before slicing-by-8,
    /// computing its table entry per byte so it shares nothing with
    /// [`TABLES`].
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            let mut c = (crc ^ u32::from(b)) & 0xff;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            crc = c ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        // One buffer, every start offset 0..8 within it, every length
        // 0..=64: the 8-byte fold, its tail and their hand-over all run.
        let buf: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for align in 0..8 {
            for len in 0..=64 {
                let slice = &buf[align..align + len];
                assert_eq!(
                    crc32(slice),
                    crc32_reference(slice),
                    "align {align}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_on_the_snapshot_fixtures() {
        let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
        for name in [
            "snapshot-v9-ser.mtcck",
            "snapshot-v9-si.mtcck",
            "snapshot-v9-sser.mtcck",
        ] {
            let bytes = std::fs::read(data.join(name)).unwrap();
            assert!(bytes.len() > 1024, "{name}: fixture went missing");
            assert_eq!(crc32(&bytes), crc32_reference(&bytes), "{name}");
            // And the frames inside still verify against the stored CRCs.
            let mut pos = 0;
            while pos < bytes.len() {
                read_frame(&bytes, &mut pos).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, b"third record");
        let mut pos = 0;
        assert_eq!(read_frame(&buf, &mut pos).unwrap(), b"first");
        assert_eq!(read_frame(&buf, &mut pos).unwrap(), b"");
        assert_eq!(read_frame(&buf, &mut pos).unwrap(), b"third record");
        assert_eq!(pos, buf.len());
        assert_eq!(read_frame(&buf, &mut pos), Err(FrameError::Truncated));
    }

    #[test]
    fn a_payload_written_in_place_is_framed_like_one_copied_in() {
        for payload in [&b""[..], b"x", b"third record, behind two others"] {
            let mut copied = b"earlier frames".to_vec();
            let mut in_place = copied.clone();
            write_frame(&mut copied, payload);
            write_frame_with(&mut in_place, |out| {
                for chunk in payload.chunks(3) {
                    out.extend_from_slice(chunk);
                }
            });
            assert_eq!(in_place, copied);
        }
    }

    #[test]
    fn torn_tail_is_truncated_not_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"whole");
        write_frame(&mut buf, b"torn away");
        for cut in buf.len() - 12..buf.len() {
            let mut pos = 0;
            assert_eq!(read_frame(&buf[..cut], &mut pos).unwrap(), b"whole");
            let before = pos;
            assert_eq!(
                read_frame(&buf[..cut], &mut pos),
                Err(FrameError::Truncated),
                "cut at {cut}"
            );
            assert_eq!(pos, before, "pos must not move on failure");
        }
    }

    #[test]
    fn flipped_bit_is_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload under test");
        let mut pos = 0;
        for i in FRAME_HEADER..buf.len() {
            let mut dirty = buf.clone();
            dirty[i] ^= 0x40;
            pos = 0;
            assert_eq!(
                read_frame(&dirty, &mut pos),
                Err(FrameError::Corrupt),
                "flip at {i}"
            );
        }
        let _ = pos;
    }

    #[test]
    fn absurd_length_is_corrupt() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let mut pos = 0;
        assert_eq!(read_frame(&buf, &mut pos), Err(FrameError::Corrupt));
    }
}
