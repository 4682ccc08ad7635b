//! Byte-level deltas between checkpoint payloads.
//!
//! A checker snapshot re-serialized every checkpoint cadence mostly repeats
//! the previous one: the settled prefix of the graph, key states and maps
//! barely move between cadences. [`compute`] expresses a new payload as a
//! sequence of [`DeltaOp`]s against the previous payload — `Copy` ranges
//! for the repeated parts, `Insert` bytes for the fresh ones — so a delta
//! checkpoint writes (and fsyncs) only what actually changed.
//!
//! The matcher is rsync-shaped: the base is indexed by non-overlapping
//! [`BLOCK`]-sized windows under a polynomial rolling hash, and the target
//! is scanned byte-by-byte, sliding the hash in `O(1)`, so matches are
//! found at *any* alignment — essential here, because variable-length
//! binval encodings shift every byte after the first structural change.
//! Candidate matches are confirmed by comparison and greedily extended.
//!
//! [`apply`] is the exact inverse and validates every range, so a corrupt
//! op stream surfaces as an error instead of a bogus snapshot (the
//! checkpoint layer additionally CRCs the reconstructed payload).

use mtc_history::FastHashMap;

/// Width of the match windows the base is indexed by. Runs shorter than
/// this are emitted as literals; larger blocks shrink the index, smaller
/// ones catch shorter repeats.
pub const BLOCK: usize = 64;

/// Multiplier of the polynomial rolling hash (odd, large, arbitrary).
const R: u64 = 0x1000_0000_01B3;

/// One instruction of a delta stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes from offset `off` of the base payload.
    Copy {
        /// Byte offset into the base payload.
        off: u64,
        /// Number of bytes to copy.
        len: u64,
    },
    /// Append these literal bytes.
    Insert {
        /// The literal bytes.
        bytes: Vec<u8>,
    },
}

/// `R^(BLOCK-1)`, the weight of the byte leaving the rolling window.
fn high_weight() -> u64 {
    let mut w = 1u64;
    for _ in 0..BLOCK - 1 {
        w = w.wrapping_mul(R);
    }
    w
}

/// The polynomial hash of one full window.
fn window_hash(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0u64, |h, &b| h.wrapping_mul(R).wrapping_add(u64::from(b)))
}

/// Expresses `target` as copy/insert ops over `base`.
pub fn compute(base: &[u8], target: &[u8]) -> Vec<DeltaOp> {
    let mut ops: Vec<DeltaOp> = Vec::new();
    let mut literal: Vec<u8> = Vec::new();
    let flush = |ops: &mut Vec<DeltaOp>, literal: &mut Vec<u8>| {
        if !literal.is_empty() {
            ops.push(DeltaOp::Insert {
                bytes: std::mem::take(literal),
            });
        }
    };

    // Index the base by non-overlapping blocks: `head` maps a window hash to
    // the lowest-offset block carrying it, `next[b]` to the following block
    // with the same hash. Filling back to front keeps every chain in
    // ascending offset order; candidates are confirmed byte-for-byte. The
    // keys are polynomial hashes of this process's own previous payload, so
    // the fast (unkeyed) hasher gives up nothing a keyed one protected.
    const END: u32 = u32::MAX;
    let blocks = base.len() / BLOCK;
    let mut head: FastHashMap<u64, u32> =
        FastHashMap::with_capacity_and_hasher(blocks, Default::default());
    let mut next = vec![END; blocks];
    for b in (0..blocks).rev() {
        let off = b * BLOCK;
        if let Some(later) = head.insert(window_hash(&base[off..off + BLOCK]), b as u32) {
            next[b] = later;
        }
    }
    let candidates = |h: u64| {
        std::iter::successors(head.get(&h).copied(), |&b| {
            Some(next[b as usize]).filter(|&n| n != END)
        })
        .map(|b| b as usize * BLOCK)
    };

    let hw = high_weight();
    let mut i = 0usize;
    // Rolling hash of target[i..i + BLOCK], maintained while sliding.
    let mut h = if target.len() >= BLOCK {
        window_hash(&target[..BLOCK])
    } else {
        0
    };
    while i + BLOCK <= target.len() {
        let matched = candidates(h).find_map(|off| {
            (base[off..off + BLOCK] == target[i..i + BLOCK]).then(|| {
                let mut len = BLOCK;
                while off + len < base.len()
                    && i + len < target.len()
                    && base[off + len] == target[i + len]
                {
                    len += 1;
                }
                (off, len)
            })
        });
        match matched {
            Some((off, len)) => {
                flush(&mut ops, &mut literal);
                ops.push(DeltaOp::Copy {
                    off: off as u64,
                    len: len as u64,
                });
                i += len;
                if i + BLOCK <= target.len() {
                    h = window_hash(&target[i..i + BLOCK]);
                }
            }
            None => {
                literal.push(target[i]);
                i += 1;
                // Slide the window one byte: drop target[i - 1], take the
                // byte entering on the right.
                if i + BLOCK <= target.len() {
                    h = h
                        .wrapping_sub(u64::from(target[i - 1]).wrapping_mul(hw))
                        .wrapping_mul(R)
                        .wrapping_add(u64::from(target[i + BLOCK - 1]));
                }
            }
        }
    }
    literal.extend_from_slice(&target[i..]);
    flush(&mut ops, &mut literal);
    ops
}

/// Encodes a delta stream compactly: tag byte, then little-endian `u64`
/// fields (`off`/`len` for a copy, byte count then bytes for an insert).
/// The generic value encoding would spend ~90 bytes of structure per op;
/// this spends 17.
pub fn encode_ops(ops: &[DeltaOp]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            DeltaOp::Copy { off, len } => {
                out.push(0);
                out.extend_from_slice(&off.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            DeltaOp::Insert { bytes } => {
                out.push(1);
                out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
    }
    out
}

/// Inverse of [`encode_ops`]; rejects truncated or unknown-tag input.
pub fn decode_ops(bytes: &[u8]) -> Result<Vec<DeltaOp>, String> {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    let take_u64 = |pos: &mut usize| -> Result<u64, String> {
        let end = pos.checked_add(8).filter(|&e| e <= bytes.len());
        let end = end.ok_or("truncated delta op")?;
        let v = u64::from_le_bytes(bytes[*pos..end].try_into().unwrap());
        *pos = end;
        Ok(v)
    };
    while pos < bytes.len() {
        let tag = bytes[pos];
        pos += 1;
        match tag {
            0 => {
                let off = take_u64(&mut pos)?;
                let len = take_u64(&mut pos)?;
                ops.push(DeltaOp::Copy { off, len });
            }
            1 => {
                let n = take_u64(&mut pos)? as usize;
                let end = pos.checked_add(n).filter(|&e| e <= bytes.len());
                let end = end.ok_or("truncated delta literal")?;
                ops.push(DeltaOp::Insert {
                    bytes: bytes[pos..end].to_vec(),
                });
                pos = end;
            }
            t => return Err(format!("unknown delta op tag {t}")),
        }
    }
    Ok(ops)
}

/// Reconstructs the target payload from `base` and a delta stream. Errors
/// on any out-of-range copy instead of panicking.
pub fn apply(base: &[u8], ops: &[DeltaOp]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            DeltaOp::Copy { off, len } => {
                let (off, len) = (*off as usize, *len as usize);
                let range = base
                    .get(off..off.checked_add(len).ok_or("copy range overflows")?)
                    .ok_or_else(|| format!("copy {off}+{len} beyond base of {}", base.len()))?;
                out.extend_from_slice(range);
            }
            DeltaOp::Insert { bytes } => out.extend_from_slice(bytes),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`compute`] as the store shipped it before the flat index: a SipHash
    /// map from window hash to a heap `Vec` of candidate offsets.
    fn compute_reference(base: &[u8], target: &[u8]) -> Vec<DeltaOp> {
        let mut ops: Vec<DeltaOp> = Vec::new();
        let mut literal: Vec<u8> = Vec::new();
        let flush = |ops: &mut Vec<DeltaOp>, literal: &mut Vec<u8>| {
            if !literal.is_empty() {
                ops.push(DeltaOp::Insert {
                    bytes: std::mem::take(literal),
                });
            }
        };
        let mut index: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        for off in (0..base.len().saturating_sub(BLOCK - 1)).step_by(BLOCK) {
            index
                .entry(window_hash(&base[off..off + BLOCK]))
                .or_default()
                .push(off as u32);
        }
        let hw = high_weight();
        let mut i = 0usize;
        let mut h = if target.len() >= BLOCK {
            window_hash(&target[..BLOCK])
        } else {
            0
        };
        while i + BLOCK <= target.len() {
            let matched = index.get(&h).and_then(|cands| {
                cands.iter().find_map(|&off| {
                    let off = off as usize;
                    (base[off..off + BLOCK] == target[i..i + BLOCK]).then(|| {
                        let mut len = BLOCK;
                        while off + len < base.len()
                            && i + len < target.len()
                            && base[off + len] == target[i + len]
                        {
                            len += 1;
                        }
                        (off, len)
                    })
                })
            });
            match matched {
                Some((off, len)) => {
                    flush(&mut ops, &mut literal);
                    ops.push(DeltaOp::Copy {
                        off: off as u64,
                        len: len as u64,
                    });
                    i += len;
                    if i + BLOCK <= target.len() {
                        h = window_hash(&target[i..i + BLOCK]);
                    }
                }
                None => {
                    literal.push(target[i]);
                    i += 1;
                    if i + BLOCK <= target.len() {
                        h = h
                            .wrapping_sub(u64::from(target[i - 1]).wrapping_mul(hw))
                            .wrapping_mul(R)
                            .wrapping_add(u64::from(target[i + BLOCK - 1]));
                    }
                }
            }
        }
        literal.extend_from_slice(&target[i..]);
        flush(&mut ops, &mut literal);
        ops
    }

    fn round_trip(base: &[u8], target: &[u8]) -> Vec<DeltaOp> {
        let ops = compute(base, target);
        assert_eq!(
            ops,
            compute_reference(base, target),
            "the flat index must pick the candidates the map of vectors picked"
        );
        assert_eq!(apply(base, &ops).unwrap(), target, "delta must invert");
        assert_eq!(
            decode_ops(&encode_ops(&ops)).unwrap(),
            ops,
            "wire encoding must invert"
        );
        ops
    }

    #[test]
    fn decode_rejects_malformed_streams() {
        assert!(decode_ops(&[0, 1, 2]).is_err(), "truncated copy");
        let mut insert = vec![1];
        insert.extend_from_slice(&100u64.to_le_bytes());
        insert.push(7); // claims 100 literal bytes, carries 1
        assert!(decode_ops(&insert).is_err(), "truncated literal");
        assert!(decode_ops(&[9]).is_err(), "unknown tag");
        assert_eq!(decode_ops(&[]).unwrap(), vec![]);
    }

    #[test]
    fn identical_payloads_collapse_to_one_copy() {
        let data: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        let ops = round_trip(&data, &data);
        assert_eq!(
            ops,
            vec![DeltaOp::Copy {
                off: 0,
                len: data.len() as u64
            }]
        );
    }

    #[test]
    fn shifted_payload_still_matches_unaligned() {
        // A prefix insertion shifts every subsequent byte — the rolling scan
        // must still find the old content at its new (unaligned) offset.
        let base: Vec<u8> = (0..4096u32).flat_map(|x| x.to_le_bytes()).collect();
        let mut target = vec![0xAB, 0xCD, 0xEF];
        target.extend_from_slice(&base);
        let ops = round_trip(&base, &target);
        let inserted: usize = ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert { bytes } => bytes.len(),
                _ => 0,
            })
            .sum();
        assert!(
            inserted < 3 + 2 * BLOCK,
            "shifted content must be copied, not re-inserted (inserted {inserted})"
        );
    }

    #[test]
    fn disjoint_payloads_degrade_to_inserts() {
        let base = vec![0u8; 512];
        let target: Vec<u8> = (0..512u32).flat_map(|x| (x | 1).to_le_bytes()).collect();
        round_trip(&base, &target);
    }

    #[test]
    fn short_and_empty_payloads() {
        round_trip(b"", b"");
        round_trip(b"", b"tiny");
        round_trip(b"tiny", b"");
        round_trip(b"abc", b"abd");
        let small: Vec<u8> = (0..BLOCK as u8).collect();
        round_trip(&small, &small);
    }

    #[test]
    fn corrupt_copy_range_is_an_error() {
        let ops = vec![DeltaOp::Copy { off: 10, len: 100 }];
        assert!(apply(b"short", &ops).is_err());
        let ops = vec![DeltaOp::Copy {
            off: u64::MAX,
            len: 2,
        }];
        assert!(apply(b"short", &ops).is_err());
    }

    #[test]
    fn mid_stream_edit_keeps_both_sides_copied() {
        let mut target: Vec<u8> = (0..8192u32).flat_map(|x| x.to_le_bytes()).collect();
        let base = target.clone();
        // Splice 7 bytes into the middle and flip one later byte.
        target.splice(10_000..10_000, [1, 2, 3, 4, 5, 6, 7]);
        target[20_000] ^= 0x55;
        let ops = round_trip(&base, &target);
        let inserted: usize = ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert { bytes } => bytes.len(),
                _ => 0,
            })
            .sum();
        assert!(
            inserted < 4 * BLOCK,
            "a small edit must stay a small delta (inserted {inserted})"
        );
    }

    #[test]
    fn repeated_blocks_chain_in_ascending_offset_order() {
        // Every block of the base hashes alike, so one chain holds them all;
        // the first candidate tried must be the lowest offset, as before.
        let base = vec![7u8; 10 * BLOCK];
        let mut target = vec![1u8, 2, 3];
        target.extend_from_slice(&base[..3 * BLOCK]);
        let ops = round_trip(&base, &target);
        assert!(matches!(ops[1], DeltaOp::Copy { off: 0, .. }), "{ops:?}");
    }

    #[test]
    fn consecutive_snapshot_payloads_delta_as_the_reference_does() {
        use mtc_core::{GcPolicy, IncrementalChecker, IsolationLevel};
        use mtc_history::Op;
        // A 2 000-transaction read-modify-write stream over 16 keys and 4
        // sessions, snapshotted every 250 transactions: with and without GC,
        // so both a growing and a window-bounded payload are covered.
        for gc in [None, Some(GcPolicy::clamped(256, 64))] {
            let mut checker =
                IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..16u64);
            if let Some(policy) = gc {
                checker = checker.with_gc(policy);
            }
            let mut state = [0u64; 16];
            let mut payloads: Vec<Vec<u8>> = Vec::new();
            for i in 0..2_000u64 {
                let k = (i.wrapping_mul(2_654_435_761) >> 9) % 16;
                let ops = vec![Op::read(k, state[k as usize]), Op::write(k, i + 1)];
                state[k as usize] = i + 1;
                checker.push_committed((i % 4) as u32, ops).unwrap();
                if (i + 1) % 250 == 0 {
                    payloads.push(crate::binval::to_bytes(&checker.checkpoint()));
                }
            }
            assert_eq!(payloads.len(), 8);
            for pair in payloads.windows(2) {
                let ops = round_trip(&pair[0], &pair[1]);
                assert!(
                    encode_ops(&ops).len() < pair[1].len(),
                    "consecutive snapshots must delta below full size"
                );
            }
        }
    }
}
