//! Hostile bytes against every decoder that reads the binary value form:
//! `binval::from_bytes` (checker snapshots, log records, wire envelopes),
//! `read_log`, `latest_checkpoint` (snapshot payload and checkpoint header)
//! and `FrameBuf::pop`. Each is fed the committed fixtures — this build's
//! and, where a reader still takes an older format, the older one — and one
//! half-megabyte snapshot made here — cut short at every offset (strided
//! where the input is long), with seeded bit flips, and with every length
//! prefix inflated to 2^32 and to 2^60, **the frame re-made around the damage
//! so that its CRC holds** and the payload decoder is what meets it.
//!
//! Underneath them all, `frame::read_frame` meets the raw frame streams of
//! the committed segment and wire fixtures the same way: cut at every
//! offset, bit-flipped, and with each frame's length field claiming the
//! most its four bytes can (2^32 − 1) and the most a frame may hold.
//!
//! Crafted snapshots come first: well-formed bytes with one lie in the
//! maintained order (an entry past its node count, a label of no kind or of
//! a key slot its target lacks, a transaction placed past the node count,
//! more nodes than a row entry can name), each refused.
//!
//! What is held: a call returns `Ok` or a typed `Err` — it does not panic —
//! and it does not ask the allocator for more than eight times its input
//! plus 64 KiB, however large the numbers in that input claim to be.
//!
//! One `#[test]` on purpose: the counter is per thread, and this file's
//! allocator is the whole binary's. The CRC itself keeps its tests in
//! `mtc-store`.

mod common;

use common::{allocations_of, tenant_stream, Counting, NUM_KEYS};
use mtc::history::Op;
use mtc::net::proto::{FrameBuf, ReplyEnvelope, RequestEnvelope};
use mtc::store::frame::{read_frame, write_frame, FrameError, FRAME_HEADER, MAX_FRAME_LEN};
use mtc::store::{from_bytes, latest_checkpoint, read_log, to_bytes, LogRecord};
use mtc::{CheckerSnapshot, GcPolicy, IncrementalChecker, IsolationLevel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs one decoder call over `len` bytes of input and holds it to the two
/// promises; `what` names the damage for the failure message.
fn held<T, E: std::fmt::Debug>(
    what: &dyn Fn() -> String,
    len: usize,
    call: impl FnOnce() -> Result<T, E>,
) {
    let (outcome, _, requested) = allocations_of(|| catch_unwind(AssertUnwindSafe(call)));
    assert!(outcome.is_ok(), "{}: the decoder panicked", what());
    let budget = 8 * len as u64 + (64 << 10);
    assert!(
        requested <= budget,
        "{}: {requested} bytes requested for {len} bytes of input, budget {budget}",
        what()
    );
}

fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// The binary value form, as `mtc_store::binval` documents it: one tag byte
// per value, LEB128 lengths.
const TAG_U64: u8 = 0x03;
const TAG_I64: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

fn varint(input: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    for shift in (0..).step_by(7) {
        let byte = input[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    v
}

/// Where the length prefixes of the valid value at `*pos` of `input` start:
/// of its strings, keys, arrays and objects.
fn length_offsets(input: &[u8], pos: &mut usize, found: &mut Vec<usize>) {
    let tag = input[*pos];
    *pos += 1;
    let mut length = |pos: &mut usize| {
        found.push(*pos);
        varint(input, pos) as usize
    };
    match tag {
        TAG_U64 | TAG_I64 => {
            varint(input, pos);
        }
        TAG_F64 => *pos += 8,
        TAG_STR => *pos += length(pos),
        TAG_ARRAY => {
            for _ in 0..length(pos) {
                length_offsets(input, pos, found);
            }
        }
        TAG_OBJECT => {
            for _ in 0..length(pos) {
                found.push(*pos);
                *pos += varint(input, pos) as usize;
                length_offsets(input, pos, found);
            }
        }
        _ => {}
    }
}

/// The length prefixes of a payload, the one value it is.
fn lengths_of(payload: &[u8]) -> Vec<usize> {
    let mut found = Vec::new();
    length_offsets(payload, &mut 0, &mut found);
    found
}

/// `input` with the varint at `at` replaced by that of `value`.
fn with_varint(input: &[u8], at: usize, mut value: u64) -> Vec<u8> {
    let mut end = at;
    varint(input, &mut end);
    let mut out = input[..at].to_vec();
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
    out.extend_from_slice(&input[end..]);
    out
}

/// Every damaged form of `payload` this harness makes, each with its name:
/// cut at every offset (at most `cuts` of them, evenly spread), `flips`
/// seeded bit flips, and each of `lengths` (at most `inflated` of them)
/// claiming 2^32 and 2^60.
fn damaged(
    payload: &[u8],
    lengths: &[usize],
    (cuts, flips, inflated): (usize, usize, usize),
    seed: u64,
    mut each: impl FnMut(&dyn Fn() -> String, &[u8]),
) {
    let stride = payload.len().div_ceil(cuts).max(1);
    for cut in (0..payload.len()).step_by(stride) {
        each(&|| format!("cut at {cut}"), &payload[..cut]);
    }
    let mut state = seed;
    for _ in 0..flips {
        let (at, bit) = (
            split_mix(&mut state) as usize % payload.len(),
            split_mix(&mut state) % 8,
        );
        let mut flipped = payload.to_vec();
        flipped[at] ^= 1 << bit;
        each(&|| format!("bit {bit} of byte {at} flipped"), &flipped);
    }
    let stride = lengths.len().div_ceil(inflated).max(1);
    for &at in lengths.iter().step_by(stride) {
        for claim in [1u64 << 32, 1 << 60] {
            let lied = with_varint(payload, at, claim);
            each(&|| format!("length at {at} claiming {claim}"), &lied);
        }
    }
}

/// The payloads of the frames `bytes` is made of.
fn frames_of(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut pos = 0;
    std::iter::from_fn(|| read_frame(bytes, &mut pos).ok().map(<[u8]>::to_vec)).collect()
}

/// `frames` back to back with `damaged` in place of the one at `at`, every
/// CRC good.
fn reframed(frames: &[Vec<u8>], at: usize, damaged: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        write_frame(&mut out, if i == at { damaged } else { frame });
    }
    out
}

/// Reads `stream` frame after frame to its end, as recovery reads a
/// segment; the number of frames, or why one was refused.
fn read_frames(stream: &[u8]) -> Result<usize, FrameError> {
    let (mut pos, mut frames) = (0, 0);
    while pos < stream.len() {
        read_frame(stream, &mut pos)?;
        frames += 1;
    }
    Ok(frames)
}

/// `stream` and every damaged form of it, through [`read_frames`]: cut at
/// every offset, `flips` seeded bit flips, and the length field of each
/// frame claiming `u32::MAX` and [`MAX_FRAME_LEN`] bytes.
fn frame_stream_held(name: &str, stream: &[u8], flips: usize) {
    let frames = frames_of(stream);
    assert_eq!(read_frames(stream), Ok(frames.len()), "{name}");
    damaged(stream, &[], (usize::MAX, flips, 1), 0, |what, bytes| {
        let what = || format!("frame stream {name}, {}", what());
        held(&what, bytes.len(), || read_frames(bytes));
    });
    let mut header = 0;
    for frame in &frames {
        for claim in [u32::MAX, MAX_FRAME_LEN as u32] {
            let mut lied = stream.to_vec();
            lied[header..header + 4].copy_from_slice(&claim.to_le_bytes());
            let what = || format!("frame stream {name}, length at {header} claiming {claim}");
            held(&what, lied.len(), || read_frames(&lied));
        }
        header += FRAME_HEADER + frame.len();
    }
}

fn fixture(path: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The checkpoint of `encode_allocations.rs`: a 4 000-transaction SER
/// checker's, half a megabyte of it.
fn large_snapshot() -> Vec<u8> {
    let mut checker =
        IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..NUM_KEYS);
    checker.set_gc(GcPolicy::default());
    for txn in tenant_stream() {
        checker.push(txn).expect("an MT stream stays in the domain");
    }
    to_bytes(&checker.checkpoint())
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtc_hostile_bytes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// `text`, a snapshot's JSON, with the node of the last entry of the
/// engine's transaction table `table` replaced by `node`.
fn with_last_node(text: &str, table: &str, node: usize) -> String {
    let start = text
        .find(&format!(r#""{table}":{{"base":"#))
        .unwrap_or_else(|| panic!("no {table} in {text}"));
    let end = start + text[start..].find("]]}").expect("a table with entries");
    let at = text[..end].rfind(',').expect("an entry is a pair") + 1;
    format!("{}{node}{}", &text[..at], &text[end..])
}

/// Crafted snapshots, each well-formed bytes with one lie in its order: a
/// forward entry into a node past the order's node count, one whose label
/// names no kind, one whose label names a second key its one-key target
/// does not have; at each level, a transaction placed at a node past the
/// order's node count (and at SI, a tail); and an order that claims more
/// nodes than a row entry can name. Each is refused with a typed error, within the request budget,
/// while the snapshot they were made from reads back.
fn crafted_orders_are_refused() {
    // `⊥T` over two keys and one read of key 0: the pair `⊥T → T1` is one
    // entry, node 1 with the label `WR(k0)` (rank 1, so 2) beneath it.
    let mut checker =
        IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..2u64);
    checker
        .push_committed(0, vec![Op::read(0u64, 0u64)])
        .unwrap();
    let text = serde_json::to_string(&checker.checkpoint()).unwrap();
    let rows = r#""fwd":[[18],[]]"#;
    assert!(text.contains(rows), "{text}");
    let encoded = |text: &str| to_bytes(&serde_json::parse(text).unwrap());
    assert!(from_bytes::<CheckerSnapshot>(&encoded(&text)).is_ok());
    for (lie, entry) in [
        ("an entry into node 2 of 2", 2 << 4 | 2),
        ("a label of kind 6", 1 << 4 | 6),
        ("a label of kind 7", 1 << 4 | 7),
        ("WR on the second key of a one-key target", 1 << 4 | 8 | 2),
        ("SO with a key slot", 1 << 4 | 8 | 4),
    ] {
        let bytes = encoded(&text.replace(rows, &format!(r#""fwd":[[{entry}],[]]"#)));
        let what = || format!("a crafted snapshot with {lie}");
        held(&what, bytes.len(), || {
            let refused = from_bytes::<CheckerSnapshot>(&bytes);
            assert!(refused.is_err(), "{}", what());
            refused
        });
    }
    // A transaction whose node — at SI, or whose tail — is past the order's
    // node count: the first push after a resume would index the order with
    // it.
    for level in [
        IsolationLevel::Serializability,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::StrictSerializability,
    ] {
        let mut checker = IncrementalChecker::new(level).with_init_keys(0..2u64);
        checker
            .push_committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)])
            .unwrap();
        let text = serde_json::to_string(&checker.checkpoint()).unwrap();
        assert!(from_bytes::<CheckerSnapshot>(&encoded(&text)).is_ok());
        let tables: &[&str] = match level {
            IsolationLevel::SnapshotIsolation => &["txn_node", "txn_tail"],
            _ => &["txn_node"],
        };
        for table in tables {
            let bytes = encoded(&with_last_node(&text, table, 999));
            let what = || format!("a crafted {level} snapshot with {table} naming node 999");
            held(&what, bytes.len(), || {
                let refused = from_bytes::<CheckerSnapshot>(&bytes);
                assert!(refused.is_err(), "{}", what());
                refused
            });
        }
    }
    // Tables that disagree with the order: at SSER a time-chain out of
    // instant order, an anchor past the node count or at a transaction's
    // node, two transactions' owners swapped, an anchor owned by a
    // transaction; at SI a tail owned as a transaction's node. Resumed, a
    // checker would search a chain out of order and splice a cycle through
    // nodes under the wrong owner.
    let mut checker =
        IncrementalChecker::new(IsolationLevel::StrictSerializability).with_init_keys(0..2u64);
    let rmw = |k: u64, v: u64| vec![Op::read(k, 0u64), Op::write(k, v)];
    checker.push_committed_timed(0, rmw(0, 1), 10, 20).unwrap();
    checker.push_committed_timed(1, rmw(1, 2), 15, 30).unwrap();
    let text = serde_json::to_string(&checker.checkpoint()).unwrap();
    let chain = r#""chain":{"slots":[[0,1],[20,3],[30,5]]}"#;
    let owners = r#""node_owner":[{"Txn":0},"Time",{"Txn":1},"Time",{"Txn":2},"Time"]"#;
    assert!(text.contains(chain) && text.contains(owners), "{text}");
    assert!(from_bytes::<CheckerSnapshot>(&encoded(&text)).is_ok());
    let mut si = IncrementalChecker::new(IsolationLevel::SnapshotIsolation).with_init_keys(0..2u64);
    si.push_committed(0, rmw(0, 1)).unwrap();
    let si_text = serde_json::to_string(&si.checkpoint()).unwrap();
    assert!(from_bytes::<CheckerSnapshot>(&encoded(&si_text)).is_ok());
    let owned = |list: &str| format!(r#""node_owner":[{list}]"#);
    let lies = [
        (
            "instants out of order",
            chain,
            r#""chain":{"slots":[[0,1],[30,3],[20,5]]}"#.into(),
        ),
        (
            "an instant twice",
            chain,
            r#""chain":{"slots":[[0,1],[20,3],[20,5]]}"#.into(),
        ),
        (
            "an anchor past the node count",
            chain,
            r#""chain":{"slots":[[0,1],[20,999],[30,5]]}"#.into(),
        ),
        (
            "an anchor at a node",
            chain,
            r#""chain":{"slots":[[0,1],[20,2],[30,5]]}"#.into(),
        ),
        (
            "owners swapped",
            owners,
            owned(r#"{"Txn":0},"Time",{"Txn":2},"Time",{"Txn":1},"Time""#),
        ),
        (
            "an anchor owned by a node",
            owners,
            owned(r#"{"Txn":0},"Time",{"Txn":1},{"Txn":1},{"Txn":2},"Time""#),
        ),
    ];
    let lies = lies.map(|(lie, from, to): (&str, &str, String)| (lie, text.replace(from, &to)));
    assert!(si_text.contains(r#"{"Tail":"#), "{si_text}");
    let tail = (
        "a tail owned as a node",
        si_text.replacen(r#"{"Tail":"#, r#"{"Txn":"#, 1),
    );
    for (lie, lied) in lies.into_iter().chain([tail]) {
        let bytes = encoded(&lied);
        let what = || format!("a crafted snapshot with {lie}");
        held(&what, bytes.len(), || {
            let refused = from_bytes::<CheckerSnapshot>(&bytes);
            assert!(refused.is_err(), "{}", what());
            refused
        });
    }
    // An order of 2^28 + 1 nodes: its seven fields, the first a list of
    // that many rows.
    let mut claim = vec![TAG_ARRAY, 7, TAG_ARRAY];
    let mut len = (1u64 << 28) + 1;
    while len >= 0x80 {
        claim.push(len as u8 | 0x80);
        len >>= 7;
    }
    claim.push(len as u8);
    claim.extend([TAG_ARRAY, 0]);
    let what = || "an order of 2^28 + 1 nodes".to_string();
    held(&what, claim.len(), || {
        let refused = from_bytes::<mtc::IncrementalTopo>(&claim);
        assert!(refused.is_err(), "{}", what());
        refused
    });
}

#[test]
fn damaged_input_is_refused_without_a_panic_and_without_being_believed() {
    // Unoptimized, a decode is ten times slower: spread the damage thinner.
    let thin = if cfg!(debug_assertions) { 8 } else { 1 };
    let dir = scratch_dir();
    crafted_orders_are_refused();

    // Checker snapshots: the payload frame of each committed checkpoint,
    // through `from_bytes` and — in its file, behind its header — through
    // `latest_checkpoint`; then the header frame itself.
    for (n, name) in ["ser", "si", "sser"].iter().enumerate() {
        let file = format!("checkpoint-{:012}.mtcck", 200);
        let frames = frames_of(&fixture(&format!(
            "crates/store/tests/data/snapshot-v9-{name}.mtcck"
        )));
        let [header, payload] = frames.as_slice() else {
            panic!("{name}: a checkpoint file is two frames");
        };
        assert!(from_bytes::<CheckerSnapshot>(payload).is_ok(), "{name}");
        let lengths = lengths_of(payload);
        let amount = (2_048 / thin, 2_000 / thin / 5, 2_048 / thin);
        damaged(payload, &lengths, amount, n as u64, |what, bytes| {
            let what = || format!("snapshot {name}, {}", what());
            held(&what, bytes.len(), || from_bytes::<CheckerSnapshot>(bytes));
        });
        let amount = (256 / thin, 400 / thin, 256 / thin);
        damaged(payload, &lengths, amount, 7 + n as u64, |what, bytes| {
            let what = || format!("checkpoint file {name}, payload {}", what());
            let damaged = reframed(&frames, 1, bytes);
            std::fs::write(dir.join(&file), &damaged).expect("write the checkpoint");
            held(&what, damaged.len(), || latest_checkpoint(&dir));
        });
        let lengths = lengths_of(header);
        damaged(
            header,
            &lengths,
            (usize::MAX, 2_000 / thin / 5, usize::MAX),
            n as u64,
            |what, bytes| {
                let what = || format!("checkpoint file {name}, header {}", what());
                let damaged = reframed(&frames, 0, bytes);
                std::fs::write(dir.join(&file), &damaged).expect("write the checkpoint");
                held(&what, damaged.len(), || latest_checkpoint(&dir));
            },
        );
        std::fs::remove_file(dir.join(&file)).expect("remove the checkpoint");
    }
    let large = large_snapshot();
    assert!(large.len() > 400_000 && from_bytes::<CheckerSnapshot>(&large).is_ok());
    let amount = (128 / thin, 200 / thin, 256 / thin);
    damaged(&large, &lengths_of(&large), amount, 99, |what, bytes| {
        let what = || format!("the large snapshot, {}", what());
        held(&what, bytes.len(), || from_bytes::<CheckerSnapshot>(bytes));
    });

    // Log records: each record of the committed segment damaged in its
    // file, through `read_log`; and every transaction it holds as a lone
    // record, through `from_bytes`.
    let file = dir.join("segment-00000000.mtclog");
    let segment = frames_of(&fixture("crates/store/tests/data/segment-v3.mtclog"));
    for (at, payload) in segment.iter().enumerate().skip(1) {
        let lengths = lengths_of(payload);
        let amount = (usize::MAX, 10, usize::MAX);
        damaged(payload, &lengths, amount, at as u64, |what, bytes| {
            let what = || format!("log record {at}, {}", what());
            let damaged = reframed(&segment, at, bytes);
            std::fs::write(&file, &damaged).expect("write the segment");
            held(&what, damaged.len(), || read_log(&dir));
        });
    }
    std::fs::write(&file, reframed(&segment, 0, &segment[0])).expect("write the segment");
    let log = read_log(&dir).expect("the committed segment reads");
    assert_eq!(log.txns.len(), 200);
    for (at, txn) in log.txns.into_iter().enumerate() {
        let payload = to_bytes(&LogRecord::Txn(txn));
        let lengths = lengths_of(&payload);
        damaged(
            &payload,
            &lengths,
            (usize::MAX, 10, usize::MAX),
            at as u64,
            |what, bytes| {
                let what = || format!("lone log record {at}, {}", what());
                held(&what, bytes.len(), || from_bytes::<LogRecord>(bytes));
            },
        );
    }

    // Wire envelopes: every frame of the committed streams — protocol 4's,
    // and protocol 3's, names and all — as a payload through `from_bytes`
    // and in its stream through `FrameBuf::pop`. Each holds the requests
    // first, `MetricsSnapshot` the last of them.
    for name in ["frames-v4.bin", "frames-pr21.bin"] {
        let wire = frames_of(&fixture(&format!("crates/net/tests/data/{name}")));
        let requests = 1 + wire
            .iter()
            .rposition(|payload| from_bytes::<RequestEnvelope>(payload).is_ok())
            .expect("the stream holds requests");
        assert!(requests > 10 && wire.len() - requests > 10, "{name}");
        for (at, payload) in wire.iter().enumerate() {
            let lengths = lengths_of(payload);
            let amount = (usize::MAX, 2_000 / wire.len() + 1, usize::MAX);
            damaged(payload, &lengths, amount, at as u64, |what, bytes| {
                let what = || format!("{name}, envelope {at}, {}", what());
                let stream = reframed(&wire[at..=at], 0, bytes);
                let mut buf = FrameBuf::default();
                buf.fill(&mut stream.as_slice()).expect("a slice reads");
                if at < requests {
                    held(&what, bytes.len(), || from_bytes::<RequestEnvelope>(bytes));
                    held(&what, stream.len(), || buf.pop::<RequestEnvelope>());
                } else {
                    held(&what, bytes.len(), || from_bytes::<ReplyEnvelope>(bytes));
                    held(&what, stream.len(), || buf.pop::<ReplyEnvelope>());
                }
            });
        }
    }

    // The frames underneath: the raw streams, straight to `read_frame`.
    for name in [
        "crates/store/tests/data/segment-v3.mtclog",
        "crates/store/tests/data/segment-v2-pr21.mtclog",
        "crates/net/tests/data/frames-v4.bin",
        "crates/net/tests/data/frames-pr21.bin",
    ] {
        frame_stream_held(name, &fixture(name), 2_000 / thin);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
