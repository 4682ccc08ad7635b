//! The log format, held from the writer's side. `tests/data/segment-v3.mtclog`
//! is the one segment the build that introduced `LOG_VERSION` 3 (positional
//! records: no field names, no key table) wrote for the 200-transaction
//! fixture stream of `store_differential.rs`; every later build must append
//! the same bytes — frame lengths and CRCs included.
//!
//! `tests/data/segment-v2-pr21.mtclog` is the one v2 segment an older build
//! (one that interned its record keys into a per-segment table) wrote for
//! the same stream. This build reads the log version it writes and no other:
//! every way into a log refuses a v2 segment by its version — as the head
//! of a log, and as the head of one that an older build continued in v3
//! segments — and leaves the directory as it was.
//!
//! To regenerate the v3 fixture (only a `LOG_VERSION` bump should ever need
//! it — and then under the new version's name, the old one kept as an input
//! that must be refused by its version): delete it, run this test on the
//! build that is to be the reference and copy
//! `<target>/tmp/segment.actual.mtclog` over it.

use mtc_core::IsolationLevel;
use mtc_history::{Op, SessionId, Transaction, TxnId, TxnStatus};
use mtc_store::frame::read_frame;
use mtc_store::{read_log, recover, LogWriter, MtcStore, StoreError, StreamMeta};
use std::path::{Path, PathBuf};

const KEYS: u64 = 4;

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    std::fs::read(path).unwrap_or_default()
}

const CURRENT: &str = "segment-v3.mtclog";
const V2: &str = "segment-v2-pr21.mtclog";

fn meta() -> StreamMeta {
    StreamMeta {
        level: IsolationLevel::Serializability,
        num_keys: KEYS,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtc_store_plog_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `store_differential.rs::fixture_stream()`, its `build_stream` folded in:
/// serial read-modify-writes over four keys and four sessions, a read-only
/// third, transaction 60 aborted, 100 missing its begin time, 170 committing
/// 120 ticks early, 185 reading a stale value.
fn fixture_stream() -> Vec<Transaction> {
    let mut state = [0u64; KEYS as usize];
    (0..200u64)
        .map(|i| {
            let k = (i.wrapping_mul(2_654_435_761) >> 7) % KEYS;
            let writes = i % 3 != 0;
            let aborted = i == 60;
            let mut ops = vec![Op::read(
                k,
                state[k as usize] / if i == 185 { 2 } else { 1 },
            )];
            if writes {
                ops.push(Op::write(k, i + 1));
                if !aborted {
                    state[k as usize] = i + 1;
                }
            }
            Transaction {
                id: TxnId(0),
                session: SessionId(((i / 3 + i) % 4) as u32),
                ops,
                status: if aborted {
                    TxnStatus::Aborted
                } else {
                    TxnStatus::Committed
                },
                begin: (i != 100).then_some(10 * i + 1),
                end: Some(10 * i + 7 - if i == 170 { 120 } else { 0 }),
            }
        })
        .collect()
}

fn only_segment(dir: &Path) -> PathBuf {
    dir.join("segment-00000000.mtclog")
}

#[test]
fn this_build_appends_the_bytes_the_parent_wrote() {
    let dir = tmpdir("write");
    let mut w = LogWriter::create(&dir, &meta()).unwrap();
    for t in &fixture_stream() {
        w.append(t).unwrap();
    }
    w.sync().unwrap();
    drop(w);
    let actual = std::fs::read(only_segment(&dir)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    if actual == fixture(CURRENT) {
        let log = read_log_of("reread", &actual);
        assert_eq!(log.txns, fixture_stream());
        return;
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("segment.actual.mtclog");
    std::fs::write(&path, &actual).expect("write the actual segment");
    let at = actual
        .iter()
        .zip(fixture(CURRENT))
        .take_while(|(a, f)| *a == f);
    panic!(
        "the appended segment differs from tests/data/{CURRENT} at byte {}; \
         this build's segment is in {}",
        at.count(),
        path.display()
    );
}

/// The log of the one segment `bytes`, read in the scratch directory `tag`.
fn read_log_of(tag: &str, bytes: &[u8]) -> mtc_store::RecoveredLog {
    let dir = tmpdir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(only_segment(&dir), bytes).unwrap();
    let log = read_log(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    log
}

/// Every file of `dir` by name, with its bytes.
fn files_of(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// `outcome` is the refusal of a log whose head segment is of version 2.
fn assert_refused<T>(outcome: Result<T, StoreError>, what: &str) {
    match outcome {
        Err(StoreError::Format(why)) => {
            assert!(why.contains("unsupported log version 2"), "{what}: {why}")
        }
        Err(other) => panic!("{what}: refused for another reason: {other}"),
        Ok(_) => panic!("{what}: a v2 log was read"),
    }
}

/// The offset in `bytes` after its first `frames` frames.
fn offset_after(bytes: &[u8], frames: usize) -> usize {
    let mut pos = 0;
    for _ in 0..frames {
        read_frame(bytes, &mut pos).unwrap();
    }
    pos
}

#[test]
fn a_v2_segment_is_refused_by_version_and_left_as_it_was() {
    let v2 = fixture(V2);
    let alone = tmpdir("v2_alone");
    std::fs::create_dir_all(&alone).unwrap();
    std::fs::write(only_segment(&alone), &v2).unwrap();

    // As an older build's `open_append` left a v2 log: the v2 segment with
    // its header, stream metadata and first `KEPT` transactions, the rest of
    // the stream behind it in v3 segments. This build writes those, rotating
    // where the v2 segment ends, and the v2 segment takes the head's place.
    const KEPT: usize = 77;
    let v3 = fixture(CURRENT);
    let records = offset_after(&v3, KEPT + 2) - offset_after(&v3, 1);
    let continued = tmpdir("v2_continued");
    let mut w = LogWriter::create_with_segment_bytes(&continued, &meta(), records).unwrap();
    for t in &fixture_stream() {
        w.append(t).unwrap();
    }
    drop(w);
    let head = std::fs::read(only_segment(&continued)).unwrap();
    assert_eq!(offset_after(&head, KEPT + 2), head.len());
    assert!(files_of(&continued).len() > 2);
    std::fs::write(only_segment(&continued), &v2[..offset_after(&v2, KEPT + 2)]).unwrap();

    for dir in [&alone, &continued] {
        let before = files_of(dir);
        assert_refused(read_log(dir), "read_log");
        assert_refused(LogWriter::open_append(dir), "LogWriter::open_append");
        assert_refused(recover(dir), "recover");
        assert_refused(MtcStore::open_append(dir), "MtcStore::open_append");
        assert_eq!(files_of(dir), before, "{}", dir.display());
        let _ = std::fs::remove_dir_all(dir);
    }
}
