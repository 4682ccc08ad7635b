//! The log format, held from the writer's side. `tests/data/segment-v3.mtclog`
//! is the one segment the build that introduced `LOG_VERSION` 3 (positional
//! records: no field names, no key table) wrote for the 200-transaction
//! fixture stream of `store_differential.rs`; every later build must append
//! the same bytes — frame lengths and CRCs included.
//!
//! `tests/data/segment-v2-pr21.mtclog` is the one v2 segment an older build
//! (one that encoded every record through an owned value tree and interned
//! its keys into a per-segment table) wrote for the same stream. It must read
//! back, and a log whose tail it is must be continued in a fresh segment of
//! this build's version, its own bytes untouched.
//!
//! To regenerate the v3 fixture (only a `LOG_VERSION` bump should ever need
//! it — and then under the new version's name, the old one kept as an input
//! that must still read): delete it, run this test on the build that is to
//! be the reference and copy `<target>/tmp/segment.actual.mtclog` over it.

use mtc_core::IsolationLevel;
use mtc_history::{Op, SessionId, Transaction, TxnId, TxnStatus};
use mtc_store::frame::read_frame;
use mtc_store::{read_log, LogWriter, StreamMeta, LOG_VERSION};
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
        assert_eq!((log.txns, log.last_segment_version), (fixture_stream(), 3));
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

#[test]
fn a_parent_written_segment_reads_back_and_is_continued_byte_for_byte() {
    let whole = fixture(V2);
    let stream = fixture_stream();

    let log = read_log_of("read", &whole);
    assert_eq!(log.meta, meta());
    assert_eq!(log.txns, stream);
    assert!(!log.torn_tail);
    assert_eq!(log.last_segment_version, 2);

    // Cut the parent's segment after its header, stream metadata and first
    // `kept` transactions — early enough that keys are still to be added to
    // the segment's table, and again once the table is complete — and let
    // this build write the rest: in a fresh segment of its own version,
    // begun before the first append, the parent's bytes as they were.
    for kept in [0usize, 1, 77] {
        let mut cut = 0;
        for _ in 0..kept + 2 {
            read_frame(&whole, &mut cut).unwrap();
        }
        let dir = tmpdir(&format!("continue{kept}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(only_segment(&dir), &whole[..cut]).unwrap();
        let (mut w, recovered) = LogWriter::open_append(&dir).unwrap();
        assert_eq!(recovered.txns, stream[..kept]);
        assert_eq!(recovered.last_segment_version, 2);
        assert_eq!(read_log(&dir).unwrap().last_segment_version, LOG_VERSION);
        for t in &stream[kept..] {
            w.append(t).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        assert!(
            std::fs::read(only_segment(&dir)).unwrap() == whole[..cut],
            "the parent's segment was rewritten after {kept} transactions"
        );
        let segments = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(segments, 2, "continued after {kept} transactions");
        let log = read_log(&dir).unwrap();
        assert_eq!(log.txns, stream, "continued after {kept} transactions");
        assert_eq!(log.last_segment_version, LOG_VERSION);
        assert!(!log.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
