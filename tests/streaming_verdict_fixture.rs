//! The streaming checker against two committed fixtures, which this build
//! must reproduce byte for byte. For the 14-anomaly catalogue and 220 seeded
//! hostile streams, at SER / SI / SSER, with and without GC and `⊥T`:
//!
//! * `tests/data/streaming-verdicts.txt` holds what `IncrementalChecker`
//!   said — every `push` status, `first_violation_at`, `edge_count` and
//!   `{:?}` of `finish()`, cycles edge for edge. Nothing in it depends on
//!   the snapshot format. Its verdicts and first-violation indices go back
//!   to the build before the engine's event vocabulary went (commit
//!   890a952); 40 SI certificates moved when SI went into the one
//!   maintained order (`SNAPSHOT_VERSION` 7: 36 hops relabelled by the
//!   lower-ranked kind, 4 other cycles closed by the same edge); 13 SSER
//!   lines moved when the time-chain kept one anchor per commit instant
//!   (`SNAPSHOT_VERSION` 9: 42 certificates across the variants, each a
//!   cycle through a shorter real-time hop, or as short through another).
//! * `tests/data/streaming-snapshots-v9.txt` holds the CRC-32 of the
//!   encoded `checkpoint()` every 16th push and at the end: the bytes half,
//!   which moves with every change of the snapshot format.
//!
//! One line per (stream, level) in each file: a CRC over the records of all
//! 4 variants, and in the verdict file the first variant's record in clear,
//! so a failing line can be read. Unlike the batch fixture, cycles are
//! compared **edge for edge**: the order in which a transaction's
//! consequences are applied decides which edge closes which cycle and every
//! adjacency list a snapshot carries, and it is deterministic across
//! processes.
//!
//! To regenerate after an *intentional* change of that order — one that
//! keeps the snapshot format — run this test in a clone of the parent commit
//! with empty fixture files, and copy `streaming-verdicts.actual.txt` and
//! `streaming-snapshots.actual.txt` from the path the failure prints.
//!
//! A change of the snapshot format (a `SNAPSHOT_VERSION` bump) moves every
//! snapshot CRC, and a clone of the parent cannot write the new ones. The
//! verdict file must not move then: regenerate only the bytes file, on the
//! change itself, by running this test twice, in two processes, and checking
//! both wrote the same bytes. A change that moves a verdict line lists every
//! moved line, with why, in CHANGES.md before the new file replaces the old.

use mtc::core::{build_dependency, CheckError, OrderEdge, Violation};
use mtc::history::anomalies::AnomalyKind;
use mtc::history::{History, HistoryBuilder, Op, SessionId, Transaction, TxnId};
use mtc::store::{crc32, to_bytes};
use mtc::{GcPolicy, IncrementalChecker, IsolationLevel, StreamStatus};

#[path = "../crates/core/tests/common/streams.rs"]
mod streams;

const VERDICTS: &str = include_str!("data/streaming-verdicts.txt");
const SNAPSHOTS: &str = include_str!("data/streaming-snapshots-v9.txt");
const STREAMS: u64 = 220;
const LEVELS: [(&str, IsolationLevel); 3] = [
    ("SER", IsolationLevel::Serializability),
    ("SI", IsolationLevel::SnapshotIsolation),
    ("SSER", IsolationLevel::StrictSerializability),
];
const GC: GcPolicy = GcPolicy {
    window: 24,
    every: 8,
};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True `percent` times out of a hundred.
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// What the generator remembers of one key.
#[derive(Default)]
struct KeyModel {
    /// Committed last writes, oldest first (`⊥T`'s 0 is implicit).
    installed: Vec<u64>,
    /// Values some earlier reader already returned that nobody has written
    /// yet: a later writer of the key picks them up, resolving the wait.
    promised: Vec<u64>,
    /// Values that only aborted or overwritten-before-commit writes carried.
    never_visible: Vec<u64>,
}

/// One seeded stream: `keys`, then the transactions in push order (ids are
/// assigned by the checker). A third of the streams are nearly clean, so the
/// checker reaches the tail with a large state; a third are hostile, and
/// most of them latch early.
fn stream(seed: u64) -> (u64, Vec<Transaction>) {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ (seed + 1).wrapping_mul(0xD134_2543_DE82_EF95));
    let keys = 2 + rng.below(4);
    let sessions = 1 + rng.below(5);
    let len = 24 + rng.below(25);
    let class = (seed % 3) as usize;
    // Per-transaction (shape) and per-key (the rest) rates, in percent.
    let bad_shape = [0, 2, 6][class];
    let stale = [1, 3, 8][class];
    let early = [2, 4, 8][class];
    let invisible = [0, 2, 5][class];
    let thin_air = [0, 1, 3][class];
    let duplicate = [0, 1, 4][class];
    let wrong_reread = [0, 20, 50][class];
    let backwards = [0, 1, 4][class];
    let clock = rng.below(4);
    let mut model: Vec<KeyModel> = (0..keys).map(|_| KeyModel::default()).collect();
    let mut fresh = 1u64;
    let mut txns = Vec::new();
    for i in 0..len {
        // A mini-transaction has at most two reads and two writes.
        let break_shape = rng.chance(bad_shape);
        let nkeys = match rng.below(10) {
            _ if break_shape && rng.chance(50) => 3,
            0..=4 => 1,
            _ => 2,
        };
        let mut picked: Vec<u64> = Vec::new();
        while picked.len() < nkeys.min(keys as usize) {
            let k = rng.below(keys);
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
        let spare = if break_shape { 9 } else { 2 };
        let mut spare_reads = spare - picked.len().min(spare);
        let mut spare_writes = spare;
        let committed = !rng.chance(8);
        let interleave = rng.chance(50);
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for &k in &picked {
            let m = &mut model[k as usize];
            let latest = m.installed.last().copied().unwrap_or(0);
            let any =
                |list: &[u64], rng: &mut XorShift| list[rng.below(list.len() as u64) as usize];
            let read = if rng.chance(stale) {
                if m.installed.is_empty() || rng.chance(30) {
                    0
                } else {
                    any(&m.installed, &mut rng)
                }
            } else if rng.chance(early) {
                // Not written yet: the read waits for a later writer.
                fresh += 1;
                m.promised.push(fresh);
                fresh
            } else if rng.chance(invisible) && !m.never_visible.is_empty() {
                any(&m.never_visible, &mut rng)
            } else if rng.chance(thin_air) {
                1_000_000 + i
            } else {
                latest
            };
            let mut ops = vec![Op::read(k, read)];
            if spare_reads > 0 && rng.chance(15) {
                spare_reads -= 1;
                let again = if rng.chance(wrong_reread) {
                    latest + 1
                } else {
                    read
                };
                ops.push(Op::read(k, again));
            }
            let mut mine = Vec::new();
            if spare_writes > 0 && rng.chance(60) {
                if spare_writes > 1 && rng.chance(12) {
                    // Overwritten before the commit.
                    fresh += 1;
                    mine.push(fresh);
                    m.never_visible.push(fresh);
                }
                let last = if rng.chance(duplicate) && !m.installed.is_empty() {
                    any(&m.installed, &mut rng)
                } else if m.promised.first().is_some_and(|&p| p != read || class == 2)
                    && rng.chance(70)
                {
                    m.promised.remove(0)
                } else {
                    fresh += 1;
                    fresh
                };
                mine.push(last);
                spare_writes -= mine.len().min(spare_writes);
                if committed {
                    m.installed.push(last);
                } else {
                    m.never_visible.push(last);
                }
            }
            let mut wops: Vec<Op> = mine.iter().map(|&v| Op::write(k, v)).collect();
            if !mine.is_empty() && spare_reads > 0 && rng.chance(25) {
                spare_reads -= 1;
                // Read after own write: the last write, or not.
                let v = if !rng.chance(wrong_reread) {
                    mine[mine.len() - 1]
                } else if rng.chance(50) {
                    mine[0]
                } else {
                    latest
                };
                wops.push(Op::read(k, v));
            }
            if interleave {
                ops.append(&mut wops);
            }
            reads.push(ops);
            writes.push(wops);
        }
        if rng.chance(30) {
            // First-write order against first-touch order.
            writes.reverse();
        }
        let ops: Vec<Op> = reads.into_iter().chain(writes).flatten().collect();
        let session = SessionId(rng.below(sessions) as u32);
        let mut t = if committed {
            Transaction::committed(TxnId(0), session, ops)
        } else {
            Transaction::aborted(TxnId(0), session, ops)
        };
        // Instants: in stream order, overlapping, skewed into the past (now
        // and then ending before they begin), or partly missing.
        let now = 10 * (i + 1);
        let (begin, end) = match clock {
            0 => (now, now + 5),
            1 => (now - rng.below(10), now + rng.below(30)),
            _ if rng.chance(backwards) => (now + 40, now.saturating_sub(60)),
            _ => (now.saturating_sub(rng.below(40)), now + rng.below(8)),
        };
        t.begin = (clock != 3 || rng.chance(60)).then_some(begin);
        t.end = (clock != 3 || rng.chance(60)).then_some(end);
        if clock == 2 && rng.chance(25) {
            if rng.chance(50) {
                t.begin = None;
            } else {
                t.end = None;
            }
        }
        txns.push(t);
    }
    (keys, txns)
}

/// One run of a checker and everything observable of it.
struct Run {
    checker: IncrementalChecker,
    statuses: String,
    snapshots: Vec<u32>,
}

impl Run {
    fn new(level: IsolationLevel, gc: bool, init_keys: Option<u64>) -> Run {
        let mut checker = IncrementalChecker::new(level);
        if gc {
            checker.set_gc(GC);
        }
        if let Some(keys) = init_keys {
            checker = checker.with_init_keys(0..keys);
        }
        Run {
            checker,
            statuses: String::new(),
            snapshots: Vec::new(),
        }
    }

    fn snapshot(&mut self) {
        let bytes = to_bytes(&self.checker.checkpoint());
        self.snapshots.push(crc32(&bytes));
    }

    /// Notes the status a push returned; every 16th, the snapshot too.
    fn saw(&mut self, status: Result<StreamStatus, CheckError>) {
        self.statuses.push(match status {
            Ok(StreamStatus::ConsistentSoFar) => 'c',
            Ok(StreamStatus::Violated) => 'v',
            Err(_) => 'e',
        });
        if self.statuses.len().is_multiple_of(16) {
            self.snapshot();
        }
    }

    fn push_all<'a>(mut self, txns: impl IntoIterator<Item = &'a Transaction>) -> Record {
        for t in txns {
            let status = self.checker.push(t.clone());
            self.saw(status);
        }
        self.record()
    }

    /// The run as text: what it said, and the CRCs of its snapshots.
    fn record(mut self) -> Record {
        self.snapshot();
        let Run {
            checker,
            statuses,
            snapshots,
        } = self;
        let at = checker.first_violation_at();
        let edges = checker.edge_count();
        let said = format!(
            "pushes={statuses} at={at:?} edges={edges} verdict={:?}",
            checker.finish()
        );
        Record {
            said,
            snapshots: format!("{snapshots:x?}"),
        }
    }
}

/// One variant's run: the verdict half and the bytes half.
struct Record {
    said: String,
    snapshots: String,
}

/// The two fixture lines of one (stream, level): every variant's verdict
/// record folded into a CRC, the first variant's (no GC, `⊥T` as given) in
/// clear; and every variant's snapshot CRCs folded into one.
fn lines(name: &str, label: &str, records: &[Record], out: &mut Rendering) {
    let fold = |half: fn(&Record) -> &str| {
        let all: Vec<&str> = records.iter().map(half).collect();
        crc32(all.join("\n").as_bytes())
    };
    let said = fold(|r| &r.said);
    let default = &records[0].said;
    out.verdicts += &format!("{name} {label} variants={said:08x} default: {default}\n");
    let snapshots = fold(|r| &r.snapshots);
    out.snapshots += &format!("{name} {label} snapshots={snapshots:08x}\n");
}

/// Both fixtures as this build writes them.
#[derive(Default)]
struct Rendering {
    verdicts: String,
    snapshots: String,
}

fn render_all() -> Rendering {
    let mut out = Rendering::default();
    let mut count = 0;
    for kind in AnomalyKind::ALL {
        let h: History = kind.history();
        for (label, level) in LEVELS {
            let mut records = Vec::new();
            for gc in [false, true] {
                // As the history has it, through `push_history` ...
                let mut run = Run::new(level, gc, None);
                let status = run.checker.push_history(&h);
                run.saw(status);
                records.push(run.record());
                // ... and transaction by transaction without `⊥T`.
                let rest = h.txns().iter().filter(|t| Some(t.id) != h.init_txn());
                records.push(Run::new(level, gc, None).push_all(rest));
            }
            count += records.len();
            lines(&format!("catalogue/{kind}"), label, &records, &mut out);
        }
    }
    for seed in 0..STREAMS {
        let (keys, txns) = stream(seed);
        for (label, level) in LEVELS {
            let mut records = Vec::new();
            for gc in [false, true] {
                for init in [Some(keys), None] {
                    records.push(Run::new(level, gc, init).push_all(&txns));
                }
            }
            count += records.len();
            lines(&format!("stream/{seed:03}"), label, &records, &mut out);
        }
    }
    let head = format!("# {count} records\n");
    Rendering {
        verdicts: head.clone() + &out.verdicts,
        snapshots: head + &out.snapshots,
    }
}

/// The rendering, computed once for the two tests that compare it.
fn rendering() -> &'static Rendering {
    static RENDERING: std::sync::OnceLock<Rendering> = std::sync::OnceLock::new();
    RENDERING.get_or_init(render_all)
}

/// Fails, naming the first differing line and leaving this build's
/// rendering beside the test binary, unless `actual` is `fixture`.
fn matches(fixture_name: &str, fixture: &str, actual_name: &str, actual: &str) {
    if actual == fixture {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(actual_name);
    std::fs::write(&path, actual).expect("write the actual rendering");
    let line = actual
        .lines()
        .zip(fixture.lines())
        .position(|(a, f)| a != f)
        .unwrap_or_else(|| actual.lines().count().min(fixture.lines().count()));
    panic!(
        "{fixture_name} differs at line {}; this build's rendering is in {}",
        line + 1,
        path.display()
    );
}

#[test]
fn streaming_verdicts_match_the_parent_written_fixture() {
    matches(
        "tests/data/streaming-verdicts.txt",
        VERDICTS,
        "streaming-verdicts.actual.txt",
        &rendering().verdicts,
    );
}

#[test]
fn snapshot_crcs_match_the_fixture() {
    matches(
        "tests/data/streaming-snapshots-v9.txt",
        SNAPSHOTS,
        "streaming-snapshots.actual.txt",
        &rendering().snapshots,
    );
}

#[test]
fn the_fixture_exercises_every_outcome_class() {
    assert!(
        VERDICTS.lines().count() <= 800,
        "the fixture outgrew its cap"
    );
    for class in [
        "verdict=Ok(Satisfied)",
        "verdict=Ok(Violated(Cycle",
        "verdict=Ok(Violated(Intra(",
        "verdict=Ok(Violated(Divergence",
        "verdict=Err(NotMiniTransaction(DuplicateValue",
        "verdict=Err(NotMiniTransaction(TooManyReads",
        "-RT->",
        "IntermediateRead",
        "AbortedRead",
        "ThinAirRead",
        "FutureRead",
        "NotMyLastWrite",
        "NonRepeatableReads",
    ] {
        assert!(VERDICTS.contains(class), "no `{class}` in the fixture");
    }
    // Late latches: some default-variant stream is still consistent after
    // its 32nd push and violated before its last.
    let late = VERDICTS.lines().any(|l| {
        l.split("pushes=")
            .nth(1)
            .is_some_and(|p| p.starts_with(&"c".repeat(32)) && p.contains('v'))
    });
    assert!(late, "no stream latches after its 32nd transaction");
}

/// Every SI cycle the checker reports on the seeded streams — in each of the
/// fixture's four variants — is a cycle of `(SO ∪ WR ∪ WW) ; RW?` over the
/// edges `build_dependency` derives from the prefix it consumed
/// (`streams::assert_si_certificate`). A prefix with a read that still
/// waits for its writer has no dependency graph of its own and is not
/// checked.
#[test]
fn si_certificates_of_the_seeded_streams_are_composed_cycles() {
    let mut checked = 0;
    for seed in 0..STREAMS {
        let (keys, txns) = stream(seed);
        for gc in [false, true] {
            for init in [Some(keys), None] {
                let mut checker = Run::new(IsolationLevel::SnapshotIsolation, gc, init).checker;
                let mut prefix = match init {
                    Some(keys) => HistoryBuilder::new().with_init_keys(0..keys),
                    None => HistoryBuilder::new(),
                };
                for t in &txns {
                    prefix.push_cloned(t.clone());
                    if checker.push(t.clone()) != Ok(StreamStatus::ConsistentSoFar) {
                        break;
                    }
                }
                let Some(Violation::Cycle { edges }) = checker.violation() else {
                    continue;
                };
                if let Ok(graph) = build_dependency(&prefix.build(), false) {
                    streams::assert_si_certificate(graph.edges(), edges);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 200, "only {checked} SI cycles checked");
}

/// Every SSER cycle the checker reports on the seeded streams — in each of
/// the fixture's four variants — is a real-time and dependency cycle of the
/// prefix it consumed (`streams::assert_sser_certificate`), the fixture's
/// certificates among them. A prefix with a read that still waits for its
/// writer has no dependency graph of its own and is not checked.
#[test]
fn sser_certificates_of_the_seeded_streams_are_real_time_cycles() {
    let mut checked = 0;
    for seed in 0..STREAMS {
        let (keys, txns) = stream(seed);
        for gc in [false, true] {
            for init in [Some(keys), None] {
                let level = IsolationLevel::StrictSerializability;
                let mut checker = Run::new(level, gc, init).checker;
                let mut prefix = match init {
                    Some(keys) => HistoryBuilder::new().with_init_keys(0..keys),
                    None => HistoryBuilder::new(),
                };
                for t in &txns {
                    prefix.push_cloned(t.clone());
                    if checker.push(t.clone()) != Ok(StreamStatus::ConsistentSoFar) {
                        break;
                    }
                }
                if let Some(Violation::Cycle { edges }) = checker.violation() {
                    let history = prefix.build();
                    checked += usize::from(streams::assert_sser_certificate(&history, edges));
                }
            }
        }
    }
    assert!(checked >= 200, "only {checked} SSER cycles checked");
}

/// The order keeps each pair of nodes once, with its best label: on the
/// seeded streams, in each of the fixture's four variants at every level,
/// no row a stream leaves holds a pair twice (`streams::assert_no_pair_twice`).
#[test]
fn the_seeded_streams_leave_no_labelled_edge_twice() {
    for seed in 0..STREAMS {
        let (keys, txns) = stream(seed);
        for (_, level) in LEVELS {
            for gc in [false, true] {
                for init in [Some(keys), None] {
                    let mut checker = Run::new(level, gc, init).checker;
                    for t in &txns {
                        let _ = checker.push(t.clone());
                    }
                    streams::assert_no_pair_twice(&checker.order_edges());
                }
            }
        }
    }
}
