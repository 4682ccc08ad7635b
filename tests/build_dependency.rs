//! `BUILDDEPENDENCY` against the definition it implements.
//!
//! `build_dependency` derives its `RW` edges by sorting and merging flat edge
//! lists and adds them without looking whether they are there already. The
//! oracle below reads Definition 3 / Algorithm 1 literally — sets, and a loop
//! over every pair — and the two must agree on random executions that are
//! anything but serial: stale reads, forks of the version order, one version
//! read by many, aborted attempts, with `⊥T` and without.

use mtc::core::{build_dependency, build_dependency_reference};
use mtc::history::{Edge, EdgeKind, History, HistoryBuilder, Key, Op, TxnId, WriteIndex};
use proptest::prelude::*;
use std::collections::HashSet;

/// One generated mini-transaction: `(key, key, version, version, mode)`.
/// The versions pick, among the committed versions of each key so far, the
/// one that is read; the mode bits pick the shape.
type Step = (u64, u64, u64, u64, u8);

const TWO_KEYS: u8 = 1;
const WRITE_FIRST: u8 = 2;
const WRITE_SECOND: u8 = 4;
const ABORTED: u8 = 8;
/// `R(a) W(a) R(b) W(b)` instead of `R(a) R(b) W(a) W(b)`.
const INTERLEAVED: u8 = 16;
/// One key only: `R(a) W(a) R(a)`, the second read internal.
const READ_BACK: u8 = 32;

/// Executes `steps` against a store that lets every read pick *any*
/// committed version of its key. Before step `hot_at`, `hot_readers`
/// transactions read one and the same version of key 0, and those whose bit
/// of `hot_writers` is set overwrite it: one version with many readers and
/// several overwriters.
fn execute(
    steps: &[Step],
    keys: u64,
    sessions: u32,
    with_init: bool,
    (hot_at, hot_readers, hot_writers): (usize, u32, u32),
) -> History {
    let mut b = if with_init {
        HistoryBuilder::new().with_init(keys)
    } else {
        HistoryBuilder::new()
    };
    // Committed versions per key; the first is the initial value, which
    // without `⊥T` nobody wrote.
    let mut versions = vec![vec![0u64]; keys as usize];
    let mut fresh = 0u64;
    let mut session = 0..;
    let mut next_session = move || session.next().unwrap() % sessions;
    for (i, &(k1, k2, v1, v2, mode)) in steps.iter().enumerate() {
        if i == hot_at % steps.len() {
            let hot = *versions[0].last().unwrap();
            for reader in 0..hot_readers {
                let mut ops = vec![Op::read(0u64, hot)];
                if hot_writers >> reader & 1 == 1 {
                    fresh += 1;
                    ops.push(Op::write(0u64, fresh));
                    versions[0].push(fresh);
                }
                b.committed(next_session(), ops);
            }
        }
        let a = k1 % keys;
        let pick = |key: u64, v: u64| {
            let of_key = &versions[key as usize];
            of_key[(v % of_key.len() as u64) as usize]
        };
        let mut write = |ops: &mut Vec<Op>, key: u64| {
            fresh += 1;
            ops.push(Op::write(key, fresh));
            fresh
        };
        let mut ops = vec![Op::read(a, pick(a, v1))];
        let mut written = Vec::new();
        if mode & READ_BACK != 0 {
            let value = write(&mut ops, a);
            ops.push(Op::read(a, value));
            written.push((a, value));
        } else {
            let c = k2 % keys;
            let second = (mode & TWO_KEYS != 0 && c != a).then(|| Op::read(c, pick(c, v2)));
            let interleaved = mode & INTERLEAVED != 0;
            if !interleaved {
                ops.extend(second);
            }
            if mode & WRITE_FIRST != 0 {
                written.push((a, write(&mut ops, a)));
            }
            if interleaved {
                ops.extend(second);
            }
            if second.is_some() && mode & WRITE_SECOND != 0 {
                written.push((c, write(&mut ops, c)));
            }
        }
        if mode & ABORTED != 0 {
            // Recorded, and read by nobody.
            b.aborted(next_session(), ops);
        } else {
            b.committed(next_session(), ops);
            for (key, value) in written {
                versions[key as usize].push(value);
            }
        }
    }
    b.build()
}

/// The dependency graph of `history` as Definition 3 and Algorithm 1 word
/// it, a set of labelled edges: `SO` between a session's consecutive
/// committed transactions (`⊥T` first), `WR(x)` from the writer of what a
/// transaction externally reads, `WW(x)` wherever a `WR(x)` target also
/// writes `x`, with `closure` their transitive closure per key, and `RW(x)`
/// from every reader of a version to every other overwriter of it.
fn definition(history: &History, closure: bool) -> HashSet<Edge> {
    let edge = |from, to, kind| Edge { from, to, kind };
    let init = history.init_txn();
    let mut edges = HashSet::new();
    for session in history.sessions() {
        let mut previous = init;
        for &t in session.iter().filter(|&&t| history.txn(t).is_committed()) {
            edges.extend(previous.map(|p| edge(p, t, EdgeKind::So)));
            previous = Some(t);
        }
    }
    let index = WriteIndex::new(history);
    let mut wr: Vec<(TxnId, TxnId, Key)> = Vec::new();
    for txn in history.committed().filter(|t| Some(t.id) != init) {
        for key in txn.key_set() {
            let read = txn.external_read(key);
            let writer = read.and_then(|value| index.final_writer(key, value));
            wr.extend(writer.map(|w| (w, txn.id, key)));
        }
    }
    let mut ww: HashSet<(TxnId, TxnId, Key)> = (wr.iter().copied())
        .filter(|&(_, reader, key)| history.txn(reader).writes(key))
        .collect();
    // The closure as a fixpoint: while two WW(x) edges meet, add the hop.
    let mut grew = closure;
    while grew {
        let longer: Vec<_> = (ww.iter())
            .flat_map(|&(a, b, x)| {
                ww.iter()
                    .filter_map(move |&(c, d, y)| (b == c && x == y).then_some((a, d, x)))
            })
            .filter(|hop| !ww.contains(hop))
            .collect();
        grew = !longer.is_empty();
        ww.extend(longer);
    }
    for &(writer, reader, key) in &wr {
        edges.insert(edge(writer, reader, EdgeKind::Wr(key)));
        for &(w, overwriter, x) in &ww {
            if (w, x) == (writer, key) && overwriter != reader {
                edges.insert(edge(reader, overwriter, EdgeKind::Rw(key)));
            }
        }
    }
    edges.extend(ww.iter().map(|&(a, b, key)| edge(a, b, EdgeKind::Ww(key))));
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The labelled edge *multiset* of both variants is the definition's
    /// set: nothing missing, nothing invented, and no edge twice — what
    /// `add_edge_dedup` used to enforce by scanning a row per `RW` edge.
    #[test]
    fn the_derivation_is_the_definition(
        steps in prop::collection::vec((0u64..4, 0u64..4, 0u64..64, 0u64..64, 0u8..64), 1..40),
        keys in 1u64..4,
        sessions in 1u32..4,
        with_init in any::<bool>(),
        hot in (0usize..40, 8u32..12, 0u32..4096),
    ) {
        let history = execute(&steps, keys, sessions, with_init, hot);
        let variants = [
            (build_dependency as fn(&_, _) -> _, false),
            (build_dependency_reference, true),
        ];
        for (build, closure) in variants {
            let graph = build(&history, false).unwrap();
            let built: HashSet<Edge> = graph.edges().iter().copied().collect();
            prop_assert_eq!(built.len(), graph.edges().len(), "a labelled edge twice (closure: {})", closure);
            prop_assert_eq!(built, definition(&history, closure), "closure: {}", closure);
        }
    }
}
