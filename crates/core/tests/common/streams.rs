//! The random streams the streaming engine's differential tests draw from:
//! valid serial mini-transaction histories, timed ones, their corruptions,
//! and the small GC geometries they are checked under; the checks an SI
//! and an SSER cycle certificate are held to, and the one the labelled rows
//! of a streamed order are held to. Included by `streaming_differential.rs`,
//! by the engine's own unit tests (which hold the GC's closure to its
//! reference on them) and by the streaming verdict fixture's test; the
//! includer brings `build_dependency`, `GcPolicy` and `OrderEdge` into
//! scope.

#![allow(dead_code)]

use super::{build_dependency, GcPolicy, OrderEdge};
use mtc_history::{
    DependencyGraph, Edge, EdgeKind, History, HistoryBuilder, Op, Transaction, TxnId, Value,
};
use proptest::prelude::*;

/// Mini-transaction shapes, as in the top-level differential suite.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    ReadOne,
    ReadTwo,
    Rmw,
    DoubleRmw,
    WriteSkewHalf,
}

pub fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::ReadOne),
        Just(Shape::ReadTwo),
        Just(Shape::Rmw),
        Just(Shape::DoubleRmw),
        Just(Shape::WriteSkewHalf),
    ]
}

/// Builds a valid serial MT history (satisfies SER and SI by construction).
pub fn serial_history(shapes: &[(Shape, u64, u64)], keys: u64, sessions: u32) -> History {
    let keys = keys.max(2);
    let mut state = vec![0u64; keys as usize];
    let mut next_value = 1u64;
    let mut builder = HistoryBuilder::new().with_init(keys);
    for (i, &(shape, k1, k2)) in shapes.iter().enumerate() {
        let a = (k1 % keys) as usize;
        let b = (k2 % keys) as usize;
        let b = if a == b { (a + 1) % keys as usize } else { b };
        let session = (i as u32) % sessions;
        let mut ops = Vec::new();
        match shape {
            Shape::ReadOne => ops.push(Op::read(a as u64, state[a])),
            Shape::ReadTwo => {
                ops.push(Op::read(a as u64, state[a]));
                ops.push(Op::read(b as u64, state[b]));
            }
            Shape::Rmw => {
                ops.push(Op::read(a as u64, state[a]));
                ops.push(Op::write(a as u64, next_value));
                state[a] = next_value;
                next_value += 1;
            }
            Shape::DoubleRmw => {
                ops.push(Op::read(a as u64, state[a]));
                ops.push(Op::write(a as u64, next_value));
                state[a] = next_value;
                next_value += 1;
                ops.push(Op::read(b as u64, state[b]));
                ops.push(Op::write(b as u64, next_value));
                state[b] = next_value;
                next_value += 1;
            }
            Shape::WriteSkewHalf => {
                ops.push(Op::read(a as u64, state[a]));
                ops.push(Op::read(b as u64, state[b]));
                ops.push(Op::write(a as u64, next_value));
                state[a] = next_value;
                next_value += 1;
            }
        }
        builder.committed(session, ops);
    }
    builder.build()
}

/// Corrupts one read to return a stale value (may or may not introduce a
/// violation — stale pure reads can still be serializable).
pub fn corrupt(history: &History, txn_pick: usize, stale: u64) -> History {
    let mut builder = HistoryBuilder::new().with_init(history.keys().len() as u64);
    let user_txns: Vec<_> = history
        .txns()
        .iter()
        .filter(|t| Some(t.id) != history.init_txn())
        .collect();
    let target = txn_pick % user_txns.len().max(1);
    for (i, t) in user_txns.iter().enumerate() {
        let mut ops = t.ops.clone();
        if i == target {
            if let Some(Op::Read { value, .. }) = ops.first_mut() {
                *value = Value(stale % value.raw().max(1));
            }
        }
        builder.committed(t.session.0, ops);
    }
    builder.build()
}

/// Like [`serial_history`], but every transaction carries a commit interval:
/// begins are non-decreasing (`gap` apart) and each transaction stays open
/// for `duration` ticks, so large durations produce intervals overlapping
/// many successors — which must *not* constrain the real-time order. The key
/// space is shifted by `key_offset`.
pub fn timed_serial_history(
    shapes: &[(Shape, u64, u64)],
    keys: u64,
    sessions: u32,
    key_offset: u64,
    intervals: &[(u64, u64)],
) -> History {
    let keys = keys.max(2);
    let mut state = vec![0u64; keys as usize];
    let mut next_value = 1u64;
    let mut builder = HistoryBuilder::new().with_init_keys((0..keys).map(|k| k + key_offset));
    let mut begin = 1u64;
    for (i, &(shape, k1, k2)) in shapes.iter().enumerate() {
        let a = (k1 % keys) as usize;
        let b = (k2 % keys) as usize;
        let b = if a == b { (a + 1) % keys as usize } else { b };
        let session = (i as u32) % sessions;
        let (ka, kb) = (a as u64 + key_offset, b as u64 + key_offset);
        let mut ops = Vec::new();
        match shape {
            Shape::ReadOne => ops.push(Op::read(ka, state[a])),
            Shape::ReadTwo => {
                ops.push(Op::read(ka, state[a]));
                ops.push(Op::read(kb, state[b]));
            }
            Shape::Rmw => {
                ops.push(Op::read(ka, state[a]));
                ops.push(Op::write(ka, next_value));
                state[a] = next_value;
                next_value += 1;
            }
            Shape::DoubleRmw => {
                ops.push(Op::read(ka, state[a]));
                ops.push(Op::write(ka, next_value));
                state[a] = next_value;
                next_value += 1;
                ops.push(Op::read(kb, state[b]));
                ops.push(Op::write(kb, next_value));
                state[b] = next_value;
                next_value += 1;
            }
            Shape::WriteSkewHalf => {
                ops.push(Op::read(ka, state[a]));
                ops.push(Op::read(kb, state[b]));
                ops.push(Op::write(ka, next_value));
                state[a] = next_value;
                next_value += 1;
            }
        }
        let (gap, duration) = intervals[i % intervals.len().max(1)];
        begin += gap;
        builder.committed_timed(session, ops, begin, begin + duration);
    }
    builder.build()
}

/// Rebuilds a timed history, pulling the *reported* end of the `pick`-th
/// user transaction `delta` ticks into the past (clock skew; saturating, so
/// a large delta yields a self-inconsistent interval), optionally replacing
/// the first read of the `corrupt`-th transaction with a stale value, and
/// optionally stripping one instant of the `strip`-th transaction (a
/// partially timed record — only its remaining side constrains real time).
pub fn skewed(
    history: &History,
    pick: usize,
    delta: u64,
    corrupt: Option<(usize, u64)>,
    strip: Option<(usize, bool)>,
) -> History {
    let init_keys = history.init_txn().map(|id| history.txn(id).write_set());
    let mut builder = match &init_keys {
        Some(keys) => HistoryBuilder::new().with_init_keys(keys.iter().copied()),
        None => HistoryBuilder::new(),
    };
    let user: Vec<_> = history
        .txns()
        .iter()
        .filter(|t| Some(t.id) != history.init_txn())
        .collect();
    let target = pick % user.len().max(1);
    for (i, t) in user.iter().enumerate() {
        let mut ops = t.ops.clone();
        if let Some((cp, stale)) = corrupt {
            if i == cp % user.len().max(1) {
                if let Some(Op::Read { value, .. }) = ops.first_mut() {
                    *value = Value(stale % value.raw().max(1));
                }
            }
        }
        let begin = t.begin.unwrap_or(0);
        let mut end = t.end.unwrap_or(begin);
        if i == target {
            end = end.saturating_sub(delta);
        }
        let (mut begin, mut end) = (Some(begin), Some(end));
        if let Some((sp, strip_begin)) = strip {
            if i == sp % user.len().max(1) {
                if strip_begin {
                    begin = None;
                } else {
                    end = None;
                }
            }
        }
        builder.push_cloned(Transaction {
            id: TxnId(0), // renumbered by the builder
            session: t.session,
            ops,
            status: t.status,
            begin,
            end,
        });
    }
    builder.build()
}

/// Small GC geometries for the epoch-GC differential tests. The engine
/// sweeps every `every` transactions but only commits a graph-side
/// collection every fourth sweep epoch, so with these cadences most random
/// history lengths are *not* multiples of the commit cycle (`4·every`) and
/// the run ends with the GC window straddling an epoch boundary —
/// uncommitted sweep-only epochs whose deferred state the verdict must not
/// depend on.
pub fn gc_geometry_strategy() -> impl Strategy<Value = GcPolicy> {
    prop::sample::select(vec![
        GcPolicy::clamped(8, 2),
        GcPolicy::clamped(12, 3),
        GcPolicy::clamped(10, 4),
        GcPolicy::clamped(6, 1),
    ])
}

/// Corrupts one read to return the *previous* version of its key, picking a
/// target transaction whose previous version was installed at most `max_age`
/// transactions earlier. Unlike [`corrupt`] — whose stale value may reference
/// state arbitrarily far in the past, which a windowed GC is *allowed* to
/// have retired (the qualified-certificate contract) — this keeps the
/// violation inside the staleness window, where GC'd and un-GC'd verdicts
/// must be bit-identical. Returns the history unchanged when no transaction
/// qualifies (the valid history then trivially satisfies the property).
pub fn corrupt_fresh(history: &History, pick: usize, max_age: usize) -> History {
    let user: Vec<_> = history
        .txns()
        .iter()
        .filter(|t| Some(t.id) != history.init_txn())
        .collect();
    // versions[key] = (user txn index, value) of installed versions, oldest
    // first; candidates = txns whose first read could be made one-version
    // stale against a version no older than `max_age`.
    let mut versions: std::collections::HashMap<u64, Vec<(usize, Value)>> =
        std::collections::HashMap::new();
    let mut candidates: Vec<(usize, Value)> = Vec::new();
    for (i, t) in user.iter().enumerate() {
        if let Some(Op::Read { key, .. }) = t.ops.first() {
            if let Some(vs) = versions.get(&key.raw()) {
                if vs.len() >= 2 {
                    let (installed_at, stale) = vs[vs.len() - 2];
                    if i - installed_at <= max_age {
                        candidates.push((i, stale));
                    }
                }
            }
        }
        for key in t.write_set() {
            if let Some(v) = t.last_write(key) {
                versions.entry(key.raw()).or_default().push((i, v));
            }
        }
    }
    let Some(&(target, stale)) = candidates.get(pick % candidates.len().max(1)) else {
        return history.clone();
    };
    let mut builder = HistoryBuilder::new().with_init(history.keys().len() as u64);
    for (i, t) in user.iter().enumerate() {
        let mut ops = t.ops.clone();
        if i == target {
            if let Some(Op::Read { value, .. }) = ops.first_mut() {
                *value = stale;
            }
        }
        builder.committed(t.session.0, ops);
    }
    builder.build()
}

/// Holds an SI cycle certificate to what it certifies, without the engine's
/// encoding: a closed walk over `derived` — the dependency edges of the
/// prefix the checker consumed — in which no two cyclically adjacent edges
/// are `RW`, i.e. a cycle of `(SO ∪ WR ∪ WW) ; RW?`.
pub fn assert_si_certificate(derived: &[Edge], certificate: &[Edge]) {
    assert!(!certificate.is_empty(), "an empty certificate");
    for (i, e) in certificate.iter().enumerate() {
        let next = &certificate[(i + 1) % certificate.len()];
        assert!(derived.contains(e), "{e:?} is not derived: {certificate:?}");
        assert_eq!(e.to, next.from, "not a closed walk: {certificate:?}");
        let two_rw = e.kind.is_rw() && next.kind.is_rw();
        assert!(!two_rw, "two RW edges in a row: {certificate:?}");
    }
}

/// The transactions of `history` up to and including `last`, `⊥T` seeded as
/// it was: the prefix a checker that latched at `last` consumed.
pub fn prefix_through(history: &History, last: TxnId) -> History {
    let init = history.init_txn();
    let mut builder = match init {
        Some(init) => HistoryBuilder::new().with_init_keys(history.txn(init).write_set()),
        None => HistoryBuilder::new(),
    };
    for t in history
        .txns()
        .iter()
        .filter(|t| Some(t.id) != init && t.id <= last)
    {
        builder.push_cloned(t.clone());
    }
    builder.build()
}

/// Holds an SSER cycle certificate to what it certifies, sharing no code
/// with the engine: over `history`, the prefix the checker consumed, every
/// `RT` hop `u → v` has `end(u) < begin(v)`, every other hop is among the
/// edges `build_dependency` derives from it, and the hops close one cycle
/// that passes no transaction twice. Returns whether it checked: a prefix
/// with a read that still waits for its writer has no dependency graph of
/// its own.
pub fn assert_sser_certificate(history: &History, certificate: &[Edge]) -> bool {
    let Ok(graph) = build_dependency(history, false) else {
        return false;
    };
    assert!(!certificate.is_empty(), "an empty certificate");
    let mut passed = std::collections::HashSet::new();
    for (i, e) in certificate.iter().enumerate() {
        let next = &certificate[(i + 1) % certificate.len()];
        assert_eq!(e.to, next.from, "not a closed walk: {certificate:?}");
        assert!(passed.insert(e.from), "{:?} twice: {certificate:?}", e.from);
        if e.kind == EdgeKind::Rt {
            let (end, begin) = (history.txn(e.from).end, history.txn(e.to).begin);
            let ordered = end.zip(begin).is_some_and(|(end, begin)| end < begin);
            assert!(
                ordered,
                "{e:?} runs from {end:?} to {begin:?}: {certificate:?}"
            );
        } else {
            assert!(
                graph.edges().contains(e),
                "{e:?} is not derived: {certificate:?}"
            );
        }
    }
    true
}

/// Holds the labelled rows of a streamed order to what the order promises:
/// no pair of nodes twice in a row.
pub fn assert_no_pair_twice(order: &[OrderEdge]) {
    let mut seen = std::collections::HashSet::with_capacity(order.len());
    for e in order {
        let pair = (e.edge.from, e.out_of_tail, e.edge.to, e.into_tail);
        assert!(seen.insert(pair), "{e:?} is held twice");
    }
}

/// Holds the labelled rows of a streamed order (`si` at snapshot isolation)
/// to the dependency graph `derived` of the prefix it consumed, an oracle
/// that shares none of its code: every entry carries the label
/// `DependencyGraph::label_hop` picks for its pair — at SI a base kind into
/// a node or a tail and an `RW` kind out of a tail. Among derived edges of
/// the best rank, the row keeps the first to *arrive* and the list the
/// first the batch build emits, so where those differ (an `RW` edge on each
/// of two keys) the key may too: the entry's edge is one of the derived
/// edges of that rank. With `complete`, every derived edge's pair
/// is held too: the rows are the graph, pair for pair.
pub fn assert_order_labels(
    order: &[OrderEdge],
    derived: &DependencyGraph,
    si: bool,
    complete: bool,
) {
    assert_no_pair_twice(order);
    for e in order {
        let (from, to) = (e.edge.from.index(), e.edge.to.index());
        assert!(!(e.into_tail && e.out_of_tail), "{e:?} joins two tails");
        let fits = |kind: mtc_history::EdgeKind| !si || kind.is_rw() == e.out_of_tail;
        let expected = derived.label_hop(from, to, fits).expect("a derived pair");
        assert!(derived.edges().contains(&e.edge), "{e:?} is not derived");
        assert_eq!(
            e.edge.kind.label_rank(),
            expected.kind.label_rank(),
            "{e:?}"
        );
    }
    if !complete {
        return;
    }
    let mut pairs = std::collections::HashSet::new();
    for d in derived.edges() {
        if !si {
            pairs.insert((d.from, false, d.to, false));
        } else if d.kind.is_rw() {
            pairs.insert((d.from, true, d.to, false));
        } else {
            pairs.insert((d.from, false, d.to, false));
            pairs.insert((d.from, false, d.to, true));
        }
    }
    let held: std::collections::HashSet<_> = order
        .iter()
        .map(|e| (e.edge.from, e.out_of_tail, e.edge.to, e.into_tail))
        .collect();
    assert_eq!(held, pairs, "the rows are not the derived graph's pairs");
}
