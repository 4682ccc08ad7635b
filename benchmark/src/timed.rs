//! A [`DbBackend`] wrapper that times every operation the *real* driver
//! issues, so per-operation cost is measured without touching the program.

use crate::trace::{thread_index, Clock, Span};
use mtc_core::IsolationLevel;
use mtc_dbsim::{AbortReason, CommitInfo, DbBackend, DbTxn};
use mtc_history::{Key, Value};
use std::sync::Mutex;

/// The operation kinds the wrapper tells apart (list operations count as
/// reads and writes; `begin_retry` counts as a begin).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Begin,
    Read,
    Write,
    Commit,
    Abort,
}

/// One timed backend call.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    pub thread: u32,
    pub kind: OpKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl OpSample {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Which layer the wrapped backend is, for span names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendLayer {
    Dbsim,
    Net,
}

impl BackendLayer {
    fn span_name(self, kind: OpKind) -> &'static str {
        match (self, kind) {
            (BackendLayer::Dbsim, OpKind::Begin) => "dbsim.begin",
            (BackendLayer::Dbsim, OpKind::Read) => "dbsim.read",
            (BackendLayer::Dbsim, OpKind::Write) => "dbsim.write",
            (BackendLayer::Dbsim, OpKind::Commit) => "dbsim.commit",
            (BackendLayer::Dbsim, OpKind::Abort) => "dbsim.abort",
            (BackendLayer::Net, OpKind::Begin) => "net.begin",
            (BackendLayer::Net, OpKind::Read) => "net.read",
            (BackendLayer::Net, OpKind::Write) => "net.write",
            (BackendLayer::Net, OpKind::Commit) => "net.commit",
            (BackendLayer::Net, OpKind::Abort) => "net.abort",
        }
    }
}

/// Times `begin`, every read and write, `commit` and `abort` of the
/// wrapped backend; everything else is forwarded untouched.
pub struct TimedBackend<'c, B: DbBackend> {
    inner: B,
    clock: &'c Clock,
    samples: Mutex<Vec<OpSample>>,
}

impl<'c, B: DbBackend> TimedBackend<'c, B> {
    pub fn new(inner: B, clock: &'c Clock) -> Self {
        TimedBackend {
            inner,
            clock,
            samples: Mutex::new(Vec::new()),
        }
    }

    /// The samples recorded so far, draining them.
    pub fn take_samples(&self) -> Vec<OpSample> {
        std::mem::take(&mut *self.samples.lock().expect("a session thread panicked"))
    }

    fn open<'a>(&'a self, start_ns: u64, inner: Box<dyn DbTxn + 'a>) -> Box<dyn DbTxn + 'a> {
        let end_ns = self.clock.now_ns();
        let thread = thread_index();
        let mut pending = Vec::with_capacity(6);
        pending.push(OpSample {
            thread,
            kind: OpKind::Begin,
            start_ns,
            end_ns,
        });
        Box::new(TimedTxn {
            inner,
            clock: self.clock,
            sink: &self.samples,
            thread,
            pending,
        })
    }
}

impl<B: DbBackend> DbBackend for TimedBackend<'_, B> {
    fn begin(&self) -> Box<dyn DbTxn + '_> {
        let start_ns = self.clock.now_ns();
        let inner = self.inner.begin();
        self.open(start_ns, inner)
    }

    fn begin_retry(&self, prior_begin_ts: u64) -> Box<dyn DbTxn + '_> {
        let start_ns = self.clock.now_ns();
        let inner = self.inner.begin_retry(prior_begin_ts);
        self.open(start_ns, inner)
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn promises(&self, level: IsolationLevel) -> bool {
        self.inner.promises(level)
    }
}

/// An open transaction whose operations are being timed. Samples are kept
/// with the handle and handed to the backend in one lock when it settles.
struct TimedTxn<'a> {
    inner: Box<dyn DbTxn + 'a>,
    clock: &'a Clock,
    sink: &'a Mutex<Vec<OpSample>>,
    thread: u32,
    pending: Vec<OpSample>,
}

impl TimedTxn<'_> {
    fn timed<R>(&mut self, kind: OpKind, f: impl FnOnce(&mut dyn DbTxn) -> R) -> R {
        let start_ns = self.clock.now_ns();
        let out = f(self.inner.as_mut());
        let end_ns = self.clock.now_ns();
        self.pending.push(OpSample {
            thread: self.thread,
            kind,
            start_ns,
            end_ns,
        });
        out
    }

    fn settle<R>(self, kind: OpKind, f: impl FnOnce(Box<dyn DbTxn + '_>) -> R) -> R {
        let TimedTxn {
            inner,
            clock,
            sink,
            thread,
            mut pending,
        } = self;
        let start_ns = clock.now_ns();
        let out = f(inner);
        let end_ns = clock.now_ns();
        pending.push(OpSample {
            thread,
            kind,
            start_ns,
            end_ns,
        });
        sink.lock()
            .expect("a session thread panicked")
            .extend(pending);
        out
    }
}

impl DbTxn for TimedTxn<'_> {
    fn begin_ts(&self) -> u64 {
        self.inner.begin_ts()
    }

    fn read_register(&mut self, key: Key) -> Result<Value, AbortReason> {
        self.timed(OpKind::Read, |t| t.read_register(key))
    }

    fn write_register(&mut self, key: Key, value: Value) -> Result<(), AbortReason> {
        self.timed(OpKind::Write, |t| t.write_register(key, value))
    }

    fn read_list(&mut self, key: Key) -> Result<Vec<Value>, AbortReason> {
        self.timed(OpKind::Read, |t| t.read_list(key))
    }

    fn append(&mut self, key: Key, element: Value) -> Result<(), AbortReason> {
        self.timed(OpKind::Write, |t| t.append(key, element))
    }

    fn commit(self: Box<Self>) -> Result<CommitInfo, AbortReason> {
        self.settle(OpKind::Commit, |t| t.commit())
    }

    fn abort(self: Box<Self>) -> AbortReason {
        self.settle(OpKind::Abort, |t| t.abort())
    }
}

/// Turns samples into spans under `parent`, one per operation.
pub fn samples_to_spans(
    samples: &[OpSample],
    layer: BackendLayer,
    clock: &Clock,
    trace: u32,
    parent: Option<u32>,
) -> Vec<Span> {
    samples
        .iter()
        .map(|s| Span {
            id: clock.next_id(),
            parent,
            trace,
            thread: s.thread,
            name: layer.span_name(s.kind),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
        })
        .collect()
}

/// Time inside backend calls, per thread, in seconds: how long each session
/// thread was busy in the backend.
pub fn busy_per_thread(samples: &[OpSample]) -> Vec<f64> {
    let mut per: std::collections::BTreeMap<u32, u64> = Default::default();
    for s in samples {
        *per.entry(s.thread).or_default() += s.duration_ns();
    }
    per.into_values().map(|ns| ns as f64 / 1e9).collect()
}

/// The durations of all samples of one kind, in nanoseconds.
pub fn durations_ns(samples: &[OpSample], kind: OpKind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A backend that records which entry points were used.
    #[derive(Default)]
    struct Probe {
        begins: AtomicU64,
        retries: AtomicU64,
    }

    struct ProbeTxn;

    impl DbTxn for ProbeTxn {
        fn begin_ts(&self) -> u64 {
            41
        }
        fn read_register(&mut self, key: Key) -> Result<Value, AbortReason> {
            Ok(Value(key.0 + 1))
        }
        fn write_register(&mut self, _: Key, _: Value) -> Result<(), AbortReason> {
            Ok(())
        }
        fn read_list(&mut self, _: Key) -> Result<Vec<Value>, AbortReason> {
            Ok(vec![Value(9)])
        }
        fn append(&mut self, _: Key, _: Value) -> Result<(), AbortReason> {
            Ok(())
        }
        fn commit(self: Box<Self>) -> Result<CommitInfo, AbortReason> {
            Err(AbortReason::UserAbort)
        }
        fn abort(self: Box<Self>) -> AbortReason {
            AbortReason::UserAbort
        }
    }

    impl DbBackend for Probe {
        fn begin(&self) -> Box<dyn DbTxn + '_> {
            self.begins.fetch_add(1, Ordering::Relaxed);
            Box::new(ProbeTxn)
        }
        fn begin_retry(&self, prior: u64) -> Box<dyn DbTxn + '_> {
            self.retries.fetch_add(prior, Ordering::Relaxed);
            Box::new(ProbeTxn)
        }
        fn now(&self) -> u64 {
            77
        }
        fn label(&self) -> &'static str {
            "probe"
        }
        fn promises(&self, level: IsolationLevel) -> bool {
            level == IsolationLevel::SnapshotIsolation
        }
    }

    #[test]
    fn forwards_everything_and_times_each_operation() {
        let clock = Clock::new(true);
        let probe = Probe::default();
        let timed = TimedBackend::new(&probe, &clock);
        assert_eq!(timed.now(), 77);
        assert_eq!(timed.label(), "probe");
        assert!(timed.promises(IsolationLevel::SnapshotIsolation));
        assert!(!timed.promises(IsolationLevel::Serializability));

        let mut t = timed.begin();
        assert_eq!(t.begin_ts(), 41);
        assert_eq!(t.read_register(Key(3)), Ok(Value(4)));
        t.write_register(Key(3), Value(5)).unwrap();
        assert_eq!(t.read_list(Key(1)), Ok(vec![Value(9)]));
        t.append(Key(1), Value(2)).unwrap();
        assert_eq!(t.commit().unwrap_err(), AbortReason::UserAbort);

        // The retry entry point reaches the inner backend's, with its
        // argument, instead of collapsing into a plain begin.
        let t = timed.begin_retry(41);
        assert_eq!(t.abort(), AbortReason::UserAbort);
        assert_eq!(probe.begins.load(Ordering::Relaxed), 1);
        assert_eq!(probe.retries.load(Ordering::Relaxed), 41);

        let samples = timed.take_samples();
        let kinds: Vec<OpKind> = samples.iter().map(|s| s.kind).collect();
        use OpKind::*;
        assert_eq!(
            kinds,
            vec![Begin, Read, Write, Read, Write, Commit, Begin, Abort]
        );
        assert!(samples.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(timed.take_samples().is_empty());

        let spans = samples_to_spans(&samples, BackendLayer::Net, &clock, 3, Some(0));
        assert_eq!(spans[0].name, "net.begin");
        assert_eq!(spans[5].name, "net.commit");
        assert!(spans.iter().all(|s| s.trace == 3 && s.parent == Some(0)));
        assert_eq!(busy_per_thread(&samples).len(), 1);
        assert_eq!(durations_ns(&samples, Read).len(), 2);
    }
}
