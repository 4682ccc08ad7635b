//! The one client-session state machine (steps ①–③ of the black-box
//! checking workflow, Figure 2 of the paper): begin, issue the template's
//! operations, commit or abort, retry under a bound, record.
//!
//! A [`Session`] is *resumable*: every [`Session::step`] does exactly one of
//!
//! * **begin** the next template's first attempt,
//! * **issue** one operation of the open attempt, or
//! * **settle** the open attempt — commit (or abort, if an operation
//!   failed), count it, record it, and then either begin the retry in the
//!   same step or advance to the next template.
//!
//! The drivers of [`crate::Driver`] only *schedule* steps: one OS thread per
//! session, or a seeded pick over the live sessions. The machine is generic
//! over the template-operation type `T` and the recorded-operation type `R`
//! through one [`IssueOp`], so register workloads (`ReqOp → Op`) and Elle
//! list-append workloads (supplied by `mtc-runner`) share it.
//!
//! The contract every driver therefore gets:
//!
//! * [`Observer::should_stop`] is consulted only before a session *starts* a
//!   template; an open attempt always settles.
//! * The first attempt of a template uses [`DbBackend::begin`], every retry
//!   [`DbBackend::begin_retry`] with the *first* attempt's begin instant;
//!   attempts are counted at begin, and announce the template's reads there
//!   ([`IssueOp::reads_ahead`] → [`DbTxn::read_ahead`]): a remote handle
//!   sends them in one frame, a local one ignores them, and either way the
//!   operations are issued one per step. An attempt's begin instant
//!   ([`DbTxn::begin_ts`]) is read when it *settles*, not when it begins: a
//!   remote handle learns it with its first reply.
//! * A failed operation aborts the attempt with the operation's reason.
//! * A commit is counted, recorded and observed. An abort is counted,
//!   recorded and observed iff `ClientOptions::should_record_abort`, and
//!   retried iff [`ClientOptions::should_retry`]; otherwise the template
//!   counts as failed.

use crate::backend::{DbBackend, DbTxn};
use crate::client::{ClientOptions, ExecutionReport};
use crate::txn::AbortReason;
use mtc_history::{Key, Op, SessionId, Transaction, TxnId, TxnStatus, ValueAllocator};

/// One recorded transaction attempt of a session.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnRecord<R> {
    /// The session that ran the attempt.
    pub session: u32,
    /// The operations issued without error, in issue order. On an aborted
    /// attempt against a backend that queues writes (`mtc-net`) the last
    /// writes listed may be ones the server went on to refuse — harmless:
    /// their unique values were never readable.
    pub ops: Vec<R>,
    /// Whether the attempt committed or aborted.
    pub status: TxnStatus,
    /// Begin instant on the backend's logical clock, read from the handle
    /// when the attempt settles.
    pub begin: u64,
    /// Commit instant, or the clock reading when the abort was recorded.
    pub end: u64,
}

impl TxnRecord<Op> {
    /// The attempt as a history transaction (ops cloned, id left to
    /// whoever numbers the stream).
    pub fn to_transaction(&self) -> Transaction {
        Transaction {
            id: TxnId(0),
            session: SessionId(self.session),
            ops: self.ops.clone(),
            status: self.status,
            begin: Some(self.begin),
            end: Some(self.end),
        }
    }
}

/// Watches a run: sees every recorded attempt in the order attempts settle,
/// and may stop sessions from starting further templates.
/// [`crate::LiveVerifier`] is the in-tree implementation.
pub trait Observer<R>: Sync {
    /// True once sessions should stop starting templates.
    fn should_stop(&self) -> bool;
    /// Called with every attempt a session records.
    fn observe(&self, record: &TxnRecord<R>);
    /// Called by [`crate::ExecutionOptions::run`] when the run begins.
    fn mark_started(&self) {}
}

/// How a [`Session`] issues the operations of its templates: the one thing
/// it is generic over. Any function of `issue`'s shape is one, announcing
/// no reads.
pub trait IssueOp<T, R>: Send {
    /// Issues one template operation on an open transaction, pushing what
    /// it observed onto the attempt's recorded operations; unique write
    /// values come from the session's allocator.
    fn issue(
        &self,
        handle: &mut dyn DbTxn,
        op: &T,
        values: &mut ValueAllocator,
        ops: &mut Vec<R>,
    ) -> Result<(), AbortReason>;

    /// Pushes onto `keys` the register reads of `template` an attempt
    /// announces at begin ([`DbTxn::read_ahead`]); true iff they are the
    /// whole template, so the commit may be announced with them.
    fn reads_ahead(&self, template: &[T], keys: &mut Vec<Key>) -> bool {
        let _ = (template, keys);
        false
    }
}

impl<T, R, F> IssueOp<T, R> for F
where
    F: Fn(&mut dyn DbTxn, &T, &mut ValueAllocator, &mut Vec<R>) -> Result<(), AbortReason> + Send,
{
    fn issue(
        &self,
        handle: &mut dyn DbTxn,
        op: &T,
        values: &mut ValueAllocator,
        ops: &mut Vec<R>,
    ) -> Result<(), AbortReason> {
        self(handle, op, values, ops)
    }
}

/// An open attempt at the session's current template.
struct Attempt<'a, R> {
    handle: Box<dyn DbTxn + 'a>,
    /// Begin instant of the template's first attempt; `None` on the first
    /// attempt itself, whose own instant is read when it settles.
    first_begin: Option<u64>,
    /// Retries spent on this template so far (0 on the first attempt).
    retries: u32,
    next_op: usize,
    ops: Vec<R>,
    failed: Option<AbortReason>,
}

/// One client session as a resumable state machine — see the
/// [module docs](self).
pub struct Session<'a, T, R, F> {
    db: &'a dyn DbBackend,
    opts: &'a ClientOptions,
    observer: Option<&'a dyn Observer<R>>,
    issue: F,
    session: u32,
    templates: Vec<&'a [T]>,
    next_template: usize,
    open: Option<Attempt<'a, R>>,
    /// The reads an attempt announces, kept between attempts.
    reads: Vec<Key>,
    values: ValueAllocator,
    records: Vec<TxnRecord<R>>,
    stats: ExecutionReport,
}

impl<'a, T, R, F: IssueOp<T, R>> Session<'a, T, R, F> {
    /// A session with id `session` that will run `templates` (each a slice
    /// of template operations) in order against `db`.
    pub fn new(
        db: &'a dyn DbBackend,
        opts: &'a ClientOptions,
        observer: Option<&'a dyn Observer<R>>,
        session: u32,
        templates: Vec<&'a [T]>,
        issue: F,
    ) -> Self {
        Session {
            db,
            opts,
            observer,
            issue,
            session,
            records: Vec::new(),
            templates,
            next_template: 0,
            open: None,
            reads: Vec::new(),
            values: ValueAllocator::new(session),
            stats: ExecutionReport::default(),
        }
    }

    /// True iff [`Session::step`] would make progress: an attempt is open,
    /// or a template is left and the observer has not stopped the run.
    pub fn is_live(&self) -> bool {
        self.open.is_some()
            || (self.next_template < self.templates.len()
                && !self.observer.is_some_and(|o| o.should_stop()))
    }

    /// Advances the session by one begin, one operation or one settle.
    /// Returns `false`, having done nothing, once the session is not
    /// [live](Session::is_live): out of templates, or stopped by its observer.
    pub fn step(&mut self) -> bool {
        let Some(mut open) = self.open.take() else {
            if !self.is_live() {
                return false;
            }
            self.open = Some(self.begin_attempt(None, 0));
            return true;
        };
        let template = self.templates[self.next_template];
        if open.failed.is_none() && open.next_op < template.len() {
            let op = &template[open.next_op];
            open.failed = self
                .issue
                .issue(open.handle.as_mut(), op, &mut self.values, &mut open.ops)
                .err();
            open.next_op += 1;
            self.open = Some(open);
            return true;
        }
        // Every operation is issued, or one failed inside the backend (a
        // wait-die victim, a lost connection): settle the attempt. Its begin
        // instant is asked for only now — a remote handle learns it with its
        // first reply, and asking at begin would cost a round trip of its own.
        let begin = open.handle.begin_ts();
        let result = match open.failed {
            Some(reason) => {
                let _ = open.handle.abort();
                Err(reason)
            }
            None => open.handle.commit(),
        };
        match result {
            Ok(info) => {
                self.stats.committed += 1;
                self.record(open.ops, TxnStatus::Committed, begin, info.commit_ts);
                self.next_template += 1;
            }
            Err(reason) => {
                self.stats.aborted_attempts += 1;
                if self.opts.should_record_abort(&open.ops, reason) {
                    let end = self.db.now();
                    self.record(open.ops, TxnStatus::Aborted, begin, end);
                }
                if self.opts.should_retry(open.retries, reason) {
                    let first_begin = open.first_begin.unwrap_or(begin);
                    self.open = Some(self.begin_attempt(Some(first_begin), open.retries + 1));
                } else {
                    self.stats.failed += 1;
                    self.next_template += 1;
                }
            }
        }
        true
    }

    /// Begins an attempt at the current template. A retry reuses the first
    /// attempt's begin instant so wait-die backends let the transaction keep
    /// ageing instead of rebirthing it youngest every attempt (see
    /// [`DbBackend::begin_retry`]).
    fn begin_attempt(&mut self, first_begin: Option<u64>, retries: u32) -> Attempt<'a, R> {
        self.stats.attempts += 1;
        let db = self.db;
        let mut handle = match first_begin {
            None => db.begin(),
            Some(ts) => db.begin_retry(ts),
        };
        let template = self.templates[self.next_template];
        self.reads.clear();
        let then_commit = self.issue.reads_ahead(template, &mut self.reads);
        handle.read_ahead(&self.reads, then_commit);
        Attempt {
            handle,
            first_begin,
            retries,
            next_op: 0,
            ops: Vec::with_capacity(template.len()),
            failed: None,
        }
    }

    fn record(&mut self, ops: Vec<R>, status: TxnStatus, begin: u64, end: u64) {
        let record = TxnRecord {
            session: self.session,
            ops,
            status,
            begin,
            end,
        };
        if let Some(observer) = self.observer {
            observer.observe(&record);
        }
        self.records.push(record);
    }

    /// The session's recorded attempts and its counters (`wall_time` unset).
    pub fn finish(self) -> (Vec<TxnRecord<R>>, ExecutionReport) {
        (self.records, self.stats)
    }
}
