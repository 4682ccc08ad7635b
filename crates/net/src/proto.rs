//! The wire protocol: CRC-framed binval records over a byte stream.
//!
//! Every message is one [`mtc_store::frame`] frame —
//! `[len u32 LE][crc32 u32 LE][payload]` — whose payload is the
//! [`mtc_store::binval`] encoding of a [`RequestEnvelope`] or
//! [`ReplyEnvelope`]. Nothing here is new format: the network reuses the
//! exact record encoding the durable history log already trusts, so a
//! corrupt or truncated message surfaces as the same
//! [`FrameError`]/decode errors recovery already distinguishes.
//!
//! Envelopes carry a per-connection sequence number assigned by the client;
//! the server echoes it on the reply. A client waiting for reply `n`
//! discards any reply with a *smaller* sequence number (a duplicate or a
//! stale reply to an earlier request that already timed out on our side)
//! and treats a *larger* one as a protocol violation — that asymmetry is
//! what makes delayed and duplicated replies harmless (see the wire-fault
//! conformance tests). Every reply also carries the server's logical clock,
//! which the client caches to answer [`DbBackend::now`] locally.
//!
//! The protocol is **pipelined**: a peer may send any number of requests
//! before reading a reply; the server executes them in order and answers
//! each, in order (see `server::serve_connection`). A client that sends
//! ahead cannot know the id a queued `Begin` will be given, so transaction
//! id `0` names *the transaction this connection began most recently*
//! (server ids start at 1). What makes sending ahead safe is the server's
//! refusal rule: the first operation the engine aborts rolls the
//! transaction back and every later request naming it — `Commit` included —
//! is answered [`Reply::Aborted`] with that same reason.
//!
//! [`DbBackend::now`]: mtc_dbsim::DbBackend::now

use mtc_core::IsolationLevel;
use mtc_dbsim::{AbortReason, IngestEvent};
use mtc_history::{Key, Value};
use mtc_store::frame::{read_frame, write_frame_with, FrameError, FRAME_HEADER, MAX_FRAME_LEN};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Protocol version; bumped on any incompatible message change. The
/// `Hello` exchange rejects mismatched peers instead of misdecoding them.
/// Version 2 added the verification-service role (`OpenTenant` / `Ingest` /
/// `TenantStatus` / `CloseTenant` and their replies); version 3 transaction
/// id `0` and the refusal rule (see the [module docs](self)); version 4 wrote
/// envelopes by position — fields in declaration order, variants by index,
/// no names. A server still reads a version 3 `Hello`, which spells its
/// names, and answers it with the version mismatch.
pub const PROTOCOL_VERSION: u32 = 4;

/// A client request, wrapped in a [`RequestEnvelope`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake: version check, engine label and promise discovery.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Begin a transaction; `retry_of` carries the first attempt's begin
    /// timestamp on retries (wait-die ageing, see `DbBackend::begin_retry`).
    Begin {
        /// The first attempt's begin timestamp, if this is a retry.
        retry_of: Option<u64>,
    },
    /// Read the register at `key` in transaction `txn`.
    Read {
        /// Transaction id from [`Reply::Begun`], or `0` for the transaction
        /// this connection began most recently — here and in every request
        /// below that names a transaction.
        txn: u64,
        /// Register to read.
        key: Key,
    },
    /// Write `value` to the register at `key` in transaction `txn`.
    Write {
        /// Transaction id from [`Reply::Begun`].
        txn: u64,
        /// Register to write.
        key: Key,
        /// Value to write.
        value: Value,
    },
    /// Read the list at `key` in transaction `txn`.
    ReadList {
        /// Transaction id from [`Reply::Begun`].
        txn: u64,
        /// List to read.
        key: Key,
    },
    /// Append `element` to the list at `key` in transaction `txn`.
    Append {
        /// Transaction id from [`Reply::Begun`].
        txn: u64,
        /// List to append to.
        key: Key,
        /// Element to append.
        element: Value,
    },
    /// Attempt to commit transaction `txn`.
    Commit {
        /// Transaction id from [`Reply::Begun`].
        txn: u64,
    },
    /// Roll transaction `txn` back.
    Abort {
        /// Transaction id from [`Reply::Begun`].
        txn: u64,
    },
    /// Clock read; the answer rides in the envelope's `now` field.
    Now,
    /// **Service role.** Open (or resume) the named verification tenant.
    /// Execution servers answer service-role requests with [`Reply::Error`];
    /// only `mtc-service` daemons accept them.
    OpenTenant {
        /// Tenant name — also its per-tenant WAL directory name.
        tenant: String,
        /// Isolation level the tenant's stream is checked against.
        level: IsolationLevel,
        /// Pre-initialized key space of the tenant's database.
        num_keys: u64,
    },
    /// **Service role.** Feed a batch of finished transaction attempts into
    /// tenant `tenant`'s ingest queue. Admission is all-or-nothing: either
    /// the whole batch is queued ([`Reply::Ingested`]) or none of it is
    /// ([`Reply::Backpressure`]) — events are never silently dropped.
    Ingest {
        /// Tenant id from [`Reply::TenantOpened`].
        tenant: u64,
        /// The finished attempts, in session order.
        events: Vec<IngestEvent>,
    },
    /// **Service role.** Live verdict/lag/queue/RSS statistics for tenant
    /// `tenant`.
    TenantStatus {
        /// Tenant id from [`Reply::TenantOpened`].
        tenant: u64,
    },
    /// **Service role.** Drain, checkpoint and close tenant `tenant`,
    /// returning its final verdict summary.
    CloseTenant {
        /// Tenant id from [`Reply::TenantOpened`].
        tenant: u64,
    },
    /// Scrape the server's metric registry ([`Reply::Metrics`]). Answered
    /// by both execution servers and service daemons; all-zero metrics
    /// with `enabled: false` mean the server never turned observability
    /// on. Added without a version bump: a variant added at the end of the
    /// enum leaves every other index where it was, and an older server
    /// refuses the index it does not know instead of misdecoding it.
    MetricsSnapshot,
}

/// A server reply, wrapped in a [`ReplyEnvelope`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Handshake answer: the server's protocol version, the wrapped
    /// engine's label, and the isolation levels it promises.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// The wrapped engine's label (`"sim-ser"`, `"2pl"`, …).
        label: String,
        /// The isolation levels the engine promises.
        promised: Vec<IsolationLevel>,
    },
    /// A transaction is open: its connection-local id and its begin
    /// timestamp on the engine's logical clock.
    Begun {
        /// Connection-local transaction id for subsequent requests.
        txn: u64,
        /// Begin timestamp on the engine's logical clock.
        begin_ts: u64,
    },
    /// A register read's result.
    Value(Value),
    /// A list read's result.
    Values(Vec<Value>),
    /// A write, append, abort or clock read went through.
    Done,
    /// The transaction committed at `commit_ts`.
    Committed {
        /// Commit timestamp on the engine's logical clock.
        commit_ts: u64,
    },
    /// The operation (or commit) aborted the transaction — or an earlier
    /// operation of the same transaction did, with this reason.
    Aborted(AbortReason),
    /// Protocol-level failure (unknown transaction id, bad handshake).
    /// The connection is not usable for the affected transaction.
    Error(String),
    /// **Service role.** The tenant is open; answer to
    /// [`Request::OpenTenant`].
    TenantOpened {
        /// Tenant id for subsequent `Ingest`/`TenantStatus`/`CloseTenant`.
        tenant: u64,
        /// Transactions already durable in the tenant's WAL (non-zero when
        /// the open resumed an existing tenant directory).
        resumed_txns: u64,
        /// Whether the resume restarted from a checkpoint snapshot (as
        /// opposed to a scratch replay of the log).
        from_checkpoint: bool,
    },
    /// **Service role.** The whole `Ingest` batch was admitted to the
    /// tenant's queue.
    Ingested {
        /// Events admitted (the batch size).
        accepted: u64,
    },
    /// **Service role.** The tenant's bounded queue cannot take the batch;
    /// nothing was admitted. The client should drain/wait and retry —
    /// backpressure, not loss.
    Backpressure {
        /// Events currently queued for the tenant.
        queue_depth: u64,
        /// The tenant's queue capacity.
        queue_cap: u64,
    },
    /// **Service role.** Live statistics; answer to
    /// [`Request::TenantStatus`].
    TenantStat(TenantStatus),
    /// The server's metric registry at scrape time; answer to
    /// [`Request::MetricsSnapshot`].
    Metrics(mtc_obs::MetricsSnapshot),
    /// **Service role.** Final verdict summary; answer to
    /// [`Request::CloseTenant`].
    TenantClosed {
        /// Transactions the tenant's checker consumed over its lifetime.
        checked: u64,
        /// Whether an isolation violation latched.
        violated: bool,
        /// Index of the first violating transaction (excluding `⊥T`).
        first_violation_at: Option<u64>,
    },
}

/// Live per-tenant statistics, carried by [`Reply::TenantStat`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// Events admitted to the queue over the tenant's lifetime (including
    /// any recovered from the WAL on resume).
    pub ingested: u64,
    /// Transactions the checker has consumed (excluding `⊥T`). The
    /// tenant's ingest lag is `ingested - checked`.
    pub checked: u64,
    /// Events currently queued, not yet consumed by the checker.
    pub queue_depth: u64,
    /// The bounded queue's capacity.
    pub queue_cap: u64,
    /// `Ingest` batches refused with [`Reply::Backpressure`] so far.
    pub backpressured: u64,
    /// Whether an isolation violation has latched.
    pub violated: bool,
    /// Index of the first violating transaction, once latched.
    pub first_violation_at: Option<u64>,
    /// Transactions currently resident in the checker (bounded by the GC
    /// window in steady state).
    pub live_txns: u64,
    /// Checkpoints written to the tenant's WAL so far.
    pub checkpoints: u64,
    /// The daemon process's current resident set (`VmRSS`, not the peak
    /// `VmHWM`), in KiB — process wide, reported identically for every
    /// tenant.
    pub rss_kb: u64,
    /// 99th-percentile WAL append latency for this tenant, in
    /// microseconds: one append is one drained batch — up to 128 events,
    /// encoded and handed to the OS with one `write` — not one event. Zero
    /// until the daemon enables observability (the per-store histogram
    /// records only while the global switch is on).
    pub wal_append_p99_micros: u64,
    /// Microseconds since the tenant's newest checkpoint finished —
    /// `None` before the first checkpoint. A growing age under steady
    /// ingest is the signature of a stalled WAL.
    pub last_checkpoint_age_micros: Option<u64>,
    /// Failed WAL writes (appends, syncs, checkpoints): 0 or 1, since the
    /// first failure is the store's last write. Non-zero means the durability
    /// guarantee only covers the prefix persisted before the first error
    /// (verification itself continues).
    pub sink_errors: u64,
}

/// A sequenced client request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Client-assigned, strictly increasing per connection.
    pub seq: u64,
    /// The request proper.
    pub request: Request,
}

/// A sequenced server reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplyEnvelope {
    /// Echo of the request's sequence number.
    pub seq: u64,
    /// The server engine's logical clock after executing the request.
    pub now: u64,
    /// The reply proper.
    pub reply: Reply,
}

/// Appends `msg` to `out` as one frame, its payload streamed in place.
pub fn encode<T: Serialize>(out: &mut Vec<u8>, msg: &T) {
    let _span = mtc_obs::sampled_span!("net.call.encode");
    write_frame_with(out, |out| mtc_store::binval::write_value(msg, out));
}

/// Decodes the frame at `*pos` of `buf`, advancing `*pos` past it; `None`
/// (and `*pos` unchanged) if it has not all arrived. The store's own frame
/// reader does the CRC and length checks, exactly as for the durable log.
fn decode<T: Deserialize>(buf: &[u8], pos: &mut usize) -> std::io::Result<Option<T>> {
    match read_frame(buf, pos) {
        Ok(payload) => {
            let _span = mtc_obs::sampled_span!("net.call.decode");
            mtc_store::binval::from_bytes(payload)
                .map(Some)
                .map_err(invalid_data)
        }
        Err(FrameError::Truncated) => Ok(None),
        Err(e @ FrameError::Corrupt) => Err(invalid_data(e)),
    }
}

/// Encodes `msg` as one frame and writes it to `w`.
pub fn send<T: Serialize, W: Write>(w: &mut W, msg: &T) -> std::io::Result<()> {
    let mut buf = Vec::new();
    encode(&mut buf, msg);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads exactly one frame from `r` and decodes it.
///
/// Corrupt frames (checksum mismatch, absurd length) and undecodable
/// payloads map to [`std::io::ErrorKind::InvalidData`]; a cleanly closed
/// peer surfaces as `UnexpectedEof` from the underlying reads.
pub fn recv<T: Deserialize, R: Read>(r: &mut R) -> std::io::Result<T> {
    let mut buf = vec![0u8; FRAME_HEADER];
    r.read_exact(&mut buf)?;
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(invalid_data(FrameError::Corrupt));
    }
    buf.resize(FRAME_HEADER + len, 0);
    r.read_exact(&mut buf[FRAME_HEADER..])?;
    decode(&buf, &mut 0)?.ok_or_else(|| std::io::ErrorKind::UnexpectedEof.into())
}

/// How much a [`FrameBuf`] asks its stream for at a time.
const READ_CHUNK: usize = 64 << 10;

/// The receive side of a pipelined connection: bytes as they arrive, frames
/// as they complete. A frame that arrives in pieces simply stays here
/// between reads, so a read timeout loses nothing. Holds at most one
/// maximal frame plus one read: [`FrameBuf::pop`] refuses a length over
/// [`MAX_FRAME_LEN`] as soon as the header is whole, so call it after every
/// [`FrameBuf::fill`].
#[derive(Default)]
pub struct FrameBuf {
    /// Storage; `buf[start..end]` is received and not yet handed out.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// Decodes the next whole frame, `None` if it has not all arrived.
    /// Errors as [`recv`] does, except that a missing tail is `None`.
    pub fn pop<T: Deserialize>(&mut self) -> std::io::Result<Option<T>> {
        decode(&self.buf[..self.end], &mut self.start)
    }

    /// True iff part of a frame is waiting for the rest of it.
    pub fn has_partial(&self) -> bool {
        self.start < self.end
    }

    /// One `read` from `r` — whatever it has, up to a chunk — appended to
    /// the buffer; returns what `read` returned (`Ok(0)`: the peer closed).
    pub fn fill<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        if self.start == self.end {
            // The usual case: every frame of the last read was whole.
            (self.start, self.end) = (0, 0);
        } else if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

fn invalid_data<E: std::error::Error + Send + Sync + 'static>(e: E) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_round_trip_through_the_frame() {
        let reqs = vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Begin { retry_of: None },
            Request::Begin { retry_of: Some(42) },
            Request::Read {
                txn: 7,
                key: Key(3),
            },
            Request::Write {
                txn: 7,
                key: Key(3),
                value: Value(91),
            },
            Request::Append {
                txn: 7,
                key: Key(0),
                element: Value(u64::MAX),
            },
            Request::Commit { txn: 7 },
            Request::Abort { txn: 8 },
            Request::Now,
            Request::OpenTenant {
                tenant: "acct-7".to_string(),
                level: IsolationLevel::SnapshotIsolation,
                num_keys: 64,
            },
            Request::Ingest {
                tenant: 3,
                events: vec![IngestEvent::timed(
                    2,
                    vec![mtc_history::Op::write(Key(1), Value(9))],
                    mtc_history::TxnStatus::Committed,
                    10,
                    12,
                )],
            },
            Request::TenantStatus { tenant: 3 },
            Request::CloseTenant { tenant: 3 },
            Request::MetricsSnapshot,
        ];
        let mut wire = Vec::new();
        for (i, request) in reqs.iter().enumerate() {
            send(
                &mut wire,
                &RequestEnvelope {
                    seq: i as u64,
                    request: request.clone(),
                },
            )
            .unwrap();
        }
        let mut r = wire.as_slice();
        for (i, request) in reqs.iter().enumerate() {
            let env: RequestEnvelope = recv(&mut r).unwrap();
            assert_eq!(env.seq, i as u64);
            assert_eq!(&env.request, request);
        }

        let replies = vec![
            Reply::Hello {
                version: PROTOCOL_VERSION,
                label: "2pl".to_string(),
                promised: vec![IsolationLevel::Serializability],
            },
            Reply::Begun {
                txn: 1,
                begin_ts: 10,
            },
            Reply::Value(Value(5)),
            Reply::Values(vec![Value(1), Value(2)]),
            Reply::Done,
            Reply::Committed { commit_ts: 12 },
            Reply::Aborted(AbortReason::Deadlock),
            Reply::Error("unknown txn".to_string()),
            Reply::TenantOpened {
                tenant: 3,
                resumed_txns: 17,
                from_checkpoint: true,
            },
            Reply::Ingested { accepted: 5 },
            Reply::Backpressure {
                queue_depth: 1024,
                queue_cap: 1024,
            },
            Reply::TenantStat(TenantStatus {
                name: "acct-7".to_string(),
                ingested: 100,
                checked: 98,
                queue_depth: 2,
                queue_cap: 1024,
                backpressured: 1,
                violated: false,
                first_violation_at: None,
                live_txns: 40,
                checkpoints: 3,
                rss_kb: 12345,
                wal_append_p99_micros: 87,
                last_checkpoint_age_micros: Some(250_000),
                sink_errors: 0,
            }),
            Reply::Metrics(mtc_obs::MetricsSnapshot {
                enabled: true,
                counters: vec![("net.connection_lost".to_string(), 2)],
                gauges: vec![("service.tenants_open".to_string(), 3)],
                histograms: vec![(
                    "store.wal_append_micros".to_string(),
                    mtc_obs::HistogramSnapshot {
                        count: 10,
                        sum: 1000,
                        min: 50,
                        max: 200,
                        p50: 100,
                        p90: 180,
                        p99: 200,
                        buckets: vec![(50, 4), (101, 6)],
                    },
                )],
            }),
            Reply::TenantClosed {
                checked: 100,
                violated: true,
                first_violation_at: Some(61),
            },
        ];
        for reply in replies {
            let mut wire = Vec::new();
            send(
                &mut wire,
                &ReplyEnvelope {
                    seq: 3,
                    now: 99,
                    reply: reply.clone(),
                },
            )
            .unwrap();
            let env: ReplyEnvelope = recv(&mut wire.as_slice()).unwrap();
            assert_eq!(env.now, 99);
            assert_eq!(env.reply, reply);
        }
    }

    #[test]
    fn corrupt_and_truncated_messages_are_clean_io_errors() {
        let mut wire = Vec::new();
        send(
            &mut wire,
            &RequestEnvelope {
                seq: 0,
                request: Request::Now,
            },
        )
        .unwrap();

        // Flip a payload bit: CRC mismatch → InvalidData.
        let mut bad = wire.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        let err = recv::<RequestEnvelope, _>(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Every strict prefix: UnexpectedEof, never a panic.
        for cut in 0..wire.len() {
            let err = recv::<RequestEnvelope, _>(&mut &wire[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut={cut}");
        }

        // An absurd length field must not allocate: Corrupt → InvalidData.
        let mut huge = (u32::MAX).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 4]);
        let err = recv::<RequestEnvelope, _>(&mut huge.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
