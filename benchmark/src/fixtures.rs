//! The five workloads, their fixed sizes, and the inputs made from a seed.

use mtc_core::IsolationLevel;
use mtc_dbsim::{ClientOptions, ExecutionOptions, IngestEvent};
use mtc_history::{History, HistoryBuilder, Op, SessionId, Transaction, TxnId, TxnStatus};
use mtc_workload::{Distribution, MtWorkloadSpec};
use std::path::{Path, PathBuf};

/// What a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Generate, execute on in-process `sim-ser`, batch-verify SER, SI, SSER.
    Pipeline,
    /// Generate, execute on in-process `sim-ser` under a live SSER verifier.
    Live,
    /// Generate with Zipf keys, execute on `sim-ser`, batch-verify SER.
    Hotkeys,
    /// Generate, execute on `sim-ser` behind a loopback `NetServer`,
    /// batch-verify SER.
    Remote,
    /// Stream generated events into an in-process daemon from two tenant
    /// connections, then recover and resume each tenant's store.
    Service,
}

impl Kind {
    /// Whether the workload's whole process is held on one CPU.
    ///
    /// The two workloads with a server in process cannot do without threads
    /// (session or tenant threads, connection handlers, drain workers), and
    /// threads that wait for each other across the two vCPUs of this guest
    /// measure the host: a vCPU that goes idle between two messages is
    /// descheduled, and how long it takes to come back changed `remote_exec`
    /// from 23k to 9k txns/s and `service_durable` from 12k to 8k within the
    /// hour, with run-to-run spreads of 26-35 % that the single-threaded
    /// reference work cannot correct. On one CPU a message is handed over by
    /// a context switch, nothing idles, and the same hour read 11.5-13.4k and
    /// 5.5-6.1k. The price: the daemon's two drain workers and two handlers
    /// no longer run side by side, so `service_durable` reads about half of
    /// what two undisturbed cores would give.
    pub fn on_one_cpu(self) -> bool {
        matches!(self, Kind::Remote | Kind::Service)
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub kind: Kind,
    /// One line, as in `BENCHMARK.json`.
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "pipeline_uniform",
        kind: Kind::Pipeline,
        why: "The paper's batch pipeline, uniform keys, closed loop of 2 sessions: batch checkers and history graphs do most of the work, dbsim little, store/net/service none.",
    },
    WorkloadDef {
        name: "live_uniform",
        kind: Kind::Live,
        why: "Same inputs, closed loop of 2 sessions, checked inline by the streaming SSER engine while they execute: a batch-checker gain must not move it, nor the reverse.",
    },
    WorkloadDef {
        name: "exec_hotkeys",
        kind: Kind::Hotkeys,
        why: "Zipf(1.0) keys, closed loop of 2 sessions: dbsim (hot version chains, OCC aborts and retries) has its largest share here, about half; the SER checker has the rest.",
    },
    WorkloadDef {
        name: "remote_exec",
        kind: Kind::Remote,
        why: "The same engine behind a loopback NetServer, closed loop of 2 session threads on 2 connections, all on one CPU: one wire round trip per operation, so mtc-net does most of the work.",
    },
    WorkloadDef {
        name: "service_durable",
        kind: Kind::Service,
        why: "2 tenant connections, closed loop, all on one CPU, stream into the daemon (service, store, net framing); then each store is recovered and resumed: writes beside reads.",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Keys every workload addresses.
pub const NUM_KEYS: u64 = 1_000;
/// Driver threads (sessions, or tenant connections): the box has two cores.
pub const DRIVERS: u32 = 2;
/// Sessions interleaved inside each tenant's stream.
pub const TENANT_SESSIONS: u32 = 4;
/// Events per `Ingest` batch.
pub const INGEST_BATCH: usize = 64;
/// The level tenants are checked at; the daemon adds its default GC.
pub const TENANT_LEVEL: IsolationLevel = IsolationLevel::Serializability;

/// Retries are generous so that no template exhausts them; attempts that
/// abort are recorded, as the paper's checkers expect.
pub const CLIENT: ClientOptions = ClientOptions {
    max_retries: 1_000,
    record_aborted: true,
};

/// How templates are executed in process: the program's seeded
/// single-thread driver, which steps the sessions operation by operation,
/// so their transactions overlap and conflict as they would under threads.
///
/// Not the threaded driver: on a 2-vCPU guest two session threads contend
/// for the engine's commit lock only while the host really runs both vCPUs
/// at once, and whether it does changed every quarter of an hour. The same
/// binary and seed read 1.26M and 172k executed txns/s (`pipeline_uniform`),
/// 205k and 63k end to end (`live_uniform`) in two sets of ten runs taken
/// fifteen minutes apart. A number that follows the host's scheduler cannot
/// tell a regression from the weather.
pub fn driver(seed: u64) -> ExecutionOptions<'static> {
    ExecutionOptions::interleaved(seed).client(CLIENT)
}

/// How templates are executed over the wire: one thread per session, each
/// on its own connection. Sessions that wait for the wire share no lock to
/// contend on, and a single thread's ping-pong with the server measures
/// little but how long an idle vCPU takes to wake (0.15 to 1.0 s for the
/// same 2 000 transactions).
pub fn wire_driver() -> ExecutionOptions<'static> {
    ExecutionOptions::threaded().client(CLIENT)
}

/// Transactions per session (per tenant, for the service) of one
/// repetition. A run's value is the median over its repetitions, and on a
/// shared 2-core box that median is only as steady as it has samples: the
/// sizes are the smallest at which each workload still has the character
/// it is here for. `exec_hotkeys` needs long streams for dbsim to dominate
/// (its cost grows faster than the stream), `service_durable` slows as the
/// stream grows, and a `remote_exec` repetition is a tenth of a second
/// because wire round trips on two vCPUs are the noisiest thing measured.
pub fn txns_per_driver(kind: Kind, smoke: bool) -> u32 {
    let full = match kind {
        Kind::Pipeline => 20_000,
        Kind::Live => 40_000,
        Kind::Hotkeys => 40_000,
        Kind::Remote => 1_000,
        Kind::Service => 3_000,
    };
    if smoke {
        full / 20
    } else {
        full
    }
}

/// The generator settings of a workload's mini-transaction templates. The
/// service has none of its own: its layer probes run the uniform ones.
pub fn mt_spec(kind: Kind, seed: u64, txns_per_session: u32) -> MtWorkloadSpec {
    MtWorkloadSpec {
        sessions: DRIVERS,
        txns_per_session,
        num_keys: NUM_KEYS,
        distribution: match kind {
            Kind::Hotkeys => Distribution::Zipf { theta: 1.0 },
            _ => Distribution::Uniform,
        },
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed,
    }
}

/// The collected transactions of `history` (without `⊥T`) in the order of
/// their end instants. A collected history is grouped by session, which is
/// not an order a streaming checker may be fed in.
pub fn commit_ordered(history: &History) -> Vec<Transaction> {
    let init = history.init_txn();
    let mut txns: Vec<Transaction> = history
        .txns()
        .iter()
        .filter(|t| Some(t.id) != init)
        .cloned()
        .collect();
    // Stable: a session's own transactions keep their order on equal instants.
    txns.sort_by_key(|t| t.end.unwrap_or(u64::MAX));
    txns
}

/// A history over `⊥T` and `stream`, for the batch checkers.
pub fn history_of(stream: &[Transaction], num_keys: u64) -> History {
    let mut b = HistoryBuilder::new().with_init(num_keys);
    for t in stream {
        b.push_cloned(t.clone());
    }
    b.build()
}

pub fn event_of(txn: &Transaction) -> IngestEvent {
    IngestEvent {
        session: txn.session.0,
        ops: txn.ops.clone(),
        status: txn.status,
        begin: txn.begin,
        end: txn.end,
    }
}

pub fn txn_of(event: &IngestEvent) -> Transaction {
    Transaction {
        id: TxnId(0),
        session: SessionId(event.session),
        ops: event.ops.clone(),
        status: event.status,
        begin: event.begin,
        end: event.end,
    }
}

/// SplitMix64: the service stream's only source of randomness.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One tenant's event stream: `sessions` round-robin sessions issuing
/// mini-transactions over uniform keys in the generator's mix (a fifth
/// read-only, half on two keys). Every read observes the stream's latest
/// write and commit windows are disjoint and increasing, so the stream is
/// clean at every level by construction. Deterministic per `(seed, tenant)`.
///
/// Generated here rather than by `mtc_service::synthetic_events`, so that a
/// change to the program's load generator cannot change the measured load.
pub fn service_events(seed: u64, tenant: u32, sessions: u32, total: u32) -> Vec<IngestEvent> {
    let mut rng = SplitMix(seed ^ (u64::from(tenant) + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut last = vec![0u64; NUM_KEYS as usize];
    let mut next_value = 1_000u64;
    let mut events = Vec::with_capacity(total as usize);
    for i in 0..u64::from(total) {
        let read_only = rng.below(5) == 0;
        let k1 = rng.below(NUM_KEYS);
        let keys = if rng.below(2) == 0 {
            // A second, distinct key.
            vec![k1, (k1 + 1 + rng.below(NUM_KEYS - 1)) % NUM_KEYS]
        } else {
            vec![k1]
        };
        let mut ops: Vec<Op> = keys
            .iter()
            .map(|&k| Op::read(k, last[k as usize]))
            .collect();
        if !read_only {
            for &k in &keys {
                next_value += 1;
                last[k as usize] = next_value;
                ops.push(Op::write(k, next_value));
            }
        }
        events.push(IngestEvent::timed(
            (i % u64::from(sessions)) as u32,
            ops,
            TxnStatus::Committed,
            10 * i + 1,
            10 * i + 6,
        ));
    }
    events
}

/// A directory of this process's own under `parent`, removed when dropped
/// (which a panic's unwinding does too).
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn create(parent: &Path) -> std::io::Result<TempRoot> {
        let dir = parent.join(format!("tmp-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(TempRoot(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every regular file under `dir`, split by whether the file name
/// starts with `prefix`: `(matching, others)`.
pub fn dir_bytes(dir: &Path, prefix: &str) -> std::io::Result<(u64, u64)> {
    let (mut matching, mut others) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            let (m, o) = dir_bytes(&entry.path(), prefix)?;
            matching += m;
            others += o;
        } else if entry.file_name().to_string_lossy().starts_with(prefix) {
            matching += meta.len();
        } else {
            others += meta.len();
        }
    }
    Ok((matching, others))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_core::{check_sser, validate_transaction};

    #[test]
    fn service_stream_is_deterministic_mt_shaped_and_clean() {
        let a = service_events(5, 0, 4, 600);
        assert_eq!(a, service_events(5, 0, 4, 600), "same seed, same stream");
        assert_ne!(a, service_events(6, 0, 4, 600), "the seed matters");
        assert_ne!(a, service_events(5, 1, 4, 600), "tenants differ");
        assert_eq!(a.len(), 600);
        for e in &a {
            validate_transaction(&txn_of(e)).expect("every event is a mini-transaction");
            assert!(e.session < 4);
        }
        assert!(a.iter().any(|e| e.ops.len() == 4) && a.iter().any(|e| e.ops.len() == 1));
        let stream: Vec<Transaction> = a.iter().map(txn_of).collect();
        let history = history_of(&stream, NUM_KEYS);
        assert!(check_sser(&history).unwrap().is_satisfied());
    }

    #[test]
    fn commit_order_sorts_by_end_instant_and_drops_init() {
        let mut b = HistoryBuilder::new().with_init(2);
        b.committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)], 1, 9);
        b.committed_timed(1, vec![Op::read(1u64, 0u64)], 2, 4);
        b.committed_timed(0, vec![Op::read(0u64, 5u64)], 10, 12);
        let ordered = commit_ordered(&b.build());
        let ends: Vec<u64> = ordered.iter().map(|t| t.end.unwrap()).collect();
        assert_eq!(ends, [4, 9, 12]);
        assert_eq!(event_of(&ordered[0]).session, 1);
        assert_eq!(txn_of(&event_of(&ordered[1])).ops, ordered[1].ops);
    }

    #[test]
    fn temp_root_is_removed_on_drop() {
        let parent = std::env::temp_dir().join(format!("mtc_bm_test_{}", std::process::id()));
        let path = {
            let root = TempRoot::create(&parent).unwrap();
            std::fs::write(root.path().join("segment-0"), b"abc").unwrap();
            std::fs::write(root.path().join("checkpoint-0"), b"de").unwrap();
            assert_eq!(dir_bytes(root.path(), "segment-").unwrap(), (3, 2));
            root.path().to_path_buf()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(parent);
    }
}
