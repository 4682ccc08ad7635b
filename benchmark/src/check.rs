//! The correctness self-check: verdicts must agree between the batch and
//! the streaming checkers, and an injected fault must be flagged by both.
//! A miss is an error, which ends the run with no metrics.

use crate::fixtures::{commit_ordered, mt_spec, Kind, CLIENT};
use mtc_core::{check, IncrementalChecker, IsolationLevel};
use mtc_dbsim::{
    BackendSpec, DbConfig, ExecutionOptions, FaultKind, FaultSpec, IsolationMode, LiveVerifier,
};
use mtc_history::{History, Transaction};
use mtc_workload::generate_mt_workload;

/// A fresh fault-free `sim-ser`.
pub fn sim_ser(num_keys: u64) -> BackendSpec {
    BackendSpec::Sim(DbConfig::correct(IsolationMode::Serializable, num_keys))
}

/// The batch checker's verdict on `history`: `true` iff it is violated.
pub fn batch_violated(level: IsolationLevel, history: &History) -> Result<bool, String> {
    check(level, history)
        .map(|v| v.is_violated())
        .map_err(|e| format!("batch {level} check is not applicable: {e}"))
}

/// The streaming checker's verdict on `stream`, fed in the given order.
pub fn streaming_violated(
    level: IsolationLevel,
    num_keys: u64,
    stream: &[Transaction],
) -> Result<bool, String> {
    let mut checker = IncrementalChecker::new(level).with_init_keys(0..num_keys);
    for txn in stream {
        let _ = checker.push(txn.clone());
    }
    checker
        .finish()
        .map(|v| v.is_violated())
        .map_err(|e| format!("streaming {level} check is not applicable: {e}"))
}

/// Demands that the streaming checker, fed `stream` in commit order, gives
/// the verdict the batch checker gave. Returns that verdict. An executed
/// history is never assumed clean: `sim-ser` has produced organic cycles.
pub fn verdicts_agree(
    level: IsolationLevel,
    num_keys: u64,
    stream: &[Transaction],
    batch: bool,
) -> Result<bool, String> {
    let streaming = streaming_violated(level, num_keys, stream)?;
    if streaming != batch {
        return Err(format!(
            "wrong verdict at {level}: batch says violated={batch}, streaming says \
             violated={streaming} on the same {} transactions",
            stream.len()
        ));
    }
    Ok(batch)
}

/// How often each commit-time validation is skipped in the fault probe. A
/// lost update needs both skipped in one transaction (`sim-ser` validates
/// the read a mini-transaction makes before its write, which would mask a
/// skipped write validation alone), and that transaction must overlap a
/// writer of the same key: at 0.5 a 4 000-transaction run has tens of them,
/// at 0.1 three seeds in ten had none.
const FAULT_P: f64 = 0.5;

/// Once per run: a 4 000-transaction history from a `sim-ser` that loses
/// updates must be flagged by `check_ser`, by the streaming checker, and by
/// a live verifier riding the execution.
pub fn fault_probe(seed: u64) -> Result<(), String> {
    let spec = mt_spec(Kind::Hotkeys, seed, 2_000);
    let templates = generate_mt_workload(&spec);
    let faulty = BackendSpec::Sim(
        DbConfig::correct(IsolationMode::Serializable, spec.num_keys).with_faults(
            vec![
                FaultSpec::new(FaultKind::SkipWriteValidation, FAULT_P),
                FaultSpec::new(FaultKind::SkipReadValidation, FAULT_P),
            ],
            seed,
        ),
    );
    let level = IsolationLevel::Serializability;

    let db = faulty.build();
    let verifier = LiveVerifier::builder(level, spec.num_keys).build();
    // The seeded single-thread schedule interleaves the sessions operation
    // by operation, so transactions overlap (and the faults bite) on every
    // machine, however briefly two real threads would have run side by side.
    let (history, _) = ExecutionOptions::interleaved(seed)
        .client(CLIENT)
        .verifier(&verifier)
        .run(db.as_ref(), &templates);
    let live = match verifier.finish().verdict {
        Ok(v) => v.is_violated(),
        Err(e) => return Err(format!("fault probe: live checker not applicable: {e}")),
    };
    let batch = batch_violated(level, &history)?;
    let streaming = streaming_violated(level, spec.num_keys, &commit_ordered(&history))?;
    if !(batch && streaming && live) {
        return Err(format!(
            "fault probe: lost updates were injected but flagged by batch={batch}, \
             streaming={streaming}, live={live}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{history_of, service_events, txn_of, NUM_KEYS};
    use mtc_history::Op;

    #[test]
    fn fault_probe_passes_on_the_real_checkers() {
        fault_probe(1).unwrap();
    }

    #[test]
    fn disagreement_is_an_error_and_agreement_returns_the_verdict() {
        let stream: Vec<Transaction> = service_events(3, 0, 4, 200).iter().map(txn_of).collect();
        let level = IsolationLevel::Serializability;
        let batch = batch_violated(level, &history_of(&stream, NUM_KEYS)).unwrap();
        assert!(!batch);
        assert_eq!(verdicts_agree(level, NUM_KEYS, &stream, batch), Ok(false));
        assert!(verdicts_agree(level, NUM_KEYS, &stream, !batch).is_err());
    }

    #[test]
    fn a_lost_update_is_flagged_by_both_checkers() {
        // Two sessions read the initial value of key 0 and both overwrite it.
        let mut stream = Vec::new();
        for (session, value, end) in [(0u32, 10u64, 5u64), (1, 11, 6)] {
            let mut t = Transaction::committed(
                mtc_history::TxnId(0),
                mtc_history::SessionId(session),
                vec![Op::read(0u64, 0u64), Op::write(0u64, value)],
            );
            t = t.with_times(1, end);
            stream.push(t);
        }
        let level = IsolationLevel::Serializability;
        assert!(batch_violated(level, &history_of(&stream, 2)).unwrap());
        assert_eq!(verdicts_agree(level, 2, &stream, true), Ok(true));
    }
}
