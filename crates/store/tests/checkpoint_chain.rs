//! The directory-driven [`prune_checkpoints`] is the oracle of what a store
//! directory holds after each checkpoint. This suite holds `MtcStore` to it:
//! over random cadences of checkpoints (the same `consumed` written again
//! included), any `keep`, and a reopen at a random point, the store's
//! directory holds exactly the files a mirror directory pruned by the oracle
//! holds — the newest `keep` checkpoints — and both recover the same one.

use mtc_core::{IncrementalChecker, IsolationLevel};
use mtc_history::{Op, SessionId, Transaction, TxnId};
use mtc_store::{crc32, latest_checkpoint, prune_checkpoints, to_bytes, MtcStore, StreamMeta};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mtc_store_chain_{tag}_{seed}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Names of the checkpoint files (and stray temporaries) in `dir`.
fn checkpoint_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("checkpoint-"))
        .collect()
}

/// What recovery would resume from: the checkpoint's `consumed` and the
/// CRC of its snapshot payload.
fn resolved(dir: &Path) -> Option<(u64, u32)> {
    latest_checkpoint(dir)
        .unwrap()
        .map(|(consumed, snapshot)| (consumed, crc32(&to_bytes(&snapshot))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn in_memory_prune_leaves_what_the_directory_oracle_leaves(
        // Transactions recorded before each checkpoint; 0 checkpoints the
        // same `consumed` again (a checkpoint written over the last).
        steps in prop::collection::vec(0u64..6, 1..14),
        keep in 1usize..=4,
        reopen_at in 0usize..14,
        seed in 0u64..1_000_000,
    ) {
        let dir = tmpdir("store", seed);
        let mirror = tmpdir("mirror", seed);
        fs::create_dir_all(&mirror).unwrap();
        let meta = StreamMeta { level: IsolationLevel::Serializability, num_keys: 2 };
        let configured = |store: MtcStore| store.with_checkpoint_keep(keep);
        let mut store = configured(MtcStore::create(&dir, &meta).unwrap());
        let mut checker =
            IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..2u64);
        let mut consumed = 0u64;
        let mut record = |store: &mut MtcStore, checker: &mut IncrementalChecker, n: u64| {
            for _ in 0..n {
                let t = Transaction::committed(
                    TxnId(0),
                    SessionId((consumed % 3) as u32),
                    vec![Op::read(0u64, consumed), Op::write(0u64, consumed + 1)],
                );
                store.append_txn(&t).unwrap();
                let _ = checker.push(t);
                consumed += 1;
            }
            consumed
        };
        record(&mut store, &mut checker, 30);
        let reopen_at = reopen_at % (steps.len() + 1);
        for (i, &advance) in steps.iter().enumerate() {
            if i == reopen_at {
                store.sync().unwrap();
                drop(store);
                store = configured(MtcStore::open_append(&dir).unwrap().0);
            }
            let consumed = record(&mut store, &mut checker, advance);
            let written = store.checkpoint(consumed, &checker.checkpoint()).unwrap();
            fs::copy(&written, mirror.join(written.file_name().unwrap())).unwrap();
            prune_checkpoints(&mirror, keep).unwrap();
            prop_assert_eq!(
                checkpoint_names(&dir), checkpoint_names(&mirror),
                "step {} (keep {}, reopen at {})", i, keep, reopen_at
            );
            prop_assert!(checkpoint_names(&dir).len() <= keep);
            prop_assert_eq!(resolved(&dir), resolved(&mirror));
            prop_assert_eq!(resolved(&dir).map(|(c, _)| c), Some(consumed));
        }
        // The oracle finds nothing left to delete in the store's directory.
        prop_assert_eq!(prune_checkpoints(&dir, keep).unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&mirror);
    }
}
