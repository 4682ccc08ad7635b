//! The multi-version storage layer.
//!
//! Every key maps to a chain of committed versions ordered by commit
//! timestamp. Reads select the newest version visible at a snapshot
//! timestamp, by binary search over the chain, so a read costs
//! O(log versions) and allocates nothing; commits append new versions.
//! The store itself is isolation-agnostic — all policy (snapshots,
//! validation, faults) lives in [`crate::txn`].

use mtc_history::{FastHashMap, Key, Value, INIT_VALUE};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// A stored value: either a register or an append-only list.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoredValue {
    /// A single 64-bit register value.
    Register(Value),
    /// An append-only list of elements.
    List(Vec<Value>),
}

impl StoredValue {
    /// The register value, if this is a register.
    pub fn as_register(&self) -> Option<Value> {
        match self {
            StoredValue::Register(v) => Some(*v),
            StoredValue::List(_) => None,
        }
    }

    /// The list elements, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            StoredValue::List(l) => Some(l),
            StoredValue::Register(_) => None,
        }
    }
}

/// One committed version of a key.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Version {
    /// Commit timestamp that installed the version.
    pub commit_ts: u64,
    /// The value installed.
    pub value: StoredValue,
}

/// The version chain of a single key, ordered by ascending commit timestamp.
#[derive(Clone, Debug, Default)]
pub struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    /// Creates a chain with a single initial version.
    pub fn with_initial(value: StoredValue) -> Self {
        VersionChain {
            versions: vec![Version {
                commit_ts: 0,
                value,
            }],
        }
    }

    /// Number of versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True iff the chain has no versions.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// The newest version.
    pub fn latest(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// The newest version with `commit_ts <= snapshot_ts`, optionally
    /// skipping the `skip_recent` newest such versions (used by the
    /// stale-snapshot fault; skipping past the oldest returns the oldest).
    /// Returns `None` if nothing is visible.
    ///
    /// [`VersionChain::push`] keeps the chain sorted by commit timestamp,
    /// so the visible versions are a prefix of it, found by binary search.
    pub fn visible_at(&self, snapshot_ts: u64, skip_recent: usize) -> Option<&Version> {
        let visible = self
            .versions
            .partition_point(|v| v.commit_ts <= snapshot_ts);
        let newest = visible.checked_sub(1)?;
        Some(&self.versions[newest.saturating_sub(skip_recent)])
    }

    /// True iff some version is newer than `snapshot_ts`.
    pub fn has_newer_than(&self, snapshot_ts: u64) -> bool {
        self.versions
            .last()
            .map(|v| v.commit_ts > snapshot_ts)
            .unwrap_or(false)
    }

    /// Appends a version. Panics if the commit timestamp does not increase.
    pub fn push(&mut self, version: Version) {
        if let Some(last) = self.versions.last() {
            assert!(
                version.commit_ts >= last.commit_ts,
                "commit timestamps must be monotone"
            );
        }
        self.versions.push(version);
    }
}

/// The shared, thread-safe store.
#[derive(Debug, Default)]
pub struct Store {
    map: RwLock<FastHashMap<Key, VersionChain>>,
}

impl Store {
    /// Creates a store with `num_keys` registers pre-initialized to the
    /// initial value at commit timestamp 0 (the `⊥T` transaction).
    pub fn with_register_keys(num_keys: u64) -> Self {
        let mut map = FastHashMap::with_capacity_and_hasher(num_keys as usize, Default::default());
        for k in 0..num_keys {
            map.insert(
                Key(k),
                VersionChain::with_initial(StoredValue::Register(INIT_VALUE)),
            );
        }
        Store {
            map: RwLock::new(map),
        }
    }

    /// Reads the version of `key` visible at `snapshot_ts`. A missing key or
    /// an empty chain yields `None` (the caller substitutes the implicit
    /// initial value).
    pub fn read(&self, key: Key, snapshot_ts: u64, skip_recent: usize) -> Option<Version> {
        self.map
            .read()
            .get(&key)
            .and_then(|c| c.visible_at(snapshot_ts, skip_recent))
            .cloned()
    }

    /// The newest committed version of `key`.
    pub fn read_latest(&self, key: Key) -> Option<Version> {
        self.map.read().get(&key).and_then(|c| c.latest()).cloned()
    }

    /// True iff `key` has a version newer than `snapshot_ts`.
    pub fn has_newer_than(&self, key: Key, snapshot_ts: u64) -> bool {
        self.map
            .read()
            .get(&key)
            .map(|c| c.has_newer_than(snapshot_ts))
            .unwrap_or(false)
    }

    /// Installs `value` for `key` at `commit_ts`.
    pub fn install(&self, key: Key, commit_ts: u64, value: StoredValue) {
        self.map
            .write()
            .entry(key)
            .or_default()
            .push(Version { commit_ts, value });
    }

    /// Installs a whole write set atomically at the timestamp `tick` draws,
    /// and returns that timestamp (the caller must hold the commit mutex so
    /// that timestamps stay monotone per chain).
    ///
    /// `tick` runs *while the map's write lock is held*: a transaction whose
    /// begin timestamp is later than the one drawn here cannot read before
    /// the install, so validating against its begin timestamp
    /// ([`Store::has_newer_than`]) never passes over a version it did not
    /// see — with the draw outside the lock, that was a lost update.
    pub fn install_all<'a>(
        &self,
        tick: impl FnOnce() -> u64,
        writes: impl IntoIterator<Item = (Key, &'a StoredValue)>,
    ) -> u64 {
        let mut map = self.map.write();
        let commit_ts = tick();
        for (key, value) in writes {
            map.entry(key).or_default().push(Version {
                commit_ts,
                value: value.clone(),
            });
        }
        commit_ts
    }

    /// Number of keys with at least one version.
    pub fn key_count(&self) -> usize {
        self.map.read().len()
    }

    /// Total number of versions across all keys (storage footprint proxy).
    pub fn version_count(&self) -> usize {
        self.map.read().values().map(VersionChain::len).sum()
    }

    /// The current register value of `key` (latest version), interpreting a
    /// missing key as the initial value. Intended for tests and examples.
    pub fn current_register(&self, key: Key) -> Value {
        self.read_latest(key)
            .and_then(|v| v.value.as_register())
            .unwrap_or(INIT_VALUE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `visible_at` as it was before the binary search: every visible
    /// version collected into a `Vec`, then indexed. The reference the
    /// proptest below holds the binary search to.
    fn visible_at_by_filter(
        chain: &VersionChain,
        snapshot_ts: u64,
        skip_recent: usize,
    ) -> Option<&Version> {
        let visible: Vec<&Version> = chain
            .versions
            .iter()
            .filter(|v| v.commit_ts <= snapshot_ts)
            .collect();
        if visible.is_empty() {
            return None;
        }
        let idx = visible.len().saturating_sub(skip_recent.saturating_add(1));
        Some(visible[idx.min(visible.len() - 1)])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Over random monotone chains — empty, or versions `gaps` apart from
        /// `first`, where a gap of 0 makes an equal-timestamp group —, at a snapshot
        /// before, at and after every version and at the extremes, with
        /// `skip_recent` 0, 1, 2, the chain's length and `usize::MAX`, the
        /// binary search picks the very version the filter picks.
        #[test]
        fn the_binary_search_is_the_filter(
            first in 0u64..3,
            gaps in prop::collection::vec(0u64..3, 0..12),
        ) {
            let mut chain = VersionChain::default();
            let mut ts = first;
            for (i, gap) in gaps.iter().enumerate() {
                ts += gap;
                chain.push(Version {
                    commit_ts: ts,
                    value: StoredValue::Register(Value(i as u64)),
                });
            }
            let mut snapshots = vec![0, u64::MAX];
            for v in &chain.versions {
                snapshots.extend([v.commit_ts.saturating_sub(1), v.commit_ts, v.commit_ts + 1]);
            }
            for snapshot_ts in snapshots {
                for skip in [0, 1, 2, chain.len(), usize::MAX] {
                    let found = chain.visible_at(snapshot_ts, skip).map(|v| v as *const Version);
                    let reference =
                        visible_at_by_filter(&chain, snapshot_ts, skip).map(|v| v as *const Version);
                    prop_assert_eq!(found, reference, "snapshot {}, skip {}", snapshot_ts, skip);
                }
            }
        }
    }

    #[test]
    fn initial_registers_are_visible_at_any_snapshot() {
        let store = Store::with_register_keys(3);
        assert_eq!(store.key_count(), 3);
        let v = store.read(Key(1), 0, 0).unwrap();
        assert_eq!(v.commit_ts, 0);
        assert_eq!(v.value, StoredValue::Register(INIT_VALUE));
        assert!(store.read(Key(7), 10, 0).is_none());
    }

    #[test]
    fn snapshot_reads_see_only_older_versions() {
        let store = Store::with_register_keys(1);
        store.install(Key(0), 5, StoredValue::Register(Value(50)));
        store.install(Key(0), 9, StoredValue::Register(Value(90)));
        assert_eq!(
            store.read(Key(0), 4, 0).unwrap().value,
            StoredValue::Register(INIT_VALUE)
        );
        assert_eq!(
            store.read(Key(0), 5, 0).unwrap().value,
            StoredValue::Register(Value(50))
        );
        assert_eq!(
            store.read(Key(0), 100, 0).unwrap().value,
            StoredValue::Register(Value(90))
        );
        assert_eq!(store.current_register(Key(0)), Value(90));
    }

    #[test]
    fn stale_snapshot_skips_recent_versions() {
        let store = Store::with_register_keys(1);
        store.install(Key(0), 5, StoredValue::Register(Value(50)));
        store.install(Key(0), 9, StoredValue::Register(Value(90)));
        let v = store.read(Key(0), 100, 1).unwrap();
        assert_eq!(v.value, StoredValue::Register(Value(50)));
        // Skipping more versions than exist still returns the oldest one.
        let v = store.read(Key(0), 100, 10).unwrap();
        assert_eq!(v.value, StoredValue::Register(INIT_VALUE));
    }

    #[test]
    fn newer_than_detection() {
        let store = Store::with_register_keys(1);
        assert!(!store.has_newer_than(Key(0), 0));
        store.install(Key(0), 7, StoredValue::Register(Value(1)));
        assert!(store.has_newer_than(Key(0), 3));
        assert!(!store.has_newer_than(Key(0), 7));
        assert!(!store.has_newer_than(Key(99), 0));
    }

    #[test]
    fn lists_grow_by_whole_values() {
        let store = Store::default();
        store.install(Key(4), 3, StoredValue::List(vec![Value(1)]));
        store.install(Key(4), 6, StoredValue::List(vec![Value(1), Value(2)]));
        let v = store.read(Key(4), 10, 0).unwrap();
        assert_eq!(v.value.as_list().unwrap(), &[Value(1), Value(2)]);
        assert_eq!(store.version_count(), 2);
    }

    #[test]
    fn install_all_is_atomic_per_timestamp() {
        let store = Store::with_register_keys(2);
        let w0 = StoredValue::Register(Value(10));
        let w1 = StoredValue::Register(Value(11));
        assert_eq!(
            store.install_all(|| 4, vec![(Key(0), &w0), (Key(1), &w1)]),
            4
        );
        assert_eq!(store.read(Key(0), 4, 0).unwrap().commit_ts, 4);
        assert_eq!(store.read(Key(1), 4, 0).unwrap().commit_ts, 4);
    }

    #[test]
    fn install_all_draws_the_timestamp_under_the_write_lock() {
        let store = Store::with_register_keys(1);
        let w = StoredValue::Register(Value(10));
        let tick = || {
            assert!(
                store.map.try_read().is_none(),
                "a reader could run between the tick and the install"
            );
            4
        };
        store.install_all(tick, vec![(Key(0), &w)]);
        assert_eq!(store.current_register(Key(0)), Value(10));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_commit_timestamps_panic() {
        let mut chain = VersionChain::with_initial(StoredValue::Register(INIT_VALUE));
        chain.push(Version {
            commit_ts: 5,
            value: StoredValue::Register(Value(1)),
        });
        chain.push(Version {
            commit_ts: 3,
            value: StoredValue::Register(Value(2)),
        });
    }

    #[test]
    fn visible_at_with_skip_recent_larger_than_the_chain_returns_the_oldest() {
        let mut chain = VersionChain::with_initial(StoredValue::Register(INIT_VALUE));
        chain.push(Version {
            commit_ts: 3,
            value: StoredValue::Register(Value(30)),
        });
        chain.push(Version {
            commit_ts: 8,
            value: StoredValue::Register(Value(80)),
        });
        // skip_recent far beyond the chain length must clamp to the oldest
        // visible version, never panic or underflow.
        for skip in [3usize, 10, usize::MAX] {
            let v = chain.visible_at(100, skip).unwrap();
            assert_eq!(v.commit_ts, 0, "skip={skip}");
            assert_eq!(v.value, StoredValue::Register(INIT_VALUE));
        }
        // Same when only a suffix of the chain is visible.
        let v = chain.visible_at(3, 5).unwrap();
        assert_eq!(v.commit_ts, 0);
    }

    #[test]
    fn visible_at_before_the_first_version_yields_none() {
        // A chain whose oldest version postdates the snapshot has nothing
        // to offer (the caller substitutes the implicit initial value).
        let mut chain = VersionChain::default();
        chain.push(Version {
            commit_ts: 5,
            value: StoredValue::Register(Value(50)),
        });
        assert!(chain.visible_at(4, 0).is_none());
        assert!(chain.visible_at(4, 3).is_none());
        assert!(chain.visible_at(0, 0).is_none());
        // The empty chain is the degenerate case of the same rule.
        let empty = VersionChain::default();
        assert!(empty.is_empty());
        assert!(empty.visible_at(u64::MAX, 0).is_none());
        assert!(!empty.has_newer_than(0));
    }

    #[test]
    fn equal_timestamp_versions_prefer_the_last_installed() {
        // `install_all` installs a whole write set at one commit timestamp;
        // a chain may therefore hold equal-timestamp versions (same-ts
        // pushes are allowed by the monotonicity assertion). Visibility at
        // that instant must return the newest install, and `skip_recent`
        // must step through the equal-timestamp group deterministically.
        let mut chain = VersionChain::with_initial(StoredValue::Register(INIT_VALUE));
        chain.push(Version {
            commit_ts: 7,
            value: StoredValue::Register(Value(71)),
        });
        chain.push(Version {
            commit_ts: 7,
            value: StoredValue::Register(Value(72)),
        });
        assert_eq!(chain.len(), 3);
        assert_eq!(
            chain.visible_at(7, 0).unwrap().value,
            StoredValue::Register(Value(72))
        );
        assert_eq!(
            chain.visible_at(7, 1).unwrap().value,
            StoredValue::Register(Value(71))
        );
        assert_eq!(
            chain.visible_at(7, 2).unwrap().value,
            StoredValue::Register(INIT_VALUE)
        );
        // `has_newer_than` is strict: an equal-timestamp version is not
        // "newer" than the snapshot taken at that same instant.
        assert!(!chain.has_newer_than(7));
        assert!(chain.has_newer_than(6));
        assert_eq!(
            chain.latest().unwrap().value,
            StoredValue::Register(Value(72))
        );
        // The equal-timestamp pair right at the snapshot boundary, with a
        // newer version behind it: the cut falls after the pair.
        chain.push(Version {
            commit_ts: 9,
            value: StoredValue::Register(Value(90)),
        });
        for (ts, skip, expected) in [(6, 0, 0), (7, 0, 72), (8, 0, 72), (8, 1, 71), (9, 0, 90)] {
            let seen = chain.visible_at(ts, skip).unwrap().value.clone();
            assert_eq!(seen, StoredValue::Register(Value(expected)), "ts={ts}");
        }
    }

    #[test]
    fn stored_value_accessors() {
        assert_eq!(
            StoredValue::Register(Value(3)).as_register(),
            Some(Value(3))
        );
        assert_eq!(StoredValue::Register(Value(3)).as_list(), None);
        assert_eq!(StoredValue::List(vec![]).as_register(), None);
    }
}
