//! The engine's arena-backed maps: [`TxnMap`], a windowed dense map keyed by
//! transaction id, and [`ProvMap`], the composed-edge provenance rows — with
//! the hand-written serde that fixes their snapshot layout.

use mtc_history::{Edge, FastHashMap, TxnId};
use serde::{Deserialize, Serialize};

/// A windowed, dense map keyed by [`TxnId`]: ids at or above `base` index
/// straight into a vector — the hot path, covering every resident
/// transaction of an un-collected stream and the whole GC window of a
/// collected one — while ids below `base` spill into a hash map (`⊥T` and
/// the few transactions the GC pins under its watermark).
/// [`TxnMap::rebase`] moves the window forward at a collection commit so
/// the dense block stays proportional to the live window instead of the
/// whole history.
#[derive(Clone, Debug)]
pub(super) struct TxnMap<V> {
    base: u32,
    dense: Vec<Option<V>>,
    low: FastHashMap<TxnId, V>,
}

impl<V> Default for TxnMap<V> {
    fn default() -> Self {
        TxnMap {
            base: 0,
            dense: Vec::new(),
            low: FastHashMap::default(),
        }
    }
}

impl<V> TxnMap<V> {
    #[inline]
    pub(super) fn get(&self, t: TxnId) -> Option<&V> {
        if t.0 >= self.base {
            self.dense.get((t.0 - self.base) as usize)?.as_ref()
        } else {
            self.low.get(&t)
        }
    }

    pub(super) fn insert(&mut self, t: TxnId, v: V) {
        if t.0 >= self.base {
            let i = (t.0 - self.base) as usize;
            if self.dense.len() <= i {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i] = Some(v);
        } else {
            self.low.insert(t, v);
        }
    }

    pub(super) fn get_or_default(&mut self, t: TxnId) -> &mut V
    where
        V: Default,
    {
        if t.0 >= self.base {
            let i = (t.0 - self.base) as usize;
            if self.dense.len() <= i {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i].get_or_insert_with(V::default)
        } else {
            self.low.entry(t).or_default()
        }
    }

    pub(super) fn remove(&mut self, t: TxnId) {
        if t.0 >= self.base {
            if let Some(slot) = self.dense.get_mut((t.0 - self.base) as usize) {
                *slot = None;
            }
        } else {
            self.low.remove(&t);
        }
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = (TxnId, &V)> {
        let base = self.base;
        self.low.iter().map(|(&t, v)| (t, v)).chain(
            self.dense
                .iter()
                .enumerate()
                .filter_map(move |(i, v)| Some((TxnId(base + i as u32), v.as_ref()?))),
        )
    }

    /// Moves the dense window up to `base`: surviving entries below it (GC
    /// pins) spill into the low map; retired slots are dropped outright.
    pub(super) fn rebase(&mut self, base: u32) {
        if base <= self.base {
            return;
        }
        let split = ((base - self.base) as usize).min(self.dense.len());
        let old_base = self.base;
        for (i, slot) in self.dense.drain(..split).enumerate() {
            if let Some(v) = slot {
                self.low.insert(TxnId(old_base + i as u32), v);
            }
        }
        self.base = base;
    }
}

impl<V: Serialize> Serialize for TxnMap<V> {
    fn emit<E: serde::Emitter + ?Sized>(&self, out: &mut E) {
        let mut entries: Vec<(u32, &V)> = self.iter().map(|(t, v)| (t.0, v)).collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        out.begin_object(2);
        out.key("base");
        self.base.emit(out);
        out.key("entries");
        entries.emit(out);
        out.end_object();
    }
}

impl<V: Deserialize> Deserialize for TxnMap<V> {
    fn from_json_value(v: &serde::JsonValue) -> Result<Self, serde::Error> {
        let base = v
            .get("base")
            .ok_or_else(|| serde::Error::missing_field("TxnMap", "base"))?;
        let entries = v
            .get("entries")
            .ok_or_else(|| serde::Error::missing_field("TxnMap", "entries"))?;
        let serde::JsonValue::Array(entries) = entries else {
            return Err(serde::Error::expected("TxnMap", "entries array"));
        };
        let mut out = TxnMap {
            base: u32::from_json_value(base)?,
            ..TxnMap::default()
        };
        for entry in entries {
            let serde::JsonValue::Array(pair) = entry else {
                return Err(serde::Error::expected("TxnMap", "[txn, value] pair"));
            };
            let [t, val] = pair.as_slice() else {
                return Err(serde::Error::expected("TxnMap", "[txn, value] pair"));
            };
            out.insert(TxnId(u32::from_json_value(t)?), V::from_json_value(val)?);
        }
        Ok(out)
    }
}

/// Composed-edge provenance as an arena of adjacency rows indexed by source
/// composed-node id (dense and bounded: composed node ids are recycled by
/// the GC), each row sorted by target id for binary-search lookups — index
/// arithmetic instead of hashing a `(usize, usize)` pair per composition.
#[derive(Clone, Debug, Default)]
pub(super) struct ProvMap {
    rows: Vec<Vec<(u32, Edge, Option<Edge>)>>,
}

impl ProvMap {
    /// Records provenance for the pair `a → c`; false iff the pair is
    /// already present (first provenance wins, like the batch construction).
    pub(super) fn record(&mut self, a: usize, c: usize, prov: (Edge, Option<Edge>)) -> bool {
        if self.rows.len() <= a {
            self.rows.resize_with(a + 1, Vec::new);
        }
        let row = &mut self.rows[a];
        match row.binary_search_by_key(&(c as u32), |e| e.0) {
            Ok(_) => false,
            Err(i) => {
                row.insert(i, (c as u32, prov.0, prov.1));
                true
            }
        }
    }

    pub(super) fn get(&self, a: usize, c: usize) -> Option<(Edge, Option<Edge>)> {
        let row = self.rows.get(a)?;
        let i = row.binary_search_by_key(&(c as u32), |e| e.0).ok()?;
        Some((row[i].1, row[i].2))
    }

    /// Drops every pair with an endpoint flagged in `gone` (a bitmap over
    /// composed-node ids; out-of-range ids are live).
    pub(super) fn prune(&mut self, gone: &[bool]) {
        let dead = |n: usize| gone.get(n).copied().unwrap_or(false);
        for (a, row) in self.rows.iter_mut().enumerate() {
            if dead(a) {
                *row = Vec::new();
            } else {
                row.retain(|&(c, _, _)| !dead(c as usize));
            }
        }
    }
}

impl Serialize for ProvMap {
    fn emit<E: serde::Emitter + ?Sized>(&self, out: &mut E) {
        // The array's length is written before its rows: count first.
        out.begin_array(self.rows.iter().map(Vec::len).sum());
        for (a, row) in self.rows.iter().enumerate() {
            for &(c, base, rw) in row {
                (a as u32, c, base, rw).emit(out);
            }
        }
        out.end_array();
    }
}

impl Deserialize for ProvMap {
    fn from_json_value(v: &serde::JsonValue) -> Result<Self, serde::Error> {
        let serde::JsonValue::Array(items) = v else {
            return Err(serde::Error::expected("ProvMap", "array"));
        };
        let mut out = ProvMap::default();
        for item in items {
            let serde::JsonValue::Array(quad) = item else {
                return Err(serde::Error::expected("ProvMap", "[a, c, base, rw] entry"));
            };
            let [a, c, base, rw] = quad.as_slice() else {
                return Err(serde::Error::expected("ProvMap", "[a, c, base, rw] entry"));
            };
            out.record(
                u32::from_json_value(a)? as usize,
                u32::from_json_value(c)? as usize,
                (
                    Edge::from_json_value(base)?,
                    Option::<Edge>::from_json_value(rw)?,
                ),
            );
        }
        Ok(out)
    }
}
