//! The engine's arena-backed maps: [`TxnMap`], a windowed dense map keyed by
//! transaction id, and [`IdOrdered`], one written as a plain map — with the
//! hand-written serde that fixes their snapshot layout.

use mtc_history::{FastHashMap, TxnId};
use serde::{Deserialize, Head, Serialize, Source};

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
    /// Entries present, in both parts.
    len: usize,
}

impl<V> Default for TxnMap<V> {
    fn default() -> Self {
        TxnMap {
            base: 0,
            dense: Vec::new(),
            low: FastHashMap::default(),
            len: 0,
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

    /// Entries present.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn insert(&mut self, t: TxnId, v: V) {
        let was = if t.0 >= self.base {
            let i = (t.0 - self.base) as usize;
            if self.dense.len() <= i {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i].replace(v)
        } else {
            self.low.insert(t, v)
        };
        self.len += usize::from(was.is_none());
    }

    pub(super) fn remove(&mut self, t: TxnId) {
        let was = if t.0 >= self.base {
            self.dense
                .get_mut((t.0 - self.base) as usize)
                .and_then(Option::take)
        } else {
            self.low.remove(&t)
        };
        self.len -= usize::from(was.is_some());
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

    /// Every entry in id order.
    pub(super) fn sorted(&self) -> Vec<(TxnId, &V)> {
        let mut entries: Vec<(TxnId, &V)> = Vec::with_capacity(self.len);
        entries.extend(self.iter());
        entries.sort_unstable_by_key(|&(t, _)| t);
        entries
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
        out.begin_struct(2);
        out.field("base");
        self.base.emit(out);
        out.field("entries");
        let entries = self.sorted();
        out.begin_array(entries.len());
        for (t, v) in entries {
            (t.0, v).emit(out);
        }
        out.end_array();
        out.end_struct();
    }
}

impl<V: Deserialize> Deserialize for TxnMap<V> {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, serde::Error> {
        let (base, mut map) = match src.next()? {
            Head::Array(2) => {
                let base = u32::pull(src)?;
                (base, Self::pull_entries(src, base)?)
            }
            Head::Object(len) => {
                let (mut base, mut entries) = (None, None);
                for _ in 0..len {
                    match src.key()? {
                        "base" if base.is_none() => base = Some(u32::pull(src)?),
                        "entries" if entries.is_none() => {
                            entries = Some(Self::pull_entries(src, base.unwrap_or(0))?)
                        }
                        _ => src.skip()?,
                    }
                }
                (
                    base.ok_or_else(|| serde::Error::missing_field("TxnMap", "base"))?,
                    entries.ok_or_else(|| serde::Error::missing_field("TxnMap", "entries"))?,
                )
            }
            _ => {
                return Err(serde::Error::expected(
                    "array of 2 fields or object",
                    "TxnMap",
                ))
            }
        };
        map.rebase(base);
        Ok(map)
    }
}

impl<V: Deserialize> TxnMap<V> {
    /// The `entries` field, straight into a map whose window starts at
    /// `base`: there is no list of pairs to build first. `base` is written
    /// ahead of them; had it come behind, the caller's `rebase` moves the
    /// window.
    fn pull_entries<S: Source + ?Sized>(src: &mut S, base: u32) -> Result<Self, serde::Error> {
        let Head::Array(pairs) = src.next()? else {
            return Err(serde::Error::expected("entries array", "TxnMap"));
        };
        let mut map = TxnMap {
            base,
            ..TxnMap::default()
        };
        // Room for every entry in the window, as far as the bytes left can
        // back the claim (four times them, as a `Vec` reserves).
        let each = std::mem::size_of::<Option<V>>().max(1);
        map.dense
            .reserve_exact(pairs.min(src.bytes_left().saturating_mul(4) / each));
        let mut in_window = 0;
        for _ in 0..pairs {
            let Head::Array(2) = src.next()? else {
                return Err(serde::Error::expected("[txn, value] pair", "TxnMap"));
            };
            let t = TxnId(u32::pull(src)?);
            // A map holds every resident transaction from `base` up and is
            // written in id order, so its window has next to no gaps; an id
            // far past the entries read so far would set aside a slot for
            // every id before it.
            if t.0 >= base {
                in_window += 1;
                if (t.0 - base) as usize >= in_window + 64 {
                    return Err(serde::Error::msg(format!(
                        "TxnMap from {base}: an entry for {t} after {in_window} in its window"
                    )));
                }
            }
            map.insert(t, V::pull(src)?);
        }
        Ok(map)
    }
}

/// A [`TxnMap`] that a snapshot writes as a plain map in id order —
/// `[[id, value], …]`, a `BTreeMap<TxnId, V>`'s layout — with no window in
/// the bytes: reading one picks its own window, the smallest that holds at
/// least half the ids it spans.
#[derive(Clone, Debug)]
pub(super) struct IdOrdered<V>(TxnMap<V>);

impl<V> Default for IdOrdered<V> {
    fn default() -> Self {
        IdOrdered(TxnMap::default())
    }
}

impl<V> std::ops::Deref for IdOrdered<V> {
    type Target = TxnMap<V>;

    fn deref(&self) -> &TxnMap<V> {
        &self.0
    }
}

impl<V> std::ops::DerefMut for IdOrdered<V> {
    fn deref_mut(&mut self) -> &mut TxnMap<V> {
        &mut self.0
    }
}

impl<V: Serialize> Serialize for IdOrdered<V> {
    fn emit<E: serde::Emitter + ?Sized>(&self, out: &mut E) {
        self.0.sorted().emit(out);
    }
}

impl<V: Deserialize> Deserialize for IdOrdered<V> {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, serde::Error> {
        let mut pairs = Vec::<(TxnId, V)>::pull(src)?;
        pairs.sort_unstable_by_key(|&(t, _)| t);
        let (n, top) = (pairs.len(), pairs.last().map_or(0, |&(t, _)| t.0));
        // The window `[base, top]` holds the `n - i` ids from the `i`-th up.
        let holds_half = |i: usize| top - pairs[i].0 .0 < 2 * (n - i) as u32;
        let base = (0..n).find(|&i| holds_half(i)).map_or(0, |i| pairs[i].0 .0);
        let mut map = TxnMap::default();
        map.rebase(base);
        map.dense
            .reserve_exact((top - base) as usize + usize::from(n > 0));
        for (t, v) in pairs {
            map.insert(t, v);
        }
        Ok(IdOrdered(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::JsonValue::{self, Array, Null, Object, U64};

    fn fields(entries: Vec<(&str, JsonValue)>) -> JsonValue {
        Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A map reads back the same whichever of its two fields comes first,
    /// strangers between them or not, and an entry is a pair exactly.
    #[test]
    fn a_txn_map_reads_its_fields_in_either_order() {
        let mut map = TxnMap::<usize>::default();
        for t in [0u32, 3, 17, 18, 40] {
            map.insert(TxnId(t), t as usize * 10);
        }
        map.rebase(17);
        let written = map.to_json_value();
        let (base, entries) = (
            written.get("base").unwrap().clone(),
            written.get("entries").unwrap().clone(),
        );
        assert_eq!(base, U64(17));
        let swapped = fields(vec![
            ("entries", entries.clone()),
            ("stranger", Array(vec![Null])),
            ("base", base.clone()),
        ]);
        for tree in [&written, &swapped] {
            let back = TxnMap::<usize>::from_json_value(tree).unwrap();
            assert_eq!(
                (back.base, &back.dense, &back.low, back.len),
                (17, &map.dense, &map.low, 5)
            );
            assert_eq!(back.to_json_value(), written);
        }
        let long_pair = Array(vec![Array(vec![U64(18), U64(180), Null])]);
        // An entry 65 ids into a window that holds nothing before it.
        let far = Array(vec![Array(vec![U64(17 + 65), U64(1)])]);
        for broken in [
            fields(vec![("base", base.clone())]),
            fields(vec![("entries", entries)]),
            fields(vec![("base", base.clone()), ("entries", long_pair)]),
            fields(vec![("base", base), ("entries", far)]),
        ] {
            assert!(TxnMap::<usize>::from_json_value(&broken).is_err());
        }
    }
}
