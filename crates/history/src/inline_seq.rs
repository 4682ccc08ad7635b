//! [`InlineSeq`]: a sequence of small `Copy` ids that holds its first few
//! elements in place and moves to the heap only beyond them.
//!
//! It has two users, both of which keep a short list per entry of a large
//! map, where a `Vec` per list costs a heap allocation for every entry that
//! has any element:
//!
//! * the adjacency rows of [`crate::IncrementalTopo`] (`u32` node ids, five
//!   in place): a node of a mini-transaction dependency graph has a handful
//!   of neighbours;
//! * the reader and overwriter lists of `mtc-core`'s streaming key state
//!   ([`crate::TxnId`]s, two in place): most versions are read by one or two
//!   transactions before they are overwritten.
//!
//! The sequence serializes exactly like a `Vec<T>` — one plain array — so
//! snapshots do not see the difference.

use serde::{Deserialize, Head, Serialize, Source};

/// Up to `N` elements in place, any number on the heap; element order is
/// that of a `Vec` under the same calls.
#[derive(Clone, Debug)]
pub struct InlineSeq<T, const N: usize> {
    /// Number of elements held in `inline`; 0 once spilled.
    len: u32,
    inline: [T; N],
    /// Every element of the sequence, once it has held more than `N`.
    /// Boxed: the point of the type is a small list, and one pointer is what
    /// a list that never spills pays for the ones that do.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<T>>>,
}

impl<T: Copy + Default, const N: usize> Default for InlineSeq<T, N> {
    fn default() -> Self {
        InlineSeq {
            len: 0,
            inline: [T::default(); N],
            spill: None,
        }
    }
}

impl<T: Copy + Default, const N: usize> InlineSeq<T, N> {
    /// The elements, in order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.spill {
            Some(heap) => heap,
            None => &self.inline[..self.len as usize],
        }
    }

    /// The elements, in order, to change in place.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.spill {
            Some(heap) => heap,
            None => &mut self.inline[..self.len as usize],
        }
    }

    /// Appends `item`; the `N + 1`-th element moves the sequence to the heap.
    #[inline]
    pub fn push(&mut self, item: T) {
        if let Some(heap) = &mut self.spill {
            heap.push(item);
        } else if (self.len as usize) < N {
            self.inline[self.len as usize] = item;
            self.len += 1;
        } else {
            let mut heap = Vec::with_capacity(2 * N + 1);
            heap.extend_from_slice(&self.inline);
            heap.push(item);
            self.spill = Some(Box::new(heap));
            self.len = 0;
        }
    }

    /// Empties the sequence and frees its heap half.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill = None;
    }

    /// Keeps the elements `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(T) -> bool) {
        if let Some(heap) = &mut self.spill {
            return heap.retain(|&item| keep(item));
        }
        let mut kept = 0;
        for i in 0..self.len as usize {
            if keep(self.inline[i]) {
                self.inline[kept] = self.inline[i];
                kept += 1;
            }
        }
        self.len = kept as u32;
    }

    /// Removes the element at `index`, moving the last one into its place.
    pub fn swap_remove(&mut self, index: usize) {
        if let Some(heap) = &mut self.spill {
            heap.swap_remove(index);
            return;
        }
        let last = self.len as usize - 1;
        assert!(index <= last, "swap_remove index out of bounds");
        self.inline[index] = self.inline[last];
        self.len -= 1;
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineSeq<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + Serialize, const N: usize> Serialize for InlineSeq<T, N> {
    fn emit<E: serde::Emitter + ?Sized>(&self, out: &mut E) {
        self.as_slice().emit(out);
    }
}

impl<T: Copy + Default + Deserialize, const N: usize> Deserialize for InlineSeq<T, N> {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, serde::Error> {
        let Head::Array(len) = src.next()? else {
            return Err(serde::Error::expected("array", "InlineSeq"));
        };
        let mut seq = InlineSeq::default();
        for _ in 0..len {
            seq.push(T::pull(src)?);
        }
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxnId;

    /// Every mutation, mirrored on a `Vec`, across the inline / spilled
    /// boundary: same elements, same order, same serialized value.
    #[test]
    fn behaves_like_a_vec_on_both_sides_of_the_spill() {
        let mut state = 7u64;
        let mut next = |bound: u64| crate::split_mix(&mut state) % bound;
        for _ in 0..200 {
            let mut seq = InlineSeq::<u32, 3>::default();
            let mut mirror: Vec<u32> = Vec::new();
            for _ in 0..24 {
                match next(6) {
                    0..=2 => {
                        let id = next(8) as u32;
                        seq.push(id);
                        mirror.push(id);
                    }
                    3 if !mirror.is_empty() => {
                        let at = next(mirror.len() as u64) as usize;
                        seq.swap_remove(at);
                        mirror.swap_remove(at);
                    }
                    4 => {
                        let gone = next(8) as u32;
                        seq.retain(|id| id != gone);
                        mirror.retain(|&id| id != gone);
                    }
                    5 if next(4) == 0 => {
                        seq.clear();
                        mirror.clear();
                    }
                    _ => {}
                }
                assert_eq!(seq.as_slice(), mirror.as_slice());
                assert_eq!(seq.to_json_value(), mirror.to_json_value());
                let back = InlineSeq::<u32, 3>::from_json_value(&seq.to_json_value()).unwrap();
                assert_eq!(back.as_slice(), mirror.as_slice());
            }
        }
    }

    /// The reader lists' shape: `TxnId`s, two in place, written as the
    /// array a `Vec<TxnId>` writes.
    #[test]
    fn transaction_ids_serialize_as_a_vec_of_them() {
        for n in 0..6u32 {
            let mirror: Vec<TxnId> = (0..n).map(|i| TxnId(10 * i + 1)).collect();
            let mut seq = InlineSeq::<TxnId, 2>::default();
            mirror.iter().for_each(|&id| seq.push(id));
            assert_eq!(seq.to_json_value(), mirror.to_json_value());
            let back = InlineSeq::<TxnId, 2>::from_json_value(&mirror.to_json_value()).unwrap();
            assert_eq!(back.as_slice(), mirror.as_slice());
            assert_eq!(back.spill.is_some(), n > 2, "only a long list spills");
        }
    }

    #[test]
    fn a_cleared_sequence_starts_over_in_place() {
        let mut seq = InlineSeq::<u32, 2>::default();
        for id in 0..5 {
            seq.push(id);
        }
        assert!(seq.spill.is_some());
        seq.clear();
        assert!(seq.spill.is_none() && seq.as_slice().is_empty());
        seq.push(9);
        assert!(seq.spill.is_none());
        assert_eq!(seq.as_slice(), &[9]);
    }
}
