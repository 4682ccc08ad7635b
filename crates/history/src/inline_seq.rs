//! [`InlineSeq`]: a sequence of node ids that holds its first few elements
//! in place and moves to the heap only beyond them.
//!
//! The adjacency rows of [`crate::IncrementalTopo`] are the user: a node of
//! a mini-transaction dependency graph has a handful of neighbours, and a
//! `Vec<u32>` per row costs a heap allocation for every node that has any.
//! The sequence serializes exactly like a `Vec<u32>` — one plain array — so
//! snapshots do not see the difference.

use serde::{Deserialize, Head, Serialize, Source};

/// Up to `N` ids in place, any number on the heap; element order is that
/// of a `Vec` under the same calls.
#[derive(Clone, Debug)]
pub(crate) struct InlineSeq<const N: usize> {
    /// Number of ids held in `inline`; 0 once spilled.
    len: u32,
    inline: [u32; N],
    /// Every id of the sequence, once it has held more than `N`. Boxed: the
    /// point of the type is a small row, and one pointer is what a row that
    /// never spills pays for the ones that do.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<u32>>>,
}

impl<const N: usize> Default for InlineSeq<N> {
    fn default() -> Self {
        InlineSeq {
            len: 0,
            inline: [0; N],
            spill: None,
        }
    }
}

impl<const N: usize> InlineSeq<N> {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u32] {
        match &self.spill {
            Some(heap) => heap,
            None => &self.inline[..self.len as usize],
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, id: u32) {
        if let Some(heap) = &mut self.spill {
            heap.push(id);
        } else if (self.len as usize) < N {
            self.inline[self.len as usize] = id;
            self.len += 1;
        } else {
            let mut heap = Vec::with_capacity(2 * N + 1);
            heap.extend_from_slice(&self.inline);
            heap.push(id);
            self.spill = Some(Box::new(heap));
            self.len = 0;
        }
    }

    /// Empties the sequence and frees its heap half.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.spill = None;
    }

    /// Keeps the ids `keep` accepts, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        if let Some(heap) = &mut self.spill {
            return heap.retain(|&id| keep(id));
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

    /// Removes the id at `index`, moving the last one into its place.
    pub(crate) fn swap_remove(&mut self, index: usize) {
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

impl<const N: usize> Serialize for InlineSeq<N> {
    fn emit<E: serde::Emitter + ?Sized>(&self, out: &mut E) {
        self.as_slice().emit(out);
    }
}

impl<const N: usize> Deserialize for InlineSeq<N> {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, serde::Error> {
        let Head::Array(len) = src.next()? else {
            return Err(serde::Error::expected("array", "InlineSeq"));
        };
        let mut seq = InlineSeq::default();
        for _ in 0..len {
            seq.push(u32::pull(src)?);
        }
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every mutation, mirrored on a `Vec`, across the inline / spilled
    /// boundary: same elements, same order, same serialized value.
    #[test]
    fn behaves_like_a_vec_on_both_sides_of_the_spill() {
        let mut state = 7u64;
        let mut next = |bound: u64| crate::split_mix(&mut state) % bound;
        for _ in 0..200 {
            let mut seq = InlineSeq::<3>::default();
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
                let back = InlineSeq::<3>::from_json_value(&seq.to_json_value()).unwrap();
                assert_eq!(back.as_slice(), mirror.as_slice());
            }
        }
    }

    #[test]
    fn a_cleared_sequence_starts_over_in_place() {
        let mut seq = InlineSeq::<2>::default();
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
