//! [`OneVec`]: a sequence that holds its first element inline.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A sequence for the sections that almost always hold one element — a
/// message's questions, an OPT record's options. Zero or one element is
/// kept inline; from the second element on they all move to a `Vec`.
///
/// It derefs to a slice, and compares and prints as the `Vec` of the same
/// elements would.
///
/// ```
/// use dns_wire::OneVec;
/// let mut v = OneVec::new();
/// v.push(7);
/// assert_eq!(v, vec![7]);
/// v.push(8);
/// v.retain(|&x| x > 7);
/// assert_eq!(format!("{v:?}"), "[8]");
/// ```
#[derive(Clone)]
pub struct OneVec<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    Empty,
    One(T),
    /// Once spilled, elements stay in the `Vec` whatever their number.
    Many(Vec<T>),
}

impl<T> OneVec<T> {
    /// An empty sequence.
    pub const fn new() -> Self {
        OneVec(Repr::Empty)
    }

    /// A sequence of one element, held inline.
    pub const fn one(value: T) -> Self {
        OneVec(Repr::One(value))
    }

    /// Appends an element; the second one moves both to the heap.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Empty => self.0 = Repr::One(value),
            Repr::Many(v) => v.push(value),
            Repr::One(_) => {
                // Always `One`: the element moves out for the `Vec`.
                if let Repr::One(first) = std::mem::replace(&mut self.0, Repr::Empty) {
                    self.0 = Repr::Many(vec![first, value]);
                }
            }
        }
    }

    /// Keeps the elements `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Empty => {}
            Repr::One(value) => {
                if !keep(value) {
                    self.0 = Repr::Empty;
                }
            }
            Repr::Many(v) => v.retain(keep),
        }
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.0 = Repr::Empty;
    }

    /// Removes and returns the element at `index`, shifting the later
    /// ones down, as `Vec::remove` does; panics when `index` is out of
    /// bounds.
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.0 {
            Repr::Many(v) => v.remove(index),
            _ => {
                assert!(index < self.len(), "removal index {index} out of bounds");
                match std::mem::replace(&mut self.0, Repr::Empty) {
                    Repr::One(value) => value,
                    _ => unreachable!("an in-bounds index of an inline sequence"),
                }
            }
        }
    }
}

impl<T> Default for OneVec<T> {
    fn default() -> Self {
        OneVec::new()
    }
}

impl<T> Deref for OneVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(value) => std::slice::from_ref(value),
            Repr::Many(v) => v,
        }
    }
}

impl<T> DerefMut for OneVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Empty => &mut [],
            Repr::One(value) => std::slice::from_mut(value),
            Repr::Many(v) => v,
        }
    }
}

impl<T> From<Vec<T>> for OneVec<T> {
    /// Keeps a `Vec` of two or more elements as it is.
    fn from(mut v: Vec<T>) -> Self {
        match v.len() {
            0 => OneVec::new(),
            1 => OneVec::one(v.pop().expect("one element")),
            _ => OneVec(Repr::Many(v)),
        }
    }
}

impl<T> FromIterator<T> for OneVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = OneVec::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

impl<'a, T> IntoIterator for &'a OneVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for OneVec<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for OneVec<T> {}

impl<T: PartialEq> PartialEq<Vec<T>> for OneVec<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: PartialEq> PartialEq<OneVec<T>> for Vec<T> {
    fn eq(&self, other: &OneVec<T>) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for OneVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded runs of `push`, `retain`, `clear`, `remove`, writes through
    /// `iter_mut` and `collect` against a
    /// `Vec` doing the same: after every step the two hold, iterate,
    /// compare and print the same elements.
    #[test]
    fn a_one_vec_behaves_as_a_vec_does() {
        for seed in 0..200u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let mut model: Vec<u64> = Vec::new();
            let mut ours: OneVec<u64> = OneVec::new();
            for step in 0..60 {
                match next(12) {
                    0..=4 => {
                        let x = next(8);
                        model.push(x);
                        ours.push(x);
                    }
                    5 | 6 => {
                        let cut = next(8);
                        model.retain(|&x| x < cut);
                        ours.retain(|&x| x < cut);
                    }
                    7 => {
                        model.clear();
                        ours.clear();
                    }
                    8 if !model.is_empty() => {
                        let at = next(model.len() as u64) as usize;
                        assert_eq!(ours.remove(at), model.remove(at));
                    }
                    9 => {
                        for (x, y) in ours.iter_mut().zip(&mut model) {
                            *x += 1;
                            *y += 1;
                        }
                    }
                    _ => {
                        model = (0..next(4)).map(|_| next(8)).collect();
                        ours = model.iter().copied().collect();
                    }
                }
                let context = format!("seed {seed}, step {step}");
                assert_eq!(ours, model, "{context}");
                assert_eq!(model, ours, "{context}");
                assert_eq!(ours.len(), model.len(), "{context}");
                assert!(ours.iter().eq(model.iter()), "{context}");
                assert!((&ours).into_iter().eq(&model), "{context}");
                assert_eq!(ours.first(), model.first(), "{context}");
                assert_eq!(format!("{ours:?}"), format!("{model:?}"), "{context}");
                assert_eq!(ours.clone(), OneVec::from(model.clone()), "{context}");
                assert_eq!(ours == OneVec::one(3), model == [3], "{context}");
            }
        }
    }
}
