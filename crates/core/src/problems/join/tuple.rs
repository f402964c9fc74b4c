//! The join plane's one tuple type: a relation tuple and a result row
//! alike, held inline so the engine copies it without touching the heap.

use std::fmt;
use std::ops::Deref;

/// The most variables a [`Query`](super::Query) may have, and so the
/// capacity of a [`Tuple`]: the widest queries the workspace runs,
/// `Query::star(3)` and `Query::chain(5)`, have 6.
pub const MAX_VARS: usize = 6;

/// Up to [`MAX_VARS`] values, inline and `Copy`. Unused slots stay zero,
/// so the derived `Eq`, `Ord` and `Hash` agree with the value slice's: the
/// values compare first, and a tuple that is a prefix of a longer one
/// sorts before it.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: [u32; MAX_VARS],
    len: u8,
}

/// A tuple tagged with the index of its atom: the input of every join
/// round.
pub type TaggedTuple = (u32, Tuple);

impl FromIterator<u32> for Tuple {
    /// # Panics
    /// Panics on more than [`MAX_VARS`] values.
    fn from_iter<I: IntoIterator<Item = u32>>(values: I) -> Self {
        let mut tuple = Tuple::default();
        for x in values {
            assert!(
                tuple.len() < MAX_VARS,
                "a tuple holds at most {MAX_VARS} values"
            );
            tuple.values[tuple.len()] = x;
            tuple.len += 1;
        }
        tuple
    }
}

impl Deref for Tuple {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.values[..usize::from(self.len)]
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_agrees_with_the_slice_order() {
        let tuples = [
            Tuple::default(),
            Tuple::from_iter([0]),
            Tuple::from_iter([0, 0]),
            Tuple::from_iter([0, 5]),
            Tuple::from_iter([1, 2]),
            Tuple::from_iter([1, 2, 0]),
            Tuple::from_iter([1, 2, 3]),
            Tuple::from_iter([1, 3]),
        ];
        for a in &tuples {
            for b in &tuples {
                assert_eq!(a.cmp(b), a[..].cmp(&b[..]), "{a:?} vs {b:?}");
                assert_eq!(a == b, a[..] == b[..], "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn prints_as_its_values() {
        assert_eq!(format!("{:?}", Tuple::from_iter([4, 0, 7])), "[4, 0, 7]");
    }

    #[test]
    #[should_panic(expected = "at most 6 values")]
    fn rejects_a_tuple_above_the_capacity() {
        Tuple::from_iter([0; MAX_VARS + 1]);
    }
}
