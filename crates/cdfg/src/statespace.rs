//! The *statespace* abstraction of the C memory model.
//!
//! Section IV of the paper models C's linear random-access memory as a set of
//! `(ad, da)` tuples — the **statespace** — manipulated by three primitive
//! hypergraph operations:
//!
//! * `ST` — store a tuple into the statespace,
//! * `FE` — fetch the data stored at an address,
//! * `DEL` — delete the tuple at an address.
//!
//! [`StateSpace`] is the concrete realisation used by the reference
//! interpreter and the tile simulator. Addresses and data are machine words.

use std::collections::BTreeMap;
use std::fmt;

/// A set of `(address, data)` tuples representing the abstract C memory.
///
/// The statespace flows through the CDFG as a token along dedicated edges, so
/// that the partial order of memory operations is explicit in the graph: a
/// `ST`/`DEL` node consumes one statespace token and produces a new one, while
/// `FE` only consumes one (fetching does not modify memory).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct StateSpace {
    tuples: BTreeMap<i64, i64>,
}

impl StateSpace {
    /// Creates an empty statespace (no tuples).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a statespace from `(address, data)` pairs.
    ///
    /// Later pairs overwrite earlier pairs with the same address, matching the
    /// semantics of repeated `ST` operations.  The map is built in one pass:
    /// the pairs are sorted stably by address and the last of each address
    /// is kept, instead of inserting them one at a time.
    pub fn from_tuples<I: IntoIterator<Item = (i64, i64)>>(tuples: I) -> Self {
        StateSpace {
            tuples: tuples.into_iter().collect(),
        }
    }

    /// `ST`: stores `data` at `address`, overwriting any existing tuple.
    pub fn store(&mut self, address: i64, data: i64) {
        self.tuples.insert(address, data);
    }

    /// `FE`: fetches the data stored at `address`.
    ///
    /// Returns `None` when no tuple with that address exists; the interpreter
    /// turns this into an *unbound address* error because reading
    /// uninitialised memory is undefined behaviour in the source program.
    pub fn fetch(&self, address: i64) -> Option<i64> {
        self.tuples.get(&address).copied()
    }

    /// `DEL`: removes the tuple at `address`, returning the deleted data.
    pub fn delete(&mut self, address: i64) -> Option<i64> {
        self.tuples.remove(&address)
    }

    /// `true` when a tuple with `address` exists.
    pub fn contains(&self, address: i64) -> bool {
        self.tuples.contains_key(&address)
    }

    /// Number of tuples currently stored.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when no tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over the `(address, data)` tuples in address order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        self.tuples.iter().map(|(a, d)| (*a, *d))
    }

    /// Returns the stored tuples as a vector in address order.
    pub fn to_tuples(&self) -> Vec<(i64, i64)> {
        self.iter().collect()
    }

    /// Loads a contiguous array starting at `base`, element `i` at `base + i`.
    ///
    /// This is the convention the frontend uses to place C arrays in the
    /// statespace.
    pub fn store_array(&mut self, base: i64, values: &[i64]) {
        for (i, v) in values.iter().enumerate() {
            // Address arithmetic wraps, matching `BinOp::eval`'s semantics,
            // so a pathological base cannot trap in debug builds.
            self.store(base.wrapping_add(i as i64), *v);
        }
    }

    /// Reads `len` consecutive words starting at `base`; missing addresses
    /// yield `None`.
    pub fn fetch_array(&self, base: i64, len: usize) -> Vec<Option<i64>> {
        (0..len as i64)
            .map(|i| self.fetch(base.wrapping_add(i)))
            .collect()
    }
}

impl FromIterator<(i64, i64)> for StateSpace {
    fn from_iter<I: IntoIterator<Item = (i64, i64)>>(iter: I) -> Self {
        Self::from_tuples(iter)
    }
}

impl Extend<(i64, i64)> for StateSpace {
    fn extend<I: IntoIterator<Item = (i64, i64)>>(&mut self, iter: I) {
        for (ad, da) in iter {
            self.store(ad, da);
        }
    }
}

impl fmt::Display for StateSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (ad, da)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({ad}, {da})")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_then_fetch() {
        let mut ss = StateSpace::new();
        assert!(ss.is_empty());
        ss.store(10, 42);
        assert_eq!(ss.fetch(10), Some(42));
        assert_eq!(ss.fetch(11), None);
        assert_eq!(ss.len(), 1);
        assert!(ss.contains(10));
    }

    #[test]
    fn store_overwrites() {
        let mut ss = StateSpace::new();
        ss.store(5, 1);
        ss.store(5, 2);
        assert_eq!(ss.fetch(5), Some(2));
        assert_eq!(ss.len(), 1);
    }

    #[test]
    fn delete_removes_tuple() {
        let mut ss = StateSpace::from_tuples([(1, 10), (2, 20)]);
        assert_eq!(ss.delete(1), Some(10));
        assert_eq!(ss.delete(1), None);
        assert_eq!(ss.fetch(1), None);
        assert_eq!(ss.len(), 1);
    }

    #[test]
    fn array_helpers() {
        let mut ss = StateSpace::new();
        ss.store_array(100, &[1, 2, 3]);
        assert_eq!(
            ss.fetch_array(100, 4),
            vec![Some(1), Some(2), Some(3), None]
        );
    }

    #[test]
    fn bulk_building_keeps_the_last_write_to_each_address() {
        let pairs = [(5, 1), (-3, 2), (5, 3), (0, 4), (-3, 5), (9, 6), (5, 7)];
        let mut stored = StateSpace::new();
        for (ad, da) in pairs {
            stored.store(ad, da);
        }
        assert_eq!(StateSpace::from_tuples(pairs), stored);
        assert_eq!(pairs.into_iter().collect::<StateSpace>(), stored);
        assert_eq!(stored.to_tuples(), vec![(-3, 5), (0, 4), (5, 7), (9, 6)]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut ss: StateSpace = [(0, 7), (1, 8)].into_iter().collect();
        ss.extend([(2, 9)]);
        assert_eq!(ss.to_tuples(), vec![(0, 7), (1, 8), (2, 9)]);
    }

    #[test]
    fn display_is_tuple_set() {
        let ss = StateSpace::from_tuples([(3, 4), (1, 2)]);
        assert_eq!(ss.to_string(), "{(1, 2), (3, 4)}");
    }

    #[test]
    fn negative_addresses_are_allowed() {
        let mut ss = StateSpace::new();
        ss.store(-5, 99);
        assert_eq!(ss.fetch(-5), Some(99));
    }
}
