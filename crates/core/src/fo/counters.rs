//! The counter-state kernel: merge, exact subtract, snapshot and restore,
//! written once for every count-based aggregator.
//!
//! The deployed systems keep integer-counter server state (RAPPOR's
//! cohort bit counts, Apple's CMS/HCMS sketches, Microsoft's dBitFlip
//! buckets), so combining, retiring and checkpointing it is one operation
//! whatever the mechanism — the DataSketches idiom of one mergeable
//! serialized format for every sketch. An aggregator joins by
//! implementing [`CounterState`]: its **config bytes** (what its snapshot
//! writes before any counter) and its **counter fields in snapshot
//! order**. The snapshot payload is the config bytes, then the fields.
//!
//! **Compatibility rule:** two states are compatible when their config
//! bytes and plane lengths are equal. Every operation is all-or-nothing,
//! and hot paths never come through here: accumulate and packed-fold
//! loops keep direct `&mut [u64]` access to the aggregator's fields.

use crate::snapshot::{
    get_count, get_counts, get_signed_counts, put_count, put_counts, put_signed_counts,
    StateSnapshot,
};
use crate::wire::WireReader;
use crate::{LdpError, Result};

/// One counter field of a [`CounterState`], read-only.
#[derive(Debug, Clone, Copy)]
pub enum Counter<'a> {
    /// A bare count (`n`, 1BitMean's `ones`): one varint, no length prefix.
    Count(usize),
    /// Unsigned counters: a length-prefixed varint vector.
    Plane(&'a [u64]),
    /// Signed sums (HR, HCMS): a length-prefixed ZigZag varint vector.
    Signed(&'a [i64]),
}

/// The same field, writable.
#[derive(Debug)]
pub enum CounterMut<'a> {
    /// See [`Counter::Count`].
    Count(&'a mut usize),
    /// See [`Counter::Plane`].
    Plane(&'a mut Vec<u64>),
    /// See [`Counter::Signed`].
    Signed(&'a mut Vec<i64>),
}

/// A count-based aggregator state: configuration plus integer counters.
///
/// Implementing it provides [`StateSnapshot`] (blanket impl below); the
/// aggregator's `merge`/`try_subtract` delegate to [`merge`] and
/// [`subtract`]. Write the two field lists with [`crate::counter_fields`].
pub trait CounterState {
    /// The snapshot state tag (a [`crate::snapshot::state_tag`] constant).
    const STATE_TAG: u8;
    /// Short mechanism name for error messages (e.g. `"GRR"`).
    const NAME: &'static str;

    /// Appends the configuration bytes: exactly what the snapshot payload
    /// carries before the counters.
    fn config_bytes(&self, out: &mut Vec<u8>);

    /// The counter fields, in snapshot order.
    fn counters(&self) -> Vec<Counter<'_>>;

    /// The same fields, writable, in the same order.
    fn counters_mut(&mut self) -> Vec<CounterMut<'_>>;
}

/// Writes [`CounterState::counters`] and [`CounterState::counters_mut`]
/// from one field list in snapshot order, each entry a [`Counter`]
/// variant and a field path: `counter_fields!(Count n, Plane histogram);`
#[macro_export]
macro_rules! counter_fields {
    ($($kind:ident $($field:ident).+),+ $(,)?) => {
        fn counters(&self) -> Vec<$crate::fo::counters::Counter<'_>> {
            vec![$($crate::fo::counters::Counter::$kind(
                $crate::counter_fields!(@get $kind self $(.$field)+)
            )),+]
        }

        fn counters_mut(&mut self) -> Vec<$crate::fo::counters::CounterMut<'_>> {
            vec![$($crate::fo::counters::CounterMut::$kind(&mut self$(.$field)+)),+]
        }
    };
    (@get Count $e:expr) => { $e };
    (@get $kind:ident $e:expr) => { &$e };
}

/// The two state operations: merge adds counters, subtract removes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst += src`.
    Merge,
    /// `dst -= src`, the exact inverse of [`Op::Merge`].
    Subtract,
}

impl Op {
    /// The operation that undoes this one.
    #[must_use]
    pub fn inverse(self) -> Op {
        match self {
            Op::Merge => Op::Subtract,
            Op::Subtract => Op::Merge,
        }
    }
}

/// An integer counter cell: wrapping add and subtract, each with a carry
/// word that is nonzero when the exact result leaves the type's range —
/// bit arithmetic, which folds measurably faster than `overflowing_*`
/// over large planes.
trait Cell: Copy {
    fn add(self, y: Self) -> (Self, u64);
    fn sub(self, y: Self) -> (Self, u64);
}

impl Cell for u64 {
    #[inline]
    fn add(self, y: Self) -> (Self, u64) {
        let r = self.wrapping_add(y);
        (r, ((self & y) | ((self | y) & !r)) >> 63)
    }

    #[inline]
    fn sub(self, y: Self) -> (Self, u64) {
        let r = self.wrapping_sub(y);
        (r, ((!self & y) | (!(self ^ y) & r)) >> 63)
    }
}

impl Cell for i64 {
    #[inline]
    fn add(self, y: Self) -> (Self, u64) {
        let r = self.wrapping_add(y);
        (r, ((self ^ r) & (y ^ r)) as u64 >> 63)
    }

    #[inline]
    fn sub(self, y: Self) -> (Self, u64) {
        let r = self.wrapping_sub(y);
        (r, ((self ^ y) & (self ^ r)) as u64 >> 63)
    }
}

/// `a[i] = a[i] op b[i]`, wrapping, in one pass; returns whether any
/// cell carried out of range.
fn fold_plane<T: Cell>(a: &mut [T], b: &[T], op: Op) -> bool {
    let pairs = a.iter_mut().zip(b);
    let carries = match op {
        Op::Merge => pairs.fold(0, |acc, (x, &y)| {
            let (r, c) = x.add(y);
            *x = r;
            acc | c
        }),
        Op::Subtract => pairs.fold(0, |acc, (x, &y)| {
            let (r, c) = x.sub(y);
            *x = r;
            acc | c
        }),
    };
    carries != 0
}

/// [`fold_plane`] over every field pair.
fn fold_fields(dst: &mut [CounterMut<'_>], src: &[Counter<'_>], op: Op) -> bool {
    let mut carried = false;
    for pair in dst.iter_mut().zip(src) {
        carried |= match pair {
            (CounterMut::Count(x), Counter::Count(y)) => {
                let (r, c) = match op {
                    Op::Merge => x.overflowing_add(*y),
                    Op::Subtract => x.overflowing_sub(*y),
                };
                **x = r;
                c
            }
            (CounterMut::Plane(x), Counter::Plane(y)) => fold_plane(x, y, op),
            (CounterMut::Signed(x), Counter::Signed(y)) => fold_plane(x, y, op),
            _ => unreachable!("compatible states list the same field kinds"),
        };
    }
    carried
}

fn config_of<S: CounterState>(state: &S) -> Vec<u8> {
    let mut out = Vec::new();
    state.config_bytes(&mut out);
    out
}

/// Applies `op` to `dst` with `src`'s counters. Compatibility is checked
/// first; the counters then move in one pass, and if any of them left
/// its integer range (an overflowing merge, or a subtrahend that is not
/// a sub-aggregate) the inverse pass restores `dst` exactly — wrapping
/// arithmetic is a group — and the call is refused.
///
/// # Errors
/// [`LdpError::StateMismatch`] for incompatible states or a subtrahend
/// that is not a sub-aggregate; [`LdpError::CounterOverflow`] when a
/// merged counter would overflow. `dst` is unchanged on error.
pub fn apply<S: CounterState>(dst: &mut S, src: &S, op: Op) -> Result<()> {
    let mut config = config_of(dst);
    let mine_len = config.len();
    src.config_bytes(&mut config);
    let same_config = config[..mine_len] == config[mine_len..];
    let theirs = src.counters();
    let mut mine = dst.counters_mut();
    let same_shape = mine.iter().zip(&theirs).all(|pair| match pair {
        (CounterMut::Count(_), Counter::Count(_)) => true,
        (CounterMut::Plane(x), Counter::Plane(y)) => x.len() == y.len(),
        (CounterMut::Signed(x), Counter::Signed(y)) => x.len() == y.len(),
        _ => false,
    });
    if !same_config || !same_shape {
        return Err(LdpError::StateMismatch(format!(
            "{} states are configured differently",
            S::NAME
        )));
    }
    if !fold_fields(&mut mine, &theirs, op) {
        return Ok(());
    }
    fold_fields(&mut mine, &theirs, op.inverse());
    Err(match op {
        Op::Merge => LdpError::CounterOverflow(format!(
            "merge: a {} counter sum exceeds the integer range",
            S::NAME
        )),
        Op::Subtract => LdpError::StateMismatch(format!(
            "subtract: {} subtrahend is not a sub-aggregate of this state",
            S::NAME
        )),
    })
}

/// Merges `src` into `dst`, as if every report folded into `src` had been
/// folded into `dst`: exact integer addition, so merge order never
/// changes the result.
///
/// # Errors
/// As [`apply`]; `dst` is unchanged on error.
pub fn merge<S: CounterState>(dst: &mut S, src: &S) -> Result<()> {
    apply(dst, src, Op::Merge)
}

/// Subtracts `src` from `dst`, the exact inverse of [`merge`]: when
/// `src`'s reports are a sub-multiset of `dst`'s, the result is
/// bit-identical to a state that only accumulated the remainder.
///
/// # Errors
/// As [`apply`]; `dst` is unchanged on error.
pub fn subtract<S: CounterState>(dst: &mut S, src: &S) -> Result<()> {
    apply(dst, src, Op::Subtract)
}

/// One decoded field, held until every field has parsed.
enum Decoded {
    Count(usize),
    Plane(Vec<u64>),
    Signed(Vec<i64>),
}

impl<S: CounterState> StateSnapshot for S {
    fn state_tag(&self) -> u8 {
        S::STATE_TAG
    }

    fn snapshot_payload(&self, out: &mut Vec<u8>) {
        self.config_bytes(out);
        for field in self.counters() {
            match field {
                Counter::Count(n) => put_count(out, n),
                Counter::Plane(p) => put_counts(out, p),
                Counter::Signed(p) => put_signed_counts(out, p),
            }
        }
    }

    fn restore_payload(&mut self, r: &mut WireReader<'_>) -> Result<()> {
        // Config fields are varints and fixed-width words, a prefix-free
        // code, so comparing this state's own config bytes against the
        // snapshot's is exactly the field-by-field check.
        let config = config_of(self);
        if r.bytes(config.len())? != config {
            return Err(LdpError::StateMismatch(format!(
                "{}: snapshot configuration does not match this aggregator",
                S::NAME
            )));
        }
        let decoded = self
            .counters()
            .into_iter()
            .map(|field| match field {
                Counter::Count(_) => get_count(r).map(Decoded::Count),
                Counter::Plane(p) => get_counts(r, p.len(), S::NAME).map(Decoded::Plane),
                Counter::Signed(p) => get_signed_counts(r, p.len(), S::NAME).map(Decoded::Signed),
            })
            .collect::<Result<Vec<_>>>()?;
        for pair in self.counters_mut().into_iter().zip(decoded) {
            match pair {
                (CounterMut::Count(dst), Decoded::Count(v)) => *dst = v,
                (CounterMut::Plane(dst), Decoded::Plane(v)) => *dst = v,
                (CounterMut::Signed(dst), Decoded::Signed(v)) => *dst = v,
                _ => unreachable!("counters and counters_mut list the same fields"),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{restore_from, snapshot_vec, state_tag};

    /// A minimal state exercising every field kind.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        shape: u64,
        n: usize,
        counts: Vec<u64>,
        sums: Vec<i64>,
    }

    fn toy(shape: u64, n: usize, counts: Vec<u64>, sums: Vec<i64>) -> Toy {
        Toy {
            shape,
            n,
            counts,
            sums,
        }
    }

    impl CounterState for Toy {
        const STATE_TAG: u8 = state_tag::DIRECT;
        const NAME: &'static str = "toy";

        fn config_bytes(&self, out: &mut Vec<u8>) {
            crate::wire::put_uvarint(out, self.shape);
        }

        crate::counter_fields!(Count n, Plane counts, Signed sums);
    }

    #[test]
    fn merge_then_subtract_is_identity() {
        let a = toy(3, 5, vec![4, 1, 0], vec![-2, 3]);
        let b = toy(3, 2, vec![1, 1, 7], vec![5, -9]);
        let mut m = a.clone();
        merge(&mut m, &b).unwrap();
        assert_eq!(m, toy(3, 7, vec![5, 2, 7], vec![3, -6]));
        subtract(&mut m, &b).unwrap();
        assert_eq!(m, a);
    }

    #[test]
    fn refusals_leave_both_operands_unchanged() {
        let a = toy(3, 5, vec![u64::MAX, 1, 0], vec![0, 0]);
        let b = toy(3, 1, vec![1, 0, 0], vec![0, 0]);
        let mut m = a.clone();
        assert!(matches!(
            merge(&mut m, &b),
            Err(LdpError::CounterOverflow(_))
        ));
        assert_eq!(m, a);
        let mut m = b.clone();
        assert!(matches!(
            subtract(&mut m, &a),
            Err(LdpError::StateMismatch(_))
        ));
        assert_eq!(m, b);
        let signed = toy(3, 5, vec![0; 3], vec![i64::MIN, 0]);
        let mut m = signed.clone();
        assert!(subtract(&mut m, &toy(3, 0, vec![0; 3], vec![1, 0])).is_err());
        assert_eq!(m, signed);
        for other in [
            toy(4, 0, vec![0; 3], vec![0, 0]),
            toy(3, 0, vec![0; 4], vec![0, 0]),
            toy(3, 0, vec![0; 3], vec![0]),
        ] {
            let mut m = a.clone();
            for op in [Op::Merge, Op::Subtract] {
                assert!(matches!(
                    apply(&mut m, &other, op),
                    Err(LdpError::StateMismatch(_))
                ));
            }
            assert_eq!(m, a);
        }
    }

    #[test]
    fn snapshot_round_trips_and_guards_config() {
        let a = toy(300, 9, vec![1, u64::MAX, 0], vec![i64::MIN, 7]);
        let blob = snapshot_vec(&a);
        let mut b = toy(300, 0, vec![0; 3], vec![0; 2]);
        restore_from(&mut b, &blob).unwrap();
        assert_eq!(b, a);

        let empty = toy(301, 0, vec![0; 3], vec![0; 2]);
        let mut c = empty.clone();
        assert!(matches!(
            restore_from(&mut c, &blob),
            Err(LdpError::StateMismatch(_))
        ));
        let mut d = toy(300, 0, vec![0; 4], vec![0; 2]);
        assert!(matches!(
            restore_from(&mut d, &blob),
            Err(LdpError::StateMismatch(_))
        ));
        for cut in 0..blob.len() {
            assert!(restore_from(&mut c, &blob[..cut]).is_err(), "cut {cut}");
        }
        assert_eq!(c, empty, "failed restores are no-ops");
    }
}
