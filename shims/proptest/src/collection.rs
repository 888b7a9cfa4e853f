//! Collection strategies.

use crate::{Strategy, TestRng};
use std::ops::Range;

/// Length specification for [`vec()`]: an exact length or a half-open range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            min: n,
            max_exclusive: n + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max_exclusive: r.end,
        }
    }
}

/// Strategy producing `Vec`s of values from an element strategy.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// Generates vectors whose length is drawn from `size` and whose elements
/// are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max_exclusive - self.size.min) as u64;
        let len = self.size.min
            + if span > 0 {
                rng.below(span) as usize
            } else {
                0
            };
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_ranged_lengths() {
        let mut rng = TestRng::from_name("vec");
        for _ in 0..50 {
            assert_eq!(vec(0usize..3, 4).new_value(&mut rng).len(), 4);
            let v = vec(0usize..3, 1..6).new_value(&mut rng);
            assert!((1..6).contains(&v.len()));
        }
    }
}
