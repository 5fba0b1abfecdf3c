//! Points in the virtual coordinate space.

use std::fmt;

/// A point in the `k`-dimensional Euclidean coordinate space `S` that
/// delays are embedded into.
///
/// # Example
///
/// ```
/// use son_coords::Coordinates;
///
/// let a = Coordinates::new(vec![0.0, 3.0]);
/// let b = Coordinates::new(vec![4.0, 0.0]);
/// assert_eq!(a.distance(&b), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Coordinates(Vec<f64>);

impl Coordinates {
    /// Wraps a coordinate vector.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite entries.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(
            !values.is_empty(),
            "coordinates need at least one dimension"
        );
        assert!(
            values.iter().all(|v| v.is_finite()),
            "coordinates must be finite"
        );
        Coordinates(values)
    }

    /// The origin of a `dims`-dimensional space.
    pub fn origin(dims: usize) -> Self {
        Coordinates::new(vec![0.0; dims])
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// The raw coordinate values.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Euclidean distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn distance(&self, other: &Coordinates) -> f64 {
        assert_eq!(
            self.dims(),
            other.dims(),
            "cannot take distance across dimensions"
        );
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}

impl fmt::Display for Coordinates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.2}")?;
        }
        write!(f, ")")
    }
}

impl AsRef<[f64]> for Coordinates {
    fn as_ref(&self) -> &[f64] {
        &self.0
    }
}

impl From<Coordinates> for Vec<f64> {
    fn from(c: Coordinates) -> Vec<f64> {
        c.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Coordinates::new(vec![1.0, 2.0, 3.0]);
        let b = Coordinates::new(vec![-1.0, 0.5, 9.0]);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn triangle_inequality_holds() {
        let a = Coordinates::new(vec![0.0, 0.0]);
        let b = Coordinates::new(vec![5.0, 1.0]);
        let c = Coordinates::new(vec![2.0, 8.0]);
        assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-12);
    }

    #[test]
    fn origin_is_all_zero() {
        let o = Coordinates::origin(4);
        assert_eq!(o.dims(), 4);
        assert!(o.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn display_is_compact() {
        let a = Coordinates::new(vec![1.5, -2.25]);
        assert_eq!(a.to_string(), "(1.50, -2.25)");
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn empty_coordinates_panic() {
        let _ = Coordinates::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_coordinates_panic() {
        let _ = Coordinates::new(vec![f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn mismatched_dims_panic() {
        let a = Coordinates::new(vec![0.0]);
        let b = Coordinates::new(vec![0.0, 0.0]);
        let _ = a.distance(&b);
    }
}
