use std::fmt;

/// Error type for tensor construction and shape-sensitive operations.
///
/// Every fallible public function in this crate returns
/// [`TensorError`](crate::TensorError) so callers can recover from shape
/// mismatches (the dominant failure mode when composing network layers)
/// instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided data length does not match the product of the shape.
    LengthMismatch {
        /// Number of elements implied by the requested shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two tensors that must share a shape do not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// The operation requires a different dimensionality.
    RankMismatch {
        /// Rank the operation requires.
        expected: usize,
        /// Rank of the tensor supplied.
        actual: usize,
    },
    /// Matrix multiplication inner dimensions disagree.
    MatmulDims {
        /// Shape of the left-hand matrix.
        lhs: Vec<usize>,
        /// Shape of the right-hand matrix.
        rhs: Vec<usize>,
    },
    /// An index was out of bounds for the tensor shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Vec<usize>,
    },
    /// A convolution/pooling geometry is impossible (e.g. kernel larger than
    /// padded input).
    InvalidGeometry(String),
    /// Generic invalid-argument error with a human-readable reason.
    InvalidArgument(String),
    /// The shape's element count overflows `usize`.
    ShapeOverflow {
        /// The requested shape.
        shape: Vec<usize>,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(f, "data length {actual} does not match shape volume {expected}")
            }
            TensorError::ShapeMismatch { lhs, rhs } => {
                write!(f, "shape mismatch: {lhs:?} vs {rhs:?}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "rank mismatch: expected {expected}, got {actual}")
            }
            TensorError::MatmulDims { lhs, rhs } => {
                write!(f, "matmul dimension mismatch: {lhs:?} x {rhs:?}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            TensorError::ShapeOverflow { shape } => {
                write!(f, "shape {shape:?} has more than usize::MAX elements")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TensorError::ShapeMismatch { lhs: vec![2, 3], rhs: vec![3, 2] };
        let s = e.to_string();
        assert!(s.contains("[2, 3]"));
        assert!(s.contains("[3, 2]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
