//! Shape algebra helpers shared by the tensor ops and by downstream crates
//! that need to reason about layer geometry without materialising tensors.

use crate::{Result, TensorError};

/// A tensor shape: the extent of each dimension, outermost first.
///
/// Shapes are plain `Vec<usize>` values wrapped for readability; images use
/// the NCHW convention `[batch, channels, height, width]`.
pub type Shape = Vec<usize>;

/// Number of elements implied by a shape (the product of all extents).
///
/// The empty shape `[]` denotes a scalar and has one element.
///
/// ```
/// assert_eq!(fedzkt_tensor::numel(&[2, 3, 4]), 24);
/// assert_eq!(fedzkt_tensor::numel(&[]), 1);
/// ```
///
/// # Panics
/// Panics when the product overflows `usize` (see [`checked_numel`] for
/// the fallible form).
pub fn numel(shape: &[usize]) -> usize {
    checked_numel(shape)
        .unwrap_or_else(|| panic!("shape {shape:?} has more than usize::MAX elements"))
}

/// [`numel`] without the panic: `None` when the product overflows `usize`.
///
/// ```
/// assert_eq!(fedzkt_tensor::checked_numel(&[2, 3]), Some(6));
/// assert_eq!(fedzkt_tensor::checked_numel(&[65536; 4]), None);
/// ```
pub fn checked_numel(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// Row-major strides for a shape.
///
/// `strides(&[2, 3, 4]) == [12, 4, 1]`; a scalar has no strides.
pub fn strides(shape: &[usize]) -> Vec<usize> {
    let mut out = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        out[i] = out[i + 1] * shape[i + 1];
    }
    out
}

/// Check that two shapes are identical, returning a descriptive error if not.
pub fn same_shape(lhs: &[usize], rhs: &[usize]) -> Result<()> {
    if lhs == rhs {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch { lhs: lhs.to_vec(), rhs: rhs.to_vec() })
    }
}

/// Check that `bias` can be broadcast over the last dimension of `shape`
/// (the only broadcast form this library supports, sufficient for linear and
/// convolution bias terms).
pub fn broadcastable_bias(shape: &[usize], bias: &[usize]) -> Result<()> {
    if bias.len() == 1 && !shape.is_empty() && bias[0] == shape[shape.len() - 1] {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch { lhs: shape.to_vec(), rhs: bias.to_vec() })
    }
}

/// Output spatial extent of a convolution or pooling window.
///
/// Returns `(input + 2 * pad - kernel) / stride + 1`, or an error when the
/// kernel does not fit in the padded input or `stride == 0`.
///
/// ```
/// // 28x28 image, 5x5 kernel, stride 1, no padding -> 24.
/// assert_eq!(fedzkt_tensor::conv_output_size(28, 5, 1, 0).unwrap(), 24);
/// ```
pub fn conv_output_size(input: usize, kernel: usize, stride: usize, pad: usize) -> Result<usize> {
    if stride == 0 {
        return Err(TensorError::InvalidGeometry("stride must be positive".into()));
    }
    if kernel == 0 {
        return Err(TensorError::InvalidGeometry("kernel must be positive".into()));
    }
    let padded = input + 2 * pad;
    if padded < kernel {
        return Err(TensorError::InvalidGeometry(format!(
            "kernel {kernel} larger than padded input {padded}"
        )));
    }
    Ok((padded - kernel) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(numel(&[]), 1);
    }

    #[test]
    fn numel_with_zero_dim_is_zero() {
        assert_eq!(numel(&[2, 0, 3]), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[5]), vec![1]);
        assert_eq!(strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn conv_output_size_basic() {
        assert_eq!(conv_output_size(32, 3, 1, 1).unwrap(), 32);
        assert_eq!(conv_output_size(32, 3, 2, 1).unwrap(), 16);
        assert_eq!(conv_output_size(28, 5, 1, 0).unwrap(), 24);
        assert_eq!(conv_output_size(4, 4, 1, 0).unwrap(), 1);
    }

    #[test]
    fn conv_output_size_rejects_bad_geometry() {
        assert!(conv_output_size(2, 5, 1, 0).is_err());
        assert!(conv_output_size(8, 3, 0, 1).is_err());
        assert!(conv_output_size(8, 0, 1, 1).is_err());
    }

    #[test]
    fn bias_broadcast_check() {
        assert!(broadcastable_bias(&[4, 10], &[10]).is_ok());
        assert!(broadcastable_bias(&[4, 10], &[4]).is_err());
        assert!(broadcastable_bias(&[], &[1]).is_err());
    }
}
