//! Output checks: every op's result is compared with a reference
//! computed at set-up, never by the path under test.

use fx_tensor::Tensor;

/// Whether `a` and `b` hold the same shape and bit-identical `f32`s.
pub fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && matches!((a.as_f32(), b.as_f32()), (Ok(x), Ok(y)) if slices_bitwise_eq(x, y))
}

/// Whether two `f32` slices are bit-identical.
pub fn slices_bitwise_eq(x: &[f32], y: &[f32]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Signal-to-quantization-noise ratio of `test` against `reference`, dB.
pub fn sqnr_db(reference: &Tensor, test: &Tensor) -> f64 {
    let (Ok(r), Ok(t)) = (reference.as_f32(), test.as_f32()) else {
        return f64::NEG_INFINITY;
    };
    if r.len() != t.len() {
        return f64::NEG_INFINITY;
    }
    let signal: f64 = r.iter().map(|&v| (v as f64) * (v as f64)).sum();
    let noise: f64 = r
        .iter()
        .zip(t)
        .map(|(&a, &b)| (a as f64 - b as f64).powi(2))
        .sum();
    10.0 * (signal / noise.max(1e-30)).log10()
}

/// Largest absolute difference of `test` from `reference` as a share of
/// the reference's largest magnitude (infinite on a shape mismatch).
pub fn max_abs_rel(reference: &Tensor, test: &Tensor) -> f64 {
    match (reference.max_abs_diff(test), reference.as_f32()) {
        (Ok(d), Ok(r)) => {
            let scale = r
                .iter()
                .fold(0f32, |m, v| m.max(v.abs()))
                .max(f32::MIN_POSITIVE);
            d as f64 / scale as f64
        }
        _ => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_detect_differences() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 4.0], &[1, 3]);
        let b = Tensor::from_vec(vec![1.0, -2.0, 4.5], &[1, 3]);
        assert!(bitwise_eq(&a, &a.clone()));
        assert!(!bitwise_eq(&a, &b));
        assert!(!bitwise_eq(&a, &a.reshape(&[3]).unwrap()));
        assert_eq!(max_abs_rel(&a, &b), 0.125);
        assert!(sqnr_db(&a, &b) > 15.0 && sqnr_db(&a, &b) < 20.0);
    }
}
