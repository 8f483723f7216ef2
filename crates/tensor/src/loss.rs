//! Loss functions used by the embedding models.
//!
//! * [`bce_with_logits`] — binary cross-entropy for CTR prediction (DLRM).
//! * [`margin_ranking`] — the max-margin loss TransE-style KG models train
//!   with (positive triple score vs. negative-sample scores).

/// Numerically stable sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy with logits.
///
/// Returns `(mean_loss, d_logits)` where `d_logits[i] = (σ(x_i) - y_i) / n`
/// — the gradient of the mean loss w.r.t. each logit.
///
/// # Panics
///
/// Panics if `logits` and `labels` differ in length or are empty.
///
/// # Examples
///
/// ```
/// use frugal_tensor::bce_with_logits;
///
/// let (loss, grad) = bce_with_logits(&[0.0, 2.0], &[0.0, 1.0]);
/// assert!(loss > 0.0);
/// assert_eq!(grad.len(), 2);
/// ```
pub fn bce_with_logits(logits: &[f32], labels: &[f32]) -> (f32, Vec<f32>) {
    assert_eq!(logits.len(), labels.len(), "length mismatch");
    assert!(!logits.is_empty(), "empty batch");
    let n = logits.len() as f32;
    let mut loss = 0.0f32;
    let mut grad = Vec::with_capacity(logits.len());
    for (&x, &y) in logits.iter().zip(labels) {
        // Stable form: max(x,0) - x*y + ln(1 + exp(-|x|)).
        loss += x.max(0.0) - x * y + (-x.abs()).exp().ln_1p();
        grad.push((sigmoid(x) - y) / n);
    }
    (loss / n, grad)
}

/// Margin ranking loss over one positive score and its negative scores:
/// `mean_j max(0, margin + s_pos - s_neg_j)` for *distance-like* scores
/// where smaller is better (TransE convention).
///
/// Returns `(loss, d_pos)` and writes `d_negs[j]`, the gradient w.r.t.
/// `neg_scores[j]`: `-1 / n` where the margin is violated, `0.0` where it
/// holds. The caller owns `d_negs`, so a model scoring many triples per
/// batch reuses one buffer instead of allocating one per triple.
///
/// # Panics
///
/// Panics if `neg_scores` is empty or `d_negs` has a different length.
///
/// # Examples
///
/// ```
/// use frugal_tensor::margin_ranking;
///
/// let mut d_negs = [0.0; 2];
/// let (loss, d_pos) = margin_ranking(5.0, &[1.0, 10.0], 1.0, &mut d_negs);
/// assert_eq!((loss, d_pos), (2.5, 0.5));
/// assert_eq!(d_negs, [-0.5, 0.0]);
/// ```
pub fn margin_ranking(
    pos_score: f32,
    neg_scores: &[f32],
    margin: f32,
    d_negs: &mut [f32],
) -> (f32, f32) {
    assert!(!neg_scores.is_empty(), "need at least one negative sample");
    assert_eq!(neg_scores.len(), d_negs.len(), "length mismatch");
    let n = neg_scores.len() as f32;
    let mut loss = 0.0;
    let mut d_pos = 0.0;
    for (&s_neg, d_neg) in neg_scores.iter().zip(d_negs) {
        let m = margin + pos_score - s_neg;
        if m > 0.0 {
            loss += m;
            d_pos += 1.0;
            *d_neg = -1.0 / n;
        } else {
            *d_neg = 0.0;
        }
    }
    (loss / n, d_pos / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_symmetry() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
        let x = 1.7;
        assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bce_perfect_prediction_is_low() {
        let (loss_good, _) = bce_with_logits(&[8.0, -8.0], &[1.0, 0.0]);
        let (loss_bad, _) = bce_with_logits(&[-8.0, 8.0], &[1.0, 0.0]);
        assert!(loss_good < 0.01);
        assert!(loss_bad > 5.0);
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let logits = [0.3f32, -1.2, 2.0];
        let labels = [1.0f32, 0.0, 1.0];
        let (_, grad) = bce_with_logits(&logits, &labels);
        let eps = 1e-3;
        for i in 0..3 {
            let mut lp = logits;
            lp[i] += eps;
            let mut lm = logits;
            lm[i] -= eps;
            let (fp, _) = bce_with_logits(&lp, &labels);
            let (fm, _) = bce_with_logits(&lm, &labels);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (grad[i] - numeric).abs() < 1e-3,
                "i={i} analytic {} numeric {numeric}",
                grad[i]
            );
        }
    }

    #[test]
    fn bce_stable_at_extreme_logits() {
        let (loss, grad) = bce_with_logits(&[100.0, -100.0], &[1.0, 0.0]);
        assert!(loss.is_finite() && loss >= 0.0);
        assert!(grad.iter().all(|g| g.is_finite()));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bce_rejects_mismatched_lengths() {
        let _ = bce_with_logits(&[0.0], &[0.0, 1.0]);
    }

    #[test]
    fn margin_loss_zero_when_well_separated() {
        // Positive distance 0.1, negatives at distance 10: margin satisfied.
        let mut d_negs = [f32::NAN; 2];
        let (loss, d_pos) = margin_ranking(0.1, &[10.0, 12.0], 1.0, &mut d_negs);
        assert_eq!(loss, 0.0);
        assert_eq!(d_pos, 0.0);
        assert!(d_negs.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn margin_loss_active_when_violated() {
        let mut d_negs = [0.0; 2];
        let (loss, d_pos) = margin_ranking(5.0, &[1.0, 2.0], 1.0, &mut d_negs);
        // Both negatives violate: (1+5-1) + (1+5-2) = 9, mean 4.5.
        assert!((loss - 4.5).abs() < 1e-6);
        assert!((d_pos - 1.0).abs() < 1e-6);
        assert_eq!(d_negs, [-0.5, -0.5]);
    }

    #[test]
    fn margin_gradient_matches_finite_difference() {
        let pos = 1.4f32;
        let negs = [1.0f32, 3.0, 1.8];
        let mut d_negs = [0.0; 3];
        let (_, d_pos) = margin_ranking(pos, &negs, 1.0, &mut d_negs);
        let eps = 1e-3;
        let f = |p: f32, ns: &[f32]| margin_ranking(p, ns, 1.0, &mut [0.0; 3]).0;
        let numeric_pos = (f(pos + eps, &negs) - f(pos - eps, &negs)) / (2.0 * eps);
        assert!((d_pos - numeric_pos).abs() < 1e-3);
        for i in 0..3 {
            let mut np = negs;
            np[i] += eps;
            let mut nm = negs;
            nm[i] -= eps;
            let numeric = (f(pos, &np) - f(pos, &nm)) / (2.0 * eps);
            assert!((d_negs[i] - numeric).abs() < 1e-3, "neg {i}");
        }
    }
}
