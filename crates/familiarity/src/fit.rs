//! Ordinary-least-squares fitting of the DOK weights.
//!
//! The paper fits the linear DOK model from 40 sampled source lines per
//! application, each self-rated 1–5 by its author (§6). This module performs
//! the same fit: given `(metrics, rating)` samples it solves the normal
//! equations for `[α₀, α_FA, α_DL, α_AC]` over the design
//! `[1, FA, DL, -ln(1+AC)]`.

use crate::{
    dok::DokModel,
    metrics::Metrics, //
};

/// An error from a degenerate fit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FitError {
    /// Why the fit failed.
    pub message: String,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DOK fit failed: {}", self.message)
    }
}

impl std::error::Error for FitError {}

/// Fits a [`DokModel`] to `(metrics, self-rating)` samples by OLS.
///
/// Requires at least 4 samples with a non-singular design; otherwise returns
/// an error, at which point callers fall back to [`DokModel::PAPER`].
pub fn fit_dok(samples: &[(Metrics, f64)]) -> Result<DokModel, FitError> {
    if samples.len() < 4 {
        return Err(FitError {
            message: format!("need >= 4 samples, got {}", samples.len()),
        });
    }
    // Normal equations: (XᵀX) w = Xᵀy with X rows [1, fa, dl, -ln(1+ac)].
    let mut xtx = [[0.0f64; 4]; 4];
    let mut xty = [0.0f64; 4];
    for (m, y) in samples {
        let row = [1.0, m.fa, m.dl, -(1.0 + m.ac).ln()];
        for i in 0..4 {
            for j in 0..4 {
                xtx[i][j] += row[i] * row[j];
            }
            xty[i] += row[i] * *y;
        }
    }
    let w = solve4(xtx, xty).ok_or_else(|| FitError {
        message: "singular design matrix (samples lack factor variation)".into(),
    })?;
    Ok(DokModel {
        alpha0: w[0],
        alpha_fa: w[1],
        alpha_dl: w[2],
        alpha_ac: w[3],
    })
}

/// Solves a 4×4 linear system by Gaussian elimination with partial pivoting.
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> Option<[f64; 4]> {
    const EPS: f64 = 1e-9;
    for col in 0..4 {
        // Pivot.
        let pivot = (col..4).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < EPS {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in (col + 1)..4 {
            let k = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (x, p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= k * p;
            }
            b[row] -= k * b[col];
        }
    }
    // Back-substitute.
    let mut x = [0.0f64; 4];
    for row in (0..4).rev() {
        let mut s = b[row];
        for j in (row + 1)..4 {
            s -= a[row][j] * x[j];
        }
        x[row] = s / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_grid() -> Vec<Metrics> {
        let mut out = Vec::new();
        for fa in [0.0, 1.0] {
            for dl in [0.0, 1.0, 3.0, 8.0, 20.0] {
                for ac in [0.0, 1.0, 4.0, 15.0] {
                    out.push(Metrics { fa, dl, ac });
                }
            }
        }
        out
    }

    #[test]
    fn recovers_exact_weights_from_noiseless_data() {
        let truth = DokModel::PAPER;
        let samples: Vec<(Metrics, f64)> = sample_grid()
            .into_iter()
            .map(|m| (m, truth.score(&m)))
            .collect();
        let fitted = fit_dok(&samples).unwrap();
        assert!((fitted.alpha0 - truth.alpha0).abs() < 1e-6, "{fitted:?}");
        assert!((fitted.alpha_fa - truth.alpha_fa).abs() < 1e-6);
        assert!((fitted.alpha_dl - truth.alpha_dl).abs() < 1e-6);
        assert!((fitted.alpha_ac - truth.alpha_ac).abs() < 1e-6);
    }

    #[test]
    fn tolerates_small_noise() {
        let truth = DokModel::PAPER;
        // Deterministic pseudo-noise.
        let samples: Vec<(Metrics, f64)> = sample_grid()
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let noise = ((i as f64 * 0.7391).sin()) * 0.05;
                (m, truth.score(&m) + noise)
            })
            .collect();
        let fitted = fit_dok(&samples).unwrap();
        assert!((fitted.alpha_fa - truth.alpha_fa).abs() < 0.1, "{fitted:?}");
        assert!((fitted.alpha_dl - truth.alpha_dl).abs() < 0.05);
        assert!((fitted.alpha_ac - truth.alpha_ac).abs() < 0.1);
    }

    #[test]
    fn rejects_underdetermined_input() {
        let samples = vec![
            (
                Metrics {
                    fa: 0.0,
                    dl: 0.0,
                    ac: 0.0
                },
                3.0
            );
            3
        ];
        assert!(fit_dok(&samples).is_err());
    }

    #[test]
    fn rejects_degenerate_design() {
        // All samples identical: singular XᵀX.
        let samples = vec![
            (
                Metrics {
                    fa: 1.0,
                    dl: 2.0,
                    ac: 3.0
                },
                4.0
            );
            10
        ];
        assert!(fit_dok(&samples).is_err());
    }
}
