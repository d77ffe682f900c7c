//! The diagonal preconditioner and the placement-stage ratio ω (§3.2).
//!
//! ePlace-family placers divide the gradient by
//! `H~ = H_W + lambda * H_D` with `H_W = diag(|S_i|)` (nets per cell) and
//! `H_D = diag(A_i)` (cell areas), clamped at 1 to avoid amplifying tiny
//! rows. Xplace additionally reads the *precondition weighted ratio*
//!
//! ```text
//!   omega = lambda |H_D| / (|H_W| + lambda |H_D|)   in [0, 1]
//! ```
//!
//! off the same diagonals and uses it to detect the placement stage
//! (wirelength-dominated < 0.05, spreading, final > 0.95).

use crate::PlacementModel;
use xplace_device::KernelInfo;

/// The preconditioner diagonal `max(1, |S_i| + lambda A_i)` of node `i`;
/// the gradient of every optimizable node is divided by it (fillers have
/// `|S_i| = 0` and are preconditioned by area only).
#[inline]
pub fn diagonal(model: &PlacementModel, lambda: f64, i: usize) -> f64 {
    (model.node_degree[i] as f64 + lambda * model.node_area(i)).max(1.0)
}

/// The descriptor of the precondition kernel over the optimizable nodes.
/// Its body is part of [`crate::density::DensityOp::gradient_pass`].
pub fn kernel(model: &PlacementModel) -> KernelInfo {
    let n = (model.num_movable() + model.num_fillers()) as u64;
    KernelInfo::new("precondition").bytes(n * 40).flops(n * 6)
}

/// The precondition weighted ratio ω over movable cells (Eq. in §3.2).
///
/// Returns a value in `[0, 1]`; 0 when `lambda = 0`. A loop that evaluates
/// ω every iteration should build [`OmegaSums`] once instead: the sums do
/// not change while the cells move.
pub fn omega(model: &PlacementModel, lambda: f64) -> f64 {
    OmegaSums::new(model).omega(lambda)
}

/// The diagonal sums `|H_W|` and `|H_D|` over movable cells, which depend
/// only on net degrees and cell areas, so ω can be evaluated for any λ
/// without another pass over the cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OmegaSums {
    hw: f64,
    hd: f64,
}

impl OmegaSums {
    /// Sums the degree and area diagonals over the model's movable cells.
    pub fn new(model: &PlacementModel) -> Self {
        let mut hw = 0.0;
        let mut hd = 0.0;
        for i in 0..model.num_movable() {
            hw += model.node_degree[i] as f64;
            hd += model.node_area(i);
        }
        OmegaSums { hw, hd }
    }

    /// ω at `lambda`; bit-identical to [`omega`] on the same model.
    pub fn omega(&self, lambda: f64) -> f64 {
        let weighted = lambda * self.hd;
        if self.hw + weighted == 0.0 {
            0.0
        } else {
            weighted / (self.hw + weighted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};

    fn model() -> PlacementModel {
        let design = synthesize(&SynthesisSpec::new("p", 200, 210).with_seed(31)).unwrap();
        PlacementModel::from_design(&design).unwrap()
    }

    #[test]
    fn diagonal_is_degree_plus_area_clamped_at_one() {
        let m = model();
        for lambda in [0.0, 0.5] {
            for i in m.optimizable_indices() {
                let h = m.node_degree[i] as f64 + lambda * m.node_area(i);
                assert_eq!(diagonal(&m, lambda, i), h.max(1.0));
            }
        }
        // lambda = 0 and a filler (degree 0) would divide by 0 without the
        // clamp: the gradient must not be amplified.
        for i in m.ranges().filler {
            assert_eq!(diagonal(&m, 0.0, i), 1.0);
        }
    }

    #[test]
    fn omega_is_monotone_in_lambda_and_bounded() {
        let m = model();
        assert_eq!(omega(&m, 0.0), 0.0);
        let mut prev = 0.0;
        for lambda in [1e-6, 1e-4, 1e-2, 1.0, 100.0, 1e6] {
            let w = omega(&m, lambda);
            assert!((0.0..=1.0).contains(&w));
            assert!(w >= prev, "omega must grow with lambda");
            prev = w;
        }
        assert!(prev > 0.99, "omega should approach 1 for huge lambda");
    }

    #[test]
    fn omega_crosses_stage_thresholds() {
        let m = model();
        // Find lambdas that put omega below 0.05 and above 0.95; the
        // schedule in the paper keys off exactly these thresholds.
        assert!(omega(&m, 1e-9) < 0.05);
        assert!(omega(&m, 1e9) > 0.95);
    }
}
