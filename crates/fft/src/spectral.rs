//! Numerical solution of the placement electrostatic system.
//!
//! Following ePlace (and Xplace, which inherits its formulation), the cell
//! density map is treated as a charge density `rho` on an `nx`-by-`ny` bin
//! grid. The potential `psi` solves Poisson's equation with Neumann
//! boundaries (Eq. (5) of the paper):
//!
//! ```text
//!   laplacian(psi) = -rho,   n . grad(psi) = 0 on the boundary,
//!   integral(rho) = integral(psi) = 0.
//! ```
//!
//! Expanding `rho` in the cosine basis `cos(w_u (i+1/2)) cos(w_v (j+1/2))`
//! with `w_u = pi u / nx`, `w_v = pi v / ny` (which satisfies the Neumann
//! condition automatically) gives the classic spectral solution:
//!
//! ```text
//!   psi_uv   = a_uv / (w_u^2 + w_v^2)
//!   Ex       = sum a_uv w_u/(w_u^2+w_v^2) sin cos      (E = -grad psi)
//!   Ey       = sum a_uv w_v/(w_u^2+w_v^2) cos sin
//! ```
//!
//! which is exactly what DREAMPlace evaluates with its `dct2`/`idct2`/
//! `idxst` kernel family; here the transforms are the batched form of
//! [`DctPlan`]'s, bit for bit.

use crate::batch::{BatchDct, TILE};
use crate::{DctPlan, FftError, Grid2};

/// The potential and electric-field maps produced by one density solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSolution {
    /// Electrostatic potential `psi`, one sample per bin.
    pub potential: Grid2,
    /// x-component of the electric field `E = -grad psi` (bin units).
    pub field_x: Grid2,
    /// y-component of the electric field.
    pub field_y: Grid2,
    /// Total system energy `0.5 * sum(rho * psi)`.
    pub energy: f64,
}

impl FieldSolution {
    /// Creates a zero-filled solution for an `nx`-by-`ny` grid.
    pub fn new(nx: usize, ny: usize) -> Self {
        FieldSolution {
            potential: Grid2::new(nx, ny),
            field_x: Grid2::new(nx, ny),
            field_y: Grid2::new(nx, ny),
            energy: 0.0,
        }
    }
}

/// Which maps one solve writes into its [`FieldSolution`].
///
/// Every selection runs the same analysis and the same per-stream
/// synthesis passes; a map that is not selected is neither transformed nor
/// written, so a partial solve leaves the other maps as they were and
/// writes the selected ones bit-identically to [`SolveOutputs::All`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutputs {
    /// Potential, both field components and the energy (8 transform
    /// streams: 2 analysis, 3 x-synthesis, 3 y-synthesis).
    All,
    /// `Ex` and `Ey` only (6 streams): what a placement iteration reads.
    Field,
    /// The potential and the energy only (4 streams).
    Potential,
}

impl SolveOutputs {
    #[inline(always)]
    fn potential(self) -> bool {
        self != SolveOutputs::Field
    }

    #[inline(always)]
    fn field(self) -> bool {
        self != SolveOutputs::Potential
    }
}

/// Spectral Poisson solver for the placement density system.
///
/// A solve is four batched transform passes ([`crate::batch`]): DCT-II
/// analysis along y, then along x (scaled into `psi` coefficients), then
/// the potential/`Ex`/`Ey` syntheses along x, then along y straight into
/// the output grids ([`SolveOutputs`] selects which of the three maps are
/// synthesized). Each pass transforms tiles of grid columns with the
/// batch axis contiguous; the transposes between passes are folded into
/// the pack and store loops. All scratch lives in five grid-sized buffers
/// owned by the solver, so [`ElectrostaticSolver::solve_into`] allocates
/// nothing but the per-launch task list.
///
/// ```
/// use xplace_fft::{ElectrostaticSolver, Grid2};
///
/// # fn main() -> Result<(), xplace_fft::FftError> {
/// let mut solver = ElectrostaticSolver::new(32, 32)?;
/// let density = Grid2::from_fn(32, 32, |ix, iy| {
///     let dx = ix as f64 - 15.5;
///     let dy = iy as f64 - 15.5;
///     (-(dx * dx + dy * dy) / 20.0).exp()
/// });
/// let sol = solver.solve(&density)?;
/// // Field pushes outward from the density peak.
/// assert!(sol.field_x[(25, 16)] > 0.0);
/// assert!(sol.field_x[(6, 16)] < 0.0);
/// assert!(sol.energy > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ElectrostaticSolver {
    nx: usize,
    ny: usize,
    /// w_u = pi u / nx.
    wx: Vec<f64>,
    /// w_v = pi v / ny.
    wy: Vec<f64>,
    /// Length-`nx` transform tables (from the plan cache).
    plan_x: BatchDct,
    /// Length-`ny` transform tables (from the plan cache).
    plan_y: BatchDct,
    /// Real and imaginary transform planes, tile after tile.
    re: Vec<f64>,
    im: Vec<f64>,
    /// y-analysis output, laid out `ix * ny + v`; then the x-synthesized
    /// potential coefficients, laid out `v * nx + ix`.
    sbuf_pot: Vec<f64>,
    /// Scaled coefficients `a_uv / w^2`, laid out `v * nx + u`; the `Ex`
    /// x-synthesis overwrites each row in place (`v * nx + ix`).
    sbuf_ex: Vec<f64>,
    /// x-synthesized `Ey` coefficients, laid out `v * nx + ix`.
    sbuf_ey: Vec<f64>,
    /// Launch width for the tile batches (>= 1).
    threads: usize,
}

/// Runs `f(tile, re, im, outs)` for every tile of the transform planes,
/// where `re`/`im` are the tile's `tile_len` plane samples and each of
/// `outs` is the tile's `tile_len`-long chunk of an output grid. Contiguous
/// tile ranges are spread over at most `width` tasks of the process-wide
/// worker pool.
///
/// A tile's transforms read only shared inputs and write only the tile's
/// own planes and output chunks, and every column goes through the same
/// operations whichever task runs it, so the result is bit-identical for
/// **any** width; `width <= 1` (or a single tile) runs inline.
fn run_tiles<const K: usize, F>(
    width: usize,
    tile_len: usize,
    re: &mut [f64],
    im: &mut [f64],
    outs: [&mut [f64]; K],
    f: F,
) where
    F: Fn(usize, &mut [f64], &mut [f64], [&mut [f64]; K]) + Sync,
{
    let run = |t0: usize, re: &mut [f64], im: &mut [f64], outs: [&mut [f64]; K]| {
        let mut outs = outs.map(|o| o.chunks_exact_mut(tile_len));
        let planes = re
            .chunks_exact_mut(tile_len)
            .zip(im.chunks_exact_mut(tile_len));
        for (t, (re, im)) in planes.enumerate() {
            let chunks = outs
                .each_mut()
                .map(|o| o.next().expect("output grids match the planes"));
            f(t0 + t, re, im, chunks);
        }
    };
    let tiles = re.len() / tile_len;
    let tasks = width.min(tiles).max(1);
    if tasks == 1 {
        run(0, re, im, outs);
        return;
    }
    let per_task = tiles.div_ceil(tasks);
    let span = per_task * tile_len;
    let mut outs = outs.map(|o| o.chunks_mut(span));
    let mut states: Vec<_> = re
        .chunks_mut(span)
        .zip(im.chunks_mut(span))
        .enumerate()
        .map(|(i, (re, im))| {
            let chunks = outs
                .each_mut()
                .map(|o| o.next().expect("output grids match the planes"));
            (i * per_task, re, im, chunks)
        })
        .collect();
    xplace_parallel::global().run_mut(&mut states, tasks, |_, (t0, re, im, outs)| {
        run(*t0, re, im, outs.each_mut().map(|o| &mut **o));
    });
}

impl ElectrostaticSolver {
    /// Creates a solver for an `nx`-by-`ny` bin grid.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::EmptyLength`] / [`FftError::NotPowerOfTwo`] when
    /// either dimension is not a nonzero power of two.
    pub fn new(nx: usize, ny: usize) -> Result<Self, FftError> {
        let plan_x = BatchDct::from_plan(&DctPlan::cached(nx)?);
        let plan_y = BatchDct::from_plan(&DctPlan::cached(ny)?);
        let wx = (0..nx)
            .map(|u| std::f64::consts::PI * u as f64 / nx as f64)
            .collect();
        let wy = (0..ny)
            .map(|v| std::f64::consts::PI * v as f64 / ny as f64)
            .collect();
        Ok(ElectrostaticSolver {
            nx,
            ny,
            wx,
            wy,
            plan_x,
            plan_y,
            re: vec![0.0; nx * ny],
            im: vec![0.0; nx * ny],
            sbuf_pot: vec![0.0; nx * ny],
            sbuf_ex: vec![0.0; nx * ny],
            sbuf_ey: vec![0.0; nx * ny],
            threads: 1,
        })
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Sets the launch width for the tile batches (clamped to >= 1).
    ///
    /// Every grid column is transformed by the same operations whichever
    /// task runs it, so the solution is bit-identical for every thread
    /// count; `threads` only changes how the tiles are scheduled.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Current launch width for the tile batches.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Solves the electrostatic system, allocating a fresh [`FieldSolution`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::GridMismatch`] if `density` does not match the
    /// solver dimensions.
    pub fn solve(&mut self, density: &Grid2) -> Result<FieldSolution, FftError> {
        let mut out = FieldSolution::new(self.nx, self.ny);
        self.solve_into(density, &mut out)?;
        Ok(out)
    }

    /// Solves the electrostatic system into a caller-provided buffer,
    /// performing no grid allocation.
    ///
    /// The DCT-II analysis (y, then x) yields normalized coefficients
    /// `a_uv`, stored already divided by `w^2` (the `(0,0)` mode dropped).
    /// The x-synthesis pass then transforms the potential (`psi = a/w^2`,
    /// cosine), `Ex` (`a w_u/w^2`, sine) and `Ey` (`a w_v/w^2`, cosine)
    /// streams of each tile back to back, and the y-synthesis pass
    /// (cosine, cosine, sine) writes the three output grids.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::GridMismatch`] if `density` or any buffer grid
    /// does not match the solver dimensions.
    pub fn solve_into(&mut self, density: &Grid2, out: &mut FieldSolution) -> Result<(), FftError> {
        self.solve_outputs(density, out, SolveOutputs::All)
    }

    /// [`ElectrostaticSolver::solve_into`] restricted to the maps `outputs`
    /// selects; the energy is computed with the potential. The maps not
    /// selected keep their previous contents.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::GridMismatch`] if `density` or any buffer grid
    /// does not match the solver dimensions.
    pub fn solve_outputs(
        &mut self,
        density: &Grid2,
        out: &mut FieldSolution,
        outputs: SolveOutputs,
    ) -> Result<(), FftError> {
        self.check_grid(density)?;
        self.check_grid(&out.potential)?;
        self.check_grid(&out.field_x)?;
        self.check_grid(&out.field_y)?;

        self.analyze(density);
        self.synthesize(out, outputs);
        if !outputs.potential() {
            return Ok(());
        }
        out.energy = 0.5
            * density
                .as_slice()
                .iter()
                .zip(out.potential.as_slice())
                .map(|(r, p)| r * p)
                .sum::<f64>();
        Ok(())
    }

    fn check_grid(&self, grid: &Grid2) -> Result<(), FftError> {
        if grid.dims() != (self.nx, self.ny) {
            return Err(FftError::GridMismatch {
                expected: (self.nx, self.ny),
                actual: grid.dims(),
            });
        }
        Ok(())
    }

    /// 2-D DCT-II analysis into `sbuf_ex[v * nx + u] = a_uv / w_uv^2`, where
    /// `a_uv` are the normalized synthesis coefficients (`rho = sum a_uv cos
    /// cos` exactly) and the `(0,0)` mode is zero.
    fn analyze(&mut self, density: &Grid2) {
        let (nx, ny) = (self.nx, self.ny);
        let (plan_x, plan_y, wx, wy) = (&self.plan_x, &self.plan_y, &self.wx, &self.wy);
        // Along y: tiles of grid rows ix; output rows ix of `sbuf_pot`.
        let w = TILE.min(nx);
        let rho = density.as_slice();
        run_tiles(
            self.threads,
            w * ny,
            &mut self.re,
            &mut self.im,
            [&mut self.sbuf_pot],
            |t, re, im, [ybuf]| analyze_y::run(plan_y, rho, t, w, re, im, ybuf),
        );
        // Along x: tiles of y-frequencies v; output rows v of `sbuf_ex`.
        let w = TILE.min(ny);
        let ybuf = &self.sbuf_pot;
        run_tiles(
            self.threads,
            w * nx,
            &mut self.re,
            &mut self.im,
            [&mut self.sbuf_ex],
            |t, re, im, [coeffs]| analyze_x::run(plan_x, wx, wy, ybuf, t, w, re, im, coeffs),
        );
    }

    /// Synthesis of the selected maps out of the scaled coefficients in
    /// `sbuf_ex`.
    ///
    /// Along x, each tile of y-frequencies runs the potential (cosine) and
    /// `Ey` (cosine) transforms into `sbuf_pot`/`sbuf_ey`, then `Ex` (sine)
    /// last, in place over its own coefficient rows, which it has finished
    /// reading by then. Along y, each tile of grid rows runs the cosine,
    /// cosine and sine transforms straight into the output grids. A stream
    /// that is not selected is skipped in both passes.
    fn synthesize(&mut self, out: &mut FieldSolution, outputs: SolveOutputs) {
        let (nx, ny) = (self.nx, self.ny);
        let (plan_x, plan_y, wx, wy) = (&self.plan_x, &self.plan_y, &self.wx, &self.wy);
        let w = TILE.min(ny);
        run_tiles(
            self.threads,
            w * nx,
            &mut self.re,
            &mut self.im,
            [&mut self.sbuf_pot, &mut self.sbuf_ey, &mut self.sbuf_ex],
            |t, re, im, [pot, ey, s]| {
                synthesize_x::run(plan_x, wx, wy, outputs, t, w, re, im, pot, ey, s)
            },
        );
        let w = TILE.min(nx);
        let (pot, ex, ey) = (&self.sbuf_pot, &self.sbuf_ex, &self.sbuf_ey);
        run_tiles(
            self.threads,
            w * ny,
            &mut self.re,
            &mut self.im,
            [
                out.potential.as_mut_slice(),
                out.field_x.as_mut_slice(),
                out.field_y.as_mut_slice(),
            ],
            |t, re, im, [d_pot, d_ex, d_ey]| {
                let bufs = [pot.as_slice(), ex, ey];
                synthesize_y::run(plan_y, bufs, outputs, t, w, re, im, d_pot, d_ex, d_ey)
            },
        );
    }
}

xplace_parallel::avx2_dispatch! {
    /// Analysis along y of tile `t`: the `w` grid rows `t * w..` of `rho`
    /// into rows of `ybuf`.
    fn analyze_y(
        plan: &BatchDct,
        rho: &[f64],
        t: usize,
        w: usize,
        re: &mut [f64],
        im: &mut [f64],
        ybuf: &mut [f64],
    ) {
        let ny = plan.len();
        let src = &rho[t * w * ny..(t + 1) * w * ny];
        plan.pack_forward(re, im, w, |m, c| src[c * ny + m]);
        plan.analyze(re, im, w);
        plan.store_analysis(re, w, ybuf, |_, _, v| v);
    }
}

xplace_parallel::avx2_dispatch! {
    /// Analysis along x of tile `t`: the `w` y-frequencies `t * w..` of the
    /// y-analysis `ybuf` into rows of `coeffs`, normalized and divided by
    /// `w_u^2 + w_v^2` (the `(0,0)` mode zero).
    fn analyze_x(
        plan: &BatchDct,
        wx: &[f64],
        wy: &[f64],
        ybuf: &[f64],
        t: usize,
        w: usize,
        re: &mut [f64],
        im: &mut [f64],
        coeffs: &mut [f64],
    ) {
        let (nx, ny) = (wx.len(), wy.len());
        let norm = 4.0 / (nx as f64 * ny as f64);
        let v0 = t * w;
        plan.pack_forward(re, im, w, |m, c| ybuf[m * ny + v0 + c]);
        plan.analyze(re, im, w);
        plan.store_analysis(re, w, coeffs, |u, c, a| {
            let v = v0 + c;
            let mut beta = norm;
            if u == 0 {
                beta *= 0.5;
            }
            if v == 0 {
                beta *= 0.5;
            }
            let a = a * beta;
            let (wu, wv) = (wx[u], wy[v]);
            let wv2 = wv * wv;
            if wv2 == 0.0 && u == 0 {
                0.0
            } else {
                a / (wu * wu + wv2)
            }
        });
    }
}

xplace_parallel::avx2_dispatch! {
    /// Synthesis along x of tile `t` (`w` y-frequencies): the potential
    /// (cosine) into `pot`, `Ey` (cosine) into `ey`, then `Ex` (sine) in
    /// place over the scaled coefficients `s`, each stream when `outputs`
    /// selects it.
    fn synthesize_x(
        plan: &BatchDct,
        wx: &[f64],
        wy: &[f64],
        outputs: SolveOutputs,
        t: usize,
        w: usize,
        re: &mut [f64],
        im: &mut [f64],
        pot: &mut [f64],
        ey: &mut [f64],
        s: &mut [f64],
    ) {
        let nx = wx.len();
        let wv = &wy[t * w..(t + 1) * w];
        if outputs.potential() {
            plan.load_coeffs(re, w, false, |u, c| s[c * nx + u]);
            plan.synthesize(re, im, w);
            plan.store_cosine(re, im, w, pot, |c| s[c * nx]);
        }
        if outputs.field() {
            plan.load_coeffs(re, w, false, |u, c| s[c * nx + u] * wv[c]);
            plan.synthesize(re, im, w);
            plan.store_cosine(re, im, w, ey, |c| s[c * nx] * wv[c]);
            plan.load_coeffs(re, w, true, |u, c| s[c * nx + u] * wx[u]);
            plan.synthesize(re, im, w);
            plan.store_sine(re, im, w, s);
        }
    }
}

xplace_parallel::avx2_dispatch! {
    /// Synthesis along y of tile `t` (`w` grid rows): the x-synthesized
    /// `[potential, Ex, Ey]` rows of `bufs` (cosine, cosine, sine) straight
    /// into the output grids, each stream when `outputs` selects it.
    fn synthesize_y(
        plan: &BatchDct,
        bufs: [&[f64]; 3],
        outputs: SolveOutputs,
        t: usize,
        w: usize,
        re: &mut [f64],
        im: &mut [f64],
        d_pot: &mut [f64],
        d_ex: &mut [f64],
        d_ey: &mut [f64],
    ) {
        let [pot, ex, ey] = bufs;
        let nx = pot.len() / plan.len();
        let ix0 = t * w;
        if outputs.potential() {
            plan.load_coeffs(re, w, false, |v, c| pot[v * nx + ix0 + c]);
            plan.synthesize(re, im, w);
            plan.store_cosine(re, im, w, d_pot, |c| pot[ix0 + c]);
        }
        if outputs.field() {
            plan.load_coeffs(re, w, false, |v, c| ex[v * nx + ix0 + c]);
            plan.synthesize(re, im, w);
            plan.store_cosine(re, im, w, d_ex, |c| ex[ix0 + c]);
            plan.load_coeffs(re, w, true, |v, c| ey[v * nx + ix0 + c]);
            plan.synthesize(re, im, w);
            plan.store_sine(re, im, w, d_ey);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode_density(nx: usize, ny: usize, u: usize, v: usize, amp: f64) -> Grid2 {
        Grid2::from_fn(nx, ny, |ix, iy| {
            let cx = (std::f64::consts::PI * u as f64 * (ix as f64 + 0.5) / nx as f64).cos();
            let cy = (std::f64::consts::PI * v as f64 * (iy as f64 + 0.5) / ny as f64).cos();
            amp * cx * cy
        })
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(ElectrostaticSolver::new(24, 32).is_err());
        assert!(ElectrostaticSolver::new(32, 0).is_err());
    }

    #[test]
    fn rejects_mismatched_grid() {
        let mut solver = ElectrostaticSolver::new(8, 8).unwrap();
        let density = Grid2::new(8, 16);
        assert!(matches!(
            solver.solve(&density),
            Err(FftError::GridMismatch { .. })
        ));
    }

    #[test]
    fn constant_density_gives_zero_field() {
        let mut solver = ElectrostaticSolver::new(16, 16).unwrap();
        let mut density = Grid2::new(16, 16);
        density.fill(3.0);
        let sol = solver.solve(&density).unwrap();
        assert!(sol.field_x.max_abs_diff(&Grid2::new(16, 16)) < 1e-9);
        assert!(sol.field_y.max_abs_diff(&Grid2::new(16, 16)) < 1e-9);
        assert!(sol.potential.max_abs_diff(&Grid2::new(16, 16)) < 1e-9);
        assert!(sol.energy.abs() < 1e-9);
    }

    #[test]
    fn single_mode_matches_analytic_solution() {
        let (nx, ny) = (32, 16);
        let (u, v) = (3, 2);
        let amp = 2.5;
        let mut solver = ElectrostaticSolver::new(nx, ny).unwrap();
        let density = mode_density(nx, ny, u, v, amp);
        let sol = solver.solve(&density).unwrap();

        let wu = std::f64::consts::PI * u as f64 / nx as f64;
        let wv = std::f64::consts::PI * v as f64 / ny as f64;
        let w2 = wu * wu + wv * wv;
        for ix in 0..nx {
            for iy in 0..ny {
                let cx = (wu * (ix as f64 + 0.5)).cos();
                let sx = (wu * (ix as f64 + 0.5)).sin();
                let cy = (wv * (iy as f64 + 0.5)).cos();
                let sy = (wv * (iy as f64 + 0.5)).sin();
                let psi = amp * cx * cy / w2;
                let ex = amp * wu * sx * cy / w2;
                let ey = amp * wv * cx * sy / w2;
                assert!(
                    (sol.potential[(ix, iy)] - psi).abs() < 1e-9,
                    "psi at ({ix},{iy})"
                );
                assert!(
                    (sol.field_x[(ix, iy)] - ex).abs() < 1e-9,
                    "ex at ({ix},{iy})"
                );
                assert!(
                    (sol.field_y[(ix, iy)] - ey).abs() < 1e-9,
                    "ey at ({ix},{iy})"
                );
            }
        }
    }

    #[test]
    fn superposition_of_modes() {
        let (nx, ny) = (16, 16);
        let mut solver = ElectrostaticSolver::new(nx, ny).unwrap();
        let mut d1 = mode_density(nx, ny, 1, 0, 1.0);
        let d2 = mode_density(nx, ny, 0, 2, -0.5);
        let s1 = solver.solve(&d1).unwrap();
        let s2 = solver.solve(&d2).unwrap();
        d1.add_assign_grid(&d2);
        let s12 = solver.solve(&d1).unwrap();
        for ix in 0..nx {
            for iy in 0..ny {
                let expect = s1.potential[(ix, iy)] + s2.potential[(ix, iy)];
                assert!((s12.potential[(ix, iy)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn point_charge_field_points_outward_and_is_symmetric() {
        let n = 64;
        let mut solver = ElectrostaticSolver::new(n, n).unwrap();
        let mut density = Grid2::new(n, n);
        // 2x2 charge centered exactly at the grid midpoint so mirror symmetry
        // is exact on the half-sample grid.
        density[(31, 31)] = 1.0;
        density[(31, 32)] = 1.0;
        density[(32, 31)] = 1.0;
        density[(32, 32)] = 1.0;
        let sol = solver.solve(&density).unwrap();
        assert!(sol.field_x[(40, 31)] > 0.0);
        assert!(sol.field_x[(20, 31)] < 0.0);
        assert!(sol.field_y[(31, 40)] > 0.0);
        assert!(sol.field_y[(31, 20)] < 0.0);
        // Mirror symmetry about the charge.
        for d in 1..20 {
            let right = sol.field_x[(32 + d, 31)];
            let left = sol.field_x[(31 - d, 31)];
            assert!(
                (right + left).abs() < 1e-9,
                "asymmetry at d={d}: {right} vs {left}"
            );
        }
        assert!(sol.energy > 0.0);
    }

    #[test]
    fn discrete_laplacian_of_potential_approximates_negative_density() {
        // For a smooth (band-limited, low-frequency) density the 5-point
        // Laplacian of psi should be close to -(rho - mean(rho)).
        let n = 64;
        let mut solver = ElectrostaticSolver::new(n, n).unwrap();
        let density = Grid2::from_fn(n, n, |ix, iy| {
            let dx = (ix as f64 - 31.5) / 12.0;
            let dy = (iy as f64 - 31.5) / 12.0;
            (-(dx * dx + dy * dy)).exp()
        });
        let mut centered = density.clone();
        centered.remove_mean();
        let sol = solver.solve(&density).unwrap();
        let mut max_err: f64 = 0.0;
        for ix in 8..n - 8 {
            for iy in 8..n - 8 {
                let lap = sol.potential[(ix + 1, iy)]
                    + sol.potential[(ix - 1, iy)]
                    + sol.potential[(ix, iy + 1)]
                    + sol.potential[(ix, iy - 1)]
                    - 4.0 * sol.potential[(ix, iy)];
                max_err = max_err.max((lap + centered[(ix, iy)]).abs());
            }
        }
        assert!(max_err < 0.02, "laplacian residual too large: {max_err}");
    }

    #[test]
    fn field_is_negative_gradient_of_potential() {
        // Central differences of psi should match -E for smooth input.
        let n = 64;
        let mut solver = ElectrostaticSolver::new(n, n).unwrap();
        let density = Grid2::from_fn(n, n, |ix, iy| {
            ((ix as f64) * 0.11).sin() + ((iy as f64) * 0.07).cos()
        });
        let sol = solver.solve(&density).unwrap();
        let mut max_err: f64 = 0.0;
        for ix in 4..n - 4 {
            for iy in 4..n - 4 {
                let gx = 0.5 * (sol.potential[(ix + 1, iy)] - sol.potential[(ix - 1, iy)]);
                let gy = 0.5 * (sol.potential[(ix, iy + 1)] - sol.potential[(ix, iy - 1)]);
                max_err = max_err.max((gx + sol.field_x[(ix, iy)]).abs());
                max_err = max_err.max((gy + sol.field_y[(ix, iy)]).abs());
            }
        }
        assert!(max_err < 0.05, "field/gradient mismatch: {max_err}");
    }

    #[test]
    fn solve_into_reuses_buffers_and_matches_solve() {
        let n = 16;
        let mut solver = ElectrostaticSolver::new(n, n).unwrap();
        let density = Grid2::from_fn(n, n, |ix, iy| ((ix * 3 + iy) % 7) as f64);
        let fresh = solver.solve(&density).unwrap();
        let mut reused = FieldSolution::new(n, n);
        solver.solve_into(&density, &mut reused).unwrap();
        assert!(fresh.potential.max_abs_diff(&reused.potential) < 1e-12);
        assert!(fresh.field_x.max_abs_diff(&reused.field_x) < 1e-12);
        assert!(fresh.field_y.max_abs_diff(&reused.field_y) < 1e-12);
        assert!((fresh.energy - reused.energy).abs() < 1e-12);
    }

    #[test]
    fn partial_solves_write_their_maps_bitwise_and_leave_the_rest() {
        let bits = |g: &Grid2| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (nx, ny) in [(1, 1), (2, 8), (32, 16), (64, 64)] {
            let mut solver = ElectrostaticSolver::new(nx, ny).unwrap();
            let density = Grid2::from_fn(nx, ny, |ix, iy| ((ix * 7 + iy * 3) % 5) as f64 - 1.5);
            let all = solver.solve(&density).unwrap();
            let mut field = FieldSolution::new(nx, ny);
            field.potential.fill(9.0);
            field.energy = 9.0;
            solver
                .solve_outputs(&density, &mut field, SolveOutputs::Field)
                .unwrap();
            assert_eq!(bits(&field.field_x), bits(&all.field_x));
            assert_eq!(bits(&field.field_y), bits(&all.field_y));
            assert!(field.potential.as_slice().iter().all(|&v| v == 9.0));
            assert_eq!(field.energy, 9.0);
            let mut pot = FieldSolution::new(nx, ny);
            pot.field_x.fill(9.0);
            solver
                .solve_outputs(&density, &mut pot, SolveOutputs::Potential)
                .unwrap();
            assert_eq!(bits(&pot.potential), bits(&all.potential));
            assert_eq!(pot.energy.to_bits(), all.energy.to_bits());
            assert!(pot.field_x.as_slice().iter().all(|&v| v == 9.0));
            assert!(pot.field_y.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    /// A placement iteration's field-only solve runs 6 of the 8 transform
    /// streams of a full solve; the on-demand potential runs 4.
    #[test]
    fn transform_streams_per_solve() {
        use crate::batch::TRANSFORMS;
        // One tile per pass, serial: every tile transform is one stream.
        let mut solver = ElectrostaticSolver::new(32, 16).unwrap();
        let density = mode_density(32, 16, 3, 2, 1.0);
        let mut out = FieldSolution::new(32, 16);
        for (outputs, streams) in [
            (SolveOutputs::All, 8),
            (SolveOutputs::Field, 6),
            (SolveOutputs::Potential, 4),
        ] {
            TRANSFORMS.with(|c| c.set(0));
            solver.solve_outputs(&density, &mut out, outputs).unwrap();
            assert_eq!(TRANSFORMS.with(|c| c.get()), streams, "{outputs:?}");
        }
    }

    #[test]
    fn rectangular_grids_are_supported() {
        let mut solver = ElectrostaticSolver::new(64, 16).unwrap();
        let density = Grid2::from_fn(64, 16, |ix, iy| {
            if (20..28).contains(&ix) && (6..10).contains(&iy) {
                1.0
            } else {
                0.0
            }
        });
        let sol = solver.solve(&density).unwrap();
        assert!(sol.field_x[(40, 8)] > 0.0);
        assert!(sol.field_x[(10, 8)] < 0.0);
    }
}

/// The AVX2 build of every tile pass against its portable build, called
/// directly on random tiles.
#[cfg(all(test, target_arch = "x86_64"))]
mod dispatch_tests {
    use super::*;
    use xplace_parallel::simd::avx2_or_note;
    use xplace_testkit::prop::{self, Config, Strategy};
    use xplace_testkit::rng::Rng;
    use xplace_testkit::{prop_assert, props};

    /// A solver for a random power-of-two grid and a seed for its data.
    fn case() -> impl Strategy<Value = (usize, usize, u64)> {
        prop::from_fn(|rng: &mut Rng| {
            (
                1 << rng.gen_range(0usize..8),
                1 << rng.gen_range(0usize..8),
                rng.next_u64(),
            )
        })
    }

    fn random(rng: &mut Rng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.f64() * 2.0 - 1.0).collect()
    }

    fn bits(bufs: &[Vec<f64>]) -> Vec<Vec<u64>> {
        bufs.iter()
            .map(|b| b.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Runs `pass(portable, bufs)` on two copies of `bufs`, once per
    /// build, and tells whether every buffer agrees bit for bit.
    fn builds_agree(bufs: Vec<Vec<f64>>, pass: impl Fn(bool, &mut [Vec<f64>])) -> bool {
        let mut portable = bufs.clone();
        let mut avx2 = bufs;
        pass(true, &mut portable);
        pass(false, &mut avx2);
        bits(&portable) == bits(&avx2)
    }

    props! {
        config = Config::with_cases(24);

        /// All four tile passes, for every tile of the grid and every
        /// output selection.
        fn tile_passes_agree_across_builds(case in case()) {
            if !avx2_or_note("tile_passes_agree_across_builds") {
                return Ok(());
            }
            let (nx, ny, seed) = case;
            let mut rng = Rng::seed_from_u64(seed);
            let s = ElectrostaticSolver::new(nx, ny).unwrap();
            let (px, py, wx, wy) = (&s.plan_x, &s.plan_y, &s.wx[..], &s.wy[..]);
            let grid = random(&mut rng, nx * ny);
            let (wr, wc) = (TILE.min(nx), TILE.min(ny));
            for t in 0..nx / wr {
                let bufs = vec![random(&mut rng, wr * ny), random(&mut rng, wr * ny), random(&mut rng, wr * ny)];
                prop_assert!(builds_agree(bufs, |portable, b| {
                    let [re, im, out] = b else { unreachable!() };
                    if portable {
                        analyze_y::portable(py, &grid, t, wr, re, im, out);
                    } else {
                        // SAFETY: the CPU supports AVX2.
                        unsafe { analyze_y::avx2(py, &grid, t, wr, re, im, out) };
                    }
                }), "analyze_y tile {t} of {nx}x{ny}");
                for outputs in [SolveOutputs::All, SolveOutputs::Field, SolveOutputs::Potential] {
                    let mut bufs = vec![random(&mut rng, wr * ny), random(&mut rng, wr * ny)];
                    bufs.extend((0..3).map(|_| random(&mut rng, wr * ny)));
                    prop_assert!(builds_agree(bufs, |portable, b| {
                        let [re, im, d_pot, d_ex, d_ey] = b else { unreachable!() };
                        let src = [&grid[..], &grid[..], &grid[..]];
                        if portable {
                            synthesize_y::portable(py, src, outputs, t, wr, re, im, d_pot, d_ex, d_ey);
                        } else {
                            // SAFETY: the CPU supports AVX2.
                            unsafe { synthesize_y::avx2(py, src, outputs, t, wr, re, im, d_pot, d_ex, d_ey) };
                        }
                    }), "synthesize_y tile {t} of {nx}x{ny}, {outputs:?}");
                }
            }
            for t in 0..ny / wc {
                let bufs = vec![random(&mut rng, wc * nx), random(&mut rng, wc * nx), random(&mut rng, wc * nx)];
                prop_assert!(builds_agree(bufs, |portable, b| {
                    let [re, im, out] = b else { unreachable!() };
                    if portable {
                        analyze_x::portable(px, wx, wy, &grid, t, wc, re, im, out);
                    } else {
                        // SAFETY: the CPU supports AVX2.
                        unsafe { analyze_x::avx2(px, wx, wy, &grid, t, wc, re, im, out) };
                    }
                }), "analyze_x tile {t} of {nx}x{ny}");
                for outputs in [SolveOutputs::All, SolveOutputs::Field, SolveOutputs::Potential] {
                    let bufs = (0..5).map(|_| random(&mut rng, wc * nx)).collect();
                    prop_assert!(builds_agree(bufs, |portable, b| {
                        let [re, im, pot, ey, coeffs] = b else { unreachable!() };
                        if portable {
                            synthesize_x::portable(px, wx, wy, outputs, t, wc, re, im, pot, ey, coeffs);
                        } else {
                            // SAFETY: the CPU supports AVX2.
                            unsafe { synthesize_x::avx2(px, wx, wy, outputs, t, wc, re, im, pot, ey, coeffs) };
                        }
                    }), "synthesize_x tile {t} of {nx}x{ny}, {outputs:?}");
                }
            }
        }
    }
}
