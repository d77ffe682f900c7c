//! Batched DCT-II analysis and cosine/sine synthesis over column tiles.
//!
//! [`DctPlan`] transforms one row at a time through interleaved complex
//! scratch. The electrostatic solver instead transforms a whole grid axis
//! at once: a *tile* of `w` independent transforms of length `N` is stored
//! as two split planes (`re`, `im`), each `N` rows of `w` samples, with the
//! batch axis contiguous. Every pack, butterfly, recombination and phase
//! loop then runs over a contiguous row of `w` columns and vectorises.
//!
//! Each column still goes through exactly the IEEE operations, in exactly
//! the order, that [`DctPlan::analyze`], [`DctPlan::cosine_synthesis`] and
//! [`DctPlan::sine_synthesis`] apply to one row: the same tables (taken
//! from the plan), the same even extension and bit-reversed packing, the
//! same butterflies and the same recombination formulas, operand for
//! operand. Rust never contracts `a * b + c` into a fused multiply-add, so
//! the batched results are bit-identical to the per-row plan.

use crate::{Complex, DctPlan};

/// Widest tile, in batch columns. Rows of a tile are `TILE * 8` bytes, so
/// a `128 x 32` tile's two planes (64 KiB) stay cache-resident through all
/// butterfly stages.
pub(crate) const TILE: usize = 32;

/// The tables of one [`DctPlan`], rearranged for tile-wide transforms.
#[derive(Debug, Clone)]
pub(crate) struct BatchDct {
    len: usize,
    /// Forward butterfly twiddles of the length-`N` complex FFT, stage by
    /// stage (`FftPlan::twiddles`).
    fft_tw: Vec<Complex>,
    /// Bit-reversal permutation of the length-`N` complex FFT.
    bitrev: Vec<u32>,
    /// Real-FFT recombination twiddles `e^{-i pi k / N}`, `k = 0..=N/2`.
    rfft_tw: Vec<Complex>,
    /// `e^{-i pi k / (2N)}`, `k < N`.
    phase_fwd: Vec<Complex>,
    /// `e^{+i pi k / (2N)}`, `k < N`.
    phase_inv: Vec<Complex>,
}

/// Two disjoint mutable rows `i < j` of a tile plane with `w` columns.
#[inline]
fn rows2(plane: &mut [f64], w: usize, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(i < j);
    let (lo, hi) = plane.split_at_mut(j * w);
    (&mut lo[i * w..(i + 1) * w], &mut hi[..w])
}

/// The real-FFT split of `RealFftPlan::forward` for the bin pair
/// `(k, N-k)` followed by `DctPlan::analyze`'s phase step: from the packed
/// FFT outputs `zk = z[k]`, `zn = z[N-k]` it returns `(C[k], C[N-k])`, with
/// `X[k] = e + t` and `X[N-k] = conj(e - t)`. When `k = N-k` only `C[k]`
/// is meaningful.
#[inline(always)]
fn split_forward(
    t: Complex,
    pk: Complex,
    pn: Complex,
    (zk_re, zk_im): (f64, f64),
    (zn_re, zn_im): (f64, f64),
) -> (f64, f64) {
    let e_re = 0.5 * (zk_re + zn_re);
    let e_im = 0.5 * (zk_im - zn_im);
    let o_re = 0.5 * (zk_im + zn_im);
    let o_im = 0.5 * (zn_re - zk_re);
    let t_re = t.re * o_re - t.im * o_im;
    let t_im = t.re * o_im + t.im * o_re;
    let (y_re, y_im) = (e_re + t_re, e_im + t_im);
    let (x_re, x_im) = (e_re - t_re, -(e_im - t_im));
    (
        0.5 * (y_re * pk.re - y_im * pk.im),
        0.5 * (x_re * pn.re - x_im * pn.im),
    )
}

/// `DctPlan::cosine_synthesis`'s spectrum step `Z[k] = pk * ck`,
/// `Z[N-k] = pn * cn`, then the inverse real-FFT split of
/// `RealFftPlan::inverse_unscaled` for the pair: returns the packed
/// `(z[k], z[N-k])` as `(re, im)` pairs, `z[k] = a + u` and
/// `z[N-k] = conj(a - u)`. When `k = N-k` only `z[k]` is meaningful.
#[inline(always)]
fn split_inverse(
    t: Complex,
    pk: Complex,
    pn: Complex,
    ck: f64,
    cn: f64,
) -> ((f64, f64), (f64, f64)) {
    let (w_re, w_im) = (t.re, -t.im);
    let (xk_re, xk_im) = (pk.re * ck, pk.im * ck);
    let (xn_re, xn_im) = (pn.re * cn, pn.im * cn);
    let (a_re, a_im) = (xk_re + xn_re, xk_im - xn_im);
    let (b_re, b_im) = (xk_re - xn_re, xk_im + xn_im);
    let c_re = w_re * b_re - w_im * b_im;
    let c_im = w_re * b_im + w_im * b_re;
    let (u_re, u_im) = (-c_im, c_re);
    ((a_re + u_re, a_im + u_im), (a_re - u_re, -(a_im - u_im)))
}

impl BatchDct {
    /// Copies the tables out of a plan (normally one from the plan cache).
    pub(crate) fn from_plan(plan: &DctPlan) -> Self {
        BatchDct {
            len: plan.len(),
            fft_tw: plan.rfft.half.twiddles.clone(),
            bitrev: plan.rfft.half.bitrev.clone(),
            rfft_tw: plan.rfft.twiddles.clone(),
            phase_fwd: plan.phase_fwd.clone(),
            phase_inv: plan.phase_inv.clone(),
        }
    }

    /// Loads `w` real signals into the tile for analysis: the even
    /// extension `y[m] = x[m]`, `y[2N-1-m] = x[m]` is packed as
    /// `z[j] = y[2j] + i y[2j+1]` and written straight to the bit-reversed
    /// row, which is the permutation `FftPlan::forward` applies first.
    /// `src(m, c)` is sample `m` of column `c`.
    pub(crate) fn pack_forward(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        w: usize,
        src: impl Fn(usize, usize) -> f64,
    ) {
        let n = self.len;
        let ext = |m: usize| if m < n { m } else { 2 * n - 1 - m };
        for j in 0..n {
            let row = self.bitrev[j] as usize * w;
            let (m0, m1) = (ext(2 * j), ext(2 * j + 1));
            for c in 0..w {
                re[row + c] = src(m0, c);
                im[row + c] = src(m1, c);
            }
        }
    }

    /// DCT-II of every packed column: the complex FFT, then the real-FFT
    /// split and the `e^{-i pi k / 2N}` phase, leaving
    /// `C[k] = sum_n x[n] cos(pi k (2n+1) / 2N)` in row `k` of `re`.
    pub(crate) fn analyze(&self, re: &mut [f64], im: &mut [f64], w: usize) {
        self.butterflies(re, im, w, false);
        let n = self.len;
        // k = 0: X[0] = (z0.re + z0.im, 0).
        let p = self.phase_fwd[0];
        for (r, &i) in re[..w].iter_mut().zip(&im[..w]) {
            let y_re = *r + i;
            let y_im = 0.0;
            *r = 0.5 * (y_re * p.re - y_im * p.im);
        }
        for k in 1..=n / 2 {
            let (t, pk, pn) = (self.rfft_tw[k], self.phase_fwd[k], self.phase_fwd[n - k]);
            if k == n - k {
                let (rk, ik) = (&mut re[k * w..(k + 1) * w], &im[k * w..(k + 1) * w]);
                for (r, &i) in rk.iter_mut().zip(ik) {
                    (*r, _) = split_forward(t, pk, pn, (*r, i), (*r, i));
                }
                continue;
            }
            let (rk, rn) = rows2(re, w, k, n - k);
            let (ik, in_) = rows2(im, w, k, n - k);
            for (((rk, rn), &ik), &in_) in rk.iter_mut().zip(rn.iter_mut()).zip(&*ik).zip(&*in_) {
                (*rk, *rn) = split_forward(t, pk, pn, (*rk, ik), (*rn, in_));
            }
        }
    }

    /// Loads `w` coefficient columns into row order for synthesis:
    /// `coef(k, c)` is coefficient `k` of column `c`. A sine synthesis
    /// reads its coefficients mirrored (`c'[k] = c[N-k]`, `c'[0] = 0`),
    /// the identity `DctPlan::sine_synthesis` builds its spectrum from.
    pub(crate) fn load_coeffs(
        &self,
        re: &mut [f64],
        w: usize,
        sine: bool,
        coef: impl Fn(usize, usize) -> f64,
    ) {
        let n = self.len;
        for (k, row) in re.chunks_exact_mut(w).enumerate() {
            if sine && k == 0 {
                row.fill(0.0);
                continue;
            }
            let src = if sine { n - k } else { k };
            for (c, v) in row.iter_mut().enumerate() {
                *v = coef(src, c);
            }
        }
    }

    /// Inverse transform of loaded coefficients: builds the Hermitian half
    /// spectrum `Z[k] = c[k] e^{i pi k / 2N}`, undoes the real-FFT split in
    /// place, bit-reverses and runs the inverse butterflies. Afterwards row
    /// `j < N/2` (row 0 when `N = 1`) holds `z[j]`, the samples
    /// `ext[2j] = re`, `ext[2j+1] = im` of the unscaled inverse.
    pub(crate) fn synthesize(&self, re: &mut [f64], im: &mut [f64], w: usize) {
        let n = self.len;
        // k = 0: Z[0] = (c0, 0), Z[N] = 0, packed z[0] = (x0 + xn, x0 - xn).
        for (r, i) in re[..w].iter_mut().zip(im[..w].iter_mut()) {
            let (x0, xn) = (*r, 0.0);
            *r = x0 + xn;
            *i = x0 - xn;
        }
        for k in 1..=n / 2 {
            let (t, pk, pn) = (self.rfft_tw[k], self.phase_inv[k], self.phase_inv[n - k]);
            if k == n - k {
                let (rk, ik) = (&mut re[k * w..(k + 1) * w], &mut im[k * w..(k + 1) * w]);
                for (r, i) in rk.iter_mut().zip(ik.iter_mut()) {
                    ((*r, *i), _) = split_inverse(t, pk, pn, *r, *r);
                }
                continue;
            }
            let (rk, rn) = rows2(re, w, k, n - k);
            let (ik, in_) = rows2(im, w, k, n - k);
            for (((rk, rn), ik), in_) in rk
                .iter_mut()
                .zip(rn.iter_mut())
                .zip(ik.iter_mut())
                .zip(in_.iter_mut())
            {
                ((*rk, *ik), (*rn, *in_)) = split_inverse(t, pk, pn, *rk, *rn);
            }
        }
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if i < j {
                let (a, b) = rows2(re, w, i, j);
                a.swap_with_slice(b);
                let (a, b) = rows2(im, w, i, j);
                a.swap_with_slice(b);
            }
        }
        self.butterflies(re, im, w, true);
    }

    /// Radix-2 decimation-in-time butterflies over bit-reversed rows, as
    /// `FftPlan::butterflies` runs them; `inverse` conjugates the twiddles.
    /// The inverse skips the `a - b` half of the last stage: synthesis
    /// reads only rows `j < N/2`, and no other row depends on it.
    fn butterflies(&self, re: &mut [f64], im: &mut [f64], w: usize, inverse: bool) {
        let n = self.len;
        let mut base = 0;
        let mut half = 1;
        while half < n {
            let tw = &self.fft_tw[base..base + half];
            let lower_only = inverse && 2 * half == n;
            for start in (0..n).step_by(2 * half) {
                for (k, t) in tw.iter().enumerate() {
                    let (t_re, t_im) = if inverse { (t.re, -t.im) } else { (t.re, t.im) };
                    let (i, j) = (start + k, start + k + half);
                    let (ar, br) = rows2(re, w, i, j);
                    let (ai, bi) = rows2(im, w, i, j);
                    if lower_only {
                        for (((ar, ai), &br), &bi) in
                            ar.iter_mut().zip(ai.iter_mut()).zip(&*br).zip(&*bi)
                        {
                            let b_re = br * t_re - bi * t_im;
                            let b_im = br * t_im + bi * t_re;
                            *ar += b_re;
                            *ai += b_im;
                        }
                        continue;
                    }
                    for (((ar, ai), br), bi) in ar
                        .iter_mut()
                        .zip(ai.iter_mut())
                        .zip(br.iter_mut())
                        .zip(bi.iter_mut())
                    {
                        let (a_re, a_im) = (*ar, *ai);
                        let b_re = *br * t_re - *bi * t_im;
                        let b_im = *br * t_im + *bi * t_re;
                        *ar = a_re + b_re;
                        *ai = a_im + b_im;
                        *br = a_re - b_re;
                        *bi = a_im - b_im;
                    }
                }
            }
            base += half;
            half <<= 1;
        }
    }

    /// Writes analysis results, one output row per column:
    /// `out[c * N + k] = f(k, c, C[k])`.
    pub(crate) fn store_analysis(
        &self,
        re: &[f64],
        w: usize,
        out: &mut [f64],
        f: impl Fn(usize, usize, f64) -> f64,
    ) {
        let n = self.len;
        for (c, row) in out.chunks_exact_mut(n).enumerate() {
            for (k, o) in row.iter_mut().enumerate() {
                *o = f(k, c, re[k * w + c]);
            }
        }
    }

    /// Writes cosine-synthesis results, one output row per column:
    /// `out[c * N + n] = 0.5 * (ext[n] + c0(c))`.
    pub(crate) fn store_cosine(
        &self,
        re: &[f64],
        im: &[f64],
        w: usize,
        out: &mut [f64],
        c0: impl Fn(usize) -> f64,
    ) {
        let n = self.len;
        for (c, row) in out.chunks_exact_mut(n).enumerate() {
            let c0 = c0(c);
            for (j, pair) in row.chunks_mut(2).enumerate() {
                pair[0] = 0.5 * (re[j * w + c] + c0);
                if let Some(o) = pair.get_mut(1) {
                    *o = 0.5 * (im[j * w + c] + c0);
                }
            }
        }
    }

    /// Writes sine-synthesis results, one output row per column:
    /// `out[c * N + 2j] = 0.5 ext[2j]`, `out[c * N + 2j + 1] = -0.5 ext[2j+1]`.
    pub(crate) fn store_sine(&self, re: &[f64], im: &[f64], w: usize, out: &mut [f64]) {
        let n = self.len;
        for (c, row) in out.chunks_exact_mut(n).enumerate() {
            for (j, pair) in row.chunks_mut(2).enumerate() {
                pair[0] = 0.5 * re[j * w + c];
                if let Some(o) = pair.get_mut(1) {
                    *o = -0.5 * im[j * w + c];
                }
            }
        }
    }
}
