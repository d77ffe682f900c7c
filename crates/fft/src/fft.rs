use crate::{Complex, FftError};

/// A radix-2 decimation-in-time FFT plan with precomputed twiddle factors
/// and bit-reversal permutation for a fixed power-of-two length.
///
/// Creating a plan is `O(n)`; every transform is `O(n log n)` with no
/// allocation. The same plan serves both forward and inverse transforms.
///
/// ```
/// use xplace_fft::{Complex, FftPlan};
///
/// # fn main() -> Result<(), xplace_fft::FftError> {
/// let plan = FftPlan::new(8)?;
/// let mut data: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
/// let original = data.clone();
/// plan.forward(&mut data)?;
/// plan.inverse(&mut data)?;
/// for (a, b) in data.iter().zip(&original) {
///     assert!((a.re - b.re).abs() < 1e-12 && a.im.abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    len: usize,
    /// Twiddles for the forward transform, laid out stage by stage.
    pub(crate) twiddles: Vec<Complex>,
    /// Bit-reversal permutation indices.
    pub(crate) bitrev: Vec<u32>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::EmptyLength`] for `len == 0` and
    /// [`FftError::NotPowerOfTwo`] when `len` is not a power of two.
    pub fn new(len: usize) -> Result<Self, FftError> {
        if len == 0 {
            return Err(FftError::EmptyLength);
        }
        if !crate::is_power_of_two(len) {
            return Err(FftError::NotPowerOfTwo(len));
        }
        let stages = len.trailing_zeros() as usize;
        // Twiddles: for each stage s (half-size m = 2^s), the m roots
        // e^{-i pi k / m}, k = 0..m. Total = len - 1 entries.
        let mut twiddles = Vec::with_capacity(len.saturating_sub(1));
        for s in 0..stages {
            let half = 1usize << s;
            for k in 0..half {
                let theta = -std::f64::consts::PI * k as f64 / half as f64;
                twiddles.push(Complex::from_angle(theta));
            }
        }
        let mut bitrev = vec![0u32; len];
        for (i, slot) in bitrev.iter_mut().enumerate() {
            let rev = (i as u32).reverse_bits() >> (32 - stages.max(1) as u32);
            *slot = if stages == 0 { 0 } else { rev };
        }
        Ok(FftPlan {
            len,
            twiddles,
            bitrev,
        })
    }

    /// The transform length this plan was created for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check(&self, data: &[Complex]) -> Result<(), FftError> {
        if data.len() != self.len {
            return Err(FftError::LengthMismatch {
                expected: self.len,
                actual: data.len(),
            });
        }
        Ok(())
    }

    /// In-place forward transform: `X[k] = sum_n x[n] e^{-2 pi i n k / N}`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len()` differs from the
    /// plan length.
    pub fn forward(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.check(data)?;
        self.permute(data);
        self.butterflies(data, false);
        Ok(())
    }

    /// In-place inverse transform, including the `1/N` normalization:
    /// `x[n] = (1/N) sum_k X[k] e^{+2 pi i n k / N}`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len()` differs from the
    /// plan length.
    pub fn inverse(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.check(data)?;
        self.permute(data);
        self.butterflies(data, true);
        let scale = 1.0 / self.len as f64;
        for c in data.iter_mut() {
            *c = c.scale(scale);
        }
        Ok(())
    }

    /// In-place inverse transform without the `1/N` normalization.
    ///
    /// Useful when the normalization is folded into a caller-side scale
    /// factor (as the DCT synthesis transforms do).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len()` differs from the
    /// plan length.
    pub fn inverse_unscaled(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.check(data)?;
        self.permute(data);
        self.butterflies(data, true);
        Ok(())
    }

    #[inline]
    fn permute(&self, data: &mut [Complex]) {
        for i in 0..self.len {
            let j = self.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    fn butterflies(&self, data: &mut [Complex], inverse: bool) {
        let stages = self.len.trailing_zeros() as usize;
        let mut tw_base = 0usize;
        for s in 0..stages {
            let half = 1usize << s;
            let step = half << 1;
            let tw = &self.twiddles[tw_base..tw_base + half];
            let mut start = 0;
            while start < self.len {
                for k in 0..half {
                    let w = if inverse { tw[k].conj() } else { tw[k] };
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
                start += step;
            }
            tw_base += half;
        }
    }
}

/// A packed real-input FFT plan: a length-`N` complex plan computing a
/// length-`2N` real transform via the standard split/recombine identities.
///
/// The forward transform packs the even/odd samples of a real signal
/// `x[0..2N]` into one complex signal `z[j] = x[2j] + i x[2j+1]`, runs the
/// half-length complex FFT, and recombines the spectrum — half the
/// butterflies and half the memory traffic of transforming the real signal
/// through a length-`2N` complex plan. Because the spectrum of a real
/// signal is Hermitian (`X[2N-k] = conj(X[k])`), only the non-redundant
/// half `X[0..=N]` is stored.
///
/// The inverse accepts such a half spectrum and reconstructs the real
/// signal scaled by `2N` (matching [`FftPlan::inverse_unscaled`], so
/// callers fold the normalization into their own coefficient scaling).
///
/// Every spectrum slot is written exactly once by a fixed recombination
/// schedule, so results are bitwise deterministic — there is no
/// "second write" of the conjugate-symmetric pair that could reorder
/// floating-point operations.
///
/// ```
/// use xplace_fft::RealFftPlan;
///
/// # fn main() -> Result<(), xplace_fft::FftError> {
/// let mut plan = RealFftPlan::new(8)?;
/// let x: Vec<f64> = (0..8).map(|i| (i as f64 * 0.4).sin()).collect();
/// let mut spectrum = vec![xplace_fft::Complex::ZERO; 5]; // N/2 + 1 slots
/// plan.forward(&x, &mut spectrum)?;
/// let mut back = vec![0.0; 8];
/// plan.inverse_unscaled(&spectrum, &mut back)?;
/// for (a, b) in back.iter().zip(&x) {
///     assert!((a / 8.0 - b).abs() < 1e-12); // inverse is scaled by 2N = 8
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    /// Real signal length `2N`.
    real_len: usize,
    /// The length-`N` complex plan doing the actual butterflies.
    pub(crate) half: FftPlan,
    /// `e^{-i pi k / N}` for `k = 0..=N/2` (the recombination twiddles).
    pub(crate) twiddles: Vec<Complex>,
    /// Packed complex work buffer of length `N`.
    packed: Vec<Complex>,
}

impl RealFftPlan {
    /// Creates a plan for real transforms of length `real_len`
    /// (a power of two, at least 2).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::EmptyLength`] for `real_len < 2` and
    /// [`FftError::NotPowerOfTwo`] when `real_len` is not a power of two.
    pub fn new(real_len: usize) -> Result<Self, FftError> {
        if real_len < 2 {
            return Err(FftError::EmptyLength);
        }
        if !crate::is_power_of_two(real_len) {
            return Err(FftError::NotPowerOfTwo(real_len));
        }
        let n = real_len / 2;
        let half = FftPlan::new(n)?;
        let twiddles = (0..=n / 2)
            .map(|k| Complex::from_angle(-std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        Ok(RealFftPlan {
            real_len,
            half,
            twiddles,
            packed: vec![Complex::ZERO; n],
        })
    }

    /// The real signal length `2N` this plan transforms.
    pub fn len(&self) -> usize {
        self.real_len
    }

    /// `true` when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.real_len == 0
    }

    /// Number of half-spectrum slots: `N + 1` where `N = real_len / 2`.
    pub fn spectrum_len(&self) -> usize {
        self.real_len / 2 + 1
    }

    fn check(&self, real: usize, spectrum: usize) -> Result<(), FftError> {
        if real != self.real_len {
            return Err(FftError::LengthMismatch {
                expected: self.real_len,
                actual: real,
            });
        }
        if spectrum != self.spectrum_len() {
            return Err(FftError::LengthMismatch {
                expected: self.spectrum_len(),
                actual: spectrum,
            });
        }
        Ok(())
    }

    /// Forward real transform: fills `spectrum[k] = sum_n input[n]
    /// e^{-2 pi i n k / 2N}` for `k = 0..=N`.
    ///
    /// The remaining half of the full spectrum is implied by Hermitian
    /// symmetry and never materialized.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] unless `input.len()` is the
    /// plan length and `spectrum.len()` is [`RealFftPlan::spectrum_len`].
    pub fn forward(&mut self, input: &[f64], spectrum: &mut [Complex]) -> Result<(), FftError> {
        self.check(input.len(), spectrum.len())?;
        let n = self.real_len / 2;
        for (z, pair) in self.packed.iter_mut().zip(input.chunks_exact(2)) {
            *z = Complex::new(pair[0], pair[1]);
        }
        self.half.forward(&mut self.packed)?;
        // Split Z into the spectra of the even samples (E) and odd samples
        // (O), then recombine: X[k] = E[k] + w^k O[k] with w = e^{-i pi/N}.
        let z0 = self.packed[0];
        spectrum[0] = Complex::new(z0.re + z0.im, 0.0);
        spectrum[n] = Complex::new(z0.re - z0.im, 0.0);
        for k in 1..=n / 2 {
            let zk = self.packed[k];
            let zn = self.packed[n - k];
            let e = Complex::new(0.5 * (zk.re + zn.re), 0.5 * (zk.im - zn.im));
            let o = Complex::new(0.5 * (zk.im + zn.im), 0.5 * (zn.re - zk.re));
            let t = self.twiddles[k] * o;
            spectrum[k] = e + t;
            if k != n - k {
                spectrum[n - k] = (e - t).conj();
            }
        }
        Ok(())
    }

    /// Inverse real transform of a Hermitian half spectrum, scaled by the
    /// real length `2N` (the counterpart of [`FftPlan::inverse_unscaled`]).
    ///
    /// Only `spectrum[k].re` is read for `k = 0` and `k = N` (those bins
    /// are real for any real signal).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] unless `output.len()` is the
    /// plan length and `spectrum.len()` is [`RealFftPlan::spectrum_len`].
    pub fn inverse_unscaled(
        &mut self,
        spectrum: &[Complex],
        output: &mut [f64],
    ) -> Result<(), FftError> {
        self.check(output.len(), spectrum.len())?;
        let n = self.real_len / 2;
        // Undo the forward recombination (without the 1/2 factors, which
        // supplies the extra factor of 2 over the length-N unscaled
        // inverse): Z[k] = A[k] + i t^k B[k] with t = e^{+i pi/N},
        // A[k] = X[k] + conj(X[N-k]), B[k] = X[k] - conj(X[N-k]).
        let (x0, xn) = (spectrum[0].re, spectrum[n].re);
        self.packed[0] = Complex::new(x0 + xn, x0 - xn);
        for k in 1..=n / 2 {
            let xk = spectrum[k];
            let xn = spectrum[n - k];
            let a = Complex::new(xk.re + xn.re, xk.im - xn.im);
            let b = Complex::new(xk.re - xn.re, xk.im + xn.im);
            let c = self.twiddles[k].conj() * b;
            let u = Complex::new(-c.im, c.re);
            self.packed[k] = a + u;
            if k != n - k {
                self.packed[n - k] = (a - u).conj();
            }
        }
        self.half.inverse_unscaled(&mut self.packed)?;
        for (pair, z) in output.chunks_exact_mut(2).zip(&self.packed) {
            pair[0] = z.re;
            pair[1] = z.im;
        }
        Ok(())
    }
}

/// Reference `O(n^2)` DFT, used for validating the fast path in tests.
#[cfg(test)]
pub(crate) fn naive_dft(input: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = vec![Complex::ZERO; n];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (i, &x) in input.iter().enumerate() {
            let theta = sign * std::f64::consts::TAU * (k * i) as f64 / n as f64;
            acc += x * Complex::from_angle(theta);
        }
        if inverse {
            acc = acc / n as f64;
        }
        *slot = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    #[test]
    fn rejects_invalid_lengths() {
        assert_eq!(FftPlan::new(0).unwrap_err(), FftError::EmptyLength);
        assert_eq!(FftPlan::new(12).unwrap_err(), FftError::NotPowerOfTwo(12));
        assert!(FftPlan::new(1).is_ok());
    }

    #[test]
    fn rejects_mismatched_buffer() {
        let plan = FftPlan::new(8).unwrap();
        let mut data = vec![Complex::ZERO; 4];
        assert!(matches!(
            plan.forward(&mut data),
            Err(FftError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        ));
    }

    #[test]
    fn length_one_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut data = vec![Complex::new(3.5, -1.25)];
        plan.forward(&mut data).unwrap();
        assert_eq!(data[0], Complex::new(3.5, -1.25));
        plan.inverse(&mut data).unwrap();
        assert_eq!(data[0], Complex::new(3.5, -1.25));
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[2usize, 4, 8, 16, 64, 128] {
            let plan = FftPlan::new(n).unwrap();
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let expected = naive_dft(&input, false);
            let mut data = input.clone();
            plan.forward(&mut data).unwrap();
            for (a, b) in data.iter().zip(&expected) {
                assert!(close(*a, *b, 1e-9), "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn inverse_matches_naive_inverse() {
        let n = 32;
        let plan = FftPlan::new(n).unwrap();
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let expected = naive_dft(&input, true);
        let mut data = input.clone();
        plan.inverse(&mut data).unwrap();
        for (a, b) in data.iter().zip(&expected) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    fn round_trip_recovers_input() {
        let n = 256;
        let plan = FftPlan::new(n).unwrap();
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin() * 10.0, (i as f64 * 0.1).cos()))
            .collect();
        let mut data = input.clone();
        plan.forward(&mut data).unwrap();
        plan.inverse(&mut data).unwrap();
        for (a, b) in data.iter().zip(&input) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    fn impulse_transforms_to_constant_spectrum() {
        let n = 16;
        let plan = FftPlan::new(n).unwrap();
        let mut data = vec![Complex::ZERO; n];
        data[0] = Complex::ONE;
        plan.forward(&mut data).unwrap();
        for c in &data {
            assert!(close(*c, Complex::ONE, 1e-12));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let plan = FftPlan::new(n).unwrap();
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0))
            .collect();
        let time_energy: f64 = input.iter().map(|c| c.norm_sqr()).sum();
        let mut data = input;
        plan.forward(&mut data).unwrap();
        let freq_energy: f64 = data.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let plan = FftPlan::new(n).unwrap();
        let xs: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let ys: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let mut sum: Vec<Complex> = xs.iter().zip(&ys).map(|(a, b)| *a + *b).collect();
        let mut fx = xs.clone();
        let mut fy = ys.clone();
        plan.forward(&mut sum).unwrap();
        plan.forward(&mut fx).unwrap();
        plan.forward(&mut fy).unwrap();
        for i in 0..n {
            assert!(close(sum[i], fx[i] + fy[i], 1e-9));
        }
    }

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.7).sin() + 0.25 * (i as f64 * 1.9).cos())
            .collect()
    }

    #[test]
    fn real_plan_rejects_invalid_lengths() {
        assert_eq!(RealFftPlan::new(0).unwrap_err(), FftError::EmptyLength);
        assert_eq!(RealFftPlan::new(1).unwrap_err(), FftError::EmptyLength);
        assert_eq!(
            RealFftPlan::new(12).unwrap_err(),
            FftError::NotPowerOfTwo(12)
        );
        assert_eq!(RealFftPlan::new(2).unwrap().spectrum_len(), 2);
    }

    #[test]
    fn real_plan_rejects_mismatched_buffers() {
        let mut plan = RealFftPlan::new(8).unwrap();
        let x = vec![0.0; 8];
        let mut spec = vec![Complex::ZERO; 4]; // needs 5
        assert!(matches!(
            plan.forward(&x, &mut spec),
            Err(FftError::LengthMismatch {
                expected: 5,
                actual: 4
            })
        ));
        let mut spec = vec![Complex::ZERO; 5];
        let mut short = vec![0.0; 6];
        assert!(plan.forward(&short, &mut spec).is_err());
        assert!(plan.inverse_unscaled(&spec, &mut short).is_err());
    }

    #[test]
    fn real_forward_matches_naive_dft() {
        for &len in &[2usize, 4, 8, 16, 64, 256] {
            let mut plan = RealFftPlan::new(len).unwrap();
            let x = real_signal(len);
            let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
            plan.forward(&x, &mut spec).unwrap();
            let full: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let expected = naive_dft(&full, false);
            for (k, s) in spec.iter().enumerate() {
                assert!(close(*s, expected[k], 1e-9), "len={len} k={k}: {s}");
            }
            // Edge bins of a real signal are purely real.
            assert_eq!(spec[0].im, 0.0);
            assert_eq!(spec[len / 2].im, 0.0);
        }
    }

    #[test]
    fn real_round_trip_is_scaled_by_len() {
        for &len in &[2usize, 4, 32, 128] {
            let mut plan = RealFftPlan::new(len).unwrap();
            let x = real_signal(len);
            let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
            let mut back = vec![0.0; len];
            plan.forward(&x, &mut spec).unwrap();
            plan.inverse_unscaled(&spec, &mut back).unwrap();
            for (a, b) in back.iter().zip(&x) {
                assert!((a / len as f64 - b).abs() < 1e-10, "len={len}");
            }
        }
    }

    #[test]
    fn real_inverse_matches_complex_inverse_on_hermitian_spectrum() {
        // Feed the same Hermitian spectrum to both inverse paths; the real
        // path must agree with the full complex `inverse_unscaled`.
        let len = 32;
        let n = len / 2;
        let mut rplan = RealFftPlan::new(len).unwrap();
        let cplan = FftPlan::new(len).unwrap();
        let mut half = vec![Complex::ZERO; n + 1];
        half[0] = Complex::new(1.5, 0.0);
        half[n] = Complex::new(-0.75, 0.0);
        for (k, slot) in half.iter_mut().enumerate().take(n).skip(1) {
            *slot = Complex::new((k as f64 * 0.3).sin(), (k as f64 * 0.9).cos());
        }
        let mut full = vec![Complex::ZERO; len];
        full[..=n].copy_from_slice(&half);
        for k in 1..n {
            full[len - k] = half[k].conj();
        }
        let mut real_out = vec![0.0; len];
        rplan.inverse_unscaled(&half, &mut real_out).unwrap();
        cplan.inverse_unscaled(&mut full).unwrap();
        for (r, c) in real_out.iter().zip(&full) {
            assert!((r - c.re).abs() < 1e-9 && c.im.abs() < 1e-9);
        }
    }

    #[test]
    fn real_plan_length_two_is_exact() {
        let mut plan = RealFftPlan::new(2).unwrap();
        let x = [3.0, -1.0];
        let mut spec = vec![Complex::ZERO; 2];
        plan.forward(&x, &mut spec).unwrap();
        assert_eq!(spec[0], Complex::new(2.0, 0.0));
        assert_eq!(spec[1], Complex::new(4.0, 0.0));
        let mut back = [0.0; 2];
        plan.inverse_unscaled(&spec, &mut back).unwrap();
        assert_eq!(back, [6.0, -2.0]); // 2N * x
    }

    #[test]
    fn inverse_unscaled_differs_by_n() {
        let n = 8;
        let plan = FftPlan::new(n).unwrap();
        let input: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64 + 1.0, 0.0)).collect();
        let mut a = input.clone();
        let mut b = input;
        plan.inverse(&mut a).unwrap();
        plan.inverse_unscaled(&mut b).unwrap();
        for i in 0..n {
            assert!(close(b[i], a[i].scale(n as f64), 1e-9));
        }
    }
}
