//! Runtime AVX2+FMA dispatch of lane-parallel kernel bodies.
//!
//! A body written once is compiled twice: for the portable target the
//! workspace builds for, and for AVX2 with FMA. [`avx2`] is the one
//! runtime check that picks between them; a CPU without AVX2 and FMA runs
//! the portable build, so no flag or environment variable selects
//! anything.
//!
//! # Why both builds give the same bits
//!
//! AVX2 only widens the vectors the compiler may use, and enabling FMA
//! only changes what an explicit `mul_add` compiles to (one instruction
//! instead of a libm call, both exactly rounded). Rust never contracts
//! `a * b + c` into a fused multiply-add and never reassociates a
//! floating-point reduction, so a vectorised loop computes each lane with
//! the scalar operations, in the scalar order, and a sum stays a serial
//! sum. Both builds therefore produce bit-identical results; the tests of
//! every dispatched body check it on this machine.

/// Whether this CPU can run the AVX2+FMA builds of
/// [`crate::avx2_dispatch!`] bodies (always `false` off x86-64): it has
/// AVX2 and FMA, the condition under which glibc's `exp` runs its FMA
/// variant. The standard library caches the detection, so the check is a
/// load.
#[inline]
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// [`avx2`] for a test comparing the two builds of a body: when the CPU
/// lacks AVX2 or FMA it notes on standard error that `test` compared
/// nothing.
pub fn avx2_or_note(test: &str) -> bool {
    let yes = avx2();
    if !yes {
        eprintln!("note: {test}: no AVX2+FMA on this CPU; the AVX2 build was not compared");
    }
    yes
}

/// Compiles a lane-parallel function body for the portable target and for
/// AVX2+FMA, and dispatches on [`simd::avx2`](crate::simd::avx2).
///
/// `fn name(args) -> R { body }` becomes a module `name` holding
///
/// * `portable(args)` — the body, `#[inline(always)]`, so it is compiled
///   with the features of whatever calls it;
/// * `avx2(args)` — the body compiled with AVX2 and FMA enabled (x86-64
///   only; `unsafe` to call where they are not known to be present);
/// * `run(args)` — `avx2` when the CPU has AVX2 and FMA, else `portable`.
///
/// `fn name<const FMA: bool>(args)` (any name for the parameter) gives the
/// body a constant that is `true` in the AVX2+FMA build only, for code that
/// is fast only where `mul_add` is one instruction.
///
/// The module sees its parent's items (`use super::*`). Arguments are
/// plain `name: Type` pairs; `impl Trait` types work, other generics and
/// `self` do not. Helpers the body calls should be `#[inline(always)]` so
/// they are compiled into each build rather than called in their portable
/// form, and should not be closures: a closure is compiled without the
/// build's features.
#[macro_export]
macro_rules! avx2_dispatch {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $crate::avx2_dispatch! {
            $(#[$meta])*
            $vis fn $name<const _FMA: bool>($($arg: $ty),*) $(-> $ret)? $body
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident<const $fma:ident: bool>($($arg:ident: $ty:ty),* $(,)?)
            $(-> $ret:ty)? $body:block
    ) => {
        $(#[$meta])*
        #[allow(clippy::too_many_arguments)]
        $vis mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn body<const $fma: bool>($($arg: $ty),*) $(-> $ret)? $body

            /// The body, compiled for the caller's target features.
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            pub fn portable($($arg: $ty),*) $(-> $ret)? {
                body::<false>($($arg),*)
            }

            /// The body compiled with AVX2 and FMA enabled.
            ///
            /// # Safety
            ///
            /// The CPU must support AVX2 and FMA
            /// ([`avx2`](crate::simd::avx2)).
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            pub unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                body::<true>($($arg),*)
            }

            /// Runs the AVX2+FMA build on a CPU with both, else the
            /// portable one.
            #[inline]
            #[allow(clippy::too_many_arguments)]
            pub fn run($($arg: $ty),*) $(-> $ret)? {
                #[cfg(target_arch = "x86_64")]
                if $crate::simd::avx2() {
                    // SAFETY: the CPU was just checked to support AVX2 and FMA.
                    return unsafe { avx2($($arg),*) };
                }
                portable($($arg),*)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::avx2_dispatch! {
        /// A lane-parallel body: independent lanes plus a serial sum.
        fn scaled_sum(a: &[f64], b: &mut [f64], k: f64) -> f64 {
            let mut sum = 0.0;
            for (b, &a) in b.iter_mut().zip(a) {
                *b = *b * k + a;
                sum += *b;
            }
            sum
        }
    }

    crate::avx2_dispatch! {
        /// Which build runs.
        fn fma_build<const FMA: bool>() -> bool {
            FMA
        }
    }

    #[test]
    fn both_builds_agree_bitwise_and_run_dispatches() {
        let a: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin()).collect();
        let fresh = || -> Vec<f64> { (0..1000).map(|i| (i as f64 * 0.11).cos()).collect() };
        let mut want = fresh();
        let s0 = scaled_sum::portable(&a, &mut want, 1.0 / 3.0);
        let mut got = fresh();
        let s1 = scaled_sum::run(&a, &mut got, 1.0 / 3.0);
        assert_eq!(s0.to_bits(), s1.to_bits());
        assert!(want
            .iter()
            .zip(&got)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        #[cfg(target_arch = "x86_64")]
        if super::avx2_or_note("both_builds_agree_bitwise_and_run_dispatches") {
            let mut got = fresh();
            // SAFETY: the CPU supports AVX2.
            let s2 = unsafe { scaled_sum::avx2(&a, &mut got, 1.0 / 3.0) };
            assert_eq!(s0.to_bits(), s2.to_bits());
            assert!(want
                .iter()
                .zip(&got)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn only_the_avx2_build_sees_fma() {
        assert!(!fma_build::portable());
        #[cfg(target_arch = "x86_64")]
        if super::avx2_or_note("only_the_avx2_build_sees_fma") {
            // SAFETY: the CPU supports AVX2 and FMA.
            assert!(unsafe { fma_build::avx2() });
            assert!(fma_build::run());
        }
    }
}
