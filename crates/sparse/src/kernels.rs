//! Inner-loop primitives for the LU hot paths, with one explicitly
//! vectorized family.
//!
//! Three loop families hold nearly all of the numeric work once the symbolic
//! machinery is amortized. Each has a portable scalar reference in
//! [`scalar`]:
//!
//! 1. the **indexed** loops over one factor row's fill pattern — the
//!    refactorization's scatter axpy (`work[cols[i]] -= mult · vals[i]`,
//!    [`scalar::axpy_indexed`]) and the single-RHS substitution fold
//!    (`acc -= vals[i] · work[cols[i]]` strictly in order,
//!    [`scalar::fold_sub_indexed`]);
//! 2. the **panel** loops of the blocked multi-RHS and pruned driving-point
//!    solves (`dst[j] -= v · src[j]` / `dst[j] = dst[j] / diag` over `k`
//!    contiguous right-hand-side lanes, [`scalar::panel_axpy`] /
//!    [`scalar::panel_div`]);
//! 3. the **lane** loops of the batched many-variant refactor/solve
//!    (`dst[w] -= a[w] · b[w]` / `dst[w] = dst[w] / den[w]` over `w`
//!    contiguous variant lanes, [`scalar::lane_mul_sub`] /
//!    [`scalar::lane_div`]).
//!
//! Only the **panel** family also has an AVX2 split-lane `(re, im)` form
//! over `core::arch::x86_64`, behind the safe per-type dispatchers
//! [`panel_axpy_c64`], [`panel_div_c64`], [`panel_axpy_f64`] and
//! [`panel_div_f64`]. It is the one family a benchmark workload pays for:
//! the all-nodes scan of a 16×16 RC grid spends nearly all of its time in
//! panel solves and ran ~1.3x slower with the panel loops scalar. The
//! indexed and lane loops measured no difference between their AVX2 and
//! scalar forms on any workload, so they run the scalar loops on every
//! backend.
//!
//! The solver records the panel backend **once per symbolic analysis** (see
//! [`selected_backend`] and [`crate::SymbolicLu::kernel_backend`]), so a
//! whole sweep runs one consistent code path.
//!
//! # The bitwise contract
//!
//! The AVX2 panel kernels perform **the same IEEE-754 multiplies,
//! additions, subtractions and divisions, in the same per-element order, as
//! the scalar reference**: no FMA contraction, no reassociation. A lane is
//! one right-hand-side column of the panel, so no lane ever combines values
//! of another. Consequently the two backends produce bit-identical results
//! on finite data, the property the `proptest_kernels` suite pins through
//! full refactor + blocked and pruned driving-point solves.
//!
//! # Backend selection
//!
//! [`selected_backend`] picks AVX2 when `is_x86_feature_detected!` reports
//! it and the portable scalar path otherwise; the `LOOPSCOPE_KERNEL`
//! environment knob ([`KERNEL_ENV`]) overrides the choice (`scalar` forces
//! the fallback everywhere, `avx2` asks for SIMD and still falls back when
//! the CPU lacks it). The knob is read when a factorization's symbolic
//! analysis is built, so with a fixed environment the selection is
//! deterministic for the whole process — and benches/tests can pin a
//! specific backend per pattern through
//! [`crate::SymbolicLu::with_kernel_backend`] without touching the
//! environment.
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (`core::arch` intrinsics over the panel slices); the rest of the crate
//! stays `deny(unsafe_code)`.

use crate::scalar::Scalar;
use loopscope_math::Complex64;
use std::fmt;

/// Environment variable naming the kernel backend (`scalar` forces the
/// portable fallback, `avx2` requests SIMD — honored only when the CPU has
/// it; anything else, or unset, auto-detects). Read when a symbolic
/// analysis is built, so every factorization over one pattern runs one
/// backend.
pub const KERNEL_ENV: &str = "LOOPSCOPE_KERNEL";

/// Which implementation of the panel primitives a factorization runs (the
/// indexed and lane loops are scalar on every backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// The portable scalar reference path — always available, and the
    /// definition of correct results for the SIMD path.
    Scalar,
    /// Split-lane `(re, im)` AVX2 over `core::arch::x86_64`; bit-identical
    /// to [`KernelBackend::Scalar`] on finite data (same ops, same order,
    /// no FMA).
    Avx2,
}

impl KernelBackend {
    /// Short lowercase name (`"scalar"` / `"avx2"`), the same tokens the
    /// [`KERNEL_ENV`] knob accepts.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// `true` for explicitly vectorized backends.
    pub fn is_simd(self) -> bool {
        matches!(self, KernelBackend::Avx2)
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `true` when the running CPU supports the AVX2 kernel path.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Pure selection rule behind [`selected_backend`], exposed so tests can pin
/// it: an explicit `scalar` always wins, an explicit `avx2` (or no request)
/// takes SIMD only when the hardware has it, and unknown values fall back to
/// auto-detection. Matching is case-insensitive and whitespace-tolerant.
pub fn backend_for(request: Option<&str>, simd_available: bool) -> KernelBackend {
    let auto = if simd_available {
        KernelBackend::Avx2
    } else {
        KernelBackend::Scalar
    };
    match request.map(str::trim) {
        Some(s) if s.eq_ignore_ascii_case("scalar") => KernelBackend::Scalar,
        Some(s) if s.eq_ignore_ascii_case("avx2") => auto,
        _ => auto,
    }
}

/// The backend new symbolic analyses record: [`KERNEL_ENV`] applied to the
/// hardware detection by [`backend_for`]. With a fixed environment the
/// result is the same for every call in a process.
pub fn selected_backend() -> KernelBackend {
    backend_for(std::env::var(KERNEL_ENV).ok().as_deref(), simd_available())
}

/// Portable scalar implementations of the kernel primitives.
///
/// The indexed and lane loops are the only implementation the solver runs.
/// The panel loops **define** the arithmetic the AVX2 panel kernels must
/// reproduce bit-for-bit; they are also the dispatch target for scalar types
/// other than `f64`/[`Complex64`] and for hardware without AVX2.
pub mod scalar {
    use super::Scalar;

    /// `work[cols[i]] -= mult * vals[i]` for every `i`. Targets must be
    /// distinct per call site invariant-wise, but duplicates are processed
    /// sequentially and stay well-defined.
    #[inline]
    pub fn axpy_indexed<T: Scalar>(mult: T, vals: &[T], cols: &[usize], work: &mut [T]) {
        for (v, &c) in vals.iter().zip(cols) {
            work[c] -= mult * *v;
        }
    }

    /// Returns `acc - Σ vals[i]·work[cols[i]]`, subtracting strictly in
    /// index order (the substitution sweeps' sequential accumulator).
    #[inline]
    pub fn fold_sub_indexed<T: Scalar>(mut acc: T, vals: &[T], cols: &[usize], work: &[T]) -> T {
        for (v, &c) in vals.iter().zip(cols) {
            acc -= *v * work[c];
        }
        acc
    }

    /// `dst[j] -= v * src[j]` over the common length — the k-lane panel
    /// update (lane = right-hand-side column).
    #[inline]
    pub fn panel_axpy<T: Scalar>(v: T, src: &[T], dst: &mut [T]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d -= v * *s;
        }
    }

    /// `dst[j] = dst[j] / diag` for every lane.
    #[inline]
    pub fn panel_div<T: Scalar>(diag: T, dst: &mut [T]) {
        for d in dst {
            *d = *d / diag;
        }
    }

    /// `dst[w] -= a[w] * b[w]` elementwise over the common length — the
    /// w-lane batched-variant update (lane = independent variant, each with
    /// its own multiplier `a[w]` and factor value `b[w]`).
    #[inline]
    pub fn lane_mul_sub<T: Scalar>(a: &[T], b: &[T], dst: &mut [T]) {
        for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
            *d -= *x * *y;
        }
    }

    /// `dst[w] = dst[w] / den[w]` elementwise — the batched
    /// back-substitution divide, one independent diagonal per variant lane.
    #[inline]
    pub fn lane_div<T: Scalar>(den: &[T], dst: &mut [T]) {
        for (d, e) in dst.iter_mut().zip(den) {
            *d = *d / *e;
        }
    }
}

/// AVX2 split-lane implementations of the panel primitives. Every function
/// performs exactly the scalar reference arithmetic per element: products
/// via `vmulpd`, the complex cross terms combined with `vaddsubpd` (never
/// FMA). Functions are `unsafe` with a single obligation — AVX2 must be
/// available on the running CPU — which the dispatchers discharge by
/// construction ([`KernelBackend::Avx2`] is only selected after runtime
/// detection, and the dispatchers re-check it).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use core::arch::x86_64::{
        __m256d, _mm256_addsub_pd, _mm256_div_pd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_permute_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd,
    };
    use loopscope_math::Complex64;

    /// `mult * v` for two complex lanes at once, with exactly the scalar
    /// operation order: `re = m.re·v.re − m.im·v.im`,
    /// `im = m.re·v.im + m.im·v.re` (multiplies then one `vaddsubpd`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_broadcast_c64(mre: __m256d, mim: __m256d, v: __m256d) -> __m256d {
        let t1 = _mm256_mul_pd(mre, v);
        let t2 = _mm256_mul_pd(mim, _mm256_permute_pd::<0b0101>(v));
        _mm256_addsub_pd(t1, t2)
    }

    /// See [`super::scalar::panel_axpy`] — the fully contiguous case: two
    /// complex lanes (= two right-hand-side columns) per vector op.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn panel_axpy_c64(v: Complex64, src: &[Complex64], dst: &mut [Complex64]) {
        let n = dst.len().min(src.len());
        let vre = _mm256_set1_pd(v.re);
        let vim = _mm256_set1_pd(v.im);
        let mut j = 0;
        while j + 2 <= n {
            let s = _mm256_loadu_pd(src[j..j + 2].as_ptr().cast::<f64>());
            let prod = mul_broadcast_c64(vre, vim, s);
            let dp = dst[j..j + 2].as_mut_ptr().cast::<f64>();
            let d = _mm256_loadu_pd(dp);
            _mm256_storeu_pd(dp, _mm256_sub_pd(d, prod));
            j += 2;
        }
        if j < n {
            dst[j] -= v * src[j];
        }
    }

    /// See [`super::scalar::panel_div`]: the denominator `|diag|²` is
    /// computed once in scalar (same expression as `Complex64::norm_sqr`),
    /// the per-lane numerators with multiplies and one sign-flipped
    /// `vaddsubpd` (`x − (−y)` is IEEE-identical to `x + y`), then one
    /// `vdivpd`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn panel_div_c64(diag: Complex64, dst: &mut [Complex64]) {
        let n = dst.len();
        let den = _mm256_set1_pd(diag.norm_sqr());
        let dre = _mm256_set1_pd(diag.re);
        let dim = _mm256_set1_pd(diag.im);
        let sign = _mm256_set1_pd(-0.0);
        let mut j = 0;
        while j + 2 <= n {
            let dp = dst[j..j + 2].as_mut_ptr().cast::<f64>();
            let a = _mm256_loadu_pd(dp);
            // num = [a.re·d.re + a.im·d.im, a.im·d.re − a.re·d.im]:
            // addsub with the second operand negated turns its even-lane
            // subtract into the required add and vice versa.
            let t1 = _mm256_mul_pd(a, dre);
            let t2 = _mm256_mul_pd(_mm256_permute_pd::<0b0101>(a), dim);
            let num = _mm256_addsub_pd(t1, _mm256_xor_pd(t2, sign));
            _mm256_storeu_pd(dp, _mm256_div_pd(num, den));
            j += 2;
        }
        if j < n {
            dst[j] /= diag;
        }
    }

    /// Real-lane form of [`panel_axpy_c64`]: four lanes per vector op.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn panel_axpy_f64(v: f64, src: &[f64], dst: &mut [f64]) {
        let n = dst.len().min(src.len());
        let vv = _mm256_set1_pd(v);
        let mut j = 0;
        while j + 4 <= n {
            let prod = _mm256_mul_pd(vv, _mm256_loadu_pd(src[j..].as_ptr()));
            let dp = dst[j..].as_mut_ptr();
            _mm256_storeu_pd(dp, _mm256_sub_pd(_mm256_loadu_pd(dp), prod));
            j += 4;
        }
        while j < n {
            dst[j] -= v * src[j];
            j += 1;
        }
    }

    /// Real-lane form of [`panel_div_c64`]: one `vdivpd` per four lanes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn panel_div_f64(diag: f64, dst: &mut [f64]) {
        let n = dst.len();
        let dv = _mm256_set1_pd(diag);
        let mut j = 0;
        while j + 4 <= n {
            let dp = dst[j..].as_mut_ptr();
            _mm256_storeu_pd(dp, _mm256_div_pd(_mm256_loadu_pd(dp), dv));
            j += 4;
        }
        while j < n {
            dst[j] /= diag;
            j += 1;
        }
    }
}

/// Expands to the safe per-type panel dispatchers: the scalar arm inlines
/// the reference loop, the AVX2 arm calls into the `target_feature`
/// function. Slices shorter than one vector width take the scalar loop on
/// every backend (identical results by the bitwise contract, no call
/// overhead). The AVX2 arm re-checks [`simd_available`] (a cached feature
/// probe) before entering the `unsafe` call: `Avx2` is a freely
/// constructible public value, so soundness must hold even for a caller
/// that never went through [`selected_backend`] — on hardware without AVX2
/// (and on non-x86_64 builds) the arm degrades to the scalar reference.
macro_rules! panel_dispatchers {
    ($ty:ty, $lanes:expr, $axpy:ident, $div:ident) => {
        /// `dst[j] -= v * src[j]` over the common length on the chosen
        /// backend (see [`scalar::panel_axpy`]).
        #[inline]
        pub fn $axpy(backend: KernelBackend, v: $ty, src: &[$ty], dst: &mut [$ty]) {
            if backend.is_simd() && dst.len() >= $lanes {
                #[cfg(target_arch = "x86_64")]
                if simd_available() {
                    // SAFETY: AVX2 presence was just verified.
                    #[allow(unsafe_code)]
                    unsafe {
                        return avx2::$axpy(v, src, dst);
                    }
                }
            }
            scalar::panel_axpy(v, src, dst)
        }

        /// `dst[j] = dst[j] / diag` for every lane on the chosen backend
        /// (see [`scalar::panel_div`]).
        #[inline]
        pub fn $div(backend: KernelBackend, diag: $ty, dst: &mut [$ty]) {
            if backend.is_simd() && dst.len() >= $lanes {
                #[cfg(target_arch = "x86_64")]
                if simd_available() {
                    // SAFETY: AVX2 presence was just verified.
                    #[allow(unsafe_code)]
                    unsafe {
                        return avx2::$div(diag, dst);
                    }
                }
            }
            scalar::panel_div(diag, dst)
        }
    };
}

panel_dispatchers!(Complex64, 2, panel_axpy_c64, panel_div_c64);
panel_dispatchers!(f64, 4, panel_axpy_f64, panel_div_f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_rule_honors_explicit_scalar() {
        assert_eq!(backend_for(Some("scalar"), true), KernelBackend::Scalar);
        assert_eq!(backend_for(Some(" SCALAR "), true), KernelBackend::Scalar);
        assert_eq!(backend_for(Some("scalar"), false), KernelBackend::Scalar);
    }

    #[test]
    fn backend_rule_auto_detects() {
        assert_eq!(backend_for(None, true), KernelBackend::Avx2);
        assert_eq!(backend_for(None, false), KernelBackend::Scalar);
        assert_eq!(backend_for(Some("avx2"), true), KernelBackend::Avx2);
        // An AVX2 request on hardware without it degrades, never crashes.
        assert_eq!(backend_for(Some("avx2"), false), KernelBackend::Scalar);
        // Unknown values fall back to auto-detection.
        assert_eq!(backend_for(Some("banana"), true), KernelBackend::Avx2);
    }

    #[test]
    fn selection_is_deterministic_per_process() {
        let first = selected_backend();
        for _ in 0..100 {
            assert_eq!(selected_backend(), first);
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [KernelBackend::Scalar, KernelBackend::Avx2] {
            assert_eq!(backend_for(Some(b.name()), true).name(), {
                if b.is_simd() {
                    "avx2"
                } else {
                    "scalar"
                }
            });
            assert_eq!(b.to_string(), b.name());
        }
    }

    #[test]
    fn scalar_reference_semantics() {
        let vals = [2.0f64, -3.0, 0.5];
        let cols = [2usize, 0, 1];
        let mut work = [10.0f64, 20.0, 30.0];
        scalar::axpy_indexed(2.0, &vals, &cols, &mut work);
        assert_eq!(work, [16.0, 19.0, 26.0]);
        let acc = scalar::fold_sub_indexed(1.0, &vals, &cols, &work);
        assert_eq!(acc, 1.0 - 2.0 * 26.0 + 3.0 * 16.0 - 0.5 * 19.0);
        let mut dst = [8.0f64, 6.0];
        scalar::panel_axpy(0.5, &[2.0, 4.0], &mut dst);
        assert_eq!(dst, [7.0, 4.0]);
        scalar::panel_div(2.0, &mut dst);
        assert_eq!(dst, [3.5, 2.0]);
    }

    #[test]
    fn lane_scalar_reference_semantics() {
        let a = [2.0f64, -3.0, 0.5, 4.0];
        let b = [1.5f64, 2.0, -8.0, 0.25];
        let mut dst = [10.0f64, 10.0, 10.0, 10.0];
        scalar::lane_mul_sub(&a, &b, &mut dst);
        assert_eq!(dst, [7.0, 16.0, 14.0, 9.0]);
        scalar::lane_div(&[2.0, 4.0, -7.0, 3.0], &mut dst);
        assert_eq!(dst, [3.5, 4.0, -2.0, 3.0]);
    }
}
