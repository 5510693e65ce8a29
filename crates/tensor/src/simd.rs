//! Vendored portable-SIMD shim: `f64xN` lane types over `std::arch`.
//!
//! This module is the dispatch substrate for the lane kernels behind
//! [`Fft2`](crate::Fft2) and the detector readout in lr-core.
//! It deliberately mirrors the shape of `std::simd` (which is still
//! nightly-only) with exactly the operations the FFT kernels need, over
//! three backends:
//!
//! | lane type | x86-64            | aarch64                | other        |
//! |-----------|-------------------|------------------------|--------------|
//! | [`F64x1`] | one `f64`         | one `f64`              | one `f64`    |
//! | [`F64x2`] | SSE2 (`__m128d`)  | NEON (`float64x2_t`)   | `[f64; 2]`   |
//! | [`F64x4`] | AVX2 (`__m256d`)  | 2 × NEON               | `[f64; 4]`   |
//!
//! [`F64x1`] is the one-lane instance every kernel is generic over: the
//! scalar path *is* the lane kernel at `L = 1`. SSE2 and NEON are baseline
//! features of their targets, so [`F64x2`] is always safe to use.
//! [`F64x4`] on x86-64 compiles to AVX instructions and is only ever
//! *executed* behind the runtime [`dispatch`] check: kernels implement the
//! crate-internal `LaneJob` once, and `run` turns a dispatched level into
//! a lane type, its X4 arm entering the crate's one
//! `#[target_feature(enable = "avx2")]` function.
//!
//! # Dispatch
//!
//! [`dispatch`] picks a [`SimdLevel`] once per process and caches it in a
//! relaxed atomic (the value is a pure function of CPU features and the
//! environment, so racing initializers write the same byte). The `LR_SIMD`
//! environment variable (`scalar` / `x2` / `x4` / `auto`) overrides
//! detection, and [`force`] pins a level for the lifetime of a
//! [`ForceGuard`] from tests and benches. Requested levels the CPU cannot
//! execute are clamped down (e.g. `x4` on x86-64 without AVX2 becomes
//! `x2`), so every returned level is runnable.
//!
//! # Equivalence contract
//!
//! Every dispatch level is **bitwise identical**. The FFT pipeline gives
//! each lane one row or column of a plane and runs the exact one-lane
//! operation sequence on it (see
//! `crate::fft` module docs), and [`sum_norm_sqr`] reduces through one
//! fixed four-accumulator tree whatever the lane width, so the dispatch
//! level changes speed, never results.

use crate::complex::Complex64;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU8, Ordering};

/// The operations a lane type must provide for the lane kernels.
///
/// Every method is `#[inline(always)]` in every implementation: the vector
/// kernels are generic over `V: SimdF64` and must flatten completely into
/// their (possibly `#[target_feature]`-annotated) entry point so the
/// intrinsics inline instead of becoming per-operation function calls.
pub trait SimdF64: Copy + Send + Sync + 'static {
    /// Number of `f64` lanes.
    const LANES: usize;

    /// Broadcasts one value to all lanes.
    fn splat(v: f64) -> Self;

    /// Loads `LANES` consecutive `f64`s from `ptr` (unaligned).
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reading `LANES` `f64`s.
    unsafe fn load(ptr: *const f64) -> Self;

    /// Stores the lanes to `LANES` consecutive `f64`s at `ptr` (unaligned).
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for writing `LANES` `f64`s.
    unsafe fn store(self, ptr: *mut f64);

    /// Lanewise addition.
    fn add(self, other: Self) -> Self;

    /// Lanewise subtraction.
    fn sub(self, other: Self) -> Self;

    /// Lanewise multiplication.
    fn mul(self, other: Self) -> Self;

    /// Lanewise negation.
    fn neg(self) -> Self;
}

/// One `f64` lane: the scalar instance of every lane kernel. At one lane
/// the split re/im packed layout is `[re, im]` per element — byte for byte
/// a `#[repr(C)]` [`Complex64`] plane — so one-lane kernels run on sample
/// buffers in place.
#[derive(Clone, Copy, Debug)]
pub struct F64x1(f64);

impl SimdF64 for F64x1 {
    const LANES: usize = 1;

    #[inline(always)]
    fn splat(v: f64) -> Self {
        F64x1(v)
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        // SAFETY: the caller guarantees `ptr` is readable for one f64.
        F64x1(unsafe { ptr.read_unaligned() })
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        // SAFETY: the caller guarantees `ptr` is writable for one f64.
        unsafe { ptr.write_unaligned(self.0) }
    }

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        F64x1(self.0 + other.0)
    }

    #[inline(always)]
    fn sub(self, other: Self) -> Self {
        F64x1(self.0 - other.0)
    }

    #[inline(always)]
    fn mul(self, other: Self) -> Self {
        F64x1(self.0 * other.0)
    }

    #[inline(always)]
    fn neg(self) -> Self {
        F64x1(-self.0)
    }
}

#[cfg(target_arch = "x86_64")]
mod backend {
    use super::SimdF64;
    use std::arch::x86_64::{
        __m128d, __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd, _mm_add_pd, _mm_loadu_pd, _mm_mul_pd,
        _mm_set1_pd, _mm_storeu_pd, _mm_sub_pd, _mm_xor_pd,
    };

    /// Two `f64` lanes over SSE2 (part of the x86-64 baseline).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x2(__m128d);

    impl SimdF64 for F64x2 {
        const LANES: usize = 2;

        #[inline(always)]
        fn splat(v: f64) -> Self {
            // SAFETY: SSE2 is baseline on x86-64; the instruction always
            // exists.
            F64x2(unsafe { _mm_set1_pd(v) })
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            // SAFETY: the caller guarantees `ptr` is readable for 2 f64s;
            // SSE2 is baseline on x86-64 so the instruction always exists.
            F64x2(unsafe { _mm_loadu_pd(ptr) })
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: the caller guarantees `ptr` is writable for 2 f64s;
            // SSE2 is baseline on x86-64.
            unsafe { _mm_storeu_pd(ptr, self.0) }
        }

        #[inline(always)]
        fn add(self, other: Self) -> Self {
            // SAFETY: SSE2 is baseline on x86-64.
            F64x2(unsafe { _mm_add_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn sub(self, other: Self) -> Self {
            // SAFETY: SSE2 is baseline on x86-64.
            F64x2(unsafe { _mm_sub_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            // SAFETY: SSE2 is baseline on x86-64.
            F64x2(unsafe { _mm_mul_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: SSE2 is baseline on x86-64.
            F64x2(unsafe { _mm_xor_pd(self.0, _mm_set1_pd(-0.0)) })
        }
    }

    /// Four `f64` lanes over AVX.
    ///
    /// The arithmetic methods compile to AVX/AVX2-era instructions that
    /// fault on CPUs without the feature, so this type must only *run*
    /// inside a `#[target_feature(enable = "avx2")]` region reached
    /// through the [`super::dispatch`] guard (which never reports
    /// [`super::SimdLevel::X4`] unless `avx2` was detected at runtime).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x4(__m256d);

    impl SimdF64 for F64x4 {
        const LANES: usize = 4;

        #[inline(always)]
        fn splat(v: f64) -> Self {
            // SAFETY: executed only under the runtime AVX2 dispatch guard
            // (see the type-level comment).
            F64x4(unsafe { _mm256_set1_pd(v) })
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            // SAFETY: the caller guarantees `ptr` is readable for 4 f64s,
            // and execution is behind the runtime AVX2 dispatch guard.
            F64x4(unsafe { _mm256_loadu_pd(ptr) })
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: the caller guarantees `ptr` is writable for 4 f64s,
            // and execution is behind the runtime AVX2 dispatch guard.
            unsafe { _mm256_storeu_pd(ptr, self.0) }
        }

        #[inline(always)]
        fn add(self, other: Self) -> Self {
            // SAFETY: executed only under the runtime AVX2 dispatch guard.
            F64x4(unsafe { _mm256_add_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn sub(self, other: Self) -> Self {
            // SAFETY: executed only under the runtime AVX2 dispatch guard.
            F64x4(unsafe { _mm256_sub_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            // SAFETY: executed only under the runtime AVX2 dispatch guard.
            F64x4(unsafe { _mm256_mul_pd(self.0, other.0) })
        }

        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: executed only under the runtime AVX2 dispatch guard.
            F64x4(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }
    }

    /// True when [`F64x4`] is executable on this CPU.
    #[inline]
    pub fn x4_available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    pub const X2_NAME: &str = "sse2";
    pub const X4_NAME: &str = "avx2";
}

#[cfg(target_arch = "aarch64")]
mod backend {
    use super::SimdF64;
    use std::arch::aarch64::{
        float64x2_t, vaddq_f64, vdupq_n_f64, vld1q_f64, vmulq_f64, vnegq_f64, vst1q_f64, vsubq_f64,
    };

    /// Two `f64` lanes over NEON (part of the aarch64 baseline).
    #[derive(Clone, Copy, Debug)]
    #[allow(unused_unsafe)] // NEON intrinsics are safe on recent toolchains
    pub struct F64x2(float64x2_t);

    #[allow(unused_unsafe)]
    impl SimdF64 for F64x2 {
        const LANES: usize = 2;

        #[inline(always)]
        fn splat(v: f64) -> Self {
            // SAFETY: NEON is baseline on aarch64.
            F64x2(unsafe { vdupq_n_f64(v) })
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            // SAFETY: the caller guarantees `ptr` is readable for 2 f64s;
            // NEON is baseline on aarch64.
            F64x2(unsafe { vld1q_f64(ptr) })
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: the caller guarantees `ptr` is writable for 2 f64s;
            // NEON is baseline on aarch64.
            unsafe { vst1q_f64(ptr, self.0) }
        }

        #[inline(always)]
        fn add(self, other: Self) -> Self {
            // SAFETY: NEON is baseline on aarch64.
            F64x2(unsafe { vaddq_f64(self.0, other.0) })
        }

        #[inline(always)]
        fn sub(self, other: Self) -> Self {
            // SAFETY: NEON is baseline on aarch64.
            F64x2(unsafe { vsubq_f64(self.0, other.0) })
        }

        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            // SAFETY: NEON is baseline on aarch64.
            F64x2(unsafe { vmulq_f64(self.0, other.0) })
        }

        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: NEON is baseline on aarch64.
            F64x2(unsafe { vnegq_f64(self.0) })
        }
    }

    /// Four `f64` lanes as a pair of NEON vectors (aarch64 has no native
    /// 256-bit type; the pair still halves loop overhead per element).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x4(F64x2, F64x2);

    impl SimdF64 for F64x4 {
        const LANES: usize = 4;

        #[inline(always)]
        fn splat(v: f64) -> Self {
            F64x4(F64x2::splat(v), F64x2::splat(v))
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f64) -> Self {
            // SAFETY: the caller guarantees `ptr` is readable for 4 f64s,
            // so both 2-lane halves are in bounds.
            unsafe { F64x4(F64x2::load(ptr), F64x2::load(ptr.add(2))) }
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: the caller guarantees `ptr` is writable for 4 f64s.
            unsafe {
                self.0.store(ptr);
                self.1.store(ptr.add(2));
            }
        }

        #[inline(always)]
        fn add(self, other: Self) -> Self {
            F64x4(self.0.add(other.0), self.1.add(other.1))
        }

        #[inline(always)]
        fn sub(self, other: Self) -> Self {
            F64x4(self.0.sub(other.0), self.1.sub(other.1))
        }

        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            F64x4(self.0.mul(other.0), self.1.mul(other.1))
        }

        #[inline(always)]
        fn neg(self) -> Self {
            F64x4(self.0.neg(), self.1.neg())
        }
    }

    /// True when [`F64x4`] is executable on this CPU (always: the pair-of-
    /// NEON polyfill needs nothing beyond the aarch64 baseline).
    #[inline]
    pub fn x4_available() -> bool {
        true
    }

    pub const X2_NAME: &str = "neon";
    pub const X4_NAME: &str = "neon";
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod backend {
    use super::SimdF64;

    /// Two `f64` lanes as a plain array (portable fallback; the compiler's
    /// auto-vectorizer is free to do better).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x2([f64; 2]);

    /// Four `f64` lanes as a plain array (portable fallback).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x4([f64; 4]);

    macro_rules! array_backend {
        ($name:ident, $lanes:expr) => {
            impl SimdF64 for $name {
                const LANES: usize = $lanes;

                #[inline(always)]
                fn splat(v: f64) -> Self {
                    $name([v; $lanes])
                }

                #[inline(always)]
                unsafe fn load(ptr: *const f64) -> Self {
                    // SAFETY: the caller guarantees `ptr` is readable for
                    // `LANES` f64s.
                    $name(unsafe { std::ptr::read_unaligned(ptr as *const [f64; $lanes]) })
                }

                #[inline(always)]
                unsafe fn store(self, ptr: *mut f64) {
                    // SAFETY: the caller guarantees `ptr` is writable for
                    // `LANES` f64s.
                    unsafe { std::ptr::write_unaligned(ptr as *mut [f64; $lanes], self.0) }
                }

                #[inline(always)]
                fn add(self, other: Self) -> Self {
                    let mut out = self.0;
                    for (o, b) in out.iter_mut().zip(other.0) {
                        *o += b;
                    }
                    $name(out)
                }

                #[inline(always)]
                fn sub(self, other: Self) -> Self {
                    let mut out = self.0;
                    for (o, b) in out.iter_mut().zip(other.0) {
                        *o -= b;
                    }
                    $name(out)
                }

                #[inline(always)]
                fn mul(self, other: Self) -> Self {
                    let mut out = self.0;
                    for (o, b) in out.iter_mut().zip(other.0) {
                        *o *= b;
                    }
                    $name(out)
                }

                #[inline(always)]
                fn neg(self) -> Self {
                    let mut out = self.0;
                    for o in out.iter_mut() {
                        *o = -*o;
                    }
                    $name(out)
                }
            }
        };
    }

    array_backend!(F64x2, 2);
    array_backend!(F64x4, 4);

    /// True when [`F64x4`] is executable on this CPU (always: plain arrays).
    #[inline]
    pub fn x4_available() -> bool {
        true
    }

    pub const X2_NAME: &str = "portable";
    pub const X4_NAME: &str = "portable";
}

pub use backend::{F64x2, F64x4};

/// How many lanes (rows or columns of a plane, or readout partial sums)
/// the kernels co-process per vector operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// One lane: the one-lane instance ([`F64x1`]).
    Scalar,
    /// Two lanes per op ([`F64x2`]: SSE2 / NEON / portable).
    X2,
    /// Four lanes per op ([`F64x4`]: AVX2 on x86-64, polyfilled elsewhere).
    X4,
}

impl SimdLevel {
    /// Lane count at this level (1, 2, or 4).
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::X2 => 2,
            SimdLevel::X4 => 4,
        }
    }

    /// ISA name for profile attribution: `scalar`, `sse2`, `avx2`, `neon`,
    /// or `portable`.
    #[inline]
    pub fn isa_name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::X2 => backend::X2_NAME,
            SimdLevel::X4 => backend::X4_NAME,
        }
    }
}

// Encoding for the dispatch cache cell: 0 = uninitialized.
const UNSET: u8 = 0;
const SCALAR: u8 = 1;
const X2: u8 = 2;
const X4: u8 = 3;

// Relaxed is sufficient: the cached value is a pure function of CPU
// features and LR_SIMD, so racing initializers store the same byte and the
// cell gates no other memory. `force` stores happen under `FORCE_LOCK`.
static DISPATCH: AtomicU8 = AtomicU8::new(UNSET);

/// Serializes [`force`] holders process-wide.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn encode(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => SCALAR,
        SimdLevel::X2 => X2,
        SimdLevel::X4 => X4,
    }
}

/// Clamps a requested level to what this CPU can execute.
fn clamp(level: SimdLevel) -> SimdLevel {
    if level == SimdLevel::X4 && !backend::x4_available() {
        SimdLevel::X2
    } else {
        level
    }
}

fn detect() -> SimdLevel {
    match std::env::var("LR_SIMD") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "scalar" | "off" | "0" | "1" => SimdLevel::Scalar,
            "x2" | "2" => SimdLevel::X2,
            "x4" | "4" => clamp(SimdLevel::X4),
            _ => default_level(),
        },
        Err(_) => default_level(),
    }
}

fn default_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if backend::x4_available() {
            SimdLevel::X4
        } else {
            SimdLevel::X2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdLevel::X2
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// Returns the process-wide SIMD dispatch level, detecting it on first use.
///
/// Honors `LR_SIMD` (`scalar` / `x2` / `x4` / `auto`) and any live
/// [`force`] override; the result is always executable on this CPU.
#[inline]
pub fn dispatch() -> SimdLevel {
    match DISPATCH.load(Ordering::Relaxed) {
        SCALAR => SimdLevel::Scalar,
        X2 => SimdLevel::X2,
        X4 => SimdLevel::X4,
        _ => {
            let level = detect();
            DISPATCH.store(encode(level), Ordering::Relaxed);
            level
        }
    }
}

/// A dispatch override held by a test or bench; see [`force`].
#[must_use = "the override ends when the guard drops"]
pub struct ForceGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ForceGuard {
    fn drop(&mut self) {
        // Runs before `_lock` releases, so the next holder starts from
        // auto-detection.
        DISPATCH.store(UNSET, Ordering::Relaxed);
    }
}

/// Pins the dispatch level until the returned guard drops, for tests and
/// benches.
///
/// `Some(level)` pins dispatch to `level` (clamped to what the CPU can
/// execute — ask [`dispatch`] for the effective value); `None` holds the
/// auto-detected level. The guard holds one process-wide lock, so holders
/// never interleave, and dropping it restores auto-detection. Taking a
/// second guard on the same thread while one is alive deadlocks.
pub fn force(level: Option<SimdLevel>) -> ForceGuard {
    let lock = FORCE_LOCK.lock();
    let byte = level.map_or(UNSET, |l| encode(clamp(l)));
    DISPATCH.store(byte, Ordering::Relaxed);
    ForceGuard { _lock: lock }
}

/// Kernel work generic over the lane type, run at a dispatch level by
/// [`run`] — the one place in the crate where a level becomes a lane type.
pub(crate) trait LaneJob {
    /// What the job returns.
    type Output;

    /// Runs the job with lanes of type `V`. Implementations are
    /// `#[inline(always)]` so the kernel chain flattens into [`run`]'s arm
    /// (and into the AVX2 entry on x86-64).
    fn run<V: SimdF64>(self) -> Self::Output;
}

/// Runs `job` with the lane type of `level`, which must come from
/// [`dispatch`] (so it is executable on this CPU). On x86-64 the X4 arm
/// enters through the crate's one `#[target_feature(enable = "avx2")]`
/// function.
#[inline]
pub(crate) fn run<J: LaneJob>(level: SimdLevel, job: J) -> J::Output {
    match level {
        SimdLevel::Scalar => job.run::<F64x1>(),
        SimdLevel::X2 => job.run::<F64x2>(),
        SimdLevel::X4 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: `level` comes from dispatch(), which only yields
                // X4 on x86-64 when AVX2 was detected at runtime
                // (detect/force both clamp).
                unsafe { run_avx2(job) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                job.run::<F64x4>()
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<J: LaneJob>(job: J) -> J::Output {
    job.run::<F64x4>()
}

/// Width of the readout's partial-sum tree, in `f64`s.
const TREE: usize = 4;

/// The one readout reduction, generic over the lane width.
///
/// `Complex64` is `repr(C) { re, im }`, so a slice of samples is a stream
/// of `2·len` interleaved f64s and `Σ|z|² = Σ x²` over that stream.
/// Accumulator `j ∈ 0..4` sums `x[4b + j]²` over the whole blocks `b` in
/// ascending order; the accumulators combine as `(a₀ + a₁) + (a₂ + a₃)`,
/// then the tail (fewer than four f64s) adds in stream order. At `L` lanes
/// the four accumulators are `4/L` registers, lane `l` of register `r`
/// holding accumulator `r·L + l`, so every width computes the same sums in
/// the same order.
#[inline(always)]
fn sum_norm_sqr_v<V: SimdF64>(samples: &[Complex64]) -> f64 {
    debug_assert_eq!(TREE % V::LANES, 0);
    let regs = TREE / V::LANES;
    let total = 2 * samples.len();
    let ptr = samples.as_ptr() as *const f64;
    let mut acc = [V::splat(0.0); TREE];
    let mut i = 0;
    while i + TREE <= total {
        for (r, a) in acc[..regs].iter_mut().enumerate() {
            // SAFETY: i + r·L + L ≤ i + TREE ≤ total f64s backing `samples`
            // (repr(C) layout).
            let v = unsafe { V::load(ptr.add(i + r * V::LANES)) };
            *a = a.add(v.mul(v));
        }
        i += TREE;
    }
    let mut a = [0.0f64; TREE];
    for (r, reg) in acc[..regs].iter().enumerate() {
        // SAFETY: r·L + L ≤ TREE f64s of `a`.
        unsafe { reg.store(a.as_mut_ptr().add(r * V::LANES)) };
    }
    let mut sum = (a[0] + a[1]) + (a[2] + a[3]);
    while i < total {
        // SAFETY: i < total f64s backing `samples`.
        let x = unsafe { *ptr.add(i) };
        sum += x * x;
        i += 1;
    }
    sum
}

struct SumNormSqr<'a>(&'a [Complex64]);

impl LaneJob for SumNormSqr<'_> {
    type Output = f64;

    #[inline(always)]
    fn run<V: SimdF64>(self) -> f64 {
        sum_norm_sqr_v::<V>(self.0)
    }
}

/// Sum of `|z|²` over a slice, vectorized per the current [`dispatch`].
///
/// Every level runs the same four-accumulator tree (see `sum_norm_sqr_v`),
/// so the result is bitwise identical at every dispatch level.
pub fn sum_norm_sqr(samples: &[Complex64]) -> f64 {
    run(dispatch(), SumNormSqr(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_returns_executable_level() {
        let level = dispatch();
        assert!(level.lanes() == 1 || level.lanes() == 2 || level.lanes() == 4);
        assert!(!level.isa_name().is_empty());
    }

    #[test]
    fn force_overrides_and_restores_auto_detection() {
        {
            let _g = force(Some(SimdLevel::Scalar));
            assert_eq!(dispatch(), SimdLevel::Scalar);
        }
        {
            let _g = force(Some(SimdLevel::X2));
            assert_eq!(dispatch(), SimdLevel::X2);
        }
        {
            let _g = force(Some(SimdLevel::X4));
            // X4 may legitimately clamp to X2 on CPUs without AVX2.
            assert!(dispatch() >= SimdLevel::X2);
        }
        let _g = force(None);
        assert_eq!(dispatch(), detect());
    }

    #[test]
    fn lane_ops_match_scalar() {
        fn check<V: SimdF64>() {
            let a_src: Vec<f64> = (0..V::LANES).map(|i| 1.5 + i as f64).collect();
            let b_src: Vec<f64> = (0..V::LANES).map(|i| -0.25 * (i as f64 + 1.0)).collect();
            // SAFETY: both sources hold exactly LANES f64s.
            let (a, b) = unsafe { (V::load(a_src.as_ptr()), V::load(b_src.as_ptr())) };
            let mut out = vec![0.0; V::LANES];
            type BinOp = fn(f64, f64) -> f64;
            let cases: [(V, BinOp); 3] = [
                (a.add(b), |x, y| x + y),
                (a.sub(b), |x, y| x - y),
                (a.mul(b), |x, y| x * y),
            ];
            for (op, expect) in cases {
                // SAFETY: `out` holds exactly LANES f64s.
                unsafe { op.store(out.as_mut_ptr()) };
                for i in 0..V::LANES {
                    assert_eq!(out[i], expect(a_src[i], b_src[i]));
                }
            }
            // SAFETY: `out` holds exactly LANES f64s.
            unsafe { a.neg().store(out.as_mut_ptr()) };
            for i in 0..V::LANES {
                assert_eq!(out[i], -a_src[i]);
            }
            // SAFETY: `out` holds exactly LANES f64s.
            unsafe { V::splat(3.25).store(out.as_mut_ptr()) };
            assert!(out.iter().all(|&x| x == 3.25));
        }
        check::<F64x1>();
        check::<F64x2>();
        if backend::x4_available() {
            check::<F64x4>();
        }
    }

    /// Every executable level reduces bitwise identically, for every
    /// length whose f64 stream leaves each tail remainder of the
    /// four-accumulator tree.
    #[test]
    fn sum_norm_sqr_bitwise_identical_across_levels() {
        for len in 0..=67usize {
            let samples: Vec<Complex64> = (0..len)
                .map(|i| {
                    let t = i as f64 * 0.37;
                    Complex64::new(t.sin() * 1.75, t.cos() - 0.5)
                })
                .collect();
            let one_lane = {
                let _g = force(Some(SimdLevel::Scalar));
                sum_norm_sqr(&samples)
            };
            for level in [SimdLevel::X2, SimdLevel::X4] {
                let _g = force(Some(level));
                assert_eq!(
                    sum_norm_sqr(&samples).to_bits(),
                    one_lane.to_bits(),
                    "len {len} level {:?}",
                    dispatch()
                );
            }
        }
    }

    #[test]
    fn sum_norm_sqr_exact_on_small_integers() {
        let samples: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new((i % 5) as f64, (i % 3) as f64))
            .collect();
        let expect: f64 = samples.iter().map(|z| z.norm_sqr()).sum();
        for level in [SimdLevel::Scalar, SimdLevel::X2, SimdLevel::X4] {
            let _g = force(Some(level));
            // Small-integer squares sum exactly in f64 under any
            // association.
            assert_eq!(sum_norm_sqr(&samples), expect);
        }
    }
}
