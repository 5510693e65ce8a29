//! Fast Fourier transforms for the optics kernels.
//!
//! The diffraction kernels in LightRidge are built on 2-D FFT convolution
//! (paper Eq. 6–7). This module implements the transforms from scratch:
//!
//! * **Radix-4/radix-2 Cooley-Tukey** (iterative, precomputed twiddles and
//!   bit-reversal permutation) for power-of-two sizes. Stages are fused in
//!   pairs into radix-4 butterflies — half the passes over the data of a
//!   plain radix-2 loop — with a single radix-2 stage first when the stage
//!   count is odd.
//! * **Bluestein's chirp-z algorithm** for arbitrary sizes — the paper's
//!   system resolutions (200², 350², 500²) are *not* powers of two.
//! * **Rader's algorithm** for prime lengths `p` whose `p − 1` is
//!   2·3·5·7-smooth: the length-`p` DFT becomes a length-`p−1` cyclic
//!   convolution run through the radix-2 or Stockham pipeline — one
//!   inner transform pair at size `p−1` instead of Bluestein's two at
//!   `m ≥ 2p−1`. This retires the Bluestein fallback for most primes
//!   (e.g. 197, 211); only primes like 23 or 199 whose `p − 1` has a
//!   factor above 7 still take the chirp-z path.
//! * A global, thread-safe **plan cache** so repeated propagations at the
//!   same resolution reuse twiddle tables and chirp spectra. Plan reuse is
//!   one of the runtime optimizations that separates LightRidge from the
//!   LightPipes baseline (paper Table 1, Fig. 8).
//! * A **zero-allocation 2-D pipeline**: [`Fft2`] stages a group of rows,
//!   then a cache-blocked group of columns, at a time in a reusable buffer
//!   — no transpose fields are ever materialized (earlier revisions
//!   allocated two full fields per 2-D transform). Large fields
//!   additionally split their row/column passes across the persistent
//!   worker pool (`crate::parallel`).
//! * **One kernel per plan kind**, generic over the lane type
//!   `V: SimdF64` ([`crate::simd`]), and **one 2-D pipeline** that runs it
//!   `L` rows or `L` columns of one plane at a time. The one-lane instance
//!   ([`simd::F64x1`]) runs rows in place on the `Complex64` plane — at one
//!   lane the packed split re/im layout *is* the `#[repr(C)]` sample
//!   layout.
//! * **Batched entry points**: [`Fft2::fft2_batch_with`] /
//!   [`Fft2::ifft2_batch_with`] (and the direction-generic
//!   [`Fft2::process_batch_with`]) transform every plane of a
//!   [`FieldBatch`] with **one plan lookup** and one shared
//!   [`BatchWorkspace`], streaming the same precomputed twiddles across
//!   all `B` planes. Batched and per-sample transforms are
//!   **bit-identical** — the invariant the whole batched propagation
//!   stack (lr-optics `propagate_batch_into`, lr-core `infer_batch_into`,
//!   the lr-serve dispatcher) is built on.
//!
//! # Workspace-reuse contract
//!
//! All per-call scratch lives in an [`Fft2Workspace`] (2-D), a
//! [`BatchWorkspace`] (batched 2-D — one workspace shared by all planes,
//! sized independently of the batch count), or a plain `Vec<Complex64>`
//! (1-D, from [`FftPlan::make_scratch`]):
//!
//! * **Ownership** — the *caller* owns workspaces and passes them by
//!   `&mut`. [`Fft2::process_with`] performs **zero heap allocations** once
//!   the workspace has warmed up for its shape. The convenience entry
//!   points ([`Fft2::forward`], [`Fft2::inverse`], …) borrow a
//!   thread-local workspace keyed by shape, so they are also
//!   allocation-free in steady state without any API change.
//! * **Thread safety** — plans are immutable after construction and shared
//!   via `Arc`; the global plan cache is a mutex-guarded map touched once
//!   per new length. Workspaces are *not* `Sync`; each thread uses its
//!   own (the thread-local pool guarantees this for implicit calls).
//! * **Parallel mode** — when a field is large (≥ `PAR_MIN_LEN` samples),
//!   the current thread is not already inside a parallel region, and more
//!   than one worker is configured, each row/column pass runs on the
//!   persistent pool: tasks take whole lane groups of rows or blocks of
//!   columns at the dispatched width, and each worker thread draws lane
//!   staging from its own thread-local pool (the caller's workspace is not
//!   shared across threads).
//!
//! Normalization convention: forward transforms are unnormalized, inverse
//! transforms carry the `1/N` factor. For the 2-D transforms the inverse
//! therefore scales by `1/(rows·cols)`.
//!
//! # Plan selection
//!
//! [`FftPlan::new`] picks, in order: the radix-4/8/2 power-of-two kernel;
//! the Stockham mixed-radix pipeline for 2·3·5·7-smooth lengths; Rader's
//! algorithm for primes `p` with smooth `p − 1`; Bluestein's chirp-z for
//! everything else. Power-of-two plans with an odd stage count open with
//! one **radix-8** stage (split-radix-style: three fused radix-2 levels,
//! two non-trivial twiddles) instead of the old radix-2 stage, so the
//! remaining passes are pure radix-4. Every fast path keeps its
//! pre-optimization oracle: `process_reference` runs plain radix-2 /
//! reference-Bluestein kernels and the fast paths agree with it to
//! ≤ 1e-12 relative (`radix4_agrees_with_reference_butterflies`).
//!
//! # Lane kernels and the equivalence contract
//!
//! Every entry point — per-sample ([`Fft2::process_with`]), batched
//! ([`Fft2::process_batch_with`]), and the fused convolve
//! ([`Fft2::convolve_spectrum_batch_with`], …) — runs one pipeline that
//! vectorizes **within a plane**: the row pass gathers groups of `L`
//! rows into a split re/im, lane-major layout (element `i` holds
//! `[re₀‥re_{L−1}, im₀‥im_{L−1}]`, lane `l` carrying row `l` of the
//! group), runs the 1-D plan once for all `L`, and scatters them back; the
//! column pass does the same with groups of `L` columns of a staged
//! column block. One twiddle load drives `L` lines through the identical
//! butterfly and every complex multiply is plain lanewise arithmetic — no
//! shuffles. The leftover `rows mod L` rows and `cols mod L` columns run
//! the one-lane instance. A batch is a loop over its planes, so a
//! per-sample call, a batch of one and a batch of many run the same code
//! at the same width. The fused convolve multiplies each column group by
//! the transfer while the forward column pass still holds it. The lane
//! width comes from [`crate::simd::dispatch`] (SSE2 baseline / AVX2 by
//! runtime detection on x86-64, NEON on aarch64, one lane elsewhere;
//! `LR_SIMD=scalar|x2|x4` overrides), and the kernel profile charges each
//! plane to the `simd_scalar` / `simd_sse2` / `simd_avx2` / `simd_neon`
//! cell of the level that ran it.
//!
//! **Equivalence contract** (one tier): every lane of every width executes
//! the exact operation sequence of the one-lane instance on its own row or
//! column, so results are **bitwise identical** at every dispatch level,
//! batch size and thread count, and batched results are bitwise identical
//! to per-sample ones. The detector readout ([`crate::simd::sum_norm_sqr`])
//! meets the same contract through its fixed reduction tree. No tolerance
//! is negotiated on any of these paths.
//!
//! [`Fft2::make_workspace`] sizes the lane staging (one group of rows or
//! one column block) and the plan scratch for the dispatch width, so
//! every entry point is allocation-free from its first call. Pooled
//! passes (`PAR_MIN_LEN`) run the same lane groups from per-thread
//! staging.

use crate::batch::FieldBatch;
use crate::complex::Complex64;
use crate::field::Field;
use crate::parallel;
use crate::pinned_cache::PinnedCache;
use crate::simd::{self, F64x1, LaneJob, SimdF64, SimdLevel};
use lr_obs::{KernelKind, KernelTimer};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::Arc;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `X_k = Σ x_j · e^{-2πi jk/N}` (unnormalized).
    Forward,
    /// `x_j = (1/N) Σ X_k · e^{+2πi jk/N}`.
    Inverse,
}

/// A reusable 1-D FFT plan for a fixed length.
///
/// Plans are cheap to share (`Arc`) and safe to use from multiple threads;
/// per-call scratch is passed in by the caller.
///
/// # Examples
///
/// ```
/// use lr_tensor::{Complex64, FftPlan, Direction};
/// let plan = FftPlan::new(6);
/// let mut data: Vec<Complex64> = (0..6).map(|i| Complex64::new(i as f64, 0.0)).collect();
/// let orig = data.clone();
/// let mut scratch = plan.make_scratch();
/// plan.process(&mut data, Direction::Forward, &mut scratch);
/// plan.process(&mut data, Direction::Inverse, &mut scratch);
/// for (a, b) in data.iter().zip(&orig) {
///     assert!((*a - *b).norm() < 1e-10);
/// }
/// ```
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug)]
enum PlanKind {
    Radix2(Radix2Plan),
    /// Smooth (2·3·5·7-factorable) lengths — the paper's 200/350/500
    /// resolutions — run a Stockham autosort mixed-radix pipeline, several
    /// times cheaper than the Bluestein fallback. The pre-change Bluestein
    /// plan is kept alongside as the `process_reference` oracle.
    Mixed {
        mixed: MixedRadixPlan,
        reference: BluesteinPlan,
    },
    /// Prime lengths `p` with 2·3·5·7-smooth `p − 1` run Rader's
    /// prime-length algorithm (a length-`p−1` cyclic convolution). The
    /// Bluestein plan these lengths previously used is kept alongside as
    /// the `process_reference` oracle.
    Rader {
        rader: RaderPlan,
        reference: BluesteinPlan,
    },
    Bluestein(BluesteinPlan),
}

#[derive(Debug)]
struct Radix2Plan {
    /// Bit-reversal permutation indices.
    bitrev: Vec<u32>,
    /// `tw[k] = e^{-2πi k/n}` for `k < n/2` (reference kernel).
    twiddles: Vec<Complex64>,
    /// Opening stage when the radix-4 pass count alone cannot cover `n`.
    leading: Leading,
    /// Per-pass twiddle triples `(wa, wb0, wb1)` for the fused radix-4
    /// stages, laid out sequentially in traversal order so the hot loop
    /// streams them instead of gathering `tw[k·stride]`.
    fused: Vec<FusedStage>,
}

/// Opening butterfly stage of the power-of-two kernel. An even stage count
/// needs none; an odd count opens with one split-radix-style **radix-8**
/// butterfly (three fused radix-2 levels, twiddles `1, w₈, −j, w₈³` — two
/// complex multiplies per octet) except for `n = 2`, which keeps the plain
/// radix-2 pair.
#[derive(Debug)]
enum Leading {
    None,
    Radix2,
    Radix8 {
        /// `e^{−2πi/8}`.
        w1: Complex64,
        /// `e^{−2πi·3/8}`.
        w3: Complex64,
    },
}

/// One fused pair of stages (sizes `2h` and `4h`) of the radix-4 kernel.
#[derive(Debug)]
struct FusedStage {
    /// Half the first fused stage: quartets span `4·half` elements.
    half: usize,
    /// `[wa_k, wb0_k, wb1_k]` for `k in 1..half` (the `k = 0` lane has the
    /// trivial twiddles `1, 1, −j` and is special-cased).
    tw: Vec<Complex64>,
}

#[derive(Debug)]
struct BluesteinPlan {
    /// Inner power-of-two convolution length `m ≥ 2n-1`.
    m: usize,
    inner: Radix2Plan,
    /// Forward chirp `c_j = e^{-iπ j²/n}` for `j < n`.
    chirp: Vec<Complex64>,
    /// `c_k / m` — the output chirp with the inner-inverse normalization
    /// folded in (one multiply per sample instead of two).
    post_chirp: Vec<Complex64>,
    /// Forward FFT (length `m`) of the wrapped conjugate chirp.
    chirp_spectrum: Vec<Complex64>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be nonzero");
        let kind = if n.is_power_of_two() {
            PlanKind::Radix2(Radix2Plan::new(n))
        } else if let Some(factors) = MixedRadixPlan::factorize(n) {
            PlanKind::Mixed {
                mixed: MixedRadixPlan::new(n, &factors),
                reference: BluesteinPlan::new(n),
            }
        } else if let Some(rader) = RaderPlan::try_new(n) {
            PlanKind::Rader {
                rader,
                reference: BluesteinPlan::new(n),
            }
        } else {
            PlanKind::Bluestein(BluesteinPlan::new(n))
        };
        FftPlan { n, kind }
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the plan length is zero. Construction enforces `n > 0`, so
    /// this is honest but always `false` for plans built through
    /// [`FftPlan::new`].
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// True if this plan's fast path uses Bluestein's algorithm (lengths
    /// with a prime factor above 7; the paper's smooth resolutions use the
    /// mixed-radix pipeline instead).
    pub fn is_bluestein(&self) -> bool {
        matches!(self.kind, PlanKind::Bluestein(_))
    }

    /// True if this plan uses the Stockham mixed-radix pipeline
    /// (non-power-of-two, 2·3·5·7-smooth length).
    pub fn is_mixed_radix(&self) -> bool {
        matches!(self.kind, PlanKind::Mixed { .. })
    }

    /// True if this plan uses Rader's prime-length algorithm (prime `n`
    /// with 2·3·5·7-smooth `n − 1`).
    pub fn is_rader(&self) -> bool {
        matches!(self.kind, PlanKind::Rader { .. })
    }

    /// Scratch length this plan needs (`0` for pure radix-2 plans).
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            PlanKind::Radix2(_) => 0,
            // The reference Bluestein buffer (m ≥ 2n−1) also covers the
            // Stockham ping-pong buffer (n).
            PlanKind::Mixed { reference, .. } => reference.m,
            // m ≥ 2n−1 also covers Rader's needs: the length-(n−1)
            // convolution buffer plus (for a mixed-radix inner plan) its
            // ping-pong scratch — at most 2(n−1) elements.
            PlanKind::Rader { reference, .. } => reference.m,
            PlanKind::Bluestein(b) => b.m,
        }
    }

    /// Allocates a scratch buffer sized for this plan. Reuse it across calls
    /// to avoid per-transform allocation.
    pub fn make_scratch(&self) -> Vec<Complex64> {
        vec![Complex64::ZERO; self.scratch_len()]
    }

    /// Transforms `data` in place with the one-lane instance of the plan's
    /// kernel. Grows `scratch` to [`FftPlan::scratch_len`] if it is shorter
    /// (a buffer from [`FftPlan::make_scratch`] never allocates).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex64], dir: Direction, scratch: &mut Vec<Complex64>) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        if scratch.len() < self.scratch_len() {
            scratch.resize(self.scratch_len(), Complex64::ZERO);
        }
        self.process_v::<F64x1>(interleaved_mut(data), dir, interleaved_mut(scratch));
    }

    /// Transforms `data` in place with the pre-optimization kernels: plain
    /// radix-2 butterflies, no stage fusion, and the reference Bluestein
    /// pipeline for every other length. Kept as the independent oracle for
    /// the fast kernels and as the baseline the perf artifacts
    /// (`BENCH_kernels.json`) compare against.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn process_reference(
        &self,
        data: &mut [Complex64],
        dir: Direction,
        scratch: &mut Vec<Complex64>,
    ) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        let forward = |data: &mut [Complex64], scratch: &mut Vec<Complex64>| match &self.kind {
            PlanKind::Radix2(p) => p.forward_reference(data),
            PlanKind::Mixed { reference, .. }
            | PlanKind::Rader { reference, .. }
            | PlanKind::Bluestein(reference) => reference.forward_reference(data, scratch),
        };
        match dir {
            Direction::Forward => forward(data, scratch),
            Direction::Inverse => {
                // x = conj(F(conj(X))) / n
                for z in data.iter_mut() {
                    *z = z.conj();
                }
                forward(data, scratch);
                let inv_n = 1.0 / self.n as f64;
                for z in data.iter_mut() {
                    *z = z.conj() * inv_n;
                }
            }
        }
    }

    /// The plan's one kernel: transforms `V::LANES` independent length-`n`
    /// signals stored in the split re/im lane-major layout (element `i` at
    /// `data[i·2L..]` holds `L` re then `L` im values). Every lane performs
    /// the same operation sequence, so per-lane results are bitwise
    /// identical at every width. `scratch` must hold `scratch_len()·2L`
    /// f64s.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn process_v<V: SimdF64>(&self, data: &mut [f64], dir: Direction, scratch: &mut [f64]) {
        debug_assert_eq!(data.len(), self.n * 2 * V::LANES);
        match dir {
            Direction::Forward => self.forward_v::<V>(data, scratch),
            Direction::Inverse => {
                if let PlanKind::Radix2(p) = &self.kind {
                    // Conjugated-twiddle kernel: bit-identical to the
                    // conj(F(conj(·)))/n sandwich, two passes cheaper.
                    p.butterflies_v::<V, true>(data);
                    scale_packed::<V>(data, 1.0 / self.n as f64);
                    return;
                }
                // x = conj(F(conj(X))) / n
                conj_packed::<V>(data);
                self.forward_v::<V>(data, scratch);
                conj_scale_packed::<V>(data, 1.0 / self.n as f64);
            }
        }
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    fn forward_v<V: SimdF64>(&self, data: &mut [f64], scratch: &mut [f64]) {
        match &self.kind {
            PlanKind::Radix2(p) => p.butterflies_v::<V, false>(data),
            PlanKind::Mixed { mixed, .. } => mixed.forward_slice_v::<V>(data, scratch),
            PlanKind::Rader { rader, .. } => rader.forward_v::<V>(data, scratch),
            PlanKind::Bluestein(p) => p.forward_v::<V>(data, scratch),
        }
    }
}

/// Views samples as their interleaved `[re, im, …]` f64 stream — the packed
/// lane layout at `L = 1`, so one-lane kernels run on sample buffers in
/// place.
#[inline(always)]
fn interleaved_mut(samples: &mut [Complex64]) -> &mut [f64] {
    // SAFETY: Complex64 is #[repr(C)] { re: f64, im: f64 } — two f64s, no
    // padding, f64 alignment — so `len` samples are exactly `2·len` f64s,
    // borrowed exclusively for the returned lifetime.
    unsafe { std::slice::from_raw_parts_mut(samples.as_mut_ptr().cast::<f64>(), 2 * samples.len()) }
}

/// A complex number per vector lane, in split re/im form. The arithmetic
/// mirrors [`Complex64`]'s formulas operation-for-operation, so a lane
/// computes exactly what `Complex64` arithmetic would.
#[derive(Clone, Copy)]
struct VComplex<V> {
    re: V,
    im: V,
}

impl<V: SimdF64> VComplex<V> {
    /// Broadcasts one complex value (a twiddle) to all lanes.
    #[inline(always)]
    fn splat(z: Complex64) -> Self {
        VComplex {
            re: V::splat(z.re),
            im: V::splat(z.im),
        }
    }

    /// Loads one packed element (`L` re values then `L` im values).
    ///
    /// # Safety
    ///
    /// `p` must be valid for reading `2·LANES` f64s.
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: caller provides 2·LANES readable f64s at `p`.
        unsafe {
            VComplex {
                re: V::load(p),
                im: V::load(p.add(V::LANES)),
            }
        }
    }

    /// Stores one packed element.
    ///
    /// # Safety
    ///
    /// `p` must be valid for writing `2·LANES` f64s.
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: caller provides 2·LANES writable f64s at `p`.
        unsafe {
            self.re.store(p);
            self.im.store(p.add(V::LANES));
        }
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        VComplex {
            re: self.re.add(o.re),
            im: self.im.add(o.im),
        }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        VComplex {
            re: self.re.sub(o.re),
            im: self.im.sub(o.im),
        }
    }

    /// Complex multiply, in exactly [`Complex64`]'s operation order:
    /// `re = a.re·b.re − a.im·b.im`, `im = a.re·b.im + a.im·b.re`.
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        VComplex {
            re: self.re.mul(o.re).sub(self.im.mul(o.im)),
            im: self.re.mul(o.im).add(self.im.mul(o.re)),
        }
    }

    /// `∓j` rotation: forward `(im, −re)`, inverse `(−im, re)`.
    #[inline(always)]
    fn rot<const INV: bool>(self) -> Self {
        if INV {
            VComplex {
                re: self.im.neg(),
                im: self.re,
            }
        } else {
            VComplex {
                re: self.im,
                im: self.re.neg(),
            }
        }
    }
}

/// Lanewise `*z *= s` over a whole packed buffer (every f64 scales).
#[cfg_attr(not(debug_assertions), inline(always))]
fn scale_packed<V: SimdF64>(data: &mut [f64], s: f64) {
    let s = V::splat(s);
    let ptr = data.as_mut_ptr();
    let vecs = data.len() / V::LANES;
    for i in 0..vecs {
        // SAFETY: (i+1)·LANES ≤ data.len() — packed buffers are a multiple
        // of 2·LANES long.
        unsafe {
            let p = ptr.add(i * V::LANES);
            V::load(p).mul(s).store(p);
        }
    }
}

/// Lanewise `*z = z.conj()` over a packed buffer (negates im halves).
#[cfg_attr(not(debug_assertions), inline(always))]
fn conj_packed<V: SimdF64>(data: &mut [f64]) {
    let stride = 2 * V::LANES;
    let count = data.len() / stride;
    let ptr = data.as_mut_ptr();
    for i in 0..count {
        // SAFETY: element i's im half spans [i·2L+L, (i+1)·2L) ≤ len.
        unsafe {
            let p = ptr.add(i * stride + V::LANES);
            V::load(p).neg().store(p);
        }
    }
}

/// Lanewise `*z = z.conj() * s` over a packed buffer.
#[cfg_attr(not(debug_assertions), inline(always))]
fn conj_scale_packed<V: SimdF64>(data: &mut [f64], s: f64) {
    let s = V::splat(s);
    let stride = 2 * V::LANES;
    let count = data.len() / stride;
    let ptr = data.as_mut_ptr();
    for i in 0..count {
        // SAFETY: both halves of element i lie inside the packed buffer.
        unsafe {
            let pre = ptr.add(i * stride);
            let pim = pre.add(V::LANES);
            V::load(pre).mul(s).store(pre);
            V::load(pim).neg().mul(s).store(pim);
        }
    }
}

/// Lanewise `*z *= h[i]` over a packed buffer, one broadcast complex
/// coefficient per element — the Rader/Bluestein spectrum multiplies.
#[cfg_attr(not(debug_assertions), inline(always))]
fn mul_coeffs_packed<V: SimdF64>(data: &mut [f64], coeffs: &[Complex64]) {
    let stride = 2 * V::LANES;
    debug_assert!(data.len() >= coeffs.len() * stride);
    let ptr = data.as_mut_ptr();
    for (i, &h) in coeffs.iter().enumerate() {
        let hv = VComplex::<V>::splat(h);
        // SAFETY: i < coeffs.len() ≤ data.len()/2L packed elements.
        unsafe {
            let p = ptr.add(i * stride);
            VComplex::<V>::load(p).mul(hv).store(p);
        }
    }
}

/// Lanewise `*z *= h` over one staged column group, lane `l` of element
/// `r` taking `h[r·cols + l]` (conjugated for the adjoint) — the transfer
/// multiply of the fused convolve, applied while the forward column pass
/// still holds the group. The product is [`Complex64`]'s formula, the same
/// per-sample multiply a separate transfer pass would run, so the bits do
/// not change.
#[cfg_attr(not(debug_assertions), inline(always))]
fn mul_transfer_lanes<V: SimdF64>(group: &mut [f64], h: &[Complex64], cols: usize, adj: bool) {
    let lanes = V::LANES;
    let n = group.len() / (2 * lanes);
    assert!(lanes <= 4 && (n == 0 || h.len() >= (n - 1) * cols + lanes));
    let hp = h.as_ptr() as *const f64;
    let gp = group.as_mut_ptr();
    // Split re/im coefficients of one element: L re values, then L im.
    let mut w = [0.0f64; 8];
    for r in 0..n {
        for l in 0..lanes {
            // SAFETY: r·cols + l < h.len() (asserted above); Complex64 is
            // repr(C) { re, im }.
            let (re, im) = unsafe {
                let s = hp.add(2 * (r * cols + l));
                (*s, *s.add(1))
            };
            w[l] = re;
            w[lanes + l] = if adj { -im } else { im };
        }
        // SAFETY: element r spans [r·2L, (r+1)·2L) ≤ group.len(); `w`
        // holds 2L ≤ 8 f64s.
        unsafe {
            let p = gp.add(r * 2 * lanes);
            VComplex::<V>::load(p)
                .mul(VComplex::<V>::load(w.as_ptr()))
                .store(p);
        }
    }
}

impl Radix2Plan {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        let twiddles: Vec<Complex64> = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        // Precompute the fused-stage twiddle stream: after the optional
        // leading radix-8 (or radix-2 for n = 2) stage, each radix-4 pass
        // fuses stages of size `2h` and `4h`; its lane-k twiddles are
        // wa = e^{-2πik/2h}, wb0 = e^{-2πik/4h}, wb1 = e^{-2πi(k+h)/4h}.
        let (leading, first_len) = if bits.is_multiple_of(2) {
            (Leading::None, 2)
        } else if bits == 1 {
            (Leading::Radix2, 4)
        } else {
            (
                Leading::Radix8 {
                    w1: twiddles[n / 8],
                    w3: twiddles[3 * n / 8],
                },
                16,
            )
        };
        let mut fused = Vec::new();
        let mut len = first_len;
        while len * 2 <= n {
            let h = len / 2;
            let stride1 = n / len;
            let stride2 = n / (len * 2);
            let mut tw = Vec::with_capacity(3 * (h - 1));
            for k in 1..h {
                tw.push(twiddles[k * stride1]);
                tw.push(twiddles[k * stride2]);
                tw.push(twiddles[(k + h) * stride2]);
            }
            fused.push(FusedStage { half: h, tw });
            len *= 4;
        }
        Radix2Plan {
            bitrev,
            twiddles,
            leading,
            fused,
        }
    }

    /// Bit-reversal permutation of the reference kernel.
    #[inline]
    fn permute(&self, data: &mut [Complex64]) {
        for (i, &r) in self.bitrev.iter().enumerate() {
            let r = r as usize;
            if i < r {
                data.swap(i, r);
            }
        }
    }

    /// Iterative decimation-in-time FFT over packed lanes: bit-reversal
    /// permutation, the optional leading radix-2/radix-8 stage, then stages
    /// fused in pairs into radix-4 butterflies (one pass over the data per
    /// pair instead of two). The twiddle stream is precomputed per stage in
    /// traversal order; the `k = 0` lane (twiddles `1, 1, ∓j`) is
    /// special-cased to pure adds/swaps. `INV` selects the unnormalized
    /// inverse (`e^{+2πi/n}` kernel, no `1/n`): the same network with
    /// conjugated twiddles, which lets Bluestein's and Rader's inner
    /// inverses skip the two conjugation passes of `conj(F(conj(·)))`.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn butterflies_v<V: SimdF64, const INV: bool>(&self, data: &mut [f64]) {
        #[inline(always)]
        fn mul_tw_v<V: SimdF64, const INV: bool>(a: VComplex<V>, w: Complex64) -> VComplex<V> {
            let w = if INV { w.conj() } else { w };
            a.mul(VComplex::splat(w))
        }
        let stride = 2 * V::LANES;
        let n = data.len() / stride;
        if n <= 1 {
            return;
        }
        let ptr = data.as_mut_ptr();
        for (i, &r) in self.bitrev.iter().enumerate() {
            let r = r as usize;
            if i < r {
                // SAFETY: i, r < n and i ≠ r — disjoint in-bounds packed
                // elements swap as whole lane groups.
                unsafe {
                    let a = VComplex::<V>::load(ptr.add(i * stride));
                    let b = VComplex::<V>::load(ptr.add(r * stride));
                    a.store(ptr.add(r * stride));
                    b.store(ptr.add(i * stride));
                }
            }
        }
        match &self.leading {
            Leading::None => {}
            Leading::Radix2 => {
                // n = 2: a single radix-2 pair (twiddle 1).
                let mut base = 0;
                while base < n {
                    // SAFETY: base + 1 < n (n is even here).
                    unsafe {
                        let pa = ptr.add(base * stride);
                        let pb = ptr.add((base + 1) * stride);
                        let a = VComplex::<V>::load(pa);
                        let b = VComplex::<V>::load(pb);
                        a.add(b).store(pa);
                        a.sub(b).store(pb);
                    }
                    base += 2;
                }
            }
            Leading::Radix8 { w1, w3 } => {
                // Odd stage count, n ≥ 8: one radix-8 butterfly — the exact
                // composition of the three opening radix-2 levels (lengths
                // 2, 4, 8) with twiddles 1, ∓j, w₈^{±1}, w₈^{±3} — brings
                // the remaining count even for the radix-4 passes.
                let (w1, w3) = if INV {
                    (w1.conj(), w3.conj())
                } else {
                    (*w1, *w3)
                };
                let w1 = VComplex::<V>::splat(w1);
                let w3 = VComplex::<V>::splat(w3);
                let mut base = 0;
                while base < n {
                    // SAFETY: base + 7 < n (n is a multiple of 8 here); the
                    // octet's packed elements are disjoint and in bounds.
                    unsafe {
                        let a0 = VComplex::<V>::load(ptr.add(base * stride));
                        let a1 = VComplex::<V>::load(ptr.add((base + 1) * stride));
                        let a2 = VComplex::<V>::load(ptr.add((base + 2) * stride));
                        let a3 = VComplex::<V>::load(ptr.add((base + 3) * stride));
                        let a4 = VComplex::<V>::load(ptr.add((base + 4) * stride));
                        let a5 = VComplex::<V>::load(ptr.add((base + 5) * stride));
                        let a6 = VComplex::<V>::load(ptr.add((base + 6) * stride));
                        let a7 = VComplex::<V>::load(ptr.add((base + 7) * stride));
                        // Level 1 (pairs).
                        let b0 = a0.add(a1);
                        let b1 = a0.sub(a1);
                        let b2 = a2.add(a3);
                        let b3 = a2.sub(a3);
                        let b4 = a4.add(a5);
                        let b5 = a4.sub(a5);
                        let b6 = a6.add(a7);
                        let b7 = a6.sub(a7);
                        // Level 2 (quartets, twiddles 1 and ∓j).
                        let t3 = b3.rot::<INV>();
                        let t7 = b7.rot::<INV>();
                        let c0 = b0.add(b2);
                        let c2 = b0.sub(b2);
                        let c1 = b1.add(t3);
                        let c3 = b1.sub(t3);
                        let c4 = b4.add(b6);
                        let c6 = b4.sub(b6);
                        let c5 = b5.add(t7);
                        let c7 = b5.sub(t7);
                        // Level 3 (octet, twiddles 1, w₈, ∓j, w₈³).
                        let e5 = c5.mul(w1);
                        let t6 = c6.rot::<INV>();
                        let e7 = c7.mul(w3);
                        c0.add(c4).store(ptr.add(base * stride));
                        c0.sub(c4).store(ptr.add((base + 4) * stride));
                        c1.add(e5).store(ptr.add((base + 1) * stride));
                        c1.sub(e5).store(ptr.add((base + 5) * stride));
                        c2.add(t6).store(ptr.add((base + 2) * stride));
                        c2.sub(t6).store(ptr.add((base + 6) * stride));
                        c3.add(e7).store(ptr.add((base + 3) * stride));
                        c3.sub(e7).store(ptr.add((base + 7) * stride));
                    }
                    base += 8;
                }
            }
        }
        for stage in &self.fused {
            let h = stage.half;
            let block = 4 * h;
            let tw = stage.tw.as_ptr();
            let mut base = 0;
            while base < n {
                // SAFETY: every packed element index below is
                // < base + 4h ≤ n, and the twiddle stream holds 3·(h−1)
                // entries read at ti < 3(h−1).
                unsafe {
                    // k = 0: wa = wb0 = 1, wb1 = ∓j — no multiplies.
                    let p0 = ptr.add(base * stride);
                    let p1 = ptr.add((base + h) * stride);
                    let p2 = ptr.add((base + 2 * h) * stride);
                    let p3 = ptr.add((base + 3 * h) * stride);
                    let a0 = VComplex::<V>::load(p0);
                    let a1 = VComplex::<V>::load(p1);
                    let a2 = VComplex::<V>::load(p2);
                    let a3 = VComplex::<V>::load(p3);
                    let u0 = a0.add(a1);
                    let u1 = a0.sub(a1);
                    let u2 = a2.add(a3);
                    let u3 = a2.sub(a3);
                    let v1 = u3.rot::<INV>();
                    u0.add(u2).store(p0);
                    u0.sub(u2).store(p2);
                    u1.add(v1).store(p1);
                    u1.sub(v1).store(p3);
                    let mut ti = 0;
                    for k in 1..h {
                        let wa = *tw.add(ti);
                        let wb0 = *tw.add(ti + 1);
                        let wb1 = *tw.add(ti + 2);
                        ti += 3;
                        let p0 = ptr.add((base + k) * stride);
                        let p1 = ptr.add((base + k + h) * stride);
                        let p2 = ptr.add((base + k + 2 * h) * stride);
                        let p3 = ptr.add((base + k + 3 * h) * stride);
                        let a0 = VComplex::<V>::load(p0);
                        let a1 = mul_tw_v::<V, INV>(VComplex::load(p1), wa);
                        let a2 = VComplex::<V>::load(p2);
                        let a3 = mul_tw_v::<V, INV>(VComplex::load(p3), wa);
                        let u0 = a0.add(a1);
                        let u1 = a0.sub(a1);
                        let u2 = a2.add(a3);
                        let u3 = a2.sub(a3);
                        let v0 = mul_tw_v::<V, INV>(u2, wb0);
                        let v1 = mul_tw_v::<V, INV>(u3, wb1);
                        u0.add(v0).store(p0);
                        u0.sub(v0).store(p2);
                        u1.add(v1).store(p1);
                        u1.sub(v1).store(p3);
                    }
                }
                base += block;
            }
        }
    }

    /// The pre-optimization butterfly loop: one radix-2 pass per stage.
    fn forward_reference(&self, data: &mut [Complex64]) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        self.permute(data);
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for base in (0..n).step_by(len) {
                for k in 0..half {
                    let w = self.twiddles[k * stride];
                    let a = data[base + k];
                    let b = data[base + k + half] * w;
                    data[base + k] = a + b;
                    data[base + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }
}

impl BluesteinPlan {
    fn new(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        let inner = Radix2Plan::new(m);
        // c_j = e^{-iπ j²/n}. j² is reduced mod 2n in integer arithmetic so
        // the phase argument stays small and fully precise for large n.
        let two_n = 2 * n as u64;
        let chirp: Vec<Complex64> = (0..n as u64)
            .map(|j| Complex64::cis(-PI * ((j * j) % two_n) as f64 / n as f64))
            .collect();
        // Wrapped conjugate chirp B: B[0..n) = conj(c), B[m-j] = conj(c_j).
        let mut b = vec![Complex64::ZERO; m];
        for j in 0..n {
            b[j] = chirp[j].conj();
            if j > 0 {
                b[m - j] = chirp[j].conj();
            }
        }
        inner.butterflies_v::<F64x1, false>(interleaved_mut(&mut b));
        let inv_m = 1.0 / m as f64;
        let post_chirp = chirp.iter().map(|&c| c * inv_m).collect();
        BluesteinPlan {
            m,
            inner,
            chirp,
            post_chirp,
            chirp_spectrum: b,
        }
    }

    /// Chirp-z transform over packed lanes; `scratch` must hold at least
    /// `m·2L` f64s.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn forward_v<V: SimdF64>(&self, data: &mut [f64], scratch: &mut [f64]) {
        let stride = 2 * V::LANES;
        let n = data.len() / stride;
        let m = self.m;
        let buf = &mut scratch[..m * stride];
        // a_j = x_j · c_j, zero padded to m.
        {
            let dp = data.as_ptr();
            let bp = buf.as_mut_ptr();
            for j in 0..n {
                // SAFETY: j < n ≤ m packed elements on both sides.
                unsafe {
                    let x = VComplex::<V>::load(dp.add(j * stride));
                    x.mul(VComplex::splat(self.chirp[j]))
                        .store(bp.add(j * stride));
                }
            }
        }
        buf[n * stride..].fill(0.0);
        // Pointwise multiply with the chirp spectrum (the circular
        // convolution theorem) between the forward and the unnormalized
        // inner inverse, then X_k = c_k/m · conv_k.
        self.inner.butterflies_v::<V, false>(buf);
        mul_coeffs_packed::<V>(buf, &self.chirp_spectrum);
        self.inner.butterflies_v::<V, true>(buf);
        {
            let bp = buf.as_ptr();
            let dp = data.as_mut_ptr();
            for k in 0..n {
                // SAFETY: k < n ≤ m packed elements on both sides.
                unsafe {
                    let s = VComplex::<V>::load(bp.add(k * stride));
                    s.mul(VComplex::splat(self.post_chirp[k]))
                        .store(dp.add(k * stride));
                }
            }
        }
    }

    /// The pre-optimization Bluestein pipeline: full-buffer re-zeroing,
    /// radix-2 inner transforms, and the conj-sandwich inner inverse.
    fn forward_reference(&self, data: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        let n = data.len();
        let m = self.m;
        scratch.clear();
        scratch.resize(m, Complex64::ZERO);
        for j in 0..n {
            scratch[j] = data[j] * self.chirp[j];
        }
        self.inner.forward_reference(scratch);
        for (s, &h) in scratch.iter_mut().zip(&self.chirp_spectrum) {
            *s *= h;
        }
        for z in scratch.iter_mut() {
            *z = z.conj();
        }
        self.inner.forward_reference(scratch);
        let inv_m = 1.0 / m as f64;
        for k in 0..n {
            data[k] = scratch[k].conj() * inv_m * self.chirp[k];
        }
    }
}

/// Rader's prime-length FFT: for prime `p`, the nonzero outputs
/// `X[g^{−t}]` are `x₀` plus the length-`q = p−1` cyclic convolution of
/// the generator-permuted input `a[m] = x[g^m]` with `b[r] = W^{g^{−r}}`
/// (`W = e^{−2πi/p}`, `g` a primitive root mod `p`). The convolution runs
/// through the radix-2 kernel when `q` is a power of two, else the
/// Stockham pipeline — applicable exactly when `q` is 2·3·5·7-smooth.
/// `DFT(b)/q` is precomputed; the runtime cost is one forward + one
/// unnormalized inverse at length `q`, versus Bluestein's pair at
/// `m ≥ 2p−1`.
#[derive(Debug)]
struct RaderPlan {
    p: usize,
    /// `perm_in[m] = g^m mod p` — gather order for `a`.
    perm_in: Vec<u32>,
    /// `perm_out[t] = g^{−t} mod p` — scatter target for `x₀ + conv[t]`.
    perm_out: Vec<u32>,
    /// Forward inner transform of `b[r] = W^{g^{−r}} / q` (the `1/q`
    /// normalization of the unnormalized inner inverse folded in).
    b_spec: Vec<Complex64>,
    inner: RaderInner,
}

#[derive(Debug)]
enum RaderInner {
    Radix2(Radix2Plan),
    Mixed(MixedRadixPlan),
}

impl RaderPlan {
    /// Builds a plan for prime `p` with 2·3·5·7-smooth `p − 1`; `None` if
    /// `p` does not qualify (then Bluestein stays the fallback).
    fn try_new(p: usize) -> Option<Self> {
        if p < 3 || p > u32::MAX as usize || !is_prime(p) {
            return None;
        }
        let q = p - 1;
        let inner = if q.is_power_of_two() {
            RaderInner::Radix2(Radix2Plan::new(q))
        } else {
            RaderInner::Mixed(MixedRadixPlan::new(q, &MixedRadixPlan::factorize(q)?))
        };
        let g = primitive_root(p as u64);
        let g_inv = mod_pow(g, (p - 2) as u64, p as u64);
        let mut perm_in = Vec::with_capacity(q);
        let mut perm_out = Vec::with_capacity(q);
        let (mut f, mut fi) = (1u64, 1u64);
        for _ in 0..q {
            perm_in.push(f as u32);
            perm_out.push(fi as u32);
            f = f * g % p as u64;
            fi = fi * g_inv % p as u64;
        }
        let inv_q = 1.0 / q as f64;
        let mut b: Vec<Complex64> = perm_out
            .iter()
            .map(|&e| Complex64::cis(-2.0 * PI * e as f64 / p as f64) * inv_q)
            .collect();
        let spec = interleaved_mut(&mut b);
        match &inner {
            RaderInner::Radix2(plan) => plan.butterflies_v::<F64x1, false>(spec),
            RaderInner::Mixed(plan) => plan.forward_slice_v::<F64x1>(spec, &mut vec![0.0; 2 * q]),
        }
        Some(RaderPlan {
            p,
            perm_in,
            perm_out,
            b_spec: b,
            inner,
        })
    }

    /// Rader's transform over packed lanes; `scratch` must hold at least
    /// `2q·2L` f64s.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn forward_v<V: SimdF64>(&self, data: &mut [f64], scratch: &mut [f64]) {
        let stride = 2 * V::LANES;
        let q = self.p - 1;
        let (a, rest) = scratch.split_at_mut(q * stride);
        let x0;
        let mut x0_sum;
        {
            let dp = data.as_ptr();
            let ap = a.as_mut_ptr();
            // SAFETY: element 0 of a p-element packed buffer.
            x0 = unsafe { VComplex::<V>::load(dp) };
            x0_sum = x0;
            for (mi, &idx) in self.perm_in.iter().enumerate() {
                // SAFETY: 1 ≤ idx < p elements of data; mi < q elements
                // of the convolution buffer.
                unsafe {
                    let v = VComplex::<V>::load(dp.add(idx as usize * stride));
                    v.store(ap.add(mi * stride));
                    x0_sum = x0_sum.add(v);
                }
            }
        }
        match &self.inner {
            RaderInner::Radix2(plan) => {
                plan.butterflies_v::<V, false>(a);
                mul_coeffs_packed::<V>(a, &self.b_spec);
                plan.butterflies_v::<V, true>(a);
            }
            RaderInner::Mixed(plan) => {
                let rest = &mut rest[..q * stride];
                plan.forward_slice_v::<V>(a, rest);
                mul_coeffs_packed::<V>(a, &self.b_spec);
                // Unnormalized inverse via the conj sandwich (the 1/q is
                // folded into b_spec).
                conj_packed::<V>(a);
                plan.forward_slice_v::<V>(a, rest);
                conj_packed::<V>(a);
            }
        }
        // X[0] = Σ x; X[g^{−t}] = x₀ + conv[t].
        {
            let ap = a.as_ptr();
            let dp = data.as_mut_ptr();
            // SAFETY: element 0 of the packed output.
            unsafe { x0_sum.store(dp) };
            for (t, &idx) in self.perm_out.iter().enumerate() {
                // SAFETY: t < q convolution elements; 1 ≤ idx < p outputs.
                unsafe {
                    let conv = VComplex::<V>::load(ap.add(t * stride));
                    x0.add(conv).store(dp.add(idx as usize * stride));
                }
            }
        }
    }
}

/// Deterministic trial-division primality (plan construction only).
fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// `b^e mod m` by square-and-multiply (`m < 2³²`, so products fit u64).
fn mod_pow(mut b: u64, mut e: u64, m: u64) -> u64 {
    let mut acc = 1u64;
    b %= m;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * b % m;
        }
        b = b * b % m;
        e >>= 1;
    }
    acc
}

/// Smallest primitive root mod prime `p`: the first `g` with
/// `g^{(p−1)/f} ≠ 1` for every prime factor `f` of `p − 1`.
fn primitive_root(p: u64) -> u64 {
    let q = p - 1;
    let mut factors = Vec::new();
    let mut rem = q;
    let mut d = 2;
    while d * d <= rem {
        if rem.is_multiple_of(d) {
            factors.push(d);
            while rem.is_multiple_of(d) {
                rem /= d;
            }
        }
        d += 1;
    }
    if rem > 1 {
        factors.push(rem);
    }
    (2..p)
        .find(|&g| factors.iter().all(|&f| mod_pow(g, q / f, p) != 1))
        .expect("every prime has a primitive root")
}

/// Stockham autosort mixed-radix FFT (decimation in frequency) for
/// 2·3·5·7-smooth lengths — which covers every resolution the paper
/// evaluates (200 = 2³·5², 350 = 2·5²·7, 500 = 2²·5³). Compared to the
/// Bluestein fallback this avoids the two length-`m ≥ 2n` inner transforms
/// and all chirp passes: one streaming pass per factor, ping-ponging
/// between the data and one scratch buffer, no permutation pass.
#[derive(Debug)]
struct MixedRadixPlan {
    n: usize,
    stages: Vec<MixedStage>,
}

/// One radix-`r` Stockham pass. Entering sub-transform length is
/// `n' = radix·m`; `s` is the product of previously processed radices.
#[derive(Debug)]
struct MixedStage {
    radix: usize,
    m: usize,
    s: usize,
    /// `tw[p·r + u] = e^{−2πi·p·u/n'}` — the post-butterfly twiddles.
    tw: Vec<Complex64>,
    /// `roots[u·r + t] = e^{−2πi·t·u/r}` — the r-point DFT matrix, rows
    /// laid out per output `u` for sequential access.
    roots: Vec<Complex64>,
}

impl MixedRadixPlan {
    /// Returns the stage radix sequence if `n` is 2·3·5·7-smooth (and not
    /// a power of two, which the dedicated radix-2 plan handles), else
    /// `None`. Radix-4/2 stages run first (short strides), the pricier
    /// odd radices last where the inner stride-`s` loops are long.
    fn factorize(n: usize) -> Option<Vec<usize>> {
        let mut rem = n;
        let mut count = [0usize; 4]; // twos, threes, fives, sevens
        for (i, p) in [2usize, 3, 5, 7].into_iter().enumerate() {
            while rem.is_multiple_of(p) {
                rem /= p;
                count[i] += 1;
            }
        }
        if rem != 1 {
            return None;
        }
        let mut factors = Vec::new();
        factors.extend(std::iter::repeat_n(4, count[0] / 2));
        if count[0] % 2 == 1 {
            factors.push(2);
        }
        factors.extend(std::iter::repeat_n(3, count[1]));
        factors.extend(std::iter::repeat_n(5, count[2]));
        factors.extend(std::iter::repeat_n(7, count[3]));
        Some(factors)
    }

    fn new(n: usize, factors: &[usize]) -> Self {
        let mut stages = Vec::with_capacity(factors.len());
        let mut np = n; // sub-transform length entering the stage
        let mut s = 1;
        for &r in factors {
            let m = np / r;
            let mut tw = Vec::with_capacity(m * r);
            for p in 0..m {
                for u in 0..r {
                    tw.push(Complex64::cis(-2.0 * PI * (p * u) as f64 / np as f64));
                }
            }
            let mut roots = Vec::with_capacity(r * r);
            for u in 0..r {
                for t in 0..r {
                    roots.push(Complex64::cis(-2.0 * PI * ((t * u) % r) as f64 / r as f64));
                }
            }
            stages.push(MixedStage {
                radix: r,
                m,
                s,
                tw,
                roots,
            });
            np = m;
            s *= r;
        }
        debug_assert_eq!(np, 1, "factorization must cover n");
        MixedRadixPlan { n, stages }
    }

    /// Stockham pipeline over packed lanes, ping-ponging between `data` and
    /// `scratch`, which must hold at least `n·2L` f64s (Rader's plan carves
    /// it out of one shared allocation).
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn forward_slice_v<V: SimdF64>(&self, data: &mut [f64], scratch: &mut [f64]) {
        let stride = 2 * V::LANES;
        let scratch = &mut scratch[..self.n * stride];
        let mut in_data = true;
        for stage in &self.stages {
            if in_data {
                Self::step_v::<V>(stage, data, scratch);
            } else {
                Self::step_v::<V>(stage, scratch, data);
            }
            in_data = !in_data;
        }
        if !in_data {
            data.copy_from_slice(scratch);
        }
    }

    /// One Stockham pass at `V::LANES` lanes (see [`MixedRadixPlan::pass_v`]).
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn step_v<V: SimdF64>(stage: &MixedStage, src: &[f64], dst: &mut [f64]) {
        if V::LANES == 1 {
            Self::step_one_lane(stage, src, dst);
        } else {
            Self::pass_v::<V>(stage, src, dst);
        }
    }

    /// The one-lane pass, kept out of line. One lane has no target feature
    /// to carry into the pass, and flattening every pass into the whole
    /// 2-D pipeline measured 5–25% slower at one lane (100², 197², 200²).
    #[inline(never)]
    fn step_one_lane(stage: &MixedStage, src: &[f64], dst: &mut [f64]) {
        Self::pass_v::<F64x1>(stage, src, dst);
    }

    /// One Stockham DIF pass: gather `r` points strided `s·m` apart, apply
    /// the r-point DFT, twiddle by `w^{p·u}`, scatter with stride `s`.
    /// All element indices stay below `n' · s = n` by the stage invariants;
    /// packed offsets scale them by `2L`.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn pass_v<V: SimdF64>(stage: &MixedStage, src: &[f64], dst: &mut [f64]) {
        let stride = 2 * V::LANES;
        let (r, m, s) = (stage.radix, stage.m, stage.s);
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        match r {
            2 => {
                for p in 0..m {
                    // u = 0 twiddle is 1; only the u = 1 lane twiddles.
                    let w = VComplex::<V>::splat(stage.tw[p * 2 + 1]);
                    for q in 0..s {
                        // SAFETY: q + s·(p + m·t) < s·m·r = n and
                        // q + s·(r·p + u) < n (see method docs).
                        unsafe {
                            let a = VComplex::<V>::load(sp.add((q + s * p) * stride));
                            let b = VComplex::<V>::load(sp.add((q + s * (p + m)) * stride));
                            a.add(b).store(dp.add((q + s * (2 * p)) * stride));
                            a.sub(b)
                                .mul(w)
                                .store(dp.add((q + s * (2 * p + 1)) * stride));
                        }
                    }
                }
            }
            4 => {
                for p in 0..m {
                    let w1 = VComplex::<V>::splat(stage.tw[p * 4 + 1]);
                    let w2 = VComplex::<V>::splat(stage.tw[p * 4 + 2]);
                    let w3 = VComplex::<V>::splat(stage.tw[p * 4 + 3]);
                    for q in 0..s {
                        // SAFETY: as above; all element indices < n.
                        unsafe {
                            let a0 = VComplex::<V>::load(sp.add((q + s * p) * stride));
                            let a1 = VComplex::<V>::load(sp.add((q + s * (p + m)) * stride));
                            let a2 = VComplex::<V>::load(sp.add((q + s * (p + 2 * m)) * stride));
                            let a3 = VComplex::<V>::load(sp.add((q + s * (p + 3 * m)) * stride));
                            let t0 = a0.add(a2);
                            let t1 = a1.add(a3);
                            let t2 = a0.sub(a2);
                            let t3 = a1.sub(a3);
                            // -j·t3 and +j·t3
                            let jt3 = t3.rot::<false>();
                            t0.add(t1).store(dp.add((q + s * (4 * p)) * stride));
                            t2.add(jt3)
                                .mul(w1)
                                .store(dp.add((q + s * (4 * p + 1)) * stride));
                            t0.sub(t1)
                                .mul(w2)
                                .store(dp.add((q + s * (4 * p + 2)) * stride));
                            t2.sub(jt3)
                                .mul(w3)
                                .store(dp.add((q + s * (4 * p + 3)) * stride));
                        }
                    }
                }
            }
            _ => {
                let mut at = [VComplex::<V>::splat(Complex64::ZERO); 8];
                for p in 0..m {
                    let wrow = &stage.tw[p * r..(p + 1) * r];
                    for q in 0..s {
                        // SAFETY: as above; all indices < n, r ≤ 7 < at.len().
                        unsafe {
                            for (t, a) in at[..r].iter_mut().enumerate() {
                                *a = VComplex::load(sp.add((q + s * (p + m * t)) * stride));
                            }
                            for (u, &w) in wrow.iter().enumerate() {
                                let row = &stage.roots[u * r..u * r + r];
                                let mut acc = at[0];
                                for t in 1..r {
                                    acc = acc.add(at[t].mul(VComplex::splat(row[t])));
                                }
                                acc.mul(VComplex::splat(w))
                                    .store(dp.add((q + s * (r * p + u)) * stride));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Global plan cache keyed by transform length. Eviction semantics live
/// in [`PinnedCache`]: entries pinned by a live `Fft2` (and therefore a
/// live model or propagator) are never evicted; only plans orphaned by
/// their last user dropping are reclaimable.
static PLAN_CACHE: Mutex<Option<PinnedCache<usize, FftPlan>>> = Mutex::new(None);

/// Soft capacity of the plan cache. A DSE sweep over grid sizes produces a
/// stream of single-use lengths; past the cap, inserting a new plan first
/// evicts **orphaned** entries (refcount-held by nobody but the cache),
/// stalest hit first. Entries pinned by live plans are never evicted, so
/// the cache may exceed the cap while more than `PLAN_CACHE_CAP` distinct
/// lengths are simultaneously alive — in that state the cache is not the
/// retainer.
pub const PLAN_CACHE_CAP: usize = 64;

/// Returns a cached plan for length `n`, creating it on first use.
///
/// The cache is process-global and thread-safe; this is the fast path used
/// by all LightRidge propagation kernels. The LightPipes-style baseline
/// deliberately bypasses it to model plan-per-call overhead. Capacity
/// eviction is refcount-aware (see [`PLAN_CACHE_CAP`]); retired-model
/// cleanup goes through [`sweep_orphaned_plans`].
pub fn planner(n: usize) -> Arc<FftPlan> {
    let mut guard = PLAN_CACHE.lock();
    let cache = guard.get_or_insert_with(PinnedCache::new);
    if let Some(hit) = cache.hit(&n) {
        return hit;
    }
    let plan = Arc::new(FftPlan::new(n));
    cache.insert(n, Arc::clone(&plan), PLAN_CACHE_CAP);
    plan
}

/// Drops every cached plan that nothing outside the cache references any
/// more, returning how many were evicted. The serving runtime calls this
/// after reclaiming a retired model: the model's `Fft2`s (and their plan
/// `Arc`s) are gone by then, so its prewarmed plans show up here as
/// orphans — while plans shared with still-live models stay pinned and
/// survive, preserving flat first-request latency for the survivors.
pub fn sweep_orphaned_plans() -> usize {
    PLAN_CACHE
        .lock()
        .as_mut()
        .map_or(0, PinnedCache::sweep_orphans)
}

/// Clears the global plan cache (used by the runtime ablation benches).
pub fn clear_plan_cache() {
    *PLAN_CACHE.lock() = None;
}

/// Number of plans currently cached.
pub fn plan_cache_len() -> usize {
    PLAN_CACHE.lock().as_ref().map_or(0, PinnedCache::len)
}

/// Fields with at least this many samples split their row/column passes
/// across the persistent worker pool (200² and larger at the paper's
/// resolutions).
const PAR_MIN_LEN: usize = 32_768;

/// Columns the column pass stages per block: 32 samples (512 bytes) of
/// each row, so the gather and scatter run at near-streaming bandwidth. A
/// multiple of every lane count, so a block splits into whole lane groups.
const COL_BLOCK: usize = 32;

/// f64s of lane staging a `rows × cols` plane needs at `lanes` lanes: one
/// group of `lanes` rows, or one block of up to [`COL_BLOCK`] columns.
fn stage_len(rows: usize, cols: usize, lanes: usize) -> usize {
    (2 * lanes * cols).max(2 * rows * COL_BLOCK.min(cols))
}

/// Owned scratch for one [`Fft2`] shape.
///
/// Holds the lane staging of the 2-D pipeline (one group of `L` rows or one
/// block of columns, in the split re/im lane-major layout) and the plan
/// scratch of both axes (the Bluestein/Rader/Stockham convolution
/// buffers) at `L` lanes. [`Fft2::make_workspace`] sizes both for the
/// runtime dispatch width, once per shape; see the module docs for the
/// full workspace-reuse contract.
#[derive(Debug, Clone)]
pub struct Fft2Workspace {
    rows: usize,
    cols: usize,
    stage: Vec<f64>,
    scratch: Vec<f64>,
}

impl Fft2Workspace {
    /// Shape this workspace serves.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Heap bytes held by this workspace's scratch buffers (capacity, not
    /// length). Feeds the serving runtime's resident-memory accounting.
    pub fn resident_bytes(&self) -> usize {
        (self.stage.capacity() + self.scratch.capacity()) * std::mem::size_of::<f64>()
    }

    /// Grows the buffers to serve `lanes`-wide groups when the axis plans
    /// need at most `plan_scratch` elements. A no-op once sized
    /// (steady-state zero allocation).
    fn ensure(&mut self, plan_scratch: usize, lanes: usize) {
        let stage = stage_len(self.rows, self.cols, lanes);
        if self.stage.len() < stage {
            self.stage.resize(stage, 0.0);
        }
        let scratch = 2 * lanes * plan_scratch;
        if self.scratch.len() < scratch {
            self.scratch.resize(scratch, 0.0);
        }
    }
}

/// Caller-owned scratch for the batched 2-D entry points
/// ([`Fft2::fft2_batch_with`] / [`Fft2::ifft2_batch_with`] /
/// [`Fft2::process_batch_with`]).
///
/// Per-plane scratch is independent of the batch count — every plane of a
/// [`FieldBatch`] reuses the one wrapped [`Fft2Workspace`] — so a single
/// `BatchWorkspace` serves any `B` at its shape with **zero allocations**
/// in steady state, exactly like the per-sample workspace contract (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct BatchWorkspace {
    fft: Fft2Workspace,
}

impl BatchWorkspace {
    /// Plane shape this workspace serves.
    pub fn shape(&self) -> (usize, usize) {
        self.fft.shape()
    }

    /// The wrapped per-plane 2-D workspace.
    pub fn fft_mut(&mut self) -> &mut Fft2Workspace {
        &mut self.fft
    }

    /// Heap bytes held by this workspace's scratch buffers.
    pub fn resident_bytes(&self) -> usize {
        self.fft.resident_bytes()
    }
}

/// A 2-D FFT engine for a fixed field shape, holding one plan per axis.
///
/// # Examples
///
/// ```
/// use lr_tensor::{Complex64, Field, Fft2};
/// let fft = Fft2::new(4, 6);
/// let f = Field::from_fn(4, 6, |r, c| Complex64::new((r + c) as f64, 0.0));
/// let mut g = f.clone();
/// fft.forward(&mut g);
/// fft.inverse(&mut g);
/// assert!(f.distance(&g) < 1e-10);
/// ```
///
/// Allocation-sensitive callers own their scratch explicitly:
///
/// ```
/// use lr_tensor::{Complex64, Field, Fft2, Direction};
/// let fft = Fft2::new(8, 8);
/// let mut ws = fft.make_workspace();
/// let mut f = Field::ones(8, 8);
/// fft.process_with(&mut f, Direction::Forward, &mut ws); // no allocation
/// ```
#[derive(Debug, Clone)]
pub struct Fft2 {
    rows: usize,
    cols: usize,
    row_plan: Arc<FftPlan>,
    col_plan: Arc<FftPlan>,
}

/// Scoped kernel timer for one FFT pass, attributed to the algorithm the
/// plan actually dispatches to (Stockham mixed-radix or Bluestein chirp-z;
/// pure radix-2/4 plans are only charged to the pass itself). Free when
/// kernel profiling is disabled — `KernelTimer::start*` returns an inert
/// guard without reading the clock.
#[inline]
fn pass_timer(kind: KernelKind, plan: &FftPlan) -> KernelTimer {
    if plan.is_bluestein() {
        KernelTimer::start_attributed(kind, KernelKind::Bluestein)
    } else if plan.is_mixed_radix() {
        KernelTimer::start_attributed(kind, KernelKind::Stockham)
    } else if plan.is_rader() {
        KernelTimer::start_attributed(kind, KernelKind::Rader)
    } else {
        KernelTimer::start(kind)
    }
}

/// Profile cell charging a plane's work to the ISA of the level that ran
/// it (`simd_sse2` / `simd_avx2` / `simd_neon` / `simd_portable`;
/// `simd_scalar` for one-lane dispatch).
#[inline]
fn simd_cell(level: SimdLevel) -> KernelKind {
    match level.isa_name() {
        "sse2" => KernelKind::SimdSse2,
        "avx2" => KernelKind::SimdAvx2,
        "neon" => KernelKind::SimdNeon,
        "portable" => KernelKind::SimdPortable,
        _ => KernelKind::SimdScalar,
    }
}

/// What the 2-D pipeline does to each plane.
#[derive(Clone, Copy)]
enum PlaneOp<'a> {
    /// A forward or inverse 2-D FFT.
    Fft(Direction),
    /// The fused `IFFT2( FFT2(plane) ⊙ H )` step; `adj` multiplies by `H̄`.
    Convolve {
        transfer: &'a [Complex64],
        adj: bool,
    },
}

impl<'a> PlaneOp<'a> {
    /// The passes this op runs, in order: rows then columns per transform.
    fn passes(self) -> impl Iterator<Item = Pass<'a>> {
        let (dir, mul) = match self {
            PlaneOp::Fft(dir) => (dir, None),
            PlaneOp::Convolve { transfer, adj } => (Direction::Forward, Some((transfer, adj))),
        };
        let inverse = mul.map(|_| {
            [
                Pass::Rows(Direction::Inverse),
                Pass::Cols(Direction::Inverse, None),
            ]
        });
        [Pass::Rows(dir), Pass::Cols(dir, mul)]
            .into_iter()
            .chain(inverse.into_iter().flatten())
    }
}

/// One pass of a plane op over every row or every column.
#[derive(Clone, Copy)]
enum Pass<'a> {
    Rows(Direction),
    /// Columns; with a transfer, each column group is multiplied by it
    /// (conjugated when the flag is set) right after its transform.
    Cols(Direction, Option<(&'a [Complex64], bool)>),
}

/// Lines `lo..hi` (rows or columns) of one plane's pass, as a lane job:
/// [`simd::run`] picks the lane type, and every pass of every entry point
/// — per-sample, batched, pooled — runs through here.
struct PassJob<'a> {
    fft: &'a Fft2,
    /// The plane's interleaved samples.
    data: RowsPtr,
    pass: Pass<'a>,
    lo: usize,
    hi: usize,
    stage: &'a mut [f64],
    scratch: &'a mut [f64],
}

impl LaneJob for PassJob<'_> {
    type Output = ();

    #[cfg_attr(not(debug_assertions), inline(always))]
    fn run<V: SimdF64>(self) {
        let PassJob {
            fft,
            data,
            pass,
            lo,
            hi,
            stage,
            scratch,
        } = self;
        // SAFETY: whoever builds the job hands it lines lo..hi of a live
        // plane that nothing else touches during the job, with `stage` and
        // `scratch` sized by `stage_len` / the plan scratch at the level
        // `simd::run` dispatches (see `Fft2::drive`/`Fft2::pass_pooled`).
        unsafe {
            match pass {
                Pass::Rows(dir) => fft.rows_v::<V>(data.0, lo, hi, dir, stage, scratch),
                Pass::Cols(dir, mul) => {
                    let full = lo + (hi - lo) / V::LANES * V::LANES;
                    fft.cols_v::<V>(data.0, lo, full, dir, mul, stage, scratch);
                    fft.cols_v::<F64x1>(data.0, full, hi, dir, mul, stage, scratch);
                }
            }
        }
    }
}

impl Fft2 {
    /// Builds (or fetches from the global cache) plans for a `rows × cols`
    /// field.
    pub fn new(rows: usize, cols: usize) -> Self {
        Fft2 {
            rows,
            cols,
            row_plan: planner(cols),
            col_plan: planner(rows),
        }
    }

    /// Field shape this engine transforms.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Allocates a workspace sized for this engine's shape at the runtime
    /// dispatch width, so every entry point — per-sample, batched, fused
    /// convolve — is allocation-free from its first call.
    pub fn make_workspace(&self) -> Fft2Workspace {
        let mut ws = Fft2Workspace {
            rows: self.rows,
            cols: self.cols,
            stage: Vec::new(),
            scratch: Vec::new(),
        };
        ws.ensure(self.max_plan_scratch(), simd::dispatch().lanes());
        ws
    }

    /// Allocates a batched workspace for this engine's shape (valid for
    /// any batch count — per-plane scratch is batch-independent).
    pub fn make_batch_workspace(&self) -> BatchWorkspace {
        BatchWorkspace {
            fft: self.make_workspace(),
        }
    }

    /// Widest per-axis plan scratch requirement, in elements.
    fn max_plan_scratch(&self) -> usize {
        self.row_plan.scratch_len().max(self.col_plan.scratch_len())
    }

    /// In-place forward 2-D FFT.
    ///
    /// # Panics
    ///
    /// Panics if `field` does not match the planned shape.
    pub fn forward(&self, field: &mut Field) {
        self.process(field, Direction::Forward);
    }

    /// In-place inverse 2-D FFT (scaled by `1/(rows·cols)`).
    ///
    /// # Panics
    ///
    /// Panics if `field` does not match the planned shape.
    pub fn inverse(&self, field: &mut Field) {
        self.process(field, Direction::Inverse);
    }

    /// In-place 2-D transform in the given direction, using a thread-local
    /// workspace (allocation-free once warm for this shape).
    pub fn process(&self, field: &mut Field, dir: Direction) {
        with_tls_workspace(self, |fft, ws| fft.process_with(field, dir, ws));
    }

    /// In-place 2-D transform using caller-owned scratch. Performs no heap
    /// allocation (in sequential mode; see the module docs for how large
    /// fields borrow per-thread scratch in parallel mode instead).
    ///
    /// # Panics
    ///
    /// Panics if `field` or `workspace` does not match the planned shape.
    pub fn process_with(&self, field: &mut Field, dir: Direction, workspace: &mut Fft2Workspace) {
        assert_eq!(field.shape(), (self.rows, self.cols), "Fft2 shape mismatch");
        self.process_slice_with(field.as_mut_slice(), dir, workspace);
    }

    /// In-place 2-D transform of one row-major `rows × cols` plane given as
    /// a raw sample slice — the batch of one. Zero heap allocation
    /// (sequential mode).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` or `workspace` does not match the planned
    /// shape.
    pub fn process_slice_with(
        &self,
        data: &mut [Complex64],
        dir: Direction,
        workspace: &mut Fft2Workspace,
    ) {
        assert_eq!(
            data.len(),
            self.rows * self.cols,
            "Fft2 plane length mismatch"
        );
        self.drive(data, PlaneOp::Fft(dir), workspace);
    }

    /// Transforms every active plane of `batch` in place: one shared
    /// workspace, one set of plans, the twiddle/chirp tables streamed over
    /// all `B` planes. Bit-identical to `B` separate
    /// [`Fft2::process_with`] calls (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the batch's plane shape or `workspace` does not match the
    /// planned shape.
    pub fn process_batch_with(
        &self,
        batch: &mut FieldBatch,
        dir: Direction,
        workspace: &mut BatchWorkspace,
    ) {
        assert_eq!(
            batch.plane_shape(),
            (self.rows, self.cols),
            "Fft2 batch plane shape mismatch"
        );
        self.drive(batch.as_mut_slice(), PlaneOp::Fft(dir), &mut workspace.fft);
    }

    /// True when one plane's row/column passes split across the worker
    /// pool: large fields, more than one thread, not already pooled.
    fn pooled(&self) -> bool {
        self.rows * self.cols >= PAR_MIN_LEN
            && parallel::threads() > 1
            && !parallel::in_parallel_region()
    }

    /// The one 2-D pipeline behind every entry point: runs `op` on each
    /// row-major plane of `planes` at the [`simd::dispatch`] level, `L`
    /// rows or `L` columns of one plane per vector op, the `rows mod L`
    /// and `cols mod L` leftovers one lane at a time. Every lane runs the
    /// one-lane operation sequence on its own row or column, so results
    /// are bitwise identical at every level and batch size. Large planes
    /// split each pass across the pool ([`Fft2::pass_pooled`]).
    fn drive(&self, planes: &mut [Complex64], op: PlaneOp<'_>, ws: &mut Fft2Workspace) {
        assert_eq!(
            ws.shape(),
            (self.rows, self.cols),
            "Fft2 workspace shape mismatch"
        );
        let plane_len = self.rows * self.cols;
        assert_eq!(planes.len() % plane_len, 0, "Fft2 plane length mismatch");
        let level = simd::dispatch();
        let pooled = self.pooled();
        // Steady-state no-op: `make_workspace` sized the dispatch width.
        ws.ensure(self.max_plan_scratch(), level.lanes());
        for plane in planes.chunks_exact_mut(plane_len) {
            let _t = KernelTimer::start(simd_cell(level));
            let data = RowsPtr(interleaved_mut(plane).as_mut_ptr());
            for pass in op.passes() {
                let _t = match pass {
                    Pass::Rows(_) => pass_timer(KernelKind::FftRows, &self.row_plan),
                    Pass::Cols(..) => pass_timer(KernelKind::FftCols, &self.col_plan),
                };
                if pooled {
                    self.pass_pooled(level, data, pass);
                } else {
                    let hi = match pass {
                        Pass::Rows(_) => self.rows,
                        Pass::Cols(..) => self.cols,
                    };
                    simd::run(
                        level,
                        PassJob {
                            fft: self,
                            data,
                            pass,
                            lo: 0,
                            hi,
                            stage: &mut ws.stage,
                            scratch: &mut ws.scratch,
                        },
                    );
                }
            }
        }
    }

    /// One pass split across the worker pool: tasks take whole lane groups
    /// of rows, or [`COL_BLOCK`]-column blocks, each with per-thread
    /// staging, so pooled planes run at the same lane width.
    fn pass_pooled(&self, level: SimdLevel, data: RowsPtr, pass: Pass<'_>) {
        let lanes = level.lanes();
        let (lines, chunk) = match pass {
            Pass::Rows(_) => {
                let tasks = parallel::threads().min(self.rows) * 4;
                let chunk = self.rows.div_ceil(tasks).next_multiple_of(lanes);
                (self.rows, chunk)
            }
            Pass::Cols(..) => (self.cols, COL_BLOCK),
        };
        let stage = stage_len(self.rows, self.cols, lanes);
        let scratch = 2 * lanes * self.max_plan_scratch();
        parallel::par_for(lines.div_ceil(chunk), |t| {
            let data = &data; // capture the Sync wrapper, not the raw field
            with_thread_scratch(stage, |stage| {
                with_thread_scratch(scratch, |scratch| {
                    // Chunks are whole lane groups (the last may be short),
                    // so tasks touch disjoint lines.
                    simd::run(
                        level,
                        PassJob {
                            fft: self,
                            data: *data,
                            pass,
                            lo: t * chunk,
                            hi: ((t + 1) * chunk).min(lines),
                            stage,
                            scratch,
                        },
                    );
                });
            });
        });
    }

    /// Rows `lo..hi` of the plane at `data`: whole groups of `V::LANES`
    /// rows gathered into the lane staging, transformed and scattered
    /// back; the rest (every row at one lane) one lane in place.
    ///
    /// # Safety
    ///
    /// `data` must point to the plane's `rows·cols` interleaved samples,
    /// with rows `lo..hi` accessed by no one else during the call.
    #[cfg_attr(not(debug_assertions), inline(always))]
    unsafe fn rows_v<V: SimdF64>(
        &self,
        data: *mut f64,
        lo: usize,
        hi: usize,
        dir: Direction,
        stage: &mut [f64],
        scratch: &mut [f64],
    ) {
        let (lanes, cols) = (V::LANES, self.cols);
        let groups = if lanes == 1 { 0 } else { (hi - lo) / lanes };
        let stage = &mut stage[..2 * lanes * cols];
        for g in 0..groups {
            // SAFETY: rows lo + g·L .. lo + (g+1)·L ≤ hi lie inside the
            // plane and belong to this call.
            unsafe {
                let first = data.add(2 * (lo + g * lanes) * cols);
                gather_lanes::<V>(first, cols, 1, cols, 1, stage);
                self.row_plan.process_v::<V>(stage, dir, scratch);
                scatter_lanes::<V>(stage, cols, 1, cols, 1, first);
            }
        }
        for r in lo + groups * lanes..hi {
            // SAFETY: row r < hi is 2·cols f64s inside the plane, borrowed
            // by this call alone.
            let row = unsafe { std::slice::from_raw_parts_mut(data.add(2 * r * cols), 2 * cols) };
            self.row_plan.process_v::<F64x1>(row, dir, scratch);
        }
    }

    /// Columns `lo..hi` (a whole number of `V::LANES`-column groups) in
    /// blocks of up to [`COL_BLOCK`]: each block gathered row by row into
    /// the lane staging, each group transformed (and multiplied by the
    /// transfer when `mul` is set), the block scattered back. No
    /// full-field transpose is ever materialized.
    ///
    /// # Safety
    ///
    /// `data` must point to the plane's `rows·cols` interleaved samples,
    /// with columns `lo..hi` accessed by no one else during the call.
    #[allow(clippy::too_many_arguments)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    unsafe fn cols_v<V: SimdF64>(
        &self,
        data: *mut f64,
        lo: usize,
        hi: usize,
        dir: Direction,
        mul: Option<(&[Complex64], bool)>,
        stage: &mut [f64],
        scratch: &mut [f64],
    ) {
        let (lanes, rows, cols) = (V::LANES, self.rows, self.cols);
        let group_len = 2 * lanes * rows;
        let mut c0 = lo;
        while c0 < hi {
            let groups = COL_BLOCK.min(hi - c0) / lanes;
            let block = &mut stage[..groups * group_len];
            // SAFETY: columns c0 .. c0 + groups·L ≤ hi lie inside the plane
            // and belong to this call.
            let first = unsafe { data.add(2 * c0) };
            // SAFETY: as above.
            unsafe { gather_lanes::<V>(first, rows, cols, 1, groups, block) };
            for (g, group) in block.chunks_exact_mut(group_len).enumerate() {
                self.col_plan.process_v::<V>(group, dir, scratch);
                if let Some((transfer, adj)) = mul {
                    let _t = KernelTimer::start(KernelKind::Transfer);
                    mul_transfer_lanes::<V>(group, &transfer[c0 + g * lanes..], cols, adj);
                }
            }
            // SAFETY: as above.
            unsafe { scatter_lanes::<V>(block, rows, cols, 1, groups, first) };
            c0 += groups * lanes;
        }
    }

    /// Batched forward 2-D FFT over every active plane (see
    /// [`Fft2::process_batch_with`]).
    pub fn fft2_batch_with(&self, batch: &mut FieldBatch, workspace: &mut BatchWorkspace) {
        self.process_batch_with(batch, Direction::Forward, workspace);
    }

    /// Batched inverse 2-D FFT (scaled by `1/(rows·cols)` per plane; see
    /// [`Fft2::process_batch_with`]).
    pub fn ifft2_batch_with(&self, batch: &mut FieldBatch, workspace: &mut BatchWorkspace) {
        self.process_batch_with(batch, Direction::Inverse, workspace);
    }

    /// The pre-optimization 2-D pipeline: transform rows, materialize the
    /// transpose, transform the former columns as rows, transpose back —
    /// two full field allocations and copies per call, plain radix-2
    /// butterflies. Kept as the numerical oracle for the strided kernel and
    /// as the baseline the perf artifacts compare against.
    ///
    /// # Panics
    ///
    /// Panics if `field` does not match the planned shape.
    pub fn process_reference(&self, field: &mut Field, dir: Direction) {
        assert_eq!(field.shape(), (self.rows, self.cols), "Fft2 shape mismatch");
        let mut scratch = self.row_plan.make_scratch();
        for r in 0..self.rows {
            self.row_plan
                .process_reference(field.row_mut(r), dir, &mut scratch);
        }
        let mut t = field.transpose();
        let mut scratch = self.col_plan.make_scratch();
        for r in 0..self.cols {
            self.col_plan
                .process_reference(t.row_mut(r), dir, &mut scratch);
        }
        *field = t.transpose();
    }

    /// Fused `IFFT2( FFT2(field) ⊙ transfer )` — a single-pass free-space
    /// propagation step. This is the operator-fusion fast path the paper's
    /// runtime evaluation credits for part of the speedup.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match.
    pub fn convolve_spectrum(&self, field: &mut Field, transfer: &Field) {
        assert_eq!(field.shape(), (self.rows, self.cols), "Fft2 shape mismatch");
        with_tls_workspace(self, |fft, ws| {
            fft.convolve_planes(field.as_mut_slice(), transfer, false, ws)
        });
    }

    /// Adjoint of [`Fft2::convolve_spectrum`]: propagates a gradient with the
    /// conjugated transfer function. Under the `(1, 1/N)` normalization the
    /// adjoint of `F⁻¹ diag(H) F` is exactly `F⁻¹ diag(H̄) F`.
    pub fn convolve_spectrum_adjoint(&self, grad: &mut Field, transfer: &Field) {
        assert_eq!(grad.shape(), (self.rows, self.cols), "Fft2 shape mismatch");
        with_tls_workspace(self, |fft, ws| {
            fft.convolve_planes(grad.as_mut_slice(), transfer, true, ws)
        });
    }

    /// [`Fft2::convolve_spectrum`] with caller-owned scratch over a
    /// contiguous run of row-major planes (one plane is a batch of one):
    /// the fused `IFFT2( FFT2(plane) ⊙ transfer )` propagation step, with
    /// the transfer multiply applied to each column group while the
    /// forward column pass still holds it. Bitwise identical per plane at
    /// every batch size and dispatch level (each lane runs the one-lane
    /// operation sequence; the multiply is the `Complex64` product
    /// formula lanewise). Zero heap allocation in steady state.
    ///
    /// # Panics
    ///
    /// Panics if `transfer` or `planes` does not match the planned shape.
    pub fn convolve_spectrum_batch_with(
        &self,
        planes: &mut [Complex64],
        transfer: &Field,
        workspace: &mut Fft2Workspace,
    ) {
        self.convolve_planes(planes, transfer, false, workspace);
    }

    /// [`Fft2::convolve_spectrum_adjoint`] with caller-owned scratch over a
    /// run of planes: gradient propagation with the conjugated transfer
    /// function (see [`Fft2::convolve_spectrum_batch_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `transfer` or `planes` does not match the planned shape.
    pub fn convolve_spectrum_adjoint_batch_with(
        &self,
        planes: &mut [Complex64],
        transfer: &Field,
        workspace: &mut Fft2Workspace,
    ) {
        self.convolve_planes(planes, transfer, true, workspace);
    }

    /// Shared body of the convolve entry points; `adj` selects the
    /// conjugated (adjoint) transfer multiply.
    fn convolve_planes(
        &self,
        planes: &mut [Complex64],
        transfer: &Field,
        adj: bool,
        ws: &mut Fft2Workspace,
    ) {
        assert_eq!(
            transfer.shape(),
            (self.rows, self.cols),
            "transfer shape mismatch"
        );
        let transfer = transfer.as_slice();
        self.drive(planes, PlaneOp::Convolve { transfer, adj }, ws);
    }
}

/// Gathers `groups` lane groups of `n`-element lines from an interleaved
/// plane into split re/im lane-major staging. Lane `l` of group `g` is the
/// line starting at sample `(g·L + l)·lane_step` of `src`, its element `i`
/// at `+ i·elem_step`; that sample lands at `dst[(g·n + i)·2L + l]` (re)
/// and `+ L` (im). A group of rows uses `elem_step = 1, lane_step = cols`;
/// a block of columns `elem_step = cols, lane_step = 1`, so each row's
/// slice of the block is read contiguously.
///
/// Takes a raw base pointer so concurrent tasks working on *disjoint*
/// lines of one plane never materialize overlapping `&`/`&mut` slices
/// (which would be UB even with disjoint element access).
///
/// # Safety
///
/// Every addressed sample must lie inside one live plane that no other
/// thread writes in these lines during the call.
#[cfg_attr(not(debug_assertions), inline(always))]
unsafe fn gather_lanes<V: SimdF64>(
    src: *const f64,
    n: usize,
    elem_step: usize,
    lane_step: usize,
    groups: usize,
    dst: &mut [f64],
) {
    let lanes = V::LANES;
    assert!(dst.len() >= groups * n * 2 * lanes);
    let d = dst.as_mut_ptr();
    for i in 0..n {
        for g in 0..groups {
            for l in 0..lanes {
                // SAFETY: the source sample is in the caller's lines; the
                // staging offset is < groups·n·2L (checked above).
                unsafe {
                    let s = src.add(2 * (i * elem_step + (g * lanes + l) * lane_step));
                    let o = d.add((g * n + i) * 2 * lanes + l);
                    *o = *s;
                    *o.add(lanes) = *s.add(1);
                }
            }
        }
    }
}

/// Inverse of [`gather_lanes`].
///
/// # Safety
///
/// Every addressed sample must lie inside one live plane that no other
/// thread accesses in these lines during the call.
#[cfg_attr(not(debug_assertions), inline(always))]
unsafe fn scatter_lanes<V: SimdF64>(
    src: &[f64],
    n: usize,
    elem_step: usize,
    lane_step: usize,
    groups: usize,
    dst: *mut f64,
) {
    let lanes = V::LANES;
    assert!(src.len() >= groups * n * 2 * lanes);
    let s = src.as_ptr();
    for i in 0..n {
        for g in 0..groups {
            for l in 0..lanes {
                // SAFETY: same bounds as `gather_lanes`, directions swapped.
                unsafe {
                    let o = dst.add(2 * (i * elem_step + (g * lanes + l) * lane_step));
                    let p = s.add((g * n + i) * 2 * lanes + l);
                    *o = *p;
                    *o.add(1) = *p.add(lanes);
                }
            }
        }
    }
}

/// Shared-buffer pointer handed to disjoint parallel tasks.
#[derive(Clone, Copy)]
struct RowsPtr(*mut f64);
// SAFETY: tasks dereference disjoint index ranges only (see call sites).
unsafe impl Send for RowsPtr {}
// SAFETY: same disjointness argument as `Send` above — shared references
// to the wrapper never alias writes to the same indices.
unsafe impl Sync for RowsPtr {}

thread_local! {
    /// Per-thread pool of scratch buffers for the parallel FFT loops.
    static THREAD_SCRATCH: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
    /// Per-thread [`Fft2Workspace`] cache backing the implicit entry points.
    static TLS_WORKSPACES: RefCell<Vec<Fft2Workspace>> = const { RefCell::new(Vec::new()) };
}

/// Lends a per-thread scratch buffer of length exactly `min_len` to `f`.
/// Buffers are recycled, so steady-state use allocates nothing. Contents
/// are **unspecified** (only growth is zeroed — no full re-zeroing pass);
/// every consumer fully overwrites what it reads.
fn with_thread_scratch<R>(min_len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut buf = THREAD_SCRATCH.with(|pool| {
        let mut pool = pool.borrow_mut();
        let found = pool.iter().position(|b| b.capacity() >= min_len);
        match found {
            Some(i) => pool.swap_remove(i),
            None => Vec::with_capacity(min_len),
        }
    });
    buf.resize(min_len, 0.0);
    let out = f(&mut buf);
    THREAD_SCRATCH.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < 8 {
            pool.push(buf);
        }
    });
    out
}

/// Lends the thread-local workspace for `fft`'s shape to `f`, creating it
/// on first use for that shape on this thread.
fn with_tls_workspace<R>(fft: &Fft2, f: impl FnOnce(&Fft2, &mut Fft2Workspace) -> R) -> R {
    let shape = fft.shape();
    let mut ws = TLS_WORKSPACES.with(|cache| {
        let mut cache = cache.borrow_mut();
        match cache.iter().position(|w| w.shape() == shape) {
            Some(i) => cache.swap_remove(i),
            None => fft.make_workspace(),
        }
    });
    let out = f(fft, &mut ws);
    TLS_WORKSPACES.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() < 8 {
            cache.push(ws);
        }
    });
    out
}

/// Naive `O(n²)` DFT used as a reference in tests.
pub fn dft_naive(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let w = Complex64::cis(sign * 2.0 * PI * (j * k % n) as f64 / n as f64);
            acc += x * w;
        }
        *o = match dir {
            Direction::Forward => acc,
            Direction::Inverse => acc / n as f64,
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(n: usize) {
        let plan = FftPlan::new(n);
        let mut data: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let orig = data.clone();
        let mut scratch = plan.make_scratch();
        plan.process(&mut data, Direction::Forward, &mut scratch);
        plan.process(&mut data, Direction::Inverse, &mut scratch);
        for (a, b) in data.iter().zip(&orig) {
            assert!((*a - *b).norm() < 1e-9, "roundtrip failed for n={n}");
        }
    }

    #[test]
    fn roundtrip_power_of_two() {
        for n in [1, 2, 4, 8, 32, 64, 256, 1024] {
            roundtrip(n);
        }
    }

    #[test]
    fn roundtrip_arbitrary_sizes() {
        for n in [3, 5, 6, 7, 12, 100, 200, 350, 500] {
            roundtrip(n);
        }
    }

    fn against_naive(n: usize) {
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).cos(), (i as f64 * 0.5).sin()))
            .collect();
        let expected = dft_naive(&input, Direction::Forward);
        let plan = FftPlan::new(n);
        let mut data = input.clone();
        let mut scratch = plan.make_scratch();
        plan.process(&mut data, Direction::Forward, &mut scratch);
        for (a, b) in data.iter().zip(&expected) {
            assert!(
                (*a - *b).norm() < 1e-8 * (n as f64),
                "mismatch vs naive DFT at n={n}"
            );
        }
    }

    #[test]
    fn matches_naive_dft() {
        // Powers of two cover both the even (4, 16, 64, 256) and odd
        // (2, 8, 32, 128) stage-count paths of the radix-4 kernel.
        for n in [2, 3, 4, 5, 8, 16, 20, 31, 32, 64, 100, 128, 256] {
            against_naive(n);
        }
    }

    #[test]
    fn radix4_agrees_with_reference_butterflies() {
        for n in [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
            let plan = FftPlan::new(n);
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let mut fast = input.clone();
            let mut slow = input;
            let mut scratch = plan.make_scratch();
            plan.process(&mut fast, Direction::Forward, &mut scratch);
            plan.process_reference(&mut slow, Direction::Forward, &mut scratch);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(
                    (*a - *b).norm() <= 1e-12 * (1.0 + b.norm()),
                    "radix-4 diverged from radix-2 at n={n}"
                );
            }
        }
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 16;
        let mut data = vec![Complex64::ZERO; n];
        data[0] = Complex64::ONE;
        let plan = FftPlan::new(n);
        let mut scratch = plan.make_scratch();
        plan.process(&mut data, Direction::Forward, &mut scratch);
        for z in &data {
            assert!((*z - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn parseval_1d() {
        let n = 200; // Bluestein path
        let data: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.1).sin(), (i as f64 * 0.2).cos()))
            .collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let plan = FftPlan::new(n);
        let mut spec = data.clone();
        let mut scratch = plan.make_scratch();
        plan.process(&mut spec, Direction::Forward, &mut scratch);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        assert!(
            (freq_energy / n as f64 - time_energy).abs() < 1e-8 * time_energy,
            "Parseval violated"
        );
    }

    #[test]
    fn plan_reports_shape_facts() {
        // 200 = 2³·5² is smooth → mixed-radix fast path, Bluestein oracle.
        let plan = FftPlan::new(200);
        assert_eq!(plan.len(), 200);
        assert!(!plan.is_empty());
        assert!(plan.is_mixed_radix());
        assert!(!plan.is_bluestein());
        assert_eq!(plan.scratch_len(), 512); // (2·200-1).next_power_of_two()

        // 211 is prime with smooth 210 = 2·3·5·7 → Rader path.
        let prime = FftPlan::new(211);
        assert!(prime.is_rader());
        assert!(!prime.is_bluestein());
        assert!(!prime.is_mixed_radix());

        // 23 is prime but 22 = 2·11 is not smooth → true Bluestein path.
        let rough = FftPlan::new(23);
        assert!(rough.is_bluestein());
        assert!(!rough.is_rader());

        let pow2 = FftPlan::new(64);
        assert!(!pow2.is_bluestein());
        assert!(!pow2.is_mixed_radix());
        assert!(!pow2.is_rader());
        assert_eq!(pow2.scratch_len(), 0);
    }

    #[test]
    fn mixed_radix_factorization() {
        assert_eq!(MixedRadixPlan::factorize(200), Some(vec![4, 2, 5, 5]));
        assert_eq!(MixedRadixPlan::factorize(350), Some(vec![2, 5, 5, 7]));
        assert_eq!(MixedRadixPlan::factorize(500), Some(vec![4, 5, 5, 5]));
        assert_eq!(MixedRadixPlan::factorize(630), Some(vec![2, 3, 3, 5, 7]));
        assert_eq!(MixedRadixPlan::factorize(211), None); // prime
        assert_eq!(MixedRadixPlan::factorize(2 * 11), None); // factor 11
    }

    #[test]
    fn mixed_radix_matches_bluestein_reference_on_paper_sizes() {
        for n in [200usize, 350, 500, 105, 98, 45] {
            let plan = FftPlan::new(n);
            assert!(plan.is_mixed_radix(), "expected mixed-radix for {n}");
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.23).sin(), (i as f64 * 0.71).cos()))
                .collect();
            let mut fast = input.clone();
            let mut slow = input;
            let mut scratch = plan.make_scratch();
            plan.process(&mut fast, Direction::Forward, &mut scratch);
            plan.process_reference(&mut slow, Direction::Forward, &mut scratch);
            let scale = (n as f64).sqrt();
            for (a, b) in fast.iter().zip(&slow) {
                assert!(
                    (*a - *b).norm() <= 1e-10 * scale * (1.0 + b.norm()),
                    "mixed-radix diverged from Bluestein oracle at n={n}"
                );
            }
        }
    }

    #[test]
    fn fft2_roundtrip_mixed_sizes() {
        for &(r, c) in &[(4, 4), (8, 16), (5, 7), (20, 20), (3, 8), (40, 33)] {
            let fft = Fft2::new(r, c);
            let f = Field::from_fn(r, c, |i, j| {
                Complex64::new((i * c + j) as f64, (i + j) as f64)
            });
            let mut g = f.clone();
            fft.forward(&mut g);
            fft.inverse(&mut g);
            assert!(f.distance(&g) < 1e-8, "fft2 roundtrip {r}x{c}");
        }
    }

    #[test]
    fn fft2_workspace_path_matches_implicit_path() {
        for &(r, c) in &[(8, 8), (5, 12), (33, 50)] {
            let fft = Fft2::new(r, c);
            let f = Field::from_fn(r, c, |i, j| {
                Complex64::new((i as f64 * 0.7).cos(), (j as f64 * 0.3).sin())
            });
            let mut implicit = f.clone();
            fft.forward(&mut implicit);
            let mut ws = fft.make_workspace();
            let mut explicit = f.clone();
            fft.process_with(&mut explicit, Direction::Forward, &mut ws);
            assert_eq!(implicit, explicit, "workspace path diverged at {r}x{c}");
        }
    }

    #[test]
    fn fft2_strided_matches_reference_transpose_path() {
        for &(r, c) in &[(8, 8), (20, 20), (16, 50), (50, 16), (33, 40)] {
            let fft = Fft2::new(r, c);
            let f = Field::from_fn(r, c, |i, j| {
                Complex64::new((i as f64 * 1.1).sin() + 0.2, (j as f64 * 0.9).cos())
            });
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut fast = f.clone();
                fft.process(&mut fast, dir);
                let mut slow = f.clone();
                fft.process_reference(&mut slow, dir);
                let scale = slow.max_norm().max(1.0);
                for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                    assert!(
                        (*a - *b).norm() <= 1e-12 * scale,
                        "strided kernel diverged from transpose reference at {r}x{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn fft2_separable_impulse() {
        // FFT2 of a centered impulse is a pure phase ramp; of an origin
        // impulse it is flat ones.
        let fft = Fft2::new(8, 8);
        let mut f = Field::zeros(8, 8);
        f[(0, 0)] = Complex64::ONE;
        fft.forward(&mut f);
        for z in f.as_slice() {
            assert!((*z - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn fft2_dc_component_is_sum() {
        let fft = Fft2::new(6, 10);
        let f = Field::from_fn(6, 10, |i, j| Complex64::new(i as f64, j as f64));
        let total = f.sum();
        let mut g = f.clone();
        fft.forward(&mut g);
        assert!((g[(0, 0)] - total).norm() < 1e-9);
    }

    #[test]
    fn convolve_spectrum_identity_transfer() {
        let fft = Fft2::new(8, 8);
        let f = Field::from_fn(8, 8, |i, j| Complex64::new(i as f64, j as f64));
        let h = Field::ones(8, 8);
        let mut g = f.clone();
        fft.convolve_spectrum(&mut g, &h);
        assert!(f.distance(&g) < 1e-9);
        let mut ws = fft.make_workspace();
        let mut g2 = f.clone();
        fft.convolve_spectrum_batch_with(g2.as_mut_slice(), &h, &mut ws);
        assert!(f.distance(&g2) < 1e-9);
    }

    #[test]
    fn convolve_adjoint_identity() {
        // <A x, y> == <x, A^H y> for A = IFFT ∘ diag(H) ∘ FFT.
        let fft = Fft2::new(8, 8);
        let h = Field::from_fn(8, 8, |i, j| {
            Complex64::cis(0.3 * i as f64 + 0.17 * j as f64) * (1.0 + 0.1 * j as f64)
        });
        let x = Field::from_fn(8, 8, |i, j| {
            Complex64::new((i * j) as f64 * 0.1, i as f64 - j as f64)
        });
        let y = Field::from_fn(8, 8, |i, j| Complex64::new((i + 2 * j) as f64 * 0.05, 1.0));
        let mut ax = x.clone();
        fft.convolve_spectrum(&mut ax, &h);
        let mut ahy = y.clone();
        fft.convolve_spectrum_adjoint(&mut ahy, &h);
        let lhs = ax.inner(&y);
        let rhs = x.inner(&ahy);
        assert!(
            (lhs - rhs).norm() < 1e-8,
            "adjoint identity violated: {lhs:?} vs {rhs:?}"
        );
    }

    /// Serializes the tests that clear, flood, or assert on the global
    /// plan cache — they would invalidate each other's expectations if the
    /// harness interleaved them.
    static CACHE_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Pin/orphan semantics of the registry-tied sweep, asserted per key
    /// (never on global cache length — other tests share the process
    /// cache): a pinned plan survives `sweep_orphaned_plans` and keeps
    /// returning the same `Arc`; once its last external reference drops,
    /// the sweep evicts it and the next `planner` call rebuilds.
    #[test]
    fn sweep_evicts_orphaned_plans_but_never_pinned_ones() {
        let _serial = CACHE_TEST_LOCK.lock();
        // Unique lengths no other test uses.
        let pinned = planner(1187);
        sweep_orphaned_plans();
        assert!(
            Arc::ptr_eq(&pinned, &planner(1187)),
            "a pinned plan must survive the sweep"
        );
        drop(pinned);
        let orphan = planner(1193);
        let before_sweep = planner(1193);
        assert!(Arc::ptr_eq(&orphan, &before_sweep));
        drop(orphan);
        drop(before_sweep);
        sweep_orphaned_plans();
        // 1187 and 1193 are both orphans now; a rebuild yields new plans.
        let rebuilt = planner(1193);
        assert_eq!(rebuilt.len(), 1193);
        assert_eq!(Arc::strong_count(&rebuilt), 2, "cache + this binding");
    }

    /// Capacity eviction picks the stalest orphan and never a pinned
    /// entry, so live models keep their prewarmed plans across DSE-style
    /// insert storms.
    #[test]
    fn capacity_eviction_spares_pinned_plans() {
        let _serial = CACHE_TEST_LOCK.lock();
        let pinned = planner(2099);
        // Flood the cache far past the cap with orphaned single-use plans.
        for n in 0..(2 * PLAN_CACHE_CAP) {
            drop(planner(3 * n + 3001));
        }
        assert!(
            Arc::ptr_eq(&pinned, &planner(2099)),
            "a pinned plan must survive capacity eviction"
        );
        assert!(
            plan_cache_len() <= PLAN_CACHE_CAP + 64,
            "orphan flood must not grow the cache unboundedly (len {})",
            plan_cache_len()
        );
    }

    #[test]
    fn plan_cache_shares_plans() {
        let _serial = CACHE_TEST_LOCK.lock();
        clear_plan_cache();
        let a = planner(64);
        let b = planner(64);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(plan_cache_len(), 1);
        let _c = planner(128);
        assert_eq!(plan_cache_len(), 2);
        clear_plan_cache();
        assert_eq!(plan_cache_len(), 0);
    }

    #[test]
    fn linearity() {
        let n = 48; // power-of-two? no: 48 = 16*3 -> Bluestein path
        let plan = FftPlan::new(n);
        let x: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.5)).collect();
        let y: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, -(i as f64))).collect();
        let alpha = Complex64::new(0.3, -0.8);

        let mut combo: Vec<Complex64> = x.iter().zip(&y).map(|(&a, &b)| a * alpha + b).collect();
        let mut fx = x.clone();
        let mut fy = y.clone();
        let mut scratch = plan.make_scratch();
        plan.process(&mut combo, Direction::Forward, &mut scratch);
        plan.process(&mut fx, Direction::Forward, &mut scratch);
        plan.process(&mut fy, Direction::Forward, &mut scratch);
        for k in 0..n {
            let expect = fx[k] * alpha + fy[k];
            assert!((combo[k] - expect).norm() < 1e-7, "linearity failed at {k}");
        }
    }

    /// Every dispatch level the CPU executes.
    fn executable_levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::X2, SimdLevel::X4]
            .into_iter()
            .filter(|&level| {
                let _g = simd::force(Some(level));
                simd::dispatch() == level
            })
            .collect()
    }

    #[test]
    fn fft2_parallel_path_matches_sequential() {
        // 183×181 = 33 123 samples crosses PAR_MIN_LEN, engaging the pooled
        // passes when threads are available. Odd sides leave leftover rows
        // and columns at every lane width; 181 is a Rader prime and 183 =
        // 3·61 a Bluestein length.
        let _guard = parallel::thread_count_test_guard();
        let (rows, cols) = (183, 181);
        let fft = Fft2::new(rows, cols);
        let f = Field::from_fn(rows, cols, |r, c| {
            Complex64::new((r as f64 * 0.01).sin(), (c as f64 * 0.02).cos())
        });
        let h = Field::from_fn(rows, cols, |r, c| Complex64::cis((r * c) as f64 * 1e-3));
        // Forward transform, then a fused convolve, on one plane.
        let run = |threads: usize| {
            parallel::set_threads(threads);
            let mut g = f.clone();
            fft.forward(&mut g);
            let mut ws = fft.make_workspace();
            fft.convolve_spectrum_batch_with(g.as_mut_slice(), &h, &mut ws);
            g
        };
        for level in executable_levels() {
            let _dispatch = simd::force(Some(level));
            // threads() > 1 runs the pooled passes even on a single-core
            // machine (the caller then claims every task itself).
            let par = run(2);
            let seq = run(1);
            assert_eq!(
                par, seq,
                "pooled passes must be bit-identical to sequential at {level:?}"
            );
        }
        parallel::set_threads(0);
    }

    #[test]
    fn batched_transforms_attribute_dispatch_in_kernel_profile() {
        use crate::batch::FieldBatch;
        use lr_obs::{kernel_profile, reset_kernel_profile, set_kernel_profiling, KernelKind};

        // 31 rows → Rader plan (30 = 2·3·5), 16 cols → radix-2; 496
        // samples stay far under the pooled-parallel threshold.
        let fft = Fft2::new(31, 16);
        let mut batch = FieldBatch::zeros(4, 31, 16);
        for b in 0..4 {
            let f = Field::from_fn(31, 16, |r, c| {
                Complex64::new((r + b) as f64 * 0.1, c as f64 * 0.2)
            });
            batch.copy_plane_from(b, &f);
        }
        // A pooled plane: 183×181 crosses PAR_MIN_LEN at two threads.
        let pooled = Fft2::new(183, 181);
        let mut big = Field::from_fn(183, 181, |r, c| Complex64::new(r as f64, c as f64));
        let _threads = parallel::thread_count_test_guard();
        parallel::set_threads(2);
        // Hold the dispatch lock at the auto-detected level so no other
        // test can move the tier between the transforms and the assertion.
        let _dispatch = simd::force(None);
        let mut ws = fft.make_batch_workspace();
        let mut pooled_ws = pooled.make_workspace();
        set_kernel_profiling(true);
        reset_kernel_profile();
        fft.fft2_batch_with(&mut batch, &mut ws);
        fft.process_slice_with(batch.plane_mut(0), Direction::Forward, ws.fft_mut());
        pooled.process_with(&mut big, Direction::Forward, &mut pooled_ws);
        set_kernel_profiling(false);
        parallel::set_threads(0);
        let profile = kernel_profile();
        let cell = simd_cell(simd::dispatch());
        // Four batched planes, one per-sample plane, one pooled plane.
        assert!(
            profile.get(cell).calls >= 6,
            "every plane — batched, B=1 and pooled — must be charged to the dispatched tier \
             ({cell:?}: {} calls)",
            profile.get(cell).calls
        );
        if cell != KernelKind::SimdScalar {
            assert_eq!(
                profile.get(KernelKind::SimdScalar).calls,
                0,
                "no plane may fall back to one lane above scalar dispatch"
            );
        }
        assert!(
            profile.get(KernelKind::Rader).calls > 0,
            "prime-size rows must attribute their passes to the Rader cell"
        );
    }
}
