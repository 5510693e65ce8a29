//! Batched-FFT contract: the batched 2-D entry points
//! (`fft2_batch_with`/`ifft2_batch_with`) must be **bit-identical** to
//! per-plane `process_with` for every plane, across batch sizes, shapes
//! (square and non-square), and FFT code paths (radix-2, mixed-radix
//! Stockham, Rader, and Bluestein) — and every SIMD dispatch level must be
//! bitwise identical to the one-lane instance, for every transform length
//! up to 512. This is the invariant the whole batched propagation stack
//! inherits.

use lr_tensor::simd::{self, SimdLevel};
use lr_tensor::{dft_naive, Complex64, Direction, Fft2, FftPlan, Field, FieldBatch};
use proptest::prelude::*;

fn plane_value(b: usize, r: usize, c: usize, seed: u64) -> Complex64 {
    Complex64::new(
        ((b as u64 * 131 + r as u64 * 31 + c as u64 * 7 + seed) % 23) as f64 / 23.0 - 0.5,
        ((b as u64 * 17 + r as u64 * 5 + c as u64 * 13 + seed) % 19) as f64 / 19.0 - 0.5,
    )
}

/// Runs both paths over a fresh batch and asserts exact equality.
fn assert_batched_matches_per_plane(batch_size: usize, rows: usize, cols: usize, seed: u64) {
    let fft = Fft2::new(rows, cols);
    let mut batch = FieldBatch::zeros(batch_size, rows, cols);
    let mut fields: Vec<Field> = Vec::with_capacity(batch_size);
    for b in 0..batch_size {
        let f = Field::from_fn(rows, cols, |r, c| plane_value(b, r, c, seed));
        batch.copy_plane_from(b, &f);
        fields.push(f);
    }

    let mut batch_ws = fft.make_batch_workspace();
    let mut plane_ws = fft.make_workspace();

    fft.fft2_batch_with(&mut batch, &mut batch_ws);
    for (b, f) in fields.iter_mut().enumerate() {
        fft.process_with(f, Direction::Forward, &mut plane_ws);
        assert_eq!(
            batch.plane(b),
            f.as_slice(),
            "forward batched/per-plane divergence at plane {b} ({rows}x{cols})"
        );
    }

    fft.ifft2_batch_with(&mut batch, &mut batch_ws);
    for (b, f) in fields.iter_mut().enumerate() {
        fft.process_with(f, Direction::Inverse, &mut plane_ws);
        assert_eq!(
            batch.plane(b),
            f.as_slice(),
            "inverse batched/per-plane divergence at plane {b} ({rows}x{cols})"
        );
    }
}

#[test]
fn batched_fft_bit_identical_across_paths_and_batch_sizes() {
    // Shapes cover every plan kind: 16/32 (radix-2), 20 = 2²·5 and
    // 24 = 2³·3 (mixed-radix Stockham), 22 = 2·11 and 26 = 2·13
    // (Bluestein), plus non-square mixes of different kinds per axis.
    for &(rows, cols) in &[
        (16, 16),
        (20, 20),
        (22, 22),
        (16, 20),
        (20, 26),
        (22, 32),
        (26, 24),
    ] {
        for &batch_size in &[1usize, 3, 8] {
            assert_batched_matches_per_plane(batch_size, rows, cols, 42);
        }
    }
}

#[test]
fn batched_roundtrip_recovers_input() {
    let fft = Fft2::new(20, 22);
    let mut batch = FieldBatch::zeros(4, 20, 22);
    for b in 0..4 {
        let f = Field::from_fn(20, 22, |r, c| plane_value(b, r, c, 7));
        batch.copy_plane_from(b, &f);
    }
    let orig = batch.clone();
    let mut ws = fft.make_batch_workspace();
    fft.fft2_batch_with(&mut batch, &mut ws);
    fft.ifft2_batch_with(&mut batch, &mut ws);
    for b in 0..4 {
        for (x, y) in batch.plane(b).iter().zip(orig.plane(b)) {
            assert!((*x - *y).norm() < 1e-9, "roundtrip failed at plane {b}");
        }
    }
}

#[test]
fn one_workspace_serves_shrinking_and_growing_batches() {
    // The same BatchWorkspace must serve any active batch size at its
    // shape — the serving runtime reuses one per (worker, model) across
    // micro-batches of every size.
    let fft = Fft2::new(22, 20);
    let mut ws = fft.make_batch_workspace();
    let mut batch = FieldBatch::with_capacity(8, 22, 20);
    for &n in &[8usize, 1, 5, 2] {
        batch.set_batch(n);
        for b in 0..n {
            let f = Field::from_fn(22, 20, |r, c| plane_value(b, r, c, n as u64));
            batch.copy_plane_from(b, &f);
        }
        fft.fft2_batch_with(&mut batch, &mut ws);
        let mut plane_ws = fft.make_workspace();
        for b in 0..n {
            let mut f = Field::from_fn(22, 20, |r, c| plane_value(b, r, c, n as u64));
            fft.process_with(&mut f, Direction::Forward, &mut plane_ws);
            assert_eq!(batch.plane(b), f.as_slice());
        }
    }
}

/// Every dispatch level the CPU executes, widest last.
fn executable_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::X2, SimdLevel::X4]
        .into_iter()
        .filter(|&level| {
            let _g = simd::force(Some(level));
            simd::dispatch() == level
        })
        .collect()
}

/// The cross-plane SIMD contract: every forced dispatch level the CPU can
/// execute produces **bitwise identical** batched FFT and spectrum-
/// convolution results to the one-lane instance — each vector lane
/// performs the exact one-lane operation sequence, so there is no
/// tolerance to negotiate on these paths. Covers batch sizes {1, 3, 32}
/// (remainder lanes at both x2 and x4 grouping), non-square grids, and
/// every plan kind: radix-2 (16), mixed-radix Stockham (20, 24), Rader
/// primes (31: 30 = 2·3·5), and Bluestein (23: 22 has the factor 11).
#[test]
fn forced_simd_levels_bitwise_match_one_lane() {
    for &(rows, cols) in &[(16, 16), (20, 24), (31, 31), (23, 23), (31, 24), (16, 23)] {
        let fft = Fft2::new(rows, cols);
        let transfer = Field::from_fn(rows, cols, |r, c| plane_value(9, r, c, 5));
        for &batch_size in &[1usize, 3, 32] {
            // One forward transform and one spectrum convolve per level.
            let run = |level: SimdLevel| {
                let _g = simd::force(Some(level));
                let mut transformed = FieldBatch::zeros(batch_size, rows, cols);
                let mut convolved = FieldBatch::zeros(batch_size, rows, cols);
                for b in 0..batch_size {
                    let f = Field::from_fn(rows, cols, |r, c| plane_value(b, r, c, 3));
                    transformed.copy_plane_from(b, &f);
                    convolved.copy_plane_from(b, &f);
                }
                let mut ws = fft.make_batch_workspace();
                fft.fft2_batch_with(&mut transformed, &mut ws);
                let mut plane_ws = fft.make_workspace();
                fft.convolve_spectrum_batch_with(
                    convolved.as_mut_slice(),
                    &transfer,
                    &mut plane_ws,
                );
                (transformed, convolved)
            };
            let (one_fft, one_conv) = run(SimdLevel::Scalar);
            for level in executable_levels() {
                let (got_fft, got_conv) = run(level);
                for b in 0..batch_size {
                    assert_eq!(
                        got_fft.plane(b),
                        one_fft.plane(b),
                        "fft2 {level:?} vs one-lane divergence at plane {b}/{batch_size} \
                         ({rows}x{cols})"
                    );
                    assert_eq!(
                        got_conv.plane(b),
                        one_conv.plane(b),
                        "convolve {level:?} vs one-lane divergence at plane {b}/{batch_size} \
                         ({rows}x{cols})"
                    );
                }
            }
        }
    }
}

/// Every transform length 1..=512 in both directions, so radix-2,
/// Stockham, Rader and Bluestein plan selection is covered exhaustively
/// rather than by sample: the one-lane instance (`FftPlan::process`)
/// matches `dft_naive`, and batched transforms at every executable level
/// — a batch of 7 takes x4, x2 and one-lane groups — are bitwise identical
/// to it, along both the row pass (`1 × n`) and the column pass (`n × 1`).
#[test]
fn every_fft_size_matches_naive_dft_and_lanes_match_bitwise() {
    const B: usize = 7;
    let levels = executable_levels();
    for n in 1..=512usize {
        let plan = FftPlan::new(n);
        let mut scratch = plan.make_scratch();
        let signals: Vec<Vec<Complex64>> = (0..B)
            .map(|b| (0..n).map(|c| plane_value(b, 0, c, n as u64)).collect())
            .collect();
        for dir in [Direction::Forward, Direction::Inverse] {
            let one_lane: Vec<Vec<Complex64>> = signals
                .iter()
                .map(|x| {
                    let mut y = x.clone();
                    plan.process(&mut y, dir, &mut scratch);
                    y
                })
                .collect();

            let expect = dft_naive(&signals[0], dir);
            let scale = expect.iter().fold(1.0f64, |m, z| m.max(z.norm()));
            for (k, (got, want)) in one_lane[0].iter().zip(&expect).enumerate() {
                assert!(
                    (*got - *want).norm() <= 1e-12 * n as f64 * scale,
                    "n={n} {dir:?}: bin {k} is {got:?}, naive DFT {want:?}"
                );
            }

            for &(rows, cols) in &[(1, n), (n, 1)] {
                let fft = Fft2::new(rows, cols);
                for &level in &levels {
                    let _g = simd::force(Some(level));
                    let mut batch = FieldBatch::zeros(B, rows, cols);
                    for (b, x) in signals.iter().enumerate() {
                        batch.plane_mut(b).copy_from_slice(x);
                    }
                    let mut ws = fft.make_batch_workspace();
                    fft.process_batch_with(&mut batch, dir, &mut ws);
                    for (b, y) in one_lane.iter().enumerate() {
                        assert_eq!(
                            batch.plane(b),
                            &y[..],
                            "n={n} {dir:?} {rows}x{cols} {level:?}: plane {b} differs \
                             from the one-lane instance"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched == per-plane on randomized shapes/batch sizes, covering
    /// all three 1-D plan kinds as the shape varies.
    #[test]
    fn batched_matches_per_plane_prop(
        rows in 2usize..28,
        cols in 2usize..28,
        batch_size in 1usize..6,
        seed in 0u64..1000,
    ) {
        assert_batched_matches_per_plane(batch_size, rows, cols, seed);
    }
}
