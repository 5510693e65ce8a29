//! Batched-FFT contract: the batched 2-D entry points
//! (`fft2_batch_with`/`ifft2_batch_with`) must be **bit-identical** to
//! per-plane `process_with` for every plane, across batch sizes, shapes
//! (square and non-square), and FFT code paths (radix-2, mixed-radix
//! Stockham, Rader, and Bluestein) — and every SIMD dispatch level must be
//! bitwise identical to the one-lane instance, for every transform length
//! up to 512 along both axes and for grids whose sides leave leftover rows
//! and columns at every lane width. This is the invariant the whole
//! batched propagation stack inherits.

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

/// The SIMD contract: every forced dispatch level the CPU can execute
/// produces **bitwise identical** batched forward and inverse transforms
/// and fused convolves (plain and adjoint) to the one-lane instance — each
/// vector lane performs the exact one-lane operation sequence on its own
/// row or column, so there is no tolerance to negotiate on these paths.
/// Covers B ∈ {1, 3}, every plan kind — radix-2 (16), mixed-radix
/// Stockham (20, 24), Rader primes (31: 30 = 2·3·5), and Bluestein (23: 22
/// has the factor 11) — and grids whose sides are not multiples of 2 or 4,
/// so every lane width leaves leftover rows and columns: 7×9, 30×31,
/// 197×198 (pooled on a multi-core machine: 39 006 samples), and 1×n /
/// n×1 lines.
#[test]
fn forced_simd_levels_bitwise_match_one_lane() {
    let levels = executable_levels();
    for &(rows, cols) in &[
        (16, 16),
        (20, 24),
        (31, 31),
        (23, 23),
        (31, 24),
        (16, 23),
        (7, 9),
        (30, 31),
        (197, 198),
        (1, 13),
        (13, 1),
        (1, 200),
        (200, 1),
    ] {
        let fft = Fft2::new(rows, cols);
        let transfer = Field::from_fn(rows, cols, |r, c| plane_value(9, r, c, 5));
        for batch_size in [1usize, 3] {
            // Forward, inverse, convolve and adjoint convolve per level.
            let run = |level: SimdLevel| {
                let _g = simd::force(Some(level));
                let mut ws = fft.make_batch_workspace();
                (0..4u64)
                    .map(|step| {
                        let mut batch = FieldBatch::zeros(batch_size, rows, cols);
                        for b in 0..batch_size {
                            let f = Field::from_fn(rows, cols, |r, c| plane_value(b, r, c, step));
                            batch.copy_plane_from(b, &f);
                        }
                        let planes = batch.as_mut_slice();
                        match step {
                            0 => fft.process_batch_with(&mut batch, Direction::Forward, &mut ws),
                            1 => fft.process_batch_with(&mut batch, Direction::Inverse, &mut ws),
                            2 => fft.convolve_spectrum_batch_with(planes, &transfer, ws.fft_mut()),
                            _ => fft.convolve_spectrum_adjoint_batch_with(
                                planes,
                                &transfer,
                                ws.fft_mut(),
                            ),
                        }
                        batch
                    })
                    .collect::<Vec<_>>()
            };
            let one_lane = run(SimdLevel::Scalar);
            for &level in &levels {
                for (step, (got, want)) in run(level).iter().zip(&one_lane).enumerate() {
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "step {step} at {level:?} differs from one lane \
                         ({rows}x{cols}, B={batch_size})"
                    );
                }
            }
        }
    }
}

/// The one-lane 2-D transform composed from 1-D plans: every row through
/// `FftPlan::process`, then every column. The operation sequence the 2-D
/// pipeline runs on each row and column at every lane width.
fn one_lane_fft2(rows: usize, cols: usize, input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let (row_plan, col_plan) = (FftPlan::new(cols), FftPlan::new(rows));
    let mut scratch = Vec::new();
    let mut out = input.to_vec();
    for row in out.chunks_exact_mut(cols) {
        row_plan.process(row, dir, &mut scratch);
    }
    let mut column = vec![Complex64::ZERO; rows];
    for c in 0..cols {
        for (r, z) in column.iter_mut().enumerate() {
            *z = out[r * cols + c];
        }
        col_plan.process(&mut column, dir, &mut scratch);
        for (r, z) in column.iter().enumerate() {
            out[r * cols + c] = *z;
        }
    }
    out
}

/// Every transform length 1..=512 in both directions, so radix-2,
/// Stockham, Rader and Bluestein plan selection is covered exhaustively
/// rather than by sample: the one-lane instance (`FftPlan::process`)
/// matches `dft_naive`, and 2-D transforms at every executable level are
/// bitwise identical to the one-lane composition along the row pass
/// (`7 × n`) and the column pass (`n × 7`) — 7 lines take one x4 group
/// plus three leftovers, or three x2 groups plus one.
#[test]
fn every_fft_size_matches_naive_dft_and_lanes_match_bitwise() {
    let levels = executable_levels();
    for n in 1..=512usize {
        let plan = FftPlan::new(n);
        let mut scratch = plan.make_scratch();
        let signal: Vec<Complex64> = (0..n).map(|c| plane_value(0, 0, c, n as u64)).collect();
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut got = signal.clone();
            plan.process(&mut got, dir, &mut scratch);
            let expect = dft_naive(&signal, dir);
            let scale = expect.iter().fold(1.0f64, |m, z| m.max(z.norm()));
            for (k, (got, want)) in got.iter().zip(&expect).enumerate() {
                assert!(
                    (*got - *want).norm() <= 1e-12 * n as f64 * scale,
                    "n={n} {dir:?}: bin {k} is {got:?}, naive DFT {want:?}"
                );
            }

            for &(rows, cols) in &[(7, n), (n, 7)] {
                let fft = Fft2::new(rows, cols);
                let input: Vec<Complex64> = (0..rows * cols)
                    .map(|i| plane_value(1, i / cols, i % cols, n as u64))
                    .collect();
                let one_lane = one_lane_fft2(rows, cols, &input, dir);
                for &level in &levels {
                    let _g = simd::force(Some(level));
                    let mut batch = FieldBatch::zeros(1, rows, cols);
                    batch.plane_mut(0).copy_from_slice(&input);
                    let mut ws = fft.make_batch_workspace();
                    fft.process_batch_with(&mut batch, dir, &mut ws);
                    assert_eq!(
                        batch.plane(0),
                        &one_lane[..],
                        "n={n} {dir:?} {rows}x{cols} {level:?}: differs from the one-lane \
                         composition"
                    );
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
