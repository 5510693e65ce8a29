//! Batched-execution contract at the model level: `infer_batch_into` must
//! be **bit-identical** to per-sample `infer` for every sample, across
//! batch sizes {1, 3, 32}, square and non-square grids, smooth
//! (mixed-radix) and Bluestein FFT sizes, every readout mode, and mixed
//! layer stacks — and the batched traced forward/backward must reproduce
//! the per-sample training step's logits and gradients exactly. The
//! contract has one tier: every SIMD dispatch level the CPU executes gives
//! bitwise identical logits and gradients, because every lane width runs
//! the one-lane kernel's operation sequence and the detector readout
//! reduces through one fixed tree. A dispatch-level flip in one test
//! therefore cannot change what a sibling test computes.

use lightridge::{
    BatchTrace, CodesignMode, Detector, DonnBuilder, DonnModel, ModelGrads, TraceRing,
};
use lr_nn::loss::{one_hot_into, softmax_mse_into};
use lr_optics::{Approximation, Distance, Grid, PixelPitch, Wavelength};
use lr_tensor::{Complex64, Field, FieldBatch};
use proptest::prelude::*;

fn sample_input(rows: usize, cols: usize, b: usize) -> Field {
    Field::from_fn(rows, cols, |r, c| {
        Complex64::from_real(if (r + 2 * c + 3 * b) % 7 < 3 {
            1.0
        } else {
            0.3
        })
    })
}

fn donn(rows: usize, cols: usize, approx: Approximation, mixed: bool) -> DonnModel {
    let grid = Grid::new(rows, cols, PixelPitch::from_um(36.0));
    let det = rows.min(cols) / 6;
    let mut builder = DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(25.0))
        .approximation(approx)
        .diffractive_layers(1)
        .init_seed(11);
    if mixed {
        builder =
            builder
                .nonlinearity(0.3, 0.8)
                .codesign_layers(1, lr_hardware::SlmModel::ideal(8), 0.9);
    } else {
        builder = builder.diffractive_layers(1);
    }
    builder
        .detector(Detector::grid_layout(rows, cols, 4, det.max(1)))
        .build()
}

/// Batched inference must equal per-sample inference bit for bit.
fn assert_infer_batch_matches(model: &DonnModel, batch_size: usize, mode: CodesignMode) {
    let (rows, cols) = model.grid().shape();
    let inputs: Vec<Field> = (0..batch_size)
        .map(|b| sample_input(rows, cols, b))
        .collect();
    let input_refs: Vec<&Field> = inputs.iter().collect();
    let mut ws = model.make_batch_workspace(batch_size);
    let mut outputs: Vec<Vec<f64>> = vec![Vec::new(); batch_size];
    model.infer_batch_into(&input_refs, mode, &mut ws, &mut outputs);
    for (b, input) in inputs.iter().enumerate() {
        let reference = match mode {
            CodesignMode::Deploy => model.infer_deployed(input),
            _ => model.infer(input),
        };
        assert_eq!(
            outputs[b], reference,
            "batched/per-sample divergence at sample {b}/{batch_size} on {rows}x{cols}"
        );
    }
}

#[test]
fn infer_batch_bit_identical_across_sizes_grids_and_fft_paths() {
    // 20/24 are 2·3·5·7-smooth (Stockham), 22/26 have prime factors > 7
    // (Bluestein); non-square grids mix plan kinds per axis.
    for &(rows, cols) in &[(20, 20), (22, 22), (20, 26), (26, 24)] {
        let model = donn(rows, cols, Approximation::RayleighSommerfeld, false);
        for &batch_size in &[1usize, 3, 32] {
            assert_infer_batch_matches(&model, batch_size, CodesignMode::Soft);
        }
    }
}

#[test]
fn infer_batch_bit_identical_mixed_stack_and_modes() {
    // Diffractive → saturable absorber → codesign, in both noise-free
    // readout modes.
    let model = donn(24, 20, Approximation::RayleighSommerfeld, true);
    for &batch_size in &[1usize, 3, 32] {
        assert_infer_batch_matches(&model, batch_size, CodesignMode::Soft);
        assert_infer_batch_matches(&model, batch_size, CodesignMode::Deploy);
    }
}

#[test]
fn infer_batch_bit_identical_fresnel_and_fraunhofer() {
    // The spectral Fresnel path shares the broadcast-transfer fast path;
    // Fraunhofer exercises the per-plane shift/scale (SingleFourier) path.
    for approx in [Approximation::Fresnel, Approximation::Fraunhofer] {
        let model = donn(20, 22, approx, false);
        for &batch_size in &[1usize, 3] {
            assert_infer_batch_matches(&model, batch_size, CodesignMode::Soft);
        }
    }
}

/// One batch workspace must serve varying batch sizes back to back
/// (the serving runtime's reuse pattern) without cross-contamination.
#[test]
fn one_batch_workspace_serves_varying_sizes() {
    let model = donn(22, 22, Approximation::RayleighSommerfeld, false);
    let (rows, cols) = model.grid().shape();
    let mut ws = model.make_batch_workspace(8);
    for &n in &[8usize, 1, 5, 2] {
        let inputs: Vec<Field> = (0..n).map(|b| sample_input(rows, cols, b + n)).collect();
        let input_refs: Vec<&Field> = inputs.iter().collect();
        let mut outputs: Vec<Vec<f64>> = vec![Vec::new(); n];
        model.infer_batch_into(&input_refs, CodesignMode::Soft, &mut ws, &mut outputs);
        for (b, input) in inputs.iter().enumerate() {
            assert_eq!(outputs[b], model.infer(input), "size {n}, sample {b}");
        }
    }
}

/// The batched traced forward + batched backward must reproduce the
/// per-sample training step exactly: same logits, same detector planes,
/// same accumulated gradients, bit for bit — including per-sample Gumbel
/// noise in `Train` mode.
#[test]
fn batched_training_step_matches_per_sample_bitwise() {
    for mixed in [false, true] {
        let model = donn(20, 20, Approximation::RayleighSommerfeld, mixed);
        let (rows, cols) = model.grid().shape();
        let classes = model.num_classes();
        let bsz = 5;
        let seeds: Vec<u64> = (0..bsz as u64).map(|b| b * 9176 + 3).collect();
        let inputs: Vec<Field> = (0..bsz).map(|b| sample_input(rows, cols, b)).collect();

        // Per-sample reference step.
        let mut ref_grads = ModelGrads::zeros_like(&model);
        let mut ref_logits = Vec::new();
        let mut ws = model.make_workspace();
        let mut ring = TraceRing::new(1);
        let mut target = Vec::new();
        let mut logit_grads_buf = Vec::new();
        let mut per_sample_logit_grads = Vec::new();
        for (b, input) in inputs.iter().enumerate() {
            let trace = ring.forward(&model, input, CodesignMode::Train, seeds[b], &mut ws);
            one_hot_into(b % classes, classes, &mut target);
            softmax_mse_into(&trace.logits, &target, &mut logit_grads_buf);
            ref_logits.push(trace.logits.clone());
            per_sample_logit_grads.push(logit_grads_buf.clone());
            model.backward_with(trace, &logit_grads_buf, &mut ref_grads, &mut ws);
        }

        // Batched step with the same per-sample seeds.
        let mut batch = FieldBatch::zeros(bsz, rows, cols);
        for (b, input) in inputs.iter().enumerate() {
            batch.copy_plane_from(b, input);
        }
        let mut bws = model.make_batch_workspace(bsz);
        let mut trace = BatchTrace::new();
        model.forward_trace_batch_into(&batch, CodesignMode::Train, &seeds, &mut bws, &mut trace);
        assert_eq!(trace.batch(), bsz);
        for (b, expected) in ref_logits.iter().enumerate() {
            assert_eq!(
                &trace.logits[b], expected,
                "batched trace logits diverge at sample {b} (mixed={mixed})"
            );
        }
        let mut grads = ModelGrads::zeros_like(&model);
        model.backward_batch_with(&trace, &per_sample_logit_grads, &mut grads, &mut bws);
        for i in 0..model.layers().len() {
            assert_eq!(
                grads.layer(i),
                ref_grads.layer(i),
                "batched gradients diverge at layer {i} (mixed={mixed})"
            );
        }
    }
}

/// The dispatch-level half of the equivalence contract: one full batched
/// training step (traced forward + backward) gives bitwise identical
/// logits and accumulated gradients at every dispatch level this CPU
/// executes.
#[test]
fn training_step_bitwise_identical_at_every_dispatch_level() {
    use lr_tensor::simd::{self, SimdLevel};

    let model = donn(20, 20, Approximation::RayleighSommerfeld, false);
    let (rows, cols) = model.grid().shape();
    let classes = model.num_classes();
    let bsz = 5;
    let seeds: Vec<u64> = (0..bsz as u64).map(|b| b * 9176 + 3).collect();
    let mut batch = FieldBatch::zeros(bsz, rows, cols);
    for b in 0..bsz {
        batch.copy_plane_from(b, &sample_input(rows, cols, b));
    }

    // One full batched training step at a pinned dispatch level, or `None`
    // when this CPU cannot execute `level`.
    let run_step = |level: SimdLevel| {
        let _g = simd::force(Some(level));
        if simd::dispatch() != level {
            return None;
        }
        let mut bws = model.make_batch_workspace(bsz);
        let mut trace = BatchTrace::new();
        model.forward_trace_batch_into(&batch, CodesignMode::Train, &seeds, &mut bws, &mut trace);
        let mut target = Vec::new();
        let mut logit_grads = Vec::new();
        for b in 0..bsz {
            one_hot_into(b % classes, classes, &mut target);
            let mut g = Vec::new();
            softmax_mse_into(&trace.logits[b], &target, &mut g);
            logit_grads.push(g);
        }
        let mut grads = ModelGrads::zeros_like(&model);
        model.backward_batch_with(&trace, &logit_grads, &mut grads, &mut bws);
        Some((trace.logits.clone(), grads))
    };

    let (one_lane_logits, one_lane_grads) =
        run_step(SimdLevel::Scalar).expect("one lane always executes");
    for level in [SimdLevel::X2, SimdLevel::X4] {
        let Some((logits, grads)) = run_step(level) else {
            continue;
        };
        assert_eq!(
            logits, one_lane_logits,
            "{level:?} logits diverge from one lane"
        );
        for i in 0..model.layers().len() {
            assert_eq!(
                grads.layer(i),
                one_lane_grads.layer(i),
                "{level:?} gradients diverge from one lane at layer {i}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized shapes and batch sizes: batched inference equals
    /// per-sample inference bit for bit.
    #[test]
    fn infer_batch_matches_prop(
        rows in 12usize..26,
        cols in 12usize..26,
        batch_size in 1usize..5,
    ) {
        let model = donn(rows, cols, Approximation::RayleighSommerfeld, false);
        assert_infer_batch_matches(&model, batch_size, CodesignMode::Soft);
    }
}
