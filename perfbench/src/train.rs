//! `train_200`: the paper configuration (200×200 grid, three phase-only
//! diffractive layers, Rayleigh–Sommerfeld propagation over 300 mm, a
//! 10-class detector) trained on seeded synthetic digits in a closed loop
//! with one caller.
//!
//! The untraced run times `lightridge::train::train` (one epoch per call,
//! batch 16), `train::evaluate`, and per-sample `infer_into` with one
//! caller per pool thread, then checks that per-sample `infer_into` on the
//! held-out set equals `infer_batch_into` bitwise.
//!
//! The traced run replays the training step from outside through the
//! same public calls `train::train` makes (`forward_trace_batch_into`,
//! `softmax_mse_into`, `backward_batch_with`, `Adam::step`, sharded the
//! same way over `parallel::par_map`) with a span around each, then a
//! per-layer replay of the same step through each layer's batched entry
//! points, so the parts add up to the step.

use crate::report::{peak_rss_mb, Report};
use crate::spans::{self, Spans};
use crate::stats::{self, median};
use lightridge::train::{self, LabeledImage, TrainConfig};
use lightridge::{
    BatchTraceRing, CodesignMode, Detector, DiffractiveBatchCache, DonnBuilder, DonnModel, Layer,
    ModelGrads,
};
use lr_datasets::digits::{self, DigitsConfig};
use lr_nn::loss::{one_hot_into, softmax_mse_into};
use lr_nn::metrics::argmax;
use lr_nn::{Adam, Optimizer};
use lr_obs::{kernel_profile, reset_kernel_profile, set_kernel_profiling};
use lr_optics::{
    clear_transfer_cache, transfer_cache_len, Approximation, Distance, Grid, PixelPitch,
    PropagationScratch, Wavelength,
};
use lr_tensor::{clear_plan_cache, parallel, plan_cache_len, Field, FieldBatch};
use std::time::Instant;

/// Grid side of the paper configuration.
pub const GRID: usize = 200;
/// Diffractive layers.
pub const DEPTH: usize = 3;
/// Mini-batch size.
pub const BATCH: usize = 16;
/// Detector classes.
const CLASSES: usize = 10;
/// Training samples per `train::train` call (one epoch of four batches).
const SAMPLES_PER_CALL: usize = 64;
/// Distinct training samples generated (calls cycle through them).
const TRAIN_POOL: usize = 256;
/// Held-out samples.
const EVAL_SAMPLES: usize = 128;
/// Per-sample inference calls timed per measurement round; each round's
/// calls are one window of the windowed latency summary.
const LATENCY_SLICE: usize = 64;
/// Quantile reported as the latency tail.
const TAIL_Q: f64 = 0.9;
/// Measurement rounds run at the least (eight latency windows).
const MIN_ROUNDS: usize = 8;
/// Adam learning rate for phase parameters (paper §5.1).
const LEARNING_RATE: f64 = 0.5;

const LAYER_FWD: [&str; DEPTH] = [
    "lightridge.layer0.forward",
    "lightridge.layer1.forward",
    "lightridge.layer2.forward",
];
const LAYER_BWD: [&str; DEPTH] = [
    "lightridge.layer0.backward",
    "lightridge.layer1.backward",
    "lightridge.layer2.backward",
];

/// The paper's DONN: 200², 3 phase-only layers, RS propagation at 300 mm.
pub fn paper_model(seed: u64) -> DonnModel {
    let grid = Grid::square(GRID, PixelPitch::from_um(36.0));
    DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(300.0))
        .approximation(Approximation::RayleighSommerfeld)
        .diffractive_layers(DEPTH)
        .detector(Detector::grid_layout(GRID, GRID, CLASSES, GRID / 12))
        .init_seed(seed)
        .build()
}

/// Seeded synthetic digit images on a `size`² grid.
pub fn digit_images(n: usize, size: usize, seed: u64) -> Vec<LabeledImage> {
    let config = DigitsConfig {
        size,
        ..DigitsConfig::default()
    };
    digits::generate(n, &config, seed)
}

struct Setup {
    model: DonnModel,
    train: Vec<LabeledImage>,
    eval: Vec<LabeledImage>,
}

/// Input generation, model build, and plan/transfer prewarm, from cold
/// process-global caches.
fn setup(seed: u64) -> (Setup, f64) {
    clear_plan_cache();
    clear_transfer_cache();
    let t0 = Instant::now();
    let train = digit_images(TRAIN_POOL, GRID, seed);
    let eval = digit_images(EVAL_SAMPLES, GRID, seed ^ 0x5eed_e7a1);
    let model = paper_model(seed);
    model.prewarm();
    let secs = t0.elapsed().as_secs_f64();
    (Setup { model, train, eval }, secs)
}

/// Runs setup until [`stats::enough_setups`] and keeps the last; returns
/// it with the median setup time and the number of runs.
fn setup_median(seed: u64) -> (Setup, f64, usize) {
    let mut times = Vec::new();
    let mut last = None;
    while !stats::enough_setups(&times) {
        let (s, t) = setup(seed);
        times.push(t);
        last = Some(s);
    }
    (
        last.expect("at least one setup"),
        median(&times).expect("at least one setup"),
        times.len(),
    )
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        learning_rate: LEARNING_RATE,
        seed,
        verbose: false,
        ..TrainConfig::default()
    }
}

/// Per-sample `infer_into` on `data` (timed, ms each) and the logits.
fn infer_each(
    model: &DonnModel,
    data: &[LabeledImage],
    rec: Option<&Spans>,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let (rows, cols) = model.grid().shape();
    let mut ws = model.make_workspace();
    let mut times = Vec::with_capacity(data.len());
    let mut out = Vec::with_capacity(data.len());
    for (img, _) in data {
        let input = Field::from_amplitudes(rows, cols, img);
        let mut logits = Vec::with_capacity(model.num_classes());
        let t0 = Instant::now();
        match rec {
            Some(r) => r.time("lightridge.eval.infer", 0, None, || {
                model.infer_into(&input, &mut ws, &mut logits)
            }),
            None => model.infer_into(&input, &mut ws, &mut logits),
        }
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        out.push(logits);
    }
    (times, out)
}

/// `infer_batch_into` over `data` in batches of [`BATCH`]; counts samples
/// whose logits differ bitwise from `expected`.
fn batch_mismatches(model: &DonnModel, data: &[LabeledImage], expected: &[Vec<f64>]) -> u64 {
    let (rows, cols) = model.grid().shape();
    let mut ws = model.make_batch_workspace(BATCH);
    let mut mismatches = 0;
    for (chunk, want) in data.chunks(BATCH).zip(expected.chunks(BATCH)) {
        let fields: Vec<Field> = chunk
            .iter()
            .map(|(img, _)| Field::from_amplitudes(rows, cols, img))
            .collect();
        let inputs: Vec<&Field> = fields.iter().collect();
        let mut outputs = vec![Vec::new(); inputs.len()];
        model.infer_batch_into(&inputs, CodesignMode::Soft, &mut ws, &mut outputs);
        mismatches += outputs
            .iter()
            .zip(want)
            .filter(|(got, want)| !bitwise_eq(got, want))
            .count() as u64;
    }
    mismatches
}

/// Per-sample `infer_into` latency (ms each) with one caller per pool
/// thread, each calling on its contiguous share of `data` in turn, the way
/// `train::evaluate` runs its samples. Times are in `data` order.
fn infer_per_core(model: &DonnModel, data: &[LabeledImage]) -> Vec<f64> {
    let (rows, cols) = model.grid().shape();
    let workers = parallel::threads().min(data.len()).max(1);
    let share = data.len().div_ceil(workers);
    parallel::par_map(workers, |w| {
        let mut ws = model.make_workspace();
        let mut logits = Vec::with_capacity(model.num_classes());
        data.iter()
            .skip(w * share)
            .take(share)
            .map(|(img, _)| {
                let input = Field::from_amplitudes(rows, cols, img);
                let t0 = Instant::now();
                model.infer_into(&input, &mut ws, &mut logits);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<f64>>()
    })
    .concat()
}

/// Bitwise equality of two logit vectors.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let (s, setup_s, setups) = setup_median(seed);
    let Setup {
        mut model,
        train,
        eval,
    } = s;
    report.set("setup_s", setup_s, "s");
    report.note(format!("setup_s: median of {setups} cold setups"));

    // Measurement rounds, interleaved so that every metric samples the
    // whole run rather than one stretch of it: one `train::train` epoch
    // over a 64-sample chunk, one slice of per-sample `infer_into` calls
    // with one caller per pool thread, and every fourth round a `train::evaluate` pass. Round 0 warms
    // buffers and is not counted.
    let budget = 0.75 * seconds;
    let t_start = Instant::now();
    let (mut rates, mut eval_rates, mut lat) = (Vec::new(), Vec::new(), Vec::new());
    let mut accuracy = 0.0;
    let mut round = 0usize;
    while round <= MIN_ROUNDS || t_start.elapsed().as_secs_f64() < budget {
        let start = (round * SAMPLES_PER_CALL) % TRAIN_POOL;
        let chunk = &train[start..start + SAMPLES_PER_CALL];
        let t0 = Instant::now();
        let history = train::train(
            &mut model,
            chunk,
            &train_config(seed.wrapping_add(round as u64)),
        );
        let secs = t0.elapsed().as_secs_f64();
        report.count(1, u64::from(!history.iter().all(|h| h.loss.is_finite())));
        let slice = (round * LATENCY_SLICE) % EVAL_SAMPLES;
        let times = infer_per_core(&model, &eval[slice..slice + LATENCY_SLICE]);
        if round > 0 {
            rates.push(SAMPLES_PER_CALL as f64 / secs);
            lat.extend(times);
        }
        if round.is_multiple_of(4) {
            let t0 = Instant::now();
            accuracy = train::evaluate(&model, &eval);
            if round > 0 {
                eval_rates.push(eval.len() as f64 / t0.elapsed().as_secs_f64());
            }
        }
        round += 1;
    }
    let train_sps = median(&rates).expect("timed training calls");
    report.set("throughput_per_s", train_sps, "1/s");
    report.note(format!(
        "train_samples_per_s {train_sps:.3} 1/s (median of {} train::train epochs of {SAMPLES_PER_CALL} samples, batch {BATCH})",
        rates.len()
    ));
    report.note(format!(
        "eval_samples_per_s {:.3} 1/s (median of {} train::evaluate calls over {} held-out samples; accuracy {accuracy:.3})",
        median(&eval_rates).expect("timed evaluations"),
        eval_rates.len(),
        eval.len()
    ));
    let (summary, windows) = stats::windowed(&lat, LATENCY_SLICE, TAIL_Q).expect("latency samples");
    report.set("latency_p50_ms", summary.p50, "ms");
    report.set("latency_tail_ms", summary.tail, "ms");
    report.note(format!(
        "latency (per-sample infer_into, one caller per pool thread): p50 {:.3} ms, {} {:.3} ms (n={}, median over {windows} windows of {LATENCY_SLICE})",
        summary.p50,
        summary.tail_label(),
        summary.tail,
        summary.count
    ));
    if let Some(pooled) = stats::Summary::at(&lat, 0.99) {
        report.note(format!(
            "  pooled: p50 {:.3} ms, {} {:.3} ms (n={})",
            pooled.p50,
            pooled.tail_label(),
            pooled.tail,
            pooled.count
        ));
    }

    // The trained model's batched inference must equal its per-sample
    // inference bit for bit.
    let (_, expected) = infer_each(&model, &eval, None);
    let mismatches = batch_mismatches(&model, &eval, &expected);
    report.count(eval.len() as u64, mismatches);
    report.note(format!(
        "check: infer_batch_into == infer_into bitwise on {} held-out samples: {} mismatches",
        eval.len(),
        mismatches
    ));
    report.note(format!(
        "failed_frac {} ({} of {} operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// What one mirrored training step produced.
struct StepOut {
    loss_sum: f64,
    /// Logits per batch sample, in batch order.
    logits: Vec<Vec<f64>>,
}

/// The batch order and Gumbel seeds `train::train` uses for batch
/// `batch_idx` of epoch 0.
fn step_seed(batch_idx: u64, idx: usize) -> u64 {
    batch_idx.wrapping_mul(4099).wrapping_add(idx as u64)
}

/// One training step through the same public calls, in the same sharding,
/// as `train::train`'s step; spans wrap each call when `rec` is given.
fn mirror_step(
    model: &mut DonnModel,
    opt: &mut Adam,
    data: &[LabeledImage],
    batch: &[usize],
    batch_idx: u64,
    rec: Option<&Spans>,
) -> StepOut {
    let step = spans::open(rec, "step", 0, None);
    let workers = parallel::threads().min(batch.len()).max(1);
    let shard_size = batch.len().div_ceil(workers);
    let classes = model.num_classes();
    let (rows, cols) = model.grid().shape();
    let m: &DonnModel = model;
    let shards = parallel::par_map(workers, |w| {
        let tid = w + 1;
        let shard_span = spans::open(rec, "shard", tid, step);
        let shard: Vec<usize> = batch
            .iter()
            .skip(w * shard_size)
            .take(shard_size)
            .copied()
            .collect();
        let bsz = shard.len();
        let mut grads = ModelGrads::zeros_like(m);
        let mut loss_sum = 0.0;
        let mut logits = Vec::new();
        if bsz > 0 {
            let mut ws = m.make_batch_workspace(bsz);
            let mut ring = BatchTraceRing::new(1);
            let mut inputs = FieldBatch::zeros(bsz, rows, cols);
            let mut seeds = Vec::with_capacity(bsz);
            let mut target = Vec::with_capacity(classes);
            let mut logit_grads: Vec<Vec<f64>> =
                (0..bsz).map(|_| Vec::with_capacity(classes)).collect();
            for (b, &idx) in shard.iter().enumerate() {
                inputs.set_plane_amplitudes(b, &data[idx].0);
                seeds.push(step_seed(batch_idx, idx));
            }
            let id = spans::open(rec, "lightridge.forward", tid, shard_span);
            let trace = ring.forward(m, &inputs, CodesignMode::Train, &seeds, &mut ws);
            spans::close(rec, id);
            let id = spans::open(rec, "lr-nn.loss", tid, shard_span);
            for (b, &idx) in shard.iter().enumerate() {
                one_hot_into(data[idx].1, classes, &mut target);
                loss_sum += softmax_mse_into(&trace.logits[b], &target, &mut logit_grads[b]);
                std::hint::black_box(argmax(&trace.logits[b]));
            }
            spans::close(rec, id);
            let id = spans::open(rec, "lightridge.backward", tid, shard_span);
            m.backward_batch_with(trace, &logit_grads, &mut grads, &mut ws);
            spans::close(rec, id);
            logits = trace.logits.clone();
        }
        spans::close(rec, shard_span);
        (grads, loss_sum, logits)
    });
    let mut total = ModelGrads::zeros_like(model);
    let mut loss_sum = 0.0;
    let mut logits = Vec::with_capacity(batch.len());
    for (g, l, lg) in shards {
        total.accumulate(&g);
        loss_sum += l;
        logits.extend(lg);
    }
    total.scale(1.0 / batch.len() as f64);
    let id = spans::open(rec, "lr-nn.adam", 0, step);
    for (i, layer) in model.layers_mut().iter_mut().enumerate() {
        opt.step(i, layer.params_mut(), total.layer(i));
    }
    spans::close(rec, id);
    spans::close(rec, step);
    StepOut { loss_sum, logits }
}

/// The same step decomposed into each layer's batched entry points
/// (forward only through the detector and back; no optimizer update), with
/// a span around every call. Returns the logits.
fn layer_step(
    model: &DonnModel,
    data: &[LabeledImage],
    batch: &[usize],
    rec: &Spans,
) -> Vec<Vec<f64>> {
    let workers = parallel::threads().min(batch.len()).max(1);
    let shard_size = batch.len().div_ceil(workers);
    let classes = model.num_classes();
    let (rows, cols) = model.grid().shape();
    let layers: Vec<_> = model
        .layers()
        .iter()
        .map(|l| match l {
            Layer::Diffractive(d) => d,
            _ => panic!("the paper configuration is phase-only diffractive"),
        })
        .collect();
    let shards = parallel::par_map(workers, |w| {
        let tid = w + 1;
        let shard: Vec<usize> = batch
            .iter()
            .skip(w * shard_size)
            .take(shard_size)
            .copied()
            .collect();
        let bsz = shard.len();
        if bsz == 0 {
            return Vec::new();
        }
        let mut u = FieldBatch::zeros(bsz, rows, cols);
        for (b, &idx) in shard.iter().enumerate() {
            u.set_plane_amplitudes(b, &data[idx].0);
        }
        let mut scratch = PropagationScratch::new_batched(rows, cols);
        let mut caches: Vec<DiffractiveBatchCache> = (0..layers.len())
            .map(|_| DiffractiveBatchCache::with_capacity(bsz, rows, cols))
            .collect();
        for (i, layer) in layers.iter().enumerate() {
            rec.time(LAYER_FWD[i], tid, None, || {
                layer.forward_batch_traced(&mut u, &mut caches[i], &mut scratch)
            });
        }
        rec.time("lr-optics.final_propagate", tid, None, || {
            model
                .final_propagator()
                .propagate_batch_into(&mut u, &mut scratch)
        });
        let mut logits = vec![Vec::with_capacity(classes); bsz];
        rec.time("lightridge.detector.read", tid, None, || {
            model.detector().read_batch_into(&u, &mut logits)
        });
        let mut target = Vec::with_capacity(classes);
        let mut logit_grads = vec![Vec::with_capacity(classes); bsz];
        for (b, &idx) in shard.iter().enumerate() {
            one_hot_into(data[idx].1, classes, &mut target);
            softmax_mse_into(&logits[b], &target, &mut logit_grads[b]);
        }
        let mut grad = FieldBatch::zeros(bsz, rows, cols);
        rec.time("lightridge.detector.backward", tid, None, || {
            for (b, row) in logit_grads.iter().enumerate() {
                model
                    .detector()
                    .backward_plane_into(u.plane(b), row, grad.plane_mut(b));
            }
        });
        rec.time("lr-optics.final_adjoint", tid, None, || {
            model
                .final_propagator()
                .adjoint_batch_into(&mut grad, &mut scratch)
        });
        let mut phase_grads: Vec<Vec<f64>> =
            layers.iter().map(|l| vec![0.0; l.num_params()]).collect();
        for (i, layer) in layers.iter().enumerate().rev() {
            rec.time(LAYER_BWD[i], tid, None, || {
                layer.backward_batch_inplace(
                    &mut grad,
                    &caches[i],
                    &mut phase_grads[i],
                    &mut scratch,
                )
            });
        }
        std::hint::black_box(&phase_grads);
        logits
    });
    shards.into_iter().flatten().collect()
}

/// Every propagation hop of one step (depth + 1 forward, depth + 1
/// adjoint per shard) re-run through `FreeSpace::propagate_batch_into` /
/// `adjoint_batch_into` on the step's shard batches, each call in a span.
fn propagation_replay(model: &DonnModel, data: &[LabeledImage], batch: &[usize], rec: &Spans) {
    let workers = parallel::threads().min(batch.len()).max(1);
    let shard_size = batch.len().div_ceil(workers);
    let (rows, cols) = model.grid().shape();
    let mut hops: Vec<&lr_optics::FreeSpace> = model
        .layers()
        .iter()
        .map(|l| match l {
            Layer::Diffractive(d) => d.propagator(),
            _ => panic!("the paper configuration is phase-only diffractive"),
        })
        .collect();
    hops.push(model.final_propagator());
    parallel::par_map(workers, |w| {
        let shard: Vec<usize> = batch
            .iter()
            .skip(w * shard_size)
            .take(shard_size)
            .copied()
            .collect();
        if shard.is_empty() {
            return;
        }
        let mut u = FieldBatch::zeros(shard.len(), rows, cols);
        for (b, &idx) in shard.iter().enumerate() {
            u.set_plane_amplitudes(b, &data[idx].0);
        }
        let mut scratch = PropagationScratch::new_batched(rows, cols);
        for hop in &hops {
            rec.time("lr-optics.propagate.replay", w + 1, None, || {
                hop.propagate_batch_into(&mut u, &mut scratch)
            });
        }
        for hop in hops.iter().rev() {
            rec.time("lr-optics.adjoint.replay", w + 1, None, || {
                hop.adjoint_batch_into(&mut u, &mut scratch)
            });
        }
    });
}

/// FLOPs of one `n × n` 2-D FFT at 5·N·log₂N per 1-D transform.
pub fn fft2_flops(n: usize) -> f64 {
    let n = n as f64;
    2.0 * n * 5.0 * n * n.log2()
}

/// Fills the `lr-tensor` per-sample metrics from a kernel-profile snapshot
/// covering `samples` samples whose transforms total `flops`.
pub fn kernel_metrics(report: &mut Report, samples: f64, flops: f64) {
    use lr_obs::KernelKind as K;
    let p = kernel_profile();
    let fft_ns = (p.get(K::FftRows).total_ns + p.get(K::FftCols).total_ns) as f64;
    let per = |x: f64| x / samples.max(1.0);
    report.set("lr-tensor.fft.busy_ms", per(fft_ns / 1e6), "ms");
    report.set(
        "lr-tensor.fft.calls",
        per((p.get(K::FftRows).calls + p.get(K::FftCols).calls) as f64),
        "count",
    );
    report.set(
        "lr-tensor.fft.calls_stockham",
        per(p.get(K::Stockham).calls as f64),
        "count",
    );
    report.set(
        "lr-tensor.fft.calls_rader",
        per(p.get(K::Rader).calls as f64),
        "count",
    );
    report.set(
        "lr-tensor.fft.calls_bluestein",
        per(p.get(K::Bluestein).calls as f64),
        "count",
    );
    report.set(
        "lr-tensor.fft.gflops_computed",
        if fft_ns > 0.0 { flops / fft_ns } else { 0.0 },
        "GFLOP/s",
    );
    report.set(
        "lr-tensor.transfer.busy_ms",
        per(p.get(K::Transfer).total_ns as f64 / 1e6),
        "ms",
    );
    report.set(
        "lr-tensor.readout.busy_ms",
        per(p.get(K::Detector).total_ns as f64 / 1e6),
        "ms",
    );
    let lanes: u64 = [K::SimdSse2, K::SimdAvx2, K::SimdNeon, K::SimdPortable]
        .iter()
        .map(|&k| p.get(k).calls)
        .sum();
    let all = lanes + p.get(K::SimdScalar).calls;
    report.set(
        "lr-tensor.simd.lane_share",
        if all > 0 {
            lanes as f64 / all as f64
        } else {
            0.0
        },
        "ratio",
    );
    report.set(
        "lr-tensor.plan_cache.entries",
        plan_cache_len() as f64,
        "count",
    );
    report.set(
        "lr-optics.transfer_cache.entries",
        transfer_cache_len() as f64,
        "count",
    );
}

/// Median wall time (ms) of `steps` mirrored steps after one warm-up step.
fn timed_steps(
    model: &mut DonnModel,
    data: &[LabeledImage],
    steps: usize,
    report: &mut Report,
) -> f64 {
    let mut opt = Adam::new(LEARNING_RATE);
    let mut times = Vec::with_capacity(steps);
    for k in 0..=steps {
        let batch: Vec<usize> = (0..BATCH).map(|j| (k * BATCH + j) % data.len()).collect();
        let t0 = Instant::now();
        let out = mirror_step(model, &mut opt, data, &batch, k as u64, None);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        report.count(1, u64::from(!out.loss_sum.is_finite()));
        if k > 0 {
            times.push(ms);
        }
    }
    median(&times).expect("timed steps")
}

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report, rec: &Spans) {
    let (s, _) = setup(seed);
    let Setup {
        mut model,
        train,
        eval,
    } = s;
    // Enough steps to fill about a tenth of the run per phase.
    let probe_t0 = Instant::now();
    let mut opt = Adam::new(LEARNING_RATE);
    let warm: Vec<usize> = (0..BATCH).collect();
    mirror_step(&mut model, &mut opt, &train, &warm, 0, None);
    let step_s = probe_t0.elapsed().as_secs_f64();
    let steps = ((0.1 * seconds / step_s) as usize).clamp(3, 32);

    let untraced_ms = timed_steps(&mut model, &train, steps, report);

    // Traced step: spans around every public call, kernel profiling on.
    let model_b = model.clone();
    reset_kernel_profile();
    set_kernel_profiling(true);
    let mut opt = Adam::new(LEARNING_RATE);
    let mut step_times = Vec::with_capacity(steps);
    let mut first_logits = Vec::new();
    for k in 0..steps {
        let batch: Vec<usize> = (0..BATCH).map(|j| (k * BATCH + j) % train.len()).collect();
        let t0 = Instant::now();
        let out = mirror_step(&mut model, &mut opt, &train, &batch, k as u64, Some(rec));
        step_times.push(t0.elapsed().as_secs_f64() * 1e3);
        report.count(1, u64::from(!out.loss_sum.is_finite()));
        if k == 0 {
            first_logits = out.logits;
        }
    }
    set_kernel_profiling(false);
    let samples = (steps * BATCH) as f64;
    let flops = samples * 2.0 * (DEPTH + 1) as f64 * 2.0 * fft2_flops(GRID);
    kernel_metrics(report, samples, flops);
    let traced_ms = median(&step_times).expect("traced steps");

    let workers = parallel::threads().clamp(1, BATCH) as f64;
    let spans_a = rec.snapshot();
    let per_step = |name: &str| spans::total_ms(&spans_a, name) / steps as f64;
    let step_ms = per_step("step");
    let fwd = per_step("lightridge.forward");
    let loss = per_step("lr-nn.loss");
    let bwd = per_step("lightridge.backward");
    let adam = per_step("lr-nn.adam");
    let unattributed = step_ms - (fwd + loss + bwd) / workers - adam;
    report.set("lightridge.step_ms", step_ms, "ms");
    report.set("lightridge.forward.busy_ms", fwd, "ms");
    report.set("lightridge.backward.busy_ms", bwd, "ms");
    report.set("lr-nn.loss.busy_ms", loss, "ms");
    report.set("lr-nn.adam.busy_ms", adam, "ms");
    report.set(
        "lightridge.unattributed_frac",
        unattributed / step_ms,
        "ratio",
    );
    let selfs = spans::self_times_ns(&spans_a);
    let step_self = spans::self_ms(&spans_a, &selfs, "step") / steps as f64;
    let shard_self = spans::self_ms(&spans_a, &selfs, "shard") / steps as f64 / workers;
    report.note(format!(
        "step {step_ms:.3} ms = (forward {fwd:.3} + loss {loss:.3} + backward {bwd:.3}) / {workers} workers + adam {adam:.3} + unattributed {unattributed:.3} (ms per step of {BATCH}, mean of {steps})"
    ));
    report.note(format!(
        "unattributed {unattributed:.3} ms = step self time {step_self:.3} (gradient merge, pool dispatch) + shard self time per worker {shard_self:.3} (workspace set-up) + shard imbalance {:.3}",
        unattributed - step_self - shard_self
    ));
    report.set(
        "trace.overhead_frac",
        (traced_ms - untraced_ms) / untraced_ms,
        "ratio",
    );
    report.note(format!(
        "trace overhead: step median {traced_ms:.3} ms traced vs {untraced_ms:.3} ms untraced"
    ));

    // Per-layer replay of the same batches on the pre-update parameters;
    // its logits must equal the mirrored step's bitwise.
    let before = rec.snapshot().len();
    for k in 0..steps {
        let batch: Vec<usize> = (0..BATCH).map(|j| (k * BATCH + j) % train.len()).collect();
        let logits = layer_step(&model_b, &train, &batch, rec);
        if k == 0 {
            let bad = logits
                .iter()
                .zip(&first_logits)
                .filter(|(a, b)| !bitwise_eq(a, b))
                .count() as u64
                + (logits.len() != first_logits.len()) as u64;
            report.count(logits.len() as u64, bad);
            report.note(format!(
                "check: per-layer replay logits == forward_trace_batch_into logits bitwise: {bad} mismatches"
            ));
        }
        propagation_replay(&model_b, &train, &batch, rec);
    }
    let spans_b = &rec.snapshot()[before..];
    let per_step_b = |name: &str| spans::total_ms(spans_b, name) / steps as f64;
    for i in 0..DEPTH {
        report.set(
            &format!("{}_ms", LAYER_FWD[i]),
            per_step_b(LAYER_FWD[i]),
            "ms",
        );
        report.set(
            &format!("{}_ms", LAYER_BWD[i]),
            per_step_b(LAYER_BWD[i]),
            "ms",
        );
    }
    report.set(
        "lightridge.detector.read_ms",
        per_step_b("lightridge.detector.read"),
        "ms",
    );
    report.set(
        "lightridge.detector.backward_ms",
        per_step_b("lightridge.detector.backward"),
        "ms",
    );
    report.set(
        "lr-optics.propagate.busy_ms",
        per_step_b("lr-optics.propagate.replay"),
        "ms",
    );
    let layers_fwd: f64 = LAYER_FWD.iter().map(|n| per_step_b(n)).sum();
    let layers_bwd: f64 = LAYER_BWD.iter().map(|n| per_step_b(n)).sum();
    report.note(format!(
        "per-layer replay (ms per step, summed over workers): forward = layers {layers_fwd:.3} + final hop {:.3} + detector read {:.3}; backward = detector {:.3} + final hop {:.3} + layers {layers_bwd:.3}",
        per_step_b("lr-optics.final_propagate"),
        per_step_b("lightridge.detector.read"),
        per_step_b("lightridge.detector.backward"),
        per_step_b("lr-optics.final_adjoint"),
    ));
    report.set(
        "lr-optics.adjoint.busy_ms",
        per_step_b("lr-optics.adjoint.replay"),
        "ms",
    );

    // Thread scaling of the same step.
    let tn_ms = timed_steps(&mut model, &train, steps.min(4), report);
    parallel::set_threads(1);
    let t1_ms = timed_steps(&mut model, &train, steps.min(4), report);
    parallel::set_threads(0);
    report.set("lr-tensor.parallel.speedup_tN_over_t1", t1_ms / tn_ms, "x");
    report.note(format!(
        "step at 1 thread {t1_ms:.3} ms, at {} threads {tn_ms:.3} ms",
        parallel::threads()
    ));

    // Per-sample inference on the held-out set.
    let n_eval = (steps * 2).min(eval.len());
    let (lat, expected) = infer_each(&model, &eval[..n_eval], Some(rec));
    let mismatches = batch_mismatches(&model, &eval[..n_eval], &expected);
    report.count(n_eval as u64, mismatches);
    report.set(
        "lightridge.eval.infer_ms",
        median(&lat).expect("eval samples"),
        "ms",
    );
    report.set("trace.spans", rec.snapshot().len() as f64, "count");
}
