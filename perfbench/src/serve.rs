//! `serve_small` and `serve_200`: open-loop Poisson load over loopback TCP
//! (`Server::listen`, the `lr-net` protocol) at fixed absolute rates.
//!
//! Each connection has one request in flight (the protocol's rule), and
//! the benchmark opens at most `nproc` connections from at most `nproc`
//! threads, one per model where there are enough. Every request is timed
//! from its *scheduled* send time, so a stalled server or a late
//! generator counts against latency; how late the generator ran is
//! reported too. Every `Ok` response must equal a direct
//! `DonnModel::infer` result, precomputed in setup, bit for bit.

use crate::report::{peak_rss_mb, Report};
use crate::schedule::{poisson, Arrival};
use crate::spans::{self, Spans};
use crate::stats::{self, max_rate_at_slo, median, RungResult, Summary};
use crate::train::{bitwise_eq, digit_images, fft2_flops, kernel_metrics};
use lightridge::{Detector, DonnBuilder, DonnModel};
use lr_obs::{reset_kernel_profile, set_kernel_profiling};
use lr_optics::{clear_transfer_cache, Approximation, Distance, Grid, PixelPitch, Wavelength};
use lr_serve::{
    BatchPolicy, ModelId, ModelRegistry, NetBind, NetClient, NetConfig, NetServer, ReadoutMode,
    Server, TraceConfig,
};
use lr_tensor::{clear_plan_cache, Field};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One served model of a workload.
#[derive(Clone, Copy, Debug)]
pub struct ModelSpec {
    /// Grid side.
    pub grid: usize,
    /// Diffractive layers.
    pub depth: usize,
    /// Readout the registry serves it with.
    pub readout: ReadoutMode,
    /// Share of requests.
    pub share: f64,
}

/// A serve workload: models, fixed load ladder, and latency limit.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// The two served models.
    pub models: [ModelSpec; 2],
    /// The ladder of offered rates tried for `max_rps_at_slo`: lowest
    /// rate (requests/s), ratio between neighbouring rungs, highest rate.
    pub ladder: (f64, f64, f64),
    /// Offered rate at which latency is reported (it need not be a rung).
    pub reference_rps: f64,
    /// Limit on a rung's latency tail for it to pass, ms.
    pub limit_ms: f64,
    /// Quantile reported as the reference phase's latency tail.
    pub tail_q: f64,
    /// Requests per window of the reference latency summary: each round
    /// sends one window at the reference rate, and the reported p50 and
    /// tail are medians over the windows' own quantiles. A multiple of
    /// the 20-arrival mix block, so every window has the exact model mix.
    pub window: usize,
    /// Share of the run spent at the reference rate.
    pub reference_share: f64,
    /// Share of the run spent in closed-loop saturation.
    pub saturation_share: f64,
    /// Distinct inputs per model.
    pub inputs: usize,
    /// Most connections (and load threads) to open; fewer when `nproc`
    /// is smaller.
    pub connections: usize,
}

/// 32² emulated (70%) and 48² deployed-readout (30%) models, depth 2.
pub const SERVE_SMALL: ServeSpec = ServeSpec {
    name: "serve_small",
    models: [
        ModelSpec {
            grid: 32,
            depth: 2,
            readout: ReadoutMode::Emulation,
            share: 0.7,
        },
        ModelSpec {
            grid: 48,
            depth: 2,
            readout: ReadoutMode::Deployed,
            share: 0.3,
        },
    ],
    ladder: (800.0, 1.05, 4000.0),
    reference_rps: 800.0,
    limit_ms: 50.0,
    tail_q: 0.99,
    window: 1000,
    reference_share: 0.5,
    saturation_share: 0.15,
    inputs: 32,
    connections: 2,
};

/// 200² (70%, Stockham plans) and 197² (30%, prime grid, Rader plans)
/// models, depth 3.
pub const SERVE_200: ServeSpec = ServeSpec {
    name: "serve_200",
    models: [
        ModelSpec {
            grid: 200,
            depth: 3,
            readout: ReadoutMode::Emulation,
            share: 0.7,
        },
        ModelSpec {
            grid: 197,
            depth: 3,
            readout: ReadoutMode::Deployed,
            share: 0.3,
        },
    ],
    ladder: (12.0, 1.1, 96.0),
    reference_rps: 6.0,
    limit_ms: 400.0,
    tail_q: 0.9,
    window: 20,
    reference_share: 0.6,
    saturation_share: 0.2,
    inputs: 8,
    connections: 1,
};

/// Requests per window of a ladder rung's p99.
const RUNG_WINDOW: usize = 1000;

impl ServeSpec {
    /// The fixed ladder of offered rates.
    pub fn rungs(&self) -> Vec<f64> {
        stats::geometric_ladder(self.ladder.0, self.ladder.1, self.ladder.2)
    }

    /// Connections (and load threads) the generator uses: the workload's
    /// count, but at most `nproc`.
    pub fn connections(&self) -> usize {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(self.connections)
            .max(1)
    }
}

/// A served phase-only stack: Rayleigh–Sommerfeld hops (300 mm on grids
/// of 100² and up, 30 mm below) and a 10-class detector.
fn serve_model(spec: &ModelSpec, seed: u64) -> DonnModel {
    let n = spec.grid;
    let grid = Grid::square(n, PixelPitch::from_um(36.0));
    DonnBuilder::new(grid, Wavelength::from_nm(532.0))
        .distance(Distance::from_mm(if n >= 100 { 300.0 } else { 30.0 }))
        .approximation(Approximation::RayleighSommerfeld)
        .diffractive_layers(spec.depth)
        .detector(Detector::grid_layout(n, n, 10, (n / 12).max(2)))
        .init_seed(seed)
        .build()
}

/// A running server with its listener and connected clients.
struct Rig {
    server: Server,
    net: NetServer,
    clients: Vec<NetClient>,
    ids: [ModelId; 2],
    models: Vec<DonnModel>,
    inputs: Vec<Vec<Field>>,
    mix: [f64; 2],
}

impl Rig {
    fn shutdown(self) {
        let Rig {
            server,
            mut net,
            clients,
            ..
        } = self;
        drop(clients);
        net.shutdown();
        server.shutdown();
    }
}

/// Input generation, model build, server start with registration
/// (prewarm), listen, and connect — from cold process-global caches.
fn setup(spec: &ServeSpec, seed: u64, trace: Option<Arc<TraceConfig>>) -> (Rig, f64) {
    clear_plan_cache();
    clear_transfer_cache();
    let t0 = Instant::now();
    let inputs: Vec<Vec<Field>> = spec
        .models
        .iter()
        .enumerate()
        .map(|(m, s)| {
            digit_images(spec.inputs, s.grid, seed ^ (0xd1_6175 + m as u64))
                .iter()
                .map(|(img, _)| Field::from_amplitudes(s.grid, s.grid, img))
                .collect()
        })
        .collect();
    let models: Vec<DonnModel> = spec
        .models
        .iter()
        .enumerate()
        .map(|(m, s)| serve_model(s, seed.wrapping_add(m as u64)))
        .collect();
    let mut registry = ModelRegistry::new();
    let ids = [0, 1].map(|m| {
        registry.register_emulated(
            &format!("{}-{m}", spec.name),
            1,
            models[m].clone(),
            spec.models[m].readout,
        )
    });
    let policy = BatchPolicy {
        shards: 2,
        trace,
        ..BatchPolicy::default()
    };
    let server = Server::start(registry, policy);
    let net = server
        .listen(
            NetBind::Tcp("127.0.0.1:0".parse().expect("loopback address")),
            NetConfig::default(),
        )
        .expect("bind a loopback listener");
    let addr = net.local_addr().expect("TCP listener has an address");
    let clients = (0..spec.connections())
        .map(|_| NetClient::connect_tcp(addr).expect("connect over loopback"))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    (
        Rig {
            server,
            net,
            clients,
            ids,
            models,
            inputs,
            mix: spec.models.map(|m| m.share),
        },
        secs,
    )
}

/// Direct `DonnModel` results for every input, the reference each `Ok`
/// response must equal bitwise; also returns per-call times (ms).
fn expected_outputs(spec: &ServeSpec, rig: &Rig) -> (Vec<Vec<Vec<f64>>>, Vec<f64>) {
    let mut times = Vec::new();
    let expected = (0..2)
        .map(|m| {
            rig.inputs[m]
                .iter()
                .map(|x| {
                    let t0 = Instant::now();
                    let out = match spec.models[m].readout {
                        ReadoutMode::Emulation => rig.models[m].infer(x),
                        ReadoutMode::Deployed => rig.models[m].infer_deployed(x),
                    };
                    if m == 0 {
                        times.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    out
                })
                .collect()
        })
        .collect();
    (expected, times)
}

/// What one open-loop phase observed.
pub struct Phase {
    /// Offered rate.
    pub rate: f64,
    /// Client latency from the scheduled send time, ms (failed requests
    /// read +∞: they miss any limit).
    pub latency_ms: Vec<f64>,
    /// Generator lateness per request, ms, in schedule order.
    pub late_ms: Vec<f64>,
    /// Requests failed (typed error, transport error, or mismatch).
    pub failed: usize,
    /// Requests per model.
    pub per_model: [usize; 2],
    /// Model of each request, in schedule order.
    pub models: Vec<usize>,
}

impl Phase {
    /// The rung verdict's inputs. Its tail is p99 (the median over windows
    /// of 1000 requests when there are two or more), or the highest
    /// percentile the phase's sample supports when it has fewer than 1000.
    fn rung(&self) -> RungResult {
        let tail = stats::windowed(&self.latency_ms, RUNG_WINDOW, 0.99)
            .map_or(f64::INFINITY, |s| s.0.tail);
        RungResult {
            rate: self.rate,
            attempted: self.latency_ms.len(),
            failed: self.failed,
            tail_ms: tail,
            late_ms: self.late_ms.clone(),
        }
    }
}

/// Fires `count` Poisson arrivals at `rate` over the rig's connections
/// and checks every response.
fn phase(
    rig: &mut Rig,
    expected: &[Vec<Vec<f64>>],
    seed: u64,
    rate: f64,
    count: usize,
    rec: Option<&Spans>,
) -> Phase {
    let schedule = poisson(seed, rate, count.max(1), &rig.mix, rig.inputs[0].len());
    let conns = rig.clients.len();
    let mut per_conn: Vec<Vec<(usize, Arrival)>> = vec![Vec::new(); conns];
    for (i, a) in schedule.iter().enumerate() {
        per_conn[a.model % conns].push((i, *a));
    }
    let ids = rig.ids;
    let inputs = &rig.inputs;
    let epoch = Instant::now() + Duration::from_millis(2);
    let results: Vec<Vec<(usize, f64, f64, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(&per_conn)
            .enumerate()
            .map(|(c, (client, arrivals))| {
                scope.spawn(move || {
                    let mut logits = Vec::with_capacity(16);
                    let mut out = Vec::with_capacity(arrivals.len());
                    for &(i, a) in arrivals {
                        let due = epoch + a.at;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let id = spans::open(rec, "lr-net.client.infer", c + 1, None);
                        let result =
                            client.infer(ids[a.model], &inputs[a.model][a.input], &mut logits);
                        spans::close(rec, id);
                        let done = Instant::now();
                        let ok = result.is_ok() && bitwise_eq(&logits, &expected[a.model][a.input]);
                        out.push((
                            i,
                            done.duration_since(due).as_secs_f64() * 1e3,
                            sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                            ok,
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut rows: Vec<(usize, f64, f64, bool)> = results.into_iter().flatten().collect();
    rows.sort_by_key(|r| r.0);
    let mut per_model = [0usize; 2];
    for a in &schedule {
        per_model[a.model] += 1;
    }
    Phase {
        rate,
        latency_ms: rows
            .iter()
            .map(|r| if r.3 { r.1 } else { f64::INFINITY })
            .collect(),
        late_ms: rows.iter().map(|r| r.2).collect(),
        failed: rows.iter().filter(|r| !r.3).count(),
        per_model,
        models: schedule.iter().map(|a| a.model).collect(),
    }
}

/// Completions per window of the saturation rate.
const SATURATION_WINDOW: usize = 20;

/// Closed-loop saturation: every connection sends its next request as
/// soon as the previous one returns, for `secs`, checking each response.
/// Returns the completion rate (requests/s) of each run of
/// [`SATURATION_WINDOW`] consecutive completions (from the end of the run
/// before, or the start), the number of requests completed, and the
/// number that failed.
fn saturate(
    rig: &mut Rig,
    expected: &[Vec<Vec<f64>>],
    seed: u64,
    secs: f64,
) -> (Vec<f64>, usize, usize) {
    let conns = rig.clients.len();
    // Model and input order come from the seeded schedule; its timing is
    // ignored.
    let order = poisson(seed, 1.0, 4096, &rig.mix, rig.inputs[0].len());
    let ids = rig.ids;
    let inputs = &rig.inputs;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let results: Vec<(Vec<f64>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let order = &order;
                scope.spawn(move || {
                    let mine: Vec<&Arrival> =
                        order.iter().filter(|a| a.model % conns == c).collect();
                    let mut logits = Vec::with_capacity(16);
                    let (mut done_at, mut failed) = (Vec::new(), 0);
                    for a in mine.iter().cycle() {
                        if Instant::now() >= end {
                            break;
                        }
                        let result =
                            client.infer(ids[a.model], &inputs[a.model][a.input], &mut logits);
                        if result.is_ok() && bitwise_eq(&logits, &expected[a.model][a.input]) {
                            done_at.push(start.elapsed().as_secs_f64());
                        } else {
                            failed += 1;
                        }
                    }
                    (done_at, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut failed = 0;
    let mut done_at = Vec::new();
    for (d, f) in results {
        failed += f;
        done_at.extend(d);
    }
    done_at.sort_by(f64::total_cmp);
    let mut prev = 0.0;
    let rates = done_at
        .chunks_exact(SATURATION_WINDOW)
        .map(|w| {
            let end = w[SATURATION_WINDOW - 1];
            let rate = SATURATION_WINDOW as f64 / (end - prev);
            prev = end;
            rate
        })
        .collect();
    (rates, done_at.len(), failed)
}

impl Phase {
    /// Appends another phase's requests (same rate) to this one.
    fn append(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.failed += other.failed;
        self.per_model[0] += other.per_model[0];
        self.per_model[1] += other.per_model[1];
        self.models.extend(other.models);
    }

    /// Median client latency of model `m`'s requests and their count.
    fn model_p50(&self, m: usize) -> (f64, usize) {
        let lat: Vec<f64> = self
            .latency_ms
            .iter()
            .zip(&self.models)
            .filter(|(_, &k)| k == m)
            .map(|(&l, _)| l)
            .collect();
        (median(&lat).unwrap_or(0.0), lat.len())
    }
}

fn seconds_to_count(rate: f64, secs: f64) -> usize {
    (rate * secs).round().max(1.0) as usize
}

/// What the rounds of the untraced run measured.
#[derive(Default)]
struct Rounds {
    /// Reference-rate requests of every round, in round order.
    reference: Option<Phase>,
    /// Saturation completion rates of every round.
    rates: Vec<f64>,
    /// Saturation requests completed and failed.
    completed: usize,
    failed: usize,
    /// Rounds run.
    done: usize,
}

impl Rounds {
    /// One round on `rig` (or a freshly started server): one window of
    /// requests at the reference rate, then closed-loop saturation.
    fn run(
        &mut self,
        spec: &ServeSpec,
        seed: u64,
        expected: &[Vec<Vec<f64>>],
        rig: Option<Rig>,
        sat_secs: f64,
    ) {
        let mut rig = rig.unwrap_or_else(|| setup(spec, seed, None).0);
        let i = self.done as u64;
        let p = phase(
            &mut rig,
            expected,
            seed.wrapping_add(1000 + i),
            spec.reference_rps,
            spec.window,
            None,
        );
        match self.reference.as_mut() {
            None => self.reference = Some(p),
            Some(r) => r.append(p),
        }
        let (rates, completed, failed) =
            saturate(&mut rig, expected, seed.wrapping_add(3000 + i), sat_secs);
        rig.shutdown();
        self.rates.extend(rates);
        self.completed += completed;
        self.failed += failed;
        self.done += 1;
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, report: &mut Report) {
    let mut times = Vec::new();
    let mut rig = None;
    while !stats::enough_setups(&times) {
        if let Some(r) = rig.take() {
            Rig::shutdown(r);
        }
        let (r, t) = setup(spec, seed, None);
        times.push(t);
        rig = Some(r);
    }
    let rig = rig.expect("set up");
    report.set("setup_s", median(&times).expect("setup ran"), "s");
    report.note(format!("setup_s: median of {} cold setups", times.len()));
    let (expected, _) = expected_outputs(spec, &rig);

    // The run is a sequence of rounds, each on a freshly started server:
    // one window of requests at the reference rate, then closed-loop
    // saturation. The ladder's probes run between rounds, each on a fresh
    // server too. Every end-to-end metric is a median over windows drawn
    // from all rounds, so it samples the whole run rather than one
    // stretch of it, and no phase depends on which phases (overloaded or
    // not) ran before it.
    let ref_secs = spec.reference_share * seconds;
    let rounds = ((spec.reference_rps * ref_secs / spec.window as f64).round() as usize).max(2);
    let sat_secs = spec.saturation_share * seconds / rounds as f64;
    let ladder = spec.rungs();
    let above = ladder.iter().filter(|&&r| r > spec.reference_rps).count();
    let probes = (usize::BITS - above.leading_zeros()) as usize;
    let probe_secs =
        (1.0 - spec.reference_share - spec.saturation_share) * seconds / probes.max(1) as f64;
    let mut m = Rounds::default();
    m.run(spec, seed, &expected, Some(rig), sat_secs);
    let mut k = 0u64;
    let (best, ran) = max_rate_at_slo(&ladder, spec.limit_ms, Vec::new(), |rate| {
        k += 1;
        // Spread the probes evenly over the rounds.
        while m.done < rounds && m.done * (probes + 1) < k as usize * rounds {
            m.run(spec, seed, &expected, None, sat_secs);
        }
        let (mut rig, _) = setup(spec, seed, None);
        let p = phase(
            &mut rig,
            &expected,
            seed.wrapping_add(k),
            rate,
            seconds_to_count(rate, probe_secs),
            None,
        );
        rig.shutdown();
        p.rung()
    });
    while m.done < rounds {
        m.run(spec, seed, &expected, None, sat_secs);
    }
    let reference = m.reference.expect("at least one round");
    let (lat, windows) = stats::windowed(&reference.latency_ms, spec.window, spec.tail_q)
        .expect("reference requests");
    let late = Summary::at(&reference.late_ms, 0.99).expect("reference requests");
    report.set("latency_p50_ms", lat.p50, "ms");
    report.set("latency_tail_ms", lat.tail, "ms");
    report.note(format!(
        "latency_p50_ms {:.4} ms, latency_{}_ms {:.4} ms (n={}, median over {windows} windows of {}, one per round) at reference {} req/s; generator late p50 {:.4} ms, p99 {:.4} ms (n={})",
        lat.p50,
        lat.tail_label(),
        lat.tail,
        lat.count,
        spec.window,
        spec.reference_rps,
        late.p50,
        late.tail,
        late.count
    ));
    if let Some(pooled) = stats::supported_tail(reference.latency_ms.len())
        .and_then(|q| Summary::at(&reference.latency_ms, q))
    {
        report.note(format!(
            "  pooled over all windows: p50 {:.4} ms, {} {:.4} ms (n={})",
            pooled.p50,
            pooled.tail_label(),
            pooled.tail,
            pooled.count
        ));
    }
    report.count(reference.latency_ms.len() as u64, reference.failed as u64);
    for (i, model) in spec.models.iter().enumerate() {
        let (p50, n) = reference.model_p50(i);
        report.note(format!(
            "  model {i} ({}x{}): p50 {p50:.4} ms (n={n})",
            model.grid, model.grid
        ));
    }
    for r in &ran {
        report.count(r.attempted as u64, r.failed as u64);
        report.note(format!(
            "rung {} req/s: n={} failed={} tail {:.4} ms backlog_grows={} -> {}",
            r.rate,
            r.attempted,
            r.failed,
            r.tail_ms,
            stats::backlog_grows(&r.late_ms, spec.limit_ms),
            if stats::rung_passes(r, spec.limit_ms) {
                "pass"
            } else {
                "fail"
            }
        ));
    }
    report.note(format!(
        "max_rps_at_slo {best} req/s (tail <= {} ms, failed_frac = 0, no growing backlog; ladder {:?})",
        spec.limit_ms, ladder
    ));

    report.count((m.completed + m.failed) as u64, m.failed as u64);
    let saturated = median(&m.rates).expect("saturation completed a window");
    report.set("throughput_per_s", saturated, "1/s");
    report.note(format!(
        "saturated_rps {saturated:.3} req/s (closed loop on {} connection(s), median over {} windows of {SATURATION_WINDOW} completions from {rounds} rounds)",
        spec.connections(),
        m.rates.len()
    ));
    report.note(format!(
        "failed_frac {} ({} of {} requests)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The traced run: per-layer metrics at the reference rate.
pub fn run_traced(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    report: &mut Report,
    rec: &Spans,
    out_dir: &std::path::Path,
) {
    // Untraced and traced servers take turns at the reference rate, each
    // pair of segments on the same schedule, so the overhead compares
    // like with like and host drift hits both sides alike.
    let segments = 4;
    let count = seconds_to_count(
        spec.reference_rps,
        0.5 * spec.reference_share * seconds / segments as f64,
    );
    let (mut base_rig, _) = setup(spec, seed, None);
    let (expected, _) = expected_outputs(spec, &base_rig);
    let trace = Arc::new(TraceConfig {
        seed,
        ..TraceConfig::default()
    });
    let (mut rig, _) = setup(spec, seed, Some(trace));
    let (_, infer_ms) = expected_outputs(spec, &rig);
    reset_kernel_profile();
    let mut halves: Option<(Phase, Phase)> = None;
    for i in 0..segments {
        let schedule_seed = seed.wrapping_add(i);
        let b = phase(
            &mut base_rig,
            &expected,
            schedule_seed,
            spec.reference_rps,
            count,
            None,
        );
        set_kernel_profiling(true);
        let t = phase(
            &mut rig,
            &expected,
            schedule_seed,
            spec.reference_rps,
            count,
            Some(rec),
        );
        set_kernel_profiling(false);
        match halves.as_mut() {
            None => halves = Some((b, t)),
            Some((base, traced)) => {
                base.append(b);
                traced.append(t);
            }
        }
    }
    base_rig.shutdown();
    let (base, traced) = halves.expect("at least one segment");
    report.count(base.latency_ms.len() as u64, base.failed as u64);
    report.count(traced.latency_ms.len() as u64, traced.failed as u64);

    let flops: f64 = (0..2)
        .map(|m| {
            let s = &spec.models[m];
            traced.per_model[m] as f64 * (s.depth + 1) as f64 * 2.0 * fft2_flops(s.grid)
        })
        .sum();
    kernel_metrics(report, traced.latency_ms.len() as f64, flops);
    report.set(
        "lightridge.eval.infer_ms",
        median(&infer_ms).unwrap_or(0.0),
        "ms",
    );

    let stats = rig.server.stats();
    let net = rig.net.stats();
    let stages = [
        ("queue_wait", &stats.stage_latency.queue_wait),
        ("staging", &stats.stage_latency.staging),
        ("forward", &stats.stage_latency.forward),
        ("respond", &stats.stage_latency.respond),
    ];
    let mut overflow = stats.latency.overflow + net.recv.overflow + net.decode.overflow;
    for (name, s) in stages {
        report.set(&format!("lr-serve.{name}.p50_ms"), ms(s.p50_ns), "ms");
        report.set(&format!("lr-serve.{name}.p99_ms"), ms(s.p99_ns), "ms");
        report.set(&format!("lr-serve.{name}.samples"), s.count as f64, "count");
        overflow += s.overflow;
    }
    report.set(
        "lr-serve.mean_executed_batch",
        stats.mean_executed_batch,
        "count",
    );
    report.set(
        "lr-serve.batch_executions",
        stats.batch_executions as f64,
        "count",
    );
    let stolen: u64 = stats.per_shard.iter().map(|s| s.stolen).sum();
    report.set(
        "lr-serve.stolen_frac",
        stolen as f64 / stats.completed.max(1) as f64,
        "ratio",
    );
    let done: Vec<f64> = stats.per_shard.iter().map(|s| s.completed as f64).collect();
    let mean = done.iter().sum::<f64>() / done.len().max(1) as f64;
    let max = done.iter().copied().fold(0.0, f64::max);
    report.set(
        "lr-serve.shard_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
    );
    report.set("lr-serve.rejected", stats.rejected as f64, "count");
    report.set("lr-serve.shed", stats.shed as f64, "count");
    report.set(
        "lr-serve.deadline_expired",
        stats.deadline_expired as f64,
        "count",
    );
    report.set("lr-serve.histogram_overflow", overflow as f64, "count");
    report.set("lr-net.recv.p50_ms", ms(net.recv.p50_ns), "ms");
    report.set("lr-net.recv.p99_ms", ms(net.recv.p99_ns), "ms");
    report.set("lr-net.decode.p50_ms", ms(net.decode.p50_ns), "ms");
    report.set("lr-net.decode.p99_ms", ms(net.decode.p99_ns), "ms");
    let client = Summary::at(&traced.latency_ms, 0.99).expect("traced requests");
    report.set(
        "lr-net.wire_residual.p50_ms",
        client.p50 - ms(stats.latency.p50_ns),
        "ms",
    );
    report.set(
        "lr-net.protocol_errors",
        net.protocol_errors as f64,
        "count",
    );
    report.set("lr-net.request_errors", net.request_errors as f64, "count");
    report.set("lr-net.refused", net.refused as f64, "count");
    report.count(0, net.protocol_errors + net.request_errors + net.refused);
    report.set("loadgen.sent", traced.latency_ms.len() as f64, "count");
    let late = Summary::at(&traced.late_ms, 0.99).expect("traced requests");
    report.set("loadgen.late.p99_ms", late.tail, "ms");
    report.set("loadgen.threads", rig.clients.len() as f64, "count");
    report.set("loadgen.connections", net.accepted as f64, "count");

    let base_p50 = Summary::at(&base.latency_ms, 0.5)
        .expect("baseline requests")
        .p50;
    report.set(
        "trace.overhead_frac",
        (client.p50 - base_p50) / base_p50,
        "ratio",
    );
    report.note(format!(
        "trace overhead: client p50 {:.4} ms traced vs {:.4} ms untraced (n={} each)",
        client.p50,
        base_p50,
        traced.latency_ms.len()
    ));
    if let Some(snapshot) = rig.server.drain_trace() {
        report.set("trace.server_events", snapshot.events.len() as f64, "count");
        let path = out_dir.join(format!("trace_{}.server.json", spec.name));
        if let Err(e) = std::fs::write(&path, snapshot.to_chrome_json()) {
            report.note(format!("could not write {}: {e}", path.display()));
        }
    }
    report.set("trace.spans", rec.snapshot().len() as f64, "count");
    rig.shutdown();
}
