//! The three workloads and their end-to-end runs.

use crate::models::ModelSpec;
use crate::qat;
use crate::report::Report;
use crate::serve::{self, Deployment, Mix, Outcome};
use crate::stats::{median, quantile, sliced_quantile};
use cq_core::QuantScheme;
use cq_serve::{Slo, StreamSpec};
use std::time::Duration;

/// Closed-loop callers of `serve-r20`.
const R20_CLIENTS: usize = 2;
/// Closed-loop callers of `serve-tiny`'s untraced run. A closed loop, not
/// the open-loop stream of the traced run: on a shared 2-vCPU x86-64 VM
/// about half of a ~1 ms open-loop request's latency was wake-ups of idle
/// cores, and whenever other load shared the host the open-loop median
/// latency of whole runs moved by up to 2x (1.5x beside one 50%-duty CPU
/// hog, 1.9x beside two). Four callers keep both cores busy, so latency
/// and throughput follow compute instead (1.2-1.5x beside the same hogs),
/// and coalescing still happens; two or eight callers measured no
/// steadier.
const TINY_CLIENTS: usize = 4;
/// Offered load of `serve-tiny`'s open-loop windows in the traced run,
/// requests per second (mean 7/3 images per request, so ~1170 img/s).
/// Fixed here, never recalibrated per run: about 30% of the ~3850 img/s
/// the session sustained under overload on a 2-core x86-64 VM.
const TINY_RATE_RPS: f64 = 500.0;
/// Request sizes of `serve-tiny`.
const TINY_SIZES: [usize; 3] = [1, 2, 4];
/// What the closed-loop callers of each serving workload send.
const R20_MIX: Mix = Mix {
    models: 1,
    sizes: &[1],
    classes: &[Slo::Bulk],
};
const TINY_MIX: Mix = Mix {
    models: 2,
    sizes: &TINY_SIZES,
    classes: &[Slo::Latency, Slo::Bulk],
};
/// Distinct seeded inputs per model and request size.
const POOL: usize = 8;
/// Set-up repetitions per run; `setup_s` is their median. Small models
/// set up in milliseconds, so they repeat more.
const R20_SETUP_REPS: usize = 5;
const TINY_SETUP_REPS: usize = 15;
const QAT_SETUP_REPS: usize = 25;
/// Untimed serving before measuring, so arenas and the executor pool are
/// warm.
pub const WARMUP: Duration = Duration::from_millis(1500);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeR20,
    ServeTiny,
    QatTiny,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "serve-r20" => Some(Self::ServeR20),
            "serve-tiny" => Some(Self::ServeTiny),
            "qat-tiny" => Some(Self::QatTiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ServeR20 => "serve-r20",
            Self::ServeTiny => "serve-tiny",
            Self::QatTiny => "qat-tiny",
        }
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Self::ServeR20 => {
                "the paper's CIFAR-10 Table II shape (ResNet-20, 32x32x3, 3b W at 1b/cell, \
                 binary psums, 128x128 arrays, column-wise scheme) served closed-loop by 2 \
                 single-image clients: CIM convs are nearly all the compute, so kernel, \
                 im2col and digitize work dominate and queueing is negligible"
            }
            Self::ServeTiny => {
                "quick CIFAR-10 ResNet-8 (width 6, 12x12, 32x32 arrays) with the paper's \
                 scheme and BWMA resident side by side, served closed-loop by 4 callers \
                 (the traced run: open-loop Poisson at a fixed rate), sizes {1,2,4}, half \
                 latency-class: sweeps take 0.5-2 ms, so scheduling, wakeups and \
                 coalescing in the serving layer are a large share of latency"
            }
            Self::QatTiny => {
                "one-stage QAT (train_with_scheme, paper scheme) on quick CIFAR-10 data, \
                 batch 16, fixed epoch budget: the f32 train forward/backward, LSQ weight \
                 and psum quantization with STE, bit-splitting and SGD, never the frozen \
                 integer path"
            }
        }
    }
}

/// Which end-to-end metric each layer metric should move, on which
/// workload — written down before any optimisation is measured.
pub const PREDICTIONS: &str = "\
prediction: layer metric -> end-to-end metric it should move -> workload
prediction: tensor.igemm_gmac_per_s, tensor.im2col_ms.b8, tensor.widen_ms.b8, tensor.igemm_macs_per_image, tensor.igemm_bytes_per_image, tensor.os_threads_spawned -> images_per_s -> serve-r20 (about none on qat-tiny)
prediction: cim.conv_ms.b8, cim.frontend_ms.b8, cim.digitize_ms.b8, cim.adc_conversions_per_image, cim.dequant_mults -> images_per_s on serve-r20; latency_p50_ms on serve-tiny
prediction: cim.actquant_ms.b8 -> images_per_s -> serve-r20; quant.weight_lsq_ms, quant.bitsplit_ms -> qat images_per_s -> qat-tiny
prediction: core.freeze_ms -> setup_s -> all; core.sweep_ms.b1/b2/b4/b8, core.serial_sweep_ms.b8, nn.noncim_ms.b8 -> latency_p50_ms -> serve-tiny
prediction: serve.submit_us_p50, serve.noncompute_ms_p50/p99, serve.rows_per_sweep, serve.queue_depth_mean/peak, serve.rejected, serve.output_mismatches -> latency_p50_ms and images_per_s (and the printed latency_p99_ms) -> serve-tiny (about none on serve-r20)
prediction: train.forward_ms, train.backward_ms, train.optim_ms, train.eval_ms_per_epoch, data.batch_ms -> images_per_s (qat) -> qat-tiny (none on serving)
prediction: bench.generator_lag_ms_p99, bench.tracing_overhead_share -> validity of serve-tiny runs";

/// The models a workload serves. `qat-tiny` serves none end to end; its
/// traced run measures the inference layers on the architecture it
/// trains.
pub fn models(w: Workload) -> Vec<ModelSpec> {
    match w {
        Workload::ServeR20 => vec![ModelSpec::resnet20()],
        Workload::ServeTiny => vec![
            ModelSpec::tiny("tiny-ours", QuantScheme::ours()),
            ModelSpec::tiny("tiny-bwma", QuantScheme::bwma()),
        ],
        Workload::QatTiny => vec![ModelSpec::tiny("tiny-ours", QuantScheme::ours())],
    }
}

/// Deploys the models of workload `w` with its request sizes.
pub fn deploy(w: Workload, seed: u64) -> Deployment {
    let sizes: &[usize] = if w == Workload::ServeTiny {
        &TINY_SIZES
    } else {
        &[1]
    };
    let reps = if w == Workload::ServeR20 {
        R20_SETUP_REPS
    } else {
        TINY_SETUP_REPS
    };
    serve::deploy(&models(w), sizes, POOL, seed, reps)
}

/// The open-loop arrival schedule of `serve-tiny`.
fn tiny_schedule(seed: u64, window: Duration) -> Vec<cq_serve::StreamRequest> {
    StreamSpec {
        rate_rps: TINY_RATE_RPS,
        requests: (TINY_RATE_RPS * window.as_secs_f64() * 1.5) as usize + 64,
        models: 2,
        batch_choices: TINY_SIZES.to_vec(),
        latency_fraction: 0.5,
        seed,
        tenants: Vec::new(),
    }
    .generate()
}

/// One closed-loop serving window of workload `w`.
pub fn serve_window(
    w: Workload,
    dep: &Deployment,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Outcome {
    match w {
        Workload::ServeTiny => {
            serve::closed_loop(dep, &TINY_MIX, TINY_CLIENTS, window, seed, traced)
        }
        _ => serve::closed_loop(dep, &R20_MIX, R20_CLIENTS, window, seed, traced),
    }
}

/// One serving window of the traced run: `serve-tiny` replays its
/// open-loop schedule, timing each request from its due time; the other
/// workloads serve as in [`serve_window`].
pub fn traced_serve_window(
    w: Workload,
    dep: &Deployment,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Outcome {
    match w {
        Workload::ServeTiny => {
            serve::open_loop(dep, &tiny_schedule(seed, window), window, seed, traced)
        }
        _ => serve_window(w, dep, seed, window, traced),
    }
}

fn account(report: &mut Report, out: &Outcome) {
    report.attempted += out.attempted;
    report.failed += out.failed();
}

/// The serving correctness check: every failure counted in `report`
/// (an output that is not bit-exact to its `infer_batch` reference, a
/// rejected submission or a timeout) fails the run.
pub fn serving_check(report: &mut Report) {
    let ok = report.failed == 0;
    report.check(
        "every served output bit-exact to PreparedCimModel::infer_batch; no rejects or timeouts",
        ok,
    );
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(w: Workload, seed: u64, window: Duration) -> Report {
    match w {
        Workload::QatTiny => qat_end_to_end(seed, window),
        _ => serving_end_to_end(w, seed, window),
    }
}

fn qat_end_to_end(seed: u64, window: Duration) -> Report {
    let mut report = Report::default();
    let setup_s = qat::setup_s(seed, QAT_SETUP_REPS);
    let out = qat::run(seed, window);
    report.attempted = out.jobs;
    report.failed = out.failed_jobs;
    report.check(
        "every QAT job: epoch losses finite and the last below the first",
        out.failed_jobs == 0,
    );
    let n = out.ms_per_step.len();
    report.metric(
        "images_per_s",
        median(&out.job_images_per_s),
        "img/s",
        Some(out.job_images_per_s.len()),
    );
    report.metric(
        "latency_p50_ms",
        sliced_quantile(&out.ms_per_step, 0.5),
        "ms",
        Some(n),
    );
    report.detail(
        "latency_p99_ms",
        quantile(&out.ms_per_step, 0.99),
        "ms",
        Some(n),
    );
    report.metric("setup_s", median(&setup_s), "s", Some(setup_s.len()));
    report.detail(
        "qat_steps_per_s",
        out.steps as f64 / out.train_s,
        "1/s",
        Some(out.steps as usize),
    );
    report.notes.push(format!(
        "{} QAT jobs of {} epochs, each on its own seeded dataset, {} steps of batch {}; \
         latency = per-epoch wall time (steps plus that epoch's evaluation) per step, \
         p50 the median over slices of 20 epochs; images_per_s = median over jobs of \
         trained images per second",
        out.jobs,
        qat::EPOCHS,
        out.steps,
        qat::BATCH
    ));
    report
}

fn serving_end_to_end(w: Workload, seed: u64, window: Duration) -> Report {
    let mut report = Report::default();
    let dep = deploy(w, seed);
    let warm = serve_window(w, &dep, seed ^ 0xA5A5, WARMUP, false);
    account(&mut report, &warm);
    let out = serve_window(w, &dep, seed, window, false);
    account(&mut report, &out);
    let _ = dep.session.shutdown();
    serving_check(&mut report);
    let n = out.latency_ms.len();
    report.metric("images_per_s", out.images_per_s(), "img/s", Some(n));
    report.metric(
        "latency_p50_ms",
        sliced_quantile(&out.latency_ms, 0.5),
        "ms",
        Some(n),
    );
    // Printed, not gated: on a shared 2-core VM the p99 of ten open-loop
    // runs spread 30-50% (quartiles) with the host's CPU steal.
    report.detail(
        "latency_p99_ms",
        sliced_quantile(&out.latency_ms, 0.99),
        "ms",
        Some(n),
    );
    report.metric(
        "setup_s",
        median(&dep.setup_s),
        "s",
        Some(dep.setup_s.len()),
    );
    report.notes.push(format!(
        "{} requests from {} closed-loop callers measured over {:.3} s after {} warm-up \
         requests; latency from submission; each latency quantile is the median over slices just large \
         enough for ten samples beyond it (p50: 20 requests, p99: 1000; plain below 2 \
         slices); images_per_s is the median over 3-s windows",
        n,
        if w == Workload::ServeTiny {
            TINY_CLIENTS
        } else {
            R20_CLIENTS
        },
        out.elapsed_s,
        warm.attempted,
    ));
    report
}
