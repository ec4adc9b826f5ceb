//! The QAT workload: one-stage QAT (`train_with_scheme` under the paper's
//! scheme) on the quick CIFAR-10 setting, as repeated fixed-budget jobs.

use crate::models::MODEL_SEED;
use cq_bench::{ExperimentSetting, Scale};
use cq_core::{build_cim_resnet, QuantScheme};
use cq_data::generate;
use cq_nn::{LrSchedule, ResNet};
use cq_train::train_with_scheme;
use std::time::{Duration, Instant};

/// Epochs per QAT job: the fixed training budget.
pub const EPOCHS: usize = 4;
/// Mini-batch size of the quick CIFAR-10 setting.
pub const BATCH: usize = 16;

/// The quick CIFAR-10 setting with the benchmark's epoch budget.
pub fn setting(seed: u64) -> ExperimentSetting {
    let mut s = ExperimentSetting::cifar10(Scale::Quick, seed);
    assert_eq!(s.train.batch_size, BATCH, "quick CIFAR-10 batch size");
    s.train.epochs = EPOCHS;
    s.train.lr = LrSchedule::Cosine {
        base: 0.05,
        total_epochs: EPOCHS,
    };
    s
}

/// Builds the untrained CIM ResNet of `setting` under the paper's scheme.
pub fn build_model(setting: &ExperimentSetting) -> ResNet {
    build_cim_resnet(
        setting.model.clone(),
        &setting.cim,
        &QuantScheme::ours(),
        MODEL_SEED,
    )
}

/// The data seed of QAT job `job` of a run with workload seed `seed`.
/// Step time depends on the data (runs on different seeds differ by up
/// to ~15%), so every job of a run trains on its own dataset and a run
/// averages over several.
pub fn job_seed(seed: u64, job: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(job)
}

/// Set-up time of the QAT workload, `reps` times: generating the first
/// job's dataset plus building its model.
pub fn setup_s(seed: u64, reps: usize) -> Vec<f64> {
    let setting = setting(job_seed(seed, 0));
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let data = generate(&setting.data);
            let model = build_model(&setting);
            let s = t.elapsed().as_secs_f64();
            drop((data, model));
            s
        })
        .collect()
}

/// What the QAT jobs of one window observed.
#[derive(Default)]
pub struct Outcome {
    pub jobs: u64,
    /// Jobs whose loss was non-finite or did not fall.
    pub failed_jobs: u64,
    pub steps: u64,
    pub images: u64,
    /// Sum of the jobs' `train_with_scheme` wall time.
    pub train_s: f64,
    /// Per job: trained images per second.
    pub job_images_per_s: Vec<f64>,
    /// Per epoch: wall time (training steps plus its evaluation) per step,
    /// in ms.
    pub ms_per_step: Vec<f64>,
}

/// Runs fixed-budget QAT jobs, each on a fresh model and its own dataset
/// (see [`job_seed`]), until `window` has passed. A job passes when every
/// epoch loss is finite and the last epoch's loss is below the first's.
pub fn run(seed: u64, window: Duration) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    while start.elapsed() < window {
        let setting = setting(job_seed(seed, out.jobs));
        let (train, test) = generate(&setting.data);
        let steps_per_epoch = train.len().div_ceil(BATCH);
        let mut net = build_model(&setting);
        let r = train_with_scheme(
            &mut net,
            &QuantScheme::ours(),
            &train,
            &test,
            &setting.train,
        );
        out.jobs += 1;
        let losses: Vec<f32> = r.history.iter().map(|e| e.train_loss).collect();
        let learned = losses.len() == EPOCHS
            && losses.iter().all(|l| l.is_finite())
            && losses[EPOCHS - 1] < losses[0];
        if !learned {
            out.failed_jobs += 1;
        }
        let mut prev = 0.0;
        for e in &r.history {
            out.ms_per_step
                .push((e.cumulative_seconds - prev) * 1e3 / steps_per_epoch as f64);
            prev = e.cumulative_seconds;
        }
        out.steps += (EPOCHS * steps_per_epoch) as u64;
        out.images += (EPOCHS * train.len()) as u64;
        out.train_s += r.total_seconds;
        out.job_images_per_s
            .push((EPOCHS * train.len()) as f64 / r.total_seconds);
    }
    out
}
